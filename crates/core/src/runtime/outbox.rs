//! The barrier-relay stash of the carrier layer.
//!
//! Munin's central message-economy claim is that release consistency lets the
//! runtime merge consistency traffic into far fewer messages than a
//! sequentially-consistent DSM. Most of that merging needs no state: a
//! bundle is attached to a message that is leaving anyway (a lock grant, an
//! `InvalidateAck`, a `BarrierArrive`), framed by
//! [`crate::msg::DsmMsg::Carrier`]. The one place a bundle waits is the
//! **barrier relay**: the barrier owner (or an interior node of the
//! barrier's tree) stashes the update bundles that rode in on arrive
//! carriers here and re-attaches each to the `BarrierRelease` headed to its
//! destination, so a release flush costs no standalone update or ack
//! messages at all.
//!
//! The outbox is a leaf lock: it is never held while the directory, DUQ, or
//! sync locks are taken. Only bundles whose delayed delivery is safe are ever
//! relayed — see `DESIGN.md`, "Carrier layer", for the argument.

use std::collections::BTreeMap;

use munin_sim::NodeId;

use crate::msg::UpdateBundle;
use crate::sync::BarrierId;

/// The per-node outbox.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Bundles that rode in on arrive carriers, keyed by barrier and final
    /// destination so overlapping barrier episodes can never
    /// cross-contaminate.
    relay: BTreeMap<(BarrierId, NodeId), Vec<UpdateBundle>>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stashes a relayed bundle at the barrier owner until the barrier trips.
    pub fn stash_relay(&mut self, barrier: BarrierId, dest: NodeId, bundle: UpdateBundle) {
        self.relay.entry((barrier, dest)).or_default().push(bundle);
    }

    /// Takes the relayed bundles to attach to the release headed to `dest`.
    pub fn take_relay(&mut self, barrier: BarrierId, dest: NodeId) -> Vec<UpdateBundle> {
        self.relay.remove(&(barrier, dest)).unwrap_or_default()
    }

    /// Removes and returns every stashed bundle for `barrier` whose
    /// destination is *not* in `inside`. A node calls this when sending its
    /// upward report: bundles leaving its static subtree ride the report;
    /// bundles staying inside wait for the downward release.
    pub fn take_relay_outside(
        &mut self,
        barrier: BarrierId,
        inside: &crate::nodeset::NodeSet,
    ) -> Vec<(NodeId, UpdateBundle)> {
        self.take_relay_matching(barrier, |dest| !inside.contains(dest))
    }

    /// Removes and returns every stashed bundle for `barrier` whose
    /// destination is in `covered`, excluding `except` (whose bundles
    /// attach directly to its own release as carrier updates). The
    /// downward-release partition.
    pub fn take_relay_within(
        &mut self,
        barrier: BarrierId,
        covered: &crate::nodeset::NodeSet,
        except: NodeId,
    ) -> Vec<(NodeId, UpdateBundle)> {
        self.take_relay_matching(barrier, |dest| dest != except && covered.contains(dest))
    }

    fn take_relay_matching(
        &mut self,
        barrier: BarrierId,
        pred: impl Fn(NodeId) -> bool,
    ) -> Vec<(NodeId, UpdateBundle)> {
        let keys: Vec<(BarrierId, NodeId)> = self
            .relay
            .keys()
            .filter(|(b, dest)| *b == barrier && pred(*dest))
            .copied()
            .collect();
        keys.into_iter()
            .flat_map(|k| {
                let bundles = self.relay.remove(&k).unwrap_or_default();
                bundles.into_iter().map(move |b| (k.1, b))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Route, UpdateItem, UpdatePayload};
    use crate::object::ObjectId;

    /// Accessors only the tests read.
    impl Outbox {
        /// Number of stashed relay bundles.
        pub fn relay_len(&self) -> usize {
            self.relay.values().map(Vec::len).sum()
        }
    }

    fn bundle(from: usize) -> UpdateBundle {
        UpdateBundle {
            origin: NodeId::new(from),
            seq: 0,
            items: vec![UpdateItem {
                object: ObjectId::new(0),
                payload: UpdatePayload::Full(vec![from as u8; 4]),
            }],
            route: Route::Carried,
        }
    }

    #[test]
    fn relay_stash_is_keyed_by_barrier_and_destination() {
        let mut ob = Outbox::new();
        ob.stash_relay(BarrierId(0), NodeId::new(1), bundle(2));
        ob.stash_relay(BarrierId(0), NodeId::new(1), bundle(3));
        ob.stash_relay(BarrierId(1), NodeId::new(1), bundle(4));
        assert_eq!(ob.relay_len(), 3);
        let got = ob.take_relay(BarrierId(0), NodeId::new(1));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].origin, NodeId::new(2));
        // The other barrier's stash is untouched.
        assert_eq!(ob.relay_len(), 1);
        assert!(ob.take_relay(BarrierId(0), NodeId::new(1)).is_empty());
    }

    /// The per-hop partition: `take_relay_outside` extracts exactly the
    /// bundles leaving a subtree, `take_relay_within` exactly the covered
    /// remainder minus the directly-released child, and neither touches the
    /// other barrier's stash.
    #[test]
    fn relay_partitions_split_a_stash_by_destination_set() {
        use crate::nodeset::NodeSet;
        let mut ob = Outbox::new();
        for dest in [1, 2, 5, 6] {
            ob.stash_relay(BarrierId(0), NodeId::new(dest), bundle(0));
        }
        ob.stash_relay(BarrierId(1), NodeId::new(5), bundle(0));
        let subtree = NodeSet::from_nodes([0, 1, 2].map(NodeId::new));
        let out = ob.take_relay_outside(BarrierId(0), &subtree);
        assert_eq!(
            out.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
            vec![NodeId::new(5), NodeId::new(6)]
        );
        // Inside bundles are still stashed; release to child 1 covering
        // {1, 2} re-relays only node 2's bundle.
        let covered = NodeSet::from_nodes([1, 2].map(NodeId::new));
        let within = ob.take_relay_within(BarrierId(0), &covered, NodeId::new(1));
        assert_eq!(
            within.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
            vec![NodeId::new(2)]
        );
        // Child 1's own bundle attaches via take_relay, and barrier 1's
        // stash never moved.
        assert_eq!(ob.take_relay(BarrierId(0), NodeId::new(1)).len(), 1);
        assert_eq!(ob.relay_len(), 1);
    }
}
