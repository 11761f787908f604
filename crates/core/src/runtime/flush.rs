//! Flushing the delayed update queue at a release.
//!
//! "When a thread releases a lock or reaches a barrier, the modifications to
//! the objects enqueued on the DUQ are propagated to their remote copies."
//! (Section 3.3.) The flush proceeds in three steps:
//!
//! 1. find the copyset of every enqueued object. The prototype broadcasts a
//!    query for it; here nobody is asked. Only the delayed-update
//!    annotations enqueue, and none of them invalidates, so the copyset an
//!    owner recorded while serving fetches is every remote copy there is; an
//!    object owned elsewhere goes to its owner, whose copyset picks the
//!    receivers, and a `result` object goes to its owner alone,
//! 2. encode the changes — a run-length encoded diff against the twin when
//!    one exists, the full object image otherwise — and
//! 3. send the updates (grouped into one message per destination node) and
//!    wait for acknowledgements, so that all writes performed before the
//!    release are performed with respect to every other processor before the
//!    release completes.
//!
//! `result` objects are not sent to their copyset: their changes are flushed
//! only to the owner and the local copy is invalidated (the `Fl` parameter).
//!
//! Every update leaves as one [`crate::msg::UpdateBundle`]; what differs is
//! the route it takes ([`FlushMode`] and `classify`): its own acknowledged
//! message, a ride on the barrier arrive or lock grant that the release is
//! about to send anyway, its own message fenced by that arrive when it is too
//! big to ride, or — for objects this node does not own — whole to the
//! owner, which re-fans it. The `Flush()`, `Invalidate()` and
//! `ChangeAnnotation()` hints run the same flush at once, acknowledged
//! messages only, and leave nothing behind for a later release to deliver.

use std::collections::BTreeMap;
use std::sync::Arc;

use munin_sim::NodeId;

use crate::directory::AccessRights;
use crate::error::{MuninError, Result};
use crate::msg::{DsmMsg, Route, UpdateItem, UpdatePayload};
use crate::nodeset::NodeSet;
use crate::object::ObjectId;
use crate::stats::{add, bump};

use super::NodeRuntime;

/// Routing decision for one flushed object: the destinations its changes go
/// to, whether they fan out to a copyset (`true`) or flush to the owner
/// (`false`, `result` objects), and whether this node owns the object (which
/// is what makes deferred delivery through the carrier layer safe — the
/// owner serves every fetch from live memory itself). Produced by
/// `NodeRuntime::flush_route`.
pub(crate) struct FlushRoute {
    pub(crate) fans_out: bool,
    pub(crate) owned: bool,
    /// `Some(owner)` when the bundle takes the owner-cooperative path: it
    /// ships whole (`Route::OwnerFanout`) to the object's (probable) owner,
    /// which installs it and re-fans to the members of its authoritative
    /// copyset. Set for every non-owned fan-out entry with an owner hint
    /// other than this node, fixed copyset or not; such entries ignore
    /// `destinations`.
    pub(crate) coop_owner: Option<NodeId>,
    /// Fan-out destination set (already excludes this node). A bitmap, not a
    /// materialized list: flush paths iterate it in place.
    pub(crate) destinations: NodeSet,
}

/// How a flush dispatches its updates through the carrier/outbox layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushMode {
    /// Every update goes as its own acknowledged message — the paper's
    /// `Flush()`, used at lock releases without a waiting grantee and for
    /// the `Flush` / `Invalidate` / `ChangeAnnotation` hints.
    Immediate,
    /// Release at an all-node barrier owned by `owner`: owner-flushed
    /// fan-out items (and `result` flushes homed at the owner) are returned
    /// to the caller to ride the `BarrierArrive` carrier, from which the
    /// owner re-attaches them to the matching releases.
    BarrierRelay {
        /// The barrier owner the arrive is headed to.
        owner: NodeId,
        /// Whether the barrier's topology is a star. Only then may a
        /// non-owned bundle whose owner is `owner` ride the arrive too (see
        /// the cooperative dispatch in `flush_duq_mode`).
        star: bool,
    },
    /// Lock release with a known next holder: owner-flushed fan-out items
    /// destined for the grantee ride the `LockGrant` carrier instead of a
    /// standalone update+ack round.
    LockRelay {
        /// The waiter the lock will be handed to.
        grantee: NodeId,
    },
}

/// Where one (entry, destination) pair goes under a given flush mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dispatch {
    /// Its own acknowledged message.
    Acked,
    /// A ride on the carrier the release is about to send.
    Relay,
    /// Direct and unacknowledged: a later slot of the same stream rides the
    /// `BarrierArrive` as its fence (see the send in `flush_duq_mode`).
    Fenced,
}

/// The route of `bytes` of encoded payload from one entry to `dest`.
fn classify(mode: FlushMode, route: &FlushRoute, dest: NodeId, bytes: u64, max: u64) -> Dispatch {
    debug_assert!(
        route.coop_owner.is_none(),
        "owner-cooperative routes are dispatched whole, never per-destination"
    );
    if route.fans_out {
        if !route.owned {
            // The one non-owned entry outside the cooperative path: a page
            // at its own home whose owner hint names this node. There is no
            // owner to hand it to, so it goes to the recorded copyset — and
            // never rides, since only an owner serves fetches from the live
            // copy the carried changes are already in.
            return Dispatch::Acked;
        }
        match mode {
            FlushMode::Immediate => Dispatch::Acked,
            // Adaptive relay: a barrier-relayed payload bound for anyone but
            // the barrier owner transits the wire twice (flusher → owner →
            // destination). At or above the configured size the byte
            // doubling outweighs the saved message, so it goes direct.
            // Owner-bound and lock-relay bundles ride single-transit.
            FlushMode::BarrierRelay { owner, .. } if dest != owner && bytes >= max => {
                Dispatch::Fenced
            }
            FlushMode::BarrierRelay { .. } => Dispatch::Relay,
            FlushMode::LockRelay { grantee } if dest == grantee => Dispatch::Relay,
            FlushMode::LockRelay { .. } => Dispatch::Acked,
        }
    } else {
        // `result` flushes go to the fixed owner; they can ride a barrier
        // arrive that is already headed there (the owner installs the bundle
        // before counting the arrival, which is at least as early as the
        // legacy apply-then-ack).
        match mode {
            FlushMode::BarrierRelay { owner, .. } if dest == owner => Dispatch::Relay,
            _ => Dispatch::Acked,
        }
    }
}

/// Update items grouped by the node they are headed to.
pub(crate) type PerDest = BTreeMap<NodeId, Vec<UpdateItem>>;

/// The objects a list of update items names (for the protocol trace).
fn objects_of(items: &[UpdateItem]) -> Vec<ObjectId> {
    items.iter().map(|i| i.object).collect()
}

impl NodeRuntime {
    /// Flushes the delayed update queue with every update as its own
    /// acknowledged message. Called by releases without a carrier
    /// opportunity and by the hints, which leave nothing unsent behind —
    /// `Flush()` itself "advises Munin to flush any buffered writes
    /// immediately rather than waiting for a release".
    pub(crate) fn flush_duq(self: &Arc<Self>) -> Result<()> {
        self.flush_duq_mode(FlushMode::Immediate).map(|_| ())
    }

    /// Flushes the delayed update queue, dispatching updates per `mode`.
    /// Returns what the caller must attach to its carrier (barrier arrive or
    /// lock grant): the per-destination bundles, and — at a star barrier —
    /// the cooperative bundle for the barrier's owner. Both are empty except
    /// in the relay modes.
    pub(crate) fn flush_duq_mode(
        self: &Arc<Self>,
        mode: FlushMode,
    ) -> Result<(PerDest, Vec<UpdateItem>)> {
        // Listed, not drained: every entry stays queued, its twin where a
        // peer's update still finds it to patch, until `encode_entry` takes
        // it out under the lock it encodes under.
        let objects = self.duq.lock().pending();
        bump(&self.stats.duq_flushes);
        if objects.is_empty() {
            return Ok(Default::default());
        }
        add(&self.stats.duq_objects_flushed, objects.len() as u64);

        // Step 1: no copyset is determined (module documentation). A stable
        // object's relationship is fixed at its owner's first flush.
        {
            let mut dir = self.dir.lock();
            for o in &objects {
                let e = dir.entry_mut(*o);
                debug_assert!(
                    !e.params.uses_invalidate(),
                    "only update-based annotations enqueue"
                );
                if e.state.owned && e.params.is_stable() {
                    e.state.copyset_fixed = true;
                }
            }
        }

        // Steps 2 and 3: encode each entry with a receiver exactly once (the
        // flat diff buffer is shared, via `Arc`, between the per-destination
        // clones of the payload), then send.
        let max = self.cfg.relay_max_bytes;
        let mut pending = PerDest::new();
        let mut relay = PerDest::new();
        // Owner-cooperative bundles, keyed by the owner they ship to.
        let mut coop = PerDest::new();
        // Over-threshold owner-flushed barrier items, sent direct and fenced.
        let mut fenced = PerDest::new();
        // Plain `UpdateAck`s owed, per node: the release waits until none
        // is, and a node confirmed dead mid-round is written off whole.
        type Owed = BTreeMap<NodeId, usize>;
        let mut outstanding = Owed::new();
        // Standalone fan-outs awaiting their owner's ack (which names the
        // re-fans still to count), each bundle kept for the degraded
        // broadcast should its owner be confirmed dead first.
        let mut coop_pending = PerDest::new();
        let send_update = |rt: &Arc<Self>,
                           dest: NodeId,
                           items: Vec<UpdateItem>,
                           outstanding: &mut Owed|
         -> Result<()> {
            if dest != rt.node && rt.is_peer_dead(dest) {
                // Confirmed dead after the route was computed: recovery has
                // already pruned it from the copysets; nothing to send.
                return Ok(());
            }
            crate::runtime::proto_trace!(rt, "flush -> {dest:?}: {:?}", objects_of(&items));
            let update = rt.next_bundle(dest, rt.clock.now(), items, Route::DirectAcked);
            rt.send(dest, DsmMsg::Update(update))?;
            *outstanding.entry(dest).or_default() += 1;
            Ok(())
        };
        // Degraded fallback when a cooperative owner is dead: every live peer
        // gets the bundle as an ordinary acknowledged update, and peers
        // without a copy discard it on apply.
        let broadcast_degraded =
            |rt: &Arc<Self>, items: Vec<UpdateItem>, outstanding: &mut Owed| -> Result<()> {
                for peer in rt.live_peers().iter() {
                    send_update(rt, peer, items.clone(), outstanding)?;
                }
                Ok(())
            };
        for object in objects {
            let (payload, route) = self.encode_entry(object)?;
            let Some(payload) = payload else { continue };
            let item = || UpdateItem {
                object,
                payload: payload.clone(),
            };
            if let Some(owner) = route.coop_owner {
                coop.entry(owner).or_default().push(item());
                continue;
            }
            let bytes = payload.model_bytes();
            for dest in route.destinations.iter() {
                match classify(mode, &route, dest, bytes, max) {
                    Dispatch::Acked => pending.entry(dest).or_default().push(item()),
                    Dispatch::Relay => relay.entry(dest).or_default().push(item()),
                    Dispatch::Fenced => {
                        add(&self.stats.relay_bypassed_bytes, bytes);
                        self.obs.record(
                            self.clock.now().as_nanos(),
                            crate::obs::EventKind::RelayBypass,
                            |ev| {
                                ev.peer = Some(dest);
                                ev.seq = Some(bytes);
                            },
                        );
                        fenced.entry(dest).or_default().push(item());
                    }
                }
            }
        }
        for (dest, items) in pending {
            send_update(self, dest, items, &mut outstanding)?;
        }
        // The barrier is the ack: a fenced update leaves now and nobody waits
        // for it. Its destination's relay entry (the small diffs riding
        // there, else an item-less bundle) draws a later slot of the same
        // stream at the arrive; re-attached to the destination's release,
        // that slot holds the release at the admission gate until this
        // update is installed — the visibility point the ack enforced.
        for (dest, items) in fenced {
            if !self.is_peer_dead(dest) {
                let update = self.next_bundle(dest, self.clock.now(), items, Route::DirectUnacked);
                self.send(dest, DsmMsg::Update(update))?;
                relay.entry(dest).or_default();
            }
        }
        // Owner-cooperative fan-out: each non-owned bundle ships whole to
        // its owner, which installs it and re-fans to the members of its
        // authoritative copyset. The origin waits for the owner's ack, then
        // for one plain `UpdateAck` from each re-fan destination it names.
        let mut ride = Vec::new();
        for (owner, items) in coop {
            debug_assert_ne!(owner, self.node, "coop routes never point home");
            if self.is_peer_dead(owner) {
                broadcast_degraded(self, items, &mut outstanding)?;
                continue;
            }
            // Unless the owner is the one the arrive is headed to, at a star:
            // then the bundle rides that arrive, its re-fans ride the
            // releases, and this flush neither sends it nor waits for it —
            // the release each member observes is where "performed" has to
            // hold, as for a fenced update. Star only: a riding re-fan is
            // unsequenced like every forward, ordered against this node's
            // *next* forward to the same member (a lock-release flush, sent
            // standalone owner → member) by link FIFO alone. A star's
            // release leaves on that very link first (`release_children`
            // sees to it); down a tree it takes interior hops, and the later
            // forward could overtake it while the member is still parked at
            // the barrier.
            if mode == (FlushMode::BarrierRelay { owner, star: true }) {
                ride = items;
                continue;
            }
            crate::runtime::proto_trace!(self, "coop relay -> {owner:?}: {:?}", objects_of(&items));
            let standalone = Route::OwnerFanout { ride: None };
            let fanout = self.next_bundle(owner, self.clock.now(), items.clone(), standalone);
            self.send(owner, DsmMsg::Update(fanout))?;
            coop_pending.insert(owner, items);
        }
        // Relayed bundles are returned to the caller, which sequences and
        // attaches them (the barrier arrive / lock grant send sites).
        for (dest, items) in &relay {
            crate::runtime::proto_trace!(self, "relay -> {dest:?}: {:?}", objects_of(items));
        }

        // Ack round (conservative release consistency: updates are performed
        // at the release). A fan-out's ack (`refanned: Some`) settles its
        // owner's `coop_pending` entry; a plain one takes one off what its
        // sender owes, or — a re-fan destination's, having overtaken the ack
        // naming it — waits in `unclaimed` until that ack claims it. (Counted
        // at once, such acks let the loop exit short of a dead owner's
        // degraded broadcast, and the stragglers answered the next wait.)
        let mut unclaimed = Owed::new();
        /// Takes one off `node`'s count, if it has any.
        fn take_one(counts: &mut Owed, node: NodeId) -> bool {
            match counts.get_mut(&node) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    true
                }
                _ => false,
            }
        }
        let mut handled = crate::nodeset::NodeSet::EMPTY;
        while outstanding.values().any(|owed| *owed > 0) || !coop_pending.is_empty() {
            let (env, reply) =
                match self.wait_reply_or_dead(crate::runtime::WaitOp::UpdateAcks, &mut handled) {
                    Ok(reply) => reply,
                    Err(MuninError::PeerDied(n)) => {
                        // A dead node's acks will never arrive: write off
                        // everything still outstanding towards it. Its copies
                        // are unreachable, which is the post-crash equivalent
                        // of "update performed".
                        outstanding.remove(&n);
                        if let Some(items) = coop_pending.remove(&n) {
                            // A cooperative owner died before acking, its
                            // re-fans unknown. Re-installing the same words
                            // is harmless: nobody has acquired this release
                            // yet. (Re-fan acks sent before the crash are in
                            // long before its confirmation.)
                            broadcast_degraded(self, items, &mut outstanding)?;
                        }
                        continue;
                    }
                    Err(e) => return Err(e),
                };
            match reply {
                DsmMsg::UpdateAck { refanned: None } => {
                    if !take_one(&mut outstanding, env.src) {
                        *unclaimed.entry(env.src).or_default() += 1;
                    }
                }
                DsmMsg::UpdateAck {
                    refanned: Some(refanned),
                } => {
                    if coop_pending.remove(&env.src).is_none() {
                        continue; // a duplicate's (the owner's stale path)
                    }
                    // Each re-fan destination acknowledges this node
                    // directly; its ack joins this release's count — at once
                    // if it is already here. One that died since will never
                    // ack, and its death was already signalled.
                    for dest in refanned {
                        if !self.is_peer_dead(dest) && !take_one(&mut unclaimed, dest) {
                            *outstanding.entry(dest).or_default() += 1;
                        }
                    }
                }
                other => {
                    return Err(MuninError::ProtocolViolation(match other {
                        DsmMsg::ObjectData { .. } => "unexpected ObjectData during flush",
                        _ => "unexpected reply while waiting for update acks",
                    }))
                }
            }
        }
        Ok((relay, ride))
    }

    /// Computes where one flushed object's changes go: the single source of
    /// routing truth.
    fn flush_route(&self, e: &crate::directory::DirEntry) -> FlushRoute {
        if e.params.flushes_to_owner() {
            // `result` objects go only to their owner; nothing to send when
            // this node *is* the owner.
            FlushRoute {
                fans_out: false,
                owned: e.state.owned,
                coop_owner: None,
                destinations: if e.home == self.node {
                    NodeSet::EMPTY
                } else {
                    NodeSet::from_nodes([e.home])
                },
            }
        } else {
            let owned = e.state.owned;
            // Owner-cooperative relay: non-owned fan-out bundles ship whole
            // to the owner, which re-fans from its authoritative copyset —
            // also when this node fixed a copyset while it owned the page,
            // since the owner has served fetches since. A hint that
            // degenerates to ourselves is repaired toward home; liveness is
            // checked at send time, not here — the failure detector takes
            // its own lock and this runs under the directory lock.
            let coop_owner = if !owned {
                let hint = if e.probable_owner == self.node {
                    e.home
                } else {
                    e.probable_owner
                };
                (hint != self.node).then_some(hint)
            } else {
                None
            };
            FlushRoute {
                fans_out: true,
                owned,
                coop_owner,
                destinations: e.copyset.to_set(self.nodes, Some(self.node)),
            }
        }
    }

    /// Takes `object`'s entry out of the DUQ and, when `encode`, captures what
    /// it changed — a diff against the twin (straight out of segment memory,
    /// into the node's reusable scratch buffer) or the whole image when there
    /// is none — in one DUQ-lock scope, the one `apply_update_items` holds
    /// across memory apply + twin patch. A peer's update is therefore in both
    /// the memory and the twin compared here or in neither, and the diff
    /// carries this node's own words only (flat diff invariant 6). The twin
    /// goes back to the pool. `None`: the object is not queued (any more).
    pub(crate) fn capture_changes(
        &self,
        object: ObjectId,
        encode: bool,
    ) -> Option<Option<UpdatePayload>> {
        let mut duq = self.duq.lock();
        let twin = duq.remove(object)?.twin;
        let payload = encode.then(|| match &twin {
            Some(twin) => UpdatePayload::Diff(
                self.with_object_mem(object, |cur| self.diff_scratch.lock().encode(cur, twin)),
            ),
            None => UpdatePayload::Full(self.object_bytes(object)),
        });
        twin.into_iter().for_each(|twin| duq.recycle_twin(twin));
        Some(payload)
    }

    /// Takes one DUQ entry out, encodes its changes if anyone receives them
    /// and applies the per-protocol state transitions (re-protection,
    /// invalidation of the local copy for `result` objects, private-page
    /// promotion for stable objects with an empty copyset). A diff is encoded
    /// at most once, and shared via `Arc` when the caller fans it out.
    pub(crate) fn encode_entry(
        self: &Arc<Self>,
        object: ObjectId,
    ) -> Result<(Option<UpdatePayload>, FlushRoute)> {
        let (route, stable) = {
            let dir = self.dir.lock();
            let e = dir.entry(object);
            (self.flush_route(e), e.params.is_stable())
        };
        // Nobody receives a diff of a `result` object at its home, or of an
        // empty copyset — unless the entry is owner-cooperative: its owner
        // decides the fan-out, and the local copyset proves
        // nothing. No receiver, no diff and no charge ("What a flush is
        // charged").
        let nowhere = route.coop_owner.is_none() && route.destinations.is_empty();
        let payload = match self.capture_changes(object, !nowhere) {
            // An invalidation got to the entry since the flush listed it, and
            // has propagated its changes and dropped the copy.
            None => return Ok((None, route)),
            Some(Some(UpdatePayload::Diff(d))) => {
                let words = (self.object_range(object).len() / 4) as u64;
                self.charge_sys(self.cost.encode(words, d.run_count() as u64));
                (!d.is_empty()).then_some(UpdatePayload::Diff(d))
            }
            Some(other) => other,
        };
        let mut dir = self.dir.lock();
        let e = dir.entry_mut(object);
        e.state.dirty = false;
        if !route.fans_out {
            // `result` objects: send only to the owner, then invalidate the
            // local copy ("Fl" and the description of Matrix Multiply). The
            // home's own changes are already in place, and it keeps them.
            if !nowhere {
                self.set_entry_rights(e, AccessRights::Invalid);
                e.state.owned = false;
                e.probable_owner = e.home;
            }
        } else if nowhere && stable {
            // "Any pages that have an empty Copyset and are therefore private
            // are made locally writable, their twins are deleted, and they do
            // not generate further access faults."
            self.set_entry_rights(e, AccessRights::ReadWrite);
        } else {
            // Write-shared / producer-consumer: keep the copy, re-write-protect
            // so the next write makes a fresh twin.
            self.set_entry_rights(e, AccessRights::Read);
        }
        Ok((payload, route))
    }

    /// Flushes the DUQ at once if any of `objects` is sitting in it: a hint
    /// that acts on a variable first brings its copies up to date.
    fn flush_if_pending(self: &Arc<Self>, objects: &[ObjectId]) -> Result<()> {
        let any_pending = {
            let duq = self.duq.lock();
            objects.iter().any(|o| duq.contains(*o))
        };
        if any_pending {
            self.flush_duq()?;
        }
        Ok(())
    }

    /// `Invalidate()` hint: deletes the local copy of every object of a
    /// variable, propagating pending changes first.
    pub(crate) fn invalidate_hint(self: &Arc<Self>, objects: &[ObjectId]) -> Result<()> {
        self.flush_if_pending(objects)?;
        let mut dir = self.dir.lock();
        for o in objects {
            let e = dir.entry_mut(*o);
            if e.state.owned {
                if e.home == self.node {
                    // The home's owned copy *is* the object, where later
                    // fetches find the data: nothing to delete, and "owned,
                    // no rights" keeps meaning "never materialised".
                    continue;
                }
                // Give ownership back to the home node so later fetches can
                // still find the data there.
                e.state.owned = false;
                e.probable_owner = e.home;
            }
            self.set_entry_rights(e, AccessRights::Invalid);
            e.state.dirty = false;
        }
        Ok(())
    }

    /// `PhaseChange()` hint: "purges the accumulated sharing relationship
    /// information", so the owner's next flush fixes producer-consumer
    /// copysets afresh.
    pub(crate) fn phase_change(self: &Arc<Self>) {
        // Lock order dir → duq, like every other path that holds both (the
        // invalidate handler encodes its flush under the directory lock).
        let mut dir = self.dir.lock();
        let duq = self.duq.lock();
        dir.phase += 1;
        for idx in 0..dir.len() {
            let e = dir.entry_mut(ObjectId::new(idx as u32));
            if e.params.is_stable() {
                // Clear the "relationship is fixed" bit so the next flush
                // fixes it afresh. The recorded copyset itself is
                // kept: at the owner it doubles as the record of served
                // fetches that its re-fans and its own flushes rely on.
                e.state.copyset_fixed = false;
                e.state.phase_voided = false;
                // Pages promoted to locally-writable ("private") must be
                // write-protected again so that writes under the new sharing
                // relationships are detected and propagated.
                if e.state.rights == AccessRights::ReadWrite && !duq.contains(e.object) {
                    self.set_entry_rights(e, AccessRights::Read);
                }
            }
        }
    }

    /// `ChangeAnnotation()` hint: switches the protocol used for a variable's
    /// objects. Pending delayed updates are flushed first so the object is
    /// brought up to date under its old protocol.
    pub(crate) fn change_annotation(
        self: &Arc<Self>,
        objects: &[ObjectId],
        annotation: crate::annotation::SharingAnnotation,
    ) -> Result<()> {
        self.flush_if_pending(objects)?;
        let mut dir = self.dir.lock();
        for o in objects {
            let e = dir.entry_mut(*o);
            e.set_annotation(annotation);
            e.state.copyset_fixed = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::SharingAnnotation;
    use crate::config::MuninConfig;
    use crate::msg::UpdateBundle;
    use crate::segment::SharedDataTable;
    use munin_sim::{CostModel, Network, NodeClock, VirtTime};
    use std::collections::HashSet;

    fn single_node() -> Arc<NodeRuntime> {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8);
        table.declare("pc", SharingAnnotation::ProducerConsumer, 4, 8);
        table.declare("res", SharingAnnotation::Result, 4, 8);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(1));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(1, CostModel::fast_test());
        let (sender, _rx) = net.endpoint(0, clock.clone()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            1,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            sender,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        rt
    }

    fn obj(rt: &NodeRuntime, name: &str) -> ObjectId {
        rt.table().var_by_name(name).unwrap().objects[0]
    }

    /// A plain `UpdateAck`: a direct update's or a forward's.
    fn ack() -> DsmMsg {
        DsmMsg::UpdateAck { refanned: None }
    }

    /// An owner's `UpdateAck` for a standalone fan-out, naming `refanned`.
    fn fanout_ack(refanned: Vec<NodeId>) -> DsmMsg {
        DsmMsg::UpdateAck {
            refanned: Some(refanned),
        }
    }

    #[test]
    fn flush_on_single_node_clears_duq_and_reprotects() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        rt.fault(ws, true, 0).unwrap();
        rt.install_object_bytes(ws, &[7u8; 32]);
        rt.flush_duq().unwrap();
        assert!(rt.duq.lock().is_empty());
        // Write-shared copies are re-write-protected after a flush.
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Read);
        assert_eq!(rt.stats().snapshot().duq_flushes, 1);
        assert_eq!(rt.stats().snapshot().duq_objects_flushed, 1);
    }

    #[test]
    fn stable_object_with_empty_copyset_becomes_private() {
        let rt = single_node();
        let pc = obj(&rt, "pc");
        rt.fault(pc, true, 0).unwrap();
        rt.flush_duq().unwrap();
        let dir = rt.dir.lock();
        let e = dir.entry(pc);
        assert!(e.state.copyset_fixed);
        assert_eq!(e.state.rights, AccessRights::ReadWrite);
        drop(dir);
        // A subsequent write does not fault, create a twin, or enqueue.
        let before = rt.stats().snapshot();
        rt.fault_in(&[pc], true).unwrap();
        assert_eq!(rt.stats().snapshot().write_faults, before.write_faults);
        assert!(rt.duq.lock().is_empty());
    }

    #[test]
    fn result_object_at_owner_flushes_locally() {
        let rt = single_node();
        let res = obj(&rt, "res");
        rt.fault(res, true, 0).unwrap();
        rt.install_object_bytes(res, &[1u8; 32]);
        rt.flush_duq().unwrap();
        // The owner keeps its (authoritative) copy.
        assert!(rt.dir.lock().entry(res).state.rights.allows_read());
        assert_eq!(rt.stats().snapshot().updates_sent, 0);
    }

    #[test]
    fn phase_change_clears_fixed_copysets() {
        let rt = single_node();
        let pc = obj(&rt, "pc");
        rt.fault(pc, true, 0).unwrap();
        rt.flush_duq().unwrap();
        assert!(rt.dir.lock().entry(pc).state.copyset_fixed);
        rt.phase_change();
        assert!(!rt.dir.lock().entry(pc).state.copyset_fixed);
    }

    #[test]
    fn change_annotation_switches_protocol() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        rt.change_annotation(&[ws], SharingAnnotation::Conventional)
            .unwrap();
        let dir = rt.dir.lock();
        assert_eq!(dir.entry(ws).annotation, SharingAnnotation::Conventional);
        assert!(dir.entry(ws).params.uses_invalidate());
    }

    /// `Invalidate()` flushes and drops a replica — but not the owning
    /// home's copy, which is the object itself: "owned, no rights" is how an
    /// owner knows, without looking, that an object was never materialised
    /// (`reply_image`), and live data must never be in that state.
    #[test]
    fn invalidate_hint_drops_a_replica_but_not_the_owning_homes_copy() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        rt.fault(ws, true, 0).unwrap();
        rt.invalidate_hint(&[ws]).unwrap();
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Read);
        assert!(rt.duq.lock().is_empty());

        rt.dir.lock().entry_mut(ws).state.owned = false;
        rt.invalidate_hint(&[ws]).unwrap();
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Invalid);
    }

    #[test]
    fn empty_flush_is_cheap_and_counted() {
        let rt = single_node();
        rt.flush_duq().unwrap();
        let snap = rt.stats().snapshot();
        assert_eq!(snap.duq_flushes, 1);
        assert_eq!(snap.duq_objects_flushed, 0);
        assert_eq!(snap.updates_sent, 0);
    }

    /// Builds a runtime on node 0 of a three-node network (the peers are
    /// driven manually) so copysets with several members can be exercised.
    fn three_node_runtime() -> Arc<NodeRuntime> {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(3));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(3, CostModel::fast_test());
        let (sender, _rx0) = net.endpoint(0, clock.clone()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            3,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            sender,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        rt
    }

    /// The flush fan-out guarantee: one DUQ entry is diff-encoded exactly
    /// once, and the per-destination payload clones share that single flat
    /// buffer via `Arc` instead of re-encoding or deep-copying.
    #[test]
    fn encode_entry_shares_one_encoding_across_destinations() {
        let rt = three_node_runtime();
        let ws = obj(&rt, "ws");
        // Take a write fault (creates the twin), modify the object, and give
        // the object a two-member copyset so the flush fans out.
        rt.fault(ws, true, 0).unwrap();
        rt.install_object_bytes(ws, &[7u8; 32]);
        {
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(NodeId::new(1));
            e.copyset.insert(NodeId::new(2));
        }
        assert!(rt.duq.lock().twin_of(ws).is_some());
        let (payload, route) = rt.encode_entry(ws).unwrap();
        assert!(rt.duq.lock().is_empty(), "encoding takes the entry out");
        let destinations = route.destinations;
        assert!(route.fans_out && route.owned);
        assert_eq!(
            destinations,
            NodeSet::from_nodes([NodeId::new(1), NodeId::new(2)])
        );
        let payload = payload.expect("modified object yields a payload");
        let UpdatePayload::Diff(ref d) = payload else {
            panic!("twin-backed entry must encode a diff, not a full image");
        };
        assert_eq!(d.changed_words(), 8);
        // Fan the payload out as flush_duq does and verify every clone
        // shares the same underlying buffer — i.e. exactly one encoding.
        let fanned: Vec<UpdatePayload> = destinations.iter().map(|_| payload.clone()).collect();
        for p in &fanned {
            let UpdatePayload::Diff(c) = p else {
                unreachable!()
            };
            assert!(
                std::ptr::eq(c.as_wire_bytes(), d.as_wire_bytes()),
                "per-destination clones must share one encoding"
            );
        }
        // The twin buffer went back to the pool for the next first-write.
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
    }

    /// Flushing reuses both the twin buffer (via the DUQ pool) and the diff
    /// scratch allocation across flush cycles. The page has a replica at N1,
    /// so each cycle encodes a diff; the barrier flush hands it back for the
    /// arrive instead of waiting for an acknowledgement.
    #[test]
    fn flush_cycle_reuses_twin_and_scratch_allocations() {
        let rt = three_node_runtime();
        let ws = obj(&rt, "ws");
        let n1 = NodeId::new(1);
        rt.dir.lock().entry_mut(ws).copyset.insert(n1);
        let mode = FlushMode::BarrierRelay {
            owner: n1,
            star: true,
        };
        // First cycle warms the pool and the scratch.
        rt.fault(ws, true, 0).unwrap();
        rt.install_object_bytes(ws, &[1u8; 32]);
        let (relay, _) = rt.flush_duq_mode(mode).unwrap();
        assert_eq!(relay[&n1].len(), 1, "the diff goes to N1");
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
        let scratch_cap = rt.diff_scratch.lock().capacity();
        assert!(scratch_cap > 0);
        // Second cycle must not grow either allocation.
        rt.fault(ws, true, 0).unwrap();
        assert_eq!(rt.duq.lock().pooled_twins(), 0, "twin taken from pool");
        rt.install_object_bytes(ws, &[2u8; 32]);
        let (relay, _) = rt.flush_duq_mode(mode).unwrap();
        assert_eq!(relay[&n1].len(), 1);
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
        assert_eq!(rt.diff_scratch.lock().capacity(), scratch_cap);
    }

    /// Dirties `object` in one word-aligned 32-byte write, takes it out of
    /// the DUQ through `encode_entry`, and returns what that produced and how
    /// far it moved the node clock.
    fn encode_dirty(
        rt: &Arc<NodeRuntime>,
        object: ObjectId,
    ) -> (Option<UpdatePayload>, FlushRoute, VirtTime) {
        rt.fault(object, true, 0).unwrap();
        rt.install_object_bytes(object, &[7u8; 32]);
        let before = rt.clock.now();
        let (payload, route) = rt.encode_entry(object).unwrap();
        (payload, route, rt.clock.now() - before)
    }

    /// What a flush is charged, when nobody receives the changes: the entry
    /// leaves the DUQ and its twin goes back to the pool, but no diff is
    /// made — the clock does not move and the diff scratch is never touched
    /// — and the page takes `rights`, as it would have with a discarded diff.
    fn assert_left_unencoded(name: &str, rights: AccessRights) {
        let rt = single_node();
        let object = obj(&rt, name);
        let (payload, route, charged) = encode_dirty(&rt, object);
        assert!(payload.is_none(), "{name}: nothing to send");
        assert!(route.coop_owner.is_none() && route.destinations.is_empty());
        assert_eq!(charged, VirtTime::ZERO, "{name}: no encode charged");
        assert_eq!(rt.diff_scratch.lock().capacity(), 0, "{name}: no diff");
        assert!(rt.duq.lock().is_empty());
        assert_eq!(rt.duq.lock().pooled_twins(), 1, "{name}: twin pooled");
        let dir = rt.dir.lock();
        assert_eq!(dir.entry(object).state.rights, rights, "{name}");
        assert!(!dir.entry(object).state.dirty, "{name}");
    }

    /// An owned write-shared page with an empty copyset is re-write-protected
    /// so the next write makes a fresh twin.
    #[test]
    fn a_write_shared_page_nobody_holds_is_not_encoded() {
        assert_left_unencoded("ws", AccessRights::Read);
    }

    /// A stable page with an empty copyset is private: "made locally
    /// writable, their twins are deleted".
    #[test]
    fn a_private_producer_consumer_page_is_not_encoded() {
        assert_left_unencoded("pc", AccessRights::ReadWrite);
    }

    /// A `result` page flushed at its own home: the changes are already
    /// where they go, and the home keeps its rights.
    #[test]
    fn a_result_page_at_its_home_is_not_encoded() {
        assert_left_unencoded("res", AccessRights::ReadWrite);
    }

    /// Asserts that `payload` is a diff of the 32-byte write `encode_dirty`
    /// made, charged exactly `encode(words, runs)`, with the twin pooled.
    fn assert_encoded(rt: &NodeRuntime, payload: Option<UpdatePayload>, charged: VirtTime) {
        let Some(UpdatePayload::Diff(d)) = payload else {
            panic!("a page with a receiver is encoded: {payload:?}");
        };
        assert_eq!(d.changed_words(), 8);
        assert_eq!(charged, rt.cost.encode(8, d.run_count() as u64));
        assert!(rt.diff_scratch.lock().capacity() > 0);
        assert!(rt.duq.lock().is_empty());
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
    }

    /// A cooperative entry always has a receiver, its owner, even with an
    /// empty local copyset: it is encoded, charged, and rides the arrive to
    /// the star's owner.
    #[test]
    fn a_cooperative_entry_with_an_empty_copyset_is_encoded_for_its_owner() {
        let n1 = NodeId::new(1);
        let (rt, net, _tx1, _rx1, _tx2, _rx2, _rx0, ws) = coop_harness();
        // `coop_harness` dirtied the page already; encode it the flush's way.
        let before = rt.clock.now();
        let mode = FlushMode::BarrierRelay {
            owner: n1,
            star: true,
        };
        let (relay, mut ride) = rt.flush_duq_mode(mode).unwrap();
        assert!(relay.is_empty());
        assert_eq!(ride.len(), 1);
        let item = ride.pop().unwrap();
        assert_eq!(item.object, ws);
        assert_encoded(&rt, Some(item.payload), rt.clock.now() - before);
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Read);
        drop(net);
    }

    /// A page with one receiver is charged exactly `encode(words, runs)`.
    #[test]
    fn a_page_with_one_receiver_is_charged_its_encode() {
        let rt = three_node_runtime();
        let ws = obj(&rt, "ws");
        rt.dir.lock().entry_mut(ws).copyset.insert(NodeId::new(1));
        let (payload, route, charged) = encode_dirty(&rt, ws);
        assert_eq!(route.destinations, NodeSet::from_nodes([NodeId::new(1)]));
        assert_encoded(&rt, payload, charged);
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Read);
    }

    /// Builds the three-node manual harness used by the owner-cooperative
    /// flush tests: node 0 runs a real runtime (with a non-owned `ws` whose
    /// owner hint points at N1), nodes 1 and 2 are driven by hand.
    #[allow(clippy::type_complexity)]
    fn coop_harness() -> (
        Arc<NodeRuntime>,
        Network<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        ObjectId,
    ) {
        let (rt, net, tx1, rx1, tx2, rx2, rx0, objects) = coop_harness_owned_by(&[1]);
        (rt, net, tx1, rx1, tx2, rx2, rx0, objects[0])
    }

    /// The same harness with one dirty, non-owned `ws` object per entry of
    /// `owners`, each with its owner hint at that node.
    #[allow(clippy::type_complexity)]
    fn coop_harness_owned_by(
        owners: &[usize],
    ) -> (
        Arc<NodeRuntime>,
        Network<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        Vec<ObjectId>,
    ) {
        // A relay threshold between a one-word diff and a whole-object one
        // (32-byte objects), for the barrier-flush tests.
        coop_harness_with(MuninConfig::fast_test(3).with_relay_max_bytes(16), owners)
    }

    /// The same harness under `cfg`.
    #[allow(clippy::type_complexity)]
    fn coop_harness_with(
        cfg: MuninConfig,
        owners: &[usize],
    ) -> (
        Arc<NodeRuntime>,
        Network<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        Vec<ObjectId>,
    ) {
        let (rt, net, mut peers, rx0, objects) = coop_harness_of(cfg, owners);
        let (tx2, rx2) = peers.pop().unwrap();
        let (tx1, rx1) = peers.pop().unwrap();
        (rt, net, tx1, rx1, tx2, rx2, rx0, objects)
    }

    /// The same harness on `cfg.nodes` nodes, with the endpoints of nodes
    /// 1, 2, … in order.
    #[allow(clippy::type_complexity)]
    fn coop_harness_of(
        cfg: MuninConfig,
        owners: &[usize],
    ) -> (
        Arc<NodeRuntime>,
        Network<DsmMsg>,
        Vec<(
            munin_sim::net::Sender<DsmMsg>,
            munin_sim::net::Receiver<DsmMsg>,
        )>,
        munin_sim::net::Receiver<DsmMsg>,
        Vec<ObjectId>,
    ) {
        let nodes = cfg.nodes;
        let mut table = SharedDataTable::new(32);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8 * owners.len());
        let table = Arc::new(table);
        let cfg = Arc::new(cfg);
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(nodes, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock.clone()).unwrap();
        let peers = (1..nodes)
            .map(|n| net.endpoint(n, NodeClock::new()).unwrap())
            .collect();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            nodes,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        let objects = rt.table().var_by_name("ws").unwrap().objects.clone();
        assert_eq!(objects.len(), owners.len());
        for (ws, owner) in objects.iter().zip(owners) {
            rt.fault(*ws, true, 0).unwrap();
            rt.install_object_bytes(*ws, &[7u8; 32]);
            // Not owned here, owner hint at a peer, copyset never fixed:
            // exactly the shape that takes the cooperative route.
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(*ws);
            e.state.owned = false;
            e.probable_owner = NodeId::new(*owner);
            assert!(!e.state.copyset_fixed);
        }
        // rx0 is consumed by the caller's server loop; return it alongside.
        (rt, net, peers, rx0, objects)
    }

    /// The owner-cooperative path end-to-end from the flusher's side: a
    /// non-owned fan-out bundle ships whole to the owner hint on
    /// `Route::OwnerFanout` (nobody is asked for a copyset), and the release
    /// completes once the owner's `UpdateAck` and one from each re-fan
    /// destination it names have arrived. That is the path at a lock
    /// release or a hint, and at a barrier too whenever the owner hint is not
    /// the barrier's owner or the barrier is not a star. A copyset fixed
    /// while this node owned the page changes nothing: it names N2, yet the
    /// bundle still goes whole to the owner, whose copyset picks the
    /// receivers.
    #[test]
    fn flush_ships_non_owned_bundle_to_cooperative_owner() {
        let (n1, n2) = (NodeId::new(1), NodeId::new(2));
        let modes = [
            FlushMode::Immediate,
            FlushMode::BarrierRelay {
                owner: n2,
                star: true,
            },
            FlushMode::BarrierRelay {
                owner: n1,
                star: false,
            },
        ];
        for (mode, fixed) in modes.into_iter().flat_map(|m| [(m, false), (m, true)]) {
            let (rt, net, tx1, rx1, tx2, rx2, rx0, ws) = coop_harness();
            if fixed {
                let mut dir = rt.dir.lock();
                let e = dir.entry_mut(ws);
                e.copyset.insert(n2);
                e.state.copyset_fixed = true;
                let route = rt.flush_route(e);
                assert_eq!(route.coop_owner, Some(n1), "{mode:?}");
            }
            let server_rt = Arc::clone(&rt);
            let server = std::thread::spawn(move || server_rt.server_loop(rx0));
            let flusher_rt = Arc::clone(&rt);
            let flusher = std::thread::spawn(move || flusher_rt.flush_duq_mode(mode));
            // The whole bundle arrives at the owner hint, not at copyset
            // members.
            let (_env, msg) = rx1.recv().unwrap();
            let DsmMsg::Update(UpdateBundle {
                items,
                origin,
                seq,
                route: Route::OwnerFanout { ride: None },
            }) = msg
            else {
                panic!("{mode:?}, fixed={fixed}: not a fan-out at N1: {msg:?}");
            };
            assert_eq!(origin, NodeId::new(0));
            assert_eq!(seq, 0, "first slot of the 0->1 update stream");
            assert_eq!(items.len(), 1);
            assert_eq!(items[0].object, ws);
            assert!(!flusher.is_finished(), "{mode:?}: the flush waits");
            // The owner re-fanned to N2; N2's ack goes straight to the origin.
            tx1.send(NodeId::new(0), "update_ack", 28, fanout_ack(vec![n2]))
                .unwrap();
            tx2.send(NodeId::new(0), "update_ack", 24, ack()).unwrap();
            let (relay, ride) = flusher.join().unwrap().unwrap();
            assert!(
                relay.is_empty() && ride.is_empty(),
                "{mode:?}, fixed={fixed}"
            );
            assert!(rx2.try_recv().unwrap().is_none(), "nothing direct to N2");
            assert_eq!(
                rt.stats().snapshot().updates_sent,
                1,
                "one bundle, shipped once"
            );
            tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
                .unwrap();
            server.join().unwrap();
            drop(net);
        }
    }

    /// A non-owned flush rides the barrier. At a star whose owner is the
    /// page's owner hint, the cooperative bundle goes nowhere during the
    /// flush: nothing is put on the wire for it, no ack wait is entered (no
    /// service loop runs here, so one would never return), and the bundle
    /// comes back for the arrive, where it draws its slot of the stream to
    /// the owner and is counted, as sent and as piggybacked.
    #[test]
    fn barrier_flush_hands_a_page_of_the_stars_owner_to_the_arrive() {
        let n1 = NodeId::new(1);
        let (rt, net, _tx1, rx1, _tx2, rx2, _rx0, ws) = coop_harness();
        let mode = FlushMode::BarrierRelay {
            owner: n1,
            star: true,
        };
        let (relay, ride) = rt.flush_duq_mode(mode).unwrap();
        assert!(relay.is_empty());
        assert_eq!(ride.iter().map(|i| i.object).collect::<Vec<_>>(), vec![ws]);
        assert!(
            rx1.try_recv().unwrap().is_none(),
            "nothing sent to the owner"
        );
        assert!(rx2.try_recv().unwrap().is_none());
        assert!(rt.duq.lock().is_empty());
        assert_eq!(rt.stats().snapshot().updates_sent, 0);
        // The arrive site's draw.
        let riding = Route::OwnerFanout {
            ride: Some(crate::sync::BarrierId(0)),
        };
        let bundle = rt.next_bundle(n1, rt.clock.now(), ride, riding);
        assert_eq!(bundle.seq, 0, "first slot of the 0->1 update stream");
        let snap = rt.stats().snapshot();
        assert_eq!((snap.updates_sent, snap.msgs_piggybacked), (1, 1));
        drop(net);
    }

    /// `Flush()` sends at once, carriers notwithstanding: when the hint
    /// returns, the changes have gone out as an acknowledged `Update`, the
    /// acknowledgement is in, and nothing is left behind for a later release
    /// or carrier to deliver.
    #[test]
    fn flush_hint_sends_an_acknowledged_update_and_leaves_nothing_behind() {
        let (rt, net, tx1, rx1, _tx2, rx2, rx0, ws) = coop_harness();
        {
            // Owned here, with a replica at N1.
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.owned = true;
            e.copyset.insert(NodeId::new(1));
        }
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let hint_rt = Arc::clone(&rt);
        let hint = std::thread::spawn(move || hint_rt.flush_duq());
        let (_env, msg) = rx1.recv().unwrap();
        let DsmMsg::Update(UpdateBundle { items, route, .. }) = msg else {
            panic!("expected the hint's update at N1, got {msg:?}");
        };
        assert_eq!(route, Route::DirectAcked);
        assert_eq!(items[0].object, ws);
        assert!(!hint.is_finished(), "the hint waits for the ack");
        tx1.send(NodeId::new(0), "update_ack", 24, ack()).unwrap();
        hint.join().unwrap().unwrap();
        assert!(rt.duq.lock().is_empty());
        assert_eq!(rt.outbox.lock().relay_len(), 0);
        let snap = rt.stats().snapshot();
        assert_eq!((snap.updates_sent, snap.flushes_coalesced), (1, 0));
        assert!(rx2.try_recv().unwrap().is_none(), "N2 holds no copy");
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }

    /// Whatever is left in the user thread's mailbox once `server` has
    /// stopped must be the `Shutdown` alone: an ack the flush did not count
    /// would answer whatever this node waited for next.
    fn assert_mailbox_holds_only_the_shutdown(rt: &NodeRuntime) {
        while let Ok((_env, left)) = rt.reply_rx.try_recv() {
            assert!(
                matches!(left, DsmMsg::Shutdown),
                "{left:?} was left behind in the mailbox"
            );
        }
    }

    /// Runs `flush_duq` on node 0 of an `nodes`-node cooperative harness
    /// whose pages are owned by `owners`, with its service loop, until every
    /// owner has its fan-out; then node `from` sends `ack`, for each entry of
    /// `acks` in order, and the flush must complete with no ack left over —
    /// nor before the last: an early exit leaves the rest in the mailbox.
    fn flush_against_owners(nodes: usize, owners: &[usize], acks: Vec<(usize, DsmMsg)>) {
        let cfg = MuninConfig::fast_test(nodes).with_relay_max_bytes(16);
        let (rt, net, peers, rx0, _objects) = coop_harness_of(cfg, owners);
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let flusher_rt = Arc::clone(&rt);
        let flusher = std::thread::spawn(move || flusher_rt.flush_duq());
        for owner in owners {
            let (_env, msg) = peers[owner - 1].1.recv().unwrap();
            assert_eq!(msg.class(), "relay_fanout");
        }
        for (from, ack) in acks {
            peers[from - 1]
                .0
                .send(NodeId::new(0), "update_ack", 24, ack)
                .unwrap();
        }
        flusher.join().unwrap().unwrap();
        peers[0]
            .0
            .send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        assert_mailbox_holds_only_the_shutdown(&rt);
        drop(net);
    }

    /// Two cooperative owners, one a re-fan destination of the other: N1
    /// re-fans its bundle to N2, and N2's ack for that reaches the origin
    /// before N2's ack for its own fan-out. The two kinds of ack owed by N2
    /// must not be mistaken for one another.
    #[test]
    fn update_ack_from_an_owner_is_not_taken_for_its_fanout_ack() {
        let n2 = NodeId::new(2);
        let acks = vec![
            (2, ack()),
            (2, fanout_ack(vec![])),
            (1, fanout_ack(vec![n2])),
        ];
        flush_against_owners(3, &[1, 2], acks);
    }

    /// Two cooperative owners re-fan to each other and to a third copy
    /// holder, and each owner's ack for the other's forward overtakes both
    /// owners' own acks. Those two plain acks settle nothing on their own:
    /// the release still waits for both fan-out acks and for every ack they
    /// name, N3's two included.
    #[test]
    fn forward_acks_overtaking_both_owners_acks_do_not_end_the_flush() {
        let (n1, n2, n3) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        let acks = vec![
            (2, ack()),
            (1, ack()),
            (1, fanout_ack(vec![n2, n3])),
            (2, fanout_ack(vec![n1, n3])),
            (3, ack()),
            (3, ack()),
        ];
        flush_against_owners(4, &[1, 2], acks);
    }

    /// Acks are matched to expectations by sender, in either order. A re-fan
    /// destination's ack may overtake the owner's ack that names it: it is
    /// held until that ack claims it, and the release completes on the
    /// owner's ack with nothing left in the mailbox for the next wait to
    /// trip over.
    #[test]
    fn acks_count_only_against_an_expectation_from_their_sender() {
        // N2's ack reaches the origin before the owner's does.
        flush_against_owners(
            3,
            &[1],
            vec![(2, ack()), (1, fanout_ack(vec![NodeId::new(2)]))],
        );
    }

    /// A cooperative owner confirmed dead after its fan-out left and before
    /// its ack came: whether it re-fanned cannot be told, so the flush sends
    /// the degraded broadcast — an acknowledged update to every live peer —
    /// and completes on their acks, the dead owner's never coming.
    #[test]
    fn a_cooperative_owner_confirmed_dead_is_replaced_by_the_degraded_broadcast() {
        let cfg = MuninConfig::fast_test(3)
            .with_relay_max_bytes(16)
            .with_detect(std::time::Duration::from_secs(3600));
        let (rt, net, _tx1, rx1, tx2, rx2, rx0, objects) = coop_harness_with(cfg, &[1]);
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let flusher_rt = Arc::clone(&rt);
        let flusher = std::thread::spawn(move || flusher_rt.flush_duq());
        let (_env, msg) = rx1.recv().unwrap();
        assert_eq!(msg.class(), "relay_fanout");
        // N2 gossips N1's death; node 0's service loop confirms it.
        tx2.send(
            NodeId::new(0),
            "peer_down",
            4,
            DsmMsg::PeerDown {
                node: NodeId::new(1),
            },
        )
        .unwrap();
        let update = loop {
            let (_env, msg) = rx2.recv().unwrap();
            if !matches!(msg, DsmMsg::Heartbeat) {
                break msg;
            }
        };
        let DsmMsg::Update(UpdateBundle { items, route, .. }) = update else {
            panic!("expected the degraded broadcast at N2, got {update:?}");
        };
        assert_eq!(route, Route::DirectAcked);
        assert_eq!(items[0].object, objects[0]);
        assert!(!flusher.is_finished(), "the broadcast is acknowledged");
        tx2.send(NodeId::new(0), "update_ack", 24, ack()).unwrap();
        flusher.join().unwrap().unwrap();
        assert_eq!(rt.stats().snapshot().updates_sent, 2, "fan-out, then N2");
        let to_n1: Vec<_> = std::iter::from_fn(|| rx1.try_recv().unwrap())
            .filter(|(_env, m)| !matches!(m, DsmMsg::Heartbeat))
            .collect();
        assert!(to_n1.is_empty(), "nothing more for the dead: {to_n1:?}");
        tx2.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        assert_mailbox_holds_only_the_shutdown(&rt);
        drop(net);
    }

    /// The routing table, whole: every (mode, fan-out or flush-to-owner,
    /// owned or not, destination, payload size) combination has exactly the
    /// route the module documentation promises. Only an owner-flushed
    /// fan-out item at a barrier is ever relayed or fenced, size picks
    /// between those two alone, and only a payload at or over the
    /// threshold, bound for someone other than the barrier owner, is fenced.
    #[test]
    fn classify_routes_every_mode_ownership_destination_and_size() {
        let (special, other) = (NodeId::new(1), NodeId::new(2));
        let max = 512;
        let modes = [
            FlushMode::Immediate,
            FlushMode::BarrierRelay {
                owner: special,
                star: false,
            },
            FlushMode::BarrierRelay {
                owner: special,
                star: true,
            },
            FlushMode::LockRelay { grantee: special },
        ];
        for mode in modes {
            for (fans_out, owned) in [(true, true), (true, false), (false, true), (false, false)] {
                let route = FlushRoute {
                    fans_out,
                    owned,
                    coop_owner: None,
                    destinations: NodeSet::EMPTY,
                };
                for dest in [special, other] {
                    let at_barrier = matches!(mode, FlushMode::BarrierRelay { .. });
                    let to_grantee = matches!(mode, FlushMode::LockRelay { .. }) && dest == special;
                    let small = classify(mode, &route, dest, max - 1, max);
                    let big = classify(mode, &route, dest, max, max);
                    let expected = if fans_out && owned && at_barrier {
                        let big = if dest == special {
                            Dispatch::Relay
                        } else {
                            Dispatch::Fenced
                        };
                        (Dispatch::Relay, big)
                    } else if (fans_out && owned && to_grantee)
                        || (!fans_out && at_barrier && dest == special)
                    {
                        (Dispatch::Relay, Dispatch::Relay)
                    } else {
                        (Dispatch::Acked, Dispatch::Acked)
                    };
                    assert_eq!(
                        (small, big),
                        expected,
                        "{mode:?}, fans_out={fans_out}, owned={owned}, to {dest:?}"
                    );
                    assert_eq!(small == Dispatch::Acked, big == Dispatch::Acked);
                }
            }
        }
    }

    /// The barrier is the ack, from the flusher's side. A barrier flush of
    /// one over-threshold page this node owns puts exactly one update on the
    /// wire, unacknowledged, and returns with nobody having answered it;
    /// what it hands the arrive site for that destination draws the very
    /// next slot of the same stream — the fence. A small diff for the same
    /// destination in the same flush rides in that bundle, not in a second.
    #[test]
    fn barrier_flush_sends_a_big_page_unacked_and_hands_the_arrive_its_fence() {
        let (n1, n2) = (NodeId::new(1), NodeId::new(2));
        for with_small_diff in [false, true] {
            let (rt, net, _tx1, rx1, _tx2, rx2, _rx0, ws) = coop_harness_owned_by(&[1, 1]);
            for o in &ws {
                // Owned here, with a replica at N1.
                let mut dir = rt.dir.lock();
                let e = dir.entry_mut(*o);
                e.state.owned = true;
                e.copyset.insert(n1);
            }
            // The first object is dirty all over; the second in one word,
            // or (its twin restored) not at all.
            let mut second = [0u8; 32];
            second[..4].fill(if with_small_diff { 7 } else { 0 });
            rt.install_object_bytes(ws[1], &second);
            let mode = FlushMode::BarrierRelay {
                owner: n2,
                star: true,
            };
            let (relay, ride) = rt.flush_duq_mode(mode).unwrap();
            assert!(ride.is_empty(), "every page here is owned here");
            let (_env, msg) = rx1.recv().unwrap();
            let DsmMsg::Update(update) = msg else {
                panic!("expected the big page's update at N1, got {msg:?}");
            };
            assert_eq!(update.route, Route::DirectUnacked);
            assert_eq!(update.items.len(), 1);
            assert_eq!(update.items[0].object, ws[0]);
            assert!(rx1.try_recv().unwrap().is_none(), "one message to N1");
            assert!(rx2.try_recv().unwrap().is_none(), "N2 holds no copy");
            assert_eq!(relay.keys().copied().collect::<Vec<_>>(), vec![n1]);
            let items = relay[&n1].clone();
            assert_eq!(items.len(), with_small_diff as usize);
            // The arrive site's draw.
            let fence = rt.next_bundle(n1, rt.clock.now(), items, Route::Carried);
            assert_eq!(fence.seq, update.seq + 1);
            // A fence that carries nothing counts as no update.
            let snap = rt.stats().snapshot();
            let sent = 1 + with_small_diff as u64;
            assert_eq!((snap.updates_sent, snap.msgs_piggybacked), (sent, sent - 1));
            assert_eq!(
                snap.relay_bypassed_bytes,
                update.items[0].payload.model_bytes()
            );
            drop(net);
        }
    }
}
