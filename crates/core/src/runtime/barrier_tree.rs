//! Hierarchical combining-tree barriers.
//!
//! Flat barriers funnel N−1 `BarrierArrive`s into one owner and fan N
//! releases back out — O(N) ingress at a single node per episode, which is
//! the first thing that stops scaling past a few dozen nodes. The tree path
//! spreads both directions over a static k-ary tree (see
//! [`TreeTopology`]): arrivals combine upward (each interior node merges its
//! children's reports into one [`DsmMsg::BarrierCombine`]), releases fan
//! back down ([`DsmMsg::BarrierTreeRelease`]), and no node ever receives
//! more than k + 1 barrier messages per episode.
//!
//! The carrier layer's barrier-relay optimization rides the tree hops: a
//! node's flush bundles are stashed locally at arrival, bundles whose
//! destination lies outside its static subtree ride its upward combine, and
//! each downward release carries the bundles destined for the covered
//! subtree. Every bundle is installed at its destination before the release
//! that frames it is routed to the user thread — the same
//! install-before-dispatch anchor as the flat path.
//!
//! Crash handling: the static tree never changes, but reporting edges do. A
//! node whose static ancestor dies re-reports to the nearest *live* static
//! ancestor, which records it as a dynamic child (releases retrace exactly
//! the dynamic edges). A report that lands after its episode already
//! completed is answered with a direct recovery release. Tree mode with the
//! failure detector enabled flushes eagerly (`FlushMode::Immediate`), so a
//! dying interior node can never take relayed bundles down with it.

use std::sync::Arc;

use munin_sim::{Envelope, NodeId, VirtTime};

use crate::msg::{DsmMsg, UpdateBundle};
use crate::nodeset::NodeSet;
use crate::stats::bump;
use crate::sync::{BarrierId, TreeTopology};

use super::NodeRuntime;

/// What an advance pass decided to do, computed under the sync lock and
/// acted on outside it (sends never happen while holding the lock).
enum Advance {
    /// Nothing to do: the subtree is incomplete, or nothing grew since the
    /// last upward report.
    Hold,
    /// Interior/leaf: forward the merged arrived set to the live parent.
    Combine {
        gen: u64,
        arrived: NodeSet,
        subtree: NodeSet,
    },
    /// Owner: every live node has arrived — open the episode.
    Open {
        gen: u64,
        children: Vec<(NodeId, NodeSet)>,
    },
}

impl NodeRuntime {
    /// The combining-tree topology for `barrier`, or `None` when the barrier
    /// runs flat (partial-party barriers, clusters below the auto threshold,
    /// or an explicit `MUNIN_BARRIER_FANOUT=flat`). Every node derives the
    /// same answer from shared configuration — no coordination.
    pub(crate) fn tree_topology(&self, barrier: BarrierId) -> Option<TreeTopology> {
        let (owner, parties) = {
            let sync = self.sync.lock();
            if sync.barrier_count() <= barrier.0 as usize {
                return None;
            }
            let b = sync.barrier(barrier);
            (b.owner, b.parties)
        };
        if parties != self.nodes || self.nodes < 2 {
            return None;
        }
        let fanout = self.cfg.effective_barrier_fanout()?;
        Some(TreeTopology::new(owner, self.nodes, fanout))
    }

    /// The user thread's tree-mode arrival: stash this node's own flush
    /// bundles, record the arrival, and advance (which sends the upward
    /// combine — or opens the barrier — if this completed the subtree).
    pub(crate) fn tree_arrive_local(
        self: &Arc<Self>,
        barrier: BarrierId,
        topo: &TreeTopology,
        relay: Vec<(NodeId, UpdateBundle)>,
    ) {
        // Every bundle is stashed locally first; the advance below extracts
        // the ones leaving this subtree onto the combine.
        {
            let mut outbox = self.outbox.lock();
            for (dest, bundle) in relay {
                outbox.stash_relay(barrier, dest, bundle);
            }
        }
        {
            let mut sync = self.sync.lock();
            let own = self.node;
            sync.tree_barrier_mut(barrier).arrived.insert(own);
        }
        self.tree_advance(barrier, topo, self.clock.now());
    }

    /// Checks completeness and acts: forwards a combine upward, or — at the
    /// owner — opens the episode. Idempotent and safe to call from the user
    /// thread, the service thread, and crash recovery; the `forwarded_count`
    /// guard keeps duplicate triggers from duplicating upward traffic.
    ///
    /// `at` is the time of the event that prompted the call (this node's own
    /// arrival, a child report's arrival, a death's confirmation). Whatever
    /// leaves is stamped from the *latest* such time this episode, so a
    /// combine or an opening never precedes an arrival it accounts for.
    fn tree_advance(self: &Arc<Self>, barrier: BarrierId, topo: &TreeTopology, at: VirtTime) {
        let dead = self.dead_set();
        let (decision, latest) = {
            let mut sync = self.sync.lock();
            let t = sync.tree_barrier_mut(barrier);
            t.latest = t.latest.max(at);
            let latest = t.latest;
            let subtree = t
                .subtree
                .get_or_insert_with(|| topo.subtree_of(self.node))
                .clone();
            let mut needed = subtree.clone();
            needed.difference_with(&dead);
            // This node is in its own `needed`, so nothing happens before
            // its own user thread arrives.
            let decision = if !t.arrived.is_superset_of(&needed) {
                Advance::Hold
            } else if topo.owner == self.node {
                let gen = t.completed + 1;
                let children = std::mem::take(&mut t.children);
                t.reset_episode(gen);
                // Mirror the episode count into the flat state so tools that
                // read `BarrierState::generation` see the same history.
                sync.barrier_mut(barrier).generation = gen;
                Advance::Open { gen, children }
            } else if t.arrived.count() > t.forwarded_count {
                t.forwarded_count = t.arrived.count();
                Advance::Combine {
                    gen: t.completed + 1,
                    arrived: t.arrived.clone(),
                    subtree,
                }
            } else {
                Advance::Hold
            };
            (decision, latest)
        };
        match decision {
            Advance::Hold => {}
            Advance::Combine {
                gen,
                arrived,
                subtree,
            } => {
                // A dead static parent is skipped: the report re-parents to
                // the nearest live ancestor. None means the owner is dead —
                // the waiting user thread surfaces `NodeDown`.
                let Some(parent) = topo.live_parent_of(self.node, &dead) else {
                    return;
                };
                let outgoing = {
                    let mut outbox = self.outbox.lock();
                    outbox.take_relay_outside(barrier, &subtree)
                };
                let combine = DsmMsg::BarrierCombine {
                    barrier,
                    from: self.node,
                    gen,
                    arrived,
                };
                crate::runtime::proto_trace!(
                    self,
                    "combine barrier {} gen {gen} up to {parent:?}",
                    barrier.0
                );
                let msg = DsmMsg::framed(combine, Vec::new(), outgoing);
                let _ = self.send_service(parent, msg, latest + self.cost.sync_op());
            }
            Advance::Open { gen, children } => {
                crate::runtime::proto_trace!(self, "barrier {} gen {gen} opens", barrier.0);
                self.tree_release_children(barrier, gen, children, latest);
                // The owner's own release takes the flat self-release path,
                // so message accounting matches episode for episode.
                self.release_barrier_waiters(barrier, vec![self.node], latest);
            }
        }
    }

    /// Fans the release down one level: each dynamic child's release carries
    /// the bundles destined for itself and re-relays the bundles destined
    /// for the rest of its covered set.
    fn tree_release_children(
        self: &Arc<Self>,
        barrier: BarrierId,
        gen: u64,
        children: Vec<(NodeId, NodeSet)>,
        now: VirtTime,
    ) {
        for (child, covered) in children {
            if self.is_peer_dead(child) {
                continue;
            }
            let (updates, relay) = {
                let mut outbox = self.outbox.lock();
                (
                    outbox.take_relay(barrier, child),
                    outbox.take_relay_within(barrier, &covered, child),
                )
            };
            let release = DsmMsg::BarrierTreeRelease { barrier, gen };
            let msg = DsmMsg::framed(release, updates, relay);
            let _ = self.send_service(child, msg, now + self.cost.sync_op());
        }
    }

    /// Handles an upward report (service thread).
    pub(crate) fn handle_barrier_combine(
        self: &Arc<Self>,
        env: Envelope,
        barrier: BarrierId,
        from: NodeId,
        gen: u64,
        arrived: NodeSet,
    ) {
        self.charge_sys(self.cost.sync_op());
        let Some(topo) = self.tree_topology(barrier) else {
            // A combine at a node whose configuration says "flat" means the
            // cluster disagrees about the topology — loud, not silent.
            bump(&self.stats.runtime_errors);
            debug_assert!(false, "BarrierCombine received with tree mode off");
            return;
        };
        if topo.owner == self.node {
            bump(&self.stats.barrier_owner_ingress);
        }
        let stale = {
            let mut sync = self.sync.lock();
            let t = sync.tree_barrier_mut(barrier);
            if gen <= t.completed {
                true
            } else {
                if gen > t.completed + 1 {
                    // An episode from the future can only mean lost state;
                    // merge leniently so the run can limp to a diagnosis.
                    bump(&self.stats.runtime_errors);
                    debug_assert!(false, "combine for episode {gen} > {} + 1", t.completed);
                }
                t.merge_report(from, &arrived);
                false
            }
        };
        if stale {
            // The sender missed this episode's release (its parent died
            // between absorbing its report and forwarding the release).
            // Answer directly; a plain message is safe because tree mode
            // with the detector on never relays bundles.
            crate::runtime::proto_trace!(
                self,
                "stale combine gen {gen} from {from:?}; releasing directly"
            );
            let _ = self.send_service(
                from,
                DsmMsg::BarrierTreeRelease { barrier, gen },
                env.arrival + self.cost.sync_op(),
            );
            return;
        }
        self.tree_advance(barrier, &topo, env.arrival);
    }

    /// Handles a downward release (service thread): re-forward to dynamic
    /// children, reset the episode, and route the plain release to this
    /// node's own waiting user thread.
    pub(crate) fn handle_barrier_tree_release(
        self: &Arc<Self>,
        env: Envelope,
        barrier: BarrierId,
        gen: u64,
    ) {
        self.charge_sys(self.cost.sync_op());
        let children = {
            let mut sync = self.sync.lock();
            let t = sync.tree_barrier_mut(barrier);
            if gen <= t.completed {
                // A duplicate (crash-recovery re-send); already released.
                return;
            }
            if gen > t.completed + 1 {
                bump(&self.stats.runtime_errors);
                debug_assert!(false, "release for episode {gen} > {} + 1", t.completed);
            }
            let children = std::mem::take(&mut t.children);
            t.reset_episode(gen);
            children
        };
        self.tree_release_children(barrier, gen, children, env.arrival);
        // The received release IS this node's release — no extra wire
        // message, just the hand-off to the parked user thread.
        self.route_to_user(env, DsmMsg::BarrierRelease { barrier });
    }

    /// Re-evaluates every tree barrier after `dead` is confirmed gone.
    /// Called from crash recovery (and defensively from the waiting user
    /// thread, which may observe the death before recovery finishes).
    ///
    /// Two distinct effects:
    /// * `dead` was a static *ancestor*: it may have swallowed this node's
    ///   report without forwarding it. Resetting `forwarded_count` makes the
    ///   advance re-send the merged report — to the nearest live ancestor,
    ///   since `live_parent_of` now skips the corpse. Re-sends merge
    ///   idempotently, so over-sending is safe and under-sending is not.
    /// * `dead` was in this node's subtree (or anywhere, at the owner): its
    ///   removal from `needed` may complete the subtree right now.
    pub(crate) fn tree_handle_death(self: &Arc<Self>, dead: NodeId) {
        let barriers = { self.sync.lock().barrier_count() };
        for i in 0..barriers {
            let barrier = BarrierId(i as u32);
            let Some(topo) = self.tree_topology(barrier) else {
                continue;
            };
            if topo.owner != self.node && topo.is_ancestor_of(dead, self.node) {
                let mut sync = self.sync.lock();
                sync.tree_barrier_mut(barrier).forwarded_count = 0;
            }
            self.tree_advance(barrier, &topo, self.now_here());
        }
    }
}
