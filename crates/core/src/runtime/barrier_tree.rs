//! Barriers: the runtime side of [`crate::sync::BarrierState`].
//!
//! Every barrier runs over a static k-ary tree rooted at its owner (see
//! [`TreeTopology`]): arrivals combine upward (each node merges its
//! children's reports with its own arrival into one
//! [`DsmMsg::BarrierArrive`]), the owner opens the episode, and
//! [`DsmMsg::BarrierRelease`]s fan back down the edges the reports came up.
//! No node receives more than k + 1 barrier messages per episode; at
//! k = N − 1 the tree is a star and the owner hears from everyone directly.
//!
//! The carrier layer's barrier-relay optimization rides the tree hops: a
//! node's flush bundles are stashed locally at arrival, bundles whose
//! destination lies outside its static subtree ride its upward report, and
//! each downward release carries the bundles destined for the covered
//! subtree. Every bundle is installed at its destination before the release
//! that frames it wakes the user thread — the install-before-dispatch anchor.
//!
//! Crash handling: the static tree never changes, but reporting edges do. A
//! node whose static ancestor dies re-reports to the nearest *live* static
//! ancestor, which records it as a dynamic child (releases retrace exactly
//! the dynamic edges). A report that lands after its episode already
//! completed is answered with a direct release. Bundles park wherever
//! reports combine, so a topology that combines anywhere but at the owner
//! flushes eagerly while the failure detector is armed
//! (`NodeRuntime::wait_at_barrier`).

use std::sync::Arc;

use munin_sim::{Envelope, NodeId, VirtTime};

use crate::msg::{DsmMsg, UpdateBundle};
use crate::nodeset::NodeSet;
use crate::stats::bump;
use crate::sync::{BarrierId, BarrierStep, TreeTopology};

use super::NodeRuntime;

impl NodeRuntime {
    /// The topology of `barrier`. Every node derives the same answer from
    /// shared configuration — no coordination.
    pub(crate) fn tree_topology(&self, barrier: BarrierId) -> TreeTopology {
        let owner = self.sync.lock().barrier(barrier).owner;
        TreeTopology::new(owner, self.nodes, self.cfg.effective_barrier_fanout())
    }

    /// The user thread's arrival: stash this node's own flush bundles,
    /// record the arrival, and advance (which sends the upward report — or
    /// opens the barrier — if this completed the subtree).
    pub(crate) fn barrier_arrive_local(
        self: &Arc<Self>,
        barrier: BarrierId,
        topo: &TreeTopology,
        relay: Vec<(NodeId, UpdateBundle)>,
    ) {
        // Every bundle is stashed locally first; the advance below extracts
        // the ones leaving this subtree onto the report.
        {
            let mut outbox = self.outbox.lock();
            for (dest, bundle) in relay {
                outbox.stash_relay(barrier, dest, bundle);
            }
        }
        self.sync
            .lock()
            .barrier_mut(barrier)
            .arrived
            .insert(self.node);
        self.barrier_advance(barrier, topo, self.clock.now());
    }

    /// Acts on [`crate::sync::BarrierState::advance`]: forwards a report
    /// upward, or — at the owner — opens the episode. Safe to call from the
    /// user thread, the service thread, and crash recovery.
    ///
    /// `at` is the time of the event that prompted the call (this node's own
    /// arrival, a child report's arrival, a death's confirmation).
    fn barrier_advance(self: &Arc<Self>, barrier: BarrierId, topo: &TreeTopology, at: VirtTime) {
        let dead = self.dead_set();
        let step = self
            .sync
            .lock()
            .barrier_mut(barrier)
            .advance(self.node, topo, &dead, at);
        match step {
            BarrierStep::Hold => {}
            BarrierStep::Report { gen, arrived, at } => {
                // A dead static parent is skipped: the report re-parents to
                // the nearest live ancestor. None means the owner is dead —
                // the waiting user thread surfaces `NodeDown`.
                let Some(parent) = topo.live_parent_of(self.node, &dead) else {
                    return;
                };
                let outgoing = self
                    .outbox
                    .lock()
                    .take_relay_outside(barrier, &topo.subtree_of(self.node));
                let report = DsmMsg::BarrierArrive {
                    barrier,
                    from: self.node,
                    gen,
                    arrived,
                };
                crate::runtime::proto_trace!(
                    self,
                    "report barrier {} gen {gen} up to {parent:?}",
                    barrier.0
                );
                let msg = DsmMsg::framed(report, Vec::new(), outgoing);
                let _ = self.send_service(parent, msg, at + self.cost.sync_op());
            }
            BarrierStep::Open { gen, children, at } => {
                crate::runtime::proto_trace!(self, "barrier {} gen {gen} opens", barrier.0);
                self.release_children(barrier, gen, children, at);
                // The owner's own thread wakes here, when its releases leave,
                // and not by a message: all it must see is installed, since a
                // node's direct updates precede its report on the same link,
                // and a report's bundles are in before it counts.
                let env = self.local_envelope("barrier_release", at + self.cost.sync_op());
                self.route_to_user(env, DsmMsg::BarrierRelease { barrier, gen });
            }
        }
    }

    /// Fans the release down one level: each dynamic child's release carries
    /// the bundles destined for itself and re-relays the bundles destined
    /// for the rest of its covered set.
    fn release_children(
        self: &Arc<Self>,
        barrier: BarrierId,
        gen: u64,
        children: Vec<(NodeId, NodeSet)>,
        now: VirtTime,
    ) {
        // The whole fan leaves under the outbox lock. A cooperative re-fan
        // riding one of these releases is ordered against its origin's next
        // forward to the same member — a standalone message from this node —
        // by link FIFO alone, and that origin may flush again the moment its
        // own release lands, while this loop (on the user thread, when the
        // owner is the last to arrive) is still working down its list.
        // `refan` takes the lock before it sends a standalone forward, so by
        // then every release is on its link.
        let mut outbox = self.outbox.lock();
        for (child, covered) in children {
            if self.is_peer_dead(child) {
                // A report recorded before its sender died: nothing to
                // release there.
                continue;
            }
            let updates = outbox.take_relay(barrier, child);
            let relay = outbox.take_relay_within(barrier, &covered, child);
            let release = DsmMsg::BarrierRelease { barrier, gen };
            let msg = DsmMsg::framed(release, updates, relay);
            let _ = self.send_service(child, msg, now + self.cost.sync_op());
        }
    }

    /// A report or release for an episode past the next one can only mean
    /// lost state: counted, then handled leniently so the run can limp to a
    /// diagnosis.
    fn note_if_from_the_future(&self, gen: u64, completed: u64) {
        if gen > completed + 1 {
            bump(&self.stats.runtime_errors);
            debug_assert!(false, "barrier episode {gen} > {completed} + 1");
        }
    }

    /// Handles an upward report (service thread).
    pub(crate) fn handle_barrier_report(
        self: &Arc<Self>,
        env: Envelope,
        barrier: BarrierId,
        from: NodeId,
        gen: u64,
        arrived: NodeSet,
    ) {
        self.charge_sys(self.cost.sync_op());
        let topo = self.tree_topology(barrier);
        if topo.owner == self.node {
            bump(&self.stats.barrier_owner_ingress);
        }
        let merged = {
            let mut sync = self.sync.lock();
            let b = sync.barrier_mut(barrier);
            self.note_if_from_the_future(gen, b.completed);
            b.merge_report(from, gen, &arrived)
        };
        if !merged {
            // The sender missed this episode's release (its parent died
            // between absorbing its report and forwarding the release).
            // Answer directly; a bare message is enough, because a report is
            // only ever re-sent where nothing is relayed (a star has no
            // ancestor to lose but the owner, and any other topology flushes
            // eagerly while deaths can be detected).
            crate::runtime::proto_trace!(
                self,
                "stale report gen {gen} from {from:?}; releasing directly"
            );
            let release = DsmMsg::BarrierRelease { barrier, gen };
            let _ = self.send_service(from, release, env.arrival + self.cost.sync_op());
            return;
        }
        self.barrier_advance(barrier, &topo, env.arrival);
    }

    /// Handles a release (service thread): pass it down the edges this
    /// episode's reports came up, then wake this node's own user thread.
    pub(crate) fn handle_barrier_release(
        self: &Arc<Self>,
        env: Envelope,
        barrier: BarrierId,
        gen: u64,
    ) {
        self.charge_sys(self.cost.sync_op());
        let children = {
            let mut sync = self.sync.lock();
            let b = sync.barrier_mut(barrier);
            self.note_if_from_the_future(gen, b.completed);
            b.release(gen)
        };
        let Some(children) = children else {
            return;
        };
        self.release_children(barrier, gen, children, env.arrival);
        self.route_to_user(env, DsmMsg::BarrierRelease { barrier, gen });
    }

    /// Re-evaluates every barrier after `dead` is confirmed gone. Called
    /// from crash recovery (and from the waiting user thread, which may
    /// observe the death before recovery finishes).
    ///
    /// Two distinct effects:
    /// * `dead` was a static *ancestor*: it may have swallowed this node's
    ///   report without forwarding it, so the report goes out again — to the
    ///   nearest live ancestor, since `live_parent_of` now skips the corpse.
    /// * `dead` was in this node's subtree (or anywhere, at the owner): its
    ///   removal from what is needed may complete the subtree right now.
    pub(crate) fn barrier_handle_death(self: &Arc<Self>, dead: NodeId) {
        let barriers = self.sync.lock().barrier_count();
        for i in 0..barriers {
            let barrier = BarrierId(i as u32);
            let topo = self.tree_topology(barrier);
            if topo.is_ancestor_of(dead, self.node) {
                self.sync.lock().barrier_mut(barrier).report_again();
            }
            self.barrier_advance(barrier, &topo, self.now_here());
        }
    }
}
