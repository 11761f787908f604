//! User-thread synchronization operations and program-control protocol.
//!
//! Lock acquire/release, barrier waits, `Fetch_and_Φ` on reduction objects,
//! the `PreAcquire` hint, and the end-of-run completion handshake between the
//! workers and the root.

use std::sync::Arc;

use munin_sim::{NodeId, TimeKind};

use crate::annotation::SharingAnnotation;
use crate::error::{MuninError, Result};
use crate::msg::{DsmMsg, ReduceOp, Route};
use crate::object::ObjectId;
use crate::stats::{add, bump};
use crate::sync::{BarrierId, LockId};

use super::flush::FlushMode;
use super::NodeRuntime;

impl NodeRuntime {
    /// Installs the lock ↔ data associations declared with
    /// `AssociateDataAndSynch` (known to every node, since they are part of
    /// the program description).
    pub(crate) fn apply_lock_associations(&self, associations: &[Vec<ObjectId>]) {
        let mut sync = self.sync.lock();
        for (idx, objects) in associations.iter().enumerate() {
            sync.lock_mut(LockId(idx as u32)).associated = objects.clone();
        }
    }

    /// Acquires a distributed lock (an *acquire* in the release-consistency
    /// sense).
    pub(crate) fn acquire_lock(self: &Arc<Self>, lock: LockId) -> Result<()> {
        bump(&self.stats.lock_acquires);
        self.charge_sys(self.cost.sync_op());
        let Some(t0) = self.request_lock(lock)? else {
            return Ok(());
        };
        let granted = self.await_lock_grant(lock, t0);
        if granted.is_err() {
            self.abandon_lock_acquire(lock);
        }
        granted
    }

    /// First half of an acquire. Takes the lock on the spot when it is free
    /// at this node (`None`); otherwise marks the acquire outstanding, sends
    /// the request along the probable-owner hint and returns the virtual
    /// time the wait began.
    pub(crate) fn request_lock(self: &Arc<Self>, lock: LockId) -> Result<Option<u64>> {
        let hint = {
            let mut sync = self.sync.lock();
            let state = sync.known_lock(lock)?;
            match state.begin_acquire() {
                Some(hint) => hint,
                None => {
                    // Release → acquire: a free token is taken no earlier
                    // than it came to rest here.
                    self.clock.advance_to(TimeKind::Wait, state.released_at);
                    bump(&self.stats.lock_local_acquires);
                    return Ok(None);
                }
            }
        };
        add(&self.stats.lock_messages, 1);
        let t0 = self.clock.now().as_nanos();
        self.obs
            .record(t0, crate::obs::EventKind::LockRequest, |ev| {
                ev.sync_id = Some(lock.0);
                ev.peer = Some(hint);
            });
        self.send(
            hint,
            DsmMsg::LockAcquire {
                lock,
                requester: self.node,
            },
        )?;
        Ok(Some(t0))
    }

    /// Second half of an acquire: blocks until the service thread has
    /// installed the token (`NodeRuntime::install_lock_token`) and woken
    /// this thread. Any consistency data rode the grant's carrier frame and
    /// was installed before the token was.
    pub(crate) fn await_lock_grant(self: &Arc<Self>, lock: LockId, t0: u64) -> Result<()> {
        // A peer death mid-wait may have taken the token (and the request
        // with it): the home regenerates orphaned tokens, so re-issue the
        // acquire there. Every queue deduplicates, so a request that was
        // *not* actually lost cannot queue this node twice in one place; a
        // token that arrives twice anyway finds no acquire outstanding the
        // second time and is passed on.
        let mut handled = crate::nodeset::NodeSet::EMPTY;
        let (env, reply) = loop {
            match self.wait_reply_or_dead(crate::runtime::WaitOp::LockGrant(lock.0), &mut handled) {
                Ok(reply) => break reply,
                Err(MuninError::PeerDied(_)) => {
                    let home = self.lock_homes[lock.0 as usize];
                    if self.is_peer_dead(home) {
                        bump(&self.stats.runtime_errors);
                        return Err(MuninError::NodeDown {
                            node: home,
                            lost_objects: Vec::new(),
                        });
                    }
                    // The token may have arrived — or been regenerated into
                    // this node's hands — while the death was signalled; its
                    // wake-up is then already in the mailbox. The home
                    // itself has nowhere to re-send to.
                    if home == self.node || !self.sync.lock().lock(lock).awaiting {
                        continue;
                    }
                    add(&self.stats.lock_messages, 1);
                    self.send(
                        home,
                        DsmMsg::LockAcquire {
                            lock,
                            requester: self.node,
                        },
                    )?;
                }
                Err(e) => return Err(e),
            }
        };
        self.obs.record(
            env.arrival.as_nanos(),
            crate::obs::EventKind::LockGrant,
            |ev| {
                ev.sync_id = Some(lock.0);
                ev.dur_ns = env.arrival.as_nanos().saturating_sub(t0);
            },
        );
        match reply {
            DsmMsg::LockGrant { lock: l, .. } if l == lock => Ok(()),
            _ => Err(MuninError::ProtocolViolation(
                "unexpected reply while waiting for a lock grant",
            )),
        }
    }

    /// Withdraws a failed acquire. Peers whose requests were parked behind
    /// it would otherwise wait on a node that no longer expects the token,
    /// so their requests are sent on towards the lock's home (from the home
    /// itself, along its hint).
    fn abandon_lock_acquire(self: &Arc<Self>, lock: LockId) {
        let (parked, hint) = {
            let mut sync = self.sync.lock();
            let state = sync.lock_mut(lock);
            (state.abandon_acquire(), state.probable_owner)
        };
        let home = self.lock_homes[lock.0 as usize];
        let next = if home == self.node { hint } else { home };
        if next == self.node || self.is_peer_dead(next) {
            return;
        }
        let now = self.clock.now();
        for requester in parked {
            self.forward_lock_acquire(lock, requester, next, now);
        }
    }

    /// Releases a distributed lock (a *release*): flushes the DUQ first, then
    /// passes ownership to the first waiter if any.
    ///
    /// With a waiter already queued, owner-flushed updates destined for that
    /// waiter skip the standalone update+ack round and ride the `LockGrant`
    /// carrier instead: the grantee installs them before its acquire
    /// returns, which is exactly the visibility point an ack round would
    /// guarantee.
    pub(crate) fn release_lock(self: &Arc<Self>, lock: LockId) -> Result<()> {
        // Peek the head waiter before flushing. Only the releasing user
        // thread ever pops the queue, and the service thread only appends,
        // so the head cannot change under us while we flush.
        let grantee = {
            let mut sync = self.sync.lock();
            let state = sync.known_lock(lock)?;
            if !state.held {
                return Err(MuninError::LockNotHeld(lock.0));
            }
            state.queue.front().copied()
        };
        let mode = match grantee {
            Some(next) => FlushMode::LockRelay { grantee: next },
            None => FlushMode::Immediate,
        };
        let (mut relay, _) = self.flush_duq_mode(mode)?;
        self.charge_sys(self.cost.sync_op());
        let handoff = {
            let mut sync = self.sync.lock();
            let state = sync.lock_mut(lock);
            let handoff = state.release();
            if handoff.is_none() {
                state.released_at = self.clock.now();
            }
            handoff
        };
        if let Some((next, rest)) = handoff {
            let diverted = relay.remove(&next).unwrap_or_default();
            debug_assert!(relay.is_empty(), "lock relay only ever targets the grantee");
            self.send_lock_grant(lock, next, rest, diverted, None);
        }
        Ok(())
    }

    /// Waits at a barrier (a *release* followed by an *acquire*): flushes the
    /// DUQ, reports the arrival up the barrier's tree, and blocks until the
    /// release comes back down.
    ///
    /// Owner-flushed updates ride the `BarrierArrive` carriers towards the
    /// owner and each bundle comes back down on the `BarrierRelease` headed
    /// to its destination — a release flush then costs no standalone update
    /// or ack messages. Every
    /// destination is a barrier participant, and each installs its bundle
    /// before its release wakes the user thread, so no thread can pass the
    /// barrier and observe pre-flush data. At a star, changes to pages the
    /// barrier's owner owns take the same ride: up whole as a cooperative
    /// bundle, down as the owner's re-fans.
    pub(crate) fn wait_at_barrier(self: &Arc<Self>, barrier: BarrierId) -> Result<()> {
        if self.sync.lock().barrier_count() <= barrier.0 as usize {
            return Err(MuninError::UnknownSyncObject(barrier.0));
        }
        self.pace(crate::runtime::WaitOp::BarrierRelease(barrier.0))?;
        let topo = self.tree_topology(barrier);
        let owner = topo.owner;
        // Relayed bundles park wherever reports combine, and one parked at a
        // node that then dies is lost with it. The owner's death ends the
        // run as `NodeDown` whatever was parked there, so bundles ride the
        // barrier unless the detector is armed *and* some node other than
        // the owner combines reports.
        let mode = if topo.is_star() || !self.health_enabled() {
            let star = topo.is_star();
            FlushMode::BarrierRelay { owner, star }
        } else {
            FlushMode::Immediate
        };
        let (relay, ride) = self.flush_duq_mode(mode)?;
        crate::runtime::proto_trace!(self, "arrive barrier {barrier:?}");
        bump(&self.stats.barrier_waits);
        self.charge_sys(self.cost.sync_op());
        let t0 = self.clock.now().as_nanos();
        self.obs
            .record(t0, crate::obs::EventKind::BarrierArrive, |ev| {
                ev.sync_id = Some(barrier.0);
                ev.peer = Some(owner);
            });
        // Each relayed bundle takes its slot in this node's update stream to
        // its destination *now*: after the direct updates this flush sent
        // there (an item-less bundle is only that, their fence), and before
        // any later one, which can then never be overtaken by the bundle's
        // slower owner-relayed route. The cooperative bundle for the owner
        // is one more relay entry, addressed to where the arrive is going.
        let riding = Route::OwnerFanout {
            ride: Some(barrier),
        };
        let ride = (!ride.is_empty()).then_some((owner, ride, riding));
        let relay = relay
            .into_iter()
            .map(|(dest, items)| (dest, items, Route::Carried))
            .chain(ride)
            .map(|(dest, items, route)| {
                let at = self.clock.now();
                (dest, self.next_bundle(dest, at, items, route))
            })
            .collect();
        self.barrier_arrive_local(barrier, &topo, relay);
        // A participant dying mid-wait is survivable — it stops being needed
        // and the rest are released — but the owner itself dying takes the
        // barrier with it.
        let mut handled = crate::nodeset::NodeSet::EMPTY;
        let (env, reply) = loop {
            match self.wait_reply_or_dead(
                crate::runtime::WaitOp::BarrierRelease(barrier.0),
                &mut handled,
            ) {
                Ok(reply) => break reply,
                Err(MuninError::PeerDied(dead)) if dead == owner => {
                    bump(&self.stats.runtime_errors);
                    return Err(MuninError::NodeDown {
                        node: owner,
                        lost_objects: Vec::new(),
                    });
                }
                Err(MuninError::PeerDied(dead)) => {
                    // The corpse may have been this node's reporting
                    // ancestor (re-send the report to a live one) or the
                    // last hold-out in its subtree (advance now). Recovery
                    // also runs this; doing it here too closes the race
                    // where this thread sees the death first.
                    self.barrier_handle_death(dead);
                }
                Err(e) => return Err(e),
            }
        };
        self.obs.record(
            env.arrival.as_nanos(),
            crate::obs::EventKind::BarrierRelease,
            |ev| {
                ev.sync_id = Some(barrier.0);
                ev.dur_ns = env.arrival.as_nanos().saturating_sub(t0);
            },
        );
        match reply {
            DsmMsg::BarrierRelease { barrier: b, .. } if b == barrier => Ok(()),
            _ => Err(MuninError::ProtocolViolation(
                "unexpected reply while waiting at a barrier",
            )),
        }
    }

    /// Performs a `Fetch_and_Φ` on an element of a reduction object,
    /// returning the element's previous raw value.
    pub(crate) fn reduce(
        self: &Arc<Self>,
        object: ObjectId,
        offset: usize,
        op: ReduceOp,
    ) -> Result<Vec<u8>> {
        bump(&self.stats.reductions);
        let (annotation, owner) = {
            let dir = self.dir.lock();
            let e = dir.entry(object);
            (e.annotation, e.home)
        };
        if annotation != SharingAnnotation::Reduction {
            return Err(MuninError::NotAReductionObject(object));
        }
        if owner == self.node {
            self.charge_sys(self.cost.sync_op());
            return Ok(self.apply_reduce_local(object, offset, op));
        }
        self.send(
            owner,
            DsmMsg::ReduceRequest {
                object,
                offset,
                op,
                requester: self.node,
            },
        )?;
        // Reduction state lives only at the object's fixed home: its death
        // is unrecoverable for this object, any other death is irrelevant.
        let mut handled = crate::nodeset::NodeSet::EMPTY;
        let (_env, reply) = loop {
            match self.wait_reply_or_dead(crate::runtime::WaitOp::Reduce(object), &mut handled) {
                Ok(reply) => break reply,
                Err(MuninError::PeerDied(dead)) if dead == owner => {
                    bump(&self.stats.runtime_errors);
                    return Err(MuninError::NodeDown {
                        node: owner,
                        lost_objects: vec![object],
                    });
                }
                Err(MuninError::PeerDied(_)) => {}
                Err(e) => return Err(e),
            }
        };
        match reply {
            DsmMsg::ReduceReply { old } => Ok(old),
            _ => Err(MuninError::ProtocolViolation(
                "unexpected reply to a Fetch_and_Φ request",
            )),
        }
    }

    // --- end-of-run completion protocol -----------------------------------

    /// Called by a non-root worker when its closure has finished.
    pub(crate) fn signal_worker_done(self: &Arc<Self>) -> Result<()> {
        self.pace(crate::runtime::WaitOp::WorkerDone)?;
        self.send(NodeId::new(0), DsmMsg::Done)
    }

    /// Called by the root to wait until every other worker has finished. A
    /// worker confirmed dead is struck from the roster — its notification
    /// will never come, and the root carries on with the survivors'
    /// results. (A worker that notified *and then* died counts once.)
    pub(crate) fn wait_workers_done(self: &Arc<Self>) -> Result<()> {
        let mut pending: Vec<NodeId> = (1..self.nodes).map(NodeId::new).collect();
        loop {
            pending.retain(|&n| !self.is_peer_dead(n));
            if pending.is_empty() {
                return Ok(());
            }
            if let Some(from) = self.wait_worker_done_notification()? {
                pending.retain(|&n| n != from);
            }
        }
    }

    /// Called by a non-root worker after signalling completion: blocks until
    /// the root broadcasts shutdown (its service thread keeps serving
    /// requests in the meantime, e.g. for the root's `user_done` phase).
    /// Only the root can end the run, so its death here is terminal.
    pub(crate) fn wait_for_shutdown(self: &Arc<Self>) -> Result<()> {
        let mut handled = crate::nodeset::NodeSet::EMPTY;
        loop {
            match self.wait_reply_or_dead(crate::runtime::WaitOp::Shutdown, &mut handled) {
                Ok((_env, DsmMsg::Done)) => return Ok(()),
                Ok(_) => {}
                Err(MuninError::PeerDied(dead)) if dead == NodeId::new(0) => {
                    bump(&self.stats.runtime_errors);
                    return Err(MuninError::NodeDown {
                        node: dead,
                        lost_objects: Vec::new(),
                    });
                }
                Err(MuninError::PeerDied(_)) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Called by the root at the very end: tells every node (including
    /// itself, so its own service loop exits) to shut down.
    pub(crate) fn broadcast_shutdown(self: &Arc<Self>) -> Result<()> {
        // Workers first, self strictly last. The moment this node's own
        // service loop dispatches the self-addressed `Done` it moves to
        // the bounded unacked drain and then exits — so every worker frame
        // must already be wrapped (and thus held for retransmission by that
        // drain) before the self frame is even submitted. Sending to self
        // first would race the drain against the rest of the broadcast: a
        // worker's `Done` lost after the drain finds the queue empty has
        // no retransmitter, and that worker stalls in `shutdown_wait` until
        // its watchdog fires.
        // A dead worker's shutdown would sit unacknowledged in the reliable
        // link forever and hold the drain at its deadline, so the fan-out
        // walks the live set only.
        // A worker that gave up after an error has closed its inbox; that
        // send fails, and must not keep the `Done` from everyone after
        // it — this node's own service loop included, which nothing else
        // would ever stop.
        for n in self.live_peers().iter() {
            let _ = self.send(n, DsmMsg::Done);
        }
        self.send(self.node, DsmMsg::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MuninConfig;
    use crate::segment::SharedDataTable;
    use munin_sim::{CostModel, Network, NodeClock};
    use std::collections::HashSet;

    fn single_node_with_sync() -> Arc<NodeRuntime> {
        let mut table = SharedDataTable::new(64);
        table.declare("mig", SharingAnnotation::Migratory, 4, 4);
        table.declare("red", SharingAnnotation::Reduction, 8, 1);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(1));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(1, CostModel::fast_test());
        let (tx, _rx) = net.endpoint(0, clock.clone()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            1,
            cfg,
            table,
            vec![NodeId::new(0)],
            vec![NodeId::new(0)],
            clock,
            Arc::new(CostModel::fast_test()),
            tx,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        rt
    }

    #[test]
    fn local_lock_acquire_and_release_need_no_messages() {
        let rt = single_node_with_sync();
        rt.acquire_lock(LockId(0)).unwrap();
        rt.release_lock(LockId(0)).unwrap();
        let snap = rt.stats().snapshot();
        assert_eq!(snap.lock_acquires, 1);
        assert_eq!(snap.lock_local_acquires, 1);
        assert_eq!(snap.lock_messages, 0);
    }

    #[test]
    fn releasing_an_unheld_lock_is_an_error() {
        let rt = single_node_with_sync();
        assert_eq!(
            rt.release_lock(LockId(0)).unwrap_err(),
            MuninError::LockNotHeld(0)
        );
    }

    #[test]
    fn unknown_sync_objects_are_rejected() {
        let rt = single_node_with_sync();
        assert!(matches!(
            rt.acquire_lock(LockId(9)),
            Err(MuninError::UnknownSyncObject(9))
        ));
        assert!(matches!(
            rt.wait_at_barrier(BarrierId(9)),
            Err(MuninError::UnknownSyncObject(9))
        ));
    }

    #[test]
    fn local_reduce_applies_and_returns_old_value() {
        let rt = single_node_with_sync();
        let red = rt.table().var_by_name("red").unwrap().objects[0];
        let old = rt.reduce(red, 0, ReduceOp::AddI64(5)).unwrap();
        assert_eq!(i64::from_le_bytes(old.try_into().unwrap()), 0);
        let old = rt.reduce(red, 0, ReduceOp::AddI64(3)).unwrap();
        assert_eq!(i64::from_le_bytes(old.try_into().unwrap()), 5);
        let now = rt.reduce(red, 0, ReduceOp::Read).unwrap();
        assert_eq!(i64::from_le_bytes(now.try_into().unwrap()), 8);
    }

    #[test]
    fn reduce_on_non_reduction_object_is_rejected() {
        let rt = single_node_with_sync();
        let mig = rt.table().var_by_name("mig").unwrap().objects[0];
        assert!(matches!(
            rt.reduce(mig, 0, ReduceOp::AddI64(1)),
            Err(MuninError::NotAReductionObject(_))
        ));
    }

    #[test]
    fn lock_associations_are_installed() {
        let rt = single_node_with_sync();
        let mig = rt.table().var_by_name("mig").unwrap().objects[0];
        rt.apply_lock_associations(&[vec![mig]]);
        assert_eq!(rt.sync.lock().lock(LockId(0)).associated, vec![mig]);
    }
}
