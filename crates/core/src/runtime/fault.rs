//! Access checking and fault handling on the user-thread side.
//!
//! Every shared access consults the local directory entry's access rights —
//! the simulated analogue of the virtual-memory protection check the
//! prototype gets for free from the MMU. Insufficient rights invoke the fault
//! handlers below: they take the locks, fetch, invalidate, twin, enqueue and
//! charge, while what each protocol of Sections 3.1–3.3 does to the entries —
//! the write fault's plan, the run a fetch asks for, the objects a trap
//! enables, the install of a reply — is decided in `coherence.rs`.

use std::ops::Range;
use std::sync::Arc;

use munin_sim::{Envelope, NodeId};

use crate::directory::Directory;
use crate::error::{MuninError, Result};
use crate::msg::{DsmMsg, FetchKind, FetchRequest};
use crate::nodeset::NodeSet;
use crate::object::ObjectId;
use crate::object::VarId;
use crate::obs::EventKind;
use crate::stats::{add, bump};

use super::coherence::{self, Delayed, WritePlan};
use super::{proto_trace, NodeRuntime, WaitOp};

impl NodeRuntime {
    /// Makes sure an upcoming access of `objects` — consecutive objects of
    /// one variable — has been *detected* by the runtime, object by object:
    /// the access-mode dispatch point.
    ///
    /// * `Explicit`: a software check of the directory entry's rights,
    ///   invoking the fault protocol when they are insufficient.
    /// * `VmTraps`: a hardware *touch* — one volatile load of the object's
    ///   first data byte (read) or one volatile store to its guard byte
    ///   (write). Insufficient rights make the touch trap; the SIGSEGV
    ///   handler routes the fault to the same protocol logic on this thread.
    ///   No directory access happens on the no-fault path.
    ///
    /// Either way the fault handler is told where the access ends
    /// (`window_end`, the id after its last object), so the first invalid
    /// object's fault can fetch the invalid objects behind it in the same
    /// round trip. A window ending at or before the faulting object (`0`
    /// from callers with one object in hand) allows a run of 1.
    pub(crate) fn fault_in(self: &Arc<Self>, objects: &[ObjectId], write: bool) -> Result<()> {
        let window_end = objects.last().map_or(0, |last| last.as_u32() + 1);
        for object in objects {
            if self.vm.is_some() {
                self.vm_touch(*object, write, window_end)?;
            } else if !self.dir.lock().entry(*object).state.rights.allows(write) {
                self.fault(*object, write, window_end)?;
            }
        }
        Ok(())
    }

    /// Performs a hardware touch of `object` (VM-trap mode) and surfaces any
    /// error the in-handler fault protocol parked. The window is left where
    /// the trap handler, which takes no arguments, finds it.
    fn vm_touch(self: &Arc<Self>, object: ObjectId, write: bool, window_end: u32) -> Result<()> {
        let vm = self.vm.as_ref().expect("vm_touch requires VM-trap mode");
        // Read back by `vm_fault` on this same thread.
        self.vm_window_end
            .store(window_end, std::sync::atomic::Ordering::Relaxed);
        if write {
            vm.touch_write(object);
        } else {
            vm.touch_read(object);
        }
        if let Some(e) = self.take_vm_fault_error() {
            // The handler loosened the page so the failed touch could
            // complete; restore the protection the directory mandates.
            let rights = self.dir.lock().entry(object).state.rights;
            vm.sync_rights(object, rights, true);
            return Err(e);
        }
        Ok(())
    }

    /// The `len` bytes at `byte_offset` of `var` object by object, as the
    /// protected region lays them out (contiguous within an object only):
    /// each object, the offset in it, and where its piece lies in the bytes.
    fn var_pieces(
        &self,
        var: VarId,
        at: usize,
        len: usize,
    ) -> impl Iterator<Item = (ObjectId, usize, Range<usize>)> + '_ {
        let objects = self.table.objects_in_range(var, at, at + len);
        objects.iter().map(move |&oid| {
            let o = self.table.object(oid);
            let (lo, hi) = (o.var_offset.max(at), (o.var_offset + o.size).min(at + len));
            (oid, lo - o.var_offset, lo - at..hi - at)
        })
    }

    /// Copies `out.len()` bytes at `byte_offset` of `var` out of segment
    /// memory. Caller holds the pins covering the range.
    fn copy_var_bytes_out(&self, var: VarId, byte_offset: usize, out: &mut [u8]) {
        let Some(vm) = &self.vm else {
            let base = self.table.var(var).segment_offset + byte_offset;
            return out.copy_from_slice(&self.memory.lock()[base..base + out.len()]);
        };
        for (oid, at, piece) in self.var_pieces(var, byte_offset, out.len()) {
            vm.user_copy_out(oid, at, &mut out[piece]);
        }
    }

    /// Copies `data` into segment memory at `byte_offset` of `var`. Caller
    /// holds the pins covering the range with write rights.
    fn copy_var_bytes_in(&self, var: VarId, byte_offset: usize, data: &[u8]) {
        let Some(vm) = &self.vm else {
            let base = self.table.var(var).segment_offset + byte_offset;
            return self.memory.lock()[base..base + data.len()].copy_from_slice(data);
        };
        for (oid, at, piece) in self.var_pieces(var, byte_offset, data.len()) {
            vm.user_copy_in(oid, at, &data[piece]);
        }
    }

    /// Reads `out.len()` bytes starting at `byte_offset` of variable `var`'s
    /// storage, faulting in each covered object as needed.
    ///
    /// The covered entries are *pinned* (their rights held) from the final
    /// rights check until the bytes have been copied out, so an
    /// ownership-transferring fetch cannot invalidate the local copy inside
    /// the check-then-act window.
    pub(crate) fn read_var_bytes(
        self: &Arc<Self>,
        var: VarId,
        byte_offset: usize,
        out: &mut [u8],
    ) -> Result<()> {
        let objects = self
            .table
            .objects_in_range(var, byte_offset, byte_offset + out.len());
        self.pin_for_access(objects, false)?;
        self.copy_var_bytes_out(var, byte_offset, out);
        self.unpin(objects);
        Ok(())
    }

    /// Writes `data` starting at `byte_offset` of variable `var`'s storage,
    /// faulting each covered object for write access as needed.
    ///
    /// The covered entries are pinned from the final rights check until the
    /// bytes are in segment memory: a concurrently arriving
    /// ownership-transferring fetch is deferred by the service thread until
    /// the write has landed, so the served copy always contains it (the
    /// ROADMAP lost-update race).
    ///
    /// The objects the write overwrites whole are published to the fault
    /// path for the access (`overwrite`): a `result` one among them that a
    /// fault fetches comes without its bytes — and is dropped again should
    /// the access fail ([`coherence::drop_unwritten`]).
    pub(crate) fn write_var_bytes(
        self: &Arc<Self>,
        var: VarId,
        byte_offset: usize,
        data: &[u8],
    ) -> Result<()> {
        let end = byte_offset + data.len();
        let objects = self.table.objects_in_range(var, byte_offset, end);
        let covered = self.table.objects_covered(var, byte_offset, end);
        let tracked = !covered.is_empty();
        if tracked {
            self.overwrite.lock().0 = covered;
        }
        let pinned = self.pin_for_access(objects, true);
        if tracked {
            let (_, elided) = std::mem::take(&mut *self.overwrite.lock());
            for &object in elided.iter().filter(|_| pinned.is_err()) {
                self.duq.lock().remove(object);
                let mut dir = self.dir.lock();
                let entry = dir.entry_mut(object);
                coherence::drop_unwritten(entry);
                self.protect(entry);
            }
        }
        pinned?;
        self.copy_var_bytes_in(var, byte_offset, data);
        self.unpin(objects);
        Ok(())
    }

    /// Acquires the rights needed for a memory access of `objects` and pins
    /// every covered entry under a single directory lock.
    ///
    /// Faulting (which may block on remote replies) happens *without* any pin
    /// held, so two nodes faulting each other's objects cannot deadlock; the
    /// verify-and-pin step then re-checks all rights atomically and retries
    /// the faults if a racing ownership transfer revoked them in between.
    /// In VM-trap mode the verify step also turns a *missed* trap — a touch
    /// that landed while a privileged access had transiently loosened the
    /// pages — into a retry: the rights check fails, and once the privileged
    /// window closes the retried touch traps. A missed trap therefore costs
    /// retries, never a missed fault.
    fn pin_for_access(self: &Arc<Self>, objects: &[ObjectId], write: bool) -> Result<()> {
        loop {
            self.fault_in(objects, write)?;
            let mut dir = self.dir.lock();
            if objects
                .iter()
                .all(|o| dir.entry(*o).state.rights.allows(write))
            {
                for obj in objects {
                    let entry = dir.entry_mut(*obj);
                    entry.state.pinned = true;
                    if write {
                        coherence::mark_dirty(entry);
                    }
                }
                return Ok(());
            }
            // Lost a race with a remote ownership transfer between the fault
            // and the pin: drop the lock and fault again.
        }
    }

    /// Releases the pins taken by [`Self::pin_for_access`] and retries any
    /// requests the service thread deferred while the access was in flight.
    fn unpin(self: &Arc<Self>, objects: &[ObjectId]) {
        {
            let mut dir = self.dir.lock();
            for obj in objects {
                dir.entry_mut(*obj).state.pinned = false;
            }
        }
        self.note_unblocked_and_process_deferred(self.clock.now());
    }

    /// Handles a read or write access fault on `object`, taken inside an
    /// access whose objects end before `window_end`: one traced span, whose
    /// duration goes into the fault service-time histogram under the
    /// object's annotation keyword.
    pub(crate) fn fault(
        self: &Arc<Self>,
        object: ObjectId,
        write: bool,
        window_end: u32,
    ) -> Result<()> {
        use EventKind::*;
        let (begin, end) = if write {
            (WriteFaultBegin, WriteFaultEnd)
        } else {
            (ReadFaultBegin, ReadFaultEnd)
        };
        let t0 = self.clock.now().as_nanos();
        self.obs.record(t0, begin, |ev| ev.object = Some(object));
        let result = if write {
            self.write_fault(object, window_end).map(Some)
        } else {
            self.read_fault(object, window_end).map(|()| None)
        };
        let t1 = self.clock.now().as_nanos();
        let dur = t1.saturating_sub(t0);
        self.obs.record(t1, end, |ev| {
            ev.object = Some(object);
            ev.dur_ns = dur;
            ev.run = result.as_ref().ok().copied().flatten();
        });
        let class = self.dir.lock().entry(object).annotation.keyword();
        self.obs.record_fault_service(class, dur);
        result.map(|_| ())
    }

    fn read_fault(self: &Arc<Self>, object: ObjectId, window_end: u32) -> Result<()> {
        bump(&self.stats.read_faults);
        self.charge_sys(self.cost.fault());
        let (owner_hint, run) = {
            let mut dir = self.dir.lock();
            let entry = dir.entry_mut(object);
            if coherence::zero_fill(entry) || entry.state.rights.allows_read() {
                self.protect(entry);
                return Ok(());
            }
            let run = coherence::run(&dir, object, window_end);
            Self::hold_busy(&mut dir, object, run, true);
            (dir.entry(object).probable_owner, run)
        };
        let result = self.fetch_object(object, (run, 0), FetchKind::Read, owner_hint, 0..0);
        self.clear_busy(object, run);
        result
    }

    /// Handles a write access fault, dispatching on the object's protocol
    /// parameters. Returns how many objects it enabled for writing.
    fn write_fault(self: &Arc<Self>, object: ObjectId, window_end: u32) -> Result<u32> {
        bump(&self.stats.write_faults);
        self.charge_sys(self.cost.fault());
        let block = coherence::own_block(&self.table, object, self.node, self.nodes);
        let overwrite = self.overwrite.lock().0.clone();
        let (claim, plan) = {
            let mut dir = self.dir.lock();
            let plan = coherence::write_plan(&mut dir, object, window_end, block, overwrite);
            self.protect(dir.entry(object));
            Self::hold_busy(&mut dir, object, plan.claim(), true);
            (plan.claim(), plan)
        };
        let result = match plan {
            WritePlan::Done => Ok(0),
            WritePlan::Error(e) => {
                bump(&self.stats.runtime_errors);
                Err(e)
            }
            WritePlan::Delayed(d) => self.delayed_write_fault(object, d, window_end),
            WritePlan::UpgradeInPlace(copyset) => {
                let r = self.invalidate_copies(object, copyset);
                if r.is_ok() {
                    let mut dir = self.dir.lock();
                    let entry = dir.entry_mut(object);
                    coherence::replicas_invalidated(entry, true);
                    self.protect(entry);
                }
                r.map(|()| 1)
            }
            WritePlan::AcquireOwnership(owner_hint) => self
                .fetch_object(object, (1, 0), FetchKind::Write, owner_hint, 0..0)
                .map(|()| 1),
        };
        self.clear_busy(object, claim);
        result
    }

    /// Write fault on an object whose protocol allows delayed updates: fetches
    /// the `copy_run` if there is one, then queues on the DUQ, twinned where
    /// it takes a twin, what [`coherence::enable`] enables. Returns how many.
    fn delayed_write_fault(
        self: &Arc<Self>,
        object: ObjectId,
        d: Delayed,
        end: u32,
    ) -> Result<u32> {
        if d.copy_run.0 > 0 {
            self.fetch_object(object, d.copy_run, FetchKind::Read, d.owner_hint, d.elide)?;
        }
        let mut dir = self.dir.lock();
        let enabled = coherence::enable(&mut dir, &self.table, object, d.copy_run.0, end, d.block);
        // Snapshot and enqueue in one DUQ-lock scope, the one
        // `apply_update_items` holds across memory apply + twin patch: a
        // peer's update admitted before this fault is either in the snapshot
        // or finds the twin to patch. The directory lock is held throughout
        // (order dir → duq → memory): an object twinned ahead cannot change
        // state between its check and its enabling.
        let mut duq = self.duq.lock();
        for &(o, twin) in &enabled {
            let twin = twin.then(|| {
                let size = self.table.object(o).size;
                bump(&self.stats.twins_created);
                self.charge_sys(self.cost.copy(size as u64));
                // Reuse a pooled twin buffer instead of allocating a fresh
                // copy: flushes return their twins to the pool after encoding.
                let mut buf = duq.acquire_twin_buffer(size);
                self.read_object_into(o, &mut buf);
                buf
            });
            duq.enqueue(o, twin);
            self.protect(dir.entry(o));
        }
        // Fetched without its bytes, `object` was installed writable and
        // queued: enabled all the same.
        Ok(enabled.len().max(1) as u32)
    }

    /// Sends a fetch for the `run` objects starting at `object`, the last
    /// `ahead` of them past the access window, to `owner_hint` (forwarded
    /// along the probable-owner chain) and installs the prefix of the run the
    /// reply carries ([`coherence::install`]). The caller holds every object
    /// of the run busy and clears them all afterwards, served or not. The
    /// objects in `elide` are asked for without their bytes, and queued on the
    /// DUQ with no twin.
    pub(crate) fn fetch_object(
        self: &Arc<Self>,
        object: ObjectId,
        (run, ahead): (u32, u32),
        access: FetchKind,
        owner_hint: NodeId,
        elide: Range<u32>,
    ) -> Result<()> {
        self.obs
            .record(self.clock.now().as_nanos(), EventKind::FetchSend, |ev| {
                ev.object = Some(object);
                ev.peer = Some(owner_hint);
                ev.run = Some(run);
            });
        let fetch = FetchRequest {
            object,
            run,
            ahead,
            access,
            requester: self.node,
            phase: self.dir.lock().phase,
            elide,
            adopt: false,
        };
        self.send(owner_hint, DsmMsg::ObjectFetch(fetch.clone()))?;
        // Deaths interrupt the wait: the fetch (or its forward, or the
        // reply) may be sitting in a corpse, so any confirmed death — of
        // any peer: the probable-owner chain is unknowable from here —
        // triggers a recovery round that re-homes the object or proves it
        // lost (already-dead peers are signalled on the first wait). The
        // adopter serves the run like any owner.
        let mut handled = NodeSet::EMPTY;
        let (env, reply) = loop {
            match self.wait_reply_or_dead(WaitOp::Fetch(object), &mut handled) {
                Ok(reply) => break reply,
                Err(MuninError::PeerDied(dead)) => {
                    if let Some(reply) = self.refetch_orphan(&fetch, dead)? {
                        break reply;
                    }
                }
                Err(e) => return Err(e),
            }
        };
        let (data, reply) = coherence::check_reply(&fetch, reply, &self.table)
            .map_err(MuninError::ProtocolViolation)?;
        proto_trace!(
            self,
            "installed {} object(s) from {object:?} on, from {:?} ({reply:?}, arrival={}ns)",
            data.len(),
            env.src,
            env.arrival.as_nanos()
        );
        for (served, bytes) in (object.as_u32()..).map(ObjectId::new).zip(&data) {
            bump(&self.stats.objects_fetched);
            add(&self.stats.fetch_bytes, bytes.len() as u64);
            self.charge_sys(self.cost.dir_op());
            self.install_object_bytes(served, bytes);
            if fetch.elide.contains(&served.as_u32()) {
                self.duq.lock().enqueue(served, None);
                self.overwrite.lock().1.push(served);
            }
            let mut dir = self.dir.lock();
            coherence::install(&mut dir, &fetch, served, &reply, env.src);
            self.protect(dir.entry(served));
        }
        if reply.ownership && matches!(access, FetchKind::Write) && !reply.copyset.is_empty() {
            // Single-writer protocols: "upon a write miss an invalidation
            // message is transmitted to all other replicas. The thread that
            // generated the miss blocks until it has the only copy."
            self.invalidate_copies(object, reply.copyset)?;
            coherence::replicas_invalidated(self.dir.lock().entry_mut(object), false);
        }
        Ok(())
    }

    /// Runs one orphan-recovery round for a fetch interrupted by the death
    /// of `dead`: broadcasts a `CopysetQuery` for the object to every
    /// surviving peer, and — if the original `ObjectData` did not surface
    /// meanwhile — directs the fetch, flagged `adopt`, at the lowest-id
    /// surviving holder, or raises [`MuninError::NodeDown`] when no copy
    /// survived.
    ///
    /// The reply round always completes (a peer dying mid-round counts as
    /// an empty reply), so no stray `CopysetReply` can pollute a later
    /// wait. Returns the stashed `ObjectData` reply if one arrived.
    fn refetch_orphan(
        self: &Arc<Self>,
        fetch: &FetchRequest,
        dead: NodeId,
    ) -> Result<Option<(Envelope, DsmMsg)>> {
        let object = fetch.object;
        proto_trace!(self, "orphan recovery for {object:?} after {dead:?} died");
        // While the round runs, copyset queries for the object are answered
        // instead of deferred (see `ObjectState::recovering`) — including
        // any that were deferred before the death was signalled here.
        self.dir.lock().entry_mut(object).state.recovering = true;
        self.process_deferred();
        let outcome = self.orphan_round(fetch, dead);
        self.dir.lock().entry_mut(object).state.recovering = false;
        outcome
    }

    /// The body of [`Self::refetch_orphan`]: query, collect, adopt.
    fn orphan_round(
        self: &Arc<Self>,
        fetch: &FetchRequest,
        dead: NodeId,
    ) -> Result<Option<(Envelope, DsmMsg)>> {
        let object = fetch.object;
        let mut pending: Vec<NodeId> = self.live_peers().iter().collect();
        let shared: Arc<[ObjectId]> = Arc::from(vec![object]);
        for peer in &pending {
            add(&self.stats.copyset_query_msgs, 1);
            self.send(
                *peer,
                DsmMsg::CopysetQuery {
                    objects: Arc::clone(&shared),
                    requester: self.node,
                },
            )?;
        }
        let mut holders: Vec<NodeId> = Vec::new();
        let mut data_reply = None;
        // Deaths already signalled to the caller must not end this round
        // early, but a peer dying *mid-round* counts as its (empty) reply.
        let mut handled = self.dead_set();
        while !pending.is_empty() {
            match self.wait_reply_or_dead(WaitOp::Fetch(object), &mut handled) {
                Ok((env, DsmMsg::CopysetReply { have })) => {
                    if have.contains(&object) {
                        holders.push(env.src);
                    }
                    pending.retain(|n| *n != env.src);
                }
                Ok(reply @ (_, DsmMsg::ObjectData { .. })) => {
                    // The fetch was alive after all; finish the round so the
                    // mailbox stays clean, then hand the data back.
                    data_reply = Some(reply);
                }
                Ok(_) => {
                    return Err(MuninError::ProtocolViolation(
                        "unexpected reply during orphan recovery",
                    ))
                }
                Err(MuninError::PeerDied(n)) => pending.retain(|p| *p != n),
                Err(e) => return Err(e),
            }
        }
        if data_reply.is_some() {
            return Ok(data_reply);
        }
        holders.sort();
        match holders.first() {
            Some(&adoptee) => {
                coherence::redirect(self.dir.lock().entry_mut(object), adoptee);
                proto_trace!(self, "asking {adoptee:?} to adopt orphan {object:?}");
                // Word of the death first, in case gossip has not reached
                // the adoptee: its recovery walk adopts every page of the
                // dead owner's it holds, so one round brings the whole run.
                self.send(adoptee, DsmMsg::PeerDown { node: dead })?;
                let adopt = FetchRequest {
                    adopt: true,
                    ..fetch.clone()
                };
                self.send(adoptee, DsmMsg::ObjectFetch(adopt))?;
                Ok(None)
            }
            None => {
                // No surviving copy anywhere: the paper's fail-fast case.
                bump(&self.stats.runtime_errors);
                Err(MuninError::NodeDown {
                    node: dead,
                    lost_objects: vec![object],
                })
            }
        }
    }

    /// Sends invalidations for `object` to every member of `copyset` (other
    /// than this node) and waits for the acknowledgements. A member
    /// confirmed dead counts as acknowledged: its copy is unreachable by
    /// definition, and recovery already pruned it from the copyset going
    /// forward.
    pub(crate) fn invalidate_copies(
        self: &Arc<Self>,
        object: ObjectId,
        copyset: NodeSet,
    ) -> Result<()> {
        let mut pending: Vec<NodeId> = copyset.iter().filter(|&n| n != self.node).collect();
        let invalidate = DsmMsg::Invalidate {
            object,
            requester: self.node,
        };
        for m in &pending {
            add(&self.stats.invalidations_sent, 1);
            self.send(*m, invalidate.clone())?;
        }
        let mut handled = NodeSet::EMPTY;
        while !pending.is_empty() {
            match self.wait_reply_or_dead(WaitOp::InvalidateAcks(object), &mut handled) {
                Ok((env, DsmMsg::InvalidateAck { object: o })) if o == object => {
                    pending.retain(|&n| n != env.src)
                }
                Ok(_) => {
                    return Err(MuninError::ProtocolViolation(
                        "unexpected reply while waiting for invalidation acks",
                    ))
                }
                Err(MuninError::PeerDied(n)) => pending.retain(|&p| p != n),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Marks `object` and the `run - 1` objects behind it `busy` or not:
    /// in a transition of this node's own, which requests for them wait out.
    fn hold_busy(dir: &mut Directory, object: ObjectId, run: u32, busy: bool) {
        for id in object.as_u32()..object.as_u32() + run {
            dir.entry_mut(ObjectId::new(id)).state.busy = busy;
        }
    }

    /// Clears the busy bits a fault set, whether the reply carried their
    /// objects or not, and retries the requests deferred meanwhile.
    fn clear_busy(self: &Arc<Self>, object: ObjectId, run: u32) {
        Self::hold_busy(&mut self.dir.lock(), object, run, false);
        self.note_unblocked_and_process_deferred(self.clock.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::SharingAnnotation;
    use crate::config::MuninConfig;
    use crate::directory::AccessRights;
    use crate::segment::SharedDataTable;
    use munin_sim::{CostModel, Network, NodeClock};
    use std::collections::HashSet;

    fn single_node() -> Arc<NodeRuntime> {
        let mut table = SharedDataTable::new(64);
        table.declare("ro", SharingAnnotation::ReadOnly, 4, 8);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8);
        table.declare("conv", SharingAnnotation::Conventional, 4, 8);
        table.declare("red", SharingAnnotation::Reduction, 8, 1);
        let rt = node_of(table, 0, 1);
        let mut touched = HashSet::new();
        for obj in rt.table().objects() {
            touched.insert(obj.id);
        }
        rt.finish_root_init(&touched);
        rt
    }

    /// Node `node` of `nodes`, on `table`, before any initialisation.
    fn node_of(table: SharedDataTable, node: usize, nodes: usize) -> Arc<NodeRuntime> {
        let cfg = Arc::new(MuninConfig::fast_test(nodes));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(nodes, CostModel::fast_test());
        let (sender, _rx) = net.endpoint(node, clock.clone()).unwrap();
        NodeRuntime::new(
            NodeId::new(node),
            nodes,
            cfg,
            Arc::new(table),
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            sender,
        )
    }

    fn obj(rt: &NodeRuntime, name: &str) -> ObjectId {
        rt.table().var_by_name(name).unwrap().objects[0]
    }

    #[test]
    fn write_to_read_only_object_is_a_runtime_error() {
        let rt = single_node();
        let ro = obj(&rt, "ro");
        let err = rt.fault(ro, true, 0).unwrap_err();
        assert_eq!(err, MuninError::ReadOnlyWrite(ro));
        assert_eq!(rt.stats().snapshot().runtime_errors, 1);
    }

    #[test]
    fn plain_write_to_reduction_object_is_rejected() {
        let rt = single_node();
        let red = obj(&rt, "red");
        // Force a fault by write-protecting the entry.
        rt.dir.lock().entry_mut(red).state.rights = AccessRights::Read;
        assert!(matches!(
            rt.fault(red, true, 0),
            Err(MuninError::NotAReductionObject(_))
        ));
    }

    #[test]
    fn delayed_write_fault_creates_twin_and_enqueues() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        assert_eq!(
            rt.dir.lock().entry(ws).state.rights,
            AccessRights::Read,
            "write-shared objects start write-protected"
        );
        rt.fault(ws, true, 0).unwrap();
        assert!(rt.duq.lock().contains(ws));
        assert!(rt.duq.lock().twin_of(ws).is_some());
        assert_eq!(
            rt.dir.lock().entry(ws).state.rights,
            AccessRights::ReadWrite
        );
        assert_eq!(rt.stats().snapshot().twins_created, 1);
        assert_eq!(rt.stats().snapshot().write_faults, 1);
    }

    /// One trap for a window of sole pages: the write fault on the first
    /// page of a `producer_consumer` window enables it and every other
    /// write-protected page of the window that is sole here (stable, owned,
    /// no copyset), all with no twin. A window page a peer holds a copy of,
    /// or one another node owns, is left to take a fault and a twin of its
    /// own. A `write_shared` page is never sole: twinned, and its window
    /// left alone.
    #[test]
    fn one_trap_enables_the_windows_sole_pages_with_no_twin() {
        let mut table = SharedDataTable::new(64);
        table.declare("pc", SharingAnnotation::ProducerConsumer, 4, 16 * 5);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 16 * 2);
        let rt = node_of(table, 0, 2);
        rt.finish_root_init(&rt.table().objects().iter().map(|o| o.id).collect());
        let pages = |name| rt.table().var_by_name(name).unwrap().objects.clone();
        let (pc, ws) = (pages("pc"), pages("ws"));
        {
            let mut dir = rt.dir.lock();
            dir.entry_mut(pc[2]).copyset.insert(NodeId::new(1));
            let foreign = dir.entry_mut(pc[3]);
            foreign.state.owned = false;
            foreign.probable_owner = NodeId::new(1);
        }
        let counts = || {
            let s = rt.stats().snapshot();
            (s.write_faults, s.twins_created)
        };
        let state = |o: ObjectId| {
            let queued = rt.duq.lock().contains(o);
            let twinned = rt.duq.lock().twin_of(o).is_some();
            (rt.dir.lock().entry(o).state.rights, queued, twinned)
        };
        let (read, rw) = (AccessRights::Read, AccessRights::ReadWrite);
        let end = pc[4].as_u32() + 1;
        rt.fault(pc[0], true, end).unwrap();
        assert_eq!(counts(), (1, 0), "one trap, no twin");
        for sole in [pc[0], pc[1], pc[4]] {
            assert_eq!(state(sole), (rw, true, false), "{sole:?}");
        }
        for own_fault in [pc[2], pc[3]] {
            assert_eq!(state(own_fault), (read, false, false), "{own_fault:?}");
            rt.fault(own_fault, true, end).unwrap();
            assert_eq!(state(own_fault), (rw, true, true), "{own_fault:?}");
        }
        assert_eq!(counts(), (3, 2));
        rt.fault(ws[0], true, ws[1].as_u32() + 1).unwrap();
        assert_eq!(counts(), (4, 3));
        assert_eq!(state(ws[0]), (rw, true, true));
        assert_eq!(state(ws[1]), (read, false, false));
    }

    /// One trap for a block: the first write into this node's own block of
    /// a `producer_consumer` variable enables, with no twin, every page of
    /// the block it owns, never materialised and holds alone, the pages
    /// before the faulting one too. It leaves the block's last page, and a
    /// page that is busy, pinned, shared or materialised, to fault on its own.
    #[test]
    fn one_trap_enables_the_blocks_untouched_sole_pages() {
        let mut table = SharedDataTable::new(64);
        table.declare("pc", SharingAnnotation::ProducerConsumer, 4, 16 * 16);
        let rt = node_of(table, 0, 2);
        rt.finish_root_init(&HashSet::new());
        let pc = rt.table().var_by_name("pc").unwrap().objects.clone();
        {
            let mut dir = rt.dir.lock();
            dir.entry_mut(pc[3]).state.busy = true;
            dir.entry_mut(pc[4]).state.pinned = true;
            dir.entry_mut(pc[5]).copyset.insert(NodeId::new(1));
            rt.set_entry_rights(dir.entry_mut(pc[6]), AccessRights::Read);
        }
        rt.fault(pc[2], true, 0).unwrap();
        let s = rt.stats().snapshot();
        assert_eq!((s.write_faults, s.twins_created), (1, 0));
        let state = |o: ObjectId| {
            let queued = rt.duq.lock().contains(o);
            (rt.dir.lock().entry(o).state.rights, queued)
        };
        let (invalid, rw) = (AccessRights::Invalid, AccessRights::ReadWrite);
        for (i, o) in pc.iter().enumerate() {
            let expected = match i {
                0..=2 => (rw, true),
                6 => (AccessRights::Read, false),
                // Busy, pinned, shared; the block's last; node 1's block.
                _ => (invalid, false),
            };
            assert_eq!(state(*o), expected, "page {i}");
        }
    }

    #[test]
    fn second_write_fault_does_not_duplicate_duq_entry() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        rt.fault(ws, true, 0).unwrap();
        // Simulate re-protection then another fault before a flush: the twin
        // from the first fault must be preserved.
        rt.install_object_bytes(ws, &[9u8; 32]);
        rt.dir.lock().entry_mut(ws).state.rights = AccessRights::Read;
        rt.fault(ws, true, 0).unwrap();
        assert_eq!(rt.duq.lock().len(), 1);
        assert_eq!(rt.duq.lock().twin_of(ws).unwrap(), vec![0u8; 32].as_slice());
    }

    #[test]
    fn owner_upgrade_in_place_needs_no_messages_when_no_replicas() {
        let rt = single_node();
        let conv = obj(&rt, "conv");
        // Root owns the conventional object with ReadWrite rights already;
        // downgrade to Read to force the upgrade path.
        rt.dir.lock().entry_mut(conv).state.rights = AccessRights::Read;
        rt.fault(conv, true, 0).unwrap();
        let dir = rt.dir.lock();
        assert_eq!(dir.entry(conv).state.rights, AccessRights::ReadWrite);
        assert!(dir.entry(conv).state.owned);
    }

    #[test]
    fn read_of_valid_object_does_not_fault() {
        let rt = single_node();
        let ro = obj(&rt, "ro");
        rt.fault_in(&[ro], false).unwrap();
        assert_eq!(rt.stats().snapshot().read_faults, 0);
    }

    #[test]
    fn var_byte_access_round_trips_through_memory() {
        let rt = single_node();
        let ws = rt.table().var_by_name("ws").unwrap().id;
        rt.write_var_bytes(ws, 4, &42u32.to_le_bytes()).unwrap();
        let mut out = [0u8; 4];
        rt.read_var_bytes(ws, 4, &mut out).unwrap();
        assert_eq!(u32::from_le_bytes(out), 42);
    }
}
