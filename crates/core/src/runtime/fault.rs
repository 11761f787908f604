//! Access checking and fault handling on the user-thread side.
//!
//! Every shared access consults the local directory entry's access rights —
//! the simulated analogue of the virtual-memory protection check the
//! prototype gets for free from the MMU. Insufficient rights invoke the fault
//! handlers below, which implement the per-annotation consistency protocols
//! of Sections 3.1–3.3:
//!
//! * read faults fetch a replica from the owner (found via the
//!   probable-owner chain);
//! * write faults on *delayed* (write-shared / producer-consumer / result)
//!   objects fetch a copy if there is none, make a twin, enqueue the object
//!   on the DUQ, and enable writes;
//! * write faults on *ownership* (conventional / migratory) objects acquire
//!   ownership and invalidate the remaining replicas;
//! * writes to `read_only` objects are runtime errors.
//!
//! A fetch that needs nothing but a copy asks for a *run*: the faulting
//! object and every object after it in the same access (the *window*) that
//! is invalid here too and shares its owner hint. The reply installs a
//! prefix of the run, so the objects installed along never fault; what the
//! owner could not hand out as a plain copy faults in turn, and starts a run
//! of its own.

use std::ops::Range;
use std::sync::Arc;

use munin_sim::NodeId;

use crate::annotation::SharingAnnotation;
use crate::copyset::CopySet;
use crate::directory::AccessRights;
use crate::error::{MuninError, Result};
use crate::msg::{DsmMsg, FetchKind, FetchRequest};
use crate::object::ObjectId;
use crate::stats::{add, bump};

use super::NodeRuntime;

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
    /// round trip; those are then valid when their turn comes and take no
    /// fault. A window ending at or before the faulting object (`0` from
    /// callers with one object in hand) allows a run of 1.
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
            vm.sync_rights(object, rights);
            return Err(e);
        }
        Ok(())
    }

    /// Copies `out.len()` bytes at `byte_offset` of `var` out of segment
    /// memory. Caller holds the pins covering the range.
    fn copy_var_bytes_out(&self, var: crate::object::VarId, byte_offset: usize, out: &mut [u8]) {
        match &self.vm {
            None => {
                let base = self.table.var(var).segment_offset;
                let mem = self.memory.lock();
                out.copy_from_slice(&mem[base + byte_offset..base + byte_offset + out.len()]);
            }
            Some(vm) => {
                // Objects are contiguous within themselves but not across
                // object boundaries in the protected region: copy per object.
                let end = byte_offset + out.len();
                for &oid in self.table.objects_in_range(var, byte_offset, end) {
                    let o = self.table.object(oid);
                    let lo = o.var_offset.max(byte_offset);
                    let hi = (o.var_offset + o.size).min(end);
                    vm.user_copy_out(
                        oid,
                        lo - o.var_offset,
                        &mut out[lo - byte_offset..hi - byte_offset],
                    );
                }
            }
        }
    }

    /// Copies `data` into segment memory at `byte_offset` of `var`. Caller
    /// holds the pins covering the range with write rights.
    fn copy_var_bytes_in(&self, var: crate::object::VarId, byte_offset: usize, data: &[u8]) {
        match &self.vm {
            None => {
                let base = self.table.var(var).segment_offset;
                let mut mem = self.memory.lock();
                mem[base + byte_offset..base + byte_offset + data.len()].copy_from_slice(data);
            }
            Some(vm) => {
                let end = byte_offset + data.len();
                for &oid in self.table.objects_in_range(var, byte_offset, end) {
                    let o = self.table.object(oid);
                    let lo = o.var_offset.max(byte_offset);
                    let hi = (o.var_offset + o.size).min(end);
                    vm.user_copy_in(
                        oid,
                        lo - o.var_offset,
                        &data[lo - byte_offset..hi - byte_offset],
                    );
                }
            }
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
        var: crate::object::VarId,
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
    /// fault fetches comes without its bytes. Should the access fail, the
    /// objects fetched that way are dropped again: they hold no contents.
    pub(crate) fn write_var_bytes(
        self: &Arc<Self>,
        var: crate::object::VarId,
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
            if pinned.is_err() {
                self.drop_elided(&elided);
            }
        }
        pinned?;
        self.copy_var_bytes_in(var, byte_offset, data);
        self.unpin(objects);
        Ok(())
    }

    /// Drops what a failed write access installed without its bytes: the
    /// zeros those objects hold must neither be read nor flushed whole.
    fn drop_elided(&self, elided: &[ObjectId]) {
        for &object in elided {
            self.duq.lock().remove(object);
            let mut dir = self.dir.lock();
            let entry = dir.entry_mut(object);
            entry.state.dirty = false;
            self.set_entry_rights(entry, AccessRights::Invalid);
        }
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
                        entry.state.dirty = true;
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
        use crate::obs::EventKind::*;
        let (begin, end) = if write {
            (WriteFaultBegin, WriteFaultEnd)
        } else {
            (ReadFaultBegin, ReadFaultEnd)
        };
        let t0 = self.clock.now().as_nanos();
        self.obs.record(t0, begin, |ev| ev.object = Some(object));
        let result = if write {
            self.write_fault(object, window_end)
        } else {
            self.read_fault(object, window_end)
        };
        let t1 = self.clock.now().as_nanos();
        let dur = t1.saturating_sub(t0);
        self.obs.record(t1, end, |ev| {
            ev.object = Some(object);
            ev.dur_ns = dur;
        });
        let class = self.dir.lock().entry(object).annotation.keyword();
        self.obs.record_fault_service(class, dur);
        result
    }

    fn read_fault(self: &Arc<Self>, object: ObjectId, window_end: u32) -> Result<()> {
        bump(&self.stats.read_faults);
        self.charge_sys(self.cost.fault());
        let (owner_hint, run) = {
            let mut dir = self.dir.lock();
            let entry = dir.entry_mut(object);
            if entry.state.rights.allows_read() {
                return Ok(());
            }
            if entry.state.owned {
                // The owner itself touches an object it never materialized:
                // zero-fill locally, no messages needed.
                self.set_entry_rights(entry, AccessRights::Read);
                return Ok(());
            }
            entry.state.busy = true;
            let owner_hint = entry.probable_owner;
            // A read of migratory data moves the object; anything else only
            // needs a copy, and the window's copies can come along.
            let run = if entry.annotation == SharingAnnotation::Migratory {
                1
            } else {
                Self::claim_run(&mut dir, object, window_end)
            };
            (owner_hint, run)
        };
        let result = self.fetch_object(object, run, FetchKind::Read, owner_hint, 0..0);
        self.clear_busy(object, run);
        result
    }

    /// Extends the fetch of `object` — already marked busy — over the
    /// objects behind it, up to `window_end`: every consecutive one that is
    /// invalid here, not owned here, in no transition of its own and filed
    /// under the same annotation and probable owner. Marks each busy (an
    /// update or copyset query that reaches this node between the owner
    /// serving the copy and its install must wait for the install, exactly
    /// as for `object` itself) and returns the length of the run, `object`
    /// included.
    fn claim_run(dir: &mut crate::directory::Directory, object: ObjectId, window_end: u32) -> u32 {
        let (annotation, owner_hint) = {
            let first = dir.entry(object);
            (first.annotation, first.probable_owner)
        };
        let mut run = 1;
        for id in object.as_u32() + 1..window_end {
            let entry = dir.entry_mut(ObjectId::new(id));
            if entry.state.rights.allows_read()
                || entry.state.owned
                || entry.state.busy
                || entry.annotation != annotation
                || entry.probable_owner != owner_hint
            {
                break;
            }
            entry.state.busy = true;
            run += 1;
        }
        run
    }

    /// Handles a write access fault, dispatching on the object's protocol
    /// parameters.
    fn write_fault(self: &Arc<Self>, object: ObjectId, window_end: u32) -> Result<()> {
        bump(&self.stats.write_faults);
        self.charge_sys(self.cost.fault());
        enum Plan {
            Done,
            Error(MuninError),
            /// `copy_run` objects, from this one on, have no copy here and
            /// are fetched first (0: the local copy is valid), those in
            /// `elide` without their bytes.
            Delayed {
                copy_run: u32,
                owner_hint: NodeId,
                elide: Range<u32>,
            },
            UpgradeInPlace {
                copyset: CopySet,
            },
            AcquireOwnership {
                owner_hint: NodeId,
            },
        }
        let plan = {
            let mut dir = self.dir.lock();
            let entry = dir.entry_mut(object);
            if entry.state.owned && !entry.state.rights.allows_read() {
                // The owner writes an object it never materialized: zero-fill
                // locally and continue with the normal write-fault handling.
                self.set_entry_rights(entry, AccessRights::Read);
            }
            if entry.state.rights.allows_write() {
                entry.state.dirty = true;
                Plan::Done
            } else if !entry.params.is_writable() {
                bump(&self.stats.runtime_errors);
                Plan::Error(MuninError::ReadOnlyWrite(object))
            } else if entry.annotation == SharingAnnotation::Reduction {
                bump(&self.stats.runtime_errors);
                Plan::Error(MuninError::NotAReductionObject(object))
            } else if entry.params.allows_delay() {
                entry.state.busy = true;
                let owner_hint = entry.probable_owner;
                let to_owner = entry.params.flushes_to_owner();
                // The copy a delayed write needs is a plain read copy, so
                // the window's can come with it; the objects behind this one
                // still take their own write fault (twin, DUQ), but find
                // their copy in place.
                let copy_run = if entry.state.rights.allows_read() {
                    0
                } else {
                    Self::claim_run(&mut dir, object, window_end)
                };
                // Write-validate: a `result` object this fault fetches and
                // the access overwrites whole is asked for without its
                // bytes, which its writer never reads ("Fl"). One with a copy
                // here already takes its twin: its diff may be far smaller.
                let (id, covered) = (object.as_u32(), self.overwrite.lock().0.clone());
                let (lo, hi) = (covered.start.max(id), covered.end.min(id + copy_run));
                let elide = if to_owner && lo < hi { lo..hi } else { 0..0 };
                Plan::Delayed {
                    copy_run,
                    owner_hint,
                    elide,
                }
            } else if entry.state.owned && entry.state.rights.allows_read() {
                // Already the owner with a (read-protected) copy: invalidate
                // the remaining replicas and upgrade in place.
                entry.state.busy = true;
                Plan::UpgradeInPlace {
                    copyset: entry.copyset.clone(),
                }
            } else {
                entry.state.busy = true;
                Plan::AcquireOwnership {
                    owner_hint: entry.probable_owner,
                }
            }
        };
        // How many entries, from `object` on, the plan marked busy.
        let busy_run = match plan {
            Plan::Delayed { copy_run, .. } => copy_run.max(1),
            _ => 1,
        };
        let result = match plan {
            Plan::Done => Ok(()),
            Plan::Error(e) => Err(e),
            Plan::Delayed {
                copy_run,
                owner_hint,
                elide,
            } => self.delayed_write_fault(object, copy_run, owner_hint, elide),
            Plan::UpgradeInPlace { copyset } => {
                let r = self.invalidate_copies(object, copyset);
                if r.is_ok() {
                    let mut dir = self.dir.lock();
                    let entry = dir.entry_mut(object);
                    self.set_entry_rights(entry, AccessRights::ReadWrite);
                    entry.state.dirty = true;
                    entry.copyset = CopySet::EMPTY;
                }
                r
            }
            Plan::AcquireOwnership { owner_hint } => {
                self.fetch_object(object, 1, FetchKind::Write, owner_hint, 0..0)
            }
        };
        // Every plan that set busy bits clears them here; clearing an entry
        // that was never marked busy is harmless.
        self.clear_busy(object, busy_run);
        result
    }

    /// Write fault on an object whose protocol allows delayed updates
    /// (write-shared, producer-consumer, result): fetch a copy if none is
    /// present (`copy_run` > 0: with the copies of the run behind it), make a
    /// twin when multiple writers are possible, enqueue the object on the
    /// DUQ, and enable writes.
    fn delayed_write_fault(
        self: &Arc<Self>,
        object: ObjectId,
        copy_run: u32,
        owner_hint: NodeId,
        elide: Range<u32>,
    ) -> Result<()> {
        if copy_run > 0 {
            self.fetch_object(object, copy_run, FetchKind::Read, owner_hint, elide)?;
        }
        let (make_twin, size) = {
            let dir = self.dir.lock();
            let entry = dir.entry(object);
            if entry.state.rights.allows_write() {
                // Fetched without its bytes: installed writable and queued.
                return Ok(());
            }
            let private = entry.state.copyset_fixed && entry.copyset.is_empty();
            (
                entry.params.allows_multiple_writers() && !private,
                entry.size,
            )
        };
        {
            // Snapshot and enqueue in one DUQ-lock scope, the one
            // `apply_update_items` holds across memory apply + twin patch: a
            // peer's update admitted just before this fault marked the entry
            // busy is either in the snapshot or finds the twin to patch.
            let mut duq = self.duq.lock();
            let twin = make_twin.then(|| {
                bump(&self.stats.twins_created);
                self.charge_sys(self.cost.copy(size as u64));
                // Reuse a pooled twin buffer instead of allocating a fresh
                // copy: flushes return their twins to the pool after encoding.
                let mut buf = duq.acquire_twin_buffer(size);
                self.read_object_into(object, &mut buf);
                buf
            });
            duq.enqueue(object, twin);
        }
        let mut dir = self.dir.lock();
        let entry = dir.entry_mut(object);
        self.set_entry_rights(entry, AccessRights::ReadWrite);
        entry.state.dirty = true;
        Ok(())
    }

    /// Sends a fetch for the `run` objects starting at `object` to
    /// `owner_hint` (the request is forwarded along the probable-owner
    /// chain) and installs the prefix of the run the reply carries. The
    /// caller holds every object of the run busy and clears them all
    /// afterwards, served or not. The objects in `elide` are asked for
    /// without their bytes, for the access overwrites them whole: each is
    /// installed writable and queued on the DUQ with no twin, so it is
    /// flushed whole — whatever image the reply has for it.
    pub(crate) fn fetch_object(
        self: &Arc<Self>,
        object: ObjectId,
        run: u32,
        access: FetchKind,
        owner_hint: NodeId,
        elide: Range<u32>,
    ) -> Result<()> {
        self.obs.record(
            self.clock.now().as_nanos(),
            crate::obs::EventKind::FetchSend,
            |ev| {
                ev.object = Some(object);
                ev.peer = Some(owner_hint);
                ev.run = Some(run);
            },
        );
        let fetch = FetchRequest {
            object,
            run,
            access,
            requester: self.node,
            phase: self.dir.lock().phase,
            elide,
        };
        self.send(owner_hint, DsmMsg::ObjectFetch(fetch.clone()))?;
        // Deaths interrupt the wait: the fetch (or its forward, or the
        // reply) may be sitting in a corpse, so any confirmed death — of
        // any peer, since the probable-owner chain is unknowable from here
        // — triggers a recovery round that re-establishes a live owner or
        // proves the object lost. Already-dead peers are signalled on the
        // first wait, covering a fetch sent straight to a corpse. Recovery
        // re-homes the faulting object; the adopter then serves the run
        // like any owner, and what it does not own of it faults again.
        let mut handled = crate::nodeset::NodeSet::EMPTY;
        let (env, reply) = loop {
            match self.wait_reply_or_dead(crate::runtime::WaitOp::Fetch(object), &mut handled) {
                Ok(reply) => break reply,
                Err(MuninError::PeerDied(dead)) => {
                    if let Some(reply) = self.refetch_orphan(&fetch, dead)? {
                        break reply;
                    }
                }
                Err(e) => return Err(e),
            }
        };
        let DsmMsg::ObjectData {
            object: got,
            data,
            ownership,
            copyset,
            writable,
        } = reply
        else {
            return Err(MuninError::ProtocolViolation(
                "expected ObjectData in reply to ObjectFetch",
            ));
        };
        if got != object {
            return Err(MuninError::ProtocolViolation("ObjectData for wrong object"));
        }
        if data.is_empty() || data.len() > run as usize || (ownership && data.len() > 1) {
            return Err(MuninError::ProtocolViolation(
                "ObjectData is not a prefix of the requested run",
            ));
        }
        // Checked before anything is installed or any right granted: an
        // image is its object's size, or empty (zero-filled).
        let size = |id| self.table.object(ObjectId::new(id)).size;
        let sized = |(id, d): (u32, &Vec<u8>)| d.is_empty() || d.len() == size(id);
        if !(object.as_u32()..).zip(&data).all(sized) {
            return Err(MuninError::ProtocolViolation(
                "ObjectData image is not the size of its object",
            ));
        }
        crate::runtime::proto_trace!(
            self,
            "installed {} object(s) from {object:?} on, from {:?} (ownership={ownership} writable={writable} arrival={}ns)",
            data.len(),
            env.src,
            env.arrival.as_nanos()
        );
        for (served, bytes) in (object.as_u32()..).map(ObjectId::new).zip(&data) {
            bump(&self.stats.objects_fetched);
            add(&self.stats.fetch_bytes, bytes.len() as u64);
            self.charge_sys(self.cost.dir_op());
            self.install_object_bytes(served, bytes);
            let elided = fetch.elide.contains(&served.as_u32());
            if elided {
                self.duq.lock().enqueue(served, None);
                self.overwrite.lock().1.push(served);
            }
            let rights = if writable || elided {
                AccessRights::ReadWrite
            } else {
                AccessRights::Read
            };
            let mut dir = self.dir.lock();
            let entry = dir.entry_mut(served);
            self.set_entry_rights(entry, rights);
            entry.state.dirty |= elided;
            entry.state.owned = ownership;
            if ownership {
                entry.copyset = copyset.clone();
                entry.probable_owner = self.node;
            } else {
                entry.probable_owner = env.src;
            }
        }
        if ownership && matches!(access, FetchKind::Write) && !copyset.is_empty() {
            // Single-writer protocols: "upon a write miss an invalidation
            // message is transmitted to all other replicas. The thread that
            // generated the miss blocks until it has the only copy."
            self.invalidate_copies(object, copyset)?;
            let mut dir = self.dir.lock();
            dir.entry_mut(object).copyset = CopySet::EMPTY;
        }
        Ok(())
    }

    /// Runs one orphan-recovery round for a fetch interrupted by the death
    /// of `dead`: broadcasts a `CopysetQuery` for the object to every
    /// surviving peer, and — if the original `ObjectData` did not surface
    /// meanwhile — directs an [`DsmMsg::Adopt`] at the lowest-id surviving
    /// holder, or raises [`MuninError::NodeDown`] when no copy survived.
    ///
    /// The reply round always completes (a peer dying mid-round counts as
    /// an empty reply), so no stray `CopysetReply` can pollute a later
    /// wait. Returns the stashed `ObjectData` reply if one arrived.
    fn refetch_orphan(
        self: &Arc<Self>,
        fetch: &FetchRequest,
        dead: NodeId,
    ) -> Result<Option<(munin_sim::Envelope, DsmMsg)>> {
        let object = fetch.object;
        crate::runtime::proto_trace!(
            self,
            "orphan recovery for {object:?} after death of {dead:?}"
        );
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
    ) -> Result<Option<(munin_sim::Envelope, DsmMsg)>> {
        let object = fetch.object;
        let mut pending: Vec<NodeId> = self.live_peers().iter().collect();
        let shared: std::sync::Arc<[ObjectId]> = std::sync::Arc::from(vec![object]);
        for peer in &pending {
            add(&self.stats.copyset_query_msgs, 1);
            self.send(
                *peer,
                DsmMsg::CopysetQuery {
                    objects: std::sync::Arc::clone(&shared),
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
            match self.wait_reply_or_dead(crate::runtime::WaitOp::Fetch(object), &mut handled) {
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
                self.dir.lock().entry_mut(object).probable_owner = adoptee;
                crate::runtime::proto_trace!(self, "asking {adoptee:?} to adopt orphan {object:?}");
                // Word of the death first, in case gossip has not reached
                // the adoptee: its recovery walk adopts every page of the
                // dead owner's it holds, so one round brings the whole run.
                self.send(adoptee, DsmMsg::PeerDown { node: dead })?;
                self.send(adoptee, DsmMsg::Adopt(fetch.clone()))?;
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
        copyset: CopySet,
    ) -> Result<()> {
        let members = copyset.members(self.nodes, Some(self.node));
        if members.is_empty() {
            return Ok(());
        }
        for m in &members {
            add(&self.stats.invalidations_sent, 1);
            self.send(
                *m,
                DsmMsg::Invalidate {
                    object,
                    requester: self.node,
                },
            )?;
        }
        let mut acked: Vec<NodeId> = Vec::new();
        let mut handled = crate::nodeset::NodeSet::EMPTY;
        while acked.len() < members.len() {
            match self
                .wait_reply_or_dead(crate::runtime::WaitOp::InvalidateAcks(object), &mut handled)
            {
                Ok((env, DsmMsg::InvalidateAck { object: o })) if o == object => {
                    if !acked.contains(&env.src) {
                        acked.push(env.src);
                    }
                }
                Ok(_) => {
                    return Err(MuninError::ProtocolViolation(
                        "unexpected reply while waiting for invalidation acks",
                    ))
                }
                Err(MuninError::PeerDied(n)) => {
                    if members.contains(&n) && !acked.contains(&n) {
                        acked.push(n);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Clears the busy bits a fault set — on `object` and the `run - 1`
    /// objects behind it, whether the reply carried them or not — and
    /// retries any requests that were deferred while the entries were in
    /// transition.
    fn clear_busy(self: &Arc<Self>, object: ObjectId, run: u32) {
        {
            let mut dir = self.dir.lock();
            for id in object.as_u32()..object.as_u32() + run {
                dir.entry_mut(ObjectId::new(id)).state.busy = false;
            }
        }
        self.note_unblocked_and_process_deferred(self.clock.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MuninConfig;
    use crate::segment::SharedDataTable;
    use munin_sim::{CostModel, Network, NodeClock};
    use std::collections::HashSet;

    fn single_node() -> Arc<NodeRuntime> {
        let mut table = SharedDataTable::new(64);
        table.declare("ro", SharingAnnotation::ReadOnly, 4, 8);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8);
        table.declare("conv", SharingAnnotation::Conventional, 4, 8);
        table.declare("red", SharingAnnotation::Reduction, 8, 1);
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
        let mut touched = HashSet::new();
        for obj in rt.table().objects() {
            touched.insert(obj.id);
        }
        rt.finish_root_init(&touched);
        rt
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
