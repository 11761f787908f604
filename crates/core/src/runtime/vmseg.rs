//! The VM-trap segment backend (`AccessMode::VmTraps`).
//!
//! In this mode a node's shared data segment lives in a
//! [`munin_vm::ProtectedRegion`] instead of a mutex-guarded `Vec<u8>`. Every
//! object occupies its own span of hardware pages (objects are page-aligned
//! so per-object directory rights can be expressed exactly as per-page
//! protections), and the directory's access rights are mirrored into page
//! protections at every rights transition: `Invalid → PROT_NONE`,
//! `Read → PROT_READ`, `ReadWrite → PROT_READ|PROT_WRITE`.
//!
//! # Layout
//!
//! Each object is laid out at a hardware-page boundary and is allotted
//! `ceil((size + 1) / hw_page)` pages. The `+ 1` guarantees at least one
//! byte of trailing slack: the *guard byte* at `region_offset + size`. Write
//! touches store to the guard byte — it shares the object's protection span
//! but never carries application data, so a touch that lands without
//! trapping (possible in the transient windows below) is harmless, and the
//! pin verification against the directory remains the single source of
//! truth. Inter-object layout therefore differs from the packed segment the
//! explicit mode uses, but *intra*-object bytes are contiguous, and every
//! path that matters (diff encode/apply, fetch serve/install, snapshots)
//! works object-at-a-time.
//!
//! # Access tiers
//!
//! * **User accesses** (the hot path): raw, lock-free copies performed by
//!   the user thread while the covered directory entries are *pinned*; the
//!   pin guarantees rights — and therefore protections — cannot change
//!   mid-copy, so these never fault.
//! * **Touches**: one volatile load (read) of the first data byte or one
//!   volatile store (write) to the guard byte per covered object, issued
//!   *before* pinning. Insufficient rights make the touch trap; the SIGSEGV
//!   handler routes the fault to the owning node's `read_fault`/`write_fault`
//!   protocol logic on the faulting (user) thread.
//! * **Privileged accesses**: everything the runtime does to segment memory
//!   that is not a user access (installing fetched data, applying diffs,
//!   serving copies of invalid objects, reductions, initialization,
//!   snapshots). These escalate the object's pages to the access they need,
//!   perform it, and restore the protection recorded in the shadow; they are
//!   serialized by one leaf mutex. A privileged escalation opens a transient
//!   window in which a touch that "should" trap does not — the pin
//!   verification turns that into a retry, never into a missed fault (see
//!   DESIGN.md "VM-trap access mode").

#[cfg(not(all(
    target_os = "linux",
    target_arch = "x86_64",
    target_pointer_width = "64"
)))]
use std::sync::Arc;

#[cfg(not(all(
    target_os = "linux",
    target_arch = "x86_64",
    target_pointer_width = "64"
)))]
use crate::object::ObjectId;
#[cfg(not(all(
    target_os = "linux",
    target_arch = "x86_64",
    target_pointer_width = "64"
)))]
use crate::segment::SharedDataTable;

#[cfg(all(
    target_os = "linux",
    target_arch = "x86_64",
    target_pointer_width = "64"
))]
mod real {
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::{Arc, Weak};

    use munin_vm::{PageRights, ProtectedRegion};
    use parking_lot::Mutex;

    use crate::directory::AccessRights;
    use crate::error::{MuninError, Result};
    use crate::object::ObjectId;
    use crate::runtime::NodeRuntime;
    use crate::segment::SharedDataTable;

    /// Per-object placement within the protected region.
    #[derive(Clone, Copy, Debug)]
    struct ObjSpan {
        /// First hardware page of the object's span.
        first_page: usize,
        /// Number of hardware pages in the span.
        page_count: usize,
        /// Byte offset of the object's data within the region.
        byte_offset: usize,
        /// Object size in bytes (the guard byte sits at `byte_offset + size`).
        size: usize,
    }

    /// Shadow protection states (mirrors `AccessRights`, stored per object).
    const SHADOW_NONE: u8 = 0;
    const SHADOW_READ: u8 = 1;
    const SHADOW_RW: u8 = 2;

    /// A node's shared segment backed by real page protections.
    pub struct VmSegment {
        region: ProtectedRegion,
        spans: Vec<ObjSpan>,
        /// Last protection synced from directory rights, per object. Used by
        /// privileged accesses to restore protection after an escalation.
        shadow: Vec<AtomicU8>,
        /// Serializes privileged escalate/access/restore sequences (and
        /// rights syncs) so concurrent privileged work cannot clobber each
        /// other's protection restores. Leaf lock: nothing else is acquired
        /// while it is held except the diff scratch (documented order).
        privileged: Mutex<()>,
    }

    impl VmSegment {
        /// Builds the region for `table`'s objects and registers a fault
        /// callback that routes traps to `runtime`'s fault protocol. All
        /// pages start inaccessible (`PROT_NONE`), matching the all-`Invalid`
        /// initial directory; `finish_root_init` raises the root's rights.
        pub fn for_runtime(
            table: &Arc<SharedDataTable>,
            runtime: Weak<NodeRuntime>,
        ) -> Result<Self> {
            let hw_page = ProtectedRegion::system_page_size();
            let mut spans = Vec::with_capacity(table.object_count());
            let mut page_cursor = 0usize;
            for obj in table.objects() {
                // `+ 1` reserves the guard byte in the trailing slack.
                let page_count = (obj.size + 1).div_ceil(hw_page);
                spans.push(ObjSpan {
                    first_page: page_cursor,
                    page_count,
                    byte_offset: page_cursor * hw_page,
                    size: obj.size,
                });
                page_cursor += page_count;
            }
            let callback: munin_vm::FaultCallback =
                Box::new(move |offset, is_write| match runtime.upgrade() {
                    Some(rt) => rt.vm_fault(offset, is_write),
                    None => false,
                });
            let region = ProtectedRegion::with_callback(page_cursor.max(1), callback)
                .map_err(|_| MuninError::VmUnavailable("protected region setup failed"))?;
            region
                .set_rights(0, region.pages(), PageRights::None)
                .map_err(|_| MuninError::VmUnavailable("initial protection failed"))?;
            Ok(VmSegment {
                region,
                shadow: (0..spans.len())
                    .map(|_| AtomicU8::new(SHADOW_NONE))
                    .collect(),
                spans,
                privileged: Mutex::new(()),
            })
        }

        fn span(&self, object: ObjectId) -> ObjSpan {
            self.spans[object.as_usize()]
        }

        /// Base pointer of an object's data within the region.
        fn obj_ptr(&self, object: ObjectId) -> *mut u8 {
            // SAFETY: the span offset lies inside the mapped region.
            unsafe { self.region.base_ptr().add(self.span(object).byte_offset) }
        }

        /// Maps a faulting region byte offset back to the object whose page
        /// span contains it.
        pub fn object_at(&self, region_offset: usize) -> Option<ObjectId> {
            let idx = self
                .spans
                .partition_point(|s| s.byte_offset <= region_offset)
                .checked_sub(1)?;
            let span = self.spans[idx];
            let hw_page = self.region.page_size();
            if region_offset < span.byte_offset + span.page_count * hw_page {
                Some(ObjectId::new(idx as u32))
            } else {
                None
            }
        }

        fn rights_to_page(rights: AccessRights) -> (PageRights, u8) {
            match rights {
                AccessRights::Invalid => (PageRights::None, SHADOW_NONE),
                AccessRights::Read => (PageRights::Read, SHADOW_READ),
                AccessRights::ReadWrite => (PageRights::ReadWrite, SHADOW_RW),
            }
        }

        /// Mirrors a directory rights change into the object's page
        /// protections, unless they were last synced to `rights` and it is not
        /// `force`d. Called from within the directory-lock scope that changes
        /// the rights, so protections never lag behind rights for its holders.
        pub fn sync_rights(&self, object: ObjectId, rights: AccessRights, force: bool) {
            let (prot, shadow) = Self::rights_to_page(rights);
            // Under the directory lock no other unforced sync races this.
            if !force && self.shadow[object.as_usize()].load(Ordering::Acquire) == shadow {
                return;
            }
            let _priv_guard = self.privileged.lock();
            let span = self.span(object);
            self.shadow[object.as_usize()].store(shadow, Ordering::Release);
            self.region
                .set_rights(span.first_page, span.page_count, prot)
                .expect("mprotect on own mapping cannot fail");
        }

        /// Loosens the object's pages to read-write *without* touching the
        /// shadow — the fault handler's error path uses this so a failed
        /// touch can complete and the user thread can observe the error; the
        /// touch wrapper re-syncs (`force`) from the directory immediately
        /// after.
        pub fn force_writable(&self, object: ObjectId) {
            let span = self.span(object);
            // A failure here would re-raise the same fault forever; the
            // panic (→ abort from signal context) is the loud alternative.
            self.region
                .set_rights(span.first_page, span.page_count, PageRights::ReadWrite)
                .expect("mprotect loosening on own mapping failed");
        }

        /// Read touch: a volatile load of the object's first data byte. Traps
        /// (and resolves via the fault protocol) when the object is invalid.
        pub fn touch_read(&self, object: ObjectId) {
            // SAFETY: in-bounds; a protection fault is resolved by the
            // registered callback before the load completes.
            unsafe { std::ptr::read_volatile(self.obj_ptr(object)) };
        }

        /// Write touch: a volatile store to the object's guard byte. Traps
        /// when the object is not writable; the stored value never matters.
        pub fn touch_write(&self, object: ObjectId) {
            let size = self.span(object).size;
            // SAFETY: the guard byte at `size` is inside the page span
            // reserved for this object; faults resolve via the callback.
            unsafe { std::ptr::write_volatile(self.obj_ptr(object).add(size), 1) };
        }

        /// Raw user-access copy out of an object. Caller must hold the pin on
        /// the object's directory entry with at least read rights.
        pub fn user_copy_out(&self, object: ObjectId, obj_off: usize, out: &mut [u8]) {
            debug_assert!(obj_off + out.len() <= self.span(object).size);
            // SAFETY: in-bounds; the pin guarantees readable protection for
            // the duration and excludes concurrent privileged writers.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.obj_ptr(object).add(obj_off),
                    out.as_mut_ptr(),
                    out.len(),
                );
            }
        }

        /// Raw user-access copy into an object. Caller must hold the pin on
        /// the object's directory entry with write rights.
        pub fn user_copy_in(&self, object: ObjectId, obj_off: usize, data: &[u8]) {
            debug_assert!(obj_off + data.len() <= self.span(object).size);
            // SAFETY: in-bounds; the pin guarantees writable protection for
            // the duration and excludes concurrent privileged access.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    data.as_ptr(),
                    self.obj_ptr(object).add(obj_off),
                    data.len(),
                );
            }
        }

        /// Privileged read view of an object's current bytes. Escalates
        /// inaccessible pages to readable for the duration and restores the
        /// shadow protection afterwards.
        pub fn with_object<R>(&self, object: ObjectId, f: impl FnOnce(&[u8]) -> R) -> R {
            let _priv_guard = self.privileged.lock();
            let span = self.span(object);
            let shadow = self.shadow[object.as_usize()].load(Ordering::Acquire);
            if shadow == SHADOW_NONE {
                self.region
                    .set_rights(span.first_page, span.page_count, PageRights::Read)
                    .expect("mprotect escalation on own mapping failed");
            }
            // SAFETY: in-bounds readable pages; the privileged mutex excludes
            // other privileged views and the protocol (pin/busy deferral)
            // excludes concurrent user writes to this object.
            let result = f(unsafe { std::slice::from_raw_parts(self.obj_ptr(object), span.size) });
            if shadow == SHADOW_NONE {
                // A silently skipped restore would leave the pages looser
                // than the directory rights — touches would stop trapping
                // and the pin loop would spin. Fail loudly instead.
                self.region
                    .set_rights(span.first_page, span.page_count, PageRights::None)
                    .expect("mprotect restore on own mapping failed");
            }
            result
        }

        /// Privileged write access to an object's bytes. Escalates the pages
        /// to read-write for the duration and restores the shadow protection
        /// afterwards.
        pub fn with_object_mut<R>(&self, object: ObjectId, f: impl FnOnce(&mut [u8]) -> R) -> R {
            let _priv_guard = self.privileged.lock();
            let span = self.span(object);
            let shadow = self.shadow[object.as_usize()].load(Ordering::Acquire);
            if shadow != SHADOW_RW {
                let _ =
                    self.region
                        .set_rights(span.first_page, span.page_count, PageRights::ReadWrite);
            }
            // SAFETY: in-bounds writable pages; the privileged mutex and the
            // protocol's pin/busy deferral exclude concurrent access.
            let result =
                f(unsafe { std::slice::from_raw_parts_mut(self.obj_ptr(object), span.size) });
            if shadow != SHADOW_RW {
                let prot = if shadow == SHADOW_READ {
                    PageRights::Read
                } else {
                    PageRights::None
                };
                let _ = self
                    .region
                    .set_rights(span.first_page, span.page_count, prot);
            }
            result
        }

        /// Cheaply verifies the trap substrate actually works in this
        /// process (handler installation and an anonymous mapping succeed),
        /// so `MuninProgram::run` can fail with a typed error *before*
        /// spawning node threads instead of panicking one mid-setup.
        pub fn preflight() -> Result<()> {
            ProtectedRegion::new(1)
                .map(|_| ())
                .map_err(|_| MuninError::VmUnavailable("trap substrate probe failed"))
        }

        /// Copies every object back into the packed (explicit-mode) segment
        /// layout — used for end-of-run snapshots.
        pub fn snapshot_packed(&self, table: &SharedDataTable) -> Vec<u8> {
            let mut out = vec![0u8; table.segment_len()];
            for obj in table.objects() {
                self.with_object(obj.id, |bytes| {
                    out[obj.segment_offset..obj.segment_offset + obj.size].copy_from_slice(bytes);
                });
            }
            out
        }
    }

    // SAFETY: the raw region pointers are only dereferenced under the
    // concurrency protocol documented on each method (pins for user
    // accesses, the privileged mutex plus busy/pin deferral for privileged
    // ones); everything else is atomics and syscalls.
    unsafe impl Send for VmSegment {}
    // SAFETY: see above.
    unsafe impl Sync for VmSegment {}
}

#[cfg(all(
    target_os = "linux",
    target_arch = "x86_64",
    target_pointer_width = "64"
))]
pub(crate) use real::VmSegment;

/// Stub for targets without the trap substrate: uninhabited, so every method
/// body is trivially unreachable and call sites need no `cfg` gates.
#[cfg(not(all(
    target_os = "linux",
    target_arch = "x86_64",
    target_pointer_width = "64"
)))]
pub(crate) enum VmSegment {}

#[cfg(not(all(
    target_os = "linux",
    target_arch = "x86_64",
    target_pointer_width = "64"
)))]
#[allow(unused_variables, unreachable_code)]
impl VmSegment {
    pub fn for_runtime(
        table: &Arc<SharedDataTable>,
        runtime: std::sync::Weak<super::NodeRuntime>,
    ) -> crate::error::Result<Self> {
        Err(crate::error::MuninError::VmUnavailable(
            "AccessMode::VmTraps requires 64-bit Linux on x86_64",
        ))
    }
    pub fn preflight() -> crate::error::Result<()> {
        Err(crate::error::MuninError::VmUnavailable(
            "AccessMode::VmTraps requires 64-bit Linux on x86_64",
        ))
    }
    pub fn object_at(&self, region_offset: usize) -> Option<ObjectId> {
        match *self {}
    }
    pub fn sync_rights(&self, o: ObjectId, rights: crate::directory::AccessRights, force: bool) {
        match *self {}
    }
    pub fn force_writable(&self, object: ObjectId) {
        match *self {}
    }
    pub fn touch_read(&self, object: ObjectId) {
        match *self {}
    }
    pub fn touch_write(&self, object: ObjectId) {
        match *self {}
    }
    pub fn user_copy_out(&self, object: ObjectId, obj_off: usize, out: &mut [u8]) {
        match *self {}
    }
    pub fn user_copy_in(&self, object: ObjectId, obj_off: usize, data: &[u8]) {
        match *self {}
    }
    pub fn with_object<R>(&self, object: ObjectId, f: impl FnOnce(&[u8]) -> R) -> R {
        match *self {}
    }
    pub fn with_object_mut<R>(&self, object: ObjectId, f: impl FnOnce(&mut [u8]) -> R) -> R {
        match *self {}
    }
    pub fn snapshot_packed(&self, table: &SharedDataTable) -> Vec<u8> {
        match *self {}
    }
}
