//! Minimal, API-compatible `libc` shim for the symbols `munin-vm` uses on
//! Linux (glibc): `mmap`/`munmap`/`mprotect`, `sigaction`/`signal`,
//! `sysconf`, and `__errno_location` — plus `clock_gettime`, which the
//! `munin-core` flight recorder uses for cheap coarse wall timestamps.
//!
//! The build environment has no access to crates.io, so the real `libc`
//! crate cannot be vendored. The declarations below bind directly to the C
//! library that the Rust standard library already links. Struct layouts
//! (`sigaction`, `siginfo_t`, `sigset_t`) match glibc on 64-bit Linux
//! (x86_64 and aarch64 share these layouts).

#![allow(non_camel_case_types)]
#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use core::ffi::c_void as core_c_void;

/// C `int`.
pub type c_int = i32;
/// C `long`.
pub type c_long = i64;
/// C `unsigned long`.
pub type c_ulong = u64;
/// C `size_t`.
pub type size_t = usize;
/// C `off_t` (64-bit Linux).
pub type off_t = i64;
/// C `void` for FFI pointers.
pub type c_void = core_c_void;
/// Signal handler slot: a function address or `SIG_DFL`/`SIG_IGN`.
pub type sighandler_t = size_t;

/// Default signal disposition.
pub const SIG_DFL: sighandler_t = 0;
/// Ignore-the-signal disposition.
pub const SIG_IGN: sighandler_t = 1;

/// Pages may not be accessed at all.
pub const PROT_NONE: c_int = 0;
/// Pages may be read.
pub const PROT_READ: c_int = 1;
/// Pages may be written.
pub const PROT_WRITE: c_int = 2;

/// Private copy-on-write mapping.
pub const MAP_PRIVATE: c_int = 0x0002;
/// Mapping not backed by a file.
pub const MAP_ANONYMOUS: c_int = 0x0020;
/// Error return of `mmap`.
pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;

/// Invalid memory reference signal.
pub const SIGSEGV: c_int = 11;
/// `sa_sigaction` (three-argument) handler requested.
pub const SA_SIGINFO: c_int = 4;
/// Do not block the signal while its handler runs.
pub const SA_NODEFER: c_int = 0x4000_0000;

/// `sysconf` selector for the system page size.
pub const _SC_PAGESIZE: c_int = 30;

/// C `time_t` (64-bit Linux).
pub type time_t = i64;
/// `clockid_t` for `clock_gettime`.
pub type clockid_t = c_int;

/// Monotonic clock read from the vDSO without a timer query: a few ns per
/// read, tick-resolution (typically 1–4 ms) values.
pub const CLOCK_MONOTONIC_COARSE: clockid_t = 6;

/// `struct timespec` (64-bit Linux layout).
#[repr(C)]
#[derive(Clone, Copy, Default)]
pub struct timespec {
    /// Whole seconds.
    pub tv_sec: time_t,
    /// Nanoseconds, `0..1_000_000_000`.
    pub tv_nsec: c_long,
}

/// glibc signal set: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sigset_t {
    __val: [c_ulong; 16],
}

/// glibc `struct sigaction` (64-bit Linux layout).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sigaction {
    /// Handler address (`sa_handler` / `sa_sigaction` union).
    pub sa_sigaction: sighandler_t,
    /// Signals blocked while the handler runs.
    pub sa_mask: sigset_t,
    /// `SA_*` flags.
    pub sa_flags: c_int,
    /// Obsolete restorer field (kept for layout compatibility).
    pub sa_restorer: Option<unsafe extern "C" fn()>,
}

/// glibc `siginfo_t`: 128 bytes; only the fields munin-vm reads are typed.
#[repr(C)]
pub struct siginfo_t {
    /// Signal number.
    pub si_signo: c_int,
    /// Errno association.
    pub si_errno: c_int,
    /// Signal code.
    pub si_code: c_int,
    _align: [u64; 0],
    _si_addr: *mut c_void,
    _pad: [u8; 128 - 3 * 4 - 4 - 8],
}

impl siginfo_t {
    /// The faulting address, valid for memory-fault signals like `SIGSEGV`.
    ///
    /// # Safety
    ///
    /// Only meaningful when the kernel delivered this `siginfo_t` for a
    /// signal whose union arm carries an address (e.g. `SIGSEGV`).
    pub unsafe fn si_addr(&self) -> *mut c_void {
        self._si_addr
    }
}

extern "C" {
    /// See `mmap(2)`.
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    /// See `munmap(2)`.
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    /// See `mprotect(2)`.
    pub fn mprotect(addr: *mut c_void, len: size_t, prot: c_int) -> c_int;
    /// See `sigaction(2)`.
    pub fn sigaction(signum: c_int, act: *const sigaction, oldact: *mut sigaction) -> c_int;
    /// See `sigemptyset(3)`.
    pub fn sigemptyset(set: *mut sigset_t) -> c_int;
    /// See `signal(2)`.
    pub fn signal(signum: c_int, handler: sighandler_t) -> sighandler_t;
    /// See `sysconf(3)`.
    pub fn sysconf(name: c_int) -> c_long;
    /// glibc's thread-local errno accessor.
    pub fn __errno_location() -> *mut c_int;
    /// See `clock_gettime(2)`.
    pub fn clock_gettime(clockid: clockid_t, tp: *mut timespec) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fine-grained monotonic clock, to compare the coarse one against.
    const CLOCK_MONOTONIC: clockid_t = 1;

    #[test]
    fn struct_sizes_match_glibc() {
        assert_eq!(std::mem::size_of::<sigset_t>(), 128);
        assert_eq!(std::mem::size_of::<siginfo_t>(), 128);
        // glibc sigaction on 64-bit Linux: 8 (handler) + 128 (mask) + 4
        // (flags) + padding + 8 (restorer) = 152.
        assert_eq!(std::mem::size_of::<sigaction>(), 152);
        // si_addr sits at offset 16 (after three ints and union padding).
        assert_eq!(std::mem::offset_of!(siginfo_t, _si_addr), 16);
    }

    #[test]
    fn coarse_clock_advances_and_stays_behind_fine_clock() {
        unsafe {
            let mut coarse = timespec::default();
            let mut fine = timespec::default();
            assert_eq!(clock_gettime(CLOCK_MONOTONIC_COARSE, &mut coarse), 0);
            assert_eq!(clock_gettime(CLOCK_MONOTONIC, &mut fine), 0);
            let ns = |t: timespec| t.tv_sec as i128 * 1_000_000_000 + t.tv_nsec as i128;
            assert!(ns(coarse) > 0);
            // The coarse clock lags by at most one tick; it never runs ahead.
            assert!(ns(coarse) <= ns(fine));
        }
    }

    #[test]
    fn sysconf_page_size_is_sane() {
        let ps = unsafe { sysconf(_SC_PAGESIZE) };
        assert!(ps >= 4096);
        assert_eq!(ps & (ps - 1), 0, "page size is a power of two");
    }

    #[test]
    fn mmap_mprotect_munmap_round_trip() {
        unsafe {
            let len = 4096usize;
            let p = mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(p, MAP_FAILED);
            std::ptr::write_volatile(p as *mut u8, 7);
            assert_eq!(mprotect(p, len, PROT_READ), 0);
            assert_eq!(std::ptr::read_volatile(p as *const u8), 7);
            assert_eq!(mprotect(p, len, PROT_READ | PROT_WRITE), 0);
            assert_eq!(munmap(p, len), 0);
        }
    }
}
