//! The cost model that drives virtual time.
//!
//! Every primitive the Munin prototype depends on — sending a message on the
//! 10 Mbps Ethernet, taking a user-level page fault through the V kernel,
//! copying an 8 KB object to make a twin, run-length encoding a diff — is
//! represented here as an explicit cost. The default preset
//! [`CostModel::sun_ethernet_1991`] is calibrated so that the component
//! breakdown of pushing an 8 KB object through the delayed update queue lands
//! in the low-millisecond range reported by Table 2 of the paper.

use crate::time::VirtTime;

/// Explicit costs for the simulated machine.
///
/// All values are in nanoseconds of virtual time unless stated otherwise.
/// The model is deliberately simple (fixed + linear terms); the goal is to
/// preserve the *relative* behaviour the paper reports, not to model 1991
/// hardware cycle-accurately.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed software overhead per message (send path + receive path),
    /// charged to the sender's system time at send.
    pub msg_fixed_ns: u64,
    /// Wire time per byte. 10 Mbps Ethernet moves one byte in 800 ns.
    pub wire_ns_per_byte: u64,
    /// Propagation / interrupt-dispatch delay added after the wire time.
    pub wire_prop_ns: u64,

    /// Cost to take a page/access fault and dispatch it to the user-level
    /// handler (includes resuming the faulted thread afterwards).
    pub fault_ns: u64,
    /// Cost per byte to copy an object (twin creation, a writable object's
    /// reply).
    pub copy_ns_per_byte: u64,
    /// Cost per 32-bit word to compare an object against its twin and append
    /// to the run-length encoding.
    pub encode_ns_per_word: u64,
    /// Cost per 32-bit word of *differing* data to apply at the receiver.
    pub decode_ns_per_word: u64,
    /// Fixed cost per run in the run-length encoding (encode and decode).
    pub run_overhead_ns: u64,
    /// Cost of a directory lookup / bookkeeping step in the runtime.
    pub dir_op_ns: u64,
    /// Cost of handling a synchronization message (lock forward, barrier
    /// arrival) on top of the generic message cost.
    pub sync_op_ns: u64,

    /// Cost of one abstract application operation (e.g. one integer
    /// multiply-add in Matrix Multiply, one averaging step in SOR).
    pub compute_op_ns: u64,
}

impl CostModel {
    /// Cost model approximating the paper's prototype: SUN workstations on a
    /// dedicated 10 Mbps Ethernet under a modified V kernel.
    ///
    /// Calibration notes:
    /// * 10 Mbps ⇒ 800 ns/byte; an 8 KB object needs ≈ 6.6 ms of wire time.
    /// * Kernel message overhead of ≈ 1.6 ms per message is typical of
    ///   V-kernel-era RPC on that hardware. Transmissions are modelled
    ///   per-link (no global bus reservation): contention on the dedicated
    ///   Ethernet segment is folded into the per-byte and per-message costs,
    ///   which keeps the virtual timeline independent of host scheduling.
    /// * A user-level page fault (trap, upcall, table update, resume) is
    ///   charged ≈ 1.3 ms, matching the "handle fault" row of Table 2.
    /// * Copying 8 KB ≈ 1.0 ms and comparing 2 K words ≈ 0.9 ms, again in the
    ///   range Table 2 reports for the copy and encode steps.
    /// * One application integer operation ≈ 1 µs (a few MIPS), so the
    ///   1-processor Matrix Multiply and SOR runs land in the tens-to-hundreds
    ///   of seconds like the paper's Tables 3–5.
    pub fn sun_ethernet_1991() -> Self {
        CostModel {
            msg_fixed_ns: 1_600_000,
            wire_ns_per_byte: 800,
            wire_prop_ns: 100_000,
            fault_ns: 1_300_000,
            copy_ns_per_byte: 125,
            encode_ns_per_word: 450,
            decode_ns_per_word: 400,
            run_overhead_ns: 2_000,
            dir_op_ns: 40_000,
            sync_op_ns: 150_000,
            compute_op_ns: 1_000,
        }
    }

    /// A fast, mostly-uniform cost model for unit and property tests, so that
    /// correctness tests are not dominated by simulated waiting.
    pub fn fast_test() -> Self {
        CostModel {
            msg_fixed_ns: 1_000,
            wire_ns_per_byte: 1,
            wire_prop_ns: 100,
            fault_ns: 500,
            copy_ns_per_byte: 1,
            encode_ns_per_word: 1,
            decode_ns_per_word: 1,
            run_overhead_ns: 10,
            dir_op_ns: 50,
            sync_op_ns: 100,
            compute_op_ns: 10,
        }
    }

    /// A cost model in which everything is free. Useful for pure functional
    /// tests where virtual time is irrelevant.
    pub fn zero() -> Self {
        CostModel {
            msg_fixed_ns: 0,
            wire_ns_per_byte: 0,
            wire_prop_ns: 0,
            fault_ns: 0,
            copy_ns_per_byte: 0,
            encode_ns_per_word: 0,
            decode_ns_per_word: 0,
            run_overhead_ns: 0,
            dir_op_ns: 0,
            sync_op_ns: 0,
            compute_op_ns: 0,
        }
    }

    /// Time for `bytes` of payload to cross the wire (excluding the fixed
    /// per-message software overhead).
    pub fn wire_time(&self, bytes: u64) -> VirtTime {
        VirtTime::from_nanos(bytes * self.wire_ns_per_byte + self.wire_prop_ns)
    }

    /// Fixed software cost of sending one message.
    pub fn msg_fixed(&self) -> VirtTime {
        VirtTime::from_nanos(self.msg_fixed_ns)
    }

    /// Cost of taking and dispatching an access fault.
    pub fn fault(&self) -> VirtTime {
        VirtTime::from_nanos(self.fault_ns)
    }

    /// Cost of copying `bytes` bytes (twin creation or a writable object's
    /// reply).
    pub fn copy(&self, bytes: u64) -> VirtTime {
        VirtTime::from_nanos(bytes * self.copy_ns_per_byte)
    }

    /// Cost of diffing `words` 32-bit words against a twin and encoding the
    /// result containing `runs` runs.
    pub fn encode(&self, words: u64, runs: u64) -> VirtTime {
        VirtTime::from_nanos(words * self.encode_ns_per_word + runs * self.run_overhead_ns)
    }

    /// Cost of applying an encoded diff with `diff_words` differing words in
    /// `runs` runs.
    pub fn decode(&self, diff_words: u64, runs: u64) -> VirtTime {
        VirtTime::from_nanos(diff_words * self.decode_ns_per_word + runs * self.run_overhead_ns)
    }

    /// Cost of one directory operation.
    pub fn dir_op(&self) -> VirtTime {
        VirtTime::from_nanos(self.dir_op_ns)
    }

    /// Cost of handling one synchronization operation.
    pub fn sync_op(&self) -> VirtTime {
        VirtTime::from_nanos(self.sync_op_ns)
    }

    /// Cost of `n` abstract application operations.
    pub fn compute(&self, n: u64) -> VirtTime {
        VirtTime::from_nanos(n * self.compute_op_ns)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::sun_ethernet_1991()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_matches_10mbps() {
        let cm = CostModel::sun_ethernet_1991();
        // 8 KB at 10 Mbps is about 6.6 ms; allow for the propagation term.
        let t = cm.wire_time(8192);
        assert!(t.as_millis_f64() > 6.0 && t.as_millis_f64() < 7.5, "{t:?}");
    }

    #[test]
    fn table2_component_magnitudes() {
        // Sanity-check that the DUQ component costs land in the
        // low-millisecond range of Table 2 for an 8 KB object (2048 words).
        let cm = CostModel::sun_ethernet_1991();
        assert!(cm.fault().as_millis_f64() >= 0.5 && cm.fault().as_millis_f64() <= 3.0);
        assert!(cm.copy(8192).as_millis_f64() >= 0.5 && cm.copy(8192).as_millis_f64() <= 2.0);
        assert!(cm.encode(2048, 1).as_millis_f64() <= 2.0);
        assert!(cm.decode(2048, 1).as_millis_f64() <= 2.0);
    }

    #[test]
    fn zero_model_is_free() {
        let cm = CostModel::zero();
        assert_eq!(cm.wire_time(100), VirtTime::ZERO);
        assert_eq!(cm.compute(1_000_000), VirtTime::ZERO);
        assert_eq!(cm.encode(10, 3), VirtTime::ZERO);
    }

    #[test]
    fn compute_scales_linearly() {
        let cm = CostModel::fast_test();
        assert_eq!(cm.compute(10).as_nanos(), 10 * cm.compute_op_ns);
    }

    #[test]
    fn default_is_paper_preset() {
        assert_eq!(CostModel::default(), CostModel::sun_ethernet_1991());
    }
}
