//! Seeded-schedule stress tests for the discrete-event delivery engine.
//!
//! The seed-level flake this PR resolves (`ROADMAP.md`: SOR/matmul divergence
//! under CPU oversubscription) was an ordering race between in-flight object
//! fetches and copyset determination at a flush. These tests drive the same
//! workloads across many engine seeds — including adversarial delay/reorder
//! injection — and demand bit-identical agreement with the serial reference
//! every time. No single-thread isolation is used anywhere: the whole suite
//! runs in the default parallel test harness, which is exactly the load that
//! used to trigger the race.

use std::sync::{Arc, Barrier};

use munin::apps::{matmul, sor};
use munin::sim::{Cluster, CostModel, EngineConfig, FaultPlan, NodeId, TraceEntry};
use munin::{AccessMode, MuninConfig, MuninProgram, SharingAnnotation};

/// Delay/reorder plan for the stress runs: 20% of messages get up to 20 µs of
/// extra virtual latency or jitter (large relative to the fast-test cost
/// model's ~1 µs message overhead, so orderings genuinely change).
const STRESS_FAULTS: FaultPlan = FaultPlan::jittery(200_000, 20_000);

#[test]
fn sor_agrees_with_serial_across_32_seeded_schedules() {
    let (rows, cols, iters, procs) = (20, 12, 3, 4);
    let reference = sor::serial(rows, cols, iters);
    for seed in 0..32u64 {
        let mut params = sor::SorParams::small(rows, cols, iters, procs);
        params.engine = EngineConfig::seeded(seed).with_faults(STRESS_FAULTS);
        let (_m, grid) = sor::run_munin(params, CostModel::fast_test()).unwrap();
        let max_err = grid
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_err < 1e-12,
            "SOR diverged from serial under engine seed {seed}: max error {max_err}"
        );
    }
}

#[test]
fn matmul_agrees_with_serial_across_32_seeded_schedules() {
    let n = 16;
    let reference = matmul::serial(n);
    for seed in 0..32u64 {
        let mut params = matmul::MatmulParams::small(n, 3);
        params.engine = EngineConfig::seeded(seed).with_faults(STRESS_FAULTS);
        // Half the seeds also force the single-writer invalidate protocol —
        // the other workload of the documented seed-level race.
        if seed % 2 == 1 {
            params.annotation_override = Some(SharingAnnotation::Conventional);
        }
        let (_m, c) = matmul::run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(c, reference, "matmul diverged under engine seed {seed}");
    }
}

/// Skip guard for the VM-trap subset: clean no-op off Linux/x86_64.
fn vm_available() -> bool {
    if AccessMode::vm_supported() {
        true
    } else {
        eprintln!("skipping: AccessMode::VmTraps requires 64-bit Linux on x86_64");
        false
    }
}

/// The VM-trap subset of the seeded stress matrix: the same adversarial
/// delay/reorder injection as the explicit-mode suite, with access detection
/// done by real SIGSEGV write traps. Any divergence from the serial
/// reference means the trap path broke a protocol guarantee the explicit
/// checks uphold.
#[test]
fn sor_vm_mode_agrees_with_serial_across_seeded_schedules() {
    if !vm_available() {
        return;
    }
    let (rows, cols, iters, procs) = (20, 12, 3, 4);
    let reference = sor::serial(rows, cols, iters);
    for seed in 0..8u64 {
        let mut params = sor::SorParams::small(rows, cols, iters, procs);
        params.engine = EngineConfig::seeded(seed).with_faults(STRESS_FAULTS);
        params.access_mode = AccessMode::VmTraps;
        let (_m, grid) = sor::run_munin(params, CostModel::fast_test()).unwrap();
        let max_err = grid
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_err < 1e-12,
            "VM-mode SOR diverged from serial under engine seed {seed}: max error {max_err}"
        );
    }
}

/// Matmul half of the VM-trap stress subset; odd seeds force the
/// single-writer invalidate protocol, so ownership-transferring traps get
/// adversarial schedules too.
#[test]
fn matmul_vm_mode_agrees_with_serial_across_seeded_schedules() {
    if !vm_available() {
        return;
    }
    let n = 16;
    let reference = matmul::serial(n);
    for seed in 0..8u64 {
        let mut params = matmul::MatmulParams::small(n, 3);
        params.engine = EngineConfig::seeded(seed).with_faults(STRESS_FAULTS);
        params.access_mode = AccessMode::VmTraps;
        if seed % 2 == 1 {
            params.annotation_override = Some(SharingAnnotation::Conventional);
        }
        let (_m, c) = matmul::run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(
            c, reference,
            "VM-mode matmul diverged under engine seed {seed}"
        );
    }
}

#[test]
fn lock_counter_is_exact_under_seeded_jitter() {
    // Migratory data + distributed lock under adversarial schedules: the
    // counter must be exact for every seed or a lock/ownership transfer was
    // mis-ordered.
    for seed in [3u64, 17, 40, 99] {
        let cfg = MuninConfig::fast_test(3)
            .with_engine(EngineConfig::seeded(seed).with_faults(STRESS_FAULTS));
        let mut prog = MuninProgram::new(cfg);
        let counter = prog.declare::<i64>("counter", 1, SharingAnnotation::Migratory);
        let lock = prog.create_lock("lock");
        let done = prog.create_barrier("done");
        prog.user_init(move |init| init.write(&counter, 0, 0).unwrap());
        let report = prog
            .run(move |ctx| {
                for _ in 0..4 {
                    ctx.acquire_lock(lock)?;
                    let v: i64 = ctx.read(&counter, 0)?;
                    ctx.write(&counter, 0, v + 1)?;
                    ctx.release_lock(lock)?;
                }
                ctx.wait_at_barrier(done)?;
                ctx.read(&counter, 0)
            })
            .unwrap();
        for r in &report.results {
            assert_eq!(*r.as_ref().unwrap(), 12, "lost increment under seed {seed}");
        }
    }
}

/// Runs a recv-driven round-gated all-to-all workload on a real threaded
/// cluster of `nodes` nodes and returns the delivery trace and its digest. A
/// `std` barrier gates each round so every message of a round is scheduled
/// before any node drains — delivery order is then a pure function of the
/// engine seed.
fn traced_alltoall(
    nodes: usize,
    rounds: usize,
    seed: u64,
    faults: FaultPlan,
) -> (Vec<TraceEntry>, u64) {
    let gate = Arc::new(Barrier::new(nodes));
    let cluster: Cluster<u64> = Cluster::new(nodes, CostModel::fast_test())
        .with_engine(EngineConfig::seeded(seed).with_faults(faults).with_trace());
    let report = cluster
        .run(|ctx| {
            let me = ctx.node_id().as_usize();
            for round in 0..rounds {
                for peer in 0..nodes {
                    if peer != me {
                        // Vary the modelled size so wire times (and thus the
                        // virtual-time ordering) differ per source.
                        let bytes = 64 * (1 + ((me + round) % 3) as u64);
                        ctx.sender()
                            .send(
                                NodeId::new(peer),
                                "round",
                                bytes,
                                (round * nodes + me) as u64,
                            )
                            .unwrap();
                    }
                }
                gate.wait();
                for _ in 0..nodes - 1 {
                    ctx.receiver().recv().unwrap();
                }
                gate.wait();
            }
        })
        .unwrap();
    (report.trace, report.trace_digest)
}

/// Digest of a trace's delivery *order* alone: [`trace_digest_of`] without
/// the `deliver_at` word. What a change to delivery *times* must not move.
///
/// [`trace_digest_of`]: munin::sim::trace_digest_of
fn order_digest(trace: &[TraceEntry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace {
        for word in [
            e.dst.as_usize() as u64,
            e.seq_at_dst,
            e.src.as_usize() as u64,
        ] {
            h = (h ^ word).wrapping_mul(0x1000_0000_01b3);
        }
        for b in e.class.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// What the engine guarantees about delivery times: each `(src, dst)` lane
/// is nondecreasing (links do not reorder), and within a round — every
/// message of it queued before the first receive — a destination's pops come
/// in key order. A message of the *next* round may carry an arrival below
/// the previous round's last delivery (its sender finished that round
/// earlier); it is delivered at that arrival, not lifted to the
/// destination's high-water mark.
fn assert_delivery_time_guarantees(trace: &[TraceEntry], nodes: usize) {
    let per_round = (nodes - 1) as u64;
    let mut lane_last = std::collections::HashMap::new();
    for pair in trace.windows(2) {
        if pair[0].dst == pair[1].dst {
            assert!(pair[0].seq_at_dst < pair[1].seq_at_dst);
            if pair[0].seq_at_dst / per_round == pair[1].seq_at_dst / per_round {
                assert!(pair[0].deliver_at <= pair[1].deliver_at);
            }
        }
    }
    for e in trace {
        let last = lane_last.entry((e.src, e.dst)).or_insert(e.deliver_at);
        assert!(
            *last <= e.deliver_at,
            "lane {:?}->{:?} reordered",
            e.src,
            e.dst
        );
        *last = e.deliver_at;
    }
}

/// The 4-node, 5-round shape the original (pre-shard) replay tests used.
fn traced_round_trip(seed: u64, faults: FaultPlan) -> (Vec<TraceEntry>, u64) {
    traced_alltoall(4, 5, seed, faults)
}

#[test]
fn fixed_seed_replays_byte_identical_delivery_trace() {
    let faults = FaultPlan::jittery(300_000, 5_000);
    let (trace_a, digest_a) = traced_round_trip(42, faults);
    let (trace_b, digest_b) = traced_round_trip(42, faults);
    assert_eq!(trace_a, trace_b, "same seed must replay the same schedule");
    assert_eq!(digest_a, digest_b);
    assert_eq!(trace_a.len(), 4 * 3 * 5);
    assert_delivery_time_guarantees(&trace_a, 4);
}

/// Trace digests for fixed schedules of the `traced_alltoall` workload
/// above. Each entry is `(nodes, rounds, seed, jitter_ppm, window_ns,
/// digest, order_digest)`.
///
/// `order_digest` (who was delivered where, in which order — see
/// [`order_digest`]) was captured from the engine *with* the per-destination
/// frontier clamp, and is identical to the pre-shard engine's (single global
/// `Mutex<EngineState>`, commit 6642519): neither the lock-domain refactor
/// nor the removal of the clamp changed a delivery decision. The full
/// `digest` also covers delivery times. Three of the five are still the
/// pre-shard values; the two 4-node jittered schedules were re-recorded when
/// the clamp went, because they are the ones that clamped: 2 and 4 of their
/// 60 deliveries were lifted to the destination's frontier and are now
/// delivered at their own arrival (was `0xeca276dab35382ca` and
/// `0x353ef95aa8871243`).
const GOLDEN_DIGESTS: &[(usize, usize, u64, u32, u64, u64, u64)] = &[
    (
        4,
        5,
        42,
        300_000,
        5_000,
        0xf8bdbe053217010a,
        0xa6f41fbcc24bba19,
    ),
    (
        4,
        5,
        7,
        300_000,
        5_000,
        0x09608432abdd16db,
        0x5062c982aab954f9,
    ),
    (4, 5, 1, 0, 0, 0x9a0cb692375090cb, 0xb7d83c68fe358595),
    (
        16,
        3,
        42,
        300_000,
        5_000,
        0x3a1a40c707d940db,
        0xb885e33f7027945d,
    ),
    (16, 3, 9, 0, 0, 0x42702d6b4a74806d, 0x1f6cad000c65c029),
];

#[test]
fn sharded_engine_matches_pre_shard_golden_digests() {
    for &(nodes, rounds, seed, ppm, window, want, want_order) in GOLDEN_DIGESTS {
        let faults = if ppm == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::jittery(ppm, window)
        };
        let (trace, digest) = traced_alltoall(nodes, rounds, seed, faults);
        let order = order_digest(&trace);
        assert_eq!(
            order, want_order,
            "delivery order drift vs pre-shard engine: nodes={nodes} rounds={rounds} \
             seed={seed} faults=({ppm}ppm,{window}ns) — got {order:#018x}, want {want_order:#018x}"
        );
        assert_eq!(
            digest, want,
            "delivery time drift: nodes={nodes} rounds={rounds} seed={seed} \
             faults=({ppm}ppm,{window}ns) — got {digest:#018x}, want {want:#018x}"
        );
    }
}

/// 16-node stress: the all-to-all schedule replays byte-identically under
/// jitter, per-destination sequences stay monotone, and SOR at 16 workers
/// agrees with the serial reference (the scale ROADMAP said the global lock
/// would start to bite at).
#[test]
fn sixteen_node_alltoall_replays_byte_identical() {
    let faults = FaultPlan::jittery(300_000, 5_000);
    let (trace_a, digest_a) = traced_alltoall(16, 3, 42, faults);
    let (trace_b, digest_b) = traced_alltoall(16, 3, 42, faults);
    assert_eq!(trace_a, trace_b, "same seed must replay the same schedule");
    assert_eq!(digest_a, digest_b);
    assert_eq!(trace_a.len(), 16 * 15 * 3);
    assert_delivery_time_guarantees(&trace_a, 16);
}

#[test]
fn sixteen_node_sor_agrees_with_serial() {
    let (rows, cols, iters, procs) = (32, 8, 2, 16);
    let reference = sor::serial(rows, cols, iters);
    for seed in [5u64, 23] {
        let mut params = sor::SorParams::small(rows, cols, iters, procs);
        params.engine = EngineConfig::seeded(seed).with_faults(STRESS_FAULTS);
        let (_m, grid) = sor::run_munin(params, CostModel::fast_test()).unwrap();
        let max_err = grid
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_err < 1e-12,
            "16-node SOR diverged from serial under engine seed {seed}: max error {max_err}"
        );
    }
}

/// Regression test for the two late-fetch protocol windows (a replica
/// fetched *after* a flusher's copyset query was answered used to silently
/// miss that flush's update — now every flush's receivers come from the
/// owner's copyset, which records each replica it serves — and an update
/// arriving *while* the fetch is in flight used to be discarded — now
/// deferred). Both only fire under host CPU oversubscription, so this
/// test supplies its own background load. The geometry (one 512-byte page
/// spans four workers' sections) is the many-writers-per-page shape that
/// triggers them.
#[test]
fn sixteen_node_sor_exact_under_host_oversubscription() {
    sixteen_node_sor_oversubscribed(AccessMode::Explicit);
}

/// The VM-trap variant of the oversubscription regression: 16 nodes means 16
/// protected regions with concurrent trap traffic while the host is
/// deliberately starved — the harshest schedule for the touch/verify/pin
/// protocol. Gated to Linux/x86_64 with a clean skip elsewhere.
#[test]
fn sixteen_node_sor_vm_mode_exact_under_host_oversubscription() {
    if !vm_available() {
        return;
    }
    sixteen_node_sor_oversubscribed(AccessMode::VmTraps);
}

fn sixteen_node_sor_oversubscribed(access_mode: AccessMode) {
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let spinners: Vec<_> = (0..16)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    std::hint::black_box(x);
                }
            })
        })
        .collect();
    let (rows, cols, iters, procs) = (32, 8, 2, 16);
    let reference = sor::serial(rows, cols, iters);
    // Collect the first divergence instead of asserting inside the loop: a
    // panic here would unwind past the stop/join below and leave 16 spinning
    // threads oversubscribing every remaining test in this binary.
    let mut failure: Option<String> = None;
    for attempt in 0..10u64 {
        let seed = 5 + (attempt % 2) * 18;
        let mut params = sor::SorParams::small(rows, cols, iters, procs);
        params.engine = EngineConfig::seeded(seed).with_faults(STRESS_FAULTS);
        params.access_mode = access_mode;
        let (_m, grid) = sor::run_munin(params, CostModel::fast_test()).unwrap();
        let max_err = grid
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        if max_err >= 1e-12 {
            failure = Some(format!(
                "16-node SOR diverged under oversubscription (attempt {attempt}, seed {seed}): \
                 max error {max_err}"
            ));
            break;
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for s in spinners {
        let _ = s.join();
    }
    if let Some(msg) = failure {
        panic!("{msg}");
    }
}

#[test]
fn different_seeds_schedule_differently() {
    let faults = FaultPlan::jittery(300_000, 5_000);
    let (_, d1) = traced_round_trip(1, faults);
    let (_, d2) = traced_round_trip(2, faults);
    assert_ne!(
        d1, d2,
        "seeds must steer the schedule (jitter and tie-breaks)"
    );
}

/// Regenerates the `GOLDEN_DIGESTS` table (run with
/// `cargo test --test stress_schedules capture_golden_digests -- --ignored
/// --nocapture`). Only meaningful to re-capture if the engine's delivery
/// *semantics* change deliberately; a lock-structure refactor must NOT move
/// these values, and nothing should move the order column.
#[test]
#[ignore]
fn capture_golden_digests() {
    for (nodes, rounds, seed, ppm, window) in [
        (4usize, 5usize, 42u64, 300_000u32, 5_000u64),
        (4, 5, 7, 300_000, 5_000),
        (4, 5, 1, 0, 0),
        (16, 3, 42, 300_000, 5_000),
        (16, 3, 9, 0, 0),
    ] {
        let faults = if ppm == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::jittery(ppm, window)
        };
        let (trace, d) = traced_alltoall(nodes, rounds, seed, faults);
        let order = order_digest(&trace);
        println!("    ({nodes}, {rounds}, {seed}, {ppm}, {window}, {d:#018x}, {order:#018x}),");
    }
}
