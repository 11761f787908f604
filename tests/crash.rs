//! Crash-fault chaos suite: seeded node-crash injection against the full DSM
//! runtime.
//!
//! The contract under test (`DESIGN.md`, "Crash-fault tolerance"): every run
//! with an injected crash *terminates* — either it completes and the
//! surviving results are exactly the serial reference, or it fails fast with
//! a structured [`MuninError::NodeDown`] — and a crash plan that never
//! triggers leaves the delivery schedule byte-identical to no plan at all.
//! Zero hangs, zero watchdog stalls, no third outcome.
//!
//! Like `tests/stress_schedules.rs`, the suite deliberately runs in the
//! default parallel test harness: host-scheduling noise changes wall-clock
//! interleavings, and the outcome contract must hold under all of them.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use munin::apps::{matmul, sor};
use munin::sim::{
    Cluster, CostModel, CrashSpec, CrashTrigger, EngineConfig, FaultPlan, NodeId, TraceEntry,
};
use munin::{MuninConfig, MuninError, MuninProgram, SharingAnnotation};

/// Failure-detection window for the chaos runs: small enough that degraded
/// runs confirm deaths in well under a second, large enough that a busy
/// parallel test harness cannot starve a *live* peer into a false positive
/// (heartbeats go out every `DETECT/4` = 75 ms).
const DETECT: Duration = Duration::from_millis(300);

/// Retransmit pacing for the auto-enabled reliability layer, dropped from
/// the default so freeze-window gaps are re-covered quickly.
const PACING: Duration = Duration::from_millis(1);

/// Stall watchdog: in this suite a watchdog stall is always a bug (the
/// failure detector must resolve every crash-induced wait first), so the
/// window only bounds how long a regression takes to fail.
const WATCHDOG: Duration = Duration::from_secs(25);

/// Wall-clock ceiling for one degraded run. Far above the expected cost of a
/// handful of sequential 300 ms detection waits, but below `WATCHDOG`: a run
/// that overruns this either wedged outright or is crawling through
/// stall-recovery paths it should never enter.
const RUN_WALL_CEILING: Duration = Duration::from_secs(20);

/// A permanent crash of `node` at `trigger`.
fn crash(node: usize, trigger: CrashTrigger) -> FaultPlan {
    FaultPlan::none().with_crash(CrashSpec {
        node,
        trigger,
        until_ns: 0,
    })
}

/// The sweep victim for a seed: never node 0 — the root homes every object,
/// lock, and barrier, so killing it loses the run by construction and
/// exercises only the fail-fast path. Roadmap-level root fail-over is out of
/// scope for this layer.
fn victim(nodes: usize, seed: u64) -> usize {
    1 + (seed as usize) % (nodes - 1)
}

/// Runs 8- or 16-node SOR with one injected crash and asserts the
/// terminate-correct-or-fail-fast contract.
fn sor_crash_case(nodes: usize, seed: u64, trigger: CrashTrigger) {
    let (rows, cols, iters) = (20, 12, 3);
    let reference = sor::serial(rows, cols, iters);
    let mut params = sor::SorParams::small(rows, cols, iters, nodes);
    params.engine = EngineConfig::seeded(seed).with_faults(crash(victim(nodes, seed), trigger));
    params.detect = Some(DETECT);
    params.retransmit_pacing = Some(PACING);
    params.watchdog = Some(WATCHDOG);
    let start = Instant::now();
    let outcome = sor::run_munin(params, CostModel::fast_test());
    let wall = start.elapsed();
    assert!(
        wall < RUN_WALL_CEILING,
        "SOR nodes={nodes} seed={seed} {trigger:?}: run took {wall:?} — \
         crash-induced waits must resolve via detection, not crawl"
    );
    match outcome {
        Ok((_m, grid)) => {
            // A fully-Ok run means every node — the victim included — got
            // through the whole protocol (shutdown handshake and all) before
            // its crash point, so no data was lost: results must be exact.
            let max_err = grid
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                max_err < 1e-12,
                "SOR nodes={nodes} seed={seed} {trigger:?}: run completed but \
                 diverged from serial (max error {max_err})"
            );
        }
        Err(MuninError::NodeDown { node, .. }) => {
            assert!(
                node.as_usize() < nodes,
                "NodeDown blames nonexistent node {node}"
            );
        }
        Err(other) => panic!(
            "SOR nodes={nodes} seed={seed} {trigger:?}: expected completion or \
             NodeDown, got {other:?}"
        ),
    }
}

/// Matmul variant of [`sor_crash_case`].
fn matmul_crash_case(nodes: usize, seed: u64, trigger: CrashTrigger) {
    let n = 16;
    let reference = matmul::serial(n);
    let mut params = matmul::MatmulParams::small(n, nodes);
    params.engine = EngineConfig::seeded(seed).with_faults(crash(victim(nodes, seed), trigger));
    params.detect = Some(DETECT);
    params.retransmit_pacing = Some(PACING);
    params.watchdog = Some(WATCHDOG);
    let start = Instant::now();
    let outcome = matmul::run_munin(params, CostModel::fast_test());
    let wall = start.elapsed();
    assert!(
        wall < RUN_WALL_CEILING,
        "matmul nodes={nodes} seed={seed} {trigger:?}: run took {wall:?}"
    );
    match outcome {
        Ok((_m, c)) => assert_eq!(
            c, reference,
            "matmul nodes={nodes} seed={seed} {trigger:?}: run completed but \
             diverged from serial"
        ),
        Err(MuninError::NodeDown { node, .. }) => {
            assert!(node.as_usize() < nodes);
        }
        Err(other) => panic!(
            "matmul nodes={nodes} seed={seed} {trigger:?}: expected completion \
             or NodeDown, got {other:?}"
        ),
    }
}

#[test]
fn sor_crash_sweep_8_nodes() {
    for seed in [1u64, 2, 3] {
        // 600 µs virtual lands mid-protocol for this instance; delivery #40
        // lands mid-startup. Both must yield a terminating outcome.
        sor_crash_case(8, seed, CrashTrigger::VirtTime(600_000));
        sor_crash_case(8, seed, CrashTrigger::MsgCount(40));
    }
}

#[test]
fn matmul_crash_sweep_8_nodes() {
    for seed in [1u64, 2, 3] {
        matmul_crash_case(8, seed, CrashTrigger::VirtTime(400_000));
        matmul_crash_case(8, seed, CrashTrigger::MsgCount(60));
    }
}

#[test]
fn sor_crash_sweep_16_nodes() {
    for seed in [5u64, 9] {
        sor_crash_case(16, seed, CrashTrigger::VirtTime(700_000));
    }
    sor_crash_case(16, 12, CrashTrigger::MsgCount(80));
}

#[test]
fn matmul_crash_sweep_16_nodes() {
    for seed in [4u64, 11] {
        matmul_crash_case(16, seed, CrashTrigger::MsgCount(100));
    }
    matmul_crash_case(16, 6, CrashTrigger::VirtTime(500_000));
}

/// Replicated data survives its owner's death: node 2 produces a value whose
/// updates reach replicas before the crash, so after detection the directory
/// re-homes the object to the lowest-id surviving holder and every survivor
/// still reads the produced value. The victim's own result is the structured
/// `NodeDown` it hits once the cluster stops talking to it.
#[test]
fn replicated_value_survives_owner_crash() {
    let victim = 2usize;
    // 5 ms virtual: far past the µs-scale produce/replicate phase, inside
    // the 10 ms compute stretch below.
    let faults = crash(victim, CrashTrigger::VirtTime(5_000_000));
    let cfg = MuninConfig::fast_test(4)
        .with_engine(EngineConfig::seeded(7).with_faults(faults))
        .with_detect(DETECT)
        .with_retransmit_pacing(PACING)
        .with_watchdog(WATCHDOG);
    let mut prog = MuninProgram::new(cfg);
    let value = prog.declare::<i64>("value", 1, SharingAnnotation::ProducerConsumer);
    let produced = prog.create_barrier("produced");
    let replicated = prog.create_barrier("replicated");
    prog.user_init(move |init| init.write(&value, 0, 0).unwrap());
    let start = Instant::now();
    let report = prog
        .run(move |ctx| {
            let me = ctx.node_id();
            if me == victim {
                ctx.write(&value, 0, 42)?;
            }
            ctx.wait_at_barrier(produced)?;
            if me != victim {
                // Pull a replica while the producer is still alive.
                let got: i64 = ctx.read(&value, 0)?;
                if got != 42 {
                    return Err(MuninError::ProtocolViolation(
                        "replica read stale value before the crash",
                    ));
                }
            }
            ctx.wait_at_barrier(replicated)?;
            // Carry virtual time across the 5 ms crash point (timers never
            // advance clocks, so only compute/traffic moves virtual time).
            ctx.compute(1_000_000); // 10 ms at 10 ns/op
            ctx.read(&value, 0)
        })
        .unwrap();
    let wall = start.elapsed();
    assert!(wall < RUN_WALL_CEILING, "recovery run took {wall:?}");

    for (node, result) in report.results.iter().enumerate() {
        if node == victim {
            assert!(
                matches!(result, Err(MuninError::NodeDown { .. })),
                "victim must fail fast once isolated, got {result:?}"
            );
        } else {
            assert_eq!(
                *result.as_ref().unwrap_or_else(|e| panic!(
                    "survivor {node} must recover the replicated value, got {e:?}"
                )),
                42,
                "survivor {node} read the wrong value after recovery"
            );
        }
    }
    let stats = report.stats_total();
    assert!(stats.peers_dead >= 1, "no node confirmed the death");
    assert!(
        stats.objects_rehomed >= 1,
        "directory never re-homed the dead owner's object"
    );
    assert_eq!(
        stats.watchdog_stalls, 0,
        "detection must resolve every wait before the watchdog"
    );
}

/// Sole-copy loss fails fast: a Migratory object's only copy dies with its
/// owner, so the next access reports `NodeDown` naming the dead node and the
/// lost object — within a small multiple of the detection window, not after
/// a watchdog timeout.
#[test]
fn sole_copy_loss_fails_fast_with_lost_objects() {
    let victim = 2usize;
    let faults = crash(victim, CrashTrigger::VirtTime(5_000_000));
    let cfg = MuninConfig::fast_test(4)
        .with_engine(EngineConfig::seeded(13).with_faults(faults))
        .with_detect(DETECT)
        .with_retransmit_pacing(PACING)
        .with_watchdog(WATCHDOG);
    let mut prog = MuninProgram::new(cfg);
    let value = prog.declare::<i64>("sole", 1, SharingAnnotation::Migratory);
    let taken = prog.create_barrier("taken");
    prog.user_init(move |init| init.write(&value, 0, 0).unwrap());
    let start = Instant::now();
    let report = prog
        .run(move |ctx| {
            let me = ctx.node_id();
            if me == victim {
                // Migratory write: the single copy migrates to the victim
                // and every other copy is invalidated.
                ctx.write(&value, 0, 7)?;
            }
            ctx.wait_at_barrier(taken)?;
            ctx.compute(1_000_000); // cross the 5 ms crash point
            if me == 0 {
                // The only copy died with the victim: this access must
                // surface the loss, not hang.
                ctx.read(&value, 0)?;
            }
            Ok(0i64)
        })
        .unwrap();
    let wall = start.elapsed();
    // Fail-fast bound: one detection window to confirm the death plus the
    // victim's own (concurrent) shutdown detection, with scheduling slack
    // for a loaded test harness — nowhere near the 25 s watchdog.
    assert!(
        wall < 2 * DETECT + Duration::from_secs(2),
        "sole-copy loss took {wall:?} to surface; want ~2x the {DETECT:?} \
         detection window"
    );
    match &report.results[0] {
        Err(MuninError::NodeDown { node, lost_objects }) => {
            assert_eq!(node.as_usize(), victim, "NodeDown blames wrong node");
            assert!(
                !lost_objects.is_empty(),
                "sole-copy loss must name the lost object"
            );
        }
        other => panic!("node 0 must observe NodeDown with lost objects, got {other:?}"),
    }
    assert_eq!(report.stats_total().watchdog_stalls, 0);
}

/// The owner of a run of pages dies with the fetch for them in flight. The
/// victim first-touches six `write_shared` pages (so it owns them); node 3
/// reads all six as one slice — one run request — after a compute stretch
/// that ends around the crash point. The crash time is swept across that
/// point, so the request meets a corpse, or is served by an owner whose reply
/// dies with it, or gets through. With a replica on node 1 the reader must
/// get the right data every time — by adoption, the whole run in the one
/// recovery round, since the adopter's own recovery walk took over every page
/// of the dead owner's it holds; without one it gets the right data or a
/// `NodeDown` naming the victim and the first lost page. Never a stall.
#[test]
fn run_fetch_from_a_dying_owner_recovers_or_fails_fast() {
    const PAGES: usize = 6;
    let (victim, replica, reader) = (2usize, 1usize, 3usize);
    // 10 ms of compute at 10 ns/op, from a barrier a few µs into the run.
    let case = |replicated: bool, crash_at_ns: u64| {
        let faults = crash(victim, CrashTrigger::VirtTime(crash_at_ns));
        let cfg = MuninConfig::fast_test(4)
            .with_engine(EngineConfig::seeded(7).with_faults(faults))
            .with_detect(DETECT)
            .with_retransmit_pacing(PACING)
            .with_watchdog(WATCHDOG);
        let per_page = cfg.page_size / 8;
        let words = PAGES * per_page;
        let mut prog = MuninProgram::new(cfg);
        let table = prog.declare::<i64>("table", words, SharingAnnotation::WriteShared);
        let owned = prog.create_barrier("owned");
        let replicated_at = prog.create_barrier("replicated");
        let start = Instant::now();
        let report = prog
            .run(move |ctx| {
                let me = ctx.node_id();
                if me == victim {
                    let fill: Vec<i64> = (0..words as i64).collect();
                    ctx.write_slice(&table, 0, &fill)?;
                }
                ctx.wait_at_barrier(owned)?;
                if replicated && me == replica {
                    ctx.pre_acquire(&table, 0, words)?;
                }
                ctx.wait_at_barrier(replicated_at)?;
                ctx.compute(1_000_000);
                if me == reader {
                    return Ok(ctx.read_slice(&table, 0, words)?.iter().sum());
                }
                Ok(0i64)
            })
            .unwrap();
        let wall = start.elapsed();
        let what = format!("replicated={replicated} crash at {crash_at_ns} ns");
        assert!(wall < RUN_WALL_CEILING, "{what}: took {wall:?}");
        assert_eq!(report.stats_total().watchdog_stalls, 0, "{what}");
        let expected: i64 = (0..words as i64).sum();
        match &report.results[reader] {
            Ok(sum) => assert_eq!(*sum, expected, "{what}: wrong data"),
            Err(MuninError::NodeDown { node, lost_objects }) if !replicated => {
                assert_eq!(
                    node.as_usize(),
                    victim,
                    "{what}: NodeDown blames wrong node"
                );
                assert_eq!(lost_objects.len(), 1, "{what}: recovery is per page");
            }
            other => panic!("{what}: reader got {other:?}"),
        }
        for bystander in [0, replica] {
            assert_eq!(report.results[bystander], Ok(0), "{what}");
        }
        // The reader writes nothing, so every copyset query of its own is
        // recovery: one round — a query to each of its two live peers — for
        // the six pages, not one per page.
        let queries = report.stats[reader].copyset_query_msgs;
        assert!(queries <= 2, "{what}: {queries} recovery queries");
    };
    // The readers' compute ends ≈ 10.01 ms in; a request takes ≈ 1.2 µs to
    // reach the owner and six pages ≈ 0.7 µs to serve.
    for crash_at_ns in [5_000_000, 10_022_500, 10_023_200, 10_030_000] {
        case(true, crash_at_ns);
    }
    case(false, 5_000_000);
}

/// A first touch whose home dies around the serve. Node 1 is the first to
/// write a page nobody has written; the root — home and initial owner of
/// every page — hands it over as a description ("all zeros"), not as bytes,
/// and is killed at a time swept across the request's arrival, the serve and
/// the reply's departure. The toucher must read back exactly what it wrote on
/// top of zeros, or fail with `NodeDown`: never a stall, never a page that
/// kept stale bytes because its image went missing.
#[test]
fn first_touch_from_a_dying_home_is_right_or_fails_fast() {
    let toucher = 1usize;
    let case = |crash_at_ns: u64| {
        let faults = crash(0, CrashTrigger::VirtTime(crash_at_ns));
        let cfg = MuninConfig::fast_test(3)
            .with_engine(EngineConfig::seeded(7).with_faults(faults))
            .with_detect(DETECT)
            .with_retransmit_pacing(PACING)
            .with_watchdog(WATCHDOG);
        let words = cfg.page_size / 8;
        let mut prog = MuninProgram::new(cfg);
        let page = prog.declare::<i64>("page", words, SharingAnnotation::WriteShared);
        let start = Instant::now();
        let report = prog
            .run(move |ctx| {
                if ctx.node_id() != toucher {
                    return Ok(0i64);
                }
                ctx.compute(1_000_000); // 10 ms at 10 ns/op
                ctx.write(&page, 1, 7)?;
                Ok(ctx.read_slice(&page, 0, words)?.iter().sum())
            })
            .unwrap();
        let wall = start.elapsed();
        let what = format!("root crash at {crash_at_ns} ns");
        assert!(wall < RUN_WALL_CEILING, "{what}: took {wall:?}");
        assert_eq!(report.stats_total().watchdog_stalls, 0, "{what}");
        match &report.results[toucher] {
            Ok(sum) => assert_eq!(*sum, 7, "{what}: wrong data"),
            // Whom it names is a matter of which silence the detector
            // confirmed first: the root's, or that of the third node, which
            // gives up as soon as it has lost the root.
            Err(MuninError::NodeDown { node, .. }) => assert!(node.as_usize() < 3, "{what}"),
            other => panic!("{what}: toucher got {other:?}"),
        }
    };
    // The compute ends ≈ 10.0 ms in; the request takes ≈ 1.2 µs to reach the
    // root and the reply as long to come back.
    for crash_at_ns in [10_001_000, 10_001_500, 10_002_500, 10_030_000] {
        case(crash_at_ns);
    }
}

/// A block home dies holding pages it took ahead and never touched. Node 2's
/// first write into its block of `table` (pages 8–11 of 16 at 4 nodes) takes
/// pages 9 and 10 along as first touches: owned, never materialised. Node 1
/// then writes page 9, which comes back to it from node 2 as a first touch.
/// Node 2 is killed at a time swept across the reader's compute stretch and
/// its reads. Node 3 must read node 1's value on page 9 — a survivor holds
/// it — and on page 10 the zeros nobody overwrote or a `NodeDown` naming
/// node 2: never zeros where a value was written, never a stall.
#[test]
fn a_block_home_dying_with_untouched_ahead_pages_is_right_or_fails_fast() {
    let (toucher, victim, reader) = (1usize, 2usize, 3usize);
    let case = |crash_at_ns: u64| {
        let faults = crash(victim, CrashTrigger::VirtTime(crash_at_ns));
        let cfg = MuninConfig::fast_test(4)
            .with_engine(EngineConfig::seeded(7).with_faults(faults))
            .with_detect(DETECT)
            .with_retransmit_pacing(PACING)
            .with_watchdog(WATCHDOG);
        let per_page = cfg.page_size / 8;
        let mut prog = MuninProgram::new(cfg);
        let table = prog.declare::<i64>("table", 16 * per_page, SharingAnnotation::WriteShared);
        let (claimed, touched) = (
            prog.create_barrier("claimed"),
            prog.create_barrier("touched"),
        );
        let start = Instant::now();
        let report = prog
            .run(move |ctx| {
                let me = ctx.node_id();
                if me == victim {
                    ctx.write(&table, 8 * per_page, 1)?;
                }
                ctx.wait_at_barrier(claimed)?;
                if me == toucher {
                    ctx.write(&table, 9 * per_page, 99)?;
                }
                ctx.wait_at_barrier(touched)?;
                // Everyone carries virtual time across the crash point.
                ctx.compute(1_000_000); // 10 ms at 10 ns/op
                if me != reader {
                    return Ok((Ok(0), Ok(0)));
                }
                let written = ctx.read(&table, 9 * per_page);
                let untouched = ctx.read(&table, 10 * per_page);
                Ok((written, untouched))
            })
            .unwrap();
        let wall = start.elapsed();
        let what = format!("block home crash at {crash_at_ns} ns");
        assert!(wall < RUN_WALL_CEILING, "{what}: took {wall:?}");
        assert_eq!(report.stats_total().watchdog_stalls, 0, "{what}");
        let Ok((written, untouched)) = &report.results[reader] else {
            panic!("{what}: reader got {:?}", report.results[reader]);
        };
        assert_eq!(*written, Ok(99), "{what}: page 9");
        match untouched {
            Ok(value) => assert_eq!(*value, 0, "{what}: page 10"),
            Err(MuninError::NodeDown { node, .. }) => {
                assert_eq!(
                    node.as_usize(),
                    victim,
                    "{what}: NodeDown blames wrong node"
                )
            }
            other => panic!("{what}: page 10 read {other:?}"),
        }
        // The block really was taken ahead: one fetch for node 2's pages,
        // and node 1's first touch of page 9 forwarded to it.
        assert_eq!(report.stats[victim].objects_fetched, 3, "{what}");
    };
    // The reader's compute ends ≈ 10.0 ms in; a request takes ≈ 1.2 µs to
    // reach a peer.
    for crash_at_ns in [5_000_000, 10_001_500, 10_004_000, 10_030_000] {
        case(crash_at_ns);
    }
}

/// Freeze-thaw: a node that drops off the network for a 250 µs virtual
/// window (a GC pause, in paper terms) is covered by the reliability layer —
/// the forwarded fetch that died in the window is retransmitted once a
/// survivor's clock passes the thaw, and the run completes with the right
/// value everywhere and nobody declared dead.
///
/// The detection window is set far beyond the run so no heartbeat probes
/// fire: an idle-tick probe stamped with a post-window clock would drag the
/// reader's virtual clock past the freeze and the drop under test would
/// (legitimately) never happen. The freeze is then driven purely by the
/// deterministic virtual timeline below.
#[test]
fn freeze_thaw_recovers_without_casualties() {
    let frozen = 2usize;
    let faults = FaultPlan::none().with_crash(CrashSpec {
        node: frozen,
        trigger: CrashTrigger::VirtTime(150_000),
        until_ns: 400_000,
    });
    let cfg = MuninConfig::fast_test(3)
        .with_engine(EngineConfig::seeded(11).with_faults(faults))
        .with_detect(Duration::from_secs(3600))
        .with_retransmit_pacing(PACING)
        .with_watchdog(WATCHDOG);
    let mut prog = MuninProgram::new(cfg);
    let value = prog.declare::<i64>("frozen_owned", 1, SharingAnnotation::Migratory);
    let setup = prog.create_barrier("setup");
    let finale = prog.create_barrier("finale");
    prog.user_init(move |init| init.write(&value, 0, 0).unwrap());
    let report = prog
        .run(move |ctx| {
            let me = ctx.node_id();
            if me == frozen {
                // Take sole ownership before the freeze window opens
                // (setup runs at µs scale, the window at 150 µs).
                ctx.write(&value, 0, 7)?;
            }
            ctx.wait_at_barrier(setup)?;
            match me {
                // The frozen owner computes across its own window, then
                // holds back (wall clock) until the reader's fetch has been
                // forwarded and dropped; its finale arrival then hands node
                // 0 a post-thaw clock, and the next retransmission of the
                // dropped forward gets through.
                2 => {
                    ctx.compute(50_000); // 500 µs — past the thaw
                    std::thread::sleep(Duration::from_millis(100));
                }
                // Node 1 fetches at ~200 µs virtual — inside the window.
                // The request forwards via home node 0 and the hop into the
                // frozen node is dropped.
                1 => ctx.compute(18_000), // 180 µs
                // Node 0 stays below the window start so the first forward
                // is genuinely stamped inside it.
                _ => ctx.compute(8_000), // 80 µs
            }
            if me == 1 {
                let got: i64 = ctx.read(&value, 0)?;
                if got != 7 {
                    return Err(MuninError::ProtocolViolation(
                        "freeze-thaw read returned a stale value",
                    ));
                }
            }
            ctx.wait_at_barrier(finale)?;
            ctx.read(&value, 0)
        })
        .unwrap();
    for (node, result) in report.results.iter().enumerate() {
        assert_eq!(
            *result.as_ref().unwrap_or_else(|e| panic!(
                "freeze-thaw must recover everywhere; node {node} got {e:?}"
            )),
            7
        );
    }
    let stats = report.stats_total();
    assert_eq!(stats.peers_dead, 0, "a 250 µs freeze is not a death");
    assert_eq!(stats.watchdog_stalls, 0);
    assert!(
        stats.retransmits >= 1,
        "the freeze window should have forced at least one retransmission"
    );
}

// ---------------------------------------------------------------------------
// BENCH_crash.json probe: measured rows for the committed benchmark file.
// ---------------------------------------------------------------------------

/// Prints the measurements `BENCH_crash.json` records: detection latency,
/// recovery-walk latency, fail-fast wall time, and the zero-crash overhead
/// of arming detection + an (untriggered) crash plan on an 8-node SOR.
/// Run with `cargo test --release --test crash -- --ignored --nocapture`.
#[test]
#[ignore = "probe for refreshing BENCH_crash.json"]
fn bench_crash_probe() {
    // Detection + recovery latency: the replicated-value program above.
    let victim = 2usize;
    let cfg = MuninConfig::fast_test(4)
        .with_engine(
            EngineConfig::seeded(7).with_faults(crash(victim, CrashTrigger::VirtTime(5_000_000))),
        )
        .with_detect(DETECT)
        .with_retransmit_pacing(PACING)
        .with_watchdog(WATCHDOG);
    let mut prog = MuninProgram::new(cfg);
    let value = prog.declare::<i64>("value", 1, SharingAnnotation::ProducerConsumer);
    let produced = prog.create_barrier("produced");
    let replicated = prog.create_barrier("replicated");
    prog.user_init(move |init| init.write(&value, 0, 0).unwrap());
    let start = Instant::now();
    let report = prog
        .run(move |ctx| {
            if ctx.node_id() == victim {
                ctx.write(&value, 0, 42)?;
            }
            ctx.wait_at_barrier(produced)?;
            if ctx.node_id() != victim {
                ctx.read(&value, 0)?;
            }
            ctx.wait_at_barrier(replicated)?;
            ctx.compute(1_000_000);
            ctx.read(&value, 0)
        })
        .unwrap();
    let wall = start.elapsed();
    let obs = report.obs_total();
    let stats = report.stats_total();
    for kind in ["peer_detect", "peer_recovery"] {
        if let Some(h) = obs.waits.get(kind) {
            eprintln!(
                "{kind}: count={} mean_ms={:.1} p50_ms={:.1} max_ms={:.1}",
                h.count(),
                h.mean_ns() as f64 / 1e6,
                h.p50_ns() as f64 / 1e6,
                h.max_ns() as f64 / 1e6,
            );
        }
    }
    eprintln!(
        "recovery_run: wall_ms={:.0} peers_dead={} objects_rehomed={} \
         copysets_pruned={} heartbeats={} watchdog_stalls={}",
        wall.as_secs_f64() * 1e3,
        stats.peers_dead,
        stats.objects_rehomed,
        stats.copysets_pruned,
        stats.heartbeats_sent,
        stats.watchdog_stalls,
    );

    // Fail-fast wall time: sole-copy loss (NodeDown, not a hang).
    let cfg = MuninConfig::fast_test(4)
        .with_engine(
            EngineConfig::seeded(13).with_faults(crash(victim, CrashTrigger::VirtTime(5_000_000))),
        )
        .with_detect(DETECT)
        .with_retransmit_pacing(PACING)
        .with_watchdog(WATCHDOG);
    let mut prog = MuninProgram::new(cfg);
    let sole = prog.declare::<i64>("sole", 1, SharingAnnotation::Migratory);
    let taken = prog.create_barrier("taken");
    prog.user_init(move |init| init.write(&sole, 0, 0).unwrap());
    let start = Instant::now();
    let report = prog
        .run(move |ctx| {
            if ctx.node_id() == victim {
                ctx.write(&sole, 0, 7)?;
            }
            ctx.wait_at_barrier(taken)?;
            ctx.compute(1_000_000);
            if ctx.node_id() == 0 {
                ctx.read(&sole, 0)?;
            }
            Ok(0i64)
        })
        .unwrap();
    eprintln!(
        "sole_copy_fail_fast: wall_ms={:.0} detect_ms={} first_error={:?}",
        start.elapsed().as_secs_f64() * 1e3,
        DETECT.as_millis(),
        report.first_error(),
    );

    // Zero-crash overhead: 8-node SOR, plain vs armed detector + untriggered
    // crash plan (which also auto-enables the reliability transport).
    let sor_run = |armed: bool| {
        let mut p = sor::SorParams::small(32, 12, 3, 8);
        let mut engine = EngineConfig::seeded(9);
        if armed {
            engine = engine.with_faults(crash(1, CrashTrigger::VirtTime(u64::MAX)));
        }
        p.engine = engine;
        if armed {
            p.detect = Some(DETECT);
        }
        p.retransmit_pacing = Some(PACING);
        sor::run_munin(p, CostModel::fast_test()).unwrap()
    };
    let (m_off, grid_off) = sor_run(false);
    let (m_on, grid_on) = sor_run(true);
    assert_eq!(grid_on, grid_off, "armed detector must not change results");
    eprintln!(
        "zero_crash_overhead: messages {} -> {} bytes {} -> {} \
         virt_elapsed_ms {:.3} -> {:.3} heartbeats={} retransmits={}",
        m_off.net.total.msgs,
        m_on.net.total.msgs,
        m_off.net.total.bytes,
        m_on.net.total.bytes,
        m_off.elapsed.as_nanos() as f64 / 1e6,
        m_on.elapsed.as_nanos() as f64 / 1e6,
        m_on.stats.heartbeats_sent,
        m_on.stats.retransmits,
    );
}

/// Same recv-driven round-gated all-to-all as `tests/stress_schedules.rs`,
/// for proving schedule identity under an untriggered crash plan.
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

/// The zero-crash determinism contract: crashes are evaluated at delivery
/// time, never at submit time, so a plan that never fires must leave the
/// schedule — RNG streams, sequence numbers, traces — byte-identical to no
/// plan at all. Checked against the same golden digests
/// `tests/stress_schedules.rs` pins (delivery order unchanged since before
/// crash injection existed; the first two re-recorded with it when the
/// frontier clamp went — they are the schedules that clamped).
#[test]
fn untriggered_crash_plan_matches_golden_digests() {
    // (nodes, rounds, seed, jitter_ppm, window_ns, digest) — must stay in
    // sync with GOLDEN_DIGESTS in tests/stress_schedules.rs.
    const GOLDEN: &[(usize, usize, u64, u32, u64, u64)] = &[
        (4, 5, 42, 300_000, 5_000, 0xf8bdbe053217010a),
        (4, 5, 7, 300_000, 5_000, 0x09608432abdd16db),
        (4, 5, 1, 0, 0, 0x9a0cb692375090cb),
        (16, 3, 42, 300_000, 5_000, 0x3a1a40c707d940db),
        (16, 3, 9, 0, 0, 0x42702d6b4a74806d),
    ];
    for &(nodes, rounds, seed, ppm, window, want) in GOLDEN {
        let base = if ppm == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::jittery(ppm, window)
        };
        // A crash armed at the end of virtual time plus a freeze that thaws
        // before it could ever bite: neither may perturb a single delivery.
        let faults = base
            .with_crash(CrashSpec {
                node: 0,
                trigger: CrashTrigger::VirtTime(u64::MAX),
                until_ns: 0,
            })
            .with_crash(CrashSpec {
                node: nodes - 1,
                trigger: CrashTrigger::MsgCount(u64::MAX),
                until_ns: 0,
            });
        let (_, digest) = traced_alltoall(nodes, rounds, seed, faults);
        assert_eq!(
            digest, want,
            "untriggered crash plan perturbed the schedule: nodes={nodes} \
             rounds={rounds} seed={seed} faults=({ppm}ppm,{window}ns) — \
             got {digest:#018x}, want {want:#018x}"
        );
    }
}
