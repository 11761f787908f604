//! Cross-crate integration tests: Munin programs, the message-passing
//! baseline, and the serial references must all agree; the runtime errors the
//! paper describes must be detected; the advanced hints must behave as
//! documented; and the data motion must match the paper's qualitative claims.

use munin::apps::{matmul, sor, tsp, workloads};
use munin::dsm::MuninError;
use munin::{CostModel, MuninConfig, MuninProgram, SharingAnnotation};

const FAST: fn() -> CostModel = CostModel::fast_test;

#[test]
fn matmul_munin_mp_and_serial_agree_across_processor_counts() {
    let n = 20;
    let reference = matmul::serial(n);
    for procs in [1, 2, 5] {
        let params = matmul::MatmulParams::small(n, procs);
        let (_m, c) = matmul::run_munin(params, FAST()).unwrap();
        assert_eq!(c, reference, "munin result at {procs} procs");
        let (_m, c) = matmul::run_message_passing(params, FAST()).unwrap();
        assert_eq!(c, reference, "message passing result at {procs} procs");
    }
}

#[test]
fn sor_munin_mp_and_serial_agree() {
    let (rows, cols, iters) = (20, 12, 3);
    let reference = sor::serial(rows, cols, iters);
    for procs in [1, 2, 4] {
        let params = sor::SorParams::small(rows, cols, iters, procs);
        let (_m, grid) = sor::run_munin(params, FAST()).unwrap();
        let max_err = grid
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_err < 1e-9,
            "munin SOR at {procs} procs, max error {max_err}"
        );
        let (_m, grid) = sor::run_message_passing(params, FAST()).unwrap();
        let max_err = grid
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_err < 1e-9,
            "MP SOR at {procs} procs, max error {max_err}"
        );
    }
}

/// `PhaseChange()` is a local call. A worker that has left the `copied`
/// barrier and made it fetches its ghost rows while a slower neighbour — the
/// rows' owner — may still be on its way to its own call, holding the
/// initialisation phase's fixed copyset. That fetch is not the paper's
/// "outside the stable relationship" runtime error (it used to be counted as
/// one, most runs at this size); every seed is a different interleaving.
#[test]
fn sor_phase_change_lag_is_not_a_runtime_error() {
    let (rows, cols, iters) = (32, 16, 2);
    let reference = sor::serial(rows, cols, iters);
    for seed in 0..16u64 {
        let mut params = sor::SorParams::small(rows, cols, iters, 4);
        params.engine = munin::sim::EngineConfig::seeded(seed);
        let (m, grid) = sor::run_munin(params, FAST()).unwrap();
        assert_eq!(m.stats.runtime_errors, 0, "seed {seed}");
        assert_eq!(grid, reference, "seed {seed}");
    }
}

#[test]
fn paper_cost_model_runs_end_to_end_at_small_scale() {
    // The same programs run under the 1991 cost model (as the benches do),
    // just at a reduced problem size so the test stays quick.
    let mut params = matmul::MatmulParams::paper(4);
    params.n = 32;
    let (munin_run, c) = matmul::run_munin(params, CostModel::sun_ethernet_1991()).unwrap();
    let (dm_run, c2) = matmul::run_message_passing(params, CostModel::sun_ethernet_1991()).unwrap();
    assert_eq!(c, c2);
    assert_eq!(c, matmul::serial(32));
    // Virtual times are nonzero and of the same order of magnitude.
    assert!(munin_run.secs() > 0.0 && dm_run.secs() > 0.0);
    assert!(munin_run.secs() < dm_run.secs() * 10.0);
}

#[test]
fn tsp_exercises_reduction_migratory_and_lock_association() {
    let params = tsp::TspParams {
        cities: 7,
        procs: 2,
        ..tsp::TspParams::default_instance(1)
    };
    let (run, result) = tsp::run_munin(params, FAST()).unwrap();
    assert_eq!(result.best_len, tsp::serial(7).best_len);
    assert!(run.net.class("reduce_request").msgs > 0);
    // The distance table is replicated on demand to the non-root worker.
    assert!(run.net.class("object_data").msgs > 0);
}

#[test]
fn write_to_read_only_variable_is_detected() {
    let mut prog = MuninProgram::new(MuninConfig::fast_test(1));
    let ro = prog.declare::<i32>("ro", 8, SharingAnnotation::ReadOnly);
    let report = prog.run(move |ctx| ctx.write(&ro, 3, 1)).unwrap();
    assert!(matches!(
        report.results[0],
        Err(MuninError::ReadOnlyWrite(_))
    ));
    assert_eq!(report.stats_total().runtime_errors, 1);
}

#[test]
fn out_of_bounds_accesses_are_rejected_with_context() {
    let mut prog = MuninProgram::new(MuninConfig::fast_test(1));
    let v = prog.declare::<i64>("v", 4, SharingAnnotation::WriteShared);
    let report = prog
        .run(move |ctx| {
            let err = ctx.read(&v, 9).unwrap_err();
            assert!(matches!(err, MuninError::OutOfBounds { var: "v", .. }));
            ctx.write(&v, 0, 5)?;
            ctx.read(&v, 0)
        })
        .unwrap();
    assert_eq!(*report.results[0].as_ref().unwrap(), 5);
}

#[test]
fn change_annotation_switches_protocol_mid_run() {
    let mut prog = MuninProgram::new(MuninConfig::fast_test(2));
    let v = prog.declare::<i32>("v", 16, SharingAnnotation::WriteShared);
    let sync = prog.create_barrier("sync");
    prog.user_init(move |init| init.write_slice(&v, 0, &[0; 16]).unwrap());
    let report = prog
        .run(move |ctx| {
            // Phase 1: both nodes write disjoint halves under write-shared.
            let me = ctx.node_id();
            ctx.write(&v, me * 8, me as i32 + 1)?;
            ctx.wait_at_barrier(sync)?;
            // Phase 2: switch to conventional and have node 0 read both halves.
            ctx.change_annotation(&v, SharingAnnotation::Conventional)?;
            ctx.wait_at_barrier(sync)?;
            if me == 0 {
                Ok((ctx.read(&v, 0)?, ctx.read(&v, 8)?))
            } else {
                Ok((0, 0))
            }
        })
        .unwrap();
    assert_eq!(*report.results[0].as_ref().unwrap(), (1, 2));
}

/// `PreAcquire()` prefetches, and `Flush()` sends *immediately* (the paper's
/// word): the producer's changes leave as a standalone acknowledged update
/// when the hint is given, instead of waiting to ride the second barrier's
/// carrier.
#[test]
fn flush_and_pre_acquire_hints_work() {
    let mut prog = MuninProgram::new(MuninConfig::fast_test(2));
    let v = prog.declare::<i64>("v", 32, SharingAnnotation::ProducerConsumer);
    let sync = prog.create_barrier("sync");
    prog.user_init(move |init| init.write_slice(&v, 0, &[0; 32]).unwrap());
    let report = prog
        .run(move |ctx| {
            if ctx.node_id() == 1 {
                // Consumer: pre-fetch the producer's region before it is
                // needed, then wait for the producer's flush.
                ctx.pre_acquire(&v, 0, 32)?;
            }
            ctx.wait_at_barrier(sync)?;
            if ctx.node_id() == 0 {
                for i in 0..16 {
                    ctx.write(&v, i, i as i64 * 3)?;
                }
                // Push the buffered writes out explicitly (Flush hint)
                // before the barrier would have done it anyway.
                ctx.flush()?;
            }
            ctx.wait_at_barrier(sync)?;
            let sum: i64 = ctx.read_slice(&v, 0, 16)?.iter().sum();
            Ok(sum)
        })
        .unwrap();
    let expected: i64 = (0..16).map(|i| i * 3).sum();
    for r in &report.results {
        assert_eq!(*r.as_ref().unwrap(), expected);
    }
    let updates = report.net.class("update").msgs;
    assert!(updates >= 1, "the hint sent nothing");
    assert_eq!(
        report.net.class("update_ack").msgs,
        updates,
        "every update of this run is acknowledged"
    );
}

#[test]
fn invalidate_hint_returns_data_to_the_home_node() {
    let mut prog = MuninProgram::new(MuninConfig::fast_test(2));
    let v = prog.declare::<i64>("v", 8, SharingAnnotation::WriteShared);
    let sync = prog.create_barrier("sync");
    prog.user_init(move |init| init.write_slice(&v, 0, &[0; 8]).unwrap());
    let report = prog
        .run(move |ctx| {
            if ctx.node_id() == 1 {
                ctx.write(&v, 0, 99)?;
                ctx.invalidate(v.id())?;
            }
            ctx.wait_at_barrier(sync)?;
            if ctx.node_id() == 0 {
                ctx.read(&v, 0)
            } else {
                Ok(0)
            }
        })
        .unwrap();
    assert_eq!(*report.results[0].as_ref().unwrap(), 99);
}

/// The hint deletes a *replica*. At the home that owns the object the local
/// copy is the object: it stays, so a later fetch is served the data — and
/// "owned here, no rights" keeps meaning "never materialised", which is
/// what lets an owner answer a first touch without sending the page.
#[test]
fn invalidate_hint_at_the_owning_home_keeps_the_data() {
    let mut prog = MuninProgram::new(MuninConfig::fast_test(2));
    let v = prog.declare::<i64>("v", 8, SharingAnnotation::WriteShared);
    let sync = prog.create_barrier("sync");
    prog.user_init(move |init| init.write_slice(&v, 0, &[0; 8]).unwrap());
    let report = prog
        .run(move |ctx| {
            if ctx.node_id() == 0 {
                ctx.write(&v, 0, 99)?;
                ctx.invalidate(v.id())?;
            }
            ctx.wait_at_barrier(sync)?;
            ctx.read(&v, 0)
        })
        .unwrap();
    assert_eq!(report.results, [Ok(99), Ok(99)]);
}

#[test]
fn matmul_data_motion_matches_the_papers_description() {
    // "In the Munin version, after the workers have acquired their input
    // data, they execute independently without communication, as in the
    // message passing version. Furthermore the various parts of the output
    // matrix are sent from the node where they are computed to the root."
    let params = matmul::MatmulParams::small(24, 4);
    let (m, _c) = matmul::run_munin(params, FAST()).unwrap();
    // Result update transmissions: one per non-root worker, each riding
    // the final barrier's carriers.
    assert_eq!(m.stats.updates_sent, 3);
    // No invalidations are needed anywhere in the multi-protocol version.
    assert_eq!(m.net.class("invalidate").msgs, 0);
}

#[test]
fn sor_uses_fewer_messages_with_multiple_protocols_than_forced_conventional() {
    let small = sor::SorParams::small(32, 16, 5, 4);
    let (multi, _) = sor::run_munin(small, FAST()).unwrap();
    let mut forced = small;
    forced.annotation_override = Some(SharingAnnotation::Conventional);
    let (conv, _) = sor::run_munin(forced, FAST()).unwrap();
    assert!(
        conv.net.class("object_fetch").msgs > multi.net.class("object_fetch").msgs,
        "conventional must re-fault boundary pages every iteration"
    );
}

#[test]
fn workload_partition_is_exhaustive_for_paper_sizes() {
    for (total, parts) in [(400, 16), (1024, 16), (400, 7)] {
        let mut covered = 0;
        for idx in 0..parts {
            let (lo, hi) = workloads::partition(total, parts, idx);
            covered += hi - lo;
        }
        assert_eq!(covered, total);
    }
}

/// Write-validate without a shortcut: `result` pages a worker overwrites
/// whole are fetched without their bytes and flushed whole, so the home ends
/// up with what the worker wrote — zeros over its own non-zero words too. A
/// diff against an all-zero twin would carry nothing here, and the home
/// would keep 7s.
#[test]
fn result_pages_overwritten_with_zeros_read_zeros_at_their_home() {
    const PAGES: usize = 3;
    let cfg = MuninConfig::fast_test(2);
    let words = PAGES * cfg.page_size / 4;
    let mut prog = MuninProgram::new(cfg);
    let out = prog.declare::<i32>("out", words, SharingAnnotation::Result);
    let done = prog.create_barrier("done");
    prog.user_init(move |init| init.write_slice(&out, 0, &vec![7; words]).unwrap());
    let report = prog
        .run(move |ctx| {
            if ctx.node_id() == 1 {
                ctx.write_slice(&out, 0, &vec![0; words])?;
            }
            ctx.wait_at_barrier(done)
        })
        .unwrap();
    assert!(report.first_error().is_none());
    assert_eq!(report.read_root_slice(&out), vec![0; words]);
    let stats = report.stats_total();
    assert_eq!(
        (stats.objects_fetched, stats.fetch_bytes),
        (PAGES as u64, 0)
    );
    assert_eq!((stats.write_faults, stats.twins_created), (1, 0));
}

/// `PreAcquire()` as the paper has it: the range arrives ahead of its use,
/// in one round trip, and the later read finds it in place.
#[test]
fn pre_acquire_fetches_a_range_in_one_round_trip() {
    const PAGES: usize = 10;
    let cfg = MuninConfig::fast_test(2);
    let words = PAGES * cfg.page_size / 4;
    let mut prog = MuninProgram::new(cfg);
    let input = prog.declare::<i32>("input", words, SharingAnnotation::ReadOnly);
    prog.user_init(move |init| {
        let fill: Vec<i32> = (0..words as i32).collect();
        init.write_slice(&input, 0, &fill).unwrap();
    });
    let report = prog
        .run(move |ctx| {
            if ctx.node_id() != 1 {
                return Ok((0, 0, 0));
            }
            ctx.pre_acquire(&input, 0, words)?;
            let acquired = ctx.stats();
            let all = ctx.read_slice(&input, 0, words)?;
            let read = ctx.stats();
            assert_eq!(all, (0..words as i32).collect::<Vec<_>>());
            Ok((
                acquired.objects_fetched,
                acquired.read_faults,
                read.objects_fetched + read.read_faults,
            ))
        })
        .unwrap();
    let (fetched, faults, after_read) = *report.results[1].as_ref().unwrap();
    assert_eq!((fetched, faults), (PAGES as u64, 1));
    assert_eq!(
        after_read,
        PAGES as u64 + 1,
        "the read added no fetch and no fault"
    );
    // One request, one reply; nothing else moved before the end-of-run
    // handshake.
    assert_eq!(report.net.class("object_fetch").msgs, 1);
    assert_eq!(report.net.class("object_data").msgs, 1);
}

/// Lock hand-off, end to end and fault-free: four nodes contend for one
/// lock that carries a migratory record, with a `Fetch_and_add` between
/// critical sections. How often a request is forwarded depends on which
/// host thread runs first, so only what is exact is asserted: no increment
/// is lost, and every acquire not satisfied locally costs exactly one
/// `lock_grant` on the wire — a token is never granted to a node that did
/// not ask, and never handed on unused.
#[test]
fn every_remote_acquire_costs_exactly_one_grant() {
    let (nodes, rounds) = (4usize, 24i64);
    let mut prog = MuninProgram::new(MuninConfig::fast_test(nodes));
    let record = prog.declare::<i64>("record", 1, SharingAnnotation::Migratory);
    let tally = prog.declare::<i64>("tally", 1, SharingAnnotation::Reduction);
    let lock = prog.create_lock("lock");
    prog.associate_data_and_synch(lock, &record);
    let done = prog.create_barrier("done");
    prog.user_init(move |init| {
        init.write(&record, 0, 0).unwrap();
        init.write(&tally, 0, 0).unwrap();
    });
    let report = prog
        .run(move |ctx| {
            for _ in 0..rounds {
                ctx.acquire_lock(lock)?;
                let v: i64 = ctx.read(&record, 0)?;
                ctx.write(&record, 0, v + 1)?;
                ctx.release_lock(lock)?;
                ctx.fetch_and_add_i64(&tally, 0, 2)?;
            }
            ctx.wait_at_barrier(done)?;
            ctx.acquire_lock(lock)?;
            let v: i64 = ctx.read(&record, 0)?;
            ctx.release_lock(lock)?;
            Ok((v, ctx.fetch_and_add_i64(&tally, 0, 0)?))
        })
        .unwrap();
    let total = nodes as i64 * rounds;
    for r in &report.results {
        assert_eq!(*r.as_ref().unwrap(), (total, 2 * total));
    }
    let stats = report.stats_total();
    assert_eq!(stats.lock_acquires, (total + nodes as i64) as u64);
    assert_eq!(
        report.net.class("lock_grant").msgs,
        stats.lock_acquires - stats.lock_local_acquires
    );
    assert_eq!(stats.runtime_errors, 0);
}

/// The benchmark's `wshared` shape in miniature, as a tier-1 guard on the
/// diff wire format: four writers stride every 8 KB page of one
/// `write_shared` array, so every diff is 512 one-word runs — the run-length
/// encoding's worst case — and every flush sends it to the three other
/// copies. The runs are one cluster and travel as one masked span: a bit a
/// covered word and 4 data bytes a changed one, where 512 run headers took
/// 2 bytes each (3 074 bytes a diff); a format that spends more fails here,
/// not only on the benchmark's `wire_bytes`.
///
/// All four writers flush at one barrier, as the benchmark's do, so each
/// applies its peers' diffs while it encodes its own. A diff carries only
/// the words its node wrote (flat-diff invariant 6) because an update is
/// applied to memory and folded into the twin under the lock the flush takes
/// each twin out and encodes it under; when the flush drained its queue up
/// front instead, an update landing between the drain and an entry's encode
/// was in memory but not in the twin, went out again as the flusher's own
/// words, and this byte count was off its closed form in a fifth of single
/// runs. Twenty repetitions, each exact.
#[test]
fn strided_write_shared_updates_travel_as_one_masked_span() {
    const NODES: usize = 4;
    const PAGE_WORDS: usize = 2048;
    const PAGES: usize = 2;
    const WORDS: usize = PAGES * PAGE_WORDS;
    const ROUNDS: usize = 2;
    // Differs from round to round at every index, so every written word is
    // a changed word.
    let value = |round: usize, i: usize| (round * WORDS + i) as i32;
    for repetition in 0..20 {
        let cfg = MuninConfig::fast_test(NODES).with_page_size(PAGE_WORDS * 4);
        let mut prog = MuninProgram::new(cfg);
        let array = prog.declare::<i32>("array", WORDS, SharingAnnotation::WriteShared);
        let written = prog.create_barrier("written");
        let read = prog.create_barrier("read");
        prog.user_init(move |init| {
            let fill: Vec<i32> = (0..WORDS).map(|i| value(0, i)).collect();
            init.write_slice(&array, 0, &fill).unwrap();
        });
        let report = prog
            .run(move |ctx| {
                let me = ctx.node_id();
                // Warm copies: every page has all four nodes in its copyset
                // before the first flush.
                let mut all = ctx.read_slice(&array, 0, WORDS)?;
                ctx.wait_at_barrier(read)?;
                for round in 1..=ROUNDS {
                    for i in (me..WORDS).step_by(NODES) {
                        ctx.write(&array, i, value(round, i))?;
                    }
                    ctx.wait_at_barrier(written)?;
                    all = ctx.read_slice(&array, 0, WORDS)?;
                    ctx.wait_at_barrier(read)?;
                }
                Ok(all)
            })
            .unwrap();
        let expected: Vec<i32> = (0..WORDS).map(|i| value(ROUNDS, i)).collect();
        for (node, result) in report.results.iter().enumerate() {
            assert_eq!(result.as_ref().unwrap(), &expected, "node {node}");
        }
        // One diff: the `words` varint (2 048 takes two bytes), then one
        // span — a one-byte skip, the zero count, `len` (2 045 words from a
        // node's first to its last, two bytes), its 256 mask bytes and one
        // word for each of the node's 512 words.
        let span_words = PAGE_WORDS - NODES + 1;
        let diff_bytes = 2 + (1 + 1 + 2) + span_words.div_ceil(8) + (PAGE_WORDS / NODES) * 4;
        assert_eq!(diff_bytes, 2_310);
        let stats = report.stats_total();
        assert_eq!(stats.duq_objects_flushed as usize, ROUNDS * NODES * PAGES);
        assert_eq!(
            stats.update_bytes_sent as usize,
            ROUNDS * NODES * PAGES * (NODES - 1) * diff_bytes,
            "repetition {repetition}"
        );
        assert_eq!(stats.runtime_errors, 0);
    }
}

// ---------------------------------------------------------------------------
// The paper's headline, and the virtual-time model that makes it measurable:
// virtual elapsed time is a function of the program, not of the order in
// which the host happened to run the threads.
// ---------------------------------------------------------------------------

/// Runs `run` five times and returns the elapsed seconds of each, asserting
/// that they agree within 1 %.
fn five_repeats(what: &str, run: impl Fn() -> f64) -> Vec<f64> {
    let secs: Vec<f64> = (0..5).map(|_| run()).collect();
    let (lo, hi) = secs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), s| (lo.min(*s), hi.max(*s)));
    assert!(
        hi <= lo * 1.01,
        "{what}: five repeats must agree within 1 %, got {secs:?}"
    );
    secs
}

/// Table 3 at 4 processors: Munin within 5 % of hand-coded message passing
/// (the paper: within 10 %), at one value run after run: 33.308 s, which is
/// what this program reads at every engine seed and with the host's cores
/// oversubscribed. It read 33.514 s while each worker fetched the `result`
/// pages it overwrites whole with their bytes. In the trace of worker 1, on
/// the critical path, its first `output` fault is 21.167 ms (was 165.135):
/// the root no longer copies 19 pages (19 × 1.024 ms) and the reply no
/// longer carries their 155 648 bytes (124.518 ms at 800 ns a byte), less
/// 6.4 µs for the request's 8-byte elided range. Its further write faults,
/// 2.324 ms each for the fault and the twin, go from 20 to 1 (−44.156 ms),
/// and its barrier flush encodes 2 pages instead of 21 (19.546 → 1.997 ms).
/// It arrives 205.672 ms sooner, and the run ends 205.748 ms sooner:
/// 33.5136 → 33.3078 s. (While every page cost a round trip of its own a
/// conservative-scheduling oracle gave 33.995 s; fetching each
/// access's pages as one run took 0.35 s of round trips and root service
/// time out of it. It read 33.615 s while the root also paid a snapshot copy
/// for every read-only page it served: on the critical path that was worker
/// 1's two input replies, 21 pages of `input1` and 78 pages and 1 KB of
/// `input2` at 125 ns a byte, 21.504 + 80.000 = 101.504 ms.) Before virtual
/// time followed happens-before only, executions of this very program landed
/// on 34, 67, 99 or 131 s depending on which node's thread the host ran first.
#[test]
fn matmul_paper_size_is_within_five_percent_of_message_passing() {
    let cost = CostModel::sun_ethernet_1991;
    let params = matmul::MatmulParams {
        engine: munin::sim::EngineConfig::seeded(16),
        piggyback: true,
        reliability: Some(false),
        ..matmul::MatmulParams::paper(4)
    };
    let (dm, _) = matmul::run_message_passing(params, cost()).unwrap();
    let secs = five_repeats("matmul paper(4)", || {
        matmul::run_munin(params, cost()).unwrap().0.secs()
    });
    for s in secs {
        assert!(
            s <= 1.05 * dm.secs(),
            "Munin {s:.3} s vs message passing {:.3} s",
            dm.secs()
        );
        assert!(
            (s - 33.308).abs() <= 0.002 * 33.308,
            "Munin {s:.6} s is off this program's 33.308 s: below it an edge was lost \
             (a release stamped before an arrival it accounts for), above it a host \
             edge survived, a page went back to costing a round trip of its own, \
             read-only pages to costing a copy, or result pages a writer overwrites \
             to travelling out"
        );
    }
}

/// Table 3 at 16 processors, where the root serves the most pages against
/// the least compute of its own: Munin within the paper's 10 % of message
/// passing. Each of the ≈ 1 370 pages the root serves costs a directory
/// lookup; the inputs are read-only, so none of them costs a copy. (Charged
/// a 1.02 ms snapshot copy each as well, the root spent 1.67 s of system time
/// against 8.48 s of compute and the row read +11.8 %.)
#[test]
fn matmul_at_sixteen_processors_is_within_ten_percent_of_message_passing() {
    let cost = CostModel::sun_ethernet_1991;
    let params = matmul::MatmulParams {
        engine: munin::sim::EngineConfig::seeded(16),
        piggyback: true,
        reliability: Some(false),
        ..matmul::MatmulParams::paper(16)
    };
    let (dm, _) = matmul::run_message_passing(params, cost()).unwrap();
    let (m, c) = matmul::run_munin(params, cost()).unwrap();
    assert_eq!(c, matmul::serial(params.n));
    assert!(
        m.percent_diff(&dm) <= 10.0,
        "Munin {:.3} s is {:+.1} % off message passing's {:.3} s",
        m.secs(),
        m.percent_diff(&dm),
        dm.secs()
    );
}

/// The `read_only` annotation pays for itself (the paper's Table 6
/// argument): with the inputs declared read-only the root serves them by
/// reference, forced `write_shared` it has to snapshot every page it serves,
/// and the program is slower by those copies.
#[test]
fn read_only_inputs_make_matmul_faster_than_forced_write_shared() {
    let cost = CostModel::sun_ethernet_1991;
    let multiple = matmul::MatmulParams {
        engine: munin::sim::EngineConfig::seeded(1),
        piggyback: true,
        reliability: Some(false),
        ..matmul::MatmulParams::paper(4)
    };
    let forced = matmul::MatmulParams {
        annotation_override: Some(SharingAnnotation::WriteShared),
        ..multiple
    };
    let (multiple, _) = matmul::run_munin(multiple, cost()).unwrap();
    let (forced, _) = matmul::run_munin(forced, cost()).unwrap();
    assert!(
        multiple.secs() < forced.secs(),
        "multiple {:.6} s, forced write-shared {:.6} s",
        multiple.secs(),
        forced.secs()
    );
    assert!(multiple.root_system < forced.root_system);
}

/// The benchmark's `matmul` row, guarded in tier-1: each worker's three
/// multi-page accesses (its `input1` band, all of `input2`, the copies its
/// `output` band's write faults need, of which only the two boundary pages
/// carry bytes) are three round trips, so the whole
/// run is 39 messages, not the 745 of one round trip per page, and moves no
/// more bytes than those did.
#[test]
fn matmul_paper_size_fetches_each_access_in_one_round_trip() {
    let params = matmul::MatmulParams {
        engine: munin::sim::EngineConfig::seeded(1),
        piggyback: true,
        reliability: Some(false),
        ..matmul::MatmulParams::paper(4)
    };
    let (m, c) = matmul::run_munin(params, CostModel::sun_ethernet_1991()).unwrap();
    assert_eq!(c, matmul::serial(params.n));
    assert!(m.net.total.msgs <= 60, "{} wire messages", m.net.total.msgs);
    assert!(
        m.net.total.bytes <= 3_434_977,
        "{} wire bytes",
        m.net.total.bytes
    );
    // Faults taken = runs requested, one per access and worker.
    assert_eq!(m.net.class("object_fetch").msgs, 9);
    assert_eq!(m.stats.read_faults, 6);
}

/// The benchmark's exact rows (`benchmark/README.md`, `wire_msgs` /
/// `wire_bytes` on `matmul`, `sor` and `wshared`), as tier-1 tests: the
/// paper-size programs pinned the way `benchmark/src/workloads.rs` pins them,
/// at two seeds, to the message and to the byte. Whatever changes the type an
/// update travels in has to leave the rows where they are. (`sor` read
/// 4 150 516 bytes while its 383 first touches each carried 8 KB of zeros,
/// and 1 369 messages / 1 012 980 bytes while each of its 100 direct updates
/// was answered by a 40-byte `UpdateAck` instead of fenced by 20 bytes on
/// the barrier's own messages; no `update_ack` is the per-kind form of it.
/// Both rows sat one message per barrier episode higher — `sor` 1 269 /
/// 1 010 980 over its 42 episodes, `matmul` 41 / 3 406 853 over its 2 —
/// while the barrier owner posted itself a 40-byte `BarrierArrive` through
/// the network: new = old − episodes messages, − 40·episodes bytes, and on
/// `sor` − 240 more, the 12 bytes each of the owner's 20 fences paid to
/// ride that message to where it already was.)
///
/// `sor` and `wshared` then sat at 1 227 / 1 009 060 and 587 / ≈ 5.02 M
/// while a flusher of pages the barrier's owner owns shipped them to it and
/// sat out the acknowledgements before arriving. Riding the arrive, each such
/// bundle saves its fan-out, the owner's ack, and a forward and an
/// `UpdateAck` per other copyset member: new = old − (2 + 2·forwards) per
/// riding bundle — `wshared` 48 × 6 = 288 (three copies besides the origin's:
/// the owner's and two forwards), `sor` 21 × 2 = 42 (the owner holds the only
/// other copy). `wshared`'s bytes are exact, and pinned, since a diff carries
/// its own node's words only whatever lands while it is encoded.
///
/// A cluster of short runs travels as one masked span since the diff format
/// has one: a strided page is 2 310 bytes, not 3 074, so `wshared` is new =
/// old − 764 per strided transit — 4 944 040 − 1 536 × 764 = 3 770 536, its
/// 299 messages unmoved. `sor`'s boundary rows change the low word of an
/// `f64` and keep the high one often enough that its diffs shrink too
/// (1 007 632 → 920 916 with the cluster rule of `diff.rs`: a run of at most
/// 15 words and every next run that ends within 15 words of the one before,
/// masked when strictly shorter), and `matmul` sends no diff a mask helps.
#[test]
fn benchmark_guard_rows_are_exact_at_two_seeds() {
    for seed in [1u64, 2] {
        let params = sor::SorParams {
            engine: munin::sim::EngineConfig::seeded(seed),
            access_mode: munin::AccessMode::Explicit,
            piggyback: true,
            reliability: Some(false),
            relay_max_bytes: Some(munin::dsm::config::DEFAULT_RELAY_MAX_BYTES),
            ..sor::SorParams::paper(4)
        };
        let (m, _) = sor::run_munin(params, CostModel::sun_ethernet_1991()).unwrap();
        assert_eq!(
            (m.net.total.msgs, m.net.total.bytes),
            (1_185, 920_916),
            "sor, seed {seed}"
        );
        assert_eq!(
            (m.net.class("update").msgs, m.net.class("update_ack").msgs),
            (100, 0),
            "sor, seed {seed}"
        );
        let params = matmul::MatmulParams {
            engine: munin::sim::EngineConfig::seeded(seed),
            access_mode: munin::AccessMode::Explicit,
            piggyback: true,
            reliability: Some(false),
            ..matmul::MatmulParams::paper(4)
        };
        let (m, _) = matmul::run_munin(params, CostModel::sun_ethernet_1991()).unwrap();
        assert_eq!(
            (m.net.total.msgs, m.net.total.bytes),
            (39, 2_946_736),
            "matmul, seed {seed}"
        );
        for execution in 0..3 {
            let net = wshared_net(seed);
            let what = format!("wshared, seed {seed}, execution {execution}");
            assert_eq!(
                (net.total.msgs, net.total.bytes),
                (299, 3_770_536),
                "{what}"
            );
            assert_eq!(net.class("update").msgs, 48, "{what}");
            for acked in ["update_ack", "relay_fanout", "relay_forward"] {
                assert_eq!(net.class(acked).msgs, 0, "{what}: {acked}");
            }
        }
    }
}

/// One execution of the benchmark's `wshared` program
/// (`benchmark/src/workloads.rs::run_wshared`, configured as its
/// `RunCfg::munin_config` configures it, every field explicit): four nodes
/// stride-write all eight 8 KB pages of one `write_shared` array for sixteen
/// rounds, a `written` and a `read` barrier apart, every node checking every
/// round. Returns what went over the wire.
fn wshared_net(seed: u64) -> munin::sim::stats::NetSnapshot {
    const NODES: usize = 4;
    const WORDS: usize = 16_384;
    const ROUNDS: usize = 16;
    // The benchmark's value pattern, which follows from the seed alone.
    let value = move |round: usize, i: usize| {
        let (a, b) = (round as u64, i as u64);
        let mut x =
            seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        (x ^ (x >> 31)) as i32
    };
    let checksum = |words: &[i32]| words.iter().map(|w| i64::from(*w)).sum::<i64>();
    let cfg = MuninConfig {
        detect: None,
        trace_out: None,
        barrier_fanout: None,
        relay_max_bytes: munin::dsm::config::DEFAULT_RELAY_MAX_BYTES,
        retransmit_pacing: munin::dsm::config::DEFAULT_RETRANSMIT_PACING,
        ..MuninConfig::paper(NODES)
    }
    .with_cost(CostModel::sun_ethernet_1991())
    .with_engine(munin::sim::EngineConfig::seeded(seed))
    .with_access_mode(munin::AccessMode::Explicit)
    .with_piggyback(true)
    .with_reliability(false)
    .with_watchdog(std::time::Duration::from_secs(15))
    .with_flight_events(256);
    let mut prog = MuninProgram::new(cfg);
    let array = prog.declare::<i32>("array", WORDS, SharingAnnotation::WriteShared);
    let written = prog.create_barrier("written");
    let read = prog.create_barrier("read");
    prog.user_init(move |init| {
        let fill: Vec<i32> = (0..WORDS).map(|i| value(0, i)).collect();
        init.write_slice(&array, 0, &fill).unwrap();
    });
    let report = prog
        .run(move |ctx| {
            let me = ctx.node_id();
            let mut sums = vec![checksum(&ctx.read_slice(&array, 0, WORDS)?)];
            ctx.wait_at_barrier(read)?;
            for round in 1..=ROUNDS {
                for i in (me..WORDS).step_by(NODES) {
                    ctx.write(&array, i, value(round, i))?;
                }
                ctx.compute((WORDS / NODES) as u64);
                ctx.wait_at_barrier(written)?;
                sums.push(checksum(&ctx.read_slice(&array, 0, WORDS)?));
                ctx.compute(WORDS as u64);
                ctx.wait_at_barrier(read)?;
            }
            Ok(sums)
        })
        .unwrap();
    let expected: Vec<i64> = (0..=ROUNDS)
        .map(|round| (0..WORDS).map(|i| i64::from(value(round, i))).sum())
        .collect();
    for (node, sums) in report.results.iter().enumerate() {
        assert_eq!(sums.as_ref().unwrap(), &expected, "wshared, node {node}");
    }
    assert_eq!(report.stats_total().runtime_errors, 0);
    report.net
}

/// Table 5 at 4 processors (5 iterations are enough to see the steady
/// state): Munin within 5 % of hand-coded message passing, run after run.
#[test]
fn sor_paper_size_is_within_five_percent_of_message_passing() {
    let cost = CostModel::sun_ethernet_1991;
    let params = sor::SorParams {
        iterations: 5,
        engine: munin::sim::EngineConfig::seeded(16),
        piggyback: true,
        reliability: Some(false),
        ..sor::SorParams::paper(4)
    };
    let dm = five_repeats("message-passing sor", || {
        sor::run_message_passing(params, cost()).unwrap().0.secs()
    });
    let secs = five_repeats("sor 1024x512 at 4 procs", || {
        sor::run_munin(params, cost()).unwrap().0.secs()
    });
    for s in secs {
        assert!(
            s <= 1.05 * dm[0],
            "Munin {s:.3} s vs message passing {:.3} s",
            dm[0]
        );
    }
}

/// Host skew must not become virtual time. Four nodes fetch a read-only
/// input from the root, compute for 2 virtual seconds and meet at a barrier;
/// in the second run one worker sleeps 50 ms of *wall* time before its first
/// fetch, so the root has long since handled the others' barrier arrivals
/// (stamped 2 s) when that fetch (stamped a few ms) is submitted. The engine
/// counts it as a late delivery and delivers it at its own arrival: the
/// sleeper is served at the time it asked, and the run takes as long as the
/// plain one. (With the per-destination frontier clamp the fetch was served
/// at 2 s and the run took 4.)
#[test]
fn a_sleeping_host_thread_does_not_move_virtual_time() {
    const WORDS: usize = 4096;
    let run = |sleeper: Option<usize>| {
        let cfg = MuninConfig::paper(4)
            .with_cost(CostModel::sun_ethernet_1991())
            .with_engine(munin::sim::EngineConfig::seeded(16))
            .with_reliability(false);
        let mut prog = MuninProgram::new(cfg);
        let input = prog.declare::<i32>("input", WORDS, SharingAnnotation::ReadOnly);
        let done = prog.create_barrier("done");
        prog.user_init(move |init| {
            let fill: Vec<i32> = (0..WORDS as i32).collect();
            init.write_slice(&input, 0, &fill).unwrap();
        });
        let report = prog
            .run(move |ctx| {
                if sleeper == Some(ctx.node_id()) {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                let all = ctx.read_slice(&input, 0, WORDS)?;
                ctx.compute(2_000_000);
                ctx.wait_at_barrier(done)?;
                Ok(all.iter().map(|v| i64::from(*v)).sum::<i64>())
            })
            .unwrap();
        for r in &report.results {
            assert_eq!(*r.as_ref().unwrap(), (WORDS * (WORDS - 1) / 2) as i64);
        }
        // Every nanosecond a node clock moved was charged to a bucket, on
        // whichever thread moved it.
        for t in &report.node_times {
            assert_eq!(t.user + t.system + t.wait, t.total, "node {}", t.node);
        }
        report
    };
    let plain = run(None);
    let skewed = run(Some(2));
    let (a, b) = (plain.elapsed_secs(), skewed.elapsed_secs());
    assert!(
        (a - b).abs() <= 0.001 * a,
        "plain {a:.6} s, with a sleeping worker {b:.6} s"
    );
    assert!(
        skewed.engine_stats.late_deliveries > 0,
        "the sleeper's fetches reach the root after its 2 s barrier arrivals"
    );
}

/// What a flush is charged, as an identity: SOR on one processor has nobody
/// to send a diff to, so no flush encodes one and the root's System time has
/// no `encode` term. Its 512 pages each take a write fault and a twin twice —
/// in the initialisation phase, and again in the first copy phase after
/// `PhaseChange` write-protects the private pages — and are private ever
/// after. Everything else the root is charged is the barriers': `sync_op` on
/// the arrive and on the release, and `msg_fixed` for each message it sends
/// itself, one `BarrierRelease` per episode and the final `Shutdown`. (While
/// a flush diffed every page before it looked for a receiver, the root was
/// also charged `encode(2 048, runs)` for each of the 1 024 flushed pages,
/// about 2.6 s on top of the 2.4 s here.)
#[test]
fn sor_on_one_processor_is_charged_no_encode() {
    let cost = CostModel::sun_ethernet_1991();
    let iterations = 3;
    let params = sor::SorParams {
        iterations,
        engine: munin::sim::EngineConfig::seeded(1),
        piggyback: true,
        reliability: Some(false),
        ..sor::SorParams::paper(1)
    };
    let (m, grid) = sor::run_munin(params, cost.clone()).unwrap();
    assert_eq!(grid, sor::serial(params.rows, params.cols, iterations));
    let s = &m.stats;
    let barriers = 2 + 2 * iterations as u64;
    assert_eq!((s.write_faults, s.twins_created), (1_024, 1_024));
    assert_eq!(s.barrier_waits, barriers);
    assert_eq!(m.net.class("barrier_release").msgs, barriers);
    assert_eq!(m.net.total.msgs, barriers + 1, "and the `Shutdown`");
    let ns = |t: munin::sim::VirtTime| t.as_nanos();
    let identity = s.write_faults * ns(cost.fault())
        + s.twins_created * ns(cost.copy(8_192))
        + barriers * 2 * ns(cost.sync_op())
        + m.net.total.msgs * ns(cost.msg_fixed());
    assert_eq!(
        m.root_system.as_nanos(),
        identity,
        "root System time is faults, twins and barriers alone"
    );
}
