//! Tests of the carrier/outbox layer: a release's updates ride the protocol
//! traffic it sends anyway (barrier arrives and releases, lock grants,
//! invalidation acks).
//!
//! The carriers must be *invisible* except in message counts: for every
//! workload and engine seed the result is bit-identical to the workload's
//! serial reference, and the message economy is pinned to the message.
//! Seeds include adversarial delay/reorder injection, the load that exposed
//! every protocol race the earlier PRs fixed.

use std::time::{Duration, Instant};

use munin::apps::measure::RunMeasurement;
use munin::apps::{matmul, sor, tsp};
use munin::dsm::config::DEFAULT_RELAY_MAX_BYTES;
use munin::sim::{CostModel, CrashSpec, CrashTrigger, EngineConfig, FaultPlan};
use munin::{AccessMode, MuninConfig, MuninError, MuninProgram, SharingAnnotation};

/// Same adversarial plan as the stress suite: 20% of messages get up to
/// 20 µs of extra virtual latency or jitter.
const STRESS_FAULTS: FaultPlan = FaultPlan::jittery(200_000, 20_000);

/// A grid as bit patterns: "identical" below means bit-identical.
fn bits(grid: &[f64]) -> Vec<u64> {
    grid.iter().map(|v| v.to_bits()).collect()
}

/// The protocol messages of a run: what the engine carried, less the
/// reliable transport's standalone acks and retransmissions. Both are zero
/// unless the transport is forced on (`MUNIN_RELIABILITY=on`), and then they
/// follow the host's clock; what is left is schedule-deterministic.
fn protocol_msgs(m: &RunMeasurement) -> u64 {
    m.engine.messages_sent - m.stats.net_acks_sent - m.stats.retransmits
}

/// The 4-node SOR miniature most tests below share, under the stress plan.
fn sor_small(seed: u64) -> sor::SorParams {
    let mut params = sor::SorParams::small(20, 12, 3, 4);
    params.engine = EngineConfig::seeded(seed).with_faults(STRESS_FAULTS);
    params
}

/// What the one-message-per-update flush path (`MUNIN_PIGGYBACK=off`, since
/// deleted) sent on the instances below at its last run, the same at every
/// seed unless a range is given. The economy claims are measured against
/// these. That path gave the serial result at every seed too, so "identical
/// to piggyback off" below means identical to the serial reference.
const OFF_SOR_SMALL_MSGS: u64 = 198;
const OFF_MATMUL_SMALL_MSGS: u64 = 45;
/// The fenced instance (relay threshold 0): 196-198 messages and 33-34
/// `UpdateAck`s per seed, on the star and on the fan-in-2 tree; the minima.
const OFF_FENCED_MIN_MSGS: u64 = 196;
const OFF_FENCED_MIN_UPDATE_ACKS: u64 = 33;
/// The 16-node miniature, at any relay threshold and in both access modes.
const OFF_SOR_16_MSGS: u64 = 2_660;
const OFF_SOR_16_BYTES: u64 = 223_433;
const OFF_SOR_16_COPYSET_QUERIES: u64 = 480;

/// Every seed sends the same 110 protocol messages: 56 of them the barrier
/// traffic (8 episodes of 3 arrives and 4 releases), which the updates ride.
#[test]
fn sor_piggyback_is_bit_identical_and_strictly_cheaper_across_16_seeds() {
    let reference = bits(&sor::serial(20, 12, 3));
    for seed in 0..16u64 {
        let mut params = sor_small(seed);
        params.access_mode = AccessMode::Explicit;
        let (m, grid) = sor::run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(bits(&grid), reference, "SOR grid wrong under seed {seed}");
        assert_eq!(protocol_msgs(&m), 110, "SOR messages, seed {seed}");
        assert!(protocol_msgs(&m) < OFF_SOR_SMALL_MSGS, "seed {seed}");
    }
}

/// Each non-root worker's single result update rides its final barrier
/// arrive instead of a standalone update+ack round: 39 protocol messages at
/// every seed, none of them an `Update`.
#[test]
fn matmul_piggyback_is_bit_identical_and_strictly_cheaper_across_16_seeds() {
    let reference = matmul::serial(16);
    for seed in 0..16u64 {
        let mut params = matmul::MatmulParams::small(16, 4);
        params.engine = EngineConfig::seeded(seed).with_faults(STRESS_FAULTS);
        let (m, c) = matmul::run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(c, reference, "matmul wrong under seed {seed}");
        assert_eq!(protocol_msgs(&m), 39, "matmul messages, seed {seed}");
        assert!(protocol_msgs(&m) < OFF_MATMUL_SMALL_MSGS, "seed {seed}");
        assert_eq!(m.net.class("update").msgs, 0, "seed {seed}");
        assert_eq!(m.stats.msgs_piggybacked, 3, "seed {seed}");
    }
}

#[test]
fn tsp_piggyback_is_result_identical_across_16_seeds() {
    let reference = tsp::serial(8);
    for seed in 0..16u64 {
        let mut params = tsp::TspParams {
            cities: 8,
            ..tsp::TspParams::default_instance(3)
        };
        params.engine = EngineConfig::seeded(seed).with_faults(STRESS_FAULTS);
        let (_m, r) = tsp::run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(
            r.best_len, reference.best_len,
            "TSP bound wrong, seed {seed}"
        );
        // No message-count assertion for TSP: its flushes are mostly empty
        // (migratory data rides lock grants), and the free-running
        // branch-and-bound trajectory makes per-run message counts
        // host-timing dependent. The economy claims are carried by the SOR
        // and matmul assertions above, whose traffic is phase-structured
        // and seed-deterministic.
    }
}

/// A run that asks for the one-message-per-update path, which does not
/// exist, is refused rather than quietly given the carriers.
#[test]
#[should_panic(expected = "invalid piggyback=false")]
fn piggyback_off_is_rejected() {
    let mut params = sor_small(0);
    params.piggyback = false;
    let _ = sor::run_munin(params, CostModel::fast_test());
}

/// The barrier is the ack. With the relay threshold at 0 every
/// owner-flushed barrier payload bound for anyone but the barrier owner goes
/// direct and unacknowledged, fenced by a slot on the flusher's arrive (the
/// small-page stress instance never reaches the default threshold, so the
/// tests above only ever relay). Under the same jittered seeds — which let a
/// release outrun the update it fences — the grid must stay bit-identical to
/// the serial one, on the star (fan-in N − 1, the default at this size) and
/// through the hops of a fan-in-2 tree, and no `UpdateAck` may answer a
/// fenced update: the run has the 6 acknowledged updates a relayed run of
/// the same instance has, however many it fenced.
#[test]
fn fenced_direct_updates_are_bit_identical_to_piggyback_off_flat_and_tree() {
    let reference = bits(&sor::serial(20, 12, 3));
    for barrier_fanout in [Some(3), Some(2)] {
        for seed in 0..16u64 {
            let mut params = sor_small(seed);
            params.relay_max_bytes = Some(0);
            params.barrier_fanout = barrier_fanout;
            let (m, grid) = sor::run_munin(params, CostModel::fast_test()).unwrap();
            let case = format!("seed {seed}, barrier fan-in {barrier_fanout:?}");
            assert_eq!(bits(&grid), reference, "SOR grid wrong, {case}");
            assert!(
                m.stats.relay_bypassed_bytes > 0,
                "nothing was fenced, {case}"
            );
            // Less the one ack each cooperative fan-out draws from its owner.
            let update_acks = m.net.class("update_ack").msgs - m.net.class("relay_fanout").msgs;
            assert_eq!(
                update_acks, 6,
                "fenced updates must go unacknowledged, {case}"
            );
            assert!(
                update_acks < OFF_FENCED_MIN_UPDATE_ACKS && protocol_msgs(&m) < OFF_FENCED_MIN_MSGS,
                "fenced updates must shed their acks, {case}"
            );
        }
    }
}

/// The configuration of the two owned programs below: four nodes under the
/// stress plan, with 1 % loss and the reliable transport when `lossy`.
fn four_nodes(seed: u64, barrier_fanout: usize, lossy: bool) -> MuninConfig {
    let cfg = MuninConfig::fast_test(4)
        .with_barrier_fanout(barrier_fanout)
        .with_retransmit_pacing(Duration::from_millis(1))
        .with_watchdog(Duration::from_secs(25));
    let engine = EngineConfig::seeded(seed);
    if lossy {
        cfg.with_engine(engine.with_faults(STRESS_FAULTS.with_loss(10_000)))
            .with_reliability(true)
    } else {
        cfg.with_engine(engine.with_faults(STRESS_FAULTS))
    }
}

/// A non-owned flush rides the barrier. Four writers stride
/// every page of one `write_shared` array the root owns — the root owns the
/// barriers too — so three of every four barrier flushes are cooperative
/// bundles for the barrier's owner. On a star (fan-in N − 1) they ride the
/// arrive and their re-fans the releases: no fan-out, forward or ack of any
/// kind is a message. Down a fan-in-2 tree they keep the acknowledged path
/// (`update_ack` > 0): a riding re-fan would lose the link FIFO that
/// orders it. Either way every node reads, every round, exactly what the
/// four writers wrote (as piggyback off did), under the jittered seeds and
/// under 1 % loss.
#[test]
fn four_writers_per_page_are_bit_identical_to_piggyback_off_star_and_tree() {
    const WORDS: usize = 8 * 16;
    const ROUNDS: usize = 3;
    let value = |round: usize, i: usize| (round * WORDS + i) as i32;
    let run = |cfg: MuninConfig| {
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
                let mut seen = vec![ctx.read_slice(&array, 0, WORDS)?];
                ctx.wait_at_barrier(read)?;
                for round in 1..=ROUNDS {
                    for i in (ctx.node_id()..WORDS).step_by(ctx.nodes()) {
                        ctx.write(&array, i, value(round, i))?;
                    }
                    ctx.wait_at_barrier(written)?;
                    seen.push(ctx.read_slice(&array, 0, WORDS)?);
                    ctx.wait_at_barrier(read)?;
                }
                Ok(seen)
            })
            .unwrap();
        assert_eq!(report.stats_total().watchdog_stalls, 0);
        let seen: Vec<_> = report.results.into_iter().map(Result::unwrap).collect();
        (seen, report.net)
    };
    let expected: Vec<Vec<i32>> = (0..=ROUNDS)
        .map(|round| (0..WORDS).map(|i| value(round, i)).collect())
        .collect();
    for (fanout, lossy) in [(3, false), (2, false), (3, true)] {
        for seed in 0..16u64 {
            let case = format!("seed {seed}, barrier fan-in {fanout}, lossy {lossy}");
            let (seen, net) = run(four_nodes(seed, fanout, lossy));
            assert_eq!(seen, vec![expected.clone(); 4], "{case}");
            let acked = ["relay_fanout", "relay_forward", "update_ack"];
            let [fanouts, forwards, acks] = acked.map(|class| net.class(class).msgs);
            if fanout == 3 {
                assert_eq!((fanouts, forwards, acks), (0, 0, 0), "{case}");
            } else {
                assert!(fanouts > 0 && acks > 0, "{case}");
            }
        }
    }
}

/// The FIFO argument behind riding only a star, as a program. Node 1 writes
/// a word of a page the root owns and flushes it at a barrier — the
/// cooperative bundle rides its arrive, the re-fans the releases — then
/// writes the word again and releases a lock it has held all along: that
/// flush is acknowledged, its forwards standalone messages from the root. A
/// node whose barrier release was still on its way when the second forward
/// reached it must not have the first applied on top: whoever takes the lock
/// next reads the second value. On a star the release and the later forward
/// share a link; down a tree nothing rides.
#[test]
fn a_write_after_the_barrier_is_never_undone_by_the_riding_forward() {
    for fanout in [3, 2] {
        for seed in 0..48u64 {
            let mut prog = MuninProgram::new(four_nodes(seed, fanout, false));
            let word = prog.declare::<i32>("word", 1, SharingAnnotation::WriteShared);
            let lock = prog.create_lock("lock");
            let warm = prog.create_barrier("warm");
            let first = prog.create_barrier("first");
            prog.user_init(move |init| init.write(&word, 0, 0).unwrap());
            let report = prog
                .run(move |ctx| {
                    ctx.read(&word, 0)?;
                    if ctx.node_id() == 1 {
                        ctx.acquire_lock(lock)?;
                    }
                    ctx.wait_at_barrier(warm)?;
                    if ctx.node_id() == 1 {
                        ctx.write(&word, 0, 1)?;
                        ctx.wait_at_barrier(first)?;
                        ctx.write(&word, 0, 2)?;
                        ctx.release_lock(lock)?;
                        return Ok(2);
                    }
                    ctx.wait_at_barrier(first)?;
                    ctx.acquire_lock(lock)?;
                    let read = ctx.read(&word, 0)?;
                    ctx.release_lock(lock)?;
                    Ok(read)
                })
                .unwrap();
            for (node, read) in report.results.iter().enumerate() {
                let case = format!("node {node}, seed {seed}, barrier fan-in {fanout}");
                assert_eq!(*read.as_ref().unwrap(), 2, "{case}");
            }
            assert_eq!(report.stats_total().runtime_errors, 0);
        }
    }
}

/// Half a page of the 16-node miniature below. The relay threshold compares
/// *encoded* payload bytes, and the miniature's pages are exactly the default
/// threshold (512): a nearly-full-page diff used to encode just over it and
/// go direct, and with varint run headers encodes just under it and rides
/// the relay twice. The default is tuned for 8 KB pages, where no benchmark
/// workload's message count moved; a 512-byte page needs the threshold scaled
/// with it for the assertions to test the mechanism and not that
/// coincidence.
const HALF_PAGE_RELAY_MAX: u64 = 256;

/// The 16-node miniature's message economy, pinned: bit-identical to the
/// serial grid, in both access-detection modes, with the protocol message
/// count exact and the byte count exact too unless the reliable transport
/// is forced on (its acks ride frames whose bytes follow the host's clock).
///
/// At half a page the threshold mechanism is live: page-scale payloads are
/// bypassed direct-to-destination instead of riding the relay twice, and no
/// flush sends a copyset query (an owner's recorded copyset is
/// authoritative). Against piggyback off that is at least a fifth of the
/// messages shed for at most 1.1x the bytes.
///
/// At the default threshold nothing in this miniature is bypassed (a page is
/// exactly the threshold and a nearly-full-page diff encodes just under it),
/// so the run is the relay's whole message drop. (It was 1 030 / 315 532
/// while the barrier owner posted itself a `BarrierArrive` through the
/// network at each of the run's 26 episodes: 1 030 − 26 messages, and
/// 315 532 − 26·40 − the 3 574 bytes its own relayed bundles paid to ride
/// those arrives to where they already were; and 1 004 / 310 918 while each
/// of its 25 cooperative bundles for the barrier's owner was a fan-out
/// message answered by an ack of its own instead of a ride on the arrive:
/// 2 messages apiece, 1 796 bytes in all; and 954 / 309 122 while a cluster
/// of short runs cost a header a run instead of a bit a word.) With the
/// reliable transport forced on, the bytes keep the ceiling they had before.
fn assert_16_node_sor_economy(access_mode: AccessMode) {
    let reference = bits(&sor::serial(64, 16, 12));
    let forced = munin::dsm::reliability_from_env() == Some(true);
    let (grid, m) = sor_run_16(access_mode, HALF_PAGE_RELAY_MAX);
    assert_eq!(
        bits(&grid),
        reference,
        "16-node SOR grid wrong at half a page"
    );
    let (msgs, bytes) = (protocol_msgs(&m), m.engine.bytes_sent);
    assert_eq!(msgs, 1_066, "16-node SOR messages at half a page");
    let drop = 1.0 - msgs as f64 / OFF_SOR_16_MSGS as f64;
    assert!(
        drop >= 0.20,
        "16-node SOR must shed >= 20% of its messages ({msgs} vs {OFF_SOR_16_MSGS})"
    );
    if !forced {
        assert_eq!(bytes, 225_125, "16-node SOR bytes at half a page");
        let ratio = bytes as f64 / OFF_SOR_16_BYTES as f64;
        assert!(
            ratio <= 1.1,
            "16-node SOR bytes must stay within 1.1x of piggyback off ({bytes} vs {OFF_SOR_16_BYTES})"
        );
    }
    assert!(
        m.stats.relay_bypassed_bytes > 0,
        "page-scale SOR payloads should trip the relay size threshold"
    );
    assert_eq!(
        m.net.class("copyset_query").msgs,
        0,
        "no flush asks anyone for a copyset"
    );
    assert!(m.net.class("copyset_query").msgs < OFF_SOR_16_COPYSET_QUERIES);

    let (grid, m) = sor_run_16(access_mode, DEFAULT_RELAY_MAX_BYTES);
    assert_eq!(
        bits(&grid),
        reference,
        "16-node SOR grid wrong at the default threshold"
    );
    let (msgs, bytes) = (protocol_msgs(&m), m.engine.bytes_sent);
    assert_eq!(msgs, 954, "16-node SOR messages at the default threshold");
    if forced {
        assert!(
            bytes <= 351_028,
            "16-node SOR bytes at the default threshold: {bytes}, ceiling 351 028"
        );
    } else {
        assert_eq!(bytes, 267_523, "16-node SOR bytes at the default threshold");
    }
}

fn sor_run_16(access_mode: AccessMode, relay_max_bytes: u64) -> (Vec<f64>, RunMeasurement) {
    // Page-aligned sections like the paper's instance (1024x512 over 8 KB
    // pages): each worker's band is exactly one 512-byte page (4 rows x
    // 16 cols x 8 bytes), so every flushed page has a single writer that
    // also owns it, and enough iterations that the stable producer-consumer
    // phase (where the paper's message-economy claim lives) dominates the
    // one-off first-touch traffic.
    let mut params = sor::SorParams::small(64, 16, 12, 16);
    params.engine = EngineConfig::seeded(7).with_faults(STRESS_FAULTS);
    params.access_mode = access_mode;
    params.relay_max_bytes = Some(relay_max_bytes);
    let (m, grid) = sor::run_munin(params, CostModel::fast_test()).unwrap();
    (grid, m)
}

#[test]
fn sixteen_node_sor_sheds_a_fifth_of_its_messages_explicit_mode() {
    assert_16_node_sor_economy(AccessMode::Explicit);
}

#[test]
fn sixteen_node_sor_sheds_a_fifth_of_its_messages_vm_mode() {
    if !AccessMode::vm_supported() {
        eprintln!("skipping: AccessMode::VmTraps requires 64-bit Linux on x86_64");
        return;
    }
    assert_16_node_sor_economy(AccessMode::VmTraps);
}

/// Per-message-kind accounting: the carrier framing must keep class counts
/// meaningful (a carrier counts under its inner class), while the update
/// class collapses into the barrier traffic. The barrier traffic is the
/// synchronization protocol's own, 2N − 1 messages an episode: 8 episodes
/// of 3 arrives and 4 releases.
#[test]
fn per_class_engine_counts_reflect_the_carrier_framing() {
    let (m, _) = sor::run_munin(sor_small(3), CostModel::fast_test()).unwrap();
    assert_eq!(m.engine.class("barrier_arrive").msgs, 24);
    assert_eq!(m.engine.class("barrier_release").msgs, 32);
    assert_eq!(
        m.engine.class("update").msgs,
        0,
        "standalone update messages must collapse into carriers"
    );
    assert!(m.stats.msgs_piggybacked > 0);
    // The kind breakdown sums to the total.
    let sum: u64 = m.engine.per_class.values().map(|v| v.msgs).sum();
    assert_eq!(sum, m.engine.messages_sent);
}

/// The carrier layer under a lossy wire: with 1% seeded message loss and the
/// reliability transport on, the grid must stay bit-identical to the serial
/// one across 16 seeds, with zero watchdog stalls — lost carriers (and the
/// relay bundles riding them) are retransmitted like any other frame, and a
/// dropped owner fan-out or forward must not wedge the origin's ack loop.
/// The second run per seed sets the relay threshold to 0, so that what is
/// lost and retransmitted includes fenced direct updates and the releases
/// their fences ride.
#[test]
fn sor_piggyback_survives_one_percent_loss_across_16_seeds() {
    let reference = bits(&sor::serial(20, 12, 3));
    let lossy = |seed: u64, relay_max_bytes: Option<u64>| {
        let mut params = sor::SorParams::small(20, 12, 3, 4);
        params.engine = EngineConfig::seeded(seed).with_faults(STRESS_FAULTS.with_loss(10_000));
        params.relay_max_bytes = relay_max_bytes;
        params.reliability = Some(true);
        params.retransmit_pacing = Some(Duration::from_millis(1));
        params.watchdog = Some(Duration::from_secs(25));
        let (m, grid) = sor::run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(
            m.stats.watchdog_stalls, 0,
            "lossy run stalled (seed {seed}, relay threshold {relay_max_bytes:?})"
        );
        bits(&grid)
    };
    for seed in 0..16u64 {
        assert_eq!(
            lossy(seed, None),
            reference,
            "lossy SOR grid wrong under seed {seed}"
        );
        assert_eq!(
            lossy(seed, Some(0)),
            reference,
            "lossy SOR grid wrong with every payload fenced, seed {seed}"
        );
    }
}

/// Crash during a barrier relay: the barrier owner dies while it may still
/// be holding relay bundles stashed for re-attachment to releases (and, as
/// the root, it homes every object). The terminate-correct-or-NodeDown
/// contract of `tests/crash.rs` must hold: the run
/// either completes with exact results (crash landed after the protocol
/// finished) or fails fast with a structured `NodeDown` — never a hang or a
/// watchdog stall. The same holds with the relay threshold at 0, when what
/// the owner holds are fences and the victim may be a worker with fenced
/// updates in flight. (The one schedule these runs do not reach, a release
/// parked behind a fence whose update was lost with its origin, is
/// `server.rs::release_fenced_by_a_dead_origin_is_routed_once_the_death_is_confirmed`.)
#[test]
fn crash_during_barrier_relay_terminates_or_fails_fast() {
    let (rows, cols, iters, nodes) = (20, 12, 3, 8);
    let reference = sor::serial(rows, cols, iters);
    let triggers = [CrashTrigger::VirtTime(600_000), CrashTrigger::MsgCount(120)];
    // Node 0 is the barrier owner, holding undistributed bundles; node 3 is
    // a worker in the middle of the grid.
    let victims = [(0, None), (0, Some(0)), (3, Some(0))];
    for ((node, relay_max_bytes), trigger) in
        victims.into_iter().flat_map(|v| triggers.map(|t| (v, t)))
    {
        let case = format!("victim {node}, relay threshold {relay_max_bytes:?}, {trigger:?}");
        let mut params = sor::SorParams::small(rows, cols, iters, nodes);
        params.engine =
            EngineConfig::seeded(3).with_faults(FaultPlan::none().with_crash(CrashSpec {
                node,
                trigger,
                until_ns: 0,
            }));
        params.relay_max_bytes = relay_max_bytes;
        params.detect = Some(Duration::from_millis(300));
        params.retransmit_pacing = Some(Duration::from_millis(1));
        params.watchdog = Some(Duration::from_secs(25));
        let start = Instant::now();
        let outcome = sor::run_munin(params, CostModel::fast_test());
        let wall = start.elapsed();
        assert!(
            wall < Duration::from_secs(20),
            "{case}: crash-during-relay run took {wall:?} — must resolve \
             via detection, not a watchdog crawl"
        );
        match outcome {
            Ok((_m, grid)) => {
                let max_err = grid
                    .iter()
                    .zip(&reference)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(
                    max_err < 1e-12,
                    "{case}: run completed but diverged (max error {max_err})"
                );
            }
            Err(MuninError::NodeDown { node, .. }) => {
                assert!(node.as_usize() < nodes, "NodeDown blames nonexistent node");
            }
            Err(other) => {
                panic!("{case}: expected completion or NodeDown, got {other:?}")
            }
        }
    }
}
