//! Wide-cluster scaling suite: 64-, 128- and 256-node runs sweeping the
//! barrier tree's fan-in, from a binary tree to the star in which every
//! node reports straight to the owner.
//!
//! The contracts under test:
//!
//! * **Transparency** — the barrier topology is invisible to the program:
//!   runs of the same SOR instance at every fan-in produce bit-identical
//!   grids, for shallow (k = 16) and deep (k = 2) trees alike.
//! * **Ingress economy** — the whole point of a narrow tree: the barrier
//!   owner's per-episode message ingress is its static fan-in k, N − 1 in
//!   the star, asserted exactly via the `barrier_owner_ingress` counter.
//! * **Crash tolerance** — a crash of an *interior* tree node (one whose
//!   death orphans a whole reporting subtree) keeps the
//!   terminate-correct-or-fail-fast contract of `tests/crash.rs`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use munin::apps::sor::{self, SorParams};
use munin::dsm::config::DEFAULT_BARRIER_FANOUT;
use munin::sim::{CostModel, CrashSpec, CrashTrigger, EngineConfig, FaultPlan};
use munin::MuninError;

/// One 256-node run is ~500 OS threads; several at once oversubscribe the
/// host so badly that wall-clock detection windows and ceilings stop
/// meaning anything. Unlike the small-cluster chaos suites (which *want*
/// scheduling noise), this file serializes its tests.
static SEQUENTIAL: Mutex<()> = Mutex::new(());

/// All-node barrier episodes in one SOR run: the program's internal start
/// barrier, one `copied` wait after the init phase, then a `computed` and a
/// `copied` wait per iteration.
fn episodes(iterations: usize) -> u64 {
    2 * iterations as u64 + 2
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
}

/// Runs one SOR instance with the given barrier fan-in override and
/// returns (grid, total `barrier_owner_ingress`). The counter is only ever
/// bumped at a barrier owner, so the cluster-wide total *is* the owner's
/// ingress.
fn sor_run(nodes: usize, rows: usize, iterations: usize, fanout: Option<usize>) -> (Vec<f64>, u64) {
    let mut params = SorParams::small(rows, 8, iterations, nodes);
    params.engine = EngineConfig::seeded(7);
    params.barrier_fanout = fanout;
    let (m, grid) = sor::run_munin(params, CostModel::fast_test()).unwrap();
    (grid, m.stats.barrier_owner_ingress)
}

/// 128 nodes: the fan-in changes the owner's ingress from O(N) to O(k) per
/// episode and nothing else — the grids are bit-identical.
#[test]
fn tree_barrier_matches_flat_bit_for_bit_at_128_nodes() {
    let _serial = SEQUENTIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (nodes, rows, iters) = (128, 132, 2);
    let (flat_grid, flat_ingress) = sor_run(nodes, rows, iters, Some(usize::MAX));
    let (tree_grid, tree_ingress) = sor_run(nodes, rows, iters, Some(8));
    assert_eq!(
        flat_grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        tree_grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "barrier topology must be invisible to the computation"
    );
    assert!(close(&flat_grid, &sor::serial(rows, 8, iters)));
    // Star: every other node's report lands at the owner. Tree: only the
    // owner's k static children report to it.
    assert_eq!(flat_ingress, (nodes as u64 - 1) * episodes(iters));
    assert_eq!(tree_ingress, 8 * episodes(iters));
}

/// Fan-in sweep at 64 nodes: a binary tree (depth 6, maximal bundle
/// transit hops), the auto policy's k = 8, a wide tree (k = 16) and the star
/// (k = N − 1, under each of its spellings) produce one grid.
#[test]
fn every_tree_fanout_is_transparent_at_64_nodes() {
    let _serial = SEQUENTIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (nodes, rows, iters) = (64, 68, 2);
    let (star_grid, star_ingress) = sor_run(nodes, rows, iters, Some(usize::MAX));
    assert!(close(&star_grid, &sor::serial(rows, 8, iters)));
    assert_eq!(star_ingress, (nodes as u64 - 1) * episodes(iters));
    let star_bits: Vec<u64> = star_grid.iter().map(|v| v.to_bits()).collect();
    for k in [2usize, 8, 16, nodes - 1] {
        let (grid, ingress) = sor_run(nodes, rows, iters, Some(k));
        assert_eq!(
            star_bits,
            grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "fan-in {k} diverged from the star's grid"
        );
        assert_eq!(ingress, k as u64 * episodes(iters));
    }
}

/// 256 nodes complete correctly with no override: the auto policy runs a
/// tree of fan-in [`DEFAULT_BARRIER_FANOUT`] (k = 8 at 32 nodes and up), so
/// the owner hears that many reports per episode.
#[test]
fn sor_completes_correctly_at_256_nodes() {
    let _serial = SEQUENTIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (nodes, rows, iters) = (256, 260, 1);
    let (grid, ingress) = sor_run(nodes, rows, iters, None);
    assert!(close(&grid, &sor::serial(rows, 8, iters)));
    assert_eq!(ingress, DEFAULT_BARRIER_FANOUT as u64 * episodes(iters));
}

/// The barrier sweep on page-aligned bands (`nodes`·4 rows of 16 columns,
/// each band one 512-byte page, 4 iterations, seed 7): the star against
/// trees of fan-in 2, 4, 8 and 16, as `(nodes, fan-in, messages, bytes,
/// owner ingress)`. An episode is 2(N − 1) messages whatever the shape; the
/// star's rows read 18 fewer because a cooperative bundle whose owner is the
/// star's owner rides the arrive, and its re-fans ride the releases. Bytes
/// rise with tree depth, since relayed bundles transit more hops (k = 2 is
/// the worst case). k = 8, the auto policy from 32 nodes up, is the scaling
/// curve: its ingress is within 8 of the minimum and its bytes within 5 % of
/// the shallowest tree's. Most of a debug-profile minute, so the chaos step
/// runs it in release.
#[rustfmt::skip]
const BARRIER_SWEEP: [(usize, usize, u64, u64, u64); 15] = [
    (64, usize::MAX, 1_888, 369_623, 630),
    (64, 2, 1_906, 565_215, 20),
    (64, 4, 1_906, 434_150, 40),
    (64, 8, 1_906, 394_841, 80),
    (64, 16, 1_906, 379_751, 160),
    (128, usize::MAX, 3_808, 746_903, 1_270),
    (128, 2, 3_826, 1_178_833, 20),
    (128, 4, 3_826, 890_062, 40),
    (128, 8, 3_826, 804_883, 80),
    (128, 16, 3_826, 772_489, 160),
    (256, usize::MAX, 7_648, 1_501_275, 2_550),
    (256, 2, 7_666, 2_423_477, 20),
    (256, 4, 7_666, 1_810_564, 40),
    (256, 8, 7_666, 1_630_843, 80),
    (256, 16, 7_666, 1_558_751, 160),
];

#[test]
#[ignore = "wide sweep: run in release, `cargo test --release --test scale -- --ignored`"]
fn barrier_sweep_counts_are_exact_from_64_to_256_nodes() {
    let _serial = SEQUENTIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (nodes, fanout, msgs, bytes, ingress) in BARRIER_SWEEP {
        let mut params = SorParams::small(nodes * 4, 16, 4, nodes);
        params.engine = EngineConfig::seeded(7);
        params.barrier_fanout = Some(fanout);
        let (m, grid) = sor::run_munin(params, CostModel::fast_test()).unwrap();
        let at = format!("{nodes} nodes, fan-in {fanout}");
        assert!(close(&grid, &sor::serial(nodes * 4, 16, 4)), "{at}");
        let counts = (m.net.total.msgs, m.net.total.bytes);
        assert_eq!(counts, (msgs, bytes), "{at}");
        assert_eq!(m.stats.barrier_owner_ingress, ingress, "{at}");
    }
}

/// An interior tree node (rank 1: it relays eight grandchild reports toward
/// the owner) crashes mid-run at 64 nodes. The run must terminate inside
/// the wall ceiling and either complete with the exact serial grid or fail
/// fast with `NodeDown` — never hang, never return wrong data.
///
/// This test was red in the debug profile about one run in five (38–76 s
/// against the 20 s ceiling; 0.3 s in `--release`). It was not crawling: in
/// every red run the stall reports show the cluster parked at a barrier
/// behind *one* node until the 25 s watchdog gave up — recovery races that
/// debug-speed scheduling merely makes likely:
///
/// * the straggler `blocked in fetch … deferred requests: 1`: two survivors
///   whose fetches of one object had been forwarded into the corpse each
///   ran an orphan-recovery round and each deferred the other's
///   `CopysetQuery` behind its own busy entry (fixed:
///   `ObjectState::recovering`);
/// * the straggler in `shutdown_wait`, its worker gone with "unexpected
///   reply while waiting at a barrier". Either a fetch was answered twice —
///   by the original request, alive after all, and by the adoption its
///   recovery round sent — and the second `ObjectData` answered the next
///   wait (fixed: `wait_reply_or_dead` drops a late read copy); or a flush
///   to a cooperative owner that died counted that owner's re-fan acks
///   towards its fallback broadcast, finished that many acks early, and the
///   last `UpdateAck`s answered the next wait (fixed: the flush ack loop
///   matches acks to expectations by sender);
/// * with those gone, two rarer ones: the root's final `Done` broadcast
///   stopped at the first peer with a closed inbox, never reaching the
///   root's own service loop (a hang no watchdog covers; fixed), and a node
///   cut off from the cluster could lose a race with the survivors'
///   teardown and report the transport's `Disconnected` instead of
///   `NodeDown` (fixed in `NodeRuntime::send`).
///
/// After the fixes: 200 of 200 debug runs green, each under 2 s, so the
/// ceiling stays. What remains is the wall-clock detector declaring a live
/// node dead when the host stalls for a whole detection window (ROADMAP
/// direction 1).
#[test]
fn crash_of_an_interior_tree_node_terminates_or_fails_fast() {
    let _serial = SEQUENTIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (nodes, rows, iters) = (64, 68, 3);
    let reference = sor::serial(rows, 8, iters);
    for victim in [1usize, 9] {
        // Node 1 is the owner's first static child; node 9 is node 1's
        // first child — both deaths orphan a reporting subtree.
        let mut params = SorParams::small(rows, 8, iters, nodes);
        params.engine =
            EngineConfig::seeded(11).with_faults(FaultPlan::none().with_crash(CrashSpec {
                node: victim,
                trigger: CrashTrigger::VirtTime(600_000),
                until_ns: 0,
            }));
        params.barrier_fanout = Some(8);
        params.detect = Some(Duration::from_millis(300));
        params.retransmit_pacing = Some(Duration::from_millis(1));
        params.watchdog = Some(Duration::from_secs(25));
        let start = Instant::now();
        let outcome = sor::run_munin(params, CostModel::fast_test());
        let wall = start.elapsed();
        assert!(
            wall < Duration::from_secs(20),
            "victim {victim}: run took {wall:?} — crash-induced barrier waits \
             must resolve via detection, not crawl"
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
                    "victim {victim}: run completed but diverged (max error {max_err})"
                );
            }
            Err(MuninError::NodeDown { node, .. }) => {
                assert!(
                    node.as_usize() < nodes,
                    "NodeDown blames nonexistent {node}"
                );
            }
            Err(other) => panic!("victim {victim}: expected Ok or NodeDown, got {other:?}"),
        }
    }
}
