//! The release-flush path and the carrier/outbox layer's message economy,
//! counted on page-aligned SOR runs. Two families of tables:
//!
//! * **Message economy**: total protocol messages and modelled wire bytes
//!   per release (DUQ flush) at 2/8/16 nodes, and the 16-node relay
//!   threshold sweep. These counts are printed on every run and are the
//!   source of the committed `BENCH_msg.json` baseline.
//! * **Scaling curves** at 64/128/256 nodes: the same message-economy table
//!   continued past 32 nodes (where the auto policy narrows the barrier
//!   tree's fan-in from N − 1 to 8), plus a barrier-latency sweep comparing
//!   the star ("flat", k = N − 1) against trees of fan-in
//!   k ∈ {2, 4, 8, 16}. Message/byte counts, owner ingress, and virtual-time
//!   spans are the metrics here; the counts are schedule-deterministic per
//!   seed. These tables are the source of the committed `BENCH_scale.json`
//!   baseline.
//!
//! Refresh the committed baselines with
//! `cargo bench -p munin-bench --bench micro_flush` (copy the printed
//! tables into `BENCH_msg.json` / `BENCH_scale.json`). Wall-clock timing of
//! the layers is the benchmark's (`benchmark/`, see BENCHMARK.json).

use munin_apps::sor::{self, SorParams};
use munin_sim::{CostModel, EngineConfig};

/// A page-aligned SOR instance (each worker's band is exactly one 512-byte
/// page), so every flushed page is owner-flushed and the relay path is
/// exercised — the same shape as the paper's 1024x512-over-8KB-pages runs.
/// `relay_max` overrides the adaptive-relay size threshold
/// (`MuninConfig::relay_max_bytes`); `None` keeps the tuned default.
fn params(nodes: usize, iterations: usize, relay_max: Option<u64>) -> SorParams {
    let mut p = SorParams::small(nodes * 4, 16, iterations, nodes);
    p.engine = EngineConfig::seeded(7);
    p.relay_max_bytes = relay_max;
    p
}

/// One counted run: (total messages, total bytes, releases performed).
fn count_run(nodes: usize, relay_max: Option<u64>) -> (u64, u64, u64) {
    let (m, _grid) =
        sor::run_munin(params(nodes, 12, relay_max), CostModel::fast_test()).expect("SOR run");
    (m.net.total.msgs, m.net.total.bytes, m.stats.duq_flushes)
}

fn report_message_economy() {
    eprintln!("micro_flush message economy (SOR, page-aligned bands, 12 iterations):");
    eprintln!(
        "{:>6} {:>12} {:>10} {:>12} {:>12}",
        "nodes", "messages", "msgs/rel", "bytes", "bytes/rel"
    );
    for nodes in [2usize, 8, 16] {
        let (msgs, bytes, rel) = count_run(nodes, None);
        eprintln!(
            "{nodes:>6} {msgs:>12} {:>10.1} {bytes:>12} {:>12.1}",
            msgs as f64 / rel as f64,
            bytes as f64 / rel as f64,
        );
    }
    report_threshold_sweep();
}

/// The adaptive-relay threshold sweep behind the `DEFAULT_RELAY_MAX_BYTES`
/// default, at 16 nodes. `t=0` sends every payload direct (relay bypassed
/// entirely); `t=max` relays every payload (the pre-threshold behaviour).
fn report_threshold_sweep() {
    eprintln!("micro_flush relay threshold sweep (16 nodes):");
    eprintln!("{:>10} {:>12} {:>12}", "threshold", "messages", "bytes");
    for t in [0u64, 128, 256, 384, 512, 640, 768, u64::MAX] {
        let (msgs, bytes, _) = count_run(16, Some(t));
        let label = if t == u64::MAX {
            "max".to_string()
        } else {
            t.to_string()
        };
        eprintln!("{label:>10} {msgs:>12} {bytes:>12}");
    }
}

/// One wide-cluster run with an explicit barrier fan-out override. Returns
/// (messages, bytes, owner ingress, virtual elapsed ms). `fanout` follows
/// `MuninConfig::barrier_fanout` semantics: `Some(usize::MAX)` is the star
/// (k = N − 1), `Some(k)` forces a k-ary tree, `None` keeps the auto policy
/// (k = 8 at 32 nodes and up).
fn scale_run(nodes: usize, iterations: usize, fanout: Option<usize>) -> (u64, u64, u64, f64) {
    let mut p = params(nodes, iterations, None);
    p.barrier_fanout = fanout;
    let (m, _grid) = sor::run_munin(p, CostModel::fast_test()).expect("SOR run");
    (
        m.net.total.msgs,
        m.net.total.bytes,
        m.stats.barrier_owner_ingress,
        m.elapsed.as_millis_f64(),
    )
}

/// All-node barrier episodes in one SOR run: the internal start barrier, one
/// `copied` wait after init, then a `computed` and a `copied` per iteration.
fn episodes(iterations: usize) -> u64 {
    2 * iterations as u64 + 2
}

/// Message-economy scaling curve on wide clusters: 64/128/256 nodes under
/// the auto barrier policy (k = 8).
/// Fewer iterations than the small-cluster table (4 vs 12) keep the
/// 256-thread runs quick; the per-release columns stay comparable.
fn report_scaling() {
    const ITERS: usize = 4;
    eprintln!(
        "micro_flush scaling curve (SOR, auto barrier policy = tree k=8, {ITERS} iterations):"
    );
    eprintln!(
        "{:>6} {:>12} {:>12} {:>12}",
        "nodes", "messages", "bytes", "virt_ms"
    );
    for nodes in [64usize, 128, 256] {
        let (msgs, bytes, _, ms) = scale_run(nodes, ITERS, None);
        eprintln!("{nodes:>6} {msgs:>12} {bytes:>12} {ms:>12.3}");
    }
}

/// Barrier-latency sweep: the star ("flat", k = N − 1) vs trees of fan-in
/// k ∈ {2, 4, 8, 16} at 64/128/256 nodes. The owner-ingress column is a
/// narrow tree's whole point — k reports per episode, N − 1 in the star —
/// and the virtual-time span shows what the serialized owner service cost
/// does to the critical path at scale.
fn report_barrier_sweep() {
    const ITERS: usize = 4;
    eprintln!(
        "micro_flush barrier sweep (SOR, {ITERS} iterations, {} episodes):",
        episodes(ITERS)
    );
    eprintln!(
        "{:>6} {:>8} {:>10} {:>14} {:>12} {:>12} {:>12}",
        "nodes", "barrier", "ingress", "ingress/ep", "messages", "bytes", "virt_ms"
    );
    for nodes in [64usize, 128, 256] {
        for fanout in [usize::MAX, 2, 4, 8, 16] {
            let (msgs, bytes, ingress, ms) = scale_run(nodes, ITERS, Some(fanout));
            let label = if fanout == usize::MAX {
                "flat".to_string()
            } else {
                format!("k={fanout}")
            };
            eprintln!(
                "{nodes:>6} {label:>8} {ingress:>10} {:>14.1} {msgs:>12} {bytes:>12} {ms:>12.3}",
                ingress as f64 / episodes(ITERS) as f64,
            );
        }
    }
}

fn main() {
    report_message_economy();
    report_scaling();
    report_barrier_sweep();
}
