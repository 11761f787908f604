//! Measurement records shared by the application drivers and the benchmark
//! harnesses.

use std::fmt::Write as _;

use munin_core::obs::fmt_ns;
use munin_core::{LatencyHist, MuninStatsSnapshot, ObsSnapshot};
use munin_sim::stats::NetSnapshot;
use munin_sim::{EngineStats, NodeTimes, VirtTime};

/// One measured execution of an application (Munin or message passing).
#[derive(Clone, Debug)]
pub struct RunMeasurement {
    /// A short label ("munin", "message-passing", "munin/write-shared", ...).
    pub label: &'static str,
    /// Number of processors used.
    pub procs: usize,
    /// Total (virtual) execution time — the paper's "Total" column.
    pub elapsed: VirtTime,
    /// Time spent executing user code on the root node ("User").
    pub root_user: VirtTime,
    /// Time spent executing runtime code on the root node ("System").
    pub root_system: VirtTime,
    /// Wire statistics for the run: total and per-message-kind counts of
    /// every delivery the event engine scheduled.
    pub net: NetSnapshot,
    /// Munin runtime statistics summed over all nodes (all-zero for
    /// message-passing runs, which have no Munin runtime).
    pub stats: MuninStatsSnapshot,
    /// Engine drop, timer and lateness counters (zero for runs that do not
    /// surface them).
    pub engine: EngineStats,
    /// Cluster-wide observability aggregate: blocking-wait and fault-service
    /// latency histograms merged over all nodes (empty for message-passing
    /// runs, which have no Munin runtime).
    pub obs: ObsSnapshot,
    /// Digest of the engine's delivery trace (0 for runs that do not surface
    /// it). Identical across runs with the same seed and protocol behaviour,
    /// so the differential observability tests compare it as a golden value
    /// between recording-on and recording-off runs.
    pub trace_digest: u64,
}

impl RunMeasurement {
    /// Builds a measurement from the root node's time accounting.
    pub fn new(
        label: &'static str,
        procs: usize,
        elapsed: VirtTime,
        root: NodeTimes,
        net: NetSnapshot,
    ) -> Self {
        RunMeasurement {
            label,
            procs,
            elapsed,
            root_user: root.user,
            root_system: root.system,
            net,
            stats: MuninStatsSnapshot::default(),
            engine: EngineStats::default(),
            obs: ObsSnapshot::default(),
            trace_digest: 0,
        }
    }

    /// Attaches the summed per-node Munin runtime statistics.
    pub fn with_stats(mut self, stats: MuninStatsSnapshot) -> Self {
        self.stats = stats;
        self
    }

    /// Attaches the engine's drop, timer and lateness counters.
    pub fn with_engine_stats(mut self, engine: EngineStats) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches the merged observability aggregate
    /// (see `MuninReport::obs_total`).
    pub fn with_obs(mut self, obs: ObsSnapshot) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches the engine delivery-trace digest.
    pub fn with_trace_digest(mut self, digest: u64) -> Self {
        self.trace_digest = digest;
        self
    }

    /// Total execution time in seconds.
    pub fn secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Percentage difference of this run's total time relative to `baseline`
    /// (positive means this run is slower).
    pub fn percent_diff(&self, baseline: &RunMeasurement) -> f64 {
        let base = baseline.secs();
        if base == 0.0 {
            return 0.0;
        }
        (self.secs() - base) / base * 100.0
    }

    /// Speedup of this run relative to `single_proc` (same label, 1
    /// processor).
    pub fn speedup(&self, single_proc: &RunMeasurement) -> f64 {
        if self.secs() == 0.0 {
            return 0.0;
        }
        single_proc.secs() / self.secs()
    }

    /// Renders the unified run report: time split, per-message-kind traffic,
    /// and — when the run carries an observability aggregate — blocking-wait
    /// and fault-service latency percentiles. All times are virtual.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ({} procs) ==", self.label, self.procs);
        let _ = writeln!(
            out,
            "total {:.3}s  user {:.3}s  system {:.3}s",
            self.secs(),
            self.root_user.as_secs_f64(),
            self.root_system.as_secs_f64()
        );
        if self.net.total.msgs > 0 {
            let _ = writeln!(
                out,
                "messages: {} msgs, {} bytes",
                self.net.total.msgs, self.net.total.bytes
            );
            for (kind, c) in &self.net.by_class {
                let _ = writeln!(
                    out,
                    "  {kind:<22} {:>10} msgs {:>14} bytes",
                    c.msgs, c.bytes
                );
            }
        }
        render_hist_table(&mut out, "blocking waits (virtual time)", &self.obs.waits);
        render_hist_table(
            &mut out,
            "fault service by annotation (virtual time)",
            &self.obs.fault_service,
        );
        out
    }
}

/// Appends one percentile table (`count p50 p95 p99 max` per key) to `out`;
/// silent when the map is empty so message-passing reports stay compact.
fn render_hist_table(
    out: &mut String,
    title: &str,
    hists: &std::collections::BTreeMap<&'static str, LatencyHist>,
) {
    if hists.is_empty() {
        return;
    }
    let _ = writeln!(out, "{title}:");
    let _ = writeln!(
        out,
        "  {:<22} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "kind", "count", "p50", "p95", "p99", "max"
    );
    for (kind, h) in hists {
        let _ = writeln!(
            out,
            "  {kind:<22} {:>8} {:>9} {:>9} {:>9} {:>9}",
            h.count(),
            fmt_ns(h.p50_ns()),
            fmt_ns(h.p95_ns()),
            fmt_ns(h.p99_ns()),
            fmt_ns(h.max_ns())
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(label: &'static str, secs: u64) -> RunMeasurement {
        RunMeasurement {
            label,
            procs: 4,
            elapsed: VirtTime::from_secs(secs),
            root_user: VirtTime::ZERO,
            root_system: VirtTime::ZERO,
            net: NetSnapshot::default(),
            stats: MuninStatsSnapshot::default(),
            engine: EngineStats::default(),
            obs: ObsSnapshot::default(),
            trace_digest: 0,
        }
    }

    #[test]
    fn percent_diff_is_relative_to_baseline() {
        let base = m("mp", 10);
        let slower = m("munin", 11);
        assert!((slower.percent_diff(&base) - 10.0).abs() < 1e-9);
        assert!((base.percent_diff(&base)).abs() < 1e-9);
    }

    #[test]
    fn speedup_divides_single_proc_time() {
        let single = m("munin", 100);
        let parallel = m("munin", 10);
        assert!((parallel.speedup(&single) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn report_includes_wait_percentiles_when_present() {
        let mut run = m("munin", 10);
        let plain = run.render_report();
        assert!(plain.contains("== munin (4 procs) =="));
        assert!(!plain.contains("blocking waits"));

        let mut hist = LatencyHist::default();
        for ns in [1_000, 2_000, 40_000] {
            hist.record(ns);
        }
        run.obs.waits.insert("barrier", hist);
        let with_waits = run.render_report();
        assert!(with_waits.contains("blocking waits"));
        assert!(with_waits.contains("barrier"));
        assert!(with_waits.contains("p95"));
    }
}
