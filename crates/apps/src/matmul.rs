//! Matrix Multiply (Section 4.1 of the paper).
//!
//! ```text
//! shared read_only int input1[N][N];
//! shared read_only int input2[N][N];
//! shared result    int output[N][N];
//! ```
//!
//! `user_init` fills the input matrices and creates a barrier; each worker
//! computes a band of rows of the output; when a worker finishes it waits at
//! the barrier. Because the output is a `result` object, the flush at the
//! barrier sends each worker's band back to the root (only), and because the
//! runtime supports multiple writers the false sharing of output pages
//! straddling two bands is harmless.

use munin_core::{MuninConfig, MuninProgram, SharingAnnotation};
use munin_msgpass::{run_mp_program, MpMsg};
use munin_sim::CostModel;

use crate::measure::RunMeasurement;
use crate::workloads::{matmul_a, matmul_a_matrix, matmul_b, matmul_b_matrix, partition};

/// Abstract application operations charged per inner-product step (one
/// multiply and one add).
const OPS_PER_MAC: u64 = 2;

/// Parameters of a Matrix Multiply experiment.
#[derive(Clone, Copy, Debug)]
pub struct MatmulParams {
    /// Matrix dimension (the matrices are `n × n`).
    pub n: usize,
    /// Number of processors (= Munin nodes = workers).
    pub procs: usize,
    /// Force every shared variable to one annotation (Table 6), `None` for
    /// the multi-protocol default.
    pub annotation_override: Option<SharingAnnotation>,
    /// Consistency-unit size in bytes (the prototype's pages are 8 KB).
    pub page_size: usize,
    /// Event-engine configuration (schedule seed, fault injection).
    pub engine: munin_sim::EngineConfig,
    /// Access-detection mode (explicit checks or real VM write traps).
    pub access_mode: munin_core::AccessMode,
    /// Always `true` (see [`MuninConfig::piggyback`]); `false` is rejected
    /// when the run starts.
    pub piggyback: bool,
    /// Forces the reliability layer on/off; `None` keeps the auto policy
    /// (enabled exactly when the engine injects message loss).
    pub reliability: Option<bool>,
    /// Overrides the reliability layer's retransmit pacing (tests drop this
    /// to ~1 ms so loss runs converge quickly); `None` keeps the default.
    pub retransmit_pacing: Option<std::time::Duration>,
    /// Overrides the stall-watchdog window; `None` keeps the default.
    pub watchdog: Option<std::time::Duration>,
    /// Overrides the flight-recorder ring capacity (`0` disables event
    /// capture); `None` keeps the config default / `MUNIN_FLIGHT_EVENTS`.
    pub flight_events: Option<usize>,
    /// Overrides the failure-detection window (tests shrink this so crash
    /// runs confirm deaths quickly); `None` keeps the auto policy.
    pub detect: Option<std::time::Duration>,
}

impl MatmulParams {
    /// The paper's configuration: 400 × 400 matrices.
    pub fn paper(procs: usize) -> Self {
        MatmulParams {
            n: 400,
            procs,
            annotation_override: None,
            page_size: 8192,
            engine: munin_sim::EngineConfig::from_env(),
            access_mode: munin_core::AccessMode::from_env(),
            piggyback: true,
            reliability: None,
            retransmit_pacing: None,
            watchdog: None,
            flight_events: None,
            detect: None,
        }
    }

    /// A small instance for tests.
    pub fn small(n: usize, procs: usize) -> Self {
        MatmulParams {
            n,
            procs,
            annotation_override: None,
            page_size: 512,
            engine: munin_sim::EngineConfig::from_env(),
            access_mode: munin_core::AccessMode::from_env(),
            piggyback: true,
            reliability: None,
            retransmit_pacing: None,
            watchdog: None,
            flight_events: None,
            detect: None,
        }
    }
}

/// Serial reference multiplication.
pub fn serial(n: usize) -> Vec<i32> {
    let a = matmul_a_matrix(n);
    let b = matmul_b_matrix(n);
    let mut c = vec![0i32; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] = c[i * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
            }
        }
    }
    c
}

/// Multiplies the band of rows `[lo, hi)` given that band of `A` and all of
/// `B`, in exactly the arithmetic the other variants use.
fn multiply_band(n: usize, lo: usize, hi: usize, a_band: &[i32], b: &[i32]) -> Vec<i32> {
    let rows = hi - lo;
    let mut c = vec![0i32; rows * n];
    for r in 0..rows {
        for k in 0..n {
            let aik = a_band[r * n + k];
            for j in 0..n {
                c[r * n + j] = c[r * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
            }
        }
    }
    c
}

/// Runs the Munin version and returns the measurement and the output matrix
/// (read from the root, where the `result` protocol flushed it).
pub fn run_munin(
    params: MatmulParams,
    cost: CostModel,
) -> munin_core::Result<(RunMeasurement, Vec<i32>)> {
    let n = params.n;
    let mut cfg = MuninConfig::paper(params.procs)
        .with_cost(cost)
        .with_page_size(params.page_size)
        .with_engine(params.engine)
        .with_access_mode(params.access_mode)
        .with_piggyback(params.piggyback);
    if let Some(ann) = params.annotation_override {
        cfg = cfg.with_annotation_override(ann);
    }
    if let Some(r) = params.reliability {
        cfg = cfg.with_reliability(r);
    }
    if let Some(p) = params.retransmit_pacing {
        cfg = cfg.with_retransmit_pacing(p);
    }
    if let Some(w) = params.watchdog {
        cfg = cfg.with_watchdog(w);
    }
    if let Some(f) = params.flight_events {
        cfg = cfg.with_flight_events(f);
    }
    if let Some(d) = params.detect {
        cfg = cfg.with_detect(d);
    }
    let mut prog = MuninProgram::new(cfg);
    let input1 = prog.declare::<i32>("input1", n * n, SharingAnnotation::ReadOnly);
    let input2 = prog.declare::<i32>("input2", n * n, SharingAnnotation::ReadOnly);
    let output = prog.declare::<i32>("output", n * n, SharingAnnotation::Result);
    let done = prog.create_barrier("done");
    prog.user_init(move |init| {
        let zero_row = vec![0i32; n];
        for i in 0..n {
            let row_a: Vec<i32> = (0..n).map(|j| matmul_a(i, j)).collect();
            let row_b: Vec<i32> = (0..n).map(|j| matmul_b(i, j)).collect();
            init.write_slice(&input1, i * n, &row_a).unwrap();
            init.write_slice(&input2, i * n, &row_b).unwrap();
            // The output is cleared by the root, which therefore holds a copy
            // of every output page — it is the eventual consumer of the
            // results under every protocol.
            init.write_slice(&output, i * n, &zero_row).unwrap();
        }
    });
    let report = prog.run(move |ctx| {
        let me = ctx.node_id();
        let (lo, hi) = partition(n, ctx.nodes(), me);
        if lo < hi {
            // Page in the band of input1 and all of input2 on first access.
            let a_band = ctx.read_slice(&input1, lo * n, (hi - lo) * n)?;
            let b = ctx.read_slice(&input2, 0, n * n)?;
            let c_band = multiply_band(n, lo, hi, &a_band, &b);
            ctx.compute(((hi - lo) * n * n) as u64 * OPS_PER_MAC);
            ctx.write_slice(&output, lo * n, &c_band)?;
        }
        // The barrier is a release: the worker's band is flushed to the root.
        ctx.wait_at_barrier(done)?;
        if me == 0 {
            // The root consumes the whole result. Under the `result`
            // annotation (and under write-shared) its copy is already
            // current; under a forced conventional protocol this read pulls
            // the bands back from the workers page by page.
            let _ = ctx.read_slice(&output, 0, n * n)?;
        }
        Ok(())
    })?;
    if let Some(err) = report.first_error() {
        return Err(err.clone());
    }
    let measurement = RunMeasurement::new(
        if params.annotation_override.is_some() {
            "munin/forced"
        } else {
            "munin"
        },
        params.procs,
        report.elapsed,
        report.root_times(),
        report.net.clone(),
    )
    .with_stats(report.stats_total())
    .with_engine_stats(report.engine_stats.clone())
    .with_obs(report.obs_total())
    .with_trace_digest(report.trace_digest);
    let c = report.read_root_slice(&output);
    Ok((measurement, c))
}

/// Runs the hand-coded message-passing version: the root sends each worker
/// its band of `A` and all of `B` during initialization, each worker computes
/// its band and sends it back in a single result message — the data motion
/// the paper describes for the hand-coded program.
pub fn run_message_passing(
    params: MatmulParams,
    cost: CostModel,
) -> Result<(RunMeasurement, Vec<i32>), munin_sim::SimError> {
    let n = params.n;
    let procs = params.procs;
    let report = run_mp_program(procs, cost, |ctx| {
        let me = ctx.node_id();
        let (lo, hi) = partition(n, ctx.nodes(), me);
        if me == 0 {
            // Root: initialize the matrices (charged exactly like the Munin
            // version's user_init), distribute, compute its own band, gather.
            let a = matmul_a_matrix(n);
            let b = matmul_b_matrix(n);
            ctx.compute((3 * n * n) as u64);
            for w in 1..ctx.nodes() {
                let (wlo, whi) = partition(n, ctx.nodes(), w);
                if wlo >= whi {
                    continue;
                }
                let a_band: Vec<i64> = a[wlo * n..whi * n].iter().map(|x| *x as i64).collect();
                ctx.send(
                    w,
                    MpMsg::Ints {
                        tag: 1,
                        data: a_band,
                    },
                )
                .unwrap();
                let b_all: Vec<i64> = b.iter().map(|x| *x as i64).collect();
                ctx.send(
                    w,
                    MpMsg::Ints {
                        tag: 2,
                        data: b_all,
                    },
                )
                .unwrap();
            }
            let mut c = vec![0i32; n * n];
            if lo < hi {
                let band = multiply_band(n, lo, hi, &a[lo * n..hi * n], &b);
                ctx.compute(((hi - lo) * n * n) as u64 * OPS_PER_MAC);
                c[lo * n..hi * n].copy_from_slice(&band);
            }
            let mut received = 0;
            let workers_with_rows = (1..ctx.nodes())
                .filter(|w| {
                    let (wlo, whi) = partition(n, ctx.nodes(), *w);
                    wlo < whi
                })
                .count();
            while received < workers_with_rows {
                let (src, _tag, data) = ctx.recv_ints().unwrap();
                let (wlo, whi) = partition(n, ctx.nodes(), src);
                for (k, v) in data.iter().enumerate() {
                    c[wlo * n + k] = *v as i32;
                }
                debug_assert_eq!(data.len(), (whi - wlo) * n);
                received += 1;
            }
            c
        } else {
            if lo >= hi {
                return Vec::new();
            }
            let (_src, _tag, a_band) = ctx.recv_ints().unwrap();
            let (_src, _tag, b_all) = ctx.recv_ints().unwrap();
            let a_band: Vec<i32> = a_band.iter().map(|x| *x as i32).collect();
            let b: Vec<i32> = b_all.iter().map(|x| *x as i32).collect();
            let band = multiply_band(n, lo, hi, &a_band, &b);
            ctx.compute(((hi - lo) * n * n) as u64 * OPS_PER_MAC);
            let out: Vec<i64> = band.iter().map(|x| *x as i64).collect();
            ctx.send(0, MpMsg::Ints { tag: 3, data: out }).unwrap();
            Vec::new()
        }
    })?;
    let measurement = RunMeasurement::new(
        "message-passing",
        procs,
        report.elapsed,
        report.root_times(),
        report.net.clone(),
    );
    let c = report.results.into_iter().next().expect("root result");
    Ok((measurement, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 24;

    #[test]
    fn serial_matches_hand_computed_entry() {
        let c = serial(3);
        // c[0][0] = sum_k a(0,k)*b(k,0)
        let expected: i32 = (0..3).map(|k| matmul_a(0, k) * matmul_b(k, 0)).sum();
        assert_eq!(c[0], expected);
    }

    #[test]
    fn munin_result_matches_serial_on_multiple_nodes() {
        let params = MatmulParams::small(N, 4);
        let (_m, c) = run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(c, serial(N));
    }

    #[test]
    fn message_passing_matches_serial() {
        let params = MatmulParams::small(N, 4);
        let (_m, c) = run_message_passing(params, CostModel::fast_test()).unwrap();
        assert_eq!(c, serial(N));
    }

    #[test]
    fn forced_conventional_protocol_still_computes_correctly() {
        let mut params = MatmulParams::small(N, 3);
        params.annotation_override = Some(SharingAnnotation::Conventional);
        let (_m, c) = run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(c, serial(N));
    }

    #[test]
    fn forced_write_shared_protocol_still_computes_correctly() {
        let mut params = MatmulParams::small(N, 3);
        params.annotation_override = Some(SharingAnnotation::WriteShared);
        let (_m, c) = run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(c, serial(N));
    }

    #[test]
    fn single_processor_run_works() {
        let params = MatmulParams::small(N, 1);
        let (m, c) = run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(c, serial(N));
        assert_eq!(m.procs, 1);
        // A single-processor run exchanges no object data over the network.
        assert_eq!(m.net.class("object_data").msgs, 0);
    }

    #[test]
    fn each_worker_sends_one_result_update_to_the_root() {
        // "After initialization each worker thread transmits only a single
        // result message back to the root node."
        let params = MatmulParams::small(N, 4);
        let (m, _c) = run_munin(params, CostModel::fast_test()).unwrap();
        // Workers 1..4 each send exactly one update transmission at the
        // final barrier (the root's own band needs none); the DUQ combines
        // all of a worker's modified output pages into that single
        // transmission, which rides the barrier-arrive carrier instead of a
        // standalone update message.
        assert_eq!(m.stats.updates_sent, 3);
    }
}
