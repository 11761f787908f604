//! Successive Over-Relaxation (Section 4.2 of the paper).
//!
//! The grid is divided into horizontal sections, one worker per section.
//! Each iteration every interior element is replaced by the average of its
//! four nearest neighbours; the scratch-array method is used (new values are
//! computed into a private scratch buffer, then copied back into the shared
//! matrix), and workers synchronize at barriers. The shared matrix is
//! annotated:
//!
//! ```text
//! shared producer_consumer float matrix[ROWS][COLS];
//! ```
//!
//! Newly computed values at section boundaries are exchanged with the
//! adjacent sections at the end of each iteration; this producer-consumer
//! relationship is stable, so after the first iteration Munin knows exactly
//! which nodes need each boundary page and sends one update message per
//! neighbour per iteration.

use munin_core::{MuninConfig, MuninProgram, SharingAnnotation};
use munin_msgpass::{run_mp_program, MpMsg};
use munin_sim::CostModel;

use crate::measure::RunMeasurement;
use crate::workloads::{partition, sor_initial, sor_interior, SOR_SIDES};

/// Abstract operations charged per grid element per iteration (four adds and
/// one divide, costed as floating-point work on a 1991-class workstation —
/// see `DESIGN.md`).
const OPS_PER_ELEMENT: u64 = 5 * FLOAT_OP_WEIGHT;
/// Weight of one floating-point operation in abstract (integer-op) units.
const FLOAT_OP_WEIGHT: u64 = 8;

/// Parameters of an SOR experiment.
#[derive(Clone, Copy, Debug)]
pub struct SorParams {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Number of iterations.
    pub iterations: usize,
    /// Number of processors.
    pub procs: usize,
    /// Force every shared variable to one annotation (Table 6).
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
    /// Overrides the adaptive-relay size threshold
    /// (`MUNIN_RELAY_MAX_BYTES`); `None` keeps the config default / env.
    pub relay_max_bytes: Option<u64>,
    /// Overrides the barrier tree's fan-in (`MUNIN_BARRIER_FANOUT`):
    /// `Some(k)` forces a k-ary tree, `Some(usize::MAX)` the star (every
    /// node reports straight to the owner), `None` keeps the auto policy
    /// (the star below 32 nodes, k = 8 from there up).
    pub barrier_fanout: Option<usize>,
}

impl SorParams {
    /// The configuration used for the reproduction of Table 5.
    pub fn paper(procs: usize) -> Self {
        SorParams {
            rows: 1024,
            cols: 512,
            iterations: 20,
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
            relay_max_bytes: None,
            barrier_fanout: None,
        }
    }

    /// A small instance for tests.
    pub fn small(rows: usize, cols: usize, iterations: usize, procs: usize) -> Self {
        SorParams {
            rows,
            cols,
            iterations,
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
            relay_max_bytes: None,
            barrier_fanout: None,
        }
    }
}

/// Serial reference implementation (scratch-array method).
pub fn serial(rows: usize, cols: usize, iterations: usize) -> Vec<f64> {
    let mut grid = sor_initial(rows, cols);
    let mut scratch = grid.clone();
    for _ in 0..iterations {
        for i in 1..rows - 1 {
            for j in 1..cols - 1 {
                scratch[i * cols + j] = (grid[(i - 1) * cols + j]
                    + grid[(i + 1) * cols + j]
                    + grid[i * cols + j - 1]
                    + grid[i * cols + j + 1])
                    / 4.0;
            }
        }
        for i in 1..rows - 1 {
            for j in 1..cols - 1 {
                grid[i * cols + j] = scratch[i * cols + j];
            }
        }
    }
    grid
}

/// Computes one iteration's scratch values for the rows `[lo, hi)` of the
/// section, given the section's rows plus one ghost row on each side in
/// `window` (whose first row is global row `win_start`).
fn relax_section(
    cols: usize,
    rows_total: usize,
    lo: usize,
    hi: usize,
    window: &[f64],
    win_start: usize,
) -> Vec<f64> {
    let mut out = vec![0.0f64; (hi - lo) * cols];
    for gi in lo..hi {
        if gi == 0 || gi == rows_total - 1 {
            // Global boundary rows keep their fixed values.
            let w = gi - win_start;
            out[(gi - lo) * cols..(gi - lo + 1) * cols]
                .copy_from_slice(&window[w * cols..(w + 1) * cols]);
            continue;
        }
        let w = gi - win_start;
        for j in 0..cols {
            let idx = (gi - lo) * cols + j;
            if j == 0 || j == cols - 1 {
                out[idx] = window[w * cols + j];
            } else {
                out[idx] = (window[(w - 1) * cols + j]
                    + window[(w + 1) * cols + j]
                    + window[w * cols + j - 1]
                    + window[w * cols + j + 1])
                    / 4.0;
            }
        }
    }
    out
}

/// Runs the Munin version. Returns the measurement and the final grid
/// (assembled from the per-worker sections returned by the workers).
pub fn run_munin(
    params: SorParams,
    cost: CostModel,
) -> munin_core::Result<(RunMeasurement, Vec<f64>)> {
    let SorParams {
        rows,
        cols,
        iterations,
        procs,
        ..
    } = params;
    let mut cfg = MuninConfig::paper(procs)
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
    if let Some(t) = params.relay_max_bytes {
        cfg = cfg.with_relay_max_bytes(t);
    }
    if let Some(k) = params.barrier_fanout {
        cfg = cfg.with_barrier_fanout(k);
    }
    let mut prog = MuninProgram::new(cfg);
    let matrix = prog.declare::<f64>("matrix", rows * cols, SharingAnnotation::ProducerConsumer);
    let computed = prog.create_barrier("computed");
    let copied = prog.create_barrier("copied");
    prog.user_init(move |init| {
        // Only the fixed top and bottom boundary temperatures need writing:
        // the side boundaries are SOR_SIDES = 0.0, which is also the initial
        // content of untouched shared memory, so leaving them untouched keeps
        // the root out of the copysets of the interior pages (they stay
        // private to the worker that owns the section).
        debug_assert_eq!(SOR_SIDES, 0.0);
        let grid = sor_initial(rows, cols);
        init.write_slice(&matrix, 0, &grid[0..cols]).unwrap();
        init.write_slice(&matrix, (rows - 1) * cols, &grid[(rows - 1) * cols..])
            .unwrap();
    });
    let report = prog.run(move |ctx| {
        let me = ctx.node_id();
        let (lo, hi) = partition(rows, ctx.nodes(), me);
        // Parallel initialization phase: each worker fills the interior of
        // its own section with the initial temperature field (the fixed
        // boundary rows were set by user_init on the root). The sharing
        // relationships established by this phase differ from those of the
        // iteration phase, so the workers call PhaseChange() afterwards —
        // exactly the adaptive-phase use case of Section 2.4.
        for gi in lo..hi {
            if gi == 0 || gi == rows - 1 {
                continue;
            }
            let row: Vec<f64> = (0..cols)
                .map(|j| {
                    if j == 0 || j == cols - 1 {
                        SOR_SIDES
                    } else {
                        sor_interior(gi, j)
                    }
                })
                .collect();
            ctx.write_slice(&matrix, gi * cols, &row)?;
        }
        ctx.compute(((hi - lo) * cols) as u64);
        ctx.wait_at_barrier(copied)?;
        ctx.phase_change();
        let mut section: Vec<f64> = Vec::new();
        for _iter in 0..iterations {
            // Compute phase: read the section plus one ghost row on each side
            // (read-faulting pages in on the first iteration only).
            let win_start = lo.saturating_sub(1);
            let win_end = (hi + 1).min(rows);
            let window = ctx.read_slice(&matrix, win_start * cols, (win_end - win_start) * cols)?;
            let scratch = relax_section(cols, rows, lo, hi, &window, win_start);
            ctx.compute(((hi - lo) * cols) as u64 * OPS_PER_ELEMENT);
            ctx.wait_at_barrier(computed)?;
            // Copy phase: write the newly computed values back into the
            // shared matrix (write-faulting to create twins), then release at
            // the barrier, which flushes the boundary updates to the
            // neighbouring sections.
            ctx.write_slice(&matrix, lo * cols, &scratch)?;
            ctx.compute(((hi - lo) * cols) as u64);
            section = scratch;
            ctx.wait_at_barrier(copied)?;
        }
        Ok(section)
    })?;
    if let Some(err) = report.first_error() {
        return Err(err.clone());
    }
    let mut grid = sor_initial(rows, cols);
    for (w, result) in report.results.iter().enumerate() {
        let (lo, hi) = partition(rows, procs, w);
        let section = result.as_ref().expect("checked above");
        if iterations > 0 && lo < hi {
            grid[lo * cols..hi * cols].copy_from_slice(section);
        }
    }
    let measurement = RunMeasurement::new(
        match params.annotation_override {
            Some(_) => "munin/forced",
            None => "munin",
        },
        procs,
        report.elapsed,
        report.root_times(),
        report.net.clone(),
    )
    .with_stats(report.stats_total())
    .with_engine_stats(report.engine_stats.clone())
    .with_obs(report.obs_total())
    .with_trace_digest(report.trace_digest);
    Ok((measurement, grid))
}

/// Runs the hand-coded message-passing version: the root scatters row bands,
/// neighbours exchange boundary rows each iteration, and the root gathers the
/// final grid.
pub fn run_message_passing(
    params: SorParams,
    cost: CostModel,
) -> Result<(RunMeasurement, Vec<f64>), munin_sim::SimError> {
    let SorParams {
        rows,
        cols,
        iterations,
        procs,
        ..
    } = params;
    // Message tags: the root's initial band, a boundary row sent to the
    // section above / below, a worker's final band.
    const BAND: u32 = 0;
    const ROW_UP: u32 = 1;
    const ROW_DOWN: u32 = 2;
    const RESULT: u32 = 3;
    let report = run_mp_program(procs, cost, |ctx| {
        let me = ctx.node_id();
        let nodes = ctx.nodes();
        let (lo, hi) = partition(rows, nodes, me);
        // Distribute the initial grid: the root computes it and sends each
        // worker its band (ghost rows are exchanged per iteration).
        //
        // Every receive below names the sender and tag it is waiting for. A
        // neighbour that already has its band sends its first ghost row at
        // once, ahead of the root's 1 MB band; a neighbour may run an
        // iteration ahead; distant workers may finish, and send their final
        // bands, while the root is still iterating. `MpCtx` sets all of those
        // aside until they are asked for, and only then do they count as
        // waited for.
        let mut band: Vec<f64> = if me == 0 {
            let grid = sor_initial(rows, cols);
            ctx.compute((2 * cols + rows) as u64);
            for w in 1..nodes {
                let (wlo, whi) = partition(rows, nodes, w);
                ctx.send(
                    w,
                    MpMsg::Floats {
                        tag: BAND,
                        data: grid[wlo * cols..whi * cols].to_vec(),
                    },
                )
                .unwrap();
            }
            grid[lo * cols..hi * cols].to_vec()
        } else {
            ctx.recv_floats_from(0, BAND).unwrap()
        };
        for _iter in 0..iterations {
            // Exchange boundary rows with neighbours (send first, then
            // receive: channels are buffered so this cannot deadlock).
            if me > 0 {
                ctx.send(
                    me - 1,
                    MpMsg::Floats {
                        tag: ROW_UP,
                        data: band[0..cols].to_vec(),
                    },
                )
                .unwrap();
            }
            if me + 1 < nodes {
                ctx.send(
                    me + 1,
                    MpMsg::Floats {
                        tag: ROW_DOWN,
                        data: band[(hi - lo - 1) * cols..].to_vec(),
                    },
                )
                .unwrap();
            }
            // Build the window (ghost row + band + ghost row) and relax.
            let win_start = lo.saturating_sub(1);
            let win_end = (hi + 1).min(rows);
            let mut window = Vec::with_capacity((win_end - win_start) * cols);
            if me > 0 {
                window.extend(ctx.recv_floats_from(me - 1, ROW_DOWN).unwrap());
            }
            window.extend_from_slice(&band);
            if me + 1 < nodes {
                window.extend(ctx.recv_floats_from(me + 1, ROW_UP).unwrap());
            }
            let scratch = relax_section(cols, rows, lo, hi, &window, win_start);
            ctx.compute(((hi - lo) * cols) as u64 * OPS_PER_ELEMENT);
            band = scratch;
            ctx.compute(((hi - lo) * cols) as u64);
        }
        // Gather the final grid at the root.
        if me == 0 {
            let mut grid = sor_initial(rows, cols);
            grid[lo * cols..hi * cols].copy_from_slice(&band);
            for w in 1..nodes {
                let (wlo, whi) = partition(rows, nodes, w);
                let data = ctx.recv_floats_from(w, RESULT).unwrap();
                grid[wlo * cols..whi * cols].copy_from_slice(&data[..(whi - wlo) * cols]);
            }
            grid
        } else {
            ctx.send(
                0,
                MpMsg::Floats {
                    tag: RESULT,
                    data: band,
                },
            )
            .unwrap();
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
    let grid = report.results.into_iter().next().expect("root result");
    Ok((measurement, grid))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn serial_sor_converges_towards_boundary_average() {
        let grid = serial(16, 16, 200);
        // Interior values must lie between the boundary temperatures.
        for i in 1..15 {
            for j in 1..15 {
                let v = grid[i * 16 + j];
                assert!((0.0..=100.0).contains(&v), "value {v} out of range");
            }
        }
        // The row adjacent to the hot boundary is warmer than the one
        // adjacent to the cold boundary.
        assert!(grid[16 + 8] > grid[14 * 16 + 8]);
    }

    #[test]
    fn munin_sor_matches_serial() {
        let params = SorParams::small(24, 16, 4, 3);
        let (_m, grid) = run_munin(params, CostModel::fast_test()).unwrap();
        assert!(close(&grid, &serial(24, 16, 4)));
    }

    #[test]
    fn munin_sor_single_processor_matches_serial() {
        let params = SorParams::small(12, 8, 3, 1);
        let (_m, grid) = run_munin(params, CostModel::fast_test()).unwrap();
        assert!(close(&grid, &serial(12, 8, 3)));
    }

    #[test]
    fn message_passing_sor_matches_serial() {
        let params = SorParams::small(24, 16, 4, 3);
        let (_m, grid) = run_message_passing(params, CostModel::fast_test()).unwrap();
        assert!(close(&grid, &serial(24, 16, 4)));
    }

    /// Paper-sized bands (what `table5_sor` runs): the root is still copying
    /// out a worker's 1 MB band when that worker's neighbour, band in hand,
    /// sends its first ghost row — so the row is delivered first.
    #[test]
    fn message_passing_sor_matches_serial_when_ghost_rows_beat_the_band() {
        let reference = serial(1024, 512, 2);
        for procs in [2, 4, 8] {
            let params = SorParams::small(1024, 512, 2, procs);
            let (_m, grid) = run_message_passing(params, CostModel::sun_ethernet_1991()).unwrap();
            assert!(close(&grid, &reference), "{procs} processes");
        }
    }

    #[test]
    fn forced_conventional_sor_is_correct_but_chattier() {
        let small = SorParams::small(24, 16, 3, 3);
        let (multi, grid) = run_munin(small, CostModel::fast_test()).unwrap();
        let mut forced = small;
        forced.annotation_override = Some(SharingAnnotation::Conventional);
        let (conv, grid2) = run_munin(forced, CostModel::fast_test()).unwrap();
        assert!(close(&grid, &grid2));
        // A conventional page's first write is a transfer, and from an owner
        // that never materialised it a zero-filled one: still the right grid.
        assert!(close(&grid2, &serial(24, 16, 3)));
        // Under the single-writer write-invalidate protocol the consumers
        // re-fault their neighbours' boundary pages every iteration, whereas
        // the producer-consumer protocol faults them in once and then pushes
        // updates.
        assert!(
            conv.net.class("object_fetch").msgs > multi.net.class("object_fetch").msgs,
            "conventional fetches = {}, multi-protocol fetches = {}",
            conv.net.class("object_fetch").msgs,
            multi.net.class("object_fetch").msgs
        );
    }

    #[test]
    fn stable_sharing_limits_updates_to_adjacent_sections() {
        // "After the first iteration ... updates to shared portions of the
        // matrix (the edge elements of each section) are propagated only to
        // those nodes that require the updated data (those nodes handling
        // adjacent sections)."
        let params = SorParams::small(32, 16, 6, 4);
        let (m, _grid) = run_munin(params, CostModel::fast_test()).unwrap();
        // Count update *transmissions* from the runtime stats: most of them
        // ride barrier carriers instead of standalone `update`-class messages, but the fan-out
        // economy the annotation buys is the same.
        let updates = m.stats.updates_sent;
        // Each worker sends roughly one update per neighbouring section per
        // iteration (plus the global-boundary pages the root also holds) —
        // far fewer than "every page to every other node" (which would be
        // 4 workers × 2 pages × 3 peers × 6 iterations = 144).
        assert!(updates >= 30, "updates = {updates}");
        assert!(updates <= 80, "updates = {updates}");

        // No flush asks anyone for a copyset: an owner's recorded copyset is
        // authoritative, and a non-owned page goes to its owner.
        let queries = m.net.class("copyset_query").msgs;
        assert_eq!(queries, 0, "copyset queries = {queries}");
    }
}
