//! The four workloads: what each runs, how its inputs follow from the seed,
//! and how its output is checked. Every workload runs on 4 nodes under
//! `CostModel::sun_ethernet_1991`, explicit-check access mode, reliability
//! off and the carrier layer on; every configuration field that an
//! environment variable could set is set here instead.

use std::time::{Duration, Instant};

use munin_apps::{matmul, sor, RunMeasurement};
use munin_core::{
    AccessMode, MuninConfig, MuninProgram, MuninReport, SharingAnnotation, WorkerCtx,
};
use munin_sim::{CostModel, EngineConfig};

use crate::spans::{ns_since, CallTimer, WorkerLog};

/// Nodes of every workload. Two nodes make `locks` bimodal in host time
/// (wall-clock wait slices); four is steadier and still fits two cores.
pub const NODES: usize = 4;

/// Flight-recorder capacity per node: the default ring untraced, a ring
/// that holds a whole run when traced.
const FLIGHT_EVENTS_UNTRACED: usize = 256;
const FLIGHT_EVENTS_TRACED: usize = 65_536;

/// A stall becomes a structured error well inside the block's wall timeout.
const WATCHDOG: Duration = Duration::from_secs(15);

/// `wshared`: one `write_shared i32[16384]` is 8 pages of 8 KB.
const WSHARED_WORDS: usize = 16_384;
const WSHARED_ROUNDS: usize = 16;

/// `locks`: critical sections per node, record size in words.
const LOCKS_ITERS: usize = 512;
const LOCKS_RECORD_WORDS: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Matmul,
    Sor,
    Wshared,
    Locks,
}

pub const ALL: [Workload; 4] = [
    Workload::Matmul,
    Workload::Sor,
    Workload::Wshared,
    Workload::Locks,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Matmul => "matmul",
            Workload::Sor => "sor",
            Workload::Wshared => "wshared",
            Workload::Locks => "locks",
        }
    }

    /// Whether the benchmark owns the program (and so can time its calls
    /// into `WorkerCtx`), or runs one of `munin_apps` as a whole.
    pub fn owned(self) -> bool {
        matches!(self, Workload::Wshared | Workload::Locks)
    }

    /// Whether `munin_apps` has a hand-coded message-passing version.
    pub fn has_msgpass(self) -> bool {
        !self.owned()
    }
}

/// How one execution is to run.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Time origin of host spans.
    pub epoch: Instant,
    /// Traced executions record `api.*` calls, keep a whole-run flight ring
    /// and export a Perfetto file to this path.
    pub trace_out: Option<String>,
}

impl RunCfg {
    fn traced(&self) -> bool {
        self.trace_out.is_some()
    }

    fn flight_events(&self) -> usize {
        if self.traced() {
            FLIGHT_EVENTS_TRACED
        } else {
            FLIGHT_EVENTS_UNTRACED
        }
    }

    fn call_epoch(&self) -> Option<Instant> {
        self.traced().then_some(self.epoch)
    }

    /// Configuration of the owned programs, every field explicit.
    fn munin_config(&self) -> MuninConfig {
        let mut cfg = MuninConfig {
            detect: None,
            trace_out: None,
            barrier_fanout: None,
            relay_max_bytes: munin_core::config::DEFAULT_RELAY_MAX_BYTES,
            retransmit_pacing: munin_core::config::DEFAULT_RETRANSMIT_PACING,
            ..MuninConfig::paper(NODES)
        }
        .with_cost(CostModel::sun_ethernet_1991())
        .with_engine(EngineConfig::seeded(self.seed))
        .with_access_mode(AccessMode::Explicit)
        .with_piggyback(true)
        .with_reliability(false)
        .with_watchdog(WATCHDOG)
        .with_flight_events(self.flight_events());
        if let Some(path) = &self.trace_out {
            cfg = cfg.with_trace_out(path.clone());
        }
        cfg
    }

    /// The effective configuration, printed with the results.
    pub fn describe(&self, workload: Workload) -> String {
        let size = match workload {
            Workload::Matmul => "matmul 400x400 i32".to_string(),
            Workload::Sor => "sor 1024x512 f64 x20 iterations".to_string(),
            Workload::Wshared => format!(
                "wshared write_shared i32[{WSHARED_WORDS}] x{WSHARED_ROUNDS} rounds"
            ),
            Workload::Locks => format!(
                "locks {LOCKS_ITERS} critical sections per node, migratory i32[{LOCKS_RECORD_WORDS}] + reduction i64"
            ),
        };
        // Read back from the configuration itself, so the line cannot drift
        // from what runs (the library apps get the same values through
        // their `..Params`).
        let c = self.munin_config();
        format!(
            "{size}; nodes={} cost=sun_ethernet_1991 page={} engine=seeded({}) mode={:?} \
             faults={} access={:?} piggyback={} reliability={:?} copyset={:?} \
             relay_max_bytes={} barrier_fanout={:?} detect={:?} watchdog={:?} \
             flight_events={} trace_out={:?}",
            c.nodes,
            c.page_size,
            c.engine.seed,
            c.engine.mode,
            if c.engine.faults == munin_sim::FaultPlan::none() {
                "none"
            } else {
                "some"
            },
            c.access_mode,
            c.piggyback,
            c.reliability,
            c.copyset_strategy,
            c.relay_max_bytes,
            c.effective_barrier_fanout(),
            c.detection(),
            c.watchdog,
            c.effective_flight_events(),
            c.trace_out,
        )
    }
}

/// What set-up leaves behind for every execution of a block: the expected
/// output, computed serially.
pub enum Prepared {
    Matmul { expected: Vec<i32> },
    Sor { expected: Vec<f64> },
    Wshared { expected: Vec<i64> },
    Locks { deltas: Vec<i32>, add: i64 },
}

/// One completed execution, before its output has been checked.
pub struct Execution {
    pub measurement: RunMeasurement,
    /// Host interval of the execution: program build → report.
    pub run_ns: (u64, u64),
    /// Named host sub-intervals of the run, in order.
    pub phases: Vec<(&'static str, u64, u64)>,
    pub workers: Vec<WorkerLog>,
    output: Output,
}

enum Output {
    Matmul(Vec<i32>),
    Sor(Vec<f64>),
    Wshared(Vec<Vec<i64>>),
    Locks { record: Vec<i32>, counter: i64 },
}

/// A value pattern that follows from the seed alone.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `wshared`: the word every writer stores at index `i` in `round`
/// (round 0 is the root's initial fill).
fn wshared_value(seed: u64, round: usize, i: usize) -> i32 {
    mix(seed, round as u64, i as u64) as i32
}

fn checksum(words: &[i32]) -> i64 {
    words
        .iter()
        .fold(0i64, |acc, w| acc.wrapping_add(i64::from(*w)))
}

pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    match workload {
        Workload::Matmul => Prepared::Matmul {
            expected: matmul::serial(matmul::MatmulParams::paper(NODES).n),
        },
        Workload::Sor => {
            let p = sor::SorParams::paper(NODES);
            Prepared::Sor {
                expected: sor::serial(p.rows, p.cols, p.iterations),
            }
        }
        Workload::Wshared => Prepared::Wshared {
            // After round r every word holds round r's value, so every
            // node's checksum has this closed form.
            expected: (0..=WSHARED_ROUNDS)
                .map(|round| {
                    (0..WSHARED_WORDS).fold(0i64, |acc, i| {
                        acc.wrapping_add(i64::from(wshared_value(seed, round, i)))
                    })
                })
                .collect(),
        },
        Workload::Locks => Prepared::Locks {
            deltas: (0..LOCKS_RECORD_WORDS)
                .map(|k| 1 + (mix(seed, 1, k as u64) % 7) as i32)
                .collect(),
            add: 1 + (mix(seed, 2, 0) % 5) as i64,
        },
    }
}

pub fn execute(workload: Workload, prepared: &Prepared, cfg: &RunCfg) -> Result<Execution, String> {
    match (workload, prepared) {
        (Workload::Matmul, Prepared::Matmul { .. }) => run_matmul(cfg),
        (Workload::Sor, Prepared::Sor { .. }) => run_sor(cfg),
        (Workload::Wshared, Prepared::Wshared { .. }) => run_wshared(cfg),
        (Workload::Locks, Prepared::Locks { deltas, add }) => run_locks(cfg, deltas, *add),
        _ => Err("set-up does not belong to this workload".into()),
    }
}

/// Checks an execution's output against what set-up computed.
pub fn check(prepared: &Prepared, exec: &Execution) -> Result<(), String> {
    match (prepared, &exec.output) {
        (Prepared::Matmul { expected }, Output::Matmul(c)) => {
            if c == expected {
                Ok(())
            } else {
                Err("matmul: product differs from the serial reference".into())
            }
        }
        (Prepared::Sor { expected }, Output::Sor(grid)) => {
            let worst = grid
                .iter()
                .zip(expected)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            if grid.len() == expected.len() && worst <= 1e-9 {
                Ok(())
            } else {
                Err(format!(
                    "sor: grid differs from the serial reference by {worst:e}"
                ))
            }
        }
        (Prepared::Wshared { expected }, Output::Wshared(per_node)) => {
            for (node, sums) in per_node.iter().enumerate() {
                if sums != expected {
                    let round = sums.iter().zip(expected).position(|(a, b)| a != b);
                    return Err(format!(
                        "wshared: node {node} read a wrong checksum after round {round:?}"
                    ));
                }
            }
            Ok(())
        }
        (Prepared::Locks { deltas, add }, Output::Locks { record, counter }) => {
            let sections = (LOCKS_ITERS * NODES) as i64;
            let want: Vec<i32> = deltas.iter().map(|d| d * sections as i32).collect();
            if *record != want {
                return Err(format!("locks: record is {record:?}, expected {want:?}"));
            }
            if *counter != add * sections {
                return Err(format!(
                    "locks: counter is {counter}, expected {}",
                    add * sections
                ));
            }
            Ok(())
        }
        _ => Err("output does not belong to this workload".into()),
    }
}

fn run_matmul(cfg: &RunCfg) -> Result<Execution, String> {
    let params = matmul::MatmulParams {
        engine: EngineConfig::seeded(cfg.seed),
        access_mode: AccessMode::Explicit,
        piggyback: true,
        reliability: Some(false),
        watchdog: Some(WATCHDOG),
        flight_events: Some(cfg.flight_events()),
        ..matmul::MatmulParams::paper(NODES)
    };
    let start = ns_since(cfg.epoch);
    let (measurement, c) = matmul::run_munin(params, CostModel::sun_ethernet_1991())
        .map_err(|e| format!("matmul: {e}"))?;
    let end = ns_since(cfg.epoch);
    Ok(Execution {
        measurement,
        run_ns: (start, end),
        phases: vec![("run_munin", start, end)],
        workers: Vec::new(),
        output: Output::Matmul(c),
    })
}

fn run_sor(cfg: &RunCfg) -> Result<Execution, String> {
    let params = sor::SorParams {
        engine: EngineConfig::seeded(cfg.seed),
        access_mode: AccessMode::Explicit,
        piggyback: true,
        reliability: Some(false),
        watchdog: Some(WATCHDOG),
        flight_events: Some(cfg.flight_events()),
        relay_max_bytes: Some(munin_core::config::DEFAULT_RELAY_MAX_BYTES),
        ..sor::SorParams::paper(NODES)
    };
    let start = ns_since(cfg.epoch);
    let (measurement, grid) =
        sor::run_munin(params, CostModel::sun_ethernet_1991()).map_err(|e| format!("sor: {e}"))?;
    let end = ns_since(cfg.epoch);
    Ok(Execution {
        measurement,
        run_ns: (start, end),
        phases: vec![("run_munin", start, end)],
        workers: Vec::new(),
        output: Output::Sor(grid),
    })
}

/// Turns the report of an owned program into the record the library apps
/// return; `output` makes the checked output from the per-worker values.
fn finish_owned<T>(
    cfg: &RunCfg,
    build_start: u64,
    cluster_start: u64,
    report: MuninReport<(T, WorkerLog)>,
    output: impl FnOnce(Vec<T>) -> Result<Output, String>,
) -> Result<Execution, String> {
    let end = ns_since(cfg.epoch);
    if let Some(err) = report.first_error() {
        return Err(err.to_string());
    }
    let measurement = RunMeasurement::new(
        "munin",
        NODES,
        report.elapsed,
        report.root_times(),
        report.net.clone(),
    )
    .with_stats(report.stats_total())
    .with_engine_stats(report.engine_stats.clone())
    .with_obs(report.obs_total());
    let mut values = Vec::with_capacity(NODES);
    let mut workers = Vec::with_capacity(NODES);
    for r in report.results {
        let (v, log) = r.map_err(|e| e.to_string())?;
        values.push(v);
        workers.push(log);
    }
    Ok(Execution {
        measurement,
        run_ns: (build_start, end),
        phases: vec![
            ("build", build_start, cluster_start),
            ("cluster", cluster_start, end),
        ],
        workers,
        output: output(values)?,
    })
}

/// `wshared`: N writers per page. Every node first reads the whole array
/// (so every page has a copyset of all four nodes before the first flush —
/// without this warm-up a first-touch write fault races other nodes' first
/// flush, see README "Hazards"), then 16 rounds of: write the words with
/// `i % nodes == me`; barrier; read everything and checksum; barrier.
fn run_wshared(cfg: &RunCfg) -> Result<Execution, String> {
    let seed = cfg.seed;
    let call_epoch = cfg.call_epoch();
    let build_start = ns_since(cfg.epoch);
    let mut prog = MuninProgram::new(cfg.munin_config());
    let array = prog.declare::<i32>("array", WSHARED_WORDS, SharingAnnotation::WriteShared);
    let written = prog.create_barrier("written");
    let read = prog.create_barrier("read");
    prog.user_init(move |init| {
        let fill: Vec<i32> = (0..WSHARED_WORDS)
            .map(|i| wshared_value(seed, 0, i))
            .collect();
        init.write_slice(&array, 0, &fill).expect("in range");
    });
    let cluster_start = ns_since(cfg.epoch);
    let report = prog
        .run(move |ctx: &WorkerCtx<'_>| {
            let me = ctx.node_id();
            let nodes = ctx.nodes();
            let t = CallTimer::start(call_epoch, me);
            let mut sums = Vec::with_capacity(WSHARED_ROUNDS + 1);
            let warm = t.time("api.read_slice", 1, || {
                ctx.read_slice(&array, 0, WSHARED_WORDS)
            })?;
            sums.push(checksum(&warm));
            t.time("api.barrier", 1, || ctx.wait_at_barrier(read))?;
            for round in 1..=WSHARED_ROUNDS {
                let mine = (WSHARED_WORDS - me).div_ceil(nodes) as u32;
                t.time("api.write", mine, || {
                    for i in (me..WSHARED_WORDS).step_by(nodes) {
                        ctx.write(&array, i, wshared_value(seed, round, i))?;
                    }
                    Ok::<(), munin_core::MuninError>(())
                })?;
                ctx.compute(u64::from(mine));
                t.time("api.barrier", 1, || ctx.wait_at_barrier(written))?;
                let all = t.time("api.read_slice", 1, || {
                    ctx.read_slice(&array, 0, WSHARED_WORDS)
                })?;
                sums.push(checksum(&all));
                ctx.compute(WSHARED_WORDS as u64);
                t.time("api.barrier", 1, || ctx.wait_at_barrier(read))?;
            }
            Ok((sums, t.finish()))
        })
        .map_err(|e| format!("wshared: {e}"))?;
    finish_owned(cfg, build_start, cluster_start, report, |sums| {
        Ok(Output::Wshared(sums))
    })
    .map_err(|e| format!("wshared: {e}"))
}

/// `locks`: a migratory record that travels with its lock, and a reduction
/// counter. Each node runs 512 × { acquire; read and write the record;
/// release; fetch-and-add; compute }, then a barrier; the root then reads
/// both under the lock.
fn run_locks(cfg: &RunCfg, deltas: &[i32], add: i64) -> Result<Execution, String> {
    let call_epoch = cfg.call_epoch();
    let build_start = ns_since(cfg.epoch);
    let mut prog = MuninProgram::new(cfg.munin_config());
    let record = prog.declare::<i32>("record", LOCKS_RECORD_WORDS, SharingAnnotation::Migratory);
    let counter = prog.declare::<i64>("counter", 1, SharingAnnotation::Reduction);
    let lock = prog.create_lock("record_lock");
    prog.associate_data_and_synch(lock, &record);
    let done = prog.create_barrier("done");
    prog.user_init(move |init| {
        init.write_slice(&record, 0, &[0i32; LOCKS_RECORD_WORDS])
            .expect("in range");
        init.write(&counter, 0, 0i64).expect("in range");
    });
    let deltas = deltas.to_vec();
    let cluster_start = ns_since(cfg.epoch);
    let report = prog
        .run(move |ctx: &WorkerCtx<'_>| {
            let t = CallTimer::start(call_epoch, ctx.node_id());
            for _ in 0..LOCKS_ITERS {
                t.time("api.lock_acquire", 1, || ctx.acquire_lock(lock))?;
                let mut rec = t.time("api.read_slice", 1, || {
                    ctx.read_slice(&record, 0, LOCKS_RECORD_WORDS)
                })?;
                for (word, delta) in rec.iter_mut().zip(&deltas) {
                    *word += delta;
                }
                t.time("api.write", 1, || ctx.write_slice(&record, 0, &rec))?;
                ctx.compute(200);
                t.time("api.lock_release", 1, || ctx.release_lock(lock))?;
                t.time("api.fetch_add", 1, || {
                    ctx.fetch_and_add_i64(&counter, 0, add)
                })?;
                ctx.compute(2000);
            }
            t.time("api.barrier", 1, || ctx.wait_at_barrier(done))?;
            let mut last = None;
            if ctx.node_id() == 0 {
                t.time("api.lock_acquire", 1, || ctx.acquire_lock(lock))?;
                let rec = t.time("api.read_slice", 1, || {
                    ctx.read_slice(&record, 0, LOCKS_RECORD_WORDS)
                })?;
                t.time("api.lock_release", 1, || ctx.release_lock(lock))?;
                last = Some((rec, ctx.read(&counter, 0)?));
            }
            Ok((last, t.finish()))
        })
        .map_err(|e| format!("locks: {e}"))?;
    finish_owned(cfg, build_start, cluster_start, report, |mut finals| {
        let (record, counter) = finals
            .swap_remove(0)
            .ok_or("the root returned no final values")?;
        Ok(Output::Locks { record, counter })
    })
    .map_err(|e| format!("locks: {e}"))
}

/// Outcome of the hand-coded message-passing version of a library app.
pub struct MsgpassRun {
    pub virt_elapsed_s: f64,
    pub wire_msgs: u64,
    pub wire_bytes: u64,
}

/// Runs and checks the message-passing reference (its own child process:
/// `sor`'s panics and then hangs at 4 nodes, see README "Hazards").
pub fn run_msgpass(workload: Workload) -> Result<MsgpassRun, String> {
    let cost = CostModel::sun_ethernet_1991();
    let measurement = match workload {
        Workload::Matmul => {
            let params = matmul::MatmulParams::paper(NODES);
            let (m, c) = matmul::run_message_passing(params, cost).map_err(|e| e.to_string())?;
            if c != matmul::serial(params.n) {
                return Err("matmul message passing: wrong product".into());
            }
            m
        }
        Workload::Sor => {
            let params = sor::SorParams::paper(NODES);
            let (m, grid) = sor::run_message_passing(params, cost).map_err(|e| e.to_string())?;
            let expected = sor::serial(params.rows, params.cols, params.iterations);
            if grid.len() != expected.len()
                || grid
                    .iter()
                    .zip(&expected)
                    .any(|(a, b)| (a - b).abs() > 1e-9)
            {
                return Err("sor message passing: wrong grid".into());
            }
            m
        }
        _ => {
            return Err(format!(
                "{} has no message-passing version",
                workload.name()
            ))
        }
    };
    Ok(MsgpassRun {
        virt_elapsed_s: measurement.secs(),
        wire_msgs: measurement.net.total.msgs,
        wire_bytes: measurement.net.total.bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("tsp"), None);
    }

    #[test]
    fn inputs_follow_from_the_seed_alone() {
        let sums = |seed| match prepare(Workload::Wshared, seed) {
            Prepared::Wshared { expected } => expected,
            _ => unreachable!(),
        };
        assert_eq!(sums(7), sums(7));
        assert_ne!(sums(7), sums(8));
        assert_eq!(sums(7).len(), WSHARED_ROUNDS + 1);
    }
}
