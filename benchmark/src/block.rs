//! One block: a child process of the benchmark that sets a workload up,
//! warms it with one execution, then runs it closed-loop (one execution at a
//! time, one driver thread) for the block's window and prints what it saw as
//! one JSON line. A block is a process of its own so that it has its own
//! set-up time and peak memory, and so that a hang in the runtime costs the
//! parent a timeout, not the pipeline.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use munin_apps::RunMeasurement;
use munin_core::LatencyHist;

use crate::json::Json;
use crate::spans::{ns_since, Span, SpanStore, ACCESS_CALLS, SYNC_CALLS};
use crate::stats::median;
use crate::workloads::{self, Execution, Prepared, RunCfg, Workload};

/// Message classes reported by name; the rest of the wire is `other`.
pub const MSG_CLASSES: [&str; 12] = [
    "object_fetch",
    "object_data",
    "update",
    "update_ack",
    "relay_fanout",
    "relay_forward",
    "copyset_query",
    "lock_acquire",
    "lock_grant",
    "reduce_request",
    "barrier_arrive",
    "barrier_release",
];

pub struct BlockArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out_dir: String,
}

/// Process CPU time so far (user, system) in ms, from `/proc/self/stat`
/// (whole process, exited threads included; 10 ms ticks).
fn cpu_ms() -> (f64, f64) {
    const MS_PER_TICK: f64 = 10.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let utime = tick();
    let stime = tick();
    (utime * MS_PER_TICK, stime * MS_PER_TICK)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything a block adds up over its successful executions.
#[derive(Default)]
struct Tally {
    host_run_ns: Vec<f64>,
    virt_elapsed_ns: Vec<f64>,
    virt_system_ns: Vec<f64>,
    virt_user_ns: Vec<f64>,
    wire_msgs: Vec<f64>,
    wire_bytes: Vec<f64>,
    counters: BTreeMap<String, f64>,
    fault_service: LatencyHist,
    lock_wait: LatencyHist,
    barrier_wait: LatencyHist,
}

impl Tally {
    fn add(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_default() += value as f64;
    }

    fn record(&mut self, exec: &Execution) {
        let m: &RunMeasurement = &exec.measurement;
        self.host_run_ns
            .push((exec.run_ns.1 - exec.run_ns.0) as f64);
        self.virt_elapsed_ns.push(m.elapsed.as_nanos() as f64);
        self.virt_system_ns.push(m.root_system.as_nanos() as f64);
        self.virt_user_ns.push(m.root_user.as_nanos() as f64);
        self.wire_msgs.push(m.net.total.msgs as f64);
        self.wire_bytes.push(m.net.total.bytes as f64);

        let s = &m.stats;
        for (name, value) in [
            ("fault.read_faults", s.read_faults),
            ("fault.write_faults", s.write_faults),
            ("fault.objects_fetched", s.objects_fetched),
            ("fault.fetch_bytes", s.fetch_bytes),
            ("fault.invalidations_sent", s.invalidations_sent),
            ("duq.twins_created", s.twins_created),
            ("duq.flushes", s.duq_flushes),
            ("duq.objects_flushed", s.duq_objects_flushed),
            ("diff.update_bytes", s.update_bytes_sent),
            ("flush.updates_sent", s.updates_sent),
            ("flush.updates_applied", s.updates_applied),
            ("flush.updates_healed", s.updates_healed),
            ("copyset.queries", s.copyset_queries),
            ("copyset.query_msgs", s.copyset_query_msgs),
            ("outbox.msgs_piggybacked", s.msgs_piggybacked),
            ("outbox.flushes_coalesced", s.flushes_coalesced),
            ("outbox.relay_bypassed_bytes", s.relay_bypassed_bytes),
            ("outbox.owner_refans", s.owner_refans),
            ("sync.lock_acquires", s.lock_acquires),
            ("sync.lock_local_acquires", s.lock_local_acquires),
            ("sync.lock_messages", s.lock_messages),
            ("sync.barrier_waits", s.barrier_waits),
            ("sync.barrier_owner_ingress", s.barrier_owner_ingress),
            ("sync.reductions", s.reductions),
            ("reliable.retransmits", s.retransmits),
            ("reliable.net_acks_sent", s.net_acks_sent),
            ("reliable.dup_msgs_dropped", s.dup_msgs_dropped),
            ("health.heartbeats_sent", s.heartbeats_sent),
            ("runtime.watchdog_stalls", s.watchdog_stalls),
            ("runtime.errors", s.runtime_errors),
            ("sim.timers_fired", m.engine.timers_fired),
            ("sim.msgs_dropped", m.engine.messages_dropped),
        ] {
            self.add(name, value);
        }
        let mut named = (0, 0);
        for class in MSG_CLASSES {
            let c = m.net.class(class);
            self.add(&format!("msg.{class}.msgs"), c.msgs);
            self.add(&format!("msg.{class}.bytes"), c.bytes);
            named = (named.0 + c.msgs, named.1 + c.bytes);
        }
        self.add("msg.other.msgs", m.net.total.msgs - named.0);
        self.add("msg.other.bytes", m.net.total.bytes - named.1);

        for h in m.obs.fault_service.values() {
            self.fault_service.merge(h);
        }
        if let Some(h) = m.obs.waits.get("lock_acquire") {
            self.lock_wait.merge(h);
        }
        if let Some(h) = m.obs.waits.get("barrier") {
            self.barrier_wait.merge(h);
        }
    }
}

fn hist_json(h: &LatencyHist) -> Json {
    Json::obj([
        ("count", Json::Num(h.count() as f64)),
        ("p50_us", Json::Num(h.p50_ns() as f64 / 1e3)),
        ("p95_us", Json::Num(h.p95_ns() as f64 / 1e3)),
    ])
}

/// Reads the flight-recorder totals (recorded, dropped) out of a Perfetto
/// export: one `flight_recorder` instant per node carries them. `None` when
/// the export has no such instant.
fn flight_totals(trace: &str) -> Option<(u64, u64)> {
    let field = |line: &str, key: &str| -> Option<u64> {
        let rest = line.split(key).nth(1)?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    let mut totals = None;
    for line in trace
        .lines()
        .filter(|l| l.contains("\"name\":\"flight_recorder\""))
    {
        let (recorded, dropped) = totals.unwrap_or((0, 0));
        totals = Some((
            recorded + field(line, "\"events_recorded\":")?,
            dropped + field(line, "\"events_dropped\":")?,
        ));
    }
    totals
}

/// Lays one execution's host intervals out as spans under the block root:
/// `run` → its phases → (owned programs) `worker` per node → `api.*` calls;
/// `check` and `trace_read` follow `run` as siblings.
fn execution_spans(
    store: &mut SpanStore,
    index: u32,
    exec: &Execution,
    after: &[(&'static str, u64, u64)],
) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut push = |store: &mut SpanStore,
                    parent: u32,
                    name: &'static str,
                    node: Option<usize>,
                    (start_ns, end_ns): (u64, u64),
                    calls: u32| {
        let id = store.new_id();
        spans.push(Span {
            id,
            parent: Some(parent),
            exec: Some(index),
            name,
            node,
            start_ns,
            end_ns,
            calls,
        });
        id
    };
    let root = store.root_id();
    let run = push(store, root, "run", None, exec.run_ns, 1);
    let mut inner = run;
    for &(name, start, end) in &exec.phases {
        inner = push(store, run, name, None, (start, end), 1);
    }
    // Workers run inside the last phase (`cluster`).
    for w in &exec.workers {
        let worker = push(
            store,
            inner,
            "worker",
            Some(w.node),
            (w.start_ns, w.end_ns),
            1,
        );
        for c in &w.calls {
            push(
                store,
                worker,
                c.name,
                Some(w.node),
                (c.start_ns, c.end_ns),
                c.calls,
            );
        }
    }
    for &(name, start, end) in after {
        push(store, root, name, None, (start, end), 1);
    }
    spans
}

/// Runs the block and returns its result line.
pub fn run(args: &BlockArgs, process_start: Instant) -> Json {
    let workload = args.workload;
    let trace_path = format!("{}/trace-{}.json", args.out_dir, workload.name());
    if args.traced {
        if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
            eprintln!("benchmark: cannot create {}: {e}", args.out_dir);
        }
        if !workload.owned() {
            // `MatmulParams`/`SorParams` have no trace-path field; the
            // environment is the only public way to ask the library apps for
            // an export. The benchmark sets it for itself, here, before any
            // other thread exists — it never takes it from the caller.
            std::env::set_var("MUNIN_TRACE_OUT", &trace_path);
        }
    }
    let cfg = RunCfg {
        seed: args.seed,
        epoch: process_start,
        trace_out: args.traced.then(|| trace_path.clone()),
    };

    // Set-up: inputs, the serial reference result, one warm-up execution.
    let prepared = workloads::prepare(workload, args.seed);
    let mut failures: Vec<String> = Vec::new();
    let attempt = |prepared: &Prepared| -> Result<Execution, String> {
        let exec = catch_unwind(AssertUnwindSafe(|| {
            workloads::execute(workload, prepared, &cfg)
        }))
        .unwrap_or_else(|_| Err(format!("{}: panicked", workload.name())))?;
        Ok(exec)
    };
    if let Err(e) = attempt(&prepared).and_then(|exec| workloads::check(&prepared, &exec)) {
        failures.push(format!("warm-up: {e}"));
    }
    let setup_s = process_start.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let mut store = SpanStore::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let window = Duration::from_secs_f64(args.seconds);
    let (utime0, stime0) = cpu_ms();
    let started = Instant::now();
    while started.elapsed() < window {
        attempted += 1;
        let exec = match attempt(&prepared) {
            Ok(exec) => exec,
            Err(e) => {
                failed += 1;
                failures.push(e);
                continue;
            }
        };
        let check_start = ns_since(cfg.epoch);
        let mut verdict = workloads::check(&prepared, &exec);
        let check_end = ns_since(cfg.epoch);
        let mut after = vec![("check", check_start, check_end)];
        let mut events = (0, 0);
        if args.traced && verdict.is_ok() {
            // Every traced execution must have exported a trace that says
            // how many events its rings recorded and lost.
            verdict = std::fs::read_to_string(&trace_path)
                .map_err(|e| format!("{trace_path}: {e}"))
                .and_then(|text| {
                    events = flight_totals(&text)
                        .ok_or(format!("{trace_path}: no flight_recorder totals"))?;
                    Ok(())
                });
            after.push(("trace_read", check_end, ns_since(cfg.epoch)));
        }
        if let Err(e) = verdict {
            failed += 1;
            failures.push(e);
            continue;
        }
        tally.record(&exec);
        if args.traced {
            // Untraced, the 256-event ring wraps by design; only a traced
            // run must hold every event.
            tally.add("obs.events_recorded", events.0);
            tally.add("obs.events_dropped", events.1);
            let spans = execution_spans(&mut store, attempted as u32, &exec, &after);
            store.add_execution(spans);
        }
    }
    let window_s = started.elapsed().as_secs_f64();
    let (utime1, stime1) = cpu_ms();

    let mut api = BTreeMap::new();
    if args.traced {
        let spans_path = format!("{}/spans-{}.json", args.out_dir, workload.name());
        let text = store.render(workload.name(), ns_since(cfg.epoch));
        if let Err(e) = std::fs::write(&spans_path, text) {
            failures.push(format!("{spans_path}: {e}"));
        }
        for name in SYNC_CALLS.iter().chain(&ACCESS_CALLS) {
            if let Some(t) = store.totals.get(name) {
                api.insert(
                    name.to_string(),
                    Json::obj([
                        ("calls", Json::Num(t.calls as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("median_ns", Json::Num(median(&t.per_call_ns))),
                    ]),
                );
            }
        }
        let worker_ns = store.totals.get("worker").map_or(0, |t| t.total_ns);
        api.insert("worker_ns".into(), Json::Num(worker_ns as f64));
    }
    failures.truncate(8);

    Json::obj([
        ("workload", Json::Str(workload.name().into())),
        ("traced", Json::Bool(args.traced)),
        ("config", Json::Str(cfg.describe(workload))),
        ("setup_s", Json::Num(setup_s)),
        ("window_s", Json::Num(window_s)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "failures",
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        ),
        ("utime_ms", Json::Num(utime1 - utime0)),
        ("stime_ms", Json::Num(stime1 - stime0)),
        ("peak_rss_mb", Json::Num(peak_rss_mb())),
        ("host_run_ns", Json::nums(&tally.host_run_ns)),
        ("virt_elapsed_ns", Json::nums(&tally.virt_elapsed_ns)),
        ("virt_system_ns", Json::nums(&tally.virt_system_ns)),
        ("virt_user_ns", Json::nums(&tally.virt_user_ns)),
        ("wire_msgs", Json::nums(&tally.wire_msgs)),
        ("wire_bytes", Json::nums(&tally.wire_bytes)),
        (
            "counters",
            Json::Obj(
                tally
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        ("fault_service", hist_json(&tally.fault_service)),
        ("lock_wait", hist_json(&tally.lock_wait)),
        ("barrier_wait", hist_json(&tally.barrier_wait)),
        ("api", Json::Obj(api)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_totals_sums_the_per_node_instants() {
        let trace = "[\n\
            {\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"s\":\"t\",\"name\":\"flight_recorder\",\"args\":{\"events_recorded\":12,\"events_dropped\":0}},\n\
            {\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"s\":\"t\",\"name\":\"flight_recorder\",\"args\":{\"events_recorded\":30,\"events_dropped\":5}}\n]";
        assert_eq!(flight_totals(trace), Some((42, 5)));
        assert_eq!(flight_totals("[]"), None);
    }

    #[test]
    fn cpu_and_rss_read_as_positive_numbers_on_linux() {
        let (u, s) = cpu_ms();
        assert!(u >= 0.0 && s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
