//! The repo's benchmark. See `README.md` beside this crate for every
//! metric's definition, the workloads' reasons and the baseline.
//!
//! ```text
//! munin-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last line of stdout is the result object
//!     (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
//! munin-benchmark [--seed <n>] [--quick] [--out <file>]
//!     the full run: all four workloads interleaved, then the traced pass,
//!     the micro timings and the message-passing reference
//! munin-benchmark --compare <a.json> <b.json>
//!     two full runs side by side against the bounds; exit 1 on a breach
//! ```

mod block;
mod json;
mod layers;
mod micro;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use layers::{Blocks, Msgpass, END_TO_END, PER_LAYER};
use workloads::Workload;

const DEFAULT_SEED: u64 = 1991;
const DEFAULT_OUT_DIR: &str = "benchmark/out";

/// Blocks of a one-workload run. Nine, because `setup_s` is the median of
/// the blocks' set-up times and one set-up is a single noisy execution.
/// In a `--trace 1` run every third block stays untraced: the host-time
/// metrics and the anchor of `obs.trace_overhead` come from those.
const DRIVER_BLOCKS: usize = 9;

/// The full run, per workload: (untraced blocks, traced blocks, seconds per
/// block). Untraced blocks go round-robin across workloads.
const FULL_PLAN: (usize, usize, f64) = (10, 2, 3.0);
const QUICK_PLAN: (usize, usize, f64) = (2, 1, 1.0);

/// Wall allowance of a block beyond its window: set-up, the runtime's own
/// 15 s stall watchdog, and slack.
const BLOCK_GRACE: Duration = Duration::from_secs(40);
/// Wall limit of the message-passing reference child.
const MSGPASS_TIMEOUT: Duration = Duration::from_secs(20);

struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// `--key value` pairs; `--quick` and `--block` stand alone; `--compare`
    /// takes the two positional paths that follow.
    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.into_iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key @ ("quick" | "block" | "compare")) => {
                    flags.insert(key.to_string(), String::new());
                }
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    flags.insert(key.to_string(), value);
                }
                None => positional.push(arg),
            }
        }
        Ok(Args { flags, positional })
    }

    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")),
        }
    }

    fn workload(&self, key: &str) -> Result<Workload, String> {
        let name = self.flags.get(key).ok_or(format!("--{key} is missing"))?;
        Workload::parse(name).ok_or(format!(
            "unknown workload `{name}` (matmul, sor, wshared, locks)"
        ))
    }

    fn out_dir(&self) -> Result<String, String> {
        self.get("out-dir", DEFAULT_OUT_DIR.to_string())
    }

    fn traced(&self) -> Result<bool, String> {
        match self.get::<u8>("trace", 0)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("--trace takes 0 or 1, not {other}")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s = self.get("seconds", 10.0)?;
        if s > 0.0 && s <= 600.0 {
            Ok(s)
        } else {
            Err(format!("--seconds {s}: out of range"))
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // No MUNIN_* variable of the caller reaches the program: every
    // configuration is built explicitly in `workloads.rs`. Done first, while
    // this is the only thread; children inherit the cleaned environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MUNIN_") {
            std::env::remove_var(key);
        }
    }
    let outcome = Args::parse(std::env::args().skip(1).collect()).and_then(|args| {
        if args.has("block") {
            child_block(&args, process_start)
        } else if args.has("msgpass-child") {
            child_msgpass(&args)
        } else if args.has("compare") {
            compare(&args)
        } else if args.has("workload") {
            driver_run(&args)
        } else {
            full_run(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("munin-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Children
// ---------------------------------------------------------------------------

fn child_block(args: &Args, process_start: Instant) -> Result<bool, String> {
    let result = block::run(
        &block::BlockArgs {
            workload: args.workload("workload")?,
            seed: args.get("seed", DEFAULT_SEED)?,
            seconds: args.seconds()?,
            traced: args.traced()?,
            out_dir: args.out_dir()?,
        },
        process_start,
    );
    println!("{}", result.render());
    Ok(true)
}

fn child_msgpass(args: &Args) -> Result<bool, String> {
    // `sor`'s reference panics in one node and then hangs the others: leave
    // at the panic instead of waiting for the parent's timeout.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("message-passing reference: {info}");
        std::process::exit(3);
    }));
    let run = workloads::run_msgpass(args.workload("msgpass-child")?)?;
    let line = Json::obj([
        ("virt_elapsed_s", Json::Num(run.virt_elapsed_s)),
        ("wire_msgs", Json::Num(run.wire_msgs as f64)),
        ("wire_bytes", Json::Num(run.wire_bytes as f64)),
    ]);
    println!("{}", line.render());
    Ok(true)
}

/// Runs this binary again with `args`, and returns the last line of its
/// stdout. The child is killed, and waited for, when it outlives `limit`.
fn run_child(args: &[String], limit: Duration) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // Drain the pipe while waiting, so a long result line cannot block the
    // child on a full pipe.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + limit;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("no result within {} s: killed", limit.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break Err(format!("wait: {e}")),
        }
    };
    let text = reader.join().map_err(|_| "stdout reader panicked")?;
    let status = status?;
    if !status.success() {
        return Err(format!("child ended with {status}"));
    }
    last_line(&text)
        .map(str::to_string)
        .ok_or_else(|| "child printed nothing".to_string())
}

/// The last non-empty line: where every mode of this program puts its JSON.
fn last_line(text: &str) -> Option<&str> {
    text.lines().rev().find(|l| !l.trim().is_empty())
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

struct PlanItem {
    workload: Workload,
    traced: bool,
    seconds: f64,
}

/// Runs the blocks of a plan in order, one child at a time. A block that
/// fails as a whole (timeout, crash) counts as one failed execution, and so
/// does every later block of that workload, which is then not run: one hang
/// costs one timeout, not one per block.
fn run_plan(plan: &[PlanItem], seed: u64, out_dir: &str) -> BTreeMap<&'static str, Blocks> {
    let mut results: BTreeMap<&'static str, Blocks> = BTreeMap::new();
    let mut dead: BTreeMap<&'static str, String> = BTreeMap::new();
    for item in plan {
        let name = item.workload.name();
        let outcome = match dead.get(name) {
            Some(why) => Err(format!("not run after: {why}")),
            None => run_child(
                &[
                    "--block".into(),
                    "--workload".into(),
                    name.into(),
                    "--seed".into(),
                    seed.to_string(),
                    "--seconds".into(),
                    item.seconds.to_string(),
                    "--trace".into(),
                    u8::from(item.traced).to_string(),
                    "--out-dir".into(),
                    out_dir.into(),
                ],
                Duration::from_secs_f64(item.seconds) + BLOCK_GRACE,
            )
            .and_then(|line| Json::parse(&line)),
        };
        let block = outcome.unwrap_or_else(|why| {
            eprintln!("munin-benchmark: {name} block failed: {why}");
            dead.entry(name).or_insert_with(|| why.clone());
            Json::obj([
                ("workload", Json::Str(name.into())),
                ("traced", Json::Bool(item.traced)),
                ("attempted", Json::Num(1.0)),
                ("failed", Json::Num(1.0)),
                ("failures", Json::Arr(vec![Json::Str(why)])),
            ])
        });
        let blocks = results.entry(name).or_default();
        if item.traced {
            blocks.traced.push(block);
        } else {
            blocks.untraced.push(block);
        }
    }
    results
}

fn run_msgpass(workload: Workload) -> Msgpass {
    if !workload.has_msgpass() {
        return Msgpass::NotApplicable;
    }
    let parsed = run_child(
        &["--msgpass-child".into(), workload.name().into()],
        MSGPASS_TIMEOUT,
    )
    .and_then(|line| Json::parse(&line))
    .and_then(|v| {
        Ok(Msgpass::Ok {
            virt_elapsed_s: v.num("virt_elapsed_s")?,
            wire_msgs: v.num("wire_msgs")?,
            wire_bytes: v.num("wire_bytes")?,
        })
    });
    parsed.unwrap_or_else(Msgpass::Broken)
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Everything known about one workload after its blocks ran.
struct WorkloadReport {
    name: &'static str,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The effective configurations the blocks printed (traced and not).
    configs: Vec<String>,
    end_to_end: BTreeMap<&'static str, f64>,
    /// Host run medians of the untraced blocks, ms.
    block_medians: Vec<f64>,
    /// Values by catalogue name; metrics that do not apply are absent.
    per_layer: BTreeMap<String, f64>,
    tail: (f64, f64),
    tripped: Vec<String>,
    msgpass_note: Option<String>,
    /// Why the Perfetto export failed validation, if it did.
    trace_note: Option<String>,
}

impl WorkloadReport {
    fn correct(&self) -> bool {
        self.failed == 0 && self.tripped.is_empty()
    }
}

/// Whether the Perfetto export the last traced execution left behind passes
/// the repo's own validator. Done once per run, by the parent, outside
/// every timed window: the validator is quadratic in the file's size.
fn trace_valid(workload: Workload, out_dir: &str) -> Result<(), String> {
    let path = format!("{out_dir}/trace-{}.json", workload.name());
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    munin_core::obs::perfetto::validate_trace_str(&text).map(|_| ())
}

fn report(
    workload: Workload,
    blocks: &Blocks,
    micro: Option<&[(String, f64)]>,
    msgpass: &Msgpass,
    out_dir: &str,
) -> WorkloadReport {
    let all: Vec<Json> = blocks
        .untraced
        .iter()
        .chain(&blocks.traced)
        .cloned()
        .collect();
    let (attempted, failed) = layers::attempts(&all);
    let failures = all
        .iter()
        .filter_map(|b| b.get("failures")?.as_arr())
        .flatten()
        .filter_map(|f| f.as_str().map(str::to_string))
        .collect();
    // One line for the untraced blocks, one for the traced.
    let mut configs: Vec<String> = all
        .iter()
        .filter_map(|b| b.get("config")?.as_str().map(str::to_string))
        .collect();
    configs.sort();
    configs.dedup();
    let (per_layer, trace_note) = if blocks.traced.is_empty() {
        (BTreeMap::new(), None)
    } else {
        let valid = trace_valid(workload, out_dir);
        (
            layers::per_layer(blocks, micro, msgpass, valid.is_ok()),
            valid.err(),
        )
    };
    WorkloadReport {
        name: workload.name(),
        attempted,
        failed,
        failures,
        configs,
        end_to_end: layers::end_to_end(&blocks.untraced),
        block_medians: layers::block_medians_ms(&blocks.untraced),
        per_layer,
        trace_note,
        tail: layers::host_run_tail(&blocks.traced),
        tripped: layers::tripped(&all),
        msgpass_note: match msgpass {
            Msgpass::Broken(why) => Some(why.clone()),
            _ => None,
        },
    }
}

fn print_report(r: &WorkloadReport) {
    println!("== {} ==", r.name);
    for c in &r.configs {
        println!("config: {c}");
    }
    println!("executions: attempted {} failed {}", r.attempted, r.failed);
    for f in &r.failures {
        println!("  failure: {f}");
    }
    if !r.block_medians.is_empty() {
        println!("end to end (untraced, closed loop, one execution at a time):");
        for m in &END_TO_END {
            println!(
                "  {:<28} {:>16.6} {:<6} (may worsen by {:.0}%)",
                m.name,
                r.end_to_end[m.name],
                m.unit,
                m.bound * 100.0
            );
        }
        let medians: Vec<String> = r.block_medians.iter().map(|m| format!("{m:.3}")).collect();
        println!(
            "  host_run_ms per block: [{}] spread {:.1}% of their median",
            medians.join(", "),
            stats::block_spread(&r.block_medians) * 100.0
        );
    }
    if !r.per_layer.is_empty() {
        println!("per layer (traced pass):");
        for m in &PER_LAYER {
            match r.per_layer.get(m.name) {
                Some(v) => println!(
                    "  {:<28} {:>16.4} {:<6} ({} is better)",
                    m.name,
                    v,
                    m.unit,
                    m.better.as_str()
                ),
                None => println!(
                    "  {:<28} {:>16} {}",
                    m.name,
                    "absent",
                    absent_reason(r, m.name)
                ),
            }
        }
        println!(
            "  apps.host_run_tail_ms is percentile {} of {} executions",
            r.tail.0, r.per_layer["apps.executions"]
        );
    }
    if let Some(why) = &r.trace_note {
        println!("  Perfetto export does not validate: {why}");
    }
    for name in &r.tripped {
        println!("  TRIP-WIRE non-zero: {name}");
    }
}

fn absent_reason(r: &WorkloadReport, metric: &str) -> String {
    if metric.starts_with("api.") {
        "(a call the benchmark's own code does not make in this workload)".into()
    } else if metric.starts_with("msgpass.") {
        match &r.msgpass_note {
            Some(why) => format!("(reference broken: {why})"),
            None => "(no message-passing version of this workload)".into(),
        }
    } else {
        "(micro timings are skipped by --quick)".into()
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

/// One workload, as the driver runs it. The last line is the result object.
fn driver_run(args: &Args) -> Result<bool, String> {
    let workload = args.workload("workload")?;
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds = args.seconds()?;
    let traced = args.traced()?;
    let out_dir = args.out_dir()?;

    let plan: Vec<PlanItem> = (0..DRIVER_BLOCKS)
        .map(|i| PlanItem {
            workload,
            traced: traced && i % 3 != 1,
            seconds: seconds / DRIVER_BLOCKS as f64,
        })
        .collect();
    let mut results = run_plan(&plan, seed, &out_dir);
    let blocks = results.remove(workload.name()).unwrap_or_default();
    let (micro, msgpass) = if traced {
        (Some(micro::run()), run_msgpass(workload))
    } else {
        (None, Msgpass::NotApplicable)
    };
    let r = report(workload, &blocks, micro.as_deref(), &msgpass, &out_dir);
    print_report(&r);

    // The result object carries every metric of the catalogue; one that
    // does not apply to this workload reads 0 and is named above.
    let metrics: BTreeMap<String, Json> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = r.per_layer.get(m.name).copied().unwrap_or(0.0);
                (m.name.to_string(), metric_json(v, m.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    metric_json(r.end_to_end[m.name], m.unit),
                )
            })
            .collect()
    };
    let line = Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(r.correct())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// All four workloads: untraced blocks round-robin (so every workload
/// samples the same host conditions), then the traced pass, the micro
/// timings and the message-passing reference. The last line is the report
/// `--compare` reads.
fn full_run(args: &Args) -> Result<bool, String> {
    let seed = args.get("seed", DEFAULT_SEED)?;
    let quick = args.has("quick");
    let out_dir = args.out_dir()?;
    let (untraced, traced, seconds) = if quick { QUICK_PLAN } else { FULL_PLAN };
    let mut plan = Vec::new();
    for (traced, reps) in [(false, untraced), (true, traced)] {
        for _ in 0..reps {
            plan.extend(workloads::ALL.map(|workload| PlanItem {
                workload,
                traced,
                seconds,
            }));
        }
    }
    let mut results = run_plan(&plan, seed, &out_dir);
    let micro = (!quick).then(micro::run);

    let mut all_correct = true;
    let mut workloads_json = BTreeMap::new();
    for workload in workloads::ALL {
        let blocks = results.remove(workload.name()).unwrap_or_default();
        let r = report(
            workload,
            &blocks,
            micro.as_deref(),
            &run_msgpass(workload),
            &out_dir,
        );
        print_report(&r);
        all_correct &= r.correct();
        let unit_of = |name: &str| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map_or("", |m| m.unit)
        };
        workloads_json.insert(
            r.name.to_string(),
            Json::obj([
                ("attempted", Json::Num(r.attempted as f64)),
                ("failed", Json::Num(r.failed as f64)),
                ("correct", Json::Bool(r.correct())),
                (
                    "configs",
                    Json::Arr(r.configs.iter().cloned().map(Json::Str).collect()),
                ),
                (
                    "end_to_end",
                    Json::Obj(
                        END_TO_END
                            .iter()
                            .map(|m| {
                                (
                                    m.name.to_string(),
                                    metric_json(r.end_to_end[m.name], m.unit),
                                )
                            })
                            .collect(),
                    ),
                ),
                ("host_run_ms_per_block", Json::nums(&r.block_medians)),
                (
                    "per_layer",
                    Json::Obj(
                        r.per_layer
                            .iter()
                            .map(|(k, v)| (k.clone(), metric_json(*v, unit_of(k))))
                            .collect(),
                    ),
                ),
            ]),
        );
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        (
            "meta",
            Json::obj([
                ("claim", Json::Null),
                (
                    "mode",
                    Json::Str(if quick { "quick" } else { "full" }.into()),
                ),
                ("seed", Json::Num(seed as f64)),
                ("nproc", Json::Num(nproc as f64)),
                ("rustc", Json::Str(command_line("rustc", &["--version"]))),
                (
                    "git",
                    Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
                ),
            ]),
        ),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    let text = doc.render();
    if let Some(path) = args.flags.get("out") {
        std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{text}");
    Ok(all_correct)
}

/// `--compare a.json b.json`: per workload × end-to-end metric, both
/// values, by how much `b` is worse, and the bound.
fn compare(args: &Args) -> Result<bool, String> {
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("--compare takes two report files".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let line = last_line(&text).ok_or(format!("{path}: empty"))?;
        Json::parse(line).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let rows = compare_reports(&a, &b)?;
    println!(
        "{:<9} {:<16} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut breaches = 0;
    for row in &rows {
        println!(
            "{:<9} {:<16} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}%{}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worse_by * 100.0,
            row.bound * 100.0,
            if row.breach { "  BREACH" } else { "" }
        );
        breaches += usize::from(row.breach);
    }
    println!("{} cells, {breaches} beyond their bound", rows.len());
    Ok(breaches == 0)
}

struct CompareRow {
    workload: String,
    metric: &'static str,
    a: f64,
    b: f64,
    worse_by: f64,
    bound: f64,
    breach: bool,
}

fn compare_reports(a: &Json, b: &Json) -> Result<Vec<CompareRow>, String> {
    let cell = |doc: &Json, workload: &str, metric: &str| -> Result<f64, String> {
        doc.get("workloads")
            .and_then(|w| {
                w.get(workload)?
                    .get("end_to_end")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .ok_or(format!("{workload}.{metric}: missing"))
    };
    let mut rows = Vec::new();
    for workload in workloads::ALL.map(Workload::name) {
        for m in &END_TO_END {
            let (va, vb) = (cell(a, workload, m.name)?, cell(b, workload, m.name)?);
            rows.push(CompareRow {
                workload: workload.to_string(),
                metric: m.name,
                a: va,
                b: vb,
                worse_by: stats::worsening(va, vb, m.better),
                bound: m.bound,
                breach: stats::breaches(va, vb, m.better, m.bound),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(locks_virt_elapsed_s: f64) -> Json {
        let cells = |host: f64| {
            Json::Obj(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let v = if m.name == "virt_elapsed_s" {
                            host
                        } else {
                            100.0
                        };
                        (m.name.to_string(), metric_json(v, m.unit))
                    })
                    .collect(),
            )
        };
        Json::obj([(
            "workloads",
            Json::Obj(
                workloads::ALL
                    .iter()
                    .map(|w| {
                        let host = if *w == Workload::Locks {
                            locks_virt_elapsed_s
                        } else {
                            100.0
                        };
                        (
                            w.name().to_string(),
                            Json::obj([("end_to_end", cells(host))]),
                        )
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn compare_covers_every_cell_and_flags_only_the_breach() {
        // virt_elapsed_s may worsen by 20%.
        let rows = compare_reports(&doc(100.0), &doc(121.0)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len() * 4);
        let breaches: Vec<_> = rows.iter().filter(|r| r.breach).collect();
        assert_eq!(breaches.len(), 1);
        assert_eq!(
            (breaches[0].workload.as_str(), breaches[0].metric),
            ("locks", "virt_elapsed_s")
        );
        assert!((breaches[0].worse_by - 0.21).abs() < 1e-12);
        // Within the bound, and improvements, pass.
        assert!(compare_reports(&doc(100.0), &doc(119.0))
            .unwrap()
            .iter()
            .all(|r| !r.breach));
        assert!(compare_reports(&doc(100.0), &doc(50.0))
            .unwrap()
            .iter()
            .all(|r| !r.breach));
    }

    #[test]
    fn compare_rejects_a_report_with_a_missing_cell() {
        assert!(compare_reports(
            &doc(1.0),
            &Json::obj([("workloads", Json::obj::<String>([]))])
        )
        .is_err());
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = Json::parse(text).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name.to_string()));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name.to_string()));
        assert_eq!(
            names("workloads"),
            workloads::ALL.map(|w| w.name().to_string())
        );
        for (listed, m) in spec
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(listed.num("bound").unwrap(), m.bound);
            assert_eq!(listed.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                listed.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
        }
        for (listed, m) in spec
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(listed.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                listed.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
        }
    }
}
