//! The metric catalogue (names, units, directions, bounds — the same list
//! `BENCHMARK.json` carries) and the arithmetic that turns block results
//! into metric values.
//!
//! Sources: R = the program's run report, S = host spans the benchmark
//! records around its own calls, M = a layer's public function timed
//! directly (`micro.rs`).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spans::{ACCESS_CALLS, SYNC_CALLS};
use crate::stats::{iqr_ratio, mean, median, tail, Better};

use Better::{Higher, Lower};

/// An end-to-end metric: reported for every workload, from untraced blocks.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Host wall and CPU time are not here: on the 2-core shared host the runs
/// of one commit spread by 3% to 28% of their median from one hour to the
/// next (README "Repeatability"), wider than any bound the contract allows,
/// so they are per-layer metrics (`apps.host_run_ms`, `apps.host_cpu_ms`).
/// The wire columns are exact on `matmul` and `sor`; their 5% is for
/// `locks`, whose forwarding chains follow host timing, as does the 20% of
/// `virt_elapsed_s` (host scheduling leaks into virtual time: `matmul`'s
/// mean spreads by up to 5.8% between runs of one commit).
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("virt_elapsed_s", "s", Lower, 0.20),
    e2e("wire_msgs", "count", Lower, 0.05),
    e2e("wire_bytes", "bytes", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// A per-layer metric: reported from the traced pass, no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Trip-wires: layers that are switched off in every workload. Any of them
/// reading non-zero fails the run. (`runtime.errors` is reported but is not
/// one of them: `sor` trips its stable-sharing check about once in four
/// executions at the parent commit, see README "Hazards".)
pub const TRIP_WIRES: [&str; 5] = [
    "reliable.retransmits",
    "reliable.net_acks_sent",
    "reliable.dup_msgs_dropped",
    "health.heartbeats_sent",
    "runtime.watchdog_stalls",
];

pub const PER_LAYER: [PerLayer; 110] = [
    pl("apps.executions", "count", Higher),
    pl("apps.host_run_ms", "ms", Lower),
    pl("apps.host_cpu_ms", "ms", Lower),
    pl("apps.host_run_tail_ms", "ms", Lower),
    pl("apps.host_run_iqr_ratio", "ratio", Lower),
    pl("apps.peak_rss_mb", "MB", Lower),
    pl("apps.user_cpu_share", "ratio", Higher),
    pl("api.read_slice_ns", "ns", Lower),
    pl("api.write_ns", "ns", Lower),
    pl("api.barrier_ns", "ns", Lower),
    pl("api.lock_acquire_ns", "ns", Lower),
    pl("api.lock_release_ns", "ns", Lower),
    pl("api.fetch_add_ns", "ns", Lower),
    pl("api.sync_share", "ratio", Lower),
    pl("api.access_share", "ratio", Lower),
    pl("fault.read_faults", "count", Lower),
    pl("fault.write_faults", "count", Lower),
    pl("fault.objects_fetched", "count", Lower),
    pl("fault.fetch_bytes", "bytes", Lower),
    pl("fault.invalidations_sent", "count", Lower),
    pl("fault.service_p50_us", "us", Lower),
    pl("fault.service_p95_us", "us", Lower),
    pl("duq.twins_created", "count", Lower),
    pl("duq.flushes", "count", Lower),
    pl("duq.objects_flushed", "count", Lower),
    pl("duq.cycle_ns", "ns", Lower),
    pl("diff.update_bytes", "bytes", Lower),
    pl("diff.bytes_per_object", "bytes", Lower),
    pl("diff.encode_ns.one_word", "ns", Lower),
    pl("diff.encode_ns.all_words", "ns", Lower),
    pl("diff.encode_ns.alternate", "ns", Lower),
    pl("diff.apply_ns.one_word", "ns", Lower),
    pl("diff.apply_ns.all_words", "ns", Lower),
    pl("diff.apply_ns.alternate", "ns", Lower),
    pl("diff.twin_ns", "ns", Lower),
    pl("flush.updates_sent", "count", Lower),
    pl("flush.updates_applied", "count", Lower),
    pl("flush.updates_healed", "count", Lower),
    pl("copyset.queries", "count", Lower),
    pl("copyset.query_msgs", "count", Lower),
    pl("outbox.msgs_piggybacked", "count", Higher),
    pl("outbox.piggyback_ratio", "ratio", Higher),
    pl("outbox.flushes_coalesced", "count", Higher),
    pl("outbox.relay_bypassed_bytes", "bytes", Higher),
    pl("outbox.owner_refans", "count", Lower),
    pl("sync.lock_acquires", "count", Lower),
    pl("sync.lock_local_share", "ratio", Higher),
    pl("sync.lock_messages", "count", Lower),
    pl("sync.msgs_per_lock", "ratio", Lower),
    pl("sync.lock_wait_p50_us", "us", Lower),
    pl("sync.lock_wait_p95_us", "us", Lower),
    pl("sync.barrier_waits", "count", Lower),
    pl("sync.barrier_owner_ingress", "count", Lower),
    pl("sync.barrier_wait_p50_us", "us", Lower),
    pl("sync.barrier_wait_p95_us", "us", Lower),
    pl("sync.reductions", "count", Lower),
    pl("msg.object_fetch.msgs", "count", Lower),
    pl("msg.object_fetch.bytes", "bytes", Lower),
    pl("msg.object_data.msgs", "count", Lower),
    pl("msg.object_data.bytes", "bytes", Lower),
    pl("msg.update.msgs", "count", Lower),
    pl("msg.update.bytes", "bytes", Lower),
    pl("msg.update_ack.msgs", "count", Lower),
    pl("msg.update_ack.bytes", "bytes", Lower),
    pl("msg.relay_fanout.msgs", "count", Lower),
    pl("msg.relay_fanout.bytes", "bytes", Lower),
    pl("msg.relay_forward.msgs", "count", Lower),
    pl("msg.relay_forward.bytes", "bytes", Lower),
    pl("msg.copyset_query.msgs", "count", Lower),
    pl("msg.copyset_query.bytes", "bytes", Lower),
    pl("msg.lock_acquire.msgs", "count", Lower),
    pl("msg.lock_acquire.bytes", "bytes", Lower),
    pl("msg.lock_grant.msgs", "count", Lower),
    pl("msg.lock_grant.bytes", "bytes", Lower),
    pl("msg.reduce_request.msgs", "count", Lower),
    pl("msg.reduce_request.bytes", "bytes", Lower),
    pl("msg.barrier_arrive.msgs", "count", Lower),
    pl("msg.barrier_arrive.bytes", "bytes", Lower),
    pl("msg.barrier_release.msgs", "count", Lower),
    pl("msg.barrier_release.bytes", "bytes", Lower),
    pl("msg.other.msgs", "count", Lower),
    pl("msg.other.bytes", "bytes", Lower),
    pl("reliable.retransmits", "count", Lower),
    pl("reliable.net_acks_sent", "count", Lower),
    pl("reliable.dup_msgs_dropped", "count", Lower),
    pl("health.heartbeats_sent", "count", Lower),
    pl("runtime.watchdog_stalls", "count", Lower),
    pl("runtime.errors", "count", Lower),
    pl("sim.virt_elapsed_p50_s", "s", Lower),
    pl("sim.virt_elapsed_min_s", "s", Lower),
    pl("sim.virt_elapsed_iqr_ratio", "ratio", Lower),
    pl("sim.virt_system_s", "s", Lower),
    pl("sim.user_share_root", "ratio", Higher),
    pl("sim.system_share_root", "ratio", Lower),
    pl("sim.host_us_per_msg", "us", Lower),
    pl("sim.timers_fired", "count", Lower),
    pl("sim.msgs_dropped", "count", Lower),
    pl("event.pingpong_ns", "ns", Lower),
    pl("event.fanin_ns_per_msg", "ns", Lower),
    pl("msgpass.ref_ok", "count", Higher),
    pl("msgpass.virt_elapsed_s", "s", Lower),
    pl("msgpass.wire_msgs", "count", Lower),
    pl("msgpass.wire_bytes", "bytes", Lower),
    pl("msgpass.virt_ratio", "ratio", Lower),
    pl("obs.trace_overhead", "ratio", Lower),
    pl("obs.events_recorded", "count", Lower),
    pl("obs.events_dropped", "count", Lower),
    pl("obs.trace_valid", "count", Higher),
    pl("obs.record_ns", "ns", Lower),
    pl("vm.write_trap_ns", "ns", Lower),
];

/// The result of the message-passing reference child.
pub enum Msgpass {
    /// The workload has no message-passing version.
    NotApplicable,
    /// The child panicked, hung or produced a wrong result.
    Broken(String),
    Ok {
        virt_elapsed_s: f64,
        wire_msgs: f64,
        wire_bytes: f64,
    },
}

/// The blocks of one workload, as the children reported them.
#[derive(Default)]
pub struct Blocks {
    pub untraced: Vec<Json>,
    pub traced: Vec<Json>,
}

fn concat(blocks: &[Json], key: &str) -> Vec<f64> {
    blocks.iter().flat_map(|b| b.num_list(key)).collect()
}

fn sum(blocks: &[Json], key: &str) -> f64 {
    blocks.iter().filter_map(|b| b.num(key).ok()).sum()
}

fn counter(blocks: &[Json], name: &str) -> f64 {
    blocks
        .iter()
        .filter_map(|b| b.get("counters")?.get(name)?.as_f64())
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// (attempted, failed) over a set of blocks.
pub fn attempts(blocks: &[Json]) -> (u64, u64) {
    (
        sum(blocks, "attempted") as u64,
        sum(blocks, "failed") as u64,
    )
}

/// The end-to-end values of a workload, from its untraced blocks.
pub fn end_to_end(blocks: &[Json]) -> BTreeMap<&'static str, f64> {
    let setups: Vec<f64> = blocks
        .iter()
        .filter_map(|b| b.num("setup_s").ok())
        .collect();
    BTreeMap::from([
        (
            "virt_elapsed_s",
            mean(&concat(blocks, "virt_elapsed_ns")) / 1e9,
        ),
        // Medians: `locks` now and then has a forwarding storm (32 k
        // messages in one execution against a usual 11 k), which a mean
        // hands on to the run.
        ("wire_msgs", median(&concat(blocks, "wire_msgs"))),
        ("wire_bytes", median(&concat(blocks, "wire_bytes"))),
        ("setup_s", median(&setups)),
    ])
}

/// Per-block medians of host run time in ms: printed so that drift between
/// blocks shows.
pub fn block_medians_ms(blocks: &[Json]) -> Vec<f64> {
    blocks
        .iter()
        .map(|b| median(&b.num_list("host_run_ns")) / 1e6)
        .collect()
}

/// The tail of host run time over a set of blocks: (percentile, ms). The
/// percentile depends on the sample count, so it is printed with the value.
pub fn host_run_tail(blocks: &[Json]) -> (f64, f64) {
    let (pct, ns) = tail(&concat(blocks, "host_run_ns"));
    (pct, ns / 1e6)
}

/// The per-layer values of a workload. `micro`, `msgpass` and `trace_valid`
/// (whether the last Perfetto export passes the repo's validator) are
/// measured once per run, after the blocks; without `micro` (quick mode)
/// the M metrics are left out.
pub fn per_layer(
    blocks: &Blocks,
    micro: Option<&[(String, f64)]>,
    msgpass: &Msgpass,
    trace_valid: bool,
) -> BTreeMap<String, f64> {
    let t = &blocks.traced;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };

    let host_run = concat(t, "host_run_ns");
    let ok = host_run.len() as f64;
    put("apps.executions", ok);
    put("apps.host_run_tail_ms", host_run_tail(t).1);
    put("apps.host_run_iqr_ratio", iqr_ratio(&host_run));
    put(
        "apps.peak_rss_mb",
        t.iter()
            .filter_map(|b| b.num("peak_rss_mb").ok())
            .fold(0.0, f64::max),
    );
    let (utime, stime) = (sum(t, "utime_ms"), sum(t, "stime_ms"));
    put("apps.user_cpu_share", ratio(utime, utime + stime));
    // Host time of an execution as a user sees it, so from the run's
    // untraced blocks: wall time as a median, CPU time per execution.
    let u = &blocks.untraced;
    put("apps.host_run_ms", median(&concat(u, "host_run_ns")) / 1e6);
    put(
        "apps.host_cpu_ms",
        ratio(sum(u, "utime_ms") + sum(u, "stime_ms"), sum(u, "attempted")),
    );

    // api.*: host time inside the owned programs' WorkerCtx calls.
    let api = |name: &str, field: &str| -> Vec<f64> {
        t.iter()
            .filter_map(|b| b.get("api")?.get(name)?.get(field)?.as_f64())
            .collect()
    };
    // Only the owned programs have workers the benchmark can time; a call
    // a workload never makes (a lock in `wshared`) stays absent too.
    let worker_ns: f64 = t
        .iter()
        .filter_map(|b| b.get("api")?.get("worker_ns")?.as_f64())
        .sum();
    if worker_ns > 0.0 {
        for call in SYNC_CALLS.iter().chain(&ACCESS_CALLS) {
            let medians = api(call, "median_ns");
            if !medians.is_empty() {
                put(&format!("{call}_ns"), median(&medians));
            }
        }
        let total = |calls: &[&str]| -> f64 {
            calls
                .iter()
                .map(|c| api(c, "total_ns").iter().sum::<f64>())
                .sum()
        };
        put("api.sync_share", total(&SYNC_CALLS) / worker_ns);
        put("api.access_share", total(&ACCESS_CALLS) / worker_ns);
    }

    // Every catalogue metric a block summed under its own name is a count:
    // report its mean per successful execution.
    for m in &PER_LAYER {
        if t.iter()
            .any(|b| b.get("counters").is_some_and(|c| c.get(m.name).is_some()))
        {
            put(m.name, ratio(counter(t, m.name), ok));
        }
    }
    // A dropped event is a failure of the trace, not a rate: report the sum.
    put("obs.events_dropped", counter(t, "obs.events_dropped"));
    let wire_msgs: f64 = concat(t, "wire_msgs").iter().sum();

    put(
        "diff.bytes_per_object",
        ratio(
            counter(t, "diff.update_bytes"),
            counter(t, "duq.objects_flushed"),
        ),
    );
    let piggybacked = counter(t, "outbox.msgs_piggybacked");
    put(
        "outbox.piggyback_ratio",
        ratio(piggybacked, piggybacked + wire_msgs),
    );
    let acquires = counter(t, "sync.lock_acquires");
    put(
        "sync.lock_local_share",
        ratio(counter(t, "sync.lock_local_acquires"), acquires),
    );
    put(
        "sync.msgs_per_lock",
        ratio(counter(t, "sync.lock_messages"), acquires),
    );

    // Virtual-time percentiles: each block merges its executions'
    // histograms; blocks that saw no sample are left out of the median.
    for (hist, prefix) in [
        ("fault_service", "fault.service"),
        ("lock_wait", "sync.lock_wait"),
        ("barrier_wait", "sync.barrier_wait"),
    ] {
        for p in ["p50_us", "p95_us"] {
            let values: Vec<f64> = t
                .iter()
                .filter_map(|b| b.get(hist))
                .filter(|h| h.num("count").is_ok_and(|c| c > 0.0))
                .filter_map(|h| h.num(p).ok())
                .collect();
            put(&format!("{prefix}_{p}"), median(&values));
        }
    }

    let virt = concat(t, "virt_elapsed_ns");
    put("sim.virt_elapsed_p50_s", median(&virt) / 1e9);
    let virt_min = virt.iter().copied().reduce(f64::min).unwrap_or(0.0);
    put("sim.virt_elapsed_min_s", virt_min / 1e9);
    put("sim.virt_elapsed_iqr_ratio", iqr_ratio(&virt));
    put(
        "sim.virt_system_s",
        mean(&concat(t, "virt_system_ns")) / 1e9,
    );
    let virt_total: f64 = virt.iter().sum();
    put(
        "sim.user_share_root",
        ratio(concat(t, "virt_user_ns").iter().sum(), virt_total),
    );
    put(
        "sim.system_share_root",
        ratio(concat(t, "virt_system_ns").iter().sum(), virt_total),
    );
    put(
        "sim.host_us_per_msg",
        ratio(host_run.iter().sum::<f64>() / 1e3, wire_msgs),
    );

    let untraced_run = concat(&blocks.untraced, "host_run_ns");
    put(
        "obs.trace_overhead",
        if untraced_run.is_empty() || host_run.is_empty() {
            0.0
        } else {
            median(&host_run) / median(&untraced_run) - 1.0
        },
    );

    put("obs.trace_valid", f64::from(u8::from(trace_valid)));

    for (name, ns) in micro.unwrap_or_default() {
        put(name, *ns);
    }

    match msgpass {
        Msgpass::NotApplicable => {}
        Msgpass::Broken(_) => put("msgpass.ref_ok", 0.0),
        Msgpass::Ok {
            virt_elapsed_s,
            wire_msgs,
            wire_bytes,
        } => {
            put("msgpass.ref_ok", 1.0);
            put("msgpass.virt_elapsed_s", *virt_elapsed_s);
            put("msgpass.wire_msgs", *wire_msgs);
            put("msgpass.wire_bytes", *wire_bytes);
            put(
                "msgpass.virt_ratio",
                ratio(mean(&virt) / 1e9, *virt_elapsed_s),
            );
        }
    }
    out
}

/// The trip-wires (and dropped trace events) that read non-zero over a set
/// of blocks, traced or not.
pub fn tripped(blocks: &[Json]) -> Vec<String> {
    TRIP_WIRES
        .iter()
        .chain(&["obs.events_dropped"])
        .filter(|name| counter(blocks, name) != 0.0)
        .map(|name| name.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(host_ms: &[f64], traced: bool) -> Json {
        let n = host_ms.len() as f64;
        Json::obj([
            ("traced", Json::Bool(traced)),
            ("setup_s", Json::Num(0.1)),
            ("attempted", Json::Num(n)),
            ("failed", Json::Num(0.0)),
            ("utime_ms", Json::Num(30.0 * n)),
            ("stime_ms", Json::Num(10.0 * n)),
            ("peak_rss_mb", Json::Num(12.0)),
            (
                "host_run_ns",
                Json::Arr(host_ms.iter().map(|m| Json::Num(m * 1e6)).collect()),
            ),
            (
                "virt_elapsed_ns",
                Json::Arr(vec![Json::Num(2e9); host_ms.len()]),
            ),
            (
                "virt_system_ns",
                Json::Arr(vec![Json::Num(5e8); host_ms.len()]),
            ),
            (
                "virt_user_ns",
                Json::Arr(vec![Json::Num(1e9); host_ms.len()]),
            ),
            (
                "wire_msgs",
                Json::Arr(vec![Json::Num(100.0); host_ms.len()]),
            ),
            (
                "wire_bytes",
                Json::Arr(vec![Json::Num(5000.0); host_ms.len()]),
            ),
            (
                "counters",
                Json::obj([
                    ("sync.lock_acquires", Json::Num(8.0 * n)),
                    ("sync.lock_local_acquires", Json::Num(2.0 * n)),
                    ("sync.lock_messages", Json::Num(12.0 * n)),
                    ("msg.lock_grant.msgs", Json::Num(100.0 * n)),
                ]),
            ),
            (
                "lock_wait",
                Json::obj([
                    ("count", Json::Num(8.0)),
                    ("p50_us", Json::Num(40.0)),
                    ("p95_us", Json::Num(90.0)),
                ]),
            ),
        ])
    }

    #[test]
    fn the_catalogue_has_no_duplicate_and_fits_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        for wire in TRIP_WIRES {
            assert!(PER_LAYER.iter().any(|m| m.name == wire));
        }
    }

    #[test]
    fn end_to_end_pools_executions_across_blocks() {
        let blocks = [
            block(&[10.0, 12.0], false),
            block(&[11.0, 30.0, 13.0], false),
        ];
        let e = end_to_end(&blocks);
        assert_eq!(e["virt_elapsed_s"], 2.0);
        assert_eq!(e.len(), END_TO_END.len());
        assert_eq!(e["wire_msgs"], 100.0);
        assert_eq!(e["setup_s"], 0.1);
        assert_eq!(attempts(&blocks), (5, 0));
        assert_eq!(block_medians_ms(&blocks), vec![11.0, 13.0]);
    }

    #[test]
    fn per_layer_derives_ratios_and_overhead() {
        let blocks = Blocks {
            untraced: vec![block(&[10.0, 10.0], false)],
            traced: vec![block(&[11.0, 11.0], true)],
        };
        let micro = vec![("duq.cycle_ns".to_string(), 99.0)];
        let p = per_layer(
            &blocks,
            Some(&micro),
            &Msgpass::Broken("panic".into()),
            true,
        );
        assert_eq!(p["apps.executions"], 2.0);
        assert_eq!(p["apps.host_run_ms"], 10.0);
        assert_eq!(p["apps.host_cpu_ms"], 40.0);
        assert_eq!(p["sync.lock_acquires"], 8.0);
        assert_eq!(p["sync.lock_local_share"], 0.25);
        assert_eq!(p["sync.msgs_per_lock"], 1.5);
        assert_eq!(p["sync.lock_wait_p95_us"], 90.0);
        assert_eq!(p["sim.user_share_root"], 0.5);
        assert_eq!(p["sim.virt_system_s"], 0.5);
        assert_eq!(p["obs.trace_valid"], 1.0);
        // No worker spans in these blocks: a library app.
        assert!(!p.contains_key("api.barrier_ns") && !p.contains_key("api.sync_share"));
        assert!((p["obs.trace_overhead"] - 0.1).abs() < 1e-12);
        assert_eq!(p["duq.cycle_ns"], 99.0);
        assert_eq!(p["msgpass.ref_ok"], 0.0);
        assert!(!p.contains_key("msgpass.virt_ratio"));
        assert!(tripped(&blocks.traced).is_empty());
    }

    #[test]
    fn a_non_zero_trip_wire_is_named() {
        let counters = Json::obj([
            ("reliable.retransmits", Json::Num(0.0)),
            ("runtime.watchdog_stalls", Json::Num(1.0)),
            // Reported, but not a trip-wire: `sor` raises it at the parent.
            ("runtime.errors", Json::Num(2.0)),
            ("obs.events_dropped", Json::Num(3.0)),
        ]);
        let blocks = [block(&[1.0], false), Json::obj([("counters", counters)])];
        assert_eq!(
            tripped(&blocks),
            vec!["runtime.watchdog_stalls", "obs.events_dropped"]
        );
    }
}
