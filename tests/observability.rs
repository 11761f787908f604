//! Observability-subsystem integration tests.
//!
//! The contract under test (`DESIGN.md`, "Observability"):
//!
//! * The flight recorder is invisible to the protocol: a recording-on run
//!   produces bit-identical results and identical schedule-deterministic
//!   protocol counters to a recording-off run. (Which counters are
//!   schedule-deterministic per workload follows the access-mode
//!   differential tests: matmul's full protocol set, SOR's stable subset —
//!   the excluded SOR counters vary run-to-run *within* one configuration,
//!   recording or not.)
//! * The Perfetto exporter is a pure function of the snapshots with a
//!   stable schema: a synthetic snapshot renders to a golden trace, and a
//!   real multi-node run renders to a schema-valid trace with one track per
//!   node and every update send paired with its install by flow arrows.
//! * Wait and fault-service histograms are populated for the operations a
//!   run actually performed, recording on or off.

use munin::apps::matmul::{self, MatmulParams};
use munin::apps::sor::{self, SorParams};
use munin::dsm::obs::perfetto;
use munin::sim::{CostModel, EngineConfig, NodeId};
use munin::{
    EventKind, MuninConfig, MuninProgram, MuninStatsSnapshot, ObsEvent, ObsSnapshot,
    SharingAnnotation,
};

/// Ring capacity large enough that no event of a small run is evicted.
const UNBOUNDED: usize = 1 << 20;

/// The protocol counters that are schedule-deterministic for every workload
/// (mirrors `tests/access_modes.rs`).
fn stable_subset(s: &MuninStatsSnapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("read_faults", s.read_faults),
        ("write_faults", s.write_faults),
        ("twins_created", s.twins_created),
        ("objects_fetched", s.objects_fetched),
        ("fetch_bytes", s.fetch_bytes),
        ("invalidations_sent", s.invalidations_sent),
        ("invalidations_received", s.invalidations_received),
        ("duq_flushes", s.duq_flushes),
        ("duq_objects_flushed", s.duq_objects_flushed),
        ("copyset_queries", s.copyset_queries),
        ("copyset_query_msgs", s.copyset_query_msgs),
        ("barrier_waits", s.barrier_waits),
    ]
}

/// Matmul's entire protocol counter set is schedule-deterministic, so the
/// recording differential compares it wholesale.
fn full_protocol_set(s: &MuninStatsSnapshot) -> Vec<(&'static str, u64)> {
    let mut v = stable_subset(s);
    v.extend([
        ("updates_sent", s.updates_sent),
        ("update_bytes_sent", s.update_bytes_sent),
        ("updates_applied", s.updates_applied),
        ("updates_healed", s.updates_healed),
        ("lock_acquires", s.lock_acquires),
        ("lock_local_acquires", s.lock_local_acquires),
        ("lock_messages", s.lock_messages),
        ("reductions", s.reductions),
        ("runtime_errors", s.runtime_errors),
    ]);
    v
}

// ---------------------------------------------------------------------------
// Differential: recording on vs off changes nothing the protocol can see.
// ---------------------------------------------------------------------------

#[test]
fn sor_16_nodes_is_bit_identical_with_recording_on_and_off() {
    let (rows, cols, iters, procs) = (64, 16, 3, 16);
    let reference = sor::serial(rows, cols, iters);
    let run = |flight_events: usize, seed: u64| {
        let mut p = SorParams::small(rows, cols, iters, procs);
        p.engine = EngineConfig::seeded(seed);
        p.flight_events = Some(flight_events);
        sor::run_munin(p, CostModel::fast_test()).unwrap()
    };
    for seed in [5u64, 23] {
        let (on, grid_on) = run(UNBOUNDED, seed);
        let (off, grid_off) = run(0, seed);

        // Results: both grids agree to the bit, and with the serial
        // reference.
        let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&grid_on),
            bits(&grid_off),
            "grids diverged under seed {seed}"
        );
        assert_eq!(
            bits(&grid_on),
            bits(&reference),
            "grid diverged from serial under seed {seed}"
        );

        // Protocol behaviour: the schedule-deterministic counters match.
        assert_eq!(
            stable_subset(&on.stats),
            stable_subset(&off.stats),
            "protocol counters diverged under seed {seed}"
        );
        assert_eq!(on.stats.watchdog_stalls, 0);
        assert_eq!(off.stats.watchdog_stalls, 0);

        // The recording-on run did record: waits and fault-service classes
        // SOR necessarily exercises are present, with plausible shapes.
        let waits = &on.obs.waits;
        assert!(waits.contains_key("barrier"), "waits: {:?}", waits.keys());
        assert!(waits.contains_key("fetch"), "waits: {:?}", waits.keys());
        let barrier = &waits["barrier"];
        assert!(barrier.count() > 0);
        assert!(barrier.p50_ns() <= barrier.p95_ns());
        assert!(barrier.p95_ns() <= barrier.p99_ns());
        assert!(barrier.p99_ns() <= barrier.max_ns());
        assert!(
            on.obs.fault_service.contains_key("producer_consumer"),
            "SOR's matrix is producer_consumer: {:?}",
            on.obs.fault_service.keys()
        );

        // Histograms stay on with the ring disabled (they are the cheap
        // half of the subsystem).
        assert!(off.obs.waits.contains_key("barrier"));
    }
}

#[test]
fn matmul_16_nodes_full_counter_set_unchanged_by_recording() {
    let run = |flight_events: usize| {
        let mut p = MatmulParams::small(32, 16);
        p.engine = EngineConfig::seeded(9);
        p.flight_events = Some(flight_events);
        matmul::run_munin(p, CostModel::fast_test()).unwrap()
    };
    let (on, c_on) = run(UNBOUNDED);
    let (off, c_off) = run(0);
    assert_eq!(c_on, c_off, "outputs must be bit-identical");
    assert_eq!(c_on, matmul::serial(32));
    assert_eq!(
        full_protocol_set(&on.stats),
        full_protocol_set(&off.stats),
        "matmul's whole protocol counter set is schedule-deterministic"
    );
    assert!(on.obs.fault_service.contains_key("read_only"));
    assert!(on.obs.fault_service.contains_key("result"));
}

// ---------------------------------------------------------------------------
// Golden trace: the exporter is a pure function with a pinned schema.
// ---------------------------------------------------------------------------

/// Builds a fully synthetic two-node snapshot pair (fixed virtual and wall
/// times) exercising a slice, a flow pair, and an instant.
fn synthetic_snapshots() -> Vec<ObsSnapshot> {
    let ev = |kind: EventKind, t: u64| ObsEvent {
        kind,
        t_virt_ns: t,
        t_wall_ns: t + 7,
        dur_ns: 0,
        object: None,
        sync_id: None,
        peer: None,
        seq: None,
        origin: None,
        run: None,
        zero_filled: None,
        note: None,
    };
    let mut send = ev(EventKind::UpdateSend, 1_000);
    send.peer = Some(NodeId::new(1));
    send.seq = Some(3);
    let mut grant = ev(EventKind::LockGrant, 5_000);
    grant.sync_id = Some(2);
    grant.dur_ns = 4_000;
    let mut install = ev(EventKind::UpdateInstall, 2_500);
    install.peer = Some(NodeId::new(0));
    install.seq = Some(3);
    let fire = ev(EventKind::TimerFire, 9_000);
    vec![
        ObsSnapshot {
            node: 0,
            events: vec![send, grant],
            events_recorded: 2,
            events_dropped: 0,
            waits: Default::default(),
            fault_service: Default::default(),
        },
        ObsSnapshot {
            node: 1,
            events: vec![install, fire],
            events_recorded: 2,
            events_dropped: 0,
            waits: Default::default(),
            fault_service: Default::default(),
        },
    ]
}

#[test]
fn exporter_renders_the_golden_trace_for_synthetic_events() {
    let trace = perfetto::render_trace(&synthetic_snapshots());
    // Deterministic: rendering is a pure function of the snapshots.
    assert_eq!(trace, perfetto::render_trace(&synthetic_snapshots()));
    let check = perfetto::validate_trace_str(&trace).expect("golden trace is schema-valid");
    assert_eq!(check.nodes, 2);
    assert_eq!(check.flows_matched, 1);
    assert_eq!(check.dropped, 0);
    // Golden fragments pin the schema: timestamps are integer-formatted
    // microseconds, flow ids are the (src, dst, seq) triple as a string,
    // span-end events become complete slices shifted back by their
    // duration.
    for fragment in [
        // The update send's flow start on node 0's track at t=1µs.
        r#""ph":"s","pid":1,"tid":0,"ts":1.000,"cat":"update","name":"update","id":"0-1-3""#,
        // Its install's flow finish on node 1's track, binding to the
        // enclosing slice's end (`bp:"e"`).
        r#""ph":"f","bp":"e","pid":1,"tid":1,"ts":2.500,"cat":"update","name":"update","id":"0-1-3""#,
        // The lock-grant slice spans [1µs, 5µs): ts is the *begin* time.
        r#""ph":"X","pid":1,"tid":0,"name":"lock_acquire","cat":"munin","ts":1.000,"dur":4.000"#,
        // Instants keep their own timestamp.
        r#""ph":"i","pid":1,"tid":1,"name":"timer_fire","cat":"munin","s":"t","ts":9.000"#,
    ] {
        assert!(
            trace.contains(fragment),
            "golden fragment missing from trace:\n{fragment}\n--- trace ---\n{trace}"
        );
    }
}

// ---------------------------------------------------------------------------
// Trace export: schema-valid, per-node tracks, fully paired flow arrows.
// ---------------------------------------------------------------------------

/// A 4-node workload that exercises every event family: faults (read and
/// write), fetches, lock transfers, barriers, and flushed updates.
fn traced_report() -> munin::MuninReport<i64> {
    let cfg = MuninConfig::fast_test(4)
        .with_engine(EngineConfig::seeded(11))
        .with_flight_events(UNBOUNDED);
    let mut prog = MuninProgram::new(cfg);
    let data = prog.declare::<i64>("data", 64, SharingAnnotation::WriteShared);
    let counter = prog.declare::<i64>("counter", 1, SharingAnnotation::Migratory);
    let lock = prog.create_lock("counter_lock");
    let step = prog.create_barrier("step");
    prog.user_init(move |init| {
        init.write_slice(&data, 0, &[1i64; 64]).unwrap();
    });
    prog.run(move |ctx| {
        let me = ctx.node_id() as i64;
        for round in 0..3 {
            ctx.acquire_lock(lock)?;
            let v: i64 = ctx.read(&counter, 0)?;
            ctx.write(&counter, 0, v + me + 1)?;
            ctx.release_lock(lock)?;
            ctx.write(&data, (ctx.node_id() * 16 + round) % 64, me)?;
            ctx.wait_at_barrier(step)?;
        }
        let mut sum = 0;
        for i in 0..64 {
            sum += ctx.read(&data, i)?;
        }
        ctx.wait_at_barrier(step)?;
        Ok(sum)
    })
    .unwrap()
}

#[test]
fn exported_trace_validates_with_fully_paired_flows() {
    let report = traced_report();
    assert!(report.first_error().is_none());
    for snap in &report.obs {
        assert!(
            snap.events_recorded > 0,
            "node {} recorded nothing",
            snap.node
        );
        assert_eq!(
            snap.events_dropped, 0,
            "ring was sized to hold the whole run"
        );
    }

    let trace = perfetto::render_trace(&report.obs);
    let check = perfetto::validate_trace_str(&trace).expect("schema-valid trace");
    assert_eq!(check.nodes, 4, "one track per node");
    assert!(check.slices > 0, "fault/lock/barrier spans become slices");
    assert!(check.flows_started > 0, "updates flowed between nodes");
    assert_eq!(check.dropped, 0);
    assert_eq!(
        (check.flows_matched, check.flows_finished),
        (check.flows_started, check.flows_started),
        "with nothing dropped, every update send pairs with its install"
    );
}

/// Four writers per page: every flush goes to the page's owner as a
/// cooperative relay bundle and the owner re-fans it to the other two
/// holders. Each of those forwards is a hop of its own in the trace — the
/// owner's `UpdateSend`, the holder's `UpdateInstall` — not a second finish
/// of the origin's flow.
#[test]
fn owner_refanned_updates_export_as_paired_flows() {
    const WORDS: usize = 4096;
    let nodes = 4;
    let cfg = MuninConfig::fast_test(nodes)
        .with_engine(EngineConfig::seeded(5))
        .with_flight_events(UNBOUNDED);
    let mut prog = MuninProgram::new(cfg);
    let data = prog.declare::<i32>("data", WORDS, SharingAnnotation::WriteShared);
    let step = prog.create_barrier("step");
    prog.user_init(move |init| init.write_slice(&data, 0, &[0i32; WORDS]).unwrap());
    let report = prog
        .run(move |ctx| {
            let me = ctx.node_id();
            // Warm copies first, so every node is in every page's copyset.
            let mut all = ctx.read_slice(&data, 0, WORDS)?;
            ctx.wait_at_barrier(step)?;
            for round in 1..=2 {
                for i in (me..WORDS).step_by(nodes) {
                    ctx.write(&data, i, round)?;
                }
                ctx.wait_at_barrier(step)?;
                all = ctx.read_slice(&data, 0, WORDS)?;
                ctx.wait_at_barrier(step)?;
            }
            Ok(all.iter().map(|v| *v as i64).sum::<i64>())
        })
        .unwrap();
    for r in &report.results {
        assert_eq!(*r.as_ref().unwrap(), 2 * WORDS as i64);
    }
    assert!(
        report.stats_total().owner_refans > 0,
        "the run must take the owner re-fan path"
    );
    let trace = perfetto::render_trace(&report.obs);
    let check = perfetto::validate_trace_str(&trace).expect("schema-valid trace");
    assert_eq!(check.dropped, 0);
    assert_eq!(
        (check.flows_matched, check.flows_finished),
        (check.flows_started, check.flows_started),
        "every hop's send pairs with its install"
    );
}

#[test]
fn stall_tails_surface_through_the_report() {
    // Covered in depth by tests/reliability.rs; here only the plumbing from
    // recorder to snapshot tails is checked on a healthy run.
    let report = traced_report();
    for snap in &report.obs {
        let tail = snap.tail(8);
        assert!(!tail.is_empty());
        assert!(tail.len() <= 8);
        assert!(tail.iter().all(|e| e.starts_with("t=")));
    }
}

// ---------------------------------------------------------------------------
// Aggregation: obs_total merges node histograms.
// ---------------------------------------------------------------------------

#[test]
fn obs_total_merges_per_node_wait_histograms() {
    let report = traced_report();
    let total = report.obs_total();
    let per_node: u64 = report
        .obs
        .iter()
        .map(|s| s.waits.get("lock_acquire").map_or(0, |h| h.count()))
        .sum();
    assert!(
        per_node > 0,
        "remote lock handoffs must have been waited on"
    );
    assert_eq!(total.waits["lock_acquire"].count(), per_node);
}
