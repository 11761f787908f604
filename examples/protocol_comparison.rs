//! The Table 6 experiment at a reduced scale: what happens when the
//! multi-protocol annotations are replaced by a single protocol for every
//! shared variable (write-shared only, or conventional only) — plus the
//! carrier-layer message economy: per-message-kind protocol traffic with
//! `MUNIN_PIGGYBACK` on vs off.
//!
//! Run with: `cargo run --release --example protocol_comparison [-- <procs>]`

use munin::apps::matmul::{self, MatmulParams};
use munin::apps::sor::{self, SorParams};
use munin::{CostModel, SharingAnnotation};

fn main() {
    let procs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);
    let cost = CostModel::sun_ethernet_1991();
    println!("Effect of multiple protocols ({procs} processors), seconds");
    println!("{:<14} {:>16} {:>10}", "Protocol", "Matrix Multiply", "SOR");
    for (label, ann) in [
        ("Multiple", None),
        ("Write-shared", Some(SharingAnnotation::WriteShared)),
        ("Conventional", Some(SharingAnnotation::Conventional)),
    ] {
        let mut mm = MatmulParams::paper(procs);
        mm.n = 256;
        mm.annotation_override = ann;
        let (mm_run, _) = matmul::run_munin(mm, cost.clone()).expect("matmul");
        let mut sp = SorParams::paper(procs);
        sp.rows = 512;
        sp.cols = 256;
        sp.iterations = 10;
        sp.annotation_override = ann;
        let (sor_run, _) = sor::run_munin(sp, cost.clone()).expect("sor");
        println!(
            "{:<14} {:>16.2} {:>10.2}",
            label,
            mm_run.secs(),
            sor_run.secs()
        );
    }

    // Carrier-layer message economy: the same SOR instance with piggybacking
    // on vs off, broken down by message kind (carriers count under the class
    // of the message they frame, so the per-kind split stays comparable).
    let run_sor = |piggyback: bool| {
        let mut sp = SorParams::paper(procs);
        sp.rows = 512;
        sp.cols = 256;
        sp.iterations = 10;
        sp.piggyback = piggyback;
        let (m, _) = sor::run_munin(sp, cost.clone()).expect("sor");
        m
    };
    let on = run_sor(true);
    let off = run_sor(false);
    println!();
    println!("SOR protocol traffic by message kind ({procs} processors), piggyback on vs off");
    println!(
        "{:<22} {:>12} {:>12} {:>14} {:>14}",
        "kind", "msgs (on)", "msgs (off)", "bytes (on)", "bytes (off)"
    );
    let mut kinds: Vec<&str> = on
        .engine
        .per_class
        .keys()
        .chain(off.engine.per_class.keys())
        .copied()
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let a = on.engine.class(kind);
        let b = off.engine.class(kind);
        println!(
            "{kind:<22} {:>12} {:>12} {:>14} {:>14}",
            a.msgs, b.msgs, a.bytes, b.bytes
        );
    }
    println!(
        "{:<22} {:>12} {:>12} {:>14} {:>14}",
        "TOTAL",
        on.engine.messages_sent,
        off.engine.messages_sent,
        on.engine.bytes_sent,
        off.engine.bytes_sent
    );
    println!(
        "piggybacked bundles: {}   message drop: {:.1}%",
        on.stats.msgs_piggybacked,
        100.0 * (1.0 - on.engine.messages_sent as f64 / off.engine.messages_sent as f64)
    );

    // Unified single-run report for the standard (piggyback-on) run: time
    // split, per-kind traffic, and the blocking-wait / fault-service latency
    // percentiles collected by the flight recorder subsystem.
    println!();
    print!("{}", on.render_report());
}
