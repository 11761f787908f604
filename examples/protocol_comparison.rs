//! The Table 6 experiment at a reduced scale: what happens when the
//! multi-protocol annotations are replaced by a single protocol for every
//! shared variable (write-shared only, or conventional only) — plus the
//! carrier-layer message economy: the per-message-kind protocol traffic of
//! the multi-protocol SOR run.
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

    // Carrier-layer message economy: the same SOR instance's report, whose
    // per-kind traffic counts a carrier under the class of the message it
    // frames, next to its time split and the blocking-wait / fault-service
    // latency percentiles collected by the flight recorder subsystem.
    let mut sp = SorParams::paper(procs);
    sp.rows = 512;
    sp.cols = 256;
    sp.iterations = 10;
    let (run, _) = sor::run_munin(sp, cost.clone()).expect("sor");
    println!();
    println!(
        "SOR piggybacked bundles ({procs} processors): {}",
        run.stats.msgs_piggybacked
    );
    print!("{}", run.render_report());
}
