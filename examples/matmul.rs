//! The paper's Matrix Multiply program (Table 3): inputs annotated
//! `read_only`, output annotated `result`, compared against the hand-coded
//! message-passing version on the same simulated hardware.
//!
//! Run with: `cargo run --release --example matmul [-- <procs> [n]]`

use munin::apps::matmul::{self, MatmulParams};
use munin::CostModel;

fn main() {
    let mut args = std::env::args().skip(1);
    let procs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);

    let mut params = MatmulParams::paper(procs);
    params.n = n;
    let cost = CostModel::sun_ethernet_1991();

    println!("Matrix Multiply, {n}x{n} int matrices, {procs} processors");
    let (munin_run, c_munin) = matmul::run_munin(params, cost.clone()).expect("munin run");
    let (dm_run, c_dm) = matmul::run_message_passing(params, cost).expect("mp run");
    assert_eq!(c_munin, c_dm, "both versions compute identical results");

    println!(
        "  message passing : {:>8.2} s ({} messages)",
        dm_run.secs(),
        dm_run.net.total.msgs
    );
    println!(
        "  Munin           : {:>8.2} s ({} messages, system {:.2} s, user {:.2} s)",
        munin_run.secs(),
        munin_run.net.total.msgs,
        munin_run.root_system.as_secs_f64(),
        munin_run.root_user.as_secs_f64()
    );
    println!(
        "  Munin overhead  : {:+.1} %",
        munin_run.percent_diff(&dm_run)
    );
}
