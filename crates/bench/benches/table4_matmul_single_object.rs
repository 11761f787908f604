//! Regenerates Table 4 of the paper: Matrix Multiply with the `SingleObject`
//! optimization applied to the input matrix that every worker reads in full,
//! beside the plain program — a slice read fetches its pages as one run
//! whether or not the hint is given, so this is the record of what the hint
//! still buys.

use munin_bench::{format_comparison_table, matmul_comparison, PAPER_PROCS};

fn main() {
    println!("=== Table 4: performance of optimized Matrix Multiply (sec) ===");
    let plain = matmul_comparison(&PAPER_PROCS, false);
    let hinted = matmul_comparison(&PAPER_PROCS, true);
    print!(
        "{}",
        format_comparison_table("Matrix Multiply, plain (Table 3)", &plain)
    );
    print!(
        "{}",
        format_comparison_table("Matrix Multiply with SingleObject() on input2", &hinted)
    );
    println!(
        "{:>8} {:>10} {:>16} {:>10} {:>12} {:>14}",
        "# Procs", "plain (s)", "SingleObject (s)", "gain %", "plain msgs", "hinted msgs"
    );
    for (p, h) in plain.iter().zip(&hinted) {
        println!(
            "{:>8} {:>10.2} {:>16.2} {:>10.2} {:>12} {:>14}",
            p.procs,
            p.munin.secs(),
            h.munin.secs(),
            100.0 * (p.munin.secs() - h.munin.secs()) / p.munin.secs(),
            p.munin.net.total.msgs,
            h.munin.net.total.msgs
        );
    }
    let worst = hinted.iter().map(|r| r.diff_pct()).fold(f64::MIN, f64::max);
    println!("worst-case Munin overhead vs message passing: {worst:.1}%");
}
