//! Regenerates Table 3 of the paper: Matrix Multiply (400 × 400), Munin vs.
//! hand-coded message passing, 1–16 processors. Exits non-zero when Munin is
//! more than 10 % behind at any of them.

use munin_bench::{matmul_comparison, report_headline, PAPER_PROCS};

fn main() {
    println!("=== Table 3: performance of Matrix Multiply (sec) ===");
    let rows = matmul_comparison(&PAPER_PROCS, false);
    report_headline("Matrix Multiply, 400x400 int matrices", &rows);
}
