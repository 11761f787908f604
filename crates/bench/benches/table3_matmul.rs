//! Regenerates Table 3 of the paper: Matrix Multiply (400 × 400), Munin vs.
//! hand-coded message passing, 1–16 processors. Exits non-zero when Munin is
//! more than 10 % behind at up to 8 processors.

use munin_bench::{matmul_comparison, report_headline, PAPER_PROCS};

fn main() {
    println!("=== Table 3: performance of Matrix Multiply (sec) ===");
    let rows = matmul_comparison(&PAPER_PROCS, false);
    report_headline(
        "Matrix Multiply, 400x400 int matrices",
        &rows,
        8,
        "each worker's inputs arrive in three round trips, but the root still looks up and \
         copies every page it serves (about 1 370 of them, 1.06 ms each) on the processor \
         that computes its own band: 1.67 s of system time against 8.48 s of compute, where \
         the message-passing root is charged nothing for assembling its sends",
    );
}
