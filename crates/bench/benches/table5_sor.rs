//! Regenerates Table 5 of the paper: Successive Over-Relaxation, Munin vs.
//! hand-coded message passing, 1–16 processors. Exits non-zero when Munin is
//! more than 10 % behind at any of them.

use munin_bench::{report_headline, sor_comparison, PAPER_PROCS};

fn main() {
    println!("=== Table 5: performance of SOR (sec) ===");
    let rows = sor_comparison(&PAPER_PROCS);
    // +6.6 % at 16 processors: a section is down to 64 rows, so an
    // iteration's fixed costs — two barriers the root collects and releases,
    // the faults and updates of the boundary pages — weigh on a sixteenth of
    // the compute. Below 8 processors Munin is within 0.7 % (2 processors
    // read -0.5 %: its workers initialise their own bands in parallel, while
    // the reference scatters them from its root). Virtual time repeats to
    // 0.1 %.
    report_headline("SOR, 1024x512 grid, 20 iterations", &rows);
}
