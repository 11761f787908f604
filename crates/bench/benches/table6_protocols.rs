//! Regenerates Table 6 of the paper: the effect of multiple protocols.
//! Matrix Multiply and SOR at 16 processors under (a) the multi-protocol
//! annotations, (b) write-shared only, (c) conventional only. Exits non-zero
//! unless the multi-protocol row is strictly the fastest in each column; SOR
//! forced conventional, which the host schedule moves, is printed unchecked.

use munin_bench::{format_protocol_table, protocol_comparison, protocol_order_violations};

fn main() {
    println!("=== Table 6: effect of multiple protocols (sec, 16 processors) ===");
    let rows = protocol_comparison(16);
    print!("{}", format_protocol_table(&rows));
    let multi_sor = rows[0].sor.as_secs_f64();
    let ws_sor = rows[1].sor.as_secs_f64();
    let conv_sor = rows[2].sor.as_secs_f64();
    println!(
        "SOR: write-shared / multiple = {:.2}x, conventional / multiple = {:.2}x",
        ws_sor / multi_sor,
        conv_sor / multi_sor
    );
    let multi_mm = rows[0].matmul.as_secs_f64();
    println!(
        "Matrix Multiply: write-shared / multiple = {:.2}x, conventional / multiple = {:.2}x",
        rows[1].matmul.as_secs_f64() / multi_mm,
        rows[2].matmul.as_secs_f64() / multi_mm
    );
    let broken = protocol_order_violations(&rows);
    if broken.is_empty() {
        println!(
            "ordering holds: multiple protocols are the fastest in each column \
             (SOR forced conventional not checked)"
        );
        return;
    }
    for line in &broken {
        eprintln!("ordering broken: {line}");
    }
    std::process::exit(1);
}
