//! The virtual-time cost of a distributed-queue lock round (acquire, read,
//! write, release of a migratory counter) at 2 to 16 nodes.

use munin_core::{MuninConfig, MuninProgram, SharingAnnotation};
use munin_sim::CostModel;

/// Runs a lock ping-pong program and returns virtual seconds per round.
fn lock_round_cost(nodes: usize, rounds: usize) -> f64 {
    let cfg = MuninConfig::paper(nodes).with_cost(CostModel::sun_ethernet_1991());
    let mut prog = MuninProgram::new(cfg);
    let counter = prog.declare::<i64>("counter", 1, SharingAnnotation::Migratory);
    let lock = prog.create_lock("lock");
    let done = prog.create_barrier("done");
    prog.user_init(move |init| init.write(&counter, 0, 0).unwrap());
    let report = prog
        .run(move |ctx| {
            for _ in 0..rounds {
                ctx.acquire_lock(lock)?;
                let v: i64 = ctx.read(&counter, 0)?;
                ctx.write(&counter, 0, v + 1)?;
                ctx.release_lock(lock)?;
            }
            ctx.wait_at_barrier(done)?;
            Ok(())
        })
        .expect("lock workload");
    report.elapsed.as_secs_f64() / (rounds * nodes) as f64
}

fn main() {
    for nodes in [2usize, 4, 8, 16] {
        println!(
            "virtual lock round ({nodes} nodes): {:.3} ms",
            lock_round_cost(nodes, 5) * 1e3
        );
    }
}
