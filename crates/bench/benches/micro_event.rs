//! Criterion microbenchmarks of the discrete-event delivery engine: wall
//! clock per message through the virtual-time scheduler, the pure
//! submit/drain heap cost, and a scaling story: contended all-to-all submit/drain at 2–128 nodes and
//! concurrent ping-pong pairs at 8–256 nodes. The scaling benches are the
//! ones that expose engine-level lock contention — with a single global
//! engine lock every send and receive in the cluster serializes; with
//! per-destination shards only same-destination traffic does. The 64+ sizes
//! oversubscribe the 1-core measurement host on purpose: they measure the
//! engine's behaviour under heavy thread multiplexing, which is exactly what
//! a 256-node simulated cluster does to it.
//!
//! Refresh the committed baseline with:
//! `BENCH_JSON_OUT=BENCH_sim.json cargo bench -p munin-bench --bench micro_event`
//!
//! CI runs this bench with `-- --quick` (short measurement, few samples) as a
//! smoke test; see the criterion shim's quick mode.

use criterion::{criterion_group, criterion_main, Criterion};
use munin_sim::{CostModel, EngineConfig, Network, NodeClock, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Messages each node sends to each peer per all-to-all round. Large enough
/// that per-message engine work dominates the two barrier crossings per
/// round, so the measurement tracks the submit/drain path rather than
/// scheduler noise.
const MSGS_PER_PEER: u64 = 16;

/// Round trips each ping-pong pair performs per contended round.
const TRIPS_PER_ROUND: u64 = 8;

/// Measures a two-node ping-pong round trip (send + deliver + reply).
fn bench_pingpong(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_engine");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(15);
    group.bench_function("pingpong/virtual_time", |b| {
        let cfg = EngineConfig::seeded(7);
        let mut net: Network<u64> = Network::with_engine(2, CostModel::fast_test(), cfg);
        let (tx0, rx0) = net.endpoint(0, NodeClock::new()).unwrap();
        let (tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        // Payload 0 is the stop sentinel: the echo thread holds its own
        // sender, so it would never observe channel disconnection.
        let echo = std::thread::spawn(move || {
            while let Ok((_env, v)) = rx1.recv() {
                if v == 0 || tx1.send(NodeId::new(0), "pong", 8, v).is_err() {
                    break;
                }
            }
        });
        b.iter(|| {
            tx0.send(NodeId::new(1), "ping", 8, 1).unwrap();
            rx0.recv().unwrap().1
        });
        tx0.send(NodeId::new(1), "stop", 8, 0).unwrap();
        drop(tx0);
        drop(rx0);
        drop(net);
        let _ = echo.join();
    });
    group.finish();
}

/// Measures the single-threaded submit+drain cost of a 1024-message batch
/// (the pure priority-queue overhead, no thread handoff).
fn bench_submit_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_engine");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(15);
    group.bench_function("submit_drain_1024/virtual_time", |b| {
        let mut net: Network<u64> =
            Network::with_engine(2, CostModel::fast_test(), EngineConfig::seeded(7));
        let (tx0, _rx0) = net.endpoint(0, NodeClock::new()).unwrap();
        let (_tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        b.iter(|| {
            for i in 0..1024u64 {
                tx0.send(NodeId::new(1), "batch", 64, i).unwrap();
            }
            let mut n = 0u64;
            while let Some(_msg) = rx1.try_recv().unwrap() {
                n += 1;
            }
            n
        });
    });
    group.finish();
}

/// One all-to-all round from the perspective of node `me`: submit
/// [`MSGS_PER_PEER`] messages to every peer, wait for every node to finish
/// submitting, then drain exactly the expected number of deliveries. The
/// trailing gate keeps rounds from overlapping.
fn alltoall_round(
    me: usize,
    nodes: usize,
    tx: &munin_sim::Sender<u64>,
    rx: &munin_sim::Receiver<u64>,
    gate: &Barrier,
) {
    for k in 0..MSGS_PER_PEER {
        for peer in 0..nodes {
            if peer != me {
                // Vary the modelled size so arrival times (and heap orderings)
                // differ across sources.
                let bytes = 64 * (1 + (me as u64 + k) % 3);
                tx.send(NodeId::new(peer), "a2a", bytes, (me as u64) << 32 | k)
                    .unwrap();
            }
        }
    }
    gate.wait();
    for _ in 0..(nodes as u64 - 1) * MSGS_PER_PEER {
        rx.recv().unwrap();
    }
    gate.wait();
}

/// Contended all-to-all submit/drain: every node concurrently sends
/// [`MSGS_PER_PEER`] messages to every other node, then drains its own
/// queue. With one global engine lock all `nodes * (nodes-1) * MSGS_PER_PEER`
/// submits and as many receives serialize on it; with per-destination shards
/// only same-destination submits contend.
fn bench_alltoall(c: &mut Criterion, nodes: usize) {
    let mut group = c.benchmark_group("event_engine");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    group.bench_function(format!("alltoall_{nodes}/submit_drain"), |b| {
        let cfg = EngineConfig::seeded(7);
        let mut net: Network<u64> = Network::with_engine(nodes, CostModel::fast_test(), cfg);
        let gate = Arc::new(Barrier::new(nodes));
        let stop = Arc::new(AtomicBool::new(false));
        let mut endpoints = Vec::with_capacity(nodes);
        for i in 0..nodes {
            endpoints.push(net.endpoint(i, NodeClock::new()).unwrap());
        }
        drop(net);
        let (tx0, rx0) = endpoints.remove(0);
        let mut workers = Vec::with_capacity(nodes - 1);
        for (idx, (tx, rx)) in endpoints.into_iter().enumerate() {
            let me = idx + 1;
            let gate = Arc::clone(&gate);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || loop {
                gate.wait();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                alltoall_round(me, nodes, &tx, &rx, &gate);
            }));
        }
        b.iter(|| {
            gate.wait();
            alltoall_round(0, nodes, &tx0, &rx0, &gate);
        });
        stop.store(true, Ordering::Release);
        gate.wait();
        for w in workers {
            let _ = w.join();
        }
    });
    group.finish();
}

/// Contended ping-pong: `nodes / 2` independent pairs round-trip
/// concurrently. Under a global engine lock the pairs' latencies degrade as
/// pairs are added even though their traffic is completely disjoint.
fn bench_pingpong_contended(c: &mut Criterion, nodes: usize) {
    assert!(nodes >= 2 && nodes.is_multiple_of(2));
    let pairs = nodes / 2;
    let mut group = c.benchmark_group("event_engine");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    group.bench_function(format!("pingpong_contended_{nodes}/round"), |b| {
        let cfg = EngineConfig::seeded(7);
        let mut net: Network<u64> = Network::with_engine(nodes, CostModel::fast_test(), cfg);
        let gate = Arc::new(Barrier::new(pairs));
        let stop = Arc::new(AtomicBool::new(false));
        let mut endpoints = Vec::with_capacity(nodes);
        for i in 0..nodes {
            endpoints.push(net.endpoint(i, NodeClock::new()).unwrap());
        }
        drop(net);
        // Odd nodes echo until they see the stop sentinel (payload 0).
        let mut echoes = Vec::with_capacity(pairs);
        let mut pingers = Vec::with_capacity(pairs);
        // Walk pairs from the back so endpoint ownership moves out cleanly;
        // pair p is (2p, 2p+1) with 2p pinging and 2p+1 echoing.
        for p in (0..pairs).rev() {
            let (tx_echo, rx_echo) = endpoints.remove(2 * p + 1);
            let (tx_ping, rx_ping) = endpoints.remove(2 * p);
            let pinger_node = 2 * p;
            echoes.push(std::thread::spawn(move || {
                while let Ok((_env, v)) = rx_echo.recv() {
                    if v == 0
                        || tx_echo
                            .send(NodeId::new(pinger_node), "pong", 8, v)
                            .is_err()
                    {
                        break;
                    }
                }
            }));
            if p == 0 {
                // The main thread drives pair 0 inside `b.iter`.
                pingers.push(None);
                endpoints.push((tx_ping, rx_ping));
            } else {
                let gate = Arc::clone(&gate);
                let stop = Arc::clone(&stop);
                let echo_node = 2 * p + 1;
                pingers.push(Some(std::thread::spawn(move || {
                    loop {
                        gate.wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        for _ in 0..TRIPS_PER_ROUND {
                            tx_ping.send(NodeId::new(echo_node), "ping", 8, 1).unwrap();
                            rx_ping.recv().unwrap();
                        }
                        gate.wait();
                    }
                    // Release the echo partner.
                    let _ = tx_ping.send(NodeId::new(echo_node), "stop", 8, 0);
                })));
            }
        }
        let (tx0, rx0) = endpoints.pop().unwrap();
        b.iter(|| {
            gate.wait();
            for _ in 0..TRIPS_PER_ROUND {
                tx0.send(NodeId::new(1), "ping", 8, 1).unwrap();
                rx0.recv().unwrap();
            }
            gate.wait();
        });
        stop.store(true, Ordering::Release);
        gate.wait();
        let _ = tx0.send(NodeId::new(1), "stop", 8, 0);
        drop(tx0);
        drop(rx0);
        for p in pingers.into_iter().flatten() {
            let _ = p.join();
        }
        for e in echoes {
            let _ = e.join();
        }
    });
    group.finish();
}

fn bench_event(c: &mut Criterion) {
    bench_pingpong(c);
    bench_submit_drain(c);
    for nodes in [2, 8, 16, 32, 64, 128] {
        bench_alltoall(c, nodes);
    }
    for nodes in [8, 16, 32, 64, 128, 256] {
        bench_pingpong_contended(c, nodes);
    }
}

criterion_group!(benches, bench_event);
criterion_main!(benches);
