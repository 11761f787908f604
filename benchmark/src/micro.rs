//! Source M: host time of the layers' public functions, called directly.
//! Each figure is the median of 15 samples of a batch sized to last ≥ 4 ms.

use std::hint::black_box;
use std::time::{Duration, Instant};

use munin_core::diff;
use munin_core::duq::DelayedUpdateQueue;
use munin_core::obs::Recorder;
use munin_core::{EventKind, ObjectId};
use munin_sim::{CostModel, EngineConfig, Network, NodeClock, NodeId};

use crate::stats::median;

const SAMPLES: usize = 15;
const MIN_SAMPLE: Duration = Duration::from_millis(4);

/// The paper's object size: one 8 KB page, 2048 words.
const OBJECT_BYTES: usize = 8192;

/// Median host ns per call of `f`, where one call of `f` does `per_call`
/// units of work and the result is ns per unit.
fn time_ns(per_call: u32, mut f: impl FnMut()) -> f64 {
    let mut batch = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= MIN_SAMPLE || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(batch) / f64::from(per_call)
        })
        .collect();
    median(&samples)
}

/// Table 2's three modification patterns of an 8 KB object against its twin.
fn patterns() -> [(&'static str, Vec<u8>, Vec<u8>); 3] {
    let twin: Vec<u8> = (0..OBJECT_BYTES).map(|i| (i % 251) as u8).collect();
    let changed = |keep: &dyn Fn(usize) -> bool| {
        let mut cur = twin.clone();
        for (w, word) in cur.chunks_exact_mut(4).enumerate() {
            if !keep(w) {
                word[0] ^= 0xff;
            }
        }
        cur
    };
    [
        ("one_word", changed(&|w| w != 1000), twin.clone()),
        ("all_words", changed(&|_| false), twin.clone()),
        ("alternate", changed(&|w| w % 2 == 1), twin.clone()),
    ]
}

/// Runs every micro timing; returns (metric name, ns).
pub fn run() -> Vec<(String, f64)> {
    let mut out = Vec::new();

    for (name, current, twin) in patterns() {
        out.push((
            format!("diff.encode_ns.{name}"),
            time_ns(1, || {
                black_box(diff::encode(black_box(&current), black_box(&twin)));
            }),
        ));
        let d = diff::encode(&current, &twin);
        let mut target = twin.clone();
        out.push((
            format!("diff.apply_ns.{name}"),
            time_ns(1, || {
                diff::apply(black_box(&d), black_box(&mut target)).expect("same object size");
            }),
        ));
    }
    let object = vec![7u8; OBJECT_BYTES];
    out.push((
        "diff.twin_ns".into(),
        time_ns(1, || {
            black_box(diff::make_twin(black_box(&object)));
        }),
    ));

    // One DUQ cycle per object: take a pooled twin buffer, snapshot the
    // object into it, enqueue, and at the flush hand the buffer back.
    const DUQ_OBJECTS: u32 = 8;
    let mut duq = DelayedUpdateQueue::new();
    out.push((
        "duq.cycle_ns".into(),
        time_ns(DUQ_OBJECTS, || {
            for i in 0..DUQ_OBJECTS {
                let mut twin = duq.acquire_twin_buffer(OBJECT_BYTES);
                twin.extend_from_slice(&object);
                duq.enqueue(ObjectId::new(i), Some(twin));
            }
            for entry in duq.flush() {
                if let Some(twin) = entry.twin {
                    duq.recycle_twin(twin);
                }
            }
        }),
    ));

    out.push(("event.pingpong_ns".into(), pingpong_ns()));
    out.push(("event.fanin_ns_per_msg".into(), fanin_ns_per_msg()));

    let recorder = Recorder::new(NodeId::new(0), 65_536, false);
    let mut t_virt = 0u64;
    out.push((
        "obs.record_ns".into(),
        time_ns(1, || {
            t_virt += 1;
            recorder.record(t_virt, EventKind::FetchSend, |ev| {
                ev.peer = Some(NodeId::new(1));
            });
        }),
    ));

    out.push(("vm.write_trap_ns".into(), write_trap_ns()));
    out
}

/// Two-node round trip through the event engine: send, deliver, reply.
fn pingpong_ns() -> f64 {
    let mut net: Network<u64> =
        Network::with_engine(2, CostModel::fast_test(), EngineConfig::seeded(7));
    let (tx0, rx0) = net.endpoint(0, NodeClock::new()).expect("endpoint 0");
    let (tx1, rx1) = net.endpoint(1, NodeClock::new()).expect("endpoint 1");
    // Payload 0 stops the echo thread: it holds its own sender, so it would
    // never see the channel disconnect.
    let echo = std::thread::spawn(move || {
        while let Ok((_env, v)) = rx1.recv() {
            if v == 0 || tx1.send(NodeId::new(0), "pong", 8, v).is_err() {
                break;
            }
        }
    });
    let ns = time_ns(1, || {
        tx0.send(NodeId::new(1), "ping", 8, 1).expect("send");
        black_box(rx0.recv().expect("reply"));
    });
    tx0.send(NodeId::new(1), "stop", 8, 0).expect("send");
    echo.join().expect("echo thread");
    ns
}

/// Three senders submit to one destination, which then drains: the engine's
/// queue cost per message with no thread hand-off.
fn fanin_ns_per_msg() -> f64 {
    const SENDERS: usize = 3;
    const PER_SENDER: u64 = 256;
    let mut net: Network<u64> =
        Network::with_engine(SENDERS + 1, CostModel::fast_test(), EngineConfig::seeded(7));
    let (_tx0, rx0) = net.endpoint(0, NodeClock::new()).expect("endpoint 0");
    let senders: Vec<_> = (1..=SENDERS)
        .map(|i| net.endpoint(i, NodeClock::new()).expect("endpoint"))
        .collect();
    time_ns(SENDERS as u32 * PER_SENDER as u32, || {
        for k in 0..PER_SENDER {
            for (tx, _rx) in &senders {
                tx.send(NodeId::new(0), "fanin", 64, k).expect("send");
            }
        }
        let mut drained = 0u64;
        while let Some(msg) = rx0.try_recv().expect("receive") {
            black_box(msg);
            drained += 1;
        }
        assert_eq!(drained, SENDERS as u64 * PER_SENDER);
    })
}

/// A real write trap on a protected page: mprotect, SIGSEGV, twin the page
/// in the handler, unprotect, restart (Table 2's "handle fault" + "copy").
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn write_trap_ns() -> f64 {
    let Ok(mut region) = munin_vm::ProtectedRegion::new(1) else {
        return 0.0;
    };
    time_ns(1, || {
        region.protect_all().expect("write-protect");
        // SAFETY: offset 0 lies inside the one-page region mapped above,
        // which stays mapped until `region` drops after the timing.
        unsafe { std::ptr::write_volatile(region.base_ptr(), 1u8) };
        black_box(region.dirty_pages().len());
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn write_trap_ns() -> f64 {
    0.0
}
