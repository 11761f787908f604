//! Hand-coded message-passing runtime used as the comparison baseline.
//!
//! The paper evaluates Munin by hand-coding the same applications "on the
//! same hardware using the underlying message passing primitives", taking
//! care that the computational components are identical. This crate provides
//! those primitives on the same simulated substrate (`munin-sim`) and with
//! the same cost model, so the Munin-vs-message-passing comparison of
//! Tables 3–5 is reproduced under controlled conditions.
//!
//! The interface is deliberately minimal: typed `send`/`recv` of tagged
//! integer / float vectors between nodes, a selective receive by sender and
//! tag, plus a barrier collected at the root — exactly what the hand-coded
//! Matrix Multiply and SOR programs need.
//!
//! A node's clock moves to a message's arrival when the program *consumes*
//! the message, not when the library pops it: a receive that is waiting for
//! one sender's message sets aside whatever else arrives first (a
//! neighbour's row for the next iteration, say), and a message set aside has
//! not been waited for.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::RefCell;
use std::collections::VecDeque;

use munin_sim::{Cluster, ClusterReport, CostModel, Envelope, NodeCtx, NodeId, SimError, TimeKind};

/// A message in the hand-coded message-passing programs.
#[derive(Clone, Debug, PartialEq)]
pub enum MpMsg {
    /// A tagged vector of 64-bit integers.
    Ints {
        /// Application-defined tag.
        tag: u32,
        /// Payload.
        data: Vec<i64>,
    },
    /// A tagged vector of 64-bit floats.
    Floats {
        /// Application-defined tag.
        tag: u32,
        /// Payload.
        data: Vec<f64>,
    },
    /// Barrier arrival notification (collected at the root).
    BarrierArrive,
    /// Barrier release broadcast by the root.
    BarrierRelease,
}

impl MpMsg {
    fn class(&self) -> &'static str {
        match self {
            MpMsg::Ints { .. } => "mp_ints",
            MpMsg::Floats { .. } => "mp_floats",
            MpMsg::BarrierArrive => "mp_barrier_arrive",
            MpMsg::BarrierRelease => "mp_barrier_release",
        }
    }

    /// Modelled wire size: a 32-byte header plus the payload. Integer
    /// payloads are modelled as 4 bytes per element to match the `int`
    /// matrices of the paper's programs (the in-memory `i64` representation
    /// is an implementation convenience).
    fn model_bytes(&self) -> u64 {
        32 + match self {
            MpMsg::Ints { data, .. } => 4 * data.len() as u64,
            MpMsg::Floats { data, .. } => 8 * data.len() as u64,
            MpMsg::BarrierArrive | MpMsg::BarrierRelease => 4,
        }
    }
}

/// Per-node context handed to a message-passing worker.
pub struct MpCtx {
    inner: NodeCtx<MpMsg>,
    /// Messages popped while a selective receive was waiting for another
    /// one, in arrival order. They have not moved the clock.
    stash: RefCell<VecDeque<(Envelope, MpMsg)>>,
}

impl MpCtx {
    /// This node's index (node 0 is the root).
    pub fn node_id(&self) -> usize {
        self.inner.node_id().as_usize()
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    /// Charges `ops` abstract application operations of computation
    /// (identical to the Munin version's accounting).
    pub fn compute(&self, ops: u64) {
        self.inner.compute(ops);
    }

    /// Sends a message to `dst`.
    pub fn send(&self, dst: usize, msg: MpMsg) -> Result<(), SimError> {
        self.inner
            .sender()
            .send(NodeId::new(dst), msg.class(), msg.model_bytes(), msg)
            .map(|_| ())
    }

    /// Receives the next message (blocking), returning the sender and the
    /// message.
    pub fn recv(&self) -> Result<(usize, MpMsg), SimError> {
        self.recv_where(|_, _| true)
    }

    /// Receives the earliest message `wanted(sender, message)` accepts
    /// (blocking), setting aside everything that arrives before it for later
    /// receives. Only the message returned moves this node's clock, to its
    /// arrival.
    pub fn recv_where(
        &self,
        wanted: impl Fn(usize, &MpMsg) -> bool,
    ) -> Result<(usize, MpMsg), SimError> {
        let mut stash = self.stash.borrow_mut();
        let held = stash
            .iter()
            .position(|(env, msg)| wanted(env.src.as_usize(), msg));
        let (env, msg) = match held.and_then(|i| stash.remove(i)) {
            Some(found) => found,
            None => loop {
                let (env, msg, _timer) = self.inner.receiver().recv_unclocked()?;
                if wanted(env.src.as_usize(), &msg) {
                    break (env, msg);
                }
                stash.push_back((env, msg));
            },
        };
        self.inner.clock().advance_to(TimeKind::Wait, env.arrival);
        Ok((env.src.as_usize(), msg))
    }

    /// Receives the next integer-vector message, returning `(sender, tag,
    /// data)`.
    pub fn recv_ints(&self) -> Result<(usize, u32, Vec<i64>), SimError> {
        match self.recv()? {
            (src, MpMsg::Ints { tag, data }) => Ok((src, tag, data)),
            _ => Err(SimError::Disconnected),
        }
    }

    /// Receives the next float-vector message from `src` carrying `tag`.
    pub fn recv_floats_from(&self, src: usize, tag: u32) -> Result<Vec<f64>, SimError> {
        let wanted = |from: usize, msg: &MpMsg| {
            from == src && matches!(msg, MpMsg::Floats { tag: t, .. } if *t == tag)
        };
        match self.recv_where(wanted)? {
            (_, MpMsg::Floats { data, .. }) => Ok(data),
            _ => unreachable!("recv_where returns only what `wanted` accepted"),
        }
    }

    /// Simple barrier: workers notify the root; the root releases everyone.
    ///
    /// Unlike Munin's barrier this carries no consistency obligations —
    /// message-passing programs move their data explicitly.
    pub fn barrier(&self) -> Result<(), SimError> {
        let root = 0usize;
        if self.node_id() == root {
            let mut arrived = 1; // the root itself
            while arrived < self.nodes() {
                self.recv_where(|_, msg| matches!(msg, MpMsg::BarrierArrive))?;
                arrived += 1;
            }
            for n in 1..self.nodes() {
                self.send(n, MpMsg::BarrierRelease)?;
            }
            Ok(())
        } else {
            self.send(root, MpMsg::BarrierArrive)?;
            self.recv_where(|_, msg| matches!(msg, MpMsg::BarrierRelease))?;
            Ok(())
        }
    }
}

/// Runs an SPMD message-passing program: one worker closure per node on the
/// simulated cluster, returning the usual cluster report (elapsed virtual
/// time, per-node user/system split, network statistics).
pub fn run_mp_program<R, F>(
    nodes: usize,
    cost: CostModel,
    worker: F,
) -> Result<ClusterReport<R>, SimError>
where
    R: Send,
    F: Fn(&MpCtx) -> R + Sync,
{
    let cluster: Cluster<MpMsg> = Cluster::new(nodes, cost);
    cluster.run(|ctx| {
        let mp = MpCtx {
            inner: ctx,
            stash: RefCell::new(VecDeque::new()),
        };
        worker(&mp)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_round_trip_between_nodes() {
        let report = run_mp_program(2, CostModel::fast_test(), |ctx| {
            if ctx.node_id() == 0 {
                ctx.send(
                    1,
                    MpMsg::Ints {
                        tag: 7,
                        data: vec![1, 2, 3],
                    },
                )
                .unwrap();
                0
            } else {
                let (src, tag, data) = ctx.recv_ints().unwrap();
                assert_eq!(src, 0);
                assert_eq!(tag, 7);
                data.iter().sum::<i64>()
            }
        })
        .unwrap();
        assert_eq!(report.results, vec![0, 6]);
    }

    #[test]
    fn barrier_synchronizes_all_nodes() {
        let report = run_mp_program(4, CostModel::fast_test(), |ctx| {
            ctx.compute(10 * (ctx.node_id() as u64 + 1));
            ctx.barrier().unwrap();
            ctx.node_id()
        })
        .unwrap();
        assert_eq!(report.results, vec![0, 1, 2, 3]);
        // The barrier costs 2(N-1) messages.
        assert_eq!(report.net.total.msgs, 6);
    }

    #[test]
    fn message_bytes_scale_with_payload() {
        let small = MpMsg::Floats {
            tag: 0,
            data: vec![0.0; 2],
        };
        let large = MpMsg::Floats {
            tag: 0,
            data: vec![0.0; 100],
        };
        assert!(large.model_bytes() > small.model_bytes());
        assert_eq!(MpMsg::BarrierArrive.model_bytes(), 36);
    }

    #[test]
    fn scatter_gather_pattern() {
        // Root scatters a row to each worker and gathers doubled rows back.
        let report = run_mp_program(3, CostModel::fast_test(), |ctx| {
            if ctx.node_id() == 0 {
                for n in 1..ctx.nodes() {
                    ctx.send(
                        n,
                        MpMsg::Ints {
                            tag: n as u32,
                            data: vec![n as i64; 4],
                        },
                    )
                    .unwrap();
                }
                let mut total = 0i64;
                for _ in 1..ctx.nodes() {
                    let (_src, _tag, data) = ctx.recv_ints().unwrap();
                    total += data.iter().sum::<i64>();
                }
                total
            } else {
                let (_src, tag, data) = ctx.recv_ints().unwrap();
                let doubled: Vec<i64> = data.iter().map(|x| x * 2).collect();
                ctx.send(0, MpMsg::Ints { tag, data: doubled }).unwrap();
                0
            }
        })
        .unwrap();
        // Node 1 contributes 1*2*4 = 8, node 2 contributes 2*2*4 = 16.
        assert_eq!(report.results[0], 24);
    }

    #[test]
    fn a_message_set_aside_does_not_move_the_clock() {
        // Node 1 computes for a long time and then sends; node 2 sends at
        // once. The root asks for node 2's message first, then node 1's —
        // and the other way round. Either way it has waited for exactly what
        // it consumed, and ends at node 1's arrival.
        let cost = CostModel::fast_test();
        let run = |first: usize| {
            run_mp_program(3, cost.clone(), move |ctx| {
                let me = ctx.node_id();
                if me == 0 {
                    let second = 3 - first;
                    let a = ctx.recv_floats_from(first, 7).unwrap();
                    let after_first = ctx.inner.clock().now();
                    let b = ctx.recv_floats_from(second, 7).unwrap();
                    assert_eq!((a[0], b[0]), (first as f64, second as f64));
                    after_first.as_nanos()
                } else {
                    if me == 1 {
                        ctx.compute(100_000);
                    }
                    let data = vec![me as f64];
                    ctx.send(0, MpMsg::Floats { tag: 7, data }).unwrap();
                    0
                }
            })
            .unwrap()
        };
        let slow_first = run(1);
        let fast_first = run(2);
        assert_eq!(slow_first.elapsed, fast_first.elapsed);
        let compute = 100_000 * cost.compute_op_ns;
        assert!(slow_first.results[0] >= compute);
        // Node 2's message was consumed at its own (early) arrival although
        // node 1's may well have been popped, and set aside, before it.
        assert!(fast_first.results[0] < compute);
    }

    #[test]
    fn mixed_compute_and_communication_advances_time() {
        let report = run_mp_program(2, CostModel::fast_test(), |ctx| {
            if ctx.node_id() == 1 {
                ctx.compute(1000);
                ctx.send(
                    0,
                    MpMsg::Ints {
                        tag: 0,
                        data: vec![1],
                    },
                )
                .unwrap();
            } else {
                let _ = ctx.recv().unwrap();
            }
        })
        .unwrap();
        assert!(report.elapsed.as_nanos() >= 1000 * CostModel::fast_test().compute_op_ns);
    }
}
