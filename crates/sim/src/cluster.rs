//! Spawning a simulated cluster: one OS thread per node.
//!
//! [`Cluster::run`] spawns `n` threads, each receiving a [`NodeCtx`] with its
//! node id, clock, cost model, and network endpoint, then collects per-node
//! results and produces a [`ClusterReport`] with the virtual elapsed time
//! (the maximum node clock at termination, i.e. the time at which the slowest
//! node finished) and the network statistics.

use std::sync::Arc;

use crate::cost::CostModel;
use crate::error::SimError;
use crate::event::{EngineConfig, EngineStats, TraceEntry};
use crate::net::{Network, NodeId, Receiver, Sender};
use crate::stats::{NetSnapshot, NodeTimes};
use crate::time::{NodeClock, TimeKind, VirtTime};

/// Everything a node closure needs to participate in the simulation.
pub struct NodeCtx<M> {
    node: NodeId,
    nodes: usize,
    clock: NodeClock,
    cost: Arc<CostModel>,
    sender: Sender<M>,
    receiver: Receiver<M>,
}

impl<M: Send> NodeCtx<M> {
    /// This node's identifier.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Total number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node's virtual clock.
    pub fn clock(&self) -> &NodeClock {
        &self.clock
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The sending endpoint (cloneable).
    pub fn sender(&self) -> &Sender<M> {
        &self.sender
    }

    /// The receiving endpoint.
    pub fn receiver(&self) -> &Receiver<M> {
        &self.receiver
    }

    /// Splits the context into its parts, for runtimes that move the receiver
    /// into a dedicated service thread.
    pub fn into_parts(
        self,
    ) -> (
        NodeId,
        usize,
        NodeClock,
        Arc<CostModel>,
        Sender<M>,
        Receiver<M>,
    ) {
        (
            self.node,
            self.nodes,
            self.clock,
            self.cost,
            self.sender,
            self.receiver,
        )
    }

    /// Charges `ops` abstract application operations to user time.
    pub fn compute(&self, ops: u64) {
        self.clock.advance(TimeKind::User, self.cost.compute(ops));
    }
}

/// Builder for a simulated cluster run.
pub struct Cluster<M> {
    nodes: usize,
    cost: CostModel,
    engine: EngineConfig,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: Send + 'static> Cluster<M> {
    /// Creates a cluster of `nodes` nodes governed by `cost`. The event
    /// engine configuration defaults to [`EngineConfig::from_env`].
    pub fn new(nodes: usize, cost: CostModel) -> Self {
        Cluster {
            nodes,
            cost,
            engine: EngineConfig::from_env(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Sets the event-engine configuration (schedule seed, delivery mode,
    /// fault plan, trace recording) for this run.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Runs `f` once per node, each on its own OS thread, and collects the
    /// results. `f` receives the node's [`NodeCtx`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyCluster`] for a zero-node cluster and
    /// [`SimError::NodePanicked`] if any node closure panics.
    pub fn run<R, F>(self, f: F) -> Result<ClusterReport<R>, SimError>
    where
        R: Send,
        F: Fn(NodeCtx<M>) -> R + Sync,
    {
        if self.nodes == 0 {
            return Err(SimError::EmptyCluster);
        }
        let clocks: Vec<NodeClock> = (0..self.nodes).map(|_| NodeClock::new()).collect();
        let mut network: Network<M> =
            Network::with_engine(self.nodes, self.cost.clone(), self.engine);
        let engine = network.engine();
        let cost = Arc::new(self.cost);

        let mut ctxs = Vec::with_capacity(self.nodes);
        for (i, clock) in clocks.iter().enumerate() {
            let (sender, receiver) = network.endpoint(i, clock.clone())?;
            ctxs.push(NodeCtx {
                node: NodeId::new(i),
                nodes: self.nodes,
                clock: clock.clone(),
                cost: Arc::clone(&cost),
                sender,
                receiver,
            });
        }
        // Drop the network so that the master channel senders it holds do not
        // keep receivers alive after every node has finished.
        drop(network);

        let f = &f;
        let mut results: Vec<Option<R>> = Vec::with_capacity(self.nodes);
        let mut panicked: Option<usize> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.nodes);
            for ctx in ctxs {
                handles.push(scope.spawn(move || f(ctx)));
            }
            for (i, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(r) => results.push(Some(r)),
                    Err(_) => {
                        results.push(None);
                        if panicked.is_none() {
                            panicked = Some(i);
                        }
                    }
                }
            }
        });
        if let Some(i) = panicked {
            return Err(SimError::NodePanicked(i));
        }

        let node_times: Vec<NodeTimes> = clocks
            .iter()
            .enumerate()
            .map(|(i, c)| NodeTimes {
                node: i,
                total: c.now(),
                user: c.user_time(),
                system: c.system_time(),
                wait: c.wait_time(),
            })
            .collect();
        let elapsed = node_times
            .iter()
            .map(|t| t.total)
            .fold(VirtTime::ZERO, VirtTime::max);
        let trace = engine.trace_snapshot();
        let trace_digest = crate::event::trace_digest_of(&trace);
        Ok(ClusterReport {
            elapsed,
            node_times,
            net: engine.net(),
            engine_stats: engine.stats(),
            trace,
            trace_digest,
            results: results
                .into_iter()
                .map(|r| r.expect("checked above"))
                .collect(),
        })
    }
}

/// The outcome of a cluster run.
#[derive(Debug)]
pub struct ClusterReport<R> {
    /// Virtual time at which the last node finished.
    pub elapsed: VirtTime,
    /// Per-node time accounting.
    pub node_times: Vec<NodeTimes>,
    /// Wire statistics for the whole run: every message the engine scheduled.
    pub net: NetSnapshot,
    /// Drops, fired timers and late deliveries.
    pub engine_stats: EngineStats,
    /// Delivery trace, sorted by `(dst, seq_at_dst)`. Empty unless the engine
    /// configuration enabled trace recording.
    pub trace: Vec<TraceEntry>,
    /// Digest of the delivery trace (stable across runs that delivered the
    /// same per-destination sequences).
    pub trace_digest: u64,
    /// Per-node results returned by the node closures, indexed by node.
    pub results: Vec<R>,
}

impl<R> ClusterReport<R> {
    /// Time accounting for the root node (node 0), which is the node whose
    /// System/User split the paper's tables report.
    pub fn root_times(&self) -> NodeTimes {
        self.node_times[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cluster_is_rejected() {
        let cluster: Cluster<()> = Cluster::new(0, CostModel::fast_test());
        assert_eq!(cluster.run(|_| ()).err(), Some(SimError::EmptyCluster));
    }

    #[test]
    fn single_node_compute_is_counted() {
        let cluster: Cluster<()> = Cluster::new(1, CostModel::fast_test());
        let report = cluster
            .run(|ctx| {
                ctx.compute(100);
                7
            })
            .unwrap();
        assert_eq!(report.results, vec![7]);
        assert_eq!(
            report.elapsed.as_nanos(),
            100 * CostModel::fast_test().compute_op_ns
        );
        assert_eq!(report.root_times().user, report.elapsed);
    }

    #[test]
    fn ping_pong_between_nodes() {
        let cluster: Cluster<u32> = Cluster::new(2, CostModel::fast_test());
        let report = cluster
            .run(|ctx| {
                let me = ctx.node_id().as_usize();
                if me == 0 {
                    ctx.sender().send(NodeId::new(1), "ping", 8, 1).unwrap();
                    let (_env, v) = ctx.receiver().recv().unwrap();
                    v
                } else {
                    let (_env, v) = ctx.receiver().recv().unwrap();
                    ctx.sender().send(NodeId::new(0), "pong", 8, v + 1).unwrap();
                    v
                }
            })
            .unwrap();
        assert_eq!(report.results, vec![2, 1]);
        // Two scheduled deliveries of 8 modelled bytes each.
        assert_eq!(report.net.total.msgs, 2);
        assert_eq!(report.net.total.bytes, 16);
        // Both nodes must have advanced beyond zero: the round trip costs
        // two message overheads plus wire time.
        assert!(report.elapsed.as_nanos() >= 2 * CostModel::fast_test().msg_fixed_ns);
    }

    #[test]
    fn elapsed_is_max_over_nodes() {
        let cluster: Cluster<()> = Cluster::new(3, CostModel::fast_test());
        let report = cluster
            .run(|ctx| {
                let ops = (ctx.node_id().as_usize() as u64 + 1) * 10;
                ctx.compute(ops);
            })
            .unwrap();
        let slowest = report.node_times.iter().map(|t| t.total).max().unwrap();
        assert_eq!(report.elapsed, slowest);
        assert_eq!(
            report.elapsed.as_nanos(),
            30 * CostModel::fast_test().compute_op_ns
        );
    }

    #[test]
    fn node_panic_is_reported() {
        let cluster: Cluster<()> = Cluster::new(2, CostModel::fast_test());
        let result = cluster.run(|ctx| {
            if ctx.node_id().as_usize() == 1 {
                panic!("boom");
            }
        });
        assert_eq!(result.err(), Some(SimError::NodePanicked(1)));
    }

    #[test]
    fn into_parts_preserves_identity() {
        let cluster: Cluster<()> = Cluster::new(2, CostModel::fast_test());
        let report = cluster
            .run(|ctx| {
                let id = ctx.node_id();
                let (nid, n, _clock, _cost, sender, _receiver) = ctx.into_parts();
                assert_eq!(nid, id);
                assert_eq!(n, 2);
                assert_eq!(sender.node_id(), id);
                id.as_usize()
            })
            .unwrap();
        assert_eq!(report.results, vec![0, 1]);
    }
}
