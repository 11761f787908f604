//! The simulated interconnect.
//!
//! Messages really travel between OS threads, so every protocol path in the
//! DSM is exercised end-to-end; only their *latency* is simulated. Links
//! share no bus, so whatever else is in flight, a message's base arrival
//! (before the engine keeps its link FIFO) is
//!
//! ```text
//! arrival = sent_at + bytes × wire_ns_per_byte + wire_prop_ns
//! ```
//!
//! Transport and ordering are provided by the discrete-event engine in
//! [`crate::event`]: every send is scheduled on the destination's priority
//! queue keyed by `(deliver_at, seeded tie-break, seqno)`, and a receive pops
//! the earliest queued message. [`Receiver::recv`] then moves the receiver's
//! clock forward to the arrival (charging the gap as wait time);
//! [`Receiver::recv_unclocked`] leaves the clock alone, for a receiver that
//! serves requests on a timeline of its own. Either way a message carries
//! exactly the time its sender gave it — see `DESIGN.md` ("Virtual-time
//! model").

use std::fmt;
use std::sync::Arc;

use crate::cost::CostModel;
use crate::error::SimError;
use crate::event::{EngineConfig, EventEngine};
use crate::pace::Mailbox;
use crate::time::{NodeClock, TimeKind, VirtTime};

/// Identifier of a simulated node (processor).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from an index.
    pub const fn new(idx: usize) -> Self {
        NodeId(idx as u32)
    }

    /// The node index.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Metadata accompanying every message.
#[derive(Clone, Copy, Debug)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message class, used for statistics (e.g. `"object_request"`).
    pub class: &'static str,
    /// Modelled payload size in bytes (drives wire time); this is the size
    /// the real system would put on the wire, independent of the in-memory
    /// representation of the payload.
    pub model_bytes: u64,
    /// Sender's virtual time when the message was handed to the network.
    pub sent_at: VirtTime,
    /// Virtual time at which the message is delivered at the destination
    /// (including any engine-injected delay and the lane FIFO clamp).
    pub arrival: VirtTime,
}

/// Sending half of a node's network endpoint. Cheap to clone; clones share
/// the node's clock and the event engine (which counts what they send).
pub struct Sender<M> {
    node: NodeId,
    clock: NodeClock,
    engine: Arc<EventEngine<M>>,
    cost: Arc<CostModel>,
}

impl<M> Clone for Sender<M> {
    fn clone(&self) -> Self {
        self.engine.sender_registered();
        Sender {
            node: self.node,
            clock: self.clock.clone(),
            engine: Arc::clone(&self.engine),
            cost: Arc::clone(&self.cost),
        }
    }
}

impl<M> Drop for Sender<M> {
    fn drop(&mut self) {
        self.engine.sender_dropped();
    }
}

impl<M: Send> Sender<M> {
    /// Sends `payload` to `dst`, charging the fixed per-message software cost
    /// to this node's system time. Returns the envelope that was scheduled.
    ///
    /// `model_bytes` is the number of bytes the message would occupy on the
    /// wire in the real system (header + payload); it determines wire time.
    pub fn send(
        &self,
        dst: NodeId,
        class: &'static str,
        model_bytes: u64,
        payload: M,
    ) -> Result<Envelope, SimError> {
        self.clock.advance(TimeKind::System, self.cost.msg_fixed());
        let sent_at = self.clock.now();
        self.send_stamped(dst, class, model_bytes, payload, sent_at)
    }

    /// Sends `payload` with an explicit logical send timestamp instead of the
    /// node clock.
    ///
    /// This models work done by a concurrent runtime service thread (the
    /// paper's "Munin worker threads"): the reply to a request leaves at
    /// roughly the time the request arrived plus its service cost, even if
    /// the node's user thread has already accumulated a lot of virtual
    /// compute time. The fixed per-message CPU cost is still charged to the
    /// node's clock as system time.
    pub fn send_at(
        &self,
        dst: NodeId,
        class: &'static str,
        model_bytes: u64,
        payload: M,
        logical_time: VirtTime,
    ) -> Result<Envelope, SimError> {
        self.clock.advance(TimeKind::System, self.cost.msg_fixed());
        self.send_stamped(dst, class, model_bytes, payload, logical_time)
    }

    fn send_stamped(
        &self,
        dst: NodeId,
        class: &'static str,
        model_bytes: u64,
        payload: M,
        sent_at: VirtTime,
    ) -> Result<Envelope, SimError> {
        let idx = dst.as_usize();
        if idx >= self.engine.nodes() {
            return Err(SimError::NoSuchNode(idx));
        }
        let arrival = sent_at + self.cost.wire_time(model_bytes);
        let env = Envelope {
            src: self.node,
            dst,
            class,
            model_bytes,
            sent_at,
            arrival,
        };
        self.engine.submit(env, payload)
    }

    /// Schedules a self-addressed virtual-time timer event for this node.
    /// The payload is handed to the node's receiver once no real message is
    /// deliverable (the node went idle); `due` orders timers against each
    /// other. Timers are free: no wire bytes, no per-message cost, no trace
    /// entry, and the receiver's clock does not advance to `due`.
    pub fn schedule_timer(
        &self,
        due: VirtTime,
        class: &'static str,
        payload: M,
    ) -> Result<(), SimError> {
        self.engine
            .submit_timer(self.node.as_usize(), due, class, payload)
    }

    /// The delivery high-water mark of `dst` in nanoseconds of virtual time:
    /// the largest arrival handed out there so far. Used by stall diagnostics
    /// to show how far each destination's schedule progressed.
    pub fn delivery_frontier(&self, dst: NodeId) -> u64 {
        self.engine.frontier_ns(dst.as_usize())
    }

    /// Closes this node's own inbox: subsequent sends to it fail and its
    /// receiver reports disconnection once the already-scheduled messages
    /// drain. The runtime's abort path uses this to guarantee the service
    /// thread terminates even when the shutdown message itself was lost.
    pub fn close_inbox(&self) {
        self.engine.close_inbox(self.node.as_usize());
    }

    /// Blocks until nothing stamped before `t` can still be sent to any node
    /// ([`crate::pace`]); false if `timeout` of host time passed first.
    pub fn pace(&self, t: VirtTime, timeout: std::time::Duration) -> bool {
        let me = self.node.as_usize();
        self.engine.board.pace(me, t.as_nanos(), timeout)
    }

    /// A mailbox for this node's user thread ([`Self::pace`]).
    pub fn mailbox<T>(&self) -> Mailbox<T> {
        Mailbox::new(Arc::clone(&self.engine.board), self.node.as_usize())
    }

    /// The node this sender belongs to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Number of nodes reachable through this sender.
    pub fn nodes(&self) -> usize {
        self.engine.nodes()
    }

    /// The clock charged by this sender.
    pub fn clock(&self) -> &NodeClock {
        &self.clock
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

/// Receiving half of a node's network endpoint (single consumer).
pub struct Receiver<M> {
    node: NodeId,
    clock: NodeClock,
    engine: Arc<EventEngine<M>>,
}

impl<M> Drop for Receiver<M> {
    fn drop(&mut self) {
        self.engine.receiver_dropped(self.node.as_usize());
    }
}

impl<M: Send> Receiver<M> {
    /// Blocks until the engine delivers the earliest scheduled message, then
    /// advances this node's clock to the message's arrival (charging the gap
    /// as wait time; a message arriving in the clock's past moves nothing).
    /// Timer events (scheduled through [`Sender::schedule_timer`]) are
    /// delivered without advancing the clock: they fire when the node is
    /// idle and model no virtual waiting.
    pub fn recv(&self) -> Result<(Envelope, M), SimError> {
        let (env, payload, is_timer) = self.engine.recv_flagged(self.node.as_usize())?;
        if !is_timer {
            self.clock.advance_to(TimeKind::Wait, env.arrival);
        }
        Ok((env, payload))
    }

    /// Blocking receive that leaves the node clock alone: for a service
    /// thread that handles each request at the request's own arrival time
    /// while the clock belongs to the node's user thread. The flag is true
    /// for a timer event (its `arrival` is the due time it was armed with,
    /// which models no waiting).
    pub fn recv_unclocked(&self) -> Result<(Envelope, M, bool), SimError> {
        self.engine.recv_flagged(self.node.as_usize())
    }

    /// Non-blocking receive. Returns `Ok(None)` when no message is queued.
    pub fn try_recv(&self) -> Result<Option<(Envelope, M)>, SimError> {
        match self.engine.try_recv(self.node.as_usize())? {
            Some((env, payload)) => {
                self.clock.advance_to(TimeKind::Wait, env.arrival);
                Ok(Some((env, payload)))
            }
            None => Ok(None),
        }
    }

    /// The node this receiver belongs to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The clock advanced by this receiver.
    pub fn clock(&self) -> &NodeClock {
        &self.clock
    }
}

/// A fully connected network between `n` simulated nodes exchanging messages
/// of type `M`, scheduled by a seeded discrete-event engine.
pub struct Network<M> {
    cost: Arc<CostModel>,
    engine: Arc<EventEngine<M>>,
    taken: Vec<bool>,
}

impl<M: Send> Network<M> {
    /// Creates a network of `n` nodes governed by `cost`, with the engine
    /// configuration taken from the environment (`MUNIN_ENGINE_SEED`) or the
    /// defaults.
    pub fn new(n: usize, cost: CostModel) -> Self {
        Self::with_engine(n, cost, EngineConfig::from_env())
    }

    /// Creates a network with an explicit engine configuration (seed, fault
    /// plan, trace recording).
    pub fn with_engine(n: usize, cost: CostModel, engine: EngineConfig) -> Self {
        Network {
            cost: Arc::new(cost),
            engine: Arc::new(EventEngine::new(n, engine)),
            taken: vec![false; n],
        }
    }

    /// Number of nodes in the network.
    pub fn nodes(&self) -> usize {
        self.engine.nodes()
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The event engine scheduling this network's deliveries (for its wire
    /// statistics, trace snapshots and digests).
    pub fn engine(&self) -> Arc<EventEngine<M>> {
        Arc::clone(&self.engine)
    }

    /// Hands out the endpoint for node `idx`, binding it to `clock`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EndpointTaken`] if the endpoint for this node was
    /// already taken and [`SimError::NoSuchNode`] if `idx` is out of range.
    pub fn endpoint(
        &mut self,
        idx: usize,
        clock: NodeClock,
    ) -> Result<(Sender<M>, Receiver<M>), SimError> {
        let slot = self.taken.get_mut(idx).ok_or(SimError::NoSuchNode(idx))?;
        if *slot {
            return Err(SimError::EndpointTaken(idx));
        }
        *slot = true;
        let node = NodeId::new(idx);
        self.engine.board.bind_clock(idx, clock.clone());
        self.engine.sender_registered();
        Ok((
            Sender {
                node,
                clock: clock.clone(),
                engine: Arc::clone(&self.engine),
                cost: Arc::clone(&self.cost),
            },
            Receiver {
                node,
                clock,
                engine: Arc::clone(&self.engine),
            },
        ))
    }
}

impl<M> Drop for Network<M> {
    fn drop(&mut self) {
        // Endpoints that were never handed out can never be received from:
        // mark them closed so senders observe the disconnection instead of
        // queueing forever (mirrors dropping the receiving half of the old
        // channels).
        for (idx, taken) in self.taken.iter().enumerate() {
            if !taken {
                self.engine.receiver_dropped(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn two_node_net() -> (Network<u64>, Vec<NodeClock>) {
        let clocks = vec![NodeClock::new(), NodeClock::new()];
        (Network::new(2, CostModel::fast_test()), clocks)
    }

    #[test]
    fn send_and_receive_carries_payload() {
        let (mut net, clocks) = two_node_net();
        let (tx0, _rx0) = net.endpoint(0, clocks[0].clone()).unwrap();
        let (_tx1, rx1) = net.endpoint(1, clocks[1].clone()).unwrap();
        tx0.send(NodeId::new(1), "test", 64, 99).unwrap();
        let (env, payload) = rx1.recv().unwrap();
        assert_eq!(payload, 99);
        assert_eq!(env.src, NodeId::new(0));
        assert_eq!(env.dst, NodeId::new(1));
        assert_eq!(env.model_bytes, 64);
    }

    #[test]
    fn receiver_clock_advances_to_arrival() {
        let (mut net, clocks) = two_node_net();
        let (tx0, _rx0) = net.endpoint(0, clocks[0].clone()).unwrap();
        let (_tx1, rx1) = net.endpoint(1, clocks[1].clone()).unwrap();
        let env = tx0.send(NodeId::new(1), "test", 1000, 1).unwrap();
        assert!(env.arrival > env.sent_at);
        rx1.recv().unwrap();
        assert!(clocks[1].now() >= env.arrival);
    }

    #[test]
    fn unclocked_receive_leaves_the_clock_alone() {
        let (mut net, clocks) = two_node_net();
        let (tx0, _rx0) = net.endpoint(0, clocks[0].clone()).unwrap();
        let (_tx1, rx1) = net.endpoint(1, clocks[1].clone()).unwrap();
        let sent = tx0.send(NodeId::new(1), "test", 1000, 1).unwrap();
        let (env, _, is_timer) = rx1.recv_unclocked().unwrap();
        assert!(!is_timer);
        assert_eq!(env.arrival, sent.arrival);
        assert_eq!(clocks[1].now(), VirtTime::ZERO);
    }

    #[test]
    fn sender_charges_fixed_cost_as_system_time() {
        let (mut net, clocks) = two_node_net();
        let (tx0, _rx0) = net.endpoint(0, clocks[0].clone()).unwrap();
        let (_tx1, _rx1) = net.endpoint(1, clocks[1].clone()).unwrap();
        tx0.send(NodeId::new(1), "test", 0, 0).unwrap();
        assert_eq!(
            clocks[0].system_time().as_nanos(),
            CostModel::fast_test().msg_fixed_ns
        );
    }

    #[test]
    fn endpoint_cannot_be_taken_twice() {
        let (mut net, clocks) = two_node_net();
        net.endpoint(0, clocks[0].clone()).unwrap();
        assert_eq!(
            net.endpoint(0, clocks[0].clone()).err(),
            Some(SimError::EndpointTaken(0))
        );
        assert_eq!(
            net.endpoint(5, clocks[0].clone()).err(),
            Some(SimError::NoSuchNode(5))
        );
    }

    #[test]
    fn stats_are_recorded() {
        let (mut net, clocks) = two_node_net();
        let engine = net.engine();
        let (tx0, _rx0) = net.endpoint(0, clocks[0].clone()).unwrap();
        let (_tx1, rx1) = net.endpoint(1, clocks[1].clone()).unwrap();
        tx0.send(NodeId::new(1), "update", 128, 5).unwrap();
        tx0.send(NodeId::new(1), "lock", 8, 6).unwrap();
        rx1.recv().unwrap();
        rx1.recv().unwrap();
        let snap = engine.net();
        assert_eq!(snap.total.msgs, 2);
        assert_eq!(snap.class("update").bytes, 128);
    }

    #[test]
    fn cross_thread_send_recv() {
        let (mut net, clocks) = two_node_net();
        let (tx0, _rx0) = net.endpoint(0, clocks[0].clone()).unwrap();
        let (_tx1, rx1) = net.endpoint(1, clocks[1].clone()).unwrap();
        let handle = thread::spawn(move || {
            let (_env, v) = rx1.recv().unwrap();
            v
        });
        tx0.send(NodeId::new(1), "x", 1, 1234).unwrap();
        assert_eq!(handle.join().unwrap(), 1234);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let (mut net, clocks) = two_node_net();
        let (_tx0, rx0) = net.endpoint(0, clocks[0].clone()).unwrap();
        assert!(matches!(rx0.try_recv(), Ok(None)));
    }

    #[test]
    fn messages_are_delivered_in_virtual_time_order() {
        // A big (slow) message sent first from node 0 and a small (fast) one
        // sent from node 1: the engine delivers the one that *arrives* first,
        // regardless of real submission order.
        let clocks = [NodeClock::new(), NodeClock::new(), NodeClock::new()];
        let mut cost = CostModel::fast_test();
        cost.msg_fixed_ns = 0;
        cost.wire_ns_per_byte = 10;
        // Pin the engine: this test asserts virtual-time ordering whatever
        // seed or faults the environment selects for the rest of the suite.
        let mut net: Network<u32> = Network::with_engine(3, cost, EngineConfig::seeded(1));
        let (tx0, _rx0) = net.endpoint(0, clocks[0].clone()).unwrap();
        let (tx1, _rx1) = net.endpoint(1, clocks[1].clone()).unwrap();
        let (_tx2, rx2) = net.endpoint(2, clocks[2].clone()).unwrap();
        tx0.send(NodeId::new(2), "big", 10_000, 1).unwrap();
        tx1.send(NodeId::new(2), "small", 1, 2).unwrap();
        assert_eq!(rx2.recv().unwrap().1, 2, "earlier arrival delivered first");
        assert_eq!(rx2.recv().unwrap().1, 1);
    }

    #[test]
    fn same_lane_messages_never_overtake() {
        // On one (src, dst) link a later small message may not overtake an
        // earlier big one, even though its computed wire time is shorter.
        let clocks = [NodeClock::new(), NodeClock::new()];
        let mut cost = CostModel::fast_test();
        cost.msg_fixed_ns = 0;
        cost.wire_ns_per_byte = 10;
        // Pin the engine (independent of the environment's seed and faults).
        let mut net: Network<u32> = Network::with_engine(2, cost, EngineConfig::seeded(1));
        let (tx0, _rx0) = net.endpoint(0, clocks[0].clone()).unwrap();
        let (_tx1, rx1) = net.endpoint(1, clocks[1].clone()).unwrap();
        let big = tx0.send(NodeId::new(1), "big", 10_000, 1).unwrap();
        let small = tx0.send(NodeId::new(1), "small", 1, 2).unwrap();
        assert!(small.arrival >= big.arrival, "lane clamp orders the link");
        assert_eq!(rx1.recv().unwrap().1, 1);
        assert_eq!(rx1.recv().unwrap().1, 2);
    }

    #[test]
    fn recv_disconnects_after_all_senders_drop() {
        let (mut net, clocks) = two_node_net();
        let (tx0, _rx0) = net.endpoint(0, clocks[0].clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, clocks[1].clone()).unwrap();
        tx0.send(NodeId::new(1), "x", 1, 7).unwrap();
        drop(tx0);
        drop(tx1);
        drop(net);
        assert_eq!(rx1.recv().unwrap().1, 7);
        assert_eq!(rx1.recv().err(), Some(SimError::Disconnected));
    }
}
