//! The reliability layer: per-link message ids, cumulative acks,
//! retransmission with exponential backoff, and duplicate suppression.
//!
//! The event engine (and any future socket transport) may *lose* messages;
//! the Munin protocol above assumes it never does. This layer sits exactly at
//! the send/receive seam and restores that assumption: every outbound
//! protocol message is wrapped in [`DsmMsg::Reliable`] carrying a
//! per-(source, destination) message id — a generalization of the update
//! `seq` stream to all traffic — plus a cumulative ack of everything received
//! from that destination. Receivers deliver in id order exactly once
//! (buffering early arrivals, dropping duplicates below the receive
//! frontier), so the handlers above see the same in-order exactly-once
//! stream they always did. Senders hold unacked messages and retransmit on a
//! wall-clock backoff driven by engine timer events, which fire only when
//! the destination's delivery schedule is otherwise idle — a lost message
//! therefore stalls its link only until the next tick, not forever.
//!
//! The layer is off by default and auto-enables when the engine injects
//! loss (`MuninConfig::with_reliability` overrides the auto policy). When off, `wrap_outgoing` is an `enabled` check and nothing else
//! changes on the wire, so loss-free runs keep byte-identical schedules.
//!
//! Lock order: the reliable state is a leaf lock except that raw engine
//! sends (`Sender::send`, `Sender::schedule_timer`) are performed while it
//! is held — reliable lock → engine shard lock is the one permitted
//! nesting. It is never held while the directory, DUQ, sync, or outbox
//! locks are taken, and `NodeRuntime::send`/`send_service` take it only in
//! `wrap_outgoing` (which performs no engine call).

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use munin_sim::{NodeId, VirtTime};

use crate::config::MuninConfig;
use crate::msg::{DsmMsg, TimerKind};
use crate::stats;

use super::NodeRuntime;

/// Cap on the backoff exponent: backoff = pacing × 2^min(attempts, CAP).
const BACKOFF_EXP_CAP: u32 = 8;

/// Retransmit-attempt cap when failure detection is on: a message unacked
/// after this many attempts stops being retransmitted and marks the peer
/// suspect instead of spinning forever. Without detection the sweep stays
/// unbounded — a plain lossy run with no crash plan should keep converging
/// (and, if truly wedged, surface a watchdog stall, not a silent give-up).
const MAX_RETRANSMIT_ATTEMPTS: u32 = 32;

/// One unacknowledged outbound message, held for retransmission.
#[derive(Debug)]
struct UnackedEntry {
    /// Per-link message id (the id the wrapped transmission carried).
    id: u64,
    /// The inner protocol message, re-wrapped on retransmit with a fresh
    /// cumulative ack.
    inner: DsmMsg,
    /// Retransmissions performed so far (governs the backoff exponent).
    attempts: u32,
    /// Wall-clock time of the most recent transmission.
    last_tx: Instant,
}

/// Per-peer link state (one per destination, including the self link — the
/// engine's loss injection is per-lane and the self lane is a lane).
#[derive(Debug)]
struct PeerState {
    /// Id the next outbound wrapped message will carry (ids start at 1).
    next_id_out: u64,
    /// Outbound messages not yet covered by a cumulative ack from the peer.
    unacked: VecDeque<UnackedEntry>,
    /// Next inbound id we will deliver (everything below is acknowledged).
    next_id_in: u64,
    /// Early arrivals (id above `next_id_in`) buffered until the gap fills.
    reorder: BTreeMap<u64, DsmMsg>,
    /// Whether the peer has sent us something since our last ack to it; the
    /// ack rides the next outbound wrapped message, or a standalone
    /// `NetAck` at the next tick.
    acks_owed: bool,
}

impl PeerState {
    fn new() -> Self {
        PeerState {
            next_id_out: 1,
            unacked: VecDeque::new(),
            next_id_in: 1,
            reorder: BTreeMap::new(),
            acks_owed: false,
        }
    }

    /// Cumulative ack value: every id up to and including it was delivered.
    fn ack_upto(&self) -> u64 {
        self.next_id_in - 1
    }
}

/// The node's reliability-layer state (behind one mutex on `NodeRuntime`).
#[derive(Debug)]
pub(crate) struct ReliableState {
    /// Whether the layer wraps traffic at all (resolved once at startup).
    enabled: bool,
    /// Per-destination link state, indexed by node.
    peers: Vec<PeerState>,
    /// Whether a tick timer is currently scheduled with the engine.
    tick_scheduled: bool,
}

impl ReliableState {
    /// Builds the state, resolving the enable policy: an explicit
    /// `cfg.reliability` wins; otherwise the layer auto-enables exactly when
    /// the engine can lose messages (loss or crash injection).
    pub(crate) fn new(cfg: &MuninConfig, nodes: usize) -> Self {
        // Crash plans count as lossy: a frozen node's traffic is dropped for
        // the freeze window, and only retransmission recovers the gap.
        let lossy = cfg.engine.faults.loss_ppm > 0 || !cfg.engine.faults.crash.is_none();
        ReliableState {
            enabled: cfg.reliability.unwrap_or(lossy),
            peers: (0..nodes).map(|_| PeerState::new()).collect(),
            tick_scheduled: false,
        }
    }
}

impl NodeRuntime {
    /// Whether the reliability layer is wrapping this node's traffic.
    pub(crate) fn reliability_enabled(&self) -> bool {
        self.reliable.lock().enabled
    }

    /// Snapshot of outstanding unacked messages as
    /// `(destination index, count)` pairs, for stall reports.
    pub(crate) fn unacked_snapshot(&self) -> Vec<(usize, u64)> {
        self.reliable
            .lock()
            .peers
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.unacked.is_empty())
            .map(|(i, p)| (i, p.unacked.len() as u64))
            .collect()
    }

    /// Wraps an outbound protocol message in a `Reliable` frame, assigning
    /// the next per-link id, piggybacking the cumulative ack owed to `dst`,
    /// and recording the message for retransmission. Identity when the layer
    /// is disabled; transport-internal frames (`NetAck`, self-timers) and the
    /// failure detector's traffic (`Heartbeat`, `PeerDown`) pass through
    /// unchanged — retransmitting a liveness probe to a node
    /// suspected dead would defeat both layers.
    pub(crate) fn wrap_outgoing(&self, dst: NodeId, msg: DsmMsg) -> DsmMsg {
        if matches!(
            msg,
            DsmMsg::NetAck { .. } | DsmMsg::Timer(_) | DsmMsg::Heartbeat | DsmMsg::PeerDown { .. }
        ) {
            return msg;
        }
        let mut rel = self.reliable.lock();
        if !rel.enabled {
            return msg;
        }
        let peer = &mut rel.peers[dst.as_usize()];
        let id = peer.next_id_out;
        peer.next_id_out += 1;
        let ack = peer.ack_upto();
        peer.acks_owed = false;
        peer.unacked.push_back(UnackedEntry {
            id,
            inner: msg.clone(),
            attempts: 0,
            last_tx: Instant::now(),
        });
        self.ensure_tick(&mut rel);
        DsmMsg::Reliable {
            id,
            ack,
            inner: Box::new(msg),
        }
    }

    /// Processes a cumulative ack from `src`: drops every held message with
    /// id ≤ `upto`.
    pub(crate) fn on_net_ack(&self, src: NodeId, upto: u64) {
        let mut rel = self.reliable.lock();
        if !rel.enabled {
            return;
        }
        let peer = &mut rel.peers[src.as_usize()];
        while peer.unacked.front().is_some_and(|e| e.id <= upto) {
            peer.unacked.pop_front();
        }
    }

    /// Accepts an inbound `Reliable` frame from `src` and returns the inner
    /// messages now deliverable, in id order. Duplicates (id below the
    /// receive frontier) are dropped and quenched with an immediate
    /// standalone ack so the sender stops retransmitting; early arrivals are
    /// buffered until the gap fills.
    pub(crate) fn reliable_deliver(&self, src: NodeId, id: u64, inner: DsmMsg) -> Vec<DsmMsg> {
        let mut rel = self.reliable.lock();
        let peer = &mut rel.peers[src.as_usize()];
        if id < peer.next_id_in {
            stats::bump(&self.stats.dup_msgs_dropped);
            let upto = peer.ack_upto();
            peer.acks_owed = false;
            stats::bump(&self.stats.net_acks_sent);
            let _ = self.send_raw(src, DsmMsg::NetAck { upto });
            return Vec::new();
        }
        if id > peer.next_id_in {
            peer.reorder.insert(id, inner);
            peer.acks_owed = true;
            self.ensure_tick(&mut rel);
            return Vec::new();
        }
        peer.next_id_in += 1;
        let mut out = vec![inner];
        loop {
            let next = peer.next_id_in;
            match peer.reorder.remove(&next) {
                Some(m) => {
                    out.push(m);
                    peer.next_id_in += 1;
                }
                None => break,
            }
        }
        peer.acks_owed = true;
        self.ensure_tick(&mut rel);
        out
    }

    /// The tick handler: flushes owed acks that found no outbound message to
    /// ride (standalone `NetAck`), retransmits every unacked message whose
    /// backoff window has elapsed, and re-arms the timer while any work
    /// remains. Sweeps are unconditional — a lost *reply* leaves the
    /// original request acked-but-unanswered on one side and the reply
    /// unacked on the other, and only the sweep restores liveness.
    pub(crate) fn reliability_tick(&self) {
        let mut rel = self.reliable.lock();
        rel.tick_scheduled = false;
        if !rel.enabled {
            return;
        }
        let now = Instant::now();
        let pacing = self.cfg.retransmit_pacing;
        let detecting = self.health_enabled();
        let mut to_suspect: Vec<NodeId> = Vec::new();
        for (dst, peer) in rel.peers.iter_mut().enumerate() {
            let dst = NodeId::new(dst);
            if peer.acks_owed {
                peer.acks_owed = false;
                stats::bump(&self.stats.net_acks_sent);
                let upto = peer.ack_upto();
                let _ = self.send_raw(dst, DsmMsg::NetAck { upto });
            }
            let upto = peer.ack_upto();
            for entry in peer.unacked.iter_mut() {
                let backoff = pacing * (1u32 << entry.attempts.min(BACKOFF_EXP_CAP));
                if now.duration_since(entry.last_tx) < backoff {
                    continue;
                }
                if detecting && entry.attempts >= MAX_RETRANSMIT_ATTEMPTS {
                    // Retransmission has done its job of surviving loss; a
                    // link this dead is the failure detector's problem now.
                    to_suspect.push(dst);
                    continue;
                }
                entry.attempts += 1;
                entry.last_tx = now;
                stats::bump(&self.stats.retransmits);
                // Recorder is a pure leaf lock, so taking it under the
                // reliable lock (like the engine shard) cannot invert.
                self.obs.record(
                    self.now_here().as_nanos(),
                    crate::obs::EventKind::Retransmit,
                    |ev| {
                        ev.peer = Some(dst);
                        ev.seq = Some(entry.id);
                    },
                );
                let frame = DsmMsg::Reliable {
                    id: entry.id,
                    ack: upto,
                    inner: Box::new(entry.inner.clone()),
                };
                let _ = self.send_raw(dst, frame);
            }
        }
        let pending = rel
            .peers
            .iter()
            .any(|p| p.acks_owed || !p.unacked.is_empty());
        if pending {
            self.ensure_tick(&mut rel);
        }
        drop(rel);
        for dst in to_suspect {
            self.health_suspect(dst, "retransmit cap");
        }
    }

    /// Resets the retransmit backoff toward `peer` after hearing from it
    /// while it was suspect: a thawed freeze (or a recovered network) should
    /// resume delivery at base pacing, not wait out a maxed-out backoff.
    pub(crate) fn reset_retransmit_attempts(&self, peer: NodeId) {
        let mut rel = self.reliable.lock();
        if !rel.enabled {
            return;
        }
        for entry in rel.peers[peer.as_usize()].unacked.iter_mut() {
            entry.attempts = 0;
        }
        let any = !rel.peers[peer.as_usize()].unacked.is_empty();
        if any {
            self.ensure_tick(&mut rel);
        }
    }

    /// Drops all link state toward a confirmed-dead peer: unacked messages
    /// will never be acknowledged and buffered early arrivals will never have
    /// their gaps filled. Called from the recovery walk.
    pub(crate) fn purge_peer_link(&self, peer: NodeId) {
        let mut rel = self.reliable.lock();
        if !rel.enabled {
            return;
        }
        let p = &mut rel.peers[peer.as_usize()];
        p.unacked.clear();
        p.reorder.clear();
        p.acks_owed = false;
    }

    /// Immediately sends every owed cumulative ack as a standalone `NetAck`
    /// instead of waiting for the next tick. The shutdown drain calls this
    /// on entry and exit: the peer that sent this node its final message
    /// (the final `Done` frame itself) is blocked in its *own* drain waiting
    /// for exactly this ack, and once the service loop exits no tick will
    /// ever flush it.
    pub(crate) fn flush_owed_acks(&self) {
        let mut rel = self.reliable.lock();
        if !rel.enabled {
            return;
        }
        for (dst, peer) in rel.peers.iter_mut().enumerate() {
            if peer.acks_owed {
                peer.acks_owed = false;
                stats::bump(&self.stats.net_acks_sent);
                let upto = peer.ack_upto();
                let _ = self.send_raw(NodeId::new(dst), DsmMsg::NetAck { upto });
            }
        }
    }

    /// Whether any outbound message is still unacknowledged (shutdown drain).
    pub(crate) fn has_unacked(&self) -> bool {
        self.reliable
            .lock()
            .peers
            .iter()
            .any(|p| !p.unacked.is_empty())
    }

    /// Schedules a tick timer with the engine if none is outstanding, one
    /// pacing interval ahead of the calling thread's time. The virtual due
    /// time only orders the timer against other timers; actual firing waits
    /// for the destination schedule to go idle, and retransmit eligibility is
    /// governed by wall-clock backoff.
    fn ensure_tick(&self, rel: &mut ReliableState) {
        if rel.tick_scheduled || !rel.enabled {
            return;
        }
        let pacing = self.cfg.retransmit_pacing;
        let due = self.now_here() + VirtTime::from_nanos(pacing.as_nanos() as u64);
        if self
            .sender
            .schedule_timer(due, "tick", DsmMsg::Timer(TimerKind::Retransmit))
            .is_ok()
        {
            rel.tick_scheduled = true;
        }
    }
}
