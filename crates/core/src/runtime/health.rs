//! The failure detector and degraded-mode recovery.
//!
//! Detection is heartbeat-based with traffic piggybacking: every message a
//! peer sends (protocol traffic, reliability frames, heartbeats alike)
//! refreshes its *last heard* timestamp, and a periodic health-tick timer
//! sends explicit [`DsmMsg::Heartbeat`] probes so an idle-but-alive peer is
//! never mistaken for a dead one. A peer quiet for more than half the
//! detection window (`MuninConfig::detection`) becomes *suspect* — surfaced
//! in stall reports — and one quiet for the full window is confirmed *dead*.
//! The reliability layer's retransmit-attempt cap feeds the same state: a
//! link that stopped acknowledging marks its peer suspect without waiting
//! for the window to age out.
//!
//! Confirmation is a one-way door. The first thread to confirm a death (the
//! status transition happens under the health mutex, so exactly one wins)
//! broadcasts [`DsmMsg::PeerDown`] gossip to the surviving peers and runs
//! the local recovery walk exactly once:
//!
//! * the reliability link to the corpse is purged (nothing it owes will
//!   ever arrive);
//! * every directory entry's copyset drops the dead node — the paper's
//!   update-timeout replica-pruning, applied to a confirmed crash;
//! * objects whose probable owner died are re-homed to the lowest-id
//!   surviving replica holder (deterministic: every survivor picks the same
//!   node without coordination);
//! * a lock token the lock's home last sent to the corpse is regenerated
//!   there (`LockState::recover`), and every barrier stops needing the dead
//!   node, which releases the waiters the corpse was holding up.
//!
//! Blocked user threads observe deaths through [`NodeRuntime::wait_reply_or_dead`],
//! which surfaces the internal [`MuninError::PeerDied`] signal; each call
//! site recomputes its expectations against the shrunken cluster and either
//! proceeds (a dead node's ack will never come — stop waiting for it) or
//! escalates to the public [`MuninError::NodeDown`] when the dead node was
//! load-bearing (sole copy of an object, a lock or barrier home, the root).
//!
//! Timers bypass the engine's crash-injection drops, so a crashed node's own
//! detector keeps running: it watches every peer go quiet, confirms the
//! whole cluster dead, and its blocked user thread fails fast with a
//! structured `NodeDown` instead of hanging until the watchdog.

use std::sync::{atomic::Ordering, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use munin_sim::{Envelope, NodeId, VirtTime};

use crate::config::MuninConfig;
use crate::error::{MuninError, Result};
use crate::msg::{DsmMsg, TimerKind};
use crate::nodeset::NodeSet;
use crate::object::ObjectId;
use crate::stats::bump;
use crate::sync::LockId;

use super::{NodeRuntime, WaitOp, WATCHDOG_SLICE};

/// Liveness verdict for one peer. Transitions only move rightward
/// (`Alive → Suspect → Dead`), except that hearing from a suspect peer
/// clears the suspicion; `Dead` is final.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PeerStatus {
    Alive,
    Suspect,
    Dead,
}

/// The failure detector's state (one per node, on the runtime).
pub(crate) struct Health {
    /// Whether detection runs at all (resolved once at startup: a detection
    /// window is configured — explicitly or implied by a crash plan — and
    /// there is more than one node).
    enabled: bool,
    /// The detection window: a peer quiet this long is dead.
    detect: Duration,
    inner: Mutex<HealthInner>,
}

struct HealthInner {
    /// Wall-clock time each peer was last heard from (any message).
    last_heard: Vec<Instant>,
    /// Current verdict per peer.
    status: Vec<PeerStatus>,
    /// Wall-clock time of the last heartbeat batch this node sent.
    last_beat: Instant,
}

/// Virtual-time spacing of health tick re-arms. Timers fire on wall-clock
/// idleness but are *ordered* by virtual due time, and the health tick
/// competes with the reliability layer's retransmit tick (re-armed ~1 ms of
/// virtual time ahead of a clock that stands still while every thread is
/// blocked): a tick armed a full heartbeat period of virtual time ahead
/// would starve behind it forever. So the timer is armed close-in and the
/// actual heartbeat sends are paced by wall clock in [`NodeRuntime::health_tick`],
/// matching the wall-clock `last_heard` bookkeeping the verdicts use.
const HEALTH_TICK_VIRT_NS: u64 = 1_000_000;

impl Health {
    pub(crate) fn new(cfg: &MuninConfig, nodes: usize) -> Self {
        let detect = cfg.detection();
        let enabled = detect.is_some() && nodes > 1;
        let now = Instant::now();
        Health {
            enabled,
            detect: detect.unwrap_or(Duration::from_secs(2)),
            inner: Mutex::new(HealthInner {
                last_heard: vec![now; nodes],
                status: vec![PeerStatus::Alive; nodes],
                last_beat: now,
            }),
        }
    }
}

impl NodeRuntime {
    /// Whether the failure detector is running on this node.
    pub(crate) fn health_enabled(&self) -> bool {
        self.health.enabled
    }

    /// The heartbeat period: a quarter of the detection window, so several
    /// probes fit inside it and one lost heartbeat cannot kill a peer.
    fn heartbeat_every(&self) -> Duration {
        self.health.detect / 4
    }

    /// Starts the detector: stamps every peer freshly heard (startup is not
    /// silence) and schedules the first health tick. Called from the
    /// service loop before it starts receiving.
    pub(crate) fn health_start(&self) {
        if !self.health.enabled {
            return;
        }
        {
            let mut h = self.health.inner.lock();
            let now = Instant::now();
            for t in h.last_heard.iter_mut() {
                *t = now;
            }
            // Backdate the beat stamp so the first idle moment probes
            // immediately instead of a full period into the run.
            h.last_beat = now - self.heartbeat_every();
        }
        self.arm_health_tick();
    }

    /// Arms the next health tick, a short step ahead of the service-side
    /// clock.
    fn arm_health_tick(&self) {
        let due = self.service_now() + VirtTime::from_nanos(HEALTH_TICK_VIRT_NS);
        let _ = self
            .sender
            .schedule_timer(due, "health", DsmMsg::Timer(TimerKind::Health));
    }

    /// Records traffic from `peer`: refreshes its last-heard stamp and lifts
    /// an active suspicion (a thawed freeze or recovered link resumes at
    /// full trust and base retransmit pacing). A confirmed death is final —
    /// zombie traffic does not resurrect the peer.
    pub(crate) fn health_heard(&self, peer: NodeId) {
        if !self.health.enabled || peer == self.node {
            return;
        }
        let cleared = {
            let mut h = self.health.inner.lock();
            let i = peer.as_usize();
            if h.status[i] == PeerStatus::Dead {
                return;
            }
            h.last_heard[i] = Instant::now();
            if h.status[i] == PeerStatus::Suspect {
                h.status[i] = PeerStatus::Alive;
                true
            } else {
                false
            }
        };
        if cleared {
            crate::runtime::proto_trace!(self, "peer {peer:?} heard from again; suspicion cleared");
            self.reset_retransmit_attempts(peer);
        }
    }

    /// Marks `peer` suspect (no-op if already suspect or dead). `reason`
    /// goes to the trace; the suspicion itself ages into a confirmed death
    /// only via the quiet-window check in [`Self::health_check`].
    pub(crate) fn health_suspect(&self, peer: NodeId, reason: &str) {
        if !self.health.enabled || peer == self.node {
            return;
        }
        {
            let mut h = self.health.inner.lock();
            let i = peer.as_usize();
            if h.status[i] != PeerStatus::Alive {
                return;
            }
            h.status[i] = PeerStatus::Suspect;
        }
        bump(&self.stats.peers_suspected);
        self.obs.record(
            self.now_here().as_nanos(),
            crate::obs::EventKind::PeerSuspect,
            |ev| ev.peer = Some(peer),
        );
        crate::runtime::proto_trace!(self, "peer {peer:?} suspected ({reason})");
    }

    /// Ages the quiet windows: suspects peers quiet for more than half the
    /// detection window and confirms dead those quiet for the full window.
    /// Driven from both the health-tick timer (service thread) and the
    /// blocked user thread's wait slices, so detection advances even when
    /// the destination's delivery schedule never goes idle.
    pub(crate) fn health_check(self: &Arc<Self>) {
        if !self.health.enabled {
            return;
        }
        let now = Instant::now();
        let mut to_suspect: Vec<NodeId> = Vec::new();
        let mut to_confirm: Vec<NodeId> = Vec::new();
        {
            let h = self.health.inner.lock();
            for i in 0..self.nodes {
                if i == self.node.as_usize() || h.status[i] == PeerStatus::Dead {
                    continue;
                }
                let quiet = now.duration_since(h.last_heard[i]);
                if quiet >= self.health.detect {
                    to_confirm.push(NodeId::new(i));
                } else if quiet >= self.health.detect / 2 && h.status[i] == PeerStatus::Alive {
                    to_suspect.push(NodeId::new(i));
                }
            }
        }
        for peer in to_suspect {
            self.health_suspect(peer, "quiet for half the detection window");
        }
        for peer in to_confirm {
            self.confirm_peer_dead(peer, false);
        }
    }

    /// The health tick handler (service thread): probes every non-dead
    /// peer when a wall-clock heartbeat period has elapsed, ages the quiet
    /// windows, and re-arms the timer. The tick fires far more often than it
    /// probes (see [`HEALTH_TICK_VIRT_NS`]); the wall-clock gate keeps the
    /// heartbeat rate — and its virtual-time footprint — at the configured
    /// quarter-window period.
    pub(crate) fn health_tick(self: &Arc<Self>) {
        if !self.health.enabled {
            return;
        }
        let probe = {
            let mut h = self.health.inner.lock();
            if h.last_beat.elapsed() >= self.heartbeat_every() {
                h.last_beat = Instant::now();
                true
            } else {
                false
            }
        };
        if probe {
            for peer in self.live_peers().iter() {
                bump(&self.stats.heartbeats_sent);
                let _ = self.send(peer, DsmMsg::Heartbeat);
            }
        }
        self.health_check();
        self.arm_health_tick();
    }

    /// Confirms `peer` dead and, on the first confirmation (exactly one
    /// caller wins the status transition under the health mutex), gossips
    /// `PeerDown` to the survivors and runs the recovery walk. `via_gossip`
    /// suppresses the re-broadcast — receivers of gossip act locally only,
    /// so a death costs one broadcast, not a flood.
    pub(crate) fn confirm_peer_dead(self: &Arc<Self>, peer: NodeId, via_gossip: bool) {
        if !self.health.enabled || peer == self.node {
            return;
        }
        let detect_latency = {
            let mut h = self.health.inner.lock();
            let i = peer.as_usize();
            if h.status[i] == PeerStatus::Dead {
                return;
            }
            h.status[i] = PeerStatus::Dead;
            Instant::now().duration_since(h.last_heard[i])
        };
        bump(&self.stats.peers_dead);
        let t_virt = self.now_here().as_nanos();
        self.obs
            .record(t_virt, crate::obs::EventKind::PeerDead, |ev| {
                ev.peer = Some(peer);
                ev.dur_ns = detect_latency.as_nanos() as u64;
            });
        self.obs
            .record_wait("peer_detect", detect_latency.as_nanos() as u64);
        crate::runtime::proto_trace!(
            self,
            "peer {peer:?} confirmed dead ({}; quiet {detect_latency:?})",
            if via_gossip {
                "gossip"
            } else {
                "local detection"
            }
        );
        if !via_gossip {
            for survivor in self.live_peers().iter() {
                let _ = self.send(survivor, DsmMsg::PeerDown { node: peer });
            }
        }
        let t0 = Instant::now();
        self.recover_from_death(peer);
        self.obs
            .record_wait("peer_recovery", t0.elapsed().as_nanos() as u64);
    }

    /// The set of confirmed-dead peers.
    pub(crate) fn dead_set(&self) -> NodeSet {
        let mut dead = NodeSet::EMPTY;
        if !self.health.enabled {
            return dead;
        }
        let h = self.health.inner.lock();
        for (i, s) in h.status.iter().enumerate() {
            if *s == PeerStatus::Dead {
                dead.insert(NodeId::new(i));
            }
        }
        dead
    }

    /// The set of peers not confirmed dead, excluding this node — the
    /// broadcast fan-out set. With detection off this is simply every other
    /// node.
    pub(crate) fn live_peers(&self) -> NodeSet {
        let mut live = NodeSet::full(self.nodes);
        live.remove(self.node);
        if self.health.enabled {
            live.difference_with(&self.dead_set());
        }
        live
    }

    /// Whether `peer` has been confirmed dead.
    pub(crate) fn is_peer_dead(&self, peer: NodeId) -> bool {
        if !self.health.enabled {
            return false;
        }
        let h = self.health.inner.lock();
        h.status
            .get(peer.as_usize())
            .is_some_and(|s| *s == PeerStatus::Dead)
    }

    /// Peers currently suspect or dead, as node indexes (stall forensics).
    pub(crate) fn suspected_snapshot(&self) -> Vec<usize> {
        if !self.health.enabled {
            return Vec::new();
        }
        let h = self.health.inner.lock();
        h.status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != PeerStatus::Alive)
            .map(|(i, _)| i)
            .collect()
    }

    /// Blocks the user thread until the service thread routes it a reply,
    /// under the watchdog (`op` names what it waits for). It also wakes when
    /// the failure detector confirms a peer dead, via the internal
    /// [`MuninError::PeerDied`] signal. `handled` carries the already-
    /// signalled deaths across one call site's wait loop (start from the
    /// empty set), so each death interrupts the operation once —
    /// already-dead peers are signalled on the first call, which is what a
    /// call site that sent a request to a corpse needs. The timeout slices
    /// double as detection drive: a user thread blocked on a corpse ages
    /// the quiet windows itself instead of depending on the service
    /// thread's timer.
    pub(crate) fn wait_reply_or_dead(
        self: &Arc<Self>,
        op: WaitOp,
        handled: &mut NodeSet,
    ) -> Result<(Envelope, DsmMsg)> {
        let entered_virt = self.clock.now().as_nanos();
        let done = |reply: (Envelope, DsmMsg)| Ok(self.resume_at(op, entered_virt, reply));
        // A fetch interrupted by a death can be answered twice: by the
        // original request, alive after all, and by the adoption its
        // recovery round sent (`refetch_orphan`). The second read copy
        // arrives after the fetch is over and would be taken for the reply to
        // whatever this thread waits for next; it is dropped here instead.
        // (An ownership transfer cannot be discarded and still surfaces as a
        // protocol violation.)
        let late_copy = |reply: &DsmMsg| {
            matches!(reply, DsmMsg::ObjectData { object, ownership: false, .. }
                if op != WaitOp::Fetch(*object))
        };
        self.watch(op, || {
            // A queued real reply beats a death signal: drain genuine
            // progress first so recovery only runs when the operation is
            // actually wedged.
            while let Some(reply) = self.replies.try_recv() {
                if !late_copy(&reply.1) {
                    return Some(done(reply));
                }
            }
            // The lowest-id dead peer not yet in `handled`, a per-wait-loop
            // cursor: each death is signalled to a blocked operation once.
            if let Some(dead) = self.dead_set().first_not_in(handled) {
                handled.insert(dead);
                return Some(Err(MuninError::PeerDied(dead)));
            }
            match self.replies.recv_timeout(WATCHDOG_SLICE) {
                Some(reply) if !late_copy(&reply.1) => Some(done(reply)),
                Some(_) => None,
                None => {
                    self.health_check();
                    None
                }
            }
        })
    }

    /// The degraded-mode recovery walk, run exactly once per dead peer (the
    /// caller holds the first-confirmation ticket). Everything here acts on
    /// local state and sends fire-and-forget messages; nothing blocks on a
    /// reply, so the walk is safe from both threads.
    fn recover_from_death(self: &Arc<Self>, dead: NodeId) {
        self.purge_peer_link(dead);
        // Recovery runs on whichever thread confirmed the death, at that
        // thread's time.
        let now = self.now_here();
        let t_virt = now.as_nanos();
        // Directory walk: prune the corpse from every copyset and re-home
        // orphaned objects to the lowest-id surviving replica holder. Every
        // survivor prunes the same node and sorts the same copyset, so they
        // converge on the same new home without coordination.
        {
            let mut dir = self.dir.lock();
            for idx in 0..dir.len() {
                let e = dir.entry_mut(ObjectId::new(idx as u32));
                if e.copyset.contains(dead) {
                    e.copyset.remove(dead);
                    bump(&self.stats.copysets_pruned);
                    self.obs
                        .record(t_virt, crate::obs::EventKind::CopysetPruned, |ev| {
                            ev.object = Some(e.object);
                            ev.peer = Some(dead);
                        });
                }
                if !e.state.owned && e.probable_owner == dead {
                    let first_survivor = e.copyset.first();
                    let self_has_copy = e.state.rights.allows_read();
                    let heir = if self_has_copy {
                        // This node's own copy competes for the adoption by id.
                        Some(first_survivor.map_or(self.node, |n| n.min(self.node)))
                    } else {
                        first_survivor
                    };
                    match heir {
                        Some(n) if n == self.node => {
                            e.state.owned = true;
                            e.probable_owner = self.node;
                            bump(&self.stats.objects_rehomed);
                            self.obs.record(
                                t_virt,
                                crate::obs::EventKind::OwnershipRecovered,
                                |ev| {
                                    ev.object = Some(e.object);
                                    ev.peer = Some(dead);
                                },
                            );
                        }
                        Some(n) => e.probable_owner = n,
                        None => {
                            // No known surviving copy. The hint falls back to
                            // the home node of last resort; if the object is
                            // truly orphaned the next fetch's recovery round
                            // (`refetch_orphan`) establishes that and raises
                            // `NodeDown`.
                            if e.home != dead {
                                e.probable_owner = e.home;
                            }
                        }
                    }
                }
            }
        }
        // Sync walk: a lock's home regenerates a token it last sent to the
        // corpse (orphaned waiters re-send there), sent outside the sync lock.
        for (id, &home) in (0..).map(LockId).zip(&self.lock_homes) {
            let mut sync = self.sync.lock();
            let Some(arrival) = sync.lock_mut(id).recover(dead, home, self.node) else {
                continue;
            };
            drop(sync);
            crate::runtime::proto_trace!(self, "lock {} token orphaned by {dead:?}", id.0);
            // The fresh token goes where a grant would: to this node's own
            // blocked acquire, else to the first request parked here.
            let minted = self.local_envelope("lock_grant", now);
            self.finish_token_arrival(minted, id, arrival);
        }
        // Barriers re-evaluate on every node: a dead reporting ancestor means
        // this node's merged report must re-parent to a live one, and a dead
        // subtree member — at the owner, any dead node — stops being needed,
        // which may complete the episode right now.
        self.barrier_handle_death(dead);
        // Whatever was parked on a gap in the corpse's update stream is
        // admitted now (`admit`): nothing else would come to retry it. The
        // generation bump makes a service-thread pass that read the peer as
        // alive, and is about to re-defer, go round again.
        self.deferred_gen.fetch_add(1, Ordering::SeqCst);
        self.process_deferred();
    }
}
