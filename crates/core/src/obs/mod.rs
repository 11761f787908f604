//! The observability subsystem: flight recorder, latency histograms, and
//! trace export.
//!
//! Each node owns one [`Recorder`] — a fixed-capacity overwrite ring of
//! typed protocol events ([`ObsEvent`]) plus log-bucketed latency
//! histograms ([`LatencyHist`]) for every blocking wait. The recorder is a
//! **pure leaf lock**: recording takes the recorder mutex and touches
//! nothing else — no engine calls, no clock charges, no directory or DUQ
//! state — so instrumentation can never perturb protocol behaviour or
//! deadlock against runtime locks, and recording-on runs stay bit-identical
//! to recording-off runs (pinned by `tests/observability.rs`).
//!
//! Two timestamp domains are captured per event:
//!
//! * **virtual time** (`t_virt_ns`) — the node's simulated clock, fully
//!   deterministic under a fixed engine seed; this is what the Perfetto
//!   exporter and the latency histograms use, and
//! * **wall time** (`t_wall_ns`) — nanoseconds since a process-wide
//!   recording epoch, for relating events to real elapsed time (profiling
//!   the harness itself).
//!
//! Event capture is controlled by `MuninConfig::flight_events`
//! (`MUNIN_FLIGHT_EVENTS`, default 256 per node; `0` disables the ring).
//! Wait histograms are always on — a record is a mutex acquire, a 64-way
//! `partition_point`, and an increment. The human-readable dump mode
//! (`MUNIN_OBS_DUMP=1`) additionally prints every recorded event to stderr
//! as it happens, replacing the old ad-hoc eprintln tracing path.

pub mod hist;
pub mod perfetto;
mod ring;

use std::collections::BTreeMap;
use std::sync::OnceLock;

use munin_sim::NodeId;
use parking_lot::Mutex;

use crate::object::ObjectId;

pub use hist::{fmt_ns, LatencyHist};
pub use ring::Ring;

/// How many trailing flight-recorder events each node contributes to a
/// stall report's forensics section.
pub const STALL_TAIL_EVENTS: usize = 16;

/// Nanoseconds since the process-wide recording epoch (first call wins).
///
/// Wall timestamps exist to expose stalls and wall/virtual skew — forensic
/// uses where millisecond resolution is plenty — so this reads the kernel's
/// coarse monotonic clock where available: a vDSO memory read (a few ns)
/// instead of a full timer query, keeping the recorder's hot path cheap.
/// Values are tick-resolution (typically 1–4 ms) but monotone.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wall_ns() -> u64 {
    fn coarse_now() -> u64 {
        let mut ts = libc::timespec::default();
        // Safety: `ts` is a valid out-pointer; the coarse monotonic clock
        // exists on every Linux the shim supports.
        unsafe { libc::clock_gettime(libc::CLOCK_MONOTONIC_COARSE, &mut ts) };
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
    static EPOCH: OnceLock<u64> = OnceLock::new();
    coarse_now().saturating_sub(*EPOCH.get_or_init(coarse_now))
}

/// Portable fallback: the standard monotonic clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wall_ns() -> u64 {
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether the human-readable event dump is enabled (`MUNIN_OBS_DUMP=1`;
/// `0` or unset leaves it off).
///
/// # Panics
///
/// Panics on any other value — `MUNIN_OBS_DUMP=on` would otherwise run
/// without the dump it asked for.
pub fn dump_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| parse_dump(std::env::var("MUNIN_OBS_DUMP").ok().as_deref()))
}

/// Pure parsing core of [`dump_enabled`].
fn parse_dump(v: Option<&str>) -> bool {
    match v {
        Some("1") => true,
        Some("0") | None => false,
        Some(v) => panic!("invalid MUNIN_OBS_DUMP={v:?}: expected \"1\" or \"0\""),
    }
}

/// The typed protocol events the flight recorder captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A read access fault entered the fault protocol.
    ReadFaultBegin,
    /// The read fault resolved (`dur_ns` = virtual service time).
    ReadFaultEnd,
    /// A write access fault entered the fault protocol.
    WriteFaultBegin,
    /// The write fault resolved (`dur_ns` = virtual service time, `run` =
    /// objects it enabled: more than one when it twinned the write set).
    WriteFaultEnd,
    /// An `ObjectFetch` request was sent to the probable owner
    /// (`object` = the first object of the run, `run` = objects asked for).
    FetchSend,
    /// This node served an `ObjectFetch` with `ObjectData`
    /// (`object` = the first object of the run, `run` = objects served,
    /// `zero_filled` = how many of them travelled as a description).
    FetchServe,
    /// An update-bearing transmission was assigned a per-(src,dst) sequence
    /// number and sent (`peer` = destination, `seq` = stream number). An
    /// owner re-fanning another node's bundle records one per forward, with
    /// `origin` = that node and `seq` = *its* stream number to the owner:
    /// the forward draws no number from the owner's own stream.
    UpdateSend,
    /// An in-sequence update transmission was applied
    /// (`peer` = the node it came from, `seq` and `origin` as sent).
    UpdateInstall,
    /// An update transmission arrived out of sequence and was deferred.
    UpdateDefer,
    /// The adaptive relay sent a payload direct-to-destination instead of
    /// through the barrier-relay carrier because it exceeded the
    /// `MuninConfig::relay_max_bytes` threshold (`peer` = destination, `seq` = the
    /// payload's modelled byte size — the *why* of the routing decision).
    RelayBypass,
    /// This node, as the receiving owner of an owner-cooperative relay
    /// bundle, re-fanned the updates to another copyset member
    /// (`peer` = the re-fan destination, `object` = the bundle's first
    /// object).
    OwnerRefan,
    /// A lock acquire began waiting (local queue or remote request).
    LockRequest,
    /// The lock was granted (`dur_ns` = virtual acquisition wait).
    LockGrant,
    /// The user thread arrived at a barrier.
    BarrierArrive,
    /// The barrier released (`dur_ns` = virtual barrier wait).
    BarrierRelease,
    /// The reliability layer retransmitted an unacked message.
    Retransmit,
    /// A reliability tick timer fired.
    TimerFire,
    /// The stall watchdog expired on a blocked wait.
    Stall,
    /// The failure detector marked a peer suspect (`peer` = the suspect).
    PeerSuspect,
    /// A peer was confirmed dead (`peer` = the dead node; `dur_ns` = wall
    /// time from last-heard to confirmation, i.e. the detection latency).
    PeerDead,
    /// Degraded-mode recovery re-homed (or adopted) an orphaned object
    /// (`object` = the orphan, `peer` = the dead former owner).
    OwnershipRecovered,
    /// Degraded-mode recovery pruned a dead node from a directory entry's
    /// copyset (`object` = the entry, `peer` = the pruned node).
    CopysetPruned,
    /// Free-form protocol-trace note (dump mode only).
    Note,
}

impl EventKind {
    /// Stable snake-case label (trace export, dump lines, stall tails).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::ReadFaultBegin => "read_fault_begin",
            EventKind::ReadFaultEnd => "read_fault_end",
            EventKind::WriteFaultBegin => "write_fault_begin",
            EventKind::WriteFaultEnd => "write_fault_end",
            EventKind::FetchSend => "fetch_send",
            EventKind::FetchServe => "fetch_serve",
            EventKind::UpdateSend => "update_send",
            EventKind::UpdateInstall => "update_install",
            EventKind::UpdateDefer => "update_defer",
            EventKind::RelayBypass => "relay_bypass",
            EventKind::OwnerRefan => "owner_refan",
            EventKind::LockRequest => "lock_request",
            EventKind::LockGrant => "lock_grant",
            EventKind::BarrierArrive => "barrier_arrive",
            EventKind::BarrierRelease => "barrier_release",
            EventKind::Retransmit => "retransmit",
            EventKind::TimerFire => "timer_fire",
            EventKind::Stall => "stall",
            EventKind::PeerSuspect => "peer_suspect",
            EventKind::PeerDead => "peer_dead",
            EventKind::OwnershipRecovered => "ownership_recovered",
            EventKind::CopysetPruned => "copyset_pruned",
            EventKind::Note => "note",
        }
    }

    /// Whether the event closes a span: it carries the operation's duration
    /// in `dur_ns` and is exported as a slice rather than an instant.
    pub fn ends_span(self) -> bool {
        matches!(
            self,
            EventKind::ReadFaultEnd
                | EventKind::WriteFaultEnd
                | EventKind::LockGrant
                | EventKind::BarrierRelease
        )
    }
}

/// One flight-recorder entry.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsEvent {
    /// What happened.
    pub kind: EventKind,
    /// Node-local virtual time at the event, nanoseconds.
    pub t_virt_ns: u64,
    /// Wall-clock nanoseconds since the process-wide recording epoch.
    pub t_wall_ns: u64,
    /// Virtual duration for span-end events ([`EventKind::ends_span`]);
    /// zero for instants.
    pub dur_ns: u64,
    /// The shared object involved, when there is one.
    pub object: Option<ObjectId>,
    /// The lock or barrier id involved, when there is one.
    pub sync_id: Option<u32>,
    /// The remote peer involved (destination of a send, source of an
    /// install/serve).
    pub peer: Option<NodeId>,
    /// Update-stream sequence number tying an `UpdateSend` to its
    /// `UpdateInstall` (the Perfetto flow id).
    pub seq: Option<u64>,
    /// The flusher whose stream `seq` belongs to, when that is not the
    /// sending node (an owner's re-fan of a cooperative relay bundle).
    pub origin: Option<NodeId>,
    /// Length of the run of consecutive objects starting at `object` that a
    /// fetch asked for (`FetchSend`) or was served (`FetchServe`); how many
    /// objects a write fault enabled (`WriteFaultEnd`).
    pub run: Option<u32>,
    /// How many objects of a served run (`FetchServe`) were zero-filled:
    /// described in the reply, not carried.
    pub zero_filled: Option<u32>,
    /// Free-form text ([`EventKind::Note`] events).
    pub note: Option<String>,
}

impl ObsEvent {
    fn new(kind: EventKind, t_virt_ns: u64) -> Self {
        ObsEvent {
            kind,
            t_virt_ns,
            t_wall_ns: wall_ns(),
            dur_ns: 0,
            object: None,
            sync_id: None,
            peer: None,
            seq: None,
            origin: None,
            run: None,
            zero_filled: None,
            note: None,
        }
    }

    /// The numeric fields the event carries, in rendering order, each under
    /// its dump-line name and its trace-export name.
    pub(crate) fn fields(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
        [
            ("obj", "object", self.object.map(|o| u64::from(o.as_u32()))),
            ("sync", "sync_id", self.sync_id.map(u64::from)),
            ("peer", "peer", self.peer.map(|p| p.as_usize() as u64)),
            ("seq", "seq", self.seq),
            ("origin", "origin", self.origin.map(|o| o.as_usize() as u64)),
            ("run", "run", self.run.map(u64::from)),
            ("zeros", "zero_filled", self.zero_filled.map(u64::from)),
        ]
        .into_iter()
        .filter_map(|(dump, export, v)| Some((dump, export, v?)))
    }

    /// Renders the event compactly (stall tails, dump mode):
    /// `t=1240ns lock_grant sync=3 dur=1.2us`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("t={}ns {}", self.t_virt_ns, self.kind.label());
        for (name, _, v) in self.fields() {
            let _ = write!(s, " {name}={v}");
        }
        if self.dur_ns > 0 {
            let _ = write!(s, " dur={}", fmt_ns(self.dur_ns));
        }
        if let Some(n) = &self.note {
            let _ = write!(s, " {n}");
        }
        s
    }
}

/// Mutable recorder state, behind one leaf mutex.
#[derive(Debug)]
struct Inner {
    ring: Ring<ObsEvent>,
    /// Blocking-wait histograms keyed by wait kind (`WaitOp::kind()` names:
    /// `fetch`, `lock_acquire`, `barrier`, `update_acks`, ...), in virtual
    /// nanoseconds.
    waits: BTreeMap<&'static str, LatencyHist>,
    /// Fault service-time histograms keyed by annotation class keyword
    /// (`write_shared`, `migratory`, ...), in virtual nanoseconds: one
    /// sample a trap, however many objects it enabled (`WriteFaultEnd`).
    fault_service: BTreeMap<&'static str, LatencyHist>,
}

/// The per-node flight recorder and latency-histogram store.
///
/// A pure leaf lock: see the module docs for the invariants that keep
/// recording invisible to the protocol.
#[derive(Debug)]
pub struct Recorder {
    node: NodeId,
    /// Ring capacity; 0 disables event capture (histograms stay on).
    capacity: usize,
    /// Whether every recorded event is also printed to stderr.
    dump: bool,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// Creates a recorder holding at most `capacity` events.
    pub fn new(node: NodeId, capacity: usize, dump: bool) -> Self {
        Recorder {
            node,
            capacity,
            dump,
            inner: Mutex::new(Inner {
                ring: Ring::new(capacity),
                waits: BTreeMap::new(),
                fault_service: BTreeMap::new(),
            }),
        }
    }

    /// Ring capacity (0 = event capture disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether free-form [`EventKind::Note`] events are wanted at all. The
    /// protocol-trace macro checks this before paying `format!`.
    pub fn notes_enabled(&self) -> bool {
        self.dump
    }

    /// Records one typed event. `fill` runs only when capture or dump is on,
    /// so call sites pay nothing but a branch when both are off. Public for
    /// the runtime's instrumentation sites and the benchmark's
    /// `obs.record_ns` row.
    pub fn record(&self, t_virt_ns: u64, kind: EventKind, fill: impl FnOnce(&mut ObsEvent)) {
        if self.capacity == 0 && !self.dump {
            return;
        }
        let mut ev = ObsEvent::new(kind, t_virt_ns);
        fill(&mut ev);
        if self.dump {
            eprintln!("[{:?}] {}", self.node, ev.render());
        }
        if self.capacity > 0 {
            self.inner.lock().ring.push(ev);
        }
    }

    /// Records a free-form protocol-trace note (dump mode only — the ring
    /// never holds notes unless the dump is on, keeping the default-mode
    /// ring free of allocated strings).
    pub(crate) fn note(&self, t_virt_ns: u64, text: String) {
        if !self.dump {
            return;
        }
        self.record(t_virt_ns, EventKind::Note, |ev| ev.note = Some(text));
    }

    /// Records a blocking-wait sample (virtual ns) under the wait kind.
    pub fn record_wait(&self, kind: &'static str, ns: u64) {
        self.inner.lock().waits.entry(kind).or_default().record(ns);
    }

    /// Records a fault service-time sample (virtual ns) under the faulting
    /// object's annotation class.
    pub fn record_fault_service(&self, class: &'static str, ns: u64) {
        self.inner
            .lock()
            .fault_service
            .entry(class)
            .or_default()
            .record(ns);
    }

    /// The most recent `n` events, rendered (stall forensics).
    pub fn tail(&self, n: usize) -> Vec<String> {
        self.inner
            .lock()
            .ring
            .last_n(n)
            .into_iter()
            .map(|ev| ev.render())
            .collect()
    }

    /// Copies out everything the recorder holds.
    pub fn snapshot(&self) -> ObsSnapshot {
        let inner = self.inner.lock();
        ObsSnapshot {
            node: self.node.as_usize(),
            events: inner.ring.iter().cloned().collect(),
            events_recorded: inner.ring.total_pushed(),
            events_dropped: inner.ring.dropped(),
            waits: inner.waits.clone(),
            fault_service: inner.fault_service.clone(),
        }
    }
}

/// A point-in-time copy of one node's recorder: the held events (oldest →
/// newest) and the wait/fault-service histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSnapshot {
    /// The node index the snapshot came from.
    pub node: usize,
    /// Held flight-recorder events, oldest first.
    pub events: Vec<ObsEvent>,
    /// Total events recorded over the node's lifetime (≥ `events.len()`).
    pub events_recorded: u64,
    /// Events evicted from the ring (`events_recorded − events.len()`).
    pub events_dropped: u64,
    /// Blocking-wait histograms by wait kind, virtual nanoseconds.
    pub waits: BTreeMap<&'static str, LatencyHist>,
    /// Fault service-time histograms by annotation class, virtual
    /// nanoseconds; one sample a trap, however many objects it enabled.
    pub fault_service: BTreeMap<&'static str, LatencyHist>,
}

impl ObsSnapshot {
    /// Folds another node's histograms into this one (events are per-node
    /// and are not merged).
    pub fn merge_hists(&mut self, other: &ObsSnapshot) {
        for (k, h) in &other.waits {
            self.waits.entry(k).or_default().merge(h);
        }
        for (k, h) in &other.fault_service {
            self.fault_service.entry(k).or_default().merge(h);
        }
    }

    /// The most recent `n` events, rendered.
    pub fn tail(&self, n: usize) -> Vec<String> {
        self.events
            .iter()
            .skip(self.events.len().saturating_sub(n))
            .map(|ev| ev.render())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_knob_takes_one_or_zero() {
        assert!(parse_dump(Some("1")));
        assert!(!parse_dump(Some("0")));
        assert!(!parse_dump(None));
    }

    #[test]
    #[should_panic(expected = "invalid MUNIN_OBS_DUMP=\"on\"")]
    fn dump_knob_rejects_anything_else() {
        parse_dump(Some("on"));
    }

    #[test]
    fn recorder_captures_and_snapshots_events() {
        let rec = Recorder::new(NodeId::new(2), 8, false);
        rec.record(100, EventKind::LockRequest, |ev| ev.sync_id = Some(3));
        rec.record(400, EventKind::LockGrant, |ev| {
            ev.sync_id = Some(3);
            ev.dur_ns = 300;
        });
        rec.record_wait("lock_acquire", 300);
        let snap = rec.snapshot();
        assert_eq!(snap.node, 2);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].kind, EventKind::LockRequest);
        assert_eq!(snap.events[1].dur_ns, 300);
        assert_eq!(snap.events_dropped, 0);
        assert_eq!(snap.waits["lock_acquire"].count(), 1);
    }

    #[test]
    fn zero_capacity_disables_events_but_not_histograms() {
        let rec = Recorder::new(NodeId::new(0), 0, false);
        rec.record(1, EventKind::TimerFire, |_| {});
        rec.record_wait("fetch", 500);
        let snap = rec.snapshot();
        assert!(snap.events.is_empty());
        // The closure never ran, so nothing was even counted.
        assert_eq!(snap.events_recorded, 0);
        assert_eq!(snap.waits["fetch"].count(), 1);
    }

    #[test]
    fn ring_wraparound_reports_dropped_and_tail_is_newest() {
        let rec = Recorder::new(NodeId::new(1), 4, false);
        for i in 0..10u64 {
            rec.record(i * 10, EventKind::TimerFire, |_| {});
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events_recorded, 10);
        assert_eq!(snap.events_dropped, 6);
        assert_eq!(snap.events[0].t_virt_ns, 60);
        let tail = rec.tail(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[1].starts_with("t=90ns timer_fire"));
    }

    #[test]
    fn merge_hists_aggregates_across_nodes() {
        let a = Recorder::new(NodeId::new(0), 0, false);
        let b = Recorder::new(NodeId::new(1), 0, false);
        a.record_wait("barrier", 1_000);
        b.record_wait("barrier", 3_000);
        b.record_fault_service("write_shared", 500);
        let mut total = a.snapshot();
        total.merge_hists(&b.snapshot());
        assert_eq!(total.waits["barrier"].count(), 2);
        assert_eq!(total.waits["barrier"].max_ns(), 3_000);
        assert_eq!(total.fault_service["write_shared"].count(), 1);
    }

    #[test]
    fn render_includes_context_fields() {
        let rec = Recorder::new(NodeId::new(0), 4, false);
        rec.record(250, EventKind::UpdateSend, |ev| {
            ev.peer = Some(NodeId::new(3));
            ev.seq = Some(7);
        });
        let tail = rec.tail(1);
        assert_eq!(tail[0], "t=250ns update_send peer=3 seq=7");
    }
}
