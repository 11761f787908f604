//! The per-node Munin runtime.
//!
//! Each simulated node runs two threads:
//!
//! * the **user thread**, which executes the application's worker closure and
//!   enters the runtime on access faults and synchronization operations
//!   (the paper's "Munin root thread is invoked" path), and
//! * the **runtime service thread** (the paper's "Munin worker threads"),
//!   which handles requests arriving from other nodes: object fetches,
//!   invalidations, delayed-update propagation, copyset queries, lock and
//!   barrier traffic.
//!
//! The two threads keep two timelines. The node's `NodeClock` belongs to the
//! user thread: it moves by that thread's own charges, by the system time the
//! service thread charges to the node (cycles stolen from the application),
//! and forward to a reply's arrival when a blocked call returns. The service
//! thread handles each request at the request's own arrival time and never
//! moves the clock to it; work with no request to inherit a time from
//! (retransmissions, heartbeats, acks, timer re-arms) is stamped from the
//! service-side clock: the latest time the node is known to have reached on
//! either timeline.
//! So virtual time flows along happens-before edges only, never along the
//! order in which the host ran the threads (`DESIGN.md`, "Virtual-time
//! model").
//!
//! The user thread performs blocking protocol work (it may wait for replies);
//! the service thread never blocks on a remote reply, so the two-thread
//! structure cannot deadlock. Requests that cannot be served because the
//! targeted directory entry is mid-transition (its *busy* bit is set — the
//! analogue of the paper's per-entry access-control semaphore) are deferred
//! and retried once the transition completes.

mod barrier_tree;
mod coherence;
mod fault;
mod flush;
mod health;
mod outbox;
mod reliable;
mod server;
mod sync_ops;
mod vmseg;

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use munin_sim::{CostModel, Envelope, NodeClock, NodeId, Sender, TimeKind, VirtTime};

use crate::config::{AccessMode, MuninConfig};
use crate::diff::DiffScratch;
use crate::directory::{AccessRights, DirEntry, Directory};
use crate::duq::DelayedUpdateQueue;
use crate::error::{MuninError, Result, StallReport};
use crate::msg::{DsmMsg, Route, UpdateBundle, UpdateItem};
use crate::object::ObjectId;
use crate::obs::EventKind;
use crate::segment::SharedDataTable;
use crate::stats::MuninStats;
use crate::sync::SyncDirectory;

/// The user thread blocks in slices of this length, so it notices watchdog
/// expiry without a dedicated thread.
const WATCHDOG_SLICE: Duration = Duration::from_millis(50);

/// A protocol-trace note (the flight recorder's human-readable dump mode,
/// `MUNIN_OBS_DUMP=1`): logged to stderr with node id and virtual time, and
/// entered in the flight-recorder ring.
macro_rules! proto_trace {
    ($self:expr, $($arg:tt)*) => {
        if $self.obs.notes_enabled() {
            $self
                .obs
                .note($self.now_here().as_nanos(), format!($($arg)*));
        }
    };
}
pub(crate) use proto_trace;

/// Pre-flight check for `AccessMode::VmTraps`: fails with a typed
/// [`MuninError::VmUnavailable`] when the platform lacks the substrate or
/// the trap machinery cannot be set up in this process (handler
/// installation, mapping), so callers can reject a run *before* spawning
/// node threads. Per-node region setup failures after a passing pre-flight
/// (e.g. registry exhaustion) still panic the node loudly.
pub(crate) fn vm_traps_preflight() -> Result<()> {
    vmseg::VmSegment::preflight()
}

/// What a blocked user thread is waiting for. Carried into the watchdog
/// (`NodeRuntime::watch`) so an expiry can say precisely which operation
/// stalled, on which object or synchronization id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WaitOp {
    /// Waiting for `ObjectData` after an `ObjectFetch`.
    Fetch(ObjectId),
    /// Waiting for `InvalidateAck`s after invalidating remote copies.
    InvalidateAcks(ObjectId),
    /// Waiting for `UpdateAck`s after a DUQ flush transmission round.
    UpdateAcks,
    /// Waiting for `ReduceReply` from a reduction object's fixed owner.
    Reduce(ObjectId),
    /// Waiting for `LockGrant`.
    LockGrant(u32),
    /// Waiting for `BarrierRelease`.
    BarrierRelease(u32),
    /// Waiting for the root's `Done` (worker nodes at the end of a run).
    Shutdown,
    /// Waiting for a worker's `Done` (root only).
    WorkerDone,
}

impl WaitOp {
    /// Short name of the blocked operation for stall reports.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            WaitOp::Fetch(_) => "fetch",
            WaitOp::InvalidateAcks(_) => "invalidate_acks",
            WaitOp::UpdateAcks => "update_acks",
            WaitOp::Reduce(_) => "reduce",
            WaitOp::LockGrant(_) => "lock_acquire",
            WaitOp::BarrierRelease(_) => "barrier",
            WaitOp::Shutdown => "shutdown_wait",
            WaitOp::WorkerDone => "worker_done",
        }
    }

    /// The object the operation concerns, when there is one.
    fn object(&self) -> Option<ObjectId> {
        match self {
            WaitOp::Fetch(o) | WaitOp::InvalidateAcks(o) | WaitOp::Reduce(o) => Some(*o),
            _ => None,
        }
    }

    /// The lock or barrier id the operation concerns, when there is one.
    fn sync_id(&self) -> Option<u32> {
        match self {
            WaitOp::LockGrant(id) | WaitOp::BarrierRelease(id) => Some(*id),
            _ => None,
        }
    }
}

/// Verdict of [`NodeRuntime::check_update_seq`] on an inbound update
/// transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SeqCheck {
    /// In sequence: the number was consumed, apply the items now.
    Apply,
    /// Ahead of the stream: defer until the missing transmissions arrive.
    Early,
    /// Already consumed: drop the items (a straggler of an origin confirmed
    /// dead, whose gap `admit` let the stream skip: each id arrives once).
    Stale,
}

/// What a request in the deferred queue is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DeferredOn {
    /// A busy or pinned directory entry. The retry is handled no earlier
    /// than the time the entry was unblocked.
    Entry,
    /// A gap in an update sequence stream: a lower-numbered transmission
    /// from the same source is still in flight.
    Stream,
}

/// A request waiting in the deferred queue.
pub(crate) struct Deferred {
    env: Envelope,
    msg: DsmMsg,
    on: DeferredOn,
}

/// The per-node runtime state shared by the user thread and the service
/// thread.
pub struct NodeRuntime {
    node: NodeId,
    nodes: usize,
    cfg: Arc<MuninConfig>,
    table: Arc<SharedDataTable>,
    clock: NodeClock,
    /// High-water of the arrivals the service thread has handled (ns), its
    /// half of [`Self::service_now`]. Fired timers do not move it: they fire
    /// on host idleness, so a clock they moved would run at wall-clock rate,
    /// dragging traffic through the lane FIFO clamp behind each heartbeat.
    service_clock: std::sync::atomic::AtomicU64,
    cost: Arc<CostModel>,
    sender: Sender<DsmMsg>,
    /// The node's copy of the shared data segment (explicit access mode;
    /// empty in VM-trap mode, where it lives in `vm`). Only ranges whose
    /// directory entry grants access rights hold meaningful data.
    memory: Mutex<Vec<u8>>,
    /// The VM-trap segment backend (`AccessMode::VmTraps` only): the shared
    /// segment lives in an `mprotect`-managed region whose page protections
    /// mirror the directory rights.
    vm: Option<vmseg::VmSegment>,
    /// Error produced by the fault protocol while resolving a hardware trap
    /// (VM-trap mode): the signal handler cannot return an error to the
    /// faulting access, so it parks it here and loosens the page so the
    /// access completes; the touch wrapper picks it up and unwinds. The
    /// flag is the touch wrapper's fast path: it is written by the handler
    /// on the *same* thread that checks it, so a relaxed load suffices and
    /// the no-fault hot path pays one atomic load instead of a mutex
    /// round-trip.
    vm_fault_errored: std::sync::atomic::AtomicBool,
    vm_fault_error: Mutex<Option<MuninError>>,
    /// Where the access being touched ends (VM-trap mode): the window a
    /// trap's fault handler may fetch a run in. Written by the touch wrapper
    /// and read by the trap handler on the same thread, like the flag above.
    vm_window_end: std::sync::atomic::AtomicU32,
    /// The write access in progress on the user thread (`write_var_bytes`):
    /// the ids of the objects it overwrites whole, and those of them its
    /// faults installed without their bytes (see `write_fault`).
    overwrite: Mutex<(std::ops::Range<u32>, Vec<ObjectId>)>,
    /// The thread the user (worker) closure runs on — the only thread whose
    /// faults the VM-trap callback resolves. A fault on any other thread is
    /// a runtime bug (a privileged path missed an escalation) and is left to
    /// crash loudly.
    user_thread: std::thread::ThreadId,
    /// The data object directory.
    dir: Mutex<Directory>,
    /// The delayed update queue (owns the twins of pending objects).
    duq: Mutex<DelayedUpdateQueue>,
    /// Reusable diff-encoding buffer: flushes encode into this scratch so
    /// the write-shared hot path performs no per-run allocations.
    diff_scratch: Mutex<DiffScratch>,
    /// The synchronization object directory.
    sync: Mutex<SyncDirectory>,
    /// The carrier layer's barrier-relay stash: at a barrier owner, relayed
    /// bundles awaiting redistribution on the release. Leaf lock — never
    /// held while the directory, DUQ, or sync locks are taken.
    outbox: Mutex<outbox::Outbox>,
    /// Next outbound update-stream sequence number per destination (see
    /// `UpdateBundle::seq`). Leaf lock.
    update_seq_out: Mutex<Vec<u64>>,
    /// Next expected inbound update-stream sequence number per source.
    /// Leaf lock.
    update_seq_in: Mutex<Vec<u64>>,
    /// The reliability layer's link state (leaf lock except for raw engine
    /// sends; see `runtime/reliable.rs`).
    reliable: Mutex<reliable::ReliableState>,
    /// The failure detector: per-peer last-heard tracking and liveness
    /// verdicts (leaf lock; see `runtime/health.rs`).
    health: health::Health,
    /// Home node of each lock, by lock index. The sync directory keeps only
    /// probable-owner hints; crash recovery needs the fixed home (token
    /// regeneration site, fallback for hints pointing at a corpse).
    lock_homes: Vec<NodeId>,
    /// Requests deferred because their directory entry was busy or pinned,
    /// or because they are ahead of their update sequence stream.
    deferred: Mutex<Vec<Deferred>>,
    /// High-water of the times at which a blocking condition (busy bit or
    /// pin) was cleared, in nanoseconds.
    unblocked_at: std::sync::atomic::AtomicU64,
    /// Bumped whenever a blocking condition clears (busy bit or pin
    /// released). `process_deferred` re-loops when it observes a bump, so a
    /// request re-deferred concurrently with the condition clearing cannot be
    /// stranded with no remaining retry trigger.
    deferred_gen: std::sync::atomic::AtomicU64,
    /// Statistics.
    stats: Arc<MuninStats>,
    /// The flight recorder and latency histograms. A pure leaf lock that
    /// never calls back into the runtime, the clock, or the engine, so
    /// recording cannot perturb protocol behaviour (see `crate::obs`).
    obs: crate::obs::Recorder,
    replies: munin_sim::Mailbox<(Envelope, DsmMsg)>,
    /// Worker-completion notifications (root only), apart from replies so
    /// they cannot interleave with a protocol operation of the root's user
    /// thread: the worker's id (reconciled against deaths) and arrival.
    done: munin_sim::Mailbox<(NodeId, VirtTime)>,
}

impl NodeRuntime {
    /// Creates the runtime for one node.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node: NodeId,
        nodes: usize,
        cfg: Arc<MuninConfig>,
        table: Arc<SharedDataTable>,
        lock_homes: Vec<NodeId>,
        barrier_owners: Vec<NodeId>,
        clock: NodeClock,
        cost: Arc<CostModel>,
        sender: Sender<DsmMsg>,
    ) -> Arc<Self> {
        let home = NodeId::new(0);
        let dir = Directory::from_table(&table, home, cfg.annotation_override);
        let sync = SyncDirectory::new(node, &lock_homes, &barrier_owners);
        // Built cyclically: the VM-trap fault callback needs a handle back to
        // this runtime to route traps into the fault protocol. No faults can
        // occur before the `Arc` is complete (nothing has touched the
        // protected region yet), so the weak handle always upgrades when it
        // matters.
        Arc::new_cyclic(|weak| {
            let (vm, memory) = match cfg.access_mode {
                AccessMode::VmTraps => {
                    let seg = vmseg::VmSegment::for_runtime(&table, weak.clone())
                        .expect("VM-trap segment setup failed");
                    (Some(seg), Vec::new())
                }
                AccessMode::Explicit => (None, vec![0u8; table.segment_len()]),
            };
            NodeRuntime {
                node,
                nodes,
                memory: Mutex::new(memory),
                vm,
                vm_fault_errored: std::sync::atomic::AtomicBool::new(false),
                vm_fault_error: Mutex::new(None),
                vm_window_end: std::sync::atomic::AtomicU32::new(0),
                overwrite: Mutex::default(),
                user_thread: std::thread::current().id(),
                dir: Mutex::new(dir),
                duq: Mutex::new(DelayedUpdateQueue::new()),
                diff_scratch: Mutex::new(DiffScratch::default()),
                sync: Mutex::new(sync),
                outbox: Mutex::new(outbox::Outbox::new()),
                update_seq_out: Mutex::new(vec![0; nodes]),
                update_seq_in: Mutex::new(vec![0; nodes]),
                reliable: Mutex::new(reliable::ReliableState::new(&cfg, nodes)),
                health: health::Health::new(&cfg, nodes),
                lock_homes,
                deferred: Mutex::new(Vec::new()),
                unblocked_at: std::sync::atomic::AtomicU64::new(0),
                deferred_gen: std::sync::atomic::AtomicU64::new(0),
                stats: MuninStats::new(),
                obs: crate::obs::Recorder::new(
                    node,
                    cfg.effective_flight_events(),
                    crate::obs::dump_enabled(),
                ),
                replies: sender.mailbox(),
                done: sender.mailbox(),
                cfg,
                table,
                clock,
                service_clock: std::sync::atomic::AtomicU64::new(0),
                cost,
                sender,
            }
        })
    }

    /// The node this runtime belongs to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the system.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Whether this node is the root (node 0).
    pub fn is_root(&self) -> bool {
        self.node.as_usize() == 0
    }

    /// The shared data description table.
    pub fn table(&self) -> &SharedDataTable {
        &self.table
    }

    /// The runtime configuration.
    pub fn config(&self) -> &MuninConfig {
        &self.cfg
    }

    /// The node's statistics.
    pub fn stats(&self) -> &Arc<MuninStats> {
        &self.stats
    }

    /// The node's flight recorder and latency histograms.
    pub fn obs(&self) -> &crate::obs::Recorder {
        &self.obs
    }

    /// The node's virtual clock.
    pub fn clock(&self) -> &NodeClock {
        &self.clock
    }

    /// Whether the caller is the node's user thread (as opposed to its
    /// service thread).
    fn on_user_thread(&self) -> bool {
        std::thread::current().id() == self.user_thread
    }

    /// The service-side clock: the latest time this node is known to have
    /// reached, on the service thread's timeline (arrivals handled) or the
    /// user thread's (the node clock). It stamps what the service thread
    /// does with no request in hand — liveness probes, transport acks,
    /// retransmissions — none of which a user thread ever waits on in a
    /// fault-free run. Taking the later of the two keeps a retransmission
    /// from being stamped before the transmission it repeats, whichever
    /// thread sent that.
    pub(crate) fn service_now(&self) -> VirtTime {
        let handled = self.service_clock.load(Ordering::SeqCst);
        VirtTime::from_nanos(handled).max(self.clock.now())
    }

    /// Moves the service-side clock up to `t` (the arrival of a message just
    /// received).
    pub(crate) fn advance_service_clock(&self, t: VirtTime) {
        self.service_clock.fetch_max(t.as_nanos(), Ordering::SeqCst);
    }

    /// The logical time of the calling thread: the node clock on the user
    /// thread, the service-side clock on the service thread. For code both
    /// threads run that has no request to take a time from (failure
    /// detection, retransmission, trace notes); a handler answering a
    /// request uses the request's arrival instead.
    pub(crate) fn now_here(&self) -> VirtTime {
        if self.on_user_thread() {
            self.clock.now()
        } else {
            self.service_now()
        }
    }

    /// Charges runtime (Munin) overhead to the node clock.
    pub(crate) fn charge_sys(&self, t: VirtTime) {
        self.clock.advance(TimeKind::System, t);
    }

    /// Charges `ops` abstract application operations as user time.
    pub fn compute(&self, ops: u64) {
        self.clock.advance(TimeKind::User, self.cost.compute(ops));
    }

    /// Takes the next outbound update-stream sequence number for `dest`.
    /// Every update-bearing transmission (standalone `Update`, carrier
    /// bundle, relayed bundle) to a destination consumes exactly one, in
    /// the order the transmissions are issued. `at` is the issuing thread's
    /// logical time (the flow-arrow source must not postdate the send).
    pub(crate) fn next_update_seq(&self, dest: NodeId, at: VirtTime) -> u64 {
        let seq = {
            let mut seqs = self.update_seq_out.lock();
            let slot = &mut seqs[dest.as_usize()];
            let seq = *slot;
            *slot += 1;
            seq
        };
        // Every update-bearing transmission allocates exactly one number
        // here, making this the single flow-arrow source ("s") point for the
        // trace exporter.
        self.obs
            .record(at.as_nanos(), crate::obs::EventKind::UpdateSend, |ev| {
                ev.peer = Some(dest);
                ev.seq = Some(seq);
            });
        seq
    }

    /// Checks an inbound update transmission against the source's sequence
    /// stream. `Apply` consumes the number; the caller must then apply the
    /// items. `Early` means a lower-numbered transmission is still in
    /// flight (the caller defers and retries); `Stale` means the number was
    /// already consumed (see [`SeqCheck::Stale`] — drop the items).
    pub(crate) fn check_update_seq(&self, src: NodeId, seq: u64) -> SeqCheck {
        let mut seqs = self.update_seq_in.lock();
        let expected = &mut seqs[src.as_usize()];
        match seq.cmp(expected) {
            std::cmp::Ordering::Equal => {
                *expected += 1;
                SeqCheck::Apply
            }
            std::cmp::Ordering::Greater => SeqCheck::Early,
            std::cmp::Ordering::Less => SeqCheck::Stale,
        }
    }

    /// This node's next bundle for `dest`: counts the transmission and draws
    /// its slot in the update stream to `dest` at `at`. An item-less bundle
    /// is a fence — it holds a slot and updates nothing — and counts as no
    /// update, sent or piggybacked.
    pub(crate) fn next_bundle(
        &self,
        dest: NodeId,
        at: VirtTime,
        items: Vec<UpdateItem>,
        route: Route,
    ) -> UpdateBundle {
        if !items.is_empty() {
            self.note_update_sent(&items);
            if matches!(route, Route::Carried | Route::OwnerFanout { ride: Some(_) }) {
                crate::stats::add(&self.stats.msgs_piggybacked, 1);
            }
        }
        UpdateBundle {
            origin: self.node,
            seq: self.next_update_seq(dest, at),
            items,
            route,
        }
    }

    /// Counts one update transmission (standalone, piggybacked, or relayed)
    /// in the runtime statistics — the single accounting point for
    /// `updates_sent`/`update_bytes_sent`.
    pub(crate) fn note_update_sent(&self, items: &[UpdateItem]) {
        crate::stats::add(&self.stats.updates_sent, 1);
        crate::stats::add(
            &self.stats.update_bytes_sent,
            items.iter().map(|i| i.payload.model_bytes()).sum::<u64>(),
        );
    }

    /// Sends a protocol message in the calling thread's program order,
    /// charging the fixed message cost. The message is wrapped by the
    /// reliability layer when that is enabled.
    pub(crate) fn send(&self, dst: NodeId, msg: DsmMsg) -> Result<()> {
        let msg = self.wrap_outgoing(dst, msg);
        self.send_raw(dst, msg)
    }

    /// [`Self::send`] without the reliability wrap. On the user thread the
    /// message leaves at the node clock; on the service thread — which only
    /// gets here with no request in hand, everything else goes through
    /// [`Self::send_service`] — at the service-side clock.
    pub(crate) fn send_raw(&self, dst: NodeId, msg: DsmMsg) -> Result<()> {
        let (class, bytes) = (msg.class(), msg.model_bytes());
        let sent = if self.on_user_thread() {
            self.sender.send(dst, class, bytes, msg)
        } else {
            self.sender
                .send_at(dst, class, bytes, msg, self.service_now())
        };
        sent.map(|_| ()).map_err(|e| self.send_error(dst, e))
    }

    /// A send fails when the destination has left the run: its inbox is
    /// closed. While crashes are being tolerated that is reported as what
    /// the contract promises, a structured `NodeDown`, not as the
    /// transport's own error — a node cut off from the cluster (the crash
    /// victim itself, or one that missed the end of the run) otherwise
    /// races the survivors' teardown for which error it gets.
    fn send_error(&self, dst: NodeId, e: munin_sim::SimError) -> MuninError {
        match e {
            munin_sim::SimError::Disconnected if self.health_enabled() && dst != self.node => {
                MuninError::NodeDown {
                    node: dst,
                    lost_objects: Vec::new(),
                }
            }
            e => e.into(),
        }
    }

    /// Sends a protocol message on behalf of the runtime service thread,
    /// timestamped `logical_time` (normally the arrival time of the request
    /// being answered, plus its service cost). This models the service
    /// running concurrently with the user thread's computation, as the
    /// paper's Munin worker threads do.
    pub(crate) fn send_service(
        &self,
        dst: NodeId,
        msg: DsmMsg,
        logical_time: VirtTime,
    ) -> Result<()> {
        let msg = self.wrap_outgoing(dst, msg);
        self.sender
            .send_at(dst, msg.class(), msg.model_bytes(), msg, logical_time)
            .map(|_| ())
            .map_err(|e| self.send_error(dst, e))
    }

    /// The watchdog loop of every blocked user-thread wait: `slice` waits up
    /// to [`WATCHDOG_SLICE`] for what `op` is blocked on and returns the
    /// outcome, or `None` when the slice passed without one. Once `op` has
    /// waited the watchdog window, the wait fails with a structured
    /// [`StallReport`](crate::StallReport) instead of hanging.
    fn watch<T>(&self, op: WaitOp, mut slice: impl FnMut() -> Option<Result<T>>) -> Result<T> {
        let start = Instant::now();
        loop {
            if let Some(outcome) = slice() {
                return outcome;
            }
            let waited = start.elapsed();
            if waited >= self.cfg.watchdog {
                return Err(self.raise_stall(op, waited));
            }
        }
    }

    /// A blocked call returns: the reply's arrival is where the user thread
    /// resumes (the one edge by which a message moves the node clock), and
    /// the virtual wait is measured to it.
    pub(crate) fn resume_at(
        &self,
        op: WaitOp,
        entered_virt: u64,
        reply: (Envelope, DsmMsg),
    ) -> (Envelope, DsmMsg) {
        self.clock.advance_to(TimeKind::Wait, reply.0.arrival);
        self.obs.record_wait(
            op.kind(),
            reply.0.arrival.as_nanos().saturating_sub(entered_virt),
        );
        reply
    }

    /// Holds a barrier arrive or completion notice back until nothing stamped
    /// earlier can still reach a node (DESIGN.md, "Virtual-time model").
    pub(crate) fn pace(&self, op: WaitOp) -> Result<()> {
        match self.sender.pace(self.clock.now(), self.cfg.watchdog) {
            true => Ok(()),
            false => Err(self.raise_stall(op, self.cfg.watchdog)),
        }
    }

    /// Blocks until one worker-completion notification arrives (root only),
    /// under the watchdog ([`Self::watch`]), returning which
    /// worker finished — or `None` when the failure detector confirmed a
    /// new death instead (the timeout slices age the detector, so a root
    /// blocked on a crashed worker confirms the death itself). The caller
    /// reconciles notifications against the dead set and re-blocks.
    pub(crate) fn wait_worker_done_notification(self: &Arc<Self>) -> Result<Option<NodeId>> {
        let entered_virt = self.clock.now().as_nanos();
        let dead_at_entry = self.dead_set();
        self.watch(WaitOp::WorkerDone, || {
            match self.done.recv_timeout(WATCHDOG_SLICE) {
                Some((from, arrival)) => {
                    self.clock.advance_to(TimeKind::Wait, arrival);
                    self.obs.record_wait(
                        WaitOp::WorkerDone.kind(),
                        arrival.as_nanos().saturating_sub(entered_virt),
                    );
                    Some(Ok(Some(from)))
                }
                None => {
                    self.health_check();
                    (self.dead_set() != dead_at_entry).then_some(Ok(None))
                }
            }
        })
    }

    /// Builds the structured stall diagnosis, records it in the statistics,
    /// prints it to stderr (the run is about to die; make the post-mortem
    /// immediate), and returns it as an error.
    fn raise_stall(&self, op: WaitOp, waited: Duration) -> MuninError {
        self.obs
            .record(self.clock.now().as_nanos(), EventKind::Stall, |ev| {
                ev.object = op.object();
                ev.sync_id = op.sync_id();
            });
        let report = StallReport {
            node: self.node,
            op: op.kind(),
            object: op.object(),
            sync_id: op.sync_id(),
            waited,
            unacked: self.unacked_snapshot(),
            deferred: self.deferred.lock().len(),
            suspected: self.suspected_snapshot(),
            frontiers: (0..self.nodes)
                .map(|i| (i, self.sender.delivery_frontier(NodeId::new(i))))
                .collect(),
            // Only this node's forensics are in hand here; the run driver
            // (`api::MuninProgram::run`) patches in every node's tail once
            // all runtimes have stopped.
            last_events: vec![(
                self.node.as_usize(),
                self.obs.tail(crate::obs::STALL_TAIL_EVENTS),
            )],
        };
        crate::stats::bump(&self.stats.runtime_errors);
        crate::stats::bump(&self.stats.watchdog_stalls);
        eprintln!("munin: {report}");
        MuninError::Stalled(Box::new(report))
    }

    /// Aborts the service thread: closes this node's inbox so its receive
    /// loop observes disconnection and exits even if the final `Done`
    /// was lost or never sent. Called on error paths before joining the
    /// service thread; without it the `Arc` cycle between the service thread
    /// and the runtime would keep the channel alive forever.
    pub(crate) fn abort_service(&self) {
        self.sender.close_inbox();
    }

    /// The envelope of a reply this node hands itself at `at` without a
    /// message: a lock token it mints, the release of a barrier it opens.
    pub(crate) fn local_envelope(&self, class: &'static str, at: VirtTime) -> Envelope {
        Envelope {
            src: self.node,
            dst: self.node,
            class,
            model_bytes: 0,
            sent_at: at,
            arrival: at,
        }
    }

    /// Hands a reply to the blocked user thread (called by the service loop).
    /// A `LockGrant` is the one reply that changes state on the way: the
    /// token is installed here, on the thread its message arrived on (see
    /// [`Self::install_lock_token`]), and the user thread is merely woken.
    pub(crate) fn route_to_user(self: &Arc<Self>, env: Envelope, msg: DsmMsg) {
        if let DsmMsg::LockGrant { lock, queue } = msg {
            self.install_lock_token(env, lock, queue);
            return;
        }
        // The user thread may already have exited (e.g. after a runtime
        // error); the message then goes nowhere, harmlessly.
        self.replies.send((env, msg));
    }

    /// Byte range of an object within the shared segment.
    pub(crate) fn object_range(&self, object: ObjectId) -> std::ops::Range<usize> {
        let desc = self.table.object(object);
        desc.segment_offset..desc.segment_offset + desc.size
    }

    /// Runs `f` over the current bytes of an object (runtime-internal read:
    /// diff encoding, fetch serves, snapshots). In VM-trap mode this is a
    /// privileged access that may temporarily escalate page protections.
    pub(crate) fn with_object_mem<R>(&self, object: ObjectId, f: impl FnOnce(&[u8]) -> R) -> R {
        match &self.vm {
            Some(vm) => vm.with_object(object, f),
            None => {
                let range = self.object_range(object);
                let mem = self.memory.lock();
                f(&mem[range])
            }
        }
    }

    /// Runs `f` over the mutable bytes of an object (runtime-internal write:
    /// installing fetched data, applying diffs, reductions). In VM-trap mode
    /// this is a privileged access that escalates page protections for the
    /// duration and restores them afterwards.
    pub(crate) fn with_object_mem_mut<R>(
        &self,
        object: ObjectId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        match &self.vm {
            Some(vm) => vm.with_object_mut(object, f),
            None => {
                let range = self.object_range(object);
                let mut mem = self.memory.lock();
                f(&mut mem[range])
            }
        }
    }

    /// Copies the current contents of an object out of local memory.
    pub(crate) fn object_bytes(&self, object: ObjectId) -> Vec<u8> {
        self.with_object_mem(object, |bytes| bytes.to_vec())
    }

    /// Copies the current contents of an object into `buf` (cleared first),
    /// reusing `buf`'s existing allocation. Used by the twin pool so
    /// first-write faults do not allocate once the pool is warm.
    pub(crate) fn read_object_into(&self, object: ObjectId, buf: &mut Vec<u8>) {
        buf.clear();
        self.with_object_mem(object, |bytes| buf.extend_from_slice(bytes));
    }

    /// Overwrites the local contents of an object with `image`, which is the
    /// object's length (a fetch reply's images are checked where they
    /// arrive, `fetch_object`) or empty: "all zeros" (`DsmMsg::ObjectData::data`),
    /// which fills the object with them — local memory is never assumed clean.
    pub(crate) fn install_object_bytes(&self, object: ObjectId, image: &[u8]) {
        self.with_object_mem_mut(object, |bytes| match image {
            [] => bytes.fill(0),
            _ => bytes.copy_from_slice(image),
        });
    }

    /// Sets a directory entry's access rights and [`Self::protect`]s them.
    pub(crate) fn set_entry_rights(&self, entry: &mut DirEntry, rights: AccessRights) {
        entry.state.rights = rights;
        self.protect(entry);
    }

    /// Mirrors `entry`'s rights into its page protections when the VM-trap
    /// backend is active. Every protocol-side rights change reaches the
    /// pages through here, in the directory-lock scope that made it, so
    /// protections never lag rights as far as any directory-lock holder can
    /// observe.
    pub(crate) fn protect(&self, entry: &DirEntry) {
        if let Some(vm) = &self.vm {
            vm.sync_rights(entry.object, entry.state.rights, false);
        }
    }

    /// Routes a hardware protection fault (VM-trap mode) to the fault
    /// protocol. Runs on the faulting thread, called by the region's SIGSEGV
    /// callback. Returns whether the fault was resolved (the faulting
    /// instruction is then restarted).
    pub(crate) fn vm_fault(self: &Arc<Self>, region_offset: usize, is_write: bool) -> bool {
        // Only the user thread's touches are legitimate fault sources; a
        // trap on any other thread is a privileged path that missed an
        // escalation — let it crash loudly rather than deadlock the service
        // loop on its own reply channel.
        if std::thread::current().id() != self.user_thread {
            return false;
        }
        let Some(vm) = &self.vm else { return false };
        let Some(object) = vm.object_at(region_offset) else {
            return false;
        };
        let window_end = self.vm_window_end.load(Ordering::Relaxed);
        crate::stats::bump(if is_write {
            &self.stats.vm_write_traps
        } else {
            &self.stats.vm_read_traps
        });
        let result = self.fault(object, is_write, window_end);
        if let Err(e) = result {
            // The handler cannot make the faulting access fail; it loosens
            // the page so the touch completes (touches never carry
            // application data) and parks the error for the touch wrapper,
            // which restores protection and unwinds.
            vm.force_writable(object);
            *self.vm_fault_error.lock() = Some(e);
            self.vm_fault_errored.store(true, Ordering::Relaxed);
        }
        true
    }

    /// Takes a parked trap-resolution error, if any (touch-wrapper side).
    /// The flag and the cell are written by the fault handler on this same
    /// thread, so relaxed ordering is sufficient.
    pub(crate) fn take_vm_fault_error(&self) -> Option<MuninError> {
        if !self.vm_fault_errored.load(Ordering::Relaxed) {
            return None;
        }
        self.vm_fault_errored.store(false, Ordering::Relaxed);
        self.vm_fault_error.lock().take()
    }

    /// Initializes directory state on the root node after `user_init` has
    /// run. `touched` is the set of objects the initialization actually
    /// wrote.
    ///
    /// The root is the home of every statically allocated object, so it is
    /// the initial owner of all of them. Objects the initialization wrote are
    /// valid at the root; objects it never touched remain invalid (so that a
    /// later first-touch fetch is served zero-filled and ownership moves to
    /// the toucher). Objects with a fixed owner (`reduction`, `result`) are
    /// always materialized at the root because flushes and `Fetch_and_Φ`
    /// operations are directed there.
    pub(crate) fn finish_root_init(&self, touched: &HashSet<ObjectId>) {
        let mut dir = self.dir.lock();
        for idx in 0..dir.len() {
            let entry = dir.entry_mut(ObjectId::new(idx as u32));
            entry.state.owned = true;
            entry.probable_owner = self.node;
            let materialize = touched.contains(&entry.object) || entry.params.has_fixed_owner();
            let rights = if !materialize {
                AccessRights::Invalid
            } else if !entry.params.is_writable() || entry.params.allows_delay() {
                // Read-only data and delayed-update (write-shared family)
                // objects start write-protected so the first write makes a
                // twin and enters the DUQ.
                AccessRights::Read
            } else {
                AccessRights::ReadWrite
            };
            self.set_entry_rights(entry, rights);
        }
    }

    /// Parks a request until what it waits `on` has happened.
    pub(crate) fn defer(&self, env: Envelope, msg: DsmMsg, on: DeferredOn) {
        self.deferred.lock().push(Deferred { env, msg, on });
    }

    /// Retries deferred requests. Safe to call from either thread: the
    /// handlers it invokes never block on remote replies. A request that
    /// waited on a directory entry is handled at `max(its arrival, the time
    /// the entry was unblocked)` — it could not have been served before.
    pub(crate) fn process_deferred(self: &Arc<Self>) {
        loop {
            let gen = self.deferred_gen.load(Ordering::SeqCst);
            let pending = {
                let mut deferred = self.deferred.lock();
                if deferred.is_empty() {
                    return;
                }
                std::mem::take(&mut *deferred)
            };
            let before = pending.len();
            let unblocked_at = VirtTime::from_nanos(self.unblocked_at.load(Ordering::SeqCst));
            for Deferred { mut env, msg, on } in pending {
                if on == DeferredOn::Entry {
                    env.arrival = env.arrival.max(unblocked_at);
                }
                self.handle_request(env, msg);
            }
            // If nothing was consumed (everything re-deferred), stop retrying
            // until the next message or transition completion — unless a
            // blocking condition cleared while we were re-handling (the
            // releasing thread's own `process_deferred` may have run against
            // a momentarily empty queue), in which case retry now.
            if self.deferred.lock().len() >= before
                && self.deferred_gen.load(Ordering::SeqCst) == gen
            {
                return;
            }
        }
    }

    /// Records that a blocking condition (busy bit or pin) was cleared at
    /// `at`, then retries deferred requests. Must be called *after* the
    /// directory update that cleared the condition.
    pub(crate) fn note_unblocked_and_process_deferred(self: &Arc<Self>, at: VirtTime) {
        self.unblocked_at.fetch_max(at.as_nanos(), Ordering::SeqCst);
        self.deferred_gen.fetch_add(1, Ordering::SeqCst);
        self.process_deferred();
    }

    /// Snapshot of this node's entire shared-segment memory in the packed
    /// layout (used by the root at the end of a run so results can be
    /// inspected).
    pub(crate) fn memory_snapshot(&self) -> Vec<u8> {
        match &self.vm {
            Some(vm) => vm.snapshot_packed(&self.table),
            None => self.memory.lock().clone(),
        }
    }

    /// Raw initialization write used by `user_init` on the root: bypasses the
    /// consistency machinery because no other copies exist yet.
    /// `segment_offset` is a packed-layout offset; in VM-trap mode the range
    /// is decomposed into the objects it covers.
    pub(crate) fn init_write(&self, segment_offset: usize, bytes: &[u8]) {
        if self.vm.is_none() {
            let mut mem = self.memory.lock();
            mem[segment_offset..segment_offset + bytes.len()].copy_from_slice(bytes);
            return;
        }
        let end = segment_offset + bytes.len();
        for obj in self.table.objects() {
            let obj_end = obj.segment_offset + obj.size;
            if obj.segment_offset >= end || obj_end <= segment_offset {
                continue;
            }
            let lo = obj.segment_offset.max(segment_offset);
            let hi = obj_end.min(end);
            self.with_object_mem_mut(obj.id, |mem| {
                mem[lo - obj.segment_offset..hi - obj.segment_offset]
                    .copy_from_slice(&bytes[lo - segment_offset..hi - segment_offset]);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::SharingAnnotation;
    use munin_sim::Network;

    /// Builds a single-node runtime for white-box tests of local paths.
    fn single_node_runtime() -> Arc<NodeRuntime> {
        let mut table = SharedDataTable::new(64);
        table.declare("ro", SharingAnnotation::ReadOnly, 4, 8);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 32);
        table.declare("res", SharingAnnotation::Result, 4, 8);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(1));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(1, cfg.cost.clone());
        let (sender, _receiver) = net.endpoint(0, clock.clone()).unwrap();
        NodeRuntime::new(
            NodeId::new(0),
            1,
            cfg.clone(),
            table,
            vec![],
            vec![],
            clock,
            Arc::new(cfg.cost.clone()),
            sender,
        )
    }

    #[test]
    fn root_init_marks_touched_objects_valid() {
        let rt = single_node_runtime();
        let ws_obj = rt.table().var_by_name("ws").unwrap().objects[0];
        let ro_obj = rt.table().var_by_name("ro").unwrap().objects[0];
        let res_obj = rt.table().var_by_name("res").unwrap().objects[0];
        let mut touched = HashSet::new();
        touched.insert(ro_obj);
        rt.finish_root_init(&touched);
        let dir = rt.dir.lock();
        assert_eq!(dir.entry(ro_obj).state.rights, AccessRights::Read);
        // Untouched write-shared object stays invalid (first-touch fetch will
        // be zero-filled).
        assert_eq!(dir.entry(ws_obj).state.rights, AccessRights::Invalid);
        // Result objects are always materialized at their fixed owner.
        assert_eq!(dir.entry(res_obj).state.rights, AccessRights::Read);
        assert!(dir.entry(ws_obj).state.owned);
    }

    #[test]
    fn object_bytes_round_trip() {
        let rt = single_node_runtime();
        let obj = rt.table().var_by_name("ro").unwrap().objects[0];
        let data: Vec<u8> = (0..32).collect();
        rt.install_object_bytes(obj, &data);
        assert_eq!(rt.object_bytes(obj), data);
    }

    #[test]
    fn charges_split_user_and_system() {
        let rt = single_node_runtime();
        rt.compute(10);
        rt.charge_sys(VirtTime::from_nanos(50));
        assert_eq!(
            rt.clock().user_time().as_nanos(),
            10 * rt.cost.compute_op_ns
        );
        assert_eq!(rt.clock().system_time().as_nanos(), 50);
    }
}
