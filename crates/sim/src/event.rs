//! The deterministic virtual-time event engine: a destination sees its
//! messages in virtual-time order, not in the order the host ran their
//! senders.
//!
//! * every message becomes an [`Envelope`] scheduled on a per-destination
//!   priority queue keyed by `(deliver_at, seeded tie-break, seqno)`;
//! * per `(src, dst)` *lane*, delivery times are clamped to be nondecreasing
//!   (links do not reorder — the FIFO-pipe property the protocol relies on
//!   for update-after-ownership-transfer sequences);
//! * a message is delivered at the arrival it was scheduled for: one popped
//!   after a virtually later one (host skew) is *late*, and counted
//!   ([`EngineStats::late_deliveries`]);
//! * ties are broken by a hash seeded from [`EngineConfig::seed`], so equal
//!   timestamps are delivered in an order that is stable under replay with
//!   the same seed and *different* under a different seed — adversarial
//!   schedule coverage without nondeterminism;
//! * an optional seeded fault plan injects extra delay, reorder jitter and
//!   loss, all derived from per-lane counters so a replay with the same seed
//!   sees the identical faults;
//! * every scheduled message is counted once, by class, in its destination's
//!   shard: [`EventEngine::net`] is the run's wire statistics.
//!
//! A pop selects the earliest message *queued*, not the earliest *sent*; each
//! inbox's earliest arrival queued or in service is published on the
//! progress board for paced sends ([`crate::pace`]). The engine can record
//! the per-destination delivery trace, so a run can be fingerprinted and
//! replayed: a recv-driven workload under one [`EngineConfig`] repeats it.
//!
//! # Sharding and the locking rule
//!
//! The engine is sharded by destination: each destination owns a
//! `Mutex<DestState>` (its delivery heap, the lane clamps of every link
//! terminating there, the delivery high-water mark, the open flag, its
//! submission sequence, its slice of the trace) paired with one `Condvar`. A
//! `submit(dst)` therefore locks exactly one shard, and `recv(node)` locks
//! only the receiver's own shard — concurrent traffic to *different*
//! destinations never contends, and the submit hot path performs no atomic
//! read-modify-write at all (sequence numbers are only compared within one
//! destination's heap, so each shard keeps a plain counter under its own
//! lock). The live-sender count is the engine's only atomic.
//!
//! **The one allowed lock order:** a thread holds at most *one* shard lock at
//! any time, and never acquires any other engine lock while holding it but
//! the progress board's ([`crate::pace`]), a leaf whose holders take nothing.
//! Operations that visit several shards (the all-senders-gone shutdown
//! wakeup, the trace merge) walk the shards in ascending destination order,
//! releasing each shard before locking the next. Nothing ever holds two
//! shard locks at once, so no lock-order cycle can exist. Per-destination
//! delivery order is the pre-shard engine's for a given seed
//! (`tests/stress_schedules.rs::sharded_engine_matches_pre_shard_golden_digests`).

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::error::SimError;
use crate::net::{Envelope, NodeId};
use crate::pace::Board;
use crate::stats::{ClassStats, NetSnapshot};
use crate::time::VirtTime;

/// Default engine seed ("MUNIN" in ASCII).
pub const DEFAULT_SEED: u64 = 0x4d_55_4e_49_4e;

/// Environment variable overriding the default engine seed (used by CI to run
/// the suite under a second schedule).
pub const SEED_ENV_VAR: &str = "MUNIN_ENGINE_SEED";

/// How the engine orders deliveries. There is one order; the type stays so
/// configurations can still name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Discrete-event delivery in `(deliver_at, seeded tie-break, seqno)`
    /// order with per-lane FIFO clamping.
    #[default]
    VirtualTime,
}

/// When an injected crash takes effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashTrigger {
    /// The node dies at this virtual time (nanoseconds): deliveries arriving
    /// at or after it are dropped, and messages the node *sent* at or after
    /// it never existed.
    VirtTime(u64),
    /// The node dies after receiving this many deliveries (its `msg#`
    /// counter, which is deterministic for a given schedule).
    MsgCount(u64),
}

/// One injected node crash or temporary freeze.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The node that crashes.
    pub node: usize,
    /// When the crash takes effect.
    pub trigger: CrashTrigger,
    /// Virtual-time end of a temporary freeze in nanoseconds; `0` means the
    /// crash is permanent. While frozen, traffic to and from the node is
    /// dropped exactly as for a crash; at `until_ns` the node thaws and
    /// later traffic flows again (a retransmission layer recovers the gap).
    pub until_ns: u64,
}

/// Maximum number of crash specs in one plan (a fixed array keeps
/// [`FaultPlan`] `Copy` and `Eq`).
pub const MAX_CRASH_SPECS: usize = 4;

/// A seeded plan of node crashes and freezes. Crashes are evaluated at
/// delivery (pop) time, never at submit time, so a plan that never triggers
/// leaves the schedule — RNG streams, sequence numbers, lane clamps, traces —
/// byte-identical to no plan at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CrashPlan {
    specs: [Option<CrashSpec>; MAX_CRASH_SPECS],
}

impl CrashPlan {
    /// No crashes (the default).
    pub const fn none() -> Self {
        CrashPlan {
            specs: [None; MAX_CRASH_SPECS],
        }
    }

    /// Whether the plan contains no specs.
    pub fn is_none(&self) -> bool {
        self.specs.iter().all(|s| s.is_none())
    }

    /// Returns the plan with `spec` added. Panics when the plan is full
    /// ([`MAX_CRASH_SPECS`]).
    pub fn with(mut self, spec: CrashSpec) -> Self {
        for slot in self.specs.iter_mut() {
            if slot.is_none() {
                *slot = Some(spec);
                return self;
            }
        }
        panic!("crash plan holds at most {MAX_CRASH_SPECS} specs");
    }

    /// Iterates the specs in the plan.
    pub fn iter(&self) -> impl Iterator<Item = &CrashSpec> {
        self.specs.iter().flatten()
    }

    /// The nodes named by the plan, in spec order (with duplicates).
    pub fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter().map(|s| s.node)
    }
}

/// Seeded fault-injection knobs. Probabilities are expressed in parts per
/// million so the configuration stays `Eq` and hashable. All draws come from
/// a per-lane generator, so the same seed injects the same faults on replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Probability (ppm) of adding an extra delivery delay to a message.
    pub delay_ppm: u32,
    /// Maximum extra delay in nanoseconds of virtual time.
    pub max_delay_ns: u64,
    /// Probability (ppm) of adding reorder jitter to a message (a small
    /// timestamp perturbation that can push it behind later traffic).
    pub reorder_ppm: u32,
    /// Maximum reorder jitter in nanoseconds of virtual time.
    pub reorder_window_ns: u64,
    /// Probability (ppm) of dropping a message outright. The sender observes
    /// a successful send (as it would on a lossy wire); the message is never
    /// scheduled. Only protocols with a retransmission layer should enable
    /// this — see the runtime's reliability layer.
    pub loss_ppm: u32,
    /// Injected node crashes and freezes. Evaluated at delivery time only
    /// (see [`CrashPlan`]): an empty plan leaves schedules byte-identical.
    pub crash: CrashPlan,
}

impl FaultPlan {
    /// No faults (the default).
    pub const fn none() -> Self {
        FaultPlan {
            delay_ppm: 0,
            max_delay_ns: 0,
            reorder_ppm: 0,
            reorder_window_ns: 0,
            loss_ppm: 0,
            crash: CrashPlan::none(),
        }
    }

    /// A delay + reorder plan suitable for protocol stress tests: `ppm`
    /// of messages get up to `window_ns` of extra latency or jitter.
    pub const fn jittery(ppm: u32, window_ns: u64) -> Self {
        FaultPlan {
            delay_ppm: ppm,
            max_delay_ns: window_ns,
            reorder_ppm: ppm,
            reorder_window_ns: window_ns,
            loss_ppm: 0,
            crash: CrashPlan::none(),
        }
    }

    /// Returns the plan with seeded message loss at the given rate (ppm).
    pub const fn with_loss(mut self, loss_ppm: u32) -> Self {
        self.loss_ppm = loss_ppm;
        self
    }

    /// Returns the plan with `spec` added to its crash plan.
    pub fn with_crash(mut self, spec: CrashSpec) -> Self {
        self.crash = self.crash.with(spec);
        self
    }

    /// Whether any *probabilistic* (submit-time) fault is enabled. Crash
    /// injection is deliberately excluded: crashes are evaluated at delivery
    /// time and must not perturb the submit path's RNG stream.
    fn is_none(&self) -> bool {
        self.delay_ppm == 0 && self.loss_ppm == 0 && self.reorder_ppm == 0
    }
}

/// Configuration of the event engine for one network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Seed for tie-breaking and fault injection. A failing run prints its
    /// seed; re-running with the same seed replays the same schedule.
    pub seed: u64,
    /// Delivery ordering mode.
    pub mode: DeliveryMode,
    /// Fault-injection knobs.
    pub faults: FaultPlan,
    /// Whether to record the delivery trace (per-destination sequences).
    pub record_trace: bool,
}

/// Pure parsing core of the [`SEED_ENV_VAR`] override: unset keeps
/// [`DEFAULT_SEED`].
///
/// # Panics
///
/// Panics on anything but a decimal `u64` — a present-but-invalid override
/// must be loud, or CI's "second schedule" run could silently test the
/// default.
fn parse_seed(v: Option<&str>) -> u64 {
    match v {
        None => DEFAULT_SEED,
        Some(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("invalid {SEED_ENV_VAR}={v:?}: expected a decimal u64")),
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: DEFAULT_SEED,
            mode: DeliveryMode::VirtualTime,
            faults: FaultPlan::none(),
            record_trace: false,
        }
    }
}

impl EngineConfig {
    /// An engine with the given schedule seed.
    pub fn seeded(seed: u64) -> Self {
        EngineConfig {
            seed,
            ..Self::default()
        }
    }

    /// Default configuration, with the seed (`MUNIN_ENGINE_SEED`)
    /// overridable from the environment, so CI can run the whole suite under
    /// a second schedule without code changes. Loss and every other fault
    /// are set in code, through [`Self::with_faults`].
    ///
    /// # Panics
    ///
    /// Panics when the variable is set to a malformed value.
    pub fn from_env() -> Self {
        // Parsed once per process: from_env is called by every config
        // constructor.
        static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        Self::seeded(*SEED.get_or_init(|| parse_seed(std::env::var(SEED_ENV_VAR).ok().as_deref())))
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables delivery-trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// One recorded delivery. Traces are per-destination sequences: `seq_at_dst`
/// numbers the deliveries each destination observed, and snapshots are sorted
/// by `(dst, seq_at_dst)` so the trace is independent of how host threads
/// interleaved *across* destinations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Destination node.
    pub dst: NodeId,
    /// Position of this delivery in the destination's sequence (0-based).
    pub seq_at_dst: u64,
    /// Source node.
    pub src: NodeId,
    /// Message class.
    pub class: &'static str,
    /// Virtual delivery time (the scheduled arrival).
    pub deliver_at: VirtTime,
}

/// SplitMix64 step: the engine's only randomness primitive.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes the seed with lane coordinates into an independent stream seed.
fn lane_seed(seed: u64, src: u32, dst: u32) -> u64 {
    let mut s = seed ^ ((src as u64) << 32) ^ (dst as u64) ^ 0xa076_1d64_78bd_642f;
    // One full SplitMix64 avalanche decorrelates nearby lane coordinates.
    splitmix64(&mut s);
    s
}

/// Sort key of a scheduled delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct DeliveryKey {
    deliver_at_ns: u64,
    tie: u64,
    seq: u64,
}

struct Scheduled<M> {
    key: DeliveryKey,
    env: Envelope,
    payload: M,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key first.
        other.key.cmp(&self.key)
    }
}

/// Per-`(src, dst)` link state: FIFO clamp and fault stream. Owned by the
/// destination shard it clamps into, so a submit touches exactly one shard.
struct LaneState {
    last_arrival_ns: u64,
    rng: u64,
}

/// One destination's lock domain: everything a delivery to this node reads
/// or writes.
struct DestState<M> {
    heap: BinaryHeap<Scheduled<M>>,
    /// Virtual-time timer events scheduled *by* this node for itself (the
    /// runtime's retransmit/ack ticks). Kept out of the delivery heap: a
    /// timer fires only when no real message is deliverable (see
    /// [`EventEngine::recv`]), never moves the high-water mark, and is never
    /// traced or counted as a wire message.
    timers: BinaryHeap<Scheduled<M>>,
    /// Ordering sequence for the timer heap (independent of the message
    /// sequence so timers never perturb delivery tie-breaks).
    timer_seq: u64,
    /// Timer events handed out to this node.
    timers_fired: u64,
    /// Messages dropped by seeded loss injection before scheduling.
    dropped: u64,
    /// Lane clamps and fault streams of every link terminating here, keyed
    /// by source index.
    lanes: HashMap<u32, LaneState>,
    /// Submission sequence for this destination. Sequence numbers are only
    /// ever *compared* within one destination's heap, so a per-shard plain
    /// counter under the shard lock gives exactly the ordering the old
    /// global counter did (monotone in submit order per destination, and
    /// therefore per lane) with no atomic on the submit hot path.
    next_seq: u64,
    /// Largest arrival handed out so far (stall reports print it), and the
    /// number of pops whose arrival was below it.
    frontier_ns: u64,
    late: u64,
    /// The arrival the receiver popped last, in service until it asks again
    /// (`u64::MAX`: none).
    serving_ns: u64,
    /// Number of messages delivered to this node.
    delivered: u64,
    /// False once the node's `Receiver` has been dropped (sends then fail,
    /// matching the disconnected-channel semantics of the old transport).
    open: bool,
    /// Messages scheduled into this shard and their modelled wire bytes, by
    /// class (the envelope's static class string). Kept in the shard — the
    /// submit path already holds this lock, so counting here costs no extra
    /// atomics on the hot path; [`EventEngine::net`] sums over shards.
    class_counts: HashMap<&'static str, ClassStats>,
    /// This destination's slice of the delivery trace, in `seq_at_dst`
    /// order by construction.
    trace: Vec<TraceEntry>,
}

/// A destination shard: its lock domain plus the condvar a blocked `recv`
/// parks on. Submits to this destination notify only this condvar.
///
/// Aligned to 128 bytes (two cache lines, covering adjacent-line prefetch)
/// so neighbouring shards in the engine's shard vector never false-share:
/// the whole point of per-destination lock domains is that traffic to
/// different destinations does not contend, in the cache as well as in the
/// lock.
#[repr(align(128))]
struct Shard<M> {
    state: Mutex<DestState<M>>,
    cond: Condvar,
}

/// What only the engine knows about a run (its wire volume is
/// [`EventEngine::net`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Messages dropped by seeded loss injection (never scheduled, so not in
    /// the wire statistics) or by an injected crash at delivery (scheduled,
    /// so counted there too).
    pub messages_dropped: u64,
    /// Virtual-time timer events delivered (never wire messages).
    pub timers_fired: u64,
    /// Deliveries popped after a virtually later one at the same destination
    /// (each still at its own arrival): the gauge of how far host scheduling
    /// strayed from virtual-time order.
    pub late_deliveries: u64,
}

/// The discrete-event scheduler shared by every endpoint of one [`Network`],
/// sharded by destination (see the module docs for the locking rule).
///
/// [`Network`]: crate::net::Network
pub struct EventEngine<M> {
    cfg: EngineConfig,
    n: usize,
    shards: Vec<Shard<M>>,
    /// Number of live `Sender` handles; receives fail once it reaches zero
    /// and the receiver's queue is empty.
    senders: AtomicUsize,
    /// Per-crash-spec virtual time (ns) at which the node went down, for
    /// [`CrashTrigger::MsgCount`] slots: the count is destination-shard
    /// state, but the *source*-side drop ("a dead node sends nothing") is
    /// evaluated in other shards. `u64::MAX` until the destination side
    /// first triggers; set with a relaxed `fetch_min` — post-crash
    /// propagation is best-effort by design (only the zero-crash schedule
    /// carries a byte-identity contract).
    crashed_at: [AtomicU64; MAX_CRASH_SPECS],
    pub(crate) board: std::sync::Arc<Board>,
}

impl<M> EventEngine<M> {
    /// Creates an engine for `n` nodes.
    pub(crate) fn new(n: usize, cfg: EngineConfig) -> Self {
        EventEngine {
            cfg,
            n,
            shards: (0..n)
                .map(|_| Shard {
                    state: Mutex::new(DestState {
                        heap: BinaryHeap::new(),
                        timers: BinaryHeap::new(),
                        timer_seq: 0,
                        timers_fired: 0,
                        dropped: 0,
                        lanes: HashMap::new(),
                        frontier_ns: 0,
                        late: 0,
                        serving_ns: u64::MAX,
                        delivered: 0,
                        open: true,
                        next_seq: 0,
                        class_counts: HashMap::new(),
                        trace: Vec::new(),
                    }),
                    cond: Condvar::new(),
                })
                .collect(),
            senders: AtomicUsize::new(0),
            crashed_at: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            board: std::sync::Arc::new(Board::new(n, cfg.faults.crash.nodes())),
        }
    }

    /// Publishes `node`'s inbox low mark: its earliest arrival queued or in
    /// service (none once closed).
    fn publish_low(&self, node: usize, st: &DestState<M>) {
        let queued = st.heap.peek().map_or(u64::MAX, |s| s.key.deliver_at_ns);
        let open = if st.open { 0 } else { u64::MAX };
        self.board
            .set_inbox(node, queued.min(st.serving_ns).max(open));
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Number of nodes.
    pub(crate) fn nodes(&self) -> usize {
        self.n
    }

    /// Drop, timer and lateness counters. Sums the per-shard counters,
    /// locking one shard at a time in ascending order (the allowed
    /// multi-shard walk — see the module docs).
    pub fn stats(&self) -> EngineStats {
        let mut stats = EngineStats::default();
        for shard in &self.shards {
            let st = self.lock_shard(shard);
            stats.messages_dropped += st.dropped;
            stats.timers_fired += st.timers_fired;
            stats.late_deliveries += st.late;
        }
        stats
    }

    /// The wire statistics: every message scheduled so far, by class. A
    /// carrier frame counts once, under the class of the message it frames.
    /// Walks the shards like [`Self::stats`].
    pub fn net(&self) -> NetSnapshot {
        let mut net = NetSnapshot::default();
        for shard in &self.shards {
            let st = self.lock_shard(shard);
            for (class, vol) in &st.class_counts {
                let agg = net.by_class.entry(class).or_default();
                agg.msgs += vol.msgs;
                agg.bytes += vol.bytes;
                net.total.msgs += vol.msgs;
                net.total.bytes += vol.bytes;
            }
        }
        net
    }

    fn lock_shard<'a>(&self, shard: &'a Shard<M>) -> MutexGuard<'a, DestState<M>> {
        shard.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn sender_registered(&self) {
        self.senders.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn sender_dropped(&self) {
        if self.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake every blocked receiver so it observes
            // the disconnection. Each shard's lock is taken and released
            // briefly, one shard at a time, before its condvar is notified:
            // the lock hold closes the missed-wakeup window (a receiver that
            // read a stale sender count under its shard lock is already
            // parked and gets the notify, or has not locked yet and will
            // read zero). No thread ever holds two shard locks.
            for shard in &self.shards {
                drop(self.lock_shard(shard));
                shard.cond.notify_all();
            }
        }
    }

    pub(crate) fn receiver_dropped(&self, node: usize) {
        if let Some(shard) = self.shards.get(node) {
            let mut st = self.lock_shard(shard);
            st.open = false;
            self.publish_low(node, &st);
            drop(st);
            // Only this shard's condvar: senders blocked on *other* nodes
            // are unaffected by this receiver going away.
            shard.cond.notify_all();
        }
    }

    /// Schedules `payload` for delivery, applying faults and the lane clamp.
    /// Returns the envelope with its effective (scheduled) delivery time.
    /// Locks exactly one shard: the destination's.
    pub(crate) fn submit(&self, mut env: Envelope, payload: M) -> Result<Envelope, SimError> {
        let dst = env.dst.as_usize();
        let Some(shard) = self.shards.get(dst) else {
            return Err(SimError::Disconnected);
        };
        let mut guard = self.lock_shard(shard);
        if !guard.open {
            return Err(SimError::Disconnected);
        }
        let st = &mut *guard;
        let seed = self.cfg.seed;
        let src = env.src.as_usize() as u32;
        let lane = st.lanes.entry(src).or_insert_with(|| LaneState {
            last_arrival_ns: 0,
            rng: lane_seed(seed, src, dst as u32),
        });
        let mut arrival_ns = env.arrival.as_nanos();
        if !self.cfg.faults.is_none() {
            let f = &self.cfg.faults;
            // The loss draw comes first and is gated on its own ppm, so every
            // non-loss plan consumes the exact RNG stream it did before loss
            // existed (replay digests are stable). A lost message draws
            // nothing further — no sequence number, lane clamp or volume
            // count: it never existed on the wire. The sender still sees a
            // successful send.
            if f.loss_ppm > 0 && splitmix64(&mut lane.rng) % 1_000_000 < f.loss_ppm as u64 {
                st.dropped += 1;
                return Ok(env);
            }
            if f.delay_ppm > 0 && splitmix64(&mut lane.rng) % 1_000_000 < f.delay_ppm as u64 {
                arrival_ns += 1 + splitmix64(&mut lane.rng) % f.max_delay_ns.max(1);
            }
            if f.reorder_ppm > 0 && splitmix64(&mut lane.rng) % 1_000_000 < f.reorder_ppm as u64 {
                arrival_ns += 1 + splitmix64(&mut lane.rng) % f.reorder_window_ns.max(1);
            }
        }
        // Lane FIFO: a link never reorders its own traffic.
        arrival_ns = arrival_ns.max(lane.last_arrival_ns);
        lane.last_arrival_ns = arrival_ns;
        // Classes are interned `&'static str` literals: one short-string hash
        // and an upsert into a map of a handful of entries.
        let vol = st.class_counts.entry(env.class).or_default();
        vol.msgs += 1;
        vol.bytes += env.model_bytes;
        let seq = st.next_seq;
        st.next_seq += 1;
        // Seeded tie-break over (src, dst, deliver_at) only: two same-lane
        // messages clamped to the same delivery time share the hash and fall
        // through to the submission seqno, which preserves lane FIFO;
        // equal-time messages from *different* sources are ordered by the
        // seed.
        let tie = {
            let mut s =
                seed ^ arrival_ns.rotate_left(17) ^ ((src as u64) << 40) ^ ((dst as u64) << 20);
            splitmix64(&mut s)
        };
        env.arrival = VirtTime::from_nanos(arrival_ns);
        st.heap.push(Scheduled {
            key: DeliveryKey {
                deliver_at_ns: arrival_ns,
                tie,
                seq,
            },
            env,
            payload,
        });
        self.publish_low(dst, st);
        drop(guard);
        shard.cond.notify_all();
        Ok(env)
    }

    /// Pops the earliest queued message of a destination shard, at the arrival
    /// it was scheduled for, recording the trace. Crash-dropped entries leave
    /// no schedule side effect (no `delivered` increment, no trace entry): an
    /// untriggered plan changes nothing, a triggered one only removes a tail.
    fn pop(&self, st: &mut DestState<M>) -> Option<(Envelope, M)> {
        loop {
            let sched = st.heap.pop()?;
            let env = sched.env;
            if !self.cfg.faults.crash.is_none() && self.crash_drops(&env, st.delivered) {
                st.dropped += 1;
                continue;
            }
            let at = env.arrival.as_nanos();
            st.late += u64::from(at < st.frontier_ns);
            st.frontier_ns = st.frontier_ns.max(at);
            let seq_at_dst = st.delivered;
            st.delivered += 1;
            if self.cfg.record_trace {
                st.trace.push(TraceEntry {
                    dst: env.dst,
                    seq_at_dst,
                    src: env.src,
                    class: env.class,
                    deliver_at: env.arrival,
                });
            }
            return Some((env, sched.payload));
        }
    }

    /// [`Self::pop`] for a receiver that asked again, so is done with what it
    /// popped before: what it pops now is in service until it asks again
    /// (a fired timer puts nothing there).
    fn receive(&self, node: usize, st: &mut DestState<M>) -> Option<(Envelope, M)> {
        let popped = self.pop(st);
        st.serving_ns = popped
            .as_ref()
            .map_or(u64::MAX, |(env, _)| env.arrival.as_nanos());
        self.publish_low(node, st);
        popped
    }

    /// Whether the crash plan drops this delivery: the destination is down
    /// at the arrival time (a dead node receives nothing), or the source was
    /// down when it sent (a dead node sends nothing). What a node sends to
    /// itself never crosses the wire and is never dropped: a cut-off node's
    /// own final `Done` must still be able to stop its service loop.
    fn crash_drops(&self, env: &Envelope, delivered: u64) -> bool {
        if env.src == env.dst {
            return false;
        }
        let arrival_ns = env.arrival.as_nanos();
        for (slot, spec) in self.cfg.faults.crash.iter().enumerate() {
            let thawed = |t_ns: u64| spec.until_ns != 0 && t_ns >= spec.until_ns;
            if spec.node == env.dst.as_usize() {
                let down = match spec.trigger {
                    CrashTrigger::VirtTime(t) => arrival_ns >= t,
                    CrashTrigger::MsgCount(n) => delivered >= n,
                };
                if down && !thawed(arrival_ns) {
                    if matches!(spec.trigger, CrashTrigger::MsgCount(_)) {
                        self.crashed_at[slot].fetch_min(arrival_ns, Ordering::Relaxed);
                    }
                    return true;
                }
            }
            if spec.node == env.src.as_usize() {
                let down_at = match spec.trigger {
                    CrashTrigger::VirtTime(t) => t,
                    CrashTrigger::MsgCount(_) => self.crashed_at[slot].load(Ordering::Relaxed),
                };
                let sent = env.sent_at.as_nanos();
                if sent >= down_at && !thawed(sent) {
                    return true;
                }
            }
        }
        false
    }

    /// Schedules a self-addressed virtual-time timer event for `node`. The
    /// payload is handed to the node's `recv` once no real message is
    /// deliverable (see [`EventEngine::recv`]); `due` orders timers against
    /// each other. Timers are not wire messages: no trace, volume or mark.
    pub(crate) fn submit_timer(
        &self,
        node: usize,
        due: VirtTime,
        class: &'static str,
        payload: M,
    ) -> Result<(), SimError> {
        let Some(shard) = self.shards.get(node) else {
            return Err(SimError::Disconnected);
        };
        let mut st = self.lock_shard(shard);
        if !st.open {
            return Err(SimError::Disconnected);
        }
        let seq = st.timer_seq;
        st.timer_seq += 1;
        st.timers.push(Scheduled {
            key: DeliveryKey {
                deliver_at_ns: due.as_nanos(),
                tie: 0,
                seq,
            },
            env: Envelope {
                src: NodeId::new(node),
                dst: NodeId::new(node),
                class,
                model_bytes: 0,
                sent_at: due,
                arrival: due,
            },
            payload,
        });
        drop(st);
        shard.cond.notify_all();
        Ok(())
    }

    /// The delivery high-water mark of `node` in nanoseconds: the largest
    /// arrival handed out there so far (stall diagnostics).
    pub fn frontier_ns(&self, node: usize) -> u64 {
        self.shards
            .get(node)
            .map(|s| self.lock_shard(s).frontier_ns)
            .unwrap_or(0)
    }

    /// Closes `node`'s inbox: subsequent submits fail, and its `recv` reports
    /// disconnection once the already-scheduled messages drain (the runtime's
    /// abort path: a service thread must stop even if its final `Done` was lost).
    pub(crate) fn close_inbox(&self, node: usize) {
        self.receiver_dropped(node);
    }

    /// How long a blocked `recv` waits for a real message before letting a
    /// pending timer fire. Wall-clock: virtual time only advances when nodes
    /// do work, so "no real message arrived for a moment" is the engine's
    /// only honest notion of the destination being idle.
    const TIMER_GRACE: std::time::Duration = std::time::Duration::from_millis(1);

    /// Blocking receive for `node`. Locks only the receiver's own shard.
    /// Test convenience: production receivers go through [`recv_flagged`]
    /// so they can tell timer events from real deliveries.
    ///
    /// [`recv_flagged`]: EventEngine::recv_flagged
    #[cfg(test)]
    pub(crate) fn recv(&self, node: usize) -> Result<(Envelope, M), SimError> {
        self.recv_flagged(node)
            .map(|(env, payload, _)| (env, payload))
    }

    /// Blocking receive for `node`, with a flag distinguishing timer events
    /// from real deliveries (the receiver must not advance its clock to a
    /// timer's due time — timers fire opportunistically when the node is
    /// idle and do not model virtual waiting).
    ///
    /// Timer semantics: a pending timer fires only when no real message is
    /// deliverable after a short wall-clock grace (the destination is idle);
    /// among timers, the earliest virtual due time fires first. Timers are
    /// not traced.
    pub(crate) fn recv_flagged(&self, node: usize) -> Result<(Envelope, M, bool), SimError> {
        let shard = &self.shards[node];
        let mut st = self.lock_shard(shard);
        loop {
            if let Some((env, payload)) = self.receive(node, &mut st) {
                return Ok((env, payload, false));
            }
            if !st.open || self.senders.load(Ordering::SeqCst) == 0 {
                return Err(SimError::Disconnected);
            }
            if st.timers.is_empty() {
                st = shard.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            } else {
                let (guard, timeout) = shard
                    .cond
                    .wait_timeout(st, Self::TIMER_GRACE)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                if timeout.timed_out() && st.heap.is_empty() {
                    if let Some(timer) = st.timers.pop() {
                        st.timers_fired += 1;
                        return Ok((timer.env, timer.payload, true));
                    }
                }
            }
        }
    }

    /// Non-blocking receive for `node`. Locks only the receiver's own shard.
    /// Never fires timers (they model "the destination went idle", which a
    /// poll cannot observe).
    pub(crate) fn try_recv(&self, node: usize) -> Result<Option<(Envelope, M)>, SimError> {
        let shard = &self.shards[node];
        let mut st = self.lock_shard(shard);
        if let Some(delivery) = self.receive(node, &mut st) {
            return Ok(Some(delivery));
        }
        if !st.open || self.senders.load(Ordering::SeqCst) == 0 {
            return Err(SimError::Disconnected);
        }
        Ok(None)
    }

    /// Snapshot of the delivery trace, sorted by `(dst, seq_at_dst)` so it is
    /// independent of cross-destination thread interleaving. Empty unless
    /// [`EngineConfig::record_trace`] is set.
    ///
    /// The global trace is reassembled by merging the per-shard traces on the
    /// stable sort key: each shard's slice is already in `seq_at_dst` order
    /// by construction, so walking the shards in ascending destination order
    /// and concatenating *is* the sorted merge (one shard lock at a time —
    /// see the module docs). The result is byte-identical to the pre-shard
    /// engine's sorted snapshot.
    pub fn trace_snapshot(&self) -> Vec<TraceEntry> {
        let mut trace = Vec::new();
        for shard in &self.shards {
            let st = self.lock_shard(shard);
            debug_assert!(st
                .trace
                .windows(2)
                .all(|w| w[0].seq_at_dst < w[1].seq_at_dst));
            trace.extend_from_slice(&st.trace);
        }
        trace
    }

    /// Digest of the current delivery trace (snapshot + [`trace_digest_of`]).
    pub fn trace_digest(&self) -> u64 {
        trace_digest_of(&self.trace_snapshot())
    }
}

/// A 64-bit digest of a sorted delivery trace (as returned by
/// [`EventEngine::trace_snapshot`]): two runs delivered the same
/// per-destination sequences iff the digests match.
pub fn trace_digest_of(trace: &[TraceEntry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace {
        for word in [
            e.dst.as_usize() as u64,
            e.seq_at_dst,
            e.src.as_usize() as u64,
            e.deliver_at.as_nanos(),
        ] {
            h = (h ^ word).wrapping_mul(0x1000_0000_01b3);
        }
        for b in e.class.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, dst: usize, arrival_ns: u64) -> Envelope {
        Envelope {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            class: "t",
            model_bytes: 0,
            sent_at: VirtTime::ZERO,
            arrival: VirtTime::from_nanos(arrival_ns),
        }
    }

    fn engine(n: usize, cfg: EngineConfig) -> EventEngine<u64> {
        let e = EventEngine::new(n, cfg);
        e.sender_registered(); // keep receives from reporting disconnection
        e
    }

    #[test]
    fn delivers_in_virtual_time_order_not_submit_order() {
        let e = engine(2, EngineConfig::seeded(1));
        e.submit(env(0, 1, 300), 3).unwrap();
        e.submit(env(0, 1, 400), 4).unwrap();
        // Sent last from another lane but arriving first.
        e.submit(env(1, 1, 100), 1).unwrap();
        let order: Vec<u64> = (0..3).map(|_| e.recv(1).unwrap().1).collect();
        assert_eq!(order, vec![1, 3, 4]);
    }

    #[test]
    fn lane_fifo_clamp_prevents_same_link_overtaking() {
        let e = engine(2, EngineConfig::seeded(1));
        // A big message followed by a small one on the same lane: the small
        // one's computed arrival is earlier, but the link may not reorder.
        e.submit(env(0, 1, 500), 10).unwrap();
        let clamped = e.submit(env(0, 1, 200), 11).unwrap();
        assert_eq!(clamped.arrival.as_nanos(), 500);
        let order: Vec<u64> = (0..2).map(|_| e.recv(1).unwrap().1).collect();
        assert_eq!(order, vec![10, 11]);
    }

    #[test]
    fn late_message_is_delivered_at_its_own_arrival_and_counted() {
        let e = engine(3, EngineConfig::seeded(1));
        e.submit(env(0, 2, 900), 1).unwrap();
        let (first, _) = e.recv(2).unwrap();
        assert_eq!(first.arrival.as_nanos(), 900);
        assert_eq!(e.stats().late_deliveries, 0);
        // A straggler the host submitted after a virtually later message was
        // popped keeps its own arrival: no time flows from one sender to the
        // other through the order the host ran them in.
        e.submit(env(1, 2, 100), 2).unwrap();
        let (late, _) = e.recv(2).unwrap();
        assert_eq!(late.arrival.as_nanos(), 100);
        assert_eq!(e.stats().late_deliveries, 1);
        // The high-water mark is a maximum, not the last delivery.
        assert_eq!(e.frontier_ns(2), 900);
        e.submit(env(0, 2, 950), 3).unwrap();
        assert_eq!(e.recv(2).unwrap().0.arrival.as_nanos(), 950);
        assert_eq!(e.stats().late_deliveries, 1);
    }

    #[test]
    fn a_popped_message_stays_in_the_inbox_low_mark_until_the_next_receive() {
        let e = engine(2, EngineConfig::seeded(1));
        let low = |e: &EventEngine<u64>| e.board.view(1).inbox_ns;
        assert_eq!(low(&e), u64::MAX);
        e.submit(env(0, 1, 300), 3).unwrap();
        e.submit(env(0, 1, 400), 4).unwrap();
        assert_eq!(low(&e), 300, "queued");
        assert_eq!(e.recv(1).unwrap().0.arrival.as_nanos(), 300);
        assert_eq!(low(&e), 300, "in service");
        e.submit(env(0, 1, 500), 5).unwrap();
        assert_eq!(e.try_recv(1).unwrap().unwrap().0.arrival.as_nanos(), 400);
        assert_eq!(low(&e), 400);
        e.recv(1).unwrap();
        assert_eq!(low(&e), 500);
        assert!(e.try_recv(1).unwrap().is_none());
        assert_eq!(low(&e), u64::MAX, "done with the last one");
        e.submit(env(0, 1, 600), 6).unwrap();
        e.close_inbox(1);
        assert_eq!(low(&e), u64::MAX, "closed");
    }

    #[test]
    fn equal_timestamps_break_ties_identically_on_replay() {
        let run = |seed: u64| -> Vec<u64> {
            let e = engine(3, EngineConfig::seeded(seed));
            for (i, src) in [0usize, 1, 0, 1].iter().enumerate() {
                e.submit(env(*src, 2, 777), i as u64).unwrap();
            }
            (0..4).map(|_| e.recv(2).unwrap().1).collect()
        };
        assert_eq!(run(42), run(42));
        // Different seeds produce different tie-break orders for at least one
        // of a handful of seeds (all-equal would mean the seed is unused).
        let base = run(0);
        assert!((1..16).any(|s| run(s) != base));
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let faults = FaultPlan::jittery(500_000, 10_000);
        let run = |seed: u64| -> Vec<(u64, u64)> {
            let e = engine(2, EngineConfig::seeded(seed).with_faults(faults));
            for i in 0..32u64 {
                e.submit(env(0, 1, 100 * i), i).unwrap();
            }
            (0..32)
                .map(|_| {
                    let (env, v) = e.recv(1).unwrap();
                    (env.arrival.as_nanos(), v)
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "fault schedule must depend on the seed");
        // Lane FIFO holds even under injected jitter.
        let arrivals: Vec<u64> = run(7).iter().map(|(a, _)| *a).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trace_records_per_destination_sequences() {
        let e = engine(2, EngineConfig::seeded(1).with_trace());
        e.submit(env(0, 1, 200), 1).unwrap();
        e.submit(env(0, 0, 100), 2).unwrap();
        e.recv(1).unwrap();
        e.recv(0).unwrap();
        let trace = e.trace_snapshot();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].dst, NodeId::new(0));
        assert_eq!(trace[0].seq_at_dst, 0);
        assert_eq!(trace[1].dst, NodeId::new(1));
        assert_ne!(e.trace_digest(), 0);
    }

    #[test]
    fn net_counts_messages_and_bytes_by_class() {
        let e = engine(2, EngineConfig::seeded(1));
        assert_eq!(e.stats(), EngineStats::default());
        assert_eq!(e.net(), NetSnapshot::default());
        let mut env100 = env(0, 1, 10);
        env100.model_bytes = 100;
        let mut env28 = env(1, 0, 20);
        env28.model_bytes = 28;
        e.submit(env100, 1).unwrap();
        e.submit(env28, 2).unwrap();
        let mut lock = env(0, 1, 30);
        lock.class = "lock";
        lock.model_bytes = 8;
        e.submit(lock, 3).unwrap();
        let net = e.net();
        assert_eq!(
            net.total,
            ClassStats {
                msgs: 3,
                bytes: 136
            }
        );
        assert_eq!(
            net.class("t"),
            ClassStats {
                msgs: 2,
                bytes: 128
            }
        );
        assert_eq!(net.class("lock"), ClassStats { msgs: 1, bytes: 8 });
        assert_eq!(net.class("missing"), ClassStats::default());
        // A refused send is no message.
        e.receiver_dropped(1);
        assert!(e.submit(env(0, 1, 40), 4).is_err());
        assert_eq!(e.net(), net);
    }

    #[test]
    fn recv_disconnects_when_all_senders_drop() {
        let e: EventEngine<u64> = EventEngine::new(1, EngineConfig::default());
        e.sender_registered();
        e.submit(env(0, 0, 5), 1).unwrap();
        e.sender_dropped();
        assert!(e.recv(0).is_ok(), "queued messages drain first");
        assert_eq!(e.recv(0).err(), Some(SimError::Disconnected));
    }

    #[test]
    fn submit_to_dropped_receiver_fails() {
        let e = engine(2, EngineConfig::default());
        e.receiver_dropped(1);
        assert_eq!(
            e.submit(env(0, 1, 5), 1).err(),
            Some(SimError::Disconnected)
        );
    }

    #[test]
    fn loss_drops_messages_deterministically_per_seed() {
        let faults = FaultPlan::none().with_loss(500_000);
        let run = |seed: u64| -> Vec<u64> {
            let e = engine(2, EngineConfig::seeded(seed).with_faults(faults));
            for i in 0..64u64 {
                e.submit(env(0, 1, 100 * i), i).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(Some((_, v))) = e.try_recv(1) {
                got.push(v);
            }
            let (sent, dropped) = (e.net().total.msgs, e.stats().messages_dropped);
            assert_eq!(sent + dropped, 64);
            assert!(dropped > 0, "50% loss must drop something");
            assert!(sent > 0, "50% loss must deliver something");
            got
        };
        assert_eq!(run(11), run(11), "loss schedule must replay under a seed");
        assert_ne!(run(11), run(12), "loss schedule must depend on the seed");
    }

    #[test]
    fn lost_messages_leave_no_schedule_side_effects() {
        // Total loss: nothing is counted, clamped, or delivered, and the
        // sender still observes successful sends.
        let faults = FaultPlan::none().with_loss(1_000_000);
        let e = engine(2, EngineConfig::seeded(5).with_faults(faults));
        for i in 0..8u64 {
            e.submit(env(0, 1, 100 * i), i).unwrap();
        }
        assert!(e.try_recv(1).unwrap().is_none());
        assert_eq!(e.net(), NetSnapshot::default());
        assert_eq!(e.stats().messages_dropped, 8);
        assert!(e.trace_snapshot().is_empty());
    }

    #[test]
    fn timers_fire_only_when_no_real_message_is_deliverable() {
        let e = engine(2, EngineConfig::seeded(1));
        e.submit_timer(1, VirtTime::from_nanos(10), "tick", 77)
            .unwrap();
        e.submit(env(0, 1, 500), 1).unwrap();
        // The real message wins even though the timer's due time is earlier.
        let (_, first, timer) = e.recv_flagged(1).unwrap();
        assert_eq!((first, timer), (1, false));
        let (tick_env, second, timer) = e.recv_flagged(1).unwrap();
        assert_eq!((second, timer), (77, true));
        assert_eq!(tick_env.class, "tick");
        assert_eq!(tick_env.src, NodeId::new(1));
        // Timers are not wire messages: no volume, no trace, no high-water.
        assert_eq!(e.net().total.msgs, 1);
        assert_eq!(e.stats().timers_fired, 1);
        assert_eq!(e.frontier_ns(1), 500);
    }

    #[test]
    fn earliest_due_timer_fires_first() {
        let e = engine(1, EngineConfig::seeded(1));
        e.submit_timer(0, VirtTime::from_nanos(900), "tick", 9)
            .unwrap();
        e.submit_timer(0, VirtTime::from_nanos(100), "tick", 1)
            .unwrap();
        assert_eq!(e.recv(0).unwrap().1, 1);
        assert_eq!(e.recv(0).unwrap().1, 9);
    }

    #[test]
    fn try_recv_never_fires_timers() {
        let e = engine(1, EngineConfig::seeded(1));
        e.submit_timer(0, VirtTime::ZERO, "tick", 1).unwrap();
        assert!(e.try_recv(0).unwrap().is_none());
    }

    #[test]
    fn crashed_destination_drops_all_later_deliveries() {
        let faults = FaultPlan::none().with_crash(CrashSpec {
            node: 1,
            trigger: CrashTrigger::VirtTime(500),
            until_ns: 0,
        });
        let e = engine(2, EngineConfig::seeded(1).with_faults(faults));
        for (arrival, v) in [(100, 1u64), (400, 2), (600, 3), (700, 4)] {
            e.submit(env(0, 1, arrival), v).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(Some((_, v))) = e.try_recv(1) {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2]);
        let stats = e.stats();
        assert_eq!(stats.messages_dropped, 2);
        // Other destinations are unaffected.
        e.submit(env(1, 0, 900), 9).unwrap();
        assert_eq!(e.recv(0).unwrap().1, 9);
    }

    #[test]
    fn msg_count_trigger_kills_after_nth_delivery() {
        let faults = FaultPlan::none().with_crash(CrashSpec {
            node: 1,
            trigger: CrashTrigger::MsgCount(2),
            until_ns: 0,
        });
        let e = engine(2, EngineConfig::seeded(1).with_faults(faults));
        for i in 0..5u64 {
            e.submit(env(0, 1, 100 * (i + 1)), i).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(Some((_, v))) = e.try_recv(1) {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1]);
        assert_eq!(e.stats().messages_dropped, 3);
    }

    #[test]
    fn crashed_source_sends_nothing_after_the_trigger() {
        let faults = FaultPlan::none().with_crash(CrashSpec {
            node: 0,
            trigger: CrashTrigger::VirtTime(500),
            until_ns: 0,
        });
        let e = engine(2, EngineConfig::seeded(1).with_faults(faults));
        let mut before = env(0, 1, 400);
        before.sent_at = VirtTime::from_nanos(300);
        let mut after = env(0, 1, 800);
        after.sent_at = VirtTime::from_nanos(600);
        e.submit(before, 1).unwrap();
        e.submit(after, 2).unwrap();
        assert_eq!(e.recv(1).unwrap().1, 1);
        assert!(e.try_recv(1).unwrap().is_none());
        assert_eq!(e.stats().messages_dropped, 1);
    }

    #[test]
    fn a_crashed_node_still_hears_itself() {
        // What a node sends to itself never crosses the wire: a cut-off
        // node's own final `Done` must still reach its service loop.
        let faults = FaultPlan::none().with_crash(CrashSpec {
            node: 1,
            trigger: CrashTrigger::VirtTime(500),
            until_ns: 0,
        });
        let e = engine(2, EngineConfig::seeded(1).with_faults(faults));
        e.submit(env(0, 1, 600), 1).unwrap();
        e.submit(env(1, 1, 700), 2).unwrap();
        assert_eq!(e.recv(1).unwrap().1, 2);
        assert!(e.try_recv(1).unwrap().is_none());
        assert_eq!(e.stats().messages_dropped, 1);
    }

    #[test]
    fn freeze_drops_inside_the_window_then_thaws() {
        let faults = FaultPlan::none().with_crash(CrashSpec {
            node: 1,
            trigger: CrashTrigger::VirtTime(200),
            until_ns: 500,
        });
        let e = engine(2, EngineConfig::seeded(1).with_faults(faults));
        for (arrival, v) in [(100, 1u64), (300, 2), (600, 3)] {
            e.submit(env(0, 1, arrival), v).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(Some((_, v))) = e.try_recv(1) {
            got.push(v);
        }
        assert_eq!(got, vec![1, 3]);
        assert_eq!(e.stats().messages_dropped, 1);
    }

    #[test]
    fn untriggered_crash_plan_leaves_the_schedule_byte_identical() {
        let run = |faults: FaultPlan| -> (Vec<TraceEntry>, u64) {
            let e = engine(3, EngineConfig::seeded(9).with_faults(faults).with_trace());
            for i in 0..32u64 {
                e.submit(env((i % 2) as usize, 2, 50 * i), i).unwrap();
            }
            while e.try_recv(2).unwrap().is_some() {}
            (e.trace_snapshot(), e.trace_digest())
        };
        // A jittery + lossy plan consumes lane RNG; adding a crash spec that
        // never triggers must not move a single draw or delivery.
        let base = FaultPlan::jittery(300_000, 5_000).with_loss(100_000);
        let with_idle_crash = base.with_crash(CrashSpec {
            node: 2,
            trigger: CrashTrigger::VirtTime(u64::MAX),
            until_ns: 0,
        });
        assert_eq!(run(base), run(with_idle_crash));
    }

    #[test]
    fn env_overrides_parse_strictly() {
        assert_eq!(parse_seed(None), DEFAULT_SEED);
        assert_eq!(parse_seed(Some("20260730")), 20_260_730);
        assert_eq!(parse_seed(Some(" 7 ")), 7);
    }

    #[test]
    #[should_panic(expected = "invalid MUNIN_ENGINE_SEED=\"abc\": expected a decimal u64")]
    fn seed_rejects_non_numeric_values() {
        parse_seed(Some("abc"));
    }

    #[test]
    fn closed_inbox_drains_then_disconnects() {
        let e = engine(2, EngineConfig::seeded(1));
        e.submit(env(0, 1, 5), 3).unwrap();
        e.close_inbox(1);
        assert_eq!(
            e.submit(env(0, 1, 9), 4).err(),
            Some(SimError::Disconnected)
        );
        assert_eq!(e.recv(1).unwrap().1, 3, "scheduled messages drain first");
        assert_eq!(e.recv(1).err(), Some(SimError::Disconnected));
        assert_eq!(e.try_recv(1).err(), Some(SimError::Disconnected));
    }
}
