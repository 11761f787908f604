//! Runtime configuration.

use std::time::Duration;

use munin_sim::{CostModel, EngineConfig};

use crate::annotation::SharingAnnotation;
use crate::object::DEFAULT_PAGE_SIZE;

/// How the copyset of modified objects is found at a DUQ flush. There is
/// one way; the type stays so configurations can still name it.
///
/// No flush asks anyone. An owned entry's flush uses the copyset it
/// recorded while serving fetches; a non-owned entry's bundle goes whole to
/// the owner, which re-fans it to its own copyset — the paper's "use the
/// owner node to collect Copyset information".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CopysetStrategy {
    /// Named for the prototype's algorithm, which this is not any more: "a
    /// message indicating which objects have been modified locally is sent
    /// to all other nodes; each node replies with ... the subset of these
    /// objects for which it has a copy." The paper calls it "somewhat
    /// inefficient".
    #[default]
    Broadcast,
}

/// How shared accesses with insufficient rights are detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AccessMode {
    /// Explicit software checks against the directory entry's access rights
    /// on every access — the portable default, available on every platform.
    #[default]
    Explicit,
    /// Real virtual-memory protection hardware: each node's shared segment
    /// lives in an `mprotect`-managed region, directory rights are mirrored
    /// into page protections, and insufficient-rights accesses take a
    /// `SIGSEGV` that is routed to the owning node's fault protocol — the
    /// paper's actual mechanism. Requires 64-bit Linux on x86_64 (see
    /// `munin_vm::traps_supported`); behaviourally identical to `Explicit`
    /// (the differential tests in `tests/access_modes.rs` pin this down).
    VmTraps,
}

impl AccessMode {
    /// Whether `VmTraps` is available on this target.
    pub const fn vm_supported() -> bool {
        munin_vm::traps_supported()
    }

    /// Reads `MUNIN_ACCESS_MODE` from the environment: `vm` (or `traps`)
    /// selects [`AccessMode::VmTraps`] where supported, `explicit` (or the
    /// variable being unset) selects [`AccessMode::Explicit`]. An unsupported
    /// platform downgrades `vm` to `Explicit`, so a suite run with
    /// `MUNIN_ACCESS_MODE=vm` still skips cleanly off Linux/x86_64.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set to anything other than
    /// `vm`/`traps`/`explicit` — a typo like `vmm` silently running the
    /// explicit checks would defeat a differential VM-mode run.
    pub fn from_env() -> Self {
        Self::parse(
            std::env::var("MUNIN_ACCESS_MODE").ok().as_deref(),
            Self::vm_supported(),
        )
    }

    /// Pure parsing core of [`Self::from_env`], split out so malformed-value
    /// behaviour is unit-testable without mutating the process environment
    /// (tests run in parallel threads that also read these variables).
    fn parse(v: Option<&str>, vm_supported: bool) -> Self {
        match v {
            Some("vm") | Some("traps") => {
                if vm_supported {
                    AccessMode::VmTraps
                } else {
                    AccessMode::Explicit
                }
            }
            Some("explicit") | None => AccessMode::Explicit,
            Some(v) => panic!(
                "invalid MUNIN_ACCESS_MODE={v:?}: expected \"vm\", \"traps\", or \"explicit\""
            ),
        }
    }
}

/// Configuration of a Munin run.
#[derive(Clone, Debug)]
pub struct MuninConfig {
    /// Number of nodes (processors). Each node runs one user (worker)
    /// thread; node 0 is the root.
    pub nodes: usize,
    /// Consistency-unit size in bytes (the prototype uses 8 KB pages).
    pub page_size: usize,
    /// Cost model of the simulated machine.
    pub cost: CostModel,
    /// When set, forces every shared variable to this annotation regardless
    /// of its declaration — used to reproduce the single-protocol comparison
    /// of Table 6.
    pub annotation_override: Option<SharingAnnotation>,
    /// Always [`CopysetStrategy::Broadcast`]; the field stays so
    /// configurations can still print it.
    pub copyset_strategy: CopysetStrategy,
    /// Event-engine configuration (schedule seed, delivery mode, fault
    /// injection). A failing run can be replayed by re-running with the same
    /// seed.
    pub engine: EngineConfig,
    /// How insufficient-rights accesses are detected (explicit software
    /// checks or real VM write traps). Defaults to `MUNIN_ACCESS_MODE` from
    /// the environment.
    pub access_mode: AccessMode,
    /// Always `true`: a release's updates ride the protocol traffic it sends
    /// anyway (barrier arrives and releases, lock grants, invalidation acks)
    /// through the carrier layer. The field stays so configurations can
    /// still spell it; [`MuninProgram::new`](crate::MuninProgram::new)
    /// rejects `false`, since the one-message-per-update path is gone.
    pub piggyback: bool,
    /// Whether the reliability layer (per-link message ids, cumulative acks,
    /// retransmission, duplicate suppression) wraps protocol traffic. `None`
    /// (the default) auto-enables it exactly when the engine injects message
    /// loss or crashes; `Some(_)` forces it either way (see
    /// [`Self::with_reliability`]).
    pub reliability: Option<bool>,
    /// Stall-watchdog window: when a blocked protocol operation (fetch, lock
    /// acquire, barrier, shutdown wait) sees no reply for this long, the
    /// runtime raises a structured [`StallReport`](crate::StallReport)
    /// instead of hanging. Defaults to [`DEFAULT_WATCHDOG`] (60 s).
    pub watchdog: Duration,
    /// Base wall-clock pacing of the reliability layer's retransmit timer;
    /// an unacked message is retransmitted after `pacing << attempts`
    /// (exponential backoff, capped). Tests drop this to ~1 ms so loss runs
    /// converge quickly.
    pub retransmit_pacing: Duration,
    /// Per-node flight-recorder capacity in events (the newest are kept;
    /// `0` disables event capture — the wait histograms stay on either
    /// way). Defaults to `MUNIN_FLIGHT_EVENTS` from the environment, else
    /// 256. Raised to at least [`TRACE_FLIGHT_EVENTS`] when `trace_out` is
    /// set so exported traces cover whole runs.
    pub flight_events: usize,
    /// When set, the run writes a Chrome-trace-event/Perfetto JSON file of
    /// every node's flight recorder to this path. Defaults to
    /// `MUNIN_TRACE_OUT` from the environment.
    pub trace_out: Option<String>,
    /// Failure-detection window (wall clock): a peer quiet for more than
    /// half of it is marked suspect, quiet for the whole of it is confirmed
    /// dead and degraded-mode recovery runs. `None` (the default) enables
    /// detection with [`DEFAULT_DETECT`] exactly when the engine's fault
    /// plan injects a crash, and disables it otherwise — so crash-free runs
    /// send no heartbeats and their delivery schedules stay byte-identical.
    pub detect: Option<Duration>,
    /// Largest update payload (modelled bytes) that may ride a barrier-relay
    /// carrier through the barrier owner. Relayed payloads transit the wire
    /// twice (flusher → owner → destination), so big payloads above this
    /// threshold are dispatched direct-to-destination as sequenced updates,
    /// fenced by the barrier arrive, instead. Defaults to
    /// [`DEFAULT_RELAY_MAX_BYTES`]; `0` sends every payload direct,
    /// `u64::MAX` restores the unconditional relay.
    pub relay_max_bytes: u64,
    /// Fan-in of the barrier tree. `Some(k)` arranges the nodes in a k-ary
    /// tree rooted at the barrier owner: arrivals combine up the tree (the
    /// owner receives at most `k` messages per episode) and releases fan
    /// back down the same edges. Any `k` of `nodes − 1` or more —
    /// `Some(usize::MAX)` is the conventional spelling — is the star in
    /// which every node reports straight to the owner. `None` (the default)
    /// resolves automatically: the star below [`TREE_BARRIER_AUTO_NODES`]
    /// nodes, [`DEFAULT_BARRIER_FANOUT`] at or above it.
    pub barrier_fanout: Option<usize>,
}

/// Reads `MUNIN_FLIGHT_EVENTS` (per-node flight-recorder capacity) from the
/// environment; unset yields the 256-event default. `0` disables event
/// capture.
///
/// # Panics
///
/// Panics when the variable is set but is not a non-negative event count —
/// a typo silently shrinking forensics capture defeats the point of asking.
pub fn flight_events_from_env() -> usize {
    match std::env::var("MUNIN_FLIGHT_EVENTS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => panic!(
                "invalid MUNIN_FLIGHT_EVENTS={v:?}: expected an event count \
                 (e.g. MUNIN_FLIGHT_EVENTS=4096, 0 to disable)"
            ),
        },
        Err(_) => DEFAULT_FLIGHT_EVENTS,
    }
}

/// Reads `MUNIN_TRACE_OUT` (Perfetto trace output path) from the
/// environment; unset or empty yields `None`.
pub fn trace_out_from_env() -> Option<String> {
    std::env::var("MUNIN_TRACE_OUT")
        .ok()
        .filter(|v| !v.is_empty())
}

/// Default stall-watchdog window.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(60);

/// Default per-node flight-recorder capacity (events).
pub const DEFAULT_FLIGHT_EVENTS: usize = 256;

/// Minimum per-node flight-recorder capacity when a trace export is
/// requested: a 256-event ring would wrap long before a run ends, leaving
/// the exported trace a keyhole view with dangling flow arrows.
pub const TRACE_FLIGHT_EVENTS: usize = 65_536;

/// Default wall-clock base pacing for reliability-layer retransmissions.
pub const DEFAULT_RETRANSMIT_PACING: Duration = Duration::from_millis(20);

/// Default failure-detection window, used when the fault plan injects a
/// crash but no explicit [`MuninConfig::with_detect`] window was given.
pub const DEFAULT_DETECT: Duration = Duration::from_secs(2);

/// Default relay size threshold (modelled payload bytes), tuned for 8 KB
/// pages: sub-page diffs ride the relay carriers, page-scale payloads go
/// direct and transit the wire once. Raising the threshold past the page
/// size trades bytes for messages; lowering it toward 0 saves bytes but
/// forfeits the relay's share of the message savings (the 16-node SOR
/// threshold sweep pinned in `tests/piggyback.rs`).
pub const DEFAULT_RELAY_MAX_BYTES: u64 = 512;

/// Barrier fan-in the auto policy picks for wide clusters. Eight keeps the
/// owner's per-episode ingress at 8 messages while holding the tree to
/// ⌈log₈ N⌉ hops (2 at 64 nodes, 3 at 256).
pub const DEFAULT_BARRIER_FANOUT: usize = 8;

/// Cluster size at which the auto policy's barrier fan-in changes from
/// `nodes − 1` (the star: one hop each way, O(N) ingress at the owner, cheap
/// while N is small) to [`DEFAULT_BARRIER_FANOUT`].
pub const TREE_BARRIER_AUTO_NODES: usize = 32;

impl MuninConfig {
    /// Configuration matching the paper's prototype: 8 KB objects and the
    /// SUN/Ethernet cost model.
    pub fn paper(nodes: usize) -> Self {
        MuninConfig {
            nodes,
            page_size: DEFAULT_PAGE_SIZE,
            cost: CostModel::sun_ethernet_1991(),
            annotation_override: None,
            copyset_strategy: CopysetStrategy::Broadcast,
            engine: EngineConfig::from_env(),
            access_mode: AccessMode::from_env(),
            piggyback: true,
            reliability: None,
            watchdog: DEFAULT_WATCHDOG,
            retransmit_pacing: DEFAULT_RETRANSMIT_PACING,
            flight_events: flight_events_from_env(),
            trace_out: trace_out_from_env(),
            detect: None,
            relay_max_bytes: DEFAULT_RELAY_MAX_BYTES,
            barrier_fanout: None,
        }
    }

    /// Small, fast configuration for tests: tiny pages and a cheap cost
    /// model so protocol behaviour (not simulated waiting) dominates.
    pub fn fast_test(nodes: usize) -> Self {
        MuninConfig {
            page_size: 64,
            cost: CostModel::fast_test(),
            ..Self::paper(nodes)
        }
    }

    /// Sets the consistency-unit size.
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Sets the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Forces every shared variable to one annotation (Table 6).
    pub fn with_annotation_override(mut self, annotation: SharingAnnotation) -> Self {
        self.annotation_override = Some(annotation);
        self
    }

    /// Sets the event-engine configuration (schedule seed, fault plan).
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the access-detection mode.
    pub fn with_access_mode(mut self, access_mode: AccessMode) -> Self {
        self.access_mode = access_mode;
        self
    }

    /// Sets [`MuninConfig::piggyback`]; only `true` is accepted.
    pub fn with_piggyback(mut self, piggyback: bool) -> Self {
        self.piggyback = piggyback;
        self
    }

    /// Forces the reliability layer on or off, overriding the auto policy
    /// (which enables it exactly when the engine injects message loss).
    pub fn with_reliability(mut self, reliability: bool) -> Self {
        self.reliability = Some(reliability);
        self
    }

    /// Sets the stall-watchdog window.
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Sets the base wall-clock pacing of the retransmit timer.
    pub fn with_retransmit_pacing(mut self, pacing: Duration) -> Self {
        self.retransmit_pacing = pacing;
        self
    }

    /// Sets the per-node flight-recorder capacity (0 disables events).
    pub fn with_flight_events(mut self, events: usize) -> Self {
        self.flight_events = events;
        self
    }

    /// Requests a Perfetto trace export to `path` at the end of the run.
    pub fn with_trace_out(mut self, path: impl Into<String>) -> Self {
        self.trace_out = Some(path.into());
        self
    }

    /// Sets the failure-detection window explicitly (detection then runs
    /// whether or not the fault plan injects a crash).
    pub fn with_detect(mut self, detect: Duration) -> Self {
        self.detect = Some(detect);
        self
    }

    /// Sets the relay size threshold (`0` sends every payload direct,
    /// `u64::MAX` restores the unconditional relay).
    pub fn with_relay_max_bytes(mut self, relay_max_bytes: u64) -> Self {
        self.relay_max_bytes = relay_max_bytes;
        self
    }

    /// Sets the barrier fan-in (`usize::MAX`, like any value of
    /// `nodes − 1` or more, selects the star regardless of cluster size).
    pub fn with_barrier_fanout(mut self, fanout: usize) -> Self {
        self.barrier_fanout = Some(fanout);
        self
    }

    /// Effective barrier fan-in, between 1 and `nodes − 1`. The explicit
    /// setting wins when one was given; the auto policy runs the star below
    /// [`TREE_BARRIER_AUTO_NODES`] nodes and [`DEFAULT_BARRIER_FANOUT`] at or
    /// above it.
    pub fn effective_barrier_fanout(&self) -> usize {
        let star = crate::sync::TreeTopology::star_fanout(self.nodes);
        match self.barrier_fanout {
            Some(k) => k.clamp(1, star),
            None if self.nodes >= TREE_BARRIER_AUTO_NODES => DEFAULT_BARRIER_FANOUT,
            None => star,
        }
    }

    /// Effective failure-detection window: the explicit window when one was
    /// set, else [`DEFAULT_DETECT`] when the engine's fault plan injects a
    /// crash, else `None` (detection off — no heartbeats, no timers, so
    /// crash-free schedules stay byte-identical to earlier releases).
    pub fn detection(&self) -> Option<Duration> {
        match self.detect {
            Some(d) => Some(d),
            None if !self.engine.faults.crash.is_none() => Some(DEFAULT_DETECT),
            None => None,
        }
    }

    /// Effective flight-recorder capacity: the configured capacity, raised
    /// to [`TRACE_FLIGHT_EVENTS`] when a trace export is requested.
    pub fn effective_flight_events(&self) -> usize {
        if self.trace_out.is_some() {
            self.flight_events.max(TRACE_FLIGHT_EVENTS)
        } else {
            self.flight_events
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_uses_8k_pages() {
        let cfg = MuninConfig::paper(16);
        assert_eq!(cfg.page_size, 8192);
        assert_eq!(cfg.nodes, 16);
        assert!(cfg.annotation_override.is_none());
        assert_eq!(cfg.copyset_strategy, CopysetStrategy::Broadcast);
        assert_eq!(cfg.watchdog, DEFAULT_WATCHDOG);
        assert_eq!(cfg.detect, None);
        assert_eq!(cfg.relay_max_bytes, DEFAULT_RELAY_MAX_BYTES);
        assert_eq!(cfg.barrier_fanout, None);
    }

    #[test]
    fn builders_compose() {
        let cfg = MuninConfig::fast_test(4)
            .with_page_size(128)
            .with_annotation_override(SharingAnnotation::Conventional);
        assert_eq!(cfg.page_size, 128);
        assert_eq!(
            cfg.annotation_override,
            Some(SharingAnnotation::Conventional)
        );
    }

    #[test]
    fn detection_follows_the_crash_plan_unless_explicit() {
        use munin_sim::{CrashSpec, CrashTrigger};

        let cfg = MuninConfig::fast_test(4);
        assert_eq!(cfg.detection(), None, "no crash plan, no detection");

        let crashy = MuninConfig::fast_test(4).with_engine(EngineConfig {
            faults: munin_sim::FaultPlan::none().with_crash(CrashSpec {
                node: 2,
                trigger: CrashTrigger::VirtTime(1_000),
                until_ns: 0,
            }),
            ..EngineConfig::default()
        });
        assert_eq!(crashy.detection(), Some(DEFAULT_DETECT));

        let explicit = MuninConfig::fast_test(4).with_detect(Duration::from_millis(300));
        assert_eq!(explicit.detection(), Some(Duration::from_millis(300)));
    }

    #[test]
    fn access_mode_parses_strictly_and_downgrades_cleanly() {
        assert_eq!(AccessMode::parse(None, true), AccessMode::Explicit);
        assert_eq!(
            AccessMode::parse(Some("explicit"), true),
            AccessMode::Explicit
        );
        assert_eq!(AccessMode::parse(Some("vm"), true), AccessMode::VmTraps);
        assert_eq!(AccessMode::parse(Some("traps"), true), AccessMode::VmTraps);
        // `vm` on an unsupported platform still skips cleanly to the
        // explicit checks rather than erroring the whole suite.
        assert_eq!(AccessMode::parse(Some("vm"), false), AccessMode::Explicit);
    }

    #[test]
    #[should_panic(expected = "invalid MUNIN_ACCESS_MODE=\"hardware\"")]
    fn access_mode_rejects_unknown_values() {
        AccessMode::parse(Some("hardware"), true);
    }

    #[test]
    fn barrier_fanout_auto_policy_runs_the_star_on_small_clusters() {
        let mut small = MuninConfig::fast_test(16);
        small.barrier_fanout = None;
        assert_eq!(small.effective_barrier_fanout(), 15);

        let mut wide = MuninConfig::fast_test(TREE_BARRIER_AUTO_NODES);
        wide.barrier_fanout = None;
        assert_eq!(wide.effective_barrier_fanout(), DEFAULT_BARRIER_FANOUT);

        // `usize::MAX` (like anything else at or past nodes - 1) is the star.
        let star = MuninConfig::fast_test(64).with_barrier_fanout(usize::MAX);
        assert_eq!(star.effective_barrier_fanout(), 63);
        let tree = MuninConfig::fast_test(8).with_barrier_fanout(4);
        assert_eq!(tree.effective_barrier_fanout(), 4);
        // One and two nodes have only one shape.
        for nodes in [1, 2] {
            let cfg = MuninConfig::fast_test(nodes).with_barrier_fanout(8);
            assert_eq!(cfg.effective_barrier_fanout(), 1);
        }
    }

    #[test]
    fn trace_out_raises_flight_capacity() {
        let cfg = MuninConfig::fast_test(2).with_flight_events(8);
        assert_eq!(cfg.effective_flight_events(), 8);
        let cfg = cfg.with_trace_out("/tmp/trace.json");
        assert_eq!(cfg.effective_flight_events(), TRACE_FLIGHT_EVENTS);
    }
}
