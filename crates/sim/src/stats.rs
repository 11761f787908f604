//! Network and per-node statistics.
//!
//! The paper's analysis leans heavily on *message counts* and *data motion*
//! ("after the first iteration there is only one message exchange between
//! adjacent sections per iteration", "each worker transmits only a single
//! result message back to the root"). The simulator therefore tracks every
//! message and its modelled size, broken down by message class.

use std::collections::BTreeMap;

use crate::time::VirtTime;

/// Counters for one message class (e.g. `"object_reply"` or `"update"`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Number of messages of this class.
    pub msgs: u64,
    /// Total modelled payload bytes of this class.
    pub bytes: u64,
}

/// The wire statistics of a run: every message the event engine scheduled
/// for delivery, counted once, in the destination's shard
/// ([`crate::EventEngine::net`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Totals across all classes.
    pub total: ClassStats,
    /// Per-class counters, ordered by class name.
    pub by_class: BTreeMap<&'static str, ClassStats>,
}

impl NetSnapshot {
    /// Counters for a single class (zero if the class never occurred).
    pub fn class(&self, class: &str) -> ClassStats {
        self.by_class.get(class).copied().unwrap_or_default()
    }
}

/// Virtual-time accounting for a single node at the end of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTimes {
    /// Node index.
    pub node: usize,
    /// Final value of the node clock.
    pub total: VirtTime,
    /// Time charged to application computation.
    pub user: VirtTime,
    /// Time charged to runtime (Munin or message-passing library) code.
    pub system: VirtTime,
    /// Time spent blocked waiting for messages, locks, or barriers.
    pub wait: VirtTime,
}
