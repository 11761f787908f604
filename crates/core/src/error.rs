//! Error type for the Munin DSM runtime.
//!
//! Munin's sharing annotations are not type-checked: the paper states that
//! "incorrect annotations may result in inefficient performance or in runtime
//! errors that are detected by the Munin runtime system". Those detected
//! runtime errors are the interesting variants here.

use std::fmt;
use std::time::Duration;

use munin_sim::{NodeId, SimError};

use crate::object::ObjectId;

/// Structured diagnosis of a protocol stall, produced by the watchdog when a
/// blocked user thread saw no protocol progress for the configured window
/// (see `MuninConfig::watchdog`). Everything a post-mortem needs: who was
/// blocked, on what operation, on which object or synchronization id, for how
/// long, what the reliability layer still had in flight, and how far each
/// destination's delivery schedule had progressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The stalled node.
    pub node: NodeId,
    /// The blocked protocol operation (e.g. `"fetch"`, `"lock_acquire"`,
    /// `"barrier"`).
    pub op: &'static str,
    /// The object the operation was about, when it concerns one.
    pub object: Option<ObjectId>,
    /// The lock or barrier id, when the operation concerns one.
    pub sync_id: Option<u32>,
    /// How long (wall clock) the thread waited before giving up.
    pub waited: Duration,
    /// Reliability-layer messages still unacknowledged, as
    /// `(destination index, count)` pairs (empty when the transport is off).
    pub unacked: Vec<(usize, u64)>,
    /// Requests parked in the service loop's deferred queue.
    pub deferred: usize,
    /// Peers the failure detector currently holds suspect or dead (empty
    /// when detection is disabled), as node indexes.
    pub suspected: Vec<usize>,
    /// Per-destination delivery frontier in nanoseconds of virtual time, as
    /// `(destination index, frontier_ns)` pairs.
    pub frontiers: Vec<(usize, u64)>,
    /// Flight-recorder forensics: the last few recorded events of each
    /// node, rendered, as `(node index, events oldest → newest)` pairs.
    /// When the report is raised it holds only the stalled node's tail; the
    /// run driver extends it to every node before returning the error.
    /// Empty when event capture is disabled (`MUNIN_FLIGHT_EVENTS=0`).
    pub last_events: Vec<(usize, Vec<String>)>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {:?} made no protocol progress for {:?} while blocked in `{}`",
            self.node, self.waited, self.op
        )?;
        if let Some(o) = self.object {
            write!(f, " on object {o:?}")?;
        }
        if let Some(id) = self.sync_id {
            write!(f, " (sync id {id})")?;
        }
        write!(f, "; deferred requests: {}", self.deferred)?;
        if !self.suspected.is_empty() {
            write!(f, "; suspected peers:")?;
            for n in &self.suspected {
                write!(f, " N{n}")?;
            }
        }
        if !self.unacked.is_empty() {
            write!(f, "; unacked:")?;
            for (dst, n) in &self.unacked {
                write!(f, " →N{dst}:{n}")?;
            }
        }
        write!(f, "; delivery frontiers (ns):")?;
        for (dst, ns) in &self.frontiers {
            write!(f, " N{dst}@{ns}")?;
        }
        for (node, events) in &self.last_events {
            write!(f, "\n  last events N{node}:")?;
            if events.is_empty() {
                write!(f, " (none recorded)")?;
            }
            for ev in events {
                write!(f, "\n    {ev}")?;
            }
        }
        Ok(())
    }
}

/// Errors raised by the Munin runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuninError {
    /// A thread attempted to write to an object annotated `read_only`.
    ReadOnlyWrite(ObjectId),
    /// A shared-variable access was out of bounds.
    OutOfBounds {
        /// The variable that was accessed.
        var: &'static str,
        /// The element index requested.
        index: usize,
        /// The number of elements in the variable.
        len: usize,
    },
    /// A reduction (`Fetch_and_Φ`) operation was applied to an object whose
    /// annotation is not `reduction`.
    NotAReductionObject(ObjectId),
    /// The requested lock or barrier does not exist.
    UnknownSyncObject(u32),
    /// A lock was released by a node that does not hold it.
    LockNotHeld(u32),
    /// The VM-trap access mode was requested but is unavailable (unsupported
    /// platform) or its memory region could not be set up; the payload names
    /// the failing step.
    VmUnavailable(&'static str),
    /// The underlying simulated network failed.
    Sim(SimError),
    /// The runtime received a reply it cannot correlate with a request.
    ProtocolViolation(&'static str),
    /// The stall watchdog fired: a blocked protocol operation made no
    /// progress for the configured window. Boxed: the report is large and
    /// stalls are the exceptional path.
    Stalled(Box<StallReport>),
    /// A peer was confirmed dead and a blocked operation could not be
    /// recovered: the sole surviving copy of the listed objects died with
    /// it, or the operation's fixed home (lock home, barrier owner,
    /// reduction home, the root) was the dead node. `lost_objects` is empty
    /// when the loss is a sync-object home rather than data.
    NodeDown {
        /// The dead node.
        node: NodeId,
        /// Objects whose only copy died with the node.
        lost_objects: Vec<ObjectId>,
    },
    /// Internal control-flow signal: the failure detector confirmed a peer
    /// dead while a protocol operation was blocked. Blocked call sites catch
    /// it, recompute their expectations against the shrunken cluster, and
    /// either continue or escalate to [`MuninError::NodeDown`]. Never
    /// returned from the public API.
    PeerDied(NodeId),
}

impl fmt::Display for MuninError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MuninError::ReadOnlyWrite(o) => {
                write!(f, "runtime error: write to read_only object {o:?}")
            }
            MuninError::OutOfBounds { var, index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for shared variable `{var}` of length {len}"
                )
            }
            MuninError::NotAReductionObject(o) => {
                write!(f, "Fetch_and_Φ applied to non-reduction object {o:?}")
            }
            MuninError::UnknownSyncObject(id) => write!(f, "unknown synchronization object {id}"),
            MuninError::LockNotHeld(id) => write!(f, "lock {id} released but not held"),
            MuninError::VmUnavailable(what) => {
                write!(f, "VM-trap access mode unavailable: {what}")
            }
            MuninError::Sim(e) => write!(f, "simulation error: {e}"),
            MuninError::ProtocolViolation(what) => write!(f, "protocol violation: {what}"),
            MuninError::Stalled(report) => write!(f, "protocol stall: {report}"),
            MuninError::NodeDown { node, lost_objects } => {
                write!(f, "node {:?} is down", node)?;
                if !lost_objects.is_empty() {
                    write!(f, "; sole copy of objects lost:")?;
                    for o in lost_objects {
                        write!(f, " {o:?}")?;
                    }
                }
                Ok(())
            }
            MuninError::PeerDied(node) => {
                write!(f, "internal: peer {:?} confirmed dead mid-wait", node)
            }
        }
    }
}

impl std::error::Error for MuninError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MuninError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for MuninError {
    fn from(e: SimError) -> Self {
        MuninError::Sim(e)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MuninError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_relevant_entity() {
        let e = MuninError::OutOfBounds {
            var: "matrix",
            index: 12,
            len: 10,
        };
        let s = e.to_string();
        assert!(s.contains("matrix") && s.contains("12") && s.contains("10"));
        assert!(MuninError::ReadOnlyWrite(ObjectId::new(3))
            .to_string()
            .contains("read_only"));
    }

    #[test]
    fn sim_errors_convert() {
        let e: MuninError = SimError::Disconnected.into();
        assert_eq!(e, MuninError::Sim(SimError::Disconnected));
    }
}
