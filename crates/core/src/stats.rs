//! Per-node runtime statistics.
//!
//! The paper's qualitative analysis is phrased in terms of data motion and
//! overhead sources (access misses, twin copies, encode/decode work, messages
//! for copyset determination). These counters make the same quantities
//! observable in the reproduction and are asserted on by the integration
//! tests and printed by the benchmark harnesses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! counters {
    ($(#[$struct_doc:meta])* $name:ident, $snap:ident { $($(#[$doc:meta])* $field:ident),+ $(,)? }) => {
        $(#[$struct_doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            $( $(#[$doc])* pub $field: AtomicU64, )+
        }

        impl $name {
            /// Creates a zeroed counter block behind an `Arc` so the user
            /// thread and the runtime service thread can share it.
            pub fn new() -> Arc<Self> {
                Arc::new(Self::default())
            }

            /// Takes an owned snapshot of the counters.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $field: self.$field.load(Ordering::Relaxed), )+
                }
            }
        }

        /// Owned snapshot of the corresponding counter block.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[$doc])* pub $field: u64, )+
        }

        impl $snap {
            /// Field-wise sum of two snapshots.
            pub fn merge(&self, other: &$snap) -> $snap {
                $snap {
                    $( $field: self.$field + other.$field, )+
                }
            }
        }
    };
}

counters! {
    /// Counters maintained by one node's Munin runtime.
    MuninStats, MuninStatsSnapshot {
        /// Read access faults taken by the local user thread.
        read_faults,
        /// Write access faults taken by the local user thread.
        write_faults,
        /// Twins created (first write to a multiple-writer object since the
        /// last flush).
        twins_created,
        /// Hardware write traps taken (`AccessMode::VmTraps` only): SIGSEGV
        /// faults on a write touch, routed to `write_fault`. Equals
        /// `write_faults` except for the transient-window re-trap cases
        /// documented in DESIGN.md ("VM-trap access mode").
        vm_write_traps,
        /// Hardware read traps taken (`AccessMode::VmTraps` only): SIGSEGV
        /// faults on a read touch, routed to `read_fault`.
        vm_read_traps,
        /// Objects fetched from remote nodes (read or write misses).
        objects_fetched,
        /// Bytes of object data received from remote nodes.
        fetch_bytes,
        /// Update messages sent at DUQ flushes (or eagerly).
        updates_sent,
        /// Bytes of encoded diffs / object images sent in updates.
        update_bytes_sent,
        /// Diffs (or full-object updates) applied to local copies.
        updates_applied,
        /// Invalidation messages sent.
        invalidations_sent,
        /// Invalidations received and applied.
        invalidations_received,
        /// DUQ flushes performed (releases and barrier arrivals).
        duq_flushes,
        /// Objects drained from the DUQ across all flushes.
        duq_objects_flushed,
        /// Copyset determination rounds performed (one per flush that had
        /// objects needing determination), regardless of strategy — the
        /// broadcast and owner-collected strategies count identically here,
        /// so their message economy is compared via `copyset_query_msgs`.
        copyset_queries,
        /// Copyset query messages actually sent (broadcast: one per peer per
        /// round; owner-collected: one per distinct remote owner per round).
        copyset_query_msgs,
        /// Update re-sends to copyset members the flusher's determination
        /// missed but the object's owner had recorded (see
        /// `DsmMsg::UpdateAck::owned_copysets`).
        updates_healed,
        /// Update/ack bundles that travelled piggybacked on another protocol
        /// message (lock grant, barrier arrive/release, copyset reply,
        /// update ack, invalidate ack) instead of as standalone messages —
        /// each counts one wire message the carrier layer avoided.
        msgs_piggybacked,
        /// Always 0 since PR 18 (the `Flush()` hint sends at once; there is
        /// no coalescing window left to count). `benchmark/src/block.rs`
        /// still reads the field: dropped with the next no-claim benchmark
        /// PR.
        flushes_coalesced,
        /// Payload bytes the adaptive relay sent direct-to-destination
        /// instead of through a barrier-relay carrier because they exceeded
        /// `MuninConfig::relay_max_bytes` — each byte counted here transited
        /// the wire once instead of twice.
        relay_bypassed_bytes,
        /// Update bundles this node re-fanned to other copyset members as
        /// the receiving owner of an owner-cooperative relay
        /// (`Route::OwnerFanout`).
        owner_refans,
        /// Lock acquires performed by the local user thread.
        lock_acquires,
        /// Lock acquires satisfied locally without any message.
        lock_local_acquires,
        /// Lock protocol messages sent (acquire/forward/grant).
        lock_messages,
        /// Barrier waits performed by the local user thread.
        barrier_waits,
        /// `BarrierArrive` reports this node received as a barrier owner: one
        /// per episode from each of its children in the barrier's tree, so
        /// the fan-in k — N − 1 in the star. The scaling tests assert on
        /// exactly this counter.
        barrier_owner_ingress,
        /// Fetch-and-Φ operations performed on reduction objects.
        reductions,
        /// Runtime errors detected (e.g. writes to read-only objects).
        runtime_errors,
        /// Reliability-layer retransmissions of unacknowledged messages.
        retransmits,
        /// Standalone `NetAck` messages sent (acks that could not ride an
        /// outgoing protocol message).
        net_acks_sent,
        /// Duplicate deliveries discarded by the reliability layer before
        /// dispatch (message id below the cumulative receive frontier).
        dup_msgs_dropped,
        /// Stall-watchdog reports raised for blocked protocol operations.
        watchdog_stalls,
        /// Peers the failure detector marked suspect (quiet for more than
        /// half the detection window, or the retransmit-attempt cap fired).
        peers_suspected,
        /// Peers confirmed dead (quiet for the full detection window, or a
        /// `PeerDown` was received from another detector).
        peers_dead,
        /// Directory entries whose copyset had a confirmed-dead node pruned
        /// (the paper's update-timeout replica-pruning analog).
        copysets_pruned,
        /// Orphaned objects deterministically re-homed to (or adopted by)
        /// the lowest-id surviving replica holder after an owner died.
        objects_rehomed,
        /// Heartbeat probes sent by the failure detector.
        heartbeats_sent,
    }
}

/// Increments an atomic counter by one.
pub fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Adds `n` to an atomic counter.
pub fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let stats = MuninStats::new();
        bump(&stats.read_faults);
        bump(&stats.read_faults);
        add(&stats.fetch_bytes, 100);
        let snap = stats.snapshot();
        assert_eq!(snap.read_faults, 2);
        assert_eq!(snap.fetch_bytes, 100);
        assert_eq!(snap.write_faults, 0);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let a = MuninStatsSnapshot {
            read_faults: 1,
            updates_sent: 5,
            ..Default::default()
        };
        let b = MuninStatsSnapshot {
            read_faults: 2,
            lock_acquires: 3,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.read_faults, 3);
        assert_eq!(m.updates_sent, 5);
        assert_eq!(m.lock_acquires, 3);
    }

    #[test]
    fn stats_are_shareable_across_threads() {
        let stats = MuninStats::new();
        let s2 = Arc::clone(&stats);
        std::thread::spawn(move || bump(&s2.write_faults))
            .join()
            .unwrap();
        assert_eq!(stats.snapshot().write_faults, 1);
    }
}
