//! The DSM wire protocol.
//!
//! These are the messages the Munin nodes exchange: object fetches and
//! replies, invalidations, delayed-update propagation, orphan recovery's
//! copyset queries, `Fetch_and_Φ` requests for reduction objects, the distributed
//! queue-based lock and barrier traffic, and program-control messages.
//!
//! Every message also carries a modelled wire size (computed by
//! [`DsmMsg::model_bytes`]) which drives the simulated transmission time.

use munin_sim::NodeId;

use crate::copyset::CopySet;
use crate::diff::Diff;
use crate::nodeset::NodeSet;
use crate::object::ObjectId;
use crate::sync::{BarrierId, LockId};

/// Whether a fetch wants a readable copy or a writable copy (with ownership,
/// for the ownership-based protocols).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchKind {
    /// A readable replica is sufficient.
    Read,
    /// The faulting thread intends to write; ownership must transfer for
    /// single-writer protocols.
    Write,
}

/// Payload of one object inside an update message: either a run-length
/// encoded diff against the twin, or the complete object contents.
///
/// The diff variant carries the flat wire-format buffer behind an
/// `Arc<[u8]>` (see [`crate::diff::Diff`]), so cloning the payload for each
/// destination of a flush fan-out shares one encoding instead of deep-
/// copying run vectors.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdatePayload {
    /// Flat word diff produced by [`crate::diff::DiffScratch::encode`].
    Diff(Diff),
    /// The full object image (used when no twin exists).
    Full(Vec<u8>),
}

impl UpdatePayload {
    /// Modelled wire size of the payload in bytes.
    pub fn model_bytes(&self) -> u64 {
        match self {
            UpdatePayload::Diff(d) => d.encoded_bytes() as u64,
            UpdatePayload::Full(data) => data.len() as u64,
        }
    }
}

/// One object's worth of changes inside an update message.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateItem {
    /// The object being updated.
    pub object: ObjectId,
    /// The changes.
    pub payload: UpdatePayload,
}

/// How an [`UpdateBundle`] travels and what its receiver owes for it. The
/// route decides the wire class, the bundle's framing bytes, whether the
/// receiver checks the bundle against the origin's sequence stream, and who
/// is acknowledged (`DESIGN.md`, "Carrier layer", has the table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// A standalone update the receiver acknowledges to `origin` (release
    /// consistency makes the releaser wait until its updates are performed).
    DirectAcked,
    /// A standalone update no acknowledgement answers, because a later
    /// message is its visibility point: the `BarrierRelease` carrying the
    /// next slot of its stream (a barrier flush's over-threshold payload).
    DirectUnacked,
    /// Owner-cooperative fan-out: a flusher's non-owned bundle, sent whole to
    /// the objects' (probable) owner, which installs it and re-fans to its
    /// authoritative copyset ([`Route::OwnerForward`]).
    OwnerFanout {
        /// `None`: a standalone message, answered with an
        /// [`DsmMsg::UpdateAck`] naming its re-fans. `Some(b)`: it rode the
        /// flusher's `BarrierArrive` at barrier `b`, whose owner the receiver
        /// is; its re-fans ride `b`'s releases and nobody is answered. The id
        /// costs the wire nothing: the frame it rides names the barrier.
        ride: Option<BarrierId>,
    },
    /// The owner's re-fan of a fan-out bundle to one copyset member. `seq`
    /// is the originating fan-out's, carried for trace correlation only:
    /// forwards hold no slot of any update stream. A standalone forward
    /// (`framed: false`) is acknowledged to `origin`, whose release the
    /// update belongs to, not to the sender; one `framed` by the member's
    /// `BarrierRelease` is installed before that release is routed and
    /// acknowledged to nobody.
    OwnerForward {
        /// Whether it rides a barrier release.
        framed: bool,
    },
    /// Riding a carrier frame (or parked at a barrier owner on its way to
    /// one): installed before the framed message is dispatched, never
    /// acknowledged.
    Carried,
    /// Data associated with a synchronization object
    /// (`AssociateDataAndSynch` payloads on a lock grant): the items are
    /// *installed* — full images written even where no local copy exists,
    /// with the migratory ownership handover applied — and ordered by the
    /// lock token they travel with, so `seq` is unused.
    SyncInstall,
}

/// One node's changes to a set of objects, headed for one receiver: the
/// payload of a standalone [`DsmMsg::Update`], the element of a carrier's
/// piggybacked `updates`, and — paired with a destination — of its `relay`
/// list.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateBundle {
    /// The node whose flush produced the changes; names the sequence stream
    /// and receives whatever acknowledgement the route calls for.
    pub origin: NodeId,
    /// Position in the `origin` → receiver *update sequence stream*. Every
    /// update-bearing transmission between a pair of nodes carries one
    /// consecutive number; the receiver applies strictly in sequence,
    /// deferring early arrivals and dropping stale ones. This is what keeps
    /// a relayed bundle (which travels flusher → barrier owner →
    /// destination, a *different link* than a direct update) from being
    /// applied after a newer direct update it cannot be FIFO-ordered
    /// against.
    pub seq: u64,
    /// The changes, one entry per object, in application order.
    pub items: Vec<UpdateItem>,
    /// How the bundle travels.
    pub route: Route,
}

impl UpdateBundle {
    /// Modelled size of the bundle: an 8-byte descriptor per item plus the
    /// payloads, and for every route but the bare direct update an 8-byte
    /// origin + stream-slot header.
    pub fn model_bytes(&self) -> u64 {
        let header = match self.route {
            Route::DirectAcked | Route::DirectUnacked => 0,
            _ => 8,
        };
        let items: u64 = self.items.iter().map(|i| 8 + i.payload.model_bytes()).sum();
        header + items
    }
}

/// A `Fetch_and_Φ` operation on a reduction object, executed atomically at
/// the object's fixed owner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReduceOp {
    /// Return the current value without modifying it.
    Read,
    /// Fetch-and-add on a 64-bit signed integer element.
    AddI64(i64),
    /// Fetch-and-min on a 64-bit signed integer element.
    MinI64(i64),
}

/// Which of a node's self-timers fired (see [`DsmMsg::Timer`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// The reliability layer's retransmit/ack-flush tick.
    Retransmit,
    /// The failure detector's periodic tick: on firing, the node sends
    /// [`DsmMsg::Heartbeat`]s and re-arms. Only scheduled when failure
    /// detection is enabled (see `MuninConfig::detect`), so zero-crash runs
    /// carry no health traffic.
    Health,
}

/// Messages exchanged by Munin nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum DsmMsg {
    /// Request a copy of a *run* of objects (forwarded whole along the
    /// first object's probable-owner chain until it reaches that object's
    /// owner, which replies directly to the requester).
    ObjectFetch(FetchRequest),
    /// Reply to an [`DsmMsg::ObjectFetch`], carrying the contents of a
    /// non-empty prefix of the requested run: as many objects, from the
    /// first on, as the owner could hand out as plain non-owning copies — or
    /// the first object alone when serving it moves ownership.
    ObjectData {
        /// The first object of the run.
        object: ObjectId,
        /// Contents of `object`, `object + 1`, … in order. An *empty* image
        /// carries no bytes: "all zeros, as long as your table says" from an
        /// owner that never materialised the object (it knows the contents
        /// without looking), or "yours to overwrite" for an object the
        /// request asked to elide. It costs the wire the object's framing or
        /// descriptor, nothing more.
        data: Vec<Vec<u8>>,
        /// Whether ownership is transferred to the requester (one-object
        /// replies only).
        ownership: bool,
        /// Copyset handed over together with ownership (nodes the new owner
        /// must invalidate or update).
        copyset: CopySet,
        /// Whether the requester may map the copy writable immediately.
        writable: bool,
    },
    /// Invalidate the local copy of `object` and acknowledge to `requester`.
    Invalidate {
        /// The object to invalidate.
        object: ObjectId,
        /// Node awaiting the acknowledgement.
        requester: NodeId,
    },
    /// Acknowledgement of an [`DsmMsg::Invalidate`].
    InvalidateAck {
        /// The invalidated object.
        object: ObjectId,
    },
    /// Propagation of pending changes (a DUQ flush, the flush-to-owner of a
    /// `result` object, an owner-cooperative fan-out or its re-fan): one
    /// [`UpdateBundle`], whose [`Route`] says what the receiver does with it.
    Update(UpdateBundle),
    /// Acknowledgement of an [`DsmMsg::Update`] that calls for one: a direct
    /// update, a standalone forward, or a standalone fan-out — the owner's
    /// reply to which names the destinations it re-fanned the bundle to.
    UpdateAck {
        /// `Some` on the owner's reply to a standalone fan-out alone: its
        /// re-fan destinations, each of which acknowledges the origin itself
        /// (`None`); the origin waits for one such ack from each before its
        /// release completes. The marker costs no byte (an ack's kind is in
        /// its header), so the two kinds can never be mistaken for one
        /// another at an origin that is owed both by one node.
        refanned: Option<Vec<NodeId>>,
    },
    /// "Which of these objects do you hold a copy of?" — the prototype's
    /// broadcast copyset query ("each node replies with the subset of these
    /// objects for which it has a copy"), which orphan recovery sends to
    /// every surviving peer to find the holders of an object whose owner
    /// died. A flush never sends it: the owner's copyset is authoritative.
    CopysetQuery {
        /// The objects asked about. Behind `Arc` so the broadcast to every
        /// peer shares one allocation instead of cloning the list per peer.
        objects: std::sync::Arc<[ObjectId]>,
        /// Node awaiting the replies.
        requester: NodeId,
    },
    /// Reply to a [`DsmMsg::CopysetQuery`].
    CopysetReply {
        /// Subset of the queried objects this node holds a copy of.
        have: Vec<ObjectId>,
    },
    /// A `Fetch_and_Φ` on a reduction object, executed at its fixed owner.
    ReduceRequest {
        /// The reduction object.
        object: ObjectId,
        /// Byte offset of the element within the object.
        offset: usize,
        /// The operation.
        op: ReduceOp,
        /// Node awaiting the old value.
        requester: NodeId,
    },
    /// Reply to a [`DsmMsg::ReduceRequest`], carrying the element's previous
    /// value (raw little-endian bytes).
    ReduceReply {
        /// Previous value of the element.
        old: Vec<u8>,
    },
    /// Request ownership of a lock (forwarded along the probable-owner
    /// chain).
    LockAcquire {
        /// The lock.
        lock: LockId,
        /// Requesting node.
        requester: NodeId,
    },
    /// Grant of lock ownership to a requester. Consistency data associated
    /// with the lock (`AssociateDataAndSynch`) travels as a
    /// [`Route::SyncInstall`] bundle on a [`DsmMsg::Carrier`] framing this
    /// grant.
    LockGrant {
        /// The lock.
        lock: LockId,
        /// Waiting requesters handed over with ownership (the distributed
        /// queue travels with the lock).
        queue: Vec<NodeId>,
    },
    /// A node's report up its barrier's tree (see
    /// [`crate::sync::TreeTopology`]): every member of `arrived` has reached
    /// the barrier. Sent to the node's live parent once its own thread and
    /// everyone live below it have arrived.
    BarrierArrive {
        /// The barrier.
        barrier: BarrierId,
        /// The reporting node.
        from: NodeId,
        /// The episode the report belongs to: the sender's completed-episode
        /// count plus one. A receiver already released from that episode
        /// answers with a direct [`DsmMsg::BarrierRelease`] instead of
        /// re-counting. Like [`DsmMsg::ObjectFetch`]'s `phase`, not charged
        /// in [`DsmMsg::model_bytes`]: it is only ever compared with the
        /// receiver's `completed` and `completed + 1`, which a few bits of
        /// the fixed header carry.
        gen: u64,
        /// Every node below the sender known to have arrived, the sender
        /// included. A set, not a count, so re-sends after a re-parent merge
        /// idempotently at the new parent. A leaf's set is just `from`, and
        /// then no bitmap travels.
        arrived: NodeSet,
    },
    /// The release of a barrier episode, passed down the edges the reports
    /// came up. Each node forwards it to its children and then wakes its own
    /// user thread.
    BarrierRelease {
        /// The barrier.
        barrier: BarrierId,
        /// The episode being released; duplicates for completed episodes are
        /// dropped. Not charged, for the reason `BarrierArrive::gen` is not.
        gen: u64,
    },
    /// A worker's user thread finished its work (sent to the root).
    WorkerDone {
        /// The finished node.
        from: NodeId,
    },
    /// The root tells every node to shut down its runtime service loop.
    Shutdown,
    /// The carrier envelope: frames any other message together with
    /// piggybacked consistency traffic, so a lock grant, barrier release,
    /// copyset reply, or update acknowledgement that is headed to a
    /// destination anyway can also deliver the updates queued for it —
    /// one wire message instead of several.
    ///
    /// A bundle that cannot be installed yet re-queues as itself (a
    /// [`DsmMsg::Update`]), or with its whole carrier when the framed message
    /// must wait for it, so there is no empty frame. Carriers are never
    /// nested.
    Carrier {
        /// The framed message, dispatched after the payload is installed.
        inner: Box<DsmMsg>,
        /// Piggybacked update bundles destined for the receiver.
        updates: Vec<UpdateBundle>,
        /// Flush bundles riding barrier traffic towards the barrier owner,
        /// each with the copyset member it must reach on the matching
        /// release (empty on every other carrier). Two kinds of flush travel
        /// this way (see `DESIGN.md`, "Carrier layer"), each with its own
        /// safety argument: *owner-flushed* fan-out updates (the flusher
        /// serves all fetches for those objects from live memory, so a copy
        /// that missed the relayed update is impossible) and *`result`-object
        /// flushes homed at the barrier owner* (the owner installs the
        /// bundle before counting the arrival, which is at least as early as
        /// the legacy apply-then-ack).
        relay: Vec<(NodeId, UpdateBundle)>,
    },
    /// The reliability-layer frame: any protocol message wrapped with a
    /// per-(source, destination) message id and a piggybacked cumulative
    /// acknowledgement of the reverse lane (see `DESIGN.md`, "Reliability
    /// layer"). The receiver delivers each id exactly once, in order, so
    /// every handler behind this frame is idempotent under retransmission
    /// by construction. Reliable frames are never nested.
    Reliable {
        /// Position in the sender → receiver reliable-message stream
        /// (ids start at 1 and are consecutive per lane).
        id: u64,
        /// Cumulative acknowledgement: every receiver → sender message with
        /// id ≤ `ack` has been delivered (0 = nothing yet). Riding every
        /// wrapped message keeps standalone ack traffic near zero.
        ack: u64,
        /// The framed protocol message.
        inner: Box<DsmMsg>,
    },
    /// A standalone cumulative acknowledgement, sent when the receiver owes
    /// acks but has no reverse traffic to piggyback them on (delayed-ack
    /// flush), or immediately upon receiving a duplicate (retransmit quench).
    NetAck {
        /// Every message with id ≤ `upto` on the sender's lane has been
        /// delivered.
        upto: u64,
    },
    /// A timer this node set for itself. Never on the wire: it is the payload
    /// of a virtual-time timer event the service loop schedules.
    Timer(TimerKind),
    /// An "I am alive" probe. Sent *unreliably* (never wrapped in a
    /// [`DsmMsg::Reliable`] frame): a heartbeat that needed retransmission
    /// would defeat its purpose, and a lost one is replaced by the next.
    Heartbeat,
    /// Failure-detector gossip: the sender has confirmed `node` dead (no
    /// traffic for the full detection window, or the retransmit cap fired
    /// and the suspicion aged out). Receivers mark the peer dead and run
    /// their local degraded-mode recovery; they do not re-broadcast.
    PeerDown {
        /// The dead node.
        node: NodeId,
    },
    /// Degraded-mode orphan re-homing: the sender (a node that lost a fetch
    /// to a dead owner) asks the receiver — the lowest-id surviving replica
    /// holder — to adopt ownership of the request's first object and serve
    /// the blocked fetch exactly as an owner would serve an
    /// [`DsmMsg::ObjectFetch`].
    Adopt(FetchRequest),
}

/// A fetch of a *run*: `run` consecutive objects of one variable, starting
/// at `object`. A fault on one object is the run of 1; a fault inside a
/// multi-object access, or `PreAcquire()`, asks for every following object
/// of the access that is also invalid at the requester and shares the first
/// one's owner hint.
#[derive(Clone, Debug, PartialEq)]
pub struct FetchRequest {
    /// The first object of the run.
    pub object: ObjectId,
    /// How many consecutive objects are asked for (at least 1). Only
    /// fetches that need nothing but a copy ask for more than one.
    pub run: u32,
    /// Read or write intent.
    pub access: FetchKind,
    /// Node that took the fault and awaits the reply.
    pub requester: NodeId,
    /// How many `PhaseChange()` hints the requester's user thread had
    /// issued when it faulted. `PhaseChange()` is a local, unsynchronised
    /// call, so a fetch can reach an owner whose own user thread has not
    /// made the matching call yet; the owner must not judge such a fetch
    /// against the sharing relationship of the phase the requester has
    /// already left. Comparing the two counts assumes the program has
    /// every node issue the same sequence of `PhaseChange()` calls; where
    /// one node issues more, the owner spares it only once per phase of
    /// its own (`ObjectState::phase_voided`). Not charged in
    /// [`DsmMsg::model_bytes`]: only its order against the owner's count
    /// is used, which a few bits of the fixed header carry.
    pub phase: u32,
    /// The ids of the run's objects the requester's write overwrites whole
    /// (empty: none). An owner serving one as a plain copy sends the empty
    /// image instead of its bytes: its writer never reads them, and flushes
    /// the whole object back (`result`, "Fl").
    pub elide: std::ops::Range<u32>,
}

impl FetchRequest {
    /// Object id, intent and requester; a run length only when there is a
    /// run to speak of, and the range to elide only when there is one.
    fn model_bytes(&self) -> u64 {
        8 + if self.run > 1 { 4 } else { 0 } + if self.elide.is_empty() { 0 } else { 8 }
    }
}

/// Fixed modelled header size of every message, in bytes.
pub const HEADER_BYTES: u64 = 32;

impl DsmMsg {
    /// `inner` with the bundles it is to carry: a [`DsmMsg::Carrier`] frame
    /// when there are any, the bare message otherwise.
    pub fn framed(
        inner: DsmMsg,
        updates: Vec<UpdateBundle>,
        relay: Vec<(NodeId, UpdateBundle)>,
    ) -> DsmMsg {
        if updates.is_empty() && relay.is_empty() {
            return inner;
        }
        DsmMsg::Carrier {
            inner: Box::new(inner),
            updates,
            relay,
        }
    }

    /// The statistics class of the message.
    pub fn class(&self) -> &'static str {
        match self {
            DsmMsg::ObjectFetch(_) => "object_fetch",
            DsmMsg::ObjectData { .. } => "object_data",
            DsmMsg::Invalidate { .. } => "invalidate",
            DsmMsg::InvalidateAck { .. } => "invalidate_ack",
            DsmMsg::Update(b) => match b.route {
                Route::OwnerFanout { .. } => "relay_fanout",
                Route::OwnerForward { .. } => "relay_forward",
                _ => "update",
            },
            DsmMsg::UpdateAck { .. } => "update_ack",
            DsmMsg::CopysetQuery { .. } => "copyset_query",
            DsmMsg::CopysetReply { .. } => "copyset_reply",
            DsmMsg::ReduceRequest { .. } => "reduce_request",
            DsmMsg::ReduceReply { .. } => "reduce_reply",
            DsmMsg::LockAcquire { .. } => "lock_acquire",
            DsmMsg::LockGrant { .. } => "lock_grant",
            DsmMsg::BarrierArrive { .. } => "barrier_arrive",
            DsmMsg::BarrierRelease { .. } => "barrier_release",
            DsmMsg::WorkerDone { .. } => "worker_done",
            DsmMsg::Shutdown => "shutdown",
            // A carrier is classed as the message it frames, so per-class
            // accounting (e.g. "how many lock grants") is unaffected by the
            // framing; only total message counts drop.
            DsmMsg::Carrier { inner, .. } => inner.class(),
            // Like carriers, a reliable frame is classed as the message it
            // wraps, so per-class accounting is unaffected by the transport.
            DsmMsg::Reliable { inner, .. } => inner.class(),
            DsmMsg::NetAck { .. } => "net_ack",
            DsmMsg::Timer(TimerKind::Retransmit) => "tick",
            DsmMsg::Timer(TimerKind::Health) => "health_tick",
            DsmMsg::Heartbeat => "heartbeat",
            DsmMsg::PeerDown { .. } => "peer_down",
            DsmMsg::Adopt(_) => "adopt",
        }
    }

    /// Modelled size of the message on the wire (header plus payload).
    pub fn model_bytes(&self) -> u64 {
        let payload: u64 = match self {
            DsmMsg::ObjectFetch(fetch) => fetch.model_bytes(),
            // The first object is described by the 16 bytes of framing (id,
            // flags, copyset); every further one brings an 8-byte descriptor
            // (id and length) of its own — all a zero-filled object costs.
            DsmMsg::ObjectData { data, .. } => {
                let contents: u64 = data.iter().map(|d| d.len() as u64).sum();
                16 + contents + 8 * (data.len() as u64).saturating_sub(1)
            }
            DsmMsg::Invalidate { .. } | DsmMsg::InvalidateAck { .. } => 8,
            DsmMsg::Update(b) => b.model_bytes(),
            DsmMsg::UpdateAck { refanned } => 8 + 4 * refanned.as_ref().map_or(0, Vec::len) as u64,
            DsmMsg::CopysetQuery { objects, .. } => 4 * objects.len() as u64,
            DsmMsg::CopysetReply { have } => 4 * have.len() as u64,
            DsmMsg::ReduceRequest { .. } => 24,
            DsmMsg::ReduceReply { old } => old.len() as u64,
            DsmMsg::LockAcquire { .. } => 8,
            DsmMsg::LockGrant { queue, .. } => 8 + 4 * queue.len() as u64,
            // Barrier id and sender; the arrived bitmap (the words up to the
            // highest set bit) only when it says more than "the sender".
            DsmMsg::BarrierArrive { arrived, .. } if arrived.count() > 1 => {
                8 + 8 * arrived.word_span() as u64
            }
            DsmMsg::BarrierArrive { .. } | DsmMsg::BarrierRelease { .. } => 8,
            DsmMsg::WorkerDone { .. } | DsmMsg::Shutdown => 4,
            // One header for the whole frame: the inner message and every
            // piggybacked bundle share it — that is the wire saving the
            // carrier layer models. A relayed bundle also names its
            // destination (4 bytes).
            DsmMsg::Carrier {
                inner,
                updates,
                relay,
            } => {
                let carried: u64 = updates.iter().map(UpdateBundle::model_bytes).sum();
                let relayed: u64 = relay.iter().map(|(_, b)| 4 + b.model_bytes()).sum();
                inner.model_bytes() - HEADER_BYTES + carried + relayed
            }
            // The reliable frame adds an id + ack pair to the message it
            // wraps, sharing the wrapped message's header.
            DsmMsg::Reliable { inner, .. } => inner.model_bytes() - HEADER_BYTES + 8,
            DsmMsg::NetAck { .. } => 8,
            // Never on the wire (timer payloads only).
            DsmMsg::Timer(_) => 0,
            DsmMsg::Heartbeat => 0,
            DsmMsg::PeerDown { .. } => 4,
            DsmMsg::Adopt(fetch) => 4 + fetch.model_bytes(),
        };
        HEADER_BYTES + payload
    }

    /// Whether the message is a reply destined for the node's blocked user
    /// thread (as opposed to a request handled by the runtime service loop).
    /// Carriers are always unwrapped by the service loop first (the payload
    /// must be installed before the inner message is routed), so they are
    /// not user replies even when their inner message is.
    pub fn is_user_reply(&self) -> bool {
        matches!(
            self,
            DsmMsg::ObjectData { .. }
                | DsmMsg::InvalidateAck { .. }
                | DsmMsg::UpdateAck { .. }
                | DsmMsg::CopysetReply { .. }
                | DsmMsg::ReduceReply { .. }
                | DsmMsg::LockGrant { .. }
                | DsmMsg::Shutdown
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::encode;

    fn fetch_of(run: u32) -> DsmMsg {
        DsmMsg::ObjectFetch(FetchRequest {
            object: ObjectId::new(0),
            run,
            access: FetchKind::Read,
            requester: NodeId::new(1),
            phase: 0,
            elide: 0..0,
        })
    }

    /// A plain-copy reply carrying objects of the given sizes.
    fn data_of(sizes: &[usize]) -> DsmMsg {
        DsmMsg::ObjectData {
            object: ObjectId::new(0),
            data: sizes.iter().map(|len| vec![0; *len]).collect(),
            ownership: false,
            copyset: CopySet::EMPTY,
            writable: false,
        }
    }

    /// `from`'s report that everyone in `arrived` reached barrier 0.
    fn arrive_of(from: usize, arrived: NodeSet) -> DsmMsg {
        DsmMsg::BarrierArrive {
            barrier: BarrierId(0),
            from: NodeId::new(from),
            gen: 1,
            arrived,
        }
    }

    /// A leaf's report: just itself.
    fn leaf_arrive(from: usize) -> DsmMsg {
        arrive_of(from, NodeSet::from_nodes([NodeId::new(from)]))
    }

    const RELEASE: DsmMsg = DsmMsg::BarrierRelease {
        barrier: BarrierId(0),
        gen: 1,
    };

    #[test]
    fn classes_are_distinct_for_requests_and_replies() {
        let fetch = fetch_of(1);
        let data = data_of(&[16]);
        assert_ne!(fetch.class(), data.class());
        assert!(!fetch.is_user_reply());
        assert!(data.is_user_reply());
    }

    #[test]
    fn model_bytes_scale_with_payload() {
        let small = data_of(&[16]);
        let large = data_of(&[8192]);
        assert!(large.model_bytes() > small.model_bytes());
        assert!(large.model_bytes() >= 8192);
    }

    /// A run of 1 is the single-object fetch, byte for byte (`sor`'s
    /// one-page faults must not move); a longer run pays a 4-byte run length
    /// on the request and an 8-byte descriptor for each further object on
    /// the reply — and saves a header pair per object it spares a round trip.
    #[test]
    fn fetch_run_sizes_are_pinned() {
        assert_eq!(fetch_of(1).model_bytes(), HEADER_BYTES + 8);
        assert_eq!(data_of(&[8192]).model_bytes(), HEADER_BYTES + 8192 + 16);
        assert_eq!(fetch_of(3).model_bytes(), HEADER_BYTES + 8 + 4);
        assert_eq!(fetch_of(79).model_bytes(), fetch_of(2).model_bytes());
        // An elided range is 8 bytes more, whatever it covers; an `Adopt`
        // is its request and 4 bytes.
        let DsmMsg::ObjectFetch(mut fetch) = fetch_of(3) else {
            unreachable!()
        };
        fetch.elide = 1..3;
        let elided = DsmMsg::ObjectFetch(fetch.clone()).model_bytes();
        assert_eq!(elided, HEADER_BYTES + 8 + 4 + 8);
        assert_eq!(DsmMsg::Adopt(fetch).model_bytes(), elided + 4);
        assert_eq!(
            data_of(&[8192, 8192, 4288]).model_bytes(),
            HEADER_BYTES + 16 + (8192 + 8192 + 4288) + 2 * 8
        );
        let one_by_one = 3 * fetch_of(1).model_bytes()
            + 2 * data_of(&[8192]).model_bytes()
            + data_of(&[4288]).model_bytes();
        let as_a_run = fetch_of(3).model_bytes() + data_of(&[8192, 8192, 4288]).model_bytes();
        assert_eq!(
            one_by_one - as_a_run,
            2 * (2 * HEADER_BYTES + 8 + 16) - 4 - 2 * 8
        );
    }

    /// A zero-filled object travels as its description: the framing the
    /// first object of a reply has anyway, the 8-byte descriptor every
    /// further one has anyway, and no contents (a size of 0 below). Replies
    /// that carry every object keep the sizes they always had.
    #[test]
    fn zero_filled_images_cost_their_description_only() {
        let table: [(&[usize], u64); 7] = [
            (&[0], 32 + 16),
            (&[0, 0, 0], 32 + 16 + 2 * 8),
            (&[8192, 0, 4288], 32 + 16 + 2 * 8 + 8192 + 4288),
            (&[0, 8192], 32 + 16 + 8 + 8192),
            (&[16], 64),
            (&[8192], 8240),
            (&[8192, 8192, 4288], 20_736),
        ];
        for (sizes, bytes) in table {
            assert_eq!(data_of(sizes).model_bytes(), bytes, "{sizes:?}");
        }
        assert_eq!(HEADER_BYTES, 32);
    }

    /// A bundle of `n` 64-byte full images from N1 on `route`.
    fn bundle(route: Route, n: u32) -> UpdateBundle {
        UpdateBundle {
            origin: NodeId::new(1),
            seq: 0,
            items: (0..n)
                .map(|o| UpdateItem {
                    object: ObjectId::new(o),
                    payload: UpdatePayload::Full(vec![0; 64]),
                })
                .collect(),
            route,
        }
    }

    #[test]
    fn update_bytes_reflect_diff_encoding() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[0] = 1;
        let update_of = |payload| {
            let mut b = bundle(Route::DirectAcked, 1);
            b.items[0].payload = payload;
            DsmMsg::Update(b)
        };
        let small_update = update_of(UpdatePayload::Diff(encode(&cur, &twin)));
        let full_update = update_of(UpdatePayload::Full(cur));
        assert!(small_update.model_bytes() < full_update.model_bytes());
    }

    #[test]
    fn empty_diff_payload_is_small() {
        // Just the `words` varint.
        let d = encode(&[0u8; 64], &[0u8; 64]);
        assert_eq!(UpdatePayload::Diff(d).model_bytes(), 1);
    }

    #[test]
    fn cloned_diff_payloads_share_one_encoding() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[0] = 1;
        let diff = encode(&cur, &twin);
        let payload = UpdatePayload::Diff(diff);
        let fanned: Vec<UpdatePayload> = (0..3).map(|_| payload.clone()).collect();
        for p in &fanned {
            let (UpdatePayload::Diff(a), UpdatePayload::Diff(b)) = (&fanned[0], p) else {
                panic!("diff payload expected");
            };
            assert!(std::ptr::eq(a.as_wire_bytes(), b.as_wire_bytes()));
        }
    }

    #[test]
    fn barrier_and_lock_messages_are_small() {
        assert!(leaf_arrive(3).model_bytes() <= 64);
        let grant = DsmMsg::LockGrant {
            lock: LockId(0),
            queue: vec![NodeId::new(1)],
        };
        assert!(grant.model_bytes() <= 64);
        assert!(grant.is_user_reply());
    }

    /// One example of each shape an update travelled in before there was
    /// one bundle, with the class and the byte count it had then (computed
    /// at the parent of the commit that introduced `UpdateBundle`): the
    /// route table must reproduce every one of them.
    #[test]
    fn every_former_update_shape_keeps_its_class_and_bytes() {
        let grant = DsmMsg::LockGrant {
            lock: LockId(0),
            queue: vec![NodeId::new(2)],
        };
        let arrive = leaf_arrive(1);
        let table: [(&str, DsmMsg, &str, u64); 6] = [
            (
                "bare Update, 2 items",
                DsmMsg::Update(bundle(Route::DirectAcked, 2)),
                "update",
                176,
            ),
            (
                "RelayFanout",
                DsmMsg::Update(bundle(Route::OwnerFanout { ride: None }, 1)),
                "relay_fanout",
                112,
            ),
            (
                "RelayForward",
                DsmMsg::Update(bundle(Route::OwnerForward { framed: false }, 1)),
                "relay_forward",
                112,
            ),
            (
                "grant carrier with a sync-install and a flush bundle",
                DsmMsg::Carrier {
                    inner: Box::new(grant),
                    updates: vec![bundle(Route::SyncInstall, 1), bundle(Route::Carried, 1)],
                    relay: vec![],
                },
                "lock_grant",
                204,
            ),
            (
                "arrive carrier with two relayed bundles",
                DsmMsg::Carrier {
                    inner: Box::new(arrive),
                    updates: vec![],
                    relay: vec![
                        (NodeId::new(2), bundle(Route::Carried, 1)),
                        (NodeId::new(3), bundle(Route::Carried, 1)),
                    ],
                },
                "barrier_arrive",
                208,
            ),
            (
                "Reliable-framed update",
                DsmMsg::Reliable {
                    id: 1,
                    ack: 0,
                    inner: Box::new(DsmMsg::Update(bundle(Route::DirectUnacked, 1))),
                },
                "update",
                112,
            ),
        ];
        for (what, msg, class, bytes) in table {
            assert_eq!(msg.class(), class, "{what}");
            assert_eq!(msg.model_bytes(), bytes, "{what}");
            // Updates of every route are service-loop requests; carriers are
            // unwrapped there too, whatever they frame.
            assert!(!msg.is_user_reply(), "{what}");
        }
    }

    /// A carrier frame costs one header for the inner message plus every
    /// piggybacked bundle — strictly less than the messages sent separately.
    /// And a barrier-relayed payload, which transits the wire twice (flusher
    /// → barrier owner on the arrive carrier, owner → destination on the
    /// release carrier), is charged on *both* hops — once per wire transit,
    /// not once per logical update — so the `tests/piggyback.rs` byte-ratio
    /// assertion measures reality.
    #[test]
    fn carrier_shares_one_header_and_charges_each_wire_transit() {
        let release = RELEASE;
        let arrive = leaf_arrive(1);
        let direct = DsmMsg::Update(bundle(Route::DirectAcked, 1));
        assert_eq!(direct.model_bytes(), HEADER_BYTES + 8 + 64);
        // Hop 1: 4 bytes of destination + 8 of origin/seq + 8 per item + the
        // payload on top of the arrive.
        let hop1 = DsmMsg::Carrier {
            inner: Box::new(arrive.clone()),
            updates: vec![],
            relay: vec![(NodeId::new(2), bundle(Route::Carried, 1))],
        };
        assert_eq!(hop1.model_bytes() - arrive.model_bytes(), 12 + 8 + 64);
        // Hop 2: the owner re-attaches the bundle to the release.
        let hop2 = DsmMsg::Carrier {
            inner: Box::new(release.clone()),
            updates: vec![bundle(Route::Carried, 1)],
            relay: vec![],
        };
        assert_eq!(hop2.model_bytes() - release.model_bytes(), 8 + 8 + 64);
        assert!(hop2.model_bytes() < release.model_bytes() + direct.model_bytes());
        assert_eq!(hop2.class(), "barrier_release");
        // A cooperative bundle riding the barrier costs what any relay entry
        // does on the way up and what any carried bundle does on the way
        // down: the frame names the barrier, so its id is not charged.
        let ride = Route::OwnerFanout {
            ride: Some(BarrierId(0)),
        };
        let up = DsmMsg::framed(arrive, vec![], vec![(NodeId::new(0), bundle(ride, 1))]);
        let forward = bundle(Route::OwnerForward { framed: true }, 1);
        let down = DsmMsg::framed(release, vec![forward], vec![]);
        assert_eq!(
            (up.model_bytes(), down.model_bytes()),
            (hop1.model_bytes(), hop2.model_bytes())
        );
        assert_eq!((up.class(), down.class()), (hop1.class(), hop2.class()));
    }

    /// Every ack costs 8 bytes plus 4 per re-fan destination it names: a
    /// plain one what it always did, a fan-out's what the fan-out ack did.
    #[test]
    fn update_ack_has_pinned_size_and_routing() {
        let two = vec![NodeId::new(2), NodeId::new(3)];
        for (refanned, payload) in [(None, 8), (Some(vec![]), 8), (Some(two), 16)] {
            let ack = DsmMsg::UpdateAck { refanned };
            assert_eq!(ack.model_bytes(), HEADER_BYTES + payload);
            // The fan-out and re-fan are service-loop requests; only the ack
            // is routed to the origin's blocked user thread.
            assert!(ack.is_user_reply());
            assert_eq!(ack.class(), "update_ack");
        }
    }

    /// A leaf's report and every release cost 8 bytes (barrier id and
    /// sender; `gen` rides the header); a report that speaks for more than
    /// its sender adds the bitmap, one word per 64 node ids in use.
    #[test]
    fn barrier_messages_are_service_requests_with_pinned_sizes() {
        let ids = |r: std::ops::Range<usize>| r.map(NodeId::new).collect::<NodeSet>();
        let table = [
            (leaf_arrive(9), 8),
            (leaf_arrive(200), 8),
            (arrive_of(9, ids(9..11)), 8 + 8),
            (arrive_of(70, ids(70..72)), 8 + 8 * 2),
            (arrive_of(0, NodeSet::full(256)), 8 + 8 * 4),
            (RELEASE, 8),
        ];
        for (msg, payload) in table {
            assert_eq!(msg.model_bytes(), HEADER_BYTES + payload, "{msg:?}");
            // Both are handled by the service loop, which forwards a release
            // down the tree before waking its own user thread.
            assert!(!msg.is_user_reply(), "{msg:?}");
        }
        assert_eq!(leaf_arrive(9).class(), "barrier_arrive");
        assert_eq!(RELEASE.class(), "barrier_release");
    }

    #[test]
    fn every_class_is_nonempty() {
        let msgs = [
            DsmMsg::Shutdown,
            DsmMsg::WorkerDone {
                from: NodeId::new(0),
            },
            DsmMsg::UpdateAck { refanned: None },
            DsmMsg::CopysetReply { have: vec![] },
        ];
        for m in msgs {
            assert!(!m.class().is_empty());
            assert!(m.model_bytes() >= HEADER_BYTES);
        }
    }
}
