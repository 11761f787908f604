//! Flushing the delayed update queue at a release.
//!
//! "When a thread releases a lock or reaches a barrier, the modifications to
//! the objects enqueued on the DUQ are propagated to their remote copies."
//! (Section 3.3.) The flush proceeds in three steps:
//!
//! 1. determine the copyset of every enqueued object (either the prototype's
//!    broadcast query or the improved owner-collected algorithm),
//! 2. encode the changes — a run-length encoded diff against the twin when
//!    one exists, the full object image otherwise — and
//! 3. send the updates (grouped into one message per destination node) and
//!    wait for acknowledgements, so that all writes performed before the
//!    release are performed with respect to every other processor before the
//!    release completes.
//!
//! `result` objects are not sent to their copyset: their changes are flushed
//! only to the owner and the local copy is invalidated (the `Fl` parameter).
//!
//! Every update leaves as one [`crate::msg::UpdateBundle`]; what differs is
//! the route it takes ([`FlushMode`] and `classify`): its own acknowledged
//! message, a ride on the barrier arrive or lock grant that the release is
//! about to send anyway, its own message fenced by that arrive when it is too
//! big to ride, or — for objects this node does not own — whole to the
//! owner, which re-fans it. The `Flush()`, `Invalidate()` and
//! `ChangeAnnotation()` hints run the same flush at once, acknowledged
//! messages only, and leave nothing behind for a later release to deliver.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use munin_sim::NodeId;

use crate::config::CopysetStrategy;
use crate::copyset::CopySet;
use crate::directory::AccessRights;
use crate::error::{MuninError, Result};
use crate::msg::{DsmMsg, Route, UpdateItem, UpdatePayload};
use crate::nodeset::NodeSet;
use crate::object::ObjectId;
use crate::stats::{add, bump};

use super::NodeRuntime;

/// Routing decision for one flushed object: the destinations its changes go
/// to, whether they fan out to a copyset (`true`) or flush to the owner
/// (`false`, `result` objects), and whether this node owns the object (which
/// is what makes deferred delivery through the carrier layer safe — the
/// owner serves every fetch from live memory itself). Produced by
/// `NodeRuntime::flush_route`.
pub(crate) struct FlushRoute {
    pub(crate) fans_out: bool,
    pub(crate) owned: bool,
    /// `Some(owner)` when the bundle takes the owner-cooperative path: it
    /// ships whole (`Route::OwnerFanout`) to the object's (probable) owner,
    /// which installs it and re-fans to the members of its authoritative
    /// copyset. Set for non-owned fan-out entries whose copyset is not
    /// fixed; such entries skip copyset determination entirely and ignore
    /// `destinations`.
    pub(crate) coop_owner: Option<NodeId>,
    /// Fan-out destination set (already excludes this node). A bitmap, not a
    /// materialized list: flush paths iterate it in place.
    pub(crate) destinations: NodeSet,
}

/// How a flush dispatches its updates through the carrier/outbox layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushMode {
    /// Every update goes as its own acknowledged message — the paper's
    /// `Flush()`, used at lock releases without a waiting grantee and for
    /// the `Flush` / `Invalidate` / `ChangeAnnotation` hints.
    Immediate,
    /// Release at an all-node barrier owned by `owner`: owner-flushed
    /// fan-out items (and `result` flushes homed at the owner) are returned
    /// to the caller to ride the `BarrierArrive` carrier, from which the
    /// owner re-attaches them to the matching releases.
    BarrierRelay {
        /// The barrier owner the arrive is headed to.
        owner: NodeId,
        /// Whether the barrier's topology is a star. Only then may a
        /// non-owned bundle whose owner is `owner` ride the arrive too (see
        /// the cooperative dispatch in `flush_duq_mode`).
        star: bool,
    },
    /// Lock release with a known next holder: owner-flushed fan-out items
    /// destined for the grantee ride the `LockGrant` carrier instead of a
    /// standalone update+ack round.
    LockRelay {
        /// The waiter the lock will be handed to.
        grantee: NodeId,
    },
}

/// Where one (entry, destination) pair goes under a given flush mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dispatch {
    /// Its own acknowledged message.
    Acked,
    /// A ride on the carrier the release is about to send.
    Relay,
    /// Direct and unacknowledged: a later slot of the same stream rides the
    /// `BarrierArrive` as its fence (see the send in `flush_duq_mode`).
    Fenced,
}

/// The route of `bytes` of encoded payload from one entry to `dest`.
fn classify(mode: FlushMode, route: &FlushRoute, dest: NodeId, bytes: u64, max: u64) -> Dispatch {
    debug_assert!(
        route.coop_owner.is_none(),
        "owner-cooperative routes are dispatched whole, never per-destination"
    );
    if route.fans_out {
        if !route.owned {
            // Non-owned fan-out updates outside the cooperative path (fixed
            // copysets) keep the acknowledged path: the
            // owner's ack carries its recorded copyset, which the heal
            // logic needs (see the ack round below).
            return Dispatch::Acked;
        }
        match mode {
            FlushMode::Immediate => Dispatch::Acked,
            // Adaptive relay: a barrier-relayed payload bound for anyone but
            // the barrier owner transits the wire twice (flusher → owner →
            // destination). At or above the configured size the byte
            // doubling outweighs the saved message, so it goes direct.
            // Owner-bound and lock-relay bundles ride single-transit.
            FlushMode::BarrierRelay { owner, .. } if dest != owner && bytes >= max => {
                Dispatch::Fenced
            }
            FlushMode::BarrierRelay { .. } => Dispatch::Relay,
            FlushMode::LockRelay { grantee } if dest == grantee => Dispatch::Relay,
            FlushMode::LockRelay { .. } => Dispatch::Acked,
        }
    } else {
        // `result` flushes go to the fixed owner; they can ride a barrier
        // arrive that is already headed there (the owner installs the bundle
        // before counting the arrival, which is at least as early as the
        // legacy apply-then-ack).
        match mode {
            FlushMode::BarrierRelay { owner, .. } if dest == owner => Dispatch::Relay,
            _ => Dispatch::Acked,
        }
    }
}

/// Update items grouped by the node they are headed to.
pub(crate) type PerDest = BTreeMap<NodeId, Vec<UpdateItem>>;

/// The objects a list of update items names (for the protocol trace).
fn objects_of(items: &[UpdateItem]) -> Vec<ObjectId> {
    items.iter().map(|i| i.object).collect()
}

impl NodeRuntime {
    /// Flushes the delayed update queue with every update as its own
    /// acknowledged message. Called by releases without a carrier
    /// opportunity and by the hints, which leave nothing unsent behind —
    /// `Flush()` itself "advises Munin to flush any buffered writes
    /// immediately rather than waiting for a release".
    pub(crate) fn flush_duq(self: &Arc<Self>) -> Result<()> {
        self.flush_duq_mode(FlushMode::Immediate).map(|_| ())
    }

    /// Flushes the delayed update queue, dispatching updates per `mode`.
    /// Returns what the caller must attach to its carrier (barrier arrive or
    /// lock grant): the per-destination bundles, and — at a star barrier —
    /// the cooperative bundle for the barrier's owner. Both are empty except
    /// in the relay modes.
    pub(crate) fn flush_duq_mode(
        self: &Arc<Self>,
        mode: FlushMode,
    ) -> Result<(PerDest, Vec<UpdateItem>)> {
        // Listed, not drained: every entry stays queued, its twin where a
        // peer's update still finds it to patch, until `encode_entry` takes
        // it out under the lock it encodes under.
        let objects = self.duq.lock().pending();
        bump(&self.stats.duq_flushes);
        if objects.is_empty() {
            return Ok(Default::default());
        }
        add(&self.stats.duq_objects_flushed, objects.len() as u64);

        // Step 1: determine copysets where needed. `result` objects go to
        // their owner and need none; stable objects whose copyset is already
        // fixed reuse it.
        let needs_determination: Vec<ObjectId> = {
            let mut dir = self.dir.lock();
            objects
                .iter()
                .copied()
                .filter(|o| {
                    let entry = dir.entry_mut(*o);
                    if entry.params.flushes_to_owner() || entry.state.copyset_fixed {
                        return false;
                    }
                    // Owner-cooperative entries (non-owned fan-out; see
                    // `FlushRoute::coop_owner`) skip determination: the owner re-fans from its
                    // authoritative copyset, so asking first would be a
                    // wasted round.
                    if !entry.state.owned {
                        return false;
                    }
                    // Owner-authoritative elision, the flusher-side twin of
                    // the cooperative path: when the flusher itself owns an
                    // update-based object, the replicas recorded while
                    // serving fetches *are* the copyset — every remote copy
                    // of such an object originates from a fetch this node
                    // served, and update-based annotations never drop copies
                    // silently (no invalidations). The broadcast round could
                    // only re-discover that same set (its result is merged
                    // with the recorded replicas anyway), so it is elided. A fetch racing this flush
                    // stays safe for the same reason as in the merge path:
                    // the owner serves fetches from its own live copy, which
                    // already contains the changes being flushed.
                    // Invalidate-based annotations keep the query round —
                    // invalidations and ownership transfers clear recorded
                    // copysets, so "recorded" is not authoritative for them.
                    if !entry.params.uses_invalidate() {
                        crate::runtime::proto_trace!(
                            self,
                            "elide determination of {o:?}: owner copyset is authoritative"
                        );
                        if entry.params.is_stable() {
                            entry.state.copyset_fixed = true;
                        }
                        return false;
                    }
                    true
                })
                .collect()
        };
        if !needs_determination.is_empty() {
            let determined = match self.cfg.copyset_strategy {
                CopysetStrategy::Broadcast => {
                    self.determine_copysets_broadcast(&needs_determination)?
                }
                CopysetStrategy::OwnerCollected => {
                    self.determine_copysets_owner(&needs_determination)?
                }
            };
            let mut dir = self.dir.lock();
            for (object, copyset) in determined {
                let entry = dir.entry_mut(object);
                // For objects this node owns, *merge* the determined set with
                // the replicas recorded while serving fetches: a fetch served
                // after the query replies were collected (its requester's
                // reply raced the in-flight object data) must not be
                // forgotten, or its holder would silently stop receiving
                // updates — the seed-level SOR divergence. The merge is a
                // deliberate over-approximation: a member that later dropped
                // its copy (e.g. the Invalidate hint) cannot be pruned here,
                // because "doesn't have a copy right now" is indistinguishable
                // from "fetch in flight". Stale members cost one discarded
                // update per flush and are reset by ownership transfers and
                // invalidations, which clear the copyset.
                if entry.state.owned {
                    entry.copyset = entry.copyset.union(&copyset);
                } else {
                    entry.copyset = copyset;
                }
                crate::runtime::proto_trace!(
                    self,
                    "copyset of {object:?} determined: {:?}",
                    entry.copyset.members(self.nodes, None)
                );
                if entry.params.is_stable() {
                    entry.state.copyset_fixed = true;
                }
            }
        }

        // Steps 2 and 3: encode each entry with a receiver exactly once (the
        // flat diff buffer is shared, via `Arc`, between the per-destination
        // clones of the payload), then send.
        let max = self.cfg.relay_max_bytes;
        let mut pending = PerDest::new();
        let mut relay = PerDest::new();
        // Owner-cooperative bundles, keyed by the owner they ship to.
        let mut coop = PerDest::new();
        // Over-threshold owner-flushed barrier items, sent direct and fenced.
        let mut fenced = PerDest::new();
        // Fan-out payloads are retained (cheap: the buffers are `Arc`-shared)
        // until the ack round completes, so updates can be re-sent to copyset
        // members the owner reports as missed.
        let mut fanout: HashMap<ObjectId, (UpdatePayload, NodeSet)> = HashMap::new();
        // `UpdateAck`s owed, per destination: the release waits until none
        // is, and a destination confirmed dead mid-round is written off whole.
        let mut outstanding: BTreeMap<NodeId, usize> = BTreeMap::new();
        // Outstanding owner-cooperative fan-out acks, with the bundle
        // retained so a bounced item or a dead owner can fall back to the
        // degraded broadcast. The ack loop must not exit while any entry
        // remains: the fan-out ack names the re-fan destinations whose own
        // acks this release still has to count.
        let mut coop_pending = PerDest::new();
        type Owed = BTreeMap<NodeId, usize>;
        let send_update = |rt: &Arc<Self>,
                           dest: NodeId,
                           items: Vec<UpdateItem>,
                           outstanding: &mut Owed|
         -> Result<()> {
            if dest != rt.node && rt.is_peer_dead(dest) {
                // Confirmed dead after the route was computed: recovery has
                // already pruned it from the copysets; nothing to send.
                return Ok(());
            }
            crate::runtime::proto_trace!(rt, "flush -> {dest:?}: {:?}", objects_of(&items));
            let update = rt.next_bundle(dest, rt.clock.now(), items, Route::DirectAcked);
            rt.send(dest, DsmMsg::Update(update))?;
            *outstanding.entry(dest).or_default() += 1;
            Ok(())
        };
        // Degraded fallback when a cooperative owner is dead or bounced the
        // bundle: every live peer gets it as an ordinary acknowledged update.
        // Peers without a copy discard it on apply — the cost of not running
        // a determination round inside the ack loop, whose wait may only
        // observe update acks.
        let broadcast_degraded =
            |rt: &Arc<Self>, items: Vec<UpdateItem>, outstanding: &mut Owed| -> Result<()> {
                for peer in rt.live_peers().iter() {
                    send_update(rt, peer, items.clone(), outstanding)?;
                }
                Ok(())
            };
        for object in objects {
            let (payload, route) = self.encode_entry(object)?;
            let Some(payload) = payload else { continue };
            let item = || UpdateItem {
                object,
                payload: payload.clone(),
            };
            if let Some(owner) = route.coop_owner {
                coop.entry(owner).or_default().push(item());
                continue;
            }
            let mut any_acked = false;
            let bytes = payload.model_bytes();
            for dest in route.destinations.iter() {
                match classify(mode, &route, dest, bytes, max) {
                    Dispatch::Acked => {
                        any_acked = true;
                        pending.entry(dest).or_default().push(item());
                    }
                    Dispatch::Relay => relay.entry(dest).or_default().push(item()),
                    Dispatch::Fenced => {
                        add(&self.stats.relay_bypassed_bytes, bytes);
                        self.obs.record(
                            self.clock.now().as_nanos(),
                            crate::obs::EventKind::RelayBypass,
                            |ev| {
                                ev.peer = Some(dest);
                                ev.seq = Some(bytes);
                            },
                        );
                        fenced.entry(dest).or_default().push(item());
                    }
                }
            }
            if route.fans_out && any_acked {
                fanout.insert(object, (payload.clone(), route.destinations.clone()));
            }
        }
        for (dest, items) in pending {
            send_update(self, dest, items, &mut outstanding)?;
        }
        // The barrier is the ack: a fenced update leaves now and nobody waits
        // for it. Its destination's relay entry (the small diffs riding
        // there, else an item-less bundle) draws a later slot of the same
        // stream at the arrive; re-attached to the destination's release,
        // that slot holds the release at the admission gate until this
        // update is installed — the visibility point the ack enforced.
        for (dest, items) in fenced {
            if !self.is_peer_dead(dest) {
                let update = self.next_bundle(dest, self.clock.now(), items, Route::DirectUnacked);
                self.send(dest, DsmMsg::Update(update))?;
                relay.entry(dest).or_default();
            }
        }
        // Owner-cooperative fan-out: each non-owned bundle ships whole to
        // its owner, which installs it and re-fans to the members of its
        // authoritative copyset — no determination round, no heal round.
        // The origin counts one `RelayFanoutAck` per bundle plus one
        // `UpdateAck` per re-fan destination the owner reports.
        let mut ride = Vec::new();
        for (owner, items) in coop {
            debug_assert_ne!(owner, self.node, "coop routes never point home");
            if self.is_peer_dead(owner) {
                broadcast_degraded(self, items, &mut outstanding)?;
                continue;
            }
            // Unless the owner is the one the arrive is headed to, at a star:
            // then the bundle rides that arrive, its re-fans ride the
            // releases, and this flush neither sends it nor waits for it —
            // the release each member observes is where "performed" has to
            // hold, as for a fenced update. Star only: a riding re-fan is
            // unsequenced like every forward, ordered against this node's
            // *next* forward to the same member (a lock-release flush, sent
            // standalone owner → member) by link FIFO alone. A star's
            // release leaves on that very link first (`release_children`
            // sees to it); down a tree it takes interior hops, and the later
            // forward could overtake it while the member is still parked at
            // the barrier.
            if mode == (FlushMode::BarrierRelay { owner, star: true }) {
                ride = items;
                continue;
            }
            crate::runtime::proto_trace!(self, "coop relay -> {owner:?}: {:?}", objects_of(&items));
            let standalone = Route::OwnerFanout { ride: None };
            let fanout = self.next_bundle(owner, self.clock.now(), items.clone(), standalone);
            self.send(owner, DsmMsg::Update(fanout))?;
            coop_pending.insert(owner, items);
        }
        // Relayed bundles are returned to the caller, which sequences and
        // attaches them (the barrier arrive / lock grant send sites).
        for (dest, items) in &relay {
            crate::runtime::proto_trace!(self, "relay -> {dest:?}: {:?}", objects_of(items));
        }

        // Ack round (conservative release consistency: updates are performed
        // at the release). Owners piggyback their authoritative recorded
        // copysets on the ack; any member they know of that this flush did
        // not reach — a replica whose fetch was served *after* our copyset
        // query was answered — gets the update re-sent now, and the release
        // completes only once those re-sends are acknowledged too. Re-sends
        // travel on this node's own lanes, so they can never overtake (or be
        // overtaken by) this node's later flushes.
        //
        // `outstanding` counts the `UpdateAck`s owed; a fan-out ack is owed
        // by every owner still in `coop_pending`. An `UpdateAck` counts only
        // against an expectation from its sender. The one that
        // can arrive unexpected is a re-fan destination's, having overtaken
        // the `RelayFanoutAck` that names it: it waits in `unclaimed` until
        // that ack claims it. If the owner dies instead, nobody does —
        // counting such acks anyway let this loop exit that many acks short
        // of its degraded broadcast, and the stragglers then answered
        // whatever this node waited for next.
        let mut unclaimed = Owed::new();
        /// Takes one off `node`'s count, if it has any.
        fn take_one(counts: &mut Owed, node: NodeId) -> bool {
            match counts.get_mut(&node) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    true
                }
                _ => false,
            }
        }
        let mut handled = crate::nodeset::NodeSet::EMPTY;
        while outstanding.values().any(|owed| *owed > 0) || !coop_pending.is_empty() {
            let (env, reply) =
                match self.wait_reply_or_dead(crate::runtime::WaitOp::UpdateAcks, &mut handled) {
                    Ok(reply) => reply,
                    Err(MuninError::PeerDied(n)) => {
                        // A dead destination's acks will never arrive: write
                        // off everything still outstanding towards it. Its
                        // copies are unreachable, which is the post-crash
                        // equivalent of "update performed".
                        outstanding.remove(&n);
                        if let Some(items) = coop_pending.remove(&n) {
                            // A cooperative owner died before acking. It may
                            // or may not have re-fanned already; the degraded
                            // broadcast re-sends on this node's own lanes, so
                            // every receiver's stream check drops whichever
                            // copy arrives second. (Re-fan acks already in
                            // flight from before the crash are absorbed by
                            // this loop's count — death confirmation takes a
                            // full detection window, far longer than any
                            // delivery.)
                            broadcast_degraded(self, items, &mut outstanding)?;
                        }
                        continue;
                    }
                    Err(e) => return Err(e),
                };
            match reply {
                DsmMsg::RelayFanoutAck { refanned, rejected } => {
                    let Some(items) = coop_pending.remove(&env.src) else {
                        // Duplicate ack for an already-settled bundle (the
                        // stale-sequence path at the owner).
                        continue;
                    };
                    // Each re-fan destination acknowledges this node
                    // directly; their acks join this release's count — at
                    // once if they are already here. One that died since
                    // will never ack, and its death was already signalled.
                    for dest in refanned {
                        if !self.is_peer_dead(dest) && !take_one(&mut unclaimed, dest) {
                            *outstanding.entry(dest).or_default() += 1;
                        }
                    }
                    if !rejected.is_empty() {
                        // The ownership hint was stale: point it back at the
                        // home node (first link of the probable-owner chain)
                        // and fall back to the degraded broadcast for the
                        // bounced objects.
                        let rejected: BTreeSet<ObjectId> = rejected.into_iter().collect();
                        {
                            let mut dir = self.dir.lock();
                            for o in &rejected {
                                let e = dir.entry_mut(*o);
                                if !e.state.owned {
                                    e.probable_owner = e.home;
                                }
                            }
                        }
                        let bounced: Vec<UpdateItem> = items
                            .into_iter()
                            .filter(|i| rejected.contains(&i.object))
                            .collect();
                        if !bounced.is_empty() {
                            broadcast_degraded(self, bounced, &mut outstanding)?;
                        }
                    }
                }
                DsmMsg::UpdateAck { owned_copysets, .. } => {
                    if !take_one(&mut outstanding, env.src) {
                        *unclaimed.entry(env.src).or_default() += 1;
                    }
                    // Batch the heals per missed member, preserving the
                    // normal flush path's one-Update-per-destination shape:
                    // an owner reporting k objects that all missed the same
                    // late-fetching member costs one message, not k.
                    let mut heal = PerDest::new();
                    for (object, owner_set) in owned_copysets {
                        let Some((payload, sent)) = fanout.get_mut(&object) else {
                            continue;
                        };
                        let missed: Vec<NodeId> = owner_set
                            .iter(self.nodes, Some(self.node))
                            .filter(|m| !sent.contains(*m))
                            .collect();
                        if missed.is_empty() {
                            continue;
                        }
                        // Remember the healed members for future flushes of
                        // this object (mirrors the owner-side serve-record
                        // merge).
                        {
                            let mut dir = self.dir.lock();
                            let e = dir.entry_mut(object);
                            e.copyset = e.copyset.union(&owner_set);
                        }
                        for m in missed {
                            crate::runtime::proto_trace!(
                                self,
                                "heal {object:?} -> {m:?} (owner-reported member missed at determination)"
                            );
                            add(&self.stats.updates_healed, 1);
                            sent.insert(m);
                            heal.entry(m).or_default().push(UpdateItem {
                                object,
                                payload: payload.clone(),
                            });
                        }
                    }
                    for (member, items) in heal {
                        send_update(self, member, items, &mut outstanding)?;
                    }
                }
                other => {
                    return Err(MuninError::ProtocolViolation(match other {
                        DsmMsg::ObjectData { .. } => "unexpected ObjectData during flush",
                        _ => "unexpected reply while waiting for update acks",
                    }))
                }
            }
        }
        Ok((relay, ride))
    }

    /// Computes where one flushed object's changes go: the single source of
    /// routing truth.
    fn flush_route(&self, e: &crate::directory::DirEntry) -> FlushRoute {
        if e.params.flushes_to_owner() {
            // `result` objects go only to their owner; nothing to send when
            // this node *is* the owner.
            FlushRoute {
                fans_out: false,
                owned: e.state.owned,
                coop_owner: None,
                destinations: if e.home == self.node {
                    NodeSet::EMPTY
                } else {
                    NodeSet::from_nodes([e.home])
                },
            }
        } else {
            let owned = e.state.owned;
            // Owner-cooperative relay: non-owned fan-out bundles ship whole
            // to the owner, which re-fans from its authoritative copyset. A
            // hint that degenerates to ourselves is repaired toward home;
            // liveness is checked at send time, not here — the failure
            // detector takes its own lock and this runs under the directory
            // lock.
            let coop_owner = if !owned && !e.state.copyset_fixed {
                let hint = if e.probable_owner == self.node {
                    e.home
                } else {
                    e.probable_owner
                };
                (hint != self.node).then_some(hint)
            } else {
                None
            };
            FlushRoute {
                fans_out: true,
                owned,
                coop_owner,
                destinations: e.copyset.to_set(self.nodes, Some(self.node)),
            }
        }
    }

    /// Takes `object`'s entry out of the DUQ and, when `encode`, captures what
    /// it changed — a diff against the twin (straight out of segment memory,
    /// into the node's reusable scratch buffer) or the whole image when there
    /// is none — in one DUQ-lock scope, the one `apply_update_items` holds
    /// across memory apply + twin patch. A peer's update is therefore in both
    /// the memory and the twin compared here or in neither, and the diff
    /// carries this node's own words only (flat diff invariant 6). The twin
    /// goes back to the pool. `None`: the object is not queued (any more).
    pub(crate) fn capture_changes(
        &self,
        object: ObjectId,
        encode: bool,
    ) -> Option<Option<UpdatePayload>> {
        let mut duq = self.duq.lock();
        let twin = duq.remove(object)?.twin;
        let payload = encode.then(|| match &twin {
            Some(twin) => UpdatePayload::Diff(
                self.with_object_mem(object, |cur| self.diff_scratch.lock().encode(cur, twin)),
            ),
            None => UpdatePayload::Full(self.object_bytes(object)),
        });
        twin.into_iter().for_each(|twin| duq.recycle_twin(twin));
        Some(payload)
    }

    /// Takes one DUQ entry out, encodes its changes if anyone receives them
    /// and applies the per-protocol state transitions (re-protection,
    /// invalidation of the local copy for `result` objects, private-page
    /// promotion for stable objects with an empty copyset). A diff is encoded
    /// at most once, and shared via `Arc` when the caller fans it out.
    pub(crate) fn encode_entry(
        self: &Arc<Self>,
        object: ObjectId,
    ) -> Result<(Option<UpdatePayload>, FlushRoute)> {
        let (route, stable) = {
            let dir = self.dir.lock();
            let e = dir.entry(object);
            (self.flush_route(e), e.params.is_stable())
        };
        // Nobody receives a diff of a `result` object at its home, or of an
        // empty copyset — unless the entry is owner-cooperative: its owner
        // decides the fan-out, and the never-determined local copyset proves
        // nothing. No receiver, no diff and no charge ("What a flush is
        // charged").
        let nowhere = route.coop_owner.is_none() && route.destinations.is_empty();
        let payload = match self.capture_changes(object, !nowhere) {
            // An invalidation got to the entry since the flush listed it, and
            // has propagated its changes and dropped the copy.
            None => return Ok((None, route)),
            Some(Some(UpdatePayload::Diff(d))) => {
                let words = (self.object_range(object).len() / 4) as u64;
                self.charge_sys(self.cost.encode(words, d.run_count() as u64));
                (!d.is_empty()).then_some(UpdatePayload::Diff(d))
            }
            Some(other) => other,
        };
        let mut dir = self.dir.lock();
        let e = dir.entry_mut(object);
        e.state.dirty = false;
        if !route.fans_out {
            // `result` objects: send only to the owner, then invalidate the
            // local copy ("Fl" and the description of Matrix Multiply). The
            // home's own changes are already in place, and it keeps them.
            if !nowhere {
                self.set_entry_rights(e, AccessRights::Invalid);
                e.state.owned = false;
                e.probable_owner = e.home;
            }
        } else if nowhere && stable {
            // "Any pages that have an empty Copyset and are therefore private
            // are made locally writable, their twins are deleted, and they do
            // not generate further access faults."
            self.set_entry_rights(e, AccessRights::ReadWrite);
        } else {
            // Write-shared / producer-consumer: keep the copy, re-write-protect
            // so the next write makes a fresh twin.
            self.set_entry_rights(e, AccessRights::Read);
        }
        Ok((payload, route))
    }

    /// The prototype's copyset determination: broadcast the list of modified
    /// objects to every other node and collect the subsets each holds.
    fn determine_copysets_broadcast(
        self: &Arc<Self>,
        objects: &[ObjectId],
    ) -> Result<HashMap<ObjectId, CopySet>> {
        let dead = self.dead_set();
        let mut pending: Vec<NodeId> = self.live_peers().iter().collect();
        let mut result: HashMap<ObjectId, CopySet> =
            objects.iter().map(|o| (*o, CopySet::EMPTY)).collect();
        if pending.is_empty() {
            return Ok(result);
        }
        add(&self.stats.copyset_queries, 1);
        // One shared allocation for the whole broadcast: every peer's query
        // message clones the `Arc`, not the object list.
        let shared: Arc<[ObjectId]> = Arc::from(objects);
        for peer in &pending {
            add(&self.stats.copyset_query_msgs, 1);
            self.send(
                *peer,
                DsmMsg::CopysetQuery {
                    objects: Arc::clone(&shared),
                    requester: self.node,
                },
            )?;
        }
        // A peer dying mid-round counts as an empty reply: whatever copies
        // it held are unreachable and have been pruned by recovery.
        let mut handled = dead;
        while !pending.is_empty() {
            match self.wait_reply_or_dead(crate::runtime::WaitOp::CopysetReplies, &mut handled) {
                Ok((env, DsmMsg::CopysetReply { have })) => {
                    for o in have {
                        if let Some(cs) = result.get_mut(&o) {
                            cs.insert(env.src);
                        }
                    }
                    pending.retain(|n| *n != env.src);
                }
                Ok(_) => {
                    return Err(MuninError::ProtocolViolation(
                        "unexpected reply while determining copysets",
                    ))
                }
                Err(MuninError::PeerDied(n)) => pending.retain(|p| *p != n),
                Err(e) => return Err(e),
            }
        }
        self.charge_sys(self.cost.dir_op());
        Ok(result)
    }

    /// The improved algorithm the paper sketches: the owner of each object
    /// collects copyset information while serving fetches, so the flusher
    /// asks the owner instead of broadcasting. Objects owned locally need no
    /// messages at all.
    fn determine_copysets_owner(
        self: &Arc<Self>,
        objects: &[ObjectId],
    ) -> Result<HashMap<ObjectId, CopySet>> {
        let mut result: HashMap<ObjectId, CopySet> = HashMap::new();
        let mut remote: BTreeMap<NodeId, Vec<ObjectId>> = BTreeMap::new();
        {
            let dir = self.dir.lock();
            for o in objects {
                let e = dir.entry(*o);
                if e.state.owned {
                    result.insert(*o, e.copyset.clone());
                } else {
                    remote.entry(e.probable_owner).or_default().push(*o);
                }
            }
        }
        add(&self.stats.copyset_queries, 1);
        let mut pending: BTreeMap<NodeId, Vec<ObjectId>> = BTreeMap::new();
        for (owner, objs) in remote {
            if owner != self.node && self.is_peer_dead(owner) {
                // The recorded owner is a corpse: no replicas reachable
                // through it. Flush nowhere; the objects are re-homed (or
                // declared lost) by the fetch-side orphan recovery.
                for o in objs {
                    result.insert(o, CopySet::EMPTY);
                }
                continue;
            }
            add(&self.stats.copyset_query_msgs, 1);
            self.send(
                owner,
                DsmMsg::OwnerCopysetQuery {
                    objects: objs.clone(),
                    requester: self.node,
                },
            )?;
            pending.insert(owner, objs);
        }
        let mut handled = self.dead_set();
        while !pending.is_empty() {
            match self.wait_reply_or_dead(crate::runtime::WaitOp::OwnerCopysetReplies, &mut handled)
            {
                Ok((env, DsmMsg::OwnerCopysetReply { copysets })) => {
                    for (o, cs) in copysets {
                        result.insert(o, cs);
                    }
                    pending.remove(&env.src);
                }
                Ok(_) => {
                    return Err(MuninError::ProtocolViolation(
                        "unexpected reply while collecting owner copysets",
                    ))
                }
                Err(MuninError::PeerDied(n)) => {
                    if let Some(objs) = pending.remove(&n) {
                        for o in objs {
                            result.insert(o, CopySet::EMPTY);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.charge_sys(self.cost.dir_op());
        Ok(result)
    }

    /// Flushes the DUQ at once if any of `objects` is sitting in it: a hint
    /// that acts on a variable first brings its copies up to date.
    fn flush_if_pending(self: &Arc<Self>, objects: &[ObjectId]) -> Result<()> {
        let any_pending = {
            let duq = self.duq.lock();
            objects.iter().any(|o| duq.contains(*o))
        };
        if any_pending {
            self.flush_duq()?;
        }
        Ok(())
    }

    /// `Invalidate()` hint: deletes the local copy of every object of a
    /// variable, propagating pending changes first.
    pub(crate) fn invalidate_hint(self: &Arc<Self>, objects: &[ObjectId]) -> Result<()> {
        self.flush_if_pending(objects)?;
        let mut dir = self.dir.lock();
        for o in objects {
            let e = dir.entry_mut(*o);
            if e.state.owned {
                if e.home == self.node {
                    // The home's owned copy *is* the object, where later
                    // fetches find the data: nothing to delete, and "owned,
                    // no rights" keeps meaning "never materialised".
                    continue;
                }
                // Give ownership back to the home node so later fetches can
                // still find the data there.
                e.state.owned = false;
                e.probable_owner = e.home;
            }
            self.set_entry_rights(e, AccessRights::Invalid);
            e.state.dirty = false;
        }
        Ok(())
    }

    /// `PhaseChange()` hint: "purges the accumulated sharing relationship
    /// information", so the next flush re-determines producer-consumer
    /// copysets.
    pub(crate) fn phase_change(self: &Arc<Self>) {
        // Lock order dir → duq, like every other path that holds both (the
        // invalidate handler encodes its flush under the directory lock).
        let mut dir = self.dir.lock();
        let duq = self.duq.lock();
        dir.phase += 1;
        for idx in 0..dir.len() {
            let e = dir.entry_mut(ObjectId::new(idx as u32));
            if e.params.is_stable() {
                // Clear the "relationship is fixed" bit so the next flush
                // re-determines the copyset. The recorded copyset itself is
                // kept: at the owner it doubles as the record of served
                // fetches that the owner-collected determination relies on.
                e.state.copyset_fixed = false;
                e.state.phase_voided = false;
                // Pages promoted to locally-writable ("private") must be
                // write-protected again so that writes under the new sharing
                // relationships are detected and propagated.
                if e.state.rights == AccessRights::ReadWrite && !duq.contains(e.object) {
                    self.set_entry_rights(e, AccessRights::Read);
                }
            }
        }
    }

    /// `ChangeAnnotation()` hint: switches the protocol used for a variable's
    /// objects. Pending delayed updates are flushed first so the object is
    /// brought up to date under its old protocol.
    pub(crate) fn change_annotation(
        self: &Arc<Self>,
        objects: &[ObjectId],
        annotation: crate::annotation::SharingAnnotation,
    ) -> Result<()> {
        self.flush_if_pending(objects)?;
        let mut dir = self.dir.lock();
        for o in objects {
            let e = dir.entry_mut(*o);
            e.set_annotation(annotation);
            e.state.copyset_fixed = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::SharingAnnotation;
    use crate::config::MuninConfig;
    use crate::msg::UpdateBundle;
    use crate::segment::SharedDataTable;
    use munin_sim::{CostModel, Network, NodeClock, VirtTime};
    use std::collections::HashSet;

    fn single_node() -> Arc<NodeRuntime> {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8);
        table.declare("pc", SharingAnnotation::ProducerConsumer, 4, 8);
        table.declare("res", SharingAnnotation::Result, 4, 8);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(1));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(1, CostModel::fast_test());
        let (sender, _rx) = net.endpoint(0, clock.clone()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            1,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            sender,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        rt
    }

    fn obj(rt: &NodeRuntime, name: &str) -> ObjectId {
        rt.table().var_by_name(name).unwrap().objects[0]
    }

    #[test]
    fn flush_on_single_node_clears_duq_and_reprotects() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        rt.fault(ws, true, 0).unwrap();
        rt.install_object_bytes(ws, &[7u8; 32]);
        rt.flush_duq().unwrap();
        assert!(rt.duq.lock().is_empty());
        // Write-shared copies are re-write-protected after a flush.
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Read);
        assert_eq!(rt.stats().snapshot().duq_flushes, 1);
        assert_eq!(rt.stats().snapshot().duq_objects_flushed, 1);
    }

    #[test]
    fn stable_object_with_empty_copyset_becomes_private() {
        let rt = single_node();
        let pc = obj(&rt, "pc");
        rt.fault(pc, true, 0).unwrap();
        rt.flush_duq().unwrap();
        let dir = rt.dir.lock();
        let e = dir.entry(pc);
        assert!(e.state.copyset_fixed);
        assert_eq!(e.state.rights, AccessRights::ReadWrite);
        drop(dir);
        // A subsequent write does not fault, create a twin, or enqueue.
        let before = rt.stats().snapshot();
        rt.fault_in(&[pc], true).unwrap();
        assert_eq!(rt.stats().snapshot().write_faults, before.write_faults);
        assert!(rt.duq.lock().is_empty());
    }

    #[test]
    fn result_object_at_owner_flushes_locally() {
        let rt = single_node();
        let res = obj(&rt, "res");
        rt.fault(res, true, 0).unwrap();
        rt.install_object_bytes(res, &[1u8; 32]);
        rt.flush_duq().unwrap();
        // The owner keeps its (authoritative) copy.
        assert!(rt.dir.lock().entry(res).state.rights.allows_read());
        assert_eq!(rt.stats().snapshot().updates_sent, 0);
    }

    #[test]
    fn phase_change_clears_fixed_copysets() {
        let rt = single_node();
        let pc = obj(&rt, "pc");
        rt.fault(pc, true, 0).unwrap();
        rt.flush_duq().unwrap();
        assert!(rt.dir.lock().entry(pc).state.copyset_fixed);
        rt.phase_change();
        assert!(!rt.dir.lock().entry(pc).state.copyset_fixed);
    }

    #[test]
    fn change_annotation_switches_protocol() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        rt.change_annotation(&[ws], SharingAnnotation::Conventional)
            .unwrap();
        let dir = rt.dir.lock();
        assert_eq!(dir.entry(ws).annotation, SharingAnnotation::Conventional);
        assert!(dir.entry(ws).params.uses_invalidate());
    }

    /// `Invalidate()` flushes and drops a replica — but not the owning
    /// home's copy, which is the object itself: "owned, no rights" is how an
    /// owner knows, without looking, that an object was never materialised
    /// (`reply_image`), and live data must never be in that state.
    #[test]
    fn invalidate_hint_drops_a_replica_but_not_the_owning_homes_copy() {
        let rt = single_node();
        let ws = obj(&rt, "ws");
        rt.fault(ws, true, 0).unwrap();
        rt.invalidate_hint(&[ws]).unwrap();
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Read);
        assert!(rt.duq.lock().is_empty());

        rt.dir.lock().entry_mut(ws).state.owned = false;
        rt.invalidate_hint(&[ws]).unwrap();
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Invalid);
    }

    #[test]
    fn empty_flush_is_cheap_and_counted() {
        let rt = single_node();
        rt.flush_duq().unwrap();
        let snap = rt.stats().snapshot();
        assert_eq!(snap.duq_flushes, 1);
        assert_eq!(snap.duq_objects_flushed, 0);
        assert_eq!(snap.updates_sent, 0);
    }

    /// Builds a runtime on node 0 of a three-node network (the peers are
    /// driven manually) so copysets with several members can be exercised.
    fn three_node_runtime() -> Arc<NodeRuntime> {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(3));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(3, CostModel::fast_test());
        let (sender, _rx0) = net.endpoint(0, clock.clone()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            3,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            sender,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        rt
    }

    /// The flush fan-out guarantee: one DUQ entry is diff-encoded exactly
    /// once, and the per-destination payload clones share that single flat
    /// buffer via `Arc` instead of re-encoding or deep-copying.
    #[test]
    fn encode_entry_shares_one_encoding_across_destinations() {
        let rt = three_node_runtime();
        let ws = obj(&rt, "ws");
        // Take a write fault (creates the twin), modify the object, and give
        // the object a two-member copyset so the flush fans out.
        rt.fault(ws, true, 0).unwrap();
        rt.install_object_bytes(ws, &[7u8; 32]);
        {
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(NodeId::new(1));
            e.copyset.insert(NodeId::new(2));
        }
        assert!(rt.duq.lock().twin_of(ws).is_some());
        let (payload, route) = rt.encode_entry(ws).unwrap();
        assert!(rt.duq.lock().is_empty(), "encoding takes the entry out");
        let destinations = route.destinations;
        assert!(route.fans_out && route.owned);
        assert_eq!(
            destinations,
            NodeSet::from_nodes([NodeId::new(1), NodeId::new(2)])
        );
        let payload = payload.expect("modified object yields a payload");
        let UpdatePayload::Diff(ref d) = payload else {
            panic!("twin-backed entry must encode a diff, not a full image");
        };
        assert_eq!(d.changed_words(), 8);
        // Fan the payload out as flush_duq does and verify every clone
        // shares the same underlying buffer — i.e. exactly one encoding.
        let fanned: Vec<UpdatePayload> = destinations.iter().map(|_| payload.clone()).collect();
        for p in &fanned {
            let UpdatePayload::Diff(c) = p else {
                unreachable!()
            };
            assert!(
                std::ptr::eq(c.as_wire_bytes(), d.as_wire_bytes()),
                "per-destination clones must share one encoding"
            );
        }
        // The twin buffer went back to the pool for the next first-write.
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
    }

    /// End-to-end healing: the flusher's determination missed a member, the
    /// owner's ack reports it, and the flusher re-sends the update to the
    /// missed member before completing the release.
    #[test]
    fn flush_heals_members_reported_by_owner_ack() {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(3));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(3, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        let (tx2, rx2) = net.endpoint(2, NodeClock::new()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            3,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        let ws = rt.table().var_by_name("ws").unwrap().objects[0];
        // Node 0 knows only of the replica at N1; N2's copy is "invisible"
        // to its determination (as if N2 fetched after the query round).
        rt.fault(ws, true, 0).unwrap();
        rt.install_object_bytes(ws, &[7u8; 32]);
        {
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(NodeId::new(1));
            e.state.copyset_fixed = true; // skip the query round
        }
        // Service loop for node 0 (routes acks back to the flushing thread).
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let flusher_rt = Arc::clone(&rt);
        let flusher = std::thread::spawn(move || flusher_rt.flush_duq());
        // Peer 1 ("owner" in the reported sense) acks and reports that N2
        // also holds a copy.
        let (_env, msg) = rx1.recv().unwrap();
        let DsmMsg::Update(UpdateBundle { items, .. }) = msg else {
            panic!("expected update at N1, got {msg:?}");
        };
        assert_eq!(items.len(), 1);
        tx1.send(
            NodeId::new(0),
            "update_ack",
            40,
            DsmMsg::UpdateAck {
                count: 1,
                owned_copysets: vec![(ws, CopySet::from_nodes([NodeId::new(1), NodeId::new(2)]))],
            },
        )
        .unwrap();
        // The flusher must now heal N2 with the same payload.
        let (_env, msg) = rx2.recv().unwrap();
        let DsmMsg::Update(UpdateBundle { items, .. }) = msg else {
            panic!("expected healing update at N2, got {msg:?}");
        };
        assert_eq!(items[0].object, ws);
        tx2.send(
            NodeId::new(0),
            "update_ack",
            40,
            DsmMsg::UpdateAck {
                count: 1,
                owned_copysets: vec![],
            },
        )
        .unwrap();
        flusher.join().unwrap().unwrap();
        assert_eq!(rt.stats().snapshot().updates_healed, 1);
        assert_eq!(rt.stats().snapshot().updates_sent, 2);
        // N2 is remembered for future flushes.
        assert!(rt.dir.lock().entry(ws).copyset.contains(NodeId::new(2)));
        // Shut the service loop down.
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }

    /// Flushing reuses both the twin buffer (via the DUQ pool) and the diff
    /// scratch allocation across flush cycles. The page has a replica at N1,
    /// so each cycle encodes a diff; the barrier flush hands it back for the
    /// arrive instead of waiting for an acknowledgement.
    #[test]
    fn flush_cycle_reuses_twin_and_scratch_allocations() {
        let rt = three_node_runtime();
        let ws = obj(&rt, "ws");
        let n1 = NodeId::new(1);
        {
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(n1);
            e.state.copyset_fixed = true;
        }
        let mode = FlushMode::BarrierRelay {
            owner: n1,
            star: true,
        };
        // First cycle warms the pool and the scratch.
        rt.fault(ws, true, 0).unwrap();
        rt.install_object_bytes(ws, &[1u8; 32]);
        let (relay, _) = rt.flush_duq_mode(mode).unwrap();
        assert_eq!(relay[&n1].len(), 1, "the diff goes to N1");
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
        let scratch_cap = rt.diff_scratch.lock().capacity();
        assert!(scratch_cap > 0);
        // Second cycle must not grow either allocation.
        rt.fault(ws, true, 0).unwrap();
        assert_eq!(rt.duq.lock().pooled_twins(), 0, "twin taken from pool");
        rt.install_object_bytes(ws, &[2u8; 32]);
        let (relay, _) = rt.flush_duq_mode(mode).unwrap();
        assert_eq!(relay[&n1].len(), 1);
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
        assert_eq!(rt.diff_scratch.lock().capacity(), scratch_cap);
    }

    /// Dirties `object` in one word-aligned 32-byte write, takes it out of
    /// the DUQ through `encode_entry`, and returns what that produced and how
    /// far it moved the node clock.
    fn encode_dirty(
        rt: &Arc<NodeRuntime>,
        object: ObjectId,
    ) -> (Option<UpdatePayload>, FlushRoute, VirtTime) {
        rt.fault(object, true, 0).unwrap();
        rt.install_object_bytes(object, &[7u8; 32]);
        let before = rt.clock.now();
        let (payload, route) = rt.encode_entry(object).unwrap();
        (payload, route, rt.clock.now() - before)
    }

    /// What a flush is charged, when nobody receives the changes: the entry
    /// leaves the DUQ and its twin goes back to the pool, but no diff is
    /// made — the clock does not move and the diff scratch is never touched
    /// — and the page takes `rights`, as it would have with a discarded diff.
    fn assert_left_unencoded(name: &str, rights: AccessRights) {
        let rt = single_node();
        let object = obj(&rt, name);
        let (payload, route, charged) = encode_dirty(&rt, object);
        assert!(payload.is_none(), "{name}: nothing to send");
        assert!(route.coop_owner.is_none() && route.destinations.is_empty());
        assert_eq!(charged, VirtTime::ZERO, "{name}: no encode charged");
        assert_eq!(rt.diff_scratch.lock().capacity(), 0, "{name}: no diff");
        assert!(rt.duq.lock().is_empty());
        assert_eq!(rt.duq.lock().pooled_twins(), 1, "{name}: twin pooled");
        let dir = rt.dir.lock();
        assert_eq!(dir.entry(object).state.rights, rights, "{name}");
        assert!(!dir.entry(object).state.dirty, "{name}");
    }

    /// An owned write-shared page with an empty copyset is re-write-protected
    /// so the next write makes a fresh twin.
    #[test]
    fn a_write_shared_page_nobody_holds_is_not_encoded() {
        assert_left_unencoded("ws", AccessRights::Read);
    }

    /// A stable page with an empty copyset is private: "made locally
    /// writable, their twins are deleted".
    #[test]
    fn a_private_producer_consumer_page_is_not_encoded() {
        assert_left_unencoded("pc", AccessRights::ReadWrite);
    }

    /// A `result` page flushed at its own home: the changes are already
    /// where they go, and the home keeps its rights.
    #[test]
    fn a_result_page_at_its_home_is_not_encoded() {
        assert_left_unencoded("res", AccessRights::ReadWrite);
    }

    /// Asserts that `payload` is a diff of the 32-byte write `encode_dirty`
    /// made, charged exactly `encode(words, runs)`, with the twin pooled.
    fn assert_encoded(rt: &NodeRuntime, payload: Option<UpdatePayload>, charged: VirtTime) {
        let Some(UpdatePayload::Diff(d)) = payload else {
            panic!("a page with a receiver is encoded: {payload:?}");
        };
        assert_eq!(d.changed_words(), 8);
        assert_eq!(charged, rt.cost.encode(8, d.run_count() as u64));
        assert!(rt.diff_scratch.lock().capacity() > 0);
        assert!(rt.duq.lock().is_empty());
        assert_eq!(rt.duq.lock().pooled_twins(), 1);
    }

    /// A cooperative entry always has a receiver, its owner, even with an
    /// empty local copyset: it is encoded, charged, and rides the arrive to
    /// the star's owner.
    #[test]
    fn a_cooperative_entry_with_an_empty_copyset_is_encoded_for_its_owner() {
        let n1 = NodeId::new(1);
        let (rt, net, _tx1, _rx1, _tx2, _rx2, _rx0, ws) = coop_harness();
        // `coop_harness` dirtied the page already; encode it the flush's way.
        let before = rt.clock.now();
        let mode = FlushMode::BarrierRelay {
            owner: n1,
            star: true,
        };
        let (relay, mut ride) = rt.flush_duq_mode(mode).unwrap();
        assert!(relay.is_empty());
        assert_eq!(ride.len(), 1);
        let item = ride.pop().unwrap();
        assert_eq!(item.object, ws);
        assert_encoded(&rt, Some(item.payload), rt.clock.now() - before);
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Read);
        drop(net);
    }

    /// A page with one receiver is charged exactly `encode(words, runs)`.
    #[test]
    fn a_page_with_one_receiver_is_charged_its_encode() {
        let rt = three_node_runtime();
        let ws = obj(&rt, "ws");
        rt.dir.lock().entry_mut(ws).copyset.insert(NodeId::new(1));
        let (payload, route, charged) = encode_dirty(&rt, ws);
        assert_eq!(route.destinations, NodeSet::from_nodes([NodeId::new(1)]));
        assert_encoded(&rt, payload, charged);
        assert_eq!(rt.dir.lock().entry(ws).state.rights, AccessRights::Read);
    }

    /// Builds the three-node manual harness used by the owner-cooperative
    /// flush tests: node 0 runs a real runtime (with a non-owned `ws` whose
    /// owner hint points at N1), nodes 1 and 2 are driven by hand.
    #[allow(clippy::type_complexity)]
    fn coop_harness() -> (
        Arc<NodeRuntime>,
        Network<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        ObjectId,
    ) {
        let (rt, net, tx1, rx1, tx2, rx2, rx0, objects) = coop_harness_owned_by(&[1]);
        (rt, net, tx1, rx1, tx2, rx2, rx0, objects[0])
    }

    /// The same harness with one dirty, non-owned `ws` object per entry of
    /// `owners`, each with its owner hint at that node.
    #[allow(clippy::type_complexity)]
    fn coop_harness_owned_by(
        owners: &[usize],
    ) -> (
        Arc<NodeRuntime>,
        Network<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Sender<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        munin_sim::net::Receiver<DsmMsg>,
        Vec<ObjectId>,
    ) {
        let mut table = SharedDataTable::new(32);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8 * owners.len());
        let table = Arc::new(table);
        // A relay threshold between a one-word diff and a whole-object one
        // (32-byte objects), for the barrier-flush tests.
        let cfg = Arc::new(MuninConfig::fast_test(3).with_relay_max_bytes(16));
        let clock = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(3, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        let (tx2, rx2) = net.endpoint(2, NodeClock::new()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            3,
            cfg,
            table,
            vec![],
            vec![],
            clock,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        let objects = rt.table().var_by_name("ws").unwrap().objects.clone();
        assert_eq!(objects.len(), owners.len());
        for (ws, owner) in objects.iter().zip(owners) {
            rt.fault(*ws, true, 0).unwrap();
            rt.install_object_bytes(*ws, &[7u8; 32]);
            // Not owned here, owner hint at a peer, copyset never
            // determined: exactly the shape that takes the cooperative route.
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(*ws);
            e.state.owned = false;
            e.probable_owner = NodeId::new(*owner);
            assert!(!e.state.copyset_fixed);
        }
        // rx0 is consumed by the caller's server loop; return it alongside.
        (rt, net, tx1, rx1, tx2, rx2, rx0, objects)
    }

    /// The owner-cooperative path end-to-end from the flusher's side: a
    /// non-owned fan-out bundle ships whole to the owner hint on
    /// `Route::OwnerFanout` (no copyset-determination round), and the
    /// release completes once the owner's fan-out ack plus one `UpdateAck` per
    /// reported re-fan destination have arrived. That is the path at a lock
    /// release or a hint, and at a barrier too whenever the owner hint is not
    /// the barrier's owner or the barrier is not a star.
    #[test]
    fn flush_ships_non_owned_bundle_to_cooperative_owner() {
        let (n1, n2) = (NodeId::new(1), NodeId::new(2));
        for mode in [
            FlushMode::Immediate,
            FlushMode::BarrierRelay {
                owner: n2,
                star: true,
            },
            FlushMode::BarrierRelay {
                owner: n1,
                star: false,
            },
        ] {
            let (rt, net, tx1, rx1, tx2, _rx2, rx0, ws) = coop_harness();
            let server_rt = Arc::clone(&rt);
            let server = std::thread::spawn(move || server_rt.server_loop(rx0));
            let flusher_rt = Arc::clone(&rt);
            let flusher = std::thread::spawn(move || flusher_rt.flush_duq_mode(mode));
            // The whole bundle arrives at the owner hint, not at copyset
            // members.
            let (_env, msg) = rx1.recv().unwrap();
            let DsmMsg::Update(UpdateBundle {
                items,
                origin,
                seq,
                route: Route::OwnerFanout { ride: None },
            }) = msg
            else {
                panic!("{mode:?}: expected a cooperative fan-out at N1, got {msg:?}");
            };
            assert_eq!(origin, NodeId::new(0));
            assert_eq!(seq, 0, "first slot of the 0->1 update stream");
            assert_eq!(items.len(), 1);
            assert_eq!(items[0].object, ws);
            assert!(!flusher.is_finished(), "{mode:?}: the flush waits");
            // The owner re-fanned to N2; N2's ack goes straight to the origin.
            tx1.send(
                NodeId::new(0),
                "relay_fanout_ack",
                24,
                DsmMsg::RelayFanoutAck {
                    refanned: vec![n2],
                    rejected: vec![],
                },
            )
            .unwrap();
            tx2.send(
                NodeId::new(0),
                "update_ack",
                40,
                DsmMsg::UpdateAck {
                    count: 1,
                    owned_copysets: vec![],
                },
            )
            .unwrap();
            let (relay, ride) = flusher.join().unwrap().unwrap();
            assert!(relay.is_empty() && ride.is_empty(), "{mode:?}");
            let snap = rt.stats().snapshot();
            assert_eq!(snap.copyset_queries, 0, "coop entries skip determination");
            assert_eq!(snap.updates_sent, 1, "one bundle, shipped once");
            tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
                .unwrap();
            server.join().unwrap();
            drop(net);
        }
    }

    /// A non-owned flush rides the barrier. At a star whose owner is the
    /// page's owner hint, the cooperative bundle goes nowhere during the
    /// flush: nothing is put on the wire for it, no ack wait is entered (no
    /// service loop runs here, so one would never return), and the bundle
    /// comes back for the arrive, where it draws its slot of the stream to
    /// the owner and is counted, as sent and as piggybacked.
    #[test]
    fn barrier_flush_hands_a_page_of_the_stars_owner_to_the_arrive() {
        let n1 = NodeId::new(1);
        let (rt, net, _tx1, rx1, _tx2, rx2, _rx0, ws) = coop_harness();
        let mode = FlushMode::BarrierRelay {
            owner: n1,
            star: true,
        };
        let (relay, ride) = rt.flush_duq_mode(mode).unwrap();
        assert!(relay.is_empty());
        assert_eq!(ride.iter().map(|i| i.object).collect::<Vec<_>>(), vec![ws]);
        assert!(
            rx1.try_recv().unwrap().is_none(),
            "nothing sent to the owner"
        );
        assert!(rx2.try_recv().unwrap().is_none());
        assert!(rt.duq.lock().is_empty());
        let snap = rt.stats().snapshot();
        assert_eq!((snap.updates_sent, snap.copyset_queries), (0, 0));
        // The arrive site's draw.
        let riding = Route::OwnerFanout {
            ride: Some(crate::sync::BarrierId(0)),
        };
        let bundle = rt.next_bundle(n1, rt.clock.now(), ride, riding);
        assert_eq!(bundle.seq, 0, "first slot of the 0->1 update stream");
        let snap = rt.stats().snapshot();
        assert_eq!((snap.updates_sent, snap.msgs_piggybacked), (1, 1));
        drop(net);
    }

    /// A stale owner hint: the cooperative owner bounces the bundle, the
    /// flusher repairs the hint back to the home node and falls back to the
    /// degraded acknowledged broadcast, so the release still completes with
    /// every live peer having seen the update.
    #[test]
    fn flush_repairs_hint_and_broadcasts_bundle_bounced_by_coop_owner() {
        let (rt, net, tx1, rx1, tx2, rx2, rx0, ws) = coop_harness();
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let flusher_rt = Arc::clone(&rt);
        let flusher = std::thread::spawn(move || flusher_rt.flush_duq());
        let (_env, msg) = rx1.recv().unwrap();
        assert_eq!(msg.class(), "relay_fanout", "at N1: {msg:?}");
        // N1 does not own `ws` after all: bounce the whole bundle.
        tx1.send(
            NodeId::new(0),
            "relay_fanout_ack",
            24,
            DsmMsg::RelayFanoutAck {
                refanned: vec![],
                rejected: vec![ws],
            },
        )
        .unwrap();
        // Degraded fallback: both peers get an ordinary acknowledged update.
        for (tx, rx) in [(&tx1, &rx1), (&tx2, &rx2)] {
            let (_env, msg) = rx.recv().unwrap();
            let DsmMsg::Update(UpdateBundle { items, route, .. }) = msg else {
                panic!("expected a degraded broadcast update, got {msg:?}");
            };
            assert_eq!(route, Route::DirectAcked);
            assert_eq!(items[0].object, ws);
            tx.send(
                NodeId::new(0),
                "update_ack",
                40,
                DsmMsg::UpdateAck {
                    count: 1,
                    owned_copysets: vec![],
                },
            )
            .unwrap();
        }
        flusher.join().unwrap().unwrap();
        // The stale hint now points back at the home node, the first link of
        // the probable-owner chain.
        {
            let dir = rt.dir.lock();
            let e = dir.entry(ws);
            assert_eq!(e.probable_owner, e.home);
        }
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }

    /// `Flush()` sends at once, carriers notwithstanding: when the hint
    /// returns, the changes have gone out as an acknowledged `Update`, the
    /// acknowledgement is in, and nothing is left behind for a later release
    /// or carrier to deliver.
    #[test]
    fn flush_hint_sends_an_acknowledged_update_and_leaves_nothing_behind() {
        let (rt, net, tx1, rx1, _tx2, rx2, rx0, ws) = coop_harness();
        {
            // Owned here, with a replica at N1 and the copyset pinned so the
            // flush needs no determination round.
            let mut dir = rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.owned = true;
            e.copyset.insert(NodeId::new(1));
            e.state.copyset_fixed = true;
        }
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let hint_rt = Arc::clone(&rt);
        let hint = std::thread::spawn(move || hint_rt.flush_duq());
        let (_env, msg) = rx1.recv().unwrap();
        let DsmMsg::Update(UpdateBundle { items, route, .. }) = msg else {
            panic!("expected the hint's update at N1, got {msg:?}");
        };
        assert_eq!(route, Route::DirectAcked);
        assert_eq!(items[0].object, ws);
        assert!(!hint.is_finished(), "the hint waits for the ack");
        tx1.send(
            NodeId::new(0),
            "update_ack",
            40,
            DsmMsg::UpdateAck {
                count: 1,
                owned_copysets: vec![],
            },
        )
        .unwrap();
        hint.join().unwrap().unwrap();
        assert!(rt.duq.lock().is_empty());
        assert_eq!(rt.outbox.lock().relay_len(), 0);
        let snap = rt.stats().snapshot();
        assert_eq!((snap.updates_sent, snap.flushes_coalesced), (1, 0));
        assert!(rx2.try_recv().unwrap().is_none(), "N2 holds no copy");
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }

    /// Two cooperative owners, one a re-fan destination of the other: N1
    /// re-fans its bundle to N2, and N2's `UpdateAck` for that reaches the
    /// origin before N2's own `RelayFanoutAck`. The two kinds of ack owed
    /// by N2 must not be mistaken for one another.
    #[test]
    fn update_ack_from_an_owner_is_not_taken_for_its_fanout_ack() {
        let (rt, net, tx1, rx1, tx2, rx2, rx0, _objects) = coop_harness_owned_by(&[1, 2]);
        let server_rt = Arc::clone(&rt);
        let server = std::thread::spawn(move || server_rt.server_loop(rx0));
        let flusher_rt = Arc::clone(&rt);
        let flusher = std::thread::spawn(move || flusher_rt.flush_duq());
        for rx in [&rx1, &rx2] {
            let (_env, msg) = rx.recv().unwrap();
            assert_eq!(msg.class(), "relay_fanout");
        }
        let fanout_ack = |refanned| DsmMsg::RelayFanoutAck {
            refanned,
            rejected: vec![],
        };
        tx2.send(
            NodeId::new(0),
            "update_ack",
            40,
            DsmMsg::UpdateAck {
                count: 1,
                owned_copysets: vec![],
            },
        )
        .unwrap();
        tx2.send(NodeId::new(0), "relay_fanout_ack", 24, fanout_ack(vec![]))
            .unwrap();
        tx1.send(
            NodeId::new(0),
            "relay_fanout_ack",
            24,
            fanout_ack(vec![NodeId::new(2)]),
        )
        .unwrap();
        flusher.join().unwrap().unwrap();
        tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
            .unwrap();
        server.join().unwrap();
        drop(net);
    }

    /// Acks are matched to expectations by sender, in either order. A re-fan
    /// destination's ack may overtake the owner's `RelayFanoutAck` (it is
    /// then held until claimed), and an ack nobody claims — a dead owner's
    /// re-fan, here played by a spurious one — must not shorten the count:
    /// the release used to finish one ack early per such message and leave
    /// the last real ack in the mailbox for the next wait to trip over.
    #[test]
    fn acks_count_only_against_an_expectation_from_their_sender() {
        let ack = || DsmMsg::UpdateAck {
            count: 1,
            owned_copysets: vec![],
        };
        for bounce in [false, true] {
            let (rt, net, tx1, rx1, tx2, rx2, rx0, ws) = coop_harness();
            let server_rt = Arc::clone(&rt);
            let server = std::thread::spawn(move || server_rt.server_loop(rx0));
            let flusher_rt = Arc::clone(&rt);
            let flusher = std::thread::spawn(move || flusher_rt.flush_duq());
            let (_env, msg) = rx1.recv().unwrap();
            assert_eq!(msg.class(), "relay_fanout");
            // N2's ack reaches the origin before the owner's does.
            tx2.send(NodeId::new(0), "update_ack", 40, ack()).unwrap();
            let (refanned, rejected) = if bounce {
                (vec![], vec![ws])
            } else {
                (vec![NodeId::new(2)], vec![])
            };
            tx1.send(
                NodeId::new(0),
                "relay_fanout_ack",
                24,
                DsmMsg::RelayFanoutAck { refanned, rejected },
            )
            .unwrap();
            if bounce {
                // Nobody claimed the early ack, and the fallback broadcast
                // needs both of its own.
                for (tx, rx) in [(&tx1, &rx1), (&tx2, &rx2)] {
                    let (_env, msg) = rx.recv().unwrap();
                    assert_eq!(msg.class(), "update");
                    tx.send(NodeId::new(0), "update_ack", 40, ack()).unwrap();
                }
            }
            flusher.join().unwrap().unwrap();
            tx1.send(NodeId::new(0), "shutdown", 8, DsmMsg::Shutdown)
                .unwrap();
            server.join().unwrap();
            // Only the `Shutdown` is left for the user thread.
            while let Ok((_env, left)) = rt.reply_rx.try_recv() {
                assert!(
                    matches!(left, DsmMsg::Shutdown),
                    "bounce={bounce}: {left:?} was left behind in the mailbox"
                );
            }
            drop(net);
        }
    }

    /// The routing table, whole: every (mode, fan-out or flush-to-owner,
    /// owned or not, destination, payload size) combination has exactly the
    /// route the module documentation promises. Only an owner-flushed
    /// fan-out item at a barrier is ever relayed or fenced, size picks
    /// between those two alone, and only a payload at or over the
    /// threshold, bound for someone other than the barrier owner, is fenced.
    #[test]
    fn classify_routes_every_mode_ownership_destination_and_size() {
        let (special, other) = (NodeId::new(1), NodeId::new(2));
        let max = 512;
        let modes = [
            FlushMode::Immediate,
            FlushMode::BarrierRelay {
                owner: special,
                star: false,
            },
            FlushMode::BarrierRelay {
                owner: special,
                star: true,
            },
            FlushMode::LockRelay { grantee: special },
        ];
        for mode in modes {
            for (fans_out, owned) in [(true, true), (true, false), (false, true), (false, false)] {
                let route = FlushRoute {
                    fans_out,
                    owned,
                    coop_owner: None,
                    destinations: NodeSet::EMPTY,
                };
                for dest in [special, other] {
                    let at_barrier = matches!(mode, FlushMode::BarrierRelay { .. });
                    let to_grantee = matches!(mode, FlushMode::LockRelay { .. }) && dest == special;
                    let small = classify(mode, &route, dest, max - 1, max);
                    let big = classify(mode, &route, dest, max, max);
                    let expected = if fans_out && owned && at_barrier {
                        let big = if dest == special {
                            Dispatch::Relay
                        } else {
                            Dispatch::Fenced
                        };
                        (Dispatch::Relay, big)
                    } else if (fans_out && owned && to_grantee)
                        || (!fans_out && at_barrier && dest == special)
                    {
                        (Dispatch::Relay, Dispatch::Relay)
                    } else {
                        (Dispatch::Acked, Dispatch::Acked)
                    };
                    assert_eq!(
                        (small, big),
                        expected,
                        "{mode:?}, fans_out={fans_out}, owned={owned}, to {dest:?}"
                    );
                    assert_eq!(small == Dispatch::Acked, big == Dispatch::Acked);
                }
            }
        }
    }

    /// The barrier is the ack, from the flusher's side. A barrier flush of
    /// one over-threshold page this node owns puts exactly one update on the
    /// wire, unacknowledged, and returns with nobody having answered it;
    /// what it hands the arrive site for that destination draws the very
    /// next slot of the same stream — the fence. A small diff for the same
    /// destination in the same flush rides in that bundle, not in a second.
    #[test]
    fn barrier_flush_sends_a_big_page_unacked_and_hands_the_arrive_its_fence() {
        let (n1, n2) = (NodeId::new(1), NodeId::new(2));
        for with_small_diff in [false, true] {
            let (rt, net, _tx1, rx1, _tx2, rx2, _rx0, ws) = coop_harness_owned_by(&[1, 1]);
            for o in &ws {
                // Owned here, with a replica at N1 and the copyset pinned so
                // the flush needs no determination round.
                let mut dir = rt.dir.lock();
                let e = dir.entry_mut(*o);
                e.state.owned = true;
                e.copyset.insert(n1);
                e.state.copyset_fixed = true;
            }
            // The first object is dirty all over; the second in one word,
            // or (its twin restored) not at all.
            let mut second = [0u8; 32];
            second[..4].fill(if with_small_diff { 7 } else { 0 });
            rt.install_object_bytes(ws[1], &second);
            let mode = FlushMode::BarrierRelay {
                owner: n2,
                star: true,
            };
            let (relay, ride) = rt.flush_duq_mode(mode).unwrap();
            assert!(ride.is_empty(), "every page here is owned here");
            let (_env, msg) = rx1.recv().unwrap();
            let DsmMsg::Update(update) = msg else {
                panic!("expected the big page's update at N1, got {msg:?}");
            };
            assert_eq!(update.route, Route::DirectUnacked);
            assert_eq!(update.items.len(), 1);
            assert_eq!(update.items[0].object, ws[0]);
            assert!(rx1.try_recv().unwrap().is_none(), "one message to N1");
            assert!(rx2.try_recv().unwrap().is_none(), "N2 holds no copy");
            assert_eq!(relay.keys().copied().collect::<Vec<_>>(), vec![n1]);
            let items = relay[&n1].clone();
            assert_eq!(items.len(), with_small_diff as usize);
            // The arrive site's draw.
            let fence = rt.next_bundle(n1, rt.clock.now(), items, Route::Carried);
            assert_eq!(fence.seq, update.seq + 1);
            // A fence that carries nothing counts as no update.
            let snap = rt.stats().snapshot();
            let sent = 1 + with_small_diff as u64;
            assert_eq!((snap.updates_sent, snap.msgs_piggybacked), (sent, sent - 1));
            assert_eq!(
                snap.relay_bypassed_bytes,
                update.items[0].payload.model_bytes()
            );
            drop(net);
        }
    }
}
