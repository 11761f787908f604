//! The runtime service loop: handling requests from other nodes.
//!
//! This is the reproduction of the paper's "Munin worker threads": one thread
//! per node that receives protocol messages and performs the corresponding
//! directory, memory, and synchronization work. Handlers never block waiting
//! for a remote reply; requests that hit a directory entry in transition are
//! deferred and retried when the transition completes.

use std::sync::Arc;

use munin_sim::{Envelope, NodeId, Receiver, VirtTime};

use crate::diff;
use crate::msg::{
    DsmMsg, FetchRequest, ReduceOp, Route, TimerKind, UpdateBundle, UpdateItem, UpdatePayload,
};
use crate::nodeset::NodeSet;
use crate::object::ObjectId;
use crate::obs::EventKind;
use crate::stats::{add, bump};
use crate::sync::{BarrierId, LockId, RemoteAcquireAction, TokenArrival};

use super::coherence::{self, Invalidated, Serve};
use super::{proto_trace, DeferredOn, NodeRuntime, SeqCheck};

/// What [`NodeRuntime::admit`] decided about an arriving update bundle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Install it now (its stream slot, if it has one, is consumed).
    Apply,
    /// Not yet: a target entry is busy or pinned, or a lower-numbered
    /// transmission of its stream is still in flight.
    Defer(DeferredOn),
    /// Its slot was already consumed ([`SeqCheck::Stale`]): drop the items.
    Stale,
}

impl NodeRuntime {
    /// The service loop's receive. Unclocked: a request is handled at its
    /// own arrival time and the node clock — the user thread's — is not
    /// moved to it; only the service-side clock follows the arrivals seen
    /// here (not fired timers, see `NodeRuntime::service_clock`). `None` once
    /// all senders dropped or the inbox was closed by the abort path.
    fn next_delivery(&self, receiver: &Receiver<DsmMsg>) -> Option<(Envelope, DsmMsg)> {
        let (env, msg, is_timer) = receiver.recv_unclocked().ok()?;
        if !is_timer {
            self.advance_service_clock(env.arrival);
        }
        Some((env, msg))
    }

    /// Runs the service loop until a `Done` ends it. Intended to
    /// run on its own OS thread, with the node's network receiver moved in.
    pub fn server_loop(self: Arc<Self>, receiver: Receiver<DsmMsg>) {
        self.health_start();
        loop {
            let Some((env, msg)) = self.next_delivery(&receiver) else {
                // The run is over.
                return;
            };
            if self.handle_incoming(env, msg) {
                self.drain_unacked(&receiver);
                return;
            }
        }
    }

    /// Processes one incoming transmission: unwraps the reliability layer
    /// (acks, dedup, in-order release) when present, then dispatches every
    /// deliverable protocol message. Returns `true` once a `Done` that ends
    /// the service loop has been dispatched.
    pub(crate) fn handle_incoming(self: &Arc<Self>, env: Envelope, msg: DsmMsg) -> bool {
        if self.health_enabled() && env.src != self.node {
            // Confirmed-dead peers are past tense: recovery already pruned
            // them from every copyset and re-homed their objects, so a
            // zombie message (a frozen node thawing after the detection
            // window, or late retransmissions) must not re-enter the
            // protocol. Liveness traffic from everyone else refreshes the
            // detector.
            if self.is_peer_dead(env.src) {
                proto_trace!(self, "drop zombie {} from {:?}", msg.class(), env.src);
                return false;
            }
            self.health_heard(env.src);
        }
        match msg {
            DsmMsg::Timer(kind) => {
                self.obs
                    .record(env.arrival.as_nanos(), EventKind::TimerFire, |_| {});
                match kind {
                    TimerKind::Retransmit => self.reliability_tick(),
                    TimerKind::Health => self.health_tick(),
                }
                false
            }
            // The last-heard refresh above is the heartbeat's entire job.
            DsmMsg::Heartbeat => false,
            DsmMsg::PeerDown { node } => {
                self.confirm_peer_dead(node, true);
                false
            }
            DsmMsg::NetAck { upto } => {
                self.on_net_ack(env.src, upto);
                false
            }
            DsmMsg::Reliable { id, ack, inner } => {
                self.on_net_ack(env.src, ack);
                let mut shutdown = false;
                for released in self.reliable_deliver(env.src, id, *inner) {
                    shutdown |= self.dispatch(env, released);
                }
                shutdown
            }
            msg => self.dispatch(env, msg),
        }
    }

    /// Routes one protocol message to its handler and retries what a
    /// request may have unblocked; `true` for a `Done` ending the service loop.
    fn dispatch(self: &Arc<Self>, env: Envelope, msg: DsmMsg) -> bool {
        let shutdown = matches!(msg, DsmMsg::Done) && !msg.is_completion(&env);
        if self.route(env, msg) {
            self.process_deferred();
        }
        shutdown
    }

    /// Routes one protocol message: a completion notification to its own
    /// channel, where it cannot interleave with a protocol operation the
    /// root's user thread is still performing; a reply to the user thread;
    /// a request to its handler (`true`). A carrier is a request whatever it
    /// frames: unwrapped there, never routed to the user thread directly, so
    /// its payload is installed before the framed message is routed.
    fn route(self: &Arc<Self>, env: Envelope, msg: DsmMsg) -> bool {
        match msg {
            msg if msg.is_completion(&env) => self.done.send((env.src, env.arrival)),
            msg if msg.is_user_reply() => self.route_to_user(env, msg),
            msg => {
                self.handle_request(env, msg);
                return true;
            }
        }
        false
    }

    /// Post-shutdown drain: while this node still holds unacknowledged
    /// outbound messages, keep servicing the reliability layer (acks in,
    /// retransmits out, ack-and-discard any late inner messages) so peers
    /// can finish their own drains, up to a bounded wall-clock deadline.
    /// Without this, a node whose final messages were lost would exit and
    /// strand its peers' retransmit loops until *their* watchdogs fire.
    fn drain_unacked(self: &Arc<Self>, receiver: &Receiver<DsmMsg>) {
        if !self.reliability_enabled() {
            return;
        }
        // Ack the final `Done` frame (and anything else owed) right away: the
        // sender is blocked in its own drain waiting for it, and this node's
        // tick never fires again once the service loop exits.
        self.flush_owed_acks();
        // Messages to confirmed-dead peers will never be acked; waiting out
        // the deadline for them would serialize a full second per survivor.
        for n in self.dead_set().iter() {
            if n != self.node {
                self.purge_peer_link(n);
            }
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
        while self.has_unacked() && std::time::Instant::now() < deadline {
            // A tick is always scheduled while messages are unacked, so this
            // recv wakes at least once per retransmit interval.
            let Some((env, msg)) = self.next_delivery(receiver) else {
                return;
            };
            match msg {
                DsmMsg::Timer(TimerKind::Retransmit) => self.reliability_tick(),
                DsmMsg::NetAck { upto } => self.on_net_ack(env.src, upto),
                DsmMsg::Reliable { id, ack, inner } => {
                    self.on_net_ack(env.src, ack);
                    // Deliverable inners are acknowledged (the dedup frontier
                    // advances) but discarded: the run is over, and anything
                    // arriving now is a retransmission of work already done.
                    let _ = self.reliable_deliver(env.src, id, *inner);
                }
                _ => {}
            }
        }
        // Acks owed for frames that arrived *during* the drain (a peer's
        // retransmissions) flush here so the peer's own drain completes
        // instead of running out its deadline against a closed inbox.
        self.flush_owed_acks();
    }

    /// Dispatches one incoming request. Replies are timestamped from the
    /// request's arrival time plus the service cost, so a busy user thread
    /// does not delay (in virtual time) the service this node provides.
    pub(crate) fn handle_request(self: &Arc<Self>, env: Envelope, msg: DsmMsg) {
        let now = env.arrival;
        match msg {
            DsmMsg::ObjectFetch(fetch) => self.handle_object_fetch(env, fetch),
            DsmMsg::Invalidate { object, requester } => {
                self.handle_invalidate(env, object, requester)
            }
            DsmMsg::Update(bundle) => self.handle_update(env, bundle),
            DsmMsg::CopysetQuery { objects, requester } => {
                self.handle_copyset_query(env, objects, requester)
            }
            DsmMsg::ReduceRequest {
                object,
                offset,
                op,
                requester,
            } => self.handle_reduce(object, offset, op, requester, now),
            DsmMsg::LockAcquire { lock, requester } => {
                self.handle_lock_acquire(lock, requester, now)
            }
            DsmMsg::BarrierArrive {
                barrier,
                from,
                gen,
                arrived,
            } => self.handle_barrier_report(env, barrier, from, gen, arrived),
            DsmMsg::BarrierRelease { barrier, gen } => {
                self.handle_barrier_release(env, barrier, gen)
            }
            DsmMsg::Carrier {
                inner,
                updates,
                relay,
            } => self.handle_carrier(env, inner, updates, relay),
            // Replies and control messages are routed before we get here.
            other => {
                debug_assert!(
                    other.is_user_reply(),
                    "unexpected request message: {other:?}"
                );
            }
        }
    }

    /// Unwraps a carrier: installs the piggybacked payload, stashes or
    /// installs relayed bundles, then dispatches the framed message through
    /// the normal routing rules. The install-before-dispatch order is the
    /// carrier layer's correctness anchor: a piggybacked lock grant or
    /// barrier release can never reach the user thread ahead of the data
    /// that must be visible when it resumes, and a barrier arrive is never
    /// counted ahead of the share it brings this node.
    fn handle_carrier(
        self: &Arc<Self>,
        env: Envelope,
        inner: Box<DsmMsg>,
        mut updates: Vec<UpdateBundle>,
        mut relay: Vec<(NodeId, UpdateBundle)>,
    ) {
        // A grant or release *gates an acquire*: the blocked user thread
        // resumes the moment it is routed. An arrive's share for this node
        // must be in — a cooperative bundle's re-fans stashed (`refan`) —
        // before the arrival counts, or this node's own user thread, arriving
        // last, opens the barrier with releases built before the stash. If
        // any such bundle cannot be applied yet, the whole carrier is
        // re-queued — deadlock-free: only this node's own user thread holds
        // entries busy or pinned, a pin without blocking and a busy bit until
        // a fetch reply no barrier holds up, and any missing stream number is
        // already on the wire. Every other inner is dispatched now
        // and only its blocked bundles wait, each as itself (an
        // `InvalidateAck` *must* go through — its requester is mid-write-fault,
        // which is exactly what blocks the bundle).
        let held = match *inner {
            DsmMsg::LockGrant { .. } | DsmMsg::BarrierRelease { .. } => {
                let (waiting, on) = self.install_admissible(&env, updates);
                updates = waiting;
                on
            }
            // An arrive's share for this node: its own bundles and relays.
            DsmMsg::BarrierArrive { .. } => {
                let (own, others): (Vec<_>, Vec<_>) =
                    relay.into_iter().partition(|(dest, _)| *dest == self.node);
                relay = others;
                updates.extend(own.into_iter().map(|(_, b)| b));
                let (waiting, on) = self.install_admissible(&env, updates);
                updates = waiting;
                on
            }
            _ => {
                for bundle in updates.drain(..) {
                    self.handle_update(env, bundle);
                }
                None
            }
        };
        if let Some(on) = held {
            proto_trace!(self, "defer whole carrier (gating inner)");
            let carrier = DsmMsg::Carrier {
                inner,
                updates,
                relay,
            };
            self.defer(env, carrier, on);
            return;
        }
        // Relays only ever ride barrier traffic — reports and releases
        // (a bundle can transit several tree hops before reaching its
        // destination). The barrier id keys the stash so overlapping
        // episodes cannot mix.
        let barrier = match *inner {
            DsmMsg::BarrierArrive { barrier, .. } | DsmMsg::BarrierRelease { barrier, .. } => {
                Some(barrier)
            }
            _ => None,
        };
        for (dest, bundle) in relay {
            // An arrive's share for this node was installed above, and a
            // release carries its receiver's share as `updates`.
            debug_assert_ne!(dest, self.node, "a relay entry for its own receiver");
            if let Some(b) = barrier {
                self.outbox.lock().stash_relay(b, dest, bundle);
            } else {
                // A relay without a framing barrier message is a
                // protocol bug; dropping it silently would diverge the
                // destination, so fail loudly enough to diagnose.
                bump(&self.stats.runtime_errors);
                proto_trace!(
                    self,
                    "dropping relay bundle without a barrier frame (dest {dest:?})"
                );
                debug_assert!(false, "relay bundles require a barrier frame");
            }
        }
        self.route(env, *inner);
    }

    /// Installs every bundle the admission gate lets in now and returns the
    /// ones it holds back, with what the carrier that re-queues them waits
    /// on (`None`: nothing held back).
    fn install_admissible(
        self: &Arc<Self>,
        env: &Envelope,
        bundles: Vec<UpdateBundle>,
    ) -> (Vec<UpdateBundle>, Option<DeferredOn>) {
        let mut waiting = Vec::new();
        let mut on = None;
        for bundle in bundles {
            match self.admit(env, &bundle) {
                Admission::Apply => self.install_admitted(*env, bundle),
                Admission::Stale => {}
                Admission::Defer(what) => {
                    if on != Some(DeferredOn::Entry) {
                        on = Some(what);
                    }
                    waiting.push(bundle);
                }
            }
        }
        (waiting, on)
    }

    /// The admission gate every arriving update bundle passes, whatever it
    /// rode in on: may it be installed now?
    ///
    /// Not while any target is mid-fetch (busy) or covered by an in-flight
    /// pinned access. The object data of a fetch in flight was served
    /// *before* this update was applied at the server, so discarding the
    /// update as "no copy here" would leave the just-fetched copy
    /// permanently stale (diffs carry absolute word values, so applying the
    /// deferred update on top of the installed copy is exact); and applying
    /// concurrently with a pinned access would interleave with the user
    /// thread's copy at byte granularity (the VM-trap mode's user copies are
    /// lock-free). Pins are released without blocking, so the deferral
    /// cannot deadlock, and an acknowledged sender waits for the deferred
    /// ack as part of its release, so it cannot issue a *newer* update that
    /// this one could regress.
    ///
    /// And not out of sequence: a bundle ahead of its origin's stream waits
    /// for the lower-numbered transmission still in flight (a barrier-relayed
    /// bundle on another link, or the direct update a fence on a release
    /// holds that release for); a stale one must not be re-applied over
    /// newer data.
    ///
    /// Records the `UpdateInstall` (the flow-arrow sink matching the
    /// sender's `UpdateSend`) or `UpdateDefer` event; sync installs, which
    /// belong to no stream, record neither.
    pub(crate) fn admit(&self, env: &Envelope, bundle: &UpdateBundle) -> Admission {
        // A forward's hop starts at the re-fanning owner, not at the origin.
        let (peer, via) = match bundle.route {
            Route::OwnerForward { .. } => (env.src, Some(bundle.origin)),
            _ => (bundle.origin, None),
        };
        let record = |kind| {
            if bundle.route != Route::SyncInstall {
                self.obs.record(env.arrival.as_nanos(), kind, |ev| {
                    ev.peer = Some(peer);
                    ev.seq = Some(bundle.seq);
                    ev.origin = via;
                });
            }
        };
        let blocked = {
            let dir = self.dir.lock();
            bundle.items.iter().any(|i| {
                let st = dir.entry(i.object).state;
                st.busy || st.pinned
            })
        };
        if blocked {
            proto_trace!(self, "defer {:?} bundle from {peer:?}", bundle.route);
            record(EventKind::UpdateDefer);
            return Admission::Defer(DeferredOn::Entry);
        }
        // Two routes hold no stream slot. Sync installs are ordered by the
        // lock token they travel with. Forwards travel the owner→here link
        // directly (FIFO; one framed by a release only ever by a star's, which
        // is that link too) and deliberately draw no slot
        // of the owner's stream: the re-fanning service thread may run while
        // the owner's user thread has relay bundles holding earlier slots
        // parked at a barrier owner until the release, and a fresh slot
        // would open a gap this node can only close after a release that
        // transitively waits on this forward's ack. Interleaving with those
        // stashed bundles is order-insensitive: concurrent-interval diffs
        // from distinct writers touch disjoint words in data-race-free
        // programs — the same assumption the legacy multi-link fan-out
        // already makes.
        if !matches!(
            bundle.route,
            Route::OwnerForward { .. } | Route::SyncInstall
        ) {
            match self.check_update_seq(bundle.origin, bundle.seq) {
                SeqCheck::Apply => {}
                SeqCheck::Early if self.is_peer_dead(bundle.origin) => {
                    // What it waits for was lost with its origin (a corpse's
                    // traffic is dropped on arrival), and unreachable writes
                    // are the post-crash equivalent of "performed": it stops
                    // gating, and the stream resumes after it.
                    let mut expected = self.update_seq_in.lock();
                    let slot = &mut expected[bundle.origin.as_usize()];
                    *slot = (*slot).max(bundle.seq + 1);
                }
                SeqCheck::Early => {
                    proto_trace!(self, "defer early bundle from {peer:?} seq {}", bundle.seq);
                    record(EventKind::UpdateDefer);
                    return Admission::Defer(DeferredOn::Stream);
                }
                SeqCheck::Stale => {
                    proto_trace!(self, "drop stale bundle from {peer:?} seq {}", bundle.seq);
                    return Admission::Stale;
                }
            }
        }
        record(EventKind::UpdateInstall);
        Admission::Apply
    }

    /// Installs data associated with a synchronization object
    /// (`AssociateDataAndSynch` payloads on a lock grant): full images, even
    /// where no local copy exists ([`coherence::install_with_lock`]). Each
    /// entry is busy across its install, so an update or fetch for it waits.
    fn install_sync_items(self: &Arc<Self>, items: Vec<UpdateItem>, at: VirtTime) {
        for item in items {
            let UpdatePayload::Full(data) = item.payload else {
                debug_assert!(false, "sync installs always carry full images");
                continue;
            };
            let object = item.object;
            self.charge_sys(self.cost.copy(data.len() as u64));
            self.dir.lock().entry_mut(object).state.busy = true;
            self.install_object_bytes(object, &data);
            {
                let mut dir = self.dir.lock();
                let e = dir.entry_mut(object);
                coherence::install_with_lock(e, self.node);
                self.protect(e);
                e.state.busy = false;
            }
            self.note_unblocked_and_process_deferred(at);
        }
    }

    /// Serves (or forwards, or defers) a fetch of the `run` consecutive
    /// objects starting at `object`, in one directory-lock scope. The first
    /// object decides what happens to the request ([`coherence::classify`]);
    /// the reply carries the prefix of the run that [`coherence::Reply`]
    /// extends to, and the requester faults again on what is left.
    fn handle_object_fetch(self: &Arc<Self>, env: Envelope, mut fetch: FetchRequest) {
        let FetchRequest {
            object,
            run,
            access,
            requester,
            phase,
            ..
        } = fetch;
        let now = env.arrival;
        if fetch.adopt {
            // The requester's orphan-recovery round (`refetch_orphan`) asks
            // this node to adopt ([`coherence::adopt`]).
            let mut dir = self.dir.lock();
            let entry = dir.entry_mut(object);
            if entry.state.busy || entry.state.pinned {
                // Mid-transition: retry once it completes, as a fetch would.
                drop(dir);
                self.defer(env, DsmMsg::ObjectFetch(fetch), DeferredOn::Entry);
                return;
            }
            if coherence::adopt(entry, self.node) {
                bump(&self.stats.objects_rehomed);
                self.obs
                    .record(now.as_nanos(), EventKind::OwnershipRecovered, |ev| {
                        ev.object = Some(object);
                        ev.peer = Some(requester);
                    });
                proto_trace!(self, "adopted orphan {object:?} for {requester:?}");
            }
            // Owned now (or already): the rest is a plain fetch. A copy
            // invalidated since the requester's query round forwards along
            // the (recovery-redirected) hint chain; the run comes as far as
            // this node owns it.
            fetch.adopt = false;
        }
        let mut dir = self.dir.lock();
        let my_phase = dir.phase;
        // The objects of the run that exist: consecutive ids of the
        // first one's variable.
        let var = self.table.var(self.table.object(object).var);
        let var_end = var.objects.last().map_or(0, |o| o.as_u32() + 1);
        let ids = object.as_u32()..object.as_u32().saturating_add(run.max(1)).min(var_end);
        let window = run.saturating_sub(fetch.ahead).max(1);
        // The images are taken inside this directory-lock scope, so a served
        // copy is never torn by the user thread's pinned accesses. Each object
        // served costs `dir_op`, plus `copy(size)` when anyone may write it:
        // the snapshot a writer would tear, which may become the twin too.
        // One nothing can write is served by reference, as message passing
        // sends its arrays; a zero-filled or elided one goes as no bytes.
        let mut data: Vec<Vec<u8>> = Vec::new();
        let mut service = VirtTime::ZERO;
        let mut reply = coherence::Reply::default();
        // `Defer` or `Forward`, when that is what the first object came to.
        let mut unserved = None;
        for id in ids.map(ObjectId::new) {
            let entry = dir.entry_mut(id);
            let serve = coherence::classify(entry, self.node, access);
            let past = id.as_u32() - object.as_u32() >= window;
            if !(data.is_empty() || reply.extends(serve, past)) {
                break;
            }
            if matches!(serve, Serve::Defer | Serve::Forward(_)) {
                unserved = Some(serve);
                break;
            }
            if coherence::check_stable_sharing(entry, phase, my_phase, requester) {
                bump(&self.stats.runtime_errors);
            }
            let elided = serve == Serve::Copy && fetch.elide.contains(&id.as_u32());
            let zeros = !elided && coherence::never_materialised(entry);
            debug_assert!(
                !zeros || self.with_object_mem(id, |mem| mem.iter().all(|b| *b == 0)),
                "{id:?} was never materialised here, yet its memory is not zero"
            );
            let image = if zeros || elided {
                Vec::new()
            } else {
                self.object_bytes(id)
            };
            service += self.cost.dir_op();
            if entry.params.is_writable() {
                service += self.cost.copy(image.len() as u64);
            }
            if reply.serve(entry, serve, requester) {
                if let Some(twin @ None) = self.duq.lock().twin_mut(id) {
                    *twin = Some(image.clone());
                    bump(&self.stats.twins_created);
                }
            }
            self.protect(entry);
            data.push(image);
        }
        drop(dir);
        match unserved {
            Some(Serve::Forward(next)) => {
                self.charge_sys(self.cost.dir_op());
                let _ =
                    self.send_service(next, DsmMsg::ObjectFetch(fetch), now + self.cost.dir_op());
            }
            // No virtual-time charge on a deferred attempt: the number of
            // retries depends on host thread interleaving and must not
            // perturb virtual time.
            Some(_) => {
                proto_trace!(self, "defer fetch {object:?} from {requester:?}");
                self.defer(env, DsmMsg::ObjectFetch(fetch), DeferredOn::Entry);
            }
            None => {
                proto_trace!(
                    self,
                    "serve fetch {object:?} x{} to {requester:?} ({reply:?}, arrival={}ns)",
                    data.len(),
                    env.arrival.as_nanos()
                );
                self.obs
                    .record(now.as_nanos(), EventKind::FetchServe, |ev| {
                        ev.object = Some(object);
                        ev.peer = Some(requester);
                        ev.run = Some(data.len() as u32);
                        let zeros = data.iter().filter(|d| d.is_empty()).count() as u32;
                        ev.zero_filled = (zeros > 0).then_some(zeros);
                    });
                self.charge_sys(service);
                let _ = self.send_service(
                    requester,
                    DsmMsg::ObjectData {
                        object,
                        data,
                        ownership: reply.ownership,
                        copyset: reply.copyset,
                        writable: reply.writable,
                    },
                    now + service,
                );
            }
        }
    }

    /// Invalidates the local copy of an object and acknowledges.
    ///
    /// If the local user thread holds the entry pinned for an in-flight
    /// memory access, the invalidation is deferred: invalidating now would
    /// lose the checked-but-not-yet-performed write. Pins are released
    /// without blocking, so the deferral cannot deadlock (unlike deferring on
    /// `busy`, whose holder may itself be waiting for this node's reply).
    fn handle_invalidate(self: &Arc<Self>, env: Envelope, object: ObjectId, requester: NodeId) {
        let now = env.arrival;
        // Pinned guard, flush encode, and the invalidation itself run under
        // ONE directory lock, so a pin cannot start (and a write cannot land
        // unseen) anywhere between the guard and the rights change. The lock
        // order is dir → duq → memory, consistent with every other path
        // (`phase_change` takes dir before duq for this reason).
        let flush_payload = {
            let mut dir = self.dir.lock();
            if dir.entry(object).state.pinned {
                // No virtual-time charge on a deferred attempt: retry counts
                // are host-timing dependent.
                drop(dir);
                let invalidate = DsmMsg::Invalidate { object, requester };
                self.defer(env, invalidate, DeferredOn::Entry);
                return;
            }
            let payload = match coherence::invalidate(&mut dir, object, requester) {
                // (A dirty copy a flush just took out of the DUQ goes whole.)
                Invalidated::Flush => {
                    let whole = || Some(UpdatePayload::Full(self.object_bytes(object)));
                    self.capture_changes(object, true).unwrap_or_else(whole)
                }
                Invalidated::DirtySingleWriter => {
                    bump(&self.stats.runtime_errors);
                    None
                }
                Invalidated::Clean => None,
            };
            self.protect(dir.entry(object));
            payload
        };
        self.charge_sys(self.cost.dir_op());
        bump(&self.stats.invalidations_received);
        let ack = DsmMsg::InvalidateAck { object };
        let reply = match flush_payload {
            // The dirty-copy flush rides the acknowledgement it would
            // otherwise race ahead of: one carrier instead of an Update
            // followed by an InvalidateAck to the same destination. The
            // receiver installs the update before the ack is routed, which
            // is the same order per-link FIFO gives two messages. Not
            // counted in `updates_sent`: it is part of the invalidation.
            Some(payload) => {
                add(&self.stats.msgs_piggybacked, 1);
                DsmMsg::Carrier {
                    inner: Box::new(ack),
                    updates: vec![UpdateBundle {
                        origin: self.node,
                        seq: self.next_update_seq(requester, now),
                        items: vec![UpdateItem { object, payload }],
                        route: Route::Carried,
                    }],
                    relay: Vec::new(),
                }
            }
            None => ack,
        };
        let _ = self.send_service(requester, reply, now + self.cost.dir_op());
    }

    /// Handles an arriving update bundle: through the admission gate, then
    /// installed, re-queued as itself, or dropped as stale.
    fn handle_update(self: &Arc<Self>, env: Envelope, bundle: UpdateBundle) {
        match self.admit(&env, &bundle) {
            Admission::Apply => self.install_admitted(env, bundle),
            Admission::Defer(on) => self.defer(env, DsmMsg::Update(bundle), on),
            Admission::Stale => {}
        }
    }

    /// What remains to do with a bundle once [`Self::admit`] has let it in:
    /// the part that differs by route.
    fn install_admitted(self: &Arc<Self>, env: Envelope, bundle: UpdateBundle) {
        let now = env.arrival;
        let UpdateBundle {
            origin,
            seq,
            items,
            route,
        } = bundle;
        match route {
            Route::Carried | Route::DirectUnacked => {
                self.apply_update_items(items, now);
            }
            Route::SyncInstall => self.install_sync_items(items, now),
            // The origin's flush is blocked counting acks, for a direct
            // update and for a forward (sent by the owner on the origin's
            // behalf) alike — except one framed by a barrier release, which
            // answers nobody: the origin is parked at that barrier, not
            // counting.
            Route::DirectAcked | Route::OwnerForward { .. } => {
                let service = self.apply_update_items(items, now);
                if route != (Route::OwnerForward { framed: true }) {
                    let ack = DsmMsg::UpdateAck { refanned: None };
                    let _ = self.send_service(origin, ack, now + service);
                }
            }
            Route::OwnerFanout { ride } => self.refan(items, origin, seq, ride, now),
        }
    }

    /// The owner's half of the owner-cooperative fan-out: installs the items,
    /// then re-fans them to the other members of its *authoritative* copyset
    /// (the replicas recorded while serving fetches). A standalone bundle is
    /// answered with one `UpdateAck` naming the re-fan destinations
    /// (`refanned: Some`), each of which acknowledges the origin itself. A
    /// bundle that rode the origin's arrive at barrier `ride` — this node
    /// owns the barrier — is answered with nothing: each forward is stashed
    /// for the `BarrierRelease` headed to its member, which installs it
    /// before that release is routed.
    ///
    /// An item this node does not own (a stale owner hint) is degraded on
    /// the origin's behalf: applied to this node's own copy, if it has one,
    /// and forwarded to every other live node, copy or none. That is correct
    /// at any hint; the origin's next fetch repairs the hint.
    fn refan(
        self: &Arc<Self>,
        items: Vec<UpdateItem>,
        origin: NodeId,
        seq: u64,
        ride: Option<BarrierId>,
        now: VirtTime,
    ) {
        // Snapshot the authoritative copysets in one directory-lock scope;
        // liveness is checked afterwards because the failure detector takes
        // its own lock.
        let mut per_dest = super::flush::PerDest::new();
        {
            let dir = self.dir.lock();
            let everyone = NodeSet::full(self.nodes);
            for item in &items {
                let e = dir.entry(item.object);
                let members = if e.state.owned { &e.copyset } else { &everyone };
                for dest in members {
                    if dest != origin && dest != self.node {
                        per_dest.entry(dest).or_default().push(item.clone());
                    }
                }
            }
        }
        per_dest.retain(|dest, _| !self.is_peer_dead(*dest));
        // Install before any re-fan leaves: the owner must never distribute
        // data it has not itself made visible (the same anchor as the
        // carrier layer's install-before-dispatch).
        let service = self.apply_update_items(items, now);
        if ride.is_none() {
            // A standalone forward must not get onto its link ahead of a
            // riding one of the same origin that a release fan still has in
            // hand (`release_children` holds this lock while it has).
            drop(self.outbox.lock());
        }
        let refanned = Some(per_dest.keys().copied().collect());
        for (dest, dest_items) in per_dest {
            self.note_update_sent(&dest_items);
            bump(&self.stats.owner_refans);
            self.obs
                .record(now.as_nanos(), EventKind::OwnerRefan, |ev| {
                    ev.peer = Some(dest);
                    ev.object = dest_items.first().map(|i| i.object);
                    ev.seq = Some(seq);
                });
            // This hop's flow start, paired with the `UpdateInstall` the
            // destination's `admit` records. The forward carries the
            // *origin's* fan-out seq for that pairing and draws no slot from
            // this node's own stream to `dest` (see `admit`).
            self.obs
                .record(now.as_nanos(), EventKind::UpdateSend, |ev| {
                    ev.peer = Some(dest);
                    ev.seq = Some(seq);
                    ev.origin = Some(origin);
                });
            let forward = UpdateBundle {
                origin,
                seq,
                items: dest_items,
                route: Route::OwnerForward {
                    framed: ride.is_some(),
                },
            };
            match ride {
                Some(barrier) => {
                    bump(&self.stats.msgs_piggybacked);
                    self.outbox.lock().stash_relay(barrier, dest, forward);
                }
                None => {
                    let _ = self.send_service(dest, DsmMsg::Update(forward), now + service);
                }
            }
        }
        if ride.is_none() {
            let _ = self.send_service(origin, DsmMsg::UpdateAck { refanned }, now + service);
        }
    }

    /// Applies a list of update items to the local copies. The single apply
    /// path shared by standalone `Update` messages and piggybacked carrier
    /// bundles. Returns the service time charged.
    fn apply_update_items(self: &Arc<Self>, items: Vec<UpdateItem>, now: VirtTime) -> VirtTime {
        let mut service = VirtTime::ZERO;
        for item in items {
            let has_copy = self
                .dir
                .lock()
                .entry(item.object)
                .state
                .rights
                .allows_read();
            proto_trace!(
                self,
                "update {:?} has_copy={has_copy} arrival={}ns",
                item.object,
                now.as_nanos()
            );
            if !has_copy {
                continue;
            }
            match item.payload {
                UpdatePayload::Diff(d) => {
                    let cost = self
                        .cost
                        .decode(d.changed_words() as u64, d.run_count() as u64);
                    self.charge_sys(cost);
                    service += cost;
                    // If the object is locally dirty, fold the remote changes
                    // into the twin as well so they are not re-sent as local
                    // modifications at the next flush — under one DUQ lock
                    // with the apply (lock order dir → duq → memory), so the
                    // flush's `capture_changes` never reads a memory that has
                    // them against a twin that does not.
                    let mut duq = self.duq.lock();
                    if self
                        .with_object_mem_mut(item.object, |cur| diff::apply(&d, cur))
                        .is_err()
                    {
                        continue;
                    }
                    if let Some(Some(twin)) = duq.twin_mut(item.object) {
                        let _ = diff::apply(&d, twin);
                    }
                }
                UpdatePayload::Full(data) => {
                    let cost = self.cost.copy(data.len() as u64);
                    self.charge_sys(cost);
                    service += cost;
                    self.with_object_mem_mut(item.object, |cur| {
                        if cur.len() == data.len() {
                            cur.copy_from_slice(&data);
                        }
                    });
                }
            }
            bump(&self.stats.updates_applied);
        }
        service
    }

    /// Answers orphan recovery's holder query: which of the listed objects
    /// does this node hold a copy of?
    ///
    /// If any listed object is mid-fetch on this node (its busy bit is set),
    /// the answer is deferred until the fetch completes: the data in flight
    /// may be the surviving copy the recovering node is looking for, and
    /// answering "don't have" would let it adopt elsewhere or fail with the
    /// object lost. The exception is a fetch stuck in orphan recovery itself,
    /// which waits for every peer's answer: it answers (truthfully: no copy)
    /// at once.
    fn handle_copyset_query(
        self: &Arc<Self>,
        env: Envelope,
        objects: Arc<[ObjectId]>,
        requester: NodeId,
    ) {
        let now = env.arrival;
        // Busy check and "have" computation under ONE directory lock: a fetch
        // starting between two separate lock scopes would otherwise still be
        // answered "don't have".
        let have: Vec<ObjectId> = {
            let dir = self.dir.lock();
            if objects.iter().any(|o| {
                let st = dir.entry(*o).state;
                st.busy && !st.recovering
            }) {
                // No virtual-time charge on a deferred attempt: retry counts
                // are host-timing dependent. Re-queueing shares the same
                // `Arc`-backed object list — no copy.
                drop(dir);
                proto_trace!(self, "defer copyset query from {requester:?}");
                self.defer(
                    env,
                    DsmMsg::CopysetQuery { objects, requester },
                    DeferredOn::Entry,
                );
                return;
            }
            objects
                .iter()
                .copied()
                .filter(|o| dir.entry(*o).state.rights.allows_read())
                .collect()
        };
        self.charge_sys(self.cost.dir_op());
        let _ = self.send_service(
            requester,
            DsmMsg::CopysetReply { have },
            now + self.cost.dir_op(),
        );
    }

    /// Executes a `Fetch_and_Φ` at the fixed owner and replies with the old
    /// value.
    fn handle_reduce(
        self: &Arc<Self>,
        object: ObjectId,
        offset: usize,
        op: ReduceOp,
        requester: NodeId,
        now: VirtTime,
    ) {
        self.charge_sys(self.cost.sync_op());
        let old = self.apply_reduce_local(object, offset, op);
        let _ = self.send_service(
            requester,
            DsmMsg::ReduceReply { old },
            now + self.cost.sync_op(),
        );
    }

    /// Applies a reduction operation to the local (owner) copy, returning the
    /// previous value bytes.
    pub(crate) fn apply_reduce_local(
        self: &Arc<Self>,
        object: ObjectId,
        offset: usize,
        op: ReduceOp,
    ) -> Vec<u8> {
        self.with_object_mem_mut(object, |cur| {
            let slot = &mut cur[offset..offset + 8];
            let old = slot.to_vec();
            let old_i = i64::from_le_bytes(old.clone().try_into().unwrap_or([0; 8]));
            let new_bytes: Option<[u8; 8]> = match op {
                ReduceOp::Read => None,
                ReduceOp::AddI64(v) => Some((old_i.wrapping_add(v)).to_le_bytes()),
                ReduceOp::MinI64(v) => Some(old_i.min(v).to_le_bytes()),
            };
            if let Some(bytes) = new_bytes {
                slot.copy_from_slice(&bytes);
            }
            old
        })
    }

    /// Handles a remote lock acquire: grant, queue, or forward.
    fn handle_lock_acquire(self: &Arc<Self>, lock: LockId, requester: NodeId, now: VirtTime) {
        self.charge_sys(self.cost.sync_op());
        // A node never queues behind, or forwards, its own request. One can
        // only come back here after crash recovery re-sent it towards the
        // home, and then some hint names this node: the original request
        // was served after all (the token is here) or its grant is on the
        // way. Queueing a node behind itself would deadlock the queue.
        if requester == self.node {
            proto_trace!(self, "drop own looped-back acquire for lock {}", lock.0);
            return;
        }
        let (action, released_at) = {
            let mut sync = self.sync.lock();
            let state = sync.lock_mut(lock);
            (state.handle_remote_acquire(requester), state.released_at)
        };
        match action {
            RemoteAcquireAction::Forward(next) => {
                self.forward_lock_acquire(lock, requester, next, now)
            }
            RemoteAcquireAction::Grant => {
                // A resting token cannot leave before it came to rest.
                let at = now.max(released_at) + self.cost.sync_op();
                self.send_lock_grant(lock, requester, Vec::new(), Vec::new(), Some(at));
            }
            RemoteAcquireAction::Queued => {}
        }
    }

    /// Sends `requester`'s acquire on to `next` on the service clock.
    pub(crate) fn forward_lock_acquire(
        self: &Arc<Self>,
        lock: LockId,
        requester: NodeId,
        next: NodeId,
        now: VirtTime,
    ) {
        add(&self.stats.lock_messages, 1);
        let _ = self.send_service(
            next,
            DsmMsg::LockAcquire { lock, requester },
            now + self.cost.sync_op(),
        );
    }

    /// Installs an arriving lock token — owner, holder and the queue that
    /// travels with it — in the sync directory. Runs on the service thread
    /// at the moment the `LockGrant` is dispatched (for a grant framed in a
    /// carrier, after the carrier's updates are installed), so there is no
    /// interval in which the wire says "token here" and the directory says
    /// "not mine": an acquire arriving right behind the grant is queued, not
    /// bounced back along this node's old hint.
    pub(crate) fn install_lock_token(
        self: &Arc<Self>,
        env: Envelope,
        lock: LockId,
        queue: Vec<NodeId>,
    ) {
        let arrival = {
            let mut sync = self.sync.lock();
            sync.lock_mut(lock).receive_grant(queue, self.node)
        };
        self.finish_token_arrival(env, lock, arrival);
    }

    /// Acts on what [`crate::sync::LockState::receive_grant`] decided: wakes
    /// the user thread blocked in `acquire_lock` (the token is already
    /// installed; the reply only carries the arrival time), sends the token
    /// on when no local acquire was waiting for it, or notes when it came to
    /// rest here.
    pub(crate) fn finish_token_arrival(
        self: &Arc<Self>,
        env: Envelope,
        lock: LockId,
        arrival: TokenArrival,
    ) {
        match arrival {
            TokenArrival::Acquired => {
                let queue = Vec::new();
                self.replies.send((env, DsmMsg::LockGrant { lock, queue }));
            }
            TokenArrival::PassedOn(next, rest) => {
                proto_trace!(self, "pass unawaited lock {} on to {next:?}", lock.0);
                let at = env.arrival + self.cost.sync_op();
                self.send_lock_grant(lock, next, rest, Vec::new(), Some(at));
            }
            TokenArrival::Idle => self.sync.lock().lock_mut(lock).released_at = env.arrival,
        }
    }

    /// Sends a lock grant (ownership transfer) to `to`, carrying the waiter
    /// queue. The associated consistency data (`AssociateDataAndSynch`) and
    /// any flush updates the releaser diverted onto this grant ride the same
    /// carrier frame; a grant with neither goes out bare.
    ///
    /// `at` is when the grant leaves: `None` on the releasing user thread
    /// (its clock, in program order), `Some(t)` on a service path — the
    /// request's or the token's arrival plus the handling cost.
    pub(crate) fn send_lock_grant(
        self: &Arc<Self>,
        lock: LockId,
        to: NodeId,
        queue: Vec<NodeId>,
        diverted: Vec<UpdateItem>,
        at: Option<VirtTime>,
    ) {
        let send = |msg: DsmMsg| match at {
            None => self.send(to, msg),
            Some(t) => self.send_service(to, msg, t),
        };
        let stamp = at.unwrap_or_else(|| self.clock.now());
        let sync_items = self.build_lock_piggyback(lock, to);
        add(&self.stats.lock_messages, 1);
        let mut updates = Vec::new();
        if !sync_items.is_empty() {
            updates.push(UpdateBundle {
                origin: self.node,
                seq: 0, // ordered by the lock token, not the stream
                items: sync_items,
                route: Route::SyncInstall,
            });
        }
        if !diverted.is_empty() {
            updates.push(self.next_bundle(to, stamp, diverted, Route::Carried));
        }
        let grant = DsmMsg::LockGrant { lock, queue };
        let _ = send(DsmMsg::framed(grant, updates, Vec::new()));
    }

    /// Builds the consistency data piggybacked on a lock grant: the current
    /// contents of every object associated with the lock that this node holds
    /// a valid copy of ("Munin sends the new value of the object in the
    /// message that is used to pass lock ownership"). Installed on the
    /// receive side as a `Route::SyncInstall` bundle.
    fn build_lock_piggyback(self: &Arc<Self>, lock: LockId, to: NodeId) -> Vec<UpdateItem> {
        let associated = self.sync.lock().lock(lock).associated.clone();
        let mut out = Vec::new();
        for object in associated {
            let mut dir = self.dir.lock();
            let e = dir.entry_mut(object);
            if !e.state.rights.allows_read() {
                continue;
            }
            let (size, payload) = (e.size, UpdatePayload::Full(self.object_bytes(object)));
            coherence::hand_over_with_lock(e, to);
            self.protect(e);
            drop(dir);
            self.charge_sys(self.cost.copy(size as u64));
            out.push(UpdateItem { object, payload });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::SharingAnnotation;
    use crate::config::MuninConfig;
    use crate::directory::AccessRights;
    use crate::msg::FetchKind;
    use crate::segment::SharedDataTable;
    use munin_sim::{CostModel, Network, NodeClock};
    use std::collections::HashSet;

    /// Builds a two-node network where node 0 hosts a runtime and node 1 is
    /// driven manually by the test.
    struct Harness {
        rt: Arc<NodeRuntime>,
        peer_tx: munin_sim::Sender<DsmMsg>,
        peer_rx: munin_sim::Receiver<DsmMsg>,
        rt_rx: munin_sim::Receiver<DsmMsg>,
    }

    fn harness() -> Harness {
        harness_with(MuninConfig::fast_test(2))
    }

    /// Same two-node harness but with the reliability layer forced on, for
    /// the duplicate-delivery idempotence tests.
    fn reliable_harness() -> Harness {
        harness_with(MuninConfig::fast_test(2).with_reliability(true))
    }

    fn harness_with(cfg: MuninConfig) -> Harness {
        let mut table = SharedDataTable::new(64);
        table.declare("ro", SharingAnnotation::ReadOnly, 4, 8);
        table.declare("conv", SharingAnnotation::Conventional, 4, 8);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8);
        table.declare("red", SharingAnnotation::Reduction, 8, 2);
        table.declare("mig", SharingAnnotation::Migratory, 4, 8);
        table.declare("pc", SharingAnnotation::ProducerConsumer, 4, 8);
        // Three page-sized objects, for fetches of a run.
        table.declare("rows", SharingAnnotation::ReadOnly, 4, 48);
        // Eight, for blocks of four at two nodes.
        table.declare("band", SharingAnnotation::ProducerConsumer, 4, 128);
        let table = Arc::new(table);
        let cfg = Arc::new(cfg);
        let clock0 = NodeClock::new();
        let clock1 = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(2, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock0.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, clock1).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            2,
            cfg,
            table,
            vec![NodeId::new(0)],
            vec![NodeId::new(0), NodeId::new(1)],
            clock0,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        Harness {
            rt,
            peer_tx: tx1,
            peer_rx: rx1,
            rt_rx: rx0,
        }
    }

    /// A one-item bundle from node `from`, in slot `seq` of its stream here.
    fn bundle_of(
        from: usize,
        seq: u64,
        object: ObjectId,
        payload: UpdatePayload,
        route: Route,
    ) -> UpdateBundle {
        UpdateBundle {
            origin: NodeId::new(from),
            seq,
            items: vec![UpdateItem { object, payload }],
            route,
        }
    }

    /// A fetch from node 1 for `run` objects starting at `object`.
    fn fetch_msg(object: ObjectId, run: u32, access: FetchKind, phase: u32) -> DsmMsg {
        DsmMsg::ObjectFetch(FetchRequest {
            object,
            run,
            ahead: 0,
            access,
            requester: NodeId::new(1),
            phase,
            elide: 0..0,
            adopt: false,
        })
    }

    /// Barrier 0 is owned by the hosted runtime, barrier 1 by the peer.
    const OWNED_HERE: crate::sync::BarrierId = crate::sync::BarrierId(0);
    const OWNED_BY_PEER: crate::sync::BarrierId = crate::sync::BarrierId(1);

    /// Node 1's report of its own arrival at [`OWNED_HERE`], first episode.
    fn peer_arrive() -> DsmMsg {
        DsmMsg::BarrierArrive {
            barrier: OWNED_HERE,
            from: NodeId::new(1),
            gen: 1,
            arrived: NodeSet::from_nodes([NodeId::new(1)]),
        }
    }

    /// The release of [`OWNED_BY_PEER`]'s first episode, as node 1 sends it.
    const PEER_RELEASE: DsmMsg = DsmMsg::BarrierRelease {
        barrier: OWNED_BY_PEER,
        gen: 1,
    };

    impl Harness {
        /// The hosted runtime's own thread arrives at [`OWNED_HERE`].
        fn arrive_here(&self) {
            let topo = self.rt.tree_topology(OWNED_HERE);
            self.rt.barrier_arrive_local(OWNED_HERE, &topo, Vec::new());
        }

        fn obj(&self, name: &str) -> ObjectId {
            self.rt.table().var_by_name(name).unwrap().objects[0]
        }

        /// Delivers the next message addressed to node 0 into the runtime.
        fn pump(&self) {
            let (env, msg) = self.rt_rx.recv().unwrap();
            self.rt.handle_request(env, msg);
        }

        fn peer_recv(&self) -> DsmMsg {
            self.peer_rx.recv().unwrap().1
        }

        /// The three objects of `rows`, filled with 1s, 2s and 3s.
        fn rows(&self) -> [ObjectId; 3] {
            let rows = &self.rt.table().var_by_name("rows").unwrap().objects;
            let rows = [rows[0], rows[1], rows[2]];
            for (fill, row) in (1u8..).zip(rows) {
                self.rt.install_object_bytes(row, &[fill; 64]);
            }
            rows
        }

        /// Node 1 fetches `run` objects from `object` on; the runtime
        /// handles the request.
        fn fetch(&self, object: ObjectId, run: u32, access: FetchKind) {
            self.peer_tx
                .send(
                    NodeId::new(0),
                    "object_fetch",
                    40,
                    fetch_msg(object, run, access, 0),
                )
                .unwrap();
            self.pump();
        }

        /// The `ObjectData` node 1 got back: first object, the first byte of
        /// each payload, and whether ownership came with it.
        fn peer_data(&self) -> (ObjectId, Vec<u8>, bool) {
            match self.peer_recv() {
                DsmMsg::ObjectData {
                    object,
                    data,
                    ownership,
                    ..
                } => (object, data.iter().map(|d| d[0]).collect(), ownership),
                other => panic!("unexpected reply: {other:?}"),
            }
        }

        fn holds_copy(&self, object: ObjectId) -> bool {
            self.rt
                .dir
                .lock()
                .entry(object)
                .copyset
                .contains(NodeId::new(1))
        }
    }

    #[test]
    fn read_fetch_returns_data_and_records_replica() {
        let h = harness();
        let ro = h.obj("ro");
        h.rt.install_object_bytes(ro, &[3u8; 32]);
        h.fetch(ro, 1, FetchKind::Read);
        match h.peer_recv() {
            DsmMsg::ObjectData {
                data,
                ownership,
                writable,
                ..
            } => {
                assert_eq!(data, vec![vec![3u8; 32]]);
                assert!(!ownership);
                assert!(!writable);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        assert!(h.rt.dir.lock().entry(ro).copyset.contains(NodeId::new(1)));
    }

    #[test]
    fn conventional_write_fetch_transfers_ownership_and_invalidates_owner() {
        let h = harness();
        let conv = h.obj("conv");
        h.fetch(conv, 1, FetchKind::Write);
        match h.peer_recv() {
            DsmMsg::ObjectData {
                ownership,
                writable,
                ..
            } => {
                assert!(ownership);
                assert!(writable);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        let dir = h.rt.dir.lock();
        let e = dir.entry(conv);
        assert_eq!(e.state.rights, AccessRights::Invalid);
        assert!(!e.state.owned);
        assert_eq!(e.probable_owner, NodeId::new(1));
    }

    /// The stable-sharing check: a fetch from outside a fixed
    /// producer-consumer relationship is the paper's runtime error — unless
    /// the requester has already left the phase that relationship belongs
    /// to, which un-fixes it instead, once per local phase.
    #[test]
    fn stable_sharing_check_spares_a_requester_in_a_later_phase() {
        let h = harness();
        let pc = h.obj("pc");
        let fetch = |phase| {
            h.rt.dir.lock().entry_mut(pc).state.copyset_fixed = true;
            h.peer_tx
                .send(
                    NodeId::new(0),
                    "object_fetch",
                    40,
                    fetch_msg(pc, 1, FetchKind::Read, phase),
                )
                .unwrap();
            h.pump();
            assert!(matches!(h.peer_recv(), DsmMsg::ObjectData { .. }));
            h.rt.dir.lock().entry_mut(pc).copyset = NodeSet::EMPTY;
        };
        let errors = || h.rt.stats().snapshot().runtime_errors;
        // Same phase, not a member: the genuine violation, still served.
        fetch(0);
        assert_eq!(errors(), 1);
        assert!(h.rt.dir.lock().entry(pc).state.copyset_fixed);
        // The requester is one `PhaseChange()` ahead of this node.
        fetch(1);
        assert_eq!(errors(), 1);
        assert!(!h.rt.dir.lock().entry(pc).state.copyset_fixed);
        // Once this node has caught up, the check is back in force.
        h.rt.phase_change();
        fetch(1);
        assert_eq!(errors(), 2);
        // A requester that calls `PhaseChange()` more often than this node
        // is ahead for good. It is spared once per phase of this node's; a
        // relationship re-determined after that (`fetch` re-fixes it) is
        // this phase's own, and the requester answers to it.
        fetch(7);
        assert_eq!(errors(), 2);
        assert!(!h.rt.dir.lock().entry(pc).state.copyset_fixed);
        fetch(7);
        assert_eq!(errors(), 3);
        assert!(h.rt.dir.lock().entry(pc).state.copyset_fixed);
        h.rt.phase_change();
        fetch(7);
        assert_eq!(errors(), 3);
        fetch(7);
        assert_eq!(errors(), 4);
    }

    /// Twin on first share: `pc` is sole here (owned, held by nobody else),
    /// so its write fault queues it with no twin. Serving node 1 a copy makes
    /// the image served its twin — a twin made, and nothing charged beyond
    /// the snapshot the serve pays anyway — and a later serve keeps it. The
    /// owner's flush then diffs against what node 1 holds: its one new word.
    #[test]
    fn serving_a_twinless_queued_page_twins_it_as_the_image_served() {
        let h = harness();
        let pc = h.obj("pc");
        h.rt.fault(pc, true, 0).unwrap();
        assert!(h.rt.duq.lock().contains(pc));
        assert_eq!(h.rt.duq.lock().twin_of(pc), None);
        assert_eq!(h.rt.stats().snapshot().twins_created, 0);
        h.rt.install_object_bytes(pc, &[4; 32]);
        let (cost, before) = (&h.rt.cost, h.rt.clock().system_time());
        h.fetch(pc, 1, FetchKind::Read);
        let held = peer_reply(&h).0.remove(0);
        assert_eq!(held, vec![4; 32]);
        let charged = cost.dir_op() + cost.copy(32) + cost.msg_fixed();
        assert_eq!(h.rt.clock().system_time(), before + charged);
        assert_eq!(h.rt.duq.lock().twin_of(pc), Some(held.as_slice()));
        assert_eq!(h.rt.stats().snapshot().twins_created, 1);
        let mut current = held.clone();
        current[8..12].copy_from_slice(&[9; 4]);
        h.rt.install_object_bytes(pc, &current);
        h.fetch(pc, 1, FetchKind::Read);
        assert_eq!(peer_reply(&h).0, vec![current.clone()]);
        assert_eq!(h.rt.duq.lock().twin_of(pc), Some(held.as_slice()));
        assert_eq!(h.rt.stats().snapshot().twins_created, 1);
        let Ok((Some(UpdatePayload::Diff(d)), _)) = h.rt.encode_entry(pc) else {
            panic!("a page served mid-interval must flush a diff");
        };
        assert_eq!(d.changed_words(), 1);
        let mut patched = held;
        diff::apply(&d, &mut patched).unwrap();
        assert_eq!(patched, current);
    }

    #[test]
    fn fetch_for_busy_entry_is_deferred_until_transition_completes() {
        let h = harness();
        let conv = h.obj("conv");
        h.rt.dir.lock().entry_mut(conv).state.busy = true;
        h.fetch(conv, 1, FetchKind::Read);
        assert_eq!(h.rt.deferred.lock().len(), 1);
        // Completing the transition and retrying serves the request.
        h.rt.dir.lock().entry_mut(conv).state.busy = false;
        h.rt.process_deferred();
        assert!(matches!(h.peer_recv(), DsmMsg::ObjectData { .. }));
    }

    /// An adoption is a fetch flagged `adopt`: while the first object's
    /// entry is busy it defers as itself; then the receiver claims its valid
    /// copy of that object — and of no other — and serves the run as its
    /// owner, which here ends the reply at the first object it does not own.
    #[test]
    fn adoption_claims_the_first_object_then_serves_as_owner() {
        let h = harness();
        let rows = h.rows();
        for row in rows {
            let mut dir = h.rt.dir.lock();
            let entry = dir.entry_mut(row);
            entry.state.owned = false;
            entry.probable_owner = NodeId::new(1);
        }
        h.rt.dir.lock().entry_mut(rows[0]).state.busy = true;
        let adoption = DsmMsg::ObjectFetch(FetchRequest {
            object: rows[0],
            run: 3,
            ahead: 0,
            access: FetchKind::Read,
            requester: NodeId::new(1),
            phase: 0,
            elide: 0..0,
            adopt: true,
        });
        assert_eq!(adoption.class(), "adopt");
        h.peer_tx
            .send(NodeId::new(0), "adopt", 56, adoption.clone())
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock()[0].msg, adoption);
        assert!(!h.rt.dir.lock().entry(rows[0]).state.owned);
        h.rt.dir.lock().entry_mut(rows[0]).state.busy = false;
        h.rt.process_deferred();
        let (data, ownership, _) = peer_reply(&h);
        assert_eq!((data, ownership), (vec![vec![1; 64]], false));
        let dir = h.rt.dir.lock();
        assert!(dir.entry(rows[0]).state.owned && !dir.entry(rows[1]).state.owned);
        assert_eq!(h.rt.stats().snapshot().objects_rehomed, 1);
    }

    /// A run is one request and one reply, and costs what it is: per object
    /// served a directory lookup — `rows` is read-only, so no snapshot copy —
    /// per message its fixed cost. It ends where its variable does.
    #[test]
    fn run_of_three_is_served_in_one_reply_and_charged_per_object() {
        let h = harness();
        let rows = h.rows();
        h.fetch(rows[0], 3, FetchKind::Read);
        assert_eq!(h.peer_data(), (rows[0], vec![1, 2, 3], false));
        assert!(rows.iter().all(|row| h.holds_copy(*row)));
        let cost = &h.rt.cost;
        assert_eq!(
            h.rt.clock().system_time().as_nanos(),
            3 * cost.dir_op().as_nanos() + cost.msg_fixed().as_nanos()
        );
        // `rows` is the last variable; a run cannot leave it (or the table).
        h.fetch(rows[1], 9, FetchKind::Read);
        assert_eq!(h.peer_data(), (rows[1], vec![2, 3], false));
        // Nor can it run into the variable behind: `pc` is followed by `rows`.
        h.fetch(h.obj("pc"), 2, FetchKind::Read);
        assert_eq!(h.peer_data().1.len(), 1);
    }

    /// Node 1 reads `objects`, one fetch each as `(first object, run)`, and
    /// asserts what the service charged: per object served a lookup and a
    /// copy of its bytes, per reply its fixed cost.
    fn assert_served_with_copies(h: &Harness, objects: &[(ObjectId, u32)]) {
        let cost = &h.rt.cost;
        let mut charged = h.rt.clock().system_time();
        for &(object, run) in objects {
            h.fetch(object, run, FetchKind::Read);
            let (data, ownership, _) = peer_reply(h);
            assert_eq!((data.len(), ownership), (run as usize, false), "{object:?}");
            for image in &data {
                assert!(!image.is_empty(), "{object:?} is materialised");
                charged += cost.dir_op() + cost.copy(image.len() as u64);
            }
            charged += cost.msg_fixed();
            assert_eq!(h.rt.clock().system_time(), charged, "{object:?}");
        }
    }

    /// An object its protocol lets anyone write is snapshotted into the
    /// reply: `ws` and `conv` pay the copy on top of the lookup, and so does
    /// the run of three once `ChangeAnnotation` has made `rows` write-shared.
    #[test]
    fn a_writable_object_pays_its_snapshot_copy() {
        let h = harness();
        let rows = h.rows();
        let write_shared = SharingAnnotation::WriteShared;
        for row in rows {
            h.rt.dir.lock().entry_mut(row).set_annotation(write_shared);
        }
        assert_served_with_copies(&h, &[(h.obj("ws"), 1), (h.obj("conv"), 1), (rows[0], 3)]);
    }

    /// What decides the copy is the protocol in force, not the declaration:
    /// with every variable forced to `write_shared` (Table 6's middle row) the
    /// read-only-declared `ro` and `rows` can be written, and pay for it.
    #[test]
    fn a_read_only_declaration_forced_write_shared_pays_the_copy() {
        let cfg =
            MuninConfig::fast_test(2).with_annotation_override(SharingAnnotation::WriteShared);
        let h = harness_with(cfg);
        let rows = h.rows();
        assert_served_with_copies(&h, &[(h.obj("ro"), 1), (rows[0], 3)]);
    }

    /// Nothing can write a read-only object, so a local access pinning it
    /// has no write a copy could miss: the fetch is served at once, whole.
    #[test]
    fn a_pinned_read_only_object_is_served_at_once() {
        let h = harness();
        let rows = h.rows();
        h.rt.dir.lock().entry_mut(rows[1]).state.pinned = true;
        h.fetch(rows[0], 3, FetchKind::Read);
        assert_eq!(h.peer_data(), (rows[0], vec![1, 2, 3], false));
        assert!(h.rt.deferred.lock().is_empty());
    }

    /// The reply carries the objects up to the first one that cannot be
    /// handed out as a plain copy, and that one is untouched by it; asked
    /// for in its own right — as the requester's next fault will — it is
    /// forwarded, deferred or transferred by the single-object rules, the
    /// rest of the run travelling with it.
    #[test]
    fn run_stops_at_the_first_object_that_is_not_a_plain_copy() {
        #[derive(Clone, Copy, Debug)]
        enum Second {
            OwnedElsewhere,
            Busy,
            Pinned,
            Migratory,
            ConventionalWriteMiss,
        }
        use Second::*;
        for second in [
            OwnedElsewhere,
            Busy,
            Pinned,
            Migratory,
            ConventionalWriteMiss,
        ] {
            let h = harness();
            let rows = h.rows();
            let access = match second {
                ConventionalWriteMiss => FetchKind::Write,
                _ => FetchKind::Read,
            };
            {
                let mut dir = h.rt.dir.lock();
                let e = dir.entry_mut(rows[1]);
                match second {
                    OwnedElsewhere => {
                        e.state.owned = false;
                        e.probable_owner = NodeId::new(1);
                    }
                    Busy => e.state.busy = true,
                    // A pin holds back a fetch of what its access may write.
                    Pinned => {
                        e.state.pinned = true;
                        e.set_annotation(SharingAnnotation::WriteShared);
                    }
                    Migratory => e.set_annotation(SharingAnnotation::Migratory),
                    ConventionalWriteMiss => e.set_annotation(SharingAnnotation::Conventional),
                }
            }
            h.fetch(rows[0], 3, access);
            assert_eq!(h.peer_data(), (rows[0], vec![1], false), "{second:?}");
            assert!(h.holds_copy(rows[0]));
            assert!(
                !h.holds_copy(rows[1]) && !h.holds_copy(rows[2]),
                "{second:?}"
            );

            h.fetch(rows[1], 2, access);
            match second {
                OwnedElsewhere => {
                    // Along the stale hint, whole.
                    assert_eq!(h.peer_recv(), fetch_msg(rows[1], 2, access, 0));
                }
                Busy | Pinned => {
                    assert_eq!(h.rt.deferred.lock().len(), 1);
                    {
                        let mut dir = h.rt.dir.lock();
                        let state = &mut dir.entry_mut(rows[1]).state;
                        (state.busy, state.pinned) = (false, false);
                    }
                    h.rt.process_deferred();
                    assert_eq!(h.peer_data(), (rows[1], vec![2, 3], false));
                }
                Migratory | ConventionalWriteMiss => {
                    assert_eq!(h.peer_data(), (rows[1], vec![2], true));
                    let dir = h.rt.dir.lock();
                    assert_eq!(dir.entry(rows[1]).state.rights, AccessRights::Invalid);
                    assert_eq!(dir.entry(rows[1]).probable_owner, NodeId::new(1));
                    assert!(dir.entry(rows[2]).state.owned);
                }
            }
        }
    }

    /// A home node that knows no owner (its hint fell back to itself after
    /// the owner died without an heir on record) holds a fetch instead of
    /// forwarding it to itself in a loop that would starve its timers.
    #[test]
    fn fetch_at_a_home_that_knows_no_owner_is_held_not_bounced_to_itself() {
        let h = harness();
        let ro = h.obj("ro");
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ro);
            e.state.owned = false;
            assert_eq!((e.probable_owner, e.home), (NodeId::new(0), NodeId::new(0)));
        }
        h.fetch(ro, 1, FetchKind::Read);
        assert_eq!(h.rt.deferred.lock().len(), 1);
        assert!(
            matches!(h.rt_rx.try_recv(), Ok(None)),
            "nothing was sent to itself"
        );
        // Once an owner is on record again the held request moves on.
        h.rt.dir.lock().entry_mut(ro).probable_owner = NodeId::new(1);
        h.rt.process_deferred();
        assert_eq!(h.peer_recv(), fetch_msg(ro, 1, FetchKind::Read, 0));
    }

    /// The requesting side. Every object of the run is busy from before the
    /// request leaves until the reply is installed; the reply's prefix is
    /// installed, and busy is cleared on the whole run, served or not.
    #[test]
    fn requester_holds_the_whole_run_busy_and_installs_the_prefix() {
        let h = harness();
        let rows = h.rows();
        let window_end = rows[2].as_u32() + 1;
        {
            let mut dir = h.rt.dir.lock();
            for row in rows {
                let e = dir.entry_mut(row);
                e.state.rights = AccessRights::Invalid;
                e.state.owned = false;
                e.probable_owner = NodeId::new(1);
            }
        }
        let busy = |h: &Harness| rows.map(|row| h.rt.dir.lock().entry(row).state.busy);
        let rights = |h: &Harness| rows.map(|row| h.rt.dir.lock().entry(row).state.rights);
        let reply = |object, data: Vec<Vec<u8>>| DsmMsg::ObjectData {
            object,
            data,
            ownership: false,
            copyset: NodeSet::EMPTY,
            writable: false,
        };
        let arrival = munin_sim::VirtTime::from_micros(50);
        let request = |object, run| {
            DsmMsg::ObjectFetch(FetchRequest {
                object,
                run,
                ahead: 0,
                access: FetchKind::Read,
                requester: NodeId::new(0),
                phase: 0,
                elide: 0..0,
                adopt: false,
            })
        };

        // The owner hands out the first object only.
        let fault = {
            let rt = Arc::clone(&h.rt);
            std::thread::spawn(move || rt.fault(rows[0], false, window_end))
        };
        assert_eq!(h.peer_recv(), request(rows[0], 3));
        assert_eq!(busy(&h), [true; 3]);
        h.rt.handle_incoming(
            env_at(1, "object_data", arrival),
            reply(rows[0], vec![vec![7; 64]]),
        );
        fault.join().unwrap().unwrap();
        assert_eq!(busy(&h), [false; 3]);
        assert_eq!(
            rights(&h),
            [
                AccessRights::Read,
                AccessRights::Invalid,
                AccessRights::Invalid
            ]
        );

        // The next fault asks for what is left, and gets it.
        let fault = {
            let rt = Arc::clone(&h.rt);
            std::thread::spawn(move || rt.fault(rows[1], false, window_end))
        };
        assert_eq!(h.peer_recv(), request(rows[1], 2));
        assert_eq!(busy(&h), [false, true, true]);
        h.rt.handle_incoming(
            env_at(1, "object_data", arrival),
            reply(rows[1], vec![vec![8; 64], vec![9; 64]]),
        );
        fault.join().unwrap().unwrap();
        assert_eq!(busy(&h), [false; 3]);
        assert_eq!(rights(&h), [AccessRights::Read; 3]);
        assert_eq!(h.rt.object_bytes(rows[2]), vec![9; 64]);
        let stats = h.rt.stats().snapshot();
        assert_eq!((stats.read_faults, stats.objects_fetched), (2, 3));

        // More than was asked for is a protocol violation, not an install.
        h.rt.dir.lock().entry_mut(rows[2]).state.rights = AccessRights::Invalid;
        h.rt.handle_incoming(
            env_at(1, "object_data", arrival),
            reply(rows[2], vec![vec![0; 64], vec![0; 64]]),
        );
        assert!(matches!(
            h.rt.fault(rows[2], false, window_end),
            Err(crate::error::MuninError::ProtocolViolation(_))
        ));
        assert_eq!(busy(&h), [false; 3]);
    }

    /// Leaves `objects` as `finish_root_init` leaves what `user_init` never
    /// wrote: owned here, never materialised.
    fn unmaterialise(h: &Harness, objects: &[ObjectId]) {
        let mut dir = h.rt.dir.lock();
        for object in objects {
            dir.entry_mut(*object).state.rights = AccessRights::Invalid;
        }
    }

    /// The whole `ObjectData` node 1 got back.
    fn peer_reply(h: &Harness) -> (Vec<Vec<u8>>, bool, bool) {
        match h.peer_recv() {
            DsmMsg::ObjectData {
                data,
                ownership,
                writable,
                ..
            } => (data, ownership, writable),
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    /// An owner that never materialised an object describes it instead of
    /// carrying it — on a first touch and on a conventional / migratory
    /// transfer alike — pays a directory lookup but no copy for it, and the
    /// flight recorder says so. Ownership, rights and hints move as ever.
    #[test]
    fn never_materialised_object_is_served_as_an_empty_image() {
        let h = harness();
        let (ws, conv, mig) = (h.obj("ws"), h.obj("conv"), h.obj("mig"));
        unmaterialise(&h, &[ws, conv, mig]);
        let cost = &h.rt.cost;
        let mut charged = 0;
        for (object, access, writable) in [
            (ws, FetchKind::Write, false),
            (conv, FetchKind::Write, true),
            (mig, FetchKind::Read, true),
        ] {
            h.fetch(object, 1, access);
            assert_eq!(peer_reply(&h), (vec![vec![]], true, writable));
            charged += (cost.dir_op() + cost.msg_fixed()).as_nanos();
            assert_eq!(h.rt.clock().system_time().as_nanos(), charged);
            let dir = h.rt.dir.lock();
            let e = dir.entry(object);
            assert!(!e.state.owned && !e.state.rights.allows_read());
            assert_eq!(e.probable_owner, NodeId::new(1));
        }
        let served: Vec<_> =
            h.rt.obs()
                .snapshot()
                .events
                .into_iter()
                .filter(|ev| ev.kind == crate::obs::EventKind::FetchServe)
                .map(|ev| (ev.run, ev.zero_filled))
                .collect();
        assert_eq!(served, [(Some(1), Some(1)); 3]);
    }

    /// What an owner holds is carried, zeros and all: whether to elide is
    /// read off the entry, never found by looking at the bytes. So a page
    /// the program wrote zeros to travels and costs what its neighbours do,
    /// in a run too (a lookup each: `rows` is read-only, served by reference).
    #[test]
    fn materialised_zeros_keep_their_bytes() {
        let h = harness();
        let rows = h.rows();
        h.rt.install_object_bytes(rows[1], &[0; 64]);
        h.fetch(rows[0], 3, FetchKind::Read);
        let (data, ownership, _) = peer_reply(&h);
        assert_eq!(data, [vec![1; 64], vec![0; 64], vec![3; 64]]);
        assert!(!ownership);
        let cost = &h.rt.cost;
        assert_eq!(
            h.rt.clock().system_time().as_nanos(),
            3 * cost.dir_op().as_nanos() + cost.msg_fixed().as_nanos()
        );
        let snapshot = h.rt.obs().snapshot();
        let served = snapshot.events.last().unwrap();
        assert_eq!((served.run, served.zero_filled), (Some(3), None));
    }

    /// In a debug build the serve site checks what the entry's state claims.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never materialised")]
    fn eliding_an_object_whose_memory_is_not_zero_is_caught_in_debug_builds() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[5; 32]);
        unmaterialise(&h, &[ws]);
        h.fetch(ws, 1, FetchKind::Write);
    }

    /// The requesting side of an empty image: the object is *filled* with
    /// zeros — whatever an earlier, since dropped copy left in local memory
    /// is gone — rights and ownership are granted as for any image, and no
    /// fetched byte is counted. An image of any other wrong length is a
    /// protocol violation that installs nothing and grants nothing, for any
    /// object of the reply.
    #[test]
    fn requester_zero_fills_an_empty_image_and_rejects_a_wrong_length() {
        let h = harness();
        let rows = h.rows();
        let window_end = rows[2].as_u32() + 1;
        {
            let mut dir = h.rt.dir.lock();
            for row in rows {
                let e = dir.entry_mut(row);
                e.state.rights = AccessRights::Invalid;
                e.state.owned = false;
                e.probable_owner = NodeId::new(1);
            }
        }
        let reply = |data: Vec<Vec<u8>>| {
            h.rt.handle_incoming(
                env_at(1, "object_data", munin_sim::VirtTime::from_micros(50)),
                DsmMsg::ObjectData {
                    object: rows[0],
                    data,
                    ownership: false,
                    copyset: NodeSet::EMPTY,
                    writable: false,
                },
            );
        };
        let holds =
            |h: &Harness| rows.map(|row| h.rt.dir.lock().entry(row).state.rights.allows_read());

        // The second image is short: nothing of the reply is installed.
        reply(vec![vec![7; 64], vec![7; 63], vec![]]);
        assert!(matches!(
            h.rt.fault(rows[0], false, window_end),
            Err(crate::error::MuninError::ProtocolViolation(_))
        ));
        assert_eq!(holds(&h), [false; 3]);
        assert_eq!(h.rt.object_bytes(rows[0]), vec![1; 64]);
        let _ = h.peer_recv();

        // Carried, described, carried.
        reply(vec![vec![7; 64], vec![], vec![9; 64]]);
        h.rt.fault(rows[0], false, window_end).unwrap();
        assert_eq!(holds(&h), [true; 3]);
        let images = rows.map(|row| h.rt.object_bytes(row));
        assert_eq!(images, [vec![7; 64], vec![0; 64], vec![9; 64]]);
        let stats = h.rt.stats().snapshot();
        assert_eq!((stats.objects_fetched, stats.fetch_bytes), (3, 128));
    }

    /// `rows` re-annotated `annotation`, its three objects filled with 1s,
    /// 2s and 3s where the owner holds them.
    fn rows_as(h: &Harness, annotation: SharingAnnotation) -> [ObjectId; 3] {
        let rows = h.rows();
        for row in rows {
            h.rt.dir.lock().entry_mut(row).set_annotation(annotation);
        }
        rows
    }

    /// Node 1's fetch of all of `rows`, asking for `elide` without bytes.
    fn elided_fetch(h: &Harness, rows: [ObjectId; 3], elide: std::ops::Range<u32>) {
        let fetch = FetchRequest {
            object: rows[0],
            run: 3,
            ahead: 0,
            access: FetchKind::Read,
            requester: NodeId::new(1),
            phase: 0,
            elide,
            adopt: false,
        };
        h.peer_tx
            .send(
                NodeId::new(0),
                "object_fetch",
                48,
                DsmMsg::ObjectFetch(fetch),
            )
            .unwrap();
        h.pump();
    }

    /// The owner's side of write-validate: the objects a write fault's
    /// request names go as empty images, charged the lookup only — no
    /// snapshot, for no byte leaves — while the boundary object before them
    /// carries its bytes and pays its copy. The requester joins every
    /// copyset as ever, and the recorder counts the elided images with the
    /// zero-filled ones.
    #[test]
    fn owner_serves_the_objects_a_writer_overwrites_as_empty_images() {
        let h = harness();
        let rows = rows_as(&h, SharingAnnotation::Result);
        // An elided object is not looked at, not even by the debug check
        // that a never-materialised one is zero.
        h.rt.install_object_bytes(rows[2], &[5; 64]);
        unmaterialise(&h, &[rows[2]]);
        elided_fetch(&h, rows, rows[1].as_u32()..rows[2].as_u32() + 1);
        let (data, ownership, writable) = peer_reply(&h);
        assert_eq!(data, [vec![1; 64], vec![], vec![]]);
        assert!(!ownership && !writable);
        assert!(rows.iter().all(|row| h.holds_copy(*row)));
        let cost = &h.rt.cost;
        let charged = 3 * cost.dir_op().as_nanos() + (cost.copy(64) + cost.msg_fixed()).as_nanos();
        assert_eq!(h.rt.clock().system_time().as_nanos(), charged);
        let snapshot = h.rt.obs().snapshot();
        let served = snapshot.events.last().unwrap();
        assert_eq!((served.run, served.zero_filled), (Some(3), Some(2)));
    }

    /// Eliding is for plain copies: a conventional write fetch moves the
    /// object, and its bytes go with it whatever the request says.
    #[test]
    fn an_ownership_transfer_carries_its_bytes_whatever_the_request_elides() {
        let h = harness();
        let rows = rows_as(&h, SharingAnnotation::Conventional);
        let fetch = FetchRequest {
            object: rows[0],
            run: 1,
            ahead: 0,
            access: FetchKind::Write,
            requester: NodeId::new(1),
            phase: 0,
            elide: rows[0].as_u32()..rows[0].as_u32() + 1,
            adopt: false,
        };
        h.peer_tx
            .send(
                NodeId::new(0),
                "object_fetch",
                48,
                DsmMsg::ObjectFetch(fetch),
            )
            .unwrap();
        h.pump();
        assert_eq!(peer_reply(&h), (vec![vec![1; 64]], true, true));
    }

    /// Node 0 as a worker of `rows`: homed and owned at node 1, no copy here
    /// (the explicit access mode: the write runs on a thread of its own).
    fn worker_of_rows(annotation: SharingAnnotation) -> (Harness, [ObjectId; 3]) {
        let cfg = MuninConfig::fast_test(2).with_access_mode(crate::AccessMode::Explicit);
        let h = harness_with(cfg);
        let rows = rows_as(&h, annotation);
        let mut dir = h.rt.dir.lock();
        for row in rows {
            let e = dir.entry_mut(row);
            e.state.rights = AccessRights::Invalid;
            e.state.owned = false;
            e.probable_owner = NodeId::new(1);
            e.home = NodeId::new(1);
        }
        drop(dir);
        (h, rows)
    }

    /// The images node 1 answers a fetch with.
    type Images = fn(&FetchRequest) -> Vec<Vec<u8>>;

    /// Node 0 writes `len` bytes of 9s into `rows` from byte `from` on; node
    /// 1 answers each fetch in turn with the images `replies` gives for its
    /// request. Returns the requests and what the write returned.
    fn write_rows(
        h: &Harness,
        from: usize,
        len: usize,
        replies: &[Images],
    ) -> (Vec<FetchRequest>, crate::error::Result<()>) {
        let var = h.rt.table().var_by_name("rows").unwrap().id;
        let write = {
            let rt = Arc::clone(&h.rt);
            std::thread::spawn(move || rt.write_var_bytes(var, from, &vec![9; len]))
        };
        let mut requests = Vec::new();
        for images in replies {
            let DsmMsg::ObjectFetch(fetch) = h.peer_recv() else {
                panic!("expected a fetch");
            };
            let reply = DsmMsg::ObjectData {
                object: fetch.object,
                data: images(&fetch),
                ownership: false,
                copyset: NodeSet::EMPTY,
                writable: false,
            };
            let at = munin_sim::VirtTime::from_micros(50);
            h.rt.handle_incoming(env_at(1, "object_data", at), reply);
            requests.push(fetch);
        }
        (requests, write.join().unwrap())
    }

    /// Owner-style images for a request: the empty image for what it asks
    /// to elide, 7s for the rest.
    fn images_of(fetch: &FetchRequest) -> Vec<Vec<u8>> {
        let ids = fetch.object.as_u32()..fetch.object.as_u32() + fetch.run;
        ids.map(|id| {
            if fetch.elide.contains(&id) {
                vec![]
            } else {
                vec![7; 64]
            }
        })
        .collect()
    }

    /// (rights, queued, has a twin) of each object of `rows`.
    fn row_states(h: &Harness, rows: [ObjectId; 3]) -> [(AccessRights, bool, bool); 3] {
        let duq = h.rt.duq.lock();
        let dir = h.rt.dir.lock();
        rows.map(|row| {
            let queued = duq.contains(row);
            (
                dir.entry(row).state.rights,
                queued,
                duq.twin_of(row).is_some(),
            )
        })
    }

    /// The requester's side: one write fault fetches the run, asking for the
    /// two objects the write covers whole without their bytes. Those are
    /// installed writable and queued with no twin — no further fault —
    /// while the boundary object, holding a neighbour's bytes too, takes
    /// its twin. The flush then sends the elided objects whole to their home
    /// and drops the local copy, and the boundary object as a diff.
    #[test]
    fn requester_installs_what_it_overwrites_writable_and_flushes_it_whole() {
        let (h, rows) = worker_of_rows(SharingAnnotation::Result);
        let (requests, result) = write_rows(&h, 32, 160, &[images_of]);
        result.unwrap();
        assert_eq!(requests[0].run, 3);
        assert_eq!(requests[0].elide, rows[1].as_u32()..rows[2].as_u32() + 1);
        let rw = AccessRights::ReadWrite;
        assert_eq!(
            row_states(&h, rows),
            [(rw, true, true), (rw, true, false), (rw, true, false)]
        );
        let stats = h.rt.stats().snapshot();
        assert_eq!((stats.write_faults, stats.twins_created), (1, 1));
        assert_eq!((stats.objects_fetched, stats.fetch_bytes), (3, 64));
        let mut boundary = vec![7; 64];
        boundary[32..].fill(9);
        assert_eq!(h.rt.object_bytes(rows[0]), boundary);
        let (payload, route) = h.rt.encode_entry(rows[1]).unwrap();
        assert_eq!(payload, Some(UpdatePayload::Full(vec![9; 64])));
        let home = NodeSet::from_nodes([NodeId::new(1)]);
        assert_eq!(route.destinations, home);
        let (payload, _) = h.rt.encode_entry(rows[0]).unwrap();
        assert!(matches!(payload, Some(UpdatePayload::Diff(_))));
        for row in &rows[..2] {
            assert_eq!(
                h.rt.dir.lock().entry(*row).state.rights,
                AccessRights::Invalid
            );
        }
    }

    /// A covered object that already has a copy here takes its twin as
    /// ever — its diff may be far smaller than its image — and the run
    /// stops at it; the covered object behind it, fetched by a fault of its
    /// own, still comes without its bytes.
    #[test]
    fn a_covered_object_with_a_copy_keeps_its_twin() {
        let (h, rows) = worker_of_rows(SharingAnnotation::Result);
        h.rt.install_object_bytes(rows[1], &[2; 64]);
        h.rt.dir.lock().entry_mut(rows[1]).state.rights = AccessRights::Read;
        let (requests, result) = write_rows(&h, 32, 160, &[images_of, images_of]);
        result.unwrap();
        let asked: Vec<_> = requests
            .iter()
            .map(|f| (f.object, f.run, f.elide.clone()))
            .collect();
        let last = rows[2].as_u32();
        assert_eq!(asked, [(rows[0], 1, 0..0), (rows[2], 1, last..last + 1)]);
        let rw = AccessRights::ReadWrite;
        assert_eq!(
            row_states(&h, rows),
            [(rw, true, true), (rw, true, true), (rw, true, false)]
        );
        assert_eq!(
            h.rt.duq.lock().twin_of(rows[1]).unwrap(),
            [2; 64].as_slice()
        );
    }

    /// The rule is keyed on the protocol in force: the same write to `rows`
    /// made write-shared (Table 6's forced cell) asks for every byte and
    /// twins every object.
    #[test]
    fn a_write_shared_overwrite_is_fetched_with_its_bytes() {
        let (h, _) = worker_of_rows(SharingAnnotation::WriteShared);
        let (requests, result) = write_rows(&h, 0, 192, &[images_of]);
        result.unwrap();
        assert_eq!((requests[0].run, requests[0].elide.clone()), (3, 0..0));
        let stats = h.rt.stats().snapshot();
        assert_eq!((stats.write_faults, stats.twins_created), (3, 3));
    }

    /// A write that fails after a fault installed objects without their
    /// bytes drops them again: they hold zeros, not the object, so they are
    /// neither left readable nor flushed whole. Here the owner serves the
    /// first two objects, and its answer for the last is not an image.
    #[test]
    fn a_failed_write_drops_what_it_installed_without_bytes() {
        let (h, rows) = worker_of_rows(SharingAnnotation::Result);
        let short = |fetch: &FetchRequest| images_of(fetch)[..2].to_vec();
        let broken = |_: &FetchRequest| vec![vec![0; 3]];
        let (_, result) = write_rows(&h, 32, 160, &[short, broken]);
        assert!(matches!(
            result,
            Err(crate::error::MuninError::ProtocolViolation(_))
        ));
        let states = row_states(&h, rows);
        assert_eq!(states[0], (AccessRights::ReadWrite, true, true));
        assert_eq!(states[1], (AccessRights::Invalid, false, false));
        assert_eq!(states[2], (AccessRights::Invalid, false, false));
        assert!(h.rt.overwrite.lock().1.is_empty());
    }

    /// `rows` made producer-consumer (no fixed owner) and left as
    /// `finish_root_init` leaves what `user_init` never wrote: zero, owned
    /// here, never materialised.
    fn untouched_rows(h: &Harness) -> [ObjectId; 3] {
        let rows = rows_as(h, SharingAnnotation::ProducerConsumer);
        for row in rows {
            h.rt.install_object_bytes(row, &[]);
        }
        unmaterialise(h, &rows);
        rows
    }

    /// Node 1's read fetch of `run` objects from `object` on, the last
    /// `ahead` of them past its access window.
    fn ahead_fetch(h: &Harness, object: ObjectId, run: u32, ahead: u32) {
        let DsmMsg::ObjectFetch(fetch) = fetch_msg(object, run, FetchKind::Read, 0) else {
            unreachable!()
        };
        let fetch = DsmMsg::ObjectFetch(FetchRequest { ahead, ..fetch });
        h.peer_tx
            .send(NodeId::new(0), "object_fetch", 48, fetch)
            .unwrap();
        h.pump();
    }

    /// Past the requester's window the owner hands out first touches, as
    /// far as the request asks: each an empty image and a lookup, ownership
    /// and hint moving to the requester, which joins no copyset.
    #[test]
    fn owner_serves_first_touches_past_the_window_up_to_the_requested_end() {
        let h = harness();
        let rows = untouched_rows(&h);
        ahead_fetch(&h, rows[0], 2, 1);
        assert_eq!(peer_reply(&h), (vec![vec![], vec![]], true, false));
        let cost = &h.rt.cost;
        let charged = 2 * cost.dir_op().as_nanos() + cost.msg_fixed().as_nanos();
        assert_eq!(h.rt.clock().system_time().as_nanos(), charged);
        {
            let dir = h.rt.dir.lock();
            for row in &rows[..2] {
                let e = dir.entry(*row);
                assert!(!e.state.owned && e.copyset.is_empty());
                assert_eq!(e.probable_owner, NodeId::new(1));
            }
            assert!(dir.entry(rows[2]).state.owned, "not asked for");
        }
        let snapshot = h.rt.obs().snapshot();
        let served = snapshot.events.last().unwrap();
        assert_eq!((served.run, served.zero_filled), (Some(2), Some(2)));
    }

    /// Past the window only first touches go: the reply stops at an object
    /// that is materialised, busy, owned elsewhere or fixed at its owner,
    /// and leaves it where it was. A reply that begins with a plain copy
    /// never reaches past the window, whatever lies behind it.
    #[test]
    fn ahead_serving_stops_at_anything_but_a_first_touch() {
        #[derive(Clone, Copy, Debug)]
        enum Second {
            Materialised,
            Busy,
            OwnedElsewhere,
            FixedOwner,
        }
        use Second::*;
        for second in [Materialised, Busy, OwnedElsewhere, FixedOwner] {
            let h = harness();
            let rows = untouched_rows(&h);
            {
                let mut dir = h.rt.dir.lock();
                let e = dir.entry_mut(rows[1]);
                match second {
                    Materialised => e.state.rights = AccessRights::Read,
                    Busy => e.state.busy = true,
                    OwnedElsewhere => {
                        e.state.owned = false;
                        e.probable_owner = NodeId::new(1);
                    }
                    FixedOwner => e.set_annotation(SharingAnnotation::Result),
                }
            }
            ahead_fetch(&h, rows[0], 3, 2);
            assert_eq!(peer_reply(&h), (vec![vec![]], true, false), "{second:?}");
            let dir = h.rt.dir.lock();
            let owned = rows.map(|row| dir.entry(row).state.owned);
            let second_stays = !matches!(second, OwnedElsewhere);
            assert_eq!(owned, [false, second_stays, true], "{second:?}");
            assert!(h.rt.deferred.lock().is_empty(), "{second:?}");
        }
        for first_untouched in [false, true] {
            let h = harness();
            let rows = if first_untouched {
                untouched_rows(&h)
            } else {
                h.rows()
            };
            h.rt.install_object_bytes(rows[0], &[1; 64]);
            h.rt.dir.lock().entry_mut(rows[0]).state.rights = AccessRights::Read;
            ahead_fetch(&h, rows[0], 3, 2);
            assert_eq!(peer_reply(&h), (vec![vec![1; 64]], false, false));
            assert!(h.holds_copy(rows[0]) && !h.holds_copy(rows[1]));
            assert!(h.rt.dir.lock().entry(rows[1]).state.owned);
        }
    }

    /// Node 0 as a worker of `band`, annotated `annotation`: homed and
    /// owned at node 1, no copy here, its memory holding a dropped copy's
    /// 5s. Node 0's block is `band[0..4]` (8 objects at 2 nodes).
    fn worker_of_band(annotation: SharingAnnotation) -> (Harness, [ObjectId; 8]) {
        let cfg = MuninConfig::fast_test(2).with_access_mode(crate::AccessMode::Explicit);
        let h = harness_with(cfg);
        let band: [ObjectId; 8] = h.rt.table().var_by_name("band").unwrap().objects[..]
            .try_into()
            .unwrap();
        let mut dir = h.rt.dir.lock();
        for o in band {
            h.rt.install_object_bytes(o, &[5; 64]);
            let e = dir.entry_mut(o);
            e.set_annotation(annotation);
            e.state.rights = AccessRights::Invalid;
            e.state.owned = false;
            e.probable_owner = NodeId::new(1);
            e.home = NodeId::new(1);
        }
        drop(dir);
        (h, band)
    }

    /// Node 0 writes 8 bytes into `band[0]`, and node 1 answers the fetch
    /// with `data`, `ownership` and `writable`. Returns the request and what
    /// the write returned.
    fn first_write_in_block(
        h: &Harness,
        (data, ownership, writable): (Vec<Vec<u8>>, bool, bool),
    ) -> (FetchRequest, crate::error::Result<()>) {
        let var = h.rt.table().var_by_name("band").unwrap().id;
        let write = {
            let rt = Arc::clone(&h.rt);
            std::thread::spawn(move || rt.write_var_bytes(var, 0, &[9; 8]))
        };
        let DsmMsg::ObjectFetch(fetch) = h.peer_recv() else {
            panic!("expected a fetch");
        };
        let reply = DsmMsg::ObjectData {
            object: fetch.object,
            data,
            ownership,
            copyset: NodeSet::EMPTY,
            writable,
        };
        let at = munin_sim::VirtTime::from_micros(50);
        h.rt.handle_incoming(env_at(1, "object_data", at), reply);
        (fetch, write.join().unwrap())
    }

    /// The requester's side: a node's first write into its own block asks
    /// for the rest of the block ahead but its last object, and installs
    /// each ahead object owned, with no rights, no copyset and zeroed
    /// memory, out of the DUQ. A `write_shared` one, never sole, stays so:
    /// its later write zero-fills it here, a fault and no message, and
    /// twins it.
    #[test]
    fn requester_installs_ahead_objects_owned_with_no_rights_and_zero_memory() {
        let (h, band) = worker_of_band(SharingAnnotation::WriteShared);
        let (fetch, result) = first_write_in_block(&h, (vec![vec![]; 3], true, false));
        result.unwrap();
        assert_eq!((fetch.object, fetch.run, fetch.ahead), (band[0], 3, 2));
        let state = |h: &Harness, o| {
            let dir = h.rt.dir.lock();
            let e = dir.entry(o);
            (
                e.state.owned,
                e.state.rights,
                e.copyset.is_empty(),
                e.state.busy,
            )
        };
        let (invalid, rw) = (AccessRights::Invalid, AccessRights::ReadWrite);
        assert_eq!(state(&h, band[0]), (true, rw, true, false));
        for ahead in &band[1..3] {
            assert_eq!(state(&h, *ahead), (true, invalid, true, false));
            assert_eq!(h.rt.dir.lock().entry(*ahead).probable_owner, NodeId::new(0));
            assert_eq!(h.rt.object_bytes(*ahead), vec![0; 64]);
            assert!(!h.rt.duq.lock().contains(*ahead));
        }
        assert_eq!(state(&h, band[3]), (false, invalid, true, false));
        assert_eq!(h.rt.object_bytes(band[3]), vec![5; 64], "not asked for");

        let var = h.rt.table().var_by_name("band").unwrap().id;
        h.rt.write_var_bytes(var, 64, &[9; 8]).unwrap();
        assert!(matches!(h.peer_rx.try_recv(), Ok(None)), "no message");
        assert_eq!(state(&h, band[1]), (true, rw, true, false));
        assert!(h.rt.duq.lock().contains(band[1]));
        assert_eq!(h.rt.duq.lock().twin_of(band[1]), Some(&[0; 64][..]));
        let stats = h.rt.stats().snapshot();
        assert_eq!((stats.write_faults, stats.objects_fetched), (2, 3));
    }

    /// One trap per block: a `producer_consumer` ahead object is sole here
    /// (stable, owned, held by nobody else), so the first write's trap
    /// enables it too — zeroed, queued with no twin, writable — and the
    /// node's later write to it takes no fault and sends no message.
    #[test]
    fn one_trap_enables_the_ahead_objects_the_node_holds_alone() {
        let (h, band) = worker_of_band(SharingAnnotation::ProducerConsumer);
        first_write_in_block(&h, (vec![vec![]; 3], true, false))
            .1
            .unwrap();
        for ahead in &band[1..3] {
            let dir = h.rt.dir.lock();
            let e = dir.entry(*ahead);
            assert!(e.state.owned && e.copyset.is_empty() && !e.state.busy);
            assert_eq!(e.state.rights, AccessRights::ReadWrite);
            drop(dir);
            assert_eq!(h.rt.object_bytes(*ahead), vec![0; 64]);
            assert!(h.rt.duq.lock().contains(*ahead));
            assert_eq!(h.rt.duq.lock().twin_of(*ahead), None);
        }
        assert!(!h.rt.dir.lock().entry(band[3]).state.owned, "not asked for");
        let var = h.rt.table().var_by_name("band").unwrap().id;
        h.rt.write_var_bytes(var, 64, &[9; 8]).unwrap();
        assert!(matches!(h.peer_rx.try_recv(), Ok(None)), "no message");
        let stats = h.rt.stats().snapshot();
        assert_eq!((stats.write_faults, stats.objects_fetched), (1, 3));
    }

    /// A wrong guess about a `write_shared` block costs ownership only: a
    /// peer that fetches an ahead object the node never wrote gets it back
    /// as a first touch, an empty image with ownership and an empty copyset,
    /// and the node keeps no copy and joins no copyset.
    #[test]
    fn a_peers_fetch_of_an_untouched_ahead_object_is_a_first_touch() {
        let (h, band) = worker_of_band(SharingAnnotation::WriteShared);
        first_write_in_block(&h, (vec![vec![]; 3], true, false))
            .1
            .unwrap();
        h.fetch(band[2], 1, FetchKind::Read);
        match h.peer_recv() {
            DsmMsg::ObjectData {
                data,
                ownership,
                copyset,
                writable,
                ..
            } => assert_eq!(
                (data, ownership, copyset, writable),
                (vec![vec![]], true, NodeSet::EMPTY, false)
            ),
            other => panic!("unexpected reply: {other:?}"),
        }
        let dir = h.rt.dir.lock();
        let e = dir.entry(band[2]);
        assert!(!e.state.owned && !e.state.rights.allows_read());
        assert_eq!(e.probable_owner, NodeId::new(1));
    }

    /// The price of one trap per block: a `producer_consumer` ahead object
    /// the first trap enabled is materialised, written or not, so a peer's
    /// fetch of it gets a plain copy with its bytes; the node keeps
    /// ownership, the peer joins the copyset, and the page, queued twinless,
    /// takes the image served as its twin.
    #[test]
    fn a_peers_fetch_of_an_enabled_ahead_object_is_a_copy() {
        let (h, band) = worker_of_band(SharingAnnotation::ProducerConsumer);
        first_write_in_block(&h, (vec![vec![]; 3], true, false))
            .1
            .unwrap();
        h.fetch(band[2], 1, FetchKind::Read);
        assert_eq!(peer_reply(&h), (vec![vec![0; 64]], false, false));
        let dir = h.rt.dir.lock();
        let e = dir.entry(band[2]);
        assert!(e.state.owned && e.copyset.contains(NodeId::new(1)));
        drop(dir);
        assert_eq!(h.rt.duq.lock().twin_of(band[2]), Some(&[0; 64][..]));
    }

    /// A transfer reply of more than one object, an ahead image that carries
    /// bytes and a plain copy past the window are protocol violations,
    /// raised before anything of the reply is installed.
    #[test]
    fn a_malformed_ahead_reply_installs_nothing() {
        for reply in [
            (vec![vec![7; 64], vec![7; 64]], true, true),
            (vec![vec![], vec![], vec![7; 64]], true, false),
            (vec![vec![7; 64], vec![7; 64]], false, false),
        ] {
            let (h, band) = worker_of_band(SharingAnnotation::ProducerConsumer);
            let (_, result) = first_write_in_block(&h, reply.clone());
            assert!(
                matches!(result, Err(crate::error::MuninError::ProtocolViolation(_))),
                "{reply:?}"
            );
            let dir = h.rt.dir.lock();
            for o in &band[..3] {
                let e = dir.entry(*o);
                assert!(!e.state.owned && e.state.rights == AccessRights::Invalid);
            }
            drop(dir);
            for o in &band[..3] {
                assert_eq!(h.rt.object_bytes(*o), vec![5; 64], "{reply:?}");
            }
        }
    }

    /// An update hitting an object whose fetch is in flight is deferred, not
    /// dropped: the in-flight object data predates the update, so discarding
    /// it would leave the just-installed copy permanently stale.
    #[test]
    fn update_for_mid_fetch_object_is_deferred_until_install() {
        let h = harness();
        let ws = h.obj("ws");
        // Simulate "fetch in flight": no local copy, busy bit set.
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.rights = AccessRights::Invalid;
            e.state.busy = true;
        }
        let d = diff::encode(&[9u8; 32], &[0u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "update",
                64,
                DsmMsg::Update(bundle_of(
                    1,
                    0,
                    ws,
                    UpdatePayload::Diff(d),
                    Route::DirectAcked,
                )),
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock().len(), 1, "update must be deferred");
        // The fetch completes: data installed, busy cleared. The deferred
        // update is then applied on top of the installed (stale) copy.
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.busy = false;
            e.state.rights = AccessRights::Read;
        }
        h.rt.process_deferred();
        match h.peer_recv() {
            DsmMsg::UpdateAck { refanned: None } => {}
            other => panic!("unexpected reply: {other:?}"),
        }
        assert_eq!(
            h.rt.object_bytes(ws),
            vec![9u8; 32],
            "deferred update applied after install"
        );
    }

    #[test]
    fn update_applies_diff_to_local_copy_and_acks() {
        let h = harness();
        let ws = h.obj("ws");
        let original = vec![0u8; 32];
        h.rt.install_object_bytes(ws, &original);
        let mut modified = original.clone();
        modified[0..4].copy_from_slice(&7u32.to_le_bytes());
        let d = diff::encode(&modified, &original);
        h.peer_tx
            .send(
                NodeId::new(0),
                "update",
                64,
                DsmMsg::Update(bundle_of(
                    1,
                    0,
                    ws,
                    UpdatePayload::Diff(d),
                    Route::DirectAcked,
                )),
            )
            .unwrap();
        h.pump();
        assert_eq!(h.peer_recv(), DsmMsg::UpdateAck { refanned: None });
        assert_eq!(&h.rt.object_bytes(ws)[0..4], &7u32.to_le_bytes());
    }

    /// A carried bundle on its own — the shape it re-queues in when it has
    /// to wait — applies exactly like a standalone update, minus the ack.
    #[test]
    fn carrier_bundle_applies_like_an_update() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let d = diff::encode(&[5u8; 32], &[0u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "update",
                64,
                DsmMsg::Update(bundle_of(1, 0, ws, UpdatePayload::Diff(d), Route::Carried)),
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.object_bytes(ws), vec![5u8; 32]);
        assert_eq!(h.rt.stats().snapshot().updates_applied, 1);
        // Piggybacked bundles are never individually acknowledged.
        assert!(h.peer_rx.try_recv().unwrap().is_none());
    }

    /// A carrier bundle hitting a busy entry defers — same pin/busy
    /// discipline as a standalone update — and applies once the transition
    /// completes.
    #[test]
    fn carrier_bundle_for_busy_entry_is_deferred() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        h.rt.dir.lock().entry_mut(ws).state.busy = true;
        let d = diff::encode(&[9u8; 32], &[0u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "update",
                64,
                DsmMsg::Update(bundle_of(1, 0, ws, UpdatePayload::Diff(d), Route::Carried)),
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock().len(), 1, "bundle must defer on busy");
        assert_eq!(h.rt.object_bytes(ws), vec![0u8; 32]);
        h.rt.dir.lock().entry_mut(ws).state.busy = false;
        h.rt.process_deferred();
        assert_eq!(h.rt.object_bytes(ws), vec![9u8; 32]);
    }

    /// Sync-install bundles (lock-associated data on a grant carrier) force
    /// the install and apply the migratory ownership handover — the receive
    /// side of the old `install_piggyback`, now on the one carrier path.
    #[test]
    fn lock_grant_carrier_installs_migratory_data_with_ownership() {
        let h = harness();
        let mig = h.obj("mig");
        let lock = crate::sync::LockId(0);
        {
            // This node is not the owner and has no copy: a migratory grant
            // must install the image and hand over ownership anyway.
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(mig);
            e.state.rights = AccessRights::Invalid;
            e.state.owned = false;
            e.probable_owner = NodeId::new(1);
        }
        // The token is at node 1 and this node has asked for it back.
        h.rt.sync
            .lock()
            .lock_mut(lock)
            .handle_remote_acquire(NodeId::new(1));
        let t0 = h.rt.request_lock(lock).unwrap().expect("remote acquire");
        assert!(matches!(h.peer_recv(), DsmMsg::LockAcquire { .. }));
        h.peer_tx
            .send(
                NodeId::new(0),
                "lock_grant",
                96,
                DsmMsg::Carrier {
                    inner: Box::new(DsmMsg::LockGrant {
                        lock,
                        queue: vec![],
                    }),
                    updates: vec![bundle_of(
                        1,
                        0,
                        mig,
                        UpdatePayload::Full(vec![3u8; 32]),
                        Route::SyncInstall,
                    )],
                    relay: vec![],
                },
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.object_bytes(mig), vec![3u8; 32]);
        let dir = h.rt.dir.lock();
        let e = dir.entry(mig);
        assert_eq!(e.state.rights, AccessRights::ReadWrite);
        assert!(e.state.owned);
        assert_eq!(e.probable_owner, NodeId::new(0));
        drop(dir);
        // The framed grant itself was dispatched only after the install:
        // the token is in the directory and the user thread's wake-up is in
        // its mailbox.
        let state = h.rt.sync.lock().lock(lock).clone();
        assert!(state.owned && state.held && !state.awaiting);
        h.rt.await_lock_grant(lock, t0).unwrap();
    }

    /// A barrier-arrive carrier stashes relayed bundles at the owner and
    /// re-attaches each to the release headed to its destination; the
    /// owner's own share installs before the arrival is counted.
    #[test]
    fn barrier_arrive_relay_is_redistributed_on_the_releases() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        // Node 0 arrives first (no relay of its own).
        h.arrive_here();
        // Node 1 arrives with a relay: one bundle for node 0 (the owner
        // itself).
        let d0 = diff::encode(&[7u8; 32], &[0u8; 32]);
        h.peer_tx
            .send(
                NodeId::new(0),
                "barrier_arrive",
                96,
                DsmMsg::Carrier {
                    inner: Box::new(peer_arrive()),
                    updates: vec![],
                    relay: vec![(
                        NodeId::new(0),
                        bundle_of(1, 0, ws, UpdatePayload::Diff(d0), Route::Carried),
                    )],
                },
            )
            .unwrap();
        h.pump();
        // The owner's share was installed at arrive-processing time, before
        // the trip.
        assert_eq!(h.rt.object_bytes(ws), vec![7u8; 32]);
        // Node 1's release is a plain BarrierRelease (nothing stashed for it).
        assert!(matches!(h.peer_recv(), DsmMsg::BarrierRelease { .. }));
    }

    /// The cross-link reordering regression the update sequence stream
    /// exists for: a barrier-relayed bundle (seq 0, travelling via the
    /// barrier owner) is overtaken by a newer direct update (seq 1, on the
    /// flusher's own link). The direct update must defer until the relayed
    /// bundle lands, and a late duplicate of the old bundle must be dropped
    /// — never applied over the newer data.
    #[test]
    fn update_stream_orders_relayed_and_direct_updates_across_links() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let old_diff = diff::encode(&[1u8; 32], &[0u8; 32]);
        let new_diff = diff::encode(&[2u8; 32], &[1u8; 32]);
        // The newer direct update (seq 1) arrives first: it must defer.
        h.peer_tx
            .send(
                NodeId::new(0),
                "update",
                64,
                DsmMsg::Update(bundle_of(
                    1,
                    1,
                    ws,
                    UpdatePayload::Diff(new_diff),
                    Route::DirectAcked,
                )),
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock().len(), 1, "early update must defer");
        assert_eq!(h.rt.object_bytes(ws), vec![0u8; 32]);
        // The relayed bundle (seq 0) lands — e.g. on a BarrierRelease
        // carrier — and unblocks the stream.
        h.peer_tx
            .send(
                NodeId::new(0),
                "barrier_release",
                96,
                DsmMsg::Carrier {
                    inner: Box::new(PEER_RELEASE),
                    updates: vec![bundle_of(
                        1,
                        0,
                        ws,
                        UpdatePayload::Diff(old_diff.clone()),
                        Route::Carried,
                    )],
                    relay: vec![],
                },
            )
            .unwrap();
        h.pump();
        h.rt.process_deferred();
        // Both applied, in stream order: the copy holds the *newer* data.
        assert_eq!(h.rt.object_bytes(ws), vec![2u8; 32]);
        assert_eq!(h.peer_recv(), DsmMsg::UpdateAck { refanned: None });
        // A duplicate of the old bundle is stale and must be dropped.
        h.peer_tx
            .send(
                NodeId::new(0),
                "update",
                64,
                DsmMsg::Update(bundle_of(
                    1,
                    0,
                    ws,
                    UpdatePayload::Diff(old_diff),
                    Route::Carried,
                )),
            )
            .unwrap();
        h.pump();
        assert_eq!(
            h.rt.object_bytes(ws),
            vec![2u8; 32],
            "stale bundle must not regress the copy"
        );
    }

    /// A release whose only cargo is an item-less fence in slot 1 of N1's
    /// stream, and the direct update in slot 0 it fences.
    fn fenced_release_and_update(ws: ObjectId) -> (DsmMsg, UpdateBundle, UpdateBundle) {
        let fence = UpdateBundle {
            origin: NodeId::new(1),
            seq: 1,
            items: vec![],
            route: Route::Carried,
        };
        let release = DsmMsg::Carrier {
            inner: Box::new(PEER_RELEASE),
            updates: vec![fence.clone()],
            relay: vec![],
        };
        let d = diff::encode(&[4u8; 32], &[0u8; 32]);
        let update = bundle_of(1, 0, ws, UpdatePayload::Diff(d), Route::DirectUnacked);
        (release, fence, update)
    }

    /// The barrier is the ack, from the destination's side. The release
    /// outruns the direct update it fences (they travel different links):
    /// it is parked whole, and reaches the user thread only once the update
    /// has been installed. Nothing is acknowledged, and a duplicate of
    /// either transmission is stale.
    #[test]
    fn release_fenced_behind_a_direct_update_waits_for_its_install() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let (release, fence, update) = fenced_release_and_update(ws);
        h.peer_tx
            .send(NodeId::new(0), "barrier_release", 40, release)
            .unwrap();
        h.pump();
        {
            let deferred = h.rt.deferred.lock();
            assert_eq!(deferred.len(), 1, "the release waits for slot 0");
            assert_eq!(deferred[0].on, DeferredOn::Stream);
            assert!(matches!(deferred[0].msg, DsmMsg::Carrier { .. }));
        }
        assert!(h.rt.replies.try_recv().is_none(), "release not routed yet");
        let update_msg = DsmMsg::Update(update.clone());
        h.peer_tx
            .send(NodeId::new(0), "update", 64, update_msg)
            .unwrap();
        h.pump();
        assert_eq!(h.rt.object_bytes(ws), vec![4u8; 32]);
        h.rt.process_deferred();
        assert!(h.rt.deferred.lock().is_empty());
        let (_env, routed) = h.rt.replies.try_recv().expect("release routed");
        assert!(matches!(routed, DsmMsg::BarrierRelease { .. }));
        assert!(h.peer_rx.try_recv().unwrap().is_none(), "no ack either way");
        let env = env_at(1, "update", munin_sim::VirtTime::ZERO);
        assert_eq!(h.rt.admit(&env, &update), Admission::Stale);
        assert_eq!(h.rt.admit(&env, &fence), Admission::Stale);
        assert_eq!(h.rt.stats().snapshot().updates_applied, 1);
    }

    /// A fence must not outlive its origin: the update it waits for was lost
    /// with N1 (a corpse's traffic is dropped on arrival), so confirming the
    /// death lets the parked release through — and the stream resumes after
    /// the fence, so a straggler from before it stays stale.
    #[test]
    fn release_fenced_by_a_dead_origin_is_routed_once_the_death_is_confirmed() {
        let detect = std::time::Duration::from_secs(60);
        let h = harness_with(MuninConfig::fast_test(2).with_detect(detect));
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let (release, _fence, update) = fenced_release_and_update(ws);
        h.peer_tx
            .send(NodeId::new(0), "barrier_release", 40, release)
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock().len(), 1);
        h.rt.process_deferred();
        assert_eq!(h.rt.deferred.lock().len(), 1, "a live origin still gates");
        h.rt.confirm_peer_dead(NodeId::new(1), true);
        assert!(h.rt.deferred.lock().is_empty());
        let (_env, routed) = h.rt.replies.try_recv().expect("release routed");
        assert!(matches!(routed, DsmMsg::BarrierRelease { .. }));
        let env = env_at(1, "update", munin_sim::VirtTime::ZERO);
        assert_eq!(h.rt.admit(&env, &update), Admission::Stale);
        assert_eq!(h.rt.object_bytes(ws), vec![0u8; 32]);
    }

    #[test]
    fn invalidate_drops_copy_and_acknowledges() {
        let h = harness();
        let conv = h.obj("conv");
        h.peer_tx
            .send(
                NodeId::new(0),
                "invalidate",
                40,
                DsmMsg::Invalidate {
                    object: conv,
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        assert!(matches!(h.peer_recv(), DsmMsg::InvalidateAck { .. }));
        assert_eq!(
            h.rt.dir.lock().entry(conv).state.rights,
            AccessRights::Invalid
        );
    }

    #[test]
    fn copyset_query_reports_held_objects_only() {
        let h = harness();
        let ro = h.obj("ro");
        let ws = h.obj("ws");
        // Drop the write-shared copy so only `ro` is held.
        h.rt.dir.lock().entry_mut(ws).state.rights = AccessRights::Invalid;
        h.peer_tx
            .send(
                NodeId::new(0),
                "copyset_query",
                40,
                DsmMsg::CopysetQuery {
                    objects: vec![ro, ws].into(),
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        match h.peer_recv() {
            DsmMsg::CopysetReply { have } => assert_eq!(have, vec![ro]),
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    /// A query for an entry that is mid-fetch waits for the fetch — unless
    /// that fetch is itself stuck collecting every peer's answer (orphan
    /// recovery): two such nodes deferring each other's queries would
    /// deadlock, so the query is answered at once, and truthfully: no copy.
    #[test]
    fn copyset_query_is_not_deferred_behind_an_orphan_recovery_round() {
        let h = harness();
        let ws = h.obj("ws");
        let query = || DsmMsg::CopysetQuery {
            objects: vec![ws].into(),
            requester: NodeId::new(1),
        };
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.rights = AccessRights::Invalid;
            e.state.busy = true;
        }
        h.peer_tx
            .send(NodeId::new(0), "copyset_query", 40, query())
            .unwrap();
        h.pump();
        assert_eq!(h.rt.deferred.lock().len(), 1, "mid-fetch: deferred");
        assert!(h.peer_rx.try_recv().unwrap().is_none());
        // The fetch turns into an orphan-recovery round: the deferred query
        // is answered on the next retry.
        h.rt.dir.lock().entry_mut(ws).state.recovering = true;
        h.rt.process_deferred();
        assert!(h.rt.deferred.lock().is_empty());
        match h.peer_recv() {
            DsmMsg::CopysetReply { have } => assert!(have.is_empty()),
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    /// Crash recovery can answer one fetch twice (the original request and
    /// the adoption sent on its behalf). The copy that arrives after the
    /// fetch is over must not be taken for the reply to the next wait.
    #[test]
    fn late_second_copy_does_not_answer_the_next_wait() {
        let detect = std::time::Duration::from_secs(60);
        let h = harness_with(MuninConfig::fast_test(2).with_detect(detect));
        let ws = h.obj("ws");
        let copy = DsmMsg::ObjectData {
            object: ws,
            data: vec![vec![1u8; 32]],
            ownership: false,
            copyset: NodeSet::EMPTY,
            writable: false,
        };
        let mut handled = NodeSet::EMPTY;
        h.rt.handle_incoming(rel_env(), copy.clone());
        h.rt.handle_incoming(rel_env(), PEER_RELEASE);
        let (_env, reply) =
            h.rt.wait_reply_or_dead(crate::runtime::WaitOp::BarrierRelease(1), &mut handled)
                .unwrap();
        assert!(matches!(reply, DsmMsg::BarrierRelease { .. }));
        // The same message *is* the reply while that object is being fetched.
        h.rt.handle_incoming(rel_env(), copy);
        let (_env, reply) =
            h.rt.wait_reply_or_dead(crate::runtime::WaitOp::Fetch(ws), &mut handled)
                .unwrap();
        assert!(matches!(reply, DsmMsg::ObjectData { .. }));
    }

    #[test]
    fn reduce_request_applies_fetch_and_min() {
        let h = harness();
        let red = h.obj("red");
        h.rt.install_object_bytes(red, &{
            let mut v = vec![0u8; 16];
            v[0..8].copy_from_slice(&100i64.to_le_bytes());
            v
        });
        h.peer_tx
            .send(
                NodeId::new(0),
                "reduce_request",
                56,
                DsmMsg::ReduceRequest {
                    object: red,
                    offset: 0,
                    op: ReduceOp::MinI64(42),
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        match h.peer_recv() {
            DsmMsg::ReduceReply { old } => {
                assert_eq!(i64::from_le_bytes(old.try_into().unwrap()), 100);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        let bytes = h.rt.object_bytes(red);
        assert_eq!(i64::from_le_bytes(bytes[0..8].try_into().unwrap()), 42);
    }

    #[test]
    fn lock_acquire_on_free_lock_grants_ownership() {
        let h = harness();
        h.peer_tx
            .send(
                NodeId::new(0),
                "lock_acquire",
                40,
                DsmMsg::LockAcquire {
                    lock: crate::sync::LockId(0),
                    requester: NodeId::new(1),
                },
            )
            .unwrap();
        h.pump();
        assert!(matches!(h.peer_recv(), DsmMsg::LockGrant { .. }));
        assert!(!h.rt.sync.lock().lock(crate::sync::LockId(0)).owned);
    }

    #[test]
    fn barrier_releases_after_all_arrivals() {
        let h = harness();
        // Node 1 arrives first: no release yet.
        h.peer_tx
            .send(NodeId::new(0), "barrier_arrive", 40, peer_arrive())
            .unwrap();
        h.pump();
        assert!(h.peer_rx.try_recv().unwrap().is_none());
        h.arrive_here();
        // Node 1 gets released; node 0's own thread is woken where the
        // episode opens, with no message to its own endpoint.
        assert!(matches!(
            h.peer_recv(),
            DsmMsg::BarrierRelease { gen: 1, .. }
        ));
        assert!(h.rt_rx.try_recv().unwrap().is_none(), "no self-message");
        let (_env, routed) = h.rt.replies.try_recv().expect("owner woken");
        assert!(matches!(routed, DsmMsg::BarrierRelease { gen: 1, .. }));
        // A report that arrives after its episode is over is answered, not
        // counted towards the next one.
        h.rt.handle_request(
            env_at(1, "barrier_arrive", munin_sim::VirtTime::ZERO),
            peer_arrive(),
        );
        assert!(matches!(
            h.peer_recv(),
            DsmMsg::BarrierRelease { gen: 1, .. }
        ));
        assert!(h.rt.sync.lock().barrier(OWNED_HERE).arrived.is_empty());
    }

    // --- the virtual-time model ------------------------------------------
    //
    // Handlers act at the time of the request they answer, or — where they
    // act on what an earlier event left behind — at the later of the two
    // (`DESIGN.md`, "Virtual-time model"). The host may run the virtually
    // later event first; none of these times may depend on that.

    fn env_at(src: usize, class: &'static str, arrival: munin_sim::VirtTime) -> Envelope {
        Envelope {
            src: NodeId::new(src),
            dst: NodeId::new(0),
            class,
            model_bytes: 40,
            sent_at: arrival,
            arrival,
        }
    }

    #[test]
    fn barrier_release_leaves_at_the_latest_arrival_whatever_was_processed_last() {
        let h = harness();
        let us = munin_sim::VirtTime::from_micros;
        // Node 1's report (900 µs) is in before node 0's own thread arrives,
        // on a clock that has not reached 900 µs: the barrier opens at
        // 900 µs all the same.
        h.rt.handle_request(env_at(1, "barrier_arrive", us(900)), peer_arrive());
        assert!(h.rt.clock.now() < us(900));
        h.arrive_here();
        let (env, msg) = h.peer_rx.recv().unwrap();
        assert!(matches!(msg, DsmMsg::BarrierRelease { .. }));
        assert_eq!(env.sent_at, us(900) + h.rt.cost.sync_op());
        // The owner's own thread resumes when its releases leave.
        let (wake, _) = h.rt.replies.try_recv().expect("owner woken");
        assert_eq!(wake.arrival, us(900) + h.rt.cost.sync_op());
    }

    #[test]
    fn resting_token_is_granted_no_earlier_than_it_came_to_rest() {
        let h = harness();
        let lock = crate::sync::LockId(0);
        let us = munin_sim::VirtTime::from_micros;
        let acquire = DsmMsg::LockAcquire {
            lock,
            requester: NodeId::new(1),
        };
        // The user thread released the free lock at 500 µs; a request the
        // host delivers afterwards carries an arrival of 100 µs.
        h.rt.sync.lock().lock_mut(lock).released_at = us(500);
        h.rt.handle_request(env_at(1, "lock_acquire", us(100)), acquire);
        let (env, msg) = h.peer_rx.recv().unwrap();
        assert!(matches!(msg, DsmMsg::LockGrant { .. }));
        assert_eq!(env.sent_at, us(500) + h.rt.cost.sync_op());
        // The token comes back (unawaited) at 600 µs and rests; a request
        // arriving later than that is granted at its own time.
        h.rt.install_lock_token(env_at(1, "lock_grant", us(600)), lock, Vec::new());
        assert_eq!(h.rt.sync.lock().lock(lock).released_at, us(600));
        let acquire = DsmMsg::LockAcquire {
            lock,
            requester: NodeId::new(1),
        };
        h.rt.handle_request(env_at(1, "lock_acquire", us(700)), acquire);
        let (env, _) = h.peer_rx.recv().unwrap();
        assert_eq!(env.sent_at, us(700) + h.rt.cost.sync_op());
    }

    #[test]
    fn request_deferred_on_an_entry_is_served_no_earlier_than_it_was_unblocked() {
        let h = harness();
        let conv = h.obj("conv");
        let us = munin_sim::VirtTime::from_micros;
        h.rt.dir.lock().entry_mut(conv).state.busy = true;
        h.rt.handle_request(
            env_at(1, "object_fetch", us(100)),
            fetch_msg(conv, 1, FetchKind::Read, 0),
        );
        assert_eq!(h.rt.deferred.lock().len(), 1);
        // A retry while the entry is still busy changes nothing.
        h.rt.process_deferred();
        assert_eq!(h.rt.deferred.lock().len(), 1);
        // The transition completes at 800 µs on the thread that held it.
        h.rt.dir.lock().entry_mut(conv).state.busy = false;
        h.rt.note_unblocked_and_process_deferred(us(800));
        let (env, msg) = h.peer_rx.recv().unwrap();
        assert!(matches!(msg, DsmMsg::ObjectData { .. }));
        let size = h.rt.table.object(conv).size as u64;
        assert_eq!(
            env.sent_at,
            us(800) + h.rt.cost.dir_op() + h.rt.cost.copy(size)
        );
    }

    /// The service loop serves a request at the request's arrival and leaves
    /// the node clock — the user thread's — where it was, give or take the
    /// cycles the service stole from it.
    #[test]
    fn service_loop_answers_at_the_requests_time_without_moving_the_node_clock() {
        let Harness {
            rt,
            peer_tx,
            peer_rx,
            rt_rx,
        } = harness();
        let ro = rt.table().var_by_name("ro").unwrap().objects[0];
        let ms = munin_sim::VirtTime::from_millis;
        let server = {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || rt.server_loop(rt_rx))
        };
        let fetch = fetch_msg(ro, 1, FetchKind::Read, 0);
        let sent = peer_tx
            .send_at(NodeId::new(0), "object_fetch", 40, fetch, ms(5))
            .unwrap();
        let (reply, msg) = peer_rx.recv().unwrap();
        assert!(matches!(msg, DsmMsg::ObjectData { .. }));
        // A lookup; `ro` is read-only, so no snapshot copy.
        let service = rt.cost.dir_op();
        assert_eq!(reply.sent_at, sent.arrival + service);
        // Only the stolen cycles (the service cost and the reply's fixed
        // message cost) reached the node clock; the 5 ms did not.
        assert_eq!(rt.clock().now(), service + rt.cost.msg_fixed());
        assert_eq!(rt.clock().wait_time(), munin_sim::VirtTime::ZERO);
        // The service-side clock did follow the arrival.
        assert!(rt.service_now() >= sent.arrival);
        rt.send_raw(NodeId::new(0), DsmMsg::Done).unwrap();
        server.join().unwrap();
    }

    // --- reliability-layer idempotence -----------------------------------
    //
    // These tests forge `Reliable` frames straight into `handle_incoming`,
    // modelling a retransmission whose original was *not* lost: the handler
    // behind each frame must run exactly once. The handlers covered are the
    // ones that are not naturally idempotent — a re-dispatched barrier
    // arrival advances the arrival count, a re-dispatched lock acquire
    // re-grants the lock, a re-dispatched update re-enters the seq check,
    // and a re-routed invalidate ack desynchronizes the requester's
    // ack-counting loop with a phantom reply.

    /// Envelope for a forged frame from node 1.
    fn rel_env() -> Envelope {
        env_at(1, "reliable", munin_sim::VirtTime::ZERO)
    }

    fn rel_frame(id: u64, inner: DsmMsg) -> DsmMsg {
        DsmMsg::Reliable {
            id,
            ack: 0,
            inner: Box::new(inner),
        }
    }

    /// Strips transport (`Reliable`) and carrier framing off a message.
    fn innermost(m: DsmMsg) -> Option<DsmMsg> {
        match m {
            DsmMsg::Reliable { inner, .. } => innermost(*inner),
            DsmMsg::Carrier { inner, .. } => innermost(*inner),
            other => Some(other),
        }
    }

    #[test]
    fn duplicate_barrier_arrive_is_counted_once() {
        let h = reliable_harness();
        h.rt.handle_incoming(rel_env(), rel_frame(1, peer_arrive()));
        h.rt.handle_incoming(rel_env(), rel_frame(1, peer_arrive()));
        // The report is dispatched once; the peer sees only the dedup
        // quench ack.
        assert_eq!(h.rt.stats().snapshot().barrier_owner_ingress, 1);
        let mut net_acks = 0;
        while let Some((_env, m)) = h.peer_rx.try_recv().unwrap() {
            match (matches!(m, DsmMsg::NetAck { .. }), innermost(m)) {
                (true, _) => net_acks += 1,
                (false, Some(m)) => panic!("unexpected {m:?}"),
                _ => {}
            }
        }
        assert_eq!(net_acks, 1);
        assert_eq!(h.rt.stats().snapshot().dup_msgs_dropped, 1);
    }

    #[test]
    fn duplicate_lock_acquire_grants_once() {
        let h = reliable_harness();
        let acquire = DsmMsg::LockAcquire {
            lock: crate::sync::LockId(0),
            requester: NodeId::new(1),
        };
        h.rt.handle_incoming(rel_env(), rel_frame(1, acquire.clone()));
        h.rt.handle_incoming(rel_env(), rel_frame(1, acquire));
        let mut grants = 0;
        while let Some((_env, m)) = h.peer_rx.try_recv().unwrap() {
            if let Some(DsmMsg::LockGrant { .. }) = innermost(m) {
                grants += 1;
            }
        }
        assert_eq!(grants, 1, "duplicate lock acquire must not re-grant");
        assert_eq!(h.rt.stats().snapshot().dup_msgs_dropped, 1);
    }

    #[test]
    fn duplicate_update_is_dropped_before_the_seq_check() {
        let h = reliable_harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let d = diff::encode(&[1u8; 32], &[0u8; 32]);
        let update = DsmMsg::Update(bundle_of(
            1,
            0,
            ws,
            UpdatePayload::Diff(d),
            Route::DirectAcked,
        ));
        h.rt.handle_incoming(rel_env(), rel_frame(1, update.clone()));
        h.rt.handle_incoming(rel_env(), rel_frame(1, update));
        let snap = h.rt.stats().snapshot();
        assert_eq!(snap.updates_applied, 1);
        assert_eq!(snap.dup_msgs_dropped, 1);
        // Exactly one real UpdateAck; the duplicate is answered by the
        // transport's NetAck, never by a second protocol ack.
        let mut update_acks = 0;
        let mut net_acks = 0;
        while let Some((_env, m)) = h.peer_rx.try_recv().unwrap() {
            match (matches!(m, DsmMsg::NetAck { .. }), innermost(m)) {
                (true, _) => net_acks += 1,
                (false, Some(DsmMsg::UpdateAck { .. })) => update_acks += 1,
                _ => {}
            }
        }
        assert_eq!(update_acks, 1);
        assert_eq!(net_acks, 1);
    }

    #[test]
    fn duplicate_invalidate_ack_routes_to_user_once() {
        let h = reliable_harness();
        let ack = DsmMsg::InvalidateAck {
            object: h.obj("ws"),
        };
        h.rt.handle_incoming(rel_env(), rel_frame(1, ack.clone()));
        h.rt.handle_incoming(rel_env(), rel_frame(1, ack));
        // A phantom second ack would make a later ack-counting wait return
        // early; exactly one reply may reach the user mailbox.
        assert!(h.rt.replies.try_recv().is_some());
        assert!(h.rt.replies.try_recv().is_none());
        assert_eq!(h.rt.stats().snapshot().dup_msgs_dropped, 1);
    }

    #[test]
    fn out_of_order_frames_are_released_in_id_order() {
        let h = reliable_harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let first = DsmMsg::Update(bundle_of(
            1,
            0,
            ws,
            UpdatePayload::Diff(diff::encode(&[1u8; 32], &[0u8; 32])),
            Route::DirectUnacked,
        ));
        let second = DsmMsg::Update(bundle_of(
            1,
            1,
            ws,
            UpdatePayload::Diff(diff::encode(&[2u8; 32], &[1u8; 32])),
            Route::DirectUnacked,
        ));
        // Frame 2 arrives first: buffered, nothing dispatched.
        h.rt.handle_incoming(rel_env(), rel_frame(2, second));
        assert_eq!(h.rt.stats().snapshot().updates_applied, 0);
        // Frame 1 fills the gap: both dispatch, in id order.
        h.rt.handle_incoming(rel_env(), rel_frame(1, first));
        assert_eq!(h.rt.stats().snapshot().updates_applied, 2);
        assert_eq!(h.rt.object_bytes(ws), vec![2u8; 32]);
    }

    #[test]
    fn cumulative_ack_releases_held_messages() {
        let h = reliable_harness();
        let ws = h.obj("ws");
        let invalidate = DsmMsg::Invalidate {
            object: ws,
            requester: NodeId::new(0),
        };
        h.rt.send(NodeId::new(1), invalidate.clone()).unwrap();
        h.rt.send(NodeId::new(1), invalidate).unwrap();
        assert!(h.rt.has_unacked());
        // Acking id 1 still leaves id 2 held; acking through id 2 clears.
        h.rt.handle_incoming(rel_env(), DsmMsg::NetAck { upto: 1 });
        assert!(h.rt.has_unacked());
        h.rt.handle_incoming(rel_env(), DsmMsg::NetAck { upto: 2 });
        assert!(!h.rt.has_unacked());
    }

    /// Three-node variant of the harness: node 0 hosts the runtime, nodes 1
    /// and 2 are driven manually — enough fan-out to watch an owner re-fan a
    /// cooperative bundle to a copyset member that is not the origin.
    struct Harness3 {
        rt: Arc<NodeRuntime>,
        tx1: munin_sim::Sender<DsmMsg>,
        tx2: munin_sim::Sender<DsmMsg>,
        rx1: munin_sim::Receiver<DsmMsg>,
        rx2: munin_sim::Receiver<DsmMsg>,
        rt_rx: munin_sim::Receiver<DsmMsg>,
    }

    fn harness3() -> Harness3 {
        let mut table = SharedDataTable::new(64);
        table.declare("ws", SharingAnnotation::WriteShared, 4, 8);
        let table = Arc::new(table);
        let cfg = Arc::new(MuninConfig::fast_test(3));
        let clock0 = NodeClock::new();
        let mut net: Network<DsmMsg> = Network::new(3, CostModel::fast_test());
        let (tx0, rx0) = net.endpoint(0, clock0.clone()).unwrap();
        let (tx1, rx1) = net.endpoint(1, NodeClock::new()).unwrap();
        let (tx2, rx2) = net.endpoint(2, NodeClock::new()).unwrap();
        let rt = NodeRuntime::new(
            NodeId::new(0),
            3,
            cfg,
            table,
            vec![NodeId::new(0)],
            vec![NodeId::new(0)],
            clock0,
            Arc::new(CostModel::fast_test()),
            tx0,
        );
        let touched: HashSet<_> = rt.table().objects().iter().map(|o| o.id).collect();
        rt.finish_root_init(&touched);
        Harness3 {
            rt,
            tx1,
            tx2,
            rx1,
            rx2,
            rt_rx: rx0,
        }
    }

    impl Harness3 {
        fn obj(&self, name: &str) -> ObjectId {
            self.rt.table().var_by_name(name).unwrap().objects[0]
        }

        fn pump(&self) {
            let (env, msg) = self.rt_rx.recv().unwrap();
            self.rt.handle_request(env, msg);
        }

        /// Delivers the next message through the service loop's full
        /// dispatch (replies included), as `server_loop` would.
        fn serve(&self) {
            let (env, msg) = self.rt_rx.recv().unwrap();
            self.rt.handle_incoming(env, msg);
        }

        /// Node `from` reports its arrival at [`OWNED_HERE`] (a star over
        /// three nodes), `relay` riding the report; the runtime handles it.
        fn arrive_from(&self, from: usize, relay: Vec<(NodeId, UpdateBundle)>) {
            let arrive = DsmMsg::BarrierArrive {
                barrier: OWNED_HERE,
                from: NodeId::new(from),
                gen: 1,
                arrived: NodeSet::from_nodes([NodeId::new(from)]),
            };
            let tx = if from == 1 { &self.tx1 } else { &self.tx2 };
            let msg = DsmMsg::framed(arrive, vec![], relay);
            tx.send(NodeId::new(0), "barrier_arrive", 96, msg).unwrap();
            self.pump();
        }

        /// The hosted runtime's own thread arrives at [`OWNED_HERE`].
        fn arrive_here(&self) {
            let topo = self.rt.tree_topology(OWNED_HERE);
            assert!(topo.is_star());
            self.rt.barrier_arrive_local(OWNED_HERE, &topo, Vec::new());
        }

        /// Whatever has reached nodes 1 and 2 so far.
        fn received(&self) -> [Vec<DsmMsg>; 2] {
            [&self.rx1, &self.rx2].map(|rx| {
                std::iter::from_fn(|| rx.try_recv().unwrap())
                    .map(|(_env, msg)| msg)
                    .collect()
            })
        }
    }

    /// N1's cooperative bundle for `ws`, riding its arrive at [`OWNED_HERE`]
    /// in slot 0 of its stream here: all 5s over all 0s.
    fn riding_fanout(ws: ObjectId) -> (NodeId, UpdateBundle) {
        let d = diff::encode(&[5u8; 32], &[0u8; 32]);
        let ride = Route::OwnerFanout {
            ride: Some(OWNED_HERE),
        };
        let bundle = bundle_of(1, 0, ws, UpdatePayload::Diff(d), ride);
        (NodeId::new(0), bundle)
    }

    /// The hand-off window, pinned. Node 0 has asked node 1 for the token; a
    /// third node's request and the grant both reach node 0's service loop
    /// before its user thread runs again — in either order. Nothing may
    /// leave node 0 (the replaced code bounced the request back to node 1
    /// along the stale hint until the user thread installed the grant), and
    /// node 0's release must grant to the third node.
    fn third_party_request_in_the_handoff_window(request_first: bool) {
        let h = harness3();
        let lock = crate::sync::LockId(0);
        let acquire = |requester: usize| DsmMsg::LockAcquire {
            lock,
            requester: NodeId::new(requester),
        };
        // Node 1 takes the free token from its home, node 0.
        h.tx1
            .send(NodeId::new(0), "lock_acquire", 8, acquire(1))
            .unwrap();
        h.serve();
        assert!(matches!(h.rx1.recv().unwrap().1, DsmMsg::LockGrant { .. }));
        // Node 0's user thread asks for it back — the first half of
        // `acquire_lock`, run here so the test owns the interleaving.
        let t0 = h.rt.request_lock(lock).unwrap().expect("remote acquire");
        assert!(matches!(
            h.rx1.recv().unwrap().1,
            DsmMsg::LockAcquire { .. }
        ));
        let grant = DsmMsg::LockGrant {
            lock,
            queue: vec![],
        };
        if request_first {
            h.tx2
                .send(NodeId::new(0), "lock_acquire", 8, acquire(2))
                .unwrap();
            h.serve();
            let state = h.rt.sync.lock().lock(lock).clone();
            assert!(!state.owned && state.awaiting, "parked, token not here yet");
            assert_eq!(state.queue, vec![NodeId::new(2)]);
            h.tx1.send(NodeId::new(0), "lock_grant", 8, grant).unwrap();
            h.serve();
        } else {
            h.tx1.send(NodeId::new(0), "lock_grant", 8, grant).unwrap();
            h.serve();
            // Installed where it arrived: the user thread has not run.
            let state = h.rt.sync.lock().lock(lock).clone();
            assert!(state.owned && state.held && !state.awaiting);
            h.tx2
                .send(NodeId::new(0), "lock_acquire", 8, acquire(2))
                .unwrap();
            h.serve();
        }
        let state = h.rt.sync.lock().lock(lock).clone();
        assert!(state.owned && state.held);
        assert_eq!(state.queue, vec![NodeId::new(2)]);
        assert!(h.rx1.try_recv().unwrap().is_none(), "nothing bounced to N1");
        assert!(h.rx2.try_recv().unwrap().is_none(), "nothing sent to N2");
        // The user thread wakes to a lock it already holds, and its release
        // hands the token to the queued third node.
        h.rt.await_lock_grant(lock, t0).unwrap();
        h.rt.release_lock(lock).unwrap();
        match h.rx2.recv().unwrap().1 {
            DsmMsg::LockGrant { queue, .. } => assert!(queue.is_empty()),
            other => panic!("expected LockGrant at N2, got {other:?}"),
        }
        assert!(!h.rt.sync.lock().lock(lock).owned);
    }

    #[test]
    fn request_right_behind_the_grant_is_queued_not_bounced() {
        third_party_request_in_the_handoff_window(false);
    }

    #[test]
    fn request_ahead_of_the_grant_is_parked_not_forwarded() {
        third_party_request_in_the_handoff_window(true);
    }

    /// The admission gate in isolation: every route × the entry idle, busy
    /// or pinned × the bundle in sequence, early or stale. A blocked entry
    /// defers everything and consumes nothing; on an idle entry the four
    /// sequenced routes follow their stream (a fan-out riding a barrier like
    /// a standalone one), and the two that hold no slot (forward, framed or
    /// not, and sync install) are let in whatever number they carry.
    #[test]
    fn admit_decides_by_entry_state_then_by_stream_position() {
        let h = harness();
        let ws = h.obj("ws");
        let env = env_at(1, "update", munin_sim::VirtTime::ZERO);
        let routes = [
            Route::DirectAcked,
            Route::DirectUnacked,
            Route::OwnerFanout { ride: None },
            Route::OwnerFanout {
                ride: Some(OWNED_HERE),
            },
            Route::OwnerForward { framed: false },
            Route::OwnerForward { framed: true },
            Route::Carried,
            Route::SyncInstall,
        ];
        // The stream from N1 stands at 1: 1 is in sequence, 2 early, 0 stale.
        let positions = [
            (1, Admission::Apply),
            (2, Admission::Defer(DeferredOn::Stream)),
            (0, Admission::Stale),
        ];
        for route in routes {
            let sequenced = !matches!(route, Route::OwnerForward { .. } | Route::SyncInstall);
            for (busy, pinned) in [(false, false), (true, false), (false, true)] {
                for (seq, in_stream) in positions {
                    {
                        let mut dir = h.rt.dir.lock();
                        let st = &mut dir.entry_mut(ws).state;
                        (st.busy, st.pinned) = (busy, pinned);
                    }
                    h.rt.update_seq_in.lock()[1] = 1;
                    let bundle = bundle_of(1, seq, ws, UpdatePayload::Full(vec![0; 32]), route);
                    let expected = if busy || pinned {
                        Admission::Defer(DeferredOn::Entry)
                    } else if sequenced {
                        in_stream
                    } else {
                        Admission::Apply
                    };
                    let case = format!("{route:?}, busy={busy}, pinned={pinned}, seq={seq}");
                    assert_eq!(h.rt.admit(&env, &bundle), expected, "{case}");
                    // Only an admitted, sequenced bundle takes its slot.
                    let consumed = sequenced && expected == Admission::Apply;
                    assert_eq!(h.rt.update_seq_in.lock()[1], 1 + consumed as u64, "{case}");
                }
            }
        }
    }

    /// The owner side of the cooperative relay: an `OwnerFanout` bundle from
    /// the origin is installed locally, re-fanned to the authoritative
    /// copyset members (excluding the origin), and acknowledged with the
    /// re-fan destination list.
    #[test]
    fn relay_fanout_installs_refans_and_acks_origin() {
        let h = harness3();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        // The owner's recorded copyset: the origin (1) and a bystander (2).
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.copyset.insert(NodeId::new(1));
            e.copyset.insert(NodeId::new(2));
        }
        let d = diff::encode(&[4u8; 32], &[0u8; 32]);
        h.tx1
            .send(
                NodeId::new(0),
                "relay_fanout",
                64,
                DsmMsg::Update(bundle_of(
                    1,
                    0,
                    ws,
                    UpdatePayload::Diff(d),
                    Route::OwnerFanout { ride: None },
                )),
            )
            .unwrap();
        h.pump();
        // Install-before-dispatch: the owner's copy carries the diff.
        assert_eq!(h.rt.object_bytes(ws), vec![4u8; 32]);
        // Node 2 got the forward (and only node 2: the origin is excluded).
        match h.rx2.recv().unwrap().1 {
            DsmMsg::Update(forward) => {
                assert_eq!(forward.route, Route::OwnerForward { framed: false });
                assert_eq!(forward.items.len(), 1);
                assert_eq!(forward.items[0].object, ws);
                assert_eq!(forward.origin, NodeId::new(1));
                assert_eq!(forward.seq, 0);
            }
            other => panic!("expected the re-fan at N2, got {other:?}"),
        }
        // The origin got the ack naming the re-fan destination.
        let ack = DsmMsg::UpdateAck {
            refanned: Some(vec![NodeId::new(2)]),
        };
        assert_eq!(h.rx1.recv().unwrap().1, ack);
        assert_eq!(h.rt.stats().snapshot().owner_refans, 1);
    }

    /// A stale ownership hint: the fan-out target does not own the object.
    /// It degrades on the origin's behalf, as for a bundle riding an arrive:
    /// the item goes into its own copy and to every other node, and its ack
    /// names the one forward (the origin gets none).
    #[test]
    fn relay_fanout_with_a_stale_hint_degrades_on_the_origins_behalf() {
        let h = harness3();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.owned = false;
            e.probable_owner = NodeId::new(2);
            e.copyset.insert(NodeId::new(2));
        }
        let d = diff::encode(&[9u8; 32], &[0u8; 32]);
        h.tx1
            .send(
                NodeId::new(0),
                "relay_fanout",
                64,
                DsmMsg::Update(bundle_of(
                    1,
                    0,
                    ws,
                    UpdatePayload::Diff(d),
                    Route::OwnerFanout { ride: None },
                )),
            )
            .unwrap();
        h.pump();
        assert_eq!(h.rt.object_bytes(ws), vec![9u8; 32]);
        let [to_n1, to_n2] = h.received();
        let ack = DsmMsg::UpdateAck {
            refanned: Some(vec![NodeId::new(2)]),
        };
        assert_eq!(to_n1, vec![ack]);
        let [DsmMsg::Update(forward)] = &to_n2[..] else {
            panic!("expected one forward at N2, got {to_n2:?}");
        };
        assert_eq!(forward.route, Route::OwnerForward { framed: false });
        assert_eq!((forward.origin, forward.seq), (NodeId::new(1), 0));
        assert_eq!(forward.items[0].object, ws);
        assert_eq!(h.rt.stats().snapshot().owner_refans, 1);
    }

    /// The destination side of the cooperative relay: an `OwnerForward` bundle
    /// applies immediately — exempt from the per-stream sequence check, since
    /// it carries no slot of the forwarding owner's update stream — and the
    /// ack goes to the *origin*, whose flush is counting it, not back to the
    /// forwarding owner.
    #[test]
    fn relay_forward_applies_without_seq_check_and_acks_origin() {
        let h = harness3();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        let d = diff::encode(&[6u8; 32], &[0u8; 32]);
        // seq 7 on a stream that has seen nothing: an ordinary Update would
        // be deferred as early; the forward must apply at once.
        h.tx1
            .send(
                NodeId::new(0),
                "relay_forward",
                64,
                DsmMsg::Update(bundle_of(
                    2,
                    7,
                    ws,
                    UpdatePayload::Diff(d),
                    Route::OwnerForward { framed: false },
                )),
            )
            .unwrap();
        h.pump();
        assert!(h.rt.deferred.lock().is_empty(), "forwards are not deferred");
        assert_eq!(h.rt.object_bytes(ws), vec![6u8; 32]);
        match h.rx2.recv().unwrap().1 {
            DsmMsg::UpdateAck { refanned: None } => {}
            other => panic!("expected UpdateAck at the origin, got {other:?}"),
        }
    }

    /// A non-owned flush rides the barrier, from the owner's side. The
    /// cooperative bundle on N1's arrive is installed before that arrival is
    /// counted, and its re-fan — one forward per copyset member other than
    /// the origin — is stashed, not sent: nobody gets an `Update` or an
    /// `UpdateAck`. A duplicate of the bundle is stale and as silent. Once the last arrival is in, N2's release carries its
    /// forward and the origin's carries nothing.
    ///
    /// With the hint stale (this node does not own the page) the items go
    /// into this node's own copy and onto every other node's release, as
    /// for a standalone fan-out.
    #[test]
    fn riding_fanout_is_installed_and_its_refans_come_down_on_the_releases() {
        for stale_hint in [false, true] {
            let case = if stale_hint { "stale hint" } else { "owned" };
            let h = harness3();
            let ws = h.obj("ws");
            h.rt.install_object_bytes(ws, &[0u8; 32]);
            {
                let mut dir = h.rt.dir.lock();
                let e = dir.entry_mut(ws);
                if stale_hint {
                    // No copyset worth the name either: the real owner's is
                    // the authoritative one.
                    e.state.owned = false;
                    e.probable_owner = NodeId::new(2);
                } else {
                    e.copyset.insert(NodeId::new(1));
                    e.copyset.insert(NodeId::new(2));
                }
            }
            let (dest, bundle) = riding_fanout(ws);
            h.arrive_from(1, vec![(dest, bundle.clone())]);
            assert_eq!(h.rt.object_bytes(ws), vec![5u8; 32], "{case}");
            assert_eq!(h.rt.outbox.lock().relay_len(), 1, "{case}");
            let env = env_at(1, "update", munin_sim::VirtTime::ZERO);
            h.rt.handle_request(env, DsmMsg::Update(bundle));
            assert_eq!(h.rt.outbox.lock().relay_len(), 1, "a duplicate is stale");
            assert_eq!(h.received(), [vec![], vec![]], "{case}: nobody is answered");
            h.arrive_from(2, vec![]);
            h.arrive_here();
            assert_eq!(h.received(), riding_releases(ws), "{case}");
            let snap = h.rt.stats().snapshot();
            assert_eq!(
                (
                    snap.updates_applied,
                    snap.owner_refans,
                    snap.msgs_piggybacked
                ),
                (1, 1, 1),
                "{case}"
            );
            assert_eq!(
                snap.updates_sent, 1,
                "the forward, counted where it always was"
            );
        }
    }

    /// What N1 and N2 receive when [`OWNED_HERE`] opens after N1's arrive
    /// brought [`riding_fanout`]: a bare release for the origin, and for N2
    /// a release carrying the re-fan.
    fn riding_releases(ws: ObjectId) -> [Vec<DsmMsg>; 2] {
        let forward = UpdateBundle {
            origin: NodeId::new(1),
            seq: 0,
            items: riding_fanout(ws).1.items,
            route: Route::OwnerForward { framed: true },
        };
        let release = DsmMsg::BarrierRelease {
            barrier: OWNED_HERE,
            gen: 1,
        };
        let carrier = DsmMsg::framed(release.clone(), vec![forward], vec![]);
        [vec![release], vec![carrier]]
    }

    /// The barrier owner's own user thread has the page a riding bundle
    /// targets pinned when the bundle's arrive comes in. The whole arrive
    /// waits, uncounted, so the barrier cannot open until the bundle is
    /// installed and its re-fans stashed — whichever thread retries it. Here
    /// the thread unpins and arrives last, everyone else in, before the
    /// service side gets to the retry (the unpin's own retry found the queue
    /// taken): the barrier stays shut, and the retry's install, stash and
    /// count open it with the forward on N2's release.
    #[test]
    fn an_arrive_whose_share_is_deferred_counts_only_after_install_and_stash() {
        let h = harness3();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        {
            let mut dir = h.rt.dir.lock();
            let e = dir.entry_mut(ws);
            e.state.pinned = true;
            e.copyset.insert(NodeId::new(1));
            e.copyset.insert(NodeId::new(2));
        }
        h.arrive_from(1, vec![riding_fanout(ws)]);
        let counted = |n: usize| {
            let sync = h.rt.sync.lock();
            sync.barrier(OWNED_HERE).arrived.contains(NodeId::new(n))
        };
        {
            let deferred = h.rt.deferred.lock();
            assert_eq!(deferred.len(), 1);
            assert_eq!(deferred[0].on, DeferredOn::Entry);
            let DsmMsg::Carrier {
                inner,
                updates,
                relay,
            } = &deferred[0].msg
            else {
                panic!("the whole arrive waits: {:?}", deferred[0].msg);
            };
            assert!(matches!(**inner, DsmMsg::BarrierArrive { .. }));
            assert_eq!((updates, relay), (&vec![riding_fanout(ws).1], &vec![]));
        }
        assert!(!counted(1), "not counted while its share waits");
        assert_eq!(h.rt.object_bytes(ws), vec![0u8; 32], "not installed");
        assert_eq!(h.rt.outbox.lock().relay_len(), 0, "nothing stashed");
        h.arrive_from(2, vec![]);
        h.rt.dir.lock().entry_mut(ws).state.pinned = false;
        h.arrive_here();
        assert_eq!(h.received(), [vec![], vec![]], "the barrier stays shut");
        h.rt.process_deferred();
        assert!(h.rt.deferred.lock().is_empty());
        assert_eq!(h.rt.object_bytes(ws), vec![5u8; 32]);
        // Counted last: the barrier it opened released N2 with the forward.
        assert_eq!(h.received(), riding_releases(ws));
    }

    /// A non-owned flush rides the barrier, from a member's side. The forward
    /// framed by its `BarrierRelease` is installed before the release reaches
    /// the user thread — out of sequence like every forward — and nobody is
    /// acknowledged. While the entry is busy the whole carrier waits, release
    /// included.
    #[test]
    fn framed_forward_is_installed_before_its_release_and_acks_nobody() {
        let h = harness();
        let ws = h.obj("ws");
        h.rt.install_object_bytes(ws, &[0u8; 32]);
        h.rt.dir.lock().entry_mut(ws).state.busy = true;
        let d = diff::encode(&[6u8; 32], &[0u8; 32]);
        let framed = Route::OwnerForward { framed: true };
        let forward = bundle_of(1, 7, ws, UpdatePayload::Diff(d), framed);
        let carrier = DsmMsg::framed(PEER_RELEASE, vec![forward], vec![]);
        h.peer_tx
            .send(NodeId::new(0), "barrier_release", 96, carrier.clone())
            .unwrap();
        h.pump();
        {
            let deferred = h.rt.deferred.lock();
            assert_eq!(deferred.len(), 1);
            assert_eq!(deferred[0].on, DeferredOn::Entry);
            assert_eq!(deferred[0].msg, carrier, "the whole carrier waits");
        }
        assert!(h.rt.replies.try_recv().is_none(), "release not routed yet");
        assert_eq!(h.rt.object_bytes(ws), vec![0u8; 32]);
        h.rt.dir.lock().entry_mut(ws).state.busy = false;
        h.rt.process_deferred();
        assert_eq!(h.rt.object_bytes(ws), vec![6u8; 32]);
        let (_env, routed) = h.rt.replies.try_recv().expect("release routed");
        assert_eq!(routed, PEER_RELEASE);
        assert!(h.peer_rx.try_recv().unwrap().is_none(), "no ack");
    }
}
