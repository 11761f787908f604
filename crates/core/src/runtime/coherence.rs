//! The object protocol's state transitions (Sections 3.1–3.3): each change
//! made to an entry's rights, ownership, dirty and stable-sharing bits,
//! copyset, owner hint or the write set, as a plain function. Its callers —
//! the fault (`fault.rs`), fetch, invalidation and lock hand-over
//! (`server.rs`), flush and hint (`flush.rs`), recovery (`health.rs`) and
//! root-init (`mod.rs`) handlers — keep the effects: lock scopes, sends,
//! charges, stats, records, waits, and `NodeRuntime::protect`, which mirrors
//! a rights change made here into the pages in the same directory-lock
//! scope. The `busy`, `pinned` and `recovering` bits guard concurrency, not
//! protocol state: they stay with the handlers, as does the admission gate,
//! which reads `busy` and `pinned` only.

use std::ops::Range;

use munin_sim::NodeId;

use crate::annotation::SharingAnnotation;
use crate::directory::{AccessRights, DirEntry, Directory, ObjectState};
use crate::error::MuninError;
use crate::msg::{DsmMsg, FetchKind, FetchRequest};
use crate::nodeset::NodeSet;
use crate::object::ObjectId;
use crate::segment::SharedDataTable;

/// What serving one object of a fetch would take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Serve {
    Defer,
    Forward(NodeId),
    /// A non-owning copy; the requester joins the copyset.
    Copy,
    /// Ownership (and for migratory data the only copy) moves.
    Transfer,
    /// First touch of an object nobody materialized and no owner is
    /// fixed for: a zero-filled page, ownership follows the toucher.
    FirstTouch,
}

/// How node `me` serves a fetch with intent `access` of `entry`'s object.
pub(super) fn classify(entry: &DirEntry, me: NodeId, access: FetchKind) -> Serve {
    if entry.state.busy || (entry.state.pinned && entry.params.is_writable()) {
        // Mid-transition, or the user thread holds the rights for an
        // in-flight access: serve the fetch after it, so a served copy
        // never misses a checked-but-not-yet-performed write (one
        // nothing writes has none to miss).
        Serve::Defer
    } else if !entry.state.owned {
        // A stale self-hint falls back to the home node of last resort. If
        // that is this node, it knows no owner (one died leaving no heir on
        // record here): a forward to itself would come straight back, for
        // ever, and starve the service loop's timers. The request is held
        // until the entry changes; the requester's own recovery round
        // re-homes the object or reports it lost.
        let hint = [entry.probable_owner, entry.home]
            .into_iter()
            .find(|&n| n != me);
        hint.map_or(Serve::Defer, Serve::Forward)
    } else if entry.params.uses_invalidate()
        && (matches!(access, FetchKind::Write) || entry.annotation == SharingAnnotation::Migratory)
    {
        Serve::Transfer
    } else if entry.state.rights.allows_read() || entry.params.has_fixed_owner() {
        Serve::Copy
    } else {
        Serve::FirstTouch
    }
}

/// What an `ObjectData` reply moves (its fields of the same names): built
/// object by object as the owner serves a run, read by the install.
#[derive(Debug, Default)]
pub(super) struct Reply {
    pub ownership: bool,
    pub copyset: NodeSet,
    pub writable: bool,
}

impl Reply {
    /// Whether an object served as `serve`, `past` the window or not, extends
    /// a reply holding objects: a copy inside the window one of copies, a
    /// first touch past it one that moved ownership but no write access.
    pub(super) fn extends(&self, serve: Serve, past: bool) -> bool {
        match serve {
            Serve::Copy => !self.ownership && !past,
            Serve::FirstTouch => self.ownership && !self.writable && past,
            _ => false,
        }
    }

    /// Serves `entry`'s object to `requester` as a copy, transfer or first
    /// touch. Returns whether the image served is to twin a dirty copy the
    /// DUQ holds with none ("Twin on first share").
    pub(super) fn serve(&mut self, entry: &mut DirEntry, serve: Serve, requester: NodeId) -> bool {
        if serve == Serve::Copy {
            // Read replica (or a read fetch of an update-protocol object, or
            // the first copy of one whose owner is fixed — flushes must keep
            // arriving here): remember the replica.
            entry.copyset.insert(requester);
            if entry.params.uses_invalidate() {
                // Single-writer protocols write-protect the owner's copy so
                // its next write re-invalidates the replicas.
                entry.state.rights = AccessRights::Read;
            }
            return entry.state.dirty;
        }
        self.ownership = true;
        if serve == Serve::Transfer {
            // Conventional write miss or any migratory access: the local
            // copy is invalidated, the replicas become the requester's to
            // invalidate.
            self.copyset = std::mem::take(&mut entry.copyset);
            self.copyset.remove(requester);
            entry.state.rights = AccessRights::Invalid;
            self.writable = true;
        }
        entry.state.owned = false;
        entry.probable_owner = requester;
        false
    }
}

/// Whether this node owns `entry`'s object and never materialised it, as
/// `finish_root_init` leaves untouched ones: all zeros, read off the entry
/// (a page the program wrote zeros to is materialised like any other).
pub(super) fn never_materialised(entry: &DirEntry) -> bool {
    entry.state.owned && !entry.state.rights.allows_read()
}

/// The owner touches an object it never materialised: zero-filled where it
/// lies, readable, no messages. Returns whether it was one.
pub(super) fn zero_fill(entry: &mut DirEntry) -> bool {
    let untouched = never_materialised(entry);
    if untouched {
        entry.state.rights = AccessRights::Read;
    }
    untouched
}

/// Whether a fetch `by` a node in `phase` (this one's is `mine`) is the
/// stable-sharing runtime error the paper describes: one for a
/// producer-consumer object whose relationship is fixed, from outside it.
pub(super) fn check_stable_sharing(e: &mut DirEntry, phase: u32, mine: u32, by: NodeId) -> bool {
    if !(e.params.is_stable() && e.state.copyset_fixed) {
        return false;
    }
    if phase > mine && !e.state.phase_voided {
        // The requester has issued a `PhaseChange()` that this node's user
        // thread is still on its way to (both left the same barrier; the
        // hint itself is unsynchronised). The relationship on record is the
        // old phase's and is void for this fetch: un-fix it now, as the
        // local call is about to. Once per local phase: a relationship
        // re-determined after that is this phase's own, and a requester that
        // is simply always ahead answers to it.
        e.state.copyset_fixed = false;
        e.state.phase_voided = true;
        return false;
    }
    !e.copyset.contains(by)
}

/// Orphan recovery found node `me` the lowest-id surviving holder of an
/// object whose owner died: it claims ownership if its copy is still valid.
/// Returns whether it did.
pub(super) fn adopt(entry: &mut DirEntry, me: NodeId) -> bool {
    let adopted = !entry.state.owned && entry.state.rights.allows_read();
    if adopted {
        entry.state.owned = true;
        entry.probable_owner = me;
    }
    adopted
}

/// An orphan's owner hint points at the surviving holder asked to adopt it.
pub(super) fn redirect(entry: &mut DirEntry, adoptee: NodeId) {
    entry.probable_owner = adoptee;
}

/// Node `me` confirmed `dead` dead: it leaves `entry`'s copyset, and an
/// object whose owner hint names it goes to the lowest-id surviving holder —
/// this node by its own valid copy ([`adopt`]), or the copyset's first
/// survivor ([`redirect`]). With neither, the hint falls back to the home of
/// last resort, unless the corpse was the home: the next fetch's recovery
/// round (`refetch_orphan`) establishes whether the object is lost. Every
/// survivor prunes the same node from the same copyset, so all of them name
/// one heir without coordination. Returns whether the corpse was pruned and
/// whether this node adopted the object.
pub(super) fn recover(entry: &mut DirEntry, dead: NodeId, me: NodeId) -> (bool, bool) {
    let pruned = entry.copyset.contains(dead);
    entry.copyset.remove(dead);
    if entry.state.owned || entry.probable_owner != dead {
        return (pruned, false);
    }
    // This node's own valid copy competes for the adoption by id.
    let mine = entry.state.rights.allows_read().then_some(me);
    let heir = entry.copyset.first().into_iter().chain(mine).min();
    if heir == Some(me) {
        return (pruned, adopt(entry, me));
    }
    let home = (entry.home != dead).then_some(entry.home);
    if let Some(n) = heir.or(home) {
        redirect(entry, n);
    }
    (pruned, false)
}

/// The images and the moves of `msg`, the reply to `fetch`, checked before
/// anything is installed or any right granted. A plain reply stays inside
/// the window; an ownership one goes past its first object only with first
/// touches, all of them ahead. An image is its object's size, or empty
/// (zero-filled).
pub(super) fn check_reply(
    fetch: &FetchRequest,
    msg: DsmMsg,
    table: &SharedDataTable,
) -> Result<(Vec<Vec<u8>>, Reply), &'static str> {
    let DsmMsg::ObjectData {
        object,
        data,
        ownership,
        copyset,
        writable,
    } = msg
    else {
        return Err("expected ObjectData in reply to ObjectFetch");
    };
    if object != fetch.object {
        return Err("ObjectData for wrong object");
    }
    let reply = Reply {
        ownership,
        copyset,
        writable,
    };
    let (window, further) = (fetch.run - fetch.ahead, data.get(1..).unwrap_or_default());
    let fits = if ownership {
        further.iter().all(Vec::is_empty) && (further.is_empty() || (!writable && window == 1))
    } else {
        data.len() <= window as usize
    };
    if data.is_empty() || data.len() > fetch.run as usize || !fits {
        return Err("ObjectData is not a prefix of the requested run");
    }
    let size = |id| table.object(ObjectId::new(id)).size;
    let sized = |(id, d): (u32, &Vec<u8>)| d.is_empty() || d.len() == size(id);
    if !(object.as_u32()..).zip(&data).all(sized) {
        return Err("ObjectData image is not the size of its object");
    }
    Ok((data, reply))
}

/// Installs `served`, an object of the `reply` that `src` sent this node's
/// `fetch`. One the access overwrites whole (in `fetch.elide`) comes
/// writable and dirty: whatever image the reply has for it, it is flushed
/// whole. Each first touch ahead of the window comes owned with no rights.
pub(super) fn install(
    dir: &mut Directory,
    fetch: &FetchRequest,
    served: ObjectId,
    reply: &Reply,
    src: NodeId,
) {
    let elided = fetch.elide.contains(&served.as_u32());
    let rights = if served != fetch.object && reply.ownership {
        AccessRights::Invalid // ahead: owned, never materialised
    } else if reply.writable || elided {
        AccessRights::ReadWrite
    } else {
        AccessRights::Read
    };
    // A replaced copy predicts nothing about this node's writes.
    dir.mark_written(served, false);
    let entry = dir.entry_mut(served);
    entry.state.rights = rights;
    entry.state.dirty |= elided;
    entry.state.owned = reply.ownership;
    if reply.ownership {
        entry.copyset = reply.copyset.clone();
        entry.probable_owner = fetch.requester;
    } else {
        entry.probable_owner = src;
    }
}

/// The replicas of an object this node owns are invalidated: it holds the
/// only copy — writable and dirty when it `upgraded` its own read copy.
pub(super) fn replicas_invalidated(entry: &mut DirEntry, upgraded: bool) {
    entry.copyset = NodeSet::EMPTY;
    if upgraded {
        entry.state.rights = AccessRights::ReadWrite;
        entry.state.dirty = true;
    }
}

/// A write access (or a write fault that finds its object writable) makes
/// the object dirty: modified since the last flush.
pub(super) fn mark_dirty(entry: &mut DirEntry) {
    entry.state.dirty = true;
}

/// A write that fetched `entry`'s object without its bytes failed: the
/// zeros it holds must neither be read nor flushed whole.
pub(super) fn drop_unwritten(entry: &mut DirEntry) {
    entry.state.dirty = false;
    entry.state.rights = AccessRights::Invalid;
}

/// The run a fetch of `object` asks for, up to `window_end`: `object` and
/// every consecutive object behind it that is invalid here, not owned here,
/// in no transition of its own and filed under the same annotation and
/// owner hint. The handler holds each busy until the reply is installed. A
/// fetch of migratory data moves the object alone.
pub(super) fn run(dir: &Directory, object: ObjectId, window_end: u32) -> u32 {
    let first = dir.entry(object);
    if first.annotation == SharingAnnotation::Migratory {
        return 1;
    }
    let joins = |id| {
        let entry = dir.entry(ObjectId::new(id));
        !(entry.state.rights.allows_read()
            || entry.state.owned
            || entry.state.busy
            || entry.annotation != first.annotation
            || entry.probable_owner != first.probable_owner)
    };
    1 + (object.as_u32() + 1..window_end)
        .take_while(|&id| joins(id))
        .count() as u32
}

/// Node `me`'s block of `object`'s variable when `object` lies in it:
/// object `i` of `n` is node `⌊i·N/n⌋`'s, of `nodes`.
pub(super) fn own_block(
    table: &SharedDataTable,
    o: ObjectId,
    me: NodeId,
    nodes: usize,
) -> Option<Range<u32>> {
    let objects = &table.var(table.object(o).var).objects;
    let (first, n) = (objects[0].as_u32() as usize, objects.len());
    let (i, me) = (o.as_u32() as usize - first, me.as_usize());
    let start = |node: usize| (first + (node * n).div_ceil(nodes)) as u32;
    (i * nodes / n == me).then(|| start(me)..start(me + 1))
}

/// What a write fault takes, by the object's protocol parameters.
pub(super) enum WritePlan {
    Done,
    Error(MuninError),
    Delayed(Delayed),
    /// Already the owner with a (read-protected) copy: invalidate the
    /// remaining replicas, this copyset, and upgrade in place.
    UpgradeInPlace(NodeSet),
    /// Fetch the object, and its ownership, from this owner hint.
    AcquireOwnership(NodeId),
}

/// A delayed write fault: `copy_run.0` objects, from the faulting one on,
/// have no copy here and are fetched first (0: the local copy is valid), the
/// last `copy_run.1` past the window, those in `elide` without bytes; the
/// trap enables `block`'s untouched objects.
pub(super) struct Delayed {
    pub copy_run: (u32, u32),
    pub owner_hint: NodeId,
    pub elide: Range<u32>,
    pub block: Range<u32>,
}

impl WritePlan {
    /// How many entries, from the faulting object on, the plan's transition
    /// holds busy.
    pub(super) fn claim(&self) -> u32 {
        match self {
            WritePlan::Done | WritePlan::Error(_) => 0,
            WritePlan::Delayed(d) => d.copy_run.0.max(1),
            WritePlan::UpgradeInPlace(_) | WritePlan::AcquireOwnership(_) => 1,
        }
    }
}

/// Plans a write fault on `object`, taken in an access that ends before
/// `window_end` and overwrites the objects in `overwrite` whole; `block` is
/// this node's block of the object's variable, when the object lies in it.
/// An object the owner never materialised is zero-filled first.
pub(super) fn write_plan(
    dir: &mut Directory,
    object: ObjectId,
    window_end: u32,
    block: Option<Range<u32>>,
    overwrite: Range<u32>,
) -> WritePlan {
    let entry = dir.entry_mut(object);
    zero_fill(entry);
    if entry.state.rights.allows_write() {
        mark_dirty(entry);
        WritePlan::Done
    } else if !entry.params.is_writable() {
        WritePlan::Error(MuninError::ReadOnlyWrite(object))
    } else if entry.annotation == SharingAnnotation::Reduction {
        WritePlan::Error(MuninError::NotAReductionObject(object))
    } else if entry.params.allows_delay() {
        let owner_hint = entry.probable_owner;
        let to_owner = entry.params.flushes_to_owner();
        // The copy a delayed write needs is a plain read copy, so the
        // window's can come with it (each still takes its own write fault,
        // but finds its copy in place). In this node's own block, the rest
        // of the block is asked for ahead and enabled in this trap — but its
        // last object, which the next node's first write may share: no race
        // for it.
        let block = block.filter(|_| !entry.params.has_fixed_owner());
        let block = block.map_or(0..0, |b| b.start..b.end - 1);
        let copy_run = if entry.state.rights.allows_read() {
            0
        } else {
            run(dir, object, window_end.max(block.end))
        };
        let window = window_end.saturating_sub(object.as_u32()).max(1);
        // Write-validate: a `result` object this fault fetches and the
        // access overwrites whole is asked for without its bytes, which its
        // writer never reads ("Fl"). One with a copy here already takes its
        // twin: its diff may be far smaller.
        let id = object.as_u32();
        let (lo, hi) = (overwrite.start.max(id), overwrite.end.min(id + copy_run));
        WritePlan::Delayed(Delayed {
            copy_run: (copy_run, copy_run.saturating_sub(window)),
            owner_hint,
            elide: if to_owner && lo < hi { lo..hi } else { 0..0 },
            block,
        })
    } else if entry.state.owned && entry.state.rights.allows_read() {
        WritePlan::UpgradeInPlace(entry.copyset.clone())
    } else {
        WritePlan::AcquireOwnership(entry.probable_owner)
    }
}

/// Stable, owned here and held by nobody else: no twin at its write fault,
/// for its first share twins it ([`Reply::serve`]).
fn sole(e: &DirEntry) -> bool {
    e.params.is_stable() && e.state.owned && e.copyset.is_empty()
}

/// The objects a delayed write fault on `object` makes writable and dirty in
/// its one trap, each with whether it takes a twin (multiple writers, not
/// [`sole`]), once its fetch installed the `claimed` objects from `object` on.
/// Beside `object`, its variable's objects still read-only here and *idle*
/// (not pinned, busy only in this claim): the write set's (which gives the
/// variable's up), the window's sole ones before `window_end`, and `block`'s
/// sole ones never materialised, zero-filled where they lie. Empty when the
/// fetch installed `object` writable (asked for without its bytes).
pub(super) fn enable(
    dir: &mut Directory,
    table: &SharedDataTable,
    object: ObjectId,
    claimed: u32,
    window_end: u32,
    block: Range<u32>,
) -> Vec<(ObjectId, bool)> {
    if dir.entry(object).state.rights.allows_write() {
        return Vec::new();
    }
    let var = table.object(object).var;
    let mine = |o: &mut ObjectId| table.object(*o).var == var;
    let claimed = object.as_u32()..object.as_u32() + claimed;
    let idle =
        |o: ObjectId, s: ObjectState| !s.pinned && (!s.busy || claimed.contains(&o.as_u32()));
    let mut listed = vec![object];
    listed.extend(dir.write_set.extract_if(.., mine).filter(|&o| o != object));
    let window = (object.as_u32() + 1..window_end).map(ObjectId::new);
    listed.extend(window.filter(|&o| sole(dir.entry(o))));
    for o in block.map(ObjectId::new) {
        let e = dir.entry_mut(o);
        if sole(e) && e.state.rights == AccessRights::Invalid && idle(o, e.state) {
            e.state.rights = AccessRights::Read;
            listed.push(o);
        }
    }
    let mut enabled = Vec::with_capacity(listed.len());
    for o in listed {
        let e = dir.entry_mut(o);
        // (A second listing of an object finds it enabled: not idle.)
        if o != object && !(e.state.rights == AccessRights::Read && idle(o, e.state)) {
            continue;
        }
        enabled.push((o, e.params.allows_multiple_writers() && !sole(e)));
        e.state.rights = AccessRights::ReadWrite;
        mark_dirty(e);
    }
    enabled
}

/// What invalidating a local copy found: "If a Munin node with a dirty copy
/// of an object receives an invalidation request for that object and
/// multiple writers are allowed, any pending local updates are propagated";
/// a dirty single-writer copy is a runtime error no correct protocol makes.
pub(super) enum Invalidated {
    Clean,
    Flush,
    DirtySingleWriter,
}

/// Invalidates the local copy of `object` for `requester`, the new owner.
pub(super) fn invalidate(dir: &mut Directory, object: ObjectId, requester: NodeId) -> Invalidated {
    dir.mark_written(object, false);
    let entry = dir.entry_mut(object);
    let found = match (entry.state.dirty, entry.params.allows_multiple_writers()) {
        (false, _) => Invalidated::Clean,
        (true, true) => Invalidated::Flush,
        (true, false) => Invalidated::DirtySingleWriter,
    };
    give_up(entry, requester);
    found
}

/// This node gives its copy of `entry`'s object up — to an invalidation, a
/// lock hand-over, a `result` flush or the `Invalidate()` hint: no rights,
/// clean, not owned, the owner hint at `owner_hint`.
pub(super) fn give_up(entry: &mut DirEntry, owner_hint: NodeId) {
    entry.state.rights = AccessRights::Invalid;
    entry.state.dirty = false;
    entry.state.owned = false;
    entry.probable_owner = owner_hint;
}

/// A lock grant to `me` brought a full image of an object associated with
/// it: migratory data comes owned and writable, anything else readable.
pub(super) fn install_with_lock(entry: &mut DirEntry, me: NodeId) {
    if entry.annotation == SharingAnnotation::Migratory {
        entry.state.rights = AccessRights::ReadWrite;
        entry.state.owned = true;
        entry.probable_owner = me;
    } else if !entry.state.rights.allows_write() {
        entry.state.rights = AccessRights::Read;
    }
}

/// The lock `entry`'s object is associated with goes to `to`: migratory
/// data this node owns travels with it, copy and ownership.
pub(super) fn hand_over_with_lock(entry: &mut DirEntry, to: NodeId) {
    if entry.annotation == SharingAnnotation::Migratory && entry.state.owned {
        give_up(entry, to);
    }
}

/// Where a flush sends one object's changes: to the destinations of its
/// copyset (`fans_out`) or to its owner alone (`result` objects), and
/// whether this node owns the object — which is what makes deferred
/// delivery through the carrier layer safe: the owner serves every fetch
/// from live memory itself.
pub(crate) struct FlushRoute {
    pub(crate) fans_out: bool,
    pub(crate) owned: bool,
    /// `Some(owner)` when the bundle takes the owner-cooperative path: it
    /// ships whole (`Route::OwnerFanout`) to the object's (probable) owner,
    /// which installs it and re-fans to the members of its authoritative
    /// copyset. Set for every non-owned fan-out entry with an owner hint
    /// other than this node, fixed copyset or not; such entries ignore
    /// `destinations`.
    pub(crate) coop_owner: Option<NodeId>,
    /// Fan-out destination set (already excludes this node). A bitmap, not a
    /// materialized list: flush paths iterate it in place.
    pub(crate) destinations: NodeSet,
}

impl FlushRoute {
    /// Nobody receives the changes (an owner-cooperative entry's owner
    /// decides its fan-out: the local copyset proves nothing).
    pub(crate) fn nowhere(&self) -> bool {
        self.coop_owner.is_none() && self.destinations.is_empty()
    }
}

/// Where node `me`'s flush sends the changes of `e`'s object, the single
/// source of routing truth. A stable object's relationship is fixed at its
/// owner's flush.
pub(super) fn flush_route(e: &mut DirEntry, me: NodeId) -> FlushRoute {
    e.state.copyset_fixed |= e.state.owned && e.params.is_stable();
    let (owned, fans_out) = (e.state.owned, !e.params.flushes_to_owner());
    // `result` objects go only to their owner: nowhere when this node *is*
    // the owner.
    let mut destinations = if fans_out {
        e.copyset.clone()
    } else {
        NodeSet::from_nodes([e.home])
    };
    destinations.remove(me);
    // Owner-cooperative relay: non-owned fan-out bundles ship whole to the
    // owner, which re-fans from its authoritative copyset — also when this
    // node fixed a copyset while it owned the page, since the owner has
    // served fetches since. A hint that degenerates to this node is repaired
    // toward home; liveness is checked at send time, not here — the failure
    // detector takes its own lock and this runs under the directory lock.
    let hint = if e.probable_owner == me {
        e.home
    } else {
        e.probable_owner
    };
    FlushRoute {
        fans_out,
        owned,
        coop_owner: (fans_out && !owned && hint != me).then_some(hint),
        destinations,
    }
}

/// A flush took `object` out of the DUQ and sent its changes along `route`
/// (a diff when `shipped`): the copy is clean. A `result` copy that went to
/// its owner is given up to the home ("Fl" and the description of Matrix
/// Multiply); at the home its changes are in place, and it keeps them. A
/// stable copy nobody receives is private: "Any pages that have an empty
/// Copyset and are therefore private are made locally writable, their twins
/// are deleted, and they do not generate further access faults." Any other
/// copy is write-protected again, so the next write makes a fresh twin — and
/// a fanned-out diff predicts the next writes (the write set).
pub(super) fn flushed(dir: &mut Directory, object: ObjectId, route: &FlushRoute, shipped: bool) {
    dir.mark_written(object, shipped && route.fans_out);
    let e = dir.entry_mut(object);
    e.state.dirty = false;
    if !route.fans_out {
        if !route.nowhere() {
            give_up(e, e.home);
        }
    } else if route.nowhere() && e.params.is_stable() {
        e.state.rights = AccessRights::ReadWrite;
    } else {
        e.state.rights = AccessRights::Read;
    }
}

/// The `Invalidate()` hint deletes node `me`'s copy of `entry`'s object,
/// giving an owned one back to its home, where later fetches find the data.
/// The home's own owned copy *is* the object: it stays, and "owned, no
/// rights" keeps meaning "never materialised". Returns whether the copy went.
pub(super) fn invalidate_hint(entry: &mut DirEntry, me: NodeId) -> bool {
    if entry.state.owned && entry.home == me {
        return false;
    }
    let owner_hint = if entry.state.owned {
        entry.home
    } else {
        entry.probable_owner
    };
    give_up(entry, owner_hint);
    true
}

/// The `PhaseChange()` hint "purges the accumulated sharing relationship
/// information": the write set, and each stable object's fixed
/// relationship, so the owner's next flush fixes it afresh. The recorded
/// copyset is kept: at the owner it doubles as the record of served fetches
/// that its re-fans and its own flushes rely on. A private page ([`flushed`]
/// made it writable) that the DUQ does not hold (`duq`) is write-protected
/// again, so writes under the new relationships are detected and
/// propagated. Returns those pages.
pub(super) fn phase_change(dir: &mut Directory, duq: impl Fn(ObjectId) -> bool) -> Vec<ObjectId> {
    dir.phase += 1;
    dir.write_set.clear();
    let mut protected = Vec::new();
    for idx in 0..dir.len() {
        let e = dir.entry_mut(ObjectId::new(idx as u32));
        if e.params.is_stable() {
            e.state.copyset_fixed = false;
            e.state.phase_voided = false;
            if e.state.rights == AccessRights::ReadWrite && !duq(e.object) {
                e.state.rights = AccessRights::Read;
                protected.push(e.object);
            }
        }
    }
    protected
}

/// The `ChangeAnnotation()` hint switches `objects` to the protocol of
/// annotation `to`. The write set and their fixed relationships were the
/// old protocol's.
pub(super) fn change_annotation(dir: &mut Directory, objects: &[ObjectId], to: SharingAnnotation) {
    dir.write_set.clear();
    for &o in objects {
        let e = dir.entry_mut(o);
        e.set_annotation(to);
        e.state.copyset_fixed = false;
    }
}

/// After `user_init`, the root `me`, home of every statically allocated
/// object, owns `entry`'s. One the initialisation `touched`, or one with a
/// fixed owner (where flushes and `Fetch_and_Φ` go), is materialised here:
/// write-protected when read-only or delayed-update, so its first write
/// makes a twin. Any other is never materialised: its first touch is served
/// zero-filled and ownership moves to the toucher.
pub(super) fn root_init(entry: &mut DirEntry, me: NodeId, touched: bool) {
    entry.state.owned = true;
    entry.probable_owner = me;
    entry.state.rights = if !(touched || entry.params.has_fixed_owner()) {
        AccessRights::Invalid
    } else if !entry.params.is_writable() || entry.params.allows_delay() {
        AccessRights::Read
    } else {
        AccessRights::ReadWrite
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of `vars` (name, annotation, objects of 16 bytes each),
    /// homed at node 0, as node 0 holds it before any initialisation.
    fn directory(
        vars: &[(&'static str, SharingAnnotation, usize)],
    ) -> (SharedDataTable, Directory) {
        let mut table = SharedDataTable::new(64);
        for &(name, annotation, n) in vars {
            table.declare(name, annotation, 4, 16 * n);
        }
        let dir = Directory::from_table(&table, NodeId::new(0), None);
        (table, dir)
    }

    fn objects(table: &SharedDataTable, name: &str) -> Vec<ObjectId> {
        table.var_by_name(name).unwrap().objects.clone()
    }

    /// A node's block of a variable is a function of the table alone:
    /// object `i` of `n` is node `⌊i·N/n⌋`'s, whatever ids the variable
    /// starts at, however unevenly `n` divides.
    #[test]
    fn a_block_is_a_pure_function_of_the_table() {
        let blocks = |n: usize, nodes: usize| {
            let (table, _) = directory(&[
                ("before", SharingAnnotation::WriteShared, 3),
                ("v", SharingAnnotation::ProducerConsumer, n),
            ]);
            let v = objects(&table, "v");
            let first = v[0].as_u32();
            (0..nodes)
                .map(|node| {
                    let me = NodeId::new(node);
                    v.iter()
                        .map(|o| own_block(&table, *o, me, nodes).map(|b| b.end - first))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        // `sor`'s matrix at 4 nodes: 128 pages each.
        let sor = blocks(512, 4);
        for (node, ends) in sor.iter().enumerate() {
            for (i, end) in ends.iter().enumerate() {
                let own = i / 128 == node;
                assert_eq!(*end, own.then_some(128 * (node as u32 + 1)), "{node} {i}");
            }
        }
        let mine =
            |ends: &Vec<Option<u32>>| ends.iter().map(|e| e.unwrap_or(0)).collect::<Vec<_>>();
        let uneven: Vec<_> = blocks(10, 4).iter().map(mine).collect();
        assert_eq!(
            uneven,
            [
                [3, 3, 3, 0, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 5, 5, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 8, 8, 8, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 0, 10, 10],
            ]
        );
        // More nodes than objects: some nodes have an empty block.
        let sparse: Vec<_> = blocks(2, 4).iter().map(mine).collect();
        assert_eq!(sparse, [[1, 0], [0, 0], [0, 2], [0, 0]]);
    }

    const ANNOTATIONS: [SharingAnnotation; 7] = [
        SharingAnnotation::ReadOnly,
        SharingAnnotation::Migratory,
        SharingAnnotation::WriteShared,
        SharingAnnotation::ProducerConsumer,
        SharingAnnotation::Reduction,
        SharingAnnotation::Result,
        SharingAnnotation::Conventional,
    ];

    /// The serving table, whole: every (annotation — so fixed owner,
    /// invalidate, migratory and writability —, busy, pinned, owned, rights,
    /// owner hint, serving node, access) combination is served the way the
    /// rules say, in their order. A transition defers; a held access
    /// defers unless nothing can write the object; a non-owner forwards
    /// along its hint, a stale self-hint falling back to the home — and a
    /// home that knows no owner holds the request; an owner moves a
    /// single-writer object on a write or a migratory access, copies a valid
    /// or fixed-owner one, and hands the rest out as a first touch.
    #[test]
    fn serve_classifies_every_entry_state_annotation_and_access() {
        let (_, mut dir) = directory(&[("v", SharingAnnotation::Conventional, 1)]);
        let rights = [
            AccessRights::Invalid,
            AccessRights::Read,
            AccessRights::ReadWrite,
        ];
        let accesses = [FetchKind::Read, FetchKind::Write];
        let mut seen = std::collections::HashSet::new();
        for annotation in ANNOTATIONS {
            for bits in 0..8u8 {
                let (busy, pinned, owned) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
                for r in rights {
                    for hint in 0..3 {
                        for me in 0..2 {
                            for access in accesses {
                                let entry = dir.entry_mut(ObjectId::new(0));
                                entry.set_annotation(annotation);
                                entry.state = ObjectState {
                                    rights: r,
                                    busy,
                                    pinned,
                                    owned,
                                    ..ObjectState::default()
                                };
                                entry.probable_owner = NodeId::new(hint);
                                let me = NodeId::new(me);
                                let p = entry.params;
                                let via = if hint == me.as_usize() { 0 } else { hint };
                                let held = busy || (pinned && p.is_writable());
                                let expected = if held || (!owned && via == me.as_usize()) {
                                    Serve::Defer
                                } else if !owned {
                                    Serve::Forward(NodeId::new(via))
                                } else if p.uses_invalidate()
                                    && (access == FetchKind::Write
                                        || annotation == SharingAnnotation::Migratory)
                                {
                                    Serve::Transfer
                                } else if r != AccessRights::Invalid || p.has_fixed_owner() {
                                    Serve::Copy
                                } else {
                                    Serve::FirstTouch
                                };
                                let got = classify(entry, me, access);
                                assert_eq!(
                                    got, expected,
                                    "{annotation:?} busy={busy} pinned={pinned} owned={owned} \
                                     {r:?} hint={hint} me={me:?} {access:?}"
                                );
                                seen.insert(std::mem::discriminant(&got));
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), 5, "every way of serving is reached");
        // The cells the paper's protocols name, at an owner.
        let mut owner = |annotation, rights, pinned, access| {
            let entry = dir.entry_mut(ObjectId::new(0));
            entry.set_annotation(annotation);
            entry.state = ObjectState {
                rights,
                owned: true,
                pinned,
                ..ObjectState::default()
            };
            classify(entry, NodeId::new(0), access)
        };
        use FetchKind::{Read, Write};
        use SharingAnnotation::*;
        let (invalid, read) = (AccessRights::Invalid, AccessRights::Read);
        assert_eq!(owner(ReadOnly, read, true, Read), Serve::Copy);
        assert_eq!(owner(Migratory, read, true, Read), Serve::Defer);
        assert_eq!(owner(Migratory, read, false, Read), Serve::Transfer);
        assert_eq!(owner(Conventional, read, false, Read), Serve::Copy);
        assert_eq!(owner(Conventional, invalid, false, Write), Serve::Transfer);
        assert_eq!(owner(Result, invalid, false, Read), Serve::Copy);
        assert_eq!(
            owner(ProducerConsumer, invalid, false, Read),
            Serve::FirstTouch
        );
    }

    /// Whether an object is busy, pinned, or busy in the fault's own claim.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Hold {
        Busy,
        Pinned,
        Claimed,
    }

    /// The enable set over every combination of its rules for one object of
    /// the faulting variable — in the write set or not, a sole page of the
    /// window or not, an untouched sole page of the block or not, and idle,
    /// busy, pinned or busy in this fault's own claim — and so over each pair
    /// of them. The object is enabled, once, exactly when some rule lists it
    /// and it is idle and read-only here by then (an untouched block page is
    /// zero-filled first); it takes a twin exactly when it is not sole. The
    /// write set gives up the variable's objects, enabled or not, and keeps
    /// another variable's.
    #[test]
    fn the_enable_set_over_each_pair_of_its_rules() {
        let holds = [
            None,
            Some(Hold::Busy),
            Some(Hold::Pinned),
            Some(Hold::Claimed),
        ];
        for bits in 0..8u8 {
            let (written, in_window, in_block) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            for hold in holds {
                let (table, mut dir) = directory(&[
                    ("pc", SharingAnnotation::ProducerConsumer, 5),
                    ("ws", SharingAnnotation::WriteShared, 1),
                ]);
                let (pc, other) = (objects(&table, "pc"), objects(&table, "ws")[0]);
                let (fault, o) = (pc[0], pc[2]);
                let shared_with_1 = |e: &mut DirEntry| {
                    e.state.owned = true;
                    e.copyset.insert(NodeId::new(1));
                };
                let e = dir.entry_mut(fault);
                shared_with_1(e);
                e.state.rights = AccessRights::Read;
                // The object: sole where the window or block rule is on.
                let sole = in_window || in_block;
                let e = dir.entry_mut(o);
                e.state.owned = true;
                if !sole {
                    shared_with_1(e);
                }
                e.state.rights = if in_block {
                    AccessRights::Invalid
                } else {
                    AccessRights::Read
                };
                e.state.busy = matches!(hold, Some(Hold::Busy | Hold::Claimed));
                e.state.pinned = hold == Some(Hold::Pinned);
                if written {
                    dir.mark_written(o, true);
                }
                dir.mark_written(other, true);
                let window_end = if in_window { pc[3] } else { pc[1] }.as_u32();
                let block = if in_block {
                    pc[2].as_u32()..pc[3].as_u32()
                } else {
                    0..0
                };
                let claimed = if hold == Some(Hold::Claimed) { 3 } else { 0 };
                let got = enable(&mut dir, &table, fault, claimed, window_end, block);

                let case =
                    format!("written={written} window={in_window} block={in_block} hold={hold:?}");
                let idle = !matches!(hold, Some(Hold::Busy | Hold::Pinned));
                let listed = written || in_window || in_block;
                let enabled = idle && listed;
                let mut expected = vec![(fault, true)];
                if enabled {
                    expected.push((o, !sole));
                }
                assert_eq!(got, expected, "{case}");
                let e = dir.entry(o);
                let rights = match (enabled, in_block) {
                    (true, _) => AccessRights::ReadWrite,
                    (false, true) => AccessRights::Invalid,
                    (false, false) => AccessRights::Read,
                };
                assert_eq!((e.state.rights, e.state.dirty), (rights, enabled), "{case}");
                assert_eq!(dir.write_set, [other], "{case}");
            }
        }
    }

    /// The flush route and the post-flush transition over `result` and
    /// fan-out objects, stable or not, owned here or not, with receivers or
    /// none, flushed at the home or away from it, a diff shipped or not. The
    /// copy is always clean, and a stable relationship is fixed at its
    /// owner. A `result` copy that went to the home is given up to it; at
    /// the home (nobody receives it) it stays as it was. A stable fan-out
    /// copy nobody receives becomes private (writable), every other fan-out
    /// copy is write-protected again, and only a fanned-out diff enters the
    /// write set. A non-owned fan-out away from the home goes to its owner.
    #[test]
    fn a_flush_routes_and_leaves_each_copy_by_its_protocol() {
        use AccessRights::{Invalid, Read, ReadWrite};
        use SharingAnnotation::{ProducerConsumer, Result, WriteShared};
        let (home, away, reader) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let o = ObjectId::new(0);
        for annotation in [Result, WriteShared, ProducerConsumer] {
            for bits in 0..16u8 {
                let (at_home, owned) = (bits & 1 != 0, bits & 2 != 0);
                let (read_elsewhere, shipped) = (bits & 4 != 0, bits & 8 != 0);
                let me = if at_home { home } else { away };
                let (_, mut dir) = directory(&[("v", annotation, 1)]);
                let e = dir.entry_mut(o);
                e.state = ObjectState {
                    rights: ReadWrite,
                    dirty: true,
                    owned,
                    ..ObjectState::default()
                };
                let hint = if owned { me } else { home };
                e.probable_owner = hint;
                if read_elsewhere {
                    e.copyset.insert(reader);
                }
                let route = flush_route(e, me);
                flushed(&mut dir, o, &route, shipped);

                let case = format!(
                    "{annotation:?} at_home={at_home} owned={owned} \
                     read_elsewhere={read_elsewhere} shipped={shipped}"
                );
                let coop = annotation != Result && !owned && !at_home;
                let receivers = match annotation {
                    Result => !at_home,
                    _ => coop || read_elsewhere,
                };
                assert_eq!(route.fans_out, annotation != Result, "{case}");
                assert_eq!(route.coop_owner, coop.then_some(home), "{case}");
                assert_eq!(route.nowhere(), !receivers, "{case}");
                let (rights, owned_after, hint_after) = match annotation {
                    Result if receivers => (Invalid, false, home),
                    Result => (ReadWrite, owned, hint),
                    ProducerConsumer if !receivers => (ReadWrite, owned, hint),
                    _ => (Read, owned, hint),
                };
                let e = dir.entry(o);
                let expected = ObjectState {
                    rights,
                    owned: owned_after,
                    copyset_fixed: owned && annotation == ProducerConsumer,
                    ..ObjectState::default()
                };
                assert_eq!(
                    (e.state, e.probable_owner),
                    (expected, hint_after),
                    "{case}"
                );
                let written = shipped && annotation != Result;
                assert_eq!(dir.write_set.contains(&o), written, "{case}");
            }
        }
    }

    /// The recovery walk over one entry, owned here or not, for a corpse
    /// that is or is not its owner hint, with or without a valid copy here,
    /// the lowest surviving holder below this node, above it or none, the
    /// home dead or alive. The corpse always leaves the copyset. An orphan
    /// goes to the lowest-id surviving holder: this node adopts it when that
    /// is itself (its own copy counts), another is named as the owner hint,
    /// and with no holder the hint falls back to the home — unless the home
    /// is the corpse.
    #[test]
    fn recovery_names_the_lowest_surviving_holder() {
        let ids = [0, 1, 2, 3, 4].map(NodeId::new);
        let [alive_home, below, me, dead, above] = ids;
        for bits in 0..16u8 {
            let (owned, names_corpse) = (bits & 1 != 0, bits & 2 != 0);
            let (has_copy, home_dead) = (bits & 4 != 0, bits & 8 != 0);
            for survivor in [None, Some(below), Some(above)] {
                let home = if home_dead { dead } else { alive_home };
                let hint = if names_corpse { dead } else { above };
                let (_, mut dir) = directory(&[("v", SharingAnnotation::WriteShared, 1)]);
                let e = dir.entry_mut(ObjectId::new(0));
                e.home = home;
                e.probable_owner = hint;
                e.state.owned = owned;
                if has_copy {
                    e.state.rights = AccessRights::Read;
                }
                e.copyset = NodeSet::from_nodes(survivor.into_iter().chain([dead]));
                let got = recover(e, dead, me);

                let case = format!(
                    "owned={owned} names_corpse={names_corpse} has_copy={has_copy} \
                     home_dead={home_dead} survivor={survivor:?}"
                );
                let orphan = names_corpse && !owned;
                let (hint_after, adopted) = match survivor {
                    _ if !orphan => (hint, false),
                    Some(n) if n == below => (below, false),
                    _ if has_copy => (me, true),
                    Some(n) => (n, false),
                    None if home_dead => (dead, false),
                    None => (home, false),
                };
                assert_eq!(got, (true, adopted), "{case}");
                assert_eq!(e.probable_owner, hint_after, "{case}");
                assert_eq!(e.state.owned, owned || adopted, "{case}");
                assert_eq!(e.copyset, NodeSet::from_nodes(survivor), "{case}");
            }
        }
    }

    /// `PhaseChange()` un-fixes every stable relationship and clears its
    /// voided mark, keeps the copyset, empties the write set and
    /// write-protects again each private stable page the DUQ does not hold;
    /// a queued one, a read-only one and a page of an unstable protocol keep
    /// their rights and bits. `ChangeAnnotation()` un-fixes the objects it
    /// switches and empties the write set.
    #[test]
    fn a_phase_change_purges_relationships_but_keeps_copysets() {
        use AccessRights::{Read, ReadWrite};
        let (table, mut dir) = directory(&[
            ("pc", SharingAnnotation::ProducerConsumer, 3),
            ("ws", SharingAnnotation::WriteShared, 1),
        ]);
        let (pc, ws) = (objects(&table, "pc"), objects(&table, "ws")[0]);
        let reader = NodeSet::from_nodes([NodeId::new(1)]);
        let pages = [
            (pc[0], ReadWrite, Read),
            (pc[1], ReadWrite, ReadWrite),
            (pc[2], Read, Read),
            (ws, ReadWrite, ReadWrite),
        ];
        for (o, rights, _) in pages {
            let e = dir.entry_mut(o);
            e.state = ObjectState {
                rights,
                owned: true,
                copyset_fixed: true,
                phase_voided: true,
                ..ObjectState::default()
            };
            e.copyset = reader.clone();
        }
        dir.mark_written(pc[2], true);
        let queued = pc[1];
        assert_eq!(phase_change(&mut dir, |o| o == queued), [pc[0]]);
        assert_eq!((dir.phase, dir.write_set.len()), (1, 0));
        for (o, _, rights) in pages {
            let e = dir.entry(o);
            let unstable = o == ws;
            let bits = (e.state.copyset_fixed, e.state.phase_voided);
            assert_eq!(
                (e.state.rights, bits),
                (rights, (unstable, unstable)),
                "{o:?}"
            );
            assert_eq!(e.copyset, reader, "{o:?}");
        }

        dir.entry_mut(pc[0]).state.copyset_fixed = true;
        dir.mark_written(ws, true);
        change_annotation(&mut dir, &[pc[0]], SharingAnnotation::WriteShared);
        let e = dir.entry(pc[0]);
        assert_eq!(e.annotation, SharingAnnotation::WriteShared);
        assert!(!e.params.is_stable() && !e.state.copyset_fixed);
        assert!(dir.write_set.is_empty());
    }

    /// Root initialisation over every annotation — so fixed owner, read-only
    /// and delayed-update —, touched by `user_init` or not: the root owns
    /// every object; one touched or with a fixed owner is materialised,
    /// write-protected when read-only or delayed-update and writable
    /// otherwise; the rest are never materialised.
    #[test]
    fn root_init_materialises_touched_and_fixed_owner_objects() {
        use AccessRights::{Invalid, Read, ReadWrite};
        use SharingAnnotation::*;
        let root = NodeId::new(0);
        for annotation in ANNOTATIONS {
            for touched in [false, true] {
                let (_, mut dir) = directory(&[("v", annotation, 1)]);
                let e = dir.entry_mut(ObjectId::new(0));
                e.probable_owner = NodeId::new(3);
                root_init(e, root, touched);
                let rights = match (annotation, touched) {
                    (Reduction, _) => ReadWrite,
                    (Result, _) => Read,
                    (_, false) => Invalid,
                    (ReadOnly | WriteShared | ProducerConsumer, true) => Read,
                    (Migratory | Conventional, true) => ReadWrite,
                };
                let case = format!("{annotation:?} touched={touched}");
                assert_eq!(e.state.rights, rights, "{case}");
                assert!(e.state.owned && e.probable_owner == root, "{case}");
                assert_eq!(never_materialised(e), rights == Invalid, "{case}");
            }
        }
    }

    /// The four ways a copy is given up leave it alike — no rights, clean,
    /// not owned, the owner hint at whoever has the object now: an
    /// invalidation (the requester), a lock hand-over of migratory data (the
    /// grantee), a `result` flush away from the home and the `Invalidate()`
    /// hint (the home, or the hint a copy it does not own already had). Each
    /// keeps its own guard: a hand-over of other data, a `result` flush at
    /// the home and the hint at the home keep the copy; the hand-over and
    /// the hint leave the write set as it was.
    #[test]
    fn each_way_of_giving_a_copy_up_leaves_it_alike() {
        use SharingAnnotation::{Conventional, Migratory, Result, WriteShared};
        let (home, me, to) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let o = ObjectId::new(0);
        let held = |annotation| {
            let (_, mut dir) = directory(&[("v", annotation, 1)]);
            let e = dir.entry_mut(o);
            e.state = ObjectState {
                rights: AccessRights::ReadWrite,
                dirty: true,
                owned: true,
                ..ObjectState::default()
            };
            e.probable_owner = me;
            dir.mark_written(o, true);
            dir
        };
        let given_up = |dir: &Directory, hint| {
            let e = dir.entry(o);
            let gone = (AccessRights::Invalid, false, false, hint);
            (
                e.state.rights,
                e.state.dirty,
                e.state.owned,
                e.probable_owner,
            ) == gone
        };

        let mut dir = held(Conventional);
        invalidate(&mut dir, o, to);
        assert!(given_up(&dir, to) && dir.write_set.is_empty());

        for (annotation, gives) in [(Migratory, true), (Conventional, false)] {
            let mut dir = held(annotation);
            hand_over_with_lock(dir.entry_mut(o), to);
            assert_eq!(given_up(&dir, to), gives, "{annotation:?}");
            assert_eq!(dir.entry(o).state.dirty, !gives, "{annotation:?}");
            assert_eq!(dir.write_set, [o], "{annotation:?}");
        }

        for at in [me, home] {
            let mut dir = held(Result);
            let route = flush_route(dir.entry_mut(o), at);
            flushed(&mut dir, o, &route, true);
            assert_eq!(given_up(&dir, home), at != home, "result flush at {at:?}");
            assert!(dir.write_set.is_empty(), "result flush at {at:?}");

            let mut dir = held(WriteShared);
            assert_eq!(invalidate_hint(dir.entry_mut(o), at), at != home);
            assert_eq!(given_up(&dir, home), at != home, "hint at {at:?}");
            assert_eq!(dir.write_set, [o], "hint at {at:?}");
        }
        let mut dir = held(WriteShared);
        let e = dir.entry_mut(o);
        e.state.owned = false;
        e.probable_owner = to;
        assert!(invalidate_hint(e, me) && given_up(&dir, to));
    }
}
