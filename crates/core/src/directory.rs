//! The data object directory.
//!
//! "The data object directory within each Munin node maintains information
//! about the state of the global shared memory. This directory is a hash
//! table that maps an address in the shared address space to the entry that
//! describes the object located at that address." (Section 3.2.)
//!
//! Entries carry the protocol parameter bits, the dynamic object state, the
//! copyset, the probable owner, the home node, and an optional link to the
//! synchronization object that protects the object.

use munin_sim::NodeId;

use crate::annotation::{ProtocolParams, SharingAnnotation};
use crate::nodeset::NodeSet;
use crate::object::ObjectId;
use crate::segment::SharedDataTable;
use crate::sync::LockId;

/// Local access rights for an object — the simulated analogue of the
/// virtual-memory protection bits the prototype manipulates through the V
/// kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AccessRights {
    /// No valid local copy (any access faults).
    #[default]
    Invalid,
    /// Valid read-only copy (writes fault).
    Read,
    /// Valid writable copy.
    ReadWrite,
}

impl AccessRights {
    /// Whether a read is allowed without faulting.
    pub fn allows_read(self) -> bool {
        !matches!(self, AccessRights::Invalid)
    }

    /// Whether a write is allowed without faulting.
    pub fn allows_write(self) -> bool {
        matches!(self, AccessRights::ReadWrite)
    }

    /// Whether a write (`write`) or a read is allowed without faulting.
    pub fn allows(self, write: bool) -> bool {
        if write {
            self.allows_write()
        } else {
            self.allows_read()
        }
    }
}

/// Dynamic state bits of a directory entry ("characterize the dynamic state
/// of the object, e.g. whether the local copy is valid, writable, or modified
/// since the last flush, and whether a remote copy of the object exists").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectState {
    /// Local access rights (valid / writable).
    pub rights: AccessRights,
    /// Modified locally since the last DUQ flush.
    pub dirty: bool,
    /// Whether this node believes it is the current owner of the object.
    pub owned: bool,
    /// Whether the stable (producer-consumer) copyset is fixed: set at the
    /// owner's flush, cleared by a phase change.
    pub copyset_fixed: bool,
    /// A fetch from a node already in a later phase has voided this phase's
    /// stable relationship once (cleared `copyset_fixed` where the
    /// stable-sharing check would have raised the runtime error). Cleared by
    /// the local `PhaseChange()`. While it is set, a requester that is ahead
    /// is checked like any other, so a node that stays ahead — the hint is
    /// local, nothing makes every node issue it equally often — cannot switch
    /// the check off.
    pub phase_voided: bool,
    /// Entry is mid-transition (a fault is being serviced by the local user
    /// thread); incoming requests for it are deferred — the moral equivalent
    /// of the paper's per-entry access-control semaphore.
    pub busy: bool,
    /// The local user thread's fetch of this (busy) entry was interrupted by
    /// a peer's death and it is polling every live peer for a surviving copy
    /// (`refetch_orphan`). Broadcast copyset queries are answered at once
    /// while this is set, not deferred behind `busy`: two nodes recovering
    /// the same object would otherwise each hold the other's query until
    /// their own round ends — which waits for the other's reply.
    pub recovering: bool,
    /// The local user thread holds this entry's access rights for an
    /// in-progress memory access (the check-then-act window between the
    /// rights check and the actual read/write of segment memory). Unlike
    /// `busy`, a pinned entry is released without any intervening blocking,
    /// so ownership-transferring fetches and invalidations can simply be
    /// deferred until the access completes — this closes the lost-update race
    /// where a fetch was served between the rights check and the write.
    pub pinned: bool,
}

/// One entry of the data object directory.
#[derive(Clone, Debug)]
pub struct DirEntry {
    /// The object described by this entry.
    pub object: ObjectId,
    /// Start offset of the object within the shared segment (the hash key in
    /// the paper; kept for address lookups).
    pub start: usize,
    /// Size of the object in bytes.
    pub size: usize,
    /// The sharing annotation currently in force for this object.
    pub annotation: SharingAnnotation,
    /// The protocol parameter bits derived from the annotation.
    pub params: ProtocolParams,
    /// Dynamic state bits.
    pub state: ObjectState,
    /// Which remote processors have copies that must be updated/invalidated.
    pub copyset: NodeSet,
    /// Best guess at the current owner, used by the ownership-based
    /// protocols to find the owner with a minimum of forwarding.
    pub probable_owner: NodeId,
    /// The node at which the object was created (node of last resort).
    pub home: NodeId,
    /// Synchronization object that protects this object, if the programmer
    /// provided the association (`AssociateDataAndSynch`).
    pub synchq: Option<LockId>,
}

impl DirEntry {
    /// Changes the annotation (and derived parameters) of the entry, used by
    /// `ChangeAnnotation`.
    pub fn set_annotation(&mut self, annotation: SharingAnnotation) {
        self.annotation = annotation;
        self.params = ProtocolParams::for_annotation(annotation);
    }
}

/// A node's data object directory.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    entries: Vec<DirEntry>,
    /// How many `PhaseChange()` hints this node's user thread has issued.
    /// Kept here, under the directory lock, because it qualifies every
    /// entry's `copyset_fixed` bit: the bit describes the sharing
    /// relationship of this phase only (see `DsmMsg::ObjectFetch::phase`).
    pub phase: u32,
    /// The write set: the objects whose last flush shipped a non-empty diff
    /// and write-protected them again, in flush order. The next delayed
    /// write fault on a variable drains its objects from here and twins
    /// them in the same trap (`delayed_write_fault`).
    pub write_set: Vec<ObjectId>,
}

impl Directory {
    /// Builds a directory from the shared data description table, as the root
    /// node does at startup. `home` is the home node recorded for every
    /// statically allocated object (the root node), and
    /// `annotation_override`, when set, forces every variable to a single
    /// annotation (Table 6) — read-only inputs too: that is why the
    /// multi-protocol version wins for Matrix Multiply, where `read_only` /
    /// `result` sped up loading the inputs and purging the output.
    pub fn from_table(
        table: &SharedDataTable,
        home: NodeId,
        annotation_override: Option<SharingAnnotation>,
    ) -> Self {
        let mut dir = Directory::default();
        for obj in table.objects() {
            let annotation = annotation_override.unwrap_or(table.annotation_of(obj.id));
            let params = ProtocolParams::for_annotation(annotation);
            dir.entries.push(DirEntry {
                object: obj.id,
                start: obj.segment_offset,
                size: obj.size,
                annotation,
                params,
                state: ObjectState::default(),
                copyset: NodeSet::EMPTY,
                probable_owner: home,
                home,
                synchq: None,
            });
        }
        dir
    }

    /// Entry for an object.
    pub fn entry(&self, object: ObjectId) -> &DirEntry {
        &self.entries[object.as_usize()]
    }

    /// Mutable entry for an object.
    pub fn entry_mut(&mut self, object: ObjectId) -> &mut DirEntry {
        &mut self.entries[object.as_usize()]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Puts `object` at the end of the write set (`member`) or takes it out.
    pub fn mark_written(&mut self, object: ObjectId, member: bool) {
        self.write_set.retain(|&o| o != object);
        if member {
            self.write_set.push(object);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SharedDataTable;

    fn table() -> SharedDataTable {
        let mut t = SharedDataTable::new(64);
        t.declare("ro", SharingAnnotation::ReadOnly, 4, 4);
        t.declare("ws", SharingAnnotation::WriteShared, 4, 64);
        t
    }

    #[test]
    fn from_table_creates_one_entry_per_object() {
        let t = table();
        let dir = Directory::from_table(&t, NodeId::new(0), None);
        assert_eq!(dir.len(), t.object_count());
        assert!(!dir.is_empty());
        let first = dir.entry(ObjectId::new(0));
        assert_eq!(first.annotation, SharingAnnotation::ReadOnly);
        assert_eq!(first.home, NodeId::new(0));
        assert_eq!(first.probable_owner, NodeId::new(0));
        assert_eq!(first.state.rights, AccessRights::Invalid);
    }

    #[test]
    fn annotation_override_forces_protocol() {
        let t = table();
        let dir = Directory::from_table(&t, NodeId::new(0), Some(SharingAnnotation::Conventional));
        for e in &dir.entries {
            assert_eq!(e.annotation, SharingAnnotation::Conventional);
        }
    }

    #[test]
    fn set_annotation_rederives_params() {
        let t = table();
        let mut dir = Directory::from_table(&t, NodeId::new(0), None);
        let e = dir.entry_mut(ObjectId::new(0));
        e.set_annotation(SharingAnnotation::Migratory);
        assert!(e.params.uses_invalidate());
        assert!(!e.params.allows_replicas());
    }

    #[test]
    fn access_rights_semantics() {
        assert!(!AccessRights::Invalid.allows_read());
        assert!(AccessRights::Read.allows_read());
        assert!(!AccessRights::Read.allows_write());
        assert!(AccessRights::ReadWrite.allows_write());
    }
}
