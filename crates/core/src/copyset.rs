//! Copysets: which remote processors hold copies of an object.
//!
//! The paper uses a bitmap of remote processors per directory entry, noting
//! that this "does not scale well to larger systems but an earlier study of
//! parallel programs suggests that a processor list is often quite short",
//! and that a special *All Nodes* value covers the common case of an object
//! shared by every processor. Both representations are provided here; the
//! explicit bitmap is a [`NodeSet`] (multi-word, inline up to 256 nodes)
//! rather than the prototype's single machine word, so the scaling concern
//! the paper flags is addressed without giving up the bitmap's O(1) member
//! test.

use munin_sim::NodeId;

use crate::nodeset::{NodeSet, NodeSetIter};

/// The set of nodes that hold a copy of an object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CopySet {
    /// An explicit bitmap of nodes (bit *i* set ⇒ node *i* has a copy).
    Nodes(NodeSet),
    /// Every node in the system has a copy.
    AllNodes,
}

impl Default for CopySet {
    fn default() -> Self {
        CopySet::EMPTY
    }
}

impl CopySet {
    /// The empty copyset.
    pub const EMPTY: CopySet = CopySet::Nodes(NodeSet::EMPTY);

    /// Creates a copyset containing exactly the given nodes.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        CopySet::Nodes(NodeSet::from_nodes(nodes))
    }

    /// Adds a node to the set (no-op for [`CopySet::AllNodes`]).
    pub fn insert(&mut self, node: NodeId) {
        if let CopySet::Nodes(set) = self {
            set.insert(node);
        }
    }

    /// Removes a node from the set. Removing from [`CopySet::AllNodes`] is
    /// not representable without knowing the system size and is ignored;
    /// callers that need it should first materialize with
    /// [`CopySet::materialize`].
    pub fn remove(&mut self, node: NodeId) {
        if let CopySet::Nodes(set) = self {
            set.remove(node);
        }
    }

    /// Whether the node is in the set. For [`CopySet::AllNodes`] every node
    /// is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        match self {
            CopySet::Nodes(set) => set.contains(node),
            CopySet::AllNodes => true,
        }
    }

    /// Whether the set is empty. [`CopySet::AllNodes`] is never empty.
    pub fn is_empty(&self) -> bool {
        match self {
            CopySet::Nodes(set) => set.is_empty(),
            CopySet::AllNodes => false,
        }
    }

    /// Number of members, given the total number of nodes in the system.
    pub fn len(&self, total_nodes: usize) -> usize {
        match self {
            CopySet::Nodes(set) => set.count(),
            CopySet::AllNodes => total_nodes,
        }
    }

    /// Converts to an explicit bitmap over `total_nodes` nodes.
    pub fn materialize(&self, total_nodes: usize) -> CopySet {
        match self {
            CopySet::Nodes(_) => self.clone(),
            CopySet::AllNodes => CopySet::Nodes(NodeSet::full(total_nodes)),
        }
    }

    /// Iterates the member nodes in ascending order without allocating,
    /// excluding `exclude` (typically the local node). [`CopySet::AllNodes`]
    /// iterates `0..total_nodes`.
    pub fn iter(&self, total_nodes: usize, exclude: Option<NodeId>) -> CopySetIter<'_> {
        let inner = match self {
            CopySet::Nodes(set) => CopySetIterInner::Set(set.iter()),
            CopySet::AllNodes => CopySetIterInner::Range(0..total_nodes),
        };
        CopySetIter { inner, exclude }
    }

    /// The member nodes as a `Vec`, excluding `exclude`. Prefer
    /// [`CopySet::iter`] on hot paths; this remains for call sites that
    /// genuinely need an owned list (e.g. retained across awaits on replies).
    pub fn members(&self, total_nodes: usize, exclude: Option<NodeId>) -> Vec<NodeId> {
        self.iter(total_nodes, exclude).collect()
    }

    /// The member nodes as an owned [`NodeSet`] over `total_nodes` nodes,
    /// excluding `exclude` — for call sites that keep a destination set
    /// around rather than walking it once.
    pub fn to_set(&self, total_nodes: usize, exclude: Option<NodeId>) -> NodeSet {
        let mut set = match self {
            CopySet::Nodes(s) => s.clone(),
            CopySet::AllNodes => NodeSet::full(total_nodes),
        };
        if let Some(e) = exclude {
            set.remove(e);
        }
        set
    }
}

/// Non-allocating iterator over the members of a [`CopySet`] (see
/// [`CopySet::iter`]).
pub struct CopySetIter<'a> {
    inner: CopySetIterInner<'a>,
    exclude: Option<NodeId>,
}

enum CopySetIterInner<'a> {
    Set(NodeSetIter<'a>),
    Range(std::ops::Range<usize>),
}

impl Iterator for CopySetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let node = match &mut self.inner {
                CopySetIterInner::Set(it) => it.next()?,
                CopySetIterInner::Range(r) => NodeId::new(r.next()?),
            };
            if Some(node) != self.exclude {
                return Some(node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CopySet {
        /// Union of two copysets.
        fn union(&self, other: &CopySet) -> CopySet {
            match (self, other) {
                (CopySet::AllNodes, _) | (_, CopySet::AllNodes) => CopySet::AllNodes,
                (CopySet::Nodes(a), CopySet::Nodes(b)) => {
                    let mut out = a.clone();
                    out.union_with(b);
                    CopySet::Nodes(out)
                }
            }
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut cs = CopySet::EMPTY;
        assert!(cs.is_empty());
        cs.insert(NodeId::new(3));
        cs.insert(NodeId::new(7));
        assert!(cs.contains(NodeId::new(3)));
        assert!(cs.contains(NodeId::new(7)));
        assert!(!cs.contains(NodeId::new(4)));
        assert_eq!(cs.len(16), 2);
        cs.remove(NodeId::new(3));
        assert!(!cs.contains(NodeId::new(3)));
        assert_eq!(cs.len(16), 1);
    }

    #[test]
    fn all_nodes_contains_everything() {
        let cs = CopySet::AllNodes;
        for i in 0..16 {
            assert!(cs.contains(NodeId::new(i)));
        }
        assert!(!cs.is_empty());
        assert_eq!(cs.len(16), 16);
    }

    #[test]
    fn materialize_all_nodes() {
        let cs = CopySet::AllNodes.materialize(4);
        assert_eq!(cs, CopySet::from_nodes((0..4).map(NodeId::new)));
        let cs64 = CopySet::AllNodes.materialize(64);
        assert_eq!(cs64.len(64), 64);
        let cs256 = CopySet::AllNodes.materialize(256);
        assert_eq!(cs256.len(256), 256);
        assert!(cs256.contains(NodeId::new(255)));
    }

    #[test]
    fn members_excludes_local_node() {
        let cs = CopySet::from_nodes([NodeId::new(0), NodeId::new(2), NodeId::new(3)]);
        let members = cs.members(4, Some(NodeId::new(2)));
        assert_eq!(members, vec![NodeId::new(0), NodeId::new(3)]);
        let all = CopySet::AllNodes.members(3, Some(NodeId::new(0)));
        assert_eq!(all, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn iter_matches_members_without_allocating() {
        let cs = CopySet::from_nodes([NodeId::new(1), NodeId::new(100), NodeId::new(200)]);
        assert_eq!(
            cs.iter(256, Some(NodeId::new(100))).collect::<Vec<_>>(),
            cs.members(256, Some(NodeId::new(100)))
        );
        assert_eq!(
            CopySet::AllNodes.iter(5, None).collect::<Vec<_>>(),
            (0..5).map(NodeId::new).collect::<Vec<_>>()
        );
    }

    #[test]
    fn wide_copysets_do_not_alias() {
        let mut cs = CopySet::EMPTY;
        cs.insert(NodeId::new(64));
        cs.insert(NodeId::new(130));
        assert!(!cs.contains(NodeId::new(0)));
        assert!(!cs.contains(NodeId::new(2)));
        assert!(cs.contains(NodeId::new(64)));
        assert!(cs.contains(NodeId::new(130)));
        assert_eq!(cs.len(256), 2);
    }

    #[test]
    fn union_saturates_to_all_nodes() {
        let a = CopySet::from_nodes([NodeId::new(1)]);
        let b = CopySet::from_nodes([NodeId::new(2)]);
        assert_eq!(
            a.union(&b),
            CopySet::from_nodes([NodeId::new(1), NodeId::new(2)])
        );
        assert_eq!(a.union(&CopySet::AllNodes), CopySet::AllNodes);
    }
}
