//! Multi-word node bitmaps.
//!
//! The original prototype (and the first nine PRs of this reproduction) used
//! a bare `u64` wherever a set of nodes was needed — copysets, dead-peer
//! bitmaps, barrier exclusions, handled-death cursors. That representation
//! caps the cluster at 64 nodes and, worse, fails *silently* above it
//! (`1u64 << (node % 64)` aliases node 64 onto node 0). [`NodeSet`] removes
//! the ceiling: four inline words cover 256 nodes with no heap traffic, and
//! larger clusters spill to a heap vector transparently.
//!
//! The set is a plain bitmap, so all operations the hot paths need — insert,
//! contains, union, ascending iteration over set bits — stay word-at-a-time
//! and branch-light. Unlike the old `u64` it is not `Copy`; callers that
//! previously copied bitmaps by value now `clone()` explicitly, which keeps
//! accidental O(words) copies visible in the source.
//!
//! A directory entry's copyset — which remote processors hold a copy of an
//! object — is a `NodeSet`. The paper keeps a bitmap per entry plus a
//! special *All Nodes* value; here the bitmap has no 64-node ceiling and
//! *All Nodes* is simply [`NodeSet::full`].

use munin_sim::NodeId;

/// Number of inline words (256 node ids) before the set spills to the heap.
const INLINE_WORDS: usize = 4;

/// A set of node ids, represented as a multi-word bitmap.
///
/// Node ids 0..256 live in four inline words; inserting a larger id
/// transparently moves the set to a heap-allocated vector. Equality ignores
/// representation: an inline set and a heap set with the same members are
/// equal.
#[derive(Clone, Debug)]
pub struct NodeSet {
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    /// Fast path: up to 256 nodes, no allocation.
    Inline([u64; INLINE_WORDS]),
    /// Spill path for clusters above 256 nodes. The vector is never shrunk;
    /// trailing zero words are permitted and ignored by comparisons.
    Heap(Vec<u64>),
}

impl NodeSet {
    /// The empty set (const-constructible, usable in `const` contexts).
    pub const EMPTY: NodeSet = NodeSet {
        repr: Repr::Inline([0; INLINE_WORDS]),
    };

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates the set {0, 1, .., n-1}: every node of an n-node cluster.
    pub fn full(n: usize) -> Self {
        let mut set = Self::EMPTY;
        let words = n / 64;
        for w in 0..words {
            *set.word_mut(w) = u64::MAX;
        }
        let rem = n % 64;
        if rem > 0 {
            *set.word_mut(words) = (1u64 << rem) - 1;
        }
        set
    }

    /// Creates a set containing exactly the given nodes.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut set = Self::EMPTY;
        for n in nodes {
            set.insert(n);
        }
        set
    }

    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => w,
            Repr::Heap(w) => w,
        }
    }

    /// Mutable access to word `w`, growing the representation as needed.
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w >= INLINE_WORDS {
            if let Repr::Inline(inline) = &self.repr {
                let mut v = inline.to_vec();
                v.resize(w + 1, 0);
                self.repr = Repr::Heap(v);
            }
        }
        match &mut self.repr {
            Repr::Inline(words) => &mut words[w],
            Repr::Heap(words) => {
                if w >= words.len() {
                    words.resize(w + 1, 0);
                }
                &mut words[w]
            }
        }
    }

    /// Adds a node to the set.
    pub fn insert(&mut self, node: NodeId) {
        let i = node.as_usize();
        *self.word_mut(i / 64) |= 1u64 << (i % 64);
    }

    /// Removes a node from the set.
    pub fn remove(&mut self, node: NodeId) {
        let i = node.as_usize();
        let (w, b) = (i / 64, i % 64);
        if w < self.words().len() {
            *self.word_mut(w) &= !(1u64 << b);
        }
    }

    /// Whether the node is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.as_usize();
        let (w, b) = (i / 64, i % 64);
        self.words()
            .get(w)
            .is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|w| *w == 0)
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline(words) => *words = [0; INLINE_WORDS],
            Repr::Heap(words) => words.iter_mut().for_each(|w| *w = 0),
        }
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<NodeId> {
        for (w, word) in self.words().iter().enumerate() {
            if *word != 0 {
                return Some(NodeId::new(w * 64 + word.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Adds every member of `other` to this set.
    pub fn union_with(&mut self, other: &NodeSet) {
        for (w, word) in other.words().iter().enumerate() {
            if *word != 0 {
                *self.word_mut(w) |= word;
            }
        }
    }

    /// Removes every member of `other` from this set.
    pub fn difference_with(&mut self, other: &NodeSet) {
        let len = self.words().len();
        for (w, word) in other.words().iter().enumerate().take(len) {
            if *word != 0 {
                *self.word_mut(w) &= !word;
            }
        }
    }

    /// The smallest member not in `exclude`, if any (word-at-a-time, used by
    /// the death-handling wait loops to find a freshly dead peer).
    pub fn first_not_in(&self, exclude: &NodeSet) -> Option<NodeId> {
        let mask = exclude.words();
        for (w, word) in self.words().iter().enumerate() {
            let fresh = word & !mask.get(w).copied().unwrap_or(0);
            if fresh != 0 {
                return Some(NodeId::new(w * 64 + fresh.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Whether every member of `other` is also a member of this set.
    pub fn is_superset_of(&self, other: &NodeSet) -> bool {
        let mine = self.words();
        other
            .words()
            .iter()
            .enumerate()
            .all(|(w, word)| word & !mine.get(w).copied().unwrap_or(0) == 0)
    }

    /// Number of 64-bit words up to and including the highest set bit — the
    /// minimal bitmap length a wire encoding of the set would need (drives
    /// the modelled size of messages that carry a `NodeSet`).
    pub fn word_span(&self) -> usize {
        self.words()
            .iter()
            .rposition(|w| *w != 0)
            .map_or(0, |w| w + 1)
    }

    /// Iterates the members in ascending node-id order without allocating.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            words: self.words(),
            word_idx: 0,
            current: self.words().first().copied().unwrap_or(0),
        }
    }
}

impl Default for NodeSet {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.words(), other.words());
        let common = a.len().min(b.len());
        a[..common] == b[..common]
            && a[common..].iter().all(|w| *w == 0)
            && b[common..].iter().all(|w| *w == 0)
    }
}

impl Eq for NodeSet {}

impl std::hash::Hash for NodeSet {
    /// Agrees with `==`: trailing zero words do not count.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.words()[..self.word_span()].hash(state);
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = NodeSetIter<'a>;

    fn into_iter(self) -> NodeSetIter<'a> {
        self.iter()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Self::from_nodes(iter)
    }
}

/// Ascending-order iterator over the members of a [`NodeSet`].
pub struct NodeSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for NodeSetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId::new(self.word_idx * 64 + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn insert_remove_contains_across_word_boundaries() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        for i in [0, 63, 64, 127, 128, 255] {
            s.insert(n(i));
        }
        for i in [0, 63, 64, 127, 128, 255] {
            assert!(s.contains(n(i)), "missing {i}");
        }
        assert!(!s.contains(n(1)));
        assert!(!s.contains(n(65)));
        assert_eq!(s.count(), 6);
        s.remove(n(64));
        assert!(!s.contains(n(64)));
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn ids_above_256_spill_to_the_heap() {
        let mut s = NodeSet::new();
        s.insert(n(300));
        s.insert(n(1000));
        assert!(s.contains(n(300)));
        assert!(s.contains(n(1000)));
        assert!(!s.contains(n(299)));
        assert_eq!(s.count(), 2);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![n(300), n(1000)],
            "iteration stays ascending after the spill"
        );
        // contains() beyond the stored words is false, not a panic.
        assert!(!s.contains(n(100_000)));
    }

    #[test]
    fn equality_ignores_representation() {
        let mut heap = NodeSet::new();
        heap.insert(n(500));
        heap.remove(n(500));
        heap.insert(n(3));
        let mut inline = NodeSet::new();
        inline.insert(n(3));
        assert_eq!(heap, inline);
        assert_eq!(inline, heap);
        // Equal sets hash alike, so a set can key a map.
        let one_key = std::collections::HashSet::from([heap.clone(), inline.clone()]);
        assert_eq!(one_key.len(), 1);
        inline.insert(n(4));
        assert_ne!(heap, inline);
    }

    #[test]
    fn full_sets_exactly_the_first_n_bits() {
        for nodes in [1, 2, 63, 64, 65, 128, 256, 300] {
            let s = NodeSet::full(nodes);
            assert_eq!(s.count(), nodes, "full({nodes})");
            assert!(s.contains(n(nodes - 1)));
            assert!(!s.contains(n(nodes)));
            assert_eq!(s.first(), Some(n(0)));
        }
    }

    #[test]
    fn iter_walks_ascending_without_allocating() {
        let s = NodeSet::from_nodes([n(200), n(5), n(64), n(5)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![n(5), n(64), n(200)]);
        assert_eq!(NodeSet::EMPTY.iter().next(), None);
    }

    #[test]
    fn union_and_difference() {
        let mut a = NodeSet::from_nodes([n(1), n(100)]);
        let b = NodeSet::from_nodes([n(2), n(300)]);
        a.union_with(&b);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![n(1), n(2), n(100), n(300)]
        );
        a.difference_with(&NodeSet::from_nodes([n(2), n(100), n(7)]));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![n(1), n(300)]);
    }

    #[test]
    fn first_not_in_skips_handled_members() {
        let dead = NodeSet::from_nodes([n(3), n(70), n(200)]);
        let mut handled = NodeSet::new();
        assert_eq!(dead.first_not_in(&handled), Some(n(3)));
        handled.insert(n(3));
        assert_eq!(dead.first_not_in(&handled), Some(n(70)));
        handled.insert(n(70));
        handled.insert(n(200));
        assert_eq!(dead.first_not_in(&handled), None);
    }

    #[test]
    fn superset_and_word_span() {
        let big = NodeSet::from_nodes([n(1), n(70), n(200)]);
        let small = NodeSet::from_nodes([n(1), n(200)]);
        assert!(big.is_superset_of(&small));
        assert!(!small.is_superset_of(&big));
        assert!(big.is_superset_of(&NodeSet::EMPTY));
        assert!(NodeSet::EMPTY.is_superset_of(&NodeSet::EMPTY));
        // A heap-spilled set with a high tail still compares correctly
        // against an inline one.
        let spilled = NodeSet::from_nodes([n(1), n(500)]);
        assert!(!small.is_superset_of(&spilled));
        assert_eq!(NodeSet::EMPTY.word_span(), 0);
        assert_eq!(NodeSet::from_nodes([n(63)]).word_span(), 1);
        assert_eq!(NodeSet::from_nodes([n(64)]).word_span(), 2);
        assert_eq!(spilled.word_span(), 8);
    }

    #[test]
    fn no_aliasing_at_multiples_of_64() {
        // The historical `1u64 << (node % 64)` wrapped node 64 onto node 0.
        let mut s = NodeSet::new();
        s.insert(n(64));
        assert!(!s.contains(n(0)), "node 64 must not alias node 0");
        s.remove(n(128));
        assert!(s.contains(n(64)), "removing 128 must not clear 64 or 0");
    }
}
