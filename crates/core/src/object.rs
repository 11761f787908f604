//! Shared objects and shared variables.
//!
//! A Munin *shared object* is the unit on which the runtime maintains
//! consistency: a program variable, or an 8 KB (page-sized) region of a
//! larger one. This module defines the identifiers and
//! descriptors for variables and objects and the splitting of variables into
//! page-sized objects.

use crate::annotation::SharingAnnotation;

/// Default consistency unit: the paper's prototype uses 8-kilobyte pages.
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Identifier of a shared program variable (as declared by the programmer).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// The variable index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a shared object (a consistency unit) as seen by the runtime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(u32);

impl ObjectId {
    /// Creates an object id from an index.
    pub const fn new(idx: u32) -> Self {
        ObjectId(idx)
    }

    /// The object index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The object index as a usize.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Description of one shared variable, as recorded in the shared data
/// description table produced at "link" time.
#[derive(Clone, Debug)]
pub struct VarDesc {
    /// Variable identifier.
    pub id: VarId,
    /// Programmer-visible name.
    pub name: &'static str,
    /// Sharing annotation attached to the declaration.
    pub annotation: SharingAnnotation,
    /// Size of one element in bytes.
    pub elem_size: usize,
    /// Number of elements.
    pub len: usize,
    /// Byte offset of the variable within the shared data segment.
    pub segment_offset: usize,
    /// Identifiers of the objects that make up this variable, in order.
    pub objects: Vec<ObjectId>,
}

/// Description of one shared object (consistency unit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectDesc {
    /// Object identifier.
    pub id: ObjectId,
    /// The variable this object belongs to.
    pub var: VarId,
    /// Byte offset of the object within the shared data segment.
    pub segment_offset: usize,
    /// Size of the object in bytes (always a multiple of 4; the last object
    /// of a variable is padded up to a word boundary).
    pub size: usize,
    /// Byte offset of the object within its variable.
    pub var_offset: usize,
}

impl ObjectDesc {
    /// Number of 32-bit words in the object.
    pub fn words(&self) -> usize {
        self.size / 4
    }

    /// Whether the given byte offset (relative to the segment) falls inside
    /// this object.
    pub fn contains(&self, segment_offset: usize) -> bool {
        segment_offset >= self.segment_offset && segment_offset < self.segment_offset + self.size
    }
}

/// Splits a variable of `byte_len` bytes into object sizes, given the page
/// size. Each size is padded to a multiple of 4 so the word-granularity diff
/// is well defined.
pub fn split_sizes(byte_len: usize, page_size: usize) -> Vec<usize> {
    let padded = byte_len.div_ceil(4) * 4;
    if padded == 0 {
        return Vec::new();
    }
    if padded <= page_size {
        return vec![padded];
    }
    let mut sizes = Vec::new();
    let mut remaining = padded;
    while remaining > 0 {
        let take = remaining.min(page_size);
        sizes.push(take);
        remaining -= take;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_variable_is_one_object() {
        assert_eq!(split_sizes(100, 8192), vec![100]);
        assert_eq!(split_sizes(8192, 8192), vec![8192]);
    }

    #[test]
    fn large_variable_is_broken_into_pages() {
        let sizes = split_sizes(20_000, 8192);
        assert_eq!(sizes, vec![8192, 8192, 3616]);
        assert_eq!(sizes.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn sizes_are_word_aligned() {
        let sizes = split_sizes(10, 8192);
        assert_eq!(sizes, vec![12]);
        for s in split_sizes(8195, 4096) {
            assert_eq!(s % 4, 0);
        }
    }

    #[test]
    fn empty_variable_has_no_objects() {
        assert!(split_sizes(0, 8192).is_empty());
    }

    #[test]
    fn object_desc_contains() {
        let d = ObjectDesc {
            id: ObjectId::new(0),
            var: VarId(0),
            segment_offset: 100,
            size: 50,
            var_offset: 0,
        };
        assert!(d.contains(100));
        assert!(d.contains(149));
        assert!(!d.contains(150));
        assert!(!d.contains(99));
        assert_eq!(d.words(), 12);
    }

    #[test]
    fn proptest_split_covers_variable() {
        // Lightweight deterministic sweep; the property over drawn sizes is
        // `tests/properties.rs::split_sizes_cover_variable`.
        for byte_len in [1usize, 3, 4, 4095, 4096, 4097, 100_000] {
            for page in [64usize, 4096, 8192] {
                let sizes = split_sizes(byte_len, page);
                let total: usize = sizes.iter().sum();
                assert!(total >= byte_len);
                assert!(total < byte_len + 4);
                assert!(sizes.iter().all(|s| *s <= page && *s % 4 == 0));
            }
        }
    }
}
