//! The shared data segment and the shared data description table.
//!
//! In the paper, a preprocessor reads the sharing annotations and a modified
//! linker appends a *shared data segment* and a *shared data description
//! table* to the executable; at startup the root node's data object directory
//! is initialized from the table. In this reproduction the table is built
//! programmatically (by [`crate::api::MuninProgram`] declarations) and plays
//! exactly the same role: it records every shared variable, its annotation,
//! its placement in the segment, and its decomposition into objects.

use std::collections::HashMap;

use crate::annotation::SharingAnnotation;
use crate::object::{split_sizes, ObjectDesc, ObjectId, VarDesc, VarId};

/// The shared data description table: every variable and every object in the
/// shared data segment.
#[derive(Clone, Debug, Default)]
pub struct SharedDataTable {
    vars: Vec<VarDesc>,
    objects: Vec<ObjectDesc>,
    by_name: HashMap<&'static str, VarId>,
    page_size: usize,
    segment_len: usize,
}

impl SharedDataTable {
    /// Creates an empty table with the given consistency-unit (page) size.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size >= 4 && page_size.is_multiple_of(4),
            "page size must be a positive word multiple"
        );
        SharedDataTable {
            vars: Vec::new(),
            objects: Vec::new(),
            by_name: HashMap::new(),
            page_size,
            segment_len: 0,
        }
    }

    /// The consistency-unit size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total size of the shared data segment in bytes.
    pub fn segment_len(&self) -> usize {
        self.segment_len
    }

    /// Adds a shared variable to the segment, splitting it into objects, and
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a variable of the same name was already declared.
    pub fn declare(
        &mut self,
        name: &'static str,
        annotation: SharingAnnotation,
        elem_size: usize,
        len: usize,
    ) -> VarId {
        assert!(
            !self.by_name.contains_key(name),
            "shared variable `{name}` declared twice"
        );
        let id = VarId(self.vars.len() as u32);
        // Variables are placed at page boundaries so that distinct variables
        // never share a consistency unit unless the programmer groups them.
        let base = self.segment_len.div_ceil(self.page_size) * self.page_size;
        let sizes = split_sizes(elem_size * len, self.page_size);
        let mut objects = Vec::with_capacity(sizes.len());
        let mut var_offset = 0usize;
        for size in &sizes {
            let oid = ObjectId::new(self.objects.len() as u32);
            self.objects.push(ObjectDesc {
                id: oid,
                var: id,
                segment_offset: base + var_offset,
                size: *size,
                var_offset,
            });
            objects.push(oid);
            var_offset += size;
        }
        self.segment_len = base + var_offset;
        self.vars.push(VarDesc {
            id,
            name,
            annotation,
            elem_size,
            len,
            segment_offset: base,
            objects,
        });
        self.by_name.insert(name, id);
        id
    }

    /// Variable descriptor by id.
    pub fn var(&self, id: VarId) -> &VarDesc {
        &self.vars[id.as_usize()]
    }

    /// Variable descriptor by name, if declared.
    pub fn var_by_name(&self, name: &str) -> Option<&VarDesc> {
        self.by_name.get(name).map(|id| self.var(*id))
    }

    /// All declared variables.
    pub fn vars(&self) -> &[VarDesc] {
        &self.vars
    }

    /// Object descriptor by id.
    pub fn object(&self, id: ObjectId) -> &ObjectDesc {
        &self.objects[id.as_usize()]
    }

    /// All objects in the segment.
    pub fn objects(&self) -> &[ObjectDesc] {
        &self.objects
    }

    /// Number of objects in the segment.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Maps a byte offset within a variable to the object containing it and
    /// the offset within that object.
    pub fn locate(&self, var: VarId, byte_offset: usize) -> Option<(ObjectId, usize)> {
        let v = self.var(var);
        let oid = *v.objects.get(byte_offset / self.page_size)?;
        let o = self.object(oid);
        let within = byte_offset - o.var_offset;
        (within < o.size).then_some((oid, within))
    }

    /// The objects of `var` covering the byte range `[start, end)`, in
    /// order: consecutive object ids, found by index arithmetic.
    pub fn objects_in_range(&self, var: VarId, start: usize, end: usize) -> &[ObjectId] {
        let v = self.var(var);
        let Some(tail) = v.objects.last().map(|oid| self.object(*oid)) else {
            return &[];
        };
        let total = tail.var_offset + tail.size;
        if start >= end || start >= total {
            return &[];
        }
        let first = start / self.page_size;
        let last = (end.min(total) - 1) / self.page_size;
        &v.objects[first..=last]
    }

    /// The ids of the objects of `var` that lie wholly inside the byte range
    /// `[start, end)`: consecutive, so a range (empty when there are none).
    pub fn objects_covered(&self, var: VarId, start: usize, end: usize) -> std::ops::Range<u32> {
        let whole = |o: &&ObjectId| {
            let d = self.object(**o);
            start <= d.var_offset && d.var_offset + d.size <= end
        };
        let objects = self.objects_in_range(var, start, end).iter();
        let mut ids = objects.filter(whole).map(|o| o.as_u32());
        let first = ids.next();
        first.map_or(0..0, |f| f..ids.next_back().unwrap_or(f) + 1)
    }

    /// The annotation of the variable an object belongs to.
    pub fn annotation_of(&self, object: ObjectId) -> SharingAnnotation {
        self.var(self.object(object).var).annotation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SharedDataTable {
        SharedDataTable::new(64)
    }

    #[test]
    fn variables_are_page_aligned_and_split() {
        let mut t = table();
        let a = t.declare("a", SharingAnnotation::ReadOnly, 4, 8); // 32 bytes, 1 object
        let b = t.declare("b", SharingAnnotation::WriteShared, 4, 40); // 160 bytes, 3 objects
        assert_eq!(t.var(a).segment_offset, 0);
        assert_eq!(t.var(b).segment_offset, 64);
        assert_eq!(t.var(a).objects.len(), 1);
        assert_eq!(t.var(b).objects.len(), 3);
        assert_eq!(t.object_count(), 4);
        assert_eq!(t.segment_len(), 64 + 160);
    }

    #[test]
    fn locate_maps_offsets_to_objects() {
        let mut t = table();
        let v = t.declare("v", SharingAnnotation::WriteShared, 4, 40); // 160 bytes
        let (o0, off0) = t.locate(v, 0).unwrap();
        let (o1, off1) = t.locate(v, 70).unwrap();
        let (o2, off2) = t.locate(v, 159).unwrap();
        assert_eq!(t.object(o0).var_offset, 0);
        assert_eq!(off0, 0);
        assert_eq!(t.object(o1).var_offset, 64);
        assert_eq!(off1, 6);
        assert_eq!(t.object(o2).var_offset, 128);
        assert_eq!(off2, 31);
        assert!(t.locate(v, 160).is_none());
    }

    #[test]
    fn objects_in_range_selects_overlapping_objects() {
        let mut t = table();
        let v = t.declare("v", SharingAnnotation::WriteShared, 4, 48); // 192 bytes, 3 objects of 64
        let objs = t.objects_in_range(v, 60, 70);
        assert_eq!(objs.len(), 2);
        let objs = t.objects_in_range(v, 0, 192);
        assert_eq!(objs.len(), 3);
        assert!(t.objects_in_range(v, 10, 10).is_empty());
    }

    #[test]
    fn annotation_of_object_follows_variable() {
        let mut t = table();
        let v = t.declare("v", SharingAnnotation::Result, 8, 4);
        let oid = t.var(v).objects[0];
        assert_eq!(t.annotation_of(oid), SharingAnnotation::Result);
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_names_panic() {
        let mut t = table();
        t.declare("dup", SharingAnnotation::ReadOnly, 4, 1);
        t.declare("dup", SharingAnnotation::ReadOnly, 4, 1);
    }

    #[test]
    fn lookup_by_name() {
        let mut t = table();
        t.declare("named", SharingAnnotation::Migratory, 4, 2);
        assert!(t.var_by_name("named").is_some());
        assert!(t.var_by_name("missing").is_none());
    }
}
