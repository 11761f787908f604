//! Sharing annotations and the protocol parameters derived from them.
//!
//! Munin derives the consistency protocol for every shared object from eight
//! low-level protocol parameters (Section 3.1 of the paper). Programmers do
//! not set the parameters directly; they annotate each shared variable
//! declaration with one of a small set of high-level *sharing annotations*
//! (Section 3.2), and the runtime maps the annotation to a parameter setting
//! according to Table 1 of the paper. That mapping is reproduced verbatim by
//! [`ProtocolParams::for_annotation`].

use std::fmt;

/// The high-level sharing annotations supported by the Munin prototype.
///
/// An unannotated shared variable is treated as [`SharingAnnotation::Conventional`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SharingAnnotation {
    /// Initialized once, never written afterwards; replicated on demand.
    ReadOnly,
    /// Accessed by one thread at a time (typically inside a critical
    /// section); the object migrates, with ownership, to each new accessor.
    Migratory,
    /// Concurrently written by multiple threads without synchronization
    /// because the writes touch disjoint words; twins and diffs resolve
    /// false sharing.
    WriteShared,
    /// Written by one thread and read by one or more others, with a stable
    /// sharing relationship; consumers' copies are updated, not invalidated.
    ProducerConsumer,
    /// Accessed only through `Fetch_and_Φ` operations; kept at a fixed owner.
    Reduction,
    /// Written in parallel by many threads, then read exclusively by one;
    /// changes are flushed only to the owner.
    Result,
    /// The default: ownership-based single-writer write-invalidate protocol
    /// (as in Ivy).
    Conventional,
}

impl SharingAnnotation {
    /// All annotations, in the order of Table 1 of the paper.
    pub const ALL: [SharingAnnotation; 7] = [
        SharingAnnotation::ReadOnly,
        SharingAnnotation::Migratory,
        SharingAnnotation::WriteShared,
        SharingAnnotation::ProducerConsumer,
        SharingAnnotation::Reduction,
        SharingAnnotation::Result,
        SharingAnnotation::Conventional,
    ];

    /// The annotation keyword as it appears in a Munin program
    /// (e.g. `shared read_only int input[N][N]`).
    pub fn keyword(self) -> &'static str {
        match self {
            SharingAnnotation::ReadOnly => "read_only",
            SharingAnnotation::Migratory => "migratory",
            SharingAnnotation::WriteShared => "write_shared",
            SharingAnnotation::ProducerConsumer => "producer_consumer",
            SharingAnnotation::Reduction => "reduction",
            SharingAnnotation::Result => "result",
            SharingAnnotation::Conventional => "conventional",
        }
    }
}

impl fmt::Display for SharingAnnotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A protocol parameter whose value Table 1 leaves unspecified ("don't care")
/// for some annotations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Param {
    /// The parameter is set.
    Yes,
    /// The parameter is cleared.
    No,
    /// Table 1 leaves the parameter unspecified for this annotation.
    DontCare,
}

impl Param {
    /// Interprets the parameter as a boolean, resolving "don't care" to the
    /// supplied default.
    pub fn as_bool(self, default: bool) -> bool {
        match self {
            Param::Yes => true,
            Param::No => false,
            Param::DontCare => default,
        }
    }
}

/// The eight protocol parameters of Section 3.1.
///
/// Field names follow the paper's abbreviations:
/// `I` (invalidate), `R` (replicas), `D` (delayed operations),
/// `FO` (fixed owner), `M` (multiple writers), `S` (stable sharing),
/// `Fl` (flush changes to owner), `W` (writable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolParams {
    /// `I`: propagate changes by invalidating (true) or updating (false)
    /// remote copies.
    pub invalidate: Param,
    /// `R`: more than one copy of the object may exist.
    pub replicas: Param,
    /// `D`: updates/invalidations may be delayed until a release.
    pub delayed: Param,
    /// `FO`: ownership never propagates; writes are sent to the owner.
    pub fixed_owner: Param,
    /// `M`: multiple threads may write concurrently (diff-merged).
    pub multiple_writers: Param,
    /// `S`: the sharing pattern is stable; the copyset is determined once.
    pub stable: Param,
    /// `Fl`: changes are flushed only to the owner and the local copy is
    /// invalidated afterwards.
    pub flush_to_owner: Param,
    /// `W`: the object may be written at all.
    pub writable: Param,
}

impl ProtocolParams {
    /// Returns the parameter setting for `annotation`, exactly as listed in
    /// Table 1 of the paper.
    pub fn for_annotation(annotation: SharingAnnotation) -> Self {
        use Param::{DontCare as X, No as N, Yes as Y};
        match annotation {
            // Annotation               I  R  D  FO M  S  Fl W
            SharingAnnotation::ReadOnly => ProtocolParams::from_row([N, Y, X, X, X, X, X, N]),
            SharingAnnotation::Migratory => ProtocolParams::from_row([Y, N, X, N, N, X, N, Y]),
            SharingAnnotation::WriteShared => ProtocolParams::from_row([N, Y, Y, N, Y, N, N, Y]),
            SharingAnnotation::ProducerConsumer => {
                ProtocolParams::from_row([N, Y, Y, N, Y, Y, N, Y])
            }
            SharingAnnotation::Reduction => ProtocolParams::from_row([N, Y, N, Y, N, X, N, Y]),
            SharingAnnotation::Result => ProtocolParams::from_row([N, Y, Y, Y, Y, X, Y, Y]),
            SharingAnnotation::Conventional => ProtocolParams::from_row([Y, Y, N, N, N, X, N, Y]),
        }
    }

    /// Builds a parameter set from a Table 1 row in column order
    /// `[I, R, D, FO, M, S, Fl, W]`.
    pub fn from_row(row: [Param; 8]) -> Self {
        ProtocolParams {
            invalidate: row[0],
            replicas: row[1],
            delayed: row[2],
            fixed_owner: row[3],
            multiple_writers: row[4],
            stable: row[5],
            flush_to_owner: row[6],
            writable: row[7],
        }
    }

    /// The Table 1 row for this parameter set, in column order
    /// `[I, R, D, FO, M, S, Fl, W]`.
    pub fn as_row(&self) -> [Param; 8] {
        [
            self.invalidate,
            self.replicas,
            self.delayed,
            self.fixed_owner,
            self.multiple_writers,
            self.stable,
            self.flush_to_owner,
            self.writable,
        ]
    }

    /// Whether changes are propagated by invalidation (resolving "don't care"
    /// to update-based, the cheaper choice for objects that are never
    /// written).
    pub fn uses_invalidate(&self) -> bool {
        self.invalidate.as_bool(false)
    }

    /// Whether updates may be delayed in the DUQ until a release.
    pub fn allows_delay(&self) -> bool {
        self.delayed.as_bool(false)
    }

    /// Whether ownership is fixed at the home node.
    pub fn has_fixed_owner(&self) -> bool {
        self.fixed_owner.as_bool(false)
    }

    /// Whether multiple concurrent writers are allowed (requiring twins).
    pub fn allows_multiple_writers(&self) -> bool {
        self.multiple_writers.as_bool(false)
    }

    /// Whether the sharing pattern is stable (copyset determined once).
    pub fn is_stable(&self) -> bool {
        self.stable.as_bool(false)
    }

    /// Whether changes are flushed only to the owner (and the local copy is
    /// then invalidated).
    pub fn flushes_to_owner(&self) -> bool {
        self.flush_to_owner.as_bool(false)
    }

    /// Whether the object may be written.
    pub fn is_writable(&self) -> bool {
        self.writable.as_bool(true)
    }
}

/// Renders Table 1 of the paper ("Munin Annotations and Corresponding
/// Protocol Parameters") as text.
pub fn render_table1() -> String {
    fn cell(p: Param) -> &'static str {
        match p {
            Param::Yes => "Y",
            Param::No => "N",
            Param::DontCare => "-",
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>2} {:>2} {:>2} {:>2} {:>2} {:>2} {:>2} {:>2}\n",
        "Annotation", "I", "R", "D", "FO", "M", "S", "Fl", "W"
    ));
    for ann in SharingAnnotation::ALL {
        let row = ProtocolParams::for_annotation(ann).as_row();
        out.push_str(&format!(
            "{:<18} {:>2} {:>2} {:>2} {:>2} {:>2} {:>2} {:>2} {:>2}\n",
            ann.keyword(),
            cell(row[0]),
            cell(row[1]),
            cell(row[2]),
            cell(row[3]),
            cell(row[4]),
            cell(row[5]),
            cell(row[6]),
            cell(row[7]),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ProtocolParams {
        /// Whether the object may be replicated.
        pub(crate) fn allows_replicas(&self) -> bool {
            self.replicas.as_bool(true)
        }
    }

    #[test]
    fn read_only_objects_are_never_writable_and_never_invalidate() {
        let p = ProtocolParams::for_annotation(SharingAnnotation::ReadOnly);
        assert!(!p.is_writable());
        assert!(!p.uses_invalidate());
        assert!(p.allows_replicas());
    }

    #[test]
    fn migratory_objects_invalidate_and_do_not_replicate() {
        let p = ProtocolParams::for_annotation(SharingAnnotation::Migratory);
        assert!(p.uses_invalidate());
        assert!(!p.allows_replicas());
        assert!(!p.allows_multiple_writers());
        assert!(p.is_writable());
    }

    #[test]
    fn write_shared_allows_multiple_delayed_writers_with_updates() {
        let p = ProtocolParams::for_annotation(SharingAnnotation::WriteShared);
        assert!(!p.uses_invalidate());
        assert!(p.allows_delay());
        assert!(p.allows_multiple_writers());
        assert!(!p.is_stable());
    }

    #[test]
    fn producer_consumer_is_write_shared_plus_stability() {
        let ws = ProtocolParams::for_annotation(SharingAnnotation::WriteShared);
        let pc = ProtocolParams::for_annotation(SharingAnnotation::ProducerConsumer);
        assert!(pc.is_stable());
        assert!(!ws.is_stable());
        // Everything else in the two rows matches.
        let ws_row = ws.as_row();
        let pc_row = pc.as_row();
        for (i, (a, b)) in ws_row.iter().zip(pc_row.iter()).enumerate() {
            if i != 5 {
                assert_eq!(a, b, "column {i}");
            }
        }
    }

    #[test]
    fn reduction_has_a_fixed_owner_and_no_delay() {
        let p = ProtocolParams::for_annotation(SharingAnnotation::Reduction);
        assert!(p.has_fixed_owner());
        assert!(!p.allows_delay());
        assert!(!p.allows_multiple_writers());
    }

    #[test]
    fn result_flushes_to_a_fixed_owner_with_multiple_writers() {
        let p = ProtocolParams::for_annotation(SharingAnnotation::Result);
        assert!(p.flushes_to_owner());
        assert!(p.has_fixed_owner());
        assert!(p.allows_multiple_writers());
        assert!(p.allows_delay());
        assert!(!p.uses_invalidate());
    }

    #[test]
    fn conventional_is_single_writer_write_invalidate() {
        let p = ProtocolParams::for_annotation(SharingAnnotation::Conventional);
        assert!(p.uses_invalidate());
        assert!(p.allows_replicas());
        assert!(!p.allows_delay());
        assert!(!p.allows_multiple_writers());
    }

    #[test]
    fn row_round_trips() {
        for ann in SharingAnnotation::ALL {
            let p = ProtocolParams::for_annotation(ann);
            assert_eq!(ProtocolParams::from_row(p.as_row()), p);
        }
    }

    #[test]
    fn table1_lists_all_annotations() {
        let table = render_table1();
        for ann in SharingAnnotation::ALL {
            assert!(table.contains(ann.keyword()), "missing {ann}");
        }
        // Header + 7 rows.
        assert_eq!(table.lines().count(), 8);
    }

    #[test]
    fn keywords_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for ann in SharingAnnotation::ALL {
            assert!(seen.insert(ann.keyword()));
        }
    }
}
