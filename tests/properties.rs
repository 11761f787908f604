//! Property-based tests on the core data structures and invariants:
//! the twin/diff run-length encoding, copysets, object splitting, the
//! distributed lock state machine, the annotation → parameter table, the
//! discrete-event delivery engine (ordering and replay determinism), and the
//! fetch of a run of pages against its one-page-at-a-time reference.

use proptest::prelude::*;

use munin::dsm::annotation::{ProtocolParams, SharingAnnotation};
use munin::dsm::copyset::CopySet;
use munin::dsm::diff;
use munin::dsm::object::split_sizes;
use munin::dsm::segment::SharedDataTable;
use munin::dsm::sync::{BarrierState, BarrierStep, LockState, RemoteAcquireAction, TreeTopology};
use munin::dsm::NodeSet;
use munin::sim::{CostModel, EngineConfig, Network, NodeClock, NodeId, VirtTime};

fn word_buffer(len_words: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u32>(), len_words).prop_map(|words| {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect::<Vec<u8>>()
    })
}

/// A run layout — alternately a gap of unchanged words and a run of changed
/// ones — scaled so that skips and counts need 1-, 2- and 3-byte varints
/// (below 2⁷, 2¹⁴ and 2²¹ words).
fn run_layout() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..6, 1..13).prop_map(|lens| {
        // The first draw picks the scale, the rest are the lengths.
        let scale = [1, 50, 4000][lens[0] % 3];
        lens[1..].iter().map(|l| l * scale).collect()
    })
}

/// A twin of pseudo-random words and a copy of it changed as `layout` says
/// (one more unchanged word closes the buffer).
fn laid_out(layout: &[usize], seed: u64) -> (Vec<u8>, Vec<u8>) {
    let words = layout.iter().sum::<usize>() + 1;
    let mut state = seed;
    let twin: Vec<u8> = (0..words)
        .flat_map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 24) as u32).to_le_bytes()
        })
        .collect();
    let mut current = twin.clone();
    let mut at = 0;
    for (i, len) in layout.iter().enumerate() {
        if i % 2 == 1 {
            for w in at..at + len {
                current[w * 4 + 1] ^= 0x5A;
            }
        }
        at += len;
    }
    (current, twin)
}

/// Bytes of the canonical LEB128 spelling of `v`: the formula, not the
/// encoder's code.
fn varint_len(v: u32) -> usize {
    (32 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// `v` spelled with `pad` redundant zero groups on top of its canonical
/// LEB128 bytes.
fn overlong(v: u32, pad: usize) -> Vec<u8> {
    let mut out: Vec<u8> = (0..varint_len(v))
        .map(|i| (v >> (7 * i)) as u8 | 0x80)
        .collect();
    out.extend(std::iter::repeat_n(0x80, pad));
    *out.last_mut().unwrap() &= 0x7F;
    out
}

fn from_wire(bytes: &[u8]) -> munin::dsm::Result<diff::Diff> {
    diff::Diff::from_wire(std::sync::Arc::from(bytes))
}

/// A layout that mixes what the cluster rule tells apart, at one-byte header
/// scale: long runs (too long to begin or join a cluster), clusters of short
/// runs a few words apart, and lone words far from everything.
fn mixed_layout() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(any::<u32>(), 1..10).prop_map(|draws| {
        let mut layout = Vec::new();
        for d in draws {
            let (kind, a, b) = (d % 3, (d >> 8) as usize, (d >> 20) as usize);
            match kind {
                // gap, long run
                0 => layout.extend([a % 40, 16 + b % 100]),
                // gap, then 1..=8 short runs within reach of each other
                1 => {
                    layout.extend([16 + a % 40, 1 + b % 4]);
                    for k in 0..a % 8 {
                        let count = 1 + (b >> k) % 5;
                        layout.extend([1 + (a >> k) % (15 - count), count]);
                    }
                }
                // a lone word after a long gap
                _ => layout.extend([16 + a % 300, 1]),
            }
        }
        layout
    })
}

/// One span of a diff as the decoder's walker sees it.
#[derive(Debug, PartialEq)]
struct Span {
    /// Index of the span's first word.
    start: usize,
    /// The mask of a masked span; empty for a run.
    mask: Vec<u8>,
    /// The new values of the changed words.
    data: Vec<u8>,
}

impl Span {
    /// Words the span covers: all of a run's, up to the last set bit of a mask.
    fn len(&self) -> usize {
        match self.mask.last() {
            Some(last) => self.mask.len() * 8 - last.leading_zeros() as usize,
            None => self.data.len() / 4,
        }
    }

    /// Indices of the words the span changes.
    fn changed(&self) -> Vec<usize> {
        let covered = self.start..self.start + self.len();
        let set = |w: &usize| self.mask[(w - self.start) / 8] >> ((w - self.start) % 8) & 1 == 1;
        covered.filter(|w| self.mask.is_empty() || set(w)).collect()
    }

    /// Maximal runs of changed words in the span.
    fn runs(&self) -> usize {
        let changed = self.changed();
        changed
            .iter()
            .zip(changed.iter().skip(1))
            .filter(|(a, b)| **b > **a + 1)
            .count()
            + 1
    }

    /// Bytes the span takes on the wire after a span that ended at `last_end`.
    fn wire_len(&self, last_end: usize) -> usize {
        let skip = varint_len((self.start - last_end) as u32);
        let header = match self.mask.len() {
            0 => varint_len(self.len() as u32),
            mask => 1 + varint_len(self.len() as u32) + mask,
        };
        skip + header + self.data.len()
    }
}

fn spans(d: &diff::Diff) -> Vec<Span> {
    let mut out = Vec::new();
    d.for_each_span(|start, mask, data| {
        out.push(Span {
            start,
            mask: mask.to_vec(),
            data: data.to_vec(),
        });
    });
    out
}

/// The run-length spelling of the diff of `current` against `twin` — the
/// whole format before masked spans, and the size no diff may exceed —
/// written from the definition: maximal runs, `skip`, `count`, data. Returns
/// the bytes, the runs and the changed words.
fn rle_oracle(current: &[u8], twin: &[u8]) -> (Vec<u8>, usize, usize) {
    let put = |out: &mut Vec<u8>, v: usize| out.extend(overlong(v as u32, 0));
    let words = current.len() / 4;
    let differs = |w: usize| w < words && current[w * 4..w * 4 + 4] != twin[w * 4..w * 4 + 4];
    let (mut out, mut runs, mut changed, mut last_end) = (Vec::new(), 0, 0, 0);
    put(&mut out, words);
    let mut w = 0;
    while w < words {
        if !differs(w) {
            w += 1;
            continue;
        }
        let start = w;
        while differs(w) {
            w += 1;
        }
        put(&mut out, start - last_end);
        put(&mut out, w - start);
        out.extend_from_slice(&current[start * 4..w * 4]);
        (runs, changed, last_end) = (runs + 1, changed + w - start, w);
    }
    (out, runs, changed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Applying the encoded diff of `current` vs `twin` to a copy of `twin`
    /// reconstructs `current` exactly, for arbitrary contents.
    #[test]
    fn diff_roundtrip(words in 1usize..64, seed in any::<u64>()) {
        let mut twin = vec![0u8; words * 4];
        let mut current = vec![0u8; words * 4];
        let mut state = seed;
        for i in 0..words {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let old = (state >> 16) as u32;
            let changed = state.is_multiple_of(3);
            twin[i * 4..i * 4 + 4].copy_from_slice(&old.to_le_bytes());
            let new = if changed { old.wrapping_add(1) } else { old };
            current[i * 4..i * 4 + 4].copy_from_slice(&new.to_le_bytes());
        }
        let d = diff::encode(&current, &twin);
        let mut target = twin.clone();
        diff::apply(&d, &mut target).unwrap();
        prop_assert_eq!(target, current);
    }

    /// Diffs of writers that touch disjoint words merge cleanly into the
    /// original in either order (the multiple-writers guarantee).
    #[test]
    fn disjoint_diffs_merge_in_any_order(original in word_buffer(96), mask in any::<u32>()) {
        let words = original.len() / 4;
        let mut writer_a = original.clone();
        let mut writer_b = original.clone();
        for w in 0..words {
            // The first 32 words fall as the draw says; the rest alternate
            // pair by pair, so both diffs hold a cluster that goes masked
            // and each writer's words sit in the gaps of the other's mask.
            let bit = if w < 32 { (mask >> w) & 1 == 1 } else { w % 4 < 2 };
            let slot = w * 4;
            if bit {
                writer_a[slot] = writer_a[slot].wrapping_add(1);
            } else {
                writer_b[slot] = writer_b[slot].wrapping_add(1);
            }
        }
        let diff_a = diff::encode(&writer_a, &original);
        let diff_b = diff::encode(&writer_b, &original);
        for d in [&diff_a, &diff_b] {
            prop_assert!(spans(d).iter().any(|s| !s.mask.is_empty()), "a masked span");
        }

        let mut ab = original.clone();
        diff::apply(&diff_a, &mut ab).unwrap();
        diff::apply(&diff_b, &mut ab).unwrap();
        let mut ba = original.clone();
        diff::apply(&diff_b, &mut ba).unwrap();
        diff::apply(&diff_a, &mut ba).unwrap();
        prop_assert_eq!(&ab, &ba);
        // Every word carries exactly one writer's change.
        for w in 0..words {
            let slot = w * 4;
            let expected = original[slot].wrapping_add(1);
            prop_assert_eq!(ab[slot], expected);
        }
    }

    /// No diff is longer than its run-length spelling, one in which no
    /// cluster pays for a mask *is* that spelling byte for byte, and the
    /// counts the cost model charges are the run-length ones whatever the
    /// spelling. The size is the `words` varint plus what each span takes by
    /// the format's definition; spans are maximal and none carries a word the
    /// twin already had.
    #[test]
    fn encoded_size_is_bounded(layout in run_layout(), mixed in mixed_layout(), seed in any::<u64>()) {
        for layout in [layout, mixed] {
            let (current, twin) = laid_out(&layout, seed);
            let d = diff::encode(&current, &twin);
            let words = current.len() / 4;
            prop_assert_eq!(d.words() as usize, words);

            let (rle, rle_runs, rle_changed) = rle_oracle(&current, &twin);
            prop_assert_eq!((d.run_count(), d.changed_words()), (rle_runs, rle_changed));
            prop_assert!(d.encoded_bytes() <= rle.len());
            let spans = spans(&d);
            if spans.iter().all(|s| s.mask.is_empty()) {
                prop_assert_eq!(d.as_wire_bytes(), &rle[..]);
            } else {
                prop_assert!(d.encoded_bytes() < rle.len(), "a mask only where it is shorter");
            }

            let (mut runs, mut changed, mut last_end) = (0, 0, 0);
            let mut size = varint_len(words as u32);
            for span in &spans {
                prop_assert!(span.start > last_end || runs == 0, "spans are maximal");
                prop_assert!(span.mask.is_empty() || span.len() >= 2);
                let at = span.changed();
                prop_assert_eq!((at[0], at[at.len() - 1]), (span.start, span.start + span.len() - 1));
                for (w, word) in at.iter().zip(span.data.chunks_exact(4)) {
                    prop_assert!(word != &twin[w * 4..w * 4 + 4]);
                    prop_assert_eq!(word, &current[w * 4..w * 4 + 4]);
                }
                size += span.wire_len(last_end);
                (runs, changed, last_end) = (runs + span.runs(), changed + at.len(), span.start + span.len());
            }
            prop_assert_eq!((d.run_count(), d.changed_words()), (runs, changed));
            prop_assert_eq!(d.encoded_bytes(), size);
        }
    }

    /// The block-skip encoder is bit-identical to the word-by-word reference
    /// encoder on arbitrary buffer pairs (the differential oracle for the
    /// flat wire format).
    #[test]
    fn block_skip_encoder_matches_reference(current in word_buffer(96), twin in word_buffer(96)) {
        let fast = diff::encode(&current, &twin);
        let reference = diff::encode_reference(&current, &twin);
        prop_assert_eq!(fast.as_wire_bytes(), reference.as_wire_bytes());
    }

    /// The same on fragmented pages and on skips and counts long enough for
    /// 2- and 3-byte headers, where the encoders' varint writers differ.
    #[test]
    fn block_skip_encoder_matches_reference_on_every_header_width(
        layout in run_layout(),
        mixed in mixed_layout(),
        seed in any::<u64>(),
    ) {
        // ... and on long runs, clusters and lone words side by side, where
        // the two apply the cluster rule: one to a list of runs, the other to
        // a bitmap.
        for layout in [layout, mixed] {
            let (current, twin) = laid_out(&layout, seed);
            let fast = diff::encode(&current, &twin);
            let reference = diff::encode_reference(&current, &twin);
            prop_assert_eq!(fast.as_wire_bytes(), reference.as_wire_bytes());
            prop_assert_eq!(
                (fast.run_count(), fast.changed_words()),
                (reference.run_count(), reference.changed_words())
            );
        }
    }

    /// Wire round-trip: re-framing the encoded bytes with `from_wire` and
    /// applying reconstructs `current` exactly.
    #[test]
    fn wire_round_trip_reconstructs(current in word_buffer(48), twin in word_buffer(48)) {
        let d = diff::encode(&current, &twin);
        let wire: std::sync::Arc<[u8]> = std::sync::Arc::from(d.as_wire_bytes());
        let decoded = diff::Diff::from_wire(wire).expect("encoder output is valid framing");
        let mut target = twin.clone();
        diff::apply(&decoded, &mut target).unwrap();
        prop_assert_eq!(target, current);
    }

    /// A prefix of a valid encoding is valid exactly when it ends on a span
    /// boundary, and then it *is* the first k spans — with the counts
    /// `from_wire` computes matching; a cut anywhere inside a span — header,
    /// run data, mask or masked data — is rejected. (Every cut is tried on
    /// small layouts, the cuts around each boundary on large ones.)
    #[test]
    fn from_wire_accepts_a_prefix_only_on_a_run_boundary(
        layout in run_layout(),
        mixed in mixed_layout(),
        seed in any::<u64>(),
    ) {
        for layout in [layout, mixed] {
            let (current, twin) = laid_out(&layout, seed);
            let d = diff::encode(&current, &twin);
            let wire = d.as_wire_bytes();
            let all = spans(&d);
            // Offsets at which k whole spans end, k = 0, 1, ...
            let mut boundaries = vec![varint_len((current.len() / 4) as u32)];
            let mut last_end = 0;
            for span in &all {
                boundaries.push(boundaries.last().unwrap() + span.wire_len(last_end));
                last_end = span.start + span.len();
            }
            prop_assert_eq!(*boundaries.last().unwrap(), wire.len());
            let cuts: Vec<usize> = if wire.len() <= 512 {
                (0..=wire.len()).collect()
            } else {
                boundaries
                    .iter()
                    .flat_map(|b| b.saturating_sub(7)..(b + 8).min(wire.len() + 1))
                    .collect()
            };
            for cut in cuts {
                match (boundaries.binary_search(&cut), from_wire(&wire[..cut])) {
                    (Ok(k), Ok(prefix)) => {
                        prop_assert_eq!(&spans(&prefix)[..], &all[..k]);
                        let runs: usize = all[..k].iter().map(Span::runs).sum();
                        let changed: usize = all[..k].iter().map(|s| s.data.len() / 4).sum();
                        prop_assert_eq!((prefix.run_count(), prefix.changed_words()), (runs, changed));
                    }
                    (Err(_), Err(_)) => {}
                    (boundary, parsed) => prop_assert!(
                        false,
                        "cut {cut} of {}: boundary {boundary:?}, parsed {parsed:?}",
                        wire.len()
                    ),
                }
            }
        }
    }

    /// Whatever bytes arrive, `from_wire` answers `Ok` or a protocol
    /// violation — it does not panic — and what it accepts `apply` installs:
    /// onto a target of the declared length, changing exactly the
    /// `changed_words()` words the spans name and no other. The bytes are a
    /// valid encoding with a few of them redrawn, cut, or extended, so that
    /// most of the walker is reached; and plain noise.
    #[test]
    fn from_wire_never_panics_and_apply_installs_what_it_accepted(
        mixed in mixed_layout(),
        noise in proptest::collection::vec(any::<u8>(), 0..48),
        seed in any::<u64>(),
    ) {
        let (current, twin) = laid_out(&mixed, seed);
        let valid = diff::encode(&current, &twin).as_wire_bytes().to_vec();
        let mut mutated = valid.clone();
        let mut draw = seed;
        for _ in 0..seed % 4 {
            draw = draw.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let at = (draw >> 33) as usize % mutated.len();
            match draw % 3 {
                0 => mutated[at] = (draw >> 16) as u8 % 20,
                1 => mutated.truncate(at.max(1)),
                _ => mutated.extend_from_slice(&noise[..noise.len().min(6)]),
            }
        }
        for bytes in [valid, mutated, noise] {
            let d = match from_wire(&bytes) {
                Ok(d) => d,
                Err(munin::dsm::MuninError::ProtocolViolation(_)) => continue,
                Err(other) => panic!("{bytes:?}: {other:?}"),
            };
            if d.words() > 1 << 16 {
                continue;
            }
            // Every word of the target differs from what the diff would write
            // there, so each write shows and nothing else does.
            let mut expected = vec![0xEEu8; d.words() as usize * 4];
            for span in spans(&d) {
                for (w, word) in span.changed().iter().zip(span.data.chunks_exact(4)) {
                    expected[w * 4..w * 4 + 4].copy_from_slice(word);
                }
            }
            let mut target: Vec<u8> = expected.iter().map(|b| !b).collect();
            let before = target.clone();
            prop_assert_eq!(diff::apply(&d, &mut target), Ok(()));
            let written: Vec<usize> = (0..d.words() as usize)
                .filter(|w| target[w * 4..w * 4 + 4] != before[w * 4..w * 4 + 4])
                .collect();
            prop_assert_eq!(written.len(), d.changed_words());
            for w in 0..d.words() as usize {
                let at = w * 4..w * 4 + 4;
                let from = if written.contains(&w) { &expected } else { &before };
                prop_assert_eq!(&target[at.clone()], &from[at]);
            }
        }
    }

    /// A masked span writes its set-bit words and nothing between them: a
    /// clustered diff applied onto a poisoned target leaves the poison in
    /// every word it does not name (flat-diff invariant 6, on the receiving
    /// side).
    #[test]
    fn a_mask_never_writes_a_gap(mixed in mixed_layout(), seed in any::<u64>()) {
        let (current, twin) = laid_out(&mixed, seed);
        let d = diff::encode(&current, &twin);
        let poison = vec![0xEEu8; current.len()];
        let mut target = poison.clone();
        diff::apply(&d, &mut target).unwrap();
        for w in 0..current.len() / 4 {
            let at = w * 4..w * 4 + 4;
            let from = if current[at.clone()] != twin[at.clone()] { &current } else { &poison };
            prop_assert_eq!(&target[at.clone()], &from[at], "word {}", w);
        }
    }

    /// `from_wire` takes the canonical spelling of a varint and no other: not
    /// one padded with zero groups (within five bytes or beyond), not one
    /// with bits above the 32nd — as the `words` header, and as a run's skip.
    #[test]
    fn from_wire_rejects_every_non_canonical_varint(
        v in any::<u32>(),
        shift in 0usize..32,
        pad in 1usize..4,
        high in 0x10u8..0x80,
    ) {
        // Every magnitude, not only the 5-byte values `any` mostly draws.
        let v = v >> shift;
        let canonical = overlong(v, 0);
        prop_assert_eq!(from_wire(&canonical).map(|d| d.words()), Ok(v));
        prop_assert!(from_wire(&overlong(v, pad)).is_err());
        let mut overflow = overlong(v | 0xF000_0000, 0);
        overflow[4] = high;
        prop_assert!(from_wire(&overflow).is_err());

        // words = u32::MAX, one run: skip = v, count = 1, one data word.
        let run = |skip: &[u8]| [&overlong(u32::MAX, 0), skip, &[1, 9, 9, 9, 9]].concat();
        if v < u32::MAX {
            let ok = from_wire(&run(&canonical)).expect("canonical skip");
            prop_assert_eq!(spans(&ok).first().map(|s| s.start), Some(v as usize));
        }
        prop_assert!(from_wire(&run(&overlong(v, pad))).is_err());
        prop_assert!(from_wire(&run(&overflow)).is_err());
    }

    /// Splitting a variable into page-sized objects covers it exactly (up to
    /// word padding) with no object exceeding the page size.
    #[test]
    fn split_sizes_cover_variable(byte_len in 0usize..100_000, page_exp in 3usize..14) {
        let page = (1usize << page_exp).max(4);
        let sizes = split_sizes(byte_len, page);
        let total: usize = sizes.iter().sum();
        prop_assert!(total >= byte_len);
        prop_assert!(total < byte_len + 4);
        prop_assert!(sizes.iter().all(|s| *s <= page && *s % 4 == 0 && *s > 0));
    }

    /// `objects_in_range` finds its objects by index arithmetic; the
    /// definition is "every object of the variable that overlaps the range".
    /// `objects_covered`'s is "every one that lies wholly inside it".
    #[test]
    fn objects_in_range_matches_the_overlap_filter(
        byte_lens in proptest::collection::vec(0usize..700, 1..4),
        start in 0usize..800,
        len in 0usize..800,
    ) {
        let mut table = SharedDataTable::new(64);
        let names = ["a", "b", "c"];
        let vars: Vec<_> = byte_lens
            .iter()
            .zip(names)
            .map(|(bytes, name)| table.declare(name, SharingAnnotation::WriteShared, 1, *bytes))
            .collect();
        let end = start + len;
        for var in vars {
            let by_filter: Vec<_> = table
                .var(var)
                .objects
                .iter()
                .copied()
                .filter(|oid| {
                    let o = table.object(*oid);
                    start < end && o.var_offset < end && o.var_offset + o.size > start
                })
                .collect();
            prop_assert_eq!(table.objects_in_range(var, start, end), &by_filter[..]);
            // `objects_covered` is the sub-range of those lying wholly inside.
            let whole: Vec<u32> = by_filter
                .iter()
                .filter(|oid| {
                    let o = table.object(**oid);
                    start <= o.var_offset && o.var_offset + o.size <= end
                })
                .map(|oid| oid.as_u32())
                .collect();
            let covered: Vec<u32> = table.objects_covered(var, start, end).collect();
            prop_assert_eq!(covered, whole);
            // `locate` agrees with it, byte by byte.
            if let Some((oid, within)) = table.locate(var, start) {
                prop_assert_eq!(table.objects_in_range(var, start, start + 1), &[oid][..]);
                prop_assert_eq!(table.object(oid).var_offset + within, start);
            } else {
                prop_assert!(table.objects_in_range(var, start, start + 1).is_empty());
            }
        }
    }

    /// Copyset membership behaves like a set over node ids.
    #[test]
    fn copyset_behaves_like_a_set(members in proptest::collection::btree_set(0usize..32, 0..10)) {
        let cs = CopySet::from_nodes(members.iter().map(|n| NodeId::new(*n)));
        for n in 0..32 {
            prop_assert_eq!(cs.contains(NodeId::new(n)), members.contains(&n));
        }
        prop_assert_eq!(cs.len(32), members.len());
        let listed = cs.members(32, None);
        prop_assert_eq!(listed.len(), members.len());
    }

    /// The distributed lock hands ownership to every requester exactly once
    /// and in FIFO order, regardless of when the requests arrive. Queueing
    /// is idempotent: a duplicate acquire (the crash-recovery re-send) must
    /// not queue its sender twice.
    #[test]
    fn lock_queue_is_fifo(requests in proptest::collection::vec(1usize..8, 1..12)) {
        let mut lock = LockState::new(NodeId::new(0), NodeId::new(0));
        prop_assert!(lock.try_local_acquire());
        let mut queued: Vec<NodeId> = Vec::new();
        for r in &requests {
            let node = NodeId::new(*r);
            match lock.handle_remote_acquire(node) {
                RemoteAcquireAction::Queued => {
                    if !queued.contains(&node) {
                        queued.push(node);
                    }
                }
                other => prop_assert!(false, "unexpected action {other:?}"),
            }
        }
        // Release: ownership goes to the first waiter together with the rest
        // of the queue, preserving order.
        if let Some((next, rest)) = lock.release() {
            prop_assert_eq!(next, queued[0]);
            prop_assert_eq!(rest, queued[1..].to_vec());
        } else {
            prop_assert!(queued.is_empty());
        }
    }

    /// The event engine pops what is queued in key order: when every send
    /// is submitted before the first receive, each destination is delivered
    /// in nondecreasing virtual time with a stable seeded tie-break, for
    /// arbitrary send timestamps and seeds. (A message submitted *after* a
    /// later one was popped keeps its own earlier arrival — the engine's
    /// `late_deliveries`, covered in `munin-sim`.)
    #[test]
    fn engine_delivers_per_destination_in_nondecreasing_virtual_time(
        sends in proptest::collection::vec(any::<u64>(), 1..80),
        seed in any::<u64>(),
    ) {
        let deliveries = engine_run(&sends, seed);
        let mut last_per_dst = [0u64; ENGINE_NODES];
        for (dst, _src, _payload, arrival_ns) in &deliveries {
            prop_assert!(
                *arrival_ns >= last_per_dst[*dst],
                "destination {dst} delivered {arrival_ns}ns after {}ns",
                last_per_dst[*dst]
            );
            last_per_dst[*dst] = *arrival_ns;
        }
        prop_assert_eq!(deliveries.len(), sends.len());
    }

    /// Replaying the same sends with the same seed yields the identical
    /// delivery order (same sources, payloads, and delivery times); ties in
    /// `deliver_at` are broken identically on every replay.
    #[test]
    fn engine_replay_with_same_seed_is_identical(
        sends in proptest::collection::vec(any::<u64>(), 1..80),
        seed in any::<u64>(),
    ) {
        prop_assert_eq!(engine_run(&sends, seed), engine_run(&sends, seed));
    }

    /// The sharded engine delivers exactly what the pre-shard single-lock
    /// engine delivered: for arbitrary schedules and seeds, the per-
    /// destination sequences match an independent, single-threaded reference
    /// implementation of the documented delivery semantics (lane FIFO clamp,
    /// seeded tie-break, submission seqno) — the semantics the pre-shard
    /// engine's global lock serialized. Sharding is
    /// a lock-domain refactor, not a semantics change.
    #[test]
    fn sharded_engine_matches_single_lock_reference_model(
        sends in proptest::collection::vec(any::<u64>(), 1..80),
        seed in any::<u64>(),
    ) {
        prop_assert_eq!(engine_run(&sends, seed), reference_run(&sends, seed));
    }

    /// A barrier opens exactly when every node has arrived — at the latest
    /// of their arrival times, whatever order they were processed in and
    /// whatever the tree's fan-in — and is reusable afterwards.
    #[test]
    fn barrier_opens_at_parties(
        parties in 1usize..16,
        fanout in 1usize..16,
        episodes in 1usize..4,
        times in proptest::collection::vec(0u64..1_000, 48),
    ) {
        let node = NodeId::new;
        let topo = TreeTopology::new(node(0), parties, fanout);
        let mut states = vec![BarrierState::new(node(0)); parties];
        for episode in 0..episodes {
            let at = |i: usize| VirtTime::from_nanos(times[episode * 16 + i]);
            let mut opened = None;
            for i in 0..parties {
                prop_assert!(opened.is_none(), "opened before node {} arrived", i);
                states[i].arrived.insert(node(i));
                // A node whose subtree is complete reports to its parent,
                // which may be complete in turn.
                let mut me = node(i);
                let mut step = states[i].advance(me, &topo, &NodeSet::EMPTY, at(i));
                while let BarrierStep::Report { gen, arrived, at } = step {
                    let from = me;
                    me = topo.parent_of(from).unwrap();
                    let parent = &mut states[me.as_usize()];
                    prop_assert!(parent.merge_report(from, gen, &arrived));
                    step = parent.advance(me, &topo, &NodeSet::EMPTY, at);
                }
                if let BarrierStep::Open { gen, children, at } = step {
                    opened = Some((gen, at, children));
                }
            }
            let (gen, opened_at, mut edges) = opened.expect("everyone arrived");
            prop_assert_eq!(gen, (episode + 1) as u64);
            prop_assert_eq!(Some(opened_at), (0..parties).map(at).max());
            // The release reaches every other node, once.
            let mut released = 0;
            while let Some((child, _)) = edges.pop() {
                edges.extend(states[child.as_usize()].release(child, gen).expect("first release"));
                released += 1;
            }
            prop_assert_eq!(released, parties - 1);
        }
    }
}

const ENGINE_NODES: usize = 3;

/// Feeds the event engine a sequence of sends decoded from raw words
/// (source, destination, explicit virtual send time, modelled size) and
/// drains every destination, returning the observed delivery sequence as
/// `(dst, src, payload, arrival_ns)` tuples ordered per destination.
fn engine_run(sends: &[u64], seed: u64) -> Vec<(usize, usize, u64, u64)> {
    // A zero cost model makes arrival == send time, maximizing timestamp
    // collisions so the seeded tie-break is actually exercised.
    let mut net: Network<u64> =
        Network::with_engine(ENGINE_NODES, CostModel::zero(), EngineConfig::seeded(seed));
    let mut txs = Vec::new();
    let mut rxs = Vec::new();
    for i in 0..ENGINE_NODES {
        let (tx, rx) = net.endpoint(i, NodeClock::new()).unwrap();
        txs.push(tx);
        rxs.push(rx);
    }
    for (k, word) in sends.iter().enumerate() {
        let src = (*word % ENGINE_NODES as u64) as usize;
        let dst = ((*word >> 2) % ENGINE_NODES as u64) as usize;
        // Coarse timestamps (multiples of 100ns over a small range) force
        // frequent exact ties between unrelated sends.
        let at = VirtTime::from_nanos(((*word >> 8) % 32) * 100);
        let bytes = (*word >> 16) % 512;
        txs[src]
            .send_at(NodeId::new(dst), "prop", bytes, k as u64, at)
            .unwrap();
    }
    let mut out = Vec::new();
    for (dst, rx) in rxs.iter().enumerate() {
        while let Some((env, payload)) = rx.try_recv().unwrap() {
            out.push((dst, env.src.as_usize(), payload, env.arrival.as_nanos()));
        }
    }
    out
}

/// Independent single-threaded reference model of the engine's delivery
/// semantics, as specified in `DESIGN.md` ("Deterministic event engine") and
/// implemented by the pre-shard single-lock engine: per-lane FIFO clamping in
/// submission order, a SplitMix64 tie-break over `(seed, src, dst,
/// deliver_at)`, global submission sequence numbers as the final key
/// component, and delivery at the scheduled arrival. The constants mirror
/// the spec on purpose — this is the oracle the sharded engine is compared
/// against.
mod reference_model {
    /// SplitMix64 step (the engine's only randomness primitive).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `(deliver_at_ns, tie, seq, src, payload)` — the delivery sort key
    /// plus the message identity.
    type RefScheduled = (u64, u64, u64, usize, u64);

    pub struct RefEngine {
        seed: u64,
        lanes: std::collections::HashMap<(u32, u32), u64>,
        queues: Vec<Vec<RefScheduled>>,
        next_seq: u64,
    }

    impl RefEngine {
        pub fn new(nodes: usize, seed: u64) -> Self {
            RefEngine {
                seed,
                lanes: std::collections::HashMap::new(),
                queues: vec![Vec::new(); nodes],
                next_seq: 0,
            }
        }

        /// Schedules one faultless submission (mirrors `EventEngine::submit`
        /// in `DeliveryMode::VirtualTime` with `FaultPlan::none()`).
        pub fn submit(&mut self, src: usize, dst: usize, arrival_ns: u64, payload: u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            let last = self.lanes.entry((src as u32, dst as u32)).or_insert(0);
            let arrival_ns = arrival_ns.max(*last);
            *last = arrival_ns;
            let tie = {
                let mut s = self.seed
                    ^ arrival_ns.rotate_left(17)
                    ^ ((src as u64) << 40)
                    ^ ((dst as u64) << 20);
                splitmix64(&mut s)
            };
            self.queues[dst].push((arrival_ns, tie, seq, src, payload));
        }

        /// Drains every destination in `(deliver_at, tie, seq)` order,
        /// returning `(dst, src, payload, arrival_ns)` tuples ordered per
        /// destination.
        pub fn drain(mut self) -> Vec<(usize, usize, u64, u64)> {
            let mut out = Vec::new();
            for (dst, mut q) in self.queues.drain(..).enumerate() {
                q.sort();
                for (arrival, _tie, _seq, src, payload) in q {
                    out.push((dst, src, payload, arrival));
                }
            }
            out
        }
    }
}

/// Runs the same decoded schedule as [`engine_run`] through the reference
/// model.
fn reference_run(sends: &[u64], seed: u64) -> Vec<(usize, usize, u64, u64)> {
    let mut reference = reference_model::RefEngine::new(ENGINE_NODES, seed);
    for (k, word) in sends.iter().enumerate() {
        let src = (*word % ENGINE_NODES as u64) as usize;
        let dst = ((*word >> 2) % ENGINE_NODES as u64) as usize;
        let at = ((*word >> 8) % 32) * 100;
        // CostModel::zero() makes arrival == send time, so `bytes` plays no
        // role in the reference; only the timestamp matters.
        reference.submit(src, dst, at, k as u64);
    }
    reference.drain()
}

/// Words per page in [`paged_access`].
const PAGE_WORDS: usize = 16;

/// What [`paged_access`] saw: the accessor's two reads of the range, each
/// node's view of the whole variable at the end, and the message counts that
/// follow the owners' copysets.
#[derive(Debug, PartialEq)]
struct PagedOutcome {
    first_read: Vec<i32>,
    second_read: Vec<i32>,
    final_views: Vec<Vec<i32>>,
    invalidations: u64,
    objects_fetched: u64,
}

/// A 3-node program over one `pages`-page variable. The root's `user_init`
/// writes the pages `init` marks (`50 + page` in every word) and leaves the
/// rest untouched: never materialised anywhere, so their first copy travels
/// as a description, not as bytes. Each page is then written by the node
/// `holders` names for it — the first *half* of it, so that what the page
/// held before (the initial values, or the zeros of a first touch) stays in
/// sight in the other half; for an untouched page that write is the first
/// touch, which moves ownership. Node 2 then accesses the word range
/// `[lo, hi)` — reading it for a `conventional` variable, overwriting it for
/// a `write_shared` one — either as one slice (the pages travel as runs) or
/// page by page (`page_at_a_time`: every access is inside one page, so every
/// fetch is a run of 1 — the reference). The holders then write their half
/// pages again and node 2 reads the range once more: a copy the owner had
/// not recorded would miss that invalidation (or update) and read stale. The
/// count of `invalidate` messages is the sum of the owners' copyset sizes.
fn paged_access(
    annotation: SharingAnnotation,
    holders: &[usize],
    init: &[bool],
    (lo, hi): (usize, usize),
    page_at_a_time: bool,
) -> PagedOutcome {
    const NODES: usize = 3;
    const ACCESSOR: usize = 2;
    let cfg = munin::MuninConfig::fast_test(NODES)
        .with_page_size(PAGE_WORDS * 4)
        .with_engine(EngineConfig::seeded(7))
        .with_piggyback(true)
        .with_reliability(false);
    let per_page = PAGE_WORDS;
    let words = holders.len() * per_page;
    let mut prog = munin::MuninProgram::new(cfg);
    let var = prog.declare::<i32>("paged", words, annotation);
    let sync = prog.create_barrier("sync");
    let holders = holders.to_vec();
    let writes = annotation == SharingAnnotation::WriteShared;
    let written: Vec<usize> = (0..holders.len()).filter(|page| init[*page]).collect();
    prog.user_init(move |ctx| {
        for page in &written {
            ctx.write_slice(&var, page * per_page, &vec![50 + *page as i32; per_page])
                .unwrap();
        }
    });
    let report = prog
        .run(move |ctx| {
            let me = ctx.node_id();
            let page_of = |value: i32| -> Vec<i32> { vec![value; per_page / 2] };
            // Round 1: first touch. Round 3: the holders write again.
            let hold = |round: i32| -> munin::dsm::Result<()> {
                for (page, holder) in holders.iter().enumerate() {
                    if *holder == me {
                        ctx.write_slice(
                            &var,
                            page * per_page,
                            &page_of(round * 100 + page as i32),
                        )?;
                    }
                }
                Ok(())
            };
            // The accessor's pieces: the whole range, or one piece per page.
            let pieces: Vec<(usize, usize)> = if page_at_a_time {
                (lo / per_page..=(hi - 1) / per_page)
                    .map(|page| (lo.max(page * per_page), hi.min((page + 1) * per_page)))
                    .collect()
            } else {
                vec![(lo, hi)]
            };
            let read_range = || -> munin::dsm::Result<Vec<i32>> {
                let mut out = Vec::new();
                for (from, to) in &pieces {
                    out.extend(ctx.read_slice(&var, *from, to - from)?);
                }
                Ok(out)
            };
            hold(1)?;
            ctx.wait_at_barrier(sync)?;
            let mut first_read = Vec::new();
            if me == ACCESSOR {
                if writes {
                    for (from, to) in &pieces {
                        ctx.write_slice(&var, *from, &vec![-1; to - from])?;
                    }
                }
                first_read = read_range()?;
            }
            ctx.wait_at_barrier(sync)?;
            hold(3)?;
            ctx.wait_at_barrier(sync)?;
            let second_read = if me == ACCESSOR {
                read_range()?
            } else {
                Vec::new()
            };
            ctx.wait_at_barrier(sync)?;
            let view = ctx.read_slice(&var, 0, words)?;
            Ok((first_read, second_read, view))
        })
        .expect("paged program");
    assert_eq!(report.first_error(), None);
    let mut results: Vec<_> = report
        .results
        .iter()
        .map(|r| r.as_ref().expect("worker result").clone())
        .collect();
    let (first_read, second_read, _) = results.swap_remove(ACCESSOR);
    PagedOutcome {
        first_read,
        second_read,
        final_views: report
            .results
            .iter()
            .map(|r| r.as_ref().expect("worker result").2.clone())
            .collect(),
        invalidations: report.net.class("invalidate").msgs,
        objects_fetched: report.stats_total().objects_fetched,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fetching an access's pages as runs changes how many messages carry
    /// them and nothing else: for any page count, any assignment of pages to
    /// owners, any set of pages the program initialised (the others travel
    /// zero-filled on their first touch) and any sub-range, the bytes read,
    /// every node's final view and the owners' copysets (as the
    /// invalidations they send) are those of the one-page-at-a-time
    /// reference — and both are the values the program wrote: a served copy
    /// that dropped a materialised page's bytes would read as zeros here.
    #[test]
    fn run_fetch_matches_the_page_at_a_time_reference(
        holders in proptest::collection::vec(0usize..3, 1..9),
        init in proptest::collection::vec(any::<bool>(), 8..9),
        lo_draw in 0usize..1000,
        len_draw in 0usize..1000,
        write_shared in any::<bool>(),
    ) {
        let annotation = if write_shared {
            SharingAnnotation::WriteShared
        } else {
            SharingAnnotation::Conventional
        };
        let words = holders.len() * PAGE_WORDS;
        let lo = lo_draw % words;
        let hi = lo + 1 + len_draw % (words - lo);
        let runs = paged_access(annotation, &holders, &init, (lo, hi), false);
        let reference = paged_access(annotation, &holders, &init, (lo, hi), true);
        prop_assert_eq!(&runs, &reference);
        // And both are right. A word of a page's first half holds its
        // holder's latest write; one of the second half what the accessor
        // wrote there, or else what the page started out as.
        let view_after = |round: i32, accessed: bool| -> Vec<i32> {
            (0..words)
                .map(|w| match (w / PAGE_WORDS, w % PAGE_WORDS) {
                    (page, word) if word < PAGE_WORDS / 2 => round * 100 + page as i32,
                    _ if accessed && write_shared && (lo..hi).contains(&w) => -1,
                    (page, _) if init[page] => 50 + page as i32,
                    _ => 0,
                })
                .collect()
        };
        let expected_first = if write_shared {
            vec![-1; hi - lo]
        } else {
            view_after(1, false)[lo..hi].to_vec()
        };
        prop_assert_eq!(&runs.first_read, &expected_first);
        let expected = view_after(3, true);
        for view in &runs.final_views {
            prop_assert_eq!(view, &expected);
        }
        prop_assert_eq!(&runs.second_read[..], &expected[lo..hi]);
    }
}

#[test]
fn every_annotation_has_consistent_parameters() {
    for ann in SharingAnnotation::ALL {
        let p = ProtocolParams::for_annotation(ann);
        // Only read-only data is non-writable.
        assert_eq!(!p.is_writable(), ann == SharingAnnotation::ReadOnly);
        // Delayed operations imply an update-based protocol in the prototype
        // (the invalidation-based delayed variant was considered but not
        // implemented — Section 3.2).
        if p.allows_delay() {
            assert!(!p.uses_invalidate(), "{ann}: delayed protocols use updates");
        }
        // Multiple writers require updates to be mergeable, i.e. twins.
        if p.allows_multiple_writers() {
            assert!(p.allows_replicas(), "{ann}: multiple writers need replicas");
        }
        // Flush-to-owner only makes sense with a fixed owner.
        if p.flushes_to_owner() {
            assert!(p.has_fixed_owner(), "{ann}: Fl requires FO");
        }
    }
}
