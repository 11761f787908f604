//! Property-based tests on the core data structures and invariants:
//! the twin/diff run-length encoding, copysets, object splitting, the
//! distributed lock state machine, the annotation → parameter table, the
//! discrete-event delivery engine (ordering and replay determinism), and the
//! fetch of a run of pages against its one-page-at-a-time reference.

use std::collections::BTreeSet;
use std::ops::Range;

use munin::dsm::annotation::{ProtocolParams, SharingAnnotation};
use munin::dsm::diff;
use munin::dsm::object::split_sizes;
use munin::dsm::segment::SharedDataTable;
use munin::dsm::sync::{BarrierState, BarrierStep, LockState, RemoteAcquireAction, TreeTopology};
use munin::dsm::NodeSet;
use munin::sim::{CostModel, EngineConfig, Network, NodeClock, NodeId, VirtTime};

/// The inputs of the properties below: a splitmix64 stream seeded by FNV-1a
/// of the property's path (`properties::<name>`), so every run draws the same
/// cases and a failure reproduces by name. Nothing shrinks; the assert
/// messages carry the values.
#[derive(Clone)]
struct Gen(u64);

impl Gen {
    fn new(name: &str) -> Self {
        let path = format!("{}::{name}", module_path!());
        Gen(path.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        }))
    }

    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A value in the non-empty `range`.
    fn range(&mut self, range: Range<usize>) -> usize {
        range.start + (self.u64() % range.len() as u64) as usize
    }

    /// A length in `len`, drawn only when `len` holds more than one.
    fn len(&mut self, len: Range<usize>) -> usize {
        if len.len() > 1 {
            self.range(len)
        } else {
            len.start
        }
    }

    fn vec<T>(&mut self, len: Range<usize>, mut draw: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.len(len)).map(|_| draw(self)).collect()
    }

    /// A set of up to `len` values from `values`: it stops at its drawn size
    /// or after 20 draws an element and 20 more, whichever comes first.
    fn set(&mut self, len: Range<usize>, values: Range<usize>) -> BTreeSet<usize> {
        let target = self.len(len);
        let mut set = BTreeSet::new();
        for _ in 0..target * 20 + 20 {
            if set.len() == target {
                break;
            }
            set.insert(self.range(values.clone()));
        }
        set
    }
}

/// One name gives one stream and another name another; ranges stay in
/// bounds; a vector of one length draws no length, a ranged one stays in
/// its range, and a set stays under its size bound.
#[test]
fn the_generator_is_reproducible_and_in_bounds() {
    let first = |name| Gen::new(name).u64();
    assert_eq!(first("x"), first("x"));
    assert_ne!(first("x"), first("y"));
    let g = &mut Gen::new("the_generator_is_reproducible_and_in_bounds");
    for _ in 0..32 {
        assert!((3..14).contains(&g.range(3..14)));
        let mut copy = g.clone();
        let fixed = g.vec(7..8, Gen::u32);
        assert_eq!(fixed, (0..7).map(|_| copy.u32()).collect::<Vec<_>>());
        let ranged = g.vec(1..4, |g| g.range(0..5));
        assert!((1..4).contains(&ranged.len()) && ranged.iter().all(|e| *e < 5));
        let set = g.set(0..10, 0..32);
        assert!(set.len() < 10 && set.iter().all(|e| *e < 32));
    }
}

/// `len_words` words of four bytes each.
fn word_buffer(g: &mut Gen, len_words: usize) -> Vec<u8> {
    (0..len_words).flat_map(|_| g.u32().to_le_bytes()).collect()
}

/// A run layout — alternately a gap of unchanged words and a run of changed
/// ones — scaled so that skips and counts need 1-, 2- and 3-byte varints
/// (below 2⁷, 2¹⁴ and 2²¹ words).
fn run_layout(g: &mut Gen) -> Vec<usize> {
    let lens = g.vec(1..13, |g| g.range(0..6));
    // The first draw picks the scale, the rest are the lengths.
    let scale = [1, 50, 4000][lens[0] % 3];
    lens[1..].iter().map(|l| l * scale).collect()
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
/// runs a few words apart, clusters that repeat a short pattern of runs (a
/// mask with a period), and lone words far from everything.
fn mixed_layout(g: &mut Gen) -> Vec<usize> {
    let draws = g.vec(1..10, Gen::u32);
    let mut layout = Vec::new();
    for d in draws {
        let (kind, a, b) = (d % 4, (d >> 8) as usize, (d >> 20) as usize);
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
            // gap, then 1..=3 (run, gap) pairs repeated 8..=40 times
            2 => {
                layout.push(16 + a % 40);
                let unit: Vec<usize> = (0..1 + b % 3)
                    .flat_map(|k| [1 + (b >> (2 * k + 2)) % 3, 1 + (a >> (3 * k)) % 6])
                    .collect();
                for _ in 0..8 + (a >> 10) % 33 {
                    layout.extend(&unit);
                }
                // The next kind's gap follows the last run.
                layout.pop();
            }
            // a lone word after a long gap
            _ => layout.extend([16 + a % 300, 1]),
        }
    }
    layout
}

/// One span of a diff as the decoder's walker sees it.
#[derive(Debug, PartialEq)]
struct Span {
    /// Index of the span's first word.
    start: usize,
    /// The mask of a masked span — one period of it, for a periodic one;
    /// empty for a run.
    mask: Vec<u8>,
    /// The words after which the mask repeats: the span's length, for a run
    /// and for a mask that does not repeat.
    period: usize,
    /// The new values of the changed words.
    data: Vec<u8>,
}

impl Span {
    /// Indices of the words the span changes: all a run covers; for a mask,
    /// word `start + k·period + j` for each set bit `j`, as many as there are
    /// values.
    fn changed(&self) -> Vec<usize> {
        let values = self.data.len() / 4;
        if self.mask.is_empty() {
            return (self.start..self.start + values).collect();
        }
        let set: Vec<usize> = (0..self.period)
            .filter(|j| self.mask[j / 8] >> (j % 8) & 1 == 1)
            .collect();
        let at = |k: usize| set.iter().map(move |j| self.start + k * self.period + j);
        (0..).flat_map(at).take(values).collect()
    }

    /// Words the span covers: up to its last changed word.
    fn len(&self) -> usize {
        self.changed()
            .last()
            .map_or(0, |last| last + 1 - self.start)
    }

    /// Whether the span states its mask by a period shorter than itself.
    fn periodic(&self) -> bool {
        !self.mask.is_empty() && self.period < self.len()
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

    /// Bytes the span takes on the wire after a span that ended at `last_end`:
    /// `count`; `0, len` and the mask; or `0, 0, p, len` and one period.
    fn wire_len(&self, last_end: usize) -> usize {
        let skip = varint_len((self.start - last_end) as u32);
        let len = varint_len(self.len() as u32);
        let header = match (self.mask.len(), self.periodic()) {
            (0, _) => len,
            (mask, false) => 1 + len + mask,
            (mask, true) => 2 + varint_len(self.period as u32) + len + mask,
        };
        skip + header + self.data.len()
    }
}

fn spans(d: &diff::Diff) -> Vec<Span> {
    let mut out = Vec::new();
    d.for_each_span(|start, mask, period, data| {
        out.push(Span {
            start,
            mask: mask.to_vec(),
            period,
            data: data.to_vec(),
        });
    });
    out
}

/// The reference encoder: the format written from its definition, word by
/// word, with no block skipping, no bitmap and no single-byte shortcut. It
/// lists the maximal runs and groups them into clusters — a run of at most
/// `CLUSTER_REACH` words and every next run that ends within that many words
/// of the one before — and spells each cluster the shortest way: as runs; as
/// one masked span where that is strictly shorter; and then, if `periodic`,
/// by the smallest period `p ≥ 2` its mask repeats where that is strictly
/// shorter still. Returns the bytes, the runs and the changed words. With
/// `periodic` false it writes the format as it was before periodic spans.
fn reference(current: &[u8], twin: &[u8], periodic: bool) -> (Vec<u8>, usize, usize) {
    let put = |out: &mut Vec<u8>, v: usize| out.extend(overlong(v as u32, 0));
    let words = current.len() / 4;
    let word = |w: usize| &current[w * 4..w * 4 + 4];
    let differs: Vec<bool> = (0..words)
        .map(|w| word(w) != &twin[w * 4..w * 4 + 4])
        .collect();
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for w in (0..words).filter(|w| differs[*w]) {
        match runs.last_mut() {
            Some((_, end)) if *end == w => *end += 1,
            _ => runs.push((w, w + 1)),
        }
    }
    let mut out = Vec::new();
    put(&mut out, words);
    let (mut last_end, mut rest) = (0, &runs[..]);
    while let Some(&(start, first_end)) = rest.first() {
        let mut n = 1;
        if first_end - start <= diff::CLUSTER_REACH {
            while n < rest.len() && rest[n].1 - rest[n - 1].1 <= diff::CLUSTER_REACH {
                n += 1;
            }
        }
        let (cluster, end) = (&rest[..n], rest[n - 1].1);
        let (mask, len) = (&differs[start..end], end - start);
        let mut before = last_end;
        let as_runs: usize = cluster
            .iter()
            .map(|&(s, e)| {
                let header = varint_len((s - before) as u32) + varint_len((e - s) as u32);
                before = e;
                header
            })
            .sum();
        let skip = varint_len((start - last_end) as u32);
        let as_mask = skip + 1 + varint_len(len as u32) + len.div_ceil(8);
        let as_period =
            |p: usize| skip + 2 + varint_len(p as u32) + varint_len(len as u32) + p.div_ceil(8);
        let period = (2..len)
            .find(|&p| (p..len).all(|i| mask[i] == mask[i - p]))
            .filter(|&p| periodic && as_period(p) < as_mask);
        if as_mask < as_runs {
            put(&mut out, start - last_end);
            put(&mut out, 0);
            if let Some(p) = period {
                put(&mut out, 0);
                put(&mut out, p);
            }
            put(&mut out, len);
            let bits = period.unwrap_or(len);
            for byte in 0..bits.div_ceil(8) {
                let set = (0..8).filter(|b| byte * 8 + b < bits && mask[byte * 8 + b]);
                out.push(set.fold(0, |m, b| m | 1 << b));
            }
            for w in (start..end).filter(|w| differs[*w]) {
                out.extend_from_slice(word(w));
            }
        } else {
            for &(s, e) in cluster {
                put(&mut out, s - last_end);
                put(&mut out, e - s);
                out.extend_from_slice(&current[s * 4..e * 4]);
                last_end = e;
            }
        }
        (last_end, rest) = (end, &rest[n..]);
    }
    (out, runs.len(), differs.iter().filter(|d| **d).count())
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

/// Applying the encoded diff of `current` vs `twin` to a copy of `twin`
/// reconstructs `current` exactly, for arbitrary contents.
#[test]
fn diff_roundtrip() {
    let g = &mut Gen::new("diff_roundtrip");
    for _ in 0..64 {
        let (words, seed) = (g.range(1..64), g.u64());
        let mut twin = vec![0u8; words * 4];
        let mut current = vec![0u8; words * 4];
        let mut state = seed;
        for i in 0..words {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let old = (state >> 16) as u32;
            let changed = state.is_multiple_of(3);
            twin[i * 4..i * 4 + 4].copy_from_slice(&old.to_le_bytes());
            let new = if changed { old.wrapping_add(1) } else { old };
            current[i * 4..i * 4 + 4].copy_from_slice(&new.to_le_bytes());
        }
        let d = diff::encode(&current, &twin);
        let mut target = twin.clone();
        diff::apply(&d, &mut target).unwrap();
        assert_eq!(target, current);
    }
}

/// Diffs of writers that touch disjoint words merge cleanly into the
/// original in either order (the multiple-writers guarantee).
#[test]
fn disjoint_diffs_merge_in_any_order() {
    let g = &mut Gen::new("disjoint_diffs_merge_in_any_order");
    for _ in 0..64 {
        let (original, mask) = (word_buffer(g, 96), g.u32());
        let words = original.len() / 4;
        let mut writer_a = original.clone();
        let mut writer_b = original.clone();
        for w in 0..words {
            // The first 32 words fall as the draw says; the rest alternate
            // pair by pair, so both diffs hold a cluster that goes masked
            // and each writer's words sit in the gaps of the other's mask.
            let bit = if w < 32 {
                (mask >> w) & 1 == 1
            } else {
                w % 4 < 2
            };
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
            assert!(spans(d).iter().any(|s| !s.mask.is_empty()), "a masked span");
        }

        let mut ab = original.clone();
        diff::apply(&diff_a, &mut ab).unwrap();
        diff::apply(&diff_b, &mut ab).unwrap();
        let mut ba = original.clone();
        diff::apply(&diff_b, &mut ba).unwrap();
        diff::apply(&diff_a, &mut ba).unwrap();
        assert_eq!(&ab, &ba);
        // Every word carries exactly one writer's change.
        for w in 0..words {
            let slot = w * 4;
            let expected = original[slot].wrapping_add(1);
            assert_eq!(ab[slot], expected);
        }
    }
}

/// No diff is longer than its run-length spelling, one in which no
/// cluster pays for a mask *is* that spelling byte for byte, and the
/// counts the cost model charges are the run-length ones whatever the
/// spelling. The size is the `words` varint plus what each span takes by
/// the format's definition; spans are maximal and none carries a word the
/// twin already had.
#[test]
fn encoded_size_is_bounded() {
    let g = &mut Gen::new("encoded_size_is_bounded");
    for _ in 0..64 {
        let (layout, mixed, seed) = (run_layout(g), mixed_layout(g), g.u64());
        for layout in [layout, mixed] {
            let (current, twin) = laid_out(&layout, seed);
            let d = diff::encode(&current, &twin);
            let words = current.len() / 4;
            assert_eq!(d.words() as usize, words);

            let (rle, rle_runs, rle_changed) = rle_oracle(&current, &twin);
            assert_eq!((d.run_count(), d.changed_words()), (rle_runs, rle_changed));
            assert!(d.encoded_bytes() <= rle.len());
            let spans = spans(&d);
            if spans.iter().all(|s| s.mask.is_empty()) {
                assert_eq!(d.as_wire_bytes(), &rle[..]);
            } else {
                assert!(
                    d.encoded_bytes() < rle.len(),
                    "a mask only where it is shorter"
                );
            }
            // A diff with no periodic span is the bytes the format without
            // them wrote.
            if !spans.iter().any(Span::periodic) {
                assert_eq!(d.as_wire_bytes(), &reference(&current, &twin, false).0[..]);
            }

            let (mut runs, mut changed, mut last_end) = (0, 0, 0);
            let mut size = varint_len(words as u32);
            for span in &spans {
                assert!(span.start > last_end || runs == 0, "spans are maximal");
                assert!(span.mask.is_empty() || span.len() >= 2);
                let at = span.changed();
                assert_eq!(
                    (at[0], at[at.len() - 1]),
                    (span.start, span.start + span.len() - 1)
                );
                for (w, word) in at.iter().zip(span.data.chunks_exact(4)) {
                    assert!(word != &twin[w * 4..w * 4 + 4]);
                    assert_eq!(word, &current[w * 4..w * 4 + 4]);
                }
                size += span.wire_len(last_end);
                (runs, changed, last_end) = (
                    runs + span.runs(),
                    changed + at.len(),
                    span.start + span.len(),
                );
            }
            assert_eq!((d.run_count(), d.changed_words()), (runs, changed));
            assert_eq!(d.encoded_bytes(), size);
        }
    }
}

/// The block-skip encoder is bit-identical to the word-by-word reference
/// encoder on arbitrary buffer pairs (the differential oracle for the
/// flat wire format).
#[test]
fn block_skip_encoder_matches_reference() {
    let g = &mut Gen::new("block_skip_encoder_matches_reference");
    for _ in 0..64 {
        let (current, twin) = (word_buffer(g, 96), word_buffer(g, 96));
        let fast = diff::encode(&current, &twin);
        assert_eq!(
            fast.as_wire_bytes(),
            &reference(&current, &twin, true).0[..]
        );
    }
}

/// The same on fragmented pages and on skips and counts long enough for
/// 2- and 3-byte headers, where the encoders' varint writers differ.
#[test]
fn block_skip_encoder_matches_reference_on_every_header_width() {
    let g = &mut Gen::new("block_skip_encoder_matches_reference_on_every_header_width");
    for _ in 0..64 {
        let (layout, mixed, seed) = (run_layout(g), mixed_layout(g), g.u64());
        // ... and on long runs, clusters and lone words side by side, where
        // the two apply the cluster rule: one to a list of runs, the other to
        // a bitmap.
        for layout in [layout, mixed] {
            let (current, twin) = laid_out(&layout, seed);
            let fast = diff::encode(&current, &twin);
            let (bytes, runs, changed) = reference(&current, &twin, true);
            assert_eq!(fast.as_wire_bytes(), &bytes[..]);
            assert_eq!((fast.run_count(), fast.changed_words()), (runs, changed));
        }
    }
}

/// Wire round-trip: re-framing the encoded bytes with `from_wire` and
/// applying reconstructs `current` exactly.
#[test]
fn wire_round_trip_reconstructs() {
    let g = &mut Gen::new("wire_round_trip_reconstructs");
    for _ in 0..64 {
        let (current, twin) = (word_buffer(g, 48), word_buffer(g, 48));
        let d = diff::encode(&current, &twin);
        let wire: std::sync::Arc<[u8]> = std::sync::Arc::from(d.as_wire_bytes());
        let decoded = diff::Diff::from_wire(wire).expect("encoder output is valid framing");
        let mut target = twin.clone();
        diff::apply(&decoded, &mut target).unwrap();
        assert_eq!(target, current);
    }
}

/// A prefix of a valid encoding is valid exactly when it ends on a span
/// boundary, and then it *is* the first k spans — with the counts
/// `from_wire` computes matching; a cut anywhere inside a span — header,
/// run data, mask or masked data — is rejected. (Every cut is tried on
/// small layouts, the cuts around each boundary on large ones.)
#[test]
fn from_wire_accepts_a_prefix_only_on_a_run_boundary() {
    let g = &mut Gen::new("from_wire_accepts_a_prefix_only_on_a_run_boundary");
    for _ in 0..64 {
        let (layout, mixed, seed) = (run_layout(g), mixed_layout(g), g.u64());
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
            assert_eq!(*boundaries.last().unwrap(), wire.len());
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
                        assert_eq!(&spans(&prefix)[..], &all[..k]);
                        let runs: usize = all[..k].iter().map(Span::runs).sum();
                        let changed: usize = all[..k].iter().map(|s| s.data.len() / 4).sum();
                        assert_eq!(
                            (prefix.run_count(), prefix.changed_words()),
                            (runs, changed)
                        );
                    }
                    (Err(_), Err(_)) => {}
                    (boundary, parsed) => panic!(
                        "cut {cut} of {}: boundary {boundary:?}, parsed {parsed:?}",
                        wire.len()
                    ),
                }
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
fn from_wire_never_panics_and_apply_installs_what_it_accepted() {
    let g = &mut Gen::new("from_wire_never_panics_and_apply_installs_what_it_accepted");
    for _ in 0..64 {
        let (mixed, noise, seed) = (mixed_layout(g), g.vec(0..48, |g| g.u64() as u8), g.u64());
        let (current, twin) = laid_out(&mixed, seed);
        let valid = diff::encode(&current, &twin).as_wire_bytes().to_vec();
        let mut mutated = valid.clone();
        let mut draw = seed;
        for _ in 0..seed % 4 {
            draw = draw
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
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
            assert_eq!(diff::apply(&d, &mut target), Ok(()));
            let written: Vec<usize> = (0..d.words() as usize)
                .filter(|w| target[w * 4..w * 4 + 4] != before[w * 4..w * 4 + 4])
                .collect();
            assert_eq!(written.len(), d.changed_words());
            for w in 0..d.words() as usize {
                let at = w * 4..w * 4 + 4;
                let from = if written.contains(&w) {
                    &expected
                } else {
                    &before
                };
                assert_eq!(&target[at.clone()], &from[at]);
            }
        }
    }
}

/// A masked span writes its set-bit words and nothing between them: a
/// clustered diff applied onto a poisoned target leaves the poison in
/// every word it does not name (flat-diff invariant 6, on the receiving
/// side).
#[test]
fn a_mask_never_writes_a_gap() {
    let g = &mut Gen::new("a_mask_never_writes_a_gap");
    for _ in 0..64 {
        let (mixed, seed) = (mixed_layout(g), g.u64());
        let (current, twin) = laid_out(&mixed, seed);
        let d = diff::encode(&current, &twin);
        let poison = vec![0xEEu8; current.len()];
        let mut target = poison.clone();
        diff::apply(&d, &mut target).unwrap();
        for w in 0..current.len() / 4 {
            let at = w * 4..w * 4 + 4;
            let from = if current[at.clone()] != twin[at.clone()] {
                &current
            } else {
                &poison
            };
            assert_eq!(&target[at.clone()], &from[at], "word {}", w);
        }
    }
}

/// `from_wire` takes the canonical spelling of a varint and no other: not
/// one padded with zero groups (within five bytes or beyond), not one
/// with bits above the 32nd — as the `words` header, and as a run's skip.
#[test]
fn from_wire_rejects_every_non_canonical_varint() {
    let g = &mut Gen::new("from_wire_rejects_every_non_canonical_varint");
    for _ in 0..64 {
        let (v, shift, pad, high) = (
            g.u32(),
            g.range(0..32),
            g.range(1..4),
            g.range(0x10..0x80) as u8,
        );
        // Every magnitude, not only the 5-byte values `g.u32()` mostly draws.
        let v = v >> shift;
        let canonical = overlong(v, 0);
        assert_eq!(from_wire(&canonical).map(|d| d.words()), Ok(v));
        assert!(from_wire(&overlong(v, pad)).is_err());
        let mut overflow = overlong(v | 0xF000_0000, 0);
        overflow[4] = high;
        assert!(from_wire(&overflow).is_err());

        // words = u32::MAX, one run: skip = v, count = 1, one data word.
        let run = |skip: &[u8]| [&overlong(u32::MAX, 0), skip, &[1, 9, 9, 9, 9]].concat();
        if v < u32::MAX {
            let ok = from_wire(&run(&canonical)).expect("canonical skip");
            assert_eq!(spans(&ok).first().map(|s| s.start), Some(v as usize));
        }
        assert!(from_wire(&run(&overlong(v, pad))).is_err());
        assert!(from_wire(&run(&overflow)).is_err());
    }
}

/// Splitting a variable into page-sized objects covers it exactly (up to
/// word padding) with no object exceeding the page size.
#[test]
fn split_sizes_cover_variable() {
    let g = &mut Gen::new("split_sizes_cover_variable");
    for _ in 0..64 {
        let (byte_len, page_exp) = (g.range(0..100_000), g.range(3..14));
        let page = (1usize << page_exp).max(4);
        let sizes = split_sizes(byte_len, page);
        let total: usize = sizes.iter().sum();
        assert!(total >= byte_len);
        assert!(total < byte_len + 4);
        assert!(sizes.iter().all(|s| *s <= page && *s % 4 == 0 && *s > 0));
    }
}

/// `objects_in_range` finds its objects by index arithmetic; the
/// definition is "every object of the variable that overlaps the range".
/// `objects_covered`'s is "every one that lies wholly inside it".
#[test]
fn objects_in_range_matches_the_overlap_filter() {
    let g = &mut Gen::new("objects_in_range_matches_the_overlap_filter");
    for _ in 0..64 {
        let (byte_lens, start, len) = (
            g.vec(1..4, |g| g.range(0..700)),
            g.range(0..800),
            g.range(0..800),
        );
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
            assert_eq!(table.objects_in_range(var, start, end), &by_filter[..]);
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
            assert_eq!(covered, whole);
            // `locate` agrees with it, byte by byte.
            if let Some((oid, within)) = table.locate(var, start) {
                assert_eq!(table.objects_in_range(var, start, start + 1), &[oid][..]);
                assert_eq!(table.object(oid).var_offset + within, start);
            } else {
                assert!(table.objects_in_range(var, start, start + 1).is_empty());
            }
        }
    }
}

/// Copyset membership (a directory entry's `NodeSet`) behaves like a set
/// over node ids.
#[test]
fn copyset_behaves_like_a_set() {
    let g = &mut Gen::new("copyset_behaves_like_a_set");
    for _ in 0..64 {
        let members = g.set(0..10, 0..32);
        let cs = NodeSet::from_nodes(members.iter().map(|n| NodeId::new(*n)));
        for n in 0..32 {
            assert_eq!(cs.contains(NodeId::new(n)), members.contains(&n));
        }
        assert_eq!(cs.count(), members.len());
        let listed: Vec<NodeId> = cs.iter().collect();
        assert_eq!(listed.len(), members.len());
    }
}

/// The distributed lock hands ownership to every requester exactly once
/// and in FIFO order, regardless of when the requests arrive. Queueing
/// is idempotent: a duplicate acquire (the crash-recovery re-send) must
/// not queue its sender twice.
#[test]
fn lock_queue_is_fifo() {
    let g = &mut Gen::new("lock_queue_is_fifo");
    for _ in 0..64 {
        let requests = g.vec(1..12, |g| g.range(1..8));
        let mut lock = LockState::new(NodeId::new(0), NodeId::new(0));
        assert!(lock.try_local_acquire());
        let mut queued: Vec<NodeId> = Vec::new();
        for r in &requests {
            let node = NodeId::new(*r);
            match lock.handle_remote_acquire(node) {
                RemoteAcquireAction::Queued => {
                    if !queued.contains(&node) {
                        queued.push(node);
                    }
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        // Release: ownership goes to the first waiter together with the rest
        // of the queue, preserving order.
        if let Some((next, rest)) = lock.release() {
            assert_eq!(next, queued[0]);
            assert_eq!(rest, queued[1..].to_vec());
        } else {
            assert!(queued.is_empty());
        }
    }
}

/// The event engine pops what is queued in key order: when every send
/// is submitted before the first receive, each destination is delivered
/// in nondecreasing virtual time with a stable seeded tie-break, for
/// arbitrary send timestamps and seeds. (A message submitted *after* a
/// later one was popped keeps its own earlier arrival — the engine's
/// `late_deliveries`, covered in `munin-sim`.)
#[test]
fn engine_delivers_per_destination_in_nondecreasing_virtual_time() {
    let g = &mut Gen::new("engine_delivers_per_destination_in_nondecreasing_virtual_time");
    for _ in 0..64 {
        let (sends, seed) = (g.vec(1..80, Gen::u64), g.u64());
        let deliveries = engine_run(&sends, seed);
        let mut last_per_dst = [0u64; ENGINE_NODES];
        for (dst, _src, _payload, arrival_ns) in &deliveries {
            assert!(
                *arrival_ns >= last_per_dst[*dst],
                "destination {dst} delivered {arrival_ns}ns after {}ns",
                last_per_dst[*dst]
            );
            last_per_dst[*dst] = *arrival_ns;
        }
        assert_eq!(deliveries.len(), sends.len());
    }
}

/// Replaying the same sends with the same seed yields the identical
/// delivery order (same sources, payloads, and delivery times); ties in
/// `deliver_at` are broken identically on every replay.
#[test]
fn engine_replay_with_same_seed_is_identical() {
    let g = &mut Gen::new("engine_replay_with_same_seed_is_identical");
    for _ in 0..64 {
        let (sends, seed) = (g.vec(1..80, Gen::u64), g.u64());
        assert_eq!(engine_run(&sends, seed), engine_run(&sends, seed));
    }
}

/// The sharded engine delivers exactly what the pre-shard single-lock
/// engine delivered: for arbitrary schedules and seeds, the per-
/// destination sequences match an independent, single-threaded reference
/// implementation of the documented delivery semantics (lane FIFO clamp,
/// seeded tie-break, submission seqno) — the semantics the pre-shard
/// engine's global lock serialized. Sharding is
/// a lock-domain refactor, not a semantics change.
#[test]
fn sharded_engine_matches_single_lock_reference_model() {
    let g = &mut Gen::new("sharded_engine_matches_single_lock_reference_model");
    for _ in 0..64 {
        let (sends, seed) = (g.vec(1..80, Gen::u64), g.u64());
        assert_eq!(engine_run(&sends, seed), reference_run(&sends, seed));
    }
}

/// A barrier opens exactly when every node has arrived — at the latest
/// of their arrival times, whatever order they were processed in and
/// whatever the tree's fan-in — and is reusable afterwards.
#[test]
fn barrier_opens_at_parties() {
    let g = &mut Gen::new("barrier_opens_at_parties");
    for _ in 0..64 {
        let (parties, fanout, episodes, times) = (
            g.range(1..16),
            g.range(1..16),
            g.range(1..4),
            (0..48)
                .map(|_| g.range(0..1_000) as u64)
                .collect::<Vec<_>>(),
        );
        let node = NodeId::new;
        let topo = TreeTopology::new(node(0), parties, fanout);
        let mut states = vec![BarrierState::new(node(0)); parties];
        for episode in 0..episodes {
            let at = |i: usize| VirtTime::from_nanos(times[episode * 16 + i]);
            let mut opened = None;
            for i in 0..parties {
                assert!(opened.is_none(), "opened before node {} arrived", i);
                states[i].arrived.insert(node(i));
                // A node whose subtree is complete reports to its parent,
                // which may be complete in turn.
                let mut me = node(i);
                let mut step = states[i].advance(me, &topo, &NodeSet::EMPTY, at(i));
                while let BarrierStep::Report { gen, arrived, at } = step {
                    let from = me;
                    me = topo.live_parent_of(from, &NodeSet::EMPTY).unwrap();
                    let parent = &mut states[me.as_usize()];
                    assert!(parent.merge_report(from, gen, &arrived));
                    step = parent.advance(me, &topo, &NodeSet::EMPTY, at);
                }
                if let BarrierStep::Open { gen, children, at } = step {
                    opened = Some((gen, at, children));
                }
            }
            let (gen, opened_at, mut edges) = opened.expect("everyone arrived");
            assert_eq!(gen, (episode + 1) as u64);
            assert_eq!(Some(opened_at), (0..parties).map(at).max());
            // The release reaches every other node, once.
            let mut released = 0;
            while let Some((child, _)) = edges.pop() {
                edges.extend(
                    states[child.as_usize()]
                        .release(gen)
                        .expect("first release"),
                );
                released += 1;
            }
            assert_eq!(released, parties - 1);
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

/// Fetching an access's pages as runs changes how many messages carry
/// them and nothing else: for any page count, any assignment of pages to
/// owners, any set of pages the program initialised (the others travel
/// zero-filled on their first touch) and any sub-range, the bytes read,
/// every node's final view and the owners' copysets (as the
/// invalidations they send) are those of the one-page-at-a-time
/// reference — and both are the values the program wrote: a served copy
/// that dropped a materialised page's bytes would read as zeros here.
#[test]
fn run_fetch_matches_the_page_at_a_time_reference() {
    let g = &mut Gen::new("run_fetch_matches_the_page_at_a_time_reference");
    for _ in 0..24 {
        let (holders, init, lo_draw, len_draw, write_shared) = (
            g.vec(1..9, |g| g.range(0..3)),
            (0..8).map(|_| g.bool()).collect::<Vec<_>>(),
            g.range(0..1000),
            g.range(0..1000),
            g.bool(),
        );
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
        assert_eq!(&runs, &reference);
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
        assert_eq!(&runs.first_read, &expected_first);
        let expected = view_after(3, true);
        for view in &runs.final_views {
            assert_eq!(view, &expected);
        }
        assert_eq!(&runs.second_read[..], &expected[lo..hi]);
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
            assert!(
                p.replicas.as_bool(true),
                "{ann}: multiple writers need replicas"
            );
        }
        // Flush-to-owner only makes sense with a fixed owner.
        if p.flushes_to_owner() {
            assert!(p.has_fixed_owner(), "{ann}: Fl requires FO");
        }
    }
}

/// A twin of pseudo-random words and a copy with the words `changed` flips.
fn with_changed(words: usize, seed: u64, changed: impl Fn(usize) -> bool) -> (Vec<u8>, Vec<u8>) {
    let twin: Vec<u8> = (0..words as u64)
        .flat_map(|w| {
            ((w ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32).to_le_bytes()[..4].to_vec()
        })
        .collect();
    let mut current = twin.clone();
    for w in (0..words).filter(|w| changed(*w)) {
        current[w * 4 + 2] ^= 0x3C;
    }
    (current, twin)
}

/// Table 2's three patterns on an 8 KB page, at their exact encoded sizes:
/// what the wire carries and the cost model charges transmission for.
#[test]
fn table_2_diffs_have_their_exact_sizes() {
    let size = |changed: &dyn Fn(usize) -> bool| {
        let (current, twin) = with_changed(2048, 5, changed);
        diff::encode(&current, &twin).encoded_bytes()
    };
    // Word 7: words (2), skip and count (a byte each), one data word.
    assert_eq!(size(&|w| w == 7), 8);
    // Every word: words (2), skip (1), count (2), all 2 048 words.
    assert_eq!(size(&|_| true), 8_197);
    // Alternate words: one periodic span over words 0..=2046, its mask the
    // two bits `01`: words (2) + skip, count = 0, 0, period, length
    // (1 + 1 + 1 + 1 + 2) + one pattern byte + 1 024 data words.
    assert_eq!(size(&|w| w % 2 == 0), 4_105);
}

/// The block-skip encoder and the reference write the same bytes on the
/// patterns the protocol generates, at sizes around the block edges:
/// identical buffers, fully dirty ones, sparse words, stripes straddling
/// every block edge, and a third of the words at random.
#[test]
fn block_skip_matches_reference_on_protocol_patterns() {
    for (case, words) in [0usize, 1, 2, 31, 32, 33, 63, 64, 65, 96, 256, 1000]
        .into_iter()
        .enumerate()
    {
        let random = |w: usize| {
            (w as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ case as u64)
                .is_multiple_of(3)
        };
        let patterns: [&dyn Fn(usize) -> bool; 5] = [
            &|_| false,
            &|_| true,
            &|w| w % 37 == 0,
            &|w| w % 32 == 0 || w % 32 == 31,
            &random,
        ];
        for changed in patterns {
            let (current, twin) = with_changed(words, case as u64, changed);
            let (bytes, runs, changed) = reference(&current, &twin, true);
            let d = diff::encode(&current, &twin);
            assert_eq!(d.as_wire_bytes(), &bytes[..], "{words} words");
            assert_eq!((d.run_count(), d.changed_words()), (runs, changed));
        }
    }
}

/// A periodic span is what the format's definition writes, at every period
/// from 2 to 64 words and at every offset into it, for spans that end on the
/// first or another bit of their last period — and at a few periods longer
/// than a 64-bit register. Its run and changed-word counts, as the encoder
/// and the decoder count them, are the plain mask's, so no CPU charge moves;
/// and onto a poisoned target it writes its own words and no other.
#[test]
fn periodic_spans_match_the_reference_at_every_stride_and_offset() {
    const WORDS: usize = 400;
    // Word `j` of each period changes when `j % 11 == 0 || j % 7 == 3`: no
    // two changed words more than 8 apart, so the page is one cluster.
    let changes = |stride: usize, offset: usize, end: usize| {
        move |w: usize| {
            let j = w.wrapping_sub(offset) % stride;
            (offset..end).contains(&w) && (j.is_multiple_of(11) || j % 7 == 3)
        }
    };
    let mut periodic = 0;
    for stride in (2..=64).chain([65, 100, 128]) {
        for offset in 0..stride {
            for end in [WORDS - 1, WORDS - 1 - stride / 2] {
                let what = format!("stride {stride}, offset {offset}, end {end}");
                let (current, twin) =
                    with_changed(WORDS, stride as u64, changes(stride, offset, end));
                let d = diff::encode(&current, &twin);
                let (bytes, runs, changed) = reference(&current, &twin, true);
                assert_eq!(d.as_wire_bytes(), &bytes[..], "{what}");
                assert_eq!(
                    (d.run_count(), d.changed_words()),
                    (runs, changed),
                    "{what}"
                );
                for wire in [&reference(&current, &twin, false).0[..], d.as_wire_bytes()] {
                    let d = from_wire(wire).unwrap();
                    assert_eq!(
                        (d.run_count(), d.changed_words()),
                        (runs, changed),
                        "{what}"
                    );
                }
                let poison = vec![0xEEu8; current.len()];
                let mut target = poison.clone();
                diff::apply(&d, &mut target).unwrap();
                for w in 0..WORDS {
                    let at = w * 4..w * 4 + 4;
                    let from = if current[at.clone()] != twin[at.clone()] {
                        &current
                    } else {
                        &poison
                    };
                    assert_eq!(&target[at.clone()], &from[at], "{what}: word {w}");
                }
                periodic += spans(&d).iter().filter(|s| s.periodic()).count();
            }
        }
    }
    assert!(periodic > 4_000, "{periodic} periodic spans");
}
