//! Twins and run-length encoded diffs, in a flat zero-copy wire format.
//!
//! When a thread first writes to an object whose protocol allows multiple
//! writers, Munin makes a copy of the object — its *twin*. When the delayed
//! update queue is flushed, the runtime "performs a word-by-word comparison
//! of the object and its twin and run-length encodes the results of this diff
//! into the space allocated for the twin. Each run consists of a count of
//! identical words, the number of differing words that follow, and the data
//! associated with those differing words." (Section 3.3.)
//!
//! # Wire format
//!
//! A [`Diff`] is a single contiguous buffer — exactly the bytes that would go
//! on the wire — a header and then spans of two kinds, in any mix:
//!
//! ```text
//! ┌───────┬──────┬───────┬────────────────┬──────┬───┬─────┬───────────┬────────┬──
//! │ words │ skip │ count │ count*4 data … │ skip │ 0 │ len │ ⌈len/8⌉ B │ data … │ …
//! └───────┴──────┴───────┴────────────────┴──────┴───┴─────┴───────────┴────────┴──
//!   header └───────────── run ───────────┘ └──────────── masked span ───────────┘
//! ```
//!
//! * `words`, `skip`, `count` and `len` are canonical LEB128 varints of a
//!   `u32`: seven value bits per byte, least significant group first, the
//!   high bit set on every byte but the last, never more bytes than the value
//!   needs (1 byte below 2⁷, 2 below 2¹⁴, … at most [`MAX_VARINT_LEN`]).
//! * `words` — length of the object in 32-bit words (validates application).
//! * A *run*: `skip` identical words, then `count > 0` differing words whose
//!   new values follow inline as little-endian words. Runs are maximal: two
//!   consecutive spans are separated by at least one identical word.
//! * A *masked span* (`count == 0`, which no run has): `skip` identical
//!   words, then `len ≥ 2` words of which the mask names the changed ones —
//!   bit `i`, least significant bit of the first byte first, is word `i` of
//!   the span — and then the new values of exactly those. It starts and ends
//!   on a changed word (first and last bit set), the bits padding the last
//!   mask byte are clear, and the next `skip` counts from its end.
//!
//! The paper's worst case (Table 2) is a page of minimum-length runs: four
//! writers striding an 8 KB page change every fourth word each, and 512
//! two-byte run headers say what a 256-byte mask says as well. So a
//! *cluster* — a run of at most [`CLUSTER_REACH`] words, and every next run
//! whose gap and count together are at most that — travels as one masked
//! span when that is strictly shorter than its runs: 2 310 bytes for the
//! strided page where runs take 3 074. The encoder decides by exact byte
//! count, so no diff is longer than runs alone would make it, one without
//! such a cluster is the bytes it always was, and one set of changed words
//! has one encoding (a decoder accepts any valid mix).
//!
//! Neither kind of span carries a word this node did not write. Merging runs
//! across a gap by *sending* the unchanged words between them would save
//! headers too, but another node may be writing those words concurrently
//! (`write_shared` allows it), and a payload that carried this node's stale
//! view of them would overwrite that write at every receiver. A mask sends,
//! and [`apply`] writes, the set-bit words only
//! (`apply_merges_disjoint_concurrent_writes`).
//!
//! Because the encoding *is* the wire representation, sending a diff to N
//! destinations shares one buffer behind an [`Arc`], and [`apply`] copies
//! whole runs with `copy_from_slice` straight off it. The counts the cost
//! model charges for — maximal runs of changed words, and changed words,
//! however the spans spell them — are counted once, by whoever walks the
//! buffer first (the encoder, or [`Diff::from_wire`]'s validation), and
//! carried beside the buffer.
//!
//! See `DESIGN.md` for the full layout rationale and invariants.

use std::sync::Arc;

use crate::error::{MuninError, Result};

/// Words per comparison block: 32 words = 128 bytes.
pub const BLOCK_WORDS: usize = 32;

/// Longest varint the format allows: ⌈32 / 7⌉ bytes hold any `u32`.
pub const MAX_VARINT_LEN: usize = 5;

/// The most words a run may add to a cluster, its gap included (and the most
/// the first may have). A covered word costs an eighth of a mask byte and a
/// run header two bytes, so joining is cheaper exactly below sixteen:
/// arithmetic of the format, not a tunable.
pub const CLUSTER_REACH: usize = 15;

/// Encoded length of `v` as a canonical LEB128 varint.
const fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0xFFF_FFFF => 4,
        _ => 5,
    }
}

/// Whether a cluster of `runs` runs over `len` words is strictly shorter as
/// a masked span. Every gap and count inside a cluster fits one byte, so
/// each run after the first costs two header bytes; the span pays `len` and
/// the mask instead (its zero `count` stands where the first run's was).
fn mask_is_shorter(len: usize, runs: usize) -> bool {
    varint_len(len as u32) + len.div_ceil(8) + 2 < 2 * runs
}

/// Appends `v` as a canonical LEB128 varint.
#[inline]
fn put_varint(buf: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// `Ok` if the framing rule `holds`, else the protocol violation `why`.
#[inline]
fn check(holds: bool, why: &'static str) -> Result<()> {
    if holds {
        Ok(())
    } else {
        Err(MuninError::ProtocolViolation(why))
    }
}

/// Reads the varint starting at `pos`, returning its value and the position
/// after it. `truncated` names the field for the error raised when the
/// buffer ends inside it.
#[inline]
fn get_varint(bytes: &[u8], pos: usize, truncated: &'static str) -> Result<(u32, usize)> {
    match bytes.get(pos) {
        Some(&b) if b < 0x80 => Ok((b as u32, pos + 1)),
        _ => get_varint_general(bytes, pos, truncated),
    }
}

/// The multi-byte (and every error) case of [`get_varint`]. Rejects what a
/// canonical encoder never writes: a sixth byte, bits beyond the 32nd, and a
/// zero final byte after a continuation (an overlong spelling of a smaller
/// value).
fn get_varint_general(bytes: &[u8], pos: usize, truncated: &'static str) -> Result<(u32, usize)> {
    let mut value = 0u32;
    for i in 0..MAX_VARINT_LEN {
        let byte = bytes.get(pos + i);
        let b = *byte.ok_or(MuninError::ProtocolViolation(truncated))?;
        let group = (b & 0x7F) as u32;
        let in_u32 = i < MAX_VARINT_LEN - 1 || group <= 0x0F;
        check(in_u32, "diff varint overflows u32")?;
        value |= group << (7 * i);
        if b < 0x80 {
            check(i == 0 || b != 0, "non-canonical diff varint")?;
            return Ok((value, pos + i + 1));
        }
    }
    Err(MuninError::ProtocolViolation(
        "diff varint longer than 5 bytes",
    ))
}

/// The bytes of a mask as little-endian `u64`s, the last padded with zeros.
#[inline]
fn mask_chunks(mask: &[u8]) -> impl Iterator<Item = u64> + '_ {
    mask.chunks(8).map(|c| match <[u8; 8]>::try_from(c) {
        Ok(whole) => u64::from_le_bytes(whole),
        Err(_) => c.iter().rev().fold(0, |m, b| m << 8 | *b as u64),
    })
}

/// Walks the spans that start at `pos`, checking the framing against an object
/// of `words` words, and hands `visit` the first word index, the mask (empty
/// for a run: all of its words changed) and the data bytes of each — after
/// every check on that span, so nothing of a malformed one is ever installed.
/// Returns the run and changed-word counts. The one walker behind both
/// [`Diff::from_wire`] and [`apply`], so what the first accepts and the
/// second installs cannot drift apart.
#[inline]
fn walk_spans(
    bytes: &[u8],
    mut pos: usize,
    words: u32,
    mut visit: impl FnMut(usize, &[u8], &[u8]),
) -> Result<(u32, u32)> {
    let (mut word_idx, mut runs, mut changed) = (0u64, 0u32, 0u64);
    // Sizes stay in `u64` until checked against what is left of the buffer,
    // so a hostile header cannot wrap a 32-bit `usize`.
    let left = |at: usize| (bytes.len() - at) as u64;
    while pos < bytes.len() {
        let (skip, at) = get_varint(bytes, pos, "truncated diff span header")?;
        let (count, at) = get_varint(bytes, at, "truncated diff span header")?;
        let start = word_idx + skip as u64;
        if count > 0 {
            check(left(at) >= count as u64 * 4, "truncated diff run data")?;
            word_idx = start + count as u64;
            check(word_idx <= words as u64, "diff run overruns object")?;
            pos = at + count as usize * 4;
            visit(start as usize, &[], &bytes[at..pos]);
            runs += 1;
            changed += count as u64;
            continue;
        }
        // `count == 0` is no run (an empty one would let `is_empty()`
        // disagree with `changed_words()`): it introduces a masked span.
        let (len, at) = get_varint(bytes, at, "truncated diff span header")?;
        check(len >= 2, "diff span under two words")?;
        word_idx = start + len as u64;
        check(word_idx <= words as u64, "diff span overruns object")?;
        let mask_len = len.div_ceil(8) as usize;
        check(left(at) >= mask_len as u64, "truncated diff span mask")?;
        let (mask, data) = bytes[at..].split_at(mask_len);
        // First and last word changed, padding clear: `skip`, `len` and
        // maximality then mean for a span what they mean for a run.
        let ends_set = mask[0] & 1 == 1 && mask[mask_len - 1] >> ((len - 1) % 8) == 1;
        check(ends_set, "non-canonical diff mask")?;
        // A run begins at each set bit whose predecessor is clear.
        let (mut ones, mut carry) = (0usize, 0);
        for m in mask_chunks(mask) {
            ones += m.count_ones() as usize;
            runs += (m & !(m << 1 | carry)).count_ones();
            carry = m >> 63;
        }
        check(data.len() / 4 >= ones, "truncated diff span data")?;
        pos = at + mask_len + ones * 4;
        visit(start as usize, mask, &data[..ones * 4]);
        changed += ones as u64;
    }
    // `changed <= words`: every span was checked against it.
    Ok((runs, changed as u32))
}

/// A run-length encoded diff of an object against its twin, stored in its
/// flat wire format behind an [`Arc`] so multi-destination fan-out shares
/// one encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diff {
    bytes: Arc<[u8]>,
    /// The decoded `words` header.
    words: u32,
    /// Number of maximal runs of changed words `bytes` describes.
    runs: u32,
    /// Number of changed words `bytes` carries.
    changed: u32,
}

impl Diff {
    /// Wraps bytes received from the wire, validating the framing.
    ///
    /// # Errors
    ///
    /// Returns [`MuninError::ProtocolViolation`] if the buffer is truncated,
    /// a varint is longer than [`MAX_VARINT_LEN`] bytes, overflows `u32` or
    /// is not canonical, a masked span covers fewer than two words or its
    /// mask does not begin and end on a changed word with clear padding, or
    /// a span overruns the object length declared in the header.
    pub fn from_wire(bytes: Arc<[u8]>) -> Result<Diff> {
        let (words, body) = get_varint(&bytes, 0, "truncated diff header")?;
        let (runs, changed) = walk_spans(&bytes, body, words, |_, _, _| {})?;
        Ok(Diff {
            bytes,
            words,
            runs,
            changed,
        })
    }

    /// The raw wire bytes of the encoding.
    pub fn as_wire_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length of the object in words (needed to validate application).
    pub fn words(&self) -> u32 {
        self.words
    }

    /// Whether the diff contains no changed words.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// Total number of differing words carried by the diff. Counted when the
    /// diff was encoded or validated, not by walking the buffer.
    pub fn changed_words(&self) -> usize {
        self.changed as usize
    }

    /// Number of maximal runs of changed words, whether each travels under a
    /// header of its own or as a stretch of set bits in a mask. Counted when
    /// the diff was encoded or validated, not by walking the buffer.
    pub fn run_count(&self) -> usize {
        self.runs as usize
    }

    /// Size of the encoding on the wire: the buffer length itself.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Hands `visit` each span in order, as the walker behind [`apply`] sees
    /// it: the index of its first word, its mask (empty for a run, whose
    /// words all changed) and the new values of its changed words.
    pub fn for_each_span(&self, visit: impl FnMut(usize, &[u8], &[u8])) {
        walk_spans(&self.bytes, varint_len(self.words), self.words, visit)
            .expect("a Diff is validated when it is built");
    }
}

/// Reusable encoding buffers: one set per node, so repeated DUQ flushes
/// perform no per-run heap allocations (they grow to the high-water mark and
/// stay there).
#[derive(Debug, Default)]
pub struct DiffScratch {
    buf: Vec<u8>,
    /// Change bitmap of the stretch of differing blocks being encoded.
    bits: Vec<u8>,
}

impl DiffScratch {
    /// Current capacity of the scratch in bytes (observable for tests that
    /// assert the buffer is reused across flushes).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Computes the run-length encoded diff of `current` against `twin`,
    /// writing the flat wire format into the reused scratch buffer and
    /// returning it as a shareable [`Diff`].
    ///
    /// Identical [`BLOCK_WORDS`]-word blocks are skipped by slice comparison
    /// — `memcmp` speed, the common case for sparse diffs like SOR edge
    /// exchanges. One of them ends every run and every cluster (a gap of
    /// more than [`CLUSTER_REACH`] words), so each stretch of differing
    /// blocks between two is encoded by itself: its change bitmap, one bit a
    /// word, is built once, and runs, clusters, mask bytes and data
    /// positions are read out of that. Block comparison only skips equal
    /// words and every bit is one word's comparison, so the output is
    /// identical to [`encode_reference`].
    ///
    /// # Panics
    ///
    /// Panics if the two buffers differ in length, are not word-aligned or
    /// hold 2³² words or more; objects are always padded to a word multiple
    /// when the segment is laid out.
    pub fn encode(&mut self, current: &[u8], twin: &[u8]) -> Diff {
        let words = checked_words(current, twin);
        let Self { buf, bits } = self;
        buf.clear();
        put_varint(buf, words as u32);
        let mut out = Spans {
            buf,
            current,
            last_end: 0,
            runs: 0,
            changed: 0,
        };
        let same = |i: usize| with_block(current, twin, i, |c, t| c == t);
        let mut i = 0;
        while i < words {
            if same(i) {
                i += BLOCK_WORDS;
                continue;
            }
            let base = i;
            bits.clear();
            loop {
                let m: u32 = with_block(current, twin, i, |c, t| {
                    let word = |b: &[u8]| u32::from_ne_bytes(b.try_into().expect("four bytes"));
                    let pairs = c.chunks_exact(4).zip(t.chunks_exact(4)).enumerate();
                    pairs.fold(0, |m, (w, (c, t))| m | ((word(c) != word(t)) as u32) << w)
                });
                bits.extend_from_slice(&m.to_le_bytes());
                i += BLOCK_WORDS;
                if i >= words || same(i) {
                    break;
                }
            }
            // One block holding one run — a sparse diff's every stretch —
            // needs no bitmap scan: 13 ns of a lone word's 25.
            if let Ok(one) = <[u8; 4]>::try_from(&bits[..]) {
                let m = u32::from_le_bytes(one);
                let run = m >> m.trailing_zeros();
                if run & run.wrapping_add(1) == 0 {
                    let start = base + m.trailing_zeros() as usize;
                    out.run(start, start + run.trailing_ones() as usize);
                    continue;
                }
            }
            bits.extend_from_slice(&[0; 8]);
            out.stretch(base, bits);
        }
        Diff {
            bytes: Arc::from(out.buf.as_slice()),
            words: words as u32,
            runs: out.runs,
            changed: out.changed as u32,
        }
    }
}

/// The common preconditions of both encoders; returns the length in words.
fn checked_words(current: &[u8], twin: &[u8]) -> usize {
    assert_eq!(current.len(), twin.len(), "twin must be the same size");
    assert_eq!(current.len() % 4, 0, "objects are word-aligned");
    let words = current.len() / 4;
    assert!(u32::try_from(words).is_ok(), "objects are below 2^32 words");
    words
}

/// Calls `f` on the block of the two buffers that starts at word `i`: a
/// whole one at a length the compiler knows, which is what turns the
/// comparisons made on it into inline vector code, or the object's tail.
#[inline(always)]
fn with_block<R>(current: &[u8], twin: &[u8], i: usize, f: impl Fn(&[u8], &[u8]) -> R) -> R {
    let whole = i * 4..(i + BLOCK_WORDS) * 4;
    match (current.get(whole.clone()), twin.get(whole)) {
        (Some(c), Some(t)) => f(c, t),
        _ => f(&current[i * 4..], &twin[i * 4..]),
    }
}

/// Bits `p..` of a change bitmap — a bit a word, least significant bit of the
/// first byte first, closed by eight zero bytes so that this read is in bounds
/// at any bit and every run ends — with bit `p` lowest: [`WINDOW`] of them
/// at least, zeros above the last.
#[inline]
fn window(bits: &[u8], p: usize) -> u64 {
    let bytes = bits[p / 8..p / 8 + 8].try_into().expect("eight bytes");
    u64::from_le_bytes(bytes) >> (p % 8)
}

/// Bits of a [`window`] that are always the bitmap's own.
const WINDOW: usize = 56;

/// The first bit of `bits` at or after `p` that is set (or, `set` false,
/// clear); the first of the closing zeros if there is none.
fn seek(bits: &[u8], mut p: usize, set: bool) -> usize {
    let (len, flip) = ((bits.len() - 8) * 8, if set { 0 } else { u64::MAX });
    while p < len {
        let w = (window(bits, p) ^ flip) & ((1 << WINDOW) - 1);
        let found = w.trailing_zeros() as usize;
        if found < WINDOW {
            return p + found;
        }
        p += WINDOW;
    }
    len
}

/// Finds the cluster that begins with the run at `start`: where it ends and
/// how many runs it has — none if that run is too long to begin one. A run
/// joins while it ends within [`CLUSTER_REACH`] bits of the one before (of
/// `start`, for the first). Only run *ends* matter, so a window is consumed
/// one falling edge at a time.
fn cluster_end(bits: &[u8], start: usize) -> (usize, usize) {
    let (mut end, mut runs) = (start, 0);
    loop {
        let w = window(bits, end);
        let mut falls = w & !(w >> 1) & ((1 << WINDOW) - 1);
        let mut joined = 0;
        while falls != 0 {
            let next_end = falls.trailing_zeros() as usize + 1;
            if next_end - joined > CLUSTER_REACH {
                return (end + joined, runs);
            }
            joined = next_end;
            runs += 1;
            falls &= falls - 1;
        }
        if joined == 0 {
            return (end, runs);
        }
        end += joined;
    }
}

/// The encoder's output: the spans written so far, and the counts a
/// [`Diff`] carries beside them.
struct Spans<'a> {
    buf: &'a mut Vec<u8>,
    current: &'a [u8],
    /// One past the last word of the last span.
    last_end: usize,
    runs: u32,
    changed: usize,
}

impl Spans<'_> {
    /// Appends the run of changed words `start..end`.
    fn run(&mut self, start: usize, end: usize) {
        put_varint(self.buf, (start - self.last_end) as u32);
        put_varint(self.buf, (end - start) as u32);
        self.buf
            .extend_from_slice(&self.current[start * 4..end * 4]);
        self.last_end = end;
        self.runs += 1;
        self.changed += end - start;
    }

    /// Encodes the words `base..` whose change bitmap is `bits`: cluster by
    /// cluster, each as one masked span if that is shorter, else run by run.
    fn stretch(&mut self, base: usize, bits: &[u8]) {
        let mut p = seek(bits, 0, true);
        while p < (bits.len() - 8) * 8 {
            let (end, runs) = cluster_end(bits, p);
            // No runs: the one at `p` is too long to begin a cluster.
            let end = if runs == 0 { seek(bits, p, false) } else { end };
            if mask_is_shorter(end - p, runs) {
                self.masked(base, bits, p, end);
                self.runs += runs as u32;
                p = seek(bits, end, true);
            }
            while p < end {
                let run_end = seek(bits, p, false);
                self.run(base + p, base + run_end);
                p = seek(bits, run_end, true);
            }
        }
    }

    /// Appends bits `start..end` of `bits` as one masked span: the mask cut
    /// out of the bitmap a byte at a time, then the set-bit words.
    fn masked(&mut self, base: usize, bits: &[u8], start: usize, end: usize) {
        put_varint(self.buf, (base + start - self.last_end) as u32);
        self.buf.push(0);
        put_varint(self.buf, (end - start) as u32);
        // The `n <= 64` bits from `p` on that lie below `end`.
        let below_end = |p: usize, n: usize| window(bits, p) & (u64::MAX >> (64 - n.min(end - p)));
        for p in (start..end).step_by(8) {
            self.buf.push(below_end(p, 8) as u8);
        }
        let data_at = self.buf.len();
        for p in (start..end).step_by(WINDOW) {
            let mut w = below_end(p, WINDOW);
            while w != 0 {
                let at = (base + p + w.trailing_zeros() as usize) * 4;
                self.buf.extend_from_slice(&self.current[at..at + 4]);
                w &= w - 1;
            }
        }
        self.last_end = base + end;
        self.changed += (self.buf.len() - data_at) / 4;
    }
}

/// Creates a twin: a private copy of the object made on the first write.
pub fn make_twin(object: &[u8]) -> Vec<u8> {
    object.to_vec()
}

/// Computes the run-length encoded diff of `current` against `twin` using a
/// one-shot scratch buffer. Hot paths (the DUQ flush) keep a [`DiffScratch`]
/// alive instead so the buffer is reused across flushes.
///
/// # Panics
///
/// Panics if the two buffers differ in length or are not word-aligned.
pub fn encode(current: &[u8], twin: &[u8]) -> Diff {
    DiffScratch::default().encode(current, twin)
}

/// Reference word-by-word encoder: the straightforward implementation of the
/// paper's description and of the cluster rule — list the maximal runs,
/// group them, write each mask bit by bit — with no block skipping, no
/// bitmap and no single-byte varint shortcut. Produces bit-identical output
/// to [`DiffScratch::encode`]; kept as the oracle for differential tests.
///
/// # Panics
///
/// Panics if the two buffers differ in length, are not word-aligned or hold
/// 2³² words or more.
pub fn encode_reference(current: &[u8], twin: &[u8]) -> Diff {
    let words = checked_words(current, twin);
    let word = |w: usize| &current[w * 4..w * 4 + 4];
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for w in (0..words).filter(|w| word(*w) != &twin[w * 4..w * 4 + 4]) {
        match runs.last_mut() {
            Some((_, end)) if *end == w => *end += 1,
            _ => runs.push((w, w + 1)),
        }
    }
    let mut buf = Vec::new();
    put_varint(&mut buf, words as u32);
    let (mut last_end, mut rest) = (0, &runs[..]);
    while let Some(&(start, first_end)) = rest.first() {
        // The cluster that begins with this run is `rest[..n]`.
        let mut n = 1;
        if first_end - start <= CLUSTER_REACH {
            while n < rest.len() && rest[n].1 - rest[n - 1].1 <= CLUSTER_REACH {
                n += 1;
            }
        }
        let end = rest[n - 1].1;
        if mask_is_shorter(end - start, n) {
            for v in [start - last_end, 0, end - start] {
                put_varint(&mut buf, v as u32);
            }
            let mask_at = buf.len();
            buf.resize(mask_at + (end - start).div_ceil(8), 0);
            for w in rest[..n].iter().flat_map(|run| run.0..run.1) {
                buf[mask_at + (w - start) / 8] |= 1 << ((w - start) % 8);
                buf.extend_from_slice(word(w));
            }
        } else {
            for &(start, end) in &rest[..n] {
                put_varint(&mut buf, (start - last_end) as u32);
                put_varint(&mut buf, (end - start) as u32);
                buf.extend_from_slice(&current[start * 4..end * 4]);
                last_end = end;
            }
        }
        (last_end, rest) = (end, &rest[n..]);
    }
    Diff {
        bytes: Arc::from(buf),
        words: words as u32,
        runs: runs.len() as u32,
        changed: runs.iter().map(|(start, end)| (end - start) as u32).sum(),
    }
}

/// Applies `diff` to `target`, overwriting the words the diff marks as
/// changed — a run with one `copy_from_slice` straight off the wire buffer,
/// a masked span set bit by set bit, never a word whose bit is clear.
/// `target` is typically a remote copy of the object (or the owner's master
/// copy for `result` objects).
///
/// # Errors
///
/// Returns [`MuninError::ProtocolViolation`] if the diff does not fit the
/// target (length mismatch or spans overrunning the object) or the buffer is
/// malformed; the framing is checked again here, span by span, by the walker
/// [`Diff::from_wire`] validates with.
pub fn apply(diff: &Diff, target: &mut [u8]) -> Result<()> {
    let bytes: &[u8] = &diff.bytes;
    let (words, body) = get_varint(bytes, 0, "truncated diff header")?;
    let fits = target.len().is_multiple_of(4) && target.len() / 4 == words as usize;
    check(fits, "diff length mismatch")?;
    walk_spans(bytes, body, words, |start, mask, data| {
        let at = start * 4;
        if mask.is_empty() {
            match <[u8; 4]>::try_from(data) {
                // A one-word run (a sparse diff's usual kind) is a single
                // store, not a call into `memcpy`.
                Ok(word) => target[at..at + 4].copy_from_slice(&word),
                Err(_) => target[at..at + data.len()].copy_from_slice(data),
            }
        }
        let mut values = data.chunks_exact(4);
        for (chunk, mut m) in mask_chunks(mask).enumerate() {
            while m != 0 {
                let to = at + (chunk * 64 + m.trailing_zeros() as usize) * 4;
                let value = values.next().expect("one data word for each set bit");
                target[to..to + 4].copy_from_slice(value);
                m &= m - 1;
            }
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_bytes(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Deterministic pseudo-random word buffer for differential tests.
    fn random_words(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(n * 4);
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.extend_from_slice(&((state >> 24) as u32).to_le_bytes());
        }
        out
    }

    /// A `Diff` around bytes no constructor checked, to show that `apply`
    /// checks the framing itself.
    fn unchecked(bytes: &[u8]) -> Diff {
        Diff {
            bytes: Arc::from(bytes),
            words: 0,
            runs: 0,
            changed: 0,
        }
    }

    /// The spans of `d` as `(first word, mask, changed words)`.
    fn spans(d: &Diff) -> Vec<(usize, Vec<u8>, Vec<u32>)> {
        let mut out = Vec::new();
        d.for_each_span(|start, mask, data| {
            let values = data
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(w.try_into().unwrap()));
            out.push((start, mask.to_vec(), values.collect()));
        });
        out
    }

    /// Flips one byte of each listed word of a copy of `twin`.
    fn with_words_changed(twin: &[u8], words: impl IntoIterator<Item = usize>) -> Vec<u8> {
        let mut cur = twin.to_vec();
        for w in words {
            cur[w * 4] ^= 0xA5;
        }
        cur
    }

    #[test]
    fn identical_buffers_produce_empty_diff() {
        let a = to_bytes(&[1, 2, 3, 4]);
        let d = encode(&a, &a);
        assert!(d.is_empty());
        assert_eq!(d.changed_words(), 0);
        assert_eq!(d.run_count(), 0);
        assert_eq!(d.words(), 4);
        assert_eq!(d.encoded_bytes(), 1);
        assert_eq!(d, Diff::from_wire(Arc::from(&[4u8][..])).unwrap());
    }

    #[test]
    fn single_word_change_is_one_run() {
        let twin = to_bytes(&[0; 8]);
        let mut cur = twin.clone();
        cur[12..16].copy_from_slice(&7u32.to_le_bytes());
        let d = encode(&cur, &twin);
        assert_eq!(d.run_count(), 1);
        assert_eq!(spans(&d), [(3, vec![], vec![7])]);
        assert_eq!(d.changed_words(), 1);
        // Table 2's first pattern: word 7 of a zero 8 KB page. Words (2),
        // skip and count (a byte each), one data word.
        let twin = vec![0u8; 8192];
        let mut cur = twin.clone();
        cur[28..32].copy_from_slice(&1u32.to_le_bytes());
        let d = encode(&cur, &twin);
        assert_eq!(spans(&d), [(7, vec![], vec![1])]);
        assert_eq!(d.encoded_bytes(), 2 + 1 + 1 + 4);
        assert_eq!(d.encoded_bytes(), 8);
    }

    #[test]
    fn every_word_changed_is_one_big_run() {
        let twin = to_bytes(&[0; 16]);
        let cur = to_bytes(&[9; 16]);
        let d = encode(&cur, &twin);
        assert_eq!(d.run_count(), 1);
        assert_eq!(spans(&d), [(0, vec![], vec![9; 16])]);
        assert_eq!(d.changed_words(), 16);
        // Table 2's second pattern: every word of an 8 KB page. Words (2),
        // skip (1), count (2), all 2 048 words.
        let twin = vec![0u8; 8192];
        let cur = to_bytes(&[1; 2048]);
        let d = encode(&cur, &twin);
        assert_eq!((d.run_count(), d.changed_words()), (1, 2048));
        assert_eq!(d.encoded_bytes(), 2 + 1 + 2 + 8192);
        assert_eq!(d.encoded_bytes(), 8197);
    }

    #[test]
    fn alternate_words_is_worst_case_run_count() {
        // "In the third every other word has changed which is the worst case
        // for our run-length encoding scheme because there are a maximum
        // number of minimum-length runs."
        // Still the maximum number of runs, and what the cost model charges
        // for; on the wire they are one masked span over words 0..=2046.
        let twin = random_words(2048, 9);
        let cur = with_words_changed(&twin, (0..2048).step_by(2));
        let d = encode(&cur, &twin);
        assert_eq!((d.run_count(), d.changed_words()), (1024, 1024));
        let [(0, mask, values)] = &spans(&d)[..] else {
            panic!("one span at word 0");
        };
        assert_eq!(mask[..255], [0x55; 255]);
        assert_eq!(mask[255..], [0x55 & 0x7F]);
        assert_eq!(values.len(), 1024);
        // words (2) + skip, count = 0, len (1 + 1 + 2) + mask + data; as runs
        // it was 2 + 1024 * (2 + 4) = 6146.
        assert_eq!(d.encoded_bytes(), 2 + 4 + 256 + 1024 * 4);
        assert_eq!(d.encoded_bytes(), 4358);
    }

    #[test]
    fn apply_reconstructs_the_modified_object() {
        let twin = to_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut cur = twin.clone();
        cur[0..4].copy_from_slice(&100u32.to_le_bytes());
        cur[20..24].copy_from_slice(&200u32.to_le_bytes());
        let d = encode(&cur, &twin);
        let mut other_copy = twin.clone();
        apply(&d, &mut other_copy).unwrap();
        assert_eq!(other_copy, cur);
    }

    #[test]
    fn apply_merges_disjoint_concurrent_writes() {
        // Two writers modify disjoint words of the same object; applying both
        // diffs to the original must yield both changes (the multiple-writers
        // guarantee that defeats false sharing).
        let original = to_bytes(&[0; 8]);
        let mut writer_a = original.clone();
        writer_a[0..4].copy_from_slice(&11u32.to_le_bytes());
        let mut writer_b = original.clone();
        writer_b[28..32].copy_from_slice(&22u32.to_le_bytes());
        let diff_a = encode(&writer_a, &original);
        let diff_b = encode(&writer_b, &original);
        let mut master = original.clone();
        apply(&diff_a, &mut master).unwrap();
        apply(&diff_b, &mut master).unwrap();
        assert_eq!(u32::from_le_bytes(master[0..4].try_into().unwrap()), 11);
        assert_eq!(u32::from_le_bytes(master[28..32].try_into().unwrap()), 22);

        // The same through masks: four writers stride a page, each diff is
        // one masked span covering the other three's words, and a span
        // writes its own set-bit words only — in whatever order they land.
        let original = random_words(2048, 21);
        let writers: Vec<Vec<u8>> = (0..4)
            .map(|me| with_words_changed(&original, (me..2048).step_by(4)))
            .collect();
        let mut master = original.clone();
        for me in [2, 0, 3, 1] {
            let d = encode(&writers[me], &original);
            assert!(matches!(&spans(&d)[..], [(_, mask, _)] if !mask.is_empty()));
            apply(&d, &mut master).unwrap();
        }
        assert_eq!(master, with_words_changed(&original, 0..2048));
    }

    #[test]
    fn apply_rejects_mismatched_length() {
        let twin = to_bytes(&[0; 4]);
        let cur = to_bytes(&[1; 4]);
        let d = encode(&cur, &twin);
        let mut short = to_bytes(&[0; 2]);
        assert!(apply(&d, &mut short).is_err());
    }

    #[test]
    fn apply_rejects_overrunning_run() {
        // Hand-build a malformed wire buffer: claims 4 words but a run of 8.
        let mut bytes = vec![4, 0, 8]; // words, skip, count
        bytes.extend_from_slice(&[0u8; 32]); // 8 words of data
        let mut target = vec![0u8; 16];
        assert_eq!(
            apply(&unchecked(&bytes), &mut target),
            Err(MuninError::ProtocolViolation("diff run overruns object"))
        );
        // from_wire rejects the same framing up front.
        assert_eq!(
            Diff::from_wire(Arc::from(bytes.as_slice())),
            Err(MuninError::ProtocolViolation("diff run overruns object"))
        );
        // So does a skip that jumps past the end: words=4, skip=4, count=1.
        let bytes = [4, 4, 1, 0, 0, 0, 0];
        assert!(apply(&unchecked(&bytes), &mut target).is_err());
        assert!(Diff::from_wire(Arc::from(bytes.as_slice())).is_err());
    }

    #[test]
    fn apply_rejects_truncated_buffer() {
        let twin = random_words(16, 3);
        let cur = random_words(16, 4);
        let d = encode(&cur, &twin);
        let wire = d.as_wire_bytes();
        // No header at all, a run header cut after `skip`, and run data cut
        // mid-word.
        for cut in [0, 2, wire.len() - 3] {
            let mut target = twin.clone();
            assert!(apply(&unchecked(&wire[..cut]), &mut target).is_err());
            assert!(Diff::from_wire(Arc::from(&wire[..cut])).is_err());
        }
    }

    #[test]
    fn from_wire_rejects_malformed_masked_spans() {
        // A good span over 12 words: words 0, 2 and 9 of the span change.
        let good = [&[16u8, 1, 0, 10, 0b0000_0101, 0b10][..], &[7; 12]].concat();
        let d = Diff::from_wire(Arc::from(good.as_slice())).unwrap();
        assert_eq!((d.run_count(), d.changed_words()), (3, 3));
        assert_eq!(spans(&d), [(1, vec![5, 2], vec![0x0707_0707; 3])]);
        let w = |n: usize| vec![7u8; 4 * n];
        let u32_max = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        for (bytes, why) in [
            // `count == 0` and nothing after it: there is no empty run.
            (vec![16, 0, 0], "truncated diff span header"),
            (
                [&[16, 0, 0, 0, 0][..], &w(1)].concat(),
                "diff span under two words",
            ),
            (
                [&[16, 0, 0, 1, 1][..], &w(1)].concat(),
                "diff span under two words",
            ),
            // First bit clear, last bit clear, a padding bit set.
            (
                [&[16, 0, 0, 10, 0b100, 0b10][..], &w(2)].concat(),
                "non-canonical diff mask",
            ),
            (
                [&[16, 0, 0, 10, 0b101, 0b01][..], &w(3)].concat(),
                "non-canonical diff mask",
            ),
            (
                [&[16, 0, 0, 10, 0b101, 0b110][..], &w(4)].concat(),
                "non-canonical diff mask",
            ),
            (vec![16, 0, 0, 10, 0b101], "truncated diff span mask"),
            (
                [&[16, 0, 0, 10, 0b101, 0b10][..], &w(2)].concat(),
                "truncated diff span data",
            ),
            (
                [&[16, 0, 0, 10, 0b101, 0b10][..], &w(3)[..11]].concat(),
                "truncated diff span data",
            ),
            // Words 7..17 of 16, and a `len` no object could hold.
            (
                [&[16, 7, 0, 10, 0b101, 0b10][..], &w(3)].concat(),
                "diff span overruns object",
            ),
            (
                [&[16, 0, 0][..], &u32_max, &[1]].concat(),
                "diff span overruns object",
            ),
            (
                [&u32_max[..], &[1, 0], &u32_max, &[1]].concat(),
                "diff span overruns object",
            ),
            (
                [&u32_max[..], &[0, 0], &u32_max, &[1]].concat(),
                "truncated diff span mask",
            ),
        ] {
            assert_eq!(
                Diff::from_wire(Arc::from(bytes.as_slice())),
                Err(MuninError::ProtocolViolation(why)),
                "{bytes:?}"
            );
            // `apply` holds the same line, and writes nothing of the span.
            let mut target = [0xEEu8; 64];
            assert!(apply(&unchecked(&bytes), &mut target).is_err());
            assert_eq!(target, [0xEE; 64], "{bytes:?}");
        }
        // After a good run or span the next is held to the same: a bare
        // `count == 0`, and a data word too many (a span header cut short).
        for tail in [&[1u8, 0][..], &[7; 4]] {
            let bytes = [&good, tail].concat();
            assert!(Diff::from_wire(Arc::from(bytes.as_slice())).is_err());
            assert!(apply(&unchecked(&bytes), &mut [0u8; 64]).is_err());
        }
    }

    #[test]
    fn varints_round_trip_at_every_length_boundary() {
        let mut expected_len = 1;
        for v in [
            0u32,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            0x1F_FFFF,
            0x20_0000,
            0xFFF_FFFF,
            0x1000_0000,
            u32::MAX,
        ] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, v);
            assert_eq!(bytes.len(), varint_len(v), "{v:#x}");
            assert!(bytes.len() == expected_len || bytes.len() == expected_len + 1);
            expected_len = bytes.len();
            assert_eq!(get_varint(&bytes, 0, "cut"), Ok((v, bytes.len())), "{v:#x}");
            // Every proper prefix is a truncation, reported as the caller's.
            for cut in 0..bytes.len() {
                assert_eq!(
                    get_varint(&bytes[..cut], 0, "cut"),
                    Err(MuninError::ProtocolViolation("cut"))
                );
            }
        }
        assert_eq!(expected_len, MAX_VARINT_LEN);
    }

    #[test]
    fn from_wire_rejects_malformed_varints() {
        let violation = |bytes: &[u8]| match Diff::from_wire(Arc::from(bytes)) {
            Err(MuninError::ProtocolViolation(why)) => why,
            other => panic!("{bytes:?} accepted as {other:?}"),
        };
        // Overlong spellings of 4, as `words`: a canonical encoder writes [4].
        assert_eq!(violation(&[0x84, 0x00]), "non-canonical diff varint");
        assert_eq!(violation(&[0x84, 0x80, 0x00]), "non-canonical diff varint");
        // ... and of a skip of 0 and a count of 1 inside a run.
        assert_eq!(
            violation(&[4, 0x80, 0x00, 1, 0, 0, 0, 0]),
            "non-canonical diff varint"
        );
        assert_eq!(
            violation(&[4, 0, 0x81, 0x00, 0, 0, 0, 0]),
            "non-canonical diff varint"
        );
        // Five bytes whose last carries bits 32 and up.
        assert_eq!(
            violation(&[0xFF, 0xFF, 0xFF, 0xFF, 0x1F]),
            "diff varint overflows u32"
        );
        // A continuation bit on the fifth byte.
        assert_eq!(
            violation(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]),
            "diff varint longer than 5 bytes"
        );
        // The largest `u32` itself is fine.
        let max = Diff::from_wire(Arc::from(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F][..])).unwrap();
        assert_eq!(max.words(), u32::MAX);
        // `apply` holds the same line.
        assert!(apply(&unchecked(&[4, 0x80, 0x00, 1, 0, 0, 0, 0]), &mut [0u8; 16]).is_err());
    }

    /// Skips and counts of 2⁷ and 2¹⁴ words and more take 2- and 3-byte
    /// headers (a 160 000-word object: the size of a matmul input matrix).
    #[test]
    fn multi_byte_headers_round_trip() {
        let words = 160_000usize;
        let twin = random_words(words, 11);
        // Runs: 1 word at 0; 200 words after a skip of 299; 20 000 words
        // after a skip of 19 500; 1 word at the very end.
        let dirty = (0..1)
            .chain(300..500)
            .chain(20_000..40_000)
            .chain(words - 1..words);
        let cur = with_words_changed(&twin, dirty);
        let d = encode(&cur, &twin);
        assert_eq!(
            d.as_wire_bytes(),
            encode_reference(&cur, &twin).as_wire_bytes()
        );
        let shape: Vec<_> = spans(&d)
            .iter()
            .map(|(start, mask, values)| (*start, mask.len(), values.len()))
            .collect();
        let runs = [(0, 1), (300, 200), (20_000, 20_000), (words - 1, 1)];
        assert_eq!(shape, runs.map(|(start, count)| (start, 0, count)));
        assert_eq!(d.words(), words as u32);
        assert_eq!(d.run_count(), 4);
        assert_eq!(d.changed_words(), 20_202);
        // words: 3 bytes; headers 1+1, 2+2, 3+3, 3+1.
        assert_eq!(d.encoded_bytes(), 3 + (2 + 4 + 6 + 4) + 4 * 20_202);
        let rt = Diff::from_wire(Arc::from(d.as_wire_bytes())).unwrap();
        assert_eq!((rt.run_count(), rt.changed_words()), (4, 20_202));
        let mut target = twin.clone();
        apply(&rt, &mut target).unwrap();
        assert_eq!(target, cur);
    }

    #[test]
    fn from_wire_accepts_valid_encoding() {
        let twin = random_words(64, 1);
        let mut cur = twin.clone();
        cur[8..12].copy_from_slice(&9u32.to_le_bytes());
        let d = encode(&cur, &twin);
        let rt = Diff::from_wire(Arc::from(d.as_wire_bytes())).unwrap();
        assert_eq!(rt, d);
        let mut target = twin.clone();
        apply(&rt, &mut target).unwrap();
        assert_eq!(target, cur);
    }

    #[test]
    fn encoded_bytes_tracks_runs_and_data() {
        let twin = to_bytes(&[0; 4]);
        let cur = with_words_changed(&twin, [1]);
        let d = encode(&cur, &twin);
        // words + one run (skip, count: a byte each) + one data word.
        assert_eq!(d.encoded_bytes(), 1 + 2 + 4);
        // Two runs close enough to cluster, too few for a mask to pay: `len`
        // and a mask byte are the two bytes the second header takes.
        let twin = to_bytes(&[0; 8]);
        let cur = with_words_changed(&twin, [1, 3]);
        let d = encode(&cur, &twin);
        assert_eq!(
            spans(&d),
            [(1, vec![], vec![0xA5]), (3, vec![], vec![0xA5])]
        );
        assert_eq!(d.encoded_bytes(), 1 + 2 * (2 + 4));
        // A third makes it strictly shorter: words, then skip, 0, len, one
        // mask byte and three words — 17 bytes, where three runs take 19.
        let cur = with_words_changed(&twin, [1, 3, 5]);
        let d = encode(&cur, &twin);
        assert_eq!(spans(&d), [(1, vec![0b1_0101], vec![0xA5; 3])]);
        assert_eq!((d.run_count(), d.changed_words()), (3, 3));
        assert_eq!(d.encoded_bytes(), 1 + (3 + 1) + 3 * 4);
        // The `wshared` shape: every fourth word of an 8 KB page, one span of
        // 2 045 words. As 512 runs it was 2 + 512 * (2 + 4) = 3074 bytes.
        let twin = random_words(2048, 5);
        let cur = with_words_changed(&twin, (0..2048).step_by(4));
        let d = encode(&cur, &twin);
        assert_eq!((d.run_count(), d.changed_words()), (512, 512));
        assert_eq!(d.encoded_bytes(), 2 + (1 + 1 + 2) + 256 + 512 * 4);
        assert_eq!(d.encoded_bytes(), 2310);
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn encode_panics_on_length_mismatch() {
        let _ = encode(&[0u8; 8], &[0u8; 4]);
    }

    #[test]
    fn cloned_diffs_share_the_buffer() {
        let twin = to_bytes(&[0; 8]);
        let cur = to_bytes(&[1; 8]);
        let d = encode(&cur, &twin);
        let c = d.clone();
        assert!(std::ptr::eq(d.as_wire_bytes(), c.as_wire_bytes()));
        // An equal but separately encoded diff does not share.
        let e = encode(&cur, &twin);
        assert_eq!(d, e);
        assert!(!std::ptr::eq(d.as_wire_bytes(), e.as_wire_bytes()));
    }

    #[test]
    fn scratch_buffer_is_reused_across_encodes() {
        let twin = random_words(512, 7);
        let mut cur = twin.clone();
        cur[100..104].copy_from_slice(&1u32.to_le_bytes());
        let mut scratch = DiffScratch::default();
        let _ = scratch.encode(&cur, &twin);
        let cap = scratch.capacity();
        assert!(cap > 0);
        for _ in 0..10 {
            let _ = scratch.encode(&cur, &twin);
        }
        assert_eq!(
            scratch.capacity(),
            cap,
            "scratch must not reallocate for same-size encodes"
        );
    }

    /// Differential test: the block-skip encoder and the word-by-word
    /// reference encoder produce bit-identical wire buffers over the
    /// patterns the protocol actually generates.
    #[test]
    fn block_skip_matches_reference_encoder() {
        let sizes = [0usize, 1, 2, 31, 32, 33, 63, 64, 65, 96, 256, 1000];
        for (case, &words) in sizes.iter().enumerate() {
            let twin = random_words(words, case as u64 + 1);

            // Identical buffers.
            let cur = twin.clone();
            assert_eq!(
                encode(&cur, &twin).as_wire_bytes(),
                encode_reference(&cur, &twin).as_wire_bytes()
            );

            // Fully dirty.
            let cur = random_words(words, case as u64 + 1000);
            assert_eq!(
                encode(&cur, &twin).as_wire_bytes(),
                encode_reference(&cur, &twin).as_wire_bytes()
            );

            // Sparse: every 37th word flipped.
            let mut cur = twin.clone();
            for w in (0..words).step_by(37) {
                cur[w * 4] ^= 0xFF;
            }
            assert_eq!(
                encode(&cur, &twin).as_wire_bytes(),
                encode_reference(&cur, &twin).as_wire_bytes()
            );

            // Run boundaries straddling block edges: dirty stripes around
            // every multiple of BLOCK_WORDS.
            let mut cur = twin.clone();
            for w in 0..words {
                let m = w % BLOCK_WORDS;
                if m == 0 || m == BLOCK_WORDS - 1 {
                    cur[w * 4 + 1] ^= 0x5A;
                }
            }
            assert_eq!(
                encode(&cur, &twin).as_wire_bytes(),
                encode_reference(&cur, &twin).as_wire_bytes()
            );

            // Random mask (~1/3 words changed).
            let mut cur = twin.clone();
            let mut state = 0xDEAD_BEEF_u64.wrapping_add(case as u64);
            for w in 0..words {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state.is_multiple_of(3) {
                    cur[w * 4 + 2] = cur[w * 4 + 2].wrapping_add(1);
                }
            }
            assert_eq!(
                encode(&cur, &twin).as_wire_bytes(),
                encode_reference(&cur, &twin).as_wire_bytes()
            );
        }
    }

    /// Round-trip: encode with either encoder, apply to a copy of the twin,
    /// and recover `current` exactly.
    #[test]
    fn round_trip_reconstructs_current() {
        for words in [1usize, 31, 32, 33, 128, 999] {
            let twin = random_words(words, words as u64);
            let mut cur = twin.clone();
            let mut state = words as u64;
            for w in 0..words {
                state = state.wrapping_mul(48271) % 0x7FFF_FFFF;
                if state.is_multiple_of(4) {
                    cur[w * 4..w * 4 + 4].copy_from_slice(&(state as u32).to_le_bytes());
                }
            }
            for d in [encode(&cur, &twin), encode_reference(&cur, &twin)] {
                let mut target = twin.clone();
                apply(&d, &mut target).unwrap();
                assert_eq!(target, cur, "{words} words");
            }
        }
    }
}
