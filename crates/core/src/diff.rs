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
//! on the wire — a header and then spans of three kinds, in any mix:
//!
//! ```text
//! ┌───────┬──────┬───────┬────────────────┬──────┬───┬─────┬───────────┬────────┬──
//! │ words │ skip │ count │ count*4 data … │ skip │ 0 │ len │ ⌈len/8⌉ B │ data … │ …
//! └───────┴──────┴───────┴────────────────┴──────┴───┴─────┴───────────┴────────┴──
//!   header └───────────── run ───────────┘ └──────────── masked span ───────────┘
//! ```
//!
//! * `words`, `skip`, `count`, `len` and `p` are canonical LEB128 varints of
//!   a `u32`: seven value bits per byte, least significant group first, the
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
//! * A *periodic span*, `skip, 0, 0, p, len`, `⌈p/8⌉` bytes and the data (a
//!   zero `len` no masked span has): a masked span whose mask repeats its
//!   first `p` bits, `2 ≤ p < len`, and that states only those — word `i` of
//!   the span changed when bit `i mod p` is set. Its first bit and bit
//!   `(len − 1) mod p` are set, and the bits padding its last byte clear.
//!
//! The paper's worst case (Table 2) is a page of minimum-length runs: four
//! writers striding an 8 KB page change every fourth word each, and 512
//! two-byte run headers say what a 256-byte mask says as well — and what one
//! byte of it says, four bits repeated. So a *cluster* — a run of at most
//! [`CLUSTER_REACH`] words, and every next run whose gap and count together
//! are at most that — travels as one masked span when that is strictly
//! shorter than its runs, and then as a periodic one when its mask has a
//! period that is strictly shorter still (the smallest, `p ≥ 2`): 2 057 bytes
//! for the strided page where a mask took 2 310 and runs 3 074. The encoder
//! decides by exact byte count, so no diff is longer than runs alone would
//! make it, one without such a cluster is the bytes it always was, and one
//! set of changed words has one encoding (a decoder accepts any valid mix).
//!
//! No kind of span carries a word this node did not write. Merging runs
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

/// Rising edges and set bits among the first `n` bits of `mask`, the bit
/// before them counted clear.
fn mask_counts(mask: &[u8], n: usize) -> (usize, usize) {
    let (mut rises, mut ones, mut carry) = (0, 0, 0);
    for (i, m) in mask_chunks(&mask[..n.div_ceil(8)]).enumerate() {
        let m = m & u64::MAX >> (64 - (n - 64 * i).min(64));
        ones += m.count_ones() as usize;
        rises += (m & !(m << 1 | carry)).count_ones() as usize;
        carry = m >> 63;
    }
    (rises, ones)
}

/// Walks the spans that start at `pos`, checking the framing against an object
/// of `words` words, and hands `visit` each as [`Diff::for_each_span`] says —
/// after every check on it, so nothing of a malformed span is ever installed.
/// Returns the run and changed-word counts. The one walker behind both
/// [`Diff::from_wire`] and [`apply`], so what the first accepts and the
/// second installs cannot drift apart.
#[inline]
fn walk_spans(
    bytes: &[u8],
    mut pos: usize,
    words: u32,
    mut visit: impl FnMut(usize, &[u8], usize, &[u8]),
) -> Result<(u32, u32)> {
    let (mut word_idx, mut runs, mut changed) = (0u64, 0u32, 0u64);
    // Sizes stay in `u64` until checked against what is left of the buffer,
    // so a hostile header cannot wrap a 32-bit `usize`.
    let left = |at: usize| (bytes.len() - at) as u64;
    let header = |at| get_varint(bytes, at, "truncated diff span header");
    while pos < bytes.len() {
        let (skip, at) = header(pos)?;
        let (count, at) = header(at)?;
        let start = word_idx + skip as u64;
        if count > 0 {
            check(left(at) >= count as u64 * 4, "truncated diff run data")?;
            word_idx = start + count as u64;
            check(word_idx <= words as u64, "diff run overruns object")?;
            pos = at + count as usize * 4;
            visit(start as usize, &[], count as usize, &bytes[at..pos]);
            runs += 1;
            changed += count as u64;
            continue;
        }
        // `count == 0` is no run (an empty one would let `is_empty()`
        // disagree with `changed_words()`): it introduces a masked span, and
        // a zero where its `len` would be, a periodic one.
        let (period, len, at) = match header(at)? {
            (0, at) => {
                let (period, at) = header(at)?;
                let (len, at) = header(at)?;
                check(2 <= period && period < len, "diff span period out of range")?;
                (period, len, at)
            }
            (len, at) => {
                check(len >= 2, "diff span under two words")?;
                (len, len, at)
            }
        };
        word_idx = start + len as u64;
        check(word_idx <= words as u64, "diff span overruns object")?;
        let (period, len) = (period as usize, len as usize);
        let mask_len = period.div_ceil(8);
        check(left(at) >= mask_len as u64, "truncated diff span mask")?;
        let (mask, data) = bytes[at..].split_at(mask_len);
        // The span is `reps` whole masks and the first `rem` bits of one more.
        let (reps, rem) = match period == len {
            true => (1, 0),
            false => (len / period, len % period),
        };
        // First and last word changed, padding clear: `skip`, `len` and
        // maximality then mean for a span what they mean for a run.
        let bit = |i: usize| mask[i / 8] >> (i % 8) & 1 == 1;
        let ends_set = bit(0) && bit(if rem == 0 { period } else { rem } - 1);
        let padded = mask[mask_len - 1] >> ((period - 1) % 8) < 2;
        check(ends_set && padded, "non-canonical diff mask")?;
        // A run begins at each set bit whose predecessor is clear, so where
        // the mask ends on a set bit, each mask after the first continues
        // the run before it.
        let (whole, part) = (mask_counts(mask, period), mask_counts(mask, rem));
        let joined = (reps - (rem == 0) as usize) * bit(period - 1) as usize;
        let ones = reps * whole.1 + part.1;
        check(data.len() / 4 >= ones, "truncated diff span data")?;
        pos = at + mask_len + ones * 4;
        visit(start as usize, mask, period, &data[..ones * 4]);
        runs += (reps * whole.0 + part.0 - joined) as u32;
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
    /// is not canonical, a masked span covers fewer than two words, a
    /// periodic one has a period under two words or not under its length, a
    /// mask does not begin and end on a changed word with clear padding, or
    /// a span overruns the object length declared in the header.
    pub fn from_wire(bytes: Arc<[u8]>) -> Result<Diff> {
        let (words, body) = get_varint(&bytes, 0, "truncated diff header")?;
        let (runs, changed) = walk_spans(&bytes, body, words, |_, _, _, _| {})?;
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
    /// words all changed), the period the mask repeats with (the span's
    /// length, where it does not repeat) and the new values of its changed
    /// words.
    pub fn for_each_span(&self, visit: impl FnMut(usize, &[u8], usize, &[u8])) {
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
    /// words and every bit is one word's comparison, so the output is what
    /// the format's definition, applied word by word, writes (the reference
    /// encoder `tests/properties.rs` holds it to).
    ///
    /// # Panics
    ///
    /// Panics if the two buffers differ in length, are not word-aligned or
    /// hold 2³² words or more; objects are always padded to a word multiple
    /// when the segment is laid out.
    pub fn encode(&mut self, current: &[u8], twin: &[u8]) -> Diff {
        assert_eq!(current.len(), twin.len(), "twin must be the same size");
        assert_eq!(current.len() % 4, 0, "objects are word-aligned");
        let words = current.len() / 4;
        assert!(u32::try_from(words).is_ok(), "objects are below 2^32 words");
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

/// The period a masked span over bits `start..end` goes out with: the
/// smallest `p ≥ 2` whose first `p` bits the span repeats, if stating only
/// those is strictly shorter (so `p + 16 < len`). One [`window`] shifted
/// eight ways finds where the first eight bits come round again among 48
/// positions; only there is the span compared with itself shifted by `p`.
/// Where that first differs, at `m`, no period lies in `p..=m` (Fine and
/// Wilf; DESIGN.md), so the search goes on past `m`.
fn period(bits: &[u8], start: usize, end: usize) -> Option<usize> {
    let shorter = |p: usize| 1 + varint_len(p as u32) + p.div_ceil(8) < (end - start).div_ceil(8);
    let head = window(bits, start);
    let mut from = 2;
    'positions: while shorter(from) {
        let w = window(bits, start + from);
        // Bit `j` of the span, all ones or all zeros, against `w >> j`.
        let same = |j: usize| !(w >> j ^ (head >> j & 1).wrapping_neg());
        let mut candidates = (1..8).fold(w & ((1 << (WINDOW - 8)) - 1), |c, j| c & same(j));
        while candidates != 0 {
            let p = from + candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            if !shorter(p) {
                return None;
            }
            let (mut i, mut differ) = (start, 0);
            while i < end - p && differ == 0 {
                differ = window(bits, i) ^ window(bits, i + p);
                differ &= (1 << WINDOW.min(end - p - i)) - 1;
                i += WINDOW;
            }
            if differ == 0 {
                return Some(p);
            }
            let m = i - WINDOW - start + differ.trailing_zeros() as usize;
            if m > p {
                from = m + 1;
                continue 'positions;
            }
        }
        from += WINDOW - 8;
    }
    None
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
            // Masked when strictly shorter: every gap and count in a cluster
            // fits a byte, so each run after the first costs two header bytes,
            // and the span pays `len` and the mask (its zero `count` stands
            // where the first run's was).
            let len = end - p;
            if varint_len(len as u32) + len.div_ceil(8) + 2 < 2 * runs {
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

    /// Appends bits `start..end` of `bits` as one masked span: the mask —
    /// or its period and the first period of it, where that is shorter —
    /// cut out of the bitmap a byte at a time, then the set-bit words.
    fn masked(&mut self, base: usize, bits: &[u8], start: usize, end: usize) {
        put_varint(self.buf, (base + start - self.last_end) as u32);
        self.buf.push(0);
        let period = period(bits, start, end);
        if let Some(p) = period {
            self.buf.push(0);
            put_varint(self.buf, p as u32);
        }
        let cut = start + period.unwrap_or(end - start);
        put_varint(self.buf, (end - start) as u32);
        // The `n <= 64` bits from `p` on that lie below `to`.
        let below =
            |p: usize, n: usize, to: usize| window(bits, p) & (u64::MAX >> (64 - n.min(to - p)));
        for p in (start..cut).step_by(8) {
            self.buf.push(below(p, 8, cut) as u8);
        }
        let data_at = self.buf.len();
        for p in (start..end).step_by(WINDOW) {
            let mut w = below(p, WINDOW, end);
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

/// Applies `diff` to `target`, overwriting the words the diff marks as
/// changed — a run with one `copy_from_slice` straight off the wire buffer,
/// a masked span set bit by set bit, never a word whose bit is clear, and a
/// periodic one straight off its period's bits, never expanded to a mask.
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
    walk_spans(bytes, body, words, |start, mask, period, data| {
        let at = start * 4;
        if mask.is_empty() {
            match <[u8; 4]>::try_from(data) {
                // A one-word run (a sparse diff's usual kind) is a single
                // store, not a call into `memcpy`.
                Ok(word) => target[at..at + 4].copy_from_slice(&word),
                Err(_) => target[at..at + data.len()].copy_from_slice(data),
            }
            return;
        }
        // A short mask is repeated in a register, doubled while it fits, and
        // walked as one chunk; a long one chunk by chunk, period by period.
        // The walk ends with the values, which the walker counted.
        let (mut reg, mut step) = (mask_chunks(mask).next().unwrap_or(0), period);
        while step <= 32 {
            (reg, step) = (reg | reg << step, 2 * step);
        }
        let reg = reg.to_le_bytes();
        let mask = if period <= 64 { &reg[..] } else { mask };
        let (mut values, mut k) = (data.chunks_exact(4), 0);
        'span: loop {
            for (c, mut m) in mask_chunks(mask).enumerate() {
                while m != 0 {
                    let Some(value) = values.next() else {
                        break 'span;
                    };
                    let to = at + (k + 64 * c + m.trailing_zeros() as usize) * 4;
                    target[to..to + 4].copy_from_slice(value);
                    m &= m - 1;
                }
            }
            k += step;
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DiffScratch {
        /// Current capacity of the scratch in bytes: the tests assert the
        /// buffer is reused across flushes.
        pub(crate) fn capacity(&self) -> usize {
            self.buf.capacity()
        }
    }

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

    /// The spans of `d` as `(first word, mask, period, changed words)`.
    fn spans(d: &Diff) -> Vec<(usize, Vec<u8>, usize, Vec<u32>)> {
        let mut out = Vec::new();
        d.for_each_span(|start, mask, period, data| {
            let values = data
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(w.try_into().unwrap()));
            out.push((start, mask.to_vec(), period, values.collect()));
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
        assert_eq!(spans(&d), [(3, vec![], 1, vec![7])]);
        assert_eq!(d.changed_words(), 1);
    }

    #[test]
    fn every_word_changed_is_one_big_run() {
        let twin = to_bytes(&[0; 16]);
        let cur = to_bytes(&[9; 16]);
        let d = encode(&cur, &twin);
        assert_eq!(d.run_count(), 1);
        assert_eq!(spans(&d), [(0, vec![], 16, vec![9; 16])]);
        assert_eq!(d.changed_words(), 16);
    }

    #[test]
    fn alternate_words_is_worst_case_run_count() {
        // "In the third every other word has changed which is the worst case
        // for our run-length encoding scheme because there are a maximum
        // number of minimum-length runs."
        // Still the maximum number of runs, and what the cost model charges
        // for; on the wire they are one periodic span over words 0..=2046,
        // its mask the two bits `01` (its exact size is pinned with Table 2's
        // other patterns in `tests/properties.rs`).
        let twin = random_words(2048, 9);
        let cur = with_words_changed(&twin, (0..2048).step_by(2));
        let d = encode(&cur, &twin);
        assert_eq!((d.run_count(), d.changed_words()), (1024, 1024));
        let [(0, mask, 2, values)] = &spans(&d)[..] else {
            panic!("one span at word 0, of period 2");
        };
        assert_eq!(mask, &[0b01]);
        assert_eq!(values.len(), 1024);
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

        // The same through periodic spans: four writers stride a page, each
        // diff is one span of period 4 covering the other three's words, and
        // a span writes its own words only — in whatever order they land.
        // So does a period longer than a register's 64 bits.
        for (stride, page) in [(4, 2048), (70, 4096)] {
            let original = random_words(page, 21);
            let writers: Vec<Vec<u8>> = (0..4)
                .map(|me| {
                    let mine = (0..page).filter(|w| w % stride % 4 == me && w % stride % 8 < 6);
                    with_words_changed(&original, mine)
                })
                .collect();
            let mut master = original.clone();
            for me in [2, 0, 3, 1] {
                let d = encode(&writers[me], &original);
                assert!(matches!(&spans(&d)[..], [(_, _, p, _)] if *p == stride));
                apply(&d, &mut master).unwrap();
            }
            let all = (0..page).filter(|w| w % stride % 8 < 6);
            assert_eq!(master, with_words_changed(&original, all));
        }
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
        assert_eq!(spans(&d), [(1, vec![5, 2], 10, vec![0x0707_0707; 3])]);
        // A good periodic span over 10 words, period 3, mask `101`: words
        // 0, 2-3, 5-6 and 8-9 of the span change, four runs of seven words.
        let periodic = [&[16u8, 1, 0, 0, 3, 10, 0b101][..], &[7; 28]].concat();
        let d = Diff::from_wire(Arc::from(periodic.as_slice())).unwrap();
        assert_eq!((d.run_count(), d.changed_words()), (4, 7));
        assert_eq!(spans(&d), [(1, vec![0b101], 3, vec![0x0707_0707; 7])]);
        let mut target = [0xEEu8; 64];
        apply(&d, &mut target).unwrap();
        let written: Vec<usize> = (0..16).filter(|w| target[w * 4] == 7).collect();
        assert_eq!(written, [1, 3, 4, 6, 7, 9, 10]);
        let w = |n: usize| vec![7u8; 4 * n];
        let u32_max = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        for (bytes, why) in [
            // `count == 0` and nothing after it: there is no empty run.
            (vec![16, 0, 0], "truncated diff span header"),
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
            // Periodic: a period of 0 or 1, or not under the span's length.
            (
                [&[16, 0, 0, 0, 0][..], &w(1)].concat(),
                "diff span period out of range",
            ),
            (
                [&[16, 0, 0, 0, 1, 10, 0b1][..], &w(10)].concat(),
                "diff span period out of range",
            ),
            (
                [&[16, 0, 0, 0, 10, 10, 0b101, 0b10][..], &w(3)].concat(),
                "diff span period out of range",
            ),
            (vec![16, 0, 0, 0, 3], "truncated diff span header"),
            // Nine bits of period in one byte.
            (vec![16, 0, 0, 0, 9, 10, 0b1], "truncated diff span mask"),
            // First bit clear, word `len - 1` clear (bit 8 mod 3), a
            // padding bit set.
            (
                [&[16, 0, 0, 0, 3, 10, 0b110][..], &w(7)].concat(),
                "non-canonical diff mask",
            ),
            (
                [&[16, 0, 0, 0, 3, 9, 0b011][..], &w(6)].concat(),
                "non-canonical diff mask",
            ),
            (
                [&[16, 0, 0, 0, 3, 10, 0b1101][..], &w(7)].concat(),
                "non-canonical diff mask",
            ),
            (
                [&[16, 0, 0, 0, 3, 10, 0b101][..], &w(6)].concat(),
                "truncated diff span data",
            ),
            // Words 7..17 of 16.
            (
                [&[16, 7, 0, 0, 3, 10, 0b101][..], &w(7)].concat(),
                "diff span overruns object",
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
            for good in [&good, &periodic] {
                let bytes = [good, tail].concat();
                assert!(Diff::from_wire(Arc::from(bytes.as_slice())).is_err());
                assert!(apply(&unchecked(&bytes), &mut [0u8; 64]).is_err());
            }
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
        let shape: Vec<_> = spans(&d)
            .iter()
            .map(|(start, mask, _, values)| (*start, mask.len(), values.len()))
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
            [(1, vec![], 1, vec![0xA5]), (3, vec![], 1, vec![0xA5])]
        );
        assert_eq!(d.encoded_bytes(), 1 + 2 * (2 + 4));
        // A third makes it strictly shorter: words, then skip, 0, len, one
        // mask byte and three words — 17 bytes, where three runs take 19.
        let cur = with_words_changed(&twin, [1, 3, 5]);
        let d = encode(&cur, &twin);
        assert_eq!(spans(&d), [(1, vec![0b1_0101], 5, vec![0xA5; 3])]);
        assert_eq!((d.run_count(), d.changed_words()), (3, 3));
        assert_eq!(d.encoded_bytes(), 1 + (3 + 1) + 3 * 4);
        // A mask that repeats goes periodic once that is strictly shorter:
        // `0, p` and one pattern byte against the mask's bytes. Every other
        // word over 23 words takes three mask bytes, and stays a mask; over
        // 25 words it takes four, and goes out as period 2 and `01`.
        let twin = to_bytes(&[0; 32]);
        let cur = with_words_changed(&twin, (1..=23).step_by(2));
        let d = encode(&cur, &twin);
        assert!(matches!(&spans(&d)[..], [(1, mask, 23, _)] if mask.len() == 3));
        assert_eq!(d.encoded_bytes(), 1 + (3 + 3) + 12 * 4);
        let cur = with_words_changed(&twin, (1..=25).step_by(2));
        let d = encode(&cur, &twin);
        assert_eq!(spans(&d), [(1, vec![0b01], 2, vec![0xA5; 13])]);
        assert_eq!((d.run_count(), d.changed_words()), (13, 13));
        assert_eq!(d.encoded_bytes(), 1 + (5 + 1) + 13 * 4);
        // The `wshared` shape: every fourth word of an 8 KB page, one span of
        // 2 045 words and period 4. As 512 runs it was 2 + 512 * (2 + 4) =
        // 3 074 bytes, and as a 256-byte mask 2 310.
        let twin = random_words(2048, 5);
        let cur = with_words_changed(&twin, (0..2048).step_by(4));
        let d = encode(&cur, &twin);
        assert_eq!((d.run_count(), d.changed_words()), (512, 512));
        assert_eq!(d.encoded_bytes(), 2 + (1 + 1 + 1 + 1 + 2) + 1 + 512 * 4);
        assert_eq!(d.encoded_bytes(), 2057);
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

    /// Round-trip: encode, apply to a copy of the twin, and recover
    /// `current` exactly.
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
            let mut target = twin.clone();
            apply(&encode(&cur, &twin), &mut target).unwrap();
            assert_eq!(target, cur, "{words} words");
        }
    }
}
