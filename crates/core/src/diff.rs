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
//! on the wire:
//!
//! ```text
//! ┌───────┬──────┬───────┬─────────────────┬──────┬───────┬──────────┬──
//! │ words │ skip │ count │ count*4 data …  │ skip │ count │ data …   │ …
//! └───────┴──────┴───────┴─────────────────┴──────┴───────┴──────────┴──
//!   header └──────────── run 0 ───────────┘ └──────────── run 1 ──────…
//! ```
//!
//! * `words`, `skip` and `count` are canonical LEB128 varints of a `u32`:
//!   seven value bits per byte, least significant group first, the high bit
//!   set on every byte but the last, never more bytes than the value needs
//!   (1 byte below 2⁷, 2 below 2¹⁴, … at most [`MAX_VARINT_LEN`]). Canonical
//!   matters: one run set has one encoding, so byte equality of two `Diff`s
//!   is equality of their runs.
//! * `words` — length of the object in 32-bit words (validates application).
//! * Each run: `skip` identical words, then `count` differing words whose new
//!   values follow inline as little-endian words. Runs are maximal:
//!   `count > 0` always, and two consecutive runs are separated by at least
//!   one identical word (`skip > 0` for every run but possibly the first).
//!
//! The paper's worst case (Table 2) is a page of minimum-length runs, which
//! is why the headers are varints and not two fixed `u32`s: a run of one word
//! on an 8 KB page costs 2 header bytes, not 8, so four writers striding one
//! page send 2 + 512 · (2 + 4) bytes each. Every field of an object under 2²⁸
//! words fits four bytes, so no such diff is longer than fixed-width headers
//! would make it.
//!
//! Runs are never merged across a short gap by sending the unchanged words
//! in between, although that would save headers: a diff may only carry words
//! this node wrote. Another node may be writing the gap words concurrently
//! (`write_shared` allows it), and a payload that carried this node's stale
//! view of them would overwrite that write at every receiver
//! (`apply_merges_disjoint_concurrent_writes`).
//!
//! Because the encoding *is* the wire representation, sending a diff to N
//! destinations shares one buffer behind an [`Arc`] instead of deep-cloning
//! nested run vectors, and [`apply`] copies whole runs with
//! `copy_from_slice` straight off the buffer. The run and changed-word
//! counts the cost model charges for are counted once, by whoever walks the
//! buffer first (the encoder, or [`Diff::from_wire`]'s validation), and
//! carried beside the buffer.
//!
//! # Block-skip encoding
//!
//! [`DiffScratch::encode`] compares [`BLOCK_WORDS`]-word (128-byte) blocks
//! via slice equality first — `memcmp` speed — and only drops to `u64` lanes
//! and then single words inside a block that differs. Identical regions, the
//! common case for sparse diffs like SOR edge exchanges, are skipped at
//! memory bandwidth. This is safe because block comparison is only used to
//! *find* the next differing word; run boundaries are always determined at
//! word granularity, so the output is bit-identical to the word-by-word
//! reference encoder ([`encode_reference`]).
//!
//! See `DESIGN.md` for the full layout rationale and invariants.

use std::sync::Arc;

use crate::error::{MuninError, Result};
use crate::object::ObjectId;

/// Words per comparison block: 32 words = 128 bytes.
pub const BLOCK_WORDS: usize = 32;

/// Longest varint the format allows: ⌈32 / 7⌉ bytes hold any `u32`.
pub const MAX_VARINT_LEN: usize = 5;

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

/// Appends `v` as a canonical LEB128 varint. Almost every header on an 8 KB
/// page fits one byte, so that case stays inline and branch-predictable.
#[inline]
fn put_varint(buf: &mut Vec<u8>, v: u32) {
    if v < 0x80 {
        buf.push(v as u8);
    } else {
        put_varint_general(buf, v);
    }
}

/// The plain LEB128 loop, for any `v`.
fn put_varint_general(buf: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
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
        let Some(&b) = bytes.get(pos + i) else {
            return Err(MuninError::ProtocolViolation(truncated));
        };
        let group = (b & 0x7F) as u32;
        if i == MAX_VARINT_LEN - 1 && group > 0x0F {
            return Err(MuninError::ProtocolViolation("diff varint overflows u32"));
        }
        value |= group << (7 * i);
        if b < 0x80 {
            if i > 0 && b == 0 {
                return Err(MuninError::ProtocolViolation("non-canonical diff varint"));
            }
            return Ok((value, pos + i + 1));
        }
    }
    Err(MuninError::ProtocolViolation(
        "diff varint longer than 5 bytes",
    ))
}

/// Reads the `words` header, returning the object length in words and the
/// position of the first run.
#[inline]
fn read_header(bytes: &[u8]) -> Result<(u32, usize)> {
    get_varint(bytes, 0, "truncated diff header")
}

/// Walks the runs that start at `pos`, checking the framing against an object
/// of `words` words, and hands `visit` the first word index and the data
/// bytes of each. Returns the run and changed-word counts. The one walker
/// behind both [`Diff::from_wire`] and [`apply`], so what the first accepts
/// and the second installs cannot drift apart.
#[inline]
fn walk_runs(
    bytes: &[u8],
    mut pos: usize,
    words: u32,
    mut visit: impl FnMut(usize, &[u8]),
) -> Result<(u32, u32)> {
    let mut word_idx = 0u64;
    let mut runs = 0u32;
    let mut changed = 0u64;
    while pos < bytes.len() {
        let (skip, at) = get_varint(bytes, pos, "truncated diff run header")?;
        let (count, at) = get_varint(bytes, at, "truncated diff run header")?;
        if count == 0 {
            // The encoder never emits empty runs; accepting one would let
            // `is_empty()` disagree with `changed_words()`.
            return Err(MuninError::ProtocolViolation("empty diff run"));
        }
        // In `u64`, so a hostile header cannot wrap a 32-bit `usize`.
        if ((bytes.len() - at) as u64) < count as u64 * 4 {
            return Err(MuninError::ProtocolViolation("truncated diff run data"));
        }
        let start = word_idx + skip as u64;
        word_idx = start + count as u64;
        if word_idx > words as u64 {
            return Err(MuninError::ProtocolViolation("diff run overruns object"));
        }
        pos = at + count as usize * 4;
        visit(start as usize, &bytes[at..pos]);
        runs += 1;
        changed += count as u64;
    }
    // `changed <= words`: every run was checked against it.
    Ok((runs, changed as u32))
}

/// A run-length encoded diff of an object against its twin, stored in its
/// flat wire format behind an [`Arc`] so multi-destination fan-out shares
/// one encoding.
#[derive(Clone, Debug)]
pub struct Diff {
    bytes: Arc<[u8]>,
    /// The decoded `words` header.
    words: u32,
    /// Number of runs in `bytes`.
    runs: u32,
    /// Total `count` over the runs.
    changed: u32,
}

impl PartialEq for Diff {
    fn eq(&self, other: &Self) -> bool {
        // The counts are a function of the bytes.
        self.bytes == other.bytes
    }
}

impl Eq for Diff {}

impl Diff {
    /// An empty diff (no changed words) for an object of `words` words.
    pub fn empty(words: u32) -> Diff {
        let mut buf = Vec::with_capacity(MAX_VARINT_LEN);
        put_varint(&mut buf, words);
        Diff {
            bytes: Arc::from(buf),
            words,
            runs: 0,
            changed: 0,
        }
    }

    /// Wraps bytes received from the wire, validating the framing.
    ///
    /// # Errors
    ///
    /// Returns [`MuninError::ProtocolViolation`] if the buffer is truncated,
    /// a varint is longer than [`MAX_VARINT_LEN`] bytes, overflows `u32` or
    /// is not canonical, a run is empty, or a run overruns the object length
    /// declared in the header.
    pub fn from_wire(bytes: Arc<[u8]>) -> Result<Diff> {
        let (words, body) = read_header(&bytes)?;
        let (runs, changed) = walk_runs(&bytes, body, words, |_, _| {})?;
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

    /// Number of runs in the encoding. Counted when the diff was encoded or
    /// validated, not by walking the buffer.
    pub fn run_count(&self) -> usize {
        self.runs as usize
    }

    /// Size of the encoding on the wire: the buffer length itself (the
    /// `words` varint plus two varints and the data words of every run).
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Iterates the runs, yielding borrowed views straight off the buffer.
    pub fn runs(&self) -> Runs<'_> {
        Runs {
            rest: &self.bytes[varint_len(self.words)..],
        }
    }

    /// Whether two diffs share the same underlying buffer (one encoding
    /// fanned out to several destinations).
    pub fn shares_buffer(&self, other: &Diff) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }
}

/// One run of a [`Diff`], borrowed from the wire buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunRef<'a> {
    /// Number of identical (unchanged) words preceding the differing words.
    pub skip: u32,
    /// New values of the differing words, as word-aligned little-endian
    /// bytes (`4 * count` long).
    pub data: &'a [u8],
}

impl RunRef<'_> {
    /// The differing words decoded to `u32` values (allocates; use `data`
    /// directly on hot paths).
    pub fn words(&self) -> Vec<u32> {
        self.data
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

/// Iterator over the runs of a [`Diff`].
pub struct Runs<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Runs<'a> {
    type Item = RunRef<'a>;

    fn next(&mut self) -> Option<RunRef<'a>> {
        if self.rest.is_empty() {
            return None;
        }
        // Diffs are validated on construction, so a well-formed buffer never
        // ends or goes wrong mid-run; stop defensively if one somehow does.
        let rest = self.rest;
        self.rest = &[];
        let (skip, at) = get_varint(rest, 0, "truncated diff run header").ok()?;
        let (count, at) = get_varint(rest, at, "truncated diff run header").ok()?;
        let data_end = at.checked_add(count as usize * 4)?;
        let data = rest.get(at..data_end)?;
        self.rest = &rest[data_end..];
        Some(RunRef { skip, data })
    }
}

/// Reusable encoding buffer: one per node, so repeated DUQ flushes perform
/// no per-run heap allocations (the scratch grows to the high-water mark and
/// stays there).
#[derive(Debug, Default)]
pub struct DiffScratch {
    buf: Vec<u8>,
}

impl DiffScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacity of the scratch in bytes (observable for tests that
    /// assert the buffer is reused across flushes).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Computes the run-length encoded diff of `current` against `twin`,
    /// writing the flat wire format into the reused scratch buffer and
    /// returning it as a shareable [`Diff`].
    ///
    /// Identical regions are skipped with [`BLOCK_WORDS`]-word block
    /// comparisons (and `u64` lanes inside a differing block); run
    /// boundaries are resolved at word granularity, so the output is
    /// identical to [`encode_reference`].
    ///
    /// # Panics
    ///
    /// Panics if the two buffers differ in length, are not word-aligned or
    /// hold 2³² words or more; objects are always padded to a word multiple
    /// when the segment is laid out.
    pub fn encode(&mut self, current: &[u8], twin: &[u8]) -> Diff {
        let words = checked_words(current, twin);
        let buf = &mut self.buf;
        buf.clear();
        put_varint(buf, words as u32);

        let mut i = 0usize; // word cursor
        let mut last_end = 0usize; // one past the previous run's last word
        let mut runs = 0u32;
        let mut changed = 0usize;
        while i < words {
            i = next_mismatch(current, twin, i, words);
            if i == words {
                break;
            }
            let start = i;
            while i < words && current[i * 4..i * 4 + 4] != twin[i * 4..i * 4 + 4] {
                i += 1;
            }
            let (skip, count) = (start - last_end, i - start);
            if count == 1 && skip < 0x80 {
                // The minimum-length run after a short gap — all there is in
                // a strided page, Table 2's worst case — is one six-byte
                // store instead of three appends: 16% faster than the
                // fixed-width format was on alternate words, where the three
                // appends (single-byte varints included) are 11% slower.
                let d = &current[start * 4..start * 4 + 4];
                buf.extend_from_slice(&[skip as u8, 1, d[0], d[1], d[2], d[3]]);
            } else {
                put_varint(buf, skip as u32);
                put_varint(buf, count as u32);
                buf.extend_from_slice(&current[start * 4..i * 4]);
            }
            last_end = i;
            runs += 1;
            changed += i - start;
        }
        Diff {
            bytes: Arc::from(buf.as_slice()),
            words: words as u32,
            runs,
            changed: changed as u32,
        }
    }
}

/// The common preconditions of both encoders; returns the length in words.
fn checked_words(current: &[u8], twin: &[u8]) -> usize {
    assert_eq!(
        current.len(),
        twin.len(),
        "object and twin must be the same size"
    );
    assert_eq!(current.len() % 4, 0, "objects are word-aligned");
    let words = current.len() / 4;
    assert!(u32::try_from(words).is_ok(), "objects are below 2^32 words");
    words
}

/// Advances `i` to the next word where `current` and `twin` differ, or to
/// `words` if the tails are identical. Whole [`BLOCK_WORDS`] blocks are
/// compared with slice equality (memcmp), then `u64` lanes, then words.
#[inline]
fn next_mismatch(current: &[u8], twin: &[u8], mut i: usize, words: usize) -> usize {
    const BLOCK_BYTES: usize = BLOCK_WORDS * 4;
    while i + BLOCK_WORDS <= words {
        let at = i * 4;
        if current[at..at + BLOCK_BYTES] != twin[at..at + BLOCK_BYTES] {
            break;
        }
        i += BLOCK_WORDS;
    }
    while i + 2 <= words {
        let at = i * 4;
        let a = u64::from_le_bytes(current[at..at + 8].try_into().unwrap());
        let b = u64::from_le_bytes(twin[at..at + 8].try_into().unwrap());
        if a != b {
            break;
        }
        i += 2;
    }
    while i < words && current[i * 4..i * 4 + 4] == twin[i * 4..i * 4 + 4] {
        i += 1;
    }
    i
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
    DiffScratch::new().encode(current, twin)
}

/// Reference word-by-word encoder: the straightforward implementation of the
/// paper's description, with no block skipping and no single-byte varint
/// shortcut. Produces bit-identical output to [`DiffScratch::encode`]; kept
/// as the oracle for differential tests and as the baseline in the
/// `micro_diff` benchmark.
///
/// # Panics
///
/// Panics if the two buffers differ in length, are not word-aligned or hold
/// 2³² words or more.
pub fn encode_reference(current: &[u8], twin: &[u8]) -> Diff {
    let words = checked_words(current, twin);
    let mut buf = Vec::new();
    put_varint_general(&mut buf, words as u32);
    let mut runs = 0u32;
    let mut changed = 0usize;
    let mut last_end = 0usize;
    let mut emit = |start: usize, end: usize| {
        put_varint_general(&mut buf, (start - last_end) as u32);
        put_varint_general(&mut buf, (end - start) as u32);
        buf.extend_from_slice(&current[start * 4..end * 4]);
        last_end = end;
        runs += 1;
        changed += end - start;
    };
    let mut run_start: Option<usize> = None;
    for w in 0..words {
        let differs = current[w * 4..w * 4 + 4] != twin[w * 4..w * 4 + 4];
        match (differs, run_start) {
            (true, None) => run_start = Some(w),
            (false, Some(start)) => {
                emit(start, w);
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(start) = run_start {
        emit(start, words);
    }
    Diff {
        bytes: Arc::from(buf),
        words: words as u32,
        runs,
        changed: changed as u32,
    }
}

/// Applies `diff` to `target`, overwriting the words the diff marks as
/// changed with whole-run `copy_from_slice` copies straight off the wire
/// buffer. `target` is typically a remote copy of the object (or the
/// owner's master copy for `result` objects).
///
/// # Errors
///
/// Returns [`MuninError::ProtocolViolation`] if the diff does not fit the
/// target (length mismatch or runs overrunning the object) or the buffer is
/// malformed; the framing is checked again here, run by run, by the walker
/// [`Diff::from_wire`] validates with.
pub fn apply(diff: &Diff, target: &mut [u8]) -> Result<()> {
    let bytes: &[u8] = &diff.bytes;
    let (words, body) = read_header(bytes)?;
    if !target.len().is_multiple_of(4) || target.len() / 4 != words as usize {
        return Err(MuninError::ProtocolViolation("diff length mismatch"));
    }
    walk_runs(bytes, body, words, |start, data| {
        let at = start * 4;
        match <[u8; 4]>::try_from(data) {
            // A one-word run (the stride patterns' only kind) is a single
            // store, not a call into `memcpy`: 13% faster than the
            // fixed-width format was on alternate words, against 22% slower.
            Ok(word) => target[at..at + 4].copy_from_slice(&word),
            Err(_) => target[at..at + data.len()].copy_from_slice(data),
        }
    })?;
    Ok(())
}

/// A pending DUQ entry's twin, tagged with its object.
#[derive(Clone, Debug)]
pub struct Twin {
    /// The object this twin shadows.
    pub object: ObjectId,
    /// Snapshot of the object at the time of the first write since the last
    /// flush.
    pub data: Vec<u8>,
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
        assert_eq!(d, Diff::empty(4));
    }

    #[test]
    fn single_word_change_is_one_run() {
        let twin = to_bytes(&[0; 8]);
        let mut cur = twin.clone();
        cur[12..16].copy_from_slice(&7u32.to_le_bytes());
        let d = encode(&cur, &twin);
        assert_eq!(d.run_count(), 1);
        let run = d.runs().next().unwrap();
        assert_eq!(run.skip, 3);
        assert_eq!(run.words(), vec![7]);
        assert_eq!(d.changed_words(), 1);
    }

    #[test]
    fn every_word_changed_is_one_big_run() {
        let twin = to_bytes(&[0; 16]);
        let cur = to_bytes(&[9; 16]);
        let d = encode(&cur, &twin);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.runs().next().unwrap().skip, 0);
        assert_eq!(d.changed_words(), 16);
    }

    #[test]
    fn alternate_words_is_worst_case_run_count() {
        // "In the third every other word has changed which is the worst case
        // for our run-length encoding scheme because there are a maximum
        // number of minimum-length runs."
        let twin = to_bytes(&vec![0u32; 64]);
        let cur = to_bytes(
            &(0..64u32)
                .map(|i| if i % 2 == 0 { 5 } else { 0 })
                .collect::<Vec<_>>(),
        );
        let d = encode(&cur, &twin);
        assert_eq!(d.run_count(), 32);
        assert_eq!(d.changed_words(), 32);
        // One header byte, then 2 + 4 bytes per run.
        assert_eq!(d.encoded_bytes(), 1 + 32 * (2 + 4));
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
    fn from_wire_rejects_empty_run() {
        // [words=4][skip=0, count=0]: the encoder never emits empty runs and
        // the validator must not accept them from the wire — alone, or after
        // a good run.
        for bytes in [&[4u8, 0, 0][..], &[4, 0, 1, 9, 9, 9, 9, 1, 0]] {
            assert_eq!(
                Diff::from_wire(Arc::from(bytes)),
                Err(MuninError::ProtocolViolation("empty diff run"))
            );
            assert!(apply(&unchecked(bytes), &mut [0u8; 16]).is_err());
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
            let mut fast = Vec::new();
            put_varint(&mut fast, v);
            let mut general = Vec::new();
            put_varint_general(&mut general, v);
            assert_eq!(fast, general, "{v:#x}");
            assert_eq!(fast.len(), varint_len(v), "{v:#x}");
            assert!(fast.len() == expected_len || fast.len() == expected_len + 1);
            expected_len = fast.len();
            assert_eq!(get_varint(&fast, 0, "cut"), Ok((v, fast.len())), "{v:#x}");
            // Every proper prefix is a truncation, reported as the caller's.
            for cut in 0..fast.len() {
                assert_eq!(
                    get_varint(&fast[..cut], 0, "cut"),
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
    /// headers (the `SingleObject` matmul input is one 160 000-word object).
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
        let shape: Vec<(u32, usize)> = d.runs().map(|r| (r.skip, r.data.len() / 4)).collect();
        assert_eq!(shape, [(0, 1), (299, 200), (19_500, 20_000), (119_999, 1)]);
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
        // The `wshared` shape: every fourth word of an 8 KB page.
        let twin = random_words(2048, 5);
        let cur = with_words_changed(&twin, (0..2048).step_by(4));
        let d = encode(&cur, &twin);
        assert_eq!((d.run_count(), d.changed_words()), (512, 512));
        assert_eq!(d.encoded_bytes(), 2 + 512 * (2 + 4));
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
        assert!(d.shares_buffer(&c));
        // An equal but separately encoded diff does not share.
        let e = encode(&cur, &twin);
        assert_eq!(d, e);
        assert!(!d.shares_buffer(&e));
    }

    #[test]
    fn scratch_buffer_is_reused_across_encodes() {
        let twin = random_words(512, 7);
        let mut cur = twin.clone();
        cur[100..104].copy_from_slice(&1u32.to_le_bytes());
        let mut scratch = DiffScratch::new();
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
