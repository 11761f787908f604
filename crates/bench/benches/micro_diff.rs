//! Criterion microbenchmarks of the twin/diff machinery in *real* time on the
//! host machine.
//!
//! Two families:
//!
//! * `diff_8kb` — twin copy, encode, and decode of an 8 KB object under the
//!   three modification patterns of Table 2 (one word, all words, alternate
//!   words), kept for continuity with the paper, plus every fourth word: the
//!   page of the benchmark's `wshared` workload, four writers striding it.
//!   Each encode row carries `encoded_bytes`, the size of the diff it
//!   produces — exact, unlike the timings, and so gated: the bench exits
//!   non-zero when a pattern's size is not the committed `BENCH_diff.json`
//!   row's (a run that writes a new baseline is let through).
//! * `diff_scale` — the flat block-skip encoder (`encode_flat`, reusing one
//!   `DiffScratch` across iterations, i.e. zero allocations per run) against
//!   the word-by-word reference encoder (`encode_reference`, the seed's
//!   strategy), plus `apply`, under sparse (1% of words), clustered (two
//!   dirty 256-word stripes), and fully-dirty patterns at 4 KiB, 64 KiB, and
//!   1 MiB object sizes.
//!
//! Run with `BENCH_JSON_OUT=BENCH_diff.json cargo bench --bench micro_diff`
//! to refresh the committed baseline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use munin_core::diff::{self, DiffScratch};
use std::time::Duration;

fn patterns() -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    let size = 8192;
    let words = size / 4;
    // (name, changed words, stride between them)
    [
        ("one_word", 7usize..8, 1),
        ("all_words", 0..words, 1),
        ("alternate_words", 0..words, 2),
        ("stride4_words", 0..words, 4),
    ]
    .into_iter()
    .map(|(name, range, stride)| {
        let twin = vec![0u8; size];
        let mut cur = twin.clone();
        for w in range.step_by(stride) {
            cur[w * 4..w * 4 + 4].copy_from_slice(&1u32.to_le_bytes());
        }
        (name, cur, twin)
    })
    .collect()
}

/// The `encoded_bytes` column of the committed `diff_8kb/encode/<name>` row.
fn committed_encoded_bytes(name: &str) -> Option<u64> {
    let id = format!("\"id\": \"diff_8kb/encode/{name}\"");
    let row = include_str!("../../../BENCH_diff.json")
        .lines()
        .find(|line| line.contains(&id))?;
    let value = row.split("\"encoded_bytes\": ").nth(1)?;
    value
        .trim_end_matches(|c: char| !c.is_ascii_digit())
        .parse()
        .ok()
}

fn bench_diff(c: &mut Criterion) {
    let mut group = c.benchmark_group("diff_8kb");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(30);
    for (name, cur, twin) in patterns() {
        group.bench_function(format!("twin_copy/{name}"), |b| {
            b.iter(|| diff::make_twin(std::hint::black_box(&cur)))
        });
        group.bench_function(format!("encode/{name}"), |b| {
            let mut scratch = DiffScratch::default();
            b.iter(|| scratch.encode(std::hint::black_box(&cur), std::hint::black_box(&twin)))
        });
        let d = diff::encode(&cur, &twin);
        group.note("encoded_bytes", d.encoded_bytes() as u64);
        let committed = committed_encoded_bytes(name);
        if committed != Some(d.encoded_bytes() as u64) && std::env::var("BENCH_JSON_OUT").is_err() {
            eprintln!(
                "micro_diff: {name} encodes to {} bytes, BENCH_diff.json says {committed:?}: \
                 a wire-format change re-records the baseline (BENCH_JSON_OUT=BENCH_diff.json)",
                d.encoded_bytes()
            );
            std::process::exit(1);
        }
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter_batched(
                || twin.clone(),
                |mut target| diff::apply(&d, &mut target).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// A deterministically pseudo-random buffer of `words` words.
fn random_buffer(words: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(words * 4);
    for _ in 0..words {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.extend_from_slice(&((state >> 24) as u32).to_le_bytes());
    }
    out
}

/// Builds the change patterns of a `size`-byte object for the scale suite.
fn scale_patterns(size: usize) -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    let words = size / 4;
    let twin = random_buffer(words, size as u64);
    let mut out = Vec::new();

    // Sparse: ~1% of words changed, spread uniformly (the SOR edge-exchange
    // shape: most of the object identical).
    let mut sparse = twin.clone();
    for w in (0..words).step_by(100) {
        sparse[w * 4] ^= 0xFF;
    }
    out.push(("sparse_1pct", sparse, twin.clone()));

    // Clustered: two dirty stripes of 256 contiguous words each.
    let mut clustered = twin.clone();
    let stripe = 256.min(words / 2);
    for w in (words / 8)..(words / 8 + stripe).min(words) {
        clustered[w * 4 + 1] ^= 0xA5;
    }
    for w in (words * 3 / 4)..(words * 3 / 4 + stripe).min(words) {
        clustered[w * 4 + 1] ^= 0xA5;
    }
    out.push(("clustered", clustered, twin.clone()));

    // Fully dirty: every word changed.
    let dirty = random_buffer(words, size as u64 + 17);
    out.push(("full_dirty", dirty, twin));

    out
}

fn bench_diff_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("diff_scale");
    group
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200))
        .sample_size(15);
    for size in [4 * 1024usize, 64 * 1024, 1024 * 1024] {
        let kib = size / 1024;
        for (name, cur, twin) in scale_patterns(size) {
            group.bench_function(format!("encode_flat/{kib}KiB/{name}"), |b| {
                let mut scratch = DiffScratch::default();
                b.iter(|| scratch.encode(std::hint::black_box(&cur), std::hint::black_box(&twin)))
            });
            group.bench_function(format!("encode_reference/{kib}KiB/{name}"), |b| {
                b.iter(|| {
                    diff::encode_reference(std::hint::black_box(&cur), std::hint::black_box(&twin))
                })
            });
            let d = diff::encode(&cur, &twin);
            group.bench_function(format!("apply/{kib}KiB/{name}"), |b| {
                b.iter_batched(
                    || twin.clone(),
                    |mut target| diff::apply(&d, &mut target).unwrap(),
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_diff, bench_diff_scale);
criterion_main!(benches);
