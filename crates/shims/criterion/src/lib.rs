//! Minimal, API-compatible shim for the subset of `criterion` this
//! workspace's benches use: `criterion_group!`/`criterion_main!`,
//! `Criterion::benchmark_group`, `bench_function`, `Bencher::iter` /
//! `iter_batched`, and `BatchSize`.
//!
//! The build environment has no access to crates.io. This shim performs real
//! wall-clock measurement (warm-up, then timed samples, reporting the median
//! ns/iteration) and prints one line per benchmark:
//!
//! ```text
//! bench  group/name  median_ns_per_iter
//! ```
//!
//! If the `BENCH_JSON_OUT` environment variable is set, `criterion_main!`
//! additionally writes every result as a JSON array to that path, which the
//! repo uses to record `BENCH_*.json` baselines.

use std::io::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded benchmark result.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// `group/name` identifier.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Total iterations measured across samples.
    pub iterations: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// Integer columns attached with [`BenchmarkGroup::note`].
    pub notes: Vec<(&'static str, u64)>,
}

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// How a batched iteration's setup output is sized (accepted for API
/// compatibility; the shim treats all variants identically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// The benchmark driver handed to `criterion_group!` target functions.
pub struct Criterion {
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        if quick_mode() {
            // Smoke-test settings: enough to exercise every bench path and
            // produce a number, fast enough for CI on every PR.
            return Criterion {
                measurement_time: Duration::from_millis(200),
                warm_up_time: Duration::from_millis(50),
                sample_size: 5,
            };
        }
        Criterion {
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
            sample_size: 20,
        }
    }
}

/// Whether quick (smoke-test) mode is active: `--quick` on the bench binary's
/// command line (`cargo bench ... -- --quick`, mirroring real criterion's
/// flag) or `BENCH_QUICK=1` in the environment. In quick mode the per-group
/// `measurement_time`/`warm_up_time`/`sample_size` setters are ignored so the
/// smoke run stays short no matter what the bench requests.
pub fn quick_mode() -> bool {
    static QUICK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *QUICK.get_or_init(|| {
        std::env::args().any(|a| a == "--quick")
            || std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1")
    })
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            sample_size: self.sample_size,
            _parent: std::marker::PhantomData,
        }
    }

    /// Benches a function outside any group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = BenchmarkGroup {
            name: String::new(),
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            sample_size: self.sample_size,
            _parent: std::marker::PhantomData,
        };
        group.bench_function(name, f);
        self
    }
}

/// A group of related benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
    _parent: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Sets the target measurement time per benchmark (ignored in quick
    /// mode).
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        if !quick_mode() {
            self.measurement_time = t;
        }
        self
    }

    /// Sets the warm-up time per benchmark (ignored in quick mode).
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        if !quick_mode() {
            self.warm_up_time = t;
        }
        self
    }

    /// Sets the number of samples per benchmark (ignored in quick mode).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if !quick_mode() {
            self.sample_size = n.max(1);
        }
        self
    }

    /// Runs one benchmark and records its result.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = name.into();
        let id = if self.name.is_empty() {
            name
        } else {
            format!("{}/{}", self.name, name)
        };
        let mut bencher = Bencher {
            mode: Mode::Calibrate,
            iters: 1,
            elapsed: Duration::ZERO,
        };

        // Calibrate: find an iteration count that takes roughly
        // measurement_time / sample_size per sample.
        let mut iters_per_sample = 1u64;
        loop {
            bencher.iters = iters_per_sample;
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            let per_sample = self.measurement_time.as_nanos() as u64 / self.sample_size as u64;
            let took = bencher.elapsed.as_nanos() as u64;
            if took >= per_sample.min(50_000_000) || iters_per_sample >= 1 << 30 {
                break;
            }
            // Grow towards the per-sample budget.
            let factor = if took == 0 {
                16
            } else {
                ((per_sample / took.max(1)) + 1).clamp(2, 16)
            };
            iters_per_sample = iters_per_sample.saturating_mul(factor);
        }

        // Warm-up.
        let warm_deadline = Instant::now() + self.warm_up_time;
        while Instant::now() < warm_deadline {
            bencher.iters = iters_per_sample;
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
        }

        // Measure.
        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        let mut total_iters = 0u64;
        let deadline = Instant::now() + self.measurement_time;
        for _ in 0..self.sample_size {
            bencher.mode = Mode::Measure;
            bencher.iters = iters_per_sample;
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            samples_ns.push(bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64);
            total_iters += iters_per_sample;
            if Instant::now() > deadline && samples_ns.len() >= 5 {
                break;
            }
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let median_ns = samples_ns[samples_ns.len() / 2];

        println!("bench  {id:<48} {median_ns:>14.1} ns/iter");
        RESULTS.lock().unwrap().push(BenchResult {
            id,
            median_ns,
            iterations: total_iters,
            samples: samples_ns.len(),
            notes: Vec::new(),
        });
        self
    }

    /// Attaches an integer column to the JSON row of the benchmark recorded
    /// last: a quantity that repeats exactly and belongs beside the timing,
    /// such as the size of the encoding the routine produces. A shim
    /// extension — real criterion has no counterpart.
    pub fn note(&mut self, key: &'static str, value: u64) -> &mut Self {
        println!("note   {key} = {value}");
        RESULTS
            .lock()
            .unwrap()
            .last_mut()
            .expect("note follows a bench_function")
            .notes
            .push((key, value));
        self
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(&mut self) {}
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Calibrate,
    Measure,
}

/// The per-benchmark timing handle.
pub struct Bencher {
    mode: Mode,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, running it `iters` times per sample.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed += start.elapsed();
        let _ = self.mode;
    }

    /// Times `routine` over inputs produced by `setup`; setup time is not
    /// counted.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.elapsed += start.elapsed();
        }
    }
}

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Writes all recorded results as JSON to `path`.
pub fn write_results_json(path: &str) -> std::io::Result<()> {
    let results = RESULTS.lock().unwrap();
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let notes: String = r
            .notes
            .iter()
            .map(|(key, value)| format!(", \"{key}\": {value}"))
            .collect();
        out.push_str(&format!(
            "  {{\"id\": \"{}\", \"median_ns_per_iter\": {:.1}, \"iterations\": {}, \"samples\": {}{notes}}}{}\n",
            r.id.replace('"', "'"),
            r.median_ns,
            r.iterations,
            r.samples,
            sep
        ));
    }
    out.push_str("]\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

/// Called by `criterion_main!` after all groups ran.
pub fn finalize() {
    if let Ok(path) = std::env::var("BENCH_JSON_OUT") {
        if !path.is_empty() {
            // Quick-mode numbers (5 samples, 200 ms) are smoke-test output,
            // not a baseline; refusing to write protects the committed
            // BENCH_*.json files from being silently replaced with garbage
            // by a run that happened to have --quick or BENCH_QUICK=1 set.
            if quick_mode() {
                eprintln!(
                    "criterion shim: refusing to write {path} from a --quick run \
                     (smoke-test settings would overwrite a real baseline)"
                );
                return;
            }
            if let Err(e) = write_results_json(&path) {
                eprintln!("criterion shim: failed to write {path}: {e}");
            } else {
                println!("criterion shim: wrote results to {path}");
            }
        }
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark binary's `main`, criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_a_result() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim_test");
        g.measurement_time(Duration::from_millis(50))
            .warm_up_time(Duration::from_millis(5))
            .sample_size(5);
        g.bench_function("noop_add", |b| b.iter(|| 1u64 + 1));
        g.finish();
        let results = RESULTS.lock().unwrap();
        let r = results
            .iter()
            .find(|r| r.id == "shim_test/noop_add")
            .expect("result recorded");
        assert!(r.median_ns >= 0.0);
        assert!(r.iterations > 0);
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim_test_batched");
        g.measurement_time(Duration::from_millis(50))
            .warm_up_time(Duration::from_millis(5))
            .sample_size(5);
        g.bench_function("copy", |b| {
            b.iter_batched(
                || vec![0u8; 1024],
                |mut v| {
                    v[0] = 1;
                    v
                },
                BatchSize::SmallInput,
            )
        });
    }
}
