//! Log-bucketed latency histograms.
//!
//! Fixed layout, no external deps: 64 buckets whose upper bounds grow by
//! ×1.25 from a 64 ns base, spanning ~64 ns to ~80 ms of virtual time —
//! comfortably covering everything from a local fault check to a
//! cross-cluster barrier wait under the 1991 cost model. The last bucket is
//! the overflow bucket; the exact maximum is tracked separately so the tail
//! percentile estimate never exceeds an observed value.
//!
//! Recording is two array reads and an increment after a `partition_point`
//! over 64 precomputed bounds; merging is element-wise addition, so per-node
//! histograms aggregate into per-run ones without loss.

use std::sync::OnceLock;

/// Number of buckets (the last one is the overflow bucket).
pub const BUCKETS: usize = 64;

/// Lower edge of the first bucket, nanoseconds.
const BASE_NS: f64 = 64.0;

/// Geometric growth factor between bucket upper bounds.
const GROWTH: f64 = 1.25;

/// Upper bounds (inclusive) of each bucket in nanoseconds:
/// `bounds[i] = 64 × 1.25^i`, rounded. Computed once; `f64::powi` is exact
/// enough to be deterministic across runs of the same binary.
fn bounds() -> &'static [u64; BUCKETS] {
    static BOUNDS: OnceLock<[u64; BUCKETS]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b = [0u64; BUCKETS];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = (BASE_NS * GROWTH.powi(i as i32)).round() as u64;
        }
        b
    })
}

/// Bucket index for a nanosecond value: first bucket whose upper bound
/// contains it, clamped to the overflow bucket.
fn bucket_of(ns: u64) -> usize {
    bounds().partition_point(|&b| b < ns).min(BUCKETS - 1)
}

/// A log-bucketed latency histogram over nanosecond values.
///
/// Plain data: cloning yields an independent snapshot, and snapshots from
/// different nodes [`merge`](LatencyHist::merge) losslessly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one nanosecond sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.max = self.max.max(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample observed, nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean sample, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds by linear
    /// interpolation within the bucket holding the target rank. The overflow
    /// bucket interpolates toward the exact observed maximum, so estimates
    /// never exceed `max_ns`. Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate within bucket i by the fraction of its samples
                // below the target rank.
                let lo = if i == 0 { 0 } else { bounds()[i - 1] };
                let hi = if i == BUCKETS - 1 {
                    self.max.max(lo)
                } else {
                    bounds()[i].min(self.max)
                };
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + (hi.saturating_sub(lo)) as f64 * frac;
                return (est.round() as u64).min(self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Median estimate, nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile estimate, nanoseconds.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile estimate, nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// Renders a nanosecond latency compactly (`318ns`, `4.1us`, `2.5ms`, `1.2s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accessors only the tests read.
    impl LatencyHist {
        /// Sum of all samples, nanoseconds (saturating).
        pub fn sum_ns(&self) -> u64 {
            self.sum
        }

        /// Raw bucket counts (test/diagnostic access).
        pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
            &self.counts
        }
    }

    #[test]
    fn bounds_grow_geometrically_and_cover_the_target_span() {
        let b = bounds();
        assert_eq!(b[0], 64);
        for w in b.windows(2) {
            assert!(w[1] > w[0], "bounds must be strictly increasing");
        }
        // 64ns × 1.25^63 ≈ 78ms: the span covers sub-µs faults through
        // tens-of-ms barrier waits.
        assert!(
            b[BUCKETS - 1] > 50_000_000,
            "span too small: {}",
            b[BUCKETS - 1]
        );
        assert!(
            b[BUCKETS - 1] < 200_000_000,
            "span too large: {}",
            b[BUCKETS - 1]
        );
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        // A value equal to a bucket's upper bound lands in that bucket; one
        // more lands in the next.
        let b = bounds();
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(64), 0);
        assert_eq!(bucket_of(65), 1);
        assert_eq!(bucket_of(b[10]), 10);
        assert_eq!(bucket_of(b[10] + 1), 11);
        // Beyond the last bound clamps to the overflow bucket.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn count_sum_max_track_samples() {
        let mut h = LatencyHist::new();
        for ns in [100, 200, 400, 10_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns(), 10_700);
        assert_eq!(h.max_ns(), 10_000);
        assert_eq!(h.mean_ns(), 2_675);
    }

    #[test]
    fn merge_is_elementwise_addition() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        for ns in [100, 1_000, 50_000] {
            a.record(ns);
        }
        for ns in [100, 2_000_000] {
            b.record(ns);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.sum_ns(), a.sum_ns() + b.sum_ns());
        assert_eq!(merged.max_ns(), 2_000_000);
        // Bucket-by-bucket sum.
        for i in 0..BUCKETS {
            assert_eq!(
                merged.bucket_counts()[i],
                a.bucket_counts()[i] + b.bucket_counts()[i]
            );
        }
        // Quantiles of the merged histogram reflect both inputs.
        assert!(merged.quantile_ns(1.0) == 2_000_000);
    }

    #[test]
    fn quantiles_interpolate_and_never_exceed_max() {
        let mut h = LatencyHist::new();
        // 100 samples spread across two buckets.
        for _ in 0..50 {
            h.record(100);
        }
        for _ in 0..50 {
            h.record(1_000);
        }
        let p50 = h.p50_ns();
        let p99 = h.p99_ns();
        // p50 falls in the bucket containing 100ns, p99 in the 1000ns one.
        assert!(p50 <= 125, "p50 {p50} should sit in the ~100ns bucket");
        assert!(
            (800..=1_000).contains(&p99),
            "p99 {p99} should approach 1000ns"
        );
        assert!(h.quantile_ns(1.0) <= h.max_ns());
        assert_eq!(h.quantile_ns(1.0), 1_000);
    }

    #[test]
    fn overflow_bucket_interpolates_toward_exact_max() {
        let mut h = LatencyHist::new();
        let huge = 10_000_000_000; // 10 s — beyond the last bound.
        h.record(huge);
        assert_eq!(h.max_ns(), huge);
        assert_eq!(h.quantile_ns(1.0), huge);
        assert!(h.p50_ns() <= huge);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p99_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn fmt_ns_picks_sensible_units() {
        assert_eq!(fmt_ns(318), "318ns");
        assert_eq!(fmt_ns(4_100), "4.1us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
