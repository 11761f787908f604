//! The statistics every reported number goes through.

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (0 for no samples).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here are the ones the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale; like Python, the interval
        // is clamped into the samples but the interpolation weight is not.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_ratio(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med
}

/// The percentiles a tail may be reported at.
const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it, and its value (nearest rank). With fewer than 40 samples no
/// rung qualifies and the median is reported as percentile 50.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    let pick = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0);
    match pick {
        Some(p) => {
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            (p, v[rank.clamp(1, n) - 1])
        }
        None => (50.0, median(values)),
    }
}

/// Spread of per-block medians: (max − min) ÷ their median.
pub fn block_spread(block_medians: &[f64]) -> f64 {
    let med = median(block_medians);
    if block_medians.is_empty() || med == 0.0 {
        return 0.0;
    }
    let max = block_medians.iter().copied().fold(f64::MIN, f64::max);
    let min = block_medians.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `base` the candidate is *worse* (negative = better).
pub fn worsening(base: f64, candidate: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if candidate == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (candidate - base) / base,
        Better::Higher => (base - candidate) / base,
    }
}

/// Whether the candidate breaches the metric's bound against the base.
pub fn breaches(base: f64, candidate: f64, better: Better, bound: f64) -> bool {
    worsening(base, candidate, better) > bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((iqr_ratio(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(tail(&v(1000)), (99.0, 990.0));
        // 999 samples: p99 leaves 9.99 beyond — one short.
        assert_eq!(tail(&v(999)).0, 95.0);
        // 250 samples: p95 leaves 12.5 beyond, p99 only 2.5.
        assert_eq!(tail(&v(250)), (95.0, 238.0));
        assert_eq!(tail(&v(100)).0, 90.0);
        assert_eq!(tail(&v(40)).0, 75.0);
        // Too few samples for any rung: the median, labelled as such.
        assert_eq!(tail(&v(39)), (50.0, 20.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn block_spread_is_range_over_median() {
        assert!((block_spread(&[10.0, 11.0, 9.0]) - 0.2).abs() < 1e-12);
        assert_eq!(block_spread(&[5.0]), 0.0);
        assert_eq!(block_spread(&[]), 0.0);
    }

    #[test]
    fn bounds_follow_the_metric_direction() {
        // Lower is better: +10.1% breaches a 10% bound, +9.9% does not.
        assert!(breaches(100.0, 110.1, Better::Lower, 0.10));
        assert!(!breaches(100.0, 109.9, Better::Lower, 0.10));
        // An improvement never breaches.
        assert!(!breaches(100.0, 50.0, Better::Lower, 0.02));
        // Higher is better: a drop is the worsening.
        assert!(breaches(100.0, 80.0, Better::Higher, 0.10));
        assert!(!breaches(100.0, 130.0, Better::Higher, 0.10));
        // Equal counts on a truth column: no breach at any bound.
        assert!(!breaches(745.0, 745.0, Better::Lower, 0.0));
        // A zero base can only be matched by zero.
        assert!(breaches(0.0, 1.0, Better::Lower, 0.25));
        assert!(!breaches(0.0, 0.0, Better::Lower, 0.25));
    }
}
