//! Order statistics for timing samples: median, quartiles and the highest
//! percentile that still has at least [`TAIL_MIN_BEYOND`] samples beyond it.

/// Percentiles considered for the tail figure, lowest first.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A tail percentile is reported only when at least this many samples lie
/// beyond it, so one outlier cannot make the figure.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Median, quartiles, count and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// 50th percentile.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// `(percentile, value)` of the highest percentile with enough samples
    /// beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (p25, median, p75) = quartiles(&sorted);
        let tail = tail_percentile(sorted.len()).map(|p| (p, nearest_rank(&sorted, p)));
        Some(Summary { n: sorted.len(), median, p25, p75, tail })
    }

    /// The value at `pct` by nearest rank, if `pct` has enough samples
    /// beyond it; otherwise `None`.
    pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
        if samples.len() as f64 * (1.0 - pct / 100.0) < TAIL_MIN_BEYOND - 1e-9 {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(nearest_rank(&sorted, pct))
    }
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rfind(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
}

/// Value at percentile `pct` of sorted data by the nearest-rank method.
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles of sorted data, interpolated like Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method); the middle
/// one is the median.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed, unclamped like Python's: with two samples the outer
        // quartiles extrapolate.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
    (cut(1), mid, cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_value_has_ten_samples_above_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let summary = Summary::of(&samples).unwrap();
        let (pct, value) = summary.tail.unwrap();
        assert_eq!(pct, 90.0);
        assert_eq!(value, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
        assert_eq!(Summary::percentile(&samples, 99.0), None);
        assert_eq!(Summary::percentile(&samples, 90.0), Some(90.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.n, s.p25, s.median, s.p75, s.tail), (1, 4.0, 4.0, 4.0, None));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
    }
}
