//! Order statistics for latencies and rounds, and the ladder's self-time
//! subtraction.

/// Percentiles considered for a tail, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice; 0.0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. Percentiles
/// are taken to a tenth of a percent and the rank in whole numbers, so
/// 99.9 % of 10,000 is rank 9,990 and not a float's 9,990.000000000002.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest candidate percentile that keeps at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the lowest does not.
pub fn tail_pick(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median, quartiles and range of one metric over its samples (rounds or
/// set-ups).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarises samples; quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), the rule the
/// acceptance spread is computed with. Fewer than two samples have no
/// quartiles, so all five statistics collapse to the one value.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) else {
        return Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            min: 0.0,
            max: 0.0,
            n: 0,
        };
    };
    let quantile = |i: usize| -> f64 {
        if n < 2 {
            return min;
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Summary {
        median: quantile(2),
        q1: quantile(1),
        q3: quantile(3),
        min,
        max,
        n,
    }
}

/// Median of samples; 0.0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// A ladder layer's self time: the depth's total minus the depths below
/// it. A negative difference (the lower depths measured slower than the
/// one that contains them) is clamped to zero and flagged.
pub fn self_time(total: f64, below: &[f64]) -> (f64, bool) {
    let own = total - below.iter().sum::<f64>();
    if own < 0.0 {
        (0.0, true)
    } else {
        (own, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_pick_keeps_ten_samples_beyond() {
        assert_eq!(tail_pick(50), None);
        assert_eq!(tail_pick(100), Some(90.0));
        assert_eq!(tail_pick(199), Some(90.0));
        assert_eq!(tail_pick(200), Some(95.0));
        assert_eq!(tail_pick(999), Some(95.0));
        assert_eq!(tail_pick(1_000), Some(99.0));
        assert_eq!(tail_pick(10_000), Some(99.9));
        for n in [100, 200, 1_000, 10_000, 12_345] {
            let p = tail_pick(n).unwrap();
            assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_matches_python_quantiles() {
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
        // == [1.75, 3.5, 5.25]
        let s = summarize(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 3.5, 5.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        let one = summarize(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn self_time_is_clamped_and_flagged() {
        assert_eq!(self_time(10.0, &[3.0, 4.0]), (3.0, false));
        assert_eq!(self_time(10.0, &[]), (10.0, false));
        assert_eq!(self_time(5.0, &[3.0, 4.0]), (0.0, true));
    }
}
