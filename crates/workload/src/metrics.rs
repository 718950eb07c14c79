//! Disorder measures (paper §II-A, Definitions 2–6).

/// Exact inversion count (Definition 2) over a timestamp slice,
/// `O(n log n)` by merge counting.
pub fn inversions(times: &[i64]) -> u64 {
    let mut work = times.to_vec();
    let mut buf = vec![0i64; work.len()];
    count_rec(&mut work, &mut buf)
}

fn count_rec(a: &mut [i64], buf: &mut [i64]) -> u64 {
    let n = a.len();
    if n < 2 {
        return 0;
    }
    let mid = n / 2;
    let (l, r) = a.split_at_mut(mid);
    let (bl, br) = buf.split_at_mut(mid);
    let mut inv = count_rec(l, bl) + count_rec(r, br);
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < l.len() && j < r.len() {
        if l[i] <= r[j] {
            buf[k] = l[i];
            i += 1;
        } else {
            inv += (l.len() - i) as u64;
            buf[k] = r[j];
            j += 1;
        }
        k += 1;
    }
    while i < l.len() {
        buf[k] = l[i];
        i += 1;
        k += 1;
    }
    while j < r.len() {
        buf[k] = r[j];
        j += 1;
        k += 1;
    }
    a.copy_from_slice(&buf[..n]);
    inv
}

/// Exact interval inversion ratio `α_L` (Definitions 3–4) over a
/// timestamp slice.
pub fn interval_inversion_ratio(times: &[i64], l: usize) -> f64 {
    let n = times.len();
    if l == 0 || l >= n {
        return 0.0;
    }
    let c = (0..n - l).filter(|&i| times[i] > times[i + l]).count();
    c as f64 / (n - l) as f64
}

/// Down-sampled empirical IIR `α̃_L` (Example 5): one probe per stride.
pub fn sampled_interval_inversion_ratio(times: &[i64], l: usize) -> f64 {
    let n = times.len();
    if l == 0 || l >= n {
        return 0.0;
    }
    let (mut c, mut total, mut i) = (0usize, 0usize, 0usize);
    while i + l < n {
        total += 1;
        if times[i] > times[i + l] {
            c += 1;
        }
        i += l;
    }
    if total == 0 {
        0.0
    } else {
        c as f64 / total as f64
    }
}

/// Number of maximal non-decreasing runs — Patience sort's adaptivity
/// measure (`Runs`, §III-A2).
pub fn runs(times: &[i64]) -> usize {
    if times.is_empty() {
        return 0;
    }
    1 + times.windows(2).filter(|w| w[0] > w[1]).count()
}

/// The IIR profile over powers of two, `L = 2^0 … 2^max_exp`, as plotted
/// in Fig. 8(a).
pub fn iir_profile(times: &[i64], max_exp: u32) -> Vec<(usize, f64)> {
    (0..=max_exp)
        .map(|e| {
            let l = 1usize << e;
            (l, interval_inversion_ratio(times, l))
        })
        .collect()
}

/// Empirical delay-difference statistics (Definition 6).
///
/// Given the arrival-ordered series of generation timestamps, each point's
/// *displacement* `d_i = i - rank(t_i)`-free proxy is not observable; what
/// the analysis actually needs is the empirical tail `P(Δτ > L)`, which by
/// Proposition 2 equals `E(α_L)` — so we expose the measured IIR as the
/// Δτ-tail estimator.
#[derive(Debug, Clone)]
pub struct DeltaTauHistogram {
    counts: Vec<u64>,
    total: u64,
    bin_width: f64,
    min: f64,
}

impl DeltaTauHistogram {
    /// Builds a histogram of pairwise delay differences `τ_i − τ_j` from
    /// raw delay samples, using each consecutive sample pair (an unbiased
    /// Δτ draw since delays are i.i.d.).
    pub fn from_delays(delays: &[f64], bins: usize, min: f64, max: f64) -> Self {
        assert!(bins > 0 && max > min);
        let bin_width = (max - min) / bins as f64;
        let mut counts = vec![0u64; bins];
        let mut total = 0u64;
        for w in delays.windows(2) {
            let dt = w[1] - w[0];
            if dt >= min && dt < max {
                let idx = ((dt - min) / bin_width) as usize;
                counts[idx.min(bins - 1)] += 1;
            }
            total += 1;
        }
        Self {
            counts,
            total,
            bin_width,
            min,
        }
    }

    /// Density estimate per bin: `(bin center, pdf)`.
    pub fn density(&self) -> Vec<(f64, f64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let center = self.min + (i as f64 + 0.5) * self.bin_width;
                let pdf = c as f64 / (self.total.max(1) as f64 * self.bin_width);
                (center, pdf)
            })
            .collect()
    }

    /// Empirical tail `P(Δτ ≥ x)`.
    pub fn tail(&self, x: f64) -> f64 {
        let mut above = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let lo = self.min + i as f64 * self.bin_width;
            if lo >= x {
                above += c;
            }
        }
        above as f64 / self.total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inversions_matches_brute_force() {
        let cases: &[&[i64]] = &[
            &[],
            &[1],
            &[1, 2, 3],
            &[3, 2, 1],
            &[2, 1, 3, 1, 2],
            &[5, 5, 5],
            &[10, 1, 9, 2, 8, 3],
        ];
        for &times in cases {
            let brute = (0..times.len())
                .flat_map(|i| (i + 1..times.len()).map(move |j| (i, j)))
                .filter(|&(i, j)| times[i] > times[j])
                .count() as u64;
            assert_eq!(inversions(times), brute, "{times:?}");
        }
    }

    #[test]
    fn iir_example4_alpha1() {
        // The consistent part of the paper's Example 4: α1 = 6/14.
        let times = [4i64, 3, 6, 9, 8, 5, 11, 1, 10, 12, 7, 15, 2, 13, 16];
        assert!((interval_inversion_ratio(&times, 1) - 6.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn iir_monotone_for_delay_only_data() {
        // For bounded delays, IIR hits zero once L exceeds the bound.
        use crate::delay::DelayModel;
        use crate::stream::{generate_pairs, StreamSpec};
        let spec = StreamSpec::new(20_000, DelayModel::DiscreteUniform { k: 7 }, 3);
        let times: Vec<i64> = generate_pairs(&spec).iter().map(|p| p.0).collect();
        assert!(interval_inversion_ratio(&times, 1) > 0.0);
        assert_eq!(interval_inversion_ratio(&times, 16), 0.0);
    }

    #[test]
    fn sampled_iir_approximates_exact() {
        use crate::delay::DelayModel;
        use crate::stream::{generate_pairs, StreamSpec};
        let spec = StreamSpec::new(
            200_000,
            DelayModel::AbsNormal {
                mu: 0.0,
                sigma: 8.0,
            },
            5,
        );
        let times: Vec<i64> = generate_pairs(&spec).iter().map(|p| p.0).collect();
        for l in [2usize, 4, 8] {
            let exact = interval_inversion_ratio(&times, l);
            let sampled = sampled_interval_inversion_ratio(&times, l);
            assert!(
                (exact - sampled).abs() < 0.05,
                "L={l}: exact {exact} vs sampled {sampled}"
            );
        }
    }

    #[test]
    fn runs_counts_maximal_ascending_segments() {
        assert_eq!(runs(&[]), 0);
        assert_eq!(runs(&[1]), 1);
        assert_eq!(runs(&[1, 2, 3]), 1);
        assert_eq!(runs(&[3, 2, 1]), 3);
        assert_eq!(runs(&[1, 3, 2, 4]), 2);
        assert_eq!(runs(&[2, 2, 2]), 1);
    }

    #[test]
    fn iir_profile_is_power_of_two_grid() {
        let times: Vec<i64> = (0..100).rev().collect();
        let profile = iir_profile(&times, 5);
        assert_eq!(profile.len(), 6);
        assert_eq!(profile[0].0, 1);
        assert_eq!(profile[5].0, 32);
        assert!(profile.iter().all(|&(_, a)| a == 1.0));
    }

    #[test]
    fn delta_tau_histogram_is_symmetric_for_iid_delays() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let delays: Vec<f64> = (0..200_000)
            .map(|_| crate::delay::DelayModel::Exponential { lambda: 2.0 }.sample(&mut rng))
            .collect();
        let hist = DeltaTauHistogram::from_delays(&delays, 80, -4.0, 4.0);
        // Proposition 1: f_Δτ is even — compare tails at ±1.
        let right = hist.tail(1.0);
        let left = 1.0 - hist.tail(-1.0);
        assert!((right - left).abs() < 0.01, "right {right} left {left}");
        // Example 6: P(Δτ > 1) = 1/(2e^λ) for λ=2 -> 1/(2e²) ≈ 0.0677.
        assert!((right - 1.0 / (2.0 * (2.0f64).exp())).abs() < 0.01);
    }
}

/// Evidence for the delay-only feature (paper §II-B2): how far points sit
/// from their sorted position, split by direction.
///
/// In the stored (arrival-ordered) series, a *delayed* point sits later
/// than its sorted rank (negative displacement `rank - index`), and a
/// point "appearing ahead" sits earlier. Under pure delay-only arrivals,
/// forward displacement exists only as the mirror image of someone
/// else's delay, so the forward tail stays as small as the delay bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisplacementStats {
    /// Fraction of points exactly at their sorted rank.
    pub in_place: f64,
    /// Fraction displaced backward (arrived later than rank) —
    /// the "delayed" points.
    pub delayed: f64,
    /// Fraction displaced forward (arrived earlier than rank).
    pub ahead: f64,
    /// Largest backward displacement observed.
    pub max_backward: usize,
    /// Largest forward displacement observed.
    pub max_forward: usize,
    /// Mean absolute displacement.
    pub mean_abs: f64,
}

/// Computes [`DisplacementStats`] for an arrival-ordered timestamp
/// sequence. Duplicate timestamps take their arrival-order ranks, so a
/// perfectly ordered stream scores `in_place = 1.0`.
pub fn displacement_stats(times: &[i64]) -> DisplacementStats {
    let n = times.len();
    if n == 0 {
        return DisplacementStats {
            in_place: 1.0,
            delayed: 0.0,
            ahead: 0.0,
            max_backward: 0,
            max_forward: 0,
            mean_abs: 0.0,
        };
    }
    // Stable rank by (timestamp, arrival index).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (times[i], i));
    let mut rank = vec![0usize; n];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    let (mut in_place, mut delayed, mut ahead) = (0usize, 0usize, 0usize);
    let (mut max_b, mut max_f) = (0usize, 0usize);
    let mut abs_sum = 0usize;
    for (idx, &r) in rank.iter().enumerate() {
        match idx.cmp(&r) {
            std::cmp::Ordering::Equal => in_place += 1,
            std::cmp::Ordering::Greater => {
                // Arrived later than rank: delayed.
                delayed += 1;
                max_b = max_b.max(idx - r);
                abs_sum += idx - r;
            }
            std::cmp::Ordering::Less => {
                ahead += 1;
                max_f = max_f.max(r - idx);
                abs_sum += r - idx;
            }
        }
    }
    DisplacementStats {
        in_place: in_place as f64 / n as f64,
        delayed: delayed as f64 / n as f64,
        ahead: ahead as f64 / n as f64,
        max_backward: max_b,
        max_forward: max_f,
        mean_abs: abs_sum as f64 / n as f64,
    }
}

#[cfg(test)]
mod displacement_tests {
    use super::*;

    #[test]
    fn sorted_stream_is_fully_in_place() {
        let stats = displacement_stats(&[1, 2, 3, 4, 5]);
        assert_eq!(stats.in_place, 1.0);
        assert_eq!(stats.delayed, 0.0);
        assert_eq!(stats.mean_abs, 0.0);
    }

    #[test]
    fn single_delayed_point() {
        // Fig. 1's first block: 1 3 4 5 2 — the "2" arrived 3 late; the
        // points it jumped (3,4,5) each shift forward by one.
        let stats = displacement_stats(&[1, 3, 4, 5, 2]);
        assert_eq!(stats.max_backward, 3);
        assert_eq!(stats.max_forward, 1);
        assert!((stats.delayed - 0.2).abs() < 1e-12);
        assert!((stats.ahead - 0.6).abs() < 1e-12);
    }

    #[test]
    fn delay_only_streams_have_bounded_forward_tail() {
        use crate::delay::DelayModel;
        use crate::stream::{generate_pairs, StreamSpec};
        let spec = StreamSpec::new(50_000, DelayModel::DiscreteUniform { k: 5 }, 4);
        let times: Vec<i64> = generate_pairs(&spec).iter().map(|p| p.0).collect();
        let stats = displacement_stats(&times);
        // A point can be pushed forward at most by the number of delayed
        // points that jumped it — bounded by the delay bound.
        assert!(stats.max_backward <= 6, "backward {}", stats.max_backward);
        assert!(stats.max_forward <= 6, "forward {}", stats.max_forward);
        assert!(stats.in_place + stats.delayed + stats.ahead > 0.999);
    }

    #[test]
    fn duplicates_count_as_in_place() {
        let stats = displacement_stats(&[7, 7, 7]);
        assert_eq!(stats.in_place, 1.0);
    }

    #[test]
    fn empty_stream() {
        let stats = displacement_stats(&[]);
        assert_eq!(stats.in_place, 1.0);
    }
}
