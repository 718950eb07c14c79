//! Fig. 5 + Example 6: the Δτ density for exponential delays, empirical
//! vs. the closed form, and the α̃ vs. `1/(2e^{λL})` check.

use backsort_core::iir::sampled_iir;
use backsort_tvlist::SliceSeries;
use backsort_workload::analysis::{delta_tau_pdf_exponential, expected_iir_exponential};
use backsort_workload::metrics::DeltaTauHistogram;
use backsort_workload::{generate_pairs, DelayModel, StreamSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// One density sample of Fig. 5.
#[derive(Debug, Clone, Serialize)]
pub struct PdfRow {
    /// Rate λ of the exponential delay.
    pub lambda: f64,
    /// Δτ abscissa.
    pub t: f64,
    /// Empirical density from sampled delay pairs.
    pub empirical: f64,
    /// Closed form `(λ/2)·e^{−λ|t|}` (Example 6, Eq. 10).
    pub theory: f64,
}

/// One α̃ check of Example 6 (Eqs. 12–13).
#[derive(Debug, Clone, Serialize)]
pub struct AlphaRow {
    /// Rate λ.
    pub lambda: f64,
    /// Interval `L`.
    pub interval: usize,
    /// Measured down-sampled IIR on the generated stream.
    pub empirical: f64,
    /// Closed form `1/(2·e^{λL})`.
    pub theory: f64,
}

/// Computes the Fig. 5 density curves for λ ∈ {1, 2, 3}.
pub fn pdf_rows(points: usize, seed: u64) -> Vec<PdfRow> {
    let mut rows = Vec::new();
    for lambda in [1.0f64, 2.0, 3.0] {
        let mut rng = StdRng::seed_from_u64(seed ^ lambda.to_bits());
        let model = DelayModel::Exponential { lambda };
        let delays: Vec<f64> = (0..points).map(|_| model.sample(&mut rng)).collect();
        let hist = DeltaTauHistogram::from_delays(&delays, 81, -4.05, 4.05);
        for (t, empirical) in hist.density() {
            rows.push(PdfRow {
                lambda,
                t,
                empirical,
                theory: delta_tau_pdf_exponential(lambda, t),
            });
        }
    }
    rows
}

/// Computes the Example 6 α̃ checks (paper uses λ=2 and L ∈ {1, 5} over
/// 10⁸ points; scale via `points`).
pub fn alpha_rows(points: usize, seed: u64) -> Vec<AlphaRow> {
    let lambda = 2.0;
    let spec = StreamSpec::new(points, DelayModel::Exponential { lambda }, seed);
    let mut pairs = generate_pairs(&spec);
    let s = SliceSeries::new(&mut pairs);
    [1usize, 5]
        .into_iter()
        .map(|interval| AlphaRow {
            lambda,
            interval,
            empirical: sampled_iir(&s, interval),
            theory: expected_iir_exponential(lambda, interval as f64),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_is_close_to_theory_at_moderate_scale() {
        let rows = pdf_rows(200_000, 1);
        assert_eq!(rows.len(), 3 * 81);
        // The histogram reports bin averages, so compare against the
        // bin-averaged closed form (the Laplace peak is sharp at λ=3).
        let width = 0.1;
        let laplace_cdf = |lambda: f64, t: f64| {
            if t < 0.0 {
                0.5 * (lambda * t).exp()
            } else {
                1.0 - 0.5 * (-lambda * t).exp()
            }
        };
        for row in rows.iter().filter(|r| r.t.abs() < 1.0) {
            let (a, b) = (row.t - width / 2.0, row.t + width / 2.0);
            let avg = (laplace_cdf(row.lambda, b) - laplace_cdf(row.lambda, a)) / width;
            assert!(
                (row.empirical - avg).abs() < 0.05,
                "λ={} t={} emp={} bin-avg theory={}",
                row.lambda,
                row.t,
                row.empirical,
                avg
            );
        }
    }

    #[test]
    fn alpha1_matches_closed_form() {
        let rows = alpha_rows(400_000, 2);
        let a1 = &rows[0];
        assert_eq!(a1.interval, 1);
        // Paper Eq. 12: α1 = 1/(2e²) ≈ 0.0677.
        assert!((a1.theory - 0.067668).abs() < 1e-5);
        assert!(
            (a1.empirical - a1.theory).abs() < 0.005,
            "emp {}",
            a1.empirical
        );
    }
}
