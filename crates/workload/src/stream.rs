//! Arrival-order stream synthesis (paper §II-A / Definition 5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delay::DelayModel;

/// The value signal carried alongside timestamps.
///
/// IoTDB-benchmark generates periodic signals; the forecasting experiment
/// (§VI-E) needs a learnable one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SignalKind {
    /// `i as value` — cheap and collision-free; the default for sort
    /// benchmarks where values are payload only.
    Index,
    /// `amp·sin(2π i / period) + noise` — IoTDB-benchmark's periodic
    /// generator, used for forecasting.
    Sine {
        /// Oscillation period in points.
        period: f64,
        /// Amplitude.
        amp: f64,
        /// Gaussian noise σ added on top.
        noise: f64,
    },
    /// Random walk with the given step σ.
    Walk {
        /// Step standard deviation.
        step: f64,
    },
}

/// Everything needed to synthesize one out-of-order series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Number of points.
    pub n: usize,
    /// Generation interval between consecutive points (the paper
    /// normalizes to 1; real traces scale it).
    pub interval: i64,
    /// Delay distribution (in units of `interval`).
    pub delay: DelayModel,
    /// Value signal.
    pub signal: SignalKind,
    /// RNG seed — all output is deterministic in this.
    pub seed: u64,
}

impl StreamSpec {
    /// A delay-only spec with index values and unit interval.
    pub fn new(n: usize, delay: DelayModel, seed: u64) -> Self {
        Self {
            n,
            interval: 1,
            delay,
            signal: SignalKind::Index,
            seed,
        }
    }
}

/// Generates the series as `(generation timestamp, value)` pairs in
/// *arrival* order.
///
/// Point `i` is generated at `t_i = i · interval` and arrives at
/// `t_i + τ_i · interval`; the output is sorted by arrival (stable, so
/// simultaneous arrivals keep generation order). Sorting the result by
/// its timestamps recovers generation order.
pub fn generate_pairs(spec: &StreamSpec) -> Vec<(i64, f64)> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut walk = 0.0f64;
    let mut points: Vec<(f64, i64, f64)> = Vec::with_capacity(spec.n);
    for i in 0..spec.n {
        let gen_t = i as i64 * spec.interval;
        let delay = spec.delay.sample(&mut rng);
        let arrival = gen_t as f64 + delay * spec.interval as f64;
        let value = match spec.signal {
            SignalKind::Index => i as f64,
            SignalKind::Sine { period, amp, noise } => {
                let base = amp * (2.0 * std::f64::consts::PI * i as f64 / period).sin();
                if noise > 0.0 {
                    base + noise * sample_standard_normal(&mut rng)
                } else {
                    base
                }
            }
            SignalKind::Walk { step } => {
                walk += step * sample_standard_normal(&mut rng);
                walk
            }
        };
        points.push((arrival, gen_t, value));
    }
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("arrivals are finite"));
    points.into_iter().map(|(_, t, v)| (t, v)).collect()
}

fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    use rand_distr::{Distribution, StandardNormal};
    <StandardNormal as Distribution<f64>>::sample(&StandardNormal, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_delay_stream_is_sorted() {
        let spec = StreamSpec::new(1_000, DelayModel::None, 1);
        let pairs = generate_pairs(&spec);
        assert_eq!(pairs.len(), 1_000);
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(pairs[0], (0, 0.0));
    }

    #[test]
    fn delayed_stream_is_a_permutation_of_generation_times() {
        let spec = StreamSpec::new(
            5_000,
            DelayModel::AbsNormal {
                mu: 0.0,
                sigma: 4.0,
            },
            2,
        );
        let pairs = generate_pairs(&spec);
        let mut times: Vec<i64> = pairs.iter().map(|p| p.0).collect();
        assert!(
            !times.windows(2).all(|w| w[0] <= w[1]),
            "should be out of order"
        );
        times.sort_unstable();
        assert_eq!(times, (0..5_000).collect::<Vec<i64>>());
    }

    #[test]
    fn deterministic_in_seed() {
        let spec = StreamSpec::new(
            500,
            DelayModel::LogNormal {
                mu: 1.0,
                sigma: 1.0,
            },
            42,
        );
        assert_eq!(generate_pairs(&spec), generate_pairs(&spec));
        let other = StreamSpec { seed: 43, ..spec };
        assert_ne!(generate_pairs(&spec), generate_pairs(&other));
    }

    #[test]
    fn interval_scales_timestamps() {
        let spec = StreamSpec {
            interval: 100,
            ..StreamSpec::new(100, DelayModel::None, 3)
        };
        let pairs = generate_pairs(&spec);
        assert_eq!(pairs[1].0, 100);
        assert_eq!(pairs[99].0, 9_900);
    }

    #[test]
    fn sine_signal_is_bounded() {
        let spec = StreamSpec {
            signal: SignalKind::Sine {
                period: 50.0,
                amp: 10.0,
                noise: 0.0,
            },
            ..StreamSpec::new(200, DelayModel::None, 5)
        };
        let pairs = generate_pairs(&spec);
        assert!(pairs.iter().all(|&(_, v)| v.abs() <= 10.0 + 1e-9));
        // It actually oscillates.
        assert!(pairs.iter().any(|&(_, v)| v > 5.0));
        assert!(pairs.iter().any(|&(_, v)| v < -5.0));
    }

    #[test]
    fn delay_only_property_holds() {
        // A point may arrive late but never before a point generated
        // `ceil(max delay)` earlier has arrived... the weaker, testable
        // form: arrival order never places generation time g after more
        // than (delay bound) later generations.
        let k = 6u32;
        let spec = StreamSpec::new(2_000, DelayModel::DiscreteUniform { k }, 11);
        let pairs = generate_pairs(&spec);
        for (idx, &(t, _)) in pairs.iter().enumerate() {
            // Displacement backward is bounded by the max delay.
            let displacement = idx as i64 - t;
            assert!(
                displacement <= k as i64 + 1,
                "point {t} displaced {displacement}"
            );
        }
    }
}
