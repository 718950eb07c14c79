//! The four evaluation datasets (paper §VI-A3).
//!
//! AbsNormal and LogNormal are the paper's own synthetic families. The two
//! real-world datasets — CitiBike trip records and the Samsung
//! accelerometer traces — are not redistributable here, so each is
//! replaced by an IIR-calibrated stand-in (DESIGN.md §5): the sorting
//! algorithms only observe the timestamp sequence, and the interval
//! inversion ratio profile is precisely the statistic that drives block
//! size choice and overlap work, so a generator matched on that profile
//! exercises the same code paths:
//!
//! * `citibike-*` — heavy-tailed delays (Pareto mixture): IIR stays
//!   non-zero out to `L ≈ 2^16`, α₁ ≈ 10⁻¹ (Fig. 8(a)'s upper curves);
//! * `samsung-*` — short bounded delays: IIR truncates to zero by
//!   `L ≈ 2^5`, α₁ ≈ 10⁻² (Fig. 8(a)'s lower curves).

use crate::delay::DelayModel;
use crate::stream::{generate_pairs, SignalKind, StreamSpec};

/// One of the evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Synthetic `|Normal(μ, σ)|` delays; Fig. 9's knob is σ.
    AbsNormal01,
    /// Synthetic `LogNormal(0, 1)` delays.
    LogNormal01,
    /// CitiBike-like, August 2018 flavor (heavier disorder).
    Citibike201808,
    /// CitiBike-like, February 2019 flavor (slightly lighter).
    Citibike201902,
    /// Samsung-like, device D5 (least disorder).
    SamsungD5,
    /// Samsung-like, device S10.
    SamsungS10,
}

impl DatasetKind {
    /// All four "named" datasets of Fig. 8/11/12 plus the two synthetic
    /// families.
    pub const ALL: [DatasetKind; 6] = [
        DatasetKind::AbsNormal01,
        DatasetKind::LogNormal01,
        DatasetKind::Citibike201808,
        DatasetKind::Citibike201902,
        DatasetKind::SamsungD5,
        DatasetKind::SamsungS10,
    ];

    /// The four real-world panels of Fig. 8(a)/11.
    pub const REAL: [DatasetKind; 4] = [
        DatasetKind::Citibike201808,
        DatasetKind::Citibike201902,
        DatasetKind::SamsungD5,
        DatasetKind::SamsungS10,
    ];

    /// Display name matching the paper's panel labels.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::AbsNormal01 => "AbsNormal(0,1)",
            DatasetKind::LogNormal01 => "LogNormal(0,1)",
            DatasetKind::Citibike201808 => "citibike-201808",
            DatasetKind::Citibike201902 => "citibike-201902",
            DatasetKind::SamsungD5 => "samsung-d5",
            DatasetKind::SamsungS10 => "samsung-s10",
        }
    }

    /// Parses a panel label.
    pub fn from_name(name: &str) -> Option<DatasetKind> {
        let lower = name.to_ascii_lowercase();
        Some(match lower.as_str() {
            "absnormal" | "absnormal(0,1)" | "absnormal01" => DatasetKind::AbsNormal01,
            "lognormal" | "lognormal(0,1)" | "lognormal01" => DatasetKind::LogNormal01,
            "citibike-201808" | "citibike-1808" | "citibike201808" => DatasetKind::Citibike201808,
            "citibike-201902" | "citibike-1902" | "citibike201902" => DatasetKind::Citibike201902,
            "samsung-d5" | "samsungd5" => DatasetKind::SamsungD5,
            "samsung-s10" | "samsungs10" => DatasetKind::SamsungS10,
            _ => return None,
        })
    }

    /// The delay model realizing this dataset's disorder profile.
    pub fn delay_model(&self) -> DelayModel {
        match self {
            DatasetKind::AbsNormal01 => DelayModel::AbsNormal {
                mu: 0.0,
                sigma: 1.0,
            },
            DatasetKind::LogNormal01 => DelayModel::LogNormal {
                mu: 0.0,
                sigma: 1.0,
            },
            // Heavy tail reaching ~2^16: a Pareto straggler mixture on
            // top of a noisy body, calibrated so α1 ≈ 1.7e-1 and the IIR
            // stays non-zero at L = 2^16, matching Fig. 8(a)'s citibike
            // curves.
            DatasetKind::Citibike201808 => DelayModel::HeavyTail {
                p: 0.02,
                scale: 16.0,
                shape: 0.85,
                base_sigma: 1.2,
                cap: 65_536.0,
            },
            DatasetKind::Citibike201902 => DelayModel::HeavyTail {
                p: 0.015,
                scale: 12.0,
                shape: 1.0,
                base_sigma: 1.0,
                cap: 32_768.0,
            },
            // Short bounded-ish delays: IIR gone by L ≈ 2^5.
            DatasetKind::SamsungD5 => DelayModel::AbsNormal {
                mu: 0.0,
                sigma: 0.6,
            },
            DatasetKind::SamsungS10 => DelayModel::AbsNormal {
                mu: 0.0,
                sigma: 1.4,
            },
        }
    }
}

/// A materialized dataset: a reproducible out-of-order series.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which profile this is.
    pub kind: DatasetKind,
    /// `(generation timestamp, value)` pairs in arrival order.
    pub pairs: Vec<(i64, i32)>,
}

impl Dataset {
    /// Generates `n` points of the given dataset, deterministically in
    /// `seed`.
    pub fn generate(kind: DatasetKind, n: usize, seed: u64) -> Self {
        // Heavy-tail delays need clamping to honour the separation
        // policy: IoTDB routes extreme stragglers to the unsequence path
        // (paper §II), so the in-memory series never sees delays beyond
        // the memtable horizon.
        let spec = StreamSpec {
            n,
            interval: 1,
            delay: kind.delay_model(),
            signal: SignalKind::Index,
            seed: seed ^ (kind as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let pairs = generate_pairs(&spec)
            .into_iter()
            .map(|(t, v)| (t, v as i32))
            .collect();
        Self { kind, pairs }
    }

    /// The timestamp sequence.
    pub fn times(&self) -> Vec<i64> {
        self.pairs.iter().map(|p| p.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::interval_inversion_ratio;

    #[test]
    fn all_datasets_generate_requested_size() {
        for kind in DatasetKind::ALL {
            let ds = Dataset::generate(kind, 10_000, 1);
            assert_eq!(ds.pairs.len(), 10_000, "{}", ds.kind.name());
        }
    }

    #[test]
    fn deterministic_in_seed_and_distinct_across_kinds() {
        let a = Dataset::generate(DatasetKind::SamsungD5, 1_000, 7);
        let b = Dataset::generate(DatasetKind::SamsungD5, 1_000, 7);
        let c = Dataset::generate(DatasetKind::SamsungS10, 1_000, 7);
        assert_eq!(a.pairs, b.pairs);
        assert_ne!(a.pairs, c.pairs);
    }

    #[test]
    fn samsung_iir_truncates_by_2_to_5() {
        let ds = Dataset::generate(DatasetKind::SamsungD5, 100_000, 3);
        let times = ds.times();
        assert!(interval_inversion_ratio(&times, 1) > 0.0);
        assert_eq!(
            interval_inversion_ratio(&times, 32),
            0.0,
            "samsung IIR must die by 2^5"
        );
    }

    #[test]
    fn citibike_iir_persists_past_2_to_10() {
        let ds = Dataset::generate(DatasetKind::Citibike201808, 200_000, 3);
        let times = ds.times();
        assert!(
            interval_inversion_ratio(&times, 1024) > 0.0,
            "citibike IIR must persist past 2^10"
        );
    }

    #[test]
    fn citibike_more_disordered_than_samsung() {
        let cb = Dataset::generate(DatasetKind::Citibike201808, 100_000, 5);
        let sam = Dataset::generate(DatasetKind::SamsungS10, 100_000, 5);
        // The distinguishing feature (Fig. 8(a)) is tail reach: samsung's
        // IIR dies by 2^5 while citibike's persists for many octaves.
        let a_cb = interval_inversion_ratio(&cb.times(), 64);
        let a_sam = interval_inversion_ratio(&sam.times(), 64);
        assert!(
            a_cb > a_sam,
            "citibike α64 {a_cb} must exceed samsung α64 {a_sam}"
        );
        assert_eq!(a_sam, 0.0);
    }

    #[test]
    fn names_roundtrip() {
        for kind in DatasetKind::ALL {
            assert_eq!(DatasetKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(DatasetKind::from_name("nope"), None);
    }

    #[test]
    fn timestamps_are_a_permutation_of_generation_grid() {
        let ds = Dataset::generate(DatasetKind::LogNormal01, 5_000, 2);
        let mut times = ds.times();
        times.sort_unstable();
        assert_eq!(times, (0..5_000).collect::<Vec<i64>>());
    }
}
