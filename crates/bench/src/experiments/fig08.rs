//! Fig. 8: parameter tuning. Panel (a): IIR vs. interval for the four
//! real-world datasets. Panel (b): sort time vs. manually-fixed block
//! size ("by omitting the first step of the algorithm", §VI-B). The flat
//! panel, beyond the paper, is panel (b) on flat memory, where blocks
//! are counted rather than quicksorted: the sweep [`FLAT_L0`](backsort_core::FLAT_L0) is read
//! from.

use std::time::Instant;

use backsort_core::iir::exact_iir;
use backsort_core::{Algorithm, BackwardSort};
use backsort_tvlist::SliceSeries;
use backsort_workload::{generate_pairs, Dataset, DatasetKind, DelayModel, StreamSpec};
use serde::Serialize;

use crate::timing::{median, time_sort_tvlist};

/// One Fig. 8(a) point.
#[derive(Debug, Clone, Serialize)]
pub struct IirRow {
    /// Dataset label.
    pub dataset: String,
    /// Interval `L` (powers of two).
    pub interval: usize,
    /// Exact interval inversion ratio at `L`.
    pub iir: f64,
}

/// One Fig. 8(b) point.
#[derive(Debug, Clone, Serialize)]
pub struct BlockSizeRow {
    /// Dataset label.
    pub dataset: String,
    /// Fixed block size `L`.
    pub block_size: usize,
    /// Median sort time in nanoseconds.
    pub nanos: u64,
}

/// One flat-panel point: an input sorted on flat memory at one fixed
/// block size, or by the block-size rule itself.
#[derive(Debug, Clone, Serialize)]
pub struct FlatRow {
    /// Input label: a real dataset, `lognormal-4-1`, or a `bench_flush`
    /// memtable (`flush-100k`, `flush-4x25k`, `flush-4x25k-1s`).
    pub input: String,
    /// Whether this row is the rule's (phase 1 from [`FLAT_L0`](backsort_core::FLAT_L0)) rather
    /// than a fixed `L`.
    pub rule: bool,
    /// The block size: the fixed `L` (`usize::MAX` for `L = N`), or the
    /// largest `L` the rule chose over the input's series.
    pub block_size: usize,
    /// Median sort time over the input's points, in nanoseconds a point.
    pub ns_per_point: f64,
}

/// Panel (a): IIR profile `L = 2^0 … 2^max_exp` per real dataset.
pub fn iir_rows(n: usize, max_exp: u32, seed: u64) -> Vec<IirRow> {
    let mut rows = Vec::new();
    for kind in DatasetKind::REAL {
        let mut ds = Dataset::generate(kind, n, seed);
        let s = SliceSeries::new(&mut ds.pairs);
        for e in 0..=max_exp {
            let l = 1usize << e;
            rows.push(IirRow {
                dataset: kind.name().to_string(),
                interval: l,
                iir: exact_iir(&s, l),
            });
        }
    }
    rows
}

/// Panel (b): Backward-Sort time with the block size pinned to
/// `L = 2^min_exp … 2^max_exp` per real dataset (array size 1M in the
/// paper).
pub fn block_size_rows(
    n: usize,
    min_exp: u32,
    max_exp: u32,
    reps: usize,
    seed: u64,
) -> Vec<BlockSizeRow> {
    let mut rows = Vec::new();
    for kind in DatasetKind::REAL {
        let ds = Dataset::generate(kind, n, seed);
        for e in min_exp..=max_exp {
            let l = 1usize << e;
            let alg = Algorithm::Backward(BackwardSort::with_fixed_block_size(l));
            rows.push(BlockSizeRow {
                dataset: kind.name().to_string(),
                block_size: l,
                nanos: time_sort_tvlist(&alg, &ds.pairs, reps),
            });
        }
    }
    rows
}

/// One series of the flat panel, in arrival order.
type Series = Vec<(i64, i32)>;

/// The flat panel's inputs, each a set of series in arrival order: the
/// four real datasets and `ingest-ooo`'s LogNormal(4, 1) delays at `n`
/// points, then `bench_flush`'s three memtables at their own sizes
/// (seeded `seed + s` per series, so the default seed 42 is the bench's).
fn flat_inputs(n: usize, seed: u64) -> Vec<(String, Vec<Series>)> {
    let stream = |points: usize, delay: DelayModel, interval: i64, seed: u64| {
        let spec = StreamSpec {
            interval,
            ..StreamSpec::new(points, delay, seed)
        };
        generate_pairs(&spec)
            .into_iter()
            .map(|(t, v)| (t, v as i32))
            .collect::<Vec<_>>()
    };
    let lognormal = DelayModel::LogNormal {
        mu: 4.0,
        sigma: 1.0,
    };
    let abs_normal = DelayModel::AbsNormal {
        mu: 1.0,
        sigma: 2.0,
    };
    let memtable = |interval: i64| -> Vec<Series> {
        (0..4)
            .map(|s| stream(25_000, lognormal, interval, seed + s))
            .collect()
    };
    let mut inputs: Vec<(String, Vec<Series>)> = DatasetKind::REAL
        .into_iter()
        .map(|kind| {
            let name = kind.name().to_string();
            (name, vec![Dataset::generate(kind, n, seed).pairs])
        })
        .collect();
    inputs.push(("lognormal-4-1".into(), vec![stream(n, lognormal, 1, seed)]));
    inputs.push((
        "flush-100k".into(),
        vec![stream(100_000, abs_normal, 1, seed)],
    ));
    inputs.push(("flush-4x25k".into(), memtable(1)));
    inputs.push(("flush-4x25k-1s".into(), memtable(1_000)));
    inputs
}

/// Sorts every series of `input` on flat memory with `cfg`, once to warm
/// up and then `reps` times, and returns the median total in nanoseconds
/// a point and the largest block size the sorts chose.
fn time_flat(cfg: &BackwardSort, input: &[Series], reps: usize) -> (f64, usize) {
    let points: usize = input.iter().map(Vec::len).sum();
    let mut block_size = 0;
    let mut samples: Vec<u64> = (0..=reps.max(1))
        .map(|_| {
            let mut copies = input.to_vec();
            let t0 = Instant::now();
            for series in &mut copies {
                let report = cfg.sort_with_report(&mut SliceSeries::new(series));
                block_size = block_size.max(report.block_size);
            }
            let nanos = t0.elapsed().as_nanos() as u64;
            assert!(copies.iter().all(|s| s.is_sorted_by_key(|p| p.0)));
            nanos
        })
        .skip(1)
        .collect();
    (
        median(&mut samples) as f64 / points.max(1) as f64,
        block_size,
    )
}

/// The flat panel: per input, the sort time at each fixed block size
/// `L = 2^min_exp … 2^max_exp` and `L = N`, on flat memory, then the
/// rule's own row (phase 1 from [`FLAT_L0`](backsort_core::FLAT_L0), the paper's `Θ`).
pub fn flat_rows(n: usize, min_exp: u32, max_exp: u32, reps: usize, seed: u64) -> Vec<FlatRow> {
    let mut rows = Vec::new();
    for (input, series) in flat_inputs(n, seed) {
        let fixed = (min_exp..=max_exp).map(|e| 1usize << e).chain([usize::MAX]);
        for l in fixed {
            let (ns_per_point, _) =
                time_flat(&BackwardSort::with_fixed_block_size(l), &series, reps);
            rows.push(FlatRow {
                input: input.clone(),
                rule: false,
                block_size: l,
                ns_per_point,
            });
        }
        let (ns_per_point, block_size) = time_flat(&BackwardSort::default(), &series, reps);
        rows.push(FlatRow {
            input,
            rule: true,
            block_size,
            ns_per_point,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_core::FLAT_L0;

    #[test]
    fn iir_rows_cover_grid_and_separate_datasets() {
        let rows = iir_rows(50_000, 10, 1);
        assert_eq!(rows.len(), 4 * 11);
        let samsung_d5_32: f64 = rows
            .iter()
            .find(|r| r.dataset == "samsung-d5" && r.interval == 32)
            .unwrap()
            .iir;
        assert_eq!(samsung_d5_32, 0.0, "samsung dies by 2^5");
        let citibike_32: f64 = rows
            .iter()
            .find(|r| r.dataset == "citibike-201808" && r.interval == 32)
            .unwrap()
            .iir;
        assert!(citibike_32 > 0.0, "citibike persists");
    }

    #[test]
    fn block_size_sweep_runs_and_mid_sizes_beat_extremes_on_samsung() {
        let rows = block_size_rows(30_000, 2, 14, 3, 2);
        let samsung: Vec<&BlockSizeRow> =
            rows.iter().filter(|r| r.dataset == "samsung-s10").collect();
        assert!(!samsung.is_empty());
        let best = samsung.iter().map(|r| r.nanos).min().unwrap();
        let at_tiny = samsung.iter().find(|r| r.block_size == 4).unwrap().nanos;
        assert!(best <= at_tiny, "some L must beat L=4");
    }

    #[test]
    fn flat_panel_sweeps_every_input_and_ends_each_with_the_rule() {
        let rows = flat_rows(5_000, 8, 11, 1, 3);
        // Eight inputs, each four fixed sizes, `L = N` and the rule.
        assert_eq!(rows.len(), 8 * 6);
        for input in rows.chunks(6) {
            let rule = &input[5];
            assert!(rule.rule && input[..5].iter().all(|r| !r.rule));
            assert!(rule.block_size >= FLAT_L0.min(5_000), "{rule:?}");
            assert!(input.iter().all(|r| r.ns_per_point > 0.0));
        }
    }
}
