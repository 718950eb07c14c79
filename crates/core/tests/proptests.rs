//! Property tests for Backward-Sort: correctness on arbitrary inputs,
//! equivalence with the oracle for every configuration, and the invariants
//! the performance analysis relies on.

use backsort_core::{
    backward_sort, choose_block_size, choose_block_size_reporting, iir, merge, Algorithm,
    BackwardSort, InBlockSort, COUNTING_MIN_LEN, FLAT_L0,
};
use backsort_sorts::SeriesSorter;
use backsort_tvlist::{Instrumented, SeriesAccess, SliceSeries, TVList};
use proptest::prelude::*;

fn delay_only(delays: &[u16]) -> Vec<(i64, i32)> {
    let mut arrivals: Vec<(i64, i64)> = delays
        .iter()
        .enumerate()
        .map(|(i, &d)| (i as i64 + d as i64, i as i64))
        .collect();
    arrivals.sort_by_key(|a| a.0);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(idx, (_, g))| (g, idx as i32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sorts_arbitrary_input(times in prop::collection::vec(any::<i64>(), 0..400)) {
        let mut data: Vec<(i64, i32)> =
            times.iter().enumerate().map(|(i, &t)| (t, i as i32)).collect();
        let mut expected: Vec<i64> = times.clone();
        expected.sort_unstable();
        let mut s = SliceSeries::new(&mut data);
        backward_sort(&mut s);
        let got: Vec<i64> = (0..s.len()).map(|i| s.time(i)).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn sorts_delay_only_input(delays in prop::collection::vec(0u16..64, 1..600)) {
        let input = delay_only(&delays);
        let mut data = input.clone();
        let mut s = SliceSeries::new(&mut data);
        backward_sort(&mut s);
        prop_assert!(backsort_tvlist::is_time_sorted(&s));
        // Permutation check.
        let mut got = data.clone();
        let mut want = input;
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn every_fixed_block_size_sorts(
        delays in prop::collection::vec(0u16..32, 2..300),
        l in 1usize..64,
    ) {
        let input = delay_only(&delays);
        let mut data = input;
        let mut s = SliceSeries::new(&mut data);
        BackwardSort::with_fixed_block_size(l).sort_series(&mut s);
        prop_assert!(backsort_tvlist::is_time_sorted(&s));
    }

    #[test]
    fn every_theta_and_l0_sorts(
        delays in prop::collection::vec(0u16..32, 2..300),
        theta in 0.0f64..0.5,
        l0 in 1usize..32,
    ) {
        let input = delay_only(&delays);
        let mut data = input;
        let mut s = SliceSeries::new(&mut data);
        BackwardSort::new(theta, l0).sort_series(&mut s);
        prop_assert!(backsort_tvlist::is_time_sorted(&s));
    }

    #[test]
    fn stable_config_matches_std_stable_sort(
        times in prop::collection::vec(0i64..30, 0..300),
    ) {
        let input: Vec<(i64, i32)> =
            times.iter().enumerate().map(|(i, &t)| (t, i as i32)).collect();
        let mut expected = input.clone();
        expected.sort_by_key(|p| p.0);
        let mut data = input;
        let cfg = BackwardSort { in_block: InBlockSort::Stable, ..BackwardSort::default() };
        let mut s = SliceSeries::new(&mut data);
        cfg.sort_series(&mut s);
        prop_assert_eq!(data, expected);
    }

    /// Append-k / sort-from, repeated over a delayed stream with equal
    /// timestamps, against one sort of the whole stream: every contender
    /// ends with the same points in time order, and the stable
    /// configuration with exactly the stable sort of arrival order — ties
    /// across the ordered run and the tail included.
    #[test]
    fn repeated_sort_from_matches_one_whole_sort(
        delays in prop::collection::vec(0u16..48, 1..400),
        k in 1usize..90,
    ) {
        // Halved timestamps: every other point repeats one.
        let arrival: Vec<(i64, i32)> =
            delay_only(&delays).into_iter().map(|(t, v)| (t / 2, v)).collect();
        let mut stable = arrival.clone();
        stable.sort_by_key(|p| p.0);
        let mut want = stable.clone();
        want.sort_unstable();

        let mut algorithms = Algorithm::contenders();
        algorithms.push(Algorithm::Backward(BackwardSort {
            in_block: InBlockSort::Stable,
            ..BackwardSort::default()
        }));
        for (a, alg) in algorithms.iter().enumerate() {
            let mut got: Vec<(i64, i32)> = Vec::new();
            for batch in arrival.chunks(k) {
                got.extend_from_slice(batch);
                let sorted_len = got
                    .windows(2)
                    .position(|w| w[1].0 < w[0].0)
                    .map_or(got.len(), |i| i + 1);
                alg.sort_from_observed(&mut got, sorted_len, None);
                prop_assert!(
                    got.windows(2).all(|w| w[0].0 <= w[1].0),
                    "{} left the got unordered", alg.name()
                );
            }
            if a + 1 == algorithms.len() {
                prop_assert_eq!(&got, &stable, "stable configuration, k={}", k);
            }
            let mut got_set = got;
            got_set.sort_unstable();
            prop_assert_eq!(&got_set, &want, "{} lost or invented a point", alg.name());
        }
    }

    /// A flat series' blocks are sorted as slices — counted when at least
    /// 256 points span under 2¹⁶, else by comparison — an instrumented
    /// one's through `SeriesAccess` with the paper's quicksort: for every
    /// in-block sort, searched and fixed block sizes (both sides of the
    /// 256-point cut-over), on delay-only and shuffled streams with equal
    /// timestamps, those scaled by 1,000 (ranges on both sides of 2¹⁶),
    /// and delay-only streams shifted to `i64::MIN` and across
    /// `i64::MAX`, the two give the same timestamps, and the stable
    /// configuration exactly the pairs the standard stable sort gives.
    #[test]
    fn flat_and_generic_block_sorts_agree(
        delays in prop::collection::vec(0u16..64, 1..1_200),
        shuffled in prop::collection::vec(0i64..40, 1..1_200),
        l in 1usize..64,
    ) {
        let delayed: Vec<(i64, i32)> =
            delay_only(&delays).into_iter().map(|(t, v)| (t / 2, v)).collect();
        let shuffled: Vec<(i64, i32)> =
            shuffled.iter().enumerate().map(|(i, &t)| (t, i as i32)).collect();
        let mapped = |p: &[(i64, i32)], f: fn(i64) -> i64| -> Vec<(i64, i32)> {
            p.iter().map(|&(t, v)| (f(t), v)).collect()
        };
        let inputs = [
            mapped(&delayed, |t| t * 1_000),
            mapped(&shuffled, |t| t * 1_000),
            mapped(&delayed, |t| t.wrapping_add(i64::MIN)),
            mapped(&delayed, |t| t.wrapping_add(i64::MAX - 100)),
            delayed,
            shuffled,
        ];
        for input in inputs {
            let mut stable = input.clone();
            stable.sort_by_key(|p| p.0);
            let times = |p: &[(i64, i32)]| p.iter().map(|p| p.0).collect::<Vec<_>>();
            for in_block in [InBlockSort::Quick, InBlockSort::Stable] {
                for fixed_block_size in [None, Some(l), Some(255), Some(256), Some(700)] {
                    let cfg = BackwardSort { in_block, fixed_block_size, ..BackwardSort::default() };
                    let mut flat = input.clone();
                    cfg.sort_series(&mut SliceSeries::new(&mut flat));
                    let mut generic = input.clone();
                    cfg.sort_series(&mut Instrumented::new(SliceSeries::new(&mut generic)));
                    prop_assert_eq!(times(&flat), times(&stable), "{:?} {:?}", in_block, fixed_block_size);
                    prop_assert_eq!(times(&generic), times(&stable), "{:?} {:?}", in_block, fixed_block_size);
                    let mut flat_set = flat.clone();
                    flat_set.sort_unstable();
                    let mut want = stable.clone();
                    want.sort_unstable();
                    prop_assert_eq!(flat_set, want, "{:?} lost or invented a point", in_block);
                    if in_block == InBlockSort::Stable {
                        prop_assert_eq!(&flat, &stable, "{:?} {:?}", in_block, fixed_block_size);
                        prop_assert_eq!(&generic, &stable, "{:?} {:?}", in_block, fixed_block_size);
                    }
                }
            }
        }
    }

    #[test]
    fn tvlist_and_slice_agree(
        delays in prop::collection::vec(0u16..48, 1..300),
        array_size in 1usize..40,
    ) {
        let input = delay_only(&delays);
        let mut slice_data = input.clone();
        {
            let mut s = SliceSeries::new(&mut slice_data);
            backward_sort(&mut s);
        }
        let mut list = TVList::<i32>::with_array_size(array_size);
        for &(t, v) in &input {
            list.push(t, v);
        }
        backward_sort(&mut list);
        let list_pairs = list.to_pairs();
        // Timestamps must agree exactly; values may differ between equal
        // timestamps (quicksort blocks are unstable) so compare times.
        let st: Vec<i64> = slice_data.iter().map(|p| p.0).collect();
        let lt: Vec<i64> = list_pairs.iter().map(|p| p.0).collect();
        prop_assert_eq!(st, lt);
    }

    #[test]
    fn iir_estimator_is_a_ratio(
        times in prop::collection::vec(any::<i64>(), 2..300),
        l in 1usize..128,
    ) {
        let mut data: Vec<(i64, i32)> = times.iter().map(|&t| (t, 0)).collect();
        let s = SliceSeries::new(&mut data);
        let a = iir::sampled_iir(&s, l);
        let e = iir::exact_iir(&s, l);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn chosen_block_size_is_within_bounds(
        delays in prop::collection::vec(0u16..256, 2..500),
        l0 in 1usize..16,
    ) {
        let input = delay_only(&delays);
        let mut data = input;
        let s = SliceSeries::new(&mut data);
        let n = s.len();
        let (l, loops) = choose_block_size(&s, 0.04, l0);
        prop_assert!(l >= l0.min(n.max(1)));
        prop_assert!(l <= n.max(1) * 2); // last doubling may overshoot once
        // Proposition 3: at most log2(n/l0) + 1 iterations.
        let bound = ((n.max(2) / l0.max(1)).max(2) as f64).log2().ceil() as usize + 2;
        prop_assert!(loops <= bound, "loops {loops} > bound {bound}");
        // Each round doubles L; only the cap at n breaks the pattern.
        prop_assert!(l == n || l == l0 << (loops - 1), "l {l} after {loops} rounds from {l0}");
    }

    #[test]
    fn merge_is_equivalent_to_full_sort(
        left in prop::collection::vec(-500i64..500, 1..80),
        right in prop::collection::vec(-500i64..500, 1..80),
    ) {
        let mut l = left.clone();
        let mut r = right.clone();
        l.sort_unstable();
        r.sort_unstable();
        let mut data: Vec<(i64, i32)> = l
            .iter()
            .chain(r.iter())
            .enumerate()
            .map(|(i, &t)| (t, i as i32))
            .collect();
        let mid = l.len();
        let end = data.len();
        let mut expected: Vec<i64> = data.iter().map(|p| p.0).collect();
        expected.sort_unstable();
        let mut scratch = Vec::new();
        let mut s = SliceSeries::new(&mut data);
        let stats = merge::merge_block_with_suffix(&mut s, 0, mid, end, &mut scratch);
        let got: Vec<i64> = (0..s.len()).map(|i| s.time(i)).collect();
        prop_assert_eq!(got, expected);
        prop_assert!(stats.scratch_used <= l.len().min(r.len()));
    }

    #[test]
    fn straight_and_backward_merge_agree(
        delays in prop::collection::vec(0u16..20, 8..300),
        block in 4usize..64,
    ) {
        let input = delay_only(&delays);
        let n = input.len();
        // Pre-sort blocks.
        let mut a = input.clone();
        let mut b_data = input;
        let blocks = (n / block).max(1);
        for arr in [&mut a, &mut b_data] {
            let mut s = SliceSeries::new(arr);
            for i in 0..blocks {
                let lo = i * block;
                let hi = if i + 1 == blocks { n } else { lo + block };
                backsort_sorts::quicksort_range(&mut s, lo, hi);
            }
        }
        let mut scratch = Vec::new();
        {
            let mut s = SliceSeries::new(&mut a);
            merge::straight_merge_blocks(&mut s, block, &mut scratch);
        }
        {
            let mut s = SliceSeries::new(&mut b_data);
            for i in (0..blocks.saturating_sub(1)).rev() {
                merge::merge_block_with_suffix(&mut s, i * block, (i + 1) * block, n, &mut scratch);
            }
        }
        let at: Vec<i64> = a.iter().map(|p| p.0).collect();
        let bt: Vec<i64> = b_data.iter().map(|p| p.0).collect();
        prop_assert_eq!(at, bt);
        prop_assert!(backsort_tvlist::is_time_sorted(&SliceSeries::new(&mut a)));
    }
}

proptest! {
    // Each case sorts 84 series of up to 3,000 points twice.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under `Stable` the flat rule — phase 1 from `FLAT_L0`, blocks
    /// counted or compared — and a `TVList`'s paper path (`L0 = 4`,
    /// quicksort through `SeriesAccess`) give the very same pairs: for
    /// series shorter than `FLAT_L0` (one block), at `COUNTING_MIN_LEN ± 1`,
    /// at and past `FLAT_L0`; with equal timestamps; at spans below,
    /// around and above 2¹⁶; and shifted to start at `i64::MIN` or to
    /// end at `i64::MAX`.
    #[test]
    fn the_flat_rule_and_the_tvlist_path_give_the_same_pairs(
        delays in prop::collection::vec(0u16..64, 3 * FLAT_L0..3 * FLAT_L0 + 1),
        short in 1usize..FLAT_L0,
        long in FLAT_L0..3 * FLAT_L0,
        dup in 1i64..4,
    ) {
        let stable = BackwardSort { in_block: InBlockSort::Stable, ..BackwardSort::default() };
        let lens = [
            short,
            COUNTING_MIN_LEN - 1,
            COUNTING_MIN_LEN,
            COUNTING_MIN_LEN + 1,
            FLAT_L0 - 1,
            FLAT_L0,
            long,
        ];
        for len in lens {
            let base = delay_only(&delays[..len]);
            let max = base.iter().map(|p| p.0).max().unwrap_or(0);
            // 63 and 64 put a `FLAT_L0`-point block's span either side of 2¹⁶.
            for scale in [1, 63, 64, 1_000] {
                let scaled = |shift: i64| -> Vec<(i64, i32)> {
                    base.iter().map(|&(t, v)| ((t / dup * scale).wrapping_add(shift), v)).collect()
                };
                for input in [scaled(0), scaled(i64::MIN), scaled(i64::MAX - max / dup * scale)] {
                    let mut want = input.clone();
                    want.sort_by_key(|p| p.0);
                    let mut flat = input.clone();
                    let report = stable.sort_with_report(&mut SliceSeries::new(&mut flat));
                    let mut list = TVList::from_pairs(input.iter().copied());
                    stable.sort_series(&mut list);
                    let listed: Vec<(i64, i32)> = (0..list.len()).map(|i| list.get(i)).collect();
                    prop_assert_eq!(&flat, &want, "len {} scale {}", len, scale);
                    prop_assert_eq!(&listed, &want, "len {} scale {}", len, scale);
                    if len < FLAT_L0 {
                        prop_assert_eq!((report.block_size, report.blocks), (len, 1));
                    } else {
                        prop_assert!(report.block_size >= FLAT_L0, "{:?}", report);
                    }
                }
            }
        }
    }
}

/// A `TVList` (and an instrumented series) still takes the paper's phase
/// 1 — `L` doubling from `L0 = 4` — so its report's block size and probe
/// loops are `choose_block_size_reporting(s, 0.04, 4)`'s, well under
/// `FLAT_L0` here; the same input on flat memory starts at `FLAT_L0`.
#[test]
fn a_tvlist_reports_the_papers_block_size_and_loops() {
    let mut x = 0x5eed_u64;
    let delays: Vec<u16> = (0..50_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 24) as u16
        })
        .collect();
    let input = delay_only(&delays);
    let list = TVList::from_pairs(input.iter().copied());
    let (l, loops, _) = choose_block_size_reporting(&list, 0.04, 4);
    assert!(l < FLAT_L0 && loops > 1, "L {l} after {loops} loops");

    let mut sorted = list.clone();
    let report = BackwardSort::default().sort_with_report(&mut sorted);
    assert_eq!((report.block_size, report.size_loops), (l, loops));
    let mut generic = input.clone();
    let report = BackwardSort::default()
        .sort_with_report(&mut Instrumented::new(SliceSeries::new(&mut generic)));
    assert_eq!((report.block_size, report.size_loops), (l, loops));

    let mut flat = input;
    let report = BackwardSort::default().sort_with_report(&mut SliceSeries::new(&mut flat));
    assert!(report.block_size >= FLAT_L0, "{report:?}");
    assert_eq!(flat, generic);
}
