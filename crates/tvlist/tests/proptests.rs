//! Property tests: a TVList must behave exactly like a vector of pairs
//! under any interleaving of the sort-interface operations.

use backsort_tvlist::{SeriesAccess, SliceSeries, TVList};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

#[derive(Debug, Clone)]
enum Op {
    Set { i: usize, t: i64, v: i32 },
    Swap { a: usize, b: usize },
}

fn ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..len, any::<i64>(), any::<i32>()).prop_map(|(i, t, v)| Op::Set { i, t, v }),
            (0..len, 0..len).prop_map(|(a, b)| Op::Swap { a, b }),
        ],
        0..64,
    )
}

/// Every operation that can change what a list holds or what it claims
/// about its order. Indices are reduced modulo the length at hand; small
/// timestamps make ordered runs and equal timestamps both common.
#[derive(Debug, Clone)]
enum ListOp {
    Push(i64),
    Extend(Vec<i64>),
    Set(usize, i64),
    Swap(usize, usize),
    CopyWithin(usize, usize, usize),
    CopyFromSlice(usize, Vec<i64>),
    Retain(i64),
    Clear,
    SortAndMark,
}

fn list_ops() -> impl Strategy<Value = Vec<ListOp>> {
    let t = || 0i64..48;
    let at = || 0usize..1_000;
    prop::collection::vec(
        prop_oneof![
            t().prop_map(ListOp::Push),
            t().prop_map(ListOp::Push),
            prop::collection::vec(t(), 0..12).prop_map(ListOp::Extend),
            prop::collection::vec(t(), 0..12).prop_map(|mut ts| {
                ts.sort_unstable();
                ListOp::Extend(ts)
            }),
            (at(), t()).prop_map(|(i, t)| ListOp::Set(i, t)),
            (at(), at()).prop_map(|(a, b)| ListOp::Swap(a, b)),
            (at(), at(), at()).prop_map(|(a, b, d)| ListOp::CopyWithin(a, b, d)),
            (at(), prop::collection::vec(t(), 0..8))
                .prop_map(|(d, ts)| ListOp::CopyFromSlice(d, ts)),
            t().prop_map(ListOp::Retain),
            t().prop_map(|_| ListOp::Clear),
            t().prop_map(|_| ListOp::SortAndMark),
        ],
        0..80,
    )
}

proptest! {
    /// `s[..sorted_len()]` is time-ordered after every operation, the
    /// flag implies the whole list is that run, and none of the
    /// bookkeeping disturbs the contents (checked against a `Vec`).
    #[test]
    fn sorted_prefix_is_ordered_at_every_instant(ops in list_ops(), array_size in 1usize..9) {
        let mut list = TVList::<i32>::with_array_size(array_size);
        let mut model: Vec<(i64, i32)> = Vec::new();
        let mut stamp = 0i32;
        let mut pairs = |ts: &[i64]| -> Vec<(i64, i32)> {
            ts.iter().map(|&t| { stamp += 1; (t, stamp) }).collect()
        };
        for op in ops {
            let n = model.len();
            match op {
                ListOp::Push(t) => {
                    let p = pairs(&[t])[0];
                    list.push(p.0, p.1);
                    model.push(p);
                }
                ListOp::Extend(ts) => {
                    let ps = pairs(&ts);
                    let vs: Vec<i32> = ps.iter().map(|p| p.1).collect();
                    list.extend_from_slices(&ts, &vs);
                    model.extend(ps);
                }
                ListOp::Set(i, t) if n > 0 => {
                    let p = pairs(&[t])[0];
                    list.set(i % n, p.0, p.1);
                    model[i % n] = p;
                }
                ListOp::Swap(a, b) if n > 0 => {
                    list.swap(a % n, b % n);
                    model.swap(a % n, b % n);
                }
                ListOp::CopyWithin(a, b, d) if n > 0 => {
                    let (lo, hi) = ((a % n).min(b % n), (a % n).max(b % n));
                    let dst = d % (n - (hi - lo) + 1);
                    list.copy_within(lo, hi, dst);
                    model.copy_within(lo..hi, dst);
                }
                ListOp::CopyFromSlice(d, ts) if n > 0 => {
                    let dst = d % n;
                    let ps = pairs(&ts[..ts.len().min(n - dst)]);
                    list.copy_from_slice(dst, &ps);
                    model[dst..dst + ps.len()].copy_from_slice(&ps);
                }
                ListOp::Retain(t) => {
                    let removed = list.retain(|pt, _| pt != t);
                    let before = model.len();
                    model.retain(|p| p.0 != t);
                    prop_assert_eq!(removed, before - model.len());
                }
                ListOp::Clear => {
                    list.clear();
                    model.clear();
                }
                ListOp::SortAndMark => {
                    // A sort through the interface, then the claim.
                    for i in 1..n {
                        let mut j = i;
                        while j > 0 && list.time(j - 1) > list.time(j) {
                            list.swap(j - 1, j);
                            j -= 1;
                        }
                    }
                    list.mark_sorted();
                    model.sort_by_key(|p| p.0);
                    prop_assert!(list.is_sorted());
                }
                // Positional operations on an empty list: nothing to do.
                _ => {}
            }
            prop_assert_eq!(list.to_pairs(), model.clone());
            let run = list.sorted_len();
            prop_assert!(run <= list.len(), "sorted_len {} past len {}", run, list.len());
            prop_assert!(
                model[..run].windows(2).all(|w| w[0].0 <= w[1].0),
                "s[..{}] is not time-ordered: {:?}", run, model
            );
            if list.is_sorted() {
                prop_assert_eq!(run, list.len());
            }
        }
    }

    #[test]
    fn tvlist_matches_slice_model(
        pairs in prop::collection::vec((any::<i64>(), any::<i32>()), 1..200),
        array_size in 1usize..40,
    ) {
        let list = TVList::<i32>::with_array_size(array_size);
        let mut list = pairs.iter().fold(list, |mut l, &(t, v)| { l.push(t, v); l });
        let mut model = pairs.clone();

        prop_assert_eq!(list.len(), model.len());
        for (i, &pair) in model.iter().enumerate() {
            prop_assert_eq!(list.get(i), pair);
        }

        // Drive both through identical op sequences.
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let op_seq = ops(model.len()).new_tree(&mut runner).unwrap().current();
        {
            let mut model_series = SliceSeries::new(&mut model);
            for op in &op_seq {
                match *op {
                    Op::Set { i, t, v } => { list.set(i, t, v); model_series.set(i, t, v); }
                    Op::Swap { a, b } => { list.swap(a, b); model_series.swap(a, b); }
                }
            }
        }
        prop_assert_eq!(list.to_pairs(), model);
    }

    #[test]
    fn sorted_flag_is_sound(pairs in prop::collection::vec((any::<i64>(), any::<i32>()), 0..200)) {
        let mut list = TVList::<i32>::new();
        for &(t, v) in &pairs {
            list.push(t, v);
        }
        // The flag may be conservatively false, but never falsely true.
        if list.is_sorted() {
            prop_assert!(backsort_tvlist::is_time_sorted(&list));
        }
    }

    #[test]
    fn min_max_time_are_exact(pairs in prop::collection::vec((any::<i64>(), any::<i32>()), 1..200)) {
        let list = TVList::from_pairs(pairs.iter().copied());
        let min = pairs.iter().map(|p| p.0).min();
        let max = pairs.iter().map(|p| p.0).max();
        prop_assert_eq!(list.min_time(), min);
        prop_assert_eq!(list.max_time(), max);
    }

    #[test]
    fn iter_matches_indexed_access(
        pairs in prop::collection::vec((any::<i64>(), any::<i32>()), 0..200),
        array_size in 1usize..40,
    ) {
        let mut list = TVList::<i32>::with_array_size(array_size);
        for &(t, v) in &pairs {
            list.push(t, v);
        }
        let via_iter: Vec<_> = list.iter().collect();
        let via_index: Vec<_> = (0..list.len()).map(|i| list.get(i)).collect();
        prop_assert_eq!(via_iter, via_index);
    }
}
