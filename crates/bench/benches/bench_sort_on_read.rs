//! Criterion bench for the sort a read owes a dirty buffer: 20,000
//! points a previous read left ordered plus 400 delayed arrivals, in a
//! TVList of array size 32 — the whole buffer sorted again against the
//! tail sorted flat and merged once from the back
//! (`Algorithm::sort_from_observed`), per contender.

use backsort_core::Algorithm;
use backsort_sorts::SeriesSorter;
use backsort_tvlist::TVList;
use backsort_workload::{generate_pairs, DelayModel, StreamSpec};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

const ORDERED: usize = 20_000;
const APPENDED: usize = 400;

/// The buffer a second read finds: an ordered run, then the tail.
fn build_buffer() -> TVList<f64> {
    let spec = StreamSpec::new(
        ORDERED + APPENDED,
        DelayModel::AbsNormal {
            mu: 1.0,
            sigma: 2.0,
        },
        42,
    );
    let arrivals = generate_pairs(&spec);
    let (first, tail) = arrivals.split_at(ORDERED);
    let mut ordered = first.to_vec();
    ordered.sort_by_key(|p| p.0);
    let mut list = TVList::with_array_size(32);
    for &(t, v) in ordered.iter().chain(tail) {
        list.push(t, v);
    }
    assert!(list.sorted_len() >= ORDERED && !list.is_sorted());
    list
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_on_read");
    let template = build_buffer();
    for alg in Algorithm::contenders() {
        group.bench_with_input(BenchmarkId::new(alg.name(), "whole"), &alg, |b, alg| {
            b.iter_batched(
                || template.clone(),
                |mut list| {
                    alg.sort_from_observed(&mut list, 0, None);
                    list
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new(alg.name(), "from"), &alg, |b, alg| {
            b.iter_batched(
                || template.clone(),
                |mut list| {
                    let sorted_len = list.sorted_len();
                    alg.sort_from_observed(&mut list, sorted_len, None);
                    list
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
