//! Criterion bench for the sort a read owes a dirty buffer: 20,000
//! points a previous read left ordered plus 400 delayed arrivals, as the
//! flat `(time, value)` pairs a memtable buffer holds — the whole buffer
//! sorted again against the tail sorted where it lies and merged once
//! from the back (`Algorithm::sort_from_observed`), per contender.

use backsort_core::Algorithm;
use backsort_sorts::SeriesSorter;
use backsort_workload::{generate_pairs, DelayModel, StreamSpec};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

const ORDERED: usize = 20_000;
const APPENDED: usize = 400;

/// The buffer a second read finds: an ordered run, then the tail, and
/// the length of the ordered run.
fn build_buffer() -> (Vec<(i64, f64)>, usize) {
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
    ordered.extend_from_slice(tail);
    let sorted_len = ordered
        .windows(2)
        .position(|w| w[1].0 < w[0].0)
        .map_or(ordered.len(), |i| i + 1);
    assert!(sorted_len >= ORDERED && sorted_len < ordered.len());
    (ordered, sorted_len)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_on_read");
    let (template, sorted_len) = build_buffer();
    for alg in Algorithm::contenders() {
        group.bench_with_input(BenchmarkId::new(alg.name(), "whole"), &alg, |b, alg| {
            b.iter_batched(
                || template.clone(),
                |mut pairs| {
                    alg.sort_from_observed(&mut pairs, 0, None);
                    pairs
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new(alg.name(), "from"), &alg, |b, alg| {
            b.iter_batched(
                || template.clone(),
                |mut pairs| {
                    alg.sort_from_observed(&mut pairs, sorted_len, None);
                    pairs
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
