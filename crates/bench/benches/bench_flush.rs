//! Criterion bench for Figs. 16–18's server-side metric: one memtable
//! flush (sort + dedup + encode + write) per contender.

use backsort_core::Algorithm;
use backsort_engine::{flush_memtable, MemTable, SeriesKey, TsValue};
use backsort_sorts::SeriesSorter;
use backsort_workload::{generate_pairs, DelayModel, StreamSpec};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

fn build_memtable(points: usize) -> MemTable {
    let key = SeriesKey::new("root.sg.d0", "s0");
    let spec = StreamSpec::new(
        points,
        DelayModel::AbsNormal {
            mu: 1.0,
            sigma: 2.0,
        },
        42,
    );
    let mut mt = MemTable::new(32);
    for (t, v) in generate_pairs(&spec) {
        mt.write(&key, t, TsValue::Double(v))
            .expect("uniform Double writes");
    }
    mt
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16_flush");
    group.sample_size(10);
    let template = build_memtable(100_000);
    for alg in Algorithm::contenders() {
        group.bench_with_input(BenchmarkId::new(alg.name(), "100k"), &alg, |b, alg| {
            b.iter_batched(
                || template.clone(),
                |mt| flush_memtable(&mt, alg, None),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
