//! Criterion bench for Figs. 16–18's server-side metric: one memtable
//! flush (sort + dedup + encode + write) per contender, and two more
//! rows that sort the whole tail at once — `StdSort` (the standard
//! library's stable sort, copied out and back) and `BackSort-L=N`
//! (Backward-Sort's one-block degenerate, Fig. 6). `BackSort-L=N` is the
//! trade the blocks are measured against, not a floor: it sorts its one
//! block with the same flat-block kernel, so it counts wherever the
//! whole tail's time range fits 16 bits and falls back to
//! `sort_unstable_by_key` where it does not.
//!
//! Three memtables:
//! * `100k` — one series of 100,000 points under AbsNormal(1, 2);
//! * `4x25k` — four series of 25,000 points under LogNormal(4, 1): the
//!   delays, series count and flush size of `perf`'s `ingest-ooo`;
//! * `4x25k-1s` — the `4x25k` delays at `interval = 1_000`: millisecond
//!   timestamps from a 1 Hz sensor, IoTDB's default precision. A block
//!   of 256 arrivals spans more than 2¹⁶ ms, so this row sorts its
//!   blocks by comparison.
//!
//! After each row the flush's own split (`FlushMetrics`: sort, encode,
//! write) is printed as a mean per point over the row's samples. The
//! `flush_probe` group times Backward-Sort's block-size probe alone on
//! the `4x25k` series, the cost a per-series memory of `L` would save.
//!
//! A row's time depends on the rows run before it in the same process
//! (the allocator's state as much as the code), so to compare one row
//! across commits run it in a process of its own, by its id:
//! `cargo bench --bench bench_flush -- 'BackSort-L=N/100k'`.

use backsort_core::{choose_block_size_reporting, Algorithm, BackwardSort};
use backsort_engine::{flush_memtable, ColumnSlice, FlushMetrics, MemTable, SeriesKey};
use backsort_sorts::{BaselineSorter, SeriesSorter};
use backsort_tvlist::SliceSeries;
use backsort_workload::{generate_pairs, DelayModel, StreamSpec};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

/// `series` streams of `points` arrivals each, `interval` apart, one
/// DOUBLE run apiece.
fn build_memtable(series: usize, points: usize, delay: DelayModel, interval: i64) -> MemTable {
    let mut mt = MemTable::new();
    for s in 0..series {
        let key = SeriesKey::new("root.sg.d0", format!("s{s}"));
        let spec = StreamSpec {
            interval,
            ..StreamSpec::new(points, delay, 42 + s as u64)
        };
        let (ts, vs): (Vec<i64>, Vec<f64>) = generate_pairs(&spec).into_iter().unzip();
        mt.write_columns(&key, &ts, ColumnSlice::Double(&vs), &mut Default::default())
            .expect("one DOUBLE run");
    }
    mt
}

fn ingest_ooo_delay() -> DelayModel {
    DelayModel::LogNormal {
        mu: 4.0,
        sigma: 1.0,
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16_flush");
    group.sample_size(10);
    let cases = [
        (
            "100k",
            build_memtable(
                1,
                100_000,
                DelayModel::AbsNormal {
                    mu: 1.0,
                    sigma: 2.0,
                },
                1,
            ),
        ),
        ("4x25k", build_memtable(4, 25_000, ingest_ooo_delay(), 1)),
        (
            "4x25k-1s",
            build_memtable(4, 25_000, ingest_ooo_delay(), 1_000),
        ),
    ];
    let mut sorters: Vec<(&str, Algorithm)> = Algorithm::contenders()
        .into_iter()
        .map(|alg| (alg.name(), alg))
        .collect();
    sorters.push(("StdSort", Algorithm::Baseline(BaselineSorter::Std)));
    // Fig. 6's `L = N` degenerate: the whole tail as one flat block —
    // the trade a block-size rule weighs the blocks against.
    sorters.push((
        "BackSort-L=N",
        Algorithm::Backward(BackwardSort::with_fixed_block_size(usize::MAX)),
    ));
    for (case, template) in &cases {
        for (name, alg) in &sorters {
            let mut splits: Vec<FlushMetrics> = Vec::new();
            group.bench_with_input(BenchmarkId::new(*name, case), alg, |b, alg| {
                b.iter_batched(
                    || template.clone(),
                    |mt| {
                        let (image, metrics) = flush_memtable(&mt, alg, None);
                        splits.push(metrics);
                        image
                    },
                    BatchSize::LargeInput,
                )
            });
            if splits.is_empty() {
                continue; // not selected by the filter
            }
            let points: u64 = splits.iter().map(|m| m.points).sum();
            let per_point = |nanos: fn(&FlushMetrics) -> u64| {
                splits.iter().map(nanos).sum::<u64>() as f64 / points.max(1) as f64
            };
            println!(
                "fig16_flush/{name}/{case} split: sort {:.1} encode {:.1} write {:.1} ns/point",
                per_point(|m| m.sort_nanos),
                per_point(|m| m.encode_nanos),
                per_point(|m| m.write_nanos),
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("flush_probe");
    group.sample_size(50);
    let tails: Vec<Vec<(i64, f64)>> = (0..4)
        .map(|s| generate_pairs(&StreamSpec::new(25_000, ingest_ooo_delay(), 42 + s)))
        .collect();
    group.bench_function("iir/4x25k", |b| {
        b.iter_batched(
            || tails.clone(),
            |mut tails| {
                tails
                    .iter_mut()
                    .map(|t| {
                        let s = SliceSeries::new(t);
                        choose_block_size_reporting(&s, 0.04, 4).0
                    })
                    .sum::<usize>()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
