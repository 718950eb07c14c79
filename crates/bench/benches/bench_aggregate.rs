//! Criterion bench for one-series aggregates over 50,000 flushed DOUBLE
//! points: `count`, `avg` and `max` on a v3 image (page headers carry
//! value statistics, so only the two boundary pages decode) against the
//! same points in a v2 image (no value statistics: `avg` and `max`
//! decode every page, `count` still takes whole pages from headers). The
//! block cache is off, so every decode is paid — the cold read
//! `query-agg-cold` measures end to end.

use backsort_engine::tsfile::{TsFileWriter, Version};
use backsort_engine::{Aggregation, EngineConfig, SeriesKey, StorageEngine, TsValue};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const POINTS: i64 = 100_000;
/// The range: 50,000 points, cutting a page at each end.
const LO: i64 = 20_037;
const HI: i64 = LO + 49_999;

fn engine(version: Version, key: &SeriesKey) -> StorageEngine {
    let times: Vec<i64> = (0..POINTS).collect();
    let values: Vec<TsValue> = times
        .iter()
        .map(|&t| TsValue::Double(t as f64 * 0.25 + (t % 17) as f64 / 3.0))
        .collect();
    let mut w = TsFileWriter::with_version(version);
    w.write_chunk(key, &times, &values);
    let engine = StorageEngine::new(EngineConfig {
        cache_bytes: 0,
        ..EngineConfig::default()
    });
    engine.adopt_file(w.finish()).expect("own image adopts");
    engine
}

fn bench(c: &mut Criterion) {
    let key = SeriesKey::new("root.bench.d0", "s");
    let mut group = c.benchmark_group("aggregate");
    for (name, version) in [("v3", Version::V3), ("v2", Version::V2)] {
        let engine = engine(version, &key);
        for agg in [Aggregation::Count, Aggregation::Avg, Aggregation::MaxValue] {
            group.bench_with_input(
                BenchmarkId::new(format!("{agg:?}").to_lowercase(), name),
                &agg,
                |b, &agg| b.iter(|| engine.aggregate(&key, LO, HI, agg)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
