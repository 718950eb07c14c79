//! Criterion bench for a full `compact()` of an out-of-order load — the
//! merge compaction runs over a shard's files and tombstones.
//!
//! The load, on one shard: 8 DOUBLE series × 200,000 timestamps written
//! round robin in 500-point batches, each point's timestamp jittered by
//! 0–7 (so about a third of them repeat an earlier one and collapse),
//! plus one 500-point straggler batch per series every 20,000
//! timestamps, 15,000 behind the frontier — below the flush watermark,
//! so they land in the unsequence memtable and its overlapping file. At
//! the default 100,000-point memtable that is 17 files, 1.64 M points in.
//! Two rows: no deletes, and 64 range deletes spread over the series,
//! issued after every flush so each is a file tombstone the merge
//! applies.
//!
//! The timed routine is `compact()` alone: loading runs in the setup,
//! and the compacted engine is hashed and dropped by the next setup.
//! After each row the mean of those timings over the row's samples is
//! printed as ns per input point, with its `bytes_out`, its
//! `CompactionReport` and an FNV-1a hash of the output image — the same
//! on every commit whose merge writes the same bytes. Only public engine API is used, so the file
//! runs unchanged against older commits.

use std::cell::Cell;
use std::time::{Duration, Instant};

use backsort_engine::{
    CompactionReport, EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue,
};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

const SERIES: usize = 8;
const TIMESTAMPS: i64 = 200_000;
const BATCH: i64 = 500;
const STRAGGLER_EVERY: i64 = 20_000;
const STRAGGLER_LAG: i64 = 15_000;

/// A loaded engine and the points written into it.
struct Load {
    engine: StorageEngine,
    points: u64,
}

fn load(tombstones: usize) -> Load {
    let engine = StorageEngine::new(EngineConfig {
        shards: 1,
        ..EngineConfig::default()
    });
    let keys: Vec<SeriesKey> = (0..SERIES)
        .map(|s| SeriesKey::new("root.bench.d0", format!("s{s}")))
        .collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut points = 0u64;
    let mut write = |key: &SeriesKey, from: i64| {
        let rows = (from..from + BATCH).map(|t| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = t + (x % 8) as i64;
            (t, TsValue::Double(t as f64 * 0.5))
        });
        let batch = PointBatch::from_rows(rows).expect("one DOUBLE batch");
        points += batch.len() as u64;
        let job = engine
            .write_batch_nonblocking(key, &batch)
            .expect("DOUBLE series");
        if let Some(job) = job {
            engine.complete_flush(job);
        }
    };
    for base in (0..TIMESTAMPS).step_by(BATCH as usize) {
        for key in &keys {
            write(key, base);
        }
        if base > 0 && base % STRAGGLER_EVERY == 0 {
            for key in &keys {
                write(key, base - STRAGGLER_LAG);
            }
        }
    }
    engine.flush();
    engine.flush_unseq();
    for (k, key) in keys.iter().cycle().take(tombstones).enumerate() {
        let lo = (k as i64 * 3_119) % TIMESTAMPS;
        engine.delete_range(key, lo, lo + 99).unwrap();
    }
    Load { engine, points }
}

/// FNV-1a over every file image of the engine's one shard, oldest first.
fn image_hash(engine: &StorageEngine) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for file in engine.shard_files(0) {
        for &b in file.image() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("compact");
    group.sample_size(10);
    for tombstones in [0usize, 64] {
        let mut runs: Vec<(Duration, u64, CompactionReport)> = Vec::new();
        // The compacted engine of the last iteration, hashed and dropped
        // by the next setup (or after the bench), outside the timing.
        let compacted: Cell<Option<Load>> = Cell::new(None);
        let mut hash = None;
        let case = format!("{tombstones}_tombstones");
        group.bench_with_input(BenchmarkId::new("full", &case), &tombstones, |b, &n| {
            b.iter_batched(
                || {
                    if let Some(done) = compacted.take() {
                        hash = Some(image_hash(&done.engine));
                    }
                    load(n)
                },
                |load| {
                    let start = Instant::now();
                    let report = load.engine.compact();
                    runs.push((start.elapsed(), load.points, report));
                    compacted.set(Some(load));
                },
                BatchSize::LargeInput,
            )
        });
        if let Some(done) = compacted.take() {
            hash = Some(image_hash(&done.engine));
        }
        let ns_per_point: Vec<f64> = runs
            .iter()
            .map(|(took, points, _)| took.as_nanos() as f64 / (*points).max(1) as f64)
            .collect();
        let mean = ns_per_point.iter().sum::<f64>() / ns_per_point.len().max(1) as f64;
        let min = ns_per_point.iter().copied().fold(f64::INFINITY, f64::min);
        if let (Some((_, points, report)), Some(hash)) = (runs.last(), hash) {
            println!(
                "compact/full/{case}: {mean:.1} ns per input point (min {min:.1}), \
                 {points} points in, bytes_out {}, {report:?}, image fnv1a {hash:016x}",
                report.bytes_out
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
