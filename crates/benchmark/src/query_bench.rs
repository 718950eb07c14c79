//! Query-path benchmark: concurrent readers over seeded, settled data.
//!
//! Unlike the mixed concurrent mode ([`crate::run_benchmark_concurrent`]),
//! this harness first ingests a fixed dataset (with natural rotations,
//! so queries span flushed files *and* memtable residue), lets the
//! buffers settle, and then measures *queries only*: per-query latency
//! percentiles and aggregate throughput as reader threads scale. On
//! settled data every [`StorageEngine::query`] stays on the read-lock
//! fast path, so same-shard readers overlap.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use backsort_engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backsort_sorts::SeriesSorter;
use backsort_workload::{generate_pairs, SignalKind, StreamSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::config::BenchConfig;

/// Results of one query-bench run (one thread-count cell).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueryBenchReport {
    /// Sorter name.
    pub sorter: String,
    /// Engine shards.
    pub shards: usize,
    /// Query threads.
    pub threads: usize,
    /// The cell's label: `"read"` for query cells; callers overwrite it
    /// for ingest, high-cardinality and server cells.
    pub mode: String,
    /// Queries executed across all threads.
    pub queries: u64,
    /// Points returned across all threads.
    pub points: u64,
    /// Median per-query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_us: f64,
    /// Mean per-query latency, microseconds.
    pub mean_us: f64,
    /// Aggregate queries per second (all threads, wall time).
    pub qps: f64,
    /// Aggregate points returned per second of wall time.
    pub pps: f64,
    /// Wall time of the measured phase, milliseconds.
    pub wall_ms: f64,
    /// Queries served under the shard read lock (fast path); equals
    /// `queries` on settled data.
    pub read_lock_queries: u64,
    /// Queries that had to sort a buffer under the write lock.
    pub sorted_on_read_queries: u64,
    /// Flushed files examined by the measured queries (registry delta).
    pub files_considered: u64,
    /// Of those, files skipped by the cached per-key time-range index.
    pub files_pruned: u64,
    /// Of the considered files, those skipped because the per-file key
    /// existence filter proved the series absent (registry delta).
    #[serde(default)]
    pub files_pruned_by_filter: u64,
    /// Traced queries whose root span crossed the slow-query threshold
    /// during the measured phase (`trace.slow_queries` registry delta).
    #[serde(default)]
    pub slow_queries: u64,
    /// p99 of the traced `query.files` stage in microseconds, from the
    /// per-stage `trace.span_nanos{stage=query.files}` histogram delta.
    /// Stays 0 when no query in the cell was sampled for tracing.
    #[serde(default)]
    pub p99_files_stage_us: f64,
    /// p99 of the traced `query.merge` stage in microseconds
    /// (`trace.span_nanos{stage=query.merge}` histogram delta).
    #[serde(default)]
    pub p99_merge_stage_us: f64,
}

/// p99 of one per-stage span histogram in a snapshot delta, in
/// microseconds; 0 when the stage never fired.
fn stage_p99_us(delta: &backsort_obs::Snapshot, stage: &str) -> f64 {
    let name =
        backsort_obs::Registry::labeled(backsort_obs::names::TRACE_SPAN_NANOS, "stage", stage);
    delta
        .histogram(&name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.percentile(0.99) as f64 / 1e3)
}

/// Seeds an engine with `config`'s workload: every sensor's stream is
/// ingested in batches (rotations flush naturally), then the tail is
/// left buffered so queries cross disk and memtables.
fn seed_engine(
    config: &BenchConfig,
    registry: Option<Arc<backsort_obs::Registry>>,
) -> (StorageEngine, Vec<SeriesKey>) {
    let engine_config = EngineConfig {
        memtable_max_points: config.memtable_max_points,
        array_size: 32,
        sorter: config.sorter,
        shards: config.shards,
        cache_bytes: config.cache_bytes,
        ..EngineConfig::default()
    };
    let engine = match registry {
        Some(registry) => StorageEngine::with_registry(engine_config, registry),
        None => StorageEngine::new(engine_config),
    };
    let keys: Vec<SeriesKey> = (0..config.devices)
        .flat_map(|d| {
            (0..config.sensors_per_device)
                .map(move |s| SeriesKey::new(format!("root.sg.d{d}"), format!("s{s}")))
        })
        .collect();
    let sensor_count = keys.len().max(1);
    let per_sensor = (config.operations * config.batch_size) / sensor_count + config.batch_size;
    for (i, key) in keys.iter().enumerate() {
        let spec = StreamSpec {
            n: per_sensor,
            interval: 1,
            delay: config.delay,
            signal: SignalKind::Sine {
                period: 512.0,
                amp: 100.0,
                noise: 1.0,
            },
            seed: config.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let points: Vec<(i64, TsValue)> = generate_pairs(&spec)
            .into_iter()
            .map(|(t, v)| (t, TsValue::Double(v)))
            .collect();
        for rows in points.chunks(config.batch_size) {
            // analyzer:allow(panic-freedom): synthetic rows are uniform by construction; a malformed batch is a generator bug and must abort the run
            let batch = PointBatch::from_rows(rows.iter().cloned()).expect("uniform Double rows");
            // analyzer:allow(panic-freedom): synthetic rows are uniform by construction; a malformed batch is a generator bug and must abort the run
            engine
                .write_batch(key, &batch)
                .expect("uniform Double batch");
        }
    }
    (engine, keys)
}

/// Runs the query benchmark: seed, warm up (one query per sensor sorts
/// any out-of-order buffer once, off the clock), then `threads` readers
/// each issue `queries_per_thread` window queries anchored at each
/// sensor's latest timestamp.
pub fn run_query_bench(
    config: &BenchConfig,
    threads: usize,
    queries_per_thread: usize,
) -> QueryBenchReport {
    run_query_bench_with(config, threads, queries_per_thread, None)
}

/// [`run_query_bench`] with an optional shared metrics registry. When
/// `registry` is given the seeded engine records into it, so a caller
/// (the `query_bench` bin's `--stats-json`) can accumulate telemetry
/// across every sweep cell and dump one registry at the end.
pub fn run_query_bench_with(
    config: &BenchConfig,
    threads: usize,
    queries_per_thread: usize,
    registry: Option<Arc<backsort_obs::Registry>>,
) -> QueryBenchReport {
    assert!(threads > 0 && queries_per_thread > 0);
    let (engine, keys) = seed_engine(config, registry);
    let engine = Arc::new(engine);
    let sensor_count = keys.len();

    // Warmup: settle every buffer so the measured phase sees the steady
    // state (on real deployments the first read after a burst pays the
    // sort; the sweep measures the serving regime).
    for key in &keys {
        let current = engine.latest_time(key).unwrap_or(0);
        engine.query(key, current - config.query_window, current);
    }
    // Snapshot after warmup: the measured phase reports as a registry
    // delta, so seeding/settling traffic never pollutes the cell.
    let warm_snapshot = engine.obs().snapshot();

    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let points_returned = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(threads));
    let wall_start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let engine = Arc::clone(&engine);
            let keys = &keys;
            let latencies = Arc::clone(&latencies);
            let points_returned = Arc::clone(&points_returned);
            let barrier = Arc::clone(&barrier);
            let window = config.query_window;
            let seed = config.seed ^ (thread as u64 + 7_777);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut local = Vec::with_capacity(queries_per_thread);
                let mut returned = 0usize;
                barrier.wait();
                for _ in 0..queries_per_thread {
                    let key = &keys[rng.gen_range(0..sensor_count)];
                    let current = engine.latest_time(key).unwrap_or(0);
                    let t0 = Instant::now();
                    let result = engine.query(key, current - window, current);
                    local.push(t0.elapsed().as_nanos() as u64);
                    returned += result.len();
                }
                points_returned.fetch_add(returned, Ordering::Relaxed);
                // analyzer:allow(panic-freedom): a poisoned lock means a client thread already panicked; aborting the run is the only honest outcome
                latencies.lock().expect("no poisoning").extend(local);
            });
        }
    });
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    let delta = engine.obs().snapshot().delta_since(&warm_snapshot);

    // analyzer:allow(panic-freedom): a poisoned lock means a client thread already panicked; aborting the run is the only honest outcome
    let mut lat = Arc::into_inner(latencies)
        .expect("threads joined")
        .into_inner()
        .expect("no poisoning");
    lat.sort_unstable();
    let percentile = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() - 1) as f64 * p).round() as usize;
        lat[idx] as f64 / 1e3
    };
    let queries = lat.len() as u64;
    let mean_us = if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1e3
    };
    let total_points = points_returned.load(Ordering::Relaxed) as u64;
    QueryBenchReport {
        sorter: config.sorter.name().to_string(),
        shards: engine.shard_count(),
        threads,
        mode: "read".to_string(),
        queries,
        points: total_points,
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        mean_us,
        qps: queries as f64 / (wall_ms / 1e3),
        pps: total_points as f64 / (wall_ms / 1e3),
        wall_ms,
        read_lock_queries: delta.counter(backsort_obs::names::QUERY_READ_PATH),
        sorted_on_read_queries: delta.counter(backsort_obs::names::QUERY_SORTED_ON_READ),
        files_considered: delta.counter(backsort_obs::names::QUERY_FILES_CONSIDERED),
        files_pruned: delta.counter(backsort_obs::names::QUERY_FILES_PRUNED),
        files_pruned_by_filter: delta.counter(backsort_obs::names::QUERY_FILES_PRUNED_BY_FILTER),
        slow_queries: delta.counter(backsort_obs::names::TRACE_SLOW_QUERIES),
        p99_files_stage_us: stage_p99_us(&delta, backsort_obs::names::SPAN_QUERY_FILES),
        p99_merge_stage_us: stage_p99_us(&delta, backsort_obs::names::SPAN_QUERY_MERGE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_core::Algorithm;
    use backsort_workload::DelayModel;

    fn config() -> BenchConfig {
        BenchConfig {
            devices: 1,
            sensors_per_device: 4,
            batch_size: 100,
            write_percentage: 1.0,
            operations: 40,
            delay: DelayModel::AbsNormal {
                mu: 0.5,
                sigma: 1.5,
            },
            query_window: 300,
            memtable_max_points: 1_000,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            seed: 5,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn settled_data_stays_on_the_fast_path() {
        let report = run_query_bench(&config(), 2, 25);
        assert_eq!(report.queries, 50);
        assert_eq!(report.mode, "read");
        assert_eq!(
            report.sorted_on_read_queries, 0,
            "settled data must never hit the write path"
        );
        assert_eq!(report.read_lock_queries, 50);
        assert!(report.p50_us <= report.p99_us);
        assert!(report.points > 0);
        assert!(
            report.files_pruned <= report.files_considered,
            "pruned is a subset of considered"
        );
    }

    #[test]
    fn shared_registry_accumulates_across_cells() {
        let registry = Arc::new(backsort_obs::Registry::new());
        let before = registry.snapshot();
        for _ in 0..2 {
            run_query_bench_with(&config(), 1, 10, Some(Arc::clone(&registry)));
        }
        let delta = registry.snapshot().delta_since(&before);
        assert!(delta.counter(backsort_obs::names::QUERY_READ_PATH) >= 20);
        assert!(delta.counter(backsort_obs::names::ENGINE_WRITE_POINTS) > 0);
    }

    #[test]
    fn sampled_tracing_attributes_stage_p99s() {
        // Default engine config samples 1 query in 16 for tracing; 60
        // single-threaded queries guarantee several traced ones, so the
        // per-stage histograms carry the cell's p99 attribution.
        let report = run_query_bench(&config(), 1, 60);
        assert!(
            report.p99_merge_stage_us > 0.0,
            "sampled traces must time the merge stage"
        );
        assert!(
            report.p99_files_stage_us >= 0.0,
            "files stage attribution is present (possibly sub-µs)"
        );
    }
}
