//! Query-path scaling: concurrent readers over settled data on the
//! read-locked fast path.
//!
//! Usage: `query_bench [--ops N] [--threads T] [--shards S] [--smoke]
//! [--cache-bytes B] [--json] [--stats-json PATH]`
//! Without `--threads` the sweep runs {1, 2, 4, 8} reader threads; without
//! `--shards` it compares engine shard counts {1, 4}. Every cell (mode
//! `read`) drives `StorageEngine::query` (shared lock, streaming k-way
//! merge). `--smoke` shrinks the dataset and query counts for CI.
//! `--cache-bytes B` sets the engine's block-cache budget for every cell
//! (0 disables the cache). `--stats-json PATH` shares one metrics
//! registry across every cell and writes its JSON rendering (all
//! counters, gauges and histogram summaries) to PATH at the end.
//!
//! Every grid run appends one high-cardinality cell per sorter (≥1k
//! devices, device-banded files), `hicard-filter`: its
//! `files_pruned_by_filter` is what the per-file key existence filters
//! dismiss before any chunk-index walk.

use std::sync::Arc;

use backsort_benchmark::{run_query_bench_with, BenchConfig};
use backsort_core::Algorithm;
use backsort_workload::DelayModel;

use crate::cli::Args;
use crate::table;

/// The `query_bench` binary's entry point.
pub fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let (smoke_ops, smoke_qpt, smoke_threads, smoke_shards, smoke_sorters) = smoke_grid();
    let ops = args.get_or("ops", if smoke { smoke_ops } else { 400usize });
    let queries_per_thread = if smoke { smoke_qpt } else { 2_000 };
    let thread_counts: Vec<usize> = match args.get("threads") {
        Some(t) => vec![t.parse().expect("threads")],
        None if smoke => smoke_threads,
        None => vec![1, 2, 4, 8],
    };
    let shard_counts: Vec<usize> = match args.get("shards") {
        Some(s) => vec![s.parse().expect("shards")],
        None if smoke => smoke_shards,
        None => vec![1, 4],
    };
    let sorters: Vec<Algorithm> = if smoke {
        smoke_sorters
    } else {
        Algorithm::contenders()
    };
    let cache_bytes = args.get_or("cache-bytes", BenchConfig::default().cache_bytes);
    let stats_json = args.get("stats-json");
    let registry = stats_json
        .as_ref()
        .map(|_| Arc::new(backsort_obs::Registry::new()));

    let json_rows = run_cells_with_cache(
        ops,
        queries_per_thread,
        &thread_counts,
        &shard_counts,
        &sorters,
        cache_bytes,
        registry.clone(),
    );
    let rows: Vec<Vec<String>> = json_rows
        .iter()
        .map(|report| {
            vec![
                report.shards.to_string(),
                report.threads.to_string(),
                report.sorter.clone(),
                report.mode.clone(),
                format!("{:.1}", report.p50_us),
                format!("{:.1}", report.p99_us),
                format!("{:.0}", report.qps),
                format!("{:.2e}", report.pps),
            ]
        })
        .collect();

    if let (Some(path), Some(registry)) = (stats_json, &registry) {
        std::fs::write(path, registry.render_json()).expect("write stats json");
        eprintln!("wrote registry stats to {path}");
    }
    if args.json() {
        table::print_json(&json_rows);
        return;
    }
    table::heading("Query-path scaling (read-locked fast path)");
    table::print_table(
        &[
            "shards",
            "threads",
            "algorithm",
            "mode",
            "p50 us",
            "p99 us",
            "qps",
            "query pps",
        ],
        &rows,
    );
}

/// Batch sizes for the ingest sweep cells appended to every grid run:
/// batch = 1 degenerates the columnar path to point-at-a-time framing,
/// 64 and 1024 amortize the per-batch watermark split and bulk append.
pub const INGEST_BATCH_SIZES: [usize; 3] = [1, 64, 1024];

/// One single-writer ingest cell: chunks each sensor's arrival-ordered
/// stream into [`backsort_engine::PointBatch`]es of `batch` points and
/// measures aggregate write throughput through
/// [`backsort_engine::StorageEngine::write_batch`]. Reported in the same
/// [`backsort_benchmark::QueryBenchReport`] shape as the query cells
/// (`mode = "ingest-b{batch}"`, `pps` = write points/sec, `qps` = 0),
/// so one table shows ingest alongside query throughput.
fn run_ingest_cell(
    sorter: Algorithm,
    shards: usize,
    batch: usize,
    total_points: usize,
    registry: Option<Arc<backsort_obs::Registry>>,
) -> backsort_benchmark::QueryBenchReport {
    use backsort_engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
    use backsort_workload::{generate_pairs, SignalKind, StreamSpec};

    let engine_config = EngineConfig {
        memtable_max_points: 20_000,
        array_size: 32,
        sorter,
        shards,
        ..EngineConfig::default()
    };
    let engine = match registry {
        Some(registry) => StorageEngine::with_registry(engine_config, registry),
        None => StorageEngine::new(engine_config),
    };
    let devices = 4usize;
    let keys: Vec<SeriesKey> = (0..devices)
        .map(|d| SeriesKey::new(format!("root.sg.d{d}"), "s0"))
        .collect();
    let streams: Vec<Vec<(i64, TsValue)>> = (0..devices)
        .map(|d| {
            let spec = StreamSpec {
                n: total_points / devices,
                interval: 1,
                delay: DelayModel::AbsNormal {
                    mu: 1.0,
                    sigma: 2.0,
                },
                signal: SignalKind::Sine {
                    period: 512.0,
                    amp: 100.0,
                    noise: 1.0,
                },
                seed: 42 ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            generate_pairs(&spec)
                .into_iter()
                .map(|(t, v)| (t, TsValue::Double(v)))
                .collect()
        })
        .collect();

    let mut written = 0u64;
    let start = std::time::Instant::now();
    for (key, stream) in keys.iter().zip(&streams) {
        for rows in stream.chunks(batch) {
            let pb = PointBatch::from_rows(rows.iter().cloned()).expect("uniform Double rows");
            engine.write_batch(key, &pb).expect("uniform Double batch");
            written += rows.len() as u64;
        }
    }
    let wall = start.elapsed();

    backsort_benchmark::QueryBenchReport {
        sorter: {
            use backsort_sorts::SeriesSorter;
            sorter.name().to_string()
        },
        shards: engine.shard_count(),
        threads: 1,
        mode: format!("ingest-b{batch}"),
        queries: 0,
        points: written,
        p50_us: 0.0,
        p99_us: 0.0,
        mean_us: 0.0,
        qps: 0.0,
        pps: written as f64 / wall.as_secs_f64().max(1e-9),
        wall_ms: wall.as_secs_f64() * 1e3,
        read_lock_queries: 0,
        sorted_on_read_queries: 0,
        files_considered: 0,
        files_pruned: 0,
        files_pruned_by_filter: 0,
        slow_queries: 0,
        p99_files_stage_us: 0.0,
        p99_merge_stage_us: 0.0,
    }
}

/// The high-cardinality cell (`hicard-filter`): ≥1k devices with a
/// single sensor each, ingested device-sequentially with a small
/// memtable so every flushed file covers a narrow device band. Any one
/// query's series lives in a handful of those files; the rest are dead
/// weight the read path must dismiss. `files_pruned_by_filter` and the
/// reduced probed count (`files_considered` minus filter prunes) measure
/// what the split-Bloom footer block buys.
fn run_high_cardinality_cell(
    sorter: Algorithm,
    shards: usize,
    cache_bytes: usize,
    registry: Option<Arc<backsort_obs::Registry>>,
) -> backsort_benchmark::QueryBenchReport {
    let config = BenchConfig {
        devices: 1_024,
        sensors_per_device: 1,
        batch_size: 32,
        write_percentage: 1.0,
        operations: 1_024,
        delay: DelayModel::AbsNormal {
            mu: 1.0,
            sigma: 2.0,
        },
        query_window: 300,
        memtable_max_points: 2_000,
        sorter,
        shards,
        cache_bytes,
        seed: 42,
    };
    let mut report = run_query_bench_with(&config, 2, 50, registry);
    report.mode = "hicard-filter".to_string();
    report
}

/// Runs the full (shards × threads × sorter) grid — plus one ingest
/// sweep cell per (shards × sorter × batch size) and one
/// high-cardinality cell per sorter — and returns the per-cell reports.
fn run_cells_with_cache(
    ops: usize,
    queries_per_thread: usize,
    thread_counts: &[usize],
    shard_counts: &[usize],
    sorters: &[Algorithm],
    cache_bytes: usize,
    registry: Option<Arc<backsort_obs::Registry>>,
) -> Vec<backsort_benchmark::QueryBenchReport> {
    let mut reports = Vec::new();
    for &shards in shard_counts {
        for &threads in thread_counts {
            for &sorter in sorters {
                let config = BenchConfig {
                    devices: 4,
                    sensors_per_device: 4,
                    batch_size: 500,
                    write_percentage: 1.0,
                    operations: ops,
                    delay: DelayModel::AbsNormal {
                        mu: 1.0,
                        sigma: 2.0,
                    },
                    query_window: 2_000,
                    memtable_max_points: 20_000,
                    sorter,
                    shards,
                    cache_bytes,
                    seed: 42,
                };
                reports.push(run_query_bench_with(
                    &config,
                    threads,
                    queries_per_thread,
                    registry.clone(),
                ));
            }
        }
        for &sorter in sorters {
            for &batch in &INGEST_BATCH_SIZES {
                reports.push(run_ingest_cell(
                    sorter,
                    shards,
                    batch,
                    ops * 500,
                    registry.clone(),
                ));
            }
        }
    }
    // The high-cardinality cell runs once per sorter at the first shard
    // count: it measures filter pruning, which is per-file and
    // shard-independent, and the 1k-device seed is the grid's most
    // expensive ingest.
    let hicard_shards = shard_counts.first().copied().unwrap_or(1);
    for &sorter in sorters {
        reports.push(run_high_cardinality_cell(
            sorter,
            hicard_shards,
            cache_bytes,
            registry.clone(),
        ));
    }
    reports
}

/// The cell grid `--smoke` runs: ops, queries per thread, thread
/// counts, shard counts, sorters.
fn smoke_grid() -> (usize, usize, Vec<usize>, Vec<usize>, Vec<Algorithm>) {
    (
        20,
        25,
        vec![1, 4],
        vec![1],
        vec![Algorithm::Backward(Default::default())],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On high-cardinality data the filters prune files *before* the
    /// envelope walk, so most considered files never reach it.
    #[test]
    fn high_cardinality_cell_shows_filter_pruning() {
        let cell = run_high_cardinality_cell(
            Algorithm::Backward(Default::default()),
            1,
            BenchConfig::default().cache_bytes,
            None,
        );
        assert_eq!(cell.mode, "hicard-filter");
        assert!(cell.points > 0, "queries still find their series");
        assert!(
            cell.files_pruned_by_filter > 0,
            "device-banded files must trip the existence filter"
        );
        assert!(
            cell.files_pruned_by_filter < cell.files_considered,
            "the files holding the series survive the filter"
        );
    }
}
