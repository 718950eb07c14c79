//! Figs. 13–21: system-level comparison through the engine and an
//! IoTDB-benchmark-style driver (paper §VI-A2) — query throughput, flush
//! time and total test latency over the write-percentage grid, for each
//! delay family and each contender.
//!
//! The driver generates periodic out-of-order data, sends it to the
//! engine in batches (500 points in [`run_grid`], the paper's tuned optimum),
//! interleaves time-range queries anchored at the latest timestamp ("to
//! avoid querying data in the disk"), and reports the paper's three
//! system metrics:
//!
//! * **query throughput** — points returned per second of query time
//!   (client side, Figs. 13–15);
//! * **flush time** — average per-flush duration (server side,
//!   Figs. 16–18);
//! * **total test latency** — the whole run's wall time (Figs. 19–21).

use std::time::Instant;

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backsort_obs::names;
use backsort_workload::{generate_pairs, DatasetKind, DelayModel, SignalKind, StreamSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One benchmark run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Devices in the storage group.
    pub devices: usize,
    /// Sensors per device.
    pub sensors_per_device: usize,
    /// Points per write batch (the paper's tuned optimum is 500).
    pub batch_size: usize,
    /// Fraction of operations that are writes, in `[0, 1]` — the paper
    /// sweeps {0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}.
    pub write_percentage: f64,
    /// Total operations (each a batch write or one query).
    pub operations: usize,
    /// Delay model applied to generated points.
    pub delay: DelayModel,
    /// Width of each time-range query, in points, ending at the latest
    /// ingested timestamp (avoids disk I/O, §VI-D).
    pub query_window: i64,
    /// Memtable capacity in points.
    pub memtable_max_points: usize,
    /// Sort algorithm under test.
    pub sorter: Algorithm,
    /// RNG seed.
    pub seed: u64,
}

impl BenchConfig {
    /// The write-percentage grid of the paper's system experiments.
    pub const WRITE_PERCENTAGES: [f64; 7] = [0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
}

/// Aggregated results of one benchmark run.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Sorter name.
    pub sorter: String,
    /// Delay model label.
    pub delay: String,
    /// Write fraction of the mix.
    pub write_percentage: f64,
    /// Batch writes performed.
    pub writes: u64,
    /// Queries performed.
    pub queries: u64,
    /// Points ingested.
    pub points_written: u64,
    /// Points returned by queries.
    pub points_queried: u64,
    /// Client-side query throughput: points returned per second of query
    /// wall time (the paper's Figs. 13–15 metric). `None` when the mix
    /// has no queries.
    pub query_throughput_pps: Option<f64>,
    /// Average flush duration in milliseconds (Figs. 16–18).
    pub avg_flush_ms: Option<f64>,
    /// Average sort share of flush time, milliseconds.
    pub avg_flush_sort_ms: Option<f64>,
    /// Number of flushes.
    pub flushes: u64,
    /// Whole-run wall time in milliseconds (Figs. 19–21).
    pub total_latency_ms: f64,
}

/// Runs one benchmark configuration to completion on a single-shard
/// engine, the paper's single-lock engine exactly (§VI-D reproduction).
pub fn run_benchmark(config: &BenchConfig) -> BenchReport {
    let engine = StorageEngine::new(EngineConfig {
        memtable_max_points: config.memtable_max_points,
        sorter: config.sorter,
        ..EngineConfig::default()
    });

    // Pre-generate each sensor's arrival-ordered stream; batches are
    // consecutive slices, so delays cross batch boundaries exactly as a
    // live feed would deliver them.
    let sensor_count = config.devices * config.sensors_per_device;
    let keys: Vec<SeriesKey> = (0..config.devices)
        .flat_map(|d| {
            (0..config.sensors_per_device)
                .map(move |s| SeriesKey::new(format!("root.sg.d{d}"), format!("s{s}")))
        })
        .collect();
    let expected_batches_per_sensor =
        (config.operations * config.batch_size) / sensor_count.max(1) + config.batch_size;
    let streams: Vec<Vec<(i64, f64)>> = (0..sensor_count)
        .map(|i| {
            let spec = StreamSpec {
                n: expected_batches_per_sensor + config.batch_size,
                interval: 1,
                delay: config.delay,
                signal: SignalKind::Sine {
                    period: 512.0,
                    amp: 100.0,
                    noise: 1.0,
                },
                seed: config.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            generate_pairs(&spec)
        })
        .collect();
    let mut cursors = vec![0usize; sensor_count];

    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(31).wrapping_add(7));
    let mut report = BenchReport {
        sorter: {
            use backsort_sorts::SeriesSorter;
            config.sorter.name().to_string()
        },
        delay: config.delay.label(),
        write_percentage: config.write_percentage,
        writes: 0,
        queries: 0,
        points_written: 0,
        points_queried: 0,
        query_throughput_pps: None,
        avg_flush_ms: None,
        avg_flush_sort_ms: None,
        flushes: 0,
        total_latency_ms: 0.0,
    };
    let mut query_nanos = 0u64;
    let mut next_sensor = 0usize;

    let run_start = Instant::now();
    for _ in 0..config.operations {
        let is_write = config.write_percentage >= 1.0 || rng.gen_bool(config.write_percentage);
        if is_write {
            let idx = next_sensor;
            next_sensor = (next_sensor + 1) % sensor_count;
            let stream = &streams[idx];
            let lo = cursors[idx].min(stream.len());
            let hi = (lo + config.batch_size).min(stream.len());
            cursors[idx] = hi;
            if lo == hi {
                continue; // stream exhausted; count as a no-op write
            }
            let batch =
                PointBatch::from_rows(stream[lo..hi].iter().map(|&(t, v)| (t, TsValue::Double(v))))
                    .expect("uniform Double rows");
            let job = engine.write_batch_nonblocking(&keys[idx], &batch);
            if let Some(job) = job.expect("uniform Double batch") {
                engine.complete_flush(job);
            }
            report.writes += 1;
            report.points_written += (hi - lo) as u64;
        } else {
            let idx = rng.gen_range(0..sensor_count);
            let key = &keys[idx];
            let current = engine.latest_time(key).unwrap_or(0);
            let lo = current - config.query_window;
            let t0 = Instant::now();
            let result = engine.query(key, lo, current);
            query_nanos += t0.elapsed().as_nanos() as u64;
            report.queries += 1;
            report.points_queried += result.len() as u64;
        }
    }
    report.total_latency_ms = run_start.elapsed().as_secs_f64() * 1e3;

    if report.queries > 0 && query_nanos > 0 {
        report.query_throughput_pps =
            Some(report.points_queried as f64 / (query_nanos as f64 / 1e9));
    }
    let flushed = engine.obs().snapshot();
    let nanos = |name: &str| flushed.counter(name) as f64;
    report.flushes = flushed.counter(names::FLUSH_COUNT);
    if report.flushes > 0 {
        let flushes = report.flushes as f64;
        let per_flush_ms = |ns: f64| Some(ns / flushes / 1e6);
        let sort = nanos(names::FLUSH_SORT_NANOS);
        let total = sort + nanos(names::FLUSH_ENCODE_NANOS) + nanos(names::FLUSH_WRITE_NANOS);
        report.avg_flush_ms = per_flush_ms(total);
        report.avg_flush_sort_ms = per_flush_ms(sort);
    }
    report
}

/// One cell of a system figure: a full benchmark run.
#[derive(Debug, Clone, Serialize)]
pub struct SystemRow {
    /// Panel label (delay configuration).
    pub panel: String,
    /// Flattened report.
    #[serde(flatten)]
    pub report: BenchReport,
}

/// A delay-family panel set for the system figures.
pub fn family_panels(family: &str) -> Vec<(String, DelayModel)> {
    match family {
        // The paper's four AbsNormal panels combine μ ∈ {1, 4} with two
        // σ values.
        "absnormal" => vec![
            (
                "AbsNormal(1,1)".into(),
                DelayModel::AbsNormal {
                    mu: 1.0,
                    sigma: 1.0,
                },
            ),
            (
                "AbsNormal(1,4)".into(),
                DelayModel::AbsNormal {
                    mu: 1.0,
                    sigma: 4.0,
                },
            ),
            (
                "AbsNormal(4,1)".into(),
                DelayModel::AbsNormal {
                    mu: 4.0,
                    sigma: 1.0,
                },
            ),
            (
                "AbsNormal(4,4)".into(),
                DelayModel::AbsNormal {
                    mu: 4.0,
                    sigma: 4.0,
                },
            ),
        ],
        "lognormal" => vec![
            (
                "LogNormal(1,1)".into(),
                DelayModel::LogNormal {
                    mu: 1.0,
                    sigma: 1.0,
                },
            ),
            (
                "LogNormal(1,4)".into(),
                DelayModel::LogNormal {
                    mu: 1.0,
                    sigma: 4.0,
                },
            ),
            (
                "LogNormal(4,1)".into(),
                DelayModel::LogNormal {
                    mu: 4.0,
                    sigma: 1.0,
                },
            ),
            (
                "LogNormal(4,4)".into(),
                DelayModel::LogNormal {
                    mu: 4.0,
                    sigma: 4.0,
                },
            ),
        ],
        "real" => DatasetKind::REAL
            .iter()
            .map(|k| (k.name().to_string(), k.delay_model()))
            .collect(),
        other => panic!("unknown family {other} (absnormal|lognormal|real)"),
    }
}

/// Runs the full grid: every panel × write percentage × contender.
///
/// `operations` scales run length; the paper ingests 10⁷ points per cell
/// — pass a large value with `--full`.
pub fn run_grid(
    family: &str,
    operations: usize,
    memtable_max_points: usize,
    seed: u64,
) -> Vec<SystemRow> {
    let mut rows = Vec::new();
    for (panel, delay) in family_panels(family) {
        for &write_pct in &BenchConfig::WRITE_PERCENTAGES {
            for alg in Algorithm::contenders() {
                let config = BenchConfig {
                    devices: 2,
                    sensors_per_device: 5,
                    batch_size: 500,
                    write_percentage: write_pct,
                    operations,
                    delay,
                    query_window: 2_000,
                    memtable_max_points,
                    sorter: alg,
                    seed,
                };
                let report = run_benchmark(&config);
                rows.push(SystemRow {
                    panel: panel.clone(),
                    report,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_are_defined_for_all_families() {
        assert_eq!(family_panels("absnormal").len(), 4);
        assert_eq!(family_panels("lognormal").len(), 4);
        assert_eq!(family_panels("real").len(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown family")]
    fn bad_family_panics() {
        family_panels("weibull");
    }

    #[test]
    fn tiny_grid_produces_all_cells() {
        // 1 panel subset would complicate the API; instead run a very
        // small ops count across the whole real family.
        let rows = run_grid("real", 8, 1_000, 3);
        // 4 panels × 7 write pcts × 6 algorithms
        assert_eq!(rows.len(), 4 * 7 * 6);
        assert!(rows.iter().all(|r| r.report.total_latency_ms >= 0.0));
        // Pure-write cells have no query throughput.
        assert!(rows
            .iter()
            .filter(|r| r.report.write_percentage >= 1.0)
            .all(|r| r.report.query_throughput_pps.is_none()));
    }
}
