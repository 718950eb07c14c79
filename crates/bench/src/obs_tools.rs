//! The `obs_overhead` binary's entry point: [`obs_overhead_main`]
//! measures what the instrumentation costs — identical single-thread
//! ingest into an engine with a live registry versus one with
//! [`backsort_obs::Registry::new_disabled`], reporting points/sec for
//! both and the relative overhead (budget: < 5%).

use std::sync::Arc;
use std::time::Instant;

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backsort_obs::Registry;
use backsort_workload::{generate_pairs, DelayModel, SignalKind, StreamSpec};

use crate::cli::Args;
use crate::table;

/// One timed single-thread ingest run; returns points/sec.
fn ingest_pps(registry: Arc<Registry>, points: &[(i64, TsValue)], batch: usize) -> f64 {
    let engine = StorageEngine::instrumented(
        EngineConfig {
            memtable_max_points: 50_000,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        },
        registry,
        Arc::default(),
    );
    let start = Instant::now();
    ingest(&engine, points, batch);
    points.len() as f64 / start.elapsed().as_secs_f64()
}

/// Writes `points` to one sensor in batches of `batch`, flushing each
/// rotated memtable before the next batch.
fn ingest(engine: &StorageEngine, points: &[(i64, TsValue)], batch: usize) {
    let key = SeriesKey::new("root.obs.d0", "s0");
    for chunk in points.chunks(batch) {
        let batch = PointBatch::from_rows(chunk.iter().cloned()).expect("uniform rows");
        engine.write_batch(&key, &batch).expect("uniform batch");
    }
}

/// One timed query run at a given trace sampling rate; returns
/// queries/sec over a settled, flushed single-sensor dataset.
fn query_qps(trace_sample_n: u64, points: &[(i64, TsValue)], queries: usize) -> f64 {
    let engine = StorageEngine::new(EngineConfig {
        memtable_max_points: 50_000,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        trace_sample_n,
        ..EngineConfig::default()
    });
    let key = SeriesKey::new("root.obs.d0", "s0");
    ingest(&engine, points, 1_000);
    engine.flush();
    let current = engine.latest_time(&key).unwrap_or(0);
    let window = 2_000;
    // Warmup settles any sort-on-read and primes the block cache.
    engine.query(&key, current - window, current);
    let start = Instant::now();
    for _ in 0..queries {
        std::hint::black_box(engine.query(&key, current - window, current));
    }
    queries as f64 / start.elapsed().as_secs_f64()
}

/// Measures instrumentation overhead on the write path — identical
/// ingest with the registry enabled vs disabled — and per-query tracing
/// overhead on the read path: the same settled query workload with
/// tracing off (`trace_sample_n = 0`), at the default 1-in-16 sampling,
/// and traced always. Budget: < 5% write-path registry overhead, < 2%
/// query overhead at the default sampling rate.
///
/// `--points N` sets the ingest size (default 1M, `--smoke` 200k);
/// `--rounds R` alternates R runs per mode and keeps each mode's best.
pub fn obs_overhead_main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let n = args.get_or("points", if smoke { 200_000usize } else { 1_000_000 });
    let rounds = args.get_or("rounds", 3usize);
    let batch = 1_000;

    let spec = StreamSpec {
        n,
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
        seed: 42,
    };
    let points: Vec<(i64, TsValue)> = generate_pairs(&spec)
        .into_iter()
        .map(|(t, v)| (t, TsValue::Double(v)))
        .collect();

    // Warmup outside the clock (allocator + flusher pool spin-up).
    ingest_pps(
        Arc::new(Registry::new()),
        &points[..points.len().min(batch * 10)],
        batch,
    );

    let mut best_enabled: f64 = 0.0;
    let mut best_disabled: f64 = 0.0;
    for _ in 0..rounds {
        best_disabled = best_disabled.max(ingest_pps(
            Arc::new(Registry::new_disabled()),
            &points,
            batch,
        ));
        best_enabled = best_enabled.max(ingest_pps(Arc::new(Registry::new()), &points, batch));
    }
    let overhead_pct = (best_disabled - best_enabled) / best_disabled * 100.0;

    // Query-side tracing cells share a smaller settled dataset (the
    // query loop, not the ingest, is on the clock).
    let trace_points = &points[..points.len().min(100_000)];
    let queries = if smoke { 2_000 } else { 20_000 };
    let mut best_off: f64 = 0.0;
    let mut best_sampled: f64 = 0.0;
    let mut best_always: f64 = 0.0;
    for _ in 0..rounds {
        best_off = best_off.max(query_qps(0, trace_points, queries));
        best_sampled = best_sampled.max(query_qps(16, trace_points, queries));
        best_always = best_always.max(query_qps(1, trace_points, queries));
    }
    let trace_sampled_pct = (best_off - best_sampled) / best_off * 100.0;
    let trace_always_pct = (best_off - best_always) / best_off * 100.0;

    if args.json() {
        println!(
            "{{\"points\":{n},\"pps_disabled\":{best_disabled:.0},\"pps_enabled\":{best_enabled:.0},\"overhead_pct\":{overhead_pct:.2},\
             \"qps_trace_off\":{best_off:.0},\"qps_trace_sampled\":{best_sampled:.0},\"qps_trace_always\":{best_always:.0},\
             \"trace_sampled_overhead_pct\":{trace_sampled_pct:.2},\"trace_always_overhead_pct\":{trace_always_pct:.2}}}"
        );
        return;
    }
    table::heading("Write-path instrumentation overhead (single thread, best of rounds)");
    table::print_table(
        &["registry", "points", "best pps", "overhead %"],
        &[
            vec![
                "disabled".into(),
                n.to_string(),
                format!("{best_disabled:.2e}"),
                "-".into(),
            ],
            vec![
                "enabled".into(),
                n.to_string(),
                format!("{best_enabled:.2e}"),
                format!("{overhead_pct:.2}"),
            ],
        ],
    );
    table::heading("Per-query tracing overhead (settled reads, best of rounds)");
    table::print_table(
        &["tracing", "queries", "best qps", "overhead %"],
        &[
            vec![
                "off (n=0)".into(),
                queries.to_string(),
                format!("{best_off:.0}"),
                "-".into(),
            ],
            vec![
                "1-in-16 (default)".into(),
                queries.to_string(),
                format!("{best_sampled:.0}"),
                format!("{trace_sampled_pct:.2}"),
            ],
            vec![
                "always (n=1)".into(),
                queries.to_string(),
                format!("{best_always:.0}"),
                format!("{trace_always_pct:.2}"),
            ],
        ],
    );
}
