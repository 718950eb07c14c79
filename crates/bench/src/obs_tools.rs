//! Observability acceptance tools: the `obs_check` and `obs_overhead`
//! binaries' entry points.
//!
//! * [`obs_check_main`] validates a `--stats` dump from `query_bench`
//!   in two halves. The *static* half — every name the code uses is
//!   declared in the catalog and every declared name is used — is
//!   delegated to the `backsort-analyzer` library (its `catalog-sync`
//!   pass, run over the workspace source). The *runtime* half stays
//!   here: the telemetry the paper's exhibit depends on
//!   (`query.read_path`, `sort.block_size`, `merge.overlap_q`) must
//!   actually have fired in the dump. CI runs it after the smoke bench,
//!   so removing or renaming a metric fails the build instead of
//!   silently blanking a dashboard.
//! * [`obs_overhead_main`] measures what the instrumentation costs:
//!   identical single-thread ingest into an engine with a live registry
//!   versus one with [`backsort_obs::Registry::new_disabled`], reporting
//!   points/sec for both and the relative overhead (budget: < 5%).

use std::sync::Arc;
use std::time::Instant;

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backsort_obs::Registry;
use backsort_workload::{generate_pairs, DelayModel, SignalKind, StreamSpec};

use crate::cli::Args;
use crate::table;

/// Looks up `name` in a shim-`serde` JSON object.
fn field<'a>(value: &'a serde::Value, name: &str) -> Option<&'a serde::Value> {
    match value {
        serde::Value::Object(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(value: &serde::Value) -> Option<u64> {
    match value {
        serde::Value::Int(i) if *i >= 0 => Some(*i as u64),
        serde::Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

/// Runs the analyzer's `catalog-sync` pass over the workspace source:
/// the static guarantee that the metric/failpoint catalogs and their
/// call sites agree. Exits 1 with a diagnostic on any finding; silently
/// skips when no workspace source is reachable (installed binary run
/// outside the repo).
fn check_catalog_sync() {
    let root = backsort_analyzer::find_root(&std::env::current_dir().unwrap_or_default())
        .or_else(|| backsort_analyzer::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR"))));
    let Some(root) = root else {
        eprintln!(
            "obs_check: no analyzer.toml above cwd or the source tree; skipping catalog-sync"
        );
        return;
    };
    let opts = backsort_analyzer::CheckOptions {
        deny: true,
        only: vec!["catalog-sync".to_string()],
        ..Default::default()
    };
    match backsort_analyzer::check_root(&root, &opts) {
        Ok(findings) if findings.is_empty() => {}
        Ok(findings) => {
            eprintln!(
                "obs_check: catalog out of sync with call sites ({} finding(s)):",
                findings.len()
            );
            for f in &findings {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("obs_check: catalog-sync analysis failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Verifies the span-name catalog is shape-complete in a registry dump:
/// every stage in [`backsort_obs::names::SPAN_STAGES`] must have its
/// `trace.span_nanos{stage=…}` histogram pre-registered (present even at
/// zero samples), so a renamed or dropped stage fails CI instead of
/// silently vanishing from dashboards.
fn check_span_catalog(doc: &serde::Value) {
    let missing: Vec<String> = backsort_obs::names::SPAN_STAGES
        .iter()
        .map(|stage| {
            backsort_obs::Registry::labeled(backsort_obs::names::TRACE_SPAN_NANOS, "stage", stage)
        })
        .filter(|name| {
            field(doc, "histograms")
                .and_then(|h| field(h, name))
                .is_none()
        })
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "obs_check: span catalog not pre-registered in the dump: {}",
            missing.join(", ")
        );
        std::process::exit(1);
    }
}

/// In-process smoke: `EXPLAIN ANALYZE` over a freshly seeded engine
/// must produce a span tree that opens `query.root` and reaches
/// `query.merge`, and a `count` over the flushed page must show on its
/// `query.files` span that the page was answered from its header.
/// Guards the whole trace pipeline (begin → engine spans → finish →
/// render) without needing a server.
fn check_explain_analyze_smoke() {
    let engine = StorageEngine::new(EngineConfig {
        memtable_max_points: 10_000,
        array_size: 32,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    });
    for t in 0..64i64 {
        let sql = format!("INSERT INTO root.check.d0(timestamp, s0) VALUES ({t}, {t})");
        if let Err(e) = backsort_sql::execute(&engine, &sql) {
            eprintln!("obs_check: smoke insert failed: {e}");
            std::process::exit(1);
        }
    }
    engine.flush();
    let out = backsort_sql::execute(
        &engine,
        "EXPLAIN ANALYZE SELECT s0 FROM root.check.d0 WHERE time >= 0",
    );
    let spans = match out {
        Ok(backsort_sql::QueryOutput::Analyze { spans, .. }) => spans,
        Ok(other) => {
            eprintln!("obs_check: EXPLAIN ANALYZE returned {other:?}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("obs_check: EXPLAIN ANALYZE failed: {e}");
            std::process::exit(1);
        }
    };
    for required in [
        backsort_obs::names::SPAN_QUERY_ROOT,
        backsort_obs::names::SPAN_QUERY_MERGE,
    ] {
        if !spans.iter().any(|s| s.name == required) {
            eprintln!(
                "obs_check: EXPLAIN ANALYZE smoke produced no {required} span \
                 (got: {:?})",
                spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
            );
            std::process::exit(1);
        }
    }
    let counted = backsort_sql::execute(
        &engine,
        "EXPLAIN ANALYZE SELECT count(s0) FROM root.check.d0 WHERE time >= 0",
    );
    let from_header = match &counted {
        Ok(backsort_sql::QueryOutput::Analyze { spans, .. }) => spans
            .iter()
            .filter(|s| s.name == backsort_obs::names::SPAN_QUERY_FILES)
            .flat_map(|s| s.attrs.iter())
            .filter(|(k, _)| k == backsort_obs::names::ATTR_PAGES_FROM_HEADER)
            .map(|(_, v)| *v)
            .sum::<u64>(),
        _ => 0,
    };
    if from_header != 1 {
        eprintln!(
            "obs_check: EXPLAIN ANALYZE SELECT count(..) over one flushed page reported \
             {from_header} pages from headers on its query.files span, expected 1: {counted:?}"
        );
        std::process::exit(1);
    }
}

/// Checks the catalog statically (via [`check_catalog_sync`]) and a
/// registry JSON dump for live Backward-Sort telemetry. Exits 1 with a
/// diagnostic on any failure.
pub fn obs_check_main() {
    let args = Args::from_env();
    let path = args.get("stats").unwrap_or_else(|| {
        eprintln!("usage: obs_check --stats <registry.json>");
        std::process::exit(1);
    });
    let raw = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("obs_check: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc: serde::Value = serde_json::from_str(&raw).unwrap_or_else(|e| {
        eprintln!("obs_check: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });

    check_catalog_sync();
    check_span_catalog(&doc);
    check_explain_analyze_smoke();

    let counter = |name: &str| -> u64 {
        field(&doc, "counters")
            .and_then(|c| field(c, name))
            .and_then(as_u64)
            .unwrap_or(0)
    };
    let histogram_count = |name: &str| -> u64 {
        field(&doc, "histograms")
            .and_then(|h| field(h, name))
            .and_then(|h| field(h, "count"))
            .and_then(as_u64)
            .unwrap_or(0)
    };
    let live = [
        (
            backsort_obs::names::QUERY_READ_PATH,
            counter(backsort_obs::names::QUERY_READ_PATH),
        ),
        (
            backsort_obs::names::QUERY_PAGES_DECODED,
            counter(backsort_obs::names::QUERY_PAGES_DECODED),
        ),
        (
            backsort_obs::names::SORT_BLOCK_SIZE,
            histogram_count(backsort_obs::names::SORT_BLOCK_SIZE),
        ),
        (
            backsort_obs::names::MERGE_OVERLAP_Q,
            histogram_count(backsort_obs::names::MERGE_OVERLAP_Q),
        ),
    ];
    let dead: Vec<&str> = live
        .iter()
        .filter(|(_, v)| *v == 0)
        .map(|(n, _)| *n)
        .collect();
    if !dead.is_empty() {
        eprintln!(
            "obs_check: telemetry never fired in {path}: {}",
            dead.join(", ")
        );
        std::process::exit(1);
    }

    println!(
        "obs_check: ok — catalog in sync with call sites; span catalog \
         pre-registered ({} stages); EXPLAIN ANALYZE smoke traced; \
         query.read_path={} query.pages_decoded={} sort.block_size samples={} \
         merge.overlap_q samples={}",
        backsort_obs::names::SPAN_STAGES.len(),
        live[0].1,
        live[1].1,
        live[2].1,
        live[3].1,
    );
}

/// One timed single-thread ingest run; returns points/sec.
fn ingest_pps(registry: Arc<Registry>, points: &[(i64, TsValue)], batch: usize) -> f64 {
    let engine = StorageEngine::with_registry(
        EngineConfig {
            memtable_max_points: 50_000,
            array_size: 32,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        },
        registry,
    );
    let key = SeriesKey::new("root.obs.d0", "s0");
    let start = Instant::now();
    for chunk in points.chunks(batch) {
        let batch = PointBatch::from_rows(chunk.iter().cloned()).expect("uniform rows");
        engine.write_batch(&key, &batch).expect("uniform batch");
    }
    points.len() as f64 / start.elapsed().as_secs_f64()
}

/// One timed query run at a given trace sampling rate; returns
/// queries/sec over a settled, flushed single-sensor dataset.
fn query_qps(trace_sample_n: u64, points: &[(i64, TsValue)], queries: usize) -> f64 {
    let engine = StorageEngine::new(EngineConfig {
        memtable_max_points: 50_000,
        array_size: 32,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        trace_sample_n,
        ..EngineConfig::default()
    });
    let key = SeriesKey::new("root.obs.d0", "s0");
    for chunk in points.chunks(1_000) {
        let batch = PointBatch::from_rows(chunk.iter().cloned()).expect("uniform rows");
        engine.write_batch(&key, &batch).expect("uniform batch");
    }
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
