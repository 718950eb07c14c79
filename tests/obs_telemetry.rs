//! Live-telemetry integration: the observability layer as an exhibit of
//! the paper's theory.
//!
//! The centerpiece checks Theorem 2's bound on real engine traffic: on a
//! delay-only workload, the backward merge's measured per-step overlap
//! `Q` (the `merge.overlap_q` histogram) must average at most the
//! workload's mean non-negative delay `E[Δτ | Δτ ≥ 0]` — the quantity
//! the paper proves bounds `E[Q]`.

use std::sync::Arc;
use std::time::Duration;

use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{
    EngineConfig, FlushPool, PointBatch, SeriesKey, StorageEngine, TsValue,
};
use backward_sort_repro::obs::{names, Registry};
use backward_sort_repro::workload::{generate_pairs, DelayModel, SignalKind, StreamSpec};

fn delay_only_pairs(n: usize, seed: u64) -> Vec<(i64, f64)> {
    generate_pairs(&StreamSpec {
        n,
        interval: 1,
        delay: DelayModel::AbsNormal {
            mu: 2.0,
            sigma: 4.0,
        },
        signal: SignalKind::Sine {
            period: 256.0,
            amp: 50.0,
            noise: 0.5,
        },
        seed,
    })
}

/// The workload's measured `E[Δτ | Δτ ≥ 0]`: for each arrival, its lag
/// behind the running maximum timestamp, averaged over the late points.
fn mean_nonnegative_delay(pairs: &[(i64, f64)]) -> f64 {
    let mut running_max = i64::MIN;
    let mut sum = 0u64;
    let mut late = 0u64;
    for &(t, _) in pairs {
        if t < running_max {
            sum += (running_max - t) as u64;
            late += 1;
        }
        running_max = running_max.max(t);
    }
    assert!(late > 0, "delay-only workload must produce late points");
    sum as f64 / late as f64
}

#[test]
fn live_overlap_q_respects_the_papers_bound() {
    let registry = Arc::new(Registry::new());
    let engine = StorageEngine::instrumented(
        EngineConfig {
            memtable_max_points: 4_096,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        },
        Arc::clone(&registry),
        Arc::default(),
    );
    let key = SeriesKey::new("root.obs.d1", "s1");
    let pairs = delay_only_pairs(40_000, 77);
    let measured_delay = mean_nonnegative_delay(&pairs);

    let points: Vec<(i64, TsValue)> = pairs
        .iter()
        .map(|&(t, v)| (t, TsValue::Double(v)))
        .collect();
    for chunk in points.chunks(1_000) {
        let batch = PointBatch::from_rows(chunk.iter().cloned()).expect("uniform Double rows");
        if let Some(job) = engine
            .write_batch_nonblocking(&key, &batch)
            .expect("uniform batch")
        {
            engine.complete_flush(job);
        }
    }
    engine.flush();

    let snap = registry.snapshot();
    let block_size = snap
        .histogram(names::SORT_BLOCK_SIZE)
        .expect("sort.block_size is a declared histogram");
    assert!(
        block_size.count > 0,
        "flush sorts must have recorded the block size L they chose"
    );
    let q = snap
        .histogram(names::MERGE_OVERLAP_Q)
        .expect("flush sorts must have recorded overlap Q");
    assert!(q.count > 0, "no backward merges observed");
    let mean_q = q.sum as f64 / q.count as f64;
    assert!(
        mean_q <= measured_delay,
        "E[Q] = {mean_q:.2} exceeded measured E[Δτ|Δτ≥0] = {measured_delay:.2}"
    );

    // The Δτ histogram is the same fact seen from the memtable. Its
    // running maximum resets at every buffer rotation (a late point
    // landing first in a fresh memtable records no lag), so the means
    // agree closely but not exactly.
    let dt = snap
        .histogram(names::MEMTABLE_DELTA_TAU)
        .expect("late points must have recorded Δτ");
    assert_eq!(dt.count, snap.counter(names::MEMTABLE_OOO_POINTS));
    let mean_dt = dt.sum as f64 / dt.count as f64;
    assert!(
        (mean_dt - measured_delay).abs() / measured_delay < 0.05,
        "memtable Δτ mean {mean_dt} far from workload mean {measured_delay}"
    );
}

#[test]
fn the_declared_catalog_is_present_from_birth() {
    let registry = Arc::new(Registry::new());
    let _engine = StorageEngine::instrumented(
        EngineConfig::default(),
        Arc::clone(&registry),
        Arc::default(),
    );
    let snap = registry.snapshot();
    for name in names::COUNTERS {
        assert!(snap.counters.contains_key(*name), "counter {name} missing");
    }
    for name in names::GAUGES {
        assert!(snap.gauges.contains_key(*name), "gauge {name} missing");
    }
    for name in names::HISTOGRAMS {
        assert!(
            snap.histograms.contains_key(*name),
            "histogram {name} missing"
        );
    }
}

#[test]
fn flush_spans_land_in_the_trace_store() {
    let registry = Arc::new(Registry::new());
    let engine = StorageEngine::instrumented(
        EngineConfig {
            memtable_max_points: 2_048,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        },
        Arc::clone(&registry),
        Arc::default(),
    );
    let engine = Arc::new(engine);
    let key = SeriesKey::new("root.obs.d1", "s1");
    let points: Vec<(i64, TsValue)> = delay_only_pairs(10_000, 3)
        .into_iter()
        .map(|(t, v)| (t, TsValue::Double(v)))
        .collect();
    let pool = FlushPool::start(Arc::clone(&engine), 2, Duration::ZERO);
    for chunk in points.chunks(500) {
        let batch = PointBatch::from_rows(chunk.iter().cloned()).expect("uniform Double rows");
        if let Some(job) = engine
            .write_batch_nonblocking(&key, &batch)
            .expect("uniform batch")
        {
            pool.submit(job);
        }
    }
    pool.stop();
    assert!(
        registry.counter_value(names::FLUSH_COUNT) > 0,
        "memtable rotations must have flushed"
    );
    let traces = registry.traces().recent();
    assert!(
        traces.iter().any(|t| t
            .spans
            .first()
            .is_some_and(|s| s.name == names::SPAN_FLUSH_ROOT)),
        "async flushes must leave a flush.root trace, got {traces:?}"
    );

    // Queries are sampled at the default one in 16: 32 reads leave two
    // query traces, and the per-stage histograms time their merges.
    let merge_stage = Registry::labeled(names::TRACE_SPAN_NANOS, "stage", names::SPAN_QUERY_MERGE);
    let merges_before = registry
        .snapshot()
        .histogram(&merge_stage)
        .map_or(0, |h| h.count);
    for _ in 0..32 {
        assert!(!engine.query(&key, 0, 5_000).is_empty());
    }
    let query_traces = registry
        .traces()
        .recent()
        .iter()
        .filter(|t| {
            t.spans
                .first()
                .is_some_and(|s| s.name == names::SPAN_QUERY_ROOT)
        })
        .count();
    assert_eq!(query_traces, 2, "one query in 16 is traced");
    let merges = registry
        .snapshot()
        .histogram(&merge_stage)
        .map_or(0, |h| h.count);
    assert!(
        merges > merges_before,
        "sampled traces must time the merge stage"
    );
}
