//! Live-telemetry integration: the observability layer as an exhibit of
//! the paper's theory.
//!
//! The centerpiece checks Theorem 2's bound on real engine traffic: on a
//! delay-only workload, the backward merge's measured per-step overlap
//! `Q` (the `merge.overlap_q` histogram) must average at most the
//! workload's mean non-negative delay `E[Δτ | Δτ ≥ 0]` — the quantity
//! the paper proves bounds `E[Q]`.

use std::sync::Arc;

use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
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
    let engine = StorageEngine::with_registry(
        EngineConfig {
            memtable_max_points: 4_096,
            array_size: 32,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        },
        Arc::clone(&registry),
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
        engine.write_batch(&key, &batch).expect("uniform batch");
    }
    engine.flush();

    let snap = registry.snapshot();
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
    let _engine = StorageEngine::with_registry(EngineConfig::default(), Arc::clone(&registry));
    let snap = registry.snapshot();
    for name in names::REQUIRED {
        let found = snap.counters.contains_key(*name)
            || snap.gauges.contains_key(*name)
            || snap.histograms.contains_key(*name);
        assert!(found, "declared metric {name} not pre-registered");
    }
}

#[test]
fn flush_spans_land_in_the_trace_store() {
    let registry = Arc::new(Registry::new());
    let engine = StorageEngine::with_registry(
        EngineConfig {
            memtable_max_points: 2_048,
            array_size: 32,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        },
        Arc::clone(&registry),
    );
    let engine = Arc::new(engine);
    let key = SeriesKey::new("root.obs.d1", "s1");
    let points: Vec<(i64, TsValue)> = delay_only_pairs(10_000, 3)
        .into_iter()
        .map(|(t, v)| (t, TsValue::Double(v)))
        .collect();
    let flusher = backward_sort_repro::engine::AsyncFlusher::with_workers(Arc::clone(&engine), 2);
    for chunk in points.chunks(500) {
        let batch = PointBatch::from_rows(chunk.iter().cloned()).expect("uniform Double rows");
        if let Some(job) = engine
            .write_batch_nonblocking(&key, &batch)
            .expect("uniform batch")
        {
            flusher.submit(job).expect("flusher alive");
        }
    }
    let completed = flusher.shutdown();
    assert!(completed > 0, "memtable rotations must have flushed");
    let traces = registry.traces().recent();
    assert!(
        traces.iter().any(|t| t
            .spans
            .first()
            .is_some_and(|s| s.name == names::SPAN_FLUSH_ROOT)),
        "async flushes must leave a flush.root trace, got {traces:?}"
    );
}
