//! Soak: sustained out-of-order ingest whose delays have a heavy
//! LogNormal tail, so a large share of every stream arrives below its
//! flush watermark and takes the unsequence path. Writes go the way the
//! server's ingest sends them — ask `flush_stalled`, wait on the flush
//! pool, write without blocking, submit the job — and both memtables
//! must stay bounded: within `memtable_max_points` plus the batches
//! written concurrently with the stall check. Every read agrees with a
//! `BTreeMap` model, and the unsequence flushes are there to see as
//! `flush.root` traces carrying `unseq = 1`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use backward_sort_repro::engine::{
    EngineConfig, FlushPool, PointBatch, SeriesKey, StorageEngine, TsValue,
};
use backward_sort_repro::obs::names;
use backward_sort_repro::workload::{generate_pairs, DelayModel, StreamSpec};

const MEMTABLE: usize = 2_000;
const BATCH: usize = 250;
const WRITERS: usize = 2;
const POINTS: usize = 60_000;

/// One writer: its series' arrivals in batches, admitted like the
/// server's ingest, with its own series read back against the model
/// every few batches. Returns the peak `(working, unsequence)` points it
/// saw after its writes.
fn write_stream(engine: &StorageEngine, pool: &FlushPool, w: usize) -> (usize, usize) {
    let key = SeriesKey::new(format!("root.soak.d{w}"), "s");
    let shard = engine.shard_of(&key.device);
    let spec = StreamSpec::new(
        POINTS,
        DelayModel::LogNormal {
            mu: 6.0,
            sigma: 1.5,
        },
        17 + w as u64,
    );
    let mut model = BTreeMap::new();
    let mut peak = (0, 0);
    for (b, chunk) in generate_pairs(&spec).chunks(BATCH).enumerate() {
        if engine.flush_stalled(shard) {
            assert!(
                pool.wait_while_stalled(shard, Duration::from_secs(10)),
                "the flush pool ends every stall"
            );
        }
        let rows = chunk.iter().map(|&(t, v)| (t, TsValue::Double(v)));
        let batch = PointBatch::from_rows(rows).expect("DOUBLE");
        if let Some(job) = engine
            .write_batch_nonblocking(&key, &batch)
            .expect("DOUBLE")
        {
            pool.submit(job);
        }
        model.extend(chunk.iter().map(|&(t, v)| (t, TsValue::Double(v))));
        let (working, unseq) = engine.buffered_points();
        peak = (peak.0.max(working), peak.1.max(unseq));
        if b % 16 == 0 {
            let hi = chunk.iter().map(|p| p.0).max().unwrap_or(0);
            let lo = hi - 3 * MEMTABLE as i64;
            let want: Vec<(i64, TsValue)> =
                model.range(lo..=hi).map(|(&t, v)| (t, v.clone())).collect();
            assert_eq!(engine.query(&key, lo, hi), want, "writer {w}, batch {b}");
        }
    }
    let want: Vec<(i64, TsValue)> = model.into_iter().collect();
    assert_eq!(engine.query(&key, i64::MIN, i64::MAX), want, "writer {w}");
    peak
}

#[test]
fn both_memtables_stay_bounded_under_heavy_tailed_delays() {
    let engine = Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: MEMTABLE,
        shards: 1,
        // Only flushes are traced, so the recent traces are all flushes.
        trace_sample_n: 0,
        ..EngineConfig::default()
    }));
    // A slow flusher keeps the slot occupied, so writers do stall.
    let pool = FlushPool::start(Arc::clone(&engine), 1, Duration::from_millis(1));
    let bound = MEMTABLE + WRITERS * BATCH;
    let stop = AtomicBool::new(false);

    let (sampled, written) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = (0, 0);
            while !stop.load(Ordering::Acquire) {
                let (working, unseq) = engine.buffered_points();
                peak = (peak.0.max(working), peak.1.max(unseq));
                std::thread::yield_now();
            }
            peak
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (engine, pool) = (&engine, &pool);
                scope.spawn(move || write_stream(engine, pool, w))
            })
            .collect();
        let written: Vec<(usize, usize)> = writers
            .into_iter()
            .map(|h| h.join().expect("writer"))
            .collect();
        stop.store(true, Ordering::Release);
        (sampler.join().expect("sampler"), written)
    });
    pool.stop();

    for (working, unseq) in written.into_iter().chain([sampled]) {
        assert!(
            working <= bound,
            "working memtable reached {working} > {bound}"
        );
        assert!(
            unseq <= bound,
            "unsequence memtable reached {unseq} > {bound}"
        );
    }

    // Of the flushes the trace store still holds, a large share of the
    // points were unsequence: the delay tail did route them there.
    let (mut unseq_points, mut points) = (0, 0);
    for trace in engine.obs().traces().recent() {
        let root = trace.spans.first().expect("a root span");
        assert_eq!(root.name, names::SPAN_FLUSH_ROOT);
        let flushed = trace.attr_total(names::ATTR_POINTS);
        points += flushed;
        if root.attrs.contains(&(names::ATTR_UNSEQ, 1)) {
            unseq_points += flushed;
        }
    }
    assert!(
        unseq_points * 5 >= points,
        "only {unseq_points} of {points} flushed points were unsequence"
    );

    // Settled, every point once, and the same answers from files alone.
    engine.flush();
    engine.flush_unseq();
    assert_eq!(engine.buffered_points(), (0, 0));
    let stored: usize = (0..WRITERS)
        .map(|w| {
            let key = SeriesKey::new(format!("root.soak.d{w}"), "s");
            engine.query(&key, i64::MIN, i64::MAX).len()
        })
        .sum();
    assert_eq!(stored, WRITERS * POINTS);
}
