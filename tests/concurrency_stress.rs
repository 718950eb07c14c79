//! Concurrency stress: many writer threads, query threads, and an async
//! flusher all hammer one engine; afterwards, every written point must be
//! present exactly once and every query observed sorted data.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{
    AsyncFlusher, EngineConfig, FlushJob, PointBatch, SeriesKey, StorageEngine, TsValue,
};

/// One point through the non-blocking batch entry point.
fn write_nb(engine: &StorageEngine, key: &SeriesKey, t: i64) -> Option<FlushJob> {
    let batch = PointBatch::from_rows(vec![(t, TsValue::Long(t))]).expect("one typed point");
    engine
        .write_batch_nonblocking(key, &batch)
        .expect("matching type")
}

#[test]
fn writers_queriers_and_flusher_do_not_corrupt_data() {
    let engine = Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: 3_000,
        array_size: 32,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }));
    let flusher = Arc::new(AsyncFlusher::new(Arc::clone(&engine)));
    let stop = Arc::new(AtomicBool::new(false));
    let disorder_seen = Arc::new(AtomicU64::new(0));

    const WRITERS: usize = 4;
    const POINTS_PER_WRITER: i64 = 5_000;

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let engine = Arc::clone(&engine);
            let flusher = Arc::clone(&flusher);
            scope.spawn(move || {
                let key = SeriesKey::new("root.sg.d1", format!("s{w}"));
                let mut x = w as u64 * 7919 + 1;
                for i in 0..POINTS_PER_WRITER {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Delay-only arrivals, collision-free timestamps.
                    let t = i * 8 + (x % 8) as i64;
                    if let Some(job) = write_nb(&engine, &key, t) {
                        if let Err(closed) = flusher.submit(job) {
                            engine.complete_flush(closed.0);
                        }
                    }
                }
            });
        }
        for q in 0..3 {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let disorder_seen = Arc::clone(&disorder_seen);
            scope.spawn(move || {
                let key = SeriesKey::new("root.sg.d1", format!("s{}", q % WRITERS));
                while !stop.load(Ordering::Acquire) {
                    let latest = engine.latest_time(&key).unwrap_or(0);
                    let result = engine.query(&key, latest - 1_000, latest);
                    if !result.windows(2).all(|w| w[0].0 < w[1].0) {
                        disorder_seen.fetch_add(1, Ordering::Relaxed);
                    }
                    for (t, v) in result {
                        if v != TsValue::Long(t) {
                            disorder_seen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // Writers finish on their own; then release the query threads.
        // (Scoped threads join at the end of the scope, so flip `stop`
        // from a watcher thread once writers are done — simplest is to
        // spawn the watcher last.)
        let stop2 = Arc::clone(&stop);
        let engine2 = Arc::clone(&engine);
        scope.spawn(move || {
            // Poll until all writers' data is visible, then stop queriers.
            loop {
                let mut total = 0usize;
                for w in 0..WRITERS {
                    let key = SeriesKey::new("root.sg.d1", format!("s{w}"));
                    total += engine2.query(&key, i64::MIN, i64::MAX).len();
                }
                // Distinct timestamps may be slightly below writes due to
                // (rare) collisions within a stride; all-visible is
                // detected by growth stalling at completion.
                if total >= WRITERS * (POINTS_PER_WRITER as usize) * 9 / 10 {
                    break;
                }
                std::thread::yield_now();
            }
            stop2.store(true, Ordering::Release);
        });
    });

    assert_eq!(
        disorder_seen.load(Ordering::Relaxed),
        0,
        "queries observed corruption"
    );

    // Drain everything and verify exact contents per sensor.
    let flusher = Arc::into_inner(flusher).expect("sole owner");
    flusher.shutdown();
    engine.flush();
    for w in 0..WRITERS {
        let key = SeriesKey::new("root.sg.d1", format!("s{w}"));
        let got = engine.query(&key, i64::MIN, i64::MAX);
        assert!(got.windows(2).all(|win| win[0].0 < win[1].0));
        // Reconstruct the expected distinct timestamp set.
        let mut x = w as u64 * 7919 + 1;
        let mut expected: Vec<i64> = (0..POINTS_PER_WRITER)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                i * 8 + (x % 8) as i64
            })
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let got_times: Vec<i64> = got.iter().map(|p| p.0).collect();
        assert_eq!(got_times, expected, "sensor s{w}");
        assert!(got.iter().all(|(t, v)| *v == TsValue::Long(*t)));
    }
}

/// Deterministic timestamps for writer `w`'s private device: delay-only
/// arrivals with a stride-8 jitter, exactly as the single-shard test.
fn private_times(w: usize, n: i64) -> Vec<i64> {
    let mut x = w as u64 * 7919 + 1;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            i * 8 + (x % 8) as i64
        })
        .collect()
}

/// Runs the sharded stress workload and returns every device's final,
/// fully-flushed query result (private devices first, then the shared
/// one). Writers cover *disjoint* devices (root.sg.d0..d3, which FNV-hash
/// to four different shards) plus one *overlapping* device all writers
/// append to in disjoint timestamp ranges; query threads run throughout;
/// rotations drain through a flusher pool.
fn run_sharded_stress(shards: usize) -> Vec<Vec<(i64, TsValue)>> {
    const WRITERS: usize = 4;
    const POINTS_PER_WRITER: i64 = 3_000;
    const SHARED_POINTS: i64 = 1_000;

    let engine = Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: 2_000,
        array_size: 32,
        sorter: Algorithm::Backward(Default::default()),
        shards,
        ..EngineConfig::default()
    }));
    let flusher = Arc::new(AsyncFlusher::with_workers(Arc::clone(&engine), 4));
    let stop = Arc::new(AtomicBool::new(false));
    let anomalies = Arc::new(AtomicU64::new(0));
    let shared = SeriesKey::new("root.sg.shared", "s");

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let engine = Arc::clone(&engine);
            let flusher = Arc::clone(&flusher);
            let shared = shared.clone();
            scope.spawn(move || {
                let key = SeriesKey::new(format!("root.sg.d{w}"), "s");
                let submit = |job| {
                    if let Err(closed) = flusher.submit(job) {
                        engine.complete_flush(closed.0);
                    }
                };
                for (i, t) in private_times(w, POINTS_PER_WRITER).into_iter().enumerate() {
                    if let Some(job) = write_nb(&engine, &key, t) {
                        submit(job);
                    }
                    // Interleave the overlapping device: writer w owns the
                    // disjoint range [w*100_000, w*100_000 + SHARED_POINTS).
                    if (i as i64) < SHARED_POINTS {
                        let st = w as i64 * 100_000 + i as i64;
                        if let Some(job) = write_nb(&engine, &shared, st) {
                            submit(job);
                        }
                    }
                }
            });
        }
        for q in 0..2 {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let anomalies = Arc::clone(&anomalies);
            let shared = shared.clone();
            scope.spawn(move || {
                let private = SeriesKey::new(format!("root.sg.d{}", q % WRITERS), "s");
                while !stop.load(Ordering::Acquire) {
                    for key in [&private, &shared] {
                        let latest = engine.latest_time(key).unwrap_or(0);
                        let result = engine.query(key, latest - 2_000, latest);
                        if !result.windows(2).all(|win| win[0].0 < win[1].0)
                            || result.iter().any(|(t, v)| *v != TsValue::Long(*t))
                        {
                            anomalies.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        let stop2 = Arc::clone(&stop);
        let engine2 = Arc::clone(&engine);
        scope.spawn(move || {
            loop {
                let mut total = 0usize;
                for w in 0..WRITERS {
                    let key = SeriesKey::new(format!("root.sg.d{w}"), "s");
                    total += engine2.query(&key, i64::MIN, i64::MAX).len();
                }
                if total >= WRITERS * (POINTS_PER_WRITER as usize) * 9 / 10 {
                    break;
                }
                std::thread::yield_now();
            }
            stop2.store(true, Ordering::Release);
        });
    });

    assert_eq!(
        anomalies.load(Ordering::Relaxed),
        0,
        "queries observed unsorted or corrupt data (shards = {shards})"
    );

    let flusher = Arc::into_inner(flusher).expect("sole owner");
    flusher.shutdown();
    engine.flush();
    engine.flush_unseq();

    let mut results = Vec::new();
    for w in 0..WRITERS {
        let key = SeriesKey::new(format!("root.sg.d{w}"), "s");
        let got = engine.query(&key, i64::MIN, i64::MAX);
        assert!(got.windows(2).all(|win| win[0].0 < win[1].0), "d{w} sorted");
        let mut expected = private_times(w, POINTS_PER_WRITER);
        expected.sort_unstable();
        expected.dedup();
        let got_times: Vec<i64> = got.iter().map(|p| p.0).collect();
        assert_eq!(got_times, expected, "d{w}: no lost or duplicated points");
        results.push(got);
    }
    let got = engine.query(&shared, i64::MIN, i64::MAX);
    let expected: Vec<i64> = (0..WRITERS as i64)
        .flat_map(|w| w * 100_000..w * 100_000 + SHARED_POINTS)
        .collect();
    let got_times: Vec<i64> = got.iter().map(|p| p.0).collect();
    assert_eq!(
        got_times, expected,
        "shared device: no lost or duplicated points"
    );
    results.push(got);
    results
}

#[test]
fn sharded_engine_survives_stress_and_matches_single_shard() {
    let single = run_sharded_stress(1);
    let sharded = run_sharded_stress(4);
    assert_eq!(
        single, sharded,
        "the seeded workload must produce identical query results at 1 and 4 shards"
    );
}
