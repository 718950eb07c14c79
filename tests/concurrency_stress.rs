//! Concurrency stress: many writer threads, query threads, and the flush
//! pool all hammer one engine; afterwards, every written point must be
//! present exactly once and every query observed sorted data.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{
    EngineConfig, FlushJob, FlushPool, PointBatch, SeriesKey, StorageEngine, TsValue,
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
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }));
    let pool = FlushPool::start(Arc::clone(&engine), 1, Duration::ZERO);
    let stop = Arc::new(AtomicBool::new(false));
    let disorder_seen = Arc::new(AtomicU64::new(0));

    const WRITERS: usize = 4;
    const POINTS_PER_WRITER: i64 = 5_000;

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (engine, pool) = (Arc::clone(&engine), &pool);
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
                        pool.submit(job);
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
    pool.stop();
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
/// rotations drain through a four-worker flush pool.
fn run_sharded_stress(shards: usize) -> Vec<Vec<(i64, TsValue)>> {
    const WRITERS: usize = 4;
    const POINTS_PER_WRITER: i64 = 3_000;
    const SHARED_POINTS: i64 = 1_000;

    let engine = Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: 2_000,
        sorter: Algorithm::Backward(Default::default()),
        shards,
        ..EngineConfig::default()
    }));
    let pool = FlushPool::start(Arc::clone(&engine), 4, Duration::ZERO);
    let stop = Arc::new(AtomicBool::new(false));
    let anomalies = Arc::new(AtomicU64::new(0));
    let shared = SeriesKey::new("root.sg.shared", "s");

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (engine, pool) = (Arc::clone(&engine), &pool);
            let shared = shared.clone();
            scope.spawn(move || {
                let key = SeriesKey::new(format!("root.sg.d{w}"), "s");
                for (i, t) in private_times(w, POINTS_PER_WRITER).into_iter().enumerate() {
                    if let Some(job) = write_nb(&engine, &key, t) {
                        pool.submit(job);
                    }
                    // Interleave the overlapping device: writer w owns the
                    // disjoint range [w*100_000, w*100_000 + SHARED_POINTS).
                    if (i as i64) < SHARED_POINTS {
                        let st = w as i64 * 100_000 + i as i64;
                        if let Some(job) = write_nb(&engine, &shared, st) {
                            pool.submit(job);
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

    pool.stop();
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

/// What a reader may see of one series while the traffic of
/// [`traffic_during_an_outstanding_flush_reads_the_model`] runs: the
/// rotated base points minus the ranges deleted so far, plus the late
/// and fresh points written so far — each a prefix of a fixed sequence,
/// so a read is checked exactly, and against the previous read too.
mod flush_traffic {
    use super::*;

    /// Base points a series: the memtable that rotates holds four such.
    pub const BASE: i64 = 2_000;
    /// Points of either kind a writer adds, in batches of [`BATCH`].
    pub const ADDED: i64 = 5_000;
    pub const BATCH: i64 = 40;
    /// Fresh points start here, above every base timestamp.
    pub const FRESH_AT: i64 = 100_000;
    /// Ranges the deleter erases, in order, `[lo, lo + 40]` each — wide
    /// enough to hold a base point whatever the jitter, and enough of
    /// them that the second half is still deleting while the flush runs.
    pub const DELETES: i64 = 200;

    pub fn delete_range(k: i64) -> (i64, i64) {
        (k * 80, k * 80 + 40)
    }

    /// The base timestamps of `series` in arrival order: collision-free,
    /// each group of four arriving newest first.
    pub fn base_arrivals(series: usize) -> Vec<i64> {
        let times = private_times(series, BASE);
        (0..times.len()).map(|i| times[i ^ 3]).collect()
    }

    /// The `i`-th late and fresh arrival of a writer: late points go
    /// down from -1 (all below the watermark, all new), fresh ones up
    /// from [`FRESH_AT`], each group of four arriving newest first.
    pub fn late(i: i64) -> i64 {
        -1 - i
    }
    pub fn fresh(i: i64) -> i64 {
        FRESH_AT + (i ^ 3)
    }

    /// How far along one series a reader has seen its writers get.
    #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
    pub struct Progress {
        pub deleted: i64,
        pub late: i64,
        pub fresh: i64,
    }

    /// Checks one full-range read of `series` against the model and
    /// returns the progress it shows, or says what is wrong with it.
    pub fn check(series: usize, got: &[(i64, TsValue)]) -> Result<Progress, String> {
        if !got.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("not sorted and duplicate-free".into());
        }
        if let Some((t, v)) = got.iter().find(|(t, v)| *v != TsValue::Long(*t)) {
            return Err(format!("value {v:?} at {t}"));
        }
        let times: Vec<i64> = got.iter().map(|p| p.0).collect();
        let base_from = times.partition_point(|&t| t < 0);
        let fresh_from = times.partition_point(|&t| t < FRESH_AT);
        let (late_part, base_part, fresh_part) = (
            &times[..base_from],
            &times[base_from..fresh_from],
            &times[fresh_from..],
        );
        let progress = Progress {
            late: late_part.len() as i64,
            fresh: fresh_part.len() as i64,
            // The first range still wholly or partly present.
            deleted: (0..DELETES)
                .find(|&k| {
                    let (lo, hi) = delete_range(k);
                    base_part.iter().any(|t| (lo..=hi).contains(t))
                })
                .unwrap_or(DELETES),
        };
        if progress.late % BATCH != 0 || progress.fresh % BATCH != 0 {
            return Err(format!("a batch is visible in part: {progress:?}"));
        }
        let writes = matches!(series, 0 | 1);
        let deletes = series == 2;
        if (!writes && (progress.late, progress.fresh) != (0, 0))
            || (!deletes && progress.deleted != 0)
        {
            return Err(format!("another series' traffic shows: {progress:?}"));
        }
        let mut want_late: Vec<i64> = (0..progress.late).map(late).collect();
        want_late.reverse();
        let mut want_fresh: Vec<i64> = (0..progress.fresh).map(fresh).collect();
        want_fresh.sort_unstable();
        let mut want_base = private_times(series, BASE);
        if deletes {
            want_base.retain(|t| {
                !(0..progress.deleted).any(|k| {
                    let (lo, hi) = delete_range(k);
                    (lo..=hi).contains(t)
                })
            });
        }
        if late_part != want_late || fresh_part != want_fresh || base_part != want_base {
            return Err(format!("points missing or extra at {progress:?}"));
        }
        Ok(progress)
    }
}

/// Writers, range readers, a deleter and a compactor against a shard
/// whose flush is outstanding, and then completing under them. The flush
/// copies the rotated memtable out of the shard's flushing slot series
/// by series, under the read lock, while readers sort that same
/// memtable's buffers in place and the deleter edits it; once files
/// exist, the compactor merges them, alternating full and leveled
/// passes, while reads, flushes and deletes go on, and the readers read
/// on through a run of passes after the traffic. So every read must
/// still be sorted, duplicate-free and exactly the model at some moment,
/// moments never going backwards; and once the file is installed, files
/// plus memtables are the model still.
#[test]
fn traffic_during_an_outstanding_flush_reads_the_model() {
    use flush_traffic::*;
    use std::sync::Barrier;

    let engine = Arc::new(StorageEngine::new(EngineConfig {
        // The four base series fill it exactly: the load's last write
        // rotates it, and the writers' fresh points fill it again.
        memtable_max_points: 4 * BASE as usize,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }));
    let keys: Vec<SeriesKey> = (0..4)
        .map(|s| SeriesKey::new("root.sg.d1", format!("s{s}")))
        .collect();
    let batch_of = |ts: &mut dyn Iterator<Item = i64>| {
        PointBatch::from_rows(ts.map(|t| (t, TsValue::Long(t)))).expect("typed points")
    };
    let mut job = None;
    for (s, key) in keys.iter().enumerate() {
        let rotated = engine
            .write_batch_nonblocking(key, &batch_of(&mut base_arrivals(s).into_iter()))
            .expect("matching type");
        job = job.or(rotated);
    }
    let job = job.expect("the fourth series fills the memtable");
    assert_eq!(engine.buffered_points(), (0, 0));
    assert_eq!(engine.file_count(), 0, "the flush is outstanding");

    const READERS: usize = 2;
    // Writers, deleter and readers meet here, then the main thread once
    // each has done the first half of its work with the flush
    // outstanding; the second halves race `complete_flush`.
    let half_way = Barrier::new(2 + 1 + READERS + 1);
    let stop = AtomicBool::new(false);
    let anomalies = std::sync::Mutex::new(Vec::<String>::new());
    // Reader passes, and compaction passes that merged a run.
    let (reads, merges) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        let mut actors = Vec::new();
        for key in keys.iter().take(2) {
            let (engine, half_way, batch_of) = (&engine, &half_way, &batch_of);
            actors.push(scope.spawn(move || {
                for b in 0..ADDED / BATCH {
                    if b == ADDED / BATCH / 2 {
                        half_way.wait();
                    }
                    let at = b * BATCH..(b + 1) * BATCH;
                    for batch in [
                        batch_of(&mut at.clone().map(late)),
                        batch_of(&mut at.clone().map(fresh)),
                    ] {
                        // Refused while the flush is outstanding; after
                        // it, the memtable the fresh points filled
                        // rotates, and its writer flushes it.
                        if let Some(job) = engine
                            .write_batch_nonblocking(key, &batch)
                            .expect("matching type")
                        {
                            assert!(engine.file_count() >= 1, "the slot was occupied");
                            engine.complete_flush(job);
                        }
                    }
                }
            }));
        }
        {
            let (engine, half_way, key) = (&engine, &half_way, &keys[2]);
            actors.push(scope.spawn(move || {
                for k in 0..DELETES {
                    if k == DELETES / 2 {
                        half_way.wait();
                    }
                    let (lo, hi) = delete_range(k);
                    engine.delete_range(key, lo, hi);
                }
            }));
        }
        {
            let (engine, stop, merges) = (&engine, &stop, &merges);
            scope.spawn(move || {
                // Ends on a full pass begun after the others stopped,
                // so the traffic's last files and tombstones merge too.
                for round in 0.. {
                    let last = stop.load(Ordering::Acquire);
                    let report = if round % 2 == 0 {
                        engine.compact()
                    } else {
                        engine.compact_auto()
                    };
                    merges.fetch_add(u64::from(report.points > 0), Ordering::Relaxed);
                    if last && round % 2 == 0 {
                        break;
                    }
                }
            });
        }
        for _ in 0..READERS {
            let (engine, half_way, keys) = (&engine, &half_way, &keys);
            let (stop, anomalies, reads) = (&stop, &anomalies, &reads);
            scope.spawn(move || {
                let mut seen = [Progress::default(); 4];
                let mut passes = 0;
                while !stop.load(Ordering::Acquire) {
                    for (s, key) in keys.iter().enumerate() {
                        let got = engine.query(key, i64::MIN, i64::MAX);
                        let progress = check(s, &got).and_then(|now| {
                            let before = seen[s];
                            (now.deleted >= before.deleted
                                && now.late >= before.late
                                && now.fresh >= before.fresh)
                                .then_some(now)
                                .ok_or(format!("went back from {before:?} to {now:?}"))
                        });
                        match progress {
                            Ok(now) => seen[s] = now,
                            Err(what) => anomalies
                                .lock()
                                .expect("anomaly list")
                                .push(format!("s{s}: {what}")),
                        }
                    }
                    passes += 1;
                    reads.fetch_add(1, Ordering::Relaxed);
                    if passes == 3 {
                        half_way.wait();
                    }
                }
                assert!(passes >= 3, "a reader never reached the half-way barrier");
            });
        }
        half_way.wait();
        assert_eq!(engine.file_count(), 0, "nothing completed the flush yet");
        engine.complete_flush(job);
        let joined: Vec<_> = actors.into_iter().map(|actor| actor.join()).collect();
        let after_traffic = reads.load(Ordering::Relaxed) + 100;
        while reads.load(Ordering::Relaxed) < after_traffic {
            std::thread::yield_now();
        }
        // Readers and the compactor stop before a panic is reported, so
        // the scope can end.
        stop.store(true, Ordering::Release);
        assert!(
            joined.iter().all(Result::is_ok),
            "a writer or the deleter panicked"
        );
    });
    let anomalies = anomalies.into_inner().expect("anomaly list");
    assert!(anomalies.is_empty(), "{anomalies:#?}");
    assert!(merges.into_inner() > 0, "the compactor never merged");

    let done = |s: usize| Progress {
        deleted: if s == 2 { DELETES } else { 0 },
        late: if s < 2 { ADDED } else { 0 },
        fresh: if s < 2 { ADDED } else { 0 },
    };
    assert!(engine.file_count() >= 1);
    for (s, key) in keys.iter().enumerate() {
        let got = engine.query(key, i64::MIN, i64::MAX);
        assert_eq!(check(s, &got), Ok(done(s)), "s{s}, file plus memtables");
    }
    engine.flush();
    engine.flush_unseq();
    assert_eq!(engine.buffered_points(), (0, 0));
    for (s, key) in keys.iter().enumerate() {
        let got = engine.query(key, i64::MIN, i64::MAX);
        assert_eq!(check(s, &got), Ok(done(s)), "s{s}, files alone");
    }
}
