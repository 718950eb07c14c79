//! Acceptance tests for the read-path overhaul: queries on sorted data
//! stay on the shard *read* lock (concurrent readers overlap), file
//! footers are parsed once per install and never per query, and the
//! streaming merge and `latest_value` paths agree with each other.

use std::sync::Barrier;

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backsort_obs::names;

fn engine(memtable_max_points: usize, shards: usize) -> StorageEngine {
    StorageEngine::new(EngineConfig {
        memtable_max_points,
        sorter: Algorithm::Backward(Default::default()),
        shards,
        ..EngineConfig::default()
    })
}

fn key(s: &str) -> SeriesKey {
    SeriesKey::new("root.sg.d1", "s".to_string() + s)
}

/// Writes `rows` as one batch, completing the rotation it causes inline.
fn put(eng: &StorageEngine, key: &SeriesKey, rows: impl IntoIterator<Item = (i64, TsValue)>) {
    let batch = PointBatch::from_rows(rows).expect("one type");
    if let Some(job) = eng.write_batch_nonblocking(key, &batch).unwrap() {
        eng.complete_flush(job);
    }
}

/// `t ↦ t` INT64 rows.
fn longs(ts: impl IntoIterator<Item = i64>) -> impl Iterator<Item = (i64, TsValue)> {
    ts.into_iter().map(|t| (t, TsValue::Long(t)))
}

/// `(query.read_path, query.sorted_on_read)` so far.
fn query_paths(eng: &StorageEngine) -> (u64, u64) {
    let snap = eng.obs().snapshot();
    (
        snap.counter(names::QUERY_READ_PATH),
        snap.counter(names::QUERY_SORTED_ON_READ),
    )
}

#[test]
fn sorted_data_queries_never_take_the_write_path() {
    let eng = engine(100, 1);
    // In-order appends keep every buffer sorted; half the data flushes.
    put(&eng, &key("a"), longs(0..150));
    assert_eq!(query_paths(&eng).1, 0, "writes only");

    // Many concurrent readers of the *same* shard: with the data
    // sorted, every one of them must be served under the read lock.
    const THREADS: usize = 8;
    const QUERIES: usize = 50;
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                barrier.wait();
                for i in 0..QUERIES as i64 {
                    let got = eng.query(&key("a"), i, i + 30);
                    assert!(!got.is_empty());
                    assert_eq!(eng.latest_time(&key("a")), Some(149));
                }
            });
        }
    });
    let (read_lock, sorted_on_read) = query_paths(&eng);
    assert_eq!(
        sorted_on_read, 0,
        "already-sorted data must never need the shard write lock"
    );
    assert_eq!(read_lock, (THREADS * QUERIES) as u64);
}

#[test]
fn unsorted_buffer_sorts_once_then_reads_stay_shared() {
    let eng = engine(1_000, 1);
    put(&eng, &key("a"), longs([5, 1, 3, 2, 4]));
    // First query finds the working buffer unsorted: write path, once.
    assert_eq!(eng.query(&key("a"), 0, 10).len(), 5);
    assert_eq!(query_paths(&eng), (0, 1));

    // The sort persisted: every further query reads under the read lock.
    for _ in 0..10 {
        assert_eq!(eng.query(&key("a"), 0, 10).len(), 5);
    }
    assert_eq!(query_paths(&eng), (10, 1));

    // A new out-of-order write dirties the buffer again — exactly one
    // more sorted-on-read upgrade.
    put(&eng, &key("a"), longs([0]));
    eng.query(&key("a"), 0, 10);
    eng.query(&key("a"), 0, 10);
    assert_eq!(query_paths(&eng), (11, 2));
}

#[test]
fn file_indexes_parse_once_per_install_not_per_query() {
    let eng = engine(50, 1);
    for lo in (0..175i64).step_by(25) {
        put(&eng, &key("a"), longs(lo..lo + 25)); // 3 natural rotations
    }
    eng.flush();
    assert_eq!(eng.file_count(), 4);

    // Adoption parses once and reuses the handle for every shard copy.
    let image = {
        let donor = engine(1_000, 1);
        put(&donor, &key("a"), longs(200..220));
        donor.flush();
        donor.shard_files(0)[0].image().to_vec()
    };
    eng.adopt_file(image).expect("valid image");

    let parses = || eng.obs().snapshot().counter(names::FILE_PARSE);
    assert_eq!(
        parses(),
        5,
        "one parse per install: four flushes, one adoption"
    );
    for round in 0..100i64 {
        assert!(!eng.query(&key("a"), round, round + 40).is_empty());
        eng.latest_value(&key("a")).expect("data exists");
    }
    assert_eq!(
        parses(),
        5,
        "queries must reuse the cached chunk indexes, never re-parse"
    );
}

#[test]
fn latest_value_tracks_overrides_and_deletes() {
    let eng = engine(50, 1);
    assert_eq!(eng.latest_value(&key("a")), None);

    put(&eng, &key("a"), longs(0..50)); // flushed at 50
    assert_eq!(eng.latest_value(&key("a")), Some((49, TsValue::Long(49))));

    // An unsequence rewrite of the freshest timestamp wins over disk.
    put(&eng, &key("a"), [(49, TsValue::Long(-49))]);
    assert_eq!(eng.latest_value(&key("a")), Some((49, TsValue::Long(-49))));

    // Newer working-memtable data takes over.
    put(&eng, &key("a"), longs([60]));
    assert_eq!(eng.latest_value(&key("a")), Some((60, TsValue::Long(60))));

    // Deleting the top forces the fallback to older (flushed) points.
    eng.delete_range(&key("a"), 45, 100).unwrap();
    assert_eq!(eng.latest_value(&key("a")), Some((44, TsValue::Long(44))));

    // Deleting everything leaves nothing.
    eng.delete_range(&key("a"), i64::MIN, i64::MAX).unwrap();
    assert_eq!(eng.latest_value(&key("a")), None);
}

#[test]
fn latest_value_agrees_with_full_query() {
    let eng = engine(40, 2);
    let ka = SeriesKey::new("root.sg.d0", "s");
    let kb = SeriesKey::new("root.sg.d1", "s");
    let mut x = 7u64;
    for i in 0..400i64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = if x.is_multiple_of(2) { &ka } else { &kb };
        put(&eng, k, [(i + (x % 5) as i64, TsValue::Long(i))]);
        if i % 97 == 0 {
            eng.delete_range(k, i - 20, i - 10).unwrap();
        }
    }
    for k in [&ka, &kb] {
        let full = eng.query(k, i64::MIN, i64::MAX);
        assert_eq!(eng.latest_value(k), full.last().cloned(), "{k:?}");
    }
}
