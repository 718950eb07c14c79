//! End-to-end integration: dataset generation → engine ingestion →
//! flush (sort + encode + TsFile) → query, across every contender and
//! every dataset profile.

use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backward_sort_repro::workload::{Dataset, DatasetKind};

/// Writes `rows` as one batch, completing the rotation it causes inline.
fn put(engine: &StorageEngine, key: &SeriesKey, rows: impl IntoIterator<Item = (i64, TsValue)>) {
    let batch = PointBatch::from_rows(rows).expect("one type");
    if let Some(job) = engine.write_batch_nonblocking(key, &batch).unwrap() {
        engine.complete_flush(job);
    }
}

/// Ingests the dataset in IoTDB-benchmark-sized batches.
fn ingest(engine: &StorageEngine, key: &SeriesKey, ds: &Dataset) {
    for chunk in ds.pairs.chunks(1_000) {
        put(engine, key, chunk.iter().map(|p| (p.0, TsValue::Int(p.1))));
    }
}

#[test]
fn every_contender_agrees_end_to_end() {
    let ds = Dataset::generate(DatasetKind::LogNormal01, 30_000, 11);
    let key = SeriesKey::new("root.sg.d1", "s1");
    let mut reference: Option<Vec<(i64, f64)>> = None;

    for alg in Algorithm::contenders() {
        let engine = StorageEngine::new(EngineConfig {
            memtable_max_points: 8_192,
            sorter: alg,
            shards: 1,
            ..EngineConfig::default()
        });
        ingest(&engine, &key, &ds);
        assert!(engine.file_count() >= 3, "memtables must have rotated");

        // Deep query spanning disk + memtable.
        let got: Vec<(i64, f64)> = engine
            .query(&key, 0, 40_000)
            .into_iter()
            .map(|(t, v)| (t, v.as_f64()))
            .collect();
        // Sorted, deduplicated timestamps.
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        match &reference {
            None => reference = Some(got),
            Some(want) => {
                let gt: Vec<i64> = got.iter().map(|p| p.0).collect();
                let wt: Vec<i64> = want.iter().map(|p| p.0).collect();
                assert_eq!(gt, wt, "timestamp disagreement under {alg:?}");
            }
        }
    }
}

#[test]
fn every_dataset_profile_survives_the_engine() {
    for kind in DatasetKind::ALL {
        let ds = Dataset::generate(kind, 20_000, 5);
        let key = SeriesKey::new("root.sg.d1", "s1");
        let engine = StorageEngine::new(EngineConfig {
            memtable_max_points: 4_096,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        });
        ingest(&engine, &key, &ds);

        // Every distinct generation timestamp must be readable.
        let got = engine.query(&key, i64::MIN, i64::MAX);
        let mut expected: Vec<i64> = ds.pairs.iter().map(|p| p.0).collect();
        expected.sort_unstable();
        expected.dedup();
        let got_times: Vec<i64> = got.iter().map(|p| p.0).collect();
        assert_eq!(got_times, expected, "{}", kind.name());
    }
}

#[test]
fn heavy_straggler_workload_exercises_separation_policy() {
    // CitiBike-like heavy tails force plenty of unsequence traffic once
    // flushes advance the watermark.
    let ds = Dataset::generate(DatasetKind::Citibike201808, 50_000, 9);
    let key = SeriesKey::new("root.sg.d1", "s1");
    let engine = StorageEngine::new(EngineConfig {
        memtable_max_points: 2_048,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    });
    ingest(&engine, &key, &ds);
    let (_, unseq) = engine.buffered_points();
    assert!(
        unseq > 0,
        "heavy tails must route points through unsequence"
    );

    // Queries stay correct regardless.
    let got = engine.query(&key, 1_000, 2_000);
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(!got.is_empty());
}

#[test]
fn multi_sensor_multi_device_isolation() {
    let engine = StorageEngine::new(EngineConfig {
        memtable_max_points: 10_000,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    });
    let keys: Vec<SeriesKey> = (0..3)
        .flat_map(|d| (0..4).map(move |s| SeriesKey::new(format!("root.sg.d{d}"), format!("s{s}"))))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        // Distinct value spaces per sensor.
        let values = (0..500i64).map(|t| (t, TsValue::Long(i as i64 * 10_000 + t)));
        put(&engine, key, values);
    }
    for (i, key) in keys.iter().enumerate() {
        let got = engine.query(key, 100, 110);
        assert_eq!(got.len(), 11, "{key}");
        for (t, v) in got {
            assert_eq!(v, TsValue::Long(i as i64 * 10_000 + t), "{key}");
        }
    }
}
