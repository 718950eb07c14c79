//! Durable storage: the WAL-backed engine survives a crash without losing
//! a single point — including out-of-order stragglers that were still in
//! the unsequence memtable — and a reopen at another shard count, which
//! splits each file between the shards its devices now hash to.
//!
//! Run with: `cargo run --release --example durable_storage`

use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{AggValue, Aggregation};
use backward_sort_repro::engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("backsort-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig {
        memtable_max_points: 5_000,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    };
    let key = SeriesKey::new("root.plant.turbine7", "rpm");
    // Shard 1 of 4; turbine7 is shard 0's.
    let other = SeriesKey::new("root.plant.turbine8", "rpm");

    // --- Session 1: ingest, then "crash" (drop without flushing). ------
    {
        let engine = StorageEngine::open(&dir, config)?;
        let mut x = 42u64;
        for lo in (0..12_000i64).step_by(500) {
            // Delay-only arrivals; colliding timestamps overwrite
            // (last-write-wins), so distinct-t count lands near
            // 12000·(1 − (5/6)⁶) ≈ 8000. One WAL frame a batch.
            let batch = PointBatch::from_rows((lo..lo + 500).map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let t = i + (x % 6) as i64;
                (t, TsValue::Double(1500.0 + (t % 97) as f64))
            }))?;
            engine.write_batch(&key, &batch)?;
        }
        let rows = (0..2_000i64).map(|t| (t, TsValue::Double(t as f64)));
        engine.write_batch(&other, &PointBatch::from_rows(rows)?)?;
        // A long-delayed straggler lands below the flush watermark.
        engine.write_batch(&key, &PointBatch::from_rows([(3, TsValue::Double(-1.0))])?)?;
        engine.sync()?;
        let (working, unseq) = engine.buffered_points();
        println!(
            "session 1: {} files on disk, {working} pts in working, {unseq} in unsequence",
            std::fs::read_dir(&dir)?.count()
        );
        // ... process exits here without a clean flush.
    }

    // --- Session 2: recovery replays the WAL. --------------------------
    let recovered = {
        let engine = StorageEngine::open(&dir, config)?;
        let all = engine.query(&key, i64::MIN, i64::MAX);
        println!("session 2: recovered {} distinct timestamps", all.len());
        assert!(
            all.windows(2).all(|w| w[0].0 < w[1].0),
            "recovered data is sorted"
        );
        assert!(
            all.iter()
                .any(|(t, v)| *t == 3 && *v == TsValue::Double(-1.0)),
            "the straggler survived the crash"
        );

        // Aggregations work straight off the recovered state.
        let count = engine.aggregate(&key, 0, 20_000, Aggregation::Count);
        let avg = engine.aggregate(&key, 0, 20_000, Aggregation::Avg);
        println!("count = {count:?}, avg = {avg:?}");
        assert!(matches!(count, AggValue::Number(n) if n > 7_500.0));
        assert_eq!(engine.query(&other, i64::MIN, i64::MAX).len(), 2_000);
        [&key, &other].map(|k| engine.query(k, i64::MIN, i64::MAX))
    };

    // --- Session 3: the same directory at four shards. -----------------
    {
        let config = EngineConfig {
            shards: 4,
            ..config
        };
        let engine = StorageEngine::open(&dir, config)?;
        for shard in 0..engine.shard_count() {
            let files = engine.shard_files(shard);
            let devices = files
                .iter()
                .flat_map(|f| f.envelopes().iter().map(|(k, ..)| k));
            assert!(
                devices
                    .into_iter()
                    .all(|k| engine.shard_of(&k.device) == shard),
                "every file holds its own shard's devices"
            );
            println!("session 3: shard {shard}, files: {}", files.len());
        }
        let rows = [&key, &other].map(|k| engine.query(k, i64::MIN, i64::MAX));
        assert_eq!(rows, recovered, "four shards read what one did");
    }

    std::fs::remove_dir_all(&dir)?;
    println!("done — crash-recovery round trip verified");
    Ok(())
}
