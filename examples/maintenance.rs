//! Storage maintenance lifecycle: asynchronous flushing off the write
//! path, range deletion via tombstones, and compaction merging the
//! overlapping sequence/unsequence files back into one.
//!
//! Run with: `cargo run --release --example maintenance`

use std::sync::Arc;

use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{
    Aggregation, AsyncFlusher, EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue,
};

fn main() {
    let engine = Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: 20_000,
        array_size: 32,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }));
    let key = SeriesKey::new("root.plant.press3", "pressure");

    // --- Ingest with a background flusher (IoTDB's async flush). -------
    let flusher = AsyncFlusher::new(Arc::clone(&engine));
    let mut x = 31u64;
    for i in 0..80_000i64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let t = i + (x % 4) as i64;
        let point = PointBatch::from_rows(vec![(t, TsValue::Double((t % 211) as f64))])
            .expect("one typed point");
        if let Some(job) = engine
            .write_batch_nonblocking(&key, &point)
            .expect("matching type")
        {
            // Sorting/encoding happens off-thread; a closed pool hands the
            // job back, so finish it inline instead of losing data.
            if let Err(closed) = flusher.submit(job) {
                engine.complete_flush(closed.0);
            }
        }
    }
    // Stragglers arriving below the watermark take the unsequence path.
    for t in [100i64, 5_000, 9_999] {
        engine.write(&key, t, TsValue::Double(-1.0));
    }
    let completed = flusher.shutdown();
    engine.flush();
    engine.flush_unseq();
    println!("async flushes completed : {completed}");
    println!("files on disk           : {}", engine.file_count());

    // --- Range deletion: drop a corrupted sensor window. ---------------
    let removed = engine.delete_range(&key, 30_000, 34_999);
    println!(
        "delete [30000,35000)    : {removed} in-memory points removed, {} tombstone(s)",
        engine.tombstone_count()
    );
    let count = engine.aggregate(&key, 29_000, 36_000, Aggregation::Count);
    println!("count around the hole   : {count:?}");

    // --- Compaction merges files and applies tombstones physically. ----
    let before = engine.query(&key, 0, 100_000);
    let report = engine.compact();
    println!(
        "compaction              : {} files -> {}, {} pts, {} -> {} bytes",
        report.files_in, report.files_out, report.points, report.bytes_in, report.bytes_out
    );
    assert_eq!(engine.tombstone_count(), 0);
    let after = engine.query(&key, 0, 100_000);
    assert_eq!(before, after, "compaction must not change query results");
    assert!(after.iter().all(|(t, _)| !(30_000..35_000).contains(t)));
    assert!(
        after.iter().any(|(t, v)| *t == 100 && v.as_f64() == -1.0),
        "unsequence override survived the whole lifecycle"
    );

    // Windowed analytics over the maintained store.
    let buckets = engine.group_by_time(&key, 0, 79_999, 20_000, Aggregation::Count);
    println!("\npoints per 20k-window   :");
    for (start, v) in buckets {
        println!("  [{start:>6}, {:>6})  {v:?}", start + 20_000);
    }
    println!("\ndone — maintenance lifecycle verified");
}
