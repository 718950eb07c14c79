//! Storage maintenance lifecycle: asynchronous flushing off the write
//! path, range deletion via tombstones, and compaction merging the
//! overlapping sequence/unsequence files back into one while a reader
//! keeps querying.
//!
//! Run with: `cargo run --release --example maintenance`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{
    Aggregation, EngineConfig, FlushPool, PointBatch, SeriesKey, StorageEngine, TsValue,
};
use backward_sort_repro::obs::names;

fn main() {
    let engine = Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: 20_000,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }));
    let key = SeriesKey::new("root.plant.press3", "pressure");

    // --- Ingest with a background flush pool (IoTDB's async flush). ----
    let pool = FlushPool::start(Arc::clone(&engine), 1, Duration::ZERO);
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
            // Sorting/encoding happens off-thread.
            pool.submit(job);
        }
    }
    // Stopping the pool installs every job it was handed, so the count
    // below is final.
    pool.stop();
    let async_flushes = engine.obs().counter_value(names::FLUSH_COUNT);
    // Stragglers arriving below the watermark take the unsequence path.
    for t in [100i64, 5_000, 9_999] {
        let point = PointBatch::from_rows([(t, TsValue::Double(-1.0))]).expect("one typed point");
        let job = engine
            .write_batch_nonblocking(&key, &point)
            .expect("matching type");
        assert!(job.is_none(), "a straggler below the bound does not rotate");
    }
    engine.flush();
    engine.flush_unseq();
    assert!(async_flushes >= 1, "the pool flushed a rotated memtable");
    println!("async flushes completed : {async_flushes}");
    println!("files on disk           : {}", engine.file_count());

    // --- Range deletion: drop a corrupted sensor window. ---------------
    let removed = engine.delete_range(&key, 30_000, 34_999);
    println!(
        "delete [30000,35000)    : {removed} in-memory points removed, {} tombstone(s)",
        engine.tombstone_count()
    );
    let count = engine.aggregate(&key, 29_000, 36_000, Aggregation::Count);
    println!("count around the hole   : {count:?}");

    // --- Compaction merges files and applies tombstones physically, ---
    // --- while a reader goes on querying. ------------------------------
    let before = engine.query(&key, 0, 100_000);
    let compacting = AtomicBool::new(true);
    let (report, reads) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reads = 0u64;
            loop {
                let done = !compacting.load(Ordering::Acquire);
                let got = engine.query(&key, 0, 100_000);
                assert_eq!(got, before, "a read during compaction saw all the data");
                reads += 1;
                if done {
                    return reads;
                }
            }
        });
        let report = engine.compact();
        compacting.store(false, Ordering::Release);
        (report, reader.join().expect("the reader's reads matched"))
    });
    println!(
        "compaction              : {} files -> {}, {} pts, {} -> {} bytes",
        report.files_in, report.files_out, report.points, report.bytes_in, report.bytes_out
    );
    println!("reads beside it         : {reads}, each the full pre-compaction result");
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
