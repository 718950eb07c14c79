//! IoT ingestion end-to-end: out-of-order sensor streams flow into the
//! mini-IoTDB engine, memtables rotate and flush through Backward-Sort,
//! and time-range queries read back sorted data — including a straggler
//! routed through the separation policy.
//!
//! Run with: `cargo run --release --example iot_ingestion`

use backward_sort_repro::core::{Algorithm, BackwardSort};
use backward_sort_repro::engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backward_sort_repro::obs::names;
use backward_sort_repro::workload::{generate_pairs, DelayModel, SignalKind, StreamSpec};

fn main() {
    let engine = StorageEngine::new(EngineConfig {
        memtable_max_points: 50_000,
        array_size: 32,
        sorter: Algorithm::Backward(BackwardSort::default()),
        shards: 1,
        ..EngineConfig::default()
    });

    // Three turbine sensors with different delay behaviour.
    let sensors = [
        (
            "speed",
            DelayModel::AbsNormal {
                mu: 0.5,
                sigma: 1.0,
            },
        ),
        (
            "vibration",
            DelayModel::LogNormal {
                mu: 0.0,
                sigma: 1.0,
            },
        ),
        ("temperature", DelayModel::None),
    ];

    for (name, delay) in sensors {
        let key = SeriesKey::new("root.turbines.t1", name);
        let spec = StreamSpec {
            n: 60_000,
            interval: 1,
            delay,
            signal: SignalKind::Sine {
                period: 600.0,
                amp: 50.0,
                noise: 0.5,
            },
            seed: 9,
        };
        // IoTDB-benchmark-style batches of 1,000 arrivals; a memtable
        // that fills rotates, and is flushed before the next batch.
        for chunk in generate_pairs(&spec).chunks(1_000) {
            let rows = chunk.iter().map(|&(t, v)| (t, TsValue::Double(v)));
            let batch = PointBatch::from_rows(rows).expect("DOUBLE");
            if let Some(job) = engine
                .write_batch_nonblocking(&key, &batch)
                .expect("DOUBLE")
            {
                engine.complete_flush(job);
            }
        }
    }

    let (working, unseq) = engine.buffered_points();
    println!("after ingestion:");
    println!("  flushed files     : {}", engine.file_count());
    println!("  working memtable  : {working} points");
    println!("  unsequence buffer : {unseq} points");

    // A very late straggler: timestamped before the flush watermark, so
    // the separation policy sends it to the unsequence memtable instead
    // of polluting the in-memory sort. That memtable rotates and flushes
    // like the working one, at the same bound; one point does not fill it.
    let key = SeriesKey::new("root.turbines.t1", "speed");
    let straggler = PointBatch::from_rows([(10, TsValue::Double(-999.0))]).expect("DOUBLE");
    let job = engine
        .write_batch_nonblocking(&key, &straggler)
        .expect("DOUBLE");
    assert!(job.is_none(), "a straggler below the bound does not rotate");
    let (_, unseq_after) = engine.buffered_points();
    println!("  after straggler   : unsequence holds {unseq_after} points");

    // Query the most recent window (memtable-only, as the paper does).
    let latest = engine.latest_time(&key).expect("sensor exists");
    let window = engine.query(&key, latest - 20, latest);
    println!("\nlast 21 speed points (sorted on demand):");
    for (t, v) in &window {
        println!("  t={t:>6}  v={:+.2}", v.as_f64());
    }
    assert!(window.windows(2).all(|w| w[0].0 < w[1].0));

    // And a range that reaches flushed data + the straggler override.
    let deep = engine.query(&key, 5, 15);
    println!("\nt ∈ [5, 15] (disk + unsequence merged):");
    for (t, v) in &deep {
        println!("  t={t:>6}  v={:+.2}", v.as_f64());
    }
    assert!(
        deep.iter().any(|(t, v)| *t == 10 && v.as_f64() == -999.0),
        "the unsequence straggler must win at t=10"
    );

    let flushed = engine.obs().snapshot();
    let flushes = flushed.counter(names::FLUSH_COUNT);
    let flush_nanos: u64 = [
        names::FLUSH_SORT_NANOS,
        names::FLUSH_ENCODE_NANOS,
        names::FLUSH_WRITE_NANOS,
    ]
    .into_iter()
    .map(|name| flushed.counter(name))
    .sum();
    let avg_ms = flush_nanos as f64 / flushes.max(1) as f64 / 1e6;
    println!("\n{flushes} flushes, avg {avg_ms:.2} ms each");
}
