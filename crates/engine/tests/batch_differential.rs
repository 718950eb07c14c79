//! Differential property test for the columnar ingest path: a batched
//! write stream must be *observationally identical* to the same stream
//! applied point-at-a-time — same query results, same flushed file
//! images, same Δτ disorder histogram, same buffered counts — across
//! randomized write/delete/flush interleavings, at one shard and four.
//!
//! This is the tentpole's safety net: `StorageEngine::write_batch`
//! splits a batch into seq/unseq column runs and bulk-appends them, and
//! any divergence from the per-point reference path (a mis-split run, a
//! stale watermark after a mid-batch flush, a Δτ recorded against the
//! wrong running max) shows up here as a minimized counterexample. The
//! same holds for `write_batch_nonblocking` with every returned job
//! completed at once: rotate-then-install must leave exactly what the
//! inline flush leaves.

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backsort_obs::names;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// One columnar batch for key `k` (reference engine applies it
    /// point-at-a-time).
    Batch { k: usize, rows: Vec<(i64, i64)> },
    /// A single point write (both engines apply it identically, so the
    /// interleaving mixes batch and point traffic).
    Write { k: usize, t: i64, v: i64 },
    /// A range delete.
    Delete { k: usize, lo: i64, len: i64 },
    /// An explicit full flush.
    Flush,
}

fn batch_op() -> impl Strategy<Value = Op> {
    (
        0usize..3,
        prop::collection::vec((0i64..2_000, -500i64..500), 1..40),
    )
        .prop_map(|(k, rows)| Op::Batch { k, rows })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The union samples uniformly; repeating the batch arm weights the
    // stream toward the path under test.
    prop_oneof![
        batch_op(),
        batch_op(),
        batch_op(),
        batch_op(),
        (0usize..3, 0i64..2_000, -500i64..500).prop_map(|(k, t, v)| Op::Write { k, t, v }),
        (0usize..3, 0i64..2_000, -500i64..500).prop_map(|(k, t, v)| Op::Write { k, t, v }),
        (0usize..3, 0i64..2_000, 0i64..300).prop_map(|(k, lo, len)| Op::Delete { k, lo, len }),
        (0usize..1).prop_map(|_| Op::Flush),
    ]
}

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        // Small enough that batches straddle flush boundaries and create
        // watermarks (hence unseq routing) mid-run.
        memtable_max_points: 48,
        array_size: 16,
        sorter: Algorithm::Backward(Default::default()),
        shards,
        ..EngineConfig::default()
    }
}

fn keys() -> Vec<SeriesKey> {
    (0..3)
        .map(|i| SeriesKey::new(format!("root.sg.d{i}"), "s"))
        .collect()
}

/// How [`run`] applies an [`Op::Batch`].
#[derive(Debug, Clone, Copy)]
enum BatchPath {
    /// Unrolled into point writes — the reference.
    Points,
    /// `write_batch` (inline flush on a full memtable).
    Blocking,
    /// `write_batch_nonblocking`, completing the returned job at once.
    Nonblocking,
}

/// Applies the op stream to a fresh engine, batches going down `path`.
fn run(ops: &[Op], shards: usize, path: BatchPath) -> StorageEngine {
    let engine = StorageEngine::new(config(shards));
    let keys = keys();
    for op in ops {
        match op {
            Op::Batch { k, rows } => {
                let batch = PointBatch::from_rows(rows.iter().map(|&(t, v)| (t, TsValue::Long(v))))
                    .expect("uniform Long rows");
                match path {
                    BatchPath::Points => {
                        for &(t, v) in rows {
                            engine.write(&keys[*k], t, TsValue::Long(v));
                        }
                    }
                    BatchPath::Blocking => {
                        engine
                            .write_batch(&keys[*k], &batch)
                            .expect("uniform Long batch");
                    }
                    BatchPath::Nonblocking => {
                        if let Some(job) = engine
                            .write_batch_nonblocking(&keys[*k], &batch)
                            .expect("uniform Long batch")
                        {
                            engine.complete_flush(job);
                        }
                    }
                }
            }
            Op::Write { k, t, v } => {
                engine.write(&keys[*k], *t, TsValue::Long(*v));
            }
            Op::Delete { k, lo, len } => {
                engine.delete_range(&keys[*k], *lo, lo + len);
            }
            Op::Flush => {
                engine.flush();
            }
        }
    }
    engine
}

fn assert_identical(
    a: &StorageEngine,
    b: &StorageEngine,
    shards: usize,
) -> Result<(), TestCaseError> {
    // Same visible data, point for point.
    for key in keys() {
        prop_assert_eq!(
            a.query(&key, i64::MIN, i64::MAX),
            b.query(&key, i64::MIN, i64::MAX),
            "query diverged for {} at shards={}",
            key,
            shards
        );
    }
    // Same residency: identical buffered counts and flushed images.
    prop_assert_eq!(a.buffered_points(), b.buffered_points());
    for shard in 0..shards {
        let ids_a = a.shard_file_ids(shard);
        let ids_b = b.shard_file_ids(shard);
        prop_assert_eq!(&ids_a, &ids_b, "file ids diverged in shard {}", shard);
        for id in ids_a {
            prop_assert_eq!(
                a.file_image(shard, id),
                b.file_image(shard, id),
                "file image {} diverged in shard {}",
                id,
                shard
            );
        }
    }
    // Same disorder accounting: the Δτ histogram must record the same
    // multiset of deltas whether they were measured per point or per
    // column run.
    let snap_a = a.obs().snapshot();
    let snap_b = b.obs().snapshot();
    let da = snap_a.histogram(names::MEMTABLE_DELTA_TAU);
    let db = snap_b.histogram(names::MEMTABLE_DELTA_TAU);
    prop_assert_eq!(da.map(|h| h.count), db.map(|h| h.count), "delta_tau count");
    prop_assert_eq!(da.map(|h| h.max), db.map(|h| h.max), "delta_tau max");
    prop_assert_eq!(
        da.map(|h| h.percentile(0.5)),
        db.map(|h| h.percentile(0.5)),
        "delta_tau p50"
    );
    prop_assert_eq!(
        snap_a.counter(names::ENGINE_WRITE_POINTS),
        snap_b.counter(names::ENGINE_WRITE_POINTS)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batched_path_is_observationally_identical(
        ops in prop::collection::vec(op_strategy(), 1..30),
    ) {
        for shards in [1usize, 4] {
            let reference = run(&ops, shards, BatchPath::Points);
            for path in [BatchPath::Blocking, BatchPath::Nonblocking] {
                assert_identical(&reference, &run(&ops, shards, path), shards)?;
            }
        }
    }
}
