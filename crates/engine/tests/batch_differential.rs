//! Differential property test for the columnar ingest path: a batched
//! write stream must be *observationally identical* to the same stream
//! written one point a batch — same query results, same flushed file
//! images, same Δτ disorder histogram, same buffered counts — across
//! randomized write/delete/flush interleavings, at one shard and four.
//!
//! This is the safety net of `StorageEngine::write_batch_nonblocking`,
//! the engine's one write: it splits a batch into seq/unseq column runs
//! and bulk-appends them, and any divergence from the one-point
//! reference (a mis-split run, a stale watermark after a mid-batch
//! rotation, a Δτ recorded against the wrong running max) shows up here
//! as a minimized counterexample. Both sides complete every returned
//! job at once. Batches stay shorter than the memtable, so one memtable
//! cannot need a second rotation inside one batch. Both memtables can: a
//! batch that fills the working memtable and then the unsequence one
//! rotates once (a write call rotates at most once), where the one-point
//! reference rotates twice. Reads agree regardless; residency — buffered
//! counts, file images and the Δτ accounting — is compared when no
//! batch needed two.

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backsort_obs::names;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// One columnar batch for key `k` (the reference writes it one
    /// point a batch).
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
        // Small enough that batches straddle rotations and create
        // watermarks (hence unseq routing) mid-run; larger than any
        // batch.
        memtable_max_points: 48,
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

/// Writes `rows` as one batch, completing the rotation it causes inline.
/// Returns whether it rotated.
fn put(engine: &StorageEngine, key: &SeriesKey, rows: &[(i64, i64)]) -> bool {
    let batch = PointBatch::from_rows(rows.iter().map(|&(t, v)| (t, TsValue::Long(v))))
        .expect("uniform Long rows");
    let job = engine
        .write_batch_nonblocking(key, &batch)
        .expect("uniform Long batch");
    job.map(|job| engine.complete_flush(job)).is_some()
}

/// Applies the op stream to a fresh engine, each [`Op::Batch`] written
/// whole when `batched`, one point a batch otherwise. Also returns
/// whether a batch written point by point rotated twice.
fn run(ops: &[Op], shards: usize, batched: bool) -> (StorageEngine, bool) {
    let engine = StorageEngine::new(config(shards));
    let keys = keys();
    let mut rotated_twice = false;
    for op in ops {
        match op {
            Op::Batch { k, rows } if batched => {
                put(&engine, &keys[*k], rows);
            }
            Op::Batch { k, rows } => {
                let mut rotations = 0;
                for row in rows {
                    rotations += usize::from(put(&engine, &keys[*k], std::slice::from_ref(row)));
                }
                rotated_twice |= rotations > 1;
            }
            Op::Write { k, t, v } => {
                put(&engine, &keys[*k], &[(*t, *v)]);
            }
            Op::Delete { k, lo, len } => {
                engine.delete_range(&keys[*k], *lo, lo + len).unwrap();
            }
            Op::Flush => {
                engine.flush();
            }
        }
    }
    (engine, rotated_twice)
}

fn assert_identical(
    a: &StorageEngine,
    b: &StorageEngine,
    shards: usize,
    residency: bool,
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
    let (snap_a, snap_b) = (a.obs().snapshot(), b.obs().snapshot());
    prop_assert_eq!(
        snap_a.counter(names::ENGINE_WRITE_POINTS),
        snap_b.counter(names::ENGINE_WRITE_POINTS)
    );
    if !residency {
        return Ok(());
    }
    // Same residency: identical buffered counts and flushed images.
    prop_assert_eq!(a.buffered_points(), b.buffered_points());
    for shard in 0..shards {
        let (files_a, files_b) = (a.shard_files(shard), b.shard_files(shard));
        let ids_a: Vec<u64> = files_a.iter().map(|f| f.id()).collect();
        let ids_b: Vec<u64> = files_b.iter().map(|f| f.id()).collect();
        prop_assert_eq!(&ids_a, &ids_b, "file ids diverged in shard {}", shard);
        for (fa, fb) in files_a.iter().zip(&files_b) {
            prop_assert_eq!(
                fa.image(),
                fb.image(),
                "file image {} diverged in shard {}",
                fa.id(),
                shard
            );
        }
    }
    // Same disorder accounting: the Δτ histogram must record the same
    // multiset of deltas whether they were measured per point or per
    // column run (each against its memtable's running maximum, so this
    // too depends on where rotations fell).
    let da = snap_a.histogram(names::MEMTABLE_DELTA_TAU);
    let db = snap_b.histogram(names::MEMTABLE_DELTA_TAU);
    prop_assert_eq!(da.map(|h| h.count), db.map(|h| h.count), "delta_tau count");
    prop_assert_eq!(da.map(|h| h.max), db.map(|h| h.max), "delta_tau max");
    prop_assert_eq!(
        da.map(|h| h.percentile(0.5)),
        db.map(|h| h.percentile(0.5)),
        "delta_tau p50"
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
            let (reference, rotated_twice) = run(&ops, shards, false);
            let (batched, _) = run(&ops, shards, true);
            assert_identical(&reference, &batched, shards, !rotated_twice)?;
        }
    }
}
