//! Differential property test for leveled compaction: an engine whose
//! files are repeatedly folded by `compact_auto` must stay
//! *observationally identical* to a reference engine that never
//! compacts — same last-write-wins query results, same latest-value
//! answers, same tombstone masking, and the same
//! `sum`/`avg`/`min`/`max`/`count` bit for bit — across randomized
//! interleavings of writes, range deletes, flushes and leveled passes,
//! at one shard and four.
//!
//! The values are DOUBLEs spread over 2^±120 with full mantissas, so a
//! sum that depended on how points are grouped into pages — which is
//! exactly what compaction changes, and what page-header sums are taken
//! over — would round differently after a pass. The exactly rounded sum
//! is what makes the answer independent of the layout.
//!
//! This is the leveling tentpole's safety net: `pick_run` may fold any
//! eligible run (L0 suffix or an over-full higher level, trimmed by
//! device overlap), `merge_run` applies each tombstone physically to
//! the inputs stamped below it, the output is stamped at the snapshot,
//! and the swap drops the tombstones left masking nothing — any slip in
//! that surgery (a mask over the wrong file, a dropped in-flight mask,
//! an LWW inversion inside the merged image) shows up here as a
//! minimized counterexample.

use backsort_core::{Algorithm, BackwardSort, InBlockSort};
use backsort_engine::{
    AggValue, Aggregation, CompactionConfig, EngineConfig, PointBatch, SeriesKey, StorageEngine,
    TsValue,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Write {
        k: usize,
        t: i64,
        v: i64,
    },
    Delete {
        k: usize,
        lo: i64,
        len: i64,
    },
    /// Flush the dirty working memtables (grows the L0 suffix).
    Flush,
    /// Flush the unsequence buffers (grows L0 with narrow files).
    FlushUnseq,
    /// One leveled pass on the subject engine only.
    CompactAuto,
}

fn write_op() -> impl Strategy<Value = Op> {
    (0usize..4, 0i64..1_500, -500i64..500).prop_map(|(k, t, v)| Op::Write { k, t, v })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The union samples uniformly; repeated arms weight the stream
    // toward writes (so files fill) and leveled passes (the path under
    // test).
    prop_oneof![
        write_op(),
        write_op(),
        write_op(),
        write_op(),
        write_op(),
        write_op(),
        (0usize..4, 0i64..1_500, 0i64..200).prop_map(|(k, lo, len)| Op::Delete { k, lo, len }),
        (0usize..4, 0i64..1_500, 0i64..200).prop_map(|(k, lo, len)| Op::Delete { k, lo, len }),
        (0usize..1).prop_map(|_| Op::Flush),
        (0usize..1).prop_map(|_| Op::Flush),
        (0usize..1).prop_map(|_| Op::FlushUnseq),
        (0usize..1).prop_map(|_| Op::CompactAuto),
        (0usize..1).prop_map(|_| Op::CompactAuto),
    ]
}

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        // Small memtables so the stream flushes often, and a
        // hair-trigger leveling policy so nearly every CompactAuto op
        // finds an eligible run to fold or promote.
        memtable_max_points: 32,
        sorter: Algorithm::Backward(BackwardSort {
            in_block: InBlockSort::Stable,
            ..Default::default()
        }),
        shards,
        compaction: CompactionConfig {
            l0_trigger: 2,
            level_base_bytes: 1 << 10,
            growth: 2,
        },
        ..EngineConfig::default()
    }
}

/// The value written at `t`: a full mantissa at one of seven scales.
fn value(t: i64, v: i64) -> TsValue {
    TsValue::Double(v as f64 / 7.0 * 2f64.powi((t % 7) as i32 * 40 - 120))
}

const AGGREGATIONS: [Aggregation; 5] = [
    Aggregation::Sum,
    Aggregation::Avg,
    Aggregation::MinValue,
    Aggregation::MaxValue,
    Aggregation::Count,
];

/// Equality that tells `-0.0` from `0.0`.
fn bits(v: &AggValue) -> (u8, u64) {
    match v {
        AggValue::Empty => (0, 0),
        AggValue::Number(x) => (1, x.to_bits()),
        AggValue::Time(t) => (2, *t as u64),
    }
}

fn keys() -> Vec<SeriesKey> {
    (0..4)
        .map(|i| SeriesKey::new(format!("root.sg.d{i}"), "s"))
        .collect()
}

fn assert_agree(
    reference: &StorageEngine,
    subject: &StorageEngine,
    shards: usize,
    when: &str,
) -> Result<(), TestCaseError> {
    for key in keys() {
        for (lo, hi) in [(i64::MIN, i64::MAX), (0, 700), (600, 1_501), (1_490, 1_600)] {
            prop_assert_eq!(
                subject.query(&key, lo, hi),
                reference.query(&key, lo, hi),
                "query({}, {}, {}) diverged {} at shards={}",
                key,
                lo,
                hi,
                when,
                shards
            );
            for agg in AGGREGATIONS {
                let (got, want) = (
                    subject.aggregate(&key, lo, hi, agg),
                    reference.aggregate(&key, lo, hi, agg),
                );
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{:?}({}, {}, {}) = {:?}, {:?} uncompacted, {} at shards={}",
                    agg,
                    key,
                    lo,
                    hi,
                    got,
                    want,
                    when,
                    shards
                );
            }
        }
        prop_assert_eq!(
            subject.latest_value(&key),
            reference.latest_value(&key),
            "latest_value({}) diverged {} at shards={}",
            key,
            when,
            shards
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn leveled_compaction_is_observationally_invisible(
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        for shards in [1usize, 4] {
            let reference = StorageEngine::new(config(shards));
            let subject = StorageEngine::new(config(shards));
            let keys = keys();
            for op in &ops {
                match op {
                    Op::Write { k, t, v } => {
                        let point = PointBatch::from_rows([(*t, value(*t, *v))]).expect("one point");
                        for eng in [&reference, &subject] {
                            if let Some(job) = eng.write_batch_nonblocking(&keys[*k], &point).expect("DOUBLE") {
                                eng.complete_flush(job);
                            }
                        }
                    }
                    Op::Delete { k, lo, len } => {
                        reference.delete_range(&keys[*k], *lo, lo + len).unwrap();
                        subject.delete_range(&keys[*k], *lo, lo + len).unwrap();
                    }
                    Op::Flush => {
                        reference.flush();
                        subject.flush();
                    }
                    Op::FlushUnseq => {
                        reference.flush_unseq();
                        subject.flush_unseq();
                    }
                    Op::CompactAuto => {
                        subject.compact_auto();
                        // Leveling is pure file-set surgery: checking
                        // right after each pass pins the tombstones'
                        // masks over the new file list before later ops
                        // can blur the comparison.
                        assert_agree(&reference, &subject, shards, "after a pass")?;
                    }
                }
            }
            // Drain the ladder completely, then compare once more: the
            // fully folded shape (including promotes of device-disjoint
            // files) must still answer every query identically.
            for _ in 0..6 {
                if subject.compact_auto().level_moves == 0 {
                    break;
                }
            }
            assert_agree(&reference, &subject, shards, "after draining")?;
            // Level shape sanity on the subject: unique file ids and a
            // non-increasing level sequence per shard.
            for shard in 0..shards {
                let meta: Vec<(u64, u32)> = subject
                    .shard_files(shard)
                    .iter()
                    .map(|f| (f.id(), f.level()))
                    .collect();
                let mut ids: Vec<u64> = meta.iter().map(|&(id, _)| id).collect();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), meta.len(), "duplicate file id in shard {}", shard);
                prop_assert!(
                    meta.windows(2).all(|w| w[0].1 >= w[1].1),
                    "levels increase oldest→newest in shard {}: {:?}",
                    shard,
                    meta
                );
            }
        }
    }
}
