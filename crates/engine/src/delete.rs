//! Range deletion with tombstones.
//!
//! IoTDB deletes by time range: in-memory points are dropped immediately,
//! while flushed files get a *modification* ("mods") entry consulted at
//! read time and physically applied by the next compaction. Same design
//! here: [`StorageEngine::delete_range`](crate::StorageEngine::delete_range)
//! purges memtables and records a
//! [`Tombstone`]; reads resolve a file's tombstones into one
//! [`IntervalSet`](crate::IntervalSet) and skip what it covers, and
//! [`StorageEngine::compact`](crate::compaction), reading the same way,
//! drops deleted points for good.

use crate::types::SeriesKey;

/// A recorded range deletion awaiting physical application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tombstone {
    /// Affected series.
    pub key: SeriesKey,
    /// Inclusive lower bound.
    pub t_lo: i64,
    /// Inclusive upper bound.
    pub t_hi: i64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, StorageEngine};
    use crate::types::TsValue;
    use backsort_core::Algorithm;

    fn engine(max_points: usize) -> StorageEngine {
        StorageEngine::new(EngineConfig {
            memtable_max_points: max_points,
            sorter: Algorithm::Backward(Default::default()),
            shards: 1,
            ..EngineConfig::default()
        })
    }

    fn key() -> SeriesKey {
        SeriesKey::new("root.sg.d1", "s")
    }

    #[test]
    fn delete_from_memtable_only() {
        let eng = engine(10_000);
        eng.write_points(&key(), (0..100i64).map(|t| (t, TsValue::Long(t))));
        let removed = eng.delete_range(&key(), 20, 29);
        assert_eq!(removed, 10);
        let got = eng.query(&key(), 0, 200);
        assert_eq!(got.len(), 90);
        assert!(got.iter().all(|(t, _)| !(20..30).contains(t)));
    }

    #[test]
    fn delete_covers_flushed_files_via_tombstones() {
        let eng = engine(50);
        eng.write_points(&key(), (0..80i64).map(|t| (t, TsValue::Long(t)))); // one flush at 50
        assert_eq!(eng.file_count(), 1, "0..=49 flushed, 50..=79 in memory");
        let removed = eng.delete_range(&key(), 40, 60);
        // The in-memory half (50..=60) is removed physically...
        assert_eq!(removed, 11);
        // ...and the flushed half (40..=49) is masked by the tombstone.
        let got = eng.query(&key(), 0, 200);
        assert_eq!(got.len(), 80 - 21);
        assert!(got.iter().all(|(t, _)| !(40..=60).contains(t)));
    }

    #[test]
    fn aggregations_respect_deletions() {
        use crate::aggregate::{AggValue, Aggregation};
        let eng = engine(30);
        eng.write_points(&key(), (0..60i64).map(|t| (t, TsValue::Double(1.0))));
        eng.delete_range(&key(), 0, 29);
        assert_eq!(
            eng.aggregate(&key(), 0, 100, Aggregation::Count),
            AggValue::Number(30.0)
        );
    }

    #[test]
    fn compaction_applies_tombstones_physically() {
        let eng = engine(25);
        eng.write_points(&key(), (0..75i64).map(|t| (t, TsValue::Long(t))));
        eng.flush();
        eng.delete_range(&key(), 10, 19);
        assert_eq!(eng.tombstone_count(), 1);
        let before = eng.query(&key(), 0, 100);

        let report = eng.compact();
        assert_eq!(report.files_out, 1);
        assert_eq!(eng.tombstone_count(), 0, "compaction consumes tombstones");
        let after = eng.query(&key(), 0, 100);
        assert_eq!(before, after);
        assert_eq!(after.len(), 65);
    }

    #[test]
    fn delete_affects_only_target_sensor() {
        let eng = engine(1_000);
        let other = SeriesKey::new("root.sg.d1", "other");
        eng.write_points(&key(), (0..20i64).map(|t| (t, TsValue::Long(t))));
        eng.write_points(&other, (0..20i64).map(|t| (t, TsValue::Long(t))));
        eng.delete_range(&key(), 0, 100);
        assert!(eng.query(&key(), 0, 100).is_empty());
        assert_eq!(eng.query(&other, 0, 100).len(), 20);
    }

    #[test]
    fn delete_then_rewrite() {
        let eng = engine(1_000);
        eng.write_points(&key(), (0..10i64).map(|t| (t, TsValue::Long(t))));
        eng.delete_range(&key(), 0, 9);
        // Rewriting the same timestamps after the delete must be visible
        // (tombstones only cover data written before the delete — here,
        // memtable data was physically removed, so this just works).
        eng.write_points(&key(), (0..10i64).map(|t| (t, TsValue::Long(t + 100))));
        let got = eng.query(&key(), 0, 20);
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].1, TsValue::Long(100));
    }

    /// A delete counts an occupied flushing slot as one upcoming file.
    /// When it leaves the slot empty that file never comes, and the
    /// files that do come next — rewrites inside the range — must not
    /// be masked (and then erased by compaction) in its place.
    #[test]
    fn a_delete_that_empties_the_flushing_slot_spares_later_writes() {
        for earlier_file in [false, true] {
            let eng = engine(10_000);
            if earlier_file {
                eng.write_points(&key(), (0..10i64).map(|t| (t, TsValue::Long(t))));
                eng.flush();
            }
            eng.write_points(&key(), (10..60i64).map(|t| (t, TsValue::Long(t))));
            let job = eng.begin_flush_shard(0).expect("rotates");
            eng.delete_range(&key(), 5, 100);
            assert_eq!(eng.complete_flush(job).points, 0);
            assert_eq!(eng.file_count(), usize::from(earlier_file));
            // With no file left to mask the tombstone is gone; with
            // one it still covers 5..=9 of that file and no more.
            assert_eq!(eng.tombstone_count(), usize::from(earlier_file));

            // One rewrite below the watermark (unsequence), one above.
            eng.write_points(&key(), [(50, TsValue::Long(-50))]);
            eng.write_points(&key(), [(70, TsValue::Long(-70))]);
            eng.flush();
            eng.flush_unseq();
            let mut want: Vec<(i64, TsValue)> = if earlier_file {
                (0..5).map(|t| (t, TsValue::Long(t))).collect()
            } else {
                Vec::new()
            };
            want.extend([(50, TsValue::Long(-50)), (70, TsValue::Long(-70))]);
            assert_eq!(eng.query(&key(), i64::MIN, i64::MAX), want);
            eng.compact();
            assert_eq!(eng.query(&key(), i64::MIN, i64::MAX), want);
        }
    }
}
