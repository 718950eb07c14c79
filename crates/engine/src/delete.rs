//! Range deletion with tombstones.
//!
//! IoTDB deletes by time range: in-memory points are dropped immediately,
//! while flushed files get a *modification* ("mods") entry consulted at
//! read time and physically applied by the next compaction. Same design
//! here: [`StorageEngine::delete_range`](crate::StorageEngine::delete_range)
//! (logged first on an engine opened on a directory) purges memtables
//! and records a [`Tombstone`]; reads resolve a file's tombstones into one
//! [`IntervalSet`](crate::IntervalSet) and skip what it covers, and
//! [`StorageEngine::compact`](crate::compaction), reading the same way,
//! drops deleted points for good.
//!
//! A tombstone's reach is a stamp, drawn from the engine's one counter
//! as a file's id is: it masks a file iff the file's stamp is smaller.
//! A file reflects every delete stamped below its own stamp and no later
//! one — a flushed file is stamped at its rotation, so a delete that
//! lands while it sits in the flushing slot masks it; a compaction
//! output is stamped at its snapshot, so the merge applied every older
//! tombstone and every newer one masks it. A tombstone is kept while a
//! file of its shard, or the slot's occupant, is stamped below it.

use backsort_faults::sites;

use crate::engine::{ShardState, StorageEngine};
use crate::store::{encode_range, StoreResult, KIND_DELETE};
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
    /// The delete's stamp: it masks the files stamped below it.
    pub stamp: u64,
}

impl ShardState {
    /// The one retention rule: a tombstone is kept while some file of
    /// the shard, or the occupied slot, is stamped below it. Run after a
    /// delete, an install that produced no file, a compaction swap, and
    /// in every shard once recovery has replayed the log.
    pub(crate) fn retain_tombstones(&mut self) {
        let oldest = (self.files.iter().map(|file| file.id()))
            .chain(self.flushing.as_ref().map(|_| self.slot_generation))
            .min();
        self.tombstones
            .retain(|tombstone| oldest.is_some_and(|stamp| stamp < tombstone.stamp));
    }
}

impl StorageEngine {
    /// Deletes all points of `key` with timestamps in `[t_lo, t_hi]`.
    ///
    /// With a directory the delete is logged first
    /// ([`StorageEngine::open`]): a key the log cannot carry, or an
    /// append that fails, is refused with nothing recorded. Memtable
    /// points (working, flushing slot, unsequence) are removed
    /// immediately; flushed files, and the file the flushing slot
    /// becomes, are masked by a tombstone stamped above them that the
    /// next [`compact`](StorageEngine::compact) applies physically —
    /// IoTDB's "mods" mechanism. Returns how many points the working and
    /// unsequence memtables held.
    pub fn delete_range(&self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> StoreResult<usize> {
        let _logged = self.log(sites::STORE_DELETE_AFTER_WAL, |out| {
            encode_range(out, KIND_DELETE, key, t_lo, t_hi, 0)
        })?;
        let mut st = self.shards[self.shard_of(&key.device)].write();
        let removed =
            st.working.delete_range(key, t_lo, t_hi) + st.unseq.delete_range(key, t_lo, t_hi);
        if let Some(slot) = st.flushing.as_mut() {
            // Readers lose the points now; the flush in flight may have
            // copied this series out already and still write them, so
            // the tombstone's stamp, above the slot's, masks that file.
            slot.delete_range(key, t_lo, t_hi);
        }
        st.tombstones.push(Tombstone {
            key: key.clone(),
            t_lo,
            t_hi,
            stamp: self.draw_stamp(),
        });
        st.retain_tombstones();
        Ok(removed)
    }

    /// Number of tombstones awaiting compaction, across all shards.
    pub fn tombstone_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().tombstones.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::engine;
    use crate::types::TsValue;

    fn key() -> SeriesKey {
        SeriesKey::new("root.sg.d1", "s")
    }

    #[test]
    fn delete_from_memtable_only() {
        let eng = engine(10_000);
        eng.write_points(&key(), (0..100i64).map(|t| (t, TsValue::Long(t))));
        let removed = eng.delete_range(&key(), 20, 29).unwrap();
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
        let removed = eng.delete_range(&key(), 40, 60).unwrap();
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
        eng.delete_range(&key(), 0, 29).unwrap();
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
        eng.delete_range(&key(), 10, 19).unwrap();
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
        eng.delete_range(&key(), 0, 100).unwrap();
        assert!(eng.query(&key(), 0, 100).is_empty());
        assert_eq!(eng.query(&other, 0, 100).len(), 20);
    }

    #[test]
    fn delete_then_rewrite() {
        let eng = engine(1_000);
        eng.write_points(&key(), (0..10i64).map(|t| (t, TsValue::Long(t))));
        eng.delete_range(&key(), 0, 9).unwrap();
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
            eng.delete_range(&key(), 5, 100).unwrap();
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
