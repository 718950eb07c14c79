//! The write: a batch logged (on an engine with a directory), then split
//! at the separation watermark into runs for the working and unsequence
//! memtables (paper §II), and the rotation that hands a full memtable to
//! its shard's one flushing slot, which [`flush`](crate::flush) installs.

use std::io;
use std::time::Instant;

use backsort_faults::sites;
use backsort_obs::LocalHistogram;

use crate::batch::{type_mismatch, PointBatch, WriteError};
use crate::engine::{ShardState, StorageEngine};
use crate::flush::FlushJob;
use crate::memtable::MemTable;
use crate::store::{StoreError, StoreResult, WalRecord};
use crate::types::SeriesKey;
#[cfg(test)]
use crate::types::TsValue;

/// Finds the end of the next run of a batch's timestamp column,
/// starting at `idx`: consecutive points that all land on the same side
/// of the separation watermark. While a rotation can still happen, `room`
/// holds the two memtables' remaining room (working, unsequence) and a
/// run stops at its memtable's, so the caller rotates, and re-reads the
/// watermark, before routing the rest; `None` once the flushing slot is
/// taken. The scan stops where the run does, so no point of a batch is
/// looked at twice. Returns `(run_end, routes_unseq)`.
fn next_run(
    ts: &[i64],
    idx: usize,
    watermark: Option<i64>,
    room: Option<[usize; 2]>,
) -> (usize, bool) {
    let routes_unseq = |t: i64| matches!(watermark, Some(w) if t <= w);
    let unseq = ts.get(idx).copied().is_some_and(routes_unseq);
    let limit = room.map_or(ts.len(), |room| {
        ts.len().min(idx.saturating_add(room[usize::from(unseq)]))
    });
    let mut end = idx + 1;
    while end < limit && ts.get(end).copied().is_some_and(routes_unseq) == unseq {
        end += 1;
    }
    (end, unseq)
}

/// A batch the memtables refuse, as the write reports it.
fn refused(e: WriteError) -> StoreError {
    StoreError::Wal(io::Error::new(io::ErrorKind::InvalidInput, e))
}

impl StorageEngine {
    /// Writes a columnar [`PointBatch`] for one sensor — the engine's
    /// one write (IoTDB-benchmark sends batches; §VI-A2). A full memtable
    /// (the fuller, if both are) rotates into the shard's flushing slot,
    /// and the returned [`FlushJob`] is completed inline by a caller that
    /// wants a synchronous write, or off the write path by a
    /// [`FlushPool`](crate::FlushPool) — IoTDB's asynchronous flushing
    /// (paper §V-A, §VI-D2). At most one job is returned per call, none
    /// for an empty batch, which writes and logs nothing.
    ///
    /// **With a directory** ([`open`](Self::open)) the batch is first
    /// logged as one WAL frame, the atomicity unit, under the store mutex
    /// held until the write returns. A rotation is installed *before* the
    /// persist pass, so a failed pass leaves no slot occupied, and the job
    /// returned is stale: the sign that the pass persisted it. A batch the
    /// log cannot carry (a name over `u16::MAX` bytes) is refused with
    /// nothing logged; a mistyped batch's frame replays into the same
    /// rejection. Either refusal, on any engine, is [`StoreError::Wal`]
    /// of kind `InvalidInput`.
    ///
    /// The batch is split at the separation watermark into seq/unseq
    /// column runs — each point is compared with it once, and it is only
    /// re-read after the rotation (the only event that can move it) —
    /// and each run lands with a single memtable series lookup and one
    /// bulk [`MemTable::write_columns`] append. The rotation happens where
    /// a memtable fills, before the run that would overfill it; a batch
    /// larger than the room left rotates once, and the rest lands in one
    /// run. A batch whose type does not match the series is rejected
    /// whole, and the reject counter ticks.
    ///
    /// **What bounds the memtables.** Not this call: it never waits for a
    /// flush and never refuses for room. While a shard's job is
    /// outstanding its slot is occupied, a full memtable cannot rotate,
    /// and the rest of the batch is appended to it regardless, in one
    /// run — so a caller that holds the job itself (and may complete it
    /// only after further writes) cannot deadlock here. The bound is the
    /// caller's to keep, by waiting for the flush that frees the slot: ask
    /// [`flush_stalled`](Self::flush_stalled) before writing and wait in
    /// [`FlushPool::wait_while_stalled`](crate::FlushPool::wait_while_stalled),
    /// as `backsort-server` does, and each of a shard's two memtables
    /// stays within `memtable_max_points` plus the batches written
    /// concurrently with that check.
    pub fn write_batch_nonblocking(
        &self,
        key: &SeriesKey,
        batch: &PointBatch,
    ) -> StoreResult<Option<FlushJob>> {
        if batch.is_empty() {
            return Ok(None);
        }
        let store = self.log(sites::STORE_WRITE_BATCH_APPEND, |out| {
            WalRecord::encode_batch(out, key, batch)
        })?;
        let timed = self.obs.registry.is_enabled();
        let shard = self.shard_of(&key.device);
        let mut st = self.shards[shard].write();
        // The series' type in any memtable of the shard decides, before
        // any column lands.
        let held = st.memtables().find_map(|m| Some(m.get(key)?.data_type()));
        if let Some(held) = held.filter(|&held| held != batch.data_type()) {
            self.obs.type_mismatch_rejects.inc();
            return Err(refused(type_mismatch(held, batch.data_type())));
        }
        let max_points = self.config.memtable_max_points;
        let mut job = None;
        let mut deltas = LocalHistogram::new();
        let ts = batch.ts();
        let mut watermark = st.watermarks.get(key).copied();
        // Only a free slot takes a rotation, and one rotation fills it;
        // that cannot change under the guard.
        let mut can_rotate = st.flushing.is_none();
        let mut idx = 0;
        loop {
            let (working, unseq) = (st.working.total_points(), st.unseq.total_points());
            if can_rotate && working.max(unseq) >= max_points.max(1) {
                // The fuller of the full memtables rotates.
                job = self.rotate_into_slot(shard, &mut st, unseq > working);
                can_rotate = false;
                watermark = st.watermarks.get(key).copied();
            }
            if idx >= ts.len() {
                break;
            }
            let room = |mem: &MemTable| max_points.saturating_sub(mem.total_points()).max(1);
            let rooms = can_rotate.then(|| [room(&st.working), room(&st.unseq)]);
            let (run_end, unseq) = next_run(ts, idx, watermark, rooms);
            let append_start = timed.then(Instant::now);
            let (run_ts, run_vals) = batch.slice(idx, run_end);
            st.memtable(unseq)
                .write_columns(key, run_ts, run_vals, &mut deltas)
                .map_err(refused)?;
            if let Some(start) = append_start {
                self.obs
                    .batch_append_nanos
                    .record(start.elapsed().as_nanos() as u64);
            }
            idx = run_end;
        }
        self.obs.write_points.add(ts.len() as u64);
        // Δτ went into a stack-local histogram, no atomics per point.
        if deltas.count() > 0 {
            self.obs.ooo_points.add(deltas.count());
            self.obs.delta_tau.merge_local(&deltas);
        }
        drop(st);
        if let (Some(job), Some(mut store)) = (&job, store) {
            // A copy of the ticket installs the slot; `job` is stale then.
            self.complete_flush(FlushJob { ..*job });
            self.pass(&mut store)?;
        }
        Ok(job)
    }

    /// Whether `shard` is stalled on its flush: its flushing slot is
    /// occupied *and* either memtable is at its limit, so the next write
    /// can only grow that memtable past the limit.
    /// [`complete_flush`](Self::complete_flush) ends the stall. The
    /// engine itself never waits on it (see
    /// [`write_batch_nonblocking`](Self::write_batch_nonblocking)); the
    /// check is for the caller that owns the flusher.
    pub fn flush_stalled(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(|lock| {
            let st = lock.read();
            let fullest = st.working.total_points().max(st.unseq.total_points());
            st.flushing.is_some() && fullest >= self.config.memtable_max_points
        })
    }

    /// Rotates one specific shard's working memtable into its flushing
    /// slot, or `None` if it is empty or a flush is already pending.
    pub fn begin_flush_shard(&self, shard: usize) -> Option<FlushJob> {
        self.rotate_into_slot(shard, &mut self.shards[shard].write(), false)
    }

    /// Swaps a fresh working (with `unseq`, unsequence) memtable into the
    /// (locked) shard and moves the old one into the free flushing slot
    /// under a fresh stamp, which its file keeps, advancing the
    /// watermarks past everything it holds — a no-op for an unsequence
    /// memtable, which is below them.
    pub(crate) fn rotate_into_slot(
        &self,
        shard: usize,
        st: &mut ShardState,
        unseq: bool,
    ) -> Option<FlushJob> {
        if st.flushing.is_some() || st.memtable(unseq).is_empty() {
            return None;
        }
        let rotated = std::mem::replace(st.memtable(unseq), MemTable::new());
        for (key, buffer) in rotated.iter() {
            if let Some(max_t) = buffer.max_time() {
                let w = st.watermarks.entry(key.clone()).or_insert(i64::MIN);
                *w = (*w).max(max_t);
            }
        }
        st.flushing = Some(rotated);
        st.slot_unseq = unseq;
        st.slot_generation = self.draw_stamp();
        self.obs.flush_queue_depth.inc();
        st.occupant(shard)
    }
}

#[cfg(test)]
impl StorageEngine {
    /// Writes each point as a batch of its own, completing every
    /// rotation inline, so rotations fall after exactly
    /// `memtable_max_points` points — the in-crate tests' point writes. A
    /// mistyped point is dropped (and counted) like a mistyped batch.
    /// Returns how many rotations were installed.
    pub(crate) fn write_points(
        &self,
        key: &SeriesKey,
        points: impl IntoIterator<Item = (i64, TsValue)>,
    ) -> usize {
        let mut rotations = 0;
        for point in points {
            let Ok(batch) = PointBatch::from_rows([point]) else {
                continue;
            };
            if let Ok(Some(job)) = self.write_batch_nonblocking(key, &batch) {
                self.complete_flush(job);
                rotations += 1;
            }
        }
        rotations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{key, sharded_engine, small_engine};
    use crate::query::QueryResult;
    use crate::types::TsValue;
    use backsort_core::Algorithm;
    use backsort_obs::names;
    use backsort_sorts::BaselineSorter;

    #[test]
    fn write_then_query_out_of_order() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        for (t, v) in [(5i64, 5.0), (1, 1.0), (3, 3.0), (2, 2.0), (4, 4.0)] {
            eng.write_points(&key("s"), [(t, TsValue::Double(v))]);
        }
        let got = eng.query(&key("s"), 2, 4);
        assert_eq!(
            got,
            vec![
                (2, TsValue::Double(2.0)),
                (3, TsValue::Double(3.0)),
                (4, TsValue::Double(4.0)),
            ]
        );
        assert_eq!(eng.latest_time(&key("s")), Some(5));
    }

    #[test]
    fn memtable_rotation_triggers_flush() {
        let eng = small_engine(Algorithm::Baseline(BaselineSorter::Tim));
        let flushed = eng.write_points(&key("s"), (0..250).map(|i| (i, TsValue::Long(i))));
        assert_eq!(flushed, 2, "two rotations at 100 points each");
        assert_eq!(eng.file_count(), 2);
        let (working, unseq) = eng.buffered_points();
        assert_eq!(working, 50);
        assert_eq!(unseq, 0);
    }

    #[test]
    fn separation_policy_routes_stragglers() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        // triggers flush at 100
        eng.write_points(&key("s"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        assert_eq!(eng.file_count(), 1);
        // A point older than the watermark (99) goes to unsequence.
        eng.write_points(&key("s"), [(50, TsValue::Long(-50))]);
        let (_, unseq) = eng.buffered_points();
        assert_eq!(unseq, 1);
        // And a fresh point goes to working.
        eng.write_points(&key("s"), [(200, TsValue::Long(200))]);
        let (working, _) = eng.buffered_points();
        assert_eq!(working, 1);
    }

    #[test]
    fn batch_write_reroutes_after_mid_batch_flush() {
        // A straggler after a mid-batch rotation must take the
        // unsequence path: the run split has to re-read the watermark.
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let mut pts: Vec<(i64, TsValue)> = (0..100).map(|i| (i, TsValue::Long(i))).collect();
        pts.push((10, TsValue::Long(-10))); // below the post-flush watermark (99)
        let batch = PointBatch::from_rows(pts).unwrap();
        let job = eng.write_batch_nonblocking(&key("s"), &batch).unwrap();
        eng.complete_flush(job.expect("the 100th point rotates"));
        let (working, unseq) = eng.buffered_points();
        assert_eq!((working, unseq), (0, 1), "straggler routed to unsequence");
        let got = eng.query(&key("s"), 9, 11);
        assert_eq!(got[1], (10, TsValue::Long(-10)), "unsequence wins");
    }

    #[test]
    fn type_mismatch_rejects_instead_of_aborting() {
        // Regression for the documented memtable panic: a mistyped
        // INSERT must drop the write and leave the engine serving.
        let eng = small_engine(Algorithm::Backward(Default::default()));
        eng.write_points(&key("s"), [(1, TsValue::Long(1))]);
        eng.write_points(&key("s"), [(2, TsValue::Double(2.0))]); // dropped
        let bad = PointBatch::from_rows(vec![(3, TsValue::Bool(true))]).unwrap();
        let StoreError::Wal(err) = eng.write_batch_nonblocking(&key("s"), &bad).unwrap_err() else {
            panic!("a mismatch is refused as a WAL-stage error");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let cause = err.get_ref().and_then(|e| e.downcast_ref());
        assert!(matches!(cause, Some(WriteError::TypeMismatch { .. })));
        // The engine is alive, the series intact, and the rejects
        // counted.
        eng.write_points(&key("s"), [(3, TsValue::Long(3))]);
        assert_eq!(
            eng.query(&key("s"), 0, 10),
            vec![(1, TsValue::Long(1)), (3, TsValue::Long(3))]
        );
        let snap = eng.obs().snapshot();
        assert_eq!(snap.counter(names::MEMTABLE_TYPE_MISMATCH_REJECTS), 2);
    }

    #[test]
    fn independent_shards_each_carry_a_flush_job() {
        // With 4 shards, two devices on different shards can both have a
        // rotation in flight — the pool's raison d'être.
        let eng = sharded_engine(4);
        let (da, db) = ("root.sg.d0", "root.sg.d2");
        assert_ne!(
            eng.shard_of(da),
            eng.shard_of(db),
            "fixture devices must differ"
        );
        let ka = SeriesKey::new(da, "s");
        let kb = SeriesKey::new(db, "s");
        for t in 0..99i64 {
            eng.write_points(&ka, [(t, TsValue::Long(t))]);
            eng.write_points(&kb, [(t, TsValue::Long(t))]);
        }
        let last = PointBatch::from_rows(vec![(99, TsValue::Long(99))]).unwrap();
        let ja = eng
            .write_batch_nonblocking(&ka, &last)
            .unwrap()
            .expect("shard a rotates");
        let jb = eng
            .write_batch_nonblocking(&kb, &last)
            .unwrap()
            .expect("shard b rotates");
        assert_ne!(ja.shard(), jb.shard());
        // Data stays visible while both jobs are outstanding.
        assert_eq!(eng.query(&ka, 0, 200).len(), 100);
        assert_eq!(eng.query(&kb, 0, 200).len(), 100);
        eng.complete_flush(jb);
        eng.complete_flush(ja);
        assert_eq!(eng.file_count(), 2);
        assert_eq!(eng.query(&ka, 0, 200).len(), 100);
    }

    /// Appends so far, one `memtable.batch_append_nanos` record a run.
    fn runs(eng: &StorageEngine) -> u64 {
        eng.obs()
            .snapshot()
            .histogram(names::MEMTABLE_BATCH_APPEND_NANOS)
            .map_or(0, |h| h.count)
    }

    /// ROADMAP 4c, pinned as a count: with the rotation refused a batch
    /// is split where its route changes and nowhere else. Before, the
    /// full memtable's "room" of one point made every sequence-bound
    /// point a run of its own, each re-scanning the rest of the batch —
    /// 25,000 runs for the first batch below.
    #[test]
    fn a_refused_rotation_splits_a_batch_only_where_its_route_changes() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let longs = |ts: &mut dyn Iterator<Item = i64>| {
            PointBatch::from_rows(ts.map(|t| (t, TsValue::Long(t)))).unwrap()
        };
        // Fill to the limit: the memtable rotates, and the job is held.
        let job = eng
            .write_batch_nonblocking(&key("s"), &longs(&mut (0..100)))
            .unwrap()
            .expect("a full memtable rotates");
        // Fill the new one to the limit as well: the slot is occupied.
        let refused = eng
            .write_batch_nonblocking(&key("s"), &longs(&mut (100..200)))
            .unwrap();
        assert!(refused.is_none());
        assert!(eng.flush_stalled(0));

        let before = runs(&eng);
        let all_sequence = longs(&mut (200..25_200));
        assert!(eng
            .write_batch_nonblocking(&key("s"), &all_sequence)
            .unwrap()
            .is_none());
        assert_eq!(runs(&eng) - before, 1, "one route, one run");
        assert_eq!(eng.buffered_points(), (25_100, 0));

        // Fifty points alternating around the watermark (99): fresh,
        // late, fresh, late, … — 49 route changes.
        let before = runs(&eng);
        let alternating = longs(&mut (0..50).map(|i| if i % 2 == 0 { 30_000 + i } else { i }));
        assert!(eng
            .write_batch_nonblocking(&key("s"), &alternating)
            .unwrap()
            .is_none());
        assert_eq!(runs(&eng) - before, 50, "route changes + 1");
        assert_eq!(eng.buffered_points(), (25_125, 25));

        // Nothing was lost on the way, and the flush still completes.
        eng.complete_flush(job);
        assert!(!eng.flush_stalled(0));
        let got = eng.query(&key("s"), i64::MIN, i64::MAX);
        let mut want: Vec<i64> = (0..25_200).collect();
        want.extend((0..50).filter(|i| i % 2 == 0).map(|i| 30_000 + i));
        assert_eq!(got.iter().map(|p| p.0).collect::<Vec<_>>(), want);
    }

    /// A batch larger than the room left rotates where the memtable
    /// fills, once, and the rest lands in one run: the fresh memtable
    /// may go past its limit, and the next write rotates it first.
    #[test]
    fn a_batch_larger_than_the_memtable_rotates_once() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let batch = PointBatch::from_rows((0..250).map(|t| (t, TsValue::Long(t)))).unwrap();
        let before = runs(&eng);
        let job = eng.write_batch_nonblocking(&key("s"), &batch).unwrap();
        assert_eq!(runs(&eng) - before, 2, "100 + 150");
        assert_eq!(eng.buffered_points(), (150, 0));
        assert_eq!(eng.complete_flush(job.expect("rotates at 100")).points, 100);
        assert_eq!(eng.file_count(), 1);
        let next = PointBatch::from_rows([(250, TsValue::Long(250))]).unwrap();
        let job = eng.write_batch_nonblocking(&key("s"), &next).unwrap();
        assert_eq!(eng.complete_flush(job.expect("rotates first")).points, 150);
        assert_eq!(eng.buffered_points(), (1, 0));
    }

    /// `t ↦ sign · t` over `ts`, as a batch.
    fn signed(ts: std::ops::Range<i64>, sign: i64) -> PointBatch {
        PointBatch::from_rows(ts.map(|t| (t, TsValue::Long(sign * t)))).unwrap()
    }

    fn signed_rows(ts: std::ops::Range<i64>, sign: i64) -> QueryResult {
        ts.map(|t| (t, TsValue::Long(sign * t))).collect()
    }

    /// The unsequence memtable has the working one's life: the write that
    /// brings it to the bound rotates it, where it fills, and the job
    /// installs it like any other.
    #[test]
    fn a_write_that_fills_the_unsequence_memtable_returns_its_flush_job() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let k = key("s");
        eng.write_points(&k, (0..200i64).map(|t| (t, TsValue::Long(t))));
        let job = eng.write_batch_nonblocking(&k, &signed(0..99, -1)).unwrap();
        assert!(job.is_none(), "a straggler below the bound does not rotate");
        assert_eq!(eng.buffered_points(), (0, 99));
        let job = eng
            .write_batch_nonblocking(&k, &signed(99..150, -1))
            .unwrap();
        let job = job.expect("the unsequence memtable rotates at its bound");
        assert_eq!(eng.buffered_points(), (0, 50), "rotated at exactly 100");
        assert_eq!(eng.complete_flush(job).points, 100);
        assert_eq!(eng.file_count(), 3);
        let mut want = signed_rows(0..150, -1);
        want.extend(signed_rows(150..200, 1));
        assert_eq!(eng.query(&k, 0, 199), want);
        assert_eq!(eng.flush_unseq().points, 50);
        assert_eq!(eng.query(&k, 0, 199), want);
    }

    /// One slot for both memtables: while an unsequence flush is
    /// outstanding, a full working memtable cannot rotate, and the shard
    /// says so. The next write after the install rotates it first.
    #[test]
    fn an_outstanding_unsequence_job_stalls_a_full_working_memtable() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let k = key("s");
        eng.write_points(&k, (0..100i64).map(|t| (t, TsValue::Long(t))));
        let job = eng
            .write_batch_nonblocking(&k, &signed(0..100, -1))
            .unwrap();
        let job = job.expect("the unsequence memtable rotates");
        assert!(
            !eng.flush_stalled(0),
            "the slot is taken, but nothing is full"
        );
        assert!(eng
            .write_batch_nonblocking(&k, &signed(100..200, 1))
            .unwrap()
            .is_none());
        assert_eq!(eng.buffered_points(), (100, 0));
        assert!(eng.flush_stalled(0));
        eng.complete_flush(job);
        assert!(!eng.flush_stalled(0));
        let job = eng
            .write_batch_nonblocking(&k, &signed(200..201, 1))
            .unwrap();
        let job = job.expect("the waiting working memtable rotates first");
        assert_eq!(eng.complete_flush(job).points, 100);
        assert_eq!(eng.buffered_points(), (1, 0));
    }

    /// Install order is rotation order, which is age order: rewrites of
    /// every timestamp of an outstanding working slot are stragglers,
    /// fill the unsequence memtable behind the slot, rotate after it
    /// installs, and win every shared timestamp — in the slot, on disk,
    /// and against nothing newer than themselves.
    #[test]
    fn an_unsequence_rotation_after_an_older_working_slot_wins_every_shared_timestamp() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let k = key("s");
        let older = eng.write_batch_nonblocking(&k, &signed(0..100, 1)).unwrap();
        let older = older.expect("the working memtable rotates");
        assert!(eng
            .write_batch_nonblocking(&k, &signed(0..100, -1))
            .unwrap()
            .is_none());
        assert_eq!(eng.buffered_points(), (0, 100));
        assert!(eng.flush_stalled(0), "a full unsequence memtable waits too");
        let mut want = signed_rows(0..100, -1);
        assert_eq!(eng.query(&k, 0, 99), want);
        eng.complete_flush(older);
        // The next write rotates the waiting unsequence memtable before
        // its own straggler lands, in a fresh one that outranks the slot.
        let third = PointBatch::from_rows([(7, TsValue::Long(700))]).unwrap();
        let newer = eng.write_batch_nonblocking(&k, &third).unwrap();
        let newer = newer.expect("the full unsequence memtable rotates first");
        want[7].1 = TsValue::Long(700);
        assert_eq!(
            eng.query(&k, 0, 99),
            want,
            "slot over disk, memtable over slot"
        );
        assert_eq!(eng.complete_flush(newer).points, 100);
        assert_eq!(eng.query(&k, 0, 99), want);
        assert_eq!(eng.flush_unseq().points, 1);
        assert_eq!(eng.file_count(), 3);
        assert_eq!(eng.query(&k, 0, 99), want, "and file over file");
    }
}
