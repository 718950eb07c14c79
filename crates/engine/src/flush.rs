//! The flush pipeline: copy → sort → deduplicate → encode → write
//! (paper §V-C, §VI-D2).
//!
//! Flush time is the server-side metric the paper reports (Figs. 16–18);
//! [`FlushMetrics`] breaks it into the same components the paper
//! describes: "sorting, encoding, and I/O".
//!
//! A flush never sorts the memtable it writes: readers still query
//! it until the file is installed. It takes one copy of each series
//! ([`SeriesBuffer`]'s flat pairs, its ordered run's length and its
//! bounds) and orders the copy with the call a read would have ordered
//! the buffer with ([`SeriesBuffer::sort_with_observed`], which runs
//! [`Algorithm::sort_from_observed`]): only the tail behind the ordered
//! run is sorted — Backward-Sort's blocks as slices, with a counting
//! sort over a block's time range when the block holds at least 256
//! points spanning under 2¹⁶, else with the standard library's sort —
//! and merged in. The copy is then deduplicated into columns with the
//! buffer's own [`SeriesBuffer::dedup_columns_into`] — the definition
//! [`SeriesBuffer::dedup_columns`] runs for a read — into one pair of
//! columns the flush reuses across its series, so a read and a flush
//! cannot disagree on which of two equal timestamps comes last.
//! [`StorageEngine::complete_flush`] installs the file; adoption
//! installs one this engine did not write.

use std::borrow::Borrow;
use std::time::Instant;

use backsort_core::Algorithm;
use backsort_faults::sites as fault_sites;
use backsort_obs::trace as obs_trace;
use backsort_obs::{names, Registry};

use crate::batch::ValueColumn;
use crate::engine::StorageEngine;
use crate::memtable::{MemTable, SeriesBuffer};
use crate::read::FileHandle;
use crate::tsfile::TsFileWriter;
use crate::types::SeriesKey;

/// Timing breakdown of one memtable flush.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlushMetrics {
    /// Time spent copying each series out of its buffer and sorting
    /// the copy (the component under test). For an asynchronous
    /// flush the copy includes the wait for the shard's read lock.
    pub sort_nanos: u64,
    /// Time spent deduplicating + encoding columns.
    pub encode_nanos: u64,
    /// Time spent assembling the file image.
    pub write_nanos: u64,
    /// Points flushed (after dedup).
    pub points: u64,
    /// Bytes of the resulting file image.
    pub bytes: u64,
}

impl std::ops::AddAssign for FlushMetrics {
    fn add_assign(&mut self, other: Self) {
        self.sort_nanos += other.sort_nanos;
        self.encode_nanos += other.encode_nanos;
        self.write_nanos += other.write_nanos;
        self.points += other.points;
        self.bytes += other.bytes;
    }
}

/// Flushes a memtable to a TsFile image with the given sort algorithm,
/// reading it only: the memtable is bit for bit what it was afterwards.
///
/// Duplicate timestamps keep the *last* occurrence in sorted order —
/// IoTDB's last-write-wins. (With an unstable sorter, which arrival wins
/// among duplicates is unspecified; with the stable configuration it is
/// the latest arrival.)
///
/// Telemetry streams into `obs` when given: each still-dirty buffer's
/// unsorted tail (buffer dirtiness at flush time) plus the sort-phase telemetry
/// Backward-Sort reports per buffer (block size, `α̃_L`, per-merge
/// overlap `Q`).
pub fn flush_memtable(
    memtable: &MemTable,
    sorter: &Algorithm,
    obs: Option<&Registry>,
) -> (Vec<u8>, FlushMetrics) {
    let series = memtable.iter().map(|(k, b)| (k, b.flush_copy()));
    flush_series(series, sorter, obs)
}

/// The flush body — the one place a flush sorts. `series` yields a copy
/// of each series' buffer ([`SeriesBuffer::flush_copy`]), in key order,
/// and is pulled one series at a time: [`flush_memtable`] copies from a
/// memtable it borrows, the asynchronous flush from the shard's flushing
/// slot under its read lock, so at most one series is ever copied.
pub(crate) fn flush_series<K: Borrow<SeriesKey>>(
    mut series: impl Iterator<Item = (K, SeriesBuffer)>,
    sorter: &Algorithm,
    obs: Option<&Registry>,
) -> (Vec<u8>, FlushMetrics) {
    let mut metrics = FlushMetrics::default();
    let mut writer = TsFileWriter::new();
    let dirty_points = obs.map(|o| o.histogram(backsort_obs::names::MEMTABLE_DIRTY_BUFFER_POINTS));
    // One pair of columns serves every series of the flush.
    let (mut times, mut values) = (Vec::new(), ValueColumn::Double(Vec::new()));

    loop {
        let t0 = Instant::now();
        let Some((key, mut buffer)) = series.next() else {
            break;
        };
        if buffer.is_empty() {
            continue;
        }
        let sorted = buffer.sort_with_observed(sorter, obs);
        if let (Some(h), Some(sort)) = (&dirty_points, sorted) {
            h.record(sort.tail as u64);
        }
        metrics.sort_nanos += t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        buffer.dedup_columns_into(0..buffer.len(), &mut times, &mut values);
        metrics.encode_nanos += t1.elapsed().as_nanos() as u64;
        metrics.points += times.len() as u64;

        let t2 = Instant::now();
        writer.write_chunk_columns(key.borrow(), &times, values.as_slice());
        metrics.write_nanos += t2.elapsed().as_nanos() as u64;
    }

    let t3 = Instant::now();
    let image = writer.finish();
    metrics.write_nanos += t3.elapsed().as_nanos() as u64;
    metrics.bytes = image.len() as u64;
    (image, metrics)
}

/// The ticket for one shard's pending flush.
///
/// Produced by [`StorageEngine::write_batch_nonblocking`] (or
/// [`StorageEngine::begin_flush_shard`]) when a working or unsequence
/// memtable rotates into its shard's one flushing slot; consumed by
/// [`StorageEngine::complete_flush`], directly or via
/// [`FlushPool::submit`](crate::FlushPool::submit), installing in rotation
/// order — age order (DESIGN.md §3). The job carries no data: the slot
/// is the rotated memtable's only owner, queries keep reading
/// it (and deletes editing it) there while the job is outstanding, and
/// the flush copies each series out under the shard's read lock. Only
/// installing the slot frees it: completing the job, or a
/// [`flush`](StorageEngine::flush) or
/// [`flush_unseq`](StorageEngine::flush_unseq), which installs an
/// occupied slot first and so leaves the job stale (it names the slot's
/// generation, the stamp drawn at its rotation, which the file takes as
/// its id; completing it then installs nothing).
#[derive(Debug)]
#[must_use = "the shard's flushing slot stays occupied until the job is completed"]
pub struct FlushJob {
    pub(crate) shard: usize,
    pub(crate) generation: u64,
    pub(crate) unseq: bool,
}

impl FlushJob {
    /// The shard whose flushing slot this job will release.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

impl StorageEngine {
    /// Flushes every shard's flushing slot and working memtable that hold
    /// points (see [`flush_unseq`](Self::flush_unseq) for the procedure).
    /// Nothing is persisted: [`persist`](Self::persist) runs this, then
    /// writes the files. Returns the metrics summed across the installs.
    pub fn flush(&self) -> FlushMetrics {
        self.flush_through_slot(false)
    }

    /// Flushes every shard's flushing slot and *unsequence* memtable that
    /// hold points (ascending shard order, one lock at a time): an
    /// occupied slot is installed first — it is the older — then the
    /// memtable rotates into the slot and is installed from there, both
    /// outside the shard lock. A shard with nothing buffered installs
    /// nothing and counts no flush. Returns the metrics summed across the
    /// installs.
    pub fn flush_unseq(&self) -> FlushMetrics {
        self.flush_through_slot(true)
    }

    fn flush_through_slot(&self, unseq: bool) -> FlushMetrics {
        let mut total = FlushMetrics::default();
        for (shard, lock) in self.shards.iter().enumerate() {
            let mut ours = false;
            while !ours {
                // Whatever occupies the slot is older: it installs first.
                let mut st = lock.write();
                let older = st.occupant(shard);
                ours = older.is_none();
                let job = older.or_else(|| self.rotate_into_slot(shard, &mut st, unseq));
                drop(st);
                let Some(job) = job else { break };
                total += self.complete_flush(job);
            }
        }
        total
    }

    /// Adopts an existing TsFile image: registers it for queries and
    /// advances watermarks from its chunks. A file belongs to one shard:
    /// an image whose devices span shards is split into a piece per
    /// owning shard (ascending), and one with no chunk installs nothing.
    /// Returns the `(shard, file id)` pairs installed, or `None` (and
    /// adopts nothing) if the image does not parse.
    pub fn adopt_file(&self, image: Vec<u8>) -> Option<Vec<(usize, u64)>> {
        self.adopt_file_at(image, 0, self.draw_stamp())
    }

    /// [`adopt_file`](Self::adopt_file) at an explicit compaction level
    /// and stamp — recovery ([`open`](Self::open)) reinstalls each
    /// file where the manifest recorded it, so a reopened engine resumes
    /// the leveling ladder instead of re-treating merged output as fresh
    /// L0, and its tombstones mask what they masked before.
    /// A whole install keeps `stamp` and decodes no page. A piece is
    /// compaction's merge of the one file (so an unreadable page's points
    /// are not in it), under a fresh stamp, with the shard's tombstones
    /// stamped above `stamp` applied: recovery restores them first.
    pub(crate) fn adopt_file_at(
        &self,
        image: Vec<u8>,
        level: u32,
        stamp: u64,
    ) -> Option<Vec<(usize, u64)>> {
        let source = self.parse_image(image, stamp)?.with_level(level);
        let mut owners: Vec<usize> = (source.envelopes().iter())
            .map(|(key, _, _)| self.shard_of(&key.device))
            .collect();
        owners.sort_unstable();
        owners.dedup();
        let pieces: Vec<(usize, FileHandle)> = match owners[..] {
            [shard] => vec![(shard, source)],
            _ => (owners.into_iter())
                .filter_map(|shard| {
                    let (tombstones, stamp) = {
                        let st = self.shards[shard].read();
                        (st.tombstones.clone(), self.draw_stamp())
                    };
                    let run = std::slice::from_ref(&source);
                    let (image, _) = self.merge_run(shard, run, &tombstones)?;
                    Some((shard, self.parse_own_image(image, stamp).with_level(level)))
                })
                .collect(),
        };
        let installed = pieces.into_iter().map(|(shard, piece)| {
            let mut st = self.shards[shard].write();
            for (key, _, max_time) in piece.envelopes() {
                let w = st.watermarks.entry(key.clone()).or_insert(i64::MIN);
                *w = (*w).max(*max_time);
            }
            let id = piece.id();
            st.files.push(piece);
            (shard, id)
        });
        Some(installed.collect())
    }

    /// Parses a TsFile image under the file id `stamp`, counting the
    /// parse in `file.parse`. `None` if the image is not a valid TsFile.
    fn parse_image(&self, image: Vec<u8>, stamp: u64) -> Option<FileHandle> {
        self.obs.file_parse.inc();
        FileHandle::parse(stamp, image)
    }

    /// [`Self::parse_image`] for an image this engine's own writer just
    /// produced (flush and compaction outputs).
    pub(crate) fn parse_own_image(&self, image: Vec<u8>, stamp: u64) -> FileHandle {
        // analyzer:allow(panic-freedom): the image was produced by our own encoder one call above (a flush or compaction output); dropping it on a parse error would silently lose acked writes
        self.parse_image(image, stamp).expect("own image parses")
    }

    /// Runs a [`FlushJob`] and installs the result into the shard the
    /// job was rotated from: the file becomes queryable and that shard's
    /// flushing slot is released. The one installer of a rotated
    /// memtable, working or unsequence (`flush.root`'s `unseq` says which),
    /// whoever calls it: a flush pool worker, a writer that wants its
    /// write synchronous, or [`flush`](Self::flush) and its twin.
    ///
    /// The slot's memtable is never taken out or copied whole. Each
    /// series is copied under the shard's *read* lock — one clone of its
    /// flat buffer, readers unaffected, a writer held up for one
    /// series' copy at most — and sorted, encoded and parsed with no
    /// lock held. A delete that lands between two such copies edits the
    /// slot as usual; whether or not the file still carries its points,
    /// the delete's tombstone, stamped above the slot, masks this file,
    /// which keeps the slot's stamp. When deletes have emptied the slot
    /// there is no file, and a tombstone left masking nothing goes.
    ///
    /// Every copy and the install check the job's generation. A stale
    /// job — its slot already installed by a synchronous flush —
    /// installs nothing and returns [`FlushMetrics::default`]; it leaves
    /// `engine.flush_queue_depth` and the `flush.*` counters alone.
    pub fn complete_flush(&self, job: FlushJob) -> FlushMetrics {
        // Crash site: the memtable has rotated into the slot but nothing
        // is encoded yet — its points' only durable copy is the WAL.
        self.faults.kill_point(fault_sites::FLUSH_ROTATE);
        let (shard, generation, unseq) = (job.shard, job.generation, job.unseq);
        let lock = &self.shards[shard];
        let keys: Vec<SeriesKey> = match lock.read().slot(generation) {
            Some(slot) => slot.iter().map(|(key, _)| key.clone()).collect(),
            None => return FlushMetrics::default(),
        };
        let _trace = self.trace_always(names::SPAN_FLUSH_ROOT, || format!("flush shard={shard}"));
        obs_trace::add_attr(names::ATTR_SHARD, shard as u64);
        obs_trace::add_attr(names::ATTR_UNSEQ, u64::from(unseq));
        let span_encode = obs_trace::span(names::SPAN_FLUSH_ENCODE);
        let series = keys.into_iter().filter_map(|key| {
            let copy = lock.read().slot(generation)?.get(&key)?.flush_copy();
            Some((key, copy))
        });
        let (image, metrics) = flush_series(series, &self.config.sorter, Some(&self.obs.registry));
        if let Some(s) = &span_encode {
            s.attr(names::ATTR_POINTS, metrics.points);
        }
        drop(span_encode);
        // Crash site: the image is encoded but not yet installed — a
        // killed flush must lose the file cleanly (its points stay
        // WAL-covered until rotation).
        self.faults
            .kill_point(fault_sites::FLUSH_COMPLETE_BEFORE_INSTALL);
        // Parse the chunk index outside the lock too — installing the
        // handle is then just a push.
        let handle = (metrics.points > 0).then(|| self.parse_own_image(image, generation));
        let mut st = lock.write();
        if st.slot(generation).is_none() {
            return FlushMetrics::default();
        }
        let retired = st.flushing.take();
        match handle {
            Some(handle) => st.files.push(handle),
            None => st.retain_tombstones(),
        }
        drop(st);
        // Freeing the retired memtable's chunks holds nobody up.
        drop(retired);
        self.obs.flush_queue_depth.dec();
        self.obs.record_flush(&metrics);
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PointBatch;
    use crate::delete::Tombstone;
    use crate::engine::tests::{key, sharded_engine, small_engine};
    use crate::tsfile::TsFileReader;
    use crate::types::{DataType, TsValue};
    use backsort_core::BackwardSort;
    use backsort_sorts::{BaselineSorter, SeriesSorter};

    #[test]
    fn flush_sorts_dedups_and_roundtrips() {
        let mut mt = MemTable::new();
        let rows = [(5i64, 50i32), (1, 10), (3, 30), (3, 31), (2, 20)];
        mt.append_rows(&key("s1"), rows.map(|(t, v)| (t, TsValue::Int(v))))
            .unwrap();
        let alg = Algorithm::Backward(BackwardSort {
            in_block: backsort_core::InBlockSort::Stable,
            ..BackwardSort::default()
        });
        let (image, metrics) = flush_memtable(&mt, &alg, None);
        assert_eq!(metrics.points, 4, "one duplicate removed");
        assert!(metrics.bytes > 0);

        let r = TsFileReader::open(&image).unwrap();
        let pts = r.query(&key("s1"), i64::MIN, i64::MAX);
        let times: Vec<i64> = pts.iter().map(|p| p.0).collect();
        assert_eq!(times, vec![1, 2, 3, 5]);
        // last-write-wins for t=3 under the stable sorter
        assert_eq!(pts[2].1, TsValue::Int(31));
    }

    #[test]
    fn flush_with_every_contender_produces_identical_timestamps() {
        let build = || {
            let mut mt = MemTable::new();
            let mut x = 99u64;
            let rows = (0..2_000i64).map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (i + (x % 9) as i64, TsValue::Double(i as f64))
            });
            mt.append_rows(&key("s"), rows).unwrap();
            mt
        };
        let mut reference: Option<Vec<i64>> = None;
        for alg in backsort_core::Algorithm::contenders() {
            let mt = build();
            let (image, _) = flush_memtable(&mt, &alg, None);
            let r = TsFileReader::open(&image).unwrap();
            let times: Vec<i64> = r
                .query(&key("s"), i64::MIN, i64::MAX)
                .iter()
                .map(|p| p.0)
                .collect();
            assert!(times.windows(2).all(|w| w[0] < w[1]));
            match &reference {
                None => reference = Some(times),
                Some(want) => assert_eq!(&times, want),
            }
        }
    }

    /// The reference the flush's copy must match: sort each buffer in
    /// place, then deduplicate it into columns.
    fn flush_in_place(memtable: &mut MemTable, sorter: &Algorithm) -> Vec<u8> {
        let mut writer = TsFileWriter::new();
        let keys: Vec<SeriesKey> = memtable.iter().map(|(k, _)| k.clone()).collect();
        for key in keys {
            let buffer = memtable.get_mut(&key).unwrap();
            if buffer.is_empty() {
                continue;
            }
            buffer.sort_with_observed(sorter, None);
            let (times, values) = buffer.dedup_columns(0..buffer.len());
            writer.write_chunk_columns(&key, &times, values.as_slice());
        }
        writer.finish()
    }

    /// One value of each of the six types, a function of `(t, i)` so
    /// duplicates of a timestamp differ in value.
    fn value_of(dt: DataType, t: i64, i: usize) -> TsValue {
        match dt {
            DataType::Int32 => TsValue::Int(t as i32 * 3 + i as i32),
            DataType::Int64 => TsValue::Long(t * 5 - i as i64),
            DataType::Float => TsValue::Float(t as f32 * 0.5 + i as f32),
            DataType::Double => TsValue::Double(t as f64 * 0.25 - i as f64),
            DataType::Boolean => TsValue::Bool((t + i as i64) % 3 == 0),
            DataType::Text => TsValue::Text(format!("t{t}#{i}")),
        }
    }

    #[test]
    fn the_flat_flush_writes_the_image_of_the_in_place_one() {
        const TYPES: [DataType; 6] = [
            DataType::Int32,
            DataType::Int64,
            DataType::Float,
            DataType::Double,
            DataType::Boolean,
            DataType::Text,
        ];
        // Arrival-ordered timestamp streams: delay-only disorder with
        // duplicate timestamps, heavy disorder, already sorted (with a
        // duplicate), one point, and none.
        let mut x = 7u64;
        let mut jitter = |span: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % span) as i64
        };
        let delayed: Vec<i64> = (0..3_000).map(|i| i / 2 + jitter(40)).collect();
        let shuffled: Vec<i64> = (0..700).map(|_| jitter(500)).collect();
        let sorted: Vec<i64> = (0..300).map(|i| i - i64::from(i == 17)).collect();
        let streams: [(&str, &[i64]); 5] = [
            ("delayed", &delayed),
            ("shuffled", &shuffled),
            ("sorted", &sorted),
            ("one", &[42]),
            ("empty", &[]),
        ];
        // Every type gets every stream, as a sensor of its own.
        let mut source = MemTable::new();
        for (d, &dt) in TYPES.iter().enumerate() {
            for (name, ts) in streams {
                let k = SeriesKey::new(format!("root.sg.d{d}"), name);
                if ts.is_empty() {
                    // A buffer a delete emptied: it exists and holds nothing.
                    source.append_rows(&k, [(0, value_of(dt, 0, 0))]).unwrap();
                    assert_eq!(source.delete_range(&k, 0, 0), 1);
                }
                let rows = ts.iter().enumerate().map(|(i, &t)| (t, value_of(dt, t, i)));
                source.append_rows(&k, rows).unwrap();
            }
        }
        assert_eq!(source.series_count(), TYPES.len() * streams.len());
        let untouched = format!("{source:?}");

        let mut sorters = Algorithm::contenders();
        sorters.push(Algorithm::Backward(BackwardSort {
            in_block: backsort_core::InBlockSort::Stable,
            ..BackwardSort::default()
        }));
        for sorter in &sorters {
            let (image, metrics) = flush_memtable(&source, sorter, None);
            assert_eq!(
                format!("{source:?}"),
                untouched,
                "{}: the flush read the memtable and changed nothing",
                sorter.name()
            );
            let reference = flush_in_place(&mut source.clone(), sorter);
            assert!(
                image == reference,
                "{}: the flat flush's image differs from the in-place one's",
                sorter.name()
            );
            let reader = TsFileReader::open(&image).unwrap();
            assert_eq!(reader.chunks().len(), TYPES.len() * (streams.len() - 1));
            let stored: usize = reader
                .chunks()
                .iter()
                .map(|m| reader.query(&m.key, i64::MIN, i64::MAX).len())
                .sum();
            assert_eq!(metrics.points as usize, stored);
        }
    }

    #[test]
    fn flush_empty_memtable() {
        let mt = MemTable::new();
        let alg = Algorithm::Baseline(BaselineSorter::Tim);
        let (image, metrics) = flush_memtable(&mt, &alg, None);
        assert_eq!(metrics.points, 0);
        assert!(TsFileReader::open(&image).unwrap().chunks().is_empty());
    }

    #[test]
    fn metrics_components_are_populated() {
        let mut mt = MemTable::new();
        mt.append_rows(
            &key("s"),
            (0..10_000i64).rev().map(|i| (i, TsValue::Long(i))),
        )
        .unwrap();
        let alg = Algorithm::Baseline(BaselineSorter::Quick);
        let (_, metrics) = flush_memtable(&mt, &alg, None);
        assert!(metrics.sort_nanos > 0);
        assert!(metrics.encode_nanos > 0);
        assert!(metrics.write_nanos > 0);
        assert_eq!(metrics.points, 10_000);
    }

    #[test]
    fn flush_counters_accumulate() {
        let flushed = |eng: &StorageEngine| {
            let snap = eng.obs().snapshot();
            (
                snap.counter(names::FLUSH_COUNT),
                snap.counter(names::FLUSH_POINTS),
            )
        };
        let eng = small_engine(Algorithm::Backward(Default::default()));
        eng.write_points(&key("s"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        // The 100th point rotated the full memtable; nothing is left, so
        // neither flush records anything.
        assert_eq!(eng.flush().points, 0);
        assert_eq!(eng.flush_unseq().points, 0);
        assert_eq!(flushed(&eng), (1, 100));

        // Only the shard holding points flushes, each memtable once.
        let eng = sharded_engine(4);
        let k = SeriesKey::new("root.sg.d0", "s");
        eng.write_points(&k, (10..20i64).map(|t| (t, TsValue::Long(t))));
        assert_eq!(eng.flush().points, 10);
        eng.write_points(&k, [(5, TsValue::Long(5))]); // below the watermark
        assert_eq!(eng.flush_unseq().points, 1);
        assert_eq!(eng.flush().points + eng.flush_unseq().points, 0);
        assert_eq!(eng.buffered_points(), (0, 0));
        assert_eq!(eng.file_count(), 2);
        assert_eq!(flushed(&eng), (2, 11), "clean shards record no flush");
    }

    /// A synchronous flush beside an outstanding job installs the older
    /// slot first. At the wrong end of the file list, a newer unsequence
    /// point would lose its duplicate timestamp to the slot's file. The
    /// delete between them masks the slot's file, stamped below it, and
    /// not the working memtable's. The job it overtook is stale.
    #[test]
    fn a_synchronous_flush_installs_an_outstanding_slot_first() {
        let depth = |eng: &StorageEngine| eng.obs().gauge_value(names::ENGINE_FLUSH_QUEUE_DEPTH);
        let eng = small_engine(Algorithm::Backward(Default::default()));
        let full = PointBatch::from_rows((0..100).map(|t| (t, TsValue::Long(t)))).unwrap();
        let job = eng.write_batch_nonblocking(&key("s"), &full).unwrap();
        let job = job.expect("a full memtable rotates");
        eng.write_points(&key("s"), [(50, TsValue::Long(-50))]); // unsequence
        eng.delete_range(&key("s"), 200, 300).unwrap(); // stamped above the slot's file
        eng.write_points(&key("s"), [(250, TsValue::Long(250))]); // working
        assert_eq!(eng.flush_unseq().points, 101, "the slot, then unsequence");
        assert_eq!(eng.flush().points, 1);
        assert_eq!((eng.file_count(), depth(&eng)), (3, 0));
        assert_eq!(eng.complete_flush(job), FlushMetrics::default());
        assert_eq!((eng.file_count(), depth(&eng)), (3, 0));
        let flushes = eng.obs().counter_value(names::FLUSH_COUNT);
        assert_eq!(flushes, 3, "a stale job records nothing");
        assert_eq!(eng.query(&key("s"), 50, 50), [(50, TsValue::Long(-50))]);
        assert_eq!(eng.query(&key("s"), 250, 250), [(250, TsValue::Long(250))]);
    }

    #[test]
    fn adoption_level_rides_shard_files() {
        let eng = small_engine(Algorithm::Backward(Default::default()));
        eng.write_points(&key("s"), (0..100i64).map(|i| (i, TsValue::Long(i))));
        let image = eng.shard_files(0)[0].image().to_vec();
        let other = small_engine(Algorithm::Backward(Default::default()));
        other
            .adopt_file_at(image.clone(), 3, other.draw_stamp())
            .expect("adopts");
        other.adopt_file(image).expect("adopts");
        let meta = other.shard_files(0);
        assert_eq!(meta.len(), 2);
        assert_eq!(meta[0].level(), 3, "explicit level survives adoption");
        assert_eq!(meta[1].level(), 0, "plain adoption lands at level 0");
    }

    /// An image whose devices span shards splits into one piece per
    /// owning shard, each holding only its own devices under an id of
    /// its own, at the source's level, with the shard's tombstones
    /// stamped above the source applied. An image of one shard's
    /// devices installs as it is, under its stamp and parsed once; one
    /// with no chunk installs nothing.
    #[test]
    fn an_image_that_spans_shards_splits_into_one_piece_per_owner() {
        let d0 = SeriesKey::new("root.sg.d0", "s");
        let d2 = SeriesKey::new("root.sg.d2", "s");
        let longs = |vs: &[i64]| vs.iter().map(|&v| TsValue::Long(v)).collect::<Vec<_>>();
        let mut w = TsFileWriter::new();
        w.write_chunk(&d0, &[1, 2], &longs(&[1, 2]));
        w.write_chunk(&d2, &[1, 2], &longs(&[-1, -2]));
        let wide = w.finish();
        let eng = sharded_engine(4);
        let (s0, s2) = (eng.shard_of(&d0.device), eng.shard_of(&d2.device));
        assert_ne!(s0, s2, "the two devices land in different shards");
        let source = eng.draw_stamp();
        eng.shards[s2].write().tombstones.push(Tombstone {
            key: d2.clone(),
            t_lo: 2,
            t_hi: 2,
            stamp: eng.draw_stamp(),
        });
        let parses = || eng.obs().counter_value(names::FILE_PARSE);
        let installed = eng.adopt_file_at(wide, 2, source).expect("parses");
        assert_eq!(parses(), 3, "the source, then each piece");
        let shards: Vec<usize> = installed.iter().map(|&(shard, _)| shard).collect();
        assert_eq!(shards, [s0.min(s2), s0.max(s2)]);
        assert!(installed.iter().all(|&(_, id)| id > source));
        assert_ne!(installed[0].1, installed[1].1, "one id a piece");
        for (key, shard, points) in [(&d0, s0, 2), (&d2, s2, 1)] {
            let files = eng.shard_files(shard);
            assert_eq!(files.len(), 1);
            let keys: Vec<&SeriesKey> = files[0].envelopes().iter().map(|(k, ..)| k).collect();
            assert_eq!(keys, [key], "shard {shard} holds its own device only");
            assert_eq!(files[0].level(), 2);
            assert_eq!(
                files[0].chunks()[0].num_points,
                points,
                "the delete applied"
            );
        }
        (eng.shards.iter()).for_each(|shard| shard.write().retain_tombstones());
        assert_eq!(eng.tombstone_count(), 0, "the pieces carry the delete");
        assert_eq!(eng.query(&d2, 0, 9), [(1, TsValue::Long(-1))]);

        let mut w = TsFileWriter::new();
        w.write_chunk(&d0, &[5], &longs(&[5]));
        w.write_chunk(&SeriesKey::new("root.sg.d0", "t"), &[5], &longs(&[6]));
        let stamp = eng.draw_stamp();
        let whole = eng.adopt_file_at(w.finish(), 0, stamp).expect("parses");
        assert_eq!((whole, parses()), (vec![(s0, stamp)], 4));
        let empty = eng
            .adopt_file(TsFileWriter::new().finish())
            .expect("parses");
        assert_eq!((empty, eng.file_count()), (Vec::new(), 3));
    }
}
