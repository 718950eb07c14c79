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
//! buffer's own [`SeriesBuffer::dedup_columns`], so a read and a flush
//! cannot disagree on which of two equal timestamps comes last.

use std::borrow::Borrow;
use std::time::Instant;

use backsort_core::Algorithm;
use backsort_obs::Registry;

use crate::memtable::{MemTable, SeriesBuffer};
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
        let (times, values) = buffer.dedup_columns(0..buffer.len());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsfile::TsFileReader;
    use crate::types::{DataType, TsValue};
    use backsort_core::BackwardSort;
    use backsort_sorts::{BaselineSorter, SeriesSorter};

    fn key(s: &str) -> SeriesKey {
        SeriesKey::new("root.sg.d1", s)
    }

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
}
