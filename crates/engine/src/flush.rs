//! The flush pipeline: sort → deduplicate → encode → write (paper §V-C,
//! §VI-D2).
//!
//! Flush time is the server-side metric the paper reports (Figs. 16–18);
//! [`FlushMetrics`] breaks it into the same components the paper
//! describes: "sorting, encoding, and I/O".

use std::time::Instant;

use backsort_core::Algorithm;

use crate::memtable::MemTable;
use crate::tsfile::TsFileWriter;

/// Timing breakdown of one memtable flush.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlushMetrics {
    /// Time spent sorting TVLists (the component under test).
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

impl FlushMetrics {
    /// Total flush wall time in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.sort_nanos + self.encode_nanos + self.write_nanos
    }
}

/// Flushes a memtable to a TsFile image with the given sort algorithm.
///
/// Duplicate timestamps keep the *last* occurrence in sorted order —
/// IoTDB's last-write-wins. (With an unstable sorter, which arrival wins
/// among duplicates is unspecified; with the stable configuration it is
/// the latest arrival.)
///
/// Telemetry streams into `obs` when given: each still-dirty buffer's
/// size (buffer dirtiness at flush time) plus the sort-phase telemetry
/// Backward-Sort reports per buffer (block size, `α̃_L`, per-merge
/// overlap `Q`).
pub fn flush_memtable(
    memtable: &mut MemTable,
    sorter: &Algorithm,
    obs: Option<&backsort_obs::Registry>,
) -> (Vec<u8>, FlushMetrics) {
    let mut metrics = FlushMetrics::default();
    let mut writer = TsFileWriter::new();
    let dirty_points = obs.map(|o| o.histogram(backsort_obs::names::MEMTABLE_DIRTY_BUFFER_POINTS));

    for (key, buffer) in memtable.iter_mut() {
        if buffer.is_empty() {
            continue;
        }
        if let Some(h) = &dirty_points {
            if !buffer.is_sorted() {
                h.record(buffer.len() as u64);
            }
        }
        let t0 = Instant::now();
        buffer.sort_with_observed(sorter, obs);
        metrics.sort_nanos += t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let (times, values) = buffer.dedup_columns(0..buffer.len());
        metrics.encode_nanos += t1.elapsed().as_nanos() as u64;
        metrics.points += times.len() as u64;

        let t2 = Instant::now();
        writer.write_chunk_columns(key, &times, values.as_slice());
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
    use crate::types::{SeriesKey, TsValue};
    use backsort_core::BackwardSort;
    use backsort_sorts::BaselineSorter;

    fn key(s: &str) -> SeriesKey {
        SeriesKey::new("root.sg.d1", s)
    }

    #[test]
    fn flush_sorts_dedups_and_roundtrips() {
        let mut mt = MemTable::new(8);
        for (t, v) in [(5i64, 50i32), (1, 10), (3, 30), (3, 31), (2, 20)] {
            mt.write(&key("s1"), t, TsValue::Int(v)).unwrap();
        }
        let alg = Algorithm::Backward(BackwardSort {
            in_block: backsort_core::InBlockSort::Stable,
            ..BackwardSort::default()
        });
        let (image, metrics) = flush_memtable(&mut mt, &alg, None);
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
            let mut mt = MemTable::new(32);
            let mut x = 99u64;
            for i in 0..2_000i64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let t = i + (x % 9) as i64;
                mt.write(&key("s"), t, TsValue::Double(i as f64)).unwrap();
            }
            mt
        };
        let mut reference: Option<Vec<i64>> = None;
        for alg in backsort_core::Algorithm::contenders() {
            let mut mt = build();
            let (image, _) = flush_memtable(&mut mt, &alg, None);
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

    #[test]
    fn flush_empty_memtable() {
        let mut mt = MemTable::new(32);
        let alg = Algorithm::Baseline(BaselineSorter::Tim);
        let (image, metrics) = flush_memtable(&mut mt, &alg, None);
        assert_eq!(metrics.points, 0);
        assert!(TsFileReader::open(&image).unwrap().chunks().is_empty());
    }

    #[test]
    fn metrics_components_are_populated() {
        let mut mt = MemTable::new(32);
        for i in (0..10_000i64).rev() {
            mt.write(&key("s"), i, TsValue::Long(i)).unwrap();
        }
        let alg = Algorithm::Baseline(BaselineSorter::Quick);
        let (_, metrics) = flush_memtable(&mut mt, &alg, None);
        assert!(metrics.sort_nanos > 0);
        assert!(metrics.encode_nanos > 0);
        assert!(metrics.write_nanos > 0);
        assert_eq!(metrics.points, 10_000);
        assert_eq!(
            metrics.total_nanos(),
            metrics.sort_nanos + metrics.encode_nanos + metrics.write_nanos
        );
    }
}
