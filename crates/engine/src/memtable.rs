//! Working/flushing memtables holding one flat buffer per sensor (paper
//! §V-A, Fig. 7).
//!
//! IoTDB buffers a series in a chunked `TVList` so that its
//! `PrimitiveArrayPool` can recycle 32-slot arrays. This engine has no
//! such pool, so a [`SeriesBuffer`] keeps one contiguous vector of
//! `(time, value)` pairs: an append is a copy onto its end, a
//! sort-on-read sorts the unordered tail where it lies, and a flush
//! clones the vector and sorts the clone with the same call. This module
//! is the only one that knows how a buffered series is laid out.

use std::collections::BTreeMap;

use backsort_core::merge::MergeStats;
use backsort_core::Algorithm;
use backsort_obs::LocalHistogram;

use crate::batch::{type_mismatch, ColumnSlice, ValueColumn, WriteError};
use crate::types::{DataType, SeriesKey, TsValue};

/// One sensor's in-memory buffer: its points in arrival order, flat,
/// with the length of their leading time-ordered run and their bounds.
///
/// Sort-on-read invariant: `[..sorted_len]` is non-decreasing in time at
/// every instant, and it is the longest such prefix — an append extends
/// it only while order holds, a delete recomputes it, a sort makes it
/// the whole buffer — so [`is_sorted`](Self::is_sorted) holds exactly
/// when `sorted_len == len`. `min_time` and `max_time` are exact.
#[derive(Debug, Clone)]
pub struct SeriesBuffer {
    points: Points,
    sorted_len: usize,
    min_time: i64,
    max_time: i64,
}

/// The typed pairs, one arm per IoTDB type — IoTDB's per-type TVList
/// classes (`DoubleTVList` etc., §V-A) as plain vectors: the enum
/// dispatch happens once per operation, the inner loops are
/// monomorphized.
#[derive(Debug, Clone)]
enum Points {
    Int(Vec<(i64, i32)>),
    Long(Vec<(i64, i64)>),
    Float(Vec<(i64, f32)>),
    Double(Vec<(i64, f64)>),
    Bool(Vec<(i64, bool)>),
    /// `(time, arena index)` pairs and the arena they index, like
    /// IoTDB's `BinaryTVList`: a sort moves indices, never strings. A
    /// deleted point's string stays in the arena until the buffer goes.
    Text(Vec<(i64, u32)>, Vec<String>),
}

/// Applies `$body` to the pair vector of whichever arm `$points` is (a
/// TEXT buffer's index pairs for TEXT).
macro_rules! for_each_points {
    ($points:expr, $p:ident => $body:expr) => {
        match $points {
            Points::Int($p) => $body,
            Points::Long($p) => $body,
            Points::Float($p) => $body,
            Points::Double($p) => $body,
            Points::Bool($p) => $body,
            Points::Text($p, _) => $body,
        }
    };
}

impl SeriesBuffer {
    /// Creates an empty buffer of the given type.
    pub fn new(dt: DataType) -> Self {
        let points = match dt {
            DataType::Int32 => Points::Int(Vec::new()),
            DataType::Int64 => Points::Long(Vec::new()),
            DataType::Float => Points::Float(Vec::new()),
            DataType::Double => Points::Double(Vec::new()),
            DataType::Boolean => Points::Bool(Vec::new()),
            DataType::Text => Points::Text(Vec::new(), Vec::new()),
        };
        Self {
            points,
            sorted_len: 0,
            min_time: i64::MAX,
            max_time: i64::MIN,
        }
    }

    /// The buffer's data type.
    pub fn data_type(&self) -> DataType {
        match self.points {
            Points::Int(_) => DataType::Int32,
            Points::Long(_) => DataType::Int64,
            Points::Float(_) => DataType::Float,
            Points::Double(_) => DataType::Double,
            Points::Bool(_) => DataType::Boolean,
            Points::Text(..) => DataType::Text,
        }
    }

    /// Bulk-appends an aligned column run, rejecting a type mismatch
    /// before any mutation: one pass over the timestamps for the run's
    /// bounds and ordered head, then one copy of the pairs onto the end
    /// of the buffer. A TEXT run's strings go to the arena once.
    pub fn extend_columns(&mut self, ts: &[i64], vals: ColumnSlice<'_>) -> Result<(), WriteError> {
        debug_assert_eq!(ts.len(), vals.len(), "an aligned column run");
        fn append<V: Copy>(pairs: &mut Vec<(i64, V)>, ts: &[i64], vs: &[V]) {
            pairs.extend(ts.iter().copied().zip(vs.iter().copied()));
        }
        let len = self.len();
        match (&mut self.points, vals) {
            (Points::Int(p), ColumnSlice::Int(vs)) => append(p, ts, vs),
            (Points::Long(p), ColumnSlice::Long(vs)) => append(p, ts, vs),
            (Points::Float(p), ColumnSlice::Float(vs)) => append(p, ts, vs),
            (Points::Double(p), ColumnSlice::Double(vs)) => append(p, ts, vs),
            (Points::Bool(p), ColumnSlice::Bool(vs)) => append(p, ts, vs),
            (Points::Text(p, arena), ColumnSlice::Text(vs)) => {
                // analyzer:allow(panic-freedom): the u32 arena index is a capacity contract — one in-memory buffer cannot reach 2^32 points (memtables flush orders of magnitude earlier)
                let end = u32::try_from(arena.len() + vs.len())
                    .expect("TEXT buffer exceeds u32::MAX points");
                // Every index below `end` fits, so the run's count does too.
                p.extend(ts.iter().copied().zip(end - vs.len() as u32..end));
                arena.extend_from_slice(vs);
            }
            (_, vals) => return Err(type_mismatch(self.data_type(), vals.data_type())),
        }
        if let Some(run) = RunShape::of(ts.iter().copied()) {
            // The ordered run, while it is the whole buffer, grows through
            // the run's ordered head if the run starts at or after the max.
            if self.sorted_len == len && (len == 0 || run.first >= self.max_time) {
                self.sorted_len += run.head;
            }
            self.min_time = self.min_time.min(run.lo);
            self.max_time = self.max_time.max(run.hi);
        }
        Ok(())
    }

    /// Number of buffered points.
    pub fn len(&self) -> usize {
        for_each_points!(&self.points, p => p.len())
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the buffer is time-ordered: its ordered run is all of it.
    pub fn is_sorted(&self) -> bool {
        self.sorted_len == self.len()
    }

    /// Smallest buffered timestamp.
    pub fn min_time(&self) -> Option<i64> {
        (!self.is_empty()).then_some(self.min_time)
    }

    /// Largest buffered timestamp.
    pub fn max_time(&self) -> Option<i64> {
        (!self.is_empty()).then_some(self.max_time)
    }

    /// Length of the buffer's leading time-ordered run — all of it when
    /// [`is_sorted`](Self::is_sorted). What a sort still owes is the
    /// rest: the points that arrived since order last held.
    pub fn sorted_len(&self) -> usize {
        self.sorted_len
    }

    /// Time-orders the buffer in place with the given algorithm, if it
    /// is not already — the sort-on-read of a dirty buffer. The cost is
    /// that of the unsorted tail, not of the buffer:
    /// [`Algorithm::sort_from_observed`] sorts the pairs behind the
    /// ordered run where they lie and merges the two from the back, so a
    /// read that follows a read pays for the points written in between
    /// and their overlap `Q` with the run. A flush sorts its copy of the
    /// buffer with this same call (see
    /// [`flush_memtable`](crate::flush::flush_memtable)). Streams the
    /// algorithm's telemetry (block size, probe loops, `α̃_L`, per-merge
    /// overlap `Q`) into `obs` when given. Returns what the sort did, or
    /// `None` when the buffer was already ordered and none ran.
    pub fn sort_with_observed(
        &mut self,
        alg: &Algorithm,
        obs: Option<&backsort_obs::Registry>,
    ) -> Option<TailSort> {
        let (prefix, len) = (self.sorted_len, self.len());
        if prefix == len {
            return None;
        }
        let merge = for_each_points!(&mut self.points, p => alg.sort_from_observed(p, prefix, obs));
        self.sorted_len = len;
        Some(TailSort {
            prefix,
            tail: len - prefix,
            merge,
        })
    }

    /// The point at index `i` as a dynamic value.
    pub fn get(&self, i: usize) -> (i64, TsValue) {
        match &self.points {
            Points::Int(p) => (p[i].0, TsValue::Int(p[i].1)),
            Points::Long(p) => (p[i].0, TsValue::Long(p[i].1)),
            Points::Float(p) => (p[i].0, TsValue::Float(p[i].1)),
            Points::Double(p) => (p[i].0, TsValue::Double(p[i].1)),
            Points::Bool(p) => (p[i].0, TsValue::Bool(p[i].1)),
            Points::Text(p, arena) => (p[i].0, TsValue::Text(arena[p[i].1 as usize].clone())),
        }
    }

    /// Binary-searches the first index with `time >= t`. Requires the
    /// buffer to be sorted.
    pub fn lower_bound(&self, t: i64) -> usize {
        debug_assert!(self.is_sorted());
        for_each_points!(&self.points, p => p.partition_point(|q| q.0 < t))
    }

    /// Binary-searches the first index with `time > t` (the exclusive
    /// end of a `[t_lo, t_hi]` range scan). Requires the buffer to be
    /// sorted.
    pub fn upper_bound(&self, t: i64) -> usize {
        debug_assert!(self.is_sorted());
        for_each_points!(&self.points, p => p.partition_point(|q| q.0 <= t))
    }

    /// Timestamp at index `i`.
    pub fn time(&self, i: usize) -> i64 {
        for_each_points!(&self.points, p => p[i].0)
    }

    /// Copies the index range `range` of the buffer out as deduplicated
    /// columns — last write wins on equal timestamps. Requires the
    /// buffer to be sorted. A `lower_bound..upper_bound` range is what a
    /// query streams from a buffer no other run overlaps, and `0..len`
    /// what a flush encodes.
    pub fn dedup_columns(&self, range: std::ops::Range<usize>) -> (Vec<i64>, ValueColumn) {
        let (mut times, mut values) = (Vec::new(), ValueColumn::new(self.data_type()));
        self.dedup_columns_into(range, &mut times, &mut values);
        (times, values)
    }

    /// [`dedup_columns`](Self::dedup_columns) into `times` and `values`,
    /// which are cleared first (and `values` retyped to the buffer's
    /// type), so a flush reuses one pair of columns across its series.
    pub fn dedup_columns_into(
        &self,
        range: std::ops::Range<usize>,
        times: &mut Vec<i64>,
        values: &mut ValueColumn,
    ) {
        debug_assert!(self.is_sorted());
        times.clear();
        values.clear();
        if values.data_type() != self.data_type() {
            *values = ValueColumn::new(self.data_type());
        }
        match (&self.points, values) {
            (Points::Int(p), ValueColumn::Int(vs)) => dedup_last(&p[range], times, vs, |v| v),
            (Points::Long(p), ValueColumn::Long(vs)) => dedup_last(&p[range], times, vs, |v| v),
            (Points::Float(p), ValueColumn::Float(vs)) => dedup_last(&p[range], times, vs, |v| v),
            (Points::Double(p), ValueColumn::Double(vs)) => dedup_last(&p[range], times, vs, |v| v),
            (Points::Bool(p), ValueColumn::Bool(vs)) => dedup_last(&p[range], times, vs, |v| v),
            (Points::Text(p, arena), ValueColumn::Text(vs)) => {
                dedup_last(&p[range], times, vs, |i| arena[i as usize].clone());
            }
            _ => {} // unreachable: `values` was retyped to the buffer's type above
        }
    }

    /// Removes all points with timestamps in `[t_lo, t_hi]`, keeping the
    /// rest in order, and recomputes the ordered run and the bounds from
    /// what is left. Returns how many were removed.
    pub fn delete_range(&mut self, t_lo: i64, t_hi: i64) -> usize {
        let len = self.len();
        for_each_points!(&mut self.points, p => p.retain(|q| !(t_lo..=t_hi).contains(&q.0)));
        let removed = len - self.len();
        if removed > 0 {
            let run = for_each_points!(&self.points, p => RunShape::of(p.iter().map(|q| q.0)));
            (self.sorted_len, self.min_time, self.max_time) =
                run.map_or((0, i64::MAX, i64::MIN), |r| (r.head, r.lo, r.hi));
        }
        removed
    }

    /// A copy of the buffer for a flush to sort and encode once the
    /// shard's lock is released, while readers go on querying the
    /// original: the pairs, the ordered run's length and the bounds. A
    /// TEXT copy carries only its live points' strings, renumbered in
    /// storage order.
    pub(crate) fn flush_copy(&self) -> Self {
        let points = match &self.points {
            Points::Text(p, arena) => {
                let (index, strings) = (0u32..)
                    .zip(p)
                    .map(|(slot, &(t, i))| ((t, slot), arena[i as usize].clone()))
                    .unzip();
                Points::Text(index, strings)
            }
            points => points.clone(),
        };
        Self {
            points,
            sorted_len: self.sorted_len,
            min_time: self.min_time,
            max_time: self.max_time,
        }
    }
}

/// What one sort of a dirty buffer worked on
/// ([`SeriesBuffer::sort_with_observed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailSort {
    /// Points of the leading run that was already time-ordered.
    pub prefix: usize,
    /// Points behind it that were sorted: the work's size.
    pub tail: usize,
    /// The merge of the two: how far the tail reached back into the run.
    pub merge: MergeStats,
}

/// One pass over a non-empty run of timestamps: its first timestamp,
/// the length of its leading non-decreasing run, and its bounds.
struct RunShape {
    first: i64,
    head: usize,
    lo: i64,
    hi: i64,
}

impl RunShape {
    fn of(mut ts: impl Iterator<Item = i64>) -> Option<Self> {
        let first = ts.next()?;
        let mut run = Self {
            first,
            head: 1,
            lo: first,
            hi: first,
        };
        let mut ordered = true;
        let mut prev = first;
        for t in ts {
            ordered &= t >= prev;
            run.head += usize::from(ordered);
            prev = t;
            run.lo = run.lo.min(t);
            run.hi = run.hi.max(t);
        }
        Some(run)
    }
}

/// The `Δτ` pre-pass for a bulk append: walks the raw timestamp column
/// with a running maximum seeded from the buffer's previous max and
/// records `max − t` for every late arrival — identical, point for
/// point, to what runs of one point each would have measured.
fn record_delta_tau(ts: &[i64], prev_max: Option<i64>, deltas: &mut LocalHistogram) {
    let mut max = prev_max.unwrap_or(i64::MIN);
    for &t in ts {
        if t < max {
            deltas.record((max - t) as u64);
        } else {
            max = t;
        }
    }
}

/// Columnar last-wins dedup of sorted pairs onto the ends of `ts` and
/// `vs` (empty from [`SeriesBuffer::dedup_columns_into`]):
/// of each run of equal timestamps the last pair's value (through
/// `value`) is kept.
fn dedup_last<V: Copy, T>(
    pairs: &[(i64, V)],
    ts: &mut Vec<i64>,
    vs: &mut Vec<T>,
    value: impl Fn(V) -> T,
) {
    ts.reserve(pairs.len());
    vs.reserve(pairs.len());
    for &(t, v) in pairs {
        if ts.last() == Some(&t) {
            if let Some(slot) = vs.last_mut() {
                *slot = value(v);
            }
        } else {
            ts.push(t);
            vs.push(value(v));
        }
    }
}

/// A memtable: one [`SeriesBuffer`] per sensor, plus occupancy accounting.
#[derive(Debug, Default, Clone)]
pub struct MemTable {
    series: BTreeMap<SeriesKey, SeriesBuffer>,
    total_points: usize,
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-appends an aligned column run to one sensor: a single series
    /// lookup and a single [`SeriesBuffer::extend_columns`] for the whole
    /// run, with the `Δτ` disorder pass done over the raw timestamp
    /// column (one branch per point, recorded into `deltas`).
    ///
    /// A run whose value type does not match the sensor's established
    /// type is rejected whole, before any mutation.
    pub fn write_columns(
        &mut self,
        key: &SeriesKey,
        ts: &[i64],
        vals: ColumnSlice<'_>,
        deltas: &mut LocalHistogram,
    ) -> Result<(), WriteError> {
        if ts.is_empty() {
            return Ok(());
        }
        if let Some(buf) = self.series.get_mut(key) {
            let prev_max = buf.max_time();
            buf.extend_columns(ts, vals)?;
            record_delta_tau(ts, prev_max, deltas);
        } else {
            let mut buf = SeriesBuffer::new(vals.data_type());
            buf.extend_columns(ts, vals)?;
            record_delta_tau(ts, None, deltas);
            self.series.insert(key.clone(), buf);
        }
        self.total_points += ts.len();
        Ok(())
    }

    /// Total points across all sensors.
    pub fn total_points(&self) -> usize {
        self.total_points
    }

    /// Number of distinct sensors.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Whether the memtable holds no data.
    pub fn is_empty(&self) -> bool {
        self.total_points == 0
    }

    /// Looks up one sensor's buffer.
    pub fn get(&self, key: &SeriesKey) -> Option<&SeriesBuffer> {
        self.series.get(key)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &SeriesKey) -> Option<&mut SeriesBuffer> {
        self.series.get_mut(key)
    }

    /// Iterates all `(key, buffer)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&SeriesKey, &SeriesBuffer)> {
        self.series.iter()
    }

    /// Removes all of one sensor's points in `[t_lo, t_hi]`, updating the
    /// occupancy count. Returns how many were removed.
    pub fn delete_range(&mut self, key: &SeriesKey, t_lo: i64, t_hi: i64) -> usize {
        let removed = self
            .series
            .get_mut(key)
            .map_or(0, |buf| buf.delete_range(t_lo, t_hi));
        self.total_points -= removed;
        removed
    }
}

#[cfg(test)]
impl MemTable {
    /// Appends `rows` to one sensor as a single column run — how the
    /// in-crate tests fill a memtable.
    pub(crate) fn append_rows(
        &mut self,
        key: &SeriesKey,
        rows: impl IntoIterator<Item = (i64, TsValue)>,
    ) -> Result<(), WriteError> {
        let batch = crate::batch::PointBatch::from_rows(rows)?;
        let (ts, vals) = batch.slice(0, batch.len());
        self.write_columns(key, ts, vals, &mut LocalHistogram::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_core::BackwardSort;

    fn key(s: &str) -> SeriesKey {
        SeriesKey::new("root.sg.d1", s)
    }

    fn buffer_of(rows: &[(i64, i64)]) -> SeriesBuffer {
        let mut mt = MemTable::new();
        mt.append_rows(&key("s"), rows.iter().map(|&(t, v)| (t, TsValue::Long(v))))
            .unwrap();
        mt.get(&key("s")).unwrap().clone()
    }

    #[test]
    fn write_and_read_back() {
        let mut mt = MemTable::new();
        mt.append_rows(
            &key("s1"),
            [(5, TsValue::Double(1.5)), (3, TsValue::Double(2.5))],
        )
        .unwrap();
        mt.append_rows(&key("s2"), [(1, TsValue::Int(7))]).unwrap();
        assert_eq!(mt.total_points(), 3);
        assert_eq!(mt.series_count(), 2);
        let s1 = mt.get(&key("s1")).unwrap();
        assert_eq!(s1.len(), 2);
        assert_eq!(s1.get(0), (5, TsValue::Double(1.5)));
        assert!(!s1.is_sorted());
    }

    #[test]
    fn type_mismatch_is_rejected_not_fatal() {
        let mut mt = MemTable::new();
        let mut deltas = LocalHistogram::new();
        mt.write_columns(&key("s1"), &[1, 2], ColumnSlice::Int(&[1, 2]), &mut deltas)
            .unwrap();
        // A mistyped run is rejected whole and leaves the memtable
        // untouched and alive: accounting unchanged, and correctly-typed
        // runs still land.
        let err = mt
            .write_columns(
                &key("s1"),
                &[3, 4],
                ColumnSlice::Bool(&[true, false]),
                &mut deltas,
            )
            .unwrap_err();
        assert!(matches!(err, WriteError::TypeMismatch { .. }));
        assert_eq!(mt.total_points(), 2);
        assert_eq!(mt.get(&key("s1")).unwrap().len(), 2);
        assert_eq!(deltas.count(), 0, "no Δτ recorded for a rejected run");
        mt.write_columns(&key("s1"), &[3, 4], ColumnSlice::Int(&[3, 4]), &mut deltas)
            .unwrap();
        assert_eq!(mt.total_points(), 4);
    }

    #[test]
    fn one_run_matches_runs_of_one_point() {
        let ts = [5i64, 3, 9, 9, 1, 12];
        let vs = [50i64, 30, 90, 91, 10, 120];

        let mut a = MemTable::new();
        let mut single_deltas = LocalHistogram::new();
        for (t, v) in ts.iter().zip(&vs) {
            let (t, v) = (std::slice::from_ref(t), std::slice::from_ref(v));
            a.write_columns(&key("s"), t, ColumnSlice::Long(v), &mut single_deltas)
                .unwrap();
        }

        let mut b = MemTable::new();
        let mut deltas = LocalHistogram::new();
        b.write_columns(&key("s"), &ts, ColumnSlice::Long(&vs), &mut deltas)
            .unwrap();

        assert_eq!(b.total_points(), a.total_points());
        let (ba, bb) = (a.get(&key("s")).unwrap(), b.get(&key("s")).unwrap());
        assert_eq!(ba.len(), bb.len());
        for i in 0..ba.len() {
            assert_eq!(ba.get(i), bb.get(i));
        }
        assert_eq!(ba.is_sorted(), bb.is_sorted());
        assert_eq!(
            deltas.count(),
            single_deltas.count(),
            "one run's Δτ pass must see the same late arrivals"
        );
    }

    #[test]
    fn dedup_columns_keeps_last_write() {
        let mut mt = MemTable::new();
        let rows = [(1i64, 1i32), (2, 2), (2, 22), (2, 222), (3, 3)];
        mt.append_rows(&key("s"), rows.map(|(t, v)| (t, TsValue::Int(v))))
            .unwrap();
        let buf = mt.get(&key("s")).unwrap();
        let (ts, vals) = buf.dedup_columns(0..buf.len());
        assert_eq!(ts, vec![1, 2, 3]);
        assert_eq!(vals, ValueColumn::Int(vec![1, 222, 3]));
        // A sub-range dedups what it covers and nothing else.
        let (ts, vals) = buf.dedup_columns(2..5);
        assert_eq!(ts, vec![2, 3]);
        assert_eq!(vals, ValueColumn::Int(vec![222, 3]));
    }

    #[test]
    fn sort_with_backward_sort_orders_buffer() {
        let mut mt = MemTable::new();
        let rows = [(4i64, 40i32), (1, 10), (3, 30), (2, 20)];
        mt.append_rows(&key("s1"), rows.map(|(t, v)| (t, TsValue::Int(v))))
            .unwrap();
        let alg = Algorithm::Backward(BackwardSort::default());
        let buf = mt.get_mut(&key("s1")).unwrap();
        assert!(buf.sort_with_observed(&alg, None).is_some());
        assert!(buf.is_sorted());
        let pts: Vec<(i64, TsValue)> = (0..buf.len()).map(|i| buf.get(i)).collect();
        assert_eq!(
            pts,
            vec![
                (1, TsValue::Int(10)),
                (2, TsValue::Int(20)),
                (3, TsValue::Int(30)),
                (4, TsValue::Int(40)),
            ]
        );
        // Second sort is a no-op.
        assert!(buf.sort_with_observed(&alg, None).is_none());
    }

    #[test]
    fn lower_bound_on_sorted_buffer() {
        let buf = buffer_of(&[(1, 1), (3, 3), (5, 5), (7, 7), (9, 9)]);
        assert_eq!(buf.lower_bound(0), 0);
        assert_eq!(buf.lower_bound(3), 1);
        assert_eq!(buf.lower_bound(4), 2);
        assert_eq!(buf.lower_bound(10), 5);
    }

    #[test]
    fn upper_bound_on_sorted_buffer() {
        let buf = buffer_of(&[(1, 1), (3, 3), (5, 5), (7, 7), (9, 9)]);
        assert_eq!(buf.upper_bound(0), 0);
        assert_eq!(buf.upper_bound(1), 1);
        assert_eq!(buf.upper_bound(3), 2);
        assert_eq!(buf.upper_bound(4), 2);
        assert_eq!(buf.upper_bound(9), 5);
        assert_eq!(buf.upper_bound(100), 5);
        // [lower_bound(lo), upper_bound(hi)) is the inclusive-range slice.
        assert_eq!((buf.lower_bound(3), buf.upper_bound(7)), (1, 4));
    }

    #[test]
    fn all_data_types_buffer() {
        let mut mt = MemTable::new();
        for (name, v) in [
            ("i", TsValue::Int(1)),
            ("l", TsValue::Long(2)),
            ("f", TsValue::Float(3.0)),
            ("d", TsValue::Double(4.0)),
            ("b", TsValue::Bool(true)),
            ("t", TsValue::Text("five".into())),
        ] {
            mt.append_rows(&key(name), [(1, v)]).unwrap();
        }
        assert_eq!(mt.series_count(), 6);
        for (_, buf) in mt.iter() {
            assert_eq!(buf.len(), 1);
            assert!(buf.min_time() == Some(1) && buf.max_time() == Some(1));
        }
    }
}
