//! Working/flushing memtables holding one TVList per sensor (paper §V-A,
//! Fig. 7).

use std::collections::BTreeMap;

use backsort_core::merge::MergeStats;
use backsort_core::Algorithm;
use backsort_obs::LocalHistogram;
use backsort_tvlist::{SeriesAccess, TVList, TextTVList, Value};

use crate::batch::{type_mismatch, ColumnSlice, ValueColumn, WriteError};
use crate::types::{DataType, SeriesKey, TsValue};

/// One sensor's in-memory buffer: a typed TVList.
///
/// Mirrors IoTDB's per-type TVList classes (`DoubleTVList` etc., §V-A):
/// the enum dispatch happens once per operation, the inner loops are
/// monomorphized.
#[derive(Debug, Clone)]
pub enum SeriesBuffer {
    /// INT32 sensor.
    Int(TVList<i32>),
    /// INT64 sensor.
    Long(TVList<i64>),
    /// FLOAT sensor.
    Float(TVList<f32>),
    /// DOUBLE sensor.
    Double(TVList<f64>),
    /// BOOLEAN sensor.
    Bool(TVList<bool>),
    /// TEXT sensor: arena-backed, sorting moves indices (§V-A's
    /// BinaryTVList).
    Text(TextTVList),
}

/// Applies `$body` to the numeric TVList arms; `$text_body` to the text
/// arm (whose API differs).
macro_rules! for_each_buffer {
    ($self:expr, $list:ident => $body:expr, $text:ident => $text_body:expr) => {
        match $self {
            SeriesBuffer::Int($list) => $body,
            SeriesBuffer::Long($list) => $body,
            SeriesBuffer::Float($list) => $body,
            SeriesBuffer::Double($list) => $body,
            SeriesBuffer::Bool($list) => $body,
            SeriesBuffer::Text($text) => $text_body,
        }
    };
}

impl SeriesBuffer {
    /// Creates an empty buffer of the given type.
    pub fn new(dt: DataType, array_size: usize) -> Self {
        match dt {
            DataType::Int32 => SeriesBuffer::Int(TVList::with_array_size(array_size)),
            DataType::Int64 => SeriesBuffer::Long(TVList::with_array_size(array_size)),
            DataType::Float => SeriesBuffer::Float(TVList::with_array_size(array_size)),
            DataType::Double => SeriesBuffer::Double(TVList::with_array_size(array_size)),
            DataType::Boolean => SeriesBuffer::Bool(TVList::with_array_size(array_size)),
            DataType::Text => SeriesBuffer::Text(TextTVList::new()),
        }
    }

    /// The buffer's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            SeriesBuffer::Int(_) => DataType::Int32,
            SeriesBuffer::Long(_) => DataType::Int64,
            SeriesBuffer::Float(_) => DataType::Float,
            SeriesBuffer::Double(_) => DataType::Double,
            SeriesBuffer::Bool(_) => DataType::Boolean,
            SeriesBuffer::Text(_) => DataType::Text,
        }
    }

    /// Appends a point, rejecting a type mismatch.
    ///
    /// The error path is built by the `#[cold]` constructor in
    /// [`crate::batch`], so one mistyped INSERT is a dropped write and a
    /// bumped counter, never an engine abort.
    pub fn push(&mut self, t: i64, v: TsValue) -> Result<(), WriteError> {
        match (self, v) {
            (SeriesBuffer::Int(l), TsValue::Int(v)) => l.push(t, v),
            (SeriesBuffer::Long(l), TsValue::Long(v)) => l.push(t, v),
            (SeriesBuffer::Float(l), TsValue::Float(v)) => l.push(t, v),
            (SeriesBuffer::Double(l), TsValue::Double(v)) => l.push(t, v),
            (SeriesBuffer::Bool(l), TsValue::Bool(v)) => l.push(t, v),
            (SeriesBuffer::Text(l), TsValue::Text(v)) => l.push(t, v),
            (buf, v) => return Err(type_mismatch(buf.data_type(), v.data_type())),
        }
        Ok(())
    }

    /// Bulk-appends an aligned column run, rejecting a type mismatch
    /// before any mutation. The numeric arms hand the slices straight to
    /// [`TVList::extend_from_slices`] — one monomorphized memcpy-style
    /// append per chunk instead of a per-point enum dispatch.
    pub fn extend_columns(&mut self, ts: &[i64], vals: ColumnSlice<'_>) -> Result<(), WriteError> {
        match (self, vals) {
            (SeriesBuffer::Int(l), ColumnSlice::Int(vs)) => l.extend_from_slices(ts, vs),
            (SeriesBuffer::Long(l), ColumnSlice::Long(vs)) => l.extend_from_slices(ts, vs),
            (SeriesBuffer::Float(l), ColumnSlice::Float(vs)) => l.extend_from_slices(ts, vs),
            (SeriesBuffer::Double(l), ColumnSlice::Double(vs)) => l.extend_from_slices(ts, vs),
            (SeriesBuffer::Bool(l), ColumnSlice::Bool(vs)) => l.extend_from_slices(ts, vs),
            (SeriesBuffer::Text(l), ColumnSlice::Text(vs)) => {
                for (&t, v) in ts.iter().zip(vs) {
                    l.push(t, v.clone());
                }
            }
            (buf, vals) => return Err(type_mismatch(buf.data_type(), vals.data_type())),
        }
        Ok(())
    }

    /// Number of buffered points.
    pub fn len(&self) -> usize {
        for_each_buffer!(self, l => l.len(), t => t.len())
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether appends have stayed time-ordered.
    pub fn is_sorted(&self) -> bool {
        for_each_buffer!(self, l => l.is_sorted(), t => t.is_sorted())
    }

    /// Smallest buffered timestamp.
    pub fn min_time(&self) -> Option<i64> {
        for_each_buffer!(self, l => l.min_time(), t => t.min_time())
    }

    /// Largest buffered timestamp.
    pub fn max_time(&self) -> Option<i64> {
        for_each_buffer!(self, l => l.max_time(), t => t.max_time())
    }

    /// Approximate heap usage for memtable accounting.
    pub fn memory_bytes(&self) -> usize {
        for_each_buffer!(self, l => l.memory_bytes(), t => t.memory_bytes())
    }

    /// Length of the buffer's leading time-ordered run — all of it when
    /// [`is_sorted`](Self::is_sorted). What a sort still owes is the
    /// rest: the points that arrived since order last held.
    pub fn sorted_len(&self) -> usize {
        for_each_buffer!(self, l => l.sorted_len(), t => t.sorted_len())
    }

    /// Time-orders the buffer in place with the given algorithm, if it
    /// is not already — the sort-on-read of a dirty buffer. The cost is
    /// that of the unsorted tail, not of the buffer: the list knows how
    /// long its ordered run is ([`sorted_len`](Self::sorted_len)), and
    /// [`Algorithm::sort_from_observed`] sorts the rest flat and merges
    /// the two from the back, so a read that follows a read pays for
    /// the points written in between and their overlap `Q` with the run.
    /// A flush sorts a contiguous copy through the same function (see
    /// [`flush_memtable`](crate::flush::flush_memtable)). Streams the
    /// algorithm's telemetry (block size, probe loops, `α̃_L`, per-merge
    /// overlap `Q`) into `obs` when given. Returns what the sort did, or
    /// `None` when the buffer was already ordered and none ran.
    pub fn sort_with_observed(
        &mut self,
        alg: &Algorithm,
        obs: Option<&backsort_obs::Registry>,
    ) -> Option<TailSort> {
        if self.is_sorted() {
            return None;
        }
        fn sort<V: Value>(
            list: &mut TVList<V>,
            alg: &Algorithm,
            obs: Option<&backsort_obs::Registry>,
        ) -> MergeStats {
            let sorted_len = list.sorted_len();
            let merge = alg.sort_from_observed(list, sorted_len, obs);
            list.mark_sorted();
            merge
        }
        let prefix = self.sorted_len();
        let tail = self.len() - prefix;
        let merge =
            for_each_buffer!(self, l => sort(l, alg, obs), t => sort(t.sortable(), alg, obs));
        Some(TailSort {
            prefix,
            tail,
            merge,
        })
    }

    /// The point at index `i` as a dynamic value.
    pub fn get(&self, i: usize) -> (i64, TsValue) {
        match self {
            SeriesBuffer::Int(l) => (l.time(i), TsValue::Int(l.value(i))),
            SeriesBuffer::Long(l) => (l.time(i), TsValue::Long(l.value(i))),
            SeriesBuffer::Float(l) => (l.time(i), TsValue::Float(l.value(i))),
            SeriesBuffer::Double(l) => (l.time(i), TsValue::Double(l.value(i))),
            SeriesBuffer::Bool(l) => (l.time(i), TsValue::Bool(l.value(i))),
            SeriesBuffer::Text(l) => (l.time(i), TsValue::Text(l.text(i).to_string())),
        }
    }

    /// Binary-searches the first index with `time >= t`. Requires the
    /// buffer to be sorted.
    pub fn lower_bound(&self, t: i64) -> usize {
        debug_assert!(self.is_sorted());
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mt = for_each_buffer!(self, l => l.time(mid), t => t.time(mid));
            if mt < t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Binary-searches the first index with `time > t` (the exclusive
    /// end of a `[t_lo, t_hi]` range scan). Requires the buffer to be
    /// sorted.
    pub fn upper_bound(&self, t: i64) -> usize {
        debug_assert!(self.is_sorted());
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mt = for_each_buffer!(self, l => l.time(mid), t => t.time(mid));
            if mt <= t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Timestamp at index `i`.
    pub fn time(&self, i: usize) -> i64 {
        for_each_buffer!(self, l => l.time(i), t => t.time(i))
    }

    /// Copies the index range `range` of the buffer out as deduplicated
    /// columns — last write wins on equal timestamps. Requires the
    /// buffer to be sorted. A `lower_bound..upper_bound` range is what a
    /// query streams from a buffer no other run overlaps.
    pub fn dedup_columns(&self, range: std::ops::Range<usize>) -> (Vec<i64>, ValueColumn) {
        debug_assert!(self.is_sorted());
        match self {
            SeriesBuffer::Int(l) => {
                let (ts, vs) = dedup_last(range, |i| l.time(i), |i| l.value(i));
                (ts, ValueColumn::Int(vs))
            }
            SeriesBuffer::Long(l) => {
                let (ts, vs) = dedup_last(range, |i| l.time(i), |i| l.value(i));
                (ts, ValueColumn::Long(vs))
            }
            SeriesBuffer::Float(l) => {
                let (ts, vs) = dedup_last(range, |i| l.time(i), |i| l.value(i));
                (ts, ValueColumn::Float(vs))
            }
            SeriesBuffer::Double(l) => {
                let (ts, vs) = dedup_last(range, |i| l.time(i), |i| l.value(i));
                (ts, ValueColumn::Double(vs))
            }
            SeriesBuffer::Bool(l) => {
                let (ts, vs) = dedup_last(range, |i| l.time(i), |i| l.value(i));
                (ts, ValueColumn::Bool(vs))
            }
            SeriesBuffer::Text(l) => {
                let (ts, vs) = dedup_last(range, |i| l.time(i), |i| l.text(i).to_string());
                (ts, ValueColumn::Text(vs))
            }
        }
    }

    /// Removes all points with timestamps in `[t_lo, t_hi]`. Returns how
    /// many were removed.
    pub fn delete_range(&mut self, t_lo: i64, t_hi: i64) -> usize {
        for_each_buffer!(
            self,
            l => l.retain(|t, _| !(t_lo..=t_hi).contains(&t)),
            t => t.retain(|ts, _| !(t_lo..=t_hi).contains(&ts))
        )
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

/// The `Δτ` pre-pass for a bulk append: walks the raw timestamp column
/// with a running maximum seeded from the buffer's previous max and
/// records `max − t` for every late arrival — identical, point for
/// point, to what a sequence of single writes would have measured.
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

/// Columnar last-wins dedup over an index range of an
/// index-addressable sorted buffer.
pub(crate) fn dedup_last<T>(
    range: std::ops::Range<usize>,
    time: impl Fn(usize) -> i64,
    mut value: impl FnMut(usize) -> T,
) -> (Vec<i64>, Vec<T>) {
    let mut ts: Vec<i64> = Vec::with_capacity(range.len());
    let mut vs: Vec<T> = Vec::with_capacity(range.len());
    for i in range {
        let t = time(i);
        if ts.last() == Some(&t) {
            if let Some(slot) = vs.last_mut() {
                *slot = value(i);
            }
        } else {
            ts.push(t);
            vs.push(value(i));
        }
    }
    (ts, vs)
}

/// A memtable: one [`SeriesBuffer`] per sensor, plus occupancy accounting.
#[derive(Debug, Default, Clone)]
pub struct MemTable {
    series: BTreeMap<SeriesKey, SeriesBuffer>,
    total_points: usize,
    array_size: usize,
}

impl MemTable {
    /// Creates an empty memtable whose TVLists use the given chunk size.
    pub fn new(array_size: usize) -> Self {
        Self {
            series: BTreeMap::new(),
            total_points: 0,
            array_size: array_size.max(1),
        }
    }

    /// Appends one point, creating the sensor's buffer on first write.
    ///
    /// Returns the point's out-of-order distance `Δτ` — how far behind
    /// the buffer's previous maximum timestamp it arrived — when
    /// positive, `None` for in-order arrivals (the common case). The
    /// buffer maximum is tracked on write, so this is one compare per
    /// point, not a scan.
    ///
    /// A value whose type does not match the sensor's established type
    /// is rejected with [`WriteError::TypeMismatch`]; the buffer is left
    /// untouched.
    pub fn write(
        &mut self,
        key: &SeriesKey,
        t: i64,
        v: TsValue,
    ) -> Result<Option<i64>, WriteError> {
        let delta = if let Some(buf) = self.series.get_mut(key) {
            let delta = buf.max_time().filter(|&m| t < m).map(|m| m - t);
            buf.push(t, v)?;
            delta
        } else {
            let mut buf = SeriesBuffer::new(v.data_type(), self.array_size);
            buf.push(t, v)?;
            self.series.insert(key.clone(), buf);
            None
        };
        self.total_points += 1;
        Ok(delta)
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
            let mut buf = SeriesBuffer::new(vals.data_type(), self.array_size);
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

    /// Approximate heap usage.
    pub fn memory_bytes(&self) -> usize {
        self.series.values().map(|b| b.memory_bytes()).sum()
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
mod tests {
    use super::*;
    use backsort_core::BackwardSort;

    fn key(s: &str) -> SeriesKey {
        SeriesKey::new("root.sg.d1", s)
    }

    #[test]
    fn write_and_read_back() {
        let mut mt = MemTable::new(32);
        mt.write(&key("s1"), 5, TsValue::Double(1.5)).unwrap();
        mt.write(&key("s1"), 3, TsValue::Double(2.5)).unwrap();
        mt.write(&key("s2"), 1, TsValue::Int(7)).unwrap();
        assert_eq!(mt.total_points(), 3);
        assert_eq!(mt.series_count(), 2);
        let s1 = mt.get(&key("s1")).unwrap();
        assert_eq!(s1.len(), 2);
        assert_eq!(s1.get(0), (5, TsValue::Double(1.5)));
        assert!(!s1.is_sorted());
    }

    #[test]
    fn type_mismatch_is_rejected_not_fatal() {
        let mut mt = MemTable::new(32);
        mt.write(&key("s1"), 1, TsValue::Int(1)).unwrap();
        let err = mt.write(&key("s1"), 2, TsValue::Double(2.0)).unwrap_err();
        assert!(matches!(err, WriteError::TypeMismatch { .. }));
        // The rejected write must leave the memtable untouched and alive:
        // accounting unchanged, and correctly-typed writes still land.
        assert_eq!(mt.total_points(), 1);
        assert_eq!(mt.get(&key("s1")).unwrap().len(), 1);
        assert_eq!(mt.write(&key("s1"), 2, TsValue::Int(2)), Ok(None));
        assert_eq!(mt.total_points(), 2);

        // Same contract on the bulk path, including first-contact runs.
        let mut deltas = LocalHistogram::new();
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
        assert_eq!(deltas.count(), 0, "no Δτ recorded for a rejected run");
        mt.write_columns(&key("s1"), &[3, 4], ColumnSlice::Int(&[3, 4]), &mut deltas)
            .unwrap();
        assert_eq!(mt.total_points(), 4);
    }

    #[test]
    fn write_columns_matches_single_writes() {
        let ts = [5i64, 3, 9, 9, 1, 12];
        let vs = [50i64, 30, 90, 91, 10, 120];

        let mut a = MemTable::new(4);
        let mut single_deltas: Vec<i64> = Vec::new();
        for (&t, &v) in ts.iter().zip(&vs) {
            if let Some(d) = a.write(&key("s"), t, TsValue::Long(v)).unwrap() {
                single_deltas.push(d);
            }
        }

        let mut b = MemTable::new(4);
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
            deltas.count() as usize,
            single_deltas.len(),
            "bulk Δτ pass must see the same late arrivals"
        );
    }

    #[test]
    fn dedup_columns_keeps_last_write() {
        let mut buf = SeriesBuffer::new(DataType::Int32, 4);
        for (t, v) in [(1i64, 1i32), (2, 2), (2, 22), (2, 222), (3, 3)] {
            buf.push(t, TsValue::Int(v)).unwrap();
        }
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
        let mut mt = MemTable::new(8);
        for (t, v) in [(4i64, 40i32), (1, 10), (3, 30), (2, 20)] {
            mt.write(&key("s1"), t, TsValue::Int(v)).unwrap();
        }
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
        let mut buf = SeriesBuffer::new(DataType::Int64, 4);
        for t in [1i64, 3, 5, 7, 9] {
            buf.push(t, TsValue::Long(t)).unwrap();
        }
        assert_eq!(buf.lower_bound(0), 0);
        assert_eq!(buf.lower_bound(3), 1);
        assert_eq!(buf.lower_bound(4), 2);
        assert_eq!(buf.lower_bound(10), 5);
    }

    #[test]
    fn upper_bound_on_sorted_buffer() {
        let mut buf = SeriesBuffer::new(DataType::Int64, 4);
        for t in [1i64, 3, 5, 7, 9] {
            buf.push(t, TsValue::Long(t)).unwrap();
        }
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
        let mut mt = MemTable::new(16);
        mt.write(&key("i"), 1, TsValue::Int(1)).unwrap();
        mt.write(&key("l"), 1, TsValue::Long(2)).unwrap();
        mt.write(&key("f"), 1, TsValue::Float(3.0)).unwrap();
        mt.write(&key("d"), 1, TsValue::Double(4.0)).unwrap();
        mt.write(&key("b"), 1, TsValue::Bool(true)).unwrap();
        assert_eq!(mt.series_count(), 5);
        for (_, buf) in mt.iter() {
            assert_eq!(buf.len(), 1);
            assert!(buf.min_time() == Some(1) && buf.max_time() == Some(1));
        }
    }

    #[test]
    fn memory_accounting_grows() {
        let mut mt = MemTable::new(32);
        assert_eq!(mt.memory_bytes(), 0);
        for t in 0..100 {
            mt.write(&key("s"), t, TsValue::Double(0.0)).unwrap();
        }
        assert!(mt.memory_bytes() >= 100 * 16);
    }
}
