//! The columnar point batch — one object from socket to disk.
//!
//! An INSERT (or a benchmark writer) assembles a [`PointBatch`]: a
//! timestamp column (`Vec<i64>`) next to one typed value column, the same
//! separated-column layout the TVList stores and the TsFile encodes. Every
//! downstream layer consumes the batch whole — the engine splits it once
//! at the watermark into column runs, the WAL encodes it as a single
//! delta-compressed frame, the memtable bulk-appends runs with one series
//! lookup per batch — so the per-point overhead (HashMap probes, WAL
//! frames, enum dispatch) is paid per *batch* instead.
//!
//! [`BatchPool`] recycles the backing allocations through
//! [`ArrayPool`](backsort_tvlist::ArrayPool), so a steady-state writer
//! reuses the same columns for every batch.

use std::fmt;

use backsort_tvlist::ArrayPool;

use crate::types::{DataType, TsValue};

/// Why a write was rejected. The engine returns this instead of
/// panicking, so one mistyped INSERT cannot abort the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The value's type does not match the series' established type.
    TypeMismatch {
        /// The type the series was created with.
        expected: DataType,
        /// The type the offending value carried.
        got: DataType,
    },
    /// The timestamp and value columns have different lengths.
    ShapeMismatch {
        /// Timestamp column length.
        ts: usize,
        /// Value column length.
        values: usize,
    },
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: series is {expected:?}, value is {got:?}")
            }
            WriteError::ShapeMismatch { ts, values } => {
                write!(f, "shape mismatch: {ts} timestamps against {values} values")
            }
        }
    }
}

impl std::error::Error for WriteError {}

/// Builds the type-mismatch rejection off the hot path: every write
/// call's success path stays branch-predictable, and the error
/// construction code is not inlined into it.
#[cold]
#[inline(never)]
pub(crate) fn type_mismatch(expected: DataType, got: DataType) -> WriteError {
    WriteError::TypeMismatch { expected, got }
}

/// A typed value column — the value half of a [`PointBatch`], matching
/// [`SeriesBuffer`](crate::memtable::SeriesBuffer) variant for variant.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueColumn {
    /// INT32 values.
    Int(Vec<i32>),
    /// INT64 values.
    Long(Vec<i64>),
    /// FLOAT values.
    Float(Vec<f32>),
    /// DOUBLE values.
    Double(Vec<f64>),
    /// BOOLEAN values.
    Bool(Vec<bool>),
    /// TEXT values.
    Text(Vec<String>),
}

/// A borrowed run of a [`ValueColumn`] — what the engine hands to the
/// memtable and the flush pipeline after splitting a batch at the
/// watermark.
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    /// INT32 run.
    Int(&'a [i32]),
    /// INT64 run.
    Long(&'a [i64]),
    /// FLOAT run.
    Float(&'a [f32]),
    /// DOUBLE run.
    Double(&'a [f64]),
    /// BOOLEAN run.
    Bool(&'a [bool]),
    /// TEXT run.
    Text(&'a [String]),
}

impl ColumnSlice<'_> {
    /// The run's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnSlice::Int(_) => DataType::Int32,
            ColumnSlice::Long(_) => DataType::Int64,
            ColumnSlice::Float(_) => DataType::Float,
            ColumnSlice::Double(_) => DataType::Double,
            ColumnSlice::Bool(_) => DataType::Boolean,
            ColumnSlice::Text(_) => DataType::Text,
        }
    }

    /// Number of values in the run.
    pub fn len(&self) -> usize {
        match self {
            ColumnSlice::Int(s) => s.len(),
            ColumnSlice::Long(s) => s.len(),
            ColumnSlice::Float(s) => s.len(),
            ColumnSlice::Double(s) => s.len(),
            ColumnSlice::Bool(s) => s.len(),
            ColumnSlice::Text(s) => s.len(),
        }
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at index `i` as a dynamic value, or `None` out of range.
    pub fn get(&self, i: usize) -> Option<TsValue> {
        Some(match self {
            ColumnSlice::Int(s) => TsValue::Int(*s.get(i)?),
            ColumnSlice::Long(s) => TsValue::Long(*s.get(i)?),
            ColumnSlice::Float(s) => TsValue::Float(*s.get(i)?),
            ColumnSlice::Double(s) => TsValue::Double(*s.get(i)?),
            ColumnSlice::Bool(s) => TsValue::Bool(*s.get(i)?),
            ColumnSlice::Text(s) => TsValue::Text(s.get(i)?.clone()),
        })
    }

    /// Borrows the sub-run `lo..hi`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, lo: usize, hi: usize) -> Self {
        match self {
            ColumnSlice::Int(s) => ColumnSlice::Int(&s[lo..hi]),
            ColumnSlice::Long(s) => ColumnSlice::Long(&s[lo..hi]),
            ColumnSlice::Float(s) => ColumnSlice::Float(&s[lo..hi]),
            ColumnSlice::Double(s) => ColumnSlice::Double(&s[lo..hi]),
            ColumnSlice::Bool(s) => ColumnSlice::Bool(&s[lo..hi]),
            ColumnSlice::Text(s) => ColumnSlice::Text(&s[lo..hi]),
        }
    }

    /// Appends the run to `out` as `(time, value)` rows, pairing it
    /// index by index with `times` — the one place typed columns turn
    /// back into dynamic rows (the raw-row query result, the row
    /// adapters over the page decoder).
    pub fn zip_rows_into(&self, times: &[i64], out: &mut Vec<(i64, TsValue)>) {
        let t = times.iter().copied();
        match self {
            ColumnSlice::Int(s) => out.extend(t.zip(s.iter().map(|&v| TsValue::Int(v)))),
            ColumnSlice::Long(s) => out.extend(t.zip(s.iter().map(|&v| TsValue::Long(v)))),
            ColumnSlice::Float(s) => out.extend(t.zip(s.iter().map(|&v| TsValue::Float(v)))),
            ColumnSlice::Double(s) => out.extend(t.zip(s.iter().map(|&v| TsValue::Double(v)))),
            ColumnSlice::Bool(s) => out.extend(t.zip(s.iter().map(|&v| TsValue::Bool(v)))),
            ColumnSlice::Text(s) => out.extend(t.zip(s.iter().map(|v| TsValue::Text(v.clone())))),
        }
    }

    /// Copies the run into an owned column.
    pub fn to_column(&self) -> ValueColumn {
        match self {
            ColumnSlice::Int(s) => ValueColumn::Int(s.to_vec()),
            ColumnSlice::Long(s) => ValueColumn::Long(s.to_vec()),
            ColumnSlice::Float(s) => ValueColumn::Float(s.to_vec()),
            ColumnSlice::Double(s) => ValueColumn::Double(s.to_vec()),
            ColumnSlice::Bool(s) => ValueColumn::Bool(s.to_vec()),
            ColumnSlice::Text(s) => ValueColumn::Text(s.to_vec()),
        }
    }
}

macro_rules! for_each_column {
    ($self:expr, $v:ident => $body:expr) => {
        match $self {
            ValueColumn::Int($v) => $body,
            ValueColumn::Long($v) => $body,
            ValueColumn::Float($v) => $body,
            ValueColumn::Double($v) => $body,
            ValueColumn::Bool($v) => $body,
            ValueColumn::Text($v) => $body,
        }
    };
}

impl ValueColumn {
    /// Creates an empty column of the given type.
    pub fn new(dt: DataType) -> Self {
        Self::with_capacity(dt, 0)
    }

    /// Creates an empty column with reserved capacity.
    pub fn with_capacity(dt: DataType, capacity: usize) -> Self {
        match dt {
            DataType::Int32 => ValueColumn::Int(Vec::with_capacity(capacity)),
            DataType::Int64 => ValueColumn::Long(Vec::with_capacity(capacity)),
            DataType::Float => ValueColumn::Float(Vec::with_capacity(capacity)),
            DataType::Double => ValueColumn::Double(Vec::with_capacity(capacity)),
            DataType::Boolean => ValueColumn::Bool(Vec::with_capacity(capacity)),
            DataType::Text => ValueColumn::Text(Vec::with_capacity(capacity)),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ValueColumn::Int(_) => DataType::Int32,
            ValueColumn::Long(_) => DataType::Int64,
            ValueColumn::Float(_) => DataType::Float,
            ValueColumn::Double(_) => DataType::Double,
            ValueColumn::Bool(_) => DataType::Boolean,
            ValueColumn::Text(_) => DataType::Text,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        for_each_column!(self, v => v.len())
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a dynamic value, rejecting a type mismatch.
    pub fn push(&mut self, v: TsValue) -> Result<(), WriteError> {
        match (self, v) {
            (ValueColumn::Int(c), TsValue::Int(v)) => c.push(v),
            (ValueColumn::Long(c), TsValue::Long(v)) => c.push(v),
            (ValueColumn::Float(c), TsValue::Float(v)) => c.push(v),
            (ValueColumn::Double(c), TsValue::Double(v)) => c.push(v),
            (ValueColumn::Bool(c), TsValue::Bool(v)) => c.push(v),
            (ValueColumn::Text(c), TsValue::Text(v)) => c.push(v),
            (col, v) => return Err(type_mismatch(col.data_type(), v.data_type())),
        }
        Ok(())
    }

    /// The value at index `i` as a dynamic value, or `None` out of range.
    pub fn get(&self, i: usize) -> Option<TsValue> {
        Some(match self {
            ValueColumn::Int(c) => TsValue::Int(*c.get(i)?),
            ValueColumn::Long(c) => TsValue::Long(*c.get(i)?),
            ValueColumn::Float(c) => TsValue::Float(*c.get(i)?),
            ValueColumn::Double(c) => TsValue::Double(*c.get(i)?),
            ValueColumn::Bool(c) => TsValue::Bool(*c.get(i)?),
            ValueColumn::Text(c) => TsValue::Text(c.get(i)?.clone()),
        })
    }

    /// Borrows the whole column.
    pub fn as_slice(&self) -> ColumnSlice<'_> {
        self.slice(0, self.len())
    }

    /// Borrows the run `lo..hi`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, lo: usize, hi: usize) -> ColumnSlice<'_> {
        match self {
            ValueColumn::Int(c) => ColumnSlice::Int(&c[lo..hi]),
            ValueColumn::Long(c) => ColumnSlice::Long(&c[lo..hi]),
            ValueColumn::Float(c) => ColumnSlice::Float(&c[lo..hi]),
            ValueColumn::Double(c) => ColumnSlice::Double(&c[lo..hi]),
            ValueColumn::Bool(c) => ColumnSlice::Bool(&c[lo..hi]),
            ValueColumn::Text(c) => ColumnSlice::Text(&c[lo..hi]),
        }
    }

    /// Removes all values, keeping the allocation.
    pub fn clear(&mut self) {
        for_each_column!(self, v => v.clear());
    }

    /// Encodes the column into `out` with the same per-type schemes the
    /// TsFile uses (TS_2DIFF/RLE for integers, Gorilla for floats, bit
    /// packing for booleans, length-prefixed UTF-8 for text). The
    /// payload is self-delimiting — it carries its own count.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use crate::encoding::{boolpack, gorilla, intcolumn, textpack};
        let payload = match self {
            ValueColumn::Int(c) => {
                let widened: Vec<i64> = c.iter().map(|&v| i64::from(v)).collect();
                intcolumn::encode(&widened)
            }
            ValueColumn::Long(c) => intcolumn::encode(c),
            ValueColumn::Float(c) => gorilla::encode_f32(c),
            ValueColumn::Double(c) => gorilla::encode_f64(c),
            ValueColumn::Bool(c) => boolpack::encode(c),
            ValueColumn::Text(c) => textpack::encode(c),
        };
        out.extend_from_slice(&payload);
    }

    /// Decodes an [`encode_into`](Self::encode_into) payload of the given
    /// type, verifying it carries exactly `count` values. Total: returns
    /// `None` on any malformed input.
    pub fn decode(dt: DataType, count: usize, buf: &[u8]) -> Option<ValueColumn> {
        use crate::encoding::{boolpack, gorilla, intcolumn, textpack};
        let col = match dt {
            DataType::Int32 => {
                let wide = intcolumn::decode(buf)?;
                let mut narrow = Vec::with_capacity(wide.len());
                for v in wide {
                    narrow.push(i32::try_from(v).ok()?);
                }
                ValueColumn::Int(narrow)
            }
            DataType::Int64 => ValueColumn::Long(intcolumn::decode(buf)?),
            DataType::Float => ValueColumn::Float(gorilla::decode_f32(buf)?),
            DataType::Double => ValueColumn::Double(gorilla::decode_f64(buf)?),
            DataType::Boolean => ValueColumn::Bool(boolpack::decode(buf)?),
            DataType::Text => ValueColumn::Text(textpack::decode(buf)?),
        };
        (col.len() == count).then_some(col)
    }
}

/// A columnar batch of points for one series: a timestamp column next to
/// a typed value column, index-aligned.
///
/// This is the ingest unit the whole write path shares: SQL assembles
/// one, [`StorageEngine::write_batch`](crate::StorageEngine::write_batch)
/// splits it at the watermark into [`ColumnSlice`] runs, the WAL encodes
/// it as one frame, and replay feeds the decoded batch back through the
/// same path.
#[derive(Debug, Clone, PartialEq)]
pub struct PointBatch {
    ts: Vec<i64>,
    values: ValueColumn,
}

impl PointBatch {
    /// Creates an empty batch of the given type.
    pub fn new(dt: DataType) -> Self {
        Self::with_capacity(dt, 0)
    }

    /// Creates an empty batch with reserved capacity in both columns.
    pub fn with_capacity(dt: DataType, capacity: usize) -> Self {
        Self {
            ts: Vec::with_capacity(capacity),
            values: ValueColumn::with_capacity(dt, capacity),
        }
    }

    /// Builds a batch from aligned columns, rejecting a length mismatch.
    pub fn from_columns(ts: Vec<i64>, values: ValueColumn) -> Result<Self, WriteError> {
        if ts.len() != values.len() {
            return Err(WriteError::ShapeMismatch {
                ts: ts.len(),
                values: values.len(),
            });
        }
        Ok(Self { ts, values })
    }

    /// Builds a batch from row tuples; the first row fixes the type, any
    /// later row of a different type is rejected. An empty input yields
    /// an empty INT64 batch (writing it is a no-op either way).
    pub fn from_rows(rows: impl IntoIterator<Item = (i64, TsValue)>) -> Result<Self, WriteError> {
        let mut iter = rows.into_iter();
        let (lo, _) = iter.size_hint();
        let Some((t0, v0)) = iter.next() else {
            return Ok(Self::new(DataType::Int64));
        };
        let mut batch = Self::with_capacity(v0.data_type(), lo.max(1));
        batch.push(t0, v0)?;
        for (t, v) in iter {
            batch.push(t, v)?;
        }
        Ok(batch)
    }

    /// Appends one point, rejecting a type mismatch.
    pub fn push(&mut self, t: i64, v: TsValue) -> Result<(), WriteError> {
        self.values.push(v)?;
        self.ts.push(t);
        Ok(())
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The batch's value type.
    pub fn data_type(&self) -> DataType {
        self.values.data_type()
    }

    /// The timestamp column.
    pub fn ts(&self) -> &[i64] {
        &self.ts
    }

    /// The value column.
    pub fn values(&self) -> &ValueColumn {
        &self.values
    }

    /// Borrows the aligned run `lo..hi` of both columns.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, lo: usize, hi: usize) -> (&[i64], ColumnSlice<'_>) {
        (&self.ts[lo..hi], self.values.slice(lo, hi))
    }

    /// The point at index `i` as a row, or `None` out of range.
    pub fn get(&self, i: usize) -> Option<(i64, TsValue)> {
        Some((*self.ts.get(i)?, self.values.get(i)?))
    }

    /// Copies the batch out as row tuples (tests and diagnostics; the
    /// hot paths stay columnar).
    pub fn rows(&self) -> Vec<(i64, TsValue)> {
        (0..self.len()).filter_map(|i| self.get(i)).collect()
    }

    /// Removes all points, keeping both columns' allocations — the
    /// steady-state reuse loop: fill, write, clear, refill.
    pub fn clear(&mut self) {
        self.ts.clear();
        self.values.clear();
    }

    /// Consumes the batch into its columns (for pooling).
    pub fn into_columns(self) -> (Vec<i64>, ValueColumn) {
        (self.ts, self.values)
    }
}

/// Recycles [`PointBatch`] backing allocations per type, built on the
/// TVList chunk pool ([`ArrayPool`]): the timestamp/value vector pair of
/// a released batch comes back out of [`BatchPool::acquire`] for the
/// next one, so steady-state batched ingest allocates nothing. `Text`
/// batches are the exception — their strings own heap anyway, so they
/// are dropped rather than pooled.
#[derive(Debug)]
pub struct BatchPool {
    ints: ArrayPool<i32>,
    longs: ArrayPool<i64>,
    floats: ArrayPool<f32>,
    doubles: ArrayPool<f64>,
    bools: ArrayPool<bool>,
}

impl BatchPool {
    /// Creates a pool retaining at most `capacity` column pairs per type.
    pub fn new(capacity: usize) -> Self {
        Self {
            ints: ArrayPool::new(capacity),
            longs: ArrayPool::new(capacity),
            floats: ArrayPool::new(capacity),
            doubles: ArrayPool::new(capacity),
            bools: ArrayPool::new(capacity),
        }
    }

    /// Takes an empty batch of the given type, reusing pooled columns
    /// when available.
    pub fn acquire(&mut self, dt: DataType, capacity: usize) -> PointBatch {
        match dt {
            DataType::Int32 => {
                let (ts, vs) = self.ints.get(capacity);
                PointBatch {
                    ts,
                    values: ValueColumn::Int(vs),
                }
            }
            DataType::Int64 => {
                let (ts, vs) = self.longs.get(capacity);
                PointBatch {
                    ts,
                    values: ValueColumn::Long(vs),
                }
            }
            DataType::Float => {
                let (ts, vs) = self.floats.get(capacity);
                PointBatch {
                    ts,
                    values: ValueColumn::Float(vs),
                }
            }
            DataType::Double => {
                let (ts, vs) = self.doubles.get(capacity);
                PointBatch {
                    ts,
                    values: ValueColumn::Double(vs),
                }
            }
            DataType::Boolean => {
                let (ts, vs) = self.bools.get(capacity);
                PointBatch {
                    ts,
                    values: ValueColumn::Bool(vs),
                }
            }
            DataType::Text => PointBatch::with_capacity(DataType::Text, capacity),
        }
    }

    /// Returns a batch's columns to the pool for reuse.
    pub fn release(&mut self, batch: PointBatch) {
        let (ts, values) = batch.into_columns();
        match values {
            ValueColumn::Int(vs) => self.ints.put(ts, vs),
            ValueColumn::Long(vs) => self.longs.put(ts, vs),
            ValueColumn::Float(vs) => self.floats.put(ts, vs),
            ValueColumn::Double(vs) => self.doubles.put(ts, vs),
            ValueColumn::Bool(vs) => self.bools.put(ts, vs),
            ValueColumn::Text(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_rows_roundtrip() {
        let mut b = PointBatch::new(DataType::Double);
        b.push(1, TsValue::Double(1.5)).unwrap();
        b.push(2, TsValue::Double(2.5)).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.data_type(), DataType::Double);
        assert_eq!(
            b.rows(),
            vec![(1, TsValue::Double(1.5)), (2, TsValue::Double(2.5))]
        );
        assert_eq!(b.get(5), None);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn mismatched_push_is_rejected() {
        let mut b = PointBatch::new(DataType::Int32);
        b.push(1, TsValue::Int(1)).unwrap();
        let err = b.push(2, TsValue::Double(2.0)).unwrap_err();
        assert_eq!(
            err,
            WriteError::TypeMismatch {
                expected: DataType::Int32,
                got: DataType::Double
            }
        );
        // The failed push must not desync the columns.
        assert_eq!(b.len(), 1);
        assert_eq!(b.ts().len(), b.values().len());
        assert!(err.to_string().contains("type mismatch"));
    }

    #[test]
    fn from_rows_fixes_type_on_first_row() {
        let b =
            PointBatch::from_rows(vec![(1, TsValue::Long(10)), (2, TsValue::Long(20))]).unwrap();
        assert_eq!(b.data_type(), DataType::Int64);
        assert_eq!(b.ts(), &[1, 2]);
        let err = PointBatch::from_rows(vec![(1, TsValue::Long(10)), (2, TsValue::Bool(true))])
            .unwrap_err();
        assert!(matches!(err, WriteError::TypeMismatch { .. }));
        assert!(PointBatch::from_rows(vec![]).unwrap().is_empty());
    }

    #[test]
    fn from_columns_checks_shape() {
        let err =
            PointBatch::from_columns(vec![1, 2, 3], ValueColumn::Int(vec![1, 2])).unwrap_err();
        assert_eq!(err, WriteError::ShapeMismatch { ts: 3, values: 2 });
        assert!(err.to_string().contains("shape mismatch"));
        let ok = PointBatch::from_columns(vec![1, 2], ValueColumn::Int(vec![1, 2])).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn slices_are_aligned_runs() {
        let b = PointBatch::from_columns(
            vec![10, 20, 30, 40],
            ValueColumn::Float(vec![1.0, 2.0, 3.0, 4.0]),
        )
        .unwrap();
        let (ts, vs) = b.slice(1, 3);
        assert_eq!(ts, &[20, 30]);
        match vs {
            ColumnSlice::Float(f) => assert_eq!(f, &[2.0, 3.0]),
            other => panic!("wrong slice variant: {other:?}"),
        }
    }

    #[test]
    fn every_type_encodes_and_decodes() {
        let columns = vec![
            ValueColumn::Int(vec![1, -2, 3, i32::MAX, i32::MIN]),
            ValueColumn::Long(vec![10, -20, i64::MAX, i64::MIN]),
            ValueColumn::Float(vec![1.5, -2.5, f32::MAX]),
            ValueColumn::Double(vec![0.1, -0.2, f64::MAX, f64::MIN_POSITIVE]),
            ValueColumn::Bool(vec![true, false, true, true]),
            ValueColumn::Text(vec!["a".into(), "".into(), "héllo".into()]),
        ];
        for col in columns {
            let mut buf = Vec::new();
            col.encode_into(&mut buf);
            let back = ValueColumn::decode(col.data_type(), col.len(), &buf);
            assert_eq!(back.as_ref(), Some(&col), "{:?}", col.data_type());
            // A wrong count is rejected.
            assert_eq!(
                ValueColumn::decode(col.data_type(), col.len() + 1, &buf),
                None
            );
        }
    }

    #[test]
    fn decode_is_total_on_garbage() {
        for dt in [
            DataType::Int32,
            DataType::Int64,
            DataType::Float,
            DataType::Double,
            DataType::Boolean,
            DataType::Text,
        ] {
            let _ = ValueColumn::decode(dt, 3, &[]);
            let _ = ValueColumn::decode(dt, 3, &[0xFF; 7]);
            let _ = ValueColumn::decode(dt, 0, &[0x00]);
        }
        // An INT32 column whose payload decodes out of i32 range.
        let mut buf = Vec::new();
        ValueColumn::Long(vec![i64::MAX]).encode_into(&mut buf);
        assert_eq!(ValueColumn::decode(DataType::Int32, 1, &buf), None);
    }

    #[test]
    fn batch_pool_recycles_columns() {
        let mut pool = BatchPool::new(4);
        let mut b = pool.acquire(DataType::Double, 128);
        for i in 0..100 {
            b.push(i, TsValue::Double(i as f64)).unwrap();
        }
        pool.release(b);
        let b2 = pool.acquire(DataType::Double, 64);
        assert!(b2.is_empty(), "recycled batch comes back cleared");
        assert!(b2.ts.capacity() >= 128, "allocation was recycled");
        // Text batches are not pooled but still work.
        let t = pool.acquire(DataType::Text, 8);
        assert_eq!(t.data_type(), DataType::Text);
        pool.release(t);
    }
}
