//! The columnar point batch — one object from socket to disk.
//!
//! An INSERT (or a benchmark writer) assembles a [`PointBatch`]: a
//! timestamp column (`Vec<i64>`) next to one typed value column, the
//! separated-column layout the TsFile encodes. Every downstream layer
//! consumes the batch whole — the engine splits it once at the watermark
//! into column runs, the WAL logs it as a single frame, the memtable
//! copies each run onto the end of a series' flat `(time, value)` buffer
//! with one series lookup per batch — so the per-point overhead (HashMap
//! probes, WAL frames, enum dispatch) is paid per *batch* instead.
//!
//! # The byte form
//!
//! A batch has one byte form, the *batch payload*, which the wire's
//! batch request frame carries and the WAL's batch record logs:
//!
//! ```text
//! u16 device_len | device | u16 sensor_len | sensor | u8 dtype
//! u32 count | count × i64 timestamp | count × cell
//! ```
//!
//! `dtype` is [`DataType::tag`]. A value column is written as *cells*
//! ([`put_column`], [`read_column`], which the wire's rows frame uses
//! too): `i32` or `i64` little-endian, `f32` or `f64` bits (NaN payloads,
//! ±inf and −0.0 survive exactly), one byte `0`/`1` per bool, and
//! `u32 len | utf-8` per text. Fixed-width on purpose: a column is copied
//! in on one end and out on the other, and Gorilla or TS_2DIFF runs once
//! per point, in the flush. [`put_batch`] refuses a name or a payload its
//! length field cannot hold rather than truncate the length, which would
//! read back as another series. [`Unread`] checks every count against the
//! bytes that remain *before* it reserves for it, so a forged count or
//! text length fails on a short payload instead of allocating; a bool
//! byte above 1, bad UTF-8, an unknown type and trailing bytes are
//! refused too.

use std::fmt;
use std::io;

use crate::types::{DataType, SeriesKey, TsValue};

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

/// A typed value column — the value half of a [`PointBatch`], one variant
/// per type a [`SeriesBuffer`](crate::memtable::SeriesBuffer) holds.
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

    /// Appends a run of the same type, rejecting a type mismatch (and
    /// then appending nothing).
    pub fn append_run(&mut self, values: ColumnSlice<'_>) -> Result<(), WriteError> {
        match (self, values) {
            (ValueColumn::Int(c), ColumnSlice::Int(s)) => c.extend_from_slice(s),
            (ValueColumn::Long(c), ColumnSlice::Long(s)) => c.extend_from_slice(s),
            (ValueColumn::Float(c), ColumnSlice::Float(s)) => c.extend_from_slice(s),
            (ValueColumn::Double(c), ColumnSlice::Double(s)) => c.extend_from_slice(s),
            (ValueColumn::Bool(c), ColumnSlice::Bool(s)) => c.extend_from_slice(s),
            (ValueColumn::Text(c), ColumnSlice::Text(s)) => c.extend_from_slice(s),
            (col, s) => return Err(type_mismatch(col.data_type(), s.data_type())),
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

    /// Decodes a TsFile page's value column of the given type, verifying
    /// it carries exactly `count` values — before any value is produced,
    /// so a forged payload count cannot make the decoder emit more.
    /// Total: returns `None` on any malformed input.
    pub fn decode(dt: DataType, count: usize, buf: &[u8]) -> Option<ValueColumn> {
        use crate::encoding::{boolpack, gorilla, intcolumn, textpack};
        Some(match dt {
            DataType::Int32 => {
                let wide = intcolumn::decode(buf, count)?;
                let mut narrow = Vec::with_capacity(wide.len());
                for v in wide {
                    narrow.push(i32::try_from(v).ok()?);
                }
                ValueColumn::Int(narrow)
            }
            DataType::Int64 => ValueColumn::Long(intcolumn::decode(buf, count)?),
            DataType::Float => ValueColumn::Float(gorilla::decode_f32(buf, count)?),
            DataType::Double => ValueColumn::Double(gorilla::decode_f64(buf, count)?),
            DataType::Boolean => ValueColumn::Bool(boolpack::decode(buf, count)?),
            DataType::Text => ValueColumn::Text(textpack::decode(buf, count)?),
        })
    }
}

/// A columnar batch of points for one series: a timestamp column next to
/// a typed value column, index-aligned.
///
/// This is the ingest unit the whole write path shares: SQL assembles
/// one,
/// [`StorageEngine::write_batch_nonblocking`](crate::StorageEngine::write_batch_nonblocking)
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
}

/// The unread tail of a binary payload. Every read is checked against
/// what is left, so a forged count fails here, before anything is
/// reserved for it.
#[derive(Debug)]
pub struct Unread<'a>(pub &'a [u8]);

impl<'a> Unread<'a> {
    /// `Err("trailing bytes")` unless every byte has been read.
    pub fn finish(&self) -> Result<(), &'static str> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err("trailing bytes")
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let (head, tail) = self.0.split_at_checked(n).ok_or("truncated")?;
        self.0 = tail;
        Ok(head)
    }

    /// The next `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], &'static str> {
        self.take(N)?.try_into().map_err(|_| "truncated")
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<usize, &'static str> {
        Ok(usize::from(u16::from_le_bytes(self.array()?)))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<usize, &'static str> {
        usize::try_from(u32::from_le_bytes(self.array()?)).map_err(|_| "count overflows")
    }

    /// `count` fixed-width cells of `N` bytes each.
    pub fn cells<const N: usize>(
        &mut self,
        count: usize,
    ) -> Result<impl Iterator<Item = [u8; N]> + 'a, &'static str> {
        let bytes = self.take(count.checked_mul(N).ok_or("count overflows")?)?;
        // `count × N` bytes: no remainder.
        let (cells, _) = bytes.as_chunks::<N>();
        Ok(cells.iter().copied())
    }

    /// `len` bytes of UTF-8.
    pub fn string(&mut self, len: usize) -> Result<String, &'static str> {
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| "text is not UTF-8")
    }

    /// `u16 device_len | device | u16 sensor_len | sensor`, what
    /// [`put_key`] writes.
    pub(crate) fn key(&mut self) -> Result<SeriesKey, &'static str> {
        let device_len = self.u16()?;
        let device = self.string(device_len)?;
        let sensor_len = self.u16()?;
        let sensor = self.string(sensor_len)?;
        Ok(SeriesKey { device, sensor })
    }

    /// An older record's key: one `u16 len | "device.sensor"` name, split
    /// at its last `.`.
    pub(crate) fn dotted_key(&mut self) -> Result<SeriesKey, &'static str> {
        let len = self.u16()?;
        let name = self.string(len)?;
        let (device, sensor) = name.rsplit_once('.').ok_or("a name without a `.`")?;
        Ok(SeriesKey::new(device, sensor))
    }
}

/// Appends `values` as fixed-width cells, `cell` giving each one's
/// bytes: the run's room is made once, then filled in place.
pub fn put_cells<T, const N: usize>(out: &mut Vec<u8>, values: &[T], cell: impl Fn(&T) -> [u8; N]) {
    let at = out.len();
    out.resize(at + values.len() * N, 0);
    for (slot, value) in out[at..].chunks_exact_mut(N).zip(values) {
        slot.copy_from_slice(&cell(value));
    }
}

/// Bytes `column` takes as cells (module docs: "The byte form").
pub fn column_len(column: &ValueColumn) -> usize {
    match column {
        ValueColumn::Int(v) => v.len() * 4,
        ValueColumn::Long(v) => v.len() * 8,
        ValueColumn::Float(v) => v.len() * 4,
        ValueColumn::Double(v) => v.len() * 8,
        ValueColumn::Bool(v) => v.len(),
        ValueColumn::Text(v) => v.iter().map(|text| 4 + text.len()).sum(),
    }
}

/// Appends `column` as cells (module docs: "The byte form"), a
/// fixed-width column as one block. A text's length is a `u32` like a
/// wire frame's, so a text that fits a frame fits its length.
pub fn put_column(out: &mut Vec<u8>, column: &ValueColumn) {
    match column {
        ValueColumn::Int(v) => put_cells(out, v, |v| v.to_le_bytes()),
        ValueColumn::Long(v) => put_cells(out, v, |v| v.to_le_bytes()),
        ValueColumn::Float(v) => put_cells(out, v, |v| v.to_bits().to_le_bytes()),
        ValueColumn::Double(v) => put_cells(out, v, |v| v.to_bits().to_le_bytes()),
        ValueColumn::Bool(v) => put_cells(out, v, |&v| [u8::from(v)]),
        ValueColumn::Text(v) => {
            for text in v {
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
        }
    }
}

/// Reads `count` cells of `data_type` (module docs: "The byte form") —
/// the one column reader, of a batch's values and of a rows frame's
/// runs.
pub fn read_column(
    unread: &mut Unread<'_>,
    data_type: DataType,
    count: usize,
) -> Result<ValueColumn, &'static str> {
    Ok(match data_type {
        DataType::Int32 => ValueColumn::Int(unread.cells(count)?.map(i32::from_le_bytes).collect()),
        DataType::Int64 => {
            ValueColumn::Long(unread.cells(count)?.map(i64::from_le_bytes).collect())
        }
        DataType::Float => ValueColumn::Float(
            unread
                .cells(count)?
                .map(|v| f32::from_bits(u32::from_le_bytes(v)))
                .collect(),
        ),
        DataType::Double => ValueColumn::Double(
            unread
                .cells(count)?
                .map(|v| f64::from_bits(u64::from_le_bytes(v)))
                .collect(),
        ),
        DataType::Boolean => ValueColumn::Bool(
            unread
                .cells(count)?
                .map(|[v]| match v {
                    0 => Ok(false),
                    1 => Ok(true),
                    _ => Err("bool byte above 1"),
                })
                .collect::<Result<_, _>>()?,
        ),
        DataType::Text => {
            // Each text is at least its four length bytes.
            if count.saturating_mul(4) > unread.0.len() {
                return Err("truncated");
            }
            let mut texts = Vec::with_capacity(count);
            for _ in 0..count {
                let len = unread.u32()?;
                texts.push(unread.string(len)?);
            }
            ValueColumn::Text(texts)
        }
    })
}

/// Appends `u16 device_len | device | u16 sensor_len | sensor`; an
/// `InvalidInput` error, with nothing appended, when a name is over
/// `u16::MAX` bytes.
pub(crate) fn put_key(out: &mut Vec<u8>, device: &str, sensor: &str) -> io::Result<()> {
    let (Ok(device_len), Ok(sensor_len)) =
        (u16::try_from(device.len()), u16::try_from(sensor.len()))
    else {
        let message = "a name over 65,535 bytes does not fit its u16 length";
        return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
    };
    out.extend_from_slice(&device_len.to_le_bytes());
    out.extend_from_slice(device.as_bytes());
    out.extend_from_slice(&sensor_len.to_le_bytes());
    out.extend_from_slice(sensor.as_bytes());
    Ok(())
}

/// Appends `batch` as the batch payload of series `device`.`sensor`
/// (module docs: "The byte form"); an `InvalidInput` error, with nothing
/// appended, when a name is over `u16::MAX` bytes or the payload over
/// `u32::MAX` — the length a wire frame or a WAL record gives it, which
/// also bounds the point count and every text's length.
pub fn put_batch(
    out: &mut Vec<u8>,
    device: &str,
    sensor: &str,
    batch: &PointBatch,
) -> io::Result<()> {
    let len = (2 + device.len() + 2 + sensor.len() + 1 + 4)
        .saturating_add(batch.len().saturating_mul(8))
        .saturating_add(column_len(batch.values()));
    if u32::try_from(len).is_err() {
        let message = format!("a batch payload of {len} bytes does not fit its u32 length");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
    }
    out.reserve(len);
    put_key(out, device, sensor)?;
    out.push(batch.data_type().tag());
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    put_cells(out, batch.ts(), |t| t.to_le_bytes());
    put_column(out, batch.values());
    Ok(())
}

/// Reads a whole batch payload (module docs: "The byte form") back into
/// its series and batch.
pub fn read_batch(payload: &[u8]) -> Result<(SeriesKey, PointBatch), &'static str> {
    let mut unread = Unread(payload);
    let key = unread.key()?;
    let [tag] = unread.array()?;
    let data_type = DataType::from_tag(tag).ok_or("unknown data type")?;
    let count = unread.u32()?;
    let ts = unread.cells(count)?.map(i64::from_le_bytes).collect();
    let values = read_column(&mut unread, data_type, count)?;
    unread.finish()?;
    let batch = PointBatch::from_columns(ts, values).map_err(|_| "columns of unequal length")?;
    Ok((key, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsfile::encode_column_page;

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
            let buf = encode_column_page(col.as_slice());
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
        let buf = encode_column_page(ColumnSlice::Long(&[i64::MAX]));
        assert_eq!(ValueColumn::decode(DataType::Int32, 1, &buf), None);
    }
}
