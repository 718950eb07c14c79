//! The framed wire protocol: length-prefixed request/response frames.
//!
//! Every frame is a fixed 13-byte header followed by `len` payload
//! bytes, all integers little-endian:
//!
//! ```text
//! u32 len | u8 kind | u64 id | payload[len]
//! ```
//!
//! `id` is chosen by the client and echoed verbatim on the response, so
//! a pipelining client can match responses to requests (the server
//! additionally guarantees per-connection responses arrive in request
//! order). Request kinds:
//!
//! * [`KIND_SQL`] — payload is one UTF-8 SQL statement;
//! * [`KIND_BATCH`] — a binary batched INSERT that compiles straight
//!   into a [`PointBatch`] with no SQL parse:
//!   `u16 device_len | device | u16 sensor_len | sensor | u8 dtype |
//!   u32 count | count × i64 timestamps | value column` where the value
//!   column uses the engine's own columnar encoding
//!   ([`ValueColumn::encode_into`]) — the same bytes a WAL frame or
//!   TsFile chunk carries.
//!
//! Response kinds, chosen by what the reply *is*, never by a setting:
//!
//! | status | constant | payload |
//! |---|---|---|
//! | `0x81` | [`STATUS_OK`] | JSON [`QueryOutput`] — every variant except `Rows` |
//! | `0x82` | [`STATUS_ERR`] | UTF-8 message |
//! | `0x83` | [`STATUS_BUSY`] | UTF-8 reason |
//! | `0x84` | [`STATUS_ROWS`] | binary columnar [`QueryOutput::Rows`] |
//!
//! BUSY is the typed backpressure signal and not an error in the
//! protocol sense: the statement was never executed and can be retried
//! once the server drains.
//!
//! # The rows frame
//!
//! A `SELECT` of raw columns is the one reply whose size follows the
//! data, so it alone is binary (one-row administrative and aggregate
//! replies stay JSON). The payload is column-major:
//!
//! ```text
//! u16 ncols | ncols × (u16 len | utf-8 name)
//! u32 nrows | nrows × i64 timestamp
//! ncols × column, each a sequence of runs covering exactly nrows cells:
//!     u8 tag | u32 run_len | values
//! ```
//!
//! `tag` is [`DataType::tag`] (0–5) and `values` is then `run_len`
//! fixed-width cells — `i32`, `i64`, `f32` bits, `f64` bits, one byte
//! `0`/`1` per bool — or `u32 len | utf-8` per text; tag `0xFF` is a run
//! of `None` cells and carries no values. A gap-free column of one type
//! is a single run (5 bytes of framing); alignment gaps and a column
//! whose cells change type are simply more runs, so nothing falls back
//! to another encoding. Floats travel as bits: NaN payloads, ±inf and
//! −0.0 survive exactly, which JSON cannot offer.
//!
//! Fixed-width on purpose rather than [`ValueColumn::encode_into`]: the
//! decoder checks every count against the bytes that remain *before* it
//! reserves for it, so a forged `nrows`, `run_len` or text length fails
//! on a short payload instead of allocating. Trailing bytes, an empty
//! run, a run past `nrows`, a bool byte above 1, bad UTF-8 and an
//! unknown tag are all [`std::io::ErrorKind::InvalidData`]. What the
//! decoder cannot bound is the type it must produce: a `None` cell
//! costs no wire bytes but one `Option<TsValue>` decoded, so a frame of
//! many columns of `None` runs decodes to `nrows × ncols` cells — no
//! single allocation exceeds a small multiple of the frame, their sum
//! can. A columnar `Rows` would remove that.
//!
//! Aggregates stay JSON, and JSON has no non-finite numbers: `SELECT
//! avg(s)` over a series holding NaN or ±inf (a [`KIND_BATCH`] frame
//! may carry them) is still answered [`STATUS_ERR`] `unserializable
//! result`, while `SELECT s` over the same series reads back bit for
//! bit.
//!
//! # The response limit
//!
//! Both sides share [`MAX_RESPONSE_BYTES`]. [`encode_response`] never
//! emits a larger payload — a result past it is answered
//! [`STATUS_ERR`] naming the row count, and the connection carries on —
//! and [`SqlClient`](crate::SqlClient) accepts nothing larger.

use std::io::Read;

use backsort_engine::{DataType, PointBatch, TsValue, ValueColumn};
use backsort_sql::QueryOutput;

/// Frame header size: `u32 len + u8 kind + u64 id`.
pub const HEADER_BYTES: usize = 13;
/// Request kind: one UTF-8 SQL statement.
pub const KIND_SQL: u8 = 0x01;
/// Request kind: a binary batched INSERT.
pub const KIND_BATCH: u8 = 0x02;
/// Response kind: success, payload is JSON [`QueryOutput`] (any
/// variant but `Rows`).
pub const STATUS_OK: u8 = 0x81;
/// Response kind: failure, payload is a UTF-8 message.
pub const STATUS_ERR: u8 = 0x82;
/// Response kind: shed by admission control, payload is a UTF-8 reason.
pub const STATUS_BUSY: u8 = 0x83;
/// Response kind: success, payload is a binary columnar
/// [`QueryOutput::Rows`] (see the module docs for the layout).
pub const STATUS_ROWS: u8 = 0x84;
/// Largest response payload the server sends and the client accepts.
/// Responses carry whole query results, so this is well above the
/// request-side `max_frame_bytes`.
pub const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// Run tag of `None` cells in a rows frame; `0..=5` are [`DataType::tag`].
const TAG_NONE: u8 = 0xFF;

/// A decoded request frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// One SQL statement.
    Sql(String),
    /// A batched INSERT targeting one series.
    Batch {
        /// Device path (e.g. `root.sg.d1`).
        device: String,
        /// Sensor name.
        sensor: String,
        /// The decoded columnar batch.
        batch: PointBatch,
    },
}

/// A decoded request frame: client-chosen id plus body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Echoed verbatim on the response.
    pub id: u64,
    /// What to execute.
    pub body: RequestBody,
}

/// One server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The statement succeeded.
    Output(QueryOutput),
    /// The statement failed; it was (at most partially) executed.
    Error(String),
    /// Admission control shed the request before execution; safe to
    /// retry after backing off.
    Busy(String),
}

/// Why a request frame failed to decode.
#[derive(Debug)]
pub enum DecodeError {
    /// Transport failure or torn header — the connection is dead.
    Io(std::io::Error),
    /// The declared payload length exceeds the server's limit. The
    /// payload was not consumed, so the stream cannot be resynced; the
    /// server replies with an error and closes the connection.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// Configured limit.
        max: usize,
        /// Frame id, for the error reply.
        id: u64,
    },
    /// The frame was consumed but its contents are invalid (unknown
    /// kind, bad UTF-8, undecodable batch). The connection survives.
    Malformed {
        /// Frame id, for the error reply.
        id: u64,
        /// Human-readable reason.
        reason: String,
    },
}

impl From<std::io::Error> for DecodeError {
    fn from(e: std::io::Error) -> Self {
        DecodeError::Io(e)
    }
}

fn put_header(out: &mut Vec<u8>, len: usize, kind: u8, id: u64) {
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&id.to_le_bytes());
}

/// Encodes a SQL request frame into `out`.
pub fn encode_sql(out: &mut Vec<u8>, id: u64, sql: &str) {
    put_header(out, sql.len(), KIND_SQL, id);
    out.extend_from_slice(sql.as_bytes());
}

/// Encodes a batched-INSERT request frame into `out`.
pub fn encode_batch(out: &mut Vec<u8>, id: u64, device: &str, sensor: &str, batch: &PointBatch) {
    let mut payload = Vec::with_capacity(16 + device.len() + sensor.len() + batch.len() * 9);
    payload.extend_from_slice(&(device.len() as u16).to_le_bytes());
    payload.extend_from_slice(device.as_bytes());
    payload.extend_from_slice(&(sensor.len() as u16).to_le_bytes());
    payload.extend_from_slice(sensor.as_bytes());
    payload.push(batch.data_type().tag());
    payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for t in batch.ts() {
        payload.extend_from_slice(&t.to_le_bytes());
    }
    batch.values().encode_into(&mut payload);
    put_header(out, payload.len(), KIND_BATCH, id);
    out.extend_from_slice(&payload);
}

/// Encodes a response frame into `out`. The payload is written straight
/// after a reserved header whose length and status are patched in once
/// known. A `Rows` output is always a [`STATUS_ROWS`] frame; any other
/// output is JSON. An output that cannot be sent — JSON refuses
/// non-finite floats, and nothing may exceed [`MAX_RESPONSE_BYTES`] —
/// degrades to a [`STATUS_ERR`] frame rather than killing the
/// connection.
pub fn encode_response(out: &mut Vec<u8>, id: u64, response: &Response) {
    encode_response_within(out, id, response, MAX_RESPONSE_BYTES);
}

// The header's length field is a `u32`.
const _: () = assert!(MAX_RESPONSE_BYTES <= u32::MAX as usize);

/// [`encode_response`] with the payload limit as an argument, so a test
/// can reach the over-limit path without a 64 MiB result.
fn encode_response_within(out: &mut Vec<u8>, id: u64, response: &Response, limit: usize) {
    let start = out.len();
    put_header(out, 0, STATUS_ERR, id);
    let body = out.len();
    let written = match response {
        Response::Output(QueryOutput::Rows { columns, rows }) => {
            encode_rows(out, columns, rows, limit).map(|()| STATUS_ROWS)
        }
        Response::Output(output) => match serde_json::to_string(output) {
            Ok(json) => {
                out.extend_from_slice(json.as_bytes());
                Ok(STATUS_OK)
            }
            Err(e) => Err(format!("unserializable result: {e}")),
        },
        Response::Error(message) => {
            out.extend_from_slice(message.as_bytes());
            Ok(STATUS_ERR)
        }
        Response::Busy(reason) => {
            out.extend_from_slice(reason.as_bytes());
            Ok(STATUS_BUSY)
        }
    };
    let status = written
        .and_then(|status| {
            if out.len() - body <= limit {
                Ok(status)
            } else {
                Err(format!(
                    "result exceeds the {} MiB response limit",
                    limit >> 20
                ))
            }
        })
        .unwrap_or_else(|message| {
            out.truncate(body);
            out.extend_from_slice(message.as_bytes());
            STATUS_ERR
        });
    let len = (out.len() - body) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4] = status;
}

/// Appends a rows payload (module docs: "The rows frame") to `out`,
/// giving up a cell past `limit` bytes of it. `Err` is the message to
/// answer instead; what was appended is the caller's to truncate.
fn encode_rows(
    out: &mut Vec<u8>,
    columns: &[String],
    rows: &[(i64, Vec<Option<TsValue>>)],
    limit: usize,
) -> Result<(), String> {
    let end = out.len() + limit;
    let too_large = || {
        format!(
            "result of {} rows exceeds the {} MiB response limit; narrow the time range",
            rows.len(),
            limit >> 20
        )
    };
    let ncols = u16::try_from(columns.len())
        .map_err(|_| format!("unserializable result: {} columns", columns.len()))?;
    let nrows = u32::try_from(rows.len()).map_err(|_| too_large())?;
    out.extend_from_slice(&ncols.to_le_bytes());
    for name in columns {
        let len = u16::try_from(name.len()).map_err(|_| {
            format!(
                "unserializable result: a column name of {} bytes",
                name.len()
            )
        })?;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out.extend_from_slice(&nrows.to_le_bytes());
    // The timestamp block's size is known before a byte of it is
    // written; the cells after it are checked as they go.
    let room = end.saturating_sub(out.len());
    if rows.len().saturating_mul(8) > room {
        return Err(too_large());
    }
    // Exact for gap-free 8-byte columns, never more than may be sent.
    out.reserve(
        (rows.len() * 8 + 5)
            .saturating_mul(1 + columns.len())
            .min(room),
    );
    for (t, cells) in rows {
        if cells.len() != columns.len() {
            return Err(format!(
                "unserializable result: a row of {} cells under {} columns",
                cells.len(),
                columns.len()
            ));
        }
        out.extend_from_slice(&t.to_le_bytes());
    }
    for column in 0..columns.len() {
        // (tag, where its `run_len` goes, cells so far) of the open run.
        let mut run: Option<(u8, usize, u32)> = None;
        for (_, cells) in rows {
            let cell = cells.get(column).and_then(Option::as_ref);
            let tag = cell.map_or(TAG_NONE, |v| v.data_type().tag());
            match &mut run {
                Some((open, _, len)) if *open == tag => *len += 1,
                _ => {
                    close_run(out, run);
                    run = Some((tag, out.len() + 1, 1));
                    out.push(tag);
                    out.extend_from_slice(&[0; 4]);
                }
            }
            match cell {
                None => {}
                Some(TsValue::Int(v)) => out.extend_from_slice(&v.to_le_bytes()),
                Some(TsValue::Long(v)) => out.extend_from_slice(&v.to_le_bytes()),
                Some(TsValue::Float(v)) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
                Some(TsValue::Double(v)) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
                Some(TsValue::Bool(v)) => out.push(u8::from(*v)),
                Some(TsValue::Text(v)) => {
                    let len = u32::try_from(v.len()).map_err(|_| too_large())?;
                    out.extend_from_slice(&len.to_le_bytes());
                    out.extend_from_slice(v.as_bytes());
                }
            }
            if out.len() > end {
                return Err(too_large());
            }
        }
        close_run(out, run);
    }
    Ok(())
}

/// Patches a finished run's length into the four bytes reserved for it.
fn close_run(out: &mut [u8], run: Option<(u8, usize, u32)>) {
    if let Some((_, at, len)) = run {
        if let Some(slot) = out.get_mut(at..at + 4) {
            slot.copy_from_slice(&len.to_le_bytes());
        }
    }
}

/// Reads the fixed header. `Ok(None)` is a clean EOF (peer closed
/// between frames); a torn header is an I/O error.
fn read_header(reader: &mut impl Read) -> std::io::Result<Option<(usize, u8, u64)>> {
    let mut header = [0u8; HEADER_BYTES];
    let mut filled = 0;
    while filled < HEADER_BYTES {
        match reader.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let kind = header[4];
    let id = u64::from_le_bytes([
        header[5], header[6], header[7], header[8], header[9], header[10], header[11], header[12],
    ]);
    Ok(Some((len, kind, id)))
}

/// Reads one request frame. `Ok(None)` is a clean EOF.
pub fn read_request(
    reader: &mut impl Read,
    max_frame_bytes: usize,
) -> Result<Option<RequestFrame>, DecodeError> {
    let Some((len, kind, id)) = read_header(reader)? else {
        return Ok(None);
    };
    if len > max_frame_bytes {
        return Err(DecodeError::Oversized {
            declared: len,
            max: max_frame_bytes,
            id,
        });
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).map_err(DecodeError::Io)?;
    let body = match kind {
        KIND_SQL => match String::from_utf8(payload) {
            Ok(sql) => RequestBody::Sql(sql),
            Err(_) => {
                return Err(DecodeError::Malformed {
                    id,
                    reason: "SQL payload is not UTF-8".to_string(),
                })
            }
        },
        KIND_BATCH => decode_batch_payload(&payload).map_or_else(
            || {
                Err(DecodeError::Malformed {
                    id,
                    reason: "undecodable batch payload".to_string(),
                })
            },
            |(device, sensor, batch)| {
                Ok(RequestBody::Batch {
                    device,
                    sensor,
                    batch,
                })
            },
        )?,
        other => {
            return Err(DecodeError::Malformed {
                id,
                reason: format!("unknown frame kind 0x{other:02x}"),
            })
        }
    };
    Ok(Some(RequestFrame { id, body }))
}

/// The unread tail of a binary payload. Every read is checked against
/// what is left, so a forged count fails here, before anything is
/// reserved for it.
struct Unread<'a>(&'a [u8]);

impl<'a> Unread<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let (head, tail) = self.0.split_at_checked(n).ok_or("truncated")?;
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], &'static str> {
        self.take(N)?.try_into().map_err(|_| "truncated")
    }

    fn u16(&mut self) -> Result<usize, &'static str> {
        Ok(usize::from(u16::from_le_bytes(self.array()?)))
    }

    fn u32(&mut self) -> Result<usize, &'static str> {
        usize::try_from(u32::from_le_bytes(self.array()?)).map_err(|_| "count overflows")
    }

    /// `count` fixed-width cells of `N` bytes each.
    fn cells<const N: usize>(
        &mut self,
        count: usize,
    ) -> Result<impl Iterator<Item = [u8; N]> + 'a, &'static str> {
        let bytes = self.take(count.checked_mul(N).ok_or("count overflows")?)?;
        // `chunks_exact(N)` yields only `N`-byte chunks, so the
        // conversion cannot fail.
        Ok(bytes
            .chunks_exact(N)
            .map(|chunk| <[u8; N]>::try_from(chunk).unwrap_or([0; N])))
    }

    fn string(&mut self, len: usize) -> Result<String, &'static str> {
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| "text is not UTF-8")
    }
}

/// Decodes a [`KIND_BATCH`] payload; `None` on any inconsistency.
fn decode_batch_payload(payload: &[u8]) -> Option<(String, String, PointBatch)> {
    let mut unread = Unread(payload);
    let device_len = unread.u16().ok()?;
    let device = unread.string(device_len).ok()?;
    let sensor_len = unread.u16().ok()?;
    let sensor = unread.string(sensor_len).ok()?;
    let [tag] = unread.array().ok()?;
    let dtype = DataType::from_tag(tag)?;
    let count = unread.u32().ok()?;
    // The timestamp column is fixed-width, so an absurd count fails
    // here instead of allocating.
    let ts: Vec<i64> = unread.cells(count).ok()?.map(i64::from_le_bytes).collect();
    let values = ValueColumn::decode(dtype, count, unread.0)?;
    let batch = PointBatch::from_columns(ts, values).ok()?;
    Some((device, sensor, batch))
}

fn invalid(reason: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, reason)
}

/// Reads one response frame (client side). `Ok(None)` is a clean EOF.
/// A frame declaring more than `max_frame_bytes` is refused unread, so
/// the stream cannot be resynced and the caller should drop the
/// connection; a server built from this crate never sends one past
/// [`MAX_RESPONSE_BYTES`].
pub fn read_response(
    reader: &mut impl Read,
    max_frame_bytes: usize,
) -> std::io::Result<Option<(u64, Response)>> {
    let Some((len, status, id)) = read_header(reader)? else {
        return Ok(None);
    };
    if len > max_frame_bytes {
        return Err(invalid(format!(
            "response frame of {len} bytes exceeds limit {max_frame_bytes}"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    let text = || String::from_utf8_lossy(&payload).into_owned();
    let response = match status {
        STATUS_OK => {
            let json = std::str::from_utf8(&payload)
                .map_err(|e| invalid(format!("response payload is not UTF-8: {e}")))?;
            let output: QueryOutput = serde_json::from_str(json)
                .map_err(|e| invalid(format!("malformed response payload: {e}")))?;
            Response::Output(output)
        }
        STATUS_ROWS => Response::Output(
            decode_rows(&payload).map_err(|e| invalid(format!("malformed rows payload: {e}")))?,
        ),
        STATUS_ERR => Response::Error(text()),
        STATUS_BUSY => Response::Busy(text()),
        other => return Err(invalid(format!("unknown response status 0x{other:02x}"))),
    };
    Ok(Some((id, response)))
}

/// Decodes a [`STATUS_ROWS`] payload (module docs: "The rows frame").
fn decode_rows(payload: &[u8]) -> Result<QueryOutput, &'static str> {
    let mut unread = Unread(payload);
    let ncols = unread.u16()?;
    // Each name is at least its two length bytes.
    if ncols.saturating_mul(2) > unread.0.len() {
        return Err("truncated");
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let len = unread.u16()?;
        columns.push(unread.string(len)?);
    }
    let nrows = unread.u32()?;
    let mut rows: Vec<(i64, Vec<Option<TsValue>>)> = unread
        .cells(nrows)?
        .map(|t| (i64::from_le_bytes(t), Vec::with_capacity(ncols)))
        .collect();
    for _ in 0..ncols {
        // Each run fills the next `run_len` rows' cell of this column.
        let mut unfilled = rows.iter_mut().map(|(_, cells)| cells);
        while unfilled.len() > 0 {
            let [tag] = unread.array()?;
            let run_len = unread.u32()?;
            if run_len == 0 {
                return Err("empty run");
            }
            if run_len > unfilled.len() {
                return Err("run past the last row");
            }
            let run = unfilled.by_ref().take(run_len);
            let Some(data_type) = DataType::from_tag(tag) else {
                if tag != TAG_NONE {
                    return Err("unknown run tag");
                }
                run.for_each(|cells| cells.push(None));
                continue;
            };
            match data_type {
                DataType::Int32 => run
                    .zip(unread.cells(run_len)?)
                    .for_each(|(cells, v)| cells.push(Some(TsValue::Int(i32::from_le_bytes(v))))),
                DataType::Int64 => run
                    .zip(unread.cells(run_len)?)
                    .for_each(|(cells, v)| cells.push(Some(TsValue::Long(i64::from_le_bytes(v))))),
                DataType::Float => run.zip(unread.cells(run_len)?).for_each(|(cells, v)| {
                    cells.push(Some(TsValue::Float(f32::from_bits(u32::from_le_bytes(v)))));
                }),
                DataType::Double => run.zip(unread.cells(run_len)?).for_each(|(cells, v)| {
                    cells.push(Some(TsValue::Double(f64::from_bits(u64::from_le_bytes(v)))));
                }),
                DataType::Boolean => {
                    for (cells, [v]) in run.zip(unread.cells(run_len)?) {
                        if v > 1 {
                            return Err("bool byte above 1");
                        }
                        cells.push(Some(TsValue::Bool(v == 1)));
                    }
                }
                DataType::Text => {
                    for cells in run {
                        let len = unread.u32()?;
                        cells.push(Some(TsValue::Text(unread.string(len)?)));
                    }
                }
            }
        }
    }
    if !unread.0.is_empty() {
        return Err("trailing bytes");
    }
    Ok(QueryOutput::Rows { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_engine::TsValue;

    #[test]
    fn sql_frame_roundtrip() {
        let mut buf = Vec::new();
        encode_sql(&mut buf, 42, "SELECT s FROM root.sg.d1");
        let frame = read_request(&mut buf.as_slice(), 1 << 20)
            .expect("decode")
            .expect("not eof");
        assert_eq!(frame.id, 42);
        assert_eq!(
            frame.body,
            RequestBody::Sql("SELECT s FROM root.sg.d1".to_string())
        );
    }

    #[test]
    fn batch_frame_roundtrip_every_dtype() {
        let batches = vec![
            PointBatch::from_rows((0..50i64).map(|t| (t * 3 % 17, TsValue::Long(t)))).unwrap(),
            PointBatch::from_rows((0..50i64).map(|t| (t, TsValue::Double(t as f64 * 0.5))))
                .unwrap(),
            PointBatch::from_rows((0..8i64).map(|t| (t, TsValue::Bool(t % 2 == 0)))).unwrap(),
            PointBatch::from_rows((0..8i64).map(|t| (t, TsValue::Text(format!("v{t}"))))).unwrap(),
        ];
        for (i, batch) in batches.into_iter().enumerate() {
            let mut buf = Vec::new();
            encode_batch(&mut buf, i as u64, "root.sg.d1", "s0", &batch);
            let frame = read_request(&mut buf.as_slice(), 1 << 20)
                .expect("decode")
                .expect("not eof");
            assert_eq!(frame.id, i as u64);
            match frame.body {
                RequestBody::Batch {
                    device,
                    sensor,
                    batch: decoded,
                } => {
                    assert_eq!(device, "root.sg.d1");
                    assert_eq!(sensor, "s0");
                    assert_eq!(decoded, batch);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// Two sensors aligned with gaps, the second changing type half way.
    fn sample_rows() -> Response {
        Response::Output(QueryOutput::Rows {
            columns: vec!["speed".to_string(), "état".to_string()],
            rows: vec![
                (-5, vec![Some(TsValue::Double(1.5)), None]),
                (0, vec![Some(TsValue::Double(-0.0)), Some(TsValue::Long(7))]),
                (3, vec![None, Some(TsValue::Text("naïve".to_string()))]),
                (
                    9,
                    vec![Some(TsValue::Double(2.5)), Some(TsValue::Bool(true))],
                ),
            ],
        })
    }

    #[test]
    fn response_roundtrip() {
        for (response, status) in [
            (Response::Output(QueryOutput::Inserted(7)), STATUS_OK),
            (sample_rows(), STATUS_ROWS),
            (Response::Error("boom".to_string()), STATUS_ERR),
            (
                Response::Busy("flush backlog 9 > 4".to_string()),
                STATUS_BUSY,
            ),
        ] {
            let mut buf = Vec::new();
            encode_response(&mut buf, 9, &response);
            assert_eq!(buf[4], status, "{response:?}");
            let (id, decoded) = read_response(&mut buf.as_slice(), 1 << 20)
                .expect("decode")
                .expect("not eof");
            assert_eq!(id, 9);
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn a_gap_free_column_is_one_run_of_fixed_width_cells() {
        let rows = (0..100i64)
            .map(|t| (t, vec![Some(TsValue::Double(t as f64))]))
            .collect();
        let mut buf = Vec::new();
        let response = Response::Output(QueryOutput::Rows {
            columns: vec!["s".to_string()],
            rows,
        });
        encode_response(&mut buf, 1, &response);
        // ncols, one name, nrows, the timestamps, one run.
        assert_eq!(
            buf.len(),
            HEADER_BYTES + 2 + (2 + 1) + 4 + 100 * 8 + (1 + 4 + 100 * 8)
        );
    }

    /// A result past the limit is answered with an error frame of its
    /// own, and the stream stays in step: the reply after it decodes.
    #[test]
    fn an_over_limit_result_is_refused_and_the_stream_stays_in_step() {
        const LIMIT: usize = 1 << 20;
        let rows = |n: i64| {
            Response::Output(QueryOutput::Rows {
                columns: vec!["s".to_string()],
                rows: (0..n)
                    .map(|t| (t, vec![Some(TsValue::Double(0.5))]))
                    .collect(),
            })
        };
        let mut buf = Vec::new();
        encode_response_within(&mut buf, 1, &rows(70_000), LIMIT);
        assert!(buf.len() < 200, "the refusal is short: {}", buf.len());
        encode_response_within(&mut buf, 2, &rows(60_000), LIMIT);
        // Text is checked as it goes, too.
        let text = Response::Output(QueryOutput::Rows {
            columns: vec!["s".to_string()],
            rows: vec![(1, vec![Some(TsValue::Text("x".repeat(LIMIT)))])],
        });
        encode_response_within(&mut buf, 3, &text, LIMIT);
        // So is anything that is not rows.
        encode_response_within(&mut buf, 4, &Response::Error("e".repeat(LIMIT + 1)), LIMIT);
        encode_response_within(&mut buf, 5, &Response::Busy("later".to_string()), LIMIT);

        let mut reader = buf.as_slice();
        let mut next = || {
            read_response(&mut reader, LIMIT)
                .expect("no frame is over the limit")
                .expect("not eof")
        };
        assert_eq!(
            next(),
            (
                1,
                Response::Error(
                    "result of 70000 rows exceeds the 1 MiB response limit; narrow the time range"
                        .to_string()
                )
            )
        );
        assert_eq!(next(), (2, rows(60_000)));
        match next() {
            (3, Response::Error(m)) => assert!(m.starts_with("result of 1 rows exceeds"), "{m}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            next(),
            (
                4,
                Response::Error("result exceeds the 1 MiB response limit".to_string())
            )
        );
        assert_eq!(next(), (5, Response::Busy("later".to_string())));
    }

    #[test]
    fn rows_that_the_frame_cannot_express_are_an_error_not_a_wrong_frame() {
        let cases = [
            QueryOutput::Rows {
                columns: vec!["a".to_string(), "b".to_string()],
                rows: vec![(1, vec![None])],
            },
            QueryOutput::Rows {
                columns: vec!["n".repeat(usize::from(u16::MAX) + 1)],
                rows: Vec::new(),
            },
        ];
        for output in cases {
            let mut buf = Vec::new();
            encode_response(&mut buf, 1, &Response::Output(output));
            match read_response(&mut buf.as_slice(), 1 << 20) {
                Ok(Some((1, Response::Error(m)))) => {
                    assert!(m.starts_with("unserializable result"), "{m}");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_header(&mut buf, 10 << 20, KIND_SQL, 3);
        match read_request(&mut buf.as_slice(), 1 << 20) {
            Err(DecodeError::Oversized { declared, max, id }) => {
                assert_eq!(declared, 10 << 20);
                assert_eq!(max, 1 << 20);
                assert_eq!(id, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_kind_is_malformed_but_consumed() {
        let mut buf = Vec::new();
        put_header(&mut buf, 2, 0x7f, 5);
        buf.extend_from_slice(b"xy");
        // A follow-up frame after the malformed one still decodes: the
        // bad frame's payload was consumed, so the stream stays synced.
        encode_sql(&mut buf, 6, "SHOW STATS");
        let mut reader = buf.as_slice();
        match read_request(&mut reader, 1 << 20) {
            Err(DecodeError::Malformed { id, .. }) => assert_eq!(id, 5),
            other => panic!("{other:?}"),
        }
        let next = read_request(&mut reader, 1 << 20)
            .expect("decode")
            .expect("not eof");
        assert_eq!(next.id, 6);
    }

    #[test]
    fn truncated_batch_payload_is_malformed() {
        let batch = PointBatch::from_rows((0..20i64).map(|t| (t, TsValue::Long(t)))).unwrap();
        let mut buf = Vec::new();
        encode_batch(&mut buf, 1, "root.sg.d1", "s0", &batch);
        // Corrupt the declared point count (offset: header + device/
        // sensor length prefixes and names + dtype byte).
        let count_at = HEADER_BYTES + 2 + "root.sg.d1".len() + 2 + "s0".len() + 1;
        buf[count_at] = 200;
        match read_request(&mut buf.as_slice(), 1 << 20) {
            Err(DecodeError::Malformed { id, .. }) => assert_eq!(id, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert!(read_request(&mut { empty }, 1 << 20)
            .expect("clean eof")
            .is_none());
    }
}
