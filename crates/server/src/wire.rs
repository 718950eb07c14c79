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
//!   into a [`PointBatch`] with no SQL parse (see "The batch frame").
//!
//! Response kinds, chosen by what the reply *is*, never by a setting:
//!
//! | status | constant | payload |
//! |---|---|---|
//! | `0x81` | [`STATUS_OK`] | JSON [`QueryOutput`] — the administrative replies: `Inserted`, `Deleted`, `Stats`, `Explain`, `Analyze`, `SlowQueries` |
//! | `0x82` | [`STATUS_ERR`] | UTF-8 message |
//! | `0x83` | [`STATUS_BUSY`] | UTF-8 reason |
//! | `0x84` | [`STATUS_ROWS`] | binary columnar rows of a raw `SELECT` |
//! | `0x85` | [`STATUS_AGGREGATES`] | binary `Aggregates` or `Grouped` |
//!
//! BUSY is the typed backpressure signal and not an error in the
//! protocol sense: the statement was never executed and can be retried
//! once the server drains.
//!
//! # Cells: one column codec
//!
//! Both frames that carry typed values — a batch's value column and a
//! rows frame's runs — write them as the engine's *cells*, with its one
//! writer ([`put_column`]) and one reader ([`read_column`]): fixed-width
//! values, floats as bits (so NaN payloads, ±inf and −0.0 survive, which
//! JSON cannot offer), a text as `u32 len | utf-8`. The cells and their
//! checks are documented once, in [`backsort_engine::batch`] ("The byte
//! form").
//!
//! # The batch frame
//!
//! ```text
//! u16 device_len | device | u16 sensor_len | sensor | u8 dtype
//! u32 count | count × i64 timestamp | count × cell
//! ```
//!
//! The payload is the engine's batch payload, which the WAL logs too:
//! [`encode_batch`] writes the header and then [`put_batch`]'s payload
//! into the caller's buffer, patching the length in last, and the server
//! reads it with [`read_batch`]. A name over `u16::MAX` bytes cannot be
//! framed: [`SqlClient::send_batch`](crate::SqlClient::send_batch)
//! refuses it rather than send a length that reads back as another
//! series. A payload the decoder cannot read — a short one, an unknown
//! type, a bad cell, trailing bytes — is [`DecodeError::Malformed`]: the
//! frame was consumed, it is answered in its place, and the connection
//! carries on.
//!
//! A DOUBLE or INT64 point costs 16 payload bytes, so the server's
//! default `max_frame_bytes` of 4 MiB holds some 262,000 of them in one
//! frame (an INT32 or FLOAT point 12 bytes, a BOOLEAN 9).
//!
//! # The rows frame
//!
//! A `SELECT` of raw columns is the reply whose size follows the data.
//! The payload is column-major:
//!
//! ```text
//! u16 ncols | ncols × (u16 len | utf-8 name)
//! u32 nrows | nrows × i64 timestamp
//! ncols × column, each a sequence of runs covering exactly nrows cells:
//!     u8 tag | u32 run_len | run_len × cell
//! ```
//!
//! `tag` is [`DataType::tag`] (0–5) and the run's cells are of that
//! type; tag `0xFF` is a run of `None` cells and carries no cells. A
//! gap-free column of one type is a single run (5 bytes of framing);
//! alignment gaps and a column whose cells change type are simply more
//! runs, so nothing falls back to another encoding.
//!
//! The server writes the frame from the executor's [`RowSet`], which
//! has the frame's shape in memory — timestamps, and per column a list
//! of typed and `None` runs — so no row exists between the scan and the
//! socket: [`encode_row_set`] knows the payload's size before it writes
//! a byte, and copies each run as one block. [`encode_response`], handed
//! a `QueryOutput::Rows` (in-process callers), converts it with
//! [`RowSet::from_rows`] and calls the same encoder.
//!
//! Trailing bytes, an empty run, a run past `nrows` and an unknown tag
//! are [`std::io::ErrorKind::InvalidData`], as is a bad cell. What the
//! decoder cannot bound is the type it must produce: a `None` cell costs
//! no wire bytes but one `Option<TsValue>` decoded, so a frame of many
//! columns of `None` runs decodes to `nrows × ncols` cells — no single
//! allocation exceeds a small multiple of the frame, their sum can. A
//! columnar `QueryOutput::Rows` on the client would remove that.
//!
//! # The aggregates frame
//!
//! `Aggregates` and `Grouped` share one binary frame, so an aggregate
//! over NaN or ±inf (a [`KIND_BATCH`] frame may carry them) reads back
//! bit for bit, as the rows do — JSON has no non-finite numbers:
//!
//! ```text
//! u16 ncols | ncols × (u16 len | utf-8 label)
//! u8 shape                 0: one row of values, 1: one row per bucket
//! shape 1 only: u32 nbuckets | nbuckets × i64 bucket start
//! nrows × ncols × cell     nrows = 1, or nbuckets; a cell is u8 tag | 8 bytes
//! ```
//!
//! A cell's tag is 0 for `Number` (`f64` bits), 1 for `Time` (`i64`) and
//! 2 for `Empty` (eight zero bytes). The decoder checks the bucket count
//! against the bytes that remain before it reserves, and requires the
//! cells to fill the rest of the payload exactly; an unknown shape or
//! tag and an `Empty` cell with a byte set are
//! [`std::io::ErrorKind::InvalidData`].
//!
//! # The response limit
//!
//! Both sides share [`MAX_RESPONSE_BYTES`]. The server never emits a
//! larger payload: a binary reply's size is known before it is written,
//! so one past the limit is answered [`STATUS_ERR`] naming its row or
//! bucket count without being encoded, any other reply is refused the
//! same way once written, and the connection carries on.
//! [`SqlClient`](crate::SqlClient) accepts nothing larger.
//!
//! # When a frame reaches the socket
//!
//! Each end of a connection encodes its frames into one outgoing buffer
//! and reads through one buffered reader of [`BURST_BYTES`], so a
//! pipelined burst costs one socket write on each side, not one a
//! frame. The server writes its replies when
//!
//! 1. its reader holds no whole next frame, so the thread would block
//!    reading;
//! 2. a request is about to wait for a flush;
//! 3. the request is a sampled trace, so `wire.write` stays inside its
//!    `server.request`;
//! 4. the buffer has passed [`BURST_BYTES`];
//!
//! and, on its way out, what is left. A malformed or oversized frame's
//! notice goes through the same buffer, so replies stay in request
//! order. The client writes its requests when the buffer passes
//! [`BURST_BYTES`], on `flush`, on drop, and in `recv` when no whole
//! reply is already buffered — so `send` followed by `recv` cannot
//! deadlock. With one request in flight either end writes after every
//! frame, as it would without the buffer.

use std::io::Read;

use backsort_engine::batch::{
    column_len, put_batch, put_cells, put_column, read_batch, read_column, Unread,
};
use backsort_engine::{AggValue, DataType, PointBatch, SeriesKey, TsValue, ValueColumn};
use backsort_sql::{QueryOutput, RowSet, Run};

/// Frame header size: `u32 len + u8 kind + u64 id`.
pub const HEADER_BYTES: usize = 13;
/// Request kind: one UTF-8 SQL statement.
pub const KIND_SQL: u8 = 0x01;
/// Request kind: a binary batched INSERT.
pub const KIND_BATCH: u8 = 0x02;
/// Response kind: success, payload is JSON [`QueryOutput`] (an
/// administrative variant: not `Rows`, `Aggregates` or `Grouped`).
pub const STATUS_OK: u8 = 0x81;
/// Response kind: failure, payload is a UTF-8 message.
pub const STATUS_ERR: u8 = 0x82;
/// Response kind: shed by admission control, payload is a UTF-8 reason.
pub const STATUS_BUSY: u8 = 0x83;
/// Response kind: success, payload is a binary columnar
/// [`QueryOutput::Rows`] (see the module docs for the layout).
pub const STATUS_ROWS: u8 = 0x84;
/// Response kind: success, payload is a binary
/// [`QueryOutput::Aggregates`] or [`QueryOutput::Grouped`] (see the
/// module docs for the layout).
pub const STATUS_AGGREGATES: u8 = 0x85;
/// Largest response payload the server sends and the client accepts.
/// Responses carry whole query results, so this is well above the
/// request-side `max_frame_bytes`.
pub const MAX_RESPONSE_BYTES: usize = 64 << 20;
/// What each end of a connection gathers before it writes, and the size
/// of each end's read buffer (module docs: "When a frame reaches the
/// socket"): room for a pipelined window of batch frames — eight
/// 500-point DOUBLE frames, about 64,300 bytes.
pub const BURST_BYTES: usize = 64 << 10;

/// Run tag of `None` cells in a rows frame; `0..=5` are [`DataType::tag`].
const TAG_NONE: u8 = 0xFF;
/// Aggregates-frame shape: one row of values, no bucket starts.
const SHAPE_ONE: u8 = 0;
/// Aggregates-frame shape: one row per bucket, each with its start.
const SHAPE_BUCKETS: u8 = 1;
/// Aggregate cell tags: [`AggValue::Number`], [`AggValue::Time`],
/// [`AggValue::Empty`].
const CELL_NUMBER: u8 = 0;
const CELL_TIME: u8 = 1;
const CELL_EMPTY: u8 = 2;
/// An aggregate cell: its tag and eight bytes.
const CELL_BYTES: usize = 9;

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

/// Encodes a batched-INSERT request frame (module docs: "The batch
/// frame") into `out`, the payload written in place behind its header.
///
/// # Panics
/// On a batch the frame cannot carry ([`put_batch`]), which
/// [`SqlClient::send_batch`](crate::SqlClient::send_batch) refuses.
pub fn encode_batch(out: &mut Vec<u8>, id: u64, device: &str, sensor: &str, batch: &PointBatch) {
    try_encode_batch(out, id, device, sensor, batch).unwrap_or_else(|e| panic!("{e}"));
}

/// [`encode_batch`], refusing what the frame cannot carry with an
/// `InvalidInput` error and nothing appended.
pub(crate) fn try_encode_batch(
    out: &mut Vec<u8>,
    id: u64,
    device: &str,
    sensor: &str,
    batch: &PointBatch,
) -> std::io::Result<()> {
    let start = out.len();
    put_header(out, 0, KIND_BATCH, id);
    put_batch(out, device, sensor, batch).inspect_err(|_| out.truncate(start))?;
    set_len(out, start);
    Ok(())
}

/// Patches the length of the frame that starts at `start` — everything
/// `out` holds past its header.
fn set_len(out: &mut [u8], start: usize) {
    let len = (out.len() - start - HEADER_BYTES) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a response frame into `out`. A `Rows` output is a
/// [`STATUS_ROWS`] frame, converted by [`RowSet::from_rows`] and written
/// by [`encode_row_set`]'s encoder; `Aggregates` and `Grouped` are a
/// [`STATUS_AGGREGATES`] frame; any other output is JSON. An output that
/// cannot be sent — nothing may exceed [`MAX_RESPONSE_BYTES`] — degrades
/// to a [`STATUS_ERR`] frame rather than killing the connection.
pub fn encode_response(out: &mut Vec<u8>, id: u64, response: &Response) {
    encode_response_within(out, id, response, MAX_RESPONSE_BYTES);
}

/// Encodes a raw `SELECT`'s rows as a [`STATUS_ROWS`] frame into `out` —
/// the one encoder of that frame. A result past [`MAX_RESPONSE_BYTES`]
/// is answered [`STATUS_ERR`] naming its row count, before a byte of it
/// is written.
pub fn encode_row_set(out: &mut Vec<u8>, id: u64, rows: &RowSet) {
    encode_row_set_within(out, id, rows, MAX_RESPONSE_BYTES);
}

// The header's length field is a `u32`.
const _: () = assert!(MAX_RESPONSE_BYTES <= u32::MAX as usize);

/// [`encode_response`] with the payload limit as an argument, so a test
/// can reach the over-limit path without a 64 MiB result.
fn encode_response_within(out: &mut Vec<u8>, id: u64, response: &Response, limit: usize) {
    match response {
        Response::Output(QueryOutput::Rows { columns, rows }) => {
            match RowSet::from_rows(columns, rows) {
                Ok(rows) => encode_row_set_within(out, id, &rows, limit),
                Err(e) => put_frame(out, id, limit, |_| {
                    Err(format!("unserializable result: {}", e.message))
                }),
            }
        }
        Response::Output(QueryOutput::Aggregates { columns, values }) => {
            put_frame(out, id, limit, |out| {
                write_aggregates(out, columns, AggRows::One(values), limit)
            });
        }
        Response::Output(QueryOutput::Grouped { columns, buckets }) => {
            put_frame(out, id, limit, |out| {
                write_aggregates(out, columns, AggRows::Buckets(buckets), limit)
            });
        }
        Response::Output(output) => put_frame(out, id, limit, |out| {
            let json =
                serde_json::to_string(output).map_err(|e| format!("unserializable result: {e}"))?;
            out.extend_from_slice(json.as_bytes());
            Ok(STATUS_OK)
        }),
        Response::Error(message) => put_frame(out, id, limit, |out| {
            out.extend_from_slice(message.as_bytes());
            Ok(STATUS_ERR)
        }),
        Response::Busy(reason) => put_frame(out, id, limit, |out| {
            out.extend_from_slice(reason.as_bytes());
            Ok(STATUS_BUSY)
        }),
    }
}

/// [`encode_row_set`] with the payload limit as an argument.
fn encode_row_set_within(out: &mut Vec<u8>, id: u64, rows: &RowSet, limit: usize) {
    put_frame(out, id, limit, |out| {
        write_row_set(out, rows, limit).map(|()| STATUS_ROWS)
    });
}

/// Writes one response frame: a header, then the payload `body` appends,
/// whose status it returns. A body that fails, or appends more than
/// `limit` bytes, is replaced by the error it names in a [`STATUS_ERR`]
/// frame.
fn put_frame(
    out: &mut Vec<u8>,
    id: u64,
    limit: usize,
    body: impl FnOnce(&mut Vec<u8>) -> Result<u8, String>,
) {
    let start = out.len();
    put_header(out, 0, STATUS_ERR, id);
    let payload = out.len();
    let status = body(out)
        .and_then(|status| {
            if out.len() - payload <= limit {
                Ok(status)
            } else {
                Err(format!(
                    "result exceeds the {} MiB response limit",
                    limit >> 20
                ))
            }
        })
        .unwrap_or_else(|message| {
            out.truncate(payload);
            out.extend_from_slice(message.as_bytes());
            STATUS_ERR
        });
    set_len(out, start);
    out[start + 4] = status;
}

/// Bytes of `u16 count | count × (u16 len | utf-8)`.
fn labels_len(columns: &[String]) -> usize {
    columns
        .iter()
        .fold(2usize, |len, name| len.saturating_add(2 + name.len()))
}

/// Appends `u16 count | count × (u16 len | utf-8)`; `Err` when a count
/// or a length does not fit its `u16`.
fn put_labels(out: &mut Vec<u8>, columns: &[String]) -> Result<(), String> {
    let count = u16::try_from(columns.len())
        .map_err(|_| format!("unserializable result: {} columns", columns.len()))?;
    out.extend_from_slice(&count.to_le_bytes());
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
    Ok(())
}

/// Appends a rows payload (module docs: "The rows frame") to `out`. Its
/// size is known first, so a result past `limit` is refused before a
/// byte is written; `Err` is the message to answer instead.
fn write_row_set(out: &mut Vec<u8>, rows: &RowSet, limit: usize) -> Result<(), String> {
    let too_large = || {
        format!(
            "result of {} rows exceeds the {} MiB response limit; narrow the time range",
            rows.len(),
            limit >> 20
        )
    };
    let size = rows
        .runs()
        .iter()
        .flatten()
        .map(|run| match run {
            Run::Gap(_) => 5,
            Run::Values(values) => 5 + column_len(values),
        })
        .fold(labels_len(rows.columns()), usize::saturating_add)
        .saturating_add(4)
        .saturating_add(rows.len().saturating_mul(8));
    if size > limit {
        return Err(too_large());
    }
    // Within the limit, so every count and text length below fits its
    // `u32`.
    let nrows = u32::try_from(rows.len()).map_err(|_| too_large())?;
    out.reserve(size);
    put_labels(out, rows.columns())?;
    out.extend_from_slice(&nrows.to_le_bytes());
    put_cells(out, rows.times(), |t| t.to_le_bytes());
    for run in rows.runs().iter().flatten() {
        let run_len = u32::try_from(run.len()).map_err(|_| too_large())?;
        let Run::Values(values) = run else {
            out.push(TAG_NONE);
            out.extend_from_slice(&run_len.to_le_bytes());
            continue;
        };
        out.push(values.data_type().tag());
        out.extend_from_slice(&run_len.to_le_bytes());
        put_column(out, values);
    }
    Ok(())
}

/// The cells of an aggregates frame: one row, or one per bucket.
enum AggRows<'a> {
    One(&'a [AggValue]),
    Buckets(&'a [(i64, Vec<AggValue>)]),
}

/// An aggregate cell's bytes.
fn agg_cell(value: &AggValue) -> [u8; CELL_BYTES] {
    let (tag, bytes) = match *value {
        AggValue::Number(v) => (CELL_NUMBER, v.to_bits().to_le_bytes()),
        AggValue::Time(t) => (CELL_TIME, t.to_le_bytes()),
        AggValue::Empty => (CELL_EMPTY, [0; 8]),
    };
    let mut cell = [tag; CELL_BYTES];
    cell[1..].copy_from_slice(&bytes);
    cell
}

/// Appends an aggregates payload (module docs: "The aggregates frame")
/// to `out`, refusing one past `limit` before a byte is written; `Err`
/// is the message to answer instead.
fn write_aggregates(
    out: &mut Vec<u8>,
    columns: &[String],
    rows: AggRows<'_>,
    limit: usize,
) -> Result<u8, String> {
    let width = columns.len();
    let (nrows, starts, square) = match rows {
        AggRows::One(values) => (1, 0, values.len() == width),
        AggRows::Buckets(buckets) => (
            buckets.len(),
            4usize.saturating_add(buckets.len().saturating_mul(8)),
            buckets.iter().all(|(_, values)| values.len() == width),
        ),
    };
    if !square {
        return Err(format!(
            "unserializable result: a row of aggregates not {width} wide"
        ));
    }
    let size = labels_len(columns)
        .saturating_add(1 + starts)
        .saturating_add(nrows.saturating_mul(width).saturating_mul(CELL_BYTES));
    if size > limit {
        return Err(format!(
            "result of {nrows} buckets exceeds the {} MiB response limit; widen the step",
            limit >> 20
        ));
    }
    out.reserve(size);
    put_labels(out, columns)?;
    match rows {
        AggRows::One(values) => {
            out.push(SHAPE_ONE);
            put_cells(out, values, agg_cell);
        }
        AggRows::Buckets(buckets) => {
            out.push(SHAPE_BUCKETS);
            // Within the limit, so the count fits its `u32`.
            out.extend_from_slice(&(buckets.len() as u32).to_le_bytes());
            put_cells(out, buckets, |(start, _)| start.to_le_bytes());
            for (_, values) in buckets {
                put_cells(out, values, agg_cell);
            }
        }
    }
    Ok(STATUS_AGGREGATES)
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
        KIND_BATCH => {
            let (SeriesKey { device, sensor }, batch) =
                read_batch(&payload).map_err(|e| DecodeError::Malformed {
                    id,
                    reason: format!("undecodable batch payload: {e}"),
                })?;
            RequestBody::Batch {
                device,
                sensor,
                batch,
            }
        }
        other => {
            return Err(DecodeError::Malformed {
                id,
                reason: format!("unknown frame kind 0x{other:02x}"),
            })
        }
    };
    Ok(Some(RequestFrame { id, body }))
}

/// `u16 count | count × (u16 len | utf-8)`: a frame's column names.
fn read_labels(unread: &mut Unread<'_>) -> Result<Vec<String>, &'static str> {
    let count = unread.u16()?;
    // Each name is at least its two length bytes.
    if count.saturating_mul(2) > unread.0.len() {
        return Err("truncated");
    }
    let mut labels = Vec::with_capacity(count);
    for _ in 0..count {
        let len = unread.u16()?;
        labels.push(unread.string(len)?);
    }
    Ok(labels)
}

/// Whether `buffered` begins with a whole frame, header and payload, so
/// that reading the next frame from behind it cannot block.
pub(crate) fn holds_frame(buffered: &[u8]) -> bool {
    let Some(len) = buffered.first_chunk::<4>() else {
        return false;
    };
    let len = u32::from_le_bytes(*len) as usize;
    buffered.len() >= HEADER_BYTES.saturating_add(len)
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
        STATUS_AGGREGATES => Response::Output(
            decode_aggregates(&payload)
                .map_err(|e| invalid(format!("malformed aggregates payload: {e}")))?,
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
    let columns = read_labels(&mut unread)?;
    let ncols = columns.len();
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
            let some = |cells: &mut Vec<Option<TsValue>>, value| cells.push(Some(value));
            match read_column(&mut unread, data_type, run_len)? {
                ValueColumn::Int(v) => run.zip(v).for_each(|(c, v)| some(c, TsValue::Int(v))),
                ValueColumn::Long(v) => run.zip(v).for_each(|(c, v)| some(c, TsValue::Long(v))),
                ValueColumn::Float(v) => run.zip(v).for_each(|(c, v)| some(c, TsValue::Float(v))),
                ValueColumn::Double(v) => run.zip(v).for_each(|(c, v)| some(c, TsValue::Double(v))),
                ValueColumn::Bool(v) => run.zip(v).for_each(|(c, v)| some(c, TsValue::Bool(v))),
                ValueColumn::Text(v) => run.zip(v).for_each(|(c, v)| some(c, TsValue::Text(v))),
            }
        }
    }
    unread.finish()?;
    Ok(QueryOutput::Rows { columns, rows })
}

/// Decodes one aggregate cell.
fn agg_value([tag, bytes @ ..]: [u8; CELL_BYTES]) -> Result<AggValue, &'static str> {
    match tag {
        CELL_NUMBER => Ok(AggValue::Number(f64::from_bits(u64::from_le_bytes(bytes)))),
        CELL_TIME => Ok(AggValue::Time(i64::from_le_bytes(bytes))),
        CELL_EMPTY if bytes == [0; 8] => Ok(AggValue::Empty),
        CELL_EMPTY => Err("an empty cell with a byte set"),
        _ => Err("unknown cell tag"),
    }
}

/// Decodes a [`STATUS_AGGREGATES`] payload (module docs: "The
/// aggregates frame").
fn decode_aggregates(payload: &[u8]) -> Result<QueryOutput, &'static str> {
    let mut unread = Unread(payload);
    let columns = read_labels(&mut unread)?;
    let width = columns.len();
    let [shape] = unread.array()?;
    let starts: Option<Vec<i64>> = match shape {
        SHAPE_ONE => None,
        SHAPE_BUCKETS => {
            let count = unread.u32()?;
            Some(unread.cells(count)?.map(i64::from_le_bytes).collect())
        }
        _ => return Err("unknown shape"),
    };
    let nrows = starts.as_ref().map_or(1, Vec::len);
    // The cells must fill the rest exactly, which bounds every
    // reservation below by the payload.
    let cells = nrows
        .checked_mul(width)
        .and_then(|n| n.checked_mul(CELL_BYTES))
        .ok_or("count overflows")?;
    if unread.0.len() < cells {
        return Err("truncated");
    }
    if unread.0.len() > cells {
        return Err("trailing bytes");
    }
    let mut cells = unread.cells::<CELL_BYTES>(nrows * width)?;
    let mut row = || -> Result<Vec<AggValue>, &'static str> {
        let mut values = Vec::with_capacity(width);
        for cell in cells.by_ref().take(width) {
            values.push(agg_value(cell)?);
        }
        Ok(values)
    };
    let Some(starts) = starts else {
        let values = row()?;
        return Ok(QueryOutput::Aggregates { columns, values });
    };
    let mut buckets = Vec::with_capacity(starts.len());
    for start in starts {
        buckets.push((start, row()?));
    }
    Ok(QueryOutput::Grouped { columns, buckets })
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
        let labels = || vec!["count(s)".to_string(), "max_time(s)".to_string()];
        for (response, status) in [
            (Response::Output(QueryOutput::Inserted(7)), STATUS_OK),
            (sample_rows(), STATUS_ROWS),
            (
                Response::Output(QueryOutput::Aggregates {
                    columns: labels(),
                    values: vec![AggValue::Number(2.5), AggValue::Time(-9)],
                }),
                STATUS_AGGREGATES,
            ),
            (
                Response::Output(QueryOutput::Grouped {
                    columns: labels(),
                    buckets: vec![
                        (0, vec![AggValue::Number(1.0), AggValue::Time(3)]),
                        (10, vec![AggValue::Empty, AggValue::Empty]),
                    ],
                }),
                STATUS_AGGREGATES,
            ),
            (Response::Error("boom".to_string()), STATUS_ERR),
            (
                Response::Busy("shard 3 has waited".to_string()),
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
        let grouped = |n: i64| {
            Response::Output(QueryOutput::Grouped {
                columns: vec!["count(s)".to_string()],
                buckets: (0..n).map(|t| (t, vec![AggValue::Number(1.0)])).collect(),
            })
        };
        let mut buf = Vec::new();
        encode_response_within(&mut buf, 1, &rows(70_000), LIMIT);
        assert!(buf.len() < 200, "the refusal is short: {}", buf.len());
        encode_response_within(&mut buf, 2, &rows(60_000), LIMIT);
        // Text is counted before it is written, too.
        let text = Response::Output(QueryOutput::Rows {
            columns: vec!["s".to_string()],
            rows: vec![(1, vec![Some(TsValue::Text("x".repeat(LIMIT)))])],
        });
        encode_response_within(&mut buf, 3, &text, LIMIT);
        // So is anything that is not rows.
        encode_response_within(&mut buf, 4, &Response::Error("e".repeat(LIMIT + 1)), LIMIT);
        encode_response_within(&mut buf, 5, &Response::Busy("later".to_string()), LIMIT);
        // 17 bytes a bucket: 70,000 do not fit, 60,000 do.
        encode_response_within(&mut buf, 6, &grouped(70_000), LIMIT);
        encode_response_within(&mut buf, 7, &grouped(60_000), LIMIT);

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
        match next() {
            (6, Response::Error(m)) => {
                assert!(m.starts_with("result of 70000 buckets exceeds"), "{m}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(next(), (7, grouped(60_000)));
    }

    #[test]
    fn results_that_the_frames_cannot_express_are_an_error_not_a_wrong_frame() {
        let cases = [
            QueryOutput::Rows {
                columns: vec!["a".to_string(), "b".to_string()],
                rows: vec![(1, vec![None])],
            },
            QueryOutput::Rows {
                columns: vec!["n".repeat(usize::from(u16::MAX) + 1)],
                rows: Vec::new(),
            },
            QueryOutput::Aggregates {
                columns: vec!["a".to_string(), "b".to_string()],
                values: vec![AggValue::Empty],
            },
            QueryOutput::Grouped {
                columns: vec!["a".to_string()],
                buckets: vec![(0, vec![AggValue::Empty]), (1, Vec::new())],
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
    fn clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert!(read_request(&mut { empty }, 1 << 20)
            .expect("clean eof")
            .is_none());
    }
}
