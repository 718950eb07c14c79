//! The framed TCP front door for the SQL layer.
//!
//! IoTDB-benchmark is a *network client*: "the Benchmark begins to send
//! the data batch by batch to IoTDB-Server" and its metrics are "client
//! side statistics" (paper §VI-A2). This crate closes that client/server
//! split for the reproduction with a production-shaped wire path:
//!
//! * [`wire`] — a length-prefixed framed protocol. Clients pipeline N
//!   requests per connection; batched INSERTs travel as binary frames
//!   that decode straight into a [`PointBatch`] with no SQL parse.
//! * [`SqlServer`] — blocking accept loop (no polling) and one thread
//!   per connection that is the whole request path: read a frame,
//!   execute it, queue the reply, read the next. Replies are in request
//!   order by construction, a pipelined burst's replies leave in one
//!   socket write (the four rules are in [`wire`]'s "When a frame
//!   reaches the socket"), and a request that has to wait delays no
//!   connection but its own.
//! * Admission control — per connection it is TCP's: frame N+1 is
//!   decoded only after frame N is answered, so pipelined frames wait in
//!   the connection's read buffer, the socket buffer and then the
//!   client's `write`; a connection holds its read buffer, one decoded
//!   frame and its queue of replies, each at most [`wire::BURST_BYTES`]
//!   plus one frame. A write whose shard is full
//!   and still flushing *waits* for that flush on the engine's
//!   [`FlushPool`] (`server.flush_wait_nanos`), which is what bounds a
//!   memtable. Only a wait that reaches its bound is answered with a
//!   typed [`Response::Busy`], visible as `server.rejected_busy` in the
//!   registry.
//! * [`SqlClient`] — a blocking client speaking the same protocol, with
//!   an explicit pipelined API (`send_sql` / `send_batch` / `recv`).
//! * [`MetricsServer`] — the read-only HTTP exporter for the registry
//!   (`/metrics`, `/metrics.json`, `/traces`, `/slow`).
//!
//! ```no_run
//! use backsort_server::{SqlServer, SqlClient};
//! # use backsort_engine::{EngineConfig, StorageEngine};
//! # use std::sync::Arc;
//! let engine = Arc::new(StorageEngine::new(EngineConfig::default()));
//! let server = SqlServer::start("127.0.0.1:0", engine).unwrap();
//! let mut client = SqlClient::connect(server.addr()).unwrap();
//! client.execute("INSERT INTO root.sg.d1(timestamp, s) VALUES (1, 2.5)").unwrap();
//! let rows = client.execute("SELECT s FROM root.sg.d1").unwrap();
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wire;

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use backsort_engine::{FlushPool, PointBatch, SeriesKey, StorageEngine};
use backsort_obs::trace as obs_trace;
use backsort_obs::{names, Counter, Gauge, Histogram};
use backsort_sql::{
    compile_insert, execute_outcome, parse, Outcome, QueryOutput, RowSet, Statement,
};

pub use wire::{RequestBody, Response};

/// What a request is answered with: a raw `SELECT`'s rows as the
/// executor aligned them, encoded from those columns, or any other
/// response.
enum Reply {
    Rows(RowSet),
    Response(Response),
}

impl From<Response> for Reply {
    fn from(response: Response) -> Self {
        Reply::Response(response)
    }
}

/// Tuning knobs for [`SqlServer`]. The defaults suit tests and small
/// deployments; benchmarks override them per scenario.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Read by nothing: a request runs on its connection's thread, so
    /// there is no pool to size. The field stays only because
    /// `perf/src/run.rs` names it and this change may not edit `perf/`;
    /// the `benchmark` change of ROADMAP item 2 deletes it together
    /// with that line.
    pub workers: usize,
    /// Largest accepted request payload; larger frames get an error
    /// and the connection is closed (the stream cannot be resynced). A
    /// DOUBLE or INT64 point costs a batch frame 16 bytes, so the
    /// default 4 MiB holds some 262,000 of them.
    pub max_frame_bytes: usize,
    /// Threads completing rotated memtables ([`FlushJob`](backsort_engine::FlushJob)s).
    pub flush_workers: usize,
    /// Artificial per-flush delay simulating slow storage — zero in
    /// production; benchmarks and backpressure tests raise it to make
    /// writes wait for the flush, and past the wait's bound be refused
    /// as BUSY, deterministically.
    pub flush_throttle: Duration,
    /// Trace one request in `n` under `server.request` (0 disables
    /// server-side sampling).
    pub trace_sample_n: u64,
    /// Socket write timeout applied to every accepted connection: how
    /// long a peer that has stopped reading can hold its connection's
    /// thread in a reply write. A write that times out may have put part
    /// of a frame on the stream, so it ends the connection (zero
    /// disables the timeout).
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_frame_bytes: 4 << 20,
            flush_workers: 2,
            flush_throttle: Duration::ZERO,
            trace_sample_n: 64,
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// How long an ingest request waits for the flush that frees its
/// shard's flushing slot before it is shed as BUSY — three orders of
/// magnitude above a 100,000-point flush, so only a dead or wedged
/// flusher reaches it, and then connections are refused instead of hung.
const FLUSH_WAIT_LIMIT: Duration = Duration::from_secs(5);

/// Pre-resolved handles for every `server.*` metric, so the hot path
/// never touches the registry's name map.
struct ServerMetrics {
    connections: Arc<Gauge>,
    frames: Arc<Counter>,
    batch_points: Arc<Counter>,
    rejected_busy: Arc<Counter>,
    rejected_malformed: Arc<Counter>,
    flush_wait_nanos: Arc<Histogram>,
    request_nanos: Arc<Histogram>,
}

impl ServerMetrics {
    fn new(registry: &backsort_obs::Registry) -> Self {
        Self {
            connections: registry.gauge(names::SERVER_CONNECTIONS),
            frames: registry.counter(names::SERVER_FRAMES),
            batch_points: registry.counter(names::SERVER_BATCH_POINTS),
            rejected_busy: registry.counter(names::SERVER_REJECTED_BUSY),
            rejected_malformed: registry.counter(names::SERVER_REJECTED_MALFORMED),
            flush_wait_nanos: registry.histogram(names::SERVER_FLUSH_WAIT_NANOS),
            request_nanos: registry.histogram(names::SERVER_REQUEST_NANOS),
        }
    }
}

/// State shared by the accept loop and the connection threads.
struct ServerCore {
    engine: Arc<StorageEngine>,
    cfg: ServerConfig,
    flush: FlushPool,
    /// [`FLUSH_WAIT_LIMIT`], except in this crate's own tests.
    flush_wait_limit: Duration,
    metrics: ServerMetrics,
    trace_tick: AtomicU64,
}

impl ServerCore {
    /// Executes one decoded request body against the engine. A raw
    /// `SELECT`'s rows stay the executor's columns. `outbox` holds the
    /// replies to the connection's earlier requests, written out before
    /// a wait.
    fn execute(&self, body: RequestBody, outbox: &mut Outbox<'_>) -> Reply {
        let response = match body {
            RequestBody::Sql(sql) => match traced_parse(&sql) {
                Err(e) => Response::Error(e.message),
                Ok(Statement::Insert {
                    device,
                    sensors,
                    rows,
                }) => match compile_insert(&device, &sensors, &rows) {
                    Err(e) => Response::Error(e.message),
                    Ok(batches) => self.ingest(batches, outbox),
                },
                Ok(statement) => match execute_outcome(&self.engine, &statement) {
                    Ok(Outcome::Rows(rows)) => return Reply::Rows(rows),
                    Ok(Outcome::Output(output)) => Response::Output(output),
                    Err(e) => Response::Error(e.message),
                },
            },
            RequestBody::Batch {
                device,
                sensor,
                batch,
            } => self.ingest(vec![(SeriesKey::new(device, sensor), batch)], outbox),
        };
        response.into()
    }

    /// The admission-controlled ingest path shared by SQL INSERTs and
    /// binary batch frames: wait when the batch's shard is full and
    /// still flushing, then write without blocking and hand any rotated
    /// memtable to the flush pool.
    ///
    /// `Busy` is all or nothing — a client may send the whole request
    /// again. Every batch of a request waits out its shard's stall, all
    /// of them against one deadline, but only the first can be refused
    /// at it: once a batch is written the rest are written too, the
    /// engine taking what the wait could not hold back. Before it waits,
    /// the connection's queued replies go out, so the peer does not wait
    /// with them.
    fn ingest(&self, batches: Vec<(SeriesKey, PointBatch)>, outbox: &mut Outbox<'_>) -> Response {
        let deadline = Instant::now() + self.flush_wait_limit;
        let mut total = 0usize;
        for (key, batch) in batches {
            let shard = self.engine.shard_of(&key.device);
            if self.engine.flush_stalled(shard)
                && !self.wait_for_flush(shard, deadline, outbox)
                && total == 0
            {
                return Response::Busy(format!(
                    "shard {shard} has waited {:?} for its flush; retry after backoff",
                    self.flush_wait_limit
                ));
            }
            total += batch.len();
            match self.engine.write_batch_nonblocking(&key, &batch) {
                Ok(Some(job)) => self.flush.submit(job),
                Ok(None) => {}
                Err(e) => return Response::Error(format!("column {}: {e}", key.sensor)),
            }
        }
        self.metrics.batch_points.add(total as u64);
        Response::Output(QueryOutput::Inserted(total))
    }

    /// Waits for the flush that lets `shard` rotate again — the server's
    /// flow control. The engine accepts a write to a full shard whose
    /// flushing slot is occupied (it cannot know who will free the
    /// slot); the server owns the pool that will, so it holds the write
    /// back until then, and each of a shard's memtables stays within
    /// `memtable_max_points` plus one batch per connection. Waiting, not
    /// BUSY: every client this serves is a closed loop, and a refusal
    /// would come straight back as a retry on the cores the flusher
    /// needs. Returns `false` when `deadline`, the bound on the waits of
    /// one request, was reached.
    fn wait_for_flush(&self, shard: usize, deadline: Instant, outbox: &mut Outbox<'_>) -> bool {
        outbox.write_out();
        let span = obs_trace::span(names::SPAN_SERVER_FLUSH_WAIT);
        if let Some(span) = &span {
            span.attr(names::ATTR_SHARD, shard as u64);
        }
        let started = Instant::now();
        let resumed = self
            .flush
            .wait_while_stalled(shard, deadline.saturating_duration_since(started));
        self.metrics
            .flush_wait_nanos
            .record(started.elapsed().as_nanos() as u64);
        resumed
    }

    /// Starts a sampled `server.request` trace for one request in
    /// `trace_sample_n`. Every span the connection's thread opens until
    /// the reply is on the socket nests under it — `sql.parse`, the
    /// engine's read spans, `sql.rows`, `wire.encode`, `wire.write` — so
    /// an exported trace shows the request from decoded frame to written
    /// reply.
    fn sample_trace(&self, body: &RequestBody) -> Option<obs_trace::TraceContext> {
        let n = self.cfg.trace_sample_n;
        if n == 0 || !self.engine.obs().is_enabled() || obs_trace::active() {
            return None;
        }
        if !self
            .trace_tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(n)
        {
            return None;
        }
        let label = match body {
            RequestBody::Sql(sql) => {
                let head: String = sql.trim().chars().take(48).collect();
                format!("sql: {head}")
            }
            RequestBody::Batch {
                device,
                sensor,
                batch,
            } => format!("batch: {device}.{sensor} x{}", batch.len()),
        };
        self.engine
            .obs()
            .traces()
            .begin(names::SPAN_SERVER_REQUEST, label)
    }

    /// One request, from decoded frame to queued reply: execute, record,
    /// encode. A sampled request's reply is written out before its trace
    /// is filed, so the trace ends at the socket.
    fn serve(&self, outbox: &mut Outbox<'_>, id: u64, body: RequestBody) {
        let started = Instant::now();
        // Dropped — and with that filed — once the reply is written.
        let trace = self.sample_trace(&body);
        let reply = self.execute(body, outbox);
        if matches!(reply, Reply::Response(Response::Busy(_))) {
            self.metrics.rejected_busy.inc();
        }
        self.metrics
            .request_nanos
            .record(started.elapsed().as_nanos() as u64);
        outbox.push(id, &reply);
        if trace.is_some() {
            outbox.write_out();
        }
    }
}

/// A connection's replies on their way to the socket: encoded into one
/// buffer and written as a burst (the rules are in [`wire`]'s "When a
/// frame reaches the socket").
struct Outbox<'s> {
    stream: &'s TcpStream,
    bytes: Vec<u8>,
    /// A write failed. Part of a frame may be on the stream, so nothing
    /// more is written and the connection ends.
    broken: bool,
}

impl<'s> Outbox<'s> {
    fn new(stream: &'s TcpStream) -> Self {
        Self {
            stream,
            bytes: Vec::new(),
            broken: false,
        }
    }

    /// Encodes `reply` behind the queued ones, under a sampled request's
    /// `wire.encode` span.
    fn push(&mut self, id: u64, reply: &Reply) {
        let span = obs_trace::span(names::SPAN_WIRE_ENCODE);
        let before = self.bytes.len();
        match reply {
            Reply::Rows(rows) => wire::encode_row_set(&mut self.bytes, id, rows),
            Reply::Response(response) => wire::encode_response(&mut self.bytes, id, response),
        }
        if let Some(span) = &span {
            span.attr(names::ATTR_BYTES, (self.bytes.len() - before) as u64);
        }
    }

    /// Whether the queue has reached [`wire::BURST_BYTES`].
    fn full(&self) -> bool {
        self.bytes.len() >= wire::BURST_BYTES
    }

    /// Writes every queued reply, under a sampled request's `wire.write`
    /// span, then gives back capacity past [`wire::BURST_BYTES`]: a
    /// queue that kept its largest reply's room would pin up to
    /// [`wire::MAX_RESPONSE_BYTES`] for the connection's life.
    fn write_out(&mut self) {
        if self.bytes.is_empty() || self.broken {
            return;
        }
        let span = obs_trace::span(names::SPAN_WIRE_WRITE);
        if let Some(span) = &span {
            span.attr(names::ATTR_BYTES, self.bytes.len() as u64);
        }
        let mut stream = self.stream;
        // analyzer:allow(blocking-in-worker): the replies are the end of their round trips — a peer that does not read blocks only its own connection's thread, for `write_timeout` at most, after which the connection is closed
        self.broken = stream.write_all(&self.bytes).is_err();
        self.bytes.clear();
        self.bytes.shrink_to(wire::BURST_BYTES);
    }
}

/// [`parse`] under a `sql.parse` span.
fn traced_parse(sql: &str) -> Result<Statement, backsort_sql::SqlError> {
    let span = obs_trace::span(names::SPAN_SQL_PARSE);
    if let Some(span) = &span {
        span.attr(names::ATTR_BYTES, sql.len() as u64);
    }
    parse(sql)
}

/// Every open connection's socket, by connection id, so that `shutdown`
/// can unblock the thread reading from or writing to it.
type Conns = Mutex<HashMap<u64, TcpStream>>;

/// A running framed SQL server.
pub struct SqlServer {
    addr: SocketAddr,
    core: Arc<ServerCore>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<Conns>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl SqlServer {
    /// Binds `addr` (use port 0 for an ephemeral port) with default
    /// [`ServerConfig`].
    pub fn start(addr: impl ToSocketAddrs, engine: Arc<StorageEngine>) -> std::io::Result<Self> {
        Self::start_with(addr, engine, ServerConfig::default())
    }

    /// Binds `addr` and starts serving `engine` with explicit knobs.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        engine: Arc<StorageEngine>,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::start_with_flush_wait(addr, engine, cfg, FLUSH_WAIT_LIMIT)
    }

    /// [`start_with`](Self::start_with) under another bound on the wait
    /// for a flush than [`FLUSH_WAIT_LIMIT`] — private: only the test of
    /// what happens at the bound has a reason to move it.
    fn start_with_flush_wait(
        addr: impl ToSocketAddrs,
        engine: Arc<StorageEngine>,
        cfg: ServerConfig,
        flush_wait_limit: Duration,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let registry = Arc::clone(engine.obs());
        let metrics = ServerMetrics::new(&registry);
        let flush = FlushPool::start(Arc::clone(&engine), cfg.flush_workers, cfg.flush_throttle);
        let core = Arc::new(ServerCore {
            engine,
            cfg,
            flush,
            flush_wait_limit,
            metrics,
            trace_tick: AtomicU64::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Conns::default());
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("server-accept".to_string())
                .spawn(move || {
                    let mut next_conn_id = 0u64;
                    // Blocking accept: no polling. `shutdown` stores the
                    // stop flag, then self-connects to wake this loop.
                    for incoming in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        if !core.cfg.write_timeout.is_zero() {
                            // A socket that rejects the option still
                            // serves — just without the stall bound.
                            let _ = stream.set_write_timeout(Some(core.cfg.write_timeout));
                        }
                        let conn_id = next_conn_id;
                        next_conn_id += 1;
                        // Registered here, not on the connection's own
                        // thread: `shutdown` joins this loop before it
                        // sweeps the map, so every accepted socket is in
                        // it by then and none can miss the sweep.
                        let Ok(handle) = stream.try_clone() else {
                            continue;
                        };
                        conns
                            .lock()
                            .expect("connection map poisoned")
                            .insert(conn_id, handle);
                        let core = Arc::clone(&core);
                        let conns2 = Arc::clone(&conns);
                        let spawned = std::thread::Builder::new()
                            .name(format!("server-conn-{conn_id}"))
                            .spawn(move || run_connection(&core, stream, conn_id, &conns2));
                        if spawned.is_err() {
                            // No thread will serve it or forget it.
                            conns
                                .lock()
                                .expect("connection map poisoned")
                                .remove(&conn_id);
                        }
                        let mut threads = conn_threads.lock().expect("connection threads poisoned");
                        // Reap finished handlers so a long-lived server
                        // doesn't accumulate one JoinHandle per client
                        // that ever connected.
                        let (done, live): (Vec<_>, Vec<_>) =
                            threads.drain(..).partition(|t| t.is_finished());
                        *threads = live;
                        drop(threads);
                        for t in done {
                            let _ = t.join();
                        }
                        if let Ok(handle) = spawned {
                            conn_threads
                                .lock()
                                .expect("connection threads poisoned")
                                .push(handle);
                        }
                    }
                })?
        };
        Ok(Self {
            addr: local,
            core,
            stop,
            accept_thread: Some(accept_thread),
            conns,
            conn_threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.core.engine
    }

    /// Stops accepting, unblocks and joins every connection's thread (a
    /// request that is executing finishes, one that is waiting for a
    /// flush is released by that flush), and completes every submitted
    /// flush — acknowledged data is never dropped.
    pub fn shutdown(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the blocking accept; the loop re-checks the flag first.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Unblock every connection's thread, in a read or in a write. The
        // entries stay: each thread removes its own on the way out.
        for stream in self.conns.lock().expect("connection map poisoned").values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handlers: Vec<_> = self
            .conn_threads
            .lock()
            .expect("connection threads poisoned")
            .drain(..)
            .collect();
        for t in handlers {
            let _ = t.join();
        }
        // Last: a connection that was waiting for a flush needed the pool.
        self.core.flush.stop();
    }
}

impl Drop for SqlServer {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

/// A connection's thread, and the whole request path: read a frame,
/// answer it into the outbox, read the next — so replies are in request
/// order, what the peer pipelines waits in the read buffer and the
/// socket, and the outbox is written whenever the next read could block
/// or it is full. A malformed frame is answered and the connection
/// carries on; an oversized one is answered and the connection closed,
/// since its unread payload makes resync impossible; a reply that could
/// not be written closes it too, since part of a frame may be on the
/// stream.
fn run_connection(core: &ServerCore, stream: TcpStream, conn_id: u64, conns: &Conns) {
    let _ = stream.set_nodelay(true);
    core.metrics.connections.inc();
    let mut reader = BufReader::with_capacity(wire::BURST_BYTES, &stream);
    let mut outbox = Outbox::new(&stream);
    loop {
        let in_step = match wire::read_request(&mut reader, core.cfg.max_frame_bytes) {
            Ok(None) | Err(wire::DecodeError::Io(_)) => break,
            Err(wire::DecodeError::Oversized { declared, max, id }) => {
                core.metrics.rejected_malformed.inc();
                let notice = Response::Error(format!(
                    "frame of {declared} bytes exceeds limit {max}; closing connection"
                ));
                outbox.push(id, &notice.into());
                false
            }
            Err(wire::DecodeError::Malformed { id, reason }) => {
                core.metrics.rejected_malformed.inc();
                let notice = Response::Error(format!("malformed frame: {reason}"));
                outbox.push(id, &notice.into());
                true
            }
            Ok(Some(wire::RequestFrame { id, body })) => {
                core.metrics.frames.inc();
                core.serve(&mut outbox, id, body);
                true
            }
        };
        if outbox.broken || !in_step {
            break;
        }
        if outbox.full() || !wire::holds_frame(reader.buffer()) {
            outbox.write_out();
        }
    }
    outbox.write_out();
    conns
        .lock()
        .expect("connection map poisoned")
        .remove(&conn_id);
    core.metrics.connections.dec();
}

/// A minimal HTTP exporter for a metrics [`Registry`](backsort_obs::Registry).
///
/// Serves four read-only endpoints off the live registry:
///
/// * `GET /metrics` — Prometheus text exposition;
/// * `GET /metrics.json` — the registry's compact JSON rendering;
/// * `GET /traces` — recently finished traces as Chrome `chrome://tracing`
///   JSON (load the body straight into the trace viewer);
/// * `GET /slow` — the slow-query log (worst traces first) as JSON.
///
/// Same lifecycle as [`SqlServer`]: blocking accept unblocked by a
/// self-connect on shutdown, joined on [`MetricsServer::shutdown`] or
/// drop. Each request is one short-lived connection
/// (`Connection: close`), so no worker threads outlive their response.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `registry`'s snapshots.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: Arc<backsort_obs::Registry>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("metrics-accept".to_string())
            .spawn(move || {
                for incoming in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = incoming {
                        // analyzer:allow(dropped-error): one peer's failed scrape must not kill the accept loop; the scraper sees the dropped connection
                        let _ = serve_metrics_request(stream, &registry);
                    }
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread.
    pub fn shutdown(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

/// The most the metrics exporter reads of a request's head — request
/// line and headers together. A scrape's head is a few hundred bytes;
/// one that runs past this is answered 400 and its connection closed, so
/// a peer that never sends a newline cannot grow a buffer on the
/// exporter's only thread.
const MAX_REQUEST_HEAD_BYTES: u64 = 8 * 1024;

/// Reads one HTTP request head, writes one response, closes. Renders
/// are taken inside the request (not cached) so every scrape sees a
/// fresh snapshot. Served inline on the accept thread: a render is
/// microseconds and scrapes arrive at human cadence, so a worker pool
/// would only add shutdown hazards.
fn serve_metrics_request(
    stream: TcpStream,
    registry: &backsort_obs::Registry,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut head = BufReader::new(stream.try_clone()?).take(MAX_REQUEST_HEAD_BYTES);
    let mut request_line = String::new();
    head.read_line(&mut request_line)?;
    // Drain headers so the peer's write isn't cut off mid-request.
    let mut header = String::new();
    while head.read_line(&mut header)? > 2 {
        header.clear();
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match path {
        _ if head.limit() == 0 => (
            "400 Bad Request",
            "text/plain",
            format!("request head over {MAX_REQUEST_HEAD_BYTES} bytes\n"),
        ),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            registry.render_prometheus(),
        ),
        "/metrics.json" => ("200 OK", "application/json", registry.render_json()),
        "/traces" => (
            "200 OK",
            "application/json",
            registry.traces().render_chrome_json(),
        ),
        "/slow" => (
            "200 OK",
            "application/json",
            registry.traces().render_slow_json(),
        ),
        _ => (
            "404 Not Found",
            "text/plain",
            "try /metrics, /metrics.json, /traces or /slow\n".to_string(),
        ),
    };
    let mut writer = BufWriter::new(stream);
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}

/// A client-side failure: transport, server-reported, or shed by
/// admission control.
#[derive(Debug)]
pub enum ClientError {
    /// Socket/serialization problem.
    Io(std::io::Error),
    /// The server rejected the statement.
    Server(String),
    /// The server shed the request before executing it; safe to retry
    /// after backing off.
    Busy(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Busy(m) => write!(f, "server busy: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking client for [`SqlServer`], speaking the framed protocol.
///
/// Two usage styles:
///
/// * synchronous — [`execute`](Self::execute) /
///   [`insert_batch`](Self::insert_batch) send one request and wait;
/// * pipelined — [`send_sql`](Self::send_sql) /
///   [`send_batch`](Self::send_batch) queue N requests, then
///   [`recv`](Self::recv) collects responses in request order.
///
/// Requests are encoded into one outgoing buffer and written as a burst:
/// when it passes [`wire::BURST_BYTES`], on [`flush`](Self::flush), on
/// drop, and in [`recv`](Self::recv) when no whole reply is buffered.
/// After a failed write the client sends nothing more: every later
/// `send_*` and `flush` returns an error.
pub struct SqlClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Encoded requests not yet written, and how many frames they hold.
    out: Vec<u8>,
    queued: usize,
    /// Set by a failed write: the stream may end inside a frame.
    broken: bool,
    next_id: u64,
    in_flight: VecDeque<u64>,
}

impl SqlClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::with_capacity(wire::BURST_BYTES, stream.try_clone()?),
            stream,
            out: Vec::new(),
            queued: 0,
            broken: false,
            next_id: 0,
            in_flight: VecDeque::new(),
        })
    }

    /// Queues the frame `encode` appends under a fresh id, writing the
    /// queue once it passes [`wire::BURST_BYTES`]; returns the id.
    fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>, u64)) -> std::io::Result<u64> {
        self.check_broken()?;
        let id = self.next_id;
        self.next_id += 1;
        encode(&mut self.out, id);
        self.queued += 1;
        self.in_flight.push_back(id);
        if self.out.len() >= wire::BURST_BYTES {
            self.flush()?;
        }
        Ok(id)
    }

    /// Queues one SQL statement without waiting; returns its frame id.
    /// Call [`flush`](Self::flush) (or [`recv`](Self::recv), which
    /// writes the queue before it would wait) to push queued frames
    /// onto the wire.
    pub fn send_sql(&mut self, sql: &str) -> std::io::Result<u64> {
        self.send(|out, id| wire::encode_sql(out, id, sql))
    }

    /// Queues one binary batched INSERT without waiting; returns its
    /// frame id.
    pub fn send_batch(
        &mut self,
        device: &str,
        sensor: &str,
        batch: &PointBatch,
    ) -> std::io::Result<u64> {
        self.send(|out, id| wire::encode_batch(out, id, device, sensor, batch))
    }

    /// Pushes queued frames onto the wire in one write, then gives back
    /// capacity past [`wire::BURST_BYTES`] (a large batch's room is not
    /// kept for the client's life). A failed write drops the queued
    /// frames from [`pending`](Self::pending) and breaks the client.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.check_broken()?;
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        if written.is_err() {
            self.in_flight.truncate(self.in_flight.len() - self.queued);
            self.broken = true;
        }
        self.queued = 0;
        self.out.clear();
        self.out.shrink_to(wire::BURST_BYTES);
        written
    }

    fn check_broken(&self) -> std::io::Result<()> {
        if self.broken {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "an earlier write to the server failed",
            ));
        }
        Ok(())
    }

    /// Requests sent but not yet answered.
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }

    /// Receives the next response (responses arrive in request order).
    /// A reply already in the read buffer is returned without a write;
    /// otherwise the queued frames are written first, before the read
    /// that waits — so `send_*` followed by `recv` cannot deadlock, and
    /// a pipelined window's requests leave in one write.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        if !wire::holds_frame(self.reader.buffer()) {
            self.flush()?;
        }
        match wire::read_response(&mut self.reader, wire::MAX_RESPONSE_BYTES)? {
            Some((id, response)) => {
                if self.in_flight.front() == Some(&id) {
                    self.in_flight.pop_front();
                }
                Ok((id, response))
            }
            None => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    /// Sends one statement and waits for its result. Responses to
    /// earlier abandoned pipelined sends are discarded.
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutput, ClientError> {
        let id = self.send_sql(sql)?;
        self.wait_for(id)
    }

    /// Sends one binary batched INSERT and waits; returns the inserted
    /// point count.
    pub fn insert_batch(
        &mut self,
        device: &str,
        sensor: &str,
        batch: &PointBatch,
    ) -> Result<usize, ClientError> {
        let id = self.send_batch(device, sensor, batch)?;
        match self.wait_for(id)? {
            QueryOutput::Inserted(n) => Ok(n),
            other => Err(ClientError::Server(format!(
                "unexpected response to batch insert: {other:?}"
            ))),
        }
    }

    fn wait_for(&mut self, id: u64) -> Result<QueryOutput, ClientError> {
        loop {
            let (rid, response) = self.recv()?;
            if rid != id {
                continue;
            }
            return match response {
                Response::Output(output) => Ok(output),
                Response::Error(message) => Err(ClientError::Server(message)),
                Response::Busy(reason) => Err(ClientError::Busy(reason)),
            };
        }
    }
}

impl Drop for SqlClient {
    /// Writes the queued frames, best effort as a `BufWriter`'s drop: a
    /// dropped client has no caller left to tell of a failed write.
    fn drop(&mut self) {
        self.flush().unwrap_or(());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_engine::{EngineConfig, TsValue};

    /// At the bound on the wait — shortened here through the private
    /// constructor, against a flusher that takes far longer — the frame
    /// is answered BUSY, the connection serves what comes next, and the
    /// frame is taken once the flusher has caught up.
    #[test]
    fn a_wait_that_reaches_its_bound_is_answered_busy() {
        const LIMIT: i64 = 1_000;
        let engine = Arc::new(StorageEngine::new(EngineConfig {
            memtable_max_points: LIMIT as usize,
            ..EngineConfig::default()
        }));
        let server = SqlServer::start_with_flush_wait(
            "127.0.0.1:0",
            Arc::clone(&engine),
            ServerConfig {
                flush_workers: 1,
                flush_throttle: Duration::from_millis(500),
                ..ServerConfig::default()
            },
            Duration::from_millis(20),
        )
        .expect("bind");
        let mut client = SqlClient::connect(server.addr()).expect("connect");
        let frame = |f: i64| {
            PointBatch::from_rows((f * LIMIT..(f + 1) * LIMIT).map(|t| (t, TsValue::Long(t))))
                .expect("batch")
        };
        // One frame rotates into the slow flusher, the next fills the
        // memtable behind it, the third can only wait — for 20 ms.
        for f in 0..2 {
            assert_eq!(
                client.insert_batch("root.dead.d1", "s", &frame(f)).ok(),
                Some(LIMIT as usize)
            );
        }
        match client.insert_batch("root.dead.d1", "s", &frame(2)) {
            Err(ClientError::Busy(reason)) => assert!(reason.contains("has waited"), "{reason}"),
            other => panic!("{other:?}"),
        }
        let obs = engine.obs();
        assert_eq!(obs.counter_value(names::SERVER_REJECTED_BUSY), 1);
        let waited = obs.snapshot();
        let waited = waited
            .histogram(names::SERVER_FLUSH_WAIT_NANOS)
            .expect("registered");
        assert_eq!(waited.count, 1);
        assert!(waited.max >= 20_000_000, "{} ns", waited.max);

        match client.execute("SELECT count(s) FROM root.dead.d1") {
            Ok(QueryOutput::Aggregates { values, .. }) => {
                assert_eq!(values[0].as_number(), Some(2.0 * LIMIT as f64));
            }
            other => panic!("{other:?}"),
        }
        // The refused frame was not written in part; sent again after
        // the flush it lands (this wait is ended by the flusher).
        while engine.flush_stalled(0) {
            std::thread::yield_now();
        }
        assert_eq!(
            client.insert_batch("root.dead.d1", "s", &frame(2)).ok(),
            Some(LIMIT as usize)
        );
        server.shutdown();
    }

    /// Replies queued ahead of a write that must wait for a flush leave
    /// before the wait, not with the write's own reply after it: three
    /// `count`s pipelined in one burst ahead of a frame for a stalled
    /// shard are answered while that frame is still waiting — no wait
    /// has ended yet — and the frame once its flush is done.
    #[test]
    fn replies_queued_before_a_wait_for_a_flush_leave_before_it() {
        const LIMIT: i64 = 1_000;
        let engine = Arc::new(StorageEngine::new(EngineConfig {
            memtable_max_points: LIMIT as usize,
            ..EngineConfig::default()
        }));
        let server = SqlServer::start_with_flush_wait(
            "127.0.0.1:0",
            Arc::clone(&engine),
            ServerConfig {
                flush_workers: 1,
                flush_throttle: Duration::from_millis(400),
                ..ServerConfig::default()
            },
            Duration::from_secs(30),
        )
        .expect("bind");
        let waits_ended = || {
            let snapshot = engine.obs().snapshot();
            snapshot
                .histogram(names::SERVER_FLUSH_WAIT_NANOS)
                .map_or(0, |h| h.count)
        };
        let mut client = SqlClient::connect(server.addr()).expect("connect");
        let frame = |f: i64| {
            PointBatch::from_rows((f * LIMIT..(f + 1) * LIMIT).map(|t| (t, TsValue::Long(t))))
                .expect("batch")
        };
        // One frame rotates into the slow flusher, the next fills the
        // memtable behind it.
        for f in 0..2 {
            assert_eq!(
                client.insert_batch("root.held.d1", "s", &frame(f)).ok(),
                Some(LIMIT as usize)
            );
        }
        assert!(engine.flush_stalled(engine.shard_of("root.held.d1")));

        let counts: Vec<u64> = (0..3)
            .map(|_| {
                client
                    .send_sql("SELECT count(s) FROM root.held.d1")
                    .expect("send")
            })
            .collect();
        let held = client
            .send_batch("root.held.d1", "s", &frame(2))
            .expect("send");
        for id in counts {
            match client.recv() {
                Ok((got, Response::Output(QueryOutput::Aggregates { values, .. }))) => {
                    assert_eq!(got, id);
                    assert_eq!(values[0].as_number(), Some(2.0 * LIMIT as f64));
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(waits_ended(), 0, "the replies waited out the flush");
        assert_eq!(
            client.recv().ok(),
            Some((
                held,
                Response::Output(QueryOutput::Inserted(LIMIT as usize))
            ))
        );
        assert_eq!(waits_ended(), 1);
        server.shutdown();
    }

    /// BUSY is all or nothing for a request of several series, so that
    /// sending it again never appends a point twice: a stall that
    /// outlasts the bound *after* the first series is written does not
    /// refuse the rest, and one that does so *before* it writes nothing.
    #[test]
    fn a_request_of_several_series_is_refused_whole_or_not_at_all() {
        const LIMIT: i64 = 1_000;
        let engine = Arc::new(StorageEngine::new(EngineConfig {
            memtable_max_points: LIMIT as usize,
            ..EngineConfig::default()
        }));
        let server = SqlServer::start_with_flush_wait(
            "127.0.0.1:0",
            Arc::clone(&engine),
            ServerConfig {
                flush_workers: 1,
                flush_throttle: Duration::from_millis(500),
                ..ServerConfig::default()
            },
            Duration::from_millis(20),
        )
        .expect("bind");
        let mut client = SqlClient::connect(server.addr()).expect("connect");
        let busy = || engine.obs().counter_value(names::SERVER_REJECTED_BUSY);
        let waits = || {
            let snapshot = engine.obs().snapshot();
            snapshot
                .histogram(names::SERVER_FLUSH_WAIT_NANOS)
                .map(|h| h.count)
        };

        // One frame rotates into the slow flusher. Of the request that
        // follows, column `a` fills the memtable behind it and column
        // `b` finds the shard stalled — past the bound it is written
        // all the same.
        let frame = PointBatch::from_rows((0..LIMIT).map(|t| (t, TsValue::Long(t))));
        assert_eq!(
            client
                .insert_batch("root.dead.d1", "s", &frame.expect("batch"))
                .ok(),
            Some(LIMIT as usize)
        );
        let rows: Vec<String> = (0..LIMIT).map(|t| format!("({t}, {t}, {t})")).collect();
        let two_columns = format!(
            "INSERT INTO root.dead.d1(timestamp, a, b) VALUES {}",
            rows.join(", ")
        );
        match client.execute(&two_columns) {
            Ok(QueryOutput::Inserted(n)) => assert_eq!(n, 2 * LIMIT as usize),
            other => panic!("{other:?}"),
        }
        assert_eq!((waits(), busy()), (Some(1), 0));

        // The next one waits at its first column and is refused before
        // it has written anything.
        match client.execute("INSERT INTO root.dead.d1(timestamp, c, d) VALUES (1, 1, 1)") {
            Err(ClientError::Busy(reason)) => assert!(reason.contains("has waited"), "{reason}"),
            other => panic!("{other:?}"),
        }
        assert_eq!((waits(), busy()), (Some(2), 1));
        let columns: Vec<String> = engine
            .list_sensors("root.dead.d1")
            .into_iter()
            .map(|key| key.sensor)
            .collect();
        assert_eq!(columns, ["a", "b", "s"]);
        server.shutdown();
    }
}
