//! The framed TCP front door for the SQL layer.
//!
//! IoTDB-benchmark is a *network client*: "the Benchmark begins to send
//! the data batch by batch to IoTDB-Server" and its metrics are "client
//! side statistics" (paper §VI-A2). This crate closes that client/server
//! split for the reproduction with a production-shaped wire path:
//!
//! * [`wire`] — a length-prefixed framed protocol. Clients pipeline N
//!   requests per connection; batched INSERTs travel as binary frames
//!   that decode straight into a [`PointBatch`](backsort_engine::PointBatch)
//!   with no SQL parse.
//! * [`SqlServer`] — blocking accept loop (no polling), one reader
//!   thread per connection feeding a **bounded** queue served by a fixed
//!   worker pool. Responses are written in per-connection request order
//!   even though workers finish out of order.
//! * Admission control — a full queue, a saturated pipelining window,
//!   or a flush pool that has fallen behind all answer with a typed
//!   [`Response::Busy`] instead of buffering unbounded work. Sheds are
//!   visible as `server.rejected_busy` in the registry. A write whose
//!   shard is full and still flushing *waits* for that flush instead
//!   (`server.flush_wait_nanos`), which is what bounds a memtable.
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

mod pool;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use backsort_engine::{PointBatch, SeriesKey, StorageEngine};
use backsort_obs::trace as obs_trace;
use backsort_obs::{names, Counter, Gauge, Histogram};
use backsort_sql::{compile_insert, execute_statement, parse, QueryOutput, Statement};

use pool::{ExecQueue, FlushPool, Task};
pub use wire::{RequestBody, Response};

/// Tuning knobs for [`SqlServer`]. The defaults suit tests and small
/// deployments; benchmarks override them per scenario.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Statement-executing worker threads.
    pub workers: usize,
    /// Bound on the shared execution queue; pushes beyond it are shed
    /// as BUSY.
    pub queue_capacity: usize,
    /// Per-connection pipelining window: admitted frames whose response
    /// has not yet been written. Frames beyond it are shed as BUSY.
    pub per_conn_inflight: usize,
    /// Largest accepted request payload; larger frames get an error
    /// and the connection is closed (the stream cannot be resynced).
    pub max_frame_bytes: usize,
    /// Ingest is shed as BUSY while more than this many flush jobs are
    /// submitted but incomplete. A shard has one flushing slot, so the
    /// backlog never exceeds the engine's shard count: the default of 8
    /// sheds only on an engine of more than eight shards, and `0` sheds
    /// whenever any flush is in flight. What keeps a memtable bounded on
    /// fewer shards is not this limit but the wait for the slot (see
    /// `server.flush_wait_nanos`).
    pub busy_flush_backlog: i64,
    /// Threads completing rotated memtables ([`FlushJob`](backsort_engine::FlushJob)s).
    pub flush_workers: usize,
    /// Artificial per-flush delay simulating slow storage — zero in
    /// production; benchmarks and backpressure tests raise it to force
    /// the BUSY path deterministically.
    pub flush_throttle: Duration,
    /// Trace one request in `n` under `server.request` (0 disables
    /// server-side sampling).
    pub trace_sample_n: u64,
    /// Socket write timeout applied to every accepted connection, so a
    /// wedged peer bounds how long a worker can sit in `send_ordered`
    /// instead of stalling the pool forever (zero disables it).
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 256,
            per_conn_inflight: 64,
            max_frame_bytes: 4 << 20,
            busy_flush_backlog: 8,
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
    connections_total: Arc<Counter>,
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
            connections_total: registry.counter(names::SERVER_CONNECTIONS_TOTAL),
            frames: registry.counter(names::SERVER_FRAMES),
            batch_points: registry.counter(names::SERVER_BATCH_POINTS),
            rejected_busy: registry.counter(names::SERVER_REJECTED_BUSY),
            rejected_malformed: registry.counter(names::SERVER_REJECTED_MALFORMED),
            flush_wait_nanos: registry.histogram(names::SERVER_FLUSH_WAIT_NANOS),
            request_nanos: registry.histogram(names::SERVER_REQUEST_NANOS),
        }
    }
}

/// Everything a worker needs to answer one connection in order: the
/// write half plus the reorder buffer.
struct ConnShared {
    stream: TcpStream,
    out: Mutex<OutBuf>,
    /// Admitted frames whose response has not yet been written — the
    /// pipelining window. File-local accounting, so relaxed suffices.
    inflight: AtomicUsize,
}

struct OutBuf {
    /// The next response sequence to go on the wire.
    next_seq: u64,
    /// Finished responses waiting for an earlier sequence.
    pending: BTreeMap<u64, Vec<u8>>,
}

/// Writes `frame` if `seq` is the next response due, followed by every
/// parked response that thereby becomes contiguous; otherwise parks it.
/// The worker's own buffer goes to the socket as it is — only a frame
/// that had to wait for an earlier one is copied, onto the run it joins.
/// The lock is held across the socket write: two workers draining
/// concurrently must not interleave their contiguous runs.
fn send_ordered(conn: &ConnShared, seq: u64, mut frame: Vec<u8>) {
    let mut guard = conn.out.lock().expect("connection out buffer poisoned");
    let out = &mut *guard;
    if seq != out.next_seq {
        out.pending.insert(seq, frame);
        return;
    }
    out.next_seq += 1;
    while let Some(next) = out.pending.remove(&out.next_seq) {
        frame.extend_from_slice(&next);
        out.next_seq += 1;
    }
    // A dead peer just drops responses; the reader notices EOF.
    // analyzer:allow(dropped-error): a response-write failure is the peer's loss — acked durability lives in the engine, and the reader thread tears the connection down on EOF/reset
    // analyzer:allow(blocking-in-worker): bounded by the write timeout set on every accepted socket, and the per-connection inflight window caps how much one peer can queue
    let _ = (&conn.stream).write_all(&frame);
}

/// State shared by the accept loop, connection readers, and workers.
struct ServerCore {
    engine: Arc<StorageEngine>,
    cfg: ServerConfig,
    queue: ExecQueue<ConnShared>,
    flush: FlushPool,
    /// [`FLUSH_WAIT_LIMIT`], except in this crate's own tests.
    flush_wait_limit: Duration,
    metrics: ServerMetrics,
    trace_tick: AtomicU64,
}

impl ServerCore {
    /// Executes one decoded request body against the engine.
    fn execute(&self, body: RequestBody) -> Response {
        match body {
            RequestBody::Sql(sql) => match traced_parse(&sql) {
                Err(e) => Response::Error(e.message),
                Ok(Statement::Insert {
                    device,
                    sensors,
                    rows,
                }) => match compile_insert(&device, &sensors, &rows) {
                    Err(e) => Response::Error(e.message),
                    Ok(batches) => self.ingest(batches),
                },
                Ok(statement) => match execute_statement(&self.engine, &statement) {
                    Ok(output) => Response::Output(output),
                    Err(e) => Response::Error(e.message),
                },
            },
            RequestBody::Batch {
                device,
                sensor,
                batch,
            } => self.ingest(vec![(SeriesKey::new(device, sensor), batch)]),
        }
    }

    /// The admission-controlled ingest path shared by SQL INSERTs and
    /// binary batch frames: shed when flushers lag, wait when the
    /// batch's shard is full and still flushing, then write without
    /// blocking and hand any rotated memtable to the flush pool.
    ///
    /// `Busy` is all or nothing — a client may send the whole request
    /// again. Every batch of a request waits out its shard's stall, all
    /// of them against one deadline, but only the first can be refused
    /// at it: once a batch is written the rest are written too, the
    /// engine taking what the wait could not hold back.
    fn ingest(&self, batches: Vec<(SeriesKey, PointBatch)>) -> Response {
        let backlog = self.flush.backlog();
        if backlog > self.cfg.busy_flush_backlog {
            return Response::Busy(format!(
                "flush backlog {backlog} exceeds limit {}; retry after backoff",
                self.cfg.busy_flush_backlog
            ));
        }
        let deadline = Instant::now() + self.flush_wait_limit;
        let mut total = 0usize;
        for (key, batch) in batches {
            let shard = self.engine.shard_of(&key.device);
            if self.engine.flush_stalled(shard)
                && !self.wait_for_flush(shard, deadline)
                && total == 0
            {
                return Response::Busy(format!(
                    "shard {shard} has waited {:?} for its flush; retry after backoff",
                    self.flush_wait_limit
                ));
            }
            total += batch.len();
            match self.engine.write_batch_nonblocking(&key, &batch) {
                Ok(Some(job)) => self.flush.submit(&self.engine, job),
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
    /// back until then, and a shard's working memtable stays within
    /// `memtable_max_points` plus one batch per worker. Waiting, not
    /// BUSY: every client this serves is a closed loop, and a refusal
    /// would come straight back as a retry on the cores the flusher
    /// needs. Returns `false` when `deadline`, the bound on the waits of
    /// one request, was reached.
    fn wait_for_flush(&self, shard: usize, deadline: Instant) -> bool {
        let span = obs_trace::span(names::SPAN_SERVER_FLUSH_WAIT);
        if let Some(span) = &span {
            span.attr(names::ATTR_SHARD, shard as u64);
        }
        let started = Instant::now();
        let resumed = self.flush.wait_while_stalled(
            &self.engine,
            shard,
            deadline.saturating_duration_since(started),
        );
        self.metrics
            .flush_wait_nanos
            .record(started.elapsed().as_nanos() as u64);
        resumed
    }

    /// Starts a sampled `server.request` trace for one request in
    /// `trace_sample_n`. Every span the worker opens until the reply is
    /// on the socket nests under it — `sql.parse`, the engine's read
    /// spans, `sql.rows`, `wire.encode`, `wire.write` — so an exported
    /// trace shows the request from decoded frame to written reply.
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

    /// Worker body: execute, record, answer in order.
    fn serve(&self, task: Task<ConnShared>) {
        let started = Instant::now();
        // Dropped — and with that filed — once the reply is written.
        let _trace = self.sample_trace(&task.body);
        let response = self.execute(task.body);
        if matches!(response, Response::Busy(_)) {
            self.metrics.rejected_busy.inc();
        }
        self.metrics
            .request_nanos
            .record(started.elapsed().as_nanos() as u64);
        let mut frame = Vec::new();
        {
            let span = obs_trace::span(names::SPAN_WIRE_ENCODE);
            wire::encode_response(&mut frame, task.id, &response);
            if let Some(span) = &span {
                span.attr(names::ATTR_BYTES, frame.len() as u64);
            }
        }
        {
            let span = obs_trace::span(names::SPAN_WIRE_WRITE);
            if let Some(span) = &span {
                span.attr(names::ATTR_BYTES, frame.len() as u64);
            }
            send_ordered(&task.conn, task.seq, frame);
        }
        task.conn.inflight.fetch_sub(1, Ordering::Relaxed);
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

/// A running framed SQL server.
pub struct SqlServer {
    addr: SocketAddr,
    core: Arc<ServerCore>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<HashMap<u64, Arc<ConnShared>>>>,
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
        let queue = ExecQueue::new(
            cfg.queue_capacity,
            registry.gauge(names::SERVER_QUEUE_DEPTH),
        );
        let flush = FlushPool::start(
            Arc::clone(&engine),
            cfg.flush_workers,
            cfg.flush_throttle,
            registry.gauge(names::SERVER_FLUSH_BACKLOG),
        );
        let worker_count = cfg.workers.max(1);
        let core = Arc::new(ServerCore {
            engine,
            cfg,
            queue,
            flush,
            flush_wait_limit,
            metrics,
            trace_tick: AtomicU64::new(0),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("server-worker-{i}"))
                    .spawn(move || {
                        while let Some(task) = core.queue.pop() {
                            core.serve(task);
                        }
                    })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, Arc<ConnShared>>>> = Arc::new(Mutex::new(HashMap::new()));
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
                        let core = Arc::clone(&core);
                        let conns2 = Arc::clone(&conns);
                        let spawned = std::thread::Builder::new()
                            .name(format!("server-conn-{conn_id}"))
                            .spawn(move || run_connection(&core, stream, conn_id, &conns2));
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
            workers,
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

    /// Stops accepting, unblocks and joins every connection reader,
    /// drains the execution queue (every admitted request is answered
    /// or its write attempted), and completes every submitted flush —
    /// acknowledged data is never dropped.
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
        // Unblock readers (and any worker stuck in a socket write).
        let conns: Vec<_> = self
            .conns
            .lock()
            .expect("connection map poisoned")
            .drain()
            .map(|(_, c)| c)
            .collect();
        for conn in conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
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
        // Readers are gone, so no new pushes: close and drain.
        self.core.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.core.flush.stop();
    }
}

impl Drop for SqlServer {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

/// Per-connection reader: decode frames, apply admission control, hand
/// admitted work to the pool. Malformed frames are answered in-line (in
/// order) without killing the connection; oversized frames answer then
/// close, since the unread payload makes resync impossible.
fn run_connection(
    core: &Arc<ServerCore>,
    stream: TcpStream,
    conn_id: u64,
    conns: &Mutex<HashMap<u64, Arc<ConnShared>>>,
) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnShared {
        stream,
        out: Mutex::new(OutBuf {
            next_seq: 0,
            pending: BTreeMap::new(),
        }),
        inflight: AtomicUsize::new(0),
    });
    conns
        .lock()
        .expect("connection map poisoned")
        .insert(conn_id, Arc::clone(&conn));
    core.metrics.connections.inc();
    core.metrics.connections_total.inc();
    let mut reader = BufReader::new(read_half);
    let mut seq = 0u64;
    let answer_inline = |seq: u64, id: u64, response: &Response| {
        let mut frame = Vec::new();
        wire::encode_response(&mut frame, id, response);
        send_ordered(&conn, seq, frame);
    };
    loop {
        match wire::read_request(&mut reader, core.cfg.max_frame_bytes) {
            Ok(None) | Err(wire::DecodeError::Io(_)) => break,
            Err(wire::DecodeError::Oversized { declared, max, id }) => {
                core.metrics.rejected_malformed.inc();
                answer_inline(
                    seq,
                    id,
                    &Response::Error(format!(
                        "frame of {declared} bytes exceeds limit {max}; closing connection"
                    )),
                );
                break;
            }
            Err(wire::DecodeError::Malformed { id, reason }) => {
                core.metrics.rejected_malformed.inc();
                answer_inline(
                    seq,
                    id,
                    &Response::Error(format!("malformed frame: {reason}")),
                );
                seq += 1;
            }
            Ok(Some(wire::RequestFrame { id, body })) => {
                core.metrics.frames.inc();
                if conn.inflight.load(Ordering::Relaxed) >= core.cfg.per_conn_inflight {
                    core.metrics.rejected_busy.inc();
                    answer_inline(
                        seq,
                        id,
                        &Response::Busy(format!(
                            "pipelining window of {} requests is full",
                            core.cfg.per_conn_inflight
                        )),
                    );
                    seq += 1;
                    continue;
                }
                conn.inflight.fetch_add(1, Ordering::Relaxed);
                let task = Task {
                    conn: Arc::clone(&conn),
                    seq,
                    id,
                    body,
                };
                if core.queue.try_push(task).is_err() {
                    conn.inflight.fetch_sub(1, Ordering::Relaxed);
                    core.metrics.rejected_busy.inc();
                    answer_inline(
                        seq,
                        id,
                        &Response::Busy("server execution queue is full".to_string()),
                    );
                }
                seq += 1;
            }
        }
    }
    // Only forget a quiescent connection: if responses are still in
    // flight, the entry must survive so `shutdown` can unblock a worker
    // stuck writing to this socket. The rare non-quiescent entry (peer
    // vanished mid-pipeline) is cleaned up at shutdown.
    let quiescent = conn.inflight.load(Ordering::Relaxed) == 0
        && conn
            .out
            .lock()
            .map(|out| out.pending.is_empty())
            .unwrap_or(true);
    if quiescent {
        conns
            .lock()
            .expect("connection map poisoned")
            .remove(&conn_id);
    }
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

/// Reads one HTTP request line, writes one response, closes. Renders
/// are taken inside the request (not cached) so every scrape sees a
/// fresh snapshot. Served inline on the accept thread: a render is
/// microseconds and scrapes arrive at human cadence, so a worker pool
/// would only add shutdown hazards.
fn serve_metrics_request(
    stream: TcpStream,
    registry: &backsort_obs::Registry,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so the peer's write isn't cut off mid-request.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 2 {
        header.clear();
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match path {
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
pub struct SqlClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    in_flight: VecDeque<u64>,
}

impl SqlClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_id: 0,
            in_flight: VecDeque::new(),
        })
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Queues one SQL statement without waiting; returns its frame id.
    /// Call [`flush`](Self::flush) (or [`recv`](Self::recv), which
    /// flushes) to push queued frames onto the wire.
    pub fn send_sql(&mut self, sql: &str) -> std::io::Result<u64> {
        let id = self.fresh_id();
        let mut frame = Vec::new();
        wire::encode_sql(&mut frame, id, sql);
        self.writer.write_all(&frame)?;
        self.in_flight.push_back(id);
        Ok(id)
    }

    /// Queues one binary batched INSERT without waiting; returns its
    /// frame id.
    pub fn send_batch(
        &mut self,
        device: &str,
        sensor: &str,
        batch: &PointBatch,
    ) -> std::io::Result<u64> {
        let id = self.fresh_id();
        let mut frame = Vec::new();
        wire::encode_batch(&mut frame, id, device, sensor, batch);
        self.writer.write_all(&frame)?;
        self.in_flight.push_back(id);
        Ok(id)
    }

    /// Pushes queued frames onto the wire.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Requests sent but not yet answered.
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }

    /// Receives the next response (responses arrive in request order).
    /// Flushes queued frames first so a bare `send_*` + `recv` cannot
    /// deadlock.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        self.writer.flush()?;
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
