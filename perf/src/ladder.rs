//! The traced run: per-layer numbers measured from outside the program.
//!
//! Two sources. The *registry counts* come from a few closed-loop rounds
//! of the workload, read off the engine's own counters. The *depth
//! ladder* replays a sample of the workload's own requests in-process on
//! one thread at successive depths, each call wrapped in a span; a
//! layer's self time is its depth minus the depths below it. Every call
//! the ladder makes into the repository is in this file, so API churn
//! touches one place.
//!
//! Each depth is a pass of its own over the whole sample, from the same
//! starting state, so every depth meets the same cache and memtable
//! regime (replaying one request at all depths back to back would warm
//! the block cache for the deeper ones).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use backsort_engine::{Aggregation, DurableEngine, FlushMetrics, StorageEngine};
use backsort_obs::{names, Registry};
use backsort_server::wire::{self, RequestBody};
use backsort_server::Response;
use backsort_sql::{execute_statement, parse};
use backsort_tvlist::TVList;

use crate::oracle;
use crate::run::{self, push, BenchConfig, Host, Outcome};
use crate::script::{Op, Script, Workload};
use crate::stats;

/// Closed-loop rounds the traced run makes for the registry counts.
const COUNT_ROUNDS: usize = 3;
/// Points of one series a shard's default memtable holds at rotation
/// (100,000 points over four sensors): the size the core sort sees.
const SORT_CHUNK: usize = 25_000;
/// Largest frame the decoders are allowed: the client's own response limit.
const MAX_FRAME: usize = 64 << 20;

/// How many of connection 0's first-phase ops the ladder replays. Enough
/// writes for several memtable rotations, enough queries for a stable
/// mean, few enough that five passes stay within seconds.
fn sample_len(workload: Workload) -> usize {
    match workload {
        Workload::IngestOoo => 4_000,
        Workload::QueryWindow => 60,
        Workload::QueryAggCold => 150,
        Workload::MixedRecent => 2_000,
    }
}

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: usize,
    pass: &'static str,
}

/// Total time and call count under one span name.
#[derive(Debug, Default, Clone, Copy)]
struct Total {
    ns: u64,
    calls: u64,
}

impl Total {
    fn mean_us(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Times calls and, while `recording`, keeps a span for each. Spans stay
/// in memory until the run ends.
struct Tracer {
    epoch: Instant,
    recording: bool,
    pass: &'static str,
    spans: Vec<Span>,
    totals: BTreeMap<(&'static str, &'static str), Total>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            recording: true,
            pass: "",
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Opens the span every call of one replayed request hangs under.
    fn request(&mut self, request: usize) -> Option<usize> {
        if !self.recording {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: "request",
            start_ns: now,
            end_ns: now,
            parent: None,
            request,
            pass: self.pass,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `call` inside a span named `name`.
    fn time<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let result = black_box(call());
        let ns = start.elapsed().as_nanos() as u64;
        let total = self.totals.entry((self.pass, name)).or_default();
        total.ns += ns;
        total.calls += 1;
        if self.recording {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + ns,
                parent,
                request,
                pass: self.pass,
            });
            if let Some(p) = parent {
                self.spans[p].end_ns = start_ns + ns;
            }
        }
        result
    }

    fn total(&self, pass: &'static str, name: &'static str) -> Total {
        self.totals.get(&(pass, name)).copied().unwrap_or_default()
    }

    /// The spans in the Chrome-trace shape the server's `/traces` emits:
    /// complete events, microsecond timestamps, one `tid` per pass.
    fn chrome_json(&self) -> String {
        let mut passes: Vec<&str> = Vec::new();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = passes.iter().position(|p| *p == s.pass).unwrap_or_else(|| {
                passes.push(s.pass);
                passes.len() - 1
            });
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perf.{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"span\":{i},\"request\":{}{}}}}}",
                s.name,
                s.pass,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
                s.parent.map_or(String::new(), |p| format!(",\"parent\":{p}")),
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Applies a write below the measured depth of a pass, so the engine's
/// state advances exactly as it does in the passes that measure writes.
fn apply_write(engine: &StorageEngine, script: &Script, op: &Op) {
    if let Op::Write { series, at, len } = *op {
        let batch = script.batch(series, at, len);
        let job = engine
            .write_batch_nonblocking(&script.series[series].key, &batch)
            .expect("the script's batches match their series' type");
        if let Some(job) = job {
            engine.complete_flush(job);
        }
    }
}

/// What the passes counted beside time.
#[derive(Default)]
struct Counts {
    write_points: u64,
    flushed: FlushMetrics,
    queries: u64,
    rows: u64,
    response_bytes: u64,
    sorted_points: u64,
    wal_bytes: u64,
}

/// Pass `engine`: the storage engine's own entry points.
fn engine_pass(
    tracer: &mut Tracer,
    script: &Script,
    ops: &[Op],
    engine: &StorageEngine,
    counts: &mut Counts,
) {
    tracer.pass = "engine";
    for (request, op) in ops.iter().enumerate() {
        let parent = tracer.request(request);
        match *op {
            Op::Write { series, at, len } => {
                let key = &script.series[series].key;
                let batch = script.batch(series, at, len);
                counts.write_points += len as u64;
                let job = tracer
                    .time("engine.write_batch_nonblocking", request, parent, || {
                        engine.write_batch_nonblocking(key, &batch)
                    })
                    .expect("the script's batches match their series' type");
                if let Some(job) = job {
                    let m = tracer.time("engine.complete_flush", request, parent, || {
                        engine.complete_flush(job)
                    });
                    counts.flushed.sort_nanos += m.sort_nanos;
                    counts.flushed.encode_nanos += m.encode_nanos;
                    counts.flushed.write_nanos += m.write_nanos;
                    counts.flushed.points += m.points;
                }
            }
            Op::Select { series, lo, hi, .. } => {
                let key = &script.series[series].key;
                tracer.time("engine.query", request, parent, || {
                    engine.query(key, lo, hi)
                });
            }
            Op::CountAvg {
                series,
                avg_series,
                lo,
                hi,
                ..
            } => {
                let counted = &script.series[series].key;
                let averaged = &script.series[avg_series].key;
                tracer.time("engine.aggregate", request, parent, || {
                    (
                        engine.aggregate(counted, lo, hi, Aggregation::Count),
                        engine.aggregate(averaged, lo, hi, Aggregation::Avg),
                    )
                });
            }
        }
    }
}

/// Pass `sql+wire`: statement parse and execution, and both directions of
/// the wire codec, each as a stand-alone call on the same request.
fn sql_wire_pass(
    tracer: &mut Tracer,
    script: &Script,
    ops: &[Op],
    engine: &StorageEngine,
    counts: &mut Counts,
) {
    tracer.pass = "sql+wire";
    let mut frame = Vec::new();
    for (request, op) in ops.iter().enumerate() {
        let parent = tracer.request(request);
        let id = request as u64;
        if let Op::Write { series, at, len } = *op {
            let key = &script.series[series].key;
            let batch = script.batch(series, at, len);
            frame.clear();
            tracer.time("wire.encode_batch", request, parent, || {
                wire::encode_batch(&mut frame, id, &key.device, &key.sensor, &batch);
            });
            let decoded = tracer
                .time("wire.read_request", request, parent, || {
                    wire::read_request(&mut frame.as_slice(), MAX_FRAME)
                })
                .expect("a frame this file just encoded decodes")
                .expect("the frame is not an end of stream");
            let RequestBody::Batch { batch: decoded, .. } = decoded.body else {
                panic!("a batch frame decoded to something else");
            };
            assert_eq!(decoded, batch, "the wire codec changed a batch");
            apply_write(engine, script, op);
            continue;
        }
        let sql = script.sql(op);
        let statement = tracer
            .time("sql.parse", request, parent, || parse(&sql))
            .expect("the script's SQL parses");
        let output = tracer
            .time("sql.execute", request, parent, || {
                execute_statement(engine, &statement)
            })
            .expect("the script's SQL executes");
        counts.queries += 1;
        counts.rows += oracle::row_count(&output);
        let response = Response::Output(output);
        frame.clear();
        tracer.time("wire.encode_response", request, parent, || {
            wire::encode_response(&mut frame, id, &response);
        });
        counts.response_bytes += frame.len() as u64;
        let (_, decoded) = tracer
            .time("wire.read_response", request, parent, || {
                wire::read_response(&mut frame.as_slice(), MAX_FRAME)
            })
            .expect("a frame this file just encoded decodes")
            .expect("the frame is not an end of stream");
        assert_eq!(decoded, response, "the wire codec changed a reply");
    }
}

/// Pass `loopback`: the same requests through a real client, socket and
/// server, one connection, one request in flight. Leaves `recording` on.
fn loopback_pass(tracer: &mut Tracer, script: &Script, ops: &[Op], host: &mut Host) {
    let client = &mut host.clients[0];
    for (request, op) in ops.iter().enumerate() {
        // Every other request runs with spans off; the two halves meet
        // the same state and drift, so their difference is the tracing.
        tracer.recording = request % 2 == 0;
        tracer.pass = if tracer.recording {
            "loopback"
        } else {
            "loopback-untraced"
        };
        let parent = tracer.request(request);
        if let Op::Write { series, at, len } = *op {
            let key = &script.series[series].key;
            let batch = script.batch(series, at, len);
            tracer
                .time("loopback.insert_batch", request, parent, || {
                    client.insert_batch(&key.device, &key.sensor, &batch)
                })
                .expect("a batch insert over loopback succeeds");
        } else {
            let sql = script.sql(op);
            tracer
                .time("loopback.execute", request, parent, || client.execute(&sql))
                .expect("a query over loopback succeeds");
        }
    }
    tracer.recording = true;
}

/// A directory under the system's temporary directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("perf-{}-{tag}", std::process::id()));
        // A leftover from a killed run with the same pid is stale.
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Pass `durable`: the same writes through the WAL-backed engine on a
/// temporary directory. The WAL is on and is not synced per batch — the
/// engine's default — so this prices the log's encode and append and the
/// persisting of flushed images, not the device's flush latency.
fn durable_pass(
    tracer: &mut Tracer,
    cfg: &BenchConfig,
    script: &Script,
    ops: &[Op],
    counts: &mut Counts,
) {
    tracer.pass = "durable";
    let dir = TempDir::new(script.workload.name());
    let mut durable = DurableEngine::open(&dir.0, cfg.engine).expect("open a durable engine");
    for (request, op) in ops.iter().enumerate() {
        match *op {
            Op::Write { series, at, len } => {
                let parent = tracer.request(request);
                let key = &script.series[series].key;
                let batch = script.batch(series, at, len);
                tracer
                    .time("store.write_batch", request, parent, || {
                        durable.write_batch(key, &batch)
                    })
                    .expect("a durable write succeeds");
            }
            // Reads sort the buffers they touch, which later flushes
            // then find sorted; keep that part of the state faithful.
            Op::Select { series, lo, hi, .. } | Op::CountAvg { series, lo, hi, .. } => {
                black_box(durable.query(&script.series[series].key, lo, hi));
            }
        }
    }
    counts.wal_bytes = durable.engine().obs().snapshot().counter(names::WAL_BYTES);
}

/// Pass `core`: the configured sorter alone, on TVLists holding the
/// sampled series' arrival streams in memtable-sized pieces. Returns the
/// registry the sorter reported its block sizes and merge overlaps to.
fn core_sort_pass(
    tracer: &mut Tracer,
    cfg: &BenchConfig,
    script: &Script,
    ops: &[Op],
    counts: &mut Counts,
) -> Registry {
    tracer.pass = "core";
    let registry = Registry::new();
    let mut written: BTreeMap<usize, usize> = BTreeMap::new();
    for op in ops {
        if let Op::Write { series, len, .. } = *op {
            *written.entry(series).or_default() += len;
        }
    }
    for (request, (series, points)) in written.into_iter().enumerate() {
        let stream = &script.series[series];
        let arrivals: Vec<i64> = (0..points).map(|i| stream.arrival(i)).collect();
        for chunk in arrivals.chunks(SORT_CHUNK) {
            let mut list: TVList<f64> =
                TVList::from_pairs(chunk.iter().map(|&t| (t, Script::value(series, t))));
            counts.sorted_points += chunk.len() as u64;
            tracer.time("core.sort", request, None, || {
                cfg.engine
                    .sorter
                    .sort_series_observed(&mut list, Some(&registry));
            });
            assert!(
                list.iter().map(|(t, _)| t).is_sorted(),
                "the sorter left a series unsorted"
            );
        }
    }
    registry
}

fn per(total_ns: u64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        total_ns as f64 / units as f64
    }
}

/// One layer's line in a share table: name, self time in µs, and whether
/// the self time had to be clamped at zero.
type Layer = (&'static str, f64, bool);

/// Prints, for one kind of request, every layer's self time and share of
/// the loopback round trip.
fn share_table(notes: &mut Vec<String>, kind: &str, round_trip_us: f64, layers: &[Layer]) {
    if round_trip_us == 0.0 {
        return;
    }
    notes.push(format!(
        "layer shares of one {kind} round trip over loopback ({round_trip_us:.1} us):"
    ));
    let mut sum = 0.0;
    for &(name, self_us, clamped) in layers {
        let share = self_us / round_trip_us;
        sum += share;
        notes.push(format!(
            "  {name:<40} {self_us:>12.2} us {:>7.1} %{}",
            share * 100.0,
            if clamped {
                "  (clamped at 0: the depths below measured slower than this one)"
            } else {
                ""
            }
        ));
    }
    notes.push(format!("  {:<40} {:>23.1} %", "sum of shares", sum * 100.0));
}

/// Turns the passes' totals into the per-layer metrics and share tables.
fn report(out: &mut Outcome, tracer: &Tracer, counts: &Counts, sorter: &Registry) {
    let t = |pass, name| tracer.total(pass, name);

    // The write ladder, per point and per frame.
    let encode = t("sql+wire", "wire.encode_batch");
    let decode = t("sql+wire", "wire.read_request");
    let append = t("engine", "engine.write_batch_nonblocking");
    let flush = t("engine", "engine.complete_flush");
    let durable = t("durable", "store.write_batch");
    let sort = t("core", "core.sort");
    let write_rt = t("loopback", "loopback.insert_batch");
    let points = counts.write_points;
    let flushed = &counts.flushed;
    let volatile_ns = (append.ns + flush.ns) as f64;
    let (wal_ns, wal_clamped) = stats::self_time(durable.ns as f64, &[volatile_ns]);
    let sorter = sorter.snapshot();
    let block_size_p50 = sorter
        .histogram(names::SORT_BLOCK_SIZE)
        .map_or(0.0, |h| h.percentile(0.5) as f64);
    let overlap_q_mean = sorter
        .histogram(names::MERGE_OVERLAP_Q)
        .map_or(0.0, |h| h.mean());

    // The read ladder, per statement.
    let query = t("engine", "engine.query");
    let aggregate = t("engine", "engine.aggregate");
    let engine_us = query.mean_us() + aggregate.mean_us();
    let engine_reads = query.calls + 2 * aggregate.calls;
    let parse_us = t("sql+wire", "sql.parse").mean_us();
    let execute_us = t("sql+wire", "sql.execute").mean_us();
    let encode_us = t("sql+wire", "wire.encode_response").mean_us();
    let decode_us = t("sql+wire", "wire.read_response").mean_us();
    let read_rt = t("loopback", "loopback.execute");
    let (exec_self_us, exec_clamped) = stats::self_time(execute_us, &[engine_us]);

    // Transport is what the loopback round trip adds to the in-process
    // depths: socket, queue hand-off, reorder buffer, thread wake-ups.
    let write_below = [encode.mean_us(), decode.mean_us(), append.mean_us()];
    let read_below = [parse_us, execute_us, encode_us, decode_us];
    let (write_transport, write_clamped) = stats::self_time(write_rt.mean_us(), &write_below);
    let (read_transport, read_clamped) = stats::self_time(read_rt.mean_us(), &read_below);
    let transport_us =
        write_transport * write_rt.calls as f64 + read_transport * read_rt.calls as f64;

    // Tracing overhead: the loopback requests that kept spans against
    // the alternate ones that did not, kind by kind.
    let off_write = t("loopback-untraced", "loopback.insert_batch");
    let off_read = t("loopback-untraced", "loopback.execute");
    let untraced_us =
        off_write.mean_us() * write_rt.calls as f64 + off_read.mean_us() * read_rt.calls as f64;
    let traced_us = (write_rt.ns + read_rt.ns) as f64 / 1e3;
    let overhead = if untraced_us == 0.0 {
        0.0
    } else {
        (traced_us - untraced_us) / untraced_us
    };

    for (name, value) in [
        ("client.encode_ns_per_point", per(encode.ns, points)),
        ("server.wire.decode_ns_per_point", per(decode.ns, points)),
        ("engine.write.append_ns_per_point", per(append.ns, points)),
        (
            "engine.flush.sort_ns_per_point",
            per(flushed.sort_nanos, flushed.points),
        ),
        (
            "engine.flush.encode_ns_per_point",
            per(flushed.encode_nanos, flushed.points),
        ),
        (
            "engine.flush.write_ns_per_point",
            per(flushed.write_nanos, flushed.points),
        ),
        ("core.sort_ns_per_point", per(sort.ns, counts.sorted_points)),
        ("core.sort_block_size_p50", block_size_p50),
        ("core.merge_overlap_q_mean", overlap_q_mean),
        ("engine.store.wal_ns_per_point", per(wal_ns as u64, points)),
        (
            "engine.store.wal_bytes_per_point",
            per(counts.wal_bytes, points),
        ),
        (
            "engine.read.query_us",
            per(query.ns + aggregate.ns, engine_reads) / 1e3,
        ),
        ("engine.aggregate.us_per_query", aggregate.mean_us()),
        ("sql.parse_us_per_stmt", parse_us),
        ("sql.exec_self_us_per_query", exec_self_us),
        ("server.wire.encode_us_per_query", encode_us),
        ("client.decode_us_per_query", decode_us),
        (
            "server.wire.response_bytes_per_row",
            per(counts.response_bytes, counts.rows),
        ),
        (
            "server.transport_us_per_request",
            per(transport_us as u64, write_rt.calls + read_rt.calls),
        ),
        ("perf.trace_overhead_share", overhead),
    ] {
        push(&mut out.samples, name, value);
    }

    share_table(
        &mut out.notes,
        "write",
        write_rt.mean_us(),
        &[
            ("client (wire::encode_batch)", write_below[0], false),
            ("server.wire (wire::read_request)", write_below[1], false),
            (
                "engine.write (write_batch_nonblocking)",
                write_below[2],
                false,
            ),
            ("server transport", write_transport, write_clamped),
        ],
    );
    share_table(
        &mut out.notes,
        "query",
        read_rt.mean_us(),
        &[
            ("sql (parse)", parse_us, false),
            (
                "engine.read (query / aggregate)",
                engine_us.min(execute_us),
                false,
            ),
            ("sql (execute, self)", exec_self_us, exec_clamped),
            ("server.wire (wire::encode_response)", encode_us, false),
            ("client (wire::read_response)", decode_us, false),
            ("server transport", read_transport, read_clamped),
        ],
    );
    if points > 0 {
        out.notes.push(format!(
            "off the write's blocking path: flush {:.1} ns/point (sort + encode + image); durable write_batch {:.1} ns/point against {:.1} volatile{}",
            per(flush.ns, points),
            per(durable.ns, points),
            per(volatile_ns as u64, points),
            if wal_clamped { " (clamped at 0)" } else { "" },
        ));
    }
}

/// The traced run of one workload.
pub fn traced(cfg: &BenchConfig, workload: Workload, seed: u64, rounds: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut ready = run::set_up(cfg, workload, seed, &mut out);
    run::run_rounds(cfg, &mut ready, rounds.min(COUNT_ROUNDS), &mut out);
    run::note_tails(&mut out);

    let script = &ready.script;
    let ops = &script.round[0].ops[0];
    let ops = &ops[..sample_len(workload).min(ops.len())];
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();

    // The read-only workloads replay against the engine the rounds read;
    // the write workloads start every pass from an empty engine.
    let loaded: Option<Arc<StorageEngine>> =
        ready.host.as_ref().map(|h| Arc::clone(h.server.engine()));
    let engine_for_pass = || loaded.clone().unwrap_or_else(|| cfg.new_engine());
    engine_pass(&mut tracer, script, ops, &engine_for_pass(), &mut counts);
    sql_wire_pass(&mut tracer, script, ops, &engine_for_pass(), &mut counts);
    match &mut ready.host {
        Some(host) => loopback_pass(&mut tracer, script, ops, host),
        None => {
            let mut host = Host::start(cfg, cfg.new_engine());
            loopback_pass(&mut tracer, script, ops, &mut host);
            drop(host.stop());
        }
    }
    let mut sorter = Registry::new();
    if ops.iter().any(Op::is_write) {
        durable_pass(&mut tracer, cfg, script, ops, &mut counts);
        sorter = core_sort_pass(&mut tracer, cfg, script, ops, &mut counts);
    }
    report(&mut out, &tracer, &counts, &sorter);

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.chrome_json())) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
    ready.stop();
    out
}
