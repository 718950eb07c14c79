//! The closed-loop driver: client threads over real loopback TCP against
//! an in-process `SqlServer`, every reply checked, tracing off.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use backsort_engine::{EngineConfig, StorageEngine};
use backsort_obs::{names, Snapshot};
use backsort_server::{Response, ServerConfig, SqlClient, SqlServer};
use backsort_sql::QueryOutput;

use crate::oracle::{self, RowsDigest};
use crate::script::{self, Op, Phase, Script, Workload};
use crate::stats;

/// Share of a round's ops the untimed warm-up runs.
const WARM_UP_SHARE: f64 = 0.1;
/// Pause before a request the server refused as BUSY is sent again.
const BUSY_BACKOFF: Duration = Duration::from_millis(1);

/// The load shape every workload shares: shipping defaults except one
/// shard and one worker per client connection and a single flusher.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    pub connections: usize,
    pub engine: EngineConfig,
    pub server: ServerConfig,
}

impl BenchConfig {
    pub fn reference() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let connections = cores.min(4);
        Self {
            connections,
            engine: EngineConfig {
                shards: connections,
                ..EngineConfig::default()
            },
            server: ServerConfig {
                workers: connections,
                flush_workers: 1,
                ..ServerConfig::default()
            },
        }
    }

    pub fn new_engine(&self) -> Arc<StorageEngine> {
        Arc::new(StorageEngine::new(self.engine))
    }

    pub fn script(&self, workload: Workload, seed: u64) -> Script {
        let router = self.new_engine();
        script::generate(workload, seed, self.connections, &|d| router.shard_of(d))
    }
}

/// A serving engine with one connected client per connection.
pub struct Host {
    pub server: SqlServer,
    pub clients: Vec<SqlClient>,
}

impl Host {
    pub fn start(cfg: &BenchConfig, engine: Arc<StorageEngine>) -> Host {
        let server = SqlServer::start_with("127.0.0.1:0", engine, cfg.server.clone())
            .expect("bind an ephemeral loopback port");
        let clients = (0..cfg.connections)
            .map(|_| SqlClient::connect(server.addr()).expect("connect to the in-process server"))
            .collect();
        Host { server, clients }
    }

    /// Stops the server, which completes every queued flush, and hands
    /// the engine back.
    pub fn stop(self) -> Arc<StorageEngine> {
        let engine = Arc::clone(self.server.engine());
        drop(self.clients);
        self.server.shutdown();
        engine
    }
}

/// What the clients saw while one phase ran.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    pub wall_s: f64,
    pub write_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub points_acked: u64,
    pub queries: u64,
    pub rows: u64,
    /// Aggregate values returned (two per `count, avg` statement).
    pub aggregates: u64,
    pub attempted: u64,
    pub busy: u64,
    pub errors: u64,
    pub mismatches: u64,
}

impl PhaseStats {
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.mismatches
    }

    fn absorb(&mut self, other: PhaseStats) {
        self.wall_s += other.wall_s;
        self.write_ms.extend(other.write_ms);
        self.query_ms.extend(other.query_ms);
        self.points_acked += other.points_acked;
        self.queries += other.queries;
        self.rows += other.rows;
        self.aggregates += other.aggregates;
        self.attempted += other.attempted;
        self.busy += other.busy;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
    }
}

/// One connection's closed loop: at most `window` requests in flight, the
/// next sent only as a reply comes back. A BUSY reply counts as a failed
/// attempt and the request is sent again.
fn drive(script: &Script, ops: &[Op], window: usize, client: &mut SqlClient) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let mut in_flight: VecDeque<(Instant, usize)> = VecDeque::with_capacity(window);
    let mut retry: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    loop {
        let to_send = if in_flight.len() >= window {
            None
        } else if let Some(again) = retry.pop_front() {
            Some(again)
        } else if next < ops.len() {
            next += 1;
            Some(next - 1)
        } else {
            None
        };
        if let Some(idx) = to_send {
            let sent = Instant::now();
            match &ops[idx] {
                Op::Write { series, at, len } => {
                    let key = &script.series[*series].key;
                    let batch = script.batch(*series, *at, *len);
                    client.send_batch(&key.device, &key.sensor, &batch)
                }
                query => client.send_sql(&script.sql(query)),
            }
            .expect("send a request over loopback");
            in_flight.push_back((sent, idx));
            stats.attempted += 1;
            continue;
        }
        let Some((sent, idx)) = in_flight.pop_front() else {
            break;
        };
        let (_, response) = client.recv().expect("receive a reply over loopback");
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match response {
            Response::Busy(_) => {
                stats.busy += 1;
                retry.push_back(idx);
                std::thread::sleep(BUSY_BACKOFF);
            }
            Response::Error(_) => stats.errors += 1,
            Response::Output(output) => match &ops[idx] {
                Op::Write { len, .. } if output == QueryOutput::Inserted(*len) => {
                    stats.points_acked += *len as u64;
                    stats.write_ms.push(ms);
                }
                Op::Select { expect, .. } if oracle::rows_match(&output, expect) => {
                    stats.queries += 1;
                    stats.rows += oracle::row_count(&output);
                    stats.query_ms.push(ms);
                }
                Op::CountAvg { count, avg, .. }
                    if oracle::count_avg_match(&output, *count, *avg) =>
                {
                    stats.queries += 1;
                    stats.rows += oracle::row_count(&output);
                    stats.aggregates += 2;
                    stats.query_ms.push(ms);
                }
                _ => stats.mismatches += 1,
            },
        }
    }
    stats
}

/// Which of a connection's ops a phase run sends: everything, the
/// warm-up's leading share, or what the warm-up left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    All,
    WarmUp,
    AfterWarmUp,
}

impl Part {
    fn of(self, ops: &[Op]) -> &[Op] {
        let warm = (ops.len() as f64 * WARM_UP_SHARE).ceil() as usize;
        match self {
            Part::All => ops,
            Part::WarmUp => &ops[..warm],
            Part::AfterWarmUp => &ops[warm..],
        }
    }
}

/// Runs `part` of every connection's ops side by side and times from the
/// moment all are ready to the moment the last finishes.
pub fn run_phase(
    script: &Script,
    phase: &Phase,
    clients: &mut [SqlClient],
    part: Part,
) -> PhaseStats {
    let barrier = Arc::new(Barrier::new(clients.len() + 1));
    let mut total = PhaseStats::default();
    let mut started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&phase.ops)
            .map(|(client, ops)| {
                let barrier = Arc::clone(&barrier);
                let ops = part.of(ops);
                scope.spawn(move || {
                    barrier.wait();
                    drive(script, ops, phase.window, client)
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        for handle in handles {
            total.absorb(handle.join().expect("a client thread panicked"));
        }
    });
    total.wall_s = started.elapsed().as_secs_f64();
    total
}

/// Process user + system CPU seconds so far, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s on every Linux this runs on).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields are counted after it.
    let after_comm = stat.rsplit_once(") ").expect("stat has a command name").1;
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime and stime are numbers")
    };
    (ticks() + ticks()) / 100.0
}

/// The process's peak resident set so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is a number of kB");
    kib / 1024.0
}

/// Samples of every metric, keyed by name, one per round or set-up.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

pub fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Latency samples behind one round's (or load's) percentiles.
const WRITE_SAMPLES: &str = "client.write_samples";
const QUERY_SAMPLES: &str = "client.query_samples";

/// Derives the client-side metrics of one round (or one load) from its
/// phases. Rates divide by the wall time of the phases that did that
/// kind of work only.
fn record_client_metrics(samples: &mut Samples, phases: &[PhaseStats]) {
    let mut writes = PhaseStats::default();
    let mut queries = PhaseStats::default();
    let mut busy = 0;
    for phase in phases {
        busy += phase.busy;
        if phase.points_acked > 0 {
            writes.wall_s += phase.wall_s;
            writes.points_acked += phase.points_acked;
            writes.write_ms.extend(&phase.write_ms);
        }
        if phase.queries > 0 {
            queries.wall_s += phase.wall_s;
            queries.queries += phase.queries;
            queries.rows += phase.rows;
            queries.query_ms.extend(&phase.query_ms);
        }
    }
    push(samples, "client.busy_retries", busy as f64);
    if writes.points_acked > 0 {
        let ms = &mut writes.write_ms;
        ms.sort_by(f64::total_cmp);
        let rate = writes.points_acked as f64 / writes.wall_s;
        push(samples, "ingest_points_per_s", rate);
        push(samples, "client.write_p50_ms", stats::percentile(ms, 50.0));
        push(samples, "client.write_p95_ms", stats::percentile(ms, 95.0));
        push(samples, "client.write_p99_ms", stats::percentile(ms, 99.0));
        push(samples, WRITE_SAMPLES, ms.len() as f64);
    }
    if queries.queries > 0 {
        let ms = &mut queries.query_ms;
        ms.sort_by(f64::total_cmp);
        let rate = queries.queries as f64 / queries.wall_s;
        push(samples, "query_per_s", rate);
        push(samples, "query_p50_ms", stats::percentile(ms, 50.0));
        push(samples, "client.query_p95_ms", stats::percentile(ms, 95.0));
        push(samples, "client.query_p99_ms", stats::percentile(ms, 99.0));
        push(samples, QUERY_SAMPLES, ms.len() as f64);
        push(
            samples,
            "sql.rows_per_query",
            ratio(queries.rows, queries.queries),
        );
    }
}

/// Derives the count metrics of one round from what the engine's own
/// registry counted while it ran.
fn record_registry_metrics(samples: &mut Samples, counted: &Snapshot, phases: &[PhaseStats]) {
    let c = |name: &str| counted.counter(name);
    let request_p50_ns = counted
        .histogram(names::SERVER_REQUEST_NANOS)
        .map_or(0, |h| h.percentile(0.5));
    let reads = c(names::QUERY_READ_PATH) + c(names::QUERY_SORTED_ON_READ);
    let pruned = c(names::QUERY_FILES_PRUNED) + c(names::QUERY_FILES_PRUNED_BY_FILTER);
    let lookups = c(names::CACHE_HITS) + c(names::CACHE_MISSES);
    let aggregates: u64 = phases.iter().map(|p| p.aggregates).sum();
    let scanned = if aggregates == 0 {
        0
    } else {
        c(names::QUERY_ROWS_MERGED)
    };
    for (name, value) in [
        ("server.request_p50_us", request_p50_ns as f64 / 1e3),
        (
            "server.rejected_busy",
            c(names::SERVER_REJECTED_BUSY) as f64,
        ),
        (
            "engine.write.ooo_share",
            ratio(c(names::MEMTABLE_OOO_POINTS), c(names::ENGINE_WRITE_POINTS)),
        ),
        ("engine.flush.count", c(names::FLUSH_COUNT) as f64),
        (
            "engine.read.files_considered_per_query",
            ratio(c(names::QUERY_FILES_CONSIDERED), reads),
        ),
        (
            "engine.read.files_pruned_share",
            ratio(pruned, c(names::QUERY_FILES_CONSIDERED)),
        ),
        (
            "engine.read.sorted_on_read_share",
            ratio(c(names::QUERY_SORTED_ON_READ), reads),
        ),
        (
            "engine.cache.hit_share",
            ratio(c(names::CACHE_HITS), lookups),
        ),
        ("engine.cache.evictions", c(names::CACHE_EVICTIONS) as f64),
        (
            "engine.aggregate.points_scanned_per_result",
            ratio(scanned, aggregates),
        ),
    ] {
        push(samples, name, value);
    }
}

/// Says, per kind of request, how many latency samples the smallest
/// round had and which tail that supports: a percentile is only as good
/// as the samples beyond it.
pub fn note_tails(out: &mut Outcome) {
    for (kind, name) in [("write", WRITE_SAMPLES), ("query", QUERY_SAMPLES)] {
        let Some(counts) = out.samples.get(name) else {
            continue;
        };
        let n = counts.iter().copied().fold(f64::INFINITY, f64::min) as usize;
        let tail = stats::tail_pick(n).map_or("none".to_string(), |p| format!("p{p}"));
        out.notes.push(format!(
            "{kind} latencies: at least {n} per round; p95 keeps {} beyond it and p99 {}; the highest percentile that keeps {}: {tail}",
            stats::samples_beyond(n, 95.0),
            stats::samples_beyond(n, 99.0),
            stats::MIN_BEYOND,
        ));
    }
}

/// Flushes what the memtables still hold and reports file-image bytes
/// per stored point; the engine must be quiescent.
fn settle(engine: &StorageEngine) -> f64 {
    engine.flush();
    engine.flush_unseq();
    let obs = engine.obs().snapshot();
    obs.counter(names::FLUSH_BYTES) as f64 / obs.counter(names::FLUSH_POINTS) as f64
}

/// The full read-back: every series, whole time range, straight from the
/// engine, against the model. Returns `(series checked, series wrong)`.
pub fn read_back(script: &Script, engine: &StorageEngine) -> (u64, u64) {
    let mut wrong = 0;
    for (s, series) in script.series.iter().enumerate() {
        let stored = engine.query(&series.key, i64::MIN, i64::MAX);
        let got = RowsDigest::of(stored.iter().map(|(t, v)| (*t, v.as_f64())));
        if got != script.model.select(s, i64::MIN..=i64::MAX) {
            wrong += 1;
        }
    }
    (script.series.len() as u64, wrong)
}

/// Everything a run produced: metric samples, notes for the reader and
/// the request tally.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Samples,
    pub notes: Vec<String>,
    pub attempted: u64,
    /// Errors, BUSY refusals and oracle mismatches.
    pub failed: u64,
    /// Errors and oracle mismatches: what makes a run incorrect (a BUSY
    /// refusal is a failed attempt, not a wrong answer).
    pub wrong: u64,
}

impl Outcome {
    fn tally(&mut self, phases: &[PhaseStats]) {
        for phase in phases {
            self.attempted += phase.attempted;
            self.failed += phase.failed();
            self.wrong += phase.errors + phase.mismatches;
        }
    }

    fn tally_read_back(&mut self, script: &Script, engine: &StorageEngine) {
        let (checked, wrong) = read_back(script, engine);
        self.attempted += checked;
        self.failed += wrong;
        self.wrong += wrong;
    }
}

/// A script with, for the read-only workloads, the loaded engine behind a
/// server ready to take the rounds.
pub struct Ready {
    pub script: Script,
    pub host: Option<Host>,
}

impl Ready {
    pub fn stop(self) {
        if let Some(host) = self.host {
            drop(host.stop());
        }
    }
}

/// One full set-up: generate the script and the oracle's answers, start
/// engine and server, and (read-only workloads) load and flush the data
/// over the wire. The load's client-side numbers are the write metrics
/// these workloads report.
pub fn set_up(cfg: &BenchConfig, workload: Workload, seed: u64, out: &mut Outcome) -> Ready {
    let started = Instant::now();
    let script = cfg.script(workload, seed);
    let mut host = Host::start(cfg, cfg.new_engine());
    let host = match &script.load {
        // The write workloads start a server per round; one start is
        // part of what a set-up costs all the same.
        None => {
            drop(host.stop());
            None
        }
        Some(load) => {
            // The load's first frames meet new threads, new sockets and
            // an empty engine; like a round's, they are warm-up.
            let warm_up = run_phase(&script, load, &mut host.clients, Part::WarmUp);
            let loaded = run_phase(&script, load, &mut host.clients, Part::AfterWarmUp);
            let engine = host.stop();
            let bytes_per_point = settle(&engine);
            let host = Host::start(cfg, engine);
            push(&mut out.samples, "stored_bytes_per_point", bytes_per_point);
            record_client_metrics(&mut out.samples, std::slice::from_ref(&loaded));
            out.tally(&[warm_up, loaded]);
            Some(host)
        }
    };
    push(&mut out.samples, "setup_s", started.elapsed().as_secs_f64());
    if let Some(host) = &host {
        out.tally_read_back(&script, host.server.engine());
    }
    Ready { script, host }
}

/// One round of `part` of the script: against a fresh engine that is
/// then drained, settled and read back in full (the write workloads), or
/// as a timed segment over the loaded engine (the read-only workloads).
/// Without `out` the round is a warm-up and nothing is recorded.
fn round(cfg: &BenchConfig, ready: &mut Ready, part: Part, out: Option<&mut Outcome>) {
    let script = &ready.script;
    let mut fresh = ready
        .host
        .is_none()
        .then(|| Host::start(cfg, cfg.new_engine()));
    let host = fresh
        .as_mut()
        .or(ready.host.as_mut())
        .expect("one of the two hosts exists");
    let registry = Arc::clone(host.server.engine().obs());
    let counted_before = registry.snapshot();
    let cpu_before = cpu_seconds();
    let phases: Vec<PhaseStats> = script
        .round
        .iter()
        .map(|phase| run_phase(script, phase, &mut host.clients, part))
        .collect();
    let settled = fresh.map(Host::stop);
    let cpu_s = cpu_seconds() - cpu_before;
    let Some(out) = out else { return };
    let counted = registry.snapshot().delta_since(&counted_before);
    push(&mut out.samples, "cpu_s", cpu_s);
    record_client_metrics(&mut out.samples, &phases);
    record_registry_metrics(&mut out.samples, &counted, &phases);
    out.tally(&phases);
    if let Some(engine) = settled {
        push(&mut out.samples, "stored_bytes_per_point", settle(&engine));
        out.tally_read_back(script, &engine);
    }
}

/// Warm-up plus `rounds` timed rounds over a finished set-up.
pub fn run_rounds(cfg: &BenchConfig, ready: &mut Ready, rounds: usize, out: &mut Outcome) {
    round(cfg, ready, Part::WarmUp, None);
    for _ in 0..rounds {
        round(cfg, ready, Part::All, Some(out));
    }
}

/// The untraced run behind every end-to-end metric: one set-up, warm-up
/// and `rounds` timed rounds, with the set-up's repeats dealt out evenly
/// between the rounds. Every metric's samples are thus spread over the
/// whole run, and a few seconds in which the host is slow reach a
/// minority of each metric's samples, which a median ignores, instead of
/// most of one metric's.
pub fn end_to_end(cfg: &BenchConfig, workload: Workload, seed: u64, rounds: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut ready = set_up(cfg, workload, seed, &mut out);
    round(cfg, &mut ready, Part::WarmUp, None);
    let repeats = workload.setup_repeats() - 1;
    for r in 0..rounds {
        round(cfg, &mut ready, Part::All, Some(&mut out));
        if r == 0 {
            // The peak of a process that has set up once and run one
            // round. Later rounds run the same script again, and what
            // they add to the peak is what the allocator kept of the
            // rounds before them: between two runs of the same binary
            // that moved by a quarter, this by a fiftieth.
            push(&mut out.samples, "peak_rss_mib", peak_rss_mib());
        }
        for _ in repeats * r / rounds..repeats * (r + 1) / rounds {
            set_up(cfg, workload, seed, &mut out).stop();
        }
    }
    ready.stop();
    out
}
