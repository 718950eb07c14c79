//! Multi-client benchmark over the framed TCP front door.
//!
//! IoTDB-benchmark measures "client side statistics" across a real
//! network split (paper §VI-A2); this driver reproduces that setup
//! against [`SqlServer`]: M simulated clients pipeline requests over
//! loopback TCP and every latency is measured send-to-response at the
//! client, so the socket buffers a pipeline waits in, admission control
//! and the scheduler that shares the cores among the connections'
//! threads are all inside the measured path.
//!
//! Four scenarios mirror the benchmark's workload families:
//!
//! * [`ServerScenario::Ingest`] — binary batch INSERT frames, mildly
//!   out of order (the paper's periodic-delay shape);
//! * [`ServerScenario::Query`] — latest-window SELECTs over a
//!   pre-seeded, settled engine;
//! * [`ServerScenario::Mixed`] — 4:1 ingest:query per client against
//!   the client's own series;
//! * [`ServerScenario::OooHeavy`] — ingest whose delays reach back
//!   many batches, maximising backward-sort work under the wire path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, PointBatch, SeriesKey, StorageEngine, TsValue};
use backsort_server::{wire, SqlClient, SqlServer};
use backsort_sql::QueryOutput;
use serde::{Deserialize, Serialize};

/// Which workload family the simulated clients run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerScenario {
    /// Batched binary INSERT frames, mildly out of order.
    Ingest,
    /// Latest-window SELECTs over settled, pre-seeded data.
    Query,
    /// 4:1 ingest:query per client, each against its own series.
    Mixed,
    /// Ingest with delays reaching back many batches.
    OooHeavy,
}

impl ServerScenario {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ServerScenario::Ingest => "server-ingest",
            ServerScenario::Query => "server-query",
            ServerScenario::Mixed => "server-mixed",
            ServerScenario::OooHeavy => "server-ooo",
        }
    }

    /// All four scenarios, in reporting order.
    pub fn all() -> [ServerScenario; 4] {
        [
            ServerScenario::Ingest,
            ServerScenario::Query,
            ServerScenario::Mixed,
            ServerScenario::OooHeavy,
        ]
    }
}

/// Knobs for one [`run_server_bench`] run.
#[derive(Debug, Clone)]
pub struct ServerBenchConfig {
    /// Simulated client connections.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Pipelining window per client (requests in flight before the
    /// client starts collecting responses).
    pub pipeline_window: usize,
    /// Points per batch INSERT frame.
    pub batch_size: usize,
    /// Engine shards.
    pub shards: usize,
    /// Engine memtable rotation threshold.
    pub memtable_max_points: usize,
    /// Width of the latest-window queries.
    pub query_window: i64,
    /// Points seeded per key before the Query scenario runs.
    pub seed_points_per_key: usize,
    /// Workload seed.
    pub seed: u64,
}

impl ServerBenchConfig {
    /// CI-sized run: a few seconds wall for all four scenarios.
    pub fn smoke() -> Self {
        Self {
            clients: 4,
            requests_per_client: 120,
            pipeline_window: 8,
            batch_size: 100,
            shards: 2,
            memtable_max_points: 8_192,
            query_window: 512,
            seed_points_per_key: 4_096,
            seed: 42,
        }
    }

    /// Paper-scale run for EXPERIMENTS.md tables.
    pub fn full() -> Self {
        Self {
            clients: 16,
            requests_per_client: 600,
            pipeline_window: 32,
            batch_size: 500,
            shards: 4,
            memtable_max_points: 65_536,
            query_window: 2_000,
            seed_points_per_key: 100_000,
            seed: 42,
        }
    }
}

/// Results of one scenario run. All latency fields are client-side
/// send-to-response, pipelining included.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerBenchReport {
    /// Scenario label (`server-ingest`, …).
    pub scenario: String,
    /// Simulated client connections.
    pub clients: usize,
    /// Engine shards.
    pub shards: usize,
    /// Requests answered (any response kind).
    pub ops: u64,
    /// Data points acknowledged (ingest) or returned (query).
    pub points: u64,
    /// Requests shed with a typed BUSY response.
    pub busy: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Mean request latency, microseconds.
    pub mean_us: f64,
    /// Requests answered per second of wall time, all clients.
    pub qps: f64,
    /// Points per second of wall time, all clients.
    pub pps: f64,
    /// Wall time of the measured phase, milliseconds.
    pub wall_ms: f64,
    /// `server.rejected_busy` registry delta over the measured phase.
    pub rejected_busy: u64,
    /// `server.frames` registry delta over the measured phase.
    pub frames: u64,
}

/// Cheap xorshift so clients need no shared RNG state.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Builds one client's `k`-th batch: `batch_size` points advancing from
/// `base`, each delayed backwards by up to `max_delay`.
fn build_batch(base: i64, batch_size: usize, max_delay: u64, rng: &mut u64) -> PointBatch {
    let rows = (0..batch_size as i64).map(|i| {
        let delay = if max_delay == 0 {
            0
        } else {
            (xorshift(rng) % max_delay) as i64
        };
        let t = (base + i - delay).max(0);
        (t, TsValue::Long(t % 997))
    });
    // analyzer:allow(panic-freedom): synthetic rows are uniform by construction; a malformed batch is a generator bug and must abort the run
    PointBatch::from_rows(rows).expect("uniform Long rows")
}

/// Runs one scenario and reports client-side statistics.
pub fn run_server_bench(scenario: ServerScenario, cfg: &ServerBenchConfig) -> ServerBenchReport {
    assert!(cfg.clients > 0 && cfg.requests_per_client > 0 && cfg.pipeline_window > 0);
    let engine = Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: cfg.memtable_max_points,
        array_size: 32,
        sorter: Algorithm::Backward(Default::default()),
        shards: cfg.shards,
        ..EngineConfig::default()
    }));

    // Pre-seed the Query scenario's dataset directly on the engine and
    // settle it, so the wire path measures serving, not first-read sorts.
    let query_keys: Vec<(SeriesKey, i64)> = if scenario == ServerScenario::Query {
        (0..cfg.clients)
            .map(|d| {
                let key = SeriesKey::new(format!("root.srv.q.d{d}"), "s");
                let points: Vec<(i64, TsValue)> = (0..cfg.seed_points_per_key as i64)
                    .map(|t| (t, TsValue::Long(t % 997)))
                    .collect();
                for rows in points.chunks(1_000) {
                    // analyzer:allow(panic-freedom): synthetic rows are uniform by construction; a malformed batch is a generator bug and must abort the run
                    let batch = PointBatch::from_rows(rows.iter().cloned()).expect("uniform rows");
                    // analyzer:allow(panic-freedom): synthetic rows are uniform by construction; a malformed batch is a generator bug and must abort the run
                    engine.write_batch(&key, &batch).expect("seed write");
                }
                let latest = engine.latest_time(&key).unwrap_or(0);
                engine.query(&key, latest - cfg.query_window, latest);
                (key, latest)
            })
            .collect()
    } else {
        Vec::new()
    };

    let server = SqlServer::start("127.0.0.1:0", Arc::clone(&engine))
        // analyzer:allow(panic-freedom): bench setup — failing to bind/connect/spawn invalidates the run, so aborting is correct
        .expect("bind server");
    let addr = server.addr();
    let before = engine.obs().snapshot();

    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let points_acked = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let ops = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(cfg.clients + 1));

    // Stamped when the start barrier releases (all clients connected);
    // `thread::scope` joins every client before returning, so
    // `wall_start.elapsed()` brackets exactly the request traffic.
    let mut wall_start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..cfg.clients {
            let latencies = Arc::clone(&latencies);
            let points_acked = Arc::clone(&points_acked);
            let busy = Arc::clone(&busy);
            let errors = Arc::clone(&errors);
            let ops = Arc::clone(&ops);
            let barrier = Arc::clone(&barrier);
            let query_keys = &query_keys;
            let cfg = cfg.clone();
            scope.spawn(move || {
                // analyzer:allow(panic-freedom): bench setup — failing to bind/connect/spawn invalidates the run, so aborting is correct
                let mut client = SqlClient::connect(addr).expect("connect");
                let mut rng = cfg.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let device = format!("root.srv.ing.c{c}");
                let mut local_lat = Vec::with_capacity(cfg.requests_per_client);
                let mut local_points = 0u64;
                let mut local_busy = 0u64;
                let mut local_errors = 0u64;
                let mut sent: VecDeque<Instant> = VecDeque::new();
                let mut max_written = 0i64;
                let mut collect_one = |client: &mut SqlClient, sent: &mut VecDeque<Instant>| {
                    // analyzer:allow(panic-freedom): bench harness invariant — an abort here is a failed run, not a production fault path
                    let (_, response) = client.recv().expect("recv");
                    // analyzer:allow(panic-freedom): bench harness invariant — an abort here is a failed run, not a production fault path
                    let t0 = sent.pop_front().expect("response matches a send");
                    local_lat.push(t0.elapsed().as_nanos() as u64);
                    match response {
                        wire::Response::Output(QueryOutput::Inserted(n)) => {
                            local_points += n as u64;
                        }
                        wire::Response::Output(QueryOutput::Rows { rows, .. }) => {
                            local_points += rows.len() as u64;
                        }
                        wire::Response::Output(_) => {}
                        wire::Response::Busy(_) => local_busy += 1,
                        wire::Response::Error(_) => local_errors += 1,
                    }
                };
                barrier.wait();
                for k in 0..cfg.requests_per_client {
                    let base = (k * cfg.batch_size) as i64;
                    match scenario {
                        ServerScenario::Ingest => {
                            let batch = build_batch(base, cfg.batch_size, 8, &mut rng);
                            max_written = max_written.max(base + cfg.batch_size as i64);
                            // analyzer:allow(panic-freedom): bench harness invariant — an abort here is a failed run, not a production fault path
                            client.send_batch(&device, "s", &batch).expect("send batch");
                        }
                        ServerScenario::OooHeavy => {
                            // Delays reach back up to eight batches.
                            let reach = (cfg.batch_size as u64) * 8;
                            let batch = build_batch(base, cfg.batch_size, reach, &mut rng);
                            max_written = max_written.max(base + cfg.batch_size as i64);
                            // analyzer:allow(panic-freedom): bench harness invariant — an abort here is a failed run, not a production fault path
                            client.send_batch(&device, "s", &batch).expect("send batch");
                        }
                        ServerScenario::Query => {
                            let (key, latest) =
                                &query_keys[(xorshift(&mut rng) as usize) % query_keys.len()];
                            let lo = latest - cfg.query_window;
                            client
                                .send_sql(&format!(
                                    "SELECT s FROM {} WHERE time > {lo}",
                                    // analyzer:allow(panic-freedom): bench harness invariant — an abort here is a failed run, not a production fault path
                                    key.device
                                ))
                                .expect("send query");
                        }
                        ServerScenario::Mixed => {
                            if k % 5 == 4 && max_written > 0 {
                                let lo = max_written - cfg.query_window;
                                // analyzer:allow(panic-freedom): bench harness invariant — an abort here is a failed run, not a production fault path
                                client
                                    .send_sql(&format!("SELECT s FROM {device} WHERE time > {lo}"))
                                    .expect("send query");
                            } else {
                                let batch = build_batch(base, cfg.batch_size, 8, &mut rng);
                                max_written = max_written.max(base + cfg.batch_size as i64);
                                // analyzer:allow(panic-freedom): bench harness invariant — an abort here is a failed run, not a production fault path
                                client.send_batch(&device, "s", &batch).expect("send batch");
                            }
                        }
                    }
                    sent.push_back(Instant::now());
                    if sent.len() >= cfg.pipeline_window {
                        collect_one(&mut client, &mut sent);
                    }
                }
                // analyzer:allow(panic-freedom): bench harness invariant — an abort here is a failed run, not a production fault path
                client.flush().expect("flush");
                while !sent.is_empty() {
                    collect_one(&mut client, &mut sent);
                }
                ops.fetch_add(local_lat.len() as u64, Ordering::Relaxed);
                points_acked.fetch_add(local_points, Ordering::Relaxed);
                busy.fetch_add(local_busy, Ordering::Relaxed);
                errors.fetch_add(local_errors, Ordering::Relaxed);
                // analyzer:allow(panic-freedom): a poisoned lock means a client thread already panicked; aborting the run is the only honest outcome
                latencies.lock().expect("no poisoning").extend(local_lat);
            });
        }
        // The +1 waiter: start the wall clock only once every client is
        // connected and ready to send.
        barrier.wait();
        wall_start = Instant::now();
    });
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    let delta = engine.obs().snapshot().delta_since(&before);
    server.shutdown();

    // analyzer:allow(panic-freedom): a poisoned lock means a client thread already panicked; aborting the run is the only honest outcome
    let mut lat = Arc::into_inner(latencies)
        .expect("threads joined")
        .into_inner()
        .expect("no poisoning");
    lat.sort_unstable();
    let percentile = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() - 1) as f64 * p).round() as usize;
        lat[idx] as f64 / 1e3
    };
    let total_ops = ops.load(Ordering::Relaxed);
    let total_points = points_acked.load(Ordering::Relaxed);
    let mean_us = if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1e3
    };
    ServerBenchReport {
        scenario: scenario.label().to_string(),
        clients: cfg.clients,
        shards: cfg.shards,
        ops: total_ops,
        points: total_points,
        busy: busy.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        mean_us,
        qps: total_ops as f64 / (wall_ms / 1e3),
        pps: total_points as f64 / (wall_ms / 1e3),
        wall_ms,
        rejected_busy: delta.counter(backsort_obs::names::SERVER_REJECTED_BUSY),
        frames: delta.counter(backsort_obs::names::SERVER_FRAMES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServerBenchConfig {
        ServerBenchConfig {
            clients: 2,
            requests_per_client: 25,
            pipeline_window: 4,
            batch_size: 20,
            shards: 1,
            memtable_max_points: 4_096,
            query_window: 64,
            seed_points_per_key: 512,
            seed: 7,
        }
    }

    #[test]
    fn every_scenario_answers_every_request() {
        for scenario in ServerScenario::all() {
            let report = run_server_bench(scenario, &tiny());
            assert_eq!(report.scenario, scenario.label());
            assert_eq!(
                report.ops, 50,
                "{}: every request answered",
                report.scenario
            );
            assert_eq!(report.errors, 0, "{}: no errors", report.scenario);
            assert!(report.points > 0, "{}: points flowed", report.scenario);
            assert!(report.p50_us <= report.p99_us, "{}", report.scenario);
            assert!(
                report.qps > 0.0 && report.wall_ms > 0.0,
                "{}",
                report.scenario
            );
            assert!(
                report.frames >= report.ops,
                "{}: frames counted",
                report.scenario
            );
        }
    }
}
