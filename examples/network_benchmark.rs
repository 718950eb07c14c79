//! Client-side statistics over real TCP — the measurement setup of the
//! paper's system experiments (§VI-A2: the benchmark sends batches to
//! IoTDB-Server and reports user-perceived metrics).
//!
//! Run with: `cargo run --release --example network_benchmark`

use std::sync::Arc;
use std::time::Instant;

use backsort_server::{SqlClient, SqlServer};
use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{EngineConfig, StorageEngine};
use backward_sort_repro::sql::QueryOutput;

fn main() {
    let engine = Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: 100_000,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }));
    let server = SqlServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    println!("server listening on {}", server.addr());

    let mut client = SqlClient::connect(server.addr()).expect("connect");

    // Write phase: out-of-order inserts, client-timed.
    let n = 20_000i64;
    let mut x = 11u64;
    let t0 = Instant::now();
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let t = i + (x % 6) as i64;
        client
            .execute(&format!(
                "INSERT INTO root.bench.d1(timestamp, s) VALUES ({t}, {})",
                t % 997
            ))
            .expect("insert");
    }
    let write_secs = t0.elapsed().as_secs_f64();
    println!(
        "client-side write throughput : {:.0} points/s ({n} pts in {:.2}s)",
        n as f64 / write_secs,
        write_secs
    );

    // Query phase: the paper's latest-window query, client-timed.
    let queries = 200;
    let mut points = 0usize;
    let t1 = Instant::now();
    for _ in 0..queries {
        let out = client
            .execute(&format!(
                "SELECT s FROM root.bench.d1 WHERE time > {} - 2000",
                n
            ))
            .expect("query");
        if let QueryOutput::Rows { rows, .. } = out {
            points += rows.len();
        }
    }
    let query_secs = t1.elapsed().as_secs_f64();
    println!(
        "client-side query throughput : {:.3e} points/s ({points} pts over {queries} queries)",
        points as f64 / query_secs
    );

    server.shutdown();
    println!("done");
}
