//! Hosts the SQL-over-TCP server until killed, printing the port —
//! `cargo run --release --example serve [-- port]`, then connect with
//! the bundled `SqlClient` or any client speaking the framed protocol
//! (`u32 payload_len | u8 kind | u64 id | payload`, see
//! `backsort_server::wire`).
//!
//! A metrics endpoint rides along on a second port: `GET /metrics`
//! (Prometheus text) or `GET /metrics.json` against the printed
//! "metrics on" address shows the live engine registry.

use std::sync::Arc;

use backsort_server::{MetricsServer, SqlServer};
use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{EngineConfig, StorageEngine};

fn main() {
    let port: u16 = std::env::args()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);
    let engine = Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: 100_000,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }));
    let metrics =
        MetricsServer::start(("127.0.0.1", 0), engine.obs().clone()).expect("bind metrics");
    let server = SqlServer::start(("127.0.0.1", port), engine).expect("bind");
    println!("listening on {}", server.addr());
    println!("metrics on {}", metrics.addr());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
