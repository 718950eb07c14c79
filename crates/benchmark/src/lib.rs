//! IoTDB-benchmark-style workload driver (paper §VI-A2).
//!
//! Generates periodic out-of-order data, sends it to the engine in
//! batches (default 500 points, the paper's tuned optimum), interleaves
//! time-range queries anchored at the latest timestamp ("to avoid
//! querying data in the disk"), and reports the paper's three system
//! metrics:
//!
//! * **query throughput** — points returned per second of query time
//!   (client side, Figs. 13–15);
//! * **flush time** — average per-flush duration (server side,
//!   Figs. 16–18);
//! * **total test latency** — the whole run's wall time (Figs. 19–21).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod config;
mod driver;
mod query_bench;
mod server_bench;

pub use concurrent::{run_benchmark_concurrent, ConcurrentReport};
pub use config::BenchConfig;
pub use driver::{run_benchmark, BenchReport};
pub use query_bench::{run_query_bench, run_query_bench_with, QueryBenchReport};
pub use server_bench::{run_server_bench, ServerBenchConfig, ServerBenchReport, ServerScenario};
