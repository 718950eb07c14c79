//! Multi-client server benchmark over the framed TCP front door.
//!
//! Usage: `server_bench [--smoke] [--json] [--out PATH]
//! [--scenario LABEL] [--clients N] [--requests N] [--shards N]`
//!
//! Runs the IoTDB-benchmark-style scenario suite (`server-ingest`,
//! `server-query`, `server-mixed`, `server-ooo`) with M simulated
//! clients pipelining requests over loopback TCP, and reports
//! client-side p50/p99 latency and throughput per scenario. `--smoke`
//! is the CI size (seconds); the default is the paper-scale run behind
//! EXPERIMENTS.md. `--out` writes the full reports as a JSON array
//! (CI uploads it as the `BENCH_server.json` artifact).

use backsort_benchmark::{run_server_bench, ServerBenchConfig, ServerBenchReport, ServerScenario};

use crate::cli::Args;
use crate::table;

/// The `server_bench` binary's entry point.
pub fn main() {
    let args = Args::from_env();
    let mut cfg = if args.has("smoke") {
        ServerBenchConfig::smoke()
    } else {
        ServerBenchConfig::full()
    };
    cfg.clients = args.get_or("clients", cfg.clients);
    cfg.requests_per_client = args.get_or("requests", cfg.requests_per_client);
    cfg.shards = args.get_or("shards", cfg.shards);

    let scenarios: Vec<ServerScenario> = match args.get("scenario") {
        Some(label) => {
            let found = ServerScenario::all()
                .into_iter()
                .find(|s| s.label() == label);
            match found {
                Some(s) => vec![s],
                None => {
                    eprintln!(
                        "error: unknown --scenario {label:?}; one of: {}",
                        ServerScenario::all().map(|s| s.label()).join(", ")
                    );
                    std::process::exit(1);
                }
            }
        }
        None => ServerScenario::all().to_vec(),
    };

    let reports: Vec<ServerBenchReport> = scenarios
        .iter()
        .map(|&scenario| {
            eprintln!(
                "running {} ({} clients x {} requests)...",
                scenario.label(),
                cfg.clients,
                cfg.requests_per_client
            );
            run_server_bench(scenario, &cfg)
        })
        .collect();

    if let Some(path) = args.get("out") {
        let rendered = serde_json::to_string(&reports).expect("render reports");
        std::fs::write(path, rendered).unwrap_or_else(|e| panic!("write --out {path}: {e}"));
        eprintln!("wrote {} scenario reports to {path}", reports.len());
    }

    if args.json() {
        table::print_json(&reports);
        return;
    }
    table::heading("Server front door: multi-client scenarios (client-side statistics)");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.clients.to_string(),
                r.ops.to_string(),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                format!("{:.0}", r.qps),
                format!("{:.2e}", r.pps),
                r.busy.to_string(),
                r.errors.to_string(),
            ]
        })
        .collect();
    table::print_table(
        &[
            "scenario", "clients", "ops", "p50 us", "p99 us", "qps", "pps", "busy", "errors",
        ],
        &rows,
    );
}
