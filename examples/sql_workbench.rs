//! The SQL surface end-to-end: ingest with INSERT, run the paper's
//! benchmark query shape, aggregate, window, and delete — all in the
//! dialect IoTDB-benchmark speaks (§VI-D).
//!
//! Run with: `cargo run --release --example sql_workbench` — it checks
//! what it prints and panics on a wrong answer.

use backward_sort_repro::core::Algorithm;
use backward_sort_repro::engine::{AggValue, EngineConfig, StorageEngine};
use backward_sort_repro::sql::{execute, QueryOutput, SqlError};

/// Runs `sql`, prints its answer, and returns it.
fn show(engine: &StorageEngine, sql: &str) -> Result<QueryOutput, SqlError> {
    println!("\niotdb> {sql}");
    let output = execute(engine, sql);
    match &output {
        Ok(QueryOutput::Rows { columns, rows }) => {
            println!("  time | {}", columns.join(" | "));
            for (t, vals) in rows.iter().take(6) {
                let cells: Vec<String> = vals
                    .iter()
                    .map(|v| v.as_ref().map_or("null".into(), |v| format!("{v:?}")))
                    .collect();
                println!("  {t:>4} | {}", cells.join(" | "));
            }
            if rows.len() > 6 {
                println!("  … {} rows total", rows.len());
            }
        }
        Ok(QueryOutput::Aggregates { columns, values }) => {
            for (c, v) in columns.iter().zip(values) {
                println!("  {c} = {v:?}");
            }
        }
        Ok(QueryOutput::Grouped { columns, buckets }) => {
            for (start, vals) in buckets {
                let cells: Vec<String> = columns
                    .iter()
                    .zip(vals)
                    .map(|(c, v)| format!("{c}={v:?}"))
                    .collect();
                println!("  [{start:>5}, +step)  {}", cells.join("  "));
            }
        }
        Ok(QueryOutput::Inserted(n)) => println!("  ok, {n} column(s) written"),
        Ok(QueryOutput::Deleted(n)) => println!("  ok, {n} in-memory point(s) removed"),
        Ok(QueryOutput::Stats { names, values }) => {
            // Show the interesting subset: the live Backward-Sort story.
            for (n, v) in names.iter().zip(values) {
                if n.starts_with("sort.") || n.starts_with("merge.") || n.starts_with("query.") {
                    println!("  {n:<28} {v}");
                }
            }
        }
        Ok(QueryOutput::Explain { lines }) => {
            for l in lines {
                println!("  {l}");
            }
        }
        Ok(QueryOutput::Analyze {
            rendered,
            result_rows,
            ..
        }) => {
            for l in rendered {
                println!("  {l}");
            }
            println!("  ({result_rows} rows)");
        }
        Ok(QueryOutput::SlowQueries { entries }) => {
            for (label, nanos, spans) in entries {
                println!(
                    "  {:>9.3} ms  {spans:>3} spans  {label}",
                    *nanos as f64 / 1e6
                );
            }
            if entries.is_empty() {
                println!("  (none over the slow threshold)");
            }
        }
        Err(e) => println!("  {e}"),
    }
    output
}

/// The first value of an aggregate answer.
fn first_aggregate(output: Result<QueryOutput, SqlError>) -> Option<AggValue> {
    match output {
        Ok(QueryOutput::Aggregates { values, .. }) => values.first().copied(),
        _ => None,
    }
}

fn main() {
    let engine = StorageEngine::new(EngineConfig {
        memtable_max_points: 100_000,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    });

    // Out-of-order ingestion through SQL (delayed t=2 arrives last).
    for t in [1i64, 3, 4, 5, 2] {
        let sql = format!(
            "INSERT INTO root.demo.engine(timestamp, rpm, state) VALUES ({t}, {}, '{}')",
            1500 + t * 10,
            if t % 2 == 0 { "idle" } else { "load" }
        );
        execute(&engine, &sql).unwrap();
    }
    // Bulk load a longer series for the windowed parts.
    for t in 6..2_000i64 {
        execute(
            &engine,
            &format!(
                "INSERT INTO root.demo.engine(timestamp, rpm) VALUES ({t}, {})",
                1500 + (t % 97)
            ),
        )
        .unwrap();
    }

    let first = show(&engine, "SELECT * FROM root.demo.engine WHERE time <= 5");
    assert!(matches!(first, Ok(QueryOutput::Rows { rows, .. }) if rows.len() == 5));
    // The paper's benchmark query: latest window only (§VI-D).
    show(
        &engine,
        "SELECT rpm FROM root.demo.engine WHERE time > 1999 - 10",
    )
    .unwrap();
    let summary = show(
        &engine,
        "SELECT count(rpm), min_value(rpm), avg(rpm), max_time(rpm) FROM root.demo.engine",
    );
    assert_eq!(first_aggregate(summary), Some(AggValue::Number(1_999.0)));
    // "the average speed of an engine in every minute" (§VI-E).
    show(
        &engine,
        "SELECT avg(rpm) FROM root.demo.engine GROUP BY (0, 1999, 500)",
    )
    .unwrap();
    show(
        &engine,
        "DELETE FROM root.demo.engine.rpm WHERE time >= 100 AND time <= 199",
    )
    .unwrap();
    let count = show(&engine, "SELECT count(rpm) FROM root.demo.engine");
    assert_eq!(first_aggregate(count), Some(AggValue::Number(1_899.0)));
    // Where does a query spend its time? Static plan, then a traced run.
    let plan = show(
        &engine,
        "EXPLAIN SELECT rpm FROM root.demo.engine WHERE time > 1999 - 10",
    );
    let fan_in = "  merge fan-in: 1 (0 chunk sources + 1 memtable buffers)";
    assert!(
        matches!(plan, Ok(QueryOutput::Explain { lines }) if lines.iter().any(|l| l == fan_in))
    );
    show(
        &engine,
        "EXPLAIN ANALYZE SELECT rpm FROM root.demo.engine WHERE time > 1999 - 10",
    )
    .unwrap();
    show(&engine, "SHOW SLOW QUERIES").unwrap();
    // Live engine telemetry, filtered to the Backward-Sort metrics.
    show(&engine, "SHOW STATS").unwrap();
    // Parse errors are reported, not panicked.
    assert!(show(&engine, "SELECT nope FROM").is_err());
}
