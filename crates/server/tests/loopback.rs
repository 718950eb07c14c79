//! Loopback integration: clients talk real TCP to the server, including
//! concurrent clients and error propagation.

use std::sync::Arc;

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, StorageEngine, TsValue};
use backsort_server::{ClientError, SqlClient, SqlServer};
use backsort_sql::QueryOutput;

fn start_server() -> (SqlServer, Arc<StorageEngine>) {
    let engine = Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points: 10_000,
        array_size: 32,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }));
    let server = SqlServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    (server, engine)
}

#[test]
fn insert_query_roundtrip_over_tcp() {
    let (server, _engine) = start_server();
    let mut client = SqlClient::connect(server.addr()).expect("connect");

    for t in [5i64, 1, 3, 2, 4] {
        let out = client
            .execute(&format!(
                "INSERT INTO root.net.d1(timestamp, s) VALUES ({t}, {})",
                t * 2
            ))
            .expect("insert");
        assert_eq!(out, QueryOutput::Inserted(1));
    }
    let out = client
        .execute("SELECT s FROM root.net.d1 WHERE time >= 1 AND time <= 5")
        .expect("select");
    match out {
        QueryOutput::Rows { rows, .. } => {
            assert_eq!(rows.len(), 5);
            assert!(
                rows.windows(2).all(|w| w[0].0 < w[1].0),
                "sorted over the wire"
            );
            assert_eq!(rows[0].1[0], Some(TsValue::Long(2)));
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn server_errors_propagate_to_client() {
    let (server, _engine) = start_server();
    let mut client = SqlClient::connect(server.addr()).expect("connect");
    let err = client.execute("SELECT FROM nothing").unwrap_err();
    match err {
        ClientError::Server(m) => assert!(!m.is_empty()),
        other => panic!("expected server error, got {other}"),
    }
    // The connection stays usable after an error.
    let out = client
        .execute("INSERT INTO root.net.d1(timestamp, s) VALUES (1, 1)")
        .expect("insert after error");
    assert_eq!(out, QueryOutput::Inserted(1));
    server.shutdown();
}

#[test]
fn concurrent_clients_share_the_engine() {
    let (server, engine) = start_server();
    let addr = server.addr();
    std::thread::scope(|scope| {
        for c in 0..4 {
            scope.spawn(move || {
                let mut client = SqlClient::connect(addr).expect("connect");
                for t in 0..200i64 {
                    client
                        .execute(&format!(
                            "INSERT INTO root.net.d1(timestamp, s{c}) VALUES ({t}, {t})"
                        ))
                        .expect("insert");
                }
            });
        }
    });
    // All four sensors visible through a fresh client.
    let mut client = SqlClient::connect(addr).expect("connect");
    for c in 0..4 {
        let out = client
            .execute(&format!("SELECT count(s{c}) FROM root.net.d1"))
            .expect("count");
        match out {
            QueryOutput::Aggregates { values, .. } => {
                assert_eq!(values[0].as_number(), Some(200.0), "s{c}");
            }
            other => panic!("{other:?}"),
        }
    }
    // And directly through the shared engine handle.
    assert_eq!(engine.list_sensors("root.net.d1").len(), 4);
    server.shutdown();
}

#[test]
fn the_papers_workload_over_the_wire() {
    // Batch writes then latest-window queries — the benchmark's exact
    // client behaviour (§VI-A2/D), over real TCP.
    let (server, _engine) = start_server();
    let mut client = SqlClient::connect(server.addr()).expect("connect");
    let mut x = 17u64;
    for i in 0..2_000i64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let t = i + (x % 5) as i64;
        client
            .execute(&format!(
                "INSERT INTO root.net.d1(timestamp, s) VALUES ({t}, {t})"
            ))
            .expect("insert");
    }
    let out = client
        .execute("SELECT * FROM root.net.d1 WHERE time > 2003 - 100")
        .expect("window query");
    match out {
        QueryOutput::Rows { rows, .. } => {
            assert!(!rows.is_empty());
            assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn metrics_endpoint_serves_prometheus_and_json() {
    use std::io::{Read, Write};

    let (server, engine) = start_server();
    let metrics = backsort_server::MetricsServer::start("127.0.0.1:0", Arc::clone(engine.obs()))
        .expect("bind");

    let mut client = SqlClient::connect(server.addr()).expect("connect");
    for t in [3i64, 1, 2] {
        client
            .execute(&format!(
                "INSERT INTO root.net.d1(timestamp, s) VALUES ({t}, {t})"
            ))
            .expect("insert");
    }
    client.execute("SELECT s FROM root.net.d1").expect("select");

    let http_get = |path: &str| -> String {
        let mut stream = std::net::TcpStream::connect(metrics.addr()).expect("connect metrics");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    };

    let prom = http_get("/metrics");
    assert!(prom.starts_with("HTTP/1.1 200 OK"), "{prom}");
    assert!(prom.contains("backsort_engine_write_points 3"), "{prom}");
    assert!(prom.contains("backsort_query_read_path"), "{prom}");

    let json = http_get("/metrics.json");
    assert!(json.starts_with("HTTP/1.1 200 OK"), "{json}");
    assert!(json.contains("\"engine.write_points\":3"), "{json}");

    let missing = http_get("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    metrics.shutdown();
    server.shutdown();
}

/// Golden catalog coverage: every metric in the `names::REQUIRED`
/// catalog — including the `trace.*` family — and every per-stage span
/// histogram is present in both exports from engine construction,
/// before any of them first fires.
#[test]
fn metrics_exports_cover_the_whole_catalog() {
    use std::io::{Read, Write};

    let (server, engine) = start_server();
    let metrics = backsort_server::MetricsServer::start("127.0.0.1:0", Arc::clone(engine.obs()))
        .expect("bind");

    let http_get = |path: &str| -> String {
        let mut stream = std::net::TcpStream::connect(metrics.addr()).expect("connect metrics");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    };

    let json = http_get("/metrics.json");
    let prom = http_get("/metrics");
    for name in backsort_obs::names::REQUIRED {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "{name} missing from /metrics.json"
        );
        let mut safe = String::from("backsort_");
        safe.extend(
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }),
        );
        assert!(prom.contains(&safe), "{safe} missing from /metrics");
    }
    for stage in backsort_obs::names::SPAN_STAGES {
        let labeled = format!("\"trace.span_nanos{{stage={stage}}}\"");
        assert!(
            json.contains(&labeled),
            "per-stage histogram {labeled} missing from /metrics.json"
        );
        assert!(
            prom.contains(&format!("stage=\"{stage}\"")),
            "stage label {stage} missing from /metrics"
        );
    }

    metrics.shutdown();
    server.shutdown();
}

/// A sampled request's trace follows the reply out: `sql.parse`, the
/// engine's read, `sql.rows`, `wire.encode` and `wire.write` all hang off
/// one `server.request`, with the row and byte counts the reply had.
#[test]
fn a_sampled_request_is_traced_from_parse_to_socket_write() {
    use backsort_obs::names;

    let engine = Arc::new(StorageEngine::new(EngineConfig {
        shards: 1,
        ..EngineConfig::default()
    }));
    let server = SqlServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        backsort_server::ServerConfig {
            trace_sample_n: 1,
            ..Default::default()
        },
    )
    .expect("bind");
    let mut client = SqlClient::connect(server.addr()).expect("connect");
    client
        .execute("INSERT INTO root.net.d1(timestamp, s) VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
        .expect("insert");
    let sql = "SELECT s FROM root.net.d1 WHERE time >= 1";
    client.execute(sql).expect("select");

    // The trace is filed after the reply is written, so the reply can
    // get here first.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let trace = loop {
        let found = engine
            .obs()
            .traces()
            .recent()
            .into_iter()
            .find(|t| t.label.starts_with("sql: SELECT s"));
        match found {
            Some(trace) => break trace,
            None if std::time::Instant::now() < deadline => std::thread::yield_now(),
            None => panic!("the SELECT's trace was never filed"),
        }
    };
    assert_eq!(trace.spans[0].name, names::SPAN_SERVER_REQUEST);
    let child = |name: &str| {
        trace
            .spans
            .iter()
            .find(|s| s.name == name && s.parent == Some(0))
            .unwrap_or_else(|| panic!("no {name} under server.request: {:?}", trace.render_text()))
    };
    let attr = |name: &str, key: &str| {
        child(name)
            .attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    };
    assert_eq!(
        attr(names::SPAN_SQL_PARSE, names::ATTR_BYTES),
        Some(sql.len() as u64)
    );
    assert_eq!(attr(names::SPAN_SQL_ROWS, names::ATTR_ROWS), Some(3));
    // ncols, the name `s`, nrows, three timestamps, one run of three.
    let frame = (13 + 2 + 3 + 4 + 3 * 8 + 5 + 3 * 8) as u64;
    assert_eq!(
        attr(names::SPAN_WIRE_ENCODE, names::ATTR_BYTES),
        Some(frame)
    );
    assert_eq!(attr(names::SPAN_WIRE_WRITE, names::ATTR_BYTES), Some(frame));
    child(names::SPAN_QUERY_READ);
    // In the order the worker runs them.
    let order: Vec<&str> = trace
        .spans
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(|s| s.name)
        .collect();
    assert_eq!(
        order,
        [
            names::SPAN_SQL_PARSE,
            names::SPAN_QUERY_READ,
            names::SPAN_SQL_ROWS,
            names::SPAN_WIRE_ENCODE,
            names::SPAN_WIRE_WRITE
        ]
    );
    server.shutdown();
}

/// `/traces` serves Chrome-viewer JSON and `/slow` the slow-query log,
/// fed by an `EXPLAIN ANALYZE` executed over the SQL connection.
#[test]
fn trace_endpoints_serve_finished_traces() {
    use std::io::{Read, Write};

    let (server, engine) = start_server();
    let metrics = backsort_server::MetricsServer::start("127.0.0.1:0", Arc::clone(engine.obs()))
        .expect("bind");
    // Make every trace qualify for the slow log.
    engine.obs().traces().set_slow_threshold_nanos(0);

    let mut client = SqlClient::connect(server.addr()).expect("connect");
    for t in 0..20i64 {
        client
            .execute(&format!(
                "INSERT INTO root.net.d1(timestamp, s) VALUES ({t}, {t})"
            ))
            .expect("insert");
    }
    let out = client
        .execute("EXPLAIN ANALYZE SELECT s FROM root.net.d1 WHERE time >= 0")
        .expect("explain analyze");
    match out {
        QueryOutput::Analyze {
            spans, result_rows, ..
        } => {
            assert_eq!(result_rows, 20);
            assert!(!spans.is_empty());
        }
        other => panic!("{other:?}"),
    }

    let http_get = |path: &str| -> String {
        let mut stream = std::net::TcpStream::connect(metrics.addr()).expect("connect metrics");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    };

    let traces = http_get("/traces");
    assert!(traces.starts_with("HTTP/1.1 200 OK"), "{traces}");
    assert!(traces.contains("\"traceEvents\""), "{traces}");
    assert!(traces.contains("query.root"), "{traces}");

    let slow = http_get("/slow");
    assert!(slow.starts_with("HTTP/1.1 200 OK"), "{slow}");
    assert!(slow.contains("explain analyze root.net.d1"), "{slow}");

    metrics.shutdown();
    server.shutdown();
}
