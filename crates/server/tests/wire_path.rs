//! The production-shaped wire path under stress: pipelining order,
//! malformed/oversized frames, BUSY load shedding, and clean shutdown
//! with clients mid-flight.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use backsort_core::Algorithm;
use backsort_engine::{EngineConfig, PointBatch, StorageEngine, TsValue};
use backsort_obs::names;
use backsort_server::{wire, ClientError, ServerConfig, SqlClient, SqlServer};
use backsort_sql::QueryOutput;

fn engine_with(memtable_max_points: usize) -> Arc<StorageEngine> {
    Arc::new(StorageEngine::new(EngineConfig {
        memtable_max_points,
        array_size: 32,
        sorter: Algorithm::Backward(Default::default()),
        shards: 1,
        ..EngineConfig::default()
    }))
}

/// One client pipelines a mixed stream of inserts and queries; the
/// responses come back in exact request order, and several such clients
/// share the server without cross-talk.
#[test]
fn pipelined_responses_arrive_in_request_order() {
    let engine = engine_with(100_000);
    // Window and queue sized above the test's 3 × 100 outstanding
    // frames, so nothing is (correctly) shed as BUSY mid-test.
    let server = SqlServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            per_conn_inflight: 128,
            queue_capacity: 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    std::thread::scope(|scope| {
        for c in 0..3 {
            scope.spawn(move || {
                let mut client = SqlClient::connect(addr).expect("connect");
                let mut sent = Vec::new();
                for t in 0..100i64 {
                    let id = if t % 10 == 9 {
                        client
                            .send_sql(&format!("SELECT count(s{c}) FROM root.pipe.d1"))
                            .expect("send select")
                    } else {
                        client
                            .send_sql(&format!(
                                "INSERT INTO root.pipe.d1(timestamp, s{c}) VALUES ({t}, {t})"
                            ))
                            .expect("send insert")
                    };
                    sent.push(id);
                }
                let mut got = Vec::new();
                while got.len() < sent.len() {
                    let (id, response) = client.recv().expect("recv");
                    assert!(
                        !matches!(response, wire::Response::Error(_)),
                        "unexpected error: {response:?}"
                    );
                    got.push(id);
                }
                assert_eq!(got, sent, "client {c}: responses out of order");
            });
        }
    });

    // Every pipelined insert (90 per client) landed.
    let mut client = SqlClient::connect(addr).expect("connect");
    for c in 0..3 {
        match client
            .execute(&format!("SELECT count(s{c}) FROM root.pipe.d1"))
            .expect("count")
        {
            QueryOutput::Aggregates { values, .. } => {
                assert_eq!(values[0].as_number(), Some(90.0), "sensor s{c}");
            }
            other => panic!("{other:?}"),
        }
    }
    server.shutdown();
}

/// The binary batch frame is a first-class ingest path: a pipelined
/// burst of batches lands with one response per frame.
#[test]
fn batch_frames_compile_straight_into_the_engine() {
    let engine = engine_with(100_000);
    let server = SqlServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    let mut client = SqlClient::connect(server.addr()).expect("connect");

    for b in 0..10i64 {
        let batch = PointBatch::from_rows(
            // Deliberately out of order inside the batch window.
            (0..100i64).map(|i| (b * 100 + (99 - i), TsValue::Long(i))),
        )
        .expect("batch");
        client.send_batch("root.bin.d1", "s", &batch).expect("send");
    }
    for _ in 0..10 {
        let (_, response) = client.recv().expect("recv");
        assert_eq!(
            response,
            wire::Response::Output(QueryOutput::Inserted(100)),
            "each batch acked"
        );
    }
    match client
        .execute("SELECT count(s) FROM root.bin.d1")
        .expect("count")
    {
        QueryOutput::Aggregates { values, .. } => {
            assert_eq!(values[0].as_number(), Some(1000.0));
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(
        engine.obs().counter_value(names::SERVER_BATCH_POINTS),
        1000,
        "server.batch_points counts binary-frame ingest"
    );
    server.shutdown();
}

/// A batch frame may carry any double — nothing on the write path
/// refuses NaN or the infinities — and a `SELECT` over them reads every
/// one back bit for bit: rows travel as bits, not as JSON numbers. (At
/// the parent the same `SELECT` was answered `unserializable result`,
/// leaving the series unreadable over the wire.) Aggregates are still
/// JSON, so `avg` over the series degrades to that error, and the
/// connection carries on.
#[test]
fn non_finite_doubles_read_back_bit_for_bit() {
    let engine = engine_with(100_000);
    let server = SqlServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    let mut client = SqlClient::connect(server.addr()).expect("connect");

    let quiet_nan = f64::NAN;
    let payload_nan = f64::from_bits(0x7FF0_0000_DEAD_BEEF);
    let written = [
        quiet_nan,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        payload_nan,
        1.5,
    ];
    let batch = PointBatch::from_rows(
        written
            .iter()
            .enumerate()
            .map(|(t, &v)| (t as i64, TsValue::Double(v))),
    )
    .expect("batch");
    assert_eq!(
        client
            .insert_batch("root.nan.d1", "s", &batch)
            .expect("insert"),
        written.len()
    );
    let read_back = |client: &mut SqlClient| -> Vec<u64> {
        match client.execute("SELECT s FROM root.nan.d1").expect("select") {
            QueryOutput::Rows { rows, .. } => rows
                .iter()
                .map(|(_, cells)| match cells.as_slice() {
                    [Some(TsValue::Double(v))] => v.to_bits(),
                    other => panic!("{other:?}"),
                })
                .collect(),
            other => panic!("{other:?}"),
        }
    };
    let bits: Vec<u64> = written.iter().map(|v| v.to_bits()).collect();
    assert_eq!(read_back(&mut client), bits, "from the memtable");
    engine.flush();
    assert_eq!(read_back(&mut client), bits, "from a flushed file");

    match client.execute("SELECT avg(s) FROM root.nan.d1") {
        Err(ClientError::Server(m)) => assert!(m.contains("unserializable result"), "{m}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(read_back(&mut client), bits, "the connection carries on");
    server.shutdown();
}

/// A malformed frame gets an in-order error response and the connection
/// survives; an oversized frame gets an error and a close; the server
/// keeps serving fresh clients throughout. Both sheds are visible as
/// `server.rejected_malformed`.
#[test]
fn malformed_and_oversized_frames_do_not_kill_the_server() {
    let engine = engine_with(100_000);
    let server = SqlServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind");

    // Unknown frame kind: consumed, answered, connection stays usable.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect raw");
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.push(0x7f); // no such kind
        bad.extend_from_slice(&11u64.to_le_bytes());
        bad.extend_from_slice(b"xy");
        wire::encode_sql(
            &mut bad,
            12,
            "INSERT INTO root.mal.d1(timestamp, s) VALUES (1, 1)",
        );
        stream.write_all(&bad).expect("write");
        let (id, response) = wire::read_response(&mut stream, 1 << 20)
            .expect("read")
            .expect("response");
        assert_eq!(id, 11);
        match response {
            wire::Response::Error(m) => assert!(m.contains("unknown frame kind"), "{m}"),
            other => panic!("{other:?}"),
        }
        let (id, response) = wire::read_response(&mut stream, 1 << 20)
            .expect("read")
            .expect("response");
        assert_eq!(id, 12, "connection survives a malformed frame");
        assert_eq!(response, wire::Response::Output(QueryOutput::Inserted(1)));
    }

    // Oversized declaration: answered, then the server closes — the
    // unread payload makes the stream impossible to resync.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect raw");
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.push(wire::KIND_SQL);
        huge.extend_from_slice(&21u64.to_le_bytes());
        stream.write_all(&huge).expect("write");
        let (id, response) = wire::read_response(&mut stream, 1 << 20)
            .expect("read")
            .expect("response");
        assert_eq!(id, 21);
        match response {
            wire::Response::Error(m) => assert!(m.contains("exceeds limit"), "{m}"),
            other => panic!("{other:?}"),
        }
        let mut rest = Vec::new();
        stream
            .read_to_end(&mut rest)
            .expect("server closed cleanly");
        assert!(rest.is_empty(), "no bytes after the close notice");
    }

    assert!(
        engine.obs().counter_value(names::SERVER_REJECTED_MALFORMED) >= 2,
        "both rejects counted"
    );
    // The server is still fully alive for a well-behaved client.
    let mut client = SqlClient::connect(server.addr()).expect("connect");
    match client
        .execute("SELECT count(s) FROM root.mal.d1")
        .expect("query after abuse")
    {
        QueryOutput::Aggregates { values, .. } => {
            assert_eq!(values[0].as_number(), Some(1.0));
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

/// With a throttled flusher and a zero-tolerance backlog limit, a
/// saturating ingest stream is shed with typed BUSY rather than
/// buffered; the shed is visible as `server.rejected_busy`, and the
/// server recovers once the flusher drains.
#[test]
fn saturating_ingest_sheds_busy_and_recovers() {
    let engine = engine_with(256);
    let server = SqlServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            busy_flush_backlog: 0,
            flush_workers: 1,
            flush_throttle: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = SqlClient::connect(server.addr()).expect("connect");

    // Each batch overfills the 256-point memtable, so every admitted
    // write rotates and parks a job on the throttled flusher.
    let mut busy = 0usize;
    let mut accepted = 0usize;
    for b in 0..10i64 {
        let batch = PointBatch::from_rows((0..512i64).map(|i| (b * 512 + i, TsValue::Long(i))))
            .expect("batch");
        match client.insert_batch("root.busy.d1", "s", &batch) {
            Ok(n) => {
                assert_eq!(n, 512);
                accepted += 1;
            }
            Err(ClientError::Busy(reason)) => {
                assert!(reason.contains("flush backlog"), "{reason}");
                busy += 1;
            }
            Err(other) => panic!("{other}"),
        }
    }
    assert!(busy > 0, "throttled flusher never shed load");
    assert!(accepted > 0, "some writes were admitted");
    assert!(
        engine.obs().counter_value(names::SERVER_REJECTED_BUSY) >= busy as u64,
        "server.rejected_busy counts the sheds"
    );

    // Once the flusher drains, ingest is admitted again.
    std::thread::sleep(Duration::from_millis(400));
    let retry =
        PointBatch::from_rows((0..8i64).map(|t| (100_000 + t, TsValue::Long(t)))).expect("batch");
    let mut recovered = false;
    for _ in 0..20 {
        match client.insert_batch("root.busy.d1", "s", &retry) {
            Ok(_) => {
                recovered = true;
                break;
            }
            Err(ClientError::Busy(_)) => std::thread::sleep(Duration::from_millis(100)),
            Err(other) => panic!("{other}"),
        }
    }
    assert!(recovered, "server never recovered from BUSY");
    server.shutdown();
}

/// Shutdown with clients mid-pipeline: `shutdown` returns (joining the
/// accept loop, every connection handler, the workers, and the flush
/// pool), every acknowledged write survives into the engine, and the
/// connection gauge returns to zero.
#[test]
fn clean_shutdown_with_clients_mid_flight() {
    let engine = engine_with(512);
    let server = SqlServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            flush_throttle: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let handles: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || -> usize {
                let Ok(mut client) = SqlClient::connect(addr) else {
                    return 0;
                };
                let mut acked = 0usize;
                'outer: for round in 0..1_000i64 {
                    for t in 0..8i64 {
                        if client
                            .send_sql(&format!(
                                "INSERT INTO root.shut.d{c}(timestamp, s) VALUES ({}, 1)",
                                round * 8 + t
                            ))
                            .is_err()
                        {
                            break 'outer;
                        }
                    }
                    for _ in 0..8 {
                        match client.recv() {
                            Ok((_, wire::Response::Output(_))) => acked += 1,
                            Ok(_) => {}
                            Err(_) => break 'outer,
                        }
                    }
                }
                acked
            })
        })
        .collect();

    // Let traffic build, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_millis(150));
    server.shutdown();

    let acked: Vec<usize> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    assert!(
        acked.iter().sum::<usize>() > 0,
        "no traffic before shutdown"
    );

    // Every acknowledged point is queryable straight off the engine —
    // shutdown drained the flush pool instead of dropping rotated
    // memtables.
    for (c, &n) in acked.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let key = backsort_engine::SeriesKey::new(format!("root.shut.d{c}"), "s");
        let points = engine.query(&key, i64::MIN, i64::MAX).len();
        assert!(
            points >= n,
            "client {c}: acked {n} points but engine has {points}"
        );
    }
    assert_eq!(
        engine.obs().gauge_value(names::SERVER_CONNECTIONS),
        0,
        "connection gauge back to zero after shutdown"
    );
}

/// The new `server.*` family is visible through `SHOW STATS` over the
/// wire — live values, not just catalog presence.
#[test]
fn show_stats_reports_server_metrics() {
    let engine = engine_with(100_000);
    let server = SqlServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    let mut client = SqlClient::connect(server.addr()).expect("connect");
    client
        .execute("INSERT INTO root.stats.d1(timestamp, s) VALUES (1, 1)")
        .expect("insert");
    match client.execute("SHOW STATS").expect("show stats") {
        QueryOutput::Stats {
            names: rows,
            values,
        } => {
            let get = |n: &str| -> String {
                let i = rows
                    .iter()
                    .position(|x| x == n)
                    .unwrap_or_else(|| panic!("{n} missing from SHOW STATS"));
                values[i].clone()
            };
            assert_eq!(get(names::SERVER_CONNECTIONS), "1");
            assert_ne!(get(names::SERVER_FRAMES), "0");
            assert_eq!(get(names::SERVER_REJECTED_BUSY), "0");
            assert!(rows.iter().any(|n| n.starts_with("server.request_nanos")));
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}
