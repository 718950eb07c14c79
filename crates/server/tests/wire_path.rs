//! The production-shaped wire path under stress: pipelining order,
//! malformed/oversized frames, a peer that stops reading, BUSY load
//! shedding, writes stalled on a flush, and clean shutdown with clients
//! mid-flight.

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
/// share the server without cross-talk. Nor is there a depth at which a
/// pipeline is refused: a client that sends 1,000 frames before it reads
/// its first reply gets 1,000 replies, the frames the server had not yet
/// read having waited in the socket.
#[test]
fn pipelined_responses_arrive_in_request_order() {
    let engine = engine_with(100_000);
    let server = SqlServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
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
        scope.spawn(move || {
            let mut client = SqlClient::connect(addr).expect("connect");
            let sent: Vec<u64> = (0..1_000i64)
                .map(|t| {
                    client
                        .send_sql(&format!(
                            "INSERT INTO root.pipe.d2(timestamp, s) VALUES ({t}, {t})"
                        ))
                        .expect("send insert")
                })
                .collect();
            for id in sent {
                let (got, response) = client.recv().expect("recv");
                assert_eq!(got, id, "deep pipeline: responses out of order");
                assert_eq!(response, wire::Response::Output(QueryOutput::Inserted(1)));
            }
        });
    });

    // Every pipelined insert (90 per client, 1,000 from the deep one)
    // landed.
    let mut client = SqlClient::connect(addr).expect("connect");
    let mut count = |sensor: &str, device: &str| match client
        .execute(&format!("SELECT count({sensor}) FROM root.pipe.{device}"))
        .expect("count")
    {
        QueryOutput::Aggregates { values, .. } => values[0].as_number(),
        other => panic!("{other:?}"),
    };
    for c in 0..3 {
        assert_eq!(count(&format!("s{c}"), "d1"), Some(90.0), "sensor s{c}");
    }
    assert_eq!(count("s", "d2"), Some(1_000.0));
    assert_eq!(engine.obs().counter_value(names::SERVER_REJECTED_BUSY), 0);
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

/// A reply that could not be written ends the connection. The peer
/// pipelines 400 `SELECT`s of 2,000 rows (32 KB a reply, more than the
/// loopback buffers hold) and reads nothing for 300 ms; the server's
/// write times out after 50 ms, possibly part-way through a frame. It
/// used to carry on and append the next reply to the torn one, so the
/// peer decoded garbage lengths; now every frame the peer gets is whole
/// and in order, and then the stream ends.
#[test]
fn a_reply_that_cannot_be_written_closes_the_connection() {
    const ROWS: i64 = 2_000;
    const REQUESTS: u64 = 400;
    let engine = engine_with(100_000);
    let server = SqlServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            write_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut seeder = SqlClient::connect(server.addr()).expect("connect");
    seeder
        .insert_batch("root.torn.d1", "s", &frame(0, ROWS))
        .expect("seed");
    drop(seeder);

    let mut stream = TcpStream::connect(server.addr()).expect("connect raw");
    let mut requests = Vec::new();
    for id in 0..REQUESTS {
        wire::encode_sql(&mut requests, id, "SELECT s FROM root.torn.d1");
    }
    stream.write_all(&requests).expect("write");
    std::thread::sleep(Duration::from_millis(300));

    let mut whole = 0;
    loop {
        match wire::read_response(&mut stream, wire::MAX_RESPONSE_BYTES) {
            Ok(Some((id, wire::Response::Output(QueryOutput::Rows { rows, .. })))) => {
                assert_eq!(id, whole, "a reply was skipped or repeated");
                assert_eq!(rows.len(), ROWS as usize);
                whole += 1;
            }
            // The end of the stream, at a frame boundary or inside the
            // frame whose write timed out — never a frame that decodes
            // to something else.
            Ok(None) => break,
            Err(e) => {
                assert!(
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
                    ),
                    "after {whole} whole replies: {e}"
                );
                break;
            }
            Ok(Some(other)) => panic!("after {whole} whole replies: {other:?}"),
        }
    }
    assert!(whole > 0, "some replies fit the buffers");
    assert!(whole < REQUESTS, "the write never timed out");

    // The connection is gone from the server, which serves the next one.
    let obs = engine.obs();
    while obs.gauge_value(names::SERVER_CONNECTIONS) > 0 {
        std::thread::yield_now();
    }
    let mut client = SqlClient::connect(server.addr()).expect("connect");
    match client.execute("SELECT count(s) FROM root.torn.d1") {
        Ok(QueryOutput::Aggregates { values, .. }) => {
            assert_eq!(values[0].as_number(), Some(ROWS as f64));
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
/// accept loop, every connection's thread, and the flush pool), every acknowledged write survives into the engine, and the
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

/// Shutdown while a peer keeps connecting and never closes: every socket
/// the accept loop took is in the connection map before its thread
/// exists, so the `shutdown(Both)` sweep reaches it and the join returns
/// — within a bound, with the idle peers still open. (Registered on the
/// connection's own thread, one accepted in the instant before the sweep
/// could miss it and hold the join until its peer hung up.)
#[test]
fn shutdown_returns_while_idle_peers_keep_connecting() {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    // Enough idle peers that the newest are still open at the sweep, few
    // enough to stay far from any descriptor limit.
    const OPEN_PEERS: usize = 64;

    for round in 0..24 {
        let server = SqlServer::start("127.0.0.1:0", engine_with(100_000)).expect("bind");
        let addr = server.addr();
        let quit = Arc::new(AtomicBool::new(false));
        let (connecting_tx, connecting_rx) = mpsc::channel();
        let connector = {
            let quit = Arc::clone(&quit);
            std::thread::spawn(move || {
                let mut open = VecDeque::new();
                let mut connected = 0usize;
                while !quit.load(Ordering::Acquire) {
                    // Refused once the listener is gone: shutdown got there.
                    let Ok(peer) = TcpStream::connect(addr) else {
                        break;
                    };
                    open.push_back(peer);
                    if open.len() > OPEN_PEERS {
                        open.pop_front();
                    }
                    connected += 1;
                    if connected == 8 {
                        let _ = connecting_tx.send(());
                    }
                }
                open
            })
        };
        connecting_rx.recv().expect("connector is under way");

        let (returned_tx, returned_rx) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.shutdown();
            let _ = returned_tx.send(());
        });
        let returned = returned_rx.recv_timeout(Duration::from_secs(10)).is_ok();
        quit.store(true, Ordering::Release);
        let open = connector.join().expect("connector thread");
        assert!(
            returned,
            "round {round}: shutdown still joining after 10 s with {} idle peers open",
            open.len()
        );
        drop(open);
        stopper.join().expect("shutdown thread");
    }
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

/// Records in histogram `name` so far.
fn recorded(engine: &StorageEngine, name: &str) -> u64 {
    engine
        .obs()
        .snapshot()
        .histogram(name)
        .map_or(0, |h| h.count)
}

/// Runs batches were split into so far (one
/// `memtable.batch_append_nanos` record each).
fn runs(engine: &StorageEngine) -> u64 {
    recorded(engine, names::MEMTABLE_BATCH_APPEND_NANOS)
}

/// Writes that waited for their shard's flush so far.
fn flush_waits(engine: &StorageEngine) -> u64 {
    recorded(engine, names::SERVER_FLUSH_WAIT_NANOS)
}

/// An in-order batch of `len` points starting at `first`.
fn frame(first: i64, len: i64) -> PointBatch {
    PointBatch::from_rows((first..first + len).map(|t| (t, TsValue::Long(t)))).expect("batch")
}

/// ROADMAP 4c through the wire: 25,000-point frames into a memtable of
/// 25,000 behind a flusher that takes 100 ms. The third frame finds the
/// memtable full and its rotation refused; it used to crawl in as 25,000
/// one-point runs. Now it waits for the flush and lands, like every
/// other, as one run — and the wait is there to see, in `SHOW STATS` and
/// in the request's trace.
#[test]
fn a_large_frame_behind_a_slow_flush_is_one_run() {
    const FRAME: i64 = 25_000;
    let engine = engine_with(FRAME as usize);
    let server = SqlServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            flush_workers: 1,
            flush_throttle: Duration::from_millis(100),
            trace_sample_n: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = SqlClient::connect(server.addr()).expect("connect");
    for f in 0..4 {
        let before = runs(&engine);
        let acked = client
            .insert_batch("root.big.d1", "s", &frame(f * FRAME, FRAME))
            .expect("no frame is refused");
        assert_eq!(acked, FRAME as usize);
        assert_eq!(runs(&engine) - before, 1, "frame {f}");
    }
    assert!(
        flush_waits(&engine) >= 1,
        "the third frame met a full memtable whose flush was still running"
    );
    assert_eq!(
        engine.obs().counter_value(names::SERVER_REJECTED_BUSY),
        0,
        "a stall is waited out, not shed"
    );
    match client.execute("SHOW STATS").expect("show stats") {
        QueryOutput::Stats { names: rows, .. } => assert!(rows
            .iter()
            .any(|n| n.starts_with(names::SERVER_FLUSH_WAIT_NANOS))),
        other => panic!("{other:?}"),
    }
    server.shutdown();
    // Why was that write slow? Its trace says: a `server.flush_wait`
    // under the `server.request`, naming the shard.
    let traces = engine.obs().traces().recent();
    let stalled = traces
        .iter()
        .find(|t| {
            t.spans
                .iter()
                .any(|s| s.name == names::SPAN_SERVER_FLUSH_WAIT)
        })
        .expect("a stalled request was traced");
    assert_eq!(stalled.spans[0].name, names::SPAN_SERVER_REQUEST);
    assert!(stalled.label.starts_with("batch: root.big.d1.s x25000"));
    let wait = stalled
        .spans
        .iter()
        .find(|s| s.name == names::SPAN_SERVER_FLUSH_WAIT)
        .expect("found above");
    assert_eq!(wait.parent, Some(0));
    assert_eq!(wait.attrs, [(names::ATTR_SHARD, 0)]);
    assert_eq!(
        engine
            .query(
                &backsort_engine::SeriesKey::new("root.big.d1", "s"),
                i64::MIN,
                i64::MAX
            )
            .len(),
        4 * FRAME as usize
    );
}

/// The bound the flush puts on a memtable: 1,000-point memtables behind
/// a 50 ms flusher, forty pipelined 500-point frames. Nothing is refused
/// — a stalled write waits for the flush pool — and the working
/// memtable stays within its limit plus one frame per connection: a
/// connection's frames are written one after the other, and each asks
/// first. (Without the wait it reached ~19,000: every frame after the
/// second landed on the one memtable the first flush was holding up.)
#[test]
fn a_stalled_shard_makes_writes_wait_and_bounds_its_memtable() {
    const LIMIT: usize = 1_000;
    const FRAME: i64 = 500;
    const FRAMES: i64 = 40;
    const WINDOW: usize = 8;
    let throttle = Duration::from_millis(50);
    let engine = engine_with(LIMIT);
    // One connection.
    let bound = LIMIT + FRAME as usize;
    let server = SqlServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            flush_workers: 1,
            flush_throttle: throttle,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = SqlClient::connect(server.addr()).expect("connect");

    let started = std::time::Instant::now();
    let mut sent = 0;
    let mut acked = 0;
    let mut peak = 0;
    while acked < FRAMES {
        while sent < FRAMES && client.pending() < WINDOW {
            client
                .send_batch("root.bound.d1", "s", &frame(sent * FRAME, FRAME))
                .expect("send");
            sent += 1;
        }
        let (_, response) = client.recv().expect("recv");
        assert_eq!(
            response,
            wire::Response::Output(QueryOutput::Inserted(FRAME as usize)),
            "frame {acked}: a stall is waited out, never answered BUSY"
        );
        acked += 1;
        peak = peak.max(engine.buffered_points().0);
    }
    let elapsed = started.elapsed();

    assert!(peak <= bound, "working memtable reached {peak} > {bound}");
    // No memtable held more than `bound` (1,500) points, so of the
    // 20,000 acknowledged at most 3,000 were still in memory: twelve
    // flushes at least had run, one after the other, 50 ms each.
    let waits = flush_waits(&engine);
    assert!(waits >= 5, "only {waits} writes waited");
    assert!(
        elapsed >= throttle * 12,
        "forty frames in {elapsed:?} cannot have waited for their flushes"
    );
    assert_eq!(engine.obs().counter_value(names::SERVER_REJECTED_BUSY), 0);

    // Every point once, in order.
    match client
        .execute("SELECT s FROM root.bound.d1")
        .expect("read back")
    {
        QueryOutput::Rows { rows, .. } => {
            let times: Vec<i64> = rows.iter().map(|(t, _)| *t).collect();
            assert_eq!(times, (0..FRAMES * FRAME).collect::<Vec<_>>());
            assert!(rows
                .iter()
                .all(|(t, cells)| cells.as_slice() == [Some(TsValue::Long(*t))]));
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

/// Writers waiting for a flush hold up nobody else. A 1,000-point
/// memtable behind a 600 ms flusher is full and cannot rotate; four
/// connections each send a 10-point frame, which can only wait. A fifth
/// connection's `count` is answered at once, and from before any of
/// them: when the four waited inside a pool of four workers, it was
/// answered when the flush was done (~600 ms, counting 2,010–2,030).
#[test]
fn stalled_writers_do_not_hold_up_a_reader_on_another_connection() {
    const LIMIT: i64 = 1_000;
    const WRITERS: i64 = 4;
    let engine = engine_with(LIMIT as usize);
    let server = SqlServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            flush_workers: 1,
            flush_throttle: Duration::from_millis(600),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut reader = SqlClient::connect(server.addr()).expect("connect");
    for f in 0..2 {
        reader
            .insert_batch("root.hol.d1", "s", &frame(f * LIMIT, LIMIT))
            .expect("acked");
    }
    let mut writers: Vec<SqlClient> = (0..WRITERS)
        .map(|w| {
            let mut client = SqlClient::connect(server.addr()).expect("connect");
            client
                .send_batch("root.hol.d1", "s", &frame(2 * LIMIT + w * 10, 10))
                .expect("send");
            client.flush().expect("flush");
            client
        })
        .collect();
    while engine.obs().counter_value(names::SERVER_FRAMES) < 2 + WRITERS as u64 {
        std::thread::yield_now();
    }

    let asked = std::time::Instant::now();
    let counted = reader.execute("SELECT count(s) FROM root.hol.d1");
    let answered = asked.elapsed();
    match counted {
        Ok(QueryOutput::Aggregates { values, .. }) => assert_eq!(
            values[0].as_number(),
            Some(2.0 * LIMIT as f64),
            "answered before any stalled write landed"
        ),
        other => panic!("{other:?}"),
    }
    assert!(
        answered < Duration::from_millis(200),
        "the reader waited {answered:?} behind other connections' writes"
    );

    // The four were waiting, not refused: each is acked after the flush.
    for client in &mut writers {
        let (_, response) = client.recv().expect("recv");
        assert_eq!(response, wire::Response::Output(QueryOutput::Inserted(10)));
    }
    assert_eq!(flush_waits(&engine), WRITERS as u64);
    server.shutdown();
}

/// `shutdown` while a connection is waiting for a flush: the flush pool
/// is stopped after the connections are joined, so the wait ends the way
/// it always does — the flush completes — and shutdown returns with
/// every acknowledged frame in the engine.
#[test]
fn shutdown_with_a_connection_waiting_for_a_flush_loses_nothing() {
    const LIMIT: i64 = 1_000;
    let engine = engine_with(LIMIT as usize);
    let server = SqlServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            flush_workers: 1,
            flush_throttle: Duration::from_millis(400),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = SqlClient::connect(server.addr()).expect("connect");
    // The first frame rotates into the slow flusher, the second fills
    // the memtable behind it: the shard is stalled for ~400 ms.
    for f in 0..2 {
        let acked = client
            .insert_batch("root.wait.d1", "s", &frame(f * LIMIT, LIMIT))
            .expect("acked");
        assert_eq!(acked, LIMIT as usize);
    }
    assert!(engine.flush_stalled(0));
    // The third can only wait, on the thread that counted it.
    client
        .send_batch("root.wait.d1", "s", &frame(2 * LIMIT, LIMIT))
        .expect("send");
    client.flush().expect("flush");
    while engine.obs().counter_value(names::SERVER_FRAMES) < 3 {
        std::thread::yield_now();
    }
    assert!(engine.flush_stalled(0), "the flusher is still throttled");
    server.shutdown();

    assert_eq!(flush_waits(&engine), 1, "the third frame waited");
    let stored = engine
        .query(
            &backsort_engine::SeriesKey::new("root.wait.d1", "s"),
            i64::MIN,
            i64::MAX,
        )
        .len();
    // Both acknowledged frames, and the third, which its connection
    // wrote once the wait was over (whether or not its ack reached us).
    assert_eq!(stored, 3 * LIMIT as usize);
}
