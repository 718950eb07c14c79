//! The metrics exporter bounds what it reads of a request. A peer that
//! streams a request head with no newline is answered 400 and cut off,
//! the exporter's one thread buffers none of it past the bound, and the
//! next scrape is served. This file holds one test, so the process-wide
//! allocation reading is the exporter's alone.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use backsort_obs::Registry;
use backsort_server::MetricsServer;

/// Reads what the peer sends until it closes or resets the connection.
fn read_reply(stream: &mut TcpStream) -> Vec<u8> {
    let mut reply = Vec::with_capacity(1024);
    let mut buf = [0u8; 512];
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        reply.extend_from_slice(&buf[..n]);
    }
    reply
}

#[test]
fn a_request_line_without_end_is_refused_unbuffered() {
    let metrics = MetricsServer::start("127.0.0.1:0", Arc::new(Registry::new())).expect("bind");

    let (reply, largest) = common::largest_allocation_anywhere(|| {
        let mut stream = TcpStream::connect(metrics.addr()).expect("connect");
        // 1 MiB of head and no newline, written from the stack. The
        // exporter stops reading at its bound and closes, so the tail of
        // this write may be refused.
        let chunk = [b'a'; 4096];
        for _ in 0..256 {
            if stream.write_all(&chunk).is_err() {
                break;
            }
        }
        read_reply(&mut stream)
    });
    assert!(
        largest < 64 * 1024,
        "the exporter allocated {largest} bytes at once for a 1 MiB head"
    );
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    let mut stream = TcpStream::connect(metrics.addr()).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("request");
    let scrape = String::from_utf8(read_reply(&mut stream)).expect("UTF-8");
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "{scrape}");
    assert!(
        scrape.contains("backsort_engine_write_points 0"),
        "{scrape}"
    );

    metrics.shutdown();
}
