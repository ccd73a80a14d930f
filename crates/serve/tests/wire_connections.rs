//! The wire front end's per-connection resources: once a connection
//! closes, the server holds no descriptor (and no thread handle) for it,
//! so a long-lived server survives any number of short-lived clients;
//! and no single hostile line can take the server down.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hgp_device::Backend;
use hgp_serve::json::JsonCodec;
use hgp_serve::{Daemon, DaemonConfig, WireClient, WireRequest, WireResponse, WireServer};

const CYCLES: usize = 200;
/// Descriptors allowed beyond the starting count: a connection or two
/// whose handler has not yet seen its EOF.
const SLACK: usize = 8;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    let daemon = Arc::new(Daemon::start(
        Backend::ibmq_guadalupe(),
        DaemonConfig::new(vec![0, 1, 2, 3, 4, 5]).with_workers(1),
    ));
    let mut server = WireServer::start(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    // A connection that stays open throughout must keep being served.
    let mut resident = WireClient::connect(addr).expect("connect");
    resident.ping().expect("pong");
    let before = open_fds();

    for _ in 0..CYCLES {
        let mut client = WireClient::connect(addr).expect("connect");
        client.ping().expect("pong");
    }

    // Handlers see each client's EOF asynchronously: let them catch up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut after = open_fds();
    while after > before + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= before + SLACK,
        "{CYCLES} closed connections left {after} descriptors open (started with {before})"
    );
    resident.ping().expect("resident connection still served");

    server.shutdown();
    daemon.shutdown();
}

/// One 200 KB line of `[` recurses 200k levels deep in the JSON parser,
/// enough to overflow the connection thread's stack and abort the whole
/// process. It must get a typed error reply, and the same connection
/// must keep being served.
#[test]
fn deeply_nested_line_is_refused_and_the_connection_survives() {
    let daemon = Arc::new(Daemon::start(
        Backend::ibmq_guadalupe(),
        DaemonConfig::new(vec![0, 1, 2, 3, 4, 5]).with_workers(1),
    ));
    let mut server = WireServer::start(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut roundtrip = |line: String| {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        WireResponse::from_json_str(&reply).expect("typed reply")
    };

    match roundtrip("[".repeat(200_000)) {
        WireResponse::Error { message } => assert!(message.contains("nesting"), "{message}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert_eq!(
        roundtrip(WireRequest::Ping.to_json_string()),
        WireResponse::Pong
    );

    server.shutdown();
    daemon.shutdown();
}
