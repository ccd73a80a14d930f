//! The wire front end's per-connection resources: once a connection
//! closes, the server holds no descriptor (and no thread handle) for it,
//! so a long-lived server survives any number of short-lived clients.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use hgp_device::Backend;
use hgp_serve::{Daemon, DaemonConfig, WireClient, WireServer};

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
