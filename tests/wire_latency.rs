//! Wire round-trip latency regression.
//!
//! Every envelope must leave in one write on a `TCP_NODELAY` socket. If
//! either end splits a frame (text, then `\n`) or leaves Nagle's
//! algorithm on, the trailing bytes wait for the peer's delayed ACK and
//! each round trip costs tens of milliseconds (Linux's delayed-ACK floor
//! is 40 ms). A healthy loopback round trip of a 6-qubit statevector job
//! takes about a millisecond, so a 10 ms bound on the median separates
//! the two regimes with wide margin on a noisy host.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hgp_core::qaoa::qaoa_circuit;
use hgp_device::Backend;
use hgp_graph::instances;
use hgp_serve::{Daemon, DaemonConfig, JobRequest, JobSpec, Priority, WireClient, WireServer};

const ROUND_TRIPS: usize = 50;
const WARMUP_ROUND_TRIPS: usize = 5;
const MEDIAN_BOUND: Duration = Duration::from_millis(10);

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn sequential_round_trips_stay_under_the_delayed_ack_floor() {
    let daemon = Arc::new(Daemon::start(
        Backend::ibmq_guadalupe(),
        DaemonConfig::new(vec![0, 1, 2, 3, 4, 5]).with_workers(1),
    ));
    let mut server = WireServer::start(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let circuit = qaoa_circuit(&instances::task1_three_regular_6(), 1);
    let job = || JobRequest::new(circuit.clone(), vec![0.35, 0.25], JobSpec::StateVector);
    let submit_to_result = |client: &mut WireClient| {
        let start = Instant::now();
        client
            .submit(job(), Priority::Interactive)
            .expect("transport")
            .expect("admitted");
        let result = client.next_result().expect("result");
        assert!(result.output.is_ok(), "{:?}", result.output);
        start.elapsed()
    };

    // Warm the connection and the compiled-program cache.
    for _ in 0..WARMUP_ROUND_TRIPS {
        client.ping().expect("pong");
        submit_to_result(&mut client);
    }

    let pings: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|_| {
            let start = Instant::now();
            client.ping().expect("pong");
            start.elapsed()
        })
        .collect();
    let jobs: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|_| submit_to_result(&mut client))
        .collect();

    let (ping_p50, job_p50) = (median(pings), median(jobs));
    assert!(
        ping_p50 < MEDIAN_BOUND,
        "ping round trip median {ping_p50:?} >= {MEDIAN_BOUND:?}"
    );
    assert!(
        job_p50 < MEDIAN_BOUND,
        "statevector submit-to-result median {job_p50:?} >= {MEDIAN_BOUND:?}"
    );

    server.shutdown();
    daemon.shutdown();
}
