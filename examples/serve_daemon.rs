//! The long-lived serving daemon, end to end over a real socket.
//!
//! This example is both halves of the deployment story in one process:
//! it starts a `Daemon` (persistent worker pool behind a bounded,
//! priority-classed submission queue), puts the line-delimited JSON
//! `WireServer` in front of it on a loopback TCP port, and then acts as
//! a client — submitting mixed-priority job groups, streaming results
//! as they complete, probing metrics, and exercising backpressure.
//!
//! The contracts it demonstrates (and asserts):
//!
//! - **Streaming**: `submit` returns at admission with the job ids; the
//!   results arrive over the socket as workers finish them.
//! - **Determinism**: every accepted job consumes an id/seed stream
//!   position at admission, so the daemon's results — any worker count,
//!   any priority interleaving, delivered over TCP through the JSON
//!   codec — are bit-identical to the sequential reference
//!   (`run_sequential`) over the same requests.
//! - **Backpressure**: a too-large job and an over-wide group are
//!   refused with typed `Rejected` envelopes, consuming nothing.
//! - **Graceful shutdown**: the daemon drains queued jobs before its
//!   workers exit, and reports lifetime metrics.
//!
//! ```text
//! cargo run --release --example serve_daemon            # narrated tour
//! cargo run --release --example serve_daemon -- --smoke # CI gate
//! ```

use std::sync::Arc;

use hybrid_gate_pulse::core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::instances;
use hybrid_gate_pulse::serve::{
    run_sequential, Daemon, DaemonConfig, JobId, JobRequest, JobResult, JobSpec, Priority,
    Rejected, ServeConfig, WireClient, WireServer,
};

const LAYOUT6: [usize; 6] = [0, 1, 2, 3, 4, 5];
const BASE_SEED: u64 = 42;

/// The burst of work every mode submits: three priority-classed groups
/// over one QAOA shape — sampled counts, exact expectations, and
/// trajectory-replay jobs.
fn burst(graph: &hybrid_gate_pulse::graph::Graph) -> Vec<(Vec<JobRequest>, Priority)> {
    let circuit = qaoa_circuit(graph, 1);
    let observable = cost_hamiltonian(graph);
    let interactive: Vec<JobRequest> = (0..3)
        .map(|i| {
            JobRequest::new(
                circuit.clone(),
                vec![0.15 + 0.1 * i as f64, 0.25],
                JobSpec::Expectation {
                    observable: observable.clone(),
                },
            )
        })
        .collect();
    let batch: Vec<JobRequest> = (0..4)
        .map(|i| {
            JobRequest::new(
                circuit.clone(),
                vec![0.1 * (i + 1) as f64, 0.3],
                JobSpec::Counts { shots: 128 },
            )
        })
        .collect();
    let background: Vec<JobRequest> = (0..3)
        .map(|i| {
            JobRequest::new(
                circuit.clone(),
                vec![0.2 + 0.05 * i as f64, 0.4],
                JobSpec::TrajectoryExpectation {
                    observable: observable.clone(),
                    trajectories: 64,
                },
            )
        })
        .collect();
    vec![
        (interactive, Priority::Interactive),
        (batch, Priority::Batch),
        (background, Priority::Background),
    ]
}

/// The bit-identity projection: id, seed, payload — never timings.
fn fingerprint(results: &[JobResult]) -> Vec<(JobId, u64, String)> {
    results
        .iter()
        .map(|r| (r.id, r.seed, format!("{:?}", r.output)))
        .collect()
}

/// Runs the burst through a daemon over a loopback socket and returns
/// the results in id order.
fn run_over_wire(backend: &Backend, verbose: bool) -> Vec<JobResult> {
    let graph = instances::task1_three_regular_6();
    let daemon = Arc::new(Daemon::start(
        backend.clone(),
        DaemonConfig::new(LAYOUT6.to_vec()).with_base_seed(BASE_SEED),
    ));
    let mut server = WireServer::start(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    if verbose {
        println!(
            "daemon: {} workers, queue depth {} | wire: {}",
            daemon.config().service.workers,
            daemon.config().max_queue_depth,
            server.local_addr()
        );
    }
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("pong");

    let mut expected = 0usize;
    for (group, priority) in burst(&graph) {
        let n = group.len();
        let ids = client
            .submit_group(group, priority)
            .expect("transport")
            .expect("admitted");
        assert_eq!(ids.len(), n);
        expected += n;
        if verbose {
            println!(
                "submitted {n} {priority} job(s): ids {}..={}",
                ids[0],
                ids[n - 1]
            );
        }
    }
    // Results stream back in completion order, interleaved across the
    // three submissions; collect and reassemble by id.
    let results = client.collect_results(expected).expect("streamed results");
    assert_eq!(results.len(), expected);
    assert!(results.iter().all(|r| r.output.is_ok()));

    let metrics = client.metrics().expect("snapshot");
    assert_eq!(metrics.admitted, [3, 4, 3]);
    assert_eq!(metrics.jobs_completed, expected as u64);
    if verbose {
        println!("wire metrics: {metrics}");
    }
    server.shutdown();
    daemon.shutdown();
    results
}

/// Typed backpressure on a deliberately tiny daemon: a too-large job
/// and an over-wide group are refused, consuming no stream positions.
fn backpressure(backend: &Backend, verbose: bool) {
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let daemon = Arc::new(Daemon::start(
        backend.clone(),
        DaemonConfig::new(LAYOUT6.to_vec())
            .with_workers(1)
            .with_base_seed(BASE_SEED)
            .with_max_queue_depth(2)
            .with_max_job_shots(500),
    ));
    let mut server = WireServer::start(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let huge = JobRequest::new(
        circuit.clone(),
        vec![0.5, 0.25],
        JobSpec::TrajectoryCounts { shots: 100_000 },
    );
    let rejection = client
        .submit(huge, Priority::Batch)
        .expect("transport")
        .expect_err("must exceed the shot bound");
    assert_eq!(
        rejection,
        Rejected::TooLarge {
            shots: 100_000,
            limit: 500
        }
    );
    if verbose {
        println!("too-large job refused: {rejection}");
    }

    let wide: Vec<JobRequest> = (0..3)
        .map(|i| {
            JobRequest::new(
                circuit.clone(),
                vec![0.1 * (i + 1) as f64, 0.25],
                JobSpec::Counts { shots: 64 },
            )
        })
        .collect();
    let rejection = client
        .submit_group(wide, Priority::Background)
        .expect("transport")
        .expect_err("wider than the whole queue");
    assert!(
        matches!(rejection, Rejected::QueueFull { limit: 2, .. }),
        "{rejection}"
    );
    if verbose {
        println!("over-wide group refused: {rejection}");
    }

    // Neither rejection consumed a position: the next job is still
    // job 0 of the evaluation stream.
    let ids = client
        .submit(
            JobRequest::new(circuit, vec![0.7, 0.25], JobSpec::Counts { shots: 64 }),
            Priority::Interactive,
        )
        .expect("transport")
        .expect("admitted");
    assert_eq!(ids, vec![JobId(0)]);
    let result = client.next_result().expect("streamed");
    assert!(result.output.is_ok());

    server.shutdown();
    let metrics = daemon.shutdown();
    assert_eq!(metrics.rejected_total(), 4);
    assert_eq!(metrics.admitted_total(), 1);
    if verbose {
        println!("backpressure metrics: {metrics}");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let verbose = !smoke;
    let backend = Backend::ibmq_guadalupe();

    // 1. The burst over the wire, then the same requests through the
    // sequential reference: bit-identical, through TCP and the JSON
    // codec included.
    let wire_results = run_over_wire(&backend, verbose);
    let graph = instances::task1_three_regular_6();
    let sequential: Vec<JobRequest> = burst(&graph)
        .into_iter()
        .flat_map(|(group, _)| group)
        .collect();
    let reference = run_sequential(
        &backend,
        &ServeConfig::new(LAYOUT6.to_vec()).with_base_seed(BASE_SEED),
        sequential,
    );
    assert_eq!(fingerprint(&wire_results), fingerprint(&reference));
    if verbose {
        println!("replay check: wire results bit-identical to run_sequential");
        let best = wire_results
            .iter()
            .filter_map(|r| match r.output.as_ref().ok()? {
                hybrid_gate_pulse::serve::JobOutput::Expectation { value } => Some((r.id, *value)),
                _ => None,
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((id, value)) = best {
            println!("best expected cut: {value:.4} ({id})");
        }
    }

    // 2. Typed backpressure on a tiny queue.
    backpressure(&backend, verbose);

    println!(
        "{}",
        if smoke {
            "smoke: daemon wire burst bit-identical to sequential reference; \
             backpressure rejections typed and position-free"
        } else {
            "daemon tour complete"
        }
    );
}
