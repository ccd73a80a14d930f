//! Integration suite for the long-lived daemon and its TCP front end:
//!
//! - the headline determinism contract — daemon results are
//!   bit-identical to the sequential `run_sequential` reference for
//!   every worker count × group split × priority mix (proptest-pinned),
//! - admission control and backpressure produce typed rejections that
//!   never consume id/seed stream positions,
//! - graceful shutdown drains queued jobs, poisoned jobs included, and
//!   a dropped `ResultStream` cannot wedge the pool,
//! - strict-priority scheduling orders completions when one worker
//!   drains a mixed queue,
//! - a batch optimizer trains through the daemon exactly as it does
//!   over the sequential reference,
//! - the loopback-socket wire protocol carries submissions, streamed
//!   results, metrics, and rejections bit-exactly.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgp_core::compile::HybridShape;
use hgp_core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hgp_device::Backend;
use hgp_graph::instances;
use hgp_optim::Cobyla;
use hgp_serve::{
    run_sequential, Daemon, DaemonConfig, JobId, JobOutput, JobRequest, JobResult, JobSpec,
    Priority, Rejected, ServeConfig, WireClient, WireServer,
};

const LAYOUT6: [usize; 6] = [0, 1, 2, 3, 4, 5];

fn daemon_config(workers: usize, base_seed: u64) -> DaemonConfig {
    DaemonConfig::new(LAYOUT6.to_vec())
        .with_workers(workers)
        .with_base_seed(base_seed)
}

/// The sequential reference over `requests` as one stream from id 0.
fn sequential(backend: &Backend, base_seed: u64, requests: Vec<JobRequest>) -> Vec<JobResult> {
    let config = ServeConfig::new(LAYOUT6.to_vec()).with_base_seed(base_seed);
    run_sequential(backend, &config, requests)
}

/// A pool of requests covering every execution path the daemon serves:
/// deterministic, sampled, trajectory-replay, and hybrid gate-pulse
/// jobs, plus a validation failure that must consume its stream
/// position.
fn mixed_requests(graph: &hgp_graph::Graph) -> Vec<JobRequest> {
    let circuit = qaoa_circuit(graph, 1);
    let observable = cost_hamiltonian(graph);
    let shape = HybridShape::new(graph.clone(), 1);
    vec![
        JobRequest::new(circuit.clone(), vec![0.35, 0.25], JobSpec::StateVector),
        JobRequest::new(
            circuit.clone(),
            vec![0.15, 0.45],
            JobSpec::Counts { shots: 48 },
        ),
        JobRequest::new(
            circuit.clone(),
            vec![0.6, 0.2],
            JobSpec::Expectation {
                observable: observable.clone(),
            },
        ),
        JobRequest::new(
            circuit.clone(),
            vec![0.25, 0.3],
            JobSpec::TrajectoryCounts { shots: 24 },
        ),
        JobRequest::new(
            circuit.clone(),
            vec![0.45, 0.1],
            JobSpec::TrajectoryExpectation {
                observable: observable.clone(),
                trajectories: 16,
            },
        ),
        // Pinned seed: must override the position-derived default
        // identically on both paths.
        JobRequest::new(
            circuit.clone(),
            vec![0.2, 0.2],
            JobSpec::Counts { shots: 32 },
        )
        .with_seed(0xDEAD_BEEF_CAFE),
        // Wrong parameter count: fails validation but still consumes a
        // stream position on both paths.
        JobRequest::new(circuit, vec![0.1], JobSpec::StateVector),
        JobRequest::hybrid(
            shape.clone(),
            vec![0.3, 0.2, 0.1, 0.8],
            JobSpec::HybridExpectation { observable },
        ),
        JobRequest::hybrid(
            shape,
            vec![0.4, 0.3, 0.0, 0.9],
            JobSpec::HybridTrajectoryCounts { shots: 24 },
        ),
    ]
}

/// The bit-identity projection: id, seed, and payload. `cache_hit` and
/// `elapsed_ns` are scheduling-dependent provenance, explicitly outside
/// the contract.
fn fingerprint(results: &[JobResult]) -> Vec<(JobId, u64, String)> {
    results
        .iter()
        .map(|r| (r.id, r.seed, format!("{:?}", r.output)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline contract: any worker count, any group split, any
    /// priority assignment, any request arrangement — the daemon's
    /// results are bit-identical to one `run_sequential` pass over the
    /// same requests in admission order.
    #[test]
    fn daemon_is_bit_identical_to_run_sequential(
        workers in 1usize..5,
        base_seed in 0u64..1_000_000,
        schedule_seed in 0u64..u64::MAX,
    ) {
        let mut schedule = StdRng::seed_from_u64(schedule_seed);
        let backend = Backend::ibmq_guadalupe();
        let graph = instances::task1_three_regular_6();
        let pool = mixed_requests(&graph);
        // Arrangement with repetition: duplicates exercise the shared
        // compile cache, omissions vary the stream length.
        let requests: Vec<JobRequest> = (0..9)
            .map(|_| pool[schedule.gen_range(0..pool.len())].clone())
            .collect();
        let splits: Vec<usize> = (0..3).map(|_| schedule.gen_range(1usize..4)).collect();
        let priorities: Vec<usize> = (0..4).map(|_| schedule.gen_range(0usize..3)).collect();

        // Sequential reference: one pass in admission order.
        let reference = sequential(&backend, base_seed, requests.clone());

        // Daemon run: the same requests split into consecutive groups,
        // each submitted under its own priority class.
        let daemon = Daemon::start(backend.clone(), daemon_config(workers, base_seed));
        let mut streams = Vec::new();
        let mut rest = requests.as_slice();
        let mut cut = 0usize;
        while !rest.is_empty() {
            let take = splits[cut % splits.len()].min(rest.len());
            let (group, tail) = rest.split_at(take);
            let priority = Priority::ALL[priorities[cut % priorities.len()]];
            streams.push(
                daemon
                    .submit_group(group.to_vec(), priority)
                    .expect("admission under the default bounds"),
            );
            rest = tail;
            cut += 1;
        }
        let mut results: Vec<JobResult> = streams
            .into_iter()
            .flat_map(|s| s.collect_ordered())
            .collect();
        results.sort_by_key(|r| r.id);
        daemon.shutdown();

        prop_assert_eq!(fingerprint(&results), fingerprint(&reference));
    }
}

/// Observability must be a pure observer: with the flight recorder and
/// per-op-kind engine profiling both on, the daemon's results stay
/// bit-identical to the untraced sequential reference, every
/// worker-executed job leaves a complete span chain in the recorder,
/// and the validation failure leaves a truncated one.
#[test]
fn tracing_and_profiling_leave_results_bit_identical() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let requests = mixed_requests(&graph);

    let reference = sequential(&backend, 7, requests.clone());

    let daemon = Daemon::start(
        backend,
        daemon_config(3, 7)
            .with_trace_capacity(64)
            .with_profiling(true),
    );
    let results = daemon.run_batch(requests.clone()).expect("admitted");
    let traces = daemon.trace_tail(64);
    let profile = daemon.profile_snapshot();
    daemon.shutdown();

    assert_eq!(fingerprint(&results), fingerprint(&reference));

    // One trace per admitted job, validation failures included. Jobs
    // that reached a worker carry the complete seven-span chain;
    // validation failures carry the truncated enqueued → validated →
    // delivered chain and are marked not-ok.
    assert_eq!(traces.len(), requests.len());
    let validate_failures = reference
        .iter()
        .filter(|r| matches!(&r.output, Err(e) if e.stage == hgp_serve::JobStage::Validate))
        .count();
    assert!(
        validate_failures > 0,
        "the pool includes validation failures"
    );
    let complete = traces.iter().filter(|t| t.is_complete_chain()).count();
    assert_eq!(complete, requests.len() - validate_failures);
    for truncated in traces.iter().filter(|t| !t.is_complete_chain()) {
        assert!(!truncated.ok, "incomplete chains are the rejected jobs");
        assert_eq!(truncated.spans.len(), 3);
    }
    // The replay and exact engines executed under the shared profile.
    assert!(profile.total_calls() > 0);
    assert!(profile.total_ns() > 0);

    // Trace capacity zero disables recording (and unprofiled daemons
    // report the all-zero snapshot) without touching the results.
    let daemon = Daemon::start(
        Backend::ibmq_guadalupe(),
        daemon_config(2, 7).with_trace_capacity(0),
    );
    let untraced = daemon.run_batch(requests).expect("admitted");
    assert!(daemon.trace_tail(64).is_empty());
    assert_eq!(daemon.profile_snapshot().total_calls(), 0);
    daemon.shutdown();
    assert_eq!(fingerprint(&untraced), fingerprint(&reference));
}

#[test]
fn rejections_consume_no_stream_positions() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let request = |gamma: f64| {
        JobRequest::new(
            circuit.clone(),
            vec![gamma, 0.25],
            JobSpec::Counts { shots: 64 },
        )
    };
    let daemon = Daemon::start(
        backend.clone(),
        daemon_config(2, 11)
            .with_max_queue_depth(4)
            .with_max_job_shots(1000),
    );

    // Too large: screened before anything is admitted.
    let huge = JobRequest::new(
        circuit.clone(),
        vec![0.5, 0.25],
        JobSpec::TrajectoryCounts { shots: 5000 },
    );
    let rejection = daemon
        .submit_group(vec![request(0.1), huge], Priority::Interactive)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(
        rejection,
        Rejected::TooLarge {
            shots: 5000,
            limit: 1000
        }
    );

    // A group wider than the whole queue can never be admitted,
    // whatever the current depth.
    let wide: Vec<JobRequest> = (0..5).map(|i| request(0.1 * (i + 1) as f64)).collect();
    let Err(Rejected::QueueFull { limit: 4, .. }) = daemon.submit_group(wide, Priority::Background)
    else {
        panic!("oversized group must be rejected whole");
    };

    // Neither rejection consumed a stream position: the next admitted
    // job is still job 0, so its results match a fresh sequential run.
    let results = daemon
        .submit(request(0.7), Priority::Batch)
        .expect("fits all bounds")
        .collect_ordered();
    assert_eq!(results[0].id, JobId(0));
    let reference = sequential(&backend, 11, vec![request(0.7)]);
    assert_eq!(fingerprint(&results), fingerprint(&reference));

    let metrics = daemon.shutdown();
    assert_eq!(metrics.rejected_large, [2, 0, 0]);
    assert_eq!(metrics.rejected_full, [0, 0, 5]);
    assert_eq!(metrics.admitted, [0, 1, 0]);

    // After shutdown: lifecycle rejection, no counters, no positions.
    let closed = daemon
        .submit(request(0.9), Priority::Interactive)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(closed, Rejected::ShuttingDown);
}

#[test]
fn shutdown_drains_queued_jobs_poisoned_ones_included() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    // A shape whose compile fails (mixer duration not a multiple of
    // 32): the daemon-side poison — it passes validation (param count
    // matches its declared shape), reaches a worker, and dies there,
    // mid-drain.
    let bad_shape = HybridShape::new(graph.clone(), 1).with_mixer_duration(100);
    let poisoned = JobRequest::hybrid(
        bad_shape.clone(),
        vec![0.1; bad_shape.n_params()],
        JobSpec::HybridCounts { shots: 32 },
    );
    let good = |gamma: f64| {
        JobRequest::new(
            circuit.clone(),
            vec![gamma, 0.25],
            JobSpec::Counts { shots: 48 },
        )
    };

    let daemon = Daemon::start(backend, daemon_config(2, 5));
    let stream = daemon
        .submit_group(
            vec![good(0.1), poisoned, good(0.2), good(0.3)],
            Priority::Batch,
        )
        .expect("admitted");
    // Shut down immediately: everything above is (at best) still
    // queued, and the drain must deliver all four results anyway.
    let metrics = daemon.shutdown();
    let results = stream.collect_ordered();
    assert_eq!(results.len(), 4);
    let errors: Vec<bool> = results.iter().map(|r| r.output.is_err()).collect();
    assert_eq!(errors, [false, true, false, false]);
    let error = results[1].error().expect("compile failure");
    assert!(error.message.contains("multiple of 32"), "{error}");
    assert_eq!(metrics.jobs_completed, 4);
    assert_eq!(metrics.jobs_failed, 1);
}

#[test]
fn dropped_result_stream_cannot_wedge_the_pool() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let request = |gamma: f64| {
        JobRequest::new(
            circuit.clone(),
            vec![gamma, 0.25],
            JobSpec::Counts { shots: 48 },
        )
    };
    let daemon = Daemon::start(backend, daemon_config(2, 3));
    // Submit and walk away: the workers' result sends hit a dead
    // receiver and must be discarded, not panicked on.
    let abandoned = daemon
        .submit_group(
            (0..6).map(|i| request(0.1 * (i + 1) as f64)).collect(),
            Priority::Batch,
        )
        .expect("admitted");
    drop(abandoned);
    // The pool must still serve later submissions and drain cleanly.
    let kept = daemon
        .submit_group(vec![request(0.9), request(0.8)], Priority::Interactive)
        .expect("admitted");
    let results = kept.collect_ordered();
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.output.is_ok()));
    let metrics = daemon.shutdown();
    assert_eq!(metrics.jobs_completed, 8);
}

#[test]
fn strict_priority_orders_completions_on_one_worker() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let daemon = Daemon::start(backend, daemon_config(1, 9));
    // Occupy the single worker long enough for every later submission
    // to land while it is busy; afterwards the pop order is pure
    // policy. Trajectory sizes keep per-job completion gaps at
    // millisecond scale so the observed arrival order is stable.
    let job = |shots: usize, gamma: f64| {
        JobRequest::new(
            circuit.clone(),
            vec![gamma, 0.25],
            JobSpec::TrajectoryCounts { shots },
        )
    };
    let blocker = daemon
        .submit(job(20_000, 0.5), Priority::Background)
        .expect("admitted");
    // Wait for the worker to take the blocker (the queue-depth gauge
    // drops to zero once it is popped, long before its 20k shots
    // finish) so the later submissions demonstrably queue behind it.
    while daemon.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let background = daemon
        .submit(job(2_000, 0.1), Priority::Background)
        .expect("admitted");
    let batch = daemon
        .submit(job(2_000, 0.2), Priority::Batch)
        .expect("admitted");
    let interactive = daemon
        .submit(job(2_000, 0.3), Priority::Interactive)
        .expect("admitted");

    let order: Arc<Mutex<Vec<JobId>>> = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = [blocker, background, batch, interactive]
        .into_iter()
        .map(|stream| {
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                for result in stream {
                    order.lock().unwrap().push(result.id);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    daemon.shutdown();
    // Submission order was blocker(0), background(1), batch(2),
    // interactive(3); completion order is the strict-priority scan.
    assert_eq!(
        *order.lock().unwrap(),
        vec![JobId(0), JobId(3), JobId(2), JobId(1)]
    );
}

#[test]
fn batch_optimizer_trains_through_the_daemon() {
    // The daemon as the evaluation engine of an hgp_optim batch
    // optimization — and because expectation jobs are deterministic,
    // the whole optimizer trajectory matches the sequential reference
    // exactly.
    let backend = Backend::ideal(6);
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let observable = cost_hamiltonian(&graph);

    let mut reference_objective = |xs: &[Vec<f64>]| -> Vec<f64> {
        let requests = xs
            .iter()
            .map(|x| {
                JobRequest::new(
                    circuit.clone(),
                    x.clone(),
                    JobSpec::Expectation {
                        observable: observable.clone(),
                    },
                )
            })
            .collect();
        sequential(&backend, 42, requests)
            .iter()
            .map(|r| match r.unwrap_output() {
                JobOutput::Expectation { value } => -value,
                other => unreachable!("expectation job produced {other:?}"),
            })
            .collect()
    };
    let reference = Cobyla::new(40).minimize_batch(&mut reference_objective, &[0.1, 0.1]);

    let daemon = Daemon::start(
        backend.clone(),
        DaemonConfig::new(LAYOUT6.to_vec()).with_workers(4),
    );
    let mut objective = |xs: &[Vec<f64>]| -> Vec<f64> {
        daemon
            .expectation_batch(&circuit, &observable, xs, Priority::Interactive)
            .into_iter()
            .map(|v| -v)
            .collect()
    };
    let result = Cobyla::new(40).minimize_batch(&mut objective, &[0.1, 0.1]);
    let metrics = daemon.shutdown();

    assert_eq!(result.fun.to_bits(), reference.fun.to_bits());
    assert_eq!(result.x, reference.x);
    // Every probe rode one shape through the daemon cache. Workers
    // compile on a miss outside the cache lock, so the first probe
    // batch may compile it once per worker, never more.
    assert!((1..=4).contains(&metrics.cache_misses));
    assert!(metrics.admitted[0] > 20);
}

#[test]
fn wire_round_trip_streams_bit_identical_results() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let requests = mixed_requests(&graph);
    let base_seed = 17;

    // Sequential reference for the whole submission order.
    let reference = sequential(&backend, base_seed, requests.clone());

    let daemon = Arc::new(Daemon::start(backend, daemon_config(3, base_seed)));
    let mut server = WireServer::start(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("pong");

    // Two pipelined submissions on one connection: their ids must be
    // contiguous in submission order, their results interleave freely.
    let (first, second) = requests.split_at(5);
    let first_ids = client
        .submit_group(first.to_vec(), Priority::Interactive)
        .expect("transport")
        .expect("admitted");
    let second_ids = client
        .submit_group(second.to_vec(), Priority::Background)
        .expect("transport")
        .expect("admitted");
    assert_eq!(first_ids, (0..5).map(JobId).collect::<Vec<_>>());
    assert_eq!(
        second_ids,
        (5..requests.len() as u64).map(JobId).collect::<Vec<_>>()
    );
    let results = client
        .collect_results(requests.len())
        .expect("streamed results");
    // Bit-identical through JSON: the codec round-trips f64 exactly.
    assert_eq!(fingerprint(&results), fingerprint(&reference));

    let metrics = client.metrics().expect("snapshot");
    assert_eq!(metrics.admitted, [5, 0, 4]);
    assert_eq!(metrics.jobs_completed, requests.len() as u64);

    server.shutdown();
    daemon.shutdown();
}

#[test]
fn wire_rejections_and_protocol_errors_are_typed() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let daemon = Arc::new(Daemon::start(
        backend,
        daemon_config(1, 23).with_max_job_shots(100),
    ));
    let mut server = WireServer::start(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    // Daemon-level rejection arrives as a typed envelope.
    let too_big = JobRequest::new(
        circuit.clone(),
        vec![0.5, 0.25],
        JobSpec::TrajectoryCounts { shots: 5000 },
    );
    assert_eq!(
        client
            .submit(too_big, Priority::Batch)
            .expect("transport ok"),
        Err(Rejected::TooLarge {
            shots: 5000,
            limit: 100
        })
    );

    // A malformed line gets an error envelope and the session survives:
    // drive a raw socket so the test controls the exact bytes.
    use std::io::{BufRead, BufReader, Write};
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut raw_reader = BufReader::new(raw.try_clone().unwrap());
    raw.write_all(b"{\"op\":\"frobnicate\"}\n").unwrap();
    let mut line = String::new();
    raw_reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("error") && line.contains("frobnicate"),
        "{line}"
    );
    // Same session, now a well-formed probe: still served.
    raw.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    raw_reader.read_line(&mut pong).unwrap();
    assert!(pong.contains("pong"), "{pong}");
    client.ping().expect("first session also still up");

    server.shutdown();
    daemon.shutdown();
}
