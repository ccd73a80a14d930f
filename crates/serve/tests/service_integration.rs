//! Integration tests of the serving layer's core contracts, driven
//! through the daemon:
//!
//! - serving through the worker pool is **bit-identical** to sequential
//!   hand-driven `Executor` runs (the acceptance bar for every later
//!   scaling PR),
//! - results are invariant under the worker count and batch split,
//! - the compiled-program cache actually dedupes shape work,
//! - the daemon plugs into `hgp_optim`-style batch optimization.

use hgp_circuit::Circuit;
use hgp_core::compile::CircuitCompiler;
use hgp_core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hgp_device::Backend;
use hgp_graph::instances;
use hgp_optim::Cobyla;
use hgp_serve::{Daemon, DaemonConfig, JobOutput, JobRequest, JobResult, JobSpec, Priority};
use hgp_sim::seed::stream_seed;
use hgp_sim::Counts;

/// A daemon on `backend` over `layout` with `workers` workers. Tests
/// that pin exact cache misses use one worker: concurrent workers may
/// compile one shape redundantly by design.
fn daemon(backend: &Backend, layout: Vec<usize>, workers: usize, base_seed: u64) -> Daemon {
    Daemon::start(
        backend.clone(),
        DaemonConfig::new(layout)
            .with_workers(workers)
            .with_base_seed(base_seed),
    )
}

/// Serves one job (a group of one).
fn run_one(daemon: &Daemon, request: JobRequest) -> JobResult {
    daemon
        .run_batch(vec![request])
        .expect("admitted")
        .pop()
        .expect("one job in, one result out")
}

fn qaoa_points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![0.05 + 0.07 * i as f64, 0.30 - 0.03 * i as f64])
        .collect()
}

/// The sequential reference: compile + bind + replay each job by hand
/// with the same seeds the daemon derives. Exact jobs serve off the
/// precompiled superoperator tape, so the reference walks that same
/// path: walk-compile the tape per point (pinned bit-identical to the
/// template bind the daemon uses by the `hgp_core` template tests),
/// replay it, and sample the resulting state.
fn sequential_counts(
    backend: &Backend,
    layout: Vec<usize>,
    circuit: &Circuit,
    points: &[Vec<f64>],
    shots: usize,
    base_seed: u64,
) -> Vec<Counts> {
    let compiler = CircuitCompiler::new(backend, layout);
    let compiled = compiler.compile(circuit).unwrap();
    let exec = compiled.executor(backend);
    points
        .iter()
        .enumerate()
        .map(|(i, params)| {
            let tape = exec.exact_replay_program(&compiled.bind(params));
            let rho = exec.run_exact_replay(&tape);
            let counts = exec.sample_state(&rho, shots, stream_seed(base_seed, i as u64));
            compiled.decode_counts(&counts)
        })
        .collect()
}

#[test]
fn served_counts_are_bit_identical_to_sequential_executor_runs() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let layout = vec![0, 1, 2, 3, 4, 5];
    let points = qaoa_points(6);
    let shots = 512;
    let base_seed = 42;

    let reference = sequential_counts(
        &backend,
        layout.clone(),
        &circuit,
        &points,
        shots,
        base_seed,
    );

    let daemon = daemon(&backend, layout, 4, base_seed);
    let requests = points
        .iter()
        .map(|x| JobRequest::new(circuit.clone(), x.clone(), JobSpec::Counts { shots }))
        .collect();
    let results = daemon.run_batch(requests).expect("admitted");

    assert_eq!(results.len(), reference.len());
    for (result, expected) in results.iter().zip(&reference) {
        match result.unwrap_output() {
            JobOutput::Counts(counts) => assert_eq!(counts, expected, "{}", result.id),
            other => panic!("expected counts, got {other:?}"),
        }
    }
}

#[test]
fn served_trajectory_jobs_are_bit_identical_to_sequential_executor_runs() {
    // The trajectory job kinds run through the same admission/seed
    // contract: a served TrajectoryCounts/TrajectoryExpectation job is
    // bit-identical to hand-driving the executor's trajectory mode with
    // the job's derived seed.
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let observable = cost_hamiltonian(&graph);
    let layout = vec![0, 1, 2, 3, 4, 5];
    let points = qaoa_points(4);
    let shots = 128;
    let base_seed = 7;

    // Sequential reference.
    let compiler = CircuitCompiler::new(&backend, layout.clone());
    let compiled = compiler.compile(&circuit).unwrap();
    let exec = compiled.executor(&backend);
    let reference: Vec<(Counts, (f64, f64))> = points
        .iter()
        .enumerate()
        .map(|(i, params)| {
            let program = compiled.bind(params);
            // Interleaved submission below: counts jobs take even
            // stream positions, expectation jobs odd ones.
            let counts_seed = stream_seed(base_seed, 2 * i as u64);
            let expect_seed = stream_seed(base_seed, 2 * i as u64 + 1);
            let counts =
                compiled.decode_counts(&exec.sample_trajectories(&program, shots, counts_seed));
            let estimate = exec.expectation_trajectories(
                &program,
                &compiled.wire_observable(&observable),
                shots,
                expect_seed,
            );
            (counts, estimate)
        })
        .collect();

    let daemon = daemon(&backend, layout, 4, base_seed);
    let mut requests = Vec::new();
    for x in &points {
        requests.push(JobRequest::new(
            circuit.clone(),
            x.clone(),
            JobSpec::TrajectoryCounts { shots },
        ));
        requests.push(JobRequest::new(
            circuit.clone(),
            x.clone(),
            JobSpec::TrajectoryExpectation {
                observable: observable.clone(),
                trajectories: shots,
            },
        ));
    }
    let results = daemon.run_batch(requests).expect("admitted");
    assert_eq!(results.len(), 2 * points.len());
    for (i, (expected_counts, (expected_value, expected_err))) in reference.iter().enumerate() {
        match results[2 * i].unwrap_output() {
            JobOutput::TrajectoryCounts(counts) => assert_eq!(counts, expected_counts),
            other => panic!("expected trajectory counts, got {other:?}"),
        }
        match results[2 * i + 1].unwrap_output() {
            JobOutput::TrajectoryExpectation {
                value,
                std_error,
                trajectories,
            } => {
                assert_eq!(value.to_bits(), expected_value.to_bits());
                assert_eq!(std_error.to_bits(), expected_err.to_bits());
                assert_eq!(*trajectories, shots);
            }
            other => panic!("expected trajectory expectation, got {other:?}"),
        }
    }
}

#[test]
fn trajectory_expectation_converges_to_the_density_matrix_job() {
    // Same circuit, same observable: the trajectory estimate agrees
    // with the exact density-matrix expectation within a few standard
    // errors.
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let observable = cost_hamiltonian(&graph);
    let params = vec![0.35, 0.25];
    let daemon = daemon(&backend, vec![0, 1, 2, 3, 4, 5], 2, 42);
    let results = daemon
        .run_batch(vec![
            JobRequest::new(
                circuit.clone(),
                params.clone(),
                JobSpec::Expectation {
                    observable: observable.clone(),
                },
            ),
            JobRequest::new(
                circuit,
                params,
                JobSpec::TrajectoryExpectation {
                    observable,
                    trajectories: 2048,
                },
            ),
        ])
        .expect("admitted");
    let exact = match results[0].unwrap_output() {
        JobOutput::Expectation { value } => *value,
        other => panic!("expected expectation, got {other:?}"),
    };
    match results[1].unwrap_output() {
        JobOutput::TrajectoryExpectation {
            value, std_error, ..
        } => {
            assert!(*std_error > 0.0);
            assert!(
                (value - exact).abs() < 5.0 * std_error.max(1e-3),
                "trajectory {value} vs exact {exact} (stderr {std_error})"
            );
        }
        other => panic!("expected trajectory expectation, got {other:?}"),
    }
}

#[test]
fn results_are_invariant_under_worker_count_and_batch_split() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task2_random_6();
    let circuit = qaoa_circuit(&graph, 1);
    let layout = vec![0, 1, 2, 3, 4, 5];
    let points = qaoa_points(8);
    let mk_requests = |points: &[Vec<f64>]| -> Vec<JobRequest> {
        points
            .iter()
            .map(|x| JobRequest::new(circuit.clone(), x.clone(), JobSpec::Counts { shots: 256 }))
            .collect()
    };

    // One worker, one batch.
    let solo = daemon(&backend, layout.clone(), 1, 42);
    let solo_results = solo.run_batch(mk_requests(&points)).expect("admitted");

    // Many workers, batch split in two: ids keep counting across
    // batches, so outputs must not move.
    let pooled = daemon(&backend, layout, 5, 42);
    let mut pooled_results = pooled
        .run_batch(mk_requests(&points[..3]))
        .expect("admitted");
    pooled_results.extend(
        pooled
            .run_batch(mk_requests(&points[3..]))
            .expect("admitted"),
    );

    for (a, b) in solo_results.iter().zip(&pooled_results) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.output, b.output);
    }
}

#[test]
fn cache_dedupes_shape_work_across_and_within_batches() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let daemon = daemon(&backend, vec![0, 1, 2, 3, 4, 5], 1, 42);

    // Batch 1: 5 jobs, 1 shape -> exactly one compilation, paid by the
    // first job; its batchmates hit.
    let requests: Vec<JobRequest> = qaoa_points(5)
        .into_iter()
        .map(|x| JobRequest::new(circuit.clone(), x, JobSpec::StateVector))
        .collect();
    let first = daemon.run_batch(requests).expect("admitted");
    assert_eq!(daemon.metrics().cache_misses, 1);
    assert!(!first[0].cache_hit, "first job compiled");
    assert!(first[1..].iter().all(|r| r.cache_hit), "batchmates hit");

    // Batch 2: same shape -> zero new compilations, all hits.
    let requests: Vec<JobRequest> = qaoa_points(4)
        .into_iter()
        .map(|x| JobRequest::new(circuit.clone(), x, JobSpec::StateVector))
        .collect();
    let second = daemon.run_batch(requests).expect("admitted");
    assert_eq!(daemon.metrics().cache_misses, 1, "no recompilation");
    assert!(second.iter().all(|r| r.cache_hit));

    // A second shape (p=2) compiles once more; both coexist, so the
    // first shape still hits.
    let deeper = qaoa_circuit(&graph, 2);
    run_one(
        &daemon,
        JobRequest::new(deeper, vec![0.1, 0.2, 0.3, 0.4], JobSpec::StateVector),
    );
    assert_eq!(daemon.metrics().cache_misses, 2);
    let again = run_one(
        &daemon,
        JobRequest::new(circuit, vec![0.3, 0.2], JobSpec::StateVector),
    );
    assert!(again.cache_hit, "both shapes stay cached");
    let metrics = daemon.metrics();
    assert_eq!(metrics.cache_misses, 2);
    assert_eq!(metrics.jobs_completed, 11);
    assert!(metrics.throughput_jobs_per_sec() > 0.0);
}

#[test]
fn exact_jobs_record_template_bind_time_in_the_metrics_split() {
    // Exact job kinds bind the per-dispatch angles into the precompiled
    // superoperator tape before replaying it; that bind is timed
    // separately from execution, so serving exact jobs must leave a
    // nonzero `bind_ns` (and `exec_ns`) in the metrics split.
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let observable = cost_hamiltonian(&graph);
    let daemon = daemon(&backend, vec![0, 1, 2, 3, 4, 5], 2, 42);
    let results = daemon
        .run_batch(vec![
            JobRequest::new(circuit.clone(), vec![0.35, 0.25], JobSpec::DensityMatrix),
            JobRequest::new(
                circuit.clone(),
                vec![0.15, 0.40],
                JobSpec::Counts { shots: 256 },
            ),
            JobRequest::new(
                circuit,
                vec![0.25, 0.10],
                JobSpec::Expectation { observable },
            ),
        ])
        .expect("admitted");
    assert!(results.iter().all(|r| r.error().is_none()));
    let metrics = daemon.metrics();
    assert_eq!(metrics.jobs_completed, 3);
    assert!(
        metrics.bind_hist.sum() > 0,
        "exact-path serving must time the template bind (bind sum = {})",
        metrics.bind_hist.sum()
    );
    assert!(
        metrics.exec_hist.sum() > 0,
        "replay time is accounted as exec time"
    );
}

#[test]
fn mixed_specs_share_one_compiled_shape() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let observable = cost_hamiltonian(&graph);
    let params = vec![0.35, 0.25];
    let daemon = daemon(&backend, vec![0, 1, 2, 3, 4, 5], 1, 42);
    let results = daemon
        .run_batch(vec![
            JobRequest::new(circuit.clone(), params.clone(), JobSpec::StateVector),
            JobRequest::new(circuit.clone(), params.clone(), JobSpec::DensityMatrix),
            JobRequest::new(
                circuit.clone(),
                params.clone(),
                JobSpec::Counts { shots: 2048 },
            ),
            JobRequest::new(
                circuit.clone(),
                params.clone(),
                JobSpec::Expectation {
                    observable: observable.clone(),
                },
            ),
        ])
        .expect("admitted");
    // One shape despite four different specs.
    assert_eq!(daemon.metrics().cache_misses, 1);
    assert_eq!(daemon.metrics().cache_hits, 3);

    let (ideal, noisy, counts, expectation) = match &results[..] {
        [r1, r2, r3, r4] => (
            r1.unwrap_output(),
            r2.unwrap_output(),
            r3.unwrap_output(),
            r4.unwrap_output(),
        ),
        _ => panic!("four results"),
    };
    let JobOutput::StateVector {
        probabilities: ideal,
    } = ideal
    else {
        panic!("statevector output");
    };
    let JobOutput::DensityMatrix {
        probabilities: noisy,
        purity,
    } = noisy
    else {
        panic!("density output");
    };
    let JobOutput::Counts(counts) = counts else {
        panic!("counts output");
    };
    let JobOutput::Expectation { value } = expectation else {
        panic!("expectation output");
    };
    // Physical sanity: distributions normalized; noise reduces purity;
    // the sampled histogram tracks the noisy distribution; the noisy
    // expectation sits inside the spectrum.
    assert!((ideal.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!((noisy.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(*purity < 1.0 && *purity > 0.1);
    assert_eq!(counts.total(), 2048);
    for (b, &p) in noisy.iter().enumerate() {
        assert!((counts.frequency(b) - p).abs() < 0.08, "state {b}");
    }
    let c_max: f64 = (0..64)
        .map(|b| observable.eval_diagonal(b))
        .fold(f64::MIN, f64::max);
    assert!(*value > 0.0 && *value <= c_max + 1e-9);
}

#[test]
fn disconnected_layout_prefix_fails_the_circuit_job_not_the_batch() {
    // Guadalupe does not couple (0, 15): a 2-qubit circuit lands on the
    // disconnected layout prefix [0, 15] and must fail with a typed
    // compile-stage error, while a 3-qubit batchmate (whose prefix
    // [0, 15, 1] is still disconnected) also fails typed — and the
    // daemon keeps serving afterwards.
    let backend = Backend::ibmq_guadalupe();
    let daemon = daemon(&backend, vec![0, 15, 1], 2, 42);
    let mut bell = Circuit::new(2);
    bell.h(0).cx(0, 1);
    let mut ghz = Circuit::new(3);
    ghz.h(0).cx(0, 1).cx(1, 2);
    let results = daemon
        .run_batch(vec![
            JobRequest::new(bell, vec![], JobSpec::StateVector),
            JobRequest::new(ghz, vec![], JobSpec::StateVector),
        ])
        .expect("admitted");
    for result in &results {
        let error = result.error().expect("disconnected prefix fails");
        assert_eq!(error.stage, hgp_serve::JobStage::Compile);
        assert!(error.message.contains("disconnected"), "{error}");
    }
    assert_eq!(daemon.metrics().jobs_failed, 2);
    let mut single = Circuit::new(1);
    single.h(0);
    let after = run_one(
        &daemon,
        JobRequest::new(single, vec![], JobSpec::StateVector),
    );
    assert!(after.output.is_ok(), "the pool survives compile failures");
}

#[test]
fn explicit_seeds_override_derivation() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let daemon = daemon(&backend, vec![0, 1, 2, 3, 4, 5], 2, 42);
    let spec = JobSpec::Counts { shots: 512 };
    let request = JobRequest::new(circuit, vec![0.3, 0.2], spec);
    let a = run_one(&daemon, request.clone().with_seed(7));
    let b = run_one(&daemon, request.clone().with_seed(7));
    let c = run_one(&daemon, request);
    assert_eq!(a.seed, 7);
    assert_eq!(a.output, b.output, "same pinned seed, same stream");
    assert_ne!(a.output, c.output, "derived seed differs");
}

#[test]
fn daemon_backs_a_batch_optimizer() {
    // The serve layer as the evaluation engine of an hgp_optim batch
    // optimization: COBYLA minimizes the negative expected cut through
    // Daemon::expectation_batch.
    let backend = Backend::ideal(6);
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let observable = cost_hamiltonian(&graph);
    let daemon = daemon(&backend, vec![0, 1, 2, 3, 4, 5], 1, 42);
    let mut objective = |xs: &[Vec<f64>]| -> Vec<f64> {
        daemon
            .expectation_batch(&circuit, &observable, xs, Priority::Batch)
            .into_iter()
            .map(|v| -v)
            .collect()
    };
    let result = Cobyla::new(40).minimize_batch(&mut objective, &[0.1, 0.1]);
    let c_max: f64 = (0..64)
        .map(|b| observable.eval_diagonal(b))
        .fold(f64::MIN, f64::max);
    let ar = -result.fun / c_max;
    assert!(ar > 0.6, "optimized AR = {ar}");
    // Every evaluation rode the same compiled program.
    assert_eq!(daemon.metrics().cache_misses, 1);
    assert!(daemon.metrics().jobs_completed > 20);
}
