//! Integration tests of hybrid gate-pulse serving through the daemon:
//!
//! - served hybrid jobs are **bit-identical** to sequential hand-driven
//!   `Executor` runs over `HybridModel`-built programs, across worker
//!   counts and batch splits (proptest),
//! - hybrid shapes participate in the structural-hash compiled cache,
//!   and coexist with circuit shapes,
//! - served hybrid trajectory estimates converge to the served exact
//!   expectation,
//! - a poisoned job — malformed pulse schedule, bad parameter count,
//!   mismatched spec — fails alone with a typed `JobError` while the
//!   rest of its batch executes normally, and never kills a worker,
//! - the two-stage (coarse gate / fine pulse-trim) training loop runs
//!   through `Daemon::hybrid_expectation_batch`.

use proptest::prelude::*;

use hgp_core::compile::HybridShape;
use hgp_core::models::{GateModelOptions, HybridModel, VqaModel};
use hgp_core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hgp_core::training::minimize_two_stage;
use hgp_device::Backend;
use hgp_graph::instances;
use hgp_serve::{Daemon, DaemonConfig, JobOutput, JobRequest, JobSpec, JobStage, Priority};
use hgp_sim::seed::stream_seed;
use hgp_sim::Counts;

const LAYOUT6: [usize; 6] = [1, 2, 3, 4, 5, 7];

/// A daemon over [`LAYOUT6`]. Tests that pin exact cache misses use one
/// worker: concurrent workers may compile one shape redundantly by
/// design.
fn daemon(backend: &Backend, workers: usize, base_seed: u64) -> Daemon {
    Daemon::start(
        backend.clone(),
        DaemonConfig::new(LAYOUT6.to_vec())
            .with_workers(workers)
            .with_base_seed(base_seed),
    )
}

fn shape6(p: usize) -> HybridShape {
    HybridShape::new(instances::task1_three_regular_6(), p)
        .with_options(GateModelOptions::optimized())
}

/// A full hybrid parameter point derived from two angles plus per-qubit
/// trims, deterministic in `i`.
fn hybrid_point(shape: &HybridShape, i: usize) -> Vec<f64> {
    let per_layer = shape.params_per_layer();
    let mut x = Vec::with_capacity(shape.n_params());
    for layer in 0..shape.p() {
        x.push(0.05 + 0.07 * i as f64 + 0.01 * layer as f64); // gamma
        x.push(0.60 - 0.03 * i as f64); // theta
        for q in 0..shape.n_qubits() {
            x.push(0.02 * (q as f64 + 1.0) - 0.01 * i as f64); // phase trim
            x.push(0.03 * (i as f64 + 1.0) - 0.02 * q as f64); // freq trim
        }
        debug_assert_eq!(x.len(), (layer + 1) * per_layer);
    }
    x
}

/// The sequential reference: build each program through the HybridModel
/// and hand-drive the exact replay path — walk-compiled tape, replay,
/// sample — with the seeds the daemon derives. The serve side binds
/// via the exact template, which is pinned bit-identical to this
/// walk-compiled composition by the `hgp_core` template tests.
fn sequential_hybrid_counts(
    backend: &Backend,
    shape: &HybridShape,
    points: &[Vec<f64>],
    shots: usize,
    base_seed: u64,
) -> Vec<Counts> {
    let region = LAYOUT6[..shape.n_qubits()].to_vec();
    let model =
        HybridModel::with_options(backend, shape.graph(), shape.p(), region, shape.options())
            .unwrap();
    let exec = model.compiled().executor(backend);
    points
        .iter()
        .enumerate()
        .map(|(i, params)| {
            let program = model.build(params);
            let rho = exec.run_exact_replay(&exec.exact_replay_program(&program));
            let counts = exec.sample_state(&rho, shots, stream_seed(base_seed, i as u64));
            model.interpret_counts(&counts)
        })
        .collect()
}

#[test]
fn served_hybrid_counts_are_bit_identical_to_sequential_model_runs() {
    let backend = Backend::ibmq_toronto();
    let shape = shape6(1);
    let points: Vec<Vec<f64>> = (0..6).map(|i| hybrid_point(&shape, i)).collect();
    let shots = 512;
    let base_seed = 42;

    let reference = sequential_hybrid_counts(&backend, &shape, &points, shots, base_seed);

    let daemon = daemon(&backend, 1, base_seed);
    let requests = points
        .iter()
        .map(|x| JobRequest::hybrid(shape.clone(), x.clone(), JobSpec::HybridCounts { shots }))
        .collect();
    let results = daemon.run_batch(requests).expect("admitted");
    // One hybrid shape: exactly one compilation for the whole batch.
    assert_eq!(daemon.metrics().cache_misses, 1);
    assert_eq!(daemon.metrics().jobs_failed, 0);
    for (result, expected) in results.iter().zip(&reference) {
        match result.unwrap_output() {
            JobOutput::Counts(counts) => assert_eq!(counts, expected, "{}", result.id),
            other => panic!("expected counts, got {other:?}"),
        }
    }
}

proptest! {
    // Each case compiles a p=1 hybrid shape and runs a 6-qubit density
    // walk per point; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The serving determinism contract, fuzzed: for any worker count,
    /// batch split, base seed, and parameter perturbation, served
    /// HybridExpectation batches are bit-identical to sequential
    /// hand-driven Executor runs.
    #[test]
    fn served_hybrid_expectation_is_bit_identical_across_worker_counts(
        workers in 1usize..6,
        split in 1usize..4,
        base_seed in 0u64..1_000_000,
        jitter in -0.2f64..0.2,
    ) {
        let backend = Backend::ibmq_toronto();
        let shape = shape6(1);
        let observable = cost_hamiltonian(shape.graph());
        let points: Vec<Vec<f64>> = (0..4)
            .map(|i| {
                let mut x = hybrid_point(&shape, i);
                for v in &mut x {
                    *v += jitter;
                }
                x
            })
            .collect();

        // Sequential reference through the model path.
        let model = HybridModel::with_options(
            &backend,
            shape.graph(),
            1,
            LAYOUT6.to_vec(),
            shape.options(),
        )
        .unwrap();
        let exec = model.compiled().executor(&backend);
        let wire_obs = model.compiled().wire_observable(&observable);
        let reference: Vec<f64> = points
            .iter()
            .map(|x| {
                // Hand-drive the exact replay path served jobs take:
                // walk-compile the tape per point. The serve side binds
                // via the exact template instead, pinned bit-identical
                // to this composition by the hgp_core template tests.
                let rho = exec.run_exact_replay(&exec.exact_replay_program(&model.build(x)));
                hgp_sim::SimBackend::expectation(&rho, &wire_obs)
            })
            .collect();

        // Served, with an arbitrary worker count and batch split.
        let daemon = daemon(&backend, workers, base_seed);
        let mk = |xs: &[Vec<f64>]| -> Vec<JobRequest> {
            xs.iter()
                .map(|x| {
                    JobRequest::hybrid(
                        shape.clone(),
                        x.clone(),
                        JobSpec::HybridExpectation {
                            observable: observable.clone(),
                        },
                    )
                })
                .collect()
        };
        let cut = split.min(points.len());
        let mut results = daemon.run_batch(mk(&points[..cut])).expect("admitted");
        results.extend(daemon.run_batch(mk(&points[cut..])).expect("admitted"));

        for (result, expected) in results.iter().zip(&reference) {
            match result.unwrap_output() {
                JobOutput::Expectation { value } => {
                    prop_assert_eq!(value.to_bits(), expected.to_bits());
                }
                other => prop_assert!(false, "expected expectation, got {other:?}"),
            }
        }
    }
}

proptest! {
    // Each case compiles one hybrid shape (cached after the first
    // batch) and runs a few hundred 6-qubit trajectories per job.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The replay-path determinism contract, fuzzed: served trajectory
    /// jobs ride the compile-time schedule template and the op-fused
    /// replay engine, and must stay bit-identical to the *reference*
    /// `TrajectoryEngine` over the executor-recorded program of the same
    /// binding — for any worker count, batch split, base seed, and
    /// parameter jitter.
    #[test]
    fn served_trajectory_jobs_ride_the_template_bit_identically(
        workers in 1usize..6,
        split in 1usize..4,
        base_seed in 0u64..1_000_000,
        jitter in -0.2f64..0.2,
    ) {
        let backend = Backend::ibmq_toronto();
        let shape = shape6(1);
        let observable = cost_hamiltonian(shape.graph());
        let trajectories = 192;
        let shots = 160;
        let points: Vec<Vec<f64>> = (0..4)
            .map(|i| {
                let mut x = hybrid_point(&shape, i);
                for v in &mut x {
                    *v += jitter;
                }
                x
            })
            .collect();

        let daemon = daemon(&backend, workers, base_seed);
        let mk = |xs: &[Vec<f64>], offset: usize| -> Vec<JobRequest> {
            xs.iter()
                .enumerate()
                .map(|(i, x)| {
                    let spec = if (offset + i).is_multiple_of(2) {
                        JobSpec::HybridTrajectoryExpectation {
                            observable: observable.clone(),
                            trajectories,
                        }
                    } else {
                        JobSpec::HybridTrajectoryCounts { shots }
                    };
                    JobRequest::hybrid(shape.clone(), x.clone(), spec)
                })
                .collect()
        };
        let cut = split.min(points.len());
        let mut results = daemon.run_batch(mk(&points[..cut], 0)).expect("admitted");
        results.extend(daemon.run_batch(mk(&points[cut..], cut)).expect("admitted"));

        // Reference: hand-driven TrajectoryEngine over the recorded
        // schedule of each binding, at the daemon's stream seeds.
        let model = HybridModel::with_options(
            &backend,
            shape.graph(),
            1,
            LAYOUT6.to_vec(),
            shape.options(),
        )
        .unwrap();
        let exec = model.compiled().executor(&backend);
        let wire_obs = model.compiled().wire_observable(&observable);
        for (i, (result, x)) in results.iter().zip(points.iter()).enumerate() {
            let recorded = exec.trajectory_program(&model.build(x));
            let seed = stream_seed(base_seed, i as u64);
            match result.unwrap_output() {
                JobOutput::TrajectoryExpectation { value, std_error, .. } => {
                    let reference = hgp_sim::TrajectoryEngine::new(trajectories, seed)
                        .expectation_with_error(&recorded, &wire_obs);
                    prop_assert_eq!(value.to_bits(), reference.0.to_bits());
                    prop_assert_eq!(std_error.to_bits(), reference.1.to_bits());
                }
                JobOutput::TrajectoryCounts(counts) => {
                    let reference = hgp_sim::TrajectoryEngine::new(shots, seed)
                        .sample_counts_with(&recorded, |bits, rng| {
                            exec.readout().corrupt_bits(bits, rng)
                        });
                    prop_assert_eq!(counts, &model.interpret_counts(&reference));
                }
                other => prop_assert!(false, "unexpected output {other:?}"),
            }
        }
        // The whole fuzz case rode one shape. Concurrent workers may
        // compile it redundantly on their first pops, never more than
        // once each.
        let metrics = daemon.metrics();
        prop_assert!((1..=workers as u64).contains(&metrics.cache_misses));
        // The stage split is populated: trajectory-heavy batches show
        // bind time well below execute time instead of masquerading as
        // compile misses.
        prop_assert!(metrics.bind_hist.sum() > 0);
        prop_assert!(metrics.exec_hist.sum() > metrics.bind_hist.sum());
        // Shot accounting: two of the four points ran expectation jobs
        // (192 trajectories each), two ran counts jobs (160 shots each),
        // regardless of how the batches were split or parallelized.
        let even = points.len().div_ceil(2);
        let odd = points.len() - even;
        prop_assert_eq!(
            metrics.shots_executed,
            (even * trajectories + odd * shots) as u64
        );
        prop_assert!(metrics.shots_per_sec() > 0.0);
        prop_assert!(metrics.mean_shot_exec_ns() > 0.0);
    }
}

#[test]
fn served_hybrid_trajectories_are_bit_identical_and_converge() {
    let backend = Backend::ibmq_toronto();
    let shape = shape6(1);
    let observable = cost_hamiltonian(shape.graph());
    let params = hybrid_point(&shape, 2);
    let trajectories = 2048;
    let base_seed = 9;

    let daemon = daemon(&backend, 3, base_seed);
    let results = daemon
        .run_batch(vec![
            JobRequest::hybrid(
                shape.clone(),
                params.clone(),
                JobSpec::HybridExpectation {
                    observable: observable.clone(),
                },
            ),
            JobRequest::hybrid(
                shape.clone(),
                params.clone(),
                JobSpec::HybridTrajectoryExpectation {
                    observable: observable.clone(),
                    trajectories,
                },
            ),
            JobRequest::hybrid(
                shape.clone(),
                params.clone(),
                JobSpec::HybridTrajectoryCounts { shots: 256 },
            ),
        ])
        .expect("admitted");
    let exact = match results[0].unwrap_output() {
        JobOutput::Expectation { value } => *value,
        other => panic!("expected expectation, got {other:?}"),
    };
    // Convergence: the trajectory estimate brackets the exact value.
    let (value, std_error) = match results[1].unwrap_output() {
        JobOutput::TrajectoryExpectation {
            value, std_error, ..
        } => (*value, *std_error),
        other => panic!("expected trajectory expectation, got {other:?}"),
    };
    assert!(std_error > 0.0);
    assert!(
        (value - exact).abs() < 5.0 * std_error.max(1e-3),
        "trajectory {value} vs exact {exact} (stderr {std_error})"
    );

    // Bit-identity of the trajectory kinds against the hand-driven
    // executor with the daemon's derived seeds.
    let model = HybridModel::with_options(
        &backend,
        shape.graph(),
        1,
        LAYOUT6.to_vec(),
        shape.options(),
    )
    .unwrap();
    let exec = model.compiled().executor(&backend);
    let program = model.build(&params);
    let by_hand = exec.expectation_trajectories(
        &program,
        &model.compiled().wire_observable(&observable),
        trajectories,
        stream_seed(base_seed, 1),
    );
    assert_eq!(value.to_bits(), by_hand.0.to_bits());
    let by_hand_counts = model.compiled().decode_counts(&exec.sample_trajectories(
        &program,
        256,
        stream_seed(base_seed, 2),
    ));
    match results[2].unwrap_output() {
        JobOutput::TrajectoryCounts(counts) => assert_eq!(counts, &by_hand_counts),
        other => panic!("expected trajectory counts, got {other:?}"),
    }
}

#[test]
fn hybrid_and_circuit_shapes_share_the_cache() {
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    let shape = shape6(1);
    let circuit = qaoa_circuit(&graph, 1);
    let daemon = daemon(&backend, 1, 42);

    // Mixed batch: one circuit shape + one hybrid shape = two misses.
    let mut requests = vec![JobRequest::new(
        circuit.clone(),
        vec![0.3, 0.2],
        JobSpec::Counts { shots: 128 },
    )];
    requests.extend((0..3).map(|i| {
        JobRequest::hybrid(
            shape.clone(),
            hybrid_point(&shape, i),
            JobSpec::HybridCounts { shots: 128 },
        )
    }));
    let first = daemon.run_batch(requests).expect("admitted");
    assert!(first.iter().all(|r| r.output.is_ok()));
    assert_eq!(daemon.metrics().cache_misses, 2);
    assert_eq!(daemon.metrics().cache_hits, 2);

    // Second batch rides both cached shapes.
    let second = daemon
        .run_batch(vec![
            JobRequest::new(circuit, vec![0.1, 0.4], JobSpec::Counts { shots: 128 }),
            JobRequest::hybrid(
                shape.clone(),
                hybrid_point(&shape, 5),
                JobSpec::HybridCounts { shots: 128 },
            ),
        ])
        .expect("admitted");
    assert_eq!(daemon.metrics().cache_misses, 2, "no recompilation");
    assert!(second.iter().all(|r| r.cache_hit));

    // A different mixer duration is a different shape (Step I's knob
    // re-keys the cache).
    let retimed = daemon
        .run_batch(vec![JobRequest::hybrid(
            shape.clone().with_mixer_duration(128),
            hybrid_point(&shape, 0),
            JobSpec::HybridCounts { shots: 64 },
        )])
        .expect("admitted");
    assert!(!retimed[0].cache_hit);
    assert_eq!(daemon.metrics().cache_misses, 3);
}

#[test]
fn poisoned_jobs_fail_alone_without_killing_workers() {
    let backend = Backend::ibmq_toronto();
    let shape = shape6(1);
    let good_points: Vec<Vec<f64>> = (0..3).map(|i| hybrid_point(&shape, i)).collect();
    let base_seed = 77;
    let shots = 256;

    // The poisoned batch interleaves four malformed jobs:
    let daemon = daemon(&backend, 2, base_seed);
    // (a) a malformed pulse schedule: mixer duration not a multiple of
    //     32 dt — fails at the compile stage,
    let bad_duration = shape.clone().with_mixer_duration(100);
    // (b) a wrong parameter count — fails at validation,
    // (c) a hybrid spec on a circuit program — fails at validation,
    // (d) a wrong-width observable — fails at validation.
    let graph = instances::task1_three_regular_6();
    let requests = vec![
        JobRequest::hybrid(
            bad_duration.clone(),
            hybrid_point(&bad_duration, 0),
            JobSpec::HybridCounts { shots },
        ),
        JobRequest::hybrid(
            shape.clone(),
            good_points[0].clone(),
            JobSpec::HybridCounts { shots },
        ),
        JobRequest::hybrid(shape.clone(), vec![0.3], JobSpec::HybridCounts { shots }),
        JobRequest::hybrid(
            shape.clone(),
            good_points[1].clone(),
            JobSpec::HybridCounts { shots },
        ),
        JobRequest::new(
            qaoa_circuit(&graph, 1),
            vec![0.3, 0.2],
            JobSpec::HybridCounts { shots },
        ),
        JobRequest::hybrid(
            shape.clone(),
            good_points[2].clone(),
            JobSpec::HybridCounts { shots },
        ),
        JobRequest::hybrid(
            shape.clone(),
            hybrid_point(&shape, 3),
            JobSpec::HybridExpectation {
                // An 8-qubit observable against a 6-qubit program.
                observable: cost_hamiltonian(&hgp_graph::generators::random_regular(8, 3, 1)),
            },
        ),
        // (e) zero shots — fails at validation before any execution.
        JobRequest::hybrid(
            shape.clone(),
            hybrid_point(&shape, 4),
            JobSpec::HybridCounts { shots: 0 },
        ),
    ];
    let results = daemon.run_batch(requests).expect("admitted");
    assert_eq!(results.len(), 8);

    // The poisoned jobs carry typed errors at the right stages...
    let err = |i: usize| results[i].error().unwrap_or_else(|| panic!("job {i}"));
    assert_eq!(err(0).stage, JobStage::Compile);
    assert!(err(0).message.contains("multiple of 32"), "{}", err(0));
    assert_eq!(err(2).stage, JobStage::Validate);
    assert!(err(2).message.contains("parameter"), "{}", err(2));
    assert_eq!(err(4).stage, JobStage::Validate);
    assert_eq!(err(7).stage, JobStage::Validate);
    assert!(err(7).message.contains("shot"), "{}", err(7));
    assert_eq!(daemon.metrics().jobs_failed, 5);

    // ...while the good jobs completed normally. Note: failed jobs
    // consume stream positions, so the good jobs' seeds differ from the
    // clean batch — compare against hand-driven runs at their *actual*
    // stream positions instead.
    let model = HybridModel::with_options(
        &backend,
        shape.graph(),
        1,
        LAYOUT6.to_vec(),
        shape.options(),
    )
    .unwrap();
    let exec = model.compiled().executor(&backend);
    for (slot, x) in [(1usize, 0usize), (3, 1), (5, 2)] {
        let expected = model.interpret_counts(&exec.sample(
            &model.build(&good_points[x]),
            shots,
            stream_seed(base_seed, slot as u64),
        ));
        match results[slot].unwrap_output() {
            JobOutput::Counts(counts) => assert_eq!(counts, &expected, "slot {slot}"),
            other => panic!("expected counts, got {other:?}"),
        }
    }
    // And the pool itself survived unharmed: the same daemon serves the
    // good jobs again, at the next stream positions.
    let after = daemon
        .run_batch(
            good_points
                .iter()
                .map(|x| {
                    JobRequest::hybrid(shape.clone(), x.clone(), JobSpec::HybridCounts { shots })
                })
                .collect(),
        )
        .expect("admitted");
    assert_eq!(after.len(), 3);
    assert!(after.iter().all(|r| r.output.is_ok()));
    assert_eq!(after[0].id.0, 8);
}

#[test]
fn two_stage_hybrid_training_runs_through_the_daemon() {
    // The paper's coarse-gate / fine-pulse-trim protocol with the serve
    // layer as the evaluation engine: every objective probe is a served
    // HybridExpectation job riding one compiled hybrid program.
    let backend = Backend::ibmq_toronto();
    let shape = shape6(1);
    let observable = cost_hamiltonian(shape.graph());
    let c_max: f64 = (0..1u32 << 6)
        .map(|b| observable.eval_diagonal(b as usize))
        .fold(f64::MIN, f64::max);
    let daemon = daemon(&backend, 1, 42);

    let mut objective = |xs: &[Vec<f64>]| -> Vec<f64> {
        daemon
            .hybrid_expectation_batch(&shape, &observable, xs, Priority::Batch)
            .into_iter()
            .map(|v| -v / c_max)
            .collect()
    };
    // Candidate starts from the model's own initialization protocol.
    let model = HybridModel::with_options(
        &backend,
        shape.graph(),
        1,
        LAYOUT6.to_vec(),
        shape.options(),
    )
    .unwrap();
    let candidates = model.initial_param_candidates();
    let coarse = shape.coarse_param_ids();
    let result = minimize_two_stage(&mut objective, &candidates, Some(&coarse), 30);

    // Noisy p=1 QAOA on ibmq_toronto converges near 0.59 expected-AR;
    // the bar checks the optimizer actually climbed well above the
    // random-cut floor (0.5) through served evaluations.
    let ar = -result.fun;
    assert!(ar > 0.55, "daemon-trained hybrid AR = {ar}");
    assert!(result.n_evals > 20);
    // Every probe rode one compiled shape: one miss on the first
    // probe, hits ever after.
    let metrics = daemon.metrics();
    assert_eq!(metrics.cache_misses, 1);
    assert_eq!(metrics.jobs_failed, 0);
    assert_eq!(metrics.jobs_completed as usize, result.n_evals);
}
