//! Hybrid gate-pulse programs served end to end.
//!
//! Demonstrates the hybrid serving path introduced with the
//! `CompiledProgram` artifact:
//!
//! 1. a repeated-shape hybrid QAOA sweep rides **one** compiled shape
//!    (per-layer routing + SABRE + mixer pulse calibration run once;
//!    every dispatch only binds angles and trims),
//! 2. exact (`HybridExpectation`) and stochastic-trajectory
//!    (`HybridTrajectoryExpectation`) jobs answer from the same cached
//!    artifact, and the trajectory estimate converges to the exact one,
//! 3. a malformed pulse schedule (mixer duration that is not a multiple
//!    of 32 dt) fails **its own job** with a typed compile-stage error —
//!    the rest of the batch is unaffected and the worker pool survives,
//! 4. a served job replays bit-for-bit from its recorded seed.
//!
//! Run with: `cargo run --release --example serve_hybrid`

use hybrid_gate_pulse::core::compile::HybridShape;
use hybrid_gate_pulse::core::models::{GateModelOptions, HybridModel, VqaModel};
use hybrid_gate_pulse::core::qaoa::cost_hamiltonian;
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::instances;
use hybrid_gate_pulse::serve::{
    Daemon, DaemonConfig, JobOutput, JobRequest, JobResult, JobSpec, JobStage,
};

/// Serves one job (a group of one) and waits for its result.
fn run_one(daemon: &Daemon, request: JobRequest) -> JobResult {
    daemon.run_batch(vec![request]).expect("admitted").remove(0)
}

fn main() {
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    let shape = HybridShape::new(graph.clone(), 1).with_options(GateModelOptions::optimized());
    let observable = cost_hamiltonian(&graph);
    let layout = vec![1, 2, 3, 4, 5, 7];
    let daemon = Daemon::start(
        backend.clone(),
        DaemonConfig::new(layout.clone()).with_workers(4),
    );

    // A coarse (gamma, theta) grid; pulse trims start at zero. The model
    // supplies the parameter layout.
    let model = HybridModel::with_options(&backend, &graph, 1, layout, shape.options())
        .expect("connected region");
    let grid: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            let mut x = model.initial_params();
            x[0] = 0.10 + 0.05 * f64::from(i % 4);
            x[1] = 0.40 + 0.15 * f64::from(i / 4);
            x
        })
        .collect();

    // 1. The sweep: one hybrid shape, many bindings.
    let requests: Vec<JobRequest> = grid
        .iter()
        .map(|x| {
            JobRequest::hybrid(
                shape.clone(),
                x.clone(),
                JobSpec::HybridExpectation {
                    observable: observable.clone(),
                },
            )
        })
        .collect();
    let results = daemon.run_batch(requests).expect("admitted");
    // Workers compile on a miss outside the cache lock, so the first
    // pops may each compile the shape — never more than once per worker.
    let misses = daemon.metrics().cache_misses;
    assert!((1..=4).contains(&misses), "one shape compiled");
    let c_max: f64 = (0..1 << 6)
        .map(|b| observable.eval_diagonal(b))
        .fold(f64::MIN, f64::max);
    let (best_idx, best) = results
        .iter()
        .enumerate()
        .map(|(i, r)| match r.unwrap_output() {
            JobOutput::Expectation { value } => (i, *value),
            other => panic!("expected expectation, got {other:?}"),
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty grid");
    println!(
        "12-point hybrid sweep rode 1 shape ({misses} compile(s)); best noisy AR {:.3} at grid point {best_idx}",
        best / c_max
    );

    // 2. The trajectory estimate of the winning point converges to the
    // exact served value.
    let trajectory = run_one(
        &daemon,
        JobRequest::hybrid(
            shape.clone(),
            grid[best_idx].clone(),
            JobSpec::HybridTrajectoryExpectation {
                observable: observable.clone(),
                trajectories: 2048,
            },
        ),
    );
    assert!(trajectory.cache_hit, "same shape, warm cache");
    let JobOutput::TrajectoryExpectation {
        value, std_error, ..
    } = trajectory.unwrap_output()
    else {
        panic!("expected trajectory expectation");
    };
    assert!(
        (value - best).abs() < 5.0 * std_error.max(1e-3),
        "trajectory {value} vs exact {best}"
    );
    println!(
        "trajectory estimate {value:.4} +- {std_error:.4} brackets the exact {best:.4} (O(2^n)/shot instead of O(4^n))",
    );

    // 3. A poisoned batch: the malformed pulse schedule fails alone.
    let poisoned = daemon
        .run_batch(vec![
            JobRequest::hybrid(
                shape.clone().with_mixer_duration(100), // not a multiple of 32 dt
                grid[0].clone(),
                JobSpec::HybridCounts { shots: 256 },
            ),
            JobRequest::hybrid(
                shape.clone(),
                grid[0].clone(),
                JobSpec::HybridCounts { shots: 256 },
            ),
        ])
        .expect("admitted");
    let error = poisoned[0].error().expect("malformed schedule fails");
    assert_eq!(error.stage, JobStage::Compile);
    assert!(poisoned[1].output.is_ok(), "good job unaffected");
    println!("poisoned job failed alone ({error}); its batchmate completed normally");

    // 4. Replay the good counts job from its recorded seed:
    // bit-identical, whatever worker it lands on.
    let replay = run_one(
        &daemon,
        JobRequest::hybrid(
            shape.clone(),
            grid[0].clone(),
            JobSpec::HybridCounts { shots: 256 },
        )
        .with_seed(poisoned[1].seed),
    );
    assert_eq!(replay.output, poisoned[1].output);
    println!(
        "replay with recorded seed {}: bit-identical | {}",
        replay.seed,
        daemon.metrics()
    );
}
