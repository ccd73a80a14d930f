//! Trajectory serving on the replay path: repeated-shape hybrid jobs
//! riding one compile-time schedule template.
//!
//! A training loop evaluates one hybrid shape at hundreds of parameter
//! points. Before the replay subsystem, every trajectory job paid a
//! fresh ASAP schedule walk (rebuilding every channel's Kraus matrices)
//! plus per-shot statevector allocation and matrix dispatch. Now the
//! schedule is recorded **once per shape** (lazily, when its first
//! trajectory job binds); each dispatch
//! substitutes only its bound-`gamma` diagonals and mixer pulse blocks
//! into the cached tape (`bind_replay`), and the shots replay on the
//! op-fused engine — bit-identical to the reference trajectory engine.
//!
//! The example drives the full stack and verifies the serving
//! contracts as it goes:
//!
//! - a repeated-shape `HybridTrajectoryExpectation` sweep: one shape
//!   compiled (at most once per worker) for the whole workload,
//! - the stage-split metrics: trajectory-heavy batches show execute
//!   time dominating bind time — they no longer masquerade as compile
//!   misses,
//! - seed replay: a served job reproduced bit-for-bit from its recorded
//!   seed through the hand-driven reference engine,
//! - a shots/sec throughput report.
//!
//! ```text
//! cargo run --release --example replay_throughput
//! ```
//!
//! With `--smoke`, the example instead runs a quick bit-parity gate:
//! the template-bound replay tape against the reference
//! `TrajectoryEngine` on the recorded schedule of the same hybrid
//! binding, across block splits that cover single-shot blocks,
//! non-dividing sizes, and blocks larger than the ensemble —
//! expectations and sampled counts must match bit for bit. CI runs this
//! after compiling the benches, so the acceptance contract is exercised
//! on every push even though timing assertions are not.

use hybrid_gate_pulse::core::compile::HybridShape;
use hybrid_gate_pulse::core::models::{GateModelOptions, HybridModel, VqaModel};
use hybrid_gate_pulse::core::qaoa::cost_hamiltonian;
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::instances;
use hybrid_gate_pulse::serve::{Daemon, DaemonConfig, JobOutput, JobRequest, JobSpec};
use hybrid_gate_pulse::sim::seed::stream_seed;
use hybrid_gate_pulse::sim::{NoProfile, ReplayEngine, TrajectoryEngine};

/// Replay-vs-reference bit parity on the served hybrid shape: every
/// listed block split must reproduce the reference engine's
/// expectations and counts on the recorded schedule exactly.
fn smoke() {
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    let layout = vec![1, 2, 3, 4, 5, 7];
    let shape = HybridShape::new(graph.clone(), 1).with_options(GateModelOptions::optimized());
    let observable = cost_hamiltonian(&graph);
    let model = HybridModel::with_options(&backend, &graph, 1, layout, shape.options())
        .expect("connected region");
    let exec = model.compiled().executor(&backend);
    let wire_obs = model.compiled().wire_observable(&observable);
    let mut x = vec![0.35, 0.55];
    x.extend(std::iter::repeat_n(0.0, 12));
    let replay = model.compiled().bind_replay(&exec, &x);
    let recorded = exec.trajectory_program(&model.build(&x));

    // An odd, non-power-of-two ensemble, so most splits leave a ragged
    // final block.
    let shots = 37;
    let reference = TrajectoryEngine::new(shots, 0xC0FFEE);
    let expectations = reference.expectations(&recorded, &wire_obs);
    let counts = reference.sample_counts(&recorded);
    let engine = ReplayEngine::new(shots, 0xC0FFEE);
    for block in [1usize, 3, 7, 16, 37, 64] {
        let split = engine.with_block_size(block);
        let got = split.expectations(&replay, &wire_obs, &NoProfile);
        assert_eq!(expectations.len(), got.len());
        for (s, (a, b)) in expectations.iter().zip(got.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "shot {s} diverged at block size {block}"
            );
        }
        assert_eq!(
            counts,
            split.sample_counts_with(&replay, |bits, _| bits, &NoProfile),
            "counts diverged at block size {block}"
        );
    }
    println!("smoke: replay bit-identical to the reference TrajectoryEngine across block splits");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    let layout = vec![1, 2, 3, 4, 5, 7];
    let shape = HybridShape::new(graph.clone(), 1).with_options(GateModelOptions::optimized());
    let observable = cost_hamiltonian(&graph);
    let trajectories = 512;
    let base_seed = 42;

    let daemon = Daemon::start(
        backend.clone(),
        DaemonConfig::new(layout.clone()).with_base_seed(base_seed),
    );
    let workers = daemon.config().service.workers;
    println!(
        "daemon: {workers} workers | shape: 6q hybrid QAOA p=1 | {trajectories} trajectories/job"
    );

    // A (gamma, theta) sweep with fixed pulse trims: 36 jobs, ONE shape.
    let points: Vec<Vec<f64>> = (0..6)
        .flat_map(|i| {
            (0..6).map(move |j| {
                let mut x = vec![0.10 + 0.10 * i as f64, 0.30 + 0.12 * j as f64];
                x.extend(std::iter::repeat_n(0.0, 12));
                x
            })
        })
        .collect();
    let jobs: Vec<JobRequest> = points
        .iter()
        .map(|x| {
            JobRequest::hybrid(
                shape.clone(),
                x.clone(),
                JobSpec::HybridTrajectoryExpectation {
                    observable: observable.clone(),
                    trajectories,
                },
            )
        })
        .collect();
    let results = daemon.run_batch(jobs).expect("admitted");

    // One shape served the whole sweep. Workers compile on a miss
    // outside the cache lock, so the first pops may each compile it —
    // never more than once per worker.
    let m = daemon.metrics();
    assert!(m.cache_misses as usize <= workers, "one shape");
    assert_eq!(m.jobs_failed, 0);
    let best = results
        .iter()
        .map(|r| match r.unwrap_output() {
            JobOutput::Expectation { value } => *value,
            JobOutput::TrajectoryExpectation { value, .. } => *value,
            other => panic!("unexpected output {other:?}"),
        })
        .fold(f64::MIN, f64::max);
    println!("sweep: {} jobs, best <H_P> = {best:.4}", results.len());

    // A second batch rides the cached shape: no new compile, and the
    // bind stage stays a sliver of the execute stage.
    let again = daemon
        .run_batch(
            points[..8]
                .iter()
                .map(|x| {
                    JobRequest::hybrid(
                        shape.clone(),
                        x.clone(),
                        JobSpec::HybridTrajectoryCounts { shots: 256 },
                    )
                })
                .collect(),
        )
        .expect("admitted");
    assert!(
        again.iter().all(|r| r.cache_hit),
        "second batch rides cache"
    );
    let m = daemon.metrics();
    assert!(
        m.exec_hist.sum() > m.bind_hist.sum(),
        "execution dominates binding"
    );

    // Seed replay: job 3 of the sweep, reproduced bit-for-bit by the
    // hand-driven *reference* engine (TrajectoryEngine over the recorded
    // schedule) at the seed the daemon assigned. The served value came
    // off the replay tape — the two paths are pinned bit-identical.
    let replay_index = 3usize;
    let served = match results[replay_index].unwrap_output() {
        JobOutput::TrajectoryExpectation { value, .. } => *value,
        other => panic!("unexpected output {other:?}"),
    };
    let model = HybridModel::with_options(&backend, &graph, 1, layout, shape.options())
        .expect("connected region");
    let exec = model.compiled().executor(&backend);
    let recorded = exec.trajectory_program(&model.build(&points[replay_index]));
    let reference =
        TrajectoryEngine::new(trajectories, stream_seed(base_seed, replay_index as u64))
            .expectation_with_error(&recorded, &model.compiled().wire_observable(&observable));
    assert_eq!(
        served.to_bits(),
        reference.0.to_bits(),
        "served replay-path job replays bit-for-bit on the reference engine"
    );
    println!("seed replay: job {replay_index} reproduced bit-for-bit ({served:.6})");

    // Throughput: every served trajectory is one measurement shot.
    let total_shots = results.len() * trajectories + again.len() * 256;
    let shots_per_sec = total_shots as f64 * 1e9 / m.wall_ns as f64;
    println!(
        "throughput: {total_shots} shots in {:.2} s = {:.0} shots/s",
        m.wall_ns as f64 / 1e9,
        shots_per_sec
    );
    println!("stages: {m}");
}
