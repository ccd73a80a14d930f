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
//! expectations and sampled counts must match bit for bit. It then
//! times the served 12-qubit shape's tape in 1-shot and in 8-shot
//! blocks on one thread and fails if a 1-shot block costs more than
//! three times the 8-shot block per shot (an in-run ratio, so host
//! speed cancels; row-wise narrow kernels read 3.7–4.8x): narrow
//! blocks are the first job of every served shape, so a kernel that
//! only runs fast on full vectors must fail a check. The ratio is
//! gated on the default lane tier only; under an `HGP_REPLAY_LANES`
//! override it is printed, not gated (AVX-512's wider vectors speed
//! the 8-shot block but not the 1-shot block's serial reductions). CI
//! runs this after compiling the benches.

use std::time::Instant;

use hybrid_gate_pulse::core::compile::{CircuitCompiler, HybridShape};
use hybrid_gate_pulse::core::models::{GateModelOptions, HybridModel, VqaModel};
use hybrid_gate_pulse::core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::{generators, instances};
use hybrid_gate_pulse::serve::{Daemon, DaemonConfig, JobOutput, JobRequest, JobSpec};
use hybrid_gate_pulse::sim::seed::stream_seed;
use hybrid_gate_pulse::sim::{NoProfile, ReplayBatch, ReplayEngine, TrajectoryEngine};

/// Highest allowed ratio of a 1-shot block's per-shot replay time to an
/// 8-shot block's on the 12-qubit served shape.
const NARROW_BLOCK_MAX_RATIO: f64 = 3.0;

/// Timed passes per block size in the narrow-block check.
const ROUNDS: usize = 9;

/// Per-shot replay time of the served 12-qubit trajectory shape
/// (`random_regular(12, 3, 1)`, p = 1, on the guadalupe path the
/// serving benchmark uses) in 1-shot and in 8-shot blocks: the best of
/// [`ROUNDS`] alternating passes over the same eight seeds, each block size
/// driving one [`ReplayBatch`] arena directly on this thread, so
/// neither the rayon fan-out nor per-ensemble set-up enters the ratio.
fn narrow_block_ratio() -> (f64, f64) {
    let backend = Backend::ibmq_guadalupe();
    let graph = generators::random_regular(12, 3, 1);
    let layout = vec![0, 1, 2, 3, 5, 8, 11, 14, 13, 12, 10, 7];
    let compiled = CircuitCompiler::new(&backend, layout)
        .compile(&qaoa_circuit(&graph, 1))
        .expect("shape compiles");
    let exec = compiled.executor(&backend);
    let replay = compiled.bind_replay(&exec, &[0.35, 0.25]);
    let seeds: Vec<u64> = (0..8).map(|i| stream_seed(7, i)).collect();
    let mut batches = [1, 8].map(|block| ReplayBatch::for_program(&replay, block));
    let mut best = [f64::INFINITY; 2];
    for _ in 0..ROUNDS {
        for (batch, best) in batches.iter_mut().zip(best.iter_mut()) {
            let t0 = Instant::now();
            for chunk in seeds.chunks(batch.n_shots()) {
                batch.run(&replay, chunk, &NoProfile);
            }
            *best = best.min(t0.elapsed().as_secs_f64() / seeds.len() as f64);
        }
    }
    (best[0], best[1])
}

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

    let (narrow, wide) = narrow_block_ratio();
    let ratio = narrow / wide;
    println!(
        "smoke: 12q per-shot replay {:.2} ms in 1-shot blocks, {:.2} ms in 8-shot blocks ({ratio:.2}x)",
        narrow * 1e3,
        wide * 1e3
    );
    if std::env::var_os("HGP_REPLAY_LANES").is_some() {
        println!("smoke: lane tier overridden, narrow-block ratio not gated");
        return;
    }
    assert!(
        ratio <= NARROW_BLOCK_MAX_RATIO,
        "1-shot blocks cost {ratio:.2}x the 8-shot block per shot (limit {NARROW_BLOCK_MAX_RATIO}x)"
    );
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
