//! Criterion throughput benchmarks of hybrid gate-pulse serving.
//!
//! These back the hybrid-serving acceptance bar recorded in
//! `BENCH_hybrid.json`: a repeated-shape hybrid QAOA counts sweep served
//! through `hgp_serve` (one compiled shape, trajectory sampling) must be
//! **>= 2x faster** than the pre-serving hybrid path — naive per-job
//! compilation (`HybridModel` construction: per-layer Hamiltonian
//! routing, SABRE placement, mixer pulse calibration, noise model)
//! followed by a one-off exact density walk per evaluation, which is
//! what every hybrid evaluation paid before hybrid programs joined the
//! compiled/served/trajectory stack.
//!
//! Both paths produce noisy measurement counts under the same
//! calibrated noise model; the served trajectory counts are pinned
//! bit-identical to sequential `Executor::sample_trajectories` runs and
//! statistically convergent to the exact walk by
//! `crates/serve/tests/hybrid_serving.rs` (and the recorded schedule
//! itself replays the exact walk bit-for-bit —
//! `hgp_core::executor` tests). The compile/bind microbenches expose
//! the amortization split: shape work once, `O(gates + qubits)` binding
//! per dispatch.
//!
//! The gap widens fast with width (the density walk is `O(4^n)` per
//! instruction, a trajectory shot `O(2^n)`): see `BENCH_noise.json` for
//! the 12-qubit trajectory-vs-density ratio (242x).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hgp_core::compile::{CircuitCompiler, HybridShape};
use hgp_core::models::{GateModelOptions, HybridModel, VqaModel};
use hgp_device::Backend;
use hgp_graph::instances;
use hgp_serve::{Daemon, DaemonConfig, JobRequest, JobSpec};

const N_JOBS: usize = 24;
const SHOTS: usize = 64;
const LAYOUT6: [usize; 6] = [1, 2, 3, 4, 5, 7];

fn shape() -> (Backend, HybridShape) {
    let backend = Backend::ibmq_toronto();
    let shape = HybridShape::new(instances::task1_three_regular_6(), 1)
        .with_options(GateModelOptions::optimized());
    (backend, shape)
}

/// Full hybrid parameter points (`[gamma, theta, phase/freq trims]`),
/// deterministic in the point index.
fn parameter_points(shape: &HybridShape, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let mut x = Vec::with_capacity(shape.n_params());
            for _layer in 0..shape.p() {
                x.push(0.05 + 0.02 * i as f64);
                x.push(0.60 - 0.005 * i as f64);
                for q in 0..shape.n_qubits() {
                    x.push(0.01 * q as f64);
                    x.push(0.02 * i as f64 / n as f64);
                }
            }
            x
        })
        .collect()
}

/// The pre-serving hybrid path: every parameter point pays a fresh
/// model compilation and a one-off `O(4^n)` exact density walk before
/// sampling its counts.
fn bench_naive_density_24x(c: &mut Criterion) {
    let (backend, shape) = shape();
    let points = parameter_points(&shape, N_JOBS);
    c.bench_function("hybrid_naive_compile_density_24x_qaoa6", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (i, params) in points.iter().enumerate() {
                let model = HybridModel::with_options(
                    &backend,
                    black_box(shape.graph()),
                    shape.p(),
                    LAYOUT6.to_vec(),
                    shape.options(),
                )
                .expect("connected region");
                let exec = model.compiled().executor(&backend);
                let program = model.build(params);
                // The reference walk, named explicitly: `Executor::sample`
                // replays the compiled exact tape instead.
                let rho = exec.run(&program);
                let counts = model.interpret_counts(&exec.sample_state(&rho, SHOTS, i as u64));
                acc += counts.total();
            }
            acc
        })
    });
}

/// The same sweep served: one compiled hybrid shape (warm cache),
/// `O(2^n)`-per-shot trajectory sampling through the daemon's worker
/// pool.
fn bench_served_trajectory_24x(c: &mut Criterion) {
    let (backend, shape) = shape();
    let points = parameter_points(&shape, N_JOBS);
    let daemon = Daemon::start(backend, DaemonConfig::new(LAYOUT6.to_vec()));
    // Warm the cache: the steady-state serving regime is what's measured.
    daemon
        .run_batch(vec![JobRequest::hybrid(
            shape.clone(),
            points[0].clone(),
            JobSpec::HybridTrajectoryCounts { shots: SHOTS },
        )])
        .expect("admitted");
    c.bench_function("hybrid_served_trajectory_batch_24x_qaoa6", |b| {
        b.iter(|| {
            let requests: Vec<JobRequest> = points
                .iter()
                .map(|x| {
                    JobRequest::hybrid(
                        black_box(&shape).clone(),
                        x.clone(),
                        JobSpec::HybridTrajectoryCounts { shots: SHOTS },
                    )
                })
                .collect();
            daemon.run_batch(requests).expect("admitted")
        })
    });
}

/// The amortized cost: one hybrid shape compilation (what every cache
/// hit saves).
fn bench_compile_hybrid_once(c: &mut Criterion) {
    let (backend, shape) = shape();
    let compiler = CircuitCompiler::new(&backend, LAYOUT6.to_vec());
    c.bench_function("hybrid_compile_shape_qaoa6", |b| {
        b.iter(|| {
            compiler
                .compile_hybrid(black_box(&shape))
                .expect("compiles")
        })
    });
}

/// The per-dispatch cost the compiled artifact leaves behind: binding a
/// parameter vector (gate `gamma` substitution + mixer pulse
/// integration).
fn bench_bind_once(c: &mut Criterion) {
    let (backend, shape) = shape();
    let compiled = CircuitCompiler::new(&backend, LAYOUT6.to_vec())
        .compile_hybrid(&shape)
        .expect("compiles");
    let params = parameter_points(&shape, 1).pop().expect("one point");
    c.bench_function("hybrid_bind_point_qaoa6", |b| {
        b.iter(|| compiled.bind(black_box(&params)))
    });
}

criterion_group!(
    hybrid,
    bench_naive_density_24x,
    bench_served_trajectory_24x,
    bench_compile_hybrid_once,
    bench_bind_once
);
criterion_main!(hybrid);
