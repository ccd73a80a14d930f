//! Criterion throughput benchmarks of the serving layer.
//!
//! These back the serve-layer acceptance bar recorded in
//! `BENCH_serve.json`: serving N repeated-shape QAOA jobs through
//! `hgp_serve` with a warm compiled-program cache must be **>= 2x
//! faster** than N naive transpile+bind+run calls, with bit-identical
//! results (pinned by `crates/serve/tests/service_integration.rs`).
//!
//! The naive path is exactly the per-job work a cache-less caller pays:
//! cancellation + SABRE placement + routing (the *shape* work) repeated
//! for every parameter point, then binding and execution. The served
//! path pays the shape work once and streams bindings through the
//! daemon's worker pool.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hgp_circuit::Circuit;
use hgp_core::compile::CircuitCompiler;
use hgp_core::qaoa::qaoa_circuit;
use hgp_device::Backend;
use hgp_graph::instances;
use hgp_serve::{Daemon, DaemonConfig, JobRequest, JobSpec};
use hgp_sim::{SimBackend, StateVector};

const N_JOBS: usize = 32;

fn parameter_points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![0.05 + 0.02 * i as f64, 0.30 - 0.005 * i as f64])
        .collect()
}

fn shape() -> (Backend, Circuit, Vec<usize>) {
    let backend = Backend::ibmq_guadalupe();
    let circuit = qaoa_circuit(&instances::task1_three_regular_6(), 1);
    (backend, circuit, vec![0, 1, 2, 3, 4, 5])
}

/// N parameter points, each paying the full transpile+bind+run cost.
fn bench_naive_32x(c: &mut Criterion) {
    let (backend, circuit, layout) = shape();
    let points = parameter_points(N_JOBS);
    c.bench_function("serve_naive_transpile_run_32x_qaoa6", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for params in &points {
                let compiler = CircuitCompiler::new(&backend, layout.clone());
                let compiled = compiler.compile(black_box(&circuit)).expect("fits");
                let wire = StateVector::execute(&compiled.circuit().bind(params)).expect("bound");
                acc += compiled.decode_probabilities(&wire.probabilities())[0];
            }
            acc
        })
    });
}

/// The same N points served as one batch against a warm cache.
fn bench_served_32x(c: &mut Criterion) {
    let (backend, circuit, layout) = shape();
    let points = parameter_points(N_JOBS);
    let daemon = Daemon::start(backend, DaemonConfig::new(layout));
    // Warm the cache: the steady-state serving regime is what's measured.
    daemon
        .run_batch(vec![JobRequest::new(
            circuit.clone(),
            points[0].clone(),
            JobSpec::StateVector,
        )])
        .expect("admitted");
    c.bench_function("serve_cached_batch_32x_qaoa6", |b| {
        b.iter(|| {
            let requests: Vec<JobRequest> = points
                .iter()
                .map(|x| {
                    JobRequest::new(black_box(&circuit).clone(), x.clone(), JobSpec::StateVector)
                })
                .collect();
            daemon.run_batch(requests).expect("admitted")
        })
    });
}

/// Single-job dispatch latency against a warm cache (admission, queue
/// hand-off to a worker, hash lookup, bind, execute, decode, delivery).
fn bench_served_singleton(c: &mut Criterion) {
    let (backend, circuit, layout) = shape();
    let daemon = Daemon::start(backend, DaemonConfig::new(layout).with_workers(1));
    let request = || {
        JobRequest::new(
            black_box(&circuit).clone(),
            vec![0.3, 0.2],
            JobSpec::StateVector,
        )
    };
    daemon.run_batch(vec![request()]).expect("admitted");
    c.bench_function("serve_cached_single_job_qaoa6", |b| {
        b.iter(|| daemon.run_batch(vec![request()]).expect("admitted"))
    });
}

/// The amortized cost: one shape compilation (what every cache hit
/// saves).
fn bench_compile_once(c: &mut Criterion) {
    let (backend, circuit, layout) = shape();
    let compiler = CircuitCompiler::new(&backend, layout);
    c.bench_function("serve_compile_shape_qaoa6", |b| {
        b.iter(|| compiler.compile(black_box(&circuit)).expect("fits"))
    });
}

criterion_group!(
    serve,
    bench_naive_32x,
    bench_served_32x,
    bench_served_singleton,
    bench_compile_once
);
criterion_main!(serve);
