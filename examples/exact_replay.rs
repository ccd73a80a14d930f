//! Exact-path serving on the superoperator replay tape: repeated-shape
//! density-matrix jobs riding one precompiled tape.
//!
//! Exact job kinds (`DensityMatrix`, `Counts`, `Expectation` and their
//! hybrid twins) used to re-walk the ASAP schedule per dispatch —
//! re-deriving every gate matrix, re-resolving every channel's Kraus
//! operators, and cloning the density matrix once per Kraus term. Now
//! the schedule compiles **once per shape** into an
//! `ExactReplayProgram`: maximal diagonal runs fused into one
//! elementwise sweep, dense gates held as resolved matrices, channels
//! precompiled into superoperators or Kraus blocks. Each dispatch
//! substitutes its bound angles into the cached tape (`bind_exact`) and
//! replays it over a scratch arena.
//!
//! The example drives the serving stack and verifies the contracts as
//! it goes:
//!
//! - a repeated-shape `Expectation` sweep: one cache miss (and one
//!   template recording) for the whole workload,
//! - the stage-split metrics: exact jobs record a nonzero template-bind
//!   time, separate from replay execution,
//! - a served value reproduced bit-for-bit by the hand-driven exact
//!   replay composition,
//! - a per-dispatch timing report: tape replay vs the interpreted
//!   reference walk it replaces.
//!
//! ```text
//! cargo run --release --example exact_replay
//! ```
//!
//! With `--smoke`, the example instead runs a quick parity gate: the
//! template-bound tape against the walk-compiled tape (bit-identical)
//! and against the interpreted reference walk (<= 1e-12 elementwise,
//! unit trace) across several parameter bindings. CI runs this on every
//! push, so the acceptance contract is exercised even though timing
//! assertions are not.

use std::time::Instant;

use hybrid_gate_pulse::core::compile::CircuitCompiler;
use hybrid_gate_pulse::core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::instances;
use hybrid_gate_pulse::serve::{Daemon, DaemonConfig, JobOutput, JobRequest, JobSpec};
use hybrid_gate_pulse::sim::SimBackend;

/// Template-bind vs walk-compile vs reference-walk parity on the served
/// shape: the two tape routes must agree bit for bit, and both must sit
/// within 1e-12 of the interpreted walk.
fn smoke() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let compiled = CircuitCompiler::new(&backend, vec![0, 1, 2, 3, 4, 5])
        .compile(&qaoa_circuit(&graph, 1))
        .expect("connected layout");
    let exec = compiled.executor(&backend);
    for (k, params) in [[0.35, 0.25], [0.10, 0.55], [-1.2, 0.8]].iter().enumerate() {
        let by_template = exec.run_exact_replay(&compiled.bind_exact(&exec, params));
        let by_walk = exec.run_exact_replay(&exec.exact_replay_program(&compiled.bind(params)));
        assert_eq!(
            by_template, by_walk,
            "binding {k}: template tape diverged from the walk-compiled tape"
        );
        let reference = exec.run(&compiled.bind(params));
        let dim = reference.dim();
        for i in 0..dim {
            for j in 0..dim {
                let d = (by_template.get(i, j) - reference.get(i, j)).norm();
                assert!(
                    d <= 1e-12,
                    "binding {k}: rho[{i},{j}] off the reference walk by {d:e}"
                );
            }
        }
        assert!((by_template.trace() - 1.0).abs() <= 1e-12, "unit trace");
    }
    println!("smoke: exact tape pinned to the reference walk across bindings");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let observable = cost_hamiltonian(&graph);
    let layout = vec![0, 1, 2, 3, 4, 5];

    // One worker pins the compile count exactly: concurrent workers may
    // each compile a shape on their first miss.
    let daemon = Daemon::start(
        backend.clone(),
        DaemonConfig::new(layout.clone()).with_workers(1),
    );
    println!(
        "daemon: {} worker | shape: 6q noisy QAOA p=1 | exact density-matrix jobs",
        daemon.config().service.workers
    );

    // A (gamma, beta) sweep: 36 exact expectation jobs, ONE shape.
    let points: Vec<Vec<f64>> = (0..6)
        .flat_map(|i| (0..6).map(move |j| vec![0.10 + 0.10 * i as f64, 0.30 + 0.12 * j as f64]))
        .collect();
    let jobs: Vec<JobRequest> = points
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
    let results = daemon.run_batch(jobs).expect("admitted");

    // One compile (and one recorded exact template) served the sweep.
    let m = daemon.metrics();
    assert_eq!(m.cache_misses, 1, "one shape, one compile");
    assert_eq!(m.jobs_failed, 0);
    let best = results
        .iter()
        .map(|r| match r.unwrap_output() {
            JobOutput::Expectation { value } => *value,
            other => panic!("unexpected output {other:?}"),
        })
        .fold(f64::MIN, f64::max);
    println!("sweep: {} jobs, best <H_P> = {best:.4}", results.len());

    // Exact jobs split their time into template bind + tape replay.
    assert!(m.bind_hist.sum() > 0, "exact jobs time the template bind");
    assert!(
        m.exec_hist.sum() > m.bind_hist.sum(),
        "replay dominates binding"
    );
    println!("stages: {m}");

    // A served value reproduced bit-for-bit by the hand-driven exact
    // replay composition.
    let check_index = 7usize;
    let served = match results[check_index].unwrap_output() {
        JobOutput::Expectation { value } => *value,
        other => panic!("unexpected output {other:?}"),
    };
    let compiled = CircuitCompiler::new(&backend, layout)
        .compile(&circuit)
        .expect("connected layout");
    let exec = compiled.executor(&backend);
    let rho = exec.run_exact_replay(&compiled.bind_exact(&exec, &points[check_index]));
    let reference = SimBackend::expectation(&rho, &compiled.wire_observable(&observable));
    assert_eq!(
        served.to_bits(),
        reference.to_bits(),
        "served exact job replays bit-for-bit"
    );
    println!("replay check: job {check_index} reproduced bit-for-bit ({served:.6})");

    // Per-dispatch cost: tape replay vs the interpreted walk it
    // replaces (same state within 1e-12; see the smoke gate).
    let reps = 10;
    let t0 = Instant::now();
    for x in points.iter().take(reps) {
        let rho = exec.run_exact_replay(&compiled.bind_exact(&exec, x));
        std::hint::black_box(SimBackend::expectation(
            &rho,
            &compiled.wire_observable(&observable),
        ));
    }
    let replay_ns = t0.elapsed().as_nanos() / reps as u128;
    let t0 = Instant::now();
    for x in points.iter().take(reps) {
        let rho = exec.run(&compiled.bind(x));
        std::hint::black_box(SimBackend::expectation(
            &rho,
            &compiled.wire_observable(&observable),
        ));
    }
    let walk_ns = t0.elapsed().as_nanos() / reps as u128;
    println!(
        "per-dispatch: replay {:.1} us vs walk {:.1} us ({:.1}x)",
        replay_ns as f64 / 1e3,
        walk_ns as f64 / 1e3,
        walk_ns as f64 / replay_ns as f64
    );
}
