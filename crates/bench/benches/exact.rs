//! Criterion benchmarks of the exact-path superoperator replay
//! subsystem.
//!
//! These back the acceptance bar recorded in `BENCH_exact.json`:
//!
//! - **per-dispatch exact expectation: replay vs the reference walk** —
//!   a 10-qubit noisy QAOA cost expectation computed (a) through the
//!   serving hot path, `CompiledCircuit::bind_exact` (template
//!   substitution into the precompiled superoperator tape) +
//!   [`Executor::run_exact_replay`], and (b) through the interpreted
//!   reference walk it replaces, `bind` + [`Executor::run`] (schedule
//!   walk re-deriving matrices and re-resolving channels per op, with
//!   per-Kraus density-matrix clones). Parity is pinned by
//!   `crates/sim/tests/exact_replay_parity.rs` and the template tests
//!   in `crates/core`; the replay path must be **>= 3x** faster per
//!   dispatch,
//! - **template bind vs the full schedule walk** — producing an
//!   executable exact tape from a parameter binding:
//!   `CompiledCircuit::bind_exact` vs bind + ASAP walk + tape compile
//!   (`Executor::exact_replay_program`),
//! - **the Table II cell's replays** (`exact_replay_cell_6q` for the gate
//!   model, `exact_replay_cell_6q_hybrid` for the hybrid model) — the
//!   tapes every training evaluation of the guadalupe CVaR cell replays,
//!   each timed alone and followed by its per-op-kind profile, the split
//!   the plane sweeps are judged by.
//!
//! `cargo bench -p hgp_bench --bench exact -- <filter>` runs only the
//! entries whose id contains `<filter>` (`cell` skips the ~25 s/sample
//! 10q reference walk); `HGP_REPLAY_LANES` picks the lane tier the
//! replays dispatch to.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hgp_bench::region_for;
use hgp_core::compile::CircuitCompiler;
use hgp_core::executor::Executor;
use hgp_core::models::{GateModel, GateModelOptions, HybridModel, VqaModel};
use hgp_core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hgp_device::Backend;
use hgp_graph::{generators, instances};
use hgp_sim::{OpProfile, SimBackend};

/// A 10-qubit path in `ibmq_guadalupe`'s heavy-hex coupling map (the
/// prefix of the 12q region the replay benches use).
const LAYOUT_10Q: [usize; 10] = [0, 1, 2, 3, 5, 8, 11, 14, 13, 12];

const PARAMS: [f64; 2] = [0.35, 0.25];

/// One served exact dispatch on the replay path: template-bind the
/// angles into the precompiled tape, replay it over the scratch arena,
/// contract the cost observable.
fn bench_exact_replay_dispatch(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let graph = generators::random_regular(10, 3, 7);
    let compiled = CircuitCompiler::new(&backend, LAYOUT_10Q.to_vec())
        .compile(&qaoa_circuit(&graph, 1))
        .expect("10q shape compiles");
    let exec = compiled.executor(&backend);
    let obs = compiled.wire_observable(&cost_hamiltonian(&graph));
    hgp_bench::emit_bench_meta("meta:exact", 0);
    let mut slow = Criterion::default().sample_size(10);
    slow.bench_function("exact_replay_expectation_10q", |b| {
        b.iter(|| {
            let tape = compiled.bind_exact(&exec, black_box(&PARAMS));
            let rho = exec.run_exact_replay(&tape);
            SimBackend::expectation(&rho, &obs)
        })
    });
    let _ = c;
}

/// The same dispatch on the interpreted reference walk the tape
/// replaces (results pinned within 1e-12 elementwise).
fn bench_exact_walk_dispatch(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let graph = generators::random_regular(10, 3, 7);
    let compiled = CircuitCompiler::new(&backend, LAYOUT_10Q.to_vec())
        .compile(&qaoa_circuit(&graph, 1))
        .expect("10q shape compiles");
    let exec = compiled.executor(&backend);
    let obs = compiled.wire_observable(&cost_hamiltonian(&graph));
    let mut slow = Criterion::default().sample_size(10);
    slow.bench_function("exact_walk_expectation_10q", |b| {
        b.iter(|| {
            let rho = exec.run(&compiled.bind(black_box(&PARAMS)));
            SimBackend::expectation(&rho, &obs)
        })
    });
    let _ = c;
}

/// Producing an executable exact tape per dispatch: template
/// substitution vs the full bind + schedule walk + tape compile it
/// replaces.
fn bench_exact_bind_paths(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let graph = generators::random_regular(10, 3, 7);
    let compiled = CircuitCompiler::new(&backend, LAYOUT_10Q.to_vec())
        .compile(&qaoa_circuit(&graph, 1))
        .expect("10q shape compiles");
    let exec = compiled.executor(&backend);
    c.bench_function("exact_template_bind_10q", |b| {
        b.iter(|| compiled.bind_exact(&exec, black_box(&PARAMS)))
    });
    c.bench_function("exact_schedule_walk_10q", |b| {
        b.iter(|| exec.exact_replay_program(&compiled.bind(black_box(&PARAMS))))
    });
}

/// Replays profiled after the timing, for the per-op-kind split.
const PROFILE_REPLAYS: u64 = 200;

/// The Table II CVaR cell's exact tapes (`ibmq_guadalupe`, gate-level
/// optimizations, bound at the first COBYLA candidate — the model's
/// initial parameters) replayed as every training evaluation replays
/// them, then profiled per op kind: the gate model's tape
/// (`exact_replay_cell_6q`) and the hybrid model's
/// (`exact_replay_cell_6q_hybrid`, pulse unitaries in place of the
/// mixer gates). The two models split the cell's trainings evenly.
fn bench_exact_replay_cell(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let region = region_for(&backend, 6);
    let options = GateModelOptions::optimized();
    let gate = GateModel::new(&backend, &graph, 1, region.clone(), options).expect("region");
    let hybrid = HybridModel::with_options(&backend, &graph, 1, region, options).expect("region");
    bench_cell_tape(c, "exact_replay_cell_6q", &gate);
    bench_cell_tape(c, "exact_replay_cell_6q_hybrid", &hybrid);
}

/// Times one model's cell tape and emits its `profile:<id>` line to
/// stdout and to the JSONL sink beside the timing.
fn bench_cell_tape(c: &mut Criterion, id: &str, model: &dyn VqaModel) {
    let exec = Executor::new(model.backend(), model.layout().to_vec());
    let tape = exec.exact_replay_program(&model.build(&model.initial_params()));
    c.bench_function(id, |b| b.iter(|| exec.run_exact_replay(black_box(&tape))));
    let profile = OpProfile::new();
    for _ in 0..PROFILE_REPLAYS {
        exec.run_exact_replay_profiled(&tape, &profile);
    }
    hgp_bench::emit_profile_line(
        id,
        PROFILE_REPLAYS,
        tape.n_ops(),
        tape.n_channels(),
        &profile.snapshot(),
    );
}

criterion_group!(
    exact,
    bench_exact_replay_cell,
    bench_exact_replay_dispatch,
    bench_exact_walk_dispatch,
    bench_exact_bind_paths
);
criterion_main!(exact);
