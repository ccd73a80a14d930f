//! Criterion benchmarks of the op-fused trajectory replay subsystem.
//!
//! These back the acceptance bar recorded in `BENCH_replay.json`:
//!
//! - **per-shot replay vs the reference engine**: a 12-qubit noisy QAOA
//!   expectation from 256 stochastic trajectories, run (a) on the
//!   compiled [`ReplayProgram`] tape via [`ReplayEngine`] and (b) on the
//!   recorded [`TrajectoryProgram`] via the reference
//!   [`TrajectoryEngine`]. Both paths are pinned bit-identical by
//!   `crates/sim/tests/replay_parity.rs`; the replay path must be
//!   **>= 3x** faster per shot (it removes per-shot statevector
//!   allocation, per-op matrix derivation, the generic branch-weight
//!   block machinery, and the per-shot re-evaluation of the diagonal
//!   observable),
//! - **batched vs scalar at the served width**: the 16-qubit, 8-shot
//!   trajectory job the serving benchmark's `serve_traj_wide` workload
//!   runs (guadalupe `0..16`), where the shot-block policy decides
//!   whether the batched path fills its lanes,
//! - **template bind vs the full schedule walk**: the per-dispatch cost
//!   of producing an executable replay tape from a parameter binding —
//!   `CompiledCircuit::bind_replay` (clone the compile-time tape,
//!   substitute the parametric slots) vs bind + ASAP walk + tape
//!   compile (the path it replaces, ~0.5 ms/job of pure re-derivation).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hgp_core::compile::CircuitCompiler;
use hgp_core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hgp_device::Backend;
use hgp_graph::generators;
use hgp_math::pauli::PauliSum;
use hgp_sim::{ReplayEngine, ReplayProgram, TrajectoryEngine};

/// A 12-qubit path in `ibmq_guadalupe`'s heavy-hex coupling map (the
/// same region the noise benches compile into).
const LAYOUT_12Q: [usize; 12] = [0, 1, 2, 3, 5, 8, 11, 14, 13, 12, 10, 7];

const SHOTS: usize = 256;
const PARAMS: [f64; 2] = [0.35, 0.25];

/// 256 trajectories of the noisy 12q QAOA layer on the compiled replay
/// tape (template-bound outside the loop — the serving hot path).
fn bench_replay_per_shot(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let graph = generators::random_regular(12, 3, 7);
    let compiled = CircuitCompiler::new(&backend, LAYOUT_12Q.to_vec())
        .compile(&qaoa_circuit(&graph, 1))
        .expect("12q shape compiles");
    let exec = compiled.executor(&backend);
    let obs = compiled.wire_observable(&cost_hamiltonian(&graph));
    let replay = compiled.bind_replay(&exec, &PARAMS);
    // A single 256-shot run takes seconds at 12 qubits; a local
    // small-sample Criterion bounds the bench's wall clock (the group's
    // shared config cannot shrink per target).
    let mut slow = Criterion::default().sample_size(5);
    slow.bench_function("replay_expectation_12q_256shots", |b| {
        b.iter(|| ReplayEngine::new(SHOTS, 11).expectation(black_box(&replay), &obs))
    });
    let _ = c;
}

/// The same 256 trajectories through the batched SoA shot-block path —
/// bit-identical to the scalar replay loop (pinned by
/// `crates/sim/tests/replay_batch_parity.rs`), amortizing tape decode,
/// matrix loads, and channel-table reads across the resident shots of
/// each block. Compare per shot with the scalar
/// `replay_expectation_12q_256shots` entry. Also emits the
/// machine metadata line (`meta:replay`) the checked-in baseline's
/// `host`/`workload` fields are filled from.
fn bench_replay_batched_per_shot(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let graph = generators::random_regular(12, 3, 7);
    let compiled = CircuitCompiler::new(&backend, LAYOUT_12Q.to_vec())
        .compile(&qaoa_circuit(&graph, 1))
        .expect("12q shape compiles");
    let exec = compiled.executor(&backend);
    let obs = compiled.wire_observable(&cost_hamiltonian(&graph));
    let replay = compiled.bind_replay(&exec, &PARAMS);
    let engine = ReplayEngine::new(SHOTS, 11);
    hgp_bench::emit_bench_meta("meta:replay", engine.block_size_for(&replay));
    // More samples than the scalar entry: the batched path's shorter
    // iterations leave its median more exposed to scheduler noise on
    // shared hosts, and the derived speedup divides by this median.
    let mut slow = Criterion::default().sample_size(9);
    slow.bench_function("replay_batched_expectation_12q_256shots", |b| {
        b.iter(|| engine.expectation_batched(black_box(&replay), &obs))
    });
    let _ = c;
}

const SHOTS_16Q: usize = 8;

/// The served wide shape: noisy 16q QAOA (`random_regular(16, 3, 1)`)
/// compiled onto guadalupe qubits `0..16`, template-bound.
fn wide_replay() -> (ReplayProgram, PauliSum) {
    let backend = Backend::ibmq_guadalupe();
    let graph = generators::random_regular(16, 3, 1);
    let compiled = CircuitCompiler::new(&backend, (0..16).collect())
        .compile(&qaoa_circuit(&graph, 1))
        .expect("16q shape compiles");
    let exec = compiled.executor(&backend);
    let obs = compiled.wire_observable(&cost_hamiltonian(&graph));
    (compiled.bind_replay(&exec, &PARAMS), obs)
}

/// 8 trajectories of the 16q job on the scalar replay loop.
fn bench_replay_16q(c: &mut Criterion) {
    let (replay, obs) = wide_replay();
    let mut slow = Criterion::default().sample_size(5);
    slow.bench_function("replay_expectation_16q_8shots", |b| {
        b.iter(|| ReplayEngine::new(SHOTS_16Q, 11).expectation(black_box(&replay), &obs))
    });
    let _ = c;
}

/// The same 8 trajectories through the batched path, in the blocks the
/// default policy picks (one 8-shot block). Emits
/// its own `meta:replay` line with that block size.
fn bench_replay_batched_16q(c: &mut Criterion) {
    let (replay, obs) = wide_replay();
    let engine = ReplayEngine::new(SHOTS_16Q, 11);
    hgp_bench::emit_bench_meta("meta:replay_16q", engine.block_size_for(&replay));
    let mut slow = Criterion::default().sample_size(5);
    slow.bench_function("replay_batched_expectation_16q_8shots", |b| {
        b.iter(|| engine.expectation_batched(black_box(&replay), &obs))
    });
    let _ = c;
}

/// The same 256 trajectories on the recorded program via the reference
/// engine — the per-shot path replay replaces (bit-identical results).
fn bench_trajectory_per_shot(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let graph = generators::random_regular(12, 3, 7);
    let compiled = CircuitCompiler::new(&backend, LAYOUT_12Q.to_vec())
        .compile(&qaoa_circuit(&graph, 1))
        .expect("12q shape compiles");
    let exec = compiled.executor(&backend);
    let obs = compiled.wire_observable(&cost_hamiltonian(&graph));
    let recorded = exec.trajectory_program(&compiled.bind(&PARAMS));
    let mut slow = Criterion::default().sample_size(3);
    slow.bench_function("trajectory_expectation_12q_256shots", |b| {
        b.iter(|| TrajectoryEngine::new(SHOTS, 11).expectation(black_box(&recorded), &obs))
    });
    let _ = c;
}

/// Producing an executable tape per dispatch: template substitution vs
/// the full bind + schedule walk + tape compile it replaces.
fn bench_bind_paths(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let graph = generators::random_regular(12, 3, 7);
    let compiled = CircuitCompiler::new(&backend, LAYOUT_12Q.to_vec())
        .compile(&qaoa_circuit(&graph, 1))
        .expect("12q shape compiles");
    let exec = compiled.executor(&backend);
    c.bench_function("replay_template_bind_12q", |b| {
        b.iter(|| compiled.bind_replay(&exec, black_box(&PARAMS)))
    });
    c.bench_function("replay_schedule_walk_12q", |b| {
        b.iter(|| {
            ReplayProgram::compile(&exec.trajectory_program(&compiled.bind(black_box(&PARAMS))))
        })
    });
}

criterion_group!(
    replay,
    bench_replay_per_shot,
    bench_replay_batched_per_shot,
    bench_replay_16q,
    bench_replay_batched_16q,
    bench_trajectory_per_shot,
    bench_bind_paths
);
criterion_main!(replay);
