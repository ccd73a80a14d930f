//! Criterion benchmarks of the op-fused trajectory replay subsystem.
//!
//! These back the numbers recorded in `BENCH_replay.json`:
//!
//! - **replay vs the reference engine at both served widths**: a noisy
//!   QAOA expectation run (a) on the compiled [`ReplayProgram`] tape via
//!   [`ReplayEngine`] and (b) on the recorded [`TrajectoryProgram`] via
//!   the reference [`TrajectoryEngine`], at 12 qubits with 256
//!   trajectories and at the 16-qubit, 8-trajectory job the serving
//!   benchmark's `serve_traj_wide` workload runs (guadalupe `0..16`),
//!   where the shot-block policy decides whether the replay fills its
//!   lanes. Both paths are pinned bit-identical by
//!   `crates/sim/tests/replay_parity.rs`; the replay removes per-shot
//!   statevector allocation, per-op matrix derivation, the generic
//!   branch-weight block machinery, and the per-shot re-evaluation of
//!   the diagonal observable, and sweeps each op over a block of shots
//!   at once,
//!   Each replay entry is followed by its per-op-kind profile
//!   (`profile:<id>`, the split `exact_replay_cell_6q` prints for the
//!   exact tape), the numbers the lane-tier table in
//!   `BENCH_replay.json` records per tier,
//! - **the served 1-shot block**: the 16-qubit shape's warm-up job (one
//!   trajectory, so one 1-shot block — the first job every trajectory
//!   shape serves, and the block small ensembles run in), with its
//!   profile;
//! - **per-shot cost by block size**: `replay_block_sizes` runs the 12q
//!   and 16q shapes as one block of `S` shots for `S` = 1, 2, 4, 8, 16,
//!   32 and 64 and prints one `block_size:` line per run with the per-shot
//!   time (min of its repetitions) and the per-op-kind mean µs per call
//!   — the `block_sizes` table of `BENCH_replay.json`;
//! - **template bind vs the full schedule walk**: the per-dispatch cost
//!   of producing an executable replay tape from a parameter binding —
//!   `CompiledCircuit::bind_replay` (clone the compile-time tape,
//!   substitute the parametric slots) vs bind + ASAP walk + tape
//!   compile (the path it replaces, ~0.5 ms/job of pure re-derivation).
//!
//! `cargo bench -p hgp_bench --bench replay -- replay_batched` runs only
//! the replay entries (skipping the multi-second reference runs);
//! `HGP_REPLAY_LANES` picks the lane tier they dispatch to.
//!
//! [`TrajectoryProgram`]: hgp_sim::TrajectoryProgram

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hgp_core::compile::{CircuitCompiler, CompiledCircuit};
use hgp_core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hgp_device::Backend;
use hgp_graph::generators;
use hgp_math::pauli::PauliSum;
use hgp_sim::{NoProfile, OpProfile, ReplayEngine, ReplayProgram, TrajectoryEngine};

/// A 12-qubit path in `ibmq_guadalupe`'s heavy-hex coupling map (the
/// same region the noise benches compile into).
const LAYOUT_12Q: [usize; 12] = [0, 1, 2, 3, 5, 8, 11, 14, 13, 12, 10, 7];

const SHOTS: usize = 256;
const SHOTS_16Q: usize = 8;
const PARAMS: [f64; 2] = [0.35, 0.25];

/// A noisy QAOA shape compiled onto `backend`: its compiled circuit and
/// wire observable.
fn compiled_shape(
    backend: &Backend,
    n_qubits: usize,
    graph_seed: u64,
    layout: Vec<usize>,
) -> (CompiledCircuit, PauliSum) {
    let graph = generators::random_regular(n_qubits, 3, graph_seed);
    let compiled = CircuitCompiler::new(backend, layout)
        .compile(&qaoa_circuit(&graph, 1))
        .expect("shape compiles");
    let obs = compiled.wire_observable(&cost_hamiltonian(&graph));
    (compiled, obs)
}

/// The 12q shape: `random_regular(12, 3, 7)` on [`LAYOUT_12Q`].
fn narrow_shape(backend: &Backend) -> (CompiledCircuit, PauliSum) {
    compiled_shape(backend, 12, 7, LAYOUT_12Q.to_vec())
}

/// The served wide shape: `random_regular(16, 3, 1)` on guadalupe
/// qubits `0..16`.
fn wide_shape(backend: &Backend) -> (CompiledCircuit, PauliSum) {
    compiled_shape(backend, 16, 1, (0..16).collect())
}

/// Ensemble runs profiled after a replay entry's timing.
const PROFILE_RUNS: u64 = 3;

/// Emits `engine`'s per-op-kind profile of `replay` over
/// [`PROFILE_RUNS`] ensembles as a `profile:<id>` line, with the
/// profile counted per shot block (the unit the tape replays in).
fn emit_replay_profile(id: &str, engine: &ReplayEngine, replay: &ReplayProgram, obs: &PauliSum) {
    let profile = OpProfile::new();
    for _ in 0..PROFILE_RUNS {
        engine.expectation_with_error(replay, obs, &profile);
    }
    let blocks = engine.shot_blocks(replay).count() as u64;
    hgp_bench::emit_profile_line(
        id,
        PROFILE_RUNS * blocks,
        replay.n_ops(),
        replay.n_channels(),
        &profile.snapshot(),
    );
}

/// 256 trajectories of the noisy 12q QAOA layer on the compiled replay
/// tape (template-bound outside the loop — the serving hot path), in
/// the blocks the default policy picks, then its per-op-kind profile.
/// Also emits the machine metadata line (`meta:replay`) the checked-in
/// baseline's `host`/`workload` fields are filled from.
fn bench_replay_12q(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let (compiled, obs) = narrow_shape(&backend);
    let exec = compiled.executor(&backend);
    let replay = compiled.bind_replay(&exec, &PARAMS);
    let engine = ReplayEngine::new(SHOTS, 11);
    hgp_bench::emit_bench_meta("meta:replay", engine.block_size_for(&replay));
    // A single 256-shot run takes most of a second at 12 qubits; a
    // local small-sample Criterion bounds the bench's wall clock (the
    // group's shared config cannot shrink per target).
    let mut slow = Criterion::default().sample_size(9);
    slow.bench_function("replay_batched_expectation_12q_256shots", |b| {
        b.iter(|| engine.expectation_with_error(black_box(&replay), &obs, &NoProfile));
        // After the timing, and only when a filter keeps this entry.
        emit_replay_profile(
            "replay_batched_expectation_12q_256shots",
            &engine,
            &replay,
            &obs,
        );
    });
    let _ = c;
}

/// The same 256 trajectories on the recorded program via the reference
/// engine — the per-shot path replay replaces (bit-identical results).
fn bench_trajectory_12q(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let (compiled, obs) = narrow_shape(&backend);
    let exec = compiled.executor(&backend);
    let recorded = exec.trajectory_program(&compiled.bind(&PARAMS));
    let mut slow = Criterion::default().sample_size(3);
    slow.bench_function("trajectory_expectation_12q_256shots", |b| {
        b.iter(|| TrajectoryEngine::new(SHOTS, 11).expectation(black_box(&recorded), &obs))
    });
    let _ = c;
}

/// 8 trajectories of the served 16q job on the replay tape, in the
/// blocks the default policy picks (one 8-shot block), then its
/// per-op-kind profile. Emits its own `meta:replay_16q` line with that
/// block size.
fn bench_replay_16q(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let (compiled, obs) = wide_shape(&backend);
    let exec = compiled.executor(&backend);
    let replay = compiled.bind_replay(&exec, &PARAMS);
    let engine = ReplayEngine::new(SHOTS_16Q, 11);
    hgp_bench::emit_bench_meta("meta:replay_16q", engine.block_size_for(&replay));
    let mut slow = Criterion::default().sample_size(5);
    slow.bench_function("replay_batched_expectation_16q_8shots", |b| {
        b.iter(|| engine.expectation_with_error(black_box(&replay), &obs, &NoProfile));
        // After the timing, and only when a filter keeps this entry.
        emit_replay_profile(
            "replay_batched_expectation_16q_8shots",
            &engine,
            &replay,
            &obs,
        );
    });
    let _ = c;
}

/// The served 16q shape's warm-up job: one trajectory, one 1-shot
/// block, then its per-op-kind profile.
fn bench_replay_16q_1shot(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let (compiled, obs) = wide_shape(&backend);
    let exec = compiled.executor(&backend);
    let replay = compiled.bind_replay(&exec, &PARAMS);
    let engine = ReplayEngine::new(1, 11);
    let mut slow = Criterion::default().sample_size(9);
    slow.bench_function("replay_batched_expectation_16q_1shot", |b| {
        b.iter(|| engine.expectation_with_error(black_box(&replay), &obs, &NoProfile));
        // After the timing, and only when a filter keeps this entry.
        emit_replay_profile(
            "replay_batched_expectation_16q_1shot",
            &engine,
            &replay,
            &obs,
        );
    });
    let _ = c;
}

/// Block sizes of the per-shot table.
const BLOCK_SIZES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Timed repetitions per block size (the line reports their minimum).
const BLOCK_REPS: usize = 3;

/// Each served shape as one block of `S` shots for every `S` in
/// [`BLOCK_SIZES`]: per-shot wall time (min of [`BLOCK_REPS`] runs) and
/// the per-op-kind mean µs per call of one profiled run, one
/// `block_size:` line each. Runs only when a filter names it
/// (`-- replay_block_sizes`): it takes about a minute.
fn bench_block_sizes(c: &mut Criterion) {
    if !std::env::args().any(|a| a == "replay_block_sizes") {
        return;
    }
    let backend = Backend::ibmq_guadalupe();
    for (width, (compiled, obs)) in [(12, narrow_shape(&backend)), (16, wide_shape(&backend))] {
        let exec = compiled.executor(&backend);
        let replay = compiled.bind_replay(&exec, &PARAMS);
        for s in BLOCK_SIZES {
            let engine = ReplayEngine::new(s, 11).with_block_size(s);
            let best = (0..BLOCK_REPS)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    black_box(engine.expectation_with_error(&replay, &obs, &NoProfile));
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            let profile = OpProfile::new();
            engine.expectation_with_error(&replay, &obs, &profile);
            let snap = profile.snapshot();
            let kinds: Vec<String> = hgp_sim::ReplayOpKind::ALL
                .into_iter()
                .filter(|k| snap.calls[k.index()] > 0)
                .map(|k| {
                    let us = snap.ns[k.index()] as f64 / snap.calls[k.index()] as f64 / 1e3;
                    format!("\"{}_us\":{us:.1}", k.name())
                })
                .collect();
            hgp_bench::emit_bench_line(&format!(
                "block_size: {{\"qubits\":{width},\"shots_per_block\":{s},\"lanes\":\"{}\",\"ms_per_shot\":{:.2},{}}}",
                hgp_sim::replay::lane_tier(),
                best * 1e3 / s as f64,
                kinds.join(",")
            ));
        }
    }
    let _ = c;
}

/// The same 8 trajectories of the 16q job through the reference
/// engine on the recorded program.
fn bench_trajectory_16q(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let (compiled, obs) = wide_shape(&backend);
    let exec = compiled.executor(&backend);
    let recorded = exec.trajectory_program(&compiled.bind(&PARAMS));
    let mut slow = Criterion::default().sample_size(3);
    slow.bench_function("trajectory_expectation_16q_8shots", |b| {
        b.iter(|| TrajectoryEngine::new(SHOTS_16Q, 11).expectation(black_box(&recorded), &obs))
    });
    let _ = c;
}

/// Producing an executable tape per dispatch: template substitution vs
/// the full bind + schedule walk + tape compile it replaces.
fn bench_bind_paths(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let (compiled, _) = narrow_shape(&backend);
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
    bench_replay_12q,
    bench_trajectory_12q,
    bench_replay_16q,
    bench_replay_16q_1shot,
    bench_trajectory_16q,
    bench_block_sizes,
    bench_bind_paths
);
criterion_main!(replay);
