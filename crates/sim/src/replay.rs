//! Op-fused trajectory replay: the zero-dispatch execution layer.
//!
//! [`crate::TrajectoryProgram`] is the *recording* of a noisy schedule —
//! readable, generic, and paying per-shot costs it does not need to pay:
//! every trajectory re-allocates its statevector, re-derives each gate's
//! matrix and diagonal, re-walks each mixed channel's probability list,
//! and drives general-channel branch weights through the generic
//! `branch_weight` block machinery (per-call index vectors, per-base bit
//! spreading). At 6–12 qubits those constant factors — not flops —
//! dominate the per-shot cost.
//!
//! [`ReplayProgram`] compiles the recording once into a flat op tape:
//!
//! - maximal runs of consecutive diagonal gates are fused into single
//!   blocked sweeps over the amplitudes (bit-exact to gate-at-a-time
//!   application, unlike the broadcast-folding `apply_diag_fused`),
//! - dense gates and fixed unitaries carry their resolved matrices, so
//!   the hot loop never calls `Gate::matrix()`,
//! - channels are precompiled into sampling tables: cumulative branch
//!   probabilities for mixed-unitary channels (with the identity-branch
//!   skip), single-qubit weight rows with their sparsity pattern
//!   resolved (thermal relaxation's four-operator shape as its own
//!   kernel instantiation) and precomputed block offsets for general
//!   channels (with the `K_0`-identity skip),
//!
//! and [`ReplayEngine`] replays the tape over blocks of shots held in
//! per-worker [`ReplayBatch`] arenas — the per-shot work performs **zero
//! allocation and zero matrix dispatch** (the one exception: operators
//! wider than two qubits fall back to the generic embed path, which no
//! recorded schedule in this workspace produces).
//!
//! # One tape, two kinds
//!
//! The exact density-matrix walk compiles the same way into an
//! [`ExactReplayProgram`] superoperator tape (fused elementwise
//! diagonal-run sweeps, resolved dense conjugations, channels collapsed
//! into superoperators or blockwise Kraus passes) that
//! [`ExactReplayEngine`] replays without per-dispatch interpretation —
//! pinned against the `apply_exact` walk, which stays the reference.
//! Both are one [`Tape`] over a [`TapeKind`]: the front end — diagonal
//! fusion, the [`ReplaySlot`] map schedule templates bind through, and
//! slot substitution — is written once, and the kind
//! ([`TrajectoryKind`], [`ExactKind`]) supplies only what differs: how a
//! dense entry is built and re-bound, and how a channel compiles. The
//! trajectory kind and its batched engine live in `replay/batch.rs`, the
//! exact kind, its sweeps and their parity contract in
//! `replay/exact.rs`.
//!
//! # Shot blocks
//!
//! The engine runs the tape *op-major*: a [`ReplayBatch`] holds a block
//! of shots in one structure-of-arrays arena, and each tape entry sweeps
//! every resident shot before the next is decoded, so each amplitude
//! row's fixed cost (slicing, index surgery, shape branches) is paid
//! once for `S` lanes of arithmetic. Blocks are therefore sized to fill
//! the lanes, not to fit a cache: up to 64 shots within 32 MiB of arena.
//! [`ReplayEngine::shot_blocks`] is the partition — deterministic
//! boundaries, independent of the worker count — and the blocks fan out
//! over the shared rayon pool. The engine has one entry point per output
//! shape: per-shot values ([`ReplayEngine::expectations`]), mean and
//! standard error ([`ReplayEngine::expectation_with_error`]), and counts
//! ([`ReplayEngine::sample_counts_with`]). Each takes a [`ProfileSink`];
//! [`crate::NoProfile`] compiles to the bare loop. `replay/batch.rs`'s
//! module docs cover the layout and divergence-masking design.
//!
//! # The bit-parity contract
//!
//! The replay engine is an *optimization*, not a new semantics:
//! [`crate::TrajectoryEngine`] remains the reference implementation, and
//! for every program, observable, seed, block size, and worker count
//! the replay path produces **bit-identical** results — same
//! [`crate::seed::stream_seed`]/SplitMix64 seed stream, same RNG draw
//! sequence, same branch choices, same floating-point operations in the
//! same order for each shot. Property tests in
//! `crates/sim/tests/replay_parity.rs` pin this across random programs,
//! ensemble sizes, and block splits; the serve-layer suites pin it end
//! to end.
//!
//! # Example
//!
//! ```
//! use hgp_circuit::Gate;
//! use hgp_math::pauli::{Pauli, PauliString, PauliSum};
//! use hgp_sim::{NoProfile, ReplayEngine, ReplayProgram, TrajectoryEngine, TrajectoryProgram};
//!
//! let mut program = TrajectoryProgram::new(2);
//! program.push_gate(Gate::H, &[0]);
//! program.push_gate(Gate::CX, &[0, 1]);
//! let replay = ReplayProgram::compile(&program);
//!
//! let zz = PauliSum::from_terms(vec![PauliString::new(
//!     2,
//!     vec![(0, Pauli::Z), (1, Pauli::Z)],
//!     1.0,
//! )]);
//! let (fast, _) = ReplayEngine::new(64, 7).expectation_with_error(&replay, &zz, &NoProfile);
//! let reference = TrajectoryEngine::new(64, 7).expectation(&program, &zz);
//! assert_eq!(fast.to_bits(), reference.to_bits());
//! ```

use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use rayon::prelude::*;

use hgp_math::pauli::PauliSum;
use hgp_math::Matrix;
use hgp_obs::profile::ProfileSink;

use crate::counts::Counts;
use crate::kernels::DiagOp;
use crate::seed::{mix64, stream_seed};
use crate::trajectory::{ChannelOp, TrajectoryOp, TrajectoryProgram};

mod batch;
mod exact;
pub(crate) mod lanes;

pub use batch::{ReplayBatch, TrajectoryKind};
pub use exact::{ExactKind, ExactReplayEngine};
pub use lanes::lane_tier;

/// What one engine's tape holds that the other's does not: its dense
/// entry (a gate or fixed unitary with the matrix resolved at compile
/// time) and its compiled channel. [`Tape`] owns everything else.
/// Implemented by [`TrajectoryKind`] and [`ExactKind`].
pub trait TapeKind {
    /// A dense operator application.
    type Dense: Clone + Debug;
    /// A precompiled noise channel.
    type Channel: Debug;

    /// The entry applying `matrix` to `targets` (`targets[0]` = the
    /// operator's most-significant bit).
    fn dense(matrix: Matrix, targets: &[usize]) -> Self::Dense;

    /// Re-binds `dense` to `matrix`; its targets, and everything
    /// derived from them, are shape-constant and stay.
    ///
    /// # Panics
    ///
    /// Panics if the dimension disagrees with the recorded targets.
    fn rebind(dense: &mut Self::Dense, matrix: &Matrix);

    /// Compiles `channel` acting on `targets`.
    fn channel(channel: &ChannelOp, targets: &[usize]) -> Self::Channel;
}

/// One instruction of a compiled tape.
#[derive(Debug, Clone)]
enum TapeOp<D> {
    /// A fused run of consecutive diagonal gates: one sweep over
    /// `diag[start..start + len]`.
    DiagRun {
        /// First op in the diagonal arena.
        start: usize,
        /// Run length.
        len: usize,
    },
    /// A dense operator application.
    Apply(D),
    /// A precompiled noise channel (index into the channel table).
    Channel(usize),
}

/// Where a trajectory op landed in the compiled tape — the handle
/// schedule templates use to substitute parametric entries per dispatch
/// without recompiling the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySlot {
    /// An entry of the fused diagonal arena.
    Diag(usize),
    /// A dense entry of the tape.
    Op(usize),
    /// A precompiled channel (not substitutable — channel structure is
    /// shape-constant).
    Channel(usize),
}

/// A flat, precompiled tape of a recorded [`TrajectoryProgram`], for
/// the engine of kind `K`. See the module docs.
#[derive(Debug)]
pub struct Tape<K: TapeKind> {
    n_qubits: usize,
    ops: Vec<TapeOp<K::Dense>>,
    /// Arena of fused diagonal ops, referenced by `TapeOp::DiagRun`.
    diag: Vec<DiagOp>,
    /// Compiled channels, shared (never parametric) across template
    /// binds, which clone the tape and substitute only its parametric
    /// slots.
    channels: Arc<Vec<K::Channel>>,
}

impl<K: TapeKind> Clone for Tape<K> {
    /// Copies the ops and the diagonal arena; the channel table is
    /// shared.
    fn clone(&self) -> Self {
        Self {
            n_qubits: self.n_qubits,
            ops: self.ops.clone(),
            diag: self.diag.clone(),
            channels: Arc::clone(&self.channels),
        }
    }
}

/// The trajectory tape [`ReplayEngine`] runs.
pub type ReplayProgram = Tape<TrajectoryKind>;

/// The superoperator tape [`ExactReplayEngine`] runs.
pub type ExactReplayProgram = Tape<ExactKind>;

impl<K: TapeKind> Tape<K> {
    /// Compiles a recorded trajectory program into a tape.
    pub fn compile(program: &TrajectoryProgram) -> Self {
        Self::compile_with_slots(program).0
    }

    /// [`Tape::compile`] returning, for each trajectory op, the tape
    /// slot it compiled into (in trajectory-op order) — the
    /// substitution map schedule templates are built from.
    pub fn compile_with_slots(program: &TrajectoryProgram) -> (Self, Vec<ReplaySlot>) {
        let mut ops = Vec::new();
        let mut diag: Vec<DiagOp> = Vec::new();
        let mut channels = Vec::new();
        let mut slots: Vec<ReplaySlot> = Vec::with_capacity(program.ops().len());
        let mut run_open = false;
        for op in program.ops() {
            match op {
                TrajectoryOp::Gate { gate, qubits } => {
                    // Mirror the backends' `apply_gate` dispatch rule:
                    // diagonal gates take the phase-only path,
                    // everything else the dense kernels.
                    if let Some(d) = DiagOp::from_gate(gate, qubits) {
                        slots.push(ReplaySlot::Diag(diag.len()));
                        if run_open {
                            match ops.last_mut() {
                                Some(TapeOp::DiagRun { len, .. }) => *len += 1,
                                _ => unreachable!("open run is the last op"),
                            }
                        } else {
                            ops.push(TapeOp::DiagRun {
                                start: diag.len(),
                                len: 1,
                            });
                            run_open = true;
                        }
                        diag.push(d);
                        continue;
                    }
                    run_open = false;
                    slots.push(ReplaySlot::Op(ops.len()));
                    let matrix = gate.matrix().expect("trajectory programs are bound");
                    ops.push(TapeOp::Apply(K::dense(matrix, qubits)));
                }
                TrajectoryOp::Unitary { matrix, targets } => {
                    run_open = false;
                    slots.push(ReplaySlot::Op(ops.len()));
                    ops.push(TapeOp::Apply(K::dense(matrix.clone(), targets)));
                }
                TrajectoryOp::Channel { channel, targets } => {
                    run_open = false;
                    slots.push(ReplaySlot::Channel(channels.len()));
                    ops.push(TapeOp::Channel(channels.len()));
                    channels.push(K::channel(channel, targets));
                }
            }
        }
        (
            Self {
                n_qubits: program.n_qubits(),
                ops,
                diag,
                channels: Arc::new(channels),
            },
            slots,
        )
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Tape length (fused diagonal runs count as one op).
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of precompiled channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of fused diagonal entries.
    pub fn n_diag_ops(&self) -> usize {
        self.diag.len()
    }

    /// Overwrites a diagonal slot with a re-bound diagonal op — the
    /// template substitution step for bound-angle `RZ`/`RZZ`/`CZ`
    /// entries. The new op must target the same qubits the recorded op
    /// targeted (templates guarantee this by construction).
    ///
    /// # Panics
    ///
    /// Panics if the slot does not point into the diagonal arena.
    pub fn substitute_diag(&mut self, slot: ReplaySlot, d: DiagOp) {
        match slot {
            ReplaySlot::Diag(i) => self.diag[i] = d,
            other => panic!("slot {other:?} is not a diagonal entry"),
        }
    }

    /// Overwrites a dense slot's matrix — the template substitution step
    /// for re-integrated pulse unitaries and re-bound dense gates.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not a dense op or the dimension disagrees
    /// with the recorded targets.
    pub fn substitute_unitary(&mut self, slot: ReplaySlot, m: &Matrix) {
        match slot {
            ReplaySlot::Op(i) => match &mut self.ops[i] {
                TapeOp::Apply(dense) => K::rebind(dense, m),
                other => panic!("slot points at {other:?}, not a dense op"),
            },
            other => panic!("slot {other:?} is not a dense op"),
        }
    }
}

/// Runs trajectory ensembles over a compiled replay tape — the drop-in,
/// bit-identical fast path for [`crate::TrajectoryEngine`]. Same seed
/// stream (`stream_seed(mix64(base), i)`), same reductions; shots run in
/// blocks of per-worker [`ReplayBatch`] arenas instead of per-shot
/// allocations, and the diagonal of a diagonal observable is tabulated
/// once per ensemble instead of re-evaluated per shot.
#[derive(Debug, Clone, Copy)]
pub struct ReplayEngine {
    n_trajectories: usize,
    base_seed: u64,
    /// Shot-block override; `None` uses the default policy of
    /// [`ReplayEngine::block_size_for`].
    block_size: Option<usize>,
}

impl ReplayEngine {
    /// An engine running `n_trajectories` trajectories rooted at
    /// `base_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_trajectories` is zero.
    pub fn new(n_trajectories: usize, base_seed: u64) -> Self {
        assert!(n_trajectories > 0, "need at least one trajectory");
        Self {
            n_trajectories,
            base_seed,
            block_size: None,
        }
    }

    /// Overrides the shots-per-block. Every block size produces
    /// bit-identical results (blocks are pure partitions of the
    /// per-trajectory seed stream); the default policy is
    /// [`ReplayEngine::block_size_for`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `shots_per_block` is zero.
    pub fn with_block_size(mut self, shots_per_block: usize) -> Self {
        assert!(shots_per_block > 0, "need at least one shot per block");
        self.block_size = Some(shots_per_block);
        self
    }

    /// The shot-block size the engine will use for `program`: the
    /// [`ReplayEngine::with_block_size`] override if set, otherwise the
    /// width's default (up to 64 shots within 32 MiB of arena), never
    /// more than the ensemble.
    pub fn block_size_for(&self, program: &ReplayProgram) -> usize {
        self.block_size
            .unwrap_or_else(|| batch::default_block_size(program.n_qubits()))
            .min(self.n_trajectories)
    }

    /// The engine's partition of the ensemble: contiguous trajectory
    /// ranges at fixed multiples of [`ReplayEngine::block_size_for`],
    /// the last one possibly ragged. Boundaries are a pure function of
    /// `(n_trajectories, block size)`, independent of worker count.
    pub fn shot_blocks(&self, program: &ReplayProgram) -> impl Iterator<Item = Range<usize>> {
        let n = self.n_trajectories;
        let block = self.block_size_for(program);
        (0..n).step_by(block).map(move |lo| lo..(lo + block).min(n))
    }

    /// The per-shot seeds of one block from
    /// [`ReplayEngine::shot_blocks`], in the order
    /// [`ReplayBatch::run`] takes them.
    pub fn block_seeds(&self, block: Range<usize>) -> Vec<u64> {
        block.map(|i| self.trajectory_seed(i)).collect()
    }

    /// Ensemble size.
    pub fn n_trajectories(&self) -> usize {
        self.n_trajectories
    }

    /// The seed stream's base.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The seed of trajectory `index` — bit-compatible with
    /// [`crate::TrajectoryEngine::trajectory_seed`], which is what makes
    /// the two engines interchangeable mid-stream.
    pub fn trajectory_seed(&self, index: usize) -> u64 {
        stream_seed(mix64(self.base_seed), index as u64)
    }

    /// Maps every shot block of [`ReplayEngine::shot_blocks`] through
    /// `f`, returning per-shot results in trajectory order. The blocks
    /// fan out over the shared rayon pool (the same pool every other
    /// parallel path in the workspace uses, so nested serving workers
    /// do not oversubscribe the host), one [`ReplayBatch`] arena each.
    /// Each shot's result depends only on `(program, base_seed, index)`,
    /// so every partition is bit-identical to running the shots one at
    /// a time.
    fn map_shot_blocks<T, F>(&self, program: &ReplayProgram, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut ReplayBatch, Range<usize>) -> Vec<T> + Sync,
    {
        // One arena per worker, reused across that worker's blocks —
        // `ReplayBatch::run` re-seeds and re-zeroes everything a block
        // reads, so reuse only skips the allocation and its page
        // faults. A ragged final block (different shot count, so a
        // different SoA stride) rebuilds once.
        let blocks: Vec<Vec<T>> = self
            .shot_blocks(program)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map_init(
                || None,
                |cache: &mut Option<ReplayBatch>, block: Range<usize>| {
                    let shots = match cache {
                        Some(b) if b.n_shots() == block.len() => b,
                        _ => cache.insert(ReplayBatch::for_program(program, block.len())),
                    };
                    f(shots, block)
                },
            )
            .collect();
        blocks.into_iter().flatten().collect()
    }

    /// Per-trajectory expectation values, in trajectory order —
    /// bit-identical to [`crate::TrajectoryEngine::expectations`] on the
    /// source program for every block size. `sink` attributes per-op-kind
    /// wall time; it is shared across the worker pool (relaxed atomic
    /// accumulation), so its totals cover the whole ensemble, and it
    /// never changes a result bit. Pass [`crate::NoProfile`] for the bare
    /// loop.
    pub fn expectations<P: ProfileSink>(
        &self,
        program: &ReplayProgram,
        observable: &PauliSum,
        sink: &P,
    ) -> Vec<f64> {
        assert_eq!(
            observable.n_qubits(),
            program.n_qubits(),
            "observable width must match the program"
        );
        // A diagonal observable's per-basis values are shot-invariant:
        // tabulate once per ensemble. Each table entry is the very value
        // `eval_diagonal` would return inside the shot loop, and the
        // per-shot sum runs in the same basis order — bit-identical,
        // O(2^n * terms) once instead of per shot.
        let table: Option<Vec<f64>> = observable.is_diagonal().then(|| {
            (0..1usize << program.n_qubits())
                .map(|b| observable.eval_diagonal(b))
                .collect()
        });
        self.map_shot_blocks(program, |shots, block| {
            shots.run(program, &self.block_seeds(block), sink);
            match &table {
                Some(diag) => shots.diagonal_expectations(diag),
                None => (0..shots.n_shots())
                    .map(|s| shots.shot_expectation(s, observable))
                    .collect(),
            }
        })
    }

    /// Ensemble mean plus its standard error, bit-identical to
    /// [`crate::TrajectoryEngine::expectation_with_error`]; `sink` as in
    /// [`ReplayEngine::expectations`].
    pub fn expectation_with_error<P: ProfileSink>(
        &self,
        program: &ReplayProgram,
        observable: &PauliSum,
        sink: &P,
    ) -> (f64, f64) {
        let values = self.expectations(program, observable, sink);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        if values.len() < 2 {
            return (mean, 0.0);
        }
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    /// One computational-basis shot per trajectory with a
    /// post-measurement hook `corrupt(bits, rng) -> bits` (shot-level
    /// readout confusion; pass `|bits, _| bits` for none), bit-identical
    /// to [`crate::TrajectoryEngine::sample_counts_with`]: the hook sees
    /// each shot's RNG right after its outcome draw. `sink` as in
    /// [`ReplayEngine::expectations`].
    pub fn sample_counts_with<F, P>(&self, program: &ReplayProgram, corrupt: F, sink: &P) -> Counts
    where
        F: Fn(usize, &mut StdRng) -> usize + Sync,
        P: ProfileSink,
    {
        let outcomes: Vec<usize> = self.map_shot_blocks(program, |shots, block| {
            shots.run(program, &self.block_seeds(block), sink);
            let bits = shots.draw_outcomes();
            bits.into_iter()
                .enumerate()
                .map(|(s, b)| corrupt(b, shots.rng_mut(s)))
                .collect()
        });
        let mut counts = Counts::new(program.n_qubits());
        for bits in outcomes {
            counts.record(bits, 1);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::batch::Rows1q;
    use super::*;
    use crate::trajectory::TrajectoryEngine;
    use hgp_circuit::{Gate, Param};
    use hgp_math::pauli::{sigma_x, sigma_y, sigma_z, Pauli, PauliString, PauliSum};
    use hgp_math::{c64, Complex64};
    use hgp_obs::profile::NoProfile;
    use rand::Rng;

    fn depolarizing_op(p: f64) -> ChannelOp {
        let kraus = vec![
            Matrix::identity(2).scale(c64((1.0 - 3.0 * p / 4.0).sqrt(), 0.0)),
            sigma_x().scale(c64((p / 4.0).sqrt(), 0.0)),
            sigma_y().scale(c64((p / 4.0).sqrt(), 0.0)),
            sigma_z().scale(c64((p / 4.0).sqrt(), 0.0)),
        ];
        let unitaries = vec![Matrix::identity(2), sigma_x(), sigma_y(), sigma_z()];
        let probs = vec![1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0];
        ChannelOp::mixed_unitary(kraus, probs, unitaries)
    }

    fn amplitude_damping_op(gamma: f64) -> ChannelOp {
        let k0 = Matrix::from_rows(&[
            &[c64(1.0, 0.0), c64(0.0, 0.0)],
            &[c64(0.0, 0.0), c64((1.0 - gamma).sqrt(), 0.0)],
        ]);
        let k1 = Matrix::from_rows(&[
            &[c64(0.0, 0.0), c64(gamma.sqrt(), 0.0)],
            &[c64(0.0, 0.0), c64(0.0, 0.0)],
        ]);
        ChannelOp::general(vec![k0, k1])
    }

    fn general_identity_k0_op(p: f64) -> ChannelOp {
        let k0 = Matrix::identity(2).scale(c64((1.0 - p).sqrt(), 0.0));
        let k1 = sigma_x().scale(c64(p.sqrt(), 0.0));
        ChannelOp::general(vec![k0, k1])
    }

    /// A program exercising every op family: a diagonal run (fused),
    /// dense gates, a fixed unitary, a mixed channel, and two general
    /// channels (with and without the K0-identity skip).
    fn mixed_program() -> TrajectoryProgram {
        let mut p = TrajectoryProgram::new(3);
        p.push_gate(Gate::H, &[0]);
        p.push_gate(Gate::Rz(Param::bound(0.4)), &[0]);
        p.push_gate(Gate::Rzz(Param::bound(-0.9)), &[0, 1]);
        p.push_gate(Gate::CZ, &[1, 2]);
        p.push_channel(depolarizing_op(0.15), &[1]);
        p.push_gate(Gate::CX, &[0, 2]);
        p.push_unitary(sigma_y(), &[1]);
        p.push_channel(amplitude_damping_op(0.2), &[2]);
        p.push_gate(Gate::Rz(Param::bound(1.3)), &[2]);
        p.push_gate(Gate::Rzz(Param::bound(0.35)), &[2, 0]);
        p.push_channel(general_identity_k0_op(0.1), &[0]);
        p
    }

    fn zz(n: usize, a: usize, b: usize) -> PauliSum {
        PauliSum::from_terms(vec![PauliString::new(
            n,
            vec![(a, Pauli::Z), (b, Pauli::Z)],
            1.0,
        )])
    }

    #[test]
    fn compile_fuses_consecutive_diagonals() {
        let replay = ReplayProgram::compile(&mixed_program());
        // Rz + Rzz + CZ form one run; the trailing Rz + Rzz another.
        assert_eq!(replay.n_diag_ops(), 5);
        assert_eq!(replay.n_channels(), 3);
        // H, run(3), channel, CX, Y, channel, run(2), channel = 8 ops.
        assert_eq!(replay.n_ops(), 8);
    }

    #[test]
    fn replay_expectations_are_bit_identical_to_trajectory_engine() {
        let program = mixed_program();
        let replay = ReplayProgram::compile(&program);
        let obs = zz(3, 0, 2);
        for seed in [0u64, 7, 12345] {
            let reference = TrajectoryEngine::new(96, seed).expectations(&program, &obs);
            let fast = ReplayEngine::new(96, seed).expectations(&replay, &obs, &NoProfile);
            assert_eq!(reference.len(), fast.len());
            for (a, b) in reference.iter().zip(fast.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn replay_handles_non_diagonal_observables_identically() {
        let program = mixed_program();
        let replay = ReplayProgram::compile(&program);
        let obs = PauliSum::from_terms(vec![
            PauliString::new(3, vec![(0, Pauli::X), (1, Pauli::Z)], 0.7),
            PauliString::new(3, vec![(2, Pauli::Y)], -0.2),
        ]);
        let reference = TrajectoryEngine::new(48, 5).expectation_with_error(&program, &obs);
        let fast = ReplayEngine::new(48, 5).expectation_with_error(&replay, &obs, &NoProfile);
        assert_eq!(reference.0.to_bits(), fast.0.to_bits());
        assert_eq!(reference.1.to_bits(), fast.1.to_bits());
    }

    #[test]
    fn replay_counts_are_bit_identical_with_corruption_hook() {
        let program = mixed_program();
        let replay = ReplayProgram::compile(&program);
        let corrupt = |bits: usize, rng: &mut StdRng| {
            if rng.gen::<f64>() < 0.07 {
                bits ^ 0b101
            } else {
                bits
            }
        };
        let reference = TrajectoryEngine::new(256, 11).sample_counts_with(&program, corrupt);
        let fast = ReplayEngine::new(256, 11).sample_counts_with(&replay, corrupt, &NoProfile);
        assert_eq!(reference, fast);
        assert_eq!(
            TrajectoryEngine::new(128, 3).sample_counts(&program),
            ReplayEngine::new(128, 3).sample_counts_with(&replay, |bits, _| bits, &NoProfile)
        );
    }

    #[test]
    fn seed_streams_are_bit_compatible() {
        let a = TrajectoryEngine::new(32, 99);
        let b = ReplayEngine::new(32, 99);
        for i in 0..32 {
            assert_eq!(a.trajectory_seed(i), b.trajectory_seed(i));
        }
    }

    #[test]
    fn substitution_matches_a_fresh_compile() {
        // Re-binding a diagonal slot and a dense slot must land exactly
        // where compiling the re-bound recording would.
        let build = |theta: f64, phi: f64| {
            let mut p = TrajectoryProgram::new(2);
            p.push_gate(Gate::H, &[0]);
            p.push_gate(Gate::Rzz(Param::bound(theta)), &[0, 1]);
            p.push_unitary(Gate::Rx(Param::bound(phi)).matrix().unwrap(), &[1]);
            p.push_channel(depolarizing_op(0.1), &[0]);
            p
        };
        let (mut replay, slots) = ReplayProgram::compile_with_slots(&build(0.3, 0.5));
        assert_eq!(slots.len(), 4);
        let rebound = Gate::Rzz(Param::bound(-1.1));
        replay.substitute_diag(slots[1], DiagOp::from_gate(&rebound, &[0, 1]).unwrap());
        replay.substitute_unitary(slots[2], &Gate::Rx(Param::bound(0.9)).matrix().unwrap());
        let fresh = ReplayProgram::compile(&build(-1.1, 0.9));
        let obs = zz(2, 0, 1);
        let a = ReplayEngine::new(64, 4).expectations(&replay, &obs, &NoProfile);
        let b = ReplayEngine::new(64, 4).expectations(&fresh, &obs, &NoProfile);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn replay_is_bit_identical_across_block_sizes() {
        let program = mixed_program();
        let replay = ReplayProgram::compile(&program);
        let obs = zz(3, 0, 2);
        let reference = TrajectoryEngine::new(97, 13).expectations(&program, &obs);
        let engine = ReplayEngine::new(97, 13);
        // Sizes that divide the ensemble, sizes that don't, a single-shot
        // block, one block for everything, and the width-derived default.
        for block in [1usize, 2, 3, 16, 64, 97, 200] {
            let got = engine
                .with_block_size(block)
                .expectations(&replay, &obs, &NoProfile);
            assert_eq!(reference.len(), got.len());
            for (a, b) in reference.iter().zip(got.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "block size {block}");
            }
        }
        let got = engine.expectations(&replay, &obs, &NoProfile);
        for (a, b) in reference.iter().zip(got.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn counts_and_errors_match_the_reference_at_any_block_size() {
        let program = mixed_program();
        let replay = ReplayProgram::compile(&program);
        let corrupt = |bits: usize, rng: &mut StdRng| {
            if rng.gen::<f64>() < 0.1 {
                bits ^ 0b011
            } else {
                bits
            }
        };
        let reference = TrajectoryEngine::new(193, 21).sample_counts_with(&program, corrupt);
        for block in [1usize, 5, 32, 193] {
            let got = ReplayEngine::new(193, 21)
                .with_block_size(block)
                .sample_counts_with(&replay, corrupt, &NoProfile);
            assert_eq!(reference, got, "block size {block}");
        }
        let obs = PauliSum::from_terms(vec![
            PauliString::new(3, vec![(0, Pauli::X), (2, Pauli::Z)], 0.5),
            PauliString::new(3, vec![(1, Pauli::Y)], 1.5),
        ]);
        let a = TrajectoryEngine::new(33, 2).expectation_with_error(&program, &obs);
        let b = ReplayEngine::new(33, 2)
            .with_block_size(4)
            .expectation_with_error(&replay, &obs, &NoProfile);
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }

    /// Arena bytes of one `shots`-wide block at `n_qubits`.
    fn arena_bytes(n_qubits: usize, shots: usize) -> usize {
        shots * (std::mem::size_of::<Complex64>() << n_qubits)
    }

    /// An empty compiled tape at `n_qubits` — the block policy reads
    /// only the width.
    fn tape(n_qubits: usize) -> ReplayProgram {
        ReplayProgram::compile(&TrajectoryProgram::new(n_qubits))
    }

    #[test]
    fn block_policy_runs_the_wide_served_shape_as_one_block() {
        // The served wide shape: 8 trajectories at 16q run as one 8-shot
        // block, not four 2-shot ones.
        let engine = ReplayEngine::new(8, 0);
        assert_eq!(engine.block_size_for(&tape(16)), 8);
        assert_eq!(
            engine.shot_blocks(&tape(16)).collect::<Vec<_>>(),
            vec![0..8]
        );
        // Large ensembles stop at the arena cap.
        assert_eq!(ReplayEngine::new(1024, 0).block_size_for(&tape(16)), 32);
    }

    #[test]
    fn block_policy_bounds_the_arena_at_wide_widths() {
        for n_qubits in [16usize, 18, 20] {
            let shots = ReplayEngine::new(1 << 12, 0).block_size_for(&tape(n_qubits));
            assert!(shots >= 1);
            assert!(arena_bytes(n_qubits, shots) <= 32 << 20, "{n_qubits}q");
        }
    }

    #[test]
    fn block_policy_caps_narrow_widths_at_64() {
        for n_qubits in 1usize..=12 {
            assert_eq!(batch::default_block_size(n_qubits), 64, "{n_qubits}q");
            let engine = ReplayEngine::new(1 << 12, 0);
            assert_eq!(engine.block_size_for(&tape(n_qubits)), 64);
        }
    }

    #[test]
    fn block_size_override_wins_over_the_policy() {
        let engine = ReplayEngine::new(97, 0);
        assert_eq!(engine.with_block_size(3).block_size_for(&tape(16)), 3);
        assert_eq!(engine.with_block_size(80).block_size_for(&tape(4)), 80);
        // Never more than the ensemble.
        assert_eq!(engine.with_block_size(200).block_size_for(&tape(4)), 97);
    }

    #[test]
    fn shot_blocks_partition_the_ensemble_at_block_multiples() {
        let engine = ReplayEngine::new(97, 5).with_block_size(32);
        let blocks: Vec<_> = engine.shot_blocks(&tape(4)).collect();
        assert_eq!(blocks, [0..32, 32..64, 64..96, 96..97]);
        assert_eq!(engine.block_seeds(96..97), [engine.trajectory_seed(96)]);
    }

    #[test]
    fn default_block_policy_matches_single_shot_blocks_bitwise() {
        let program = mixed_program();
        let replay = ReplayProgram::compile(&program);
        let obs = zz(3, 0, 2);
        let engine = ReplayEngine::new(131, 17);
        let single = engine.with_block_size(1);
        let a = engine.expectations(&replay, &obs, &NoProfile);
        let b = single.expectations(&replay, &obs, &NoProfile);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let keep = |bits, _: &mut StdRng| bits;
        assert_eq!(
            engine.sample_counts_with(&replay, keep, &NoProfile),
            single.sample_counts_with(&replay, keep, &NoProfile)
        );
    }

    /// `compose(amplitude_damping(gamma), phase_damping(lambda))` in
    /// `hgp_noise::channels::thermal_relaxation`'s order.
    fn thermal_kraus(gamma: f64, lambda: f64) -> Vec<Matrix> {
        let diag = |a: f64, b: f64| {
            Matrix::from_rows(&[&[c64(a, 0.0), c64(0.0, 0.0)], &[c64(0.0, 0.0), c64(b, 0.0)]])
        };
        let k1 = Matrix::from_rows(&[
            &[c64(0.0, 0.0), c64(gamma.sqrt(), 0.0)],
            &[c64(0.0, 0.0), c64(0.0, 0.0)],
        ]);
        let amplitude = [diag(1.0, (1.0 - gamma).sqrt()), k1];
        let phase = [diag(1.0, (1.0 - lambda).sqrt()), diag(0.0, lambda.sqrt())];
        phase
            .iter()
            .flat_map(|b| amplitude.iter().map(move |a| b.matmul(a)))
            .collect()
    }

    #[test]
    fn thermal_relaxation_compiles_to_its_weight_pattern() {
        for (gamma, lambda) in [(0.1, 0.2), (0.3, 0.0), (0.0, 0.4), (1e-4, 1e-3)] {
            let rows = Rows1q::classify(&thermal_kraus(gamma, lambda));
            assert!(matches!(rows, Rows1q::Thermal(_)), "{gamma} {lambda}");
        }
        // A complex coefficient, a misplaced entry, or another operator
        // count falls back to the dense rows.
        let mut phased = thermal_kraus(0.1, 0.2);
        phased[1] = phased[1].scale(c64(0.0, 1.0));
        let mut flipped = thermal_kraus(0.1, 0.2);
        flipped[1] = flipped[1].adjoint();
        let three = thermal_kraus(0.1, 0.2)[..3].to_vec();
        for kraus in [phased, flipped, three] {
            assert!(matches!(Rows1q::classify(&kraus), Rows1q::Dense(_)));
        }
    }

    #[test]
    #[should_panic(expected = "not a dense op")]
    fn diag_slot_rejects_unitary_substitution() {
        let mut p = TrajectoryProgram::new(1);
        p.push_gate(Gate::Rz(Param::bound(0.1)), &[0]);
        let (mut replay, slots) = ReplayProgram::compile_with_slots(&p);
        replay.substitute_unitary(slots[0], &Matrix::identity(2));
    }
}
