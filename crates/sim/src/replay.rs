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
//!   blocked sweeps over the amplitudes
//!   ([`kernels::apply_diag_run_exact`] — bit-exact to gate-at-a-time
//!   application, unlike the broadcast-folding `apply_diag_fused`),
//! - dense gates and fixed unitaries carry their resolved matrices, so
//!   the hot loop never calls `Gate::matrix()`,
//! - channels are precompiled into sampling tables: cumulative branch
//!   probabilities for mixed-unitary channels (with the identity-branch
//!   skip), strided single-qubit weight kernels and precomputed block
//!   offsets for general channels (with the `K_0`-identity skip),
//!
//! and [`ReplayEngine`] replays the tape over per-worker
//! [`ReplayScratch`] arenas — the per-shot loop performs **zero
//! allocation and zero matrix dispatch** (the one exception: operators
//! wider than two qubits fall back to the generic embed path, which no
//! recorded schedule in this workspace produces).
//!
//! # The bit-parity contract
//!
//! The replay engine is an *optimization*, not a new semantics:
//! [`crate::TrajectoryEngine`] remains the reference implementation, and
//! for every program, observable, seed, and scheduling the replay path
//! produces **bit-identical** results — same
//! [`crate::seed::stream_seed`]/SplitMix64 seed stream, same RNG draw
//! sequence, same branch choices, same floating-point operations in the
//! same order. Property tests in `crates/sim/tests/replay_parity.rs` pin
//! this across random programs; the serve-layer suites pin it end to
//! end.
//!
//! # Exact-path mode
//!
//! The same compile-once idea applies to the exact density-matrix walk:
//! the [`exact`] submodule compiles a recorded program into an
//! [`ExactReplayProgram`] superoperator tape (fused elementwise
//! diagonal-run sweeps, resolved dense conjugations, channels collapsed
//! into superoperators or blockwise Kraus passes) that
//! [`ExactReplayEngine`] replays without per-dispatch interpretation —
//! pinned against the `apply_exact` walk, which stays the reference.
//! See the [`exact`] module docs for the parity contract.
//!
//! # Batched-shot mode
//!
//! The scalar per-shot loop above still decodes the whole tape once per
//! trajectory. The [`batch`] submodule inverts that loop nest: a
//! [`ReplayBatch`] holds a block of shots in one structure-of-arrays
//! arena and replays the tape *op-major* — each tape entry sweeps every
//! resident shot before the next is decoded, so each amplitude row's
//! fixed cost (slicing, index surgery, shape branches) is paid once for
//! `S` lanes of arithmetic. Blocks are therefore sized to fill the
//! lanes, not to fit a cache: up to 64 shots within 32 MiB of arena
//! ([`batch::default_block_size`]). The
//! [`ReplayEngine::expectations_batched`] /
//! [`ReplayEngine::sample_counts_batched`] entry points partition the
//! ensemble into such blocks ([`ReplayEngine::shot_blocks`]:
//! deterministic boundaries, per-worker arenas) and are bit-identical
//! to their scalar counterparts for every block size, split, worker
//! count, and seed — the scalar engine stays as the pinned reference. See the [`batch`] module docs for the layout
//! and divergence-masking design.
//!
//! # Example
//!
//! ```
//! use hgp_circuit::Gate;
//! use hgp_math::pauli::{Pauli, PauliString, PauliSum};
//! use hgp_sim::{ReplayEngine, ReplayProgram, TrajectoryEngine, TrajectoryProgram};
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
//! let fast = ReplayEngine::new(64, 7).expectation(&replay, &zz);
//! let reference = TrajectoryEngine::new(64, 7).expectation(&program, &zz);
//! assert_eq!(fast.to_bits(), reference.to_bits());
//! ```

use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use hgp_math::pauli::PauliSum;
use hgp_math::{Complex64, Matrix};
use hgp_obs::profile::{timed, NoProfile, ProfileSink, ReplayOpKind};

use crate::counts::Counts;
use crate::kernels::{self, DiagOp};
use crate::seed::{mix64, stream_seed};
use crate::statevector::StateVector;
use crate::trajectory::{draw_outcome, ChannelOp, TrajectoryOp, TrajectoryProgram};

pub mod batch;
pub mod exact;

pub use batch::ReplayBatch;
pub use exact::{ExactReplayEngine, ExactReplayProgram, ExactScratch};

/// One instruction of a compiled replay tape.
#[derive(Debug, Clone)]
enum ReplayOp {
    /// A fused run of consecutive diagonal gates: one blocked sweep over
    /// `diag[start..start + len]`.
    DiagRun {
        /// First op in the diagonal arena.
        start: usize,
        /// Run length.
        len: usize,
    },
    /// A dense operator application with its matrix resolved at compile
    /// time (dense gates, pulse-backed unitaries, frame drift). The
    /// matrix sits behind an [`Arc`] so template binds — which clone the
    /// tape and substitute only parametric slots — share the
    /// shape-constant matrices instead of deep-copying them.
    Apply {
        /// Targets, `targets[0]` = most-significant operator bit.
        targets: Vec<usize>,
        /// The resolved matrix.
        matrix: Arc<Matrix>,
    },
    /// A precompiled noise channel (index into the channel table).
    Channel(usize),
}

/// How one branch of a mixed-unitary channel is applied.
#[derive(Debug, Clone)]
enum BranchApply {
    /// Exact-identity branch: a no-op (the dominant case for weak
    /// depolarizing noise).
    Identity,
    /// A branch unitary, applied through the dense kernels.
    Apply(Matrix),
}

/// A mixed-unitary channel with its cumulative branch distribution
/// resolved once at compile time.
#[derive(Debug, Clone)]
struct MixedChannel {
    targets: Vec<usize>,
    /// Running sums of the branch probabilities, accumulated in the
    /// exact order [`ChannelOp::apply_sampled`]'s walk accumulates them
    /// — the comparisons (and therefore the picks) are bit-identical.
    cum: Vec<f64>,
    branches: Vec<BranchApply>,
}

/// One row of a single-qubit Kraus operator, classified by which of its
/// entries are exactly zero (the standard channel constructors produce
/// structurally sparse operators: thermal relaxation's set is one
/// diagonal, two single-entry, and one zero operator).
///
/// Sparsity is *safe* for weight sweeps specifically: a skipped
/// `0 * a` term changes the row value only in the sign of zero
/// components, and the row enters the total through `norm_sqr`, which
/// squares them away — the accumulated weights are **bit-identical** to
/// the dense two-`mul_add` chain. (State *application* is not sparsified:
/// there the signed zeros would land in the amplitudes themselves.)
#[derive(Debug, Clone, Copy)]
enum Row1q {
    /// Both entries zero: the row contributes exactly `+0.0` — skipped.
    Zero,
    /// Only the `a0` (bit-clear) entry: `|m * a0|^2`.
    Lo(Complex64),
    /// Only the `a1` (bit-set) entry: `|m * a1|^2`.
    Hi(Complex64),
    /// Dense row: the reference `mul_add` chain.
    Both(Complex64, Complex64),
}

impl Row1q {
    fn classify(lo: Complex64, hi: Complex64) -> Self {
        let z = |c: Complex64| c.re == 0.0 && c.im == 0.0;
        match (z(lo), z(hi)) {
            (true, true) => Row1q::Zero,
            (false, true) => Row1q::Lo(lo),
            (true, false) => Row1q::Hi(hi),
            (false, false) => Row1q::Both(lo, hi),
        }
    }
}

/// The branch-weight sweep of a general channel.
#[derive(Debug, Clone)]
enum WeightScan {
    /// Strided single-qubit kernel: direct pair enumeration with each
    /// Kraus operator's rows pre-classified by sparsity, replacing the
    /// generic scan's per-base index construction. Same pairs in the
    /// same order, bit-identical totals.
    One {
        target: usize,
        /// Per Kraus operator: its two classified rows.
        rows: Vec<(Row1q, Row1q)>,
    },
    /// The generic block scan with masks and block offsets precomputed
    /// (multi-qubit channels; rare).
    Generic {
        all_mask: usize,
        /// Block offsets in `branch_weight`'s MSB-first order.
        offs: Vec<usize>,
    },
}

/// A general (state-dependent-branch) channel in replay form.
#[derive(Debug, Clone)]
struct GeneralChannel {
    targets: Vec<usize>,
    kraus: Vec<Matrix>,
    scan: WeightScan,
    /// Skip branch-0 application + renormalization (`K_0` is a scalar
    /// multiple of the identity; see [`ChannelOp::skips_identity_k0`]).
    k0_identity: bool,
}

/// A precompiled channel of either sampling family.
#[derive(Debug, Clone)]
enum CompiledChannel {
    Mixed(MixedChannel),
    General(GeneralChannel),
}

impl CompiledChannel {
    fn compile(channel: &ChannelOp, targets: &[usize]) -> Self {
        if let Some(mix) = channel.mixed_parts() {
            let mut acc = 0.0;
            let cum = mix
                .probs
                .iter()
                .map(|&p| {
                    acc += p;
                    acc
                })
                .collect();
            let branches = mix
                .unitaries
                .iter()
                .zip(mix.identity.iter())
                .map(|(u, &id)| {
                    if id {
                        BranchApply::Identity
                    } else {
                        BranchApply::Apply(u.clone())
                    }
                })
                .collect();
            return CompiledChannel::Mixed(MixedChannel {
                targets: targets.to_vec(),
                cum,
                branches,
            });
        }
        let kraus = channel.kraus().to_vec();
        let scan = if targets.len() == 1 {
            let rows = kraus
                .iter()
                .map(|k| {
                    (
                        Row1q::classify(k[(0, 0)], k[(0, 1)]),
                        Row1q::classify(k[(1, 0)], k[(1, 1)]),
                    )
                })
                .collect();
            WeightScan::One {
                target: targets[0],
                rows,
            }
        } else {
            // `branch_weight`'s MSB-first block offsets, built once: the
            // offset of block slot `r` sets mask `pos` exactly when bit
            // `k - 1 - pos` of `r` is set.
            let k = targets.len();
            let masks: Vec<usize> = targets.iter().map(|&t| 1usize << t).collect();
            let all_mask: usize = masks.iter().sum();
            let offs = (0..1usize << k)
                .map(|r| {
                    let mut off = 0usize;
                    for (pos, &m) in masks.iter().enumerate() {
                        if (r >> (k - 1 - pos)) & 1 == 1 {
                            off |= m;
                        }
                    }
                    off
                })
                .collect();
            WeightScan::Generic { all_mask, offs }
        };
        CompiledChannel::General(GeneralChannel {
            targets: targets.to_vec(),
            kraus,
            scan,
            k0_identity: channel.skips_identity_k0(),
        })
    }

    fn n_branches(&self) -> usize {
        match self {
            CompiledChannel::Mixed(m) => m.cum.len(),
            CompiledChannel::General(g) => g.kraus.len(),
        }
    }

    /// Draws and applies one branch — the replay mirror of
    /// [`ChannelOp::apply_sampled`], consuming exactly one RNG draw.
    /// The branch draw and Kraus application are charged to the channel
    /// kind, the post-Kraus renormalize to [`ReplayOpKind::Renorm`];
    /// `sink` only observes ([`NoProfile`] compiles it away).
    fn apply_with<R: Rng + ?Sized, P: ProfileSink>(
        &self,
        psi: &mut StateVector,
        weights: &mut Vec<f64>,
        rng: &mut R,
        sink: &P,
    ) {
        match self {
            CompiledChannel::Mixed(mix) => timed(sink, ReplayOpKind::MixedChannel, || {
                let r: f64 = rng.gen();
                let mut pick = mix.cum.len() - 1;
                for (k, &c) in mix.cum.iter().enumerate() {
                    if r < c {
                        pick = k;
                        break;
                    }
                }
                if let BranchApply::Apply(u) = &mix.branches[pick] {
                    psi.apply_operator(u, &mix.targets);
                }
            }),
            CompiledChannel::General(gen) => {
                let applied = timed(sink, ReplayOpKind::GeneralChannel, || {
                    weights.clear();
                    match &gen.scan {
                        WeightScan::One { target, rows } => {
                            branch_weights_1q(psi.amplitudes(), *target, rows, weights);
                        }
                        WeightScan::Generic { all_mask, offs } => {
                            for k in &gen.kraus {
                                weights.push(branch_weight_generic(
                                    psi.amplitudes(),
                                    k,
                                    *all_mask,
                                    offs,
                                ));
                            }
                        }
                    }
                    let total: f64 = weights.iter().sum();
                    assert!(total > 1e-12, "channel annihilated the state");
                    let r: f64 = rng.gen::<f64>() * total;
                    let mut acc = 0.0;
                    let mut pick = weights.len() - 1;
                    for (k, &w) in weights.iter().enumerate() {
                        acc += w;
                        if r < acc {
                            pick = k;
                            break;
                        }
                    }
                    if pick == 0 && gen.k0_identity {
                        return false;
                    }
                    psi.apply_operator(&gen.kraus[pick], &gen.targets);
                    true
                });
                if applied {
                    timed(sink, ReplayOpKind::Renorm, || psi.renormalize());
                }
            }
        }
    }
}

/// `||K_k psi||^2` for every operator of a single-qubit channel,
/// appended to `out` in operator order.
///
/// Bit-identical to per-operator [`StateVector::branch_weight`] calls:
/// each operator's total accumulates over the same pairs in the same
/// (ascending-base) order, every dense row runs the same `mul_add`
/// chain, and sparse rows differ from that chain only in the signs of
/// zero components (erased by `norm_sqr`) or skip exact `+0.0`
/// contributions, which leave a running total's bits untouched.
fn branch_weights_1q(
    amps: &[Complex64],
    target: usize,
    rows: &[(Row1q, Row1q)],
    out: &mut Vec<f64>,
) {
    for &r in rows {
        out.push(branch_weight_1q(amps, target, r));
    }
}

/// One operator's weight sweep, specialized per sparsity pattern so the
/// hot patterns (diagonal, single-entry — the standard damping and
/// relaxation sets) run branch-free tight loops over only the half of
/// the state they read. Pairs are enumerated block-contiguously —
/// bit-clear and bit-set halves of each `2*bit` block — which visits
/// the same bases in the same ascending order as the reference scan.
fn branch_weight_1q(amps: &[Complex64], target: usize, rows: (Row1q, Row1q)) -> f64 {
    let bit = 1usize << target;
    let mut total = 0.0;
    match rows {
        // The zero operator: every contribution is +0.0, as is their sum.
        (Row1q::Zero, Row1q::Zero) => {}
        // Diagonal operator (thermal K0, damping K0).
        (Row1q::Lo(m0), Row1q::Hi(m1)) => {
            for block in amps.chunks_exact(2 * bit) {
                let (lo, hi) = block.split_at(bit);
                for (&a0, &a1) in lo.iter().zip(hi.iter()) {
                    total += (m0 * a0).norm_sqr();
                    total += (m1 * a1).norm_sqr();
                }
            }
        }
        // Only the |0><1| entry (damping K1): reads the bit-set half.
        (Row1q::Hi(m), Row1q::Zero) | (Row1q::Zero, Row1q::Hi(m)) => {
            for block in amps.chunks_exact(2 * bit) {
                for &a1 in &block[bit..] {
                    total += (m * a1).norm_sqr();
                }
            }
        }
        // Only a |.><0| entry: reads the bit-clear half.
        (Row1q::Lo(m), Row1q::Zero) | (Row1q::Zero, Row1q::Lo(m)) => {
            for block in amps.chunks_exact(2 * bit) {
                for &a0 in &block[..bit] {
                    total += (m * a0).norm_sqr();
                }
            }
        }
        // Anything else: the reference two-row `mul_add` chains (sparse
        // rows still skip their zero terms, which norm_sqr erases).
        (r0, r1) => {
            let row = |r: Row1q, a0: Complex64, a1: Complex64| match r {
                Row1q::Zero => 0.0,
                Row1q::Lo(m) => (m * a0).norm_sqr(),
                Row1q::Hi(m) => (m * a1).norm_sqr(),
                // hgp-analysis: allow(d4) -- this fused chain IS the pinned
                // reference arithmetic the parity tests fix.
                Row1q::Both(l, h) => h.mul_add(a1, l.mul_add(a0, Complex64::ZERO)).norm_sqr(),
            };
            for block in amps.chunks_exact(2 * bit) {
                let (lo, hi) = block.split_at(bit);
                for (&a0, &a1) in lo.iter().zip(hi.iter()) {
                    total += row(r0, a0, a1);
                    total += row(r1, a0, a1);
                }
            }
        }
    }
    total
}

/// `||K psi||^2` with precomputed block offsets — the multi-qubit
/// fallback, arithmetic-identical to [`StateVector::branch_weight`].
fn branch_weight_generic(amps: &[Complex64], op: &Matrix, all_mask: usize, offs: &[usize]) -> f64 {
    let mut total = 0.0;
    for base in 0..amps.len() {
        if base & all_mask != 0 {
            continue;
        }
        for r in 0..offs.len() {
            let mut acc = Complex64::ZERO;
            for (c, &off) in offs.iter().enumerate() {
                // hgp-analysis: allow(d4) -- this fused chain IS the pinned
                // reference arithmetic the parity tests fix.
                acc = op[(r, c)].mul_add(amps[base + off], acc);
            }
            total += acc.norm_sqr();
        }
    }
    total
}

/// Where a trajectory op landed in the compiled tape — the handle
/// schedule templates use to substitute parametric entries per dispatch
/// without recompiling the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySlot {
    /// An entry of the fused diagonal arena.
    Diag(usize),
    /// A dense [`ReplayOp::Apply`] entry.
    Op(usize),
    /// A precompiled channel (not substitutable — channel structure is
    /// shape-constant).
    Channel(usize),
}

/// A flat, precompiled trajectory tape. See the module docs.
#[derive(Debug, Clone)]
pub struct ReplayProgram {
    n_qubits: usize,
    ops: Vec<ReplayOp>,
    /// Arena of fused diagonal ops, referenced by [`ReplayOp::DiagRun`].
    diag: Vec<DiagOp>,
    /// Channel tables, shared (never parametric) across template binds.
    channels: Arc<Vec<CompiledChannel>>,
    /// Largest branch count of any channel — sizes the weight scratch.
    max_branches: usize,
}

impl ReplayProgram {
    /// Compiles a recorded trajectory program into a replay tape.
    pub fn compile(program: &TrajectoryProgram) -> Self {
        Self::compile_with_slots(program).0
    }

    /// [`ReplayProgram::compile`] returning, for each trajectory op, the
    /// tape slot it compiled into (in trajectory-op order) — the
    /// substitution map schedule templates are built from.
    pub fn compile_with_slots(program: &TrajectoryProgram) -> (Self, Vec<ReplaySlot>) {
        let mut ops: Vec<ReplayOp> = Vec::new();
        let mut diag: Vec<DiagOp> = Vec::new();
        let mut channels: Vec<CompiledChannel> = Vec::new();
        let mut slots: Vec<ReplaySlot> = Vec::with_capacity(program.ops().len());
        let mut run_open = false;
        for op in program.ops() {
            match op {
                TrajectoryOp::Gate { gate, qubits } => {
                    // Mirror StateVector::apply_gate's dispatch rule:
                    // diagonal gates take the phase-only path, everything
                    // else the dense kernels.
                    if let Some(d) = DiagOp::from_gate(gate, qubits) {
                        slots.push(ReplaySlot::Diag(diag.len()));
                        if run_open {
                            match ops.last_mut() {
                                Some(ReplayOp::DiagRun { len, .. }) => *len += 1,
                                _ => unreachable!("open run is the last op"),
                            }
                        } else {
                            ops.push(ReplayOp::DiagRun {
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
                    ops.push(ReplayOp::Apply {
                        targets: qubits.clone(),
                        matrix: Arc::new(gate.matrix().expect("trajectory programs are bound")),
                    });
                }
                TrajectoryOp::Unitary { matrix, targets } => {
                    run_open = false;
                    slots.push(ReplaySlot::Op(ops.len()));
                    ops.push(ReplayOp::Apply {
                        targets: targets.clone(),
                        matrix: Arc::new(matrix.clone()),
                    });
                }
                TrajectoryOp::Channel { channel, targets } => {
                    run_open = false;
                    slots.push(ReplaySlot::Channel(channels.len()));
                    ops.push(ReplayOp::Channel(channels.len()));
                    channels.push(CompiledChannel::compile(channel, targets));
                }
            }
        }
        let max_branches = channels.iter().map(CompiledChannel::n_branches).max();
        (
            Self {
                n_qubits: program.n_qubits(),
                ops,
                diag,
                channels: Arc::new(channels),
                max_branches: max_branches.unwrap_or(0),
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
                ReplayOp::Apply { targets, matrix } => {
                    assert_eq!(m.rows(), 1 << targets.len(), "dimension mismatch");
                    *matrix = Arc::new(m.clone());
                }
                other => panic!("slot points at {other:?}, not a dense op"),
            },
            other => panic!("slot {other:?} is not a dense op"),
        }
    }

    /// Runs one trajectory into the scratch state (resetting it to
    /// `|0...0>` first). The hot loop: no allocation, no dispatch.
    pub fn run_into<R: Rng + ?Sized>(&self, scratch: &mut ReplayScratch, rng: &mut R) {
        self.run_into_profiled(scratch, rng, &NoProfile);
    }

    /// [`ReplayProgram::run_into`] with an opt-in [`ProfileSink`]
    /// attributing each op's wall time to its [`ReplayOpKind`]. With
    /// [`NoProfile`] this monomorphizes to the unprofiled loop exactly
    /// (no clock reads); with any sink the arithmetic and RNG stream
    /// are untouched, so results stay bit-identical.
    pub fn run_into_profiled<R: Rng + ?Sized, P: ProfileSink>(
        &self,
        scratch: &mut ReplayScratch,
        rng: &mut R,
        sink: &P,
    ) {
        assert_eq!(scratch.psi.n_qubits(), self.n_qubits, "scratch width");
        scratch.psi.reset_zero();
        for op in &self.ops {
            match op {
                ReplayOp::DiagRun { start, len } => timed(sink, ReplayOpKind::DiagRun, || {
                    kernels::apply_diag_run_exact(
                        scratch.psi.amps_mut(),
                        &self.diag[*start..*start + *len],
                    )
                }),
                ReplayOp::Apply { targets, matrix } => {
                    let kind = if targets.len() == 1 {
                        ReplayOpKind::Dense1q
                    } else {
                        ReplayOpKind::Dense2q
                    };
                    timed(sink, kind, || scratch.psi.apply_operator(matrix, targets))
                }
                ReplayOp::Channel(c) => {
                    self.channels[*c].apply_with(&mut scratch.psi, &mut scratch.weights, rng, sink)
                }
            }
        }
    }
}

/// Per-worker reusable buffers: the statevector a trajectory evolves in
/// and the branch-weight scratch of general channels. Allocated once per
/// worker, reused across every shot.
#[derive(Debug)]
pub struct ReplayScratch {
    psi: StateVector,
    weights: Vec<f64>,
}

impl ReplayScratch {
    /// Scratch sized for `program`.
    pub fn for_program(program: &ReplayProgram) -> Self {
        Self {
            psi: StateVector::zero_state(program.n_qubits()),
            weights: Vec::with_capacity(program.max_branches),
        }
    }

    /// The state left by the last [`ReplayProgram::run_into`].
    pub fn state(&self) -> &StateVector {
        &self.psi
    }
}

/// Runs trajectory ensembles over a compiled replay tape — the drop-in,
/// bit-identical fast path for [`crate::TrajectoryEngine`]. Same seed
/// stream (`stream_seed(mix64(base), i)`), same reductions; per-worker
/// scratch arenas instead of per-shot allocation, and the diagonal of a
/// diagonal observable is tabulated once per ensemble instead of
/// re-evaluated per shot.
#[derive(Debug, Clone, Copy)]
pub struct ReplayEngine {
    n_trajectories: usize,
    base_seed: u64,
    /// Shot-block override for the batched path; `None` uses the
    /// default policy of [`ReplayEngine::block_size_for`].
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

    /// Overrides the batched path's shots-per-block. Every block size
    /// produces bit-identical results (blocks are pure partitions of the
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

    /// The shot-block size the batched entry points will use for
    /// `program`: the [`ReplayEngine::with_block_size`] override if set,
    /// otherwise [`batch::default_block_size`] (up to 64 shots within
    /// 32 MiB of arena), never more than the ensemble.
    pub fn block_size_for(&self, program: &ReplayProgram) -> usize {
        self.block_size
            .unwrap_or_else(|| batch::default_block_size(program.n_qubits()))
            .min(self.n_trajectories)
    }

    /// The batched path's partition of the ensemble: contiguous
    /// trajectory ranges at fixed multiples of
    /// [`ReplayEngine::block_size_for`], the last one possibly ragged.
    /// Boundaries are a pure function of `(n_trajectories, block size)`,
    /// independent of worker count.
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

    /// Maps every trajectory index through `f`, returning results in
    /// trajectory order. The ensemble splits into contiguous blocks —
    /// one [`ReplayScratch`] each, allocated once per block — that fan
    /// out over the shared rayon pool (the same pool every other
    /// parallel path in the workspace uses, so nested serving workers
    /// do not oversubscribe the host). Results are a pure function of
    /// `(program, base_seed, index)`, so any partition is bit-identical
    /// to the sequential loop.
    fn map_trajectories<T, F>(&self, program: &ReplayProgram, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut ReplayScratch, usize) -> T + Sync,
    {
        let n = self.n_trajectories;
        let workers = rayon::current_num_threads().min(n).max(1);
        if workers <= 1 {
            let mut scratch = ReplayScratch::for_program(program);
            return (0..n).map(|i| f(&mut scratch, i)).collect();
        }
        let block = n.div_ceil(workers);
        let blocks: Vec<Vec<T>> = (0..n.div_ceil(block))
            .into_par_iter()
            .map(|w| {
                let lo = w * block;
                let hi = ((w + 1) * block).min(n);
                let mut scratch = ReplayScratch::for_program(program);
                (lo..hi).map(|i| f(&mut scratch, i)).collect()
            })
            .collect();
        blocks.into_iter().flatten().collect()
    }

    /// Per-trajectory expectation values, in trajectory order —
    /// bit-identical to [`crate::TrajectoryEngine::expectations`] on the
    /// source program.
    pub fn expectations(&self, program: &ReplayProgram, observable: &PauliSum) -> Vec<f64> {
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
        self.map_trajectories(program, |scratch, i| {
            // hgp-analysis: allow(d2) -- `trajectory_seed` is
            // `stream_seed(mix64(base), i)`: pure in (base, i).
            let mut rng = StdRng::seed_from_u64(self.trajectory_seed(i));
            program.run_into(scratch, &mut rng);
            match &table {
                // Same basis order and per-term arithmetic as the
                // reference's `amps[b].norm_sqr() * eval_diagonal(b)`
                // sum; the zip elides the per-index bounds checks.
                Some(diag) => scratch
                    .psi
                    .amplitudes()
                    .iter()
                    .zip(diag.iter())
                    .map(|(a, &d)| a.norm_sqr() * d)
                    .sum(),
                None => scratch.psi.expectation(observable),
            }
        })
    }

    /// Ensemble-mean expectation, bit-identical to
    /// [`crate::TrajectoryEngine::expectation`].
    pub fn expectation(&self, program: &ReplayProgram, observable: &PauliSum) -> f64 {
        let values = self.expectations(program, observable);
        values.iter().sum::<f64>() / values.len() as f64
    }

    /// Ensemble mean plus its standard error, bit-identical to
    /// [`crate::TrajectoryEngine::expectation_with_error`].
    pub fn expectation_with_error(
        &self,
        program: &ReplayProgram,
        observable: &PauliSum,
    ) -> (f64, f64) {
        let values = self.expectations(program, observable);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        if values.len() < 2 {
            return (mean, 0.0);
        }
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    /// One computational-basis shot per trajectory, bit-identical to
    /// [`crate::TrajectoryEngine::sample_counts`].
    pub fn sample_counts(&self, program: &ReplayProgram) -> Counts {
        self.sample_counts_with(program, |bits, _| bits)
    }

    /// [`ReplayEngine::sample_counts`] with a post-measurement hook
    /// `corrupt(bits, rng) -> bits` (shot-level readout confusion),
    /// bit-identical to
    /// [`crate::TrajectoryEngine::sample_counts_with`].
    pub fn sample_counts_with<F>(&self, program: &ReplayProgram, corrupt: F) -> Counts
    where
        F: Fn(usize, &mut StdRng) -> usize + Sync,
    {
        let outcomes: Vec<usize> = self.map_trajectories(program, |scratch, i| {
            // hgp-analysis: allow(d2) -- `trajectory_seed` is
            // `stream_seed(mix64(base), i)`: pure in (base, i).
            let mut rng = StdRng::seed_from_u64(self.trajectory_seed(i));
            program.run_into(scratch, &mut rng);
            let bits = draw_outcome(&scratch.psi, &mut rng);
            corrupt(bits, &mut rng)
        });
        let mut counts = Counts::new(program.n_qubits());
        for bits in outcomes {
            counts.record(bits, 1);
        }
        counts
    }

    /// Maps every shot block of [`ReplayEngine::shot_blocks`] through
    /// `f`, returning per-shot results in trajectory order. The blocks
    /// fan out over the shared rayon pool, one [`ReplayBatch`] arena
    /// each. Per-shot purity (each shot's result depends only on
    /// `(program, base_seed, index)`) makes every such partition
    /// bit-identical to the sequential scalar loop.
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

    /// Per-trajectory expectation values through the batched SoA path —
    /// bit-identical to [`ReplayEngine::expectations`] (and therefore to
    /// the reference [`crate::TrajectoryEngine`]) for every block size.
    pub fn expectations_batched(&self, program: &ReplayProgram, observable: &PauliSum) -> Vec<f64> {
        self.expectations_batched_profiled(program, observable, &NoProfile)
    }

    /// [`ReplayEngine::expectations_batched`] with an opt-in
    /// [`ProfileSink`]. The sink is shared across the worker pool
    /// (relaxed atomic accumulation), so per-op-kind totals cover the
    /// whole ensemble; results stay bit-identical for any sink.
    pub fn expectations_batched_profiled<P: ProfileSink>(
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
        let table: Option<Vec<f64>> = observable.is_diagonal().then(|| {
            (0..1usize << program.n_qubits())
                .map(|b| observable.eval_diagonal(b))
                .collect()
        });
        self.map_shot_blocks(program, |shots, block| {
            shots.run_profiled(program, &self.block_seeds(block), sink);
            match &table {
                Some(diag) => shots.diagonal_expectations(diag),
                None => (0..shots.n_shots())
                    .map(|s| shots.shot_expectation(s, observable))
                    .collect(),
            }
        })
    }

    /// Ensemble-mean expectation through the batched path, bit-identical
    /// to [`ReplayEngine::expectation`].
    pub fn expectation_batched(&self, program: &ReplayProgram, observable: &PauliSum) -> f64 {
        let values = self.expectations_batched(program, observable);
        values.iter().sum::<f64>() / values.len() as f64
    }

    /// Ensemble mean plus its standard error through the batched path,
    /// bit-identical to [`ReplayEngine::expectation_with_error`].
    pub fn expectation_with_error_batched(
        &self,
        program: &ReplayProgram,
        observable: &PauliSum,
    ) -> (f64, f64) {
        self.expectation_with_error_batched_profiled(program, observable, &NoProfile)
    }

    /// [`ReplayEngine::expectation_with_error_batched`] with an opt-in
    /// [`ProfileSink`] (see
    /// [`ReplayEngine::expectations_batched_profiled`]).
    pub fn expectation_with_error_batched_profiled<P: ProfileSink>(
        &self,
        program: &ReplayProgram,
        observable: &PauliSum,
        sink: &P,
    ) -> (f64, f64) {
        let values = self.expectations_batched_profiled(program, observable, sink);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        if values.len() < 2 {
            return (mean, 0.0);
        }
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    /// One computational-basis shot per trajectory through the batched
    /// path, bit-identical to [`ReplayEngine::sample_counts`].
    pub fn sample_counts_batched(&self, program: &ReplayProgram) -> Counts {
        self.sample_counts_with_batched(program, |bits, _| bits)
    }

    /// [`ReplayEngine::sample_counts_with`]'s batched counterpart: the
    /// corruption hook sees each shot's RNG exactly where the scalar
    /// engine leaves it (after the outcome draw).
    pub fn sample_counts_with_batched<F>(&self, program: &ReplayProgram, corrupt: F) -> Counts
    where
        F: Fn(usize, &mut StdRng) -> usize + Sync,
    {
        self.sample_counts_with_batched_profiled(program, corrupt, &NoProfile)
    }

    /// [`ReplayEngine::sample_counts_with_batched`] with an opt-in
    /// [`ProfileSink`] (see
    /// [`ReplayEngine::expectations_batched_profiled`]).
    pub fn sample_counts_with_batched_profiled<F, P>(
        &self,
        program: &ReplayProgram,
        corrupt: F,
        sink: &P,
    ) -> Counts
    where
        F: Fn(usize, &mut StdRng) -> usize + Sync,
        P: ProfileSink,
    {
        let outcomes: Vec<usize> = self.map_shot_blocks(program, |shots, block| {
            shots.run_profiled(program, &self.block_seeds(block), sink);
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
    use super::*;
    use crate::trajectory::TrajectoryEngine;
    use hgp_circuit::{Gate, Param};
    use hgp_math::c64;
    use hgp_math::pauli::{sigma_x, sigma_y, sigma_z, Pauli, PauliString, PauliSum};

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
            let fast = ReplayEngine::new(96, seed).expectations(&replay, &obs);
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
        let fast = ReplayEngine::new(48, 5).expectation_with_error(&replay, &obs);
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
        let fast = ReplayEngine::new(256, 11).sample_counts_with(&replay, corrupt);
        assert_eq!(reference, fast);
        assert_eq!(
            TrajectoryEngine::new(128, 3).sample_counts(&program),
            ReplayEngine::new(128, 3).sample_counts(&replay)
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
        let a = ReplayEngine::new(64, 4).expectations(&replay, &obs);
        let b = ReplayEngine::new(64, 4).expectations(&fresh, &obs);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn batched_replay_is_bit_identical_across_block_sizes() {
        let program = mixed_program();
        let replay = ReplayProgram::compile(&program);
        let obs = zz(3, 0, 2);
        let engine = ReplayEngine::new(97, 13);
        let scalar = engine.expectations(&replay, &obs);
        // Sizes that divide the ensemble, sizes that don't, a single-shot
        // block, one block for everything, and the width-derived default.
        for block in [1usize, 2, 3, 16, 64, 97, 200] {
            let batched = engine
                .with_block_size(block)
                .expectations_batched(&replay, &obs);
            assert_eq!(scalar.len(), batched.len());
            for (a, b) in scalar.iter().zip(batched.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "block size {block}");
            }
        }
        let batched = engine.expectations_batched(&replay, &obs);
        for (a, b) in scalar.iter().zip(batched.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batched_counts_and_errors_match_scalar_bitwise() {
        let program = mixed_program();
        let replay = ReplayProgram::compile(&program);
        let corrupt = |bits: usize, rng: &mut StdRng| {
            if rng.gen::<f64>() < 0.1 {
                bits ^ 0b011
            } else {
                bits
            }
        };
        let scalar = ReplayEngine::new(193, 21).sample_counts_with(&replay, corrupt);
        for block in [1usize, 5, 32, 193] {
            let batched = ReplayEngine::new(193, 21)
                .with_block_size(block)
                .sample_counts_with_batched(&replay, corrupt);
            assert_eq!(scalar, batched, "block size {block}");
        }
        assert_eq!(
            ReplayEngine::new(64, 3).sample_counts(&replay),
            ReplayEngine::new(64, 3).sample_counts_batched(&replay)
        );
        let obs = PauliSum::from_terms(vec![
            PauliString::new(3, vec![(0, Pauli::X), (2, Pauli::Z)], 0.5),
            PauliString::new(3, vec![(1, Pauli::Y)], 1.5),
        ]);
        let a = ReplayEngine::new(33, 2).expectation_with_error(&replay, &obs);
        let b = ReplayEngine::new(33, 2)
            .with_block_size(4)
            .expectation_with_error_batched(&replay, &obs);
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
        let a = engine.expectations_batched(&replay, &obs);
        let b = single.expectations_batched(&replay, &obs);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            engine.sample_counts_batched(&replay),
            single.sample_counts_batched(&replay)
        );
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
