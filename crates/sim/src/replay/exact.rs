//! Exact-path superoperator replay: the precompiled density-matrix tape.
//!
//! The exact density walk ([`crate::TrajectoryProgram::apply_exact`] over
//! a [`DensityMatrix`], which is what `Executor::run` drives) is the last
//! execution path that pays interpretation costs per dispatch: every run
//! re-derives each gate's matrix and diagonal, and every noise channel
//! goes through the generic Kraus embedding —
//! [`DensityMatrix::apply_kraus`] clones the full `rho` and performs two
//! embedded multiplies per Kraus operator, every time it fires.
//!
//! [`ExactReplayProgram`] compiles the recording once into a flat
//! superoperator tape, mirroring what [`super::ReplayProgram`] does for
//! trajectories:
//!
//! - maximal runs of consecutive diagonal gates fuse into a single
//!   elementwise sweep `rho[i][j] *= d(i) conj(d(j))` — one pass over
//!   the matrix regardless of run length, with per-gate factor tables so
//!   the per-entry multiply sequence is unchanged,
//! - dense gates and fixed unitaries carry their resolved matrices plus
//!   precomputed block offsets ([`DenseOp`]), applied as a left pass then
//!   a right pass per aligned row chunk — no `Gate::matrix()` calls, no
//!   index re-derivation,
//! - channels are resolved at compile time ([`ExactChannel`]):
//!   single-Kraus channels apply in place like a unitary (no clone, no
//!   accumulator), one- and two-qubit multi-Kraus channels collapse
//!   into a resolved superoperator (`4×4` / `16×16`) whose rows are
//!   hoisted into per-output term lists with exact zeros dropped
//!   (structured channels like Pauli mixes and dampings are mostly
//!   zeros), and wider multi-Kraus channels keep their Kraus matrices
//!   but work blockwise — `sum_k K B K†` per index block — in one pass
//!   over `rho` with no `dim²` clones,
//!
//! and [`ExactReplayEngine`] replays the tape over a reusable
//! [`ExactScratch`] arena, fanning row chunks out across rayon workers
//! once the matrix is large enough ([`kernels::PAR_QUBIT_THRESHOLD`]
//! total entries).
//!
//! # Arity-specialized sweeps
//!
//! Every kernel enumerates its blocks directly instead of testing each
//! row and column index against the target mask:
//!
//! - one-target sweeps (dense conjugations and resolved channels) walk
//!   row pairs `(i, i | bit)` as two disjoint row slices and column
//!   pairs `(j, j | bit)` block by block, with no branch per entry;
//! - two-target channel sweeps gather each 4×4 block at its fixed
//!   offsets and evaluate its sixteen term lists; two-target dense
//!   conjugations run on fixed-size copies of the matrix and offsets.
//!   Wider operators enumerate bases the same way over a gather buffer.
//!
//! Each output entry keeps the `mul_add` chain the sparse
//! row-by-row (CSR) interpreter these sweeps replaced evaluated: the
//! same coefficients, in ascending input-index order, started from
//! `ZERO`. The evolved state is therefore **bit-identical** to that
//! interpreter's — not merely close. The unit tests pin it directly: a
//! property test checks every sweep against a transliteration of the
//! CSR chain (and every dense conjugation against the density walk)
//! `to_bits` for every entry, on random damping, depolarizing,
//! dephasing and dense Kraus sets with targets on bit 0 and the top bit
//! at up to six qubits; a 10-qubit test checks every op shape swept
//! over aligned row chunks, as the fan-out path runs them, against one
//! whole-matrix sweep. The Table II goldens (`tests/table2_goldens.rs`)
//! pin the training outcome on top.
//!
//! # The parity contract
//!
//! The reference implementation stays exactly where it was: the
//! `ExactSink` schedule walk (`Executor::run`) driving
//! [`DensityMatrix`], equivalently
//! [`crate::TrajectoryProgram::apply_exact`] over the recorded program.
//! Against that reference the tape is
//!
//! - **bit-identical** wherever the arithmetic order is preserved:
//!   fused diagonal runs (same per-entry multiply sequence), dense
//!   gates/unitaries (the left-pass and right-pass block updates touch
//!   disjoint entries, so fusing them per aligned row chunk only
//!   reorders independent writes), and single-Kraus channels (the
//!   in-place fast path is the same two embedded multiplies without the
//!   redundant clone/accumulate),
//! - **≤ 1e-12 elementwise** for resolved multi-Kraus channels, where
//!   summing over Kraus terms per entry (instead of per full-matrix
//!   sweep) reassociates the additions, and dropping an exact-zero term
//!   can at most flip the sign of a zero,
//!
//! and parallel execution is deterministic: chunk boundaries are aligned
//! to every operator's block structure, so per-entry arithmetic is
//! independent of the worker count. Trace preservation and Hermiticity
//! are property-tested alongside the elementwise pins in
//! `crates/sim/tests/exact_replay_parity.rs`.
//!
//! # Remaining headroom
//!
//! Two known savings are deliberately not taken, because each
//! reassociates arithmetic and would move every training golden:
//! Hermitian-half storage (sweep only `j >= i` and mirror — the mirrored
//! entry's chain would no longer be its own) and fusing adjacent
//! channels into one resolved superoperator (products of coefficients
//! replace two rounded sweeps). Dense conjugations keep their two
//! passes (all left updates of a chunk, then all right updates), the
//! structure the parity argument above rests on.
//!
//! # Example
//!
//! ```
//! use hgp_circuit::Gate;
//! use hgp_sim::{DensityMatrix, ExactReplayEngine, ExactReplayProgram, TrajectoryProgram};
//!
//! let mut program = TrajectoryProgram::new(2);
//! program.push_gate(Gate::H, &[0]);
//! program.push_gate(Gate::CX, &[0, 1]);
//! let tape = ExactReplayProgram::compile(&program);
//! let rho = ExactReplayEngine::evolve(&tape);
//!
//! let mut reference = DensityMatrix::zero_state(2);
//! program.apply_exact(&mut reference);
//! assert_eq!(rho, reference); // unitary-only tape: bit-identical
//! ```

use std::sync::Arc;

use rayon::prelude::*;

use hgp_math::{Complex64, Matrix};
use hgp_obs::profile::{timed, NoProfile, ProfileSink, ReplayOpKind};

use crate::density::DensityMatrix;
use crate::kernels::{self, DiagOp};
use crate::trajectory::{ChannelOp, TrajectoryOp, TrajectoryProgram};

use super::ReplaySlot;

/// Minimum rows per parallel chunk (widened to each op's alignment).
const PAR_CHUNK_ROWS: usize = 64;

/// Whether a sweep over `entries` matrix elements is worth fanning out.
///
/// Uses the same total-amplitude threshold as the statevector kernels:
/// for a density matrix, `dim² >= 2^PAR_QUBIT_THRESHOLD` means 10+
/// qubits.
#[inline]
fn fan_out(entries: usize) -> bool {
    entries >= (1 << kernels::PAR_QUBIT_THRESHOLD) && rayon::current_num_threads() > 1
}

/// Chunk height for an op whose blocks must stay chunk-local: a power
/// of two at least `align_rows`.
#[inline]
fn chunk_height(align_rows: usize) -> usize {
    align_rows.max(PAR_CHUNK_ROWS)
}

/// Runs `sweep(rows, row0)` over the whole row-major matrix, or over
/// row chunks on the rayon pool once [`fan_out`] says so. Each chunk
/// starts on a multiple of `align_rows` (a power of two), so every
/// operator block stays chunk-local, a local row index carries the same
/// target bits as the absolute one, and each entry's arithmetic is
/// independent of the worker count.
fn sweep_rows(
    data: &mut [Complex64],
    dim: usize,
    align_rows: usize,
    sweep: impl Fn(&mut [Complex64], usize) + Sync,
) {
    let height = chunk_height(align_rows);
    if fan_out(data.len()) && dim > height {
        data.par_chunks_mut(height * dim)
            .enumerate()
            .for_each(|(c, chunk)| sweep(chunk, c * height));
    } else {
        sweep(data, 0);
    }
}

/// Block bases below `end` for the target bits in `mask`: the indices
/// with every mask bit clear, ascending. Each next base sets the mask
/// bits, carries past them and clears them again, so no index is
/// visited only to be skipped.
#[inline]
fn block_bases(mask: usize, end: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(0usize), move |&b| Some(((b | mask) + 1) & !mask))
        .take_while(move |&b| b < end)
}

/// Calls `f` on every `(lo, hi)` entry pair of `data` whose flat
/// indices differ by exactly `stride` within a `2 * stride` block — for
/// `stride = bit` the column pairs `(j, j | bit)`, for
/// `stride = bit * dim` the row pairs `(i, i | bit)`. `data` must be a
/// whole number of blocks.
#[inline(always)]
fn for_pairs(
    data: &mut [Complex64],
    stride: usize,
    mut f: impl FnMut(&mut Complex64, &mut Complex64),
) {
    if stride == 1 {
        // Adjacent pairs: one flat walk instead of a block per pair.
        for [lo, hi] in data.as_chunks_mut::<2>().0 {
            f(lo, hi);
        }
        return;
    }
    for block in data.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        for (lo, hi) in lo.iter_mut().zip(hi) {
            f(lo, hi);
        }
    }
}

/// A dense operator with its embedding resolved at compile time:
/// matrix, target bit mask, and the `2^k` block row offsets that
/// `DensityMatrix::apply_left`/`apply_right_dagger` re-derive per call.
#[derive(Debug, Clone)]
struct DenseOp {
    /// The resolved operator (`2^k` square). Behind an [`Arc`] so
    /// template binds — which clone the tape and substitute only
    /// parametric slots — share shape-constant matrices.
    matrix: Arc<Matrix>,
    /// OR of the target bit masks.
    all_mask: usize,
    /// `offs[r]` = index bits operator row `r` contributes
    /// (MSB-first target convention, `base | offs[r]` = absolute row).
    offs: Vec<usize>,
    /// Row-chunk alignment keeping every block chunk-local:
    /// `2^(max target bit + 1)`.
    align_rows: usize,
}

impl DenseOp {
    fn new(matrix: Arc<Matrix>, targets: &[usize]) -> Self {
        let k = targets.len();
        assert_eq!(matrix.rows(), 1 << k, "operator dimension mismatch");
        let masks: Vec<usize> = targets.iter().map(|&t| 1usize << t).collect();
        let all_mask: usize = masks.iter().sum();
        let offs: Vec<usize> = (0..1usize << k)
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
        let align_rows = targets.iter().map(|&t| 2usize << t).max().unwrap_or(1);
        Self {
            matrix,
            all_mask,
            offs,
            align_rows,
        }
    }

    /// `rho -> M rho M†` over row-major `data`.
    ///
    /// Bit-identical to `apply_left` followed by `apply_right_dagger`:
    /// the left pass's (base, col) block updates and the right pass's
    /// row-local updates touch disjoint entry sets, so sweeping aligned
    /// row chunks (left then right per chunk) only reorders independent
    /// writes — for any chunking and any worker count.
    fn conjugate(&self, data: &mut [Complex64], dim: usize) {
        sweep_rows(data, dim, self.align_rows, |chunk, row0| {
            self.conjugate_rows(chunk, row0, dim)
        });
    }

    /// Conjugates the rows `row0..` held in `chunk`, enumerating blocks
    /// from the chunk's own (block-aligned) start.
    fn conjugate_rows(&self, chunk: &mut [Complex64], row0: usize, dim: usize) {
        debug_assert_eq!(row0 % self.align_rows, 0, "chunk is not block-aligned");
        let m = self.matrix.as_slice();
        match self.offs.len() {
            2 => self.conjugate_rows_1q(chunk, dim),
            // Fixed-size copies let the two-qubit sweep unroll.
            4 => {
                let m: [Complex64; 16] = m.try_into().expect("4x4 operator");
                let offs: [usize; 4] = self.offs[..].try_into().expect("4 offsets");
                let vin = &mut [Complex64::ZERO; 4];
                conjugate_blocks(&m, self.all_mask, &offs, vin, chunk, dim)
            }
            n => conjugate_blocks(
                m,
                self.all_mask,
                &self.offs,
                &mut vec![Complex64::ZERO; n],
                chunk,
                dim,
            ),
        }
    }

    /// One-qubit specialization of [`conjugate_blocks`]:
    /// matrix entries (and their conjugates for the right pass) hoist
    /// out of the sweeps, and both passes walk `(lo, hi)` entry pairs
    /// directly — rows `(i, i | bit)` for the left pass, columns
    /// `(j, j | bit)` for the right. Each entry's accumulation chain is
    /// exactly the generic `m[r][1].mul_add(v1, m[r][0].mul_add(v0, 0))`
    /// — bit parity holds.
    fn conjugate_rows_1q(&self, chunk: &mut [Complex64], dim: usize) {
        let m = self.matrix.as_ref();
        let bit = self.offs[1];
        let (m00, m01) = (m[(0, 0)], m[(0, 1)]);
        let (m10, m11) = (m[(1, 0)], m[(1, 1)]);
        // Left pass: rho -> M rho.
        for_pairs(chunk, bit * dim, |lo, hi| {
            let (v0, v1) = (*lo, *hi);
            // hgp-analysis: allow(d4) -- this fused chain IS the pinned
            // reference arithmetic the parity tests fix.
            *lo = m01.mul_add(v1, m00.mul_add(v0, Complex64::ZERO));
            // hgp-analysis: allow(d4) -- same pinned reference chain.
            *hi = m11.mul_add(v1, m10.mul_add(v0, Complex64::ZERO));
        });
        // Right pass: rho -> rho M†. `dim` is a multiple of `2 * bit`,
        // so column pairs never straddle a row.
        let (c00, c01) = (m00.conj(), m01.conj());
        let (c10, c11) = (m10.conj(), m11.conj());
        for_pairs(chunk, bit, |lo, hi| {
            let (v0, v1) = (*lo, *hi);
            // hgp-analysis: allow(d4) -- this fused chain IS the pinned
            // reference arithmetic the parity tests fix.
            *lo = c01.mul_add(v1, c00.mul_add(v0, Complex64::ZERO));
            // hgp-analysis: allow(d4) -- same pinned reference chain.
            *hi = c11.mul_add(v1, c10.mul_add(v0, Complex64::ZERO));
        });
    }
}

/// The dense block conjugation `rho -> M rho M†` for any arity, over
/// a row-major `2^k`-square `m`, the block offsets `offs`, and a
/// `2^k`-entry gather buffer `vin`. Each output is the chain
/// `m[r][c].mul_add(v_c, ..)` over ascending `c` from `ZERO`.
#[inline(always)]
fn conjugate_blocks(
    m: &[Complex64],
    mask: usize,
    offs: &[usize],
    vin: &mut [Complex64],
    chunk: &mut [Complex64],
    dim: usize,
) {
    let n = offs.len();
    let rows = chunk.len() / dim;
    // Left pass: rho -> M rho, per block row set, column by column.
    for base in block_bases(mask, rows) {
        for col in 0..dim {
            for (v, &off) in vin.iter_mut().zip(offs) {
                *v = chunk[(base + off) * dim + col];
            }
            for (r, &off) in offs.iter().enumerate() {
                let mut acc = Complex64::ZERO;
                for (&mrc, &v) in m[r * n..(r + 1) * n].iter().zip(vin.iter()) {
                    // hgp-analysis: allow(d4) -- this fused chain IS the
                    // pinned reference arithmetic the parity tests fix.
                    acc = mrc.mul_add(v, acc);
                }
                chunk[(base + off) * dim + col] = acc;
            }
        }
    }
    // Right pass: rho -> rho M†, row-local.
    for row in chunk.chunks_exact_mut(dim) {
        for base in block_bases(mask, dim) {
            for (v, &off) in vin.iter_mut().zip(offs) {
                *v = row[base + off];
            }
            // (rho M†)[row, c'] = sum_c rho[row, c] conj(M[c', c])
            for (cp, &off) in offs.iter().enumerate() {
                let mut acc = Complex64::ZERO;
                for (&mcc, &v) in m[cp * n..(cp + 1) * n].iter().zip(vin.iter()) {
                    // hgp-analysis: allow(d4) -- this fused chain IS the
                    // pinned reference arithmetic the parity tests fix.
                    acc = mcc.conj().mul_add(v, acc);
                }
                row[base + off] = acc;
            }
        }
    }
}

/// Widest channel resolved into a [`SuperOp`]: at two targets the
/// superoperator is 16×16 (4 KiB dense, far less sparse) and already
/// far cheaper than per-Kraus block products; at three it would be
/// 64×64 per block and the blockwise Kraus form wins again.
const SUPEROP_MAX_TARGETS: usize = 2;

/// One output entry of a resolved superoperator, hoisted out of its row
/// at compile time: the row's nonzero terms in ascending input-index
/// order. [`Chain::eval`] folds them with `mul_add` starting from
/// `ZERO` — the chain a sparse row-by-row sweep evaluates.
#[derive(Debug, Clone, Copy)]
struct Chain<const N: usize> {
    len: usize,
    /// Input entry `r * block + c` of each term.
    idx: [u8; N],
    coef: [Complex64; N],
}

impl<const N: usize> Chain<N> {
    /// The chain of one dense superoperator row (`N` entries). Exact
    /// zeros are dropped: structured channels are mostly zeros —
    /// damping/dephasing Kraus sets are diagonal or single-entry, and
    /// Pauli-mix channels cancel pairwise to IEEE-exact `0.0`
    /// (equal-magnitude subtraction is exact).
    fn from_row(row: &[Complex64]) -> Self {
        let mut chain = Chain {
            len: 0,
            idx: [0; N],
            coef: [Complex64::ZERO; N],
        };
        for (i, &z) in row.iter().enumerate() {
            if z.re != 0.0 || z.im != 0.0 {
                chain.idx[chain.len] = i as u8;
                chain.coef[chain.len] = z;
                chain.len += 1;
            }
        }
        chain
    }

    /// Evaluates the chain over one gathered block `v`. The one- and
    /// two-term chains — every coherence of a damping, dephasing or
    /// Pauli channel — are unrolled; longer ones fold in order.
    #[inline(always)]
    fn eval(&self, v: &[Complex64; N]) -> Complex64 {
        // hgp-analysis: allow(d4) -- this fused chain IS the pinned
        // reference arithmetic the parity tests fix.
        let term = |t: usize, acc| self.coef[t].mul_add(v[self.idx[t] as usize], acc);
        match self.len {
            0 => Complex64::ZERO,
            1 => term(0, Complex64::ZERO),
            2 => term(1, term(0, Complex64::ZERO)),
            len => (0..len).fold(Complex64::ZERO, |acc, t| term(t, acc)),
        }
    }
}

/// A small (≤ [`SUPEROP_MAX_TARGETS`]-qubit) multi-Kraus channel
/// resolved into its superoperator
/// `s[(a,b)][(r,c)] = sum_k K_k[a,r] conj(K_k[b,c])`, one [`Chain`] per
/// output entry `a * block + b`, swept over (row-block, col-block)
/// index pairs in one pass — no per-Kraus `rho` clone, and no
/// per-Kraus arithmetic at all. Each arity has its own straight-line
/// sweep.
#[derive(Debug, Clone)]
enum SuperOp {
    /// One target `bit`: 2×2 blocks `(i | a·bit, j | b·bit)`.
    OneQubit {
        bit: usize,
        chains: Box<[Chain<4>; 4]>,
    },
    /// Two targets: 4×4 blocks at the offsets `offs` (MSB-first).
    TwoQubit {
        all_mask: usize,
        offs: [usize; 4],
        align_rows: usize,
        chains: Box<[Chain<16>; 16]>,
    },
}

impl SuperOp {
    fn compile(kraus: &[Matrix], targets: &[usize]) -> Self {
        let geom = DenseOp::new(Arc::new(kraus[0].clone()), targets);
        let dense = resolve_superop(kraus, geom.offs.len());
        match geom.offs.len() {
            2 => SuperOp::OneQubit {
                bit: geom.offs[1],
                chains: Box::new(std::array::from_fn(|o| {
                    Chain::from_row(&dense[o * 4..(o + 1) * 4])
                })),
            },
            4 => SuperOp::TwoQubit {
                all_mask: geom.all_mask,
                offs: [geom.offs[0], geom.offs[1], geom.offs[2], geom.offs[3]],
                align_rows: geom.align_rows,
                chains: Box::new(std::array::from_fn(|o| {
                    Chain::from_row(&dense[o * 16..(o + 1) * 16])
                })),
            },
            block => unreachable!("SuperOp is capped at 2 targets, got block {block}"),
        }
    }

    fn align_rows(&self) -> usize {
        match self {
            SuperOp::OneQubit { bit, .. } => 2 * bit,
            SuperOp::TwoQubit { align_rows, .. } => *align_rows,
        }
    }

    fn apply(&self, data: &mut [Complex64], dim: usize) {
        sweep_rows(data, dim, self.align_rows(), |chunk, row0| {
            self.apply_rows(chunk, row0, dim)
        });
    }

    /// Sweeps the rows `row0..` held in `chunk`, enumerating blocks from
    /// the chunk's own (block-aligned) start.
    fn apply_rows(&self, chunk: &mut [Complex64], row0: usize, dim: usize) {
        debug_assert_eq!(row0 % self.align_rows(), 0, "chunk is not block-aligned");
        match self {
            SuperOp::OneQubit { bit, chains } => sweep_1q(chains, *bit, chunk, dim),
            SuperOp::TwoQubit {
                all_mask,
                offs,
                chains,
                ..
            } => sweep_2q(chains, *all_mask, offs, chunk, dim),
        }
    }
}

/// The dense `block² × block²` superoperator of a Kraus set, row-major
/// over output entries `a * block + b`, input entries `r * block + c`.
fn resolve_superop(kraus: &[Matrix], block: usize) -> Vec<Complex64> {
    let entries = block * block;
    let mut dense = vec![Complex64::ZERO; entries * entries];
    for k in kraus {
        for a in 0..block {
            for b in 0..block {
                for r in 0..block {
                    for c in 0..block {
                        dense[(a * block + b) * entries + r * block + c] +=
                            k[(a, r)] * k[(b, c)].conj();
                    }
                }
            }
        }
    }
    dense
}

/// The one-target channel sweep: row pairs `(i, i | bit)` as two
/// disjoint row slices, column pairs `(j, j | bit)` by block within
/// them; block entry `r * 2 + c` sits at row offset `r`, column offset
/// `c`.
fn sweep_1q(chains: &[Chain<4>; 4], bit: usize, chunk: &mut [Complex64], dim: usize) {
    let [s00, s01, s10, s11] = chains;
    for rows in chunk.chunks_exact_mut(2 * bit * dim) {
        let (top, bottom) = rows.split_at_mut(bit * dim);
        let blocks = top
            .chunks_exact_mut(2 * bit)
            .zip(bottom.chunks_exact_mut(2 * bit));
        for (t, b) in blocks {
            let (t0, t1) = t.split_at_mut(bit);
            let (b0, b1) = b.split_at_mut(bit);
            for ((x00, x01), (x10, x11)) in t0.iter_mut().zip(t1).zip(b0.iter_mut().zip(b1)) {
                let v = [*x00, *x01, *x10, *x11];
                *x00 = s00.eval(&v);
                *x01 = s01.eval(&v);
                *x10 = s10.eval(&v);
                *x11 = s11.eval(&v);
            }
        }
    }
}

/// The two-target channel sweep over every (row base, column base) pair
/// of 4×4 blocks.
fn sweep_2q(
    chains: &[Chain<16>; 16],
    mask: usize,
    offs: &[usize; 4],
    chunk: &mut [Complex64],
    dim: usize,
) {
    let rows = chunk.len() / dim;
    for bi in block_bases(mask, rows) {
        let at = offs.map(|ro| (bi + ro) * dim);
        for bj in block_bases(mask, dim) {
            let mut v = [Complex64::ZERO; 16];
            for (r, &row) in at.iter().enumerate() {
                for (c, &co) in offs.iter().enumerate() {
                    v[r * 4 + c] = chunk[row + bj + co];
                }
            }
            for (r, &row) in at.iter().enumerate() {
                for (c, &co) in offs.iter().enumerate() {
                    chunk[row + bj + co] = chains[r * 4 + c].eval(&v);
                }
            }
        }
    }
}

/// A multi-qubit multi-Kraus channel: Kraus matrices precompiled
/// alongside the block offsets, applied blockwise — for each (row base,
/// col base) pair, load the `2^k × 2^k` sub-block `B` and replace it
/// with `sum_k K_k B K_k†` — in one pass over `rho`, no full clones.
#[derive(Debug, Clone)]
struct KrausBlocks {
    kraus: Vec<Matrix>,
    all_mask: usize,
    offs: Vec<usize>,
    align_rows: usize,
}

impl KrausBlocks {
    fn apply(&self, data: &mut [Complex64], dim: usize) {
        sweep_rows(data, dim, self.align_rows, |chunk, row0| {
            self.apply_rows(chunk, row0, dim)
        });
    }

    /// Sweeps the rows `row0..` held in `chunk`, enumerating blocks from
    /// the chunk's own (block-aligned) start.
    fn apply_rows(&self, chunk: &mut [Complex64], row0: usize, dim: usize) {
        debug_assert_eq!(row0 % self.align_rows, 0, "chunk is not block-aligned");
        let block = self.offs.len();
        let rows = chunk.len() / dim;
        let mut b = vec![Complex64::ZERO; block * block];
        let mut kb = vec![Complex64::ZERO; block * block];
        let mut acc = vec![Complex64::ZERO; block * block];
        for bi in block_bases(self.all_mask, rows) {
            for bj in block_bases(self.all_mask, dim) {
                for (r, &ro) in self.offs.iter().enumerate() {
                    let row = (bi + ro) * dim + bj;
                    for (c, &co) in self.offs.iter().enumerate() {
                        b[r * block + c] = chunk[row + co];
                    }
                }
                acc.fill(Complex64::ZERO);
                for k in &self.kraus {
                    // kb = K b
                    for a in 0..block {
                        for c in 0..block {
                            let mut s = Complex64::ZERO;
                            for r in 0..block {
                                // hgp-analysis: allow(d4) -- this fused chain IS
                                // the pinned reference arithmetic the parity
                                // tests fix.
                                s = k[(a, r)].mul_add(b[r * block + c], s);
                            }
                            kb[a * block + c] = s;
                        }
                    }
                    // acc += kb K†: acc[a, b'] += sum_c kb[a, c] conj(K[b', c])
                    for a in 0..block {
                        for bp in 0..block {
                            let mut s = acc[a * block + bp];
                            for c in 0..block {
                                // hgp-analysis: allow(d4) -- this fused chain IS
                                // the pinned reference arithmetic the parity
                                // tests fix.
                                s = k[(bp, c)].conj().mul_add(kb[a * block + c], s);
                            }
                            acc[a * block + bp] = s;
                        }
                    }
                }
                for (r, &ro) in self.offs.iter().enumerate() {
                    let row = (bi + ro) * dim + bj;
                    for (c, &co) in self.offs.iter().enumerate() {
                        chunk[row + co] = acc[r * block + c];
                    }
                }
            }
        }
    }
}

/// A noise channel resolved into its cheapest exact form at compile
/// time.
#[derive(Debug, Clone)]
enum ExactChannel {
    /// Single-Kraus channel: applied in place like a unitary — no
    /// clone, no accumulator.
    Unitary(DenseOp),
    /// One- or two-qubit multi-Kraus channel as a sparse resolved
    /// superoperator.
    Super(SuperOp),
    /// Wider multi-Kraus channel, blockwise `sum_k K B K†`.
    Blocks(KrausBlocks),
}

impl ExactChannel {
    fn compile(channel: &ChannelOp, targets: &[usize]) -> Self {
        let kraus = channel.kraus();
        if kraus.len() == 1 {
            return ExactChannel::Unitary(DenseOp::new(Arc::new(kraus[0].clone()), targets));
        }
        if targets.len() <= SUPEROP_MAX_TARGETS {
            return ExactChannel::Super(SuperOp::compile(kraus, targets));
        }
        // Reuse DenseOp's offset derivation for the block geometry.
        let geom = DenseOp::new(Arc::new(kraus[0].clone()), targets);
        ExactChannel::Blocks(KrausBlocks {
            kraus: kraus.to_vec(),
            all_mask: geom.all_mask,
            offs: geom.offs,
            align_rows: geom.align_rows,
        })
    }

    fn apply(&self, data: &mut [Complex64], dim: usize) {
        match self {
            ExactChannel::Unitary(op) => op.conjugate(data, dim),
            ExactChannel::Super(s) => s.apply(data, dim),
            ExactChannel::Blocks(b) => b.apply(data, dim),
        }
    }

    /// The profiling bucket this channel shape is attributed to: the
    /// in-place single-Kraus path profiles like a mixed-unitary pick,
    /// resolved superoperators and blockwise Kraus sums like a general
    /// channel.
    fn profile_kind(&self) -> ReplayOpKind {
        match self {
            ExactChannel::Unitary(_) => ReplayOpKind::MixedChannel,
            ExactChannel::Super(_) | ExactChannel::Blocks(_) => ReplayOpKind::GeneralChannel,
        }
    }
}

/// One instruction of a compiled exact tape.
#[derive(Debug, Clone)]
enum ExactOp {
    /// A fused run of consecutive diagonal gates: one elementwise sweep
    /// over `diag[start..start + len]`.
    DiagRun { start: usize, len: usize },
    /// A dense operator conjugation `rho -> M rho M†`.
    Apply(DenseOp),
    /// A precompiled channel.
    Channel(usize),
}

/// A flat, precompiled superoperator tape for the exact density-matrix
/// path. See the module docs.
#[derive(Debug, Clone)]
pub struct ExactReplayProgram {
    n_qubits: usize,
    ops: Vec<ExactOp>,
    /// Arena of fused diagonal ops, referenced by [`ExactOp::DiagRun`].
    diag: Vec<DiagOp>,
    /// Resolved channels, shared (never parametric) across template
    /// binds.
    channels: Arc<Vec<ExactChannel>>,
    /// Longest fused diagonal run — sizes the factor-table scratch.
    max_run: usize,
}

impl ExactReplayProgram {
    /// Compiles a recorded trajectory program into an exact tape.
    pub fn compile(program: &TrajectoryProgram) -> Self {
        Self::compile_with_slots(program).0
    }

    /// [`ExactReplayProgram::compile`] returning, for each trajectory
    /// op, the tape slot it compiled into (in trajectory-op order) —
    /// the substitution map exact schedule templates are built from.
    pub fn compile_with_slots(program: &TrajectoryProgram) -> (Self, Vec<ReplaySlot>) {
        let mut ops: Vec<ExactOp> = Vec::new();
        let mut diag: Vec<DiagOp> = Vec::new();
        let mut channels: Vec<ExactChannel> = Vec::new();
        let mut slots: Vec<ReplaySlot> = Vec::with_capacity(program.ops().len());
        let mut run_open = false;
        for op in program.ops() {
            match op {
                TrajectoryOp::Gate { gate, qubits } => {
                    // Mirror DensityMatrix::apply_gate's dispatch rule:
                    // diagonal gates take the phase-only path, everything
                    // else the dense kernels.
                    if let Some(d) = DiagOp::from_gate(gate, qubits) {
                        slots.push(ReplaySlot::Diag(diag.len()));
                        if run_open {
                            match ops.last_mut() {
                                Some(ExactOp::DiagRun { len, .. }) => *len += 1,
                                _ => unreachable!("open run is the last op"),
                            }
                        } else {
                            ops.push(ExactOp::DiagRun {
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
                    ops.push(ExactOp::Apply(DenseOp::new(
                        Arc::new(gate.matrix().expect("trajectory programs are bound")),
                        qubits,
                    )));
                }
                TrajectoryOp::Unitary { matrix, targets } => {
                    run_open = false;
                    slots.push(ReplaySlot::Op(ops.len()));
                    ops.push(ExactOp::Apply(DenseOp::new(
                        Arc::new(matrix.clone()),
                        targets,
                    )));
                }
                TrajectoryOp::Channel { channel, targets } => {
                    run_open = false;
                    slots.push(ReplaySlot::Channel(channels.len()));
                    ops.push(ExactOp::Channel(channels.len()));
                    channels.push(ExactChannel::compile(channel, targets));
                }
            }
        }
        let max_run = ops
            .iter()
            .map(|op| match op {
                ExactOp::DiagRun { len, .. } => *len,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        (
            Self {
                n_qubits: program.n_qubits(),
                ops,
                diag,
                channels: Arc::new(channels),
                max_run,
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

    /// Number of resolved channels.
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

    /// Overwrites a dense slot's matrix — the template substitution
    /// step for re-integrated pulse unitaries and re-bound dense gates.
    /// The precomputed block offsets are shape-constant and stay.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not a dense op or the dimension disagrees
    /// with the recorded targets.
    pub fn substitute_unitary(&mut self, slot: ReplaySlot, m: &Matrix) {
        match slot {
            ReplaySlot::Op(i) => match &mut self.ops[i] {
                ExactOp::Apply(dense) => {
                    assert_eq!(m.rows(), dense.offs.len(), "dimension mismatch");
                    dense.matrix = Arc::new(m.clone());
                }
                other => panic!("slot points at {other:?}, not a dense op"),
            },
            other => panic!("slot {other:?} is not a dense op"),
        }
    }

    /// Replays the tape into the scratch state (resetting it to
    /// `|0...0><0...0|` first). The hot loop performs no per-op
    /// allocation beyond tiny per-chunk block buffers.
    pub fn run_into(&self, scratch: &mut ExactScratch) {
        self.run_into_profiled(scratch, &NoProfile);
    }

    /// [`ExactReplayProgram::run_into`] with an opt-in [`ProfileSink`]
    /// attributing each tape op's wall time to its [`ReplayOpKind`]
    /// (dense conjugations by arity, channels via
    /// `ExactChannel::profile_kind`; the exact path never
    /// renormalizes). With [`NoProfile`] this monomorphizes to the
    /// unprofiled loop exactly; any sink leaves the sweeps untouched,
    /// so the evolved state stays bit-identical.
    pub fn run_into_profiled<P: ProfileSink>(&self, scratch: &mut ExactScratch, sink: &P) {
        assert_eq!(scratch.rho.n_qubits(), self.n_qubits, "scratch width");
        scratch.rho.reset_zero();
        let dim = scratch.rho.dim();
        for op in &self.ops {
            match op {
                ExactOp::DiagRun { start, len } => timed(sink, ReplayOpKind::DiagRun, || {
                    apply_diag_run(
                        &self.diag[*start..*start + *len],
                        &mut scratch.factors,
                        scratch.rho.data_mut(),
                        dim,
                    )
                }),
                ExactOp::Apply(dense) => {
                    let kind = if dense.offs.len() == 2 {
                        ReplayOpKind::Dense1q
                    } else {
                        ReplayOpKind::Dense2q
                    };
                    timed(sink, kind, || dense.conjugate(scratch.rho.data_mut(), dim))
                }
                ExactOp::Channel(i) => {
                    let channel = &self.channels[*i];
                    timed(sink, channel.profile_kind(), || {
                        channel.apply(scratch.rho.data_mut(), dim)
                    })
                }
            }
        }
    }
}

/// Applies a fused diagonal run: per-gate factor tables, then one
/// elementwise sweep multiplying each entry by every gate's
/// `d(i) conj(d(j))` in op order — the same per-entry multiply sequence
/// as gate-at-a-time `apply_diagonal_unitary`, hence bit-identical.
fn apply_diag_run(
    run: &[DiagOp],
    factors: &mut Vec<Complex64>,
    data: &mut [Complex64],
    dim: usize,
) {
    factors.clear();
    for op in run {
        for i in 0..dim {
            factors.push(op.factor(i));
        }
    }
    let tables: &[Complex64] = factors;
    sweep_rows(data, dim, 1, |chunk, row0| {
        diag_sweep(tables, chunk, row0, dim)
    });
}

fn diag_sweep(tables: &[Complex64], chunk: &mut [Complex64], row0: usize, dim: usize) {
    for (local, row) in chunk.chunks_exact_mut(dim).enumerate() {
        let i = row0 + local;
        for (j, entry) in row.iter_mut().enumerate() {
            for tab in tables.chunks_exact(dim) {
                *entry *= tab[i] * tab[j].conj();
            }
        }
    }
}

/// Reusable replay arena: the density matrix plus the diagonal
/// factor-table scratch.
#[derive(Debug, Clone)]
pub struct ExactScratch {
    rho: DensityMatrix,
    factors: Vec<Complex64>,
}

impl ExactScratch {
    /// Allocates an arena sized for `program`.
    pub fn for_program(program: &ExactReplayProgram) -> Self {
        let dim = 1usize << program.n_qubits;
        Self {
            rho: DensityMatrix::zero_state(program.n_qubits),
            factors: Vec::with_capacity(program.max_run * dim),
        }
    }

    /// The current state (the result of the last replay).
    pub fn state(&self) -> &DensityMatrix {
        &self.rho
    }
}

/// Replays [`ExactReplayProgram`] tapes over a reusable arena.
///
/// Unlike the trajectory [`super::ReplayEngine`] there is no ensemble:
/// one replay produces the exact mixed state. The engine exists so
/// repeated dispatches (serving, optimization loops) reuse the `4^n`
/// allocation.
#[derive(Debug, Clone)]
pub struct ExactReplayEngine {
    scratch: ExactScratch,
}

impl ExactReplayEngine {
    /// Allocates an engine sized for `program`.
    pub fn for_program(program: &ExactReplayProgram) -> Self {
        Self {
            scratch: ExactScratch::for_program(program),
        }
    }

    /// Replays the tape from `|0...0><0...0|` and returns the resulting
    /// state (borrowed from the arena).
    pub fn run(&mut self, program: &ExactReplayProgram) -> &DensityMatrix {
        program.run_into(&mut self.scratch);
        self.scratch.state()
    }

    /// [`ExactReplayEngine::run`] with an opt-in [`ProfileSink`] (see
    /// [`ExactReplayProgram::run_into_profiled`]).
    pub fn run_profiled<P: ProfileSink>(
        &mut self,
        program: &ExactReplayProgram,
        sink: &P,
    ) -> &DensityMatrix {
        program.run_into_profiled(&mut self.scratch, sink);
        self.scratch.state()
    }

    /// Consumes the engine, yielding the arena's state.
    pub fn into_state(self) -> DensityMatrix {
        self.scratch.rho
    }

    /// One-shot convenience: compile-free replay to an owned state.
    pub fn evolve(program: &ExactReplayProgram) -> DensityMatrix {
        let mut engine = Self::for_program(program);
        program.run_into(&mut engine.scratch);
        engine.into_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_circuit::{Gate, Param};
    use hgp_math::c64;
    use hgp_math::pauli::{sigma_x, sigma_y, sigma_z};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn depolarizing_op(p: f64) -> ChannelOp {
        let kraus = vec![
            Matrix::identity(2).scale(c64((1.0 - 3.0 * p / 4.0).sqrt(), 0.0)),
            sigma_x().scale(c64((p / 4.0).sqrt(), 0.0)),
            sigma_y().scale(c64((p / 4.0).sqrt(), 0.0)),
            sigma_z().scale(c64((p / 4.0).sqrt(), 0.0)),
        ];
        ChannelOp::general(kraus)
    }

    fn two_qubit_dephasing(p: f64) -> ChannelOp {
        let id = Matrix::identity(4).scale(c64((1.0 - p).sqrt(), 0.0));
        let zz = Matrix::from_vec(
            4,
            4,
            vec![
                c64(1.0, 0.0),
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                c64(-1.0, 0.0),
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                c64(-1.0, 0.0),
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                c64(1.0, 0.0),
            ],
        )
        .scale(c64(p.sqrt(), 0.0));
        ChannelOp::general(vec![id, zz])
    }

    fn reference(program: &TrajectoryProgram) -> DensityMatrix {
        let mut rho = DensityMatrix::zero_state(program.n_qubits());
        program.apply_exact(&mut rho);
        rho
    }

    fn assert_close(a: &DensityMatrix, b: &DensityMatrix, tol: f64) {
        let dim = a.dim();
        for i in 0..dim {
            for j in 0..dim {
                assert!(
                    (a.get(i, j) - b.get(i, j)).norm() <= tol,
                    "mismatch at ({i},{j}): {:?} vs {:?}",
                    a.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn unitary_only_tape_is_bit_identical() {
        let mut program = TrajectoryProgram::new(3);
        program.push_gate(Gate::H, &[0]);
        program.push_gate(Gate::Rz(Param::bound(0.7)), &[0]);
        program.push_gate(Gate::Rzz(Param::bound(-0.4)), &[0, 2]);
        program.push_gate(Gate::CZ, &[1, 2]);
        program.push_gate(Gate::CX, &[0, 1]);
        program.push_unitary(Gate::Rx(Param::bound(1.1)).matrix().unwrap(), &[2]);
        let tape = ExactReplayProgram::compile(&program);
        assert_eq!(ExactReplayEngine::evolve(&tape), reference(&program));
    }

    #[test]
    fn single_kraus_channel_is_bit_identical() {
        let mut program = TrajectoryProgram::new(2);
        program.push_gate(Gate::H, &[0]);
        program.push_channel(
            ChannelOp::general(vec![Gate::CX.matrix().unwrap()]),
            &[0, 1],
        );
        let tape = ExactReplayProgram::compile(&program);
        assert_eq!(ExactReplayEngine::evolve(&tape), reference(&program));
    }

    #[test]
    fn multi_kraus_channels_match_reference_within_1e_12() {
        let mut program = TrajectoryProgram::new(2);
        program.push_gate(Gate::H, &[0]);
        program.push_gate(Gate::CX, &[0, 1]);
        program.push_channel(depolarizing_op(0.2), &[0]);
        program.push_channel(two_qubit_dephasing(0.3), &[0, 1]);
        let tape = ExactReplayProgram::compile(&program);
        let rho = ExactReplayEngine::evolve(&tape);
        assert_close(&rho, &reference(&program), 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_qubit_channel_takes_the_kraus_block_path() {
        // Correlated ZZZ dephasing on three targets: beyond
        // SUPEROP_MAX_TARGETS, so this must exercise KrausBlocks.
        let p = 0.25f64;
        let mut zzz = Matrix::identity(8);
        for i in 0..8usize {
            if (i.count_ones() & 1) == 1 {
                zzz[(i, i)] = c64(-1.0, 0.0);
            }
        }
        let channel = ChannelOp::general(vec![
            Matrix::identity(8).scale(c64((1.0 - p).sqrt(), 0.0)),
            zzz.scale(c64(p.sqrt(), 0.0)),
        ]);
        let mut program = TrajectoryProgram::new(3);
        program.push_gate(Gate::H, &[0]);
        program.push_gate(Gate::CX, &[0, 1]);
        program.push_gate(Gate::Rz(Param::bound(0.6)), &[2]);
        program.push_channel(channel, &[0, 1, 2]);
        let tape = ExactReplayProgram::compile(&program);
        assert!(matches!(
            tape.channels.as_slice(),
            [ExactChannel::Blocks(_)]
        ));
        let rho = ExactReplayEngine::evolve(&tape);
        assert_close(&rho, &reference(&program), 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diag_runs_fuse_and_stay_bit_identical() {
        let mut program = TrajectoryProgram::new(3);
        program.push_gate(Gate::H, &[0]);
        program.push_gate(Gate::H, &[1]);
        program.push_gate(Gate::H, &[2]);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            program.push_gate(Gate::Rzz(Param::bound(0.3 * (a + b) as f64)), &[a, b]);
        }
        program.push_gate(Gate::Rz(Param::bound(-0.9)), &[1]);
        let tape = ExactReplayProgram::compile(&program);
        // The cost layer fused into one run (after the three H ops).
        assert_eq!(tape.n_ops(), 4);
        assert_eq!(tape.n_diag_ops(), 4);
        assert_eq!(ExactReplayEngine::evolve(&tape), reference(&program));
    }

    #[test]
    fn engine_reuse_resets_the_arena() {
        let mut program = TrajectoryProgram::new(2);
        program.push_gate(Gate::H, &[0]);
        program.push_channel(depolarizing_op(0.4), &[0]);
        let tape = ExactReplayProgram::compile(&program);
        let mut engine = ExactReplayEngine::for_program(&tape);
        let first = engine.run(&tape).clone();
        let second = engine.run(&tape).clone();
        assert_eq!(first, second);
    }

    #[test]
    fn substitution_rebinds_diag_and_dense_slots() {
        let mut program = TrajectoryProgram::new(2);
        program.push_gate(Gate::Rz(Param::bound(0.1)), &[0]);
        program.push_unitary(Gate::Rx(Param::bound(0.2)).matrix().unwrap(), &[1]);
        let (mut tape, slots) = ExactReplayProgram::compile_with_slots(&program);
        tape.substitute_diag(
            slots[0],
            DiagOp::from_gate(&Gate::Rz(Param::bound(1.5)), &[0]).unwrap(),
        );
        tape.substitute_unitary(slots[1], &Gate::Rx(Param::bound(-0.8)).matrix().unwrap());

        let mut rebound = TrajectoryProgram::new(2);
        rebound.push_gate(Gate::Rz(Param::bound(1.5)), &[0]);
        rebound.push_unitary(Gate::Rx(Param::bound(-0.8)).matrix().unwrap(), &[1]);
        assert_eq!(ExactReplayEngine::evolve(&tape), reference(&rebound));
    }

    /// The CSR superoperator sweep the arity-specialized kernels
    /// replaced, transliterated as the reference they must match bit
    /// for bit: the resolved superoperator stored row by row with exact
    /// zeros dropped, every (row base, column base) block found by
    /// testing each index against the target mask, and each output the
    /// `mul_add` chain over its row's terms in ascending input order,
    /// from `ZERO`.
    fn csr_sweep(
        kraus: &[Matrix],
        targets: &[usize],
        chunk: &mut [Complex64],
        row0: usize,
        dim: usize,
    ) {
        let geom = DenseOp::new(Arc::new(kraus[0].clone()), targets);
        let (all_mask, offs) = (geom.all_mask, geom.offs);
        let block = offs.len();
        let entries = block * block;
        let dense = resolve_superop(kraus, block);
        let mut starts = vec![0usize];
        let mut idx = Vec::new();
        let mut coef = Vec::new();
        for row in dense.chunks_exact(entries) {
            for (i, &z) in row.iter().enumerate() {
                if z.re != 0.0 || z.im != 0.0 {
                    idx.push(i);
                    coef.push(z);
                }
            }
            starts.push(idx.len());
        }
        let rows = chunk.len() / dim;
        let mut v = [Complex64::ZERO; 16];
        let mut out = [Complex64::ZERO; 16];
        for local in 0..rows {
            let bi = row0 + local;
            if bi & all_mask != 0 {
                continue;
            }
            for bj in 0..dim {
                if bj & all_mask != 0 {
                    continue;
                }
                for (r, &ro) in offs.iter().enumerate() {
                    let row = (bi + ro - row0) * dim + bj;
                    for (c, &co) in offs.iter().enumerate() {
                        v[r * block + c] = chunk[row + co];
                    }
                }
                for (o, slot) in out.iter_mut().enumerate().take(entries) {
                    let mut acc = Complex64::ZERO;
                    for t in starts[o]..starts[o + 1] {
                        acc = coef[t].mul_add(v[idx[t]], acc);
                    }
                    *slot = acc;
                }
                for (r, &ro) in offs.iter().enumerate() {
                    let row = (bi + ro - row0) * dim + bj;
                    for (c, &co) in offs.iter().enumerate() {
                        chunk[row + co] = out[r * block + c];
                    }
                }
            }
        }
    }

    fn random_matrix(dim: usize, rng: &mut StdRng) -> Matrix {
        let data = (0..dim * dim)
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        Matrix::from_vec(dim, dim, data)
    }

    /// Kronecker products of every pair drawn from two Kraus sets.
    fn kron_all(a: &[Matrix], b: &[Matrix]) -> Vec<Matrix> {
        a.iter()
            .flat_map(|x| b.iter().map(move |y| x.kron(y)))
            .collect()
    }

    /// A one-qubit Kraus set of `family`: 0 thermal relaxation
    /// (amplitude damping then phase damping), 1 depolarizing,
    /// 2 dephasing, 3 dense random (not trace preserving; the kernels
    /// do not care).
    fn kraus_1q(family: usize, rng: &mut StdRng) -> Vec<Matrix> {
        let p: f64 = rng.gen_range(0.01..0.5);
        let scaled = |m: Matrix, w: f64| m.scale(c64(w.sqrt(), 0.0));
        match family {
            0 => {
                let lambda: f64 = rng.gen_range(0.01..0.5);
                let real = |e: [f64; 4]| Matrix::from_vec(2, 2, e.map(|x| c64(x, 0.0)).to_vec());
                let ad = [
                    real([1.0, 0.0, 0.0, (1.0 - p).sqrt()]),
                    real([0.0, p.sqrt(), 0.0, 0.0]),
                ];
                let pd = [
                    real([1.0, 0.0, 0.0, (1.0 - lambda).sqrt()]),
                    real([0.0, 0.0, 0.0, lambda.sqrt()]),
                ];
                pd.iter()
                    .flat_map(|b| ad.iter().map(move |a| b.matmul(a)))
                    .collect()
            }
            1 => vec![
                scaled(Matrix::identity(2), 1.0 - 0.75 * p),
                scaled(sigma_x(), p / 4.0),
                scaled(sigma_y(), p / 4.0),
                scaled(sigma_z(), p / 4.0),
            ],
            2 => vec![scaled(Matrix::identity(2), 1.0 - p), scaled(sigma_z(), p)],
            _ => (0..rng.gen_range(2..4))
                .map(|_| random_matrix(2, rng))
                .collect(),
        }
    }

    /// A two-qubit Kraus set of `family`: 0 a product of two thermal
    /// relaxations, 1 two-qubit depolarizing (all sixteen Pauli
    /// products), 2 correlated ZZ dephasing, 3 dense random.
    fn kraus_2q(family: usize, rng: &mut StdRng) -> Vec<Matrix> {
        match family {
            0 => kron_all(&kraus_1q(0, rng), &kraus_1q(0, rng)),
            1 => {
                let p: f64 = rng.gen_range(0.01..0.5);
                let paulis = [Matrix::identity(2), sigma_x(), sigma_y(), sigma_z()];
                kron_all(&paulis, &paulis)
                    .into_iter()
                    .enumerate()
                    .map(|(i, m)| {
                        let w = if i == 0 {
                            1.0 - 15.0 * p / 16.0
                        } else {
                            p / 16.0
                        };
                        m.scale(c64(w.sqrt(), 0.0))
                    })
                    .collect()
            }
            2 => two_qubit_dephasing(rng.gen_range(0.01..0.5))
                .kraus()
                .to_vec(),
            _ => (0..rng.gen_range(2..4))
                .map(|_| random_matrix(4, rng))
                .collect(),
        }
    }

    /// Random row-major matrix entries. A quarter are signed complex
    /// zeros and a quarter have a signed-zero imaginary part, so whole
    /// zero blocks occur and the sign of a zero sum — which the `ZERO`
    /// start of every chain decides — is pinned too.
    fn random_rho(dim: usize, rng: &mut StdRng) -> Vec<Complex64> {
        let zero = |rng: &mut StdRng| if rng.gen_range(0..2) == 0 { 0.0 } else { -0.0 };
        (0..dim * dim)
            .map(|_| match rng.gen_range(0..4) {
                0 => c64(zero(rng), zero(rng)),
                1 => c64(rng.gen_range(-1.0..1.0), zero(rng)),
                _ => c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
            })
            .collect()
    }

    /// `arity` distinct targets in `0..n`; `mode` 0 forces bit 0 and
    /// mode 1 the top bit into the set, at a random position.
    fn random_targets(n: usize, arity: usize, mode: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut targets: Vec<usize> = Vec::with_capacity(arity);
        match mode {
            0 => targets.push(0),
            1 => targets.push(n - 1),
            _ => {}
        }
        while targets.len() < arity {
            let q = rng.gen_range(0..n);
            if !targets.contains(&q) {
                targets.push(q);
            }
        }
        if rng.gen_range(0..2) == 1 {
            targets.reverse();
        }
        targets
    }

    fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn specialized_sweeps_match_the_csr_chain_bit_for_bit(
            n in 1usize..7,
            arity in 1usize..3,
            family in 0usize..4,
            mode in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let arity = arity.min(n);
            let mut rng = StdRng::seed_from_u64(seed);
            let kraus = if arity == 1 {
                kraus_1q(family, &mut rng)
            } else {
                kraus_2q(family, &mut rng)
            };
            let targets = random_targets(n, arity, mode, &mut rng);
            let dim = 1usize << n;
            let rho = random_rho(dim, &mut rng);

            let mut kernel = rho.clone();
            SuperOp::compile(&kraus, &targets).apply(&mut kernel, dim);
            let mut reference = rho.clone();
            csr_sweep(&kraus, &targets, &mut reference, 0, dim);
            prop_assert!(
                bits(&kernel) == bits(&reference),
                "channel sweep moved a bit (targets {targets:?})"
            );

            // The dense conjugation against the density walk's
            // left-then-right multiply, same targets.
            let m = random_matrix(1 << arity, &mut rng);
            let mut walk = DensityMatrix::zero_state(n);
            walk.data_mut().copy_from_slice(&rho);
            walk.apply_unitary(&m, &targets);
            let mut kernel = rho;
            DenseOp::new(Arc::new(m), &targets).conjugate(&mut kernel, dim);
            prop_assert!(
                bits(&kernel) == bits(walk.data_mut()),
                "dense conjugation moved a bit (targets {targets:?})"
            );
        }
    }

    /// Every op shape swept over block-aligned row chunks — the fan-out
    /// path's partition, `row0 > 0` included — equals one whole-matrix
    /// sweep bit for bit at 10 qubits.
    #[test]
    fn aligned_row_chunks_match_the_whole_matrix_sweep_at_10q() {
        let n = 10;
        let dim = 1usize << n;
        let mut rng = StdRng::seed_from_u64(10);
        let rho = random_rho(dim, &mut rng);
        let chunked = |align_rows: usize, sweep: &dyn Fn(&mut [Complex64], usize)| {
            let mut whole = rho.clone();
            sweep(&mut whole, 0);
            let height = chunk_height(align_rows);
            let mut parts = rho.clone();
            for (c, chunk) in parts.chunks_mut(height * dim).enumerate() {
                sweep(chunk, c * height);
            }
            assert!(height < dim, "align {align_rows} leaves a single chunk");
            assert!(
                bits(&whole) == bits(&parts),
                "align {align_rows}: chunked sweep moved a bit"
            );
        };
        for targets in [&[0][..], &[5], &[8], &[0, 5], &[6, 2], &[8, 0], &[1, 4, 0]] {
            let k = targets.len();
            let dense = DenseOp::new(Arc::new(random_matrix(1 << k, &mut rng)), targets);
            chunked(dense.align_rows, &|c, row0| {
                dense.conjugate_rows(c, row0, dim)
            });
            let kraus: Vec<Matrix> = (0..3).map(|_| random_matrix(1 << k, &mut rng)).collect();
            match ExactChannel::compile(&ChannelOp::general(kraus), targets) {
                ExactChannel::Super(s) => {
                    chunked(s.align_rows(), &|c, row0| s.apply_rows(c, row0, dim))
                }
                ExactChannel::Blocks(b) => {
                    chunked(b.align_rows, &|c, row0| b.apply_rows(c, row0, dim))
                }
                ExactChannel::Unitary(_) => unreachable!("three Kraus operators"),
            }
        }
        let run = [
            DiagOp::from_gate(&Gate::Rz(Param::bound(0.4)), &[3]).unwrap(),
            DiagOp::from_gate(&Gate::Rzz(Param::bound(-1.1)), &[0, 9]).unwrap(),
        ];
        let tables: Vec<Complex64> = run
            .iter()
            .flat_map(|op| (0..dim).map(|i| op.factor(i)))
            .collect();
        chunked(1, &|c, row0| diag_sweep(&tables, c, row0, dim));
    }
}
