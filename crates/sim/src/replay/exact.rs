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
//! [`ExactReplayProgram`] — the shared [`super::Tape`] front end over
//! this module's [`ExactKind`] — compiles the recording once into a flat
//! superoperator tape, as [`super::ReplayProgram`] does for
//! trajectories:
//!
//! - maximal runs of consecutive diagonal gates fuse into a single
//!   elementwise sweep `rho[i][j] *= d(i) conj(d(j))` — one pass over
//!   the matrix regardless of run length, with per-gate factor tables so
//!   the per-entry multiply sequence is unchanged,
//! - dense gates and fixed unitaries carry their resolved matrices plus
//!   precomputed block offsets (`DenseOp`), applied as a left pass then
//!   a right pass per aligned row chunk — no `Gate::matrix()` calls, no
//!   index re-derivation,
//! - channels are resolved at compile time (`ExactChannel`):
//!   single-Kraus channels apply in place like a unitary (no clone, no
//!   accumulator), one- and two-qubit multi-Kraus channels collapse
//!   into a resolved superoperator (`4×4` / `16×16`) whose rows are
//!   hoisted into per-output term lists with exact zeros dropped
//!   (structured channels like Pauli mixes and dampings are mostly
//!   zeros), and wider multi-Kraus channels keep their Kraus matrices
//!   but work blockwise — `sum_k K B K†` per index block — in one pass
//!   over `rho` with no `dim²` clones,
//!
//! and [`ExactReplayEngine`] replays the tape over its reusable arena,
//! fanning row chunks out across rayon workers once the matrix is large
//! enough ([`kernels::PAR_QUBIT_THRESHOLD`] total entries).
//!
//! # Layout: split planes
//!
//! The arena keeps `rho` as two `f64` planes, `Re(rho[i][j])` at
//! `re[i * dim + j]` and `Im` at `im[i * dim + j]`, not as interleaved
//! [`Complex64`] pairs: a complex multiply over interleaved pairs needs
//! cross-lane shuffles, while over planes every sweep is straight-line
//! lane arithmetic. The sweeps are written once, as safe
//! `#[inline(always)]` bodies in `kern`, compiled again under AVX2 and
//! AVX-512 by the lane dispatch the trajectory engine uses
//! (`replay::lanes`: one CPUID probe per arena, `HGP_REPLAY_LANES`
//! overrides it for both engines), and called per op per row chunk:
//!
//! - fused diagonal runs take lanes along each row, the factor tables
//!   split like the state;
//! - one-qubit dense conjugations walk `(lo, hi)` entry pairs, row
//!   pairs for the left pass and column pairs for the right; pair
//!   strides below a vector's width walk const-size chunks so the
//!   vectorizer sees them;
//! - resolved channels and two-qubit conjugations gather `G` blocks'
//!   entries into lane arrays (one array per block entry), fold each
//!   output chain's terms in the outer loop and the lanes in the inner
//!   loop, and scatter back — the per-entry chain is hoisted out of
//!   the lanes, never re-dispatched per entry;
//! - wider dense ops and `KrausBlocks` stay scalar over the planes
//!   (no recorded schedule in this workspace produces them).
//!
//! The split changes where each `f64` lives, not one bit of what is
//! computed from it. Every entry keeps its exact `mul_add` chain — the
//! same coefficients in the same order, started from `+0.0` — written
//! out over the components with the separate multiplies and adds of
//! [`Complex64::mul_add`]; rustc never contracts them into FMAs, so a
//! lane of any width computes the same IEEE operations as the scalar
//! code, and every lane tier produces the same bits. The
//! [`DensityMatrix`] that [`ExactReplayEngine::run`] returns is joined
//! from the planes once, at the end of a replay;
//! [`ExactReplayEngine::run_probabilities`] skips that and reads the
//! diagonal straight from the real plane.
//!
//! # Arity-specialized sweeps
//!
//! Every kernel enumerates its blocks directly instead of testing each
//! row and column index against the target mask: one-target sweeps
//! split row pairs `(i, i | bit)` into disjoint row slices and column
//! pairs `(j, j | bit)` by block, two-target sweeps walk the block
//! bases of both target bits, and wider operators enumerate bases the
//! same way over a gather buffer.
//!
//! Each output entry keeps the `mul_add` chain the sparse
//! row-by-row (CSR) interpreter these sweeps replaced evaluated: the
//! same coefficients, in ascending input-index order, started from
//! `ZERO`. The evolved state is therefore **bit-identical** to that
//! interpreter's — not merely close. The unit tests pin it directly, at
//! every lane tier the CPU reports: a property test checks every sweep
//! against a transliteration of the CSR chain (and every dense
//! conjugation against the density walk) `to_bits` for every entry, on
//! random damping, depolarizing, dephasing and dense Kraus sets with
//! targets on bit 0 and the top bit at up to seven qubits; a 10-qubit
//! test checks every op shape swept over aligned row chunks, as the
//! fan-out path runs them, against one whole-matrix sweep; and a whole
//! noisy tape replays to the same bits at every tier. The Table II
//! goldens (`tests/table2_goldens.rs`) pin the training outcome on top.
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
//! structure the parity argument above rests on. Fusing consecutive
//! ops on one target into a single pass keeps every chain but was not
//! faster: at 6 qubits the sweeps are compute-bound, not memory-bound.
//! What is left on the plane sweeps is the gather/scatter of low target
//! bits (column pairs and quads closer than a vector's width) and the
//! two-qubit dense conjugation, which multiplies every zero of a `CX`
//! because its chains keep them (`BENCH_exact.json` profiles).
//!
//! # Example
//!
//! ```
//! use hgp_circuit::Gate;
//! use hgp_sim::{
//!     DensityMatrix, ExactReplayEngine, ExactReplayProgram, NoProfile, TrajectoryProgram,
//! };
//!
//! let mut program = TrajectoryProgram::new(2);
//! program.push_gate(Gate::H, &[0]);
//! program.push_gate(Gate::CX, &[0, 1]);
//! let tape = ExactReplayProgram::compile(&program);
//! let mut engine = ExactReplayEngine::for_program(&tape);
//! let rho = engine.run(&tape, &NoProfile);
//!
//! let mut reference = DensityMatrix::zero_state(2);
//! program.apply_exact(&mut reference);
//! assert_eq!(*rho, reference); // unitary-only tape: bit-identical
//! ```

use std::sync::Arc;

use rayon::prelude::*;

use hgp_math::{Complex64, Matrix};
use hgp_obs::profile::{timed, ProfileSink, ReplayOpKind};

use crate::density::DensityMatrix;
use crate::kernels::{self, DiagOp};
use crate::trajectory::ChannelOp;

use super::lanes::{kernel, lane_isa, lane_tiers, Lanes};
use super::sweep::{for_pairs, gather_pairs, scatter_pairs};
use super::{ExactReplayProgram, TapeKind, TapeOp};

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

/// Runs `sweep(re, im, row0)` over the whole pair of row-major planes,
/// or over row chunks on the rayon pool once [`fan_out`] says so. Both
/// planes are cut at the same heights, and each chunk starts on a
/// multiple of `align_rows` (a power of two), so every operator block
/// stays chunk-local, a local row index carries the same target bits as
/// the absolute one, and each entry's arithmetic is independent of the
/// worker count.
fn sweep_rows(
    re: &mut [f64],
    im: &mut [f64],
    dim: usize,
    align_rows: usize,
    sweep: impl Fn(&mut [f64], &mut [f64], usize) + Sync,
) {
    let height = chunk_height(align_rows);
    if fan_out(re.len()) && dim > height {
        let entries = height * dim;
        let chunks: Vec<_> = re
            .chunks_mut(entries)
            .zip(im.chunks_mut(entries))
            .enumerate()
            .collect();
        chunks
            .into_par_iter()
            .for_each(|(c, (re, im))| sweep(re, im, c * height));
    } else {
        sweep(re, im, 0);
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

/// `c.mul_add(v, acc)` of [`Complex64`] over split components: the
/// same separate multiplies and adds in the same association, so a lane
/// computes exactly the interleaved chain's bits (rustc never fuses
/// them into FMAs).
#[inline(always)]
fn madd(c: Complex64, vr: f64, vi: f64, ar: f64, ai: f64) -> (f64, f64) {
    (c.re * vr - c.im * vi + ar, c.re * vi + c.im * vr + ai)
}

/// Lanes per gathered group of the resolved-channel and two-target
/// sweeps: each group gathers this many blocks' entries into lane
/// arrays, folds every output chain over them, and scatters back.
const G: usize = 16;

/// Copies `plane[at + cols[l]]` into lane `l` of `dst`; `run` says the
/// columns are consecutive, so the gather is one slice copy.
#[inline(always)]
fn gather_cols(plane: &[f64], at: usize, cols: &[usize], run: bool, dst: &mut [f64]) {
    if run {
        let c0 = at + cols[0];
        dst.copy_from_slice(&plane[c0..c0 + dst.len()]);
    } else {
        for (d, &c) in dst.iter_mut().zip(cols) {
            *d = plane[at + c];
        }
    }
}

/// The inverse of [`gather_cols`].
#[inline(always)]
fn scatter_cols(plane: &mut [f64], at: usize, cols: &[usize], run: bool, src: &[f64]) {
    if run {
        let c0 = at + cols[0];
        plane[c0..c0 + src.len()].copy_from_slice(src);
    } else {
        for (&s, &c) in src.iter().zip(cols) {
            plane[at + c] = s;
        }
    }
}

/// Per-lane planes of `N` gathered entries: `[entry][lane]`.
type LaneSet<const N: usize> = [[f64; G]; N];

/// Evaluates every output chain over a gathered lane set: per output,
/// the chain's terms fold in the outer loop and the lanes in the inner
/// one, so each lane runs its entry's exact `mul_add` sequence from
/// `+0.0` — the chain [`Chain`] describes, in the same order.
#[inline(always)]
fn eval_chains<const N: usize>(
    chains: &[Chain<N>; N],
    vr: &LaneSet<N>,
    vi: &LaneSet<N>,
    or: &mut LaneSet<N>,
    oi: &mut LaneSet<N>,
) {
    for ((chain, outr), outi) in chains.iter().zip(or.iter_mut()).zip(oi.iter_mut()) {
        let (mut ar, mut ai) = ([0.0f64; G], [0.0f64; G]);
        for (&c, &x) in chain.coef[..chain.len].iter().zip(&chain.idx) {
            let (xr, xi) = (&vr[x as usize], &vi[x as usize]);
            for l in 0..G {
                (ar[l], ai[l]) = madd(c, xr[l], xi[l], ar[l], ai[l]);
            }
        }
        *outr = ar;
        *outi = ai;
    }
}

/// Exact-tape kernel bodies over split planes, re-compiled per lane
/// tier by [`lane_tiers!`] and called through [`kernel!`]. Each takes
/// one block-aligned chunk of rows of both planes.
mod kern {
    use super::*;

    /// A fused diagonal run over rows `row0..`: per row, each gate's
    /// factor `d(i) conj(d(j))` in op order multiplies every entry —
    /// `*entry *= tab[i] * tab[j].conj()` over the planes.
    #[inline(always)]
    pub(super) fn diag_rows(
        re: &mut [f64],
        im: &mut [f64],
        row0: usize,
        dim: usize,
        fre: &[f64],
        fim: &[f64],
    ) {
        let rows = re.chunks_exact_mut(dim).zip(im.chunks_exact_mut(dim));
        for (local, (rr, ri)) in rows.enumerate() {
            let i = row0 + local;
            for (tr, ti) in fre.chunks_exact(dim).zip(fim.chunks_exact(dim)) {
                let (ar, ai) = (tr[i], ti[i]);
                let lanes = rr.iter_mut().zip(ri.iter_mut()).zip(tr.iter().zip(ti));
                for ((er, ei), (&br, &bi)) in lanes {
                    let ci = -bi;
                    let (fr, fi) = (ar * br - ai * ci, ar * ci + ai * br);
                    let (xr, xi) = (*er, *ei);
                    *er = xr * fr - xi * fi;
                    *ei = xr * fi + xi * fr;
                }
            }
        }
    }

    /// The one-qubit dense conjugation `rho -> M rho M†`: the left pass
    /// walks row pairs `(i, i | bit)`, the right pass column pairs
    /// `(j, j | bit)` with the conjugated entries. Each entry is the
    /// chain `m[r][1].mul_add(v1, m[r][0].mul_add(v0, 0))`. `m` is
    /// `[m00, m01, m10, m11]`.
    #[inline(always)]
    pub(super) fn dense1q_rows(
        re: &mut [f64],
        im: &mut [f64],
        dim: usize,
        bit: usize,
        m: [Complex64; 4],
    ) {
        let pass = |re: &mut [f64], im: &mut [f64], stride: usize, m: [Complex64; 4]| {
            let [m00, m01, m10, m11] = m;
            for_pairs(re, im, stride, |lr, li, hr, hi| {
                let (v0r, v0i, v1r, v1i) = (*lr, *li, *hr, *hi);
                let (tr, ti) = madd(m00, v0r, v0i, 0.0, 0.0);
                (*lr, *li) = madd(m01, v1r, v1i, tr, ti);
                let (tr, ti) = madd(m10, v0r, v0i, 0.0, 0.0);
                (*hr, *hi) = madd(m11, v1r, v1i, tr, ti);
            });
        };
        // Left pass: rho -> M rho.
        pass(re, im, bit * dim, m);
        // Right pass: rho -> rho M†. `dim` is a multiple of `2 * bit`,
        // so column pairs never straddle a row.
        pass(re, im, bit, m.map(Complex64::conj));
    }

    /// The two-qubit dense conjugation over the 4×4 blocks at `offs`:
    /// the left pass gathers each block row set's four rows lane by
    /// column and folds the `left` chains (`M`'s rows, every entry
    /// kept); the right pass gathers each row's column quads and folds
    /// the `right` chains (`conj(M)`'s rows).
    #[inline(always)]
    pub(super) fn dense2q_rows(
        re: &mut [f64],
        im: &mut [f64],
        dim: usize,
        mask: usize,
        offs: &[usize; 4],
        left: &[Chain<4>; 4],
        right: &[Chain<4>; 4],
    ) {
        let rows = re.len() / dim;
        let (mut vr, mut vi) = ([[0.0; G]; 4], [[0.0; G]; 4]);
        let (mut or, mut oi) = ([[0.0; G]; 4], [[0.0; G]; 4]);
        let g = dim.min(G);
        // Left pass: rho -> M rho, lanes along the block rows.
        for bi in block_bases(mask, rows) {
            let at = offs.map(|o| (bi + o) * dim);
            for c0 in (0..dim).step_by(g) {
                for (r, &a) in at.iter().enumerate() {
                    vr[r][..g].copy_from_slice(&re[a + c0..a + c0 + g]);
                    vi[r][..g].copy_from_slice(&im[a + c0..a + c0 + g]);
                }
                eval_chains(left, &vr, &vi, &mut or, &mut oi);
                for (r, &a) in at.iter().enumerate() {
                    re[a + c0..a + c0 + g].copy_from_slice(&or[r][..g]);
                    im[a + c0..a + c0 + g].copy_from_slice(&oi[r][..g]);
                }
            }
        }
        // Right pass: rho -> rho M†, row-local, lanes across quads.
        let quads = dim / 4;
        let g = quads.min(G);
        let run = (mask & mask.wrapping_neg()) >= g;
        let mut cols = [0usize; G];
        for at in (0..rows).map(|r| r * dim) {
            let mut bases = block_bases(mask, dim);
            for _ in (0..quads).step_by(g) {
                for (c, b) in cols[..g].iter_mut().zip(&mut bases) {
                    *c = b;
                }
                for (c, &o) in offs.iter().enumerate() {
                    gather_cols(re, at + o, &cols[..g], run, &mut vr[c][..g]);
                    gather_cols(im, at + o, &cols[..g], run, &mut vi[c][..g]);
                }
                eval_chains(right, &vr, &vi, &mut or, &mut oi);
                for (c, &o) in offs.iter().enumerate() {
                    scatter_cols(re, at + o, &cols[..g], run, &or[c][..g]);
                    scatter_cols(im, at + o, &cols[..g], run, &oi[c][..g]);
                }
            }
        }
    }

    /// The resolved one-target channel: row pairs `(T, B) = (i, i | bit)`
    /// and, within them, column pairs gathered `G` at a time into the
    /// block entries `x00 = T[j]`, `x01 = T[j | bit]`, `x10 = B[j]`,
    /// `x11 = B[j | bit]` (entry `r * 2 + c`).
    #[inline(always)]
    pub(super) fn super1q_rows(
        re: &mut [f64],
        im: &mut [f64],
        dim: usize,
        bit: usize,
        chains: &[Chain<4>; 4],
    ) {
        let (mut vr, mut vi) = ([[0.0; G]; 4], [[0.0; G]; 4]);
        let (mut or, mut oi) = ([[0.0; G]; 4], [[0.0; G]; 4]);
        let pairs = dim / 2;
        let g = pairs.min(G);
        let blocks = re
            .chunks_exact_mut(2 * bit * dim)
            .zip(im.chunks_exact_mut(2 * bit * dim));
        for (br, bi) in blocks {
            let (tr, brr) = br.split_at_mut(bit * dim);
            let (ti, bii) = bi.split_at_mut(bit * dim);
            let top = tr.chunks_exact_mut(dim).zip(ti.chunks_exact_mut(dim));
            let bottom = brr.chunks_exact_mut(dim).zip(bii.chunks_exact_mut(dim));
            for ((tr, ti), (br, bi)) in top.zip(bottom) {
                for k0 in (0..pairs).step_by(g) {
                    let [v0, v1, v2, v3] = &mut vr;
                    gather_pairs(tr, bit, k0, &mut v0[..g], &mut v1[..g]);
                    gather_pairs(br, bit, k0, &mut v2[..g], &mut v3[..g]);
                    let [v0, v1, v2, v3] = &mut vi;
                    gather_pairs(ti, bit, k0, &mut v0[..g], &mut v1[..g]);
                    gather_pairs(bi, bit, k0, &mut v2[..g], &mut v3[..g]);
                    eval_chains(chains, &vr, &vi, &mut or, &mut oi);
                    scatter_pairs(tr, bit, k0, &or[0][..g], &or[1][..g]);
                    scatter_pairs(br, bit, k0, &or[2][..g], &or[3][..g]);
                    scatter_pairs(ti, bit, k0, &oi[0][..g], &oi[1][..g]);
                    scatter_pairs(bi, bit, k0, &oi[2][..g], &oi[3][..g]);
                }
            }
        }
    }

    /// The resolved two-target channel: every row base's four rows, and
    /// within them column quads gathered `G` at a time into the sixteen
    /// block entries (`r * 4 + c` at row offset `offs[r]`, column offset
    /// `offs[c]`).
    #[inline(always)]
    pub(super) fn super2q_rows(
        re: &mut [f64],
        im: &mut [f64],
        dim: usize,
        mask: usize,
        offs: &[usize; 4],
        chains: &[Chain<16>; 16],
    ) {
        let rows = re.len() / dim;
        let (mut vr, mut vi) = ([[0.0; G]; 16], [[0.0; G]; 16]);
        let (mut or, mut oi) = ([[0.0; G]; 16], [[0.0; G]; 16]);
        let quads = dim / 4;
        let g = quads.min(G);
        let run = (mask & mask.wrapping_neg()) >= g;
        let mut cols = [0usize; G];
        for bi in block_bases(mask, rows) {
            let at = offs.map(|o| (bi + o) * dim);
            let mut bases = block_bases(mask, dim);
            for _ in (0..quads).step_by(g) {
                for (c, b) in cols[..g].iter_mut().zip(&mut bases) {
                    *c = b;
                }
                for (r, &a) in at.iter().enumerate() {
                    for (c, &o) in offs.iter().enumerate() {
                        gather_cols(re, a + o, &cols[..g], run, &mut vr[r * 4 + c][..g]);
                        gather_cols(im, a + o, &cols[..g], run, &mut vi[r * 4 + c][..g]);
                    }
                }
                eval_chains(chains, &vr, &vi, &mut or, &mut oi);
                for (r, &a) in at.iter().enumerate() {
                    for (c, &o) in offs.iter().enumerate() {
                        scatter_cols(re, a + o, &cols[..g], run, &or[r * 4 + c][..g]);
                        scatter_cols(im, a + o, &cols[..g], run, &oi[r * 4 + c][..g]);
                    }
                }
            }
        }
    }
}

lane_tiers!(kern {
    fn diag_rows(re: &mut [f64], im: &mut [f64], row0: usize, dim: usize, fre: &[f64], fim: &[f64]);
    fn dense1q_rows(re: &mut [f64], im: &mut [f64], dim: usize, bit: usize, m: [Complex64; 4]);
    fn dense2q_rows(
        re: &mut [f64],
        im: &mut [f64],
        dim: usize,
        mask: usize,
        offs: &[usize; 4],
        left: &[Chain<4>; 4],
        right: &[Chain<4>; 4],
    );
    fn super1q_rows(re: &mut [f64], im: &mut [f64], dim: usize, bit: usize, chains: &[Chain<4>; 4]);
    fn super2q_rows(
        re: &mut [f64],
        im: &mut [f64],
        dim: usize,
        mask: usize,
        offs: &[usize; 4],
        chains: &[Chain<16>; 16],
    );
});

/// Reads entry `at` of the planes as a [`Complex64`].
#[inline(always)]
fn load(re: &[f64], im: &[f64], at: usize) -> Complex64 {
    Complex64::new(re[at], im[at])
}

/// Writes `z` to entry `at` of the planes.
#[inline(always)]
fn store(re: &mut [f64], im: &mut [f64], at: usize, z: Complex64) {
    re[at] = z.re;
    im[at] = z.im;
}

/// A dense operator with its embedding resolved at compile time:
/// matrix, target bit mask, and the `2^k` block row offsets that
/// `DensityMatrix::apply_left`/`apply_right_dagger` re-derive per call.
#[derive(Debug, Clone)]
pub struct DenseOp {
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

    /// `rho -> M rho M†` over the row-major planes.
    ///
    /// Bit-identical to `apply_left` followed by `apply_right_dagger`:
    /// the left pass's (base, col) block updates and the right pass's
    /// row-local updates touch disjoint entry sets, so sweeping aligned
    /// row chunks (left then right per chunk) only reorders independent
    /// writes — for any chunking and any worker count.
    fn conjugate(&self, re: &mut [f64], im: &mut [f64], dim: usize, lanes: Lanes) {
        sweep_rows(re, im, dim, self.align_rows, |re, im, row0| {
            self.conjugate_rows(re, im, row0, dim, lanes)
        });
    }

    /// Conjugates the rows `row0..` held in the plane chunks,
    /// enumerating blocks from the chunk's own (block-aligned) start.
    fn conjugate_rows(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        row0: usize,
        dim: usize,
        lanes: Lanes,
    ) {
        debug_assert_eq!(row0 % self.align_rows, 0, "chunk is not block-aligned");
        let m = self.matrix.as_slice();
        match self.offs.len() {
            2 => {
                let m = [m[0], m[1], m[2], m[3]];
                kernel!(lanes, dense1q_rows(re, im, dim, self.offs[1], m))
            }
            4 => {
                let offs: [usize; 4] = self.offs[..].try_into().expect("4 offsets");
                let left =
                    std::array::from_fn(|r| Chain::full(m[r * 4..(r + 1) * 4].iter().copied()));
                let right = std::array::from_fn(|r| {
                    Chain::full(m[r * 4..(r + 1) * 4].iter().map(|z| z.conj()))
                });
                kernel!(
                    lanes,
                    dense2q_rows(re, im, dim, self.all_mask, &offs, &left, &right)
                )
            }
            _ => self.conjugate_wide(re, im, dim),
        }
    }

    /// The dense block conjugation for three or more targets (which no
    /// recorded schedule in this workspace produces), scalar over the
    /// planes: each output is the chain `m[r][c].mul_add(v_c, ..)` over
    /// ascending `c` from `ZERO`.
    fn conjugate_wide(&self, re: &mut [f64], im: &mut [f64], dim: usize) {
        let (m, offs) = (self.matrix.as_slice(), &self.offs);
        let n = offs.len();
        let rows = re.len() / dim;
        let mut vin = vec![Complex64::ZERO; n];
        // Left pass: rho -> M rho, per block row set, column by column.
        for base in block_bases(self.all_mask, rows) {
            for col in 0..dim {
                for (v, &off) in vin.iter_mut().zip(offs) {
                    *v = load(re, im, (base + off) * dim + col);
                }
                for (r, &off) in offs.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (&mrc, &v) in m[r * n..(r + 1) * n].iter().zip(&vin) {
                        // hgp-analysis: allow(d4) -- this fused chain IS the
                        // pinned reference arithmetic the parity tests fix.
                        acc = mrc.mul_add(v, acc);
                    }
                    store(re, im, (base + off) * dim + col, acc);
                }
            }
        }
        // Right pass: rho -> rho M†, row-local.
        for row in (0..rows).map(|r| r * dim) {
            for base in block_bases(self.all_mask, dim) {
                for (v, &off) in vin.iter_mut().zip(offs) {
                    *v = load(re, im, row + base + off);
                }
                // (rho M†)[row, c'] = sum_c rho[row, c] conj(M[c', c])
                for (cp, &off) in offs.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (&mcc, &v) in m[cp * n..(cp + 1) * n].iter().zip(&vin) {
                        // hgp-analysis: allow(d4) -- this fused chain IS the
                        // pinned reference arithmetic the parity tests fix.
                        acc = mcc.conj().mul_add(v, acc);
                    }
                    store(re, im, row + base + off, acc);
                }
            }
        }
    }
}

/// Widest channel resolved into a [`SuperOp`]: at two targets the
/// superoperator is 16×16 (4 KiB dense, far less sparse) and already
/// far cheaper than per-Kraus block products; at three it would be
/// 64×64 per block and the blockwise Kraus form wins again.
const SUPEROP_MAX_TARGETS: usize = 2;

/// One output entry of a block sweep, hoisted out of its row at compile
/// time: the terms in ascending input-index order. [`eval_chains`]
/// folds them with `mul_add` starting from `ZERO` — the chain a sparse
/// row-by-row sweep evaluates.
#[derive(Debug, Clone, Copy)]
pub struct Chain<const N: usize> {
    len: usize,
    /// Input entry `r * block + c` of each term.
    idx: [u8; N],
    coef: [Complex64; N],
}

impl<const N: usize> Chain<N> {
    /// The chain of one resolved superoperator row (`N` entries). Exact
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

    /// The chain of one dense operator row: every entry, zeros
    /// included, as the dense block product multiplies them.
    fn full(row: impl Iterator<Item = Complex64>) -> Self {
        let mut chain = Chain {
            len: N,
            idx: std::array::from_fn(|i| i as u8),
            coef: [Complex64::ZERO; N],
        };
        for (c, z) in chain.coef.iter_mut().zip(row) {
            *c = z;
        }
        chain
    }
}

/// A small (≤ [`SUPEROP_MAX_TARGETS`]-qubit) multi-Kraus channel
/// resolved into its superoperator
/// `s[(a,b)][(r,c)] = sum_k K_k[a,r] conj(K_k[b,c])`, one [`Chain`] per
/// output entry `a * block + b`, swept over (row-block, col-block)
/// index pairs in one pass — no per-Kraus `rho` clone, and no
/// per-Kraus arithmetic at all. Each arity has its own lane-group
/// sweep.
#[derive(Debug, Clone)]
pub enum SuperOp {
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

    fn apply(&self, re: &mut [f64], im: &mut [f64], dim: usize, lanes: Lanes) {
        sweep_rows(re, im, dim, self.align_rows(), |re, im, row0| {
            self.apply_rows(re, im, row0, dim, lanes)
        });
    }

    /// Sweeps the rows `row0..` held in the plane chunks, enumerating
    /// blocks from the chunk's own (block-aligned) start.
    fn apply_rows(&self, re: &mut [f64], im: &mut [f64], row0: usize, dim: usize, lanes: Lanes) {
        debug_assert_eq!(row0 % self.align_rows(), 0, "chunk is not block-aligned");
        match self {
            SuperOp::OneQubit { bit, chains } => {
                kernel!(lanes, super1q_rows(re, im, dim, *bit, chains))
            }
            SuperOp::TwoQubit {
                all_mask,
                offs,
                chains,
                ..
            } => kernel!(lanes, super2q_rows(re, im, dim, *all_mask, offs, chains)),
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

/// A multi-qubit multi-Kraus channel: Kraus matrices precompiled
/// alongside the block offsets, applied blockwise — for each (row base,
/// col base) pair, load the `2^k × 2^k` sub-block `B` and replace it
/// with `sum_k K_k B K_k†` — in one pass over `rho`, no full clones.
/// Scalar over the planes: no recorded schedule in this workspace
/// produces a channel this wide.
#[derive(Debug, Clone)]
pub struct KrausBlocks {
    kraus: Vec<Matrix>,
    all_mask: usize,
    offs: Vec<usize>,
    align_rows: usize,
}

impl KrausBlocks {
    fn apply(&self, re: &mut [f64], im: &mut [f64], dim: usize) {
        sweep_rows(re, im, dim, self.align_rows, |re, im, row0| {
            self.apply_rows(re, im, row0, dim)
        });
    }

    /// Sweeps the rows `row0..` held in the plane chunks, enumerating
    /// blocks from the chunk's own (block-aligned) start.
    fn apply_rows(&self, re: &mut [f64], im: &mut [f64], row0: usize, dim: usize) {
        debug_assert_eq!(row0 % self.align_rows, 0, "chunk is not block-aligned");
        let block = self.offs.len();
        let rows = re.len() / dim;
        let mut b = vec![Complex64::ZERO; block * block];
        let mut kb = vec![Complex64::ZERO; block * block];
        let mut acc = vec![Complex64::ZERO; block * block];
        for bi in block_bases(self.all_mask, rows) {
            for bj in block_bases(self.all_mask, dim) {
                for (r, &ro) in self.offs.iter().enumerate() {
                    let row = (bi + ro) * dim + bj;
                    for (c, &co) in self.offs.iter().enumerate() {
                        b[r * block + c] = load(re, im, row + co);
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
                        store(re, im, row + co, acc[r * block + c]);
                    }
                }
            }
        }
    }
}

/// A noise channel resolved into its cheapest exact form at compile
/// time.
#[derive(Debug, Clone)]
pub enum ExactChannel {
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

    fn apply(&self, re: &mut [f64], im: &mut [f64], dim: usize, lanes: Lanes) {
        match self {
            ExactChannel::Unitary(op) => op.conjugate(re, im, dim, lanes),
            ExactChannel::Super(s) => s.apply(re, im, dim, lanes),
            ExactChannel::Blocks(b) => b.apply(re, im, dim),
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

/// The exact tape's kind: dense entries carry their precomputed block
/// offsets, and channels resolve into their cheapest exact form.
#[derive(Debug, Clone, Copy)]
pub struct ExactKind;

impl TapeKind for ExactKind {
    type Dense = DenseOp;
    type Channel = ExactChannel;

    fn dense(matrix: Matrix, targets: &[usize]) -> DenseOp {
        DenseOp::new(Arc::new(matrix), targets)
    }

    fn rebind(dense: &mut DenseOp, matrix: &Matrix) {
        assert_eq!(matrix.rows(), dense.offs.len(), "dimension mismatch");
        dense.matrix = Arc::new(matrix.clone());
    }

    fn channel(channel: &ChannelOp, targets: &[usize]) -> ExactChannel {
        ExactChannel::compile(channel, targets)
    }
}

/// Applies a fused diagonal run: per-gate factor tables (split like
/// the state), then one elementwise sweep multiplying each entry by
/// every gate's `d(i) conj(d(j))` in op order — the same per-entry
/// multiply sequence as gate-at-a-time `apply_diagonal_unitary`, hence
/// bit-identical.
fn apply_diag_run(
    run: &[DiagOp],
    fre: &mut Vec<f64>,
    fim: &mut Vec<f64>,
    re: &mut [f64],
    im: &mut [f64],
    dim: usize,
    lanes: Lanes,
) {
    fre.clear();
    fim.clear();
    for op in run {
        for i in 0..dim {
            let f = op.factor(i);
            fre.push(f.re);
            fim.push(f.im);
        }
    }
    let (fre, fim): (&[f64], &[f64]) = (fre, fim);
    sweep_rows(re, im, dim, 1, |re, im, row0| {
        kernel!(lanes, diag_rows(re, im, row0, dim, fre, fim))
    });
}

/// Replays [`ExactReplayProgram`] tapes over a reusable arena: the
/// state as split re/im planes, the diagonal factor-table scratch, and
/// the lane tier its sweeps dispatch to.
///
/// Unlike the trajectory [`super::ReplayEngine`] there is no ensemble:
/// one replay produces the exact mixed state. The engine exists so
/// repeated dispatches (serving, optimization loops) reuse the `4^n`
/// allocation. It has one entry per output shape — the state
/// ([`ExactReplayEngine::run`]) and its measurement probabilities
/// ([`ExactReplayEngine::run_probabilities`]) — and each replays from
/// `|0...0><0...0|`, so an engine may serve any sequence of entries and
/// tapes of its width.
#[derive(Debug, Clone)]
pub struct ExactReplayEngine {
    n_qubits: usize,
    /// Real plane: `Re(rho[i][j])` at `re[i * dim + j]`.
    re: Vec<f64>,
    /// Imaginary plane, same indexing.
    im: Vec<f64>,
    /// Factor tables of the current diagonal run, real parts.
    fre: Vec<f64>,
    /// Factor tables, imaginary parts.
    fim: Vec<f64>,
    /// Kernel build, probed once per engine ([`lane_isa`]).
    lanes: Lanes,
    /// The state the last [`ExactReplayEngine::run`] joined from the
    /// planes, held so `run` can lend it.
    rho: Option<DensityMatrix>,
}

impl ExactReplayEngine {
    /// Allocates an engine sized for `program`.
    pub fn for_program(program: &ExactReplayProgram) -> Self {
        let dim = 1usize << program.n_qubits;
        let max_run = program.ops.iter().map(|op| match op {
            TapeOp::DiagRun { len, .. } => *len,
            _ => 0,
        });
        let factors = max_run.max().unwrap_or(0) * dim;
        Self {
            n_qubits: program.n_qubits,
            re: vec![0.0; dim * dim],
            im: vec![0.0; dim * dim],
            fre: Vec::with_capacity(factors),
            fim: Vec::with_capacity(factors),
            lanes: lane_isa(),
            rho: None,
        }
    }

    /// Replays the tape and returns the resulting state (borrowed from
    /// the engine), joined from the planes once at the end.
    ///
    /// `sink` attributes each tape op's wall time to its
    /// [`ReplayOpKind`] (dense conjugations by arity, channels via
    /// `ExactChannel::profile_kind`; the exact path never
    /// renormalizes). With [`crate::NoProfile`] this monomorphizes to
    /// the unprofiled loop exactly; any sink leaves the sweeps
    /// untouched, so the evolved state stays bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the tape's width differs from the engine's.
    pub fn run<P: ProfileSink>(
        &mut self,
        program: &ExactReplayProgram,
        sink: &P,
    ) -> &DensityMatrix {
        self.replay(program, sink);
        self.rho.insert(DensityMatrix::from_planes(
            self.n_qubits,
            &self.re,
            &self.im,
        ))
    }

    /// Replays the tape and returns only its measurement probabilities
    /// — bit-equal to `run(program, sink).probabilities()`, read
    /// straight from the planes' diagonal (clamped at zero) without
    /// building the `4^n` state. `sink` and panics as in
    /// [`ExactReplayEngine::run`].
    pub fn run_probabilities<P: ProfileSink>(
        &mut self,
        program: &ExactReplayProgram,
        sink: &P,
    ) -> Vec<f64> {
        self.replay(program, sink);
        let dim = 1usize << self.n_qubits;
        self.re
            .iter()
            .step_by(dim + 1)
            .map(|p| p.max(0.0))
            .collect()
    }

    /// The tape sweep itself: resets the planes to `|0...0><0...0|` and
    /// applies every op. The hot loop performs no per-op allocation
    /// beyond the fan-out's chunk list at 10+ qubits.
    fn replay<P: ProfileSink>(&mut self, program: &ExactReplayProgram, sink: &P) {
        assert_eq!(program.n_qubits, self.n_qubits, "engine width");
        let dim = 1usize << self.n_qubits;
        let lanes = self.lanes;
        let (re, im) = (&mut self.re[..], &mut self.im[..]);
        re.fill(0.0);
        im.fill(0.0);
        re[0] = 1.0;
        for op in &program.ops {
            match op {
                TapeOp::DiagRun { start, len } => timed(sink, ReplayOpKind::DiagRun, || {
                    let run = &program.diag[*start..*start + *len];
                    let (fre, fim) = (&mut self.fre, &mut self.fim);
                    apply_diag_run(run, fre, fim, re, im, dim, lanes)
                }),
                TapeOp::Apply(dense) => {
                    let kind = if dense.offs.len() == 2 {
                        ReplayOpKind::Dense1q
                    } else {
                        ReplayOpKind::Dense2q
                    };
                    timed(sink, kind, || dense.conjugate(re, im, dim, lanes))
                }
                TapeOp::Channel(i) => {
                    let channel = &program.channels[*i];
                    timed(sink, channel.profile_kind(), || {
                        channel.apply(re, im, dim, lanes)
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::lanes::detected_tiers;
    use super::*;
    use crate::trajectory::TrajectoryProgram;
    use hgp_circuit::{Gate, Param};
    use hgp_math::c64;
    use hgp_math::pauli::{sigma_x, sigma_y, sigma_z};
    use hgp_obs::profile::NoProfile;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A fresh engine's replay of `tape`.
    fn evolve(tape: &ExactReplayProgram) -> DensityMatrix {
        ExactReplayEngine::for_program(tape)
            .run(tape, &NoProfile)
            .clone()
    }

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
        assert_eq!(evolve(&tape), reference(&program));
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
        assert_eq!(evolve(&tape), reference(&program));
    }

    #[test]
    fn multi_kraus_channels_match_reference_within_1e_12() {
        let mut program = TrajectoryProgram::new(2);
        program.push_gate(Gate::H, &[0]);
        program.push_gate(Gate::CX, &[0, 1]);
        program.push_channel(depolarizing_op(0.2), &[0]);
        program.push_channel(two_qubit_dephasing(0.3), &[0, 1]);
        let tape = ExactReplayProgram::compile(&program);
        let rho = evolve(&tape);
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
        let rho = evolve(&tape);
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
        assert_eq!(evolve(&tape), reference(&program));
    }

    #[test]
    fn engine_reuse_resets_the_arena() {
        let mut program = TrajectoryProgram::new(2);
        program.push_gate(Gate::H, &[0]);
        program.push_channel(depolarizing_op(0.4), &[0]);
        let tape = ExactReplayProgram::compile(&program);
        let mut engine = ExactReplayEngine::for_program(&tape);
        let first = engine.run(&tape, &NoProfile).clone();
        let second = engine.run(&tape, &NoProfile).clone();
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
        assert_eq!(evolve(&tape), reference(&rebound));
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

    /// Splits row-major entries into the engine's planes.
    fn planes(data: &[Complex64]) -> (Vec<f64>, Vec<f64>) {
        (
            data.iter().map(|z| z.re).collect(),
            data.iter().map(|z| z.im).collect(),
        )
    }

    fn plane_bits(re: &[f64], im: &[f64]) -> Vec<(u64, u64)> {
        re.iter()
            .zip(im)
            .map(|(r, i)| (r.to_bits(), i.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// At every lane tier the CPU runs, each channel sweep equals
        /// the CSR chain and each dense conjugation the density walk,
        /// bit for bit; widths up to 7 qubits put several lane groups in
        /// a row and every target bit below and above the group length.
        #[test]
        fn specialized_sweeps_match_the_csr_chain_bit_for_bit(
            n in 1usize..8,
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
            let mut reference = rho.clone();
            csr_sweep(&kraus, &targets, &mut reference, 0, dim);
            let channel = SuperOp::compile(&kraus, &targets);

            // The dense conjugation against the density walk's
            // left-then-right multiply, same targets.
            let m = random_matrix(1 << arity, &mut rng);
            let (re0, im0) = planes(&rho);
            let mut walk = DensityMatrix::from_planes(n, &re0, &im0);
            walk.apply_unitary(&m, &targets);
            let walk = bits(walk.to_matrix().as_slice());
            let dense = DenseOp::new(Arc::new(m), &targets);

            for lanes in detected_tiers() {
                let (mut re, mut im) = (re0.clone(), im0.clone());
                channel.apply(&mut re, &mut im, dim, lanes);
                prop_assert!(
                    plane_bits(&re, &im) == bits(&reference),
                    "channel sweep moved a bit (targets {targets:?}, {lanes:?})"
                );
                let (mut re, mut im) = (re0.clone(), im0.clone());
                dense.conjugate(&mut re, &mut im, dim, lanes);
                prop_assert!(
                    plane_bits(&re, &im) == walk,
                    "dense conjugation moved a bit (targets {targets:?}, {lanes:?})"
                );
            }
        }
    }

    /// Every op shape swept over block-aligned row chunks — the fan-out
    /// path's partition, `row0 > 0` included — equals one whole-matrix
    /// sweep bit for bit at 10 qubits, at every lane tier, and every
    /// tier's result equals the baseline build's.
    #[test]
    fn aligned_row_chunks_match_the_whole_matrix_sweep_at_10q() {
        let n = 10;
        let dim = 1usize << n;
        let mut rng = StdRng::seed_from_u64(10);
        let (re0, im0) = planes(&random_rho(dim, &mut rng));
        type Sweep<'a> = &'a dyn Fn(&mut [f64], &mut [f64], usize, Lanes);
        let chunked = |align_rows: usize, sweep: Sweep| {
            let height = chunk_height(align_rows);
            assert!(height < dim, "align {align_rows} leaves a single chunk");
            let mut baseline = None;
            for lanes in detected_tiers() {
                let (mut re, mut im) = (re0.clone(), im0.clone());
                sweep(&mut re, &mut im, 0, lanes);
                let whole = plane_bits(&re, &im);
                let (mut re, mut im) = (re0.clone(), im0.clone());
                let parts = re.chunks_mut(height * dim).zip(im.chunks_mut(height * dim));
                for (c, (re, im)) in parts.enumerate() {
                    sweep(re, im, c * height, lanes);
                }
                assert!(
                    whole == plane_bits(&re, &im),
                    "align {align_rows}, {lanes:?}: chunked sweep moved a bit"
                );
                let baseline = baseline.get_or_insert_with(|| whole.clone());
                assert!(
                    *baseline == whole,
                    "align {align_rows}: {lanes:?} differs from the baseline build"
                );
            }
        };
        for targets in [&[0][..], &[5], &[8], &[0, 5], &[6, 2], &[8, 0], &[1, 4, 0]] {
            let k = targets.len();
            let dense = DenseOp::new(Arc::new(random_matrix(1 << k, &mut rng)), targets);
            chunked(dense.align_rows, &|re, im, row0, lanes| {
                dense.conjugate_rows(re, im, row0, dim, lanes)
            });
            let kraus: Vec<Matrix> = (0..3).map(|_| random_matrix(1 << k, &mut rng)).collect();
            match ExactChannel::compile(&ChannelOp::general(kraus), targets) {
                ExactChannel::Super(s) => chunked(s.align_rows(), &|re, im, row0, lanes| {
                    s.apply_rows(re, im, row0, dim, lanes)
                }),
                ExactChannel::Blocks(b) => chunked(b.align_rows, &|re, im, row0, _| {
                    b.apply_rows(re, im, row0, dim)
                }),
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
        let (fre, fim) = planes(&tables);
        chunked(1, &|re, im, row0, lanes| {
            kernel!(lanes, diag_rows(re, im, row0, dim, &fre, &fim))
        });
    }

    /// A whole noisy tape — fused diagonal runs, 1q and 2q dense ops,
    /// resolved 1q and 2q channels, a single-Kraus channel and a 3q
    /// Kraus-block channel — replays to the same bits at every lane
    /// tier, and its plane-read probabilities equal the joined state's.
    #[test]
    fn every_lane_tier_replays_the_tape_bit_identically() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 7;
        let mut program = TrajectoryProgram::new(n);
        for q in 0..n {
            program.push_gate(Gate::H, &[q]);
        }
        for (a, b) in [(0, 1), (1, 4), (2, 6), (5, 3)] {
            program.push_gate(Gate::Rzz(Param::bound(0.2 * (a + b) as f64)), &[a, b]);
        }
        program.push_gate(Gate::Rz(Param::bound(-0.7)), &[6]);
        for q in 0..n {
            program.push_gate(Gate::Rx(Param::bound(0.3 + 0.1 * q as f64)), &[q]);
            program.push_channel(ChannelOp::general(kraus_1q(q % 4, &mut rng)), &[q]);
        }
        program.push_gate(Gate::CX, &[0, 5]);
        program.push_channel(ChannelOp::general(kraus_2q(1, &mut rng)), &[5, 0]);
        program.push_unitary(random_matrix(4, &mut rng), &[3, 6]);
        program.push_channel(ChannelOp::general(kraus_2q(0, &mut rng)), &[2, 3]);
        program.push_channel(
            ChannelOp::general(vec![Gate::CX.matrix().unwrap()]),
            &[4, 1],
        );
        let kraus: Vec<Matrix> = (0..2).map(|_| random_matrix(8, &mut rng)).collect();
        program.push_channel(ChannelOp::general(kraus), &[1, 6, 2]);
        let tape = ExactReplayProgram::compile(&program);

        let mut baseline: Option<Vec<(u64, u64)>> = None;
        for lanes in detected_tiers() {
            let mut engine = ExactReplayEngine::for_program(&tape);
            engine.lanes = lanes;
            let rho = engine.run(&tape, &NoProfile).clone();
            let got = bits(rho.to_matrix().as_slice());
            let probs = engine.run_probabilities(&tape, &NoProfile);
            let joined: Vec<u64> = rho.probabilities().iter().map(|p| p.to_bits()).collect();
            assert_eq!(
                probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                joined,
                "{lanes:?}: plane-read probabilities differ from the joined state's"
            );
            let baseline = baseline.get_or_insert_with(|| got.clone());
            assert!(
                *baseline == got,
                "{lanes:?} differs from the baseline build"
            );
        }
    }
}
