//! Batched-shot replay: lockstep SoA trajectory ensembles over the op
//! tape.
//!
//! Run one trajectory at a time and every shot of an ensemble decodes
//! the same tape, reloads the same resolved matrices, and re-reads the
//! same channel sampling tables. [`ReplayBatch`] inverts the loop nest —
//! **op-major instead of shot-major**: `S` statevectors live in one
//! structure-of-arrays arena and each tape entry sweeps all `S` resident
//! shots before the next entry is decoded. Tape decode, matrix loads,
//! diagonal factor lookups, and channel-table reads are paid once per op
//! per *block* instead of once per op per *shot*, and the innermost
//! loops run over `S` contiguous lanes with loop-invariant coefficients
//! — the shape the auto-vectorizer wants. [`super::ReplayEngine`] is the
//! one driver: it partitions an ensemble into blocks and runs each on a
//! per-worker batch.
//!
//! # Layout: amplitude-major split re/im planes
//!
//! The arena stores the real and imaginary parts of amplitude `b` of
//! shot `s` at `re[b * S + s]` / `im[b * S + s]` — amplitude-major
//! across shots, with the two components in separate planes. Two
//! alternatives lose:
//!
//! - **shot-major** (`S` contiguous full statevectors) degenerates to a
//!   one-shot-at-a-time loop with shared decode — every kernel still
//!   walks one shot's amplitudes with per-amplitude index arithmetic,
//!   and nothing vectorizes across shots;
//! - **interleaved `Complex64` lanes** (amplitude-major, but `(re, im)`
//!   pairs) keep the right loop shape yet defeat the vectorizer: complex
//!   multiply over interleaved pairs needs cross-lane shuffles, and the
//!   measured batched path ran no faster than one shot at a time.
//!
//! Split planes turn every kernel's inner loop into straight-line `f64`
//! lane arithmetic (each shot's real and imaginary parts computed from
//! the same loads), which vectorizes on baseline x86-64. The full-block
//! kernels in `kern` are additionally compiled with AVX2 and with
//! AVX-512 enabled and dispatched by one runtime CPUID check per batch
//! — the lane-tier machinery this engine shares with the exact tape
//! (`replay::lanes`; `HGP_REPLAY_LANES` overrides the probed tier for
//! both). Multiversioning happens at *kernel* granularity (one call per
//! op per block), not per amplitude row: `#[target_feature]` functions
//! cannot inline into baseline callers, so a per-row boundary would pay
//! a call per 32-lane sweep. The dispatch is bit-safe: wider vectors
//! evaluate the *same* scalar expression per lane, and rustc never
//! contracts separate multiplies and adds into FMAs, so every tier
//! produces identical bits (pinned by this module's tier-parity test).
//! `BENCH_replay.json`'s `replay_batched_expectation_*` entries record
//! the measured advantage over the reference [`crate::TrajectoryEngine`]
//! on the same schedule at 12 and 16 qubits.
//!
//! # Block size: fill the lanes
//!
//! Every kernel pays a fixed cost per amplitude row — slicing the row
//! out of each plane, the pair or quad index surgery, the branch on the
//! op's shape — before its `S`-wide lane loop does any arithmetic. The
//! block size therefore decides how much work each row's overhead is
//! spread over, and that, not cache residency, is what the batched path
//! gains or loses by: at 16 qubits an 8-shot block streams 8 MiB per
//! sweep and runs more than twice as fast per shot as a 2-shot block
//! sized to stay in L2. [`default_block_size`] therefore caps a block at
//! 64 shots and 32 MiB of arena rather than at a cache size.
//!
//! # Divergence at channels
//!
//! Channels are the one place shots disagree about what happens next.
//! Each resident shot keeps its own [`StdRng`] (seeded from the
//! *identical* per-trajectory stream [`crate::TrajectoryEngine`] uses)
//! and draws exactly where the reference draws — one `f64` per channel
//! per shot. The branch *picks* therefore match the reference run bit
//! for bit; only application is regrouped:
//!
//! - general channels accumulate every shot's branch weights before any
//!   shot draws. A 1q channel's weights come from one read-only pass
//!   over the block whose row pattern was resolved when the tape was
//!   compiled: thermal relaxation (the only general channel a backend's
//!   noise model records) runs one lane loop per amplitude pair that
//!   accumulates all four Kraus weights with no per-operator dispatch;
//! - a 1q general channel then applies every pick in one lane-tier
//!   sweep. If all shots picked the same diagonal branch (thermal
//!   relaxation's `K0`, the common pick), the apply fuses with the norm
//!   scan; otherwise — divergent picks — each lane applies its own
//!   picked operator's coefficients, shots that took a skipped identity
//!   `K0` keep their amplitudes through a per-lane select, and one norm
//!   pass follows;
//! - mixed-unitary channels (where a rare pick touches few lanes) and
//!   multi-qubit general channels sweep each picked branch over its
//!   shot group with strided masked loops; shots that picked an
//!   identity(-skip) branch are masked out entirely.
//!
//! # Why this is bit-identical, not just equivalent
//!
//! Trajectories are independent: shot `s` owns its statevector and its
//! RNG, and no op reads another shot's state. Reordering the loop nest
//! from shot-major to op-major therefore cannot change any shot's
//! result **as long as each shot's own floating-point operation
//! sequence is preserved** — which every kernel here does by mirroring
//! the [`StateVector`] kernels the reference engine runs, expression for
//! expression: the same per-amplitude multiply sequence for diagonal
//! runs (factors in gate order, as gate-at-a-time application applies
//! them), the same `m00 * a + m01 * b` dense pair update, the same
//! `mul_add` accumulation chains for 2q quads and generic weight scans
//! (including their exact `x - y + z` association), the same
//! ascending-base accumulation order for weights, norms, and diagonal
//! observables, and the same renormalization (`norm_sqr().sqrt()`, one
//! reciprocal, one scale pass). Splitting a `Complex64` into
//! plane-resident components changes where the two `f64`s live, not one
//! bit of what is computed from them. Property tests in
//! `crates/sim/tests/replay_parity.rs` pin the whole surface against
//! [`crate::TrajectoryEngine`] across block sizes, splits, and seeds.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgp_math::pauli::PauliSum;
use hgp_math::{Complex64, Matrix};
use hgp_obs::profile::{timed, ProfileSink, ReplayOpKind};

use crate::kernels::DiagOp;
use crate::statevector::StateVector;
use crate::trajectory::ChannelOp;

use super::lanes::{kernel, lane_isa, lane_tiers, Lanes};
use super::{ReplayProgram, TapeKind, TapeOp};

/// The trajectory tape's kind: dense entries keep their targets and
/// matrix, and channels compile into sampling tables.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryKind;

/// A dense operator application with its matrix resolved at compile
/// time (dense gates, pulse-backed unitaries, frame drift). The matrix
/// sits behind an [`Arc`] so template binds — which clone the tape and
/// substitute only parametric slots — share the shape-constant
/// matrices instead of deep-copying them.
#[derive(Debug, Clone)]
pub struct DenseApply {
    /// Targets, `targets[0]` = most-significant operator bit.
    targets: Vec<usize>,
    /// The resolved matrix.
    matrix: Arc<Matrix>,
}

impl TapeKind for TrajectoryKind {
    type Dense = DenseApply;
    type Channel = CompiledChannel;

    fn dense(matrix: Matrix, targets: &[usize]) -> DenseApply {
        DenseApply {
            targets: targets.to_vec(),
            matrix: Arc::new(matrix),
        }
    }

    fn rebind(dense: &mut DenseApply, matrix: &Matrix) {
        assert_eq!(
            matrix.rows(),
            1 << dense.targets.len(),
            "dimension mismatch"
        );
        dense.matrix = Arc::new(matrix.clone());
    }

    fn channel(channel: &ChannelOp, targets: &[usize]) -> CompiledChannel {
        CompiledChannel::compile(channel, targets)
    }
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
pub struct MixedChannel {
    targets: Vec<usize>,
    /// Running sums of the branch probabilities, accumulated in the
    /// exact order [`ChannelOp::apply_sampled`]'s walk accumulates them
    /// — the comparisons (and therefore the picks) are bit-identical.
    cum: Vec<f64>,
    branches: Vec<BranchApply>,
}

/// The weight rows of a single-qubit general channel, with their row
/// pattern resolved when the tape is compiled: the weight scan
/// instantiates one kernel body per pattern, so the recorded shape pays
/// no per-operator dispatch in its lane loop.
#[derive(Debug, Clone)]
pub(super) enum Rows1q {
    /// `hgp_noise::channels::thermal_relaxation`'s compose order (the
    /// only general channel a backend's noise model records): rows
    /// `[Lo·Hi, Hi·Zero, Zero·Hi, Zero·Zero]` with real coefficients
    /// `[K0[0][0], K0[1][1], K1[0][1], K2[1][1]]`. Only the structural
    /// zeros (and the coefficients' zero imaginary parts) are checked; a
    /// coefficient may itself be zero (`lambda = 0` zeroes `K2`). Every
    /// term the pattern keeps beyond the operator's own non-zero entries
    /// — a zero coefficient's product, a `0.0 * im` product — is a
    /// `±0.0` that squaring erases, so the weights are the bits the
    /// reference's dense chain gives.
    Thermal([f64; 4]),
    /// Any other shape: per Kraus operator, `[K[0][0], K[0][1], K[1][0],
    /// K[1][1]]`, each row swept as the reference's dense two-term
    /// chain.
    Dense(Vec<[Complex64; 4]>),
}

impl Rows1q {
    pub(super) fn classify(kraus: &[Matrix]) -> Self {
        // Entries (row, col) that may be non-zero (and must be real),
        // per operator.
        const THERMAL: [&[(usize, usize)]; 4] = [&[(0, 0), (1, 1)], &[(0, 1)], &[(1, 1)], &[]];
        let thermal = kraus.len() == 4
            && kraus.iter().zip(THERMAL).all(|(k, free)| {
                (0..2).all(|r| {
                    (0..2).all(|c| {
                        let e = k[(r, c)];
                        e.im == 0.0 && (e.re == 0.0 || free.contains(&(r, c)))
                    })
                })
            });
        if thermal {
            return Rows1q::Thermal([
                kraus[0][(0, 0)].re,
                kraus[0][(1, 1)].re,
                kraus[1][(0, 1)].re,
                kraus[2][(1, 1)].re,
            ]);
        }
        Rows1q::Dense(
            kraus
                .iter()
                .map(|k| [k[(0, 0)], k[(0, 1)], k[(1, 0)], k[(1, 1)]])
                .collect(),
        )
    }
}

/// The branch-weight sweep of a general channel.
#[derive(Debug, Clone)]
enum WeightScan {
    /// Strided single-qubit kernel: direct pair enumeration with the
    /// operators' rows pattern-resolved at compile time, replacing the
    /// generic scan's per-base index construction. Same pairs in the
    /// same order, bit-identical totals.
    One { target: usize, rows: Rows1q },
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
pub struct GeneralChannel {
    targets: Vec<usize>,
    kraus: Vec<Matrix>,
    scan: WeightScan,
    /// Skip branch-0 application + renormalization (`K_0` is a scalar
    /// multiple of the identity; see [`ChannelOp::skips_identity_k0`]).
    k0_identity: bool,
}

/// A precompiled channel of either sampling family.
#[derive(Debug, Clone)]
pub enum CompiledChannel {
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
            WeightScan::One {
                target: targets[0],
                rows: Rows1q::classify(&kraus),
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
}

/// Full-block kernel bodies: each sweeps one op over every resident
/// shot of the arena. Bodies are `#[inline(always)]` so the
/// `lane_tiers!` wrappers re-compile the identical expressions under
/// the wider ISA; every inner loop is the batched transliteration of
/// the [`StateVector`] kernel's per-amplitude `Complex64` expression
/// (see the module docs for the exact correspondences being preserved).
mod kern {
    use hgp_math::Complex64;

    use super::rows2_mut;
    use crate::kernels::DiagOp;

    /// A fused diagonal run: per amplitude row, the factor sequence is
    /// gathered once, then each factor multiplies every shot's lane in
    /// sequence — per shot, the exact multiply order of gate-at-a-time
    /// `apply_diag_1q`/`apply_diag_2q` (factors in op order), with the
    /// per-amplitude factor lookups amortized `S`-fold.
    ///
    /// `inv`, when present, is a deferred renormalization: each row is
    /// scaled by the per-shot reciprocal while L1-hot, before the
    /// factor sweeps — the same `a * inv` the reference stores in
    /// its own scale pass.
    #[inline(always)]
    pub fn diag_run(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        ops: &[DiagOp],
        factors: &mut Vec<Complex64>,
        inv: Option<&[f64]>,
    ) {
        if let Some(inv) = inv {
            assert!(inv.len() == s_n);
        }
        for ((b, row_re), row_im) in re
            .chunks_exact_mut(s_n)
            .enumerate()
            .zip(im.chunks_exact_mut(s_n))
        {
            if let Some(inv) = inv {
                for s in 0..s_n {
                    row_re[s] *= inv[s];
                    row_im[s] *= inv[s];
                }
            }
            factors.clear();
            factors.extend(ops.iter().map(|op| op.factor(b)));
            for &f in factors.iter() {
                for (vr, vi) in row_re.iter_mut().zip(row_im.iter_mut()) {
                    let (r, i) = (*vr, *vi);
                    *vr = r * f.re - i * f.im;
                    *vi = r * f.im + i * f.re;
                }
            }
        }
    }

    /// Dense 1q over every resident shot: `apply_dense_1q`'s pair
    /// enumeration with the bit surgery hoisted out of the `S`-wide
    /// inner loop. Per shot, the exact `m00 * a + m01 * b` update of
    /// `apply_dense_1q`, written out over the planes. `m` is
    /// `[m00, m01, m10, m11]`.
    ///
    /// `inv`, when present, is a deferred renormalization: the pair
    /// inputs are scaled by the per-shot reciprocal as they are loaded
    /// (the op overwrites every amplitude, so the scaled value is
    /// consumed, never stored) — the same `a * inv` the reference
    /// stores in its own scale pass.
    ///
    /// Diagonal and anti-diagonal matrices (the shape of most Kraus
    /// branches — thermal-relaxation `K0` is diagonal, Pauli jump
    /// operators are one or the other) skip the half of the update that
    /// multiplies by exact-zero entries, halving the pass's flops. The
    /// skipped term `(c.re * v - c.im * w)` with `c == 0` is `±0.0` for
    /// finite inputs, and dropping a `±0.0` addend can only change a
    /// result's bits when the result is itself a zero — flipping its
    /// sign. Those zero signs never reach an observable: branch weights,
    /// norms, and measurement probabilities square components (`(-0.0)^2
    /// == +0.0`), expectation and weight accumulators start at `+0.0`
    /// (and `+0.0 + ±0.0 == +0.0`), branch-pick comparisons treat `±0.0`
    /// as equal, and no path divides by or takes the sign of an
    /// amplitude. The sparsity-classified weight rows ([`Row1q`]) rest
    /// on the same erasure argument.
    #[inline(always)]
    pub fn dense1q_all(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        target: usize,
        m: [Complex64; 4],
        inv: Option<&[f64]>,
    ) {
        let [m00, m01, m10, m11] = m;
        let bit = 1usize << target;
        let low = bit - 1;
        let dim = re.len() / s_n;
        if let Some(inv) = inv {
            assert!(inv.len() == s_n);
        }
        let zero = |c: Complex64| c.re == 0.0 && c.im == 0.0;
        let diag = zero(m01) && zero(m10);
        let anti = zero(m00) && zero(m11);
        for g in 0..dim / 2 {
            let i = ((g & !low) << 1) | (g & low);
            let j = i | bit;
            let (ri_re, rj_re) = rows2_mut(re, s_n, i, j);
            let (ri_im, rj_im) = rows2_mut(im, s_n, i, j);
            if diag {
                match inv {
                    None => {
                        for s in 0..s_n {
                            let (xr, xi) = (ri_re[s], ri_im[s]);
                            let (yr, yi) = (rj_re[s], rj_im[s]);
                            ri_re[s] = m00.re * xr - m00.im * xi;
                            ri_im[s] = m00.re * xi + m00.im * xr;
                            rj_re[s] = m11.re * yr - m11.im * yi;
                            rj_im[s] = m11.re * yi + m11.im * yr;
                        }
                    }
                    Some(inv) => {
                        for s in 0..s_n {
                            let (xr, xi) = (ri_re[s] * inv[s], ri_im[s] * inv[s]);
                            let (yr, yi) = (rj_re[s] * inv[s], rj_im[s] * inv[s]);
                            ri_re[s] = m00.re * xr - m00.im * xi;
                            ri_im[s] = m00.re * xi + m00.im * xr;
                            rj_re[s] = m11.re * yr - m11.im * yi;
                            rj_im[s] = m11.re * yi + m11.im * yr;
                        }
                    }
                }
            } else if anti {
                match inv {
                    None => {
                        for s in 0..s_n {
                            let (xr, xi) = (ri_re[s], ri_im[s]);
                            let (yr, yi) = (rj_re[s], rj_im[s]);
                            ri_re[s] = m01.re * yr - m01.im * yi;
                            ri_im[s] = m01.re * yi + m01.im * yr;
                            rj_re[s] = m10.re * xr - m10.im * xi;
                            rj_im[s] = m10.re * xi + m10.im * xr;
                        }
                    }
                    Some(inv) => {
                        for s in 0..s_n {
                            let (xr, xi) = (ri_re[s] * inv[s], ri_im[s] * inv[s]);
                            let (yr, yi) = (rj_re[s] * inv[s], rj_im[s] * inv[s]);
                            ri_re[s] = m01.re * yr - m01.im * yi;
                            ri_im[s] = m01.re * yi + m01.im * yr;
                            rj_re[s] = m10.re * xr - m10.im * xi;
                            rj_im[s] = m10.re * xi + m10.im * xr;
                        }
                    }
                }
            } else {
                match inv {
                    None => {
                        for s in 0..s_n {
                            let (xr, xi) = (ri_re[s], ri_im[s]);
                            let (yr, yi) = (rj_re[s], rj_im[s]);
                            ri_re[s] = (m00.re * xr - m00.im * xi) + (m01.re * yr - m01.im * yi);
                            ri_im[s] = (m00.re * xi + m00.im * xr) + (m01.re * yi + m01.im * yr);
                            rj_re[s] = (m10.re * xr - m10.im * xi) + (m11.re * yr - m11.im * yi);
                            rj_im[s] = (m10.re * xi + m10.im * xr) + (m11.re * yi + m11.im * yr);
                        }
                    }
                    Some(inv) => {
                        for s in 0..s_n {
                            let (xr, xi) = (ri_re[s] * inv[s], ri_im[s] * inv[s]);
                            let (yr, yi) = (rj_re[s] * inv[s], rj_im[s] * inv[s]);
                            ri_re[s] = (m00.re * xr - m00.im * xi) + (m01.re * yr - m01.im * yi);
                            ri_im[s] = (m00.re * xi + m00.im * xr) + (m01.re * yi + m01.im * yr);
                            rj_re[s] = (m10.re * xr - m10.im * xi) + (m11.re * yr - m11.im * yi);
                            rj_im[s] = (m10.re * xi + m10.im * xr) + (m11.re * yi + m11.im * yr);
                        }
                    }
                }
            }
        }
    }

    /// Dense 2q over every resident shot: the quad enumeration of
    /// `apply_dense_2q` with the index surgery hoisted.
    /// The four rows are gathered into contiguous scratch, then each
    /// output row runs the identical four-term `mul_add` accumulation
    /// chain per shot (exact `(m.re * v.re - m.im * v.im) + acc`
    /// association).
    /// `inv`, when present, is a deferred renormalization: the quad
    /// rows are scaled by the per-shot reciprocal during the gather
    /// (the op overwrites every amplitude, so the scaled value is
    /// consumed, never stored) — the same `a * inv` the reference
    /// stores in its own scale pass.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn dense2q_all(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        t_hi: usize,
        t_lo: usize,
        mm: &[[Complex64; 4]; 4],
        quad_re: &mut [f64],
        quad_im: &mut [f64],
        inv: Option<&[f64]>,
    ) {
        let bh = 1usize << t_hi;
        let bl = 1usize << t_lo;
        let (b_lo, b_hi) = (bh.min(bl), bh.max(bl));
        let block = 2 * b_hi;
        let quarter = block / 4;
        let dim = re.len() / s_n;
        if let Some(inv) = inv {
            assert!(inv.len() == s_n);
        }
        for blk0 in (0..dim).step_by(block) {
            for g in 0..quarter {
                let low = g & (b_lo - 1);
                let mid = (g ^ low) << 1;
                let i0 = {
                    let partial = mid | low;
                    let lowpart = partial & (b_hi - 1);
                    ((partial ^ lowpart) << 1) | lowpart
                };
                // Row indices in operator basis order |t_hi t_lo>.
                let base = blk0 + i0;
                let rows = [base, base | bl, base | bh, base | bh | bl];
                match inv {
                    None => {
                        for (q, &idx) in rows.iter().enumerate() {
                            quad_re[q * s_n..(q + 1) * s_n]
                                .copy_from_slice(&re[idx * s_n..idx * s_n + s_n]);
                            quad_im[q * s_n..(q + 1) * s_n]
                                .copy_from_slice(&im[idx * s_n..idx * s_n + s_n]);
                        }
                    }
                    Some(inv) => {
                        for (q, &idx) in rows.iter().enumerate() {
                            let src_re = &re[idx * s_n..idx * s_n + s_n];
                            let src_im = &im[idx * s_n..idx * s_n + s_n];
                            let dst_re = &mut quad_re[q * s_n..(q + 1) * s_n];
                            let dst_im = &mut quad_im[q * s_n..(q + 1) * s_n];
                            for s in 0..s_n {
                                dst_re[s] = src_re[s] * inv[s];
                                dst_im[s] = src_im[s] * inv[s];
                            }
                        }
                    }
                }
                for (r, &idx) in rows.iter().enumerate() {
                    let out_re = &mut re[idx * s_n..idx * s_n + s_n];
                    let out_im = &mut im[idx * s_n..idx * s_n + s_n];
                    let mr = mm[r];
                    for s in 0..s_n {
                        let mut ar = 0.0;
                        let mut ai = 0.0;
                        for (c, mc) in mr.iter().enumerate() {
                            let (vr, vi) = (quad_re[c * s_n + s], quad_im[c * s_n + s]);
                            ar += mc.re * vr - mc.im * vi;
                            ai += mc.re * vi + mc.im * vr;
                        }
                        out_re[s] = ar;
                        out_im[s] = ai;
                    }
                }
            }
        }
    }

    /// One row of a single-qubit Kraus operator as the weight scan
    /// evaluates it, by which of its entries are exact zeros (the
    /// standard channel constructors produce structurally sparse, real
    /// operators: thermal relaxation's set is one diagonal, two
    /// single-entry, and one zero operator).
    ///
    /// Sparsity is *safe* for weight sweeps specifically: a skipped
    /// `0 * a` term (a zero entry, or the zero imaginary part of a real
    /// one) changes the row value only in the sign of zero components,
    /// and the row enters the total through `norm_sqr`, which squares
    /// them away — the accumulated weights are **bit-identical** to the
    /// dense two-`mul_add` chain. (State *application* is not
    /// sparsified: there the signed zeros would land in the amplitudes
    /// themselves.)
    #[derive(Clone, Copy)]
    enum Row1q {
        /// Both entries zero: the row contributes exactly `+0.0` —
        /// skipped.
        Zero,
        /// Only the `a0` (bit-clear) entry, real: `|m * a0|^2`.
        Lo(f64),
        /// Only the `a1` (bit-set) entry, real: `|m * a1|^2`.
        Hi(f64),
        /// Dense row: the reference `mul_add` chain.
        Both(Complex64, Complex64),
    }

    /// The weight rows of a 1q general channel as the scan kernel reads
    /// them: `G` operators per lane loop, group `g` of
    /// [`WeightRows::groups`] covering operators `g * G..(g + 1) * G`.
    /// Both patterns return row kinds that are constant at compile
    /// time, so once the body is instantiated its per-lane match folds
    /// away and the lane loop vectorizes.
    trait WeightRows<const G: usize>: Copy {
        /// Operator groups (the channel's Kraus count over `G`).
        fn groups(self) -> usize;
        /// The rows of group `g`'s operators.
        fn group(self, g: usize) -> [(Row1q, Row1q); G];
    }

    /// `thermal_relaxation`'s rows `[Lo·Hi, Hi·Zero, Zero·Hi,
    /// Zero·Zero]` with real coefficients `[K0 lo, K0 hi, K1 hi, K2 hi]`
    /// (see `Rows1q::Thermal`): all four operators in one lane loop.
    #[derive(Clone, Copy)]
    struct Thermal([f64; 4]);

    impl WeightRows<4> for Thermal {
        #[inline(always)]
        fn groups(self) -> usize {
            1
        }

        #[inline(always)]
        fn group(self, _: usize) -> [(Row1q, Row1q); 4] {
            let [k0_lo, k0_hi, k1_hi, k2_hi] = self.0;
            [
                (Row1q::Lo(k0_lo), Row1q::Hi(k0_hi)),
                (Row1q::Hi(k1_hi), Row1q::Zero),
                (Row1q::Zero, Row1q::Hi(k2_hi)),
                (Row1q::Zero, Row1q::Zero),
            ]
        }
    }

    /// Any other shape, one operator per lane loop, each row the
    /// reference's dense chain (`Both`, exact zeros included — the
    /// reference's own arithmetic).
    impl WeightRows<1> for &[[Complex64; 4]] {
        #[inline(always)]
        fn groups(self) -> usize {
            self.len()
        }

        #[inline(always)]
        fn group(self, g: usize) -> [(Row1q, Row1q); 1] {
            let [m00, m01, m10, m11] = self[g];
            [(Row1q::Both(m00, m01), Row1q::Both(m10, m11))]
        }
    }

    /// `w + ||row · (a0, a1)||^2` for one classified row: the terms of
    /// `StateVector::branch_weight`'s two-`mul_add` chain that are not
    /// exact zeros (`Both` keeps the literal `+ 0.0` of
    /// `mul_add(a0, ZERO)`; a `Zero` row's `+ 0.0` leaves the
    /// non-negative accumulator's bits unchanged).
    #[inline(always)]
    fn add_row(w: f64, r: Row1q, a0r: f64, a0i: f64, a1r: f64, a1i: f64) -> f64 {
        match r {
            Row1q::Zero => w,
            Row1q::Lo(m) => {
                let (tr, ti) = (m * a0r, m * a0i);
                w + (tr * tr + ti * ti)
            }
            Row1q::Hi(m) => {
                let (tr, ti) = (m * a1r, m * a1i);
                w + (tr * tr + ti * ti)
            }
            Row1q::Both(l, h) => {
                let tr = (l.re * a0r - l.im * a0i) + 0.0;
                let ti = (l.re * a0i + l.im * a0r) + 0.0;
                let ur = (h.re * a1r - h.im * a1i) + tr;
                let ui = (h.re * a1i + h.im * a1r) + ti;
                w + (ur * ur + ui * ui)
            }
        }
    }

    /// Single-qubit branch weights for all shots and all Kraus
    /// operators in one read-only pass over the state, amplitude-major:
    /// each shot accumulates over the same pairs in the same
    /// ascending-base order as `StateVector::branch_weight` (per pair:
    /// bit-clear term, then bit-set term).
    ///
    /// The pairs run in tiles of [`PAIR_TILE`] and the lanes in register
    /// blocks of [`WEIGHT_LANES`] (a ragged tail one lane at a time).
    /// Per tile and block, one loop accumulates every operator of a
    /// group in registers: the lo/hi lanes are loaded once per pair, and
    /// a group's row kinds come from `rows`' pattern, resolved when the
    /// tape was compiled. The recorded thermal pattern is one group of
    /// constant kinds, so its loop is straight-line arithmetic with no
    /// per-operator dispatch, and its three live weights stay in
    /// registers across the tile instead of a load and a store per
    /// pair. The reordering is bit-exact: weights accumulate
    /// independently per operator and lane, and each still sees its
    /// pairs in ascending order with the same per-pair term sequence.
    ///
    /// `inv` is the outstanding deferred renormalization (all `1.0`
    /// when none is; `a * 1.0 == a` bit for bit): each amplitude is
    /// scaled in registers before the weight terms read it — the same
    /// `a * inv` the reference stores in its own scale pass. The scaled
    /// values are not stored: the branch apply that follows every 1q
    /// scan rewrites each amplitude from the same product.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn weights_1q<const G: usize, P: WeightRows<G>>(
        weights: &mut [f64],
        re: &[f64],
        im: &[f64],
        s_n: usize,
        target: usize,
        rows: P,
        inv: &[f64],
    ) {
        assert!(inv.len() == s_n);
        weights[..rows.groups() * G * s_n].fill(0.0);
        let pairs = re.len() / s_n / 2;
        let full = s_n - s_n % WEIGHT_LANES;
        for p0 in (0..pairs).step_by(PAIR_TILE) {
            let tile = p0..(p0 + PAIR_TILE).min(pairs);
            for s0 in (0..full).step_by(WEIGHT_LANES) {
                let block = s0..s0 + WEIGHT_LANES;
                weights_1q_tile::<WEIGHT_LANES, G, P>(
                    weights,
                    re,
                    im,
                    s_n,
                    target,
                    rows,
                    inv,
                    block,
                    tile.clone(),
                );
            }
            for s0 in full..s_n {
                let block = s0..s0 + 1;
                weights_1q_tile::<1, G, P>(
                    weights,
                    re,
                    im,
                    s_n,
                    target,
                    rows,
                    inv,
                    block,
                    tile.clone(),
                );
            }
        }
    }

    /// Lanes per register block of [`weights_1q`]: one AVX-512 vector,
    /// two AVX2 ones.
    const WEIGHT_LANES: usize = 8;

    /// Amplitude pairs per tile of [`weights_1q`]: a tile's rows stay
    /// L1-resident while every lane block of a 64-shot arena reads them.
    const PAIR_TILE: usize = 16;

    /// [`weights_1q`] over `W` lanes and one tile of pairs: each
    /// group's weights are loaded into registers, accumulate over the
    /// tile's pairs in ascending order, and are stored back — the same
    /// sequence of additions as accumulating in memory, without a load
    /// and a store per pair.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn weights_1q_tile<const W: usize, const G: usize, P: WeightRows<G>>(
        weights: &mut [f64],
        re: &[f64],
        im: &[f64],
        s_n: usize,
        target: usize,
        rows: P,
        inv: &[f64],
        lanes: std::ops::Range<usize>,
        tile: std::ops::Range<usize>,
    ) {
        let bit = 1usize << target;
        let low = bit - 1;
        let s0 = lanes.start;
        let load = |plane: &[f64], row: usize| -> [f64; W] {
            plane[row * s_n + s0..row * s_n + s0 + W]
                .try_into()
                .expect("W lanes")
        };
        let inv: [f64; W] = inv[lanes].try_into().expect("W lanes");
        for g in 0..rows.groups() {
            let ops = rows.group(g);
            let mut acc = [[0.0f64; W]; G];
            for (k, acc_k) in acc.iter_mut().enumerate() {
                *acc_k = load(weights, g * G + k);
            }
            for p in tile.clone() {
                let lo = ((p & !low) << 1) | (p & low);
                let hi = lo | bit;
                let (lo_re, lo_im) = (load(re, lo), load(im, lo));
                let (hi_re, hi_im) = (load(re, hi), load(im, hi));
                for l in 0..W {
                    let (a0r, a0i) = (lo_re[l] * inv[l], lo_im[l] * inv[l]);
                    let (a1r, a1i) = (hi_re[l] * inv[l], hi_im[l] * inv[l]);
                    for (acc_k, &(r0, r1)) in acc.iter_mut().zip(ops.iter()) {
                        let w = add_row(acc_k[l], r0, a0r, a0i, a1r, a1i);
                        acc_k[l] = add_row(w, r1, a0r, a0i, a1r, a1i);
                    }
                }
            }
            for (k, acc_k) in acc.iter().enumerate() {
                let row = (g * G + k) * s_n + s0;
                weights[row..row + W].copy_from_slice(acc_k);
            }
        }
    }

    /// [`weights_1q`] over the thermal-relaxation pattern.
    #[inline(always)]
    pub fn weights_1q_thermal(
        weights: &mut [f64],
        re: &[f64],
        im: &[f64],
        s_n: usize,
        target: usize,
        coef: [f64; 4],
        inv: &[f64],
    ) {
        weights_1q(weights, re, im, s_n, target, Thermal(coef), inv)
    }

    /// [`weights_1q`] over any other 1q Kraus set, one `[m00, m01, m10,
    /// m11]` per operator.
    #[inline(always)]
    pub fn weights_1q_dense(
        weights: &mut [f64],
        re: &[f64],
        im: &[f64],
        s_n: usize,
        target: usize,
        ops: &[[Complex64; 4]],
        inv: &[f64],
    ) {
        weights_1q(weights, re, im, s_n, target, ops, inv)
    }

    /// A 1q operator picked per lane: shot `s` applies its own branch,
    /// `coef_*[q * s_n + s]` holding entry `q` of `[m00, m01, m10, m11]`
    /// — per lane, the full dense `m00 * a + m01 * b` update
    /// `dense_1q_masked` computes for one branch group (no sparsity
    /// skip), so divergent picks cost one vectorized sweep instead of
    /// one strided masked sweep per picked branch. Lanes with
    /// `keep[s]` set (a skipped identity `K0`) keep their amplitudes
    /// through a per-lane select.
    ///
    /// `inv` is the outstanding deferred renormalization (all `1.0`
    /// when none is): the pair inputs are scaled as they are loaded —
    /// the same `a * inv` the reference stores in its own scale pass —
    /// and a kept lane stores its scaled input.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn dense1q_lanes(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        target: usize,
        coef_re: &[f64],
        coef_im: &[f64],
        inv: &[f64],
        keep: Option<&[bool]>,
    ) {
        let bit = 1usize << target;
        let low = bit - 1;
        let dim = re.len() / s_n;
        let (mut c_re, mut c_im) = (coef_re.chunks_exact(s_n), coef_im.chunks_exact(s_n));
        let [c00r, c01r, c10r, c11r]: [&[f64]; 4] =
            std::array::from_fn(|_| c_re.next().expect("four coefficient rows"));
        let [c00i, c01i, c10i, c11i]: [&[f64]; 4] =
            std::array::from_fn(|_| c_im.next().expect("four coefficient rows"));
        assert!(inv.len() == s_n);
        if let Some(keep) = keep {
            assert!(keep.len() == s_n);
        }
        for g in 0..dim / 2 {
            let i = ((g & !low) << 1) | (g & low);
            let j = i | bit;
            let (ri_re, rj_re) = rows2_mut(re, s_n, i, j);
            let (ri_im, rj_im) = rows2_mut(im, s_n, i, j);
            match keep {
                None => {
                    for s in 0..s_n {
                        let (xr, xi) = (ri_re[s] * inv[s], ri_im[s] * inv[s]);
                        let (yr, yi) = (rj_re[s] * inv[s], rj_im[s] * inv[s]);
                        ri_re[s] = (c00r[s] * xr - c00i[s] * xi) + (c01r[s] * yr - c01i[s] * yi);
                        ri_im[s] = (c00r[s] * xi + c00i[s] * xr) + (c01r[s] * yi + c01i[s] * yr);
                        rj_re[s] = (c10r[s] * xr - c10i[s] * xi) + (c11r[s] * yr - c11i[s] * yi);
                        rj_im[s] = (c10r[s] * xi + c10i[s] * xr) + (c11r[s] * yi + c11i[s] * yr);
                    }
                }
                Some(keep) => {
                    for s in 0..s_n {
                        let (xr, xi) = (ri_re[s] * inv[s], ri_im[s] * inv[s]);
                        let (yr, yi) = (rj_re[s] * inv[s], rj_im[s] * inv[s]);
                        let nr = (c00r[s] * xr - c00i[s] * xi) + (c01r[s] * yr - c01i[s] * yi);
                        let ni = (c00r[s] * xi + c00i[s] * xr) + (c01r[s] * yi + c01i[s] * yr);
                        let mr = (c10r[s] * xr - c10i[s] * xi) + (c11r[s] * yr - c11i[s] * yi);
                        let mi = (c10r[s] * xi + c10i[s] * xr) + (c11r[s] * yi + c11i[s] * yr);
                        let k = keep[s];
                        ri_re[s] = if k { xr } else { nr };
                        ri_im[s] = if k { xi } else { ni };
                        rj_re[s] = if k { yr } else { mr };
                        rj_im[s] = if k { yi } else { mi };
                    }
                }
            }
        }
    }

    /// `norms[s] += |a_b|^2` over the whole arena, rows ascending — the
    /// ascending-index squared-norm accumulation of
    /// `StateVector::renormalize` and `draw_outcome`, all shots at once.
    #[inline(always)]
    pub fn norm_acc_all(norms: &mut [f64], re: &[f64], im: &[f64], s_n: usize) {
        for (row_re, row_im) in re.chunks_exact(s_n).zip(im.chunks_exact(s_n)) {
            for (s, acc) in norms.iter_mut().enumerate() {
                *acc += row_re[s] * row_re[s] + row_im[s] * row_im[s];
            }
        }
    }

    /// A diagonal 1q operator `diag(d[0], d[1])` over every resident
    /// shot, fused with the squared-norm scan that follows it: rows
    /// ascending, each row multiplied by `d[0]` (target bit clear) or
    /// `d[1]` (bit set), and each updated amplitude added into
    /// `norms[s]` while still in registers. Per amplitude this is
    /// [`dense1q_all`]'s diagonal branch; per shot the norm sums the
    /// stored results in [`norm_acc_all`]'s ascending-row order. State
    /// and norms are therefore bit-identical to the two separate passes,
    /// minus one full read of the arena.
    ///
    /// `inv` is the outstanding deferred renormalization (all `1.0`
    /// when none is), applied to each amplitude as it is loaded — the
    /// same `a * inv` the reference stores in its own scale pass.
    #[inline(always)]
    pub fn diag1q_norm_all(
        re: &mut [f64],
        im: &mut [f64],
        norms: &mut [f64],
        s_n: usize,
        target: usize,
        d: [Complex64; 2],
        inv: &[f64],
    ) {
        assert!(norms.len() == s_n && inv.len() == s_n);
        let bit = 1usize << target;
        for (b, (row_re, row_im)) in re
            .chunks_exact_mut(s_n)
            .zip(im.chunks_exact_mut(s_n))
            .enumerate()
        {
            let m = d[usize::from(b & bit != 0)];
            for (((vr, vi), acc), &k) in row_re
                .iter_mut()
                .zip(row_im.iter_mut())
                .zip(norms.iter_mut())
                .zip(inv)
            {
                let (r, i) = (*vr * k, *vi * k);
                let nr = m.re * r - m.im * i;
                let ni = m.re * i + m.im * r;
                *vr = nr;
                *vi = ni;
                *acc += nr * nr + ni * ni;
            }
        }
    }

    /// `a *= inv[s]` over the whole arena — the renormalization scale
    /// pass with each shot's own precomputed reciprocal.
    #[inline(always)]
    pub fn scale_all(re: &mut [f64], im: &mut [f64], s_n: usize, inv: &[f64]) {
        for (row_re, row_im) in re.chunks_exact_mut(s_n).zip(im.chunks_exact_mut(s_n)) {
            for s in 0..s_n {
                row_re[s] *= inv[s];
                row_im[s] *= inv[s];
            }
        }
    }

    /// `out[s] += |a_b|^2 * diag[b]` over the whole arena, rows
    /// ascending — the reference's diagonal observable reduction, all
    /// shots at once.
    #[inline(always)]
    pub fn diag_expect_all(out: &mut [f64], re: &[f64], im: &[f64], s_n: usize, diag: &[f64]) {
        for ((row_re, row_im), &d) in re
            .chunks_exact(s_n)
            .zip(im.chunks_exact(s_n))
            .zip(diag.iter())
        {
            for (s, o) in out.iter_mut().enumerate() {
                *o += (row_re[s] * row_re[s] + row_im[s] * row_im[s]) * d;
            }
        }
    }
}

lane_tiers!(kern {
    fn diag_run(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        ops: &[DiagOp],
        factors: &mut Vec<Complex64>,
        inv: Option<&[f64]>,
    );
    fn dense1q_all(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        target: usize,
        m: [Complex64; 4],
        inv: Option<&[f64]>,
    );
    fn dense2q_all(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        t_hi: usize,
        t_lo: usize,
        mm: &[[Complex64; 4]; 4],
        quad_re: &mut [f64],
        quad_im: &mut [f64],
        inv: Option<&[f64]>,
    );
    fn weights_1q_thermal(
        weights: &mut [f64],
        re: &[f64],
        im: &[f64],
        s_n: usize,
        target: usize,
        coef: [f64; 4],
        inv: &[f64],
    );
    fn weights_1q_dense(
        weights: &mut [f64],
        re: &[f64],
        im: &[f64],
        s_n: usize,
        target: usize,
        ops: &[[Complex64; 4]],
        inv: &[f64],
    );
    fn dense1q_lanes(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        target: usize,
        coef_re: &[f64],
        coef_im: &[f64],
        inv: &[f64],
        keep: Option<&[bool]>,
    );
    fn norm_acc_all(norms: &mut [f64], re: &[f64], im: &[f64], s_n: usize);
    fn diag1q_norm_all(
        re: &mut [f64],
        im: &mut [f64],
        norms: &mut [f64],
        s_n: usize,
        target: usize,
        d: [Complex64; 2],
        inv: &[f64],
    );
    fn scale_all(re: &mut [f64], im: &mut [f64], s_n: usize, inv: &[f64]);
    fn diag_expect_all(out: &mut [f64], re: &[f64], im: &[f64], s_n: usize, diag: &[f64]);
});

/// Arena bytes one shot block may occupy: a memory ceiling of 32 MiB
/// per rayon worker, not a cache target. Blocks are sized for lane fill
/// (see "Block size: fill the lanes" in the module docs), and an arena
/// larger than L2 costs less than rows too short to amortize their
/// fixed per-row cost.
const BLOCK_ARENA_BYTES: usize = 1 << 25;

/// The default shots-per-block of the batched path for an `n_qubits`
/// program: as many shots as fit `BLOCK_ARENA_BYTES`, clamped to
/// `1..=64` (past 64 lanes the per-row overhead is already amortized;
/// states over 32 MiB run one shot per block).
pub fn default_block_size(n_qubits: usize) -> usize {
    let per_shot = std::mem::size_of::<Complex64>() << n_qubits;
    (BLOCK_ARENA_BYTES / per_shot).clamp(1, 64)
}

/// A structure-of-arrays block of `S` trajectory statevectors replayed
/// in lockstep over one [`ReplayProgram`] tape. See the module docs for
/// the layout and the bit-parity argument.
///
/// A batch is the per-worker arena of the [`super::ReplayEngine`] entry
/// points: allocated once per shot block, reused across the whole
/// tape, no per-shot allocation.
#[derive(Debug)]
pub struct ReplayBatch {
    n_qubits: usize,
    /// Resident shots `S` (the SoA stride).
    n_shots: usize,
    /// Real plane: `Re(amps[b])` of shot `s` at `re[b * n_shots + s]`.
    re: Vec<f64>,
    /// Imaginary plane, same indexing.
    im: Vec<f64>,
    /// One RNG per resident shot, consumed in exactly the reference
    /// engine's draw order for that shot.
    rngs: Vec<StdRng>,
    /// General-channel weight accumulators, `weights[k * n_shots + s]` =
    /// `||K_k psi_s||^2`.
    weights: Vec<f64>,
    /// Per-shot squared norms (renormalization, outcome draws).
    norms: Vec<f64>,
    /// Per-shot branch picks of the channel being applied.
    picks: Vec<usize>,
    /// Per-lane picked 1q operator, `coef_re[q * n_shots + s]` = real
    /// part of entry `q` of `[m00, m01, m10, m11]` of shot `s`'s branch.
    coef_re: Vec<f64>,
    /// Imaginary half of the per-lane operator scratch.
    coef_im: Vec<f64>,
    /// Per-lane "picked a skipped identity `K0`" flags.
    keep: Vec<bool>,
    /// Shot-index scratch for branch application groups.
    group: Vec<usize>,
    /// Diagonal factor scratch for fused runs.
    factors: Vec<Complex64>,
    /// Quad-row gather scratch for the dense 2q kernel (4 rows x S).
    quad_re: Vec<f64>,
    /// Imaginary half of the quad gather scratch.
    quad_im: Vec<f64>,
    /// Per-shot reciprocals of a deferred renormalization scale pass
    /// (`1.0` for shots the pass does not touch). Valid while
    /// `pending` is set; fused into the next full sweep instead of
    /// paying a standalone read+write pass over the arena.
    inv: Vec<f64>,
    /// A deferred scale pass is outstanding in `inv`.
    pending: bool,
    /// `1.0` per shot: the scale a kernel that always takes one applies
    /// when no scale pass is outstanding.
    ones: Vec<f64>,
    /// Kernel build the batch dispatches to (probed once per batch by
    /// `lane_isa`, called through `kernel!` per op).
    lanes: Lanes,
    /// Per-shot fallback state: operators wider than two qubits (which
    /// no recorded schedule in this workspace produces) and
    /// non-diagonal observables extract one shot here and reuse the
    /// [`StateVector`] machinery.
    psi: StateVector,
}

impl ReplayBatch {
    /// A batch holding `n_shots` resident shots of `program`'s width.
    ///
    /// # Panics
    ///
    /// Panics if `n_shots` is zero.
    pub fn for_program(program: &ReplayProgram, n_shots: usize) -> Self {
        assert!(n_shots > 0, "need at least one resident shot");
        let n_qubits = program.n_qubits();
        let dim = 1usize << n_qubits;
        let max_branches = program.channels.iter().map(CompiledChannel::n_branches);
        let max_branches = max_branches.max().unwrap_or(0);
        Self {
            n_qubits,
            n_shots,
            re: vec![0.0; dim * n_shots],
            im: vec![0.0; dim * n_shots],
            rngs: Vec::with_capacity(n_shots),
            weights: vec![0.0; max_branches * n_shots],
            norms: vec![0.0; n_shots],
            picks: vec![0; n_shots],
            coef_re: vec![0.0; 4 * n_shots],
            coef_im: vec![0.0; 4 * n_shots],
            keep: vec![false; n_shots],
            group: Vec::with_capacity(n_shots),
            factors: Vec::new(),
            quad_re: vec![0.0; 4 * n_shots],
            quad_im: vec![0.0; 4 * n_shots],
            inv: vec![1.0; n_shots],
            pending: false,
            ones: vec![1.0; n_shots],
            lanes: lane_isa(),
            psi: StateVector::zero_state(n_qubits),
        }
    }

    /// Resident shot count `S`.
    pub fn n_shots(&self) -> usize {
        self.n_shots
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The RNG of resident shot `s`, positioned wherever the tape left
    /// it — the reference engine's post-run stream position for that
    /// shot.
    pub fn rng_mut(&mut self, s: usize) -> &mut StdRng {
        &mut self.rngs[s]
    }

    /// Replays `program` over all resident shots in lockstep, shot `s`
    /// seeded from `seeds[s]` — bit-identical per shot to one
    /// [`crate::TrajectoryEngine`] trajectory of the recorded program
    /// under `StdRng::seed_from_u64(seeds[s])`.
    ///
    /// `sink` attributes each tape op's wall time to its
    /// [`ReplayOpKind`] (dense ops by arity, channels by shape, the
    /// end-of-tape deferred scale pass to [`ReplayOpKind::Renorm`]; a
    /// scale pass a channel resolves mid-tape is charged to that
    /// channel). With [`crate::NoProfile`] this monomorphizes to the
    /// unprofiled loop exactly; with any sink the kernels, fusion
    /// decisions, and RNG streams are untouched, so every shot stays
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the program width or seed count disagrees with the
    /// batch.
    pub fn run<P: ProfileSink>(&mut self, program: &ReplayProgram, seeds: &[u64], sink: &P) {
        assert_eq!(program.n_qubits(), self.n_qubits, "batch width");
        assert_eq!(seeds.len(), self.n_shots, "one seed per resident shot");
        self.rngs.clear();
        // hgp-analysis: allow(d2) -- `seeds` are caller-supplied leaf seeds; the
        // replay engine derives them per shot via `stream_seed(mix64(base), i)`.
        let rngs = seeds.iter().map(|&s| StdRng::seed_from_u64(s));
        self.rngs.extend(rngs);
        self.reset_zero();
        for op in &program.ops {
            match op {
                TapeOp::DiagRun { start, len } => timed(sink, ReplayOpKind::DiagRun, || {
                    let ops = &program.diag[*start..*start + *len];
                    let lanes = self.lanes;
                    let s_n = self.n_shots;
                    let pending = std::mem::replace(&mut self.pending, false);
                    let Self {
                        re,
                        im,
                        factors,
                        inv,
                        ..
                    } = self;
                    let inv = pending.then_some(&inv[..]);
                    kernel!(lanes, diag_run(re, im, s_n, ops, factors, inv));
                }),
                TapeOp::Apply(DenseApply { targets, matrix }) => {
                    let kind = if targets.len() == 1 {
                        ReplayOpKind::Dense1q
                    } else {
                        ReplayOpKind::Dense2q
                    };
                    timed(sink, kind, || self.apply_dense_fused(matrix, targets))
                }
                TapeOp::Channel(c) => match &program.channels[*c] {
                    CompiledChannel::Mixed(mix) => {
                        timed(sink, ReplayOpKind::MixedChannel, || self.apply_mixed(mix))
                    }
                    CompiledChannel::General(gen) => {
                        timed(sink, ReplayOpKind::GeneralChannel, || {
                            self.apply_general(gen)
                        })
                    }
                },
            }
        }
        // The tape may end on a general channel whose scale pass is
        // still deferred; readouts must see the renormalized state.
        timed(sink, ReplayOpKind::Renorm, || self.resolve_pending());
    }

    /// `|0...0>` in every resident shot.
    fn reset_zero(&mut self) {
        self.re.fill(0.0);
        self.im.fill(0.0);
        self.re[..self.n_shots].fill(1.0);
        self.pending = false;
    }

    /// Pays an outstanding deferred scale pass as a standalone sweep —
    /// the fallback for successor ops that cannot fuse it (mixed
    /// channels, generic weight scans, embed fallbacks, end of tape).
    fn resolve_pending(&mut self) {
        if std::mem::replace(&mut self.pending, false) {
            let s_n = self.n_shots;
            kernel!(
                self.lanes,
                scale_all(&mut self.re, &mut self.im, s_n, &self.inv)
            );
        }
    }

    /// A top-of-tape dense operator over every resident shot, folding
    /// any deferred scale pass into the sweep (1q/2q overwrite every
    /// amplitude, so the scaled inputs are consumed in registers).
    fn apply_dense_fused(&mut self, m: &Matrix, targets: &[usize]) {
        match targets.len() {
            1 | 2 => {
                let lanes = self.lanes;
                let s_n = self.n_shots;
                let pending = std::mem::replace(&mut self.pending, false);
                if targets.len() == 1 {
                    debug_assert_eq!(m.rows(), 2);
                    let mm = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
                    let Self { re, im, inv, .. } = self;
                    let inv = pending.then_some(&inv[..]);
                    kernel!(lanes, dense1q_all(re, im, s_n, targets[0], mm, inv));
                } else {
                    debug_assert_eq!(m.rows(), 4);
                    debug_assert_ne!(targets[0], targets[1]);
                    let mm = quad_matrix(m);
                    let Self {
                        re,
                        im,
                        inv,
                        quad_re,
                        quad_im,
                        ..
                    } = self;
                    let inv = pending.then_some(&inv[..]);
                    kernel!(
                        lanes,
                        dense2q_all(
                            re, im, s_n, targets[0], targets[1], &mm, quad_re, quad_im, inv
                        )
                    );
                }
            }
            _ => {
                self.resolve_pending();
                let all: Vec<usize> = (0..self.n_shots).collect();
                self.embed_fallback(m, targets, &all);
            }
        }
    }

    /// Applies a dense operator to every resident shot, dispatching on
    /// arity exactly like [`StateVector::apply_operator`]. Only called
    /// with no deferred scale outstanding (channel-internal branch
    /// applies).
    fn apply_operator_all(&mut self, m: &Matrix, targets: &[usize]) {
        debug_assert!(!self.pending);
        match targets.len() {
            1 => {
                debug_assert_eq!(m.rows(), 2);
                let mm = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
                kernel!(
                    self.lanes,
                    dense1q_all(
                        &mut self.re,
                        &mut self.im,
                        self.n_shots,
                        targets[0],
                        mm,
                        None
                    )
                );
            }
            2 => {
                debug_assert_eq!(m.rows(), 4);
                debug_assert_ne!(targets[0], targets[1]);
                let mm = quad_matrix(m);
                kernel!(
                    self.lanes,
                    dense2q_all(
                        &mut self.re,
                        &mut self.im,
                        self.n_shots,
                        targets[0],
                        targets[1],
                        &mm,
                        &mut self.quad_re,
                        &mut self.quad_im,
                        None,
                    )
                );
            }
            _ => {
                let all: Vec<usize> = (0..self.n_shots).collect();
                self.embed_fallback(m, targets, &all);
            }
        }
    }

    /// Applies a dense operator to the listed shots, dispatching on
    /// arity exactly like [`StateVector::apply_operator`].
    fn apply_operator_group(&mut self, m: &Matrix, targets: &[usize], group: &[usize]) {
        if group.len() == self.n_shots {
            return self.apply_operator_all(m, targets);
        }
        match targets.len() {
            1 => self.dense_1q_masked(targets[0], m, group),
            2 => self.dense_2q_masked(targets[0], targets[1], m, group),
            _ => self.embed_fallback(m, targets, group),
        }
    }

    /// Dense 1q restricted to the listed shots (divergent channel
    /// branches): per listed shot, the same pair update via direct
    /// indexing.
    fn dense_1q_masked(&mut self, target: usize, m: &Matrix, group: &[usize]) {
        let s_n = self.n_shots;
        let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
        let bit = 1usize << target;
        let low = bit - 1;
        let dim = self.re.len() / s_n;
        for g in 0..dim / 2 {
            let i = (((g & !low) << 1) | (g & low)) * s_n;
            let j = i + bit * s_n;
            for &s in group {
                let (xr, xi) = (self.re[i + s], self.im[i + s]);
                let (yr, yi) = (self.re[j + s], self.im[j + s]);
                self.re[i + s] = (m00.re * xr - m00.im * xi) + (m01.re * yr - m01.im * yi);
                self.im[i + s] = (m00.re * xi + m00.im * xr) + (m01.re * yi + m01.im * yr);
                self.re[j + s] = (m10.re * xr - m10.im * xi) + (m11.re * yr - m11.im * yi);
                self.im[j + s] = (m10.re * xi + m10.im * xr) + (m11.re * yi + m11.im * yr);
            }
        }
    }

    /// Dense 2q restricted to the listed shots: per listed shot, the
    /// identical quad `mul_add` chains via direct indexing.
    fn dense_2q_masked(&mut self, t_hi: usize, t_lo: usize, m: &Matrix, group: &[usize]) {
        let s_n = self.n_shots;
        let mm = quad_matrix(m);
        let bh = 1usize << t_hi;
        let bl = 1usize << t_lo;
        let (b_lo, b_hi) = (bh.min(bl), bh.max(bl));
        let block = 2 * b_hi;
        let quarter = block / 4;
        let dim = self.re.len() / s_n;
        for blk0 in (0..dim).step_by(block) {
            for g in 0..quarter {
                let low = g & (b_lo - 1);
                let mid = (g ^ low) << 1;
                let i0 = {
                    let partial = mid | low;
                    let lowpart = partial & (b_hi - 1);
                    ((partial ^ lowpart) << 1) | lowpart
                };
                let base = blk0 + i0;
                let rows = [base, base | bl, base | bh, base | bh | bl];
                for &s in group {
                    let mut vr = [0.0; 4];
                    let mut vi = [0.0; 4];
                    for (q, &idx) in rows.iter().enumerate() {
                        vr[q] = self.re[idx * s_n + s];
                        vi[q] = self.im[idx * s_n + s];
                    }
                    for (r, &idx) in rows.iter().enumerate() {
                        let mut ar = 0.0;
                        let mut ai = 0.0;
                        for (c, mc) in mm[r].iter().enumerate() {
                            ar += mc.re * vr[c] - mc.im * vi[c];
                            ai += mc.re * vi[c] + mc.im * vr[c];
                        }
                        self.re[idx * s_n + s] = ar;
                        self.im[idx * s_n + s] = ai;
                    }
                }
            }
        }
    }

    /// Operators wider than two qubits: extract each listed shot into
    /// the scratch [`StateVector`] and reuse its embed path —
    /// trivially the same arithmetic, and cold by construction.
    fn embed_fallback(&mut self, m: &Matrix, targets: &[usize], group: &[usize]) {
        let s_n = self.n_shots;
        let Self { re, im, psi, .. } = self;
        let dim = re.len() / s_n;
        for &s in group {
            for (b, a) in psi.amps_mut().iter_mut().enumerate() {
                *a = Complex64::new(re[b * s_n + s], im[b * s_n + s]);
            }
            psi.apply_operator(m, targets);
            for b in 0..dim {
                let a = psi.amplitudes()[b];
                re[b * s_n + s] = a.re;
                im[b * s_n + s] = a.im;
            }
        }
    }

    /// A mixed-unitary channel: per-shot pick from the cumulative table
    /// (same comparison sequence as
    /// [`crate::ChannelOp::apply_sampled`]'s walk), then one grouped sweep per picked
    /// non-identity branch — identity picks never touch the arena.
    fn apply_mixed(&mut self, mix: &MixedChannel) {
        // Branch applies touch only their group's shots, so a deferred
        // scale (which covers every shot) cannot ride along.
        self.resolve_pending();
        let s_n = self.n_shots;
        for s in 0..s_n {
            let r: f64 = self.rngs[s].gen();
            let mut pick = mix.cum.len() - 1;
            for (k, &c) in mix.cum.iter().enumerate() {
                if r < c {
                    pick = k;
                    break;
                }
            }
            self.picks[s] = pick;
        }
        let mut group = std::mem::take(&mut self.group);
        for (k, branch) in mix.branches.iter().enumerate() {
            let BranchApply::Apply(u) = branch else {
                continue;
            };
            group.clear();
            group.extend((0..s_n).filter(|&s| self.picks[s] == k));
            if !group.is_empty() {
                self.apply_operator_group(u, &mix.targets, &group);
            }
        }
        self.group = group;
    }

    /// A general channel: every shot's branch weights accumulate in one
    /// pass over the block (the 1q scan's row pattern resolved when the
    /// tape was compiled), then each shot draws and picks in the
    /// reference order. A 1q channel then applies every pick in one
    /// sweep that also consumes any deferred scale pass: when every
    /// shot picked the same diagonal branch, the apply and the norm
    /// scan fuse ([`kern::diag1q_norm_all`]); otherwise, divergent or
    /// not, each lane applies its own pick
    /// ([`ReplayBatch::apply_picks_1q`]). Multi-qubit channels apply
    /// their picked branches in shot groups (`K0` identity-skips masked
    /// out entirely) with grouped renormalization.
    fn apply_general(&mut self, gen: &GeneralChannel) {
        let s_n = self.n_shots;
        let n_k = gen.kraus.len();
        match &gen.scan {
            WeightScan::One { rows, target } => {
                // The scan reads the deferred scale in registers and
                // leaves it outstanding: the apply below rewrites every
                // amplitude and consumes it there.
                let lanes = self.lanes;
                let Self {
                    weights,
                    re,
                    im,
                    inv,
                    ones,
                    pending,
                    ..
                } = self;
                let inv = if *pending { &inv[..] } else { &ones[..] };
                match rows {
                    Rows1q::Thermal(coef) => kernel!(
                        lanes,
                        weights_1q_thermal(weights, re, im, s_n, *target, *coef, inv)
                    ),
                    Rows1q::Dense(ops) => kernel!(
                        lanes,
                        weights_1q_dense(weights, re, im, s_n, *target, ops, inv)
                    ),
                }
            }
            WeightScan::Generic { all_mask, offs } => {
                self.resolve_pending();
                self.weights_generic(&gen.kraus, *all_mask, offs);
            }
        }
        // Totals sum in operator order (the reference's weight sum),
        // one draw per shot, cumulative pick in the same order.
        for s in 0..s_n {
            let mut total = 0.0;
            for k in 0..n_k {
                total += self.weights[k * s_n + s];
            }
            assert!(total > 1e-12, "channel annihilated the state");
            let r: f64 = self.rngs[s].gen::<f64>() * total;
            let mut acc = 0.0;
            let mut pick = n_k - 1;
            for k in 0..n_k {
                acc += self.weights[k * s_n + s];
                if r < acc {
                    pick = k;
                    break;
                }
            }
            self.picks[s] = pick;
        }
        if let WeightScan::One { target, .. } = gen.scan {
            return self.apply_picks_1q(gen, target);
        }
        let mut group = std::mem::take(&mut self.group);
        for k in 0..n_k {
            if k == 0 && gen.k0_identity {
                continue;
            }
            group.clear();
            group.extend((0..s_n).filter(|&s| self.picks[s] == k));
            if !group.is_empty() {
                self.apply_operator_group(&gen.kraus[k], &gen.targets, &group);
                self.renormalize_group(&group);
            }
        }
        self.group = group;
    }

    /// Applies each shot's picked branch of a 1q general channel in one
    /// lane-tier sweep, consuming any deferred scale pass as it loads,
    /// then scans the norms and defers the new scale. When every shot
    /// picked the same diagonal branch (thermal relaxation's `K0`, the
    /// common pick), [`kern::diag1q_norm_all`] applies it and scans the
    /// norms in one pass. Otherwise [`kern::dense1q_lanes`] gives each
    /// lane its own operator's coefficients and one
    /// [`kern::norm_acc_all`] pass follows. Per shot this is the
    /// grouped path's arithmetic exactly: the masked sweep's dense
    /// update, the norm over ascending rows, one reciprocal. Shots that
    /// picked a skipped identity `K0` keep their (scaled) amplitudes
    /// and get `inv = 1.0`; if every shot did, nothing is swept.
    fn apply_picks_1q(&mut self, gen: &GeneralChannel, target: usize) {
        let s_n = self.n_shots;
        let lanes = self.lanes;
        let pending = std::mem::replace(&mut self.pending, false);
        if let Some(d) = uniform_diag_pick(gen, &self.picks) {
            self.norms.fill(0.0);
            let Self {
                re,
                im,
                norms,
                inv,
                ones,
                group,
                ..
            } = self;
            let inv = if pending { &inv[..] } else { &ones[..] };
            kernel!(lanes, diag1q_norm_all(re, im, norms, s_n, target, d, inv));
            group.clear();
            group.extend(0..s_n);
        } else {
            let mut any_keep = false;
            let mut all_keep = true;
            for s in 0..s_n {
                let pick = self.picks[s];
                let keep = pick == 0 && gen.k0_identity;
                self.keep[s] = keep;
                any_keep |= keep;
                all_keep &= keep;
                let k = &gen.kraus[pick];
                for (q, e) in [k[(0, 0)], k[(0, 1)], k[(1, 0)], k[(1, 1)]]
                    .into_iter()
                    .enumerate()
                {
                    self.coef_re[q * s_n + s] = e.re;
                    self.coef_im[q * s_n + s] = e.im;
                }
            }
            if all_keep {
                // Nothing moves; an outstanding scale stays outstanding.
                self.pending = pending;
                return;
            }
            let Self {
                re,
                im,
                coef_re,
                coef_im,
                keep,
                norms,
                inv,
                ones,
                group,
                ..
            } = self;
            let inv = if pending { &inv[..] } else { &ones[..] };
            let keep_lanes = any_keep.then_some(&keep[..]);
            kernel!(
                lanes,
                dense1q_lanes(re, im, s_n, target, coef_re, coef_im, inv, keep_lanes)
            );
            norms.fill(0.0);
            kernel!(lanes, norm_acc_all(norms, re, im, s_n));
            group.clear();
            group.extend((0..s_n).filter(|&s| !keep[s]));
        }
        let group = std::mem::take(&mut self.group);
        self.defer_scale(&group);
        self.group = group;
    }

    /// Multi-qubit branch weights for all shots, mirroring
    /// [`StateVector::branch_weight`]'s MSB-first block scan per shot.
    fn weights_generic(&mut self, kraus: &[Matrix], all_mask: usize, offs: &[usize]) {
        let s_n = self.n_shots;
        let (re, im) = (&self.re, &self.im);
        let dim = re.len() / s_n;
        for (k, op) in kraus.iter().enumerate() {
            let w = &mut self.weights[k * s_n..(k + 1) * s_n];
            w.fill(0.0);
            for base in 0..dim {
                if base & all_mask != 0 {
                    continue;
                }
                for r in 0..offs.len() {
                    for (s, ws) in w.iter_mut().enumerate() {
                        let mut ar = 0.0;
                        let mut ai = 0.0;
                        for (c, &off) in offs.iter().enumerate() {
                            let e = op[(r, c)];
                            let idx = (base + off) * s_n + s;
                            ar += e.re * re[idx] - e.im * im[idx];
                            ai += e.re * im[idx] + e.im * re[idx];
                        }
                        *ws += ar * ar + ai * ai;
                    }
                }
            }
        }
    }

    /// Renormalizes the listed shots: per shot, the squared norm
    /// accumulates over amplitudes in ascending order, then one scale
    /// pass — exactly [`StateVector::renormalize`], except the scale
    /// pass is *deferred*: the per-shot reciprocals are recorded in
    /// `inv` (1.0 for untouched shots, and `a * 1.0 == a` bit for bit)
    /// and fused into the next full sweep over the arena. Branch groups
    /// within one channel are disjoint, so later groups' masked applies
    /// and norm scans never read a shot with an outstanding reciprocal.
    fn renormalize_group(&mut self, group: &[usize]) {
        let s_n = self.n_shots;
        let lanes = self.lanes;
        let all = group.len() == s_n;
        for &s in group {
            self.norms[s] = 0.0;
        }
        if all {
            kernel!(
                lanes,
                norm_acc_all(&mut self.norms, &self.re, &self.im, s_n)
            );
        } else {
            for (row_re, row_im) in self.re.chunks_exact(s_n).zip(self.im.chunks_exact(s_n)) {
                for &s in group {
                    self.norms[s] += row_re[s] * row_re[s] + row_im[s] * row_im[s];
                }
            }
        }
        self.defer_scale(group);
    }

    /// Records the listed shots' reciprocal norms (`norms` already
    /// accumulated) as the deferred scale pass.
    fn defer_scale(&mut self, group: &[usize]) {
        if !self.pending {
            self.inv.fill(1.0);
            self.pending = true;
        }
        for &s in group {
            let norm = self.norms[s].sqrt();
            assert!(norm > 1e-300, "cannot renormalize a zero state");
            self.inv[s] = 1.0 / norm;
        }
    }

    /// Per-shot expectation values of a diagonal observable from its
    /// tabulated per-basis values: each shot sums
    /// `amps[b].norm_sqr() * diag[b]` over ascending `b`, the reference
    /// engine's exact reduction.
    pub fn diagonal_expectations(&self, diag: &[f64]) -> Vec<f64> {
        let s_n = self.n_shots;
        let mut out = vec![0.0; s_n];
        kernel!(
            self.lanes,
            diag_expect_all(&mut out, &self.re, &self.im, s_n, diag)
        );
        out
    }

    /// Expectation value of one resident shot against an arbitrary
    /// observable: the shot is extracted into the scratch state and
    /// evaluated by [`StateVector::expectation`] — the reference
    /// engine's own non-diagonal path.
    pub fn shot_expectation(&mut self, s: usize, observable: &PauliSum) -> f64 {
        let s_n = self.n_shots;
        let Self { re, im, psi, .. } = self;
        for (b, a) in psi.amps_mut().iter_mut().enumerate() {
            *a = Complex64::new(re[b * s_n + s], im[b * s_n + s]);
        }
        psi.expectation(observable)
    }

    /// One computational-basis outcome per resident shot, in shot
    /// order — per shot, `trajectory::draw_outcome`'s exact
    /// arithmetic (norm-scaled draw, ascending cumulative walk) against
    /// that shot's own RNG.
    pub fn draw_outcomes(&mut self) -> Vec<usize> {
        let s_n = self.n_shots;
        let lanes = self.lanes;
        self.norms.fill(0.0);
        kernel!(
            lanes,
            norm_acc_all(&mut self.norms, &self.re, &self.im, s_n)
        );
        let Self {
            re,
            im,
            norms,
            rngs,
            ..
        } = self;
        let dim = re.len() / s_n;
        (0..s_n)
            .map(|s| {
                let target = rngs[s].gen::<f64>() * norms[s];
                let mut acc = 0.0;
                for b in 0..dim {
                    let idx = b * s_n + s;
                    acc += re[idx] * re[idx] + im[idx] * im[idx];
                    if target < acc {
                        return b;
                    }
                }
                dim - 1
            })
            .collect()
    }
}

/// The two rows of a pair as disjoint mutable `S`-slices of one plane.
#[inline(always)]
fn rows2_mut(plane: &mut [f64], s_n: usize, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(i < j);
    let (head, tail) = plane.split_at_mut(j * s_n);
    (&mut head[i * s_n..i * s_n + s_n], &mut tail[..s_n])
}

/// The diagonal `[K[0][0], K[1][1]]` of the branch every resident shot
/// of a 1q general channel picked, when that branch is applied (not a
/// skipped identity `K0`) and diagonal by [`kern::dense1q_all`]'s own
/// exact-zero test. `None` sends the channel down the per-lane sweep.
fn uniform_diag_pick(gen: &GeneralChannel, picks: &[usize]) -> Option<[Complex64; 2]> {
    let pick = picks[0];
    if (pick == 0 && gen.k0_identity) || picks.iter().any(|&p| p != pick) {
        return None;
    }
    let k = &gen.kraus[pick];
    let zero = |c: Complex64| c.re == 0.0 && c.im == 0.0;
    (zero(k[(0, 1)]) && zero(k[(1, 0)])).then(|| [k[(0, 0)], k[(1, 1)]])
}

/// The 4x4 operator as a register-friendly array (same element values
/// `apply_dense_2q` indexes per quad).
fn quad_matrix(m: &Matrix) -> [[Complex64; 4]; 4] {
    let mut mm = [[Complex64::ZERO; 4]; 4];
    for (r, row) in mm.iter_mut().enumerate() {
        for (c, e) in row.iter_mut().enumerate() {
            *e = m[(r, c)];
        }
    }
    mm
}

#[cfg(test)]
mod tests {
    use super::super::lanes::detected_tiers;
    use super::*;
    use crate::trajectory::{ChannelOp, TrajectoryProgram};
    use hgp_circuit::{Gate, Param};
    use hgp_math::c64;
    use hgp_math::pauli::{sigma_x, sigma_y, sigma_z};
    use hgp_obs::profile::NoProfile;

    /// Pauli mix (a skippable identity `K_0`), amplitude damping, a
    /// three-Kraus thermal-like channel (non-identity `K_0`, so shots
    /// of a block diverge) and thermal relaxation in the four-operator
    /// shape backends record (`compose(amplitude damping, phase
    /// damping)`), which the weight scan runs as its compile-time
    /// pattern.
    fn channels(p: f64) -> [ChannelOp; 4] {
        let real = |e: [f64; 4]| Matrix::from_vec(2, 2, e.map(|x| c64(x, 0.0)).to_vec());
        let s = |w: f64| c64(w.sqrt(), 0.0);
        let lambda = p / 2.0;
        [
            ChannelOp::general(vec![
                Matrix::identity(2).scale(s(1.0 - 0.75 * p)),
                sigma_x().scale(s(p / 4.0)),
                sigma_y().scale(s(p / 4.0)),
                sigma_z().scale(s(p / 4.0)),
            ]),
            ChannelOp::general(vec![
                real([1.0, 0.0, 0.0, (1.0 - p).sqrt()]),
                real([0.0, p.sqrt(), 0.0, 0.0]),
            ]),
            ChannelOp::general(vec![
                real([(1.0 - p).sqrt(), 0.0, 0.0, (1.0 - 2.0 * p).sqrt()]),
                real([0.0, p.sqrt(), 0.0, 0.0]),
                real([(p / 2.0).sqrt(), 0.0, 0.0, -(p / 2.0).sqrt()]),
            ]),
            ChannelOp::general(vec![
                real([1.0, 0.0, 0.0, ((1.0 - lambda) * (1.0 - p)).sqrt()]),
                real([0.0, p.sqrt(), 0.0, 0.0]),
                real([0.0, 0.0, 0.0, (lambda * (1.0 - p)).sqrt()]),
                real([0.0; 4]),
            ]),
        ]
    }

    /// Every lane tier the CPU runs replays a block of shots to the same
    /// amplitude bits, diagonal expectations and drawn outcomes as the
    /// baseline build — the dispatch only widens vectors.
    #[test]
    fn every_lane_tier_replays_the_block_bit_identically() {
        let n = 7;
        let mut program = TrajectoryProgram::new(n);
        for q in 0..n {
            program.push_gate(Gate::H, &[q]);
        }
        for (a, b) in [(0, 1), (1, 4), (2, 6), (5, 3)] {
            program.push_gate(Gate::Rzz(Param::bound(0.3 * (a + b) as f64)), &[a, b]);
        }
        for q in 0..n {
            program.push_gate(Gate::Rx(Param::bound(0.2 + 0.15 * q as f64)), &[q]);
            let channel = channels(0.05 + 0.04 * q as f64)[q % 4].clone();
            program.push_channel(channel, &[q]);
        }
        program.push_gate(Gate::CX, &[0, 5]);
        program.push_gate(Gate::CX, &[6, 2]);
        // Strong enough that the block's picks diverge at both.
        let [_, _, thermal_like, thermal] = channels(0.3);
        program.push_channel(thermal_like, &[4]);
        program.push_channel(thermal, &[1]);
        let tape = ReplayProgram::compile(&program);
        let thermal_scans = tape.channels.iter().filter(|c| {
            matches!(c, CompiledChannel::General(g)
                if matches!(g.scan, WeightScan::One { rows: Rows1q::Thermal(_), .. }))
        });
        assert_eq!(
            thermal_scans.count(),
            2,
            "thermal channels take the compiled pattern"
        );
        // An odd block: lane tails at every vector width.
        let seeds: Vec<u64> = (0..13).map(|s| 9_000 + 7 * s).collect();
        let diag: Vec<f64> = (0..1usize << n).map(|b| b.count_ones() as f64).collect();

        let mut baseline = None;
        for lanes in detected_tiers() {
            let mut batch = ReplayBatch::for_program(&tape, seeds.len());
            batch.lanes = lanes;
            batch.run(&tape, &seeds, &NoProfile);
            let amps: Vec<(u64, u64)> = batch
                .re
                .iter()
                .zip(&batch.im)
                .map(|(r, i)| (r.to_bits(), i.to_bits()))
                .collect();
            let expect: Vec<u64> = batch
                .diagonal_expectations(&diag)
                .iter()
                .map(|e| e.to_bits())
                .collect();
            let got = (amps, expect, batch.draw_outcomes());
            let baseline = baseline.get_or_insert_with(|| got.clone());
            assert!(
                *baseline == got,
                "{lanes:?} differs from the baseline build"
            );
        }
    }
}
