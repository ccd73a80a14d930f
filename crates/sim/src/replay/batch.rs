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
//! loops run over contiguous lanes with loop-invariant coefficients —
//! the shape the auto-vectorizer wants. [`super::ReplayEngine`] is the
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
//! # Narrow blocks: sweep runs, not rows
//!
//! In the `re[b * S + s]` layout the low and high halves of a target bit
//! `t` are contiguous runs of `2^t * S` lanes, whatever `S` is. The
//! elementwise kernels (dense 1q and 2q, per-lane picked operators, the
//! scale pass and every deferred-scale load) sweep those runs with the
//! pair walker both engines share (`replay::sweep`), so their vector
//! loops fill at one shot per block as well as at 64; a per-row loop
//! over `S` lanes would run one lane wide at `S = 1`, behind per-row
//! index surgery. Per-shot values a lane needs (a deferred
//! renormalization, a picked operator) come from a pattern that repeats
//! every `S` lanes ([`ReplayBatch`]'s `period`). Diagonal runs go tile
//! by tile: every gate of the run sweeps one L1-sized tile of rows before
//! the next tile loads.
//!
//! Reductions (branch weights, norms, diagonal observables) must keep
//! each shot's ascending serial sum. They compute a tile's terms across
//! all its lanes at once, which vectorizes at any `S`, and then add them
//! per shot in order: shots in register blocks of eight lanes (each
//! lane's sum its own chain), the rest — every shot of a narrower block
//! — one lane at a time, so the floor at `S = 1` is the latency of the
//! serial add chain. Two kernels keep a fused loop for the shots that
//! fill register blocks, because it measured faster there: the 1q
//! weight scan (whose remaining lanes take the same term tail) and the
//! diagonal apply fused with its norm scan. Measured at 16 qubits on one
//! thread (`BENCH_replay.json`, `block_sizes`), the served 1-shot job
//! runs at about the per-shot cost of an 8-shot block instead of three
//! times it. [`default_block_size`] still caps a block at 64 shots and
//! 32 MiB of arena rather than at a cache size: wide blocks amortize
//! tape decode and the per-channel draws over more shots.
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
//! - a 1q mixed-unitary channel applies every pick in the same per-lane
//!   sweep (identity picks keep their lanes; if every shot picked an
//!   identity branch nothing is swept and a deferred scale stays
//!   deferred), consuming any deferred scale as it loads;
//! - multi-qubit channels sweep each picked branch over its shot group
//!   with strided masked loops; shots that picked an identity(-skip)
//!   branch are masked out entirely.
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
///
/// Per-shot values a kernel reads lane by lane — a deferred
/// renormalization's reciprocals, a per-lane picked operator, a keep
/// flag — come as *patterns*: `pattern[k]` holds shot `k % S`'s value
/// for `k` below the pattern's length, a multiple of `S` by a power of
/// two (`ReplayBatch::period`). Every run and tile a kernel walks starts
/// on a multiple of `S`, so lane `k` of a window of the pattern's
/// length (or of a shorter run) belongs to shot `k % S`; the one
/// exception, a reduction tile that covers part of a row wider than
/// `TERM_LANES`, reads the pattern from its first lane's shot on.
mod kern {
    use hgp_math::Complex64;

    use super::super::sweep::{for_pairs, for_pairs_at, gather_pairs};
    use crate::kernels::DiagOp;

    /// Lanes one tile of a diagonal run or a fused apply-and-norm pass
    /// spans: 16 KiB per plane, so both planes of a tile stay
    /// L1-resident while every gate of a run sweeps it.
    const TILE_LANES: usize = 2048;

    /// Rows per tile of an `s_n`-shot arena of `rows` rows (a power of
    /// two): the largest power of two whose lanes fit [`TILE_LANES`], at
    /// least one row and at most the arena.
    #[inline(always)]
    fn tile_rows(s_n: usize, rows: usize) -> usize {
        let fit = (TILE_LANES / s_n).max(1);
        (1usize << fit.ilog2()).min(rows)
    }

    /// `(vr, vi) * f` over split components: the [`Complex64`] product,
    /// `r * f.re - i * f.im` and `r * f.im + i * f.re`.
    #[inline(always)]
    fn cmul(vr: f64, vi: f64, f: Complex64) -> (f64, f64) {
        (vr * f.re - vi * f.im, vr * f.im + vi * f.re)
    }

    /// Every lane times one factor.
    #[inline(always)]
    fn mul_all(re: &mut [f64], im: &mut [f64], f: Complex64) {
        let im = &mut im[..re.len()];
        for k in 0..re.len() {
            (re[k], im[k]) = cmul(re[k], im[k], f);
        }
    }

    /// The low lane of every `stride` pair times `f0`, the high lane
    /// times `f1`.
    #[inline(always)]
    fn mul_pairs(re: &mut [f64], im: &mut [f64], stride: usize, f0: Complex64, f1: Complex64) {
        for_pairs(re, im, stride, |lr, li, hr, hi| {
            (*lr, *li) = cmul(*lr, *li, f0);
            (*hr, *hi) = cmul(*hr, *hi, f1);
        });
    }

    /// Rewrites every lane `(r, i)` as `f(r * c, i * c)`, `c` its shot's
    /// entry of the deferred renormalization pattern `inv` — the `a *
    /// inv` the reference stores in its own scale pass. `re` is a whole
    /// number of pattern windows.
    #[inline(always)]
    fn map_lanes(re: &mut [f64], im: &mut [f64], inv: &[f64], f: impl Fn(f64, f64) -> (f64, f64)) {
        let w = inv.len();
        assert!(re.len().is_multiple_of(w));
        for (wr, wi) in re.chunks_exact_mut(w).zip(im.chunks_exact_mut(w)) {
            let wi = &mut wi[..wr.len()];
            for k in 0..wr.len() {
                (wr[k], wi[k]) = f(wr[k] * inv[k], wi[k] * inv[k]);
            }
        }
    }

    /// Rewrites every `stride` pair `(x, y)` as `upd(x, y)`, each input
    /// first scaled by its shot's entry of the deferred renormalization
    /// pattern when one is outstanding (`x * inv`, consumed in
    /// registers: the update overwrites both lanes).
    #[inline(always)]
    fn pair_map(
        re: &mut [f64],
        im: &mut [f64],
        stride: usize,
        inv: Option<&[f64]>,
        upd: impl Fn(f64, f64, f64, f64) -> [f64; 4],
    ) {
        match inv {
            None => for_pairs(re, im, stride, |lr, li, hr, hi| {
                [*lr, *li, *hr, *hi] = upd(*lr, *li, *hr, *hi);
            }),
            Some(inv) => {
                let period = stride.min(inv.len());
                let inv = &inv[..period];
                for_pairs_at(re, im, stride, period, |k, lr, li, hr, hi| {
                    let c = inv[k];
                    [*lr, *li, *hr, *hi] = upd(*lr * c, *li * c, *hr * c, *hi * c);
                });
            }
        }
    }

    /// Largest `2^c * S` run over which a two-qubit diagonal with both
    /// bits inside a tile walks its upper bit with a per-lane pattern of
    /// lower-bit factors; longer runs take two pair sweeps per block.
    const DIAG_PATTERN: usize = 64;

    /// A fused diagonal run, tile by tile: each L1-sized tile of rows
    /// takes every gate of the run in op order before the next tile is
    /// loaded, so each amplitude still takes its factors in gate order
    /// — per shot, the exact multiply sequence of gate-at-a-time
    /// `apply_diag_1q`/`apply_diag_2q` (the blocking of
    /// [`crate::kernels::apply_diag_fused`], without its broadcast
    /// pre-products, which would change the bits).
    ///
    /// `inv`, when present, is a deferred renormalization pattern: each
    /// tile is scaled by it while L1-hot, before the gates — the same
    /// `a * inv` the reference stores in its own scale pass.
    #[inline(always)]
    pub fn diag_run(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        ops: &[DiagOp],
        inv: Option<&[f64]>,
    ) {
        let t_rows = tile_rows(s_n, re.len() / s_n);
        let tile = t_rows * s_n;
        let tile_bits = t_rows.trailing_zeros() as usize;
        let tiles = re.chunks_exact_mut(tile).zip(im.chunks_exact_mut(tile));
        for (n, (tr, ti)) in tiles.enumerate() {
            if let Some(inv) = inv {
                map_lanes(tr, ti, &inv[..inv.len().min(tile)], |r, i| (r, i));
            }
            for op in ops {
                diag_tile(tr, ti, s_n, n * t_rows, tile_bits, op);
            }
        }
    }

    /// One diagonal gate over the tile of rows `b0..b0 + 2^tile_bits`:
    /// every amplitude times its row's factor. A target bit at or above
    /// `tile_bits` is constant across the tile and selects entries of
    /// the gate's diagonal; the bits below it alternate in runs the
    /// pair walker sweeps.
    #[inline(always)]
    fn diag_tile(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        b0: usize,
        tile_bits: usize,
        op: &DiagOp,
    ) {
        let bit = |t: usize| (b0 >> t) & 1;
        match *op {
            DiagOp::One { target, d } => {
                if target >= tile_bits {
                    mul_all(re, im, d[bit(target)]);
                } else {
                    mul_pairs(re, im, (1 << target) * s_n, d[0], d[1]);
                }
            }
            DiagOp::Two { t_hi, t_lo, d } => {
                let at = |hi: usize, lo: usize| d[(hi << 1) | lo];
                match (t_hi >= tile_bits, t_lo >= tile_bits) {
                    (true, true) => mul_all(re, im, at(bit(t_hi), bit(t_lo))),
                    (true, false) => {
                        let h = bit(t_hi);
                        mul_pairs(re, im, (1 << t_lo) * s_n, at(h, 0), at(h, 1));
                    }
                    (false, true) => {
                        let l = bit(t_lo);
                        mul_pairs(re, im, (1 << t_hi) * s_n, at(0, l), at(1, l));
                    }
                    (false, false) => {
                        // `a` the lower target bit, `c` the upper; `g(c, a)`
                        // the factor for their values.
                        let (a, c) = (t_hi.min(t_lo), t_hi.max(t_lo));
                        let g = |cv: usize, av: usize| {
                            if t_hi == c {
                                at(cv, av)
                            } else {
                                at(av, cv)
                            }
                        };
                        let (run, half) = ((1 << a) * s_n, (1 << c) * s_n);
                        if half >= DIAG_PATTERN {
                            let blocks = re.chunks_exact_mut(2 * half);
                            for (br, bi) in blocks.zip(im.chunks_exact_mut(2 * half)) {
                                let (lr, hr) = br.split_at_mut(half);
                                let (li, hi) = bi.split_at_mut(half);
                                mul_pairs(lr, li, run, g(0, 0), g(0, 1));
                                mul_pairs(hr, hi, run, g(1, 0), g(1, 1));
                            }
                        } else {
                            let mut pat = [[Complex64::ZERO; DIAG_PATTERN]; 2];
                            let [p0, p1] = &mut pat;
                            let halves = p0[..half].iter_mut().zip(&mut p1[..half]);
                            for (k, (f0, f1)) in halves.enumerate() {
                                let av = (k / run) & 1;
                                (*f0, *f1) = (g(0, av), g(1, av));
                            }
                            let (lo, hi) = (&pat[0][..half], &pat[1][..half]);
                            for_pairs_at(re, im, half, half, |k, lr, li, hr, hi_| {
                                (*lr, *li) = cmul(*lr, *li, lo[k]);
                                (*hr, *hi_) = cmul(*hr, *hi_, hi[k]);
                            });
                        }
                    }
                }
            }
        }
    }

    /// Dense 1q over every resident shot: one pair sweep over the runs
    /// of `2^target * S` lanes the target bit splits the arena into.
    /// Per shot, the exact `m00 * a + m01 * b` update of
    /// `apply_dense_1q`, written out over the planes. `m` is
    /// `[m00, m01, m10, m11]`.
    ///
    /// `inv`, when present, is a deferred renormalization pattern: the
    /// pair inputs are scaled by their shot's reciprocal as they are
    /// loaded (the op overwrites every amplitude, so the scaled value is
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
        let stride = (1usize << target) * s_n;
        let zero = |c: Complex64| c.re == 0.0 && c.im == 0.0;
        if zero(m01) && zero(m10) {
            pair_map(re, im, stride, inv, |xr, xi, yr, yi| {
                [
                    m00.re * xr - m00.im * xi,
                    m00.re * xi + m00.im * xr,
                    m11.re * yr - m11.im * yi,
                    m11.re * yi + m11.im * yr,
                ]
            });
        } else if zero(m00) && zero(m11) {
            pair_map(re, im, stride, inv, |xr, xi, yr, yi| {
                [
                    m01.re * yr - m01.im * yi,
                    m01.re * yi + m01.im * yr,
                    m10.re * xr - m10.im * xi,
                    m10.re * xi + m10.im * xr,
                ]
            });
        } else {
            pair_map(re, im, stride, inv, |xr, xi, yr, yi| {
                [
                    (m00.re * xr - m00.im * xi) + (m01.re * yr - m01.im * yi),
                    (m00.re * xi + m00.im * xr) + (m01.re * yi + m01.im * yr),
                    (m10.re * xr - m10.im * xi) + (m11.re * yr - m11.im * yi),
                    (m10.re * xi + m10.im * xr) + (m11.re * yi + m11.im * yr),
                ]
            });
        }
    }

    /// Dense 2q over every resident shot, run by run: the upper target
    /// bit `c` splits the arena into blocks of two `2^c * S`-lane
    /// halves, the lower bit `a` splits each half into runs of
    /// `2^a * S` lanes, and the four runs of a quad are swept together.
    /// Per lane, each output runs the identical four-term `mul_add`
    /// accumulation chain of `apply_dense_2q` (exact
    /// `(m.re * v.re - m.im * v.im) + acc` association, operator basis
    /// `|t_hi t_lo>`).
    ///
    /// `inv`, when present, is a deferred renormalization pattern: the
    /// quad inputs are scaled by their shot's reciprocal as they are
    /// loaded (the op overwrites every amplitude, so the scaled value is
    /// consumed, never stored) — the same `a * inv` the reference
    /// stores in its own scale pass.
    #[inline(always)]
    pub fn dense2q_all(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        t_hi: usize,
        t_lo: usize,
        mm: &[[Complex64; 4]; 4],
        inv: Option<&[f64]>,
    ) {
        match inv {
            None => quads(re, im, s_n, t_hi, t_lo, mm, s_n << t_hi.min(t_lo), |_, x| x),
            Some(inv) => {
                let period = (s_n << t_hi.min(t_lo)).min(inv.len());
                let inv = &inv[..period];
                quads(re, im, s_n, t_hi, t_lo, mm, period, |k, x| x * inv[k]);
            }
        }
    }

    /// [`dense2q_all`]'s quad walk, loading each input through
    /// `load(k, x)` with `k` the lane's offset in its `period`-lane
    /// window of the run.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn quads(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        t_hi: usize,
        t_lo: usize,
        mm: &[[Complex64; 4]; 4],
        period: usize,
        load: impl Fn(usize, f64) -> f64,
    ) {
        let (a, c) = (t_hi.min(t_lo), t_hi.max(t_lo));
        let (run, half) = (s_n << a, s_n << c);
        let blocks = re
            .chunks_exact_mut(2 * half)
            .zip(im.chunks_exact_mut(2 * half));
        for (br, bi) in blocks {
            let (ar, cr) = br.split_at_mut(half);
            let (ai, ci) = bi.split_at_mut(half);
            let lo = ar
                .chunks_exact_mut(2 * run)
                .zip(ai.chunks_exact_mut(2 * run));
            let hi = cr
                .chunks_exact_mut(2 * run)
                .zip(ci.chunks_exact_mut(2 * run));
            for ((ar, ai), (cr, ci)) in lo.zip(hi) {
                let (r00, r01) = ar.split_at_mut(run);
                let (i00, i01) = ai.split_at_mut(run);
                let (r10, r11) = cr.split_at_mut(run);
                let (i10, i11) = ci.split_at_mut(run);
                // Runs in operator order `|t_hi t_lo>`: `(c, a)` bit
                // values when `t_hi` is the upper bit, `(a, c)` otherwise.
                let (r, i) = if t_hi == c {
                    ([r00, r01, r10, r11], [i00, i01, i10, i11])
                } else {
                    ([r00, r10, r01, r11], [i00, i10, i01, i11])
                };
                quad_runs(r, i, mm, period, &load);
            }
        }
    }

    /// The four runs of one quad, `period` lanes at a time.
    #[inline(always)]
    fn quad_runs(
        re: [&mut [f64]; 4],
        im: [&mut [f64]; 4],
        mm: &[[Complex64; 4]; 4],
        period: usize,
        load: &impl Fn(usize, f64) -> f64,
    ) {
        let [r0, r1, r2, r3] = re;
        let [i0, i1, i2, i3] = im;
        let windows = r0
            .chunks_exact_mut(period)
            .zip(r1.chunks_exact_mut(period))
            .zip(r2.chunks_exact_mut(period).zip(r3.chunks_exact_mut(period)))
            .zip(
                i0.chunks_exact_mut(period)
                    .zip(i1.chunks_exact_mut(period))
                    .zip(i2.chunks_exact_mut(period).zip(i3.chunks_exact_mut(period))),
            );
        for (((r0, r1), (r2, r3)), ((i0, i1), (i2, i3))) in windows {
            let n = r0.len();
            let (r1, r2, r3) = (&mut r1[..n], &mut r2[..n], &mut r3[..n]);
            let (i0, i1, i2, i3) = (&mut i0[..n], &mut i1[..n], &mut i2[..n], &mut i3[..n]);
            for k in 0..n {
                let vr = [r0[k], r1[k], r2[k], r3[k]].map(|x| load(k, x));
                let vi = [i0[k], i1[k], i2[k], i3[k]].map(|x| load(k, x));
                let mut out = [(0.0, 0.0); 4];
                for (o, row) in out.iter_mut().zip(mm) {
                    let (mut ar, mut ai) = (0.0, 0.0);
                    for (c, mc) in row.iter().enumerate() {
                        ar += mc.re * vr[c] - mc.im * vi[c];
                        ai += mc.re * vi[c] + mc.im * vr[c];
                    }
                    *o = (ar, ai);
                }
                (r0[k], i0[k]) = out[0];
                (r1[k], i1[k]) = out[1];
                (r2[k], i2[k]) = out[2];
                (r3[k], i3[k]) = out[3];
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

    /// `||row · (a0, a1)||^2` for one classified row: the terms of
    /// `StateVector::branch_weight`'s two-`mul_add` chain that are not
    /// exact zeros (`Both` keeps the literal `+ 0.0` of
    /// `mul_add(a0, ZERO)`). A `Zero` row's term is `0.0` and is never
    /// added ([`add_row`], and [`add_tile`]'s dead arrays): its `+ 0.0`
    /// would leave the non-negative weight's bits unchanged anyway.
    #[inline(always)]
    fn row_term(r: Row1q, a0r: f64, a0i: f64, a1r: f64, a1i: f64) -> f64 {
        match r {
            Row1q::Zero => 0.0,
            Row1q::Lo(m) => {
                let (tr, ti) = (m * a0r, m * a0i);
                tr * tr + ti * ti
            }
            Row1q::Hi(m) => {
                let (tr, ti) = (m * a1r, m * a1i);
                tr * tr + ti * ti
            }
            Row1q::Both(l, h) => {
                let tr = (l.re * a0r - l.im * a0i) + 0.0;
                let ti = (l.re * a0i + l.im * a0r) + 0.0;
                let ur = (h.re * a1r - h.im * a1i) + tr;
                let ui = (h.re * a1i + h.im * a1r) + ti;
                ur * ur + ui * ui
            }
        }
    }

    /// `w` plus row `r`'s [`row_term`]; a `Zero` row leaves `w` as it is.
    #[inline(always)]
    fn add_row(w: f64, r: Row1q, a0r: f64, a0i: f64, a1r: f64, a1i: f64) -> f64 {
        match r {
            Row1q::Zero => w,
            _ => w + row_term(r, a0r, a0i, a1r, a1i),
        }
    }

    /// Lanes per register block of [`add_tile`] (one AVX-512 vector, two
    /// AVX2 ones).
    const LANE_BLOCK: usize = 8;

    /// Lanes of one reduction tile: its terms are computed across the
    /// tile at once, then added per shot in order.
    const TERM_LANES: usize = 256;

    /// The tiles a reduction over `rows` rows of `s_n` lanes walks, in
    /// ascending lane order, as `(row, col, rows, cols)`: the tile's
    /// lanes are `cols` lanes from `col` of each of `rows` rows from
    /// `row` — contiguous, `rows * cols` of them. While a row fits
    /// [`TERM_LANES`] a tile is a power of two of whole rows (`col == 0`,
    /// `cols == s_n`); a wider row is one tile per [`TERM_LANES`] lanes.
    #[inline(always)]
    fn tiles(s_n: usize, rows: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        let t_rows = (1usize << (TERM_LANES / s_n).max(1).ilog2()).min(rows);
        let cols = s_n.min(TERM_LANES);
        (0..rows).step_by(t_rows).flat_map(move |row| {
            (0..s_n)
                .step_by(cols)
                .map(move |col| (row, col, t_rows, cols.min(s_n - col)))
        })
    }

    /// Adds a tile's terms into `K` rows of per-shot sums, one serial
    /// chain per sum and shot in ascending tile-row order: sum `k` of
    /// shot `l` is `sums[k * stride + l]` (`from <= l < cols`; lanes
    /// below `from` are left alone), lane `j * cols + l` of each of its
    /// `T` term arrays `terms[k]` holds its term for tile row `j`, and a
    /// row adds them in array order, skipping the arrays `live` marks
    /// dead. Lanes run in register blocks of [`LANE_BLOCK`] and the rest
    /// — every lane of a block narrower than that — one at a time, the
    /// `K` chains of a lane side by side; each chain is the same either
    /// way.
    #[inline(always)]
    fn add_tile<const K: usize, const T: usize>(
        sums: &mut [f64],
        stride: usize,
        cols: usize,
        from: usize,
        terms: [[&[f64]; T]; K],
        live: [[bool; T]; K],
    ) {
        let full = from + (cols - from) / LANE_BLOCK * LANE_BLOCK;
        for l0 in (from..full).step_by(LANE_BLOCK) {
            add_lanes::<LANE_BLOCK, K, T>(sums, stride, cols, l0, &terms, live);
        }
        for l0 in full..cols {
            add_lanes::<1, K, T>(sums, stride, cols, l0, &terms, live);
        }
    }

    /// [`add_tile`] over the `W` lanes from `l0`, the sums kept in
    /// registers across the tile's rows.
    #[inline(always)]
    fn add_lanes<const W: usize, const K: usize, const T: usize>(
        sums: &mut [f64],
        stride: usize,
        cols: usize,
        l0: usize,
        terms: &[[&[f64]; T]; K],
        live: [[bool; T]; K],
    ) {
        let lanes = |k: usize| k * stride + l0..k * stride + l0 + W;
        let mut acc = [[0.0; W]; K];
        for (k, acc) in acc.iter_mut().enumerate() {
            acc.copy_from_slice(&sums[lanes(k)]);
        }
        for at in (l0..terms[0][0].len()).step_by(cols) {
            for k in 0..K {
                for j in 0..T {
                    if live[k][j] {
                        let t: &[f64; W] = terms[k][j][at..at + W].try_into().expect("W lanes");
                        for l in 0..W {
                            acc[k][l] += t[l];
                        }
                    }
                }
            }
        }
        for (k, acc) in acc.iter().enumerate() {
            sums[lanes(k)].copy_from_slice(acc);
        }
    }

    /// The low and high lanes of pairs `k0..k0 + lo.len()` of one plane
    /// ([`gather_pairs`]' numbering): borrowed from the plane when each
    /// is one contiguous run, otherwise gathered into `lo` and `hi` —
    /// one [`gather_pairs`] call per `2 * bit` block when `bit` is not
    /// one of its interleaved-copy widths (1, 2, 4, 8).
    #[inline(always)]
    fn pair_lanes<'a>(
        plane: &'a [f64],
        bit: usize,
        k0: usize,
        lo: &'a mut [f64],
        hi: &'a mut [f64],
    ) -> (&'a [f64], &'a [f64]) {
        let n = lo.len();
        if bit >= n {
            let j0 = (k0 / bit) * 2 * bit + k0 % bit;
            return (&plane[j0..j0 + n], &plane[j0 + bit..j0 + bit + n]);
        }
        if !matches!(bit, 1 | 2 | 4 | 8) {
            let runs = lo.chunks_exact_mut(bit).zip(hi.chunks_exact_mut(bit));
            for (r, (lo, hi)) in runs.enumerate() {
                gather_pairs(plane, bit, k0 + r * bit, lo, hi);
            }
        } else {
            gather_pairs(plane, bit, k0, lo, hi);
        }
        (lo, hi)
    }

    /// Single-qubit branch weights for all shots and all Kraus
    /// operators in one read-only pass over the state: each shot
    /// accumulates over the same pairs in the same ascending-base order
    /// as `StateVector::branch_weight` (per pair: bit-clear term, then
    /// bit-set term).
    ///
    /// Shots that fill register blocks of [`LANE_BLOCK`] lanes run
    /// [`weights_1q_block`], pairs in tiles of [`PAIR_TILE`]; the rest —
    /// every shot of a narrower block, the ragged lanes of a wider one —
    /// run [`weights_1q_tail`]. Either way a group's row kinds come from
    /// `rows`' pattern, resolved when the tape was compiled, so the
    /// recorded thermal pattern's loops are straight-line arithmetic with
    /// no per-operator dispatch. The reordering is bit-exact: weights
    /// accumulate independently per operator and shot, and each still
    /// sees its pairs in ascending order with the same per-pair term
    /// sequence.
    ///
    /// `inv` is the outstanding deferred renormalization pattern (all
    /// `1.0` when none is; `a * 1.0 == a` bit for bit): each amplitude
    /// is scaled as a term reads it — the same `a * inv` the reference
    /// stores in its own scale pass. The scaled values are not stored:
    /// the branch apply that follows every 1q scan rewrites each
    /// amplitude from the same product.
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
        weights[..rows.groups() * G * s_n].fill(0.0);
        let pairs = re.len() / s_n / 2;
        let full = s_n - s_n % LANE_BLOCK;
        for p0 in (0..pairs).step_by(PAIR_TILE) {
            let tile = p0..(p0 + PAIR_TILE).min(pairs);
            for s0 in (0..full).step_by(LANE_BLOCK) {
                weights_1q_block(weights, re, im, s_n, target, rows, inv, s0, tile.clone());
            }
        }
        if full < s_n {
            weights_1q_tail(weights, re, im, s_n, target, rows, inv, full);
        }
    }

    /// Amplitude pairs per tile of [`weights_1q_block`]: a tile's rows
    /// stay L1-resident while every lane block of a 64-shot arena reads
    /// them.
    const PAIR_TILE: usize = 16;

    /// [`weights_1q`] over the register block of lanes from `s0` and one
    /// tile of pairs: each group's weights are loaded into registers,
    /// accumulate over the tile's pairs in ascending order — every
    /// operator of the group in one lane loop, the lo/hi lanes loaded
    /// once per pair — and are stored back: the same sequence of
    /// additions as accumulating in memory, without a load and a store
    /// per pair.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn weights_1q_block<const G: usize, P: WeightRows<G>>(
        weights: &mut [f64],
        re: &[f64],
        im: &[f64],
        s_n: usize,
        target: usize,
        rows: P,
        inv: &[f64],
        s0: usize,
        tile: std::ops::Range<usize>,
    ) {
        const W: usize = LANE_BLOCK;
        let load = |plane: &[f64], row: usize| -> [f64; W] {
            plane[row * s_n + s0..row * s_n + s0 + W]
                .try_into()
                .expect("W lanes")
        };
        let inv: [f64; W] = inv[s0..s0 + W].try_into().expect("W lanes");
        for g in 0..rows.groups() {
            let ops = rows.group(g);
            let mut acc = [[0.0f64; W]; G];
            for (k, acc_k) in acc.iter_mut().enumerate() {
                *acc_k = load(weights, g * G + k);
            }
            let bit = 1usize << target;
            let low = bit - 1;
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

    /// [`weights_1q`] over the lanes from `from` (every lane of a block
    /// narrower than [`LANE_BLOCK`], the ragged lanes of a wider one),
    /// in [`tiles`] (a pair's lanes form one row). Per tile, the pairs
    /// are read pair-major ([`pair_lanes`]: lane `j * cols + l` is the
    /// tile's pair `j`, shot `col + l`), every row term of every lane is
    /// computed across the tile in one lane loop — the part that
    /// vectorizes whatever the block's width — and then [`add_tile`]
    /// adds them into the weights, per shot in ascending pair order, all
    /// of a group's operators side by side.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn weights_1q_tail<const G: usize, P: WeightRows<G>>(
        weights: &mut [f64],
        re: &[f64],
        im: &[f64],
        s_n: usize,
        target: usize,
        rows: P,
        inv: &[f64],
        from: usize,
    ) {
        let bit = (1usize << target) * s_n;
        let mut amps = [[0.0; TERM_LANES]; 4];
        let mut terms = [[[0.0; TERM_LANES]; 2]; G];
        for (p0, col, t_rows, cols) in tiles(s_n, re.len() / s_n / 2) {
            if col + cols <= from {
                continue;
            }
            let (n, k0) = (t_rows * cols, p0 * s_n + col);
            let [a0r, a0i, a1r, a1i] = &mut amps;
            let (a0r, a1r) = pair_lanes(re, bit, k0, &mut a0r[..n], &mut a1r[..n]);
            let (a0i, a1i) = pair_lanes(im, bit, k0, &mut a0i[..n], &mut a1i[..n]);
            // Lane `i` of the tile is shot `col + i % cols`.
            let inv = &inv[col..col + n.min(inv.len() - col)];
            for g in 0..rows.groups() {
                let ops = rows.group(g);
                // Every row term of every lane in one lane loop: the
                // row kinds are constants once `ops` is inlined, so the
                // loop body is straight-line arithmetic.
                for w0 in (0..n).step_by(inv.len()) {
                    for (k, &c) in inv.iter().enumerate() {
                        let i = w0 + k;
                        let (x0r, x0i) = (a0r[i] * c, a0i[i] * c);
                        let (x1r, x1i) = (a1r[i] * c, a1i[i] * c);
                        for (t, &(r0, r1)) in terms.iter_mut().zip(ops.iter()) {
                            t[0][i] = row_term(r0, x0r, x0i, x1r, x1i);
                            t[1][i] = row_term(r1, x0r, x0i, x1r, x1i);
                        }
                    }
                }
                let t: [[&[f64]; 2]; G] =
                    std::array::from_fn(|k| [&terms[k][0][..n], &terms[k][1][..n]]);
                let mut live = [[true; 2]; G];
                for (live, &(r0, r1)) in live.iter_mut().zip(ops.iter()) {
                    *live = [!matches!(r0, Row1q::Zero), !matches!(r1, Row1q::Zero)];
                }
                let sums = &mut weights[g * G * s_n + col..];
                add_tile(sums, s_n, cols, from.saturating_sub(col), t, live);
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

    /// A 1q operator picked per lane: lane `k` of a pattern window
    /// applies its shot's operator, `coef_*[q * period + k]` holding
    /// entry `q` of `[m00, m01, m10, m11]` (`period` = `inv.len()`) —
    /// per lane, the full dense `m00 * a + m01 * b` update of
    /// `apply_dense_1q` (no sparsity skip), so divergent picks cost one
    /// pair sweep instead of one strided masked sweep per picked branch.
    /// Lanes with `keep` set (a skipped identity `K0`, an identity
    /// branch of a mixed-unitary channel) keep their amplitudes through
    /// a per-lane select.
    ///
    /// `inv` is the outstanding deferred renormalization pattern (all
    /// `1.0` when none is): the pair inputs are scaled as they are
    /// loaded — the same `a * inv` the reference stores in its own
    /// scale pass — and a kept lane stores its scaled input.
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
        let stride = (1usize << target) * s_n;
        let period = stride.min(inv.len());
        let (mut c_re, mut c_im) = (
            coef_re.chunks_exact(inv.len()),
            coef_im.chunks_exact(inv.len()),
        );
        let [c00r, c01r, c10r, c11r]: [&[f64]; 4] =
            std::array::from_fn(|_| &c_re.next().expect("four coefficient rows")[..period]);
        let [c00i, c01i, c10i, c11i]: [&[f64]; 4] =
            std::array::from_fn(|_| &c_im.next().expect("four coefficient rows")[..period]);
        let inv = &inv[..period];
        let coef = [c00r, c01r, c10r, c11r, c00i, c01i, c10i, c11i];
        // A nested fn, not a closure: LLVM left a closure here as one
        // call per pair in the pair walks.
        #[inline(always)]
        fn update(c: &[&[f64]; 8], k: usize, xr: f64, xi: f64, yr: f64, yi: f64) -> [f64; 4] {
            let [c00r, c01r, c10r, c11r, c00i, c01i, c10i, c11i] = c.map(|c| c[k]);
            [
                (c00r * xr - c00i * xi) + (c01r * yr - c01i * yi),
                (c00r * xi + c00i * xr) + (c01r * yi + c01i * yr),
                (c10r * xr - c10i * xi) + (c11r * yr - c11i * yi),
                (c10r * xi + c10i * xr) + (c11r * yi + c11i * yr),
            ]
        }
        match keep {
            None => for_pairs_at(re, im, stride, period, |k, lr, li, hr, hi| {
                let c = inv[k];
                [*lr, *li, *hr, *hi] = update(&coef, k, *lr * c, *li * c, *hr * c, *hi * c);
            }),
            Some(keep) => {
                let keep = &keep[..period];
                for_pairs_at(re, im, stride, period, |k, lr, li, hr, hi| {
                    let c = inv[k];
                    let x = [*lr * c, *li * c, *hr * c, *hi * c];
                    let new = update(&coef, k, x[0], x[1], x[2], x[3]);
                    [*lr, *li, *hr, *hi] = if keep[k] { x } else { new };
                });
            }
        }
    }

    /// `out[s] += |a_b|^2` (times `diag[b]` when `WEIGHTED`) over the
    /// rows `b` of `re`/`im`, ascending — per shot, the reference's
    /// ascending-index accumulation. Per [`tiles`] tile, every lane's
    /// term is computed across the tile at once, then [`add_tile`] adds
    /// them per shot in row order.
    #[inline(always)]
    fn acc_rows<const WEIGHTED: bool>(out: &mut [f64], re: &[f64], im: &[f64], diag: &[f64]) {
        let s_n = out.len();
        let mut t = [0.0; TERM_LANES];
        for (b0, col, t_rows, cols) in tiles(s_n, re.len() / s_n) {
            let (n, k0) = (t_rows * cols, b0 * s_n + col);
            let (tr, ti, t) = (&re[k0..k0 + n], &im[k0..k0 + n], &mut t[..n]);
            for i in 0..n {
                t[i] = tr[i] * tr[i] + ti[i] * ti[i];
            }
            if WEIGHTED {
                for (row, &d) in t.chunks_exact_mut(cols).zip(&diag[b0..b0 + t_rows]) {
                    for x in row {
                        *x *= d;
                    }
                }
            }
            add_tile(&mut out[col..], s_n, cols, 0, [[&*t]], [[true]]);
        }
    }

    /// `norms[s] += |a_b|^2` over the whole arena, rows ascending — the
    /// ascending-index squared-norm accumulation of
    /// `StateVector::renormalize` and `draw_outcome`, all shots at once.
    #[inline(always)]
    pub fn norm_acc_all(norms: &mut [f64], re: &[f64], im: &[f64], s_n: usize) {
        acc_rows::<false>(&mut norms[..s_n], re, im, &[]);
    }

    /// A diagonal 1q operator `diag(d[0], d[1])` over every resident
    /// shot, fused with the squared-norm scan that follows it: rows
    /// ascending, each multiplied by `d[0]` (target bit clear) or `d[1]`
    /// (bit set) — [`dense1q_all`]'s diagonal update — and added into
    /// `norms[s]` in [`norm_acc_all`]'s ascending-row order. State and
    /// norms are therefore bit-identical to the two separate passes,
    /// minus one full read of the arena.
    ///
    /// A block that fills a register block of [`LANE_BLOCK`] lanes
    /// applies and adds row by row with each updated amplitude still in
    /// registers. A narrower block would run that loop one lane wide, so
    /// it applies each L1-sized tile as a run sweep and then adds the
    /// tile's rows by [`acc_rows`] while it is L1-hot. The tile path
    /// also serves wide blocks bit for bit, but measured slower there
    /// (12 qubits, one thread, AVX2: 25/52/115/280 µs against the row
    /// pass's 21/41/87/188 µs at 8/16/32/64 shots).
    ///
    /// `inv` is the outstanding deferred renormalization pattern (all
    /// `1.0` when none is), applied to each amplitude as it is loaded —
    /// the same `a * inv` the reference stores in its own scale pass.
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
        let norms = &mut norms[..s_n];
        if s_n >= LANE_BLOCK {
            let (inv, bit) = (&inv[..s_n], 1usize << target);
            let rows = re.chunks_exact_mut(s_n).zip(im.chunks_exact_mut(s_n));
            for (b, (row_re, row_im)) in rows.enumerate() {
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
            return;
        }
        let t_rows = tile_rows(s_n, re.len() / s_n);
        let tile = t_rows * s_n;
        let stride = (1usize << target) * s_n;
        let [m0, m1] = d;
        let tiles = re.chunks_exact_mut(tile).zip(im.chunks_exact_mut(tile));
        for (n, (tr, ti)) in tiles.enumerate() {
            if stride >= tile {
                let m = d[((n * t_rows) >> target) & 1];
                map_lanes(tr, ti, &inv[..inv.len().min(tile)], |r, i| {
                    (m.re * r - m.im * i, m.re * i + m.im * r)
                });
            } else {
                pair_map(tr, ti, stride, Some(inv), |xr, xi, yr, yi| {
                    [
                        m0.re * xr - m0.im * xi,
                        m0.re * xi + m0.im * xr,
                        m1.re * yr - m1.im * yi,
                        m1.re * yi + m1.im * yr,
                    ]
                });
            }
            acc_rows::<false>(norms, tr, ti, &[]);
        }
    }

    /// `a *= inv[s]` over the whole arena — the renormalization scale
    /// pass with each shot's own precomputed reciprocal, one pattern
    /// window at a time.
    #[inline(always)]
    pub fn scale_all(re: &mut [f64], im: &mut [f64], inv: &[f64]) {
        map_lanes(re, im, inv, |r, i| (r, i));
    }

    /// `out[s] += |a_b|^2 * diag[b]` over the whole arena, rows
    /// ascending — the reference's diagonal observable reduction, all
    /// shots at once.
    #[inline(always)]
    pub fn diag_expect_all(out: &mut [f64], re: &[f64], im: &[f64], s_n: usize, diag: &[f64]) {
        acc_rows::<true>(&mut out[..s_n], re, im, diag);
    }
}

lane_tiers!(kern {
    fn diag_run(
        re: &mut [f64],
        im: &mut [f64],
        s_n: usize,
        ops: &[DiagOp],
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
    fn scale_all(re: &mut [f64], im: &mut [f64], inv: &[f64]);
    fn diag_expect_all(out: &mut [f64], re: &[f64], im: &[f64], s_n: usize, diag: &[f64]);
});

/// Arena bytes one shot block may occupy: a memory ceiling of 32 MiB
/// per rayon worker, not a cache target (see "Narrow blocks" in the
/// module docs).
const BLOCK_ARENA_BYTES: usize = 1 << 25;

/// The default shots-per-block of the batched path for an `n_qubits`
/// program: as many shots as fit `BLOCK_ARENA_BYTES`, clamped to
/// `1..=64` (states over 32 MiB run one shot per block).
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
    /// Lanes of one per-shot pattern: `n_shots` times a power of two,
    /// at least [`PATTERN_LANES`] where the arena allows. Lane `k` of a
    /// pattern holds shot `k % n_shots`'s value, so its first `n_shots`
    /// entries are the per-shot values themselves.
    period: usize,
    /// Per-lane picked 1q operator pattern, `coef_re[q * period + k]` =
    /// real part of entry `q` of `[m00, m01, m10, m11]` of lane `k`'s
    /// branch.
    coef_re: Vec<f64>,
    /// Imaginary half of the per-lane operator pattern.
    coef_im: Vec<f64>,
    /// Per-lane "keeps its amplitudes" pattern (a skipped identity
    /// `K0`, an identity branch of a mixed-unitary channel).
    keep: Vec<bool>,
    /// Shot-index scratch for branch application groups.
    group: Vec<usize>,
    /// Reciprocal pattern of a deferred renormalization scale pass
    /// (`1.0` for shots the pass does not touch). Valid while
    /// `pending` is set; fused into the next full sweep instead of
    /// paying a standalone read+write pass over the arena.
    inv: Vec<f64>,
    /// A deferred scale pass is outstanding in `inv`.
    pending: bool,
    /// A pattern of `1.0`: the scale a kernel that always takes one
    /// applies when no scale pass is outstanding.
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
        let reps = PATTERN_LANES.div_ceil(n_shots).next_power_of_two();
        let period = n_shots * reps.min(dim);
        Self {
            n_qubits,
            n_shots,
            re: vec![0.0; dim * n_shots],
            im: vec![0.0; dim * n_shots],
            rngs: Vec::with_capacity(n_shots),
            weights: vec![0.0; max_branches * n_shots],
            norms: vec![0.0; n_shots],
            picks: vec![0; n_shots],
            period,
            coef_re: vec![0.0; 4 * period],
            coef_im: vec![0.0; 4 * period],
            keep: vec![false; period],
            group: Vec::with_capacity(n_shots),
            inv: vec![1.0; period],
            pending: false,
            ones: vec![1.0; period],
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
                    let Self { re, im, inv, .. } = self;
                    let inv = pending.then_some(&inv[..]);
                    kernel!(lanes, diag_run(re, im, s_n, ops, inv));
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
            kernel!(self.lanes, scale_all(&mut self.re, &mut self.im, &self.inv));
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
                    let Self { re, im, inv, .. } = self;
                    let inv = pending.then_some(&inv[..]);
                    kernel!(
                        lanes,
                        dense2q_all(re, im, s_n, targets[0], targets[1], &mm, inv)
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

    /// Applies a multi-qubit channel branch to the listed shots (1q
    /// channels apply every pick in one per-lane sweep instead): the
    /// full-block kernels when every shot is listed (no deferred scale
    /// is outstanding within a channel's branch groups), otherwise the
    /// masked sweeps.
    fn apply_operator_group(&mut self, m: &Matrix, targets: &[usize], group: &[usize]) {
        if group.len() == self.n_shots {
            return self.apply_dense_fused(m, targets);
        }
        match targets.len() {
            2 => self.dense_2q_masked(targets[0], targets[1], m, group),
            _ => self.embed_fallback(m, targets, group),
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
    /// [`crate::ChannelOp::apply_sampled`]'s walk). A 1q channel then
    /// applies every shot's pick in one per-lane sweep
    /// ([`ReplayBatch::apply_lane_ops`]) that also consumes any deferred
    /// scale: lanes that picked an identity branch keep their (scaled)
    /// amplitudes, and if every lane did, nothing is swept and the
    /// scale stays outstanding. Multi-qubit channels run one grouped
    /// sweep per picked non-identity branch.
    fn apply_mixed(&mut self, mix: &MixedChannel) {
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
        if let [target] = mix.targets[..] {
            let picks = std::mem::take(&mut self.picks);
            self.apply_lane_ops(target, |s| match &mix.branches[picks[s]] {
                BranchApply::Identity => None,
                BranchApply::Apply(u) => Some(entries_1q(u)),
            });
            self.picks = picks;
            return;
        }
        // Branch applies touch only their group's shots, so a deferred
        // scale (which covers every shot) cannot ride along.
        self.resolve_pending();
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
    /// norms in one pass. Otherwise [`ReplayBatch::apply_lane_ops`]
    /// gives each lane its own operator's coefficients and one
    /// [`kern::norm_acc_all`] pass follows. Per shot this is the
    /// grouped path's arithmetic exactly: the masked sweep's dense
    /// update, the norm over ascending rows, one reciprocal. Shots that
    /// picked a skipped identity `K0` keep their (scaled) amplitudes
    /// and get `inv = 1.0`; if every shot did, nothing is swept.
    fn apply_picks_1q(&mut self, gen: &GeneralChannel, target: usize) {
        let s_n = self.n_shots;
        let lanes = self.lanes;
        if let Some(d) = uniform_diag_pick(gen, &self.picks) {
            let pending = std::mem::replace(&mut self.pending, false);
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
            let picks = std::mem::take(&mut self.picks);
            let swept = self.apply_lane_ops(target, |s| {
                let pick = picks[s];
                let keep = pick == 0 && gen.k0_identity;
                (!keep).then(|| entries_1q(&gen.kraus[pick]))
            });
            self.picks = picks;
            if !swept {
                return;
            }
            let Self {
                re,
                im,
                keep,
                norms,
                group,
                ..
            } = self;
            norms.fill(0.0);
            kernel!(lanes, norm_acc_all(norms, re, im, s_n));
            group.clear();
            group.extend((0..s_n).filter(|&s| !keep[s]));
        }
        let group = std::mem::take(&mut self.group);
        self.defer_scale(&group);
        self.group = group;
    }

    /// Applies a 1q operator per resident shot in one
    /// [`kern::dense1q_lanes`] sweep on `target`: `op(s)` is shot `s`'s
    /// `[m00, m01, m10, m11]`, or `None` to keep its amplitudes. The
    /// sweep consumes any deferred scale (kept lanes store their scaled
    /// amplitudes). Returns `false`, touching nothing and leaving an
    /// outstanding scale outstanding, when every shot keeps.
    fn apply_lane_ops(
        &mut self,
        target: usize,
        op: impl Fn(usize) -> Option<[Complex64; 4]>,
    ) -> bool {
        let (s_n, p) = (self.n_shots, self.period);
        let mut any_keep = false;
        let mut all_keep = true;
        for s in 0..s_n {
            let m = op(s);
            self.keep[s] = m.is_none();
            any_keep |= m.is_none();
            all_keep &= m.is_none();
            let m = m.unwrap_or([Complex64::ZERO; 4]);
            for (q, e) in m.into_iter().enumerate() {
                self.coef_re[q * p + s] = e.re;
                self.coef_im[q * p + s] = e.im;
            }
        }
        if all_keep {
            return false;
        }
        repeat_shots(&mut self.keep, s_n);
        for row in self.coef_re.chunks_exact_mut(p) {
            repeat_shots(row, s_n);
        }
        for row in self.coef_im.chunks_exact_mut(p) {
            repeat_shots(row, s_n);
        }
        let pending = std::mem::replace(&mut self.pending, false);
        let Self {
            re,
            im,
            coef_re,
            coef_im,
            keep,
            inv,
            ones,
            lanes,
            ..
        } = self;
        let inv = if pending { &inv[..] } else { &ones[..] };
        let keep_lanes = any_keep.then_some(&keep[..]);
        kernel!(
            *lanes,
            dense1q_lanes(re, im, s_n, target, coef_re, coef_im, inv, keep_lanes)
        );
        true
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
        repeat_shots(&mut self.inv, self.n_shots);
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

/// Lanes a per-shot pattern spans at least, arena permitting: a few
/// vectors' worth, so a pattern window fills the lanes even at one shot
/// per block.
const PATTERN_LANES: usize = 64;

/// Extends a pattern's first `s_n` entries (the per-shot values) over
/// the rest of it: lane `k` gets shot `k % s_n`'s value.
fn repeat_shots<T: Copy>(pattern: &mut [T], s_n: usize) {
    let (shots, rest) = pattern.split_at_mut(s_n);
    for window in rest.chunks_mut(s_n) {
        window.copy_from_slice(&shots[..window.len()]);
    }
}

/// A 2x2 operator's entries `[m00, m01, m10, m11]`.
fn entries_1q(m: &Matrix) -> [Complex64; 4] {
    [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]]
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
    /// baseline build — the dispatch only widens vectors. An odd 13-shot
    /// block at 7 qubits leaves lane tails at every vector width; 1- and
    /// 3-shot blocks at 11 qubits run the narrow-block sweeps over runs
    /// long enough to cross every vector and tile boundary.
    #[test]
    fn every_lane_tier_replays_the_block_bit_identically() {
        for (n, shots) in [(7, 13), (11, 1), (11, 3)] {
            tier_parity(n, shots);
        }
    }

    fn tier_parity(n: usize, shots: usize) {
        let mut program = TrajectoryProgram::new(n);
        for q in 0..n {
            program.push_gate(Gate::H, &[q]);
        }
        for (a, b) in [(0, 1), (1, 4), (2, 6), (5, 3), (n - 1, 0)] {
            program.push_gate(Gate::Rzz(Param::bound(0.3 * (a + b) as f64)), &[a, b]);
        }
        for q in 0..n {
            program.push_gate(Gate::Rx(Param::bound(0.2 + 0.15 * q as f64)), &[q]);
            let channel = channels(0.05 + 0.04 * q as f64)[q % 4].clone();
            program.push_channel(channel, &[q]);
        }
        program.push_gate(Gate::CX, &[0, 5]);
        program.push_gate(Gate::CX, &[6, 2]);
        program.push_gate(Gate::CX, &[1, n - 1]);
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
            n / 4 + 1,
            "thermal channels take the compiled pattern"
        );
        let seeds: Vec<u64> = (0..shots as u64).map(|s| 9_000 + 7 * s).collect();
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
                "{lanes:?} differs from the baseline build at {n}q, {shots} shots"
            );
        }
    }
}
