//! Specialized statevector kernels.
//!
//! The generic [`crate::StateVector::apply_operator`] path gathers a
//! `2^k` block per basis group and multiplies it by the gate matrix —
//! correct for any operator, but wasteful for the structured gates VQA
//! circuits are made of. This module supplies the fast paths the QAOA
//! hot loop lives in:
//!
//! - **diagonal kernels** for `RZ`/`Z`/`S`/`T`/`CZ`/`RZZ` (QAOA's entire
//!   cost layer is diagonal): one complex multiply per amplitude, no
//!   gathering, no branch,
//! - **strided dense kernels** for general 1q/2q operators: amplitude
//!   pairs/quads are enumerated directly by bit surgery instead of
//!   scanning all `2^n` indices and skipping the upper halves,
//! - **parallel chunking**: above [`PAR_QUBIT_THRESHOLD`] qubits each
//!   kernel splits the amplitude vector into cache-sized aligned blocks
//!   and fans them out over rayon workers.
//!
//! All kernels are exact (no approximation); property tests in
//! `tests/property_tests.rs` pin them against the generic embed path to
//! `1e-12`.

use hgp_circuit::Gate;
use hgp_math::{Complex64, Matrix};
use rayon::prelude::*;

/// Register width (qubits) at which kernels start fanning out to rayon
/// workers. Below this the per-thread dispatch overhead outweighs the
/// arithmetic.
pub const PAR_QUBIT_THRESHOLD: usize = 20;

/// Amplitudes per parallel work chunk (`2^16` complex values = 1 MiB),
/// sized to keep each worker in L2 while amortizing dispatch overhead.
const PAR_CHUNK: usize = 1 << 16;

/// Whether a vector of `dim` amplitudes is worth parallelizing.
#[inline]
fn fan_out(dim: usize) -> bool {
    dim >= (1 << PAR_QUBIT_THRESHOLD) && rayon::current_num_threads() > 1
}

/// The diagonal of a 1-qubit gate, if the gate is diagonal.
pub fn diagonal_1q(gate: &Gate) -> Option<[Complex64; 2]> {
    let one = Complex64::ONE;
    Some(match gate {
        Gate::I => [one, one],
        Gate::Z => [one, Complex64::new(-1.0, 0.0)],
        Gate::S => [one, Complex64::I],
        Gate::Sdg => [one, Complex64::new(0.0, -1.0)],
        Gate::T => [one, Complex64::cis(std::f64::consts::FRAC_PI_4)],
        Gate::Tdg => [one, Complex64::cis(-std::f64::consts::FRAC_PI_4)],
        Gate::Rz(p) => {
            let half = p.value()? / 2.0;
            [Complex64::cis(-half), Complex64::cis(half)]
        }
        _ => return None,
    })
}

/// The diagonal of a 2-qubit gate in `|t_hi t_lo>` order, if diagonal.
pub fn diagonal_2q(gate: &Gate) -> Option<[Complex64; 4]> {
    let one = Complex64::ONE;
    Some(match gate {
        Gate::CZ => [one, one, one, Complex64::new(-1.0, 0.0)],
        Gate::Rzz(p) => {
            let half = p.value()? / 2.0;
            let (m, pl) = (Complex64::cis(-half), Complex64::cis(half));
            [m, pl, pl, m]
        }
        _ => return None,
    })
}

/// Applies a 1-qubit diagonal `diag(d0, d1)` on `target`.
pub fn apply_diag_1q(amps: &mut [Complex64], target: usize, d: [Complex64; 2]) {
    let scan = |base: usize, chunk: &mut [Complex64]| {
        for (off, a) in chunk.iter_mut().enumerate() {
            *a *= d[((base + off) >> target) & 1];
        }
    };
    if fan_out(amps.len()) {
        amps.par_chunks_mut(PAR_CHUNK)
            .enumerate()
            .for_each(|(c, chunk)| scan(c * PAR_CHUNK, chunk));
    } else {
        scan(0, amps);
    }
}

/// Applies a 2-qubit diagonal `diag(d00, d01, d10, d11)` on
/// `(t_hi, t_lo)` (first operand = most-significant bit).
pub fn apply_diag_2q(amps: &mut [Complex64], t_hi: usize, t_lo: usize, d: [Complex64; 4]) {
    let scan = |base: usize, chunk: &mut [Complex64]| {
        for (off, a) in chunk.iter_mut().enumerate() {
            let i = base + off;
            *a *= d[(((i >> t_hi) & 1) << 1) | ((i >> t_lo) & 1)];
        }
    };
    if fan_out(amps.len()) {
        amps.par_chunks_mut(PAR_CHUNK)
            .enumerate()
            .for_each(|(c, chunk)| scan(c * PAR_CHUNK, chunk));
    } else {
        scan(0, amps);
    }
}

/// One diagonal gate prepared for a fused sweep.
#[derive(Debug, Clone, Copy)]
pub enum DiagOp {
    /// A 1-qubit diagonal on `target`.
    One {
        /// Target qubit.
        target: usize,
        /// Diagonal entries.
        d: [Complex64; 2],
    },
    /// A 2-qubit diagonal on `(t_hi, t_lo)`.
    Two {
        /// Most-significant operator bit.
        t_hi: usize,
        /// Least-significant operator bit.
        t_lo: usize,
        /// Diagonal entries in `|t_hi t_lo>` order.
        d: [Complex64; 4],
    },
}

impl DiagOp {
    /// Builds the op for a diagonal gate, if the gate is diagonal with
    /// bound parameters.
    pub fn from_gate(gate: &Gate, qubits: &[usize]) -> Option<DiagOp> {
        match qubits.len() {
            1 => diagonal_1q(gate).map(|d| DiagOp::One {
                target: qubits[0],
                d,
            }),
            2 => diagonal_2q(gate).map(|d| DiagOp::Two {
                t_hi: qubits[0],
                t_lo: qubits[1],
                d,
            }),
            _ => None,
        }
    }

    /// The diagonal factor this op contributes at basis state `i`.
    #[inline]
    pub fn factor(&self, i: usize) -> Complex64 {
        match *self {
            DiagOp::One { target, d } => d[(i >> target) & 1],
            DiagOp::Two { t_hi, t_lo, d } => d[(((i >> t_hi) & 1) << 1) | ((i >> t_lo) & 1)],
        }
    }
}

/// Amplitudes per cache block of the fused diagonal sweep (`2^12`
/// complex values = 64 KiB — L1-resident).
const FUSE_BLOCK: usize = 1 << 12;

/// Applies a *run* of diagonal gates in one blocked sweep over the
/// amplitudes.
///
/// A QAOA cost layer is `n` consecutive `RZZ` gates — all diagonal, all
/// commuting. Applying them one at a time costs `n` full passes over
/// the `2^n_q` amplitudes; fused, the amplitudes stream through cache
/// once in L1-sized blocks, with each op's tight loop running over the
/// resident block. Ops whose target bits lie entirely above the block
/// are constant within it and collapse to a single broadcast factor.
pub fn apply_diag_fused(amps: &mut [Complex64], ops: &[DiagOp]) {
    if ops.is_empty() {
        return;
    }
    let block_bits = FUSE_BLOCK.trailing_zeros() as usize;
    let scan = |base: usize, chunk: &mut [Complex64]| {
        for (bi, blk) in chunk.chunks_mut(FUSE_BLOCK).enumerate() {
            let b0 = base + bi * FUSE_BLOCK;
            // Factors from ops acting entirely above this block are
            // constant across it; accumulate them into one broadcast.
            let mut broadcast = Complex64::ONE;
            let mut varying = false;
            for op in ops {
                match *op {
                    DiagOp::One { target, d } => {
                        if target >= block_bits {
                            broadcast *= d[(b0 >> target) & 1];
                        } else {
                            varying = true;
                        }
                    }
                    DiagOp::Two { t_hi, t_lo, d } => {
                        if t_hi >= block_bits && t_lo >= block_bits {
                            broadcast *= d[(((b0 >> t_hi) & 1) << 1) | ((b0 >> t_lo) & 1)];
                        } else {
                            varying = true;
                        }
                    }
                }
            }
            if broadcast != Complex64::ONE {
                for a in blk.iter_mut() {
                    *a *= broadcast;
                }
            }
            if !varying {
                continue;
            }
            for op in ops {
                match *op {
                    DiagOp::One { target, d } if target < block_bits => {
                        for (off, a) in blk.iter_mut().enumerate() {
                            *a *= d[(off >> target) & 1];
                        }
                    }
                    DiagOp::Two { t_hi, t_lo, d } if t_hi < block_bits || t_lo < block_bits => {
                        for (off, a) in blk.iter_mut().enumerate() {
                            let i = b0 + off;
                            *a *= d[(((i >> t_hi) & 1) << 1) | ((i >> t_lo) & 1)];
                        }
                    }
                    _ => {}
                }
            }
        }
    };
    if fan_out(amps.len()) {
        amps.par_chunks_mut(PAR_CHUNK)
            .enumerate()
            .for_each(|(c, chunk)| scan(c * PAR_CHUNK, chunk));
    } else {
        scan(0, amps);
    }
}

/// Applies a dense 2x2 operator on `target` with stride-based pair
/// enumeration (no per-index branch).
pub fn apply_dense_1q(amps: &mut [Complex64], target: usize, op: &Matrix) {
    debug_assert_eq!(op.rows(), 2);
    let (m00, m01, m10, m11) = (op[(0, 0)], op[(0, 1)], op[(1, 0)], op[(1, 1)]);
    let bit = 1usize << target;
    let low = bit - 1;
    // Pair `g` of a chunk lives at `i` (bit clear) and `i | bit`: insert
    // a zero at the target position of `g` by bit surgery. Chunks are
    // aligned to 2^(t+1), so the enumeration is chunk-local.
    let kernel = |chunk: &mut [Complex64]| {
        for g in 0..chunk.len() / 2 {
            let i = ((g & !low) << 1) | (g & low);
            let j = i | bit;
            let (a, b) = (chunk[i], chunk[j]);
            chunk[i] = m00 * a + m01 * b;
            chunk[j] = m10 * a + m11 * b;
        }
    };
    let chunk_len = PAR_CHUNK.max(2 * bit);
    if fan_out(amps.len()) && amps.len() > chunk_len {
        amps.par_chunks_mut(chunk_len).for_each(kernel);
    } else {
        kernel(amps);
    }
}

/// Applies a dense 4x4 operator on `(t_hi, t_lo)` with stride-based quad
/// enumeration (first operand = most-significant bit).
pub fn apply_dense_2q(amps: &mut [Complex64], t_hi: usize, t_lo: usize, op: &Matrix) {
    debug_assert_eq!(op.rows(), 4);
    debug_assert_ne!(t_hi, t_lo);
    let bh = 1usize << t_hi;
    let bl = 1usize << t_lo;
    let top = bh.max(bl);
    let block = 2 * top;
    // Enumerate the quads inside one aligned block of size 2 * max-bit:
    // indices with both target bits clear, counted by bit surgery over
    // the two fixed bits.
    let (b_lo, b_hi) = (bh.min(bl), top);
    let kernel = |chunk: &mut [Complex64]| {
        for blk in chunk.chunks_exact_mut(block) {
            // g runs over block indices with both target bits clear.
            let quarter = block / 4;
            for g in 0..quarter {
                // Insert a 0 at the low target bit, then at the high one.
                let low = g & (b_lo - 1);
                let mid = (g ^ low) << 1;
                let i0 = {
                    let partial = mid | low;
                    let lowpart = partial & (b_hi - 1);
                    ((partial ^ lowpart) << 1) | lowpart
                };
                let i1 = i0 | bl;
                let i2 = i0 | bh;
                let i3 = i0 | bh | bl;
                let v = [blk[i0], blk[i1], blk[i2], blk[i3]];
                let mut out = [Complex64::ZERO; 4];
                for (r, o) in out.iter_mut().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (c, &vc) in v.iter().enumerate() {
                        // hgp-analysis: allow(d4) -- this fused chain IS the
                        // pinned reference arithmetic the parity tests fix.
                        acc = op[(r, c)].mul_add(vc, acc);
                    }
                    *o = acc;
                }
                blk[i0] = out[0];
                blk[i1] = out[1];
                blk[i2] = out[2];
                blk[i3] = out[3];
            }
        }
    };
    let chunk_len = PAR_CHUNK.max(block);
    if fan_out(amps.len()) && amps.len() > chunk_len {
        amps.par_chunks_mut(chunk_len).for_each(kernel);
    } else {
        kernel(amps);
    }
}

/// Scales every amplitude by `d(index)` where the diagonal factor is a
/// per-basis-state table lookup on `targets`' bits. Used by the
/// density-matrix diagonal fast path.
#[inline]
pub fn diag_factor(index: usize, targets: &[usize], d: &[Complex64]) -> Complex64 {
    let mut sel = 0usize;
    for &t in targets {
        sel = (sel << 1) | ((index >> t) & 1);
    }
    d[sel]
}

/// The pre-kernel-layer operator application: a full `2^n` index scan
/// with a per-index branch selecting the lower half of each pair/quad.
///
/// Kept as the reference implementation the fused/strided/parallel
/// kernels are pinned against (property tests demand agreement to
/// `1e-12`) and benchmarked against (`crates/bench/benches/kernels.rs`).
pub mod reference {
    use super::{Complex64, Matrix};

    /// Branch-per-index dense 1q application (the seed's `apply_1q`).
    pub fn apply_1q(amps: &mut [Complex64], target: usize, op: &Matrix) {
        assert_eq!(op.rows(), 2, "expected a 2x2 operator");
        let bit = 1usize << target;
        let (a, b, c, d) = (op[(0, 0)], op[(0, 1)], op[(1, 0)], op[(1, 1)]);
        let dim = amps.len();
        let mut i = 0usize;
        while i < dim {
            if i & bit == 0 {
                let j = i | bit;
                let (x, y) = (amps[i], amps[j]);
                amps[i] = a * x + b * y;
                amps[j] = c * x + d * y;
            }
            i += 1;
        }
    }

    /// Branch-per-index dense 2q application (the seed's `apply_2q`).
    pub fn apply_2q(amps: &mut [Complex64], t_hi: usize, t_lo: usize, op: &Matrix) {
        assert_eq!(op.rows(), 4, "expected a 4x4 operator");
        assert_ne!(t_hi, t_lo, "targets must differ");
        let bh = 1usize << t_hi;
        let bl = 1usize << t_lo;
        let dim = amps.len();
        for i in 0..dim {
            if i & bh == 0 && i & bl == 0 {
                // Basis order |t_hi t_lo> = 00, 01, 10, 11.
                let idx = [i, i | bl, i | bh, i | bh | bl];
                let vin = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
                for (r, &out_i) in idx.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (ccol, &v) in vin.iter().enumerate() {
                        // hgp-analysis: allow(d4) -- this fused chain IS the
                        // pinned reference arithmetic the parity tests fix.
                        acc = op[(r, ccol)].mul_add(v, acc);
                    }
                    amps[out_i] = acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_circuit::Param;
    use hgp_math::c64;

    fn random_state(n: usize, seed: u64) -> Vec<Complex64> {
        // Deterministic pseudo-random unnormalized state (tests only
        // compare two evolutions, so the norm is irrelevant).
        let mut s = seed.wrapping_add(0x5851_F42D_4C95_7F2D);
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        (0..1usize << n).map(|_| c64(next(), next())).collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64]) {
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((*x - *y).norm() < 1e-12, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn diag_1q_matches_dense() {
        for target in 0..5 {
            let gate = Gate::Rz(Param::bound(0.73));
            let d = diagonal_1q(&gate).unwrap();
            let mut fast = random_state(5, 3);
            let mut slow = fast.clone();
            apply_diag_1q(&mut fast, target, d);
            apply_dense_1q(&mut slow, target, &gate.matrix().unwrap());
            assert_close(&fast, &slow);
        }
    }

    #[test]
    fn diag_2q_matches_dense() {
        for (hi, lo) in [(1usize, 0usize), (0, 1), (4, 2), (2, 5)] {
            let gate = Gate::Rzz(Param::bound(-1.21));
            let d = diagonal_2q(&gate).unwrap();
            let mut fast = random_state(6, 9);
            let mut slow = fast.clone();
            apply_diag_2q(&mut fast, hi, lo, d);
            apply_dense_2q(&mut slow, hi, lo, &gate.matrix().unwrap());
            assert_close(&fast, &slow);
        }
    }

    #[test]
    fn dense_2q_quad_enumeration_covers_all_pairs() {
        // A SWAP via the dense kernel must equal an index permutation.
        let swap = Gate::Swap.matrix().unwrap();
        let mut state = random_state(4, 17);
        let expect: Vec<Complex64> = (0..16)
            .map(|i| {
                let (b3, b1) = ((i >> 3) & 1, (i >> 1) & 1);
                let j = (i & !0b1010) | (b3 << 1) | (b1 << 3);
                state[j]
            })
            .collect();
        apply_dense_2q(&mut state, 3, 1, &swap);
        assert_close(&state, &expect);
    }

    #[test]
    fn fused_diagonal_run_matches_sequential_application() {
        // A ring of RZZ plus scattered RZ/CZ, fused vs one-at-a-time.
        let n = 6;
        let rzz = diagonal_2q(&Gate::Rzz(Param::bound(0.4))).unwrap();
        let rz = diagonal_1q(&Gate::Rz(Param::bound(-0.9))).unwrap();
        let cz = diagonal_2q(&Gate::CZ).unwrap();
        let mut ops: Vec<DiagOp> = (0..n)
            .map(|q| DiagOp::Two {
                t_hi: q,
                t_lo: (q + 1) % n,
                d: rzz,
            })
            .collect();
        ops.push(DiagOp::One { target: 3, d: rz });
        ops.push(DiagOp::Two {
            t_hi: 5,
            t_lo: 0,
            d: cz,
        });
        let mut fused = random_state(n, 21);
        let mut sequential = fused.clone();
        apply_diag_fused(&mut fused, &ops);
        for op in &ops {
            match *op {
                DiagOp::One { target, d } => apply_diag_1q(&mut sequential, target, d),
                DiagOp::Two { t_hi, t_lo, d } => apply_diag_2q(&mut sequential, t_hi, t_lo, d),
            }
        }
        assert_close(&fused, &sequential);
    }

    #[test]
    fn fused_run_broadcast_covers_high_targets() {
        // Targets above the fuse block (>= 12) exercise the broadcast
        // path; mix with low targets in one run on a 14-qubit register.
        let rz = diagonal_1q(&Gate::Rz(Param::bound(0.31))).unwrap();
        let rzz = diagonal_2q(&Gate::Rzz(Param::bound(1.7))).unwrap();
        let ops = vec![
            DiagOp::One { target: 13, d: rz },
            DiagOp::Two {
                t_hi: 12,
                t_lo: 13,
                d: rzz,
            },
            DiagOp::One { target: 2, d: rz },
            DiagOp::Two {
                t_hi: 13,
                t_lo: 1,
                d: rzz,
            },
        ];
        let mut fused = random_state(14, 8);
        let mut sequential = fused.clone();
        apply_diag_fused(&mut fused, &ops);
        for op in &ops {
            for (i, a) in sequential.iter_mut().enumerate() {
                *a *= op.factor(i);
            }
        }
        assert_close(&fused, &sequential);
    }

    #[test]
    fn cz_diagonal_flips_sign_on_11() {
        let d = diagonal_2q(&Gate::CZ).unwrap();
        let mut amps = vec![Complex64::ONE; 4];
        apply_diag_2q(&mut amps, 1, 0, d);
        assert_eq!(amps[0], Complex64::ONE);
        assert_eq!(amps[3], c64(-1.0, 0.0));
    }

    #[test]
    fn unbound_params_have_no_diagonal() {
        let free = Gate::Rz(Param::free(hgp_circuit::ParamId(0)));
        assert!(diagonal_1q(&free).is_none());
        assert!(diagonal_1q(&Gate::H).is_none());
        assert!(diagonal_2q(&Gate::CX).is_none());
    }
}
