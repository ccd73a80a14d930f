//! Matrix-free measurement mitigation (M3).
//!
//! The full assignment matrix `A` over `n` qubits has `4^n` entries, but a
//! shot record only ever observes a handful of distinct bitstrings. M3
//! restricts `A` to the observed subspace, normalizes its columns (so
//! probability leaking *out* of the subspace does not bias the solution),
//! and solves `A_sub x = p_noisy` (Nation et al., "Scalable mitigation of
//! measurement errors on quantum computers", arXiv:2108.12518). Entries
//! of `A_sub` factor over qubits, so each is generated from the per-qubit
//! confusion parameters — the full `A` is never formed. [`M3Mitigator::apply`]
//! builds the `observed x observed` system once into a flat row-major
//! buffer and runs its Jacobi sweeps (and, if they stall, the direct
//! elimination fallback) over that buffer.

use std::collections::BTreeMap;

use hgp_noise::readout::QubitReadout;
use hgp_noise::ReadoutModel;
use hgp_sim::Counts;

/// A mitigated quasi-probability distribution.
///
/// Entries can be slightly negative (mitigation is an inverse problem);
/// they sum to ~1. Expectation values remain well-defined.
#[derive(Debug, Clone, PartialEq)]
pub struct QuasiDistribution {
    n_qubits: usize,
    probs: BTreeMap<usize, f64>,
}

impl QuasiDistribution {
    /// Quasi-probability of a bitstring (0 if unobserved).
    pub fn probability(&self, bitstring: usize) -> f64 {
        self.probs.get(&bitstring).copied().unwrap_or(0.0)
    }

    /// Iterates `(bitstring, quasi_probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.probs.iter().map(|(&b, &p)| (b, p))
    }

    /// Sum of all quasi-probabilities (~1).
    pub fn total(&self) -> f64 {
        self.probs.values().sum()
    }

    /// Expectation of a per-bitstring cost under the quasi-distribution.
    pub fn expectation_of(&self, cost: impl Fn(usize) -> f64) -> f64 {
        self.probs.iter().map(|(&b, &p)| cost(b) * p).sum()
    }

    /// Projects onto the nearest true probability distribution (clip
    /// negatives, renormalize) — used when downstream code needs real
    /// probabilities (e.g. CVaR over mitigated shots).
    pub fn to_probabilities(&self) -> BTreeMap<usize, f64> {
        let clipped: BTreeMap<usize, f64> =
            self.probs.iter().map(|(&b, &p)| (b, p.max(0.0))).collect();
        let sum: f64 = clipped.values().sum();
        if sum <= 0.0 {
            return clipped;
        }
        clipped.into_iter().map(|(b, p)| (b, p / sum)).collect()
    }
}

/// The M3 mitigator.
///
/// See the crate-level example.
#[derive(Debug, Clone, PartialEq)]
pub struct M3Mitigator {
    qubits: Vec<QubitReadout>,
    /// Iterative-solver tolerance on the residual's max-norm.
    tol: f64,
    /// Iteration cap before falling back to direct elimination.
    max_iters: usize,
}

impl M3Mitigator {
    /// Builds a mitigator from per-qubit confusion parameters.
    pub fn new(qubits: Vec<QubitReadout>) -> Self {
        Self {
            qubits,
            tol: 1e-10,
            max_iters: 200,
        }
    }

    /// Builds a mitigator matching a [`ReadoutModel`] (in practice: from
    /// the same calibration data the noise came from, as on hardware
    /// where M3 runs its own calibration circuits).
    pub fn from_readout_model(model: &ReadoutModel) -> Self {
        Self::new((0..model.n_qubits()).map(|q| model.qubit(q)).collect())
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Element `P(observe row | true col)` of the assignment matrix
    /// (factorizes over qubits).
    fn assignment(&self, row: usize, col: usize) -> f64 {
        let mut p = 1.0;
        for (q, r) in self.qubits.iter().enumerate() {
            let true_bit = (col >> q) & 1;
            let obs_bit = (row >> q) & 1;
            p *= match (true_bit, obs_bit) {
                (0, 0) => 1.0 - r.p01,
                (0, 1) => r.p01,
                (1, 1) => 1.0 - r.p10,
                (1, 0) => r.p10,
                _ => unreachable!(),
            };
            if p == 0.0 {
                return 0.0;
            }
        }
        p
    }

    /// Mitigates a shot record, returning quasi-probabilities over the
    /// observed bitstrings.
    ///
    /// # Panics
    ///
    /// Panics if the counts' width disagrees with the calibration or the
    /// record is empty.
    pub fn apply(&self, counts: &Counts) -> QuasiDistribution {
        assert_eq!(counts.n_qubits(), self.qubits.len(), "width mismatch");
        let observed = counts.observed();
        assert!(!observed.is_empty(), "cannot mitigate an empty record");
        let m = observed.len();
        let total = counts.total() as f64;
        let p_noisy: Vec<f64> = observed
            .iter()
            .map(|&b| counts.count(b) as f64 / total)
            .collect();
        // A_sub, row-major: first the raw assignment probabilities, then
        // each column divided by its normalizer — the probability of
        // staying inside the subspace.
        let mut a: Vec<f64> = observed
            .iter()
            .flat_map(|&row| observed.iter().map(move |&col| self.assignment(row, col)))
            .collect();
        let col_norm: Vec<f64> = (0..m)
            .map(|col| (0..m).map(|row| a[row * m + col]).sum())
            .collect();
        for row in a.chunks_exact_mut(m) {
            for (entry, norm) in row.iter_mut().zip(&col_norm) {
                *entry /= norm;
            }
        }
        // Jacobi iteration with diagonal preconditioning; A_sub is
        // strongly diagonally dominant for realistic readout errors.
        let mut x = p_noisy.clone();
        let mut solved = false;
        for _ in 0..self.max_iters {
            let mut max_resid = 0.0f64;
            let mut next = Vec::with_capacity(m);
            for (i, row) in a.chunks_exact(m).enumerate() {
                let mut ax = 0.0;
                for (a_ij, x_j) in row.iter().zip(&x) {
                    ax += a_ij * x_j;
                }
                let resid = p_noisy[i] - ax;
                max_resid = max_resid.max(resid.abs());
                next.push(x[i] + resid / row[i]);
            }
            x = next;
            if max_resid < self.tol {
                solved = true;
                break;
            }
        }
        if !solved {
            // Direct solve fallback (observed subspaces are small).
            x = direct_solve(a, m, &p_noisy);
        }
        QuasiDistribution {
            n_qubits: self.qubits.len(),
            probs: observed.into_iter().zip(x).collect(),
        }
    }
}

/// Solves `a x = p` for the row-major `m x m` matrix `a` by Gaussian
/// elimination with partial pivoting.
///
/// # Panics
///
/// Panics if `a` is numerically singular.
fn direct_solve(mut a: Vec<f64>, m: usize, p: &[f64]) -> Vec<f64> {
    let mut b = p.to_vec();
    for col in 0..m {
        let pivot = (col..m)
            .max_by(|&i, &j| {
                a[i * m + col]
                    .abs()
                    .partial_cmp(&a[j * m + col].abs())
                    .expect("finite")
            })
            .expect("nonempty");
        if pivot != col {
            let (upper, lower) = a.split_at_mut(pivot * m);
            upper[col * m..(col + 1) * m].swap_with_slice(&mut lower[..m]);
            b.swap(col, pivot);
        }
        let d = a[col * m + col];
        assert!(d.abs() > 1e-14, "assignment matrix is singular");
        let (upper, lower) = a.split_at_mut((col + 1) * m);
        let pivot_row = &upper[col * m..];
        for (offset, row) in lower.chunks_exact_mut(m).enumerate() {
            let factor = row[col] / d;
            for (entry, pivot_entry) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *entry -= factor * pivot_entry;
            }
            b[col + 1 + offset] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; m];
    for row in (0..m).rev() {
        let mut acc = b[row];
        for (a_rk, x_k) in a[row * m + row + 1..(row + 1) * m]
            .iter()
            .zip(&x[row + 1..])
        {
            acc -= a_rk * x_k;
        }
        x[row] = acc / a[row * m + row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn symmetric(n: usize, e: f64) -> M3Mitigator {
        M3Mitigator::new(vec![QubitReadout::symmetric(e); n])
    }

    /// The reference solve: every `A_sub` entry regenerated from the
    /// per-qubit factors on each use, inside every Jacobi sweep and the
    /// fallback elimination. `apply` must match it bit for bit.
    #[allow(clippy::needless_range_loop)] // dense index iteration, as in the paper's formulation
    fn reference_apply(m3: &M3Mitigator, counts: &Counts) -> QuasiDistribution {
        let observed = counts.observed();
        let m = observed.len();
        let total = counts.total() as f64;
        let p_noisy: Vec<f64> = observed
            .iter()
            .map(|&b| counts.count(b) as f64 / total)
            .collect();
        let col_norm: Vec<f64> = observed
            .iter()
            .map(|&col| observed.iter().map(|&row| m3.assignment(row, col)).sum())
            .collect();
        let a =
            |row: usize, col: usize| m3.assignment(observed[row], observed[col]) / col_norm[col];
        let mut x = p_noisy.clone();
        let mut solved = false;
        for _ in 0..m3.max_iters {
            let mut max_resid = 0.0f64;
            let mut next = vec![0.0; m];
            for i in 0..m {
                let mut ax = 0.0;
                for j in 0..m {
                    ax += a(i, j) * x[j];
                }
                let resid = p_noisy[i] - ax;
                max_resid = max_resid.max(resid.abs());
                next[i] = x[i] + resid / a(i, i);
            }
            x = next;
            if max_resid < m3.tol {
                solved = true;
                break;
            }
        }
        if !solved {
            let mut a: Vec<Vec<f64>> = (0..m).map(|i| (0..m).map(|j| a(i, j)).collect()).collect();
            let mut b = p_noisy.clone();
            for col in 0..m {
                let pivot = (col..m)
                    .max_by(|&i, &j| {
                        a[i][col]
                            .abs()
                            .partial_cmp(&a[j][col].abs())
                            .expect("finite")
                    })
                    .expect("nonempty");
                a.swap(col, pivot);
                b.swap(col, pivot);
                let d = a[col][col];
                for row in (col + 1)..m {
                    let factor = a[row][col] / d;
                    for k in col..m {
                        a[row][k] -= factor * a[col][k];
                    }
                    b[row] -= factor * b[col];
                }
            }
            x = vec![0.0; m];
            for row in (0..m).rev() {
                let mut acc = b[row];
                for k in (row + 1)..m {
                    acc -= a[row][k] * x[k];
                }
                x[row] = acc / a[row][row];
            }
        }
        QuasiDistribution {
            n_qubits: m3.qubits.len(),
            probs: observed.into_iter().zip(x).collect(),
        }
    }

    fn assert_bit_identical(got: &QuasiDistribution, want: &QuasiDistribution) {
        assert_eq!(got.n_qubits, want.n_qubits);
        let got: Vec<(usize, u64)> = got.iter().map(|(b, p)| (b, p.to_bits())).collect();
        let want: Vec<(usize, u64)> = want.iter().map(|(b, p)| (b, p.to_bits())).collect();
        assert_eq!(got, want);
    }

    /// Random per-qubit calibrations (asymmetric, up to 15% error) and a
    /// random count record over `n` qubits.
    fn random_case(rng: &mut StdRng, n: usize, distinct: usize) -> (M3Mitigator, Counts) {
        let qubits = (0..n)
            .map(|_| QubitReadout {
                p01: 0.15 * rng.gen::<f64>(),
                p10: 0.15 * rng.gen::<f64>(),
            })
            .collect();
        let mut counts = Counts::new(n);
        for _ in 0..distinct {
            counts.record(rng.gen_range(0..1usize << n), rng.gen_range(1..200u64));
        }
        (M3Mitigator::new(qubits), counts)
    }

    #[test]
    fn apply_is_bit_identical_to_the_reference_on_random_records() {
        let mut rng = StdRng::seed_from_u64(2108);
        for case in 0..40 {
            let n = 1 + case % 7;
            let (m3, counts) = random_case(&mut rng, n, 1 + case * 3);
            assert_bit_identical(&m3.apply(&counts), &reference_apply(&m3, &counts));
        }
    }

    #[test]
    fn apply_is_bit_identical_to_the_reference_on_one_bitstring() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in 1..=6 {
            let (m3, _) = random_case(&mut rng, n, 0);
            let mut counts = Counts::new(n);
            counts.record((1usize << n) - 1, 1024);
            let q = m3.apply(&counts);
            assert_bit_identical(&q, &reference_apply(&m3, &counts));
            assert_eq!(q.iter().count(), 1);
        }
    }

    #[test]
    fn direct_solve_fallback_is_bit_identical_to_the_reference() {
        // No Jacobi sweeps: every record goes through elimination.
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..20 {
            let n = 2 + case % 5;
            let (m3, counts) = random_case(&mut rng, n, 2 + case * 2);
            let m3 = M3Mitigator { max_iters: 0, ..m3 };
            let q = m3.apply(&counts);
            assert_bit_identical(&q, &reference_apply(&m3, &counts));
            assert!((q.total() - 1.0).abs() < 1e-9, "total {}", q.total());
        }
    }

    #[test]
    fn identity_calibration_is_a_no_op() {
        let m3 = symmetric(2, 0.0);
        let mut counts = Counts::new(2);
        counts.record(0b01, 30);
        counts.record(0b10, 70);
        let q = m3.apply(&counts);
        assert!((q.probability(0b01) - 0.3).abs() < 1e-12);
        assert!((q.probability(0b10) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn recovers_known_distribution() {
        // Truth: 50/50 over |000> and |111>; corrupt with 4% readout and
        // mitigate back.
        let model = ReadoutModel::uniform(3, 0.04);
        let mut truth = Counts::new(3);
        truth.record(0b000, 50_000);
        truth.record(0b111, 50_000);
        let mut rng = StdRng::seed_from_u64(23);
        let noisy = model.corrupt_counts(&truth, &mut rng);
        // Noise spreads mass to neighbours.
        assert!(noisy.frequency(0b000) < 0.47);
        let m3 = M3Mitigator::from_readout_model(&model);
        let q = m3.apply(&noisy);
        assert!((q.probability(0b000) - 0.5).abs() < 0.02);
        assert!((q.probability(0b111) - 0.5).abs() < 0.02);
        assert!((q.total() - 1.0).abs() < 0.02);
    }

    #[test]
    fn improves_expectation_values() {
        // Observable: parity ZZ on |11> should be +1.
        let model = ReadoutModel::uniform(2, 0.06);
        let mut truth = Counts::new(2);
        truth.record(0b11, 40_000);
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = model.corrupt_counts(&truth, &mut rng);
        let parity = |b: usize| {
            if b.count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            }
        };
        let raw = noisy.expectation_of(parity);
        let mitigated = M3Mitigator::from_readout_model(&model)
            .apply(&noisy)
            .expectation_of(parity);
        assert!(raw < 0.85, "noise should visibly bias parity (raw {raw})");
        assert!(mitigated > 0.97, "mitigated parity {mitigated}");
    }

    #[test]
    fn asymmetric_errors_are_handled() {
        let m3 = M3Mitigator::new(vec![
            QubitReadout {
                p01: 0.02,
                p10: 0.15,
            },
            QubitReadout {
                p01: 0.08,
                p10: 0.01,
            },
        ]);
        // True state |01> (qubit0 = 1): qubit 0 often decays to read 0.
        let model = ReadoutModel::new(vec![
            QubitReadout {
                p01: 0.02,
                p10: 0.15,
            },
            QubitReadout {
                p01: 0.08,
                p10: 0.01,
            },
        ]);
        let mut truth = Counts::new(2);
        truth.record(0b01, 60_000);
        let mut rng = StdRng::seed_from_u64(11);
        let noisy = model.corrupt_counts(&truth, &mut rng);
        let q = m3.apply(&noisy);
        assert!((q.probability(0b01) - 1.0).abs() < 0.02);
    }

    #[test]
    fn quasi_probabilities_can_go_negative_but_project_cleanly() {
        let model = ReadoutModel::uniform(2, 0.1);
        let mut truth = Counts::new(2);
        truth.record(0b00, 1_000);
        let mut rng = StdRng::seed_from_u64(2);
        let noisy = model.corrupt_counts(&truth, &mut rng);
        let q = M3Mitigator::from_readout_model(&model).apply(&noisy);
        let proj = q.to_probabilities();
        let sum: f64 = proj.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for &p in proj.values() {
            assert!(p >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let m3 = symmetric(3, 0.01);
        let mut counts = Counts::new(2);
        counts.record(0, 1);
        let _ = m3.apply(&counts);
    }
}
