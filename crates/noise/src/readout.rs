//! Readout (measurement assignment) error.
//!
//! Each qubit `q` has a 2x2 confusion matrix
//! `A_q = [[1-e01, e10], [e01, 1-e10]]` mapping true outcome probabilities
//! to observed ones. The full assignment matrix is the tensor product of
//! the per-qubit matrices; it is never materialized — confusion is applied
//! qubit-by-qubit in `O(n 2^n)`.

use rand::Rng;

use hgp_device::Backend;
use hgp_sim::Counts;

/// Per-qubit readout confusion parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitReadout {
    /// Probability of reading 1 when the state was 0.
    pub p01: f64,
    /// Probability of reading 0 when the state was 1.
    pub p10: f64,
}

impl QubitReadout {
    /// A symmetric confusion with flip probability `e` in both directions.
    pub fn symmetric(e: f64) -> Self {
        Self { p01: e, p10: e }
    }
}

/// Readout model for a register of qubits.
///
/// ```
/// use hgp_noise::ReadoutModel;
/// let model = ReadoutModel::uniform(2, 0.1);
/// let observed = model.apply_to_probabilities(&[1.0, 0.0, 0.0, 0.0]);
/// // P(read 00 | true 00) = 0.81.
/// assert!((observed[0] - 0.81).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReadoutModel {
    qubits: Vec<QubitReadout>,
}

impl ReadoutModel {
    /// Builds a model from explicit per-qubit parameters.
    pub fn new(qubits: Vec<QubitReadout>) -> Self {
        for (q, r) in qubits.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&r.p01) && (0.0..=1.0).contains(&r.p10),
                "qubit {q} has invalid flip probabilities"
            );
        }
        Self { qubits }
    }

    /// A model with the same symmetric error `e` on every qubit.
    pub fn uniform(n_qubits: usize, e: f64) -> Self {
        Self::new(vec![QubitReadout::symmetric(e); n_qubits])
    }

    /// Builds a model for the physical qubits selected by `layout` on a
    /// backend (logical qubit `i` reads `backend.qubit(layout[i])`).
    pub fn from_backend(backend: &Backend, layout: &[usize]) -> Self {
        Self::new(
            layout
                .iter()
                .map(|&p| QubitReadout::symmetric(backend.qubit(p).readout_error))
                .collect(),
        )
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Per-qubit parameters.
    pub fn qubit(&self, q: usize) -> QubitReadout {
        self.qubits[q]
    }

    /// Applies the confusion map to a true probability distribution,
    /// returning the observed distribution.
    ///
    /// The full `2^n x 2^n` assignment matrix is never formed: its
    /// tensor-product structure factors the action into `n` butterfly
    /// sweeps — `O(n 2^n)` total. Each per-qubit sweep walks the pair
    /// blocks directly (stride `2 bit`), touching every index exactly
    /// once with no masking branch; the historical masked sweep is kept
    /// as [`ReadoutModel::apply_to_probabilities_reference`] and parity
    /// tests pin the two bit-for-bit (the per-pair arithmetic is
    /// identical, only the iteration order of untouched indices
    /// differs).
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^n`.
    pub fn apply_to_probabilities(&self, probs: &[f64]) -> Vec<f64> {
        let n = self.qubits.len();
        assert_eq!(probs.len(), 1 << n, "distribution length mismatch");
        let mut p = probs.to_vec();
        for (q, r) in self.qubits.iter().enumerate() {
            let bit = 1usize << q;
            let (keep0, leak0) = (1.0 - r.p01, r.p01);
            let (keep1, leak1) = (1.0 - r.p10, r.p10);
            let mut block = 0;
            while block < p.len() {
                for i in block..block + bit {
                    let j = i + bit;
                    let (p0, p1) = (p[i], p[j]);
                    p[i] = keep0 * p0 + leak1 * p1;
                    p[j] = leak0 * p0 + keep1 * p1;
                }
                block += bit << 1;
            }
        }
        p
    }

    /// The historical masked per-qubit sweep, kept as the reference
    /// implementation for parity tests against the strided fast path
    /// (the `hgp_sim::kernels::reference` idiom).
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^n`.
    pub fn apply_to_probabilities_reference(&self, probs: &[f64]) -> Vec<f64> {
        let n = self.qubits.len();
        assert_eq!(probs.len(), 1 << n, "distribution length mismatch");
        let mut p = probs.to_vec();
        for (q, r) in self.qubits.iter().enumerate() {
            let bit = 1usize << q;
            for i in 0..p.len() {
                if i & bit == 0 {
                    let j = i | bit;
                    let (p0, p1) = (p[i], p[j]);
                    p[i] = (1.0 - r.p01) * p0 + r.p10 * p1;
                    p[j] = r.p01 * p0 + (1.0 - r.p10) * p1;
                }
            }
        }
        p
    }

    /// Flips each bit of one measured bitstring independently according
    /// to the confusion probabilities — the shot-level noisy readout
    /// (one RNG draw per qubit). This is the hook trajectory sampling
    /// hands to `hgp_sim::TrajectoryEngine::sample_counts_with`.
    pub fn corrupt_bits<R: Rng + ?Sized>(&self, bits: usize, rng: &mut R) -> usize {
        let mut observed = bits;
        for (q, r) in self.qubits.iter().enumerate() {
            let flip_p = if (bits >> q) & 1 == 0 { r.p01 } else { r.p10 };
            if rng.gen::<f64>() < flip_p {
                observed ^= 1 << q;
            }
        }
        observed
    }

    /// Flips each bit of sampled counts independently according to the
    /// confusion probabilities (a shot-level noisy readout).
    pub fn corrupt_counts<R: Rng + ?Sized>(&self, counts: &Counts, rng: &mut R) -> Counts {
        let n = self.qubits.len();
        assert_eq!(counts.n_qubits(), n, "width mismatch");
        let mut out = Counts::new(n);
        for (bits, c) in counts.iter() {
            for _ in 0..c {
                out.record(self.corrupt_bits(bits, rng), 1);
            }
        }
        out
    }

    /// The full `2^n x 2^n` assignment matrix column for a given true
    /// state: `P(observed = row | true = col)`. Used by mitigation tests.
    pub fn assignment_column(&self, true_state: usize) -> Vec<f64> {
        let n = self.qubits.len();
        let mut col = vec![0.0; 1 << n];
        col[true_state] = 1.0;
        self.apply_to_probabilities(&col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_when_error_free() {
        let m = ReadoutModel::uniform(3, 0.0);
        let probs = vec![0.5, 0.0, 0.25, 0.0, 0.25, 0.0, 0.0, 0.0];
        assert_eq!(m.apply_to_probabilities(&probs), probs);
    }

    #[test]
    fn confusion_preserves_total_probability() {
        let m = ReadoutModel::new(vec![
            QubitReadout {
                p01: 0.02,
                p10: 0.07,
            },
            QubitReadout {
                p01: 0.05,
                p10: 0.01,
            },
        ]);
        let probs = vec![0.1, 0.4, 0.3, 0.2];
        let observed = m.apply_to_probabilities(&probs);
        let sum: f64 = observed.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_flips_are_directional() {
        // Only 1 -> 0 errors: a true |1> can read 0, a true |0> cannot read 1.
        let m = ReadoutModel::new(vec![QubitReadout { p01: 0.0, p10: 0.2 }]);
        let from_one = m.apply_to_probabilities(&[0.0, 1.0]);
        assert!((from_one[0] - 0.2).abs() < 1e-12);
        let from_zero = m.apply_to_probabilities(&[1.0, 0.0]);
        assert_eq!(from_zero[1], 0.0);
    }

    #[test]
    fn assignment_column_is_a_distribution() {
        let m = ReadoutModel::uniform(3, 0.1);
        for s in 0..8 {
            let col = m.assignment_column(s);
            assert!((col.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            // Diagonal dominates for small error.
            assert!(col[s] > 0.7);
        }
    }

    #[test]
    fn corrupt_counts_statistics() {
        let m = ReadoutModel::uniform(1, 0.25);
        let mut truth = Counts::new(1);
        truth.record(0, 40_000);
        let mut rng = StdRng::seed_from_u64(17);
        let noisy = m.corrupt_counts(&truth, &mut rng);
        assert_eq!(noisy.total(), 40_000);
        assert!((noisy.frequency(1) - 0.25).abs() < 0.01);
    }

    #[test]
    fn strided_sweep_matches_reference_bit_for_bit() {
        // Same pair arithmetic, same pair order: parity must be exact.
        let m = ReadoutModel::new(vec![
            QubitReadout {
                p01: 0.02,
                p10: 0.07,
            },
            QubitReadout {
                p01: 0.05,
                p10: 0.01,
            },
            QubitReadout {
                p01: 0.11,
                p10: 0.003,
            },
            QubitReadout { p01: 0.0, p10: 0.3 },
        ]);
        let mut rng = StdRng::seed_from_u64(99);
        let mut probs: Vec<f64> = (0..16).map(|_| rng.gen::<f64>()).collect();
        let sum: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= sum;
        }
        let fast = m.apply_to_probabilities(&probs);
        let reference = m.apply_to_probabilities_reference(&probs);
        for (a, b) in fast.iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_bits_matches_corrupt_counts_stream() {
        // corrupt_counts is a fold over corrupt_bits: same RNG stream,
        // same outcomes.
        let m = ReadoutModel::uniform(3, 0.2);
        let mut truth = Counts::new(3);
        truth.record(0b101, 500);
        truth.record(0b010, 300);
        let mut rng_a = StdRng::seed_from_u64(7);
        let by_counts = m.corrupt_counts(&truth, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut by_bits = Counts::new(3);
        for (bits, c) in truth.iter() {
            for _ in 0..c {
                by_bits.record(m.corrupt_bits(bits, &mut rng_b), 1);
            }
        }
        assert_eq!(by_counts, by_bits);
    }

    #[test]
    fn from_backend_reads_layout() {
        let b = Backend::ibmq_toronto();
        let m = ReadoutModel::from_backend(&b, &[3, 5]);
        assert_eq!(m.n_qubits(), 2);
        assert!((m.qubit(0).p01 - b.qubit(3).readout_error).abs() < 1e-15);
        assert!((m.qubit(1).p01 - b.qubit(5).readout_error).abs() < 1e-15);
    }
}
