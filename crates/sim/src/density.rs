//! Mixed-state simulation.
//!
//! The machine-in-loop training runs of the hybrid gate-pulse model evolve
//! a density matrix so that Kraus noise channels (amplitude damping,
//! dephasing, depolarizing) can act after every instruction. Operators are
//! applied with `O(4^n)`-per-gate kernels: a unitary `U` on targets `t`
//! maps `rho -> U rho U†`, implemented as a column pass (left
//! multiplication) followed by a row pass (right multiplication by `U†`).

use rand::Rng;

use hgp_circuit::{Circuit, Gate, Instruction};
use hgp_math::pauli::PauliSum;
use hgp_math::{Complex64, Matrix};

use crate::backend::SimBackend;
use crate::counts::Counts;
use crate::kernels;
use crate::statevector::StateVector;

/// A density matrix over `n` qubits, stored dense row-major.
///
/// ```
/// use hgp_sim::DensityMatrix;
/// let rho = DensityMatrix::zero_state(2);
/// assert!((rho.trace() - 1.0).abs() < 1e-15);
/// assert!((rho.purity() - 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    dim: usize,
    data: Vec<Complex64>,
}

impl DensityMatrix {
    /// The pure state `|0...0><0...0|`.
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(n_qubits > 0 && n_qubits <= 13, "supported width: 1..=13");
        let dim = 1usize << n_qubits;
        let mut data = vec![Complex64::ZERO; dim * dim];
        data[0] = Complex64::ONE;
        Self {
            n_qubits,
            dim,
            data,
        }
    }

    /// The pure uniform-superposition state `|+><+|^n`.
    pub fn plus_state(n_qubits: usize) -> Self {
        Self::from_statevector(&StateVector::plus_state(n_qubits))
    }

    /// Builds `|psi><psi|` from a pure state.
    pub fn from_statevector(psi: &StateVector) -> Self {
        let n_qubits = psi.n_qubits();
        let dim = 1usize << n_qubits;
        let amps = psi.amplitudes();
        let mut data = vec![Complex64::ZERO; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                data[i * dim + j] = amps[i] * amps[j].conj();
            }
        }
        Self {
            n_qubits,
            dim,
            data,
        }
    }

    /// The maximally mixed state `I / 2^n`.
    pub fn maximally_mixed(n_qubits: usize) -> Self {
        let dim = 1usize << n_qubits;
        let mut rho = Self::zero_state(n_qubits);
        rho.data[0] = Complex64::ZERO;
        let p = Complex64::from_re(1.0 / dim as f64);
        for i in 0..dim {
            rho.data[i * dim + i] = p;
        }
        rho
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        self.data[i * self.dim + j]
    }

    /// Assembles a state from split row-major planes, entry `(i, j)` at
    /// `re[i * dim + j]` / `im[i * dim + j]` — the exact replay tape's
    /// layout (`replay/exact.rs`), joined once per replay.
    pub(crate) fn from_planes(n_qubits: usize, re: &[f64], im: &[f64]) -> Self {
        let dim = 1usize << n_qubits;
        assert!(re.len() == dim * dim && im.len() == dim * dim, "plane size");
        let data = re
            .iter()
            .zip(im)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect();
        Self {
            n_qubits,
            dim,
            data,
        }
    }

    /// Converts to a dense [`Matrix`] (for tests and small-system checks).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.dim, self.dim, self.data.clone())
    }

    /// Trace (real part; the imaginary part is round-off).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.data[i * self.dim + i].re).sum()
    }

    /// Purity `Tr(rho^2)`; 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        // Tr(rho^2) = sum_ij rho_ij rho_ji = sum_ij |rho_ij|^2 (Hermitian).
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Applies a unitary `op` (dimension `2^k`) to target qubits:
    /// `rho -> U rho U†`.
    ///
    /// `targets[0]` is the most-significant bit of the operator's index.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or bad targets.
    pub fn apply_unitary(&mut self, op: &Matrix, targets: &[usize]) {
        self.apply_left(op, targets);
        self.apply_right_dagger(op, targets);
    }

    /// Applies a bound circuit's gates in order (no noise).
    ///
    /// Returns `None` if an unbound gate is hit.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Option<()> {
        assert_eq!(circuit.n_qubits(), self.n_qubits, "width mismatch");
        for inst in circuit.instructions() {
            if let Instruction::Gate { gate, qubits } = inst {
                self.apply_gate(gate, qubits)?;
            }
        }
        Some(())
    }

    /// Applies one gate, taking the diagonal fast path where the gate's
    /// structure allows (`rho -> D rho D†` is an elementwise scale — no
    /// block gathering).
    ///
    /// Returns `None` if the gate has unbound parameters.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Option<()> {
        let diag: Option<Vec<Complex64>> = match qubits.len() {
            1 => kernels::diagonal_1q(gate).map(|d| d.to_vec()),
            2 => kernels::diagonal_2q(gate).map(|d| d.to_vec()),
            _ => None,
        };
        if let Some(d) = diag {
            self.apply_diagonal_unitary(qubits, &d);
            return Some(());
        }
        let m = gate.matrix()?;
        self.apply_unitary(&m, qubits);
        Some(())
    }

    /// Applies a diagonal unitary given by its `2^k` diagonal entries on
    /// `targets` (`targets[0]` = most-significant bit):
    /// `rho[i][j] *= d(i) conj(d(j))`.
    fn apply_diagonal_unitary(&mut self, targets: &[usize], d: &[Complex64]) {
        assert_eq!(d.len(), 1 << targets.len(), "diagonal length mismatch");
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < self.n_qubits, "target out of range");
            assert!(!targets[..i].contains(&t), "targets must differ");
        }
        let dim = self.dim;
        let factors: Vec<Complex64> = (0..dim)
            .map(|i| kernels::diag_factor(i, targets, d))
            .collect();
        for (i, row) in self.data.chunks_exact_mut(dim).enumerate() {
            let fi = factors[i];
            for (entry, fj) in row.iter_mut().zip(factors.iter()) {
                *entry *= fi * fj.conj();
            }
        }
    }

    /// Applies a quantum channel given by Kraus operators on `targets`:
    /// `rho -> sum_k K_k rho K_k†`.
    ///
    /// # Panics
    ///
    /// Panics if `kraus` is empty or operator dimensions mismatch.
    pub fn apply_kraus(&mut self, kraus: &[Matrix], targets: &[usize]) {
        assert!(
            !kraus.is_empty(),
            "channel needs at least one Kraus operator"
        );
        if let [k] = kraus {
            // Single-Kraus (unitary-like) channel: the sum has one term,
            // so apply it in place — no clone, no accumulator.
            self.apply_left(k, targets);
            self.apply_right_dagger(k, targets);
            return;
        }
        let mut acc = vec![Complex64::ZERO; self.data.len()];
        let original = self.data.clone();
        for k in kraus {
            self.data.copy_from_slice(&original);
            self.apply_left(k, targets);
            self.apply_right_dagger(k, targets);
            for (a, &d) in acc.iter_mut().zip(self.data.iter()) {
                *a += d;
            }
        }
        self.data = acc;
    }

    /// [`DensityMatrix::apply_kraus`] without the single-Kraus fast
    /// path: clone + per-operator accumulate unconditionally. Kept as
    /// the parity reference (the fast path must agree exactly, modulo
    /// the sign of zero the `0 + z` accumulation normalizes).
    pub fn apply_kraus_reference(&mut self, kraus: &[Matrix], targets: &[usize]) {
        assert!(
            !kraus.is_empty(),
            "channel needs at least one Kraus operator"
        );
        let mut acc = vec![Complex64::ZERO; self.data.len()];
        let original = self.data.clone();
        for k in kraus {
            self.data.copy_from_slice(&original);
            self.apply_left(k, targets);
            self.apply_right_dagger(k, targets);
            for (a, &d) in acc.iter_mut().zip(self.data.iter()) {
                *a += d;
            }
        }
        self.data = acc;
    }

    /// Left multiplication `rho -> (U embedded) rho`, column by column.
    fn apply_left(&mut self, op: &Matrix, targets: &[usize]) {
        let k = targets.len();
        assert_eq!(op.rows(), 1 << k, "operator dimension mismatch");
        let masks: Vec<usize> = targets.iter().map(|&t| 1usize << t).collect();
        for &t in targets {
            assert!(t < self.n_qubits, "target out of range");
        }
        let dim = self.dim;
        let block = 1usize << k;
        let all_mask: usize = masks.iter().sum();
        let mut rows_idx = vec![0usize; block];
        let mut vin = vec![Complex64::ZERO; block];
        for base in 0..dim {
            if base & all_mask != 0 {
                continue;
            }
            // Row indices of the block: bits of `r` map MSB-first onto targets.
            for (r, row_idx) in rows_idx.iter_mut().enumerate() {
                let mut idx = base;
                for (pos, &m) in masks.iter().enumerate() {
                    if (r >> (k - 1 - pos)) & 1 == 1 {
                        idx |= m;
                    }
                }
                *row_idx = idx;
            }
            for col in 0..dim {
                for (r, &ri) in rows_idx.iter().enumerate() {
                    vin[r] = self.data[ri * dim + col];
                }
                for (r, &ri) in rows_idx.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (c, &v) in vin.iter().enumerate() {
                        // hgp-analysis: allow(d4) -- this fused chain IS the
                        // pinned reference arithmetic the parity tests fix.
                        acc = op[(r, c)].mul_add(v, acc);
                    }
                    self.data[ri * dim + col] = acc;
                }
            }
        }
    }

    /// Right multiplication `rho -> rho (U embedded)†`, row by row.
    fn apply_right_dagger(&mut self, op: &Matrix, targets: &[usize]) {
        let k = targets.len();
        assert_eq!(op.rows(), 1 << k, "operator dimension mismatch");
        let masks: Vec<usize> = targets.iter().map(|&t| 1usize << t).collect();
        let dim = self.dim;
        let block = 1usize << k;
        let all_mask: usize = masks.iter().sum();
        let mut cols_idx = vec![0usize; block];
        let mut vin = vec![Complex64::ZERO; block];
        for base in 0..dim {
            if base & all_mask != 0 {
                continue;
            }
            for (c, col_idx) in cols_idx.iter_mut().enumerate() {
                let mut idx = base;
                for (pos, &m) in masks.iter().enumerate() {
                    if (c >> (k - 1 - pos)) & 1 == 1 {
                        idx |= m;
                    }
                }
                *col_idx = idx;
            }
            for row in 0..dim {
                for (c, &ci) in cols_idx.iter().enumerate() {
                    vin[c] = self.data[row * dim + ci];
                }
                // (rho U†)[row, c'] = sum_c rho[row, c] conj(U[c', c])
                for (cp, &ci) in cols_idx.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (c, &v) in vin.iter().enumerate() {
                        // hgp-analysis: allow(d4) -- this fused chain IS the
                        // pinned reference arithmetic the parity tests fix.
                        acc = op[(cp, c)].conj().mul_add(v, acc);
                    }
                    self.data[row * dim + ci] = acc;
                }
            }
        }
    }

    /// Measurement probabilities in the computational basis (the
    /// diagonal): one strided sweep at `dim + 1`, no index decode.
    pub fn probabilities(&self) -> Vec<f64> {
        self.data
            .iter()
            .step_by(self.dim + 1)
            .map(|z| z.re.max(0.0))
            .collect()
    }

    /// Index-decoded [`DensityMatrix::probabilities`], kept as the
    /// bit-parity reference for the strided sweep.
    pub fn probabilities_reference(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.data[i * self.dim + i].re.max(0.0))
            .collect()
    }

    /// Expectation of a diagonal (Z-only) observable: the same strided
    /// diagonal sweep, without materializing the probability vector.
    ///
    /// # Panics
    ///
    /// Panics if the observable contains X/Y factors or widths mismatch.
    pub fn expectation_diagonal(&self, observable: &PauliSum) -> f64 {
        assert_eq!(observable.n_qubits(), self.n_qubits, "width mismatch");
        self.data
            .iter()
            .step_by(self.dim + 1)
            .enumerate()
            .map(|(b, z)| z.re.max(0.0) * observable.eval_diagonal(b))
            .sum()
    }

    /// Expectation of a Hermitian observable given as a Pauli sum
    /// (diagonal sums avoid materializing the observable matrix).
    pub fn expectation_pauli(&self, observable: &PauliSum) -> f64 {
        assert_eq!(observable.n_qubits(), self.n_qubits, "width mismatch");
        if observable.is_diagonal() {
            self.expectation_diagonal(observable)
        } else {
            self.expectation(&observable.matrix())
        }
    }

    /// Expectation of a general Hermitian observable `Tr(rho O)`: row
    /// `i` of `rho` pairs with column `i` of `O`, walked at stride
    /// `dim` over the raw storage — same accumulation order as the
    /// index-decoded reference, hence bit-identical.
    pub fn expectation(&self, observable: &Matrix) -> f64 {
        assert_eq!(observable.rows(), self.dim, "dimension mismatch");
        let dim = self.dim;
        let obs = observable.as_slice();
        let mut acc = Complex64::ZERO;
        for (i, row) in self.data.chunks_exact(dim).enumerate() {
            for (&r, &o) in row.iter().zip(obs[i..].iter().step_by(dim)) {
                acc += r * o;
            }
        }
        acc.re
    }

    /// Index-decoded [`DensityMatrix::expectation`], kept as the
    /// bit-parity reference for the strided sweep.
    pub fn expectation_reference(&self, observable: &Matrix) -> f64 {
        assert_eq!(observable.rows(), self.dim, "dimension mismatch");
        let mut acc = Complex64::ZERO;
        for i in 0..self.dim {
            for j in 0..self.dim {
                acc += self.data[i * self.dim + j] * observable[(j, i)];
            }
        }
        acc.re
    }

    /// Fidelity with a pure state: `<psi| rho |psi>`.
    pub fn fidelity_with_pure(&self, psi: &StateVector) -> f64 {
        assert_eq!(psi.n_qubits(), self.n_qubits, "width mismatch");
        let amps = psi.amplitudes();
        let mut acc = Complex64::ZERO;
        for i in 0..self.dim {
            for j in 0..self.dim {
                acc += amps[i].conj() * self.data[i * self.dim + j] * amps[j];
            }
        }
        acc.re
    }

    /// Samples `shots` computational-basis outcomes from the diagonal.
    pub fn sample<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Counts {
        let mut probs = self.probabilities();
        // Renormalize against round-off (trace should already be ~1).
        let sum: f64 = probs.iter().sum();
        if sum > 0.0 {
            for p in &mut probs {
                *p /= sum;
            }
        }
        Counts::sample_from_probabilities(&probs, shots, self.n_qubits, rng)
    }

    /// Traces out every qubit *not* in `keep`, returning the reduced
    /// state over `keep` (in the listed order; `keep[0]` becomes qubit 0
    /// of the result).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty, repeats qubits, or indexes out of range.
    pub fn partial_trace(&self, keep: &[usize]) -> DensityMatrix {
        assert!(!keep.is_empty(), "must keep at least one qubit");
        let mut seen = vec![false; self.n_qubits];
        for &q in keep {
            assert!(q < self.n_qubits, "qubit {q} out of range");
            assert!(!seen[q], "qubit {q} repeated");
            seen[q] = true;
        }
        let traced: Vec<usize> = (0..self.n_qubits).filter(|q| !seen[*q]).collect();
        let k = keep.len();
        let kdim = 1usize << k;
        let mut out = vec![Complex64::ZERO; kdim * kdim];
        let expand = |bits: usize, env: usize| -> usize {
            // Interleave kept bits (per `keep`) and environment bits (per
            // `traced`) into a full index.
            let mut idx = 0usize;
            for (pos, &q) in keep.iter().enumerate() {
                if (bits >> pos) & 1 == 1 {
                    idx |= 1 << q;
                }
            }
            for (pos, &q) in traced.iter().enumerate() {
                if (env >> pos) & 1 == 1 {
                    idx |= 1 << q;
                }
            }
            idx
        };
        for row in 0..kdim {
            for col in 0..kdim {
                let mut acc = Complex64::ZERO;
                for env in 0..(1usize << traced.len()) {
                    let i = expand(row, env);
                    let j = expand(col, env);
                    acc += self.data[i * self.dim + j];
                }
                out[row * kdim + col] = acc;
            }
        }
        DensityMatrix {
            n_qubits: k,
            dim: kdim,
            data: out,
        }
    }

    /// Von Neumann entropy `-Tr(rho ln rho)` in nats (0 for pure states,
    /// `n ln 2` for maximally mixed).
    pub fn von_neumann_entropy(&self) -> f64 {
        let eig = hgp_math::eigen::eigh(&self.to_matrix());
        -eig.values
            .iter()
            .filter(|&&l| l > 1e-12)
            .map(|&l| l * l.ln())
            .sum::<f64>()
    }
}

impl SimBackend for DensityMatrix {
    const NAME: &'static str = "density-matrix";
    const SUPPORTS_CHANNELS: bool = true;

    fn init(n_qubits: usize) -> Self {
        Self::zero_state(n_qubits)
    }

    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Option<()> {
        DensityMatrix::apply_gate(self, gate, qubits)
    }

    fn apply_unitary(&mut self, op: &Matrix, targets: &[usize]) {
        DensityMatrix::apply_unitary(self, op, targets);
    }

    fn apply_kraus(&mut self, kraus: &[Matrix], targets: &[usize]) {
        DensityMatrix::apply_kraus(self, kraus, targets);
    }

    fn probabilities(&self) -> Vec<f64> {
        DensityMatrix::probabilities(self)
    }

    fn expectation(&self, observable: &PauliSum) -> f64 {
        self.expectation_pauli(observable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_circuit::{Circuit, Gate};
    use hgp_math::c64;

    fn bell_circuit() -> Circuit {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        qc
    }

    #[test]
    fn pure_state_round_trip() {
        let psi = StateVector::from_circuit(&bell_circuit()).unwrap();
        let rho = DensityMatrix::from_statevector(&psi);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn circuit_evolution_matches_statevector() {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).rx(2, 0.9).rzz(1, 2, 0.4).cx(2, 0);
        let psi = StateVector::from_circuit(&qc).unwrap();
        let mut rho = DensityMatrix::zero_state(3);
        rho.apply_circuit(&qc).unwrap();
        let expect = DensityMatrix::from_statevector(&psi);
        for i in 0..8 {
            for j in 0..8 {
                assert!(
                    (rho.get(i, j) - expect.get(i, j)).norm() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn unitary_preserves_trace_and_purity() {
        let mut rho = DensityMatrix::plus_state(2);
        rho.apply_unitary(&Gate::CX.matrix().unwrap(), &[0, 1]);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_kraus_mixes_state() {
        // Full depolarizing on one qubit: rho -> I/2.
        let p: f64 = 1.0;
        let kraus = vec![
            Matrix::identity(2).scale(c64((1.0 - 3.0 * p / 4.0).sqrt(), 0.0)),
            hgp_math::pauli::sigma_x().scale(c64((p / 4.0).sqrt(), 0.0)),
            hgp_math::pauli::sigma_y().scale(c64((p / 4.0).sqrt(), 0.0)),
            hgp_math::pauli::sigma_z().scale(c64((p / 4.0).sqrt(), 0.0)),
        ];
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_kraus(&kraus, &[0]);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.get(0, 0).re - 0.5).abs() < 1e-12);
        assert!((rho.get(1, 1).re - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kraus_on_one_qubit_of_entangled_pair() {
        // Dephasing one half of a Bell pair kills off-diagonal coherence.
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_circuit(&bell_circuit()).unwrap();
        let z = hgp_math::pauli::sigma_z();
        let kraus = vec![
            Matrix::identity(2).scale(c64((0.5f64).sqrt(), 0.0)),
            z.scale(c64((0.5f64).sqrt(), 0.0)),
        ];
        rho.apply_kraus(&kraus, &[0]);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        // Populations unchanged, coherence gone.
        assert!((rho.get(0, 0).re - 0.5).abs() < 1e-12);
        assert!((rho.get(3, 3).re - 0.5).abs() < 1e-12);
        assert!(rho.get(0, 3).norm() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn maximally_mixed_properties() {
        let rho = DensityMatrix::maximally_mixed(3);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 0.125).abs() < 1e-12);
        for p in rho.probabilities() {
            assert!((p - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn expectation_diagonal_on_bell() {
        use hgp_math::pauli::{Pauli, PauliString, PauliSum};
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_circuit(&bell_circuit()).unwrap();
        let zz = PauliSum::from_terms(vec![PauliString::new(
            2,
            vec![(0, Pauli::Z), (1, Pauli::Z)],
            1.0,
        )]);
        assert!((rho.expectation_diagonal(&zz) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn general_expectation_matches_diagonal_path() {
        use hgp_math::pauli::{Pauli, PauliString, PauliSum};
        let mut rho = DensityMatrix::plus_state(2);
        rho.apply_unitary(
            &Gate::Rzz(hgp_circuit::Param::bound(0.8)).matrix().unwrap(),
            &[0, 1],
        );
        let zz = PauliSum::from_terms(vec![PauliString::new(
            2,
            vec![(0, Pauli::Z), (1, Pauli::Z)],
            1.0,
        )]);
        let by_diag = rho.expectation_diagonal(&zz);
        let by_full = rho.expectation(&zz.matrix());
        assert!((by_diag - by_full).abs() < 1e-12);
    }

    #[test]
    fn two_qubit_kraus_application() {
        // A CX expressed as a single-element Kraus channel acts like the gate.
        let mut a = DensityMatrix::plus_state(2);
        let mut b = a.clone();
        let cx = Gate::CX.matrix().unwrap();
        a.apply_unitary(&cx, &[0, 1]);
        b.apply_kraus(std::slice::from_ref(&cx), &[0, 1]);
        for i in 0..4 {
            for j in 0..4 {
                assert!((a.get(i, j) - b.get(i, j)).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn partial_trace_of_bell_pair_is_maximally_mixed() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_circuit(&bell_circuit()).unwrap();
        let reduced = rho.partial_trace(&[0]);
        assert_eq!(reduced.n_qubits(), 1);
        assert!((reduced.get(0, 0).re - 0.5).abs() < 1e-12);
        assert!((reduced.get(1, 1).re - 0.5).abs() < 1e-12);
        assert!(reduced.get(0, 1).norm() < 1e-12);
        // Entanglement entropy of a Bell pair: ln 2.
        assert!((reduced.von_neumann_entropy() - std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    fn partial_trace_of_product_state_is_pure() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_unitary(&hgp_circuit::Gate::H.matrix().unwrap(), &[1]);
        let reduced = rho.partial_trace(&[1]);
        assert!((reduced.purity() - 1.0).abs() < 1e-12);
        assert!(reduced.von_neumann_entropy().abs() < 1e-9);
        // The kept qubit is |+>.
        assert!((reduced.get(0, 1).re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_trace_preserves_trace() {
        let mut rho = DensityMatrix::plus_state(3);
        rho.apply_unitary(&hgp_circuit::Gate::CX.matrix().unwrap(), &[0, 2]);
        let reduced = rho.partial_trace(&[2, 0]);
        assert!((reduced.trace() - 1.0).abs() < 1e-12);
        assert_eq!(reduced.n_qubits(), 2);
    }

    /// A mildly messy noisy state for the fast-path parity pins below.
    fn noisy_state() -> DensityMatrix {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).rx(2, 0.9).rzz(1, 2, 0.4).rz(0, -0.7);
        let mut rho = DensityMatrix::zero_state(3);
        rho.apply_circuit(&qc).unwrap();
        let z = hgp_math::pauli::sigma_z();
        let kraus = vec![
            Matrix::identity(2).scale(c64((0.8f64).sqrt(), 0.0)),
            z.scale(c64((0.2f64).sqrt(), 0.0)),
        ];
        rho.apply_kraus(&kraus, &[1]);
        rho
    }

    #[test]
    fn single_kraus_fast_path_matches_reference() {
        let cx = Gate::CX.matrix().unwrap();
        let rx = Gate::Rx(hgp_circuit::Param::bound(0.35)).matrix().unwrap();
        for (kraus, targets) in [(vec![cx], vec![0, 1]), (vec![rx], vec![2])] {
            let mut fast = noisy_state();
            let mut slow = noisy_state();
            fast.apply_kraus(&kraus, &targets);
            slow.apply_kraus_reference(&kraus, &targets);
            // Value-exact: the reference's `0 + z` accumulation only
            // normalizes the sign of zero, which `==` ignores.
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn multi_kraus_path_is_unchanged_by_the_fast_path() {
        let z = hgp_math::pauli::sigma_z();
        let kraus = vec![
            Matrix::identity(2).scale(c64((0.7f64).sqrt(), 0.0)),
            z.scale(c64((0.3f64).sqrt(), 0.0)),
        ];
        let mut fast = noisy_state();
        let mut slow = noisy_state();
        fast.apply_kraus(&kraus, &[0]);
        slow.apply_kraus_reference(&kraus, &[0]);
        for (a, b) in fast.probabilities().iter().zip(slow.probabilities()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn strided_probabilities_match_reference_bitwise() {
        let rho = noisy_state();
        let fast = rho.probabilities();
        let slow = rho.probabilities_reference();
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn strided_expectation_matches_reference_bitwise() {
        use hgp_math::pauli::{Pauli, PauliString, PauliSum};
        let rho = noisy_state();
        let obs = PauliSum::from_terms(vec![
            PauliString::new(3, vec![(0, Pauli::X)], 0.8),
            PauliString::new(3, vec![(1, Pauli::Y), (2, Pauli::Z)], -0.3),
        ])
        .matrix();
        assert_eq!(
            rho.expectation(&obs).to_bits(),
            rho.expectation_reference(&obs).to_bits()
        );
        // The diagonal sweep is pinned through expectation_pauli.
        let zz = PauliSum::from_terms(vec![PauliString::new(
            3,
            vec![(0, Pauli::Z), (1, Pauli::Z)],
            1.0,
        )]);
        assert_eq!(
            rho.expectation_pauli(&zz).to_bits(),
            rho.probabilities_reference()
                .iter()
                .enumerate()
                .map(|(b, &p)| p * zz.eval_diagonal(b))
                .sum::<f64>()
                .to_bits()
        );
    }

    #[test]
    fn sampling_respects_diagonal() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_circuit(&bell_circuit()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let counts = rho.sample(10_000, &mut rng);
        assert!(counts.count(0b01) == 0);
        assert!(counts.count(0b10) == 0);
        assert!((counts.frequency(0b00) - 0.5).abs() < 0.03);
    }
}
