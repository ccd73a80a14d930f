//! Pure-state simulation.

use rand::Rng;

use hgp_circuit::{Circuit, Gate, Instruction};
use hgp_math::pauli::PauliSum;
use hgp_math::{Complex64, Matrix};

use crate::backend::SimBackend;
use crate::counts::Counts;
use crate::kernels;

/// A pure quantum state over `n` qubits.
///
/// Amplitude `amps[b]` belongs to computational-basis state `|b>` with
/// qubit 0 as the least-significant bit.
///
/// ```
/// use hgp_sim::StateVector;
/// let psi = StateVector::zero_state(3);
/// assert_eq!(psi.n_qubits(), 3);
/// assert!((psi.probability(0) - 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros state `|0...0>`.
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(n_qubits > 0 && n_qubits <= 26, "supported width: 1..=26");
        let mut amps = vec![Complex64::ZERO; 1 << n_qubits];
        amps[0] = Complex64::ONE;
        Self { n_qubits, amps }
    }

    /// The uniform superposition `|+>^n` (QAOA's initial state).
    pub fn plus_state(n_qubits: usize) -> Self {
        assert!(n_qubits > 0 && n_qubits <= 26, "supported width: 1..=26");
        let dim = 1usize << n_qubits;
        let a = Complex64::from_re(1.0 / (dim as f64).sqrt());
        Self {
            n_qubits,
            amps: vec![a; dim],
        }
    }

    /// Builds a state from raw amplitudes (must have length `2^n` and unit
    /// norm within `1e-8`).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the norm is off.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        let dim = amps.len();
        assert!(dim.is_power_of_two() && dim >= 2, "length must be 2^n");
        let n_qubits = dim.trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-8,
            "amplitudes must be normalized (norm^2 = {norm})"
        );
        Self { n_qubits, amps }
    }

    /// Runs a bound circuit from `|0...0>`.
    ///
    /// Returns `None` if the circuit has unbound parameters. Measurements
    /// and barriers are ignored (use [`StateVector::sample`] afterwards).
    pub fn from_circuit(circuit: &Circuit) -> Option<Self> {
        let mut psi = Self::zero_state(circuit.n_qubits());
        psi.apply_circuit(circuit)?;
        Some(psi)
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The amplitude vector.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Raw amplitude access for the replay engine, which extracts one
    /// shot of a block into a reused scratch state.
    #[inline]
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Applies a bound circuit's gates in order, fusing maximal runs of
    /// consecutive diagonal gates (a QAOA cost layer is one such run)
    /// into single sweeps over the amplitudes.
    ///
    /// Returns `None` (leaving the state partially evolved) if an unbound
    /// gate is hit; callers bind first.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Option<()> {
        assert_eq!(circuit.n_qubits(), self.n_qubits, "width mismatch");
        let mut run: Vec<kernels::DiagOp> = Vec::new();
        for inst in circuit.instructions() {
            if let Instruction::Gate { gate, qubits } = inst {
                if let Some(op) = kernels::DiagOp::from_gate(gate, qubits) {
                    for &q in qubits {
                        assert!(q < self.n_qubits, "target out of range");
                    }
                    if qubits.len() == 2 {
                        assert_ne!(qubits[0], qubits[1], "targets must differ");
                    }
                    run.push(op);
                    continue;
                }
                kernels::apply_diag_fused(&mut self.amps, &run);
                run.clear();
                self.apply_gate(gate, qubits)?;
            }
        }
        kernels::apply_diag_fused(&mut self.amps, &run);
        Some(())
    }

    /// Applies one gate through the fused kernel layer: diagonal gates
    /// (`RZ`, `Z`, `S`, `T`, `CZ`, `RZZ`, ...) take the phase-only fast
    /// path, everything else the strided dense kernels.
    ///
    /// Returns `None` if the gate has unbound parameters.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Option<()> {
        for &q in qubits {
            assert!(q < self.n_qubits, "target out of range");
        }
        match qubits.len() {
            1 => {
                if let Some(d) = kernels::diagonal_1q(gate) {
                    kernels::apply_diag_1q(&mut self.amps, qubits[0], d);
                } else {
                    let m = gate.matrix()?;
                    kernels::apply_dense_1q(&mut self.amps, qubits[0], &m);
                }
            }
            2 => {
                assert_ne!(qubits[0], qubits[1], "targets must differ");
                if let Some(d) = kernels::diagonal_2q(gate) {
                    kernels::apply_diag_2q(&mut self.amps, qubits[0], qubits[1], d);
                } else {
                    let m = gate.matrix()?;
                    kernels::apply_dense_2q(&mut self.amps, qubits[0], qubits[1], &m);
                }
            }
            _ => {
                let m = gate.matrix()?;
                self.apply_operator(&m, qubits);
            }
        }
        Some(())
    }

    /// Applies a `2^k x 2^k` operator to the listed target qubits.
    ///
    /// `targets[0]` is the most-significant bit of the operator's index,
    /// matching [`hgp_math::Matrix::embed`]. 1- and 2-qubit operators use
    /// the strided kernels; larger operators fall back to the embedded
    /// matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or out-of-range/duplicate targets.
    pub fn apply_operator(&mut self, op: &Matrix, targets: &[usize]) {
        for &t in targets {
            assert!(t < self.n_qubits, "target out of range");
        }
        match targets.len() {
            1 => {
                assert_eq!(op.rows(), 2, "expected a 2x2 operator");
                kernels::apply_dense_1q(&mut self.amps, targets[0], op);
            }
            2 => {
                assert_eq!(op.rows(), 4, "expected a 4x4 operator");
                assert_ne!(targets[0], targets[1], "targets must differ");
                kernels::apply_dense_2q(&mut self.amps, targets[0], targets[1], op);
            }
            _ => {
                let full = op.embed(self.n_qubits, targets);
                self.amps = full.matvec(&self.amps);
            }
        }
    }

    fn apply_1q(&mut self, op: &Matrix, target: usize) {
        assert_eq!(op.rows(), 2, "expected a 2x2 operator");
        assert!(target < self.n_qubits, "target out of range");
        kernels::apply_dense_1q(&mut self.amps, target, op);
    }

    /// The squared norm `||K psi||^2` the state would have after applying
    /// the (not necessarily unitary) operator `op` to `targets`, without
    /// modifying the state.
    ///
    /// This is the branch weight the quantum-trajectory sampler uses to
    /// pick a Kraus branch: for a CPTP channel `{K_k}` the weights
    /// `||K_k psi||^2` sum to 1 on a normalized state.
    ///
    /// `targets[0]` is the most-significant bit of the operator's index,
    /// matching [`StateVector::apply_operator`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or out-of-range/duplicate targets.
    pub fn branch_weight(&self, op: &Matrix, targets: &[usize]) -> f64 {
        let k = targets.len();
        assert_eq!(op.rows(), 1 << k, "operator dimension mismatch");
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < self.n_qubits, "target out of range");
            assert!(!targets[..i].contains(&t), "targets must differ");
        }
        let masks: Vec<usize> = targets.iter().map(|&t| 1usize << t).collect();
        let all_mask: usize = masks.iter().sum();
        let block = 1usize << k;
        let mut idx = vec![0usize; block];
        let mut total = 0.0;
        for base in 0..self.amps.len() {
            if base & all_mask != 0 {
                continue;
            }
            // Block indices: bits of `r` map MSB-first onto targets.
            for (r, slot) in idx.iter_mut().enumerate() {
                let mut i = base;
                for (pos, &m) in masks.iter().enumerate() {
                    if (r >> (k - 1 - pos)) & 1 == 1 {
                        i |= m;
                    }
                }
                *slot = i;
            }
            for r in 0..block {
                let mut acc = Complex64::ZERO;
                for (c, &ci) in idx.iter().enumerate() {
                    // hgp-analysis: allow(d4) -- this fused chain IS the pinned
                    // reference arithmetic the parity tests fix.
                    acc = op[(r, c)].mul_add(self.amps[ci], acc);
                }
                total += acc.norm_sqr();
            }
        }
        total
    }

    /// Rescales the amplitudes to unit norm (used after applying a
    /// non-unitary Kraus branch).
    ///
    /// # Panics
    ///
    /// Panics if the state is (numerically) the zero vector.
    pub fn renormalize(&mut self) {
        let norm = self.norm_sqr().sqrt();
        assert!(norm > 1e-300, "cannot renormalize a zero state");
        let inv = 1.0 / norm;
        for a in &mut self.amps {
            *a = a.scale(inv);
        }
    }

    /// Probability of observing basis state `b`.
    #[inline]
    pub fn probability(&self, b: usize) -> f64 {
        self.amps[b].norm_sqr()
    }

    /// Full probability distribution over basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Squared norm (should be 1 up to round-off).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Inner product `<self|other>`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn inner(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.n_qubits, other.n_qubits, "width mismatch");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Fidelity `|<self|other>|^2`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Expectation value of a Hermitian observable given as a Pauli sum.
    ///
    /// Diagonal (Z-only) sums take a fast path over probabilities; general
    /// sums apply each term to a scratch copy.
    pub fn expectation(&self, observable: &PauliSum) -> f64 {
        assert_eq!(observable.n_qubits(), self.n_qubits, "width mismatch");
        if observable.is_diagonal() {
            return self
                .amps
                .iter()
                .enumerate()
                .map(|(b, a)| a.norm_sqr() * observable.eval_diagonal(b))
                .sum();
        }
        let mut total = 0.0;
        for term in observable.terms() {
            let mut phi = self.clone();
            for &(q, p) in term.factors() {
                phi.apply_1q(&p.matrix(), q);
            }
            total += term.coeff() * self.inner(&phi).re;
        }
        total
    }

    /// Samples `shots` measurement outcomes in the computational basis.
    pub fn sample<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Counts {
        Counts::sample_from_probabilities(&self.probabilities(), shots, self.n_qubits, rng)
    }
}

impl SimBackend for StateVector {
    const NAME: &'static str = "statevector";
    const SUPPORTS_CHANNELS: bool = false;

    fn init(n_qubits: usize) -> Self {
        Self::zero_state(n_qubits)
    }

    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Option<()> {
        StateVector::apply_gate(self, gate, qubits)
    }

    fn apply_unitary(&mut self, op: &Matrix, targets: &[usize]) {
        self.apply_operator(op, targets);
    }

    /// Pure states evolve only unitarily: a single Kraus operator is
    /// applied as a unitary; genuine (multi-operator) channels panic.
    fn apply_kraus(&mut self, kraus: &[Matrix], targets: &[usize]) {
        assert_eq!(
            kraus.len(),
            1,
            "statevector backend cannot apply non-unitary channels \
             (use DensityMatrix, or check SimBackend::SUPPORTS_CHANNELS)"
        );
        self.apply_operator(&kraus[0], targets);
    }

    fn probabilities(&self) -> Vec<f64> {
        StateVector::probabilities(self)
    }

    fn expectation(&self, observable: &PauliSum) -> f64 {
        StateVector::expectation(self, observable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_circuit::Circuit;
    use hgp_math::c64;
    use hgp_math::pauli::{Pauli, PauliString};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    #[test]
    fn zero_state_is_deterministic() {
        let psi = StateVector::zero_state(2);
        assert_eq!(psi.probability(0), 1.0);
        assert_eq!(psi.probability(3), 0.0);
    }

    #[test]
    fn plus_state_is_uniform() {
        let psi = StateVector::plus_state(3);
        for b in 0..8 {
            assert!((psi.probability(b) - 0.125).abs() < 1e-14);
        }
    }

    #[test]
    fn x_flips_qubit() {
        let mut qc = Circuit::new(2);
        qc.x(1);
        let psi = StateVector::from_circuit(&qc).unwrap();
        assert!((psi.probability(0b10) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        let psi = StateVector::from_circuit(&qc).unwrap();
        assert!((psi.probability(0b00) - 0.5).abs() < 1e-14);
        assert!((psi.probability(0b11) - 0.5).abs() < 1e-14);
        assert!(psi.probability(0b01) < 1e-14);
    }

    #[test]
    fn ghz_state_on_five_qubits() {
        let n = 5;
        let mut qc = Circuit::new(n);
        qc.h(0);
        for q in 1..n {
            qc.cx(q - 1, q);
        }
        let psi = StateVector::from_circuit(&qc).unwrap();
        assert!((psi.probability(0) - 0.5).abs() < 1e-12);
        assert!((psi.probability((1 << n) - 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kernels_match_embedded_matrices() {
        // Random-ish circuit checked against full-unitary evolution.
        let mut qc = Circuit::new(3);
        qc.h(0)
            .rx(1, 0.7)
            .cx(0, 2)
            .rzz(1, 2, -0.9)
            .ry(2, 1.9)
            .cx(2, 1)
            .rz(0, 0.3);
        let psi = StateVector::from_circuit(&qc).unwrap();
        let u = qc.unitary().unwrap();
        let mut expect = [Complex64::ZERO; 8];
        for r in 0..8 {
            expect[r] = u[(r, 0)];
        }
        for (a, b) in psi.amplitudes().iter().zip(expect.iter()) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn norm_is_preserved() {
        let mut qc = Circuit::new(4);
        for q in 0..4 {
            qc.h(q).rx(q, 0.3 * (q as f64 + 1.0));
        }
        qc.cx(0, 1).cx(1, 2).cx(2, 3).rzz(0, 3, 1.1);
        let psi = StateVector::from_circuit(&qc).unwrap();
        assert!((psi.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_z_after_rx() {
        // <Z> after RX(theta) on |0> is cos(theta).
        let theta = 1.1;
        let mut qc = Circuit::new(1);
        qc.rx(0, theta);
        let psi = StateVector::from_circuit(&qc).unwrap();
        let z = PauliSum::from_terms(vec![PauliString::new(1, vec![(0, Pauli::Z)], 1.0)]);
        assert!((psi.expectation(&z) - theta.cos()).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_x_on_plus_state() {
        let psi = StateVector::plus_state(1);
        let x = PauliSum::from_terms(vec![PauliString::new(1, vec![(0, Pauli::X)], 1.0)]);
        assert!((psi.expectation(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_bounds() {
        let a = StateVector::zero_state(2);
        let b = StateVector::plus_state(2);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-14);
        assert!((a.fidelity(&b) - 0.25).abs() < 1e-14);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut qc = Circuit::new(1);
        qc.rx(0, PI / 3.0); // P(1) = sin^2(pi/6) = 0.25
        let psi = StateVector::from_circuit(&qc).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let counts = psi.sample(20_000, &mut rng);
        let p1 = counts.frequency(1);
        assert!((p1 - 0.25).abs() < 0.02, "p1 = {p1}");
    }

    #[test]
    fn three_qubit_operator_falls_back_to_embed() {
        // Toffoli-like: use a 3-qubit operator built by embedding CX (x) I.
        let cx = hgp_circuit::Gate::CX.matrix().unwrap();
        let op = cx.kron(&Matrix::identity(2));
        let mut psi = StateVector::zero_state(3);
        psi.apply_1q(&hgp_circuit::Gate::X.matrix().unwrap(), 2);
        // op acts on [2,1,0]: control = qubit 2, so target flips.
        psi.apply_operator(&op, &[2, 1, 0]);
        assert!((psi.probability(0b110) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_amplitudes_validates_norm() {
        let amps = vec![c64(1.0, 0.0), c64(0.0, 0.0)];
        let psi = StateVector::from_amplitudes(amps);
        assert_eq!(psi.n_qubits(), 1);
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn unnormalized_amplitudes_panic() {
        let _ = StateVector::from_amplitudes(vec![c64(1.0, 0.0), c64(1.0, 0.0)]);
    }
}
