//! Pauli matrices and Pauli-string operators.
//!
//! Pauli strings are the natural language for QAOA cost Hamiltonians
//! (`H_P = sum_{(i,j)} w_ij Z_i Z_j`) and for the drive/cross-resonance
//! Hamiltonians of the pulse simulator.

use std::fmt;

use crate::c64;
use crate::matrix::Matrix;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl Pauli {
    /// The 2x2 matrix of this Pauli operator.
    pub fn matrix(self) -> Matrix {
        match self {
            Pauli::I => Matrix::identity(2),
            Pauli::X => sigma_x(),
            Pauli::Y => sigma_y(),
            Pauli::Z => sigma_z(),
        }
    }

    /// Parses a Pauli from its letter.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the offending character if it is not one of
    /// `I`, `X`, `Y`, `Z` (case-insensitive).
    pub fn from_char(c: char) -> Result<Self, char> {
        match c.to_ascii_uppercase() {
            'I' => Ok(Pauli::I),
            'X' => Ok(Pauli::X),
            'Y' => Ok(Pauli::Y),
            'Z' => Ok(Pauli::Z),
            other => Err(other),
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// The Pauli-X matrix.
pub fn sigma_x() -> Matrix {
    Matrix::from_rows(&[
        &[c64(0.0, 0.0), c64(1.0, 0.0)],
        &[c64(1.0, 0.0), c64(0.0, 0.0)],
    ])
}

/// The Pauli-Y matrix.
pub fn sigma_y() -> Matrix {
    Matrix::from_rows(&[
        &[c64(0.0, 0.0), c64(0.0, -1.0)],
        &[c64(0.0, 1.0), c64(0.0, 0.0)],
    ])
}

/// The Pauli-Z matrix.
pub fn sigma_z() -> Matrix {
    Matrix::from_rows(&[
        &[c64(1.0, 0.0), c64(0.0, 0.0)],
        &[c64(0.0, 0.0), c64(-1.0, 0.0)],
    ])
}

/// A weighted Pauli string acting on `n` qubits, e.g. `0.5 * Z_0 Z_3`.
///
/// Qubit `0` is the least-significant bit of computational-basis indices,
/// matching the simulator convention.
///
/// ```
/// use hgp_math::pauli::{Pauli, PauliString};
/// let zz = PauliString::new(2, vec![(0, Pauli::Z), (1, Pauli::Z)], 1.0);
/// let m = zz.matrix();
/// // ZZ is diagonal with +1 on aligned, -1 on anti-aligned states.
/// assert_eq!(m[(0, 0)].re, 1.0);
/// assert_eq!(m[(1, 1)].re, -1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PauliString {
    n_qubits: usize,
    /// Non-identity factors, sorted by qubit index.
    factors: Vec<(usize, Pauli)>,
    /// Real coefficient.
    coeff: f64,
}

impl PauliString {
    /// Creates a weighted Pauli string.
    ///
    /// Identity factors are dropped; the rest are sorted by qubit.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range or repeated.
    pub fn new(n_qubits: usize, factors: Vec<(usize, Pauli)>, coeff: f64) -> Self {
        let mut kept: Vec<(usize, Pauli)> = factors
            .into_iter()
            .filter(|(_, p)| *p != Pauli::I)
            .collect();
        kept.sort_by_key(|&(q, _)| q);
        for w in kept.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "duplicate qubit {} in Pauli string",
                w[0].0
            );
        }
        if let Some(&(q, _)) = kept.last() {
            assert!(q < n_qubits, "qubit {q} out of range for {n_qubits} qubits");
        }
        Self {
            n_qubits,
            factors: kept,
            coeff,
        }
    }

    /// The identity string with a coefficient (an energy offset).
    pub fn identity(n_qubits: usize, coeff: f64) -> Self {
        Self {
            n_qubits,
            factors: Vec::new(),
            coeff,
        }
    }

    /// Number of qubits the string is defined on.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The real coefficient.
    #[inline]
    pub fn coeff(&self) -> f64 {
        self.coeff
    }

    /// Non-identity factors, sorted by qubit index.
    #[inline]
    pub fn factors(&self) -> &[(usize, Pauli)] {
        &self.factors
    }

    /// Dense matrix representation (dimension `2^n`).
    pub fn matrix(&self) -> Matrix {
        let dim = 1usize << self.n_qubits;
        let mut m = Matrix::identity(dim).scale(c64(self.coeff, 0.0));
        for &(q, p) in &self.factors {
            m = m.matmul(&p.matrix().embed(self.n_qubits, &[q]));
        }
        m
    }

    /// Evaluates the string's eigenvalue (times the coefficient) on a
    /// computational-basis state, assuming the string is diagonal
    /// (contains only `Z` factors).
    ///
    /// # Panics
    ///
    /// Panics if the string contains an `X` or `Y` factor.
    pub fn eval_diagonal(&self, basis_state: usize) -> f64 {
        let mut sign = 1.0;
        for &(q, p) in &self.factors {
            assert_eq!(p, Pauli::Z, "eval_diagonal requires a Z-only string");
            if (basis_state >> q) & 1 == 1 {
                sign = -sign;
            }
        }
        self.coeff * sign
    }

    /// Whether the string contains only `Z` (and implicit `I`) factors.
    pub fn is_diagonal(&self) -> bool {
        self.factors.iter().all(|&(_, p)| p == Pauli::Z)
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+}", self.coeff)?;
        for &(q, p) in &self.factors {
            write!(f, " {p}{q}")?;
        }
        Ok(())
    }
}

/// A real-weighted sum of Pauli strings (an observable / Hamiltonian).
///
/// ```
/// use hgp_math::pauli::{Pauli, PauliString, PauliSum};
/// // Max-Cut cost for a single edge (0,1): 0.5 * (1 - Z0 Z1).
/// let h = PauliSum::from_terms(vec![
///     PauliString::identity(2, 0.5),
///     PauliString::new(2, vec![(0, Pauli::Z), (1, Pauli::Z)], -0.5),
/// ]);
/// assert_eq!(h.eval_diagonal(0b01), 1.0); // cut edge
/// assert_eq!(h.eval_diagonal(0b00), 0.0); // uncut edge
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PauliSum {
    terms: Vec<PauliString>,
}

impl PauliSum {
    /// Builds a sum from its terms.
    ///
    /// # Panics
    ///
    /// Panics if terms act on differing qubit counts.
    pub fn from_terms(terms: Vec<PauliString>) -> Self {
        if let Some(first) = terms.first() {
            let n = first.n_qubits();
            assert!(
                terms.iter().all(|t| t.n_qubits() == n),
                "all terms must act on the same number of qubits"
            );
        }
        Self { terms }
    }

    /// The individual Pauli-string terms.
    #[inline]
    pub fn terms(&self) -> &[PauliString] {
        &self.terms
    }

    /// Number of qubits (0 if the sum is empty).
    pub fn n_qubits(&self) -> usize {
        self.terms.first().map_or(0, PauliString::n_qubits)
    }

    /// Dense matrix representation.
    ///
    /// # Panics
    ///
    /// Panics if the sum is empty.
    pub fn matrix(&self) -> Matrix {
        let n = self.n_qubits();
        assert!(!self.terms.is_empty(), "cannot materialize an empty sum");
        let mut acc = Matrix::zeros(1 << n, 1 << n);
        for t in &self.terms {
            acc = &acc + &t.matrix();
        }
        acc
    }

    /// Evaluates a diagonal (Z-only) observable on a basis state.
    ///
    /// # Panics
    ///
    /// Panics if any term contains an `X`/`Y` factor.
    pub fn eval_diagonal(&self, basis_state: usize) -> f64 {
        self.terms
            .iter()
            .map(|t| t.eval_diagonal(basis_state))
            .sum()
    }

    /// Whether every term is diagonal.
    pub fn is_diagonal(&self) -> bool {
        self.terms.iter().all(PauliString::is_diagonal)
    }
}

impl FromIterator<PauliString> for PauliSum {
    fn from_iter<I: IntoIterator<Item = PauliString>>(iter: I) -> Self {
        Self::from_terms(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_matrices_are_involutions() {
        for p in [Pauli::X, Pauli::Y, Pauli::Z] {
            let m = p.matrix();
            assert!(m.matmul(&m).approx_eq(&Matrix::identity(2), 1e-15));
            assert!(m.is_hermitian(1e-15));
            assert!(m.is_unitary(1e-15));
        }
    }

    #[test]
    fn xyz_cyclic_product() {
        // X Y = i Z
        let xy = sigma_x().matmul(&sigma_y());
        let iz = sigma_z().scale(c64(0.0, 1.0));
        assert!(xy.approx_eq(&iz, 1e-15));
    }

    #[test]
    fn from_char_round_trip() {
        for (c, p) in [
            ('I', Pauli::I),
            ('x', Pauli::X),
            ('Y', Pauli::Y),
            ('z', Pauli::Z),
        ] {
            assert_eq!(Pauli::from_char(c).unwrap(), p);
        }
        assert_eq!(Pauli::from_char('q'), Err('Q'));
    }

    #[test]
    fn string_drops_identity_factors() {
        let s = PauliString::new(3, vec![(1, Pauli::I), (0, Pauli::Z)], 2.0);
        assert_eq!(s.factors().len(), 1);
        assert_eq!(s.factors()[0], (0, Pauli::Z));
    }

    #[test]
    fn zz_eigenvalues() {
        let zz = PauliString::new(2, vec![(0, Pauli::Z), (1, Pauli::Z)], 1.0);
        assert_eq!(zz.eval_diagonal(0b00), 1.0);
        assert_eq!(zz.eval_diagonal(0b01), -1.0);
        assert_eq!(zz.eval_diagonal(0b10), -1.0);
        assert_eq!(zz.eval_diagonal(0b11), 1.0);
    }

    #[test]
    fn string_matrix_matches_diagonal_eval() {
        let s = PauliString::new(3, vec![(0, Pauli::Z), (2, Pauli::Z)], -0.75);
        let m = s.matrix();
        for b in 0..8 {
            assert!((m[(b, b)].re - s.eval_diagonal(b)).abs() < 1e-14);
        }
    }

    #[test]
    fn sum_eval_matches_matrix_diagonal() {
        let h = PauliSum::from_terms(vec![
            PauliString::identity(2, 1.0),
            PauliString::new(2, vec![(0, Pauli::Z)], 0.5),
            PauliString::new(2, vec![(0, Pauli::Z), (1, Pauli::Z)], -0.25),
        ]);
        let m = h.matrix();
        for b in 0..4 {
            assert!((m[(b, b)].re - h.eval_diagonal(b)).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn duplicate_qubit_panics() {
        let _ = PauliString::new(2, vec![(0, Pauli::Z), (0, Pauli::X)], 1.0);
    }

    #[test]
    fn display_is_readable() {
        let s = PauliString::new(4, vec![(3, Pauli::X), (1, Pauli::Z)], -0.5);
        assert_eq!(s.to_string(), "-0.5 Z1 X3");
    }
}
