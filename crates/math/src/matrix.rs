//! Dense, row-major complex matrices.
//!
//! [`Matrix`] is the workhorse container for gate unitaries, pulse
//! propagators, and density matrices. Dimensions in this workspace are small
//! (at most `2^n x 2^n` for `n <= 10` qubits), so a straightforward dense
//! representation with `O(n^3)` products is both simple and fast enough.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::complex::Complex64;

/// A dense complex matrix stored in row-major order.
///
/// ```
/// use hgp_math::{Matrix, c64};
/// let id = Matrix::identity(2);
/// let x = Matrix::from_rows(&[
///     &[c64(0.0, 0.0), c64(1.0, 0.0)],
///     &[c64(1.0, 0.0), c64(0.0, 0.0)],
/// ]);
/// assert_eq!(&x * &x, id);
/// assert!(x.is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl Matrix {
    /// Creates a zero-filled matrix of shape `rows x cols`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Self {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[&[Complex64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Self { rows, cols, data }
    }

    /// Builds a diagonal square matrix from its diagonal entries.
    pub fn from_diag(diag: &[Complex64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major storage.
    #[inline]
    pub fn into_vec(self) -> Vec<Complex64> {
        self.data
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Conjugate transpose (the adjoint, `A†`).
    pub fn adjoint(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)].conj();
            }
        }
        t
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree for matmul"
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == Complex64::ZERO {
                    continue;
                }
                let row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let dst = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (d, &b) in dst.iter_mut().zip(row.iter()) {
                    *d = a.mul_add(b, *d);
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    #[allow(clippy::needless_range_loop)] // row index drives a slice window
    pub fn matvec(&self, v: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(v.len(), self.cols, "vector length must match columns");
        let mut out = vec![Complex64::ZERO; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = Complex64::ZERO;
            for (&a, &x) in row.iter().zip(v.iter()) {
                acc = a.mul_add(x, acc);
            }
            out[i] = acc;
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == Complex64::ZERO {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> Matrix {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm `sqrt(sum |a_ij|^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry-wise modulus, used as a cheap norm bound.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.norm()).fold(0.0, f64::max)
    }

    /// Returns `true` when `self` and `other` agree entry-wise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (*a - *b).norm() <= tol)
    }

    /// Checks `A†A = I` within `tol` (entry-wise).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.adjoint().matmul(self);
        prod.approx_eq(&Matrix::identity(self.rows), tol)
    }

    /// Checks `A = A†` within `tol` (entry-wise).
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..=i {
                if (self[(i, j)] - self[(j, i)].conj()).norm() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when the two matrices are equal up to a global phase.
    ///
    /// Quantum gates are physically identical under `U -> e^{i phi} U`; this
    /// comparison finds the phase from the largest entry of `other` and
    /// rescales before comparing.
    pub fn approx_eq_up_to_phase(&self, other: &Matrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        // Find a reference entry with decent magnitude in `other`.
        let mut best = 0usize;
        let mut best_norm = 0.0;
        for (idx, z) in other.data.iter().enumerate() {
            if z.norm() > best_norm {
                best_norm = z.norm();
                best = idx;
            }
        }
        if best_norm < tol {
            return self.max_abs() < tol;
        }
        if self.data[best].norm() < tol {
            return false;
        }
        let phase = self.data[best] / other.data[best];
        let phase = phase / phase.norm();
        self.approx_eq(&other.scale(phase), tol)
    }

    /// Embeds a `2^k`-dimensional operator acting on `targets` (bit indices,
    /// 0 = least significant) into the full `2^n`-dimensional space.
    ///
    /// `targets[0]` is the *most significant* qubit of the small operator's
    /// index, matching the convention `|q_{t0} q_{t1} ... >` used by gate
    /// matrix definitions in [`hgp_circuit`](../hgp_circuit/index.html).
    ///
    /// # Panics
    ///
    /// Panics if the operator dimension does not equal `2^targets.len()`,
    /// if any target is out of range, or if targets repeat.
    pub fn embed(&self, n_qubits: usize, targets: &[usize]) -> Matrix {
        let k = targets.len();
        assert_eq!(self.rows, 1 << k, "operator dimension must be 2^k");
        assert!(self.is_square(), "operator must be square");
        for &t in targets {
            assert!(
                t < n_qubits,
                "target {t} out of range for {n_qubits} qubits"
            );
        }
        let mut seen = vec![false; n_qubits];
        for &t in targets {
            assert!(!seen[t], "duplicate target {t}");
            seen[t] = true;
        }
        let dim = 1usize << n_qubits;
        let mut out = Matrix::zeros(dim, dim);
        // Iterate over all basis states; map the bits at `targets` through
        // the small operator while every other bit stays fixed.
        for col in 0..dim {
            // Extract the small-operator column index from `col`'s bits.
            let mut small_col = 0usize;
            for (pos, &t) in targets.iter().enumerate() {
                let bit = (col >> t) & 1;
                small_col |= bit << (k - 1 - pos);
            }
            let base = col & !targets.iter().fold(0usize, |m, &t| m | (1 << t));
            for small_row in 0..(1 << k) {
                let amp = self[(small_row, small_col)];
                if amp == Complex64::ZERO {
                    continue;
                }
                let mut row = base;
                for (pos, &t) in targets.iter().enumerate() {
                    let bit = (small_row >> (k - 1 - pos)) & 1;
                    row |= bit << t;
                }
                out[(row, col)] = amp;
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows);
        assert_eq!(self.cols, rhs.cols);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows);
        assert_eq!(self.cols, rhs.cols);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(Complex64::from_re(-1.0))
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, "  ")?;
                }
                let z = self[(i, j)];
                write!(f, "{:+.4}{:+.4}i", z.re, z.im)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn x() -> Matrix {
        Matrix::from_rows(&[
            &[c64(0.0, 0.0), c64(1.0, 0.0)],
            &[c64(1.0, 0.0), c64(0.0, 0.0)],
        ])
    }

    fn z() -> Matrix {
        Matrix::from_diag(&[c64(1.0, 0.0), c64(-1.0, 0.0)])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_rows(&[
            &[c64(1.0, 2.0), c64(-0.5, 0.0)],
            &[c64(0.0, -1.0), c64(3.0, 0.25)],
        ]);
        let id = Matrix::identity(2);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn xz_anticommute() {
        let xz = x().matmul(&z());
        let zx = z().matmul(&x());
        assert!(xz.approx_eq(&zx.scale(c64(-1.0, 0.0)), 1e-15));
    }

    #[test]
    fn adjoint_reverses_products() {
        let a = x();
        let b = Matrix::from_rows(&[
            &[c64(0.0, 1.0), c64(1.0, 0.0)],
            &[c64(-1.0, 0.0), c64(0.0, -1.0)],
        ]);
        let lhs = a.matmul(&b).adjoint();
        let rhs = b.adjoint().matmul(&a.adjoint());
        assert!(lhs.approx_eq(&rhs, 1e-14));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let k = x().kron(&z());
        assert_eq!(k.rows(), 4);
        // X (x) Z = [[0, Z], [Z, 0]]
        assert_eq!(k[(0, 2)], c64(1.0, 0.0));
        assert_eq!(k[(1, 3)], c64(-1.0, 0.0));
        assert_eq!(k[(2, 0)], c64(1.0, 0.0));
        assert_eq!(k[(3, 1)], c64(-1.0, 0.0));
        assert_eq!(k[(0, 0)], Complex64::ZERO);
    }

    #[test]
    fn kron_of_unitaries_is_unitary() {
        let k = x().kron(&z());
        assert!(k.is_unitary(1e-14));
    }

    #[test]
    fn trace_of_pauli_is_zero() {
        assert_eq!(x().trace(), Complex64::ZERO);
        assert_eq!(z().trace(), Complex64::ZERO);
        assert_eq!(Matrix::identity(4).trace(), c64(4.0, 0.0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[
            &[c64(1.0, 0.0), c64(0.0, 1.0)],
            &[c64(2.0, -1.0), c64(0.5, 0.5)],
        ]);
        let v = vec![c64(1.0, 1.0), c64(-2.0, 0.0)];
        let col = Matrix::from_vec(2, 1, v.clone());
        let by_matmul = a.matmul(&col);
        let by_matvec = a.matvec(&v);
        assert_eq!(by_matmul[(0, 0)], by_matvec[0]);
        assert_eq!(by_matmul[(1, 0)], by_matvec[1]);
    }

    #[test]
    fn hermitian_check() {
        let h = Matrix::from_rows(&[
            &[c64(1.0, 0.0), c64(0.0, -1.0)],
            &[c64(0.0, 1.0), c64(2.0, 0.0)],
        ]);
        assert!(h.is_hermitian(1e-15));
        assert!(!x().matmul(&z()).is_hermitian(1e-15));
    }

    #[test]
    fn embed_single_qubit_on_lsb() {
        // X on qubit 0 of 2 qubits: maps |00> -> |01>, i.e. column 0 has a 1
        // in row 1 (bit 0 flipped).
        let full = x().embed(2, &[0]);
        assert_eq!(full[(1, 0)], c64(1.0, 0.0));
        assert_eq!(full[(0, 1)], c64(1.0, 0.0));
        assert_eq!(full[(3, 2)], c64(1.0, 0.0));
        assert!(full.is_unitary(1e-14));
    }

    #[test]
    fn embed_matches_kron_ordering() {
        // Embedding X on qubit 1 (of 2, little-endian) equals X (x) I with
        // the convention state index = q1 q0.
        let full = x().embed(2, &[1]);
        let expect = x().kron(&Matrix::identity(2));
        assert!(full.approx_eq(&expect, 1e-15));
    }

    #[test]
    fn embed_two_qubit_cnot() {
        // CNOT with control=1, target=0 in little-endian: |q1 q0>.
        let cnot = Matrix::from_rows(&[
            &[c64(1.0, 0.0), c64(0.0, 0.0), c64(0.0, 0.0), c64(0.0, 0.0)],
            &[c64(0.0, 0.0), c64(1.0, 0.0), c64(0.0, 0.0), c64(0.0, 0.0)],
            &[c64(0.0, 0.0), c64(0.0, 0.0), c64(0.0, 0.0), c64(1.0, 0.0)],
            &[c64(0.0, 0.0), c64(0.0, 0.0), c64(1.0, 0.0), c64(0.0, 0.0)],
        ]);
        let full = cnot.embed(2, &[1, 0]);
        assert!(full.approx_eq(&cnot, 1e-15));
    }

    #[test]
    fn phase_insensitive_comparison() {
        let a = x();
        let b = x().scale(Complex64::cis(0.7));
        assert!(b.approx_eq_up_to_phase(&a, 1e-12));
        assert!(!z().approx_eq_up_to_phase(&a, 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
