//! Analytic SU(2) exponentials — the single-qubit fast path.
//!
//! A single-qubit drive Hamiltonian is always of the form
//! `H = (ax X + ay Y + az Z) / something`; its propagator over a time step
//! has the closed form
//!
//! ```text
//! exp(-i (ax X + ay Y + az Z)) = cos|a| I - i sin|a| (a_hat . sigma)
//! ```
//!
//! Evaluating this directly is ~50x faster than the Jacobi eigensolver and
//! exactly unitary, which matters because the pulse simulator composes
//! thousands of these per schedule.

use crate::complex::Complex64;
use crate::matrix::Matrix;

/// Computes `exp(-i (ax X + ay Y + az Z))` analytically.
///
/// The result is always exactly unitary (up to floating-point rounding in
/// the trig calls).
///
/// ```
/// use hgp_math::su2::exp_i_pauli;
/// use hgp_math::pauli::sigma_x;
/// use std::f64::consts::FRAC_PI_2;
/// // A pi/2 X rotation: exp(-i (pi/4) X).
/// let u = exp_i_pauli(FRAC_PI_2 / 2.0, 0.0, 0.0);
/// assert!(u.is_unitary(1e-15));
/// ```
pub fn exp_i_pauli(ax: f64, ay: f64, az: f64) -> Matrix {
    Matrix::from_vec(2, 2, exp_i_pauli_entries(ax, ay, az).to_vec())
}

/// [`exp_i_pauli`]'s four entries, row-major, on the stack — for loops
/// that compose thousands of steps and must not allocate per step.
pub fn exp_i_pauli_entries(ax: f64, ay: f64, az: f64) -> [Complex64; 4] {
    let norm = (ax * ax + ay * ay + az * az).sqrt();
    if norm < 1e-300 {
        return [
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ONE,
        ];
    }
    let (c, s) = (norm.cos(), norm.sin());
    let (nx, ny, nz) = (ax / norm, ay / norm, az / norm);
    // cos I - i sin (n . sigma)
    [
        Complex64::new(c, -s * nz),
        Complex64::new(-s * ny, -s * nx),
        Complex64::new(s * ny, -s * nx),
        Complex64::new(c, s * nz),
    ]
}

/// The product `a * b` of two row-major 2x2 matrices, with
/// [`Matrix::matmul`]'s exact arithmetic: the same `mul_add`
/// accumulation order and the same skip of zero coefficients of `a`, so
/// the result is bit-identical to the heap product.
pub fn matmul_2x2(a: &[Complex64; 4], b: &[Complex64; 4]) -> [Complex64; 4] {
    let mut out = [Complex64::ZERO; 4];
    for i in 0..2 {
        for k in 0..2 {
            let coeff = a[2 * i + k];
            if coeff == Complex64::ZERO {
                continue;
            }
            for j in 0..2 {
                out[2 * i + j] = coeff.mul_add(b[2 * k + j], out[2 * i + j]);
            }
        }
    }
    out
}

/// Propagator of the rotating-frame drive Hamiltonian
/// `H = (delta/2) Z + (omega/2)(cos(phi) X + sin(phi) Y)` over time `dt`.
///
/// `delta` is the detuning (rad/time), `omega` the instantaneous Rabi rate
/// (rad/time), and `phi` the drive phase.
pub fn drive_step(delta: f64, omega: f64, phi: f64, dt: f64) -> Matrix {
    let ax = 0.5 * omega * phi.cos() * dt;
    let ay = 0.5 * omega * phi.sin() * dt;
    let az = 0.5 * delta * dt;
    exp_i_pauli(ax, ay, az)
}

/// Decomposes a 2x2 unitary into `U = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta)`
/// (ZYZ Euler angles). Returns `(alpha, beta, gamma, delta)`.
///
/// Useful for resynthesizing runs of single-qubit gates into a single `U3`.
///
/// # Panics
///
/// Panics if `u` is not 2x2.
pub fn zyz_decompose(u: &Matrix) -> (f64, f64, f64, f64) {
    assert_eq!(u.rows(), 2, "zyz_decompose requires a 2x2 matrix");
    assert_eq!(u.cols(), 2, "zyz_decompose requires a 2x2 matrix");
    let det = u[(0, 0)] * u[(1, 1)] - u[(0, 1)] * u[(1, 0)];
    let alpha = det.arg() / 2.0;
    // Remove the global phase so the remainder is in SU(2).
    let phase = Complex64::cis(-alpha);
    let a = u[(0, 0)] * phase;
    let b = u[(0, 1)] * phase;
    // SU(2): [[cos(g/2) e^{-i(b+d)/2}, -sin(g/2) e^{-i(b-d)/2}],
    //         [sin(g/2) e^{ i(b-d)/2},  cos(g/2) e^{ i(b+d)/2}]]
    let gamma = 2.0 * b.norm().atan2(a.norm());
    // With gamma in [0, pi], cos and sin of gamma/2 are non-negative, so
    // arg(a) = -(beta+delta)/2 and arg(b) = pi - (beta-delta)/2.
    let (beta, delta) = if a.norm() > 1e-12 && b.norm() > 1e-12 {
        let sum = -2.0 * a.arg(); // beta + delta
        let diff = 2.0 * std::f64::consts::PI - 2.0 * b.arg(); // beta - delta
        ((sum + diff) / 2.0, (sum - diff) / 2.0)
    } else if a.norm() > 1e-12 {
        (-2.0 * a.arg(), 0.0)
    } else {
        (2.0 * std::f64::consts::PI - 2.0 * b.arg(), 0.0)
    };
    (alpha, beta, gamma, delta)
}

/// Rebuilds the unitary from ZYZ angles, for round-trip validation.
pub fn zyz_compose(alpha: f64, beta: f64, gamma: f64, delta: f64) -> Matrix {
    // exp_i_pauli(ax, ay, az) = exp(-i (ax X + ay Y + az Z)), so
    // Rz(t) = exp(-i t Z / 2) = exp_i_pauli(0, 0, t/2) and likewise for Ry.
    let rz_b = exp_i_pauli(0.0, 0.0, beta / 2.0);
    let ry_g = exp_i_pauli(0.0, gamma / 2.0, 0.0);
    let rz_d = exp_i_pauli(0.0, 0.0, delta / 2.0);
    rz_b.matmul(&ry_g)
        .matmul(&rz_d)
        .scale(Complex64::cis(alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use crate::expm::expi_hermitian;
    use crate::pauli::{sigma_x, sigma_y, sigma_z};
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn matches_eigensolver_exponential() {
        for (ax, ay, az) in [(0.3, 0.0, 0.0), (0.0, 1.2, 0.0), (0.5, -0.7, 0.9)] {
            let h = &(&sigma_x().scale(c64(ax, 0.0)) + &sigma_y().scale(c64(ay, 0.0)))
                + &sigma_z().scale(c64(az, 0.0));
            let by_eig = expi_hermitian(&h, -1.0);
            let analytic = exp_i_pauli(ax, ay, az);
            assert!(analytic.approx_eq(&by_eig, 1e-11));
        }
    }

    #[test]
    fn zero_vector_gives_identity() {
        assert!(exp_i_pauli(0.0, 0.0, 0.0).approx_eq(&Matrix::identity(2), 1e-15));
    }

    #[test]
    fn pi_x_rotation() {
        // exp(-i (pi/2) X) = -i X.
        let u = exp_i_pauli(FRAC_PI_2, 0.0, 0.0);
        let expect = sigma_x().scale(c64(0.0, -1.0));
        assert!(u.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn drive_step_zero_amplitude_is_z_rotation() {
        let u = drive_step(2.0, 0.0, 0.0, 0.5);
        // exp(-i (delta/2) Z dt) with delta*dt = 1.
        let expect = exp_i_pauli(0.0, 0.0, 0.5);
        assert!(u.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn drive_step_phase_rotates_axis() {
        // phi = pi/2 turns an X drive into a Y drive.
        let ux = drive_step(0.0, 1.0, 0.0, 1.0);
        let uy = drive_step(0.0, 1.0, FRAC_PI_2, 1.0);
        assert!(ux.approx_eq(&exp_i_pauli(0.5, 0.0, 0.0), 1e-14));
        assert!(uy.approx_eq(&exp_i_pauli(0.0, 0.5, 0.0), 1e-14));
    }

    #[test]
    fn zyz_round_trip() {
        let cases = [
            exp_i_pauli(0.3, -0.4, 0.9),
            exp_i_pauli(PI / 3.0, 0.0, 0.0),
            exp_i_pauli(0.0, 0.0, 1.1),
            Matrix::identity(2),
            sigma_x().scale(c64(0.0, -1.0)),
        ];
        for u in cases {
            let (a, b, g, d) = zyz_decompose(&u);
            let back = zyz_compose(a, b, g, d);
            assert!(
                back.approx_eq(&u, 1e-10),
                "round trip failed:\n{u}\nvs\n{back}"
            );
        }
    }

    #[test]
    fn composition_of_steps_equals_total_rotation() {
        // Many small steps of a constant drive equal one big step.
        let n = 100;
        let mut acc = Matrix::identity(2);
        for _ in 0..n {
            acc = drive_step(0.4, 1.3, 0.2, 0.01).matmul(&acc);
        }
        let total = drive_step(0.4, 1.3, 0.2, 0.01 * n as f64);
        assert!(acc.approx_eq(&total, 1e-10));
    }
}
