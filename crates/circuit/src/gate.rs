//! The gate set and its unitary matrices.
//!
//! Two-qubit gate matrices are written in the basis `|q_a q_b>` where `q_a`
//! (the first operand) is the most-significant bit — the same convention
//! [`hgp_math::Matrix::embed`] expects for its `targets` slice.

use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

use hgp_math::{c64, Complex64, Matrix};

use crate::param::Param;

/// A quantum gate, possibly parametrized.
///
/// ```
/// use hgp_circuit::Gate;
/// let h = Gate::H;
/// assert!(h.matrix().expect("bound").is_unitary(1e-12));
/// assert_eq!(Gate::CX.n_qubits(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (explicit idle).
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `diag(1, i)`.
    S,
    /// Inverse phase gate `diag(1, -i)`.
    Sdg,
    /// T gate `diag(1, e^{i pi/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// Square root of X (the native IBM basis 1q pulse gate).
    SX,
    /// Rotation about X: `exp(-i theta X / 2)`.
    Rx(Param),
    /// Rotation about Y: `exp(-i theta Y / 2)`.
    Ry(Param),
    /// Rotation about Z: `exp(-i theta Z / 2)` (virtual, zero duration).
    Rz(Param),
    /// General single-qubit gate `U3(theta, phi, lambda)`.
    U3(Param, Param, Param),
    /// Controlled-X; operand order is `(control, target)`.
    CX,
    /// Controlled-Z (symmetric).
    CZ,
    /// SWAP.
    Swap,
    /// Two-qubit ZZ interaction `exp(-i theta Z(x)Z / 2)`.
    Rzz(Param),
    /// Cross-resonance rotation `exp(-i theta Z(x)X / 2)`; operand order is
    /// `(control, target)`. The hardware-native two-qubit interaction.
    Rzx(Param),
}

impl Gate {
    /// Number of qubits the gate acts on.
    pub fn n_qubits(&self) -> usize {
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::SX
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::U3(..) => 1,
            Gate::CX | Gate::CZ | Gate::Swap | Gate::Rzz(_) | Gate::Rzx(_) => 2,
        }
    }

    /// The gate's parameters (empty for non-parametrized gates).
    pub fn params(&self) -> Vec<Param> {
        match *self {
            Gate::Rx(p) | Gate::Ry(p) | Gate::Rz(p) | Gate::Rzz(p) | Gate::Rzx(p) => vec![p],
            Gate::U3(t, p, l) => vec![t, p, l],
            _ => Vec::new(),
        }
    }

    /// Whether every parameter of the gate is bound.
    pub fn is_bound(&self) -> bool {
        self.params().iter().all(Param::is_bound)
    }

    /// Returns a copy with free parameters bound against `params`.
    pub fn bind(&self, params: &[f64]) -> Gate {
        match *self {
            Gate::Rx(p) => Gate::Rx(p.bind(params)),
            Gate::Ry(p) => Gate::Ry(p.bind(params)),
            Gate::Rz(p) => Gate::Rz(p.bind(params)),
            Gate::Rzz(p) => Gate::Rzz(p.bind(params)),
            Gate::Rzx(p) => Gate::Rzx(p.bind(params)),
            Gate::U3(t, p, l) => Gate::U3(t.bind(params), p.bind(params), l.bind(params)),
            g => g,
        }
    }

    /// The unitary matrix, if all parameters are bound.
    ///
    /// Returns `None` when the gate still contains free parameters.
    pub fn matrix(&self) -> Option<Matrix> {
        self.matrix_with(&[])
    }

    /// The unitary matrix, evaluating free parameters against `params`.
    ///
    /// Returns `None` only when a free parameter's id is out of range of
    /// `params`.
    pub fn matrix_with(&self, params: &[f64]) -> Option<Matrix> {
        let eval = |p: &Param| -> Option<f64> {
            match *p {
                Param::Bound(v) => Some(v),
                Param::Free { id, scale, offset } => params.get(id.0).map(|&v| scale * v + offset),
            }
        };
        let m = match self {
            Gate::I => Matrix::identity(2),
            Gate::X => Matrix::from_rows(&[
                &[Complex64::ZERO, Complex64::ONE],
                &[Complex64::ONE, Complex64::ZERO],
            ]),
            Gate::Y => Matrix::from_rows(&[
                &[Complex64::ZERO, c64(0.0, -1.0)],
                &[Complex64::I, Complex64::ZERO],
            ]),
            Gate::Z => Matrix::from_diag(&[Complex64::ONE, c64(-1.0, 0.0)]),
            Gate::H => Matrix::from_rows(&[
                &[c64(FRAC_1_SQRT_2, 0.0), c64(FRAC_1_SQRT_2, 0.0)],
                &[c64(FRAC_1_SQRT_2, 0.0), c64(-FRAC_1_SQRT_2, 0.0)],
            ]),
            Gate::S => Matrix::from_diag(&[Complex64::ONE, Complex64::I]),
            Gate::Sdg => Matrix::from_diag(&[Complex64::ONE, c64(0.0, -1.0)]),
            Gate::T => {
                Matrix::from_diag(&[Complex64::ONE, Complex64::cis(std::f64::consts::FRAC_PI_4)])
            }
            Gate::Tdg => {
                Matrix::from_diag(&[Complex64::ONE, Complex64::cis(-std::f64::consts::FRAC_PI_4)])
            }
            Gate::SX => Matrix::from_rows(&[
                &[c64(0.5, 0.5), c64(0.5, -0.5)],
                &[c64(0.5, -0.5), c64(0.5, 0.5)],
            ]),
            Gate::Rx(p) => {
                let t = eval(p)? / 2.0;
                Matrix::from_rows(&[
                    &[c64(t.cos(), 0.0), c64(0.0, -t.sin())],
                    &[c64(0.0, -t.sin()), c64(t.cos(), 0.0)],
                ])
            }
            Gate::Ry(p) => {
                let t = eval(p)? / 2.0;
                Matrix::from_rows(&[
                    &[c64(t.cos(), 0.0), c64(-t.sin(), 0.0)],
                    &[c64(t.sin(), 0.0), c64(t.cos(), 0.0)],
                ])
            }
            Gate::Rz(p) => {
                let t = eval(p)? / 2.0;
                Matrix::from_diag(&[Complex64::cis(-t), Complex64::cis(t)])
            }
            Gate::U3(theta, phi, lam) => {
                let t = eval(theta)? / 2.0;
                let p = eval(phi)?;
                let l = eval(lam)?;
                Matrix::from_rows(&[
                    &[c64(t.cos(), 0.0), Complex64::cis(l).scale(-t.sin())],
                    &[
                        Complex64::cis(p).scale(t.sin()),
                        Complex64::cis(p + l).scale(t.cos()),
                    ],
                ])
            }
            Gate::CX => Matrix::from_rows(&[
                &[
                    Complex64::ONE,
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                ],
                &[
                    Complex64::ZERO,
                    Complex64::ONE,
                    Complex64::ZERO,
                    Complex64::ZERO,
                ],
                &[
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ONE,
                ],
                &[
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ONE,
                    Complex64::ZERO,
                ],
            ]),
            Gate::CZ => Matrix::from_diag(&[
                Complex64::ONE,
                Complex64::ONE,
                Complex64::ONE,
                c64(-1.0, 0.0),
            ]),
            Gate::Swap => Matrix::from_rows(&[
                &[
                    Complex64::ONE,
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                ],
                &[
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ONE,
                    Complex64::ZERO,
                ],
                &[
                    Complex64::ZERO,
                    Complex64::ONE,
                    Complex64::ZERO,
                    Complex64::ZERO,
                ],
                &[
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::ONE,
                ],
            ]),
            Gate::Rzz(p) => {
                let t = eval(p)? / 2.0;
                Matrix::from_diag(&[
                    Complex64::cis(-t),
                    Complex64::cis(t),
                    Complex64::cis(t),
                    Complex64::cis(-t),
                ])
            }
            Gate::Rzx(p) => {
                // exp(-i t/2 Z(x)X) with the first operand (MSB) carrying Z.
                let t = eval(p)? / 2.0;
                let (c, s) = (t.cos(), t.sin());
                Matrix::from_rows(&[
                    &[c64(c, 0.0), c64(0.0, -s), Complex64::ZERO, Complex64::ZERO],
                    &[c64(0.0, -s), c64(c, 0.0), Complex64::ZERO, Complex64::ZERO],
                    &[Complex64::ZERO, Complex64::ZERO, c64(c, 0.0), c64(0.0, s)],
                    &[Complex64::ZERO, Complex64::ZERO, c64(0.0, s), c64(c, 0.0)],
                ])
            }
        };
        Some(m)
    }

    /// The inverse gate, when it exists in the gate set.
    pub fn inverse(&self) -> Option<Gate> {
        Some(match *self {
            Gate::I => Gate::I,
            Gate::X => Gate::X,
            Gate::Y => Gate::Y,
            Gate::Z => Gate::Z,
            Gate::H => Gate::H,
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::SX => return None, // SXdg is not in the set
            Gate::Rx(p) => Gate::Rx(p.scaled(-1.0)),
            Gate::Ry(p) => Gate::Ry(p.scaled(-1.0)),
            Gate::Rz(p) => Gate::Rz(p.scaled(-1.0)),
            Gate::U3(..) => return None,
            Gate::CX => Gate::CX,
            Gate::CZ => Gate::CZ,
            Gate::Swap => Gate::Swap,
            Gate::Rzz(p) => Gate::Rzz(p.scaled(-1.0)),
            Gate::Rzx(p) => Gate::Rzx(p.scaled(-1.0)),
        })
    }

    /// Whether the gate is self-inverse (used by gate cancellation).
    pub fn is_self_inverse(&self) -> bool {
        matches!(
            self,
            Gate::I | Gate::X | Gate::Y | Gate::Z | Gate::H | Gate::CX | Gate::CZ | Gate::Swap
        )
    }

    /// Whether the gate is diagonal in the computational basis.
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz(_)
                | Gate::CZ
                | Gate::Rzz(_)
        )
    }

    /// Lower-case mnemonic, matching OpenQASM where applicable.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::SX => "sx",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::U3(..) => "u3",
            Gate::CX => "cx",
            Gate::CZ => "cz",
            Gate::Swap => "swap",
            Gate::Rzz(_) => "rzz",
            Gate::Rzx(_) => "rzx",
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            write!(f, "{}(", self.name())?;
            for (i, p) in params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamId;
    use std::f64::consts::PI;

    #[test]
    fn all_fixed_gates_are_unitary() {
        let gates = [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::SX,
            Gate::CX,
            Gate::CZ,
            Gate::Swap,
        ];
        for g in gates {
            let m = g.matrix().expect("bound");
            assert!(m.is_unitary(1e-12), "{g} not unitary");
            assert_eq!(m.rows(), 1 << g.n_qubits());
        }
    }

    #[test]
    fn parametrized_gates_are_unitary() {
        for theta in [-2.0, 0.0, 0.5, PI, 7.2] {
            for g in [
                Gate::Rx(Param::bound(theta)),
                Gate::Ry(Param::bound(theta)),
                Gate::Rz(Param::bound(theta)),
                Gate::Rzz(Param::bound(theta)),
                Gate::Rzx(Param::bound(theta)),
                Gate::U3(Param::bound(theta), Param::bound(0.3), Param::bound(-1.1)),
            ] {
                assert!(g.matrix().expect("bound").is_unitary(1e-12), "{g}");
            }
        }
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = Gate::SX.matrix().unwrap();
        let x = Gate::X.matrix().unwrap();
        assert!(sx.matmul(&sx).approx_eq(&x, 1e-12));
    }

    #[test]
    fn rx_pi_is_x_up_to_phase() {
        let rx = Gate::Rx(Param::bound(PI)).matrix().unwrap();
        let x = Gate::X.matrix().unwrap();
        assert!(rx.approx_eq_up_to_phase(&x, 1e-12));
    }

    #[test]
    fn u3_special_cases() {
        // U3(theta, -pi/2, pi/2) = RX(theta).
        let theta = 0.77;
        let u3 = Gate::U3(
            Param::bound(theta),
            Param::bound(-PI / 2.0),
            Param::bound(PI / 2.0),
        )
        .matrix()
        .unwrap();
        let rx = Gate::Rx(Param::bound(theta)).matrix().unwrap();
        assert!(u3.approx_eq_up_to_phase(&rx, 1e-12));
    }

    #[test]
    fn hadamard_conjugates_x_to_z() {
        let h = Gate::H.matrix().unwrap();
        let x = Gate::X.matrix().unwrap();
        let z = Gate::Z.matrix().unwrap();
        assert!(h.matmul(&x).matmul(&h).approx_eq(&z, 1e-12));
    }

    #[test]
    fn rzz_from_cx_rz_cx() {
        // RZZ(t) = CX * (I (x) RZ(t)) * CX with control as MSB.
        let t = 1.3;
        let cx = Gate::CX.matrix().unwrap();
        let rz = Gate::Rz(Param::bound(t)).matrix().unwrap();
        let irz = Matrix::identity(2).kron(&rz);
        let composed = cx.matmul(&irz).matmul(&cx);
        let rzz = Gate::Rzz(Param::bound(t)).matrix().unwrap();
        assert!(composed.approx_eq(&rzz, 1e-12));
    }

    #[test]
    fn rzx_is_generated_by_zx() {
        use hgp_math::expm::expi_hermitian;
        use hgp_math::pauli::{sigma_x, sigma_z};
        let t = 0.9;
        let zx = sigma_z().kron(&sigma_x());
        let expect = expi_hermitian(&zx, -t / 2.0);
        let got = Gate::Rzx(Param::bound(t)).matrix().unwrap();
        assert!(got.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn inverse_gates_compose_to_identity() {
        let gates = [
            Gate::S,
            Gate::T,
            Gate::Rx(Param::bound(0.4)),
            Gate::Rzz(Param::bound(-1.2)),
            Gate::CX,
        ];
        for g in gates {
            let inv = g.inverse().expect("has inverse");
            let prod = g.matrix().unwrap().matmul(&inv.matrix().unwrap());
            assert!(
                prod.approx_eq(&Matrix::identity(prod.rows()), 1e-12),
                "{g} inverse failed"
            );
        }
    }

    #[test]
    fn binding_free_parameters() {
        let g = Gate::Rx(Param::free(ParamId(0)).scaled(2.0));
        assert!(!g.is_bound());
        let bound = g.bind(&[0.5]);
        assert!(bound.is_bound());
        let m = bound.matrix().unwrap();
        let expect = Gate::Rx(Param::bound(1.0)).matrix().unwrap();
        assert!(m.approx_eq(&expect, 1e-15));
    }

    #[test]
    fn matrix_with_evaluates_free_params() {
        let g = Gate::Rz(Param::free(ParamId(1)));
        assert!(g.matrix().is_none());
        let m = g.matrix_with(&[0.0, 0.8]).unwrap();
        let expect = Gate::Rz(Param::bound(0.8)).matrix().unwrap();
        assert!(m.approx_eq(&expect, 1e-15));
    }

    #[test]
    fn diagonal_classification() {
        assert!(Gate::Rz(Param::bound(0.3)).is_diagonal());
        assert!(Gate::Rzz(Param::bound(0.3)).is_diagonal());
        assert!(Gate::CZ.is_diagonal());
        assert!(!Gate::Rx(Param::bound(0.3)).is_diagonal());
        assert!(!Gate::CX.is_diagonal());
    }
}
