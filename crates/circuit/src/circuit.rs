//! The [`Circuit`] container: an ordered list of instructions over `n`
//! qubits with builder helpers, parameter binding, and direct unitary
//! construction for small circuits.

use std::fmt;

use hgp_math::fnv::Fnv1a;
use hgp_math::Matrix;

use crate::gate::Gate;
use crate::param::{Param, ParamId};

/// One step of a circuit: a gate application, barrier, or measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// A gate applied to the listed qubits (operand order matters for
    /// directed gates such as [`Gate::CX`]).
    Gate {
        /// The gate.
        gate: Gate,
        /// Operand qubits; length must equal `gate.n_qubits()`.
        qubits: Vec<usize>,
    },
    /// A scheduling barrier across the listed qubits (all qubits if empty).
    Barrier {
        /// Qubits the barrier spans.
        qubits: Vec<usize>,
    },
    /// Measurement of one qubit into a classical bit.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        cbit: usize,
    },
}

impl Instruction {
    /// Qubits touched by this instruction.
    pub fn qubits(&self) -> &[usize] {
        match self {
            Instruction::Gate { qubits, .. } | Instruction::Barrier { qubits } => qubits,
            Instruction::Measure { qubit, .. } => std::slice::from_ref(qubit),
        }
    }

    /// The gate, if this is a gate instruction.
    pub fn gate(&self) -> Option<&Gate> {
        match self {
            Instruction::Gate { gate, .. } => Some(gate),
            _ => None,
        }
    }
}

/// A gate-level quantum circuit.
///
/// ```
/// use hgp_circuit::Circuit;
/// use std::f64::consts::PI;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1).measure_all();
/// assert_eq!(bell.n_qubits(), 2);
/// assert_eq!(bell.count_gates(), 2);
///
/// // Parametrized: one free parameter driving two rotations.
/// let mut var = Circuit::new(2);
/// let beta = var.add_param();
/// var.rx_param(0, beta, 2.0).rx_param(1, beta, 2.0);
/// let bound = var.bind(&[PI / 4.0]);
/// assert!(bound.is_bound());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    n_params: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "circuit must have at least one qubit");
        Self {
            n_qubits,
            n_params: 0,
            instructions: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of free parameters declared via [`Circuit::add_param`].
    #[inline]
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// The instruction list.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Mutable access for passes that rewrite instructions in place.
    #[inline]
    pub fn instructions_mut(&mut self) -> &mut Vec<Instruction> {
        &mut self.instructions
    }

    /// Declares a new free parameter and returns its id.
    pub fn add_param(&mut self) -> ParamId {
        let id = ParamId(self.n_params);
        self.n_params += 1;
        id
    }

    /// Declares `n` free parameters, returning their ids.
    pub fn add_params(&mut self, n: usize) -> Vec<ParamId> {
        (0..n).map(|_| self.add_param()).collect()
    }

    /// Appends a gate instruction.
    ///
    /// # Panics
    ///
    /// Panics if the operand count mismatches the gate arity, a qubit is
    /// out of range, or operands repeat.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        assert_eq!(
            qubits.len(),
            gate.n_qubits(),
            "gate {gate} expects {} operand(s)",
            gate.n_qubits()
        );
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        if qubits.len() == 2 {
            assert_ne!(qubits[0], qubits[1], "two-qubit gate operands must differ");
        }
        self.instructions.push(Instruction::Gate {
            gate,
            qubits: qubits.to_vec(),
        });
        self
    }

    /// Appends a barrier over all qubits.
    pub fn barrier(&mut self) -> &mut Self {
        self.instructions.push(Instruction::Barrier {
            qubits: (0..self.n_qubits).collect(),
        });
        self
    }

    /// Appends measurement of every qubit into the same-numbered bit.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.n_qubits {
            self.instructions
                .push(Instruction::Measure { qubit: q, cbit: q });
        }
        self
    }

    // --- builder helpers -------------------------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H, &[q])
    }

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X, &[q])
    }

    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y, &[q])
    }

    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z, &[q])
    }

    /// Square-root-of-X on `q`.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.push(Gate::SX, &[q])
    }

    /// `RX(theta)` on `q` with a bound angle.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx(Param::bound(theta)), &[q])
    }

    /// `RY(theta)` on `q` with a bound angle.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Ry(Param::bound(theta)), &[q])
    }

    /// `RZ(theta)` on `q` with a bound angle.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz(Param::bound(theta)), &[q])
    }

    /// `RX(scale * p)` on `q` driven by free parameter `p`.
    pub fn rx_param(&mut self, q: usize, p: ParamId, scale: f64) -> &mut Self {
        self.push(Gate::Rx(Param::free(p).scaled(scale)), &[q])
    }

    /// `RZ(scale * p)` on `q` driven by free parameter `p`.
    pub fn rz_param(&mut self, q: usize, p: ParamId, scale: f64) -> &mut Self {
        self.push(Gate::Rz(Param::free(p).scaled(scale)), &[q])
    }

    /// CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::CX, &[control, target])
    }

    /// Controlled-Z between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::CZ, &[a, b])
    }

    /// SWAP between `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap, &[a, b])
    }

    /// `RZZ(theta)` between `a` and `b` with a bound angle.
    pub fn rzz(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rzz(Param::bound(theta)), &[a, b])
    }

    /// `RZZ(scale * p)` between `a` and `b` driven by free parameter `p`.
    pub fn rzz_param(&mut self, a: usize, b: usize, p: ParamId, scale: f64) -> &mut Self {
        self.push(Gate::Rzz(Param::free(p).scaled(scale)), &[a, b])
    }

    // --- queries ----------------------------------------------------------

    /// Number of gate instructions (barriers and measurements excluded).
    pub fn count_gates(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i, Instruction::Gate { .. }))
            .count()
    }

    /// Number of two-qubit gate instructions.
    pub fn count_2q_gates(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i, Instruction::Gate { gate, .. } if gate.n_qubits() == 2))
            .count()
    }

    /// Circuit depth counting only gate instructions (barriers ignored).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for inst in &self.instructions {
            if let Instruction::Gate { qubits, .. } = inst {
                let l = qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
                for &q in qubits {
                    level[q] = l;
                }
                depth = depth.max(l);
            }
        }
        depth
    }

    /// Whether every gate parameter is bound.
    pub fn is_bound(&self) -> bool {
        self.instructions
            .iter()
            .filter_map(Instruction::gate)
            .all(Gate::is_bound)
    }

    /// Binds all free parameters against `params`, producing a concrete
    /// circuit with `n_params == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.n_params()`.
    pub fn bind(&self, params: &[f64]) -> Circuit {
        assert_eq!(
            params.len(),
            self.n_params,
            "expected {} parameter(s)",
            self.n_params
        );
        let instructions = self
            .instructions
            .iter()
            .map(|inst| match inst {
                Instruction::Gate { gate, qubits } => Instruction::Gate {
                    gate: gate.bind(params),
                    qubits: qubits.clone(),
                },
                other => other.clone(),
            })
            .collect();
        Circuit {
            n_qubits: self.n_qubits,
            n_params: 0,
            instructions,
        }
    }

    /// Computes the full circuit unitary (dimension `2^n`), ignoring
    /// barriers and measurements.
    ///
    /// Intended for circuits of at most ~10 qubits (tests, transpiler
    /// validation); simulation of larger circuits should go through
    /// `hgp-sim`, which applies gates without materializing the unitary.
    ///
    /// Returns `None` if any parameter is unbound.
    pub fn unitary(&self) -> Option<Matrix> {
        let dim = 1usize << self.n_qubits;
        let mut u = Matrix::identity(dim);
        for inst in &self.instructions {
            if let Instruction::Gate { gate, qubits } = inst {
                let g = gate.matrix()?;
                let full = g.embed(self.n_qubits, qubits);
                u = full.matmul(&u);
            }
        }
        Some(u)
    }

    /// Appends all instructions of `other` (must have the same width).
    ///
    /// Free parameters of `other` are *not* remapped; compose circuits that
    /// share a parameter table, or bind first.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(
            self.n_qubits, other.n_qubits,
            "appended circuit must have the same width"
        );
        self.n_params = self.n_params.max(other.n_params);
        self.instructions.extend(other.instructions.iter().cloned());
        self
    }

    /// The inverse circuit: gates reversed and individually inverted.
    ///
    /// Returns `None` if any gate lacks an inverse in the gate set
    /// (`SX`, `U3`) or the circuit contains measurements. Barriers are
    /// preserved in reversed positions. Useful for uncomputation,
    /// Loschmidt-echo tests, and noise amplification by folding.
    pub fn inverse(&self) -> Option<Circuit> {
        let mut out = Circuit::new(self.n_qubits);
        out.n_params = self.n_params;
        for inst in self.instructions.iter().rev() {
            match inst {
                Instruction::Gate { gate, qubits } => {
                    out.push(gate.inverse()?, qubits);
                }
                Instruction::Barrier { qubits } => {
                    out.instructions.push(Instruction::Barrier {
                        qubits: qubits.clone(),
                    });
                }
                Instruction::Measure { .. } => return None,
            }
        }
        Some(out)
    }

    /// A canonical 64-bit structural hash of the circuit.
    ///
    /// Two circuits share a key exactly when they are structurally
    /// identical: same width, same declared parameter count, and the
    /// same instruction stream (gate kinds, operand order, bound angle
    /// bits, and free-parameter `id`/`scale`/`offset` structure). The
    /// key is computed over a canonical byte encoding with FNV-1a, so it
    /// is stable across processes and runs — suitable as a
    /// compiled-program cache key.
    ///
    /// Note the asymmetry that makes this useful for serving: a
    /// *parametrized* circuit keeps one key no matter what values are
    /// later passed to [`Circuit::bind`], while two fully bound circuits
    /// differing in any angle hash differently (their transpiled forms
    /// may legitimately differ, e.g. through rotation merging). Callers
    /// that want to share compiled programs across parameter points
    /// should therefore submit the parametrized circuit plus a binding,
    /// not pre-bound circuits.
    pub fn structural_key(&self) -> u64 {
        fn param(h: &mut Fnv1a, p: &Param) {
            match *p {
                Param::Bound(v) => {
                    h.byte(0);
                    h.f64(v);
                }
                Param::Free { id, scale, offset } => {
                    h.byte(1);
                    h.usize(id.0);
                    h.f64(scale);
                    h.f64(offset);
                }
            }
        }
        let mut h = Fnv1a::new();
        h.usize(self.n_qubits);
        h.usize(self.n_params);
        h.usize(self.instructions.len());
        for inst in &self.instructions {
            match inst {
                Instruction::Gate { gate, qubits } => {
                    h.byte(0);
                    h.str(gate.name());
                    for p in gate.params() {
                        param(&mut h, &p);
                    }
                    h.usize(qubits.len());
                    for &q in qubits {
                        h.usize(q);
                    }
                }
                Instruction::Barrier { qubits } => {
                    h.byte(1);
                    h.usize(qubits.len());
                    for &q in qubits {
                        h.usize(q);
                    }
                }
                Instruction::Measure { qubit, cbit } => {
                    h.byte(2);
                    h.usize(*qubit);
                    h.usize(*cbit);
                }
            }
        }
        h.finish()
    }

    /// Returns a copy with every qubit index `q` replaced by `layout[q]`.
    ///
    /// Used by the transpiler to apply an initial layout onto a wider
    /// device register.
    ///
    /// # Panics
    ///
    /// Panics if `layout.len() < self.n_qubits()`, a mapped index exceeds
    /// `new_width`, or mapped indices collide.
    pub fn remapped(&self, layout: &[usize], new_width: usize) -> Circuit {
        assert!(layout.len() >= self.n_qubits, "layout too short");
        let used = &layout[..self.n_qubits];
        let mut seen = vec![false; new_width];
        for &p in used {
            assert!(p < new_width, "layout target {p} out of range");
            assert!(!seen[p], "layout target {p} repeated");
            seen[p] = true;
        }
        let map = |q: usize| layout[q];
        let instructions = self
            .instructions
            .iter()
            .map(|inst| match inst {
                Instruction::Gate { gate, qubits } => Instruction::Gate {
                    gate: *gate,
                    qubits: qubits.iter().map(|&q| map(q)).collect(),
                },
                Instruction::Barrier { qubits } => Instruction::Barrier {
                    qubits: qubits.iter().map(|&q| map(q)).collect(),
                },
                Instruction::Measure { qubit, cbit } => Instruction::Measure {
                    qubit: map(*qubit),
                    cbit: *cbit,
                },
            })
            .collect();
        Circuit {
            n_qubits: new_width,
            n_params: self.n_params,
            instructions,
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} params)",
            self.n_qubits, self.n_params
        )?;
        for inst in &self.instructions {
            match inst {
                Instruction::Gate { gate, qubits } => {
                    writeln!(f, "  {gate} {qubits:?}")?;
                }
                Instruction::Barrier { .. } => writeln!(f, "  barrier")?,
                Instruction::Measure { qubit, cbit } => {
                    writeln!(f, "  measure q{qubit} -> c{cbit}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_math::c64;
    use std::f64::consts::{FRAC_1_SQRT_2, PI};

    #[test]
    fn bell_state_unitary() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        let u = qc.unitary().unwrap();
        // Column 0 is the Bell state (|00> + |11>)/sqrt(2).
        assert!((u[(0, 0)] - c64(FRAC_1_SQRT_2, 0.0)).norm() < 1e-12);
        assert!((u[(3, 0)] - c64(FRAC_1_SQRT_2, 0.0)).norm() < 1e-12);
        assert!(u[(1, 0)].norm() < 1e-12);
        assert!(u[(2, 0)].norm() < 1e-12);
    }

    #[test]
    fn cx_direction_matters() {
        let mut a = Circuit::new(2);
        a.cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(1, 0);
        assert!(!a.unitary().unwrap().approx_eq(&b.unitary().unwrap(), 1e-9));
    }

    #[test]
    fn cx_01_flips_target_1() {
        // control = qubit 0 (LSB). |01> (q0=1) -> |11>.
        let mut qc = Circuit::new(2);
        qc.cx(0, 1);
        let u = qc.unitary().unwrap();
        assert_eq!(u[(0b11, 0b01)], c64(1.0, 0.0));
        assert_eq!(u[(0b10, 0b10)], c64(1.0, 0.0));
        assert_eq!(u[(0b00, 0b00)], c64(1.0, 0.0));
    }

    #[test]
    fn depth_computation() {
        let mut qc = Circuit::new(3);
        qc.h(0).h(1).h(2); // depth 1
        qc.cx(0, 1); // depth 2
        qc.cx(1, 2); // depth 3
        qc.x(0); // still depth 3 overall (parallel with cx(1,2)? no: x(0) at level 3)
        assert_eq!(qc.depth(), 3);
    }

    #[test]
    fn parameter_binding_round_trip() {
        let mut qc = Circuit::new(1);
        let p = qc.add_param();
        qc.rx_param(0, p, 2.0);
        assert!(!qc.is_bound());
        let bound = qc.bind(&[PI / 2.0]);
        assert!(bound.is_bound());
        let expect = {
            let mut c = Circuit::new(1);
            c.rx(0, PI);
            c.unitary().unwrap()
        };
        assert!(bound.unitary().unwrap().approx_eq(&expect, 1e-12));
    }

    #[test]
    fn shared_parameter_drives_multiple_gates() {
        let mut qc = Circuit::new(2);
        let b = qc.add_param();
        qc.rx_param(0, b, 2.0).rx_param(1, b, 2.0);
        let bound = qc.bind(&[0.3]);
        let expect = {
            let mut c = Circuit::new(2);
            c.rx(0, 0.6).rx(1, 0.6);
            c.unitary().unwrap()
        };
        assert!(bound.unitary().unwrap().approx_eq(&expect, 1e-12));
    }

    #[test]
    fn unitary_of_unbound_circuit_is_none() {
        let mut qc = Circuit::new(1);
        let p = qc.add_param();
        qc.rx_param(0, p, 1.0);
        assert!(qc.unitary().is_none());
    }

    #[test]
    fn remapping_preserves_semantics_under_extension() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        let wide = qc.remapped(&[2, 0], 3);
        assert_eq!(wide.n_qubits(), 3);
        // Gate operands moved: h on 2, cx on (2, 0).
        match &wide.instructions()[1] {
            Instruction::Gate { qubits, .. } => assert_eq!(qubits, &vec![2, 0]),
            _ => panic!("expected gate"),
        }
    }

    #[test]
    fn append_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.append(&b);
        assert_eq!(a.count_gates(), 2);
    }

    #[test]
    fn gate_counts() {
        let mut qc = Circuit::new(3);
        qc.h(0).cx(0, 1).rzz(1, 2, 0.5).barrier().measure_all();
        assert_eq!(qc.count_gates(), 3);
        assert_eq!(qc.count_2q_gates(), 2);
    }

    #[test]
    fn inverse_uncomputes() {
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).rzz(0, 1, 0.7).rx(1, -0.4).rz(0, 1.1);
        let inv = qc.inverse().expect("all gates invertible");
        let mut echo = qc.clone();
        echo.append(&inv);
        let u = echo.unitary().unwrap();
        assert!(u.approx_eq(&hgp_math::Matrix::identity(4), 1e-10));
    }

    #[test]
    fn inverse_rejects_measurements_and_sx() {
        let mut qc = Circuit::new(1);
        qc.h(0).measure_all();
        assert!(qc.inverse().is_none());
        let mut qc2 = Circuit::new(1);
        qc2.sx(0);
        assert!(qc2.inverse().is_none());
    }

    #[test]
    fn structural_key_is_stable_and_discriminating() {
        let build = |theta: f64| {
            let mut qc = Circuit::new(3);
            let p = qc.add_param();
            qc.h(0).cx(0, 1).rzz_param(1, 2, p, 2.0).rx(2, theta);
            qc.barrier().measure_all();
            qc
        };
        // Identical construction => identical key (stable across values).
        assert_eq!(build(0.4).structural_key(), build(0.4).structural_key());
        // A different bound angle is a different shape.
        assert_ne!(build(0.4).structural_key(), build(0.5).structural_key());
        // Different operand order is a different shape.
        let mut a = Circuit::new(2);
        a.cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(1, 0);
        assert_ne!(a.structural_key(), b.structural_key());
        // Width matters even with identical instructions.
        let mut narrow = Circuit::new(2);
        narrow.h(0);
        let mut wide = Circuit::new(3);
        wide.h(0);
        assert_ne!(narrow.structural_key(), wide.structural_key());
    }

    #[test]
    fn structural_key_invariant_under_binding_values() {
        // The whole point of the key: one parametrized circuit keeps one
        // key; its bindings differ from it and from each other.
        let mut qc = Circuit::new(2);
        let p = qc.add_param();
        qc.rx_param(0, p, 1.0).rzz_param(0, 1, p, 2.0);
        let key = qc.structural_key();
        assert_eq!(key, qc.clone().structural_key());
        let b1 = qc.bind(&[0.3]);
        let b2 = qc.bind(&[0.7]);
        assert_ne!(key, b1.structural_key());
        assert_ne!(b1.structural_key(), b2.structural_key());
    }

    #[test]
    fn structural_key_separates_free_param_structure() {
        let mut a = Circuit::new(1);
        let p = a.add_param();
        a.rx_param(0, p, 1.0);
        let mut b = Circuit::new(1);
        let q = b.add_param();
        b.rx_param(0, q, 2.0);
        assert_ne!(a.structural_key(), b.structural_key());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut qc = Circuit::new(2);
        qc.h(2);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn repeated_operand_panics() {
        let mut qc = Circuit::new(2);
        qc.cx(1, 1);
    }
}
