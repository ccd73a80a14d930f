//! Commutative gate cancellation.
//!
//! Scans each qubit wire, cancelling adjacent self-inverse pairs
//! (`CX·CX`, `H·H`, ...) and merging same-axis rotations
//! (`RZ(a)·RZ(b) -> RZ(a+b)`, likewise `RX`, `RY`, `RZZ`), looking through
//! gates that *commute* with the candidate (diagonal gates slide past each
//! other and past a CX's control; X-axis gates slide past a CX's target).
//! Runs to a fixpoint.

use hgp_circuit::{Circuit, Gate, Instruction, Param};

/// Applies commutative cancellation until no rewrite fires.
///
/// Only bound or shared-parameter rotations merge when their parameters
/// can be added symbolically: two `Bound` angles always merge; `Free`
/// parameters merge only when they reference the same parameter id (their
/// scales/offsets add).
pub fn cancel_gates(circuit: &Circuit) -> Circuit {
    let mut current = circuit.clone();
    loop {
        let (next, changed) = one_pass(&current);
        current = next;
        if !changed {
            return current;
        }
    }
}

fn one_pass(circuit: &Circuit) -> (Circuit, bool) {
    let mut keep: Vec<Option<Instruction>> =
        circuit.instructions().iter().cloned().map(Some).collect();
    let mut changed = false;
    for i in 0..keep.len() {
        let Some(Instruction::Gate {
            gate: g1,
            qubits: q1,
        }) = &keep[i]
        else {
            continue;
        };
        // Find the next gate on the same qubits that g1 could interact
        // with, skipping commuting gates.
        let mut rewrite = None;
        let mut j = i + 1;
        while j < keep.len() {
            let Some(inst2) = &keep[j] else {
                j += 1;
                continue;
            };
            let Instruction::Gate {
                gate: g2,
                qubits: q2,
            } = inst2
            else {
                // Barriers and measurements block movement on their qubits.
                if inst2.qubits().iter().any(|q| q1.contains(q)) {
                    break;
                }
                j += 1;
                continue;
            };
            let overlap = q2.iter().any(|q| q1.contains(q));
            if !overlap {
                j += 1;
                continue;
            }
            // Same qubits in the same roles: try cancel / merge.
            if q1 == q2 {
                if let Some(replacement) = combine(g1, g2) {
                    rewrite = Some((j, replacement));
                    break;
                }
            }
            if commutes(g1, q1, g2, q2) {
                j += 1;
                continue;
            }
            break;
        }
        if let Some((j, replacement)) = rewrite {
            match (replacement, &mut keep[i]) {
                (Some(merged), Some(Instruction::Gate { gate, .. })) => *gate = merged,
                _ => keep[i] = None,
            }
            keep[j] = None;
            changed = true;
        }
    }
    let mut out = Circuit::new(circuit.n_qubits());
    for _ in 0..circuit.n_params() {
        out.add_param();
    }
    // Every kept instruction came from a valid circuit of this width.
    out.instructions_mut().extend(keep.into_iter().flatten());
    (out, changed)
}

/// If `g1` then `g2` on identical operands reduces, returns the
/// replacement (`None` inside the option = the pair annihilates).
fn combine(g1: &Gate, g2: &Gate) -> Option<Option<Gate>> {
    // Self-inverse pairs annihilate.
    if g1 == g2 && g1.is_self_inverse() {
        return Some(None);
    }
    // S/Sdg, T/Tdg inverse pairs.
    if let Some(inv) = g1.inverse() {
        if inv == *g2 && !matches!(g1, Gate::Rx(_) | Gate::Ry(_) | Gate::Rz(_) | Gate::Rzz(_)) {
            return Some(None);
        }
    }
    // Same-axis rotation merging.
    let merged = match (g1, g2) {
        (Gate::Rx(a), Gate::Rx(b)) => add_params(a, b).map(Gate::Rx),
        (Gate::Ry(a), Gate::Ry(b)) => add_params(a, b).map(Gate::Ry),
        (Gate::Rz(a), Gate::Rz(b)) => add_params(a, b).map(Gate::Rz),
        (Gate::Rzz(a), Gate::Rzz(b)) => add_params(a, b).map(Gate::Rzz),
        (Gate::Rzx(a), Gate::Rzx(b)) => add_params(a, b).map(Gate::Rzx),
        _ => None,
    };
    if let Some(g) = merged {
        // A zero-angle bound rotation disappears entirely.
        if let Some(v) = g.params()[0].value() {
            if v.abs() < 1e-15 {
                return Some(None);
            }
        }
        return Some(Some(g));
    }
    None
}

/// Adds two rotation parameters when symbolically possible.
fn add_params(a: &Param, b: &Param) -> Option<Param> {
    match (a, b) {
        (Param::Bound(x), Param::Bound(y)) => Some(Param::Bound(x + y)),
        (
            Param::Free {
                id: i1,
                scale: s1,
                offset: o1,
            },
            Param::Free {
                id: i2,
                scale: s2,
                offset: o2,
            },
        ) if i1 == i2 => Some(Param::Free {
            id: *i1,
            scale: s1 + s2,
            offset: o1 + o2,
        }),
        _ => None,
    }
}

/// Conservative commutation test between two gates with overlapping
/// operands.
fn commutes(g1: &Gate, q1: &[usize], g2: &Gate, q2: &[usize]) -> bool {
    // Diagonal gates commute with diagonal gates regardless of overlap.
    if g1.is_diagonal() && g2.is_diagonal() {
        return true;
    }
    // Diagonal 1q gate on a CX control commutes.
    let diag_past_cx = |diag: &Gate, dq: &[usize], cx_q: &[usize]| {
        diag.n_qubits() == 1 && diag.is_diagonal() && dq[0] == cx_q[0]
    };
    // X-axis 1q gate on a CX target commutes.
    let x_past_cx = |g: &Gate, gq: &[usize], cx_q: &[usize]| {
        matches!(g, Gate::X | Gate::Rx(_) | Gate::SX) && gq[0] == cx_q[1]
    };
    match (g1, g2) {
        (Gate::CX, _) => diag_past_cx(g2, q2, q1) || x_past_cx(g2, q2, q1),
        (_, Gate::CX) => diag_past_cx(g1, q1, q2) || x_past_cx(g1, q1, q2),
        // RZZ commutes with any diagonal overlap (covered above) and with
        // a CX whose control is one of its legs.
        (Gate::Rzz(_), _) => g2.is_diagonal(),
        (_, Gate::Rzz(_)) => g1.is_diagonal(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_cx_pair_cancels() {
        let mut qc = Circuit::new(2);
        qc.cx(0, 1).cx(0, 1);
        let out = cancel_gates(&qc);
        assert_eq!(out.count_gates(), 0);
    }

    #[test]
    fn reversed_cx_does_not_cancel() {
        let mut qc = Circuit::new(2);
        qc.cx(0, 1).cx(1, 0);
        let out = cancel_gates(&qc);
        assert_eq!(out.count_gates(), 2);
    }

    #[test]
    fn h_pair_cancels_through_nothing() {
        let mut qc = Circuit::new(1);
        qc.h(0).h(0);
        assert_eq!(cancel_gates(&qc).count_gates(), 0);
    }

    #[test]
    fn rz_merges_through_cx_control() {
        // RZ(a) control CX RZ(b) control -> CX RZ(a+b).
        let mut qc = Circuit::new(2);
        qc.rz(0, 0.3).cx(0, 1).rz(0, 0.4);
        let out = cancel_gates(&qc);
        assert_eq!(out.count_gates(), 2);
        let angles: Vec<f64> = out
            .instructions()
            .iter()
            .filter_map(|i| match i.gate() {
                Some(Gate::Rz(p)) => p.value(),
                _ => None,
            })
            .collect();
        assert_eq!(angles, vec![0.7]);
        // Semantics preserved.
        assert!(out
            .unitary()
            .unwrap()
            .approx_eq(&qc.unitary().unwrap(), 1e-12));
    }

    #[test]
    fn x_merges_through_cx_target() {
        let mut qc = Circuit::new(2);
        qc.x(1).cx(0, 1).x(1);
        let out = cancel_gates(&qc);
        assert_eq!(out.count_gates(), 1);
        assert!(out
            .unitary()
            .unwrap()
            .approx_eq(&qc.unitary().unwrap(), 1e-12));
    }

    #[test]
    fn cx_pair_cancels_through_commuting_rz() {
        // CX, RZ on control, CX -> RZ alone.
        let mut qc = Circuit::new(2);
        qc.cx(0, 1).rz(0, 0.9).cx(0, 1);
        let out = cancel_gates(&qc);
        assert_eq!(out.count_gates(), 1);
        assert!(out
            .unitary()
            .unwrap()
            .approx_eq(&qc.unitary().unwrap(), 1e-12));
    }

    #[test]
    fn opposite_rotations_annihilate() {
        let mut qc = Circuit::new(1);
        qc.rx(0, 0.8).rx(0, -0.8);
        assert_eq!(cancel_gates(&qc).count_gates(), 0);
    }

    #[test]
    fn s_sdg_pair_cancels() {
        let mut qc = Circuit::new(1);
        qc.push(Gate::S, &[0]).push(Gate::Sdg, &[0]);
        assert_eq!(cancel_gates(&qc).count_gates(), 0);
    }

    #[test]
    fn free_parameters_with_same_id_merge() {
        let mut qc = Circuit::new(1);
        let p = qc.add_param();
        qc.rx_param(0, p, 1.0).rx_param(0, p, 1.0);
        let out = cancel_gates(&qc);
        assert_eq!(out.count_gates(), 1);
        let bound = out.bind(&[0.5]);
        let mut expect = Circuit::new(1);
        expect.rx(0, 1.0);
        assert!(bound
            .unitary()
            .unwrap()
            .approx_eq(&expect.unitary().unwrap(), 1e-12));
    }

    #[test]
    fn different_free_parameters_do_not_merge() {
        let mut qc = Circuit::new(1);
        let p1 = qc.add_param();
        let p2 = qc.add_param();
        qc.rx_param(0, p1, 1.0).rx_param(0, p2, 1.0);
        assert_eq!(cancel_gates(&qc).count_gates(), 2);
    }

    #[test]
    fn barrier_blocks_cancellation() {
        let mut qc = Circuit::new(1);
        qc.h(0).barrier().h(0);
        assert_eq!(cancel_gates(&qc).count_gates(), 2);
    }

    #[test]
    fn rzz_pair_merges() {
        let mut qc = Circuit::new(2);
        qc.rzz(0, 1, 0.5).rzz(0, 1, 0.25);
        let out = cancel_gates(&qc);
        assert_eq!(out.count_gates(), 1);
        assert!(out
            .unitary()
            .unwrap()
            .approx_eq(&qc.unitary().unwrap(), 1e-12));
    }

    #[test]
    fn qaoa_style_redundancy_collapses() {
        // Two QAOA Hamiltonian layers back to back with the same edge set
        // merge their RZZ angles.
        let mut qc = Circuit::new(3);
        qc.rzz(0, 1, 0.2)
            .rzz(1, 2, 0.2)
            .rzz(0, 1, 0.3)
            .rzz(1, 2, 0.3);
        let out = cancel_gates(&qc);
        assert_eq!(out.count_gates(), 2);
        assert!(out
            .unitary()
            .unwrap()
            .approx_eq(&qc.unitary().unwrap(), 1e-12));
    }
}
