//! Property suite pinning the exact replay path to the reference
//! density walk: for random programs (diagonal runs, dense gates, fixed
//! unitaries, single- and multi-Kraus channels on one and two qubits),
//! the compiled [`ExactReplayProgram`] must reproduce the density
//! matrix [`TrajectoryProgram::apply_exact`] produces — bit for bit
//! where the tape preserves arithmetic order (fused diagonal runs,
//! unitary conjugations, single-Kraus channels), and within `1e-12`
//! elementwise where channel resolution reassociates the Kraus sum
//! (multi-Kraus superoperators). Physicality is pinned alongside:
//! unit trace and Hermiticity of every replayed state.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgp_circuit::{Gate, Param};
use hgp_math::pauli::{sigma_x, sigma_y, sigma_z};
use hgp_math::{c64, Complex64, Matrix};
use hgp_sim::{
    ChannelOp, DensityMatrix, ExactReplayEngine, ExactReplayProgram, NoProfile, TrajectoryProgram,
};

fn depolarizing_op(p: f64) -> ChannelOp {
    let kraus = vec![
        Matrix::identity(2).scale(c64((1.0 - 3.0 * p / 4.0).sqrt(), 0.0)),
        sigma_x().scale(c64((p / 4.0).sqrt(), 0.0)),
        sigma_y().scale(c64((p / 4.0).sqrt(), 0.0)),
        sigma_z().scale(c64((p / 4.0).sqrt(), 0.0)),
    ];
    let unitaries = vec![Matrix::identity(2), sigma_x(), sigma_y(), sigma_z()];
    let probs = vec![1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0];
    ChannelOp::mixed_unitary(kraus, probs, unitaries)
}

fn amplitude_damping_op(gamma: f64) -> ChannelOp {
    let k0 = Matrix::from_rows(&[
        &[c64(1.0, 0.0), c64(0.0, 0.0)],
        &[c64(0.0, 0.0), c64((1.0 - gamma).sqrt(), 0.0)],
    ]);
    let k1 = Matrix::from_rows(&[
        &[c64(0.0, 0.0), c64(gamma.sqrt(), 0.0)],
        &[c64(0.0, 0.0), c64(0.0, 0.0)],
    ]);
    ChannelOp::general(vec![k0, k1])
}

/// A single-Kraus "channel": a pure rotation wrapped as a general
/// channel, exercising the accumulate-free in-place fast path.
fn single_kraus_op(theta: f64) -> ChannelOp {
    ChannelOp::general(vec![Gate::Rx(Param::bound(theta)).matrix().unwrap()])
}

/// A correlated two-qubit dephasing channel: multi-Kraus on two
/// targets, exercising the precompiled Kraus-block path.
fn two_qubit_dephasing(p: f64) -> ChannelOp {
    let id = Matrix::identity(4).scale(c64((1.0 - p).sqrt(), 0.0));
    let mut zz = Matrix::identity(4);
    zz[(1, 1)] = c64(-1.0, 0.0);
    zz[(2, 2)] = c64(-1.0, 0.0);
    ChannelOp::general(vec![id, zz.scale(c64(p.sqrt(), 0.0))])
}

/// A random trajectory program drawn from `shape_seed`. With
/// `multi_kraus` set the mix includes one- and two-qubit multi-Kraus
/// channels (the `1e-12` regime); without it only order-preserving ops
/// are drawn (diagonal gates, dense unitaries, single-Kraus channels —
/// the bit-identical regime).
fn random_program(n: usize, n_ops: usize, shape_seed: u64, multi_kraus: bool) -> TrajectoryProgram {
    let mut rng = StdRng::seed_from_u64(shape_seed);
    let mut program = TrajectoryProgram::new(n);
    let cases = if multi_kraus { 10 } else { 7 };
    for _ in 0..n_ops {
        let q = rng.gen_range(0usize..n);
        let q2 = if n > 1 {
            let mut other = rng.gen_range(0usize..n);
            while other == q {
                other = rng.gen_range(0usize..n);
            }
            other
        } else {
            q
        };
        let angle = rng.gen_range(-3.0f64..3.0);
        match rng.gen_range(0u64..cases) {
            0 => {
                program.push_gate(Gate::H, &[q]);
            }
            1 => {
                program.push_gate(Gate::Rz(Param::bound(angle)), &[q]);
            }
            2 if n > 1 => {
                program.push_gate(Gate::Rzz(Param::bound(angle)), &[q, q2]);
            }
            3 if n > 1 => {
                program.push_gate(Gate::CX, &[q, q2]);
            }
            4 if n > 1 => {
                program.push_gate(Gate::CZ, &[q, q2]);
            }
            5 => {
                program.push_unitary(Gate::Rx(Param::bound(angle)).matrix().unwrap(), &[q]);
            }
            6 => {
                program.push_channel(single_kraus_op(angle), &[q]);
            }
            7 => {
                program.push_channel(depolarizing_op(rng.gen_range(0.0f64..0.6)), &[q]);
            }
            8 if n > 1 => {
                program.push_channel(two_qubit_dephasing(rng.gen_range(0.01f64..0.5)), &[q, q2]);
            }
            _ if multi_kraus => {
                program.push_channel(amplitude_damping_op(rng.gen_range(0.01f64..0.5)), &[q]);
            }
            // Unavailable arms (two-qubit cases at n = 1) fall back to
            // an order-preserving op in the bit-identical regime.
            _ => {
                program.push_gate(Gate::Rz(Param::bound(angle)), &[q]);
            }
        }
    }
    program
}

/// The reference: the interpreted density walk over the recorded
/// schedule.
fn reference_walk(program: &TrajectoryProgram) -> DensityMatrix {
    let mut rho = DensityMatrix::zero_state(program.n_qubits());
    program.apply_exact(&mut rho);
    rho
}

fn assert_close(rho: &DensityMatrix, reference: &DensityMatrix) -> Result<(), String> {
    let dim = reference.dim();
    for i in 0..dim {
        for j in 0..dim {
            let d = rho.get(i, j) - reference.get(i, j);
            prop_assert!(
                d.norm() <= 1e-12,
                "rho[{i},{j}] = {:?} vs reference {:?}",
                rho.get(i, j),
                reference.get(i, j)
            );
        }
    }
    Ok(())
}

fn assert_physical(rho: &DensityMatrix) -> Result<(), String> {
    prop_assert!((rho.trace() - 1.0).abs() <= 1e-9, "trace = {}", rho.trace());
    let dim = rho.dim();
    for i in 0..dim {
        for j in i..dim {
            let d = rho.get(i, j) - rho.get(j, i).conj();
            prop_assert!(d.norm() <= 1e-12, "hermiticity broken at ({i},{j}): {d:?}");
        }
    }
    Ok(())
}

/// A fresh engine's replay of `tape`.
fn evolve(tape: &ExactReplayProgram) -> DensityMatrix {
    ExactReplayEngine::for_program(tape)
        .run(tape, &NoProfile)
        .clone()
}

fn probability_bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

fn state_bits(rho: &DensityMatrix) -> Vec<(u64, u64)> {
    let dim = rho.dim();
    (0..dim * dim)
        .map(|k| rho.get(k / dim, k % dim))
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_replay_matches_the_reference_walk(
        n in 1usize..5,
        n_ops in 1usize..16,
        shape_seed in 0u64..1_000_000,
    ) {
        let program = random_program(n, n_ops, shape_seed, true);
        let tape = ExactReplayProgram::compile(&program);
        let rho = evolve(&tape);
        let reference = reference_walk(&program);
        assert_close(&rho, &reference)?;
        assert_physical(&rho)?;
    }

    #[test]
    fn order_preserving_programs_replay_bit_identically(
        n in 1usize..5,
        n_ops in 1usize..16,
        shape_seed in 0u64..1_000_000,
    ) {
        // Diagonal runs, dense unitaries, and single-Kraus channels
        // keep the reference arithmetic order on the tape: every entry
        // must come out value-exact (`==` on Complex64, which only
        // forgives the sign of zero).
        let program = random_program(n, n_ops, shape_seed, false);
        let tape = ExactReplayProgram::compile(&program);
        let rho = evolve(&tape);
        let reference = reference_walk(&program);
        let dim = reference.dim();
        for i in 0..dim {
            for j in 0..dim {
                prop_assert_eq!(rho.get(i, j), reference.get(i, j));
            }
        }
    }

    #[test]
    fn engine_reuse_over_the_arena_matches_fresh_evolution(
        n in 1usize..4,
        n_ops_a in 1usize..12,
        n_ops_b in 1usize..12,
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
    ) {
        // Replaying a second tape over a dirtied scratch arena must be
        // indistinguishable from a fresh engine: the reset is total.
        let tape_a = ExactReplayProgram::compile(&random_program(n, n_ops_a, seed_a, true));
        let tape_b = ExactReplayProgram::compile(&random_program(n, n_ops_b, seed_b, true));
        let mut engine = ExactReplayEngine::for_program(&tape_a);
        engine.run(&tape_a, &NoProfile);
        let reused = engine.run(&tape_b, &NoProfile).clone();
        prop_assert_eq!(reused, evolve(&tape_b));
    }

    #[test]
    fn one_engine_serves_every_output_shape_and_tape(
        n in 1usize..4,
        n_ops_a in 1usize..12,
        n_ops_b in 1usize..12,
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
    ) {
        // One engine, reused for probabilities then the state, then
        // across a second tape of the same width: every result equals
        // a fresh engine's, bit for bit.
        let tape_a = ExactReplayProgram::compile(&random_program(n, n_ops_a, seed_a, true));
        let tape_b = ExactReplayProgram::compile(&random_program(n, n_ops_b, seed_b, true));
        let fresh = |tape: &ExactReplayProgram| {
            let probs = ExactReplayEngine::for_program(tape).run_probabilities(tape, &NoProfile);
            (probability_bits(&probs), evolve(tape))
        };
        let (probs_a, rho_a) = fresh(&tape_a);
        let (probs_b, rho_b) = fresh(&tape_b);
        let mut engine = ExactReplayEngine::for_program(&tape_a);
        prop_assert_eq!(probability_bits(&engine.run_probabilities(&tape_a, &NoProfile)), probs_a);
        prop_assert!(state_bits(engine.run(&tape_a, &NoProfile)) == state_bits(&rho_a));
        prop_assert_eq!(probability_bits(&engine.run_probabilities(&tape_b, &NoProfile)), probs_b);
        prop_assert!(state_bits(engine.run(&tape_b, &NoProfile)) == state_bits(&rho_b));
        prop_assert!(state_bits(engine.run(&tape_a, &NoProfile)) == state_bits(&rho_a));
    }

    #[test]
    fn replayed_expectations_match_the_reference_state(
        n in 1usize..4,
        n_ops in 1usize..12,
        shape_seed in 0u64..1_000_000,
    ) {
        // The strided probability/expectation sweeps compose with the
        // replayed state the same way they compose with the reference.
        let program = random_program(n, n_ops, shape_seed, true);
        let rho = evolve(&ExactReplayProgram::compile(&program));
        let reference = reference_walk(&program);
        let p_fast = rho.probabilities();
        let p_ref = reference.probabilities();
        for (a, b) in p_fast.iter().zip(p_ref.iter()) {
            prop_assert!((a - b).abs() <= 1e-12, "probability {a} vs {b}");
        }
        prop_assert!((rho.purity() - reference.purity()).abs() <= 1e-12);
    }
}

/// Non-proptest spot check: a deep two-qubit-channel-heavy program
/// stays physical and within tolerance (guards the Kraus-block path
/// with a deterministic, debuggable case).
#[test]
fn kraus_block_heavy_program_stays_pinned() {
    let n = 3;
    let mut program = TrajectoryProgram::new(n);
    for q in 0..n {
        program.push_gate(Gate::H, &[q]);
    }
    for step in 0..4 {
        let theta = 0.3 + 0.17 * step as f64;
        program.push_gate(Gate::Rzz(Param::bound(theta)), &[0, 1]);
        program.push_channel(two_qubit_dephasing(0.08), &[step % n, (step + 1) % n]);
        program.push_gate(Gate::Rz(Param::bound(-theta)), &[2]);
        program.push_channel(depolarizing_op(0.05), &[step % n]);
    }
    let rho = evolve(&ExactReplayProgram::compile(&program));
    let reference = reference_walk(&program);
    let dim = reference.dim();
    let mut worst: f64 = 0.0;
    for i in 0..dim {
        for j in 0..dim {
            worst = worst.max((rho.get(i, j) - reference.get(i, j)).norm());
        }
    }
    assert!(worst <= 1e-12, "worst elementwise deviation {worst}");
    assert!((rho.trace() - 1.0).abs() <= 1e-12);
    let _: Complex64 = rho.get(0, 0);
}

/// A live profiling sink only observes on the exact path too: every
/// density-matrix entry stays bit-identical with profiling attached,
/// and each tape op is attributed exactly once.
#[test]
fn profiled_exact_replay_is_bit_identical_and_attributed() {
    use hgp_sim::OpProfile;
    let program = random_program(3, 14, 0x0B5EC, true);
    let tape = ExactReplayProgram::compile(&program);
    let plain = evolve(&tape);
    let sink = OpProfile::new();
    let mut engine = ExactReplayEngine::for_program(&tape);
    let profiled = engine.run(&tape, &sink);
    let dim = plain.dim();
    for i in 0..dim {
        for j in 0..dim {
            let a = plain.get(i, j);
            let b = profiled.get(i, j);
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "rho[{i},{j}]");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "rho[{i},{j}]");
        }
    }
    let snap = sink.snapshot();
    assert_eq!(snap.total_calls(), tape.n_ops() as u64);
    assert_eq!(snap.calls[hgp_sim::ReplayOpKind::Renorm.index()], 0);
}
