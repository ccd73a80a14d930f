//! Property suite pinning the trajectory replay engine to the reference
//! [`TrajectoryEngine`], bit for bit: the compiled [`ReplayProgram`]
//! replayed by [`ReplayEngine`] must reproduce every per-trajectory
//! expectation, every ensemble mean and standard error, and every
//! sampled count of the recorded program exactly — same seed stream,
//! same branch picks, same floating-point bits.
//!
//! Three program families cover the engine's regimes:
//!
//! - random programs mixing fused diagonal runs, dense gates, raw
//!   unitaries, and all three channel sampling families, on the default
//!   block policy;
//! - divergence-heavy programs (general channels whose `K_0` is *not*
//!   an identity multiple — the recorded four-operator thermal
//!   relaxation among them — so resident shots of one block pick
//!   different Kraus branches and one per-lane sweep applies them, plus
//!   a skippable identity `K_0` at strong noise, where some lanes keep
//!   their state), on
//!   odd and non-power-of-two ensembles and block sizes that do not
//!   divide them, single-shot blocks and blocks larger than the
//!   ensemble included;
//! - weak-noise programs, where every resident shot of a block picks
//!   the diagonal `K_0` of a thermal relaxation and the engine fuses
//!   that branch's apply with its norm scan.
//!
//! `thermal_relaxation_matches_at_served_block_sizes` pins the recorded
//! shape at the block sizes served jobs run, and
//! `both_tapes_compile_one_front_end` pins the compile front end the
//! trajectory and exact tapes share: the same slot map and tape shape
//! from every family above, and template re-binds that land where a
//! fresh compile of the re-bound program does.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgp_circuit::{Gate, Param};
use hgp_math::pauli::{sigma_x, sigma_y, sigma_z, Pauli, PauliString, PauliSum};
use hgp_math::{c64, Matrix};
use hgp_sim::kernels::DiagOp;
use hgp_sim::{
    ChannelOp, ExactReplayEngine, ExactReplayProgram, NoProfile, ReplayEngine, ReplayProgram,
    TrajectoryEngine, TrajectoryOp, TrajectoryProgram,
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

/// A general channel whose `K_0` is an exact identity multiple — the
/// K0-skip path must agree between the two engines too.
fn identity_k0_op(p: f64) -> ChannelOp {
    let k0 = Matrix::identity(2).scale(c64((1.0 - p).sqrt(), 0.0));
    let k1 = sigma_x().scale(c64(p.sqrt(), 0.0));
    ChannelOp::general(vec![k0, k1])
}

/// A random trajectory program drawn from `shape_seed`: mixes fused
/// diagonal runs, dense gates, raw unitaries, and all three channel
/// sampling families.
fn random_program(n: usize, n_ops: usize, shape_seed: u64) -> TrajectoryProgram {
    let mut rng = StdRng::seed_from_u64(shape_seed);
    let mut program = TrajectoryProgram::new(n);
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
        match rng.gen_range(0u64..9) {
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
                program.push_channel(depolarizing_op(rng.gen_range(0.0f64..0.6)), &[q]);
            }
            7 => {
                program.push_channel(amplitude_damping_op(rng.gen_range(0.01f64..0.5)), &[q]);
            }
            _ => {
                program.push_channel(identity_k0_op(rng.gen_range(0.01f64..0.4)), &[q]);
            }
        }
    }
    program
}

/// Thermal-relaxation-shaped channel: `K_0` is diagonal but *not* an
/// identity multiple, so every shot pays the apply+renormalize path and
/// branch weights genuinely differ across the ensemble.
fn thermal_like_op(gamma: f64, p: f64) -> ChannelOp {
    let k0 = Matrix::from_rows(&[
        &[c64((1.0 - p).sqrt(), 0.0), c64(0.0, 0.0)],
        &[c64(0.0, 0.0), c64(((1.0 - p) * (1.0 - gamma)).sqrt(), 0.0)],
    ]);
    let k1 = Matrix::from_rows(&[
        &[c64(0.0, 0.0), c64(((1.0 - p) * gamma).sqrt(), 0.0)],
        &[c64(0.0, 0.0), c64(0.0, 0.0)],
    ]);
    let k2 = Matrix::from_rows(&[
        &[c64(p.sqrt(), 0.0), c64(0.0, 0.0)],
        &[c64(0.0, 0.0), c64(-(p.sqrt()), 0.0)],
    ]);
    ChannelOp::general(vec![k0, k1, k2])
}

/// Thermal relaxation exactly as a backend's noise model records it:
/// `hgp_noise::channels::thermal_relaxation`'s `compose(amplitude
/// damping, phase damping)` order, `[PD0·AD0, PD0·AD1, PD1·AD0,
/// PD1·AD1]` — a diagonal `K_0`, single-entry `K_1` and `K_2`, and an
/// exactly-zero `K_3` (with `lambda = 0`, `K_2` is exactly zero too).
fn thermal_relaxation_op(gamma: f64, lambda: f64) -> ChannelOp {
    let diag = |a: f64, b: f64| {
        Matrix::from_rows(&[&[c64(a, 0.0), c64(0.0, 0.0)], &[c64(0.0, 0.0), c64(b, 0.0)]])
    };
    let amplitude = [
        diag(1.0, (1.0 - gamma).sqrt()),
        Matrix::from_rows(&[
            &[c64(0.0, 0.0), c64(gamma.sqrt(), 0.0)],
            &[c64(0.0, 0.0), c64(0.0, 0.0)],
        ]),
    ];
    let phase = [diag(1.0, (1.0 - lambda).sqrt()), diag(0.0, lambda.sqrt())];
    let kraus = phase
        .iter()
        .flat_map(|b| amplitude.iter().map(move |a| b.matmul(a)))
        .collect();
    ChannelOp::general(kraus)
}

/// A random program drawn from `shape_seed`, weighted so roughly half
/// the ops are general channels with non-identity `K_0` at strong noise
/// — the divergence-heavy regime where resident shots split across
/// branch groups nearly every channel.
fn divergent_program(n: usize, n_ops: usize, shape_seed: u64) -> TrajectoryProgram {
    let mut rng = StdRng::seed_from_u64(shape_seed);
    let mut program = TrajectoryProgram::new(n);
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
        match rng.gen_range(0u64..8) {
            0 => {
                program.push_gate(Gate::H, &[q]);
            }
            1 => {
                program.push_gate(Gate::Rz(Param::bound(angle)), &[q]);
            }
            2 if n > 1 => {
                program.push_gate(Gate::CX, &[q, q2]);
            }
            3 => {
                program.push_unitary(Gate::Rx(Param::bound(angle)).matrix().unwrap(), &[q]);
            }
            4 => {
                if rng.gen::<bool>() {
                    program.push_channel(depolarizing_op(rng.gen_range(0.2f64..0.8)), &[q]);
                } else {
                    // A skippable identity `K_0` at strong noise: some
                    // shots of a block keep their state, others jump.
                    program.push_channel(identity_k0_op(rng.gen_range(0.2f64..0.6)), &[q]);
                }
            }
            _ => {
                // Strong decay/dephasing: branch weights spread far from
                // the K0-dominant regime.
                match rng.gen_range(0u64..4) {
                    0 => {
                        let gamma = rng.gen_range(0.1f64..0.7);
                        program.push_channel(thermal_like_op(gamma, 0.2), &[q]);
                    }
                    1 => {
                        let gamma = rng.gen_range(0.1f64..0.8);
                        program.push_channel(amplitude_damping_op(gamma), &[q]);
                    }
                    2 => {
                        let gamma = rng.gen_range(0.1f64..0.7);
                        let lambda = rng.gen_range(0.1f64..0.7);
                        program.push_channel(thermal_relaxation_op(gamma, lambda), &[q]);
                    }
                    _ => {
                        let gamma = rng.gen_range(0.1f64..0.7);
                        program.push_channel(thermal_relaxation_op(gamma, 0.0), &[q]);
                    }
                }
            }
        }
    }
    program
}

/// A random program drawn from `shape_seed` in the weak-noise regime:
/// thermal relaxation with `K_0` weight above 0.998 after most gates,
/// often two or three channels back to back (each one's deferred scale
/// consumed by the next one's weight scan), a few strong channels that
/// split blocks into branch groups, and a final general channel, so the
/// tape ends with a scale still deferred.
fn weak_noise_program(n: usize, n_ops: usize, shape_seed: u64) -> TrajectoryProgram {
    let mut rng = StdRng::seed_from_u64(shape_seed);
    let mut program = TrajectoryProgram::new(n);
    let weak = |rng: &mut StdRng| {
        let (gamma, p) = (rng.gen_range(1e-4f64..1e-3), rng.gen_range(1e-4f64..1e-3));
        match rng.gen_range(0u64..3) {
            0 => thermal_like_op(gamma, p),
            1 => thermal_relaxation_op(gamma, p),
            _ => thermal_relaxation_op(gamma, 0.0),
        }
    };
    for _ in 0..n_ops {
        let q = rng.gen_range(0usize..n);
        let angle = rng.gen_range(-3.0f64..3.0);
        match rng.gen_range(0u64..8) {
            0 => {
                program.push_gate(Gate::H, &[q]);
            }
            1 if n > 1 => {
                program.push_gate(Gate::CX, &[q, (q + 1) % n]);
            }
            2 => {
                program.push_unitary(Gate::Rx(Param::bound(angle)).matrix().unwrap(), &[q]);
            }
            3 => {
                // A strong channel: resident shots split across branches.
                let channel = match rng.gen_range(0u64..4) {
                    0 => thermal_like_op(0.4, 0.2),
                    1 => amplitude_damping_op(0.5),
                    2 => thermal_relaxation_op(0.4, 0.3),
                    _ => identity_k0_op(0.4),
                };
                program.push_channel(channel, &[q]);
            }
            _ => {
                program.push_gate(Gate::Rz(Param::bound(angle)), &[q]);
                for _ in 0..rng.gen_range(1usize..4) {
                    let t = rng.gen_range(0usize..n);
                    program.push_channel(weak(&mut rng), &[t]);
                }
            }
        }
    }
    program.push_channel(weak(&mut rng), &[rng.gen_range(0usize..n)]);
    program
}

fn diag_observable(n: usize) -> PauliSum {
    PauliSum::from_terms(vec![
        PauliString::new(n, vec![(0, Pauli::Z)], 1.0),
        PauliString::new(n, vec![(n - 1, Pauli::Z)], -0.5),
    ])
}

/// Asserts per-trajectory expectations bit-identical to the reference.
fn assert_same_bits(reference: &[f64], got: &[f64], block: usize) {
    assert_eq!(reference.len(), got.len());
    for (s, (r, g)) in reference.iter().zip(got.iter()).enumerate() {
        assert_eq!(r.to_bits(), g.to_bits(), "shot {s}, block size {block}");
    }
}

/// Asserts the replay engine at `block` reproduces the reference engine
/// bit for bit: per-trajectory expectations, sampled counts, and counts
/// with an RNG-consuming corruption hook.
fn assert_block_parity(program: &TrajectoryProgram, trajectories: usize, seed: u64, block: usize) {
    let replay = ReplayProgram::compile(program);
    let obs = diag_observable(program.n_qubits());
    let reference = TrajectoryEngine::new(trajectories, seed);
    let engine = ReplayEngine::new(trajectories, seed).with_block_size(block);
    assert_same_bits(
        &reference.expectations(program, &obs),
        &engine.expectations(&replay, &obs, &NoProfile),
        block,
    );
    assert_eq!(
        reference.sample_counts(program),
        engine.sample_counts_with(&replay, |bits, _| bits, &NoProfile),
        "block size {block}"
    );
    let corrupt = |bits: usize, rng: &mut StdRng| {
        if rng.gen::<f64>() < 0.2 {
            bits ^ 1
        } else {
            bits
        }
    };
    assert_eq!(
        reference.sample_counts_with(program, corrupt),
        engine.sample_counts_with(&replay, corrupt, &NoProfile),
        "block size {block}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replay_expectations_match_bitwise(
        n in 1usize..5,
        n_ops in 1usize..16,
        shape_seed in 0u64..1_000_000,
        ensemble_seed in 0u64..1_000_000,
        trajectories in 1usize..40,
    ) {
        let program = random_program(n, n_ops, shape_seed);
        let replay = ReplayProgram::compile(&program);
        let obs = PauliSum::from_terms(vec![
            PauliString::new(n, vec![(0, Pauli::Z)], 1.0),
            PauliString::new(n, vec![(n - 1, Pauli::Z)], -0.5),
        ]);
        let reference = TrajectoryEngine::new(trajectories, ensemble_seed);
        let fast = ReplayEngine::new(trajectories, ensemble_seed);
        let a = reference.expectations(&program, &obs);
        let b = fast.expectations(&replay, &obs, &NoProfile);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        let (m1, e1) = reference.expectation_with_error(&program, &obs);
        let (m2, e2) = fast.expectation_with_error(&replay, &obs, &NoProfile);
        prop_assert_eq!(m1.to_bits(), m2.to_bits());
        prop_assert_eq!(e1.to_bits(), e2.to_bits());
    }

    #[test]
    fn replay_counts_match_bitwise(
        n in 1usize..5,
        n_ops in 1usize..16,
        shape_seed in 0u64..1_000_000,
        ensemble_seed in 0u64..1_000_000,
        shots in 1usize..96,
    ) {
        let program = random_program(n, n_ops, shape_seed);
        let replay = ReplayProgram::compile(&program);
        let reference = TrajectoryEngine::new(shots, ensemble_seed);
        let fast = ReplayEngine::new(shots, ensemble_seed);
        prop_assert_eq!(
            reference.sample_counts(&program),
            fast.sample_counts_with(&replay, |bits, _| bits, &NoProfile)
        );
        // Shot-level corruption consumes the same RNG tail.
        let corrupt = |bits: usize, rng: &mut StdRng| {
            if rng.gen::<f64>() < 0.1 { bits ^ 1 } else { bits }
        };
        prop_assert_eq!(
            reference.sample_counts_with(&program, corrupt),
            fast.sample_counts_with(&replay, corrupt, &NoProfile)
        );
    }

    #[test]
    fn replay_non_diagonal_observables_match_bitwise(
        n in 2usize..4,
        n_ops in 1usize..12,
        shape_seed in 0u64..1_000_000,
        ensemble_seed in 0u64..1_000_000,
    ) {
        let program = random_program(n, n_ops, shape_seed);
        let replay = ReplayProgram::compile(&program);
        let obs = PauliSum::from_terms(vec![
            PauliString::new(n, vec![(0, Pauli::X)], 0.8),
            PauliString::new(n, vec![(1, Pauli::Y), (0, Pauli::Z)], -0.3),
        ]);
        let a = TrajectoryEngine::new(16, ensemble_seed).expectations(&program, &obs);
        let b = ReplayEngine::new(16, ensemble_seed).expectations(&replay, &obs, &NoProfile);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Divergence-heavy programs, arbitrary (odd, prime, non-dividing)
    /// block splits: per-trajectory expectations and the ensemble
    /// mean/error must match the reference bitwise.
    #[test]
    fn divergent_expectations_match_bitwise_at_any_block_size(
        n in 1usize..5,
        n_ops in 1usize..16,
        shape_seed in 0u64..1_000_000,
        ensemble_seed in 0u64..1_000_000,
        trajectories in 1usize..48,
        block in 1usize..64,
    ) {
        let program = divergent_program(n, n_ops, shape_seed);
        let replay = ReplayProgram::compile(&program);
        let obs = diag_observable(n);
        let reference = TrajectoryEngine::new(trajectories, ensemble_seed);
        let engine = ReplayEngine::new(trajectories, ensemble_seed).with_block_size(block);
        let a = reference.expectations(&program, &obs);
        let b = engine.expectations(&replay, &obs, &NoProfile);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        let (m1, e1) = reference.expectation_with_error(&program, &obs);
        let (m2, e2) = engine.expectation_with_error(&replay, &obs, &NoProfile);
        prop_assert_eq!(m1.to_bits(), m2.to_bits());
        prop_assert_eq!(e1.to_bits(), e2.to_bits());
    }

    /// Sampled counts — including a corruption hook that consumes the
    /// per-shot RNG tail — must match for every block split.
    #[test]
    fn divergent_counts_match_bitwise_at_any_block_size(
        n in 1usize..5,
        n_ops in 1usize..16,
        shape_seed in 0u64..1_000_000,
        ensemble_seed in 0u64..1_000_000,
        shots in 1usize..80,
        block in 1usize..48,
    ) {
        let program = divergent_program(n, n_ops, shape_seed);
        let replay = ReplayProgram::compile(&program);
        let reference = TrajectoryEngine::new(shots, ensemble_seed);
        let engine = ReplayEngine::new(shots, ensemble_seed).with_block_size(block);
        prop_assert_eq!(
            reference.sample_counts(&program),
            engine.sample_counts_with(&replay, |bits, _| bits, &NoProfile)
        );
        let corrupt = |bits: usize, rng: &mut StdRng| {
            if rng.gen::<f64>() < 0.2 { bits ^ 1 } else { bits }
        };
        prop_assert_eq!(
            reference.sample_counts_with(&program, corrupt),
            engine.sample_counts_with(&replay, corrupt, &NoProfile)
        );
    }

    /// Non-diagonal observables take the per-shot extraction fallback —
    /// the amplitudes handed to it must match the reference state
    /// exactly where it matters: the expectations stay bit-identical.
    #[test]
    fn divergent_non_diagonal_observables_match_bitwise_at_any_block_size(
        n in 2usize..4,
        n_ops in 1usize..12,
        shape_seed in 0u64..1_000_000,
        ensemble_seed in 0u64..1_000_000,
        block in 1usize..24,
    ) {
        let program = divergent_program(n, n_ops, shape_seed);
        let replay = ReplayProgram::compile(&program);
        let obs = PauliSum::from_terms(vec![
            PauliString::new(n, vec![(0, Pauli::X)], 0.8),
            PauliString::new(n, vec![(1, Pauli::Y), (0, Pauli::Z)], -0.3),
        ]);
        let a = TrajectoryEngine::new(17, ensemble_seed).expectations(&program, &obs);
        let b = ReplayEngine::new(17, ensemble_seed)
            .with_block_size(block)
            .expectations(&replay, &obs, &NoProfile);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Weak-noise programs, where most channels fuse the `K_0` apply
    /// with its norm scan and a few split into branch groups: the
    /// engine must match the reference for every block size up to 33.
    #[test]
    fn weak_noise_runs_match_the_reference(
        n in 1usize..6,
        n_ops in 1usize..14,
        shape_seed in 0u64..1_000_000,
        ensemble_seed in 0u64..1_000_000,
        trajectories in 1usize..48,
        block in 1usize..34,
    ) {
        let program = weak_noise_program(n, n_ops, shape_seed);
        assert_block_parity(&program, trajectories, ensemble_seed, block);
    }
}

/// One fixed weak-noise program at every block size from 1 to 33 on a
/// 33-shot ensemble: blocks that fuse every channel, blocks that split
/// at the strong ones, and ragged final blocks.
#[test]
fn every_block_split_of_a_weak_noise_ensemble_matches() {
    let program = weak_noise_program(5, 16, 0xBEEF);
    for block in 1..=33 {
        assert_block_parity(&program, 33, 5, block);
    }
}

/// Every block size from single-shot blocks up through one past the
/// ensemble, on an odd ensemble size, against one fixed
/// divergence-heavy program: the exhaustive small-scale version of the
/// block-split property.
#[test]
fn every_block_split_of_an_odd_ensemble_matches() {
    let program = divergent_program(3, 14, 0xDECAF);
    for block in 1..=30 {
        assert_block_parity(&program, 29, 7, block);
    }
}

/// The recorded thermal-relaxation shape (both its `lambda > 0` and its
/// `lambda = 0` form) and a skippable identity `K_0`, in programs where
/// resident shots pick different branches and programs where they
/// mostly fuse, at the block sizes the served shapes run (1, 3, 8 and
/// 64 shots per block) on a 67-shot ensemble.
#[test]
fn thermal_relaxation_matches_at_served_block_sizes() {
    let n = 5;
    let mut divergent = TrajectoryProgram::new(n);
    for q in 0..n {
        divergent.push_gate(Gate::H, &[q]);
    }
    for layer in 0..3 {
        for q in 0..n {
            let theta = 0.3 + 0.2 * (q + layer) as f64;
            divergent.push_unitary(Gate::Rx(Param::bound(theta)).matrix().unwrap(), &[q]);
            let lambda = if q % 2 == 0 { 0.0 } else { 0.35 };
            divergent.push_channel(thermal_relaxation_op(0.3, lambda), &[q]);
        }
        divergent.push_gate(Gate::CX, &[layer, (layer + 2) % n]);
        divergent.push_channel(identity_k0_op(0.35), &[(layer + 1) % n]);
    }
    for program in [divergent, weak_noise_program(n, 14, 0x7E57)] {
        for block in [1, 3, 8, 64] {
            assert_block_parity(&program, 67, 13, block);
        }
    }
}

/// A block whose rows are wider than one reduction tile (256 lanes)
/// sums each row in column chunks: a 300-shot block (a 256-lane chunk,
/// then 44 lanes: five 8-lane register blocks and four single lanes)
/// and a 260-shot one still match the reference bit for bit.
#[test]
fn blocks_wider_than_a_reduction_tile_match() {
    for program in [
        divergent_program(4, 24, 0xC0_01),
        weak_noise_program(4, 14, 0xC0_02),
    ] {
        for block in [260, 300] {
            assert_block_parity(&program, 300, 29, block);
        }
    }
}

/// A live profiling sink shared across the worker pool only observes:
/// per-shot expectations, the ensemble mean and error, and sampled
/// counts stay bit-identical, and every block attributes each tape op
/// once plus its closing renormalization.
#[test]
fn profiled_batched_runs_are_bit_identical_and_attributed() {
    use hgp_sim::{OpProfile, ReplayOpKind};
    let n = 3;
    let program = divergent_program(n, 14, 0xC0FFEE);
    let replay = ReplayProgram::compile(&program);
    let obs = diag_observable(n);
    let engine = ReplayEngine::new(33, 11).with_block_size(8);
    let blocks = engine.shot_blocks(&replay).count() as u64;
    let calls_per_run = blocks * (replay.n_ops() as u64 + 1);
    let sink = OpProfile::new();

    let plain = engine.expectations(&replay, &obs, &NoProfile);
    let profiled = engine.expectations(&replay, &obs, &sink);
    assert_same_bits(&plain, &profiled, 8);
    assert_eq!(sink.snapshot().total_calls(), calls_per_run);

    let corrupt = |bits: usize, rng: &mut StdRng| {
        if rng.gen::<f64>() < 0.2 {
            bits ^ 1
        } else {
            bits
        }
    };
    assert_eq!(
        engine.sample_counts_with(&replay, corrupt, &NoProfile),
        engine.sample_counts_with(&replay, corrupt, &sink)
    );

    let (mean_plain, err_plain) = engine.expectation_with_error(&replay, &obs, &NoProfile);
    let (mean_prof, err_prof) = engine.expectation_with_error(&replay, &obs, &sink);
    assert_eq!(mean_plain.to_bits(), mean_prof.to_bits());
    assert_eq!(err_plain.to_bits(), err_prof.to_bits());

    let snap = sink.snapshot();
    assert_eq!(snap.total_calls(), 3 * calls_per_run);
    assert_eq!(snap.calls[ReplayOpKind::Renorm.index()], 3 * blocks);
}

/// A value a template bind substitutes into one tape slot.
enum Rebound {
    Diag(DiagOp),
    Unitary(Matrix),
}

/// Re-binds every gate and unitary of `program` the way a template bind
/// does, keeping each op's slot kind and targets: diagonal gates become
/// `RZ`/`RZZ` at new angles, dense gates and unitaries become `RX`/`RZX`
/// unitaries, channels stay. Returns the re-bound program and, per
/// trajectory op, the value to substitute (`None` for channels).
fn rebind(program: &TrajectoryProgram, shift: f64) -> (TrajectoryProgram, Vec<Option<Rebound>>) {
    let mut rebound = TrajectoryProgram::new(program.n_qubits());
    let mut values = Vec::new();
    for (i, op) in program.ops().iter().enumerate() {
        let angle = Param::bound(shift + 0.37 * i as f64);
        let dense = |targets: &[usize]| match targets.len() {
            1 => Gate::Rx(angle).matrix().unwrap(),
            _ => Gate::Rzx(angle).matrix().unwrap(),
        };
        match op {
            TrajectoryOp::Gate { gate, qubits } if DiagOp::from_gate(gate, qubits).is_some() => {
                let gate = match qubits.len() {
                    1 => Gate::Rz(angle),
                    _ => Gate::Rzz(angle),
                };
                rebound.push_gate(gate, qubits);
                values.push(Some(Rebound::Diag(
                    DiagOp::from_gate(&gate, qubits).unwrap(),
                )));
            }
            TrajectoryOp::Gate {
                qubits: targets, ..
            }
            | TrajectoryOp::Unitary { targets, .. } => {
                rebound.push_unitary(dense(targets), targets);
                values.push(Some(Rebound::Unitary(dense(targets))));
            }
            TrajectoryOp::Channel { channel, targets } => {
                rebound.push_channel(channel.clone(), targets);
                values.push(None);
            }
        }
    }
    (rebound, values)
}

/// Every entry of two density matrices, `to_bits`.
fn state_bits(rho: &hgp_sim::DensityMatrix) -> Vec<(u64, u64)> {
    let dim = rho.dim();
    (0..dim * dim)
        .map(|k| rho.get(k / dim, k % dim))
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The trajectory and exact tapes compile one front end: equal slot
    /// maps and tape shapes for every program family, and substituting
    /// every gate and unitary slot leaves both tapes replaying the bits
    /// a fresh compile of the re-bound program replays.
    #[test]
    fn both_tapes_compile_one_front_end(
        n in 1usize..5,
        n_ops in 1usize..20,
        family in 0usize..3,
        shape_seed in 0u64..1_000_000,
        shift in -3.0f64..3.0,
    ) {
        let program = match family {
            0 => random_program(n, n_ops, shape_seed),
            1 => divergent_program(n, n_ops, shape_seed),
            _ => weak_noise_program(n, n_ops, shape_seed),
        };
        let (mut traj, slots) = ReplayProgram::compile_with_slots(&program);
        let (mut exact, exact_slots) = ExactReplayProgram::compile_with_slots(&program);
        prop_assert_eq!(&slots, &exact_slots);
        prop_assert_eq!(slots.len(), program.ops().len());
        prop_assert_eq!(traj.n_ops(), exact.n_ops());
        prop_assert_eq!(traj.n_diag_ops(), exact.n_diag_ops());
        prop_assert_eq!(traj.n_channels(), exact.n_channels());

        let (rebound, values) = rebind(&program, shift);
        for (&slot, value) in slots.iter().zip(values) {
            match value {
                Some(Rebound::Diag(d)) => {
                    traj.substitute_diag(slot, d);
                    exact.substitute_diag(slot, d);
                }
                Some(Rebound::Unitary(m)) => {
                    traj.substitute_unitary(slot, &m);
                    exact.substitute_unitary(slot, &m);
                }
                None => {}
            }
        }
        let fresh_traj = ReplayProgram::compile(&rebound);
        let fresh_exact = ExactReplayProgram::compile(&rebound);
        prop_assert_eq!(fresh_traj.n_ops(), traj.n_ops());
        prop_assert_eq!(fresh_exact.n_diag_ops(), exact.n_diag_ops());

        let obs = diag_observable(n);
        let engine = ReplayEngine::new(24, shape_seed);
        assert_same_bits(
            &engine.expectations(&fresh_traj, &obs, &NoProfile),
            &engine.expectations(&traj, &obs, &NoProfile),
            0,
        );
        prop_assert_eq!(
            engine.sample_counts_with(&fresh_traj, |bits, _| bits, &NoProfile),
            engine.sample_counts_with(&traj, |bits, _| bits, &NoProfile)
        );
        let replay = |tape: &ExactReplayProgram| {
            state_bits(ExactReplayEngine::for_program(tape).run(tape, &NoProfile))
        };
        let (substituted, fresh) = (replay(&exact), replay(&fresh_exact));
        prop_assert!(substituted == fresh, "substituted exact tape moved a bit");
    }
}

/// A two-qubit mixed-unitary channel (`I`, `XX`, `ZZ` branches): its
/// picks apply through the grouped two-qubit sweeps.
fn two_qubit_mixed_op(p: f64) -> ChannelOp {
    let xx = sigma_x().kron(&sigma_x());
    let zz = sigma_z().kron(&sigma_z());
    let id = Matrix::identity(4);
    let probs = vec![1.0 - p, p / 2.0, p / 2.0];
    let kraus = vec![
        id.scale(c64(probs[0].sqrt(), 0.0)),
        xx.scale(c64(probs[1].sqrt(), 0.0)),
        zz.scale(c64(probs[2].sqrt(), 0.0)),
    ];
    ChannelOp::mixed_unitary(kraus, probs, vec![id, xx, zz])
}

/// A fixed program at a served width that puts every op kind on the
/// low target bits (0, 1 and 2) and on the top bit, where the kernels'
/// amplitude runs are shortest and longest: fused diagonal runs of
/// one- and two-qubit diagonals, dense 1q gates, dense 2q gates with
/// both targets low (in both orders) and with the top bit, 1q and 2q
/// mixed-unitary channels, the recorded thermal relaxation, the
/// three-operator thermal-like and two-operator damping channels, and
/// identity-`K0` channels on one and two qubits. Strong and weak noise
/// alternate, so blocks both split and fuse at channels, and every
/// deferred scale is consumed by a different successor kind.
fn served_width_program(n: usize, seed: u64) -> TrajectoryProgram {
    let top = n - 1;
    let low = [0, 1, 2, top];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut angle = move || rng.gen_range(-3.0f64..3.0);
    let mut program = TrajectoryProgram::new(n);
    for q in 0..n {
        program.push_gate(Gate::H, &[q]);
    }
    for (layer, strength) in [0.3, 2e-3, 0.45].into_iter().enumerate() {
        // A diagonal run over every low-bit pairing and the top bit.
        for q in low {
            program.push_gate(Gate::Rz(Param::bound(angle())), &[q]);
        }
        for (a, b) in [
            (0, 1),
            (2, 1),
            (0, 2),
            (0, top),
            (top, 1),
            (top - 1, top),
            (3, 7),
        ] {
            program.push_gate(Gate::Rzz(Param::bound(angle())), &[a, b]);
        }
        program.push_gate(Gate::CZ, &[1, 0]);
        // Each channel kind on each low bit, each followed by a
        // different successor kind.
        for (i, &q) in low.iter().enumerate() {
            let channel = match (i + layer) % 6 {
                0 => thermal_relaxation_op(strength, strength / 2.0),
                1 => depolarizing_op(strength),
                2 => identity_k0_op(strength),
                3 => thermal_like_op(strength, strength / 3.0),
                4 => amplitude_damping_op(strength),
                _ => thermal_relaxation_op(strength, 0.0),
            };
            program.push_channel(channel, &[q]);
            match (i + layer) % 4 {
                0 => program.push_gate(Gate::Rz(Param::bound(angle())), &[low[(i + 1) % 4]]),
                1 => program.push_unitary(
                    Gate::Rx(Param::bound(angle())).matrix().unwrap(),
                    &[low[(i + 2) % 4]],
                ),
                2 => program.push_gate(Gate::CX, &[low[(i + 1) % 4], low[(i + 3) % 4]]),
                _ => program.push_channel(depolarizing_op(strength), &[low[(i + 3) % 4]]),
            };
        }
        // Dense 2q with both targets low, in both orders, and with the
        // top bit; a dense 1q on every low bit.
        for (a, b) in [
            (0, 1),
            (1, 0),
            (0, 2),
            (2, 1),
            (top, 0),
            (1, top),
            (top - 1, top),
            (3, 8),
        ] {
            program.push_gate(Gate::CX, &[a, b]);
        }
        for q in low {
            program.push_unitary(Gate::Rx(Param::bound(angle())).matrix().unwrap(), &[q]);
        }
        program.push_channel(two_qubit_mixed_op(strength), &[0, top]);
        let k0 = Matrix::identity(4).scale(c64((1.0 - strength).sqrt(), 0.0));
        let xx = sigma_x().kron(&sigma_x()).scale(c64(strength.sqrt(), 0.0));
        program.push_channel(ChannelOp::general(vec![k0, xx]), &[1, 2]);
        for q in low {
            program.push_channel(thermal_relaxation_op(strength, strength), &[q]);
        }
    }
    program.push_channel(thermal_relaxation_op(0.3, 0.1), &[top]);
    program
}

/// The served-width kernels against the reference at narrow blocks: at
/// 10 and 11 qubits, every block size from 1 to 8 on an 11-shot
/// ensemble (so every size but 1 and 11 leaves a ragged final block),
/// and at 12 qubits the 1- to 3-shot blocks of a 5-shot ensemble.
#[test]
fn served_widths_match_at_narrow_blocks() {
    for n in [10, 11] {
        let program = served_width_program(n, 0x5EED + n as u64);
        for block in 1..=8 {
            assert_block_parity(&program, 11, 17, block);
        }
    }
    let program = served_width_program(12, 0x5EED);
    for block in 1..=3 {
        assert_block_parity(&program, 5, 23, block);
    }
}
