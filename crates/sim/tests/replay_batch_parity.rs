//! Property suite pinning the batched SoA replay path to the scalar
//! [`ReplayEngine`] loop, bit for bit: for random programs weighted
//! toward the branch-divergent cases (general channels whose `K_0` is
//! *not* an identity multiple, so resident shots of one block pick
//! different Kraus branches and the lockstep sweeps must mask), random
//! ensemble seeds, odd and non-power-of-two ensemble sizes, and block
//! sizes that do not divide the ensemble (including single-shot
//! blocks), every per-trajectory expectation and every sampled count
//! must reproduce the scalar engine exactly — same seed stream, same
//! branch picks, same floating-point bits.
//!
//! The scalar engine is itself pinned to the reference
//! [`TrajectoryEngine`] by `replay_parity.rs`, so these tests
//! transitively anchor the batched path to the original per-shot
//! simulator.
//!
//! The strong-noise programs split nearly every block across branch
//! groups. The weak-noise programs cover the opposite regime, where
//! every resident shot of a block picks the diagonal `K_0` of a thermal
//! relaxation and the batched engine fuses that branch's apply with its
//! norm scan; they are checked against both the scalar engine and the
//! reference [`TrajectoryEngine`] directly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgp_circuit::{Gate, Param};
use hgp_math::pauli::{sigma_x, sigma_y, sigma_z, Pauli, PauliString, PauliSum};
use hgp_math::{c64, Matrix};
use hgp_sim::{ChannelOp, ReplayEngine, ReplayProgram, TrajectoryEngine, TrajectoryProgram};

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
                program.push_channel(depolarizing_op(rng.gen_range(0.2f64..0.8)), &[q]);
            }
            _ => {
                // Strong decay/dephasing: branch weights spread far from
                // the K0-dominant regime.
                if rng.gen::<bool>() {
                    program.push_channel(thermal_like_op(rng.gen_range(0.1f64..0.7), 0.2), &[q]);
                } else {
                    program.push_channel(amplitude_damping_op(rng.gen_range(0.1f64..0.8)), &[q]);
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
        thermal_like_op(rng.gen_range(1e-4f64..1e-3), rng.gen_range(1e-4f64..1e-3))
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
                if rng.gen::<bool>() {
                    program.push_channel(thermal_like_op(0.4, 0.2), &[q]);
                } else {
                    program.push_channel(amplitude_damping_op(0.5), &[q]);
                }
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

/// Asserts the batched engine at `block` reproduces the scalar engine
/// and the reference engine bit for bit: per-trajectory expectations,
/// sampled counts, and counts with an RNG-consuming corruption hook.
fn assert_weak_noise_parity(
    program: &TrajectoryProgram,
    trajectories: usize,
    seed: u64,
    block: usize,
) {
    let replay = ReplayProgram::compile(program);
    let obs = diag_observable(program.n_qubits());
    let scalar = ReplayEngine::new(trajectories, seed);
    let batched = scalar.with_block_size(block);
    let reference = TrajectoryEngine::new(trajectories, seed).expectations(program, &obs);
    let a = scalar.expectations(&replay, &obs);
    let b = batched.expectations_batched(&replay, &obs);
    assert_eq!(reference.len(), b.len());
    for ((r, x), y) in reference.iter().zip(a.iter()).zip(b.iter()) {
        assert_eq!(r.to_bits(), y.to_bits(), "block size {block}");
        assert_eq!(x.to_bits(), y.to_bits(), "block size {block}");
    }
    let counts = batched.sample_counts_batched(&replay);
    assert_eq!(scalar.sample_counts(&replay), counts, "block size {block}");
    assert_eq!(
        TrajectoryEngine::new(trajectories, seed).sample_counts(program),
        counts,
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
        scalar.sample_counts_with(&replay, corrupt),
        batched.sample_counts_with_batched(&replay, corrupt),
        "block size {block}"
    );
}

fn diag_observable(n: usize) -> PauliSum {
    PauliSum::from_terms(vec![
        PauliString::new(n, vec![(0, Pauli::Z)], 1.0),
        PauliString::new(n, vec![(n - 1, Pauli::Z)], -0.5),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Divergence-heavy programs, arbitrary (odd, prime, non-dividing)
    /// block splits: per-trajectory expectations and the ensemble
    /// mean/error must match the scalar loop bitwise.
    #[test]
    fn batched_expectations_match_scalar_bitwise(
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
        let scalar = ReplayEngine::new(trajectories, ensemble_seed);
        let batched = scalar.with_block_size(block);
        let a = scalar.expectations(&replay, &obs);
        let b = batched.expectations_batched(&replay, &obs);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        let (m1, e1) = scalar.expectation_with_error(&replay, &obs);
        let (m2, e2) = batched.expectation_with_error_batched(&replay, &obs);
        prop_assert_eq!(m1.to_bits(), m2.to_bits());
        prop_assert_eq!(e1.to_bits(), e2.to_bits());
    }

    /// Sampled counts — including a corruption hook that consumes the
    /// per-shot RNG tail — must match for every block split.
    #[test]
    fn batched_counts_match_scalar_bitwise(
        n in 1usize..5,
        n_ops in 1usize..16,
        shape_seed in 0u64..1_000_000,
        ensemble_seed in 0u64..1_000_000,
        shots in 1usize..80,
        block in 1usize..48,
    ) {
        let program = divergent_program(n, n_ops, shape_seed);
        let replay = ReplayProgram::compile(&program);
        let scalar = ReplayEngine::new(shots, ensemble_seed);
        let batched = scalar.with_block_size(block);
        prop_assert_eq!(
            scalar.sample_counts(&replay),
            batched.sample_counts_batched(&replay)
        );
        let corrupt = |bits: usize, rng: &mut StdRng| {
            if rng.gen::<f64>() < 0.2 { bits ^ 1 } else { bits }
        };
        prop_assert_eq!(
            scalar.sample_counts_with(&replay, corrupt),
            batched.sample_counts_with_batched(&replay, corrupt)
        );
    }

    /// Non-diagonal observables take the per-shot extraction fallback —
    /// the amplitudes handed to it must match the scalar state exactly
    /// where it matters: the expectations stay bit-identical.
    #[test]
    fn batched_non_diagonal_observables_match_bitwise(
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
        let scalar = ReplayEngine::new(17, ensemble_seed);
        let a = scalar.expectations(&replay, &obs);
        let b = scalar
            .with_block_size(block)
            .expectations_batched(&replay, &obs);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Weak-noise programs, where most channels fuse the `K_0` apply
    /// with its norm scan and a few split into branch groups: the
    /// batched engine must match the scalar and reference engines for
    /// every block size up to 33.
    #[test]
    fn weak_noise_batched_runs_match_scalar_and_reference(
        n in 1usize..6,
        n_ops in 1usize..14,
        shape_seed in 0u64..1_000_000,
        ensemble_seed in 0u64..1_000_000,
        trajectories in 1usize..48,
        block in 1usize..34,
    ) {
        let program = weak_noise_program(n, n_ops, shape_seed);
        assert_weak_noise_parity(&program, trajectories, ensemble_seed, block);
    }
}

/// One fixed weak-noise program at every block size from 1 to 33 on a
/// 33-shot ensemble: blocks that fuse every channel, blocks that split
/// at the strong ones, and ragged final blocks.
#[test]
fn every_block_split_of_a_weak_noise_ensemble_matches() {
    let program = weak_noise_program(5, 16, 0xBEEF);
    for block in 1..=33 {
        assert_weak_noise_parity(&program, 33, 5, block);
    }
}

/// Every block size from single-shot blocks up through one past the
/// ensemble, on an odd ensemble size, against one fixed
/// divergence-heavy program: the exhaustive small-scale version of the
/// block-split property.
#[test]
fn every_block_split_of_an_odd_ensemble_matches() {
    let n = 3;
    let shots = 29;
    let program = divergent_program(n, 14, 0xDECAF);
    let replay = ReplayProgram::compile(&program);
    let obs = diag_observable(n);
    let scalar = ReplayEngine::new(shots, 7);
    let reference = scalar.expectations(&replay, &obs);
    let ref_counts = scalar.sample_counts(&replay);
    for block in 1..=shots + 1 {
        let batched = scalar.with_block_size(block);
        let got = batched.expectations_batched(&replay, &obs);
        assert_eq!(reference.len(), got.len());
        for (x, y) in reference.iter().zip(got.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "block size {block}");
        }
        assert_eq!(
            ref_counts,
            batched.sample_counts_batched(&replay),
            "block size {block}"
        );
    }
}

/// A live profiling sink shared across the batched worker pool only
/// observes: per-shot expectations and sampled counts stay
/// bit-identical, and the whole ensemble's tape ops are attributed.
#[test]
fn profiled_batched_runs_are_bit_identical_and_attributed() {
    use hgp_sim::OpProfile;
    let n = 3;
    let program = divergent_program(n, 14, 0xC0FFEE);
    let replay = ReplayProgram::compile(&program);
    let obs = diag_observable(n);
    let engine = ReplayEngine::new(33, 11).with_block_size(8);
    let sink = OpProfile::new();

    let plain = engine.expectations_batched(&replay, &obs);
    let profiled = engine.expectations_batched_profiled(&replay, &obs, &sink);
    assert_eq!(plain.len(), profiled.len());
    for (x, y) in plain.iter().zip(profiled.iter()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }

    let corrupt = |bits: usize, rng: &mut StdRng| {
        if rng.gen::<f64>() < 0.2 {
            bits ^ 1
        } else {
            bits
        }
    };
    assert_eq!(
        engine.sample_counts_with_batched(&replay, corrupt),
        engine.sample_counts_with_batched_profiled(&replay, corrupt, &sink)
    );

    let snap = sink.snapshot();
    assert!(snap.total_calls() > 0, "ops were attributed");
    let (mean_plain, err_plain) = engine.expectation_with_error_batched(&replay, &obs);
    let (mean_prof, err_prof) =
        engine.expectation_with_error_batched_profiled(&replay, &obs, &sink);
    assert_eq!(mean_plain.to_bits(), mean_prof.to_bits());
    assert_eq!(err_plain.to_bits(), err_prof.to_bits());
}
