//! The typed noise IR: [`NoiseChannel`] and [`NoiseModel`].
//!
//! Before this module, every noisy execution path hand-rolled its Kraus
//! lists inline: the simulator called the raw constructors in
//! [`crate::channels`] gate by gate, nothing could inspect or transform
//! the noise, and error mitigation had no handle to scale it. The IR
//! makes noise a *value*:
//!
//! - [`NoiseChannel`] names a channel by its physics (amplitude damping,
//!   thermal relaxation, depolarizing, ...) and owns both of its
//!   applications — the exact Kraus set
//!   ([`NoiseChannel::kraus_operators`], bit-identical to the historical
//!   inline construction) and the stochastic trajectory form
//!   ([`NoiseChannel::channel_op`]),
//! - [`NoiseModel`] is the compiled-shape artifact: built once from a
//!   [`Backend`] and a logical-to-physical layout, it caches every
//!   parameter channel construction needs (per-qubit T1/T2 and gate
//!   error, per-pair CX error and durations, readout confusion) and
//!   hands out channels per `(qubit, duration)` on demand. It also
//!   carries a *noise scale* ([`NoiseModel::scaled`]) — the handle zero
//!   noise extrapolation folds instead of folding gates.
//!
//! Channels constructed here are validated against the CPTP
//! completeness relation in debug builds ([`channels::is_cptp`]).

use std::collections::BTreeMap;

use hgp_circuit::Gate;
use hgp_device::{dt_to_us, Backend};
use hgp_math::pauli::{sigma_x, sigma_y, sigma_z};
use hgp_math::{c64, Matrix};
use hgp_sim::trajectory::ChannelOp;

use crate::channels;
use crate::readout::{QubitReadout, ReadoutModel};

/// A named quantum noise channel — the unit of the noise IR.
///
/// Constructors stay dumb: a channel is pure data, and the expensive
/// matrix work happens in [`NoiseChannel::kraus_operators`] /
/// [`NoiseChannel::channel_op`] when an execution engine asks for it.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseChannel {
    /// `|1> -> |0>` decay with probability `gamma`.
    AmplitudeDamping {
        /// Decay probability in `[0, 1]`.
        gamma: f64,
    },
    /// Pure dephasing with probability `lambda`.
    PhaseDamping {
        /// Dephasing probability in `[0, 1]`.
        lambda: f64,
    },
    /// Single-qubit depolarizing: `rho -> (1-p) rho + p I/2`.
    Depolarizing {
        /// Error probability in `[0, 1]`.
        p: f64,
    },
    /// Two-qubit depolarizing: `rho -> (1-p) rho + p I/4`.
    Depolarizing2q {
        /// Error probability in `[0, 1]`.
        p: f64,
    },
    /// Combined T1/T2 decoherence over a duration.
    ThermalRelaxation {
        /// Relaxation time, microseconds (may be infinite).
        t1_us: f64,
        /// Dephasing time, microseconds (may be infinite, `<= 2 T1`).
        t2_us: f64,
        /// Exposure duration, microseconds.
        duration_us: f64,
    },
    /// A single-qubit Pauli channel with explicit branch probabilities.
    Pauli {
        /// `[p_I, p_X, p_Y, p_Z]`, summing to 1.
        probs: [f64; 4],
    },
    /// An arbitrary channel given by its Kraus operators.
    Kraus {
        /// The operators (must satisfy the completeness relation).
        ops: Vec<Matrix>,
    },
}

impl NoiseChannel {
    /// Number of qubits the channel acts on.
    pub fn n_qubits(&self) -> usize {
        match self {
            NoiseChannel::Depolarizing2q { .. } => 2,
            NoiseChannel::Kraus { ops } => ops[0].rows().trailing_zeros() as usize,
            _ => 1,
        }
    }

    /// `true` when the channel is exactly the identity map, so every
    /// application can be skipped.
    pub fn is_trivial(&self) -> bool {
        match self {
            NoiseChannel::AmplitudeDamping { gamma } => *gamma == 0.0,
            NoiseChannel::PhaseDamping { lambda } => *lambda == 0.0,
            NoiseChannel::Depolarizing { p } | NoiseChannel::Depolarizing2q { p } => *p == 0.0,
            NoiseChannel::ThermalRelaxation {
                t1_us,
                t2_us,
                duration_us,
            } => *duration_us == 0.0 || (!t1_us.is_finite() && !t2_us.is_finite()),
            NoiseChannel::Pauli { probs } => probs[0] == 1.0,
            NoiseChannel::Kraus { .. } => false,
        }
    }

    /// The exact Kraus operators, constructed through the same
    /// [`crate::channels`] routines the pre-IR simulator inlined —
    /// density-matrix results through the IR are **bit-identical** to
    /// the historical path.
    ///
    /// Debug builds validate the completeness relation
    /// (`sum_k K_k† K_k = I`) on every construction.
    pub fn kraus_operators(&self) -> Vec<Matrix> {
        let kraus = match self {
            NoiseChannel::AmplitudeDamping { gamma } => channels::amplitude_damping(*gamma),
            NoiseChannel::PhaseDamping { lambda } => channels::phase_damping(*lambda),
            NoiseChannel::Depolarizing { p } => channels::depolarizing(*p),
            NoiseChannel::Depolarizing2q { p } => channels::depolarizing_2q(*p),
            NoiseChannel::ThermalRelaxation {
                t1_us,
                t2_us,
                duration_us,
            } => channels::thermal_relaxation(*t1_us, *t2_us, *duration_us),
            NoiseChannel::Pauli { probs } => {
                let paulis = [Matrix::identity(2), sigma_x(), sigma_y(), sigma_z()];
                probs
                    .iter()
                    .zip(paulis.iter())
                    .map(|(&p, m)| m.scale(c64(p.sqrt(), 0.0)))
                    .collect()
            }
            NoiseChannel::Kraus { ops } => ops.clone(),
        };
        debug_assert!(
            channels::is_cptp(&kraus, 1e-9),
            "constructed channel {self:?} violates the completeness relation"
        );
        kraus
    }

    /// The channel in trajectory form: the exact Kraus set plus the
    /// sampling strategy. Mixed-unitary channels (depolarizing, Pauli)
    /// sample branches state-independently; damping channels use
    /// state-dependent branch weights.
    pub fn channel_op(&self) -> ChannelOp {
        let kraus = self.kraus_operators();
        match self {
            NoiseChannel::Depolarizing { p } => ChannelOp::mixed_unitary(
                kraus,
                vec![1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0],
                vec![Matrix::identity(2), sigma_x(), sigma_y(), sigma_z()],
            ),
            NoiseChannel::Depolarizing2q { p } => {
                let paulis = [Matrix::identity(2), sigma_x(), sigma_y(), sigma_z()];
                let mut probs = Vec::with_capacity(16);
                let mut unitaries = Vec::with_capacity(16);
                for (i, a) in paulis.iter().enumerate() {
                    for (j, b) in paulis.iter().enumerate() {
                        probs.push(if i == 0 && j == 0 {
                            1.0 - 15.0 * p / 16.0
                        } else {
                            p / 16.0
                        });
                        unitaries.push(a.kron(b));
                    }
                }
                ChannelOp::mixed_unitary(kraus, probs, unitaries)
            }
            NoiseChannel::Pauli { probs } => ChannelOp::mixed_unitary(
                kraus,
                probs.to_vec(),
                vec![Matrix::identity(2), sigma_x(), sigma_y(), sigma_z()],
            ),
            _ => ChannelOp::general(kraus),
        }
    }
}

/// Decoherence and error parameters of one logical qubit (copied from
/// the physical qubit its layout entry names).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitNoise {
    /// Relaxation time, microseconds.
    pub t1_us: f64,
    /// Dephasing time, microseconds (clamped to `2 T1` at model build).
    pub t2_us: f64,
    /// Depolarizing error per calibrated single-qubit pulse.
    pub gate_error: f64,
    /// Readout confusion parameters.
    pub readout: QubitReadout,
}

/// Two-qubit parameters of one coupled logical pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairNoise {
    /// Depolarizing error per CX-equivalent.
    pub cx_error: f64,
    /// Echoed-CR CNOT duration, `dt`.
    pub cx_duration_dt: u32,
    /// One CR half-pulse duration, `dt`.
    pub cr_duration_dt: u32,
}

/// The compiled-shape noise artifact. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    qubits: Vec<QubitNoise>,
    /// Keyed by the sorted logical pair (coupler lookups are
    /// order-insensitive, like [`Backend::edge`]).
    pairs: BTreeMap<(usize, usize), PairNoise>,
    pulse_1q_duration_dt: u32,
    scale: f64,
}

impl NoiseModel {
    /// Builds the model for a logical register laid out on `backend`
    /// (`layout[i]` = physical qubit of logical qubit `i`), at noise
    /// scale 1.
    ///
    /// Unphysical calibration data with `T2 > 2 T1` is clamped to the
    /// CPTP boundary `T2 = 2 T1`.
    ///
    /// # Panics
    ///
    /// Panics if a layout entry is out of range or repeated.
    pub fn from_backend(backend: &Backend, layout: &[usize]) -> Self {
        for (i, &p) in layout.iter().enumerate() {
            assert!(p < backend.n_qubits(), "physical qubit {p} out of range");
            assert!(!layout[..i].contains(&p), "physical qubit {p} repeated");
        }
        let qubits = layout
            .iter()
            .map(|&p| {
                let qp = backend.qubit(p);
                QubitNoise {
                    t1_us: qp.t1_us,
                    t2_us: qp.t2_us.min(2.0 * qp.t1_us),
                    gate_error: qp.x_error,
                    readout: QubitReadout::symmetric(qp.readout_error),
                }
            })
            .collect();
        let mut pairs = BTreeMap::new();
        for a in 0..layout.len() {
            for b in (a + 1)..layout.len() {
                if backend.coupling_map().are_coupled(layout[a], layout[b]) {
                    let e = backend.edge(layout[a], layout[b]);
                    pairs.insert(
                        (a, b),
                        PairNoise {
                            cx_error: e.cx_error,
                            cx_duration_dt: backend.cx_duration_dt(layout[a], layout[b]),
                            cr_duration_dt: e.cr_duration_dt,
                        },
                    );
                }
            }
        }
        Self {
            qubits,
            pairs,
            pulse_1q_duration_dt: backend.pulse_1q_duration_dt(),
            scale: 1.0,
        }
    }

    /// A noiseless model over `n_qubits` (infinite coherence, zero
    /// error, all-to-all coupling with ideal-backend durations).
    pub fn ideal(n_qubits: usize) -> Self {
        Self::from_backend(
            &Backend::ideal(n_qubits),
            &(0..n_qubits).collect::<Vec<_>>(),
        )
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Parameters of logical qubit `q`.
    pub fn qubit(&self, q: usize) -> &QubitNoise {
        &self.qubits[q]
    }

    /// Parameters of a coupled logical pair (order-insensitive), if the
    /// pair is coupled.
    pub fn pair(&self, a: usize, b: usize) -> Option<&PairNoise> {
        let key = if a < b { (a, b) } else { (b, a) };
        self.pairs.get(&key)
    }

    /// The calibrated single-qubit pulse duration, `dt`.
    pub fn pulse_1q_duration_dt(&self) -> u32 {
        self.pulse_1q_duration_dt
    }

    /// The model's noise amplification factor (1 = calibrated noise).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// A copy with all noise strengths amplified by `factor`:
    /// decoherence exposure times and depolarizing probabilities scale
    /// multiplicatively (probabilities clamp at 1). Readout confusion is
    /// **not** scaled — it is not amplified by circuit folding either,
    /// and zero-noise extrapolation treats it separately (M3's job).
    ///
    /// At `factor = 1` the copy is exactly `self`; channel construction
    /// multiplies by the scale in a way that keeps scale-1 results
    /// bit-identical to an unscaled model.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "noise scale must be finite and non-negative (got {factor})"
        );
        Self {
            scale: self.scale * factor,
            ..self.clone()
        }
    }

    /// The readout model of the register.
    pub fn readout(&self) -> ReadoutModel {
        ReadoutModel::new(self.qubits.iter().map(|q| q.readout).collect())
    }

    /// Duration of a gate on logical operands, `dt` — the logical-space
    /// mirror of [`crate::durations::gate_duration_dt`] (pinned to it by
    /// parity tests). Durations are physics, not noise: they do **not**
    /// scale with the noise factor.
    ///
    /// # Panics
    ///
    /// Panics if a two-qubit gate spans a non-coupled logical pair.
    pub fn gate_duration_dt(&self, gate: &Gate, qubits: &[usize]) -> u32 {
        let p1 = self.pulse_1q_duration_dt;
        let pair = |a: usize, b: usize| {
            self.pair(a, b)
                .unwrap_or_else(|| panic!("logical pair ({a}, {b}) is not a coupler"))
        };
        match gate {
            Gate::I | Gate::Z | Gate::S | Gate::Sdg | Gate::T | Gate::Tdg | Gate::Rz(_) => 0,
            Gate::X | Gate::Y | Gate::SX | Gate::H => p1,
            Gate::Rx(_) | Gate::Ry(_) | Gate::U3(..) => 2 * p1,
            Gate::CX => pair(qubits[0], qubits[1]).cx_duration_dt,
            Gate::CZ => pair(qubits[0], qubits[1]).cx_duration_dt + 2 * p1,
            Gate::Swap => 3 * pair(qubits[0], qubits[1]).cx_duration_dt,
            Gate::Rzz(_) => 2 * pair(qubits[0], qubits[1]).cx_duration_dt,
            Gate::Rzx(_) => 2 * pair(qubits[0], qubits[1]).cr_duration_dt + 2 * p1,
        }
    }

    /// The thermal-relaxation channel of logical qubit `q` idling (or
    /// gating) for `duration_dt`, or `None` when the exposure is free of
    /// decoherence (zero duration, infinite T1 *and* T2, or a
    /// zeroed-out noise scale) — identity channels are never emitted, so
    /// a scale-0 model runs on channel-free engines (statevector) too.
    pub fn idle_channel(&self, q: usize, duration_dt: u32) -> Option<NoiseChannel> {
        if duration_dt == 0 {
            return None;
        }
        let qn = &self.qubits[q];
        if !qn.t1_us.is_finite() && !qn.t2_us.is_finite() {
            return None;
        }
        let channel = NoiseChannel::ThermalRelaxation {
            t1_us: qn.t1_us,
            t2_us: qn.t2_us,
            duration_us: dt_to_us(duration_dt) * self.scale,
        };
        (!channel.is_trivial()).then_some(channel)
    }

    /// The depolarizing error of a single-qubit gate of `duration_dt` on
    /// logical qubit `q` (error scales with the calibrated pulse count),
    /// or `None` when the rate vanishes.
    pub fn gate_error_1q(&self, q: usize, duration_dt: u32) -> Option<NoiseChannel> {
        let pulses = f64::from(duration_dt) / f64::from(self.pulse_1q_duration_dt);
        let p = (self.qubits[q].gate_error * pulses * self.scale).clamp(0.0, 1.0);
        (p > 0.0).then_some(NoiseChannel::Depolarizing { p })
    }

    /// The two-qubit depolarizing error of a gate of `duration_dt` on
    /// the coupled logical pair `(a, b)` (error scales with
    /// CX-equivalents), or `None` when the rate vanishes.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not coupled.
    pub fn gate_error_2q(&self, a: usize, b: usize, duration_dt: u32) -> Option<NoiseChannel> {
        let pn = self
            .pair(a, b)
            .unwrap_or_else(|| panic!("logical pair ({a}, {b}) is not a coupler"));
        let cx_equiv = f64::from(duration_dt) / f64::from(pn.cx_duration_dt);
        let p = (pn.cx_error * cx_equiv * self.scale).clamp(0.0, 1.0);
        (p > 0.0).then_some(NoiseChannel::Depolarizing2q { p })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durations::gate_duration_dt;
    use hgp_circuit::Param;
    use hgp_sim::{DensityMatrix, SimBackend, StateVector};

    #[test]
    fn channels_expose_their_exact_kraus_sets() {
        for ch in [
            NoiseChannel::AmplitudeDamping { gamma: 0.3 },
            NoiseChannel::PhaseDamping { lambda: 0.2 },
            NoiseChannel::Depolarizing { p: 0.1 },
            NoiseChannel::Depolarizing2q { p: 0.05 },
            NoiseChannel::ThermalRelaxation {
                t1_us: 100.0,
                t2_us: 80.0,
                duration_us: 0.5,
            },
            NoiseChannel::Pauli {
                probs: [0.9, 0.04, 0.03, 0.03],
            },
        ] {
            let kraus = ch.kraus_operators();
            assert!(channels::is_cptp(&kraus, 1e-12), "{ch:?}");
            assert_eq!(kraus[0].rows(), 1 << ch.n_qubits());
        }
    }

    #[test]
    fn mixed_unitary_channels_sample_state_independently() {
        assert!(NoiseChannel::Depolarizing { p: 0.2 }
            .channel_op()
            .is_mixed_unitary());
        assert!(NoiseChannel::Depolarizing2q { p: 0.2 }
            .channel_op()
            .is_mixed_unitary());
        assert!(NoiseChannel::Pauli {
            probs: [0.7, 0.1, 0.1, 0.1]
        }
        .channel_op()
        .is_mixed_unitary());
        assert!(!NoiseChannel::AmplitudeDamping { gamma: 0.2 }
            .channel_op()
            .is_mixed_unitary());
    }

    #[test]
    fn trajectory_and_exact_forms_agree_on_a_pauli_channel() {
        // Ensemble mean of the sampled channel converges to the exact map.
        use hgp_math::pauli::{Pauli, PauliString, PauliSum};
        use hgp_sim::{TrajectoryEngine, TrajectoryProgram};
        let ch = NoiseChannel::Pauli {
            probs: [0.8, 0.05, 0.05, 0.1],
        };
        let mut program = TrajectoryProgram::new(1);
        program.push_gate(Gate::H, &[0]);
        program.push_channel(ch.channel_op(), &[0]);
        let mut rho = DensityMatrix::init(1);
        program.apply_exact(&mut rho);
        let x = PauliSum::from_terms(vec![PauliString::new(1, vec![(0, Pauli::X)], 1.0)]);
        let exact = SimBackend::expectation(&rho, &x);
        let mean = TrajectoryEngine::new(8192, 3).expectation(&program, &x);
        assert!((mean - exact).abs() < 0.04, "{mean} vs {exact}");
    }

    #[test]
    fn model_copies_layout_parameters() {
        let backend = Backend::ibmq_toronto();
        let model = NoiseModel::from_backend(&backend, &[3, 5]);
        assert_eq!(model.n_qubits(), 2);
        assert_eq!(model.qubit(0).t1_us, backend.qubit(3).t1_us);
        assert_eq!(model.qubit(1).gate_error, backend.qubit(5).x_error);
        assert_eq!(model.qubit(0).readout.p01, backend.qubit(3).readout_error);
        assert!((model.scale() - 1.0).abs() == 0.0);
    }

    #[test]
    fn model_durations_match_backend_durations() {
        let backend = Backend::ibmq_guadalupe();
        let layout = vec![1, 2, 3, 5];
        let model = NoiseModel::from_backend(&backend, &layout);
        let gates: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::X, vec![0]),
            (Gate::H, vec![2]),
            (Gate::Rz(Param::bound(0.3)), vec![1]),
            (Gate::Rx(Param::bound(0.3)), vec![3]),
            (Gate::CX, vec![0, 1]),
            (Gate::CZ, vec![1, 2]),
            (Gate::Rzz(Param::bound(0.7)), vec![2, 3]),
            (Gate::Rzx(Param::bound(0.7)), vec![0, 1]),
            (Gate::Swap, vec![1, 2]),
        ];
        for (gate, qubits) in gates {
            let phys: Vec<usize> = qubits.iter().map(|&q| layout[q]).collect();
            assert_eq!(
                model.gate_duration_dt(&gate, &qubits),
                gate_duration_dt(&backend, &gate, &phys),
                "{gate:?}"
            );
        }
    }

    #[test]
    fn ideal_model_emits_no_channels() {
        let model = NoiseModel::ideal(3);
        assert!(model.idle_channel(0, 480).is_none());
        assert!(model.gate_error_1q(1, 160).is_none());
        assert!(model.gate_error_2q(0, 1, 320).is_none());
    }

    #[test]
    fn scale_one_channels_are_bit_identical_to_inline_construction() {
        let backend = Backend::ibmq_toronto();
        let model = NoiseModel::from_backend(&backend, &[0, 1]);
        let qp = backend.qubit(0);
        // Thermal relaxation: same parameters, same matrices.
        let by_model = model.idle_channel(0, 320).unwrap().kraus_operators();
        let inline = channels::thermal_relaxation(qp.t1_us, qp.t2_us, dt_to_us(320));
        assert_eq!(by_model.len(), inline.len());
        for (a, b) in by_model.iter().zip(inline.iter()) {
            for r in 0..2 {
                for c in 0..2 {
                    assert_eq!(a[(r, c)].re.to_bits(), b[(r, c)].re.to_bits());
                    assert_eq!(a[(r, c)].im.to_bits(), b[(r, c)].im.to_bits());
                }
            }
        }
        // Gate error: identical probability arithmetic.
        let pulses = 320.0 / f64::from(backend.pulse_1q_duration_dt());
        let p_inline = (qp.x_error * pulses).clamp(0.0, 1.0);
        match model.gate_error_1q(0, 320).unwrap() {
            NoiseChannel::Depolarizing { p } => assert_eq!(p.to_bits(), p_inline.to_bits()),
            other => panic!("unexpected channel {other:?}"),
        }
    }

    #[test]
    fn scaling_amplifies_channel_strength() {
        let backend = Backend::ibmq_toronto();
        let model = NoiseModel::from_backend(&backend, &[0, 1]);
        let tripled = model.scaled(3.0);
        assert_eq!(tripled.scale(), 3.0);
        // Depolarizing probability triples (below the clamp).
        let p1 = match model.gate_error_1q(0, 160).unwrap() {
            NoiseChannel::Depolarizing { p } => p,
            _ => unreachable!(),
        };
        let p3 = match tripled.gate_error_1q(0, 160).unwrap() {
            NoiseChannel::Depolarizing { p } => p,
            _ => unreachable!(),
        };
        assert!((p3 - 3.0 * p1).abs() < 1e-15);
        // Thermal exposure time triples.
        match tripled.idle_channel(0, 160).unwrap() {
            NoiseChannel::ThermalRelaxation { duration_us, .. } => {
                assert!((duration_us - 3.0 * dt_to_us(160)).abs() < 1e-12);
            }
            _ => unreachable!(),
        }
        // Scale 0 silences gate error entirely.
        assert!(model.scaled(0.0).gate_error_1q(0, 160).is_none());
        // Scaling composes multiplicatively.
        assert_eq!(model.scaled(2.0).scaled(1.5).scale(), 3.0);
    }

    #[test]
    fn zeroed_scale_emits_no_channels_and_runs_on_the_statevector() {
        // The ZNE noiseless endpoint: a scale-0 model must emit no
        // channels at all (identity channels would panic the
        // channel-free statevector engine and waste O(4^n) work on the
        // density matrix).
        let backend = Backend::ibmq_toronto();
        let model = NoiseModel::from_backend(&backend, &[0, 1]).scaled(0.0);
        assert!(model.idle_channel(0, 640).is_none());
        assert!(model.gate_error_1q(0, 160).is_none());
        assert!(model.gate_error_2q(0, 1, 320).is_none());
        let sim = crate::NoisySimulator::new(&backend);
        let mut qc = hgp_circuit::Circuit::new(2);
        qc.h(0).cx(0, 1);
        let psi: StateVector = sim.simulate_with_model(&qc, &model).unwrap();
        let ideal = StateVector::from_circuit(&qc).unwrap();
        assert!((psi.fidelity(&ideal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_noise_degrades_the_state_further() {
        let backend = Backend::ibmq_toronto();
        let model = NoiseModel::from_backend(&backend, &[0, 1]);
        let purity = |m: &NoiseModel| {
            let mut rho = DensityMatrix::zero_state(2);
            rho.apply_gate(&Gate::H, &[0]).unwrap();
            rho.apply_gate(&Gate::CX, &[0, 1]).unwrap();
            for q in 0..2 {
                if let Some(ch) = m.idle_channel(q, 640) {
                    rho.apply_kraus(&ch.kraus_operators(), &[q]);
                }
                if let Some(ch) = m.gate_error_1q(q, 160) {
                    rho.apply_kraus(&ch.kraus_operators(), &[q]);
                }
            }
            rho.purity()
        };
        let base = purity(&model);
        let amplified = purity(&model.scaled(3.0));
        assert!(amplified < base, "{amplified} vs {base}");
        let _ = StateVector::zero_state(1);
    }

    #[test]
    #[should_panic(expected = "not a coupler")]
    fn uncoupled_pair_duration_panics() {
        let backend = Backend::ibmq_guadalupe();
        let model = NoiseModel::from_backend(&backend, &[0, 15]);
        let _ = model.gate_duration_dt(&Gate::CX, &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_layout_entry_panics() {
        let _ = NoiseModel::from_backend(&Backend::ideal(3), &[0, 0]);
    }
}
