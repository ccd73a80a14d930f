//! Backend models: coupling, calibration, per-qubit and per-edge physics.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calibration::Calibration;
use crate::coupling::CouplingMap;
use crate::{DT_NS, PULSE_1Q_DT};

/// Physics and error parameters of one qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitParams {
    /// Qubit transition frequency, GHz.
    pub frequency_ghz: f64,
    /// Transmon anharmonicity, GHz (negative).
    pub anharmonicity_ghz: f64,
    /// Relaxation time, microseconds.
    pub t1_us: f64,
    /// Dephasing time, microseconds.
    pub t2_us: f64,
    /// Single-qubit (X / SX) gate error.
    pub x_error: f64,
    /// Readout assignment error (symmetric model).
    pub readout_error: f64,
    /// Peak Rabi rate at unit drive amplitude, rad per `dt`.
    ///
    /// A resonant drive with envelope `amp * env(t)` rotates the qubit at
    /// instantaneous rate `amp * env(t) * drive_strength` rad/dt.
    pub drive_strength: f64,
    /// Residual frequency offset between the control frame and the actual
    /// qubit frequency, rad per `dt` (slow drift the daily calibration
    /// missed). Coherent: pulse-level frequency tuning can cancel it;
    /// gate-level users cannot see it (paper §IV-A.2).
    pub freq_offset: f64,
    /// Fractional miscalibration of the calibrated pulse amplitude
    /// (over/under-rotation of X/SX-derived gates). Coherent: trainable
    /// pulse amplitudes absorb it.
    pub amp_error: f64,
}

/// Physics and error parameters of one coupler (edge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoQubitParams {
    /// CNOT gate error.
    pub cx_error: f64,
    /// Cross-resonance ZX coefficient (fraction of the drive strength that
    /// becomes a `Z(x)X` rotation rate).
    pub mu_zx: f64,
    /// Spurious IX coefficient of the CR drive.
    pub mu_ix: f64,
    /// Spurious ZI (Stark-shift-like) coefficient of the CR drive.
    pub mu_zi: f64,
    /// Duration of one CR half-pulse, in `dt`.
    pub cr_duration_dt: u32,
}

/// A superconducting quantum backend.
///
/// ```
/// use hgp_device::Backend;
/// let b = Backend::ibmq_guadalupe();
/// assert_eq!(b.n_qubits(), 16);
/// let q0 = b.qubit(0);
/// assert!(q0.t1_us > 10.0);
/// let cx_dt = b.cx_duration_dt(0, 1);
/// assert!(cx_dt > 500);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Backend {
    name: String,
    coupling: CouplingMap,
    calibration: Calibration,
    qubits: Vec<QubitParams>,
    edges: BTreeMap<(usize, usize), TwoQubitParams>,
}

impl Backend {
    /// Builds a backend from a coupling map and Table-I-style calibration
    /// averages, deriving per-qubit/per-edge values with deterministic
    /// jitter seeded by `name`.
    pub fn from_calibration(name: &str, coupling: CouplingMap, cal: Calibration) -> Self {
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let n = coupling.n_qubits();
        let jitter = |rng: &mut StdRng, lo: f64, hi: f64| rng.gen_range(lo..hi);
        let qubits: Vec<QubitParams> = (0..n)
            .map(|q| {
                let t1_us = finite_scale(cal.t1_us, jitter(&mut rng, 0.7, 1.3));
                // Physical constraint: T2 <= 2*T1 must survive the jitter.
                let t2_us = finite_scale(cal.t2_us, jitter(&mut rng, 0.7, 1.3)).min(2.0 * t1_us);
                let noisy = cal.x_error > 0.0 || cal.t1_us.is_finite();
                QubitParams {
                    frequency_ghz: 4.8 + 0.02 * q as f64 + jitter(&mut rng, -0.05, 0.05),
                    anharmonicity_ghz: -0.34 + jitter(&mut rng, -0.01, 0.01),
                    t1_us,
                    t2_us,
                    x_error: cal.x_error * jitter(&mut rng, 0.6, 1.6),
                    readout_error: cal.readout_error * jitter(&mut rng, 0.5, 1.8),
                    drive_strength: 0.125 * jitter(&mut rng, 0.9, 1.1),
                    freq_offset: if noisy {
                        jitter(&mut rng, -0.0002, 0.0002)
                    } else {
                        0.0
                    },
                    amp_error: if noisy {
                        jitter(&mut rng, -0.01, 0.01)
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let mut edges = BTreeMap::new();
        for &(u, v) in coupling.edges() {
            edges.insert(
                (u, v),
                TwoQubitParams {
                    cx_error: cal.cx_error * jitter(&mut rng, 0.6, 1.8),
                    mu_zx: jitter(&mut rng, 0.035, 0.055),
                    mu_ix: jitter(&mut rng, 0.08, 0.12),
                    mu_zi: jitter(&mut rng, 0.015, 0.025),
                    cr_duration_dt: 256,
                },
            );
        }
        Self {
            name: name.to_owned(),
            coupling,
            calibration: cal,
            qubits,
            edges,
        }
    }

    /// The 27-qubit `ibm_auckland` model (lowest readout error in Table I).
    pub fn ibm_auckland() -> Self {
        Self::from_calibration(
            "ibm_auckland",
            CouplingMap::falcon_27(),
            Calibration::ibm_auckland(),
        )
    }

    /// The 27-qubit `ibmq_toronto` model (lowest CNOT error in Table I).
    pub fn ibmq_toronto() -> Self {
        Self::from_calibration(
            "ibmq_toronto",
            CouplingMap::falcon_27(),
            Calibration::ibmq_toronto(),
        )
    }

    /// The 16-qubit `ibmq_guadalupe` model.
    pub fn ibmq_guadalupe() -> Self {
        Self::from_calibration(
            "ibmq_guadalupe",
            CouplingMap::falcon_16(),
            Calibration::ibmq_guadalupe(),
        )
    }

    /// The 27-qubit `ibmq_montreal` model.
    pub fn ibmq_montreal() -> Self {
        Self::from_calibration(
            "ibmq_montreal",
            CouplingMap::falcon_27(),
            Calibration::ibmq_montreal(),
        )
    }

    /// All four paper backends, in Table I order.
    pub fn paper_backends() -> Vec<Backend> {
        vec![
            Self::ibm_auckland(),
            Self::ibmq_toronto(),
            Self::ibmq_guadalupe(),
            Self::ibmq_montreal(),
        ]
    }

    /// A noise-free, fully connected backend for unit tests.
    pub fn ideal(n_qubits: usize) -> Self {
        Self::from_calibration("ideal", CouplingMap::full(n_qubits), Calibration::ideal())
    }

    /// Backend name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.coupling.n_qubits()
    }

    /// The coupling map.
    pub fn coupling_map(&self) -> &CouplingMap {
        &self.coupling
    }

    /// The backend-average calibration data (Table I).
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Per-qubit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn qubit(&self, q: usize) -> &QubitParams {
        &self.qubits[q]
    }

    /// Per-edge parameters (order-insensitive).
    ///
    /// # Panics
    ///
    /// Panics if `(u, v)` is not a coupler.
    pub fn edge(&self, u: usize, v: usize) -> &TwoQubitParams {
        self.try_edge(u, v)
            .unwrap_or_else(|| panic!("({u}, {v}) is not a coupler of {}", self.name))
    }

    /// Per-edge parameters (order-insensitive), `None` for non-coupled
    /// pairs — the accessor for request-derived pairs that must fail a
    /// job rather than a thread.
    pub fn try_edge(&self, u: usize, v: usize) -> Option<&TwoQubitParams> {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.get(&key)
    }

    /// Duration of a calibrated X or SX pulse, in `dt`.
    pub fn pulse_1q_duration_dt(&self) -> u32 {
        PULSE_1Q_DT
    }

    /// Duration of the echoed-CR CNOT schedule on a coupler, in `dt`:
    /// two CR half-pulses plus two echo X pulses on the control (the
    /// target's final SX plays in parallel with the last echo X).
    ///
    /// # Panics
    ///
    /// Panics if `(u, v)` is not a coupler.
    pub fn cx_duration_dt(&self, u: usize, v: usize) -> u32 {
        let e = self.edge(u, v);
        2 * e.cr_duration_dt + 2 * PULSE_1Q_DT
    }

    /// Measurement (readout) duration, in `dt`.
    pub fn measure_duration_dt(&self) -> u32 {
        (self.calibration.readout_length_ns / DT_NS).round() as u32
    }

    /// Average T1 across qubits, microseconds.
    pub fn mean_t1_us(&self) -> f64 {
        self.qubits.iter().map(|q| q.t1_us).sum::<f64>() / self.qubits.len() as f64
    }

    /// Average T2 across qubits, microseconds.
    pub fn mean_t2_us(&self) -> f64 {
        self.qubits.iter().map(|q| q.t2_us).sum::<f64>() / self.qubits.len() as f64
    }
}

/// Multiplies, propagating infinity cleanly (ideal backends have
/// `t1 = inf`).
fn finite_scale(base: f64, factor: f64) -> f64 {
    if base.is_finite() {
        base * factor
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_are_deterministic() {
        let a = Backend::ibmq_toronto();
        let b = Backend::ibmq_toronto();
        assert_eq!(a, b);
    }

    #[test]
    fn different_backends_differ() {
        let a = Backend::ibmq_toronto();
        let b = Backend::ibmq_montreal();
        assert_ne!(a.qubit(0).t1_us, b.qubit(0).t1_us);
    }

    #[test]
    fn per_qubit_values_jitter_around_calibration() {
        let b = Backend::ibm_auckland();
        let cal = b.calibration();
        for q in 0..b.n_qubits() {
            let qp = b.qubit(q);
            assert!(qp.t1_us > 0.5 * cal.t1_us && qp.t1_us < 1.5 * cal.t1_us);
            assert!(qp.x_error > 0.0);
            assert!(qp.readout_error > 0.0 && qp.readout_error < 0.1);
        }
    }

    #[test]
    fn edge_lookup_is_symmetric() {
        let b = Backend::ibmq_guadalupe();
        assert_eq!(b.edge(0, 1), b.edge(1, 0));
    }

    #[test]
    #[should_panic(expected = "not a coupler")]
    fn non_coupler_edge_panics() {
        let b = Backend::ibmq_guadalupe();
        let _ = b.edge(0, 15);
    }

    #[test]
    fn durations_are_sane() {
        let b = Backend::ibmq_toronto();
        assert_eq!(b.pulse_1q_duration_dt(), 160);
        let cx = b.cx_duration_dt(0, 1);
        // 2*256 + 2*160 = 832 dt ~ 185 ns.
        assert_eq!(cx, 832);
        // Toronto readout is 5962.667 ns = ~26832 dt.
        let m = b.measure_duration_dt();
        assert!((f64::from(m) * DT_NS - 5962.667).abs() < 1.0);
    }

    #[test]
    fn ideal_backend_is_noise_free() {
        let b = Backend::ideal(4);
        assert!(b.qubit(0).t1_us.is_infinite());
        assert_eq!(b.qubit(0).x_error, 0.0);
        assert!(b.coupling_map().are_coupled(0, 3));
    }

    #[test]
    fn paper_backends_match_names() {
        let names: Vec<String> = Backend::paper_backends()
            .iter()
            .map(|b| b.name().to_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "ibm_auckland",
                "ibmq_toronto",
                "ibmq_guadalupe",
                "ibmq_montreal"
            ]
        );
    }

    #[test]
    fn drive_strength_gives_reachable_pi_pulse() {
        // A pi rotation within a 160 dt Gaussian at amplitude <= 1 must be
        // possible: amp = pi / (strength * effective_area) <= 1.
        let b = Backend::ibmq_toronto();
        for q in 0..b.n_qubits() {
            let strength = b.qubit(q).drive_strength;
            // Gaussian with sigma = duration/4 has area ~ sigma * sqrt(2 pi).
            let area = 40.0 * (2.0 * std::f64::consts::PI).sqrt();
            let amp = std::f64::consts::PI / (strength * area);
            assert!(amp < 1.0, "qubit {q} cannot reach a pi pulse");
        }
    }
}
