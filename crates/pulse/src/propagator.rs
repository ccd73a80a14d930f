//! Rotating-frame pulse physics: pulses to unitary propagators.
//!
//! The simulator works per-pulse rather than per-global-timestep: each
//! played pulse becomes a small unitary **block** (2x2 for drive pulses,
//! 4x4 for cross-resonance pulses) plus its start time and duration.
//! Downstream executors apply blocks in time order, interleaving
//! duration-proportional decoherence. This is exact whenever concurrent
//! pulses act on disjoint qubits — which every schedule built in this
//! workspace satisfies by construction ([`crate::Schedule::play_at`]
//! rejects overlaps on shared qubits).

use std::fmt;

use hgp_math::su2::{exp_i_pauli, exp_i_pauli_entries, matmul_2x2};
use hgp_math::{Complex64, Matrix};

use hgp_device::{Backend, TwoQubitParams};

use crate::channel::Channel;
use crate::schedule::{PulseSpec, Schedule};
use crate::waveform::Waveform;

/// A malformed pulse schedule, detected at compile time.
///
/// Schedules reaching the compiler from a request boundary (a served
/// job, a deserialized program) must fail *their job*, never the worker
/// thread executing it — so every structural violation is a typed error
/// rather than a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PulseError {
    /// A pulse spec was played on a channel of the wrong family (e.g. a
    /// cross-resonance pulse on a drive channel).
    ChannelMismatch {
        /// The offending channel.
        channel: Channel,
        /// A short description of the pulse kind.
        pulse: &'static str,
    },
    /// A channel names a physical qubit the backend does not have.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// Number of qubits on the backend.
        n_qubits: usize,
    },
    /// A control channel names a pair the backend does not couple.
    NotCoupled {
        /// The driven qubit.
        control: usize,
        /// The target-frequency qubit.
        target: usize,
    },
    /// A block touches a physical qubit outside the requested layout.
    QubitNotInLayout {
        /// The physical qubit missing from the layout.
        qubit: usize,
    },
}

impl fmt::Display for PulseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PulseError::ChannelMismatch { channel, pulse } => {
                write!(f, "{pulse} pulse cannot play on channel {channel}")
            }
            PulseError::QubitOutOfRange { qubit, n_qubits } => {
                write!(f, "physical qubit {qubit} out of range ({n_qubits} qubits)")
            }
            PulseError::NotCoupled { control, target } => {
                write!(f, "qubits ({control}, {target}) are not coupled")
            }
            PulseError::QubitNotInLayout { qubit } => {
                write!(f, "physical qubit {qubit} not in layout")
            }
        }
    }
}

impl std::error::Error for PulseError {}

/// A compiled unitary block of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Physical qubits the block acts on (`[q]` or `[control, target]`,
    /// first operand = most significant bit of the unitary's index).
    pub qubits: Vec<usize>,
    /// The block's unitary.
    pub unitary: Matrix,
    /// Start time, `dt`.
    pub start: u32,
    /// Duration, `dt` (0 for virtual-Z blocks).
    pub duration: u32,
}

/// Propagator of a drive pulse on a single qubit.
///
/// Physics: `H(t) = (freq_shift/2) Z + (Omega(t)/2)(cos(phase) X +
/// sin(phase) Y)` with `Omega(t) = amp * env(t) * drive_strength`,
/// integrated sample-by-sample with exact SU(2) steps.
///
/// ```
/// use hgp_pulse::{Waveform, propagator::drive_propagator};
/// let w = Waveform::gaussian(160);
/// // Calibrate amp for a pi rotation: amp * strength * area = pi.
/// let strength = 0.125;
/// let amp = std::f64::consts::PI / (strength * w.area());
/// let u = drive_propagator(&w, amp, 0.0, 0.0, strength);
/// let x = hgp_math::pauli::sigma_x();
/// assert!(u.approx_eq_up_to_phase(&x, 1e-9));
/// ```
pub fn drive_propagator(
    waveform: &Waveform,
    amp: f64,
    phase: f64,
    freq_shift: f64,
    drive_strength: f64,
) -> Matrix {
    // `drive_step` at `dt = 1` with its phase trigonometry and detuning
    // term hoisted out of the loop (the same values every step), and the
    // running product folded on the stack: bit-identical to
    // [`reference::drive_propagator_reference`], without two heap
    // matrices per `dt`.
    let (cos_phase, sin_phase) = (phase.cos(), phase.sin());
    let az = 0.5 * freq_shift;
    let mut u = [
        Complex64::ONE,
        Complex64::ZERO,
        Complex64::ZERO,
        Complex64::ONE,
    ];
    for t in 0..waveform.duration() {
        let omega = amp * waveform.sample(t) * drive_strength;
        let step = exp_i_pauli_entries(0.5 * omega * cos_phase, 0.5 * omega * sin_phase, az);
        u = matmul_2x2(&step, &u);
    }
    Matrix::from_vec(2, 2, u.to_vec())
}

/// The per-step heap loop [`drive_propagator`] replaced, kept as the
/// reference its stack fold is pinned against bit for bit (and
/// benchmarked against).
pub mod reference {
    use hgp_math::su2::drive_step;
    use hgp_math::Matrix;

    use crate::waveform::Waveform;

    /// One [`drive_step`] matrix per `dt`, multiplied onto a heap
    /// [`Matrix`] accumulator with [`Matrix::matmul`].
    pub fn drive_propagator_reference(
        waveform: &Waveform,
        amp: f64,
        phase: f64,
        freq_shift: f64,
        drive_strength: f64,
    ) -> Matrix {
        let mut u = Matrix::identity(2);
        for t in 0..waveform.duration() {
            let omega = amp * waveform.sample(t) * drive_strength;
            let step = drive_step(freq_shift, omega, phase, 1.0);
            u = step.matmul(&u);
        }
        u
    }
}

/// Propagator of a cross-resonance pulse on a coupled pair, in the basis
/// `|control target>` (control = most significant bit).
///
/// Physics: `H(t) = (Omega(t)/2)(mu_zx Z(x)P + mu_ix I(x)P + mu_zi Z(x)I)`
/// with `P = cos(phase) X + sin(phase) Y`. All three terms commute, so the
/// propagator is assembled exactly from the accumulated pulse area:
/// conditioned on the control being `|0>`/`|1>`, the target rotates about
/// `P` by `(+-mu_zx + mu_ix) * theta` and picks up the `-+ mu_zi * theta`
/// Stark phase, where `theta = amp * strength * area`.
pub fn cr_propagator(
    waveform: &Waveform,
    amp: f64,
    phase: f64,
    edge: &TwoQubitParams,
    drive_strength: f64,
) -> Matrix {
    let theta = amp * drive_strength * waveform.area();
    cr_unitary_from_angle(theta, phase, edge)
}

/// The CR unitary for a total integrated drive angle `theta` (see
/// [`cr_propagator`]).
pub fn cr_unitary_from_angle(theta: f64, phase: f64, edge: &TwoQubitParams) -> Matrix {
    let a_zx = 0.5 * edge.mu_zx * theta;
    let a_ix = 0.5 * edge.mu_ix * theta;
    let a_zi = 0.5 * edge.mu_zi * theta;
    // Control |0> (Z = +1): target rotation (a_zx + a_ix), phase e^{-i a_zi}.
    let u0 = exp_i_pauli(
        (a_zx + a_ix) * phase.cos(),
        (a_zx + a_ix) * phase.sin(),
        0.0,
    )
    .scale(Complex64::cis(-a_zi));
    // Control |1> (Z = -1): rotation (-a_zx + a_ix), phase e^{+i a_zi}.
    let u1 = exp_i_pauli(
        (-a_zx + a_ix) * phase.cos(),
        (-a_zx + a_ix) * phase.sin(),
        0.0,
    )
    .scale(Complex64::cis(a_zi));
    let mut u = Matrix::zeros(4, 4);
    for i in 0..2 {
        for j in 0..2 {
            u[(i, j)] = u0[(i, j)];
            u[(2 + i, 2 + j)] = u1[(i, j)];
        }
    }
    u
}

/// The 2x2 unitary of a virtual Z rotation.
pub fn virtual_z(angle: f64) -> Matrix {
    Matrix::from_diag(&[Complex64::cis(-angle / 2.0), Complex64::cis(angle / 2.0)])
}

/// Compiles a schedule into time-ordered unitary blocks on physical
/// qubits of `backend`.
///
/// # Errors
///
/// Returns a [`PulseError`] if a [`PulseSpec::CrossResonance`] is played
/// on a non-control channel, a [`PulseSpec::Drive`] on a control
/// channel, a channel names a qubit the backend lacks, or a control
/// channel names a non-coupled pair. A schedule crossing the serve
/// boundary must fail its job, not the worker thread.
pub fn compile_schedule(schedule: &Schedule, backend: &Backend) -> Result<Vec<Block>, PulseError> {
    let check_qubit = |q: usize| -> Result<usize, PulseError> {
        if q < backend.n_qubits() {
            Ok(q)
        } else {
            Err(PulseError::QubitOutOfRange {
                qubit: q,
                n_qubits: backend.n_qubits(),
            })
        }
    };
    let mut blocks: Vec<Block> = Vec::with_capacity(schedule.items().len());
    for item in schedule.items() {
        let block = match (&item.pulse, &item.channel) {
            (
                PulseSpec::Drive {
                    waveform,
                    amp,
                    phase,
                    freq_shift,
                },
                Channel::Drive(q),
            ) => Block {
                qubits: vec![check_qubit(*q)?],
                unitary: drive_propagator(
                    waveform,
                    *amp,
                    *phase,
                    *freq_shift,
                    backend.qubit(*q).drive_strength,
                ),
                start: item.start,
                duration: waveform.duration(),
            },
            (
                PulseSpec::CrossResonance {
                    waveform,
                    amp,
                    phase,
                },
                Channel::Control { control, target },
            ) => {
                check_qubit(*control)?;
                check_qubit(*target)?;
                let edge = backend
                    .try_edge(*control, *target)
                    .ok_or(PulseError::NotCoupled {
                        control: *control,
                        target: *target,
                    })?;
                Block {
                    qubits: vec![*control, *target],
                    unitary: cr_propagator(
                        waveform,
                        *amp,
                        *phase,
                        edge,
                        backend.qubit(*control).drive_strength,
                    ),
                    start: item.start,
                    duration: waveform.duration(),
                }
            }
            (PulseSpec::VirtualZ { angle }, Channel::Drive(q)) => Block {
                qubits: vec![check_qubit(*q)?],
                unitary: virtual_z(*angle),
                start: item.start,
                duration: 0,
            },
            (pulse, channel) => {
                return Err(PulseError::ChannelMismatch {
                    channel: *channel,
                    pulse: pulse.kind_name(),
                })
            }
        };
        blocks.push(block);
    }
    // Stable sort by start time keeps same-start insertion order, which is
    // safe because same-start blocks act on disjoint qubits.
    blocks.sort_by_key(|b| b.start);
    Ok(blocks)
}

/// Full schedule unitary over the logical register defined by `layout`
/// (`layout[i]` = physical qubit of logical qubit `i`).
///
/// Intended for small registers (tests, calibration); the noisy executor
/// applies blocks incrementally instead.
///
/// # Errors
///
/// Returns a [`PulseError`] if the schedule fails [`compile_schedule`]
/// or a block touches a physical qubit outside `layout`.
pub fn schedule_unitary(
    schedule: &Schedule,
    backend: &Backend,
    layout: &[usize],
) -> Result<Matrix, PulseError> {
    let n = layout.len();
    let dim = 1usize << n;
    let mut u = Matrix::identity(dim);
    for block in compile_schedule(schedule, backend)? {
        let logical: Vec<usize> = block
            .qubits
            .iter()
            .map(|pq| {
                layout
                    .iter()
                    .position(|&l| l == *pq)
                    .ok_or(PulseError::QubitNotInLayout { qubit: *pq })
            })
            .collect::<Result<_, _>>()?;
        let full = block.unitary.embed(n, &logical);
        u = full.matmul(&u);
    }
    Ok(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use hgp_circuit::Gate;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn test_edge() -> TwoQubitParams {
        TwoQubitParams {
            cx_error: 0.0,
            mu_zx: 0.05,
            mu_ix: 0.1,
            mu_zi: 0.02,
            cr_duration_dt: 256,
        }
    }

    #[test]
    fn pi_pulse_is_x() {
        let w = Waveform::gaussian(160);
        let strength = 0.125;
        let amp = PI / (strength * w.area());
        let u = drive_propagator(&w, amp, 0.0, 0.0, strength);
        assert!(u.approx_eq_up_to_phase(&Gate::X.matrix().unwrap(), 1e-9));
    }

    #[test]
    fn half_pi_pulse_is_sx_up_to_phase() {
        let w = Waveform::gaussian(160);
        let strength = 0.125;
        let amp = FRAC_PI_2 / (strength * w.area());
        let u = drive_propagator(&w, amp, 0.0, 0.0, strength);
        let rx90 = Gate::Rx(hgp_circuit::Param::bound(FRAC_PI_2))
            .matrix()
            .unwrap();
        assert!(u.approx_eq(&rx90, 1e-9));
    }

    #[test]
    fn phase_rotates_drive_axis() {
        let w = Waveform::gaussian(160);
        let strength = 0.125;
        let amp = FRAC_PI_2 / (strength * w.area());
        let u = drive_propagator(&w, amp, FRAC_PI_2, 0.0, strength);
        let ry90 = Gate::Ry(hgp_circuit::Param::bound(FRAC_PI_2))
            .matrix()
            .unwrap();
        assert!(u.approx_eq(&ry90, 1e-9));
    }

    #[test]
    fn detuning_perturbs_rotation() {
        let w = Waveform::gaussian(160);
        let strength = 0.125;
        let amp = PI / (strength * w.area());
        let resonant = drive_propagator(&w, amp, 0.0, 0.0, strength);
        let detuned = drive_propagator(&w, amp, 0.0, 0.05, strength);
        assert!(!detuned.approx_eq_up_to_phase(&resonant, 1e-3));
        assert!(detuned.is_unitary(1e-10));
    }

    #[test]
    fn negative_amp_inverts_rotation() {
        let w = Waveform::gaussian(160);
        let up = drive_propagator(&w, 0.3, 0.0, 0.0, 0.125);
        let down = drive_propagator(&w, -0.3, 0.0, 0.0, 0.125);
        let prod = up.matmul(&down);
        assert!(prod.approx_eq(&Matrix::identity(2), 1e-10));
    }

    #[test]
    fn cr_is_unitary_and_block_diagonal() {
        let edge = test_edge();
        let w = Waveform::gaussian_square(256, 160);
        let u = cr_propagator(&w, 0.4, 0.0, &edge, 0.125);
        assert!(u.is_unitary(1e-12));
        // No control-flipping elements.
        for i in 0..2 {
            for j in 2..4 {
                assert!(u[(i, j)].norm() < 1e-14);
                assert!(u[(j, i)].norm() < 1e-14);
            }
        }
    }

    #[test]
    fn cr_echo_cancels_ix_term() {
        // The echo X_c CR(-) X_c CR(+) cancels the spurious IX term and
        // doubles ZX; a residual ZI Stark phase survives and is what the
        // CX calibration corrects with a virtual RZ on the control.
        let edge = test_edge();
        let w = Waveform::gaussian_square(256, 160);
        let strength = 0.125;
        let amp = 0.37;
        let theta = amp * strength * w.area();
        let cr_p = cr_propagator(&w, amp, 0.0, &edge, strength);
        let cr_m = cr_propagator(&w, -amp, 0.0, &edge, strength);
        let xc = Gate::X.matrix().unwrap().kron(&Matrix::identity(2));
        let echoed = xc.matmul(&cr_m).matmul(&xc).matmul(&cr_p);
        // Expected: exp(-i theta (mu_zx ZX + mu_zi ZI)).
        let rzx = Gate::Rzx(hgp_circuit::Param::bound(2.0 * edge.mu_zx * theta))
            .matrix()
            .unwrap();
        let rz_c = Gate::Rz(hgp_circuit::Param::bound(2.0 * edge.mu_zi * theta))
            .matrix()
            .unwrap()
            .kron(&Matrix::identity(2));
        let expect = rz_c.matmul(&rzx);
        assert!(
            echoed.approx_eq_up_to_phase(&expect, 1e-9),
            "echoed CR does not reduce to RZX + Stark RZ"
        );
    }

    #[test]
    fn virtual_z_matches_rz_gate() {
        let u = virtual_z(0.8);
        let rz = Gate::Rz(hgp_circuit::Param::bound(0.8)).matrix().unwrap();
        assert!(u.approx_eq(&rz, 1e-14));
    }

    #[test]
    fn compile_schedule_orders_blocks() {
        let backend = Backend::ideal(2);
        let mut s = Schedule::new();
        s.play(
            Channel::Drive(1),
            PulseSpec::Drive {
                waveform: Waveform::gaussian(160),
                amp: 0.1,
                phase: 0.0,
                freq_shift: 0.0,
            },
        );
        s.play(
            Channel::Drive(1),
            PulseSpec::Drive {
                waveform: Waveform::gaussian(160),
                amp: 0.2,
                phase: 0.0,
                freq_shift: 0.0,
            },
        );
        let blocks = compile_schedule(&s, &backend).unwrap();
        assert_eq!(blocks.len(), 2);
        assert!(blocks[0].start <= blocks[1].start);
        assert_eq!(blocks[0].qubits, vec![1]);
    }

    #[test]
    fn schedule_unitary_composes_blocks() {
        // Two sequential half-pi pulses equal one pi pulse.
        let backend = Backend::ideal(1);
        let strength = backend.qubit(0).drive_strength;
        let w = Waveform::gaussian(160);
        let amp_half = FRAC_PI_2 / (strength * w.area());
        let mut s = Schedule::new();
        for _ in 0..2 {
            s.play(
                Channel::Drive(0),
                PulseSpec::Drive {
                    waveform: w,
                    amp: amp_half,
                    phase: 0.0,
                    freq_shift: 0.0,
                },
            );
        }
        let u = schedule_unitary(&s, &backend, &[0]).unwrap();
        assert!(u.approx_eq_up_to_phase(&Gate::X.matrix().unwrap(), 1e-9));
    }

    #[test]
    fn mismatched_pulse_channel_is_an_error() {
        // A malformed schedule must produce a typed error, never a
        // panic: in a served deployment a panic kills the worker thread
        // instead of failing the one bad job.
        let backend = Backend::ideal(2);
        let mut s = Schedule::new();
        s.play(
            Channel::Drive(0),
            PulseSpec::CrossResonance {
                waveform: Waveform::gaussian_square(256, 128),
                amp: 0.1,
                phase: 0.0,
            },
        );
        let err = compile_schedule(&s, &backend).unwrap_err();
        assert_eq!(
            err,
            PulseError::ChannelMismatch {
                channel: Channel::Drive(0),
                pulse: "cross-resonance",
            }
        );
        assert!(err.to_string().contains("cannot play"));
    }

    #[test]
    fn drive_on_control_channel_is_an_error() {
        let backend = Backend::ideal(2);
        let mut s = Schedule::new();
        s.play(
            Channel::Control {
                control: 0,
                target: 1,
            },
            PulseSpec::Drive {
                waveform: Waveform::gaussian(160),
                amp: 0.1,
                phase: 0.0,
                freq_shift: 0.0,
            },
        );
        assert!(matches!(
            compile_schedule(&s, &backend),
            Err(PulseError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn non_coupled_control_channel_is_an_error() {
        // Guadalupe's heavy-hex map does not couple (0, 15).
        let backend = Backend::ibmq_guadalupe();
        let mut s = Schedule::new();
        s.play(
            Channel::Control {
                control: 0,
                target: 15,
            },
            PulseSpec::CrossResonance {
                waveform: Waveform::gaussian_square(256, 128),
                amp: 0.1,
                phase: 0.0,
            },
        );
        assert_eq!(
            compile_schedule(&s, &backend),
            Err(PulseError::NotCoupled {
                control: 0,
                target: 15
            })
        );
    }

    #[test]
    fn out_of_range_qubit_is_an_error() {
        let backend = Backend::ideal(2);
        let mut s = Schedule::new();
        s.play(Channel::Drive(9), PulseSpec::VirtualZ { angle: 0.3 });
        assert_eq!(
            compile_schedule(&s, &backend),
            Err(PulseError::QubitOutOfRange {
                qubit: 9,
                n_qubits: 2
            })
        );
    }

    #[test]
    fn qubit_outside_layout_is_an_error() {
        let backend = Backend::ideal(2);
        let mut s = Schedule::new();
        s.play(Channel::Drive(1), PulseSpec::VirtualZ { angle: 0.3 });
        assert_eq!(
            schedule_unitary(&s, &backend, &[0]),
            Err(PulseError::QubitNotInLayout { qubit: 1 })
        );
    }
}
