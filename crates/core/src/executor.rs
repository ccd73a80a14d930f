//! Machine-in-loop noisy execution of hybrid programs.
//!
//! The executor mirrors [`hgp_noise::NoisySimulator`] but accepts the
//! hybrid [`Program`] IR: gate ops pay calibrated gate durations and
//! depolarizing errors; pulse blocks pay their own (often shorter)
//! durations — this asymmetry is exactly the hybrid model's hardware
//! advantage. Readout confusion is applied to the final distribution
//! before sampling, so mitigation sees realistic statistics.
//!
//! Noise parameters come from a typed [`NoiseModel`] built once per
//! (backend, layout) — or injected pre-built from a
//! [`crate::compile::CompiledCircuit`], which caches the model with the
//! compiled shape. The executor walks one ASAP schedule and feeds it to
//! either consumer:
//!
//! - **exact**: density-matrix evolution, `O(4^n)` per instruction.
//!   [`Executor::run`] / [`Executor::run_on`] interpret the walk
//!   directly and are the reference; [`Executor::sample`] records the
//!   walk and replays it as a compiled superoperator tape
//!   ([`Executor::exact_replay_program`] / [`Executor::run_exact_replay`]),
//!   while training and the serving tier bind a compiled shape's
//!   recorded tape per parameter point and sample it with
//!   [`Executor::sample_tape`],
//! - **sampled** ([`Executor::trajectory_program`] /
//!   [`Executor::sample_trajectories`] /
//!   [`Executor::expectation_trajectories`]): the same schedule recorded
//!   once and replayed as `O(2^n)` stochastic statevector trajectories
//!   with [`hgp_sim::seed::stream_seed`]-derived per-trajectory seeds —
//!   noisy QAOA at widths the density matrix cannot reach. The
//!   trajectory entry points execute on the op-fused
//!   [`hgp_sim::ReplayEngine`] ([`Executor::replay_program`] compiles
//!   the recording into a flat tape) in lane-filling
//!   [`hgp_sim::ReplayBatch`] SoA shot blocks swept op-major — pinned
//!   bit-identical to the reference [`hgp_sim::TrajectoryEngine`] for
//!   every block size; serving callers skip the
//!   per-dispatch recording entirely via the compiled artifacts'
//!   schedule templates ([`Executor::sample_replay`] /
//!   [`Executor::expectation_replay`]).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hgp_circuit::Gate;
use hgp_device::Backend;
use hgp_math::su2::zyz_decompose;
use hgp_math::Matrix;
use hgp_noise::sink::{ExactSink, RecordSink, ScheduleSink};
use hgp_noise::{NoiseModel, ReadoutModel};
use hgp_pulse::propagator::{drive_propagator, virtual_z};
use hgp_pulse::Waveform;
use hgp_sim::{
    Counts, DensityMatrix, ExactReplayEngine, ExactReplayProgram, NoProfile, ProfileSink,
    ReplayEngine, ReplayProgram, SimBackend, TrajectoryProgram,
};

use crate::program::{BlockKind, Program, ProgramOp};

/// Executes hybrid programs on a simulated backend.
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    backend: &'a Backend,
    /// `layout[i]` = physical qubit hosting logical qubit `i`.
    layout: Vec<usize>,
    readout: ReadoutModel,
    /// The typed noise parameters of the layout (shareable across
    /// executors of one compiled shape).
    noise: Arc<NoiseModel>,
    /// Insert X-X dynamical-decoupling pairs into long idle windows
    /// (Fig. 3 lists DD among the compatible Step III techniques).
    dynamical_decoupling: bool,
}

impl<'a> Executor<'a> {
    /// Creates an executor for a logical register laid out on `backend`,
    /// building the layout's [`NoiseModel`].
    ///
    /// # Panics
    ///
    /// Panics if a layout entry is out of range or repeated.
    pub fn new(backend: &'a Backend, layout: Vec<usize>) -> Self {
        let noise = Arc::new(NoiseModel::from_backend(backend, &layout));
        Self::with_noise_model(backend, layout, noise)
    }

    /// Creates an executor around a prebuilt noise model (the cached
    /// artifact of a compiled shape, or a rescaled copy for zero-noise
    /// extrapolation).
    ///
    /// # Panics
    ///
    /// Panics if a layout entry is out of range or the model width
    /// disagrees with the layout.
    pub fn with_noise_model(
        backend: &'a Backend,
        layout: Vec<usize>,
        noise: Arc<NoiseModel>,
    ) -> Self {
        for &p in &layout {
            assert!(p < backend.n_qubits(), "physical qubit {p} out of range");
        }
        assert_eq!(
            noise.n_qubits(),
            layout.len(),
            "noise model width must match the layout"
        );
        // Readout comes from the model too, so an injected (cached or
        // customized) model is authoritative for every noise parameter.
        let readout = noise.readout();
        Self {
            backend,
            layout,
            readout,
            noise,
            dynamical_decoupling: false,
        }
    }

    /// Enables X-X dynamical decoupling on idle windows longer than four
    /// pulse lengths. The pair refocuses coherent frame drift at the cost
    /// of two extra calibrated pulses per window.
    pub fn with_dynamical_decoupling(mut self) -> Self {
        self.dynamical_decoupling = true;
        self
    }

    /// The backend.
    pub fn backend(&self) -> &Backend {
        self.backend
    }

    /// The logical-to-physical layout.
    pub fn layout(&self) -> &[usize] {
        &self.layout
    }

    /// The readout model derived from the layout.
    pub fn readout(&self) -> &ReadoutModel {
        &self.readout
    }

    /// The typed noise model executions draw channels from.
    pub fn noise_model(&self) -> &Arc<NoiseModel> {
        &self.noise
    }

    /// Whether idle windows receive X-X dynamical-decoupling pairs —
    /// schedule templates are recorded without them, so template binds
    /// must detect a DD executor and fall back to the full walk.
    pub(crate) fn uses_dynamical_decoupling(&self) -> bool {
        self.dynamical_decoupling
    }

    /// Runs a program, returning the noisy final state.
    ///
    /// This is the interpreted reference walk: every instruction is
    /// applied to the density matrix as the schedule walker emits it.
    /// Production paths ([`Executor::sample`], training, serving) evolve
    /// the compiled exact tape instead ([`Executor::exact_replay_program`]
    /// replayed by [`Executor::run_exact_replay`]); the parity suites pin
    /// that tape against this walk.
    ///
    /// # Panics
    ///
    /// Panics if the program width disagrees with the layout or a gate
    /// spans a non-coupled physical pair.
    pub fn run(&self, program: &Program) -> DensityMatrix {
        self.run_on(program)
    }

    /// [`Executor::run`] generalized over the execution engine.
    ///
    /// The reference engine for noisy execution is [`DensityMatrix`];
    /// engines without channel support (statevector) host the same
    /// schedule on ideal hardware, where every noise channel
    /// degenerates. For noisy statevector-scale execution use the
    /// trajectory path instead.
    ///
    /// # Panics
    ///
    /// Panics if the program width disagrees with the layout or a gate
    /// spans a non-coupled physical pair.
    pub fn run_on<B: SimBackend>(&self, program: &Program) -> B {
        let mut sink = ExactSink(B::init(program.n_qubits()));
        self.walk_schedule(program, &mut sink);
        sink.0
    }

    /// Records a program's noisy schedule — ideal-gate unitaries with
    /// their coherent calibration errors, frame drift, idle decoherence,
    /// gate error channels — as a [`TrajectoryProgram`] for stochastic
    /// statevector execution. Built once, replayed per trajectory.
    ///
    /// # Panics
    ///
    /// Same contract as [`Executor::run`].
    pub fn trajectory_program(&self, program: &Program) -> TrajectoryProgram {
        let mut sink = RecordSink(TrajectoryProgram::new(program.n_qubits()));
        self.walk_schedule(program, &mut sink);
        sink.0
    }

    /// [`Executor::trajectory_program`] compiled into the replay tape —
    /// the per-shot fast path ([`hgp_sim::ReplayEngine`] over it is
    /// bit-identical to [`hgp_sim::TrajectoryEngine`] over the
    /// recording).
    pub fn replay_program(&self, program: &Program) -> ReplayProgram {
        ReplayProgram::compile(&self.trajectory_program(program))
    }

    /// Records the noisy schedule and compiles it into an exact-path
    /// superoperator tape ([`ExactReplayProgram`]) — the density-matrix
    /// analog of [`Executor::replay_program`]. Compiled shapes bind
    /// their cached exact template instead of re-walking per dispatch.
    pub fn exact_replay_program(&self, program: &Program) -> ExactReplayProgram {
        ExactReplayProgram::compile(&self.trajectory_program(program))
    }

    /// Replays an exact tape from `|0...0><0...0|`, producing the same
    /// mixed state [`Executor::run`] walks to (bit-identical on
    /// diagonal runs and unitary applications, ≤ 1e-12 elementwise for
    /// resolved multi-Kraus channels — see
    /// `crates/sim/src/replay/exact.rs`).
    pub fn run_exact_replay(&self, tape: &ExactReplayProgram) -> DensityMatrix {
        self.run_exact_replay_profiled(tape, &NoProfile)
    }

    /// [`Executor::run_exact_replay`] with an opt-in
    /// [`hgp_sim::ProfileSink`] attributing per-op-kind wall time (see
    /// `crates/sim/src/replay/exact.rs`); the evolved state is
    /// bit-identical for any sink.
    pub fn run_exact_replay_profiled<P: ProfileSink>(
        &self,
        tape: &ExactReplayProgram,
        sink: &P,
    ) -> DensityMatrix {
        ExactReplayEngine::for_program(tape).run(tape, sink).clone()
    }

    /// Walks the ASAP schedule into an arbitrary sink — the entry point
    /// schedule-template recording uses (same walk, instrumented sink).
    pub(crate) fn walk_with_sink<S: ScheduleSink>(&self, program: &Program, sink: &mut S) {
        self.walk_schedule(program, sink);
    }

    /// Walks the ASAP schedule once, emitting into `sink`. This is the
    /// single source of execution order: the exact and trajectory paths
    /// cannot drift apart.
    fn walk_schedule<S: ScheduleSink>(&self, program: &Program, sink: &mut S) {
        assert_eq!(
            program.n_qubits(),
            self.layout.len(),
            "program width must match the layout"
        );
        let n = program.n_qubits();
        let mut clock = vec![0u64; n];
        for (op_index, op) in program.ops().iter().enumerate() {
            let qubits = op.qubits().to_vec();
            let duration = match op {
                ProgramOp::Gate { gate, .. } => self.noise.gate_duration_dt(gate, &qubits),
                ProgramOp::PulseBlock { duration, .. } => *duration,
            };
            // ASAP alignment with idle decoherence and frame drift.
            let start = qubits.iter().map(|&q| clock[q]).max().unwrap_or(0);
            for &q in &qubits {
                let gap = start - clock[q];
                if gap > 0 {
                    self.idle_qubit(sink, q, gap as u32);
                }
            }
            // The applied unitary. Gate ops are executed with the
            // qubit's *coherent* calibration errors (frame-frequency
            // drift and pulse-amplitude miscalibration) — errors a
            // gate-level user cannot see or correct, while pulse-level
            // models compile their own blocks against the same true
            // physics and can train them away (paper §IV-A).
            sink.begin_applied(op_index);
            match op {
                ProgramOp::Gate { gate, qubits } => {
                    if gate.n_qubits() == 1 {
                        let m = self.actual_1q_unitary(gate, self.layout[qubits[0]], duration);
                        sink.unitary(&m, qubits);
                    } else {
                        // Fused kernel dispatch (RZZ/CZ cost layers are
                        // diagonal — the executor's hot path).
                        sink.gate(gate, qubits).expect("program gates are bound");
                        // Frame drift accumulated on both operands.
                        for &lq in qubits {
                            let drift = self.backend.qubit(self.layout[lq]).freq_offset
                                * f64::from(duration);
                            if drift != 0.0 {
                                sink.unitary(&virtual_z(drift), &[lq]);
                            }
                        }
                    }
                }
                ProgramOp::PulseBlock {
                    qubits, unitary, ..
                } => {
                    sink.unitary(unitary, qubits);
                }
            }
            // Noise.
            for &q in &qubits {
                if let Some(ch) = self.noise.idle_channel(q, duration) {
                    sink.channel(ch, &[q]);
                }
            }
            let error_arity = match op {
                ProgramOp::Gate { gate, .. } => gate.n_qubits(),
                ProgramOp::PulseBlock { kind, .. } => match kind {
                    BlockKind::Drive => 1,
                    BlockKind::CrossResonance => 2,
                    BlockKind::Virtual => 0,
                },
            };
            match error_arity {
                1 => {
                    if let Some(ch) = self.noise.gate_error_1q(qubits[0], duration) {
                        sink.channel(ch, &[qubits[0]]);
                    }
                }
                2 => {
                    if let Some(ch) = self.noise.gate_error_2q(qubits[0], qubits[1], duration) {
                        sink.channel(ch, &[qubits[0], qubits[1]]);
                    }
                }
                _ => {}
            }
            for &q in &qubits {
                clock[q] = start + u64::from(duration);
            }
        }
        // Simultaneous terminal measurement: idle early finishers.
        let end = clock.iter().copied().max().unwrap_or(0);
        for (q, &busy_until) in clock.iter().enumerate() {
            let gap = end - busy_until;
            if gap > 0 {
                self.idle_qubit(sink, q, gap as u32);
            }
        }
    }

    /// Idles a qubit for `duration_dt`: decoherence plus coherent frame
    /// drift, with an X-X dynamical-decoupling pair splitting long
    /// windows when enabled.
    fn idle_qubit<S: ScheduleSink>(&self, sink: &mut S, logical: usize, duration_dt: u32) {
        let p1 = self.backend.pulse_1q_duration_dt();
        if self.dynamical_decoupling && duration_dt >= 4 * p1 {
            // idle(s1) - X - idle(s2) - X with s1 = s2: the drift of the
            // two idle segments refocuses (X Z(phi) X = Z(-phi)).
            let free = duration_dt - 2 * p1;
            let s1 = free / 2;
            let s2 = free - s1;
            let phys = self.layout[logical];
            let x = self.actual_1q_unitary(&Gate::X, phys, p1);
            for seg in [s1, s2] {
                if let Some(ch) = self.noise.idle_channel(logical, seg) {
                    sink.channel(ch, &[logical]);
                }
                self.apply_idle_drift(sink, logical, seg);
                sink.unitary(&x, &[logical]);
                if let Some(ch) = self.noise.idle_channel(logical, p1) {
                    sink.channel(ch, &[logical]);
                }
                if let Some(ch) = self.noise.gate_error_1q(logical, p1) {
                    sink.channel(ch, &[logical]);
                }
            }
        } else {
            if let Some(ch) = self.noise.idle_channel(logical, duration_dt) {
                sink.channel(ch, &[logical]);
            }
            self.apply_idle_drift(sink, logical, duration_dt);
        }
    }

    /// Frame-frequency drift over an idle period (a Z rotation at the
    /// qubit's residual frequency offset).
    fn apply_idle_drift<S: ScheduleSink>(&self, sink: &mut S, logical: usize, duration_dt: u32) {
        let offset = self.backend.qubit(self.layout[logical]).freq_offset;
        if offset != 0.0 {
            sink.unitary(&virtual_z(offset * f64::from(duration_dt)), &[logical]);
        }
    }

    /// The unitary a 1q gate *actually* implements on hardware.
    ///
    /// Gates with nonzero duration are executed through the same pulse
    /// physics the pulse-level models compile against: calibrated
    /// Gaussian pulses distorted by the qubit's amplitude miscalibration
    /// and residual frame-frequency offset. Virtual (zero-duration) gates
    /// are exact frame changes. This keeps the physics identical across
    /// abstraction levels — the only asymmetry is *who can train against
    /// it*.
    pub(crate) fn actual_1q_unitary(&self, gate: &Gate, phys: usize, duration: u32) -> Matrix {
        use std::f64::consts::{FRAC_PI_2, PI};
        let ideal = gate.matrix().expect("program gates are bound");
        if duration == 0 {
            return ideal;
        }
        let qp = self.backend.qubit(phys);
        let w = Waveform::gaussian(self.backend.pulse_1q_duration_dt());
        let area = w.area();
        let over = 1.0 + qp.amp_error;
        let pulse = |angle: f64, phase: f64| {
            let amp = angle / (qp.drive_strength * area) * over;
            drive_propagator(&w, amp, phase, qp.freq_offset, qp.drive_strength)
        };
        match gate {
            // Single-pulse gates.
            Gate::X => pulse(PI, 0.0),
            Gate::Y => pulse(PI, FRAC_PI_2),
            Gate::SX => pulse(FRAC_PI_2, 0.0),
            Gate::H => {
                // H = RZ(pi/2) SX RZ(pi/2) up to phase.
                let vz = virtual_z(FRAC_PI_2);
                vz.matmul(&pulse(FRAC_PI_2, 0.0)).matmul(&vz)
            }
            // Two-pulse gates via the ZYZ expansion
            // RZ(beta + pi) SX RZ(gamma - pi) SX RZ(delta).
            _ => {
                let (_, beta, gamma, delta) = zyz_decompose(&ideal);
                // Both SX pulses are the same calibrated pulse: integrate
                // it once.
                let sx = pulse(FRAC_PI_2, 0.0);
                virtual_z(beta + PI)
                    .matmul(&sx)
                    .matmul(&virtual_z(gamma - PI))
                    .matmul(&sx)
                    .matmul(&virtual_z(delta))
            }
        }
    }

    /// Runs a program and samples `shots` noisy measurement outcomes
    /// (readout confusion applied exactly to the distribution, then
    /// sampled with the seeded RNG).
    ///
    /// This is the production exact path for a bare program: the
    /// schedule is walked and compiled into an exact superoperator tape
    /// ([`Executor::exact_replay_program`]), which
    /// [`Executor::sample_tape`] replays from `|0...0><0...0|` and
    /// samples. Its probabilities agree with the reference walk
    /// [`Executor::run`] to ≤ 1e-12 (see
    /// `crates/sim/src/replay/exact.rs`).
    /// Training and the serving tier skip the per-call walk: they bind a
    /// compiled shape's cached exact template into the tape
    /// ([`crate::models::VqaModel::exact_tape`],
    /// [`crate::compile::Compiled::bind_exact`]) and call
    /// [`Executor::sample_tape`] directly.
    ///
    /// Callers issuing *streams* of sampling calls (training probes,
    /// serve jobs) should derive `seed` from the call's position via
    /// [`hgp_sim::seed::stream_seed`], so concurrent schedules stay
    /// bit-identical to sequential ones.
    ///
    /// # Panics
    ///
    /// Same contract as [`Executor::run`].
    pub fn sample(&self, program: &Program, shots: usize, seed: u64) -> Counts {
        self.sample_tape(&self.exact_replay_program(program), shots, seed, &NoProfile)
    }

    /// [`Executor::sample`] over an already-built exact tape — the
    /// training path, where the tape comes from a model's compiled exact
    /// template ([`crate::models::VqaModel::exact_tape`]) and the
    /// per-probe schedule walk disappears. Evolves the tape and reads
    /// its measurement probabilities straight from the replay's planes
    /// ([`ExactReplayEngine::run_probabilities`], no `4^n` state is
    /// built), then samples like [`Executor::sample_state`] — the same
    /// counts, bit for bit. `sink` attributes the replay's per-op-kind
    /// wall time (training passes [`NoProfile`]; a serving worker its
    /// job profile); the counts are bit-identical for any sink.
    pub fn sample_tape<P: ProfileSink>(
        &self,
        tape: &ExactReplayProgram,
        shots: usize,
        seed: u64,
        sink: &P,
    ) -> Counts {
        let probs = ExactReplayEngine::for_program(tape).run_probabilities(tape, sink);
        self.sample_probabilities(&probs, tape.n_qubits(), shots, seed)
    }

    /// Samples measurement outcomes from an already-computed state.
    pub fn sample_state<B: SimBackend>(&self, rho: &B, shots: usize, seed: u64) -> Counts {
        self.sample_probabilities(&rho.probabilities(), rho.n_qubits(), shots, seed)
    }

    /// Readout-corrupts ideal outcome probabilities, renormalizes them,
    /// and draws `shots` outcomes with the seeded RNG.
    fn sample_probabilities(
        &self,
        ideal: &[f64],
        n_qubits: usize,
        shots: usize,
        seed: u64,
    ) -> Counts {
        let mut probs = self.readout.apply_to_probabilities(ideal);
        let sum: f64 = probs.iter().sum();
        if sum > 0.0 {
            for p in &mut probs {
                *p /= sum;
            }
        }
        // hgp-analysis: allow(d2) -- `seed` is a caller-supplied leaf seed; every
        // executor call site derives it through `hgp_sim::seed::stream_seed`.
        let mut rng = StdRng::seed_from_u64(seed);
        Counts::sample_from_probabilities(&probs, shots, n_qubits, &mut rng)
    }

    /// Runs `shots` stochastic statevector trajectories of a program —
    /// one measurement shot per trajectory, shot-level readout
    /// confusion — at `O(2^n)` per trajectory instead of the `O(4^n)`
    /// density-matrix cost, and embarrassingly parallel.
    ///
    /// Trajectory `i` draws all of its randomness from
    /// `stream_seed(seed, i)`, so any parallel schedule is bit-identical
    /// to the sequential loop.
    ///
    /// # Panics
    ///
    /// Panics if `shots` is zero, or on the [`Executor::run`] contract.
    pub fn sample_trajectories(&self, program: &Program, shots: usize, seed: u64) -> Counts {
        self.sample_replay(&self.replay_program(program), shots, seed)
    }

    /// [`Executor::sample_trajectories`] over an already-compiled replay
    /// tape — the serving path, where the tape comes from a schedule
    /// template and the per-job record/compile step disappears. Runs the
    /// SoA shot-block replay, bit-identical to the reference
    /// [`hgp_sim::TrajectoryEngine`] for every block size.
    ///
    /// # Panics
    ///
    /// Panics if `shots` is zero.
    pub fn sample_replay(&self, replay: &ReplayProgram, shots: usize, seed: u64) -> Counts {
        self.sample_replay_profiled(replay, shots, seed, &NoProfile)
    }

    /// [`Executor::sample_replay`] with an opt-in
    /// [`hgp_sim::ProfileSink`] attributing per-op-kind wall time
    /// inside the replay; counts are bit-identical for any
    /// sink.
    ///
    /// # Panics
    ///
    /// Panics if `shots` is zero.
    pub fn sample_replay_profiled<P: ProfileSink>(
        &self,
        replay: &ReplayProgram,
        shots: usize,
        seed: u64,
        sink: &P,
    ) -> Counts {
        ReplayEngine::new(shots, seed).sample_counts_with(
            replay,
            |bits, rng| self.readout.corrupt_bits(bits, rng),
            sink,
        )
    }

    /// Estimates a noisy expectation value from `n_trajectories`
    /// stochastic trajectories, returning `(mean, standard_error)`. The
    /// mean converges to [`Executor::run`]'s density-matrix expectation
    /// at the Monte-Carlo rate `O(1/sqrt(N))`; the standard error is the
    /// caller's convergence handle.
    ///
    /// # Panics
    ///
    /// Panics if `n_trajectories` is zero, or on the [`Executor::run`]
    /// contract.
    pub fn expectation_trajectories(
        &self,
        program: &Program,
        observable: &hgp_math::pauli::PauliSum,
        n_trajectories: usize,
        seed: u64,
    ) -> (f64, f64) {
        self.expectation_replay(
            &self.replay_program(program),
            observable,
            n_trajectories,
            seed,
        )
    }

    /// [`Executor::expectation_trajectories`] over an already-compiled
    /// replay tape (see [`Executor::sample_replay`]); shot-block
    /// execution, bit-identical to the reference trajectory engine.
    ///
    /// # Panics
    ///
    /// Panics if `n_trajectories` is zero.
    pub fn expectation_replay(
        &self,
        replay: &ReplayProgram,
        observable: &hgp_math::pauli::PauliSum,
        n_trajectories: usize,
        seed: u64,
    ) -> (f64, f64) {
        self.expectation_replay_profiled(replay, observable, n_trajectories, seed, &NoProfile)
    }

    /// [`Executor::expectation_replay`] with an opt-in
    /// [`hgp_sim::ProfileSink`] (see
    /// [`Executor::sample_replay_profiled`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_trajectories` is zero.
    pub fn expectation_replay_profiled<P: ProfileSink>(
        &self,
        replay: &ReplayProgram,
        observable: &hgp_math::pauli::PauliSum,
        n_trajectories: usize,
        seed: u64,
        sink: &P,
    ) -> (f64, f64) {
        ReplayEngine::new(n_trajectories, seed).expectation_with_error(replay, observable, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::BlockKind;
    use hgp_circuit::{Circuit, Gate};
    use hgp_math::pauli::{Pauli, PauliString, PauliSum};
    use hgp_math::Matrix;
    use hgp_noise::NoisySimulator;
    use hgp_sim::StateVector;

    #[test]
    fn gate_program_matches_noisy_simulator_on_ideal_hardware() {
        // With zero coherent calibration errors the executor's
        // pulse-backed gate path reduces exactly to the ideal-gate
        // NoisySimulator semantics.
        let backend = Backend::ideal(2);
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).rx(1, 0.4);
        let layout = vec![0, 1];
        let program = Program::from_circuit(&qc).unwrap();
        let by_exec = Executor::new(&backend, layout.clone()).run(&program);
        let by_noise = NoisySimulator::new(&backend)
            .simulate(&qc, &layout)
            .unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((by_exec.get(i, j) - by_noise.get(i, j)).norm() < 1e-9);
            }
        }
    }

    #[test]
    fn coherent_errors_perturb_but_do_not_destroy() {
        // On a real backend the executor's gates carry coherent
        // calibration errors, so it deviates from the ideal-gate noisy
        // simulator — slightly.
        let backend = Backend::ibmq_toronto();
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).rx(1, 0.4);
        let layout = vec![0, 1];
        let program = Program::from_circuit(&qc).unwrap();
        let by_exec = Executor::new(&backend, layout.clone()).run(&program);
        let by_noise = NoisySimulator::new(&backend)
            .simulate(&qc, &layout)
            .unwrap();
        let mut max_dev = 0.0f64;
        for i in 0..4 {
            for j in 0..4 {
                max_dev = max_dev.max((by_exec.get(i, j) - by_noise.get(i, j)).norm());
            }
        }
        assert!(max_dev > 1e-6, "coherent errors should show up");
        assert!(max_dev < 0.2, "but remain perturbative (got {max_dev})");
    }

    #[test]
    fn pulse_block_shorter_duration_means_less_decoherence() {
        let backend = Backend::ibmq_toronto();
        let exec = Executor::new(&backend, vec![0]);
        let x = Gate::X.matrix().unwrap();
        let mk = |duration| {
            let mut p = Program::new(1);
            // Repeat to amplify the effect.
            for _ in 0..20 {
                p.push_pulse_block(&[0], x.clone(), duration, BlockKind::Drive);
            }
            p
        };
        let long = exec.run(&mk(320)).purity();
        let short = exec.run(&mk(128)).purity();
        assert!(
            short > long,
            "shorter pulses should preserve purity: {short} vs {long}"
        );
    }

    #[test]
    fn readout_confusion_shows_in_samples() {
        let backend = Backend::ibmq_toronto();
        let exec = Executor::new(&backend, vec![0]);
        let mut p = Program::new(1);
        p.push_gate(Gate::X, &[0]);
        let counts = exec.sample(&p, 50_000, 7);
        let f0 = counts.frequency(0);
        // The state is ~|1>, but readout error leaks some weight to 0.
        let expected_leak = backend.qubit(0).readout_error;
        assert!(
            f0 > 0.2 * expected_leak && f0 < 5.0 * expected_leak + 0.02,
            "readout leak {f0} vs error {expected_leak}"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let backend = Backend::ibmq_guadalupe();
        let exec = Executor::new(&backend, vec![2, 3]);
        let mut p = Program::new(2);
        p.push_gate(Gate::H, &[0]).push_gate(Gate::CX, &[0, 1]);
        let a = exec.sample(&p, 1024, 5);
        let b = exec.sample(&p, 1024, 5);
        let c = exec.sample(&p, 1024, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn dynamical_decoupling_refocuses_idle_drift() {
        // A qubit parked in |+> while its neighbour works accumulates
        // coherent Z drift; the X-X pair refocuses it.
        let backend = Backend::ibmq_toronto();
        // Park the register on the qubit with the worst frame drift so the
        // refocusing effect dominates the DD pulses' own gate error.
        let worst = (0..backend.n_qubits())
            .max_by(|&a, &b| {
                backend
                    .qubit(a)
                    .freq_offset
                    .abs()
                    .partial_cmp(&backend.qubit(b).freq_offset.abs())
                    .expect("finite")
            })
            .expect("qubits");
        let neighbour = backend.coupling_map().neighbors(worst)[0];
        assert!(backend.qubit(worst).freq_offset.abs() > 5e-5);
        let mk_exec = |dd: bool| {
            let e = Executor::new(&backend, vec![worst, neighbour]);
            if dd {
                e.with_dynamical_decoupling()
            } else {
                e
            }
        };
        // H on q0, then q1 works for a long time, then H on q0 again.
        let mut p = Program::new(2);
        p.push_gate(Gate::H, &[0]);
        for _ in 0..80 {
            p.push_gate(Gate::X, &[1]);
        }
        // A 2q op synchronizes the clocks, realizing q0's idle gap (and
        // its drift) *before* the closing H — as routing-induced waits do
        // in real circuits. RZZ(0) is the identity, so it only syncs.
        p.push_gate(Gate::Rzz(hgp_circuit::Param::bound(0.0)), &[1, 0]);
        p.push_gate(Gate::H, &[0]);
        // Without drift, the program returns q0 to |0>; drift during the
        // idle rotates the frame and leaks probability to |1>.
        let leak = |dd: bool| {
            let rho = mk_exec(dd).run(&p);
            rho.probabilities()[0b01] + rho.probabilities()[0b11]
        };
        let without = leak(false);
        let with = leak(true);
        assert!(
            with < without,
            "DD should reduce drift leakage: {with} vs {without}"
        );
    }

    #[test]
    fn ideal_backend_reproduces_pure_state_through_blocks() {
        let backend = Backend::ideal(2);
        let exec = Executor::new(&backend, vec![0, 1]);
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        let psi = StateVector::from_circuit(&qc).unwrap();
        // Same circuit, but the H expressed as a pulse block.
        let mut p = Program::new(2);
        p.push_pulse_block(&[0], Gate::H.matrix().unwrap(), 160, BlockKind::Drive);
        p.push_gate(Gate::CX, &[0, 1]);
        let rho = exec.run(&p);
        assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-10);
        let _ = Matrix::identity(1);
    }

    #[test]
    fn trajectory_program_replays_the_exact_schedule() {
        // apply_exact of the recorded schedule reproduces run() bit for
        // bit — including pulse-backed 1q unitaries, frame drift, and
        // every noise channel.
        let backend = Backend::ibmq_toronto();
        let exec = Executor::new(&backend, vec![0, 1]);
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).rzz(0, 1, 0.7).rx(1, 0.4);
        let program = Program::from_circuit(&qc).unwrap();
        let by_run = exec.run(&program);
        let recorded = exec.trajectory_program(&program);
        assert!(recorded.n_channels() > 0);
        let mut by_recorded = DensityMatrix::init(2);
        recorded.apply_exact(&mut by_recorded);
        for i in 0..4 {
            for j in 0..4 {
                let (a, b) = (by_run.get(i, j), by_recorded.get(i, j));
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "({i},{j})");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn trajectory_program_replays_pulse_blocks_exactly() {
        // The hybrid path of the walker: pulse blocks enter the recorded
        // schedule as unitary ops with their duration-scaled noise
        // channels, and apply_exact reproduces run() bit for bit.
        let backend = Backend::ibmq_toronto();
        let graph = hgp_graph::instances::task1_three_regular_6();
        let region = vec![1, 2, 3, 4, 5, 7];
        let model = crate::models::HybridModel::new(&backend, &graph, 1, region).unwrap();
        let mut params = crate::models::VqaModel::initial_params(&model);
        for (i, p) in params.iter_mut().enumerate() {
            *p += 0.02 * (i as f64 + 1.0);
        }
        let program = crate::models::VqaModel::build(&model, &params);
        assert!(program.count_pulse_blocks() > 0, "mixer must be pulses");
        let exec = Executor::new(&backend, crate::models::VqaModel::layout(&model).to_vec());
        let by_run = exec.run(&program);
        let recorded = exec.trajectory_program(&program);
        assert!(recorded.n_channels() > 0);
        let mut by_recorded = DensityMatrix::init(program.n_qubits());
        recorded.apply_exact(&mut by_recorded);
        let dim = 1 << program.n_qubits();
        for i in 0..dim {
            for j in 0..dim {
                let (a, b) = (by_run.get(i, j), by_recorded.get(i, j));
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "({i},{j})");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn trajectory_expectation_converges_for_pulse_block_programs() {
        // Monte-Carlo trajectories of a hybrid gate-pulse program
        // converge to its exact density-matrix expectation — the
        // contract that makes the served hybrid trajectory kinds a
        // faithful O(2^n) substitute for the O(4^n) exact path.
        let backend = Backend::ibmq_toronto();
        let graph = hgp_graph::instances::task1_three_regular_6();
        let region = vec![1, 2, 3, 4, 5, 7];
        let model = crate::models::HybridModel::new(&backend, &graph, 1, region).unwrap();
        let params = crate::models::VqaModel::initial_params(&model);
        let program = crate::models::VqaModel::build(&model, &params);
        let exec = Executor::new(&backend, crate::models::VqaModel::layout(&model).to_vec());
        let zz = PauliSum::from_terms(vec![PauliString::new(
            6,
            vec![(0, Pauli::Z), (1, Pauli::Z)],
            1.0,
        )]);
        let exact = SimBackend::expectation(&exec.run(&program), &zz);
        let (mean, stderr) = exec.expectation_trajectories(&program, &zz, 3000, 11);
        assert!(
            (mean - exact).abs() < 4.0 * stderr.max(1e-3),
            "mean {mean} vs exact {exact} (stderr {stderr})"
        );
    }

    #[test]
    fn trajectory_expectation_converges_to_density_matrix() {
        let backend = Backend::ibmq_toronto();
        let exec = Executor::new(&backend, vec![0, 1]);
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).rzz(0, 1, 0.7).rx(1, 0.4);
        let program = Program::from_circuit(&qc).unwrap();
        let zz = PauliSum::from_terms(vec![PauliString::new(
            2,
            vec![(0, Pauli::Z), (1, Pauli::Z)],
            1.0,
        )]);
        let exact = SimBackend::expectation(&exec.run(&program), &zz);
        let (mean, stderr) = exec.expectation_trajectories(&program, &zz, 4096, 23);
        assert!(
            (mean - exact).abs() < 4.0 * stderr.max(1e-3),
            "mean {mean} vs exact {exact} (stderr {stderr})"
        );
    }

    #[test]
    fn replay_routing_is_bit_identical_to_the_trajectory_engine() {
        // The executor's trajectory entry points now run on the replay
        // engine; the reference TrajectoryEngine over the recorded
        // schedule must agree bit for bit — counts, means, errors.
        use hgp_sim::TrajectoryEngine;
        let backend = Backend::ibmq_toronto();
        let exec = Executor::new(&backend, vec![0, 1]);
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).rzz(0, 1, 0.7).rx(1, 0.4);
        let program = Program::from_circuit(&qc).unwrap();
        let recorded = exec.trajectory_program(&program);
        let zz = PauliSum::from_terms(vec![PauliString::new(
            2,
            vec![(0, Pauli::Z), (1, Pauli::Z)],
            1.0,
        )]);
        let by_replay = exec.expectation_trajectories(&program, &zz, 256, 3);
        let by_engine = TrajectoryEngine::new(256, 3).expectation_with_error(&recorded, &zz);
        assert_eq!(by_replay.0.to_bits(), by_engine.0.to_bits());
        assert_eq!(by_replay.1.to_bits(), by_engine.1.to_bits());
        let counts = exec.sample_trajectories(&program, 512, 9);
        let reference = TrajectoryEngine::new(512, 9).sample_counts_with(&recorded, |bits, rng| {
            exec.readout().corrupt_bits(bits, rng)
        });
        assert_eq!(counts, reference);
    }

    #[test]
    fn trajectory_sampling_is_deterministic_and_readout_aware() {
        let backend = Backend::ibmq_guadalupe();
        let exec = Executor::new(&backend, vec![2, 3]);
        let mut p = Program::new(2);
        p.push_gate(Gate::X, &[0]).push_gate(Gate::X, &[1]);
        let a = exec.sample_trajectories(&p, 2048, 5);
        let b = exec.sample_trajectories(&p, 2048, 5);
        let c = exec.sample_trajectories(&p, 2048, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The state is ~|11>; shot-level readout confusion leaks weight
        // out of it at roughly the calibrated rate.
        let leak = 1.0 - a.frequency(0b11);
        let expected = backend.qubit(2).readout_error + backend.qubit(3).readout_error;
        assert!(
            leak > 0.2 * expected && leak < 5.0 * expected + 0.02,
            "leak {leak} vs expected {expected}"
        );
    }

    #[test]
    fn sample_replays_the_exact_tape_in_agreement_with_the_walk() {
        // `sample` evolves the compiled exact tape; the interpreted walk
        // `run` is its reference. On the paper's 6q cell programs (gate
        // and hybrid, guadalupe) under plain, dynamical-decoupling and
        // amplified-noise executors, the tape's probabilities stay within
        // 1e-12 of the walk's and the sampled counts are equal.
        use crate::models::{GateModel, GateModelOptions, HybridModel, VqaModel};
        let backend = Backend::ibmq_guadalupe();
        let graph = hgp_graph::instances::task1_three_regular_6();
        let region: Vec<usize> = (0..6).collect();
        let options = GateModelOptions::optimized();
        let gate = GateModel::new(&backend, &graph, 1, region.clone(), options).unwrap();
        let hybrid = HybridModel::with_options(&backend, &graph, 1, region, options).unwrap();
        let models: [&dyn VqaModel; 2] = [&gate, &hybrid];
        for model in models {
            let layout = model.layout().to_vec();
            let plain = Executor::new(&backend, layout.clone());
            let scaled = Arc::new(plain.noise_model().scaled(2.5));
            let executors = [
                ("plain", plain.clone()),
                ("dd", plain.clone().with_dynamical_decoupling()),
                (
                    "scaled",
                    Executor::with_noise_model(&backend, layout, scaled),
                ),
            ];
            let mut params = model.initial_params();
            for (i, p) in params.iter_mut().enumerate() {
                *p += 0.03 * (i as f64 + 1.0);
            }
            let program = model.build(&params);
            for (tag, exec) in &executors {
                let by_walk = exec.run(&program);
                let by_tape = exec.run_exact_replay(&exec.exact_replay_program(&program));
                for (a, b) in by_walk
                    .probabilities()
                    .iter()
                    .zip(by_tape.probabilities().iter())
                {
                    assert!((a - b).abs() <= 1e-12, "{tag}: |{a} - {b}| > 1e-12");
                }
                for seed in [0, 7, 42, 1042] {
                    assert_eq!(
                        exec.sample(&program, 1024, seed),
                        exec.sample_state(&by_walk, 1024, seed),
                        "{tag}: seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn injected_noise_model_overrides_the_backend() {
        // An executor with a rescaled model produces strictly noisier
        // states — the ZNE amplification path.
        let backend = Backend::ibmq_toronto();
        let layout = vec![0, 1];
        let base = Executor::new(&backend, layout.clone());
        let amplified =
            Executor::with_noise_model(&backend, layout, Arc::new(base.noise_model().scaled(3.0)));
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1).cx(0, 1);
        let program = Program::from_circuit(&qc).unwrap();
        let p1 = base.run(&program).purity();
        let p3 = amplified.run(&program).purity();
        assert!(p3 < p1, "amplified noise must lower purity: {p3} vs {p1}");
    }
}
