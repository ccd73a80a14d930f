//! Dispatch-invariant schedule templates.
//!
//! The recorded [`hgp_sim::TrajectoryProgram`] of a compiled shape is
//! *shape-constant* except for its parametric entries: the channel
//! structure, idle windows, frame drift, and pulse-backed unitaries of
//! fixed gates depend only on durations and calibration — never on the
//! bound parameter vector. Re-walking the ASAP schedule (and rebuilding
//! every channel's Kraus matrices) per dispatch therefore repeats work
//! whose result is known at compile time.
//!
//! A [`Template`] records the schedule **once per shape** (lazily, on
//! the first bind of its path, so a shape serving only exact jobs never
//! records a trajectory tape and vice versa) — walked by the same
//! [`Executor`] walk that serves exact and trajectory dispatches, so it
//! cannot drift — into a compiled [`Tape`], and remembers where each
//! parametric program op landed ([`ReplaySlot`]). The template is generic
//! over the tape's kind: [`TrajectoryTemplate`] holds a
//! [`hgp_sim::ReplayProgram`], [`ExactTemplate`] an
//! [`hgp_sim::ExactReplayProgram`] superoperator tape, and both record,
//! resolve slots, and bind through the one code path here.
//! Binding substitutes only the parametric entries:
//!
//! - bound-angle diagonals (`RZZ(gamma)` cost layers) re-derive their
//!   two/four phase factors,
//! - parametric 1q gates re-run the pulse physics for *their* op alone,
//! - hybrid mixer pulse blocks re-integrate their drive propagator from
//!   the calibration cached on the compiled program,
//!
//! and everything else — the walk, the idle analysis, the channel
//! tables, the fixed-gate pulse integrations — is reused verbatim. The
//! result is bit-identical to recording and compiling the bound program
//! from scratch (pinned by `crates/core` tests and the serve
//! determinism suites). Which parametric ops a shape has, and how a
//! mixer slot is evaluated, is the compiled program family's business
//! ([`ProgramFamily`](crate::compile::ProgramFamily)); this module only
//! records and substitutes.

use hgp_circuit::{Circuit, Gate, Instruction};
use hgp_math::Matrix;
use hgp_noise::sink::{RecordSink, ScheduleSink};
use hgp_noise::{NoiseChannel, NoiseModel};
use hgp_sim::kernels::diagonal_2q;
use hgp_sim::replay::{ExactKind, Tape, TapeKind, TrajectoryKind};
use hgp_sim::{ReplaySlot, TrajectoryProgram};

use crate::executor::Executor;
use crate::program::Program;

pub(crate) use vocabulary::{ParamScope, SlotValue, TemplateSlot};

/// The crate-private template vocabulary. Its items are `pub` inside a
/// private module, so the public [`Template`] and
/// [`ProgramFamily`](crate::compile::ProgramFamily) can name them in
/// bounds and signatures without exporting them.
mod vocabulary {
    use hgp_circuit::Gate;
    use hgp_math::Matrix;
    use hgp_sim::kernels::DiagOp;

    use crate::executor::Executor;

    /// Which slice of the dispatch parameter vector a parametric gate binds
    /// against.
    #[derive(Debug, Clone, Copy)]
    pub enum ParamScope {
        /// The full vector (circuit shapes: gate param ids index it
        /// directly).
        Full,
        /// The single parameter at this flat index (hybrid layer circuits
        /// have exactly one free parameter, the layer's `gamma`, with local
        /// id 0).
        Single(usize),
    }

    impl ParamScope {
        fn bind(self, gate: &Gate, params: &[f64]) -> Gate {
            match self {
                ParamScope::Full => gate.bind(params),
                ParamScope::Single(i) => gate.bind(&[params[i]]),
            }
        }
    }

    /// How to recompute one parametric tape entry at bind time.
    #[derive(Debug, Clone)]
    pub enum TemplateSlot {
        /// A diagonal gate (`RZ`/`RZZ`-family): re-derive its phase factors.
        Diag {
            gate: Gate,
            qubits: Vec<usize>,
            scope: ParamScope,
        },
        /// A parametric 1q gate: re-run the executor's pulse-backed physics
        /// at the bound angle.
        Pulse1q {
            gate: Gate,
            qubit: usize,
            duration: u32,
            scope: ParamScope,
        },
        /// A parametric dense 2q gate (`RZX`-family): re-derive its matrix.
        Dense { gate: Gate, scope: ParamScope },
        /// A hybrid mixer pulse block: re-integrated by
        /// [`crate::compile::CompiledProgram`] from its cached calibration.
        Mixer { layer: usize, logical: usize },
    }

    /// A substituted slot value.
    pub enum SlotValue {
        Diag(DiagOp),
        Unitary(Matrix),
    }

    impl TemplateSlot {
        /// Evaluates a *gate* slot (everything but [`TemplateSlot::Mixer`],
        /// which needs the compiled program's pulse calibration).
        pub fn eval(&self, exec: &Executor, params: &[f64]) -> SlotValue {
            match self {
                TemplateSlot::Diag {
                    gate,
                    qubits,
                    scope,
                } => {
                    let bound = scope.bind(gate, params);
                    SlotValue::Diag(
                        DiagOp::from_gate(&bound, qubits)
                            .expect("template slot gates are diagonal"),
                    )
                }
                TemplateSlot::Pulse1q {
                    gate,
                    qubit,
                    duration,
                    scope,
                } => {
                    let bound = scope.bind(gate, params);
                    let phys = exec.layout()[*qubit];
                    SlotValue::Unitary(exec.actual_1q_unitary(&bound, phys, *duration))
                }
                TemplateSlot::Dense { gate, scope } => {
                    let bound = scope.bind(gate, params);
                    SlotValue::Unitary(bound.matrix().expect("template slot gates bind fully"))
                }
                TemplateSlot::Mixer { .. } => {
                    unreachable!("mixer slots are evaluated by the compiled program")
                }
            }
        }
    }
}

/// Scans a (possibly parametrized) circuit for the program ops a
/// dispatch must re-bind, classifying each into its [`TemplateSlot`].
///
/// `op_base` is the program-op index of the circuit's first gate (hybrid
/// programs concatenate several layer circuits); the returned count is
/// the number of program ops the circuit contributes, mirroring
/// [`Program::from_circuit`]'s instruction filtering exactly.
pub(crate) fn parametric_gate_specs(
    noise: &NoiseModel,
    circuit: &Circuit,
    scope: ParamScope,
    op_base: usize,
) -> (Vec<(usize, TemplateSlot)>, usize) {
    let mut specs = Vec::new();
    let mut op_idx = op_base;
    // Diagonality of a parametric gate is value-independent; probe at a
    // reference binding.
    let probe = vec![0.0; circuit.n_params()];
    for inst in circuit.instructions() {
        let Instruction::Gate { gate, qubits } = inst else {
            continue;
        };
        if !gate.is_bound() {
            let spec = match gate.n_qubits() {
                // The walker executes every 1q gate through the pulse
                // physics (diagonal or not), so every parametric 1q gate
                // is a pulse-backed slot.
                1 => TemplateSlot::Pulse1q {
                    gate: *gate,
                    qubit: qubits[0],
                    duration: noise.gate_duration_dt(gate, qubits),
                    scope,
                },
                2 if diagonal_2q(&gate.bind(&probe)).is_some() => TemplateSlot::Diag {
                    gate: *gate,
                    qubits: qubits.clone(),
                    scope,
                },
                _ => TemplateSlot::Dense { gate: *gate, scope },
            };
            specs.push((op_idx, spec));
        }
        op_idx += 1;
    }
    (specs, op_idx - op_base)
}

/// A [`RecordSink`] that also maps each program op to the trajectory-op
/// index of its applied gate/unitary, via the walker's
/// [`ScheduleSink::begin_applied`] markers.
struct TemplateRecordSink {
    record: RecordSink,
    positions: Vec<Option<usize>>,
    pending: Option<usize>,
}

impl TemplateRecordSink {
    fn new(n_qubits: usize, n_ops: usize) -> Self {
        Self {
            record: RecordSink(TrajectoryProgram::new(n_qubits)),
            positions: vec![None; n_ops],
            pending: None,
        }
    }

    fn mark(&mut self) {
        if let Some(op) = self.pending.take() {
            self.positions[op] = Some(self.record.0.ops().len());
        }
    }
}

impl ScheduleSink for TemplateRecordSink {
    fn gate(&mut self, gate: &Gate, qubits: &[usize]) -> Option<()> {
        self.mark();
        self.record.gate(gate, qubits)
    }

    fn unitary(&mut self, matrix: &Matrix, targets: &[usize]) {
        self.mark();
        self.record.unitary(matrix, targets);
    }

    fn channel(&mut self, channel: NoiseChannel, targets: &[usize]) {
        self.record.channel(channel, targets);
    }

    fn begin_applied(&mut self, op_index: usize) {
        self.pending = Some(op_index);
    }
}

/// Walks `reference` through `exec`'s schedule into a recorded program,
/// returning it alongside the program-op → trajectory-op position map.
/// Both template flavors (trajectory and exact) compile from this one
/// walk, so they cannot drift from each other or from the reference
/// paths, which use the same walker.
fn record_positions(
    exec: &Executor,
    reference: &Program,
) -> (TrajectoryProgram, Vec<Option<usize>>) {
    let mut sink = TemplateRecordSink::new(reference.n_qubits(), reference.ops().len());
    exec.walk_with_sink(reference, &mut sink);
    (sink.record.0, sink.positions)
}

/// Resolves each spec'd program op to the tape slot its trajectory op
/// compiled into.
///
/// # Panics
///
/// Panics if a spec'd program op emitted no applied entry — the walker
/// emits exactly one per program op, so this indicates a walker/template
/// mismatch, not bad user input.
fn resolve_slots(
    positions: &[Option<usize>],
    traj_slots: &[ReplaySlot],
    specs: Vec<(usize, TemplateSlot)>,
) -> Vec<(ReplaySlot, TemplateSlot)> {
    specs
        .into_iter()
        .map(|(op_idx, spec)| {
            let traj_idx =
                positions[op_idx].expect("every program op emits exactly one applied entry");
            (traj_slots[traj_idx], spec)
        })
        .collect()
}

/// The compile-time artifact: the shape-constant schedule as a [`Tape`]
/// of kind `K` — trajectory or exact — plus the substitution plan for
/// its parametric entries. Both kinds record through the same walk and
/// bind through the same plan. See the module docs.
#[derive(Debug, Clone)]
pub struct Template<K: TapeKind> {
    tape: Tape<K>,
    slots: Vec<(ReplaySlot, TemplateSlot)>,
}

/// The trajectory-path template: a [`hgp_sim::ReplayProgram`] tape,
/// recorded lazily on the first trajectory bind.
pub type TrajectoryTemplate = Template<TrajectoryKind>;

/// The exact-path template: an [`hgp_sim::ExactReplayProgram`]
/// superoperator tape (fused diagonal runs, resolved dense
/// conjugations, resolved channels), recorded lazily on the first exact
/// bind.
pub type ExactTemplate = Template<ExactKind>;

impl<K: TapeKind> Template<K> {
    /// Records `reference` (the shape bound at an arbitrary reference
    /// point) through `exec`'s schedule walk, compiles the tape, and
    /// resolves each spec'd program op to its tape slot.
    pub(crate) fn record(
        exec: &Executor,
        reference: &Program,
        specs: Vec<(usize, TemplateSlot)>,
    ) -> Self {
        let (recorded, positions) = record_positions(exec, reference);
        let (tape, tape_slots) = Tape::compile_with_slots(&recorded);
        let slots = resolve_slots(&positions, &tape_slots, specs);
        Self { tape, slots }
    }

    /// Number of parametric slots a dispatch substitutes.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Tape length of the shape-constant schedule.
    pub fn n_ops(&self) -> usize {
        self.tape.n_ops()
    }

    /// Clones the shape-constant tape (channel tables are shared, not
    /// copied) and substitutes every parametric slot through `eval` —
    /// the whole per-dispatch cost of the template path.
    pub(crate) fn bind_with(&self, mut eval: impl FnMut(&TemplateSlot) -> SlotValue) -> Tape<K> {
        let mut tape = self.tape.clone();
        for (slot, spec) in &self.slots {
            match eval(spec) {
                SlotValue::Diag(d) => tape.substitute_diag(*slot, d),
                SlotValue::Unitary(m) => tape.substitute_unitary(*slot, &m),
            }
        }
        tape
    }
}
