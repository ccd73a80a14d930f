//! The compile/execute split: transpile once per program *shape*, bind
//! parameters at dispatch.
//!
//! The paper's workloads — and any production QAOA service — evaluate
//! one program shape at thousands of parameter points. Hand-driving
//! [`Executor`] repeats the expensive shape work (cancellation, SABRE
//! placement, routing) on every call even though only the bound angles
//! change. This module factors that work into cacheable artifacts, one
//! per program family:
//!
//! - [`CircuitCompiler::compile`] runs the circuit shape work once,
//!   producing a [`CompiledCircuit`], which binds a parameter vector
//!   into an executable [`Program`] in `O(gates)`;
//! - [`CircuitCompiler::compile_hybrid`] does the same for hybrid
//!   gate-pulse QAOA shapes ([`HybridShape`]: graph, depth, mixer
//!   duration, pass options), producing a [`CompiledProgram`] — the
//!   paper's central abstraction as a served artifact. The shape step
//!   routes every Hamiltonian layer with chained layouts, resolves the
//!   per-wire mixer pulse calibration (Rabi rate, amplitude
//!   miscalibration, frame offset, envelope area), and builds the
//!   layout's noise model; binding then substitutes QAOA angles and
//!   per-qubit pulse trims per dispatch, integrating each mixer drive
//!   pulse from the cached calibration — bit-identical to
//!   [`HybridModel`](crate::models::HybridModel)'s
//!   [`VqaModel::build`](crate::models::VqaModel::build), which
//!   delegates here.
//!
//! Below the gate/pulse split both families share everything, so both
//! are one type, [`Compiled`], over a family body: [`CircuitBody`] (the
//! routed circuit) or [`HybridBody`] (routed Hamiltonian layers plus the
//! mixer calibration). The shared half — cache key, region, the
//! logical↔wire map, the layout's `Arc<NoiseModel>`, the backend, and
//! the two lazily recorded schedule templates — lives once, with every
//! method that reads only it (`executor`, `exit_wire`, `decode_counts`,
//! `decode_probabilities`, `wire_observable`) and the one template-bind
//! skeleton behind `bind_replay` and `bind_exact`. The family body
//! contributes what differs ([`ProgramFamily`]): its parameter count,
//! how it binds, which of its ops are parametric, and how a mixer pulse
//! slot is evaluated.
//!
//! Compiled artifacts are keyed by [`Circuit::structural_key`] /
//! [`HybridShape::structural_key`] (hybrid keys fold in a leading
//! domain tag, keeping them apart from the untagged circuit encoding),
//! which is what `hgp_serve`'s compiled-program cache indexes on.
//! Carrying the layout's noise model means noisy dispatches — exact
//! density walks or `O(2^n)`-per-shot stochastic trajectories — never
//! rebuild channel parameters.
//!
//! Each artifact also carries a [`Template`]
//! per path: the noisy ASAP schedule recorded **once per shape**
//! (lazily, on the first bind of that path, so workloads that never use
//! a path never pay for it) into an op-fused tape with parametric slots
//! — an [`hgp_sim::ReplayProgram`] for trajectories, an
//! [`hgp_sim::ExactReplayProgram`] superoperator tape for the exact
//! path. [`Compiled::bind_replay`] / [`Compiled::bind_exact`] substitute
//! a binding's parametric entries (bound-angle diagonals, pulse-backed
//! parametric 1q gates, mixer pulse blocks) into the cached tape — no
//! per-dispatch schedule walk, no channel rebuild — bit-identical to
//! recording the bound program from scratch, which is also the fallback
//! taken for executors whose physics deviate from the recording
//! (dynamical decoupling, ZNE-scaled noise models).
//!
//! Everything reachable from request-derived data returns typed errors
//! rather than panicking: a malformed shape (empty graph, invalid mixer
//! duration, disconnected region) must fail its job, never a serving
//! worker.
//!
//! ```
//! use hgp_core::compile::{CircuitCompiler, HybridShape};
//! use hgp_core::qaoa::qaoa_circuit;
//! use hgp_device::Backend;
//! use hgp_graph::instances;
//!
//! let backend = Backend::ibmq_guadalupe();
//! let graph = instances::task1_three_regular_6();
//! let compiler = CircuitCompiler::new(&backend, vec![0, 1, 2, 3, 4, 5]);
//! let compiled = compiler.compile(&qaoa_circuit(&graph, 1)).expect("fits region");
//! // Binding is cheap; do it once per parameter point.
//! let program = compiled.bind(&[0.35, 0.25]);
//! assert!(program.count_gates() > 0);
//!
//! // The hybrid analogue: gate Hamiltonian layers + native mixer
//! // pulses, compiled once, bound per point.
//! let shape = HybridShape::new(graph, 1);
//! let hybrid = compiler.compile_hybrid(&shape).expect("compiles");
//! let program = hybrid.bind(&vec![0.0; hybrid.n_params()]);
//! assert!(program.count_pulse_blocks() > 0);
//! ```

use std::sync::{Arc, OnceLock};

use hgp_circuit::Circuit;
use hgp_device::{Backend, CouplingMap};
use hgp_graph::Graph;
use hgp_math::pauli::{PauliString, PauliSum};
use hgp_math::Matrix;
use hgp_noise::NoiseModel;
use hgp_pulse::propagator::drive_propagator;
use hgp_pulse::Waveform;
use hgp_sim::replay::{Tape, TapeKind};
use hgp_sim::{Counts, ExactReplayProgram, ReplayProgram};
use hgp_transpile::cancellation::cancel_gates;
use hgp_transpile::sabre::{choose_initial_layout, route};
use hgp_transpile::Layout;

use crate::executor::Executor;
use crate::models::{
    try_region_coupling, GateModelOptions, FREQ_SHIFT_HW_BOUND, FREQ_TRIM_AUTHORITY_RAD,
    MIXER_AMP_BOUND, PHASE_TRIM_BOUND,
};
use crate::program::{BlockKind, Program};
use crate::qaoa::append_hamiltonian_layer;
use crate::template::{
    parametric_gate_specs, ExactTemplate, ParamScope, SlotValue, Template, TemplateSlot,
    TrajectoryTemplate,
};

/// Compiles logical circuits into a fixed physical region, once per
/// shape.
///
/// The region plays the same role as in the model types: routing happens
/// inside a fixed connected set of physical qubits, so the simulated
/// register never grows beyond the region and the logical-to-physical
/// mapping is reproducible. A circuit of `n` qubits uses the first `n`
/// region entries.
#[derive(Debug, Clone)]
pub struct CircuitCompiler<'a> {
    backend: &'a Backend,
    region: Vec<usize>,
    options: GateModelOptions,
}

impl<'a> CircuitCompiler<'a> {
    /// Creates a compiler routing into `region` (physical qubits) with
    /// the optimized pipeline ([`GateModelOptions::optimized`]).
    ///
    /// # Panics
    ///
    /// Panics if a region entry is out of range or repeated.
    pub fn new(backend: &'a Backend, region: Vec<usize>) -> Self {
        let mut seen = vec![false; backend.n_qubits()];
        for &p in &region {
            assert!(p < backend.n_qubits(), "physical qubit {p} out of range");
            assert!(!seen[p], "physical qubit {p} repeated in region");
            seen[p] = true;
        }
        Self {
            backend,
            region,
            options: GateModelOptions::optimized(),
        }
    }

    /// Overrides the pass configuration (e.g. [`GateModelOptions::raw`]
    /// for the paper's unoptimized baseline).
    pub fn with_options(mut self, options: GateModelOptions) -> Self {
        self.options = options;
        self
    }

    /// The backend compiled against.
    pub fn backend(&self) -> &Backend {
        self.backend
    }

    /// The full available region.
    pub fn region(&self) -> &[usize] {
        &self.region
    }

    /// Runs the shape work — cancellation, placement, routing — on a
    /// (possibly parametrized) logical circuit. Free parameters survive
    /// compilation and are bound per dispatch via
    /// [`CompiledCircuit::bind`].
    ///
    /// # Errors
    ///
    /// Returns an error — never panics — if the circuit is wider than
    /// the region or its first `n` region qubits induce a disconnected
    /// subgraph (routing inside it would deadlock): a request-derived
    /// circuit must fail its job, not the serving thread.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledCircuit, String> {
        // Entry placement + the shared shape pipeline (cancellation,
        // routing, cancellation). `GateModel` is a view over this
        // artifact, so model-built circuits are compiled shapes.
        let (region, sub, entry) = self.place(circuit, self.options.sabre_iterations, "circuit")?;
        let (wire_circuit, final_layout, n_swaps) =
            route_in_region(circuit, &sub, &entry, &self.options);
        Ok(Compiled::new(
            circuit.structural_key(),
            self.backend,
            region,
            final_layout,
            CircuitBody {
                circuit: wire_circuit,
                n_swaps,
            },
        ))
    }

    /// The first `n` region qubits for an `n`-qubit `probe`, their
    /// induced coupling map, and the entry layout SABRE places the probe
    /// with inside them (trivial when placement is off). `what` names
    /// the program in errors.
    fn place(
        &self,
        probe: &Circuit,
        sabre_iterations: usize,
        what: &str,
    ) -> Result<(Vec<usize>, CouplingMap, Layout), String> {
        let n = probe.n_qubits();
        if n > self.region.len() {
            return Err(format!(
                "{what} has {n} qubits but the region only {}",
                self.region.len()
            ));
        }
        let region = self.region[..n].to_vec();
        let sub = try_region_coupling(self.backend, &region)?;
        let entry = if sabre_iterations > 0 {
            choose_initial_layout(probe, &sub, sabre_iterations)
        } else {
            Layout::trivial(n, n)
        };
        Ok((region, sub, entry))
    }

    /// Runs the hybrid shape work — per-layer Hamiltonian routing,
    /// mixer pulse-block calibration, noise-model construction — once
    /// per [`HybridShape`], producing a [`CompiledProgram`] whose
    /// [`CompiledProgram::bind`] substitutes QAOA angles and pulse trims
    /// in `O(gates + qubits)` per dispatch.
    ///
    /// The shape carries its own [`GateModelOptions`] (they are part of
    /// its structural identity), so this compiler's
    /// [`CircuitCompiler::with_options`] setting is ignored here.
    ///
    /// # Errors
    ///
    /// Returns an error — never panics — on any malformed
    /// request-derived shape: an empty or oversized graph, zero layers,
    /// an invalid mixer duration, or a region whose first `n` qubits
    /// induce a disconnected subgraph.
    pub fn compile_hybrid(&self, shape: &HybridShape) -> Result<CompiledProgram, String> {
        shape.validate()?;
        let n = shape.graph().n_nodes();
        let options = shape.options();
        // Entry placement from a Hamiltonian-layer probe, then per-layer
        // routing with chained layouts — the exact sequence
        // `HybridModel` has always run, so compiled shapes stay in
        // lockstep with model-built programs (bit-for-bit).
        let mut probe = Circuit::new(n);
        let gamma = probe.add_param();
        append_hamiltonian_layer(&mut probe, shape.graph(), gamma);
        let (region, sub, mut current) =
            self.place(&probe, options.sabre_iterations, "hybrid program")?;
        let mut layers = Vec::with_capacity(shape.p());
        for layer in 0..shape.p() {
            let mut qc = Circuit::new(n);
            let gamma = qc.add_param();
            if layer == 0 {
                // The initial |+> wall belongs to the first layer's gate
                // part (state preparation stays at the gate level).
                for q in 0..n {
                    qc.h(q);
                }
            }
            append_hamiltonian_layer(&mut qc, shape.graph(), gamma);
            let (circuit, out_layout, _n_swaps) = route_in_region(&qc, &sub, &current, &options);
            let wires = (0..n).map(|l| out_layout.physical(l)).collect();
            layers.push(CompiledPulseLayer { circuit, wires });
            current = out_layout;
        }
        // Mixer pulse-block calibration, resolved once per shape (the
        // same per-qubit Rabi calibration `PulseLibrary` applies to the
        // backend's own gate pulses): binding only has to scale the
        // commanded angle by the cached rate and integrate the envelope.
        let wire_drive = region
            .iter()
            .map(|&p| {
                let qp = self.backend.qubit(p);
                DriveCalibration {
                    strength: qp.drive_strength,
                    amp_error: qp.amp_error,
                    freq_offset: qp.freq_offset,
                }
            })
            .collect();
        let mixer_waveform = Waveform::gaussian(shape.mixer_duration_dt());
        Ok(Compiled::new(
            shape.structural_key(),
            self.backend,
            region,
            current,
            HybridBody {
                shape: shape.clone(),
                layers,
                mixer_area: mixer_waveform.area(),
                mixer_waveform,
                wire_drive,
            },
        ))
    }
}

/// Routes a logical circuit inside a region (`sub`, its induced
/// coupling map), preserving free parameters: cancellation, routing from
/// `entry_layout`, cancellation. Returns the region-wire circuit, the
/// exit layout, and the number of SWAPs routing inserted.
///
/// The one shape pipeline of both program families: circuits route
/// whole, hybrid programs layer by layer with chained layouts.
fn route_in_region(
    circuit: &Circuit,
    sub: &CouplingMap,
    entry_layout: &Layout,
    options: &GateModelOptions,
) -> (Circuit, Layout, usize) {
    let mut logical = circuit.clone();
    if options.cancellation {
        logical = cancel_gates(&logical);
    }
    let routed = route(&logical, sub, entry_layout);
    let mut out = routed.circuit;
    if options.cancellation {
        out = cancel_gates(&out);
    }
    (out, routed.final_layout, routed.n_swaps)
}

/// A program shape after compilation, of either family: routed onto
/// region wires, still parametrized, ready for per-dispatch binding.
///
/// Wire `i` lives on physical qubit `region()[i]`; an [`Executor`] built
/// over that layout ([`Compiled::executor`]) executes bound programs,
/// and [`Compiled::decode_counts`] / [`Compiled::decode_probabilities`]
/// undo the routing permutation so results read in logical qubit order.
/// `F` is the family body — [`CircuitBody`] for a [`CompiledCircuit`],
/// [`HybridBody`] for a [`CompiledProgram`]; every method here is
/// inherent, so callers never import a trait.
#[derive(Debug, Clone)]
pub struct Compiled<F> {
    key: u64,
    region: Vec<usize>,
    final_layout: Layout,
    n_logical: usize,
    /// The wire layout's noise parameters (T1/T2, gate errors,
    /// durations, readout), built once at compile time and shared with
    /// every executor of this shape.
    noise: Arc<NoiseModel>,
    /// The backend this shape was compiled against — the identity the
    /// template binds check before trusting the recorded fixed-gate
    /// pulse physics.
    backend: Backend,
    /// The shape-constant trajectory schedule (channel structure, idle
    /// windows, fixed-gate pulse unitaries) with parametric slots,
    /// recorded on the first trajectory bind, so shapes serving only
    /// exact jobs never pay the recording.
    replay_template: OnceLock<TrajectoryTemplate>,
    /// The same schedule as a superoperator tape, recorded on the first
    /// exact bind.
    exact_template: OnceLock<ExactTemplate>,
    family: F,
}

/// A circuit shape after transpilation (see [`Compiled`]).
pub type CompiledCircuit = Compiled<CircuitBody>;

/// A hybrid gate-pulse shape after compilation: Hamiltonian layers
/// routed onto region wires (still parametrized over `gamma`), mixer
/// pulse calibration resolved per wire, noise model built (see
/// [`Compiled`]).
///
/// [`Compiled::bind`] substitutes a full parameter vector
/// (`[gamma, theta, phase_0, f_0, ...]` per layer, the
/// [`HybridModel`](crate::models::HybridModel) layout) into an
/// executable hybrid [`Program`]: gate layers bind `gamma` in
/// `O(gates)`; each mixer pulse block integrates its drive propagator
/// from the cached calibration. The result is bit-identical to the
/// model's [`VqaModel::build`](crate::models::VqaModel::build) — the
/// model delegates to this artifact — so served hybrid jobs replay
/// model-driven runs exactly.
pub type CompiledProgram = Compiled<HybridBody>;

/// What a compiled program family contributes to [`Compiled`]: its
/// parameter count, how it binds, which of its program ops a schedule
/// template must substitute per dispatch, and how each such slot is
/// evaluated.
///
/// Implemented by [`CircuitBody`] and [`HybridBody`]; its methods name
/// crate-private template types, so no other crate can implement it.
/// Callers name it only as a bound, to run one code path over both
/// families (every method they call is inherent on [`Compiled`]).
pub trait ProgramFamily {
    /// Number of parameters a dispatch must bind.
    fn n_params(&self) -> usize;

    /// Binds a parameter vector into an executable program over region
    /// wires.
    fn bind(&self, params: &[f64]) -> Program;

    /// The parametric program ops, as `(op index, slot)` in op order,
    /// with gate durations read from the shape's noise model.
    fn template_specs(&self, noise: &NoiseModel) -> Vec<(usize, TemplateSlot)>;

    /// Evaluates one slot at a binding (gate slots by default).
    fn eval_slot(&self, slot: &TemplateSlot, exec: &Executor, params: &[f64]) -> SlotValue {
        slot.eval(exec, params)
    }
}

impl<F> Compiled<F> {
    fn new(
        key: u64,
        backend: &Backend,
        region: Vec<usize>,
        final_layout: Layout,
        family: F,
    ) -> Self {
        Self {
            key,
            n_logical: region.len(),
            noise: Arc::new(NoiseModel::from_backend(backend, &region)),
            region,
            final_layout,
            backend: backend.clone(),
            replay_template: OnceLock::new(),
            exact_template: OnceLock::new(),
            family,
        }
    }

    /// The source shape's structural key ([`Circuit::structural_key`]
    /// or [`HybridShape::structural_key`]) — the cache key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Gives the artifact a new key after a shape change, dropping both
    /// recorded templates: they belong to the old shape, and the next
    /// bind of each path re-records.
    fn rekey(&mut self, key: u64) {
        self.key = key;
        self.replay_template = OnceLock::new();
        self.exact_template = OnceLock::new();
    }

    /// Number of logical qubits (equals the wire count).
    pub fn n_qubits(&self) -> usize {
        self.n_logical
    }

    /// Physical qubit of each wire.
    pub fn region(&self) -> &[usize] {
        &self.region
    }

    /// The compiled shape's cached noise model (wire layout order).
    pub fn noise_model(&self) -> &Arc<NoiseModel> {
        &self.noise
    }

    /// An executor over this shape's wire layout, reusing the noise
    /// model cached at compile time. `backend` must be the one the shape
    /// was compiled against.
    pub fn executor<'b>(&self, backend: &'b Backend) -> Executor<'b> {
        Executor::with_noise_model(backend, self.region.clone(), Arc::clone(&self.noise))
    }

    /// The wire hosting logical qubit `l` at measurement (after
    /// routing's final permutation).
    pub fn exit_wire(&self, l: usize) -> usize {
        self.final_layout.physical(l)
    }

    fn exit_wires(&self) -> Vec<usize> {
        (0..self.n_logical).map(|l| self.exit_wire(l)).collect()
    }

    /// Maps measured wire counts back to logical-qubit counts.
    pub fn decode_counts(&self, counts: &Counts) -> Counts {
        counts.remapped(&self.exit_wires(), self.n_logical)
    }

    /// Maps a wire-basis probability vector back to logical order.
    ///
    /// # Panics
    ///
    /// Panics if `wire_probs.len() != 2^n_qubits`.
    pub fn decode_probabilities(&self, wire_probs: &[f64]) -> Vec<f64> {
        assert_eq!(wire_probs.len(), 1 << self.n_logical, "probability length");
        let map = self.exit_wires();
        let mut out = vec![0.0; 1 << self.n_logical];
        for (s, &p) in wire_probs.iter().enumerate() {
            let mut decoded = 0usize;
            for (l, &w) in map.iter().enumerate() {
                if (s >> w) & 1 == 1 {
                    decoded |= 1 << l;
                }
            }
            out[decoded] += p;
        }
        out
    }

    /// Rewrites an observable over logical qubits into wire indices, so
    /// it can be evaluated directly on the executed state.
    ///
    /// # Panics
    ///
    /// Panics if the observable width disagrees with the program.
    pub fn wire_observable(&self, observable: &PauliSum) -> PauliSum {
        assert_eq!(
            observable.n_qubits(),
            self.n_logical,
            "observable width must match the program"
        );
        let terms = observable
            .terms()
            .iter()
            .map(|t| {
                let factors = t
                    .factors()
                    .iter()
                    .map(|&(q, p)| (self.exit_wire(q), p))
                    .collect();
                PauliString::new(self.n_logical, factors, t.coeff())
            })
            .collect();
        PauliSum::from_terms(terms)
    }

    /// The shape-constant trajectory schedule template, if a trajectory
    /// bind has recorded it yet (recording is lazy).
    pub fn replay_template(&self) -> Option<&TrajectoryTemplate> {
        self.replay_template.get()
    }

    /// The shape-constant exact schedule template, if an exact bind has
    /// recorded it yet (recording is lazy).
    pub fn exact_template(&self) -> Option<&ExactTemplate> {
        self.exact_template.get()
    }

    /// Whether `exec` matches the recorded templates' physics: they are
    /// recorded against this artifact's own backend and noise model with
    /// no dynamical decoupling, so an executor that deviates (a
    /// different or recalibrated backend, a scaled ZNE model, DD
    /// enabled) must take the full walk instead.
    fn template_compatible(&self, exec: &Executor) -> bool {
        !exec.uses_dynamical_decoupling()
            && Arc::ptr_eq(exec.noise_model(), &self.noise)
            && *exec.backend() == self.backend
    }
}

impl<F: ProgramFamily> Compiled<F> {
    /// Number of parameters a dispatch must bind.
    pub fn n_params(&self) -> usize {
        self.family.n_params()
    }

    /// Binds a parameter vector into an executable program over region
    /// wires — the per-dispatch step. A circuit binds its gates in
    /// `O(gates)`; a hybrid program binds each layer's `gamma` and
    /// integrates each qubit's mixer pulse from the commanded shared
    /// angle `theta` (clamped to the hardware amplitude bound) with its
    /// per-qubit phase and frequency trims, through the *true* pulse
    /// physics: calibration error and frame offset act on the pulse
    /// exactly as on gate-level pulses, but here the trims can cancel
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.n_params()`.
    pub fn bind(&self, params: &[f64]) -> Program {
        self.family.bind(params)
    }

    /// Binds a parameter vector straight into an executable replay tape
    /// — the trajectory-path analogue of [`Compiled::bind`] that skips
    /// the per-dispatch schedule walk: the recorded tape (walked once
    /// per shape) is cloned (channel tables shared) and only the
    /// parametric entries are recomputed — bound-angle diagonals,
    /// pulse-backed parametric 1q gates, and mixer pulse blocks, which
    /// re-integrate their drive propagators from the cached calibration.
    ///
    /// Bit-identical to `exec.replay_program(&self.bind(params))` —
    /// which is also the path taken when `exec` does not match the
    /// template's physics (dynamical decoupling enabled, or a noise
    /// model other than this shape's cached one, e.g. a ZNE-scaled
    /// copy). `exec` must be an executor over this shape's wire layout
    /// (see [`Compiled::executor`]).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.n_params()`.
    pub fn bind_replay(&self, exec: &Executor, params: &[f64]) -> ReplayProgram {
        self.bind_template(&self.replay_template, exec, params, |p| {
            exec.replay_program(p)
        })
    }

    /// Binds a parameter vector straight into an exact-path
    /// superoperator tape — the density-matrix analogue of
    /// [`Compiled::bind_replay`]: no per-dispatch schedule walk, no
    /// channel re-resolution, only the parametric entries recomputed.
    ///
    /// Parity against `exec.exact_replay_program(&self.bind(params))` —
    /// which is also the fallback when `exec` deviates from the
    /// template's physics — follows the exact-tape contract:
    /// bit-identical tape, hence bit-identical replay.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.n_params()`.
    pub fn bind_exact(&self, exec: &Executor, params: &[f64]) -> ExactReplayProgram {
        self.bind_template(&self.exact_template, exec, params, |p| {
            exec.exact_replay_program(p)
        })
    }

    /// The template-bind skeleton both paths share: the compatibility
    /// check with its full-walk fallback (`walk`), the lazy record at a
    /// reference binding, and the per-dispatch slot substitution.
    fn bind_template<K: TapeKind>(
        &self,
        template: &OnceLock<Template<K>>,
        exec: &Executor,
        params: &[f64],
        walk: impl FnOnce(&Program) -> Tape<K>,
    ) -> Tape<K> {
        assert_eq!(params.len(), self.n_params(), "parameter count");
        if !self.template_compatible(exec) {
            return walk(&self.bind(params));
        }
        let template = template.get_or_init(|| {
            let reference = self.bind(&vec![0.0; self.n_params()]);
            Template::record(exec, &reference, self.family.template_specs(&self.noise))
        });
        template.bind_with(|slot| self.family.eval_slot(slot, exec, params))
    }
}

impl CompiledCircuit {
    /// The routed wire circuit (possibly parametrized).
    pub fn circuit(&self) -> &Circuit {
        &self.family.circuit
    }

    /// SWAPs inserted by routing.
    pub fn n_swaps(&self) -> usize {
        self.family.n_swaps
    }
}

/// The circuit family's body: the routed wire circuit.
#[derive(Debug, Clone)]
pub struct CircuitBody {
    circuit: Circuit,
    n_swaps: usize,
}

impl ProgramFamily for CircuitBody {
    fn n_params(&self) -> usize {
        self.circuit.n_params()
    }

    fn bind(&self, params: &[f64]) -> Program {
        Program::from_circuit(&self.circuit.bind(params)).expect("bound circuit converts")
    }

    fn template_specs(&self, noise: &NoiseModel) -> Vec<(usize, TemplateSlot)> {
        parametric_gate_specs(noise, &self.circuit, ParamScope::Full, 0).0
    }
}

/// The compile-time identity of a hybrid gate-pulse QAOA program: the
/// problem graph, the QAOA depth, the mixer pulse duration, and the
/// gate-level pass configuration.
///
/// A shape is to [`CompiledProgram`] what a parametrized [`Circuit`] is
/// to [`CompiledCircuit`]: the cacheable unit. Every parameter binding
/// (QAOA angles plus per-qubit pulse trims) of one shape shares one
/// compiled artifact, keyed by [`HybridShape::structural_key`].
///
/// Construction never validates (shapes cross the serve wire, where
/// malformed values must fail a *job*); [`CircuitCompiler::compile_hybrid`]
/// returns typed errors for invalid shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridShape {
    graph: Graph,
    p: usize,
    mixer_duration_dt: u32,
    options: GateModelOptions,
}

impl HybridShape {
    /// A hybrid shape with the raw 320 dt mixer duration and raw
    /// (unoptimized) gate passes.
    pub fn new(graph: Graph, p: usize) -> Self {
        Self {
            graph,
            p,
            mixer_duration_dt: 320,
            options: GateModelOptions::raw(),
        }
    }

    /// Overrides the mixer pulse duration (Step I's knob). Validity
    /// (positive multiple of 32 dt) is checked at compile time.
    pub fn with_mixer_duration(mut self, duration_dt: u32) -> Self {
        self.mixer_duration_dt = duration_dt;
        self
    }

    /// Overrides the gate-level pass configuration.
    pub fn with_options(mut self, options: GateModelOptions) -> Self {
        self.options = options;
        self
    }

    /// The problem instance.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// QAOA depth.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Mixer pulse duration, `dt`.
    pub fn mixer_duration_dt(&self) -> u32 {
        self.mixer_duration_dt
    }

    /// The gate-level pass configuration.
    pub fn options(&self) -> GateModelOptions {
        self.options
    }

    /// Number of logical qubits (= graph nodes).
    pub fn n_qubits(&self) -> usize {
        self.graph.n_nodes()
    }

    /// Parameters per QAOA layer: `gamma`, the shared mixer angle
    /// `theta`, and `(phase, freq)` per qubit.
    pub fn params_per_layer(&self) -> usize {
        2usize.saturating_add(self.n_qubits().saturating_mul(2))
    }

    /// Total trainable parameters a binding must supply.
    ///
    /// Saturating: a wire-decoded shape with an absurd depth must
    /// produce a huge-but-honest count for the validation layer to
    /// reject, never wrap around to a small one (which would let the
    /// request past validation and into an unbounded compile loop).
    pub fn n_params(&self) -> usize {
        self.p.saturating_mul(self.params_per_layer())
    }

    /// Indices of the core (algorithmic) parameters — per layer, `gamma`
    /// and the shared mixer angle `theta` — for the two-stage
    /// coarse-gate / fine-pulse-trim training protocol.
    pub fn coarse_param_ids(&self) -> Vec<usize> {
        let per_layer = self.params_per_layer();
        (0..self.p)
            .flat_map(|l| [l * per_layer, l * per_layer + 1])
            .collect()
    }

    /// The largest QAOA depth a served shape may declare. Far above any
    /// workload this simulator can evaluate, but small enough that a
    /// wire-supplied depth can never turn the per-layer compile loop
    /// into a denial of service.
    pub const MAX_P: usize = 64;
    /// The largest graph a served shape may declare (the `O(4^n)` exact
    /// walk is already out of reach well below this).
    pub const MAX_QUBITS: usize = 28;
    /// The longest mixer pulse a served shape may declare, `dt`
    /// (binding integrates one SU(2) step per dt per qubit per layer).
    pub const MAX_MIXER_DURATION_DT: u32 = 1 << 16;

    /// Structural sanity of the shape itself (backend-independent).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty or oversized graph, a zero or
    /// absurd layer count, or a mixer duration that is not a positive
    /// multiple of 32 dt within [`HybridShape::MAX_MIXER_DURATION_DT`].
    /// Every bound exists so that request-derived shapes are rejected
    /// with a typed error *before* any superlinear compile work runs.
    pub fn validate(&self) -> Result<(), String> {
        if self.graph.n_nodes() == 0 {
            return Err("hybrid shape needs at least one qubit".to_string());
        }
        if self.graph.n_nodes() > Self::MAX_QUBITS {
            return Err(format!(
                "hybrid shape has {} qubits (max {})",
                self.graph.n_nodes(),
                Self::MAX_QUBITS
            ));
        }
        if self.p == 0 {
            return Err("hybrid shape needs at least one QAOA layer".to_string());
        }
        if self.p > Self::MAX_P {
            return Err(format!(
                "hybrid shape has {} QAOA layers (max {})",
                self.p,
                Self::MAX_P
            ));
        }
        if self.mixer_duration_dt == 0
            || !self.mixer_duration_dt.is_multiple_of(32)
            || self.mixer_duration_dt > Self::MAX_MIXER_DURATION_DT
        {
            return Err(format!(
                "mixer duration must be a positive multiple of 32 dt at most {} (got {})",
                Self::MAX_MIXER_DURATION_DT,
                self.mixer_duration_dt
            ));
        }
        Ok(())
    }

    /// A canonical FNV-1a hash of the shape — the compiled-program
    /// cache key, playing [`Circuit::structural_key`]'s role for hybrid
    /// jobs. Distinct graphs, depths, durations, or pass configurations
    /// hash distinctly; a leading domain tag keeps hybrid keys apart
    /// from the untagged circuit-key encoding.
    pub fn structural_key(&self) -> u64 {
        let mut h = hgp_math::fnv::Fnv1a::new();
        h.byte(b'H');
        h.usize(self.graph.n_nodes());
        h.usize(self.graph.n_edges());
        for e in self.graph.edges() {
            h.usize(e.u);
            h.usize(e.v);
            h.f64(e.weight);
        }
        h.usize(self.p);
        h.u64(u64::from(self.mixer_duration_dt));
        h.byte(u8::from(self.options.cancellation));
        h.usize(self.options.sabre_iterations);
        h.finish()
    }
}

/// One QAOA layer of a compiled hybrid shape: the routed
/// Hamiltonian-layer circuit (one free `gamma`) and the region wire each
/// logical qubit sits on when the mixer pulses play.
#[derive(Debug, Clone)]
struct CompiledPulseLayer {
    circuit: Circuit,
    wires: Vec<usize>,
}

/// Per-wire drive calibration, copied from the backend at compile time
/// so binding never touches the device tables.
#[derive(Debug, Clone, Copy)]
struct DriveCalibration {
    strength: f64,
    amp_error: f64,
    freq_offset: f64,
}

impl CompiledProgram {
    /// The shape this program was compiled from.
    pub fn shape(&self) -> &HybridShape {
        &self.family.shape
    }

    /// Mixer pulse duration, `dt`.
    pub fn mixer_duration_dt(&self) -> u32 {
        self.family.shape.mixer_duration_dt()
    }

    /// The mixer pulse envelope at the compiled duration.
    pub fn mixer_waveform(&self) -> Waveform {
        self.family.mixer_waveform
    }

    /// The drive amplitude that reproduces `RX(theta)` at the compiled
    /// mixer duration on region wire `wire` (initialization helper).
    pub fn amp_for_angle(&self, wire: usize, theta: f64) -> f64 {
        self.family.amp_for_angle(wire, theta)
    }

    /// Rebuilds this artifact at a different mixer duration (Step I's
    /// binary search). Routing is duration-independent and reused; only
    /// the mixer waveform, its cached area, and the cache key change.
    /// The recorded schedules are duration-dependent (pulse-block spans,
    /// idle windows, channel exposures), so re-keying drops both
    /// templates and the next bind re-records at the new duration.
    ///
    /// # Panics
    ///
    /// Panics if `duration_dt` is not a positive multiple of 32 dt.
    pub fn with_mixer_duration(mut self, duration_dt: u32) -> Self {
        assert!(
            duration_dt > 0 && duration_dt.is_multiple_of(32),
            "mixer duration must be a positive multiple of 32 dt"
        );
        let body = &mut self.family;
        body.shape = body.shape.clone().with_mixer_duration(duration_dt);
        body.mixer_waveform = Waveform::gaussian(duration_dt);
        body.mixer_area = body.mixer_waveform.area();
        let key = body.shape.structural_key();
        self.rekey(key);
        self
    }
}

/// The hybrid family's body: the routed Hamiltonian layers and the
/// per-wire mixer pulse calibration.
#[derive(Debug, Clone)]
pub struct HybridBody {
    shape: HybridShape,
    layers: Vec<CompiledPulseLayer>,
    mixer_area: f64,
    mixer_waveform: Waveform,
    wire_drive: Vec<DriveCalibration>,
}

impl HybridBody {
    fn amp_for_angle(&self, wire: usize, theta: f64) -> f64 {
        theta / (self.wire_drive[wire].strength * self.mixer_area)
    }

    /// Integrates one mixer pulse block from the cached calibration: the
    /// region wire it plays on and its drive-propagator unitary. Shared
    /// by [`ProgramFamily::bind`] and the template's mixer slots, so the
    /// two paths are bit-identical by construction.
    fn mixer_unitary(&self, layer_idx: usize, l: usize, params: &[f64]) -> (usize, Matrix) {
        let per_layer = self.shape.params_per_layer();
        let duration = self.shape.mixer_duration_dt();
        let chunk = &params[layer_idx * per_layer..(layer_idx + 1) * per_layer];
        let theta = chunk[1];
        let freq_bound = (FREQ_TRIM_AUTHORITY_RAD / f64::from(duration)).min(FREQ_SHIFT_HW_BOUND);
        let phase = chunk[2 + 2 * l].clamp(-PHASE_TRIM_BOUND, PHASE_TRIM_BOUND);
        // The raw parameter is a *fraction* of the allowed trim, so the
        // same physical pulse has the same parameter value at every
        // duration (Step I changes durations mid-pipeline).
        let freq_param = (2.0 * chunk[2 + 2 * l + 1]).clamp(-1.0, 1.0) * freq_bound;
        let wire = self.layers[layer_idx].wires[l];
        let cal = self.wire_drive[wire];
        let amp_cmd = self
            .amp_for_angle(wire, theta)
            .clamp(-MIXER_AMP_BOUND, MIXER_AMP_BOUND);
        let unitary = drive_propagator(
            &self.mixer_waveform,
            amp_cmd * (1.0 + cal.amp_error),
            phase,
            freq_param + cal.freq_offset,
            cal.strength,
        );
        (wire, unitary)
    }
}

impl ProgramFamily for HybridBody {
    fn n_params(&self) -> usize {
        self.shape.n_params()
    }

    fn bind(&self, params: &[f64]) -> Program {
        assert_eq!(params.len(), self.n_params(), "parameter count");
        let mut program = Program::new(self.shape.n_qubits());
        let per_layer = self.shape.params_per_layer();
        let duration = self.shape.mixer_duration_dt();
        for (layer_idx, layer) in self.layers.iter().enumerate() {
            let gamma = params[layer_idx * per_layer];
            let bound = layer.circuit.bind(&[gamma]);
            program.append(&Program::from_circuit(&bound).expect("bound layer"));
            for l in 0..self.shape.n_qubits() {
                let (wire, unitary) = self.mixer_unitary(layer_idx, l, params);
                program.push_pulse_block(&[wire], unitary, duration, BlockKind::Drive);
            }
        }
        program
    }

    /// Each layer circuit's free `gamma` gates, then the layer's mixer
    /// pulse blocks, one per qubit.
    fn template_specs(&self, noise: &NoiseModel) -> Vec<(usize, TemplateSlot)> {
        let per_layer = self.shape.params_per_layer();
        let mut specs = Vec::new();
        let mut op_base = 0usize;
        for (layer_idx, layer) in self.layers.iter().enumerate() {
            let (layer_specs, n_ops) = parametric_gate_specs(
                noise,
                &layer.circuit,
                ParamScope::Single(layer_idx * per_layer),
                op_base,
            );
            specs.extend(layer_specs);
            op_base += n_ops;
            for logical in 0..self.shape.n_qubits() {
                specs.push((
                    op_base,
                    TemplateSlot::Mixer {
                        layer: layer_idx,
                        logical,
                    },
                ));
                op_base += 1;
            }
        }
        specs
    }

    fn eval_slot(&self, slot: &TemplateSlot, exec: &Executor, params: &[f64]) -> SlotValue {
        match slot {
            TemplateSlot::Mixer { layer, logical } => {
                SlotValue::Unitary(self.mixer_unitary(*layer, *logical, params).1)
            }
            gate_slot => gate_slot.eval(exec, params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::VqaModel;
    use crate::qaoa::{cost_hamiltonian, qaoa_circuit};
    use hgp_graph::instances;
    use hgp_sim::{SimBackend, StateVector};

    fn compiled_qaoa<'a>(
        backend: &'a Backend,
        graph: &hgp_graph::Graph,
    ) -> (CircuitCompiler<'a>, CompiledCircuit) {
        let compiler = CircuitCompiler::new(backend, (0..graph.n_nodes()).collect());
        let compiled = compiler.compile(&qaoa_circuit(graph, 1)).unwrap();
        (compiler, compiled)
    }

    #[test]
    fn compiled_key_matches_source_key() {
        let backend = Backend::ideal(6);
        let graph = instances::task1_three_regular_6();
        let (_, compiled) = compiled_qaoa(&backend, &graph);
        assert_eq!(compiled.key(), qaoa_circuit(&graph, 1).structural_key());
        assert_eq!(compiled.n_params(), 2);
        assert_eq!(compiled.n_qubits(), 6);
    }

    #[test]
    fn bind_then_execute_matches_naive_per_point_compilation() {
        // The split's semantic contract: compiling once and binding at N
        // points gives the same distributions as binding first and
        // simulating the logical circuit directly.
        let backend = Backend::ideal(6);
        let graph = instances::task2_random_6();
        let (_, compiled) = compiled_qaoa(&backend, &graph);
        for params in [[0.35, 0.25], [1.1, -0.4], [0.0, 0.9]] {
            let wire = StateVector::execute(&compiled.circuit().bind(&params)).unwrap();
            let got = compiled.decode_probabilities(&wire.probabilities());
            let reference = StateVector::execute(&qaoa_circuit(&graph, 1).bind(&params)).unwrap();
            for (b, (g, r)) in got.iter().zip(reference.probabilities()).enumerate() {
                assert!((g - r).abs() < 1e-10, "params {params:?}, state {b}");
            }
        }
    }

    #[test]
    fn decode_counts_matches_decode_probabilities() {
        let backend = Backend::ibmq_guadalupe();
        let graph = instances::task1_three_regular_6();
        let compiler = CircuitCompiler::new(&backend, vec![1, 2, 3, 4, 5, 8]);
        let compiled = compiler.compile(&qaoa_circuit(&graph, 1)).unwrap();
        let program = compiled.bind(&[0.35, 0.25]);
        let exec = compiled.executor(&backend);
        let rho = exec.run(&program);
        let counts = exec.sample_state(&rho, 400_000, 9);
        let logical = compiled.decode_counts(&counts);
        let probs = compiled
            .decode_probabilities(&exec.readout().apply_to_probabilities(&rho.probabilities()));
        for (b, &p) in probs.iter().enumerate() {
            assert!((logical.frequency(b) - p).abs() < 0.01, "state {b:06b}");
        }
    }

    #[test]
    fn wire_observable_preserves_expectation() {
        let backend = Backend::ideal(6);
        let graph = instances::task2_random_6();
        let (_, compiled) = compiled_qaoa(&backend, &graph);
        let params = [0.7, 0.3];
        let obs = cost_hamiltonian(&graph);
        let wire_state = StateVector::execute(&compiled.circuit().bind(&params)).unwrap();
        let by_wire = wire_state.expectation(&compiled.wire_observable(&obs));
        let by_logical = StateVector::execute(&qaoa_circuit(&graph, 1).bind(&params))
            .unwrap()
            .expectation(&obs);
        assert!(
            (by_wire - by_logical).abs() < 1e-10,
            "{by_wire} vs {by_logical}"
        );
    }

    #[test]
    fn oversized_circuit_is_an_error() {
        let backend = Backend::ideal(4);
        let compiler = CircuitCompiler::new(&backend, vec![0, 1, 2]);
        let wide = qaoa_circuit(&instances::task1_three_regular_6(), 1);
        assert!(compiler.compile(&wide).is_err());
    }

    #[test]
    fn disconnected_region_prefix_is_a_circuit_compile_error() {
        // Guadalupe does not couple (0, 15): a 2-qubit circuit routed
        // into that prefix must fail with a typed error, not panic the
        // (serving) thread that compiles it.
        let backend = Backend::ibmq_guadalupe();
        let compiler = CircuitCompiler::new(&backend, vec![0, 15, 1]);
        let mut qc = Circuit::new(2);
        qc.h(0).cx(0, 1);
        let err = compiler.compile(&qc).unwrap_err();
        assert!(err.contains("disconnected"), "{err}");
        // The full region is fine for a 3-qubit circuit (0-1 couple and
        // 1 bridges to nothing here, so expect the same typed error,
        // never a panic).
        let mut wide = Circuit::new(3);
        wide.h(0);
        assert!(compiler.compile(&wide).is_err());
    }

    #[test]
    fn absurd_shape_bounds_are_rejected_before_compile_work() {
        let graph = instances::task1_three_regular_6();
        // A wire-supplied depth far past the bound must fail validation
        // (and n_params must saturate rather than wrap to a small value
        // that would sneak the request past parameter-count checks).
        let absurd = HybridShape::new(graph.clone(), usize::MAX / 8);
        assert!(absurd.n_params() >= usize::MAX / 8);
        let err = absurd.validate().unwrap_err();
        assert!(err.contains("layers"), "{err}");
        assert!(HybridShape::new(graph.clone(), HybridShape::MAX_P + 1)
            .validate()
            .is_err());
        assert!(HybridShape::new(graph.clone(), HybridShape::MAX_P)
            .validate()
            .is_ok());
        // Oversized graphs and absurd durations are equally typed.
        let wide = Graph::new(HybridShape::MAX_QUBITS + 1);
        assert!(HybridShape::new(wide, 1).validate().is_err());
        assert!(HybridShape::new(graph, 1)
            .with_mixer_duration(HybridShape::MAX_MIXER_DURATION_DT + 32)
            .validate()
            .is_err());
    }

    #[test]
    fn hybrid_shape_key_is_stable_and_discriminating() {
        let graph = instances::task1_three_regular_6();
        let base = HybridShape::new(graph.clone(), 1);
        assert_eq!(
            base.structural_key(),
            HybridShape::new(graph.clone(), 1).structural_key()
        );
        // Depth, duration, options, and graph all participate.
        assert_ne!(
            base.structural_key(),
            HybridShape::new(graph.clone(), 2).structural_key()
        );
        assert_ne!(
            base.structural_key(),
            base.clone().with_mixer_duration(128).structural_key()
        );
        assert_ne!(
            base.structural_key(),
            base.clone()
                .with_options(GateModelOptions::optimized())
                .structural_key()
        );
        assert_ne!(
            base.structural_key(),
            HybridShape::new(instances::task2_random_6(), 1).structural_key()
        );
    }

    #[test]
    fn compiled_program_bind_is_bit_identical_to_the_hybrid_model() {
        // The serve path (compile_hybrid + bind) and the model path
        // (HybridModel::build) must produce literally the same program:
        // every gate binding and every pulse-block unitary bit for bit.
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let region = vec![1, 2, 3, 4, 5, 7];
        let model = crate::models::HybridModel::with_options(
            &backend,
            &graph,
            2,
            region.clone(),
            GateModelOptions::optimized(),
        )
        .unwrap();
        let shape = HybridShape::new(graph, 2).with_options(GateModelOptions::optimized());
        let compiled = CircuitCompiler::new(&backend, region)
            .compile_hybrid(&shape)
            .unwrap();
        assert_eq!(compiled.n_params(), model.n_params());
        let mut params = model.initial_params();
        // Perturb the trims so the pulse path is exercised non-trivially.
        for (i, p) in params.iter_mut().enumerate() {
            *p += 0.01 * (i as f64 + 1.0);
        }
        let a = model.build(&params);
        let b = compiled.bind(&params);
        assert_eq!(a.structural_key(), b.structural_key());
        assert_eq!(a, b);
    }

    #[test]
    fn circuit_bind_replay_is_bit_identical_to_the_full_schedule_walk() {
        // The dispatch-invariant template substitutes bound-gamma
        // diagonals and pulse-backed RX slots; the result must be
        // indistinguishable — bit for bit — from binding, re-walking the
        // ASAP schedule, and compiling the tape per dispatch, and from
        // the reference TrajectoryEngine over the recorded program.
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let compiler = CircuitCompiler::new(&backend, vec![1, 2, 3, 4, 5, 7]);
        let compiled = compiler.compile(&qaoa_circuit(&graph, 2)).unwrap();
        // Recording is lazy: compile alone pays nothing.
        assert!(compiled.replay_template().is_none());
        let exec = compiled.executor(&backend);
        let obs = compiled.wire_observable(&cost_hamiltonian(&graph));
        let mut recorded_at = None;
        for params in [
            [0.35, 0.25, -0.8, 1.1],
            [0.0, 0.0, 0.0, 0.0],
            [1.9, -2.4, 0.3, 0.7],
        ] {
            let by_template = compiled.bind_replay(&exec, &params);
            let program = compiled.bind(&params);
            let by_walk = exec.replay_program(&program);
            let recorded = exec.trajectory_program(&program);
            let fast = hgp_sim::ReplayEngine::new(48, 9);
            let reference = hgp_sim::TrajectoryEngine::new(48, 9);
            let a = fast.expectations(&by_template, &obs, &hgp_sim::NoProfile);
            let b = fast.expectations(&by_walk, &obs, &hgp_sim::NoProfile);
            let c = reference.expectations(&recorded, &obs);
            for ((x, y), z) in a.iter().zip(b.iter()).zip(c.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "template vs walk, {params:?}");
                assert_eq!(x.to_bits(), z.to_bits(), "template vs engine, {params:?}");
            }
            assert_eq!(
                fast.sample_counts_with(&by_template, |bits, _| bits, &hgp_sim::NoProfile),
                reference.sample_counts(&recorded),
                "{params:?}"
            );
            // Recorded once: every later bind reuses the same template.
            let template = compiled.replay_template().expect("recorded");
            let first = *recorded_at.get_or_insert(template);
            assert!(std::ptr::eq(first, template), "re-recorded, {params:?}");
        }
        assert!(compiled.replay_template().expect("recorded").n_slots() > 0);

        // An executor whose physics deviate from the recording — DD
        // enabled, a ZNE-scaled noise model, or a different backend
        // (which reuses the cached noise Arc, so the pointer check alone
        // would not catch it) — must not ride the template: bind_replay
        // takes the full walk and stays bit-identical to that executor's
        // own path.
        let other_backend = Backend::ibmq_guadalupe();
        let params = [0.35, 0.25, -0.8, 1.1];
        for deviant in [
            compiled.executor(&backend).with_dynamical_decoupling(),
            Executor::with_noise_model(
                &backend,
                compiled.region().to_vec(),
                Arc::new(compiled.noise_model().scaled(2.0)),
            ),
            compiled.executor(&other_backend),
        ] {
            let by_bind = compiled.bind_replay(&deviant, &params);
            let by_walk = deviant.replay_program(&compiled.bind(&params));
            let fast = hgp_sim::ReplayEngine::new(24, 7);
            let a = fast.expectations(&by_bind, &obs, &hgp_sim::NoProfile);
            let b = fast.expectations(&by_walk, &obs, &hgp_sim::NoProfile);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "deviant executor fallback");
            }
        }
    }

    #[test]
    fn hybrid_bind_replay_is_bit_identical_and_survives_invalidation() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let shape = HybridShape::new(graph.clone(), 2).with_options(GateModelOptions::optimized());
        let compiled = CircuitCompiler::new(&backend, vec![1, 2, 3, 4, 5, 7])
            .compile_hybrid(&shape)
            .unwrap();
        assert!(compiled.replay_template().is_none(), "recording is lazy");
        let exec = compiled.executor(&backend);
        let obs = compiled.wire_observable(&cost_hamiltonian(&graph));
        let mut params = vec![0.0; compiled.n_params()];
        for (i, p) in params.iter_mut().enumerate() {
            *p = 0.03 * (i as f64 + 1.0) - 0.4;
        }
        let check = |compiled: &CompiledProgram, tag: &str| {
            let by_template = compiled.bind_replay(&exec, &params);
            let by_walk = exec.replay_program(&compiled.bind(&params));
            let fast = hgp_sim::ReplayEngine::new(32, 5);
            let a = fast.expectations(&by_template, &obs, &hgp_sim::NoProfile);
            let b = fast.expectations(&by_walk, &obs, &hgp_sim::NoProfile);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{tag}");
            }
        };
        check(&compiled, "fresh");
        // The first bind recorded the template: every layer binds its
        // gamma gates and n mixer blocks.
        let template = compiled.replay_template().expect("recorded on first bind");
        assert!(template.n_slots() >= 2 * compiled.n_qubits());
        // A second bind reuses that recording rather than re-recording.
        check(&compiled, "second bind");
        let again = compiled.replay_template().expect("still recorded");
        assert!(std::ptr::eq(template, again), "re-recorded on a later bind");
        // Re-keying the duration resets the (duration-dependent)
        // template; the next bind re-records at the new duration,
        // bit-identically to the full walk.
        let shorter = compiled.clone().with_mixer_duration(128);
        assert!(shorter.replay_template().is_none());
        check(&shorter, "re-keyed");
        assert!(shorter.replay_template().is_some(), "re-recorded");
    }

    /// Elementwise ≤ 1e-12 against the reference density walk, plus the
    /// trace invariant — the exact-tape parity contract.
    fn assert_exact_close(
        rho: &hgp_sim::DensityMatrix,
        reference: &hgp_sim::DensityMatrix,
        tag: &str,
    ) {
        let dim = reference.dim();
        for i in 0..dim {
            for j in 0..dim {
                assert!(
                    (rho.get(i, j) - reference.get(i, j)).norm() <= 1e-12,
                    "{tag}: mismatch at ({i},{j})"
                );
            }
        }
        assert!((rho.trace() - 1.0).abs() < 1e-12, "{tag}: trace");
    }

    #[test]
    fn circuit_bind_exact_is_bit_identical_to_the_full_walk_tape() {
        // The exact template substitutes the same parametric slots the
        // trajectory template does, into the superoperator tape: the
        // result must replay bit-identically to re-walking and
        // compiling per dispatch, and sit within 1e-12 of the reference
        // ExactSink density walk (the multi-Kraus channels reassociate).
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let compiler = CircuitCompiler::new(&backend, vec![1, 2, 3, 4, 5, 7]);
        let compiled = compiler.compile(&qaoa_circuit(&graph, 2)).unwrap();
        // Recording is lazy: compile alone pays nothing.
        assert!(compiled.exact_template().is_none());
        let exec = compiled.executor(&backend);
        let mut recorded_at = None;
        for params in [
            [0.35, 0.25, -0.8, 1.1],
            [0.0, 0.0, 0.0, 0.0],
            [1.9, -2.4, 0.3, 0.7],
        ] {
            let by_template = exec.run_exact_replay(&compiled.bind_exact(&exec, &params));
            let by_walk =
                exec.run_exact_replay(&exec.exact_replay_program(&compiled.bind(&params)));
            assert_eq!(by_template, by_walk, "template vs walk, {params:?}");
            assert_exact_close(
                &by_template,
                &exec.run(&compiled.bind(&params)),
                "vs reference",
            );
            // Recorded once: every later bind reuses the same template.
            let template = compiled.exact_template().expect("recorded");
            let first = *recorded_at.get_or_insert(template);
            assert!(std::ptr::eq(first, template), "re-recorded, {params:?}");
        }
        assert!(compiled.exact_template().expect("recorded").n_slots() > 0);
        // The trajectory template is untouched by exact binds.
        assert!(compiled.replay_template().is_none());

        // Deviant executors (DD, ZNE-scaled noise, another backend) must
        // not ride the template: bind_exact takes the full walk and
        // stays bit-identical to that executor's own tape.
        let other_backend = Backend::ibmq_guadalupe();
        let params = [0.35, 0.25, -0.8, 1.1];
        for deviant in [
            compiled.executor(&backend).with_dynamical_decoupling(),
            Executor::with_noise_model(
                &backend,
                compiled.region().to_vec(),
                Arc::new(compiled.noise_model().scaled(2.0)),
            ),
            compiled.executor(&other_backend),
        ] {
            let by_bind = deviant.run_exact_replay(&compiled.bind_exact(&deviant, &params));
            let by_walk =
                deviant.run_exact_replay(&deviant.exact_replay_program(&compiled.bind(&params)));
            assert_eq!(by_bind, by_walk, "deviant executor fallback");
        }
    }

    #[test]
    fn hybrid_bind_exact_is_bit_identical_and_survives_invalidation() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let shape = HybridShape::new(graph.clone(), 2).with_options(GateModelOptions::optimized());
        let compiled = CircuitCompiler::new(&backend, vec![1, 2, 3, 4, 5, 7])
            .compile_hybrid(&shape)
            .unwrap();
        assert!(compiled.exact_template().is_none(), "recording is lazy");
        let exec = compiled.executor(&backend);
        let mut params = vec![0.0; compiled.n_params()];
        for (i, p) in params.iter_mut().enumerate() {
            *p = 0.03 * (i as f64 + 1.0) - 0.4;
        }
        let check = |compiled: &CompiledProgram, tag: &str| {
            let by_template = exec.run_exact_replay(&compiled.bind_exact(&exec, &params));
            let by_walk =
                exec.run_exact_replay(&exec.exact_replay_program(&compiled.bind(&params)));
            assert_eq!(by_template, by_walk, "{tag}");
            assert_exact_close(&by_template, &exec.run(&compiled.bind(&params)), tag);
        };
        check(&compiled, "fresh");
        // The first bind recorded the template: every layer binds its
        // gamma gates and n mixer blocks.
        let template = compiled.exact_template().expect("recorded on first bind");
        assert!(template.n_slots() >= 2 * compiled.n_qubits());
        // A second bind reuses that recording rather than re-recording.
        check(&compiled, "second bind");
        let again = compiled.exact_template().expect("still recorded");
        assert!(std::ptr::eq(template, again), "re-recorded on a later bind");
        // Re-keying the duration resets the (duration-dependent)
        // template; the next bind re-records at the new duration.
        let shorter = compiled.clone().with_mixer_duration(128);
        assert!(shorter.exact_template().is_none());
        check(&shorter, "re-keyed");
        assert!(shorter.exact_template().is_some(), "re-recorded");
    }

    #[test]
    fn compiled_program_duration_change_rekeys_without_rerouting() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let shape = HybridShape::new(graph, 1);
        let compiled = CircuitCompiler::new(&backend, vec![1, 2, 3, 4, 5, 7])
            .compile_hybrid(&shape)
            .unwrap();
        let shorter = compiled.clone().with_mixer_duration(128);
        assert_ne!(compiled.key(), shorter.key());
        assert_eq!(
            shorter.key(),
            shape.with_mixer_duration(128).structural_key()
        );
        assert_eq!(shorter.mixer_duration_dt(), 128);
        let program = shorter.bind(&vec![0.0; shorter.n_params()]);
        assert_eq!(program.pulse_duration_dt(), 6 * 128);
    }

    #[test]
    fn malformed_hybrid_shapes_are_typed_errors() {
        let backend = Backend::ibmq_guadalupe();
        let compiler = CircuitCompiler::new(&backend, vec![0, 1, 2, 3, 4, 5]);
        let graph = instances::task1_three_regular_6();
        // Invalid mixer duration (not a multiple of 32).
        let err = compiler
            .compile_hybrid(&HybridShape::new(graph.clone(), 1).with_mixer_duration(100))
            .unwrap_err();
        assert!(err.contains("multiple of 32"), "{err}");
        // Zero layers.
        assert!(compiler
            .compile_hybrid(&HybridShape::new(graph.clone(), 0))
            .is_err());
        // Wider than the region.
        let wide = hgp_graph::generators::random_regular(8, 3, 1);
        assert!(compiler.compile_hybrid(&HybridShape::new(wide, 1)).is_err());
        // Disconnected region prefix: guadalupe qubits 0 and 15 share no
        // coupler, so a 2-node graph on region [0, 15] cannot route.
        let pair = Graph::from_edges(2, &[(0, 1)]);
        let disconnected = CircuitCompiler::new(&backend, vec![0, 15]);
        let err = disconnected
            .compile_hybrid(&HybridShape::new(pair, 1))
            .unwrap_err();
        assert!(err.contains("disconnected"), "{err}");
    }
}
