//! The gate-level QAOA model (the paper's baseline).

use hgp_circuit::Circuit;
use hgp_device::Backend;
use hgp_sim::{Counts, ExactReplayProgram};

use crate::compile::{CircuitCompiler, CompiledCircuit};
use crate::executor::Executor;
use crate::models::VqaModel;
use crate::program::Program;
use crate::qaoa::{initial_point, qaoa_circuit};

/// Gate-level compilation options (the paper's Raw vs GO configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateModelOptions {
    /// Commutative gate cancellation before and after routing.
    pub cancellation: bool,
    /// SABRE forward-backward iterations for placing logical qubits
    /// *within* the region (0 = trivial placement, the Raw setting).
    pub sabre_iterations: usize,
}

impl GateModelOptions {
    /// The unoptimized configuration.
    pub fn raw() -> Self {
        Self {
            cancellation: false,
            sabre_iterations: 0,
        }
    }

    /// The paper's "GO" configuration (SABRE + commutative cancellation).
    pub fn optimized() -> Self {
        Self {
            cancellation: true,
            sabre_iterations: 3,
        }
    }
}

/// The standard gate-level QAOA model: `RZZ` Hamiltonian layers and
/// `RX(2 beta)` mixer layers, routed inside a fixed region.
///
/// A thin view over the [`CompiledCircuit`] of the level-`p` QAOA
/// circuit, as [`HybridModel`](crate::models::HybridModel) is over its
/// compiled program: building binds the routed circuit, training binds
/// the artifact's recorded exact schedule, and decoding undoes routing's
/// final permutation.
///
/// ```
/// use hgp_core::models::{GateModel, GateModelOptions, VqaModel};
/// use hgp_graph::instances;
/// use hgp_device::Backend;
///
/// let backend = Backend::ibmq_guadalupe();
/// let graph = instances::task1_three_regular_6();
/// let model = GateModel::new(&backend, &graph, 1, vec![0, 1, 2, 3, 5, 8],
///     GateModelOptions::raw()).expect("connected region");
/// assert_eq!(model.n_params(), 2);
/// assert_eq!(model.mixer_duration_dt(), 320); // RX = 2 calibrated pulses
/// ```
#[derive(Debug, Clone)]
pub struct GateModel<'a> {
    backend: &'a Backend,
    compiled: CompiledCircuit,
    p: usize,
}

impl<'a> GateModel<'a> {
    /// Builds the model for a level-`p` QAOA on `graph`, routed inside
    /// `region` (physical qubits; must induce a connected subgraph and
    /// have exactly `graph.n_nodes()` entries).
    ///
    /// The shape work — placement, cancellation, routing — is
    /// [`CircuitCompiler::compile`] with `options`, run once here.
    ///
    /// # Errors
    ///
    /// Returns an error if the region size mismatches the graph or the
    /// region induces a disconnected subgraph.
    ///
    /// # Panics
    ///
    /// Panics if a region entry is out of range or repeated.
    pub fn new(
        backend: &'a Backend,
        graph: &hgp_graph::Graph,
        p: usize,
        region: Vec<usize>,
        options: GateModelOptions,
    ) -> Result<Self, String> {
        let n = graph.n_nodes();
        if region.len() != n {
            return Err(format!(
                "region has {} qubits but the graph has {n} nodes",
                region.len()
            ));
        }
        let compiled = CircuitCompiler::new(backend, region)
            .with_options(options)
            .compile(&qaoa_circuit(graph, p))?;
        Ok(Self {
            backend,
            compiled,
            p,
        })
    }

    /// The routed, still-parametrized circuit (region-wire indices).
    pub fn circuit(&self) -> &Circuit {
        self.compiled.circuit()
    }

    /// The underlying compiled artifact.
    pub fn compiled(&self) -> &CompiledCircuit {
        &self.compiled
    }

    /// The backend.
    pub fn backend(&self) -> &Backend {
        self.backend
    }

    /// QAOA depth.
    pub fn p(&self) -> usize {
        self.p
    }
}

impl VqaModel for GateModel<'_> {
    fn backend(&self) -> &Backend {
        self.backend
    }

    fn n_qubits(&self) -> usize {
        self.compiled.n_qubits()
    }

    fn region_size(&self) -> usize {
        self.compiled.region().len()
    }

    fn n_params(&self) -> usize {
        2 * self.p
    }

    fn initial_params(&self) -> Vec<f64> {
        initial_point(self.p)
    }

    fn initial_param_candidates(&self) -> Vec<Vec<f64>> {
        crate::qaoa::initial_candidates(self.p)
    }

    fn build(&self, params: &[f64]) -> Program {
        assert_eq!(params.len(), self.n_params(), "parameter count");
        self.compiled.bind(params)
    }

    fn layout(&self) -> &[usize] {
        self.compiled.region()
    }

    fn interpret_counts(&self, counts: &Counts) -> Counts {
        self.compiled.decode_counts(counts)
    }

    fn mixer_duration_dt(&self) -> u32 {
        // RX(2 beta) costs two calibrated pulses per qubit.
        2 * self.backend.pulse_1q_duration_dt()
    }

    fn executor(&self) -> Executor<'_> {
        self.compiled.executor(self.backend)
    }

    fn exact_tape(&self, exec: &Executor, params: &[f64]) -> ExactReplayProgram {
        self.compiled.bind_exact(exec, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostEvaluator;
    use crate::executor::Executor;
    use hgp_graph::instances;
    use hgp_sim::StateVector;

    fn toronto_region6() -> Vec<usize> {
        // A connected heavy-hex patch on the 27q Falcon layout.
        vec![1, 2, 3, 4, 5, 7]
    }

    #[test]
    fn model_builds_and_counts_params() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let model = GateModel::new(
            &backend,
            &graph,
            1,
            toronto_region6(),
            GateModelOptions::raw(),
        )
        .unwrap();
        assert_eq!(model.n_params(), 2);
        assert_eq!(model.region_size(), 6);
        let program = model.build(&model.initial_params());
        assert!(program.count_gates() > 0);
    }

    #[test]
    fn noiseless_evaluation_matches_direct_qaoa() {
        // On an ideal all-to-all backend, the routed model's distribution
        // must match the logical QAOA statevector.
        let backend = Backend::ideal(6);
        let graph = instances::task1_three_regular_6();
        let model = GateModel::new(
            &backend,
            &graph,
            1,
            vec![0, 1, 2, 3, 4, 5],
            GateModelOptions::raw(),
        )
        .unwrap();
        let params = [0.35, 0.25];
        let program = model.build(&params);
        let exec = Executor::new(&backend, model.layout().to_vec());
        let rho = exec.run(&program);
        let counts = exec.sample_state(&rho, 200_000, 3);
        let logical_counts = model.interpret_counts(&counts);
        // Reference distribution.
        let reference =
            StateVector::from_circuit(&crate::qaoa::qaoa_circuit(&graph, 1).bind(&params)).unwrap();
        for b in 0..(1 << 6) {
            let f = logical_counts.frequency(b);
            let p = reference.probability(b);
            assert!((f - p).abs() < 0.01, "state {b:06b}: {f} vs {p}");
        }
    }

    #[test]
    fn optimized_options_do_not_change_semantics() {
        let backend = Backend::ideal(6);
        let graph = instances::task2_random_6();
        let params = [0.4, 0.3];
        let eval = CostEvaluator::new(&graph);
        let mut ars = Vec::new();
        for options in [GateModelOptions::raw(), GateModelOptions::optimized()] {
            let model =
                GateModel::new(&backend, &graph, 1, vec![0, 1, 2, 3, 4, 5], options).unwrap();
            let exec = Executor::new(&backend, model.layout().to_vec());
            let counts = exec.sample(&model.build(&params), 100_000, 11);
            ars.push(eval.approximation_ratio(&model.interpret_counts(&counts)));
        }
        assert!(
            (ars[0] - ars[1]).abs() < 0.02,
            "raw vs optimized semantics differ: {ars:?}"
        );
    }

    #[test]
    fn gate_optimization_reduces_gate_count_on_hardware() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let raw = GateModel::new(
            &backend,
            &graph,
            1,
            toronto_region6(),
            GateModelOptions::raw(),
        )
        .unwrap();
        let opt = GateModel::new(
            &backend,
            &graph,
            1,
            toronto_region6(),
            GateModelOptions::optimized(),
        )
        .unwrap();
        assert!(
            opt.circuit().count_2q_gates() <= raw.circuit().count_2q_gates(),
            "GO should not add 2q gates"
        );
    }

    #[test]
    fn wrong_region_size_is_an_error() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let r = GateModel::new(&backend, &graph, 1, vec![0, 1, 2], GateModelOptions::raw());
        assert!(r.is_err());
    }
}
