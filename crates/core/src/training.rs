//! Machine-in-loop training.
//!
//! The paper's protocol: COBYLA, 50 iterations maximum, 1024 shots per
//! cost evaluation, optional CVaR aggregation (`alpha = 0.3`) and M3
//! mitigation. Each evaluation runs the full noisy pipeline — build
//! program, evolve the density matrix, sample with readout confusion,
//! aggregate — so the optimizer sees exactly what hardware training sees.
//!
//! Every probe evolves the compiled exact tape through
//! [`Executor::sample`]: the program's noisy schedule is recorded once,
//! compiled into a superoperator tape (fused diagonal runs, resolved
//! channels) and replayed — the same engine the serving tier runs.
//! The interpreted walk [`Executor::run`] is only the reference the tape
//! is pinned against. Independent objective probes — the multi-start
//! warm-up, COBYLA's simplex initializations/rebuilds, and
//! parameter-shift gradients — are issued as batches and evaluated in
//! parallel over rayon workers. Every evaluation derives its sampling
//! seed from its *position* in the evaluation stream, not from thread
//! scheduling, so results are bit-identical to the sequential path.

use hgp_graph::Graph;
use hgp_mitigation::M3Mitigator;
use hgp_optim::{
    parameter_shift_gradient_batch, BatchObjective, Cobyla, OptimizeResult, STANDARD_SHIFT,
};
use hgp_sim::seed::stream_seed;
use rayon::prelude::*;

use crate::cost::CostEvaluator;
use crate::executor::Executor;
use crate::models::VqaModel;

/// Training configuration (defaults follow the paper's experiment setup).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// COBYLA evaluation budget (the paper's "maximum iteration 50").
    pub max_evals: usize,
    /// Shots per cost evaluation.
    pub shots: usize,
    /// CVaR fraction for the cost (None = plain expectation).
    pub cvar_alpha: Option<f64>,
    /// Apply M3 measurement mitigation inside the loop and at reporting.
    pub use_m3: bool,
    /// Base RNG seed (each evaluation perturbs it deterministically).
    pub seed: u64,
    /// Shots for the final reported evaluation.
    pub final_shots: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            max_evals: 50,
            shots: 1024,
            cvar_alpha: None,
            use_m3: false,
            seed: 42,
            final_shots: 8192,
        }
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainResult {
    /// Best parameters found.
    pub best_params: Vec<f64>,
    /// Final approximation ratio under the configured cost path
    /// (CVaR/M3 included when enabled) at `final_shots`.
    pub approximation_ratio: f64,
    /// Final AR under the *plain expectation* path — comparable across
    /// configurations.
    pub expectation_ar: f64,
    /// Best-so-far AR after each optimizer iteration (the training curve).
    pub history: Vec<f64>,
    /// Function evaluations spent.
    pub n_evals: usize,
    /// Iterations to reach within 1% AR of the final value — the
    /// convergence-speed metric behind the paper's "4x faster" claim.
    pub iterations_to_converge: usize,
    /// Mixer layer duration of the trained model, `dt`.
    pub mixer_duration_dt: u32,
}

/// The shared objective machinery of [`train`] and
/// [`objective_gradient`]: the executor for the model's layout, the
/// cost evaluator with the config's CVaR/M3 options applied, and the
/// exact optimum `C_max`.
fn objective_setup<'a>(
    model: &'a dyn VqaModel,
    graph: &Graph,
    config: &TrainConfig,
) -> (Executor<'a>, CostEvaluator, f64) {
    assert_eq!(model.n_qubits(), graph.n_nodes(), "model/graph width");
    let exec = Executor::new(model.backend(), model.layout().to_vec());
    let mut evaluator = CostEvaluator::new(graph);
    if let Some(alpha) = config.cvar_alpha {
        evaluator = evaluator.with_cvar(alpha);
    }
    if config.use_m3 {
        evaluator = evaluator.with_m3(M3Mitigator::from_readout_model(exec.readout()));
    }
    let c_max = evaluator.c_max();
    (exec, evaluator, c_max)
}

/// One objective probe (negative approximation ratio), identified by
/// its position in the evaluation stream. The position (not call order
/// or thread id) derives the sampling seed, so a batch may run its
/// points on any worker and still reproduce the sequential stream bit
/// for bit.
#[allow(clippy::too_many_arguments)]
fn evaluate_probe(
    model: &dyn VqaModel,
    exec: &Executor<'_>,
    evaluator: &CostEvaluator,
    c_max: f64,
    config: &TrainConfig,
    params: &[f64],
    eval_id: u64,
) -> f64 {
    let program = model.build(params);
    let counts = exec.sample(&program, config.shots, stream_seed(config.seed, eval_id));
    let logical = model.interpret_counts(&counts);
    // Minimize the negative AR.
    -evaluator.cost(&logical) / c_max
}

/// Two-stage (coarse-then-fine) COBYLA minimization over an arbitrary
/// batch objective — the training loop's optimizer core, factored out
/// so the same protocol can run over *any* evaluation engine: the local
/// parallel executor ([`train`] wraps it) or a serving layer
/// (`hgp_serve::Daemon::hybrid_expectation_batch` is exactly this
/// objective shape).
///
/// Protocol:
///
/// 1. probe every `candidates` starting point in one batch and start
///    from the best,
/// 2. when `coarse_ids` is given, optimize only those dimensions first
///    (the algorithmic parameters — QAOA's `gamma`/`theta`), the full
///    step budget, from the winning candidate,
/// 3. refine the full vector from the coarse optimum, the full step
///    budget again.
///
/// "`max_evals` iterations" counts optimization steps; COBYLA's simplex
/// initialization (`dim + 1` evaluations) is granted on top per stage,
/// so models of different parameter counts get the same number of
/// *steps*. The returned result's `history` is the merged best-so-far
/// curve and `n_evals` counts every objective evaluation, candidate
/// probes included.
///
/// # Panics
///
/// Panics if `candidates` is empty or a coarse id is out of range.
pub fn minimize_two_stage(
    objective: &mut dyn BatchObjective,
    candidates: &[Vec<f64>],
    coarse_ids: Option<&[usize]>,
    max_evals: usize,
) -> OptimizeResult {
    assert!(!candidates.is_empty(), "need at least one starting point");
    let scores = objective.eval_batch(candidates);
    let mut x0 = scores
        .iter()
        .zip(candidates.iter())
        .min_by(|a, b| a.0.partial_cmp(b.0).expect("finite cost"))
        .map(|(_, c)| c.clone())
        .expect("non-empty candidates");
    let n_params = x0.len();
    let mut coarse_history: Vec<f64> = Vec::new();
    let mut coarse_evals = candidates.len();
    if let Some(core) = coarse_ids {
        // Hierarchical training: spend part of the budget on the core
        // (algorithmic) parameters alone, then refine everything.
        // Each stage gets the full step budget: the coarse stage is the
        // cheap low-dimensional search (the gate model's own problem), the
        // fine stage refines the pulse trims from its optimum.
        for &id in core {
            assert!(id < n_params, "coarse id {id} out of range");
        }
        let base = x0.clone();
        let mut core_objective = |xcs: &[Vec<f64>]| -> Vec<f64> {
            let fulls: Vec<Vec<f64>> = xcs
                .iter()
                .map(|xc| {
                    let mut full = base.clone();
                    for (i, &id) in core.iter().enumerate() {
                        full[id] = xc[i];
                    }
                    full
                })
                .collect();
            objective.eval_batch(&fulls)
        };
        let xc0: Vec<f64> = core.iter().map(|&id| x0[id]).collect();
        let coarse =
            Cobyla::new(max_evals + core.len() + 1).minimize_batch(&mut core_objective, &xc0);
        for (i, &id) in core.iter().enumerate() {
            x0[id] = coarse.x[i];
        }
        coarse_history = coarse.history;
        coarse_evals += coarse.n_evals;
    }
    let optimizer = Cobyla::new(max_evals + n_params + 1);
    let mut result = optimizer.minimize_batch(objective, &x0);
    result.n_evals += coarse_evals;
    if !coarse_history.is_empty() {
        // Merge the stages' best-so-far curves.
        let mut merged = coarse_history;
        let floor = merged.last().copied().unwrap_or(f64::INFINITY);
        merged.extend(result.history.iter().map(|&v| v.min(floor)));
        result.history = merged;
    }
    result
}

/// Trains a model on a Max-Cut instance.
///
/// # Panics
///
/// Panics if the model and graph disagree on qubit count.
pub fn train(model: &dyn VqaModel, graph: &Graph, config: &TrainConfig) -> TrainResult {
    let (exec, evaluator, c_max) = objective_setup(model, graph, config);
    let mut eval_counter = 0u64;
    let mut batch_objective = |xs: &[Vec<f64>]| -> Vec<f64> {
        let first_id = eval_counter + 1;
        eval_counter += xs.len() as u64;
        xs.par_iter()
            .enumerate()
            .map(|(i, x)| {
                evaluate_probe(
                    model,
                    &exec,
                    &evaluator,
                    c_max,
                    config,
                    x,
                    first_id + i as u64,
                )
            })
            .collect()
    };
    // Probe the candidate starts — one parallel batch — and begin from
    // the best (the standard counter to QAOA's multimodal landscape;
    // every model gets the same protocol).
    let candidates = model.initial_param_candidates();
    let result = minimize_two_stage(
        &mut batch_objective,
        &candidates,
        model.coarse_param_ids().as_deref(),
        config.max_evals,
    );
    // Final high-shot evaluation at the best parameters.
    // The final report is stream 0 — distinct from every training probe,
    // which start at stream 1.
    let final_counts = exec.sample(
        &model.build(&result.x),
        config.final_shots,
        stream_seed(config.seed, 0),
    );
    let logical = model.interpret_counts(&final_counts);
    let approximation_ratio = evaluator.cost(&logical) / c_max;
    let expectation_ar = CostEvaluator::new(graph).cost(&logical) / c_max;
    let history: Vec<f64> = result.history.iter().map(|v| -v).collect();
    let iterations_to_converge = result.iterations_to_reach(0.01 * result.fun.abs().max(0.01));
    TrainResult {
        best_params: result.x,
        approximation_ratio,
        expectation_ar,
        history,
        n_evals: result.n_evals,
        iterations_to_converge,
        mixer_duration_dt: model.mixer_duration_dt(),
    }
}

/// Parameter-shift gradient of the (negative-AR) training objective at
/// `params`, with all `2 n` shifted programs built, executed, and
/// sampled in parallel.
///
/// Uses the exact rule (valid for the gate models, whose parameters all
/// enter through involutory rotation generators); the shifted
/// evaluations derive their seeds from their position in the batch, so
/// the gradient is deterministic per `config.seed`.
///
/// # Panics
///
/// Panics if the model and graph disagree on qubit count or
/// `params.len() != model.n_params()`.
pub fn objective_gradient(
    model: &dyn VqaModel,
    graph: &Graph,
    config: &TrainConfig,
    params: &[f64],
) -> Vec<f64> {
    assert_eq!(params.len(), model.n_params(), "parameter count");
    let (exec, evaluator, c_max) = objective_setup(model, graph, config);
    let mut parallel_batch = |xs: &[Vec<f64>]| -> Vec<f64> {
        xs.par_iter()
            .enumerate()
            .map(|(i, x)| evaluate_probe(model, &exec, &evaluator, c_max, config, x, 1 + i as u64))
            .collect()
    };
    parameter_shift_gradient_batch(&mut parallel_batch, params, STANDARD_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{GateModel, GateModelOptions, HybridModel};
    use hgp_device::Backend;
    use hgp_graph::instances;

    #[test]
    fn gate_model_trains_on_ideal_backend() {
        let backend = Backend::ideal(6);
        let graph = instances::task1_three_regular_6();
        let model = GateModel::new(
            &backend,
            &graph,
            1,
            (0..6).collect(),
            GateModelOptions::raw(),
        )
        .unwrap();
        let config = TrainConfig {
            max_evals: 30,
            shots: 2048,
            ..TrainConfig::default()
        };
        let result = train(&model, &graph, &config);
        // Noiseless p=1 QAOA on K33 should land well above random (0.5).
        assert!(
            result.approximation_ratio > 0.6,
            "AR = {}",
            result.approximation_ratio
        );
        assert!(!result.history.is_empty());
        assert_eq!(result.mixer_duration_dt, 320);
    }

    #[test]
    fn training_improves_over_initial_point() {
        let backend = Backend::ideal(6);
        let graph = instances::task2_random_6();
        let model = GateModel::new(
            &backend,
            &graph,
            1,
            (0..6).collect(),
            GateModelOptions::raw(),
        )
        .unwrap();
        let config = TrainConfig {
            max_evals: 40,
            shots: 2048,
            ..TrainConfig::default()
        };
        let result = train(&model, &graph, &config);
        let first = result.history.first().copied().unwrap();
        let last = result.history.last().copied().unwrap();
        assert!(
            last >= first - 1e-9,
            "history must not regress: {first} -> {last}"
        );
    }

    #[test]
    fn cvar_training_reports_higher_ar() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let region = vec![1, 2, 3, 4, 5, 7];
        let model = HybridModel::new(&backend, &graph, 1, region).unwrap();
        let base = TrainConfig {
            max_evals: 8,
            shots: 512,
            final_shots: 4096,
            ..TrainConfig::default()
        };
        let plain = train(&model, &graph, &base);
        let cvar = train(
            &model,
            &graph,
            &TrainConfig {
                cvar_alpha: Some(0.3),
                ..base
            },
        );
        assert!(
            cvar.approximation_ratio > plain.approximation_ratio,
            "CVaR AR {} should beat plain {}",
            cvar.approximation_ratio,
            plain.approximation_ratio
        );
    }

    #[test]
    fn gradient_is_deterministic_and_sized() {
        let backend = Backend::ideal(6);
        let graph = instances::task1_three_regular_6();
        let model = GateModel::new(
            &backend,
            &graph,
            1,
            (0..6).collect(),
            GateModelOptions::raw(),
        )
        .unwrap();
        let config = TrainConfig {
            shots: 1024,
            ..TrainConfig::default()
        };
        let x = model.initial_params();
        let g1 = objective_gradient(&model, &graph, &config, &x);
        let g2 = objective_gradient(&model, &graph, &config, &x);
        assert_eq!(g1.len(), model.n_params());
        assert_eq!(g1, g2);
        // At a generic point the gradient should not vanish identically.
        assert!(g1.iter().any(|g| g.abs() > 1e-6), "gradient = {g1:?}");
    }

    #[test]
    fn results_are_deterministic() {
        let backend = Backend::ibmq_guadalupe();
        let graph = instances::task2_random_6();
        let region = vec![1, 2, 3, 4, 5, 8];
        let model = HybridModel::new(&backend, &graph, 1, region).unwrap();
        let config = TrainConfig {
            max_evals: 6,
            shots: 256,
            final_shots: 1024,
            ..TrainConfig::default()
        };
        let a = train(&model, &graph, &config);
        let b = train(&model, &graph, &config);
        assert_eq!(a, b);
    }
}
