//! The paper's own pipeline: the Table II "CVaR AR" cell on
//! `ibmq_guadalupe` (GO + M3 + CVaR), gate and hybrid models, each
//! trained at the three `AVG_SEEDS`, run in-process.

use std::time::Instant;

use hgp_bench::{paper_train_config, region_for, table2_cell_seeded, AVG_SEEDS};
use hgp_core::compile::{CircuitCompiler, HybridShape};
use hgp_core::cost::CostEvaluator;
use hgp_core::executor::Executor;
use hgp_core::models::{GateModel, GateModelOptions, HybridModel, VqaModel};
use hgp_core::qaoa::qaoa_circuit;
use hgp_device::Backend;
use hgp_graph::{instances, Graph};
use hgp_mitigation::M3Mitigator;
use hgp_serve::json::Value;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::report::{num, obj, text, Check, Values};
use crate::stats::{mean, median, residual, summarize, tail_quantile};
use crate::Outcome;

/// Approximation ratios of the cell at this commit, `(hybrid, seed,
/// AR)`. Refactors must not move them.
pub const GOLDEN: [(bool, u64, f64); 6] = [
    (false, 42, 0.6681586465956342),
    (false, 1042, 0.6906663735654441),
    (false, 2042, 0.6578488990020895),
    (true, 42, 0.6793669908722152),
    (true, 1042, 0.6764054634182666),
    (true, 2042, 0.6992002206422662),
];

/// Model constructions per run; `setup_s` is their median. Each takes
/// well under a millisecond, so many are needed for a steady median.
const SETUP_REPS: usize = 21;

/// Probes timed per model in the traced run.
const PROBES: usize = 3;

/// Checks that every `(hybrid, seed, AR)` run equals its golden value
/// bit for bit.
pub fn golden_check(runs: &[(bool, u64, f64)]) -> Check {
    let mut problems = Vec::new();
    for &(hybrid, seed, ar) in runs {
        let model = if hybrid { "hybrid" } else { "gate" };
        match GOLDEN.iter().find(|g| g.0 == hybrid && g.1 == seed) {
            Some(&(_, _, golden)) if golden.to_bits() == ar.to_bits() => {}
            Some(&(_, _, golden)) => {
                problems.push(format!("{model} seed {seed}: AR {ar:?}, golden {golden:?}"))
            }
            None => problems.push(format!("{model} seed {seed}: no golden value")),
        }
    }
    Check::new(
        "cell approximation ratios equal the recorded golden values",
        !runs.is_empty() && problems.is_empty(),
        if problems.is_empty() {
            format!("{} trainings matched", runs.len())
        } else {
            problems.join("; ")
        },
    )
}

fn build_models<'a>(
    backend: &'a Backend,
    graph: &Graph,
    region: &[usize],
) -> (GateModel<'a>, HybridModel<'a>) {
    let options = GateModelOptions::optimized();
    let gate =
        GateModel::new(backend, graph, 1, region.to_vec(), options).expect("connected region");
    let hybrid = HybridModel::with_options(backend, graph, 1, region.to_vec(), options)
        .expect("connected region");
    (gate, hybrid)
}

/// One training's wall and outcome.
struct Training {
    hybrid: bool,
    seed: u64,
    ar: f64,
    evals: usize,
    ms: f64,
}

/// Mean ms per probe stage: build, walk, sample, cost.
#[derive(Debug, Clone, Copy, Default)]
struct Probe {
    build: f64,
    walk: f64,
    sample: f64,
    cost: f64,
}

impl Probe {
    fn total(&self) -> f64 {
        self.build + self.walk + self.sample + self.cost
    }
}

/// Times the public calls one training probe makes, on `model` at
/// `points`, with the cell's cost configuration.
fn time_probes(model: &dyn VqaModel, graph: &Graph, points: &[Vec<f64>]) -> Probe {
    let config = paper_train_config();
    let exec = Executor::new(model.backend(), model.layout().to_vec());
    let evaluator = CostEvaluator::new(graph)
        .with_cvar(0.3)
        .with_m3(M3Mitigator::from_readout_model(exec.readout()));
    let (mut build, mut walk, mut sample, mut cost) = (vec![], vec![], vec![], vec![]);
    for (i, x) in points.iter().enumerate() {
        let t0 = Instant::now();
        let program = model.build(x);
        let t1 = Instant::now();
        let rho = exec.run(&program);
        let t2 = Instant::now();
        let counts = exec.sample_state(&rho, config.shots, i as u64);
        let t3 = Instant::now();
        std::hint::black_box(evaluator.cost(&model.interpret_counts(&counts)));
        let t4 = Instant::now();
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        build.push(ms(t0, t1));
        walk.push(ms(t1, t2));
        sample.push(ms(t2, t3));
        cost.push(ms(t3, t4));
    }
    Probe {
        build: mean(&build),
        walk: mean(&walk),
        sample: mean(&sample),
        cost: mean(&cost),
    }
}

/// Runs the cell until `seconds` have passed (at least once; `smoke`
/// trains only the seed-42 pair).
pub fn run(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Outcome {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let region = region_for(&backend, graph.n_nodes());
    let config = paper_train_config();
    let mut values = Values::new();
    let mut report: Vec<(&'static str, Value)> = vec![(
        "load",
        text("in-process: six hgp_bench::table2_cell_seeded trainings per cell, seeded order"),
    )];

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        std::hint::black_box(build_models(&backend, &graph, &region));
        setups.push(t0.elapsed().as_secs_f64());
    }
    values.insert("setup_s", median(&setups));

    // The workload seed fixes the training order; the cell's inputs are
    // the paper's and do not depend on it.
    let mut order: Vec<(bool, u64)> = [false, true]
        .into_iter()
        .flat_map(|h| AVG_SEEDS.map(|s| (h, s)))
        .filter(|&(_, s)| !smoke || s == AVG_SEEDS[0])
        .collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let start = Instant::now();
    let mut trainings: Vec<Training> = Vec::new();
    let mut cells = 0usize;
    while cells == 0 || (!smoke && start.elapsed().as_secs_f64() < seconds) {
        for &(hybrid, s) in &order {
            let t0 = Instant::now();
            let r = table2_cell_seeded(&backend, &graph, hybrid, true, true, true, None, s);
            trainings.push(Training {
                hybrid,
                seed: s,
                ar: r.approximation_ratio,
                evals: r.n_evals,
                ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }
        cells += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    // A job here is one objective evaluation (one probe, or the final
    // report): its latency is the training's wall over its evaluations,
    // one sample per training, which keeps the gate and hybrid models'
    // different evaluation counts out of the statistic.
    let evals: usize = trainings.iter().map(|t| t.evals + 1).sum();
    let latency = summarize(
        &trainings
            .iter()
            .map(|t| t.ms / (t.evals + 1) as f64)
            .collect::<Vec<_>>(),
        tail_quantile(trainings.len() as f64),
    );
    let shots: usize = trainings
        .iter()
        .map(|t| t.evals * config.shots + config.final_shots)
        .sum();
    values.insert("latency_p50_ms", latency.p50);
    values.insert("latency_tail_ms", latency.tail);
    values.insert("throughput_jobs_s", evals as f64 / wall);
    values.insert("throughput_shots_s", shots as f64 / wall);
    let cell_ms = wall * 1e3 / cells as f64;
    report.push((
        "cell",
        obj(vec![
            ("cells", Value::from_usize(cells)),
            ("train_cell_s", num(cell_ms / 1e3)),
            ("evaluation_ms_p50", num(latency.p50)),
            ("evaluation_ms_max", num(latency.tail)),
            (
                "trainings",
                Value::Arr(
                    trainings
                        .iter()
                        .map(|t| {
                            obj(vec![
                                ("model", text(if t.hybrid { "hybrid" } else { "gate" })),
                                ("seed", Value::from_u64(t.seed)),
                                ("ar", num(t.ar)),
                                ("evals", Value::from_usize(t.evals)),
                                ("ms", num(t.ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    ));

    let runs: Vec<(bool, u64, f64)> = trainings.iter().map(|t| (t.hybrid, t.seed, t.ar)).collect();
    let checks = vec![golden_check(&runs)];

    if trace {
        report.push((
            "layer_accounting",
            trace_cell(
                &backend,
                &graph,
                &region,
                &trainings,
                cells,
                cell_ms,
                median(&setups) * 1e3,
                &mut values,
            ),
        ));
    }
    Outcome {
        attempted: trainings.len() as u64,
        failed: 0,
        checks,
        values,
        report,
    }
}

/// Times one probe's public calls per model and splits the cell's wall
/// into them; what they leave is the optimizer and scheduling share.
#[allow(clippy::too_many_arguments)]
fn trace_cell(
    backend: &Backend,
    graph: &Graph,
    region: &[usize],
    trainings: &[Training],
    cells: usize,
    cell_ms: f64,
    setup_ms: f64,
    values: &mut Values,
) -> Value {
    let compiler =
        CircuitCompiler::new(backend, region.to_vec()).with_options(GateModelOptions::optimized());
    let t0 = Instant::now();
    compiler
        .compile(&qaoa_circuit(graph, 1))
        .expect("cell circuit compiles");
    values.insert("compile.circuit_ms", t0.elapsed().as_secs_f64() * 1e3);
    let t0 = Instant::now();
    compiler
        .compile_hybrid(
            &HybridShape::new(graph.clone(), 1).with_options(GateModelOptions::optimized()),
        )
        .expect("cell shape compiles");
    values.insert("compile.hybrid_ms", t0.elapsed().as_secs_f64() * 1e3);

    let (gate, hybrid) = build_models(backend, graph, region);
    let points = |model: &dyn VqaModel| -> Vec<Vec<f64>> {
        let mut points = model.initial_param_candidates();
        points.truncate(PROBES);
        points
    };
    let gate_probe = time_probes(&gate, graph, &points(&gate));
    let hybrid_probe = time_probes(&hybrid, graph, &points(&hybrid));
    let evals: usize = trainings.iter().map(|t| t.evals).sum();
    let per_cell = |f: fn(&Probe) -> f64| -> f64 {
        trainings
            .iter()
            .map(|t| {
                let probe = if t.hybrid { &hybrid_probe } else { &gate_probe };
                // The probes of training plus its final evaluation.
                (t.evals + 1) as f64 * f(probe)
            })
            .sum::<f64>()
            / cells as f64
    };
    let all = Probe {
        build: per_cell(|p| p.build),
        walk: per_cell(|p| p.walk),
        sample: per_cell(|p| p.sample),
        cost: per_cell(|p| p.cost),
    };
    // Each training constructs its model once, inside the cell.
    let construction = setup_ms / 2.0 * (trainings.len() / cells) as f64;
    let (left, left_pct) = residual(cell_ms, &[all.total(), construction]);
    values.insert("train.evals", evals as f64 / cells as f64);
    let mean_probe = |f: fn(&Probe) -> f64| (f(&gate_probe) + f(&hybrid_probe)) / 2.0;
    values.insert("train.build_ms", mean_probe(|p| p.build));
    values.insert("train.walk_ms", mean_probe(|p| p.walk));
    values.insert("train.sample_ms", mean_probe(|p| p.sample));
    values.insert("train.cost_ms", mean_probe(|p| p.cost));
    values.insert("train.optimizer_ms", left);
    values.insert("accounting.residual_pct", left_pct);
    let row = |layer: &str, ms: f64| {
        obj(vec![
            ("layer", text(layer)),
            ("ms_per_cell", num(ms)),
            ("share_pct", num(100.0 * ms / cell_ms)),
        ])
    };
    obj(vec![
        (
            "what",
            text("cell wall split by probe-timed calls x evaluations per training"),
        ),
        ("cell_ms", num(cell_ms)),
        (
            "parts",
            Value::Arr(vec![
                row(
                    "model construction (hgp_core::compile, hgp_pulse)",
                    construction,
                ),
                row("build (hgp_pulse blocks, Program)", all.build),
                row("walk (Executor::run, hgp_sim::density)", all.walk),
                row("sample (readout confusion, sampling)", all.sample),
                row("cost (interpret, M3, CVaR)", all.cost),
                row("residual: optimizer and scheduling", left),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_values_pass_and_a_perturbed_one_fails() {
        assert!(golden_check(&GOLDEN).passed);
        let mut perturbed = GOLDEN;
        perturbed[4].2 = f64::from_bits(perturbed[4].2.to_bits() + 1);
        let check = golden_check(&perturbed);
        assert!(!check.passed);
        assert!(
            check.detail.contains("hybrid seed 1042"),
            "{}",
            check.detail
        );
        assert!(!golden_check(&[(true, 7, 0.5)]).passed);
        assert!(!golden_check(&[]).passed);
    }
}
