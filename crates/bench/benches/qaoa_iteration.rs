//! Criterion benchmark of one full machine-in-loop cost evaluation — the
//! unit of work the training loop repeats 50+ times per experiment.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hgp_bench::region_for;
use hgp_core::models::{GateModel, GateModelOptions, HybridModel, VqaModel};
use hgp_core::prelude::*;
use hgp_device::Backend;
use hgp_graph::instances;
use hgp_mitigation::M3Mitigator;
use hgp_sim::seed::stream_seed;

fn bench_gate_iteration(c: &mut Criterion) {
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    let region = region_for(&backend, 6);
    let model =
        GateModel::new(&backend, &graph, 1, region, GateModelOptions::raw()).expect("region");
    let exec = Executor::new(&backend, model.layout().to_vec());
    let eval = CostEvaluator::new(&graph);
    let params = model.initial_params();
    c.bench_function("gate_model_cost_eval_6q", |b| {
        b.iter(|| {
            let counts = exec.sample(&model.build(black_box(&params)), 1024, 7);
            eval.approximation_ratio(&model.interpret_counts(&counts))
        })
    });
}

fn bench_hybrid_iteration(c: &mut Criterion) {
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    let region = region_for(&backend, 6);
    let model = HybridModel::new(&backend, &graph, 1, region).expect("region");
    let exec = Executor::new(&backend, model.layout().to_vec());
    let eval = CostEvaluator::new(&graph);
    let params = model.initial_params();
    c.bench_function("hybrid_model_cost_eval_6q", |b| {
        b.iter(|| {
            let counts = exec.sample(&model.build(black_box(&params)), 1024, 7);
            eval.approximation_ratio(&model.interpret_counts(&counts))
        })
    });
}

fn bench_hybrid_iteration_8q(c: &mut Criterion) {
    let backend = Backend::ibmq_montreal();
    let graph = instances::task3_three_regular_8();
    let region = region_for(&backend, 8);
    let model = HybridModel::new(&backend, &graph, 1, region).expect("region");
    let exec = Executor::new(&backend, model.layout().to_vec());
    let eval = CostEvaluator::new(&graph);
    let params = model.initial_params();
    c.bench_function("hybrid_model_cost_eval_8q", |b| {
        b.iter(|| {
            let counts = exec.sample(&model.build(black_box(&params)), 1024, 7);
            eval.approximation_ratio(&model.interpret_counts(&counts))
        })
    });
}

/// One training probe of the Table II CVaR cell exactly as `train` runs
/// it: the hybrid model on guadalupe with gate-level optimizations,
/// 1024 shots through `Executor::sample`, then M3 and CVaR 0.3.
fn bench_cell_probe(c: &mut Criterion) {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let region = region_for(&backend, 6);
    let model =
        HybridModel::with_options(&backend, &graph, 1, region, GateModelOptions::optimized())
            .expect("region");
    let exec = Executor::new(&backend, model.layout().to_vec());
    let eval = CostEvaluator::new(&graph)
        .with_cvar(0.3)
        .with_m3(M3Mitigator::from_readout_model(exec.readout()));
    let c_max = eval.c_max();
    let params = model.initial_params();
    c.bench_function("cell_cost_eval_6q", |b| {
        b.iter(|| {
            let counts = exec.sample(&model.build(black_box(&params)), 1024, stream_seed(42, 1));
            -eval.cost(&model.interpret_counts(&counts)) / c_max
        })
    });
}

criterion_group! {
    name = qaoa;
    config = Criterion::default().sample_size(20);
    targets = bench_gate_iteration, bench_hybrid_iteration, bench_hybrid_iteration_8q,
        bench_cell_probe
}
criterion_main!(qaoa);
