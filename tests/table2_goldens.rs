//! Golden snapshot of the paper's science: the Table II "CVaR AR" cell
//! on `ibmq_guadalupe` (gate-level optimizations + M3 + CVaR 0.3), gate
//! and hybrid models trained at the three averaging seeds, and the
//! "Raw AR" cell on `ibmq_toronto` at seed 42.
//!
//! The CVaR approximation ratios must stay bit-equal to the values the
//! benchmark pins (`perfbench/src/train.rs`, `GOLDEN`). A refactor that
//! moves one of them changes the science and must say so.

use hybrid_gate_pulse::core::models::{GateModel, GateModelOptions, HybridModel};
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::instances;
use hybrid_gate_pulse::prelude::*;

/// `(hybrid, seed, AR)`, as recorded in the benchmark's golden table.
const GOLDEN: [(bool, u64, f64); 6] = [
    (false, 42, 0.6681586465956342),
    (false, 1042, 0.6906663735654441),
    (false, 2042, 0.6578488990020895),
    (true, 42, 0.6793669908722152),
    (true, 1042, 0.6764054634182666),
    (true, 2042, 0.6992002206422662),
];

#[test]
fn table2_cvar_cell_ratios_are_bit_equal_to_the_goldens() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let region: Vec<usize> = (0..6).collect();
    let options = GateModelOptions::optimized();
    let gate = GateModel::new(&backend, &graph, 1, region.clone(), options).expect("region");
    let hybrid = HybridModel::with_options(&backend, &graph, 1, region, options).expect("region");
    let mut moved = Vec::new();
    for (is_hybrid, seed, golden) in GOLDEN {
        let config = TrainConfig {
            use_m3: true,
            cvar_alpha: Some(0.3),
            seed,
            ..TrainConfig::default()
        };
        let ar = if is_hybrid {
            train(&hybrid, &graph, &config).approximation_ratio
        } else {
            train(&gate, &graph, &config).approximation_ratio
        };
        if ar.to_bits() != golden.to_bits() {
            let model = if is_hybrid { "hybrid" } else { "gate" };
            moved.push(format!("{model} seed {seed}: AR {ar:?}, golden {golden:?}"));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("; "));
}

/// `(hybrid, AR)` of the Table II "Raw AR" cell on `ibmq_toronto`
/// (no gate optimization, no M3, no CVaR) at seed 42, on the region the
/// table driver routes into (`hgp_bench::region_for`). Captured before
/// the exact tape's channel sweeps were specialized by arity, from the
/// CSR superoperator interpreter they replaced; the raw routed schedule
/// carries more two-qubit channels than the optimized guadalupe cell.
const TORONTO_RAW_GOLDEN: [(bool, f64); 2] =
    [(false, 0.5232611762152778), (true, 0.5965169270833334)];

#[test]
fn table2_raw_toronto_ratios_are_bit_equal_to_the_goldens() {
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    let region = vec![1, 2, 3, 4, 5, 7];
    let options = GateModelOptions::raw();
    let gate = GateModel::new(&backend, &graph, 1, region.clone(), options).expect("region");
    let hybrid = HybridModel::with_options(&backend, &graph, 1, region, options).expect("region");
    let config = TrainConfig {
        seed: 42,
        ..TrainConfig::default()
    };
    let mut moved = Vec::new();
    for (is_hybrid, golden) in TORONTO_RAW_GOLDEN {
        let ar = if is_hybrid {
            train(&hybrid, &graph, &config).approximation_ratio
        } else {
            train(&gate, &graph, &config).approximation_ratio
        };
        if ar.to_bits() != golden.to_bits() {
            let model = if is_hybrid { "hybrid" } else { "gate" };
            moved.push(format!("{model}: AR {ar:?}, golden {golden:?}"));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("; "));
}
