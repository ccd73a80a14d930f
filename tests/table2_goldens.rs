//! Golden snapshot of the paper's science: the Table II "CVaR AR" cell
//! on `ibmq_guadalupe` (gate-level optimizations + M3 + CVaR 0.3), gate
//! and hybrid models trained at the three averaging seeds, and the
//! "Raw AR" cell on `ibmq_toronto` at seed 42, plus the "PO mixer"
//! row's Step I duration search on `ibmq_toronto`.
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

/// Step I's duration search for the Table II "PO mixer" row on
/// `ibmq_toronto` (raw hybrid model, region `[1, 2, 3, 4, 5, 7]`, the
/// paper's training setup, 32–320 dt at tolerance 0.02), as the table
/// driver runs it: the accepted duration and every `(duration, AR)`
/// evaluated, in order. Captured before `CompiledProgram` and
/// `CompiledCircuit` were folded onto one compiled-shape core, which
/// rewrote `with_mixer_duration`.
const TORONTO_DURATION_SEARCH_GOLDEN: (u32, [(u32, f64); 5]) = (
    64,
    [
        (320, 0.5965169270833334),
        (160, 0.5885552300347222),
        (96, 0.6001247829861112),
        (64, 0.5829264322916666),
        (32, 0.5323215060763888),
    ],
);

#[test]
fn table2_duration_search_is_bit_equal_to_the_golden() {
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    let model = HybridModel::new(&backend, &graph, 1, vec![1, 2, 3, 4, 5, 7]).expect("region");
    let config = TrainConfig {
        max_evals: 50,
        shots: 1024,
        cvar_alpha: None,
        use_m3: false,
        seed: 42,
        final_shots: 8192,
    };
    let search = search_min_duration(&model, &graph, &config, 32, 320, 0.02);
    let (best, evaluated) = TORONTO_DURATION_SEARCH_GOLDEN;
    assert_eq!(search.best_duration_dt, best);
    let bits = |pairs: &[(u32, f64)]| -> Vec<(u32, u64)> {
        pairs.iter().map(|&(d, ar)| (d, ar.to_bits())).collect()
    };
    assert_eq!(
        bits(&search.evaluated),
        bits(&evaluated),
        "evaluated {:?}",
        search.evaluated
    );
}

/// Trains one Table II cell at seed 42 the way
/// `hgp_bench::table2_cell_seeded` does (the paper's training config,
/// the table driver's region), returning its approximation ratio.
fn table2_cell_ar(backend: &Backend, region: Vec<usize>, hybrid: bool, go: bool, m3: bool) -> f64 {
    let graph = instances::task1_three_regular_6();
    let options = if go {
        GateModelOptions::optimized()
    } else {
        GateModelOptions::raw()
    };
    let config = TrainConfig {
        use_m3: m3,
        seed: 42,
        ..TrainConfig::default()
    };
    if hybrid {
        let model = HybridModel::with_options(backend, &graph, 1, region, options).expect("region");
        train(&model, &graph, &config).approximation_ratio
    } else {
        let model = GateModel::new(backend, &graph, 1, region, options).expect("region");
        train(&model, &graph, &config).approximation_ratio
    }
}

/// `(row, hybrid, AR)` at seed 42 of the Table II "GO AR" (gate
/// optimization only) and "M3 AR" (gate optimization + M3) cells on
/// `ibmq_guadalupe`, region `[0..6]`, and of the "Raw AR" cell on
/// `ibm_auckland`, region `[1, 2, 3, 4, 5, 7]` — the cell furthest from
/// the paper's numbers. Captured before training probes were routed
/// through the models' compiled exact templates, from the per-probe
/// schedule walk they replaced.
const MORE_CELL_GOLDENS: [(&str, bool, f64); 6] = [
    ("guadalupe GO", false, 0.4983317057291667),
    ("guadalupe GO", true, 0.5745985243055556),
    ("guadalupe M3", false, 0.4970836879104871),
    ("guadalupe M3", true, 0.5865428741677365),
    ("auckland Raw", false, 0.6631944444444444),
    ("auckland Raw", true, 0.6672227647569444),
];

#[test]
fn table2_go_m3_and_auckland_raw_ratios_are_bit_equal_to_the_goldens() {
    let guadalupe = Backend::ibmq_guadalupe();
    let auckland = Backend::ibm_auckland();
    let mut moved = Vec::new();
    for (row, hybrid, golden) in MORE_CELL_GOLDENS {
        let ar = match row {
            "guadalupe GO" => table2_cell_ar(&guadalupe, (0..6).collect(), hybrid, true, false),
            "guadalupe M3" => table2_cell_ar(&guadalupe, (0..6).collect(), hybrid, true, true),
            _ => table2_cell_ar(&auckland, vec![1, 2, 3, 4, 5, 7], hybrid, false, false),
        };
        if ar.to_bits() != golden.to_bits() {
            let model = if hybrid { "hybrid" } else { "gate" };
            moved.push(format!("{row} {model}: AR {ar:?}, golden {golden:?}"));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("; "));
}
