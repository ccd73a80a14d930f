//! The training path's exact tapes: every model's
//! [`VqaModel::exact_tape`] on its own [`VqaModel::executor`] must give
//! the same probabilities, bit for bit, as walking the bound program on
//! a fresh executor; the compiled models must record their schedule
//! template once and keep it across trainings; and an executor whose
//! physics differ from the recording (dynamical decoupling) must still
//! take the walk. Sampling a tape (`Executor::sample_tape`, which reads
//! the probabilities off the replay's planes) must draw the same counts
//! as sampling its joined state.

use hgp_core::executor::Executor;
use hgp_core::models::{GateModel, GateModelOptions, HybridModel, PulseModel, VqaModel};
use hgp_core::training::{train, TrainConfig};
use hgp_device::Backend;
use hgp_graph::instances;
use hgp_sim::{ExactReplayProgram, NoProfile};

fn region() -> Vec<usize> {
    (0..6).collect()
}

/// Four parameter points around the model's starting point, spread
/// enough to move every slot (and clamp some pulse trims).
fn points(model: &dyn VqaModel) -> Vec<Vec<f64>> {
    let x0 = model.initial_params();
    (0..4)
        .map(|k| {
            x0.iter()
                .enumerate()
                .map(|(i, &v)| v + 0.4 * (1.7 * (i + 1) as f64 * (k + 1) as f64).sin())
                .collect()
        })
        .collect()
}

fn probability_bits(exec: &Executor, tape: &ExactReplayProgram) -> Vec<u64> {
    exec.run_exact_replay(tape)
        .probabilities()
        .iter()
        .map(|p| p.to_bits())
        .collect()
}

/// The model's training tape against the walk of its bound program on
/// `Executor::new`, at every point of `points`.
fn assert_tapes_match_the_walk(model: &dyn VqaModel) {
    let exec = model.executor();
    let walker = Executor::new(model.backend(), model.layout().to_vec());
    for x in points(model) {
        let bound = model.exact_tape(&exec, &x);
        let walked = walker.exact_replay_program(&model.build(&x));
        assert_eq!(
            probability_bits(&exec, &bound),
            probability_bits(&walker, &walked),
            "at {x:?}"
        );
        // Training samples from the replay's planes without joining
        // them into a state; the counts must not notice.
        assert_eq!(
            exec.sample_tape(&bound, 512, 7, &NoProfile),
            exec.sample_state(&exec.run_exact_replay(&bound), 512, 7),
            "plane-sampled counts at {x:?}"
        );
    }
}

/// The same with dynamical decoupling on both sides: the template was
/// recorded without DD, so the model must walk.
fn assert_dd_takes_the_walk(model: &dyn VqaModel) {
    let exec = model.executor().with_dynamical_decoupling();
    let walker =
        Executor::new(model.backend(), model.layout().to_vec()).with_dynamical_decoupling();
    for x in points(model) {
        assert_eq!(
            probability_bits(&exec, &model.exact_tape(&exec, &x)),
            probability_bits(&walker, &walker.exact_replay_program(&model.build(&x))),
            "DD at {x:?}"
        );
    }
}

fn short_config(seed: u64) -> TrainConfig {
    TrainConfig {
        max_evals: 4,
        shots: 128,
        final_shots: 256,
        seed,
        ..TrainConfig::default()
    }
}

#[test]
fn gate_model_tapes_are_bit_identical_to_the_walk() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    for options in [GateModelOptions::raw(), GateModelOptions::optimized()] {
        let model = GateModel::new(&backend, &graph, 1, region(), options).unwrap();
        assert_tapes_match_the_walk(&model);
    }
}

#[test]
fn hybrid_model_tapes_are_bit_identical_to_the_walk() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let model =
        HybridModel::with_options(&backend, &graph, 1, region(), GateModelOptions::optimized())
            .unwrap();
    assert_tapes_match_the_walk(&model);
    // A duration change re-records the template at the new duration.
    assert_tapes_match_the_walk(&model.clone_with_duration(160));
    let raw = HybridModel::new(&backend, &graph, 1, region())
        .unwrap()
        .with_mixer_duration(96);
    assert_tapes_match_the_walk(&raw);
}

#[test]
fn pulse_model_tapes_are_bit_identical_to_the_walk() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let model = PulseModel::new(&backend, &graph, 1, region()).unwrap();
    assert_tapes_match_the_walk(&model);
}

#[test]
fn trainings_record_the_exact_template_once() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let gate =
        GateModel::new(&backend, &graph, 1, region(), GateModelOptions::optimized()).unwrap();
    assert!(gate.compiled().exact_template().is_none());
    train(&gate, &graph, &short_config(1));
    let first = gate.compiled().exact_template().expect("recorded");
    train(&gate, &graph, &short_config(2));
    let second = gate.compiled().exact_template().expect("kept");
    assert!(std::ptr::eq(first, second), "gate template re-recorded");

    let hybrid = HybridModel::new(&backend, &graph, 1, region())
        .unwrap()
        .with_mixer_duration(160);
    assert!(hybrid.compiled().exact_template().is_none());
    train(&hybrid, &graph, &short_config(1));
    let first = hybrid.compiled().exact_template().expect("recorded");
    train(&hybrid, &graph, &short_config(2));
    let second = hybrid.compiled().exact_template().expect("kept");
    assert!(std::ptr::eq(first, second), "hybrid template re-recorded");
}

#[test]
fn dynamical_decoupling_executors_take_the_walk() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    let gate = GateModel::new(&backend, &graph, 1, region(), GateModelOptions::raw()).unwrap();
    assert_dd_takes_the_walk(&gate);
    assert!(
        gate.compiled().exact_template().is_none(),
        "a DD executor must not record the template"
    );
    let hybrid = HybridModel::new(&backend, &graph, 1, region()).unwrap();
    assert_dd_takes_the_walk(&hybrid);
    assert!(hybrid.compiled().exact_template().is_none());
    // DD changes the physics, so falling back is what keeps the results
    // right: the template-bound and DD-walked tapes differ.
    let exec = gate.executor();
    let dd = gate.executor().with_dynamical_decoupling();
    let x = gate.initial_params();
    assert_ne!(
        probability_bits(&exec, &gate.exact_tape(&exec, &x)),
        probability_bits(&dd, &gate.exact_tape(&dd, &x)),
    );
}

#[test]
fn disconnected_region_is_an_error_not_a_panic() {
    let backend = Backend::ibmq_guadalupe();
    let graph = instances::task1_three_regular_6();
    // Qubit 15 is not coupled to any of qubits 0..5.
    let region = vec![0, 1, 2, 3, 4, 15];
    let gate = GateModel::new(&backend, &graph, 1, region, GateModelOptions::raw());
    assert!(gate.unwrap_err().contains("disconnected"));
}
