//! The pulse-level QAOA model (the VQP-style baseline of Fig. 5).
//!
//! The entire routed gate circuit is lowered to its calibrated pulse
//! schedule *once*, at the standard QAOA initial parameters; then every
//! physical pulse's amplitude and phase become trainable deviations.
//! Nothing pins the Hamiltonian layer's `RZZ` structure, so optimization
//! gradually trades it away — the paper's "loss of algorithm design
//! knowledge", which buys a larger search space and slower convergence.

use hgp_device::Backend;
use hgp_graph::Graph;
use hgp_pulse::calibration::PulseLibrary;
use hgp_pulse::propagator::{cr_propagator, drive_propagator, virtual_z};
use hgp_pulse::{Channel, PulseSpec, Waveform};
use hgp_sim::Counts;

use crate::models::gate::GateModel;
use crate::models::{GateModelOptions, VqaModel};
use crate::program::{BlockKind, Program};
use crate::qaoa::initial_point;

/// One pulse of the lowered template.
#[derive(Debug, Clone)]
enum TemplateItem {
    Drive {
        wire: usize,
        waveform: Waveform,
        amp0: f64,
        phase0: f64,
        freq0: f64,
    },
    CrossRes {
        control_wire: usize,
        target_wire: usize,
        waveform: Waveform,
        amp0: f64,
        phase0: f64,
    },
    VirtualZ {
        wire: usize,
        angle: f64,
    },
}

/// The pulse-level model. Parameters: `[d_amp, d_phase]` per physical
/// pulse, in schedule order (`amp' = amp0 * (1 + d_amp)`,
/// `phase' = phase0 + d_phase`), all starting at zero.
///
/// Deltas are bounded to trim ranges (`|d_amp| <= 0.075`,
/// `|d_phase| <= 0.075` rad) for the same reason the hybrid model bounds
/// its trims (see [`crate::models::HybridModel`]): on a smooth simulated
/// landscape unbounded per-pulse freedom turns the ansatz into a far
/// stronger algorithm family than anything the paper's hardware-budget
/// training could realize.
#[derive(Debug, Clone)]
pub struct PulseModel<'a> {
    backend: &'a Backend,
    region: Vec<usize>,
    template: Vec<TemplateItem>,
    /// The region wire each logical qubit is measured on (the lowered
    /// gate circuit's routing permutation).
    exit_wires: Vec<usize>,
    n_physical_pulses: usize,
}

impl<'a> PulseModel<'a> {
    /// Lowers the routed level-`p` QAOA circuit at the standard initial
    /// point into a trainable pulse template.
    ///
    /// # Errors
    ///
    /// Returns an error if the region mismatches the graph or lowering
    /// hits a non-coupled pair (cannot happen after routing).
    pub fn new(
        backend: &'a Backend,
        graph: &Graph,
        p: usize,
        region: Vec<usize>,
    ) -> Result<Self, String> {
        let gate = GateModel::new(backend, graph, p, region.clone(), GateModelOptions::raw())?;
        let bound = gate.circuit().bind(&initial_point(p));
        // Lower on physical indices (the pulse library speaks physical).
        let physical = bound.remapped(&region, backend.n_qubits());
        let lib = PulseLibrary::new(backend);
        let schedule = lib.circuit_to_schedule(&physical)?;
        let wire_of = |phys: usize| -> usize {
            region
                .iter()
                .position(|&r| r == phys)
                .expect("schedule stays inside the region")
        };
        let mut items: Vec<(u32, TemplateItem)> = Vec::new();
        for played in schedule.items() {
            let item = match (&played.pulse, &played.channel) {
                (
                    PulseSpec::Drive {
                        waveform,
                        amp,
                        phase,
                        freq_shift,
                    },
                    Channel::Drive(q),
                ) => TemplateItem::Drive {
                    wire: wire_of(*q),
                    waveform: *waveform,
                    amp0: *amp,
                    phase0: *phase,
                    freq0: *freq_shift,
                },
                (
                    PulseSpec::CrossResonance {
                        waveform,
                        amp,
                        phase,
                    },
                    Channel::Control { control, target },
                ) => TemplateItem::CrossRes {
                    control_wire: wire_of(*control),
                    target_wire: wire_of(*target),
                    waveform: *waveform,
                    amp0: *amp,
                    phase0: *phase,
                },
                (PulseSpec::VirtualZ { angle }, Channel::Drive(q)) => TemplateItem::VirtualZ {
                    wire: wire_of(*q),
                    angle: *angle,
                },
                (p, c) => return Err(format!("unexpected pulse {p:?} on {c}")),
            };
            items.push((played.start, item));
        }
        items.sort_by_key(|(start, _)| *start);
        let template: Vec<TemplateItem> = items.into_iter().map(|(_, i)| i).collect();
        let n_physical_pulses = template
            .iter()
            .filter(|t| !matches!(t, TemplateItem::VirtualZ { .. }))
            .count();
        Ok(Self {
            backend,
            region,
            template,
            exit_wires: (0..graph.n_nodes())
                .map(|l| gate.compiled().exit_wire(l))
                .collect(),
            n_physical_pulses,
        })
    }

    /// Number of physical (trainable) pulses in the template.
    pub fn n_pulses(&self) -> usize {
        self.n_physical_pulses
    }
}

impl VqaModel for PulseModel<'_> {
    fn backend(&self) -> &Backend {
        self.backend
    }

    fn n_qubits(&self) -> usize {
        self.exit_wires.len()
    }

    fn region_size(&self) -> usize {
        self.region.len()
    }

    fn n_params(&self) -> usize {
        2 * self.n_physical_pulses
    }

    fn initial_params(&self) -> Vec<f64> {
        vec![0.0; self.n_params()]
    }

    fn build(&self, params: &[f64]) -> Program {
        assert_eq!(params.len(), self.n_params(), "parameter count");
        let mut program = Program::new(self.region.len());
        let mut pulse_idx = 0usize;
        for item in &self.template {
            match item {
                TemplateItem::Drive {
                    wire,
                    waveform,
                    amp0,
                    phase0,
                    freq0,
                } => {
                    let d_amp = params[2 * pulse_idx].clamp(-0.075, 0.075);
                    let d_phase = params[2 * pulse_idx + 1].clamp(-0.075, 0.075);
                    pulse_idx += 1;
                    let qp = self.backend.qubit(self.region[*wire]);
                    // True physics: amplitude miscalibration and frame
                    // offset distort the commanded pulse, exactly as for
                    // the hybrid model's mixer pulses.
                    let amp = (amp0 * (1.0 + d_amp)).clamp(-1.0, 1.0) * (1.0 + qp.amp_error);
                    let u = drive_propagator(
                        waveform,
                        amp,
                        phase0 + d_phase,
                        *freq0 + qp.freq_offset,
                        qp.drive_strength,
                    );
                    program.push_pulse_block(&[*wire], u, waveform.duration(), BlockKind::Drive);
                }
                TemplateItem::CrossRes {
                    control_wire,
                    target_wire,
                    waveform,
                    amp0,
                    phase0,
                } => {
                    let d_amp = params[2 * pulse_idx].clamp(-0.075, 0.075);
                    let d_phase = params[2 * pulse_idx + 1].clamp(-0.075, 0.075);
                    pulse_idx += 1;
                    let amp = (amp0 * (1.0 + d_amp)).clamp(-1.5, 1.5);
                    let control = self.region[*control_wire];
                    let target = self.region[*target_wire];
                    let edge = self.backend.edge(control, target);
                    let strength = self.backend.qubit(control).drive_strength;
                    let u = cr_propagator(waveform, amp, phase0 + d_phase, edge, strength);
                    program.push_pulse_block(
                        &[*control_wire, *target_wire],
                        u,
                        waveform.duration(),
                        BlockKind::CrossResonance,
                    );
                }
                TemplateItem::VirtualZ { wire, angle } => {
                    program.push_pulse_block(&[*wire], virtual_z(*angle), 0, BlockKind::Virtual);
                }
            }
        }
        program
    }

    fn layout(&self) -> &[usize] {
        &self.region
    }

    fn interpret_counts(&self, counts: &Counts) -> Counts {
        counts.remapped(&self.exit_wires, self.exit_wires.len())
    }

    fn mixer_duration_dt(&self) -> u32 {
        // The mixer inherits the gate-level lowering: two pulses per qubit.
        2 * self.backend.pulse_1q_duration_dt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostEvaluator;
    use crate::executor::Executor;
    use hgp_graph::instances;

    fn region6() -> Vec<usize> {
        vec![1, 2, 3, 4, 5, 7]
    }

    #[test]
    fn template_has_many_parameters() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task1_three_regular_6();
        let model = PulseModel::new(&backend, &graph, 1, region6()).unwrap();
        // Far more parameters than the hybrid model's 19 — the paper's
        // scalability complaint.
        assert!(model.n_params() > 100, "n_params = {}", model.n_params());
        assert!(model.n_pulses() * 2 == model.n_params());
    }

    #[test]
    fn zero_deltas_reproduce_the_gate_circuit() {
        // At zero deviations the pulse model IS the lowered gate circuit;
        // on an ideal backend its AR must match the gate model's closely.
        let backend = Backend::ideal(6);
        let graph = instances::task1_three_regular_6();
        let region: Vec<usize> = (0..6).collect();
        let pulse = PulseModel::new(&backend, &graph, 1, region.clone()).unwrap();
        let gate = GateModel::new(&backend, &graph, 1, region, GateModelOptions::raw()).unwrap();
        let eval = CostEvaluator::new(&graph);
        let exec = Executor::new(&backend, pulse.layout().to_vec());
        let c_pulse = exec.sample(&pulse.build(&pulse.initial_params()), 100_000, 2);
        let c_gate = exec.sample(&gate.build(&initial_point(1)), 100_000, 2);
        let ar_pulse = eval.approximation_ratio(&pulse.interpret_counts(&c_pulse));
        let ar_gate = eval.approximation_ratio(&gate.interpret_counts(&c_gate));
        assert!(
            (ar_pulse - ar_gate).abs() < 0.02,
            "pulse {ar_pulse} vs gate {ar_gate}"
        );
    }

    #[test]
    fn amplitude_deltas_change_the_distribution() {
        let backend = Backend::ibmq_toronto();
        let graph = instances::task2_random_6();
        let model = PulseModel::new(&backend, &graph, 1, region6()).unwrap();
        let exec = Executor::new(&backend, model.layout().to_vec());
        let base = exec.sample(&model.build(&model.initial_params()), 4096, 3);
        let mut perturbed = model.initial_params();
        for (i, v) in perturbed.iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.3; // +30% amplitude everywhere
            }
        }
        let moved = exec.sample(&model.build(&perturbed), 4096, 3);
        assert_ne!(base, moved);
    }
}
