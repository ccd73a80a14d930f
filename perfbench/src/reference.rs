//! The in-process sequential reference: compiles and executes served
//! jobs one at a time through the public `hgp_core` calls the daemon's
//! workers make, timing each layer's call from here.
//!
//! Its outputs are the correctness oracle (a served result must equal
//! the reference at the job's recorded seed, bit for bit) and its
//! timings are the per-layer compile, template, bind and exec numbers.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use hgp_core::compile::{CircuitCompiler, CompiledCircuit, CompiledProgram};
use hgp_core::models::GateModelOptions;
use hgp_device::Backend;
use hgp_serve::{JobOutput, JobProgram, JobRequest, JobSpec};
use hgp_sim::{SimBackend, StateVector};

/// Per-layer samples gathered by the reference, in the units of the
/// metric each feeds.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `CircuitCompiler::compile`, ms per shape.
    pub compile_circuit_ms: Vec<f64>,
    /// `CircuitCompiler::compile_hybrid`, ms per shape.
    pub compile_hybrid_ms: Vec<f64>,
    /// First template bind on a fresh artifact (records the template),
    /// ms.
    pub record_ms: Vec<f64>,
    /// Later `bind_exact` calls, us.
    pub bind_exact_us: Vec<f64>,
    /// Later `bind_replay` calls, us.
    pub bind_replay_us: Vec<f64>,
    /// Exact-path execution (replay plus sampling or expectation), ms.
    pub exec_exact_ms: Vec<f64>,
    /// Statevector execution, us.
    pub exec_statevector_us: Vec<f64>,
    /// Trajectory execution per shot, ms.
    pub traj_ms_per_shot: Vec<f64>,
}

/// A compiled shape. Shared, not cloned: templates record lazily
/// inside the artifact, and a clone would record again.
enum Compiled {
    Circuit(Arc<CompiledCircuit>),
    Hybrid(Arc<CompiledProgram>),
}

/// Which template a bind goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Template {
    Exact,
    Replay,
}

/// The sequential reference over one backend and layout.
pub struct Reference<'b> {
    backend: &'b Backend,
    compiler: CircuitCompiler<'b>,
    compiled: BTreeMap<u64, Compiled>,
    recorded: BTreeSet<(u64, Template)>,
    /// The layer samples gathered so far.
    pub times: LayerTimes,
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

impl<'b> Reference<'b> {
    /// A reference compiling into `layout` with the daemon's default
    /// passes.
    pub fn new(backend: &'b Backend, layout: &[usize]) -> Self {
        Self {
            backend,
            compiler: CircuitCompiler::new(backend, layout.to_vec())
                .with_options(GateModelOptions::optimized()),
            compiled: BTreeMap::new(),
            recorded: BTreeSet::new(),
            times: LayerTimes::default(),
        }
    }

    /// Compiles `program`'s shape unless it is already compiled.
    fn compile(&mut self, program: &JobProgram) -> Result<u64, String> {
        let key = program.structural_key();
        if self.compiled.contains_key(&key) {
            return Ok(key);
        }
        let t0 = Instant::now();
        let compiled = match program {
            JobProgram::Circuit(circuit) => {
                let c = self.compiler.compile(circuit)?;
                self.times.compile_circuit_ms.push(ms(t0));
                Compiled::Circuit(Arc::new(c))
            }
            JobProgram::Hybrid(shape) => {
                let p = self.compiler.compile_hybrid(shape)?;
                self.times.compile_hybrid_ms.push(ms(t0));
                Compiled::Hybrid(Arc::new(p))
            }
        };
        self.compiled.insert(key, compiled);
        Ok(key)
    }

    /// Times one template bind. The first on a shape records the
    /// template; it is followed by a second bind, so every shape also
    /// yields a bind-only sample.
    fn timed_bind<T>(&mut self, key: u64, template: Template, bind: impl Fn() -> T) -> T {
        let timed = || {
            let t0 = Instant::now();
            let out = bind();
            (out, t0.elapsed().as_secs_f64() * 1e6)
        };
        let (mut out, mut us) = timed();
        if self.recorded.insert((key, template)) {
            self.times.record_ms.push(us / 1e3);
            (out, us) = timed();
        }
        match template {
            Template::Exact => self.times.bind_exact_us.push(us),
            Template::Replay => self.times.bind_replay_us.push(us),
        }
        out
    }

    /// Executes `request` at `seed` exactly as a daemon worker does.
    ///
    /// # Errors
    ///
    /// Errors if the shape does not compile or the spec does not fit
    /// the program family.
    pub fn execute(&mut self, request: &JobRequest, seed: u64) -> Result<JobOutput, String> {
        let key = self.compile(&request.program)?;
        let backend = self.backend;
        let params = &request.params;
        // Each arm takes its own handle on the artifact, so the timed
        // bind below may record into `self`.
        match (
            self.compiled.get(&key).expect("compiled above"),
            &request.spec,
        ) {
            (Compiled::Circuit(c), JobSpec::StateVector) => {
                let c = Arc::clone(c);
                let t0 = Instant::now();
                let bound = c.circuit().bind(params);
                let wire = StateVector::execute(&bound).ok_or("unbound parameters")?;
                let out = JobOutput::StateVector {
                    probabilities: c.decode_probabilities(&wire.probabilities()),
                };
                self.times
                    .exec_statevector_us
                    .push(t0.elapsed().as_secs_f64() * 1e6);
                Ok(out)
            }
            (Compiled::Circuit(c), JobSpec::Counts { shots }) => {
                let c = Arc::clone(c);
                let exec = c.executor(backend);
                let tape = self.timed_bind(key, Template::Exact, || c.bind_exact(&exec, params));
                let t0 = Instant::now();
                let rho = exec.run_exact_replay(&tape);
                let counts = exec.sample_state(&rho, *shots, seed);
                let out = JobOutput::Counts(c.decode_counts(&counts));
                self.times.exec_exact_ms.push(ms(t0));
                Ok(out)
            }
            (Compiled::Circuit(c), JobSpec::Expectation { observable }) => {
                let c = Arc::clone(c);
                let exec = c.executor(backend);
                let tape = self.timed_bind(key, Template::Exact, || c.bind_exact(&exec, params));
                let t0 = Instant::now();
                let rho = exec.run_exact_replay(&tape);
                let value = SimBackend::expectation(&rho, &c.wire_observable(observable));
                self.times.exec_exact_ms.push(ms(t0));
                Ok(JobOutput::Expectation { value })
            }
            (Compiled::Circuit(c), JobSpec::TrajectoryCounts { shots }) => {
                let c = Arc::clone(c);
                let exec = c.executor(backend);
                let replay =
                    self.timed_bind(key, Template::Replay, || c.bind_replay(&exec, params));
                let t0 = Instant::now();
                let counts = exec.sample_replay(&replay, *shots, seed);
                let out = JobOutput::TrajectoryCounts(c.decode_counts(&counts));
                self.times.traj_ms_per_shot.push(ms(t0) / *shots as f64);
                Ok(out)
            }
            (
                Compiled::Circuit(c),
                JobSpec::TrajectoryExpectation {
                    observable,
                    trajectories,
                },
            ) => {
                let c = Arc::clone(c);
                let exec = c.executor(backend);
                let replay =
                    self.timed_bind(key, Template::Replay, || c.bind_replay(&exec, params));
                let t0 = Instant::now();
                let (value, std_error) = exec.expectation_replay(
                    &replay,
                    &c.wire_observable(observable),
                    *trajectories,
                    seed,
                );
                self.times
                    .traj_ms_per_shot
                    .push(ms(t0) / *trajectories as f64);
                Ok(JobOutput::TrajectoryExpectation {
                    value,
                    std_error,
                    trajectories: *trajectories,
                })
            }
            (Compiled::Hybrid(p), JobSpec::HybridCounts { shots }) => {
                let p = Arc::clone(p);
                let exec = p.executor(backend);
                let tape = self.timed_bind(key, Template::Exact, || p.bind_exact(&exec, params));
                let t0 = Instant::now();
                let rho = exec.run_exact_replay(&tape);
                let counts = exec.sample_state(&rho, *shots, seed);
                let out = JobOutput::Counts(p.decode_counts(&counts));
                self.times.exec_exact_ms.push(ms(t0));
                Ok(out)
            }
            (Compiled::Hybrid(p), JobSpec::HybridExpectation { observable }) => {
                let p = Arc::clone(p);
                let exec = p.executor(backend);
                let tape = self.timed_bind(key, Template::Exact, || p.bind_exact(&exec, params));
                let t0 = Instant::now();
                let rho = exec.run_exact_replay(&tape);
                let value = SimBackend::expectation(&rho, &p.wire_observable(observable));
                self.times.exec_exact_ms.push(ms(t0));
                Ok(JobOutput::Expectation { value })
            }
            (
                Compiled::Hybrid(p),
                JobSpec::HybridTrajectoryExpectation {
                    observable,
                    trajectories,
                },
            ) => {
                let p = Arc::clone(p);
                let exec = p.executor(backend);
                let replay =
                    self.timed_bind(key, Template::Replay, || p.bind_replay(&exec, params));
                let t0 = Instant::now();
                let (value, std_error) = exec.expectation_replay(
                    &replay,
                    &p.wire_observable(observable),
                    *trajectories,
                    seed,
                );
                self.times
                    .traj_ms_per_shot
                    .push(ms(t0) / *trajectories as f64);
                Ok(JobOutput::TrajectoryExpectation {
                    value,
                    std_error,
                    trajectories: *trajectories,
                })
            }
            (_, spec) => Err(format!(
                "the reference does not serve {} jobs",
                spec.kind_name()
            )),
        }
    }
}

/// Whether two outputs are bit-identical. `Debug` prints every `f64`
/// in its shortest round-trip form, so equal text is equal bits.
pub fn bit_identical(a: &JobOutput, b: &JobOutput) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_sim::Counts;

    #[test]
    fn a_corrupted_result_is_not_bit_identical() {
        let served = JobOutput::TrajectoryExpectation {
            value: -2.25,
            std_error: 0.125,
            trajectories: 8,
        };
        assert!(bit_identical(&served, &served.clone()));
        let corrupted = JobOutput::TrajectoryExpectation {
            value: f64::from_bits((-2.25f64).to_bits() + 1),
            std_error: 0.125,
            trajectories: 8,
        };
        assert!(!bit_identical(&served, &corrupted));
        let zero = JobOutput::Expectation { value: 0.0 };
        let negative_zero = JobOutput::Expectation { value: -0.0 };
        assert!(!bit_identical(&zero, &negative_zero));
        let counts = JobOutput::Counts(Counts::new(2));
        assert!(!bit_identical(&counts, &zero));
    }
}
