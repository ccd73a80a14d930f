//! The shared worker core: request validation, per-shape compilation,
//! and per-job execution.
//!
//! The [`Daemon`](crate::Daemon) admits requests into `PreparedJob`s
//! (id and seed fixed by stream position) and runs each one through
//! `execute_job`; [`run_sequential`] drives the same core on one
//! thread as the reference the daemon is pinned against. So the
//! determinism contract is written exactly once:
//!
//! - **Validate** (`validate_request`) — bad parameter counts,
//!   mismatched observables, zero shot counts, or a hybrid spec on a
//!   circuit payload become validate-stage [`JobError`]s. A rejected
//!   job still consumes its stream position.
//! - **Compile** (`compile_artifact`) — one compilation per structural
//!   key ([`hgp_circuit::Circuit::structural_key`] for circuit programs,
//!   [`hgp_core::compile::HybridShape::structural_key`] for hybrid
//!   gate-pulse programs) through [`hgp_core::compile::CircuitCompiler`].
//!   A shape that fails to compile fails exactly the jobs of that shape.
//! - **Execute** (`execute_job`) — bind the job's parameters into the
//!   cached shape and run it. The artifact is matched once: the
//!   circuit-only kinds (`StateVector`, `DensityMatrix`) run on the
//!   circuit, and each exact and trajectory output kind has one arm for
//!   both families (`execute_noisy`, generic over the
//!   [`hgp_core::compile::Compiled`] shape), so a `Hybrid*` kind and its
//!   circuit twin run the same code. The exact kinds bind the shape's
//!   superoperator tape (`bind_exact`); the trajectory kinds bind its
//!   replay tape (`bind_replay`) and run on [`hgp_sim::ReplayEngine`]. A
//!   panic boundary turns any residual panic on request-derived data
//!   into an execute-stage [`JobError`].
//!
//! Because a job's output depends only on `(compiled shape, params,
//! seed)` and all three are fixed at admission, **any concurrent
//! schedule is bit-identical to sequential execution**.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use hgp_core::compile::{CircuitCompiler, Compiled, ProgramFamily};
use hgp_core::models::GateModelOptions;
use hgp_device::Backend;
use hgp_sim::seed::stream_seed;
use hgp_sim::{NoProfile, ProfileSink, SimBackend, StateVector};

use crate::cache::CompiledArtifact;
use crate::job::{JobError, JobId, JobOutput, JobProgram, JobRequest, JobResult, JobSpec};

/// Serving configuration: the compile, cache and seed parameters the
/// [`Daemon`](crate::Daemon) and [`run_sequential`] share.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Physical qubits circuits are routed into; a circuit of `n`
    /// qubits uses the first `n` entries (which must induce a connected
    /// subgraph).
    pub layout: Vec<usize>,
    /// Daemon worker threads. Defaults to the host's available
    /// parallelism, capped at 8.
    pub workers: usize,
    /// Compiled shapes kept in the LRU cache.
    pub cache_capacity: usize,
    /// Base seed of the evaluation stream.
    pub base_seed: u64,
    /// Transpilation passes applied once per circuit shape (hybrid
    /// shapes carry their own pass configuration).
    pub compile_options: GateModelOptions,
}

impl ServeConfig {
    /// Defaults: host parallelism (max 8) workers, 64 cached shapes,
    /// base seed 42, optimized compilation.
    pub fn new(layout: Vec<usize>) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        Self {
            layout,
            workers,
            cache_capacity: 64,
            base_seed: 42,
            compile_options: GateModelOptions::optimized(),
        }
    }

    /// Overrides the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Overrides the cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the base seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Overrides the compilation passes for circuit shapes.
    pub fn with_compile_options(mut self, options: GateModelOptions) -> Self {
        self.compile_options = options;
        self
    }
}

/// A job admitted to the stream: id and seed fixed, awaiting dispatch.
///
/// The unit of the shared worker core: the daemon and
/// [`run_sequential`] both admit requests into `PreparedJob`s and
/// execute them through [`execute_job`].
pub(crate) struct PreparedJob {
    pub(crate) id: JobId,
    pub(crate) seed: u64,
    pub(crate) params: Vec<f64>,
    pub(crate) spec: JobSpec,
}

impl PreparedJob {
    /// A result shell for a job that never reached a worker.
    pub(crate) fn failed(&self, error: JobError) -> JobResult {
        JobResult {
            id: self.id,
            seed: self.seed,
            cache_hit: false,
            elapsed_ns: 0,
            output: Err(error),
        }
    }
}

/// The sequential reference the [`Daemon`](crate::Daemon) is pinned
/// against — not a serving path: one thread, no queue, no metrics.
///
/// Job `i` takes id `i` and the seed `request.seed` or
/// `stream_seed(config.base_seed, i)`: the positions a fresh daemon with
/// the same base seed gives one submitted group. Jobs that fail
/// validation consume their position, each distinct structural key
/// compiles once, and a shape that fails to compile fails its own jobs.
/// Results come back in submission order.
pub fn run_sequential(
    backend: &Backend,
    config: &ServeConfig,
    requests: Vec<JobRequest>,
) -> Vec<JobResult> {
    let mut compiled: BTreeMap<u64, Result<CompiledArtifact, JobError>> = BTreeMap::new();
    let mut results = Vec::with_capacity(requests.len());
    for (position, request) in requests.into_iter().enumerate() {
        let id = JobId(position as u64);
        let seed = request
            .seed
            .unwrap_or_else(|| stream_seed(config.base_seed, id.0));
        let validation = validate_request(&request);
        let key = request.program.structural_key();
        let cache_hit = compiled.contains_key(&key);
        let job = PreparedJob {
            id,
            seed,
            params: request.params,
            spec: request.spec,
        };
        if let Err(error) = validation {
            results.push(job.failed(error));
            continue;
        }
        let artifact = compiled.entry(key).or_insert_with(|| {
            compile_artifact(
                backend,
                &config.layout,
                config.compile_options,
                &request.program,
            )
        });
        results.push(match artifact {
            Ok(artifact) => execute_job(backend, artifact, cache_hit, job, &NoProfile).0,
            Err(error) => job.failed(error.clone()),
        });
    }
    results
}

/// Validates one request against its own declared shape — parameter
/// counts, observable widths, shot counts, spec/program family pairing.
/// Shared by the daemon and [`run_sequential`] so both admit exactly the
/// same request set; failures become validate-stage job errors, never
/// panics.
pub(crate) fn validate_request(request: &JobRequest) -> Result<(), JobError> {
    if request.params.len() != request.program.n_params() {
        return Err(JobError::validate(format!(
            "expected {} parameter(s), got {}",
            request.program.n_params(),
            request.params.len()
        )));
    }
    let is_hybrid_program = matches!(request.program, JobProgram::Hybrid(_));
    if request.spec.is_hybrid() != is_hybrid_program {
        return Err(JobError::validate(if is_hybrid_program {
            "hybrid programs require a Hybrid* job spec"
        } else {
            "circuit programs cannot run under a Hybrid* job spec"
        }));
    }
    let observable = match &request.spec {
        JobSpec::Expectation { observable }
        | JobSpec::TrajectoryExpectation { observable, .. }
        | JobSpec::HybridExpectation { observable }
        | JobSpec::HybridTrajectoryExpectation { observable, .. } => Some(observable),
        _ => None,
    };
    if let Some(observable) = observable {
        if observable.n_qubits() != request.program.n_qubits() {
            return Err(JobError::validate(format!(
                "observable width {} must match the program width {}",
                observable.n_qubits(),
                request.program.n_qubits()
            )));
        }
    }
    match &request.spec {
        JobSpec::Counts { shots: 0 } | JobSpec::HybridCounts { shots: 0 } => {
            return Err(JobError::validate("sampling needs at least one shot"));
        }
        JobSpec::TrajectoryCounts { shots: 0 } | JobSpec::HybridTrajectoryCounts { shots: 0 } => {
            return Err(JobError::validate(
                "trajectory sampling needs at least one shot",
            ));
        }
        JobSpec::TrajectoryExpectation {
            trajectories: 0, ..
        }
        | JobSpec::HybridTrajectoryExpectation {
            trajectories: 0, ..
        } => {
            return Err(JobError::validate(
                "trajectory estimation needs at least one trajectory",
            ));
        }
        _ => {}
    }
    Ok(())
}

/// Compiles one program shape into its cached artifact form — the
/// cache-miss path shared by the daemon and [`run_sequential`]. All
/// request-derived failures come back as compile-stage [`JobError`]s.
pub(crate) fn compile_artifact(
    backend: &Backend,
    layout: &[usize],
    options: GateModelOptions,
    program: &JobProgram,
) -> Result<CompiledArtifact, JobError> {
    let compiler = CircuitCompiler::new(backend, layout.to_vec()).with_options(options);
    match program {
        JobProgram::Circuit(circuit) => compiler
            .compile(circuit)
            .map(|c| CompiledArtifact::Circuit(Arc::new(c))),
        JobProgram::Hybrid(shape) => compiler
            .compile_hybrid(shape)
            .map(|p| CompiledArtifact::Hybrid(Arc::new(p))),
    }
    .map_err(JobError::compile)
}

/// Times the bind stage of a job, accumulating into `acc`.
fn timed_bind<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_nanos() as u64;
    out
}

/// Stochastic shots a spec runs on the trajectory replay path — the
/// unit of the shots-executed metric. Counts jobs, not side effects:
/// expectation kinds execute one trajectory per requested sample, so
/// their trajectory count *is* their shot count. Non-trajectory kinds
/// (statevector, density matrix, exact sampling) report zero.
pub(crate) fn trajectory_shots(spec: &JobSpec) -> u64 {
    match spec {
        JobSpec::TrajectoryCounts { shots } | JobSpec::HybridTrajectoryCounts { shots } => {
            *shots as u64
        }
        JobSpec::TrajectoryExpectation { trajectories, .. }
        | JobSpec::HybridTrajectoryExpectation { trajectories, .. } => *trajectories as u64,
        _ => 0,
    }
}

/// Executes one job against its compiled shape, returning the result and
/// the job's bind-stage nanoseconds. Pure in `(compiled, params, seed)`
/// — the determinism contract lives here. The panic boundary converts
/// any residual panic on request-derived data into an execute-stage
/// [`JobError`]: a bad job must never take its worker thread down.
pub(crate) fn execute_job<P: ProfileSink>(
    backend: &Backend,
    compiled: &CompiledArtifact,
    cache_hit: bool,
    job: PreparedJob,
    sink: &P,
) -> (JobResult, u64) {
    let t0 = Instant::now();
    let mut bind_ns = 0u64;
    let output = catch_unwind(AssertUnwindSafe(|| {
        execute_spec(backend, compiled, &job, &mut bind_ns, sink)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked".to_string());
        Err(JobError::execute(message))
    });
    let result = JobResult {
        id: job.id,
        seed: job.seed,
        cache_hit,
        elapsed_ns: t0.elapsed().as_nanos() as u64,
        output,
    };
    (result, bind_ns)
}

/// The spec dispatch of [`execute_job`]: matches the artifact once.
/// Binds are timed into `bind_ns` so the metrics can split per-job
/// worker time into bind vs execute.
///
/// `StateVector` and `DensityMatrix` are circuit-only; every other kind
/// runs in [`execute_noisy`], one arm per output kind for both program
/// families.
fn execute_spec<P: ProfileSink>(
    backend: &Backend,
    compiled: &CompiledArtifact,
    job: &PreparedJob,
    bind_ns: &mut u64,
    sink: &P,
) -> Result<JobOutput, JobError> {
    match compiled {
        CompiledArtifact::Circuit(compiled) => match &job.spec {
            JobSpec::StateVector => {
                let bound = timed_bind(bind_ns, || compiled.circuit().bind(&job.params));
                let wire = StateVector::execute(&bound).expect("compiled circuits bind fully");
                Ok(JobOutput::StateVector {
                    probabilities: compiled.decode_probabilities(&wire.probabilities()),
                })
            }
            JobSpec::DensityMatrix => {
                let exec = compiled.executor(backend);
                let tape = timed_bind(bind_ns, || compiled.bind_exact(&exec, &job.params));
                let rho = exec.run_exact_replay_profiled(&tape, sink);
                Ok(JobOutput::DensityMatrix {
                    probabilities: compiled.decode_probabilities(&rho.probabilities()),
                    purity: rho.purity(),
                })
            }
            _ => execute_noisy(backend, compiled, job, bind_ns, sink),
        },
        CompiledArtifact::Hybrid(compiled) => execute_noisy(backend, compiled, job, bind_ns, sink),
    }
}

/// The exact and trajectory kinds, for either program family — a
/// `Hybrid*` kind and its circuit twin share one arm.
///
/// The exact kinds bind the shape's superoperator tape
/// ([`Compiled::bind_exact`]) and `run_exact_replay` evolves the density
/// matrix with resolved channels — no schedule walk, no Kraus
/// re-embedding — pinned against the reference density walk
/// (bit-identical on order-preserving ops, ≤ 1e-12 elementwise on
/// resolved multi-Kraus channels; see
/// `crates/sim/src/replay/exact.rs`). The trajectory kinds bind the
/// replay tape ([`Compiled::bind_replay`]) and the replay engine runs
/// the shots with zero per-shot allocation,
/// bit-identical to the reference trajectory engine; trajectory `i`
/// draws its randomness from stream position (job seed, `i`).
fn execute_noisy<F: ProgramFamily, P: ProfileSink>(
    backend: &Backend,
    compiled: &Compiled<F>,
    job: &PreparedJob,
    bind_ns: &mut u64,
    sink: &P,
) -> Result<JobOutput, JobError> {
    let exec = compiled.executor(backend);
    match &job.spec {
        JobSpec::Counts { shots } | JobSpec::HybridCounts { shots } => {
            let tape = timed_bind(bind_ns, || compiled.bind_exact(&exec, &job.params));
            let counts = exec.sample_tape(&tape, *shots, job.seed, sink);
            Ok(JobOutput::Counts(compiled.decode_counts(&counts)))
        }
        JobSpec::Expectation { observable } | JobSpec::HybridExpectation { observable } => {
            let tape = timed_bind(bind_ns, || compiled.bind_exact(&exec, &job.params));
            let rho = exec.run_exact_replay_profiled(&tape, sink);
            Ok(JobOutput::Expectation {
                value: SimBackend::expectation(&rho, &compiled.wire_observable(observable)),
            })
        }
        JobSpec::TrajectoryCounts { shots } | JobSpec::HybridTrajectoryCounts { shots } => {
            let replay = timed_bind(bind_ns, || compiled.bind_replay(&exec, &job.params));
            let counts = exec.sample_replay_profiled(&replay, *shots, job.seed, sink);
            Ok(JobOutput::TrajectoryCounts(compiled.decode_counts(&counts)))
        }
        JobSpec::TrajectoryExpectation {
            observable,
            trajectories,
        }
        | JobSpec::HybridTrajectoryExpectation {
            observable,
            trajectories,
        } => {
            let replay = timed_bind(bind_ns, || compiled.bind_replay(&exec, &job.params));
            let (value, std_error) = exec.expectation_replay_profiled(
                &replay,
                &compiled.wire_observable(observable),
                *trajectories,
                job.seed,
                sink,
            );
            Ok(JobOutput::TrajectoryExpectation {
                value,
                std_error,
                trajectories: *trajectories,
            })
        }
        // `validate_request` refuses these on a hybrid program; a typed
        // error keeps the worker total all the same.
        JobSpec::StateVector | JobSpec::DensityMatrix => Err(JobError::validate(
            "state-vector and density-matrix jobs need a circuit program",
        )),
    }
}
