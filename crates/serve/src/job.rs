//! Job and result types — the service's wire format.
//!
//! A [`JobRequest`] names a program ([`JobProgram`]: a possibly
//! parametrized logical circuit, or a hybrid gate-pulse
//! [`HybridShape`]), the parameter binding for this evaluation, and what
//! to compute ([`JobSpec`]). The service answers with a [`JobResult`]
//! carrying either the [`JobOutput`] or a typed per-job [`JobError`] —
//! a malformed request fails *its* job, never the batch or a worker
//! thread — plus provenance: the job id, the sampling seed actually
//! used, whether the compiled program came from the cache, and the
//! execution latency.
//!
//! All types serialize through [`crate::json`] (see the `JsonCodec`
//! round-trip property suite) and derive the workspace's serde
//! annotations, so swapping a real serde backend in later is a
//! manifest-only change.

use std::fmt;

use serde::{Deserialize, Serialize};

use hgp_circuit::Circuit;
use hgp_core::compile::HybridShape;
use hgp_math::pauli::PauliSum;
use hgp_sim::Counts;

/// Monotonically increasing job identifier, assigned at submission.
///
/// The id doubles as the job's position in the service's evaluation
/// stream: the default sampling seed is
/// `hgp_sim::seed::stream_seed(base_seed, id)`, which is what makes any
/// concurrent schedule bit-identical to sequential execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling class of a daemon submission.
///
/// The daemon's queue is **strict-priority with FIFO within a class**:
/// a worker always takes the oldest `Interactive` job first, then the
/// oldest `Batch` job, then the oldest `Background` job. The policy is
/// deterministic given the admission order — and because a job's output
/// is a pure function of `(compiled shape, params, seed)`, all fixed at
/// admission, the *results* are bit-identical under any priority mix;
/// priority only decides who waits.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Priority {
    /// Latency-sensitive probes (an optimizer waiting on its objective).
    Interactive,
    /// The default class: ordinary batch work.
    #[default]
    Batch,
    /// Best-effort work that yields to everything else (sweeps,
    /// recalibration).
    Background,
}

impl Priority {
    /// All classes, highest priority first — the order workers scan.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::Background];

    /// Dense index of this class (0 = `Interactive`), used by the
    /// per-priority metrics arrays.
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Background => 2,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Batch => write!(f, "batch"),
            Priority::Background => write!(f, "background"),
        }
    }
}

/// Why the daemon refused a submission at admission.
///
/// Rejection happens **before** a job consumes an id/seed stream
/// position — a rejected submission leaves no trace in the evaluation
/// stream, so retrying it later (or never) cannot perturb any other
/// job's seed. Contrast with [`JobError`]: an *admitted* job that fails
/// validation or compilation still consumes its position and is
/// answered through its result stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rejected {
    /// The bounded submission queue cannot take the group. Back off and
    /// resubmit; nothing was admitted (groups are all-or-nothing).
    QueueFull {
        /// Jobs queued when the submission arrived.
        depth: usize,
        /// The configured queue bound.
        limit: usize,
    },
    /// A job asks for more sampled shots / trajectories than the
    /// daemon's per-job admission bound — the serving-level analogue of
    /// the wire format's width bounds.
    TooLarge {
        /// Shots the largest offending job requested.
        shots: u64,
        /// The configured per-job bound.
        limit: u64,
    },
    /// The daemon is draining for shutdown and no longer admits work.
    ShuttingDown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { depth, limit } => {
                write!(f, "queue full: {depth} of {limit} slots occupied")
            }
            Rejected::TooLarge { shots, limit } => {
                write!(
                    f,
                    "job too large: {shots} shots exceeds the per-job bound {limit}"
                )
            }
            Rejected::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// The program a job executes.
///
/// Both families participate in the same structural-hash compiled cache
/// and the same id/seed stream; they differ only in what the compile
/// step produces (a routed wire circuit vs a hybrid gate-pulse
/// artifact) and which [`JobSpec`]s apply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobProgram {
    /// A (possibly parametrized) logical circuit. Submit the
    /// *parametrized* circuit (not a pre-bound copy) so repeated shapes
    /// share one compiled program. Pairs with the circuit
    /// [`JobSpec`] kinds.
    Circuit(Circuit),
    /// A hybrid gate-pulse QAOA shape (graph, depth, mixer duration,
    /// pass options); parameters are the
    /// [`hgp_core::models::HybridModel`] layout
    /// `[gamma, theta, phase_0, f_0, ...]` per layer. Pairs with the
    /// `Hybrid*` [`JobSpec`] kinds.
    Hybrid(HybridShape),
}

impl JobProgram {
    /// The shape's cache key ([`Circuit::structural_key`] /
    /// [`HybridShape::structural_key`]; hybrid keys carry a leading
    /// domain tag that keeps them apart from the untagged circuit
    /// encoding).
    pub fn structural_key(&self) -> u64 {
        match self {
            JobProgram::Circuit(circuit) => circuit.structural_key(),
            JobProgram::Hybrid(shape) => shape.structural_key(),
        }
    }

    /// Number of logical qubits.
    pub fn n_qubits(&self) -> usize {
        match self {
            JobProgram::Circuit(circuit) => circuit.n_qubits(),
            JobProgram::Hybrid(shape) => shape.n_qubits(),
        }
    }

    /// Number of parameters a dispatch must bind.
    pub fn n_params(&self) -> usize {
        match self {
            JobProgram::Circuit(circuit) => circuit.n_params(),
            JobProgram::Hybrid(shape) => shape.n_params(),
        }
    }
}

/// What a job computes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobSpec {
    /// Ideal (noiseless) statevector simulation; returns the
    /// computational-basis probabilities in logical qubit order.
    StateVector,
    /// Noisy density-matrix execution through the machine-in-loop
    /// [`hgp_core::executor::Executor`]; returns probabilities (logical
    /// order, before readout confusion) and the state purity.
    DensityMatrix,
    /// Noisy execution plus `shots` sampled measurement outcomes with
    /// readout confusion — exactly what
    /// [`hgp_core::executor::Executor::sample`] returns, decoded to
    /// logical qubit order.
    Counts {
        /// Number of measurement shots.
        shots: usize,
    },
    /// Expectation value of an observable (given over logical qubits)
    /// on the noisy final state. Deterministic — no sampling.
    Expectation {
        /// The observable, width equal to the circuit.
        observable: PauliSum,
    },
    /// Noisy sampled counts via stochastic statevector trajectories —
    /// one `O(2^n)` trajectory (and one measurement shot, with
    /// shot-level readout confusion) per shot instead of one `O(4^n)`
    /// density-matrix run. The route to noisy sampling at widths the
    /// density matrix cannot reach.
    TrajectoryCounts {
        /// Number of shots (= trajectories).
        shots: usize,
    },
    /// Noisy expectation estimated as the mean of stochastic
    /// statevector trajectories; converges to the [`JobSpec::Expectation`]
    /// value at the Monte-Carlo rate, and the result carries its
    /// standard error.
    TrajectoryExpectation {
        /// The observable, width equal to the circuit.
        observable: PauliSum,
        /// Ensemble size.
        trajectories: usize,
    },
    /// Noisy execution of a bound hybrid gate-pulse program
    /// ([`JobProgram::Hybrid`]) plus `shots` sampled measurement
    /// outcomes with readout confusion, decoded to logical qubit order —
    /// the hybrid analogue of [`JobSpec::Counts`].
    HybridCounts {
        /// Number of measurement shots.
        shots: usize,
    },
    /// Expectation value of an observable (over logical qubits) on the
    /// noisy final state of a bound hybrid program. Deterministic — no
    /// sampling. The hybrid analogue of [`JobSpec::Expectation`].
    HybridExpectation {
        /// The observable, width equal to the hybrid shape's graph.
        observable: PauliSum,
    },
    /// Hybrid sampled counts via stochastic statevector trajectories:
    /// pulse blocks enter the recorded schedule as unitary ops with
    /// duration-scaled noise channels, one `O(2^n)` trajectory per shot.
    HybridTrajectoryCounts {
        /// Number of shots (= trajectories).
        shots: usize,
    },
    /// Hybrid noisy expectation estimated from stochastic trajectories,
    /// with its standard error.
    HybridTrajectoryExpectation {
        /// The observable, width equal to the hybrid shape's graph.
        observable: PauliSum,
        /// Ensemble size.
        trajectories: usize,
    },
}

impl JobSpec {
    /// Number of job kinds ([`JobSpec`] variants) — the dimension of
    /// the per-kind metrics arrays.
    pub const KIND_COUNT: usize = 10;

    /// Stable snake_case names per kind, indexed by
    /// [`JobSpec::kind_index`]; used as Prometheus label values and
    /// trace annotations.
    pub const KIND_NAMES: [&'static str; JobSpec::KIND_COUNT] = [
        "state_vector",
        "density_matrix",
        "counts",
        "expectation",
        "trajectory_counts",
        "trajectory_expectation",
        "hybrid_counts",
        "hybrid_expectation",
        "hybrid_trajectory_counts",
        "hybrid_trajectory_expectation",
    ];

    /// Dense index of this spec's kind (variant), used by the per-kind
    /// metrics histograms and job traces.
    pub fn kind_index(&self) -> usize {
        match self {
            JobSpec::StateVector => 0,
            JobSpec::DensityMatrix => 1,
            JobSpec::Counts { .. } => 2,
            JobSpec::Expectation { .. } => 3,
            JobSpec::TrajectoryCounts { .. } => 4,
            JobSpec::TrajectoryExpectation { .. } => 5,
            JobSpec::HybridCounts { .. } => 6,
            JobSpec::HybridExpectation { .. } => 7,
            JobSpec::HybridTrajectoryCounts { .. } => 8,
            JobSpec::HybridTrajectoryExpectation { .. } => 9,
        }
    }

    /// The stable name of this spec's kind.
    pub fn kind_name(&self) -> &'static str {
        JobSpec::KIND_NAMES[self.kind_index()]
    }

    /// Whether this spec executes a hybrid gate-pulse program (and thus
    /// requires a [`JobProgram::Hybrid`] payload).
    pub fn is_hybrid(&self) -> bool {
        matches!(
            self,
            JobSpec::HybridCounts { .. }
                | JobSpec::HybridExpectation { .. }
                | JobSpec::HybridTrajectoryCounts { .. }
                | JobSpec::HybridTrajectoryExpectation { .. }
        )
    }
}

/// One unit of work submitted to the service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// The program to execute (a circuit or a hybrid shape).
    pub program: JobProgram,
    /// Binding for the program's free parameters
    /// (`len == program.n_params()`).
    pub params: Vec<f64>,
    /// What to compute.
    pub spec: JobSpec,
    /// Explicit sampling seed; `None` derives one from the service's
    /// base seed and the job id (the reproducible default).
    pub seed: Option<u64>,
}

impl JobRequest {
    /// A circuit request with the default derived seed.
    pub fn new(circuit: Circuit, params: Vec<f64>, spec: JobSpec) -> Self {
        Self {
            program: JobProgram::Circuit(circuit),
            params,
            spec,
            seed: None,
        }
    }

    /// A hybrid gate-pulse request with the default derived seed.
    pub fn hybrid(shape: HybridShape, params: Vec<f64>, spec: JobSpec) -> Self {
        Self {
            program: JobProgram::Hybrid(shape),
            params,
            spec,
            seed: None,
        }
    }

    /// Overrides the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

/// The stage at which a job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStage {
    /// Request validation (parameter counts, observable widths, shot
    /// counts, spec/program pairing) — before any execution.
    Validate,
    /// Shape compilation (routing, pulse-block compilation, layout).
    Compile,
    /// Execution on a worker.
    Execute,
}

impl fmt::Display for JobStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobStage::Validate => write!(f, "validate"),
            JobStage::Compile => write!(f, "compile"),
            JobStage::Execute => write!(f, "execute"),
        }
    }
}

/// A typed per-job failure.
///
/// Jobs fail *individually*: a poisoned request in a batch produces one
/// `JobError` result while every other job runs to completion, and the
/// id/seed stream advances exactly as if the job had succeeded — so a
/// retried batch with the bad job fixed reproduces the good jobs bit
/// for bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobError {
    /// Where the job failed.
    pub stage: JobStage,
    /// Human-readable cause.
    pub message: String,
}

impl JobError {
    /// A validation-stage error.
    pub fn validate(message: impl Into<String>) -> Self {
        Self {
            stage: JobStage::Validate,
            message: message.into(),
        }
    }

    /// A compile-stage error.
    pub fn compile(message: impl Into<String>) -> Self {
        Self {
            stage: JobStage::Compile,
            message: message.into(),
        }
    }

    /// An execute-stage error.
    pub fn execute(message: impl Into<String>) -> Self {
        Self {
            stage: JobStage::Execute,
            message: message.into(),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} failed: {}", self.stage, self.message)
    }
}

impl std::error::Error for JobError {}

/// The computed payload of a finished job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobOutput {
    /// Ideal probabilities, logical qubit order.
    StateVector {
        /// `2^n` computational-basis probabilities.
        probabilities: Vec<f64>,
    },
    /// Noisy-state probabilities and purity.
    DensityMatrix {
        /// `2^n` computational-basis probabilities, logical order.
        probabilities: Vec<f64>,
        /// `Tr(rho^2)` of the full wire state.
        purity: f64,
    },
    /// Sampled measurement outcomes, logical qubit order.
    Counts(Counts),
    /// The expectation value.
    Expectation {
        /// `<observable>` on the noisy final state.
        value: f64,
    },
    /// Trajectory-sampled measurement outcomes, logical qubit order.
    TrajectoryCounts(Counts),
    /// The trajectory estimate of an expectation value.
    TrajectoryExpectation {
        /// Ensemble mean of `<observable>` over the trajectories.
        value: f64,
        /// Standard error of the mean (`sigma / sqrt(N)`).
        std_error: f64,
        /// Ensemble size the estimate was computed from.
        trajectories: usize,
    },
}

/// A finished job: payload (or typed failure) plus provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job's id (submission order).
    pub id: JobId,
    /// The sampling seed used (derived or explicit). Recorded even for
    /// deterministic specs and failed jobs, so any result can be
    /// replayed.
    pub seed: u64,
    /// Whether this job found its compiled shape already cached —
    /// decided per job, by the daemon and by `run_sequential` alike.
    /// False for a job that compiled its shape (in the daemon, workers
    /// that miss on one shape concurrently each compile it) and for
    /// jobs that failed before execution (validation or compile errors).
    pub cache_hit: bool,
    /// Wall-clock execution time of this job on its worker (0 for jobs
    /// rejected at validation).
    pub elapsed_ns: u64,
    /// The payload, or the typed failure.
    pub output: Result<JobOutput, JobError>,
}

impl JobResult {
    /// The successful payload.
    ///
    /// # Panics
    ///
    /// Panics (with the job error) if the job failed.
    pub fn unwrap_output(&self) -> &JobOutput {
        match &self.output {
            Ok(output) => output,
            Err(e) => panic!("{}: {e}", self.id),
        }
    }

    /// The failure, if the job failed.
    pub fn error(&self) -> Option<&JobError> {
        self.output.as_ref().err()
    }
}
