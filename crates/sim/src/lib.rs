#![deny(unsafe_op_in_unsafe_fn)]

//! Statevector and density-matrix quantum simulators behind the unified
//! [`SimBackend`] execution engine.
//!
//! Two execution backends power the workspace:
//!
//! - [`StateVector`]: pure-state simulation for ideal (noiseless) circuit
//!   evaluation and for unit-testing compiled pulse propagators,
//! - [`DensityMatrix`]: mixed-state simulation used by the machine-in-loop
//!   training runs, where Kraus noise channels act after every instruction.
//!
//! Both implement [`SimBackend`] — the trait every execution consumer
//! (the executor, the noisy simulator, training, benches) routes through
//! — and both dispatch gates into the fused kernel layer ([`kernels`]):
//! diagonal fast paths for `RZ`/`RZZ`/`CZ` (QAOA's entire cost layer),
//! stride-based dense 1q/2q kernels, and rayon-parallel amplitude
//! chunking above [`kernels::PAR_QUBIT_THRESHOLD`] qubits.
//!
//! A third execution mode lives in [`trajectory`]: noisy simulation as
//! an ensemble of stochastic *pure-state* trajectories
//! ([`TrajectoryEngine`] over a [`TrajectoryProgram`]), `O(2^n)` per
//! instruction per trajectory instead of the density matrix's `O(4^n)`,
//! with deterministic per-trajectory seeds ([`seed::stream_seed`]).
//! Its production hot path is [`replay`]: recorded trajectory programs
//! compile once into a flat [`ReplayProgram`] tape (fused diagonal runs,
//! resolved matrices, precompiled channel sampling tables) that
//! [`ReplayEngine`] replays with zero per-shot allocation or dispatch, in
//! lane-filling blocks of shots ([`ReplayBatch`]: structure-of-arrays
//! arenas swept op-major) — pinned **bit-identical** to the trajectory
//! engine, which stays as the reference implementation, for every block
//! size.
//! The exact density path has the analogous layer, from the same
//! compile front end ([`replay::Tape`]): recorded programs compile into
//! an [`ExactReplayProgram`] superoperator tape — fused diagonal-run
//! sweeps, resolved dense conjugations, channels collapsed into
//! superoperators or blockwise Kraus passes — replayed by
//! [`ExactReplayEngine`] with the `apply_exact` walk kept as the pinned
//! reference.
//!
//! Measurement statistics come out as [`Counts`] — multisets of observed
//! bitstrings — which downstream crates feed to error mitigation and cost
//! aggregation.
//!
//! # Example
//!
//! ```
//! use hgp_circuit::Circuit;
//! use hgp_sim::StateVector;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let psi = StateVector::from_circuit(&bell).expect("bound circuit");
//! let probs = psi.probabilities();
//! assert!((probs[0b00] - 0.5).abs() < 1e-12);
//! assert!((probs[0b11] - 0.5).abs() < 1e-12);
//! ```

pub mod backend;
pub mod counts;
pub mod density;
pub mod kernels;
pub mod replay;
pub mod seed;
pub mod statevector;
pub mod trajectory;

pub use backend::SimBackend;
pub use counts::Counts;
pub use density::DensityMatrix;
// Profiling sinks for the replay engines (see `hgp_obs::profile`):
// re-exported so engine callers name one crate for tape + sink.
pub use hgp_obs::profile::{NoProfile, OpProfile, OpProfileSnapshot, ProfileSink, ReplayOpKind};
pub use replay::{
    ExactReplayEngine, ExactReplayProgram, ReplayBatch, ReplayEngine, ReplayProgram, ReplaySlot,
};
pub use statevector::StateVector;
pub use trajectory::{ChannelOp, TrajectoryEngine, TrajectoryOp, TrajectoryProgram};
