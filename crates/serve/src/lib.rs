#![forbid(unsafe_code)]

//! `hgp_serve` — the job-execution daemon over the hybrid gate-pulse
//! engine.
//!
//! The workloads this workspace reproduces are *shape-repetitive*:
//! thousands of QAOA evaluations that differ only in bound parameters.
//! Hand-driving [`hgp_core::executor::Executor`] re-transpiles and
//! re-allocates per call; this crate is the serving layer that
//! amortizes all of that:
//!
//! - [`job`]: JSON-serializable [`JobRequest`] /
//!   [`JobResult`] types covering statevector, density-matrix,
//!   sampled-counts, and expectation-value workloads, plus the
//!   stochastic-trajectory pair [`JobSpec::TrajectoryCounts`] /
//!   [`JobSpec::TrajectoryExpectation`] — noisy results at `O(2^n)`
//!   statevector cost per shot, the only serve path that reaches
//!   12-20+ qubit noisy workloads,
//! - [`cache`]: a structural-hash LRU [`ProgramCache`] of compiled
//!   programs — transpilation happens once per circuit *shape*
//!   ([`hgp_circuit::Circuit::structural_key`]), parameter binding at
//!   dispatch ([`hgp_core::compile`]),
//! - [`daemon`]: the one scheduler, the long-lived [`Daemon`] — a
//!   persistent worker pool behind a bounded, priority-classed
//!   submission queue with streaming [`ResultStream`] delivery,
//!   admission control and backpressure ([`Rejected`]), and a graceful
//!   draining shutdown,
//! - [`worker`]: the shared worker core (validate, compile, bind,
//!   execute) with per-job deterministic seed derivation
//!   ([`hgp_sim::seed`]), plus [`run_sequential`], the one-thread
//!   reference the daemon is pinned bit-identical against,
//! - [`metrics`]: throughput/latency/cache accounting
//!   ([`ServeMetrics`]) — uptime, per-stage latencies, the queue gauge
//!   and per-priority admission counters,
//! - [`json`]: the canonical wire format ([`json::JsonCodec`]), the
//!   workspace's one serialization codec,
//! - [`wire`]: the TCP front end — line-delimited JSON
//!   [`WireRequest`] / [`WireResponse`] envelopes over a socket,
//!   served by [`WireServer`] and spoken by [`WireClient`].
//!
//! # Example
//!
//! ```
//! use hgp_core::qaoa::qaoa_circuit;
//! use hgp_device::Backend;
//! use hgp_graph::instances;
//! use hgp_serve::{Daemon, DaemonConfig, JobRequest, JobSpec};
//!
//! let graph = instances::task1_three_regular_6();
//! let circuit = qaoa_circuit(&graph, 1); // parametrized: one shape
//! let config = DaemonConfig::new(vec![0, 1, 2, 3, 4, 5]).with_workers(1);
//! let daemon = Daemon::start(Backend::ibmq_guadalupe(), config);
//! let jobs = (0..4)
//!     .map(|i| {
//!         let gamma = 0.1 * (i + 1) as f64;
//!         JobRequest::new(circuit.clone(), vec![gamma, 0.25], JobSpec::Counts { shots: 256 })
//!     })
//!     .collect();
//! let results = daemon.run_batch(jobs).expect("admitted");
//! assert_eq!(results.len(), 4);
//! // One shape => one compilation; every later job hits the cache.
//! assert_eq!(daemon.metrics().cache_misses, 1);
//! assert_eq!(daemon.metrics().cache_hits, 3);
//! let again = daemon
//!     .run_batch(vec![JobRequest::new(circuit, vec![0.3, 0.25], JobSpec::StateVector)])
//!     .expect("admitted");
//! assert!(again[0].cache_hit);
//! ```

pub mod cache;
pub mod daemon;
pub mod job;
pub mod json;
pub mod metrics;
pub mod wire;
pub mod worker;

pub use cache::{CompiledArtifact, ProgramCache};
pub use daemon::{Daemon, DaemonConfig, ResultStream};
pub use hgp_obs::{FlightRecorder, Histogram, JobTrace, OpProfileSnapshot, Span, SpanKind};
pub use job::{
    JobError, JobId, JobOutput, JobProgram, JobRequest, JobResult, JobSpec, JobStage, Priority,
    Rejected,
};
pub use metrics::ServeMetrics;
pub use wire::{WireClient, WireRequest, WireResponse, WireServer};
pub use worker::{run_sequential, ServeConfig};
