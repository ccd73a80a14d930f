//! The observability stack end to end: histograms, traces, and engine
//! profiling, probed over a real socket.
//!
//! Two halves, both asserted:
//!
//! 1. **The wire tour.** A daemon starts with tracing and profiling
//!    enabled, serves a mixed-priority QAOA burst through the TCP front
//!    end, and the client reads everything back over the same socket:
//!    `metrics_snapshot` (per-stage latency histograms, per-priority and
//!    per-job-kind breakdowns, the engine's per-op-kind profile) and
//!    `trace_tail` (the flight recorder's per-job span chains). Every
//!    completed job must show the full Enqueued → … → Delivered chain,
//!    and the Prometheus text rendering must carry the same numbers.
//!
//! 2. **Profile accounting.** A 12-qubit noisy QAOA replay tape is
//!    driven through the production batched engine — one
//!    [`ReplayBatch::run_profiled`] per block of the engine's own
//!    partition ([`ReplayEngine::shot_blocks`]) — in one thread with an
//!    [`OpProfile`] attached, wall-timing the whole loop. The
//!    per-op-kind nanosecond totals must sum to within 10% of the
//!    measured wall time — the profile *accounts for* the execution
//!    rather than sampling it. (Sequential on purpose: the parallel
//!    engines sum per-op time across workers, which legitimately exceeds
//!    wall clock.)
//!
//! ```text
//! cargo run --release --example observability            # narrated tour
//! cargo run --release --example observability -- --smoke # CI gate
//! ```

use std::sync::Arc;
use std::time::Instant;

use hybrid_gate_pulse::core::compile::CircuitCompiler;
use hybrid_gate_pulse::core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::{generators, instances};
use hybrid_gate_pulse::serve::{
    Daemon, DaemonConfig, JobRequest, JobSpec, Priority, SpanKind, WireClient, WireServer,
};
use hybrid_gate_pulse::sim::{OpProfile, ReplayBatch, ReplayEngine, ReplayOpKind};

const LAYOUT6: [usize; 6] = [0, 1, 2, 3, 4, 5];
const BASE_SEED: u64 = 42;

/// The daemon with tracing + profiling on, a burst over the socket, and
/// the telemetry read back over the same socket.
fn wire_tour(backend: &Backend, verbose: bool) {
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1);
    let observable = cost_hamiltonian(&graph);
    let daemon = Arc::new(Daemon::start(
        backend.clone(),
        DaemonConfig::new(LAYOUT6.to_vec())
            .with_base_seed(BASE_SEED)
            .with_trace_capacity(64)
            .with_profiling(true),
    ));
    let mut server = WireServer::start(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    if verbose {
        println!(
            "daemon: {} workers, tracing 64 jobs, profiling on | wire: {}",
            daemon.config().service.workers,
            server.local_addr()
        );
    }

    // Three priority-classed groups, three distinct job kinds.
    let groups: Vec<(Vec<JobRequest>, Priority)> = vec![
        (
            (0..3)
                .map(|i| {
                    JobRequest::new(
                        circuit.clone(),
                        vec![0.15 + 0.1 * i as f64, 0.25],
                        JobSpec::Expectation {
                            observable: observable.clone(),
                        },
                    )
                })
                .collect(),
            Priority::Interactive,
        ),
        (
            (0..4)
                .map(|i| {
                    JobRequest::new(
                        circuit.clone(),
                        vec![0.1 * (i + 1) as f64, 0.3],
                        JobSpec::Counts { shots: 128 },
                    )
                })
                .collect(),
            Priority::Batch,
        ),
        (
            (0..3)
                .map(|i| {
                    JobRequest::new(
                        circuit.clone(),
                        vec![0.2 + 0.05 * i as f64, 0.4],
                        JobSpec::TrajectoryExpectation {
                            observable: observable.clone(),
                            trajectories: 64,
                        },
                    )
                })
                .collect(),
            Priority::Background,
        ),
    ];
    let per_priority = [3u64, 4, 3];
    let mut expected = 0usize;
    for (group, priority) in groups {
        expected += group.len();
        client
            .submit_group(group, priority)
            .expect("transport")
            .expect("admitted");
    }
    let results = client.collect_results(expected).expect("streamed results");
    assert!(results.iter().all(|r| r.output.is_ok()));

    // The metrics snapshot: stage histograms populated once per job
    // (queue/bind/exec), once per validation (validate), once per
    // compile miss; the priority and kind breakdowns carve exec time.
    let (metrics, profile) = client.metrics_snapshot().expect("snapshot");
    let n = expected as u64;
    assert_eq!(metrics.queue_hist.count(), n);
    assert_eq!(metrics.validate_hist.count(), n);
    assert_eq!(metrics.bind_hist.count(), n);
    assert_eq!(metrics.exec_hist.count(), n);
    assert!(metrics.compile_hist.count() >= 1, "one shape compiled");
    for (i, hist) in metrics.priority_hist.iter().enumerate() {
        assert_eq!(hist.count(), per_priority[i], "priority class {i}");
    }
    let kinds_seen = metrics.kind_hist.iter().filter(|h| !h.is_empty()).count();
    assert_eq!(kinds_seen, 3, "expectation, counts, trajectory kinds");
    assert!(profile.total_calls() > 0, "profiling was enabled");
    assert!(
        profile.calls[ReplayOpKind::DiagRun.index()] > 0,
        "QAOA cost layers are diagonal runs"
    );
    if verbose {
        println!(
            "exec latency: p50 <= {} ns, p99 <= {} ns over {} jobs",
            metrics.exec_hist.p50(),
            metrics.exec_hist.p99(),
            metrics.exec_hist.count()
        );
        for kind in ReplayOpKind::ALL {
            let i = kind.index();
            if profile.calls[i] > 0 {
                println!(
                    "profile: {:>15}  {:>8} calls  {:>12} ns",
                    kind.name(),
                    profile.calls[i],
                    profile.ns[i]
                );
            }
        }
    }

    // The flight recorder: one trace per job, every chain complete —
    // the results are already in hand, so the traces must be too.
    let traces = client.trace_tail(64).expect("trace tail");
    assert_eq!(traces.len(), expected);
    for t in &traces {
        assert!(t.ok, "job {} traced as failed", t.job);
        assert!(t.is_complete_chain(), "job {} chain incomplete", t.job);
        assert!(t.at(SpanKind::Delivered).is_some());
    }
    if verbose {
        let t = &traces[0];
        let stages: Vec<String> = t
            .spans
            .iter()
            .map(|s| format!("{} @ {} ns", s.kind.name(), s.at_ns))
            .collect();
        println!("trace of job {}: {}", t.job, stages.join(" -> "));
    }

    // The Prometheus rendering carries both the histograms and the
    // engine profile.
    let text = metrics.render_promtext(Some(&profile));
    assert!(text.contains("hgp_stage_ns_count{stage=\"exec\"}"));
    assert!(text.contains("hgp_replay_op_calls"));
    if verbose {
        let lines = text.lines().count();
        println!("promtext: {lines} lines rendered");
    }

    server.shutdown();
    daemon.shutdown();
}

/// The profile-accounting gate: per-op-kind time on a sequential
/// 12-qubit batched replay loop sums to the loop's wall time within 10%.
fn profile_accounting(backend: &Backend, verbose: bool) {
    let graph = generators::random_regular(12, 3, 7);
    let circuit = qaoa_circuit(&graph, 1);
    let layout = vec![0, 1, 2, 3, 5, 8, 11, 14, 13, 12, 10, 7];
    let compiled = CircuitCompiler::new(backend, layout)
        .compile(&circuit)
        .expect("12q region routes");
    let exec = compiled.executor(backend);
    let replay = compiled.bind_replay(&exec, &[0.35, 0.22]);

    let shots = 96;
    let engine = ReplayEngine::new(shots, 0xC0FFEE);
    let block = engine.block_size_for(&replay);
    // The engine's own partition and seeding, run one block after
    // another: this loop IS the batched engine's work with the worker
    // fan-out taken out. Arenas are built before the clock starts, as
    // the engine's per-worker arenas are reused.
    let mut blocks: Vec<(Vec<u64>, ReplayBatch)> = engine
        .shot_blocks(&replay)
        .map(|b| {
            let batch = ReplayBatch::for_program(&replay, b.len());
            (engine.block_seeds(b), batch)
        })
        .collect();
    let profile = OpProfile::new();
    let start = Instant::now();
    for (seeds, batch) in &mut blocks {
        batch.run_profiled(&replay, seeds, &profile);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let snap = profile.snapshot();
    let covered = snap.total_ns() as f64 / wall_ns as f64;
    assert!(
        (0.90..=1.10).contains(&covered),
        "profiled op time must account for the sequential wall time: \
         {} ns profiled vs {} ns wall ({:.1}% covered)",
        snap.total_ns(),
        wall_ns,
        covered * 100.0
    );
    if verbose {
        println!(
            "accounting: {shots} shots in {}-shot blocks x {} ops on 12 qubits; \
             profiled {} ns / wall {} ns = {:.1}%",
            block,
            replay.n_ops(),
            snap.total_ns(),
            wall_ns,
            covered * 100.0
        );
        for kind in ReplayOpKind::ALL {
            let i = kind.index();
            if snap.calls[i] > 0 {
                println!(
                    "  {:>15}  {:>8} calls  {:>5.1}% of wall",
                    kind.name(),
                    snap.calls[i],
                    snap.ns[i] as f64 * 100.0 / wall_ns as f64
                );
            }
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let verbose = !smoke;
    let backend = Backend::ibmq_guadalupe();
    wire_tour(&backend, verbose);
    profile_accounting(&backend, verbose);
    println!(
        "{}",
        if smoke {
            "smoke: wire telemetry complete (histograms, traces, profile); \
             sequential batched profile accounts for wall time within 10%"
        } else {
            "observability tour complete"
        }
    );
}
