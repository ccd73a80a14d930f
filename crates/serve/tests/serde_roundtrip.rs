//! Round-trip property tests of the JSON wire format: every public
//! `hgp_serve` job/result type (and the simulator types they embed)
//! must survive `to_json_string` -> `from_json_str` exactly — bound
//! f64 values bit for bit, u64 seeds above 2^53 included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hgp_circuit::{Circuit, Gate, Param, ParamId};
use hgp_core::compile::HybridShape;
use hgp_core::models::GateModelOptions;
use hgp_graph::Graph;
use hgp_math::pauli::{Pauli, PauliString, PauliSum};
use hgp_serve::json::JsonCodec;
use hgp_serve::{
    Histogram, JobError, JobId, JobOutput, JobRequest, JobResult, JobSpec, JobStage, JobTrace,
    OpProfileSnapshot, Priority, Rejected, ServeMetrics, Span, SpanKind, WireRequest, WireResponse,
};
use hgp_sim::Counts;

/// A random (possibly parametrized) circuit drawn from the full gate
/// set, including barriers and measurements.
fn random_circuit(rng: &mut StdRng) -> Circuit {
    let n = rng.gen_range(1usize..5);
    let n_params = rng.gen_range(0usize..4);
    let mut qc = Circuit::new(n);
    qc.add_params(n_params);
    let angle = |rng: &mut StdRng| -> Param {
        if n_params > 0 && rng.gen_bool(0.5) {
            Param::free(ParamId(rng.gen_range(0..n_params)))
                .scaled(rng.gen_range(-3.0..3.0))
                .shifted(rng.gen_range(-1.0..1.0))
        } else {
            Param::bound(rng.gen_range(-7.0..7.0))
        }
    };
    for _ in 0..rng.gen_range(0usize..12) {
        let choice = rng.gen_range(0usize..19);
        let gate = match choice {
            0 => Gate::I,
            1 => Gate::X,
            2 => Gate::Y,
            3 => Gate::Z,
            4 => Gate::H,
            5 => Gate::S,
            6 => Gate::Sdg,
            7 => Gate::T,
            8 => Gate::Tdg,
            9 => Gate::SX,
            10 => Gate::Rx(angle(rng)),
            11 => Gate::Ry(angle(rng)),
            12 => Gate::Rz(angle(rng)),
            13 => Gate::U3(angle(rng), angle(rng), angle(rng)),
            14 if n >= 2 => Gate::CX,
            15 if n >= 2 => Gate::Rzz(angle(rng)),
            16 if n >= 2 => Gate::Rzx(angle(rng)),
            17 if n >= 2 => Gate::CZ,
            18 if n >= 2 => Gate::Swap,
            _ => Gate::H,
        };
        if gate.n_qubits() == 1 {
            let q = rng.gen_range(0..n);
            qc.push(gate, &[q]);
        } else {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            qc.push(gate, &[a, b]);
        }
    }
    if rng.gen_bool(0.3) {
        qc.barrier();
    }
    if rng.gen_bool(0.3) {
        qc.measure_all();
    }
    qc
}

fn random_counts(rng: &mut StdRng) -> Counts {
    let n = rng.gen_range(1usize..6);
    let mut counts = Counts::new(n);
    for _ in 0..rng.gen_range(0usize..10) {
        counts.record(rng.gen_range(0..1 << n), rng.gen_range(1u64..1 << 40));
    }
    counts
}

fn random_observable(rng: &mut StdRng, n: usize) -> PauliSum {
    let n_terms = rng.gen_range(1usize..4);
    let terms = (0..n_terms)
        .map(|_| {
            let mut qubits: Vec<usize> = (0..n).collect();
            let k = rng.gen_range(0usize..=n.min(3));
            let mut factors = Vec::new();
            for _ in 0..k {
                let q = qubits.remove(rng.gen_range(0..qubits.len()));
                let p = match rng.gen_range(0u32..3) {
                    0 => Pauli::X,
                    1 => Pauli::Y,
                    _ => Pauli::Z,
                };
                factors.push((q, p));
            }
            PauliString::new(n, factors, rng.gen_range(-5.0..5.0))
        })
        .collect();
    PauliSum::from_terms(terms)
}

fn random_spec(rng: &mut StdRng, n: usize) -> JobSpec {
    match rng.gen_range(0u32..6) {
        0 => JobSpec::StateVector,
        1 => JobSpec::DensityMatrix,
        2 => JobSpec::Counts {
            shots: rng.gen_range(1usize..100_000),
        },
        3 => JobSpec::TrajectoryCounts {
            shots: rng.gen_range(1usize..100_000),
        },
        4 => JobSpec::TrajectoryExpectation {
            observable: random_observable(rng, n),
            trajectories: rng.gen_range(1usize..10_000),
        },
        _ => JobSpec::Expectation {
            observable: random_observable(rng, n),
        },
    }
}

fn random_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(2usize..7);
    let mut graph = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(0.5) {
                graph.add_edge(u, v, rng.gen_range(-2.0..2.0));
            }
        }
    }
    graph
}

fn random_hybrid_shape(rng: &mut StdRng) -> HybridShape {
    let graph = random_graph(rng);
    let options = GateModelOptions {
        cancellation: rng.gen_bool(0.5),
        sabre_iterations: rng.gen_range(0usize..4),
    };
    HybridShape::new(graph, rng.gen_range(1usize..4))
        .with_mixer_duration(32 * rng.gen_range(1u32..12))
        .with_options(options)
}

fn random_hybrid_spec(rng: &mut StdRng, n: usize) -> JobSpec {
    match rng.gen_range(0u32..4) {
        0 => JobSpec::HybridCounts {
            shots: rng.gen_range(1usize..100_000),
        },
        1 => JobSpec::HybridTrajectoryCounts {
            shots: rng.gen_range(1usize..100_000),
        },
        2 => JobSpec::HybridTrajectoryExpectation {
            observable: random_observable(rng, n),
            trajectories: rng.gen_range(1usize..10_000),
        },
        _ => JobSpec::HybridExpectation {
            observable: random_observable(rng, n),
        },
    }
}

fn random_request(rng: &mut StdRng) -> JobRequest {
    let mut request = if rng.gen_bool(0.5) {
        let circuit = random_circuit(rng);
        let n = circuit.n_qubits();
        let params: Vec<f64> = (0..circuit.n_params())
            .map(|_| rng.gen_range(-7.0..7.0))
            .collect();
        JobRequest::new(circuit, params, random_spec(rng, n))
    } else {
        let shape = random_hybrid_shape(rng);
        let n = shape.n_qubits();
        let params: Vec<f64> = (0..shape.n_params())
            .map(|_| rng.gen_range(-7.0..7.0))
            .collect();
        JobRequest::hybrid(shape, params, random_hybrid_spec(rng, n))
    };
    if rng.gen_bool(0.5) {
        // Full u64 range: seeds above 2^53 must survive (they would not
        // through an f64 number path).
        request = request.with_seed(rng.gen());
    }
    request
}

fn random_outcome(rng: &mut StdRng) -> Result<JobOutput, JobError> {
    if rng.gen_bool(0.25) {
        let stage = match rng.gen_range(0u32..3) {
            0 => JobStage::Validate,
            1 => JobStage::Compile,
            _ => JobStage::Execute,
        };
        Err(JobError {
            stage,
            message: format!(
                "failure #{} with \"quotes\" and \n newlines",
                rng.gen::<u32>()
            ),
        })
    } else {
        Ok(random_output(rng))
    }
}

fn random_output(rng: &mut StdRng) -> JobOutput {
    let n = rng.gen_range(1usize..4);
    match rng.gen_range(0u32..6) {
        0 => JobOutput::StateVector {
            probabilities: (0..1 << n).map(|_| rng.gen_range(0.0..1.0)).collect(),
        },
        1 => JobOutput::DensityMatrix {
            probabilities: (0..1 << n).map(|_| rng.gen_range(0.0..1.0)).collect(),
            purity: rng.gen_range(0.0..1.0),
        },
        2 => JobOutput::Counts(random_counts(rng)),
        3 => JobOutput::TrajectoryCounts(random_counts(rng)),
        4 => JobOutput::TrajectoryExpectation {
            value: rng.gen_range(-100.0..100.0),
            std_error: rng.gen_range(0.0..1.0),
            trajectories: rng.gen_range(1usize..10_000),
        },
        _ => JobOutput::Expectation {
            value: rng.gen_range(-100.0..100.0),
        },
    }
}

fn random_result(rng: &mut StdRng) -> JobResult {
    JobResult {
        id: JobId(rng.gen()),
        seed: rng.gen(),
        cache_hit: rng.gen_bool(0.5),
        elapsed_ns: rng.gen(),
        output: random_outcome(rng),
    }
}

fn random_priority(rng: &mut StdRng) -> Priority {
    Priority::ALL[rng.gen_range(0usize..3)]
}

fn random_rejected(rng: &mut StdRng) -> Rejected {
    match rng.gen_range(0u32..3) {
        0 => Rejected::QueueFull {
            depth: rng.gen_range(0usize..1 << 20),
            limit: rng.gen_range(1usize..1 << 20),
        },
        1 => Rejected::TooLarge {
            // Full u64 range: counters must not round through f64.
            shots: rng.gen(),
            limit: rng.gen(),
        },
        _ => Rejected::ShuttingDown,
    }
}

/// Samples spanning every magnitude, so bucketing covers the first and
/// last buckets as well as the interior.
fn random_histogram(rng: &mut StdRng) -> Histogram {
    let mut hist = Histogram::new();
    for _ in 0..rng.gen_range(0usize..24) {
        let shift = rng.gen_range(0u32..64);
        hist.record(rng.gen::<u64>() >> shift);
    }
    hist
}

fn random_profile(rng: &mut StdRng) -> OpProfileSnapshot {
    let mut snap = OpProfileSnapshot::default();
    for i in 0..snap.calls.len() {
        snap.calls[i] = rng.gen();
        snap.ns[i] = rng.gen();
    }
    snap
}

/// A trace with a non-decreasing span prefix of the full lifecycle —
/// matching what the daemon records for completed and
/// validation-rejected jobs alike.
fn random_trace(rng: &mut StdRng) -> JobTrace {
    let mut at = rng.gen_range(0u64..1 << 40);
    let n_spans = rng.gen_range(1usize..=SpanKind::COUNT);
    let spans = SpanKind::ALL
        .iter()
        .take(n_spans)
        .map(|&kind| {
            at += rng.gen_range(0u64..1 << 30);
            Span { kind, at_ns: at }
        })
        .collect();
    JobTrace {
        job: rng.gen(),
        job_kind: rng.gen_range(0u32..10),
        priority: rng.gen_range(0u32..3),
        shots: rng.gen(),
        cache_hit: rng.gen_bool(0.5),
        ok: rng.gen_bool(0.5),
        spans,
    }
}

fn random_metrics(rng: &mut StdRng) -> ServeMetrics {
    ServeMetrics {
        jobs_completed: rng.gen(),
        jobs_failed: rng.gen(),
        batches: rng.gen(),
        cache_hits: rng.gen(),
        cache_misses: rng.gen(),
        validate_ns: rng.gen(),
        compile_ns: rng.gen(),
        bind_ns: rng.gen(),
        exec_ns: rng.gen(),
        wall_ns: rng.gen(),
        queue_depth: rng.gen(),
        queue_ns: rng.gen(),
        admitted: [rng.gen(), rng.gen(), rng.gen()],
        rejected_full: [rng.gen(), rng.gen(), rng.gen()],
        rejected_large: [rng.gen(), rng.gen(), rng.gen()],
        shots_executed: rng.gen(),
        queue_hist: random_histogram(rng),
        validate_hist: random_histogram(rng),
        compile_hist: random_histogram(rng),
        bind_hist: random_histogram(rng),
        exec_hist: random_histogram(rng),
        priority_hist: std::array::from_fn(|_| random_histogram(rng)),
        kind_hist: std::array::from_fn(|_| random_histogram(rng)),
    }
}

fn random_wire_request(rng: &mut StdRng) -> WireRequest {
    match rng.gen_range(0u32..6) {
        0 => WireRequest::Submit {
            request: random_request(rng),
            priority: random_priority(rng),
        },
        1 => WireRequest::SubmitGroup {
            requests: (0..rng.gen_range(1usize..4))
                .map(|_| random_request(rng))
                .collect(),
            priority: random_priority(rng),
        },
        2 => WireRequest::Metrics,
        3 => WireRequest::MetricsSnapshot,
        4 => WireRequest::TraceTail {
            limit: rng.gen_range(0usize..1 << 20),
        },
        _ => WireRequest::Ping,
    }
}

fn random_wire_response(rng: &mut StdRng) -> WireResponse {
    match rng.gen_range(0u32..8) {
        0 => WireResponse::Accepted {
            ids: (0..rng.gen_range(0usize..5))
                .map(|_| JobId(rng.gen()))
                .collect(),
        },
        1 => WireResponse::Rejected {
            rejected: random_rejected(rng),
        },
        2 => WireResponse::Result {
            result: random_result(rng),
        },
        3 => WireResponse::Metrics {
            metrics: random_metrics(rng),
        },
        4 => WireResponse::MetricsSnapshot {
            metrics: random_metrics(rng),
            profile: random_profile(rng),
        },
        5 => WireResponse::TraceTail {
            traces: (0..rng.gen_range(0usize..4))
                .map(|_| random_trace(rng))
                .collect(),
        },
        6 => WireResponse::Pong,
        _ => WireResponse::Error {
            message: format!("wire failure #{} with \"quotes\"", rng.gen::<u32>()),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn counts_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = random_counts(&mut rng);
        prop_assert_eq!(Counts::from_json_str(&counts.to_json_string()).unwrap(), counts);
    }

    #[test]
    fn circuit_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_circuit(&mut rng);
        let back = Circuit::from_json_str(&circuit.to_json_string()).unwrap();
        // Equality is structural: same instructions, params, width —
        // and therefore the same structural key / cache identity.
        prop_assert_eq!(back.structural_key(), circuit.structural_key());
        prop_assert_eq!(back, circuit);
    }

    #[test]
    fn job_request_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = random_request(&mut rng);
        prop_assert_eq!(JobRequest::from_json_str(&request.to_json_string()).unwrap(), request);
    }

    #[test]
    fn job_result_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = JobResult {
            id: JobId(rng.gen()),
            seed: rng.gen(),
            cache_hit: rng.gen_bool(0.5),
            elapsed_ns: rng.gen(),
            output: random_outcome(&mut rng),
        };
        prop_assert_eq!(JobResult::from_json_str(&result.to_json_string()).unwrap(), result);
    }

    #[test]
    fn hybrid_shape_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = random_hybrid_shape(&mut rng);
        let back = HybridShape::from_json_str(&shape.to_json_string()).unwrap();
        // Structural equality implies cache-key equality: the wire
        // format preserves the serve layer's shape identity.
        prop_assert_eq!(back.structural_key(), shape.structural_key());
        prop_assert_eq!(back, shape);
    }

    #[test]
    fn observable_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(1usize..6);
        let obs = random_observable(&mut rng, width);
        prop_assert_eq!(PauliSum::from_json_str(&obs.to_json_string()).unwrap(), obs);
    }

    #[test]
    fn wire_request_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let envelope = random_wire_request(&mut rng);
        prop_assert_eq!(
            WireRequest::from_json_str(&envelope.to_json_string()).unwrap(),
            envelope
        );
    }

    #[test]
    fn wire_response_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let envelope = random_wire_response(&mut rng);
        prop_assert_eq!(
            WireResponse::from_json_str(&envelope.to_json_string()).unwrap(),
            envelope
        );
    }

    #[test]
    fn metrics_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let metrics = random_metrics(&mut rng);
        prop_assert_eq!(
            ServeMetrics::from_json_str(&metrics.to_json_string()).unwrap(),
            metrics
        );
    }

    #[test]
    fn histogram_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hist = random_histogram(&mut rng);
        prop_assert_eq!(Histogram::from_json_str(&hist.to_json_string()).unwrap(), hist);
    }

    #[test]
    fn job_trace_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_trace(&mut rng);
        prop_assert_eq!(JobTrace::from_json_str(&trace.to_json_string()).unwrap(), trace);
    }

    #[test]
    fn histogram_merge_is_exact_and_associative(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_histogram(&mut rng);
        let b = random_histogram(&mut rng);
        let c = random_histogram(&mut rng);
        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // Commutativity, and merge preserves count exactly.
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), a.count() + b.count());
    }

    #[test]
    fn histogram_quantiles_are_monotone(seed in 0u64..u64::MAX, q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hist = random_histogram(&mut rng);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(hist.quantile(lo) <= hist.quantile(hi));
        prop_assert!(hist.p50() <= hist.p99());
        prop_assert!(hist.p99() <= hist.p999());
    }

    #[test]
    fn histogram_buckets_cover_every_value(value in 0u64..u64::MAX) {
        // Every u64 lands in exactly one bucket, whose inclusive upper
        // bound is >= the value (and the previous bucket's is below it).
        let index = Histogram::bucket_index(value);
        prop_assert!(Histogram::bucket_bound(index) >= value);
        if index > 0 {
            prop_assert!(Histogram::bucket_bound(index - 1) < value);
        }
        let mut hist = Histogram::new();
        hist.record(value);
        prop_assert_eq!(hist.counts()[index], 1);
        prop_assert_eq!(hist.quantile(1.0), Histogram::bucket_bound(index));
    }
}
