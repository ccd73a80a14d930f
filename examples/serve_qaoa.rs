//! The serving layer end to end: a QAOA parameter sweep as a job batch.
//!
//! One parametrized circuit shape, many parameter points — the
//! shape-repetitive workload `hgp_serve` exists for. The daemon
//! compiles the shape once (structural-hash cache), fans the bindings
//! out over its worker pool with position-derived seeds, and the
//! example cross-checks a served job bit-for-bit against a hand-driven
//! sequential `Executor` run.
//!
//! ```text
//! cargo run --release --example serve_qaoa
//! ```

use hybrid_gate_pulse::core::compile::CircuitCompiler;
use hybrid_gate_pulse::core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::instances;
use hybrid_gate_pulse::serve::json::JsonCodec;
use hybrid_gate_pulse::serve::{Daemon, DaemonConfig, JobOutput, JobRequest, JobSpec};
use hybrid_gate_pulse::sim::seed::stream_seed;

fn main() {
    let backend = Backend::ibmq_toronto();
    let graph = instances::task1_three_regular_6();
    let circuit = qaoa_circuit(&graph, 1); // parametrized: ONE shape
    let observable = cost_hamiltonian(&graph);
    // The paper's fixed heavy-hex region on the 27q Falcon layout.
    let layout = vec![1, 2, 3, 4, 5, 7];
    let shots = 1024;

    let daemon = Daemon::start(backend.clone(), DaemonConfig::new(layout.clone()));
    let config = daemon.config().service.clone();
    println!(
        "daemon: {} workers, cache capacity {}, base seed {}",
        config.workers, config.cache_capacity, config.base_seed
    );

    // A 6x6 (gamma, beta) grid: 36 sampled-counts jobs plus 36
    // expectation jobs, all sharing one compiled program.
    let grid: Vec<Vec<f64>> = (0..6)
        .flat_map(|i| (0..6).map(move |j| vec![0.15 + 0.15 * i as f64, 0.08 + 0.07 * j as f64]))
        .collect();
    // Batch 1 (sampled counts) compiles the shape; batch 2 (noisy
    // expectations) must ride the cache — zero new compilations.
    let counts_jobs: Vec<JobRequest> = grid
        .iter()
        .map(|x| JobRequest::new(circuit.clone(), x.clone(), JobSpec::Counts { shots }))
        .collect();
    let expectation_jobs: Vec<JobRequest> = grid
        .iter()
        .map(|x| {
            JobRequest::new(
                circuit.clone(),
                x.clone(),
                JobSpec::Expectation {
                    observable: observable.clone(),
                },
            )
        })
        .collect();
    let mut results = daemon.run_batch(counts_jobs).expect("admitted");
    let expectations = daemon.run_batch(expectation_jobs).expect("admitted");
    let hits = expectations.iter().filter(|r| r.cache_hit).count();
    results.extend(expectations);

    // Cache accounting: 72 jobs, one shape. Workers compile on a miss
    // outside the cache lock, so the first pops of batch 1 may each
    // compile it — never more than once per worker.
    let metrics = daemon.metrics();
    println!("metrics: {metrics}");
    assert!(metrics.cache_misses as usize <= config.workers, "one shape");
    assert_eq!(hits, grid.len(), "batch 2 must be all cache hits");
    println!(
        "cache: batch 1 compiled the shape ({} miss(es)); all {hits} batch-2 jobs hit the cache",
        metrics.cache_misses
    );

    // Best grid point by noisy expected cut.
    let c_max: f64 = (0..1 << 6)
        .map(|b| observable.eval_diagonal(b))
        .fold(f64::MIN, f64::max);
    let (best_point, best_value) = results[grid.len()..]
        .iter()
        .zip(&grid)
        .map(|(r, x)| match r.unwrap_output() {
            JobOutput::Expectation { value } => (x, *value),
            other => panic!("expected expectation, got {other:?}"),
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty grid");
    println!(
        "best grid point (gamma, beta) = ({:.2}, {:.2}): noisy AR {:.3}",
        best_point[0],
        best_point[1],
        best_value / c_max
    );

    // Bit-identity spot check: replay job 0 by hand, sequentially.
    let compiled = CircuitCompiler::new(&backend, layout)
        .compile(&circuit)
        .expect("fits region");
    let exec = compiled.executor(&backend);
    let program = compiled.bind(&grid[0]);
    let seed = stream_seed(config.base_seed, results[0].id.0);
    let by_hand = compiled.decode_counts(&exec.sample(&program, shots, seed));
    match results[0].unwrap_output() {
        JobOutput::Counts(counts) => {
            assert_eq!(counts, &by_hand, "served != sequential");
            println!(
                "bit-identity: served job {} == sequential Executor replay ({} shots)",
                results[0].id,
                counts.total()
            );
        }
        other => panic!("expected counts, got {other:?}"),
    }

    // The wire format, one job end to end.
    let json = results[0].to_json_string();
    println!(
        "result[0] serializes to {} bytes of JSON (and parses back: {})",
        json.len(),
        hybrid_gate_pulse::serve::JobResult::from_json_str(&json).is_ok()
    );
}
