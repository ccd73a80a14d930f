//! Noisy QAOA at statevector scale: trajectory jobs through the daemon.
//!
//! A 12-qubit noisy QAOA sweep is far beyond the `O(4^n)` density
//! matrix's practical reach as a *sweep* workload — but each trajectory
//! job runs N stochastic `O(2^n)` statevector trajectories instead, so
//! the whole sweep serves in seconds. The example drives the full
//! stack:
//!
//! - one parametrized 12-qubit circuit shape, compiled once (the
//!   compiled artifact caches its [`NoiseModel`] alongside the routed
//!   circuit),
//! - a `TrajectoryExpectation` parameter sweep batched over the worker
//!   pool, plus a `TrajectoryCounts` job for shot-level output,
//! - cache-hit verification across batches, and a bit-for-bit replay of
//!   a served job from its recorded seed — the determinism contract.
//!
//! ```text
//! cargo run --release --example noisy_qaoa_trajectories
//! ```

use hybrid_gate_pulse::core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hybrid_gate_pulse::device::Backend;
use hybrid_gate_pulse::graph::generators;
use hybrid_gate_pulse::serve::{Daemon, DaemonConfig, JobOutput, JobRequest, JobResult, JobSpec};

/// Serves one job (a group of one) and waits for its result.
fn run_one(daemon: &Daemon, request: JobRequest) -> JobResult {
    daemon.run_batch(vec![request]).expect("admitted").remove(0)
}

fn main() {
    let backend = Backend::ibmq_guadalupe();
    // A 12-node 3-regular Max-Cut instance: the compiled region is a
    // 12-qubit path in the heavy-hex map, so SABRE + routing have real
    // work to do — and do it once.
    let graph = generators::random_regular(12, 3, 7);
    let circuit = qaoa_circuit(&graph, 1); // parametrized: ONE shape
    let observable = cost_hamiltonian(&graph);
    let layout = vec![0, 1, 2, 3, 5, 8, 11, 14, 13, 12, 10, 7];
    let trajectories = 256;

    let daemon = Daemon::start(backend, DaemonConfig::new(layout));
    let workers = daemon.config().service.workers;
    println!(
        "daemon: {} workers, {} qubits, {} trajectories/job",
        workers,
        circuit.n_qubits(),
        trajectories
    );

    // Batch 1: a (gamma, beta) grid of noisy expectation estimates.
    let grid: Vec<Vec<f64>> = (0..4)
        .flat_map(|i| (0..4).map(move |j| vec![0.12 + 0.12 * i as f64, 0.10 + 0.08 * j as f64]))
        .collect();
    let jobs: Vec<JobRequest> = grid
        .iter()
        .map(|x| {
            JobRequest::new(
                circuit.clone(),
                x.clone(),
                JobSpec::TrajectoryExpectation {
                    observable: observable.clone(),
                    trajectories,
                },
            )
        })
        .collect();
    let results = daemon.run_batch(jobs).expect("admitted");

    println!("\n gamma   beta    <H_C> (trajectory)   std err   cache");
    let mut best = (0usize, f64::INFINITY);
    for (i, (x, r)) in grid.iter().zip(&results).enumerate() {
        let JobOutput::TrajectoryExpectation {
            value, std_error, ..
        } = r.unwrap_output()
        else {
            panic!("expected a trajectory expectation");
        };
        if *value < best.1 {
            best = (i, *value);
        }
        println!(
            " {:.3}  {:.3}   {value:>10.4}        {std_error:.4}    {}",
            x[0],
            x[1],
            if r.cache_hit { "hit" } else { "miss" }
        );
    }
    // One shape: workers compile on a miss outside the cache lock, so
    // the first pops may each compile it — never more than once per
    // worker; every later job rides the cache.
    let misses = daemon.metrics().cache_misses;
    assert!(misses as usize <= workers, "one shape");
    assert_eq!(
        results.iter().filter(|r| !r.cache_hit).count() as u64,
        misses
    );
    println!("\ncompilations: {misses} for {} jobs", results.len());

    // Batch 2: shot-level counts at the best grid point — rides the
    // same compiled program (a cache hit across batches).
    let best_params = grid[best.0].clone();
    let counts_result = run_one(
        &daemon,
        JobRequest::new(
            circuit.clone(),
            best_params.clone(),
            JobSpec::TrajectoryCounts { shots: 512 },
        ),
    );
    assert!(counts_result.cache_hit, "second batch must ride the cache");
    let JobOutput::TrajectoryCounts(counts) = counts_result.unwrap_output() else {
        panic!("expected trajectory counts");
    };
    let mode = counts.iter().max_by_key(|&(_, c)| c).expect("nonempty");
    println!(
        "best point {best_params:?}: <H_C> = {:.4}, mode bitstring {:012b} ({}x/512 shots)",
        best.1, mode.0, mode.1
    );

    // Replay the served job with its recorded seed: bit-identical — the
    // output is a pure function of (shape, params, seed), whatever
    // worker or batch it ran on.
    let replay = run_one(
        &daemon,
        JobRequest::new(
            circuit,
            best_params,
            JobSpec::TrajectoryCounts { shots: 512 },
        )
        .with_seed(counts_result.seed),
    );
    assert_eq!(
        replay.output, counts_result.output,
        "replay with the recorded seed must be bit-identical"
    );
    println!("replay with recorded seed {}: bit-identical", replay.seed);
}
