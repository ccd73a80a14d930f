#![forbid(unsafe_code)]

//! One benchmark for the wire front end and the paper's training
//! pipeline, with per-layer accounting.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_small --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//! `serve_small` (open loop over the wire), `serve_traj` and
//! `serve_traj_wide` (closed loops of trajectory jobs), and
//! `train_cell` (the Table II cell, in-process).
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off.
//! `--trace 1` adds a traced, profiled daemon and times each layer's
//! public calls from here, for the per-layer metrics. Every run checks
//! its outputs; a failed check prints a result with no numbers and exits
//! non-zero. The line before the result is the full report.

mod host;
mod reference;
mod report;
mod serve;
mod stats;
mod train;

use std::process::ExitCode;

use hgp_serve::json::Value;

use report::{checks_value, metrics_object, obj, result_line, text, Check, Values};

/// Every workload, in run order.
const WORKLOADS: [&str; 4] = ["serve_small", "serve_traj", "serve_traj_wide", "train_cell"];

/// Seconds each workload measures in `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str = "usage: hgp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       hgp_perfbench --smoke";

/// What one workload run produced.
pub struct Outcome {
    /// Jobs (or trainings) attempted.
    pub attempted: u64,
    /// Of those, failed, rejected or lost.
    pub failed: u64,
    /// Correctness checks; any failure fails the run.
    pub checks: Vec<Check>,
    /// Measured metrics by name.
    pub values: Values,
    /// Report fields beyond the metrics.
    pub report: Vec<(&'static str, Value)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !parsed.smoke && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            parsed.workload
        ));
    }
    Ok(parsed)
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Outcome {
    match serve::Workload::new(name) {
        Some(w) => serve::run(&w, seed, seconds, trace),
        None => train::run(seed, seconds, trace, smoke),
    }
}

/// Runs one workload and prints its report and result lines. Returns
/// whether the run was correct.
fn report_run(name: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> bool {
    let mut outcome = run_workload(name, seed, seconds, trace, smoke);
    let table: &[(&str, &str)] = if trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    // A per-layer metric names one layer; a workload that never enters
    // that layer reports 0 for it, and the report lists it.
    let mut not_exercised = Vec::new();
    if trace {
        for &(metric, _) in table {
            if !outcome.values.contains_key(metric) {
                outcome.values.insert(metric, 0.0);
                not_exercised.push(text(metric));
            }
        }
    }
    let metrics = metrics_object(table, &outcome.values);
    if let Err(e) = &metrics {
        outcome
            .checks
            .push(Check::new("every metric was measured", false, e.clone()));
    }
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|c| c.passed);
    let all_values = outcome
        .values
        .iter()
        .map(|(k, v)| (k.to_string(), report::num(*v)))
        .collect();
    let mut members = vec![
        ("workload", text(name)),
        ("seed", Value::from_u64(seed)),
        ("seconds", report::num(seconds)),
        ("trace", Value::Bool(trace)),
        (
            "host",
            host::facts(hgp_serve::ServeConfig::new(vec![]).workers),
        ),
        ("checks", checks_value(&outcome.checks)),
        ("values", Value::Obj(all_values)),
    ];
    if trace {
        members.push(("not_exercised", Value::Arr(not_exercised)));
    }
    members.extend(outcome.report);
    println!("{}", obj(members));
    for check in outcome.checks.iter().filter(|c| !c.passed) {
        eprintln!("check failed: {}: {}", check.name, check.detail);
    }
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            metrics.ok()
        )
    );
    correct
}

/// Rayon fan-out used unless the environment sets `RAYON_NUM_THREADS`.
/// One thread per job: the daemon's worker pool already runs one job
/// per core, and the vendored rayon splits each parallel call statically
/// over freshly spawned threads, so a second level of fan-out only
/// oversubscribes the cores and makes runs disagree.
const RAYON_THREADS: &str = "1";

fn main() -> ExitCode {
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        // Before any thread exists, so nothing reads the environment
        // concurrently.
        std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = if args.smoke {
        // Every workload and every check, briefly, traced and untraced.
        let mut all = true;
        for name in WORKLOADS {
            for trace in [false, true] {
                all &= report_run(name, args.seed, SMOKE_SECONDS, trace, true);
            }
        }
        all
    } else {
        report_run(&args.workload, args.seed, args.seconds, args.trace, false)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
