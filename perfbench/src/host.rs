//! Host facts that shape every number: cores, threads, SIMD lane tier,
//! shot-block sizes, and the build's provenance.

use std::process::Command;

use hgp_serve::json::Value;
use hgp_sim::{ReplayEngine, ReplayProgram, TrajectoryProgram};

use crate::report::{obj, text};

/// Shots per block the batched replay engine picks at `n_qubits`.
pub fn shots_per_block(n_qubits: usize) -> usize {
    let tape = ReplayProgram::compile(&TrajectoryProgram::new(n_qubits));
    ReplayEngine::new(1 << 10, 0).block_size_for(&tape)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_flag(name: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match name {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = name;
        false
    }
}

/// The checkout's git revision. Only a `.git` here counts: git would
/// otherwise report the revision of any repository above the checkout.
fn git_revision() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    }
}

/// The host-facts object of the report.
pub fn facts(daemon_workers: usize) -> Value {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let lanes = std::env::var("HGP_REPLAY_LANES").unwrap_or_else(|_| "unset".to_string());
    obj(vec![
        ("nproc", Value::from_usize(nproc)),
        (
            "rayon_threads",
            Value::from_usize(rayon::current_num_threads()),
        ),
        ("daemon_workers", Value::from_usize(daemon_workers)),
        ("avx2", Value::Bool(cpu_flag("avx2"))),
        ("avx512f", Value::Bool(cpu_flag("avx512f"))),
        ("hgp_replay_lanes", text(lanes)),
        (
            "shots_per_block",
            obj(vec![
                ("6q", Value::from_usize(shots_per_block(6))),
                ("12q", Value::from_usize(shots_per_block(12))),
                ("16q", Value::from_usize(shots_per_block(16))),
            ]),
        ),
        ("git_revision", text(git_revision())),
        ("rustc", text(command_line("rustc", &["--version"]))),
    ])
}
