//! The rule configuration: which crates and modules each pass covers.
//!
//! The default configuration *is* the workspace policy — fixtures and
//! the CI gate both run it unmodified. Every exemption below is a
//! deliberate policy decision with its rationale attached; loosening
//! one is a reviewed change to this file, not a scattering of inline
//! `allow`s.

/// Scope configuration for the rule passes.
///
/// Paths are workspace-relative, `/`-separated, and match by prefix, so
/// `"crates/bench/"` covers the whole crate while
/// `"crates/serve/src/wire.rs"` covers one file.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose outputs reach served results, counts, expectations,
    /// or metrics — the crates rule **D1** (no unordered maps) and rule
    /// **D2**'s seed-provenance check apply to. Named by their directory
    /// under `crates/`.
    pub result_crates: Vec<String>,

    /// Identifiers whose appearance anywhere in non-test code means an
    /// entropy-seeded RNG (**D2**): nondeterministic by construction,
    /// never acceptable in this workspace.
    pub entropy_idents: Vec<String>,

    /// The blessed seed-derivation functions (**D2**): an RNG
    /// construction in a result crate must visibly consume one of these
    /// (or carry an annotated provenance justification).
    pub seed_fns: Vec<String>,

    /// Modules allowed to read the wall clock (**D3**). Policy: timing
    /// belongs to the metrics/bench layer and the serving front end's
    /// stage clocks, never to simulation or compilation code, where a
    /// time-dependent branch would silently break replay determinism.
    pub wallclock_exempt: Vec<String>,

    /// Bit-parity-pinned modules (**D4**): code whose floating-point
    /// results are proptest-pinned bit-identical to a reference
    /// implementation. A new `mul_add` here changes rounding (fused
    /// single-rounding vs separate ops) and silently breaks the pin, so
    /// every occurrence must be annotated as part of a pinned chain.
    pub pinned_paths: Vec<String>,

    /// The replay kernel modules (**D6**): the hot inner loops whose
    /// per-op work must be identical whether or not profiling is
    /// enabled. Rule D3 already bans `Instant`/`SystemTime` here; D6
    /// goes further and bans *any* timing-shaped call (`now`,
    /// `elapsed`, `duration_since`, even through an abstract clock
    /// handle), because the blessed pattern is to route measurement
    /// through `hgp_obs::timed` at the call boundary, keeping the
    /// kernels themselves free of time entirely.
    pub replay_kernel_paths: Vec<String>,

    /// Modules allowed to spawn OS threads (**D5**). Everything else
    /// rides the shared rayon pool, whose deterministic block
    /// partitioning is what the replay determinism proofs assume.
    pub spawn_allowed: Vec<String>,

    /// Names of the CPUID-dispatch macros (**U2**): the only code paths
    /// allowed to reference `#[target_feature]` kernels or the
    /// lane-multiversioned modules that hold them.
    pub dispatch_macros: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect();
        Config {
            result_crates: s(&["core", "noise", "serve", "sim"]),
            entropy_idents: s(&["OsRng", "from_entropy", "from_os_rng", "thread_rng"]),
            seed_fns: s(&["mix64", "stream_seed"]),
            wallclock_exempt: s(&[
                // The bench crate exists to measure wall time.
                "crates/bench/",
                // The observability crate owns the single `Instant`
                // read (`hgp_obs::timed`) that every profiling hook
                // funnels through; results never flow through it.
                "crates/obs/",
                // The serving front end's stage clocks (queue wait,
                // validate/compile/bind/execute splits) feed ServeMetrics;
                // results never depend on them.
                "crates/serve/src/daemon.rs",
                "crates/serve/src/metrics.rs",
                "crates/serve/src/wire.rs",
                "crates/serve/src/worker.rs",
            ]),
            // The whole simulation crate: every engine in it carries a
            // bit-parity pin against a reference implementation
            // (kernels/replay/batch/exact parity proptests).
            pinned_paths: s(&["crates/sim/src/"]),
            replay_kernel_paths: s(&[
                "crates/sim/src/kernels.rs",
                "crates/sim/src/replay.rs",
                "crates/sim/src/replay/",
            ]),
            spawn_allowed: s(&["crates/serve/src/daemon.rs", "crates/serve/src/wire.rs"]),
            dispatch_macros: s(&["kernel"]),
        }
    }
}

impl Config {
    /// Whether `path` falls under any of the given prefixes.
    pub fn path_in(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| path.starts_with(p.as_str()))
    }
}
