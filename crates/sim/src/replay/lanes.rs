//! Lane-tier dispatch shared by both replay engines.
//!
//! The trajectory engine's shot-block kernels ([`super::batch`]) and the
//! exact tape's density-matrix sweeps ([`super::exact`]) both keep their
//! state in split re/im `f64` planes, so every kernel body is
//! straight-line lane arithmetic that widens with the vector ISA. Each
//! engine writes its bodies once, as safe `#[inline(always)]` functions
//! in a module named `kern`, and [`lane_tiers!`] re-compiles them under
//! AVX2 (`kern_avx2`) and AVX-512 (`kern_avx512`) codegen. The engine
//! probes the CPU once per arena ([`lane_isa`]) and calls each kernel
//! through [`kernel!`], which picks the build.
//!
//! The dispatch is bit-safe: a wider build evaluates the *same* scalar
//! expression per lane, and rustc never contracts separate multiplies
//! and adds into FMAs, so every tier produces identical bits. The
//! in-crate tier-parity tests run every tier the CPU reports and compare
//! `to_bits`.
//!
//! Multiversioning sits at whole-kernel granularity (one dispatched
//! call per op per block or per row chunk): `#[target_feature]`
//! functions cannot inline into baseline callers, so a finer split would
//! pay a call per amplitude row.

/// The kernel build an arena dispatches to, decided by one CPUID probe
/// ([`lane_isa`]) when the arena is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lanes {
    /// Eight `f64` lanes (`kern_avx512`).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// Four `f64` lanes (`kern_avx2`).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The crate's baseline build (SSE2 on x86-64).
    Baseline,
}

impl Lanes {
    /// The tier's `HGP_REPLAY_LANES` spelling.
    pub(crate) fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx512 => "avx512",
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2 => "avx2",
            Lanes::Baseline => "baseline",
        }
    }
}

/// The lane tier both replay engines dispatch to on this CPU under the
/// current `HGP_REPLAY_LANES` (`"avx512"`, `"avx2"` or `"baseline"`) —
/// the host fact bench reports record beside their timings.
pub fn lane_tier() -> &'static str {
    lane_isa().name()
}

/// Probes the running CPU and picks the kernel build for both engines.
///
/// The default choice is AVX2 when the CPU has it. Measured on a 2-core
/// Xeon with AVX-512, each engine's lane-tier table, two interleaved
/// rounds per tier:
///
/// - trajectories (`BENCH_replay.json`, `lane_tiers`, one rayon
///   thread): the served 16-qubit job (one 8-shot block) ran 394–397
///   ms under AVX2, 432–531 ms under AVX-512 and 521–591 ms under the
///   baseline build; the 12-qubit 256-shot expectation (64-shot blocks)
///   575–608 ms, 585–683 ms and 837–1071 ms. AVX2 is the fastest tier
///   at 16 qubits and at least level with AVX-512 at 12;
/// - the exact tape (`BENCH_exact.json`, `lane_tiers`): the Table II
///   cell's gate and hybrid tapes at 6 qubits ran 1.3–1.6 ms under
///   AVX-512, 1.7–2.1 ms under AVX2 and 1.7–2.6 ms under the baseline
///   build (2.9–3.7 ms for the interleaved-`Complex64` kernels the
///   planes replaced); the 10-qubit expectation at two threads
///   0.64–0.68 s, 0.68–0.75 s and 1.05–1.13 s.
///
/// So AVX2 is the one default for both engines: it wins or ties every
/// served trajectory width and cuts the exact tape's 10-qubit time by 30–40%
/// against the baseline build, while AVX-512 is fastest on the exact
/// tape alone, by up to a quarter. `HGP_REPLAY_LANES` overrides the
/// choice for both engines (`avx512` / `avx2` / `baseline`) — every
/// tier computes bit-identical results, so the knob only trades lane
/// width. Unsupported or unknown requests fall back to the probed
/// default.
pub(crate) fn lane_isa() -> Lanes {
    #[cfg(target_arch = "x86_64")]
    {
        let want = std::env::var("HGP_REPLAY_LANES").unwrap_or_default();
        if want == "baseline" {
            return Lanes::Baseline;
        }
        if want == "avx512" && avx512_detected() {
            return Lanes::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Lanes::Avx2;
        }
    }
    Lanes::Baseline
}

/// Whether the CPU provides every feature `kern_avx512` is built with.
#[cfg(target_arch = "x86_64")]
fn avx512_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512dq")
}

/// Every tier the running CPU can execute, baseline first — what the
/// tier-parity tests sweep.
#[cfg(test)]
pub(crate) fn detected_tiers() -> Vec<Lanes> {
    #[allow(unused_mut)]
    let mut tiers = vec![Lanes::Baseline];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(Lanes::Avx2);
        }
        if avx512_detected() {
            tiers.push(Lanes::Avx512);
        }
    }
    tiers
}

/// Generates a re-compile of a `kern` module's kernels under a wider
/// ISA: one `#[target_feature]` wrapper per listed signature, each
/// inlining the identical `#[inline(always)]` body — same per-lane
/// expressions, same results bit for bit (rustc emits no FMA
/// contraction), just more `f64` lanes per vector op than the baseline
/// build's SSE2 pair. The generated module sees the invoking module's
/// items, so the signatures name types as that module does.
macro_rules! lane_module {
    ($(#[$doc:meta])* $mod_name:ident, $features:literal, $kern:ident {
        $(fn $name:ident($($arg:ident: $ty:ty),* $(,)?);)*
    }) => {
        $(#[$doc])*
        #[cfg(target_arch = "x86_64")]
        mod $mod_name {
            #[allow(unused_imports)]
            use super::*;

            $(
                /// # Safety
                ///
                /// The running CPU must provide this module's target
                /// features — the *only* precondition. The body is the
                /// safe `kern` kernel of the same name recompiled under
                /// wider codegen: every slice access keeps its bounds
                /// check and `f64` slices carry no ISA-dependent
                /// alignment requirement, so the sole UB hazard is
                /// executing the wider instructions on a CPU that lacks
                /// them.
                #[target_feature(enable = $features)]
                #[allow(clippy::too_many_arguments)]
                pub(super) unsafe fn $name($($arg: $ty),*) {
                    super::$kern::$name($($arg),*)
                }
            )*
        }
    };
}
pub(crate) use lane_module;

/// Instantiates both wider builds of a `kern` module from one signature
/// list: `kern_avx2` (four `f64` lanes per vector op) and `kern_avx512`
/// (eight; `vl`/`dq` let LLVM use the 512-bit register file for the
/// mixed 128/256-bit tails short sweeps produce).
macro_rules! lane_tiers {
    ($kern:ident { $($sigs:tt)* }) => {
        $crate::replay::lanes::lane_module!(
            /// `kern` under AVX2 codegen: four `f64` lanes per vector op.
            kern_avx2, "avx2", $kern { $($sigs)* }
        );
        $crate::replay::lanes::lane_module!(
            /// `kern` under AVX-512 codegen: eight `f64` lanes per vector
            /// op.
            kern_avx512, "avx512f,avx512vl,avx512dq", $kern { $($sigs)* }
        );
    };
}
pub(crate) use lane_tiers;

/// Calls one `kern` kernel through an arena's cached [`Lanes`] choice.
/// Resolves `kern`, `kern_avx2` and `kern_avx512` in the invoking
/// module.
macro_rules! kernel {
    ($lanes:expr, $name:ident($($arg:expr),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        {
            match $lanes {
                $crate::replay::lanes::Lanes::Avx512 => {
                    // SAFETY: `Lanes::Avx512` is only ever constructed by
                    // `lane_isa` (or the test-only `detected_tiers`) after
                    // `is_x86_feature_detected!` confirmed avx512f,
                    // avx512vl, and avx512dq on this CPU — the wrapper's
                    // sole precondition (its body is the safe `kern`
                    // kernel; see the `lane_module!` contracts).
                    unsafe { kern_avx512::$name($($arg),*) }
                }
                $crate::replay::lanes::Lanes::Avx2 => {
                    // SAFETY: `Lanes::Avx2` is only ever constructed by
                    // `lane_isa` (or the test-only `detected_tiers`) after
                    // `is_x86_feature_detected!` confirmed avx2 on this
                    // CPU — the wrapper's sole precondition (its body is
                    // the safe `kern` kernel; see the `lane_module!`
                    // contracts).
                    unsafe { kern_avx2::$name($($arg),*) }
                }
                $crate::replay::lanes::Lanes::Baseline => kern::$name($($arg),*),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = $lanes;
            kern::$name($($arg),*)
        }
    }};
}
pub(crate) use kernel;
