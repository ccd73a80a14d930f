//! Opt-in per-op-kind profiling for the replay engines.
//!
//! The replay hot loops are bit-parity-pinned and must not pay for
//! instrumentation they are not using, so profiling is a zero-sized
//! compile-time choice: every profiled entry point is generic over a
//! [`ProfileSink`], and the [`timed`] helper only reads the clock when
//! `P::ENABLED` is true. With [`NoProfile`] the whole hook — closure,
//! clock, record — monomorphizes to the plain op call. With
//! [`OpProfile`] each op's wall time is attributed to its
//! [`ReplayOpKind`] via relaxed atomic adds, so a single sink reference
//! can be shared across a rayon worker pool and read with
//! [`OpProfile::snapshot`] at any time, no merge step required.
//!
//! All clock reads live here, in the sink layer — never inside the
//! numeric sweeps themselves. `hgp_analysis` rule D6 enforces exactly
//! that: timing identifiers are banned from the replay kernel modules.

use std::sync::atomic::{AtomicU64, Ordering};

/// The op-kind buckets profiled execution time is attributed to.
///
/// These mirror the replay tape structure shared by the trajectory and
/// exact engines: fused diagonal runs, dense 1q/2q unitary
/// applications, the two channel shapes (mixed-unitary pick vs general
/// Kraus), and renormalization (the trajectory engine's deferred
/// post-Kraus scale resolution at the end of a block's tape). The
/// exact engine maps its single-Kraus channels to
/// [`ReplayOpKind::MixedChannel`] and its resolved superoperator /
/// blockwise channels to [`ReplayOpKind::GeneralChannel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReplayOpKind {
    /// A fused run of diagonal phase factors.
    DiagRun,
    /// A dense single-qubit operator application.
    Dense1q,
    /// A dense operator on two or more qubits.
    Dense2q,
    /// A mixed-unitary channel: cumulative-weight pick, optional
    /// unitary.
    MixedChannel,
    /// A general Kraus channel: branch-weight scan, Kraus application.
    GeneralChannel,
    /// State renormalization after a non-trace-preserving branch.
    Renorm,
}

impl ReplayOpKind {
    /// Number of kinds (array dimension for per-kind accumulators).
    pub const COUNT: usize = 6;

    /// All kinds, in report order.
    pub const ALL: [ReplayOpKind; ReplayOpKind::COUNT] = [
        ReplayOpKind::DiagRun,
        ReplayOpKind::Dense1q,
        ReplayOpKind::Dense2q,
        ReplayOpKind::MixedChannel,
        ReplayOpKind::GeneralChannel,
        ReplayOpKind::Renorm,
    ];

    /// Dense index into per-kind arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the Prometheus label value and
    /// the wire field name.
    pub fn name(self) -> &'static str {
        match self {
            ReplayOpKind::DiagRun => "diag_run",
            ReplayOpKind::Dense1q => "dense_1q",
            ReplayOpKind::Dense2q => "dense_2q",
            ReplayOpKind::MixedChannel => "mixed_channel",
            ReplayOpKind::GeneralChannel => "general_channel",
            ReplayOpKind::Renorm => "renorm",
        }
    }

    /// Inverse of [`ReplayOpKind::name`].
    pub fn parse(s: &str) -> Option<ReplayOpKind> {
        ReplayOpKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A destination for per-op timing samples.
///
/// `ENABLED` gates the clock read in [`timed`] at compile time; an
/// implementation with `ENABLED == false` never has `record` called.
/// Sinks take `&self` and must be thread-safe: the batched and exact
/// engines share one sink across their rayon workers.
pub trait ProfileSink: Sync {
    /// Whether profiled entry points should read the clock at all.
    const ENABLED: bool;

    /// Attributes `ns` nanoseconds of one call to `kind`.
    fn record(&self, kind: ReplayOpKind, ns: u64);
}

/// The disabled sink: profiled entry points compile to the unprofiled
/// code exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProfile;

impl ProfileSink for NoProfile {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&self, _kind: ReplayOpKind, _ns: u64) {}
}

/// A live per-op-kind accumulator: call counts and nanoseconds per
/// [`ReplayOpKind`], in relaxed atomics.
///
/// Relaxed ordering is enough: each add is independent and the totals
/// are only read via [`OpProfile::snapshot`], which tolerates being a
/// moment stale while workers are still running.
#[derive(Debug, Default)]
pub struct OpProfile {
    calls: [AtomicU64; ReplayOpKind::COUNT],
    ns: [AtomicU64; ReplayOpKind::COUNT],
}

impl OpProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        OpProfile::default()
    }

    /// Copies the current totals out.
    pub fn snapshot(&self) -> OpProfileSnapshot {
        let mut snap = OpProfileSnapshot::default();
        for i in 0..ReplayOpKind::COUNT {
            snap.calls[i] = self.calls[i].load(Ordering::Relaxed);
            snap.ns[i] = self.ns[i].load(Ordering::Relaxed);
        }
        snap
    }
}

impl ProfileSink for OpProfile {
    const ENABLED: bool = true;

    #[inline]
    fn record(&self, kind: ReplayOpKind, ns: u64) {
        let i = kind.index();
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.ns[i].fetch_add(ns, Ordering::Relaxed);
    }
}

/// A plain-data copy of an [`OpProfile`]'s totals, indexable by
/// [`ReplayOpKind::index`]. This is what crosses the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpProfileSnapshot {
    /// Calls per kind.
    pub calls: [u64; ReplayOpKind::COUNT],
    /// Nanoseconds per kind.
    pub ns: [u64; ReplayOpKind::COUNT],
}

impl OpProfileSnapshot {
    /// Total profiled nanoseconds across all kinds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Total profiled calls across all kinds.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.total_calls() == 0
    }
}

/// Runs `f`, attributing its wall time to `kind` — the single place
/// profiled replay code reads the clock. When `P::ENABLED` is false
/// this is exactly `f()`: no clock, no branch left after inlining.
#[inline(always)]
pub fn timed<P: ProfileSink, T>(sink: &P, kind: ReplayOpKind, f: impl FnOnce() -> T) -> T {
    if P::ENABLED {
        let t0 = std::time::Instant::now();
        let out = f();
        sink.record(kind, t0.elapsed().as_nanos() as u64);
        out
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in ReplayOpKind::ALL {
            assert_eq!(ReplayOpKind::parse(kind.name()), Some(kind));
            assert_eq!(ReplayOpKind::ALL[kind.index()], kind);
        }
        assert_eq!(ReplayOpKind::parse("nope"), None);
    }

    #[test]
    fn timed_records_into_op_profile() {
        let sink = OpProfile::new();
        let x = timed(&sink, ReplayOpKind::DiagRun, || 41 + 1);
        assert_eq!(x, 42);
        timed(&sink, ReplayOpKind::DiagRun, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let snap = sink.snapshot();
        assert_eq!(snap.calls[ReplayOpKind::DiagRun.index()], 2);
        assert!(snap.ns[ReplayOpKind::DiagRun.index()] >= 2_000_000);
        assert_eq!(snap.calls[ReplayOpKind::Renorm.index()], 0);
        assert_eq!(snap.total_calls(), 2);
        assert!(!snap.is_empty());
    }

    #[test]
    fn no_profile_is_transparent() {
        let x = timed(&NoProfile, ReplayOpKind::Renorm, || "through");
        assert_eq!(x, "through");
    }

    #[test]
    fn shared_sink_accumulates_across_threads() {
        let sink = OpProfile::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        sink.record(ReplayOpKind::Dense1q, 3);
                    }
                });
            }
        });
        let snap = sink.snapshot();
        assert_eq!(snap.calls[ReplayOpKind::Dense1q.index()], 400);
        assert_eq!(snap.ns[ReplayOpKind::Dense1q.index()], 1200);
    }
}
