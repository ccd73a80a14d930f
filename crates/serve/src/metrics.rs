//! Daemon throughput and latency accounting.

use std::fmt;

use hgp_obs::profile::{OpProfileSnapshot, ReplayOpKind};
use hgp_obs::{Histogram, PromText};

use crate::job::{JobSpec, Priority};

/// Cumulative counters over a daemon's lifetime.
///
/// `wall_ns` is the daemon's uptime, while the per-job worker time is
/// split into stages — `bind_ns` (parameter
/// substitution into the cached shape) and `exec_ns` (the simulation
/// itself) — next to the per-shape `compile_ns` and the admission-time
/// `validate_ns`. The split is what tells a cache-hit-heavy trajectory
/// batch (large `exec_ns`, tiny `bind_ns`, no `compile_ns`) apart from
/// an actual cache-miss storm, which aggregate latency alone conflates.
/// With `workers > 1` on a multi-core host, `bind_ns + exec_ns`
/// exceeding `wall_ns` is the parallel speedup made visible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Jobs finished.
    pub jobs_completed: u64,
    /// Jobs answered with a typed [`crate::JobError`] (a subset of
    /// `jobs_completed`; failed jobs still consume stream positions).
    pub jobs_failed: u64,
    /// Submission groups admitted (a single `submit` is a group of one).
    pub batches: u64,
    /// Compiled-program cache hits (shape lookups).
    pub cache_hits: u64,
    /// Compiled-program cache misses (each one paid a compilation).
    pub cache_misses: u64,
    /// Time spent validating requests at admission (per job).
    pub validate_ns: u64,
    /// Time spent compiling shapes (per cache miss, not per job).
    pub compile_ns: u64,
    /// Summed per-job parameter-binding time across workers: program
    /// binds, and for trajectory jobs the schedule-template
    /// substitution.
    pub bind_ns: u64,
    /// Summed per-job execution time across workers (binding excluded).
    pub exec_ns: u64,
    /// The daemon's uptime at snapshot time, so the derived throughputs
    /// read as lifetime rates.
    pub wall_ns: u64,
    /// Jobs waiting in the daemon's submission queue when this snapshot
    /// was taken (a gauge, not a counter).
    pub queue_depth: u64,
    /// Time admitted jobs spent queued before a worker picked them up —
    /// the stage between admission and `compile`/`bind`/`exec`. Large
    /// `queue_ns` with small worker stages means the pool, not the
    /// engine, is the bottleneck.
    pub queue_ns: u64,
    /// Daemon jobs admitted per priority class, indexed by
    /// [`crate::Priority::index`] (interactive/batch/background).
    pub admitted: [u64; 3],
    /// Daemon jobs refused with [`crate::Rejected::QueueFull`], per
    /// priority class.
    pub rejected_full: [u64; 3],
    /// Daemon jobs refused with [`crate::Rejected::TooLarge`], per
    /// priority class.
    pub rejected_large: [u64; 3],
    /// Stochastic trajectory shots finished by successful jobs (the
    /// four trajectory job kinds report their shot or trajectory count;
    /// other kinds contribute zero). This is the work unit the batched
    /// replay engine optimizes, so shots/second — not jobs/second — is
    /// the number to watch when tuning trajectory serving.
    pub shots_executed: u64,
    /// Per-job queue-wait latency histogram. Same samples `queue_ns`
    /// sums.
    pub queue_hist: Histogram,
    /// Per-job validation latency histogram.
    pub validate_hist: Histogram,
    /// Per-shape compile latency histogram (one sample per cache miss,
    /// like `compile_ns`).
    pub compile_hist: Histogram,
    /// Per-job parameter-binding latency histogram.
    pub bind_hist: Histogram,
    /// Per-job execution latency histogram. The `_hist` fields are what
    /// tell a tail stall apart from a uniformly slow stage — the means
    /// above cannot.
    pub exec_hist: Histogram,
    /// Per-priority-class worker latency (bind + execute) histograms,
    /// indexed by [`crate::Priority::index`].
    pub priority_hist: [Histogram; 3],
    /// Per-job-kind execution latency histograms, indexed by
    /// [`crate::JobSpec::kind_index`].
    pub kind_hist: [Histogram; JobSpec::KIND_COUNT],
}

impl ServeMetrics {
    /// End-to-end throughput over the daemon's lifetime, jobs/second.
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.jobs_completed as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Mean per-job worker latency (bind + execute), nanoseconds.
    pub fn mean_job_latency_ns(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            (self.bind_ns + self.exec_ns) as f64 / self.jobs_completed as f64
        }
    }

    /// Mean per-job parameter-binding latency, nanoseconds.
    pub fn mean_bind_latency_ns(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            self.bind_ns as f64 / self.jobs_completed as f64
        }
    }

    /// Trajectory shot throughput over the daemon's lifetime,
    /// shots/second.
    ///
    /// `wall_ns == 0` is guarded explicitly and yields `0.0`: a
    /// fresh metrics value (or a snapshot taken before the uptime
    /// clock has advanced a nanosecond) has no rate yet, and the guard
    /// keeps `shots_executed > 0` with zero wall from producing an
    /// infinite rate.
    pub fn shots_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.shots_executed as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Mean worker execution time per trajectory shot, nanoseconds.
    ///
    /// `exec_ns` sums over every job kind, so read this on
    /// trajectory-dominated workloads (where non-trajectory execution
    /// time is negligible) — the serving benches and the replay
    /// acceptance bar both use it that way.
    pub fn mean_shot_exec_ns(&self) -> f64 {
        if self.shots_executed == 0 {
            0.0
        } else {
            self.exec_ns as f64 / self.shots_executed as f64
        }
    }

    /// Total daemon admissions across priority classes.
    pub fn admitted_total(&self) -> u64 {
        self.admitted.iter().sum()
    }

    /// Total daemon rejections (queue-full plus too-large) across
    /// priority classes.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_full.iter().sum::<u64>() + self.rejected_large.iter().sum::<u64>()
    }

    /// Mean time a job waited in the daemon queue before a worker
    /// picked it up, nanoseconds.
    ///
    /// This mean is per **completed** job, not per admitted job:
    /// `queue_ns` only accumulates when a worker dequeues a job, so
    /// jobs still sitting in the queue contribute to neither the
    /// numerator nor the denominator. Under heavy backlog the true
    /// admitted-job wait is therefore higher than this figure —
    /// `queue_depth` is the companion gauge that exposes the backlog
    /// itself.
    pub fn mean_queue_wait_ns(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            self.queue_ns as f64 / self.jobs_completed as f64
        }
    }

    /// Fraction of shape lookups served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Records one completed job's queue-wait and worker-stage samples
    /// into the stage, priority, and kind histograms.
    pub fn record_job_stages(
        &mut self,
        queue_ns: u64,
        bind_ns: u64,
        exec_ns: u64,
        priority: Priority,
        kind_index: usize,
    ) {
        self.queue_hist.record(queue_ns);
        self.bind_hist.record(bind_ns);
        self.exec_hist.record(exec_ns);
        self.priority_hist[priority.index()].record(bind_ns + exec_ns);
        self.kind_hist[kind_index].record(exec_ns);
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// the counters above as `counter`/`gauge` families and every
    /// histogram as cumulative `_bucket`/`_sum`/`_count` series, with
    /// priority classes, job kinds, and replay op kinds as labels. Pass
    /// the daemon's engine-profile snapshot to append the per-op-kind
    /// replay breakdown (`hgp_replay_op_ns`/`hgp_replay_op_calls`).
    pub fn render_promtext(&self, profile: Option<&OpProfileSnapshot>) -> String {
        let mut p = PromText::new();
        p.counter("hgp_jobs_completed", "Jobs finished.", self.jobs_completed);
        p.counter(
            "hgp_jobs_failed",
            "Jobs answered with a typed error.",
            self.jobs_failed,
        );
        p.counter("hgp_batches", "Submission groups admitted.", self.batches);
        p.counter(
            "hgp_cache_hits",
            "Compiled-program cache hits.",
            self.cache_hits,
        );
        p.counter(
            "hgp_cache_misses",
            "Compiled-program cache misses.",
            self.cache_misses,
        );
        p.counter(
            "hgp_shots_executed",
            "Trajectory shots finished by successful jobs.",
            self.shots_executed,
        );
        p.counter("hgp_wall_ns", "Daemon uptime, ns.", self.wall_ns);
        p.gauge(
            "hgp_queue_depth",
            "Jobs waiting in the submission queue.",
            self.queue_depth as f64,
        );
        for pr in Priority::ALL {
            let labels = [("priority", pr.to_string())];
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            p.counter_with(
                "hgp_admitted",
                "Daemon admissions per priority class.",
                &labels,
                self.admitted[pr.index()],
            );
            p.counter_with(
                "hgp_rejected_full",
                "Queue-full rejections per priority class.",
                &labels,
                self.rejected_full[pr.index()],
            );
            p.counter_with(
                "hgp_rejected_large",
                "Too-large rejections per priority class.",
                &labels,
                self.rejected_large[pr.index()],
            );
        }
        let stages: [(&str, &Histogram); 5] = [
            ("queue", &self.queue_hist),
            ("validate", &self.validate_hist),
            ("compile", &self.compile_hist),
            ("bind", &self.bind_hist),
            ("exec", &self.exec_hist),
        ];
        for (stage, hist) in stages {
            p.histogram(
                "hgp_stage_ns",
                "Per-stage latency (ns).",
                &[("stage", stage)],
                hist,
            );
        }
        for pr in Priority::ALL {
            let name = pr.to_string();
            p.histogram(
                "hgp_priority_job_ns",
                "Worker latency (bind + exec) per priority class (ns).",
                &[("priority", name.as_str())],
                &self.priority_hist[pr.index()],
            );
        }
        for (i, name) in JobSpec::KIND_NAMES.iter().enumerate() {
            p.histogram(
                "hgp_kind_exec_ns",
                "Execution latency per job kind (ns).",
                &[("kind", name)],
                &self.kind_hist[i],
            );
        }
        if let Some(snap) = profile {
            for kind in ReplayOpKind::ALL {
                let labels = [("op", kind.name())];
                p.counter_with(
                    "hgp_replay_op_calls",
                    "Profiled replay tape ops per kind.",
                    &labels,
                    snap.calls[kind.index()],
                );
            }
            for kind in ReplayOpKind::ALL {
                let labels = [("op", kind.name())];
                p.counter_with(
                    "hgp_replay_op_ns",
                    "Profiled replay wall time per op kind (ns).",
                    &labels,
                    snap.ns[kind.index()],
                );
            }
        }
        p.finish()
    }
}

impl fmt::Display for ServeMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs ({} failed) in {} batches | {:.0} jobs/s | mean latency {:.1} us \
             (bind {:.1} us) | cache {}/{} hits ({:.0}%) | stages: queue {:.2} ms, \
             validate {:.2} ms, compile {:.2} ms, bind {:.2} ms, execute {:.2} ms | \
             exec p50/p99 {:.1}/{:.1} us | \
             {} shots, {:.0} shots/s, {:.2} us/shot exec | queue depth {} | \
             admitted i/b/g {}/{}/{} | rejected {} (full {}, too-large {})",
            self.jobs_completed,
            self.jobs_failed,
            self.batches,
            self.throughput_jobs_per_sec(),
            self.mean_job_latency_ns() / 1e3,
            self.mean_bind_latency_ns() / 1e3,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            100.0 * self.cache_hit_rate(),
            self.queue_ns as f64 / 1e6,
            self.validate_ns as f64 / 1e6,
            self.compile_ns as f64 / 1e6,
            self.bind_ns as f64 / 1e6,
            self.exec_ns as f64 / 1e6,
            self.exec_hist.p50() as f64 / 1e3,
            self.exec_hist.p99() as f64 / 1e3,
            self.shots_executed,
            self.shots_per_sec(),
            self.mean_shot_exec_ns() / 1e3,
            self.queue_depth,
            self.admitted[0],
            self.admitted[1],
            self.admitted[2],
            self.rejected_total(),
            self.rejected_full.iter().sum::<u64>(),
            self.rejected_large.iter().sum::<u64>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let m = ServeMetrics {
            jobs_completed: 100,
            jobs_failed: 0,
            batches: 2,
            cache_hits: 2,
            cache_misses: 1,
            validate_ns: 1_000_000,
            compile_ns: 5_000_000,
            bind_ns: 50_000_000,
            exec_ns: 150_000_000,
            wall_ns: 1_000_000_000,
            shots_executed: 25_000,
            queue_depth: 4,
            queue_ns: 200_000_000,
            admitted: [10, 80, 10],
            rejected_full: [0, 3, 1],
            rejected_large: [1, 0, 0],
            ..ServeMetrics::default()
        };
        assert!((m.throughput_jobs_per_sec() - 100.0).abs() < 1e-9);
        // Mean latency covers both worker stages: bind + execute.
        assert!((m.mean_job_latency_ns() - 2_000_000.0).abs() < 1e-9);
        assert!((m.mean_bind_latency_ns() - 500_000.0).abs() < 1e-9);
        assert!((m.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.shots_per_sec() - 25_000.0).abs() < 1e-9);
        // 150 ms of execution over 25k shots: 6 us per shot.
        assert!((m.mean_shot_exec_ns() - 6_000.0).abs() < 1e-9);
        assert_eq!(m.admitted_total(), 100);
        assert_eq!(m.rejected_total(), 5);
        // 200 ms queued across 100 jobs: 2 ms mean queue wait.
        assert!((m.mean_queue_wait_ns() - 2_000_000.0).abs() < 1e-9);
        assert!(!m.to_string().is_empty());
    }

    #[test]
    fn zero_division_is_safe() {
        let m = ServeMetrics::default();
        assert_eq!(m.throughput_jobs_per_sec(), 0.0);
        assert_eq!(m.mean_job_latency_ns(), 0.0);
        assert_eq!(m.mean_bind_latency_ns(), 0.0);
        assert_eq!(m.cache_hit_rate(), 0.0);
        assert_eq!(m.shots_per_sec(), 0.0);
        assert_eq!(m.mean_shot_exec_ns(), 0.0);
        assert_eq!(m.mean_queue_wait_ns(), 0.0);
    }

    #[test]
    fn shots_per_sec_guards_zero_wall_explicitly() {
        // Executed shots with no wall time yet (a snapshot taken
        // before the clock advanced) must read as "no rate", not inf.
        let m = ServeMetrics {
            shots_executed: 10_000,
            wall_ns: 0,
            ..ServeMetrics::default()
        };
        assert_eq!(m.shots_per_sec(), 0.0);
        assert!(m.shots_per_sec().is_finite());
    }

    #[test]
    fn queue_wait_mean_is_per_completed_job() {
        // Five jobs admitted, two completed: the denominator is the
        // completed count — jobs still queued don't dilute the mean.
        let m = ServeMetrics {
            jobs_completed: 2,
            admitted: [5, 0, 0],
            queue_ns: 4_000_000,
            queue_depth: 3,
            ..ServeMetrics::default()
        };
        assert!((m.mean_queue_wait_ns() - 2_000_000.0).abs() < 1e-9);
    }

    #[test]
    fn stage_recording_feeds_all_histograms() {
        let mut m = ServeMetrics::default();
        m.validate_hist.record(500);
        m.compile_hist.record(80_000);
        m.record_job_stages(1_000, 2_000, 30_000, Priority::Interactive, 4);
        m.record_job_stages(900, 1_000, 10_000, Priority::Batch, 2);
        assert_eq!(m.queue_hist.count(), 2);
        assert_eq!(m.queue_hist.sum(), 1_900);
        assert_eq!(m.bind_hist.count(), 2);
        assert_eq!(m.exec_hist.count(), 2);
        assert_eq!(m.priority_hist[0].count(), 1);
        assert_eq!(m.priority_hist[1].count(), 1);
        assert_eq!(m.priority_hist[2].count(), 0);
        assert_eq!(m.kind_hist[4].count(), 1);
        assert_eq!(m.kind_hist[2].count(), 1);
        assert_eq!(m.priority_hist[0].sum(), 32_000);
    }

    #[test]
    fn promtext_rendering_covers_counters_and_histograms() {
        let mut m = ServeMetrics {
            jobs_completed: 3,
            shots_executed: 768,
            admitted: [1, 2, 0],
            ..ServeMetrics::default()
        };
        m.record_job_stages(900, 2_000, 30_000, Priority::Batch, 4);
        let text = m.render_promtext(None);
        assert!(text.contains("# TYPE hgp_jobs_completed counter"));
        assert!(text.contains("hgp_admitted{priority=\"batch\"} 2"));
        assert!(text.contains("# TYPE hgp_stage_ns histogram"));
        assert!(text.contains("hgp_stage_ns_count{stage=\"exec\"} 1"));
        assert!(text.contains("hgp_kind_exec_ns_sum{kind=\"trajectory_counts\"} 30000"));
        assert!(!text.contains("hgp_replay_op_ns"));

        let mut snap = OpProfileSnapshot::default();
        snap.calls[ReplayOpKind::DiagRun.index()] = 7;
        snap.ns[ReplayOpKind::DiagRun.index()] = 12345;
        let with_profile = m.render_promtext(Some(&snap));
        assert!(with_profile.contains("hgp_replay_op_calls{op=\"diag_run\"} 7"));
        assert!(with_profile.contains("hgp_replay_op_ns{op=\"diag_run\"} 12345"));
    }
}
