//! The long-lived serving daemon: a persistent worker pool behind a
//! bounded, priority-classed submission queue with streaming result
//! delivery.
//!
//! The [`Daemon`] is the one scheduler of the serving layer — a service
//! many tenants share, that a training loop can *pipeline* against:
//! clients [`Daemon::submit`] individual jobs or [`Daemon::submit_group`]
//! job groups and receive results **as they complete** over an
//! mpsc-backed [`ResultStream`], while the next submission is already
//! queued. [`Daemon::run_batch`] and [`Daemon::expectation_batch`] are
//! the blocking shapes: submit a group, wait, collect in order.
//!
//! # Lifecycle of a submission
//!
//! 1. **Admission control** — before anything consumes a stream
//!    position, the group is screened against the per-job size bound
//!    ([`DaemonConfig::max_job_shots`] →
//!    [`Rejected::TooLarge`], the serving-level continuation of the wire
//!    format's width bounds) and the bounded queue
//!    ([`DaemonConfig::max_queue_depth`] → [`Rejected::QueueFull`]).
//!    Groups are admitted **atomically**: a rejected group leaves no
//!    trace — no id, no seed, no queue slot — so backpressure can never
//!    perturb the seeds of jobs that were admitted.
//! 2. **Admission** — each job of an accepted group takes the next
//!    [`JobId`] and its position-derived seed
//!    ([`hgp_sim::seed::stream_seed`]), exactly as
//!    [`crate::run_sequential`] does.
//!    Requests that fail validation still consume their position and are
//!    answered through the stream with a validate-stage
//!    [`crate::JobError`]; valid jobs enter their priority class's FIFO.
//! 3. **Scheduling** — persistent workers take the oldest job of the
//!    highest non-empty class ([`Priority`]: interactive > batch >
//!    background). The policy is deterministic in the admission order,
//!    and because every job's output is a pure function of
//!    `(compiled shape, params, seed)` — all fixed at admission — **any
//!    worker count, arrival order, or priority interleaving yields
//!    results bit-identical to the sequential reference** (pinned by the
//!    `daemon_serving` proptests against [`crate::run_sequential`]).
//! 4. **Execution** — workers share one structural-key LRU
//!    [`crate::ProgramCache`] and the worker core of [`crate::worker`]
//!    (`execute_job`): compile once per shape, bind per dispatch,
//!    trajectory kinds ride the replay template. The `catch_unwind`
//!    panic boundary means a poisoned job fails alone with a typed
//!    error; a client that dropped its [`ResultStream`] merely discards
//!    that job's result — the worker moves on either way.
//! 5. **Shutdown** — [`Daemon::shutdown`] (or drop) stops admission and
//!    **drains**: queued jobs still execute and stream out before the
//!    workers exit. The drain is wedge-proof by construction: locks are
//!    poison-recovering, result delivery ignores vanished receivers, and
//!    a worker that somehow died is simply joined over — the remaining
//!    workers finish the queue.
//!
//! The TCP front end over this API lives in [`crate::wire`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use hgp_circuit::Circuit;
use hgp_core::compile::HybridShape;
use hgp_device::Backend;
use hgp_math::pauli::PauliSum;
use hgp_obs::{FlightRecorder, JobTrace, NoProfile, OpProfile, OpProfileSnapshot, Span, SpanKind};
use hgp_sim::seed::stream_seed;

use crate::cache::ProgramCache;
use crate::job::{
    JobError, JobId, JobOutput, JobProgram, JobRequest, JobResult, JobSpec, Priority, Rejected,
};
use crate::metrics::ServeMetrics;
use crate::worker::{
    compile_artifact, execute_job, trajectory_shots, validate_request, PreparedJob, ServeConfig,
};

/// Configuration of a [`Daemon`]: the underlying service parameters
/// plus the admission-control bounds only a long-lived queue needs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker pool / cache / seed / compile configuration, shared with
    /// [`crate::run_sequential`].
    pub service: ServeConfig,
    /// Maximum jobs waiting in the submission queue (in-flight jobs on
    /// workers do not count). Submissions that would overflow are
    /// answered [`Rejected::QueueFull`], whole groups atomically.
    pub max_queue_depth: usize,
    /// Per-job admission bound on sampled shots / trajectories;
    /// larger requests are answered [`Rejected::TooLarge`].
    pub max_job_shots: u64,
    /// Per-job [`JobTrace`]s kept in the flight recorder — the last N
    /// jobs, oldest evicted first. Zero disables tracing entirely
    /// (no spans are built, no recorder lock is taken).
    pub trace_capacity: usize,
    /// Whether workers accumulate per-op-kind engine profiles
    /// ([`OpProfile`]). Off by default: the engines then run with the
    /// compiled-out [`NoProfile`] sink, paying nothing.
    pub profile: bool,
}

impl DaemonConfig {
    /// Defaults: [`ServeConfig::new`] service parameters, a
    /// 1024-deep queue, a 2^20 per-job shot bound, a 256-job flight
    /// recorder, and engine profiling off.
    pub fn new(layout: Vec<usize>) -> Self {
        Self {
            service: ServeConfig::new(layout),
            max_queue_depth: 1024,
            max_job_shots: 1 << 20,
            trace_capacity: 256,
            profile: false,
        }
    }

    /// Overrides the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.service = self.service.with_workers(workers);
        self
    }

    /// Overrides the base seed of the daemon's evaluation stream.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.service = self.service.with_base_seed(seed);
        self
    }

    /// Overrides the compiled-shape cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.service = self.service.with_cache_capacity(capacity);
        self
    }

    /// Overrides the submission queue bound.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero — a daemon that can admit nothing
    /// serves nothing.
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        self.max_queue_depth = depth;
        self
    }

    /// Overrides the per-job shot/trajectory admission bound.
    pub fn with_max_job_shots(mut self, shots: u64) -> Self {
        self.max_job_shots = shots;
        self
    }

    /// Overrides the flight-recorder capacity; zero disables tracing.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enables or disables per-op-kind engine profiling.
    pub fn with_profiling(mut self, enabled: bool) -> Self {
        self.profile = enabled;
        self
    }
}

/// A job sitting in the queue: admitted (id/seed fixed), waiting for a
/// worker.
struct QueuedJob {
    job: PreparedJob,
    program: JobProgram,
    key: u64,
    priority: Priority,
    enqueued: Instant,
    /// The partial trace (enqueued/validated/admitted spans); workers
    /// complete and deliver it to the flight recorder. `None` when
    /// tracing is disabled.
    trace: Option<JobTrace>,
    tx: mpsc::Sender<JobResult>,
}

/// Queue state under the daemon's mutex.
struct QueueState {
    /// One FIFO per priority class, indexed by [`Priority::index`].
    classes: [VecDeque<QueuedJob>; 3],
    /// Jobs currently queued (sum of the class lengths).
    depth: usize,
    /// Next stream position — ids and seeds are assigned from here,
    /// under the lock, so admission order is a total order.
    next_job: u64,
    /// False once shutdown has begun: no further admissions.
    open: bool,
}

impl QueueState {
    /// Pops the oldest job of the highest non-empty priority class.
    fn pop_next(&mut self) -> Option<QueuedJob> {
        for class in &mut self.classes {
            if let Some(job) = class.pop_front() {
                self.depth -= 1;
                return Some(job);
            }
        }
        None
    }
}

/// State shared between the daemon handle and its workers.
struct Shared {
    backend: Backend,
    config: DaemonConfig,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    cache: Mutex<ProgramCache>,
    metrics: Mutex<ServeMetrics>,
    /// Queue-depth gauge mirrored out of the queue lock so metrics
    /// snapshots never contend with admission.
    queue_depth: AtomicU64,
    /// The last-N-jobs trace ring; capacity 0 when tracing is off.
    recorder: Mutex<FlightRecorder>,
    /// Per-op-kind engine profile all workers share; `None` means the
    /// engines run with the compiled-out [`NoProfile`] sink.
    profile: Option<OpProfile>,
    started: Instant,
}

/// Nanoseconds since the daemon started — the clock all trace spans
/// share. Monotonic, so span chains are non-decreasing by construction.
fn now_ns(shared: &Shared) -> u64 {
    shared.started.elapsed().as_nanos() as u64
}

/// Locks a mutex, recovering from poisoning.
///
/// A worker that panics while holding a daemon lock must not take the
/// rest of the pool (or the shutdown drain) with it: every structure
/// guarded here is either monotonic counters or a queue whose entries
/// are self-contained, so the state a panicking thread leaves behind is
/// safe to keep using.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The largest sampled-shot request a spec makes, for admission
/// control. Trajectory kinds count trajectories, sampling kinds count
/// shots; deterministic kinds (statevector, density matrix, exact
/// expectation) are unbounded by this knob — their cost is bounded by
/// the wire format's width caps instead.
fn requested_shots(spec: &JobSpec) -> u64 {
    match spec {
        JobSpec::Counts { shots } | JobSpec::HybridCounts { shots } => *shots as u64,
        other => trajectory_shots(other),
    }
}

/// A handle to the results of one submission, delivered in completion
/// order as workers finish them.
///
/// The stream yields exactly one [`JobResult`] per admitted job
/// (including jobs that failed validation or compilation — those carry
/// typed errors), then ends. Results arrive in **completion order**;
/// use [`ResultStream::collect_ordered`] to reassemble submission
/// order, or match on [`JobResult::id`] against [`ResultStream::ids`].
///
/// Dropping the stream is always safe: workers detect the vanished
/// receiver and discard the remaining results without failing.
#[derive(Debug)]
pub struct ResultStream {
    rx: mpsc::Receiver<JobResult>,
    ids: Vec<JobId>,
    received: usize,
}

impl ResultStream {
    /// The admitted job ids of this submission, in submission order.
    /// Position `i` of the group got `ids()[i]` — and therefore the
    /// seed `stream_seed(base_seed, ids()[i].0)` unless it pinned one.
    pub fn ids(&self) -> &[JobId] {
        &self.ids
    }

    /// Results this stream will deliver in total.
    pub fn expected(&self) -> usize {
        self.ids.len()
    }

    /// Results delivered so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Blocks for the next completed result; `None` once every admitted
    /// job has reported (or, defensively, if the daemon's workers died
    /// before delivering — a state the panic boundary makes
    /// unreachable from request data).
    pub fn recv(&mut self) -> Option<JobResult> {
        if self.received == self.ids.len() {
            return None;
        }
        match self.rx.recv() {
            Ok(result) => {
                self.received += 1;
                Some(result)
            }
            Err(_) => None,
        }
    }

    /// A completed result if one is already waiting; never blocks.
    pub fn try_recv(&mut self) -> Option<JobResult> {
        if self.received == self.ids.len() {
            return None;
        }
        match self.rx.try_recv() {
            Ok(result) => {
                self.received += 1;
                Some(result)
            }
            Err(_) => None,
        }
    }

    /// Drains the stream and returns all results sorted back into
    /// submission order — the blocking shape, equivalent to what
    /// [`crate::run_sequential`] returns for the same requests.
    pub fn collect_ordered(mut self) -> Vec<JobResult> {
        let mut results: Vec<JobResult> = Vec::with_capacity(self.ids.len());
        while let Some(result) = self.recv() {
            results.push(result);
        }
        results.sort_by_key(|r| r.id);
        results
    }
}

impl Iterator for ResultStream {
    type Item = JobResult;

    /// Completion-order iteration; see [`ResultStream::recv`].
    fn next(&mut self) -> Option<JobResult> {
        self.recv()
    }
}

/// The long-lived serving daemon. See the module docs for the
/// submission lifecycle and the determinism contract.
///
/// The handle is `Send + Sync`: share it behind an [`Arc`] across
/// client threads (the TCP front end does exactly that). Dropping the
/// last handle shuts the daemon down gracefully, draining queued work.
#[derive(Debug)]
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .field("queue_depth", &self.queue_depth.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Starts a daemon executing on `backend`: spawns the persistent
    /// worker pool and begins accepting submissions.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero workers, zero
    /// cache capacity, zero queue depth).
    pub fn start(backend: Backend, config: DaemonConfig) -> Self {
        assert!(config.service.workers > 0, "need at least one worker");
        assert!(config.max_queue_depth > 0, "queue depth must be positive");
        let cache = ProgramCache::new(config.service.cache_capacity);
        let workers = config.service.workers;
        let recorder = FlightRecorder::new(config.trace_capacity);
        let profile = config.profile.then(OpProfile::new);
        let shared = Arc::new(Shared {
            backend,
            config,
            queue: Mutex::new(QueueState {
                classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                depth: 0,
                next_job: 0,
                open: true,
            }),
            work_ready: Condvar::new(),
            cache: Mutex::new(cache),
            metrics: Mutex::new(ServeMetrics::default()),
            queue_depth: AtomicU64::new(0),
            recorder: Mutex::new(recorder),
            profile,
            started: Instant::now(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// The daemon configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.shared.config
    }

    /// Jobs currently waiting in the submission queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth.load(Ordering::Relaxed) as usize
    }

    /// A metrics snapshot. `wall_ns` carries the daemon's uptime, so
    /// the derived throughputs are lifetime rates; `queue_depth` is the
    /// gauge at snapshot time.
    pub fn metrics(&self) -> ServeMetrics {
        let mut snapshot = lock(&self.shared.metrics).clone();
        snapshot.wall_ns = self.shared.started.elapsed().as_nanos() as u64;
        snapshot.queue_depth = self.shared.queue_depth.load(Ordering::Relaxed);
        snapshot
    }

    /// The last `n` completed job traces from the flight recorder,
    /// oldest first. Empty when tracing is disabled
    /// ([`DaemonConfig::trace_capacity`] of zero).
    pub fn trace_tail(&self, n: usize) -> Vec<JobTrace> {
        lock(&self.shared.recorder).tail(n)
    }

    /// The cumulative per-op-kind engine profile. All-zero (default)
    /// when profiling is disabled ([`DaemonConfig::profile`] false).
    pub fn profile_snapshot(&self) -> OpProfileSnapshot {
        self.shared
            .profile
            .as_ref()
            .map(OpProfile::snapshot)
            .unwrap_or_default()
    }

    /// Submits one job; a group of one — see [`Daemon::submit_group`].
    ///
    /// # Errors
    ///
    /// [`Rejected`] if admission control refuses the job; nothing was
    /// consumed and a later retry is seed-neutral.
    pub fn submit(
        &self,
        request: JobRequest,
        priority: Priority,
    ) -> Result<ResultStream, Rejected> {
        self.submit_group(vec![request], priority)
    }

    /// Submits a group of jobs atomically under one priority class,
    /// returning the stream of their results.
    ///
    /// The group is screened (size bound, queue bound) before any job
    /// consumes an id/seed position; on acceptance every job is admitted
    /// contiguously, so the group occupies positions
    /// `ids()[0] ..= ids()[n-1]` of the evaluation stream. Jobs that
    /// fail validation consume their position and are answered through
    /// the stream, identical to [`crate::run_sequential`] semantics.
    ///
    /// # Errors
    ///
    /// [`Rejected::TooLarge`] if any job exceeds the per-job shot
    /// bound, [`Rejected::QueueFull`] if the queue cannot take the
    /// whole group, [`Rejected::ShuttingDown`] after shutdown began.
    /// In every case nothing was admitted.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty — an empty group has no results to
    /// stream. The blocking wrappers ([`Daemon::run_batch`],
    /// [`Daemon::expectation_batch`]) answer an empty input with an empty
    /// result instead.
    pub fn submit_group(
        &self,
        requests: Vec<JobRequest>,
        priority: Priority,
    ) -> Result<ResultStream, Rejected> {
        assert!(!requests.is_empty(), "cannot submit an empty group");
        let config = &self.shared.config;
        // Size screening first: it needs no lock and a too-large job
        // must not bump the queue-full counters.
        if let Some(shots) = requests
            .iter()
            .map(|r| requested_shots(&r.spec))
            .filter(|&s| s > config.max_job_shots)
            .max()
        {
            lock(&self.shared.metrics).rejected_large[priority.index()] += requests.len() as u64;
            return Err(Rejected::TooLarge {
                shots,
                limit: config.max_job_shots,
            });
        }
        // Validation is pure in the request, so it can run before the
        // queue lock; failures still consume stream positions below.
        // Timed per job so the validate histogram sees one sample per
        // request, not one per group.
        let enqueued_ns = now_ns(&self.shared);
        let validations: Vec<(Result<(), JobError>, u64)> = requests
            .iter()
            .map(|request| {
                let t0 = Instant::now();
                let validation = validate_request(request);
                (validation, t0.elapsed().as_nanos() as u64)
            })
            .collect();
        let validate_samples: Vec<u64> = validations.iter().map(|(_, ns)| *ns).collect();
        let n_valid = validations.iter().filter(|(v, _)| v.is_ok()).count();
        let tracing = self.shared.config.trace_capacity > 0;

        let (tx, rx) = mpsc::channel();
        let mut ids = Vec::with_capacity(requests.len());
        let depth_after = {
            let mut queue = lock(&self.shared.queue);
            if !queue.open {
                drop(queue);
                // Shutdown rejections are lifecycle, not load; they
                // bump no backpressure counter.
                return Err(Rejected::ShuttingDown);
            }
            if queue.depth + n_valid > config.max_queue_depth {
                let depth = queue.depth;
                drop(queue);
                lock(&self.shared.metrics).rejected_full[priority.index()] += requests.len() as u64;
                return Err(Rejected::QueueFull {
                    depth,
                    limit: config.max_queue_depth,
                });
            }
            for (request, (validation, validate_job_ns)) in requests.into_iter().zip(validations) {
                let id = JobId(queue.next_job);
                queue.next_job += 1;
                let seed = request
                    .seed
                    .unwrap_or_else(|| stream_seed(config.service.base_seed, id.0));
                ids.push(id);
                let trace = tracing.then(|| JobTrace {
                    job: id.0,
                    job_kind: request.spec.kind_index() as u32,
                    priority: priority.index() as u32,
                    shots: requested_shots(&request.spec),
                    cache_hit: false,
                    ok: false,
                    spans: vec![
                        Span {
                            kind: SpanKind::Enqueued,
                            at_ns: enqueued_ns,
                        },
                        Span {
                            kind: SpanKind::Validated,
                            at_ns: enqueued_ns + validate_job_ns,
                        },
                    ],
                });
                let job = PreparedJob {
                    id,
                    seed,
                    params: request.params,
                    spec: request.spec,
                };
                match validation {
                    Err(error) => {
                        // Answered immediately through the stream; the
                        // position is consumed, the queue never sees it.
                        // Its trace is a truncated chain: rejected at
                        // validation, delivered, never scheduled.
                        let _ = tx.send(job.failed(error));
                        if let Some(mut trace) = trace {
                            trace.spans.push(Span {
                                kind: SpanKind::Delivered,
                                at_ns: now_ns(&self.shared),
                            });
                            lock(&self.shared.recorder).record(trace);
                        }
                    }
                    Ok(()) => {
                        let key = request.program.structural_key();
                        let trace = trace.map(|mut trace| {
                            trace.spans.push(Span {
                                kind: SpanKind::Admitted,
                                at_ns: now_ns(&self.shared),
                            });
                            trace
                        });
                        queue.classes[priority.index()].push_back(QueuedJob {
                            job,
                            program: request.program,
                            key,
                            priority,
                            enqueued: Instant::now(),
                            trace,
                            tx: tx.clone(),
                        });
                        queue.depth += 1;
                    }
                }
            }
            queue.depth
        };
        self.shared
            .queue_depth
            .store(depth_after as u64, Ordering::Relaxed);
        {
            let mut metrics = lock(&self.shared.metrics);
            metrics.admitted[priority.index()] += ids.len() as u64;
            for ns in validate_samples {
                metrics.validate_hist.record(ns);
            }
            metrics.batches += 1;
            // Immediately-failed validations never reach a worker, so
            // account for them here.
            metrics.jobs_completed += (ids.len() - n_valid) as u64;
            metrics.jobs_failed += (ids.len() - n_valid) as u64;
        }
        // One wake-up per queued job. Waking every idle worker for one
        // job sends the losers straight back to sleep, but first they
        // compete with the submitting thread for the cores, and a wire
        // handler's ack waits behind them.
        for _ in 0..n_valid {
            self.shared.work_ready.notify_one();
        }
        Ok(ResultStream {
            rx,
            ids,
            received: 0,
        })
    }

    /// The blocking convenience: submits a group at [`Priority::Batch`]
    /// and waits for all results in submission order. An empty input
    /// returns an empty result and consumes nothing.
    pub fn run_batch(&self, requests: Vec<JobRequest>) -> Result<Vec<JobResult>, Rejected> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self
            .submit_group(requests, Priority::Batch)?
            .collect_ordered())
    }

    /// Evaluates `observable` on `circuit` at a slice of parameter
    /// points through the daemon — the served form of an `hgp_optim`
    /// `BatchObjective`. Each optimizer probe batch
    /// is one submitted group; because submission returns as soon as
    /// the group is admitted, a training loop naturally pipelines its
    /// bookkeeping against the pool, and many tenants' objectives
    /// interleave on one daemon.
    ///
    /// ```ignore
    /// let mut objective =
    ///     |xs: &[Vec<f64>]| daemon.expectation_batch(&circuit, &obs, xs, Priority::Interactive);
    /// let result = Cobyla::new(60).minimize_batch(&mut objective, &x0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the submission is rejected or any job fails (an
    /// optimization driver is programmer infrastructure, not a request
    /// boundary). No points means no jobs and an empty result.
    pub fn expectation_batch(
        &self,
        circuit: &Circuit,
        observable: &PauliSum,
        points: &[Vec<f64>],
        priority: Priority,
    ) -> Vec<f64> {
        let requests = points
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
        self.collect_expectations(requests, priority)
    }

    /// The hybrid counterpart of [`Daemon::expectation_batch`]: full
    /// parameter points on a hybrid gate-pulse shape.
    ///
    /// # Panics
    ///
    /// Panics if the submission is rejected or any job fails.
    pub fn hybrid_expectation_batch(
        &self,
        shape: &HybridShape,
        observable: &PauliSum,
        points: &[Vec<f64>],
        priority: Priority,
    ) -> Vec<f64> {
        let requests = points
            .iter()
            .map(|x| {
                JobRequest::hybrid(
                    shape.clone(),
                    x.clone(),
                    JobSpec::HybridExpectation {
                        observable: observable.clone(),
                    },
                )
            })
            .collect();
        self.collect_expectations(requests, priority)
    }

    fn collect_expectations(&self, requests: Vec<JobRequest>, priority: Priority) -> Vec<f64> {
        if requests.is_empty() {
            return Vec::new();
        }
        self.submit_group(requests, priority)
            .expect("objective batch admitted")
            .collect_ordered()
            .into_iter()
            .map(|r| match r.unwrap_output() {
                JobOutput::Expectation { value } => *value,
                other => unreachable!("expectation job produced {other:?}"),
            })
            .collect()
    }

    /// Graceful shutdown: stops admission, **drains** every queued job
    /// (results still stream to their holders), joins the workers, and
    /// returns the final metrics snapshot. Idempotent — later calls
    /// (and the drop guard) are no-ops.
    pub fn shutdown(&self) -> ServeMetrics {
        {
            let mut queue = lock(&self.shared.queue);
            queue.open = false;
        }
        self.shared.work_ready.notify_all();
        let handles: Vec<JoinHandle<()>> = lock(&self.workers).drain(..).collect();
        for handle in handles {
            // A worker that panicked (outside the per-job boundary)
            // reports Err here; the drain already completed on the
            // surviving workers, so the daemon absorbs it.
            let _ = handle.join();
        }
        self.metrics()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The persistent worker loop: take the next job by priority, compile
/// through the shared cache, execute through the shared worker core,
/// stream the result out, account metrics. Exits when the queue is
/// closed **and** empty — shutdown drains.
fn worker_loop(shared: &Shared) {
    let config = &shared.config.service;
    loop {
        let (queued, depth_after) = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_next() {
                    break (job, queue.depth);
                }
                if !queue.open {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        shared
            .queue_depth
            .store(depth_after as u64, Ordering::Relaxed);
        let queue_ns = queued.enqueued.elapsed().as_nanos() as u64;

        // Compile through the shared cache. On a miss the compile runs
        // outside the cache lock — a concurrent worker may compile the
        // same shape redundantly, but compilation is deterministic, so
        // last-insert-wins is harmless and admission never stalls
        // behind a slow compile.
        let cached = lock(&shared.cache).get(queued.key);
        let (artifact, cache_hit, compile_ns) = match cached {
            Some(artifact) => (Ok(artifact), true, 0),
            None => {
                let t0 = Instant::now();
                let compiled = compile_artifact(
                    &shared.backend,
                    &config.layout,
                    config.compile_options,
                    &queued.program,
                );
                let compile_ns = t0.elapsed().as_nanos() as u64;
                if let Ok(artifact) = &compiled {
                    lock(&shared.cache).insert(artifact.clone());
                }
                (compiled, false, compile_ns)
            }
        };

        let shots = trajectory_shots(&queued.job.spec);
        let kind = queued.job.spec.kind_index();
        let priority = queued.priority;
        let mut trace = queued.trace;
        if let Some(trace) = &mut trace {
            trace.cache_hit = cache_hit;
            trace.spans.push(Span {
                kind: SpanKind::Compiled,
                at_ns: now_ns(shared),
            });
        }
        // Bind/execute boundaries are reconstructed from the worker
        // core's timings: the bind span closes `bind_ns` into the
        // execution window, the executed span closes the whole window.
        let exec_start_ns = now_ns(shared);
        let (result, bind_ns) = match artifact {
            Ok(artifact) => match &shared.profile {
                Some(profile) => {
                    execute_job(&shared.backend, &artifact, cache_hit, queued.job, profile)
                }
                None => execute_job(
                    &shared.backend,
                    &artifact,
                    cache_hit,
                    queued.job,
                    &NoProfile,
                ),
            },
            Err(error) => (queued.job.failed(error), 0),
        };
        let exec_ns = result.elapsed_ns.saturating_sub(bind_ns);

        {
            let mut metrics = lock(&shared.metrics);
            if !cache_hit {
                metrics.compile_hist.record(compile_ns);
            }
            metrics.record_job_stages(queue_ns, bind_ns, exec_ns, priority, kind);
            metrics.jobs_completed += 1;
            if result.output.is_err() {
                metrics.jobs_failed += 1;
            } else {
                metrics.shots_executed += shots;
            }
            let cache = lock(&shared.cache);
            metrics.cache_hits = cache.hits();
            metrics.cache_misses = cache.misses();
        }

        if let Some(trace) = &mut trace {
            trace.ok = result.output.is_ok();
            trace.spans.push(Span {
                kind: SpanKind::Bound,
                at_ns: exec_start_ns + bind_ns,
            });
            trace.spans.push(Span {
                kind: SpanKind::Executed,
                at_ns: exec_start_ns + result.elapsed_ns,
            });
        }

        // The trace enters the recorder *before* the result reaches the
        // stream: a client that has seen a job's result is guaranteed to
        // find its trace in the flight recorder. The delivered span is
        // therefore stamped as the result is handed off.
        if let Some(mut trace) = trace {
            trace.spans.push(Span {
                kind: SpanKind::Delivered,
                at_ns: now_ns(shared),
            });
            lock(&shared.recorder).record(trace);
        }
        // The receiver may be long gone (client disconnected, stream
        // dropped); that discards this result and nothing else.
        let _ = queued.tx.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_core::qaoa::qaoa_circuit;
    use hgp_graph::instances;

    fn counts_request(circuit: &Circuit, gamma: f64) -> JobRequest {
        JobRequest::new(
            circuit.clone(),
            vec![gamma, 0.25],
            JobSpec::Counts { shots: 64 },
        )
    }

    #[test]
    fn worker_panic_poisoning_the_queue_cannot_wedge_the_drain() {
        // Simulate the worst mid-job failure: a thread dies while
        // holding the queue lock, poisoning it. Admission and the
        // shutdown drain must recover the lock and finish normally.
        let backend = Backend::ibmq_guadalupe();
        let graph = instances::task1_three_regular_6();
        let circuit = qaoa_circuit(&graph, 1);
        let daemon = Daemon::start(
            backend,
            DaemonConfig::new(vec![0, 1, 2, 3, 4, 5]).with_workers(2),
        );

        let shared = Arc::clone(&daemon.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.queue.lock().unwrap();
            panic!("worker died mid-queue-operation");
        })
        .join();
        assert!(daemon.shared.queue.is_poisoned());

        let stream = daemon
            .submit_group(
                (0..4)
                    .map(|i| counts_request(&circuit, 0.1 * (i + 1) as f64))
                    .collect(),
                Priority::Batch,
            )
            .expect("poisoned lock recovers");
        let results = stream.collect_ordered();
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.output.is_ok()));
        let metrics = daemon.shutdown();
        assert_eq!(metrics.jobs_completed, 4);
    }

    #[test]
    fn empty_batches_return_empty_results_without_consuming_positions() {
        let graph = instances::task1_three_regular_6();
        let circuit = qaoa_circuit(&graph, 1);
        let observable = hgp_core::qaoa::cost_hamiltonian(&graph);
        let shape = HybridShape::new(graph, 1);
        let daemon = Daemon::start(
            Backend::ibmq_guadalupe(),
            DaemonConfig::new(vec![0, 1, 2, 3, 4, 5]).with_workers(1),
        );
        assert!(daemon.run_batch(Vec::new()).expect("admitted").is_empty());
        assert!(daemon
            .expectation_batch(&circuit, &observable, &[], Priority::Interactive)
            .is_empty());
        assert!(daemon
            .hybrid_expectation_batch(&shape, &observable, &[], Priority::Batch)
            .is_empty());
        // Nothing was admitted, so the next job takes position 0.
        let results = daemon
            .run_batch(vec![counts_request(&circuit, 0.3)])
            .expect("admitted");
        assert_eq!(results[0].id, JobId(0));
        let metrics = daemon.shutdown();
        assert_eq!(metrics.batches, 1);
        assert_eq!(metrics.admitted_total(), 1);
    }

    #[test]
    fn strict_priority_scan_order_matches_declaration() {
        assert_eq!(
            Priority::ALL.map(Priority::index),
            [0, 1, 2],
            "metrics arrays index by scan order"
        );
        let mut state = QueueState {
            classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            depth: 0,
            next_job: 0,
            open: true,
        };
        assert!(state.pop_next().is_none());
    }
}
