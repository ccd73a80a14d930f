//! The serving workloads: load applied over a loopback `WireServer` in
//! front of an in-process `Daemon`, through the documented envelope
//! protocol only.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hgp_core::compile::HybridShape;
use hgp_core::models::GateModelOptions;
use hgp_core::qaoa::{cost_hamiltonian, qaoa_circuit};
use hgp_device::Backend;
use hgp_graph::generators::random_regular;
use hgp_graph::{instances, Graph};
use hgp_obs::{JobTrace, OpProfileSnapshot, ReplayOpKind, SpanKind};
use hgp_serve::json::{JsonCodec, Value};
use hgp_serve::{
    Daemon, DaemonConfig, JobId, JobProgram, JobRequest, JobResult, JobSpec, Priority,
    ServeMetrics, WireClient, WireRequest, WireResponse, WireServer,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::reference::{bit_identical, Reference};
use crate::report::{num, obj, text, Check, Values};
use crate::stats::{mean, median, quantile, residual, summarize, tail_quantile};
use crate::Outcome;

/// Offered rate of the `serve_small` open loop, jobs per second. The
/// seed commit sustains it with no growing backlog on a 2-core host.
const SMALL_RATE: f64 = 40.0;

/// Seed of the trajectory workloads' random 3-regular graphs. Fixed:
/// graph structure moves a job's cost by a quarter from graph to graph,
/// which would drown the run-to-run spread. The workload seed drives
/// the job mix, the parameters and the daemon's seed stream.
const GRAPH_SEED: u64 = 1;

/// Jobs the closed loops keep in flight.
const IN_FLIGHT: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Share of the open-loop schedule treated as warm-up and left out of
/// the latency sample.
const WARMUP_SHARE: f64 = 0.1;

/// Flight-recorder capacity of the traced daemon: above any traced
/// phase's job count, so every traced job's spans are read back.
const TRACE_CAPACITY: usize = 1 << 14;

/// A socket read that waits longer than this fails the run.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// How load is applied.
enum Load {
    /// Arrivals on a seeded schedule at a fixed offered rate.
    Open { rate: f64 },
    /// The shipped `WireClient` keeping `IN_FLIGHT` jobs outstanding.
    /// `jobs_s` is the rate the seed commit completes; with the run
    /// length it fixes the tail percentile.
    Closed { jobs_s: f64 },
}

/// One serving workload: its shapes, job mix and load.
pub struct Workload {
    layout: Vec<usize>,
    load: Load,
    /// One minimal job per shape, sent first: compiles the shape and
    /// records its templates.
    warm: Vec<JobRequest>,
    /// The job kinds drawn from; parameters are redrawn per job.
    kinds: Vec<JobRequest>,
}

fn hybrid_shape(graph: &Graph) -> HybridShape {
    HybridShape::new(graph.clone(), 1).with_options(GateModelOptions::optimized())
}

impl Workload {
    /// The named serving workload, or `None`.
    pub fn new(name: &str) -> Option<Self> {
        match name {
            "serve_small" => {
                let graph = instances::task1_three_regular_6();
                let circuit = qaoa_circuit(&graph, 1);
                let shape = hybrid_shape(&graph);
                let observable = cost_hamiltonian(&graph);
                let c = |spec| JobRequest::new(circuit.clone(), vec![0.0; 2], spec);
                let h = |spec| JobRequest::hybrid(shape.clone(), vec![0.0; shape.n_params()], spec);
                Some(Self {
                    layout: vec![0, 1, 2, 3, 5, 8],
                    load: Load::Open { rate: SMALL_RATE },
                    warm: vec![
                        c(JobSpec::Counts { shots: 1 }),
                        h(JobSpec::HybridCounts { shots: 1 }),
                    ],
                    kinds: vec![
                        c(JobSpec::StateVector),
                        c(JobSpec::Expectation {
                            observable: observable.clone(),
                        }),
                        c(JobSpec::Counts { shots: 1024 }),
                        h(JobSpec::HybridExpectation {
                            observable: observable.clone(),
                        }),
                        h(JobSpec::HybridCounts { shots: 1024 }),
                    ],
                })
            }
            "serve_traj" => {
                let graph = random_regular(12, 3, GRAPH_SEED);
                let circuit = qaoa_circuit(&graph, 1);
                let shape = hybrid_shape(&graph);
                let observable = cost_hamiltonian(&graph);
                let c = |spec| JobRequest::new(circuit.clone(), vec![0.0; 2], spec);
                let h = |spec| JobRequest::hybrid(shape.clone(), vec![0.0; shape.n_params()], spec);
                let hte = |trajectories| JobSpec::HybridTrajectoryExpectation {
                    observable: observable.clone(),
                    trajectories,
                };
                Some(Self {
                    layout: vec![0, 1, 2, 3, 5, 8, 11, 14, 13, 12, 10, 7],
                    load: Load::Closed { jobs_s: 2.0 },
                    warm: vec![h(hte(1)), c(JobSpec::TrajectoryCounts { shots: 1 })],
                    kinds: vec![h(hte(256)), c(JobSpec::TrajectoryCounts { shots: 256 })],
                })
            }
            "serve_traj_wide" => {
                let graph = random_regular(16, 3, GRAPH_SEED);
                let circuit = qaoa_circuit(&graph, 1);
                let observable = cost_hamiltonian(&graph);
                let te = |trajectories| {
                    JobRequest::new(
                        circuit.clone(),
                        vec![0.0; 2],
                        JobSpec::TrajectoryExpectation {
                            observable: observable.clone(),
                            trajectories,
                        },
                    )
                };
                Some(Self {
                    layout: (0..16).collect(),
                    load: Load::Closed { jobs_s: 1.0 },
                    warm: vec![te(1)],
                    kinds: vec![te(8)],
                })
            }
            _ => None,
        }
    }

    fn n_qubits(&self) -> usize {
        self.kinds[0].program.n_qubits()
    }

    /// The workload's seeded job stream.
    fn mix(&self, rng: &mut StdRng) -> Mix<'_> {
        Mix {
            w: self,
            rng: StdRng::seed_from_u64(rng.gen()),
            round: Vec::new(),
        }
    }
}

/// A workload's job stream. Kinds come in seeded rounds that hold each
/// kind once, so every run serves the same mix. Parameters are seeded
/// QAOA angles for circuits and the coarse `(gamma, theta)` pair for
/// hybrid shapes with untrimmed pulses.
struct Mix<'w> {
    w: &'w Workload,
    rng: StdRng,
    /// Kinds left in the current round.
    round: Vec<usize>,
}

impl Iterator for Mix<'_> {
    type Item = JobRequest;

    fn next(&mut self) -> Option<JobRequest> {
        if self.round.is_empty() {
            self.round = (0..self.w.kinds.len()).collect();
            self.round.shuffle(&mut self.rng);
        }
        let mut job = self.w.kinds[self.round.pop()?].clone();
        let ids: Vec<usize> = match &job.program {
            JobProgram::Circuit(_) => (0..job.params.len()).collect(),
            JobProgram::Hybrid(shape) => shape.coarse_param_ids(),
        };
        for id in ids {
            job.params[id] = self.rng.gen_range(0.1..1.2);
        }
        Some(job)
    }
}

/// Shots a job samples: measurement shots or trajectories.
fn shots(spec: &JobSpec) -> u64 {
    match spec {
        JobSpec::Counts { shots }
        | JobSpec::HybridCounts { shots }
        | JobSpec::TrajectoryCounts { shots }
        | JobSpec::HybridTrajectoryCounts { shots } => *shots as u64,
        JobSpec::TrajectoryExpectation { trajectories, .. }
        | JobSpec::HybridTrajectoryExpectation { trajectories, .. } => *trajectories as u64,
        _ => 0,
    }
}

/// One job as the client saw it.
struct Sent {
    request: JobRequest,
    /// When the schedule wanted it sent (open loop) or when the client
    /// began submitting it (closed loop).
    due: Instant,
    sent: Instant,
    acked: Option<Instant>,
    done: Option<Instant>,
    id: Option<JobId>,
    rejected: bool,
    result: Option<JobResult>,
    warmup: bool,
}

impl Sent {
    fn new(request: JobRequest, due: Instant, warmup: bool) -> Self {
        Self {
            request,
            due,
            sent: due,
            acked: None,
            done: None,
            id: None,
            rejected: false,
            result: None,
            warmup,
        }
    }

    fn ok(&self) -> bool {
        self.result.as_ref().is_some_and(|r| r.output.is_ok())
    }

    fn latency_ms(&self) -> Option<f64> {
        Some(self.done?.duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// One measured phase.
struct Phase {
    name: &'static str,
    jobs: Vec<Sent>,
    start: Instant,
    /// How late the generator sent each job, ms (open loop only).
    lag_ms: Vec<f64>,
    transport_error: Option<String>,
}

impl Phase {
    fn measured(&self) -> impl Iterator<Item = &Sent> {
        self.jobs.iter().filter(|j| !j.warmup)
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.measured().filter_map(Sent::latency_ms).collect()
    }

    fn failed(&self) -> u64 {
        self.jobs.iter().filter(|j| !j.ok()).count() as u64
    }

    /// Jobs per second and shots per second over the phase's wall:
    /// start to the last result in hand.
    fn throughput(&self) -> (f64, f64) {
        let end = self.jobs.iter().filter_map(|j| j.done).max();
        let wall = end.map_or(f64::NAN, |e| e.duration_since(self.start).as_secs_f64());
        let ok: Vec<&Sent> = self.jobs.iter().filter(|j| j.ok()).collect();
        let shots: u64 = ok.iter().map(|j| shots(&j.request.spec)).sum();
        (ok.len() as f64 / wall, shots as f64 / wall)
    }

    /// `{sent, succeeded, failed, rejected}` for the phase and its
    /// warm-up and measured parts.
    fn counts(&self) -> Value {
        let count = |warmup: Option<bool>| {
            let jobs: Vec<&Sent> = self
                .jobs
                .iter()
                .filter(|j| warmup.is_none_or(|w| j.warmup == w))
                .collect();
            let ok = jobs.iter().filter(|j| j.ok()).count();
            let rejected = jobs.iter().filter(|j| j.rejected).count();
            obj(vec![
                ("sent", Value::from_usize(jobs.len())),
                ("succeeded", Value::from_usize(ok)),
                ("failed", Value::from_usize(jobs.len() - ok - rejected)),
                ("rejected", Value::from_usize(rejected)),
            ])
        };
        let mut members = vec![("phase", text(self.name)), ("all", count(None))];
        if self.jobs.iter().any(|j| j.warmup) {
            members.push(("warmup", count(Some(true))));
            members.push(("measured", count(Some(false))));
        }
        if !self.lag_ms.is_empty() {
            members.push(("loadgen_lag_p99_ms", num(quantile(&self.lag_ms, 0.99))));
        }
        if let Some(error) = &self.transport_error {
            members.push(("transport_error", text(error.clone())));
        }
        obj(members)
    }
}

/// A daemon behind a loopback wire front end.
struct Server {
    daemon: Arc<Daemon>,
    wire: WireServer,
}

impl Server {
    fn start(backend: &Backend, layout: &[usize], seed: u64, traced: bool) -> io::Result<Self> {
        let config = DaemonConfig::new(layout.to_vec())
            .with_base_seed(seed)
            .with_trace_capacity(if traced { TRACE_CAPACITY } else { 0 })
            .with_profiling(traced);
        let daemon = Arc::new(Daemon::start(backend.clone(), config));
        let wire = WireServer::start(Arc::clone(&daemon), "127.0.0.1:0")?;
        Ok(Self { daemon, wire })
    }

    fn addr(&self) -> SocketAddr {
        self.wire.local_addr()
    }

    fn stop(mut self) {
        self.wire.shutdown();
        self.daemon.shutdown();
    }
}

/// Starts a server and waits for the first result of each shape.
fn warm_server(
    backend: &Backend,
    w: &Workload,
    seed: u64,
    traced: bool,
) -> io::Result<(f64, Server)> {
    let t0 = Instant::now();
    let server = Server::start(backend, &w.layout, seed, traced)?;
    let mut client = WireClient::connect(server.addr())?;
    for job in &w.warm {
        if let Err(rejected) = client.submit(job.clone(), Priority::Interactive)? {
            return Err(io::Error::other(format!(
                "warm-up job rejected: {rejected}"
            )));
        }
    }
    for result in client.collect_results(w.warm.len())? {
        if let Err(e) = result.output {
            return Err(io::Error::other(format!("warm-up job failed: {e}")));
        }
    }
    Ok((t0.elapsed().as_secs_f64(), server))
}

/// The open loop: a writer thread sends pre-encoded envelopes on the
/// seeded schedule; this thread reads acks and results.
fn open_loop(addr: SocketAddr, w: &Workload, rate: f64, seconds: f64, rng: &mut StdRng) -> Phase {
    // The schedule: arrivals `1/rate` apart on average, each gap
    // jittered uniformly by +-50%.
    let mut schedule: Vec<(Duration, JobRequest)> = Vec::new();
    let mut jobs = w.mix(rng);
    let mut at = 0.0;
    while at < seconds {
        let job = jobs.next().expect("the mix never ends");
        schedule.push((Duration::from_secs_f64(at), job));
        at += rng.gen_range(0.5..1.5) / rate;
    }
    let lines: Vec<String> = schedule
        .iter()
        .map(|(_, request)| {
            let envelope = WireRequest::Submit {
                request: request.clone(),
                priority: Priority::Interactive,
            };
            envelope.to_json_string() + "\n"
        })
        .collect();
    let warmup_until = Duration::from_secs_f64(seconds * WARMUP_SHARE);
    let start = Instant::now() + Duration::from_millis(20);
    let mut phase = Phase {
        name: "measure",
        jobs: schedule
            .into_iter()
            .map(|(due, request)| Sent::new(request, start + due, due < warmup_until))
            .collect(),
        start,
        lag_ms: Vec::new(),
        transport_error: None,
    };
    if let Err(e) = drive_open_loop(addr, &lines, &mut phase) {
        phase.transport_error = Some(e.to_string());
    }
    phase
}

fn drive_open_loop(addr: SocketAddr, lines: &[String], phase: &mut Phase) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let closer = stream.try_clone()?;
    let dues: Vec<Instant> = phase.jobs.iter().map(|j| j.due).collect();
    let (sent_tx, sent_rx) = mpsc::channel::<Instant>();
    std::thread::scope(|scope| -> io::Result<()> {
        let sender = scope.spawn(move || -> io::Result<()> {
            for (line, due) in lines.iter().zip(dues) {
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                // Stamped before the write, so the reader always finds
                // the send time of the envelope it is acking.
                let _ = sent_tx.send(Instant::now());
                if let Err(e) = writer.write_all(line.as_bytes()) {
                    // Wake the reader instead of leaving it to time out.
                    let _ = writer.shutdown(Shutdown::Both);
                    return Err(e);
                }
            }
            Ok(())
        });
        let read = read_open_loop(stream, &sent_rx, phase);
        if read.is_err() {
            // Fail the sender's next write instead of serving the rest
            // of the schedule to a dead connection.
            let _ = closer.shutdown(Shutdown::Both);
        }
        let sent = sender.join().expect("sender thread panicked");
        read.and(sent)
    })?;
    phase.lag_ms = phase
        .jobs
        .iter()
        .map(|j| j.sent.duration_since(j.due).as_secs_f64() * 1e3)
        .collect();
    Ok(())
}

fn read_open_loop(
    stream: TcpStream,
    sent_rx: &mpsc::Receiver<Instant>,
    phase: &mut Phase,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let (mut acks, mut outstanding) = (0usize, 0usize);
    let mut line = String::new();
    while acks < phase.jobs.len() || outstanding > 0 {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let now = Instant::now();
        let response = WireResponse::from_json_str(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        match response {
            WireResponse::Accepted { ids } => {
                let [id] = ids[..] else {
                    return Err(io::Error::other(format!("one job acked as {ids:?}")));
                };
                let job = &mut phase.jobs[acks];
                job.sent = sent_rx.recv().map_err(io::Error::other)?;
                job.acked = Some(now);
                job.id = Some(id);
                by_id.insert(id.0, acks);
                acks += 1;
                outstanding += 1;
            }
            WireResponse::Rejected { .. } => {
                let job = &mut phase.jobs[acks];
                job.sent = sent_rx.recv().map_err(io::Error::other)?;
                job.acked = Some(now);
                job.rejected = true;
                acks += 1;
            }
            WireResponse::Result { result } => {
                let index = by_id
                    .remove(&result.id.0)
                    .ok_or_else(|| io::Error::other(format!("unexpected result {}", result.id)))?;
                phase.jobs[index].done = Some(now);
                phase.jobs[index].result = Some(result);
                outstanding -= 1;
            }
            other => return Err(io::Error::other(format!("unexpected envelope {other:?}"))),
        }
    }
    Ok(())
}

/// The closed loop: one `WireClient` keeping `IN_FLIGHT` jobs
/// outstanding until `seconds` have passed, then draining.
fn closed_loop(addr: SocketAddr, w: &Workload, seconds: f64, rng: &mut StdRng) -> Phase {
    let start = Instant::now();
    let mut phase = Phase {
        name: "measure",
        jobs: Vec::new(),
        start,
        lag_ms: Vec::new(),
        transport_error: None,
    };
    if let Err(e) = drive_closed_loop(
        addr,
        w,
        start + Duration::from_secs_f64(seconds),
        rng,
        &mut phase,
    ) {
        phase.transport_error = Some(e.to_string());
    }
    phase
}

fn drive_closed_loop(
    addr: SocketAddr,
    w: &Workload,
    deadline: Instant,
    rng: &mut StdRng,
    phase: &mut Phase,
) -> io::Result<()> {
    let mut client = WireClient::connect(addr)?;
    let mut jobs = w.mix(rng);
    let mut submit = |client: &mut WireClient, phase: &mut Phase| -> io::Result<()> {
        let request = jobs.next().expect("the mix never ends");
        let mut job = Sent::new(request, Instant::now(), false);
        let ack = client.submit(job.request.clone(), Priority::Interactive)?;
        job.acked = Some(Instant::now());
        match ack {
            Ok(ids) => job.id = ids.first().copied(),
            Err(_) => job.rejected = true,
        }
        phase.jobs.push(job);
        Ok(())
    };
    for _ in 0..IN_FLIGHT {
        submit(&mut client, phase)?;
    }
    loop {
        let outstanding = phase
            .jobs
            .iter()
            .filter(|j| j.id.is_some() && j.done.is_none())
            .count();
        if outstanding == 0 {
            return Ok(());
        }
        let result = client.next_result()?;
        let now = Instant::now();
        let index = phase
            .jobs
            .iter()
            .position(|j| j.id == Some(result.id) && j.done.is_none())
            .ok_or_else(|| io::Error::other(format!("unexpected result {}", result.id)))?;
        phase.jobs[index].done = Some(now);
        phase.jobs[index].result = Some(result);
        if now < deadline {
            submit(&mut client, phase)?;
        }
    }
}

fn measure(addr: SocketAddr, w: &Workload, seconds: f64, rng: &mut StdRng) -> Phase {
    match w.load {
        Load::Open { rate } => open_loop(addr, w, rate, seconds, rng),
        Load::Closed { .. } => closed_loop(addr, w, seconds, rng),
    }
}

/// Median wall of `f` over a few repetitions, us.
fn time_us(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Codec costs of one job's envelopes, us, timed on the workload's own
/// request and result.
struct Codec {
    /// Encoding the request envelope alone.
    request_encode_us: f64,
    /// Encoding the request, ack and result envelopes.
    encode_us: f64,
    decode_us: f64,
    request_bytes: f64,
    result_bytes: f64,
}

fn codec_cost(job: &Sent) -> Option<Codec> {
    let request = WireRequest::Submit {
        request: job.request.clone(),
        priority: Priority::Interactive,
    };
    let ack = WireResponse::Accepted { ids: vec![job.id?] };
    let result = WireResponse::Result {
        result: job.result.clone()?,
    };
    let (request_line, ack_line, result_line) = (
        request.to_json_string(),
        ack.to_json_string(),
        result.to_json_string(),
    );
    let request_encode_us = time_us(|| {
        std::hint::black_box(request.to_json_string());
    });
    let encode_us = request_encode_us
        + time_us(|| {
            std::hint::black_box(ack.to_json_string());
        })
        + time_us(|| {
            std::hint::black_box(result.to_json_string());
        });
    let decode_us = time_us(|| {
        std::hint::black_box(WireRequest::from_json_str(&request_line).ok());
    }) + time_us(|| {
        std::hint::black_box(WireResponse::from_json_str(&ack_line).ok());
    }) + time_us(|| {
        std::hint::black_box(WireResponse::from_json_str(&result_line).ok());
    });
    Some(Codec {
        request_encode_us,
        encode_us,
        decode_us,
        request_bytes: request_line.len() as f64 + 1.0,
        result_bytes: result_line.len() as f64 + 1.0,
    })
}

/// Nanosecond span between two trace marks, as `unit` (1e3 = us).
fn span(trace: &JobTrace, from: SpanKind, to: SpanKind, unit: f64) -> Option<f64> {
    Some((trace.at(to)?.checked_sub(trace.at(from)?)?) as f64 / unit)
}

/// The traced phase's per-layer numbers and latency accounting.
fn layer_breakdown(
    w: &Workload,
    traced: &Phase,
    traces: &[JobTrace],
    metrics: &ServeMetrics,
    profile: &OpProfileSnapshot,
    values: &mut Values,
) -> Value {
    let by_id: HashMap<u64, &JobTrace> = traces.iter().map(|t| (t.job, t)).collect();
    let jobs: Vec<(&Sent, &JobTrace)> = traced
        .measured()
        .filter(|j| j.ok())
        .filter_map(|j| Some((j, *by_id.get(&j.id?.0)?)))
        .collect();
    let open = matches!(w.load, Load::Open { .. });
    // Client latency from the moment the envelope went out.
    let client_ms = |j: &Sent| j.done.map(|d| d.duration_since(j.sent).as_secs_f64() * 1e3);
    let daemon_ms = |t: &JobTrace| span(t, SpanKind::Enqueued, SpanKind::Delivered, 1e6);
    let acks: Vec<f64> = traced
        .measured()
        .filter_map(|j| Some(j.acked?.duration_since(j.sent).as_secs_f64() * 1e3))
        .collect();
    let wire: Vec<f64> = jobs
        .iter()
        .filter_map(|(j, t)| Some(client_ms(j)? - daemon_ms(t)?))
        .collect();
    let stage = |from, to, unit| -> Vec<f64> {
        jobs.iter()
            .filter_map(|(_, t)| span(t, from, to, unit))
            .collect()
    };
    let queue_hits: Vec<f64> = jobs
        .iter()
        .filter(|(_, t)| t.cache_hit)
        .filter_map(|(_, t)| span(t, SpanKind::Admitted, SpanKind::Compiled, 1e6))
        .collect();
    let codecs: Vec<Codec> = jobs.iter().filter_map(|(j, _)| codec_cost(j)).collect();
    let codec_mean = |f: fn(&Codec) -> f64| mean(&codecs.iter().map(f).collect::<Vec<_>>());
    values.insert("wire.ack_ms", median(&acks));
    values.insert("wire.deliver_ms", median(&wire));
    // Per envelope: each job carries a request and a result envelope
    // (the ack is a few bytes).
    values.insert("json.encode_us", codec_mean(|c| c.encode_us) / 2.0);
    values.insert("json.decode_us", codec_mean(|c| c.decode_us) / 2.0);
    values.insert("json.request_bytes", codec_mean(|c| c.request_bytes));
    values.insert("json.result_bytes", codec_mean(|c| c.result_bytes));
    values.insert(
        "daemon.admit_us",
        median(&stage(SpanKind::Enqueued, SpanKind::Admitted, 1e3)),
    );
    values.insert(
        "daemon.queue_ms",
        quantile(&queue_hits, tail_quantile(queue_hits.len() as f64)),
    );
    values.insert(
        "daemon.deliver_us",
        median(&stage(SpanKind::Executed, SpanKind::Delivered, 1e3)),
    );
    values.insert("cache.hit_ratio", metrics.cache_hit_rate());
    let total_ns = profile.total_ns() as f64;
    for kind in ReplayOpKind::ALL {
        let name = match kind {
            ReplayOpKind::DiagRun => "engine.diag_run_pct",
            ReplayOpKind::Dense1q => "engine.dense_1q_pct",
            ReplayOpKind::Dense2q => "engine.dense_2q_pct",
            ReplayOpKind::MixedChannel => "engine.mixed_channel_pct",
            ReplayOpKind::GeneralChannel => "engine.general_channel_pct",
            ReplayOpKind::Renorm => "engine.renorm_pct",
        };
        values.insert(
            name,
            100.0 * profile.ns[kind.index()] as f64 / total_ns.max(1.0),
        );
    }

    // Accounting, in per-job means so the parts add up: client latency
    // = codec + admission + queue + bind + exec + delivery + residual.
    // The residual is time on the socket and in framing that no layer
    // owns. The open loop encodes its requests before they are due.
    let latency = mean(
        &jobs
            .iter()
            .filter_map(|(j, _)| client_ms(j))
            .collect::<Vec<_>>(),
    );
    let codec_ms = codec_mean(|c| c.encode_us + c.decode_us) / 1e3
        - if open {
            codec_mean(|c| c.request_encode_us) / 1e3
        } else {
            0.0
        };
    let parts = [
        ("json codec", codec_ms),
        (
            "daemon admit",
            mean(&stage(SpanKind::Enqueued, SpanKind::Admitted, 1e6)),
        ),
        (
            "daemon queue + compile",
            mean(&stage(SpanKind::Admitted, SpanKind::Compiled, 1e6)),
        ),
        (
            "template bind",
            mean(&stage(SpanKind::Compiled, SpanKind::Bound, 1e6)),
        ),
        (
            "engine exec",
            mean(&stage(SpanKind::Bound, SpanKind::Executed, 1e6)),
        ),
        (
            "daemon deliver",
            mean(&stage(SpanKind::Executed, SpanKind::Delivered, 1e6)),
        ),
    ];
    let (left, left_pct) = residual(latency, &parts.iter().map(|p| p.1).collect::<Vec<_>>());
    values.insert("accounting.residual_pct", left_pct);
    let mut rows: Vec<Value> = parts
        .iter()
        .map(|(name, ms)| {
            obj(vec![
                ("layer", text(*name)),
                ("mean_ms", num(*ms)),
                ("share_pct", num(100.0 * ms / latency)),
            ])
        })
        .collect();
    rows.push(obj(vec![
        ("layer", text("residual: socket and framing wait")),
        ("mean_ms", num(left)),
        ("share_pct", num(left_pct)),
    ]));
    obj(vec![
        (
            "what",
            text("client latency from send, per-job means over traced jobs"),
        ),
        ("jobs", Value::from_usize(jobs.len())),
        ("client_latency_mean_ms", num(latency)),
        ("parts", Value::Arr(rows)),
    ])
}

/// Runs one serving workload for `seconds`.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let backend = Backend::ibmq_guadalupe();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checks = Vec::new();
    let mut values = Values::new();
    let mut report: Vec<(&'static str, Value)> = vec![(
        "load",
        text(match w.load {
            Load::Open { rate } => {
                format!("open loop, {rate} jobs/s offered, 1 connection, 2 generator threads")
            }
            Load::Closed { .. } => {
                format!("closed loop, WireClient with {IN_FLIGHT} jobs in flight, 1 connection")
            }
        }),
    )];
    let mut phases: Vec<Phase> = Vec::new();
    let mut outcome_error: Option<String> = None;

    // Set-up, several times: start to the first result of each shape.
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        match warm_server(&backend, w, seed, false) {
            Ok((secs, server)) => {
                setups.push(secs);
                if let Some(old) = live.replace(server) {
                    old.stop();
                }
            }
            Err(e) => outcome_error = Some(format!("set-up failed: {e}")),
        }
    }
    values.insert("setup_s", median(&setups));
    report.push((
        "setup_s_samples",
        Value::Arr(setups.iter().map(|&s| num(s)).collect()),
    ));

    let untraced_seconds = if trace { seconds / 2.0 } else { seconds };
    let mut untraced_p50 = f64::NAN;
    if let Some(server) = live.take() {
        let phase = measure(server.addr(), w, untraced_seconds, &mut rng);
        server.stop();
        let expected = match w.load {
            Load::Open { rate } => rate * untraced_seconds * (1.0 - WARMUP_SHARE),
            Load::Closed { jobs_s } => jobs_s * untraced_seconds,
        };
        let latency = summarize(&phase.latencies_ms(), tail_quantile(expected));
        let (jobs_s, shots_s) = phase.throughput();
        untraced_p50 = latency.p50;
        values.insert("latency_p50_ms", latency.p50);
        values.insert("latency_tail_ms", latency.tail);
        values.insert("throughput_jobs_s", jobs_s);
        values.insert("throughput_shots_s", shots_s);
        if !phase.lag_ms.is_empty() {
            values.insert("loadgen.lag_ms", quantile(&phase.lag_ms, 0.99));
        }
        report.push((
            "latency",
            obj(vec![
                ("samples", Value::from_usize(latency.n)),
                ("p50_ms", num(latency.p50)),
                ("tail_percentile", num(100.0 * latency.tail_q)),
                ("tail_ms", num(latency.tail)),
                (
                    "samples_ms",
                    Value::Arr(phase.latencies_ms().into_iter().map(num).collect()),
                ),
            ]),
        ));
        if matches!(w.load, Load::Open { .. }) {
            // A growing backlog shows as later jobs waiting longer.
            let lat = phase.latencies_ms();
            let quarter = lat.len() / 4;
            if quarter > 0 {
                report.push((
                    "backlog_last_vs_first_quarter_p50",
                    num(median(&lat[lat.len() - quarter..]) / median(&lat[..quarter])),
                ));
            }
        }
        phases.push(phase);
    }

    let mut breakdown = Value::Null;
    if trace && outcome_error.is_none() {
        match traced_phase(&backend, w, seed, seconds / 2.0, &mut rng) {
            Ok((phase, traces, metrics, profile)) => {
                let p50 = median(&phase.latencies_ms());
                values.insert("trace.overhead_pct", 100.0 * (p50 / untraced_p50 - 1.0));
                breakdown = layer_breakdown(w, &phase, &traces, &metrics, &profile, &mut values);
                let complete = traces.iter().filter(|t| t.is_complete_chain()).count();
                checks.push(Check::new(
                    "every traced job has a complete span chain",
                    complete == traces.len() && !traces.is_empty(),
                    format!("{complete} of {} traces complete", traces.len()),
                ));
                phases.push(phase);
            }
            Err(e) => outcome_error = Some(format!("traced phase failed: {e}")),
        }
    }
    values.insert(
        "engine.shots_per_block",
        crate::host::shots_per_block(w.n_qubits()) as f64,
    );

    // Correctness, outside the timed window.
    let attempted: u64 = phases.iter().map(|p| p.jobs.len() as u64).sum();
    let failed: u64 = phases.iter().map(Phase::failed).sum();
    checks.push(Check::new(
        "every serving result is Ok",
        failed == 0 && attempted > 0 && phases.iter().all(|p| p.transport_error.is_none()),
        format!("{failed} of {attempted} jobs failed, were rejected or lost"),
    ));
    if let Some(error) = outcome_error {
        checks.push(Check::new("the run completed", false, error));
    }
    let mut reference = Reference::new(&backend, &w.layout);
    checks.push(reference_check(&mut reference, &phases, w, &mut rng));
    let times = &reference.times;
    for (name, samples) in [
        ("compile.circuit_ms", &times.compile_circuit_ms),
        ("compile.hybrid_ms", &times.compile_hybrid_ms),
        ("template.record_ms", &times.record_ms),
        ("bind.exact_us", &times.bind_exact_us),
        ("bind.replay_us", &times.bind_replay_us),
        ("exec.exact_ms", &times.exec_exact_ms),
        ("exec.statevector_us", &times.exec_statevector_us),
        ("exec.traj_ms_per_shot", &times.traj_ms_per_shot),
    ] {
        if !samples.is_empty() {
            values.insert(name, median(samples));
        }
    }

    report.push((
        "phases",
        Value::Arr(phases.iter().map(Phase::counts).collect()),
    ));
    if trace {
        report.push(("layer_accounting", breakdown));
    }
    Outcome {
        attempted,
        failed,
        checks,
        values,
        report,
    }
}

/// A fresh traced, profiled daemon: warm, measure, read telemetry back
/// over the wire.
fn traced_phase(
    backend: &Backend,
    w: &Workload,
    seed: u64,
    seconds: f64,
    rng: &mut StdRng,
) -> io::Result<(Phase, Vec<JobTrace>, ServeMetrics, OpProfileSnapshot)> {
    let (_, server) = warm_server(backend, w, seed, true)?;
    let mut phase = measure(server.addr(), w, seconds, rng);
    phase.name = "traced";
    let readback = (|| -> io::Result<_> {
        let mut client = WireClient::connect(server.addr())?;
        let traces = client.trace_tail(TRACE_CAPACITY)?;
        let (metrics, profile) = client.metrics_snapshot()?;
        Ok((traces, metrics, profile))
    })();
    server.stop();
    let (traces, metrics, profile) = readback?;
    Ok((phase, traces, metrics, profile))
}

/// Re-executes a seeded sample of served jobs on the sequential
/// reference at their recorded seeds: a few of every kind.
fn reference_check(
    reference: &mut Reference<'_>,
    phases: &[Phase],
    w: &Workload,
    rng: &mut StdRng,
) -> Check {
    let per_kind = if w.n_qubits() <= 6 { 3 } else { 1 };
    let mut served: Vec<&Sent> = phases
        .iter()
        .flat_map(|p| p.jobs.iter())
        .filter(|j| j.ok())
        .collect();
    served.shuffle(rng);
    let mut taken: HashMap<usize, usize> = HashMap::new();
    let (mut compared, mut mismatches) = (0usize, Vec::new());
    for job in served {
        let kind = job.request.spec.kind_index();
        let n = taken.entry(kind).or_insert(0);
        if *n == per_kind {
            continue;
        }
        *n += 1;
        let result = job.result.as_ref().expect("ok jobs have results");
        compared += 1;
        match (reference.execute(&job.request, result.seed), &result.output) {
            (Ok(expected), Ok(got)) if bit_identical(&expected, got) => {}
            (expected, _) => mismatches.push(format!(
                "job {} ({}): reference {}",
                result.id,
                job.request.spec.kind_name(),
                match expected {
                    Ok(_) => "differs".to_string(),
                    Err(e) => format!("failed: {e}"),
                }
            )),
        }
    }
    Check::new(
        "sampled results bit-identical to the sequential reference",
        compared > 0 && mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("{compared} results compared")
        } else {
            mismatches.join("; ")
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_serve::JobOutput;

    /// A served `serve_small` statevector job, as the client recorded it.
    fn served(output: JobOutput) -> Phase {
        let w = Workload::new("serve_small").expect("known workload");
        let request = w
            .mix(&mut StdRng::seed_from_u64(3))
            .find(|j| j.spec == JobSpec::StateVector);
        let now = Instant::now();
        let mut job = Sent::new(request.expect("the mix holds statevector jobs"), now, false);
        job.id = Some(JobId(0));
        job.done = Some(now);
        job.result = Some(JobResult {
            id: JobId(0),
            seed: 11,
            cache_hit: true,
            elapsed_ns: 1,
            output: Ok(output),
        });
        Phase {
            name: "measure",
            jobs: vec![job],
            start: now,
            lag_ms: Vec::new(),
            transport_error: None,
        }
    }

    #[test]
    fn a_corrupted_served_result_fails_the_reference_check() {
        let w = Workload::new("serve_small").expect("known workload");
        let backend = Backend::ibmq_guadalupe();
        let mut rng = StdRng::seed_from_u64(1);
        let probe = served(JobOutput::Expectation { value: 0.0 });
        let job = &probe.jobs[0];
        let truth = Reference::new(&backend, &w.layout)
            .execute(&job.request, 11)
            .expect("reference runs");
        let mut check = |output| {
            let phases = [served(output)];
            reference_check(
                &mut Reference::new(&backend, &w.layout),
                &phases,
                &w,
                &mut rng,
            )
        };
        assert!(check(truth.clone()).passed);
        let JobOutput::StateVector { mut probabilities } = truth else {
            panic!("statevector job")
        };
        probabilities[5] = f64::from_bits(probabilities[5].to_bits() ^ 1);
        let failed = check(JobOutput::StateVector { probabilities });
        assert!(!failed.passed, "{}", failed.detail);
    }
}
