//! The daemon's TCP front end: line-delimited JSON envelopes.
//!
//! One connection, two interleaved directions. The client writes
//! [`WireRequest`] envelopes, one JSON object per `\n`-terminated line;
//! the server answers with [`WireResponse`] envelopes on the same
//! framing, reusing the canonical [`crate::json`] codec for every
//! payload (requests, results, metrics), so the socket format *is* the
//! documented JSON format.
//!
//! # Protocol
//!
//! - `{"op":"ping"}` → `{"op":"pong"}`; `{"op":"metrics"}` → a
//!   [`ServeMetrics`] snapshot.
//! - `{"op":"metrics_snapshot"}` → metrics **plus** the per-op-kind
//!   engine profile; `{"op":"trace_tail","limit":N}` → the flight
//!   recorder's last N per-job span traces, oldest first.
//! - `{"op":"submit",...}` / `{"op":"submit_group",...}` runs daemon
//!   admission. The **acknowledgement comes first**: an `accepted`
//!   envelope carrying the admitted [`JobId`]s (the submission's
//!   id/seed-stream positions) or a `rejected` envelope carrying the
//!   typed [`Rejected`] reason. After the ack, each job's `result`
//!   envelope arrives **as it completes** — results of *different*
//!   submissions on one connection may interleave; correlate by job id.
//! - A malformed line gets an `error` envelope; the connection stays up.
//!   Lines above [`MAX_LINE_BYTES`] close the connection (hostile-input
//!   bound).
//! - A connection arriving while [`MAX_CONNECTIONS`] are open gets one
//!   `error` envelope and is closed before the daemon sees it, so it
//!   consumes no job id or seed. Line buffers are therefore bounded per
//!   server at `MAX_CONNECTIONS × MAX_LINE_BYTES` (256 MiB).
//!
//! # Framing
//!
//! Both ends write each envelope as one frame (text and `\n` in a
//! single write) on a `TCP_NODELAY` socket. A frame split across two
//! writes would leave its `\n` in Nagle's buffer until the peer's
//! delayed ACK, stalling every round trip by tens of milliseconds.
//!
//! [`WireClient`] speaks the client side, buffering interleaved result
//! envelopes so `submit → ack` reads stay simple. The `serve_daemon`
//! example drives a full mixed-priority session over a loopback socket.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use hgp_obs::{JobTrace, OpProfileSnapshot};

use crate::daemon::{lock, Daemon, ResultStream};
use crate::job::{JobId, JobRequest, JobResult, Priority, Rejected};
use crate::json::{obj, JsonCodec, Value};
use crate::metrics::ServeMetrics;

/// Hard per-line bound (8 MiB): a connection that streams an unframed
/// or hostile payload is closed instead of buffering without limit.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Hard bound on concurrently open connections (32): past it, a new
/// connection is answered with one `error` envelope and closed, so the
/// server's line buffers stay within `MAX_CONNECTIONS × MAX_LINE_BYTES`.
pub const MAX_CONNECTIONS: usize = 32;

/// A client-to-server envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Submit one job under a priority class.
    Submit {
        /// The job.
        request: JobRequest,
        /// Its scheduling class.
        priority: Priority,
    },
    /// Submit a job group atomically under one priority class.
    SubmitGroup {
        /// The jobs, admitted all-or-nothing.
        requests: Vec<JobRequest>,
        /// The group's scheduling class.
        priority: Priority,
    },
    /// Request a [`ServeMetrics`] snapshot.
    Metrics,
    /// Request the observability snapshot: [`ServeMetrics`] plus the
    /// cumulative per-op-kind engine profile
    /// ([`hgp_obs::OpProfileSnapshot`], all-zero when profiling is
    /// disabled).
    MetricsSnapshot,
    /// Request the last `limit` traces from the daemon's flight
    /// recorder, oldest first.
    TraceTail {
        /// Maximum traces to return.
        limit: usize,
    },
    /// Liveness probe.
    Ping,
}

/// A server-to-client envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// A submission was admitted; the ids are its stream positions, in
    /// submission order.
    Accepted {
        /// Admitted job ids.
        ids: Vec<JobId>,
    },
    /// A submission was refused at admission; nothing was consumed.
    Rejected {
        /// The typed reason.
        rejected: Rejected,
    },
    /// One completed job, delivered in completion order.
    Result {
        /// The job's result (output or typed error).
        result: JobResult,
    },
    /// A metrics snapshot.
    Metrics {
        /// Daemon-lifetime counters; `wall_ns` is uptime.
        metrics: ServeMetrics,
    },
    /// Answer to [`WireRequest::MetricsSnapshot`].
    MetricsSnapshot {
        /// Daemon-lifetime counters and histograms.
        metrics: ServeMetrics,
        /// Cumulative per-op-kind engine profile; all-zero when the
        /// daemon runs unprofiled.
        profile: OpProfileSnapshot,
    },
    /// Answer to [`WireRequest::TraceTail`].
    TraceTail {
        /// The recorder's last traces, oldest first.
        traces: Vec<JobTrace>,
    },
    /// Answer to [`WireRequest::Ping`].
    Pong,
    /// A protocol-level failure (malformed line, unrepresentable
    /// result); the connection stays open.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl JsonCodec for WireRequest {
    fn to_json(&self) -> Value {
        match self {
            WireRequest::Submit { request, priority } => obj(vec![
                ("op", Value::Str("submit".into())),
                ("request", request.to_json()),
                ("priority", priority.to_json()),
            ]),
            WireRequest::SubmitGroup { requests, priority } => obj(vec![
                ("op", Value::Str("submit_group".into())),
                (
                    "requests",
                    Value::Arr(requests.iter().map(JsonCodec::to_json).collect()),
                ),
                ("priority", priority.to_json()),
            ]),
            WireRequest::Metrics => obj(vec![("op", Value::Str("metrics".into()))]),
            WireRequest::MetricsSnapshot => {
                obj(vec![("op", Value::Str("metrics_snapshot".into()))])
            }
            WireRequest::TraceTail { limit } => obj(vec![
                ("op", Value::Str("trace_tail".into())),
                ("limit", Value::from_usize(*limit)),
            ]),
            WireRequest::Ping => obj(vec![("op", Value::Str("ping".into()))]),
        }
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        match value.get("op")?.as_str()? {
            "submit" => Ok(WireRequest::Submit {
                request: JobRequest::from_json(value.get("request")?)?,
                priority: Priority::from_json(value.get("priority")?)?,
            }),
            "submit_group" => Ok(WireRequest::SubmitGroup {
                requests: value
                    .get("requests")?
                    .as_arr()?
                    .iter()
                    .map(JobRequest::from_json)
                    .collect::<Result<_, _>>()?,
                priority: Priority::from_json(value.get("priority")?)?,
            }),
            "metrics" => Ok(WireRequest::Metrics),
            "metrics_snapshot" => Ok(WireRequest::MetricsSnapshot),
            "trace_tail" => Ok(WireRequest::TraceTail {
                limit: value.get("limit")?.as_usize()?,
            }),
            "ping" => Ok(WireRequest::Ping),
            other => Err(format!("unknown request op {other:?}")),
        }
    }
}

impl JsonCodec for WireResponse {
    fn to_json(&self) -> Value {
        match self {
            WireResponse::Accepted { ids } => obj(vec![
                ("op", Value::Str("accepted".into())),
                (
                    "ids",
                    Value::Arr(ids.iter().map(JsonCodec::to_json).collect()),
                ),
            ]),
            WireResponse::Rejected { rejected } => obj(vec![
                ("op", Value::Str("rejected".into())),
                ("rejected", rejected.to_json()),
            ]),
            WireResponse::Result { result } => obj(vec![
                ("op", Value::Str("result".into())),
                ("result", result.to_json()),
            ]),
            WireResponse::Metrics { metrics } => obj(vec![
                ("op", Value::Str("metrics".into())),
                ("metrics", metrics.to_json()),
            ]),
            WireResponse::MetricsSnapshot { metrics, profile } => obj(vec![
                ("op", Value::Str("metrics_snapshot".into())),
                ("metrics", metrics.to_json()),
                ("profile", profile.to_json()),
            ]),
            WireResponse::TraceTail { traces } => obj(vec![
                ("op", Value::Str("trace_tail".into())),
                (
                    "traces",
                    Value::Arr(traces.iter().map(JsonCodec::to_json).collect()),
                ),
            ]),
            WireResponse::Pong => obj(vec![("op", Value::Str("pong".into()))]),
            WireResponse::Error { message } => obj(vec![
                ("op", Value::Str("error".into())),
                ("message", Value::Str(message.clone())),
            ]),
        }
    }

    fn from_json(value: &Value) -> Result<Self, String> {
        match value.get("op")?.as_str()? {
            "accepted" => Ok(WireResponse::Accepted {
                ids: value
                    .get("ids")?
                    .as_arr()?
                    .iter()
                    .map(JobId::from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "rejected" => Ok(WireResponse::Rejected {
                rejected: Rejected::from_json(value.get("rejected")?)?,
            }),
            "result" => Ok(WireResponse::Result {
                result: JobResult::from_json(value.get("result")?)?,
            }),
            "metrics" => Ok(WireResponse::Metrics {
                metrics: ServeMetrics::from_json(value.get("metrics")?)?,
            }),
            "metrics_snapshot" => Ok(WireResponse::MetricsSnapshot {
                metrics: ServeMetrics::from_json(value.get("metrics")?)?,
                profile: OpProfileSnapshot::from_json(value.get("profile")?)?,
            }),
            "trace_tail" => Ok(WireResponse::TraceTail {
                traces: value
                    .get("traces")?
                    .as_arr()?
                    .iter()
                    .map(JobTrace::from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "pong" => Ok(WireResponse::Pong),
            "error" => Ok(WireResponse::Error {
                message: value.get("message")?.as_str()?.to_string(),
            }),
            other => Err(format!("unknown response op {other:?}")),
        }
    }
}

/// Reads one `\n`-terminated line, bounded at [`MAX_LINE_BYTES`].
///
/// Returns `Ok(None)` on a clean EOF at a line boundary. A line that
/// exceeds the bound or input that ends mid-line is an error.
fn read_capped_line<R: Read>(reader: &mut BufReader<R>) -> io::Result<Option<String>> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                ))
            };
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(at) => (&buf[..at], true),
            None => (buf, false),
        };
        if line.len() + chunk.len() > MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line exceeds {MAX_LINE_BYTES} bytes"),
            ));
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(done);
        reader.consume(consumed);
        if done {
            let text = String::from_utf8(line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            return Ok(Some(text));
        }
    }
}

/// Writes one envelope as one frame: the JSON text and its trailing
/// `\n` in a single buffer and a single `write_all`.
///
/// A frame split across two writes stalls under Nagle's algorithm: the
/// lone `\n` waits for the peer's delayed ACK (tens of ms on Linux), and
/// the peer cannot act until it has the newline. Together with
/// `TCP_NODELAY` on both ends, one write per envelope keeps every round
/// trip free of that stall.
fn write_frame<W: Write>(writer: &mut W, mut text: String) -> io::Result<()> {
    text.push('\n');
    writer.write_all(text.as_bytes())
}

/// Writes one envelope frame under the connection's writer lock, so a
/// streaming forwarder and the request handler never tear each other's
/// lines. Returns `false` once the peer is gone.
fn write_line<W: Write>(writer: &Mutex<W>, text: String) -> bool {
    write_frame(&mut *lock(writer), text).is_ok()
}

/// Encodes a response defensively: [`Value::from_f64`] panics on
/// non-finite numbers (JSON cannot carry them), and a job is allowed to
/// *produce* a NaN expectation from NaN parameters — that must become
/// an `error` envelope, not a dead forwarder thread.
fn encode_response(response: &WireResponse) -> Result<String, String> {
    catch_unwind(AssertUnwindSafe(|| response.to_json_string())).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unrepresentable response".to_string())
    })
}

/// The TCP front end of a [`Daemon`]: accepts connections and speaks
/// the line-delimited envelope protocol. See the module docs.
#[derive(Debug)]
pub struct WireServer {
    daemon: Arc<Daemon>,
    listener_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    /// Live connection streams by connection id, for forced unblock at
    /// shutdown. A handler removes its own entry when it exits, so the
    /// registry holds one descriptor per *open* connection.
    conns: Arc<Mutex<BTreeMap<u64, TcpStream>>>,
    accept_handle: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop over `daemon`.
    ///
    /// # Errors
    ///
    /// Errors if the address cannot be bound.
    pub fn start(daemon: Arc<Daemon>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let listener_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<BTreeMap<u64, TcpStream>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let accept_handle = {
            let daemon = Arc::clone(&daemon);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                for (conn_id, stream) in (0u64..).zip(listener.incoming()) {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Dropping a finished thread's handle releases it.
                    handlers.retain(|h| !h.is_finished());
                    let Ok(stream) = stream else { continue };
                    // Only this loop inserts, so the count cannot grow
                    // between this check and the insert below.
                    if lock(&conns).len() >= MAX_CONNECTIONS {
                        refuse_connection(stream);
                        continue;
                    }
                    let Ok(registered) = stream.try_clone() else {
                        continue;
                    };
                    {
                        // `shutdown` sets `stop` before it drains the
                        // registry, so re-checking under the registry lock
                        // means a connection is either registered in time
                        // to be severed or refused here.
                        let mut live = lock(&conns);
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        live.insert(conn_id, registered);
                    }
                    let daemon = Arc::clone(&daemon);
                    let conns = Arc::clone(&conns);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(daemon, stream);
                        lock(&conns).remove(&conn_id);
                    }));
                }
                for handle in handlers {
                    let _ = handle.join();
                }
            })
        };
        Ok(Self {
            daemon,
            listener_addr,
            stop,
            conns,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (the port to connect to when started on
    /// port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener_addr
    }

    /// The daemon behind this front end.
    pub fn daemon(&self) -> &Arc<Daemon> {
        &self.daemon
    }

    /// Stops accepting, severs live connections, and joins the accept
    /// loop (which joins the per-connection handlers). The daemon keeps
    /// running — shut it down separately to drain its queue. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.listener_addr);
        for conn in std::mem::take(&mut *lock(&self.conns)).into_values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answers a connection past [`MAX_CONNECTIONS`] with one typed `error`
/// envelope and closes it without reading from it. The line fits any
/// socket send buffer, so the write cannot stall the accept loop.
fn refuse_connection(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let message = format!("server is at its limit of {MAX_CONNECTIONS} open connections");
    let _ = write_frame(
        &mut stream,
        WireResponse::Error { message }.to_json_string(),
    );
    let _ = stream.shutdown(Shutdown::Write);
}

/// Serves one connection: parse a request line, answer it (for a
/// submission: run daemon admission and write the ack), and hand
/// accepted streams to a forwarder thread that delivers `result`
/// envelopes as jobs complete.
fn handle_connection(daemon: Arc<Daemon>, stream: TcpStream) {
    // Best effort: without it envelopes still arrive, only later.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let writer = Arc::new(Mutex::new(stream));
    let mut forwarders: Vec<JoinHandle<()>> = Vec::new();
    // A clean EOF, an oversized line, or a severed socket all end the
    // session; queued jobs still run, their results are discarded by
    // the send-to-gone-receiver path.
    while let Ok(Some(line)) = read_capped_line(&mut reader) {
        if line.trim().is_empty() {
            continue;
        }
        let (response, accepted) = match WireRequest::from_json_str(&line) {
            Err(message) => (WireResponse::Error { message }, None),
            Ok(WireRequest::Ping) => (WireResponse::Pong, None),
            Ok(WireRequest::Metrics) => (
                WireResponse::Metrics {
                    metrics: daemon.metrics(),
                },
                None,
            ),
            Ok(WireRequest::MetricsSnapshot) => (
                WireResponse::MetricsSnapshot {
                    metrics: daemon.metrics(),
                    profile: daemon.profile_snapshot(),
                },
                None,
            ),
            Ok(WireRequest::TraceTail { limit }) => (
                WireResponse::TraceTail {
                    traces: daemon.trace_tail(limit),
                },
                None,
            ),
            Ok(WireRequest::Submit { request, priority }) => {
                admit(&daemon, vec![request], priority)
            }
            Ok(WireRequest::SubmitGroup { requests, priority }) => {
                admit(&daemon, requests, priority)
            }
        };
        // Ack first — the protocol promises the client its ids before
        // any result of this submission.
        if !write_line(&writer, response.to_json_string()) {
            break;
        }
        if let Some(stream) = accepted {
            forwarders.retain(|h| !h.is_finished());
            forwarders.push(forward_results(Arc::clone(&writer), stream));
        }
    }
    for handle in forwarders {
        let _ = handle.join();
    }
}

/// Runs daemon admission for one submission: the ack (or typed refusal)
/// to write, plus the accepted jobs' result stream.
fn admit(
    daemon: &Daemon,
    requests: Vec<JobRequest>,
    priority: Priority,
) -> (WireResponse, Option<ResultStream>) {
    if requests.is_empty() {
        let message = "cannot submit an empty group".to_string();
        return (WireResponse::Error { message }, None);
    }
    match daemon.submit_group(requests, priority) {
        Err(rejected) => (WireResponse::Rejected { rejected }, None),
        Ok(stream) => (
            WireResponse::Accepted {
                ids: stream.ids().to_vec(),
            },
            Some(stream),
        ),
    }
}

/// Spawns the thread that writes each of `stream`'s results as a
/// `result` envelope as it completes.
fn forward_results(writer: Arc<Mutex<TcpStream>>, stream: ResultStream) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for result in stream {
            let id = result.id;
            let text =
                encode_response(&WireResponse::Result { result }).unwrap_or_else(|message| {
                    WireResponse::Error {
                        message: format!("result for {id} not representable: {message}"),
                    }
                    .to_json_string()
                });
            // A write fails once the peer is gone: keep draining silently
            // so the daemon's workers never block on this stream.
            write_line(&writer, text);
        }
    })
}

/// A blocking client for the envelope protocol.
///
/// Because results stream in completion order and may interleave with
/// later acks, the client buffers `result` envelopes internally: the
/// submit helpers return as soon as *their* ack arrives, and
/// [`WireClient::next_result`] serves buffered results first.
#[derive(Debug)]
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buffered: VecDeque<JobResult>,
}

impl WireClient {
    /// Connects to a [`WireServer`].
    ///
    /// # Errors
    ///
    /// Errors if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: stream,
            buffered: VecDeque::new(),
        })
    }

    /// Sends one raw request envelope.
    ///
    /// # Errors
    ///
    /// Errors if the socket write fails.
    pub fn send(&mut self, request: &WireRequest) -> io::Result<()> {
        write_frame(&mut self.writer, request.to_json_string())
    }

    /// Reads the next response envelope off the socket (not the result
    /// buffer).
    ///
    /// # Errors
    ///
    /// Errors on EOF, an oversized line, or a malformed envelope.
    pub fn recv(&mut self) -> io::Result<WireResponse> {
        let line = read_capped_line(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        WireResponse::from_json_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Reads until a non-`result` envelope arrives, buffering the
    /// results that interleave.
    fn recv_ack(&mut self) -> io::Result<WireResponse> {
        loop {
            match self.recv()? {
                WireResponse::Result { result } => self.buffered.push_back(result),
                other => return Ok(other),
            }
        }
    }

    /// Submits one job; `Ok(Err(rejected))` is a daemon-level refusal,
    /// the outer error a transport/protocol failure.
    ///
    /// # Errors
    ///
    /// Errors if the transport fails or the server violates protocol.
    pub fn submit(
        &mut self,
        request: JobRequest,
        priority: Priority,
    ) -> io::Result<Result<Vec<JobId>, Rejected>> {
        self.send(&WireRequest::Submit { request, priority })?;
        self.read_submit_ack()
    }

    /// Submits a job group atomically; see [`WireClient::submit`].
    ///
    /// # Errors
    ///
    /// Errors if the transport fails or the server violates protocol.
    pub fn submit_group(
        &mut self,
        requests: Vec<JobRequest>,
        priority: Priority,
    ) -> io::Result<Result<Vec<JobId>, Rejected>> {
        self.send(&WireRequest::SubmitGroup { requests, priority })?;
        self.read_submit_ack()
    }

    fn read_submit_ack(&mut self) -> io::Result<Result<Vec<JobId>, Rejected>> {
        match self.recv_ack()? {
            WireResponse::Accepted { ids } => Ok(Ok(ids)),
            WireResponse::Rejected { rejected } => Ok(Err(rejected)),
            WireResponse::Error { message } => {
                Err(io::Error::new(io::ErrorKind::InvalidData, message))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected submission ack, got {other:?}"),
            )),
        }
    }

    /// The next completed job: buffered results first, then the socket.
    ///
    /// # Errors
    ///
    /// Errors if the transport fails or a non-`result` envelope arrives
    /// while results are owed.
    pub fn next_result(&mut self) -> io::Result<JobResult> {
        if let Some(result) = self.buffered.pop_front() {
            return Ok(result);
        }
        match self.recv()? {
            WireResponse::Result { result } => Ok(result),
            WireResponse::Error { message } => {
                Err(io::Error::new(io::ErrorKind::InvalidData, message))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected result, got {other:?}"),
            )),
        }
    }

    /// Collects `n` results and sorts them into id order.
    ///
    /// # Errors
    ///
    /// Errors if any [`WireClient::next_result`] read fails.
    pub fn collect_results(&mut self, n: usize) -> io::Result<Vec<JobResult>> {
        let mut results = Vec::with_capacity(n);
        for _ in 0..n {
            results.push(self.next_result()?);
        }
        results.sort_by_key(|r| r.id);
        Ok(results)
    }

    /// Fetches a metrics snapshot.
    ///
    /// # Errors
    ///
    /// Errors if the transport fails or the server violates protocol.
    pub fn metrics(&mut self) -> io::Result<ServeMetrics> {
        self.send(&WireRequest::Metrics)?;
        match self.recv_ack()? {
            WireResponse::Metrics { metrics } => Ok(metrics),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected metrics, got {other:?}"),
            )),
        }
    }

    /// Fetches the observability snapshot: metrics plus the per-op-kind
    /// engine profile.
    ///
    /// # Errors
    ///
    /// Errors if the transport fails or the server violates protocol.
    pub fn metrics_snapshot(&mut self) -> io::Result<(ServeMetrics, OpProfileSnapshot)> {
        self.send(&WireRequest::MetricsSnapshot)?;
        match self.recv_ack()? {
            WireResponse::MetricsSnapshot { metrics, profile } => Ok((metrics, profile)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected metrics snapshot, got {other:?}"),
            )),
        }
    }

    /// Fetches the last `limit` job traces from the daemon's flight
    /// recorder, oldest first.
    ///
    /// # Errors
    ///
    /// Errors if the transport fails or the server violates protocol.
    pub fn trace_tail(&mut self, limit: usize) -> io::Result<Vec<JobTrace>> {
        self.send(&WireRequest::TraceTail { limit })?;
        match self.recv_ack()? {
            WireResponse::TraceTail { traces } => Ok(traces),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected trace tail, got {other:?}"),
            )),
        }
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Errors if the transport fails or the server violates protocol.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send(&WireRequest::Ping)?;
        match self.recv_ack()? {
            WireResponse::Pong => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected pong, got {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use hgp_core::qaoa::qaoa_circuit;
    use hgp_graph::instances;

    /// A `Write` that accepts every byte in one call and counts calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One `write` carrying exactly the envelope text and one `\n`.
    fn assert_one_frame(writer: &CountingWriter, text: &str) {
        assert_eq!(writer.writes, 1, "one write per envelope");
        assert_eq!(writer.bytes, format!("{text}\n").as_bytes());
        let newlines = writer.bytes.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(newlines, 1, "the frame's only newline is its last byte");
    }

    #[test]
    fn server_framing_is_one_write_per_envelope() {
        let responses = [
            WireResponse::Pong,
            WireResponse::Accepted {
                ids: (0..64).map(JobId).collect(),
            },
            // An embedded newline must be escaped, not end the frame.
            WireResponse::Error {
                message: "two\nlines".repeat(10_000),
            },
        ];
        for response in responses {
            let text = response.to_json_string();
            let writer = Mutex::new(CountingWriter::default());
            assert!(write_line(&writer, text.clone()));
            assert_one_frame(&writer.into_inner().unwrap(), &text);
        }
    }

    #[test]
    fn client_framing_is_one_write_per_envelope() {
        let circuit = qaoa_circuit(&instances::task1_three_regular_6(), 1);
        let request = JobRequest::new(circuit, vec![0.35, 0.25], JobSpec::StateVector);
        let requests = [
            WireRequest::Ping,
            WireRequest::Submit {
                request: request.clone(),
                priority: Priority::Interactive,
            },
            WireRequest::SubmitGroup {
                requests: vec![request; 32],
                priority: Priority::Batch,
            },
        ];
        // `WireClient::send` is exactly `write_frame` over its stream.
        for request in requests {
            let text = request.to_json_string();
            let mut writer = CountingWriter::default();
            write_frame(&mut writer, text.clone()).unwrap();
            assert_one_frame(&writer, &text);
        }
    }

    #[test]
    fn capped_line_reader_enforces_the_bound() {
        let text = "short line\n";
        let mut reader = BufReader::new(text.as_bytes());
        assert_eq!(
            read_capped_line(&mut reader).unwrap().as_deref(),
            Some("short line")
        );
        assert_eq!(read_capped_line(&mut reader).unwrap(), None);

        let mut eof_mid_line = BufReader::new("no newline".as_bytes());
        assert!(read_capped_line(&mut eof_mid_line).is_err());

        let huge = vec![b'x'; MAX_LINE_BYTES + 1];
        let mut oversized = BufReader::new(&huge[..]);
        assert!(read_capped_line(&mut oversized).is_err());
    }

    #[test]
    fn envelope_errors_name_the_unknown_op() {
        let err = WireRequest::from_json_str(r#"{"op":"frobnicate"}"#).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        let err = WireResponse::from_json_str(r#"{"op":"frobnicate"}"#).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
    }
}
