//! The daemon: accept loops, per-connection threads, admission batching,
//! deadlines, degradation, panic isolation, and graceful shutdown.
//!
//! # Threading model
//!
//! One accept thread per endpoint, one thread per accepted connection
//! (pruned as connections close), and a fixed pool of batch workers behind
//! the bounded [`Admission`] queue. Everything is std threads over blocking
//! sockets with short read timeouts — the poll tick doubles as the
//! shutdown-latency bound, so no thread is ever more than one tick away
//! from observing the shutdown flag.
//!
//! # Request lifecycle
//!
//! Cheap requests (predict, insert, remove, health, stats) are answered
//! inline on the connection thread. Pipeline requests (explain, verify,
//! repair) are
//! enqueued as jobs; batch workers drain the queue in admission order,
//! concatenate the jobs' pairs into one order-preserving
//! `explain_and_score_batch` / `score_batch` call, and slice the results
//! back per job — which is why batched serving is bit-identical to
//! sequential: the pipeline maps each pair independently and order is
//! preserved end to end.
//!
//! # Robustness invariants
//!
//! - **Bounded admission**: a full queue is an immediate typed
//!   [`Response::Overloaded`] with a retry hint — never unbounded
//!   buffering, never a blocked producer.
//! - **Deadlines with cooperative checkpoints**: every request carries a
//!   deadline; workers re-check it after dequeue (before compute) and
//!   after compute (before encode), so expired work is abandoned at stage
//!   boundaries instead of holding the pipeline.
//! - **Panic isolation**: request handling and batch compute run under
//!   `catch_unwind`; a poisoned request becomes a typed
//!   [`Response::Internal`] and a counter increment, and the daemon keeps
//!   serving.
//! - **No hangs**: reads poll with a stall budget ([`protocol::read_frame`]),
//!   writes carry a write timeout, job waits are bounded by the deadline
//!   plus a margin, and shutdown self-connects to unblock accept loops. A
//!   peer can always distinguish "rejected" (typed response) from "dead"
//!   (closed connection); it can never observe silence forever.

use crate::engine::{Engine, MutateError};
use crate::fault::{ConnFaults, FaultPlan, FaultyStream};
use crate::protocol::{
    self, FrameError, Request, Response, ResponseFrame, StatsReply, Tier, MAX_FRAME,
};
use crate::queue::{Admission, PushError};
use crate::ServeError;
use ea_graph::AlignmentPair;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A wall-clock point a request must be answered by.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7878` (port `0` = ephemeral).
    Tcp(String),
    /// A unix-domain socket path (stale files are replaced on bind).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Server tuning knobs. The defaults favour test determinism and low
/// shutdown latency; a production deployment would raise the queue and
/// batch sizes.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound on queued pipeline jobs; beyond it requests are rejected with
    /// [`Response::Overloaded`].
    pub queue_capacity: usize,
    /// Most jobs one pipeline batch concatenates.
    pub max_batch: usize,
    /// Batch worker threads.
    pub batch_workers: usize,
    /// Poll tick for idle reads and queue waits — also the bound on how
    /// long any thread takes to observe shutdown.
    pub read_poll: Duration,
    /// How long a peer may stall mid-frame before the connection is
    /// declared torn.
    pub stall_budget: Duration,
    /// Deadline applied when a request carries `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Retry hint returned with [`Response::Overloaded`].
    pub retry_after_ms: u32,
    /// How long [`ServerHandle::shutdown`] waits for in-flight work.
    pub drain_deadline: Duration,
    /// Load (queued + executing requests) at which load-routed predicts
    /// degrade to [`Tier::Partial`].
    pub degrade_partial_at: usize,
    /// Load at which load-routed predicts degrade to [`Tier::Sq8`].
    pub degrade_sq8_at: usize,
    /// Deterministic fault schedule (empty in production).
    pub fault: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            max_batch: 16,
            batch_workers: 2,
            read_poll: Duration::from_millis(20),
            stall_budget: Duration::from_secs(2),
            default_deadline: Duration::from_secs(5),
            retry_after_ms: 50,
            drain_deadline: Duration::from_secs(2),
            degrade_partial_at: 8,
            degrade_sq8_at: 16,
            fault: FaultPlan::default(),
        }
    }
}

/// Serving counters (atomics; read via [`Counters::snapshot`]).
#[derive(Debug, Default)]
struct Counters {
    served: AtomicU64,
    overloaded: AtomicU64,
    deadline_expired: AtomicU64,
    shutting_down: AtomicU64,
    bad_requests: AtomicU64,
    panics: AtomicU64,
    transport_faults: AtomicU64,
    batches: AtomicU64,
    batched_pairs: AtomicU64,
    degraded_partial: AtomicU64,
    degraded_sq8: AtomicU64,
    connections: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> StatsReply {
        StatsReply {
            served: self.served.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            shutting_down: self.shutting_down.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            transport_faults: self.transport_faults.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_pairs: self.batched_pairs.load(Ordering::Relaxed),
            degraded_partial: self.degraded_partial.load(Ordering::Relaxed),
            degraded_sq8: self.degraded_sq8.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
        }
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A pipeline job queued for the batch workers.
struct Job {
    work: Work,
    deadline: Deadline,
    reply: SyncSender<Response>,
}

enum Work {
    Explain(AlignmentPair),
    Verify(Vec<AlignmentPair>),
    Repair,
}

struct Shared {
    engine: &'static Engine,
    config: ServerConfig,
    shutdown: AtomicBool,
    queue: Admission<Job>,
    inflight: AtomicUsize,
    counters: Counters,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The tier a load-routed predict would be served at right now.
    fn current_tier(&self) -> Tier {
        let load = self.queue.depth() + self.inflight.load(Ordering::Relaxed);
        if load >= self.config.degrade_sq8_at {
            Tier::Sq8
        } else if load >= self.config.degrade_partial_at {
            Tier::Partial
        } else {
            Tier::Full
        }
    }
}

/// Decrements the inflight gauge on every exit path, including unwinds.
struct InflightGuard<'a>(&'a AtomicUsize);

impl<'a> InflightGuard<'a> {
    fn enter(gauge: &'a AtomicUsize) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        InflightGuard(gauge)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Transport> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Transport::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Transport::Unix(s)),
        }
    }
}

/// A connected byte stream over either endpoint kind.
enum Transport {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Transport {
    fn set_timeouts(&self, read: Duration, write: Duration) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => {
                // Frames are a tiny prefix write followed by the payload;
                // with Nagle on, the pair collides with delayed ACKs and
                // quantizes every round trip to ~40ms on loopback.
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
            #[cfg(unix)]
            Transport::Unix(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
        }
    }
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Transport::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Transport::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A running daemon; dropping it without [`ServerHandle::shutdown`] leaves
/// the threads serving until process exit (the binary's normal mode).
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    tcp_addrs: Vec<SocketAddr>,
    #[cfg(unix)]
    unix_paths: Vec<PathBuf>,
}

/// What [`ServerHandle::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Queued jobs answered [`Response::ShuttingDown`] because the drain
    /// deadline expired before a worker reached them.
    pub aborted_jobs: usize,
    /// Whether the drain finished inside the deadline (`false` means the
    /// deadline expired with work still in flight).
    pub drained: bool,
}

/// Builder entry point: binds endpoints and spawns the serving threads.
pub struct Server;

impl Server {
    /// Starts the daemon on the given endpoints.
    pub fn start(
        engine: &'static Engine,
        endpoints: &[Endpoint],
        config: ServerConfig,
    ) -> Result<ServerHandle, ServeError> {
        if endpoints.is_empty() {
            return Err(ServeError::Config(
                "at least one endpoint is required".to_string(),
            ));
        }
        let mut listeners = Vec::with_capacity(endpoints.len());
        let mut tcp_addrs = Vec::new();
        #[cfg(unix)]
        let mut unix_paths = Vec::new();
        for endpoint in endpoints {
            match endpoint {
                Endpoint::Tcp(addr) => {
                    let listener =
                        TcpListener::bind(addr.as_str()).map_err(|e| ServeError::Bind {
                            endpoint: addr.clone(),
                            source: e,
                        })?;
                    if let Ok(local) = listener.local_addr() {
                        tcp_addrs.push(local);
                    }
                    listeners.push(Listener::Tcp(listener));
                }
                #[cfg(unix)]
                Endpoint::Unix(path) => {
                    // A stale socket file from a previous run would fail the
                    // bind; replace it. (A *live* daemon on the same path is
                    // indistinguishable from a stale file here — deployments
                    // own path uniqueness.)
                    let _ = std::fs::remove_file(path);
                    let listener = UnixListener::bind(path).map_err(|e| ServeError::Bind {
                        endpoint: path.display().to_string(),
                        source: e,
                    })?;
                    unix_paths.push(path.clone());
                    listeners.push(Listener::Unix(listener));
                }
            }
        }

        let shared = Arc::new(Shared {
            engine,
            queue: Admission::new(config.queue_capacity),
            config,
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            counters: Counters::default(),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let mut worker_threads = Vec::new();
        for w in 0..shared.config.batch_workers.max(1) {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("exea-serve-worker-{w}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| ServeError::Config(format!("cannot spawn worker thread: {e}")))?;
            worker_threads.push(handle);
        }

        let mut accept_threads = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            let handle = std::thread::Builder::new()
                .name(format!("exea-serve-accept-{i}"))
                .spawn(move || accept_loop(&shared, listener, &conns))
                .map_err(|e| ServeError::Config(format!("cannot spawn accept thread: {e}")))?;
            accept_threads.push(handle);
        }

        Ok(ServerHandle {
            shared,
            accept_threads,
            worker_threads,
            conns,
            tcp_addrs,
            #[cfg(unix)]
            unix_paths,
        })
    }
}

impl ServerHandle {
    /// The bound TCP address (useful with ephemeral ports), if any.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addrs.first().copied()
    }

    /// Current serving counters.
    pub fn stats(&self) -> StatsReply {
        self.shared.counters.snapshot()
    }

    /// Graceful shutdown: stop accepting, drain in-flight and queued work
    /// under the drain deadline, answer whatever remains with
    /// [`Response::ShuttingDown`], and join every thread.
    pub fn shutdown(self) -> DrainReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);

        // Unblock the accept loops: each is parked in a blocking accept and
        // needs one connection attempt to wake and observe the flag.
        for addr in &self.tcp_addrs {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(200));
        }
        #[cfg(unix)]
        for path in &self.unix_paths {
            let _ = UnixStream::connect(path);
        }
        for handle in self.accept_threads {
            let _ = handle.join();
        }

        // Drain: let the workers finish queued + executing jobs within the
        // deadline.
        let drain_until = Instant::now() + self.shared.config.drain_deadline;
        while (self.shared.queue.depth() > 0 || self.shared.inflight.load(Ordering::Relaxed) > 0)
            && Instant::now() < drain_until
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        let drained =
            self.shared.queue.depth() == 0 && self.shared.inflight.load(Ordering::Relaxed) == 0;

        // Whatever survived the deadline gets a typed rejection, and the
        // closed queue is the workers' exit signal.
        let leftovers = self.shared.queue.close();
        let aborted_jobs = leftovers.len();
        for job in leftovers {
            Counters::bump(&self.shared.counters.shutting_down);
            let _ = job.reply.try_send(Response::ShuttingDown);
        }
        for handle in self.worker_threads {
            let _ = handle.join();
        }

        // Connection threads observe the flag within one poll tick.
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }

        #[cfg(unix)]
        for path in &self.unix_paths {
            let _ = std::fs::remove_file(path);
        }

        DrainReport {
            aborted_jobs,
            drained,
        }
    }
}

// ---------------------------------------------------------------------------
// Accept + connection loops
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: Listener, conns: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    loop {
        if shared.shutting_down() {
            return;
        }
        let transport = match listener.accept() {
            Ok(t) => t,
            Err(_) => continue,
        };
        if shared.shutting_down() {
            // Accepted during shutdown (possibly our own wake-up probe):
            // drop it; the client sees a clean EOF, not silence.
            return;
        }
        let seq = shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        let faults = shared.config.fault.for_connection(seq);
        let shared_conn = Arc::clone(shared);
        let spawn = std::thread::Builder::new()
            .name(format!("exea-serve-conn-{seq}"))
            .spawn(move || connection_loop(&shared_conn, transport, faults));
        if let Ok(handle) = spawn {
            let mut guard = conns.lock().unwrap_or_else(PoisonError::into_inner);
            guard.retain(|h| !h.is_finished());
            guard.push(handle);
        }
    }
}

/// Best-effort request id from an undecodable payload (the first 8 bytes),
/// so even a `BadRequest` can be correlated when the prefix survived.
fn request_id_of(payload: &[u8]) -> u64 {
    if payload.len() >= 8 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&payload[..8]);
        u64::from_le_bytes(raw)
    } else {
        0
    }
}

fn connection_loop(shared: &Arc<Shared>, transport: Transport, faults: ConnFaults) {
    if transport
        .set_timeouts(shared.config.read_poll, shared.config.stall_budget)
        .is_err()
    {
        return;
    }
    let inject_panic = faults.panic_in_handler;
    let mut stream = FaultyStream::new(transport, faults);
    loop {
        if shared.shutting_down() {
            return;
        }
        let payload = match protocol::read_frame(&mut stream, MAX_FRAME, shared.config.stall_budget)
        {
            Ok(Some(payload)) => payload,
            Ok(None) => continue, // idle tick; re-check shutdown
            Err(FrameError::Closed) => return,
            Err(FrameError::TooLarge { len }) => {
                Counters::bump(&shared.counters.bad_requests);
                // The stream position is unrecoverable past an
                // oversized prefix: answer, then close.
                let frame = ResponseFrame {
                    id: 0,
                    response: Response::BadRequest {
                        message: format!("frame of {len} bytes exceeds the cap"),
                    },
                };
                let _ = protocol::write_frame(&mut stream, &protocol::encode_response(&frame));
                return;
            }
            Err(FrameError::Torn { .. } | FrameError::Stalled { .. } | FrameError::Io(_)) => {
                Counters::bump(&shared.counters.transport_faults);
                return;
            }
        };

        // Panic isolation: anything that unwinds out of decoding or
        // handling becomes a typed Internal response; the daemon survives.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_payload(shared, &payload, inject_panic)
        }));
        let frame = match outcome {
            Ok(frame) => frame,
            Err(_) => {
                Counters::bump(&shared.counters.panics);
                ResponseFrame {
                    id: request_id_of(&payload),
                    response: Response::Internal {
                        message: "request handler panicked; request isolated".to_string(),
                    },
                }
            }
        };
        if protocol::write_frame(&mut stream, &protocol::encode_response(&frame)).is_err() {
            Counters::bump(&shared.counters.transport_faults);
            return;
        }
    }
}

fn handle_payload(shared: &Shared, payload: &[u8], inject_panic: bool) -> ResponseFrame {
    let frame = match protocol::decode_request(payload) {
        Ok(frame) => frame,
        Err(e) => {
            Counters::bump(&shared.counters.bad_requests);
            return ResponseFrame {
                id: request_id_of(payload),
                response: Response::BadRequest {
                    message: e.to_string(),
                },
            };
        }
    };
    if inject_panic {
        // exea-lint: allow(panic-in-library-path) -- deterministic fault injection: the chaos suite asserts this unwinds into a typed Internal response, not a dead daemon
        panic!("injected handler panic");
    }
    let budget = if frame.deadline_ms == 0 {
        shared.config.default_deadline
    } else {
        Duration::from_millis(u64::from(frame.deadline_ms))
    };
    let deadline = Deadline::after(budget);
    let response = dispatch(shared, frame.request, deadline);
    ResponseFrame {
        id: frame.id,
        response,
    }
}

fn dispatch(shared: &Shared, request: Request, deadline: Deadline) -> Response {
    match request {
        // Health and stats are always answered — even while draining —
        // so orchestrators can watch the drain.
        Request::Health => Response::Health {
            draining: shared.shutting_down(),
            queue_depth: shared.queue.depth() as u32,
            inflight: shared.inflight.load(Ordering::Relaxed) as u32,
            tier: shared.current_tier(),
        },
        Request::Stats => Response::Stats(shared.counters.snapshot()),
        _ if shared.shutting_down() => {
            Counters::bump(&shared.counters.shutting_down);
            Response::ShuttingDown
        }
        Request::Predict { source, k, tier } => {
            let _guard = InflightGuard::enter(&shared.inflight);
            if !shared.engine.valid_source(source) {
                Counters::bump(&shared.counters.bad_requests);
                return Response::BadRequest {
                    message: format!("unknown source entity {source}"),
                };
            }
            let tier = tier.unwrap_or_else(|| shared.current_tier());
            match tier {
                Tier::Partial => Counters::bump(&shared.counters.degraded_partial),
                Tier::Sq8 => Counters::bump(&shared.counters.degraded_sq8),
                Tier::Full => {}
            }
            let candidates = shared.engine.predict(source, usize::from(k), tier);
            // Deadline checkpoint before encoding the (possibly large)
            // reply.
            if deadline.expired() {
                Counters::bump(&shared.counters.deadline_expired);
                return Response::DeadlineExceeded;
            }
            Counters::bump(&shared.counters.served);
            Response::Predict { tier, candidates }
        }
        // Live mutations are answered inline like predicts: one short write
        // section on the LSM corpus (occasionally a seal or a count-driven
        // compaction), never queued behind the pipeline batches.
        Request::Insert { entity, vector } => {
            let _guard = InflightGuard::enter(&shared.inflight);
            match shared.engine.insert(entity, &vector) {
                Ok(ack) => {
                    if deadline.expired() {
                        // The row is in — the ack is merely late. Tell the
                        // caller the deadline verdict, not a lie about the
                        // corpus state.
                        Counters::bump(&shared.counters.deadline_expired);
                        return Response::DeadlineExceeded;
                    }
                    Counters::bump(&shared.counters.served);
                    Response::Insert {
                        sealed: ack.sealed,
                        live_rows: ack.live_rows,
                        segments: ack.segments,
                    }
                }
                Err(e @ MutateError::Dim { .. }) => {
                    Counters::bump(&shared.counters.bad_requests);
                    Response::BadRequest {
                        message: e.to_string(),
                    }
                }
            }
        }
        Request::Remove { entity } => {
            let _guard = InflightGuard::enter(&shared.inflight);
            let ack = shared.engine.remove(entity);
            if deadline.expired() {
                Counters::bump(&shared.counters.deadline_expired);
                return Response::DeadlineExceeded;
            }
            Counters::bump(&shared.counters.served);
            Response::Remove {
                existed: ack.existed,
                live_rows: ack.live_rows,
            }
        }
        Request::Explain { source, target } => {
            if !shared.engine.valid_source(source) || !shared.engine.valid_target(target) {
                Counters::bump(&shared.counters.bad_requests);
                return Response::BadRequest {
                    message: format!("unknown pair ({source}, {target})"),
                };
            }
            let pair = shared.engine.pair_of(source, target);
            enqueue_and_wait(shared, Work::Explain(pair), deadline)
        }
        Request::Verify { pairs } => {
            for (i, &(source, target)) in pairs.iter().enumerate() {
                if !shared.engine.valid_source(source) || !shared.engine.valid_target(target) {
                    Counters::bump(&shared.counters.bad_requests);
                    return Response::BadRequest {
                        message: format!("unknown pair ({source}, {target}) at index {i}"),
                    };
                }
            }
            let pairs: Vec<AlignmentPair> = pairs
                .iter()
                .map(|&(s, t)| shared.engine.pair_of(s, t))
                .collect();
            enqueue_and_wait(shared, Work::Verify(pairs), deadline)
        }
        Request::Repair => enqueue_and_wait(shared, Work::Repair, deadline),
    }
}

/// Admission: try to queue the job, then wait for the worker's reply under
/// the deadline plus a scheduling margin (the worker's own deadline
/// checkpoints normally answer first; the margin only guards against a
/// wedged worker, so the connection thread can never hang).
fn enqueue_and_wait(shared: &Shared, work: Work, deadline: Deadline) -> Response {
    let _guard = InflightGuard::enter(&shared.inflight);
    let (reply, result) = sync_channel::<Response>(1);
    let job = Job {
        work,
        deadline,
        reply,
    };
    match shared.queue.try_push(job) {
        Ok(_) => {}
        Err(PushError::Full(_)) => {
            Counters::bump(&shared.counters.overloaded);
            return Response::Overloaded {
                retry_after_ms: shared.config.retry_after_ms,
            };
        }
        Err(PushError::Closed(_)) => {
            Counters::bump(&shared.counters.shutting_down);
            return Response::ShuttingDown;
        }
    }
    let wait = deadline.remaining() + shared.config.drain_deadline + Duration::from_millis(250);
    match result.recv_timeout(wait) {
        Ok(response) => response,
        Err(_) => {
            Counters::bump(&shared.counters.deadline_expired);
            Response::DeadlineExceeded
        }
    }
}

// ---------------------------------------------------------------------------
// Batch workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let batch = shared
            .queue
            .pop_batch(shared.config.max_batch, shared.config.read_poll);
        if batch.jobs.is_empty() {
            if batch.finished {
                return;
            }
            continue;
        }
        if let Some(delay) = shared.config.fault.batch_delay {
            std::thread::sleep(delay);
        }
        process_batch(shared, batch.jobs);
    }
}

/// Runs one admission batch through the pipeline.
///
/// Deadline checkpoints bracket the compute: jobs already expired are
/// answered before the pipeline runs (stage boundary 1), and results whose
/// job expired during compute are discarded in favour of a typed
/// [`Response::DeadlineExceeded`] (stage boundary 2). Compute runs under
/// `catch_unwind`: a panicking pipeline answers every job in the batch with
/// [`Response::Internal`] and the worker thread survives.
fn process_batch(shared: &Shared, jobs: Vec<Job>) {
    Counters::bump(&shared.counters.batches);

    // Checkpoint 1: drop work that is already dead.
    struct Pending {
        deadline: Deadline,
        reply: SyncSender<Response>,
    }
    let mut explain_jobs: Vec<(Pending, AlignmentPair)> = Vec::new();
    let mut verify_jobs: Vec<(Pending, Vec<AlignmentPair>)> = Vec::new();
    let mut repair_jobs: Vec<Pending> = Vec::new();
    for job in jobs {
        if job.deadline.expired() {
            Counters::bump(&shared.counters.deadline_expired);
            let _ = job.reply.try_send(Response::DeadlineExceeded);
            continue;
        }
        let pending = Pending {
            deadline: job.deadline,
            reply: job.reply,
        };
        match job.work {
            Work::Explain(pair) => explain_jobs.push((pending, pair)),
            Work::Verify(pairs) => verify_jobs.push((pending, pairs)),
            Work::Repair => repair_jobs.push(pending),
        }
    }

    // One order-preserving pipeline call over the concatenation of every
    // explain job in admission order; slicing the results back per job is
    // bit-identical to running each job alone because the batch pipeline
    // maps pairs independently and preserves input order.
    if !explain_jobs.is_empty() {
        let pairs: Vec<AlignmentPair> = explain_jobs.iter().map(|(_, p)| *p).collect();
        shared
            .counters
            .batched_pairs
            .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        let computed = catch_unwind(AssertUnwindSafe(|| shared.engine.explain_batch(&pairs)));
        match computed {
            Ok(scored) => {
                for ((job, _), s) in explain_jobs.into_iter().zip(scored) {
                    // Checkpoint 2: the result of an expired job is
                    // discarded, not returned late.
                    if job.deadline.expired() {
                        Counters::bump(&shared.counters.deadline_expired);
                        let _ = job.reply.try_send(Response::DeadlineExceeded);
                        continue;
                    }
                    Counters::bump(&shared.counters.served);
                    let _ = job.reply.try_send(Response::Explain {
                        confidence: s.confidence(),
                        has_strong_edges: s.adg.has_strong_edges(),
                        num_triples: s.explanation.num_triples() as u32,
                    });
                }
            }
            Err(_) => {
                Counters::bump(&shared.counters.panics);
                for (job, _) in explain_jobs {
                    let _ = job.reply.try_send(Response::Internal {
                        message: "explain pipeline panicked".to_string(),
                    });
                }
            }
        }
    }

    if !verify_jobs.is_empty() {
        let mut pairs: Vec<AlignmentPair> = Vec::new();
        let mut spans: Vec<usize> = Vec::with_capacity(verify_jobs.len());
        for (_, job_pairs) in &verify_jobs {
            spans.push(job_pairs.len());
            pairs.extend_from_slice(job_pairs);
        }
        shared
            .counters
            .batched_pairs
            .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        let beta = shared.engine.beta();
        let computed = catch_unwind(AssertUnwindSafe(|| shared.engine.score_batch(&pairs)));
        match computed {
            Ok(scores) => {
                let mut offset = 0usize;
                for ((job, _), span) in verify_jobs.into_iter().zip(spans) {
                    let slice = &scores[offset..offset + span];
                    offset += span;
                    if job.deadline.expired() {
                        Counters::bump(&shared.counters.deadline_expired);
                        let _ = job.reply.try_send(Response::DeadlineExceeded);
                        continue;
                    }
                    Counters::bump(&shared.counters.served);
                    let verdicts: Vec<(bool, f64)> = slice
                        .iter()
                        .map(|s| (s.has_strong_edges && s.confidence >= beta, s.confidence))
                        .collect();
                    let _ = job.reply.try_send(Response::Verify { verdicts });
                }
            }
            Err(_) => {
                Counters::bump(&shared.counters.panics);
                for (job, _) in verify_jobs {
                    let _ = job.reply.try_send(Response::Internal {
                        message: "verify pipeline panicked".to_string(),
                    });
                }
            }
        }
    }

    for job in repair_jobs {
        let computed = catch_unwind(AssertUnwindSafe(|| shared.engine.repair()));
        match computed {
            Ok(outcome) => {
                if job.deadline.expired() {
                    Counters::bump(&shared.counters.deadline_expired);
                    let _ = job.reply.try_send(Response::DeadlineExceeded);
                    continue;
                }
                Counters::bump(&shared.counters.served);
                let _ = job.reply.try_send(Response::Repair {
                    changed_pairs: outcome.stats.changed_pairs as u64,
                    one_to_many_conflicts: outcome.stats.one_to_many_conflicts as u64,
                    low_confidence_pairs: outcome.stats.low_confidence_pairs as u64,
                    greedy_fallback: outcome.stats.greedy_fallback as u64,
                    repaired_len: outcome.repaired.len() as u64,
                });
            }
            Err(_) => {
                Counters::bump(&shared.counters.panics);
                let _ = job.reply.try_send(Response::Internal {
                    message: "repair pipeline panicked".to_string(),
                });
            }
        }
    }
}
