//! The serving core: a single-threaded `epoll` event loop owning every
//! connection, with evaluation fanned out to a worker pool.
//!
//! One thread runs [`Server::run`]: nonblocking accepts, per-connection
//! read/write state machines, HTTP keep-alive and pipelining (responses
//! flush strictly in request order through per-connection slots), and
//! timers (idle keep-alive timeout, a 408 for stalled partial requests,
//! and a short lame-duck drain before close so an in-flight response is
//! never destroyed by a TCP RST). The loop never computes: `GET`s are
//! answered inline (they are registry/metrics reads), `POST`s are handed
//! to a fixed worker pool over a channel, and completed responses come
//! back through a mutex-guarded queue plus the poller's self-pipe
//! [`Waker`].
//!
//! **Coalescing**: identical in-flight `POST`s — same path, same body —
//! collapse onto one evaluation. The first arrival dispatches a job;
//! later arrivals (any connection) just join its waiter list and are
//! answered from the same [`Response`] when it completes, each with its
//! own `Connection` framing. Handlers are pure functions of the body, so
//! the joined responses are byte-identical to what a dedicated
//! evaluation would have produced; joiners are counted in the
//! `coalesced` metric instead of re-entering the engine.
//!
//! **Overload**: beyond [`ServerConfig::max_connections`] the accept
//! loop sheds new connections immediately with a 503 — the server
//! degrades by rejecting, not by queueing without bound. The worker
//! queue is bounded the same way ([`ServerConfig::max_queue`]):
//! expensive routes (`/v1/search`, `/v1/sweep`) shed at a quarter of
//! the bound, every `POST` sheds at the bound, and shed 503s carry a
//! `Retry-After` so a well-behaved client backs off instead of
//! hammering. Requests may carry a `deadline_ms` budget (or inherit
//! [`ServerConfig::default_deadline`]); a job whose deadline expired
//! while it sat in the queue is shed with a 503 *before* evaluation —
//! under overload the server spends cycles only on answers somebody is
//! still waiting for.
//!
//! **Supervision**: handler panics are caught in [`App::handle`] and
//! answered 500; a worker thread that dies anyway (fault injection, or
//! a panic outside the guarded region) still answers its coalition —
//! a drop guard posts a structured 500 during the unwind — and is
//! respawned by the event loop. A request body that has panicked
//! [`QUARANTINE_AFTER`] times is quarantined: answered a deterministic
//! 500 without ever reaching the pool again. Panics, respawns, and
//! quarantines are all visible in `/v1/metrics`.
//!
//! **Fault injection**: when [`ServerConfig::faults`] carries a
//! [`FaultPlane`] (the `HL_FAULTS` env var / `--faults` flag), the
//! socket read/write paths, the worker loop, the poller wait, and the
//! snapshot loader draw from its seeded decision streams. Without a
//! plane every injection point is a single branch on an absent
//! `Option` and the server's behavior is byte-identical to a build
//! that never heard of faults.
//!
//! **Observability**: every request carries a trace id (client-supplied
//! `X-Request-Id` or generated), echoed on the response and recorded —
//! with a parse/queue/eval/serialize/write span waterfall whose spans
//! sum exactly to the total — in the [`crate::trace`] ring served at
//! `GET /v1/trace`. Fault injections, sheds, and snapshot loads and
//! failures emit structured JSON log lines (see [`crate::log`]) tagged
//! with the nearest trace id: the request's where one exists, the
//! connection's for socket-level faults, a boot-scoped id for loop-level
//! events.
//!
//! **Shutdown** is cooperative: [`Shutdown::trigger`] sets a flag and
//! wakes the loop. The listener closes first, in-flight requests finish
//! and flush (with a hard drain budget), the worker pool is joined, and
//! — when [`ServerConfig::snapshot`] is set — the engine's evaluation
//! cache is persisted so the next boot starts warm
//! (see [`crate::snapshot`]).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::App;
use crate::epoll::{Event, Interest, Poller, Waker};
use crate::faults::{FaultPlane, FaultPoint};
use crate::http::{parse_request, ParseError, ParseStatus, Request, Response};
use crate::json::Json;
use crate::log::Level;
use crate::metrics::Route;
use crate::schema::{ErrorBody, MAX_DEADLINE_MS};
use crate::snapshot;
use crate::trace::TraceRecord;

/// The default listen address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:8733";

/// Token the listener is registered under (`u64::MAX` is the waker's).
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Most requests a connection may have in flight before the loop stops
/// reading from it (pipelining backpressure).
const MAX_PIPELINE: usize = 32;

/// Lame-duck budget: after the last response is flushed the socket's
/// write side closes, and the loop keeps draining client bytes this long
/// before dropping the fd (unread bytes at close would turn into a RST
/// that can destroy the just-sent response).
const LAME_DUCK: Duration = Duration::from_millis(250);

/// Hard wall-clock budget for the shutdown drain.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// `Retry-After` seconds advertised on shed (503) responses.
const RETRY_AFTER_SECS: u32 = 1;

/// A request body is quarantined once this many workers have panicked
/// evaluating it.
const QUARANTINE_AFTER: u32 = 2;

/// Bound on the panic-history map; past it the history resets rather
/// than growing without limit under a panic storm.
const PANIC_HISTORY_CAP: usize = 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker-thread count (0 is clamped to 1).
    pub workers: usize,
    /// Open-connection cap; accepts beyond it are shed with a 503.
    pub max_connections: usize,
    /// Keep-alive idle timeout: a connection with no buffered bytes and
    /// no in-flight requests closes after this long.
    pub idle_timeout: Duration,
    /// Partial-request deadline: a request that stops arriving mid-head
    /// or mid-body is answered 408 after this long.
    pub request_timeout: Duration,
    /// Evaluation-cache snapshot path: loaded (if present and
    /// compatible) before serving, saved on graceful drain.
    pub snapshot: Option<PathBuf>,
    /// Periodic background snapshot interval; `None` saves only on
    /// graceful drain. Meaningful only with [`ServerConfig::snapshot`].
    pub snapshot_interval: Option<Duration>,
    /// Worker-queue bound for overload shedding: `/v1/search` and
    /// `/v1/sweep` shed at a quarter of this, every `POST` at the full
    /// depth. Coalescing joiners are exempt (they add no queue work).
    pub max_queue: usize,
    /// Deadline applied to requests that carry no `deadline_ms` of
    /// their own; a job that outlives its deadline in the queue is shed
    /// with a 503 before evaluation. `None` never sheds by default.
    pub default_deadline: Option<Duration>,
    /// Fault-injection plane (`HL_FAULTS` / `--faults`). `None` in
    /// production: every injection point is one branch on an absent
    /// option and behavior is byte-identical to a fault-free build.
    pub faults: Option<Arc<FaultPlane>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.to_string(),
            workers: hl_sim::engine::default_threads(),
            max_connections: 1024,
            idle_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(5),
            snapshot: None,
            snapshot_interval: None,
            max_queue: 256,
            default_deadline: None,
            faults: None,
        }
    }
}

/// The cooperative shutdown switch for a running server: sets a shared
/// flag and wakes the event loop through the poller's self-pipe.
#[derive(Debug, Clone)]
pub struct Shutdown {
    flag: Arc<AtomicBool>,
    waker: Waker,
}

impl Shutdown {
    /// True once shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Requests shutdown and wakes the event loop.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    app: Arc<App>,
    poller: Poller,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Binds the listen socket and creates the event loop's poller.
    ///
    /// # Errors
    /// Propagates `bind` failures (address in use, permission, …) and
    /// poller creation failures (non-linux targets are unsupported).
    pub fn bind(config: ServerConfig, app: App) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            app: Arc::new(app),
            poller: Poller::new()?,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared application state.
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// The shutdown switch; [`Shutdown::trigger`] makes [`Server::run`]
    /// drain and return.
    pub fn shutdown_switch(&self) -> Shutdown {
        Shutdown {
            flag: Arc::clone(&self.shutdown),
            waker: self.poller.waker(),
        }
    }

    /// Serves until the shutdown switch is triggered, then drains
    /// in-flight work, joins the workers, saves the snapshot (if
    /// configured), and returns.
    ///
    /// # Errors
    /// Propagates fatal poller/listener errors; per-connection I/O
    /// errors only drop that connection.
    pub fn run(self) -> io::Result<()> {
        let faults = self.config.faults.clone();
        // Boot-scoped trace id: attributes log events that happen
        // outside any request (snapshot I/O, loop-level injections).
        let boot_id = self.app.request_id(None);
        if let Some(path) = &self.config.snapshot {
            let cache = self.app.context().engine().eval_cache();
            let log = Some((self.app.logger(), boot_id.as_str()));
            let started = Instant::now();
            match snapshot::load_logged(cache, path, faults.as_deref(), log) {
                Ok(loaded) => self.app.logger().info(
                    "snapshot_loaded",
                    &[
                        ("trace_id", Json::str(boot_id.as_str())),
                        ("path", Json::str(path.display().to_string())),
                        ("entries", Json::Num(loaded.entries as f64)),
                        ("bytes", Json::Num(loaded.bytes as f64)),
                        ("load_ms", Json::Num(started.elapsed().as_secs_f64() * 1e3)),
                    ],
                ),
                Err(snapshot::SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => self.app.logger().warn(
                    "snapshot_load_failed",
                    &[
                        ("trace_id", Json::str(boot_id.as_str())),
                        ("path", Json::str(path.display().to_string())),
                        ("error", Json::str(e.to_string())),
                    ],
                ),
            }
        }

        let completions: Arc<Mutex<VecDeque<Completion>>> = Arc::default();
        let (tx, rx) = channel::<Job>();
        let shared = Arc::new(WorkerShared {
            rx: Mutex::new(rx),
            app: Arc::clone(&self.app),
            completions: Arc::clone(&completions),
            waker: self.poller.waker(),
            faults: faults.clone(),
            default_deadline: self.config.default_deadline,
        });
        let mut workers: Vec<JoinHandle<()>> = (0..self.config.workers.max(1))
            .map(|_| spawn_worker(&shared))
            .collect();

        self.poller
            .register(self.listener.as_raw_fd(), LISTEN_TOKEN, Interest::READ)?;

        let mut el = EventLoop {
            poller: &self.poller,
            app: &self.app,
            config: &self.config,
            conns: Vec::new(),
            free: Vec::new(),
            active: 0,
            next_gen: 0,
            inflight: HashMap::new(),
            jobs: tx,
            completions: &completions,
            panics: HashMap::new(),
            draining: false,
        };

        let mut next_snapshot = match (&self.config.snapshot, self.config.snapshot_interval) {
            (Some(_), Some(interval)) => Some(Instant::now() + interval),
            _ => None,
        };

        let mut events: Vec<Event> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            let mut wait_for = el.next_timeout();
            if let Some(due) = next_snapshot {
                let until = due
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(10));
                wait_for = Some(wait_for.map_or(until, |t| t.min(until)));
            }
            let timeout = wait_for.map(|d| u32::try_from(d.as_millis()).unwrap_or(u32::MAX));
            self.poller.wait(&mut events, timeout)?;
            if let Some(plane) = faults.as_deref() {
                // An injected spurious wakeup: the loop sees zero
                // events and must cope on timers and level-triggered
                // readiness alone.
                if plane.fire(FaultPoint::SpuriousWake) {
                    log_fault(&self.app, FaultPoint::SpuriousWake, &boot_id);
                    events.clear();
                }
            }
            supervise_workers(&mut workers, &shared);
            el.drain_completions();
            for ev in events.drain(..) {
                match ev.token {
                    Poller::WAKE_TOKEN => {}
                    LISTEN_TOKEN => el.accept_ready(&self.listener),
                    token => el.conn_ready(token as usize, ev),
                }
            }
            el.check_timers(Instant::now());
            if let Some(due) = next_snapshot {
                if Instant::now() >= due {
                    if let Some(path) = &self.config.snapshot {
                        save_snapshot(&self.app, path, &boot_id, true);
                    }
                    next_snapshot = self
                        .config
                        .snapshot_interval
                        .map(|interval| Instant::now() + interval);
                }
            }
        }

        // Drain: stop accepting, let in-flight requests finish and
        // flush, then close whatever remains.
        self.poller.deregister(self.listener.as_raw_fd())?;
        drop(self.listener);
        el.begin_shutdown();
        let deadline = Instant::now() + SHUTDOWN_DRAIN;
        while el.has_work() && Instant::now() < deadline {
            let budget = deadline.saturating_duration_since(Instant::now());
            let timeout = el
                .next_timeout()
                .map_or(budget, |t| t.min(budget))
                .min(Duration::from_millis(250));
            self.poller
                .wait(&mut events, Some(timeout.as_millis() as u32))?;
            // Keep supervising through the drain: queued jobs must
            // still be answered even if a worker dies mid-drain.
            supervise_workers(&mut workers, &shared);
            el.drain_completions();
            for ev in events.drain(..) {
                match ev.token {
                    Poller::WAKE_TOKEN | LISTEN_TOKEN => {}
                    token => el.conn_ready(token as usize, ev),
                }
            }
            el.check_timers(Instant::now());
        }
        el.close_all();

        // Stop feeding the pool; workers drain the queue and exit.
        drop(el);
        for h in workers {
            let _ = h.join();
        }

        if let Some(path) = &self.config.snapshot {
            save_snapshot(&self.app, path, &boot_id, false);
        }
        Ok(())
    }

    /// Runs the server on a background thread, returning a handle with
    /// the resolved address and a stop switch. Used by the in-process
    /// tests.
    ///
    /// # Errors
    /// Propagates `local_addr` failures.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = self.shutdown_switch();
        let app = Arc::clone(&self.app);
        let join = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            shutdown,
            app,
            join,
        })
    }
}

/// A running background server (from [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Shutdown,
    app: Arc<App>,
    join: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state (metrics/cache introspection).
    pub fn app(&self) -> &App {
        &self.app
    }

    /// Signals shutdown and waits for the drain to finish.
    ///
    /// # Errors
    /// Propagates the server loop's fatal error, if any; a panicked
    /// server thread is reported as an [`io::ErrorKind::Other`] error.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.trigger();
        self.join
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }
}

/// One unit of worker-pool work: the first request of a coalition.
struct Job {
    key: CoalesceKey,
    req: Request,
    /// When the job entered the queue — the deadline clock.
    enqueued: Instant,
    /// The coalition leader's trace id: attributes worker-side log
    /// events (injected stalls/panics, deadline sheds) to a request.
    trace_id: String,
}

/// A finished worker-pool evaluation, addressed back to its coalition.
struct Completion {
    key: CoalesceKey,
    resp: Response,
    /// The evaluation panicked (contained or thread-fatal); feeds the
    /// per-body quarantine count.
    panicked: bool,
    /// Wall time the worker spent in the handler — the trace eval span.
    eval_us: u64,
    /// EvalCache hit delta observed across the evaluation.
    eval_hits: u64,
    /// EvalCache miss delta observed across the evaluation.
    eval_misses: u64,
    /// The leader's terminal outcome; joiners get `"coalesce_join"`.
    outcome: &'static str,
}

/// Coalescing identity: method is always `POST`, so path + body is the
/// full input of the (pure) handler.
type CoalesceKey = (String, Vec<u8>);

/// One request waiting on a coalition's shared evaluation.
struct Waiter {
    conn: usize,
    gen: u64,
    seq: u64,
    keep_alive: bool,
    enqueued: Instant,
    /// This waiter's own trace id — every joiner keeps its own.
    id: String,
    /// When this request's bytes began parsing — the trace clock.
    t_start: Instant,
    /// Parse span, measured before the request reached the coalition.
    parse_us: u64,
}

/// One in-flight request's response slot; responses flush strictly in
/// `seq` order regardless of completion order.
struct Slot {
    seq: u64,
    bytes: Option<Vec<u8>>,
    /// The request's trace, carried until its last byte is written.
    trace: Option<PendingTrace>,
}

/// A trace being assembled while its request moves through the loop.
///
/// Span fields are checkpoint deltas: each one is "elapsed since
/// `t_start` minus every span already recorded" (saturating), so the
/// five spans plus the final write span always sum *exactly* to the
/// recorded total — the waterfall never under- or over-counts.
struct PendingTrace {
    id: String,
    route: &'static str,
    status: u16,
    outcome: &'static str,
    t_start: Instant,
    parse_us: u64,
    queue_us: u64,
    eval_us: u64,
    serialize_us: u64,
    eval_hits: u64,
    eval_misses: u64,
}

impl PendingTrace {
    fn new(id: String, route: &'static str, t_start: Instant, parse_us: u64) -> Self {
        Self {
            id,
            route,
            status: 0,
            outcome: "complete",
            t_start,
            parse_us,
            queue_us: 0,
            eval_us: 0,
            serialize_us: 0,
            eval_hits: 0,
            eval_misses: 0,
        }
    }

    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.t_start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn spans_us(&self) -> u64 {
        self.parse_us + self.queue_us + self.eval_us + self.serialize_us
    }

    /// Closes the serialize span: whatever elapsed time parse/queue/eval
    /// did not claim was spent staging the response bytes.
    fn mark_serialized(&mut self, status: u16, outcome: &'static str) {
        self.status = status;
        self.outcome = outcome;
        self.serialize_us = self.elapsed_us().saturating_sub(self.spans_us());
    }

    /// Finishes at the write watermark: the remaining elapsed time is
    /// the write span.
    fn finish(self) -> TraceRecord {
        let total_us = self.elapsed_us();
        let write_us = total_us.saturating_sub(self.spans_us());
        TraceRecord {
            id: self.id,
            route: self.route,
            status: self.status,
            outcome: self.outcome,
            // App::observe_trace back-computes this from server uptime.
            started_s: 0.0,
            total_us,
            parse_us: self.parse_us,
            queue_us: self.queue_us,
            eval_us: self.eval_us,
            serialize_us: self.serialize_us,
            write_us,
            eval_cache_hits: self.eval_hits,
            eval_cache_misses: self.eval_misses,
        }
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    /// Generation stamp: completions for a closed connection whose slab
    /// slot was reused must not write into the new connection.
    gen: u64,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// In-flight requests, in arrival order.
    pending: VecDeque<Slot>,
    next_seq: u64,
    /// Serialized responses being written.
    out: Vec<u8>,
    out_pos: usize,
    /// False once no further requests will be parsed (Connection: close,
    /// parse error, EOF, shutdown).
    reading: bool,
    /// Close once everything pending has flushed.
    close_after: bool,
    /// The peer already half-closed; no lame-duck drain needed.
    peer_eof: bool,
    /// Lame-duck deadline once the write side is shut down.
    lame_duck: Option<Instant>,
    last_activity: Instant,
    served: u64,
    interest: Interest,
    /// Connection-scoped trace id: attributes socket-level fault events
    /// that fire outside (or across) individual requests.
    trace_id: String,
    /// Cumulative bytes ever written to the socket — the watermark that
    /// finalizes traces in [`Conn::traces`].
    written_cum: u64,
    /// Retired traces waiting for their last byte to reach the kernel,
    /// keyed by the `written_cum` value that completes each one.
    traces: VecDeque<(u64, PendingTrace)>,
}

struct EventLoop<'a> {
    poller: &'a Poller,
    app: &'a Arc<App>,
    config: &'a ServerConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    active: usize,
    next_gen: u64,
    inflight: HashMap<CoalesceKey, Vec<Waiter>>,
    jobs: Sender<Job>,
    completions: &'a Mutex<VecDeque<Completion>>,
    /// Worker panics per request body; at [`QUARANTINE_AFTER`] the body
    /// is quarantined. Bounded by [`PANIC_HISTORY_CAP`].
    panics: HashMap<CoalesceKey, u32>,
    draining: bool,
}

impl EventLoop<'_> {
    // ---- accept path -------------------------------------------------

    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.active >= self.config.max_connections {
                        self.shed(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let id = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        fd,
                        gen: self.next_gen,
                        buf: Vec::new(),
                        pending: VecDeque::new(),
                        next_seq: 0,
                        out: Vec::new(),
                        out_pos: 0,
                        reading: true,
                        close_after: false,
                        peer_eof: false,
                        lame_duck: None,
                        last_activity: Instant::now(),
                        served: 0,
                        interest: Interest::READ,
                        trace_id: self.app.request_id(None),
                        written_cum: 0,
                        traces: VecDeque::new(),
                    };
                    if self.poller.register(fd, id as u64, Interest::READ).is_err() {
                        self.free.push(id);
                        continue;
                    }
                    self.conns[id] = Some(conn);
                    self.active += 1;
                    self.app.metrics().record_connection_opened();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break, // transient accept failure; retry on next event
            }
        }
    }

    /// Sheds an over-limit connection with an immediate 503. The socket
    /// is still blocking (accepted sockets don't inherit the listener's
    /// nonblocking flag), so a short write timeout bounds the cost.
    fn shed(&mut self, mut stream: TcpStream) {
        self.app.metrics().record_busy_rejection();
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let body = ErrorBody::new(503, "server busy: connection limit reached")
            .to_json()
            .encode();
        let _ = stream.write_all(&Response::json(503, body).to_bytes(false));
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }

    // ---- readiness dispatch ------------------------------------------

    fn conn_ready(&mut self, id: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return; // already closed this tick
        };
        if conn.lame_duck.is_some() {
            self.drain_lame_duck(id);
            return;
        }
        if ev.readable {
            self.fill_buffer(id);
        }
        self.service(id);
    }

    /// Reads everything available into the connection's buffer.
    fn fill_buffer(&mut self, id: usize) {
        let fault_tid = if self.config.faults.is_some() {
            match self.conns.get(id).and_then(Option::as_ref) {
                Some(c) => c.trace_id.clone(),
                None => return,
            }
        } else {
            String::new()
        };
        let mut chunk = [0u8; 4096];
        loop {
            // Injected socket faults (inert without a fault plane):
            // EINTR returns and retries on the next readiness event
            // (the poller is level-triggered), ECONNRESET drops the
            // connection, a short read narrows the window to one byte.
            let mut window = chunk.len();
            if let Some(plane) = self.config.faults.as_deref() {
                if plane.fire(FaultPoint::Eintr) {
                    log_fault(self.app, FaultPoint::Eintr, &fault_tid);
                    return;
                }
                if plane.fire(FaultPoint::ConnReadErr) {
                    log_fault(self.app, FaultPoint::ConnReadErr, &fault_tid);
                    self.close_conn(id);
                    return;
                }
                if plane.fire(FaultPoint::ConnReadShort) {
                    log_fault(self.app, FaultPoint::ConnReadShort, &fault_tid);
                    window = 1;
                }
            }
            let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                return;
            };
            match conn.stream.read(&mut chunk[..window]) {
                Ok(0) => {
                    conn.peer_eof = true;
                    conn.reading = false;
                    if conn.pending.is_empty() && conn.out.len() == conn.out_pos {
                        self.close_conn(id);
                    } else {
                        conn.close_after = true;
                    }
                    return;
                }
                Ok(n) => {
                    if conn.reading {
                        conn.buf.extend_from_slice(&chunk[..n]);
                    }
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(id);
                    return;
                }
            }
        }
    }

    /// Parses and dispatches buffered requests, flushes ready responses,
    /// and reconciles epoll interest — the one entry point after any
    /// state change.
    fn service(&mut self, id: usize) {
        loop {
            let parsed = self.pump_parse(id);
            let flushed = self.flush(id);
            if self.conns.get(id).and_then(Option::as_ref).is_none() {
                return;
            }
            if !parsed && !flushed {
                break;
            }
        }
        self.update_interest(id);
    }

    /// Parses as many complete requests as capacity allows; true if any
    /// request was dispatched.
    fn pump_parse(&mut self, id: usize) -> bool {
        let mut dispatched = false;
        loop {
            let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                return dispatched;
            };
            if !conn.reading || conn.pending.len() >= MAX_PIPELINE || conn.buf.is_empty() {
                return dispatched;
            }
            let t_start = Instant::now();
            match parse_request(&conn.buf) {
                ParseStatus::Incomplete => return dispatched,
                ParseStatus::Complete(req, consumed) => {
                    let parse_us = u64::try_from(t_start.elapsed().as_micros()).unwrap_or(u64::MAX);
                    conn.buf.drain(..consumed);
                    self.dispatch(id, req, t_start, parse_us);
                    dispatched = true;
                }
                ParseStatus::Bad(err) => {
                    conn.buf.clear();
                    conn.reading = false;
                    conn.close_after = true;
                    let resp = self.app.handle_parse_error(&err);
                    self.push_immediate(id, resp, "parse_error");
                    return true;
                }
            }
        }
    }

    /// Routes one parsed request: `GET`s (and stray methods) answer
    /// inline; `POST`s go to the worker pool, coalescing onto an
    /// identical in-flight evaluation when one exists.
    fn dispatch(&mut self, id: usize, req: Request, t_start: Instant, parse_us: u64) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        let keep_alive = req.keep_alive() && !self.draining;
        if !keep_alive {
            conn.reading = false;
            conn.close_after = true;
        }
        let gen = conn.gen;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.pending.push_back(Slot {
            seq,
            bytes: None,
            trace: None,
        });
        let rid = self.app.request_id(req.header("x-request-id"));

        if req.method == "POST" {
            let key: CoalesceKey = (req.path.clone(), req.body.clone());
            let (route, _) = Route::resolve(&key.0);
            // A body that has already killed [`QUARANTINE_AFTER`]
            // workers is answered deterministically without ever
            // re-entering the pool.
            if self
                .panics
                .get(&key)
                .is_some_and(|c| *c >= QUARANTINE_AFTER)
            {
                self.app.metrics().record_quarantined();
                self.app.metrics().record_unmeasured(route, 500);
                let body = ErrorBody::new(
                    500,
                    "request quarantined: evaluating this body has repeatedly crashed workers",
                )
                .to_json()
                .encode();
                let mut tr = PendingTrace::new(rid, route.label(), t_start, parse_us);
                let bytes = Response::json(500, body).to_bytes_with_id(keep_alive, Some(&tr.id));
                tr.mark_serialized(500, "quarantine");
                self.fill_slot(id, gen, seq, bytes, Some(tr));
                return;
            }
            // Overload shedding, expensive routes first. Joiners are
            // exempt — they add no queue work.
            if !self.inflight.contains_key(&key) {
                let depth = self.app.metrics().queue_depth();
                let expensive = route.spec().expensive;
                let bound = if expensive {
                    (self.config.max_queue / 4).max(1)
                } else {
                    self.config.max_queue.max(1)
                };
                if depth >= bound as u64 {
                    self.app.metrics().record_overload_shed();
                    self.app.metrics().record_unmeasured(route, 503);
                    let message = if expensive {
                        "server overloaded: expensive route shed, retry later"
                    } else {
                        "server overloaded: worker queue full, retry later"
                    };
                    let mut tr = PendingTrace::new(rid, route.label(), t_start, parse_us);
                    let bytes =
                        Response::json(503, ErrorBody::new(503, message).to_json().encode())
                            .with_retry_after(RETRY_AFTER_SECS)
                            .to_bytes_with_id(keep_alive, Some(&tr.id));
                    tr.mark_serialized(503, "shed_overload");
                    self.fill_slot(id, gen, seq, bytes, Some(tr));
                    return;
                }
            }
            let waiter = Waiter {
                conn: id,
                gen,
                seq,
                keep_alive,
                enqueued: Instant::now(),
                id: rid.clone(),
                t_start,
                parse_us,
            };
            match self.inflight.entry(key) {
                Entry::Occupied(mut e) => e.get_mut().push(waiter),
                Entry::Vacant(v) => {
                    let key = v.key().clone();
                    v.insert(vec![waiter]);
                    self.app.metrics().record_enqueued();
                    // A send can only fail after worker join, which is
                    // after the loop stops dispatching.
                    let _ = self.jobs.send(Job {
                        key,
                        req,
                        enqueued: Instant::now(),
                        trace_id: rid,
                    });
                }
            }
        } else {
            let (route, _) = Route::resolve(&req.path);
            let mut tr = PendingTrace::new(rid, route.label(), t_start, parse_us);
            let resp = self.app.handle(&req);
            // Inline GETs never queue: the handler time is the eval span.
            tr.eval_us = tr.elapsed_us().saturating_sub(tr.spans_us());
            let bytes = resp.to_bytes_with_id(keep_alive, Some(&tr.id));
            tr.mark_serialized(resp.status, "complete");
            self.fill_slot(id, gen, seq, bytes, Some(tr));
        }
    }

    /// Answers a request-level failure (parse error, 408) and marks the
    /// connection for close.
    fn push_immediate(&mut self, id: usize, resp: Response, outcome: &'static str) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        let gen = conn.gen;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.pending.push_back(Slot {
            seq,
            bytes: None,
            trace: None,
        });
        // No parsed request to take an id from; mint one so even error
        // responses are traceable end to end.
        let mut tr = PendingTrace::new(
            self.app.request_id(None),
            Route::Other.label(),
            Instant::now(),
            0,
        );
        let bytes = resp.to_bytes_with_id(false, Some(&tr.id));
        tr.mark_serialized(resp.status, outcome);
        self.fill_slot(id, gen, seq, bytes, Some(tr));
    }

    /// Hands a completed worker evaluation to every waiter that joined
    /// it, then services their connections.
    fn drain_completions(&mut self) {
        loop {
            let next = self
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            let Some(Completion {
                key,
                resp,
                panicked,
                eval_us,
                eval_hits,
                eval_misses,
                outcome,
            }) = next
            else {
                return;
            };
            if panicked {
                self.note_panic(&key);
            }
            let waiters = self.inflight.remove(&key).unwrap_or_default();
            let (route, _) = Route::resolve(&key.0);
            let mut touched = Vec::new();
            for (i, w) in waiters.into_iter().enumerate() {
                if i > 0 {
                    // The first waiter's App::handle call recorded the
                    // request; joiners are recorded here with their own
                    // queueing latency.
                    self.app
                        .metrics()
                        .record_coalesced(route, resp.status, w.enqueued.elapsed());
                }
                let mut tr = PendingTrace::new(w.id, route.label(), w.t_start, w.parse_us);
                tr.eval_us = eval_us;
                tr.eval_hits = eval_hits;
                tr.eval_misses = eval_misses;
                // Queue span by contiguity: everything between the end
                // of parsing and the worker's evaluation is time this
                // waiter spent on the pool (dispatch + completion queues).
                tr.queue_us = tr.elapsed_us().saturating_sub(w.parse_us + eval_us);
                let bytes = resp.to_bytes_with_id(w.keep_alive, Some(&tr.id));
                tr.mark_serialized(resp.status, if i > 0 { "coalesce_join" } else { outcome });
                self.fill_slot(w.conn, w.gen, w.seq, bytes, Some(tr));
                if !touched.contains(&w.conn) {
                    touched.push(w.conn);
                }
            }
            for id in touched {
                self.service(id);
            }
        }
    }

    /// Remembers that evaluating `key` panicked; at [`QUARANTINE_AFTER`]
    /// the body is quarantined (answered without dispatch). The history
    /// is bounded: under a panic storm it sheds non-quarantined entries
    /// first and resets entirely as a last resort, so a poisonous body
    /// at worst has to re-earn its quarantine.
    fn note_panic(&mut self, key: &CoalesceKey) {
        *self.panics.entry(key.clone()).or_insert(0) += 1;
        if self.panics.len() > PANIC_HISTORY_CAP {
            self.panics.retain(|_, c| *c >= QUARANTINE_AFTER);
            if self.panics.len() > PANIC_HISTORY_CAP {
                self.panics.clear();
            }
        }
    }

    /// Fills one response slot (ignoring completions addressed to a
    /// connection generation that no longer exists).
    fn fill_slot(
        &mut self,
        id: usize,
        gen: u64,
        seq: u64,
        bytes: Vec<u8>,
        trace: Option<PendingTrace>,
    ) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        if let Some(slot) = conn.pending.iter_mut().find(|s| s.seq == seq) {
            slot.bytes = Some(bytes);
            slot.trace = trace;
        }
    }

    /// Moves ready in-order responses into the write buffer and writes
    /// what the socket accepts; true if any slot was retired.
    fn flush(&mut self, id: usize) -> bool {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return false;
        };
        let fault_tid = if self.config.faults.is_some() {
            conn.trace_id.clone()
        } else {
            String::new()
        };
        let mut retired = false;
        while conn
            .pending
            .front()
            .is_some_and(|slot| slot.bytes.is_some())
        {
            if let Some(slot) = conn.pending.pop_front() {
                if let Some(bytes) = slot.bytes {
                    conn.out.extend_from_slice(&bytes);
                    conn.served += 1;
                    retired = true;
                }
                if let Some(tr) = slot.trace {
                    // Finalized once the cumulative write watermark
                    // passes every byte staged so far — i.e. when this
                    // response's last byte reaches the kernel.
                    let target = conn.written_cum + (conn.out.len() - conn.out_pos) as u64;
                    conn.traces.push_back((target, tr));
                }
            }
        }
        while conn.out_pos < conn.out.len() {
            // Injected socket faults, mirroring the read side: EINTR
            // leaves the rest for the next writable event, ECONNRESET
            // drops the connection, a short write sends one byte.
            let mut end = conn.out.len();
            if let Some(plane) = self.config.faults.as_deref() {
                if plane.fire(FaultPoint::Eintr) {
                    log_fault(self.app, FaultPoint::Eintr, &fault_tid);
                    break;
                }
                if plane.fire(FaultPoint::ConnWriteErr) {
                    log_fault(self.app, FaultPoint::ConnWriteErr, &fault_tid);
                    self.close_conn(id);
                    return retired;
                }
                if plane.fire(FaultPoint::ConnWriteShort) {
                    log_fault(self.app, FaultPoint::ConnWriteShort, &fault_tid);
                    end = conn.out_pos + 1;
                }
            }
            match conn.stream.write(&conn.out[conn.out_pos..end]) {
                Ok(0) => {
                    self.close_conn(id);
                    return retired;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.written_cum += n as u64;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(id);
                    return retired;
                }
            }
        }
        while conn
            .traces
            .front()
            .is_some_and(|(target, _)| *target <= conn.written_cum)
        {
            if let Some((_, tr)) = conn.traces.pop_front() {
                self.app.observe_trace(tr.finish());
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.close_after && conn.pending.is_empty() {
                if conn.peer_eof {
                    self.close_conn(id);
                } else {
                    self.begin_lame_duck(id);
                }
            }
        }
        retired
    }

    /// Shuts the write side and keeps draining client bytes briefly so
    /// the kernel doesn't RST the in-flight response.
    fn begin_lame_duck(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
        conn.lame_duck = Some(Instant::now() + LAME_DUCK);
        conn.reading = false;
        self.drain_lame_duck(id);
    }

    fn drain_lame_duck(&mut self, id: usize) {
        let mut sink = [0u8; 4096];
        loop {
            let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                return;
            };
            match conn.stream.read(&mut sink) {
                Ok(0) => {
                    self.close_conn(id);
                    return;
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(id);
                    return;
                }
            }
        }
    }

    fn close_conn(&mut self, id: usize) {
        if let Some(conn) = self.conns.get_mut(id).and_then(Option::take) {
            let _ = self.poller.deregister(conn.fd);
            // Keep traces whose responses were retired but never fully
            // flushed — the record is still worth having; the write
            // span just absorbs the time until the close.
            for (_, tr) in conn.traces {
                self.app.observe_trace(tr.finish());
            }
            self.app.metrics().record_connection_closed(conn.served);
            self.active -= 1;
            self.free.push(id);
        }
    }

    fn update_interest(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        let want = Interest {
            readable: conn.lame_duck.is_some()
                || (conn.reading && conn.pending.len() < MAX_PIPELINE),
            writable: conn.out_pos < conn.out.len(),
        };
        if want != conn.interest && self.poller.modify(conn.fd, id as u64, want).is_ok() {
            conn.interest = want;
        }
    }

    // ---- timers ------------------------------------------------------

    fn check_timers(&mut self, now: Instant) {
        for id in 0..self.conns.len() {
            let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                continue;
            };
            if let Some(deadline) = conn.lame_duck {
                if now >= deadline {
                    self.close_conn(id);
                }
                continue;
            }
            let busy = !conn.pending.is_empty() || conn.out_pos < conn.out.len();
            if busy {
                continue;
            }
            if conn.buf.is_empty() {
                if conn.reading && now >= conn.last_activity + self.config.idle_timeout {
                    self.close_conn(id);
                }
            } else if now >= conn.last_activity + self.config.request_timeout {
                // A partial request stopped making progress.
                conn.buf.clear();
                conn.reading = false;
                conn.close_after = true;
                let err = ParseError::new(408, "timed out waiting for a complete request");
                let resp = self.app.handle_parse_error(&err);
                self.push_immediate(id, resp, "timeout");
                self.service(id);
            }
        }
    }

    /// The next poll timeout: the soonest connection deadline, or block
    /// indefinitely when nothing is waiting on time.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut soonest: Option<Instant> = None;
        for conn in self.conns.iter().flatten() {
            let deadline = if let Some(d) = conn.lame_duck {
                d
            } else if !conn.pending.is_empty() || conn.out_pos < conn.out.len() {
                continue; // waiting on work/socket, not on time
            } else if conn.buf.is_empty() {
                if !conn.reading {
                    continue;
                }
                conn.last_activity + self.config.idle_timeout
            } else {
                conn.last_activity + self.config.request_timeout
            };
            soonest = Some(soonest.map_or(deadline, |s| s.min(deadline)));
        }
        soonest.map(|s| {
            s.saturating_duration_since(now)
                .max(Duration::from_millis(10))
        })
    }

    // ---- shutdown ----------------------------------------------------

    /// Starts the drain: no new requests are parsed; idle connections
    /// close now, busy ones close as their last response flushes.
    fn begin_shutdown(&mut self) {
        self.draining = true;
        for id in 0..self.conns.len() {
            let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                continue;
            };
            conn.reading = false;
            conn.close_after = true;
            conn.buf.clear();
            if conn.pending.is_empty() && conn.out_pos >= conn.out.len() {
                self.close_conn(id);
            } else {
                self.update_interest(id);
            }
        }
    }

    /// True while any connection still owes a response.
    fn has_work(&self) -> bool {
        self.active > 0
    }

    fn close_all(&mut self) {
        for id in 0..self.conns.len() {
            self.close_conn(id);
        }
    }
}

/// Everything a worker thread needs, bundled so the supervisor can
/// respawn a dead worker with one `Arc` clone.
struct WorkerShared {
    rx: Mutex<Receiver<Job>>,
    app: Arc<App>,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    waker: Waker,
    faults: Option<Arc<FaultPlane>>,
    default_deadline: Option<Duration>,
}

fn spawn_worker(shared: &Arc<WorkerShared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || worker_loop(&shared))
}

/// Replaces dead worker threads. A worker only exits early by
/// panicking — normal exit happens after the job sender drops, which
/// is after the event loop stops — so every replacement here is a
/// respawn of a crashed thread.
fn supervise_workers(workers: &mut [JoinHandle<()>], shared: &Arc<WorkerShared>) {
    for slot in workers.iter_mut() {
        if slot.is_finished() {
            let dead = std::mem::replace(slot, spawn_worker(shared));
            // Reap the corpse; its drop guard already answered the
            // coalition it was evaluating.
            let _ = dead.join();
            shared.app.metrics().record_worker_respawn();
        }
    }
}

/// The effective deadline of a queued job: the body's own
/// `deadline_ms` when it carries a valid one, else the configured
/// default. A malformed body falls back to the default — the handler
/// answers 400 on its own; a cheap field probe must never invent
/// errors the schema would not.
fn job_deadline(req: &Request, default: Option<Duration>) -> Option<Duration> {
    std::str::from_utf8(&req.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|doc| doc.get("deadline_ms").and_then(Json::as_f64))
        .filter(|ms| ms.fract() == 0.0 && (0.0..=MAX_DEADLINE_MS as f64).contains(ms))
        .map(|ms| Duration::from_millis(ms as u64))
        .or(default)
}

/// Owes a coalition exactly one [`Completion`]: consumed normally via
/// [`CoalitionGuard::complete`], or — if the worker unwinds first —
/// from `Drop`, which posts a structured 500 during the unwind so no
/// waiter ever hangs on a dead thread.
struct CoalitionGuard<'a> {
    key: Option<CoalesceKey>,
    route: Route,
    shared: &'a WorkerShared,
}

impl CoalitionGuard<'_> {
    fn complete(
        mut self,
        resp: Response,
        panicked: bool,
        eval_us: u64,
        cache_delta: (u64, u64),
        outcome: &'static str,
    ) {
        if let Some(key) = self.key.take() {
            post_completion(
                self.shared,
                Completion {
                    key,
                    resp,
                    panicked,
                    eval_us,
                    eval_hits: cache_delta.0,
                    eval_misses: cache_delta.1,
                    outcome,
                },
            );
        }
    }
}

impl Drop for CoalitionGuard<'_> {
    fn drop(&mut self) {
        let Some(key) = self.key.take() else {
            return;
        };
        self.shared.app.metrics().record_unmeasured(self.route, 500);
        let body = ErrorBody::new(
            500,
            "internal error: the worker evaluating this request died",
        )
        .to_json()
        .encode();
        post_completion(
            self.shared,
            Completion {
                key,
                resp: Response::json(500, body),
                panicked: true,
                eval_us: 0,
                eval_hits: 0,
                eval_misses: 0,
                outcome: "worker_died",
            },
        );
    }
}

/// Saves the evaluation-cache snapshot, logging a failure. A failed
/// periodic save is a warning (the next tick retries); a failed save on
/// drain loses the cache and is an error.
fn save_snapshot(app: &App, path: &Path, boot_id: &str, periodic: bool) {
    let cache = app.context().engine().eval_cache();
    if let Err(e) = snapshot::save(cache, path) {
        let level = if periodic { Level::Warn } else { Level::Error };
        app.logger().log(
            level,
            "snapshot_save_failed",
            &[
                ("trace_id", Json::str(boot_id)),
                ("path", Json::str(path.display().to_string())),
                ("error", Json::str(e.to_string())),
                ("periodic", Json::Bool(periodic)),
            ],
        );
    }
}

/// Emits the structured `fault_injected` warning every injection site
/// shares: which point fired and the trace id it hit.
fn log_fault(app: &App, point: FaultPoint, trace_id: &str) {
    app.logger().warn(
        "fault_injected",
        &[
            ("point", Json::str(point.key())),
            ("trace_id", Json::str(trace_id)),
        ],
    );
}

fn post_completion(shared: &WorkerShared, completion: Completion) {
    shared
        .completions
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push_back(completion);
    shared.waker.wake();
}

fn worker_loop(shared: &WorkerShared) {
    loop {
        // Hold the lock only for the pop, never while evaluating. A
        // poisoned lock (a sibling died mid-recv) is recovered, not
        // propagated — one dead worker must not cascade.
        let next = { shared.rx.lock().unwrap_or_else(|e| e.into_inner()).recv() };
        let Ok(Job {
            key,
            req,
            enqueued,
            trace_id,
        }) = next
        else {
            return; // Sender dropped: shutdown.
        };
        shared.app.metrics().record_dequeued(enqueued.elapsed());
        // From here until completion the coalition is owed an answer:
        // if anything below unwinds (an injected worker panic), the
        // guard posts the 500 during the unwind and the supervisor
        // respawns this thread.
        let guard = CoalitionGuard {
            key: Some(key),
            route: Route::resolve(&req.path).0,
            shared,
        };
        // Deadline-aware shedding: work that expired in the queue is
        // answered 503 without spending evaluation cycles on it.
        if let Some(deadline) = job_deadline(&req, shared.default_deadline) {
            if deadline.is_zero() || enqueued.elapsed() > deadline {
                shared.app.metrics().record_deadline_shed();
                shared.app.metrics().record_unmeasured(guard.route, 503);
                shared.app.logger().info(
                    "deadline_shed",
                    &[
                        ("trace_id", Json::str(trace_id.as_str())),
                        ("route", Json::str(guard.route.label())),
                    ],
                );
                let body = ErrorBody::new(503, "deadline expired before evaluation; request shed")
                    .to_json()
                    .encode();
                let resp = Response::json(503, body).with_retry_after(RETRY_AFTER_SECS);
                guard.complete(resp, false, 0, (0, 0), "shed_deadline");
                continue;
            }
        }
        if let Some(plane) = shared.faults.as_deref() {
            if plane.fire(FaultPoint::WorkerStall) {
                log_fault(&shared.app, FaultPoint::WorkerStall, &trace_id);
                std::thread::sleep(plane.stall());
            }
            if plane.fire(FaultPoint::WorkerPanic) {
                shared.app.metrics().record_worker_panic();
                log_fault(&shared.app, FaultPoint::WorkerPanic, &trace_id);
                // hl-lint: allow(no-panic-in-request-path, deliberate fault injection; the worker supervisor catches the unwind and respawns)
                panic!("injected worker panic (fault plane)");
            }
        }
        // EvalCache deltas across the evaluation: approximate under
        // concurrency (other workers hit the same shared cache), exact
        // when a request runs alone — good enough for attribution.
        let cache = shared.app.context().engine().eval_cache();
        let (h0, m0) = cache.stats();
        let t_eval = Instant::now();
        let (resp, panicked) = shared.app.handle_traced(&req);
        let eval_us = u64::try_from(t_eval.elapsed().as_micros()).unwrap_or(u64::MAX);
        let (h1, m1) = cache.stats();
        if panicked {
            shared.app.metrics().record_worker_panic();
        }
        guard.complete(
            resp,
            panicked,
            eval_us,
            (h1.saturating_sub(h0), m1.saturating_sub(m0)),
            "complete",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert_eq!(c.addr, DEFAULT_ADDR);
        assert!(c.workers >= 1);
        assert!(c.max_connections >= 16);
        assert!(c.max_queue >= 16);
        assert!(c.snapshot.is_none());
        assert!(c.snapshot_interval.is_none());
        assert!(c.default_deadline.is_none());
        assert!(c.faults.is_none(), "faults must be off by default");
    }

    #[test]
    fn job_deadlines_come_from_the_body_then_the_default() {
        let post = |body: &str| Request {
            method: "POST".into(),
            path: "/v1/evaluate".into(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        let fallback = Some(Duration::from_millis(250));
        // A valid field wins over the default.
        assert_eq!(
            job_deadline(&post(r#"{"design":"TC","deadline_ms":40}"#), fallback),
            Some(Duration::from_millis(40))
        );
        // Zero is legal and means "already expired".
        assert_eq!(
            job_deadline(&post(r#"{"deadline_ms":0}"#), None),
            Some(Duration::ZERO)
        );
        // No field, malformed JSON, or an out-of-range value falls back.
        for body in [
            r#"{"design":"TC"}"#,
            "not json at all",
            r#"{"deadline_ms":-5}"#,
            r#"{"deadline_ms":1.5}"#,
            r#"{"deadline_ms":9999999999}"#,
        ] {
            assert_eq!(job_deadline(&post(body), fallback), fallback, "{body}");
            assert_eq!(job_deadline(&post(body), None), None, "{body}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn bind_spawn_and_stop() {
        let server = Server::bind(
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 1,
                ..ServerConfig::default()
            },
            App::default(),
        )
        .unwrap();
        let handle = server.spawn().unwrap();
        assert_ne!(handle.addr().port(), 0);
        handle.stop().unwrap();
    }
}
