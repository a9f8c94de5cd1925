//! The serving core: a single-threaded `epoll` event loop owning every
//! connection, with evaluation fanned out to a worker pool.
//!
//! One thread runs [`Server::run`]: nonblocking accepts, and for each
//! connection a socket-free state machine (`conn.rs`: keep-alive,
//! pipelining with in-order answers, half-close, the idle and 408
//! timers, a lame-duck drain before close). The loop never computes:
//! `GET`s are answered inline (they are registry/metrics reads), `POST`s
//! go to a fixed worker pool over a channel, and completed responses
//! come back through a mutex-guarded queue plus the poller's self-pipe
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
//! `GET /v1/trace`. Every request that reaches dispatch yields exactly
//! one record, also when its connection closes before the answer is
//! written, and [`App::observe_trace`] derives every per-request
//! `/v1/metrics` family from it; the loop itself only counts
//! connections, busy rejections, worker supervision and the queue-depth
//! gauge. Fault injections, sheds, and snapshot loads, saves and
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
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::{App, Handled};
use crate::conn::{Conn, Cue, Next};
use crate::epoll::{Event, Interest, Poller, Waker};
use crate::faults::{FaultPlane, FaultPoint};
use crate::http::{ParseError, Request, Response};
use crate::json::Json;
use crate::log::Level;
use crate::metrics::Route;
use crate::schema::{ErrorBody, MAX_DEADLINE_MS};
use crate::snapshot;
use crate::trace::{Outcome, TraceRecord};

/// The default listen address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:8733";

/// Token the listener is registered under (`u64::MAX` is the waker's).
const LISTEN_TOKEN: u64 = u64::MAX - 1;

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
            let context = self.app.context();
            // The outcome is logged; a refused snapshot boots cold.
            let _ = snapshot::load_logged(
                context.engine().eval_cache(),
                context.retention(),
                path,
                faults.as_deref(),
                Some((self.app.logger(), boot_id.as_str())),
            );
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
        while el.active > 0 && Instant::now() < deadline {
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
        for id in 0..el.conns.len() {
            el.close_conn(id);
        }

        // Drop the job sender but keep the loop: the workers finish the
        // queue and exit, and the answers they post for the connections
        // the drain gave up on are recorded as they stand.
        el.jobs = channel().0;
        for h in workers {
            let _ = h.join();
        }
        el.drain_completions();

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
    /// The response, whether the evaluation panicked (contained or
    /// thread-fatal; feeds the per-body quarantine count), and the time
    /// spent writing the body, which the trace counts as serialize time.
    handled: Handled,
    /// Wall time the worker spent in the handler before writing the
    /// response body — the trace eval span.
    eval_us: u64,
    /// Cache counter deltas observed across the evaluation.
    cache: CacheDelta,
    /// The leader's outcome; joiners get [`Outcome::CoalesceJoin`].
    outcome: Outcome,
}

/// Which caches answered one evaluation: counter deltas across it.
/// Approximate under concurrency (other workers hit the same shared
/// caches), exact when a request runs alone — good enough for
/// attribution.
#[derive(Debug, Clone, Copy, Default)]
struct CacheDelta {
    eval_hits: u64,
    eval_misses: u64,
    search_hits: u64,
    retention_hits: u64,
    retention_misses: u64,
}

impl CacheDelta {
    /// The counters' current totals.
    fn read(app: &App) -> Self {
        let (eval_hits, eval_misses) = app.context().engine().eval_cache().stats();
        let (retention_hits, retention_misses) = app.context().retention().stats();
        Self {
            eval_hits,
            eval_misses,
            search_hits: app.context().search_hits(),
            retention_hits,
            retention_misses,
        }
    }

    /// The growth from `before` to these totals.
    fn since(self, before: Self) -> Self {
        Self {
            eval_hits: self.eval_hits.saturating_sub(before.eval_hits),
            eval_misses: self.eval_misses.saturating_sub(before.eval_misses),
            search_hits: self.search_hits.saturating_sub(before.search_hits),
            retention_hits: self.retention_hits.saturating_sub(before.retention_hits),
            retention_misses: self
                .retention_misses
                .saturating_sub(before.retention_misses),
        }
    }
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
    /// This waiter's own trace id — every joiner keeps its own.
    id: String,
    /// When this request's bytes began parsing — the trace clock.
    t_start: Instant,
    /// Parse span, measured before the request reached the coalition.
    parse_us: u64,
}

/// A trace being assembled while its request moves through the loop.
///
/// Span fields are checkpoint deltas: each one is "elapsed since
/// `t_start` minus every span already recorded" (saturating), so the
/// five spans plus the final write span always sum *exactly* to the
/// recorded total — the waterfall never under- or over-counts.
pub(crate) struct PendingTrace {
    id: String,
    route: Route,
    status: u16,
    outcome: Outcome,
    t_start: Instant,
    parse_us: u64,
    queue_us: u64,
    eval_us: u64,
    serialize_us: u64,
    cache: CacheDelta,
}

impl PendingTrace {
    pub(crate) fn new(id: String, route: Route, t_start: Instant, parse_us: u64) -> Self {
        Self {
            id,
            route,
            status: 0,
            outcome: Outcome::Complete,
            t_start,
            parse_us,
            queue_us: 0,
            eval_us: 0,
            serialize_us: 0,
            cache: CacheDelta::default(),
        }
    }

    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.t_start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn spans_us(&self) -> u64 {
        self.parse_us + self.queue_us + self.eval_us + self.serialize_us
    }

    /// Closes the serialize span: whatever elapsed time parse/queue/eval
    /// did not claim was spent writing the response body and framing
    /// it. The callers leave the body's encoding time out of the spans
    /// before it, so it lands here.
    fn mark_serialized(&mut self, status: u16, outcome: Outcome) {
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
            eval_cache_hits: self.cache.eval_hits,
            eval_cache_misses: self.cache.eval_misses,
            search_cache_hits: self.cache.search_hits,
            retention_cache_hits: self.cache.retention_hits,
            retention_cache_misses: self.cache.retention_misses,
        }
    }
}

/// A connection's TCP stream, with the fault plane's socket injections
/// when one is armed: `EINTR` reads as `WouldBlock`, so the loop retries
/// on the next readiness event (the poller is level-triggered),
/// `ECONNRESET` drops the connection, and a short read or write moves
/// one byte.
struct Socket {
    tcp: TcpStream,
    /// The plane, the app that logs each injection, and the
    /// connection-scoped trace id those events carry.
    faults: Option<(Arc<FaultPlane>, Arc<App>, String)>,
}

impl Socket {
    /// Draws the socket faults of one read (or write): the injected
    /// error, or how many of `len` bytes the call may move.
    fn inject(&self, read: bool, len: usize) -> io::Result<usize> {
        let Some((plane, app, trace_id)) = &self.faults else {
            return Ok(len);
        };
        let (reset, short) = match read {
            true => (FaultPoint::ConnReadErr, FaultPoint::ConnReadShort),
            false => (FaultPoint::ConnWriteErr, FaultPoint::ConnWriteShort),
        };
        let fire = |point| {
            let hit = plane.fire(point);
            if hit {
                log_fault(app, point, trace_id);
            }
            hit
        };
        if fire(FaultPoint::Eintr) {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        if fire(reset) {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        Ok(if fire(short) { len.min(1) } else { len })
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inject(true, buf.len())?;
        self.tcp.read(buf.split_at_mut(n).0)
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inject(false, buf.len())?;
        self.tcp.write(buf.split_at(n).0)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.tcp.flush()
    }
}

struct EventLoop<'a> {
    poller: &'a Poller,
    app: &'a Arc<App>,
    config: &'a ServerConfig,
    conns: Vec<Option<Conn<Socket>>>,
    free: Vec<usize>,
    active: usize,
    next_gen: u64,
    inflight: HashMap<CoalesceKey, Vec<Waiter>>,
    jobs: Sender<Job>,
    completions: &'a Mutex<VecDeque<Completion>>,
    /// Worker panics per request body; at [`QUARANTINE_AFTER`] the body
    /// is quarantined. Bounded by [`PANIC_HISTORY_CAP`].
    panics: HashMap<CoalesceKey, u32>,
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
                    let id = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let fd = stream.as_raw_fd();
                    if self.poller.register(fd, id as u64, Interest::READ).is_err() {
                        self.free.push(id);
                        continue;
                    }
                    let faults = self
                        .config
                        .faults
                        .clone()
                        .map(|plane| (plane, Arc::clone(self.app), self.app.request_id(None)));
                    self.next_gen += 1;
                    let conn = Conn::new(
                        Socket {
                            tcp: stream,
                            faults,
                        },
                        self.next_gen,
                    );
                    match self.conns.get_mut(id) {
                        Some(slot) => *slot = Some(conn),
                        // Unreachable: `id` is a slot freed or pushed
                        // above. Dropping `conn` closes the socket.
                        None => continue,
                    }
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
        if ev.readable && conn.fill() == Next::Close {
            return self.close_conn(id);
        }
        self.service(id);
    }

    /// Parses and dispatches buffered requests and writes ready
    /// responses until neither makes progress, then lets the connection
    /// settle: the one entry point after any state change.
    fn service(&mut self, id: usize) {
        let app = self.app;
        loop {
            let parsed = self.pump_parse(id);
            let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                return;
            };
            let next = match conn.flush(&mut |tr| app.observe_trace(tr.finish())) {
                Ok(flushed) if flushed || parsed => continue,
                Ok(_) => conn.advance(Cue::Settled),
                Err(_) => Next::Close,
            };
            match next {
                Next::Close => return self.close_conn(id),
                Next::ShutWrite => {
                    let _ = conn.stream.tcp.shutdown(std::net::Shutdown::Write);
                }
                Next::Keep => {}
            }
            return watch(self.poller, id, conn);
        }
    }

    /// Dispatches every request the connection parses now; true if any.
    fn pump_parse(&mut self, id: usize) -> bool {
        let mut dispatched = false;
        while let Some(parsed) = self.conn(id).and_then(Conn::next_request) {
            dispatched = true;
            match parsed {
                Ok((req, t_start, parse_us)) => self.dispatch(id, req, t_start, parse_us),
                Err(err) => {
                    let resp = self.app.handle_parse_error(&err);
                    self.push_immediate(id, resp, Outcome::ParseError);
                }
            }
        }
        dispatched
    }

    /// Routes one parsed request: `GET`s (and stray methods) answer
    /// inline; `POST`s go to the worker pool, coalescing onto an
    /// identical in-flight evaluation when one exists.
    fn dispatch(&mut self, id: usize, req: Request, t_start: Instant, parse_us: u64) {
        let Some((gen, seq)) = self.conn(id).map(|c| (c.gen, c.open_slot())) else {
            return;
        };
        let keep_alive = req.keep_alive();
        let rid = self.app.request_id(req.header("x-request-id"));

        if req.method == "POST" {
            let key: CoalesceKey = (req.path.clone(), req.body.clone());
            let route = Route::resolve(&key.0);
            // A body that has already killed [`QUARANTINE_AFTER`]
            // workers is answered deterministically without ever
            // re-entering the pool.
            if self
                .panics
                .get(&key)
                .is_some_and(|c| *c >= QUARANTINE_AFTER)
            {
                let body = ErrorBody::new(
                    500,
                    "request quarantined: evaluating this body has repeatedly crashed workers",
                )
                .to_json()
                .encode();
                let mut tr = PendingTrace::new(rid, route, t_start, parse_us);
                let bytes = Response::json(500, body).to_bytes_with_id(keep_alive, Some(&tr.id));
                tr.mark_serialized(500, Outcome::Quarantine);
                self.fill_slot(id, gen, seq, bytes, tr);
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
                    let message = if expensive {
                        "server overloaded: expensive route shed, retry later"
                    } else {
                        "server overloaded: worker queue full, retry later"
                    };
                    let mut tr = PendingTrace::new(rid, route, t_start, parse_us);
                    let bytes =
                        Response::json(503, ErrorBody::new(503, message).to_json().encode())
                            .with_retry_after(RETRY_AFTER_SECS)
                            .to_bytes_with_id(keep_alive, Some(&tr.id));
                    tr.mark_serialized(503, Outcome::ShedOverload);
                    self.fill_slot(id, gen, seq, bytes, tr);
                    return;
                }
            }
            let waiter = Waiter {
                conn: id,
                gen,
                seq,
                keep_alive,
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
            let route = Route::resolve(&req.path);
            let mut tr = PendingTrace::new(rid, route, t_start, parse_us);
            let handled = self.app.handle_traced(&req);
            // Inline GETs never queue: the handler time is the eval span,
            // except the body's encoding, which is serialize time.
            tr.eval_us = tr
                .elapsed_us()
                .saturating_sub(tr.spans_us() + handled.encode_us);
            let resp = handled.response;
            let bytes = resp.to_bytes_with_id(keep_alive, Some(&tr.id));
            tr.mark_serialized(resp.status, Outcome::Complete);
            self.fill_slot(id, gen, seq, bytes, tr);
        }
    }

    /// Answers a request-level failure (parse error, 408); the
    /// connection has already stopped parsing.
    fn push_immediate(&mut self, id: usize, resp: Response, outcome: Outcome) {
        let Some((gen, seq)) = self.conn(id).map(|c| (c.gen, c.open_slot())) else {
            return;
        };
        // No parsed request to take an id from; mint one so even error
        // responses are traceable end to end.
        let mut tr = PendingTrace::new(self.app.request_id(None), Route::Other, Instant::now(), 0);
        let bytes = resp.to_bytes_with_id(false, Some(&tr.id));
        tr.mark_serialized(resp.status, outcome);
        self.fill_slot(id, gen, seq, bytes, tr);
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
                handled:
                    Handled {
                        response: resp,
                        panicked,
                        encode_us,
                    },
                eval_us,
                cache,
                outcome,
            }) = next
            else {
                return;
            };
            if panicked {
                self.note_panic(&key);
            }
            let waiters = self.inflight.remove(&key).unwrap_or_default();
            let route = Route::resolve(&key.0);
            let mut touched = Vec::new();
            for (i, w) in waiters.into_iter().enumerate() {
                let mut tr = PendingTrace::new(w.id, route, w.t_start, w.parse_us);
                tr.eval_us = eval_us;
                tr.cache = cache;
                // Queue span by contiguity: everything between the end
                // of parsing and the worker's evaluation is time this
                // waiter spent on the pool (dispatch + completion queues).
                // The worker's encoding time is left to the serialize
                // span, which closes below.
                tr.queue_us = tr
                    .elapsed_us()
                    .saturating_sub(w.parse_us + eval_us + encode_us);
                let bytes = resp.to_bytes_with_id(w.keep_alive, Some(&tr.id));
                tr.mark_serialized(
                    resp.status,
                    if i > 0 {
                        Outcome::CoalesceJoin
                    } else {
                        outcome
                    },
                );
                self.fill_slot(w.conn, w.gen, w.seq, bytes, tr);
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

    /// Fills one response slot. An answer addressed to a connection
    /// that has closed (or whose slab slot now holds a newer one) has
    /// nowhere to go; its trace is recorded as it stands.
    fn fill_slot(&mut self, id: usize, gen: u64, seq: u64, bytes: Vec<u8>, trace: PendingTrace) {
        let conn = self.conn(id).filter(|conn| conn.gen == gen);
        let orphan = match conn {
            Some(conn) => conn.answer(seq, bytes, trace),
            None => Some(trace),
        };
        if let Some(trace) = orphan {
            self.app.observe_trace(trace.finish());
        }
    }

    fn conn(&mut self, id: usize) -> Option<&mut Conn<Socket>> {
        self.conns.get_mut(id).and_then(Option::as_mut)
    }

    fn close_conn(&mut self, id: usize) {
        if let Some(conn) = self.conns.get_mut(id).and_then(Option::take) {
            let _ = self.poller.deregister(conn.stream.tcp.as_raw_fd());
            let served = conn.served;
            // The write span absorbs the time until the close.
            for tr in conn.into_unrecorded() {
                self.app.observe_trace(tr.finish());
            }
            self.app.metrics().record_connection_closed(served);
            self.active -= 1;
            self.free.push(id);
        }
    }

    // ---- timers ------------------------------------------------------

    fn check_timers(&mut self, now: Instant) {
        let config = self.config;
        for id in 0..self.conns.len() {
            let Some(conn) = self.conn(id) else {
                continue;
            };
            let Some((_, cue)) = conn.deadline(config).filter(|&(at, _)| now >= at) else {
                continue;
            };
            if conn.advance(cue) == Next::Close {
                self.close_conn(id);
            } else {
                // Only a stalled partial request outlives its deadline.
                let err = ParseError::new(408, "timed out waiting for a complete request");
                let resp = self.app.handle_parse_error(&err);
                self.push_immediate(id, resp, Outcome::Timeout);
                self.service(id);
            }
        }
    }

    /// The next poll timeout: the soonest connection deadline, or block
    /// indefinitely when nothing is waiting on time.
    fn next_timeout(&self) -> Option<Duration> {
        let deadlines = self.conns.iter().flatten().map(|c| c.deadline(self.config));
        let (soonest, _) = deadlines.flatten().min_by_key(|&(at, _)| at)?;
        let wait = soonest.saturating_duration_since(Instant::now());
        Some(wait.max(Duration::from_millis(10)))
    }

    // ---- shutdown ----------------------------------------------------

    /// Starts the drain: no new requests are parsed; idle connections
    /// close now, busy ones close as their last response flushes.
    fn begin_shutdown(&mut self) {
        for id in 0..self.conns.len() {
            let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                continue;
            };
            if conn.advance(Cue::Drain) == Next::Close {
                self.close_conn(id);
            } else {
                watch(self.poller, id, conn);
            }
        }
    }
}

/// Registers `conn` for the readiness it now waits on.
fn watch(poller: &Poller, id: usize, conn: &mut Conn<Socket>) {
    let want = conn.wants();
    let fd = conn.stream.tcp.as_raw_fd();
    if want != conn.interest && poller.modify(fd, id as u64, want).is_ok() {
        conn.interest = want;
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
    shared: &'a WorkerShared,
}

impl CoalitionGuard<'_> {
    fn complete(mut self, handled: Handled, eval_us: u64, cache: CacheDelta, outcome: Outcome) {
        if let Some(key) = self.key.take() {
            post_completion(
                self.shared,
                Completion {
                    key,
                    handled,
                    eval_us,
                    cache,
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
                handled: Handled {
                    response: Response::json(500, body),
                    panicked: true,
                    encode_us: 0,
                },
                eval_us: 0,
                cache: CacheDelta::default(),
                outcome: Outcome::WorkerDied,
            },
        );
    }
}

/// Saves the evaluation-cache and retention-score snapshot on the event
/// loop's thread, logging `snapshot_saved` with what it wrote and how long
/// the save stalled the loop (`save_ms`), or the failure. A failed
/// periodic save is a warning (the next tick retries); a failed save on
/// drain loses the caches and is an error.
fn save_snapshot(app: &App, path: &Path, boot_id: &str, periodic: bool) {
    let context = app.context();
    let started = Instant::now();
    let saved = snapshot::save(context.engine().eval_cache(), context.retention(), path);
    let trace_id = ("trace_id", Json::str(boot_id));
    let path = ("path", Json::str(path.display().to_string()));
    match saved {
        Ok(saved) => app.logger().info(
            "snapshot_saved",
            &[
                trace_id,
                path,
                ("entries", Json::Num(saved.entries as f64)),
                ("scores", Json::Num(saved.scores as f64)),
                ("bytes", Json::Num(saved.bytes as f64)),
                ("periodic", Json::Bool(periodic)),
                ("save_ms", Json::Num(started.elapsed().as_secs_f64() * 1e3)),
            ],
        ),
        Err(e) => {
            let level = if periodic { Level::Warn } else { Level::Error };
            app.logger().log(
                level,
                "snapshot_save_failed",
                &[
                    trace_id,
                    path,
                    ("error", Json::str(e.to_string())),
                    ("periodic", Json::Bool(periodic)),
                ],
            );
        }
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
        shared.app.metrics().record_dequeued();
        // From here until completion the coalition is owed an answer:
        // if anything below unwinds (an injected worker panic), the
        // guard posts the 500 during the unwind and the supervisor
        // respawns this thread.
        let guard = CoalitionGuard {
            key: Some(key),
            shared,
        };
        // Deadline-aware shedding: work that expired in the queue is
        // answered 503 without spending evaluation cycles on it.
        if let Some(deadline) = job_deadline(&req, shared.default_deadline) {
            if deadline.is_zero() || enqueued.elapsed() > deadline {
                shared.app.logger().info(
                    "deadline_shed",
                    &[
                        ("trace_id", Json::str(trace_id.as_str())),
                        ("route", Json::str(Route::resolve(&req.path).label())),
                    ],
                );
                let body = ErrorBody::new(503, "deadline expired before evaluation; request shed")
                    .to_json()
                    .encode();
                let handled = Handled {
                    response: Response::json(503, body).with_retry_after(RETRY_AFTER_SECS),
                    panicked: false,
                    encode_us: 0,
                };
                guard.complete(handled, 0, CacheDelta::default(), Outcome::ShedDeadline);
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
                injected_worker_panic();
            }
        }
        let before = CacheDelta::read(&shared.app);
        let t_eval = Instant::now();
        let handled = shared.app.handle_traced(&req);
        let handler_us = u64::try_from(t_eval.elapsed().as_micros()).unwrap_or(u64::MAX);
        let cache = CacheDelta::read(&shared.app).since(before);
        if handled.panicked {
            shared.app.metrics().record_worker_panic();
        }
        let eval_us = handler_us.saturating_sub(handled.encode_us);
        guard.complete(handled, eval_us, cache, Outcome::Complete);
    }
}

/// The fault plane's `WorkerPanic`: unwinds out of the worker loop.
#[expect(
    clippy::panic,
    reason = "deliberate fault injection; the worker supervisor catches the unwind and respawns"
)]
fn injected_worker_panic() -> ! {
    panic!("injected worker panic (fault plane)");
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
