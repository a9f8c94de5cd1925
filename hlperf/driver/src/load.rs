//! Load generation: closed-loop clients, the per-operation output check,
//! and request tracing through `GET /v1/trace`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::http::{Conn, Reply};
use crate::json::Json;
use crate::server::{Launch, Server};

const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One request of a workload.
#[derive(Clone)]
pub struct Op {
    pub path: &'static str,
    pub body: String,
    /// First-touch key: the unit of work the server's caches are keyed on
    /// (a design × model pair).
    pub touch: u64,
    /// Key for `first_query_ms`: the op counts when it is the first with
    /// this key since boot.
    pub query_key: Option<u64>,
}

impl Op {
    fn key(&self) -> String {
        format!("{} {}", self.path, self.body)
    }
}

/// One measured operation.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Latency in ms; a failed operation reads +inf, so it misses every
    /// latency limit instead of leaving the sample.
    pub latency_ms: f64,
    pub ok: bool,
    /// The op was the first touch of its key since boot.
    pub fresh: bool,
    pub first_query: bool,
    /// The generator's own gap between a reply and the next send.
    pub lag_ms: f64,
}

/// Every distinct request's first reply body and how many ops sent it.
/// Replies are deterministic, so every later reply must match byte for
/// byte; the first ones are checked against a reference server after the
/// run.
#[derive(Default)]
pub struct Seen {
    map: HashMap<String, (Vec<u8>, u64)>,
    pub mismatches: u64,
}

impl Seen {
    /// Records a 200 reply; false when it differs from an earlier reply
    /// to the same request.
    fn observe(&mut self, op: &Op, body: Vec<u8>) -> bool {
        match self.map.get_mut(&op.key()) {
            Some((first, count)) => {
                *count += 1;
                if *first != body {
                    self.mismatches += 1;
                    return false;
                }
                true
            }
            None => {
                self.map.insert(op.key(), (body, 1));
                true
            }
        }
    }

    pub fn merge(&mut self, other: Seen) {
        self.mismatches += other.mismatches;
        for (key, (body, count)) in other.map {
            match self.map.get_mut(&key) {
                Some((first, n)) => {
                    *n += count;
                    if *first != body {
                        self.mismatches += count;
                    }
                }
                None => {
                    self.map.insert(key, (body, count));
                }
            }
        }
    }

    /// Asks a fresh single-threaded reference server for every distinct
    /// request once and compares the bytes. Ops whose replies differ are
    /// added to `mismatches`; returns the number of differing requests.
    pub fn verify(&mut self, reference: &Launch) -> Result<u64, String> {
        let mut keys: Vec<&String> = self.map.keys().collect();
        keys.sort();
        let requests: Vec<(&'static str, String)> = keys
            .iter()
            .map(|k| {
                let (path, body) = k.split_once(' ').expect("keys are `path body`");
                let path = ["/v1/search", "/v1/evaluate_model"]
                    .into_iter()
                    .find(|p| *p == path)
                    .expect("known route");
                (path, body.to_string())
            })
            .collect();
        let replies = reference_replies(reference, &requests)?;
        let mut bad_keys = 0;
        for ((path, body), reply) in requests.iter().zip(replies) {
            let (first, count) = &self.map[&format!("{path} {body}")];
            if reply.status != 200 || reply.body != *first {
                eprintln!("hlperf: reply mismatch for {path} {body}");
                bad_keys += 1;
                self.mismatches += count;
            }
        }
        Ok(bad_keys)
    }
}

/// Boots a fresh reference server and sends each request once, in order.
pub fn reference_replies(
    reference: &Launch,
    requests: &[(&'static str, String)],
) -> Result<Vec<Reply>, String> {
    let server = Server::boot(reference)?;
    let mut conn = server.connect()?;
    let mut replies = Vec::with_capacity(requests.len());
    for (path, body) in requests {
        let reply = conn
            .call("POST", path, body.as_bytes())
            .map_err(|e| format!("reference {path}: {e}"))?;
        replies.push(reply);
    }
    drop(conn);
    server.stop()?;
    Ok(replies)
}

/// An op stream for one client; `None` ends that client.
pub trait Source: Send {
    fn next_op(&mut self) -> Option<Op>;
}

/// Request tracing: tags requests with unique `X-Request-Id`s and reads
/// their stage spans back from `GET /v1/trace`.
pub struct Tracer {
    prefix: String,
    next: AtomicU64,
    pending: Mutex<HashSet<String>>,
    /// `[parse, queue, eval, serialize, write]` in ms per matched request.
    pub spans: Mutex<Vec<[f64; 5]>>,
    pub tagged: AtomicU64,
}

/// Requests between trace polls per client: with up to two clients the
/// ring (256 records) never wraps between polls.
const POLL_EVERY: usize = 96;

impl Tracer {
    pub fn new(seed: u64) -> Tracer {
        Tracer {
            prefix: format!("hp{seed:x}-"),
            next: AtomicU64::new(0),
            pending: Mutex::new(HashSet::new()),
            spans: Mutex::new(Vec::new()),
            tagged: AtomicU64::new(0),
        }
    }

    fn tag(&self) -> String {
        let id = format!(
            "{}{}",
            self.prefix,
            self.next.fetch_add(1, Ordering::Relaxed)
        );
        self.pending.lock().expect("tracer lock").insert(id.clone());
        self.tagged.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Reads the trace ring and keeps the spans of our pending requests.
    pub fn poll(&self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn
            .call("GET", "/v1/trace?limit=256", b"")
            .map_err(|e| format!("/v1/trace: {e}"))?;
        let doc = Json::parse(&String::from_utf8_lossy(&reply.body))?;
        let traces = doc.get("traces").map(Json::arr).unwrap_or(&[]);
        let mut pending = self.pending.lock().expect("tracer lock");
        let mut spans = self.spans.lock().expect("tracer lock");
        for rec in traces {
            let Some(id) = rec.get("id").and_then(Json::str) else {
                continue;
            };
            if pending.remove(id) {
                let span = |name: &str| rec.num(&format!("spans.{name}")).unwrap_or(0.0);
                spans.push([
                    span("parse_ms"),
                    span("queue_ms"),
                    span("eval_ms"),
                    span("serialize_ms"),
                    span("write_ms"),
                ]);
            }
        }
        Ok(())
    }
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub seen: Seen,
    pub wall_s: f64,
}

impl Phase {
    pub fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.seen.merge(other.seen);
        self.wall_s += other.wall_s;
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
}

/// First-touch bookkeeping for one server lifetime.
#[derive(Default)]
pub struct Touched {
    touched: Mutex<HashSet<u64>>,
    queried: Mutex<HashSet<u64>>,
}

impl Touched {
    fn first(&self, op: &Op) -> (bool, bool) {
        let fresh = self.touched.lock().expect("touch lock").insert(op.touch);
        let first_query = op
            .query_key
            .is_some_and(|k| self.queried.lock().expect("touch lock").insert(k));
        (fresh, first_query)
    }
}

fn outcome(seen: &mut Seen, op: &Op, reply: std::io::Result<Reply>) -> bool {
    match reply {
        Ok(r) if r.status == 200 => seen.observe(op, r.body),
        Ok(r) => {
            eprintln!("hlperf: {} answered {}", op.path, r.status);
            false
        }
        Err(e) => {
            eprintln!("hlperf: {} failed: {e}", op.path);
            false
        }
    }
}

/// Closed loop: each client sends its next request only after the
/// previous reply arrived. Clients stop at `deadline` or when their source
/// ends. With a tracer, clients pause every [`POLL_EVERY`] requests while
/// one of them reads the trace ring, so pauses never enter a latency.
pub fn closed_loop(
    server: &Server,
    sources: Vec<Box<dyn Source>>,
    deadline: Instant,
    touched: &Touched,
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let clients = sources.len();
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let results: Vec<Result<Phase, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|mut source| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || -> Result<Phase, String> {
                    let mut conn = server.connect()?;
                    let mut phase = Phase::default();
                    let mut last_reply = None::<Instant>;
                    let mut n = 0usize;
                    loop {
                        if let Some(tracer) = tracer {
                            if n > 0 && n.is_multiple_of(POLL_EVERY) {
                                if barrier.wait().is_leader() {
                                    tracer.poll(&mut conn)?;
                                    stop.store(Instant::now() >= deadline, Ordering::SeqCst);
                                }
                                barrier.wait();
                                last_reply = None;
                                if stop.load(Ordering::SeqCst) {
                                    break;
                                }
                            }
                        } else if Instant::now() >= deadline {
                            break;
                        }
                        let Some(op) = source.next_op() else {
                            break;
                        };
                        let id = tracer.map(Tracer::tag);
                        let (fresh, first_query) = touched.first(&op);
                        let sent = Instant::now();
                        let reply = conn
                            .send("POST", op.path, op.body.as_bytes(), id.as_deref())
                            .and_then(|()| conn.recv(REPLY_TIMEOUT));
                        let done = Instant::now();
                        let failed_transport = reply.is_err();
                        let ok = outcome(&mut phase.seen, &op, reply);
                        let latency = (done - sent).as_secs_f64() * 1e3;
                        phase.samples.push(Sample {
                            latency_ms: if ok { latency } else { f64::INFINITY },
                            ok,
                            fresh,
                            first_query,
                            lag_ms: last_reply.map_or(0.0, |t| (sent - t).as_secs_f64() * 1e3),
                        });
                        if failed_transport {
                            conn = server.connect()?;
                        }
                        last_reply = Some(Instant::now());
                        n += 1;
                    }
                    if let Some(tracer) = tracer {
                        if barrier.wait().is_leader() {
                            tracer.poll(&mut conn)?;
                        }
                    }
                    Ok(phase)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut total = Phase::default();
    for r in results {
        total.absorb(r?);
    }
    total.wall_s = t0.elapsed().as_secs_f64();
    Ok(total)
}

/// Sends ops once, sequentially, unmeasured (snapshot preparation); their
/// replies join the output check.
pub fn prime(server: &Server, ops: &[Op]) -> Result<Seen, String> {
    let mut conn = server.connect()?;
    let mut seen = Seen::default();
    for op in ops {
        let reply = conn.call("POST", op.path, op.body.as_bytes());
        if !outcome(&mut seen, op, reply) {
            return Err(format!("preparing {} {} failed", op.path, op.body));
        }
    }
    // Primed replies are references, not measured ops.
    for entry in seen.map.values_mut() {
        entry.1 = 0;
    }
    Ok(seen)
}
