//! Lock-free server metrics, and the two tables that declare the
//! serving surface once.
//!
//! - `ROUTES` holds one row per [`Route`]: its canonical `/v1/` path,
//!   its method and whether overload sheds it first. Path resolution, labels, the 405
//!   and 404 replies, the per-route counters and the shedding policy
//!   all read it; a const check keeps it in step with the enum.
//! - `FAMILIES` holds one row per `/v1/metrics` family: its
//!   Prometheus name, help text, JSON path and a typed reader.
//!   `metrics_json` and `render_prometheus` are two walks over it,
//!   so adding a metric means adding one row. The JSON walk derives the
//!   `requests.total`, `*.hit_rate`, reuse `mean_requests`/`histogram`
//!   and latency mean/quantile leaves from their family's reading.
//!
//! Every per-request family is derived from the request's finished
//! [`TraceRecord`] in one place, [`Metrics::observe`], which
//! `App::observe_trace` calls as it feeds the trace ring and the
//! request log: the per-route and status-class counts from the record's
//! route and status, `requests.coalesced`, `shed.*` and
//! `workers.quarantined` from its outcome, latency from its total and
//! queue wait from its queue span. So `/v1/metrics` counts exactly the
//! requests `/v1/trace` lists, and its latency is the trace's
//! start-to-last-byte total. The remaining recorders count what is not
//! a request outcome: connections, busy rejections, worker panics and
//! respawns and the queue-depth gauge.
//!
//! Recording is plain atomics (counters and one log₂ histogram type,
//! [`Log2Histogram`], for latency and queue wait in microseconds and
//! for requests per connection), so the event loop and the worker pool
//! never contend; `/v1/metrics` reads are racy snapshots, which is fine
//! for monitoring. Every histogram exports its open last bucket only
//! under `+Inf`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::api::App;
use crate::json::{Value, View, Writer};
use crate::prom::Exposition;
use crate::trace::{Outcome, TraceRecord};

/// The routes the server tracks individually. Each has one row in
/// `ROUTES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /v1/healthz`.
    Healthz,
    /// `GET /v1/designs`.
    Designs,
    /// `GET /v1/metrics`.
    Metrics,
    /// `GET /v1/models`.
    Models,
    /// `POST /v1/evaluate`.
    Evaluate,
    /// `POST /v1/evaluate_model`.
    EvaluateModel,
    /// `POST /v1/sweep`.
    Sweep,
    /// `POST /v1/search`.
    Search,
    /// `GET /v1/trace`.
    Trace,
    /// Anything else (404s, parse failures, …). Stays the last variant:
    /// its row closes `ROUTES`.
    Other,
}

/// One row of the route table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteSpec {
    /// The route this row describes.
    pub route: Route,
    /// The canonical `/v1/` path; `other` for the catch-all, which no
    /// request path resolves to.
    pub path: &'static str,
    /// The one method the route answers; any other gets a 405.
    pub method: &'static str,
    /// Whether overload sheds this route before the others.
    pub expensive: bool,
}

const fn row(route: Route, path: &'static str, method: &'static str, expensive: bool) -> RouteSpec {
    RouteSpec {
        route,
        path,
        method,
        expensive,
    }
}

/// The route table, one row per [`Route`] in declaration order (which
/// is also the display order of the per-route series and the 404 list).
#[rustfmt::skip]
pub(crate) const ROUTES: [RouteSpec; 10] = [
    // route, path, method, expensive
    row(Route::Healthz, "/v1/healthz", "GET", false),
    row(Route::Designs, "/v1/designs", "GET", false),
    row(Route::Metrics, "/v1/metrics", "GET", false),
    row(Route::Models, "/v1/models", "GET", false),
    row(Route::Evaluate, "/v1/evaluate", "POST", false),
    row(Route::EvaluateModel, "/v1/evaluate_model", "POST", false),
    row(Route::Sweep, "/v1/sweep", "POST", true),
    row(Route::Search, "/v1/search", "POST", true),
    row(Route::Trace, "/v1/trace", "GET", false),
    row(Route::Other, "other", "", false),
];

/// True when row `i` of [`ROUTES`] names the variant whose discriminant
/// is `i` and the table ends at [`Route::Other`], the last variant:
/// then every variant has exactly one row, at index `route as usize`.
const fn routes_cover_each_variant_once() -> bool {
    let mut rows: &[RouteSpec] = &ROUTES;
    let mut i = 0;
    while let [first, rest @ ..] = rows {
        if first.route as usize != i {
            return false;
        }
        rows = rest;
        i += 1;
    }
    i == Route::Other as usize + 1
}

#[expect(
    clippy::disallowed_macros,
    reason = "evaluated at compile time: a false check fails the build"
)]
const _: () = assert!(
    routes_cover_each_variant_once(),
    "ROUTES must list every Route variant once, in declaration order"
);

impl Route {
    /// This route's row of [`ROUTES`].
    #[expect(
        clippy::indexing_slicing,
        reason = "the const check above makes every discriminant a row index"
    )]
    pub(crate) fn spec(self) -> &'static RouteSpec {
        &ROUTES[self as usize]
    }

    /// Resolves a request path to its route; an unknown path (an
    /// unversioned one included) is [`Route::Other`].
    pub fn resolve(path: &str) -> Route {
        ROUTES
            .iter()
            .find(|spec| spec.path == path)
            .map_or(Route::Other, |spec| spec.route)
    }

    /// Display label (the canonical `/v1/` path, or `other`).
    pub fn label(self) -> &'static str {
        self.spec().path
    }
}

/// A log₂-bucketed histogram of `u64` observations with `N` buckets:
/// bucket `i` counts values in `[2^i, 2^(i+1))`, 0 counts in bucket 0,
/// and the last bucket is open. One type serves every unit: the latency
/// histograms observe microseconds, the reuse histogram requests per
/// connection.
#[derive(Debug)]
pub struct Log2Histogram<const N: usize> {
    buckets: [AtomicU64; N],
    count: AtomicU64,
    sum: AtomicU64,
}

impl<const N: usize> Default for Log2Histogram<N> {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl<const N: usize> Log2Histogram<N> {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let bucket = (63 - value.max(1).leading_zeros() as usize).min(N - 1);
        if let Some(b) = self.buckets.get(bucket) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum() as f64 / n as f64
    }

    /// All per-bucket (non-cumulative) counts, in bucket order — the
    /// raw series Prometheus exposition accumulates.
    pub fn bucket_counts(&self) -> [u64; N] {
        self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed))
    }

    /// The first bucket whose cumulative count reaches the rank
    /// `q · count` (at least 1; `q` is clamped to `[0, 1]`), and how
    /// deep into that bucket the rank falls, in `(0, 1]`. `None` when
    /// empty.
    fn rank_bucket(&self, q: f64) -> Option<(usize, f64)> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.bucket_counts().into_iter().enumerate() {
            if seen + n >= target {
                return Some((i, (target - seen) as f64 / n as f64));
            }
            seen += n;
        }
        // A racy snapshot whose buckets lag the count: the top of the
        // open bucket.
        Some((N - 1, 1.0))
    }

    /// Estimated quantile (0 when empty), with linear interpolation
    /// inside the winning bucket: assuming observations spread evenly
    /// across `[2^i, 2^(i+1))`, the estimate is `lower + frac · width`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.rank_bucket(q).map_or(0.0, |(i, frac)| {
            // Bucket 0 also holds zeros, so its floor is 0 rather than 2^0.
            let lower = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let upper = (1u64 << (i + 1)) as f64;
            lower + frac * (upper - lower)
        })
    }
}

/// Number of log₂ latency buckets: bucket `i` counts requests with
/// latency in `[2^i, 2^(i+1))` microseconds; the last bucket is open.
pub const LATENCY_BUCKETS: usize = 26;

/// A latency histogram at microsecond resolution.
pub type LatencyHistogram = Log2Histogram<LATENCY_BUCKETS>;

impl LatencyHistogram {
    /// [`Self::quantile`] in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q) / 1000.0
    }

    /// Sum of all observations in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum()
    }
}

/// Number of log₂ requests-per-connection buckets: bucket 0 is
/// single-request (no reuse) connections; the last bucket is open.
pub const REUSE_BUCKETS: usize = 16;

/// Server-wide metrics shared between the event loop and the worker pool.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// One counter per [`ROUTES`] row, indexed by `route as usize`.
    requests: [AtomicU64; ROUTES.len()],
    status_2xx: AtomicU64,
    status_3xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    status_other: AtomicU64,
    rejected_busy: AtomicU64,
    coalesced: AtomicU64,
    conns_accepted: AtomicU64,
    conns_closed: AtomicU64,
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    quarantined: AtomicU64,
    shed_deadline: AtomicU64,
    shed_overload: AtomicU64,
    queue_depth: AtomicU64,
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    reuse: Log2Histogram<REUSE_BUCKETS>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh metrics; uptime counts from now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: Default::default(),
            status_2xx: AtomicU64::new(0),
            status_3xx: AtomicU64::new(0),
            status_4xx: AtomicU64::new(0),
            status_5xx: AtomicU64::new(0),
            status_other: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            reuse: Log2Histogram::new(),
        }
    }

    /// Seconds since the metrics (≈ the server) started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records one finished request from its trace record: the only
    /// place a per-request family changes (see the module docs).
    pub fn observe(&self, rec: &TraceRecord) {
        if let Some(c) = self.requests.get(rec.route as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        match rec.status {
            200..=299 => &self.status_2xx,
            300..=399 => &self.status_3xx,
            400..=499 => &self.status_4xx,
            500..=599 => &self.status_5xx,
            // 1xx and anything out of range.
            _ => &self.status_other,
        }
        .fetch_add(1, Ordering::Relaxed);
        let outcome = match rec.outcome {
            Outcome::CoalesceJoin => Some(&self.coalesced),
            Outcome::ShedDeadline => Some(&self.shed_deadline),
            Outcome::ShedOverload => Some(&self.shed_overload),
            Outcome::Quarantine => Some(&self.quarantined),
            Outcome::Complete | Outcome::ParseError | Outcome::Timeout | Outcome::WorkerDied => {
                None
            }
        };
        if let Some(counter) = outcome {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.observe(rec.total_us);
        self.queue_wait.observe(rec.queue_us);
    }

    /// Records an accepted connection.
    pub fn record_connection_opened(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a closed connection and the number of requests it served
    /// (feeding the reuse histogram).
    pub fn record_connection_closed(&self, requests_served: u64) {
        self.conns_closed.fetch_add(1, Ordering::Relaxed);
        self.reuse.observe(requests_served);
    }

    /// Records a connection shed with 503 because the server was at its
    /// connection cap.
    pub fn record_busy_rejection(&self) {
        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker thread dying to a panic.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a dead worker being respawned by the supervisor.
    pub fn record_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests answered by coalescing onto an in-flight computation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Records a job entering the worker queue (bumps the depth gauge).
    pub fn record_enqueued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job leaving the worker queue (drops the depth gauge).
    pub fn record_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Jobs currently sitting in the worker queue.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// The latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }
}

/// One `/v1/metrics` family: a row of [`FAMILIES`].
pub(crate) struct Family {
    /// The Prometheus family name.
    pub name: &'static str,
    /// The Prometheus `# HELP` text.
    pub help: &'static str,
    /// The dotted JSON path: of the family's leaf, or of the object
    /// holding its leaves for [`Kind::CounterVec`].
    pub json: &'static str,
    /// The family's kind, with its reader.
    pub kind: Kind,
}

/// How a family reads the app and renders in each view.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// A counter: one sample, one JSON leaf.
    Counter(fn(&App) -> f64),
    /// A gauge: one sample, one JSON leaf.
    Gauge(fn(&App) -> f64),
    /// A cache-miss counter. In JSON its leaf is followed by `hit_rate`,
    /// hits / (hits + misses) with the `hits` leaf of the same object
    /// (0 when both are 0).
    Misses(fn(&App) -> f64),
    /// A counter with one sample per `(label value, count)` pair under
    /// the label key `label`. In JSON, one leaf per label value in the
    /// object at the path, led by their sum as `total` when `total` is
    /// set.
    CounterVec {
        label: &'static str,
        total: bool,
        read: fn(&App) -> Vec<(&'static str, f64)>,
    },
    /// A microsecond latency histogram, exported in seconds with the
    /// inclusive edge `2^(i+1) − 1` µs. In JSON, an object of `count`,
    /// `mean` and interpolated `p50`/`p90`/`p99` in ms.
    Latency(fn(&App) -> &LatencyHistogram),
    /// The requests-per-connection histogram. Bucket `i` holds counts in
    /// `[2^i, 2^(i+1))`, so it is exported with the inclusive edge
    /// `2^(i+1) − 1`. In JSON, an object of `count`, `mean_requests`,
    /// and the non-empty buckets as `{ge, count}`.
    Reuse(fn(&App) -> &Log2Histogram<REUSE_BUCKETS>),
}

fn load(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64
}

/// Every `/v1/metrics` family, in JSON order. Rows whose JSON paths
/// share an object are adjacent.
pub(crate) static FAMILIES: [Family; 26] = [
    Family {
        name: "hl_uptime_seconds",
        help: "Seconds since the server started.",
        json: "uptime_s",
        kind: Kind::Gauge(|a| a.metrics().uptime_s()),
    },
    Family {
        name: "hl_threads",
        help: "Evaluation engine worker threads.",
        json: "threads",
        kind: Kind::Gauge(|a| a.context().engine().threads() as f64),
    },
    Family {
        name: "hl_requests_coalesced_total",
        help: "Requests answered by joining an identical in-flight computation.",
        json: "requests.coalesced",
        kind: Kind::Counter(|a| load(&a.metrics().coalesced)),
    },
    Family {
        name: "hl_requests_total",
        help: "Requests handled, by route.",
        json: "requests",
        kind: Kind::CounterVec {
            label: "route",
            total: true,
            read: |a| {
                let counts = &a.metrics().requests;
                ROUTES
                    .iter()
                    .zip(counts)
                    .map(|(r, c)| (r.path, load(c)))
                    .collect()
            },
        },
    },
    Family {
        name: "hl_responses_total",
        help: "Responses by status class.",
        json: "responses",
        kind: Kind::CounterVec {
            label: "class",
            total: false,
            read: |a| {
                let m = a.metrics();
                vec![
                    ("2xx", load(&m.status_2xx)),
                    ("3xx", load(&m.status_3xx)),
                    ("4xx", load(&m.status_4xx)),
                    ("5xx", load(&m.status_5xx)),
                    ("other", load(&m.status_other)),
                ]
            },
        },
    },
    Family {
        name: "hl_responses_rejected_busy_total",
        help: "Connections shed with 503 at the connection cap.",
        json: "responses.rejected_busy",
        kind: Kind::Counter(|a| load(&a.metrics().rejected_busy)),
    },
    Family {
        name: "hl_worker_panics_total",
        help: "Worker threads killed by a panic.",
        json: "workers.panics",
        kind: Kind::Counter(|a| load(&a.metrics().worker_panics)),
    },
    Family {
        name: "hl_worker_respawns_total",
        help: "Dead workers respawned by the supervisor.",
        json: "workers.respawns",
        kind: Kind::Counter(|a| load(&a.metrics().worker_respawns)),
    },
    Family {
        name: "hl_workers_quarantined_total",
        help: "Requests answered from quarantine.",
        json: "workers.quarantined",
        kind: Kind::Counter(|a| load(&a.metrics().quarantined)),
    },
    Family {
        name: "hl_shed_total",
        help: "Requests shed, by reason.",
        json: "shed",
        kind: Kind::CounterVec {
            label: "reason",
            total: false,
            read: |a| {
                let m = a.metrics();
                vec![
                    ("deadline", load(&m.shed_deadline)),
                    ("overload", load(&m.shed_overload)),
                ]
            },
        },
    },
    Family {
        name: "hl_connections_accepted_total",
        help: "Connections accepted.",
        json: "connections.accepted",
        kind: Kind::Counter(|a| load(&a.metrics().conns_accepted)),
    },
    Family {
        name: "hl_connections_closed_total",
        help: "Connections closed.",
        json: "connections.closed",
        kind: Kind::Counter(|a| load(&a.metrics().conns_closed)),
    },
    Family {
        name: "hl_connections_active",
        help: "Connections currently open.",
        json: "connections.active",
        kind: Kind::Gauge(|a| {
            let m = a.metrics();
            let accepted = m.conns_accepted.load(Ordering::Relaxed);
            accepted.saturating_sub(m.conns_closed.load(Ordering::Relaxed)) as f64
        }),
    },
    Family {
        name: "hl_connection_requests",
        help: "Requests served per closed connection.",
        json: "connections.reuse",
        kind: Kind::Reuse(|a| &a.metrics().reuse),
    },
    Family {
        name: "hl_eval_cache_entries",
        help: "Entries in the shared evaluation cache.",
        json: "eval_cache.entries",
        kind: Kind::Gauge(|a| a.context().engine().eval_cache().len() as f64),
    },
    Family {
        name: "hl_eval_cache_hits_total",
        help: "Eval cache hits.",
        json: "eval_cache.hits",
        kind: Kind::Counter(|a| a.context().engine().eval_cache().hits() as f64),
    },
    Family {
        name: "hl_eval_cache_misses_total",
        help: "Eval cache misses.",
        json: "eval_cache.misses",
        kind: Kind::Misses(|a| a.context().engine().eval_cache().misses() as f64),
    },
    Family {
        name: "hl_retention_cache_entries",
        help: "Scores in the retention (surrogate accuracy) cache.",
        json: "retention_cache.entries",
        kind: Kind::Gauge(|a| a.context().retention().len() as f64),
    },
    Family {
        name: "hl_retention_cache_hits_total",
        help: "Retention (surrogate accuracy) cache hits.",
        json: "retention_cache.hits",
        kind: Kind::Counter(|a| a.context().retention().stats().0 as f64),
    },
    Family {
        name: "hl_retention_cache_misses_total",
        help: "Retention (surrogate accuracy) cache misses.",
        json: "retention_cache.misses",
        kind: Kind::Misses(|a| a.context().retention().stats().1 as f64),
    },
    Family {
        name: "hl_search_cache_entries",
        help: "Entries in the search-front table (one co-design front per design and model).",
        json: "search_cache.entries",
        kind: Kind::Gauge(|a| a.context().search_stats().0 as f64),
    },
    Family {
        name: "hl_search_cache_hits_total",
        help: "Search-front table hits.",
        json: "search_cache.hits",
        kind: Kind::Counter(|a| a.context().search_hits() as f64),
    },
    Family {
        name: "hl_search_cache_misses_total",
        help: "Search-front table misses.",
        json: "search_cache.misses",
        kind: Kind::Misses(|a| a.context().search_stats().2 as f64),
    },
    Family {
        name: "hl_queue_depth",
        help: "Jobs waiting in the worker queue.",
        json: "queue.depth",
        kind: Kind::Gauge(|a| load(&a.metrics().queue_depth)),
    },
    Family {
        name: "hl_queue_wait_seconds",
        help: "Queue span of each request's trace (queue_ms): worker-pool wait, 0 when answered inline.",
        json: "queue.wait_ms",
        kind: Kind::Latency(|a| &a.metrics().queue_wait),
    },
    Family {
        name: "hl_request_latency_seconds",
        help: "Total of each request's trace (total_ms): parse start to last byte written.",
        json: "latency_ms",
        kind: Kind::Latency(|a| &a.metrics().latency),
    },
];

const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)];

/// One member of a `/v1/metrics` JSON object, held until the walk leaves
/// its object: a `CounterVec`'s `total` leads members read before it.
enum Leaf<'a> {
    Num(f64),
    Latency(&'a LatencyHistogram),
    Reuse(&'a Log2Histogram<REUSE_BUCKETS>),
}

impl Value for Leaf<'_> {
    fn write_to(self, w: &mut Writer) {
        match self {
            Leaf::Num(n) => {
                w.value(n);
            }
            Leaf::Latency(h) => {
                w.object(|w| {
                    w.field("count", h.count()).field("mean", h.mean() / 1000.0);
                    for (name, q) in QUANTILES {
                        w.field(name, h.quantile_ms(q));
                    }
                });
            }
            Leaf::Reuse(h) => {
                w.object(|w| {
                    w.field("count", h.count()).field("mean_requests", h.mean());
                    w.key("histogram").array(|w| {
                        for (i, n) in (0u32..).zip(h.bucket_counts()).filter(|&(_, n)| n > 0) {
                            w.object(|w| {
                                w.field("ge", 1u64 << i).field("count", n);
                            });
                        }
                    });
                });
            }
        }
    }
}

/// Writes the members of the object named `object` (`""` is the root)
/// and empties `members`.
fn write_members(w: &mut Writer, object: &str, members: &mut Vec<(&str, Leaf<'_>)>) {
    if object.is_empty() {
        for (key, leaf) in members.drain(..) {
            w.field(key, leaf);
        }
    } else if !members.is_empty() {
        w.key(object).object(|w| {
            for (key, leaf) in members.drain(..) {
                w.field(key, leaf);
            }
        });
    }
}

/// The `/v1/metrics` JSON view: one walk over [`FAMILIES`]. Rows whose
/// JSON paths share an object are adjacent, so an object is written
/// once the walk leaves it.
pub(crate) fn metrics_json(app: &App) -> View<impl Fn(&mut Writer) + '_> {
    View::new(move |w| {
        w.object(|w| {
            let mut object = "";
            let mut members: Vec<(&str, Leaf<'_>)> = Vec::new();
            for family in &FAMILIES {
                let (parent, key) = match family.kind {
                    Kind::CounterVec { .. } => (family.json, ""),
                    _ => family.json.rsplit_once('.').unwrap_or(("", family.json)),
                };
                if parent != object {
                    write_members(w, object, &mut members);
                    object = parent;
                }
                match family.kind {
                    Kind::Counter(read) | Kind::Gauge(read) => {
                        members.push((key, Leaf::Num(read(app))));
                    }
                    Kind::Misses(read) => {
                        let misses = read(app);
                        let hits = members
                            .iter()
                            .find_map(|(k, leaf)| match leaf {
                                Leaf::Num(n) if *k == "hits" => Some(*n),
                                _ => None,
                            })
                            .unwrap_or(0.0);
                        let rate = if hits + misses == 0.0 {
                            0.0
                        } else {
                            hits / (hits + misses)
                        };
                        members.push((key, Leaf::Num(misses)));
                        members.push(("hit_rate", Leaf::Num(rate)));
                    }
                    Kind::CounterVec { total, read, .. } => {
                        let samples = read(app);
                        if total {
                            let sum = samples.iter().map(|(_, v)| v).sum();
                            members.insert(0, ("total", Leaf::Num(sum)));
                        }
                        members.extend(samples.into_iter().map(|(l, v)| (l, Leaf::Num(v))));
                    }
                    Kind::Latency(read) => members.push((key, Leaf::Latency(read(app)))),
                    Kind::Reuse(read) => members.push((key, Leaf::Reuse(read(app)))),
                }
            }
            write_members(w, object, &mut members);
        });
    })
}

/// Exports a log₂ histogram, `per_unit` observations to one exported
/// unit: closed bucket `i` under the inclusive edge
/// `le = (2^(i+1) − 1) / per_unit` (observations are integers, so it
/// counts exactly the values `≤ le`), and the open last bucket only
/// under `+Inf`.
fn export_log2<const N: usize>(
    e: &mut Exposition,
    f: &Family,
    h: &Log2Histogram<N>,
    per_unit: f64,
) {
    let edges: Vec<f64> = (1..N)
        .map(|i| ((1u64 << i) - 1) as f64 / per_unit)
        .collect();
    let sum = h.sum() as f64 / per_unit;
    e.histogram(f.name, f.help, &edges, &h.bucket_counts(), sum);
}

/// The Prometheus text exposition (format 0.0.4): the other walk over
/// [`FAMILIES`], in table order.
pub(crate) fn render_prometheus(app: &App) -> String {
    let mut e = Exposition::new();
    for f in &FAMILIES {
        match f.kind {
            Kind::Counter(read) | Kind::Misses(read) => e.counter(f.name, f.help, read(app)),
            Kind::Gauge(read) => e.gauge(f.name, f.help, read(app)),
            Kind::CounterVec { label, read, .. } => {
                e.counter_vec(f.name, f.help, label, &read(app));
            }
            Kind::Latency(read) => export_log2(&mut e, f, read(app), 1e6),
            Kind::Reuse(read) => export_log2(&mut e, f, read(app), 1.0),
        }
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> App {
        App::with_context(hl_eval::SweepContext::with_engine(
            hl_sim::engine::Engine::serial(),
        ))
    }

    fn family(name: &str) -> &'static Family {
        FAMILIES.iter().find(|f| f.name == name).unwrap()
    }

    /// A single-sample family's reading.
    fn value(app: &App, name: &str) -> f64 {
        match family(name).kind {
            Kind::Counter(read) | Kind::Gauge(read) | Kind::Misses(read) => read(app),
            _ => panic!("{name} is not a single-sample family"),
        }
    }

    /// A labelled family's reading.
    fn samples(app: &App, name: &str) -> Vec<(&'static str, f64)> {
        match family(name).kind {
            Kind::CounterVec { read, .. } => read(app),
            _ => panic!("{name} is not a labelled family"),
        }
    }

    fn sample(app: &App, name: &str, label: &str) -> f64 {
        let samples = samples(app, name);
        samples.iter().find(|(l, _)| *l == label).unwrap().1
    }

    /// A finished request's record: `queue_us` of its `total_us` queued,
    /// the rest evaluating.
    fn rec(
        route: Route,
        status: u16,
        outcome: Outcome,
        total_us: u64,
        queue_us: u64,
    ) -> TraceRecord {
        TraceRecord {
            id: String::new(),
            route,
            status,
            outcome,
            started_s: 0.0,
            total_us,
            parse_us: 0,
            queue_us,
            eval_us: total_us - queue_us,
            serialize_us: 0,
            write_us: 0,
            eval_cache_hits: 0,
            eval_cache_misses: 0,
            search_cache_hits: 0,
            retention_cache_hits: 0,
            retention_cache_misses: 0,
        }
    }

    #[test]
    fn routes_map_paths_and_labels() {
        assert_eq!(Route::resolve("/v1/healthz"), Route::Healthz);
        assert_eq!(Route::resolve("/v1/evaluate"), Route::Evaluate);
        assert_eq!(Route::resolve("/nope"), Route::Other);
        assert_eq!(Route::resolve("/v1/nope"), Route::Other);
        for spec in ROUTES {
            assert_eq!(spec.route.label(), spec.path);
            assert_eq!(spec.route.spec().route, spec.route);
        }
        assert!(Route::Search.spec().expensive && !Route::Evaluate.spec().expensive);
    }

    #[test]
    fn resolve_knows_only_v1_paths() {
        // Every route answers its `/v1/` path alone: the unversioned
        // form of each is an unknown path.
        for spec in ROUTES.iter().filter(|s| s.route != Route::Other) {
            assert_eq!(Route::resolve(spec.path), spec.route);
            let bare = spec.path.trim_start_matches("/v1");
            assert_eq!(Route::resolve(bare), Route::Other, "{bare}");
        }
        assert_eq!(Route::resolve("other"), Route::Other);
        // "/v1healthz" has no path separator after the prefix.
        assert_eq!(Route::resolve("/v1healthz"), Route::Other);
        assert_eq!(Route::resolve("/v1"), Route::Other);
    }

    /// 90 small and 10 large observations, fed to a latency histogram
    /// in microseconds and to a reuse-sized one as request counts.
    fn fast_and_slow() -> (LatencyHistogram, Log2Histogram<REUSE_BUCKETS>) {
        let (latency, reuse) = (LatencyHistogram::new(), Log2Histogram::new());
        for v in [8; 90].into_iter().chain([16_000; 10]) {
            latency.observe(v);
            reuse.observe(v);
        }
        (latency, reuse)
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        fn check<const N: usize>(h: &Log2Histogram<N>) {
            assert_eq!(h.count(), 100);
            assert_eq!(h.mean(), 1607.2);
            // p50 lands in [8, 16); interpolation stays inside it.
            assert!((8.0..=16.0).contains(&h.quantile(0.5)));
            // p99 lands in [8192, 16384); rank 99 of 100 sits 9/10 into it.
            assert!((h.quantile(0.99) - 15_564.8).abs() < 1e-9);
        }
        let (latency, reuse) = fast_and_slow();
        check(&latency);
        check(&reuse);
        assert!((latency.quantile_ms(0.99) - 15.5648).abs() < 1e-12);
    }

    #[test]
    fn bucket_counts_and_sums_snapshot_raw_series() {
        fn check<const N: usize>(h: &Log2Histogram<N>) {
            let counts = h.bucket_counts();
            assert_eq!(counts.iter().sum::<u64>(), 3);
            assert_eq!(counts[3], 2); // [8, 16)
            assert_eq!(counts[6], 1); // [64, 128)
            assert_eq!(h.sum(), 117);
        }
        let (latency, reuse) = (
            LatencyHistogram::new(),
            Log2Histogram::<REUSE_BUCKETS>::new(),
        );
        for v in [8, 9, 100] {
            latency.observe(v);
            reuse.observe(v);
        }
        check(&latency);
        check(&reuse);
        assert_eq!(latency.sum_us(), 117);
    }

    #[test]
    fn zero_and_huge_values_stay_in_range() {
        fn check<const N: usize>(h: &Log2Histogram<N>) {
            assert_eq!(h.quantile(0.5), 0.0);
            h.observe(0);
            h.observe(u64::MAX / 2);
            let counts = h.bucket_counts();
            // 0 counts in the first bucket, the huge value in the open last.
            assert_eq!((counts[0], counts[N - 1], h.count()), (1, 1, 2));
            assert_eq!(h.quantile(1.0), (1u64 << N) as f64);
        }
        check(&LatencyHistogram::new());
        check(&Log2Histogram::<REUSE_BUCKETS>::new());
        let latency = LatencyHistogram::new();
        latency.observe(0);
        latency.observe(100_000_000_000);
        assert_eq!(latency.bucket_counts()[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn reuse_histogram_tracks_requests_per_connection() {
        let app = app();
        let m = app.metrics();
        m.record_connection_closed(1); // one-shot connection
        m.record_connection_closed(1);
        m.record_connection_closed(150); // well-reused keep-alive connection
        m.record_connection_closed(0); // closed before any request; clamps to bucket 0
        let h = &m.reuse;
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 38.0).abs() < 1e-9);
        let counts = h.bucket_counts();
        assert_eq!((counts[0], counts[7]), (3, 1));
        assert_eq!(counts.iter().sum::<u64>(), 4);
    }

    #[test]
    fn open_last_latency_bucket_is_exported_only_under_inf() {
        let app = app();
        let us = 100_000_000;
        app.metrics()
            .observe(&rec(Route::Evaluate, 200, Outcome::Complete, us, us));
        let text = render_prometheus(&app);
        for family in ["hl_request_latency_seconds", "hl_queue_wait_seconds"] {
            let prefix = format!("{family}_bucket{{le=\"");
            let mut finite = 0;
            for line in text.lines() {
                let Some(rest) = line.strip_prefix(&prefix) else {
                    continue;
                };
                let (le, value) = rest.split_once("\"} ").unwrap();
                let expect = if le == "+Inf" { "1" } else { "0" };
                assert_eq!(value, expect, "{family} le={le}");
                finite += usize::from(le != "+Inf");
            }
            assert_eq!(finite, LATENCY_BUCKETS - 1, "{family}");
        }
    }

    #[test]
    fn metrics_record_and_classify() {
        let app = app();
        let m = app.metrics();
        m.observe(&rec(Route::Healthz, 200, Outcome::Complete, 5, 0));
        m.observe(&rec(Route::Evaluate, 200, Outcome::Complete, 50, 20));
        m.observe(&rec(Route::Other, 404, Outcome::Complete, 2, 0));
        m.observe(&rec(Route::Other, 400, Outcome::ParseError, 1, 0));
        m.observe(&rec(Route::Sweep, 500, Outcome::WorkerDied, 9, 4));
        m.record_busy_rejection();
        let routes = samples(&app, "hl_requests_total");
        assert_eq!(routes.iter().map(|(_, n)| n).sum::<f64>(), 5.0);
        assert_eq!(sample(&app, "hl_requests_total", "/v1/evaluate"), 1.0);
        assert_eq!(sample(&app, "hl_requests_total", "other"), 2.0);
        assert_eq!(sample(&app, "hl_responses_total", "2xx"), 2.0);
        assert_eq!(sample(&app, "hl_responses_total", "4xx"), 2.0);
        assert_eq!(sample(&app, "hl_responses_total", "5xx"), 1.0);
        assert_eq!(value(&app, "hl_responses_rejected_busy_total"), 1.0);
        // Every record feeds both histograms, parse errors included.
        assert_eq!((m.latency.count(), m.latency.sum_us()), (5, 67));
        assert_eq!((m.queue_wait.count(), m.queue_wait.sum_us()), (5, 24));
        assert!(value(&app, "hl_uptime_seconds") >= 0.0);
    }

    #[test]
    fn status_classes_cover_1xx_3xx_and_out_of_range() {
        let app = app();
        for status in [200, 301, 304, 404, 500, 101, 999] {
            app.metrics()
                .observe(&rec(Route::Healthz, status, Outcome::Complete, 1, 0));
        }
        // 1xx/3xx/out-of-range no longer pollute the 5xx counter.
        assert_eq!(
            samples(&app, "hl_responses_total"),
            vec![
                ("2xx", 1.0),
                ("3xx", 2.0),
                ("4xx", 1.0),
                ("5xx", 1.0),
                ("other", 2.0)
            ]
        );
    }

    #[test]
    fn queue_gauge_and_wait_histogram() {
        let m = Metrics::new();
        assert_eq!(m.queue_depth(), 0);
        m.record_enqueued();
        m.record_enqueued();
        assert_eq!(m.queue_depth(), 2);
        m.record_dequeued();
        assert_eq!(m.queue_depth(), 1);
        m.record_dequeued();
        assert_eq!(m.queue_depth(), 0);
        // The gauge is control state, not a request: no record, no wait.
        assert_eq!(m.queue_wait.count(), 0);
        // The wait histogram reads each record's queue span, 0 inline.
        m.observe(&rec(Route::Evaluate, 200, Outcome::Complete, 80, 50));
        m.observe(&rec(Route::Healthz, 200, Outcome::Complete, 5, 0));
        assert_eq!((m.queue_wait.count(), m.queue_wait.sum_us()), (2, 50));
    }

    #[test]
    fn connection_and_coalescing_counters() {
        let app = app();
        let m = app.metrics();
        m.record_connection_opened();
        m.record_connection_opened();
        assert_eq!(value(&app, "hl_connections_active"), 2.0);
        m.record_connection_closed(5);
        assert_eq!(value(&app, "hl_connections_accepted_total"), 2.0);
        assert_eq!(value(&app, "hl_connections_closed_total"), 1.0);
        assert_eq!(value(&app, "hl_connections_active"), 1.0);
        assert_eq!(m.reuse.count(), 1);
        m.observe(&rec(Route::Evaluate, 200, Outcome::CoalesceJoin, 3, 3));
        assert_eq!(m.coalesced(), 1);
        assert_eq!(
            sample(&app, "hl_requests_total", "/v1/evaluate"),
            1.0,
            "coalesced counts as a request"
        );
    }

    #[test]
    fn supervision_and_shed_counters() {
        let app = app();
        let m = app.metrics();
        let workers = |app: &App| {
            [
                "hl_worker_panics_total",
                "hl_worker_respawns_total",
                "hl_workers_quarantined_total",
            ]
            .map(|name| value(app, name))
        };
        assert_eq!(workers(&app), [0.0, 0.0, 0.0]);
        assert_eq!(
            samples(&app, "hl_shed_total"),
            vec![("deadline", 0.0), ("overload", 0.0)]
        );
        m.record_worker_panic();
        m.record_worker_respawn();
        m.record_worker_panic();
        m.observe(&rec(Route::Evaluate, 500, Outcome::Quarantine, 2, 0));
        m.observe(&rec(Route::Evaluate, 503, Outcome::ShedDeadline, 9, 9));
        m.observe(&rec(Route::Search, 503, Outcome::ShedOverload, 2, 0));
        m.observe(&rec(Route::Evaluate, 503, Outcome::ShedOverload, 2, 0));
        // A joiner of a shed coalition counts as coalesced, not shed.
        m.observe(&rec(Route::Evaluate, 503, Outcome::CoalesceJoin, 9, 9));
        assert_eq!(workers(&app), [2.0, 1.0, 1.0]);
        assert_eq!(
            samples(&app, "hl_shed_total"),
            vec![("deadline", 1.0), ("overload", 2.0)]
        );
        assert_eq!(m.coalesced(), 1);
        assert_eq!(sample(&app, "hl_responses_total", "5xx"), 5.0);
    }
}
