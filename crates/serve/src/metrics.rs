//! Lock-free server metrics, and the two tables that declare the
//! serving surface once.
//!
//! - `ROUTES` holds one row per [`Route`]: its canonical `/v1/` path,
//!   its method, whether the unversioned path is a legacy alias, and
//!   whether overload sheds it first. Path resolution, labels, the 405
//!   and 404 replies, the per-route counters and the shedding policy
//!   all read it; a const check keeps it in step with the enum.
//! - `FAMILIES` holds one row per `/v1/metrics` family: its
//!   Prometheus name, help text, JSON path and a typed reader.
//!   `metrics_json` and `render_prometheus` are two walks over it,
//!   so adding a metric means adding one row. The JSON walk derives the
//!   `requests.total`, `*.hit_rate`, reuse `mean_requests`/`histogram`
//!   and latency mean/quantile leaves from their family's reading.
//!
//! Recording is plain atomics (per-route and status-class counters,
//! connection, coalescing and supervision counters, and one log₂
//! histogram type, [`Log2Histogram`], for latency and queue wait in
//! microseconds and for requests per connection), so the event loop
//! and the worker pool never contend; `/v1/metrics` reads are racy
//! snapshots, which is fine for monitoring. Every histogram exports its
//! open last bucket only under `+Inf`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::api::App;
use crate::json::Json;
use crate::prom::Exposition;

/// The routes the server tracks individually. Each has one row in
/// `ROUTES`; legacy unversioned aliases record under the same route.
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
    /// Whether the path without its `/v1` prefix is a deprecated alias.
    pub legacy_alias: bool,
    /// Whether overload sheds this route before the others.
    pub expensive: bool,
}

const fn row(
    route: Route,
    path: &'static str,
    method: &'static str,
    legacy_alias: bool,
    expensive: bool,
) -> RouteSpec {
    RouteSpec {
        route,
        path,
        method,
        legacy_alias,
        expensive,
    }
}

/// The route table, one row per [`Route`] in declaration order (which
/// is also the display order of the per-route series and the 404 list).
#[rustfmt::skip]
pub(crate) const ROUTES: [RouteSpec; 10] = [
    // route, canonical path, method, legacy alias, expensive
    row(Route::Healthz, "/v1/healthz", "GET", true, false),
    row(Route::Designs, "/v1/designs", "GET", true, false),
    row(Route::Metrics, "/v1/metrics", "GET", true, false),
    row(Route::Models, "/v1/models", "GET", true, false),
    row(Route::Evaluate, "/v1/evaluate", "POST", true, false),
    row(Route::EvaluateModel, "/v1/evaluate_model", "POST", true, false),
    row(Route::Sweep, "/v1/sweep", "POST", true, true),
    row(Route::Search, "/v1/search", "POST", true, true),
    // Postdates the unversioned paths, so it has no alias.
    row(Route::Trace, "/v1/trace", "GET", false, false),
    row(Route::Other, "other", "", false, false),
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

// hl-lint: allow(no-panic-in-request-path, evaluated at compile time: a false check fails the build)
const _: () = assert!(
    routes_cover_each_variant_once(),
    "ROUTES must list every Route variant once, in declaration order"
);

impl Route {
    /// This route's row of [`ROUTES`].
    pub(crate) fn spec(self) -> &'static RouteSpec {
        // hl-lint: allow(no-panic-in-request-path, the const check above makes every discriminant a row index)
        &ROUTES[self as usize]
    }

    /// Resolves a request path (`/v1/` or legacy alias) to its route,
    /// plus whether it used a deprecated legacy alias. Unknown paths are
    /// `(Other, false)` — a 404 is not a deprecation.
    pub fn resolve(path: &str) -> (Route, bool) {
        for spec in &ROUTES {
            if spec.path == path {
                return (spec.route, false);
            }
            if spec.legacy_alias && spec.path.strip_prefix("/v1") == Some(path) {
                return (spec.route, true);
            }
        }
        (Route::Other, false)
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

    /// The pre-interpolation quantile estimate: the upper edge `2^(i+1)`
    /// of the winning bucket (0 when empty). It overstates by up to 2×.
    pub fn quantile_upper_edge(&self, q: f64) -> f64 {
        self.rank_bucket(q)
            .map_or(0.0, |(i, _)| (1u64 << (i + 1)) as f64)
    }
}

/// Number of log₂ latency buckets: bucket `i` counts requests with
/// latency in `[2^i, 2^(i+1))` microseconds; the last bucket is open.
pub const LATENCY_BUCKETS: usize = 26;

/// A latency histogram at microsecond resolution.
pub type LatencyHistogram = Log2Histogram<LATENCY_BUCKETS>;

impl LatencyHistogram {
    /// Records one latency.
    pub fn record(&self, latency: Duration) {
        self.observe(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    /// [`Self::quantile`] in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q) / 1000.0
    }

    /// [`Self::quantile_upper_edge`] in milliseconds: the historical
    /// estimate the `/v1/metrics` JSON has always reported.
    pub fn quantile_ms_upper_edge(&self, q: f64) -> f64 {
        self.quantile_upper_edge(q) / 1000.0
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
    deprecated_route: AtomicU64,
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
            deprecated_route: AtomicU64::new(0),
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

    /// Records one handled request.
    pub fn record(&self, route: Route, status: u16, latency: Duration) {
        self.count_request(route, status);
        self.latency.record(latency);
    }

    /// Records a request with no meaningful latency measurement (protocol
    /// parse failures) — counted, but kept out of the latency histogram
    /// so probe/garbage traffic cannot skew the service's p50.
    pub fn record_unmeasured(&self, route: Route, status: u16) {
        self.count_request(route, status);
    }

    /// Records a request answered by joining an identical in-flight
    /// computation instead of running the handler itself.
    pub fn record_coalesced(&self, route: Route, status: u16, latency: Duration) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        self.record(route, status, latency);
    }

    /// Records a hit on a deprecated legacy (unversioned) route alias.
    pub fn record_deprecated_route(&self) {
        self.deprecated_route.fetch_add(1, Ordering::Relaxed);
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

    fn count_request(&self, route: Route, status: u16) {
        if let Some(c) = self.requests.get(route as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        match status {
            200..=299 => &self.status_2xx,
            300..=399 => &self.status_3xx,
            400..=499 => &self.status_4xx,
            500..=599 => &self.status_5xx,
            // 1xx and anything out of range — previously miscounted
            // as 5xx by a catch-all arm.
            _ => &self.status_other,
        }
        .fetch_add(1, Ordering::Relaxed);
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

    /// Records a request answered from quarantine (its body has killed
    /// workers before, so it gets a deterministic error without dispatch).
    pub fn record_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a queued request shed because its deadline expired before
    /// a worker picked it up.
    pub fn record_deadline_shed(&self) {
        self.shed_deadline.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request shed at dispatch because the worker queue was
    /// overloaded.
    pub fn record_overload_shed(&self) {
        self.shed_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests that arrived on a deprecated legacy route alias.
    pub fn deprecated_routes(&self) -> u64 {
        self.deprecated_route.load(Ordering::Relaxed)
    }

    /// Requests answered by coalescing onto an in-flight computation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Records a job entering the worker queue (bumps the depth gauge).
    pub fn record_enqueued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job leaving the worker queue after waiting `wait`
    /// (drops the depth gauge, feeds the queue-wait histogram).
    pub fn record_dequeued(&self, wait: Duration) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.queue_wait.record(wait);
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
    /// inclusive edge `2^(i+1) − 1` µs. In JSON, an object of `count`, `mean` and
    /// interpolated `p50`/`p90`/`p99` in ms; with `edge_quantiles` the
    /// quantiles are the historical bucket upper edges and the
    /// interpolated estimates follow as `*_est`.
    Latency {
        edge_quantiles: bool,
        read: fn(&App) -> &LatencyHistogram,
    },
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
pub(crate) static FAMILIES: [Family; 23] = [
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
        name: "hl_requests_deprecated_total",
        help: "Requests that arrived on a deprecated legacy route alias.",
        json: "requests.deprecated",
        kind: Kind::Counter(|a| load(&a.metrics().deprecated_route)),
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
        name: "hl_retention_cache_hits_total",
        help: "Retention (surrogate accuracy) cache hits.",
        json: "retention_cache.hits",
        kind: Kind::Counter(|a| a.context().retention_stats().0 as f64),
    },
    Family {
        name: "hl_retention_cache_misses_total",
        help: "Retention (surrogate accuracy) cache misses.",
        json: "retention_cache.misses",
        kind: Kind::Misses(|a| a.context().retention_stats().1 as f64),
    },
    Family {
        name: "hl_queue_depth",
        help: "Jobs waiting in the worker queue.",
        json: "queue.depth",
        kind: Kind::Gauge(|a| load(&a.metrics().queue_depth)),
    },
    Family {
        name: "hl_queue_wait_seconds",
        help: "Time between enqueue and worker pickup.",
        json: "queue.wait_ms",
        kind: Kind::Latency {
            edge_quantiles: false,
            read: |a| &a.metrics().queue_wait,
        },
    },
    Family {
        name: "hl_request_latency_seconds",
        help: "Request handling latency.",
        json: "latency_ms",
        kind: Kind::Latency {
            edge_quantiles: true,
            read: |a| &a.metrics().latency,
        },
    },
];

const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)];

/// Adds `key: value` to the JSON object at `object` (`""` is the root).
/// A row whose object differs from the last root member's opens a new
/// object, which is why rows sharing an object are adjacent.
fn put(root: &mut Vec<(String, Json)>, object: &str, key: &str, value: Json) {
    let member = (key.to_string(), value);
    if object.is_empty() {
        root.push(member);
        return;
    }
    match root.last_mut() {
        Some((name, Json::Obj(members))) if name == object => members.push(member),
        _ => root.push((object.to_string(), Json::Obj(vec![member]))),
    }
}

fn num(key: &str, value: f64) -> (String, Json) {
    (key.to_string(), Json::Num(value))
}

/// The `/v1/metrics` JSON view: one walk over [`FAMILIES`].
pub(crate) fn metrics_json(app: &App) -> Json {
    let mut root: Vec<(String, Json)> = Vec::new();
    for family in &FAMILIES {
        let (object, key) = family.json.rsplit_once('.').unwrap_or(("", family.json));
        match family.kind {
            Kind::Counter(read) | Kind::Gauge(read) => {
                put(&mut root, object, key, Json::Num(read(app)));
            }
            Kind::Misses(read) => {
                let misses = read(app);
                let hits = match root.last() {
                    Some((name, members)) if name == object => {
                        members.get("hits").and_then(Json::as_f64).unwrap_or(0.0)
                    }
                    _ => 0.0,
                };
                let rate = if hits + misses == 0.0 {
                    0.0
                } else {
                    hits / (hits + misses)
                };
                put(&mut root, object, key, Json::Num(misses));
                put(&mut root, object, "hit_rate", Json::Num(rate));
            }
            Kind::CounterVec { total, read, .. } => {
                let samples = read(app);
                let sum = samples.iter().map(|(_, v)| v).sum();
                for (label, value) in samples {
                    put(&mut root, family.json, label, Json::Num(value));
                }
                if total {
                    if let Some((_, Json::Obj(members))) = root.last_mut() {
                        members.insert(0, num("total", sum));
                    }
                }
            }
            Kind::Latency {
                edge_quantiles,
                read,
            } => {
                let h = read(app);
                let mut members = vec![
                    num("count", h.count() as f64),
                    num("mean", h.mean() / 1000.0),
                ];
                for (name, q) in QUANTILES {
                    let value = if edge_quantiles {
                        h.quantile_ms_upper_edge(q)
                    } else {
                        h.quantile_ms(q)
                    };
                    members.push(num(name, value));
                }
                if edge_quantiles {
                    for (name, q) in QUANTILES {
                        members.push(num(&format!("{name}_est"), h.quantile_ms(q)));
                    }
                }
                put(&mut root, object, key, Json::Obj(members));
            }
            Kind::Reuse(read) => {
                let h = read(app);
                let buckets = (0u32..)
                    .zip(h.bucket_counts())
                    .filter(|&(_, n)| n > 0)
                    .map(|(i, n)| {
                        Json::Obj(vec![num("ge", (1u64 << i) as f64), num("count", n as f64)])
                    })
                    .collect();
                let members = vec![
                    num("count", h.count() as f64),
                    num("mean_requests", h.mean()),
                    ("histogram".into(), Json::Arr(buckets)),
                ];
                put(&mut root, object, key, Json::Obj(members));
            }
        }
    }
    Json::Obj(root)
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
            Kind::Latency { read, .. } => export_log2(&mut e, f, read(app), 1e6),
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

    #[test]
    fn routes_map_paths_and_labels() {
        assert_eq!(Route::resolve("/v1/healthz").0, Route::Healthz);
        assert_eq!(Route::resolve("/healthz").0, Route::Healthz);
        assert_eq!(Route::resolve("/v1/evaluate").0, Route::Evaluate);
        assert_eq!(Route::resolve("/evaluate").0, Route::Evaluate);
        assert_eq!(Route::resolve("/nope").0, Route::Other);
        assert_eq!(Route::resolve("/v1/nope").0, Route::Other);
        for spec in ROUTES {
            assert_eq!(spec.route.label(), spec.path);
            assert_eq!(spec.route.spec().route, spec.route);
        }
        assert!(Route::Search.spec().expensive && !Route::Evaluate.spec().expensive);
    }

    #[test]
    fn resolve_flags_legacy_aliases_only() {
        assert_eq!(Route::resolve("/v1/healthz"), (Route::Healthz, false));
        assert_eq!(Route::resolve("/healthz"), (Route::Healthz, true));
        assert_eq!(Route::resolve("/v1/sweep"), (Route::Sweep, false));
        assert_eq!(Route::resolve("/sweep"), (Route::Sweep, true));
        // /v1/trace is new — no legacy alias, so bare /trace is a 404.
        assert_eq!(Route::resolve("/v1/trace"), (Route::Trace, false));
        assert_eq!(Route::resolve("/trace"), (Route::Other, false));
        // 404s are not deprecations, versioned or not.
        assert_eq!(Route::resolve("/nope"), (Route::Other, false));
        assert_eq!(Route::resolve("/v1/nope"), (Route::Other, false));
        // "/v1healthz" has no path separator after the prefix.
        assert_eq!(Route::resolve("/v1healthz"), (Route::Other, false));
        assert_eq!(Route::resolve("/v1"), (Route::Other, false));
    }

    /// 90 small and 10 large observations, fed to a latency histogram
    /// in microseconds and to a reuse-sized one as request counts.
    fn fast_and_slow() -> (LatencyHistogram, Log2Histogram<REUSE_BUCKETS>) {
        let (latency, reuse) = (LatencyHistogram::new(), Log2Histogram::new());
        for v in [8; 90].into_iter().chain([16_000; 10]) {
            latency.record(Duration::from_micros(v));
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
    fn upper_edge_quantile_keeps_historical_behavior() {
        fn check<const N: usize>(h: &Log2Histogram<N>) {
            // The historical estimate is always a bucket upper edge.
            assert_eq!(h.quantile_upper_edge(0.5), 16.0);
            assert_eq!(h.quantile_upper_edge(0.99), 16_384.0);
            // Interpolation never exceeds it.
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                assert!(h.quantile(q) <= h.quantile_upper_edge(q));
            }
        }
        let (latency, reuse) = fast_and_slow();
        check(&latency);
        check(&reuse);
        assert_eq!(latency.quantile_ms_upper_edge(0.99), 16.384);
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
            latency.record(Duration::from_micros(v));
            reuse.observe(v);
        }
        check(&latency);
        check(&reuse);
        assert_eq!(latency.sum_us(), 117);
    }

    #[test]
    fn zero_and_huge_values_stay_in_range() {
        fn check<const N: usize>(h: &Log2Histogram<N>) {
            assert_eq!((h.quantile(0.5), h.quantile_upper_edge(0.5)), (0.0, 0.0));
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
        latency.record(Duration::ZERO);
        latency.record(Duration::from_secs(100_000));
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
        app.metrics()
            .record(Route::Healthz, 200, Duration::from_secs(100));
        app.metrics().record_dequeued(Duration::from_secs(100));
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
        m.record(Route::Healthz, 200, Duration::from_micros(5));
        m.record(Route::Evaluate, 200, Duration::from_micros(50));
        m.record(Route::Other, 404, Duration::from_micros(2));
        m.record(Route::Sweep, 500, Duration::from_micros(9));
        m.record_busy_rejection();
        let routes = samples(&app, "hl_requests_total");
        assert_eq!(routes.iter().map(|(_, n)| n).sum::<f64>(), 4.0);
        assert_eq!(sample(&app, "hl_requests_total", "/v1/evaluate"), 1.0);
        assert_eq!(sample(&app, "hl_responses_total", "2xx"), 2.0);
        assert_eq!(sample(&app, "hl_responses_total", "4xx"), 1.0);
        assert_eq!(sample(&app, "hl_responses_total", "5xx"), 1.0);
        assert_eq!(value(&app, "hl_responses_rejected_busy_total"), 1.0);
        assert_eq!(m.latency().count(), 4);
        assert!(value(&app, "hl_uptime_seconds") >= 0.0);
    }

    #[test]
    fn status_classes_cover_1xx_3xx_and_out_of_range() {
        let app = app();
        for status in [200, 301, 304, 404, 500, 101, 999] {
            app.metrics()
                .record(Route::Healthz, status, Duration::from_micros(1));
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
        m.record_dequeued(Duration::from_micros(50));
        assert_eq!(m.queue_depth(), 1);
        m.record_dequeued(Duration::from_micros(150));
        assert_eq!(m.queue_depth(), 0);
        assert_eq!(m.queue_wait.count(), 2);
        assert_eq!(m.queue_wait.sum_us(), 200);
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
        m.record_coalesced(Route::Evaluate, 200, Duration::from_micros(3));
        assert_eq!(m.coalesced(), 1);
        assert_eq!(
            sample(&app, "hl_requests_total", "/v1/evaluate"),
            1.0,
            "coalesced counts as a request"
        );
        m.record_deprecated_route();
        assert_eq!(m.deprecated_routes(), 1);
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
        m.record_quarantined();
        m.record_deadline_shed();
        m.record_overload_shed();
        m.record_overload_shed();
        assert_eq!(workers(&app), [2.0, 1.0, 1.0]);
        assert_eq!(
            samples(&app, "hl_shed_total"),
            vec![("deadline", 1.0), ("overload", 2.0)]
        );
    }
}
