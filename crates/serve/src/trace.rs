//! Per-request lifecycle tracing.
//!
//! Every request the event loop serves gets a trace ID — honored from a
//! client-supplied `X-Request-Id` header when it looks sane, generated
//! otherwise — that is echoed back on the response and stamped on every
//! structured log event the request produces. As the request moves
//! through the pipeline the server measures each stage
//! (parse → queue-wait → eval → serialize → write) and, once the last
//! response byte is flushed, folds the spans into a [`TraceRecord`]
//! pushed onto a fixed-size [`TraceRing`]. `GET /v1/trace` snapshots
//! the ring (newest last), filterable by route and minimum duration via
//! [`TraceQuery`].
//!
//! The ring never blocks a producer: each slot is guarded by its own
//! `Mutex` taken with `try_lock`, and a contended slot just bumps a
//! `dropped` counter. In practice all pushes come from the single
//! event-loop thread, so drops only occur if a reader holds a slot at
//! the exact wrap-around moment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// How many completed traces the ring retains (`GET /v1/trace` can
/// return at most this many).
pub const TRACE_RING_CAPACITY: usize = 256;

/// A completed request lifecycle: identity, terminal outcome, and the
/// per-stage span breakdown in microseconds. The spans are measured
/// contiguously — each span ends exactly where the next begins — so
/// `parse + queue + eval + serialize + write == total` by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Trace ID (client-supplied `X-Request-Id` or generated).
    pub id: String,
    /// Route label, e.g. `"/v1/evaluate"`.
    pub route: &'static str,
    /// HTTP status of the response.
    pub status: u16,
    /// Terminal outcome: `"complete"`, `"coalesce_join"`,
    /// `"shed_overload"`, `"shed_deadline"`, `"quarantine"`,
    /// `"parse_error"`, `"timeout"`, or `"worker_died"`.
    pub outcome: &'static str,
    /// Server uptime (seconds) when the request was accepted.
    pub started_s: f64,
    /// Total accept-to-last-byte latency in microseconds.
    pub total_us: u64,
    /// Time spent parsing the request head + body.
    pub parse_us: u64,
    /// Time spent queued before a worker picked the job up (zero for
    /// inline GETs).
    pub queue_us: u64,
    /// Time spent evaluating in the worker (or inline handler).
    pub eval_us: u64,
    /// Time from eval completion until the response bytes were staged.
    pub serialize_us: u64,
    /// Time from staging until the kernel accepted the last byte.
    pub write_us: u64,
    /// EvalCache hits observed while this request ran.
    pub eval_cache_hits: u64,
    /// EvalCache misses observed while this request ran.
    pub eval_cache_misses: u64,
    /// Search-front table hits observed while this request ran.
    pub search_cache_hits: u64,
    /// Retention (surrogate accuracy) score hits observed while this
    /// request ran.
    pub retention_cache_hits: u64,
    /// Retention scores computed while this request ran.
    pub retention_cache_misses: u64,
}

impl TraceRecord {
    /// Sum of the five spans; equals `total_us` by construction.
    pub fn span_sum_us(&self) -> u64 {
        self.parse_us + self.queue_us + self.eval_us + self.serialize_us + self.write_us
    }

    /// The canonical JSON view served by `GET /v1/trace`.
    pub fn to_json(&self) -> Json {
        let ms = |us: u64| Json::Num(us as f64 / 1000.0);
        Json::Obj(vec![
            ("id".to_string(), Json::str(self.id.clone())),
            ("route".to_string(), Json::str(self.route)),
            ("status".to_string(), Json::Num(f64::from(self.status))),
            ("outcome".to_string(), Json::str(self.outcome)),
            ("started_s".to_string(), Json::Num(self.started_s)),
            ("total_ms".to_string(), ms(self.total_us)),
            (
                "spans".to_string(),
                Json::Obj(vec![
                    ("parse_ms".to_string(), ms(self.parse_us)),
                    ("queue_ms".to_string(), ms(self.queue_us)),
                    ("eval_ms".to_string(), ms(self.eval_us)),
                    ("serialize_ms".to_string(), ms(self.serialize_us)),
                    ("write_ms".to_string(), ms(self.write_us)),
                ]),
            ),
            (
                "cache".to_string(),
                Json::Obj(vec![
                    (
                        "eval_hits".to_string(),
                        Json::Num(self.eval_cache_hits as f64),
                    ),
                    (
                        "eval_misses".to_string(),
                        Json::Num(self.eval_cache_misses as f64),
                    ),
                    (
                        "search_hits".to_string(),
                        Json::Num(self.search_cache_hits as f64),
                    ),
                    (
                        "retention_hits".to_string(),
                        Json::Num(self.retention_cache_hits as f64),
                    ),
                    (
                        "retention_misses".to_string(),
                        Json::Num(self.retention_cache_misses as f64),
                    ),
                ]),
            ),
        ])
    }
}

/// Fixed-capacity ring of completed traces. Producers never block; see
/// the module docs for the contention story.
pub struct TraceRing {
    slots: Vec<Mutex<Option<TraceRecord>>>,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.head.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new(TRACE_RING_CAPACITY)
    }
}

impl TraceRing {
    /// A ring holding the last `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces pushed over the ring's lifetime (including ones
    /// since overwritten).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Traces discarded because their slot was contended at push time.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stores a completed trace, overwriting the oldest. Never blocks:
    /// a contended slot drops the record and bumps [`Self::dropped`].
    pub fn push(&self, record: TraceRecord) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.slots.len() as u64) as usize;
        match self.slots.get(idx).map(Mutex::try_lock) {
            Some(Ok(mut slot)) => *slot = Some(record),
            _ => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The retained traces, oldest first. Slots mid-write are skipped
    /// rather than waited on.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let mut out = Vec::new();
        for seq in head.saturating_sub(cap)..head {
            let idx = (seq % cap) as usize;
            if let Some(Ok(slot)) = self.slots.get(idx).map(Mutex::try_lock) {
                if let Some(rec) = slot.as_ref() {
                    out.push(rec.clone());
                }
            }
        }
        out
    }
}

/// Cheap sequential trace-ID generator: a splitmix64 stream seeded from
/// the wall clock at construction, rendered as 16 lowercase hex chars.
#[derive(Debug)]
pub struct IdGen {
    state: AtomicU64,
}

impl Default for IdGen {
    fn default() -> Self {
        Self::new()
    }
}

impl IdGen {
    /// A generator seeded from the current wall-clock nanos.
    pub fn new() -> Self {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0x9e37_79b9_7f4a_7c15, |d| d.as_nanos() as u64);
        Self::with_seed(seed)
    }

    /// A generator with a fixed seed (tests).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            state: AtomicU64::new(seed),
        }
    }

    /// The next trace ID: 16 lowercase hex characters.
    pub fn next_id(&self) -> String {
        let x = self
            .state
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        format!("{z:016x}")
    }
}

/// True when a client-supplied `X-Request-Id` is safe to honor and echo:
/// 1–64 characters of `[A-Za-z0-9._-]`.
pub fn valid_request_id(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Parsed filter for `GET /v1/trace`: `limit=N` (newest N),
/// `route=/v1/evaluate`, `min_ms=F` (total latency floor).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceQuery {
    /// Keep only the newest `limit` matching traces.
    pub limit: usize,
    /// Keep only traces whose route label equals this exactly.
    pub route: Option<String>,
    /// Keep only traces at least this many milliseconds long.
    pub min_ms: f64,
}

impl Default for TraceQuery {
    fn default() -> Self {
        Self {
            limit: TRACE_RING_CAPACITY,
            route: None,
            min_ms: 0.0,
        }
    }
}

impl TraceQuery {
    /// Parses a raw query string (no leading `?`). Unknown keys and
    /// malformed values are errors so typos 400 instead of silently
    /// returning everything.
    pub fn parse(query: &str) -> Result<TraceQuery, String> {
        let mut q = TraceQuery::default();
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            match key {
                "limit" => {
                    let n: usize = value
                        .parse()
                        .map_err(|_| format!("invalid limit: {value:?}"))?;
                    if n == 0 {
                        return Err("limit must be >= 1".to_string());
                    }
                    q.limit = n;
                }
                "route" => q.route = Some(value.to_string()),
                "min_ms" => {
                    let ms: f64 = value
                        .parse()
                        .map_err(|_| format!("invalid min_ms: {value:?}"))?;
                    if !ms.is_finite() || ms < 0.0 {
                        return Err("min_ms must be finite and >= 0".to_string());
                    }
                    q.min_ms = ms;
                }
                other => return Err(format!("unknown trace query key: {other:?}")),
            }
        }
        Ok(q)
    }

    /// True when `rec` passes the route and duration filters.
    pub fn matches(&self, rec: &TraceRecord) -> bool {
        if let Some(route) = &self.route {
            if rec.route != route.as_str() {
                return false;
            }
        }
        rec.total_us as f64 / 1000.0 >= self.min_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, route: &'static str, total_us: u64) -> TraceRecord {
        TraceRecord {
            id: id.to_string(),
            route,
            status: 200,
            outcome: "complete",
            started_s: 1.5,
            total_us,
            parse_us: total_us / 5,
            queue_us: total_us / 5,
            eval_us: total_us / 5,
            serialize_us: total_us / 5,
            write_us: total_us - 4 * (total_us / 5),
            eval_cache_hits: 1,
            eval_cache_misses: 0,
            search_cache_hits: 2,
            retention_cache_hits: 3,
            retention_cache_misses: 4,
        }
    }

    #[test]
    fn span_sum_equals_total_by_construction() {
        for total in [0, 1, 7, 12_345, 999_999] {
            assert_eq!(rec("x", "/v1/evaluate", total).span_sum_us(), total);
        }
    }

    #[test]
    fn ring_retains_newest_in_order() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.push(rec(&format!("r{i}"), "/v1/evaluate", i * 100));
        }
        let snap = ring.snapshot();
        let ids: Vec<&str> = snap.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["r6", "r7", "r8", "r9"]);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn idgen_yields_distinct_hex_ids() {
        let ids = IdGen::with_seed(42);
        let a = ids.next_id();
        let b = ids.next_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16);
            assert!(id.bytes().all(|c| c.is_ascii_hexdigit()));
            assert!(valid_request_id(id));
        }
        // Same seed, same stream.
        assert_eq!(IdGen::with_seed(42).next_id(), a);
    }

    #[test]
    fn request_id_validation() {
        assert!(valid_request_id("abc-123_x.y"));
        assert!(valid_request_id(&"a".repeat(64)));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id(&"a".repeat(65)));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id("new\nline"));
        assert!(!valid_request_id("héllo"));
    }

    #[test]
    fn query_parses_and_filters() {
        let q = TraceQuery::parse("limit=2&route=/v1/evaluate&min_ms=0.5").unwrap();
        assert_eq!(q.limit, 2);
        assert_eq!(q.route.as_deref(), Some("/v1/evaluate"));
        assert!(q.matches(&rec("a", "/v1/evaluate", 600)));
        assert!(!q.matches(&rec("b", "/v1/evaluate", 400)));
        assert!(!q.matches(&rec("c", "/v1/search", 600)));
        assert_eq!(TraceQuery::parse("").unwrap(), TraceQuery::default());
        assert!(TraceQuery::parse("limit=0").is_err());
        assert!(TraceQuery::parse("limit=abc").is_err());
        assert!(TraceQuery::parse("min_ms=-1").is_err());
        assert!(TraceQuery::parse("min_ms=nan").is_err());
        assert!(TraceQuery::parse("bogus=1").is_err());
    }

    #[test]
    fn to_json_shape() {
        let j = rec("abc", "/v1/evaluate", 5000).to_json();
        assert_eq!(j.get("id").and_then(Json::as_str), Some("abc"));
        assert_eq!(j.get("total_ms").and_then(Json::as_f64), Some(5.0));
        let spans = j.get("spans").unwrap();
        assert_eq!(spans.get("parse_ms").and_then(Json::as_f64), Some(1.0));
        let cache = j.get("cache").unwrap();
        assert_eq!(cache.get("eval_hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(cache.get("search_hits").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            cache.get("retention_hits").and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            cache.get("retention_misses").and_then(Json::as_f64),
            Some(4.0)
        );
        // Round-trips through the codec.
        let text = j.encode();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }
}
