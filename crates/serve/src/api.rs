//! The HTTP API over the sweep engine: route dispatch and handlers.
//!
//! [`App`] owns the long-lived evaluation state — one
//! [`SweepContext`] whose [`hl_sim::engine::EvalCache`] and retention
//! cache are shared by every request the worker pool handles, so repeated
//! `/v1/evaluate` queries replay from the memo instead of recomputing
//! (the rising hit rate is visible in `/v1/metrics`). Handlers parse
//! request bodies through the typed wire structs in [`crate::schema`]
//! and stay pure request → [`Json`] functions; [`ApiError`] carries the
//! 4xx/5xx mapping (rendered as the structured
//! `{"error": {"code": …, "message": …}}` body) and panics are caught
//! and answered with a 500 so one bad request can never take a worker
//! down.
//!
//! The endpoints are the rows of the route table
//! `metrics::ROUTES`: `GET /v1/healthz`, `GET /v1/designs`,
//! `GET /v1/metrics` (JSON, or Prometheus text via `?format=prometheus`
//! / `Accept: text/plain`, both rendered from
//! `metrics::FAMILIES`), `GET /v1/models`, `GET /v1/trace`
//! (recent request lifecycles from the [`crate::trace`] ring), `POST
//! /v1/evaluate`, `POST /v1/evaluate_model`, `POST /v1/sweep`, `POST
//! /v1/search`. A request resolves to its row once; the method check,
//! the 405 and 404 replies come from the table, and dispatch is one
//! exhaustive match from [`Route`] to its handler. The legacy
//! unversioned paths remain as byte-identical aliases; each hit
//! increments the `deprecated` counter surfaced in `/v1/metrics`.
//! (`/v1/trace` postdates the aliases and has no unversioned form.)

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hl_eval::{design_names, fig13_degrees, DesignId, SweepContext, UnknownDesign};
use hl_models::accuracy::PruningConfig;
use hl_models::ModelId;
use hl_sim::engine::SweepGrid;
use hl_sim::{Accelerator, Workload};
use hl_tensor::GemmShape;

use crate::http::{ParseError, Request, Response};
use crate::json::Json;
use crate::log::{Level, Logger};
use crate::metrics::{self, Metrics, Route, ROUTES};
use crate::prom;
use crate::schema::{self, ErrorBody, SchemaError};
use crate::trace::{IdGen, TraceQuery, TraceRecord, TraceRing};

pub use crate::schema::{
    eval_result_json, network_eval_json, search_outcome_json, MAX_BUDGET, MAX_DEGREE, MAX_DIM,
    MAX_GROUP_SIZE, MAX_MACS, MAX_SWEEP_ROWS,
};

/// The long-lived serving state shared across the worker pool.
pub struct App {
    ctx: SweepContext,
    metrics: Metrics,
    logger: Logger,
    traces: TraceRing,
    ids: IdGen,
    /// Slow-request threshold in µs; `u64::MAX` disables the slow log.
    slow_us: AtomicU64,
}

impl Default for App {
    fn default() -> Self {
        Self::with_context(SweepContext::default())
    }
}

impl App {
    /// An app over a fresh engine-backed [`SweepContext`] (pool sized by
    /// `HL_THREADS` / available parallelism, memoization on).
    pub fn new() -> Self {
        Self::default()
    }

    /// An app over an explicit context (tests pin thread counts with it).
    pub fn with_context(ctx: SweepContext) -> Self {
        Self {
            ctx,
            metrics: Metrics::new(),
            logger: Logger::new(),
            traces: TraceRing::default(),
            ids: IdGen::new(),
            slow_us: AtomicU64::new(u64::MAX),
        }
    }

    /// The shared evaluation context.
    pub fn context(&self) -> &SweepContext {
        &self.ctx
    }

    /// The server metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The structured JSON-lines logger shared by the serving layer.
    pub fn logger(&self) -> &Logger {
        &self.logger
    }

    /// The completed-request trace ring served at `GET /v1/trace`.
    pub fn traces(&self) -> &TraceRing {
        &self.traces
    }

    /// Resolves a request's trace ID: a well-formed client-supplied
    /// `X-Request-Id` (see [`crate::trace::valid_request_id`]) is
    /// honored and echoed back; anything else gets a generated ID.
    pub fn request_id(&self, header: Option<&str>) -> String {
        match header {
            Some(h) if crate::trace::valid_request_id(h) => h.to_string(),
            _ => self.ids.next_id(),
        }
    }

    /// Sets the `--trace-slow-ms` threshold: completed requests at
    /// least this slow log a `slow_request` warning. `None` disables.
    pub fn set_trace_slow(&self, threshold: Option<Duration>) {
        let us = threshold.map_or(u64::MAX, |d| {
            u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
        });
        self.slow_us.store(us, Ordering::Relaxed);
    }

    /// Records a completed request lifecycle: stamps the start offset
    /// from the total, pushes the ring, and emits the per-request
    /// (debug) or slow-request (warn) structured log event.
    pub fn observe_trace(&self, mut rec: TraceRecord) {
        rec.started_s = (self.metrics.uptime_s() - rec.total_us as f64 / 1e6).max(0.0);
        let slow = rec.total_us >= self.slow_us.load(Ordering::Relaxed);
        let level = if slow { Level::Warn } else { Level::Debug };
        if self.logger.enabled(level) {
            self.logger.log(
                level,
                if slow { "slow_request" } else { "request" },
                &[
                    ("trace_id", Json::str(rec.id.clone())),
                    ("route", Json::str(rec.route)),
                    ("status", Json::Num(f64::from(rec.status))),
                    ("outcome", Json::str(rec.outcome)),
                    ("duration_ms", Json::Num(rec.total_us as f64 / 1000.0)),
                    ("queue_ms", Json::Num(rec.queue_us as f64 / 1000.0)),
                    ("eval_ms", Json::Num(rec.eval_us as f64 / 1000.0)),
                ],
            );
        }
        self.traces.push(rec);
    }

    /// Handles one parsed request: dispatch, panic containment, metrics
    /// (including the deprecated-alias counter for unversioned paths).
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_traced(req).0
    }

    /// [`App::handle`], also reporting whether the handler panicked —
    /// the serving layer quarantines a request body whose evaluation
    /// keeps panicking instead of feeding it to the pool again.
    pub fn handle_traced(&self, req: &Request) -> (Response, bool) {
        let t0 = Instant::now();
        let (route, deprecated) = Route::resolve(&req.path);
        if deprecated {
            self.metrics.record_deprecated_route();
        }
        let dispatched = panic::catch_unwind(AssertUnwindSafe(|| self.dispatch(req, route)));
        let (resp, panicked) = match dispatched {
            Ok(Ok(resp)) => (resp, false),
            Ok(Err(e)) => (e.into_response(), false),
            Err(_) => (ApiError::internal("handler panicked").into_response(), true),
        };
        self.metrics.record(route, resp.status, t0.elapsed());
        (resp, panicked)
    }

    /// Answers a request that failed HTTP parsing (counted, but kept out
    /// of the latency histogram — no handler ran).
    pub fn handle_parse_error(&self, err: &ParseError) -> Response {
        let resp = ApiError {
            status: err.status,
            message: err.reason.clone(),
        }
        .into_response();
        self.metrics.record_unmeasured(Route::Other, resp.status);
        resp
    }

    /// Answers `req` on its resolved `route`: the legacy alias and the
    /// `/v1/` path resolve alike, so they answer byte-identically.
    fn dispatch(&self, req: &Request, route: Route) -> Result<Response, ApiError> {
        let method = route.spec().method;
        if route != Route::Other && req.method != method {
            return Err(ApiError::method_not_allowed(method));
        }
        match route {
            Route::Healthz => Ok(ok_json(self.healthz())),
            Route::Designs => Ok(ok_json(designs_json())),
            Route::Metrics => self.metrics_response(req),
            Route::Models => Ok(ok_json(models_json())),
            Route::Trace => self.trace_endpoint(req).map(ok_json),
            Route::Evaluate => self.evaluate(&req.body).map(ok_json),
            Route::EvaluateModel => self.evaluate_model(&req.body).map(ok_json),
            Route::Sweep => self.sweep(&req.body).map(ok_json),
            Route::Search => self.search(&req.body).map(ok_json),
            Route::Other => Err(ApiError::not_found(&req.path)),
        }
    }

    /// `GET /v1/metrics` with content negotiation: `?format=prometheus`
    /// (or an `Accept` header naming `text/plain` when no explicit
    /// `format` is given) selects the Prometheus text exposition;
    /// everything else gets the historical JSON view.
    fn metrics_response(&self, req: &Request) -> Result<Response, ApiError> {
        if wants_prometheus(req)? {
            Ok(Response {
                status: 200,
                content_type: prom::CONTENT_TYPE,
                body: self.render_prometheus().into_bytes(),
                retry_after: None,
            })
        } else {
            Ok(ok_json(metrics::metrics_json(self)))
        }
    }

    /// `GET /v1/trace`: recent completed request lifecycles, newest
    /// last, filtered by [`TraceQuery`] (`limit`, `route`, `min_ms`).
    fn trace_endpoint(&self, req: &Request) -> Result<Json, ApiError> {
        let q = TraceQuery::parse(&req.query).map_err(ApiError::bad_request)?;
        let snap = self.traces.snapshot();
        let mut recs: Vec<&TraceRecord> = snap.iter().filter(|r| q.matches(r)).collect();
        if recs.len() > q.limit {
            recs.drain(..recs.len() - q.limit);
        }
        Ok(Json::Obj(vec![
            ("count".into(), Json::Num(recs.len() as f64)),
            ("capacity".into(), Json::Num(self.traces.capacity() as f64)),
            ("dropped".into(), Json::Num(self.traces.dropped() as f64)),
            (
                "traces".into(),
                Json::Arr(recs.iter().map(|r| r.to_json()).collect()),
            ),
        ]))
    }

    fn healthz(&self) -> Json {
        Json::Obj(vec![
            ("status".into(), Json::str("ok")),
            ("uptime_s".into(), Json::Num(self.metrics.uptime_s())),
            (
                "threads".into(),
                Json::Num(self.ctx.engine().threads() as f64),
            ),
            ("designs".into(), Json::Num(DesignId::ALL.len() as f64)),
        ])
    }

    /// The Prometheus text exposition (format 0.0.4) of every
    /// `/v1/metrics` family — counters and gauges one-to-one, the log₂
    /// histograms as cumulative-bucket histogram families.
    pub fn render_prometheus(&self) -> String {
        metrics::render_prometheus(self)
    }

    fn evaluate(&self, body: &[u8]) -> Result<Json, ApiError> {
        let req = schema::EvaluateRequest::from_body(body)?;
        let id: DesignId = req.design.parse()?;
        let workload = id.workload(req.shape, req.a_sparsity, req.b_sparsity);

        let outcome = self.ctx.evaluate_best(id.build().as_ref(), &workload);
        let mut members = vec![
            ("design".into(), Json::str(id.name())),
            ("workload".into(), Json::str(&workload.name)),
        ];
        members.extend(schema::workload_eval_members(&workload, &outcome));
        Ok(Json::Obj(members))
    }

    fn evaluate_model(&self, body: &[u8]) -> Result<Json, ApiError> {
        let req = schema::EvaluateModelRequest::from_body(body)?;
        let id: DesignId = req.design.parse()?;
        let model = hl_models::model_by_name(&req.model)
            .map_err(|e| ApiError::bad_request(e.to_string()))?;
        let pruning = req.pruning;

        let eval = self.ctx.eval_network(id, &model, &pruning);
        let loss = self.ctx.accuracy_loss(&model, &pruning);
        Ok(Json::Obj(vec![
            ("design".into(), Json::str(id.name())),
            ("model".into(), Json::str(&model.name)),
            ("metric".into(), Json::str(model.metric)),
            ("pruning".into(), Json::str(pruning.to_string())),
            ("weight_sparsity".into(), Json::Num(pruning.sparsity())),
            ("accuracy_loss".into(), Json::Num(loss)),
            ("supported".into(), Json::Bool(eval.supported())),
            ("network".into(), network_eval_json(&eval)),
        ]))
    }

    fn search(&self, body: &[u8]) -> Result<Json, ApiError> {
        let req = schema::SearchRequest::from_body(body)?;
        let id: DesignId = req.design.parse()?;
        let model = hl_models::model_by_name(&req.model)
            .map_err(|e| ApiError::bad_request(e.to_string()))?;

        let outcome = self.ctx.codesign(id, &model, req.budget);
        Ok(search_outcome_json(&outcome))
    }

    fn sweep(&self, body: &[u8]) -> Result<Json, ApiError> {
        let req = schema::SweepRequest::from_body(body)?;
        let names: Vec<String> = req.designs.unwrap_or_else(design_names);
        let ids: Vec<DesignId> = names.iter().map(|n| n.parse()).collect::<Result<_, _>>()?;
        let designs: Vec<Box<dyn Accelerator>> = ids.iter().map(|d| d.build()).collect();
        let a_degrees = req.a_degrees.unwrap_or_else(|| fig13_degrees().0);
        let b_degrees = req.b_degrees.unwrap_or_else(|| fig13_degrees().1);
        let shape = req.shape;
        let limit = req.limit.map_or(MAX_SWEEP_ROWS, |n| n.min(MAX_SWEEP_ROWS));

        let mut grid = SweepGrid::new(&designs);
        let mut degrees = Vec::new();
        'outer: for &sa in &a_degrees {
            for &sb in &b_degrees {
                if degrees.len() == limit {
                    break 'outer;
                }
                degrees.push((sa, sb));
                grid.push_row(ids.iter().map(|d| d.workload(shape, sa, sb)));
            }
        }
        let rows_total = a_degrees.len() * b_degrees.len();
        let rows = grid.run(self.ctx.engine());

        let row_objs: Vec<Json> = degrees
            .iter()
            .zip(&rows)
            .map(|((sa, sb), results)| {
                Json::Obj(vec![
                    ("a_sparsity".into(), Json::Num(*sa)),
                    ("b_sparsity".into(), Json::Num(*sb)),
                    (
                        "results".into(),
                        Json::Arr(
                            results
                                .iter()
                                .map(|r| r.as_ref().map_or(Json::Null, eval_result_json))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Ok(Json::Obj(vec![
            ("shape".into(), schema::shape_json(shape)),
            (
                "designs".into(),
                Json::Arr(names.iter().map(Json::str).collect()),
            ),
            ("rows_total".into(), Json::Num(rows_total as f64)),
            ("rows_returned".into(), Json::Num(row_objs.len() as f64)),
            ("truncated".into(), Json::Bool(row_objs.len() < rows_total)),
            ("rows".into(), Json::Arr(row_objs)),
        ]))
    }
}

/// Wraps a handler's JSON payload as the canonical 200 response.
fn ok_json(json: Json) -> Response {
    Response::json(200, json.encode())
}

/// Content negotiation for `GET /v1/metrics`: an explicit
/// `format=prometheus|json` query parameter wins; without one, an
/// `Accept` header naming `text/plain` selects Prometheus.
fn wants_prometheus(req: &Request) -> Result<bool, ApiError> {
    for pair in req.query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key == "format" {
            return match value {
                "prometheus" => Ok(true),
                "json" => Ok(false),
                other => Err(ApiError::bad_request(format!(
                    "unknown metrics format {other:?}; use \"json\" or \"prometheus\""
                ))),
            };
        }
    }
    Ok(req
        .header("accept")
        .is_some_and(|a| a.contains("text/plain")))
}

/// The `GET /v1/designs` payload: every registered design with its
/// Table 3/4 identity.
pub fn designs_json() -> Json {
    let designs: Vec<Json> = DesignId::ALL
        .map(DesignId::build)
        .iter()
        .map(|d| {
            let area = d.area();
            Json::Obj(vec![
                ("name".into(), Json::str(d.name())),
                (
                    "supported_patterns".into(),
                    Json::str(d.supported_patterns()),
                ),
                ("swappable".into(), Json::Bool(d.swappable())),
                ("area_mm2".into(), Json::Num(area.total() / 1e6)),
                (
                    "sparsity_tax_mm2".into(),
                    Json::Num(area.sparsity_tax() / 1e6),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![("designs".into(), Json::Arr(designs))])
}

/// The `GET /v1/models` payload: every registered model with its
/// inventory summary.
pub fn models_json() -> Json {
    let models: Vec<Json> = ModelId::ALL
        .map(ModelId::build)
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::str(&m.name)),
                ("metric".into(), Json::str(m.metric)),
                ("dense_accuracy".into(), Json::Num(m.dense_accuracy)),
                ("layer_shapes".into(), Json::Num(m.layers.len() as f64)),
                ("gmacs".into(), Json::Num(m.total_macs() / 1e9)),
                ("prunable_fraction".into(), Json::Num(m.prunable_fraction())),
                (
                    "avg_activation_sparsity".into(),
                    Json::Num(m.avg_activation_sparsity()),
                ),
                ("has_dense_layers".into(), Json::Bool(m.has_dense_layers())),
            ])
        })
        .collect();
    Json::Obj(vec![("models".into(), Json::Arr(models))])
}

/// Parses the `/v1/evaluate_model` `"pruning"` field into a
/// [`PruningConfig`] (see [`schema::pruning_spec`] for the grammar).
///
/// # Errors
/// [`ApiError::bad_request`] with the grammar/range message.
pub fn pruning_from(v: Option<&Json>) -> Result<PruningConfig, ApiError> {
    schema::pruning_spec(v).map_err(ApiError::from)
}

/// Builds the co-designed workload for one `(design, shape, degrees)`
/// point, named exactly like [`Workload::synthetic`] labels its points.
///
/// # Errors
/// [`UnknownDesign`] when the name is not registered.
pub fn build_workload(
    design: &str,
    shape: GemmShape,
    a_sparsity: f64,
    b_sparsity: f64,
) -> Result<Workload, UnknownDesign> {
    Ok(design
        .parse::<DesignId>()?
        .workload(shape, a_sparsity, b_sparsity))
}

/// An API failure: status code plus message, rendered as the structured
/// `{"error": {"code": …, "message": …}}` body (the code derives from
/// the status via [`schema::error_code`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Human-readable message.
    pub message: String,
}

impl ApiError {
    /// 400 with a message.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    /// 404 listing the available routes: GET routes, then POST routes,
    /// each in `ROUTES` order.
    pub fn not_found(path: &str) -> Self {
        let available: Vec<String> = ["GET", "POST"]
            .iter()
            .flat_map(|&method| ROUTES.iter().filter(move |r| r.method == method))
            .map(|r| format!("{} {}", r.method, r.path))
            .collect();
        Self {
            status: 404,
            message: format!("no route {path}; available: {}", available.join(", ")),
        }
    }

    /// 405 naming the allowed method.
    pub fn method_not_allowed(allowed: &str) -> Self {
        Self {
            status: 405,
            message: format!("method not allowed; use {allowed}"),
        }
    }

    /// 500 with a message.
    pub fn internal(message: impl Into<String>) -> Self {
        Self {
            status: 500,
            message: message.into(),
        }
    }

    /// The JSON error response.
    pub fn into_response(self) -> Response {
        let body = ErrorBody::new(self.status, self.message).to_json().encode();
        Response::json(self.status, body)
    }
}

impl From<SchemaError> for ApiError {
    fn from(e: SchemaError) -> Self {
        ApiError::bad_request(e.to_string())
    }
}

impl From<UnknownDesign> for ApiError {
    fn from(e: UnknownDesign) -> Self {
        ApiError::bad_request(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_sparsity::{Gh, HssPattern};

    fn post(app: &App, path: &str, body: &str) -> (u16, Json) {
        let req = Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        };
        let resp = app.handle(&req);
        let json = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, json)
    }

    fn get(app: &App, path: &str) -> (u16, Json) {
        let req = Request {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            headers: vec![],
            body: vec![],
        };
        let resp = app.handle(&req);
        let json = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, json)
    }

    fn test_app() -> App {
        App::with_context(SweepContext::with_engine(hl_sim::engine::Engine::serial()))
    }

    fn err_msg(v: &Json) -> &str {
        v.get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap()
    }

    fn err_code(v: &Json) -> &str {
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap()
    }

    #[test]
    fn healthz_and_designs() {
        let app = test_app();
        let (status, v) = get(&app, "/v1/healthz");
        assert_eq!(status, 200);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        let (status, v) = get(&app, "/v1/designs");
        assert_eq!(status, 200);
        let designs = v.get("designs").and_then(Json::as_arr).unwrap();
        assert_eq!(designs.len(), DesignId::ALL.len());
        assert_eq!(
            designs[0].get("name").and_then(Json::as_str),
            Some("TC"),
            "registry order"
        );
    }

    #[test]
    fn legacy_aliases_are_byte_identical_and_counted() {
        let app = test_app();
        for (method, path, body) in [
            ("GET", "/designs", ""),
            ("GET", "/models", ""),
            (
                "POST",
                "/evaluate",
                r#"{"design":"HighLight","m":64,"k":64,"n":64}"#,
            ),
            ("POST", "/evaluate", r#"{"design":"TC","m":0}"#),
            ("GET", "/nope", ""),
        ] {
            let versioned = format!("/v1{path}");
            let (legacy, v1) = if method == "GET" {
                (get(&app, path), get(&app, &versioned))
            } else {
                (post(&app, path, body), post(&app, &versioned, body))
            };
            assert_eq!(legacy.0, v1.0, "{method} {path}");
            if path == "/nope" {
                // The 404 echoes the request path; everything else in the
                // body (code, route list) is shared.
                assert_eq!(legacy.0, 404);
                assert_eq!(err_code(&legacy.1), err_code(&v1.1));
            } else {
                assert_eq!(legacy.1.encode(), v1.1.encode(), "{method} {path}");
            }
        }
        // Only hits on known legacy paths count as deprecated: 4 above
        // (the unknown path is not an alias of anything).
        assert_eq!(app.metrics().deprecated_routes(), 4);
        let (_, m) = get(&app, "/v1/metrics");
        let deprecated = m
            .get("requests")
            .and_then(|r| r.get("deprecated"))
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(deprecated, 4.0);
    }

    #[test]
    fn evaluate_matches_offline_and_hits_cache() {
        let app = test_app();
        let body = r#"{"design":"HighLight","a_sparsity":0.5,"b_sparsity":0.25}"#;
        let (status, v) = post(&app, "/v1/evaluate", body);
        assert_eq!(status, 200);
        assert_eq!(v.get("supported").and_then(Json::as_bool), Some(true));
        // Byte-identical to the offline evaluation through the same view.
        let design = DesignId::HighLight.build();
        let w = build_workload("HighLight", GemmShape::new(1024, 1024, 1024), 0.5, 0.25).unwrap();
        let offline = hl_sim::evaluate_best(design.as_ref(), &w).unwrap();
        assert_eq!(
            v.get("result").unwrap().encode(),
            eval_result_json(&offline).encode()
        );
        // Second identical request must hit the shared cache.
        let misses_before = app.context().engine().eval_cache().misses();
        let hits_before = app.context().engine().eval_cache().hits();
        let (status, v2) = post(&app, "/v1/evaluate", body);
        assert_eq!(status, 200);
        assert_eq!(v2.encode(), v.encode(), "replayed response is identical");
        assert_eq!(app.context().engine().eval_cache().misses(), misses_before);
        assert!(app.context().engine().eval_cache().hits() > hits_before);
    }

    #[test]
    fn evaluate_reports_unsupported_workloads() {
        let app = test_app();
        // S2TA cannot run a dense operand A.
        let (status, v) = post(&app, "/v1/evaluate", r#"{"design":"S2TA"}"#);
        assert_eq!(status, 200);
        assert_eq!(v.get("supported").and_then(Json::as_bool), Some(false));
        assert!(v.get("reason").and_then(Json::as_str).is_some());
    }

    #[test]
    fn evaluate_rejects_bad_requests() {
        let app = test_app();
        for (body, needle) in [
            ("", "JSON object"),
            ("[1,2]", "JSON object"),
            ("{\"design\":\"TC\"", "invalid JSON"),
            ("{}", "missing required field"),
            (r#"{"design":"TPU"}"#, "unknown design"),
            (r#"{"design":42}"#, "must be a string"),
            (r#"{"design":"TC","a_sparsity":1.5}"#, "sparsity degree"),
            (r#"{"design":"TC","a_sparsity":-0.5}"#, "sparsity degree"),
            (r#"{"design":"TC","m":0}"#, "at least 1"),
            (r#"{"design":"TC","m":2.5}"#, "integer"),
            (
                // Each dimension passes the per-dim cap, but the MAC
                // product would overflow u64 arithmetic.
                r#"{"design":"TC","m":67108864,"k":67108864,"n":67108864}"#,
                "dense MACs",
            ),
            (r#"{"design":"TC","bogus":1}"#, "unknown field"),
        ] {
            let (status, v) = post(&app, "/v1/evaluate", body);
            assert_eq!(status, 400, "{body}");
            assert_eq!(err_code(&v), "bad_request", "{body}");
            let msg = err_msg(&v);
            assert!(msg.contains(needle), "{body}: {msg}");
        }
    }

    #[test]
    fn sweep_runs_truncates_and_validates() {
        let app = test_app();
        let (status, v) = post(
            &app,
            "/v1/sweep",
            r#"{"designs":["TC","HighLight"],"a_degrees":[0,0.5],"b_degrees":[0,0.5],"limit":3,"m":64,"k":64,"n":64}"#,
        );
        assert_eq!(status, 200);
        assert_eq!(v.get("rows_total").and_then(Json::as_f64), Some(4.0));
        assert_eq!(v.get("rows_returned").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("truncated").and_then(Json::as_bool), Some(true));
        let rows = v.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 3);
        for row in rows {
            let results = row.get("results").and_then(Json::as_arr).unwrap();
            assert_eq!(results.len(), 2, "one result per design");
        }
        // Defaults: all five paper designs over the Fig. 13 degrees.
        let (status, v) = post(&app, "/v1/sweep", r#"{"m":32,"k":32,"n":32}"#);
        assert_eq!(status, 200);
        assert_eq!(v.get("rows_total").and_then(Json::as_f64), Some(12.0));
        assert_eq!(v.get("truncated").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("designs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(5)
        );
        // Validation failures.
        for body in [
            r#"{"designs":[]}"#,
            r#"{"designs":["TPU"]}"#,
            r#"{"a_degrees":[]}"#,
            r#"{"a_degrees":[2.0]}"#,
            r#"{"limit":0}"#,
            r#"{"limit":"all"}"#,
        ] {
            let (status, _) = post(&app, "/v1/sweep", body);
            assert_eq!(status, 400, "{body}");
        }
    }

    #[test]
    fn models_listing_matches_the_registry() {
        let app = test_app();
        let (status, v) = get(&app, "/v1/models");
        assert_eq!(status, 200);
        let models = v.get("models").and_then(Json::as_arr).unwrap();
        assert_eq!(models.len(), hl_models::model_names().len());
        assert_eq!(
            models[0].get("name").and_then(Json::as_str),
            Some("ResNet50"),
            "registry order"
        );
        for m in models {
            assert!(m.get("gmacs").and_then(Json::as_f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn evaluate_model_reports_layers_and_totals() {
        let app = test_app();
        let body = r#"{"design":"HighLight","model":"DeiT-small","pruning":{"hss":[[4,8],[2,4]]}}"#;
        let (status, v) = post(&app, "/v1/evaluate_model", body);
        assert_eq!(status, 200);
        assert_eq!(v.get("supported").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("pruning").and_then(Json::as_str),
            Some("C1(4:8)→C0(2:4)")
        );
        assert!(v.get("accuracy_loss").and_then(Json::as_f64).unwrap() > 0.0);
        let network = v.get("network").unwrap();
        let layers = network.get("layers").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), 5, "one entry per DeiT layer shape");
        let totals = network.get("totals").unwrap();
        assert!(totals.get("edp").and_then(Json::as_f64).unwrap() > 0.0);
        let u = totals.get("utilization").and_then(Json::as_f64).unwrap();
        assert!(u > 0.0 && u <= 1.0);
        // Replaying the identical request must hit the per-layer cache.
        let misses = app.context().engine().eval_cache().misses();
        let (_, v2) = post(&app, "/v1/evaluate_model", body);
        assert_eq!(v2.encode(), v.encode());
        assert_eq!(app.context().engine().eval_cache().misses(), misses);
    }

    #[test]
    fn evaluate_model_propagates_unsupported_per_layer() {
        let app = test_app();
        // S2TA cannot run DeiT's dense QKV projections, but the pruned
        // FFN layers still evaluate.
        let body = r#"{"design":"S2TA","model":"DeiT-small","pruning":{"hss":[[4,8]]}}"#;
        let (status, v) = post(&app, "/v1/evaluate_model", body);
        assert_eq!(status, 200);
        assert_eq!(v.get("supported").and_then(Json::as_bool), Some(false));
        let network = v.get("network").unwrap();
        assert!(matches!(network.get("totals"), Some(Json::Null)));
        let layers = network.get("layers").and_then(Json::as_arr).unwrap();
        let supported: Vec<bool> = layers
            .iter()
            .map(|l| l.get("supported").and_then(Json::as_bool).unwrap())
            .collect();
        assert!(supported.iter().any(|&s| s), "pruned layers evaluate");
        assert!(!supported.iter().all(|&s| s), "dense layers fail");
        for l in layers
            .iter()
            .filter(|l| l.get("supported").and_then(Json::as_bool) == Some(false))
        {
            assert!(l.get("reason").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn evaluate_model_rejects_bad_requests() {
        let app = test_app();
        for (body, needle) in [
            ("{}", "missing required field"),
            (
                r#"{"model":"ResNet50"}"#,
                "missing required field \"design\"",
            ),
            (r#"{"design":"TC"}"#, "missing required field \"model\""),
            (r#"{"design":"TPU","model":"ResNet50"}"#, "unknown design"),
            (r#"{"design":"TC","model":"VGG16"}"#, "unknown model"),
            (
                r#"{"design":"TC","model":"ResNet50","pruning":"sparse"}"#,
                "dense",
            ),
            (
                r#"{"design":"TC","model":"ResNet50","pruning":{"unstructured":1.5}}"#,
                "sparsity degree",
            ),
            (
                r#"{"design":"TC","model":"ResNet50","pruning":{"hss":[]}}"#,
                "1 to 3",
            ),
            (
                r#"{"design":"TC","model":"ResNet50","pruning":{"hss":[[8,4]]}}"#,
                "must not exceed",
            ),
            (
                r#"{"design":"TC","model":"ResNet50","pruning":{"hss":[[0,4]]}}"#,
                "integers in [1, 64]",
            ),
            (
                // Each component passes the per-value cap, but the group
                // size (64·64·64) would pin gigabytes in the retention
                // cache.
                r#"{"design":"TC","model":"ResNet50","pruning":{"hss":[[63,64],[63,64],[63,64]]}}"#,
                "group size",
            ),
            (
                r#"{"design":"TC","model":"ResNet50","pruning":{"bogus":1}}"#,
                "exactly one",
            ),
            (
                r#"{"design":"TC","model":"ResNet50","extra":1}"#,
                "unknown field",
            ),
        ] {
            let (status, v) = post(&app, "/v1/evaluate_model", body);
            assert_eq!(status, 400, "{body}");
            let msg = err_msg(&v);
            assert!(msg.contains(needle), "{body}: {msg}");
        }
    }

    #[test]
    fn search_returns_front_and_best_within_budget() {
        let app = test_app();
        let body = r#"{"design":"HighLight","model":"DeiT-small","budget":0.5}"#;
        let (status, v) = post(&app, "/v1/search", body);
        assert_eq!(status, 200);
        assert_eq!(v.get("metric").and_then(Json::as_str), Some("top-1 %"));
        let front = v.get("front").and_then(Json::as_arr).unwrap();
        assert!(!front.is_empty());
        for p in front {
            assert_eq!(p.get("on_front").and_then(Json::as_bool), Some(true));
        }
        let best = v.get("best").unwrap();
        assert_eq!(
            best.get("within_budget").and_then(Json::as_bool),
            Some(true)
        );
        assert!(num_leq(best.get("loss"), 0.5));
        // Byte-identical to the offline co-design search through the same
        // canonical view.
        let model = hl_models::model_by_name("DeiT-small").unwrap();
        let offline = SweepContext::with_engine(hl_sim::engine::Engine::serial()).codesign(
            DesignId::HighLight,
            &model,
            0.5,
        );
        assert_eq!(v.encode(), search_outcome_json(&offline).encode());
        // Replaying the identical query must hit the shared caches.
        let misses = app.context().engine().eval_cache().misses();
        let (_, v2) = post(&app, "/v1/search", body);
        assert_eq!(v2.encode(), v.encode());
        assert_eq!(app.context().engine().eval_cache().misses(), misses);
    }

    fn num_leq(v: Option<&Json>, bound: f64) -> bool {
        v.and_then(Json::as_f64).is_some_and(|n| n <= bound)
    }

    #[test]
    fn search_rejects_bad_requests() {
        let app = test_app();
        for (body, needle) in [
            ("{}", "missing required field"),
            (r#"{"design":"TC","model":"ResNet50"}"#, "\"budget\""),
            (
                r#"{"design":"TPU","model":"ResNet50","budget":0.5}"#,
                "unknown design",
            ),
            (
                r#"{"design":"TC","model":"VGG16","budget":0.5}"#,
                "unknown model",
            ),
            (
                r#"{"design":"TC","model":"ResNet50","budget":-1}"#,
                "accuracy-loss budget",
            ),
            (
                r#"{"design":"TC","model":"ResNet50","budget":101}"#,
                "accuracy-loss budget",
            ),
            (
                r#"{"design":"TC","model":"ResNet50","budget":"tight"}"#,
                "must be a number",
            ),
            (
                r#"{"design":"TC","model":"ResNet50","budget":0.5,"extra":1}"#,
                "unknown field",
            ),
        ] {
            let (status, v) = post(&app, "/v1/search", body);
            assert_eq!(status, 400, "{body}");
            let msg = err_msg(&v);
            assert!(msg.contains(needle), "{body}: {msg}");
        }
    }

    #[test]
    fn fully_pruned_config_is_unsupported_not_a_panic() {
        let app = test_app();
        // Sparsity 1.0 lowers DSTC's prunable layers to density-0 operands;
        // the hardened designs answer per-layer Unsupported instead of
        // panicking the worker (or serving NaN cycles).
        let body = r#"{"design":"DSTC","model":"Transformer-Big","pruning":{"unstructured":1.0}}"#;
        let (status, v) = post(&app, "/v1/evaluate_model", body);
        assert_eq!(status, 200);
        assert_eq!(v.get("supported").and_then(Json::as_bool), Some(false));
        let network = v.get("network").unwrap();
        assert!(matches!(network.get("totals"), Some(Json::Null)));
        let layers = network.get("layers").and_then(Json::as_arr).unwrap();
        for l in layers
            .iter()
            .filter(|l| l.get("supported").and_then(Json::as_bool) == Some(false))
        {
            let reason = l.get("reason").and_then(Json::as_str).unwrap();
            assert!(reason.contains("degenerate"), "{reason}");
        }
        // The server is still healthy afterwards.
        let (status, _) = get(&app, "/v1/healthz");
        assert_eq!(status, 200);
        // Out-of-range degrees are still 400s.
        let (status, _) = post(
            &app,
            "/v1/evaluate_model",
            r#"{"design":"DSTC","model":"ResNet50","pruning":{"unstructured":1.01}}"#,
        );
        assert_eq!(status, 400);
    }

    #[test]
    fn malformed_gh_ratios_map_to_400() {
        let app = test_app();
        for spec in ["[[8,4]]", "[[4,0]]", "[[0,0]]", "[[3,2],[2,4]]"] {
            let body =
                format!(r#"{{"design":"TC","model":"ResNet50","pruning":{{"hss":{spec}}}}}"#);
            let (status, v) = post(&app, "/v1/evaluate_model", &body);
            assert_eq!(status, 400, "{spec}");
            let msg = err_msg(&v);
            assert!(
                msg.contains("must not exceed H") || msg.contains("[1, 64]"),
                "{spec}: {msg}"
            );
        }
    }

    #[test]
    fn pruning_specs_parse_to_configs() {
        assert_eq!(pruning_from(None).unwrap(), PruningConfig::Dense);
        assert_eq!(
            pruning_from(Some(&Json::str("dense"))).unwrap(),
            PruningConfig::Dense
        );
        let v = Json::parse(r#"{"unstructured":0.6}"#).unwrap();
        assert_eq!(
            pruning_from(Some(&v)).unwrap(),
            PruningConfig::Unstructured { sparsity: 0.6 }
        );
        let v = Json::parse(r#"{"hss":[[4,8],[2,4]]}"#).unwrap();
        assert_eq!(
            pruning_from(Some(&v)).unwrap(),
            PruningConfig::Hss(HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4)))
        );
    }

    #[test]
    fn unknown_routes_and_methods_are_mapped() {
        let app = test_app();
        let (status, v) = get(&app, "/nope");
        assert_eq!(status, 404);
        assert_eq!(err_code(&v), "not_found");
        assert!(err_msg(&v).contains("/v1/healthz"));
        let (status, v) = post(&app, "/v1/healthz", "");
        assert_eq!(status, 405);
        assert_eq!(err_code(&v), "method_not_allowed");
        let (status, _) = get(&app, "/v1/evaluate");
        assert_eq!(status, 405);
        // All of the above were counted (the in-flight /metrics request
        // itself is recorded only after its response is built).
        let (_, m) = get(&app, "/v1/metrics");
        let total = m
            .get("requests")
            .and_then(|r| r.get("total"))
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(total, 3.0);
    }

    fn get_raw(app: &App, path: &str, query: &str, headers: &[(&str, &str)]) -> Response {
        let req = Request {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            headers: headers
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
            body: vec![],
        };
        app.handle(&req)
    }

    #[test]
    fn metrics_format_negotiation() {
        let app = test_app();
        // Default stays JSON.
        let resp = get_raw(&app, "/v1/metrics", "", &[]);
        assert_eq!(resp.content_type, "application/json");
        Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        // Explicit format=prometheus → text exposition.
        let resp = get_raw(&app, "/v1/metrics", "format=prometheus", &[]);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, prom::CONTENT_TYPE);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("# TYPE hl_requests_total counter"));
        prom::validate_exposition(&text).unwrap();
        // Accept negotiation without an explicit format.
        let resp = get_raw(&app, "/v1/metrics", "", &[("accept", "text/plain")]);
        assert_eq!(resp.content_type, prom::CONTENT_TYPE);
        // An explicit format beats the Accept header.
        let resp = get_raw(
            &app,
            "/v1/metrics",
            "format=json",
            &[("accept", "text/plain")],
        );
        assert_eq!(resp.content_type, "application/json");
        // Unknown formats are 400s, not silent fallbacks.
        let resp = get_raw(&app, "/v1/metrics", "format=xml", &[]);
        assert_eq!(resp.status, 400);
        // Legacy alias answers the Prometheus form too.
        let resp = get_raw(&app, "/metrics", "format=prometheus", &[]);
        assert_eq!(resp.content_type, prom::CONTENT_TYPE);
    }

    /// The family owning a leaf of the `/v1/metrics` JSON view: the
    /// table row whose JSON path is the leaf or the nearest object above
    /// it. A `hit_rate` leaf belongs to its object's `misses` family.
    fn family_for(path: &str) -> &'static str {
        let path = match path.strip_suffix(".hit_rate") {
            Some(object) => format!("{object}.misses"),
            None => path.to_string(),
        };
        metrics::FAMILIES
            .iter()
            .filter(|f| path == f.json || path.starts_with(&format!("{}.", f.json)))
            .max_by_key(|f| f.json.len())
            .map(|f| f.name)
            .unwrap_or_else(|| panic!("JSON metrics series {path:?} has no family"))
    }

    fn leaf_paths(v: &Json, prefix: &str, out: &mut Vec<String>) {
        match v {
            Json::Obj(members) => {
                for (k, val) in members {
                    let p = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    leaf_paths(val, &p, out);
                }
            }
            _ => out.push(prefix.to_string()),
        }
    }

    #[test]
    fn every_json_metrics_series_has_a_prometheus_family() {
        let app = test_app();
        // Touch a few counters so the series are non-trivial.
        let _ = post(
            &app,
            "/v1/evaluate",
            r#"{"design":"TC","m":32,"k":32,"n":32}"#,
        );
        let _ = get(&app, "/nope");
        let (_, json) = get(&app, "/v1/metrics");
        let exposition = app.render_prometheus();
        prom::validate_exposition(&exposition).unwrap();
        let mut paths = Vec::new();
        leaf_paths(&json, "", &mut paths);
        assert!(paths.len() > 30, "walker found only {} leaves", paths.len());
        for path in &paths {
            let family = family_for(path);
            assert!(
                exposition.contains(&format!("# TYPE {family} ")),
                "{path} maps to {family}, which is missing from the exposition"
            );
        }
    }

    /// Checks every `le` sample of the histogram `family` against the
    /// observations (in the exported unit) at most that edge; returns
    /// the number of bucket samples, `+Inf` included.
    fn assert_le_counts(app: &App, family: &str, observed: &[f64]) -> usize {
        let text = app.render_prometheus();
        prom::validate_exposition(&text).unwrap();
        let prefix = format!("{family}_bucket{{le=\"");
        let mut seen = 0;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix(prefix.as_str()) else {
                continue;
            };
            let (le, value) = rest.split_once("\"} ").unwrap();
            let le: f64 = le.parse().unwrap();
            let expect = observed.iter().filter(|&&v| v <= le).count();
            assert_eq!(value.parse::<f64>().unwrap(), expect as f64, "le={le}");
            seen += 1;
        }
        seen
    }

    #[test]
    fn reuse_histogram_le_edges_count_connections_at_most_le() {
        let app = test_app();
        let served = [1u64, 2, 3, 4, 8];
        for n in served {
            app.metrics().record_connection_opened();
            app.metrics().record_connection_closed(n);
        }
        let observed = served.map(|n| n as f64);
        let seen = assert_le_counts(&app, "hl_connection_requests", &observed);
        assert_eq!(seen, metrics::REUSE_BUCKETS, "15 closed buckets plus +Inf");
    }

    #[test]
    fn latency_histogram_le_edges_count_requests_at_most_le() {
        let app = test_app();
        // Each power of two 2^(i+1) µs is the first value of bucket i+1:
        // the closed edge of bucket i must stop one microsecond short.
        let served_us = [1u64, 2, 3, 4, 8, 1024, 1 << 20];
        for us in served_us {
            app.metrics()
                .record(Route::Healthz, 200, Duration::from_micros(us));
        }
        let observed = served_us.map(|us| us as f64 / 1e6);
        let seen = assert_le_counts(&app, "hl_request_latency_seconds", &observed);
        assert_eq!(
            seen,
            metrics::LATENCY_BUCKETS,
            "25 closed buckets plus +Inf"
        );
    }

    fn trace_rec(id: &str, route: &'static str, total_us: u64) -> crate::trace::TraceRecord {
        crate::trace::TraceRecord {
            id: id.to_string(),
            route,
            status: 200,
            outcome: "complete",
            started_s: 0.0,
            total_us,
            parse_us: 0,
            queue_us: 0,
            eval_us: total_us,
            serialize_us: 0,
            write_us: 0,
            eval_cache_hits: 0,
            eval_cache_misses: 0,
        }
    }

    #[test]
    fn trace_endpoint_serves_the_filtered_ring() {
        let app = test_app();
        app.observe_trace(trace_rec("aaa", "/v1/evaluate", 5000));
        app.observe_trace(trace_rec("bbb", "/v1/healthz", 100));
        let (status, v) = get(&app, "/v1/trace");
        assert_eq!(status, 200);
        assert_eq!(v.get("count").and_then(Json::as_f64), Some(2.0));
        let traces = v.get("traces").and_then(Json::as_arr).unwrap();
        assert_eq!(traces[0].get("id").and_then(Json::as_str), Some("aaa"));
        assert_eq!(traces[1].get("id").and_then(Json::as_str), Some("bbb"));
        // Route filter.
        let resp = get_raw(&app, "/v1/trace", "route=/v1/evaluate", &[]);
        let v = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("count").and_then(Json::as_f64), Some(1.0));
        // Duration floor: only the 5 ms trace passes min_ms=1.
        let resp = get_raw(&app, "/v1/trace", "min_ms=1", &[]);
        let v = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let traces = v.get("traces").and_then(Json::as_arr).unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].get("id").and_then(Json::as_str), Some("aaa"));
        // Limit keeps the newest.
        let resp = get_raw(&app, "/v1/trace", "limit=1", &[]);
        let v = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let traces = v.get("traces").and_then(Json::as_arr).unwrap();
        assert_eq!(traces[0].get("id").and_then(Json::as_str), Some("bbb"));
        // Typos 400 instead of silently returning everything.
        let resp = get_raw(&app, "/v1/trace", "bogus=1", &[]);
        assert_eq!(resp.status, 400);
        // Method and legacy-path mapping: no unversioned alias.
        let (status, _) = post(&app, "/v1/trace", "");
        assert_eq!(status, 405);
        let (status, _) = get(&app, "/trace");
        assert_eq!(status, 404);
    }

    #[test]
    fn request_ids_honor_valid_headers_only() {
        let app = test_app();
        assert_eq!(app.request_id(Some("client-id.1")), "client-id.1");
        let generated = app.request_id(None);
        assert!(crate::trace::valid_request_id(&generated));
        // Malformed ids are replaced, not echoed.
        let replaced = app.request_id(Some("has space"));
        assert_ne!(replaced, "has space");
        assert!(crate::trace::valid_request_id(&replaced));
        assert_ne!(app.request_id(None), generated);
    }

    #[test]
    fn slow_requests_emit_structured_warnings() {
        let app = test_app();
        let buf = crate::log::SharedBuffer::new();
        app.logger().set_sink(buf.make_sink());
        // Threshold 0 → everything is slow (the CI boot check mode).
        app.set_trace_slow(Some(Duration::ZERO));
        app.observe_trace(trace_rec("slow1", "/v1/evaluate", 1234));
        let text = buf.contents();
        let v = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(v.get("event").and_then(Json::as_str), Some("slow_request"));
        assert_eq!(v.get("level").and_then(Json::as_str), Some("warn"));
        assert_eq!(v.get("trace_id").and_then(Json::as_str), Some("slow1"));
        assert_eq!(v.get("duration_ms").and_then(Json::as_f64), Some(1.234));
        // Disabled threshold + info level → per-request debug is gated.
        app.set_trace_slow(None);
        app.observe_trace(trace_rec("fast1", "/v1/evaluate", 1234));
        assert_eq!(buf.contents().lines().count(), 1);
        // The ring still recorded both.
        assert_eq!(app.traces().snapshot().len(), 2);
    }
}
