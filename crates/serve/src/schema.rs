//! The typed wire-schema layer: one typed struct per request wire type,
//! canonical JSON encoders for the response wire types, and the
//! structured error body every 4xx/5xx answers with.
//!
//! Handlers used to parse raw [`Json`] by hand, re-implementing
//! missing-field/unknown-field/range checks per endpoint. This module
//! centralizes that:
//!
//! - [`ObjReader`] is the declarative field extractor: it rejects
//!   non-objects and unknown fields up front, then lends out typed
//!   accessors (`req_str`, `opt_f64`, …) whose failures are
//!   [`SchemaError`] values with stable, user-facing messages;
//! - each request wire type ([`EvaluateRequest`], [`SweepRequest`],
//!   [`SearchRequest`], [`EvaluateModelRequest`]) parses with
//!   `from_body`/`from_json` and re-encodes with `to_json`, and the two
//!   compose to the identity (`parse(encode(x)) == x`, the proptest in
//!   `tests/schema_roundtrip.rs`);
//! - the pruning-spec grammar (`"dense"` | `{"unstructured": d}` |
//!   `{"hss": [[g, h], …]}`) lives here as [`pruning_spec`] /
//!   [`pruning_spec_json`], shared by `/v1/evaluate_model` and the
//!   round-trip tests;
//! - the canonical response encoders ([`eval_result_json`],
//!   [`network_eval_json`], [`search_outcome_json`]) are the single
//!   source of truth the byte-identity acceptance tests compare against;
//! - every 4xx/5xx renders as `{"error": {"code": …, "message": …}}`
//!   ([`ErrorBody`]), with [`error_code`] mapping status → stable code.
//!
//! Error enums follow the `thiserror` idiom (structured variants, a
//! hand-written `Display`, `std::error::Error`) — there is no crates.io
//! access in this workspace, so the derive is spelled out.

use hl_eval::{SearchOutcome, SearchPoint};
use hl_models::accuracy::PruningConfig;
use hl_sim::network::{LayerEval, NetworkEval};
use hl_sim::{EvalResult, Unsupported, Workload};
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::GemmShape;

use crate::json::Json;

/// Largest accepted GEMM dimension (the analytical models are closed-form,
/// but keep request shapes sane).
pub const MAX_DIM: usize = 1 << 26;

/// Largest accepted dense MAC count `m·k·n` (2⁵³, the last f64-exact
/// integer): per-dimension caps alone would let the product overflow the
/// `u64` MAC arithmetic and serve garbage results.
pub const MAX_MACS: u128 = 1 << 53;

/// Largest accepted sparsity degree (HighLight's co-design family tops out
/// at 93.75%; leave headroom without allowing degenerate fully-empty
/// operands).
pub const MAX_DEGREE: f64 = 0.99;

/// Largest accepted `/v1/search` accuracy-loss budget in metric points (a
/// whole top-1 / BLEU scale — anything above means "unconstrained").
pub const MAX_BUDGET: f64 = 100.0;

/// Hard server-side cap on `/v1/sweep` result rows; requests may lower it
/// with `"limit"` but never raise it.
pub const MAX_SWEEP_ROWS: usize = 256;

/// Largest accepted `/v1/evaluate_model` HSS group size (product of the
/// per-rank `H` values): the co-design families top out at 32, and the
/// accuracy surrogate synthesizes (and caches) group-aligned weight
/// matrices, so the group size bounds per-request memory.
pub const MAX_GROUP_SIZE: usize = 64;

/// Largest accepted per-request `deadline_ms` (one hour — beyond that a
/// deadline stops being a deadline).
pub const MAX_DEADLINE_MS: u64 = 3_600_000;

/// Why a request body failed schema validation (`thiserror` idiom:
/// structured variants, hand-written `Display`, `std::error::Error`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The body is not valid UTF-8.
    NotUtf8,
    /// The body is not valid JSON (carries the codec's message).
    BadJson(String),
    /// The body (or a sub-value) is not a JSON object where one is
    /// required.
    NotAnObject,
    /// A required field is absent.
    Missing {
        /// The missing field.
        field: &'static str,
    },
    /// A field holds the wrong JSON type.
    WrongType {
        /// The offending field (quoted in the message).
        field: String,
        /// What the schema expects, e.g. `"a string"`.
        expected: &'static str,
    },
    /// A field the endpoint's schema does not define.
    UnknownField {
        /// The offending field.
        field: String,
        /// Comma-joined list of the fields the schema accepts.
        allowed: String,
    },
    /// A well-typed value that fails a semantic constraint (range,
    /// cardinality, grammar); the message is complete and user-facing.
    Invalid {
        /// The full validation message.
        message: String,
    },
}

impl SchemaError {
    fn invalid(message: impl Into<String>) -> Self {
        Self::Invalid {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotUtf8 => f.write_str("request body is not valid UTF-8"),
            Self::BadJson(msg) => f.write_str(msg),
            Self::NotAnObject => f.write_str("request body must be a JSON object"),
            Self::Missing { field } => write!(f, "missing required field {field:?}"),
            Self::WrongType { field, expected } => write!(f, "{field:?} must be {expected}"),
            Self::UnknownField { field, allowed } => {
                write!(f, "unknown field {field:?}; allowed: {allowed}")
            }
            Self::Invalid { message } => f.write_str(message),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Declarative field extraction over one JSON object: construction
/// rejects non-objects and unknown fields, accessors reject wrong types
/// and missing required fields — every wire struct's `from_json` is a
/// straight-line sequence of these calls.
pub struct ObjReader<'a> {
    members: &'a [(String, Json)],
}

impl<'a> ObjReader<'a> {
    /// Wraps `v`, rejecting non-objects and any field outside `allowed`.
    ///
    /// # Errors
    /// [`SchemaError::NotAnObject`] / [`SchemaError::UnknownField`].
    pub fn over(v: &'a Json, allowed: &[&str]) -> Result<Self, SchemaError> {
        let Json::Obj(members) = v else {
            return Err(SchemaError::NotAnObject);
        };
        for (k, _) in members {
            if !allowed.contains(&k.as_str()) {
                return Err(SchemaError::UnknownField {
                    field: k.clone(),
                    allowed: allowed.join(", "),
                });
            }
        }
        Ok(Self { members })
    }

    /// The raw field, if present.
    pub fn get(&self, key: &str) -> Option<&'a Json> {
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A required field of any type.
    ///
    /// # Errors
    /// [`SchemaError::Missing`].
    pub fn req(&self, key: &'static str) -> Result<&'a Json, SchemaError> {
        self.get(key).ok_or(SchemaError::Missing { field: key })
    }

    /// A required string field.
    ///
    /// # Errors
    /// [`SchemaError::Missing`] / [`SchemaError::WrongType`].
    pub fn req_str(&self, key: &'static str) -> Result<&'a str, SchemaError> {
        self.req(key)?.as_str().ok_or(SchemaError::WrongType {
            field: key.into(),
            expected: "a string",
        })
    }

    /// A required numeric field.
    ///
    /// # Errors
    /// [`SchemaError::Missing`] / [`SchemaError::WrongType`].
    pub fn req_f64(&self, key: &'static str) -> Result<f64, SchemaError> {
        self.req(key)?.as_f64().ok_or(SchemaError::WrongType {
            field: key.into(),
            expected: "a number",
        })
    }

    /// An optional numeric field.
    ///
    /// # Errors
    /// [`SchemaError::WrongType`] when present but not a number.
    pub fn opt_f64(&self, key: &'static str) -> Result<Option<f64>, SchemaError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.as_f64().map(Some).ok_or(SchemaError::WrongType {
                field: key.into(),
                expected: "a number",
            }),
        }
    }
}

/// Parses a request body into JSON: UTF-8, JSON syntax, and the
/// "top level must be an object" rule (empty bodies included).
///
/// # Errors
/// [`SchemaError::NotUtf8`] / [`SchemaError::BadJson`] /
/// [`SchemaError::NotAnObject`].
pub fn parse_body_json(body: &[u8]) -> Result<Json, SchemaError> {
    let text = std::str::from_utf8(body).map_err(|_| SchemaError::NotUtf8)?;
    if text.trim().is_empty() {
        return Err(SchemaError::NotAnObject);
    }
    let v = Json::parse(text).map_err(|e| SchemaError::BadJson(e.to_string()))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(SchemaError::NotAnObject);
    }
    Ok(v)
}

/// Validates one GEMM dimension-ish integer field (also used for
/// `"limit"`): a non-negative integer no larger than [`MAX_DIM`].
fn int_field(reader: &ObjReader<'_>, key: &'static str) -> Result<Option<usize>, SchemaError> {
    let Some(n) = reader.opt_f64(key)? else {
        return Ok(None);
    };
    if n.fract() != 0.0 || n < 0.0 || n > MAX_DIM as f64 {
        return Err(SchemaError::invalid(format!(
            "{key:?} must be an integer in [0, {MAX_DIM}], got {n}"
        )));
    }
    Ok(Some(n as usize))
}

/// Resolves the optional `m`/`k`/`n` fields (default 1024 each) and
/// enforces the dense-MAC product cap.
fn shape_fields(reader: &ObjReader<'_>) -> Result<GemmShape, SchemaError> {
    let mut dims = [1024usize; 3];
    for (dim, key) in dims.iter_mut().zip(["m", "k", "n"]) {
        if let Some(n) = int_field(reader, key)? {
            if n == 0 {
                return Err(SchemaError::invalid(format!("{key:?} must be at least 1")));
            }
            *dim = n;
        }
    }
    let macs = dims.iter().map(|&d| d as u128).product::<u128>();
    if macs > MAX_MACS {
        return Err(SchemaError::invalid(format!(
            "m*k*n = {macs} dense MACs exceeds the {MAX_MACS} limit"
        )));
    }
    let [m, k, n] = dims;
    Ok(GemmShape::new(m, k, n))
}

fn check_degree(n: f64, key: &str) -> Result<f64, SchemaError> {
    if !(0.0..=MAX_DEGREE).contains(&n) {
        return Err(SchemaError::invalid(format!(
            "{key:?} must be a sparsity degree in [0, {MAX_DEGREE}], got {n}"
        )));
    }
    Ok(n)
}

fn degree_field(reader: &ObjReader<'_>, key: &'static str) -> Result<f64, SchemaError> {
    match reader.opt_f64(key)? {
        None => Ok(0.0),
        Some(n) => check_degree(n, key),
    }
}

/// Validates the optional `deadline_ms` field every POST wire type
/// accepts: a non-negative integer number of milliseconds the client is
/// willing to wait. Work still queued past the deadline is shed with a
/// 503 instead of being evaluated (see `crate::server`). `0` is legal
/// and means "already expired" — useful for probing the shed path.
fn deadline_field(reader: &ObjReader<'_>) -> Result<Option<u64>, SchemaError> {
    let Some(n) = reader.opt_f64("deadline_ms")? else {
        return Ok(None);
    };
    if n.fract() != 0.0 || n < 0.0 || n > MAX_DEADLINE_MS as f64 {
        return Err(SchemaError::invalid(format!(
            "\"deadline_ms\" must be an integer in [0, {MAX_DEADLINE_MS}], got {n}"
        )));
    }
    Ok(Some(n as u64))
}

/// Appends `deadline_ms` to a canonical encoding only when present —
/// requests without a deadline encode byte-identically to the pre-
/// deadline wire format.
fn push_deadline(members: &mut Vec<(String, Json)>, deadline_ms: Option<u64>) {
    if let Some(ms) = deadline_ms {
        members.push(("deadline_ms".into(), Json::Num(ms as f64)));
    }
}

fn shape_members(shape: GemmShape) -> [(String, Json); 3] {
    [
        ("m".into(), Json::Num(shape.m as f64)),
        ("k".into(), Json::Num(shape.k as f64)),
        ("n".into(), Json::Num(shape.n as f64)),
    ]
}

/// `POST /v1/evaluate`: one `(design, shape, sparsity-degree)` cell.
/// Optional wire fields arrive resolved (`shape` defaults to 1024³,
/// degrees to dense 0.0).
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluateRequest {
    /// Registered design name (existence is checked by the handler — the
    /// schema layer owns shapes, not registries).
    pub design: String,
    /// GEMM dimensions.
    pub shape: GemmShape,
    /// Operand A target sparsity degree in `[0, MAX_DEGREE]`.
    pub a_sparsity: f64,
    /// Operand B target sparsity degree in `[0, MAX_DEGREE]`.
    pub b_sparsity: f64,
    /// Optional per-request deadline in milliseconds (absent → the
    /// server's `--default-deadline`, if any).
    pub deadline_ms: Option<u64>,
}

impl EvaluateRequest {
    /// The fields this wire type accepts.
    pub const FIELDS: &'static [&'static str] = &[
        "design",
        "m",
        "k",
        "n",
        "a_sparsity",
        "b_sparsity",
        "deadline_ms",
    ];

    /// Parses from a request body.
    ///
    /// # Errors
    /// Any [`SchemaError`].
    pub fn from_body(body: &[u8]) -> Result<Self, SchemaError> {
        Self::from_json(&parse_body_json(body)?)
    }

    /// Parses from a JSON value; inverse of [`EvaluateRequest::to_json`].
    ///
    /// # Errors
    /// Any [`SchemaError`].
    pub fn from_json(v: &Json) -> Result<Self, SchemaError> {
        let reader = ObjReader::over(v, Self::FIELDS)?;
        Ok(Self {
            design: reader.req_str("design")?.to_string(),
            shape: shape_fields(&reader)?,
            a_sparsity: degree_field(&reader, "a_sparsity")?,
            b_sparsity: degree_field(&reader, "b_sparsity")?,
            deadline_ms: deadline_field(&reader)?,
        })
    }

    /// The canonical wire encoding (all fields explicit; the deadline
    /// stays absent when unset).
    pub fn to_json(&self) -> Json {
        let mut members = vec![("design".into(), Json::str(&self.design))];
        members.extend(shape_members(self.shape));
        members.push(("a_sparsity".into(), Json::Num(self.a_sparsity)));
        members.push(("b_sparsity".into(), Json::Num(self.b_sparsity)));
        push_deadline(&mut members, self.deadline_ms);
        Json::Obj(members)
    }
}

/// `POST /v1/evaluate_model`: a design × model × pruning-config cell.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluateModelRequest {
    /// Registered design name.
    pub design: String,
    /// Registered model name.
    pub model: String,
    /// Weight-pruning configuration (absent on the wire → dense).
    pub pruning: PruningConfig,
    /// Optional per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl EvaluateModelRequest {
    /// The fields this wire type accepts.
    pub const FIELDS: &'static [&'static str] = &["design", "model", "pruning", "deadline_ms"];

    /// Parses from a request body.
    ///
    /// # Errors
    /// Any [`SchemaError`].
    pub fn from_body(body: &[u8]) -> Result<Self, SchemaError> {
        Self::from_json(&parse_body_json(body)?)
    }

    /// Parses from a JSON value; inverse of
    /// [`EvaluateModelRequest::to_json`].
    ///
    /// # Errors
    /// Any [`SchemaError`].
    pub fn from_json(v: &Json) -> Result<Self, SchemaError> {
        let reader = ObjReader::over(v, Self::FIELDS)?;
        Ok(Self {
            design: reader.req_str("design")?.to_string(),
            model: reader.req_str("model")?.to_string(),
            pruning: pruning_spec(reader.get("pruning"))?,
            deadline_ms: deadline_field(&reader)?,
        })
    }

    /// The canonical wire encoding (all fields explicit; the deadline
    /// stays absent when unset).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("design".into(), Json::str(&self.design)),
            ("model".into(), Json::str(&self.model)),
            ("pruning".into(), pruning_spec_json(&self.pruning)),
        ];
        push_deadline(&mut members, self.deadline_ms);
        Json::Obj(members)
    }
}

/// `POST /v1/search`: co-design search under an accuracy-loss budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// Registered design name.
    pub design: String,
    /// Registered model name.
    pub model: String,
    /// Accuracy-loss budget in metric points, `[0, MAX_BUDGET]`.
    pub budget: f64,
    /// Optional per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl SearchRequest {
    /// The fields this wire type accepts.
    pub const FIELDS: &'static [&'static str] = &["design", "model", "budget", "deadline_ms"];

    /// Parses from a request body.
    ///
    /// # Errors
    /// Any [`SchemaError`].
    pub fn from_body(body: &[u8]) -> Result<Self, SchemaError> {
        Self::from_json(&parse_body_json(body)?)
    }

    /// Parses from a JSON value; inverse of [`SearchRequest::to_json`].
    ///
    /// # Errors
    /// Any [`SchemaError`].
    pub fn from_json(v: &Json) -> Result<Self, SchemaError> {
        let reader = ObjReader::over(v, Self::FIELDS)?;
        let budget = reader.req_f64("budget")?;
        if !(0.0..=MAX_BUDGET).contains(&budget) {
            return Err(SchemaError::invalid(format!(
                "\"budget\" must be an accuracy-loss budget in [0, {MAX_BUDGET}] \
                 metric points, got {budget}"
            )));
        }
        Ok(Self {
            design: reader.req_str("design")?.to_string(),
            model: reader.req_str("model")?.to_string(),
            budget,
            deadline_ms: deadline_field(&reader)?,
        })
    }

    /// The canonical wire encoding (the deadline stays absent when
    /// unset).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("design".into(), Json::str(&self.design)),
            ("model".into(), Json::str(&self.model)),
            ("budget".into(), Json::Num(self.budget)),
        ];
        push_deadline(&mut members, self.deadline_ms);
        Json::Obj(members)
    }
}

/// `POST /v1/sweep`: a sparsity-degree grid over a design set. `None`
/// keeps a wire field absent — the handler resolves registry-dependent
/// defaults (all designs, the Fig. 13 degrees), which the schema layer
/// deliberately does not know about.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Design names (absent → every registered design).
    pub designs: Option<Vec<String>>,
    /// Operand A sparsity degrees (absent → the Fig. 13 ladder).
    pub a_degrees: Option<Vec<f64>>,
    /// Operand B sparsity degrees (absent → the Fig. 13 ladder).
    pub b_degrees: Option<Vec<f64>>,
    /// GEMM dimensions.
    pub shape: GemmShape,
    /// Requested row cap (absent → the server-side maximum; the handler
    /// clamps to [`MAX_SWEEP_ROWS`] either way).
    pub limit: Option<usize>,
    /// Optional per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl SweepRequest {
    /// The fields this wire type accepts.
    pub const FIELDS: &'static [&'static str] = &[
        "designs",
        "a_degrees",
        "b_degrees",
        "m",
        "k",
        "n",
        "limit",
        "deadline_ms",
    ];

    /// Parses from a request body.
    ///
    /// # Errors
    /// Any [`SchemaError`].
    pub fn from_body(body: &[u8]) -> Result<Self, SchemaError> {
        Self::from_json(&parse_body_json(body)?)
    }

    /// Parses from a JSON value; inverse of [`SweepRequest::to_json`].
    ///
    /// # Errors
    /// Any [`SchemaError`].
    pub fn from_json(v: &Json) -> Result<Self, SchemaError> {
        let reader = ObjReader::over(v, Self::FIELDS)?;
        let designs = match reader.get("designs") {
            None => None,
            Some(v) => {
                let arr = v.as_arr().ok_or(SchemaError::WrongType {
                    field: "designs".into(),
                    expected: "an array",
                })?;
                if arr.is_empty() {
                    return Err(SchemaError::invalid("\"designs\" must not be empty"));
                }
                Some(
                    arr.iter()
                        .map(|d| {
                            d.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| SchemaError::invalid("design names must be strings"))
                        })
                        .collect::<Result<_, _>>()?,
                )
            }
        };
        let limit = match int_field(&reader, "limit")? {
            None => None,
            Some(0) => return Err(SchemaError::invalid("\"limit\" must be at least 1")),
            Some(n) => Some(n),
        };
        Ok(Self {
            designs,
            a_degrees: degrees_field(&reader, "a_degrees")?,
            b_degrees: degrees_field(&reader, "b_degrees")?,
            shape: shape_fields(&reader)?,
            limit,
            deadline_ms: deadline_field(&reader)?,
        })
    }

    /// The canonical wire encoding (optional fields stay absent).
    pub fn to_json(&self) -> Json {
        let mut members = Vec::new();
        if let Some(designs) = &self.designs {
            members.push((
                "designs".into(),
                Json::Arr(designs.iter().map(Json::str).collect()),
            ));
        }
        for (key, degrees) in [
            ("a_degrees", &self.a_degrees),
            ("b_degrees", &self.b_degrees),
        ] {
            if let Some(degrees) = degrees {
                members.push((
                    key.into(),
                    Json::Arr(degrees.iter().map(|&d| Json::Num(d)).collect()),
                ));
            }
        }
        members.extend(shape_members(self.shape));
        if let Some(limit) = self.limit {
            members.push(("limit".into(), Json::Num(limit as f64)));
        }
        push_deadline(&mut members, self.deadline_ms);
        Json::Obj(members)
    }
}

fn degrees_field(
    reader: &ObjReader<'_>,
    key: &'static str,
) -> Result<Option<Vec<f64>>, SchemaError> {
    match reader.get(key) {
        None => Ok(None),
        Some(v) => {
            let arr = v.as_arr().ok_or(SchemaError::WrongType {
                field: key.into(),
                expected: "an array",
            })?;
            if arr.is_empty() {
                return Err(SchemaError::invalid(format!("{key:?} must not be empty")));
            }
            arr.iter()
                .map(|d| {
                    check_degree(
                        d.as_f64().ok_or_else(|| {
                            SchemaError::invalid(format!("{key:?} entries must be numbers"))
                        })?,
                        key,
                    )
                })
                .collect::<Result<_, _>>()
                .map(Some)
        }
    }
}

/// Parses the `"pruning"` wire field into a [`PruningConfig`]: absent or
/// `"dense"` → no pruning, `{"unstructured": degree}` → unstructured
/// magnitude pruning, `{"hss": [[g, h], ...]}` → an HSS pattern,
/// outermost rank first. Inverse of [`pruning_spec_json`].
///
/// # Errors
/// [`SchemaError::Invalid`] with a complete grammar/range message.
pub fn pruning_spec(v: Option<&Json>) -> Result<PruningConfig, SchemaError> {
    let Some(v) = v else {
        return Ok(PruningConfig::Dense);
    };
    if let Some(s) = v.as_str() {
        if s == "dense" {
            return Ok(PruningConfig::Dense);
        }
        return Err(SchemaError::invalid(format!(
            "\"pruning\" string must be \"dense\", got {s:?}"
        )));
    }
    let Json::Obj(members) = v else {
        return Err(SchemaError::invalid(
            "\"pruning\" must be \"dense\", {\"unstructured\": degree}, \
             or {\"hss\": [[g, h], ...]}",
        ));
    };
    match members.as_slice() {
        [(key, value)] if key == "unstructured" => {
            let degree = value
                .as_f64()
                .ok_or_else(|| SchemaError::invalid("\"pruning.unstructured\" must be a number"))?;
            // Pruning configs accept the full [0, 1] range — including the
            // fully-pruned 1.0 extreme, which the hardened designs answer
            // with per-layer `Unsupported` outcomes rather than a panic.
            if !(0.0..=1.0).contains(&degree) {
                return Err(SchemaError::invalid(format!(
                    "\"pruning.unstructured\" must be a sparsity degree in [0, 1], got {degree}"
                )));
            }
            Ok(PruningConfig::Unstructured { sparsity: degree })
        }
        [(key, value)] if key == "hss" => {
            let ranks = value
                .as_arr()
                .ok_or_else(|| SchemaError::invalid("\"pruning.hss\" must be an array"))?;
            if ranks.is_empty() || ranks.len() > 3 {
                return Err(SchemaError::invalid(
                    "\"pruning.hss\" must hold 1 to 3 [g, h] ranks",
                ));
            }
            let mut ghs = Vec::new();
            for rank in ranks {
                let Some([g, h]) = rank.as_arr() else {
                    return Err(SchemaError::invalid(
                        "\"pruning.hss\" ranks must be [g, h] pairs",
                    ));
                };
                let (g, h) = (gh_component(g)?, gh_component(h)?);
                // The typed core validation (density > 1, division by
                // zero) maps straight to a 400 here.
                ghs.push(Gh::try_new(g, h).map_err(|e| SchemaError::invalid(e.to_string()))?);
            }
            let pattern = HssPattern::new(ghs);
            // The group size (product of the per-rank H values) bounds the
            // weight-matrix columns the accuracy surrogate synthesizes and
            // retains in the long-lived cache; unbounded, one request could
            // pin gigabytes. Real co-design families top out at 32.
            if pattern.group_size() > MAX_GROUP_SIZE {
                return Err(SchemaError::invalid(format!(
                    "\"pruning.hss\" group size (product of H values) must \
                     not exceed {MAX_GROUP_SIZE}, got {}",
                    pattern.group_size()
                )));
            }
            Ok(PruningConfig::Hss(pattern))
        }
        _ => Err(SchemaError::invalid(
            "\"pruning\" must hold exactly one of \"unstructured\" or \"hss\"",
        )),
    }
}

fn gh_component(v: &Json) -> Result<u32, SchemaError> {
    let n = v
        .as_f64()
        .ok_or_else(|| SchemaError::invalid("\"pruning.hss\" entries must be numbers"))?;
    if n.fract() != 0.0 || !(1.0..=64.0).contains(&n) {
        return Err(SchemaError::invalid(format!(
            "G:H components must be integers in [1, 64], got {n}"
        )));
    }
    Ok(n as u32)
}

/// The canonical wire encoding of a [`PruningConfig`]; inverse of
/// [`pruning_spec`].
pub fn pruning_spec_json(config: &PruningConfig) -> Json {
    match config {
        PruningConfig::Dense => Json::str("dense"),
        PruningConfig::Unstructured { sparsity } => {
            Json::Obj(vec![("unstructured".into(), Json::Num(*sparsity))])
        }
        PruningConfig::Hss(pattern) => Json::Obj(vec![(
            "hss".into(),
            Json::Arr(
                pattern
                    .ranks()
                    .iter()
                    .map(|gh| {
                        Json::Arr(vec![Json::Num(f64::from(gh.g)), Json::Num(f64::from(gh.h))])
                    })
                    .collect(),
            ),
        )]),
    }
}

/// The canonical JSON view of a [`GemmShape`].
pub fn shape_json(shape: GemmShape) -> Json {
    Json::Obj(shape_members(shape).into())
}

/// The canonical JSON view of one [`EvalResult`] — shared by
/// `/v1/evaluate`, `/v1/sweep`, and the offline byte-identity acceptance
/// test.
pub fn eval_result_json(r: &EvalResult) -> Json {
    Json::Obj(vec![
        ("design".into(), Json::str(&r.design)),
        ("workload".into(), Json::str(&r.workload)),
        ("cycles".into(), Json::Num(r.cycles)),
        ("latency_s".into(), Json::Num(r.latency_s())),
        ("energy_j".into(), Json::Num(r.energy_j())),
        ("edp".into(), Json::Num(r.edp())),
        (
            "energy_pj".into(),
            Json::Obj(
                r.energy
                    .iter()
                    .map(|(c, pj)| (c.label().to_string(), Json::Num(pj)))
                    .collect(),
            ),
        ),
    ])
}

/// The canonical JSON view of one [`NetworkEval`] — shared by
/// `/v1/evaluate_model` and the offline byte-identity acceptance test:
/// per-layer breakdowns (each with its [`EvalResult`] or the unsupported
/// reason) plus aggregate totals (`null` when any layer cannot run).
pub fn network_eval_json(eval: &NetworkEval) -> Json {
    let layers: Vec<Json> = eval.layers.iter().map(layer_eval_json).collect();
    let totals = match (
        eval.cycles(),
        eval.energy_j(),
        eval.latency_s(),
        eval.edp(),
        eval.ed2(),
        eval.utilization(),
    ) {
        (Some(cycles), Some(energy_j), Some(latency_s), Some(edp), Some(ed2), Some(u)) => {
            Json::Obj(vec![
                ("cycles".into(), Json::Num(cycles)),
                ("latency_s".into(), Json::Num(latency_s)),
                ("energy_j".into(), Json::Num(energy_j)),
                ("edp".into(), Json::Num(edp)),
                ("ed2".into(), Json::Num(ed2)),
                ("utilization".into(), Json::Num(u)),
            ])
        }
        _ => Json::Null,
    };
    Json::Obj(vec![
        ("design".into(), Json::str(&eval.design)),
        ("network".into(), Json::str(&eval.network)),
        ("supported".into(), Json::Bool(eval.supported())),
        ("layers".into(), Json::Arr(layers)),
        ("totals".into(), totals),
    ])
}

fn layer_eval_json(layer: &LayerEval) -> Json {
    let mut members = vec![
        ("name".into(), Json::str(layer.name())),
        ("count".into(), Json::Num(f64::from(layer.count))),
    ];
    members.extend(workload_eval_members(&layer.workload, &layer.outcome));
    Json::Obj(members)
}

/// The tail of every evaluated workload's JSON view — `/v1/evaluate` and
/// each `/v1/evaluate_model` layer: `shape`, the operands `a` and `b`,
/// then `supported` with the `result` or the unsupported `reason`.
pub(crate) fn workload_eval_members(
    workload: &Workload,
    outcome: &Result<EvalResult, Unsupported>,
) -> [(String, Json); 5] {
    let (supported, last) = match outcome {
        Ok(result) => (true, ("result".into(), eval_result_json(result))),
        Err(unsupported) => (false, ("reason".into(), Json::str(unsupported.to_string()))),
    };
    [
        ("shape".into(), shape_json(workload.shape)),
        ("a".into(), Json::str(workload.a.to_string())),
        ("b".into(), Json::str(workload.b.to_string())),
        ("supported".into(), Json::Bool(supported)),
        last,
    ]
}

/// The canonical JSON view of one co-design [`SearchOutcome`] — shared by
/// `POST /v1/search` and the offline byte-identity acceptance test, so
/// the served response and the `codesign` search agree byte for byte.
pub fn search_outcome_json(outcome: &SearchOutcome) -> Json {
    let points: Vec<Json> = outcome.points.iter().map(search_point_json).collect();
    Json::Obj(vec![
        ("design".into(), Json::str(&outcome.design)),
        ("model".into(), Json::str(&outcome.model)),
        ("metric".into(), Json::str(outcome.metric)),
        ("budget".into(), Json::Num(outcome.budget)),
        ("candidates".into(), Json::Num(outcome.candidates as f64)),
        ("unsupported".into(), Json::Num(outcome.unsupported as f64)),
        (
            "front".into(),
            Json::Arr(
                outcome
                    .points
                    .iter()
                    .filter(|p| p.on_front)
                    .map(search_point_json)
                    .collect(),
            ),
        ),
        (
            "best".into(),
            outcome.best_point().map_or(Json::Null, search_point_json),
        ),
        ("points".into(), Json::Arr(points)),
    ])
}

fn search_point_json(p: &SearchPoint) -> Json {
    Json::Obj(vec![
        ("config".into(), Json::str(&p.label)),
        ("weight_sparsity".into(), Json::Num(p.weight_sparsity)),
        ("loss".into(), Json::Num(p.loss)),
        ("edp".into(), Json::Num(p.edp)),
        ("energy_j".into(), Json::Num(p.energy_j)),
        ("latency_s".into(), Json::Num(p.latency_s)),
        ("on_front".into(), Json::Bool(p.on_front)),
        ("within_budget".into(), Json::Bool(p.within_budget)),
    ])
}

/// The structured error wire type: every 4xx/5xx response body is
/// `{"error": {"code": …, "message": …}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// Stable machine-readable code (see [`error_code`]).
    pub code: String,
    /// Human-readable message.
    pub message: String,
}

impl ErrorBody {
    /// The error body for a status code and message.
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            code: error_code(status).into(),
            message: message.into(),
        }
    }

    /// Parses from a response body; inverse of [`ErrorBody::to_json`].
    ///
    /// # Errors
    /// [`SchemaError`] when the body is not a structured error object.
    pub fn from_json(v: &Json) -> Result<Self, SchemaError> {
        let err = v
            .get("error")
            .ok_or(SchemaError::Missing { field: "error" })?;
        let reader = ObjReader::over(err, &["code", "message"])?;
        Ok(Self {
            code: reader.req_str("code")?.to_string(),
            message: reader.req_str("message")?.to_string(),
        })
    }

    /// The canonical wire encoding.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![(
            "error".into(),
            Json::Obj(vec![
                ("code".into(), Json::str(&self.code)),
                ("message".into(), Json::str(&self.message)),
            ]),
        )])
    }
}

/// Stable machine-readable code for each status the server emits.
pub fn error_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        408 => "timeout",
        411 => "length_required",
        413 => "payload_too_large",
        422 => "unprocessable",
        431 => "headers_too_large",
        500 => "internal",
        503 => "overloaded",
        505 => "http_version_unsupported",
        _ => "error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_round_trips_and_defaults() {
        let v = Json::parse(r#"{"design":"HighLight","a_sparsity":0.5}"#).unwrap();
        let req = EvaluateRequest::from_json(&v).unwrap();
        assert_eq!(req.design, "HighLight");
        assert_eq!(req.shape, GemmShape::new(1024, 1024, 1024));
        assert_eq!((req.a_sparsity, req.b_sparsity), (0.5, 0.0));
        assert_eq!(EvaluateRequest::from_json(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn schema_error_messages_are_stable() {
        for (body, needle) in [
            ("", "JSON object"),
            ("[1,2]", "JSON object"),
            ("{\"design\":\"TC\"", "invalid JSON"),
            ("{}", "missing required field"),
            (r#"{"design":42}"#, "\"design\" must be a string"),
            (r#"{"design":"TC","bogus":1}"#, "unknown field"),
            (r#"{"design":"TC","a_sparsity":1.5}"#, "sparsity degree"),
            (r#"{"design":"TC","m":0}"#, "at least 1"),
            (r#"{"design":"TC","m":2.5}"#, "integer"),
        ] {
            let err = EvaluateRequest::from_body(body.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "{body}: {msg}");
        }
        let bad = vec![0xff, 0xfe];
        assert_eq!(
            EvaluateRequest::from_body(&bad).unwrap_err(),
            SchemaError::NotUtf8
        );
    }

    #[test]
    fn sweep_keeps_optional_fields_absent() {
        let req = SweepRequest::from_body(br#"{"m":64,"k":32,"n":16}"#).unwrap();
        assert_eq!(req.designs, None);
        assert_eq!(req.a_degrees, None);
        assert_eq!(req.limit, None);
        let encoded = req.to_json();
        assert!(encoded.get("designs").is_none());
        assert!(encoded.get("limit").is_none());
        assert_eq!(SweepRequest::from_json(&encoded).unwrap(), req);

        let full = SweepRequest {
            designs: Some(vec!["TC".into(), "HighLight".into()]),
            a_degrees: Some(vec![0.0, 0.5]),
            b_degrees: Some(vec![0.25]),
            shape: GemmShape::new(64, 64, 64),
            limit: Some(7),
            deadline_ms: Some(250),
        };
        assert_eq!(SweepRequest::from_json(&full.to_json()).unwrap(), full);
    }

    #[test]
    fn deadlines_parse_validate_and_stay_absent() {
        // Absent stays absent: the canonical encoding without a deadline
        // is byte-identical to the pre-deadline wire format.
        let v = Json::parse(r#"{"design":"TC"}"#).unwrap();
        let req = EvaluateRequest::from_json(&v).unwrap();
        assert_eq!(req.deadline_ms, None);
        assert!(req.to_json().get("deadline_ms").is_none());

        let v = Json::parse(r#"{"design":"TC","deadline_ms":0}"#).unwrap();
        let req = EvaluateRequest::from_json(&v).unwrap();
        assert_eq!(req.deadline_ms, Some(0), "0 is legal (already expired)");
        assert_eq!(EvaluateRequest::from_json(&req.to_json()).unwrap(), req);

        for body in [
            r#"{"design":"TC","deadline_ms":-1}"#,
            r#"{"design":"TC","deadline_ms":1.5}"#,
            r#"{"design":"TC","deadline_ms":3600001}"#,
            r#"{"design":"TC","deadline_ms":"soon"}"#,
        ] {
            let err = EvaluateRequest::from_body(body.as_bytes()).unwrap_err();
            assert!(err.to_string().contains("deadline_ms"), "{body}: {err}");
        }

        // Every POST wire type accepts the field.
        let model =
            EvaluateModelRequest::from_body(br#"{"design":"TC","model":"x","deadline_ms":5}"#)
                .unwrap();
        assert_eq!(model.deadline_ms, Some(5));
        let search =
            SearchRequest::from_body(br#"{"design":"TC","model":"x","budget":1,"deadline_ms":5}"#)
                .unwrap();
        assert_eq!(search.deadline_ms, Some(5));
        let sweep = SweepRequest::from_body(br#"{"deadline_ms":5}"#).unwrap();
        assert_eq!(sweep.deadline_ms, Some(5));
    }

    #[test]
    fn pruning_specs_round_trip() {
        for spec in [
            PruningConfig::Dense,
            PruningConfig::Unstructured { sparsity: 0.65 },
            PruningConfig::Hss(HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4))),
        ] {
            let wire = pruning_spec_json(&spec);
            assert_eq!(pruning_spec(Some(&wire)).unwrap(), spec);
        }
        assert_eq!(pruning_spec(None).unwrap(), PruningConfig::Dense);
    }

    #[test]
    fn search_budget_is_range_checked() {
        let ok = SearchRequest::from_body(
            br#"{"design":"HighLight","model":"DeiT-small","budget":0.5}"#,
        )
        .unwrap();
        assert_eq!(SearchRequest::from_json(&ok.to_json()).unwrap(), ok);
        for body in [
            r#"{"design":"TC","model":"ResNet50","budget":-1}"#,
            r#"{"design":"TC","model":"ResNet50","budget":101}"#,
        ] {
            let err = SearchRequest::from_body(body.as_bytes()).unwrap_err();
            assert!(err.to_string().contains("accuracy-loss budget"), "{err}");
        }
    }

    #[test]
    fn error_body_round_trips_with_stable_codes() {
        let body = ErrorBody::new(400, "nope");
        assert_eq!(body.code, "bad_request");
        assert_eq!(ErrorBody::from_json(&body.to_json()).unwrap(), body);
        for (status, code) in [(404, "not_found"), (503, "overloaded"), (418, "error")] {
            assert_eq!(error_code(status), code);
        }
    }
}
