//! `hl-client` — a CLI for the `hl-serve` `/v1` API that renders
//! responses as aligned tables. All requests for one invocation share a
//! keep-alive connection.
//!
//! ```text
//! hl-client [--addr HOST:PORT] health
//! hl-client [--addr HOST:PORT] designs
//! hl-client [--addr HOST:PORT] models
//! hl-client [--addr HOST:PORT] metrics [--prometheus]
//! hl-client [--addr HOST:PORT] trace [--limit N] [--route PATH] [--min-ms MS]
//! hl-client [--addr HOST:PORT] evaluate --design D [--m M --k K --n N] [--a S] [--b S]
//! hl-client [--addr HOST:PORT] model DESIGN MODEL [--unstructured S | --hss G:H[,G:H]]
//! hl-client [--addr HOST:PORT] search DESIGN MODEL [--budget POINTS]
//! hl-client [--addr HOST:PORT] sweep [--designs A,B] [--a 0,0.5] [--b 0,0.25]
//!                                    [--m M --k K --n N] [--limit N]
//! hl-client checklog   # validate JSON-lines log fed on stdin
//! hl-client promcheck  # validate a Prometheus exposition fed on stdin
//! ```
//!
//! `metrics --prometheus` prints the raw text exposition unmodified (a
//! curl-equivalent passthrough for scrapers); `trace` renders the
//! server's request-trace ring as a span waterfall. `checklog` and
//! `promcheck` are offline validators used by CI smoke tests: both read
//! stdin, print a one-line summary, and exit nonzero on the first
//! malformed line.

use std::io::Read;
use std::process::ExitCode;

use hl_serve::client::Client;
use hl_serve::json::Json;
use hl_serve::DEFAULT_ADDR;

const USAGE: &str =
    "usage: hl-client [--addr HOST:PORT] <health|designs|models|metrics|trace|evaluate|model|search|sweep|checklog|promcheck> [options]
  metrics [--prometheus]
  trace [--limit N] [--route PATH] [--min-ms MS]
  evaluate --design D [--m M --k K --n N] [--a SPARSITY] [--b SPARSITY]
  model DESIGN MODEL [--unstructured SPARSITY | --hss G:H[,G:H...]]
  search DESIGN MODEL [--budget POINTS]
  sweep [--designs A,B,...] [--a D1,D2,...] [--b D1,D2,...] [--m M --k K --n N] [--limit N]
  checklog   (reads a JSON-lines log from stdin)
  promcheck  (reads a Prometheus exposition from stdin)";

fn fail(msg: &str) -> ExitCode {
    eprintln!("hl-client: {msg}");
    ExitCode::FAILURE
}

fn num(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = DEFAULT_ADDR.to_string();
    let mut positionals: Vec<String> = Vec::new();
    let mut options: Vec<(String, String)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if name == "help" {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            // Boolean flags take no value operand.
            if name == "prometheus" {
                options.push((name.to_string(), "true".to_string()));
                continue;
            }
            let Some(value) = it.next() else {
                return fail(&format!("--{name} needs a value\n{USAGE}"));
            };
            if name == "addr" {
                addr = value;
            } else {
                options.push((name.to_string(), value));
            }
        } else {
            positionals.push(arg);
        }
    }
    let Some(command) = positionals.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // Only `model` and `search` take positional operands (DESIGN MODEL).
    let operand_limit = if command == "model" || command == "search" {
        3
    } else {
        1
    };
    if positionals.len() > operand_limit {
        return fail(&format!(
            "unexpected argument {:?}\n{USAGE}",
            positionals[operand_limit]
        ));
    }

    // Reject options the command does not consume: a typo'd flag (e.g.
    // --unstructered) would otherwise silently evaluate something else
    // than the user asked for.
    let allowed: &[&str] = match command.as_str() {
        "evaluate" => &["design", "m", "k", "n", "a", "b"],
        "model" => &["unstructured", "hss"],
        "search" => &["budget"],
        "sweep" => &["designs", "a", "b", "m", "k", "n", "limit"],
        "metrics" => &["prometheus"],
        "trace" => &["limit", "route", "min-ms"],
        _ => &[],
    };
    if let Some((name, _)) = options.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
        return fail(&format!("unknown option --{name} for {command}\n{USAGE}"));
    }

    let opt = |name: &str| {
        options
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };

    // Offline validators: no server involved, stdin in, verdict out.
    if command == "checklog" {
        return check_log_stdin();
    }
    if command == "promcheck" {
        return check_prom_stdin();
    }

    let mut client = Client::new(addr.clone());
    let result = match command.as_str() {
        "health" => client
            .get_json("/v1/healthz")
            .map(|(s, v)| (s, render_kv(&v))),
        "metrics" if opt("prometheus").is_some() => {
            // Raw passthrough: what a scraper sees, byte for byte.
            client
                .send("GET", "/v1/metrics?format=prometheus", None)
                .map(|(s, text)| (s, text.trim_end().to_string()))
        }
        "metrics" => client
            .get_json("/v1/metrics")
            .map(|(s, v)| (s, render_metrics(&v))),
        "trace" => {
            let mut query = Vec::new();
            for (flag, key) in [("limit", "limit"), ("route", "route"), ("min-ms", "min_ms")] {
                if let Some(v) = opt(flag) {
                    query.push(format!("{key}={v}"));
                }
            }
            let path = if query.is_empty() {
                "/v1/trace".to_string()
            } else {
                format!("/v1/trace?{}", query.join("&"))
            };
            client.get_json(&path).map(|(s, v)| (s, render_trace(&v)))
        }
        "designs" => client
            .get_json("/v1/designs")
            .map(|(s, v)| (s, render_designs(&v))),
        "models" => client
            .get_json("/v1/models")
            .map(|(s, v)| (s, render_models(&v))),
        "model" => {
            let [_, design, model] = positionals.as_slice() else {
                return fail(&format!("model requires DESIGN and MODEL\n{USAGE}"));
            };
            let mut body = vec![
                ("design".to_string(), Json::str(design)),
                ("model".to_string(), Json::str(model)),
            ];
            match (opt("unstructured"), opt("hss")) {
                (Some(_), Some(_)) => return fail("pass either --unstructured or --hss, not both"),
                (Some(s), None) => {
                    let Ok(n) = s.parse::<f64>() else {
                        return fail(&format!("--unstructured must be a number, got {s:?}"));
                    };
                    body.push((
                        "pruning".to_string(),
                        Json::Obj(vec![("unstructured".to_string(), Json::Num(n))]),
                    ));
                }
                (None, Some(spec)) => {
                    let mut ranks = Vec::new();
                    for part in spec.split(',') {
                        let Some((g, h)) = part.split_once(':') else {
                            return fail(&format!("--hss ranks must be G:H, got {part:?}"));
                        };
                        let (Ok(g), Ok(h)) = (g.parse::<f64>(), h.parse::<f64>()) else {
                            return fail(&format!("--hss components must be numbers: {part:?}"));
                        };
                        ranks.push(Json::Arr(vec![Json::Num(g), Json::Num(h)]));
                    }
                    body.push((
                        "pruning".to_string(),
                        Json::Obj(vec![("hss".to_string(), Json::Arr(ranks))]),
                    ));
                }
                (None, None) => {}
            }
            client
                .post_json("/v1/evaluate_model", &Json::Obj(body))
                .map(|(s, v)| (s, render_model(&v)))
        }
        "search" => {
            let [_, design, model] = positionals.as_slice() else {
                return fail(&format!("search requires DESIGN and MODEL\n{USAGE}"));
            };
            let budget = match opt("budget") {
                None => 0.5,
                Some(s) => match s.parse::<f64>() {
                    Ok(n) => n,
                    Err(_) => {
                        return fail(&format!("--budget must be a number, got {s:?}"));
                    }
                },
            };
            let body = Json::Obj(vec![
                ("design".to_string(), Json::str(design)),
                ("model".to_string(), Json::str(model)),
                ("budget".to_string(), Json::Num(budget)),
            ]);
            client
                .post_json("/v1/search", &body)
                .map(|(s, v)| (s, render_search(&v)))
        }
        "evaluate" => {
            let mut body = Vec::new();
            match opt("design") {
                Some(d) => body.push(("design".to_string(), Json::str(d))),
                None => return fail(&format!("evaluate requires --design\n{USAGE}")),
            }
            for (flag, field) in [
                ("m", "m"),
                ("k", "k"),
                ("n", "n"),
                ("a", "a_sparsity"),
                ("b", "b_sparsity"),
            ] {
                if let Some(v) = opt(flag) {
                    let Ok(n) = v.parse::<f64>() else {
                        return fail(&format!("--{flag} must be a number, got {v:?}"));
                    };
                    body.push((field.to_string(), Json::Num(n)));
                }
            }
            client
                .post_json("/v1/evaluate", &Json::Obj(body))
                .map(|(s, v)| (s, render_evaluate(&v)))
        }
        "sweep" => {
            let mut body = Vec::new();
            if let Some(list) = opt("designs") {
                body.push((
                    "designs".to_string(),
                    Json::Arr(list.split(',').map(Json::str).collect()),
                ));
            }
            for (flag, field) in [("a", "a_degrees"), ("b", "b_degrees")] {
                if let Some(list) = opt(flag) {
                    let mut degrees = Vec::new();
                    for part in list.split(',') {
                        let Ok(n) = part.parse::<f64>() else {
                            return fail(&format!(
                                "--{flag} entries must be numbers, got {part:?}"
                            ));
                        };
                        degrees.push(Json::Num(n));
                    }
                    body.push((field.to_string(), Json::Arr(degrees)));
                }
            }
            for flag in ["m", "k", "n", "limit"] {
                if let Some(v) = opt(flag) {
                    let Ok(n) = v.parse::<f64>() else {
                        return fail(&format!("--{flag} must be a number, got {v:?}"));
                    };
                    body.push((flag.to_string(), Json::Num(n)));
                }
            }
            client
                .post_json("/v1/sweep", &Json::Obj(body))
                .map(|(s, v)| (s, render_sweep(&v)))
        }
        other => return fail(&format!("unknown command {other:?}\n{USAGE}")),
    };

    match result {
        Ok((200, text)) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Ok((status, text)) => {
            eprintln!("hl-client: HTTP {status}\n{text}");
            ExitCode::FAILURE
        }
        Err(e) => fail(&format!("request to {addr} failed: {e}")),
    }
}

/// Validates a JSON-lines structured log fed on stdin: every non-empty
/// line must parse as a JSON object carrying `ts`, `level`, and `event`.
fn check_log_stdin() -> ExitCode {
    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        return fail(&format!("cannot read stdin: {e}"));
    }
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(e) => return fail(&format!("line {}: not JSON: {e}\n{line}", i + 1)),
        };
        for field in ["ts", "level", "event"] {
            if doc.get(field).is_none() {
                return fail(&format!("line {}: missing {field:?}\n{line}", i + 1));
            }
        }
        lines += 1;
    }
    if lines == 0 {
        return fail("no structured log lines on stdin");
    }
    println!("checklog: {lines} structured log lines ok");
    ExitCode::SUCCESS
}

/// Validates a Prometheus text exposition fed on stdin (`# TYPE` once
/// per family, samples attributable, histogram buckets cumulative).
fn check_prom_stdin() -> ExitCode {
    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        return fail(&format!("cannot read stdin: {e}"));
    }
    match hl_serve::prom::validate_exposition(&text) {
        Ok(()) => {
            let families = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
            println!("promcheck: {families} metric families ok");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("invalid exposition: {e}")),
    }
}

/// The `/v1/trace` ring as a span waterfall, newest last.
fn render_trace(v: &Json) -> String {
    if let Some(msg) = render_error(v) {
        return msg;
    }
    let empty = Vec::new();
    let traces = v.get("traces").and_then(Json::as_arr).unwrap_or(&empty);
    let mut out = format!(
        "{} traces (ring capacity {}, {} dropped)\n",
        num(v.get("count")) as usize,
        num(v.get("capacity")) as usize,
        num(v.get("dropped")) as usize,
    );
    out.push_str(&format!(
        "{:<18} {:<20} {:>4} {:<14} {:>9} {:>7} {:>7} {:>8} {:>7} {:>7}  {}\n",
        "id",
        "route",
        "st",
        "outcome",
        "total_ms",
        "parse",
        "queue",
        "eval",
        "ser",
        "write",
        "waterfall"
    ));
    for t in traces {
        let spans = t.get("spans");
        let span = |key: &str| spans.map_or(f64::NAN, |s| num(s.get(key)));
        let total = num(t.get("total_ms"));
        out.push_str(&format!(
            "{:<18} {:<20} {:>4} {:<14} {:>9.3} {:>7.3} {:>7.3} {:>8.3} {:>7.3} {:>7.3}  {}\n",
            t.get("id").and_then(Json::as_str).unwrap_or("?"),
            t.get("route").and_then(Json::as_str).unwrap_or("?"),
            num(t.get("status")) as u16,
            t.get("outcome").and_then(Json::as_str).unwrap_or("?"),
            total,
            span("parse_ms"),
            span("queue_ms"),
            span("eval_ms"),
            span("serialize_ms"),
            span("write_ms"),
            waterfall_bar(
                &[
                    ('p', span("parse_ms")),
                    ('q', span("queue_ms")),
                    ('e', span("eval_ms")),
                    ('s', span("serialize_ms")),
                    ('w', span("write_ms")),
                ],
                total,
            ),
        ));
    }
    out.trim_end().to_string()
}

/// A fixed-width bar of span letters, each segment sized by its share
/// of the total (every nonzero span shows at least one cell).
fn waterfall_bar(spans: &[(char, f64)], total_ms: f64) -> String {
    const WIDTH: usize = 24;
    if total_ms.is_nan() || total_ms <= 0.0 {
        return String::new();
    }
    let mut bar = String::new();
    for &(letter, ms) in spans {
        if ms.is_nan() || ms <= 0.0 {
            continue;
        }
        let cells = ((ms / total_ms) * WIDTH as f64).round().max(1.0) as usize;
        for _ in 0..cells.min(WIDTH) {
            bar.push(letter);
        }
    }
    bar.truncate(WIDTH);
    format!("[{bar}]")
}

/// The server's structured `{"error":{"code","message"}}` body, when
/// the response is one.
fn render_error(v: &Json) -> Option<String> {
    let e = v.get("error")?;
    let code = e.get("code").and_then(Json::as_str).unwrap_or("error");
    let msg = e.get("message").and_then(Json::as_str).unwrap_or("?");
    Some(format!("error ({code}): {msg}"))
}

/// Key/value lines for flat objects (health).
fn render_kv(v: &Json) -> String {
    let Json::Obj(members) = v else {
        return v.encode();
    };
    let width = members.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    members
        .iter()
        .map(|(k, val)| format!("{k:>width$}  {}", render_scalar(val)))
        .collect::<Vec<_>>()
        .join("\n")
}

fn render_scalar(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.encode(),
    }
}

fn render_metrics(v: &Json) -> String {
    let Json::Obj(members) = v else {
        return v.encode();
    };
    let mut out = String::new();
    for (section, val) in members {
        match val {
            Json::Obj(_) => {
                out.push_str(&format!("[{section}]\n{}\n\n", render_kv(val)));
            }
            _ => out.push_str(&format!("{section}: {}\n\n", render_scalar(val))),
        }
    }
    out.trim_end().to_string()
}

fn render_designs(v: &Json) -> String {
    let empty = Vec::new();
    let designs = v.get("designs").and_then(Json::as_arr).unwrap_or(&empty);
    let mut out = format!(
        "{:<10} {:>9} {:>9} {:>8}  {}\n",
        "design", "area_mm2", "tax_mm2", "swap", "supported patterns"
    );
    for d in designs {
        out.push_str(&format!(
            "{:<10} {:>9.3} {:>9.3} {:>8}  {}\n",
            d.get("name").and_then(Json::as_str).unwrap_or("?"),
            num(d.get("area_mm2")),
            num(d.get("sparsity_tax_mm2")),
            if d.get("swappable").and_then(Json::as_bool).unwrap_or(false) {
                "yes"
            } else {
                "no"
            },
            d.get("supported_patterns")
                .and_then(Json::as_str)
                .unwrap_or("?"),
        ));
    }
    out.trim_end().to_string()
}

fn render_models(v: &Json) -> String {
    let empty = Vec::new();
    let models = v.get("models").and_then(Json::as_arr).unwrap_or(&empty);
    let mut out = format!(
        "{:<16} {:>9} {:>7} {:>8} {:>10} {:>7}  {}\n",
        "model", "metric", "layers", "GMACs", "prunable%", "act%", "dense layers"
    );
    for m in models {
        out.push_str(&format!(
            "{:<16} {:>9} {:>7} {:>8.2} {:>10.1} {:>7.1}  {}\n",
            m.get("name").and_then(Json::as_str).unwrap_or("?"),
            m.get("metric").and_then(Json::as_str).unwrap_or("?"),
            num(m.get("layer_shapes")) as usize,
            num(m.get("gmacs")),
            num(m.get("prunable_fraction")) * 100.0,
            num(m.get("avg_activation_sparsity")) * 100.0,
            if m.get("has_dense_layers").and_then(Json::as_bool) == Some(true) {
                "yes"
            } else {
                "no"
            },
        ));
    }
    out.trim_end().to_string()
}

/// The `/v1/evaluate_model` per-layer table plus the network totals.
fn render_model(v: &Json) -> String {
    // Error responses carry none of the table fields; show the server's
    // reason instead of a placeholder table.
    if let Some(msg) = render_error(v) {
        return msg;
    }
    let mut out = format!(
        "{} on {} ({}), pruning {} (weights {:.1}% sparse, est. loss {:.2})\n\n",
        v.get("design").and_then(Json::as_str).unwrap_or("?"),
        v.get("model").and_then(Json::as_str).unwrap_or("?"),
        v.get("metric").and_then(Json::as_str).unwrap_or("?"),
        v.get("pruning").and_then(Json::as_str).unwrap_or("?"),
        num(v.get("weight_sparsity")) * 100.0,
        num(v.get("accuracy_loss")),
    );
    let Some(network) = v.get("network") else {
        return out.trim_end().to_string();
    };
    let empty = Vec::new();
    let layers = network
        .get("layers")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    out.push_str(&format!(
        "{:<16} {:>5} {:>22} {:>12} {:>12} {:>12}\n",
        "layer", "count", "m x k x n", "cycles", "energy (J)", "EDP (J*s)"
    ));
    for l in layers {
        let shape = format!(
            "{} x {} x {}",
            l.get("shape").map_or(f64::NAN, |s| num(s.get("m"))),
            l.get("shape").map_or(f64::NAN, |s| num(s.get("k"))),
            l.get("shape").map_or(f64::NAN, |s| num(s.get("n"))),
        );
        let name = l.get("name").and_then(Json::as_str).unwrap_or("?");
        let count = num(l.get("count")) as usize;
        if l.get("supported").and_then(Json::as_bool) == Some(true) {
            let r = l.get("result");
            out.push_str(&format!(
                "{name:<16} {count:>5} {shape:>22} {:>12.4e} {:>12.4e} {:>12.4e}\n",
                r.map_or(f64::NAN, |r| num(r.get("cycles"))),
                r.map_or(f64::NAN, |r| num(r.get("energy_j"))),
                r.map_or(f64::NAN, |r| num(r.get("edp"))),
            ));
        } else {
            out.push_str(&format!(
                "{name:<16} {count:>5} {shape:>22}  unsupported: {}\n",
                l.get("reason").and_then(Json::as_str).unwrap_or("?")
            ));
        }
    }
    match network.get("totals") {
        Some(Json::Null) | None => {
            out.push_str("\ntotals: n/a (some layers are unsupported)\n");
        }
        Some(t) => {
            out.push_str(&format!(
                "\ntotals: {:.4e} cycles, {:.4e} s, {:.4e} J, EDP {:.4e} J*s, \
                 utilization {:.1}%\n",
                num(t.get("cycles")),
                num(t.get("latency_s")),
                num(t.get("energy_j")),
                num(t.get("edp")),
                num(t.get("utilization")) * 100.0,
            ));
        }
    }
    out.trim_end().to_string()
}

/// The `/v1/search` Pareto-front table plus the budget-best line.
fn render_search(v: &Json) -> String {
    if let Some(msg) = render_error(v) {
        return msg;
    }
    let mut out = format!(
        "{} on {} ({}), budget {:.2} points: {} candidates, {} unsupported\n\n",
        v.get("design").and_then(Json::as_str).unwrap_or("?"),
        v.get("model").and_then(Json::as_str).unwrap_or("?"),
        v.get("metric").and_then(Json::as_str).unwrap_or("?"),
        num(v.get("budget")),
        num(v.get("candidates")) as usize,
        num(v.get("unsupported")) as usize,
    );
    let empty = Vec::new();
    let front = v.get("front").and_then(Json::as_arr).unwrap_or(&empty);
    let best_config = v
        .get("best")
        .and_then(|b| b.get("config"))
        .and_then(Json::as_str);
    out.push_str(&format!(
        "{:<26} {:>9} {:>10} {:>10} {:>6}\n",
        "Pareto front", "sparsity", "loss", "EDP", "best"
    ));
    for p in front {
        let config = p.get("config").and_then(Json::as_str).unwrap_or("?");
        out.push_str(&format!(
            "{config:<26} {:>8.1}% {:>10.3} {:>10.3} {:>6}\n",
            num(p.get("weight_sparsity")) * 100.0,
            num(p.get("loss")),
            num(p.get("edp")),
            if Some(config) == best_config {
                "<=="
            } else {
                ""
            },
        ));
    }
    match v.get("best") {
        Some(Json::Null) | None => out.push_str("\nno configuration stays within the budget"),
        Some(b) => out.push_str(&format!(
            "\nbest within budget: {} (loss {:.3}, EDP {:.3}x dense TC)",
            b.get("config").and_then(Json::as_str).unwrap_or("?"),
            num(b.get("loss")),
            num(b.get("edp")),
        )),
    }
    out
}

fn render_evaluate(v: &Json) -> String {
    if let Some(msg) = render_error(v) {
        return msg;
    }
    let mut out = String::new();
    for key in ["design", "workload", "a", "b"] {
        out.push_str(&format!(
            "{key:>10}  {}\n",
            v.get(key).and_then(Json::as_str).unwrap_or("?")
        ));
    }
    if v.get("supported").and_then(Json::as_bool) != Some(true) {
        out.push_str(&format!(
            "{:>10}  {}\n",
            "reason",
            v.get("reason")
                .and_then(Json::as_str)
                .unwrap_or("unsupported")
        ));
        return out.trim_end().to_string();
    }
    let Some(r) = v.get("result") else {
        return out.trim_end().to_string();
    };
    out.push_str(&format!("{:>10}  {:.4e}\n", "cycles", num(r.get("cycles"))));
    out.push_str(&format!(
        "{:>10}  {:.4e} s\n",
        "latency",
        num(r.get("latency_s"))
    ));
    out.push_str(&format!(
        "{:>10}  {:.4e} J\n",
        "energy",
        num(r.get("energy_j"))
    ));
    out.push_str(&format!("{:>10}  {:.4e} J*s\n", "EDP", num(r.get("edp"))));
    if let Some(Json::Obj(parts)) = r.get("energy_pj") {
        out.push_str("energy breakdown (pJ):\n");
        for (comp, pj) in parts {
            out.push_str(&format!(
                "{comp:>12}  {:.4e}\n",
                pj.as_f64().unwrap_or(f64::NAN)
            ));
        }
    }
    out.trim_end().to_string()
}

fn render_sweep(v: &Json) -> String {
    if let Some(msg) = render_error(v) {
        return msg;
    }
    let empty = Vec::new();
    let names: Vec<&str> = v
        .get("designs")
        .and_then(Json::as_arr)
        .unwrap_or(&empty)
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let rows = v.get("rows").and_then(Json::as_arr).unwrap_or(&empty);
    let mut out = format!("EDP (J*s) per design; {} rows\n", rows.len());
    out.push_str(&format!("{:>6} {:>6}", "A%", "B%"));
    for n in &names {
        out.push_str(&format!(" {n:>12}"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{:>6.1} {:>6.1}",
            num(row.get("a_sparsity")) * 100.0,
            num(row.get("b_sparsity")) * 100.0
        ));
        for cell in row.get("results").and_then(Json::as_arr).unwrap_or(&empty) {
            match cell.get("edp").and_then(Json::as_f64) {
                Some(edp) => out.push_str(&format!(" {edp:>12.4e}")),
                None => out.push_str(&format!(" {:>12}", "n/a")),
            }
        }
        out.push('\n');
    }
    if v.get("truncated").and_then(Json::as_bool) == Some(true) {
        out.push_str(&format!(
            "(truncated: {} of {} rows)\n",
            rows.len(),
            num(v.get("rows_total")) as usize
        ));
    }
    out.trim_end().to_string()
}
