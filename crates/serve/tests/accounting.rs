//! Request accounting: every request that reaches dispatch yields
//! exactly one trace record, and `/v1/metrics` counts exactly the
//! records `/v1/trace` lists — per route, per status class, per
//! outcome — with one latency and one queue-wait observation each.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hl_eval::SweepContext;
use hl_serve::api::App;
use hl_serve::client::get_json;
use hl_serve::faults::FaultPlane;
use hl_serve::json::Json;
use hl_serve::server::{Server, ServerConfig, ServerHandle};
use hl_sim::engine::Engine;

/// One worker that stalls `stall_ms` before every evaluation.
fn spawn_stalled(stall_ms: u64, config: ServerConfig) -> ServerHandle {
    let spec = format!("seed=11,worker_stall=1.0,stall_ms={stall_ms}");
    let plane = Arc::new(FaultPlane::parse(&spec).expect("fault spec"));
    let app = App::with_context(SweepContext::with_engine(Engine::serial()));
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        faults: Some(plane),
        ..config
    };
    Server::bind(config, app)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

/// A raw `POST /v1/evaluate` with `extra` header lines.
fn evaluate(body: &str, extra: &str) -> String {
    format!(
        "POST /v1/evaluate HTTP/1.1\r\nHost: x\r\n{extra}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Writes `bytes` on a fresh connection and reads until the server
/// closes it.
fn exchange(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(bytes).expect("write");
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    text
}

fn traces(addr: &str) -> Vec<Json> {
    let (status, v) = get_json(addr, "/v1/trace?limit=256").expect("trace");
    assert_eq!(status, 200);
    v.get("traces")
        .and_then(Json::as_arr)
        .expect("traces array")
        .to_vec()
}

fn text_of<'a>(rec: &'a Json, key: &str) -> &'a str {
    rec.get(key).and_then(Json::as_str).expect("string field")
}

fn num(v: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing {}", path.join(".")))
}

#[test]
fn requests_whose_client_hung_up_are_still_traced() {
    // One worker stalls 300 ms per job, so the three pipelined
    // evaluations finish at ~0.3, ~0.6 and ~0.9 s — long after the
    // client has dropped the socket.
    let server = spawn_stalled(300, ServerConfig::default());
    let addr = server.addr().to_string();
    let ids = ["hangup-0", "hangup-1", "hangup-2"];
    let mut pipelined = String::new();
    for (i, id) in ids.iter().enumerate() {
        let body = format!(r#"{{"design":"HighLight","a_sparsity":0.{}}}"#, i + 1);
        pipelined.push_str(&evaluate(&body, &format!("X-Request-Id: {id}\r\n")));
    }
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(pipelined.as_bytes()).expect("write");
    // Hang up once all three are dispatched (the worker holds the
    // first, two wait in the queue), before any is answered.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let (_, m) = get_json(&addr, "/v1/metrics").expect("metrics");
        if num(&m, &["queue", "depth"]) >= 2.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stream);

    let deadline = Instant::now() + Duration::from_secs(10);
    let missing = loop {
        let seen = traces(&addr);
        let missing: Vec<&str> = ids
            .iter()
            .copied()
            .filter(|id| !seen.iter().any(|t| text_of(t, "id") == *id))
            .collect();
        if missing.is_empty() || Instant::now() > deadline {
            break missing;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(missing.is_empty(), "no trace record for {missing:?}");
    // Each of them is counted once, like every other request.
    let (_, m) = get_json(&addr, "/v1/metrics").expect("metrics");
    assert_eq!(num(&m, &["requests", "/v1/evaluate"]), 3.0);
    server.stop().expect("graceful stop");
}

/// `(label, count)` pairs counted over the trace records by `key`.
fn tally(records: &[Json], key: impl Fn(&Json) -> String) -> Vec<(String, f64)> {
    let mut counts: Vec<(String, f64)> = Vec::new();
    for rec in records {
        let label = key(rec);
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1.0,
            None => counts.push((label, 1.0)),
        }
    }
    counts
}

fn count_of(counts: &[(String, f64)], label: &str) -> f64 {
    counts
        .iter()
        .find(|(l, _)| l == label)
        .map_or(0.0, |(_, n)| *n)
}

#[test]
fn metrics_reconcile_with_the_trace_ring() {
    // One worker stalled 100 ms per evaluation, a queue bound of 4 (the
    // expensive routes shed at 1) and a 200 ms partial-request timeout.
    let server = spawn_stalled(
        100,
        ServerConfig {
            max_queue: 4,
            request_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();

    // Inline GETs.
    for path in ["/v1/healthz", "/v1/designs", "/v1/nope"] {
        get_json(&addr, path).expect("inline GET");
    }
    // One pipelined write, parsed in one pass: an evaluation and its
    // identical twin (which joins it), a second evaluation that waits
    // in the queue, a search shed for overload behind it, and a
    // zero-deadline evaluation shed when the worker reaches it.
    let twin = r#"{"design":"HighLight","a_sparsity":0.5}"#;
    let mut pipelined = evaluate(twin, "") + &evaluate(twin, "");
    pipelined += &evaluate(r#"{"design":"HighLight","a_sparsity":0.25}"#, "");
    pipelined += "POST /v1/search HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}";
    pipelined += &evaluate(
        r#"{"design":"HighLight","deadline_ms":0}"#,
        "Connection: close\r\n",
    );
    let text = exchange(&addr, pipelined.as_bytes());
    assert_eq!(text.matches("HTTP/1.1 200").count(), 3, "{text}");
    assert_eq!(text.matches("HTTP/1.1 503").count(), 2, "{text}");
    // A malformed request, and a partial one that stalls into a 408.
    let text = exchange(&addr, b"GARBAGE\r\n\r\n");
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    let text = exchange(&addr, evaluate("{}", "").trim_end_matches("{}").as_bytes());
    assert!(text.starts_with("HTTP/1.1 408 "), "{text}");

    let records = traces(&addr);
    let (_, m) = get_json(&addr, "/v1/metrics").expect("metrics");
    // The metrics were read after the trace request was recorded: one
    // more /v1/trace 200 than the ring listed when it answered.
    let total = records.len() as f64 + 1.0;
    assert_eq!(num(&m, &["requests", "total"]), total);

    let routes = tally(&records, |r| text_of(r, "route").to_string());
    for route in [
        "/v1/healthz",
        "/v1/designs",
        "/v1/evaluate",
        "/v1/search",
        "other",
    ] {
        assert_eq!(
            num(&m, &["requests", route]),
            count_of(&routes, route),
            "route {route}"
        );
    }
    assert_eq!(
        num(&m, &["requests", "/v1/trace"]),
        count_of(&routes, "/v1/trace") + 1.0
    );
    let classes = tally(&records, |r| {
        format!("{}xx", num(r, &["status"]) as u64 / 100)
    });
    assert_eq!(
        num(&m, &["responses", "2xx"]),
        count_of(&classes, "2xx") + 1.0
    );
    for class in ["3xx", "4xx", "5xx"] {
        assert_eq!(
            num(&m, &["responses", class]),
            count_of(&classes, class),
            "class {class}"
        );
    }
    let outcomes = tally(&records, |r| text_of(r, "outcome").to_string());
    for (outcome, path) in [
        ("coalesce_join", ["requests", "coalesced"]),
        ("shed_deadline", ["shed", "deadline"]),
        ("shed_overload", ["shed", "overload"]),
        ("quarantine", ["workers", "quarantined"]),
    ] {
        assert_eq!(num(&m, &path), count_of(&outcomes, outcome), "{outcome}");
    }
    // The mix produced each outcome it was scripted for.
    assert_eq!(num(&m, &["requests", "coalesced"]), 1.0);
    assert_eq!(num(&m, &["shed", "deadline"]), 1.0);
    assert_eq!(num(&m, &["shed", "overload"]), 1.0);
    assert_eq!(count_of(&outcomes, "parse_error"), 1.0);
    assert_eq!(count_of(&outcomes, "timeout"), 1.0);

    // One latency and one queue-wait observation per request.
    assert_eq!(num(&m, &["latency_ms", "count"]), total);
    assert_eq!(num(&m, &["queue", "wait_ms", "count"]), total);

    // The Prometheus view agrees: the latency histogram counts every
    // request the per-route counter does.
    let (status, prom) =
        hl_serve::client::request(&addr, "GET", "/v1/metrics?format=prometheus", None)
            .expect("prometheus");
    assert_eq!(status, 200);
    let sample = |line: &str| -> f64 {
        let (_, value) = line.rsplit_once(' ').expect("sample line");
        value.parse().expect("sample value")
    };
    let requests: f64 = prom
        .lines()
        .filter(|l| l.starts_with("hl_requests_total{"))
        .map(sample)
        .sum();
    let latency_count = prom
        .lines()
        .find(|l| l.starts_with("hl_request_latency_seconds_count "))
        .map(sample)
        .expect("latency count");
    assert_eq!(latency_count, requests);
    assert_eq!(requests, total + 1.0, "plus the JSON metrics request");
    server.stop().expect("graceful stop");
}
