//! Request accounting: every request that reaches dispatch yields
//! exactly one trace record, and `/v1/metrics` counts exactly the
//! records `/v1/trace` lists — per route, per status class, per
//! outcome — with one latency and one queue-wait observation each.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hl_eval::SweepContext;
use hl_serve::api::App;
use hl_serve::client::get_json;
use hl_serve::faults::FaultPlane;
use hl_serve::http::Request;
use hl_serve::json::Json;
use hl_serve::server::{Server, ServerConfig, ServerHandle};
use hl_sim::engine::Engine;

const HEALTHZ: &str = "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n";

/// A one-worker server on an ephemeral port, not yet running.
fn bind(config: ServerConfig) -> Server {
    let app = App::with_context(SweepContext::with_engine(Engine::serial()));
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..config
    };
    Server::bind(config, app).expect("bind ephemeral port")
}

/// The fault plane of a worker that stalls `stall_ms` before every
/// evaluation.
fn stall(stall_ms: u64) -> Option<Arc<FaultPlane>> {
    let spec = format!("seed=11,worker_stall=1.0,stall_ms={stall_ms}");
    Some(Arc::new(FaultPlane::parse(&spec).expect("fault spec")))
}

/// One worker that stalls `stall_ms` before every evaluation.
fn spawn_stalled(stall_ms: u64, config: ServerConfig) -> ServerHandle {
    let config = ServerConfig {
        faults: stall(stall_ms),
        ..config
    };
    bind(config).spawn().expect("spawn server")
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

/// Opens `conns` connections, writes `bytes` on each and half-closes
/// it, and only then reads each one to its end, so every request and
/// its EOF were sent before the server could answer any of them.
fn half_closed(addr: &str, conns: usize, bytes: &str) -> Vec<String> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            stream.write_all(bytes.as_bytes()).expect("write");
            stream.shutdown(Shutdown::Write).expect("half-close");
            stream
        })
        .collect();
    streams
        .into_iter()
        .map(|mut stream| {
            let mut text = String::new();
            let _ = stream.read_to_string(&mut text);
            text
        })
        .collect()
}

/// Writes three pipelined `GET /v1/healthz` tagged `{tag}-0..2` and
/// closes the connection without reading: returns the three ids.
fn three_then_close(addr: &str, tag: &str) -> Vec<String> {
    let ids: Vec<String> = (0..3).map(|i| format!("{tag}-{i}")).collect();
    let pipelined: String = ids
        .iter()
        .map(|id| format!("GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Request-Id: {id}\r\n\r\n"))
        .collect();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(pipelined.as_bytes()).expect("write");
    ids
}

/// Polls the trace ring until every id in `ids` is listed, and returns
/// the ids it still misses at the deadline.
fn wait_traced(addr: &str, ids: &[String]) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let seen = traces(addr);
        let missing: Vec<String> = ids
            .iter()
            .filter(|id| !seen.iter().any(|t| text_of(t, "id") == id.as_str()))
            .cloned()
            .collect();
        if missing.is_empty() || Instant::now() > deadline {
            return missing;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
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
    // Three pipelined requests and a half-close: all three answered.
    let text = half_closed(&addr, 1, &HEALTHZ.repeat(3)).concat();
    assert_eq!(text.matches("HTTP/1.1 200").count(), 3, "{text}");
    // Three more and a full close: nothing to read, but three records.
    let closed = three_then_close(&addr, "reconcile-closed");
    assert_eq!(wait_traced(&addr, &closed), Vec::<String>::new());

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

#[test]
fn a_request_then_a_half_close_is_answered() {
    let server = bind(ServerConfig::default()).spawn().expect("spawn server");
    let addr = server.addr().to_string();
    for text in half_closed(&addr, 20, HEALTHZ) {
        assert_eq!(text.matches("HTTP/1.1 200").count(), 1, "{text:?}");
    }
    server.stop().expect("graceful stop");
}

#[test]
fn pipelined_requests_then_a_half_close_are_all_answered_and_counted() {
    let server = bind(ServerConfig::default()).spawn().expect("spawn server");
    let addr = server.addr().to_string();
    for text in half_closed(&addr, 20, &HEALTHZ.repeat(3)) {
        assert_eq!(text.matches("HTTP/1.1 200").count(), 3, "{text:?}");
    }
    let (_, m) = get_json(&addr, "/v1/metrics").expect("metrics");
    assert_eq!(num(&m, &["requests", "/v1/healthz"]), 60.0);
    server.stop().expect("graceful stop");
}

#[test]
fn pipelined_requests_then_a_full_close_are_all_recorded() {
    let server = bind(ServerConfig::default()).spawn().expect("spawn server");
    let addr = server.addr().to_string();
    let ids: Vec<String> = (0..10)
        .flat_map(|c| three_then_close(&addr, &format!("closed-{c}")))
        .collect();
    assert_eq!(wait_traced(&addr, &ids), Vec::<String>::new());
    // Exactly once each.
    let seen = traces(&addr);
    for id in &ids {
        let n = seen.iter().filter(|t| text_of(t, "id") == id).count();
        assert_eq!(n, 1, "{id}");
    }
    server.stop().expect("graceful stop");
}

#[test]
fn jobs_the_shutdown_drain_gives_up_on_are_still_recorded() {
    // One worker stalls 3 s per job. Of two pipelined evaluations the
    // first is answered inside the 5 s drain; the second finishes after
    // the drain has given up and closed its connection.
    let server = bind(ServerConfig {
        faults: stall(3000),
        ..ServerConfig::default()
    });
    let app = Arc::clone(server.app());
    let server = server.spawn().expect("spawn server");
    let addr = server.addr().to_string();
    let ids = ["drain-0", "drain-1"];
    let mut pipelined = String::new();
    for (i, id) in ids.iter().enumerate() {
        let body = format!(r#"{{"design":"HighLight","a_sparsity":0.{}}}"#, i + 1);
        pipelined.push_str(&evaluate(&body, &format!("X-Request-Id: {id}\r\n")));
    }
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(pipelined.as_bytes()).expect("write");
    // Both are dispatched once one waits in the queue behind the other.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let (_, m) = get_json(&addr, "/v1/metrics").expect("metrics");
        if num(&m, &["queue", "depth"]) >= 1.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    server.stop().expect("graceful stop");

    let recorded: Vec<String> = app.traces().snapshot().into_iter().map(|r| r.id).collect();
    for id in ids {
        let n = recorded.iter().filter(|r| *r == id).count();
        assert_eq!(n, 1, "{id} recorded {n} times: {recorded:?}");
    }
    let metrics = app.handle(&Request {
        method: "GET".into(),
        path: "/v1/metrics".into(),
        query: String::new(),
        headers: Vec::new(),
        body: Vec::new(),
    });
    let m = Json::parse(std::str::from_utf8(&metrics.body).expect("utf-8")).expect("json");
    assert_eq!(num(&m, &["requests", "/v1/evaluate"]), 2.0);
    drop(stream);
}
