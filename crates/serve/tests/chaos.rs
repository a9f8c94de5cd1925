//! Chaos tests: the server under a seeded fault-injection storm.
//!
//! The headline property is **one request, one outcome**: with faults
//! armed on every injection point, every request a client manages to
//! send resolves — to a 200, a structured 500/503, or a transport
//! error — and never hangs. The server survives the storm (health
//! checks still answer, the connection slab drains back to zero) and
//! its metrics reconcile with the fault plane's own injection counts.
//!
//! Deterministic sub-tests then pin each degradation path at
//! probability 1: injected worker panics become structured 500s and
//! respawns, a body that repeatedly kills workers is quarantined,
//! zero-deadline work is shed with `Retry-After`, overload sheds the
//! expensive routes first, and a corrupted snapshot forces a clean cold
//! boot instead of serving corrupted results.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hl_eval::SweepContext;
use hl_serve::api::App;
use hl_serve::client::{get_json, post_json, Client};
use hl_serve::faults::{FaultPlane, FaultPoint};
use hl_serve::json::Json;
use hl_serve::server::{Server, ServerConfig, ServerHandle};
use hl_sim::engine::Engine;

fn spawn_with(config: ServerConfig) -> ServerHandle {
    let app = App::with_context(SweepContext::with_engine(Engine::with_threads(2)));
    Server::bind(config, app)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    }
}

fn eval_body(i: usize) -> Json {
    Json::Obj(vec![
        ("design".into(), Json::str("HighLight")),
        ("a_sparsity".into(), Json::Num((i % 13) as f64 / 16.0)),
        ("b_sparsity".into(), Json::Num((i % 7) as f64 / 8.0)),
    ])
}

fn metric(metrics: &Json, section: &str, field: &str) -> f64 {
    metrics
        .get(section)
        .and_then(|s| s.get(field))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metrics missing {section}.{field}"))
}

/// `get_json` with bounded retries: the fault plane bites assertion
/// connections too, so a probabilistic storm can reset any single
/// request this test makes to verify the server's state.
fn get_json_retry(addr: &str, path: &str) -> (u16, Json) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match get_json(addr, path) {
            Ok(r) => return r,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "request to {path} kept failing: {e}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Polls `/v1/metrics` until `section.field` satisfies `pred` (the
/// event loop settles asynchronously) or a deadline expires.
fn wait_for_metric(addr: &str, section: &str, field: &str, pred: impl Fn(f64) -> bool) -> f64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, metrics) = get_json_retry(addr, "/v1/metrics");
        assert_eq!(status, 200);
        let v = metric(&metrics, section, field);
        if pred(v) || Instant::now() > deadline {
            return v;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn fault_storm_every_request_gets_exactly_one_outcome() {
    // Pinned by default; CI also runs a randomized-seed pass via
    // HL_CHAOS_SEED and archives the seed when the property breaks.
    let seed: u64 = std::env::var("HL_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let plane = Arc::new(
        FaultPlane::parse(&format!(
            "seed={seed},conn_read_err=0.04,conn_read_short=0.2,conn_write_err=0.04,\
             conn_write_short=0.2,eintr=0.1,worker_panic=0.03,worker_stall=0.05,\
             stall_ms=1,spurious_wake=0.05"
        ))
        .expect("storm spec"),
    );
    let server = spawn_with(ServerConfig {
        faults: Some(plane.clone()),
        ..base_config()
    });
    let addr = server.addr().to_string();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 40;
    let mut ok = 0u64;
    let mut degraded = 0u64;
    let mut transport = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let (mut ok, mut degraded, mut transport) = (0u64, 0u64, 0u64);
                    for i in 0..PER_CLIENT {
                        // Each iteration resolves (the client carries a
                        // 10 s I/O timeout): a response or an error,
                        // never a hang.
                        match client.post_json("/v1/evaluate", &eval_body(c * PER_CLIENT + i)) {
                            Ok((200, _)) => ok += 1,
                            Ok((status, body)) => {
                                assert!(
                                    matches!(status, 500 | 503),
                                    "unexpected degraded status {status}: {}",
                                    body.encode()
                                );
                                assert!(
                                    body.get("error").is_some(),
                                    "degraded responses are structured"
                                );
                                degraded += 1;
                            }
                            Err(_) => transport += 1,
                        }
                    }
                    (ok, degraded, transport)
                })
            })
            .collect();
        for h in handles {
            let (o, d, t) = h.join().expect("storm client must not hang or panic");
            ok += o;
            degraded += d;
            transport += t;
        }
    });
    assert_eq!(
        ok + degraded + transport,
        (CLIENTS * PER_CLIENT) as u64,
        "every request resolves to exactly one outcome"
    );
    assert!(
        ok > 0,
        "a moderate storm must not take the server fully down"
    );
    assert!(
        plane.injected_total() > 0,
        "the storm must actually have injected faults"
    );

    // The server survives: health answers, the slab drains, and the
    // panic metric reconciles with the plane's own injection counter.
    let (status, health) = get_json_retry(&addr, "/v1/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    let active = wait_for_metric(&addr, "connections", "active", |v| v <= 1.0);
    assert!(
        active <= 1.0,
        "slab must drain after the storm, active={active}"
    );

    let injected_panics = plane.injected(FaultPoint::WorkerPanic) as f64;
    let counted = wait_for_metric(&addr, "workers", "panics", |v| v >= injected_panics);
    assert_eq!(
        counted, injected_panics,
        "metrics must account for every injected worker panic"
    );
    server.stop().expect("graceful stop after storm");
}

#[test]
fn injected_worker_panics_become_structured_500s_and_respawns() {
    let plane = Arc::new(FaultPlane::parse("seed=3,worker_panic=1.0").expect("spec"));
    let server = spawn_with(ServerConfig {
        faults: Some(plane),
        ..base_config()
    });
    let addr = server.addr().to_string();

    let (status, body) = post_json(&addr, "/v1/evaluate", &eval_body(0)).expect("response");
    assert_eq!(status, 500, "a dead worker still answers its coalition");
    let message = body
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("structured error body");
    assert!(message.contains("worker"), "got {message:?}");

    assert!(wait_for_metric(&addr, "workers", "panics", |v| v >= 1.0) >= 1.0);
    assert!(
        wait_for_metric(&addr, "workers", "respawns", |v| v >= 1.0) >= 1.0,
        "the supervisor must replace the dead worker"
    );
    // The replacement worker is alive: inline GETs never touched the
    // pool, but the next distinct POST reaches a worker again.
    let (status, _) = post_json(&addr, "/v1/evaluate", &eval_body(1)).expect("response");
    assert_eq!(status, 500, "respawned worker picks up new jobs");
    server.stop().expect("graceful stop");
}

#[test]
fn a_body_that_repeatedly_kills_workers_is_quarantined() {
    let plane = Arc::new(FaultPlane::parse("seed=5,worker_panic=1.0").expect("spec"));
    let server = spawn_with(ServerConfig {
        faults: Some(plane),
        ..base_config()
    });
    let addr = server.addr().to_string();
    let body = eval_body(42);

    let mut messages = Vec::new();
    for _ in 0..3 {
        let (status, resp) = post_json(&addr, "/v1/evaluate", &body).expect("response");
        assert_eq!(status, 500);
        messages.push(
            resp.get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .expect("structured error")
                .to_string(),
        );
        // Let the completion drain so the panic is recorded before the
        // next attempt re-dispatches.
        wait_for_metric(&addr, "connections", "active", |v| v <= 1.0);
    }
    assert!(
        messages[2].contains("quarantined"),
        "third attempt must be quarantined, got {:?}",
        messages[2]
    );
    assert!(
        wait_for_metric(&addr, "workers", "quarantined", |v| v >= 1.0) >= 1.0,
        "quarantine must be counted"
    );
    server.stop().expect("graceful stop");
}

#[test]
fn zero_deadline_requests_are_shed_with_retry_after() {
    let server = spawn_with(base_config());
    let addr = server.addr().to_string();

    let payload = r#"{"design":"HighLight","a_sparsity":0.5,"b_sparsity":0.25,"deadline_ms":0}"#;
    let raw = format!(
        "POST /v1/evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("write");
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);

    assert!(text.starts_with("HTTP/1.1 503"), "got {text:?}");
    assert!(
        text.contains("Retry-After:"),
        "shed responses carry Retry-After, got {text:?}"
    );
    assert!(text.contains("deadline"), "got {text:?}");
    assert!(
        wait_for_metric(&addr, "shed", "deadline", |v| v >= 1.0) >= 1.0,
        "deadline sheds must be counted"
    );

    // Without a deadline the identical evaluation still succeeds.
    let (status, _) = post_json(&addr, "/v1/evaluate", &eval_body(3)).expect("response");
    assert_eq!(status, 200);
    server.stop().expect("graceful stop");
}

#[test]
fn overload_sheds_expensive_routes_before_cheap_ones() {
    // One worker, stalled 200 ms per job, queue bound 4 (so the
    // expensive bound is 1): three pipelined evaluations back the queue
    // up, then a search request must be shed while the cheap
    // evaluations are all still admitted and answered.
    let plane = Arc::new(FaultPlane::parse("seed=9,worker_stall=1.0,stall_ms=200").expect("spec"));
    let server = spawn_with(ServerConfig {
        workers: 1,
        max_queue: 4,
        faults: Some(plane),
        ..base_config()
    });
    let addr = server.addr().to_string();

    let mut pipelined = String::new();
    for i in 0..3 {
        let body = eval_body(i).encode();
        pipelined.push_str(&format!(
            "POST /v1/evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    // Shed happens at dispatch, before validation — `{}` never reaches
    // a worker, so an invalid body still demonstrates the shed path.
    pipelined.push_str(
        "POST /v1/search HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
    );

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(pipelined.as_bytes()).expect("write");
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);

    assert_eq!(
        text.matches("HTTP/1.1 200").count(),
        3,
        "cheap evaluations stay admitted, got {text:?}"
    );
    assert_eq!(
        text.matches("HTTP/1.1 503").count(),
        1,
        "the expensive route is shed, got {text:?}"
    );
    assert!(text.contains("Retry-After:"), "got {text:?}");
    assert!(text.contains("expensive"), "got {text:?}");
    assert!(
        wait_for_metric(&addr, "shed", "overload", |v| v >= 1.0) >= 1.0,
        "overload sheds must be counted"
    );
    server.stop().expect("graceful stop");
}

#[test]
fn a_corrupted_snapshot_forces_a_cold_boot() {
    let path =
        std::env::temp_dir().join(format!("hl-serve-chaos-snap-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let body = eval_body(11);

    let spawn_snap = |faults: Option<Arc<FaultPlane>>| {
        spawn_with(ServerConfig {
            snapshot: Some(path.clone()),
            faults,
            ..base_config()
        })
    };

    // Populate and persist a snapshot.
    let server = spawn_snap(None);
    let addr = server.addr().to_string();
    let (status, _) = post_json(&addr, "/v1/evaluate", &body).expect("response");
    assert_eq!(status, 200);
    server.stop().expect("drain saves the snapshot");
    assert!(path.exists());

    // A bit flip on load: the checksum rejects it and the server boots
    // cold instead of serving corrupted results.
    let plane = Arc::new(FaultPlane::parse("seed=11,snapshot=bitflip").expect("spec"));
    let server = spawn_snap(Some(plane));
    let addr = server.addr().to_string();
    let cache = server.app().context().engine().eval_cache();
    assert_eq!(cache.hits() + cache.misses(), 0, "cold boot starts empty");
    let (status, _) = post_json(&addr, "/v1/evaluate", &body).expect("response");
    assert_eq!(status, 200);
    assert!(cache.misses() > 0, "cold boot re-evaluates from scratch");
    server.stop().expect("graceful stop");

    // The corruption was injected in memory only: a clean boot still
    // warm-loads the file.
    let server = spawn_snap(None);
    let addr = server.addr().to_string();
    let (status, _) = post_json(&addr, "/v1/evaluate", &body).expect("response");
    assert_eq!(status, 200);
    let cache = server.app().context().engine().eval_cache();
    assert_eq!(cache.misses(), 0, "intact file warm-loads");
    server.stop().expect("graceful stop");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_injected_fault_leaves_a_structured_log_event() {
    let plane = Arc::new(
        FaultPlane::parse(
            "seed=13,conn_read_err=0.05,conn_read_short=0.2,conn_write_err=0.05,\
             conn_write_short=0.2,eintr=0.1,worker_panic=0.05,worker_stall=0.08,\
             stall_ms=1,spurious_wake=0.1",
        )
        .expect("storm spec"),
    );
    let app = App::with_context(SweepContext::with_engine(Engine::with_threads(2)));
    let buffer = hl_serve::log::SharedBuffer::new();
    app.logger().set_sink(buffer.make_sink());
    let server = Server::bind(
        ServerConfig {
            faults: Some(plane.clone()),
            ..base_config()
        },
        app,
    )
    .expect("bind ephemeral port")
    .spawn()
    .expect("spawn server");
    let addr = server.addr().to_string();

    std::thread::scope(|scope| {
        for c in 0..3usize {
            let addr = addr.as_str();
            scope.spawn(move || {
                let mut client = Client::new(addr);
                for i in 0..40 {
                    let _ = client.post_json("/v1/evaluate", &eval_body(c * 40 + i));
                }
            });
        }
    });
    // Stop first: after the drain no more faults fire, so the plane's
    // injection counters and the log buffer are both final.
    server.stop().expect("graceful stop after storm");

    // The sink sees only the logger (panic-hook noise goes to the real
    // stderr), so every line must parse as one structured event.
    let contents = buffer.contents();
    let events: Vec<Json> = contents
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("unstructured log line {l:?}: {e:?}")))
        .collect();
    for event in &events {
        for key in ["ts", "level", "event"] {
            assert!(
                event.get(key).is_some(),
                "log event missing {key}: {}",
                event.encode()
            );
        }
    }

    assert!(plane.injected_total() > 0, "the storm must inject faults");
    for point in FaultPoint::ALL {
        if plane.injected(point) == 0 {
            continue;
        }
        let hit = events
            .iter()
            .find(|e| {
                e.get("event").and_then(Json::as_str) == Some("fault_injected")
                    && e.get("point").and_then(Json::as_str) == Some(point.key())
            })
            .unwrap_or_else(|| {
                panic!(
                    "{} injections of {} left no fault_injected log event",
                    plane.injected(point),
                    point.key()
                )
            });
        let trace_id = hit.get("trace_id").and_then(Json::as_str).unwrap_or("");
        assert!(
            !trace_id.is_empty(),
            "fault_injected for {} lacks a trace id",
            point.key()
        );
    }
}
