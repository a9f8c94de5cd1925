//! End-to-end tests: a real server on an ephemeral port, exercised over
//! real sockets.
//!
//! The headline assertion is the serving-layer contract: `/v1/evaluate`
//! responses are **byte-identical** to the offline
//! [`hl_sim::evaluate_best`] results rendered through the same JSON view,
//! for every registered design — the HTTP layer adds transport, never
//! drift. The same contract extends sideways: the legacy unversioned
//! paths answer byte-identically to their `/v1/` counterparts. The rest
//! covers the 4xx mapping, keep-alive + pipelining, in-flight request
//! coalescing, the cache snapshot, the shared-cache hit rate rising in
//! `/v1/metrics`, sweep truncation, concurrency, and graceful shutdown.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use hl_eval::{registered_names, DesignId, SweepContext};
use hl_serve::api::{
    build_workload, eval_result_json, network_eval_json, pruning_from, search_outcome_json, App,
};
use hl_serve::client::{get_json, post_json, request, Client};
use hl_serve::json::Json;
use hl_serve::log::SharedBuffer;
use hl_serve::server::{Server, ServerConfig, ServerHandle};
use hl_sim::engine::Engine;
use hl_tensor::GemmShape;

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    }
}

fn spawn_server() -> ServerHandle {
    let app = App::with_context(SweepContext::with_engine(Engine::with_threads(2)));
    Server::bind(config(), app)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

/// Sends raw bytes and returns the raw response text (for malformed or
/// pipelined requests the structured client cannot express).
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).expect("write");
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

fn err_message(v: &Json) -> &str {
    v.get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("structured error body")
}

#[test]
fn healthz_designs_and_metrics_respond() {
    let server = spawn_server();
    let addr = server.addr().to_string();

    let (status, health) = get_json(&addr, "/v1/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("threads").and_then(Json::as_f64), Some(2.0));

    let (status, designs) = get_json(&addr, "/v1/designs").unwrap();
    assert_eq!(status, 200);
    let list = designs.get("designs").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = list
        .iter()
        .filter_map(|d| d.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, registered_names());
    for d in list {
        assert!(d.get("area_mm2").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(d.get("supported_patterns").and_then(Json::as_str).is_some());
    }

    let (status, metrics) = get_json(&addr, "/v1/metrics").unwrap();
    assert_eq!(status, 200);
    for key in [
        "uptime_s",
        "requests",
        "responses",
        "connections",
        "eval_cache",
        "latency_ms",
    ] {
        assert!(metrics.get(key).is_some(), "missing {key}");
    }

    server.stop().unwrap();
}

#[test]
fn evaluate_is_byte_identical_to_offline_for_every_design() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let shape = GemmShape::new(1024, 1024, 1024);
    for name in registered_names() {
        for (sa, sb) in [(0.0, 0.0), (0.5, 0.25), (0.75, 0.5)] {
            let body = Json::Obj(vec![
                ("design".into(), Json::str(name)),
                ("a_sparsity".into(), Json::Num(sa)),
                ("b_sparsity".into(), Json::Num(sb)),
            ]);
            let (status, v) = post_json(&addr, "/v1/evaluate", &body).unwrap();
            assert_eq!(status, 200, "{name} at ({sa},{sb})");

            let design = hl_eval::design_by_name(name).unwrap();
            let workload = build_workload(name, shape, sa, sb).unwrap();
            match hl_sim::evaluate_best(design.as_ref(), &workload) {
                Ok(offline) => {
                    assert_eq!(
                        v.get("supported").and_then(Json::as_bool),
                        Some(true),
                        "{name} at ({sa},{sb})"
                    );
                    assert_eq!(
                        v.get("result").unwrap().encode(),
                        eval_result_json(&offline).encode(),
                        "{name} at ({sa},{sb}): served result must be \
                         byte-identical to the offline evaluation"
                    );
                }
                Err(unsupported) => {
                    assert_eq!(v.get("supported").and_then(Json::as_bool), Some(false));
                    assert_eq!(
                        v.get("reason").and_then(Json::as_str),
                        Some(unsupported.to_string().as_str())
                    );
                }
            }
        }
    }
    server.stop().unwrap();
}

#[test]
fn legacy_paths_answer_byte_identically_to_v1() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let eval = r#"{"design":"HighLight","a_sparsity":0.5,"b_sparsity":0.25}"#;
    let bad = r#"{"design":"HighLight","a_sparsity":7}"#;

    // Deterministic endpoints only: /healthz and /metrics answer with
    // time-varying fields and cannot be compared bytewise.
    for (method, legacy, v1, body) in [
        ("GET", "/designs", "/v1/designs", None),
        ("GET", "/models", "/v1/models", None),
        ("POST", "/evaluate", "/v1/evaluate", Some(eval)),
        ("POST", "/evaluate", "/v1/evaluate", Some(bad)),
    ] {
        let (s_new, t_new) = request(&addr, method, v1, body).unwrap();
        let (s_old, t_old) = request(&addr, method, legacy, body).unwrap();
        assert_eq!(s_old, s_new, "{method} {legacy}");
        assert_eq!(
            t_old, t_new,
            "{method} {legacy} must be byte-identical to {v1}"
        );
    }
    assert_eq!(server.app().metrics().deprecated_routes(), 4);

    let (_, m) = get_json(&addr, "/v1/metrics").unwrap();
    assert_eq!(
        m.get("requests")
            .and_then(|r| r.get("deprecated"))
            .and_then(Json::as_f64),
        Some(4.0)
    );
    server.stop().unwrap();
}

#[test]
fn keep_alive_reuses_one_connection() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let mut client = Client::new(&addr);
    let body = Json::parse(r#"{"design":"TC"}"#).unwrap();
    let reference = client.post_json("/v1/evaluate", &body).unwrap().1.encode();
    for _ in 0..4 {
        let (status, v) = client.post_json("/v1/evaluate", &body).unwrap();
        assert_eq!(status, 200);
        assert_eq!(v.encode(), reference);
    }
    let (status, m) = client.get_json("/v1/metrics").unwrap();
    assert_eq!(status, 200);
    let conns = m.get("connections").unwrap();
    assert_eq!(
        conns.get("accepted").and_then(Json::as_f64),
        Some(1.0),
        "all six requests must share one connection"
    );
    assert_eq!(conns.get("active").and_then(Json::as_f64), Some(1.0));
    // The metrics request renders its snapshot before recording itself:
    // it reports the five requests that preceded it.
    assert_eq!(
        m.get("requests")
            .and_then(|r| r.get("total"))
            .and_then(Json::as_f64),
        Some(5.0)
    );
    server.stop().unwrap();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    // A worker-pool POST followed by an inline GET: the GET's response is
    // computed first but must wait for the evaluate's slot.
    let eval = r#"{"design":"HighLight","a_sparsity":0.5,"b_sparsity":0.5}"#;
    let pipelined = format!(
        "POST /v1/evaluate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{eval}\
         GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        eval.len(),
    );
    let text = raw_exchange(&addr, pipelined.as_bytes());
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
    let first = text.find("\"workload\"").expect("evaluate response");
    let second = text.find("\"status\":\"ok\"").expect("healthz response");
    assert!(
        first < second,
        "pipelined responses must arrive in request order"
    );
    server.stop().unwrap();
}

#[test]
fn identical_inflight_posts_coalesce_into_one_evaluation() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let cache_misses = || server.app().context().engine().eval_cache().misses();

    // Four identical evaluates in one write: all four are parsed and
    // dispatched in one event-loop pass, so the last three join the
    // first's in-flight evaluation deterministically.
    let body = r#"{"design":"HighLight","a_sparsity":0.6875,"b_sparsity":0.4375}"#;
    let one = format!(
        "POST /v1/evaluate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let pipelined = format!(
        "{one}{one}{one}POST /v1/evaluate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let text = raw_exchange(&addr, pipelined.as_bytes());
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 4, "{text}");
    let batch_misses = cache_misses();

    assert_eq!(
        server.app().metrics().coalesced(),
        3,
        "three of the four in-flight twins must coalesce"
    );

    // The whole batch cost at most what a single fresh evaluation costs
    // (measured on a different degree pair so the cache is cold for it).
    let probe =
        Json::parse(r#"{"design":"HighLight","a_sparsity":0.1875,"b_sparsity":0.75}"#).unwrap();
    let (status, _) = post_json(&addr, "/v1/evaluate", &probe).unwrap();
    assert_eq!(status, 200);
    let single_misses = cache_misses() - batch_misses;
    assert!(
        batch_misses <= single_misses,
        "coalesced batch ({batch_misses} misses) must cost no more than \
         one evaluation ({single_misses} misses)"
    );

    // All four responses carry the same payload.
    let payload = text
        .split("\r\n\r\n")
        .filter(|part| part.contains("\"workload\""))
        .map(|part| part.split("HTTP/1.1").next().unwrap().trim().to_string())
        .collect::<Vec<_>>();
    assert_eq!(payload.len(), 4, "{text}");
    assert!(payload.iter().all(|p| p == &payload[0]));

    server.stop().unwrap();
}

#[test]
fn snapshot_round_trips_the_cache_across_a_restart() {
    let path = std::env::temp_dir().join(format!("hl-serve-e2e-snap-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let body =
        Json::parse(r#"{"design":"HighLight","a_sparsity":0.5,"b_sparsity":0.125}"#).unwrap();

    // Cold boot: evaluate once (misses), drain — the snapshot is saved.
    // No file yet, so the boot logs no snapshot event at all.
    let (server, log) = spawn_logged(&path);
    let addr = server.addr().to_string();
    let (status, first) = post_json(&addr, "/v1/evaluate", &body).unwrap();
    assert_eq!(status, 200);
    let entries = server.app().context().engine().eval_cache().entries().len();
    assert!(server.app().context().engine().eval_cache().misses() > 0);
    server.stop().unwrap();
    assert!(path.exists(), "drain must write the snapshot");
    assert!(log_events(&log, "snapshot_loaded").is_empty());
    assert!(log_events(&log, "snapshot_load_failed").is_empty());

    // Warm boot: the same request replays entirely from the preloaded
    // cache (zero misses) and stays byte-identical.
    let (server, log) = spawn_logged(&path);
    let addr = server.addr().to_string();
    let (status, again) = post_json(&addr, "/v1/evaluate", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(again.encode(), first.encode());
    let cache = server.app().context().engine().eval_cache();
    assert_eq!(cache.misses(), 0, "warm boot must answer from the snapshot");
    assert!(cache.hits() > 0);
    server.stop().unwrap();

    // The warm boot says so: entry count, file size, load time, trace id.
    let loaded = log_events(&log, "snapshot_loaded");
    assert_eq!(loaded.len(), 1, "{loaded:?}");
    let field = |key: &str| loaded[0].get(key).and_then(Json::as_f64);
    assert_eq!(field("entries"), Some(entries as f64));
    let bytes = std::fs::metadata(&path).unwrap().len();
    assert_eq!(field("bytes"), Some(bytes as f64));
    assert!(field("load_ms").is_some_and(|ms| ms >= 0.0));
    assert!(loaded[0].get("trace_id").and_then(Json::as_str).is_some());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_boots_are_transparent() {
    let path = std::env::temp_dir().join(format!("hl-serve-e2e-warm-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let requests = [
        (
            "/v1/search",
            r#"{"design":"HighLight","model":"DeiT-small","budget":0.5}"#,
        ),
        (
            "/v1/search",
            r#"{"design":"DSTC","model":"DeiT-small","budget":1.0}"#,
        ),
        (
            "/v1/evaluate_model",
            r#"{"design":"HighLight","model":"DeiT-small","pruning":{"hss":[[4,8],[2,4]]}}"#,
        ),
        (
            "/v1/evaluate_model",
            r#"{"design":"DSTC","model":"DeiT-small","pruning":{"unstructured":0.75}}"#,
        ),
    ];
    let replies = |server: &ServerHandle| -> Vec<String> {
        let addr = server.addr().to_string();
        requests
            .iter()
            .map(|(route, body)| {
                let (status, reply) = request(&addr, "POST", route, Some(body)).unwrap();
                assert_eq!(status, 200, "{route} {body}: {reply}");
                reply
            })
            .collect()
    };

    // Server A answers cold and drains, writing both caches.
    let (a, _) = spawn_logged(&path);
    let first = replies(&a);
    let scores = a.app().context().retention().len();
    assert!(scores > 0 && a.app().context().retention().stats().1 > 0);
    a.stop().unwrap();

    // Server B boots from A's snapshot (it loads before it accepts a
    // connection) and answers every request byte-identically without a
    // single surrogate miss, so it still holds exactly A's scores.
    let (b, log) = spawn_logged(&path);
    assert_eq!(replies(&b), first);
    let retention = b.app().context().retention();
    assert_eq!(
        retention.stats().1,
        0,
        "warm boot must score from the snapshot"
    );
    assert_eq!(retention.len(), scores);
    assert!(retention.stats().0 > 0);
    let (_, metrics) = get_json(&b.addr().to_string(), "/v1/metrics").unwrap();
    let gauge = metrics
        .get("retention_cache")
        .and_then(|c| c.get("entries"));
    assert_eq!(gauge.and_then(Json::as_f64), Some(scores as f64));
    b.stop().unwrap();
    let loaded = log_events(&log, "snapshot_loaded");
    assert_eq!(loaded.len(), 1, "{}", log.contents());
    assert_eq!(
        loaded[0].get("scores").and_then(Json::as_f64),
        Some(scores as f64)
    );

    // A cold server without a snapshot answers the same bytes.
    let cold = spawn_server();
    assert_eq!(replies(&cold), first);
    cold.stop().unwrap();

    let _ = std::fs::remove_file(&path);
}

/// A server on an ephemeral port with a snapshot path, its structured log
/// captured in memory.
fn spawn_logged(snapshot: &std::path::Path) -> (ServerHandle, SharedBuffer) {
    let app = App::with_context(SweepContext::with_engine(Engine::with_threads(2)));
    let log = SharedBuffer::new();
    app.logger().set_sink(log.make_sink());
    let server = Server::bind(
        ServerConfig {
            snapshot: Some(snapshot.to_path_buf()),
            ..config()
        },
        app,
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    (server, log)
}

/// Every logged event named `event`.
fn log_events(log: &SharedBuffer, event: &str) -> Vec<Json> {
    log.contents()
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|e| e.get("event").and_then(Json::as_str) == Some(event))
        .collect()
}

#[test]
fn a_v2_snapshot_is_refused_and_the_server_boots_cold() {
    let path = std::env::temp_dir().join(format!("hl-serve-e2e-v2-{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{"format":2,"fingerprint":"hl-snap-v2:0123456789abcdef","crc32":"00000000","entries":[]}"#,
    )
    .unwrap();

    let (server, log) = spawn_logged(&path);
    let addr = server.addr().to_string();
    let body =
        Json::parse(r#"{"design":"HighLight","a_sparsity":0.5,"b_sparsity":0.125}"#).unwrap();
    let (status, _) = post_json(&addr, "/v1/evaluate", &body).unwrap();
    assert_eq!(status, 200);
    let cache = server.app().context().engine().eval_cache();
    assert!(cache.misses() > 0, "a refused snapshot boots cold");
    server.stop().unwrap();

    let failed = log_events(&log, "snapshot_load_failed");
    assert_eq!(failed.len(), 1, "{}", log.contents());
    let error = failed[0].get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("unsupported format 2"), "{error}");
    assert!(log_events(&log, "snapshot_loaded").is_empty());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_failed_drain_save_is_logged_as_an_error() {
    // A directory that does not exist: the boot finds no snapshot (and
    // stays silent), and the save on drain cannot create one.
    let path = std::env::temp_dir()
        .join(format!("hl-serve-e2e-missing-{}", std::process::id()))
        .join("snap.json");
    let (server, log) = spawn_logged(&path);
    server.stop().expect("a failed save still drains cleanly");

    let failed = log_events(&log, "snapshot_save_failed");
    assert_eq!(failed.len(), 1, "{}", log.contents());
    assert_eq!(failed[0].get("level").and_then(Json::as_str), Some("error"));
    assert_eq!(failed[0].get("periodic"), Some(&Json::Bool(false)));
    assert!(log_events(&log, "snapshot_load_failed").is_empty());
}

#[test]
fn evaluate_model_is_byte_identical_to_offline_network_eval() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let pruning = Json::parse(r#"{"hss":[[2,4]]}"#).unwrap();
    for design_name in registered_names() {
        for model_name in hl_models::model_names() {
            let body = Json::Obj(vec![
                ("design".into(), Json::str(design_name)),
                ("model".into(), Json::str(model_name)),
                ("pruning".into(), pruning.clone()),
            ]);
            let (status, v) = post_json(&addr, "/v1/evaluate_model", &body).unwrap();
            assert_eq!(status, 200, "{design_name} on {model_name}");

            // Offline: the same lowering + serial network evaluation.
            let id: DesignId = design_name.parse().unwrap();
            let design = id.build();
            let model = hl_models::model_by_name(model_name).unwrap();
            let config = pruning_from(Some(&pruning)).unwrap();
            let network = SweepContext::lower_model(id, &model, &config);
            let offline = hl_sim::network::evaluate_network(design.as_ref(), &network);
            assert_eq!(
                v.get("network").unwrap().encode(),
                network_eval_json(&offline).encode(),
                "{design_name} on {model_name}: served network eval must be \
                 byte-identical to the offline evaluation"
            );
            assert_eq!(
                v.get("supported").and_then(Json::as_bool),
                Some(offline.supported())
            );
        }
    }
    server.stop().unwrap();
}

#[test]
fn search_is_byte_identical_to_offline_codesign_and_rejects_degenerates() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let body = Json::Obj(vec![
        ("design".into(), Json::str("HighLight")),
        ("model".into(), Json::str("DeiT-small")),
        ("budget".into(), Json::Num(0.5)),
    ]);
    let retention_misses = || {
        let (_, m) = get_json(&addr, "/v1/metrics").unwrap();
        let misses = m.get("retention_cache").and_then(|c| c.get("misses"));
        misses.and_then(Json::as_f64).unwrap()
    };
    let misses_before = retention_misses();
    let (status, v) = post_json(&addr, "/v1/search", &body).unwrap();
    assert_eq!(status, 200);
    let cold_misses = retention_misses() - misses_before;
    assert!(cold_misses > 0.0, "a cold search scores its candidates");

    // Byte-identity: the served search must equal the offline co-design
    // search (serial, uncached-pool) through the same canonical view —
    // the same contract /v1/evaluate and /v1/evaluate_model honour.
    let design = DesignId::HighLight;
    let model = hl_models::model_by_name("DeiT-small").unwrap();
    let offline = SweepContext::with_engine(Engine::serial()).codesign(design, &model, 0.5);
    assert_eq!(v.encode(), search_outcome_json(&offline).encode());

    // The served front is non-dominated.
    let front = v.get("front").and_then(Json::as_arr).unwrap();
    assert!(!front.is_empty());
    let pt = |p: &Json| {
        (
            p.get("loss").and_then(Json::as_f64).unwrap(),
            p.get("edp").and_then(Json::as_f64).unwrap(),
        )
    };
    for a in front {
        for b in front {
            assert!(
                !hl_sim::pareto::dominates(pt(b), pt(a)),
                "served front must be non-dominated"
            );
        }
    }

    // A replay hits the shared caches: the second query is answered from
    // the memo and stays byte-identical.
    let (_, v2) = post_json(&addr, "/v1/search", &body).unwrap();
    assert_eq!(v2.encode(), v.encode());

    // The search-front table answered it: the first query's trace counts
    // no search hit, the replay's one hit and no eval-cache miss.
    let (status, t) = get_json(&addr, "/v1/trace?route=/v1/search").unwrap();
    assert_eq!(status, 200);
    let cache: Vec<(f64, f64)> = t
        .get("traces")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| {
            let c = r.get("cache").unwrap();
            let n = |k| c.get(k).and_then(Json::as_f64).unwrap();
            (n("search_hits"), n("eval_misses"))
        })
        .collect();
    assert_eq!(cache.len(), 2);
    assert_eq!(cache[0].0, 0.0);
    assert!(cache[0].1 > 0.0, "the first query is cold");
    assert_eq!(cache[1], (1.0, 0.0));
    // The surrogate answered the cold query alone: its trace counts the
    // retention misses /v1/metrics gained across it, the replay none.
    let retention: Vec<(f64, f64)> = t
        .get("traces")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| {
            let c = r.get("cache").unwrap();
            let n = |k| c.get(k).and_then(Json::as_f64).unwrap();
            (n("retention_hits"), n("retention_misses"))
        })
        .collect();
    assert_eq!(retention[0].1, cold_misses);
    assert_eq!(retention[1], (0.0, 0.0));

    // Degenerate queries are 4xx, not worker panics.
    for bad in [
        Json::Obj(vec![
            ("design".into(), Json::str("HighLight")),
            ("model".into(), Json::str("DeiT-small")),
            ("budget".into(), Json::Num(-0.5)),
        ]),
        Json::Obj(vec![
            ("design".into(), Json::str("TPU")),
            ("model".into(), Json::str("DeiT-small")),
            ("budget".into(), Json::Num(0.5)),
        ]),
    ] {
        let (status, v) = post_json(&addr, "/v1/search", &bad).unwrap();
        assert_eq!(status, 400);
        assert!(v.get("error").is_some());
    }
    // …and a zero-density pruning config over HTTP answers per-layer
    // Unsupported instead of killing the worker.
    let degenerate = Json::Obj(vec![
        ("design".into(), Json::str("DSTC")),
        ("model".into(), Json::str("Transformer-Big")),
        (
            "pruning".into(),
            Json::parse(r#"{"unstructured":1.0}"#).unwrap(),
        ),
    ]);
    let (status, v) = post_json(&addr, "/v1/evaluate_model", &degenerate).unwrap();
    assert_eq!(status, 200);
    assert_eq!(v.get("supported").and_then(Json::as_bool), Some(false));
    let (status, _) = get_json(&addr, "/v1/healthz").unwrap();
    assert_eq!(status, 200, "server must survive degenerate configs");

    server.stop().unwrap();
}

#[test]
fn models_listing_and_model_eval_share_the_cache() {
    let server = spawn_server();
    let addr = server.addr().to_string();

    let (status, v) = get_json(&addr, "/v1/models").unwrap();
    assert_eq!(status, 200);
    let names: Vec<&str> = v
        .get("models")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, hl_models::model_names());

    // Repeated model evaluations replay per-layer cells from the memo.
    let body = Json::parse(
        r#"{"design":"HighLight","model":"Transformer-Big","pruning":{"unstructured":0.5}}"#,
    )
    .unwrap();
    let (status, first) = post_json(&addr, "/v1/evaluate_model", &body).unwrap();
    assert_eq!(status, 200);
    let misses = |addr: &str| -> f64 {
        let (_, m) = get_json(addr, "/v1/metrics").unwrap();
        m.get("eval_cache")
            .and_then(|c| c.get("misses"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    let misses0 = misses(&addr);
    let (_, again) = post_json(&addr, "/v1/evaluate_model", &body).unwrap();
    assert_eq!(again.encode(), first.encode(), "replay is identical");
    assert_eq!(misses(&addr), misses0, "no new evaluations on replay");

    server.stop().unwrap();
}

#[test]
fn repeated_evaluates_raise_the_cache_hit_rate() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let body = Json::Obj(vec![
        ("design".into(), Json::str("HighLight")),
        ("a_sparsity".into(), Json::Num(0.5)),
        ("b_sparsity".into(), Json::Num(0.5)),
    ]);

    let cache_stats = |addr: &str| -> (f64, f64, f64) {
        let (_, m) = get_json(addr, "/v1/metrics").unwrap();
        let c = m.get("eval_cache").unwrap();
        (
            c.get("hits").and_then(Json::as_f64).unwrap(),
            c.get("misses").and_then(Json::as_f64).unwrap(),
            c.get("hit_rate").and_then(Json::as_f64).unwrap(),
        )
    };

    let (_, first) = post_json(&addr, "/v1/evaluate", &body).unwrap();
    let (hits0, misses0, rate0) = cache_stats(&addr);
    for _ in 0..5 {
        let (status, again) = post_json(&addr, "/v1/evaluate", &body).unwrap();
        assert_eq!(status, 200);
        assert_eq!(again.encode(), first.encode(), "replays are identical");
    }
    let (hits1, misses1, rate1) = cache_stats(&addr);
    assert_eq!(
        misses1, misses0,
        "no new evaluations for identical requests"
    );
    assert!(hits1 >= hits0 + 5.0, "hits {hits0} -> {hits1}");
    assert!(rate1 > rate0, "hit rate must rise: {rate0} -> {rate1}");

    server.stop().unwrap();
}

#[test]
fn sweep_end_to_end_with_limit() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let body = Json::parse(
        r#"{"designs":["TC","STC","HighLight"],"a_degrees":[0,0.5,0.75],
            "b_degrees":[0,0.5],"m":256,"k":256,"n":256,"limit":4}"#,
    )
    .unwrap();
    let (status, v) = post_json(&addr, "/v1/sweep", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(v.get("rows_total").and_then(Json::as_f64), Some(6.0));
    assert_eq!(v.get("rows_returned").and_then(Json::as_f64), Some(4.0));
    assert_eq!(v.get("truncated").and_then(Json::as_bool), Some(true));
    let rows = v.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 4);
    // Spot-check one cell against the offline evaluation.
    let cell = rows[1].get("results").and_then(Json::as_arr).unwrap()[2].clone();
    let offline = hl_sim::evaluate_best(
        hl_eval::design_by_name("HighLight").unwrap().as_ref(),
        &build_workload("HighLight", GemmShape::new(256, 256, 256), 0.0, 0.5).unwrap(),
    )
    .unwrap();
    assert_eq!(cell.encode(), eval_result_json(&offline).encode());
    server.stop().unwrap();
}

#[test]
fn malformed_requests_map_to_4xx() {
    let server = spawn_server();
    let addr = server.addr().to_string();

    // Raw protocol-level failures.
    for (raw, expect) in [
        (&b"GARBAGE\r\n\r\n"[..], "HTTP/1.1 400 "),
        (b"GET /v1/healthz HTTP/2\r\n\r\n", "HTTP/1.1 505 "),
        (
            b"POST /v1/evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "HTTP/1.1 411 ",
        ),
        (
            b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
            "HTTP/1.1 413 ",
        ),
    ] {
        let resp = raw_exchange(&addr, raw);
        assert!(resp.starts_with(expect), "{raw:?} => {resp}");
        assert!(resp.contains("\"error\""), "{resp}");
    }

    // Routed failures through the structured client.
    let (status, v) = get_json(&addr, "/no-such-route").unwrap();
    assert_eq!(status, 404);
    assert!(err_message(&v).contains("/v1/evaluate"));

    let (status, _) = get_json(&addr, "/v1/evaluate").unwrap();
    assert_eq!(status, 405);

    let (status, v) = post_json(&addr, "/v1/evaluate", &Json::Obj(vec![])).unwrap();
    assert_eq!(status, 400);
    assert!(v.get("error").is_some());

    let bad_design = Json::Obj(vec![("design".into(), Json::str("TPU"))]);
    let (status, v) = post_json(&addr, "/v1/evaluate", &bad_design).unwrap();
    assert_eq!(status, 400);
    assert!(err_message(&v).contains("unknown design"));

    let (_, text) = request(&addr, "POST", "/v1/evaluate", Some("{not json")).unwrap();
    assert!(text.contains("invalid JSON"));

    // 4xx responses were counted in metrics.
    let (_, m) = get_json(&addr, "/v1/metrics").unwrap();
    let s4 = m
        .get("responses")
        .and_then(|r| r.get("4xx"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(s4 >= 7.0, "4xx count {s4}");

    server.stop().unwrap();
}

#[test]
fn concurrent_clients_get_identical_answers() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let body = Json::Obj(vec![
        ("design".into(), Json::str("DSTC")),
        ("a_sparsity".into(), Json::Num(0.75)),
        ("b_sparsity".into(), Json::Num(0.5)),
    ]);
    let reference = post_json(&addr, "/v1/evaluate", &body).unwrap().1.encode();
    std::thread::scope(|scope| {
        // Eight keep-alive clients reuse one connection each; four churn
        // clients open and close a fresh connection per request, so
        // accepts and closes interleave with the kept-alive traffic.
        for churn in [[false; 8].as_slice(), &[true; 4]].concat() {
            let (addr, body, reference) = (&addr, &body, &reference);
            scope.spawn(move || {
                let mut client = Client::new(addr.clone());
                for _ in 0..5 {
                    let (status, v) = if churn {
                        post_json(addr, "/v1/evaluate", body).unwrap()
                    } else {
                        client.post_json("/v1/evaluate", body).unwrap()
                    };
                    assert_eq!(status, 200);
                    assert_eq!(&v.encode(), reference);
                }
            });
        }
    });
    server.stop().unwrap();
}

#[test]
fn graceful_shutdown_stops_accepting() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let (status, _) = get_json(&addr, "/v1/healthz").unwrap();
    assert_eq!(status, 200);
    server.stop().expect("drain cleanly");
    // The listener is gone: connecting (or at least exchanging) fails.
    let after = TcpStream::connect(&addr);
    assert!(
        after.is_err() || get_json(&addr, "/v1/healthz").is_err(),
        "server must stop serving after shutdown"
    );
}

#[test]
fn traces_echo_request_ids_and_spans_account_for_latency() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let design = registered_names()[0];
    let body = Json::Obj(vec![
        ("design".into(), Json::str(design)),
        ("a_sparsity".into(), Json::Num(0.5)),
        ("b_sparsity".into(), Json::Num(0.5)),
    ]);

    // A well-formed client-supplied X-Request-Id is honored and echoed.
    let encoded = body.encode();
    let raw = raw_exchange(
        &addr,
        format!(
            "POST /v1/evaluate HTTP/1.1\r\nHost: x\r\nX-Request-Id: e2e-trace.0001\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{encoded}",
            encoded.len()
        )
        .as_bytes(),
    );
    assert!(raw.starts_with("HTTP/1.1 200"), "raw response: {raw}");
    assert!(
        raw.contains("X-Request-Id: e2e-trace.0001"),
        "custom id must be echoed: {raw}"
    );

    // Without one, the server mints an id and still echoes it.
    let mut client = Client::new(addr.clone());
    let (status, _) = client.post_json("/v1/evaluate", &body).unwrap();
    assert_eq!(status, 200);
    let generated = client.request_id().expect("generated id").to_string();
    assert_eq!(generated.len(), 16, "generated ids are 16 hex chars");

    // Both requests appear in /v1/trace with a span breakdown that
    // accounts for the recorded latency (contiguous spans, so the sum
    // lands well inside the 10% budget — equality by construction).
    let (status, v) = client.get_json("/v1/trace").unwrap();
    assert_eq!(status, 200);
    let traces = v.get("traces").and_then(Json::as_arr).unwrap();
    for want in ["e2e-trace.0001", generated.as_str()] {
        let rec = traces
            .iter()
            .find(|t| t.get("id").and_then(Json::as_str) == Some(want))
            .unwrap_or_else(|| panic!("trace {want} missing from ring"));
        assert_eq!(
            rec.get("route").and_then(Json::as_str),
            Some("/v1/evaluate")
        );
        assert_eq!(rec.get("status").and_then(Json::as_f64), Some(200.0));
        assert_eq!(rec.get("outcome").and_then(Json::as_str), Some("complete"));
        let total = rec.get("total_ms").and_then(Json::as_f64).unwrap();
        let spans = rec.get("spans").unwrap();
        let sum: f64 = [
            "parse_ms",
            "queue_ms",
            "eval_ms",
            "serialize_ms",
            "write_ms",
        ]
        .iter()
        .map(|k| spans.get(k).and_then(Json::as_f64).unwrap())
        .sum();
        assert!(
            (sum - total).abs() <= total * 0.10 + 1e-9,
            "{want}: spans sum to {sum} ms but total is {total} ms"
        );
    }

    // The route filter narrows results; the strict query grammar 400s
    // on typos instead of silently returning everything.
    let (status, v) = client
        .get_json("/v1/trace?route=/v1/evaluate&limit=1")
        .unwrap();
    assert_eq!(status, 200);
    let narrowed = v.get("traces").and_then(Json::as_arr).unwrap();
    assert_eq!(narrowed.len(), 1);
    assert_eq!(
        narrowed[0].get("route").and_then(Json::as_str),
        Some("/v1/evaluate")
    );
    let (status, _) = client.get_json("/v1/trace?bogus=1").unwrap();
    assert_eq!(status, 400);
    server.stop().unwrap();
}

#[test]
fn every_json_metric_series_has_a_prometheus_family() {
    let server = spawn_server();
    let addr = server.addr().to_string();
    let design = registered_names()[0];
    let body = Json::Obj(vec![
        ("design".into(), Json::str(design)),
        ("a_sparsity".into(), Json::Num(0.5)),
        ("b_sparsity".into(), Json::Num(0.5)),
    ]);
    let (status, _) = post_json(&addr, "/v1/evaluate", &body).unwrap();
    assert_eq!(status, 200);

    let mut client = Client::new(addr.clone());
    let (status, json) = client.get_json("/v1/metrics").unwrap();
    assert_eq!(status, 200);
    let (status, prom) = client
        .send("GET", "/v1/metrics?format=prometheus", None)
        .unwrap();
    assert_eq!(status, 200);
    hl_serve::prom::validate_exposition(&prom).expect("valid exposition");

    // Spot-check the families over the wire (the exhaustive JSON-series
    // to family mapping is asserted in the api unit tests); the two
    // views must agree on shared counters.
    for family in [
        "hl_requests_total",
        "hl_responses_total",
        "hl_request_latency_seconds",
        "hl_queue_depth",
        "hl_queue_wait_seconds",
        "hl_eval_cache_hits_total",
        "hl_retention_cache_hits_total",
        "hl_connections_accepted_total",
        "hl_shed_total",
        "hl_worker_panics_total",
    ] {
        assert!(
            prom.contains(&format!("# TYPE {family} ")),
            "{family} missing from exposition"
        );
    }
    let json_hits = json
        .get("eval_cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_f64)
        .unwrap();
    let prom_hits: f64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("hl_eval_cache_hits_total "))
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert_eq!(json_hits, prom_hits, "JSON and Prometheus views diverge");
    server.stop().unwrap();
}
