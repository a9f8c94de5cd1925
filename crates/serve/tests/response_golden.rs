//! Byte goldens of the response bodies, pinned across commits.
//!
//! The other identity tests compare the served body with the same
//! commit's offline encoding, so an encoder change that drifts both
//! sides alike passes them. The files in `tests/golden/` were written by
//! an earlier server, before responses were encoded without a `Json`
//! tree; a real server on an ephemeral port must reproduce each one byte
//! for byte.

#![cfg(target_os = "linux")]

use hl_eval::SweepContext;
use hl_serve::api::App;
use hl_serve::client::request;
use hl_serve::server::{Server, ServerConfig};
use hl_sim::engine::Engine;

/// `(golden file, method, path, body, status)`.
const CASES: [(&str, &str, &str, &str, u16); 8] = [
    (
        "search",
        "POST",
        "/v1/search",
        r#"{"design":"HighLight","model":"DeiT-small","budget":0.5}"#,
        200,
    ),
    (
        "evaluate_model",
        "POST",
        "/v1/evaluate_model",
        r#"{"design":"HighLight","model":"DeiT-small","pruning":{"hss":[[4,8],[2,4]]}}"#,
        200,
    ),
    (
        "evaluate_model_unsupported",
        "POST",
        "/v1/evaluate_model",
        r#"{"design":"S2TA","model":"DeiT-small","pruning":{"hss":[[4,8]]}}"#,
        200,
    ),
    (
        "evaluate",
        "POST",
        "/v1/evaluate",
        r#"{"design":"HighLight","a_sparsity":0.5,"b_sparsity":0.25}"#,
        200,
    ),
    (
        "sweep",
        "POST",
        "/v1/sweep",
        r#"{"designs":["TC","HighLight"],"a_degrees":[0,0.5],"b_degrees":[0.25],"m":64,"k":64,"n":64}"#,
        200,
    ),
    ("designs", "GET", "/v1/designs", "", 200),
    ("models", "GET", "/v1/models", "", 200),
    (
        "bad_request",
        "POST",
        "/v1/evaluate",
        r#"{"design":"TC","a_sparsity":1.5}"#,
        400,
    ),
];

fn golden(name: &str) -> &'static str {
    match name {
        "search" => include_str!("golden/search.json"),
        "evaluate_model" => include_str!("golden/evaluate_model.json"),
        "evaluate_model_unsupported" => include_str!("golden/evaluate_model_unsupported.json"),
        "evaluate" => include_str!("golden/evaluate.json"),
        "sweep" => include_str!("golden/sweep.json"),
        "designs" => include_str!("golden/designs.json"),
        "models" => include_str!("golden/models.json"),
        "bad_request" => include_str!("golden/bad_request.json"),
        other => panic!("no golden named {other}"),
    }
}

#[test]
fn the_server_reproduces_every_golden_body_byte_for_byte() {
    let app = App::with_context(SweepContext::with_engine(Engine::with_threads(2)));
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, app).unwrap().spawn().unwrap();
    let addr = server.addr().to_string();
    // Twice: the first pass answers cold, the second from the caches.
    for pass in ["cold", "warm"] {
        for (name, method, path, body, status) in CASES {
            let body = (!body.is_empty()).then_some(body);
            let (got_status, got) = request(&addr, method, path, body).unwrap();
            assert_eq!(got_status, status, "{pass} {name}");
            assert_eq!(got, golden(name).trim_end(), "{pass} {name}");
        }
    }
    server.stop().unwrap();
}
