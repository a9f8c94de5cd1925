//! Golden pins of the `/v1/metrics` surfaces: the JSON view byte for
//! byte, the Prometheus exposition as a set of family blocks, and the
//! 404 body with its route list. Every counter is driven directly with
//! fixed durations, so the only wall-clock reading — uptime — is masked.
//!
//! The goldens live in `tests/golden/`; a change to either view must
//! show up as a diff of those files.

use std::time::Duration;

use hl_eval::SweepContext;
use hl_models::accuracy::PruningConfig;
use hl_serve::api::{build_workload, App};
use hl_serve::http::Request;
use hl_serve::metrics::Route;
use hl_sim::engine::Engine;
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::GemmShape;

fn get(app: &App, path: &str) -> String {
    let req = Request {
        method: "GET".into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    String::from_utf8(app.handle(&req).body).expect("UTF-8 body")
}

/// A fresh app whose every metric family holds a fixed, non-trivial
/// reading.
fn driven_app() -> App {
    let app = App::with_context(SweepContext::with_engine(Engine::serial()));
    let m = app.metrics();
    let us = Duration::from_micros;
    m.record(Route::Healthz, 200, us(3));
    m.record(Route::Designs, 200, us(40));
    m.record(Route::Metrics, 200, us(90));
    m.record(Route::Models, 200, us(35));
    m.record(Route::Evaluate, 200, us(1_500));
    m.record(Route::Evaluate, 400, us(12));
    m.record(Route::EvaluateModel, 200, us(70_000));
    m.record(Route::Sweep, 500, us(250_000));
    m.record(Route::Search, 200, us(2_000_000));
    m.record(Route::Trace, 304, us(7));
    m.record(Route::Other, 404, us(1));
    m.record(Route::Other, 101, us(2));
    m.record_unmeasured(Route::Other, 400);
    m.record_coalesced(Route::Search, 200, us(900_000));
    m.record_deprecated_route();
    m.record_deprecated_route();
    m.record_busy_rejection();
    m.record_worker_panic();
    m.record_worker_respawn();
    m.record_quarantined();
    m.record_deadline_shed();
    m.record_overload_shed();
    m.record_overload_shed();
    for served in [0, 1, 1, 2, 3, 5, 64, 40_000] {
        m.record_connection_opened();
        m.record_connection_closed(served);
    }
    m.record_connection_opened();
    for wait in [5, 20, 700] {
        m.record_enqueued();
        m.record_dequeued(us(wait));
    }
    m.record_enqueued();

    // Eval- and retention-cache misses, then the same queries as hits.
    let ctx = app.context();
    let design = hl_eval::design_by_name("HighLight").expect("registered design");
    let w = build_workload("HighLight", GemmShape::new(64, 64, 64), 0.5, 0.25)
        .expect("registered design");
    for _ in 0..2 {
        ctx.evaluate_best(design.as_ref(), &w).expect("supported");
    }
    let model = hl_models::model_by_name("DeiT-small").expect("registered model");
    let pruning = PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4)));
    for _ in 0..2 {
        ctx.accuracy_loss(&model, &pruning);
    }
    app
}

/// Replaces the number after `"key":` with `0`.
fn mask_json_number(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle).expect("key present") + needle.len();
    let len = text[start..]
        .find([',', '}'])
        .expect("number is followed by a delimiter");
    format!("{}0{}", &text[..start], &text[start + len..])
}

/// The exposition's family blocks (HELP, TYPE and samples), sorted,
/// with the uptime sample masked.
fn family_blocks(text: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        let line = if line.starts_with("hl_uptime_seconds ") {
            "hl_uptime_seconds 0"
        } else {
            line
        };
        if line.starts_with("# HELP ") || blocks.is_empty() {
            blocks.push(String::new());
        }
        let block = blocks.last_mut().expect("pushed above");
        block.push_str(line);
        block.push('\n');
    }
    blocks.sort();
    blocks
}

#[test]
fn metrics_json_view_matches_golden() {
    let app = driven_app();
    let body = get(&app, "/v1/metrics");
    let masked = mask_json_number(&body, "uptime_s");
    assert_eq!(masked, include_str!("golden/metrics.json").trim_end());
}

#[test]
fn prometheus_family_blocks_match_golden() {
    let app = driven_app();
    let blocks = family_blocks(&app.render_prometheus());
    let golden = family_blocks(include_str!("golden/metrics.prom"));
    assert_eq!(blocks.len(), golden.len(), "family count");
    for (got, want) in blocks.iter().zip(&golden) {
        assert_eq!(got, want);
    }
}

#[test]
fn not_found_body_matches_golden() {
    let app = App::with_context(SweepContext::with_engine(Engine::serial()));
    assert_eq!(
        get(&app, "/nope"),
        include_str!("golden/not_found.json").trim_end()
    );
}
