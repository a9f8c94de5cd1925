//! Times the Fig. 2 / Fig. 15 design-space sweeps end-to-end — the
//! uncached serial baseline against the parallel engine at 1, 2, and N
//! worker threads — and records the result in `BENCH_sweeps.json`, seeding
//! the repo's performance trajectory.
//!
//! Every engine run uses a **fresh** context (empty memo tables), so the
//! measured speedup is what one cold sweep gains from intra-run
//! memoization plus the worker pool — not warm-cache replay. The harness
//! also cross-checks that every engine run produces results identical to
//! the serial baseline (the engine's determinism guarantee).

use std::time::Instant;

use hl_bench::{bench_out_path, fig15_points, fig2_data, Fig2Model, ParetoPoint};
use hl_eval::{DesignId, SearchOutcome, SweepContext};
use hl_json::Json;
use hl_models::accuracy::PruningConfig;
use hl_models::zoo;
use hl_sim::engine::{default_threads, Engine};
use hl_sim::network::NetworkEval;

/// One full pass over the Fig. 2 and Fig. 15 sweeps.
fn run_sweeps(ctx: &SweepContext) -> (Vec<Fig2Model>, Vec<Vec<ParetoPoint>>) {
    let fig2 = fig2_data(ctx);
    let fig15 = zoo::all_models()
        .iter()
        .map(|m| fig15_points(ctx, m))
        .collect();
    (fig2, fig15)
}

fn num(key: &str, value: f64) -> (String, Json) {
    (key.to_string(), Json::Num(value))
}

/// Times `run` cold and then as a cached replay on the same context,
/// prints the pair under `label`, and returns its JSON record and whether
/// the replay reproduced the cold output.
fn cold_vs_cached<T: PartialEq>(
    label: &str,
    ctx: &SweepContext,
    run: impl Fn(&SweepContext) -> T,
) -> (Json, bool) {
    let t0 = Instant::now();
    let cold = run(ctx);
    let cold_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let cached = run(ctx);
    let cached_s = t0.elapsed().as_secs_f64();
    let identical = cold == cached;
    let speedup = cold_s / cached_s.max(1e-9);
    println!(
        "{label:>22}: {cold_s:8.3} s cold, {cached_s:8.3} s cached \
         ({speedup:5.2}x replay)   identical: {identical}"
    );
    let json = Json::Obj(vec![
        num("cold_seconds", cold_s),
        num("cached_seconds", cached_s),
        num("replay_speedup", speedup),
        ("identical".into(), Json::Bool(identical)),
    ]);
    (json, identical)
}

fn main() {
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let cpus = available;
    println!("bench_sweeps — Fig. 2 + Fig. 15 sweeps, serial vs engine ({cpus} CPU(s))\n");
    if available <= 1 {
        println!(
            "note: available_parallelism = 1 — the engine rows below measure\n\
             memoization only; thread counts cannot help on this machine and\n\
             flat 1/2/4-thread timings are expected, not a regression.\n"
        );
    }

    let t0 = Instant::now();
    let baseline = run_sweeps(&SweepContext::serial_baseline());
    let serial_s = t0.elapsed().as_secs_f64();
    println!("{:>22}: {serial_s:8.3} s", "serial baseline");

    let mut thread_counts = vec![1, 2, 4];
    let default = default_threads();
    if !thread_counts.contains(&default) {
        thread_counts.push(default);
    }

    let mut rows = Vec::new();
    let mut identical = true;
    for &threads in &thread_counts {
        // Fresh context per run: cold caches, explicitly sized pool.
        let ctx = SweepContext::with_engine(Engine::with_threads(threads));
        let t0 = Instant::now();
        let out = run_sweeps(&ctx);
        let s = t0.elapsed().as_secs_f64();
        let same = out == baseline;
        identical &= same;
        let speedup = serial_s / s;
        println!(
            "{:>15} ({threads}T): {s:8.3} s   {speedup:5.2}x vs serial   identical: {same}",
            "engine"
        );
        rows.push(Json::Obj(vec![
            num("threads", threads as f64),
            num("seconds", s),
            num("speedup_vs_serial", speedup),
        ]));
    }

    // Network-level evaluation (`hl_sim::network`): every design × model
    // at a 50%-weight co-designed config, cold (empty eval cache) vs a
    // cached replay on the same context — the speedup `/evaluate_model`
    // clients see when re-querying a model.
    let models = zoo::all_models();
    let run_networks = |ctx: &SweepContext| -> Vec<NetworkEval> {
        let weights = PruningConfig::Unstructured { sparsity: 0.5 };
        models
            .iter()
            .flat_map(|m| {
                DesignId::EVALUATED
                    .iter()
                    .map(|&d| ctx.eval_network(d, m, &weights))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let ctx = SweepContext::with_engine(Engine::with_threads(default_threads()));
    let (network_eval, network_identical) = cold_vs_cached("network eval", &ctx, run_networks);
    identical &= network_identical;

    // Co-design search (`hl_eval::search`): HighLight over every model
    // at a 0.5-point budget, cold (fresh context) vs a cached replay —
    // the speedup `/search` clients see when re-posting a query.
    let run_searches = |ctx: &SweepContext| -> Vec<SearchOutcome> {
        models
            .iter()
            .map(|m| ctx.codesign(DesignId::HighLight, m, 0.5))
            .collect()
    };
    let ctx = SweepContext::with_engine(Engine::with_threads(default_threads()));
    let (codesign_search, search_identical) = cold_vs_cached("codesign search", &ctx, run_searches);
    identical &= search_identical;

    // Cache instrumentation from the search context: the same counters
    // `hl-serve` exports at `/v1/metrics` (eval + retention cache), so a
    // replay-speedup regression here can be attributed to hit rate.
    let (eval_hits, eval_misses) = ctx.engine().eval_cache().stats();
    let (ret_hits, ret_misses) = ctx.retention_stats();
    println!(
        "{:>22}: eval {eval_hits} hits / {eval_misses} misses, \
         retention {ret_hits} hits / {ret_misses} misses",
        "cache counters"
    );

    let json = Json::Obj(vec![
        (
            "benchmark".into(),
            Json::str("fig2+fig15 design-space sweeps"),
        ),
        num("cpus", cpus as f64),
        num("available_parallelism", available as f64),
        ("threads_can_help".into(), Json::Bool(available > 1)),
        num("serial_seconds", serial_s),
        ("engine".into(), Json::Arr(rows)),
        ("network_eval".into(), network_eval),
        ("codesign_search".into(), codesign_search),
        (
            "search_caches".into(),
            Json::Obj(vec![
                num("eval_hits", eval_hits as f64),
                num("eval_misses", eval_misses as f64),
                num("retention_hits", ret_hits as f64),
                num("retention_misses", ret_misses as f64),
            ]),
        ),
        ("outputs_identical".into(), Json::Bool(identical)),
    ]);
    let out = bench_out_path("BENCH_sweeps.json");
    std::fs::write(&out, json.encode() + "\n").expect("write BENCH_sweeps.json");
    println!("\nwrote {}", out.display());
    assert!(identical, "engine output diverged from the serial baseline");
}
