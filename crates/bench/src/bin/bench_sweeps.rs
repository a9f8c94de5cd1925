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

use hl_bench::{fig15_points, fig2_data, Fig2Model, ParetoPoint};
use hl_eval::{bench_out_path, DesignId, SearchOutcome, SweepContext};
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

    let mut rows = String::new();
    let mut identical = true;
    for (i, &threads) in thread_counts.iter().enumerate() {
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
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"threads\": {threads}, \"seconds\": {s:.4}, \"speedup_vs_serial\": {speedup:.3}}}"
        ));
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
    let t0 = Instant::now();
    let cold = run_networks(&ctx);
    let network_cold_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let cached = run_networks(&ctx);
    let network_cached_s = t0.elapsed().as_secs_f64();
    let network_identical = cold == cached;
    identical &= network_identical;
    let replay_speedup = network_cold_s / network_cached_s.max(1e-9);
    println!(
        "{:>22}: {network_cold_s:8.3} s cold, {network_cached_s:8.3} s cached \
         ({replay_speedup:5.2}x replay)   identical: {network_identical}",
        "network eval"
    );

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
    let t0 = Instant::now();
    let cold = run_searches(&ctx);
    let search_cold_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let cached = run_searches(&ctx);
    let search_cached_s = t0.elapsed().as_secs_f64();
    let search_identical = cold == cached;
    identical &= search_identical;
    let search_replay = search_cold_s / search_cached_s.max(1e-9);
    println!(
        "{:>22}: {search_cold_s:8.3} s cold, {search_cached_s:8.3} s cached \
         ({search_replay:5.2}x replay)   identical: {search_identical}",
        "codesign search"
    );

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

    let threads_can_help = available > 1;
    let json = format!(
        "{{\n  \"benchmark\": \"fig2+fig15 design-space sweeps\",\n  \
         \"cpus\": {cpus},\n  \"available_parallelism\": {available},\n  \
         \"threads_can_help\": {threads_can_help},\n  \"serial_seconds\": {serial_s:.4},\n  \
         \"engine\": [\n{rows}\n  ],\n  \
         \"network_eval\": {{\"cold_seconds\": {network_cold_s:.4}, \
         \"cached_seconds\": {network_cached_s:.4}, \
         \"replay_speedup\": {replay_speedup:.3}, \
         \"identical\": {network_identical}}},\n  \
         \"codesign_search\": {{\"cold_seconds\": {search_cold_s:.4}, \
         \"cached_seconds\": {search_cached_s:.4}, \
         \"replay_speedup\": {search_replay:.3}, \
         \"identical\": {search_identical}}},\n  \
         \"search_caches\": {{\"eval_hits\": {eval_hits}, \
         \"eval_misses\": {eval_misses}, \
         \"retention_hits\": {ret_hits}, \
         \"retention_misses\": {ret_misses}}},\n  \
         \"outputs_identical\": {identical}\n}}\n"
    );
    let out = bench_out_path("BENCH_sweeps.json");
    std::fs::write(&out, &json).expect("write BENCH_sweeps.json");
    println!("\nwrote {}", out.display());
    assert!(identical, "engine output diverged from the serial baseline");
}
