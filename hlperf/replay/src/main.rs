//! `hlperf-replay` — the benchmark's traced co-design and snapshot replay.
//!
//! ```text
//! hlperf-replay --queries <codesign.tsv> --snapshot <path>
//! ```
//!
//! Replays `codesign-cold`'s query list in process, with a timer around
//! each public call a `/v1/search` makes: `codesign_space`,
//! `accuracy_loss_cached` (with a `RetentionCache`), `DnnModel::lower`,
//! `Engine::evaluate_network`, `pareto_front_flags`, and the building
//! and encoding of the response; the rest of each query's time is left
//! unattributed. Each replayed body must equal the server's reply byte for
//! byte (the `.tsv` lines are `design \t model \t budget \t body`). The
//! list runs on a fresh 1-thread and a fresh 2-thread engine, as a cold
//! server would. Then `snapshot::load` and `cache_fingerprint` are timed
//! on the given snapshot.
//!
//! Prints one JSON line: `{"<metric>": [value, "<unit>"], ...}`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use hl_bench::{codesign_space, design_by_name, DesignMapping, SearchOutcome, SearchPoint};
use hl_models::accuracy::{accuracy_loss_cached, synthetic_weights, PruningConfig, RetentionCache};
use hl_models::model_by_name;
use hl_serve::api::search_outcome_json;
use hl_serve::snapshot;
use hl_sim::engine::{Engine, EvalCache};
use hl_sim::pareto::pareto_front_flags;
use hl_sparsity::prune::prune_hss;

struct Query {
    design: String,
    model: String,
    budget: f64,
    body: String,
}

/// Busy seconds per stage of one query.
#[derive(Default, Clone, Copy)]
struct Stages {
    space: f64,
    accuracy: f64,
    lower: f64,
    network: f64,
    pareto: f64,
    encode: f64,
}

impl Stages {
    fn total(&self) -> f64 {
        self.space + self.accuracy + self.lower + self.network + self.pareto + self.encode
    }

    fn add(&mut self, o: &Stages) {
        self.space += o.space;
        self.accuracy += o.accuracy;
        self.lower += o.lower;
        self.network += o.network;
        self.pareto += o.pareto;
        self.encode += o.encode;
    }
}

struct Replayed {
    stages: Stages,
    wall_s: f64,
    candidates: usize,
    unsupported: usize,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One `/v1/search`, stage by stage, mirroring `SweepContext::try_codesign`.
fn replay_query(
    engine: &Engine,
    retention: &RetentionCache,
    q: &Query,
) -> Result<Replayed, String> {
    let start = Instant::now();
    let mut st = Stages::default();

    let t = Instant::now();
    let design = design_by_name(&q.design).map_err(|e| e.to_string())?;
    let model = model_by_name(&q.model).map_err(|e| e.to_string())?;
    let candidates = codesign_space(design.name()).map_err(|e| e.to_string())?;
    let mapping = DesignMapping::new(design.name()).map_err(|e| e.to_string())?;
    let tc = design_by_name("TC").map_err(|e| e.to_string())?;
    let tc_mapping = DesignMapping::new("TC").map_err(|e| e.to_string())?;
    st.space += secs(t);

    let t = Instant::now();
    let tc_network = model.lower(&PruningConfig::Dense, &tc_mapping);
    st.lower += secs(t);
    let t = Instant::now();
    let tc_edp = engine
        .evaluate_network(tc.as_ref(), &tc_network)
        .edp()
        .ok_or("TC must run dense")?;
    let fingerprint = Engine::fingerprint(design.as_ref());
    st.network += secs(t);

    let evals = engine.map(&candidates, |cfg| {
        let t0 = Instant::now();
        let loss = accuracy_loss_cached(&model, cfg, retention);
        let t1 = Instant::now();
        let network = model.lower(cfg, &mapping);
        let t2 = Instant::now();
        let eval = engine.evaluate_network_keyed(design.as_ref(), &fingerprint, &network);
        let point = match (eval.edp(), eval.energy_j(), eval.latency_s()) {
            (Some(edp), Some(energy_j), Some(latency_s)) => Some((loss, edp, energy_j, latency_s)),
            _ => None,
        };
        // Freeing the lowered network and its evaluation is network work.
        drop((network, eval));
        let t3 = Instant::now();
        let times = [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64());
        (point, times)
    });

    // Building the points is part of building the outcome (`encode`).
    // Picking the best is left unattributed, as is any time between the
    // timers, so `trace.attributed_ratio` measures what the stages cover.
    let t = Instant::now();
    let mut points = Vec::new();
    for (cfg, (point, times)) in candidates.iter().zip(&evals) {
        st.accuracy += times[0];
        st.lower += times[1];
        st.network += times[2];
        if let Some((loss, edp, energy_j, latency_s)) = *point {
            points.push(SearchPoint {
                config: cfg.clone(),
                label: cfg.to_string(),
                weight_sparsity: cfg.sparsity(),
                loss,
                edp: edp / tc_edp,
                energy_j,
                latency_s,
                on_front: false,
                within_budget: loss <= q.budget,
            });
        }
    }
    st.encode += secs(t);
    let t = Instant::now();
    let flags = pareto_front_flags(&points, |p| (p.loss, p.edp));
    for (p, on) in points.iter_mut().zip(flags) {
        p.on_front = on;
    }
    st.pareto += secs(t);
    let best = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.within_budget)
        .min_by(|(ia, a), (ib, b)| {
            a.edp
                .total_cmp(&b.edp)
                .then(a.loss.total_cmp(&b.loss))
                .then(ia.cmp(ib))
        })
        .map(|(i, _)| i);

    let t = Instant::now();
    let unsupported = candidates.len() - points.len();
    let outcome = SearchOutcome {
        design: design.name().to_string(),
        model: model.name.clone(),
        metric: model.metric,
        budget: q.budget,
        candidates: candidates.len(),
        unsupported,
        points,
        best,
    };
    let body = search_outcome_json(&outcome).encode();
    st.encode += secs(t);

    let wall_s = secs(start);
    if body != q.body {
        return Err(format!(
            "replayed {}/{} body differs from the server's reply",
            q.design, q.model
        ));
    }
    Ok(Replayed {
        stages: st,
        wall_s,
        candidates: candidates.len(),
        unsupported,
    })
}

/// One pass over the list on a fresh engine and retention cache.
fn pass(threads: usize, queries: &[Query]) -> Result<(Vec<Replayed>, RetentionCache), String> {
    let engine = Engine::with_threads(threads);
    let retention = RetentionCache::new();
    let replayed = queries
        .iter()
        .map(|q| replay_query(&engine, &retention, q))
        .collect::<Result<_, _>>()?;
    Ok((replayed, retention))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median time of one `prune_hss` call on the surrogate's 64-row layer
/// proxy, over HighLight's HSS co-design candidates.
fn prune_hss_ms() -> Result<f64, String> {
    let mut per_pattern = Vec::new();
    for cfg in codesign_space("HighLight").map_err(|e| e.to_string())? {
        let PruningConfig::Hss(pattern) = cfg else {
            continue;
        };
        let group = pattern.group_size().max(1);
        let w = synthetic_weights(64, (1024 / group).max(1) * group, 0xACC0);
        let best = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(prune_hss(std::hint::black_box(&w), &pattern));
                secs(t) * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        per_pattern.push(best);
    }
    if per_pattern.is_empty() {
        return Err("no HSS candidates to prune".into());
    }
    Ok(median(per_pattern))
}

fn read_queries(path: &Path) -> Result<Vec<Query>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let mut parts = line.splitn(4, '\t');
            let mut next = || parts.next().ok_or(format!("bad query line {line:?}"));
            Ok(Query {
                design: next()?.to_string(),
                model: next()?.to_string(),
                budget: next()?
                    .parse()
                    .map_err(|_| format!("bad budget in {line:?}"))?,
                body: next()?.to_string(),
            })
        })
        .collect()
}

fn run() -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut queries_path = None;
    let mut snapshot_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().map(PathBuf::from);
        match flag.as_str() {
            "--queries" => queries_path = value,
            "--snapshot" => snapshot_path = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let queries = read_queries(&queries_path.ok_or("--queries is required")?)?;
    let snapshot_path = snapshot_path.ok_or("--snapshot is required")?;
    if queries.is_empty() {
        return Err("empty query list".into());
    }

    // 1 thread, 2 threads, twice each, alternating; stage figures come
    // from the first 1-thread pass, the speed-up from the faster of each.
    let mut walls = [f64::INFINITY; 2];
    let mut first = None;
    for threads in [1, 2, 1, 2] {
        let (replayed, retention) = pass(threads, &queries)?;
        let wall: f64 = replayed.iter().map(|r| r.wall_s).sum();
        walls[threads - 1] = walls[threads - 1].min(wall);
        if first.is_none() {
            first = Some((replayed, retention));
        }
    }
    let (replayed, retention) = first.expect("the first pass ran");
    let mut stages = Stages::default();
    for r in &replayed {
        stages.add(&r.stages);
    }
    let attributed = replayed
        .iter()
        .map(|r| r.stages.total() / r.wall_s)
        .fold(f64::INFINITY, f64::min);
    let candidates: usize = replayed.iter().map(|r| r.candidates).sum();
    let unsupported: usize = replayed.iter().map(|r| r.unsupported).sum();
    let (hits, misses) = retention.stats();

    let bytes = std::fs::metadata(&snapshot_path)
        .map_err(|e| format!("snapshot {}: {e}", snapshot_path.display()))?
        .len();
    let mut entries = 0;
    let mut loads = Vec::new();
    for _ in 0..3 {
        let cache = EvalCache::new();
        let t = Instant::now();
        entries = snapshot::load(&cache, &snapshot_path).map_err(|e| e.to_string())?;
        loads.push(secs(t));
    }
    let fingerprints = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(snapshot::cache_fingerprint());
            secs(t) * 1e3
        })
        .collect();

    Ok(vec![
        ("models.accuracy.busy_s", stages.accuracy, "s"),
        ("models.accuracy.calls", candidates as f64, "count"),
        (
            "models.accuracy.retention_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        ("models.lower.busy_s", stages.lower, "s"),
        ("sim.network.busy_s", stages.network, "s"),
        ("sim.pareto.busy_s", stages.pareto, "s"),
        ("bench.search.candidates", candidates as f64, "count"),
        (
            "bench.search.unsupported_ratio",
            unsupported as f64 / candidates.max(1) as f64,
            "ratio",
        ),
        ("sparsity.prune.prune_hss_ms", prune_hss_ms()?, "ms"),
        ("sim.engine.speedup_2t", walls[0] / walls[1], "x"),
        ("trace.attributed_ratio", attributed, "ratio"),
        ("snapshot.bytes", bytes as f64, "bytes"),
        ("snapshot.entries", entries as f64, "count"),
        ("snapshot.load_s", median(loads), "s"),
        ("snapshot.fingerprint_ms", median(fingerprints), "ms"),
    ])
}

fn main() -> ExitCode {
    match run() {
        Ok(metrics) => {
            let fields: Vec<String> = metrics
                .iter()
                .map(|(name, value, unit)| format!("\"{name}\": [{value}, \"{unit}\"]"))
                .collect();
            println!("{{{}}}", fields.join(", "));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hlperf-replay: {e}");
            ExitCode::FAILURE
        }
    }
}
