//! `bench_serve` — in-process load generator for the `hl-serve` API.
//!
//! Boots a server on an ephemeral port, warms the shared `EvalCache`
//! with one pass over the request mix, then measures three load modes
//! against `/v1/evaluate` (with a periodic `/v1/healthz`):
//!
//! - **churn** — closed loop, a fresh TCP connection per request (the
//!   pre-keep-alive client behavior; the connection-setup baseline).
//! - **keepalive** — closed loop, one kept-alive connection per client.
//! - **open_loop** — requests fire on a fixed arrival schedule at half
//!   the measured keep-alive throughput, and latency is measured from
//!   the *scheduled* send time, so queueing delay is charged to the
//!   server rather than hidden by client backpressure (no coordinated
//!   omission).
//!
//! Records p50/p90/p99/max latency, throughput, the server-side cache
//! hit rate, and worker queue-wait stats per mode to `BENCH_serve.json`
//! (honoring `HL_BENCH_OUT`, like `bench_sweeps`), and asserts the
//! Prometheus exposition still validates after the load run.
//!
//! A fourth **overload** scenario runs against a second, deliberately
//! constrained server (one worker slowed by a deterministic stall
//! fault, tiny admission queue) with retry-enabled clients, and records
//! how degradation behaves under saturation: server-side shed counts
//! and client-side retry counts land in the report. Its outcomes are
//! reported, not asserted — 503s are the *expected* behavior there, so
//! the `errors == 0` gate stays scoped to the three healthy modes.
//!
//! Environment knobs: `HL_SERVE_BENCH_CLIENTS` (default 4) and
//! `HL_SERVE_BENCH_REQS` (requests per client per mode, default 150).

use std::sync::Arc;
use std::time::{Duration, Instant};

use hl_eval::bench_out_path;
use hl_serve::api::App;
use hl_serve::client::{get_json, post_json, Client, RetryPolicy};
use hl_serve::faults::FaultPlane;
use hl_serve::json::Json;
use hl_serve::server::{Server, ServerConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

/// The `/v1/evaluate` request mix: every paper design over three degree
/// pairs (so repeats replay from the shared cache, as production clients
/// polling a design space would).
fn request_mix() -> Vec<Json> {
    let mut mix = Vec::new();
    for design in hl_eval::design_names() {
        for (sa, sb) in [(0.5, 0.0), (0.5, 0.5), (0.75, 0.25)] {
            mix.push(Json::Obj(vec![
                ("design".into(), Json::str(&design)),
                ("a_sparsity".into(), Json::Num(sa)),
                ("b_sparsity".into(), Json::Num(sb)),
            ]));
        }
    }
    mix
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

struct ModeStats {
    mode: &'static str,
    latencies: Vec<f64>,
    errors: u64,
    seconds: f64,
}

impl ModeStats {
    fn throughput(&self) -> f64 {
        self.latencies.len() as f64 / self.seconds
    }

    fn to_json(&self) -> Json {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let total = sorted.len();
        let mean = sorted.iter().sum::<f64>() / total.max(1) as f64;
        let round = |v: f64| (v * 1e4).round() / 1e4;
        Json::Obj(vec![
            ("mode".into(), Json::str(self.mode)),
            ("requests".into(), Json::Num(total as f64)),
            ("errors".into(), Json::Num(self.errors as f64)),
            ("seconds".into(), Json::Num(round(self.seconds))),
            (
                "throughput_rps".into(),
                Json::Num((self.throughput() * 10.0).round() / 10.0),
            ),
            (
                "latency_ms".into(),
                Json::Obj(
                    [
                        ("p50", quantile(&sorted, 0.50)),
                        ("p90", quantile(&sorted, 0.90)),
                        ("p99", quantile(&sorted, 0.99)),
                        ("max", sorted.last().copied().unwrap_or(0.0)),
                        ("mean", mean),
                    ]
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(round(v))))
                    .collect(),
                ),
            ),
        ])
    }
}

/// One request of the mix: mostly `/v1/evaluate`, a periodic healthz.
fn fire(client: &mut Client, mix: &[Json], c: usize, i: usize, clients: usize) -> Option<u16> {
    if i % 8 == 7 {
        client.get_json("/v1/healthz").map(|(s, _)| s).ok()
    } else {
        let body = &mix[(c + i * clients) % mix.len()];
        client.post_json("/v1/evaluate", body).map(|(s, _)| s).ok()
    }
}

/// Closed-loop run: `clients` threads, each sending `per_client`
/// back-to-back requests. `keep_alive` picks connection reuse vs a
/// fresh connection per request.
fn closed_loop(
    mode: &'static str,
    addr: &str,
    clients: usize,
    per_client: usize,
    mix: &[Json],
    keep_alive: bool,
) -> ModeStats {
    let t0 = Instant::now();
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    let mut errs = 0u64;
                    let mut client = Client::new(addr);
                    for i in 0..per_client {
                        let t = Instant::now();
                        let status = if keep_alive {
                            fire(&mut client, mix, c, i, clients)
                        } else if i % 8 == 7 {
                            get_json(addr, "/v1/healthz").map(|(s, _)| s).ok()
                        } else {
                            let body = &mix[(c + i * clients) % mix.len()];
                            post_json(addr, "/v1/evaluate", body).map(|(s, _)| s).ok()
                        };
                        lat.push(t.elapsed().as_secs_f64() * 1000.0);
                        if status != Some(200) {
                            errs += 1;
                        }
                    }
                    (lat, errs)
                })
            })
            .collect();
        for h in handles {
            let (lat, errs) = h.join().expect("client thread panicked");
            latencies.extend(lat);
            errors += errs;
        }
    });
    ModeStats {
        mode,
        latencies,
        errors,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Open-loop run at `rate_rps` total arrivals/s across `clients`
/// threads on kept-alive connections. Latency counts from the scheduled
/// arrival time, so a slow server accrues queueing delay instead of
/// throttling the load.
fn open_loop(
    addr: &str,
    clients: usize,
    per_client: usize,
    mix: &[Json],
    rate_rps: f64,
) -> ModeStats {
    let interval = Duration::from_secs_f64(clients as f64 / rate_rps.max(1.0));
    let t0 = Instant::now();
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    let mut errs = 0u64;
                    let mut client = Client::new(addr);
                    // Stagger client start so arrivals interleave evenly.
                    let start = Instant::now() + interval.mul_f64(c as f64 / clients as f64);
                    for i in 0..per_client {
                        let scheduled = start + interval.mul_f64(i as f64);
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let status = fire(&mut client, mix, c, i, clients);
                        lat.push(scheduled.elapsed().as_secs_f64() * 1000.0);
                        if status != Some(200) {
                            errs += 1;
                        }
                    }
                    (lat, errs)
                })
            })
            .collect();
        for h in handles {
            let (lat, errs) = h.join().expect("client thread panicked");
            latencies.extend(lat);
            errors += errs;
        }
    });
    ModeStats {
        mode: "open_loop",
        latencies,
        errors,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Distinct evaluation bodies (no two coalesce), so a slow worker
/// genuinely backs the queue up instead of the coalescer absorbing it.
fn overload_mix(n: usize) -> Vec<Json> {
    let designs = hl_eval::design_names();
    (0..n)
        .map(|i| {
            Json::Obj(vec![
                ("design".into(), Json::str(&designs[i % designs.len()])),
                ("a_sparsity".into(), Json::Num((i % 19) as f64 / 20.0)),
                ("b_sparsity".into(), Json::Num((i / 19 % 17) as f64 / 20.0)),
            ])
        })
        .collect()
}

/// Saturates a constrained server (one worker stalled on every job, a
/// 2-deep admission queue) with retry-enabled clients and reports how
/// load shedding and client backoff interact. Every request must still
/// resolve — to a 200, or to a 503 after retries are exhausted;
/// anything else is a hard failure.
fn overload_scenario(clients: usize, per_client: usize) -> Json {
    let plane = FaultPlane::parse("seed=1,worker_stall=1.0,stall_ms=3").expect("static fault spec");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_queue: 2,
        faults: Some(Arc::new(plane)),
        ..ServerConfig::default()
    };
    let handle = Server::bind(config, App::new())
        .expect("bind overload server")
        .spawn()
        .expect("spawn overload server");
    let addr = handle.addr().to_string();
    let mix = overload_mix(clients * per_client);

    let t0 = Instant::now();
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut transport_errors = 0u64;
    let mut retries = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.as_str();
                let mix = &mix;
                scope.spawn(move || {
                    let policy = RetryPolicy {
                        max_retries: 4,
                        base: Duration::from_millis(2),
                        cap: Duration::from_millis(30),
                        seed: c as u64 + 1,
                    };
                    let mut client = Client::new(addr).with_retry(policy);
                    let (mut ok, mut shed, mut errs) = (0u64, 0u64, 0u64);
                    for i in 0..per_client {
                        match client.post_json("/v1/evaluate", &mix[c * per_client + i]) {
                            Ok((200, _)) => ok += 1,
                            Ok((503, _)) => shed += 1,
                            Ok(_) | Err(_) => errs += 1,
                        }
                    }
                    (ok, shed, errs, client.retries())
                })
            })
            .collect();
        for h in handles {
            let (o, s, e, r) = h.join().expect("overload client panicked");
            ok += o;
            shed += s;
            transport_errors += e;
            retries += r;
        }
    });
    let seconds = t0.elapsed().as_secs_f64();

    let (status, metrics) = get_json(&addr, "/v1/metrics").expect("overload /v1/metrics");
    assert_eq!(status, 200);
    let server_shed = metrics.get("shed").cloned().unwrap_or(Json::Null);
    handle.stop().expect("overload server shutdown");

    let total = (clients * per_client) as u64;
    assert_eq!(
        ok + shed + transport_errors,
        total,
        "every overload request must resolve"
    );
    assert_eq!(
        transport_errors, 0,
        "overload must degrade to 503s, not transport failures"
    );
    println!(
        "overload  {total:>6} requests in {seconds:.3} s  \
         ({ok} ok, {shed} shed after retries, {retries} client retries)"
    );
    println!("server shed counters: {}", server_shed.encode());

    let round = |v: f64| (v * 1e3).round() / 1e3;
    Json::Obj(vec![
        ("requests".into(), Json::Num(total as f64)),
        ("ok".into(), Json::Num(ok as f64)),
        ("shed_after_retries".into(), Json::Num(shed as f64)),
        ("client_retries".into(), Json::Num(retries as f64)),
        ("seconds".into(), Json::Num(round(seconds))),
        ("server_shed".into(), server_shed),
    ])
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let clients = env_usize("HL_SERVE_BENCH_CLIENTS", 4);
    let per_client = env_usize("HL_SERVE_BENCH_REQS", 150);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let workers = config.workers;
    let handle = Server::bind(config, App::new())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server");
    let addr = handle.addr().to_string();
    println!(
        "bench_serve — {clients} clients x {per_client} requests/mode against {addr} \
         ({workers} workers, {cpus} CPU(s))"
    );

    // Warmup: populate the cache with every distinct point, untimed.
    let mix = request_mix();
    for body in &mix {
        let (status, _) = post_json(&addr, "/v1/evaluate", body).expect("warmup request");
        assert_eq!(status, 200, "warmup must succeed");
    }

    let churn = closed_loop("churn", &addr, clients, per_client, &mix, false);
    let keepalive = closed_loop("keepalive", &addr, clients, per_client, &mix, true);
    // Offer half the measured keep-alive capacity: latencies then show
    // genuine service time + queueing, not saturation artifacts.
    let rate = (keepalive.throughput() * 0.5).max(50.0);
    let open = open_loop(&addr, clients, per_client, &mix, rate);

    for stats in [&churn, &keepalive, &open] {
        let mut sorted = stats.latencies.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        println!(
            "{:<9} {:>6} requests in {:.3} s  ({:>7.0} req/s, {} errors)  \
             p50 {:.3} ms  p99 {:.3} ms",
            stats.mode,
            sorted.len(),
            stats.seconds,
            stats.throughput(),
            stats.errors,
            quantile(&sorted, 0.50),
            quantile(&sorted, 0.99),
        );
    }
    let speedup = keepalive.throughput() / churn.throughput().max(1e-9);
    println!("keep-alive vs churn: {speedup:.2}x throughput");

    let (status, metrics) = get_json(&addr, "/v1/metrics").expect("final /v1/metrics");
    assert_eq!(status, 200);
    let cache = metrics.get("eval_cache").cloned().unwrap_or(Json::Null);
    let reuse = metrics
        .get("connections")
        .and_then(|c| c.get("reuse"))
        .cloned()
        .unwrap_or(Json::Null);
    let queue = metrics.get("queue").cloned().unwrap_or(Json::Null);
    println!("eval cache: {}", cache.encode());
    println!("connection reuse: {}", reuse.encode());
    println!("worker queue: {}", queue.encode());

    // The Prometheus view must stay a well-formed exposition after a
    // full load run (the JSON and text renderers share counters, so a
    // divergence here means a rendering bug, not a load artifact).
    let (status, prom) = Client::new(&addr)
        .send("GET", "/v1/metrics?format=prometheus", None)
        .expect("prometheus scrape");
    assert_eq!(status, 200);
    hl_serve::prom::validate_exposition(&prom).expect("valid exposition after load");

    let overload = overload_scenario(clients.max(6), 25);

    let errors = churn.errors + keepalive.errors + open.errors;
    let report = Json::Obj(vec![
        ("benchmark".into(), Json::str("hl-serve load")),
        ("cpus".into(), Json::Num(cpus as f64)),
        ("workers".into(), Json::Num(workers as f64)),
        ("clients".into(), Json::Num(clients as f64)),
        (
            "requests_per_mode".into(),
            Json::Num((clients * per_client) as f64),
        ),
        ("errors".into(), Json::Num(errors as f64)),
        (
            "keepalive_speedup".into(),
            Json::Num((speedup * 100.0).round() / 100.0),
        ),
        (
            "open_loop_rate_rps".into(),
            Json::Num((rate * 10.0).round() / 10.0),
        ),
        (
            "modes".into(),
            Json::Arr(vec![churn.to_json(), keepalive.to_json(), open.to_json()]),
        ),
        ("eval_cache".into(), cache),
        ("connection_reuse".into(), reuse),
        ("queue".into(), queue),
        ("overload".into(), overload),
    ]);
    let out = bench_out_path("BENCH_serve.json");
    std::fs::write(&out, report.encode() + "\n").expect("write BENCH_serve.json");
    println!("wrote {}", out.display());

    handle.stop().expect("graceful shutdown");
    assert_eq!(errors, 0, "load run hit non-200 responses");
}
