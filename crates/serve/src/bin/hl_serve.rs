//! `hl-serve` — the HTTP evaluation server binary.
//!
//! ```text
//! hl-serve [--addr HOST:PORT] [--workers N] [--max-connections N]
//!          [--snapshot PATH] [--snapshot-interval SECS]
//!          [--default-deadline MS] [--faults SPEC]
//!          [--log-level LEVEL] [--trace-slow-ms MS]
//! ```
//!
//! The worker pool (and the shared sweep engine) default to `HL_THREADS`
//! when set, otherwise the machine's available parallelism. The
//! evaluation-cache snapshot path may also come from the
//! `HL_SERVE_SNAPSHOT` environment variable (the flag wins); when set,
//! the cache is loaded from it at boot, saved every
//! `--snapshot-interval` seconds, and saved back on graceful drain.
//! `--default-deadline` sheds queued work whose wait exceeds the given
//! budget even when the request body carries no `deadline_ms`.
//! `--faults` (or `HL_FAULTS`; the flag wins) arms the deterministic
//! fault-injection plane — see `hl_serve::faults` for the spec grammar.
//! `--log-level` (error|warn|info|debug, default info) gates the
//! structured JSON-lines log on stderr; `--trace-slow-ms` additionally
//! logs any request slower than the threshold at warn level (0 logs
//! everything). SIGTERM and ctrl-c drain in-flight requests before the
//! process exits.

// hl-lint: allow-file(no-raw-eprintln-in-serve, boot/usage errors precede Logger construction and this binary's stderr is the operator terminal, not the JSON log stream)
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use hl_serve::api::App;
use hl_serve::faults::FaultPlane;
use hl_serve::json::Json;
use hl_serve::log::Level;
use hl_serve::server::{Server, ServerConfig};
use hl_serve::signal;

const USAGE: &str = "usage: hl-serve [--addr HOST:PORT] [--workers N] [--max-connections N] \
     [--snapshot PATH] [--snapshot-interval SECS] [--default-deadline MS] [--faults SPEC] \
     [--log-level error|warn|info|debug] [--trace-slow-ms MS]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    if let Ok(path) = std::env::var("HL_SERVE_SNAPSHOT") {
        if !path.is_empty() {
            config.snapshot = Some(path.into());
        }
    }
    let mut faults_spec: Option<String> = None;
    let mut log_level = Level::Info;
    let mut trace_slow: Option<Duration> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(v) => config.addr = v,
                None => return usage(),
            },
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.workers = n,
                _ => return usage(),
            },
            "--max-connections" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.max_connections = n,
                _ => return usage(),
            },
            "--snapshot" => match args.next() {
                Some(v) => config.snapshot = Some(v.into()),
                None => return usage(),
            },
            "--snapshot-interval" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => config.snapshot_interval = Some(Duration::from_secs(n)),
                _ => return usage(),
            },
            "--default-deadline" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => config.default_deadline = Some(Duration::from_millis(n)),
                _ => return usage(),
            },
            "--faults" => match args.next() {
                Some(v) => faults_spec = Some(v),
                None => return usage(),
            },
            "--log-level" => match args.next().and_then(|v| Level::parse(&v)) {
                Some(level) => log_level = level,
                None => return usage(),
            },
            "--trace-slow-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => trace_slow = Some(Duration::from_millis(ms)),
                None => return usage(),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    // The flag wins over HL_FAULTS; a malformed spec from either source
    // is a startup error, not a silently unarmed plane.
    let faults = match faults_spec {
        Some(spec) => match FaultPlane::parse(&spec) {
            Ok(plane) => Some(Arc::new(plane)),
            Err(e) => {
                eprintln!("hl-serve: bad --faults spec: {e}");
                return ExitCode::from(2);
            }
        },
        None => match FaultPlane::from_env() {
            Ok(plane) => plane,
            Err(e) => {
                eprintln!("hl-serve: bad HL_FAULTS spec: {e}");
                return ExitCode::from(2);
            }
        },
    };
    config.faults = faults;

    let app = App::new();
    app.logger().set_level(log_level);
    app.set_trace_slow(trace_slow);
    if let Some(plane) = &config.faults {
        app.logger().warn(
            "fault_injection_armed",
            &[
                ("seed", Json::Num(plane.seed() as f64)),
                ("note", Json::str("not for production")),
            ],
        );
    }

    let server = match Server::bind(config.clone(), app) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hl-serve: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hl-serve: no local address: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "hl-serve listening on http://{addr} ({} workers, {} connections max)",
        config.workers, config.max_connections
    );
    println!(
        "endpoints: GET /v1/healthz  GET /v1/designs  GET /v1/metrics  GET /v1/models  \
         GET /v1/trace  POST /v1/evaluate  POST /v1/evaluate_model  POST /v1/sweep  \
         POST /v1/search"
    );
    if let Some(path) = &config.snapshot {
        println!("snapshot: {}", path.display());
    }

    signal::install_handlers();
    let shutdown = server.shutdown_switch();
    let watcher = std::thread::spawn(move || {
        while !signal::shutdown_requested() && !shutdown.is_triggered() {
            std::thread::sleep(Duration::from_millis(50));
        }
        shutdown.trigger();
    });

    let result = server.run();
    // run() only returns once shutdown is flagged; the watcher exits with it.
    signal::request_shutdown();
    let _ = watcher.join();
    match result {
        Ok(()) => {
            println!("hl-serve: drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hl-serve: server error: {e}");
            ExitCode::FAILURE
        }
    }
}
