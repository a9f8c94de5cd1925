//! `hlperf` — the repository benchmark.
//!
//! ```text
//! hlperf --workload <codesign-cold|search-restart>
//!        --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The driver builds `hl-serve` (release)
//! from source, runs the workload against it over the `/v1` HTTP API from
//! this one process, checks every reply byte for byte against a fresh
//! single-threaded reference server, and prints a report whose last line
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics instead: request stage spans from `GET /v1/trace`,
//! cache and failure counters from `GET /v1/metrics`, and the in-process
//! co-design and snapshot replay (`hlperf-replay`, a separate package so
//! that the end-to-end runs depend only on the server's command line and
//! wire format).
//!
//! Build output and run files go under `$CARGO_TARGET_DIR` (default
//! `target/`); the work files under its `hlperf-work/`.

mod http;
mod json;
mod load;
mod server;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use server::Launch;
use workloads::{Env, Outcome, WORKLOADS};

/// Worker threads of every measured server (`HL_THREADS` and `--workers`).
const SERVER_THREADS: usize = 2;

/// The metric names and units `BENCHMARK.json` declares for a section
/// (`end_to_end` or `per_layer`): the report must carry exactly these.
fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get(section)
        .map(Json::arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: malformed {section} entry"))
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn cargo_build(target: &Path, args: &[&str]) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(&cargo)
        .args(["build", "--release", "--quiet", "--offline"])
        .args(args)
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {cargo}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build {} failed ({status})", args.join(" ")))
    }
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Runs the in-process replay and merges its per-layer metrics.
fn replay(env: &Env, target: &Path, snapshot: &Path, out: &mut Outcome) -> Result<(), String> {
    let queries = env.work.join("codesign.tsv");
    workloads::write_codesign_reference(env, &queries)?;
    let bin = target.join("release").join("hlperf-replay");
    let output = Command::new(&bin)
        .arg("--queries")
        .arg(&queries)
        .arg("--snapshot")
        .arg(snapshot)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!("hlperf-replay failed ({})", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().ok_or("hlperf-replay printed nothing")?;
    workloads::replay_metrics(out, last)
}

/// A JSON number; non-finite values (an all-failed latency sample) are
/// written as the largest finite double so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure with a debug build of the driver".into());
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if workload.clients > nproc {
        return Err(format!(
            "refusing to run {} client threads on {nproc} CPUs",
            workload.clients
        ));
    }
    let target =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()));
    let target = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(target);
    eprintln!("hlperf: building hl-serve (release)");
    cargo_build(
        &target,
        &["--locked", "-p", "hl-serve", "--bin", "hl-serve"],
    )?;
    if args.trace {
        eprintln!("hlperf: building hlperf-replay (release)");
        cargo_build(&target, &["--manifest-path", "hlperf/replay/Cargo.toml"])?;
    }
    let bin = target.join("release").join("hl-serve");
    if !bin.is_file() {
        return Err(format!("no release binary at {}", bin.display()));
    }
    let work = target.join("hlperf-work");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let serve = Launch {
        bin,
        log: work.join("serve.log"),
        threads: SERVER_THREADS,
        snapshot: None,
    };
    let env = Env {
        reference: Launch {
            threads: 1,
            ..serve.clone()
        },
        serve,
        work,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    };

    eprintln!("hlperf: running {} for {} s", workload.name, args.seconds);
    let (mut out, snapshot) = (workload.run)(&env)?;
    if args.trace {
        let snapshot = snapshot.ok_or("the traced run wrote no snapshot")?;
        replay(&env, &target, &snapshot, &mut out)?;
    }

    let wanted = declared_metrics(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    })?;
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let (_, value, measured_unit) = out
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if measured_unit != unit {
            return Err(format!(
                "metric {name} is in {measured_unit}, declared {unit}"
            ));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        ));
    }
    let correct = out.mismatched_ops == 0 && out.mismatched_requests == 0;

    println!(
        "hlperf {} seed={} seconds={} trace={}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env: nproc={nproc} client_threads={} server HL_THREADS={SERVER_THREADS} \
         --workers={SERVER_THREADS} reference HL_THREADS=1 profile=release git={}",
        workload.clients,
        git_revision()
    );
    println!("load: {}", workload.load);
    for (name, value, unit) in &out.metrics {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    if !args.trace {
        println!(
            "  {:<40} {:>14.6} fraction ({} failed of {} attempted)",
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        );
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    println!(
        "check: {} requests and {} ops with mismatched reply bytes",
        out.mismatched_requests, out.mismatched_ops
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hlperf: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hlperf: {e}");
            ExitCode::from(2)
        }
    }
}
