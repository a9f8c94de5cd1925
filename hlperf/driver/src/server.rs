//! The `hl-serve` child process: boot with set-up timing, the `/v1`
//! metrics it reports, its peak resident set, and shutdown.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::Conn;
use crate::json::Json;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// How a server child is started.
#[derive(Clone)]
pub struct Launch {
    pub bin: PathBuf,
    pub log: PathBuf,
    /// `HL_THREADS` and `--workers`.
    pub threads: usize,
    pub snapshot: Option<PathBuf>,
}

pub struct Server {
    child: Child,
    /// Held open until the child exits: the server prints on drain, and
    /// a closed pipe would turn that print into a failure.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn to the first 200 from `/v1/healthz`.
    pub setup_s: f64,
}

impl Server {
    pub fn boot(launch: &Launch) -> Result<Server, String> {
        let log = File::options()
            .create(true)
            .append(true)
            .open(&launch.log)
            .map_err(|e| format!("cannot open {}: {e}", launch.log.display()))?;
        let threads = launch.threads.to_string();
        let mut cmd = Command::new(&launch.bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &threads,
            "--log-level",
            "error",
        ])
        .env("HL_THREADS", &threads)
        .env_remove("HL_SERVE_SNAPSHOT")
        .env_remove("HL_FAULTS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log);
        if let Some(path) = &launch.snapshot {
            cmd.arg("--snapshot").arg(path);
        }
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", launch.bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("hl-serve exited before listening".into());
            }
            addr = line
                .split("listening on http://")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string);
        }
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: addr.expect("loop ends on Some"),
            setup_s: 0.0,
        };
        let deadline = t0 + Duration::from_secs(60);
        loop {
            if let Ok(mut conn) = Conn::connect(&server.addr) {
                if conn
                    .call("GET", "/v1/healthz", b"")
                    .is_ok_and(|r| r.status == 200)
                {
                    break;
                }
            }
            if Instant::now() > deadline {
                server.stop_now();
                return Err("hl-serve never answered /v1/healthz".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.setup_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// `GET /v1/metrics` (JSON view).
    pub fn metrics(&self) -> Result<Json, String> {
        let reply = self
            .connect()?
            .call("GET", "/v1/metrics", b"")
            .map_err(|e| format!("/v1/metrics: {e}"))?;
        Json::parse(&String::from_utf8_lossy(&reply.body))
    }

    /// The child's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("/proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// SIGTERM: drain, write the snapshot (when configured), and exit.
    pub fn stop(mut self) -> Result<(), String> {
        let pid = i32::try_from(self.child.id()).map_err(|_| "pid out of range".to_string())?;
        // SAFETY: `kill` has no memory-safety preconditions; `pid` is our
        // own child, which has not been reaped (we hold its `Child`).
        unsafe { kill(pid, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("hl-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    self.stop_now();
                    return Err("hl-serve did not drain within 30 s".into());
                }
            }
        }
    }

    /// SIGKILL and reap.
    pub fn stop_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.stop_now();
        }
    }
}

/// Host CPU steal over an interval, from the `cpu` line of `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to other tenants.
pub struct Steal {
    steal: u64,
    total: u64,
}

impl Steal {
    pub fn start() -> Steal {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        Steal {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// The stolen share of all CPU time since `start`; 0 where
    /// `/proc/stat` is unavailable.
    pub fn share(&self) -> f64 {
        let now = Steal::start();
        now.steal.saturating_sub(self.steal) as f64
            / now.total.saturating_sub(self.total).max(1) as f64
    }
}

/// Copies `src` to a fresh path so each boot reads an untouched snapshot.
pub fn fresh_copy(src: &Path, dst: &Path) -> Result<PathBuf, String> {
    std::fs::copy(src, dst).map_err(|e| format!("copy snapshot: {e}"))?;
    Ok(dst.to_path_buf())
}
