//! `hl-serve` — a dependency-free HTTP/1.1 JSON service over the
//! HighLight evaluation stack.
//!
//! The fig/table binaries answer design-space questions in batch; this
//! crate serves the same evaluation stack as a long-lived API so external
//! co-design clients (hardware-aware sparsity search, accelerator
//! comparisons) can query *"evaluate design D on workload W at sparsity
//! S"* — or *"evaluate design D on model M under pruning config P"*
//! (`/v1/evaluate_model`, per-layer + aggregate results through
//! [`hl_sim::network`]) — interactively. All requests share one
//! [`hl_eval::SweepContext`]:
//! the parallel engine plus its [`hl_sim::engine::EvalCache`], so
//! repeated queries replay from the memo and `/v1/metrics` exposes the
//! hit rate. The API is versioned under `/v1/`; the original unversioned
//! paths still answer byte-identically but count as deprecated aliases.
//!
//! There is no crates.io access in this workspace, so everything is
//! hand-rolled on `std`: [`json`] (the `hl-json` codec, re-exported),
//! [`http`] (incremental request parsing for keep-alive and
//! pipelining, chunked responses, 4xx/5xx mapping), [`schema`] (the
//! typed wire structs and structured `{"error":{...}}` bodies),
//! [`epoll`] (a minimal epoll(7) facade with a self-pipe waker),
//! [`faults`] (the seeded fault-injection plane behind `HL_FAULTS`),
//! [`server`] (the single-threaded event loop: nonblocking accepts,
//! per-connection state machines, in-flight request coalescing, a
//! worker pool for evaluation, cooperative drain), [`snapshot`]
//! (evaluation-cache persistence across restarts), [`signal`]
//! (SIGTERM/ctrl-c → shutdown flag), [`api`] (the endpoint handlers),
//! [`metrics`] (lock-free counters and histograms, the route table, and
//! the metric-family table both `/v1/metrics` views render from),
//! [`trace`] (per-request lifecycle spans in a ring served at
//! `/v1/trace`), [`log`] (leveled, rate-limited JSON-lines logging),
//! [`prom`] (Prometheus text exposition + validator), and [`client`]
//! (the keep-alive client the `hl-client` CLI, the load bench, and the
//! e2e tests use).
//!
//! # Example
//!
//! ```
//! use hl_serve::api::App;
//! use hl_serve::server::{Server, ServerConfig};
//!
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     workers: 2,
//!     ..ServerConfig::default()
//! };
//! let handle = Server::bind(config, App::new()).unwrap().spawn().unwrap();
//! let addr = handle.addr().to_string();
//!
//! let (status, health) = hl_serve::client::get_json(&addr, "/v1/healthz").unwrap();
//! assert_eq!(status, 200);
//! assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));
//! handle.stop().unwrap();
//! ```

#![deny(unsafe_code)] // `signal` and `epoll` opt back in for their libc bindings.
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod epoll;
pub mod faults;
pub mod http;
pub mod log;
pub mod metrics;
pub mod prom;
pub mod schema;
pub mod server;
pub mod signal;
pub mod snapshot;
pub mod trace;

pub use api::App;
pub use hl_json as json;
pub use json::Json;
pub use server::{Server, ServerConfig, ServerHandle, DEFAULT_ADDR};
