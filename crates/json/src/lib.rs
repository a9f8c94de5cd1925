//! `hl-json` — the workspace's one JSON codec, hand-rolled (no crates.io
//! access, so no `serde_json`) and with no dependencies. The server
//! re-exports it as `hl_serve::json` for request bodies, responses and
//! snapshots; the `bench_sweeps` and `bench_micro` writers encode their
//! `BENCH_*.json` files with it.

#![warn(missing_docs)]

mod json;

pub use json::{Json, JsonError, MAX_DEPTH};
