//! `hl-json` — the workspace's one JSON codec, hand-rolled (no crates.io
//! access, so no `serde_json`) and with no dependencies. The server
//! re-exports it as `hl_serve::json` for request bodies, responses and
//! snapshots; the `bench_sweeps` and `bench_micro` writers encode their
//! `BENCH_*.json` files with it.
//!
//! Two ways in: [`Json::parse`] builds a [`Json`] tree, and [`Reader`]
//! pulls the same document token by token without building one (the
//! snapshot loader decodes its entries that way). Both share one
//! tokenizer, so they accept exactly the same documents. The reader reads
//! integers of at most 15 digits without `str::parse`; they are exact in
//! an `f64`, so either way a number decodes to the same bits.

#![warn(missing_docs)]

mod json;
mod reader;

pub use json::{Json, JsonError, MAX_DEPTH};
pub use reader::{Kind, Reader};
