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
//!
//! One way out: [`Writer`] appends a document straight into a byte
//! buffer, with no tree in between (the server writes every response
//! body this way, each as a [`View`]); [`Json::encode`] is a walk of the
//! tree through the same writer. Numbers are written by the crate's own
//! shortest round-trip formatter, not by `Display`: its output is byte
//! for byte `format!("{n}")` for every finite `f64` (fixed notation, no
//! exponent, `-0` for negative zero), and NaN and ±infinity, which JSON
//! cannot represent, are written as `null`.

#![warn(missing_docs)]
// Request-path invariant: the server parses every request body with this
// codec, so it must not panic (the same lint set as hl-serve's library).
// Integration tests and `#[cfg(test)]` modules stay out of scope.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros,
        clippy::print_stderr,
        clippy::dbg_macro
    )
)]

mod json;
mod number;
mod reader;
mod writer;

pub use json::{Json, JsonError, MAX_DEPTH};
pub use reader::{Kind, Reader};
pub use writer::{Value, View, Writer};
