//! Deterministic fault-injection plane for the serving core.
//!
//! A [`FaultPlane`] is parsed from a compact spec string (the
//! `HL_FAULTS` environment variable or the `--faults` flag) and threaded
//! through the event loop, the worker pool, and the snapshot loader as
//! an `Option<Arc<FaultPlane>>` — `None` in production, so every
//! injection point collapses to a single branch on an absent option.
//!
//! # Spec grammar
//!
//! Comma-separated `key=value` pairs:
//!
//! ```text
//! seed=42,worker_panic=0.05,conn_read_err=0.01,stall_ms=20,snapshot=bitflip
//! ```
//!
//! | key               | meaning                                          |
//! |-------------------|--------------------------------------------------|
//! | `seed`            | u64 seed for the decision stream (default 0)     |
//! | `conn_read_err`   | P(`ECONNRESET` on a connection read)             |
//! | `conn_read_short` | P(a read is truncated to one byte)               |
//! | `conn_write_err`  | P(`ECONNRESET` on a connection write)            |
//! | `conn_write_short`| P(a write is truncated to one byte)              |
//! | `eintr`           | P(`EINTR` on a connection read or write)         |
//! | `worker_panic`    | P(a worker panics instead of evaluating a job)   |
//! | `worker_stall`    | P(a worker sleeps `stall_ms` before evaluating)  |
//! | `stall_ms`        | stall duration in milliseconds (default 50)      |
//! | `spurious_wake`   | P(the poller reports zero events for a wait)     |
//! | `snapshot`        | `truncate` or `bitflip` the snapshot text on load|
//!
//! # Determinism
//!
//! Each injection point keeps its own draw counter; the decision for
//! draw *n* at point *p* is a pure function of `(seed, p, n)` via a
//! splitmix64 hash. The *set* of faults injected at each point is
//! therefore identical across runs with the same seed and the same
//! per-point draw counts, independent of thread interleaving — which
//! request absorbs which fault may vary, but the failure pressure does
//! not, so a chaos run at a fixed seed is reproducible in aggregate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Named fault-injection points, each with an independent probability
/// and decision stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// `ECONNRESET` surfaced from a connection read.
    ConnReadErr,
    /// A connection read truncated to a single byte.
    ConnReadShort,
    /// `ECONNRESET` surfaced from a connection write.
    ConnWriteErr,
    /// A connection write truncated to a single byte.
    ConnWriteShort,
    /// `EINTR` surfaced from a connection read or write.
    Eintr,
    /// A worker thread panics instead of evaluating its job.
    WorkerPanic,
    /// A worker thread sleeps for [`FaultPlane::stall`] before evaluating.
    WorkerStall,
    /// The poller reports zero ready events for one wait.
    SpuriousWake,
}

impl FaultPoint {
    /// Every injection point, in spec-key order.
    pub const ALL: [FaultPoint; 8] = [
        FaultPoint::ConnReadErr,
        FaultPoint::ConnReadShort,
        FaultPoint::ConnWriteErr,
        FaultPoint::ConnWriteShort,
        FaultPoint::Eintr,
        FaultPoint::WorkerPanic,
        FaultPoint::WorkerStall,
        FaultPoint::SpuriousWake,
    ];

    /// The spec key naming this point.
    pub fn key(self) -> &'static str {
        match self {
            FaultPoint::ConnReadErr => "conn_read_err",
            FaultPoint::ConnReadShort => "conn_read_short",
            FaultPoint::ConnWriteErr => "conn_write_err",
            FaultPoint::ConnWriteShort => "conn_write_short",
            FaultPoint::Eintr => "eintr",
            FaultPoint::WorkerPanic => "worker_panic",
            FaultPoint::WorkerStall => "worker_stall",
            FaultPoint::SpuriousWake => "spurious_wake",
        }
    }

    fn index(self) -> usize {
        FaultPoint::ALL.iter().position(|p| *p == self).unwrap_or(0)
    }
}

/// How to corrupt the snapshot text before parsing it on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFault {
    /// Drop the second half of the document (a torn write).
    Truncate,
    /// Flip one bit of one seed-chosen byte (silent media corruption).
    BitFlip,
}

const N_POINTS: usize = FaultPoint::ALL.len();
const DEFAULT_STALL_MS: u64 = 50;

/// A seeded, schedule-driven fault plane. See the module docs for the
/// spec grammar and determinism contract.
#[derive(Debug)]
pub struct FaultPlane {
    seed: u64,
    probs: [f64; N_POINTS],
    stall: Duration,
    snapshot: Option<SnapshotFault>,
    draws: [AtomicU64; N_POINTS],
    injected: [AtomicU64; N_POINTS],
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform f64 in [0, 1) using the top 53 bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlane {
    /// Parse a fault spec string. Returns a human-readable error for an
    /// unknown key, an unparsable value, or a probability outside
    /// `[0, 1]`. The empty string is a valid all-zero (inert) plane.
    pub fn parse(spec: &str) -> Result<FaultPlane, String> {
        let mut plane = FaultPlane {
            seed: 0,
            probs: [0.0; N_POINTS],
            stall: Duration::from_millis(DEFAULT_STALL_MS),
            snapshot: None,
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}`: expected key=value"))?;
            match key {
                "seed" => {
                    plane.seed = value
                        .parse()
                        .map_err(|_| format!("fault spec seed `{value}`: expected u64"))?;
                }
                "stall_ms" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| format!("fault spec stall_ms `{value}`: expected u64"))?;
                    plane.stall = Duration::from_millis(ms);
                }
                "snapshot" => {
                    plane.snapshot = Some(match value {
                        "truncate" => SnapshotFault::Truncate,
                        "bitflip" => SnapshotFault::BitFlip,
                        other => {
                            return Err(format!(
                                "fault spec snapshot `{other}`: expected truncate or bitflip"
                            ));
                        }
                    });
                }
                _ => {
                    let point = FaultPoint::ALL
                        .iter()
                        .find(|p| p.key() == key)
                        .ok_or_else(|| format!("fault spec: unknown key `{key}`"))?;
                    let p: f64 = value
                        .parse()
                        .map_err(|_| format!("fault spec {key} `{value}`: expected probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("fault spec {key} `{value}`: must be in [0, 1]"));
                    }
                    if let Some(slot) = plane.probs.get_mut(point.index()) {
                        *slot = p;
                    }
                }
            }
        }
        Ok(plane)
    }

    /// Build a plane from the `HL_FAULTS` environment variable.
    /// Returns `None` when the variable is unset or empty; a malformed
    /// spec is an error so typos don't silently disable chaos runs.
    pub fn from_env() -> Result<Option<Arc<FaultPlane>>, String> {
        match std::env::var("HL_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => Ok(Some(Arc::new(FaultPlane::parse(&spec)?))),
            _ => Ok(None),
        }
    }

    /// The seed this plane draws its decision stream from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draw the next decision for `point`: true means inject the fault.
    /// Each call advances that point's draw counter.
    pub fn fire(&self, point: FaultPoint) -> bool {
        let i = point.index();
        let (Some(&p), Some(draws)) = (self.probs.get(i), self.draws.get(i)) else {
            return false;
        };
        if p <= 0.0 {
            return false;
        }
        let n = draws.fetch_add(1, Ordering::Relaxed);
        // Salt the point index into the high bits so the streams of
        // different points at the same seed are independent.
        let h = splitmix64(self.seed ^ ((i as u64 + 1) << 56) ^ n);
        let hit = p >= 1.0 || unit(h) < p;
        if let (true, Some(injected)) = (hit, self.injected.get(i)) {
            injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// How long [`FaultPoint::WorkerStall`] sleeps when it fires.
    pub fn stall(&self) -> Duration {
        self.stall
    }

    /// The configured snapshot corruption mode, if any.
    pub fn snapshot_fault(&self) -> Option<SnapshotFault> {
        self.snapshot
    }

    /// Corrupt snapshot text in place per the configured mode. Returns
    /// true when the text was modified (a no-op without a `snapshot=`
    /// key or on an empty document).
    pub fn corrupt_snapshot(&self, text: &mut String) -> bool {
        let Some(mode) = self.snapshot else {
            return false;
        };
        if text.is_empty() {
            return false;
        }
        match mode {
            SnapshotFault::Truncate => {
                let cut = text.len() / 2;
                // Back off to a char boundary; snapshot text is ASCII
                // in practice but a torn write must not split a char.
                let cut = (0..=cut)
                    .rev()
                    .find(|&i| text.is_char_boundary(i))
                    .unwrap_or(0);
                text.truncate(cut);
            }
            SnapshotFault::BitFlip => {
                let mut bytes = std::mem::take(text).into_bytes();
                let i = splitmix64(self.seed ^ 0x5EED_5EED) as usize % bytes.len();
                // Flip a low bit that keeps ASCII bytes ASCII, so the
                // corrupted document is still valid UTF-8.
                if let Some(b) = bytes.get_mut(i) {
                    *b ^= if *b < 0x70 { 0x10 } else { 0x01 };
                }
                *text = String::from_utf8_lossy(&bytes).into_owned();
            }
        }
        true
    }

    /// How many times `point` has fired so far.
    pub fn injected(&self, point: FaultPoint) -> u64 {
        self.injected
            .get(point.index())
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Total faults injected across every point.
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_inert() {
        let plane = FaultPlane::parse("").expect("empty spec parses");
        for point in FaultPoint::ALL {
            for _ in 0..100 {
                assert!(!plane.fire(point), "{} fired at p=0", point.key());
            }
        }
        assert_eq!(plane.injected_total(), 0);
    }

    #[test]
    fn probability_one_always_fires() {
        let plane = FaultPlane::parse("seed=7,worker_panic=1.0").expect("spec parses");
        for _ in 0..50 {
            assert!(plane.fire(FaultPoint::WorkerPanic));
        }
        assert_eq!(plane.injected(FaultPoint::WorkerPanic), 50);
        assert!(!plane.fire(FaultPoint::WorkerStall));
    }

    #[test]
    fn decision_stream_is_deterministic_per_seed() {
        let spec = "seed=42,conn_read_err=0.3,worker_panic=0.1";
        let a = FaultPlane::parse(spec).expect("spec parses");
        let b = FaultPlane::parse(spec).expect("spec parses");
        for _ in 0..500 {
            assert_eq!(
                a.fire(FaultPoint::ConnReadErr),
                b.fire(FaultPoint::ConnReadErr)
            );
            assert_eq!(
                a.fire(FaultPoint::WorkerPanic),
                b.fire(FaultPoint::WorkerPanic)
            );
        }
        assert_eq!(
            a.injected(FaultPoint::ConnReadErr),
            b.injected(FaultPoint::ConnReadErr)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlane::parse("seed=1,conn_read_err=0.5").expect("spec parses");
        let b = FaultPlane::parse("seed=2,conn_read_err=0.5").expect("spec parses");
        let stream = |plane: &FaultPlane| -> Vec<bool> {
            (0..64)
                .map(|_| plane.fire(FaultPoint::ConnReadErr))
                .collect()
        };
        assert_ne!(stream(&a), stream(&b));
    }

    #[test]
    fn probabilities_land_near_target() {
        let plane = FaultPlane::parse("seed=9,eintr=0.25").expect("spec parses");
        let hits = (0..10_000)
            .filter(|_| plane.fire(FaultPoint::Eintr))
            .count();
        assert!((2000..3000).contains(&hits), "25% of 10k draws, got {hits}");
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(FaultPlane::parse("bogus=1").is_err());
        assert!(FaultPlane::parse("worker_panic=1.5").is_err());
        assert!(FaultPlane::parse("worker_panic=-0.1").is_err());
        assert!(FaultPlane::parse("worker_panic").is_err());
        assert!(FaultPlane::parse("seed=nope").is_err());
        assert!(FaultPlane::parse("snapshot=shred").is_err());
    }

    #[test]
    fn stall_and_snapshot_modes_parse() {
        let plane =
            FaultPlane::parse("stall_ms=120,snapshot=truncate,worker_stall=1").expect("parses");
        assert_eq!(plane.stall(), Duration::from_millis(120));
        assert_eq!(plane.snapshot_fault(), Some(SnapshotFault::Truncate));
        assert!(plane.fire(FaultPoint::WorkerStall));
    }

    #[test]
    fn truncate_halves_the_text() {
        let plane = FaultPlane::parse("snapshot=truncate").expect("parses");
        let mut text = "{\"format\":2,\"entries\":[1,2,3]}".to_string();
        let orig = text.clone();
        assert!(plane.corrupt_snapshot(&mut text));
        assert_eq!(text.len(), orig.len() / 2);
        assert!(orig.starts_with(&text));
    }

    #[test]
    fn bitflip_changes_exactly_one_byte() {
        let plane = FaultPlane::parse("seed=3,snapshot=bitflip").expect("parses");
        let orig = "{\"format\":2,\"crc32\":\"deadbeef\",\"entries\":[]}".to_string();
        let mut text = orig.clone();
        assert!(plane.corrupt_snapshot(&mut text));
        assert_eq!(text.len(), orig.len());
        let diffs = orig
            .bytes()
            .zip(text.bytes())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn corruption_without_mode_is_a_no_op() {
        let plane = FaultPlane::parse("worker_panic=1").expect("parses");
        let mut text = "{\"format\":2}".to_string();
        assert!(!plane.corrupt_snapshot(&mut text));
        assert_eq!(text, "{\"format\":2}");
    }
}
