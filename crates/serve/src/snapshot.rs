//! Disk persistence for the engine's [`EvalCache`] and the surrogate's
//! retention scores: the server saves both on graceful drain and re-loads
//! them on boot, so a restarted server answers its steady-state traffic,
//! first co-design searches included, from warm caches.
//!
//! The snapshot (format 6) is a fixed little-endian binary layout.
//! Integers are unsigned, every `f64` is stored as its IEEE bit pattern
//! (so it round-trips bit for bit), and every length and count is a `u64`:
//!
//! ```text
//! header   magic        6 bytes "HLSNAP"
//!          format       u32 = 6
//!          fingerprint  u64 length, UTF-8 ("hl-snap-v6:…")
//!          crc32        u32, IEEE CRC-32 of the payload
//!          length       u64, payload bytes
//! payload  strings      u64 count, then per string a u64 length and UTF-8
//!          entries      u64 count, then per entry
//!                         design u32 · m, k, n u64 · a operand · b operand · outcome
//!          scores       u64 count, then per score
//!                         rows, cols u64 · config operand · seed u64 · value f64
//! operand  u8 tag       0 dense
//!                       1 unstructured: the degree's f64 bits
//!                       2 HSS: u32 rank count, then g, h u32 per rank
//! outcome  u8 tag       0 cost: cycles f64 · u16 component mask, then
//!                         pJ f64 per set bit, lowest bit first
//!                       1 unsupported: reason u32
//! ```
//!
//! An entry holds what the evaluation cache holds, a [`Cost`] or an
//! unsupported reason, and no design or workload name: the engine names
//! each report on the way out. A cost's mask and values are its
//! [`PackedEnergy`]'s: bit `i` stands for `Comp::ALL[i]`, set even for a
//! component recorded at 0 pJ. Design
//! `Debug` fingerprints and unsupported reasons are stored once in the
//! sorted string table, and entries name them by `u32` index. Every
//! loaded key of one design shares one [`DesignFingerprint`], and every
//! loaded entry of one reason shares one `Arc<str>`. HSS ranks are listed
//! highest rank first. Each score is one [`RetentionCache`] score:
//! the retained-norm fraction of a `rows × cols` proxy synthesized from
//! `seed` under the pruning `config`. A retention hit reads nothing but
//! its score, so the scores alone restore a warm surrogate; the weight
//! streams, argsorts and masks behind them are not persisted.
//!
//! Cached results are only valid for the code that produced them. The
//! `fingerprint` hashes the format, every registered design's `Debug`
//! configuration fingerprint, the model registry, and a **canary**: the
//! results this binary computes for a fixed probe set — `evaluate_best`
//! for every design on a few shapes and degrees (some of them
//! unsupported), and uncached surrogate losses of a tiny two-layer model
//! under an unstructured, a one-rank and a two-rank configuration. A
//! change to an energy formula, a technology table or a surrogate kernel
//! changes the canary, so a snapshot another build wrote is refused by
//! construction (the server boots cold instead of serving stale numbers).
//!
//! [`load`] checks, in order:
//!
//! 1. the magic and the format. A format-5 file (binary, with names in
//!    every entry) is refused as `unsupported format 5`. Every earlier
//!    format (1 to 4) was one JSON document, so a file that starts with
//!    `{` is read with the pull [`Reader`] only as far as its `format`
//!    member and refused as `unsupported format N`;
//! 2. the fingerprint;
//! 3. the payload length (no byte missing, none trailing) and the CRC over
//!    the payload, computed slice-by-8 (eight table lookups per eight-byte
//!    word), so a torn write or silent media corruption is refused as
//!    [`SnapshotError::ChecksumMismatch`] before a single entry is
//!    trusted;
//! 4. every string, entry and score as the decoder reaches it: UTF-8
//!    strings, string indices, dimensions and seeds (at most 2⁵³, and
//!    dimensions at least 1), G:H ranks, known tags, component masks
//!    (no bit at or past 13, the size of `Comp::ALL`), energy signs,
//!    finite values, and no byte after the scores.
//!
//! The decoder is a bounds-checked byte cursor: a read past the end, an
//! unknown tag or a field out of range is a [`SnapshotError::Malformed`]
//! naming the field, never a panic, and no count is trusted to size an
//! allocation beyond what the remaining bytes can hold. Entries decode
//! straight into the table the evaluation cache takes over
//! ([`Memo::preload_table`](hl_sim::engine::Memo::preload_table)). Every
//! entry and every score is decoded before either cache changes, so a
//! load either restores the whole snapshot or leaves both caches
//! untouched. Every load failure is reported: the serving layer logs it
//! and boots cold.
//!
//! The string table is sorted, and entries and scores are written in the
//! byte order of their encodings, so save → load → save is byte-identical
//! (the in-memory memos are `HashMap`s with nondeterministic iteration
//! order).

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hl_arch::PackedEnergy;
use hl_models::accuracy::{accuracy_loss, PruningConfig, RetentionCache, RetentionScore};
use hl_models::{DnnModel, LayerKind, LayerSpec};
use hl_sim::engine::{DesignFingerprint, EvalCache, EvalKey, OperandKey};
use hl_sim::{Cost, EvalResult, OperandSparsity, Unsupported, Workload};
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::GemmShape;

use crate::faults::FaultPlane;
use crate::json::{Json, JsonError, Reader};
use crate::log::Logger;

/// Snapshot format version; bumped on any encoding change (v2 added the
/// `crc32` payload checksum, v3 the string table and positional entries,
/// v4 the retention scores and the canary in the fingerprint, v5 the
/// binary layout, v6 entries without names and component masks).
pub const FORMAT: u32 = 6;

/// The first bytes of every snapshot this binary writes.
pub const MAGIC: &[u8; 6] = b"HLSNAP";

/// Why a snapshot could not be loaded (`thiserror` idiom: structured
/// variants, hand-written `Display`, `std::error::Error`).
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file is not a snapshot this binary reads: another magic or
    /// format, a truncated header or payload, a bad field, trailing bytes.
    Malformed(String),
    /// The snapshot was produced by a different build: another design or
    /// model registry, or code that answers the canary differently.
    FingerprintMismatch {
        /// What the running binary expects.
        expected: String,
        /// What the file carries.
        found: String,
    },
    /// The payload bytes do not match the stored CRC-32 — a torn write
    /// or bit rot.
    ChecksumMismatch {
        /// The checksum the file claims (lowercase hex).
        stored: String,
        /// The checksum of the payload actually on disk.
        computed: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            Self::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint {found} does not match this binary's \
                 {expected}; refusing stale cache entries"
            ),
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot payload checksum {computed} does not match the \
                 stored crc32 {stored}; the file is truncated or corrupt"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(msg.into())
}

/// One cached evaluation outcome.
type Outcome = Result<Cost, Arc<str>>;

/// `steps` shift steps of the reflected CRC-32 register (polynomial
/// 0xEDB88320) starting from `crc`.
const fn crc_steps(mut crc: u32, steps: u32) -> u32 {
    let mut step = 0;
    while step < steps {
        crc = if crc & 1 == 1 {
            (crc >> 1) ^ 0xEDB8_8320
        } else {
            crc >> 1
        };
        step += 1;
    }
    crc
}

/// The slice-by-8 lookup tables for [`crc32`], built at compile time.
/// `CRC_TABLES[k][b]` is what byte `b` followed by `k` zero bytes
/// contributes to the register, so table 0 is the byte-at-a-time table.
#[expect(
    clippy::indexing_slicing,
    reason = "evaluated at compile time with k < 8 and b < 256"
)]
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            tables[k][b] = crc_steps(b as u32, 8 * (k as u32 + 1));
            b += 1;
        }
        k += 1;
    }
    tables
};

#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "a u8 always indexes the 256-entry table"
)]
fn crc_lookup(table: &[u32; 256], byte: u8) -> u32 {
    table[usize::from(byte)]
}

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320), slice-by-8: eight
/// table lookups per eight-byte word, then one per trailing byte.
fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = 0xFFFF_FFFFu32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = crc_lookup(t7, b0 ^ c0)
            ^ crc_lookup(t6, b1 ^ c1)
            ^ crc_lookup(t5, b2 ^ c2)
            ^ crc_lookup(t4, b3 ^ c3)
            ^ crc_lookup(t3, b4)
            ^ crc_lookup(t2, b5)
            ^ crc_lookup(t1, b6)
            ^ crc_lookup(t0, b7);
    }
    for &b in tail {
        crc = crc_lookup(t0, (crc as u8) ^ b) ^ (crc >> 8);
    }
    !crc
}

// Operand tags.
const DENSE: u8 = 0;
const UNSTRUCTURED: u8 = 1;
const HSS: u8 = 2;

// Outcome tags.
const COST: u8 = 0;
const UNSUPPORTED: u8 = 1;

// The fewest bytes a string, an entry and a score take: what bounds the
// capacity a count may claim.
const MIN_STRING: usize = 8;
const MIN_ENTRY: usize = 4 + 3 * 8 + 1 + 1 + 1 + 4;
const MIN_SCORE: usize = 2 * 8 + 1 + 8 + 8;

/// The largest dimension and seed the format holds: every integer up to
/// 2⁵³ is exact in an `f64`, the bound the JSON formats had.
const MAX_EXACT: u64 = 1 << 53;

/// What this binary computes for the canary's fixed probe set.
#[derive(Debug, Clone)]
struct Canary {
    /// `evaluate_best` of every design on every probe workload.
    evals: Vec<Result<EvalResult, Unsupported>>,
    /// Uncached surrogate losses of the probe model, one per probe config.
    losses: Vec<f64>,
}

impl Canary {
    /// Runs the probe set: every design × two shapes × three operand
    /// pairs (S2TA and DSSO answer some of them `Unsupported`), and a
    /// two-layer model under an unstructured, a one-rank and a two-rank
    /// configuration.
    fn probe() -> Self {
        let two_rank = HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4));
        let operands = [
            (OperandSparsity::Dense, OperandSparsity::Dense),
            (OperandSparsity::unstructured(0.5), OperandSparsity::Dense),
            (
                OperandSparsity::Hss(two_rank.clone()),
                OperandSparsity::unstructured(0.25),
            ),
        ];
        let mut evals = Vec::new();
        for id in hl_eval::DesignId::ALL {
            let design = id.build();
            for shape in [GemmShape::new(64, 64, 64), GemmShape::new(512, 256, 128)] {
                for (a, b) in &operands {
                    let workload = Workload::new("canary", shape, a.clone(), b.clone());
                    evals.push(design.evaluate_best(&workload));
                }
            }
        }
        let layer = |name: &str, m, k| {
            LayerSpec::new(
                name,
                LayerKind::Linear,
                GemmShape::new(m, k, 8),
                1,
                true,
                0.0,
            )
        };
        let model = DnnModel {
            name: "canary".into(),
            metric: "top-1 %",
            dense_accuracy: 75.0,
            sensitivity: 1.0,
            layers: vec![layer("fc1", 8, 32), layer("fc2", 4, 64)],
        };
        let losses = [
            PruningConfig::Unstructured { sparsity: 0.5 },
            PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4))),
            PruningConfig::Hss(two_rank),
        ]
        .iter()
        .map(|config| accuracy_loss(&model, config))
        .collect();
        Self { evals, losses }
    }
}

/// The cache-compatibility fingerprint of the running binary: an FNV-1a
/// hash over the snapshot format version, every registered design's
/// `Debug` configuration fingerprint, the model registry, and this
/// binary's canary results.
pub fn cache_fingerprint() -> String {
    fingerprint(&Canary::probe())
}

/// [`cache_fingerprint`] over given canary results: the probe outcomes
/// hash through `Debug` (shortest round-trip `f64`s) and the losses by
/// their bits, so a one-ulp change anywhere changes the fingerprint.
fn fingerprint(canary: &Canary) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff; // field separator so concatenations can't collide
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(FORMAT.to_le_bytes().as_slice());
    for id in hl_eval::DesignId::ALL {
        eat(format!("{:?}", id.build()).as_bytes());
    }
    for name in hl_models::model_names() {
        eat(name.as_bytes());
    }
    for outcome in &canary.evals {
        eat(format!("{outcome:?}").as_bytes());
    }
    for loss in &canary.losses {
        eat(loss.to_bits().to_le_bytes().as_slice());
    }
    format!("hl-snap-v{FORMAT}:{h:016x}")
}

/// What a successful [`save`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Saved {
    /// Evaluation-cache entries written.
    pub entries: usize,
    /// Retention scores written.
    pub scores: usize,
    /// Size of the snapshot file in bytes.
    pub bytes: usize,
}

/// Writes both caches to `path` (atomically: temp file + rename). The
/// string table and the entries encode straight from the evaluation
/// cache's stored pairs, under its lock, without copying any of them.
///
/// # Errors
/// [`SnapshotError::Io`].
pub fn save(
    cache: &EvalCache,
    retention: &RetentionCache,
    path: &Path,
) -> Result<Saved, SnapshotError> {
    let mut payload = Vec::new();
    // Only the encoding holds the lock; the sort runs after it.
    let entries = cache.walk(|entries| {
        let strings = StringTable::new(entries.clone());
        strings.write(&mut payload);
        Encoded::new(entries, |out, (key, value)| {
            strings.write_entry(out, key, value)
        })
    });
    let entries = entries.write_sorted(&mut payload);
    let scores = Encoded::new(retention.scores().iter(), write_score).write_sorted(&mut payload);
    let fingerprint = cache_fingerprint();
    let mut header = Vec::with_capacity(MAGIC.len() + 4 + 8 + fingerprint.len() + 4 + 8);
    header.extend_from_slice(MAGIC);
    put_u32(&mut header, FORMAT);
    put_str(&mut header, &fingerprint);
    put_u32(&mut header, crc32(&payload));
    put_u64(&mut header, payload.len() as u64);

    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&header)?;
        f.write_all(&payload)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(Saved {
        entries,
        scores,
        bytes: header.len() + payload.len(),
    })
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Items encoded back to back, with each one's span.
struct Encoded(Vec<u8>, Vec<Range<usize>>);

impl Encoded {
    fn new<T>(
        items: impl ExactSizeIterator<Item = T>,
        mut encode: impl FnMut(&mut Vec<u8>, T),
    ) -> Self {
        let mut spans = Vec::with_capacity(items.len());
        let mut bytes = Vec::new();
        for item in items {
            let start = bytes.len();
            encode(&mut bytes, item);
            spans.push(start..bytes.len());
        }
        Self(bytes, spans)
    }

    /// Writes the count, then the encodings in byte order, and returns the
    /// count: the memos are `HashMap`s, so sorting makes identical caches
    /// write identical bytes (asserted by the round-trip tests). The keys
    /// are distinct, so no two encodings tie.
    fn write_sorted(self, out: &mut Vec<u8>) -> usize {
        let Self(encoded, mut spans) = self;
        let bytes = |span: &Range<usize>| encoded.get(span.clone()).unwrap_or_default();
        spans.sort_unstable_by(|a, b| bytes(a).cmp(bytes(b)));
        put_u64(out, spans.len() as u64);
        out.reserve(encoded.len());
        for span in &spans {
            out.extend_from_slice(bytes(span));
        }
        spans.len()
    }
}

fn write_operand(out: &mut Vec<u8>, key: &OperandKey) {
    match key {
        OperandKey::Dense => out.push(DENSE),
        OperandKey::Unstructured(bits) => {
            out.push(UNSTRUCTURED);
            put_u64(out, *bits);
        }
        OperandKey::Hss(p) => {
            out.push(HSS);
            put_u32(out, p.ranks().len() as u32);
            for gh in p.ranks() {
                put_u32(out, gh.g);
                put_u32(out, gh.h);
            }
        }
    }
}

fn write_score(out: &mut Vec<u8>, ((rows, cols, config, seed), value): &RetentionScore) {
    put_u64(out, *rows as u64);
    put_u64(out, *cols as u64);
    write_operand(out, config);
    put_u64(out, *seed);
    put_f64(out, *value);
}

/// The sorted, deduplicated table of every string a snapshot's entries
/// refer to.
struct StringTable<'a>(Vec<&'a str>);

impl<'a> StringTable<'a> {
    /// Collects each distinct design and reason once (the fingerprints
    /// hash their digest), then sorts the few distinct strings.
    fn new(entries: impl Iterator<Item = (&'a EvalKey, &'a Outcome)>) -> Self {
        let mut designs = HashSet::new();
        let mut reasons = HashSet::new();
        for (key, value) in entries {
            designs.insert(&key.design);
            reasons.extend(value.as_ref().err().map(|reason| &**reason));
        }
        let mut table: Vec<&str> = designs.into_iter().map(|d| &**d).chain(reasons).collect();
        table.sort_unstable();
        table.dedup();
        Self(table)
    }

    fn write(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0.len() as u64);
        for s in &self.0 {
            put_str(out, s);
        }
    }

    /// The index of `s`, which the table holds by construction.
    fn index(&self, s: &str) -> u32 {
        self.0.partition_point(|t| *t < s) as u32
    }

    fn write_entry(&self, out: &mut Vec<u8>, key: &EvalKey, value: &Outcome) {
        put_u32(out, self.index(&key.design));
        for dim in [key.shape.m, key.shape.k, key.shape.n] {
            put_u64(out, dim as u64);
        }
        write_operand(out, &key.a);
        write_operand(out, &key.b);
        match value {
            Ok(cost) => {
                out.push(COST);
                put_f64(out, cost.cycles);
                out.extend_from_slice(&cost.energy.mask().to_le_bytes());
                for &pj in cost.energy.amounts() {
                    put_f64(out, pj);
                }
            }
            Err(reason) => {
                out.push(UNSUPPORTED);
                put_u32(out, self.index(reason));
            }
        }
    }
}

/// What a successful [`load_logged`] restored, and where its time went.
/// The four stage times, in milliseconds, run back to back and sum to at
/// most the `load_ms` the server logs.
#[derive(Debug, Clone, Copy)]
pub struct Loaded {
    /// Entries preloaded into the evaluation cache.
    pub entries: usize,
    /// Scores preloaded into the retention cache.
    pub scores: usize,
    /// Size of the snapshot file in bytes.
    pub bytes: usize,
    /// Reading the file (and any injected corruption).
    pub read_ms: f64,
    /// Checking the magic, the format, the fingerprint and the payload
    /// length and CRC.
    pub check_ms: f64,
    /// Decoding every string, entry and score.
    pub decode_ms: f64,
    /// Handing the decoded tables over to both caches.
    pub preload_ms: f64,
}

/// Loads a snapshot's evaluation-cache entries into `cache` (hit/miss
/// counters untouched; live entries win over preloaded ones), returning
/// the number of entries loaded. The scores are checked like the entries
/// and then dropped.
///
/// # Errors
/// [`SnapshotError`] — including [`SnapshotError::FingerprintMismatch`]
/// when the file was produced by a different build and
/// [`SnapshotError::ChecksumMismatch`] when the payload fails its CRC.
/// On any error the cache is left untouched.
pub fn load(cache: &EvalCache, path: &Path) -> Result<usize, SnapshotError> {
    load_logged(cache, &RetentionCache::new(), path, None, None).map(|loaded| loaded.entries)
}

/// Loads a snapshot into both caches — the server's boot path — with an
/// optional fault plane corrupting the file's bytes in memory before they
/// are checked: the chaos harness' way of proving a truncated or
/// bit-flipped snapshot is rejected and boots cold, without actually
/// tearing files on disk.
///
/// With a structured logger (and the server's boot-scoped trace id) the
/// outcome is logged: `snapshot_loaded` with the entry and score counts,
/// the file size, the load time and its four stages (`read_ms`,
/// `check_ms`, `decode_ms`, `preload_ms`), or `snapshot_load_failed` with
/// the reason. A missing file is silent (a first boot), as is every
/// outcome with `None`. Injected corruption is logged as `fault_injected`.
///
/// # Errors
/// As [`load`]. On any error both caches are left untouched.
pub fn load_logged(
    cache: &EvalCache,
    retention: &RetentionCache,
    path: &Path,
    faults: Option<&FaultPlane>,
    log: Option<(&Logger, &str)>,
) -> Result<Loaded, SnapshotError> {
    let started = Instant::now();
    let result = read_and_preload(cache, retention, path, faults, log);
    if let Some((logger, trace_id)) = log {
        let trace_id = ("trace_id", Json::str(trace_id));
        let path = ("path", Json::str(path.display().to_string()));
        match &result {
            Ok(loaded) => logger.info(
                "snapshot_loaded",
                &[
                    trace_id,
                    path,
                    ("entries", Json::Num(loaded.entries as f64)),
                    ("scores", Json::Num(loaded.scores as f64)),
                    ("bytes", Json::Num(loaded.bytes as f64)),
                    ("load_ms", Json::Num(millis(started.elapsed()))),
                    ("read_ms", Json::Num(loaded.read_ms)),
                    ("check_ms", Json::Num(loaded.check_ms)),
                    ("decode_ms", Json::Num(loaded.decode_ms)),
                    ("preload_ms", Json::Num(loaded.preload_ms)),
                ],
            ),
            Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => logger.warn(
                "snapshot_load_failed",
                &[trace_id, path, ("error", Json::str(e.to_string()))],
            ),
        }
    }
    result
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reads, checks and decodes the snapshot at `path`, then hands the
/// decoded tables to both caches, timing each stage.
fn read_and_preload(
    cache: &EvalCache,
    retention: &RetentionCache,
    path: &Path,
    faults: Option<&FaultPlane>,
    log: Option<(&Logger, &str)>,
) -> Result<Loaded, SnapshotError> {
    let started = Instant::now();
    let mut bytes = std::fs::read(path)?;
    let size = bytes.len();
    let corrupted = faults.is_some_and(|plane| plane.corrupt_snapshot(&mut bytes));
    if let (true, Some((logger, trace_id))) = (corrupted, log) {
        logger.warn(
            "fault_injected",
            &[
                ("point", Json::str("snapshot_corrupt")),
                ("trace_id", Json::str(trace_id)),
                ("path", Json::str(path.display().to_string())),
            ],
        );
    }
    let read = Instant::now();
    let payload = check(&bytes)?;
    let checked = Instant::now();
    let Decoded { entries, scores } = decode(payload)?;
    let decoded = Instant::now();
    let (n_entries, n_scores) = (entries.len(), scores.len());
    // Hand over only once every entry and score has decoded: a bad one
    // anywhere leaves both caches as cold as the boot the server logs.
    cache.preload_table(entries);
    retention.preload_scores(scores);
    Ok(Loaded {
        entries: n_entries,
        scores: n_scores,
        bytes: size,
        read_ms: millis(read.duration_since(started)),
        check_ms: millis(checked.duration_since(read)),
        decode_ms: millis(decoded.duration_since(checked)),
        preload_ms: millis(decoded.elapsed()),
    })
}

/// A decoded snapshot: the evaluation cache's table and the scores.
struct Decoded {
    entries: HashMap<EvalKey, Outcome>,
    scores: Vec<RetentionScore>,
}

/// A bounds-checked little-endian reader over a snapshot's bytes. Every
/// read names its field, so a read past the end is a
/// [`SnapshotError::Malformed`] that says what was cut off.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    fn truncated(&self, what: &str, needed: usize) -> SnapshotError {
        malformed(format!(
            "truncated: the {what} needs {needed} bytes, {} remain",
            self.bytes.len()
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let (head, rest) = self
            .bytes
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(what, n))?;
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], SnapshotError> {
        let (head, rest) = self
            .bytes
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(what, N))?;
        self.bytes = rest;
        Ok(*head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapshotError> {
        self.array::<1>(what).map(|[b]| b)
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        self.array(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        self.array(what).map(u64::from_le_bytes)
    }

    fn f64(&mut self, what: &str) -> Result<f64, SnapshotError> {
        self.u64(what).map(f64::from_bits)
    }

    /// A `u64`-length-prefixed run of bytes.
    fn prefixed(&mut self, what: &str) -> Result<&'a [u8], SnapshotError> {
        let len = self.u64(what)?;
        let len = usize::try_from(len).map_err(|_| self.truncated(what, usize::MAX))?;
        self.take(len, what)
    }

    /// A `u64`-length-prefixed UTF-8 string.
    fn str(&mut self, what: &str) -> Result<&'a str, SnapshotError> {
        let bytes = self.prefixed(what)?;
        std::str::from_utf8(bytes).map_err(|e| malformed(format!("the {what} is not UTF-8: {e}")))
    }

    /// The capacity to reserve for `count` items of at least `min_bytes`
    /// each: no more than the remaining bytes can hold, so a corrupt
    /// count fails as a truncation instead of a huge allocation.
    fn capacity(&self, count: u64, min_bytes: usize) -> usize {
        usize::try_from(count)
            .unwrap_or(usize::MAX)
            .min(self.bytes.len() / min_bytes)
    }
}

/// Checks a snapshot's magic and format, its fingerprint, and its payload
/// length and CRC, in that order, and returns the payload.
fn check(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.first() == Some(&b'{') {
        return Err(json_snapshot(bytes));
    }
    let mut c = Cursor::new(bytes);
    if c.array("magic")? != *MAGIC {
        return Err(malformed(
            "not a snapshot: the file does not start with HLSNAP",
        ));
    }
    let format = c.u32("format")?;
    if format != FORMAT {
        return Err(malformed(format!("unsupported format {format}")));
    }
    let found = c.prefixed("fingerprint")?;
    let expected = cache_fingerprint();
    if found != expected.as_bytes() {
        return Err(SnapshotError::FingerprintMismatch {
            expected,
            found: String::from_utf8_lossy(found).into_owned(),
        });
    }
    let stored = c.u32("crc32")?;
    let length = c.u64("payload length")?;
    let payload = c.bytes;
    if length != payload.len() as u64 {
        return Err(malformed(format!(
            "the header announces a {length}-byte payload, {} bytes follow it",
            payload.len()
        )));
    }
    let computed = crc32(payload);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch {
            stored: format!("{stored:08x}"),
            computed: format!("{computed:08x}"),
        });
    }
    Ok(payload)
}

/// The refusal of a JSON document, which every snapshot format before 5
/// was: it names the document's `format` when its first member holds one.
fn json_snapshot(bytes: &[u8]) -> SnapshotError {
    // Only the first member is read, so the valid UTF-8 prefix will do.
    let text = match std::str::from_utf8(bytes) {
        Ok(text) => text,
        Err(e) => bytes
            .get(..e.valid_up_to())
            .and_then(|valid| std::str::from_utf8(valid).ok())
            .unwrap_or_default(),
    };
    match json_format(text) {
        Ok(Some(format)) => malformed(format!("unsupported format {format} (a JSON snapshot)")),
        Ok(None) => malformed("a JSON document whose first member is not \"format\""),
        Err(e) => malformed(format!("a JSON document that is not a snapshot: {e}")),
    }
}

/// The `format` member a JSON document starts with, if it does.
fn json_format(text: &str) -> Result<Option<f64>, JsonError> {
    let mut r = Reader::new(text);
    r.enter_object()?;
    match r.next_key()? {
        Some(key) if key == "format" => r.number().map(Some),
        _ => Ok(None),
    }
}

/// Decodes the payload [`check`] verified: the string table, then every
/// entry straight into the table the evaluation cache takes over, then
/// every score, and nothing after them.
fn decode(payload: &[u8]) -> Result<Decoded, SnapshotError> {
    let mut c = Cursor::new(payload);
    let count = c.u64("string count")?;
    let mut strings = Vec::with_capacity(c.capacity(count, MIN_STRING));
    for _ in 0..count {
        strings.push(TableString {
            text: c.str("string")?,
            design: OnceCell::new(),
            reason: OnceCell::new(),
        });
    }
    let count = c.u64("entry count")?;
    let mut entries = HashMap::with_capacity(c.capacity(count, MIN_ENTRY));
    for _ in 0..count {
        let (key, value) = entry(&mut c, &strings)?;
        entries.entry(key).or_insert(value);
    }
    let count = c.u64("score count")?;
    let mut scores = Vec::with_capacity(c.capacity(count, MIN_SCORE));
    for _ in 0..count {
        scores.push(score(&mut c)?);
    }
    if !c.bytes.is_empty() {
        return Err(malformed(format!(
            "{} bytes after the scores",
            c.bytes.len()
        )));
    }
    Ok(Decoded { entries, scores })
}

/// One string of a snapshot's table, borrowed from the file's bytes and
/// shared by every entry naming it.
struct TableString<'a> {
    text: &'a str,
    /// The string as a design fingerprint, made (and its digest computed)
    /// by the first entry that names it as a design.
    design: OnceCell<DesignFingerprint>,
    /// The string as an unsupported reason, made by the first entry that
    /// names it as one.
    reason: OnceCell<Arc<str>>,
}

/// The string-table entry an index names.
fn string_at<'t, 'a>(
    strings: &'t [TableString<'a>],
    c: &mut Cursor<'_>,
    what: &str,
) -> Result<&'t TableString<'a>, SnapshotError> {
    let i = c.u32(what)?;
    strings.get(i as usize).ok_or_else(|| {
        malformed(format!(
            "the {what} {i} is not an index into the {}-string table",
            strings.len()
        ))
    })
}

fn entry(
    c: &mut Cursor<'_>,
    strings: &[TableString<'_>],
) -> Result<(EvalKey, Outcome), SnapshotError> {
    let string = string_at(strings, c, "entry design")?;
    let design = string
        .design
        .get_or_init(|| DesignFingerprint::from(string.text))
        .clone();
    let m = dim(c)?;
    let k = dim(c)?;
    let n = dim(c)?;
    let a = operand(c)?;
    let b = operand(c)?;
    let value = outcome(c, strings)?;
    let shape = GemmShape::new(m, k, n);
    Ok((
        EvalKey {
            design,
            shape,
            a,
            b,
        },
        value,
    ))
}

fn outcome(c: &mut Cursor<'_>, strings: &[TableString<'_>]) -> Result<Outcome, SnapshotError> {
    match c.u8("outcome tag")? {
        COST => cost(c).map(Ok),
        UNSUPPORTED => {
            let string = string_at(strings, c, "unsupported reason")?;
            let reason = string.reason.get_or_init(|| string.text.into());
            Ok(Err(Arc::clone(reason)))
        }
        tag => Err(malformed(format!("unknown outcome tag {tag}"))),
    }
}

fn cost(c: &mut Cursor<'_>) -> Result<Cost, SnapshotError> {
    let cycles = c.f64("cycles")?;
    if !cycles.is_finite() {
        return Err(malformed(format!("bad cycles {cycles}")));
    }
    let mask = c.array("component mask").map(u16::from_le_bytes)?;
    let pj: Box<[f64]> = (0..mask.count_ones())
        .map(|_| c.f64("energy"))
        .collect::<Result<_, _>>()?;
    let energy = PackedEnergy::new(mask, pj)
        .ok_or_else(|| malformed(format!("bad energy under component mask {mask:#06x}")))?;
    Ok(Cost { cycles, energy })
}

fn score(c: &mut Cursor<'_>) -> Result<RetentionScore, SnapshotError> {
    let rows = dim(c)?;
    let cols = dim(c)?;
    let config = operand(c)?;
    let seed = c.u64("score seed")?;
    if seed > MAX_EXACT {
        return Err(malformed(format!("bad score seed {seed}")));
    }
    let value = c.f64("score value")?;
    if !value.is_finite() {
        return Err(malformed(format!("bad score value {value}")));
    }
    Ok(((rows, cols, config, seed), value))
}

fn operand(c: &mut Cursor<'_>) -> Result<OperandKey, SnapshotError> {
    match c.u8("operand tag")? {
        DENSE => Ok(OperandKey::Dense),
        UNSTRUCTURED => c.u64("unstructured degree").map(OperandKey::Unstructured),
        HSS => {
            let count = c.u32("HSS rank count")?;
            let mut ranks = Vec::with_capacity(c.capacity(u64::from(count), 8));
            for _ in 0..count {
                let g = c.u32("HSS G")?;
                let h = c.u32("HSS H")?;
                ranks.push(Gh::try_new(g, h).map_err(|e| malformed(e.to_string()))?);
            }
            Ok(OperandKey::Hss(HssPattern::new(ranks)))
        }
        tag => Err(malformed(format!("unknown operand tag {tag}"))),
    }
}

fn dim(c: &mut Cursor<'_>) -> Result<usize, SnapshotError> {
    let d = c.u64("shape dimension")?;
    usize::try_from(d)
        .ok()
        .filter(|_| (1..=MAX_EXACT).contains(&d))
        .ok_or_else(|| malformed(format!("bad shape dimension {d}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_arch::Comp;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "hl-snap-test-{}-{seq}-{tag}.snap",
            std::process::id()
        ))
    }

    fn sample_cache() -> EvalCache {
        let cache = EvalCache::new();
        let mut energy = hl_arch::EnergyBreakdown::new();
        energy.record(Comp::Mac, 123.456789);
        energy.record(Comp::Dram, 0.1 + 0.2); // non-terminating f64
        energy.record(Comp::Vfmu, 0.0); // recorded at 0 pJ: present all the same
        let energy = energy.packed();
        let cost = Cost {
            cycles: 1.0e9 + 0.25,
            energy,
        };
        cache.preload([
            (
                EvalKey {
                    design: "HighLight { tiles: 16 }".into(),
                    shape: GemmShape::new(1024, 768, 512),
                    a: OperandKey::Hss(HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4))),
                    b: OperandKey::Dense,
                },
                Ok(cost),
            ),
            (
                EvalKey {
                    design: "S2TA { .. }".into(),
                    shape: GemmShape::new(64, 64, 64),
                    a: OperandKey::Unstructured(0.55_f64.to_bits()),
                    b: OperandKey::Unstructured(0.25_f64.to_bits()),
                },
                Err("dense A".into()),
            ),
        ]);
        cache
    }

    fn sample_retention() -> RetentionCache {
        let retention = RetentionCache::new();
        retention.preload_scores([
            (
                (
                    64,
                    1024,
                    OperandKey::Unstructured(0.5_f64.to_bits()),
                    0xACC0,
                ),
                0.9,
            ),
            (
                (
                    64,
                    512,
                    OperandKey::Hss(HssPattern::one_rank(Gh::new(2, 4))),
                    0xACC1,
                ),
                0.1 + 0.7, // non-terminating f64
            ),
        ]);
        retention
    }

    /// Format-6 fields, appended in order: the tests' way of writing
    /// payloads `save` never would.
    #[derive(Default)]
    struct Bytes(Vec<u8>);

    impl Bytes {
        fn u8(mut self, v: u8) -> Self {
            self.0.push(v);
            self
        }
        fn u16(mut self, v: u16) -> Self {
            self.0.extend_from_slice(&v.to_le_bytes());
            self
        }
        fn u32(mut self, v: u32) -> Self {
            put_u32(&mut self.0, v);
            self
        }
        fn u64(mut self, v: u64) -> Self {
            put_u64(&mut self.0, v);
            self
        }
        fn f64(mut self, v: f64) -> Self {
            put_f64(&mut self.0, v);
            self
        }
        fn str(mut self, s: &str) -> Self {
            put_str(&mut self.0, s);
            self
        }
        fn raw(mut self, bytes: &[u8]) -> Self {
            self.0.extend_from_slice(bytes);
            self
        }
    }

    /// A two-string table: a design fingerprint (0) and an unsupported
    /// reason (1).
    fn strings() -> Bytes {
        Bytes::default()
            .u64(2)
            .str("HighLight { tiles: 16 }")
            .str("dense A")
    }

    /// An entry's design index and an `m × k × n` shape.
    fn key(design: u32, [m, k, n]: [u64; 3]) -> Bytes {
        Bytes::default().u32(design).u64(m).u64(k).u64(n)
    }

    /// A well-formed entry: design 0 on dense 8 × 8 × 8, unsupported.
    fn good_entry() -> Bytes {
        key(0, [8, 8, 8]).u8(DENSE).u8(DENSE).u8(UNSUPPORTED).u32(1)
    }

    /// A well-formed score: a 64 × 512 proxy under 2:4, value 0.75.
    fn good_score() -> Bytes {
        Bytes::default()
            .u64(64)
            .u64(512)
            .u8(HSS)
            .u32(1)
            .u32(2)
            .u32(4)
            .u64(44224)
            .f64(0.75)
    }

    /// A payload of the two-string table, `entries` and `scores`.
    fn payload(entries: &[Bytes], scores: &[Bytes]) -> Bytes {
        let mut p = strings().u64(entries.len() as u64);
        for e in entries {
            p = p.raw(&e.0);
        }
        p = p.u64(scores.len() as u64);
        for s in scores {
            p = p.raw(&s.0);
        }
        p
    }

    /// A snapshot file around `payload` with the running binary's
    /// fingerprint and the payload's true length and checksum.
    fn document(payload: &Bytes) -> Vec<u8> {
        Bytes::default()
            .raw(MAGIC)
            .u32(FORMAT)
            .str(&cache_fingerprint())
            .u32(crc32(&payload.0))
            .u64(payload.0.len() as u64)
            .raw(&payload.0)
            .0
    }

    /// How often `needle` occurs in `haystack`.
    fn occurrences(haystack: &[u8], needle: &[u8]) -> usize {
        haystack
            .windows(needle.len())
            .filter(|w| *w == needle)
            .count()
    }

    /// `file` with its one occurrence of `from` replaced by `to`, which
    /// has the same length.
    fn replaced(mut file: Vec<u8>, from: &[u8], to: &[u8]) -> Vec<u8> {
        assert_eq!(from.len(), to.len());
        assert_eq!(occurrences(&file, from), 1);
        let at = file.windows(from.len()).position(|w| w == from).unwrap();
        file[at..at + from.len()].copy_from_slice(to);
        file
    }

    /// Both caches' contents, sorted, with every `f64` as its bits, so
    /// equality is bit-exact (`-0.0` and `0.0` differ, NaNs compare).
    fn exact(cache: &EvalCache, retention: &RetentionCache) -> (Vec<String>, Vec<String>) {
        let mut entries: Vec<String> = cache.walk(|entries| {
            entries
                .map(|(key, value)| match value {
                    Ok(cost) => {
                        let energy = &cost.energy;
                        let pj: Vec<u64> = energy.amounts().iter().map(|v| v.to_bits()).collect();
                        let cycles = cost.cycles.to_bits();
                        format!("{key:?} {cycles:x} {:x} {pj:x?}", energy.mask())
                    }
                    Err(reason) => format!("{key:?} {reason:?}"),
                })
                .collect()
        });
        entries.sort();
        let mut scores: Vec<String> = retention
            .scores()
            .iter()
            .map(|(key, value)| format!("{key:?} {:x}", value.to_bits()))
            .collect();
        scores.sort();
        (entries, scores)
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let cache = sample_cache();
        let retention = sample_retention();
        let p1 = temp_path("first");
        let p2 = temp_path("second");
        let saved = save(&cache, &retention, &p1).unwrap();
        let file = std::fs::read(&p1).unwrap();
        assert_eq!((saved.entries, saved.scores), (2, 2));
        assert_eq!(saved.bytes, file.len());
        assert!(file.starts_with(MAGIC));

        let restored = EvalCache::new();
        let restored_scores = RetentionCache::new();
        let loaded = load_logged(&restored, &restored_scores, &p1, None, None).unwrap();
        assert_eq!((loaded.entries, loaded.scores), (2, 2));
        assert_eq!(loaded.bytes, file.len());
        // Loading counts neither hits nor misses.
        assert_eq!((restored.hits(), restored.misses()), (0, 0));
        assert_eq!(restored_scores.stats(), (0, 0));
        assert_eq!(
            exact(&restored, &restored_scores),
            exact(&cache, &retention)
        );

        assert_eq!(save(&restored, &restored_scores, &p2).unwrap(), saved);
        assert_eq!(
            file,
            std::fs::read(&p2).unwrap(),
            "save → load → save must be byte-identical"
        );
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn strings_are_stored_once_and_keys_of_one_design_share_them() {
        let cache = EvalCache::new();
        let design = "HighLight { tiles: 16 }";
        cache.preload((1..=3).map(|m| {
            (
                EvalKey {
                    design: design.into(),
                    shape: GemmShape::new(m, 8, 8),
                    a: OperandKey::Dense,
                    b: OperandKey::Dense,
                },
                Err("dense A".into()),
            )
        }));
        let path = temp_path("shared");
        save(&cache, &RetentionCache::new(), &path).unwrap();
        let file = std::fs::read(&path).unwrap();
        assert_eq!(occurrences(&file, design.as_bytes()), 1);
        assert_eq!(occurrences(&file, b"dense A"), 1);

        let restored = EvalCache::new();
        assert_eq!(load(&restored, &path).unwrap(), 3);
        restored.walk(|mut entries| {
            let (first_key, first_reason) = entries.next().unwrap();
            let first_reason = first_reason.as_ref().unwrap_err();
            for (key, reason) in entries {
                assert!(std::ptr::eq(key.design.as_ptr(), first_key.design.as_ptr()));
                assert!(Arc::ptr_eq(reason.as_ref().unwrap_err(), first_reason));
            }
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_refuses_the_snapshot() {
        let cache = sample_cache();
        let path = temp_path("stale");
        save(&cache, &sample_retention(), &path).unwrap();
        let file = replaced(
            std::fs::read(&path).unwrap(),
            cache_fingerprint().as_bytes(),
            b"hl-snap-v5:0000000000000000",
        );
        std::fs::write(&path, file).unwrap();

        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::FingerprintMismatch { .. }));
        assert!(restored.is_empty(), "cache left untouched");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_documents_are_reported_not_panicked() {
        let path = temp_path("malformed");
        let wrong_format = Bytes::default().raw(MAGIC).u32(4).0;
        for file in [
            &b"not json"[..],
            b"{}",
            br#"{"format":99,"fingerprint":"x","entries":[]}"#,
            b"",
            b"HLSNA",
            b"HLSNAQ\x05\0\0\0",
            &wrong_format,
        ] {
            std::fs::write(&path, file).unwrap();
            let err = load(&EvalCache::new(), &path).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Malformed(_)),
                "{file:?}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load(&EvalCache::new(), &path).unwrap_err(),
            SnapshotError::Io(_)
        ));
    }

    #[test]
    fn a_v2_snapshot_is_refused_as_an_unsupported_format() {
        let path = temp_path("v2");
        let payload = r#"[{"design":"HighLight { tiles: 16 }","shape":{"m":8,"k":8,"n":8},"a":"dense","b":"dense","outcome":{"unsupported":{"design":"HighLight","reason":"dense A"}}}]"#;
        let doc = format!(
            "{{\"format\":2,\"fingerprint\":\"hl-snap-v2:0123456789abcdef\",\
             \"crc32\":\"{:08x}\",\"entries\":{payload}}}",
            crc32(payload.as_bytes())
        );
        std::fs::write(&path, doc).unwrap();
        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("unsupported format 2"), "{err}");
        assert!(restored.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_v3_snapshot_is_refused_as_an_unsupported_format() {
        let path = temp_path("v3");
        let payload = r#"["HighLight { tiles: 16 }","HighLight","dense A"],"entries":[[0,[8,8,8],"dense","dense",[1,2]]]"#;
        let doc = format!(
            "{{\"format\":3,\"fingerprint\":\"hl-snap-v3:0123456789abcdef\",\
             \"crc32\":\"{:08x}\",\"strings\":{payload}}}",
            crc32(payload.as_bytes())
        );
        std::fs::write(&path, doc).unwrap();
        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("unsupported format 3"), "{err}");
        assert!(restored.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_v5_snapshot_is_refused_as_an_unsupported_format() {
        // A well-formed format-5 header: the server boots cold from it.
        let path = temp_path("v5");
        let payload = Bytes::default().u64(0).u64(0).u64(0);
        let file = Bytes::default()
            .raw(MAGIC)
            .u32(5)
            .str("hl-snap-v5:0123456789abcdef")
            .u32(crc32(&payload.0))
            .u64(payload.0.len() as u64)
            .raw(&payload.0)
            .0;
        std::fs::write(&path, file).unwrap();
        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("unsupported format 5"), "{err}");
        assert!(restored.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        let a = cache_fingerprint();
        let b = cache_fingerprint();
        assert_eq!(a, b);
        assert!(a.starts_with("hl-snap-v6:"), "{a}");
        // The canary probes an unsupported pair as well as results.
        let canary = Canary::probe();
        assert!(canary.evals.iter().any(Result::is_err), "{canary:?}");
        assert!(canary.evals.iter().any(Result::is_ok), "{canary:?}");
        assert_eq!(fingerprint(&canary), a);
    }

    /// Saves the sample caches as a build whose canary answers `canary`
    /// would, and expects this binary to refuse the file, logging why.
    fn refused_as_another_builds(canary: &Canary, tag: &str) {
        let path = temp_path(tag);
        save(&sample_cache(), &sample_retention(), &path).unwrap();
        let file = replaced(
            std::fs::read(&path).unwrap(),
            cache_fingerprint().as_bytes(),
            fingerprint(canary).as_bytes(),
        );
        std::fs::write(&path, file).unwrap();
        let (cache, retention) = (EvalCache::new(), RetentionCache::new());
        let log = crate::log::SharedBuffer::new();
        let logger = Logger::with_sink(log.make_sink());
        let err = load_logged(&cache, &retention, &path, None, Some((&logger, "t"))).unwrap_err();
        assert!(
            matches!(err, SnapshotError::FingerprintMismatch { .. }),
            "{tag}: {err}"
        );
        assert!(cache.is_empty() && retention.is_empty(), "{tag}");
        let logged = log.contents();
        let failed: Vec<Json> = logged
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter(|e| e.get("event").and_then(Json::as_str) == Some("snapshot_load_failed"))
            .collect();
        assert_eq!(failed.len(), 1, "{tag}: {logged}");
        assert_eq!(
            failed[0].get("error").and_then(Json::as_str),
            Some(err.to_string().as_str()),
            "{tag}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_canary_refuses_snapshots_of_other_code() {
        let canary = Canary::probe();
        // One design's energy, one ulp off.
        let mut nudged = canary.clone();
        let result = nudged
            .evals
            .iter_mut()
            .find_map(|e| e.as_mut().ok())
            .expect("the canary probes supported pairs");
        let mut energy = hl_arch::EnergyBreakdown::new();
        for (i, (comp, pj)) in result.energy.iter().enumerate() {
            let pj = if i == 0 {
                f64::from_bits(pj.to_bits() + 1)
            } else {
                pj
            };
            energy.record(comp, pj);
        }
        assert_ne!(energy, result.energy);
        result.energy = energy;
        refused_as_another_builds(&nudged, "nudged-energy");

        // One surrogate score, one ulp off.
        let mut nudged = canary.clone();
        nudged.losses[0] = f64::from_bits(nudged.losses[0].to_bits() + 1);
        refused_as_another_builds(&nudged, "nudged-loss");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value, plus the empty string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_crc32_matches_the_bitwise_definition() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        }
        let all: Vec<u8> = (0..=255u8).chain((0..=255u8).rev()).collect();
        for len in 0..all.len() {
            assert_eq!(crc32(&all[..len]), bitwise(&all[..len]), "length {len}");
        }
    }

    #[test]
    fn corrupted_payload_bytes_fail_the_checksum() {
        let cache = sample_cache();
        let path = temp_path("bitrot");
        save(&cache, &sample_retention(), &path).unwrap();
        // Rename the reason "dense A" to "dense B": the payload still
        // decodes, so only the CRC can catch this class of corruption.
        let file = replaced(std::fs::read(&path).unwrap(), b"dense A", b"dense B");
        std::fs::write(&path, file).unwrap();

        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(restored.is_empty(), "cache left untouched");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bad_last_entry_leaves_the_cache_empty() {
        // A checksum-valid file whose first entry decodes and whose last
        // names a reason past the string table: the load fails as a whole.
        let bad = key(0, [8, 8, 8]).u8(DENSE).u8(DENSE).u8(UNSUPPORTED).u32(2);
        let path = temp_path("bad-last");
        std::fs::write(&path, document(&payload(&[good_entry(), bad], &[]))).unwrap();
        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert!(restored.is_empty(), "no entry of a failed load");

        // The good entry on its own loads.
        std::fs::write(&path, document(&payload(&[good_entry()], &[]))).unwrap();
        assert_eq!(load(&restored, &path).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bad_last_score_leaves_both_caches_empty() {
        // A checksum-valid file whose entry and first score decode and
        // whose last score does not: neither cache takes anything.
        let head = || {
            Bytes::default()
                .u64(64)
                .u64(512)
                .u8(HSS)
                .u32(1)
                .u32(2)
                .u32(4)
        };
        let path = temp_path("bad-last-score");
        for (bad, what) in [
            (head().u64(44224).f64(f64::NAN), "NaN value"),
            (head().u64(44224).f64(f64::INFINITY), "infinite value"),
            (head().u64(44224), "no value"),
            (head().u64(MAX_EXACT + 1).f64(0.75), "seed past 2^53"),
            (
                Bytes::default().u64(0).u64(512).u8(DENSE).u64(1).f64(0.75),
                "zero rows",
            ),
            (
                Bytes::default().u64(64).u64(512).u8(3).u64(1).f64(0.75),
                "unknown config tag",
            ),
        ] {
            let file = document(&payload(&[good_entry()], &[good_score(), bad]));
            std::fs::write(&path, file).unwrap();
            let (cache, retention) = (EvalCache::new(), RetentionCache::new());
            let err = load_logged(&cache, &retention, &path, None, None).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "{what}: {err}");
            assert!(cache.is_empty(), "{what}: no entry of a failed load");
            assert!(retention.is_empty(), "{what}: no score of a failed load");
        }

        // Without the bad score, both load.
        let file = document(&payload(&[good_entry()], &[good_score()]));
        std::fs::write(&path, file).unwrap();
        let (cache, retention) = (EvalCache::new(), RetentionCache::new());
        let loaded = load_logged(&cache, &retention, &path, None, None).unwrap();
        assert_eq!((loaded.entries, loaded.scores), (1, 1));
        let key = (
            64,
            512,
            OperandKey::Hss(HssPattern::one_rank(Gh::new(2, 4))),
            44224,
        );
        assert_eq!(retention.scores(), vec![(key, 0.75)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_valid_but_bad_entries_are_malformed() {
        let dense = |k: Bytes| k.u8(DENSE).u8(DENSE);
        let cost = |k: Bytes, cycles: f64| dense(k).u8(COST).f64(cycles);
        let eight = || key(0, [8, 8, 8]);
        let path = temp_path("bad-entries");
        for (entry, what) in [
            (
                key(3, [8, 8, 8]).u8(DENSE).u8(DENSE).u8(UNSUPPORTED).u32(1),
                "design index past the table",
            ),
            (
                dense(key(0, [8, 0, 8])).u8(UNSUPPORTED).u32(1),
                "zero dimension",
            ),
            (
                dense(key(0, [8, MAX_EXACT + 1, 8])).u8(UNSUPPORTED).u32(1),
                "dimension past 2^53",
            ),
            (
                eight().u8(3).u8(DENSE).u8(UNSUPPORTED).u32(1),
                "unknown operand tag",
            ),
            (
                eight()
                    .u8(HSS)
                    .u32(1)
                    .u32(3)
                    .u32(2)
                    .u8(DENSE)
                    .u8(UNSUPPORTED)
                    .u32(1),
                "G > H",
            ),
            (
                eight()
                    .u8(HSS)
                    .u32(1)
                    .u32(0)
                    .u32(2)
                    .u8(DENSE)
                    .u8(UNSUPPORTED)
                    .u32(1),
                "G = 0",
            ),
            (
                eight().u8(HSS).u32(u32::MAX).u32(1).u32(2),
                "a rank count past the bytes",
            ),
            (
                dense(eight()).u8(UNSUPPORTED).u32(2),
                "reason index past the table",
            ),
            (cost(eight(), 5.0).u16(1).f64(-1.0), "negative energy"),
            (cost(eight(), 5.0).u16(1).f64(f64::NAN), "NaN energy"),
            (cost(eight(), 5.0).u16(1 << 13).f64(1.0), "mask bit 13"),
            (cost(eight(), 5.0).u16(1 << 15).f64(1.0), "mask bit 15"),
            (
                cost(eight(), 5.0).u16(0b101).f64(1.0),
                "a set bit's value missing",
            ),
            (cost(eight(), 5.0).u8(1), "a cut mask"),
            (cost(eight(), f64::INFINITY).u16(0), "infinite cycles"),
            (dense(eight()).u8(2).u32(1), "unknown outcome tag"),
            (dense(eight()), "no outcome"),
        ] {
            std::fs::write(&path, document(&payload(&[entry], &[]))).unwrap();
            let restored = EvalCache::new();
            let err = load(&restored, &path).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "{what}: {err}");
            assert!(restored.is_empty(), "{what}");
        }

        // Tables that do not hold what they claim.
        for (payload, what) in [
            (
                strings().u64(u64::MAX).raw(&good_entry().0).u64(0),
                "entry count past the bytes",
            ),
            (strings().u64(0).u64(u64::MAX), "score count past the bytes"),
            (
                Bytes::default().u64(u64::MAX),
                "string count past the bytes",
            ),
            (
                Bytes::default().u64(1).u64(u64::MAX),
                "string length past the bytes",
            ),
            (
                Bytes::default()
                    .u64(1)
                    .u64(2)
                    .raw(&[0xC3, 0x28])
                    .u64(0)
                    .u64(0),
                "a string that is not UTF-8",
            ),
        ] {
            std::fs::write(&path, document(&payload)).unwrap();
            let err = load(&EvalCache::new(), &path).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "{what}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_files_are_rejected() {
        let cache = sample_cache();
        let path = temp_path("torn");
        save(&cache, &sample_retention(), &path).unwrap();
        let file = std::fs::read(&path).unwrap();
        std::fs::write(&path, &file[..file.len() / 2]).unwrap();
        let err = load(&EvalCache::new(), &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The corruption sweep: every truncation of a real snapshot, and 500
    /// seeded single-bit flips across its header and payload, must be
    /// refused as malformed, stale or corrupt, never panic, and leave
    /// both caches empty.
    #[test]
    fn every_truncation_and_byte_flip_is_refused() {
        let path = temp_path("exhaustive");
        save(&sample_cache(), &sample_retention(), &path).unwrap();
        let file = std::fs::read(&path).unwrap();
        let refused = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            let (cache, retention) = (EvalCache::new(), RetentionCache::new());
            let err = load_logged(&cache, &retention, &path, None, None)
                .err()
                .unwrap_or_else(|| panic!("{what} loaded"));
            assert!(
                matches!(
                    err,
                    SnapshotError::Malformed(_)
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::FingerprintMismatch { .. }
                ),
                "{what}: {err}"
            );
            assert!(cache.is_empty(), "{what} left entries");
            assert!(retention.is_empty(), "{what} left scores");
        };
        for len in 0..file.len() {
            refused(&file[..len], &format!("a {len}-byte prefix"));
        }
        // splitmix64: a fixed stream, so the sweep is the same every run.
        let mut state = 0xF11F_5EED_u64;
        let mut header_flips = 0;
        for _ in 0..500 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let (byte, bit) = ((z >> 3) as usize % file.len(), z & 7);
            let mut flipped = file.clone();
            flipped[byte] ^= 1 << bit;
            header_flips += usize::from(byte < file.len() - payload_len(&file));
            refused(&flipped, &format!("a flip of bit {bit} of byte {byte}"));
        }
        assert!(header_flips > 0, "the sweep reaches the header");
        std::fs::remove_file(&path).ok();
    }

    /// The payload length a well-formed file's header announces.
    fn payload_len(file: &[u8]) -> usize {
        let mut c = Cursor::new(file);
        c.array::<6>("magic").unwrap();
        c.u32("format").unwrap();
        c.prefixed("fingerprint").unwrap();
        c.u32("crc32").unwrap();
        c.u64("payload length").unwrap() as usize
    }

    #[test]
    fn missing_crc_field_is_malformed() {
        let path = temp_path("nocrc");
        let file = Bytes::default()
            .raw(MAGIC)
            .u32(FORMAT)
            .str(&cache_fingerprint())
            .0;
        std::fs::write(&path, file).unwrap();
        let err = load(&EvalCache::new(), &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("crc32"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_payload_layout_is_fixed() {
        // A checksum-valid payload with a byte after the scores, and a
        // file with a byte after the payload its header announces: both
        // are refused.
        let path = temp_path("layout");
        let trailing = payload(&[good_entry()], &[good_score()]).u8(0);
        let mut longer = document(&payload(&[good_entry()], &[good_score()]));
        longer.push(0);
        for (file, what) in [
            (document(&trailing), "after the scores"),
            (longer, "follow it"),
        ] {
            std::fs::write(&path, file).unwrap();
            let (cache, retention) = (EvalCache::new(), RetentionCache::new());
            let err = load_logged(&cache, &retention, &path, None, None).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "{what}: {err}");
            assert!(err.to_string().contains(what), "{what}: {err}");
            assert!(cache.is_empty(), "{what}: no entry loaded");
            assert!(retention.is_empty(), "{what}: no score loaded");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_loaded_logs_the_load_stages() {
        let path = temp_path("stages");
        save(&sample_cache(), &sample_retention(), &path).unwrap();
        let (cache, retention) = (EvalCache::new(), RetentionCache::new());
        let log = crate::log::SharedBuffer::new();
        let logger = Logger::with_sink(log.make_sink());
        load_logged(&cache, &retention, &path, None, Some((&logger, "t"))).unwrap();
        let logged = log.contents();
        let events: Vec<Json> = logged
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter(|e| e.get("event").and_then(Json::as_str) == Some("snapshot_loaded"))
            .collect();
        assert_eq!(events.len(), 1, "{logged}");
        let field = |name: &str| events[0].get(name).and_then(Json::as_f64);
        assert_eq!((field("entries"), field("scores")), (Some(2.0), Some(2.0)));
        let load_ms = field("load_ms").expect("load_ms");
        let mut sum = 0.0;
        for stage in ["read_ms", "check_ms", "decode_ms", "preload_ms"] {
            let ms = field(stage).unwrap_or_else(|| panic!("{stage} missing: {logged}"));
            assert!(ms >= 0.0, "{stage} = {ms}");
            sum += ms;
        }
        // The stages run back to back inside the load; the slack only
        // absorbs rounding of the four millisecond conversions.
        assert!(sum <= load_ms + 1e-9, "stages {sum} ms > load {load_ms} ms");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_large_seeded_cache_round_trips_byte_identically() {
        // splitmix64: a fixed stream, so the test is the same every run.
        let mut state = 0x5EED_CAFE_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Any finite f64 bit pattern; `nonnegative` clears the sign bit
        // (energies must be at least zero).
        let finite = |next: &mut dyn FnMut() -> u64, nonnegative: bool| loop {
            let mut bits = next();
            if nonnegative {
                bits &= !(1 << 63);
            }
            let x = f64::from_bits(bits);
            if x.is_finite() {
                return x;
            }
        };
        let operand = |next: &mut dyn FnMut() -> u64| match next() % 3 {
            0 => OperandKey::Dense,
            1 => OperandKey::Unstructured(next()),
            _ => OperandKey::Hss(HssPattern::new(
                (0..1 + next() % 3)
                    .map(|_| {
                        let h = 1 + (next() % 16) as u32;
                        Gh::new(1 + (next() % u64::from(h)) as u32, h)
                    })
                    .collect(),
            )),
        };
        let designs = ["HighLight { tiles: 16 }", "TC { .. }", "S2TA { .. }"];
        let mut entries = Vec::new();
        for _ in 0..2000 {
            let design = designs[(next() % 3) as usize];
            let key = EvalKey {
                design: design.into(),
                shape: GemmShape::new(
                    1 + (next() % (1 << 20)) as usize,
                    1 + (next() % 4096) as usize,
                    1 + (next() % 4096) as usize,
                ),
                a: operand(&mut next),
                b: operand(&mut next),
            };
            let value = if next() % 4 == 0 {
                Err(format!("reason {}", next() % 7).into())
            } else {
                let mask = (next() & 0x1FFF) as u16;
                let cycles = finite(&mut next, false);
                let pj = (0..mask.count_ones()).map(|_| finite(&mut next, true));
                let energy = PackedEnergy::new(mask, pj.collect()).unwrap();
                Ok(Cost { cycles, energy })
            };
            entries.push((key, value));
        }
        let cache = EvalCache::new();
        cache.preload(entries);
        let retention = RetentionCache::new();
        let scores: Vec<RetentionScore> = (0..500)
            .map(|_| {
                let key = (
                    1 + (next() % 4096) as usize,
                    1 + (next() % 4096) as usize,
                    operand(&mut next),
                    next() % (1 << 53),
                );
                (key, finite(&mut next, false))
            })
            .collect();
        retention.preload_scores(scores);
        assert!(cache.len() > 1900 && retention.len() > 450);

        let p1 = temp_path("seeded-first");
        let p2 = temp_path("seeded-second");
        save(&cache, &retention, &p1).unwrap();
        let (restored, restored_scores) = (EvalCache::new(), RetentionCache::new());
        let loaded = load_logged(&restored, &restored_scores, &p1, None, None).unwrap();
        assert_eq!(
            (loaded.entries, loaded.scores),
            (cache.len(), retention.len())
        );
        assert!(
            exact(&restored, &restored_scores) == exact(&cache, &retention),
            "the loaded caches equal the saved ones bit for bit"
        );
        save(&restored, &restored_scores, &p2).unwrap();
        assert!(
            std::fs::read(&p1).unwrap() == std::fs::read(&p2).unwrap(),
            "save → load → save must be byte-identical"
        );
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn fault_plane_corruption_is_caught_on_load() {
        use crate::faults::FaultPlane;
        let cache = sample_cache();
        let path = temp_path("faulty");
        save(&cache, &sample_retention(), &path).unwrap();

        for spec in ["seed=11,snapshot=bitflip", "snapshot=truncate"] {
            let plane = FaultPlane::parse(spec).unwrap();
            let (restored, retention) = (EvalCache::new(), RetentionCache::new());
            let err = load_logged(&restored, &retention, &path, Some(&plane), None).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Malformed(_)
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::FingerprintMismatch { .. }
                ),
                "{spec}: {err}"
            );
            assert!(restored.is_empty(), "{spec}: cache left cold");
            assert!(retention.is_empty(), "{spec}: scores left cold");
        }
        // The same file loads cleanly without the fault plane.
        assert_eq!(load(&EvalCache::new(), &path).unwrap(), 2);
        std::fs::remove_file(&path).ok();
    }
}
