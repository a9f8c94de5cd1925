//! Disk persistence for the engine's [`EvalCache`] and the surrogate's
//! retention scores: the server saves both on graceful drain and re-loads
//! them on boot, so a restarted server answers its steady-state traffic,
//! first co-design searches included, from warm caches.
//!
//! The snapshot is a single JSON document (format 4):
//!
//! ```json
//! {
//!   "format": 4,
//!   "fingerprint": "hl-snap-v4:9a…",
//!   "crc32": "9bd366ae",
//!   "strings": [ "HighLight", "HighLight { … }", "conv1", … ],
//!   "entries": [ [1, [1024, 768, 512], [[4, 8], [2, 4]], "dense", [0, 2, 1500000, [[0, 12.5], [4, 3.25]]]] ],
//!   "scores": [ [64, 1024, [[2, 4]], 44224, 0.8715030111] ]
//! }
//! ```
//!
//! Every string an entry refers to — design `Debug` fingerprints, design
//! names, workload names, unsupported reasons — is stored once in the
//! sorted `strings` table, and entries name them by index. Each entry is
//! the positional array `[design, [m, k, n], a, b, outcome]`:
//!
//! - `design` is the string index of the design fingerprint; every
//!   loaded key of one design shares one `Arc<str>`.
//! - an operand (`a`, `b`) is `"dense"`, a 16-digit hex string holding
//!   the unstructured degree's exact `f64` bit pattern, or an array of
//!   HSS `[g, h]` ranks (highest rank first).
//! - `outcome` is `[name, workload, cycles, energy]` for a result, with
//!   `energy` the `[component, pJ]` pairs in [`Comp::ALL`] index order,
//!   or `[name, reason]` for an unsupported pair.
//!
//! Each score is the positional array `[rows, cols, config, seed, value]`:
//! one [`RetentionCache`] score, the retained-norm fraction of a
//! `rows × cols` proxy synthesized from `seed` under the pruning `config`
//! (encoded like an operand). `value` is a JSON number, which the encoder
//! prints in shortest round-trip form, and must be finite. A retention
//! hit reads nothing but its score, so the scores alone restore a warm
//! surrogate; the weight streams, argsorts and masks behind them are not
//! persisted.
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
//! construction. A snapshot whose format or fingerprint does not match the
//! running binary is refused (the server boots cold instead of serving
//! stale numbers).
//!
//! `crc32` is an IEEE CRC-32 over the raw bytes that follow the
//! `,"strings":` tag, up to the document's closing brace: the string
//! table, the entries and the scores exactly as written. It is computed
//! slice-by-8 (eight table lookups per eight-byte word). The file layout
//! is fixed: the six members come in the order shown, the payload tag is
//! written byte for byte, and `"strings"`, `"entries"` and `"scores"` are
//! always the last three members. A document in any other order, or with
//! any other member, is refused as [`SnapshotError::Malformed`].
//!
//! [`load`] decodes the file in one pass with a pull [`Reader`], without
//! building a [`Json`] tree. It checks, in order:
//!
//! 1. the format;
//! 2. the fingerprint;
//! 3. the CRC over the raw payload bytes, so a torn write or silent media
//!    corruption is refused as [`SnapshotError::ChecksumMismatch`] before
//!    a single entry is trusted;
//! 4. every entry and every score as the walk reaches it: string indices,
//!    dimensions, G:H ranks, energy component order and sign, seed
//!    range, finite values and known operand forms.
//!
//! Every entry and every score is decoded before the first one is
//! preloaded, so a load either restores the whole snapshot or leaves both
//! caches untouched. Every load failure is reported, never panicked: the
//! serving layer logs it and boots cold.
//!
//! The string table is sorted, and entries and scores are sorted by their
//! encoded form before writing, so save → load → save is byte-identical
//! (the in-memory memos are `HashMap`s with nondeterministic iteration
//! order). `f64` payloads round-trip exactly: the [`Json`] encoder prints
//! shortest-round-trip forms, and the one `f64` that is keyed by bit
//! pattern (unstructured degrees) is stored as a hex bit string rather
//! than a number.

use std::cell::OnceCell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hl_arch::{Comp, EnergyBreakdown};
use hl_models::accuracy::{accuracy_loss, PruningConfig, RetentionCache, RetentionScore};
use hl_models::{DnnModel, LayerKind, LayerSpec};
use hl_sim::engine::{DesignFingerprint, EvalCache, EvalKey, OperandKey};
use hl_sim::{evaluate_best, EvalResult, OperandSparsity, Unsupported, Workload};
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::GemmShape;

use crate::faults::FaultPlane;
use crate::json::{Json, JsonError, Kind, Reader};
use crate::log::Logger;

/// Snapshot format version; bumped on any encoding change (v2 added the
/// `crc32` payload checksum, v3 the string table and positional entries,
/// v4 the retention scores and the canary in the fingerprint).
pub const FORMAT: u64 = 4;

/// Why a snapshot could not be loaded (`thiserror` idiom: structured
/// variants, hand-written `Display`, `std::error::Error`).
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The document is not a snapshot (bad JSON, wrong shape, bad entry).
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

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        Self::Malformed(e.to_string())
    }
}

fn malformed(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(msg.into())
}

/// One cached evaluation outcome.
type Outcome = Result<EvalResult, Unsupported>;

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

/// The tag preceding the payload in the fixed document layout.
const PAYLOAD_TAG: &str = ",\"strings\":";

/// What this binary computes for the canary's fixed probe set.
#[derive(Debug, Clone)]
struct Canary {
    /// `evaluate_best` of every design on every probe workload.
    evals: Vec<Outcome>,
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
                    evals.push(evaluate_best(design.as_ref(), &workload));
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

/// Writes both caches to `path` (atomically: temp file + rename),
/// returning the number of evaluation-cache entries saved.
///
/// # Errors
/// [`SnapshotError::Io`].
pub fn save(
    cache: &EvalCache,
    retention: &RetentionCache,
    path: &Path,
) -> Result<usize, SnapshotError> {
    let entries = cache.entries();
    let strings = StringTable::new(&entries);
    // The memos are HashMaps; sort so identical caches write identical
    // bytes (asserted by the round-trip test).
    let sorted = |mut encoded: Vec<String>| {
        encoded.sort_unstable();
        encoded.join(",")
    };
    let encoded = entries
        .iter()
        .map(|(k, v)| strings.entry_json(k, v).encode())
        .collect();
    let scores = retention
        .scores()
        .iter()
        .map(|s| score_json(s).encode())
        .collect();
    // The payload: the string table, the entries and the scores exactly
    // as written (the CRC input).
    let mut payload = strings.json().encode();
    payload.push_str(",\"entries\":[");
    payload.push_str(&sorted(encoded));
    payload.push_str("],\"scores\":[");
    payload.push_str(&sorted(scores));
    payload.push(']');
    let mut doc = String::new();
    doc.push_str("{\"format\":");
    doc.push_str(&FORMAT.to_string());
    doc.push_str(",\"fingerprint\":");
    doc.push_str(&Json::str(cache_fingerprint()).encode());
    doc.push_str(",\"crc32\":");
    doc.push_str(&Json::str(format!("{:08x}", crc32(payload.as_bytes()))).encode());
    doc.push_str(PAYLOAD_TAG);
    doc.push_str(&payload);
    doc.push('}');

    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(doc.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(entries.len())
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
    /// Checking the format, the fingerprint and the payload CRC.
    pub check_ms: f64,
    /// Decoding every entry and every score.
    pub decode_ms: f64,
    /// Preloading both caches.
    pub preload_ms: f64,
}

/// Loads a snapshot's evaluation-cache entries via [`EvalCache::preload`]
/// (hit/miss counters untouched; live entries win over preloaded ones),
/// returning the number of entries loaded. The scores are checked like
/// the entries and then dropped.
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
/// optional fault plane corrupting the file text in memory before it is
/// parsed: the chaos harness' way of proving a truncated or bit-flipped
/// snapshot is rejected and boots cold, without actually tearing files
/// on disk.
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

/// Reads, checks and decodes the snapshot at `path`, then preloads both
/// caches, timing each stage.
fn read_and_preload(
    cache: &EvalCache,
    retention: &RetentionCache,
    path: &Path,
    faults: Option<&FaultPlane>,
    log: Option<(&Logger, &str)>,
) -> Result<Loaded, SnapshotError> {
    let started = Instant::now();
    let mut text = std::fs::read_to_string(path)?;
    let bytes = text.len();
    let corrupted = faults.is_some_and(|plane| plane.corrupt_snapshot(&mut text));
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
    let payload = check(&text)?;
    let checked = Instant::now();
    let (entries, scores) = decode(payload)?;
    let decoded = Instant::now();
    let (n_entries, n_scores) = (entries.len(), scores.len());
    // Preload only once every entry and score has decoded: a bad one
    // anywhere leaves both caches as cold as the boot the server logs.
    cache.preload(entries);
    retention.preload_scores(scores);
    Ok(Loaded {
        entries: n_entries,
        scores: n_scores,
        bytes,
        read_ms: millis(read.duration_since(started)),
        check_ms: millis(checked.duration_since(read)),
        decode_ms: millis(decoded.duration_since(checked)),
        preload_ms: millis(decoded.elapsed()),
    })
}

/// A decoded snapshot: its evaluation-cache entries and its scores.
type Decoded = (Vec<(EvalKey, Outcome)>, Vec<RetentionScore>);

/// Checks a snapshot document's format, fingerprint and payload checksum,
/// in that order, and returns the reader standing just before the
/// payload.
fn check(text: &str) -> Result<Reader<'_>, SnapshotError> {
    let mut r = Reader::new(text);
    r.enter_object()?;
    member(&mut r, "format")?;
    let format = r.number()?;
    if format != FORMAT as f64 {
        return Err(malformed(format!("unsupported format {format}")));
    }
    member(&mut r, "fingerprint")?;
    let found = r.string()?;
    let expected = cache_fingerprint();
    if found != expected.as_str() {
        return Err(SnapshotError::FingerprintMismatch {
            expected,
            found: found.into_owned(),
        });
    }
    member(&mut r, "crc32")?;
    let stored = r.string()?;
    // The fixed layout puts the payload last, so its raw bytes — exactly
    // what `save` checksummed — run from just past the tag to the
    // document's closing brace. No re-encoding involved: re-encoding a
    // corrupted-but-parsable payload could normalize the damage away.
    let payload = r
        .rest()
        .strip_prefix(PAYLOAD_TAG)
        .ok_or_else(|| malformed("document layout: missing strings tag"))?
        .strip_suffix('}')
        .ok_or_else(|| malformed("document layout: missing closing brace"))?;
    let computed = format!("{:08x}", crc32(payload.as_bytes()));
    if stored != computed.as_str() {
        return Err(SnapshotError::ChecksumMismatch {
            stored: stored.into_owned(),
            computed,
        });
    }
    Ok(r)
}

/// Decodes the payload [`check`] verified, in one walk: the string table,
/// then every entry, then every score, and nothing after them.
fn decode(mut r: Reader<'_>) -> Result<Decoded, SnapshotError> {
    member(&mut r, "strings")?;
    let strings = list(&mut r, |r| {
        Ok(TableString {
            text: Arc::from(&*r.string()?),
            design: OnceCell::new(),
        })
    })?;
    member(&mut r, "entries")?;
    let entries = list(&mut r, |r| entry(r, &strings))?;
    member(&mut r, "scores")?;
    let scores = list(&mut r, score)?;
    if let Some(key) = r.next_key()? {
        return Err(malformed(format!(
            "document layout: unexpected member \"{key}\" after \"scores\""
        )));
    }
    r.finish()?;
    Ok((entries, scores))
}

/// Moves to the object member `name`, which the fixed layout puts next.
fn member(r: &mut Reader<'_>, name: &str) -> Result<(), SnapshotError> {
    match r.next_key()? {
        Some(key) if key == name => Ok(()),
        Some(key) => Err(malformed(format!(
            "missing \"{name}\" (found \"{key}\" in its place)"
        ))),
        None => Err(malformed(format!("missing \"{name}\""))),
    }
}

/// Reads the array the reader stands at, one `item` per element.
fn list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, SnapshotError>,
) -> Result<Vec<T>, SnapshotError> {
    let mut items = Vec::new();
    r.enter_array()?;
    while r.next_element()? {
        items.push(item(r)?);
    }
    Ok(items)
}

/// Moves to the next element of a positional array, which must have one;
/// `layout` says what the array should hold.
fn field(r: &mut Reader<'_>, layout: &str) -> Result<(), SnapshotError> {
    if r.next_element()? {
        Ok(())
    } else {
        Err(malformed(layout))
    }
}

/// Closes a positional array, which must hold nothing more.
fn close(r: &mut Reader<'_>, layout: &str) -> Result<(), SnapshotError> {
    if r.next_element()? {
        Err(malformed(layout))
    } else {
        Ok(())
    }
}

/// The sorted, deduplicated table of every string a snapshot's entries
/// refer to.
struct StringTable<'a>(Vec<&'a str>);

impl<'a> StringTable<'a> {
    fn new(entries: &'a [(EvalKey, Outcome)]) -> Self {
        let mut table = Vec::new();
        for (key, value) in entries {
            table.push(&*key.design);
            match value {
                Ok(r) => table.extend([r.design.as_str(), r.workload.as_str()]),
                Err(u) => table.extend([u.design.as_str(), u.reason.as_str()]),
            }
        }
        table.sort_unstable();
        table.dedup();
        Self(table)
    }

    fn json(&self) -> Json {
        Json::Arr(self.0.iter().map(|s| Json::str(*s)).collect())
    }

    /// The index of `s`, which the table holds by construction.
    fn index(&self, s: &str) -> Json {
        Json::Num(self.0.partition_point(|t| *t < s) as f64)
    }

    fn entry_json(&self, key: &EvalKey, value: &Outcome) -> Json {
        let outcome = match value {
            Ok(r) => Json::Arr(vec![
                self.index(&r.design),
                self.index(&r.workload),
                Json::Num(r.cycles),
                energy_json(&r.energy),
            ]),
            Err(u) => Json::Arr(vec![self.index(&u.design), self.index(&u.reason)]),
        };
        Json::Arr(vec![
            self.index(&key.design),
            shape_json(key.shape),
            operand_key_json(&key.a),
            operand_key_json(&key.b),
            outcome,
        ])
    }
}

const ENTRY: &str = "an entry must be [design, shape, a, b, outcome]";
const OUTCOME: &str = "an outcome must be [name, workload, cycles, energy] or [name, reason]";

/// One string of a snapshot's table, shared by every entry naming it.
struct TableString {
    text: Arc<str>,
    /// The string as a design fingerprint, made (and its digest computed)
    /// by the first entry that names it as a design.
    design: OnceCell<DesignFingerprint>,
}

fn entry(r: &mut Reader<'_>, strings: &[TableString]) -> Result<(EvalKey, Outcome), SnapshotError> {
    r.enter_array()?;
    field(r, ENTRY)?;
    let string = string_at(strings, r.number()?)?;
    let design = string
        .design
        .get_or_init(|| DesignFingerprint::from(&*string.text))
        .clone();
    field(r, ENTRY)?;
    let shape = shape(r)?;
    field(r, ENTRY)?;
    let a = operand_key(r)?;
    field(r, ENTRY)?;
    let b = operand_key(r)?;
    field(r, ENTRY)?;
    let value = outcome(r, strings)?;
    close(r, ENTRY)?;
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

fn outcome(r: &mut Reader<'_>, strings: &[TableString]) -> Result<Outcome, SnapshotError> {
    r.enter_array()?;
    field(r, OUTCOME)?;
    let design = string_at(strings, r.number()?)?.text.to_string();
    field(r, OUTCOME)?;
    // The workload of a result, or the reason of an unsupported pair.
    let second = string_at(strings, r.number()?)?.text.to_string();
    if !r.next_element()? {
        return Ok(Err(Unsupported {
            design,
            reason: second,
        }));
    }
    let cycles = r.number()?;
    field(r, OUTCOME)?;
    let energy = energy(r)?;
    close(r, OUTCOME)?;
    Ok(Ok(EvalResult {
        design,
        workload: second,
        cycles,
        energy,
    }))
}

/// The string-table entry a JSON index names.
fn string_at(strings: &[TableString], n: f64) -> Result<&TableString, SnapshotError> {
    index(n).and_then(|i| strings.get(i)).ok_or_else(|| {
        malformed(format!(
            "{n} is not an index into the {}-string table",
            strings.len()
        ))
    })
}

/// A non-negative integral JSON number as an index.
fn index(n: f64) -> Option<usize> {
    (n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n)).then_some(n as usize)
}

fn energy_json(energy: &EnergyBreakdown) -> Json {
    let mut pairs: Vec<(usize, f64)> = energy
        .iter()
        .filter_map(|(c, pj)| Some((Comp::ALL.iter().position(|&x| x == c)?, pj)))
        .collect();
    pairs.sort_by_key(|&(i, _)| i);
    Json::Arr(
        pairs
            .into_iter()
            .map(|(i, pj)| Json::Arr(vec![Json::Num(i as f64), Json::Num(pj)]))
            .collect(),
    )
}

fn energy(r: &mut Reader<'_>) -> Result<EnergyBreakdown, SnapshotError> {
    const PAIR: &str = "energy must hold [component, pJ] pairs";
    let mut energy = EnergyBreakdown::new();
    let mut next = 0;
    r.enter_array()?;
    while r.next_element()? {
        r.enter_array()?;
        field(r, PAIR)?;
        let n = r.number()?;
        let (i, comp) = index(n)
            .filter(|&i| i >= next)
            .and_then(|i| Some((i, *Comp::ALL.get(i)?)))
            .ok_or_else(|| malformed(format!("energy component {n} is unknown or out of order")))?;
        field(r, PAIR)?;
        let pj = r.number()?;
        if !(pj.is_finite() && pj >= 0.0) {
            return Err(malformed(format!("bad {comp} energy {pj}")));
        }
        close(r, PAIR)?;
        energy.record(comp, pj);
        next = i + 1;
    }
    Ok(energy)
}

fn score_json(((rows, cols, config, seed), value): &RetentionScore) -> Json {
    Json::Arr(vec![
        Json::Num(*rows as f64),
        Json::Num(*cols as f64),
        operand_key_json(config),
        Json::Num(*seed as f64),
        Json::Num(*value),
    ])
}

fn score(r: &mut Reader<'_>) -> Result<RetentionScore, SnapshotError> {
    const SCORE: &str = "a score must be [rows, cols, config, seed, value]";
    r.enter_array()?;
    field(r, SCORE)?;
    let rows = dim(r.number()?)?;
    field(r, SCORE)?;
    let cols = dim(r.number()?)?;
    field(r, SCORE)?;
    let config = operand_key(r)?;
    field(r, SCORE)?;
    let seed = r.number()?;
    if !(seed.fract() == 0.0 && (0.0..=(1u64 << 53) as f64).contains(&seed)) {
        return Err(malformed(format!("bad score seed {seed}")));
    }
    field(r, SCORE)?;
    let value = r.number()?;
    if !value.is_finite() {
        return Err(malformed(format!("bad score value {value}")));
    }
    close(r, SCORE)?;
    Ok(((rows, cols, config, seed as u64), value))
}

fn operand_key_json(key: &OperandKey) -> Json {
    match key {
        OperandKey::Dense => Json::str("dense"),
        // The degree is keyed by its exact f64 bit pattern; a JSON number
        // would survive (shortest-round-trip encoder) but a hex string
        // makes bit-exactness structural rather than incidental.
        OperandKey::Unstructured(bits) => Json::str(format!("{bits:016x}")),
        OperandKey::Hss(p) => Json::Arr(
            p.ranks()
                .iter()
                .map(|gh| Json::Arr(vec![Json::Num(f64::from(gh.g)), Json::Num(f64::from(gh.h))]))
                .collect(),
        ),
    }
}

fn operand_key(r: &mut Reader<'_>) -> Result<OperandKey, SnapshotError> {
    const RANK: &str = "HSS ranks must be [g, h] pairs";
    match r.peek()? {
        Kind::Str => {
            let s = r.string()?;
            if s == "dense" {
                return Ok(OperandKey::Dense);
            }
            u64::from_str_radix(&s, 16)
                .ok()
                .filter(|_| s.len() == 16)
                .map(OperandKey::Unstructured)
                .ok_or_else(|| malformed(format!("bad unstructured bit pattern {s:?}")))
        }
        Kind::Arr => {
            let ranks = list(r, |r| {
                r.enter_array()?;
                field(r, RANK)?;
                let g = gh_int(r.number()?)?;
                field(r, RANK)?;
                let h = gh_int(r.number()?)?;
                close(r, RANK)?;
                Gh::try_new(g, h).map_err(|e| malformed(e.to_string()))
            })?;
            Ok(OperandKey::Hss(HssPattern::new(ranks)))
        }
        _ => Err(malformed(
            "an operand must be \"dense\", a hex bit pattern, or HSS ranks",
        )),
    }
}

fn gh_int(n: f64) -> Result<u32, SnapshotError> {
    if n.fract() != 0.0 || !(1.0..=f64::from(u32::MAX)).contains(&n) {
        return Err(malformed(format!("bad G:H component {n}")));
    }
    Ok(n as u32)
}

fn shape_json(shape: GemmShape) -> Json {
    Json::Arr(vec![
        Json::Num(shape.m as f64),
        Json::Num(shape.k as f64),
        Json::Num(shape.n as f64),
    ])
}

fn shape(r: &mut Reader<'_>) -> Result<GemmShape, SnapshotError> {
    const SHAPE: &str = "a shape must be [m, k, n]";
    r.enter_array()?;
    field(r, SHAPE)?;
    let m = dim(r.number()?)?;
    field(r, SHAPE)?;
    let k = dim(r.number()?)?;
    field(r, SHAPE)?;
    let n = dim(r.number()?)?;
    close(r, SHAPE)?;
    Ok(GemmShape::new(m, k, n))
}

fn dim(n: f64) -> Result<usize, SnapshotError> {
    if n.fract() == 0.0 && (1.0..=(1u64 << 53) as f64).contains(&n) {
        Ok(n as usize)
    } else {
        Err(malformed(format!("bad shape dimension {n}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "hl-snap-test-{}-{seq}-{tag}.json",
            std::process::id()
        ))
    }

    fn sample_cache() -> EvalCache {
        let cache = EvalCache::new();
        let mut energy = EnergyBreakdown::new();
        energy.record(Comp::Mac, 123.456789);
        energy.record(Comp::Dram, 0.1 + 0.2); // non-terminating f64
        cache.preload([
            (
                EvalKey {
                    design: "HighLight { tiles: 16 }".into(),
                    shape: GemmShape::new(1024, 768, 512),
                    a: OperandKey::Hss(HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4))),
                    b: OperandKey::Dense,
                },
                Ok(EvalResult {
                    design: "HighLight".into(),
                    workload: "w".into(),
                    cycles: 1.0e9 + 0.25,
                    energy,
                }),
            ),
            (
                EvalKey {
                    design: "S2TA { .. }".into(),
                    shape: GemmShape::new(64, 64, 64),
                    a: OperandKey::Unstructured(0.55_f64.to_bits()),
                    b: OperandKey::Unstructured(0.25_f64.to_bits()),
                },
                Err(Unsupported {
                    design: "S2TA".into(),
                    reason: "dense A".into(),
                }),
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

    /// A snapshot document around `payload` (the string table, the
    /// entries and the scores, as written after the payload tag) with the running
    /// binary's fingerprint and the payload's true checksum.
    fn document(payload: &str) -> String {
        format!(
            "{{\"format\":{FORMAT},\"fingerprint\":{},\"crc32\":\"{:08x}\"{PAYLOAD_TAG}{payload}}}",
            Json::str(cache_fingerprint()).encode(),
            crc32(payload.as_bytes())
        )
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let cache = sample_cache();
        let retention = sample_retention();
        let p1 = temp_path("first");
        let p2 = temp_path("second");
        assert_eq!(save(&cache, &retention, &p1).unwrap(), 2);

        let restored = EvalCache::new();
        let restored_scores = RetentionCache::new();
        let loaded = load_logged(&restored, &restored_scores, &p1, None, None).unwrap();
        assert_eq!((loaded.entries, loaded.scores), (2, 2));
        // Loading counts neither hits nor misses.
        assert_eq!((restored.hits(), restored.misses()), (0, 0));
        assert_eq!(restored_scores.stats(), (0, 0));

        let mut original = cache.entries();
        let mut round_tripped = restored.entries();
        let key = |e: &(EvalKey, Result<EvalResult, Unsupported>)| format!("{:?}", e.0);
        original.sort_by_key(key);
        round_tripped.sort_by_key(key);
        assert_eq!(original, round_tripped);
        let mut scores = retention.scores();
        let mut round_tripped = restored_scores.scores();
        let key = |s: &RetentionScore| format!("{s:?}");
        scores.sort_by_key(key);
        round_tripped.sort_by_key(key);
        assert_eq!(scores, round_tripped);

        assert_eq!(save(&restored, &restored_scores, &p2).unwrap(), 2);
        assert_eq!(
            std::fs::read(&p1).unwrap(),
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
                Err(Unsupported {
                    design: "HighLight".into(),
                    reason: "dense A".into(),
                }),
            )
        }));
        let path = temp_path("shared");
        save(&cache, &RetentionCache::new(), &path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(doc.matches(design).count(), 1, "{doc}");
        assert_eq!(doc.matches("dense A").count(), 1, "{doc}");

        let restored = EvalCache::new();
        assert_eq!(load(&restored, &path).unwrap(), 3);
        let entries = restored.entries();
        assert!(entries
            .iter()
            .all(|(k, _)| std::ptr::eq(k.design.as_ptr(), entries[0].0.design.as_ptr())));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_refuses_the_snapshot() {
        let cache = sample_cache();
        let path = temp_path("stale");
        save(&cache, &sample_retention(), &path).unwrap();
        let doc = std::fs::read_to_string(&path)
            .unwrap()
            .replace(&cache_fingerprint(), "hl-snap-v4:0000000000000000");
        std::fs::write(&path, doc).unwrap();

        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::FingerprintMismatch { .. }));
        assert!(restored.entries().is_empty(), "cache left untouched");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_documents_are_reported_not_panicked() {
        let path = temp_path("malformed");
        for doc in [
            "not json",
            "{}",
            r#"{"format":99,"fingerprint":"x","entries":[]}"#,
        ] {
            std::fs::write(&path, doc).unwrap();
            let err = load(&EvalCache::new(), &path).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "{doc}: {err}");
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
        assert!(restored.entries().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_v3_snapshot_is_refused_as_an_unsupported_format() {
        let path = temp_path("v3");
        let payload = r#"["HighLight { tiles: 16 }","HighLight","dense A"],"entries":[[0,[8,8,8],"dense","dense",[1,2]]]"#;
        let doc = format!(
            "{{\"format\":3,\"fingerprint\":\"hl-snap-v3:0123456789abcdef\",\
             \"crc32\":\"{:08x}\"{PAYLOAD_TAG}{payload}}}",
            crc32(payload.as_bytes())
        );
        std::fs::write(&path, doc).unwrap();
        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("unsupported format 3"), "{err}");
        assert!(restored.entries().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        let a = cache_fingerprint();
        let b = cache_fingerprint();
        assert_eq!(a, b);
        assert!(a.starts_with("hl-snap-v4:"), "{a}");
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
        let doc = std::fs::read_to_string(&path)
            .unwrap()
            .replace(&cache_fingerprint(), &fingerprint(canary));
        std::fs::write(&path, doc).unwrap();
        let (cache, retention) = (EvalCache::new(), RetentionCache::new());
        let log = crate::log::SharedBuffer::new();
        let logger = Logger::with_sink(log.make_sink());
        let err = load_logged(&cache, &retention, &path, None, Some((&logger, "t"))).unwrap_err();
        assert!(
            matches!(err, SnapshotError::FingerprintMismatch { .. }),
            "{tag}: {err}"
        );
        assert!(cache.entries().is_empty() && retention.is_empty(), "{tag}");
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
        let mut energy = EnergyBreakdown::new();
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
        // Damage one payload byte in a way that still parses as JSON —
        // only the CRC can catch this class of corruption.
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(doc.matches("\"w\"").count(), 1, "{doc}");
        std::fs::write(&path, doc.replace("\"w\"", "\"X\"")).unwrap();

        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(restored.entries().is_empty(), "cache left untouched");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bad_last_entry_leaves_the_cache_empty() {
        // A checksum-valid document whose first entry decodes and whose
        // last does not: the load fails as a whole.
        let good = r#"[0,[8,8,8],"dense","dense",[1,2]]"#;
        let bad = r#"[0,[8,8,8],"dense","dense",[1]]"#;
        let strings = r#"["HighLight { tiles: 16 }","HighLight","dense A"]"#;
        let payload = format!(r#"{strings},"entries":[{good},{bad}],"scores":[]"#);
        let path = temp_path("bad-last");
        std::fs::write(&path, document(&payload)).unwrap();
        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert!(restored.entries().is_empty(), "no entry of a failed load");

        // The good entry on its own loads.
        let payload = format!(r#"{strings},"entries":[{good}],"scores":[]"#);
        std::fs::write(&path, document(&payload)).unwrap();
        assert_eq!(load(&restored, &path).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bad_last_score_leaves_both_caches_empty() {
        // A checksum-valid document whose entry and first score decode and
        // whose last score does not: neither cache takes anything.
        let strings = r#"["HighLight { tiles: 16 }","HighLight","dense A"]"#;
        let entries = r#"[[0,[8,8,8],"dense","dense",[1,2]]]"#;
        let good = r#"[64,512,[[2,4]],44224,0.75]"#;
        let path = temp_path("bad-last-score");
        for bad in [
            r#"[64,512,[[2,4]],44224,"x"]"#,   // value not a number
            r#"[64,512,[[2,4]],44224]"#,       // no value
            r#"[64,512,[[2,4]],-1,0.75]"#,     // negative seed
            r#"[64,512,[[2,4]],1.5,0.75]"#,    // fractional seed
            r#"[0,512,[[2,4]],44224,0.75]"#,   // zero rows
            r#"[64,512,"sparse",44224,0.75]"#, // unknown config
        ] {
            let payload = format!(r#"{strings},"entries":{entries},"scores":[{good},{bad}]"#);
            std::fs::write(&path, document(&payload)).unwrap();
            let (cache, retention) = (EvalCache::new(), RetentionCache::new());
            let err = load_logged(&cache, &retention, &path, None, None).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "{bad}: {err}");
            assert!(
                cache.entries().is_empty(),
                "{bad}: no entry of a failed load"
            );
            assert!(retention.is_empty(), "{bad}: no score of a failed load");
        }

        // Without the bad score, both load.
        let payload = format!(r#"{strings},"entries":{entries},"scores":[{good}]"#);
        std::fs::write(&path, document(&payload)).unwrap();
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
        let strings = r#"["HighLight { tiles: 16 }","HighLight","dense A"]"#;
        let path = temp_path("bad-entries");
        for entry in [
            r#"[3,[8,8,8],"dense","dense",[1,2]]"#, // index past the table
            r#"[0.5,[8,8,8],"dense","dense",[1,2]]"#, // fractional index
            r#"[0,[8,0,8],"dense","dense",[1,2]]"#, // zero dimension
            r#"[0,[8,8],"dense","dense",[1,2]]"#,   // short shape
            r#"[0,[8,8,8],"sparse","dense",[1,2]]"#, // unknown operand
            r#"[0,[8,8,8],"3fe0","dense",[1,2]]"#,  // short bit pattern
            r#"[0,[8,8,8],[[3,2]],"dense",[1,2]]"#, // G > H
            r#"[0,[8,8,8],[[1,2,3]],"dense",[1,2]]"#, // not a pair
            r#"[0,[8,8,8],"dense","dense",[1,1,5,[[0,-1]]]]"#, // negative energy
            r#"[0,[8,8,8],"dense","dense",[1,1,5,[[13,1]]]]"#, // unknown component
            r#"[0,[8,8,8],"dense","dense",[1,1,5,[[4,1],[0,1]]]]"#, // out of order
            r#"[0,[8,8,8],"dense","dense",[1,1,5,[[4,1],[4,1]]]]"#, // repeated
            r#"[0,[8,8,8],"dense","dense"]"#,       // no outcome
        ] {
            let payload = format!(r#"{strings},"entries":[{entry}],"scores":[]"#);
            std::fs::write(&path, document(&payload)).unwrap();
            let restored = EvalCache::new();
            let err = load(&restored, &path).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "{entry}: {err}");
            assert!(restored.entries().is_empty(), "{entry}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_files_are_rejected() {
        let cache = sample_cache();
        let path = temp_path("torn");
        save(&cache, &sample_retention(), &path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &doc[..doc.len() / 2]).unwrap();
        let err = load(&EvalCache::new(), &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_and_byte_flip_is_refused() {
        let path = temp_path("exhaustive");
        save(&sample_cache(), &sample_retention(), &path).unwrap();
        let doc = std::fs::read(&path).unwrap();
        let refused = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            let restored = EvalCache::new();
            assert!(load(&restored, &path).is_err(), "{what} loaded");
            assert!(restored.entries().is_empty(), "{what} left entries");
        };
        for len in 0..doc.len() {
            refused(&doc[..len], &format!("a {len}-byte prefix"));
        }
        for i in 0..doc.len() {
            let mut flipped = doc.clone();
            flipped[i] ^= 0x01;
            refused(&flipped, &format!("a flip of byte {i}"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_crc_field_is_malformed() {
        let path = temp_path("nocrc");
        let doc = format!(
            "{{\"format\":{FORMAT},\"fingerprint\":{},\"strings\":[],\"entries\":[],\"scores\":[]}}",
            Json::str(cache_fingerprint()).encode()
        );
        std::fs::write(&path, doc).unwrap();
        let err = load(&EvalCache::new(), &path).unwrap_err();
        assert!(err.to_string().contains("crc32"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_payload_layout_is_fixed() {
        // Checksum-valid documents whose payload holds every member, but
        // in another order or with one more: the walk refuses both.
        let strings = r#"["HighLight { tiles: 16 }","HighLight","dense A"]"#;
        let entries = r#"[[0,[8,8,8],"dense","dense",[1,2]]]"#;
        let scores = r#"[[64,512,[[2,4]],44224,0.75]]"#;
        let path = temp_path("layout");
        for payload in [
            format!(r#"{strings},"scores":{scores},"entries":{entries}"#),
            format!(r#"{strings},"entries":{entries},"scores":{scores},"extra":[]"#),
        ] {
            std::fs::write(&path, document(&payload)).unwrap();
            let (cache, retention) = (EvalCache::new(), RetentionCache::new());
            let err = load_logged(&cache, &retention, &path, None, None).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Malformed(_)),
                "{payload}: {err}"
            );
            assert!(cache.entries().is_empty(), "{payload}: no entry loaded");
            assert!(retention.is_empty(), "{payload}: no score loaded");
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
            let name = design.split(' ').next().unwrap().to_string();
            let value = if next() % 4 == 0 {
                Err(Unsupported {
                    design: name,
                    reason: format!("reason {}", next() % 7),
                })
            } else {
                let mut energy = EnergyBreakdown::new();
                for comp in Comp::ALL {
                    if next() % 4 == 0 {
                        energy.record(comp, finite(&mut next, true));
                    }
                }
                Ok(EvalResult {
                    design: name,
                    workload: format!("layer{}", next() % 50),
                    cycles: finite(&mut next, false),
                    energy,
                })
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
        assert!(cache.entries().len() > 1900 && retention.len() > 450);

        let p1 = temp_path("seeded-first");
        let p2 = temp_path("seeded-second");
        save(&cache, &retention, &p1).unwrap();
        let (restored, restored_scores) = (EvalCache::new(), RetentionCache::new());
        let loaded = load_logged(&restored, &restored_scores, &p1, None, None).unwrap();
        assert_eq!(
            (loaded.entries, loaded.scores),
            (cache.entries().len(), retention.len())
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
            assert!(restored.entries().is_empty(), "{spec}: cache left cold");
            assert!(retention.is_empty(), "{spec}: scores left cold");
        }
        // The same file loads cleanly without the fault plane.
        assert_eq!(load(&EvalCache::new(), &path).unwrap(), 2);
        std::fs::remove_file(&path).ok();
    }
}
