//! Disk persistence for the engine's [`EvalCache`]: the server saves the
//! memo on graceful drain and re-loads it on boot, so a restarted server
//! answers its steady-state traffic from a warm cache.
//!
//! The snapshot is a single JSON document (format 3):
//!
//! ```json
//! {
//!   "format": 3,
//!   "fingerprint": "hl-snap-v3:9a…",
//!   "crc32": "9bd366ae",
//!   "strings": [ "HighLight", "HighLight { … }", "conv1", … ],
//!   "entries": [ [1, [1024, 768, 512], [[4, 8], [2, 4]], "dense", [0, 2, 1500000, [[0, 12.5], [4, 3.25]]]] ]
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
//! Cached results are only valid for the code that produced them — the
//! analytical models are pure functions of the design configuration, so
//! the `fingerprint` hashes every registered design's `Debug`
//! configuration fingerprint plus the model registry. A snapshot whose
//! format or fingerprint does not match the running binary is refused
//! (the server boots cold instead of serving stale numbers).
//!
//! `crc32` is an IEEE CRC-32 over the raw bytes that follow the
//! `,"strings":` tag, up to the document's closing brace: the string
//! table and the entries exactly as written. The file layout is fixed —
//! `"strings"` and `"entries"` are always the last two members — so
//! [`load`] can locate the payload bytes without re-encoding, verify the
//! checksum, and reject a torn write or silent media corruption as
//! [`SnapshotError::ChecksumMismatch`] before trusting a single entry.
//! Every entry is decoded before the first one is preloaded, so a load
//! either restores the whole snapshot or leaves the cache untouched.
//! Every load failure is reported, never panicked: the serving layer
//! logs it and boots cold.
//!
//! The string table is sorted and entries are sorted by their encoded
//! form before writing, so save → load → save is byte-identical (the
//! in-memory memo is a `HashMap` with nondeterministic iteration order).
//! `f64` payloads round-trip exactly: the [`Json`] encoder prints
//! shortest-round-trip forms, and the one `f64` that is keyed by bit
//! pattern (unstructured degrees) is stored as a hex bit string rather
//! than a number.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use hl_arch::{Comp, EnergyBreakdown};
use hl_sim::engine::{EvalCache, EvalKey, OperandKey};
use hl_sim::{EvalResult, Unsupported};
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::GemmShape;

use crate::json::Json;

/// Snapshot format version; bumped on any encoding change (v2 added the
/// `crc32` payload checksum, v3 the string table and positional entries).
pub const FORMAT: u64 = 3;

/// Why a snapshot could not be loaded (`thiserror` idiom: structured
/// variants, hand-written `Display`, `std::error::Error`).
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The document is not a snapshot (bad JSON, wrong shape, bad entry).
    Malformed(String),
    /// The snapshot was produced by a different design/model registry.
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
type Outcome = Result<EvalResult, Unsupported>;

/// The byte-at-a-time lookup table for [`crc32`], built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // hl-lint: allow(no-panic-in-request-path, evaluated at compile time with i < 256)
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320), one table lookup per
/// byte.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
        // hl-lint: allow(no-panic-in-request-path, a u8 always indexes the 256-entry table)
        CRC_TABLE[usize::from((crc as u8) ^ b)] ^ (crc >> 8)
    })
}

/// The tag preceding the payload in the fixed document layout.
const PAYLOAD_TAG: &str = ",\"strings\":";

/// The cache-compatibility fingerprint of the running binary: an FNV-1a
/// hash over the snapshot format version, every registered design's
/// `Debug` configuration fingerprint, and the model registry.
pub fn cache_fingerprint() -> String {
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
    for id in hl_bench::DesignId::ALL {
        eat(format!("{:?}", id.build()).as_bytes());
    }
    for name in hl_models::model_names() {
        eat(name.as_bytes());
    }
    format!("hl-snap-v{FORMAT}:{h:016x}")
}

/// Writes the cache to `path` (atomically: temp file + rename), returning
/// the number of entries saved.
///
/// # Errors
/// [`SnapshotError::Io`].
pub fn save(cache: &EvalCache, path: &Path) -> Result<usize, SnapshotError> {
    let entries = cache.entries();
    let strings = StringTable::new(&entries);
    let mut encoded: Vec<String> = entries
        .iter()
        .map(|(k, v)| strings.entry_json(k, v).encode())
        .collect();
    // The memo is a HashMap; sort so identical caches write identical
    // bytes (asserted by the round-trip test).
    encoded.sort_unstable();
    // The payload: the string table and the entries array exactly as
    // written (the CRC input).
    let mut payload = strings.json().encode();
    payload.push_str(",\"entries\":[");
    payload.push_str(&encoded.join(","));
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
    Ok(encoded.len())
}

/// What a successful [`load_logged`] restored.
#[derive(Debug, Clone, Copy)]
pub struct Loaded {
    /// Entries preloaded into the cache.
    pub entries: usize,
    /// Size of the snapshot file in bytes.
    pub bytes: usize,
}

/// Loads a snapshot into the cache via [`EvalCache::preload`] (hit/miss
/// counters untouched; live entries win over preloaded ones), returning
/// the number of entries loaded.
///
/// # Errors
/// [`SnapshotError`] — including [`SnapshotError::FingerprintMismatch`]
/// when the file was produced by a different registry and
/// [`SnapshotError::ChecksumMismatch`] when the payload fails its CRC.
/// On any error the cache is left untouched.
pub fn load(cache: &EvalCache, path: &Path) -> Result<usize, SnapshotError> {
    load_with(cache, path, None)
}

/// [`load`], with an optional fault plane corrupting the file text
/// in memory before it is parsed — the chaos harness' way of proving a
/// truncated or bit-flipped snapshot is rejected and boots cold, without
/// actually tearing files on disk.
///
/// # Errors
/// As [`load`].
pub fn load_with(
    cache: &EvalCache,
    path: &Path,
    faults: Option<&crate::faults::FaultPlane>,
) -> Result<usize, SnapshotError> {
    load_logged(cache, path, faults, None).map(|loaded| loaded.entries)
}

/// [`load_with`], reporting injected corruption through a structured
/// logger (tagged with the server's boot-scoped trace id) instead of a
/// bare stderr line, and returning the file size along with the entry
/// count. The server boot path uses this; `None` is silent.
///
/// # Errors
/// As [`load`].
pub fn load_logged(
    cache: &EvalCache,
    path: &Path,
    faults: Option<&crate::faults::FaultPlane>,
    log: Option<(&crate::log::Logger, &str)>,
) -> Result<Loaded, SnapshotError> {
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
    let entries = decode(&text)?;
    let loaded = Loaded {
        entries: entries.len(),
        bytes,
    };
    // Preload only once every entry has decoded: a bad entry anywhere
    // leaves the cache as cold as the boot the server logs.
    cache.preload(entries);
    Ok(loaded)
}

/// Checks a snapshot document's format, fingerprint and checksum, then
/// decodes every entry.
fn decode(text: &str) -> Result<Vec<(EvalKey, Outcome)>, SnapshotError> {
    let doc = Json::parse(text).map_err(|e| malformed(e.to_string()))?;
    let format = doc
        .get("format")
        .and_then(Json::as_f64)
        .ok_or_else(|| malformed("missing \"format\""))?;
    if format != FORMAT as f64 {
        return Err(malformed(format!("unsupported format {format}")));
    }
    let found = doc
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("missing \"fingerprint\""))?;
    let expected = cache_fingerprint();
    if found != expected {
        return Err(SnapshotError::FingerprintMismatch {
            expected,
            found: found.to_string(),
        });
    }
    let stored = doc
        .get("crc32")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("missing \"crc32\""))?;
    // The fixed layout puts the payload last, so its raw bytes — exactly
    // what `save` checksummed — run from just past the tag to the
    // document's closing brace. No re-encoding involved: re-encoding a
    // corrupted-but-parsable payload could normalize the damage away.
    let payload = text
        .split_once(PAYLOAD_TAG)
        .ok_or_else(|| malformed("document layout: missing strings tag"))?
        .1
        .strip_suffix('}')
        .ok_or_else(|| malformed("document layout: missing closing brace"))?;
    let computed = format!("{:08x}", crc32(payload.as_bytes()));
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch {
            stored: stored.to_string(),
            computed,
        });
    }
    let strings = doc
        .get("strings")
        .and_then(Json::as_arr)
        .ok_or_else(|| malformed("missing \"strings\""))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(Arc::from)
                .ok_or_else(|| malformed("\"strings\" must hold strings"))
        })
        .collect::<Result<Vec<Arc<str>>, _>>()?;
    // Decode from the owned tree, so each entry's nodes are freed as soon
    // as it is decoded and the decoded entries reuse that memory: a
    // booting process pays for every fresh page it touches.
    let entries = match doc {
        Json::Obj(members) => members.into_iter().find_map(|(key, value)| match value {
            Json::Arr(items) if key == "entries" => Some(items),
            _ => None,
        }),
        _ => None,
    };
    entries
        .ok_or_else(|| malformed("missing \"entries\""))?
        .into_iter()
        .map(|e| entry_from(&strings, &e))
        .collect()
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

fn entry_from(strings: &[Arc<str>], v: &Json) -> Result<(EvalKey, Outcome), SnapshotError> {
    let Some([design, shape, a, b, outcome]) = v.as_arr() else {
        return Err(malformed("an entry must be [design, shape, a, b, outcome]"));
    };
    let value = match outcome.as_arr() {
        Some([name, workload, cycles, energy]) => Ok(EvalResult {
            design: string_at(strings, name)?.to_string(),
            workload: string_at(strings, workload)?.to_string(),
            cycles: cycles
                .as_f64()
                .ok_or_else(|| malformed("result cycles must be a number"))?,
            energy: energy_from(energy)?,
        }),
        Some([name, reason]) => Err(Unsupported {
            design: string_at(strings, name)?.to_string(),
            reason: string_at(strings, reason)?.to_string(),
        }),
        _ => {
            return Err(malformed(
                "an outcome must be [name, workload, cycles, energy] or [name, reason]",
            ))
        }
    };
    Ok((
        EvalKey {
            design: Arc::clone(string_at(strings, design)?),
            shape: shape_from(shape)?,
            a: operand_key_from(a)?,
            b: operand_key_from(b)?,
        },
        value,
    ))
}

/// The string-table entry a JSON index names.
fn string_at<'a>(strings: &'a [Arc<str>], v: &Json) -> Result<&'a Arc<str>, SnapshotError> {
    index_from(v).and_then(|i| strings.get(i)).ok_or_else(|| {
        malformed(format!(
            "{} is not an index into the {}-string table",
            v.encode(),
            strings.len()
        ))
    })
}

/// A non-negative integral JSON number as an index.
fn index_from(v: &Json) -> Option<usize> {
    v.as_f64()
        .filter(|n| n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(n))
        .map(|n| n as usize)
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

fn energy_from(v: &Json) -> Result<EnergyBreakdown, SnapshotError> {
    let pairs = v
        .as_arr()
        .ok_or_else(|| malformed("result energy must be an array"))?;
    let mut energy = EnergyBreakdown::new();
    let mut next = 0;
    for pair in pairs {
        let Some([comp, pj]) = pair.as_arr() else {
            return Err(malformed("energy must hold [component, pJ] pairs"));
        };
        let (i, comp) = index_from(comp)
            .filter(|&i| i >= next)
            .and_then(|i| Some((i, *Comp::ALL.get(i)?)))
            .ok_or_else(|| {
                malformed(format!(
                    "energy component {} is unknown or out of order",
                    comp.encode()
                ))
            })?;
        let pj = pj
            .as_f64()
            .filter(|pj| pj.is_finite() && *pj >= 0.0)
            .ok_or_else(|| malformed(format!("bad {comp} energy {}", pj.encode())))?;
        energy.record(comp, pj);
        next = i + 1;
    }
    Ok(energy)
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

fn operand_key_from(v: &Json) -> Result<OperandKey, SnapshotError> {
    match v {
        Json::Str(s) if s == "dense" => Ok(OperandKey::Dense),
        Json::Str(hex) => u64::from_str_radix(hex, 16)
            .ok()
            .filter(|_| hex.len() == 16)
            .map(OperandKey::Unstructured)
            .ok_or_else(|| malformed(format!("bad unstructured bit pattern {hex:?}"))),
        Json::Arr(ranks) => ranks
            .iter()
            .map(|rank| {
                let Some([g, h]) = rank.as_arr() else {
                    return Err(malformed("HSS ranks must be [g, h] pairs"));
                };
                Gh::try_new(gh_int(g)?, gh_int(h)?).map_err(|e| malformed(e.to_string()))
            })
            .collect::<Result<_, _>>()
            .map(|ghs| OperandKey::Hss(HssPattern::new(ghs))),
        _ => Err(malformed(
            "an operand must be \"dense\", a hex bit pattern, or HSS ranks",
        )),
    }
}

fn gh_int(v: &Json) -> Result<u32, SnapshotError> {
    let n = v
        .as_f64()
        .ok_or_else(|| malformed("G:H components must be numbers"))?;
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

fn shape_from(v: &Json) -> Result<GemmShape, SnapshotError> {
    let Some([m, k, n]) = v.as_arr() else {
        return Err(malformed("a shape must be [m, k, n]"));
    };
    Ok(GemmShape::new(dim(m)?, dim(k)?, dim(n)?))
}

fn dim(v: &Json) -> Result<usize, SnapshotError> {
    v.as_f64()
        .filter(|n| n.fract() == 0.0 && (1.0..=(1u64 << 53) as f64).contains(n))
        .map(|n| n as usize)
        .ok_or_else(|| malformed(format!("bad shape dimension {}", v.encode())))
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

    /// A snapshot document around `payload` (the string table and the
    /// entries, as written after the payload tag) with the running
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
        let p1 = temp_path("first");
        let p2 = temp_path("second");
        assert_eq!(save(&cache, &p1).unwrap(), 2);

        let restored = EvalCache::new();
        assert_eq!(load(&restored, &p1).unwrap(), 2);
        // Loading counts neither hits nor misses.
        assert_eq!((restored.hits(), restored.misses()), (0, 0));

        let mut original = cache.entries();
        let mut round_tripped = restored.entries();
        let key = |e: &(EvalKey, Result<EvalResult, Unsupported>)| format!("{:?}", e.0);
        original.sort_by_key(key);
        round_tripped.sort_by_key(key);
        assert_eq!(original, round_tripped);

        assert_eq!(save(&restored, &p2).unwrap(), 2);
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
        save(&cache, &path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(doc.matches(design).count(), 1, "{doc}");
        assert_eq!(doc.matches("dense A").count(), 1, "{doc}");

        let restored = EvalCache::new();
        assert_eq!(load(&restored, &path).unwrap(), 3);
        let entries = restored.entries();
        assert!(entries
            .iter()
            .all(|(k, _)| Arc::ptr_eq(&k.design, &entries[0].0.design)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_refuses_the_snapshot() {
        let cache = sample_cache();
        let path = temp_path("stale");
        save(&cache, &path).unwrap();
        let doc = std::fs::read_to_string(&path)
            .unwrap()
            .replace(&cache_fingerprint(), "hl-snap-v3:0000000000000000");
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
    fn fingerprint_is_stable_within_a_process() {
        let a = cache_fingerprint();
        let b = cache_fingerprint();
        assert_eq!(a, b);
        assert!(a.starts_with("hl-snap-v3:"), "{a}");
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
        save(&cache, &path).unwrap();
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
        let payload = format!(r#"{strings},"entries":[{good},{bad}]"#);
        let path = temp_path("bad-last");
        std::fs::write(&path, document(&payload)).unwrap();
        let restored = EvalCache::new();
        let err = load(&restored, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert!(restored.entries().is_empty(), "no entry of a failed load");

        // The good entry on its own loads.
        let payload = format!(r#"{strings},"entries":[{good}]"#);
        std::fs::write(&path, document(&payload)).unwrap();
        assert_eq!(load(&restored, &path).unwrap(), 1);
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
            let payload = format!(r#"{strings},"entries":[{entry}]"#);
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
        save(&cache, &path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &doc[..doc.len() / 2]).unwrap();
        let err = load(&EvalCache::new(), &path).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_and_byte_flip_is_refused() {
        let path = temp_path("exhaustive");
        save(&sample_cache(), &path).unwrap();
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
            "{{\"format\":{FORMAT},\"fingerprint\":{},\"strings\":[],\"entries\":[]}}",
            Json::str(cache_fingerprint()).encode()
        );
        std::fs::write(&path, doc).unwrap();
        let err = load(&EvalCache::new(), &path).unwrap_err();
        assert!(err.to_string().contains("crc32"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_plane_corruption_is_caught_on_load() {
        use crate::faults::FaultPlane;
        let cache = sample_cache();
        let path = temp_path("faulty");
        save(&cache, &path).unwrap();

        for spec in ["seed=11,snapshot=bitflip", "snapshot=truncate"] {
            let plane = FaultPlane::parse(spec).unwrap();
            let restored = EvalCache::new();
            let err = load_with(&restored, &path, Some(&plane)).unwrap_err();
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
        }
        // The same file loads cleanly without the fault plane.
        assert_eq!(load(&EvalCache::new(), &path).unwrap(), 2);
        std::fs::remove_file(&path).ok();
    }
}
