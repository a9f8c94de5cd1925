//! Parallel design-space evaluation engine.
//!
//! The paper's artifacts iterate `designs × sparsity degrees × H-values ×
//! model layers` through [`Accelerator::evaluate_best`] — a workload that
//! grows combinatorially as the design registry and model zoo widen. This
//! module provides the machinery that makes those sweeps scale:
//!
//! - [`parallel_map`]: a `std::thread::scope`-based chunked worker pool
//!   (no external dependencies) with a **deterministic ordered-collect**:
//!   results are returned in input order regardless of scheduling, so
//!   parallel sweeps are byte-identical to their serial baseline;
//! - [`Memo`]: a generic thread-safe memo table for repeated *pure*
//!   evaluations, with lookup-only reads ([`Memo::lookup`],
//!   [`Memo::get_if`]) that count hits without computing;
//! - [`Engine`]: the pool plus an [`EvalCache`] memoizing the [`Cost`] of
//!   [`Accelerator::evaluate_best`] keyed on `(design, shape, operand
//!   sparsity)` — whole-DNN sweeps stop recomputing identical layers.
//!   `Engine::evaluate_cells` looks a whole batch of cells up under one
//!   lock and fans out only the misses, so a fully warm batch (a replayed
//!   network, a repeated sweep) runs on the caller thread and spawns none;
//! - [`SweepGrid`]: a declarative grid of `(design, workload)` cells that
//!   replaces hand-rolled nested sweep loops and evaluates them as one
//!   `Engine::evaluate_cells` batch.
//!
//! ## Thread-count resolution
//!
//! [`Engine::new`] sizes the pool from the `HL_THREADS` environment
//! variable when set (a positive integer), falling back to
//! [`std::thread::available_parallelism`]. [`Engine::with_threads`] pins an
//! explicit count; [`Engine::serial`] runs on the caller thread (still
//! memoized).
//!
//! ## Determinism guarantee
//!
//! Every evaluation the engine runs is a pure function of its inputs.
//! Worker scheduling only decides *when* a cell is computed, never *what*
//! it computes, and the ordered collect reassembles results by input index.
//! Memoization returns the value the uncached call would produce (caches
//! are keyed on every input the evaluation reads). Consequently engine
//! output is identical for any thread count, including the serial path —
//! the property the `determinism` integration tests assert.

use std::cell::Cell;
use std::collections::{hash_map, HashMap};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hl_tensor::GemmShape;

use crate::eval::{Accelerator, Cost, EvalResult, Unsupported};
use crate::workload::{OperandSparsity, Workload};

/// Environment variable overriding the engine's worker-thread count.
pub const HL_THREADS_ENV: &str = "HL_THREADS";

/// Resolves the default worker count: `HL_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(HL_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

std::thread_local! {
    /// Set on engine worker threads for their lifetime: a nested
    /// [`parallel_map`] issued from inside a worker (e.g. a sweep cell
    /// evaluating a whole network) runs inline instead of spawning a
    /// second pool on an already-busy machine.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Maps `f` over `items` on `threads` scoped workers, returning results in
/// input order (deterministic ordered collect).
///
/// Work is handed out in contiguous chunks via an atomic cursor, so fast
/// workers steal remaining chunks from slow ones. With `threads <= 1`, a
/// single item, or when called from inside another `parallel_map` worker
/// (nested fan-out would oversubscribe the pool) the map runs inline on
/// the caller thread — the output is identical either way.
///
/// # Panics
/// Propagates panics from `f` (the scope joins every worker).
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 || IN_POOL.with(Cell::get) {
        return items.iter().map(f).collect();
    }
    let workers = threads.min(items.len());
    // Small chunks keep workers busy near the tail without a cursor
    // contention storm at the head.
    let chunk = (items.len() / (workers * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Workers are fresh threads dropped at scope exit, so
                    // the flag needs no reset.
                    IN_POOL.with(|flag| flag.set(true));
                    let mut local = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items[start..end].iter().enumerate() {
                            local.push((start + i, f(item)));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // A panicking cell re-raises its original payload on the
            // caller thread (not a fresh "worker panicked" panic), so a
            // `catch_unwind` around the engine call — the serving
            // layer's supervision boundary — observes the real cause.
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// A thread-safe memo table for pure evaluations.
///
/// Lookups clone the stored value ([`Memo::lookup`] lends it under the
/// lock instead); misses compute *outside* the lock, so a slow evaluation
/// never serializes the other workers (two workers may race on the same
/// key, but the evaluation is pure, so both compute the same value and
/// either insert wins).
///
/// The table is unwind-safe: evaluations run outside the lock, so a
/// panicking evaluation can never leave a half-written entry, and every
/// lock recovers from mutex poisoning (a thread that panicked *while
/// holding* the lock was only reading or inserting a fully-computed
/// value, so the map is still consistent). A caught panic therefore
/// doesn't wedge every later request that shares the cache.
#[derive(Debug)]
pub struct Memo<K, V> {
    map: Mutex<HashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> Default for Memo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Locks the map, recovering from poisoning: see the type docs for
    /// why the contents are still consistent after a panic.
    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<K, V>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the memoized value for `key`, computing it with `f` on a
    /// miss.
    pub fn get_or_insert_with(&self, key: &K, f: impl FnOnce() -> V) -> V {
        if let Some(v) = self.map().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = f();
        self.map().entry(key.clone()).or_insert_with(|| v.clone());
        v
    }

    /// Looks keys up under one lock without computing anything: `visit`
    /// is handed a lookup to call once per key, borrowing what it finds
    /// for as long as the lock is held, and every stored value it returns
    /// counts a hit. An absent key counts nothing: the caller computes it
    /// and stores it through [`Memo::insert`] or [`Memo::insert_many`],
    /// which count the miss.
    pub fn lookup<R>(
        &self,
        visit: impl for<'m> FnOnce(&mut dyn FnMut(&K) -> Option<&'m V>) -> R,
    ) -> R {
        let map = self.map();
        let mut hits = 0;
        let result = visit(&mut |key| {
            let found = map.get(key);
            hits += u64::from(found.is_some());
            found
        });
        drop(map);
        self.hits.fetch_add(hits, Ordering::Relaxed);
        result
    }

    /// Looks `key` up without computing anything, answering only with a
    /// stored value that `fresh` accepts, and counting that as a hit. An
    /// absent or stale value counts nothing: the caller computes the
    /// value and stores it with [`Memo::insert`], which counts the miss.
    pub fn get_if(&self, key: &K, fresh: impl FnOnce(&V) -> bool) -> Option<V> {
        let v = self.map().get(key).filter(|v| fresh(v)).cloned()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    /// Stores `value` under `key`, replacing any stored value, and counts
    /// a miss: the value a [`Memo::get_if`] or [`Memo::lookup`] did not
    /// answer.
    pub fn insert(&self, key: K, value: V) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.map().insert(key, value);
    }

    /// [`Memo::insert`] of every entry under one lock, counting a miss per
    /// entry: the values a batch of lookups did not answer.
    pub fn insert_many(&self, entries: impl IntoIterator<Item = (K, V)>) {
        let mut map = self.map();
        let mut stored = 0;
        for (key, value) in entries {
            map.insert(key, value);
            stored += 1;
        }
        drop(map);
        self.misses.fetch_add(stored, Ordering::Relaxed);
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `(hits, misses)` in one call — the shape the serving layer's
    /// metrics and per-request traces consume.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits(), self.misses())
    }

    /// Hands `read` the stored `(key, value)` pairs under one lock,
    /// borrowed, not cloned — the persistence path: `hl-serve` encodes
    /// the evaluation cache into a snapshot straight from them. The
    /// iterator clones cheaply for a second pass; order is unspecified
    /// (callers sort).
    pub fn walk<R>(&self, read: impl FnOnce(hash_map::Iter<'_, K, V>) -> R) -> R {
        read(self.map().iter())
    }

    /// Seeds entries without touching the hit/miss counters — the
    /// snapshot-load path — under one lock, growing the map once. An
    /// already-present key keeps its value (live results win over
    /// preloaded ones).
    pub fn preload(&self, entries: impl IntoIterator<Item = (K, V)>) {
        let entries = entries.into_iter();
        let mut map = self.map();
        map.reserve(entries.size_hint().0);
        for (key, value) in entries {
            map.entry(key).or_insert(value);
        }
    }

    /// [`Memo::preload`] of a whole decoded table. A memo that holds
    /// nothing takes `table` over as it is, so the snapshot-load path
    /// moves (and hashes) no entry a second time; otherwise every entry
    /// merges in as [`Memo::preload`] would.
    pub fn preload_table(&self, table: HashMap<K, V>) {
        let mut map = self.map();
        if map.is_empty() {
            *map = table;
            return;
        }
        map.reserve(table.len());
        for (key, value) in table {
            map.entry(key).or_insert(value);
        }
    }
}

/// Hashable identity of one operand's sparsity descriptor (`f64` degrees
/// are keyed by their exact bit pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OperandKey {
    /// Fully dense.
    Dense,
    /// Unstructured with the degree's `f64` bits.
    Unstructured(u64),
    /// An HSS pattern.
    Hss(hl_sparsity::HssPattern),
}

impl From<&OperandSparsity> for OperandKey {
    fn from(op: &OperandSparsity) -> Self {
        match op {
            OperandSparsity::Dense => Self::Dense,
            OperandSparsity::Unstructured { sparsity } => Self::Unstructured(sparsity.to_bits()),
            OperandSparsity::Hss(p) => Self::Hss(p.clone()),
        }
    }
}

/// A design's configuration fingerprint: its full `Debug` rendering,
/// shared behind one `Arc` so sweeps format it once per design and every
/// cell key clones a pointer instead of re-rendering the string.
///
/// The text runs to hundreds of bytes, so the fingerprint also carries a
/// 64-bit digest of it, computed once where the text is made
/// ([`Engine::fingerprint`], a snapshot's decode) and stored beside the
/// text in the shared allocation, so a key holds one thin pointer. `Hash`
/// writes only the digest: an [`EvalKey`] lookup hashes eight bytes for
/// the design instead of the whole text. `Eq` still compares the text
/// (after a pointer check and the digests), so two configurations whose
/// digests collide cost a longer probe, never a wrong answer. The digest
/// lives only in memory: snapshots store the text.
#[derive(Clone)]
pub struct DesignFingerprint(Arc<Fingerprinted>);

/// The shared part of a [`DesignFingerprint`].
struct Fingerprinted {
    digest: u64,
    text: Box<str>,
}

impl std::ops::Deref for DesignFingerprint {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0.text
    }
}

impl PartialEq for DesignFingerprint {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.digest == other.0.digest && self.0.text == other.0.text)
    }
}

impl Eq for DesignFingerprint {}

impl Hash for DesignFingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.digest);
    }
}

/// Prints the text alone, as a `str` would.
impl std::fmt::Debug for DesignFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&*self.0.text, f)
    }
}

impl From<String> for DesignFingerprint {
    fn from(text: String) -> Self {
        let mut hasher = DefaultHasher::new();
        hasher.write(text.as_bytes());
        Self(Arc::new(Fingerprinted {
            digest: hasher.finish(),
            text: text.into_boxed_str(),
        }))
    }
}

impl From<&str> for DesignFingerprint {
    fn from(text: &str) -> Self {
        Self::from(text.to_owned())
    }
}

/// Cache key for one `(design, workload)` evaluation: everything
/// [`Accelerator::evaluate_best`] reads except the names.
///
/// The design is identified by its full `Debug` fingerprint, not just its
/// name: two same-name instances with different configurations (ablation
/// variants, alternative technology tables) are distinct cache entries.
/// Hashing a key reads the fingerprint's precomputed digest, not its text;
/// equality compares the text ([`DesignFingerprint`]).
///
/// Neighboring sweep points differ in at most the shape and one operand
/// descriptor, so the key is built incrementally: the design fingerprint
/// is a shared [`DesignFingerprint`] hoisted out of the sweep loop
/// ([`Engine::fingerprint`]), and only the cheap per-point fields are
/// recomputed per cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EvalKey {
    /// Design `Debug` fingerprint (name plus every configuration field).
    pub design: DesignFingerprint,
    /// GEMM dimensions.
    pub shape: GemmShape,
    /// Operand A sparsity identity.
    pub a: OperandKey,
    /// Operand B sparsity identity.
    pub b: OperandKey,
}

impl EvalKey {
    /// The key for evaluating `workload` on `design`.
    pub fn new(design: &dyn Accelerator, workload: &Workload) -> Self {
        Self::with_fingerprint(&Engine::fingerprint(design), workload)
    }

    /// The key for `workload` with an already-computed design fingerprint —
    /// the sweep path, where the fingerprint is hoisted out of the loop.
    pub fn with_fingerprint(design: &DesignFingerprint, workload: &Workload) -> Self {
        Self {
            design: design.clone(),
            shape: workload.shape,
            a: (&workload.a).into(),
            b: (&workload.b).into(),
        }
    }
}

/// Memo table over [`Accelerator::evaluate_best`] outcomes: the [`Cost`]
/// of a supported evaluation, or the reason the design cannot run it.
///
/// The analytical models are pure: cycles and the energy ledger depend only
/// on the design configuration and `(shape, a, b)` — the
/// [`crate::analytic::TrafficModel`] / [`crate::analytic::Accountant`]
/// pipeline never reads the workload name. The names a report carries are
/// not stored: the engine builds each report on the way out, from the
/// design's name and the requesting workload's.
pub type EvalCache = Memo<EvalKey, Result<Cost, Arc<str>>>;

/// The parallel evaluation engine: a worker pool plus the evaluation memo.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    evals: EvalCache,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine sized by [`default_threads`] (`HL_THREADS` override, then
    /// available parallelism).
    pub fn new() -> Self {
        Self::with_threads(default_threads())
    }

    /// An engine with an explicit worker count (`0` is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            evals: Memo::new(),
        }
    }

    /// A single-threaded engine (still memoized).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The evaluation memo (for hit/miss introspection).
    pub fn eval_cache(&self) -> &EvalCache {
        &self.evals
    }

    /// Maps `f` over `items` on the pool with deterministic ordering (see
    /// [`parallel_map`]).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        parallel_map(self.threads, items, f)
    }

    /// The configuration fingerprint of `design` — format it once per
    /// design and share it across every cell of a batch that sweeps many
    /// points over the same design.
    pub fn fingerprint(design: &dyn Accelerator) -> DesignFingerprint {
        DesignFingerprint::from(format!("{design:?}"))
    }

    /// Memoized [`Accelerator::evaluate_best`]: identical `(design, shape,
    /// a, b)` cells are evaluated once and replayed from the cache,
    /// reported for this design and workload.
    ///
    /// # Errors
    /// Exactly the errors of [`Accelerator::evaluate_best`].
    pub fn evaluate_best(
        &self,
        design: &dyn Accelerator,
        workload: &Workload,
    ) -> Result<EvalResult, Unsupported> {
        self.evaluate_cell(&EvalKey::new(design, workload), design, workload)
    }

    /// One memoized cell: on a hit, the report of the cached cost; on a
    /// miss, the result just computed, of which the memo keeps the cost.
    fn evaluate_cell(
        &self,
        key: &EvalKey,
        design: &dyn Accelerator,
        workload: &Workload,
    ) -> Result<EvalResult, Unsupported> {
        let hit = self
            .evals
            .lookup(|get| get(key).map(|cached| report(cached, design, workload)));
        hit.unwrap_or_else(|| {
            let result = design.evaluate_best(workload);
            self.evals.insert(key.clone(), pack(&result));
            result
        })
    }

    /// Memoized [`Accelerator::evaluate_best`] over a batch of cells,
    /// results in input order. Every cell's key is looked up, and every
    /// hit reported, under one lock first; only the misses fan out across
    /// the pool. A fully warm batch therefore spawns no threads, and a
    /// cold one fans out exactly as [`Engine::map`] would.
    ///
    /// Network evaluation and [`SweepGrid::run`] both go through here, so
    /// every batched path follows the same rule.
    pub(crate) fn evaluate_cells(
        &self,
        cells: &[EvalCell<'_>],
    ) -> Vec<Result<EvalResult, Unsupported>> {
        let keys: Vec<EvalKey> = cells
            .iter()
            .map(|&(_, fingerprint, workload)| EvalKey::with_fingerprint(fingerprint, workload))
            .collect();
        let mut found: Vec<_> = self.evals.lookup(|get| {
            let hits = keys.iter().zip(cells).map(|(key, &(design, _, workload))| {
                get(key).map(|cached| report(cached, design, workload))
            });
            hits.collect()
        });
        let misses: Vec<usize> = (0..cells.len()).filter(|&i| found[i].is_none()).collect();
        let computed = self.map(&misses, |&i| {
            let (design, _, workload) = cells[i];
            self.evaluate_cell(&keys[i], design, workload)
        });
        for (i, outcome) in misses.into_iter().zip(computed) {
            found[i] = Some(outcome);
        }
        // Every slot is filled now, so `flatten` keeps one outcome per cell.
        found.into_iter().flatten().collect()
    }
}

/// One cell of [`Engine::evaluate_cells`]: the design, its hoisted
/// [`Engine::fingerprint`], and the workload to evaluate on it.
pub(crate) type EvalCell<'a> = (&'a dyn Accelerator, &'a DesignFingerprint, &'a Workload);

/// What the memo keeps of an [`Accelerator::evaluate_best`] outcome.
pub(crate) fn pack(result: &Result<EvalResult, Unsupported>) -> Result<Cost, Arc<str>> {
    match result {
        Ok(r) => Ok(Cost {
            cycles: r.cycles,
            energy: r.energy.packed(),
        }),
        Err(unsupported) => Err(unsupported.reason.as_str().into()),
    }
}

/// The report of a memoized outcome for `design` on `workload`: bit for
/// bit what [`Accelerator::evaluate_best`] answers.
fn report(
    cached: &Result<Cost, Arc<str>>,
    design: &dyn Accelerator,
    workload: &Workload,
) -> Result<EvalResult, Unsupported> {
    match cached {
        Ok(cost) => Ok(EvalResult {
            design: design.name().to_owned(),
            workload: workload.name.clone(),
            cycles: cost.cycles,
            energy: cost.energy.unpack(),
        }),
        Err(reason) => Err(Unsupported {
            design: design.name().to_owned(),
            reason: reason.to_string(),
        }),
    }
}

/// A declarative sweep: a grid of `(design, workload)` cells.
///
/// Each row is one sweep point (a sparsity degree, a layer, …) holding one
/// co-designed workload per design. [`SweepGrid::run`] fans all cells out
/// across the engine's pool and collects a `rows × designs` result matrix
/// in declaration order.
pub struct SweepGrid<'a> {
    designs: &'a [Box<dyn Accelerator>],
    rows: Vec<Vec<Workload>>,
}

impl<'a> SweepGrid<'a> {
    /// An empty grid over the given design registry.
    pub fn new(designs: &'a [Box<dyn Accelerator>]) -> Self {
        Self {
            designs,
            rows: Vec::new(),
        }
    }

    /// Number of rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Adds one sweep row: one workload per design, in registry order
    /// (`§7.1.2`: every design is handed the workload in the sparsity
    /// pattern it was designed for).
    ///
    /// # Panics
    /// Panics when the row does not hold exactly one workload per design.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Workload>) -> &mut Self {
        let row: Vec<Workload> = row.into_iter().collect();
        assert_eq!(row.len(), self.designs.len(), "one workload per design");
        self.rows.push(row);
        self
    }

    /// Evaluates every cell on the engine, returning `rows × designs`
    /// results in declaration order (`None` = unsupported). Output is
    /// byte-identical for any thread count.
    pub fn run(&self, engine: &Engine) -> Vec<Vec<Option<EvalResult>>> {
        // One fingerprint per design, shared by every cell in its column.
        let fingerprints: Vec<DesignFingerprint> = self
            .designs
            .iter()
            .map(|d| Engine::fingerprint(d.as_ref()))
            .collect();
        let cells: Vec<EvalCell<'_>> = self
            .rows
            .iter()
            .flat_map(|row| {
                row.iter()
                    .zip(self.designs.iter().zip(&fingerprints))
                    .map(|(w, (d, fp))| (d.as_ref(), fp, w))
            })
            .collect();
        let mut it = engine.evaluate_cells(&cells).into_iter().map(Result::ok);
        let row = |_: &Vec<Workload>| it.by_ref().take(self.designs.len()).collect();
        self.rows.iter().map(row).collect()
    }

    /// Evaluates every cell inline on the caller thread with the plain,
    /// uncached [`Accelerator::evaluate_best`] — the reference path
    /// [`SweepGrid::run`] must reproduce byte-for-byte. Sharing the grid
    /// keeps both paths sweeping exactly the same cells.
    pub fn run_serial(&self) -> Vec<Vec<Option<EvalResult>>> {
        self.rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(self.designs)
                    .map(|(w, d)| d.evaluate_best(w).ok())
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_arch::AreaBreakdown;
    use std::sync::atomic::AtomicUsize;

    /// A design whose cycle count equals `m`, failing on dense A, and
    /// counting how many real evaluations it performed.
    struct Counting {
        evals: AtomicUsize,
    }

    /// The fingerprint must cover what `evaluate` *reads* (nothing here),
    /// not the instrumentation counter — a derived impl would print the
    /// mutating count and defeat the cache.
    impl std::fmt::Debug for Counting {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Counting")
        }
    }

    impl Counting {
        fn new() -> Self {
            Self {
                evals: AtomicUsize::new(0),
            }
        }
    }

    impl Accelerator for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn evaluate(&self, w: &Workload) -> Result<EvalResult, Unsupported> {
            self.evals.fetch_add(1, Ordering::Relaxed);
            if w.a.is_dense() {
                return Err(Unsupported {
                    design: self.name().into(),
                    reason: "dense A".into(),
                });
            }
            Ok(EvalResult {
                design: self.name().into(),
                workload: w.name.clone(),
                cycles: w.shape.m as f64,
                energy: hl_arch::EnergyBreakdown::new(),
            })
        }
        fn area(&self) -> AreaBreakdown {
            AreaBreakdown::new()
        }
        fn supported_patterns(&self) -> String {
            "test".into()
        }
        fn swappable(&self) -> bool {
            false
        }
    }

    /// Every `(key, value)` pair of `memo`, sorted.
    fn sorted(memo: &Memo<u32, u32>) -> Vec<(u32, u32)> {
        let mut entries: Vec<(u32, u32)> = memo.walk(|e| e.map(|(&k, &v)| (k, v)).collect());
        entries.sort_unstable();
        entries
    }

    fn sparse_workload(name: &str, m: usize) -> Workload {
        Workload::new(
            name,
            GemmShape::new(m, 8, 4),
            OperandSparsity::unstructured(0.5),
            OperandSparsity::Dense,
        )
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 5, 16] {
            let out = parallel_map(threads, &items, |&i| i * 3);
            assert_eq!(out, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(4, &empty, |&i: &usize| i).is_empty());
    }

    #[test]
    fn nested_parallel_map_runs_inline_on_the_worker() {
        let outer: Vec<usize> = (0..8).collect();
        let result = parallel_map(4, &outer, |&i| {
            let worker = std::thread::current().id();
            let inner: Vec<usize> = (0..4).collect();
            let (sums, threads): (Vec<usize>, Vec<_>) =
                parallel_map(4, &inner, |&j| (i * 10 + j, std::thread::current().id()))
                    .into_iter()
                    .unzip();
            assert!(
                threads.iter().all(|&t| t == worker),
                "nested maps must not spawn a second pool"
            );
            sums.iter().sum::<usize>()
        });
        let expect: Vec<usize> = outer.iter().map(|&i| i * 40 + 6).collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn parallel_map_reraises_the_original_panic_payload() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(4, &items, |&i| {
                if i == 13 {
                    panic!("cell 13 exploded");
                }
                i
            })
        }))
        .expect_err("the cell panic must propagate");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| caught.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>");
        assert!(msg.contains("cell 13 exploded"), "payload was {msg:?}");
    }

    #[test]
    fn memo_survives_mutex_poisoning() {
        let memo: std::sync::Arc<Memo<u32, u32>> = std::sync::Arc::new(Memo::new());
        memo.get_or_insert_with(&1, || 10);
        // Poison the inner mutex: panic on another thread while holding it.
        let poisoner = std::sync::Arc::clone(&memo);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.map.lock().unwrap();
            panic!("poison");
        })
        .join();
        assert!(memo.map.lock().is_err(), "mutex must actually be poisoned");
        // Every entry point still works.
        assert_eq!(memo.get_or_insert_with(&1, || unreachable!()), 10);
        assert_eq!(memo.get_or_insert_with(&2, || 20), 20);
        assert_eq!(memo.len(), 2);
        memo.preload([(3, 30)]);
        assert_eq!(sorted(&memo), vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn memo_caches_and_counts() {
        let memo: Memo<u32, u32> = Memo::new();
        assert!(memo.is_empty());
        assert_eq!(memo.get_or_insert_with(&7, || 49), 49);
        assert_eq!(memo.get_or_insert_with(&7, || unreachable!()), 49);
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (1, 1, 1));
    }

    #[test]
    fn memo_entries_and_preload_round_trip() {
        let memo: Memo<u32, u32> = Memo::new();
        assert_eq!(memo.get_or_insert_with(&1, || 10), 10);
        assert_eq!(memo.get_or_insert_with(&2, || 20), 20);
        let entries = sorted(&memo);
        assert_eq!(entries, vec![(1, 10), (2, 20)]);

        let warm: Memo<u32, u32> = Memo::new();
        warm.preload(entries);
        // Preloading counts neither hits nor misses and loses to live entries.
        assert_eq!((warm.hits(), warm.misses(), warm.len()), (0, 0, 2));
        warm.preload([(1, 99)]);
        assert_eq!(warm.get_or_insert_with(&1, || unreachable!()), 10);
        assert_eq!((warm.hits(), warm.misses()), (1, 0));
    }

    #[test]
    fn preload_table_takes_over_an_empty_memo_and_merges_otherwise() {
        let cold: Memo<u32, u32> = Memo::new();
        cold.preload_table(HashMap::from([(1, 10), (2, 20)]));
        assert_eq!((cold.hits(), cold.misses(), cold.len()), (0, 0, 2));
        assert_eq!(sorted(&cold), vec![(1, 10), (2, 20)]);

        // A memo that already holds entries keeps them: live entries win.
        cold.preload_table(HashMap::from([(1, 99), (3, 30)]));
        assert_eq!(sorted(&cold), vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!((cold.hits(), cold.misses()), (0, 0));
    }

    #[test]
    fn engine_memoizes_identical_cells_and_relabels() {
        let engine = Engine::serial();
        let design = Counting::new();
        let r1 = engine
            .evaluate_best(&design, &sparse_workload("first", 16))
            .unwrap();
        let r2 = engine
            .evaluate_best(&design, &sparse_workload("second", 16))
            .unwrap();
        assert_eq!(design.evals.load(Ordering::Relaxed), 1, "cache must hit");
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.workload, "first");
        assert_eq!(r2.workload, "second", "hits are re-labeled");
        // A different shape is a different cell.
        engine
            .evaluate_best(&design, &sparse_workload("third", 32))
            .unwrap();
        assert_eq!(design.evals.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_memo_bucket_fits_in_112_bytes() {
        let bucket = std::mem::size_of::<(EvalKey, Result<Cost, Arc<str>>)>();
        assert!(bucket <= 112, "an EvalCache bucket takes {bucket} bytes");
    }

    #[test]
    fn hits_report_every_recorded_component_even_at_zero() {
        /// Records a component at 0 pJ beside a nonzero one.
        #[derive(Debug)]
        struct Idle;
        impl Accelerator for Idle {
            fn name(&self) -> &str {
                "idle"
            }
            fn evaluate(&self, w: &Workload) -> Result<EvalResult, Unsupported> {
                let mut energy = hl_arch::EnergyBreakdown::new();
                energy.record(hl_arch::Comp::Vfmu, 0.0);
                energy.record(hl_arch::Comp::Mac, 0.1 + 0.2);
                Ok(EvalResult {
                    design: self.name().into(),
                    workload: w.name.clone(),
                    cycles: 7.0,
                    energy,
                })
            }
            fn area(&self) -> AreaBreakdown {
                AreaBreakdown::new()
            }
            fn supported_patterns(&self) -> String {
                "any".into()
            }
        }
        let engine = Engine::serial();
        let plain = Idle.evaluate_best(&sparse_workload("w", 8)).unwrap();
        for _ in 0..2 {
            let cached = engine
                .evaluate_best(&Idle, &sparse_workload("w", 8))
                .unwrap();
            assert_eq!(cached, plain);
            let comps: Vec<_> = cached.energy.iter().map(|(c, _)| c).collect();
            assert_eq!(comps, [hl_arch::Comp::Mac, hl_arch::Comp::Vfmu]);
        }
        assert_eq!(engine.eval_cache().stats(), (1, 1));
    }

    #[test]
    fn engine_caches_unsupported_outcomes() {
        let engine = Engine::serial();
        let design = Counting::new();
        let dense = Workload::new(
            "d",
            GemmShape::new(4, 8, 4),
            OperandSparsity::Dense,
            OperandSparsity::Dense,
        );
        assert!(engine.evaluate_best(&design, &dense).is_err());
        assert!(engine.evaluate_best(&design, &dense).is_err());
        assert_eq!(design.evals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn threads_resolution_clamps_and_defaults() {
        assert_eq!(Engine::with_threads(0).threads(), 1);
        assert_eq!(Engine::serial().threads(), 1);
        assert!(Engine::new().threads() >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn sweep_grid_shape_and_order() {
        let designs: Vec<Box<dyn Accelerator>> = vec![Box::new(Counting::new())];
        let mut grid = SweepGrid::new(&designs);
        for m in [8usize, 16, 24] {
            grid.push_row([sparse_workload("w", m)]);
        }
        assert_eq!(grid.rows(), 3);
        let engine = Engine::with_threads(4);
        let out = grid.run(&engine);
        assert_eq!(out.len(), 3);
        let cycles: Vec<f64> = out
            .iter()
            .map(|row| row[0].as_ref().unwrap().cycles)
            .collect();
        assert_eq!(cycles, vec![8.0, 16.0, 24.0]);
        assert_eq!(out, grid.run_serial(), "pool and serial paths must agree");
    }

    #[test]
    fn fingerprints_hash_their_digest_and_compare_their_text() {
        let text = "Design { x: 1 }";
        let a = DesignFingerprint::from(text);
        let b = DesignFingerprint::from(String::from(text));
        let c = DesignFingerprint::from("Design { x: 2 }");
        let hash = |f: &DesignFingerprint| {
            let mut h = DefaultHasher::new();
            f.hash(&mut h);
            h.finish()
        };
        // Separately made from equal text: equal keys, equal hashes.
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(a, c);
        assert_eq!(&*a, text);
        assert_eq!(format!("{a:?}"), format!("{text:?}"));
    }

    #[test]
    fn fingerprint_distinguishes_same_name_configs() {
        /// Same `name()` for every instance; `factor` is configuration.
        #[derive(Debug)]
        struct Scaled {
            factor: f64,
        }
        impl Accelerator for Scaled {
            fn name(&self) -> &str {
                "scaled"
            }
            fn evaluate(&self, w: &Workload) -> Result<EvalResult, Unsupported> {
                Ok(EvalResult {
                    design: self.name().into(),
                    workload: w.name.clone(),
                    cycles: w.shape.m as f64 * self.factor,
                    energy: hl_arch::EnergyBreakdown::new(),
                })
            }
            fn area(&self) -> AreaBreakdown {
                AreaBreakdown::new()
            }
            fn supported_patterns(&self) -> String {
                "any".into()
            }
            fn swappable(&self) -> bool {
                false
            }
        }
        let engine = Engine::serial();
        let w = sparse_workload("w", 10);
        let base = engine.evaluate_best(&Scaled { factor: 1.0 }, &w).unwrap();
        let ablated = engine.evaluate_best(&Scaled { factor: 3.0 }, &w).unwrap();
        assert_eq!(base.cycles, 10.0);
        assert_eq!(
            ablated.cycles, 30.0,
            "differently-configured same-name designs must not share cache entries"
        );
    }

    #[test]
    fn operand_keys_distinguish_descriptors() {
        use hl_sparsity::{Gh, HssPattern};
        let dense: OperandKey = (&OperandSparsity::Dense).into();
        let half: OperandKey = (&OperandSparsity::unstructured(0.5)).into();
        let pattern: OperandKey =
            (&OperandSparsity::Hss(HssPattern::one_rank(Gh::new(2, 4)))).into();
        assert_ne!(dense, half);
        assert_ne!(half, pattern);
        let half2: OperandKey = (&OperandSparsity::unstructured(0.5)).into();
        assert_eq!(half, half2);
    }
}
