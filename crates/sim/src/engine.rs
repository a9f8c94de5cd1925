//! Parallel design-space evaluation engine.
//!
//! The paper's artifacts iterate `designs × sparsity degrees × H-values ×
//! model layers` through [`evaluate_best`] — a workload that grows
//! combinatorially as the design registry and model zoo widen. This module
//! provides the machinery that makes those sweeps scale:
//!
//! - [`parallel_map`]: a `std::thread::scope`-based chunked worker pool
//!   (no external dependencies) with a **deterministic ordered-collect**:
//!   results are returned in input order regardless of scheduling, so
//!   parallel sweeps are byte-identical to their serial baseline;
//! - [`Memo`]: a generic thread-safe memo table for repeated *pure*
//!   evaluations;
//! - [`Engine`]: the pool plus an [`EvalCache`] memoizing
//!   [`evaluate_best`] results keyed on `(design, shape, operand
//!   sparsity)` — whole-DNN sweeps stop recomputing identical layers;
//! - [`SweepGrid`]: a declarative grid of `(design, workload)` cells that
//!   replaces hand-rolled nested sweep loops and fans the cells out across
//!   the pool.
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
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hl_tensor::GemmShape;

use crate::eval::{evaluate_best, Accelerator, EvalResult, Unsupported};
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
/// Lookups clone the stored value; misses compute *outside* the lock, so a
/// slow evaluation never serializes the other workers (two workers may race
/// on the same key, but the evaluation is pure, so both compute the same
/// value and either insert wins).
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

    /// Clones out every `(key, value)` pair — the persistence path:
    /// `hl-serve` snapshots the evaluation cache to disk on graceful
    /// drain. Order is unspecified (callers sort).
    pub fn entries(&self) -> Vec<(K, V)> {
        self.map()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
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
/// shared (`Arc<str>`) so sweeps format it once per design and every cell
/// key clones a pointer instead of re-rendering the string.
pub type DesignFingerprint = Arc<str>;

/// Cache key for one `(design, workload)` evaluation: everything
/// [`evaluate_best`] reads except the workload's display name.
///
/// The design is identified by its full `Debug` fingerprint, not just its
/// name: two same-name instances with different configurations (ablation
/// variants, alternative technology tables) are distinct cache entries.
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
            design: Arc::clone(design),
            shape: workload.shape,
            a: (&workload.a).into(),
            b: (&workload.b).into(),
        }
    }
}

/// Memo table over [`evaluate_best`] outcomes.
///
/// The analytical models are pure: cycles and the energy ledger depend only
/// on the design configuration and `(shape, a, b)` — the
/// [`crate::analytic::TrafficModel`] / [`crate::analytic::Accountant`]
/// pipeline never reads the workload name. Cached results are re-labeled
/// with the requesting workload's name so reports stay byte-identical.
pub type EvalCache = Memo<EvalKey, Result<EvalResult, Unsupported>>;

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
    /// design and pass it to [`Engine::evaluate_best_keyed`] when sweeping
    /// many points over the same design.
    pub fn fingerprint(design: &dyn Accelerator) -> DesignFingerprint {
        format!("{design:?}").into()
    }

    /// Memoized [`evaluate_best`]: identical `(design, shape, a, b)` cells
    /// are evaluated once and replayed from the cache, re-labeled with this
    /// workload's name.
    ///
    /// # Errors
    /// Exactly the errors of [`evaluate_best`].
    pub fn evaluate_best(
        &self,
        design: &dyn Accelerator,
        workload: &Workload,
    ) -> Result<EvalResult, Unsupported> {
        self.evaluate_best_keyed(design, &Self::fingerprint(design), workload)
    }

    /// [`Engine::evaluate_best`] with a hoisted design fingerprint: sweep
    /// loops compute [`Engine::fingerprint`] once and key every point off
    /// the shared `Arc`, so neighboring points only pay for the operand
    /// descriptors that actually changed.
    ///
    /// # Errors
    /// Exactly the errors of [`evaluate_best`].
    pub fn evaluate_best_keyed(
        &self,
        design: &dyn Accelerator,
        fingerprint: &DesignFingerprint,
        workload: &Workload,
    ) -> Result<EvalResult, Unsupported> {
        let key = EvalKey::with_fingerprint(fingerprint, workload);
        let mut out = self
            .evals
            .get_or_insert_with(&key, || evaluate_best(design, workload));
        if let Ok(r) = &mut out {
            r.workload.clone_from(&workload.name);
        }
        out
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

    /// The design registry the grid evaluates.
    pub fn designs(&self) -> &[Box<dyn Accelerator>] {
        self.designs
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
        let cells: Vec<(usize, &Workload)> = self
            .rows
            .iter()
            .flat_map(|row| row.iter().enumerate())
            .collect();
        let flat = engine.map(&cells, |(d, w)| {
            engine
                .evaluate_best_keyed(self.designs[*d].as_ref(), &fingerprints[*d], w)
                .ok()
        });
        let n = self.designs.len();
        let mut out = Vec::with_capacity(self.rows.len());
        let mut it = flat.into_iter();
        for _ in 0..self.rows.len() {
            out.push(it.by_ref().take(n).collect());
        }
        out
    }

    /// Evaluates every cell inline on the caller thread with the plain,
    /// uncached [`evaluate_best`] — the reference path [`SweepGrid::run`]
    /// must reproduce byte-for-byte. Sharing the grid keeps both paths
    /// sweeping exactly the same cells.
    pub fn run_serial(&self) -> Vec<Vec<Option<EvalResult>>> {
        self.rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(self.designs)
                    .map(|(w, d)| evaluate_best(d.as_ref(), w).ok())
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
        let mut entries = memo.entries();
        entries.sort_unstable();
        assert_eq!(entries, vec![(1, 10), (2, 20), (3, 30)]);
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
        let mut entries = memo.entries();
        entries.sort_unstable();
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
