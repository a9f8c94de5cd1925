//! [`SweepContext`]: the evaluation front-end every sweep, search and
//! server request runs through.
//!
//! In engine mode the context owns every memo a request can replay from:
//! the engine's per-cell [`hl_sim::engine::EvalCache`], the surrogate's
//! [`RetentionCache`], and the search-front table (one budget-independent
//! co-design front per (design, model name), see [`crate::search`]). The
//! baseline mode reads and writes none of them.

use std::sync::Arc;

use hl_models::accuracy::{accuracy_loss, accuracy_loss_cached, PruningConfig, RetentionCache};
use hl_models::DnnModel;
use hl_sim::engine::{DesignFingerprint, Engine, Memo, SweepGrid};
use hl_sim::network::{NetworkEval, NetworkWorkload};
use hl_sim::{Accelerator, EvalResult, Unsupported, Workload};

use crate::search::SearchFront;
use crate::DesignId;

/// The search-front table: one front per (design, model name), each
/// holding the model it was computed for. A lookup whose model differs
/// recomputes and replaces the entry, so the table never holds more than
/// designs × model names entries.
type FrontTable = Memo<(DesignId, String), Arc<SearchFront>>;

/// The evaluation front-end shared by every sweep: either the parallel
/// engine with memoized pure evaluations, or the uncached single-threaded
/// baseline. Both modes run the *same* sweep code and produce identical
/// results (asserted by the `determinism` integration tests); the engine is
/// just faster.
pub struct SweepContext {
    engine: Engine,
    retention: RetentionCache,
    fronts: FrontTable,
    cached: bool,
}

impl Default for SweepContext {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepContext {
    /// An engine-backed context sized by `HL_THREADS` / available
    /// parallelism, with memoization enabled.
    pub fn new() -> Self {
        Self::with_engine(Engine::new())
    }

    /// An engine-backed context with an explicit worker pool.
    pub fn with_engine(engine: Engine) -> Self {
        Self {
            engine,
            retention: RetentionCache::new(),
            fronts: FrontTable::new(),
            cached: true,
        }
    }

    /// The single-threaded, *uncached* reference: exactly the work the
    /// pre-engine harness performed. Used as the timing baseline and the
    /// determinism oracle.
    pub fn serial_baseline() -> Self {
        Self {
            engine: Engine::serial(),
            retention: RetentionCache::new(),
            fronts: FrontTable::new(),
            cached: false,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The retention (surrogate accuracy) cache — surfaced by `hl-serve`'s
    /// metrics alongside the eval cache, and persisted with it.
    pub fn retention(&self) -> &RetentionCache {
        &self.retention
    }

    /// `(entries, hits, misses)` of the search-front table — surfaced by
    /// `hl-serve`'s metrics.
    pub fn search_stats(&self) -> (usize, u64, u64) {
        (self.fronts.len(), self.fronts.hits(), self.fronts.misses())
    }

    /// Hits of the search-front table alone: one atomic load, without the
    /// table lock [`Self::search_stats`] takes to count entries — read
    /// around every request for its trace.
    pub fn search_hits(&self) -> u64 {
        self.fronts.hits()
    }

    /// The co-design front of `design` on `model` through the front
    /// table: a stored front answers only when it was computed for a model
    /// `==` to this one; otherwise it is computed and replaces the entry.
    /// The baseline mode computes every time and stores nothing.
    pub(crate) fn search_front(&self, design: DesignId, model: &DnnModel) -> Arc<SearchFront> {
        if !self.cached {
            return Arc::new(self.compute_front(design, model));
        }
        let key = (design, model.name.clone());
        if let Some(front) = self.fronts.get_if(&key, |f| f.model == *model) {
            return front;
        }
        let front = Arc::new(self.compute_front(design, model));
        self.fronts.insert(key, Arc::clone(&front));
        front
    }

    /// Maps `f` over `items` on the context's pool, results in input order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.engine.map(items, f)
    }

    /// Runs every cell of `grid`: on the pool through the eval cache, or
    /// inline and uncached in baseline mode.
    pub fn run_grid(&self, grid: &SweepGrid) -> Vec<Vec<Option<EvalResult>>> {
        if self.cached {
            grid.run(&self.engine)
        } else {
            grid.run_serial()
        }
    }

    /// `evaluate_best` through the context (memoized in engine mode).
    ///
    /// # Errors
    /// Exactly the errors of [`Accelerator::evaluate_best`].
    pub fn evaluate_best(
        &self,
        design: &dyn Accelerator,
        workload: &Workload,
    ) -> Result<EvalResult, Unsupported> {
        if self.cached {
            self.engine.evaluate_best(design, workload)
        } else {
            design.evaluate_best(workload)
        }
    }

    /// Surrogate accuracy loss through the context (memoized in engine
    /// mode).
    pub fn accuracy_loss(&self, model: &DnnModel, config: &PruningConfig) -> f64 {
        if self.cached {
            accuracy_loss_cached(model, config, &self.retention)
        } else {
            accuracy_loss(model, config)
        }
    }

    /// [`SweepContext::accuracy_loss`] of every config: in engine mode one
    /// [`RetentionCache::losses`] batch, whose misses fan out over the
    /// pool; in baseline mode one uncached estimate per config.
    pub fn accuracy_losses(&self, model: &DnnModel, configs: &[PruningConfig]) -> Vec<f64> {
        if self.cached {
            self.retention.losses(model, configs, &self.engine)
        } else {
            configs
                .iter()
                .map(|cfg| accuracy_loss(model, cfg))
                .collect()
        }
    }

    /// Lowers `model` for `design` (prunable layers at the design's
    /// weight pattern, through its [`hl_sim::network::SparsityMapping`])
    /// into the [`hl_sim::network`] IR.
    pub fn lower_model(
        design: DesignId,
        model: &DnnModel,
        weights: &PruningConfig,
    ) -> NetworkWorkload {
        model.lower(weights, &design)
    }

    /// Evaluates an already-lowered [`NetworkWorkload`] through the
    /// context: every layer is looked up in the eval cache first and only
    /// the misses fan out across the engine pool (inline and uncached in
    /// baseline mode).
    pub fn evaluate_network(
        &self,
        design: &dyn Accelerator,
        network: &NetworkWorkload,
    ) -> NetworkEval {
        if self.cached {
            self.engine.evaluate_network(design, network)
        } else {
            hl_sim::network::evaluate_network(design, network)
        }
    }

    /// [`SweepContext::evaluate_network`] with a hoisted design
    /// fingerprint: the search evaluates many configurations on one
    /// design and computes [`Engine::fingerprint`] once for all of them.
    /// The baseline mode ignores the fingerprint (it keys nothing).
    pub(crate) fn evaluate_network_keyed(
        &self,
        design: &dyn Accelerator,
        fingerprint: &DesignFingerprint,
        network: &NetworkWorkload,
    ) -> NetworkEval {
        if self.cached {
            self.engine
                .evaluate_network_keyed(design, fingerprint, network)
        } else {
            hl_sim::network::evaluate_network(design, network)
        }
    }

    /// Whole-model evaluation through [`hl_sim::network`]: the model
    /// lowers to a [`NetworkWorkload`] and runs through
    /// [`SweepContext::evaluate_network`] on the default-configured
    /// `design`. Unsupported layers are reported per layer in the
    /// returned [`NetworkEval`]; aggregates are `None` when any layer
    /// cannot run.
    pub fn eval_network(
        &self,
        design: DesignId,
        model: &DnnModel,
        weights: &PruningConfig,
    ) -> NetworkEval {
        let network = Self::lower_model(design, model, weights);
        self.evaluate_network(design.build().as_ref(), &network)
    }
}
