//! [`SweepContext`]: the evaluation front-end every sweep, search and
//! server request runs through.

use hl_models::accuracy::{accuracy_loss, accuracy_loss_cached, PruningConfig, RetentionCache};
use hl_models::DnnModel;
use hl_sim::engine::{DesignFingerprint, Engine, SweepGrid};
use hl_sim::network::{NetworkEval, NetworkWorkload};
use hl_sim::{evaluate_best, Accelerator, EvalResult, Unsupported, Workload};

use crate::DesignId;

/// The evaluation front-end shared by every sweep: either the parallel
/// engine with memoized pure evaluations, or the uncached single-threaded
/// baseline. Both modes run the *same* sweep code and produce identical
/// results (asserted by the `determinism` integration tests); the engine is
/// just faster.
pub struct SweepContext {
    engine: Engine,
    retention: RetentionCache,
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
            cached: false,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// `(hits, misses)` of the retention (surrogate accuracy) cache —
    /// surfaced by `hl-serve`'s metrics alongside the eval cache.
    pub fn retention_stats(&self) -> (u64, u64) {
        self.retention.stats()
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
    /// Exactly the errors of [`evaluate_best`].
    pub fn evaluate_best(
        &self,
        design: &dyn Accelerator,
        workload: &Workload,
    ) -> Result<EvalResult, Unsupported> {
        if self.cached {
            self.engine.evaluate_best(design, workload)
        } else {
            evaluate_best(design, workload)
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
    /// context: layers fan out across the engine pool, each hitting the
    /// eval cache individually (inline and uncached in baseline mode).
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
