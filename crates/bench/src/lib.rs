//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `src/bin/*.rs` binary reproduces the table or figure it is named
//! after (`fig13`, `table3`, …; `all_experiments` runs them all). This
//! library holds the shared machinery on top of the evaluation layer in
//! `hl-eval` (the design registry with its co-design policy,
//! [`SweepContext`] and the co-design search):
//!
//! - [`run_synthetic_sweep`]: the Fig. 13 sweep (A ∈ {0, 50, 75}%,
//!   B ∈ {0, 25, 50, 75}% on 1024³ GEMMs), a [`SweepGrid`] under the hood;
//! - [`eval_model`]: whole-DNN evaluation on the uncached serial baseline;
//! - [`fig2_data`] / [`fig15_points`]: the Fig. 2 / Fig. 15 sweep cores,
//!   shared by the figure binaries and the `bench_sweeps` perf harness;
//! - report helpers that print aligned tables and persist them under
//!   `results/`, and [`bench_out_path`], where every `BENCH_*.json`
//!   artifact is written.
//!
//! The crate also re-exports the `hl-eval` names the stand-alone
//! `hlperf/replay` benchmark links against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tables;

use std::fs;
use std::path::{Path, PathBuf};

pub use hl_eval::{
    codesign_space, design_by_name, DesignId, DesignMapping, SearchOutcome, SearchPoint,
    SweepContext,
};

use hl_eval::{designs, fig13_degrees};
use hl_models::accuracy::PruningConfig;
use hl_models::DnnModel;
use hl_sim::engine::SweepGrid;
use hl_sim::network::NetworkEval;
use hl_sim::EvalResult;
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::GemmShape;

/// One point of the Fig. 13 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Operand A sparsity degree.
    pub a_sparsity: f64,
    /// Operand B sparsity degree.
    pub b_sparsity: f64,
    /// Per-design results in [`designs`] order; `None` = unsupported.
    pub results: Vec<Option<EvalResult>>,
}

/// Runs the synthetic 1024³ GEMM sweep across all designs (§7.2) on the
/// default engine-backed context.
pub fn run_synthetic_sweep() -> Vec<SweepPoint> {
    run_synthetic_sweep_with(&SweepContext::new())
}

/// [`run_synthetic_sweep`] on an explicit context: the sweep is a
/// [`SweepGrid`] of co-designed `(design, workload)` cells fanned out
/// across the context's pool.
pub fn run_synthetic_sweep_with(ctx: &SweepContext) -> Vec<SweepPoint> {
    let designs = designs();
    let (a_degrees, b_degrees) = fig13_degrees();
    let shape = GemmShape::new(1024, 1024, 1024);
    let mut grid = SweepGrid::new(&designs);
    let mut degrees = Vec::new();
    for &sa in &a_degrees {
        for &sb in &b_degrees {
            degrees.push((sa, sb));
            grid.push_row(
                DesignId::EVALUATED
                    .iter()
                    .map(|d| d.workload(shape, sa, sb)),
            );
        }
    }
    // Both modes sweep exactly the cells the grid declared; only the
    // evaluation path (pool + memo vs plain inline) differs.
    let rows = ctx.run_grid(&grid);
    degrees
        .into_iter()
        .zip(rows)
        .map(|((sa, sb), results)| SweepPoint {
            a_sparsity: sa,
            b_sparsity: sb,
            results,
        })
        .collect()
}

/// Evaluates a DNN on a design with the given weight-pruning config for
/// prunable layers, through the [`hl_sim::network`] subsystem.
///
/// Free-function form of [`SweepContext::eval_network`] on the uncached
/// serial baseline.
pub fn eval_model(design: DesignId, model: &DnnModel, weights: &PruningConfig) -> NetworkEval {
    SweepContext::serial_baseline().eval_network(design, model, weights)
}

/// Outcome of one Fig. 2 design row.
#[derive(Debug, Clone, PartialEq)]
pub enum Fig2Outcome {
    /// No pruning configuration stays within the accuracy budget.
    NoConfig,
    /// A configuration exists but the design cannot run the model.
    Unsupported,
    /// The accuracy-matched evaluation.
    Matched {
        /// Whole-model EDP normalized to the dense TC.
        edp_ratio: f64,
        /// Weight sparsity of the matched configuration (fraction).
        weight_sparsity: f64,
        /// Estimated accuracy loss of the matched configuration.
        loss: f64,
    },
}

/// One Fig. 2 design row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Design name.
    pub design: String,
    /// Row outcome.
    pub outcome: Fig2Outcome,
}

/// Fig. 2 results for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Model {
    /// Model name.
    pub model: String,
    /// Accuracy metric name.
    pub metric: &'static str,
    /// The common accuracy-loss budget (2:4 loss + 0.4 points).
    pub budget: f64,
    /// Rows for TC / STC / DSTC / HighLight, in registry order.
    pub rows: Vec<Fig2Row>,
}

/// The designs Fig. 2 compares, in registry order.
const FIG2_DESIGNS: [DesignId; 4] = [
    DesignId::Tc,
    DesignId::Stc,
    DesignId::Dstc,
    DesignId::HighLight,
];

/// The Fig. 2 sweep core: accuracy-matched whole-model EDP of TC / STC /
/// DSTC / HighLight on Transformer-Big and ResNet50, normalized to the
/// dense TC. Design rows fan out across the context's pool.
pub fn fig2_data(ctx: &SweepContext) -> Vec<Fig2Model> {
    let mut out = Vec::new();
    for model in [
        hl_models::zoo::transformer_big(),
        hl_models::zoo::resnet50(),
    ] {
        let budget = ctx.accuracy_loss(
            &model,
            &PruningConfig::Hss(HssPattern::one_rank(Gh::new(2, 4))),
        ) + 0.4;
        let tc_edp = ctx
            .eval_network(DesignId::Tc, &model, &PruningConfig::Dense)
            .edp()
            .expect("TC runs dense");
        let rows = ctx.map(&FIG2_DESIGNS, |&d| {
            let outcome = match d.accuracy_matched_config(ctx, &model, budget) {
                None => Fig2Outcome::NoConfig,
                Some(cfg) => {
                    let loss = ctx.accuracy_loss(&model, &cfg);
                    match ctx.eval_network(d, &model, &cfg).edp() {
                        None => Fig2Outcome::Unsupported,
                        Some(edp) => Fig2Outcome::Matched {
                            edp_ratio: edp / tc_edp,
                            weight_sparsity: cfg.sparsity(),
                            loss,
                        },
                    }
                }
            };
            Fig2Row {
                design: d.name().to_string(),
                outcome,
            }
        });
        out.push(Fig2Model {
            model: model.name.clone(),
            metric: model.metric,
            budget,
            rows,
        });
    }
    out
}

/// One Fig. 15 trade-off point.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Design name.
    pub design: String,
    /// Human-readable pruning-configuration label.
    pub config: String,
    /// Estimated accuracy loss (metric points).
    pub loss: f64,
    /// Whole-model EDP normalized to the dense TC.
    pub edp: f64,
}

/// The Fig. 15 sweep core for one model: every `(design, config)` EDP /
/// accuracy-loss point (EDP normalized to the dense TC), in registry-then-
/// config order. Cells fan out across the context's pool.
pub fn fig15_points(ctx: &SweepContext, model: &DnnModel) -> Vec<ParetoPoint> {
    let tc_edp = ctx
        .eval_network(DesignId::Tc, model, &PruningConfig::Dense)
        .edp()
        .expect("TC runs dense");
    let cells: Vec<(DesignId, PruningConfig)> = DesignId::EVALUATED
        .iter()
        .flat_map(|&d| d.fig15_configs().into_iter().map(move |cfg| (d, cfg)))
        .collect();
    ctx.map(&cells, |&(d, ref cfg)| {
        let loss = ctx.accuracy_loss(model, cfg);
        ctx.eval_network(d, model, cfg)
            .edp()
            .map(|edp| ParetoPoint {
                design: d.name().to_string(),
                config: cfg.to_string(),
                loss,
                edp: edp / tc_edp,
            })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Formats a ratio as a fixed-width cell, `n/a` when absent.
pub fn cell(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:10.3}"),
        None => format!("{:>10}", "n/a"),
    }
}

/// Writes a report under `results/` (best-effort; also returns the text so
/// binaries can print it).
pub fn persist(name: &str, text: &str) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let _ = fs::write(dir.join(name), text);
    }
}

/// Resolves where a benchmark artifact named `file` (`BENCH_sweeps.json`,
/// `BENCH_micro.json`) should be written: inside the `HL_BENCH_OUT`
/// directory when that variable is set (created if missing), otherwise
/// the current working directory.
pub fn bench_out_path(file: &str) -> PathBuf {
    match std::env::var("HL_BENCH_OUT") {
        Ok(dir) if !dir.trim().is_empty() => {
            let dir = PathBuf::from(dir);
            let _ = std::fs::create_dir_all(&dir);
            dir.join(file)
        }
        _ => PathBuf::from(file),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_eval::design_names;
    use hl_models::zoo;

    #[test]
    fn sweep_covers_all_degrees_and_marks_s2ta_dense_unsupported() {
        let sweep = run_synthetic_sweep();
        assert_eq!(sweep.len(), 12);
        let names = design_names();
        let s2ta = names.iter().position(|n| n == "S2TA").unwrap();
        for p in &sweep {
            if p.a_sparsity == 0.0 {
                assert!(p.results[s2ta].is_none(), "S2TA must fail on dense A");
            } else {
                assert!(p.results[s2ta].is_some());
            }
            // TC, STC, DSTC, HighLight always run.
            for (i, n) in names.iter().enumerate() {
                if n != "S2TA" {
                    assert!(p.results[i].is_some(), "{n} must run at every point");
                }
            }
        }
    }

    #[test]
    fn model_eval_runs_on_all_designs_for_resnet() {
        let model = zoo::resnet50();
        let ctx = SweepContext::serial_baseline();
        for &d in DesignId::EVALUATED {
            let cfg = d.accuracy_matched_config(&ctx, &model, 1.0);
            if let Some(cfg) = cfg {
                let r = eval_model(d, &model, &cfg);
                assert!(r.supported(), "{d} failed on ResNet50");
                assert_eq!(r.layers.len(), model.layers.len());
                assert!(r.edp().unwrap() > 0.0);
                let u = r.utilization().unwrap();
                assert!(u > 0.0 && u <= 1.0, "{d} utilization {u}");
            }
        }
    }

    #[test]
    fn s2ta_reports_unsupported_dense_layers_per_layer() {
        let deit = zoo::deit_small();
        let ctx = SweepContext::serial_baseline();
        let cfg = DesignId::S2ta.accuracy_matched_config(&ctx, &deit, 2.0);
        if let Some(cfg) = cfg {
            let r = eval_model(DesignId::S2ta, &deit, &cfg);
            assert!(!r.supported());
            assert_eq!(r.edp(), None, "aggregates are None on partial support");
            // The dense QKV projections fail; the pruned FFN layers still
            // evaluate (per-layer propagation, not whole-model bailout).
            for layer in &r.layers {
                let spec = deit.layers.iter().find(|l| l.name == layer.name()).unwrap();
                assert_eq!(layer.outcome.is_ok(), spec.prunable, "{}", layer.name());
            }
        }
    }

    // Serial-vs-engine network equality is covered (across all zoo
    // models, with warm-replay checks) by tests/network.rs at the
    // workspace level.
}
