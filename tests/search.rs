//! Co-design search invariants (§7.1.2), across crates:
//!
//! - the returned Pareto front is actually non-dominated over
//!   `(accuracy loss, EDP)`;
//! - the whole [`hl_eval::SearchOutcome`] is byte-identical for any
//!   worker count — `HL_THREADS` only feeds the default pool size, so
//!   pinning explicit counts (plus the uncached serial baseline) covers
//!   every value it could take;
//! - the budgeted best point matches a serial brute-force reference over
//!   the same candidate grid, evaluated with the plain uncached pipeline;
//! - degenerate configurations (fully-pruned operands) are `Unsupported`
//!   on every design instead of a panic — the hardening the search's
//!   extreme candidates rely on.

use std::sync::OnceLock;

use highlight::models::accuracy::{accuracy_loss, PruningConfig};
use highlight::models::{zoo, DnnModel, LayerKind, LayerSpec};
use highlight::prelude::*;
use highlight::sim::engine::Engine;
use highlight::sim::pareto::dominates;
use hl_bench::eval_model;
use hl_eval::search::codesign_space;
use hl_eval::{designs, DesignId, SearchOutcome, SweepContext};
use proptest::prelude::*;

/// A 2-layer model small enough to brute-force with the uncached serial
/// pipeline (one dense layer so partially-supporting designs still show
/// per-layer behaviour).
fn small_model() -> DnnModel {
    DnnModel {
        name: "tiny".into(),
        metric: "top-1 %",
        dense_accuracy: 75.0,
        sensitivity: 1.2,
        layers: vec![
            LayerSpec::new(
                "body",
                LayerKind::Linear,
                GemmShape::new(64, 128, 64),
                2,
                true,
                0.5,
            ),
            LayerSpec::new(
                "head",
                LayerKind::Linear,
                GemmShape::new(32, 64, 16),
                1,
                false,
                0.0,
            ),
        ],
    }
}

/// One shared warm context: repeated searches replay from its memo
/// tables, keeping the proptest re-runs cheap.
fn shared_ctx() -> &'static SweepContext {
    static CTX: OnceLock<SweepContext> = OnceLock::new();
    CTX.get_or_init(|| SweepContext::with_engine(Engine::with_threads(2)))
}

/// One shared search outcome (HighLight on DeiT-small at a 0.5-point
/// budget) — several tests assert different invariants of the same run.
fn deit_outcome() -> &'static SearchOutcome {
    static OUTCOME: OnceLock<SearchOutcome> = OnceLock::new();
    OUTCOME.get_or_init(|| {
        let design = DesignId::HighLight;
        shared_ctx().codesign(design, &zoo::deit_small(), 0.5)
    })
}

#[test]
fn front_is_non_dominated() {
    let out = deit_outcome();
    assert!(!out.points.is_empty());
    assert_eq!(out.candidates, out.points.len() + out.unsupported);
    let front = out.front();
    assert!(!front.is_empty());
    for a in &front {
        for b in &out.points {
            assert!(
                !dominates((b.loss, b.edp), (a.loss, a.edp)),
                "front point {} is dominated by {}",
                a.label,
                b.label
            );
        }
    }
    // Conversely, every non-front point is dominated by someone.
    for p in out.points.iter().filter(|p| !p.on_front) {
        assert!(
            out.points
                .iter()
                .any(|q| dominates((q.loss, q.edp), (p.loss, p.edp))),
            "{} marked off-front but undominated",
            p.label
        );
    }
}

#[test]
fn outcome_is_thread_count_invariant() {
    let design = DesignId::HighLight;
    let model = zoo::deit_small();
    let reference = deit_outcome();
    for threads in [1usize, 2, 8] {
        let ctx = SweepContext::with_engine(Engine::with_threads(threads));
        let out = ctx.codesign(design, &model, 0.5);
        assert_eq!(&out, reference, "{threads}-thread search must be identical");
    }
    // The uncached serial baseline agrees too (memo transparency).
    let out = SweepContext::serial_baseline().codesign(design, &model, 0.5);
    assert_eq!(&out, reference);
}

#[test]
fn budget_best_matches_serial_brute_force() {
    let model = small_model();
    let budget = 0.4;
    for name in ["HighLight", "DSTC", "STC"] {
        let design: DesignId = name.parse().unwrap();
        let ctx = SweepContext::with_engine(Engine::with_threads(4));
        let out = ctx.codesign(design, &model, budget);

        // Brute force: the same candidate grid, evaluated one by one with
        // the plain uncached pipeline and a hand-rolled argmin.
        let tc = DesignId::Tc;
        let tc_edp = eval_model(tc, &model, &PruningConfig::Dense).edp().unwrap();
        let mut best: Option<(String, f64, f64)> = None;
        let mut supported = 0usize;
        for cfg in codesign_space(name).unwrap() {
            let loss = accuracy_loss(&model, &cfg);
            let Some(edp) = eval_model(design, &model, &cfg).edp() else {
                continue;
            };
            let edp = edp / tc_edp;
            supported += 1;
            if loss > budget {
                continue;
            }
            // Same tie rules as the search: lower EDP, then lower loss,
            // then enumeration order.
            let better = match &best {
                None => true,
                Some((_, b_loss, b_edp)) => edp < *b_edp || (edp == *b_edp && loss < *b_loss),
            };
            if better {
                best = Some((cfg.to_string(), loss, edp));
            }
        }
        assert_eq!(out.points.len(), supported, "{name}");
        match (out.best_point(), best) {
            (Some(p), Some((label, loss, edp))) => {
                assert_eq!(p.label, label, "{name}");
                assert_eq!(p.loss, loss, "{name}: loss must be bit-identical");
                assert_eq!(p.edp, edp, "{name}: EDP must be bit-identical");
            }
            (None, None) => {}
            (got, want) => panic!("{name}: best mismatch: got {got:?}, want {want:?}"),
        }
    }
}

#[test]
fn fully_pruned_operands_are_unsupported_on_every_design() {
    let empty_a = Workload::synthetic(OperandSparsity::unstructured(1.0), OperandSparsity::Dense);
    let empty_b = Workload::synthetic(OperandSparsity::Dense, OperandSparsity::unstructured(1.0));
    for design in designs() {
        for w in [&empty_a, &empty_b] {
            let err = evaluate_best(design.as_ref(), w)
                .expect_err(&format!("{} must reject density 0", design.name()));
            assert!(err.reason.contains("degenerate"), "{}", err);
        }
    }
    // Through the network pipeline: prunable layers report Unsupported
    // per layer, the dense layer still evaluates.
    let model = small_model();
    let dstc = DesignId::Dstc;
    let eval = eval_model(dstc, &model, &PruningConfig::Unstructured { sparsity: 1.0 });
    assert!(!eval.supported());
    assert_eq!(eval.edp(), None);
    assert!(eval.layers[0].outcome.is_err(), "pruned layer rejected");
    assert!(eval.layers[1].outcome.is_ok(), "dense layer still runs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any budget, the budgeted best is exactly the argmin-EDP point
    /// among the within-budget points (ties to lower loss, then
    /// enumeration order), it sits on the Pareto front, and recomputing
    /// the search at that budget only re-labels budget membership.
    #[test]
    fn budget_best_is_argmin_edp_within_budget(budget in 0.0f64..3.0) {
        let out = deit_outcome();
        let within: Vec<_> = out
            .points
            .iter()
            .filter(|p| p.loss <= budget)
            .collect();
        let expect = within.iter().copied().reduce(|a, b| {
            if b.edp < a.edp || (b.edp == a.edp && b.loss < a.loss) {
                b
            } else {
                a
            }
        });
        // Recompute with the shared caches warm: same points, new budget.
        let design = DesignId::HighLight;
        let rerun = shared_ctx().codesign(design, &zoo::deit_small(), budget);
        prop_assert_eq!(rerun.points.len(), out.points.len());
        match (rerun.best_point(), expect) {
            (Some(got), Some(want)) => {
                prop_assert_eq!(&got.label, &want.label);
                prop_assert!(got.within_budget && got.on_front);
            }
            (None, None) => {}
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "best mismatch: got {got:?}, want {want:?}"
                )));
            }
        }
    }
}
