//! Workspace smoke test: the `highlight::prelude` quickstart from the crate
//! docs (`src/lib.rs`), asserted as a plain `#[test]` so the paper-facing
//! claims stay covered even independently of the doctest harness.

use highlight::prelude::*;

#[test]
fn prelude_quickstart_holds() {
    // A two-rank HSS pattern: 62.5% sparsity from two simple patterns.
    let pattern = HssPattern::two_rank(Gh::new(3, 4), Gh::new(2, 4));
    assert_eq!(pattern.sparsity().to_string(), "5/8");
    assert!((pattern.sparsity_f64() - 0.625).abs() < 1e-12);

    // Evaluate HighLight vs the dense tensor-core baseline on a workload
    // sparse in both operands; HSS acceleration must win on EDP.
    let hl = HighLight::default();
    let tc = Tc::default();
    let w = Workload::synthetic(
        OperandSparsity::Hss(highlight_family().closest_to_density(0.25)),
        OperandSparsity::unstructured(0.5),
    );
    let fast = hl
        .evaluate_best(&w)
        .expect("HighLight supports its own family");
    let slow = tc
        .evaluate_best(&w)
        .expect("TC supports any workload (processed densely)");
    assert!(
        fast.edp() < slow.edp(),
        "HighLight EDP {:.3e} must beat TC EDP {:.3e} on the synthetic sparse workload",
        fast.edp(),
        slow.edp()
    );
}

#[test]
fn facade_crate_map_is_complete() {
    // Every workspace crate advertised in the `src/lib.rs` crate map must be
    // reachable through the façade. Touch one item from each re-export so a
    // renamed or dropped module breaks this test rather than only the docs.
    let _ = highlight::fibertree::Fibertree::from_dense(&[1.0], &[1], &["K"]).unwrap();
    let _ = highlight::tensor::Matrix::zeros(1, 1);
    let _ = highlight::sparsity::HssPattern::one_rank(highlight::sparsity::Gh::new(1, 2));
    let _ = highlight::arch::Tech::default();
    let _ = highlight::sim::Workload::synthetic(
        highlight::sim::OperandSparsity::Dense,
        highlight::sim::OperandSparsity::Dense,
    );
    let _ = highlight::core::HighLight::default();
    let _ = highlight::baselines::Tc::default();
    let _ = highlight::models::zoo::resnet50();
}
