//! End-to-end pipeline tests across crates: specification → sparsification →
//! conformance → compression → functional execution → evaluation.

use highlight::fibertree::spec::{PatternSpec, Rule};
use highlight::prelude::*;
use highlight::sim::micro::{MicroConfig, MicroSim};
use highlight::sparsity::prune::prune_hss;
use highlight::tensor::conv::ConvLayer;
use highlight::tensor::format::{HssCompressed, SparseB};
use highlight::tensor::gen;

/// Dense weights → HSS sparsification → fibertree conformance check against
/// the paper-notation specification.
#[test]
fn pruned_tensor_conforms_to_its_fibertree_spec() {
    let pattern = HssPattern::two_rank(Gh::new(3, 4), Gh::new(2, 4));
    let dense = gen::random_dense(8, 32, 3);
    let pruned = prune_hss(&dense, &pattern);

    // Build the fibertree view: M -> K, then split K into K2 | K1(3:4) | K0(2:4).
    let tree = pruned.to_fibertree("M", "K").unwrap();
    let split_outer = tree.split_rank_named(1, 16, "K2x", "Klow").unwrap();
    let split_inner = split_outer.split_rank_named(2, 4, "K1", "K0").unwrap();
    let spec = PatternSpec::parse("M→K2x→K1(3:4)→K0(2:4)").unwrap();
    spec.check(&split_inner)
        .expect("pruned tensor must conform to its spec");

    // And a too-tight spec must fail.
    let tight = PatternSpec::parse("M→K2x→K1(3:4)→K0(1:4)").unwrap();
    assert!(tight.check(&split_inner).is_err());
}

/// Convolution → Toeplitz GEMM → HSS pruning → compressed execution on the
/// micro-architecture — the full Fig. 8(a) path.
#[test]
fn convolution_runs_through_the_compressed_datapath() {
    let cfg = MicroConfig::paper_downsized(4);
    // 2 filters, 4 channels, 2x2 kernel -> K = 16 = one C1 group.
    let layer = ConvLayer::new("conv", 2, 4, 2, 2, 5, 5, 1);
    assert_eq!(layer.to_gemm().k, 16);
    let weights: Vec<f32> = (0..2 * 16).map(|i| (i as f32 * 0.37).sin()).collect();
    let a_dense = layer.flatten_weights(&weights);
    let a = prune_hss(&a_dense, &cfg.pattern());
    let input: Vec<f32> = (0..4 * 25).map(|i| (i as f32 * 0.13).cos()).collect();
    let b = layer.toeplitz_expand(&input);

    let report = MicroSim::new(cfg).run(&a, &b, false);
    let reference = a.matmul(&b);
    assert!(report.output.approx_eq(&reference, 1e-3));
}

/// Compression formats round-trip on the same pruned operands the
/// accelerators consume.
#[test]
fn formats_roundtrip_on_pruned_operands() {
    let pattern = HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4));
    let a = prune_hss(&gen::random_dense(16, 64, 9), &pattern);
    let comp = HssCompressed::encode(&a, 8, 4);
    assert_eq!(comp.decode(), a);
    assert_eq!(comp.nonzeros(), a.nonzeros());

    let b = gen::random_unstructured(64, 8, 0.6, 10);
    let sb = SparseB::encode(&b, 8, 4);
    assert_eq!(sb.decode(), b);
}

/// The specification's density bound, the generator, the pruner, and the
/// analytical model all agree on the sparsity degree.
#[test]
fn sparsity_degree_agrees_across_layers_of_the_stack() {
    let pattern = HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4));
    let spec_density = pattern.to_spec().density_bound();
    assert!((spec_density - pattern.density_f64()).abs() < 1e-12);

    let generated = gen::random_hss(16, 64, pattern.ranks(), 4);
    assert!((generated.density() - pattern.density_f64()).abs() < 1e-12);

    let pruned = prune_hss(&gen::random_dense(16, 64, 5), &pattern);
    assert!((pruned.density() - pattern.density_f64()).abs() < 1e-12);

    let w = Workload::synthetic(
        OperandSparsity::Hss(pattern.clone()),
        OperandSparsity::Dense,
    );
    let hl = HighLight::default();
    let r = hl.evaluate_best(&w).unwrap();
    let dense = hl
        .evaluate_best(&Workload::synthetic(
            OperandSparsity::Dense,
            OperandSparsity::Dense,
        ))
        .unwrap();
    assert!((r.cycles / dense.cycles - pattern.density_f64()).abs() < 1e-9);
}

/// Table 2 entries parse, display, and remain distinguishable; rules match
/// rank structure.
#[test]
fn catalog_specs_are_well_formed() {
    for entry in highlight::fibertree::catalog::table2() {
        let display = entry.spec.to_string();
        let reparsed = PatternSpec::parse(&display).unwrap();
        assert_eq!(reparsed, entry.spec);
        for rank in entry.spec.ranks() {
            if let Rule::Gh(gh) = rank.rule {
                assert!(gh.g <= gh.h);
            }
        }
    }
}
