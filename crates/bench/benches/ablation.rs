//! Ablation study of HighLight's design choices: each SAF is switched off
//! in turn and the resulting EDP on the 75%/50% synthetic
//! workload is printed once, then the ablated evaluations are benchmarked.
//!
//! The printed ratios quantify how much each modular SAF contributes:
//! Rank1 skipping, Rank0 skipping, and operand-B gating/compression.

use criterion::{criterion_group, criterion_main, Criterion};
use highlight_core::{HighLight, HighLightConfig};
use hl_bench::DesignId;
use hl_sim::{evaluate_best, Workload};
use hl_tensor::GemmShape;
use std::hint::black_box;

fn variants() -> Vec<(&'static str, HighLight)> {
    vec![
        ("full", HighLight::default()),
        (
            "no-rank1-saf",
            HighLight::new(HighLightConfig {
                rank1_saf: false,
                ..HighLightConfig::default()
            }),
        ),
        (
            "no-rank0-saf",
            HighLight::new(HighLightConfig {
                rank0_saf: false,
                ..HighLightConfig::default()
            }),
        ),
        (
            "no-b-gating",
            HighLight::new(HighLightConfig {
                b_gating: false,
                ..HighLightConfig::default()
            }),
        ),
        (
            "all-safs-off",
            HighLight::new(HighLightConfig {
                rank1_saf: false,
                rank0_saf: false,
                b_gating: false,
                ..HighLightConfig::default()
            }),
        ),
    ]
}

/// The 75%/50% synthetic workload, co-designed for HighLight.
fn workload() -> Workload {
    DesignId::HighLight.workload(GemmShape::new(1024, 1024, 1024), 0.75, 0.5)
}

fn print_ablation_table() {
    let w = workload();
    let full = evaluate_best(&HighLight::default(), &w).unwrap();
    println!("\nHighLight SAF ablation on A 75% / B 50% (1024^3 GEMM):");
    println!(
        "{:>14} {:>12} {:>12} {:>12}",
        "variant", "speedup", "energy", "EDP vs full"
    );
    for (name, hl) in variants() {
        let r = evaluate_best(&hl, &w).unwrap();
        println!(
            "{:>14} {:>11.2}x {:>11.2}x {:>12.2}",
            name,
            full.cycles / r.cycles,
            r.energy_j() / full.energy_j(),
            r.edp() / full.edp()
        );
    }
    println!();
}

fn bench_ablations(c: &mut Criterion) {
    print_ablation_table();
    let w = workload();
    for (name, hl) in variants() {
        c.bench_function(&format!("ablation/{name}"), |bench| {
            bench.iter(|| black_box(evaluate_best(&hl, &w)))
        });
    }
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
