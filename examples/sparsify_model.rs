//! Sparsify ResNet50 to every HighLight-supported degree and report the
//! accuracy/efficiency trade-off — the workflow a model developer would run
//! before deploying on HighLight (paper §4.2 + §7.3).
//!
//! Run with: `cargo run --release --example sparsify_model`

use std::collections::BTreeSet;

use highlight::models::accuracy::{accuracy_loss, PruningConfig};
use highlight::models::zoo;
use highlight::prelude::*;

fn main() {
    let model = zoo::resnet50();
    println!("{model}");
    println!(
        "avg activation sparsity: {:.0}%\n",
        model.avg_activation_sparsity() * 100.0
    );

    let hl = HighLight::default();
    let tc = Tc::default();

    // Dense reference EDP over the whole network.
    let eval = |design: &dyn Accelerator, cfg: &PruningConfig| -> Option<(f64, f64)> {
        let mut energy = 0.0;
        let mut latency = 0.0;
        for layer in &model.layers {
            let a = match (layer.prunable, cfg) {
                (true, PruningConfig::Hss(p)) => OperandSparsity::Hss(p.clone()),
                _ => OperandSparsity::Dense,
            };
            let b = if layer.activation_sparsity > 0.0 {
                OperandSparsity::unstructured(layer.activation_sparsity)
            } else {
                OperandSparsity::Dense
            };
            let w = Workload::new(layer.name.clone(), layer.shape, a, b);
            let r = design.evaluate_best(&w).ok()?;
            energy += r.energy_j() * f64::from(layer.count);
            latency += r.latency_s() * f64::from(layer.count);
        }
        Some((energy, latency))
    };
    let (te, tl) = eval(&tc, &PruningConfig::Dense).expect("TC runs dense");
    let tc_edp = te * tl;

    println!(
        "{:>22} {:>10} {:>12} {:>12} {:>12}",
        "pattern", "sparsity%", "est. loss", "EDP vs TC", "speedup"
    );
    let mut seen = BTreeSet::new();
    let mut patterns: Vec<HssPattern> = highlight_family()
        .patterns()
        .into_iter()
        .filter(|p| seen.insert(p.density()))
        .collect();
    patterns.sort_by_key(|p| std::cmp::Reverse(p.density()));
    for p in patterns {
        let cfg = PruningConfig::Hss(p.clone());
        let loss = accuracy_loss(&model, &cfg);
        let (e, l) = eval(&hl, &cfg).expect("supported");
        println!(
            "{:>22} {:>10.1} {:>12.2} {:>12.3} {:>11.2}x",
            p.to_string(),
            p.sparsity_f64() * 100.0,
            loss,
            e * l / tc_edp,
            tl / l
        );
    }
    println!("\nPick the sparsest pattern whose estimated loss meets your accuracy budget.");
}
