//! Quickstart: define an HSS pattern, sparsify a tensor with the paper's
//! rules, verify conformance, compress it, and compare HighLight against
//! the dense baseline on the resulting workload.
//!
//! Run with: `cargo run --release --example quickstart`

use highlight::prelude::*;
use highlight::sparsity::prune::{prune_hss, retained_norm_fraction};
use highlight::tensor::format::HssCompressed;
use highlight::tensor::gen;

fn main() {
    // 1. A two-rank HSS pattern: C1(4:8)→C0(2:4) -> 75% sparsity, composed
    //    from two simple G:H patterns (the paper's key idea).
    let pattern = HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4));
    println!("pattern      : {pattern}");
    println!(
        "density      : {} = {:.3}",
        pattern.density(),
        pattern.density_f64()
    );
    println!(
        "ideal speedup: {:.1}x (product of per-rank H/G)",
        pattern.ideal_speedup()
    );
    println!("fibertree    : {}", pattern.to_spec());

    // 2. Sparsify a dense matrix rank-by-rank (magnitude at Rank0,
    //    scaled-L2 at Rank1) and check what survives.
    let dense = gen::random_dense(64, 256, 7);
    let pruned = prune_hss(&dense, &pattern);
    println!(
        "\npruned 64x256: {:.1}% sparse, retained norm {:.1}%",
        pruned.sparsity() * 100.0,
        retained_norm_fraction(&dense, &pruned) * 100.0
    );
    assert_eq!(
        gen::check_hss(&pruned, pattern.ranks()),
        None,
        "conformant by construction"
    );

    // 3. Compress with the hierarchical CP format (Fig. 9) — lossless.
    let compressed = HssCompressed::encode(&pruned, 8, 4);
    println!(
        "compressed   : {} values + {} metadata bits (dense: {} values)",
        compressed.nonzeros(),
        compressed.metadata_bits(),
        64 * 256
    );
    assert_eq!(compressed.decode(), pruned);

    // 4. Evaluate the accelerators on this sparsity configuration.
    let w = Workload::synthetic(
        OperandSparsity::Hss(pattern),
        OperandSparsity::unstructured(0.5), // ReLU-like activations
    );
    let hl = HighLight::default().evaluate_best(&w).expect("supported");
    let tc = Tc::default().evaluate_best(&w).expect("dense always runs");
    println!(
        "\nHighLight vs TC on {w}:\n  speedup {:.2}x | energy {:.2}x lower | EDP {:.2}x lower",
        tc.cycles / hl.cycles,
        tc.energy_j() / hl.energy_j(),
        tc.edp() / hl.edp()
    );
}
