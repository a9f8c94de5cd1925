//! Fig. 16: (a) per-component energy breakdown for a workload with 75%
//! sparse operand A and dense operand B; (b) HighLight's area breakdown and
//! SAF fraction (paper: 5.7%).

use highlight_core::HighLight;
use hl_arch::Comp;
use hl_bench::{persist, DesignId, SweepContext};
use hl_sim::network::{NetworkLayer, NetworkWorkload, SparsityMapping};
use hl_sim::Accelerator;
use hl_sim::{OperandSparsity, Workload};

fn main() {
    let ctx = SweepContext::new();
    let mut out = String::new();
    out.push_str("Fig. 16(a) — energy breakdown (mJ), A 75% sparse / B dense, 1024^3 GEMM\n\n");
    out.push_str(&format!("{:>11}", "component"));
    // Each design evaluates a one-layer network through the network-level
    // subsystem (the same path `/evaluate_model` and Figs. 2/15 use), and
    // the breakdown reads the per-layer result.
    let results: Vec<_> = ctx.map(DesignId::EVALUATED, |&d| {
        let w = Workload::synthetic(d.operand_a(0.75), OperandSparsity::Dense);
        let network = NetworkWorkload::new("fig16", vec![NetworkLayer::new(w, 1)]);
        let eval = ctx.evaluate_network(d.build().as_ref(), &network);
        let layer = eval.layers.into_iter().next().expect("one layer");
        (d.name().to_string(), layer.outcome.ok())
    });
    for (n, _) in &results {
        out.push_str(&format!(" {n:>10}"));
    }
    out.push('\n');
    for comp in Comp::ALL {
        let row: Vec<f64> = results
            .iter()
            .map(|(_, r)| r.as_ref().map_or(0.0, |r| r.energy.get(comp) * 1e-9))
            .collect();
        if row.iter().all(|&v| v == 0.0) {
            continue;
        }
        out.push_str(&format!("{:>11}", comp.label()));
        for v in row {
            out.push_str(&format!(" {v:>10.4}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>11}", "TOTAL"));
    for (_, r) in &results {
        out.push_str(&format!(
            " {:>10.4}",
            r.as_ref().map_or(0.0, |r| r.energy.total() * 1e-9)
        ));
    }
    out.push_str("\n\nFig. 16(b) — HighLight area breakdown\n\n");
    let area = HighLight::default().area();
    let total = area.total();
    for (comp, v) in area.iter() {
        out.push_str(&format!(
            "{:>11}: {:>10.0} um^2  ({:>5.2}%)\n",
            comp.label(),
            v,
            v / total * 100.0
        ));
    }
    let saf = area.get(Comp::MuxRank0) + area.get(Comp::MuxRank1) + area.get(Comp::Vfmu);
    out.push_str(&format!(
        "\nSAF area fraction: {:.2}% of {:.2} mm^2 [paper: 5.7%]\n",
        saf / total * 100.0,
        total / 1e6
    ));
    print!("{out}");
    persist("fig16.txt", &out);
}
