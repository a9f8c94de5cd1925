//! Fig. 13: latency, energy, and EDP of all designs across synthetic 1024³
//! GEMMs with A ∈ {0, 50, 75}% and B ∈ {0, 25, 50, 75}% sparsity, normalized
//! to the dense TC baseline.

use hl_bench::{cell, persist, run_synthetic_sweep};
use hl_eval::design_names;

fn main() {
    let names = design_names();
    let sweep = run_synthetic_sweep();
    let tc = 0; // registry order: TC first

    let mut out = String::new();
    out.push_str(
        "Fig. 13 — normalized to TC (lower is better for energy/EDP; higher for speedup)\n\n",
    );
    for metric in ["speedup", "energy", "EDP"] {
        out.push_str(&format!("== {metric} ==\n"));
        out.push_str(&format!("{:>6} {:>6}", "A%", "B%"));
        for n in &names {
            out.push_str(&format!(" {n:>10}"));
        }
        out.push('\n');
        for p in &sweep {
            let base = p.results[tc].as_ref().expect("TC always runs");
            out.push_str(&format!(
                "{:>6.0} {:>6.0}",
                p.a_sparsity * 100.0,
                p.b_sparsity * 100.0
            ));
            for r in &p.results {
                let v = r.as_ref().map(|r| match metric {
                    "speedup" => base.cycles / r.cycles,
                    "energy" => r.energy_j() / base.energy_j(),
                    _ => r.edp() / base.edp(),
                });
                out.push_str(&format!(" {}", cell(v)));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    print!("{out}");
    persist("fig13.txt", &out);
}
