//! Fig. 14: geometric mean of speedup, energy, EDP and ED² across the
//! Fig. 13 synthetic sweep, normalized to TC. Unsupported points (S2TA on
//! dense A) are excluded from that design's geomean, as in the paper.

use hl_bench::{persist, run_synthetic_sweep};
use hl_eval::design_names;
use hl_sim::geomean;

fn main() {
    let names = design_names();
    let sweep = run_synthetic_sweep();

    let mut out = String::new();
    out.push_str("Fig. 14 — geomean across the synthetic sweep (normalized to TC)\n\n");
    out.push_str(&format!("{:>12}", "metric"));
    for n in &names {
        out.push_str(&format!(" {n:>10}"));
    }
    out.push('\n');

    for metric in ["speedup", "energy", "EDP", "ED2"] {
        out.push_str(&format!("{metric:>12}"));
        for (i, _) in names.iter().enumerate() {
            let vals: Vec<f64> = sweep
                .iter()
                .filter_map(|p| {
                    let base = p.results[0].as_ref()?;
                    let r = p.results[i].as_ref()?;
                    Some(match metric {
                        "speedup" => base.cycles / r.cycles,
                        "energy" => r.energy_j() / base.energy_j(),
                        "EDP" => r.edp() / base.edp(),
                        _ => r.ed2() / base.ed2(),
                    })
                })
                .collect();
            match geomean(&vals) {
                Some(g) => out.push_str(&format!(" {g:>10.3}")),
                None => out.push_str(&format!(" {:>10}", "n/a")),
            }
        }
        out.push('\n');
    }

    // Headline claims: HighLight vs dense and vs sparse baselines (EDP).
    let hl = names.iter().position(|n| n == "HighLight").unwrap();
    let edp_ratios: Vec<f64> = sweep
        .iter()
        .map(|p| {
            let base = p.results[0].as_ref().unwrap();
            let r = p.results[hl].as_ref().unwrap();
            base.edp() / r.edp()
        })
        .collect();
    match geomean(&edp_ratios) {
        Some(gm) => {
            let max = edp_ratios.iter().cloned().fold(0.0, f64::max);
            out.push_str(&format!(
                "\nHighLight vs TC: geomean {gm:.2}x (up to {max:.2}x) lower EDP [paper: 6.4x, up to 20.4x]\n"
            ));
        }
        // `edp_ratios` covers every sweep point, so a `None` here means a
        // degenerate (non-positive) ratio, not an empty sweep.
        None => out.push_str("\nHighLight vs TC: n/a (non-positive EDP ratio in sweep)\n"),
    }
    for (name, idx) in [("STC", 1), ("DSTC", 2), ("S2TA", 3)] {
        let ratios: Vec<f64> = sweep
            .iter()
            .filter_map(|p| {
                let other = p.results[idx].as_ref()?;
                let r = p.results[hl].as_ref()?;
                Some(other.edp() / r.edp())
            })
            .collect();
        match geomean(&ratios) {
            Some(gm) => {
                let max = ratios.iter().cloned().fold(0.0, f64::max);
                out.push_str(&format!(
                    "HighLight vs {name}: geomean {gm:.2}x (up to {max:.2}x) lower EDP\n"
                ));
            }
            None => out.push_str(&format!(
                "HighLight vs {name}: n/a ({})\n",
                if ratios.is_empty() {
                    "no comparable sweep points"
                } else {
                    "non-positive EDP ratio in sweep"
                }
            )),
        }
    }
    print!("{out}");
    persist("fig14.txt", &out);
}
