//! `codesign` — the §7.1.2 co-design search as an offline tool: optimize
//! a pruning configuration per `(design, model)` pair under an
//! accuracy-loss budget and report the Pareto front over (loss, EDP).
//!
//! ```text
//! codesign [MODEL...] [--designs A,B,...] [--budget POINTS]
//! ```
//!
//! Defaults: all three zoo models, all registered designs, a 0.5-point
//! budget (roughly Fig. 2's "2:4 loss + 0.4" envelope). The search core
//! lives in [`hl_eval::search`] and runs on the parallel engine
//! (`HL_THREADS` sizes the pool); `POST /search` on `hl-serve` answers
//! the same queries from the same code. Output is persisted to
//! `results/codesign.txt`.

use std::process::exit;

use hl_bench::persist;
use hl_eval::{registered_names, DesignId, SearchOutcome, SweepContext};
use hl_models::{model_by_name, zoo};

fn render(out: &SearchOutcome) -> String {
    let mut text = format!(
        "== {} on {} ({}), budget {:.2} points ==\n\
         {} candidates evaluated, {} unsupported, {} on the Pareto front\n",
        out.design,
        out.model,
        out.metric,
        out.budget,
        out.candidates,
        out.unsupported,
        out.front().len(),
    );
    text.push_str(&format!(
        "{:>26} {:>10} {:>10} {:>10} {:>8} {:>6}\n",
        "config", "sparsity", "loss", "EDP", "Pareto", "best"
    ));
    let best = out.best;
    for (i, p) in out.points.iter().enumerate() {
        if !p.on_front {
            continue;
        }
        text.push_str(&format!(
            "{:>26} {:>9.1}% {:>10.3} {:>10.3} {:>8} {:>6}\n",
            p.label,
            p.weight_sparsity * 100.0,
            p.loss,
            p.edp,
            "*",
            if best == Some(i) { "<==" } else { "" }
        ));
    }
    match out.best_point() {
        Some(b) => text.push_str(&format!(
            "best within budget: {} (loss {:.3}, EDP {:.3}x dense TC)\n",
            b.label, b.loss, b.edp
        )),
        None => text.push_str("no configuration stays within the budget\n"),
    }
    text
}

fn main() {
    let mut budget = 0.5;
    let mut design_names: Vec<String> =
        registered_names().iter().map(ToString::to_string).collect();
    let mut model_names: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(b)) if b.is_finite() && b >= 0.0 => budget = b,
                _ => {
                    eprintln!("codesign: --budget needs a finite non-negative number");
                    exit(2);
                }
            },
            "--designs" => match it.next() {
                Some(list) => design_names = list.split(',').map(str::to_string).collect(),
                None => {
                    eprintln!("codesign: --designs needs a comma-separated list");
                    exit(2);
                }
            },
            name => model_names.push(name.to_string()),
        }
    }

    let models = if model_names.is_empty() {
        zoo::all_models()
    } else {
        match model_names.iter().map(|n| model_by_name(n)).collect() {
            Ok(models) => models,
            Err(e) => {
                eprintln!("codesign: {e}");
                exit(2);
            }
        }
    };
    let designs: Vec<DesignId> = match design_names.iter().map(|n| n.parse()).collect() {
        Ok(designs) => designs,
        Err(e) => {
            eprintln!("codesign: {e}");
            exit(2);
        }
    };

    let ctx = SweepContext::new();
    let mut out = String::from(
        "Co-design search (§7.1.2) — Pareto fronts over (accuracy loss, EDP vs dense TC)\n",
    );
    for model in &models {
        for design in &designs {
            out.push('\n');
            out.push_str(&render(&ctx.codesign(*design, model, budget)));
        }
    }
    print!("{out}");
    persist("codesign.txt", &out);
}
