//! Renderers for the paper's Tables 1-4 (shared by the table binaries).

use hl_arch::Comp;
use hl_eval::{designs, DesignId};
use hl_fibertree::catalog;
use hl_sim::network::SparsityMapping;
use hl_sim::{OperandSparsity, Workload};
use hl_sparsity::families::highlight_a;

/// Table 1: design-category comparison, measured from the models.
pub fn table1() -> String {
    // Sparsity tax measured as the tax fraction of energy on a 50%/50%
    // workload (where supported); degree diversity as the count of
    // exploitable weight-sparsity degrees.
    let mut out = String::new();
    out.push_str("Table 1 — design-category comparison (measured from the models)\n\n");
    out.push_str(&format!(
        "{:>10} {:>22} {:>18} {:>22}\n",
        "design", "category", "tax (% energy)", "exploitable degrees"
    ));
    for &d in DesignId::EVALUATED {
        let w = Workload::synthetic(d.operand_a(0.5), OperandSparsity::Dense);
        let tax = d
            .build()
            .evaluate_best(&w)
            .map(|r| r.energy.sparsity_tax() / r.energy.total() * 100.0)
            .ok();
        let (category, degrees) = match d {
            DesignId::Tc => ("dense", "n/a (never exploits)".to_string()),
            DesignId::Stc => ("structured sparse", "2 (0%, 50%)".to_string()),
            DesignId::S2ta => ("structured sparse", "4 (>=50%, eighths)".to_string()),
            DesignId::Dstc => ("unstructured sparse", "continuous".to_string()),
            DesignId::HighLight | DesignId::Dsso => (
                "HSS (this work)",
                format!("{} exact", highlight_a().degree_count()),
            ),
        };
        out.push_str(&format!(
            "{:>10} {:>22} {:>18} {:>22}\n",
            d.name(),
            category,
            tax.map_or("n/a".to_string(), |t| format!("{:.2}", t.max(0.0))),
            degrees
        ));
    }
    out
}

/// Table 2: fibertree-based sparsity specifications.
pub fn table2() -> String {
    format!(
        "Table 2 — fibertree-based sparsity specifications\n\n{}",
        catalog::render_table2()
    )
}

/// Table 3: supported sparsity patterns per design.
pub fn table3() -> String {
    let mut out = String::new();
    out.push_str("Table 3 — supported sparsity patterns\n\n");
    for d in designs() {
        out.push_str(&format!("{:>10}: {}\n", d.name(), d.supported_patterns()));
    }
    out
}

/// Table 4: hardware resource allocation per design.
pub fn table4() -> String {
    let mut out = String::new();
    out.push_str("Table 4 — hardware resource allocation (from design areas)\n\n");
    out.push_str(&format!(
        "{:>10} {:>12} {:>12} {:>12} {:>14}\n",
        "design", "GLB", "GLB-meta", "RF", "area (mm^2)"
    ));
    for d in designs() {
        let area = d.area();
        let fmt = |c: Comp| {
            let v = area.get(c);
            if v == 0.0 {
                "-".to_string()
            } else {
                format!("{:.2}", v / 1e6)
            }
        };
        out.push_str(&format!(
            "{:>10} {:>12} {:>12} {:>12} {:>14.2}\n",
            d.name(),
            fmt(Comp::Glb),
            fmt(Comp::GlbMeta),
            fmt(Comp::RegFile),
            area.total() / 1e6
        ));
    }
    out.push_str("\n(per-component columns in mm^2; all designs hold 1024 MACs)\n");
    out
}
