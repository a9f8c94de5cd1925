//! Golden pin of the per-design co-design policy (§7.1.2): for every
//! registered design, the operand A and operand B descriptors at a fixed
//! set of degrees, the Fig. 15 configurations and the co-design search
//! space, all by their `Display` labels.
//!
//! The golden lives in `tests/golden/policy.txt`; a change to any
//! design's policy must show up as a diff of that file.

use std::fmt::Write;

use hl_eval::{codesign_space, DesignId};
use hl_sim::network::SparsityMapping;

const DEGREES: [f64; 8] = [0.0, 0.05, 0.25, 0.5, 0.6, 0.75, 0.95, 1.0];

fn labels<T: ToString>(items: &[T]) -> String {
    items
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(" | ")
}

fn policy_table() -> String {
    let mut out = String::new();
    for id in DesignId::ALL {
        writeln!(out, "{id}").unwrap();
        for s in DEGREES {
            writeln!(out, "  a {s}: {}", id.operand_a(s)).unwrap();
            writeln!(out, "  b {s}: {}", id.operand_b(s)).unwrap();
        }
        writeln!(out, "  fig15: {}", labels(&id.fig15_configs())).unwrap();
        writeln!(
            out,
            "  space: {}",
            labels(&codesign_space(id.name()).unwrap())
        )
        .unwrap();
    }
    out
}

#[test]
fn policy_matches_golden() {
    assert_eq!(
        policy_table().trim_end(),
        include_str!("golden/policy.txt").trim_end()
    );
}
