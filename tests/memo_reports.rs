//! The engine's memo keeps a compact cost per cell and builds every report
//! on the way out. These tests pin that the rebuilt reports equal the
//! uncached `Accelerator::evaluate_best` bit for bit, for every registered
//! design over a grid of shapes and operand degrees, on a cold and a warm
//! engine, one cell at a time and as a batched network.

use highlight::prelude::*;
use highlight::sim::engine::Engine;
use highlight::sim::network::{NetworkLayer, NetworkWorkload};
use hl_eval::DesignId;

/// An outcome with every `f64` as its bits and every recorded component
/// listed (a component recorded at 0 pJ included), so equality is exact.
fn exact(outcome: &Result<EvalResult, Unsupported>) -> String {
    match outcome {
        Ok(r) => {
            let energy: Vec<(String, u64)> = r
                .energy
                .iter()
                .map(|(comp, pj)| (comp.to_string(), pj.to_bits()))
                .collect();
            let cycles = r.cycles.to_bits();
            format!("{} | {} | {cycles:x} | {energy:?}", r.design, r.workload)
        }
        Err(u) => format!("unsupported {} | {}", u.design, u.reason),
    }
}

fn operands() -> Vec<OperandSparsity> {
    vec![
        OperandSparsity::Dense,
        OperandSparsity::unstructured(0.3),
        OperandSparsity::unstructured(0.75),
        // Fully pruned: every design answers `Unsupported`.
        OperandSparsity::unstructured(1.0),
        OperandSparsity::Hss(HssPattern::one_rank(Gh::new(2, 4))),
        OperandSparsity::Hss(HssPattern::one_rank(Gh::new(1, 8))),
        OperandSparsity::Hss(HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4))),
        OperandSparsity::Hss(HssPattern::two_rank(Gh::new(2, 4), Gh::new(3, 4))),
    ]
}

/// Every cell of the grid, named `name`.
fn grid(name: &str) -> Vec<Workload> {
    let shapes = [
        GemmShape::new(64, 64, 64),
        GemmShape::new(512, 256, 128),
        GemmShape::new(3, 1152, 49),
    ];
    let mut cells = Vec::new();
    for shape in shapes {
        for a in operands() {
            for b in operands() {
                cells.push(Workload::new(name, shape, a.clone(), b));
            }
        }
    }
    cells
}

#[test]
fn cold_and_warm_reports_equal_the_uncached_evaluation_bit_for_bit() {
    let engine = Engine::with_threads(2);
    let (mut supported, mut unsupported) = (0, 0);
    for id in DesignId::ALL {
        let design = id.build();
        // Cold under one name, then warm under another: a hit must carry
        // the asking workload's name, never the one that filled the memo.
        for name in ["first", "second"] {
            for w in grid(name) {
                let reference = design.evaluate_best(&w);
                let cached = engine.evaluate_best(design.as_ref(), &w);
                assert_eq!(exact(&cached), exact(&reference), "{} on {w}", id.name());
                match &cached {
                    Ok(r) => {
                        assert_eq!(
                            (r.design.as_str(), r.workload.as_str()),
                            (design.name(), name)
                        );
                        supported += 1;
                    }
                    Err(u) => {
                        assert_eq!(u.design, design.name());
                        unsupported += 1;
                    }
                }
            }
        }
    }
    let (hits, misses) = engine.eval_cache().stats();
    assert_eq!(
        hits, misses,
        "the second pass hits every cell the first missed"
    );
    assert!(
        supported > 0 && unsupported > 0,
        "{supported} / {unsupported}"
    );
}

#[test]
fn batched_network_reports_equal_the_uncached_evaluation_bit_for_bit() {
    for id in DesignId::ALL {
        let design = id.build();
        let layers = grid("layer")
            .into_iter()
            .enumerate()
            .map(|(i, mut w)| {
                w.name = format!("layer{i}");
                NetworkLayer::new(w, 1)
            })
            .collect();
        let network = NetworkWorkload::new("grid", layers);
        let engine = Engine::with_threads(2);
        for pass in ["cold", "warm"] {
            let eval = engine.evaluate_network(design.as_ref(), &network);
            assert_eq!(eval.design, design.name());
            for (layer, l) in eval.layers.iter().zip(&network.layers) {
                assert_eq!(
                    exact(&layer.outcome),
                    exact(&design.evaluate_best(&l.workload)),
                    "{pass} {} on {}",
                    id.name(),
                    l.workload
                );
            }
        }
    }
}
