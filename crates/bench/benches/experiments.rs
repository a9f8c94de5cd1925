//! Criterion benches of the experiment harness itself: per-design analytical
//! evaluation and the full Fig. 13 sweep. These are the entry points each
//! table/figure binary calls, so their cost bounds experiment regeneration
//! time.

use criterion::{criterion_group, criterion_main, Criterion};
use hl_bench::{run_synthetic_sweep, DesignId};
use hl_sim::evaluate_best;
use hl_tensor::GemmShape;
use std::hint::black_box;

fn bench_design_evaluations(c: &mut Criterion) {
    for &d in DesignId::EVALUATED {
        let w = d.workload(GemmShape::new(1024, 1024, 1024), 0.75, 0.5);
        let design = d.build();
        c.bench_function(&format!("evaluate/{d}"), |bench| {
            bench.iter(|| black_box(evaluate_best(design.as_ref(), &w)))
        });
    }
}

fn bench_fig13_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("fig13-full", |bench| {
        bench.iter(|| black_box(run_synthetic_sweep()))
    });
    group.finish();
}

criterion_group!(benches, bench_design_evaluations, bench_fig13_sweep);
criterion_main!(benches);
