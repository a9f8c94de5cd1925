//! Times the individual cold-path kernels — HSS conformance checking,
//! compressed-format encoding, the functional micro-architecture
//! simulator, fibertree construction, HSS pruning, and the accuracy
//! surrogate's retention miss — and records the result in
//! `BENCH_micro.json` (honoring `HL_BENCH_OUT`).
//!
//! Where `bench_sweeps` measures the end-to-end sweeps, this harness
//! isolates the kernels those sweeps are built from, so a regression in
//! the sweep numbers can be attributed to one kernel. Every kernel's
//! output is consumed (summed into a checksum) so the work cannot be
//! optimized away.

use std::time::Instant;

use hl_bench::bench_out_path;
use hl_json::Json;
use hl_models::accuracy::synthetic_weights;
use hl_sim::micro::{MicroConfig, MicroSim};
use hl_sparsity::prune::{hss_kept, hss_kept_sum_sq, prune_hss, PruneScratch};
use hl_sparsity::{Gh, HssPattern};
use hl_tensor::format::{HssCompressed, SparseB};
use hl_tensor::gen;

/// Times `iters` runs of `f` after one warmup, returning the mean
/// milliseconds per run and a checksum accumulated from the runs.
fn time_kernel(iters: u32, mut f: impl FnMut() -> f64) -> (f64, f64) {
    let mut checksum = f(); // warmup
    let t0 = Instant::now();
    for _ in 0..iters {
        checksum += f();
    }
    (
        t0.elapsed().as_secs_f64() * 1e3 / f64::from(iters),
        checksum,
    )
}

fn main() {
    println!("bench_micro — cold-path kernel timings\n");

    let pattern = [Gh::new(4, 8), Gh::new(2, 4)];
    let hss = gen::random_hss(1024, 1024, &pattern, 11);
    let dense = gen::random_dense(256, 1024, 12);
    let unstructured = gen::random_unstructured(1024, 64, 0.6, 13);
    let prune_pattern = HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4));

    let micro_cfg = MicroConfig::paper_downsized(4);
    let micro_k = micro_cfg.group_words() * 8;
    let micro_a = gen::random_hss(16, micro_k, &[micro_cfg.rank1, micro_cfg.rank0], 14);
    let micro_b = gen::random_unstructured(micro_k, 16, 0.5, 15);

    // Fibertree build input: pruned surrogate layer weights, the shape the
    // spec conformance checks construct trees from.
    let tree_src = prune_hss(&synthetic_weights(256, 1024, 0xACC0), &prune_pattern);

    let mut kernels = Vec::new();
    let mut record = |name: &'static str, iters: u32, f: &mut dyn FnMut() -> f64| {
        let (avg_ms, checksum) = time_kernel(iters, f);
        std::hint::black_box(checksum);
        println!("{name:>18}: {avg_ms:9.3} ms/op  ({iters} iters)");
        kernels.push(Json::Obj(vec![
            ("name".into(), Json::str(name)),
            ("iters".into(), Json::Num(f64::from(iters))),
            ("avg_ms".into(), Json::Num(avg_ms)),
        ]));
    };

    record("check_hss", 50, &mut || {
        f64::from(u32::from(gen::check_hss(&hss, &pattern).is_none()))
    });
    record("hss_encode", 20, &mut || {
        let c = HssCompressed::encode(&hss, 8, 4);
        c.rows().iter().map(|r| r.values.len() as f64).sum()
    });
    record("sparse_b_encode", 20, &mut || {
        let s = SparseB::encode(&unstructured, 8, 4);
        s.nonzeros() as f64
    });
    record("micro_sim_run", 10, &mut || {
        let report = MicroSim::new(micro_cfg).run(&micro_a, &micro_b, true);
        report.counts.cycles as f64
    });
    record("fibertree_build", 10, &mut || {
        let tree = tree_src
            .to_fibertree("M", "K")
            .expect("layer weights lower to a fibertree");
        tree.nonzeros() as f64
    });
    record("prune_hss", 20, &mut || {
        let pruned = prune_hss(&dense, &prune_pattern);
        pruned.nonzeros() as f64
    });
    // The selection shapes the co-design surrogate prunes most: one-rank
    // lowest-rank groups of 4 and 8 values, and a two-rank pattern whose
    // upper rank ranks blocks of two.
    for (name, pattern) in [
        ("prune_lowest_2_4", HssPattern::one_rank(Gh::new(2, 4))),
        ("prune_lowest_3_8", HssPattern::one_rank(Gh::new(3, 8))),
        (
            "prune_hss_4_8_1_2",
            HssPattern::two_rank(Gh::new(4, 8), Gh::new(1, 2)),
        ),
    ] {
        record(name, 20, &mut || {
            let pruned = prune_hss(&dense, &pattern);
            pruned.nonzeros() as f64
        });
    }

    // A retention miss of the accuracy surrogate on its 64×1024 proxy: the
    // sum of the kept squares, one-rank from the weights, and two-rank
    // from the lowest rank's mask, which the surrogate caches.
    let proxy = synthetic_weights(64, 1024, 0xACC0);
    let mut scratch = PruneScratch::new();
    let one_rank = HssPattern::one_rank(Gh::new(2, 4));
    let two_rank = HssPattern::two_rank(Gh::new(4, 8), Gh::new(2, 4));
    let prefix = hss_kept(proxy.data(), 1024, &one_rank, None, &mut scratch);
    record("retention_miss_2_4", 200, &mut || {
        hss_kept_sum_sq(proxy.data(), 1024, &one_rank, None, &mut scratch)
    });
    record("retention_miss_4_8_2_4", 200, &mut || {
        hss_kept_sum_sq(proxy.data(), 1024, &two_rank, Some(&prefix), &mut scratch)
    });

    let json = Json::Obj(vec![
        ("benchmark".into(), Json::str("cold-path kernels")),
        ("kernels".into(), Json::Arr(kernels)),
    ]);
    let out = bench_out_path("BENCH_micro.json");
    std::fs::write(&out, json.encode() + "\n").expect("write BENCH_micro.json");
    println!("\nwrote {}", out.display());
}
