//! Times the individual cold-path kernels — HSS conformance checking,
//! compressed-format encoding, the functional micro-architecture
//! simulator, fibertree construction, HSS pruning, the accuracy
//! surrogate's retention misses, one at a time and as a co-design
//! search's batch, the network stage of a co-design search (uncached
//! `evaluate_best` cells, the same networks replayed from a warm engine,
//! and model lowering), and the JSON number
//! formatter every response runs — and records the result in
//! `BENCH_micro.json` (honoring `HL_BENCH_OUT`), one kernel per line with
//! four decimals.
//!
//! Where `bench_sweeps` measures the end-to-end sweeps, this harness
//! isolates the kernels those sweeps are built from, so a regression in
//! the sweep numbers can be attributed to one kernel. Every kernel's
//! output is consumed (summed into a checksum) so the work cannot be
//! optimized away.

use std::time::Instant;

use hl_bench::{bench_out_path, codesign_space, DesignId, SweepContext};
use hl_json::{Json, Writer};
use hl_models::accuracy::PruningConfig;
use hl_models::accuracy::{accuracy_loss_cached, synthetic_weights, RetentionCache};
use hl_models::ModelId;
use hl_sim::engine::Engine;
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
        kernels.push(format!(
            "    {{\"name\": {}, \"iters\": {iters}, \"avg_ms\": {avg_ms:.4}}}",
            Json::str(name).encode()
        ));
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

    // A cold co-design search's surrogate work: every HighLight candidate
    // on ResNet50 scored on a fresh cache, as one batch on one thread, and
    // one candidate at a time through the cached path.
    let resnet = hl_models::zoo::resnet50();
    let candidates = codesign_space("HighLight").expect("HighLight is registered");
    let serial = Engine::serial();
    record("retention_batch", 5, &mut || {
        let losses = RetentionCache::new().losses(&resnet, &candidates, &serial);
        losses.iter().sum()
    });
    record("retention_per_candidate", 5, &mut || {
        let cache = RetentionCache::new();
        candidates
            .iter()
            .map(|cfg| accuracy_loss_cached(&resnet, cfg, &cache))
            .sum()
    });

    // A cold co-design search's network stage on ResNet50, uncached:
    // `evaluate_best` on every layer of every candidate's lowered network
    // (DSTC and HighLight, the designs whose cells resolve balance tables
    // and family members), and DSSO's lowering of every candidate (its
    // operand mappings scan both its families on every layer).
    for (name, design) in [
        ("cells_dstc", DesignId::Dstc),
        ("cells_highlight", DesignId::HighLight),
    ] {
        let accelerator = design.build();
        let workloads: Vec<_> = codesign_space(design.name())
            .expect("registered")
            .iter()
            .flat_map(|cfg| SweepContext::lower_model(design, &resnet, cfg).layers)
            .map(|layer| layer.workload)
            .collect();
        println!("{:>18}  {} cells", "", workloads.len());
        record(name, 20, &mut || {
            workloads
                .iter()
                .filter_map(|w| accelerator.evaluate_best(w).ok())
                .map(|r| r.cycles)
                .sum()
        });
    }
    // The same stage replayed warm: every HighLight candidate's ResNet50
    // network on an engine whose memo already holds each cell, so the row
    // times the lookups and the reports built from the cached costs.
    let highlight = DesignId::HighLight.build();
    let networks: Vec<_> = codesign_space("HighLight")
        .expect("registered")
        .iter()
        .map(|cfg| SweepContext::lower_model(DesignId::HighLight, &resnet, cfg))
        .collect();
    let warm = Engine::serial();
    let replay = || -> f64 {
        networks
            .iter()
            .filter_map(|n| warm.evaluate_network(highlight.as_ref(), n).cycles())
            .sum()
    };
    replay();
    record("network_warm", 20, &mut || replay());
    let dsso_space: Vec<PruningConfig> = codesign_space("DSSO").expect("DSSO is registered");
    record("lower_dsso", 50, &mut || {
        dsso_space
            .iter()
            .map(|cfg| {
                SweepContext::lower_model(DesignId::Dsso, &resnet, cfg)
                    .layers
                    .len() as f64
            })
            .sum()
    });

    // The numbers of every point of the 18 co-design searches (each
    // design × model, budget 1.0) — what `/v1/search` answers carry —
    // written through the response writer.
    let ctx = SweepContext::with_engine(Engine::serial());
    let models = ModelId::ALL.map(ModelId::build);
    let numbers: Vec<f64> = DesignId::ALL
        .iter()
        .flat_map(|&design| models.iter().map(move |m| (design, m)))
        .flat_map(|(design, m)| ctx.codesign(design, m, 1.0).points)
        .flat_map(|p| [p.weight_sparsity, p.loss, p.edp, p.energy_j, p.latency_s])
        .collect();
    record("json_format_f64", 200, &mut || {
        let mut w = Writer::with_capacity(numbers.len() * 24);
        w.array(|w| {
            for &n in &numbers {
                w.value(n);
            }
        });
        w.into_bytes().len() as f64
    });

    // The committed layout: one kernel per line, four decimals, so a
    // regenerated file diffs line by line against the previous one.
    let json = format!(
        "{{\n  \"benchmark\": \"cold-path kernels\",\n  \"kernels\": [\n{}\n  ]\n}}\n",
        kernels.join(",\n")
    );
    let out = bench_out_path("BENCH_micro.json");
    std::fs::write(&out, json).expect("write BENCH_micro.json");
    println!("\nwrote {}", out.display());
}
