//! Scale benchmarks: the routing pipeline and Monte Carlo sampler on the
//! 1k-switch presets (grid and Waxman), far beyond the paper's 100-switch
//! evaluation. Sample sizes are kept tiny — each iteration routes a whole
//! 1k-switch network. 5k/10k runs are exercised through the `figures`
//! binary (`figures scale --preset large-10k-grid`) rather than Criterion.

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_bench::workloads::Algorithm;
use fusion_sim::evaluate::{estimate_plan_parallel_counted, McCounters};
use fusion_sim::experiment::ExperimentConfig;
use fusion_telemetry::Registry;
use std::hint::black_box;

fn bench_scale_1k(c: &mut Criterion) {
    for (label, config) in [
        ("grid", ExperimentConfig::large_grid(1_000)),
        ("waxman", ExperimentConfig::large(1_000)),
    ] {
        let (net, demands) = config.instance(0);
        let threads = config.resolved_threads();
        let mut group = c.benchmark_group(format!("scale_1k_{label}"));
        group.sample_size(10);
        group.bench_function("route_parallel", |b| {
            b.iter(|| {
                black_box(Algorithm::AlgNFusion.route_threads_counted(
                    &net,
                    &demands,
                    config.h,
                    threads,
                    &Registry::disabled(),
                ))
            });
        });
        let plan = Algorithm::AlgNFusion.route_threads_counted(
            &net,
            &demands,
            config.h,
            threads,
            &Registry::disabled(),
        );
        group.bench_function("mc_estimate", |b| {
            b.iter(|| {
                black_box(
                    estimate_plan_parallel_counted(
                        &net,
                        &plan,
                        config.mc_rounds,
                        config.seed,
                        threads,
                        &McCounters::default(),
                    )
                    .total_rate(),
                )
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_scale_1k);
criterion_main!(benches);
