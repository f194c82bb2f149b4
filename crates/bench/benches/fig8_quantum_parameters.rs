//! Fig. 8 runtime bench: route-and-evaluate cost across the quantum
//! parameter sweeps (link success probability p, swap success q).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fusion_bench::workloads::Algorithm;
use fusion_sim::evaluate::{estimate_plan_counted, McCounters};
use fusion_sim::experiment::ExperimentConfig;
use fusion_telemetry::Registry;
use std::hint::black_box;

fn bench_p_sweep(c: &mut Criterion) {
    let config = ExperimentConfig::quick();
    let mut group = c.benchmark_group("fig8a_route_p");
    group.sample_size(10);
    for p in [0.1, 0.4] {
        let (mut net, demands) = config.instance(0);
        net.set_uniform_link_success(Some(p));
        group.bench_with_input(
            BenchmarkId::new("ALG-N-FUSION", format!("p={p}")),
            &(&net, &demands),
            |b, (net, demands)| {
                b.iter(|| {
                    black_box(Algorithm::AlgNFusion.route_threads_counted(
                        net,
                        demands,
                        config.h,
                        1,
                        &Registry::disabled(),
                    ))
                });
            },
        );
    }
    group.finish();
}

fn bench_q_sweep(c: &mut Criterion) {
    let config = ExperimentConfig::quick();
    let mut group = c.benchmark_group("fig8b_route_q");
    group.sample_size(10);
    for q in [0.3, 0.9] {
        let (mut net, demands) = config.instance(0);
        net.set_swap_success(q);
        group.bench_with_input(
            BenchmarkId::new("ALG-N-FUSION", format!("q={q}")),
            &(&net, &demands),
            |b, (net, demands)| {
                b.iter(|| {
                    black_box(Algorithm::AlgNFusion.route_threads_counted(
                        net,
                        demands,
                        config.h,
                        1,
                        &Registry::disabled(),
                    ))
                });
            },
        );
    }
    group.finish();
}

fn bench_monte_carlo_evaluation(c: &mut Criterion) {
    let config = ExperimentConfig::quick();
    let (net, demands) = config.instance(0);
    let plan = Algorithm::AlgNFusion.route_threads_counted(
        &net,
        &demands,
        config.h,
        1,
        &Registry::disabled(),
    );
    let mut group = c.benchmark_group("fig8_evaluate");
    group.sample_size(10);
    for rounds in [200usize, 1000] {
        group.bench_with_input(
            BenchmarkId::new("monte-carlo", rounds),
            &rounds,
            |b, &rounds| {
                b.iter(|| {
                    black_box(estimate_plan_counted(
                        &net,
                        &plan,
                        rounds,
                        1,
                        &McCounters::default(),
                    ))
                });
            },
        );
    }
    group.bench_function("analytic", |b| {
        b.iter(|| black_box(plan.total_rate(&net)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_p_sweep,
    bench_q_sweep,
    bench_monte_carlo_evaluation
);
criterion_main!(benches);
