//! Fig. 9 runtime bench: routing cost scaling with the network parameters
//! (switch count, qubits per switch, demanded states, average degree).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fusion_bench::workloads::Algorithm;
use fusion_sim::experiment::ExperimentConfig;
use fusion_telemetry::Registry;
use std::hint::black_box;

fn quick_with(f: impl FnOnce(&mut ExperimentConfig)) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick();
    f(&mut c);
    c
}

fn bench_switch_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9b_switches");
    group.sample_size(10);
    for n in [50usize, 100, 200] {
        let config = quick_with(|c| c.topology.num_switches = n);
        let (net, demands) = config.instance(0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(Algorithm::AlgNFusion.route_threads_counted(
                    &net,
                    &demands,
                    config.h,
                    1,
                    &Registry::disabled(),
                ))
            });
        });
    }
    group.finish();
}

fn bench_capacity_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9a_qubits");
    group.sample_size(10);
    for cap in [6u32, 12] {
        let config = quick_with(|c| c.network.switch_capacity = cap);
        let (net, demands) = config.instance(0);
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, _| {
            b.iter(|| {
                black_box(Algorithm::AlgNFusion.route_threads_counted(
                    &net,
                    &demands,
                    config.h,
                    1,
                    &Registry::disabled(),
                ))
            });
        });
    }
    group.finish();
}

fn bench_demand_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9c_states");
    group.sample_size(10);
    for states in [10usize, 40] {
        let config = quick_with(|c| c.topology.num_user_pairs = states);
        let (net, demands) = config.instance(0);
        group.bench_with_input(BenchmarkId::from_parameter(states), &states, |b, _| {
            b.iter(|| {
                black_box(Algorithm::AlgNFusion.route_threads_counted(
                    &net,
                    &demands,
                    config.h,
                    1,
                    &Registry::disabled(),
                ))
            });
        });
    }
    group.finish();
}

fn bench_degree_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9d_degree");
    group.sample_size(10);
    for degree in [5.0f64, 20.0] {
        let config = quick_with(|c| c.topology.avg_degree = degree);
        let (net, demands) = config.instance(0);
        group.bench_with_input(
            BenchmarkId::from_parameter(degree as u32),
            &degree,
            |b, _| {
                b.iter(|| {
                    black_box(Algorithm::AlgNFusion.route_threads_counted(
                        &net,
                        &demands,
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

criterion_group!(
    benches,
    bench_switch_scaling,
    bench_capacity_scaling,
    bench_demand_scaling,
    bench_degree_scaling
);
criterion_main!(benches);
