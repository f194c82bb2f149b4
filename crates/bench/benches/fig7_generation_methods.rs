//! Fig. 7 runtime bench: routing cost of every algorithm on each network
//! generation method (Waxman, Watts-Strogatz, Aiello).
//!
//! The *rates* behind Fig. 7 come from the `figures` binary; these benches
//! measure the compute cost of regenerating the figure's data points.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fusion_bench::workloads::Algorithm;
use fusion_sim::experiment::ExperimentConfig;
use fusion_telemetry::Registry;
use fusion_topology::GeneratorKind;
use std::hint::black_box;

fn bench_generation_methods(c: &mut Criterion) {
    let kinds = [
        ("waxman", GeneratorKind::Waxman { alpha: 1.0 }),
        (
            "watts-strogatz",
            GeneratorKind::WattsStrogatz { rewire: 0.1 },
        ),
        ("aiello", GeneratorKind::Aiello { gamma: 2.5 }),
    ];
    let mut group = c.benchmark_group("fig7_route");
    group.sample_size(10);
    for (name, kind) in kinds {
        let mut config = ExperimentConfig::quick();
        config.topology.kind = kind;
        let (net, demands) = config.instance(0);
        for algo in Algorithm::ALL {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), name),
                &(&net, &demands),
                |b, (net, demands)| {
                    b.iter(|| {
                        black_box(algo.route_threads_counted(
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
    }
    group.finish();
}

fn bench_topology_generation(c: &mut Criterion) {
    let kinds = [
        ("waxman", GeneratorKind::Waxman { alpha: 1.0 }),
        (
            "watts-strogatz",
            GeneratorKind::WattsStrogatz { rewire: 0.1 },
        ),
        ("aiello", GeneratorKind::Aiello { gamma: 2.5 }),
    ];
    let mut group = c.benchmark_group("fig7_generate");
    for (name, kind) in kinds {
        let mut config = ExperimentConfig::default();
        config.topology.kind = kind;
        group.bench_function(name, |b| {
            b.iter(|| black_box(config.topology.generate(7)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation_methods, bench_topology_generation);
criterion_main!(benches);
