//! Micro-benchmarks of the building blocks: Algorithm 1 path search,
//! Algorithm 2 selection, Eq.-1 flow evaluation (vs exact enumeration and
//! the classic DP), the entanglement registry, the stabilizer tableau, and
//! one Monte Carlo protocol round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fusion_bench::workloads::Algorithm;
use fusion_core::algorithms::{alg1, alg2};
use fusion_core::{metrics, SwapMode, WidthedPath};
use fusion_graph::Path;
use fusion_quantum::stabilizer::{fuse_groups, Tableau};
use fusion_quantum::EntanglementRegistry;
use fusion_sim::experiment::ExperimentConfig;
use fusion_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_alg1(c: &mut Criterion) {
    let config = ExperimentConfig::quick();
    let (net, demands) = config.instance(0);
    let caps = net.capacities();
    let cons = alg1::PathConstraints::default();
    let d = demands[0];
    let mut group = c.benchmark_group("alg1_largest_rate_path");
    for width in [1u32, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, &w| {
            b.iter(|| {
                black_box(alg1::largest_rate_path(
                    &net, d.source, d.dest, w, &caps, &cons,
                ))
            });
        });
        // Same query on a reused scratch: the allocation-free hot path
        // Algorithm 2 runs on.
        let mut scratch = fusion_graph::SearchScratch::with_capacity(net.node_count());
        group.bench_with_input(
            BenchmarkId::new("reused_scratch", width),
            &width,
            |b, &w| {
                b.iter(|| {
                    black_box(alg1::largest_rate_path_with(
                        &mut scratch,
                        &net,
                        d.source,
                        d.dest,
                        w,
                        &caps,
                        &cons,
                    ))
                });
            },
        );
    }
    group.finish();
}

fn bench_alg2(c: &mut Criterion) {
    let config = ExperimentConfig::quick();
    let (net, demands) = config.instance(0);
    let caps = net.capacities();
    c.bench_function("alg2_paths_selection", |b| {
        b.iter(|| {
            black_box(alg2::paths_selection_counted(
                &net,
                &demands,
                &caps,
                config.h,
                5,
                SwapMode::NFusion,
                &Registry::disabled(),
            ))
        });
    });
}

fn routed_flow() -> (fusion_core::QuantumNetwork, fusion_core::DemandPlan) {
    let config = ExperimentConfig::quick();
    let (net, demands) = config.instance(0);
    let plan = Algorithm::AlgNFusion.route_threads_counted(
        &net,
        &demands,
        config.h,
        1,
        &Registry::disabled(),
    );
    let dp = plan
        .plans
        .into_iter()
        .find(|p| !p.is_unserved())
        .expect("quick instance routes something");
    (net, dp)
}

fn bench_rate_evaluators(c: &mut Criterion) {
    let (net, dp) = routed_flow();
    let mut group = c.benchmark_group("rate_evaluation");
    group.bench_function("eq1_flow_rate", |b| {
        b.iter(|| black_box(metrics::flow_rate(&net, &dp.flow)));
    });
    if let Some(wp) = dp.paths.first() {
        group.bench_function("classic_single_lane", |b| {
            b.iter(|| black_box(metrics::classic::success_probability(&net, wp)));
        });
        group.bench_function("classic_adaptive_dp", |b| {
            b.iter(|| black_box(metrics::classic::success_probability_adaptive(&net, wp)));
        });
        let wide = WidthedPath::uniform(wp.path.clone(), 5);
        group.bench_function("nfusion_path_rate_w5", |b| {
            b.iter(|| black_box(metrics::widthed_path_rate(&net, &wide)));
        });
    }
    group.finish();
}

fn bench_exact_vs_eq1(c: &mut Criterion) {
    // A fixed 2-branch series-parallel flow where exact enumeration is
    // tractable, comparing evaluator costs.
    let mut b = fusion_core::QuantumNetwork::builder();
    let s = b.user(0.0, 0.0);
    let v1 = b.switch(1.0, 1.0, 10);
    let v2 = b.switch(1.0, -1.0, 10);
    let d = b.user(2.0, 0.0);
    for (x, y) in [(s, v1), (v1, d), (s, v2), (v2, d)] {
        b.link(x, y).unwrap();
    }
    let mut net = b.build();
    net.set_uniform_link_success(Some(0.5));
    let mut flow = fusion_core::FlowGraph::new(s, d);
    flow.add_path(&Path::new(vec![s, v1, d]), 2);
    flow.add_path(&Path::new(vec![s, v2, d]), 2);
    let mut group = c.benchmark_group("eq1_vs_exact");
    group.bench_function("eq1", |b| {
        b.iter(|| black_box(metrics::flow_rate(&net, &flow)));
    });
    group.bench_function("exact_enumeration", |b| {
        b.iter(|| black_box(fusion_sim::exact::flow_reliability(&net, &flow)));
    });
    group.finish();
}

fn bench_registry(c: &mut Criterion) {
    c.bench_function("registry_chain_of_swaps", |b| {
        b.iter(|| {
            let mut reg = EntanglementRegistry::new();
            let mut prev = {
                let a = reg.alloc();
                let m = reg.alloc();
                reg.create_pair(a, m).unwrap();
                m
            };
            for _ in 0..16 {
                let l = reg.alloc();
                let r = reg.alloc();
                reg.create_pair(l, r).unwrap();
                reg.fuse(&[prev, l]).unwrap();
                prev = r;
            }
            black_box(reg.group_count())
        });
    });
}

fn bench_stabilizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("stabilizer");
    for n in [8usize, 32] {
        group.bench_with_input(BenchmarkId::new("ghz_fuse", n), &n, |b, &n| {
            b.iter(|| {
                let mut tab = Tableau::new(2 * n);
                let g1: Vec<usize> = (0..n).collect();
                let g2: Vec<usize> = (n..2 * n).collect();
                tab.prepare_ghz(&g1);
                tab.prepare_ghz(&g2);
                let mut rng = StdRng::seed_from_u64(7);
                fuse_groups(&mut tab, &[g1, g2], &[0, n], &mut rng);
                black_box(tab.qubit_count())
            });
        });
    }
    group.finish();
}

fn bench_monte_carlo_round(c: &mut Criterion) {
    let (net, dp) = routed_flow();
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("mc_flow_round", |b| {
        b.iter(|| {
            black_box(fusion_sim::connectivity::sample_flow_round(
                &net, &dp, &mut rng,
            ))
        });
    });
    // The reusable sampler: resolved lookups + generational union-find,
    // i.e. what estimate_plan_counted actually runs per round.
    let mut sampler = fusion_sim::FlowSampler::new(&net, &dp);
    let mut rng_s = StdRng::seed_from_u64(3);
    c.bench_function("mc_flow_round_reused_sampler", |b| {
        b.iter(|| black_box(sampler.sample(&mut rng_s)));
    });
    let mut rng2 = StdRng::seed_from_u64(4);
    c.bench_function("protocol_registry_round", |b| {
        b.iter(|| black_box(fusion_sim::protocol::simulate_round(&net, &dp, &mut rng2)));
    });
}

criterion_group!(
    benches,
    bench_alg1,
    bench_alg2,
    bench_rate_evaluators,
    bench_exact_vs_eq1,
    bench_registry,
    bench_stabilizer,
    bench_monte_carlo_round
);
criterion_main!(benches);
