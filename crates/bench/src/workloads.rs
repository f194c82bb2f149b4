//! Algorithm runners over the experiment configurations of
//! [`fusion_sim::experiment`].

use fusion_core::algorithms::{route_with_capacity_counted, RoutingConfig};
use fusion_core::baselines::{route_b1, route_qcast, route_qcast_n, DEFAULT_REGION_PATHS};
use fusion_core::{Demand, NetworkPlan, PhysicsParams, QuantumNetwork};
use fusion_sim::evaluate::{estimate_plan_parallel_counted, McCounters};
use fusion_sim::experiment::ExperimentConfig;
use fusion_telemetry::Registry;
use fusion_topology::GeneratorKind;

/// The five algorithm variants of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's ALG-N-FUSION (Algorithms 1-4 under n-fusion).
    AlgNFusion,
    /// Classic-swapping restriction (N = 2).
    QCast,
    /// Q-CAST routes evaluated under n-fusion.
    QCastN,
    /// Patil et al. percolation baseline extended to multiple pairs.
    B1,
    /// ALG-N-FUSION without Algorithm 4 (Fig. 7 ablation).
    Alg3Only,
}

impl Algorithm {
    /// The four algorithms compared in every figure.
    pub const MAIN: [Algorithm; 4] = [
        Algorithm::AlgNFusion,
        Algorithm::QCast,
        Algorithm::QCastN,
        Algorithm::B1,
    ];

    /// All five variants (Fig. 7 adds the Alg-3 ablation).
    pub const ALL: [Algorithm; 5] = [
        Algorithm::AlgNFusion,
        Algorithm::QCast,
        Algorithm::QCastN,
        Algorithm::B1,
        Algorithm::Alg3Only,
    ];

    /// Display name matching the paper's legends.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::AlgNFusion => "ALG-N-FUSION",
            Algorithm::QCast => "Q-CAST",
            Algorithm::QCastN => "Q-CAST-N",
            Algorithm::B1 => "B1",
            Algorithm::Alg3Only => "Alg-3",
        }
    }

    /// Parses a display name ([`Algorithm::name`]) back into the variant.
    /// Case-insensitive; returns `None` for unknown names.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// Routes `demands` on `net` with this algorithm, recording routing
    /// counters into `registry` for the pipeline-based algorithms (pass
    /// [`Registry::disabled`] for none). Candidate construction is sharded
    /// over `threads` workers for those algorithms (the plan is
    /// bit-identical to the serial one). The baselines have no
    /// instrumented variants and route serially and uncounted regardless:
    /// B1 routes demands sequentially against a running capacity
    /// remainder.
    #[must_use]
    pub fn route_threads_counted(
        self,
        net: &QuantumNetwork,
        demands: &[Demand],
        h: usize,
        threads: usize,
        registry: &Registry,
    ) -> NetworkPlan {
        match self {
            Algorithm::AlgNFusion => {
                route_with_capacity_counted(
                    net,
                    demands,
                    &RoutingConfig {
                        h,
                        ..RoutingConfig::n_fusion()
                    },
                    &net.capacities(),
                    threads,
                    registry,
                )
                .plan
            }
            Algorithm::QCast => route_qcast(net, demands, h),
            Algorithm::QCastN => route_qcast_n(net, demands, h),
            Algorithm::B1 => route_b1(net, demands, DEFAULT_REGION_PATHS),
            Algorithm::Alg3Only => {
                route_with_capacity_counted(
                    net,
                    demands,
                    &RoutingConfig {
                        h,
                        ..RoutingConfig::n_fusion_without_alg4()
                    },
                    &net.capacities(),
                    threads,
                    registry,
                )
                .plan
            }
        }
    }
}

/// Entanglement rate of `algorithm` on one network instance: Monte Carlo
/// when `mc_rounds > 0`, analytic otherwise, with routing and Monte Carlo
/// counters recorded into `registry`. Honors `config.threads`
/// (`threads == 1` reproduces the historical serial RNG streams exactly).
/// Counter totals are identical for any `threads` setting that divides
/// `config.mc_rounds` (see [`estimate_plan_parallel_counted`]).
#[must_use]
pub fn measure_rate_counted(
    config: &ExperimentConfig,
    algorithm: Algorithm,
    net: &QuantumNetwork,
    demands: &[Demand],
    registry: &Registry,
) -> f64 {
    let threads = config.resolved_threads();
    let plan = algorithm.route_threads_counted(net, demands, config.h, threads, registry);
    if config.mc_rounds == 0 {
        plan.total_rate(net)
    } else {
        estimate_plan_parallel_counted(
            net,
            &plan,
            config.mc_rounds,
            config.seed,
            threads,
            &McCounters::from_registry(registry),
        )
        .total_rate()
    }
}

/// Mean entanglement rate of `algorithm` over the configured number of
/// random networks, with `mutate` applied to each instance (parameter
/// sweeps adjust q, uniform p, etc.).
#[must_use]
pub fn mean_rate(
    config: &ExperimentConfig,
    algorithm: Algorithm,
    mutate: &dyn Fn(&mut QuantumNetwork),
) -> f64 {
    let mut total = 0.0;
    for i in 0..config.networks {
        let (mut net, demands) = config.instance(i);
        mutate(&mut net);
        total += measure_rate_counted(config, algorithm, &net, &demands, &Registry::disabled());
    }
    total / config.networks as f64
}

/// Network-level statistics used for calibration reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceStats {
    /// Mean single-link success probability.
    pub mean_link_success: f64,
    /// Average switch degree.
    pub avg_degree: f64,
    /// Nodes (switches + users).
    pub nodes: usize,
    /// Edges.
    pub edges: usize,
}

/// Computes calibration statistics for an instance.
#[must_use]
pub fn instance_stats(net: &QuantumNetwork) -> InstanceStats {
    let g = net.graph();
    let switches: Vec<_> = g.node_ids().filter(|&n| net.is_switch(n)).collect();
    let avg_degree = if switches.is_empty() {
        0.0
    } else {
        switches.iter().map(|&s| g.degree(s)).sum::<usize>() as f64 / switches.len() as f64
    };
    InstanceStats {
        mean_link_success: fusion_sim::failure::mean_link_success(net),
        avg_degree,
        nodes: g.node_count(),
        edges: g.edge_count(),
    }
}

/// Applies a generator-kind override, keeping everything else default.
#[must_use]
pub fn with_generator(config: &ExperimentConfig, kind: GeneratorKind) -> ExperimentConfig {
    let mut out = config.clone();
    out.topology.kind = kind;
    out
}

/// Default physics constants, re-exported for the figure runners.
#[must_use]
pub fn default_physics() -> PhysicsParams {
    PhysicsParams::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_sim::experiment::{preset_names, resolve_preset, scale_presets};

    #[test]
    fn default_config_matches_paper() {
        let c = ExperimentConfig::default();
        assert_eq!(c.topology.num_switches, 100);
        assert_eq!(c.topology.num_user_pairs, 20);
        assert_eq!(c.network.switch_capacity, 10);
        assert_eq!(c.networks, 5);
        assert!((c.network.physics.swap_success - 0.9).abs() < 1e-12);
        assert!((c.network.physics.alpha - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn instances_are_deterministic_and_distinct() {
        let c = ExperimentConfig::quick();
        let (a, da) = c.instance(0);
        let (b, db) = c.instance(0);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(da, db);
        let (other, _) = c.instance(1);
        assert_ne!(
            a.graph().edge_count(),
            usize::MAX,
            "sanity: instance generation ran"
        );
        // Different index, different seed: almost surely different edges.
        assert!(
            a.graph().edge_count() != other.graph().edge_count()
                || a.node_count() == other.node_count()
        );
    }

    #[test]
    fn preset_names_resolve() {
        let names = preset_names();
        assert!(names.contains(&"default") && names.contains(&"quick"));
        assert!(names.contains(&"large-1k-grid"));
        for name in names {
            assert!(resolve_preset(name).is_some(), "{name} must resolve");
        }
        assert!(resolve_preset("nope").is_none());
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algo in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(algo.name()), Some(algo));
        }
        assert_eq!(
            Algorithm::from_name("alg-n-fusion"),
            Some(Algorithm::AlgNFusion),
            "parsing is case-insensitive"
        );
        assert_eq!(Algorithm::from_name("dijkstra"), None);
    }

    #[test]
    fn all_algorithms_run_on_quick_config() {
        let c = ExperimentConfig::quick();
        let (net, demands) = c.instance(0);
        for algo in Algorithm::ALL {
            let plan = algo.route_threads_counted(&net, &demands, c.h, 1, &Registry::disabled());
            let rate = plan.total_rate(&net);
            assert!(
                (0.0..=demands.len() as f64 + 1e-9).contains(&rate),
                "{} produced rate {rate}",
                algo.name()
            );
        }
    }

    #[test]
    fn scale_presets_are_runnable_shapes() {
        let presets = scale_presets();
        assert_eq!(presets.len(), 6);
        for (name, c) in &presets {
            assert!(
                c.topology.num_switches >= 1_000,
                "{name} is not large-scale"
            );
            assert_eq!(c.networks, 1, "{name} must average a single network");
            assert!(c.mc_rounds <= 500, "{name} would run for hours");
            assert!(c.resolved_threads() >= 1);
        }
        assert!(presets
            .iter()
            .any(|(n, c)| n.ends_with("-grid") && c.topology.kind == GeneratorKind::Grid));
    }

    #[test]
    fn large_grid_preset_routes_end_to_end() {
        // A scaled-down clone of the grid preset (same shape, fewer
        // switches) must route and estimate without issue.
        let mut c = ExperimentConfig::large_grid(1_000);
        c.topology.num_switches = 150;
        c.topology.num_user_pairs = 8;
        c.mc_rounds = 50;
        let (net, demands) = c.instance(0);
        assert_eq!(
            net.node_count(),
            150 + 16,
            "grid switches plus attached users"
        );
        let rate = measure_rate_counted(
            &c,
            Algorithm::AlgNFusion,
            &net,
            &demands,
            &Registry::disabled(),
        );
        assert!(rate > 0.0, "grid network must route something");
    }

    #[test]
    fn threaded_measure_matches_serial_analytically() {
        // With mc_rounds == 0 the rate is analytic, so thread count must
        // not change it at all.
        let mut c = ExperimentConfig::quick();
        c.mc_rounds = 0;
        let (net, demands) = c.instance(0);
        let serial = measure_rate_counted(
            &c,
            Algorithm::AlgNFusion,
            &net,
            &demands,
            &Registry::disabled(),
        );
        c.threads = 0;
        let parallel = measure_rate_counted(
            &c,
            Algorithm::AlgNFusion,
            &net,
            &demands,
            &Registry::disabled(),
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stats_are_sane() {
        let c = ExperimentConfig::quick();
        let (net, _) = c.instance(0);
        let stats = instance_stats(&net);
        assert!(stats.mean_link_success > 0.0 && stats.mean_link_success < 1.0);
        assert!(stats.avg_degree > 1.0);
        assert_eq!(stats.nodes, net.node_count());
    }
}
