//! Experiment configuration (paper §V-A) and the named presets.
//!
//! One table of worlds serves every consumer: the figure harness and
//! perfbench (`fusion-bench`), the sweep runner (`fusion-runner`) and the
//! online engine's `serve replay --preset NAME` (`fusion-serve`). The same
//! preset name and instance index therefore always build the same network,
//! so replay results are directly comparable to the batch experiments of
//! that name.

use fusion_core::algorithms::RoutingConfig;
use fusion_core::{Demand, NetworkParams, QuantumNetwork};
use fusion_topology::{GeneratorKind, TopologyConfig};

/// One experiment instance: everything needed to generate networks and
/// route demands. Field defaults mirror §V-A.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Topology generation parameters (100 switches, degree 10, 20 states,
    /// 10k × 10k area by default).
    pub topology: TopologyConfig,
    /// Switch capacity and physics (capacity 10, q = 0.9, α = 1e-4).
    pub network: NetworkParams,
    /// Networks generated and averaged per data point (paper: 5).
    pub networks: usize,
    /// Candidate paths per (demand, width) for Algorithm 2.
    pub h: usize,
    /// Monte Carlo rounds per (network, demand) when estimating rates
    /// empirically; `0` reports analytic rates instead.
    pub mc_rounds: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for routing and Monte Carlo estimation; `1` keeps
    /// the historical fully-serial behaviour (and its RNG streams), `0`
    /// means "all available cores". The scale presets default to `0`.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            topology: TopologyConfig::default(),
            network: NetworkParams::default(),
            networks: 5,
            h: 5,
            mc_rounds: 1_500,
            seed: 0x5eed,
            threads: 1,
        }
    }
}

impl ExperimentConfig {
    /// A scaled-down configuration for fast smoke runs and Criterion
    /// benches (30 switches, 6 states, 2 networks).
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            topology: TopologyConfig {
                num_switches: 30,
                num_user_pairs: 6,
                avg_degree: 6.0,
                ..TopologyConfig::default()
            },
            networks: 2,
            mc_rounds: 400,
            ..ExperimentConfig::default()
        }
    }

    /// A large-scale preset: `num_switches` switches (Waxman by default,
    /// see [`ExperimentConfig::large_grid`]), 50 demanded states, one
    /// network, h = 3, 200 Monte Carlo rounds, all cores. These settings
    /// keep a 1k-switch end-to-end run in seconds and a 10k-switch run in
    /// minutes; push any knob back up explicitly when you need more.
    #[must_use]
    pub fn large(num_switches: usize) -> Self {
        ExperimentConfig {
            topology: TopologyConfig {
                num_switches,
                num_user_pairs: 50,
                ..TopologyConfig::default()
            },
            networks: 1,
            h: 3,
            mc_rounds: 200,
            threads: 0,
            ..ExperimentConfig::default()
        }
    }

    /// [`ExperimentConfig::large`] on the deterministic grid lattice —
    /// O(n) generation, the reference shape for 5k/10k scale runs.
    #[must_use]
    pub fn large_grid(num_switches: usize) -> Self {
        let mut c = Self::large(num_switches);
        c.topology.kind = GeneratorKind::Grid;
        c
    }

    /// Resolves [`threads`](ExperimentConfig::threads): `0` becomes the
    /// available core count.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.threads
        }
    }

    /// Generates the `i`-th network instance and its demand list, from
    /// topology seed `seed + i`.
    #[must_use]
    pub fn instance(&self, i: usize) -> (QuantumNetwork, Vec<Demand>) {
        let topo = self.topology.generate(self.seed.wrapping_add(i as u64));
        let net = QuantumNetwork::from_topology(&topo, &self.network);
        let demands = Demand::from_topology(&topo);
        (net, demands)
    }

    /// The paper's `ALG-N-FUSION` configuration with this experiment's
    /// `h` — what the serve binary admits demands under.
    #[must_use]
    pub fn routing_config(&self) -> RoutingConfig {
        RoutingConfig {
            h: self.h,
            ..RoutingConfig::n_fusion()
        }
    }
}

/// The named large-topology presets exercised by the `figures` binary
/// (`--preset NAME`), the scale benchmarks and `serve replay`.
#[must_use]
pub fn scale_presets() -> Vec<(&'static str, ExperimentConfig)> {
    vec![
        ("large-1k", ExperimentConfig::large(1_000)),
        ("large-1k-grid", ExperimentConfig::large_grid(1_000)),
        ("large-5k", ExperimentConfig::large(5_000)),
        ("large-5k-grid", ExperimentConfig::large_grid(5_000)),
        ("large-10k", ExperimentConfig::large(10_000)),
        ("large-10k-grid", ExperimentConfig::large_grid(10_000)),
    ]
}

/// The named base presets: the paper's §V-A configuration and the
/// scaled-down smoke configuration.
#[must_use]
pub fn base_presets() -> Vec<(&'static str, ExperimentConfig)> {
    vec![
        ("default", ExperimentConfig::default()),
        ("quick", ExperimentConfig::quick()),
    ]
}

/// Every canonical preset name, base presets first then the large-scale
/// ones — the vocabulary sweep specifications are authored against
/// (`sweep list-presets`) and `serve presets` lists.
#[must_use]
pub fn preset_names() -> Vec<&'static str> {
    base_presets()
        .iter()
        .map(|(n, _)| *n)
        .chain(scale_presets().iter().map(|(n, _)| *n))
        .collect()
}

/// Resolves a canonical preset name ([`base_presets`] or
/// [`scale_presets`]) to its configuration.
#[must_use]
pub fn resolve_preset(name: &str) -> Option<ExperimentConfig> {
    base_presets()
        .into_iter()
        .chain(scale_presets())
        .find(|(n, _)| *n == name)
        .map(|(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_and_are_unique() {
        let all: Vec<_> = base_presets().into_iter().chain(scale_presets()).collect();
        for (name, config) in &all {
            assert_eq!(resolve_preset(name).as_ref(), Some(config));
        }
        let mut names = preset_names();
        assert_eq!(names.len(), all.len());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate preset name");
        assert!(resolve_preset("nope").is_none());
    }

    #[test]
    fn quick_preset_builds_a_world() {
        let p = resolve_preset("quick").unwrap();
        let (net, _) = p.instance(0);
        assert!(net.node_count() > 30, "switches plus users");
        assert_eq!(p.routing_config().h, 5);
    }
}
