//! The three workloads: their generator parameters, why each was
//! chosen, and how a seed becomes their inputs.

use std::time::Instant;

use fusion_core::algorithms::RoutingConfig;
use fusion_core::{Demand, NetworkParams, QuantumNetwork};
use fusion_serve::{generate, Trace, TraceConfig};
use fusion_topology::{Topology, TopologyConfig};

/// The seed used when `--seed` is not given; the pinned fingerprints
/// hold at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Online admission on the large-1k world with fresh pairs.
    ServeChurn1k,
    /// Online admission on the large-1k world with an 8-user pool.
    ServeRecurring1k,
    /// The paper's §V-A batch: route 20 demands, then Monte Carlo.
    BatchPaper,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeChurn1k,
        Workload::ServeRecurring1k,
        Workload::BatchPaper,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeChurn1k => "serve_churn_1k",
            Workload::ServeRecurring1k => "serve_recurring_1k",
            Workload::BatchPaper => "batch_paper",
        }
    }

    /// Resolves a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark, in one sentence.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeChurn1k => {
                "fresh user pairs each arrival, so Step I spur searches dominate admission \
                 and the candidate cache runs only its miss and invalidate path"
            }
            Workload::ServeRecurring1k => {
                "8 recurring users, the candidate cache's design regime: widths are reused \
                 and most arrivals are fast no-route rejections"
            }
            Workload::BatchPaper => {
                "the paper's batch: one call routes 20 competing demands, so the merge, \
                 Algorithm 4 and Monte Carlo carry real time and set-up is paid per network"
            }
        }
    }

    /// The workload's generator parameters.
    #[must_use]
    pub fn spec(self) -> Spec {
        let large_1k = TopologyConfig {
            num_switches: 1_000,
            num_user_pairs: 50,
            ..TopologyConfig::default()
        };
        let serve = |user_pool, instances, events, tail| {
            Spec::Serve(ServeSpec {
                topology: large_1k.clone(),
                network: NetworkParams::default(),
                h: 3,
                instances,
                tail,
                trace: TraceConfig {
                    events,
                    arrival_rate: 1.0,
                    mean_holding: 25.0,
                    link_down_rate: 0.05,
                    user_pool,
                    seed: 0,
                },
            })
        };
        match self {
            Workload::ServeChurn1k => serve(0, 8, 150, 0.98),
            Workload::ServeRecurring1k => serve(8, 12, 250, 0.99),
            Workload::BatchPaper => Spec::Batch(BatchSpec {
                topology: TopologyConfig::default(),
                network: NetworkParams::default(),
                h: 5,
                networks: 64,
                mc_rounds: 1_500,
            }),
        }
    }
}

/// Generator parameters of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// A closed-loop trace replay against `fusion-serve`.
    Serve(ServeSpec),
    /// Batch routing plus Monte Carlo per network.
    Batch(BatchSpec),
}

/// Parameters of a serve workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Topology of every network instance.
    pub topology: TopologyConfig,
    /// Switch capacity and physics.
    pub network: NetworkParams,
    /// Candidate paths per (demand, width).
    pub h: usize,
    /// Network instances per run, each with its own trace.
    pub instances: usize,
    /// Quantile of admission latency reported as `latency_tail_ms`: the
    /// highest with at least ten of one pass's admissions beyond it.
    pub tail: f64,
    /// Trace shape; `seed` is replaced per instance.
    pub trace: TraceConfig,
}

/// Parameters of the batch workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// Topology of every network instance.
    pub topology: TopologyConfig,
    /// Switch capacity and physics.
    pub network: NetworkParams,
    /// Candidate paths per (demand, width).
    pub h: usize,
    /// Network instances per run.
    pub networks: usize,
    /// Monte Carlo rounds per network plan.
    pub mc_rounds: usize,
}

/// Seconds spent building a world, split by kind of work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Topology generation and network construction.
    pub topology_s: f64,
    /// Trace (serve) or demand-set (batch) generation.
    pub trace_s: f64,
}

impl SetupTimes {
    /// Total set-up seconds.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.topology_s + self.trace_s
    }
}

/// The routing configuration of a workload: the paper's n-fusion
/// pipeline with every default except `h`.
#[must_use]
pub fn routing_config(h: usize) -> RoutingConfig {
    RoutingConfig {
        h,
        ..RoutingConfig::n_fusion()
    }
}

/// The seed of instance `i` of a run seeded with `seed` (SplitMix64).
#[must_use]
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One network with its generated inputs.
#[derive(Debug, Clone)]
pub struct ServeInstance {
    /// The network being served.
    pub net: QuantumNetwork,
    /// The events replayed against it.
    pub trace: Trace,
}

/// One batch network with its demand set.
#[derive(Debug, Clone)]
pub struct BatchInstance {
    /// The network.
    pub net: QuantumNetwork,
    /// The demands routed together on it.
    pub demands: Vec<Demand>,
    /// Seed of the network's Monte Carlo estimate.
    pub mc_seed: u64,
}

fn timed_topology(
    topology: &TopologyConfig,
    params: &NetworkParams,
    seed: u64,
    times: &mut SetupTimes,
) -> (Topology, QuantumNetwork) {
    let start = Instant::now();
    let topo = topology.generate(seed);
    let net = QuantumNetwork::from_topology(&topo, params);
    times.topology_s += start.elapsed().as_secs_f64();
    (topo, net)
}

/// Builds the serve instances of a run seeded with `seed`.
#[must_use]
pub fn build_serve(spec: &ServeSpec, seed: u64) -> (Vec<ServeInstance>, SetupTimes) {
    let mut times = SetupTimes::default();
    let instances = (0..spec.instances)
        .map(|i| {
            let s = instance_seed(seed, i);
            let (_, net) = timed_topology(&spec.topology, &spec.network, s, &mut times);
            let start = Instant::now();
            let trace = generate(
                &net,
                &TraceConfig {
                    seed: s,
                    ..spec.trace
                },
            );
            times.trace_s += start.elapsed().as_secs_f64();
            ServeInstance { net, trace }
        })
        .collect();
    (instances, times)
}

/// Builds the batch instances of a run seeded with `seed`.
#[must_use]
pub fn build_batch(spec: &BatchSpec, seed: u64) -> (Vec<BatchInstance>, SetupTimes) {
    let mut times = SetupTimes::default();
    let instances = (0..spec.networks)
        .map(|i| {
            let s = instance_seed(seed, i);
            let (topo, net) = timed_topology(&spec.topology, &spec.network, s, &mut times);
            let start = Instant::now();
            let demands = Demand::from_topology(&topo);
            times.trace_s += start.elapsed().as_secs_f64();
            BatchInstance {
                net,
                demands,
                mc_seed: s,
            }
        })
        .collect();
    (instances, times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::stats::valid_metric_name(w.name()));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn instance_seeds_differ_and_repeat() {
        assert_eq!(instance_seed(3, 0), instance_seed(3, 0));
        assert_ne!(instance_seed(3, 0), instance_seed(3, 1));
        assert_ne!(instance_seed(3, 0), instance_seed(4, 0));
    }
}
