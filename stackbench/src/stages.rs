//! The one place the benchmark calls stage-level routing functions.
//!
//! The traced run times each stage of the pipeline from outside, so it
//! needs the per-stage entry points: Algorithm 2 selection, the
//! gain-per-qubit merge, Algorithm 4, Monte Carlo estimation, and the
//! batch `route` they must reproduce. Keeping every such call in this
//! file means a change to those entry points touches the benchmark here
//! only.

use fusion_core::algorithms::{
    alg2, alg3_greedy, alg4, route, MergeOrder, MergeOutcome, PathSelection, RoutingConfig,
};
use fusion_core::{Demand, NetworkPlan, QuantumNetwork};
use fusion_sim::{estimate_plan_counted, McCounters, PlanEstimate};
use fusion_telemetry::Registry;

/// Panics unless `config` selects the stages this adapter calls: the
/// width-descent selection and the gain-per-qubit merge (the defaults).
pub fn assert_default_stages(config: &RoutingConfig) {
    assert_eq!(config.path_selection, PathSelection::WidthDescent);
    assert_eq!(config.merge_order, MergeOrder::GainPerQubit);
}

/// The width bound the pipeline resolves for `capacity`.
fn max_width(net: &QuantumNetwork, config: &RoutingConfig, capacity: &[u32]) -> u32 {
    config
        .max_width
        .unwrap_or_else(|| net.max_switch_capacity_in(capacity))
}

/// Step I: Algorithm 2 candidate construction against `capacity`.
#[must_use]
pub fn select(
    net: &QuantumNetwork,
    demands: &[Demand],
    config: &RoutingConfig,
    capacity: &[u32],
    registry: &Registry,
) -> Vec<alg2::CandidatePath> {
    alg2::paths_selection_counted(
        net,
        demands,
        capacity,
        config.h,
        max_width(net, config, capacity),
        config.mode,
        registry,
    )
}

/// Step II: the capacity-aware gain-per-qubit merge.
#[must_use]
pub fn merge(
    net: &QuantumNetwork,
    demands: &[Demand],
    config: &RoutingConfig,
    capacity: &[u32],
    candidates: &[alg2::CandidatePath],
    registry: &Registry,
) -> MergeOutcome {
    alg3_greedy::paths_merge_greedy_counted(
        net,
        demands,
        candidates,
        config.mode,
        config.merge_paths,
        config.max_paths_per_demand,
        capacity,
        &alg3_greedy::MergeCounters::from_registry(registry),
    )
}

/// Step III: Algorithm 4 spends the merge's leftover qubits, finishing
/// the plan (its `alg4_links` counts the links Algorithm 4 added).
#[must_use]
pub fn assign(net: &QuantumNetwork, config: &RoutingConfig, merged: MergeOutcome) -> NetworkPlan {
    let MergeOutcome {
        mut plans,
        mut remaining,
    } = merged;
    let alg4_links = if config.use_alg4 {
        alg4::assign_remaining(net, &mut plans, &mut remaining, config.mode)
    } else {
        0
    };
    NetworkPlan {
        mode: config.mode,
        plans,
        leftover: remaining,
        alg4_links,
    }
}

/// The batch pipeline in one call, on the network's full capacity.
#[must_use]
pub fn route_batch(
    net: &QuantumNetwork,
    demands: &[Demand],
    config: &RoutingConfig,
) -> NetworkPlan {
    route(net, demands, config)
}

/// Monte Carlo estimate of a finished plan, counting into `registry`.
#[must_use]
pub fn estimate(
    net: &QuantumNetwork,
    plan: &NetworkPlan,
    rounds: usize,
    seed: u64,
    registry: &Registry,
) -> PlanEstimate {
    estimate_plan_counted(
        net,
        plan,
        rounds,
        seed,
        &McCounters::from_registry(registry),
    )
}
