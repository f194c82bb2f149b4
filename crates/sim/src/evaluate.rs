//! Plan-level Monte Carlo rate estimation.
//!
//! Demands own disjoint qubits once routed, so their round outcomes are
//! independent: the network entanglement rate is estimated per demand and
//! summed. [`estimate_plan_parallel_counted`] shards rounds across
//! threads with independent seeded RNGs, keeping results reproducible for
//! a fixed `(seed, threads)` pair; [`estimate_plan_counted`] is its serial
//! form and [`estimate_demand_plan_counted`] estimates one demand plan.

use fusion_core::{DemandPlan, NetworkPlan, QuantumNetwork, SwapMode};
use fusion_telemetry::{Counter, Registry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::connectivity::PlanSampler;
use crate::stats::RateEstimate;

/// Counter handles for the Monte Carlo layer. Default handles are
/// no-ops; wire real ones with [`McCounters::from_registry`]. Both
/// counts are pure functions of `(plan, rounds)` — fusion draws per
/// round are fixed by the plan — so they are deterministic and
/// independent of how rounds are sharded over threads.
#[derive(Debug, Clone, Default)]
pub struct McCounters {
    /// Monte Carlo rounds simulated (per demand plan).
    pub rounds: Counter,
    /// Fusion draws performed across those rounds.
    pub fusion_attempts: Counter,
}

impl McCounters {
    /// Creates handles named `mc.rounds` and `mc.fusion_attempts` in
    /// `registry`.
    #[must_use]
    pub fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return McCounters::default();
        }
        McCounters {
            rounds: registry.counter("mc.rounds"),
            fusion_attempts: registry.counter("mc.fusion_attempts"),
        }
    }

    /// Records `rounds` rounds of `sampler`.
    fn record(&self, sampler: &PlanSampler, rounds: usize) {
        self.rounds.add(rounds as u64);
        self.fusion_attempts
            .add(rounds as u64 * sampler.fusion_draws_per_round());
    }
}

/// Monte Carlo estimate of a routed network's entanglement rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanEstimate {
    /// Per-demand success-probability estimates, in demand order.
    pub per_demand: Vec<RateEstimate>,
    /// Number of rounds simulated.
    pub rounds: usize,
}

impl PlanEstimate {
    /// The estimated network entanglement rate (sum of demand means).
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        self.per_demand.iter().map(|e| e.mean).sum()
    }

    /// Standard error of the total rate (demands are independent).
    #[must_use]
    pub fn total_stderr(&self) -> f64 {
        self.per_demand
            .iter()
            .map(|e| e.stderr * e.stderr)
            .sum::<f64>()
            .sqrt()
    }
}

/// Estimates one demand plan's success probability over `rounds` Monte
/// Carlo rounds — the service layer's per-admission check: an online
/// engine evaluates each arrival's plan individually rather than
/// re-simulating the whole plan set.
///
/// Seeding is per call: the same `(plan, seed, rounds)` triple always
/// reproduces the same estimate, independent of what else was admitted.
///
/// Counts are recorded into `counters` in bulk after the simulation
/// loop, so instrumentation adds no per-round cost (default handles
/// record nothing).
///
/// # Panics
///
/// Panics if `rounds == 0`.
#[must_use]
pub fn estimate_demand_plan_counted(
    net: &QuantumNetwork,
    plan: &DemandPlan,
    mode: SwapMode,
    rounds: usize,
    seed: u64,
    counters: &McCounters,
) -> RateEstimate {
    assert!(rounds > 0, "need at least one round");
    let mut sampler = PlanSampler::new(net, plan, mode);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0usize;
    for _ in 0..rounds {
        if sampler.sample(&mut rng) {
            hits += 1;
        }
    }
    counters.record(&sampler, rounds);
    RateEstimate::from_successes(hits, rounds)
}

/// Estimates the plan's entanglement rate over `rounds` Monte Carlo
/// rounds, serially. Counts are recorded into `counters` in bulk per
/// demand after its simulation loop (default handles record nothing).
///
/// # Panics
///
/// Panics if `rounds == 0`.
#[must_use]
pub fn estimate_plan_counted(
    net: &QuantumNetwork,
    plan: &NetworkPlan,
    rounds: usize,
    seed: u64,
    counters: &McCounters,
) -> PlanEstimate {
    assert!(rounds > 0, "need at least one round");
    let per_demand = plan
        .plans
        .iter()
        .enumerate()
        .map(|(i, dp)| {
            let mut sampler = PlanSampler::new(net, dp, plan.mode);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            let mut hits = 0usize;
            for _ in 0..rounds {
                if sampler.sample(&mut rng) {
                    hits += 1;
                }
            }
            counters.record(&sampler, rounds);
            RateEstimate::from_successes(hits, rounds)
        })
        .collect();
    PlanEstimate { per_demand, rounds }
}

/// [`estimate_plan_counted`] with rounds split over up to `threads`
/// workers with derived seeds, reproducible for a fixed
/// `(seed, threads)` pair.
///
/// The worker count is capped at `rounds`, and each worker simulates
/// `ceil(rounds / workers)` rounds per demand, so the effective round
/// count ([`PlanEstimate::rounds`]) is `rounds` rounded up to a multiple
/// of the worker count. With one worker (`threads == 1` or
/// `rounds == 1`) this *is* [`estimate_plan_counted`], bit for bit.
///
/// Counts are recorded once per demand from the main thread using the
/// effective round count, so snapshots match the serial estimate whenever
/// the worker count divides `rounds` and never depend on worker
/// scheduling.
///
/// # Panics
///
/// Panics if `rounds == 0` or `threads == 0`.
#[must_use]
pub fn estimate_plan_parallel_counted(
    net: &QuantumNetwork,
    plan: &NetworkPlan,
    rounds: usize,
    seed: u64,
    threads: usize,
    counters: &McCounters,
) -> PlanEstimate {
    assert!(rounds > 0, "need at least one round");
    assert!(threads > 0, "need at least one thread");
    let threads = threads.min(rounds);
    if threads == 1 {
        return estimate_plan_counted(net, plan, rounds, seed, counters);
    }
    let per_thread = rounds.div_ceil(threads);
    let total_rounds = per_thread * threads;
    for dp in &plan.plans {
        counters.record(&PlanSampler::new(net, dp, plan.mode), total_rounds);
    }
    let hits: Vec<Mutex<usize>> = plan.plans.iter().map(|_| Mutex::new(0usize)).collect();

    crossbeam::scope(|scope| {
        for t in 0..threads {
            let hits = &hits;
            let plan = &plan;
            let net = &net;
            scope.spawn(move |_| {
                for (i, dp) in plan.plans.iter().enumerate() {
                    let mut sampler = PlanSampler::new(net, dp, plan.mode);
                    let mut rng = StdRng::seed_from_u64(
                        seed.wrapping_add((t * plan.plans.len() + i) as u64 ^ 0x9e37_79b9),
                    );
                    let mut local = 0usize;
                    for _ in 0..per_thread {
                        if sampler.sample(&mut rng) {
                            local += 1;
                        }
                    }
                    *hits[i].lock() += local;
                }
            });
        }
    })
    .expect("simulation workers must not panic");

    let per_demand = hits
        .into_iter()
        .map(|h| RateEstimate::from_successes(h.into_inner(), total_rounds))
        .collect();
    PlanEstimate {
        per_demand,
        rounds: total_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::algorithms::alg_n_fusion;
    use fusion_core::{Demand, NetworkParams};
    use fusion_topology::TopologyConfig;

    fn routed_world() -> (QuantumNetwork, NetworkPlan) {
        let topo = TopologyConfig {
            num_switches: 25,
            num_user_pairs: 4,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(21);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        let plan = alg_n_fusion(&net, &demands);
        (net, plan)
    }

    #[test]
    fn monte_carlo_agrees_with_analytic() {
        let (net, plan) = routed_world();
        let est = estimate_plan_counted(&net, &plan, 8_000, 3, &McCounters::default());
        let analytic = plan.total_rate(&net);
        // Eq. 1 is exact on series-parallel flows and optimistic on
        // reconvergent ones, so simulation may only undershoot — and by a
        // bounded amount per demand.
        assert!(
            est.total_rate() <= analytic + 4.0 * est.total_stderr(),
            "simulation exceeded the analytic bound: {} vs {analytic}",
            est.total_rate()
        );
        let max_gap = 0.12 * plan.plans.len() as f64 + 4.0 * est.total_stderr();
        assert!(
            analytic - est.total_rate() < max_gap,
            "Eq. 1 optimism too large: simulated {} vs analytic {analytic}",
            est.total_rate()
        );
    }

    #[test]
    fn parallel_matches_serial_statistics() {
        let (net, plan) = routed_world();
        let serial = estimate_plan_counted(&net, &plan, 4_000, 9, &McCounters::default());
        let parallel =
            estimate_plan_parallel_counted(&net, &plan, 4_000, 9, 4, &McCounters::default());
        assert!(
            (serial.total_rate() - parallel.total_rate()).abs()
                < 4.0 * (serial.total_stderr() + parallel.total_stderr()) + 0.05,
            "serial {} vs parallel {}",
            serial.total_rate(),
            parallel.total_rate()
        );
        assert!(parallel.rounds >= 4_000);
    }

    /// Estimate plus the counter snapshot it recorded.
    fn counted(
        run: impl FnOnce(&McCounters) -> PlanEstimate,
    ) -> (PlanEstimate, fusion_telemetry::MetricsSnapshot) {
        let registry = Registry::enabled();
        let est = run(&McCounters::from_registry(&registry));
        (est, registry.snapshot())
    }

    #[test]
    fn parallel_is_deterministic_per_seed_and_threads() {
        let (net, plan) = routed_world();
        let a = estimate_plan_parallel_counted(&net, &plan, 2_000, 5, 3, &McCounters::default());
        let b = estimate_plan_parallel_counted(&net, &plan, 2_000, 5, 3, &McCounters::default());
        assert_eq!(a.total_rate(), b.total_rate());

        // One worker is the serial estimator, bit for bit.
        let (serial, serial_counts) = counted(|c| estimate_plan_counted(&net, &plan, 2_000, 5, c));
        let (one, one_counts) =
            counted(|c| estimate_plan_parallel_counted(&net, &plan, 2_000, 5, 1, c));
        assert_eq!(serial.rounds, one.rounds);
        for (s, o) in serial.per_demand.iter().zip(&one.per_demand) {
            assert_eq!(s.mean.to_bits(), o.mean.to_bits());
            assert_eq!(s.stderr.to_bits(), o.stderr.to_bits());
        }
        assert_eq!(serial_counts, one_counts);
    }

    #[test]
    fn parallel_workers_are_capped_at_rounds() {
        // More threads than rounds must not simulate (or report) extra
        // rounds: each of the three workers runs one round.
        let (net, plan) = routed_world();
        let (est, counts) = counted(|c| estimate_plan_parallel_counted(&net, &plan, 3, 5, 8, c));
        assert_eq!(est.rounds, 3);
        assert_eq!(counts.value("mc.rounds"), 3 * plan.plans.len() as u64);
    }

    #[test]
    fn estimates_are_probabilities() {
        let (net, plan) = routed_world();
        let est = estimate_plan_counted(&net, &plan, 500, 1, &McCounters::default());
        for d in &est.per_demand {
            assert!((0.0..=1.0).contains(&d.mean));
        }
        assert!(est.total_rate() <= plan.plans.len() as f64);
    }
}
