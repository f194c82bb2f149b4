//! The batch workload: per network, route every demand in one call, then
//! estimate the plan's rate by Monte Carlo — how the paper's §V figures
//! are made.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fusion_core::algorithms::RoutingConfig;
use fusion_core::NetworkPlan;
use fusion_sim::PlanEstimate;
use fusion_telemetry::Registry;

use crate::stages;
use crate::stats::Spans;
use crate::world::BatchInstance;

/// The routed plan and estimate of one network, from the warm-up pass.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `route`'s plan.
    pub plan: NetworkPlan,
    /// Monte Carlo means per demand.
    pub mc_means: Vec<f64>,
    /// Analytic total rate of the plan.
    pub rate: f64,
    /// Demands the plan serves.
    pub served: usize,
}

/// Checks a finished plan against its network: every demand has a plan
/// and no node spends more qubits than it has.
fn check_plan(instance: &BatchInstance, plan: &NetworkPlan) -> Result<(), String> {
    let net = &instance.net;
    if plan.plans.len() != instance.demands.len() {
        return Err("plan count differs from demand count".to_string());
    }
    let mut used = vec![0u64; net.node_count()];
    for dp in &plan.plans {
        for (node, qubits) in dp.resource_usage().node_qubits {
            used[node.index()] += u64::from(qubits);
        }
    }
    for (node, &q) in net.graph().node_ids().zip(&used) {
        if q > u64::from(net.capacity(node)) {
            return Err(format!(
                "node {node} spends {q} qubits of {}",
                net.capacity(node)
            ));
        }
    }
    Ok(())
}

fn means(estimate: &PlanEstimate) -> Vec<f64> {
    estimate.per_demand.iter().map(|e| e.mean).collect()
}

/// Routes and estimates every network once (the warm-up pass), checking
/// each plan.
///
/// # Errors
///
/// The first network whose routing panicked or whose plan is invalid.
pub fn references(
    instances: &[BatchInstance],
    config: &RoutingConfig,
    mc_rounds: usize,
) -> Result<Vec<Reference>, String> {
    instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            catch_unwind(AssertUnwindSafe(|| {
                let plan = stages::route_batch(&inst.net, &inst.demands, config);
                check_plan(inst, &plan).map_err(|e| format!("network {i}: {e}"))?;
                let estimate = stages::estimate(
                    &inst.net,
                    &plan,
                    mc_rounds,
                    inst.mc_seed,
                    &Registry::disabled(),
                );
                Ok(Reference {
                    rate: plan.total_rate(&inst.net),
                    served: plan.served_demands(),
                    mc_means: means(&estimate),
                    plan,
                })
            }))
            .unwrap_or_else(|_| Err(format!("network {i}: route panicked")))
        })
        .collect()
}

/// FNV-1a checksum of the plans and estimates: per demand its endpoints,
/// exact resource usage and analytic rate bits, per network its
/// Algorithm 4 link count and Monte Carlo means.
#[must_use]
pub fn checksum(instances: &[BatchInstance], refs: &[Reference]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (inst, r) in instances.iter().zip(refs) {
        for dp in &r.plan.plans {
            feed(dp.demand.source.index() as u64);
            feed(dp.demand.dest.index() as u64);
            feed(dp.rate(&inst.net, r.plan.mode).to_bits());
            let usage = dp.resource_usage();
            for (node, q) in usage.node_qubits {
                feed(node.index() as u64);
                feed(u64::from(q));
            }
            for ((u, v), c) in usage.edge_channels {
                feed(u.index() as u64);
                feed(v.index() as u64);
                feed(u64::from(c));
            }
        }
        feed(r.plan.alg4_links as u64);
        r.mc_means.iter().for_each(|m| feed(m.to_bits()));
    }
    h
}

/// Results of one pass over every network.
#[derive(Debug, Default)]
pub struct Pass {
    /// Networks routed and estimated.
    pub networks: usize,
    /// Networks whose call panicked or whose result differed.
    pub failed: usize,
    /// Wall seconds of the pass.
    pub elapsed_s: f64,
    /// Wall seconds of route + Monte Carlo, per network.
    pub batch_s: Vec<f64>,
    /// Descriptions of failed checks.
    pub errors: Vec<String>,
}

/// One pass over every network. Untraced, each network is one `route`
/// call plus `estimate`; traced, the three stage calls replace `route`,
/// each in a span under the network's span, and Monte Carlo counts into
/// the tracer's registry. Either way the result must equal `refs`.
#[must_use]
pub fn pass(
    instances: &[BatchInstance],
    config: &RoutingConfig,
    mc_rounds: usize,
    refs: &[Reference],
    mut tracer: Option<(&mut Spans, &Registry)>,
) -> Pass {
    let mut out = Pass::default();
    let pass_start = Instant::now();
    for (i, (inst, reference)) in instances.iter().zip(refs).enumerate() {
        out.networks += 1;
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| match tracer.as_mut() {
            Some((spans, registry)) => {
                let (net, demands, request) = (&inst.net, &inst.demands, i as u64);
                let root = spans.open("batch", request, None);
                let capacity = net.capacities();
                let candidates = spans.time("alg2", request, Some(root), || {
                    stages::select(net, demands, config, &capacity, registry)
                });
                let merged = spans.time("alg3", request, Some(root), || {
                    stages::merge(net, demands, config, &capacity, &candidates, registry)
                });
                let plan = spans.time("alg4", request, Some(root), || {
                    stages::assign(net, config, merged)
                });
                let estimate = spans.time("mc", request, Some(root), || {
                    stages::estimate(net, &plan, mc_rounds, inst.mc_seed, registry)
                });
                spans.close(root);
                (plan, estimate)
            }
            None => {
                let plan = stages::route_batch(&inst.net, &inst.demands, config);
                let estimate = stages::estimate(
                    &inst.net,
                    &plan,
                    mc_rounds,
                    inst.mc_seed,
                    &Registry::disabled(),
                );
                (plan, estimate)
            }
        }));
        out.batch_s.push(start.elapsed().as_secs_f64());
        let error = match result {
            Err(_) => Some("routing panicked"),
            Ok((plan, _)) if plan != reference.plan => Some("plan differs from route's"),
            Ok((_, estimate)) if means(&estimate) != reference.mc_means => Some("estimate differs"),
            Ok(_) => None,
        };
        if let Some(e) = error {
            out.failed += 1;
            out.errors.push(format!("network {i}: {e}"));
        }
    }
    out.elapsed_s = pass_start.elapsed().as_secs_f64();
    out
}
