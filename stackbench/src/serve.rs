//! The serve workloads: a closed loop with one caller. Trace event
//! `i + 1` is dispatched only after event `i` returns, so every arrival
//! routes against the residual capacity the events before it left.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fusion_core::algorithms::RoutingConfig;
use fusion_core::NetworkPlan;
use fusion_graph::NodeId;
use fusion_serve::{
    replay, AdmitOutcome, PlanId, RejectReason, ReplayOptions, ReplayStats, ServiceState,
    StateDigest, TraceEventKind,
};
use fusion_telemetry::Registry;

use crate::stages;
use crate::stats::Spans;
use crate::world::ServeInstance;

/// What `fusion_serve::replay` produced for one instance: the contract
/// every closed-loop pass must reproduce.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Final state of the replay.
    pub digest: StateDigest,
    /// Aggregate counts of the replay.
    pub stats: ReplayStats,
    /// Fingerprint of the replay's byte-stable log.
    pub fingerprint: u64,
}

/// Replays every instance's trace on a fresh state with
/// `fusion_serve::replay` and audits the result. This is also the run's
/// warm-up pass.
///
/// # Errors
///
/// The first instance whose replay panicked or failed its audit.
pub fn references(
    instances: &[ServeInstance],
    config: &RoutingConfig,
) -> Result<Vec<Reference>, String> {
    instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut state = ServiceState::new(inst.net.clone(), *config);
                let report = replay(&mut state, &inst.trace, &ReplayOptions::default());
                state
                    .audit()
                    .map_err(|e| format!("instance {i}: replay audit failed: {e}"))?;
                Ok(Reference {
                    digest: state.digest(),
                    stats: report.stats,
                    fingerprint: report.fingerprint(),
                })
            }))
            .unwrap_or_else(|_| Err(format!("instance {i}: replay panicked")))
        })
        .collect()
}

/// FNV-1a fold of the instances' replay fingerprints.
#[must_use]
pub fn combined_fingerprint(refs: &[Reference]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in refs {
        for b in r.fingerprint.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Results of one pass over every instance.
#[derive(Debug, Default)]
pub struct Pass {
    /// Events dispatched.
    pub events: usize,
    /// Events whose call panicked or whose check failed.
    pub failed: usize,
    /// Wall seconds inside the event loops.
    pub elapsed_s: f64,
    /// Latency of every `admit` call, in milliseconds.
    pub admit_ms: Vec<f64>,
    /// Wall time of every trace event, in trace order, in milliseconds.
    pub event_ms: Vec<f64>,
    /// Arrivals, admissions, rejections and evictions seen.
    pub counts: Counts,
    /// Descriptions of failed checks.
    pub errors: Vec<String>,
}

/// Outcome tallies of a pass.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Arrival events.
    pub arrivals: usize,
    /// Arrivals admitted.
    pub admitted: usize,
    /// Arrivals rejected for lack of a route.
    pub no_route: usize,
    /// Arrivals rejected because no switch had a free qubit.
    pub saturated: usize,
    /// Plans evicted by link failures.
    pub evicted: usize,
    /// Sum of the analytic rates of admitted plans.
    pub rate_sum: f64,
}

/// The traced run's instruments: the span log, the registry the stage
/// probe counts into, and one enabled registry per service state.
#[derive(Debug)]
pub struct Tracer {
    /// Spans of every call into a layer.
    pub spans: Spans,
    /// Counters of the from-scratch stage probe (`alg2.*`, `alg3.*`).
    pub probe: Registry,
    /// Counters the service states recorded (`serve.cache.*`, ...).
    pub service: Vec<Registry>,
    /// Links Algorithm 4 added across the probe's plans.
    pub alg4_links: u64,
    /// Latency of each traced `admit` that accepted, in milliseconds.
    pub accept_ms: Vec<f64>,
    /// Latency of each traced `admit` that rejected, in milliseconds.
    pub reject_ms: Vec<f64>,
    next_request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            spans: Spans::default(),
            probe: Registry::enabled(),
            service: Vec::new(),
            alg4_links: 0,
            accept_ms: Vec::new(),
            reject_ms: Vec::new(),
            next_request: 0,
        }
    }
}

impl Tracer {
    /// Runs the from-scratch pipeline on the inputs the next `admit`
    /// sees, one span per stage. `None` when no switch has a free qubit,
    /// so the pipeline cannot run.
    fn probe(
        &mut self,
        state: &ServiceState,
        source: NodeId,
        dest: NodeId,
        request: u64,
    ) -> Option<NetworkPlan> {
        let (net, config) = (state.network(), state.config());
        let root = self.spans.open("probe", request, None);
        let capacity = state.residual().to_vec();
        if net.max_switch_capacity_in(&capacity) == 0 {
            self.spans.close(root);
            return None;
        }
        let demands = [state.next_demand(source, dest)];
        let probe = &self.probe;
        let candidates = self.spans.time("alg2", request, Some(root), || {
            stages::select(net, &demands, config, &capacity, probe)
        });
        let merged = self.spans.time("alg3", request, Some(root), || {
            stages::merge(net, &demands, config, &capacity, &candidates, probe)
        });
        let plan = self.spans.time("alg4", request, Some(root), || {
            stages::assign(net, config, merged)
        });
        self.spans.close(root);
        self.alg4_links += plan.alg4_links as u64;
        Some(plan)
    }
}

/// Whether the probe's plan is the one `admit` decided on.
fn probe_agrees(state: &ServiceState, outcome: AdmitOutcome, probe: Option<&NetworkPlan>) -> bool {
    let config = state.config();
    match (outcome, probe) {
        (AdmitOutcome::Rejected(RejectReason::Saturated), None) => true,
        (AdmitOutcome::Rejected(RejectReason::NoRoute), Some(plan)) => plan.plans[0].is_unserved(),
        (AdmitOutcome::Accepted { id, rate }, Some(plan)) => {
            let live = state.get(id).expect("admitted plan is live");
            live.plan == plan.plans[0]
                && rate.to_bits() == plan.plans[0].rate(state.network(), config.mode).to_bits()
        }
        _ => false,
    }
}

/// One pass over every instance from a fresh state each, checked against
/// `refs`. With a tracer, every arrival is preceded by the stage probe
/// and every call into `fusion-serve` is wrapped in a span.
#[must_use]
pub fn pass(
    instances: &[ServeInstance],
    config: &RoutingConfig,
    refs: &[Reference],
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut out = Pass::default();
    for (i, (inst, reference)) in instances.iter().zip(refs).enumerate() {
        let mut state = match tracer.as_deref_mut() {
            Some(t) => {
                let registry = Registry::enabled();
                t.service.push(registry.clone());
                ServiceState::with_telemetry(inst.net.clone(), *config, registry)
            }
            None => ServiceState::new(inst.net.clone(), *config),
        };
        let mut counts = Counts::default();
        let start = Instant::now();
        let driven = drive(
            &mut state,
            inst,
            tracer.as_deref_mut(),
            &mut counts,
            &mut out,
        );
        out.elapsed_s += start.elapsed().as_secs_f64();
        out.events += inst.trace.events.len();
        let error = if let Err(e) = driven {
            Some(e)
        } else if state.digest() != reference.digest {
            Some("final state differs from fusion_serve::replay".to_string())
        } else if counts.admitted != reference.stats.admitted
            || counts.rate_sum.to_bits() != reference.stats.admitted_rate_sum.to_bits()
            || counts.evicted != reference.stats.evicted
        {
            Some("admission outcomes differ from fusion_serve::replay".to_string())
        } else {
            state.audit().err()
        };
        if let Some(e) = error {
            out.errors.push(format!("instance {i}: {e}"));
            out.failed += inst.trace.events.len();
        }
        let c = &mut out.counts;
        c.arrivals += counts.arrivals;
        c.admitted += counts.admitted;
        c.no_route += counts.no_route;
        c.saturated += counts.saturated;
        c.evicted += counts.evicted;
        c.rate_sum += counts.rate_sum;
    }
    out
}

/// The event loop of one instance. Stops at the first call that
/// panicked or disagreed with the stage probe.
fn drive(
    state: &mut ServiceState,
    inst: &ServeInstance,
    mut tracer: Option<&mut Tracer>,
    counts: &mut Counts,
    out: &mut Pass,
) -> Result<(), String> {
    // Arrival index -> live plan, and back (removed on departure/eviction).
    let mut by_arrival: BTreeMap<usize, PlanId> = BTreeMap::new();
    let mut arrival_of: BTreeMap<PlanId, usize> = BTreeMap::new();
    for (i, event) in inst.trace.events.iter().enumerate() {
        let started = Instant::now();
        let request = tracer.as_deref_mut().map_or(0, |t| {
            t.next_request += 1;
            t.next_request
        });
        match event.kind {
            TraceEventKind::Arrival {
                arrival,
                source,
                dest,
            } => {
                counts.arrivals += 1;
                let called = catch_unwind(AssertUnwindSafe(|| match tracer.as_deref_mut() {
                    Some(t) => {
                        let probe = t.probe(state, source, dest, request);
                        let outcome = t
                            .spans
                            .time("serve.admit", request, None, || state.admit(source, dest));
                        let span = t.spans.log().last().expect("admit span just closed");
                        let ms = span.duration_ns() as f64 * 1e-6;
                        match outcome {
                            AdmitOutcome::Accepted { .. } => t.accept_ms.push(ms),
                            AdmitOutcome::Rejected(_) => t.reject_ms.push(ms),
                        }
                        (outcome, probe_agrees(state, outcome, probe.as_ref()))
                    }
                    None => {
                        let start = Instant::now();
                        let outcome = state.admit(source, dest);
                        out.admit_ms.push(start.elapsed().as_secs_f64() * 1e3);
                        (outcome, true)
                    }
                }));
                match called {
                    Ok((_, true)) => {}
                    Ok((_, false)) => {
                        return Err(format!("event {i}: admit differs from the stage probe"))
                    }
                    Err(_) => return Err(format!("event {i}: admit panicked")),
                }
                let outcome = called.expect("checked above").0;
                match outcome {
                    AdmitOutcome::Accepted { id, rate } => {
                        counts.admitted += 1;
                        counts.rate_sum += rate;
                        by_arrival.insert(arrival, id);
                        arrival_of.insert(id, arrival);
                    }
                    AdmitOutcome::Rejected(RejectReason::NoRoute) => counts.no_route += 1,
                    AdmitOutcome::Rejected(RejectReason::Saturated) => counts.saturated += 1,
                }
            }
            TraceEventKind::Departure { arrival } => {
                let Some(id) = by_arrival.remove(&arrival) else {
                    // The arrival was rejected or evicted: nothing to call.
                    out.event_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    continue;
                };
                arrival_of.remove(&id);
                let departed = catch_unwind(AssertUnwindSafe(|| match tracer.as_deref_mut() {
                    Some(t) => t
                        .spans
                        .time("serve.depart", request, None, || state.depart(id)),
                    None => state.depart(id),
                }));
                if !matches!(departed, Ok(Some(_))) {
                    return Err(format!("event {i}: depart of a live plan failed"));
                }
            }
            TraceEventKind::LinkDown { edge } => {
                let victims = catch_unwind(AssertUnwindSafe(|| match tracer.as_deref_mut() {
                    Some(t) => t
                        .spans
                        .time("serve.fail_link", request, None, || state.fail_link(edge)),
                    None => state.fail_link(edge),
                }));
                let Ok(victims) = victims else {
                    return Err(format!("event {i}: fail_link panicked"));
                };
                counts.evicted += victims.len();
                for id in victims {
                    let Some(arrival) = arrival_of.remove(&id) else {
                        return Err(format!("event {i}: fail_link evicted an unknown plan"));
                    };
                    by_arrival.remove(&arrival);
                }
            }
        }
        out.event_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}
