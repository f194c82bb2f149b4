//! Tier-1 smoke coverage of the replay harness: determinism of the event
//! log on a preset world, and the link-failure path end to end (plans
//! crossing a cut fiber are evicted and their capacity returned).

use fusion_serve::{generate, replay, ReplayOptions, ServiceState, TraceConfig, TraceEventKind};
use fusion_sim::experiment::resolve_preset;

fn quick_state() -> ServiceState {
    let preset = resolve_preset("quick").expect("quick preset exists");
    ServiceState::new(preset.instance(0).0, preset.routing_config())
}

/// Same preset, same trace seed => byte-identical logs and identical
/// final state. This is the cheap CI stand-in for the 100k-event
/// determinism run documented in EXPERIMENTS.md.
#[test]
fn smoke_replay_is_byte_deterministic() {
    let config = TraceConfig {
        events: 300,
        link_down_rate: 0.03,
        ..TraceConfig::default()
    };
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut state = quick_state();
        let trace = generate(state.network(), &config);
        let report = replay(
            &mut state,
            &trace,
            &ReplayOptions {
                audit_every: 50,
                ..ReplayOptions::default()
            },
        );
        state.audit().expect("books balance after replay");
        runs.push((report, state.digest()));
    }
    assert_eq!(
        runs[0].0.log, runs[1].0.log,
        "logs must match byte for byte"
    );
    assert_eq!(runs[0].0.fingerprint(), runs[1].0.fingerprint());
    assert_eq!(runs[0].0.stats, runs[1].0.stats);
    assert_eq!(runs[0].1, runs[1].1, "final states must match");
    assert!(runs[0].0.stats.admitted > 0, "{:?}", runs[0].0.stats);
}

/// A trace with mid-trace link-down events: every plan crossing a failed
/// link is evicted with its capacity returned — after all live sessions
/// also depart, the ledger is back to pristine.
#[test]
fn link_failures_evict_and_return_capacity() {
    let mut state = quick_state();
    let trace = generate(
        state.network(),
        &TraceConfig {
            events: 400,
            mean_holding: 60.0, // long sessions: cuts hit live plans
            link_down_rate: 0.15,
            ..TraceConfig::default()
        },
    );
    let report = replay(
        &mut state,
        &trace,
        &ReplayOptions {
            audit_every: 1, // balance the books after every single event
            ..ReplayOptions::default()
        },
    );
    let stats = &report.stats;
    assert!(stats.link_downs > 0, "trace must contain link-downs");
    assert!(
        stats.evicted > 0,
        "long-held sessions under heavy cutting must lose plans: {stats:?}"
    );
    // Every eviction is logged against the link-down that caused it.
    let evicted_in_log: usize = report
        .log
        .iter()
        .filter(|l| l.contains("linkdown"))
        .map(|l| {
            let inside = l.split('[').nth(1).unwrap().trim_end_matches(']');
            if inside.is_empty() {
                0
            } else {
                inside.split(',').count()
            }
        })
        .sum();
    assert_eq!(evicted_in_log, stats.evicted);
    // No evicted plan is still charged: evictions returned capacity, and
    // after the remaining live plans depart, nothing is left behind.
    state.audit().expect("books balance after replay");
    let live: Vec<_> = state.live_plans().map(|lp| lp.id).collect();
    assert_eq!(live.len(), stats.final_live);
    for id in live {
        state.depart(id).expect("live plan departs");
    }
    assert!(
        state.ledger().is_pristine(),
        "all capacity must return once every session ends"
    );
}

/// The trace generator puts real link-down events on real edges of the
/// preset world (promoted `fusion_sim::failure::sample_link_outage`).
#[test]
fn link_down_events_reference_real_edges() {
    let state = quick_state();
    let trace = generate(
        state.network(),
        &TraceConfig {
            events: 200,
            link_down_rate: 0.2,
            ..TraceConfig::default()
        },
    );
    let edge_count = state.network().graph().edge_count();
    let downs: Vec<_> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::LinkDown { edge } => Some(edge),
            _ => None,
        })
        .collect();
    assert!(!downs.is_empty());
    for edge in downs {
        assert!(edge.index() < edge_count, "outage on a phantom edge");
    }
}
