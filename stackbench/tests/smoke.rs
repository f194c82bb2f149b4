//! A short run of each workload, shrunk to one or two worlds, through the
//! same passes and checks as a full run.

use fusion_telemetry::Registry;
use stackbench::stats::Spans;
use stackbench::world::{self, Spec, Workload};
use stackbench::{batch, serve};

const SEED: u64 = 5;

fn smoke_serve(workload: Workload) {
    let Spec::Serve(mut spec) = workload.spec() else {
        panic!("{} is a serve workload", workload.name());
    };
    spec.instances = 1;
    spec.trace.events = 60;
    let config = world::routing_config(spec.h);
    let (instances, _) = world::build_serve(&spec, SEED);
    let refs = serve::references(&instances, &config).expect("replay and audit pass");

    let untraced = serve::pass(&instances, &config, &refs, None);
    assert!(untraced.errors.is_empty(), "{:?}", untraced.errors);
    assert_eq!(untraced.failed, 0);
    assert_eq!(untraced.events, 60);
    assert_eq!(untraced.counts.admitted, refs[0].stats.admitted);
    assert_eq!(untraced.admit_ms.len(), refs[0].stats.arrivals);
    assert_eq!(untraced.event_ms.len(), 60);

    let mut tracer = serve::Tracer::default();
    let traced = serve::pass(&instances, &config, &refs, Some(&mut tracer));
    assert!(
        traced.errors.is_empty(),
        "probe disagreed: {:?}",
        traced.errors
    );
    assert_eq!(traced.counts, untraced.counts);
    assert_eq!(tracer.spans.count("serve.admit"), refs[0].stats.arrivals);
    assert!(tracer.probe.snapshot().value("alg2.search.pops") > 0);
}

#[test]
fn serve_churn_smoke_passes_its_checks() {
    smoke_serve(Workload::ServeChurn1k);
}

#[test]
fn serve_recurring_smoke_passes_its_checks() {
    smoke_serve(Workload::ServeRecurring1k);
}

#[test]
fn batch_paper_smoke_passes_its_checks() {
    let Spec::Batch(mut spec) = Workload::BatchPaper.spec() else {
        panic!("batch_paper is a batch workload");
    };
    spec.networks = 2;
    spec.mc_rounds = 100;
    let config = world::routing_config(spec.h);
    let (instances, _) = world::build_batch(&spec, SEED);
    let refs = batch::references(&instances, &config, spec.mc_rounds).expect("plans are valid");

    let untraced = batch::pass(&instances, &config, spec.mc_rounds, &refs, None);
    assert!(untraced.errors.is_empty(), "{:?}", untraced.errors);
    assert_eq!(untraced.batch_s.len(), 2);

    let mut spans = Spans::default();
    let registry = Registry::enabled();
    let traced = batch::pass(
        &instances,
        &config,
        spec.mc_rounds,
        &refs,
        Some((&mut spans, &registry)),
    );
    assert!(
        traced.errors.is_empty(),
        "staged plan differs: {:?}",
        traced.errors
    );
    for stage in ["alg2", "alg3", "alg4", "mc"] {
        assert_eq!(spans.count(stage), 2, "{stage}");
    }
    assert_eq!(registry.snapshot().value("mc.rounds"), 2 * 20 * 100);
}
