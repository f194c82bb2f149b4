//! The workload record: each workload's generator parameters, why it was
//! chosen, and its measured property shares at one seed. Committed as
//! `workloads.json`, it is the stated base for claims that a change helps
//! one regime and not another.

use crate::run::{run, Options, Outcome};
use crate::world::{Spec, Workload};

fn params(spec: &Spec) -> String {
    let (topology, network, h) = match spec {
        Spec::Serve(s) => (&s.topology, &s.network, s.h),
        Spec::Batch(b) => (&b.topology, &b.network, b.h),
    };
    let mut fields = vec![
        format!("\"num_switches\": {}", topology.num_switches),
        format!("\"num_user_pairs\": {}", topology.num_user_pairs),
        format!("\"avg_degree\": {}", topology.avg_degree),
        format!("\"side\": {}", topology.side),
        format!("\"user_attach\": {}", topology.user_attach),
        format!("\"max_edge_factor\": {}", topology.max_edge_factor),
        format!("\"generator\": \"{:?}\"", topology.kind),
        format!("\"switch_capacity\": {}", network.switch_capacity),
        format!("\"h\": {h}"),
    ];
    match spec {
        Spec::Serve(s) => fields.extend([
            format!("\"instances\": {}", s.instances),
            format!("\"events_per_instance\": {}", s.trace.events),
            format!("\"arrival_rate\": {}", s.trace.arrival_rate),
            format!("\"mean_holding\": {}", s.trace.mean_holding),
            format!("\"link_down_rate\": {}", s.trace.link_down_rate),
            format!("\"user_pool\": {}", s.trace.user_pool),
        ]),
        Spec::Batch(b) => fields.extend([
            format!("\"networks\": {}", b.networks),
            format!("\"mc_rounds\": {}", b.mc_rounds),
        ]),
    }
    format!("{{{}}}", fields.join(", "))
}

/// Shares of the traced run's time by layer. Serve workloads split the
/// closed loop (probe excluded) into admit/depart/fail_link, and the
/// from-scratch pipeline into its three stages; the batch splits
/// route + Monte Carlo into its four stages.
fn stage_split(layers: &Outcome, serve: bool) -> String {
    let m = |name: &str| layers.metric(name).unwrap_or(0.0);
    let share = |parts: &[(&str, f64)]| {
        let total: f64 = parts.iter().map(|p| p.1).sum();
        let fields: Vec<String> = parts
            .iter()
            .map(|(name, v)| {
                format!(
                    "\"{name}\": {:.4}",
                    if total > 0.0 { v / total } else { 0.0 }
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let stages = [
        ("alg2", m("alg2.busy_s")),
        ("alg3", m("alg3.busy_s")),
        ("alg4", m("alg4.busy_s")),
    ];
    if serve {
        let calls = [
            ("serve.admit", m("serve.admit.busy_s")),
            ("serve.depart", m("serve.depart.busy_s")),
            ("serve.fail_link", m("serve.fail_link.busy_s")),
        ];
        format!(
            "{{\"calls\": {}, \"from_scratch_pipeline\": {}}}",
            share(&calls),
            share(&stages)
        )
    } else {
        let mut with_mc = stages.to_vec();
        with_mc.push(("mc", m("mc.busy_s")));
        format!("{{\"route_and_mc\": {}}}", share(&with_mc))
    }
}

/// Measures every workload at `seed` (one untraced run of minimal length
/// and one traced run) and renders the record as JSON.
///
/// # Errors
///
/// The first workload whose run failed a check.
pub fn record(seed: u64) -> Result<String, String> {
    let mut entries = Vec::new();
    for workload in Workload::ALL {
        let spec = workload.spec();
        let serve = matches!(spec, Spec::Serve(_));
        let end_to_end = run(
            workload,
            &Options {
                seed,
                seconds: 0.0,
                trace: false,
            },
        );
        let layers = run(
            workload,
            &Options {
                seed,
                seconds: 0.0,
                trace: true,
            },
        );
        for outcome in [&end_to_end, &layers] {
            if !outcome.correct {
                return Err(format!(
                    "{}: {}",
                    workload.name(),
                    outcome.errors.join("; ")
                ));
            }
        }
        let admit = end_to_end.metric("admit_fraction").unwrap_or(0.0);
        entries.push(format!(
            "  {{\"name\": \"{}\", \"why\": \"{}\", \"seed\": {seed},\n   \"params\": {},\n   \
             \"shares\": {{\"admit_fraction\": {admit:.4}, \"reject_share\": {:.4}, \
             \"width_reuse_share\": {:.4},\n     \"stage_split\": {}}}}}",
            workload.name(),
            workload.why(),
            params(&spec),
            1.0 - admit,
            layers.metric("serve.cache.reuse_ratio").unwrap_or(0.0),
            stage_split(&layers, serve),
        ));
    }
    Ok(format!("[\n{}\n]", entries.join(",\n")))
}
