//! One benchmark run: set-up, the checked warm-up pass, then either the
//! untraced timed region (end-to-end metrics) or one untraced and one
//! traced pass (per-layer metrics).

use std::time::Instant;

use fusion_core::algorithms::RoutingConfig;
use fusion_telemetry::{MetricsSnapshot, Registry};

use crate::stats::{median, percentile, supports, upper_quartile_per_call, Spans};
use crate::world::{
    self, BatchSpec, ServeInstance, ServeSpec, SetupTimes, Spec, Workload, DEFAULT_SEED,
};
use crate::{batch, serve};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Replay fingerprints of the serve workloads at [`DEFAULT_SEED`]
/// (FNV-1a fold of each instance's `ReplayReport::fingerprint`), and the
/// plan checksum of `batch_paper` there.
const PINNED: [(Workload, u64); 3] = [
    (Workload::ServeChurn1k, 0x623f_380d_3598_7561),
    (Workload::ServeRecurring1k, 0xa3c7_3eb7_17ed_41be),
    (Workload::BatchPaper, 0x83b3_6a0d_af34_8adc),
];

/// A metric's name, value and unit.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted: trace events or batch networks, all passes.
    pub attempted: usize,
    /// Operations whose call panicked or whose check failed.
    pub failed: usize,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable report (sample counts, fingerprint).
    pub notes: Vec<String>,
    /// Descriptions of failed checks.
    pub errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, error: String) {
        self.correct = false;
        self.errors.push(error);
    }

    /// Checks the warm-up pass's fingerprint against the pin at
    /// [`DEFAULT_SEED`]; a mismatch fails the warm-up pass's `ops`.
    fn check_pin(&mut self, workload: Workload, seed: u64, value: u64, ops: usize) {
        self.notes.push(format!("fingerprint {value:016x}"));
        let pinned = PINNED.iter().find(|(w, _)| *w == workload).map(|&(_, v)| v);
        if seed == DEFAULT_SEED && pinned != Some(value) {
            self.failed += ops;
            self.fail(format!(
                "fingerprint {value:016x} differs from the pinned {:016x}",
                pinned.unwrap_or_default()
            ));
        }
    }

    fn absorb(&mut self, attempted: usize, failed: usize, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if !errors.is_empty() {
            self.correct = false;
            self.errors.extend(errors);
        }
    }

    /// The value of a reported metric.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// How a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Minimum seconds of timed passes.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

/// Runs `workload` as `options` say.
#[must_use]
pub fn run(workload: Workload, options: &Options) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    match workload.spec() {
        Spec::Serve(spec) => run_serve(workload, &spec, options, &mut out),
        Spec::Batch(spec) => run_batch(&spec, options, &mut out),
    }
    out
}

/// Builds the world `SETUP_REPEATS` times, keeping the last build.
fn set_up<T>(build: impl Fn() -> (T, SetupTimes)) -> (T, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        let (w, t) = build();
        times.push(t);
        world = Some(w);
    }
    (world.expect("at least one set-up"), times)
}

fn setup_metrics(times: &[SetupTimes], trace: bool) -> Vec<Metric> {
    let pick = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    if trace {
        vec![
            ("setup.topology_s", pick(|t| t.topology_s), "s"),
            ("setup.trace_s", pick(|t| t.trace_s), "s"),
        ]
    } else {
        vec![("setup_s", pick(SetupTimes::total), "s")]
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Each unit of work (a world's trace, a batch network) runs at least
/// this many times in the timed region.
const MIN_REPEATS: usize = 2;

/// What the timed region measured.
#[derive(Debug, Default)]
struct Timed {
    /// Work items per second.
    events_per_s: f64,
    /// Wall seconds of the workload's unit of work: one pass over every
    /// world's trace, or one network's route + Monte Carlo.
    batch_s: f64,
    /// Latency of each request (admission or network), in ms, for the
    /// median.
    latency_ms: Vec<f64>,
    /// Latency samples for the tail percentile, in ms.
    tail_ms: Vec<f64>,
}

/// Times the serve loop one world at a time: it cycles through the
/// worlds in order, each trace replayed from a fresh state, until
/// `seconds` have passed and every world has run [`MIN_REPEATS`] times,
/// stopping early at the first failed check. Each trace event's time,
/// and so each admission's latency, is the upper quartile over its
/// world's repetitions (see `README.md` for why); a pass takes the sum
/// of its events' times. Every event counts once, however many
/// repetitions fitted.
fn measure_serve(
    out: &mut Outcome,
    instances: &[ServeInstance],
    config: &RoutingConfig,
    refs: &[serve::Reference],
    seconds: f64,
) -> Timed {
    let n = instances.len();
    let mut events: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n];
    let mut admits: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n];
    let start = Instant::now();
    let mut runs = 0;
    while out.correct && (runs < MIN_REPEATS * n || start.elapsed().as_secs_f64() < seconds) {
        let w = runs % n;
        let p = serve::pass(&instances[w..=w], config, &refs[w..=w], None);
        events[w].push(p.event_ms);
        admits[w].push(p.admit_ms);
        out.absorb(p.events, p.failed, p.errors);
        runs += 1;
    }
    let pass_ms: f64 = events.iter().flat_map(|r| upper_quartile_per_call(r)).sum();
    let pass_s = pass_ms * 1e-3;
    let events: usize = instances.iter().map(|i| i.trace.events.len()).sum();
    let latency_ms: Vec<f64> = admits
        .iter()
        .flat_map(|r| upper_quartile_per_call(r))
        .collect();
    out.notes.push(format!(
        "{runs} world runs over {n} worlds ({}-{} each); one pass {pass_s:.3} s",
        admits.iter().map(Vec::len).min().unwrap_or(0),
        admits.iter().map(Vec::len).max().unwrap_or(0),
    ));
    Timed {
        events_per_s: if pass_s > 0.0 {
            events as f64 / pass_s
        } else {
            0.0
        },
        batch_s: pass_s,
        tail_ms: latency_ms.clone(),
        latency_ms,
    }
}

/// Times whole batch passes until `seconds` have passed, every network
/// has run [`MIN_REPEATS`] times and the pooled samples support the
/// `q`-quantile, stopping early at the first failed check. A network's
/// time is the upper quartile over its repetitions; the tail is taken
/// over every timed call, because one pass has too few networks for it.
fn measure_batch(
    out: &mut Outcome,
    seconds: f64,
    q: f64,
    demands: usize,
    mut pass: impl FnMut(&mut Outcome) -> Vec<f64>,
) -> Timed {
    let mut reps: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    while out.correct
        && (reps.len() < MIN_REPEATS
            || start.elapsed().as_secs_f64() < seconds
            || !supports(reps.iter().map(Vec::len).sum(), q))
    {
        reps.push(pass(out));
    }
    let per_network = upper_quartile_per_call(&reps);
    let pass_s: f64 = per_network.iter().sum();
    out.notes.push(format!(
        "{} passes; seconds per pass: {:?}",
        reps.len(),
        reps.iter()
            .map(|r| r.iter().sum::<f64>())
            .collect::<Vec<_>>()
    ));
    Timed {
        events_per_s: if pass_s > 0.0 {
            demands as f64 / pass_s
        } else {
            0.0
        },
        batch_s: median(&per_network),
        latency_ms: per_network.iter().map(|s| s * 1e3).collect(),
        tail_ms: reps.iter().flatten().map(|s| s * 1e3).collect(),
    }
}

/// Fills `out.metrics` with every end-to-end metric, in declared order.
fn end_to_end(
    out: &mut Outcome,
    timed: &Timed,
    q: f64,
    outcome: [Metric; 4],
    setup: &[SetupTimes],
) {
    out.notes.push(format!(
        "{} latency samples, {} tail samples, tail = p{}",
        timed.latency_ms.len(),
        timed.tail_ms.len(),
        q * 100.0
    ));
    let (p50, tail) = match (
        percentile(&timed.latency_ms, 0.5),
        percentile(&timed.tail_ms, q),
    ) {
        (Ok(p50), Ok(tail)) => (p50, tail),
        (Err(e), _) | (_, Err(e)) => {
            // After a failed check the passes stopped early; the missing
            // samples are a consequence, not a second failure.
            if out.correct {
                out.fail(e);
            }
            (0.0, 0.0)
        }
    };
    let mut metrics = vec![
        ("events_per_s", timed.events_per_s, "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_tail_ms", tail, "ms"),
    ];
    metrics.extend(outcome);
    metrics.push(("batch_s", timed.batch_s, "s"));
    metrics.extend(setup_metrics(setup, false));
    metrics.push(("peak_rss_mb", peak_rss_mb(), "MiB"));
    metrics.push((
        "ok_fraction",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    ));
    out.metrics = metrics;
}

fn run_serve(workload: Workload, spec: &ServeSpec, options: &Options, out: &mut Outcome) {
    let config = world::routing_config(spec.h);
    crate::stages::assert_default_stages(&config);
    let (instances, setup) = set_up(|| world::build_serve(spec, options.seed));
    let events = instances.iter().map(|i| i.trace.events.len()).sum();
    out.attempted += events;
    let refs = match serve::references(&instances, &config) {
        Ok(refs) => refs,
        Err(e) => return out.absorb(0, events, vec![e]),
    };
    out.check_pin(
        workload,
        options.seed,
        serve::combined_fingerprint(&refs),
        events,
    );

    // Deterministic outcome metrics: every pass reproduces the replay.
    let (mut arrivals, mut admitted, mut evicted, mut rate_sum) = (0, 0, 0, 0.0);
    for r in &refs {
        arrivals += r.stats.arrivals;
        admitted += r.stats.admitted;
        evicted += r.stats.evicted;
        rate_sum += r.stats.admitted_rate_sum;
    }
    let outcome_metrics = [
        (
            "admit_fraction",
            admitted as f64 / arrivals.max(1) as f64,
            "ratio",
        ),
        (
            "served_fraction",
            (admitted - evicted) as f64 / arrivals.max(1) as f64,
            "ratio",
        ),
        ("rate_sum", rate_sum, "ebit/round"),
        ("plan_rate", rate_sum / admitted.max(1) as f64, "ebit/round"),
    ];

    if options.trace {
        let untraced = serve::pass(&instances, &config, &refs, None);
        out.absorb(untraced.events, untraced.failed, untraced.errors);
        let mut tracer = serve::Tracer::default();
        let traced = serve::pass(&instances, &config, &refs, Some(&mut tracer));
        out.absorb(traced.events, traced.failed, traced.errors);
        let layers = Layers {
            spans: &tracer.spans,
            probe: tracer.probe.snapshot(),
            service: tracer.service.iter().map(Registry::snapshot).collect(),
            counts: traced.counts,
            accept_ms: &tracer.accept_ms,
            reject_ms: &tracer.reject_ms,
            alg4_links: tracer.alg4_links,
        };
        let mut m = layers.metrics();
        let probe_s = tracer.spans.total_seconds("probe");
        let served_s = traced.elapsed_s - probe_s;
        let spans_s = ["serve.admit", "serve.depart", "serve.fail_link"]
            .iter()
            .map(|n| tracer.spans.total_seconds(n))
            .sum::<f64>();
        m.extend(setup_metrics(&setup, true));
        m.push((
            "trace.overhead",
            served_s / untraced.elapsed_s - 1.0,
            "ratio",
        ));
        m.push(("trace.span_coverage", spans_s / served_s, "ratio"));
        out.metrics = m;
        return;
    }

    let timed = measure_serve(out, &instances, &config, &refs, options.seconds);
    end_to_end(out, &timed, spec.tail, outcome_metrics, &setup);
}

fn run_batch(spec: &BatchSpec, options: &Options, out: &mut Outcome) {
    let config = world::routing_config(spec.h);
    crate::stages::assert_default_stages(&config);
    let (instances, setup) = set_up(|| world::build_batch(spec, options.seed));
    out.attempted += instances.len();
    let refs = match batch::references(&instances, &config, spec.mc_rounds) {
        Ok(refs) => refs,
        Err(e) => return out.absorb(0, instances.len(), vec![e]),
    };
    out.check_pin(
        Workload::BatchPaper,
        options.seed,
        batch::checksum(&instances, &refs),
        instances.len(),
    );

    let networks = refs.len().max(1) as f64;
    let demands: usize = instances.iter().map(|i| i.demands.len()).sum();
    let served: usize = refs.iter().map(|r| r.served).sum();
    let rate_sum: f64 = refs.iter().map(|r| r.rate).sum();
    let fraction = served as f64 / demands.max(1) as f64;
    let outcome_metrics = [
        ("admit_fraction", fraction, "ratio"),
        ("served_fraction", fraction, "ratio"),
        ("rate_sum", rate_sum, "ebit/round"),
        ("plan_rate", rate_sum / networks, "ebit/round"),
    ];

    if options.trace {
        let untraced = batch::pass(&instances, &config, spec.mc_rounds, &refs, None);
        out.absorb(untraced.networks, untraced.failed, untraced.errors);
        let mut spans = Spans::default();
        let registry = Registry::enabled();
        let traced = batch::pass(
            &instances,
            &config,
            spec.mc_rounds,
            &refs,
            Some((&mut spans, &registry)),
        );
        out.absorb(traced.networks, traced.failed, traced.errors);
        let layers = Layers {
            spans: &spans,
            probe: registry.snapshot(),
            service: Vec::new(),
            counts: serve::Counts::default(),
            accept_ms: &[],
            reject_ms: &[],
            alg4_links: refs.iter().map(|r| r.plan.alg4_links as u64).sum(),
        };
        let mut m = layers.metrics();
        let stage_s = ["alg2", "alg3", "alg4", "mc"]
            .iter()
            .map(|n| spans.total_seconds(n))
            .sum::<f64>();
        m.extend(setup_metrics(&setup, true));
        m.push((
            "trace.overhead",
            traced.elapsed_s / untraced.elapsed_s - 1.0,
            "ratio",
        ));
        m.push(("trace.span_coverage", stage_s / traced.elapsed_s, "ratio"));
        out.metrics = m;
        return;
    }

    let timed = measure_batch(out, options.seconds, 0.95, demands, |out| {
        let p = batch::pass(&instances, &config, spec.mc_rounds, &refs, None);
        out.absorb(p.networks, p.failed, p.errors);
        p.batch_s
    });
    end_to_end(out, &timed, 0.95, outcome_metrics, &setup);
}

/// The per-layer metrics of a traced pass.
struct Layers<'a> {
    spans: &'a Spans,
    /// Counters of the stage calls (`alg2.*`, `alg3.*`, `mc.*`).
    probe: MetricsSnapshot,
    /// Counters of each service state (`serve.*`, `alg2.spt.*`).
    service: Vec<MetricsSnapshot>,
    /// Admission outcomes of the traced pass.
    counts: serve::Counts,
    /// Latencies of traced admissions that accepted, in ms.
    accept_ms: &'a [f64],
    /// Latencies of traced admissions that rejected, in ms.
    reject_ms: &'a [f64],
    /// Links Algorithm 4 added to the traced plans.
    alg4_links: u64,
}

impl Layers<'_> {
    fn service(&self, name: &str) -> f64 {
        self.service.iter().map(|s| s.value(name)).sum::<u64>() as f64
    }

    fn probe(&self, name: &str) -> f64 {
        self.probe.value(name) as f64
    }

    fn metrics(&self) -> Vec<Metric> {
        let (spans, counts) = (self.spans, &self.counts);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let p50 = |samples: &[f64]| {
            if samples.is_empty() {
                0.0
            } else {
                percentile(samples, 0.5).unwrap_or(f64::NAN)
            }
        };
        let alg2_s = spans.self_seconds("alg2");
        let alg3_s = spans.self_seconds("alg3");
        let alg4_s = spans.self_seconds("alg4");
        let admit_s = spans.self_seconds("serve.admit");
        let pops = self.probe("alg2.search.pops");
        let reused = self.service("serve.cache.widths_reused");
        let recomputed = self.service("serve.cache.widths_recomputed");
        let mc_rounds = self.probe("mc.rounds");
        vec![
            ("alg2.busy_s", alg2_s, "s"),
            ("alg2.search.pops", pops, "count"),
            (
                "alg2.search.relaxations",
                self.probe("alg2.search.relaxations"),
                "count",
            ),
            (
                "alg2.search.exhaustions",
                self.probe("alg2.search.exhaustions"),
                "count",
            ),
            (
                "alg2.spur_searches",
                self.probe("alg2.spur_searches"),
                "count",
            ),
            (
                "alg2.widths_searched",
                self.probe("alg2.widths_searched"),
                "count",
            ),
            ("alg2.reach_skips", self.probe("alg2.reach_skips"), "count"),
            ("alg2.ns_per_pop", ratio(alg2_s * 1e9, pops), "ns"),
            (
                "serve.admit.calls",
                spans.count("serve.admit") as f64,
                "count",
            ),
            ("serve.admit.busy_s", admit_s, "s"),
            ("serve.admit.accepted", counts.admitted as f64, "count"),
            ("serve.admit.no_route", counts.no_route as f64, "count"),
            ("serve.admit.saturated", counts.saturated as f64, "count"),
            ("serve.admit.accept_p50_ms", p50(self.accept_ms), "ms"),
            ("serve.admit.reject_p50_ms", p50(self.reject_ms), "ms"),
            (
                "serve.admit.other_s",
                if admit_s > 0.0 {
                    admit_s - alg2_s - alg3_s - alg4_s
                } else {
                    0.0
                },
                "s",
            ),
            ("serve.cache.widths_reused", reused, "count"),
            ("serve.cache.widths_recomputed", recomputed, "count"),
            (
                "serve.cache.reuse_ratio",
                ratio(reused, reused + recomputed),
                "ratio",
            ),
            (
                "serve.cache.invalidated_by_node",
                self.service("serve.cache.invalidated_by_node"),
                "count",
            ),
            (
                "serve.cache.repairs",
                self.service("serve.cache.repairs"),
                "count",
            ),
            ("alg2.spt.hits", self.service("alg2.spt.hits"), "count"),
            (
                "alg2.spt.queries",
                self.service("alg2.spt.queries"),
                "count",
            ),
            (
                "serve.depart.calls",
                spans.count("serve.depart") as f64,
                "count",
            ),
            (
                "serve.depart.busy_s",
                spans.self_seconds("serve.depart"),
                "s",
            ),
            (
                "serve.fail_link.calls",
                spans.count("serve.fail_link") as f64,
                "count",
            ),
            (
                "serve.fail_link.busy_s",
                spans.self_seconds("serve.fail_link"),
                "s",
            ),
            ("serve.fail_link.evicted", counts.evicted as f64, "count"),
            ("alg3.busy_s", alg3_s, "s"),
            ("alg3.heap_pushes", self.probe("alg3.heap_pushes"), "count"),
            ("alg3.stale_pops", self.probe("alg3.stale_pops"), "count"),
            ("alg3.accepts", self.probe("alg3.accepts"), "count"),
            (
                "alg3.accept_ratio",
                ratio(self.probe("alg3.accepts"), self.probe("alg3.heap_pushes")),
                "ratio",
            ),
            ("alg4.busy_s", alg4_s, "s"),
            ("alg4.links", self.alg4_links as f64, "count"),
            ("mc.busy_s", spans.self_seconds("mc"), "s"),
            ("mc.rounds", mc_rounds, "count"),
            (
                "mc.fusion_attempts",
                self.probe("mc.fusion_attempts"),
                "count",
            ),
            (
                "mc.ns_per_round",
                ratio(spans.self_seconds("mc") * 1e9, mc_rounds),
                "ns",
            ),
        ]
    }
}
