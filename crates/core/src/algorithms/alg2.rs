//! Algorithm 2 — Paths Selection: Yen's deviation structure driven by
//! Algorithm 1, producing up to `h` candidate paths per (demand, width)
//! for every width from `MAX_WIDTH` down to 1.
//!
//! Candidates are discovered with the n-fusion path metric (which is
//! decomposable and therefore Dijkstra-compatible) and scored with the
//! caller's [`SwapMode`]; capacity during selection is the *full* network
//! capacity — contention is resolved later by Algorithm 3.
//!
//! # Width-descent engine
//!
//! The default engine ([`paths_selection_counted`]) exploits how much the widths
//! share: stepping the width down only *grows* the capacity-feasible
//! subgraph (a node relaying width `w + 1` always relays `w`), so one
//! per-demand descent carries its state across widths instead of starting
//! over per width. Concretely, per demand it
//!
//! * keeps a [`DescentReach`] view that is repaired incrementally at each
//!   width step — only the newly-feasible region is re-searched — and
//!   whose negative answers are exact certificates that let provably-empty
//!   searches be skipped before they explore the graph;
//! * runs every remaining Yen/Dijkstra query *goal-directed*
//!   ([`max_product_resume`]): the search pauses the moment the
//!   destination settles, instead of exhausting all of a 10k-switch
//!   graph for a path that only needs its near side;
//! * reuses one [`SearchScratch`] arena and per-width channel-success
//!   tables (`1 - (1 - p_e)^w` per edge, computed once per width, not
//!   once per relaxation);
//! * loads each spur search's banned nodes and hops once into
//!   generation-stamped [`SearchBans`] (a hop goes in at the one edge
//!   joining its endpoints — the network has no parallel links), so every
//!   relaxation checks its bans with indexed loads instead of hashing.
//!
//! All four are result-preserving: the settle order, tie-breaking, and
//! `f64` arithmetic are exactly those of the per-width sweep, so the
//! output is byte-identical to [`paths_selection_reference`] — the
//! retained original implementation — which the differential harness
//! (`crates/core/tests/alg2_differential.rs`) enforces over random
//! networks, loads, seeds, and modes.

use std::collections::HashSet;

use fusion_graph::search::max_product_resume;
use fusion_graph::{
    DescentReach, Metric, NodeId, Path, SearchBans, SearchCounters, SearchScratch, WidthFeasibility,
};
use fusion_telemetry::{Counter, Registry};

use crate::algorithms::alg1::{largest_rate_path_with, PathConstraints};
use crate::demand::{Demand, DemandId};
use crate::flow::WidthedPath;
use crate::metrics::path_rate;
use crate::network::QuantumNetwork;
use crate::plan::SwapMode;

/// One candidate route emitted by Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePath {
    /// The demand this candidate serves.
    pub demand: DemandId,
    /// The loopless route.
    pub path: Path,
    /// Uniform channel width.
    pub width: u32,
    /// Mode-dependent success score used for Algorithm 3's ordering.
    pub metric: Metric,
}

/// Runs Algorithm 2 for every demand: for each width from `max_width` down
/// to 1, finds up to `h` highest-rate loopless paths via Yen deviations
/// over Algorithm 1, with search/selection counters recording into
/// `registry` (pass [`Registry::disabled`] for none).
///
/// `capacity` is the per-node qubit budget used for feasibility during
/// selection (the paper uses the full capacity here; B1 passes its running
/// remainder).
///
/// This is the width-descent engine (see the module docs); its output is
/// byte-identical to [`paths_selection_reference`]. Counters never
/// influence the output.
///
/// # Panics
///
/// Panics if `h == 0`, `max_width == 0`, or `capacity` is shorter than
/// the node count.
#[must_use]
pub fn paths_selection_counted(
    net: &QuantumNetwork,
    demands: &[Demand],
    capacity: &[u32],
    h: usize,
    max_width: u32,
    mode: SwapMode,
    registry: &Registry,
) -> Vec<CandidatePath> {
    assert!(h > 0, "need at least one candidate per width");
    assert!(max_width > 0, "max width must be positive");
    assert!(
        capacity.len() >= net.node_count(),
        "capacity vector too short"
    );
    let ctx = DescentContext::new(net, capacity, max_width);
    let mut state = DescentState::with_registry(net.node_count(), registry);
    let per_demand: Vec<Vec<Vec<CandidatePath>>> = demands
        .iter()
        .map(|d| demand_candidates(net, d, h, max_width, mode, &ctx, &mut state))
        .collect();
    assemble_width_major(per_demand, max_width)
}

/// [`paths_selection_counted`] with demands sharded round-robin over up
/// to `threads` workers, each with its own search scratch and descent
/// state (the feasibility view and channel tables are shared read-only).
/// Candidate construction evaluates every demand against the *full*
/// capacity (contention is resolved later by Algorithm 3), so demands are
/// independent and the output is bit-identical to the serial version.
/// Counter totals are independent of the sharding too: each demand's
/// counts are a pure function of that demand's search, and atomic adds
/// commute.
///
/// # Panics
///
/// As [`paths_selection_counted`], and if `threads == 0`.
#[allow(clippy::too_many_arguments)]
pub(super) fn paths_selection_threaded(
    net: &QuantumNetwork,
    demands: &[Demand],
    capacity: &[u32],
    h: usize,
    max_width: u32,
    mode: SwapMode,
    threads: usize,
    registry: &Registry,
) -> Vec<CandidatePath> {
    assert!(threads > 0, "need at least one worker");
    if threads == 1 || demands.len() <= 1 {
        return paths_selection_counted(net, demands, capacity, h, max_width, mode, registry);
    }
    assert!(h > 0, "need at least one candidate per width");
    assert!(max_width > 0, "max width must be positive");
    assert!(
        capacity.len() >= net.node_count(),
        "capacity vector too short"
    );

    let ctx = DescentContext::new(net, capacity, max_width);
    let ctx = &ctx;
    let mut slots: Vec<Option<Vec<Vec<CandidatePath>>>> = vec![None; demands.len()];
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(demands.len()))
            .map(|t| {
                scope.spawn(move |_| {
                    let mut state = DescentState::with_registry(net.node_count(), registry);
                    demands
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(threads)
                        .map(|(di, d)| {
                            let cands =
                                demand_candidates(net, d, h, max_width, mode, ctx, &mut state);
                            (di, cands)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (di, cands) in handle.join().expect("selection workers must not panic") {
                slots[di] = Some(cands);
            }
        }
    })
    .expect("selection scope must not panic");

    let per_demand = slots
        .into_iter()
        .map(|s| s.expect("every demand was assigned to a worker"))
        .collect();
    assemble_width_major(per_demand, max_width)
}

/// Read-only width-descent context shared by every demand (and every
/// worker): the width-indexed feasibility view over the caller's capacity
/// vector, and per-width channel-success tables.
#[derive(Debug, Clone, Default)]
struct DescentContext {
    feas: WidthFeasibility,
    /// `channel[w - 1][e] = net.channel_success(e, w)` — the same
    /// expression Algorithm 1 evaluates inline, computed once per
    /// (width, edge) instead of once per relaxation.
    channel: Vec<Vec<f64>>,
}

impl DescentContext {
    fn new(net: &QuantumNetwork, capacity: &[u32], max_width: u32) -> Self {
        let mut ctx = DescentContext::default();
        ctx.refresh(net, capacity, max_width);
        ctx
    }

    /// Rebuilds the feasibility view for `capacity` and extends the
    /// channel tables to cover `max_width`. Channel success depends only
    /// on the immutable network, so rows already built are kept — a
    /// persistent [`SelectionEngine`] pays the table cost once, not once
    /// per admission.
    fn refresh(&mut self, net: &QuantumNetwork, capacity: &[u32], max_width: u32) {
        if self.feas.len() != net.node_count() {
            self.feas = WidthFeasibility::new(net.node_count());
        }
        for v in net.graph().node_ids() {
            // Paper line 9: an intermediate switch pins 2w qubits, so it
            // relays width cap / 2; users never relay. Endpoints need w.
            let cap = capacity[v.index()];
            let relay = if net.is_switch(v) { cap / 2 } else { 0 };
            self.feas.set_node(v, relay, cap);
        }
        for w in (self.channel.len() as u32 + 1)..=max_width {
            self.channel.push(
                net.graph()
                    .edge_ids()
                    .map(|e| net.channel_success(e, w))
                    .collect(),
            );
        }
    }
}

/// Counter handles for the width-descent engine's decision points.
/// Default handles are no-ops; wire real ones with
/// [`SelectionCounters::from_registry`]. Every count is a deterministic
/// function of the selection inputs, independent of worker sharding.
#[derive(Debug, Clone, Default)]
pub struct SelectionCounters {
    /// Searches skipped outright by the reachability certificate.
    pub reach_skips: Counter,
    /// Yen spur searches launched from deviation points.
    pub spur_searches: Counter,
    /// Width slices searched.
    pub widths_searched: Counter,
}

impl SelectionCounters {
    /// Creates handles named `alg2.reach_skips`, `alg2.spur_searches`,
    /// and `alg2.widths_searched` in `registry`.
    #[must_use]
    pub fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return SelectionCounters::default();
        }
        SelectionCounters {
            reach_skips: registry.counter("alg2.reach_skips"),
            spur_searches: registry.counter("alg2.spur_searches"),
            widths_searched: registry.counter("alg2.widths_searched"),
        }
    }
}

/// Per-worker mutable width-descent state, reused across demands.
#[derive(Debug, Clone, Default)]
struct DescentState {
    scratch: SearchScratch,
    /// The current search's [`PathConstraints`], as stamped sets.
    bans: SearchBans,
    reach: DescentReach,
    counters: SelectionCounters,
}

impl DescentState {
    /// A state whose search and selection counters record into
    /// `registry`. Counter handles are shared atomics, so states cloned
    /// or rebuilt from the same registry accumulate into the same cells
    /// regardless of worker sharding.
    fn with_registry(nodes: usize, registry: &Registry) -> Self {
        let mut scratch = SearchScratch::with_capacity(nodes);
        scratch.counters = SearchCounters::from_registry(registry, "alg2.search");
        DescentState {
            scratch,
            bans: SearchBans::new(),
            reach: DescentReach::new(),
            counters: SelectionCounters::from_registry(registry),
        }
    }
}

/// One demand's candidates, grouped per width in descending-width order
/// (`out[i]` holds width `max_width - i`): the width-descent engine.
fn demand_candidates(
    net: &QuantumNetwork,
    demand: &Demand,
    h: usize,
    max_width: u32,
    mode: SwapMode,
    ctx: &DescentContext,
    state: &mut DescentState,
) -> Vec<Vec<CandidatePath>> {
    state
        .reach
        .begin(net.graph(), &ctx.feas, demand.dest, max_width);
    (1..=max_width)
        .rev()
        .map(|width| {
            if width < max_width {
                state.reach.descend(net.graph(), &ctx.feas, width);
            }
            width_candidates(net, demand, h, width, mode, ctx, state)
        })
        .collect()
}

/// One width's candidates under the descent state: Yen over Algorithm 1,
/// filtered and scored with the caller's mode.
fn width_candidates(
    net: &QuantumNetwork,
    demand: &Demand,
    h: usize,
    width: u32,
    mode: SwapMode,
    ctx: &DescentContext,
    state: &mut DescentState,
) -> Vec<CandidatePath> {
    state.counters.widths_searched.inc();
    k_best_paths_descent(net, demand, h, width, ctx, state)
        .into_iter()
        .filter_map(|path| {
            let wp = WidthedPath::uniform(path, width);
            let metric = mode.score(net, &wp);
            if metric > Metric::ZERO {
                Some(CandidatePath {
                    demand: demand.id,
                    path: wp.path,
                    width,
                    metric,
                })
            } else {
                None
            }
        })
        .collect()
}

/// Flattens per-demand, per-width candidate groups into the pipeline's
/// canonical order: width-major (descending), demand order within a width.
fn assemble_width_major(
    per_demand: Vec<Vec<Vec<CandidatePath>>>,
    max_width: u32,
) -> Vec<CandidatePath> {
    let mut per_demand = per_demand;
    let mut out = Vec::new();
    for wi in 0..max_width as usize {
        for groups in &mut per_demand {
            out.append(&mut groups[wi]);
        }
    }
    out
}

/// Width-`width` largest-rate search from `source` to the demand's
/// destination under the descent state: preconditions and feasibility
/// rules are exactly those of [`largest_rate_path_with`] (the width view
/// encodes them — `endpoint_feasible` is `capacity >= w`,
/// `relay_feasible` is "switch with `capacity >= 2w`"), but the search
/// is goal-directed (pauses when the destination settles), reads channel
/// successes from the per-width table, checks `constraints` through the
/// state's stamped [`SearchBans`], and is skipped outright when the
/// reachability view certifies it cannot succeed.
fn descent_search(
    net: &QuantumNetwork,
    source: NodeId,
    dest: NodeId,
    width: u32,
    constraints: &PathConstraints,
    ctx: &DescentContext,
    state: &mut DescentState,
) -> Option<(Path, Metric)> {
    debug_assert_eq!(state.reach.width(), width, "descent out of step");
    if source == dest {
        return None;
    }
    // Paper line 2: endpoints must hold at least `w` qubits.
    if !ctx.feas.endpoint_feasible(source, width) || !ctx.feas.endpoint_feasible(dest, width) {
        return None;
    }
    if constraints.banned_nodes.contains(&source) || constraints.banned_nodes.contains(&dest) {
        return None;
    }
    // Monotone-feasibility certificate: banned nodes and hops only shrink
    // the graph, so an unreachable destination here is unreachable in the
    // constrained search too — skip it without exploring anything.
    if !state.reach.can_reach(source) {
        state.counters.reach_skips.inc();
        return None;
    }

    let graph = net.graph();
    let bans = &mut state.bans;
    bans.clear(graph.node_count(), graph.edge_count());
    for &node in &constraints.banned_nodes {
        bans.ban_node(node);
    }
    for &(u, v) in &constraints.banned_hops {
        // Banned hops come from found paths, so the edge exists; it is
        // unique because `QuantumNetwork` rejects parallel links.
        let edge = graph.find_edge(u, v).expect("banned hop is a network link");
        bans.ban_edge(edge);
    }

    let q = net.swap_success();
    let feas = &ctx.feas;
    let channel = &ctx.channel[(width - 1) as usize];
    let bans = &state.bans;
    max_product_resume(
        &mut state.scratch,
        graph,
        source,
        |from, e| {
            let to = e.other(from);
            if bans.node_banned(to) || bans.edge_banned(e.id) {
                return None;
            }
            // Entering `to` as an intermediate pins 2w qubits there; only
            // the destination gets away with w (paper line 9). Users other
            // than the destination cannot relay at all.
            if to != dest && !feas.relay_feasible(to, width) {
                return None;
            }
            Some(channel[e.id.index()])
        },
        |via| {
            // Transit through a node costs one fusion; users never relay.
            net.is_switch(via).then_some(q)
        },
    )
    .run_to(dest)
}

/// Yen's algorithm over Algorithm 1 for one demand at one width, driven
/// by the width-descent search. The deviation structure is identical to
/// [`k_best_paths`]; only how each underlying query is answered differs.
fn k_best_paths_descent(
    net: &QuantumNetwork,
    demand: &Demand,
    h: usize,
    width: u32,
    ctx: &DescentContext,
    state: &mut DescentState,
) -> Vec<Path> {
    let base = PathConstraints::default();
    let Some((first, metric)) =
        descent_search(net, demand.source, demand.dest, width, &base, ctx, state)
    else {
        return Vec::new();
    };

    // Pending deviation: discovery metric, path, and the banned hops
    // inherited along its deviation branch — the paper's E'.
    type Pending = (Metric, Path, Vec<(NodeId, NodeId)>);
    let mut accepted: Vec<(Path, Metric)> = Vec::new();
    let mut queue: Vec<Pending> = vec![(metric, first, Vec::new())];
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
    let mut cons = PathConstraints::default();

    while accepted.len() < h {
        // Pop the best pending candidate (deterministic tie-break on the
        // node sequence).
        let Some(best_idx) = queue
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.0.cmp(&b.0).then_with(|| b.1.nodes().cmp(a.1.nodes())))
            .map(|(i, _)| i)
        else {
            break;
        };
        let (_, path, banned) = queue.swap_remove(best_idx);
        if !seen.insert(path.nodes().to_vec()) {
            continue;
        }
        accepted.push((path.clone(), Metric::ZERO));
        if accepted.len() >= h {
            break;
        }

        // Deviations at every hop of the newly accepted path.
        for i in 0..path.hops() {
            let spur_node = path.nodes()[i];
            let root = path.prefix(i);

            // The paper's tuples carry E' and extend it with the deviated
            // edge e; the accepted-path bans below are recomputed per
            // deviation (classic Yen) and not inherited. One constraint
            // list is rebuilt in place per spur: E' + e first, so that
            // prefix is this deviation's inherited E'.
            cons.banned_hops.clear();
            cons.banned_hops.extend_from_slice(&banned);
            cons.ban_hop(path.nodes()[i], path.nodes()[i + 1]);
            let inherited = cons.banned_hops.len();
            // Classic Yen: also ban the next hop of every accepted path
            // sharing this root, so deviations cannot regenerate them.
            for (acc, _) in &accepted {
                if acc.len() > i + 1 && acc.nodes()[..=i] == *root.nodes() {
                    cons.ban_hop(acc.nodes()[i], acc.nodes()[i + 1]);
                }
            }
            cons.banned_nodes.clear();
            cons.banned_nodes.extend_from_slice(&root.nodes()[..i]);

            state.counters.spur_searches.inc();
            let Some((spur, _)) =
                descent_search(net, spur_node, demand.dest, width, &cons, ctx, state)
            else {
                continue;
            };
            let combined = root.join(&spur);
            if seen.contains(combined.nodes()) {
                continue;
            }
            if queue.iter().any(|(_, p, _)| p == &combined) {
                continue;
            }
            // Score the whole deviation with the discovery metric.
            let m = path_rate(net, &combined, width);
            if m == Metric::ZERO {
                continue;
            }
            queue.push((m, combined, cons.banned_hops[..inherited].to_vec()));
        }

        // Paper line 14: bound the frontier to h outstanding paths.
        while queue.len() + accepted.len() > h {
            let Some(worst_idx) = queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.cmp(&b.0).then_with(|| b.1.nodes().cmp(a.1.nodes())))
                .map(|(i, _)| i)
            else {
                break;
            };
            queue.swap_remove(worst_idx);
        }
    }
    accepted.into_iter().map(|(p, _)| p).collect()
}

/// The per-call knobs of [`SelectionEngine::select_demand`]: the
/// candidate budget, the width bound the descent starts from, and the
/// swap mode scoring candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionQuery {
    /// Candidate paths per (demand, width) — Algorithm 2's `h`.
    pub h: usize,
    /// Largest channel width the descent starts from.
    pub max_width: u32,
    /// Swap mode scoring the candidates.
    pub mode: SwapMode,
}

/// A persistent width-descent engine for callers that route demands one
/// at a time against changing capacity vectors — the serve layer's
/// admission path.
///
/// The engine keeps what does not depend on the capacity vector across
/// calls: the per-width channel-success tables (a function of the
/// immutable network only), the search scratch arena, and the
/// reachability buffers. Each call rebuilds only the feasibility view
/// for the capacity it is given, then runs exactly the batch engine's
/// width descent, so the output equals the single-demand
/// [`paths_selection_counted`] result byte for byte.
#[derive(Debug, Clone, Default)]
pub struct SelectionEngine {
    ctx: DescentContext,
    state: DescentState,
}

impl SelectionEngine {
    /// Creates an empty engine. An engine must only ever be used with
    /// one network instance (channel-success tables are memoized), but
    /// capacity vectors may change freely between calls.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes this engine's search and selection counters into
    /// `registry` (under `alg2.*`). Call once after construction; a
    /// disabled registry restores free no-op handles.
    pub fn set_registry(&mut self, registry: &Registry) {
        self.state.scratch.counters = SearchCounters::from_registry(registry, "alg2.search");
        self.state.counters = SelectionCounters::from_registry(registry);
    }

    /// Runs the width descent for one demand against `capacity` and
    /// returns its candidates in the pipeline's canonical order
    /// (descending width).
    ///
    /// # Panics
    ///
    /// Panics if `query.h == 0`, `query.max_width == 0`, or `capacity`
    /// is shorter than the node count.
    pub fn select_demand(
        &mut self,
        net: &QuantumNetwork,
        demand: &Demand,
        capacity: &[u32],
        query: SelectionQuery,
    ) -> Vec<CandidatePath> {
        let SelectionQuery { h, max_width, mode } = query;
        assert!(h > 0, "need at least one candidate per width");
        assert!(max_width > 0, "max width must be positive");
        assert!(
            capacity.len() >= net.node_count(),
            "capacity vector too short"
        );
        let SelectionEngine { ctx, state } = self;
        ctx.refresh(net, capacity, max_width);
        demand_candidates(net, demand, h, max_width, mode, ctx, state)
            .into_iter()
            .flatten()
            .collect()
    }
}

/// The original per-width sweep, retained verbatim as the differential
/// oracle for the width-descent engine: every width runs an independent
/// exhaustive Yen/Dijkstra search. Same contract and output as
/// [`paths_selection_counted`], at the cost the width descent exists to avoid.
///
/// # Panics
///
/// Panics if `h == 0` or `max_width == 0`.
#[must_use]
pub fn paths_selection_reference(
    net: &QuantumNetwork,
    demands: &[Demand],
    capacity: &[u32],
    h: usize,
    max_width: u32,
    mode: SwapMode,
) -> Vec<CandidatePath> {
    assert!(h > 0, "need at least one candidate per width");
    assert!(max_width > 0, "max width must be positive");
    let mut scratch = SearchScratch::with_capacity(net.node_count());
    let per_demand: Vec<Vec<Vec<CandidatePath>>> = demands
        .iter()
        .map(|d| demand_candidates_reference(net, d, capacity, h, max_width, mode, &mut scratch))
        .collect();
    assemble_width_major(per_demand, max_width)
}

/// One demand's candidates under the reference per-width sweep.
fn demand_candidates_reference(
    net: &QuantumNetwork,
    demand: &Demand,
    capacity: &[u32],
    h: usize,
    max_width: u32,
    mode: SwapMode,
    scratch: &mut SearchScratch,
) -> Vec<Vec<CandidatePath>> {
    (1..=max_width)
        .rev()
        .map(|width| {
            k_best_paths(net, demand, capacity, h, width, scratch)
                .into_iter()
                .filter_map(|path| {
                    let wp = WidthedPath::uniform(path.clone(), width);
                    let metric = mode.score(net, &wp);
                    (metric > Metric::ZERO).then_some(CandidatePath {
                        demand: demand.id,
                        path,
                        width,
                        metric,
                    })
                })
                .collect()
        })
        .collect()
}

/// Yen's algorithm over Algorithm 1 for one demand at one width — the
/// reference formulation with exhaustive per-query searches.
fn k_best_paths(
    net: &QuantumNetwork,
    demand: &Demand,
    capacity: &[u32],
    h: usize,
    width: u32,
    scratch: &mut SearchScratch,
) -> Vec<Path> {
    let base = PathConstraints::default();
    let Some((first, metric)) = largest_rate_path_with(
        scratch,
        net,
        demand.source,
        demand.dest,
        width,
        capacity,
        &base,
    ) else {
        return Vec::new();
    };

    // Pending deviation: discovery metric, path, and the banned hops
    // inherited along its deviation branch — the paper's E'.
    type Pending = (Metric, Path, Vec<(NodeId, NodeId)>);
    let mut accepted: Vec<(Path, Metric)> = Vec::new();
    let mut queue: Vec<Pending> = vec![(metric, first, Vec::new())];
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();

    while accepted.len() < h {
        // Pop the best pending candidate (deterministic tie-break on the
        // node sequence).
        let Some(best_idx) = queue
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.0.cmp(&b.0).then_with(|| b.1.nodes().cmp(a.1.nodes())))
            .map(|(i, _)| i)
        else {
            break;
        };
        let (_, path, banned) = queue.swap_remove(best_idx);
        if !seen.insert(path.nodes().to_vec()) {
            continue;
        }
        accepted.push((path.clone(), Metric::ZERO));
        if accepted.len() >= h {
            break;
        }

        // Deviations at every hop of the newly accepted path.
        for i in 0..path.hops() {
            let spur_node = path.nodes()[i];
            let root = path.prefix(i);

            // The paper's tuples carry E' and extend it with the deviated
            // edge e; the accepted-path bans below are recomputed per
            // deviation (classic Yen) and not inherited.
            let mut inherited = banned.clone();
            inherited.push(PathConstraints::hop_key(
                path.nodes()[i],
                path.nodes()[i + 1],
            ));

            let mut cons = PathConstraints {
                banned_hops: inherited.clone(),
                ..Default::default()
            };
            // Classic Yen: also ban the next hop of every accepted path
            // sharing this root, so deviations cannot regenerate them.
            for (acc, _) in &accepted {
                if acc.len() > i + 1 && acc.nodes()[..=i] == *root.nodes() {
                    cons.ban_hop(acc.nodes()[i], acc.nodes()[i + 1]);
                }
            }
            for &n in &root.nodes()[..i] {
                cons.ban_node(n);
            }

            let Some((spur, _)) = largest_rate_path_with(
                scratch,
                net,
                spur_node,
                demand.dest,
                width,
                capacity,
                &cons,
            ) else {
                continue;
            };
            let combined = root.join(&spur);
            if seen.contains(combined.nodes()) {
                continue;
            }
            if queue.iter().any(|(_, p, _)| p == &combined) {
                continue;
            }
            // Score the whole deviation with the discovery metric.
            let m = path_rate(net, &combined, width);
            if m == Metric::ZERO {
                continue;
            }
            queue.push((m, combined, inherited));
        }

        // Paper line 14: bound the frontier to h outstanding paths.
        while queue.len() + accepted.len() > h {
            let Some(worst_idx) = queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.cmp(&b.0).then_with(|| b.1.nodes().cmp(a.1.nodes())))
                .map(|(i, _)| i)
            else {
                break;
            };
            queue.swap_remove(worst_idx);
        }
    }
    accepted.into_iter().map(|(p, _)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandId;

    /// Batch selection, uncounted.
    fn select(
        net: &QuantumNetwork,
        demands: &[Demand],
        caps: &[u32],
        h: usize,
        max_width: u32,
        mode: SwapMode,
    ) -> Vec<CandidatePath> {
        paths_selection_counted(
            net,
            demands,
            caps,
            h,
            max_width,
            mode,
            &Registry::disabled(),
        )
    }

    /// Three disjoint routes of increasing length between one user pair.
    fn triple_route() -> (QuantumNetwork, Demand, Vec<NodeId>) {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let d = b.user(10.0, 0.0);
        let a = b.switch(1.0, 1.0, 10);
        let x1 = b.switch(1.0, 0.0, 10);
        let x2 = b.switch(2.0, 0.0, 10);
        let y1 = b.switch(1.0, -1.0, 10);
        let y2 = b.switch(2.0, -1.0, 10);
        let y3 = b.switch(3.0, -1.0, 10);
        for (u, v, len) in [
            // Route A: 2 hops through `a`.
            (s, a, 1_000.0),
            (a, d, 1_000.0),
            // Route B: 3 hops.
            (s, x1, 1_000.0),
            (x1, x2, 1_000.0),
            (x2, d, 1_000.0),
            // Route C: 4 hops.
            (s, y1, 1_000.0),
            (y1, y2, 1_000.0),
            (y2, y3, 1_000.0),
            (y3, d, 1_000.0),
        ] {
            b.link_with_length(u, v, len).unwrap();
        }
        let mut net = b.build();
        net.set_swap_success(0.9);
        let demand = Demand::new(DemandId::new(0), s, d);
        (net, demand, vec![s, d, a, x1, x2, y1, y2, y3])
    }

    #[test]
    fn finds_k_paths_in_rate_order() {
        let (net, demand, n) = triple_route();
        let caps = net.capacities();
        let paths = k_best_paths(&net, &demand, &caps, 3, 1, &mut SearchScratch::new());
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].nodes(), &[n[0], n[2], n[1]], "2-hop route first");
        assert_eq!(paths[1].hops(), 3);
        assert_eq!(paths[2].hops(), 4);
        // Rates must be non-increasing.
        let rates: Vec<f64> = paths
            .iter()
            .map(|p| path_rate(&net, p, 1).value())
            .collect();
        assert!(rates.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn h_bounds_output() {
        let (net, demand, _) = triple_route();
        let caps = net.capacities();
        let mut scratch = SearchScratch::new();
        assert_eq!(
            k_best_paths(&net, &demand, &caps, 1, 1, &mut scratch).len(),
            1
        );
        assert_eq!(
            k_best_paths(&net, &demand, &caps, 2, 1, &mut scratch).len(),
            2
        );
        // Only 3 loopless routes exist.
        assert_eq!(
            k_best_paths(&net, &demand, &caps, 10, 1, &mut scratch).len(),
            3
        );
    }

    #[test]
    fn paths_are_distinct_and_loopless() {
        let (net, demand, _) = triple_route();
        let caps = net.capacities();
        let paths = k_best_paths(&net, &demand, &caps, 10, 2, &mut SearchScratch::new());
        let mut seen = HashSet::new();
        for p in &paths {
            assert!(seen.insert(p.nodes().to_vec()), "duplicate path {p}");
        }
    }

    #[test]
    fn selection_covers_all_widths_and_demands() {
        let (net, demand, _) = triple_route();
        let caps = net.capacities();
        let candidates = select(&net, &[demand], &caps, 2, 3, SwapMode::NFusion);
        // Every returned width is in 1..=3 and has at most h = 2 entries.
        for w in 1..=3u32 {
            let count = candidates.iter().filter(|c| c.width == w).count();
            assert!(count <= 2, "width {w} produced {count} candidates");
            assert!(count >= 1, "width {w} missing");
        }
        // Widths above capacity/2 yield nothing.
        let too_wide = select(&net, &[demand], &caps, 2, 10, SwapMode::NFusion);
        assert!(too_wide.iter().all(|c| c.width <= 5));
    }

    #[test]
    fn candidate_metrics_match_mode() {
        let (net, demand, _) = triple_route();
        let caps = net.capacities();
        let nf = select(&net, &[demand], &caps, 1, 1, SwapMode::NFusion);
        let cl = select(&net, &[demand], &caps, 1, 1, SwapMode::Classic);
        assert_eq!(nf[0].path, cl[0].path);
        let wp = WidthedPath::uniform(nf[0].path.clone(), 1);
        assert_eq!(nf[0].metric, SwapMode::NFusion.score(&net, &wp));
        assert_eq!(cl[0].metric, SwapMode::Classic.score(&net, &wp));
    }

    #[test]
    fn descent_matches_reference_on_random_networks() {
        use crate::network::NetworkParams;
        use fusion_topology::TopologyConfig;

        for seed in [3, 17, 40] {
            let topo = TopologyConfig {
                num_switches: 24,
                num_user_pairs: 5,
                avg_degree: 5.0,
                ..TopologyConfig::default()
            }
            .generate(seed);
            let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
            let demands = Demand::from_topology(&topo);
            let caps = net.capacities();
            for mode in [SwapMode::NFusion, SwapMode::Classic] {
                let descent = select(&net, &demands, &caps, 3, 5, mode);
                let reference = paths_selection_reference(&net, &demands, &caps, 3, 5, mode);
                assert_eq!(descent, reference, "seed {seed}, mode {mode:?}");
            }
        }
    }

    #[test]
    fn descent_matches_reference_under_reduced_capacity() {
        // B1 passes a running capacity remainder; the descent must honour
        // the caller's vector, not the network's.
        let (net, demand, n) = triple_route();
        let mut caps = net.capacities();
        caps[n[2].index()] = 1; // route A's switch can no longer relay
        caps[n[3].index()] = 3; // route B limited to width 1
        let demands = [demand];
        for h in [1, 2, 4] {
            let descent = select(&net, &demands, &caps, h, 4, SwapMode::NFusion);
            let reference =
                paths_selection_reference(&net, &demands, &caps, h, 4, SwapMode::NFusion);
            assert_eq!(descent, reference, "h = {h}");
        }
    }

    #[test]
    fn parallel_selection_matches_serial_exactly() {
        use crate::network::NetworkParams;
        use fusion_topology::TopologyConfig;

        let topo = TopologyConfig {
            num_switches: 30,
            num_user_pairs: 7,
            avg_degree: 6.0,
            ..TopologyConfig::default()
        }
        .generate(17);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        let caps = net.capacities();
        let serial = select(&net, &demands, &caps, 3, 4, SwapMode::NFusion);
        for threads in [2, 3, 8, 32] {
            let parallel = paths_selection_threaded(
                &net,
                &demands,
                &caps,
                3,
                4,
                SwapMode::NFusion,
                threads,
                &Registry::disabled(),
            );
            assert_eq!(serial.len(), parallel.len(), "threads={threads}");
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.demand, p.demand, "threads={threads}");
                assert_eq!(s.path, p.path, "threads={threads}");
                assert_eq!(s.width, p.width, "threads={threads}");
                assert_eq!(s.metric, p.metric, "threads={threads}");
            }
        }
    }

    #[test]
    fn engine_without_reuse_matches_batch_selection() {
        use crate::network::NetworkParams;
        use fusion_topology::TopologyConfig;

        let topo = TopologyConfig {
            num_switches: 24,
            num_user_pairs: 5,
            avg_degree: 5.0,
            ..TopologyConfig::default()
        }
        .generate(11);
        let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
        let demands = Demand::from_topology(&topo);
        let caps = net.capacities();
        let mut engine = SelectionEngine::new();
        for demand in &demands {
            let flat = engine.select_demand(
                &net,
                demand,
                &caps,
                SelectionQuery {
                    h: 3,
                    max_width: 5,
                    mode: SwapMode::NFusion,
                },
            );
            let batch = select(
                &net,
                std::slice::from_ref(demand),
                &caps,
                3,
                5,
                SwapMode::NFusion,
            );
            assert_eq!(flat, batch, "engine must equal batch for {:?}", demand.id);
        }
    }

    #[test]
    fn engine_matches_batch_across_capacity_deltas() {
        use crate::network::NetworkParams;
        use fusion_topology::TopologyConfig;

        for seed in [7, 21] {
            let topo = TopologyConfig {
                num_switches: 24,
                num_user_pairs: 5,
                avg_degree: 5.0,
                ..TopologyConfig::default()
            }
            .generate(seed);
            let net = QuantumNetwork::from_topology(&topo, &NetworkParams::default());
            let demands = Demand::from_topology(&topo);
            let mut caps = net.capacities();
            let q = SelectionQuery {
                h: 3,
                max_width: 4,
                mode: SwapMode::NFusion,
            };
            let mut engine = SelectionEngine::new();
            // Interleave capacity deltas with full-demand sweeps: the
            // engine's memoized tables must never leak one capacity
            // vector's answers into the next call.
            for step in 0..6 {
                if step > 0 {
                    let v = (step * 5 + 2) % net.node_count();
                    caps[v] = if step % 2 == 0 {
                        caps[v].saturating_sub(3)
                    } else {
                        caps[v] + 2
                    };
                }
                for demand in &demands {
                    let flat = engine.select_demand(&net, demand, &caps, q);
                    let batch = select(
                        &net,
                        std::slice::from_ref(demand),
                        &caps,
                        3,
                        4,
                        SwapMode::NFusion,
                    );
                    assert_eq!(flat, batch, "seed {seed}, step {step}, {:?}", demand.id);
                }
            }
        }
    }

    #[test]
    fn descent_search_honours_bans_exactly() {
        // s - a - b - d is the best route; s - c - d and the ladder
        // a - x - y - b are fallbacks.
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let d = b.user(3.0, 0.0);
        let a = b.switch(1.0, 0.0, 10);
        let bb = b.switch(2.0, 0.0, 10);
        let c = b.switch(1.5, -1.0, 10);
        let x = b.switch(1.0, 1.0, 10);
        let y = b.switch(2.0, 1.0, 10);
        for (u, v, len) in [
            (s, a, 1_000.0),
            (a, bb, 1_000.0),
            (bb, d, 1_000.0),
            (s, c, 3_000.0),
            (c, d, 3_000.0),
            (a, x, 1_500.0),
            (x, y, 1_500.0),
            (y, bb, 1_500.0),
        ] {
            b.link_with_length(u, v, len).unwrap();
        }
        let net = b.build();
        let caps = net.capacities();
        let ctx = DescentContext::new(&net, &caps, 1);
        let mut state = DescentState::with_registry(net.node_count(), &Registry::disabled());
        let mut reference = SearchScratch::new();
        // Runs the engine's search on the shared state and checks it
        // against Algorithm 1, which reads the constraint lists directly.
        let mut search = |from: NodeId, to: NodeId, cons: &PathConstraints| {
            state.reach.begin(net.graph(), &ctx.feas, to, 1);
            let got = descent_search(&net, from, to, 1, cons, &ctx, &mut state);
            let want = largest_rate_path_with(&mut reference, &net, from, to, 1, &caps, cons);
            assert_eq!(got, want, "{from} -> {to} under {cons:?}");
            got.expect("a route survives every ban here").0
        };
        let uses = |path: &Path, u: NodeId, v: NodeId| {
            path.hops_iter()
                .any(|(p, q)| PathConstraints::hop_key(p, q) == PathConstraints::hop_key(u, v))
        };
        assert_eq!(
            search(s, d, &PathConstraints::default()).nodes(),
            &[s, a, bb, d]
        );

        // A banned hop blocks its edge in both directions of travel.
        let mut cut = PathConstraints::default();
        cut.ban_hop(bb, a);
        assert!(!uses(&search(s, d, &cut), a, bb));
        assert!(!uses(&search(d, s, &cut), a, bb));

        // a and b each touch a banned hop, but the a - b edge itself is
        // not banned and stays usable.
        let mut flanks = PathConstraints::default();
        flanks.ban_hop(a, x);
        flanks.ban_hop(y, bb);
        assert_eq!(search(s, d, &flanks).nodes(), &[s, a, bb, d]);

        // Consecutive searches on one state: the node and hop bans of the
        // first must not leak into the second.
        let mut first = PathConstraints::default();
        first.ban_node(a);
        first.ban_hop(a, bb);
        assert_eq!(search(s, d, &first).nodes(), &[s, c, d]);
        let mut second = PathConstraints::default();
        second.ban_hop(s, c);
        assert_eq!(search(s, d, &second).nodes(), &[s, a, bb, d]);
    }

    #[test]
    fn no_candidates_for_disconnected_demand() {
        let mut b = QuantumNetwork::builder();
        let s = b.user(0.0, 0.0);
        let d = b.user(1.0, 0.0);
        let _sw = b.switch(0.5, 0.0, 10);
        let net = b.build();
        let demand = Demand::new(DemandId::new(0), s, d);
        let caps = net.capacities();
        assert!(select(&net, &[demand], &caps, 3, 2, SwapMode::NFusion).is_empty());
    }
}
