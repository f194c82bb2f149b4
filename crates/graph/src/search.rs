//! Graph search primitives: max-product Dijkstra, BFS, and connected
//! components.
//!
//! Max-product Dijkstra is the skeleton of the paper's Algorithm 1: the
//! entanglement rate of a path is a product of per-channel success
//! probabilities and per-switch swap probabilities, all in `(0, 1]`, so the
//! greedy frontier argument of Dijkstra applies with `max`/`*` in place of
//! `min`/`+`.

use std::collections::BinaryHeap;

use fusion_telemetry::{Counter, Registry};

use crate::graph::{EdgeId, EdgeRef, NodeId, UnGraph};
use crate::metric::Metric;
use crate::path::Path;
use crate::stamps::StampedSet;

const NO_PREV: usize = usize::MAX;

/// Counter handles for the Dijkstra hot paths. Default handles are
/// no-ops; wire real ones with [`SearchCounters::from_registry`] and
/// assign to [`SearchScratch::counters`]. Counts are a pure function of
/// the searches performed, so they live in the deterministic plane.
#[derive(Debug, Clone, Default)]
pub struct SearchCounters {
    /// Heap pops that settled a node (stale entries excluded).
    pub pops: Counter,
    /// Distance-label writes: initial labels plus relaxations.
    pub relaxations: Counter,
    /// `run_to` calls that exhausted the frontier without settling the
    /// target — the searches that prove unreachability.
    pub exhaustions: Counter,
}

impl SearchCounters {
    /// Creates handles named `<prefix>.pops`, `<prefix>.relaxations`,
    /// and `<prefix>.exhaustions` in `registry`.
    #[must_use]
    pub fn from_registry(registry: &Registry, prefix: &str) -> Self {
        if !registry.is_enabled() {
            return SearchCounters::default();
        }
        SearchCounters {
            pops: registry.counter(&format!("{prefix}.pops")),
            relaxations: registry.counter(&format!("{prefix}.relaxations")),
            exhaustions: registry.counter(&format!("{prefix}.exhaustions")),
        }
    }
}

/// Reusable scratch arenas for [`max_product_resume`].
///
/// A fresh Dijkstra run needs a distance array, a predecessor array, and a
/// frontier heap — three allocations that dominate the cost of short
/// queries on large graphs (Algorithm 2's Yen deviations issue hundreds of
/// them per demand). A `SearchScratch` owns those buffers and resets them
/// *generationally*: each run bumps a generation counter and entries are
/// considered unset until stamped with the current generation, so reset is
/// O(1) instead of O(nodes).
///
/// One scratch serves graphs of any size (buffers grow monotonically) but
/// must not be shared across threads; give each worker its own.
///
/// # Examples
///
/// ```
/// use fusion_graph::{search::SearchScratch, search, UnGraph};
///
/// let mut g: UnGraph<(), f64> = UnGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// g.add_edge(a, b, 0.5);
///
/// let mut scratch = SearchScratch::new();
/// for _ in 0..3 {
///     let factor = |_, e: fusion_graph::EdgeRef<'_, f64>| Some(*e.weight);
///     let run = search::max_product_resume(&mut scratch, &g, a, factor, |_| None).finish();
///     assert_eq!(run.metric(b).value(), 0.5);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    dist: Vec<f64>,
    prev: Vec<usize>,
    stamps: crate::stamps::GenerationStamps,
    settled: StampedSet,
    max_heap: BinaryHeap<(Metric, NodeId)>,
    /// Telemetry handles; disabled (free) by default.
    pub counters: SearchCounters,
}

impl SearchScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for graphs of up to `nodes` nodes.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        let mut scratch = SearchScratch {
            dist: vec![0.0; nodes],
            prev: vec![NO_PREV; nodes],
            stamps: crate::stamps::GenerationStamps::with_capacity(nodes),
            settled: StampedSet::default(),
            max_heap: BinaryHeap::new(),
            counters: SearchCounters::default(),
        };
        scratch.settled.clear(nodes);
        scratch
    }

    /// Starts a new run over a graph with `n` nodes: grows buffers if
    /// needed and invalidates every entry of the previous run in O(1).
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.dist.resize(n, 0.0);
            self.prev.resize(n, NO_PREV);
        }
        self.stamps.advance(n);
        self.settled.clear(n);
        self.max_heap.clear();
    }

    /// `true` if `i` has been written during the current run.
    #[inline]
    fn is_set(&self, i: usize) -> bool {
        self.stamps.is_current(i)
    }

    /// `true` if `i` was popped with its final distance during the current
    /// run — its `(dist, prev)` entry can no longer change.
    #[inline]
    fn is_settled(&self, i: usize) -> bool {
        self.settled.contains(i)
    }

    /// Writes `(dist, prev)` for node `i` in the current generation.
    #[inline]
    fn set(&mut self, i: usize, dist: f64, prev: usize) {
        self.counters.relaxations.inc();
        self.dist[i] = dist;
        self.prev[i] = prev;
        self.stamps.mark(i);
    }
}

/// Node and edge ban sets for constrained searches, with an O(1) reset.
///
/// Algorithm 2's Yen deviations ban a few root-prefix nodes and hops per
/// spur search, and every relaxation asks whether its edge or far node is
/// banned. Loading the bans into these generation-stamped sets once per
/// search makes each of those checks one indexed load, and
/// [`clear`](SearchBans::clear) forgets the previous search's bans without
/// touching them. Like [`SearchScratch`], one value serves graphs of any
/// size and must not be shared across threads.
///
/// # Examples
///
/// ```
/// use fusion_graph::{EdgeId, NodeId, SearchBans};
///
/// let mut bans = SearchBans::new();
/// bans.clear(4, 3);
/// bans.ban_node(NodeId::new(2));
/// bans.ban_edge(EdgeId::new(0));
/// assert!(bans.node_banned(NodeId::new(2)) && bans.edge_banned(EdgeId::new(0)));
///
/// bans.clear(4, 3);
/// assert!(!bans.node_banned(NodeId::new(2)) && !bans.edge_banned(EdgeId::new(0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SearchBans {
    nodes: StampedSet,
    edges: StampedSet,
}

impl SearchBans {
    /// Creates an empty ban set; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifts every ban and covers graphs of up to `nodes` nodes and
    /// `edges` edges, in O(1) (amortized over buffer growth).
    pub fn clear(&mut self, nodes: usize, edges: usize) {
        self.nodes.clear(nodes);
        self.edges.clear(edges);
    }

    /// Bans `node` until the next [`clear`](SearchBans::clear).
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the range covered by the last clear.
    pub fn ban_node(&mut self, node: NodeId) {
        self.nodes.insert(node.index());
    }

    /// Bans `edge` until the next [`clear`](SearchBans::clear).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is outside the range covered by the last clear.
    pub fn ban_edge(&mut self, edge: EdgeId) {
        self.edges.insert(edge.index());
    }

    /// `true` if `node` was banned since the last clear.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the range covered by the last clear.
    #[inline]
    #[must_use]
    pub fn node_banned(&self, node: NodeId) -> bool {
        self.nodes.contains(node.index())
    }

    /// `true` if `edge` was banned since the last clear.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is outside the range covered by the last clear.
    #[inline]
    #[must_use]
    pub fn edge_banned(&self, edge: EdgeId) -> bool {
        self.edges.contains(edge.index())
    }
}

/// Borrowed result of a max-product Dijkstra run taken to exhaustion
/// ([`MaxProductResume::finish`]).
#[derive(Debug)]
pub struct MaxProductRun<'a> {
    source: NodeId,
    scratch: &'a SearchScratch,
}

impl MaxProductRun<'_> {
    /// Best (largest) product metric from the source to `node`; `0.0`
    /// means unreachable.
    #[must_use]
    pub fn metric(&self, node: NodeId) -> Metric {
        if self.scratch.is_set(node.index()) {
            Metric::new(self.scratch.dist[node.index()])
        } else {
            Metric::ZERO
        }
    }

    /// Reconstructs the best path to `node` together with its metric;
    /// `None` if unreachable.
    #[must_use]
    pub fn path_to(&self, node: NodeId) -> Option<(Path, Metric)> {
        let m = self.metric(node);
        if m <= Metric::ZERO && node != self.source {
            return None;
        }
        let path = walk_back(self.source, node, &self.scratch.prev)?;
        Some((path, m))
    }
}

/// Follows predecessor links from `node` back to `source`.
fn walk_back(source: NodeId, node: NodeId, prev: &[usize]) -> Option<Path> {
    let mut nodes = vec![node];
    let mut cur = node;
    while cur != source {
        let p = prev[cur.index()];
        if p == NO_PREV {
            return None;
        }
        cur = NodeId::new(p);
        nodes.push(cur);
    }
    nodes.reverse();
    Some(Path::new(nodes))
}

/// A paused, goal-directed max-product Dijkstra run (see
/// [`max_product_resume`]).
#[derive(Debug)]
pub struct MaxProductResume<'s, 'g, N, E, FE, FT> {
    scratch: &'s mut SearchScratch,
    graph: &'g UnGraph<N, E>,
    source: NodeId,
    edge_factor: FE,
    transit_factor: FT,
}

/// Starts a *resumable* max-product Dijkstra run: for every node, the
/// path from `source` maximizing the product of edge factors and transit
/// factors.
///
/// * `edge_factor(from, e)` — multiplicative success factor in `(0, 1]`
///   for traversing edge `e` out of node `from`; return `None` to forbid
///   the traversal (e.g. the far endpoint lacks capacity).
/// * `transit_factor(u)` — factor charged when a path passes *through*
///   non-source node `u` (i.e. when an edge leaves `u` after one entered);
///   return `None` to forbid transit through `u` (it may still be a path
///   endpoint).
///
/// The greedy argument requires all factors to lie in `(0, 1]`, which
/// holds for probabilities; factors outside that range panic. All working
/// memory comes from the caller-provided `scratch` (Algorithm 2's Yen
/// deviations issue hundreds of searches per demand).
///
/// The search settles nodes lazily in non-increasing metric order, only
/// as far as each [`MaxProductResume::run_to`] target requires, instead
/// of exhausting the whole graph up front; [`MaxProductResume::finish`]
/// runs it to exhaustion. A paused run is the exhaustive run stopped
/// early — same factor evaluations in the same order, same tie-breaking,
/// same `f64` products — so the returned `(path, metric)` for a target is
/// identical to the finished run's `path_to`, at a fraction of the settle
/// work when the target's metric is far above the graph's floor.
/// Algorithm 2's width descent uses this to avoid settling the far side
/// of a large graph it will never read.
///
/// # Examples
///
/// ```
/// use fusion_graph::{search, UnGraph};
///
/// let mut g: UnGraph<(), f64> = UnGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// g.add_edge(a, b, 0.9);
/// g.add_edge(b, c, 0.5);
///
/// let mut scratch = search::SearchScratch::new();
/// let mut run =
///     search::max_product_resume(&mut scratch, &g, a, |_, e| Some(*e.weight), |_| Some(1.0));
/// let (to_b, _) = run.run_to(b).expect("b is reachable");
/// assert_eq!(to_b.nodes(), &[a, b]);
/// // Resuming the same run reuses everything settled so far.
/// let (to_c, rate) = run.run_to(c).expect("c is reachable");
/// assert_eq!(to_c.nodes(), &[a, b, c]);
/// assert_eq!(rate.value(), 0.9 * 0.5);
/// ```
///
/// # Panics
///
/// Panics if `source` is out of bounds; `run_to` panics if a factor is
/// outside `(0, 1]`.
pub fn max_product_resume<'s, 'g, N, E, FE, FT>(
    scratch: &'s mut SearchScratch,
    graph: &'g UnGraph<N, E>,
    source: NodeId,
    edge_factor: FE,
    transit_factor: FT,
) -> MaxProductResume<'s, 'g, N, E, FE, FT>
where
    FE: FnMut(NodeId, EdgeRef<'_, E>) -> Option<f64>,
    FT: FnMut(NodeId) -> Option<f64>,
{
    scratch.begin(graph.node_count());
    scratch.set(source.index(), 1.0, NO_PREV);
    scratch.max_heap.push((Metric::ONE, source));
    MaxProductResume {
        scratch,
        graph,
        source,
        edge_factor,
        transit_factor,
    }
}

impl<'s, N, E, FE, FT> MaxProductResume<'s, '_, N, E, FE, FT>
where
    FE: FnMut(NodeId, EdgeRef<'_, E>) -> Option<f64>,
    FT: FnMut(NodeId) -> Option<f64>,
{
    /// Pops and expands frontier nodes until `target` settles (when
    /// `Some`) or the frontier is exhausted.
    fn run_until(&mut self, target: Option<NodeId>) {
        while let Some((m, u)) = self.scratch.max_heap.pop() {
            if self.scratch.dist[u.index()] != m.value() {
                continue; // stale entry
            }
            self.scratch.counters.pops.inc();
            self.scratch.settled.insert(u.index());
            // Transit factor applies when the path continues through u;
            // a forbidden transit settles u without expanding it.
            let through = if u == self.source {
                Some(1.0)
            } else {
                (self.transit_factor)(u).inspect(|&t| {
                    assert!(
                        t > 0.0 && t <= 1.0,
                        "transit factor must be in (0,1], got {t}"
                    );
                })
            };
            if let Some(through) = through {
                for e in self.graph.incident_edges(u) {
                    let Some(f) = (self.edge_factor)(u, e) else {
                        continue;
                    };
                    assert!(f > 0.0 && f <= 1.0, "edge factor must be in (0,1], got {f}");
                    let v = e.other(u);
                    let nm = m.value() * through * f;
                    if !self.scratch.is_set(v.index()) || nm > self.scratch.dist[v.index()] {
                        self.scratch.set(v.index(), nm, u.index());
                        self.scratch.max_heap.push((Metric::new(nm), v));
                    }
                }
            }
            if target == Some(u) {
                return;
            }
        }
    }

    /// Settles nodes until `target` is final and returns its best path
    /// and metric, or `None` when it is unreachable. Already-settled
    /// targets return without popping anything.
    pub fn run_to(&mut self, target: NodeId) -> Option<(Path, Metric)> {
        if !self.scratch.is_settled(target.index()) {
            self.run_until(Some(target));
        }
        if !self.scratch.is_settled(target.index()) {
            self.scratch.counters.exhaustions.inc();
            return None; // frontier exhausted: unreachable
        }
        let m = Metric::new(self.scratch.dist[target.index()]);
        if m <= Metric::ZERO && target != self.source {
            return None;
        }
        let path = walk_back(self.source, target, &self.scratch.prev)?;
        Some((path, m))
    }

    /// Runs the remainder of the search to exhaustion and returns the
    /// best metric and path to every node.
    pub fn finish(mut self) -> MaxProductRun<'s> {
        self.run_until(None);
        MaxProductRun {
            source: self.source,
            scratch: self.scratch,
        }
    }
}

/// Hop distances from `source` by breadth-first search; `None` = unreachable.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
#[must_use]
pub fn bfs_hops<N, E>(graph: &UnGraph<N, E>, source: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; graph.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let d = dist[u.index()].expect("queued nodes have distances");
        for v in graph.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(d + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Labels every node with a connected-component index in `0..k` and returns
/// `(labels, k)`.
#[must_use]
pub fn connected_components<N, E>(graph: &UnGraph<N, E>) -> (Vec<usize>, usize) {
    let n = graph.node_count();
    let mut labels = vec![usize::MAX; n];
    let mut next = 0;
    for start in graph.node_ids() {
        if labels[start.index()] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        labels[start.index()] = next;
        while let Some(u) = stack.pop() {
            for v in graph.neighbors(u) {
                if labels[v.index()] == usize::MAX {
                    labels[v.index()] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    (labels, next)
}

/// `true` if the graph is non-empty and every node is reachable from node 0.
#[must_use]
pub fn is_connected<N, E>(graph: &UnGraph<N, E>) -> bool {
    if graph.is_empty() {
        return false;
    }
    let (_, k) = connected_components(graph);
    k == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds the diamond `a -- b -- d`, `a -- c -- d` (edge weights 1, 1,
    /// 4, 1; the max-product tests choose their own factors).
    fn diamond() -> (UnGraph<(), f64>, [NodeId; 4]) {
        let mut g = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, d, 1.0);
        g.add_edge(a, c, 4.0);
        g.add_edge(c, d, 1.0);
        (g, [a, b, c, d])
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let mut fresh_scratch = SearchScratch::new();
        let best = max_product_resume(
            &mut fresh_scratch,
            &g,
            a,
            |_, e| Some(*e.weight),
            |_| Some(1.0),
        )
        .finish();
        assert_eq!(best.metric(b), Metric::ZERO);
        assert!(best.path_to(b).is_none());
        assert_eq!(best.metric(a), Metric::ONE);
        assert_eq!(best.path_to(a).unwrap().0.nodes(), &[a]);
    }

    #[test]
    fn max_product_prefers_fewer_lossy_hops() {
        // a-b-d: 0.9 * 0.9 = 0.81 through one transit (0.5) = 0.405
        // a-d direct: 0.5
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0.9);
        g.add_edge(b, d, 0.9);
        g.add_edge(a, d, 0.5);
        let mut fresh_scratch = SearchScratch::new();
        let best = max_product_resume(
            &mut fresh_scratch,
            &g,
            a,
            |_, e| Some(*e.weight),
            |_| Some(0.5),
        )
        .finish();
        assert!((best.metric(d).value() - 0.5).abs() < 1e-12);
        assert_eq!(best.path_to(d).unwrap().0.nodes(), &[a, d]);
    }

    #[test]
    fn max_product_uses_transit_when_better() {
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0.9);
        g.add_edge(b, d, 0.9);
        g.add_edge(a, d, 0.5);
        // With q = 0.9 the two-hop route wins: 0.9^3 = 0.729 > 0.5.
        let mut fresh_scratch = SearchScratch::new();
        let best = max_product_resume(
            &mut fresh_scratch,
            &g,
            a,
            |_, e| Some(*e.weight),
            |_| Some(0.9),
        )
        .finish();
        assert!((best.metric(d).value() - 0.729).abs() < 1e-12);
        assert_eq!(best.path_to(d).unwrap().0.nodes(), &[a, b, d]);
    }

    #[test]
    fn max_product_forbidden_transit() {
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0.9);
        g.add_edge(b, d, 0.9);
        let mut fresh_scratch = SearchScratch::new();
        let best = max_product_resume(&mut fresh_scratch, &g, a, |_, e| Some(*e.weight), |_| None)
            .finish();
        // b is reachable as an endpoint but cannot be transited.
        assert!(best.path_to(b).is_some());
        assert!(best.path_to(d).is_none());
    }

    #[test]
    fn max_product_forbidden_edge() {
        let (g, [a, b, _c, d]) = diamond();
        let mut fresh_scratch = SearchScratch::new();
        let best = max_product_resume(
            &mut fresh_scratch,
            &g,
            a,
            |_, e| {
                let banned = (e.source == a && e.target == b) || (e.source == b && e.target == a);
                (!banned).then_some(0.9)
            },
            |_| Some(1.0),
        )
        .finish();
        assert_eq!(best.path_to(d).unwrap().0.nodes(), &[a, _c, d]);
    }

    #[test]
    fn bfs_hops_counts() {
        let (g, [a, b, c, d]) = diamond();
        let hops = bfs_hops(&g, a);
        assert_eq!(hops[a.index()], Some(0));
        assert_eq!(hops[b.index()], Some(1));
        assert_eq!(hops[c.index()], Some(1));
        assert_eq!(hops[d.index()], Some(2));
    }

    #[test]
    fn scratch_runs_match_fresh_runs() {
        let (g, [a, b, c, d]) = diamond();
        let mut scratch = SearchScratch::new();
        // Each run on the shared scratch must be independent of whatever
        // the previous one left behind.
        for source in [a, d, b, a, c] {
            let run = max_product_resume(&mut scratch, &g, source, |_, _| Some(0.9), |_| Some(0.5))
                .finish();
            let mut fresh_scratch = SearchScratch::new();
            let fresh = max_product_resume(
                &mut fresh_scratch,
                &g,
                source,
                |_, _| Some(0.9),
                |_| Some(0.5),
            )
            .finish();
            for node in [a, b, c, d] {
                assert_eq!(run.metric(node), fresh.metric(node));
                assert_eq!(run.path_to(node), fresh.path_to(node));
            }
        }
    }

    proptest! {
        /// A dirty reused scratch must behave exactly like a fresh
        /// allocation for every query in a random sequence.
        #[test]
        fn scratch_reuse_matches_fresh_on_random_graphs(
            edges in proptest::collection::vec((0usize..8, 0usize..8, 1u32..9), 1..24),
            sources in proptest::collection::vec(0usize..8, 1..6),
        ) {
            let mut g: UnGraph<(), f64> = UnGraph::new();
            for _ in 0..8 {
                g.add_node(());
            }
            for (u, v, w) in edges {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), f64::from(w));
                }
            }
            let mut scratch = SearchScratch::new();
            for s in sources {
                let s = NodeId::new(s);
                let run = max_product_resume(
                    &mut scratch,
                    &g,
                    s,
                    |_, e| Some(*e.weight / 10.0),
                    |_| Some(0.7),
                ).finish();
                let mut fresh_scratch = SearchScratch::new();
                let fresh = max_product_resume(&mut fresh_scratch, &g, s, |_, e| Some(*e.weight / 10.0), |_| Some(0.7)).finish();
                for node in g.node_ids() {
                    prop_assert_eq!(run.metric(node), fresh.metric(node));
                    prop_assert_eq!(run.path_to(node), fresh.path_to(node));
                }
            }
        }
    }

    #[test]
    fn goal_directed_stops_before_far_nodes() {
        // a -- b -- c -- d with factor 0.9 per hop: running to b must not
        // settle d.
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0.9);
        g.add_edge(b, c, 0.9);
        g.add_edge(c, d, 0.9);
        let factor = |_: NodeId, e: EdgeRef<'_, f64>| Some(*e.weight);
        let mut scratch = SearchScratch::new();
        let mut run = max_product_resume(&mut scratch, &g, a, factor, |_| Some(1.0));
        assert!(run.run_to(b).is_some());
        assert!(run.scratch.is_settled(b.index()));
        assert!(
            !run.scratch.is_settled(d.index()),
            "running to b must leave d unsettled"
        );
        // Resuming to d settles the remainder and matches a fresh run.
        let mut fresh_scratch = SearchScratch::new();
        let fresh = max_product_resume(&mut fresh_scratch, &g, a, factor, |_| Some(1.0)).finish();
        assert_eq!(run.run_to(d), fresh.path_to(d));
    }

    #[test]
    fn goal_directed_unreachable_is_none_and_resumable() {
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 0.9);
        let mut scratch = SearchScratch::new();
        let mut run =
            max_product_resume(&mut scratch, &g, a, |_, e| Some(*e.weight), |_| Some(1.0));
        assert!(run.run_to(c).is_none(), "c is disconnected");
        // The exhausted run still answers reachable targets.
        assert_eq!(run.run_to(b).unwrap().0.nodes(), &[a, b]);
    }

    #[test]
    fn goal_directed_max_product_matches_full_run() {
        let (g, [a, b, c, d]) = diamond();
        let mut scratch = SearchScratch::new();
        for (source, target) in [(a, d), (d, a), (b, c)] {
            let mut fresh_scratch = SearchScratch::new();
            let fresh = max_product_resume(
                &mut fresh_scratch,
                &g,
                source,
                |_, _| Some(0.9),
                |_| Some(0.5),
            )
            .finish();
            let mut run =
                max_product_resume(&mut scratch, &g, source, |_, _| Some(0.9), |_| Some(0.5));
            assert_eq!(run.run_to(target), fresh.path_to(target));
            assert_eq!(run.run_to(target), fresh.path_to(target));
        }
    }

    #[test]
    fn goal_directed_max_product_forbidden_transit_target() {
        // The target itself may be transit-forbidden: it still settles and
        // returns a path, exactly like the full run.
        let mut g: UnGraph<(), f64> = UnGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 0.9);
        g.add_edge(b, d, 0.9);
        let mut fresh_scratch = SearchScratch::new();
        let fresh =
            max_product_resume(&mut fresh_scratch, &g, a, |_, _| Some(0.9), |_| None).finish();
        let mut scratch = SearchScratch::new();
        let mut run = max_product_resume(&mut scratch, &g, a, |_, _| Some(0.9), |_| None);
        assert_eq!(run.run_to(b), fresh.path_to(b));
        assert_eq!(run.run_to(d), fresh.path_to(d));
        assert!(run.run_to(d).is_none(), "b cannot be transited");
    }

    proptest! {
        /// On random graphs, pausing at an arbitrary sequence of targets
        /// and resuming must return exactly what a fresh exhaustive run
        /// returns for every target.
        #[test]
        fn resume_matches_exhaustive_on_random_graphs(
            edges in proptest::collection::vec((0usize..9, 0usize..9, 1u32..9), 1..28),
            source in 0usize..9,
            targets in proptest::collection::vec(0usize..9, 1..5),
        ) {
            let mut g: UnGraph<(), f64> = UnGraph::new();
            for _ in 0..9 {
                g.add_node(());
            }
            for (u, v, w) in edges {
                if u != v {
                    g.add_edge(NodeId::new(u), NodeId::new(v), f64::from(w));
                }
            }
            let source = NodeId::new(source);
            let mut scratch = SearchScratch::new();
            let mut fresh_scratch = SearchScratch::new();
            let fresh = max_product_resume(&mut fresh_scratch,
                &g,
                source,
                |_, e| Some(*e.weight / 10.0),
                |_| Some(0.7),
            ).finish();
            let mut run = max_product_resume(
                &mut scratch,
                &g,
                source,
                |_, e| Some(*e.weight / 10.0),
                |_| Some(0.7),
            );
            for &t in &targets {
                prop_assert_eq!(run.run_to(NodeId::new(t)), fresh.path_to(NodeId::new(t)));
            }
        }
    }

    #[test]
    fn scratch_grows_across_graph_sizes() {
        let mut scratch = SearchScratch::with_capacity(2);
        let (big, [a, _, _, d]) = diamond();
        let run =
            max_product_resume(&mut scratch, &big, a, |_, _| Some(0.5), |_| Some(1.0)).finish();
        assert_eq!(run.metric(d).value(), 0.25);
        // A smaller graph afterwards must not see the big graph's entries.
        let mut small: UnGraph<(), f64> = UnGraph::new();
        let x = small.add_node(());
        let y = small.add_node(());
        let run =
            max_product_resume(&mut scratch, &small, x, |_, _| Some(0.5), |_| Some(1.0)).finish();
        assert_eq!(run.metric(y), Metric::ZERO);
    }

    #[test]
    fn components_and_connectivity() {
        let (g, _) = diamond();
        assert!(is_connected(&g));
        let mut g2: UnGraph<(), f64> = UnGraph::new();
        let a = g2.add_node(());
        let _b = g2.add_node(());
        let c = g2.add_node(());
        g2.add_edge(a, c, 1.0);
        let (labels, k) = connected_components(&g2);
        assert_eq!(k, 2);
        assert_eq!(labels[a.index()], labels[c.index()]);
        assert!(!is_connected(&g2));
        let empty: UnGraph<(), ()> = UnGraph::new();
        assert!(!is_connected(&empty));
    }
}
