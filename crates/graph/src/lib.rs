//! Graph substrate for the GHZ n-fusion entanglement-routing stack.
//!
//! This crate provides the classical-graph foundations that the quantum
//! network model and routing algorithms are built on:
//!
//! * [`UnGraph`] — a compact undirected multigraph with typed node and edge
//!   payloads, indexed by [`NodeId`] / [`EdgeId`].
//! * [`Metric`] — a totally ordered, non-NaN `f64` wrapper used for
//!   probability-product routing metrics.
//! * [`search`] — max-product Dijkstra (one resumable, goal-directed
//!   entry point that can also run to exhaustion), generation-stamped
//!   search bans, BFS, and connected components.
//! * [`feasibility`] — width-indexed capacity feasibility and the
//!   incrementally-repaired reachability behind width-descent searches.
//! * [`DisjointSets`] — union-find with path compression, used for
//!   entanglement-group tracking and percolation connectivity.
//! * [`Path`] — a validated simple path through a graph.
//!
//! # Examples
//!
//! ```
//! use fusion_graph::{UnGraph, search};
//!
//! let mut g: UnGraph<&str, f64> = UnGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, 0.5);
//! g.add_edge(b, c, 0.5);
//!
//! // Edge factors are the weights; transiting `b` costs a factor 0.5.
//! let mut scratch = search::SearchScratch::new();
//! let best = search::max_product_resume(&mut scratch, &g, a, |_, e| Some(*e.weight), |_| Some(0.5))
//!     .finish();
//! assert_eq!(best.metric(c).value(), 0.125);
//! ```
//!
//! This crate is one layer of the stack mapped in `docs/ARCHITECTURE.md`
//! at the repo root (dependency graph, algorithm-to-module map, and the
//! equivalence-oracle and generation-stamp disciplines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod metric;
mod path;
mod stamps;
mod unionfind;

pub mod feasibility;
pub mod search;

pub use feasibility::{DescentReach, WidthFeasibility};
pub use graph::{EdgeId, EdgeRef, NodeId, UnGraph};
pub use metric::Metric;
pub use path::{Path, PathError};
pub use search::{SearchBans, SearchCounters, SearchScratch};
pub use unionfind::{DisjointSets, GenerationalDisjointSets};
