//! The paper's entanglement-routing algorithms (§IV-C), one entry point
//! per layer. Every entry point takes the capacity it routes against;
//! the ones that count take a telemetry [`Registry`] or counter bundle
//! (disabled handles record nothing), and the pipeline takes a worker
//! count.
//!
//! * [`alg1`] — Largest Entanglement Rate path at a fixed width.
//! * [`alg2`] — Paths Selection (Yen's structure over Algorithm 1):
//!   [`paths_selection_counted`].
//! * [`alg3`] — Paths Merge (capacity-aware, builds flow-like graphs),
//!   in the paper's literal width-major order: [`paths_merge`].
//! * [`alg3_greedy`] — Paths Merge in gain-per-qubit order via an
//!   incremental gain queue (the default; see that module for the queue
//!   design and for why the literal order underperforms):
//!   [`paths_merge_greedy_counted`].
//! * [`alg4`] — Remaining Qubits Assignment (channel widening):
//!   [`assign_remaining`].
//! * [`pipeline`] — the composed `ALG-N-FUSION` routing algorithm:
//!   [`route_with_capacity_counted`], with [`route`] as the serial,
//!   uncounted, full-capacity call and [`route_from_candidates_counted`]
//!   as the re-entry point after an externally-built Step I.
//!
//! The `_reference` functions are the paper-literal implementations the
//! differential tests compare against.
//!
//! [`Registry`]: fusion_telemetry::Registry

pub mod alg1;
pub mod alg2;
pub mod alg3;
pub mod alg3_greedy;
pub mod alg4;
pub mod pipeline;

pub use alg1::{largest_rate_path, largest_rate_path_with, PathConstraints};
pub use alg2::{
    paths_selection_counted, paths_selection_reference, CandidatePath, SelectionCounters,
    SelectionEngine, SelectionQuery,
};
pub use alg3::{paths_merge, MergeOutcome};
pub use alg3_greedy::{paths_merge_greedy_counted, paths_merge_greedy_reference, MergeCounters};
pub use alg4::assign_remaining;
pub use pipeline::{
    alg_n_fusion, route, route_from_candidates_counted, route_with_capacity_counted, MergeOrder,
    PathSelection, RouteTrace, RoutingConfig,
};
