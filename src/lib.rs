//! Umbrella crate for the GHZ n-fusion entanglement-routing stack.
//!
//! Re-exports the workspace crates under one roof so the examples and
//! integration tests can use a single dependency:
//!
//! * [`graph`] — classical graph substrate.
//! * [`topology`] — random quantum-network topology generation.
//! * [`quantum`] — GHZ entanglement semantics and a stabilizer simulator.
//! * [`core`] — the paper's routing model, metrics, and algorithms.
//! * [`sim`] — Monte Carlo simulation of the entanglement process.
//! * [`serve`] — the online demand engine (admit/depart over a residual
//!   ledger) and its trace-replay harness.
//! * [`telemetry`] — the counter registry the `_counted` entry points
//!   record into.

#![forbid(unsafe_code)]

pub use fusion_core as core;
pub use fusion_graph as graph;
pub use fusion_quantum as quantum;
pub use fusion_serve as serve;
pub use fusion_sim as sim;
pub use fusion_telemetry as telemetry;
pub use fusion_topology as topology;
