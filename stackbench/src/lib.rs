//! `stackbench`: one benchmark for the GHZ n-fusion routing stack.
//!
//! Three workloads drive the stack through its public API: two
//! closed-loop admission workloads against `fusion-serve` on the
//! 1000-switch world, and the paper's batch (`route` plus Monte Carlo) on
//! the §V-A world. An untraced run reports end-to-end metrics; a traced
//! run times each layer from outside, with spans around every call into
//! it, and reads the stack's deterministic counters. See `README.md`.

#![forbid(unsafe_code)]

pub mod batch;
pub mod record;
pub mod report;
pub mod run;
pub mod serve;
pub mod stages;
pub mod stats;
pub mod world;
