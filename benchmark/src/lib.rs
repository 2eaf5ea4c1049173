//! End-to-end and per-layer benchmark of the PHAST reproduction: three
//! workloads, each checked cell by cell against pinned simulated results.
//! See README.md for the workloads, the metrics and how they are measured.

pub mod e2e;
pub mod pins;
pub mod stats;
pub mod traced;
