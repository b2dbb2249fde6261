//! The repository benchmark: open-loop Top-K over `serve::wire` on three
//! workloads, plus a traced per-layer replay. See `README.md`.

pub mod loadgen;
pub mod params;
pub mod rng;
pub mod stats;
pub mod workload;
