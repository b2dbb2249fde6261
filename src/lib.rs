//! # hypre-repro — a reproduction of the HYPRE hybrid preference model
//!
//! Umbrella facade re-exporting the workspace crates that reproduce
//! *"Unifying Qualitative and Quantitative Database Preferences to Enhance
//! Query Personalization"* (Gheorghiu, 2014):
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `hypre-core` | The HYPRE preference graph (typed node and edge columns), intensity propagation, combination algorithms (incl. PEPS) and metrics |
//! | [`relstore`] | `relstore` | Embedded relational engine (the MySQL substitute) |
//! | [`graphstore`] | `graphstore` | Embedded property-graph engine (the Neo4j substitute): the target of `HypreGraph::to_property_graph`, and the substrate of graph-derived DSL atoms |
//! | [`topk`] | `hypre-topk` | Fagin's TA and NRA Top-K baselines |
//! | [`dblp`] | `dblp-workload` | Synthetic DBLP corpus + §6.2 preference extraction |
//!
//! See the repository README for a walkthrough, `examples/` for runnable
//! scenarios, and `crates/bench` for the experiment harness regenerating
//! every table and figure of the dissertation's evaluation.
//!
//! ```
//! use hypre_repro::prelude::*;
//! use hypre_repro::relstore::parse_predicate;
//!
//! let mut graph = HypreGraph::new();
//! let me = UserId(1);
//! graph.add_quantitative(&QuantitativePref::new(
//!     me,
//!     parse_predicate("movie.genre='comedy'").unwrap(),
//!     Intensity::new(0.9).unwrap(),
//! ));
//! assert_eq!(graph.positive_profile(me).len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The paper's primary contribution: the HYPRE model and algorithms.
pub use hypre_core as core;

/// The relational substrate.
pub use relstore;

/// The property-graph substrate.
pub use graphstore;

/// Top-K baselines (TA, NRA).
pub use hypre_topk as topk;

/// The DBLP workload generator and preference extraction.
pub use dblp_workload as dblp;

/// Everything a typical user needs, re-exported flat.
pub mod prelude {
    pub use hypre_core::prelude::*;
}
