//! # hypre-core — the HYPRE hybrid preference model
//!
//! A from-scratch implementation of the model and algorithms of
//! *"Unifying Qualitative and Quantitative Database Preferences to Enhance
//! Query Personalization"* (Gheorghiu, 2014):
//!
//! * **[`graph`]** — the HYPRE preference graph (Definition 14): per-user
//!   predicate nodes with intensities, qualitative `PREFERS` edges, cycle
//!   (`CYCLE`) and incompatibility (`DISCARD`) conflict handling, and the
//!   incremental construction of Algorithm 1.
//! * **[`intensity`]** — intensity newtypes, the Eq. 4.1/4.2 propagation
//!   functions (Algorithm 8) that convert qualitative preferences into
//!   quantitative ones, and the Table 12 `DEFAULT_VALUE` strategies.
//! * **[`combine`]** — the combined-intensity algebra: inflationary `f∧`
//!   (Eq. 4.3), reserved `f∨` (Eq. 4.4), mixed-clause construction, and
//!   the Proposition 1–4 facts the algorithms rely on.
//! * **[`dsl`]** — a declarative preference-profile language:
//!   quantitative atoms with intensities, Chomicki-style `PRIOR` /
//!   `PARETO` composition and graph-derived atoms, compiled onto the
//!   structures above so a parsed profile drives the executor unchanged.
//! * **[`enhance`]** — preference-aware query enhancement (§4.6) and
//!   per-tuple combined-intensity scoring (§4.6.1).
//! * **[`exec`]** — applicability checking (Definition 15) with memoised
//!   counts and the pre-computed pairwise combination list of §5.5.
//! * **[`algo`]** — the Chapter 5 algorithms: Combine-Two,
//!   Partially-Combine-All, Bias-Random-Selection, and the PEPS Top-K
//!   algorithm (Complete and Approximate).
//! * **[`tupleset`]** / **[`bitset`]** — the adaptive compressed tuple-set
//!   representation (sorted-array container for sparse sets, packed-word
//!   bitmap for dense ones) the executor's set algebra runs on.
//! * **[`sched`]** — batched cross-session scheduling: concurrent
//!   `top_k` calls grouped by profile-atom identity so each distinct
//!   round expansion is evaluated once and demultiplexed, byte-identical
//!   to per-session execution.
//! * **[`serve`]** — a std-only TCP serving loop over the batch
//!   scheduler, one blocking thread per connection with a bound on
//!   concurrent batch evaluations: hand-rolled length-prefixed framing,
//!   replies in request order, bounded admission with typed overload
//!   rejection, a connection bound, per-tenant stats, and each batch on
//!   the current epoch.
//! * **[`metrics`]** — utility, coverage, similarity and overlap.
//! * **[`skyline`]** — the attribute-based preference extension (§1.4,
//!   §8.2) with block-nested-loop skyline evaluation.
//!
//! ## Quick example
//!
//! ```
//! use hypre_core::prelude::*;
//! use relstore::parse_predicate;
//!
//! let mut graph = HypreGraph::new();
//! let user = UserId(2);
//! // "I like PODS papers, intensity 0.4"
//! graph.add_quantitative(&QuantitativePref::new(
//!     user,
//!     parse_predicate("dblp.venue='PODS'").unwrap(),
//!     Intensity::new(0.4).unwrap(),
//! ));
//! // "I prefer recent papers over PODS papers, strength 0.5"
//! graph.add_qualitative(&QualitativePref::new(
//!     user,
//!     parse_predicate("dblp.year>=2010").unwrap(),
//!     parse_predicate("dblp.venue='PODS'").unwrap(),
//!     QualIntensity::new(0.5).unwrap(),
//! ).unwrap()).unwrap();
//!
//! // The qualitative preference became a quantitative one:
//! let profile = graph.positive_profile(user);
//! assert_eq!(profile.len(), 2);
//! assert!(profile[0].intensity > 0.4);
//! graph.check_invariants().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod algo;
pub mod bitset;
pub mod combine;
pub mod dsl;
pub mod enhance;
pub mod error;
pub mod exec;
pub mod graph;
pub mod intensity;
pub mod metrics;
pub mod preference;
pub mod sched;
pub mod serve;
pub mod skyline;
pub mod tupleset;

pub use error::{HypreError, Result};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::algo::bias_random::{bias_random, BiasRandomStats};
    pub use crate::algo::combine_two::combine_two;
    pub use crate::algo::partially_combine_all::partially_combine_all;
    pub use crate::algo::peps::{proposition6_bound, Peps, PepsVariant, RankedTuple};
    pub use crate::algo::CombinationRecord;
    pub use crate::bitset::BitSet;
    pub use crate::combine::{
        combine_pair, f_and, f_and_all, f_or, f_or_fold, mixed_clause, Combination,
        CombineSemantics, PrefAtom,
    };
    pub use crate::dsl::{
        parse_profile, parse_profiles, CompiledProfile, DerivedCatalog, DslError, ProfileAst,
    };
    pub use crate::enhance::{enhance_query, score_tuples, EnhancedQuery, ScoredTuple};
    pub use crate::error::{HypreError, Result};
    pub use crate::exec::{
        BaseQuery, DeltaReport, Epoch, EpochCache, Executor, PairEntry, PairwiseCache,
        ProfileCache, SharedTupleSet,
    };
    pub use crate::graph::{
        EdgeKind, HypreGraph, IngestReport, QualInsertOutcome, StoredPreference, NODE_LABEL,
    };
    pub use crate::intensity::{
        DefaultValueStrategy, Intensity, IntensityModel, Position, QualIntensity,
    };
    pub use crate::metrics::{
        coverage, order_concordance, overlap, selectivity, similarity, utility, CoverageReport,
        UTILITY_PAGE_CAP,
    };
    pub use crate::preference::{
        Preference, Provenance, QualitativePref, QuantitativePref, UserId,
    };
    pub use crate::sched::{BatchOutcome, BatchRequest, BatchScheduler, BatchStats};
    pub use crate::skyline::{prioritized_skyline, skyline, AttributePref, Direction};
    pub use crate::tupleset::{TupleSet, ARRAY_MAX, RUN_COST_FACTOR, RUN_MAX};
}
