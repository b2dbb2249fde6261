//! # hypre-bench — experiment harness for the HYPRE reproduction
//!
//! Shared infrastructure for the `experiments` binary (which regenerates
//! every table and figure of the dissertation's evaluation chapter) and
//! the `bench_report` binary (the perf snapshot and its regression
//! guard):
//!
//! * [`fixture`] — the seeded standard corpus + graph + study users;
//! * [`ta_glue`] — building the §7.6.1 graded lists for the TA baseline;
//! * [`report`] — paper-style text tables and series;
//! * [`experiments`] — one function per table/figure, returning printable
//!   structures so the binary and tests share one implementation;
//! * [`baseline`] — the pre-interning `HashSet<Value>` set algebra (the
//!   seed generation), kept for three-way comparisons;
//! * [`bitset_baseline`] — the pure-bitmap `BitSet` algebra and PEPS (the
//!   PR 1 generation), kept so `bench_report` and the equivalence tests
//!   can measure all three generations;
//! * [`timing`] — the median wall-clock helper `bench_report` times with;
//! * [`ingest`] — append-only corpus splits (base + delta) for the
//!   live-ingest equivalence tests and the `live_ingest` rows of
//!   `bench_report`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod bitset_baseline;
pub mod experiments;
pub mod fixture;
pub mod ingest;
pub mod report;
pub mod ta_glue;
pub mod timing;

pub use fixture::Fixture;

use hypre_core::prelude::PrefAtom;

/// Overlapping-and-disjoint profile variants derived from the two study
/// users' profiles — the distinct profile identities the batched
/// equivalence tests mix into sessions. Slices of a descending-intensity
/// profile stay descending; atoms are re-indexed so each variant is a
/// well-formed profile of its own.
pub fn profile_variants(rich: &[PrefAtom], modest: &[PrefAtom]) -> Vec<Vec<PrefAtom>> {
    let reindex = |atoms: &[PrefAtom]| -> Vec<PrefAtom> {
        atoms
            .iter()
            .enumerate()
            .map(|(i, a)| PrefAtom::new(i, a.predicate.clone(), a.intensity))
            .collect()
    };
    let mut variants = vec![reindex(rich), reindex(modest)];
    if rich.len() > 2 {
        variants.push(reindex(&rich[..rich.len() / 2]));
        variants.push(reindex(&rich[rich.len() / 2..]));
        variants.push(reindex(&rich[1..]));
    }
    if modest.len() > 1 {
        variants.push(reindex(&modest[..modest.len().div_ceil(2)]));
    }
    if rich.len() > 1 && modest.len() > 1 {
        // A blended profile: strongest half of each, re-sorted by
        // descending intensity (profiles are intensity-ordered).
        let mut blend: Vec<PrefAtom> = rich[..rich.len() / 2]
            .iter()
            .chain(&modest[..modest.len() / 2])
            .cloned()
            .collect();
        blend.sort_by(|a, b| b.intensity.total_cmp(&a.intensity));
        let mut deduped: Vec<PrefAtom> = Vec::with_capacity(blend.len());
        for atom in blend {
            if !deduped.iter().any(|d| d.predicate == atom.predicate) {
                deduped.push(atom);
            }
        }
        variants.push(reindex(&deduped));
    }
    variants
}
