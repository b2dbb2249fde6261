//! Determinism and shared-cache equivalence over the generated DBLP
//! corpus: repeated pairwise builds and PEPS runs must be
//! byte-identical, and concurrent session executors sharing one
//! `ProfileCache` snapshot must rank exactly like a fresh executor —
//! the contract that lets the multi-user serving path reuse
//! materialised tuple sets without re-running SQL.

use std::sync::{Arc, OnceLock};

use hypre_bench::Fixture;
use hypre_repro::prelude::*;
use hypre_repro::relstore::Predicate;

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(Fixture::small)
}

/// The rich study user's positive profile — the same profile the benches
/// and the PR 1/PR 2 equivalence suites exercise.
fn rich_atoms() -> Vec<PrefAtom> {
    fixture().graph.positive_profile(fixture().rich_user)
}

#[test]
fn repeated_pairwise_builds_are_byte_identical() {
    let fx = fixture();
    let atoms = rich_atoms();
    assert!(atoms.len() >= 8, "profile too small");
    let exec = fx.executor();
    let reference = PairwiseCache::build(&atoms, &exec).unwrap();
    let rebuilt = PairwiseCache::build(&atoms, &exec).unwrap();
    assert_eq!(
        rebuilt.entries(),
        reference.entries(),
        "pairwise table diverged"
    );
    assert_eq!(rebuilt.applicable_count(), reference.applicable_count());
    for i in 0..atoms.len() {
        assert_eq!(
            rebuilt.pairs_from(i).collect::<Vec<_>>(),
            reference.pairs_from(i).collect::<Vec<_>>(),
            "pairs_from({i}) diverged"
        );
    }
}

#[test]
fn peps_top_k_byte_identical_across_worker_counts() {
    let fx = fixture();
    let atoms = rich_atoms();
    let exec = fx.executor();
    let reference_pairs = PairwiseCache::build(&atoms, &exec).unwrap();
    for variant in [PepsVariant::Complete, PepsVariant::Approximate] {
        let reference = Peps::new(&atoms, &exec, &reference_pairs, variant);
        let want_top = reference.top_k(25).unwrap();
        let want_order = reference.ordered_combinations().unwrap();
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let peps = Peps::new(&atoms, &exec, &pairs, variant);
        assert_eq!(
            peps.top_k(25).unwrap(),
            want_top,
            "top_k diverged ({variant:?})"
        );
        assert_eq!(
            peps.ordered_combinations().unwrap(),
            want_order,
            "ordered_combinations diverged ({variant:?})"
        );
    }
}

#[test]
fn peps_round_expansion_byte_identical_across_worker_counts() {
    // Per-tuple scores merge as maxima and the ORDER list is sorted by
    // a total order, so a second PEPS run over the same pairwise table
    // must produce byte-identical rankings *and* ORDER lists.
    let fx = fixture();
    let atoms = rich_atoms();
    let exec = fx.executor();
    let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
    for variant in [PepsVariant::Complete, PepsVariant::Approximate] {
        let reference = Peps::new(&atoms, &exec, &pairs, variant);
        let want_top = reference.top_k(25).unwrap();
        let want_order = reference.ordered_combinations().unwrap();
        let peps = Peps::new(&atoms, &exec, &pairs, variant);
        assert_eq!(
            peps.top_k(25).unwrap(),
            want_top,
            "top_k diverged ({variant:?})"
        );
        assert_eq!(
            peps.ordered_combinations().unwrap(),
            want_order,
            "ordered_combinations diverged ({variant:?})"
        );
    }
}

#[test]
fn concurrent_sessions_sharing_one_profile_cache_rank_identically() {
    let fx = fixture();
    let atoms = rich_atoms();

    // Reference: a fresh executor.
    let fresh = fx.executor();
    let fresh_pairs = PairwiseCache::build(&atoms, &fresh).unwrap();
    let want = Peps::new(&atoms, &fresh, &fresh_pairs, PepsVariant::Complete)
        .top_k(20)
        .unwrap();

    // Build phase: warm once, freeze, share.
    let cache = Arc::new(ProfileCache::snapshot(&fresh));
    assert_eq!(cache.len(), atoms.len());

    // N concurrent sessions, each its own executor over the snapshot,
    // each building its own pairwise table.
    let results: Vec<(Vec<RankedTuple>, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let atoms = &atoms;
                let db = &fx.db;
                scope.spawn(move || {
                    let session =
                        Executor::with_cache(db, cache).expect("cache matches the corpus");
                    let pairs = PairwiseCache::build(atoms, &session).unwrap();
                    let top = Peps::new(atoms, &session, &pairs, PepsVariant::Complete)
                        .top_k(20)
                        .unwrap();
                    (top, session.queries_run(), session.shared_hits())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (top, queries, shared_hits) in results {
        assert_eq!(top, want, "session ranking diverged from the reference");
        assert_eq!(queries, 0, "sessions must not re-run profile SQL");
        assert!(shared_hits >= atoms.len(), "sets must come from the cache");
    }
}

#[test]
fn session_over_a_partial_snapshot_matches_a_fresh_executor() {
    // A snapshot warmed with only the modest user's predicates still
    // serves the rich user's profile: overlapping predicates resolve
    // from the cache, the rest run locally with overlay ids, and the
    // ranked identities are identical to a cold executor's.
    let fx = fixture();
    let modest_atoms = fx.graph.positive_profile(fx.modest_user);
    let rich = rich_atoms();
    let predicates: Vec<&Predicate> = modest_atoms.iter().map(|a| &a.predicate).collect();
    let cache = Arc::new(ProfileCache::warm(&fx.db, BaseQuery::dblp(), predicates).unwrap());

    let fresh = fx.executor();
    let fresh_pairs = PairwiseCache::build(&rich, &fresh).unwrap();
    let want = Peps::new(&rich, &fresh, &fresh_pairs, PepsVariant::Complete)
        .top_k(15)
        .unwrap();

    let missing: std::collections::HashSet<String> = rich
        .iter()
        .map(|a| a.predicate.canonical())
        .filter(|key| !modest_atoms.iter().any(|m| m.predicate.canonical() == *key))
        .collect();
    let session = Executor::with_cache(&fx.db, cache).expect("cache matches the corpus");
    let pairs = PairwiseCache::build(&rich, &session).unwrap();
    let got = Peps::new(&rich, &session, &pairs, PepsVariant::Complete)
        .top_k(15)
        .unwrap();
    assert_eq!(got, want);
    assert_eq!(
        session.queries_run(),
        missing.len(),
        "exactly the predicates absent from the snapshot run SQL"
    );
}
