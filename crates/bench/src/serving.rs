//! The multi-session serving harness `bench_report` times: N concurrent
//! sessions answering PEPS top-k, either **cold** (each session is a
//! fresh [`Executor`] that re-interns the corpus and re-runs every
//! profile query) or **shared** (each session reads one frozen
//! [`ProfileCache`] snapshot lock-free).
//!
//! Both shapes run their sessions under [`std::thread::scope`], so a
//! cold-vs-shared delta isolates what the snapshot actually buys
//! (interning + SQL + materialisation reuse) instead of conflating it
//! with thread-level parallelism.
//!
//! PR 7 adds the **batched** serving shape: `sessions` Top-K requests
//! drawn from a Zipf profile-popularity distribution (the realistic
//! many-users shape: a few hot profiles dominate), answered either
//! unbatched (every session runs its own rounds, fanned over a worker
//! pool) or through one [`BatchScheduler`] run that evaluates each
//! distinct profile identity once — the shared-expansion saving the
//! `batched_serving` rows of `bench_report` record.

use std::sync::Arc;

use hypre_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::Database;

/// Serves `sessions` concurrent PEPS top-`k` requests, each from a
/// fresh executor (the cold path: per-session interning and SQL).
/// Returns the summed result lengths (a cheap checksum for benches).
pub fn serve_cold_concurrent(
    db: &Database,
    base: &BaseQuery,
    atoms: &[PrefAtom],
    sessions: usize,
    k: usize,
) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                scope.spawn(move || {
                    let exec = Executor::new(db, base.clone());
                    let pairs = PairwiseCache::build(atoms, &exec).expect("cold pairwise build");
                    Peps::new(atoms, &exec, &pairs, PepsVariant::Complete)
                        .top_k(k)
                        .expect("cold top-k")
                        .len()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// Serves `sessions` concurrent PEPS top-`k` requests, each from a
/// session executor over one shared snapshot (the serving path: zero
/// SQL for cached predicates). Returns the summed result lengths.
pub fn serve_shared_concurrent(
    db: &Database,
    cache: &Arc<ProfileCache>,
    atoms: &[PrefAtom],
    sessions: usize,
    k: usize,
) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                let cache = Arc::clone(cache);
                scope.spawn(move || {
                    let session =
                        Executor::with_cache(db, cache).expect("cache matches the corpus");
                    let pairs =
                        PairwiseCache::build(atoms, &session).expect("shared pairwise build");
                    Peps::new(atoms, &session, &pairs, PepsVariant::Complete)
                        .top_k(k)
                        .expect("shared top-k")
                        .len()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// Draws `draws` item indices from a Zipf(`exponent`) popularity over
/// `items` ranked items (rank 0 hottest), deterministically from
/// `seed`. Hand-rolled inverse-CDF sampling over the normalised
/// harmonic weights — the shimmed `rand` has no distribution module.
pub fn zipf_indices(items: usize, draws: usize, exponent: f64, seed: u64) -> Vec<usize> {
    assert!(items > 0, "zipf needs at least one item");
    let weights: Vec<f64> = (0..items)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..draws)
        .map(|_| {
            let mut point = rng.gen::<f64>() * total;
            for (idx, w) in weights.iter().enumerate() {
                point -= w;
                if point <= 0.0 {
                    return idx;
                }
            }
            items - 1
        })
        .collect()
}

/// Builds a `sessions`-strong serving mix: each session asks Top-`k`
/// over a profile drawn Zipf-popularly from `profiles`. The returned
/// requests are the common input to the unbatched and batched shapes.
pub fn zipf_session_mix(
    profiles: &[Vec<PrefAtom>],
    sessions: usize,
    k: usize,
    exponent: f64,
    seed: u64,
) -> Vec<BatchRequest> {
    zipf_indices(profiles.len(), sessions, exponent, seed)
        .into_iter()
        .map(|p| BatchRequest::new(profiles[p].clone(), k))
        .collect()
}

/// The unbatched baseline: every session opens its own executor over
/// the shared snapshot and runs its own PEPS rounds, fanned across
/// `workers` OS threads (sessions chunked, not thread-per-session —
/// 1000 threads would bench spawn overhead, not serving). Returns the
/// summed result lengths.
pub fn serve_unbatched_sessions(
    db: &Database,
    cache: &Arc<ProfileCache>,
    requests: &[BatchRequest],
    workers: usize,
) -> usize {
    let chunk = requests.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .map(|part| {
                let cache = Arc::clone(cache);
                scope.spawn(move || {
                    let session =
                        Executor::with_cache_pinned(db, cache).expect("cache matches the corpus");
                    part.iter()
                        .map(|req| {
                            let pairs = PairwiseCache::build(&req.atoms, &session)
                                .expect("unbatched pairwise build");
                            Peps::new(&req.atoms, &session, &pairs, req.variant)
                                .top_k(req.k)
                                .expect("unbatched top-k")
                                .len()
                        })
                        .sum::<usize>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// The batched shape: one [`BatchScheduler`] run evaluates each
/// distinct profile identity once and demultiplexes. Returns the
/// summed result lengths plus the batch's sharing stats.
pub fn serve_batched_sessions(
    db: &Database,
    cache: &Arc<ProfileCache>,
    requests: &[BatchRequest],
    parallelism: Parallelism,
) -> (usize, BatchStats) {
    let outcome = BatchScheduler::new(parallelism)
        .run(db, cache, requests)
        .expect("batched serving");
    let total = outcome
        .results
        .iter()
        .map(|r| r.as_ref().expect("batched top-k").len())
        .sum();
    (total, outcome.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fixture;

    #[test]
    fn cold_and_shared_serving_agree() {
        let fx = Fixture::small();
        let atoms = fx.graph.positive_profile(fx.rich_user);
        let warm = fx.executor();
        let _ = PairwiseCache::build(&atoms, &warm).unwrap();
        let cache = Arc::new(ProfileCache::snapshot(&warm));
        let cold = serve_cold_concurrent(&fx.db, warm.base(), &atoms, 3, 10);
        let shared = serve_shared_concurrent(&fx.db, &cache, &atoms, 3, 10);
        assert_eq!(cold, shared);
        assert_eq!(cold, 30, "3 sessions × top-10");
    }

    #[test]
    fn zipf_sampling_is_deterministic_and_head_heavy() {
        let a = zipf_indices(8, 500, 1.1, 42);
        let b = zipf_indices(8, 500, 1.1, 42);
        assert_eq!(a, b, "same seed, same draws");
        assert_ne!(a, zipf_indices(8, 500, 1.1, 43), "seed matters");
        assert!(a.iter().all(|&i| i < 8));
        let hottest = a.iter().filter(|&&i| i == 0).count();
        let coldest = a.iter().filter(|&&i| i == 7).count();
        assert!(
            hottest > coldest,
            "rank 0 ({hottest}) must dominate rank 7 ({coldest})"
        );
    }

    #[test]
    fn batched_and_unbatched_zipf_serving_agree() {
        let fx = Fixture::small();
        let rich = fx.graph.positive_profile(fx.rich_user);
        let modest = fx.graph.positive_profile(fx.modest_user);
        let profiles = crate::profile_variants(&rich, &modest);
        let warm = fx.executor();
        for profile in &profiles {
            for atom in profile {
                let _ = warm.tuple_set(&atom.predicate).unwrap();
            }
        }
        let cache = Arc::new(ProfileCache::snapshot(&warm));
        let mix = zipf_session_mix(&profiles, 120, 10, 1.1, 7);
        let unbatched = serve_unbatched_sessions(&fx.db, &cache, &mix, 4);
        let (batched, stats) =
            serve_batched_sessions(&fx.db, &cache, &mix, Parallelism::Sequential);
        assert_eq!(unbatched, batched, "same answers either way");
        assert_eq!(stats.requests, 120);
        assert!(
            stats.groups <= profiles.len(),
            "at most one evaluation per distinct profile"
        );
        assert_eq!(stats.shared, 120 - stats.groups);
        assert_eq!(stats.queries_run, 0, "fully warmed snapshot");
    }
}
