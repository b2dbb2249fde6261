//! Multi-user serving over one shared profile snapshot — the production
//! shape the ROADMAP targets: a build phase warms a `ProfileCache` with
//! every stored predicate once, then N concurrent user sessions, one
//! thread each, open cheap executors over the frozen snapshot and answer
//! personalised Top-10 queries without re-running a single profile SQL
//! query.
//!
//! ```text
//! cargo run --release --example multi_user_serving
//! ```

use std::sync::Arc;
use std::time::Instant;

use hypre_repro::dblp::{extract, gen, load};
use hypre_repro::prelude::*;
use hypre_repro::relstore::Predicate;

fn main() -> Result<()> {
    // 1. Corpus + extracted preferences + HYPRE graph (the build inputs).
    let dataset = gen::generate(&gen::GeneratorConfig {
        papers: 1500,
        authors: 600,
        venues: 30,
        ..gen::GeneratorConfig::default()
    });
    let workload = extract::extract(&dataset, &extract::ExtractionConfig::default());
    let db = load::load(&dataset).expect("schema is valid");
    let mut graph = HypreGraph::new();
    graph.load(&workload.quantitative, &workload.qualitative)?;

    // 2. The four busiest users are "the concurrent traffic".
    let mut users = graph.users();
    users.sort_by_key(|u| std::cmp::Reverse(graph.positive_profile(*u).len()));
    users.truncate(4);
    let profiles: Vec<(UserId, Vec<PrefAtom>)> = users
        .iter()
        .map(|&u| (u, graph.positive_profile(u)))
        .collect();
    println!(
        "serving {} users with profiles of {:?} preferences",
        profiles.len(),
        profiles.iter().map(|(_, a)| a.len()).collect::<Vec<_>>()
    );

    // 3. Cold baseline: every session is a fresh executor — each one
    //    re-interns the corpus and re-runs every profile query. The
    //    sessions run concurrently, exactly like the shared phase below,
    //    so the wall-clock delta is what the snapshot buys and not
    //    thread-level parallelism.
    let cold_start = Instant::now();
    let (cold_results, cold_queries): (Vec<Vec<RankedTuple>>, Vec<usize>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = profiles
                .iter()
                .map(|(_, atoms)| {
                    let db = &db;
                    scope.spawn(move || {
                        let exec = Executor::new(db, BaseQuery::dblp());
                        let pairs = PairwiseCache::build(atoms, &exec).expect("cold build");
                        let top = Peps::new(atoms, &exec, &pairs, PepsVariant::Complete)
                            .top_k(10)
                            .expect("cold top-k");
                        (top, exec.queries_run())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).unzip()
        });
    let cold_queries: usize = cold_queries.iter().sum();
    let cold_elapsed = cold_start.elapsed();

    // 4. Build phase: warm ONE executor with the union of all stored
    //    predicates, freeze it into a shared snapshot.
    let warm_start = Instant::now();
    let predicates: Vec<&Predicate> = profiles
        .iter()
        .flat_map(|(_, atoms)| atoms.iter().map(|a| &a.predicate))
        .collect();
    let cache = Arc::new(ProfileCache::warm(&db, BaseQuery::dblp(), predicates)?);
    let warm_elapsed = warm_start.elapsed();
    println!(
        "profile cache: {} predicate sets over a {}-tuple universe, \
         warmed in {:.1} ms",
        cache.len(),
        cache.tuple_universe(),
        warm_elapsed.as_secs_f64() * 1e3
    );

    // 5. Serving phase: one concurrent session per user, all reading the
    //    snapshot lock-free; each session builds its own pairwise table.
    let serve_start = Instant::now();
    let served: Vec<(UserId, Vec<RankedTuple>, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = profiles
            .iter()
            .map(|(user, atoms)| {
                let cache = Arc::clone(&cache);
                let db = &db;
                scope.spawn(move || {
                    let session =
                        Executor::with_cache(db, cache).expect("cache matches the corpus");
                    let pairs = PairwiseCache::build(atoms, &session).expect("session build");
                    let top = Peps::new(atoms, &session, &pairs, PepsVariant::Complete)
                        .top_k(10)
                        .expect("session top-k");
                    (*user, top, session.queries_run(), session.shared_hits())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let serve_elapsed = serve_start.elapsed();

    // 6. The shared-snapshot sessions must agree exactly with the cold
    //    executors — determinism is the contract that makes the cache a
    //    pure optimisation.
    for ((user, top, queries, shared_hits), cold) in served.iter().zip(&cold_results) {
        assert_eq!(top, cold, "session ranking diverged for {user}");
        assert_eq!(*queries, 0, "session for {user} re-ran SQL");
        println!(
            "  {user}: top-10 served with {shared_hits} cached set fetches, \
             0 SQL queries (best score {:.3})",
            top.first().map_or(0.0, |(_, s)| *s)
        );
    }
    println!(
        "\ncold serving ({} concurrent sessions): {cold_queries} SQL queries, {:.1} ms total",
        profiles.len(),
        cold_elapsed.as_secs_f64() * 1e3
    );
    println!(
        "shared serving: 0 SQL queries, {:.1} ms warm build + {:.1} ms for \
         {} concurrent sessions",
        warm_elapsed.as_secs_f64() * 1e3,
        serve_elapsed.as_secs_f64() * 1e3,
        served.len()
    );
    Ok(())
}
