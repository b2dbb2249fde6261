//! Live corpora without stop-the-world: epoch-versioned snapshots over
//! a growing DBLP corpus. A `ProfileCache` is warmed once on the base
//! corpus and published as epoch 1; a server holds the epoch it took
//! from `EpochCache::current()` and serves lock-free; a batch of new
//! papers is ingested as an append-only delta (`ingest_delta` re-scores
//! only the predicates the delta touches — no SQL re-derivation of
//! untouched sets) and published as epoch 2; the server moves on by
//! taking `current()` again at its next query boundary; and a
//! fault-injection pass shows a failed ingest leaves the previous epoch
//! intact and serving.
//!
//! ```text
//! cargo run --release --example live_ingest
//! ```

use std::sync::Arc;
use std::time::Instant;

use hypre_bench::ingest::split_corpus;
use hypre_repro::dblp::{extract, gen};
use hypre_repro::prelude::*;
use hypre_repro::relstore::{Database, FailSchedule, FailingDriver, Predicate};

fn main() -> Result<()> {
    // 1. A corpus, split append-only: 90 % is live at warm-up time, the
    //    last 10 % arrives later as streamed inserts.
    let dataset = gen::generate(&gen::GeneratorConfig {
        papers: 2000,
        authors: 800,
        venues: 30,
        ..gen::GeneratorConfig::default()
    });
    let workload = extract::extract(&dataset, &extract::ExtractionConfig::default());
    let split = split_corpus(&dataset, 0.9);
    println!(
        "corpus: {} papers at warm-up, {} papers + {} authorship links arriving live",
        split.base.table("dblp").expect("dblp exists").len(),
        split.delta_papers,
        split.delta_links,
    );

    // 2. The busiest user's profile drives the serving traffic.
    let mut graph = HypreGraph::new();
    graph.load(&workload.quantitative, &workload.qualitative)?;
    let mut users = graph.users();
    users.sort_by_key(|u| std::cmp::Reverse(graph.positive_profile(*u).len()));
    let user = users[0];
    let atoms = graph.positive_profile(user);
    let predicates: Vec<&Predicate> = atoms.iter().map(|a| &a.predicate).collect();

    // 3. Warm once on the base corpus, publish as epoch 1.
    let warm_start = Instant::now();
    let cache = ProfileCache::warm(&split.base, BaseQuery::dblp(), predicates)?;
    println!(
        "epoch 1: {} predicate sets over a {}-tuple universe, warmed in {:.1} ms",
        cache.len(),
        cache.tuple_universe(),
        warm_start.elapsed().as_secs_f64() * 1e3
    );
    let epochs = EpochCache::new(cache);

    // 4. Hold epoch 1 and serve from it — zero SQL.
    let serve = |epoch: &Epoch, db: &Database| -> Result<Vec<RankedTuple>> {
        let exec = Executor::with_cache_pinned(db, Arc::clone(epoch.cache()))?;
        let pairs = PairwiseCache::build(&atoms, &exec)?;
        let top = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete).top_k(10)?;
        assert_eq!(exec.queries_run(), 0, "a held epoch never re-runs SQL");
        Ok(top)
    };
    let mut held = epochs.current();
    let before = serve(&held, &split.base)?;
    println!(
        "holding epoch {}: top paper {:?} (score {:.3})",
        held.number(),
        before[0].0,
        before[0].1
    );

    // 5. The delta goes live. First, failure-atomicity: an ingest whose
    //    3rd query op faults publishes nothing — epoch 1 keeps serving.
    let driver = FailingDriver::new(split.full.clone(), FailSchedule::nth(3));
    match epochs.ingest(driver.database(), 0) {
        Err(e) => println!("faulted ingest (no retry): {e}"),
        Ok(_) => unreachable!("the scheduled fault must fire"),
    }
    assert_eq!(
        epochs.current_epoch(),
        1,
        "failed ingest left epoch 1 current"
    );
    assert_eq!(serve(&held, &split.base)?, before);
    println!(
        "epoch {} still serving after the fault ({} op started, {} injected)",
        epochs.current_epoch(),
        driver.schedule().ops_started(),
        driver.schedule().injected(),
    );

    // 6. The same ingest with a one-retry budget rides over the fault:
    //    the delta is appended to the touched sets in place (appended
    //    rows' ids lie above every old one) and epoch 2 is published.
    let ingest_start = Instant::now();
    let driver = FailingDriver::new(split.full.clone(), FailSchedule::nth(3));
    let report = epochs.ingest(driver.database(), 1)?;
    println!(
        "epoch 2: ingested {} new tuples, re-scored {} of {} predicates in {:.1} ms \
         (1 fault retried)",
        report.new_tuples,
        report.changed.len(),
        epochs.current().cache().len(),
        ingest_start.elapsed().as_secs_f64() * 1e3,
    );

    // 7. The held epoch still answers epoch-1 results until the server
    //    takes `current()` again at its own boundary — no stop-the-world
    //    anywhere.
    assert_eq!(held.number(), 1);
    assert_eq!(serve(&held, &split.full)?, before);
    held = epochs.current();
    assert_eq!(held.number(), 2, "a newer epoch was published");
    let after = serve(&held, &split.full)?;
    println!(
        "moved onto epoch {}: top paper {:?} (score {:.3})",
        held.number(),
        after[0].0,
        after[0].1
    );

    // 8. The epoch-2 answers are byte-identical to a cold executor over
    //    the full corpus — the epoch path is a pure optimisation.
    let fresh = Executor::new(&split.full, BaseQuery::dblp());
    let fresh_pairs = PairwiseCache::build(&atoms, &fresh)?;
    let want = Peps::new(&atoms, &fresh, &fresh_pairs, PepsVariant::Complete).top_k(10)?;
    assert_eq!(after, want, "epoch+delta must equal a cold full re-warm");
    println!(
        "verified: epoch 2 == cold executor over the full corpus; \
         {} retired epoch(s) held, {} evicted",
        epochs.retired_count(),
        epochs.evicted_count(),
    );
    Ok(())
}
