//! Live-corpus equivalence and failure-atomicity over the generated
//! DBLP corpus: an epoch-advanced snapshot (warm on the base corpus,
//! then `ingest_delta` the appended rows) must rank byte-identically to
//! a fresh executor over the full corpus; stale
//! snapshots must surface as typed errors, never panics; every injected
//! warm-up fault must surface as a typed error with nothing returned; and
//! every injected ingest fault must either retry to success or leave the
//! previous epoch intact and serving.

use std::sync::{Arc, OnceLock};

use hypre_bench::ingest::{split_corpus, CorpusSplit};
use hypre_bench::Fixture;
use hypre_repro::prelude::*;
use hypre_repro::relstore::{Database, FailSchedule, FailingDriver, Predicate, RelError};

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(Fixture::small)
}

/// A 95 % base / 5 % delta split of the fixture corpus — the live-ingest
/// shape of the acceptance criteria.
fn split() -> CorpusSplit {
    split_corpus(&fixture().dataset, 0.95)
}

fn rich_atoms() -> Vec<PrefAtom> {
    fixture().graph.positive_profile(fixture().rich_user)
}

fn warm_on(db: &Database, atoms: &[PrefAtom]) -> ProfileCache {
    let predicates: Vec<&Predicate> = atoms.iter().map(|a| &a.predicate).collect();
    ProfileCache::warm(db, BaseQuery::dblp(), predicates).expect("warm-up succeeds")
}

/// A small distinct-predicate subset, to keep the exhaustive
/// fault-injection sweep proportional to a handful of query ops.
fn few_atoms() -> Vec<PrefAtom> {
    let mut seen = std::collections::HashSet::new();
    rich_atoms()
        .into_iter()
        .filter(|a| seen.insert(a.predicate.canonical()))
        .take(6)
        .collect()
}

#[test]
fn a_changed_corpus_is_a_typed_error_not_a_panic() {
    let split = split();
    let atoms = rich_atoms();
    let cache = Arc::new(warm_on(&split.base, &atoms));

    // Strict open over the grown corpus: typed staleness, not a panic.
    let Err(err) = Executor::with_cache(&split.full, Arc::clone(&cache)) else {
        panic!("grown corpus must be stale for a strict session");
    };
    match &err {
        HypreError::StaleSnapshot {
            table,
            warmed,
            current,
        } => {
            assert_eq!(table, "dblp");
            assert!(current > warmed, "corpus grew");
        }
        other => panic!("expected StaleSnapshot, got {other}"),
    }
    assert!(err.to_string().contains("dblp"), "error names the table");

    // A pinned session tolerates append-only growth: it keeps serving
    // the epoch it started on.
    let pinned = Executor::with_cache_pinned(&split.full, Arc::clone(&cache))
        .expect("append-only growth is fine for a pinned session");
    let pairs = PairwiseCache::build(&atoms, &pinned).unwrap();
    assert!(!Peps::new(&atoms, &pinned, &pairs, PepsVariant::Complete)
        .top_k(10)
        .unwrap()
        .is_empty());
    assert_eq!(
        pinned.queries_run(),
        0,
        "everything comes from the snapshot"
    );

    // A corpus that *shrank* is stale even for a pinned session.
    assert!(matches!(
        Executor::with_cache_pinned(&split.base, Arc::new(warm_on(&split.full, &atoms))),
        Err(HypreError::StaleSnapshot { .. })
    ));
}

#[test]
fn ingested_snapshot_matches_a_fresh_executor() {
    let split = split();
    let atoms = rich_atoms();
    let base_cache = warm_on(&split.base, &atoms);
    let (next, report) = base_cache.ingest_delta(&split.full).unwrap();
    assert!(!report.is_noop(), "a 5% delta must register");
    assert!(report.new_tuples > 0, "appended papers intern new ids");
    let next = Arc::new(next);

    // Ground truth: a cold executor over the full corpus.
    let fresh = Executor::new(&split.full, BaseQuery::dblp());
    let fresh_pairs = PairwiseCache::build(&atoms, &fresh).unwrap();
    for variant in [PepsVariant::Complete, PepsVariant::Approximate] {
        let reference = Peps::new(&atoms, &fresh, &fresh_pairs, variant);
        let want_top = reference.top_k(25).unwrap();
        let want_order = reference.ordered_combinations().unwrap();
        let session = Executor::with_cache(&split.full, Arc::clone(&next))
            .expect("ingested snapshot matches the grown corpus");
        let pairs = PairwiseCache::build(&atoms, &session).unwrap();
        let peps = Peps::new(&atoms, &session, &pairs, variant);
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
        assert_eq!(
            session.queries_run(),
            0,
            "ingest re-derived nothing via SQL"
        );
    }
}

#[test]
fn ingest_of_an_unchanged_corpus_is_a_noop() {
    let split = split();
    let atoms = rich_atoms();
    let cache = warm_on(&split.full, &atoms);
    let (same, report) = cache.ingest_delta(&split.full).unwrap();
    assert!(report.is_noop());
    assert_eq!(report.new_tuples, 0);
    assert_eq!(same.len(), cache.len());

    // Through the epoch layer a no-op publishes nothing.
    let epochs = EpochCache::new(cache);
    assert!(epochs.ingest(&split.full, 0).unwrap().is_noop());
    assert_eq!(
        epochs.current_epoch(),
        1,
        "no-op deltas don't advance epochs"
    );
}

#[test]
fn a_held_epoch_keeps_serving_while_ingest_publishes_the_next() {
    // A deep 40 % delta, so the appended papers demonstrably move the
    // top-20 (a 5 % tail delta can leave the head of the ranking
    // untouched, which would make "old answers" == "new answers").
    let split = split_corpus(&fixture().dataset, 0.6);
    let atoms = rich_atoms();
    let epochs = EpochCache::new(warm_on(&split.base, &atoms));

    // Reference answers over the base and the grown corpus.
    let top_of = |db: &Database| {
        let exec = Executor::new(db, BaseQuery::dblp());
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
            .top_k(20)
            .unwrap()
    };
    let want_old = top_of(&split.base);
    let want_new = top_of(&split.full);
    assert_ne!(
        want_old, want_new,
        "the delta must actually move the ranking"
    );

    // A handle on epoch 1 is held, the corpus grows, a new epoch is
    // published — executors over the held epoch keep serving epoch-1
    // answers, lock-free, with zero SQL.
    let mut held = epochs.current();
    assert_eq!(held.number(), 1);
    let serve = |epoch: &Epoch, db| {
        let exec = Executor::with_cache_pinned(db, Arc::clone(epoch.cache()))
            .expect("a held epoch survives appends");
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let top = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
            .top_k(20)
            .unwrap();
        assert_eq!(exec.queries_run(), 0);
        top
    };
    assert_eq!(serve(&held, &split.base), want_old);

    let report = epochs.ingest(&split.full, 0).unwrap();
    assert!(!report.is_noop());
    assert_eq!(epochs.current_epoch(), 2);
    assert_eq!(held.number(), 1, "publishing does not move a held epoch");
    assert_eq!(
        serve(&held, &split.full),
        want_old,
        "the old epoch keeps serving its own answers mid-ingest"
    );
    assert_eq!(epochs.retired_count(), 1, "epoch 1 is held by the handle");

    // At its next boundary the caller takes `current()` again: it moves
    // onto epoch 2 and the retired epoch is evicted.
    held = epochs.current();
    assert_eq!(held.number(), 2);
    assert_eq!(serve(&held, &split.full), want_new);
    assert_eq!(epochs.current().number(), 2, "nothing newer to move onto");
    assert_eq!(epochs.retired_count(), 0);
    assert_eq!(epochs.evicted_count(), 1);
}

#[test]
fn every_warm_up_fault_is_a_typed_error_with_nothing_returned() {
    let split = split();
    let atoms = few_atoms();
    let predicates: Vec<&Predicate> = atoms.iter().map(|a| &a.predicate).collect();

    // Probe how many query operations one warm-up performs.
    let probe = FailingDriver::new(split.base.clone(), FailSchedule::never());
    ProfileCache::warm(probe.database(), BaseQuery::dblp(), predicates.clone())
        .expect("unfaulted warm-up succeeds");
    let ops = probe.schedule().ops_started();
    assert!(ops >= predicates.len() as u64, "one query per predicate");

    for n in 1..=ops {
        // The nth operation fails and the whole warm-up reports it as a
        // typed error — no partial snapshot escapes.
        let driver = FailingDriver::new(split.base.clone(), FailSchedule::nth(n));
        let Err(err) = ProfileCache::warm(driver.database(), BaseQuery::dblp(), predicates.clone())
        else {
            panic!("op {n}: scheduled fault must surface");
        };
        assert!(
            matches!(err, HypreError::Rel(RelError::FaultInjected(op)) if op == n),
            "op {n}: got {err}"
        );
        assert_eq!(driver.schedule().injected(), 1);
    }
}

#[test]
fn every_ingest_fault_leaves_the_previous_epoch_serving() {
    let split = split();
    let atoms = few_atoms();
    let epochs = EpochCache::new(warm_on(&split.base, &atoms));

    // Probe how many query operations one delta ingest performs.
    let probe = FailingDriver::new(split.full.clone(), FailSchedule::never());
    epochs
        .current()
        .cache()
        .ingest_delta(probe.database())
        .expect("unfaulted ingest succeeds");
    let ops = probe.schedule().ops_started();
    assert!(ops >= 1, "the delta re-scores at least one predicate");

    let serve = |db| {
        let exec = Executor::with_cache_pinned(db, Arc::clone(epochs.current().cache())).unwrap();
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
            .top_k(10)
            .unwrap()
    };
    let before = serve(&split.base);

    for n in 1..=ops {
        let driver = FailingDriver::new(split.full.clone(), FailSchedule::nth(n));
        let err = epochs.ingest(driver.database(), 0).err();
        assert!(
            matches!(err, Some(HypreError::WarmUpFailed { .. })),
            "op {n}: fault must surface as a typed ingest failure"
        );
        assert_eq!(epochs.current_epoch(), 1, "op {n}: failed ingest published");
        assert_eq!(
            serve(&split.full),
            before,
            "op {n}: the previous epoch must keep serving"
        );
    }

    // A bounded retry rides over any single-shot fault: the second
    // attempt's operations land on fresh ordinals.
    let driver = FailingDriver::new(split.full.clone(), FailSchedule::nth(1));
    let report = epochs
        .ingest(driver.database(), 1)
        .expect("one retry clears a one-shot fault");
    assert!(!report.is_noop());
    assert_eq!(epochs.current_epoch(), 2, "the retried ingest published");
    assert_eq!(driver.schedule().injected(), 1);
}
