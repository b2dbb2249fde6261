//! Live-corpus equivalence and failure-atomicity over the generated
//! DBLP corpus: an epoch-advanced snapshot (warm on the base corpus,
//! then `ingest_delta` the appended rows) must rank byte-identically to
//! a fresh executor over the full corpus; stale
//! snapshots must surface as typed errors, never panics; and every
//! injected query fault must either retry to success or leave the
//! previous epoch intact and serving.

use std::sync::{Arc, OnceLock};

use hypre_bench::ingest::{split_corpus, CorpusSplit};
use hypre_bench::Fixture;
use hypre_repro::prelude::*;
use hypre_repro::relstore::{FailSchedule, FailingDriver, Predicate};

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

fn warm_on(db: &hypre_repro::relstore::Database, atoms: &[PrefAtom]) -> ProfileCache {
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
fn ingested_snapshot_matches_a_fresh_executor_at_every_worker_count() {
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
fn pairwise_refresh_over_the_delta_matches_a_full_rebuild() {
    let split = split();
    let atoms = rich_atoms();
    let base_cache = Arc::new(warm_on(&split.base, &atoms));
    let old_session = Executor::with_cache(&split.base, Arc::clone(&base_cache)).unwrap();
    let old_pairs = PairwiseCache::build(&atoms, &old_session).unwrap();

    let (next, report) = base_cache.ingest_delta(&split.full).unwrap();
    let flags = report.changed_flags(&atoms);
    assert!(flags.iter().any(|&c| c), "the delta touches some atoms");
    let session = Executor::with_cache(&split.full, Arc::new(next)).unwrap();
    let refreshed = old_pairs.refresh_for(&atoms, &session, &flags).unwrap();
    let rebuilt = PairwiseCache::build(&atoms, &session).unwrap();
    assert_eq!(refreshed.entries(), rebuilt.entries());
    assert_eq!(refreshed.applicable_count(), rebuilt.applicable_count());
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
fn epoch_sessions_drain_without_stop_the_world() {
    // A deep 40 % delta, so the appended papers demonstrably move the
    // top-20 (a 5 % tail delta can leave the head of the ranking
    // untouched, which would make "old answers" == "new answers").
    let split = split_corpus(&fixture().dataset, 0.6);
    let atoms = rich_atoms();
    let epochs = EpochCache::new(warm_on(&split.base, &atoms));

    // Reference answers over the base and the grown corpus.
    let top_of = |db: &hypre_repro::relstore::Database| {
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

    // A session opens on epoch 1, the corpus grows, a new epoch is
    // published — the pinned session keeps serving epoch-1 answers,
    // lock-free, with zero SQL.
    let mut session = EpochSession::open(&epochs);
    assert_eq!(session.epoch(), 1);
    let serve = |session: &EpochSession, db| {
        let exec = session
            .executor(db)
            .expect("pinned sessions survive appends");
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let top = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
            .top_k(20)
            .unwrap();
        assert_eq!(exec.queries_run(), 0);
        top
    };
    assert_eq!(serve(&session, &split.base), want_old);

    let report = epochs.ingest(&split.full, 0).unwrap();
    assert!(!report.is_noop());
    assert_eq!(epochs.current_epoch(), 2);
    assert_eq!(
        session.epoch(),
        1,
        "publishing does not move pinned sessions"
    );
    assert_eq!(
        serve(&session, &split.full),
        want_old,
        "the old epoch keeps serving its own answers mid-ingest"
    );
    assert_eq!(epochs.retired_count(), 1, "epoch 1 is held for the session");

    // At its next boundary the session drains onto epoch 2 and the
    // retired epoch is evicted.
    assert!(session.drain(&epochs));
    assert_eq!(session.epoch(), 2);
    assert_eq!(serve(&session, &split.full), want_new);
    assert!(!session.drain(&epochs), "drain is idempotent");
    assert_eq!(epochs.retired_count(), 0);
    assert_eq!(epochs.evicted_count(), 1);
}

#[test]
fn every_warm_up_fault_retries_to_success_or_fails_atomically() {
    let split = split();
    let atoms = few_atoms();
    let predicates: Vec<&Predicate> = atoms.iter().map(|a| &a.predicate).collect();

    // Probe how many query operations one warm-up performs.
    let probe = FailingDriver::new(split.base.clone(), FailSchedule::never());
    let clean = ProfileCache::warm(probe.database(), BaseQuery::dblp(), predicates.clone())
        .expect("unfaulted warm-up succeeds");
    let ops = probe.schedule().ops_started();
    assert!(ops >= predicates.len() as u64, "one query per predicate");

    for n in 1..=ops {
        // Zero retries: the nth operation fails and the whole warm-up
        // reports a typed exhaustion — no partial snapshot escapes.
        let driver = FailingDriver::new(split.base.clone(), FailSchedule::nth(n));
        let Err(err) = ProfileCache::warm_with_retry(
            driver.database(),
            BaseQuery::dblp(),
            predicates.clone(),
            0,
        ) else {
            panic!("op {n}: scheduled fault must surface");
        };
        assert!(
            matches!(err, HypreError::WarmUpFailed { attempts: 1, .. }),
            "op {n}: got {err}"
        );
        assert_eq!(driver.schedule().injected(), 1);

        // One retry: the second attempt runs on later ordinals and
        // completes; the result is indistinguishable from a clean warm.
        let driver = FailingDriver::new(split.base.clone(), FailSchedule::nth(n));
        let warmed = ProfileCache::warm_with_retry(
            driver.database(),
            BaseQuery::dblp(),
            predicates.clone(),
            1,
        )
        .expect("retry must succeed past a one-shot fault");
        assert_eq!(warmed.len(), clean.len());
        assert_eq!(warmed.tuple_universe(), clean.tuple_universe());
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
        let session = EpochSession::open(&epochs);
        let exec = session.executor(db).unwrap();
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
