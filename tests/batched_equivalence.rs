//! The batched-scheduling determinism contract: `BatchScheduler` over
//! randomized session mixes (overlapping and disjoint profiles, k ∈
//! {1, 10, 100}, mixed PEPS variants) must be **byte-identical** to
//! running each session alone on a fresh executor — in every batch
//! composition. Plus the epoch
//! lifecycle: a batch in flight across an `EpochCache::ingest` answers
//! on its held epoch, a batch after the next `current()` answers on the
//! new one, both verified against cold executors (the
//! `tests/live_corpus.rs` shape).
//! The snapshot's pairwise memo is held to the same contract: a batch
//! served from memoised tables, on a freshly ingested epoch, or past the
//! memo's bound answers exactly as a fresh executor does. So are the
//! answers memoised beside the tables, which only whole-snapshot profiles
//! store, per variant and `k`, within their own budget.

use std::sync::{Arc, OnceLock};

use hypre_bench::ingest::split_corpus;
use hypre_bench::{profile_variants, Fixture};
use hypre_repro::core::exec::PAIRWISE_MEMO_ENTRIES;
use hypre_repro::prelude::*;
use hypre_repro::relstore::{Database, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(Fixture::small)
}

/// The distinct profile identities the mixes draw from: the two study
/// users' profiles plus overlapping slices and a blended variant.
fn variants() -> Vec<Vec<PrefAtom>> {
    let fx = fixture();
    profile_variants(
        &fx.graph.positive_profile(fx.rich_user),
        &fx.graph.positive_profile(fx.modest_user),
    )
}

/// A snapshot warmed with every variant predicate, so batches run SQL-free.
fn warmed_cache() -> Arc<ProfileCache> {
    let warm = fixture().executor();
    for profile in variants() {
        for atom in &profile {
            warm.tuple_set(&atom.predicate).unwrap();
        }
    }
    Arc::new(ProfileCache::snapshot(&warm))
}

/// A randomized session mix over the profile variants.
fn random_mix(seed: u64, sessions: usize) -> Vec<BatchRequest> {
    let profiles = variants();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..sessions)
        .map(|_| {
            let profile = profiles[rng.gen_range(0..profiles.len())].clone();
            let k = [1usize, 10, 100][rng.gen_range(0..3usize)];
            let variant = if rng.gen_bool(0.3) {
                PepsVariant::Approximate
            } else {
                PepsVariant::Complete
            };
            BatchRequest::new(profile, k).with_variant(variant)
        })
        .collect()
}

/// The reference: the request run alone on a fresh, fully sequential
/// executor (cold — its own SQL, its own interning).
fn solo(db: &Database, req: &BatchRequest) -> Vec<RankedTuple> {
    let exec = Executor::new(db, BaseQuery::dblp());
    let pairs = PairwiseCache::build(&req.atoms, &exec).unwrap();
    Peps::new(&req.atoms, &exec, &pairs, req.variant)
        .top_k(req.k)
        .unwrap()
}

#[test]
fn batched_matches_solo_execution_on_random_mixes() {
    let fx = fixture();
    let cache = warmed_cache();
    for seed in [11u64, 42, 2026] {
        let mix = random_mix(seed, 12);
        let want: Vec<Vec<RankedTuple>> = mix.iter().map(|req| solo(&fx.db, req)).collect();
        let out = BatchScheduler::sequential()
            .run(&fx.db, &cache, &mix)
            .unwrap();
        for (i, (got, want)) in out.results.iter().zip(&want).enumerate() {
            assert_eq!(
                got.as_ref().unwrap(),
                want,
                "request {i} diverged from solo execution (seed {seed})"
            );
        }
        assert_eq!(out.stats.requests, mix.len());
        assert!(
            out.stats.groups < mix.len(),
            "a 12-session mix over {} profiles must share evaluations \
             (got {} groups)",
            variants().len(),
            out.stats.groups
        );
        assert_eq!(out.stats.shared, mix.len() - out.stats.groups);
        assert_eq!(out.stats.queries_run, 0, "warmed snapshot serves SQL-free");
    }
}

#[test]
fn skewed_batches_stay_byte_identical() {
    // A deliberately skewed mix — one heavy profile repeated (one big
    // group whose expansion dominates) next to light singletons. Every
    // answer must still match solo execution exactly.
    let fx = fixture();
    let cache = warmed_cache();
    let profiles = variants();
    let heavy = profiles
        .iter()
        .max_by_key(|p| p.len())
        .expect("variants is non-empty")
        .clone();
    let mut mix: Vec<BatchRequest> = (0..4)
        .map(|_| BatchRequest::new(heavy.clone(), 100))
        .collect();
    for p in &profiles {
        mix.push(BatchRequest::new(p.clone(), 5));
    }
    let want: Vec<Vec<RankedTuple>> = mix.iter().map(|req| solo(&fx.db, req)).collect();
    let out = BatchScheduler::sequential()
        .run(&fx.db, &cache, &mix)
        .unwrap();
    for (i, (got, want)) in out.results.iter().zip(&want).enumerate() {
        assert_eq!(got.as_ref().unwrap(), want, "request {i} diverged");
    }
    assert_eq!(
        out.stats.groups,
        profiles.len(),
        "the four heavy copies share one evaluation"
    );
}

#[test]
fn batch_composition_cannot_change_an_answer() {
    // The same request must get the same bytes whether it rides alone,
    // with strangers, or duplicated — batching dedups computation, it
    // never blends it.
    let fx = fixture();
    let cache = warmed_cache();
    let scheduler = BatchScheduler::sequential();
    let mix = random_mix(7, 10);
    let in_batch = scheduler.run(&fx.db, &cache, &mix).unwrap();
    for (i, req) in mix.iter().enumerate() {
        let alone = scheduler
            .run(&fx.db, &cache, std::slice::from_ref(req))
            .unwrap();
        assert_eq!(
            alone.results[0].as_ref().unwrap(),
            in_batch.results[i].as_ref().unwrap(),
            "request {i} answered differently alone vs in a batch of {}",
            mix.len()
        );
    }
    // And a doubled batch answers both copies identically.
    let mut doubled = mix.clone();
    doubled.extend(mix.iter().cloned());
    let out = scheduler.run(&fx.db, &cache, &doubled).unwrap();
    for i in 0..mix.len() {
        assert_eq!(
            out.results[i].as_ref().unwrap(),
            out.results[i + mix.len()].as_ref().unwrap(),
            "duplicated request {i} diverged inside one batch"
        );
    }
}

#[test]
fn mixed_k_inside_one_group_matches_every_standalone_k() {
    // k ∈ {1, 10, 100} over the *same* profile lands in one group and
    // one shared round evaluation; each k's ranking must still be what
    // a standalone top_k(k) returns — including the early-termination
    // point, which differs per k.
    let fx = fixture();
    let cache = warmed_cache();
    let profile = variants().remove(0);
    let mix: Vec<BatchRequest> = [1usize, 10, 100, 10, 1]
        .into_iter()
        .map(|k| BatchRequest::new(profile.clone(), k))
        .collect();
    let out = BatchScheduler::sequential()
        .run(&fx.db, &cache, &mix)
        .unwrap();
    assert_eq!(out.stats.groups, 1, "one profile identity, one evaluation");
    for (got, req) in out.results.iter().zip(&mix) {
        assert_eq!(got.as_ref().unwrap(), &solo(&fx.db, req), "k = {}", req.k);
    }
}

#[test]
fn in_flight_batches_pin_their_epoch_and_the_next_batch_takes_the_new_one() {
    // The live-corpus lifecycle, batched: warm on the base corpus,
    // publish epoch 1, hold it; ingest the delta to epoch 2 while epoch 1
    // is still held. Batches on the held epoch answer epoch-1 results
    // (verified against a cold executor on the base corpus); once the
    // caller takes `current()` again the same batches answer epoch-2
    // results (verified against a cold executor on the full corpus).
    let fx = fixture();
    let split = split_corpus(&fx.dataset, 0.6);
    let profiles = variants();
    let predicates: Vec<&Predicate> = profiles
        .iter()
        .flat_map(|p| p.iter().map(|a| &a.predicate))
        .collect();
    let cache = ProfileCache::warm(&split.base, BaseQuery::dblp(), predicates).unwrap();
    let epochs = EpochCache::new(cache);
    let mut held = epochs.current();
    assert_eq!(held.number(), 1);

    let mix: Vec<BatchRequest> = profiles
        .iter()
        .map(|p| BatchRequest::new(p.clone(), 20))
        .collect();
    let want_old: Vec<Vec<RankedTuple>> = mix.iter().map(|r| solo(&split.base, r)).collect();
    let want_new: Vec<Vec<RankedTuple>> = mix.iter().map(|r| solo(&split.full, r)).collect();
    assert_ne!(
        want_old[0], want_new[0],
        "the delta must actually move the top-20"
    );

    let scheduler = BatchScheduler::sequential();
    let before = scheduler.run(&split.full, held.cache(), &mix).unwrap();
    for (got, want) in before.results.iter().zip(&want_old) {
        assert_eq!(got.as_ref().unwrap(), want, "epoch-1 batch");
    }

    // The delta goes live mid-serving: epoch 2 published, epoch 1 still
    // held — its batches must keep answering old results.
    let report = epochs.ingest(&split.full, 0).unwrap();
    assert!(report.new_tuples > 0);
    assert_eq!(epochs.current_epoch(), 2);
    assert_eq!(held.number(), 1, "no stop-the-world: the pin holds");
    let pinned = scheduler.run(&split.full, held.cache(), &mix).unwrap();
    for (got, want) in pinned.results.iter().zip(&want_old) {
        assert_eq!(
            got.as_ref().unwrap(),
            want,
            "a batch in flight on the pinned epoch must not see the ingest"
        );
    }

    // Take `current()` again at the batch boundary: the very next batch
    // serves epoch 2.
    held = epochs.current();
    assert_eq!(held.number(), 2, "a newer epoch was published");
    let after = scheduler.run(&split.full, held.cache(), &mix).unwrap();
    for (got, want) in after.results.iter().zip(&want_new) {
        assert_eq!(got.as_ref().unwrap(), want, "epoch-2 batch");
    }
    assert_eq!(
        after.stats.queries_run, 0,
        "the ingested epoch serves SQL-free"
    );
}

#[test]
fn a_second_run_served_from_the_memo_matches_solo_execution() {
    let fx = fixture();
    let cache = warmed_cache();
    let mix = random_mix(5, 16);
    let want: Vec<Vec<RankedTuple>> = mix.iter().map(|req| solo(&fx.db, req)).collect();
    let scheduler = BatchScheduler::sequential();
    let first = scheduler.run(&fx.db, &cache, &mix).unwrap();
    assert!(
        cache.pairwise_memo_entries() > 0,
        "the first run fills the memo"
    );
    let second = scheduler.run(&fx.db, &cache, &mix).unwrap();
    assert_eq!(
        second.stats.pairwise_reused, second.stats.groups,
        "every group of the second run reuses a memoised table"
    );
    for (i, want) in want.iter().enumerate() {
        assert_eq!(
            first.results[i].as_ref().unwrap(),
            want,
            "request {i}, first run"
        );
        assert_eq!(
            second.results[i].as_ref().unwrap(),
            want,
            "request {i}, from the memo"
        );
    }
}

#[test]
fn an_ingested_epoch_starts_an_empty_memo_and_matches_the_grown_corpus() {
    let fx = fixture();
    let split = split_corpus(&fx.dataset, 0.6);
    let profiles = variants();
    let predicates: Vec<&Predicate> = profiles
        .iter()
        .flat_map(|p| p.iter().map(|a| &a.predicate))
        .collect();
    let cache = ProfileCache::warm(&split.base, BaseQuery::dblp(), predicates).unwrap();
    let epochs = EpochCache::new(cache);
    let mix: Vec<BatchRequest> = profiles
        .iter()
        .map(|p| BatchRequest::new(p.clone(), 20))
        .collect();
    let scheduler = BatchScheduler::sequential();
    scheduler
        .run(&split.full, epochs.current().cache(), &mix)
        .unwrap();
    assert!(epochs.current().cache().pairwise_memo_entries() > 0);

    epochs.ingest(&split.full, 0).unwrap();
    let epoch = epochs.current();
    assert_eq!(epoch.number(), 2);
    assert_eq!(
        epoch.cache().pairwise_memo_entries(),
        0,
        "a new epoch starts empty"
    );
    let want: Vec<Vec<RankedTuple>> = mix.iter().map(|r| solo(&split.full, r)).collect();
    for round in 0..2 {
        let out = scheduler.run(&split.full, epoch.cache(), &mix).unwrap();
        let reused = if round == 0 { 0 } else { out.stats.groups };
        assert_eq!(out.stats.pairwise_reused, reused, "round {round}");
        for (i, (got, want)) in out.results.iter().zip(&want).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "request {i}, round {round}");
        }
    }
}

#[test]
fn past_the_memo_bound_answers_are_unchanged_and_the_memo_stays_bounded() {
    // 60 profiles of 200 pairwise-disjoint atoms, told apart only by
    // their intensities: 60 tables of 19,900 entries, more than the
    // memo holds.
    let fx = fixture();
    let atoms = 200usize;
    let predicates: Vec<Predicate> = (1..=atoms)
        .map(|pid| hypre_repro::relstore::parse_predicate(&format!("dblp.pid={pid}")).unwrap())
        .collect();
    let cache = Arc::new(ProfileCache::warm(&fx.db, BaseQuery::dblp(), &predicates).unwrap());
    let mix: Vec<BatchRequest> = (0..60)
        .map(|v| {
            let profile = predicates
                .iter()
                .enumerate()
                .map(|(i, p)| PrefAtom::new(i, p.clone(), 0.9 - 0.004 * i as f64 + v as f64 * 1e-6))
                .collect();
            BatchRequest::new(profile, 1 + v % 3)
        })
        .collect();
    let cost = atoms * (atoms - 1) / 2 + 1;
    let fits = PAIRWISE_MEMO_ENTRIES / cost;
    assert!(fits < mix.len(), "the mix must overflow the memo");

    let fresh = Executor::new(&fx.db, BaseQuery::dblp());
    let want: Vec<Vec<RankedTuple>> = mix
        .iter()
        .map(|req| {
            let pairs = PairwiseCache::build(&req.atoms, &fresh).unwrap();
            Peps::new(&req.atoms, &fresh, &pairs, req.variant)
                .top_k(req.k)
                .unwrap()
        })
        .collect();
    let scheduler = BatchScheduler::sequential();
    for round in 0..2 {
        let out = scheduler.run(&fx.db, &cache, &mix).unwrap();
        assert_eq!(out.stats.groups, mix.len());
        let reused = if round == 0 { 0 } else { fits };
        assert_eq!(out.stats.pairwise_reused, reused, "round {round}");
        assert_eq!(cache.pairwise_memo_entries(), fits * cost);
        assert!(cache.pairwise_memo_entries() <= PAIRWISE_MEMO_ENTRIES);
        for (i, (got, want)) in out.results.iter().zip(&want).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "request {i}, round {round}");
        }
    }
}

/// `profile` edited by `fresh` atoms, re-sorted strongest first as the
/// server sorts an admitted profile (stable, so the warmed atoms keep
/// their order).
fn edited(profile: &[PrefAtom], fresh: &[(&str, f64)]) -> Vec<PrefAtom> {
    let mut atoms: Vec<PrefAtom> = profile.to_vec();
    for &(text, intensity) in fresh {
        let predicate = hypre_repro::relstore::parse_predicate(text).unwrap();
        atoms.push(PrefAtom::new(0, predicate, intensity));
    }
    atoms.sort_by(|a, b| b.intensity.total_cmp(&a.intensity));
    for (i, atom) in atoms.iter_mut().enumerate() {
        atom.index = i;
    }
    atoms
}

#[test]
fn edited_profiles_extend_their_warmed_parts_memoised_tables() {
    // One warmed profile with different fresh atoms (middle, last, two
    // at once), the plain profile, and a second warmed profile with its
    // own fresh atom. Only the two warmed profiles' tables enter the
    // memo; every edited group extends one of them.
    let fx = fixture();
    let cache = warmed_cache();
    let profiles = variants();
    let (base, other) = (&profiles[0], &profiles[1]);
    let mix = vec![
        BatchRequest::new(edited(base, &[("dblp.pid BETWEEN 100 AND 400", 0.45)]), 10),
        BatchRequest::new(
            edited(base, &[("dblp.pid IN (3, 70, 500, 900)", 0.01)]),
            100,
        ),
        BatchRequest::new(
            edited(
                base,
                &[
                    ("dblp.pid BETWEEN 100 AND 400", 0.45),
                    ("dblp.pid BETWEEN 20 AND 60", 0.99),
                ],
            ),
            10,
        ),
        BatchRequest::new(base.clone(), 10),
        BatchRequest::new(edited(other, &[("dblp.pid BETWEEN 5 AND 800", 0.3)]), 10)
            .with_variant(PepsVariant::Approximate),
    ];
    let want: Vec<Vec<RankedTuple>> = mix.iter().map(|req| solo(&fx.db, req)).collect();
    let tables = |n: usize| n * (n - 1) / 2 + 1;
    let sub_tables = tables(base.len()) + tables(other.len());
    let scheduler = BatchScheduler::sequential();
    for round in 0..2 {
        let out = scheduler.run(&fx.db, &cache, &mix).unwrap();
        assert_eq!(out.stats.groups, mix.len(), "round {round}");
        assert_eq!(out.stats.queries_run, 4, "four fresh atoms, round {round}");
        // The first run builds each warmed profile's table once.
        let reused = if round == 0 { mix.len() - 2 } else { mix.len() };
        assert_eq!(out.stats.pairwise_reused, reused, "round {round}");
        assert_eq!(
            cache.pairwise_memo_entries(),
            sub_tables,
            "only the warmed tables are memoised (round {round})"
        );
        for (i, (got, want)) in out.results.iter().zip(&want).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "request {i}, round {round}");
        }
    }
}

/// Warms a snapshot of `fx.db` with `profile`'s predicates.
fn warmed_with(profile: &[PrefAtom]) -> Arc<ProfileCache> {
    let predicates = profile.iter().map(|a| &a.predicate);
    Arc::new(ProfileCache::warm(&fixture().db, BaseQuery::dblp(), predicates).unwrap())
}

/// Atoms of the given predicate texts and intensities, in order.
fn atoms_of(specs: &[(&str, f64)]) -> Vec<PrefAtom> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(text, intensity))| {
            PrefAtom::new(
                i,
                hypre_repro::relstore::parse_predicate(text).unwrap(),
                intensity,
            )
        })
        .collect()
}

#[test]
fn a_second_run_answers_every_whole_snapshot_group_from_the_memo() {
    // One k per (profile, variant), so each group holds one answer; the
    // last request repeats the first and shares its group.
    let fx = fixture();
    let cache = warmed_cache();
    let mut mix: Vec<BatchRequest> = Vec::new();
    for (i, profile) in variants().into_iter().enumerate() {
        let k = [1usize, 10, 100][i % 3];
        mix.push(BatchRequest::new(profile.clone(), k));
        mix.push(BatchRequest::new(profile, k + 1).with_variant(PepsVariant::Approximate));
    }
    mix.push(mix[0].clone());
    let want: Vec<Vec<RankedTuple>> = mix.iter().map(|req| solo(&fx.db, req)).collect();
    let scheduler = BatchScheduler::sequential();
    let mut tally = 0;
    for round in 0..2 {
        let out = scheduler.run(&fx.db, &cache, &mix).unwrap();
        assert_eq!(out.stats.groups, mix.len() - 1, "round {round}");
        let reused = if round == 0 { 0 } else { out.stats.groups };
        assert_eq!(out.stats.answers_reused, reused, "round {round}");
        if round == 0 {
            tally = cache.answer_memo_tuples();
            let answers: usize = want[..mix.len() - 1].iter().map(|w| w.len() + 1).sum();
            assert_eq!(tally, answers, "one answer per group");
        } else {
            assert_eq!(out.stats.pairwise_reused, out.stats.groups);
            assert_eq!(cache.answer_memo_tuples(), tally, "nothing new to store");
        }
        for (i, (got, want)) in out.results.iter().zip(&want).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "request {i}, round {round}");
        }
    }
}

#[test]
fn a_group_runs_peps_only_for_the_k_its_memo_entry_lacks() {
    let fx = fixture();
    let cache = warmed_cache();
    let profile = variants().remove(0);
    let ten = BatchRequest::new(profile.clone(), 10);
    let hundred = BatchRequest::new(profile, 100);
    let (want_ten, want_hundred) = (solo(&fx.db, &ten), solo(&fx.db, &hundred));
    assert_ne!(want_ten.len(), want_hundred.len());
    let scheduler = BatchScheduler::sequential();

    let first = scheduler
        .run(&fx.db, &cache, std::slice::from_ref(&ten))
        .unwrap();
    assert_eq!(first.results[0].as_ref().unwrap(), &want_ten);
    assert_eq!(cache.answer_memo_tuples(), want_ten.len() + 1);

    // k = 10 comes from the memo; PEPS runs for k = 100 alone, and only
    // its answer joins the memo.
    let mixed = [hundred.clone(), ten.clone(), hundred];
    let out = scheduler.run(&fx.db, &cache, &mixed).unwrap();
    assert_eq!((out.stats.groups, out.stats.answers_reused), (1, 1));
    assert_eq!(
        cache.answer_memo_tuples(),
        want_ten.len() + 1 + want_hundred.len() + 1
    );
    for (got, want) in out
        .results
        .iter()
        .zip([&want_hundred, &want_ten, &want_hundred])
    {
        assert_eq!(got.as_ref().unwrap(), want);
    }

    let again = scheduler.run(&fx.db, &cache, &mixed).unwrap();
    assert_eq!(again.stats.answers_reused, 2);
    for (got, want) in again
        .results
        .iter()
        .zip([&want_hundred, &want_ten, &want_hundred])
    {
        assert_eq!(got.as_ref().unwrap(), want);
    }
}

#[test]
fn complete_and_approximate_never_share_a_memoised_answer() {
    // Paper 3 matches b, c and d: b ∧ c ∧ d (0.657) beats a (0.6), but
    // no pair of them does (0.51). Complete admits b ∧ c in the first
    // round and ranks paper 3 first; Approximate stops after that round
    // with a's papers.
    let fx = fixture();
    let profile = atoms_of(&[
        ("dblp.pid IN (1, 2)", 0.6),
        ("dblp.pid IN (3, 5)", 0.3),
        ("dblp.pid IN (3, 6)", 0.3),
        ("dblp.pid IN (3, 7)", 0.3),
    ]);
    let complete = BatchRequest::new(profile.clone(), 1);
    let approximate = BatchRequest::new(profile, 1).with_variant(PepsVariant::Approximate);
    let (want_c, want_a) = (solo(&fx.db, &complete), solo(&fx.db, &approximate));
    assert_ne!(want_c, want_a, "the variants must answer differently");
    let scheduler = BatchScheduler::sequential();
    for order in [[&complete, &approximate], [&approximate, &complete]] {
        // Each variant rides alone, after the other's answer is memoised.
        let cache = warmed_with(&complete.atoms);
        for round in 0..2 {
            for req in order {
                let out = scheduler
                    .run(&fx.db, &cache, std::slice::from_ref(req))
                    .unwrap();
                assert_eq!(out.stats.answers_reused, round, "round {round}");
                let want = if req.variant == PepsVariant::Complete {
                    &want_c
                } else {
                    &want_a
                };
                assert_eq!(out.results[0].as_ref().unwrap(), want, "round {round}");
            }
        }
    }
}

#[test]
fn edited_profiles_never_store_an_answer() {
    let fx = fixture();
    let cache = warmed_cache();
    let profiles = variants();
    let mix = vec![
        BatchRequest::new(
            edited(&profiles[0], &[("dblp.pid BETWEEN 100 AND 400", 0.45)]),
            10,
        ),
        BatchRequest::new(
            edited(&profiles[1], &[("dblp.pid IN (3, 70, 500)", 0.01)]),
            100,
        )
        .with_variant(PepsVariant::Approximate),
        BatchRequest::new(atoms_of(&[("dblp.pid BETWEEN 5 AND 800", 0.3)]), 10),
    ];
    let want: Vec<Vec<RankedTuple>> = mix.iter().map(|req| solo(&fx.db, req)).collect();
    let scheduler = BatchScheduler::sequential();
    for round in 0..2 {
        let out = scheduler.run(&fx.db, &cache, &mix).unwrap();
        assert_eq!(out.stats.answers_reused, 0, "round {round}");
        assert_eq!(cache.answer_memo_tuples(), 0, "round {round}");
        for (i, (got, want)) in out.results.iter().zip(&want).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "request {i}, round {round}");
        }
    }
    assert!(
        cache.pairwise_memo_entries() > 0,
        "the warmed parts' tables are"
    );
}

#[test]
fn an_ingested_epoch_starts_with_no_answers() {
    let fx = fixture();
    let split = split_corpus(&fx.dataset, 0.6);
    let profiles = variants();
    let predicates: Vec<&Predicate> = profiles
        .iter()
        .flat_map(|p| p.iter().map(|a| &a.predicate))
        .collect();
    let cache = ProfileCache::warm(&split.base, BaseQuery::dblp(), predicates).unwrap();
    let epochs = EpochCache::new(cache);
    let mix: Vec<BatchRequest> = profiles
        .iter()
        .map(|p| BatchRequest::new(p.clone(), 20))
        .collect();
    let want_old: Vec<Vec<RankedTuple>> = mix.iter().map(|r| solo(&split.base, r)).collect();
    let want_new: Vec<Vec<RankedTuple>> = mix.iter().map(|r| solo(&split.full, r)).collect();
    assert_ne!(want_old, want_new, "the delta must move an answer");
    let scheduler = BatchScheduler::sequential();
    let old = scheduler
        .run(&split.full, epochs.current().cache(), &mix)
        .unwrap();
    for (got, want) in old.results.iter().zip(&want_old) {
        assert_eq!(got.as_ref().unwrap(), want, "epoch 1");
    }
    assert!(epochs.current().cache().answer_memo_tuples() > 0);

    epochs.ingest(&split.full, 0).unwrap();
    let epoch = epochs.current();
    assert_eq!(epoch.number(), 2);
    assert_eq!(
        epoch.cache().answer_memo_tuples(),
        0,
        "a new epoch has none"
    );
    for round in 0..2 {
        let out = scheduler.run(&split.full, epoch.cache(), &mix).unwrap();
        let reused = if round == 0 { 0 } else { out.stats.groups };
        assert_eq!(out.stats.answers_reused, reused, "round {round}");
        for (i, (got, want)) in out.results.iter().zip(&want_new).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "request {i}, round {round}");
        }
    }
}

#[test]
fn past_the_answer_budget_answers_are_unchanged_and_the_tally_stays_bounded() {
    // One atom matching every paper: each k past the paper count answers
    // the whole ranking, so a few hundred distinct ks overflow the
    // budget. Batches of 64 ks keep the replies small.
    let fx = fixture();
    let profile = atoms_of(&[("dblp.pid>=0", 0.5)]);
    let cache = warmed_with(&profile);
    let papers = fx.db.table("dblp").unwrap().len();
    let want = solo(&fx.db, &BatchRequest::new(profile.clone(), papers));
    assert_eq!(want.len(), papers);
    let cost = papers + 1;
    let fits = PAIRWISE_MEMO_ENTRIES / cost;
    let ks: Vec<usize> = (papers..papers + fits + 40).collect();
    assert_eq!(
        solo(
            &fx.db,
            &BatchRequest::new(profile.clone(), ks[ks.len() - 1])
        ),
        want
    );
    let scheduler = BatchScheduler::sequential();
    for round in 0..2 {
        let mut reused = 0;
        for chunk in ks.chunks(64) {
            let mix: Vec<BatchRequest> = chunk
                .iter()
                .map(|&k| BatchRequest::new(profile.clone(), k))
                .collect();
            let out = scheduler.run(&fx.db, &cache, &mix).unwrap();
            reused += out.stats.answers_reused;
            for (got, req) in out.results.iter().zip(&mix) {
                assert_eq!(got.as_ref().unwrap(), &want, "k = {}, round {round}", req.k);
            }
            assert!(cache.answer_memo_tuples() <= PAIRWISE_MEMO_ENTRIES);
        }
        assert_eq!(reused, if round == 0 { 0 } else { fits }, "round {round}");
        assert_eq!(cache.answer_memo_tuples(), fits * cost, "round {round}");
    }
}
