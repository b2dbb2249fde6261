//! Batched cross-session scheduling: evaluate each distinct round
//! expansion once, demultiplex per-session Top-K answers.
//!
//! At serving scale most concurrent `top_k` calls are not unique work:
//! popular profiles repeat across sessions, and a warmed
//! [`ProfileCache`] hands every session *pointer-identical*
//! [`SharedTupleSet`]s for the same canonical predicate.
//! [`BatchScheduler`] exploits that: it groups the
//! requests of one batch by **profile-atom identity** — two requests
//! land in the same group exactly when their atom lists pair up with
//! [`Arc::ptr_eq`]-identical tuple sets and bit-identical intensities
//! under the same [`PepsVariant`] — runs the PEPS rounds **at most once
//! per group** through [`Peps::top_k_multi`] (not at all when the
//! snapshot's memo holds every requested answer, below), and fans the
//! per-`k` rankings back out to each member session.
//!
//! # Determinism contract
//!
//! Batching is a pure dedup of evaluations:
//!
//! * a group only forms when the inputs of the PEPS rounds (tuple sets,
//!   intensities, variant) are identical, so the shared evaluation *is*
//!   the evaluation each member would have run alone;
//! * [`Peps::top_k_multi`] snapshots each requested `k` at exactly the
//!   round where a standalone `top_k(k)` would have early-terminated,
//!   so mixed `k`s inside a group cannot perturb each other;
//! * groups are formed and evaluated in first-occurrence request order,
//!   one after another on the calling thread.
//!
//! Hence every answer is **byte-identical in every batch composition**
//! to running that session alone on a fresh executor — the contract
//! `tests/batched_equivalence.rs` pins.
//!
//! # Pairwise and answer memo
//!
//! A group's PEPS rounds read its profile's pairwise table (§5.5). The
//! paper computes that table once per profile and updates it "when the
//! preference graph is updated"; here the snapshot keeps it. Each group
//! resolves its atoms once, while grouping, and both the table and the
//! PEPS rounds read those sets. The atoms whose sets came from the
//! snapshot itself key the snapshot's memo by their part of the
//! grouping key (set pointers plus intensity bits, in profile order):
//!
//! * when every atom came from the snapshot, the group's table is
//!   looked up there and built only on a miss (see [`ProfileCache`] for
//!   the bound and the lifetime);
//! * when at least two did and others did not — a warmed profile edited
//!   by atoms from the batch memo or SQL, at any positions — the table
//!   of the snapshot atoms alone is looked up or built and memoised,
//!   then [extended](PairwiseCache::extend) to the whole profile: its
//!   pairs are copied and only the pairs that touch another atom are
//!   scored. The extended table is never memoised: the other atoms' set
//!   pointers die with the batch;
//! * otherwise the group builds its table without the memo.
//!
//! A whole-snapshot group also keeps its answers there: the entry it
//! looked its table up in holds the finished answers of that profile by
//! variant and `k`. The group takes each requested `k`'s answer from
//! the entry, runs [`Peps::top_k_multi`] only for the `k`s the entry
//! lacks, and stores their answers while the memo's answer budget has
//! room. An edited group reads and stores no answer: its key names only
//! part of its profile.
//!
//! A table is a pure function of its sets and intensities, and an
//! extended table equals the one built from scratch, so a memoised or
//! extended table is the table the group would have built. An answer is
//! a pure function of the table, the sets, the variant and `k` (each
//! `k`'s answer is the same whatever other `k`s run with it), so a
//! memoised answer is the one PEPS would return. The determinism
//! contract above holds for both.
//!
//! # Epoch integration
//!
//! A scheduler holds no corpus state: each [`BatchScheduler::run`] call
//! takes the database and the `Arc<ProfileCache>` snapshot to serve
//! from. A serving loop holds the `Arc<Epoch>` that
//! [`EpochCache::current`](crate::exec::EpochCache::current) returns for
//! a batch and takes it afresh for the next, as [`crate::serve`] does:
//! an in-flight batch keeps answering on the epoch it started on, and
//! the next batch picks up the newest published epoch, whose memo of
//! tables and answers starts empty, so no answer outlives its epoch
//! (`tests/batched_equivalence.rs` pins that lifecycle too).

use std::collections::HashMap;
use std::sync::Arc;

use relstore::Database;

use crate::algo::peps::{Peps, PepsVariant, RankedTuple};
use crate::combine::PrefAtom;
use crate::error::{HypreError, Result};
use crate::exec::{Executor, MemoAnswer, PairwiseCache, ProfileCache, ProfileKey, SharedTupleSet};

/// One session's Top-K call, queued for batched evaluation.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The session's positive profile, in descending intensity order
    /// (the order [`HypreGraph::positive_profile`](crate::graph::HypreGraph::positive_profile)
    /// returns).
    pub atoms: Vec<PrefAtom>,
    /// How many tuples the session asked for.
    pub k: usize,
    /// Which PEPS variant the session runs.
    pub variant: PepsVariant,
}

impl BatchRequest {
    /// A Complete-variant request — the common serving shape.
    pub fn new(atoms: Vec<PrefAtom>, k: usize) -> Self {
        BatchRequest {
            atoms,
            k,
            variant: PepsVariant::Complete,
        }
    }

    /// Overrides the PEPS variant.
    pub fn with_variant(mut self, variant: PepsVariant) -> Self {
        self.variant = variant;
        self
    }
}

/// What one batch evaluation shared, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests in the batch.
    pub requests: usize,
    /// Distinct (profile identity, variant) groups — each ran the PEPS
    /// rounds exactly once.
    pub groups: usize,
    /// Requests answered off another request's evaluation
    /// (`requests - groups`, minus any request that failed before
    /// grouping).
    pub shared: usize,
    /// SQL queries the batch executor ran — `0` when every predicate
    /// was served from the warmed cache.
    pub queries_run: usize,
    /// Groups whose pairwise table came from the snapshot's memo
    /// instead of a fresh build, or was extended from a memoised table
    /// of the group's snapshot atoms. A group answered from the memo
    /// found its table there, so it counts too.
    pub pairwise_reused: usize,
    /// Answers, one per distinct `k` of a group, taken from the
    /// snapshot's memo instead of a PEPS run.
    pub answers_reused: usize,
}

/// A completed batch: one answer slot per request, in request order.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request results. A request fails alone (bad predicate,
    /// `k = 0`) without poisoning its batch.
    pub results: Vec<Result<Vec<RankedTuple>>>,
    /// What the batch shared.
    pub stats: BatchStats,
}

/// Groups concurrent Top-K calls by profile-atom identity and evaluates
/// each distinct round expansion once, on the calling thread (module
/// docs spell out the determinism contract).
#[derive(Debug, Clone, Copy)]
pub struct BatchScheduler;

/// The grouping key: the PEPS-round inputs that must be identical for
/// two requests to share an evaluation. Tuple-set identity is the
/// `Arc`'s pointer (two `SharedTupleSet`s from one executor are
/// [`Arc::ptr_eq`] exactly when they came from the same cache or memo
/// entry, i.e. the same canonical predicate), intensity is compared by
/// bit pattern.
type GroupKey = (u8, ProfileKey);

/// One distinct evaluation: the first member's atoms stand in for the
/// whole group (the key guarantees every member's rounds are identical).
struct Group {
    atoms: Vec<PrefAtom>,
    variant: PepsVariant,
    /// Each atom's tuple set, resolved once while grouping.
    sets: Vec<SharedTupleSet>,
    /// Ascending positions of the atoms whose sets came from the
    /// snapshot: their pairwise table may be memoised there.
    warmed: Vec<usize>,
    /// Distinct requested `k`s, ascending.
    ks: Vec<usize>,
    /// `(request index, k)` per member.
    members: Vec<(usize, usize)>,
}

/// What one group's evaluation produced: an answer per distinct `k`
/// (ascending, as [`Group::ks`]), whether its pairwise table came from
/// (or was extended from) the snapshot's memo, and how many of its
/// answers came from the memo.
struct Evaluation {
    answers: Vec<MemoAnswer>,
    pairwise_reused: bool,
    answers_reused: usize,
}

impl Group {
    /// Answers every requested `k`, taking the pairwise table and the
    /// answers from the snapshot's memo where the module docs allow.
    fn evaluate(&self, exec: &Executor<'_>, cache: &ProfileCache) -> Evaluation {
        let intensities: Vec<f64> = self.atoms.iter().map(|a| a.intensity).collect();
        let peps = |pairs: &PairwiseCache, ks: &[usize]| -> Vec<MemoAnswer> {
            Peps::new(&self.atoms, exec, pairs, self.variant)
                .top_k_multi_over(ks, &self.sets)
                .into_iter()
                .map(MemoAnswer::from)
                .collect()
        };
        let (warmed, n) = (&self.warmed, self.atoms.len());
        if warmed.len() < n.min(2) {
            let pairs = PairwiseCache::from_sets(&self.sets, &intensities);
            return Evaluation {
                answers: peps(&pairs, &self.ks),
                pairwise_reused: false,
                answers_reused: 0,
            };
        }
        let key: ProfileKey = warmed
            .iter()
            .map(|&p| {
                (
                    Arc::as_ptr(&self.sets[p]) as usize,
                    intensities[p].to_bits(),
                )
            })
            .collect();
        // Only a whole profile's key may hold answers.
        let whole = warmed.len() == n;
        let ks: &[usize] = if whole { &self.ks } else { &[] };
        let (pairs, pairwise_reused, memoised) =
            cache.memoised_pairwise(&key, self.variant, ks, || {
                let sets: Vec<SharedTupleSet> =
                    warmed.iter().map(|&p| Arc::clone(&self.sets[p])).collect();
                let intensities: Vec<f64> = warmed.iter().map(|&p| intensities[p]).collect();
                PairwiseCache::from_sets(&sets, &intensities)
            });
        if !whole {
            let extended = pairs.extend(warmed, &self.sets, &intensities);
            return Evaluation {
                answers: peps(&extended, &self.ks),
                pairwise_reused,
                answers_reused: 0,
            };
        }
        // PEPS runs for the missing `k`s alone: each `k`'s answer is the
        // same whatever the other `k`s are.
        let mut answers = memoised;
        let missing: Vec<usize> = self
            .ks
            .iter()
            .zip(&answers)
            .filter_map(|(&k, answer)| answer.is_none().then_some(k))
            .collect();
        if !missing.is_empty() {
            let fresh = peps(&pairs, &missing);
            cache.memoise_answers(
                &key,
                self.variant,
                missing.iter().copied().zip(fresh.iter().cloned()),
            );
            let slots = answers.iter_mut().filter(|answer| answer.is_none());
            for (slot, answer) in slots.zip(fresh) {
                *slot = Some(answer);
            }
        }
        Evaluation {
            answers: answers.into_iter().flatten().collect(),
            pairwise_reused,
            answers_reused: self.ks.len() - missing.len(),
        }
    }
}

impl BatchScheduler {
    /// A scheduler. It holds no state: every batch is evaluated by the
    /// thread that calls [`run`](Self::run).
    pub fn sequential() -> Self {
        BatchScheduler
    }

    /// Evaluates one batch against a cache snapshot.
    ///
    /// Opens a single pinned session executor over `cache` (pinned, so
    /// an append-only corpus that has already grown past the snapshot
    /// still serves — the epoch-session path), resolves every request's
    /// atom sets through it (pointer-identical for identical canonical
    /// predicates, cached or batch-memoised), groups, evaluates each
    /// group once with its pairwise table from `cache`'s memo where it
    /// may, and demultiplexes.
    ///
    /// # Errors
    /// Fails as a whole only when the session executor cannot open
    /// (e.g. [`HypreError::IdSpaceExhausted`]); per-request failures
    /// come back in their own [`BatchOutcome::results`] slot.
    pub fn run(
        &self,
        db: &Database,
        cache: &Arc<ProfileCache>,
        requests: &[BatchRequest],
    ) -> Result<BatchOutcome> {
        let mut stats = BatchStats {
            requests: requests.len(),
            ..BatchStats::default()
        };
        if requests.is_empty() {
            return Ok(BatchOutcome {
                results: Vec::new(),
                stats,
            });
        }
        let exec = Executor::with_cache_pinned(db, Arc::clone(cache))?;

        // Group by profile-atom identity, in first-occurrence order.
        let mut results: Vec<Result<Vec<RankedTuple>>> =
            requests.iter().map(|_| Ok(Vec::new())).collect();
        let mut index: HashMap<GroupKey, usize> = HashMap::new();
        let mut groups: Vec<Group> = Vec::new();
        for (r, req) in requests.iter().enumerate() {
            if req.k == 0 {
                results[r] = Err(HypreError::ZeroK);
                continue;
            }
            let mut key_atoms = Vec::with_capacity(req.atoms.len());
            let mut sets = Vec::with_capacity(req.atoms.len());
            let mut warmed = Vec::new();
            let mut resolve_err = None;
            for (p, atom) in req.atoms.iter().enumerate() {
                match exec.resolve(&atom.predicate) {
                    Ok((set, cached)) => {
                        key_atoms.push((Arc::as_ptr(&set) as usize, atom.intensity.to_bits()));
                        sets.push(set);
                        if cached {
                            warmed.push(p);
                        }
                    }
                    Err(e) => {
                        resolve_err = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = resolve_err {
                results[r] = Err(e);
                continue;
            }
            let key: GroupKey = (variant_tag(req.variant), key_atoms);
            let g = *index.entry(key).or_insert_with(|| {
                groups.push(Group {
                    atoms: req.atoms.clone(),
                    variant: req.variant,
                    sets,
                    warmed,
                    ks: Vec::new(),
                    members: Vec::new(),
                });
                groups.len() - 1
            });
            if let Err(slot) = groups[g].ks.binary_search(&req.k) {
                groups[g].ks.insert(slot, req.k);
            }
            groups[g].members.push((r, req.k));
        }

        // Evaluate each distinct round expansion once; demultiplex.
        stats.groups = groups.len();
        for group in &groups {
            let eval = group.evaluate(&exec, cache);
            stats.pairwise_reused += usize::from(eval.pairwise_reused);
            stats.answers_reused += eval.answers_reused;
            for &(r, k) in &group.members {
                results[r] = Ok(group
                    .ks
                    .binary_search(&k)
                    .ok()
                    .and_then(|slot| eval.answers.get(slot))
                    .map(|answer| answer.to_vec())
                    .unwrap_or_default());
            }
            stats.shared += group.members.len() - 1;
        }
        stats.queries_run = exec.queries_run();
        Ok(BatchOutcome { results, stats })
    }
}

fn variant_tag(variant: PepsVariant) -> u8 {
    match variant {
        PepsVariant::Complete => 0,
        PepsVariant::Approximate => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::BaseQuery;
    use relstore::{parse_predicate, ColRef, DataType, Database, Predicate, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let papers = db
            .create_table(
                "dblp",
                Schema::of(&[
                    ("pid", DataType::Int),
                    ("venue", DataType::Str),
                    ("year", DataType::Int),
                ]),
            )
            .unwrap();
        for (pid, venue, year) in [
            (1, "VLDB", 2010),
            (2, "VLDB", 2005),
            (3, "SIGMOD", 2010),
            (4, "PODS", 2010),
            (5, "PODS", 2004),
            (6, "ICDE", 1999),
        ] {
            papers
                .insert(vec![pid.into(), venue.into(), year.into()])
                .unwrap();
        }
        db
    }

    fn atoms(specs: &[(&str, f64)]) -> Vec<PrefAtom> {
        specs
            .iter()
            .enumerate()
            .map(|(i, (p, w))| PrefAtom::new(i, parse_predicate(p).unwrap(), *w))
            .collect()
    }

    fn rich() -> Vec<PrefAtom> {
        atoms(&[
            ("dblp.year>=2005", 0.6),
            ("dblp.venue='VLDB'", 0.5),
            ("dblp.venue='PODS'", 0.3),
            ("dblp.year>=2010", 0.2),
        ])
    }

    fn warmed(db: &Database) -> Arc<ProfileCache> {
        let profile = rich();
        let preds: Vec<&Predicate> = profile.iter().map(|a| &a.predicate).collect();
        Arc::new(
            ProfileCache::warm(
                db,
                BaseQuery::single("dblp", ColRef::parse("dblp.pid")),
                preds,
            )
            .unwrap(),
        )
    }

    fn solo(db: &Database, req: &BatchRequest) -> Vec<RankedTuple> {
        let exec = Executor::new(db, BaseQuery::single("dblp", ColRef::parse("dblp.pid")));
        let pairs = PairwiseCache::build(&req.atoms, &exec).unwrap();
        Peps::new(&req.atoms, &exec, &pairs, req.variant)
            .top_k(req.k)
            .unwrap()
    }

    #[test]
    fn identical_profiles_share_one_evaluation() {
        let db = db();
        let cache = warmed(&db);
        let reqs = vec![
            BatchRequest::new(rich(), 3),
            BatchRequest::new(rich(), 6),
            BatchRequest::new(rich(), 3),
        ];
        let out = BatchScheduler::sequential()
            .run(&db, &cache, &reqs)
            .unwrap();
        assert_eq!(out.stats.requests, 3);
        assert_eq!(out.stats.groups, 1, "one distinct profile identity");
        assert_eq!(out.stats.shared, 2);
        assert_eq!(out.stats.queries_run, 0, "fully warmed cache");
        for (got, req) in out.results.iter().zip(&reqs) {
            assert_eq!(got.as_ref().unwrap(), &solo(&db, req));
        }
    }

    #[test]
    fn distinct_profiles_and_variants_get_their_own_groups() {
        let db = db();
        let cache = warmed(&db);
        let sub = atoms(&[("dblp.year>=2005", 0.6), ("dblp.venue='VLDB'", 0.5)]);
        let reqs = vec![
            BatchRequest::new(rich(), 4),
            BatchRequest::new(sub.clone(), 4),
            BatchRequest::new(rich(), 4).with_variant(PepsVariant::Approximate),
            BatchRequest::new(sub, 2),
        ];
        let out = BatchScheduler::sequential()
            .run(&db, &cache, &reqs)
            .unwrap();
        assert_eq!(out.stats.groups, 3);
        assert_eq!(out.stats.shared, 1);
        for (got, req) in out.results.iter().zip(&reqs) {
            assert_eq!(got.as_ref().unwrap(), &solo(&db, req));
        }
    }

    #[test]
    fn bad_requests_fail_alone_without_poisoning_the_batch() {
        let db = db();
        let cache = warmed(&db);
        let reqs = vec![
            BatchRequest::new(rich(), 0),
            BatchRequest::new(rich(), 2),
            BatchRequest::new(atoms(&[("nosuch.col>1", 0.5)]), 2),
        ];
        let out = BatchScheduler::sequential()
            .run(&db, &cache, &reqs)
            .unwrap();
        assert!(matches!(out.results[0], Err(HypreError::ZeroK)));
        assert_eq!(out.results[1].as_ref().unwrap(), &solo(&db, &reqs[1]));
        assert!(matches!(out.results[2], Err(HypreError::Rel(_))));
        assert_eq!(out.stats.groups, 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let db = db();
        let cache = warmed(&db);
        let out = BatchScheduler::sequential().run(&db, &cache, &[]).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats, BatchStats::default());
    }

    #[test]
    fn warmed_groups_reuse_the_snapshots_pairwise_table() {
        // The table does not depend on the variant, so the Approximate
        // group reuses the table the Complete group built, and a second
        // batch reuses both.
        let db = db();
        let cache = warmed(&db);
        let reqs = vec![
            BatchRequest::new(rich(), 3),
            BatchRequest::new(rich(), 4).with_variant(PepsVariant::Approximate),
        ];
        let scheduler = BatchScheduler::sequential();
        let first = scheduler.run(&db, &cache, &reqs).unwrap();
        assert_eq!((first.stats.groups, first.stats.pairwise_reused), (2, 1));
        assert_eq!(cache.pairwise_memo_entries(), 4 * 3 / 2 + 1);
        let second = scheduler.run(&db, &cache, &reqs).unwrap();
        assert_eq!(second.stats.pairwise_reused, 2);
        for ((a, b), req) in first.results.iter().zip(&second.results).zip(&reqs) {
            assert_eq!(a.as_ref().unwrap(), &solo(&db, req));
            assert_eq!(b.as_ref().unwrap(), &solo(&db, req));
        }
    }

    #[test]
    fn a_group_with_an_uncached_atom_extends_its_warmed_parts_memoised_table() {
        // The fresh atom sits between warmed ones, as after the server's
        // strongest-first sort.
        let db = db();
        let cache = warmed(&db);
        let mut mixed = rich();
        mixed.insert(
            2,
            PrefAtom::new(4, parse_predicate("dblp.venue='ICDE'").unwrap(), 0.4),
        );
        let reqs = vec![BatchRequest::new(mixed, 3)];
        for round in 0..2 {
            let out = BatchScheduler::sequential()
                .run(&db, &cache, &reqs)
                .unwrap();
            assert_eq!(out.stats.queries_run, 1, "the ICDE atom is not warmed");
            assert_eq!(out.stats.pairwise_reused, round, "round {round}");
            assert_eq!(
                cache.pairwise_memo_entries(),
                4 * 3 / 2 + 1,
                "only the 4 warmed atoms' table is memoised (round {round})"
            );
            assert_eq!(out.results[0].as_ref().unwrap(), &solo(&db, &reqs[0]));
        }
    }

    #[test]
    fn a_group_runs_peps_only_for_the_answers_its_memo_entry_lacks() {
        // A marker stands in the memo as the Complete k = 2 answer: a
        // request that reads it took it from the memo; every other
        // answer is PEPS's own.
        let db = db();
        let cache = warmed(&db);
        let profile = rich();
        let key: ProfileKey = profile
            .iter()
            .map(|a| {
                let set = cache.get(&a.predicate.canonical()).unwrap();
                (Arc::as_ptr(&set) as usize, a.intensity.to_bits())
            })
            .collect();
        let exec = Executor::with_cache_pinned(&db, Arc::clone(&cache)).unwrap();
        let table = PairwiseCache::build(&profile, &exec).unwrap();
        cache.memoised_pairwise(&key, PepsVariant::Complete, &[], || table);
        let marker: MemoAnswer = Arc::from(vec![(Value::str("memoised"), 1.0)]);
        cache.memoise_answers(&key, PepsVariant::Complete, [(2, Arc::clone(&marker))]);
        assert_eq!(cache.answer_memo_tuples(), 1 + 1);

        let reqs = vec![
            BatchRequest::new(rich(), 2),
            BatchRequest::new(rich(), 5),
            BatchRequest::new(rich(), 2).with_variant(PepsVariant::Approximate),
        ];
        let out = BatchScheduler::sequential()
            .run(&db, &cache, &reqs)
            .unwrap();
        assert_eq!(out.stats.groups, 2);
        assert_eq!(out.stats.pairwise_reused, 2);
        assert_eq!(out.stats.answers_reused, 1, "the marker alone");
        assert_eq!(out.results[0].as_ref().unwrap()[..], marker[..]);
        let (five, approx) = (solo(&db, &reqs[1]), solo(&db, &reqs[2]));
        assert_eq!(out.results[1].as_ref().unwrap(), &five);
        assert_eq!(out.results[2].as_ref().unwrap(), &approx);
        assert_eq!(
            cache.answer_memo_tuples(),
            2 + (five.len() + 1) + (approx.len() + 1),
            "the two answers PEPS ran for joined the marker"
        );
    }

    #[test]
    fn uncached_predicates_still_group_within_a_batch() {
        // A predicate missing from the cache resolves through the batch
        // executor's memo — still one Arc per canonical predicate, so
        // identical uncached profiles share an evaluation (and the SQL
        // runs once).
        let db = db();
        let cache = warmed(&db);
        let cold = atoms(&[("dblp.venue='SIGMOD'", 0.7), ("dblp.year>=2010", 0.4)]);
        let reqs = vec![
            BatchRequest::new(cold.clone(), 3),
            BatchRequest::new(cold, 5),
        ];
        let out = BatchScheduler::sequential()
            .run(&db, &cache, &reqs)
            .unwrap();
        assert_eq!(out.stats.groups, 1);
        assert!(out.stats.queries_run > 0, "cold predicates hit SQL once");
        for (got, req) in out.results.iter().zip(&reqs) {
            assert_eq!(got.as_ref().unwrap(), &solo(&db, req));
        }
    }
}
