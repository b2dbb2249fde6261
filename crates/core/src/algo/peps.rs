//! PEPS — the Practical and Efficient Preference Selection algorithm
//! (§5.5, Algorithm 6): the dissertation's Top-K algorithm over a HYPRE
//! profile.
//!
//! PEPS works in *rounds*, one per profile preference in descending
//! intensity order. Round `s` uses the seed preference's intensity as a
//! threshold `τ_s` and pulls from the pre-computed pairwise list
//! ([`crate::exec::PairwiseCache`]) every applicable pair that can matter
//! at this threshold:
//!
//! * **Approximate PEPS** keeps only pairs whose combined intensity already
//!   exceeds `τ_s` — faster, but a chain whose pair starts below the
//!   threshold and grows past it later is discovered late (or, with early
//!   termination, never), which is exactly the approximation the
//!   dissertation accepts (§5.5.2).
//! * **Complete PEPS** additionally keeps pairs whose *optimistic bound* —
//!   `f∧` of the pair with every remaining preference, the closed-form
//!   generalisation of Proposition 6 — exceeds `τ_s`, so no combination
//!   that could still beat the threshold is lost (§5.5.1).
//!
//! Selected pairs are expanded depth-first into multi-predicate AND
//! combinations, chaining through the pairwise list (`pairs_from(last)`)
//! and checking full-combination applicability through the executor's
//! memoised counts. *Every* applicable combination encountered is emitted
//! (not only maximal ones): a tuple's best score is the `f∧` of the full
//! set of preferences it matches, and emitting all combinations guarantees
//! that set is always represented — this is what makes Complete PEPS agree
//! exactly with Fagin's TA on quantitative-only profiles (§7.6.3).
//!
//! Rounds stop early once `k` tuples score at least the current
//! threshold: every future combination is capped by that threshold, so
//! the Top-K *scores* can no longer change, nor can the tuples scoring
//! strictly above the `k`-th score. A later round can still score more
//! tuples exactly *at* the threshold, so when the `k`-th score equals
//! it, which of the tied tuples are returned may differ from a full
//! ranking's (see [`Peps::top_k`]).
//!
//! ## Hot-path mechanics (PR 4)
//!
//! The expansion is **clone-free**: tuple sets thread down each expansion
//! path as [`SharedTupleSet`] (`Arc<TupleSet>`) with copy-on-write
//! narrowing. An extension that does not shrink the parent's set (its
//! intersection count — computed anyway for the applicability screen —
//! equals the parent's cardinality) shares the parent's `Arc` outright;
//! the *last* extension of a node takes ownership of the parent set and
//! narrows it in place via [`Arc::make_mut`] (by then the node's `Arc` is
//! unique, so no copy happens); only middle, strictly-shrinking
//! extensions materialise a fresh set. Emission is immediate — Top-K
//! scores ids into the dense ranking array the moment a combination is
//! found, and the ORDER list records only `(members, intensity, count)`
//! — so no per-node tuple set, member vector or predicate AST is ever
//! retained or cloned inside a round. Seed deduplication uses a packed
//! bit-key set (pair `(i, j)` → bit `i·n + j`, singleton `s` → bit
//! `n² + s`) instead of hashing a `Vec<usize>` per candidate.
//!
//! ## Determinism
//!
//! A round runs on the caller's thread, like the rest of a session. Its
//! admitted seed pairs are claimed in the dedup set and expanded one
//! after another, in pairwise-list order. Ranking keeps a per-tuple
//! *maximum* over emitted combinations and the ORDER list is sorted by
//! a total order, so `top_k` and `ordered_combinations` depend only on
//! the profile, its tuple sets and the pairwise table — not on emission
//! order.

use std::cell::Cell;
use std::sync::Arc;

use relstore::Value;

use crate::combine::{f_and, PrefAtom};
use crate::error::{HypreError, Result};
use crate::exec::{Executor, PairwiseCache, SharedTupleSet};
use crate::tupleset::TupleSet;

use super::CombinationRecord;

/// Which PEPS variant to run (§5.5.1 vs §5.5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PepsVariant {
    /// Keeps every pair that might still beat the threshold (Prop. 6 bound).
    Complete,
    /// Keeps only pairs already beating the threshold.
    Approximate,
}

/// Proposition 6: the minimum number of conjuncts of intensity `p2` needed
/// for an `f∧` combination to reach `p1`, `K = log(1−p1) / log(1−p2)`.
///
/// Defined for `0 < p2 ≤ p1 < 1`; returns `f64::INFINITY` when `p2 = 0`
/// (a zero-intensity preference can never lift a combination).
pub fn proposition6_bound(p1: f64, p2: f64) -> f64 {
    if p2 <= 0.0 {
        return f64::INFINITY;
    }
    if p1 >= 1.0 {
        return f64::INFINITY;
    }
    (1.0 - p1).ln() / (1.0 - p2).ln()
}

/// A ranked tuple: identity plus the combined intensity of the best
/// applicable combination that matches it.
pub type RankedTuple = (Value, f64);

/// The PEPS engine, borrowing a profile, an executor and the pairwise
/// cache.
pub struct Peps<'a, 'db> {
    atoms: &'a [PrefAtom],
    exec: &'a Executor<'db>,
    pairs: &'a PairwiseCache,
    variant: PepsVariant,
}

impl<'a, 'db> Peps<'a, 'db> {
    /// Creates a PEPS engine.
    pub fn new(
        atoms: &'a [PrefAtom],
        exec: &'a Executor<'db>,
        pairs: &'a PairwiseCache,
        variant: PepsVariant,
    ) -> Self {
        Peps {
            atoms,
            exec,
            pairs,
            variant,
        }
    }

    /// Enumerates *all* applicable combinations (every round, no early
    /// stop), sorted by descending combined intensity — the dissertation's
    /// ORDER list. Singleton combinations are included so the ranking is
    /// total over every tuple any preference touches.
    pub fn ordered_combinations(&self) -> Result<Vec<CombinationRecord>> {
        let sets = self.atom_sets()?;
        let mut emitted = EmittedSet::new(self.atoms.len());
        let mut sink = OrderSink::default();
        for s in 0..self.atoms.len() {
            self.run_round(s, &sets, &mut emitted, &mut sink);
        }
        let mut order = sink.combos;
        sort_order(&mut order);
        Ok(order.into_iter().map(|c| self.record_of(c)).collect())
    }

    /// Materialises the public record (combined predicate included) for a
    /// round combination — deferred off the Top-K hot loop, where the
    /// predicate AST is never needed.
    fn record_of(&self, combo: RoundCombo) -> CombinationRecord {
        let predicate = relstore::Predicate::all(
            combo
                .members
                .iter()
                .map(|&m| self.atoms[m].predicate.clone()),
        );
        CombinationRecord {
            members: combo.members,
            predicate,
            intensity: combo.intensity,
            tuples: combo.tuples,
        }
    }

    /// Returns the Top-K tuples by combined intensity (descending; ties by
    /// ascending tuple value for determinism).
    ///
    /// Against the full ranking (every tuple any preference matches,
    /// ordered the same way) the answer has the same `k` scores and the
    /// same tuples strictly above the `k`-th score. The tuples tied at
    /// the `k`-th score are the smallest among those scored by the round
    /// at which PEPS stopped; when that round's threshold equals the
    /// `k`-th score, a later round could have scored smaller tied ones.
    /// Answers are deterministic either way.
    ///
    /// Scores accumulate in a dense `Vec<f64>` indexed by tuple id,
    /// written the moment each combination is emitted — no per-tuple
    /// hashing, no `Value` cloning and no retained tuple sets inside the
    /// rounds; the stop test and the final slice walk only the ids
    /// scored so far, and identities are materialised only for the final
    /// Top-K slice. The thread keeps the array for its next run.
    ///
    /// # Errors
    /// [`HypreError::ZeroK`] when `k == 0`.
    pub fn top_k(&self, k: usize) -> Result<Vec<RankedTuple>> {
        let mut results = self.top_k_multi(std::slice::from_ref(&k))?;
        Ok(results.pop().unwrap_or_default())
    }

    /// Runs the rounds **once** and extracts a Top-K ranking for *each*
    /// requested `k` — the batch entry point behind
    /// [`BatchScheduler`](crate::sched::BatchScheduler).
    ///
    /// Rounds are `k`-independent: the dense score array after rounds
    /// `0..=s` is the same whatever `k` was asked for — `k` only decides
    /// *when to stop* and *how much to materialise*. So the shared
    /// execution runs rounds until every requested `k` has satisfied its
    /// own early-termination condition (or rounds are exhausted) and
    /// snapshots each `k`'s ranking at exactly the round where a
    /// standalone [`top_k(k)`](Peps::top_k) would have stopped. Every
    /// returned ranking is therefore **byte-identical** to the
    /// standalone call, whatever the other `k`s in the batch are.
    ///
    /// # Errors
    /// [`HypreError::ZeroK`] when any requested `k` is zero.
    pub fn top_k_multi(&self, ks: &[usize]) -> Result<Vec<Vec<RankedTuple>>> {
        if ks.contains(&0) {
            return Err(HypreError::ZeroK);
        }
        Ok(self.top_k_multi_over(ks, &self.atom_sets()?))
    }

    /// [`top_k_multi`](Self::top_k_multi) for non-zero `ks` over the
    /// profile's tuple sets, one per atom, already resolved through this
    /// engine's executor.
    pub(crate) fn top_k_multi_over(
        &self,
        ks: &[usize],
        sets: &[SharedTupleSet],
    ) -> Vec<Vec<RankedTuple>> {
        debug_assert!(!ks.contains(&0), "the caller rejects k = 0");
        let mut emitted = EmittedSet::new(self.atoms.len());
        let mut sink = ScoreSink::reused();
        let mut results: Vec<Option<Vec<RankedTuple>>> = vec![None; ks.len()];
        let mut pending = ks.len();
        for s in 0..self.atoms.len() {
            if pending == 0 {
                break;
            }
            self.run_round(s, sets, &mut emitted, &mut sink);
            // Early termination, per requested k: every combination a
            // later round can emit is capped by this round's threshold,
            // so a k with k scores at or above it is final — its ranking
            // is snapshotted here, before any further rounds run.
            let threshold = self.atoms[s].intensity;
            for (slot, &k) in results.iter_mut().zip(ks) {
                if slot.is_none() && sink.has_k_at_least(k, threshold) {
                    *slot = Some(self.finalize_top_k(&sink, k));
                    pending -= 1;
                }
            }
        }
        let results = results
            .into_iter()
            .zip(ks)
            .map(|(slot, &k)| slot.unwrap_or_else(|| self.finalize_top_k(&sink, k)))
            .collect();
        sink.recycle();
        results
    }

    /// Materialises the Top-K slice of the dense score array: exactly
    /// the first `k` of its scored tuples ordered by (score descending,
    /// tuple value ascending). Whether that matches the full ranking is
    /// up to when the rounds stopped (see [`Peps::top_k`]).
    ///
    /// Selects the `k`-th best score first (linear time) and keeps the
    /// scores strictly above it. Among the tuples tied at it, only the
    /// `k − above` smallest values are kept, selected by comparing the
    /// keys in place, off a key column resolved once. Only the `k`
    /// returned values are cloned.
    fn finalize_top_k(&self, sink: &ScoreSink, k: usize) -> Vec<RankedTuple> {
        let mut scored: Vec<(u32, f64)> = sink
            .scored
            .iter()
            .map(|&id| (id, sink.ranked[id as usize]))
            .collect();
        let order = self.exec.tuple_order();
        let by_value = |a: &(u32, f64), b: &(u32, f64)| order.cmp(a.0, b.0);
        if scored.len() > k {
            scored.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1));
            let pivot = scored[k - 1].1;
            let (mut top, mut ties): (Vec<_>, Vec<_>) = scored
                .into_iter()
                .filter(|c| c.1.total_cmp(&pivot).is_ge())
                .partition(|c| c.1.total_cmp(&pivot).is_gt());
            let need = k - top.len();
            if ties.len() > need {
                ties.select_nth_unstable_by(need - 1, by_value);
                ties.truncate(need);
            }
            top.append(&mut ties);
            scored = top;
        }
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| by_value(a, b)));
        scored
            .into_iter()
            .map(|(id, score)| (self.exec.tuple_value(id), score))
            .collect()
    }

    // ------------------------------------------------------------------

    /// Runs one round: admits pairs at threshold `τ_s`, claims each in
    /// the dedup set and expands it depth-first, in pairwise-list order,
    /// then emits the seed's singleton combination.
    fn run_round<S: RoundSink>(
        &self,
        s: usize,
        sets: &[SharedTupleSet],
        emitted: &mut EmittedSet,
        sink: &mut S,
    ) {
        let threshold = self.atoms[s].intensity;
        // Expansion chains are strictly ascending (seeds have `i < j`,
        // extensions only append `m > last`), so every member set has
        // exactly one generation path: deduplication is needed only here
        // at the seed level, across rounds.
        for e in self.pairs.entries() {
            if e.applicable()
                && self.admits(e.i, e.j, e.intensity, threshold)
                && emitted.insert(emitted.pair_key(e.i, e.j))
            {
                self.expand_seed(e.i, e.j, e.intensity, e.count, sets, sink);
            }
        }
        // The seed preference by itself (the fallback that guarantees k
        // tuples can always be reached eventually). Zero-copy: the sink
        // reads the profile's shared set in place.
        let key = emitted.singleton_key(s);
        if !emitted.contains(key) {
            let tuples = sets[s].count() as u64;
            if tuples > 0 {
                emitted.insert(key);
                sink.emit(&[s], threshold, tuples, &sets[s]);
            }
        }
    }

    /// The variant's pair-admission rule at a threshold.
    fn admits(&self, i: usize, j: usize, pair_intensity: f64, threshold: f64) -> bool {
        if pair_intensity > threshold {
            return true;
        }
        match self.variant {
            PepsVariant::Approximate => false,
            PepsVariant::Complete => self.optimistic_bound(i, j, pair_intensity) > threshold,
        }
    }

    /// The best combined intensity any super-combination of the pair could
    /// reach: `f∧` with every other preference in the profile. This is the
    /// closed-form of Proposition 6's "enough extra predicates" test.
    fn optimistic_bound(&self, i: usize, j: usize, pair_intensity: f64) -> f64 {
        let mut residual = 1.0 - pair_intensity;
        for (m, atom) in self.atoms.iter().enumerate() {
            if m != i && m != j && atom.intensity > 0.0 {
                residual *= 1.0 - atom.intensity;
            }
        }
        1.0 - residual
    }

    /// Resolves every profile atom's tuple set once up front, so the
    /// expansion loops never re-derive a predicate's memo key.
    fn atom_sets(&self) -> Result<Vec<SharedTupleSet>> {
        self.atoms
            .iter()
            .map(|a| self.exec.tuple_set(&a.predicate))
            .collect()
    }

    /// Expands one admitted seed pair. The pair's tuple set is built
    /// copy-on-write from the profile sets: the pairwise cache already
    /// knows the intersection's cardinality, so a pair that does not
    /// shrink one of its members shares that member's `Arc` instead of
    /// materialising anything.
    fn expand_seed<S: RoundSink>(
        &self,
        i: usize,
        j: usize,
        intensity: f64,
        count: u64,
        sets: &[SharedTupleSet],
        sink: &mut S,
    ) {
        let set = if count == sets[i].count() as u64 {
            Arc::clone(&sets[i])
        } else if count == sets[j].count() as u64 {
            Arc::clone(&sets[j])
        } else {
            Arc::new(sets[i].and(&sets[j]))
        };
        let mut path = vec![i, j];
        self.expand(&mut path, intensity, set, count, sets, sink);
    }

    /// Depth-first expansion: emits the current combination (whose tuple
    /// set and cardinality arrive pre-computed from the parent) and
    /// recurses into every non-empty single-preference extension,
    /// chaining through the pairwise list on the last member. Because
    /// chains are strictly ascending, no extension can collide with an
    /// already-emitted combination and no per-node dedup set is
    /// consulted.
    ///
    /// Clone-free copy-on-write narrowing: the applicability screen is an
    /// `and_count`, whose result classifies each live extension —
    ///
    /// * no shrink (`count` unchanged): the child *shares* the parent's
    ///   `Arc`, allocating nothing;
    /// * last extension: the child takes the parent set (emitted above,
    ///   never retained — the `Arc` is unique by now) and narrows it in
    ///   place through [`Arc::make_mut`], so single-extension chains
    ///   reuse one allocation all the way down;
    /// * otherwise: one materialised intersection, the unavoidable case.
    ///
    /// The path vector is shared mutable state pushed/popped around each
    /// recursion — no member-vector clone per node either.
    fn expand<S: RoundSink>(
        &self,
        path: &mut Vec<usize>,
        intensity: f64,
        set: SharedTupleSet,
        count: u64,
        sets: &[SharedTupleSet],
        sink: &mut S,
    ) {
        debug_assert!(path.windows(2).all(|w| w[0] < w[1]), "ascending chain");
        debug_assert_eq!(set.count() as u64, count);
        sink.emit(path, intensity, count, &set);
        let Some(&last) = path.last() else {
            unreachable!("combinations are non-empty");
        };
        // `pairs_from(last)` only yields applicable partners above
        // `last`, so none can repeat a member.
        let live: Vec<(usize, u64)> = self
            .pairs
            .pairs_from(last)
            .filter_map(|e| {
                let c = set.and_count(&sets[e.j]) as u64;
                (c > 0).then_some((e.j, c))
            })
            .collect();
        let n_live = live.len();
        let mut parent = Some(set);
        for (idx, (m, child_count)) in live.into_iter().enumerate() {
            let last_child = idx + 1 == n_live;
            let child = if child_count == count {
                // the extension did not shrink the set: share it
                if last_child {
                    parent
                        .take()
                        .unwrap_or_else(|| unreachable!("parent taken only once"))
                } else {
                    Arc::clone(
                        parent
                            .as_ref()
                            .unwrap_or_else(|| unreachable!("parent present until last child")),
                    )
                }
            } else if last_child {
                let mut owned = parent
                    .take()
                    .unwrap_or_else(|| unreachable!("parent taken only once"));
                Arc::make_mut(&mut owned).and_assign(&sets[m]);
                owned
            } else {
                Arc::new(
                    parent
                        .as_ref()
                        .unwrap_or_else(|| unreachable!("parent present"))
                        .and(&sets[m]),
                )
            };
            path.push(m);
            self.expand(
                path,
                f_and(intensity, self.atoms[m].intensity),
                child,
                child_count,
                sets,
                sink,
            );
            path.pop();
        }
    }
}

/// The packed seed-dedup set: one bit per possible pair (`i·n + j`) and
/// singleton (`n² + s`) member set, over the crate's word-packed
/// [`BitSet`](crate::bitset::BitSet) — membership is a single word
/// probe, with no per-candidate `Vec` allocation or hashing. (`n² + n`
/// fits the `u32` key space up to 65,535 atoms; the server admits at
/// most [`MAX_PROFILE_ATOMS`](crate::serve::MAX_PROFILE_ATOMS).)
struct EmittedSet {
    bits: crate::bitset::BitSet,
    n: usize,
}

impl EmittedSet {
    fn new(n: usize) -> Self {
        EmittedSet {
            bits: crate::bitset::BitSet::with_capacity(n * n + n),
            n,
        }
    }

    fn pair_key(&self, i: usize, j: usize) -> u32 {
        debug_assert!(i < j && j < self.n);
        (i * self.n + j) as u32
    }

    fn singleton_key(&self, s: usize) -> u32 {
        (self.n * self.n + s) as u32
    }

    fn contains(&self, key: u32) -> bool {
        self.bits.contains(key)
    }

    /// Sets the bit; returns whether it was newly set.
    fn insert(&mut self, key: u32) -> bool {
        self.bits.insert(key)
    }
}

/// Where a round's emitted combinations go.
trait RoundSink {
    /// Records one emitted combination.
    fn emit(&mut self, members: &[usize], intensity: f64, tuples: u64, set: &TupleSet);
}

/// Top-K sink: scores each combination's tuples into the dense ranking
/// array immediately — `ranked[id]` is the best combined intensity seen
/// for tuple `id` so far, `NEG_INFINITY` marks "never scored". The final
/// array is a per-tuple maximum, so emission order cannot change it.
/// `scored` lists the scored ids in first-scored order, so the stop test
/// and the final slice read the tuples a profile reached, not every id
/// below the largest one.
///
/// Each thread keeps one sink between runs ([`ScoreSink::reused`]), its
/// array grown to the largest id any run on the thread reached; a run
/// resets only the slots it scored.
#[derive(Default)]
struct ScoreSink {
    ranked: Vec<f64>,
    scored: Vec<u32>,
}

thread_local! {
    /// This thread's idle sink: every `ranked` slot `NEG_INFINITY`,
    /// `scored` empty. A run that panics takes it and never hands it
    /// back, so the next run starts a new one.
    static IDLE_SINK: Cell<ScoreSink> = const {
        Cell::new(ScoreSink {
            ranked: Vec::new(),
            scored: Vec::new(),
        })
    };
}

impl ScoreSink {
    /// Takes this thread's idle sink.
    fn reused() -> Self {
        IDLE_SINK.with(Cell::take)
    }

    /// Unscores the slots this run scored and hands the sink back to the
    /// thread.
    fn recycle(mut self) {
        for &id in &self.scored {
            self.ranked[id as usize] = f64::NEG_INFINITY;
        }
        self.scored.clear();
        IDLE_SINK.with(|idle| idle.set(self));
    }

    /// Whether at least `k` scores reach `threshold` — the same test as
    /// "the `k`-th best score is at least `threshold`", without
    /// allocating, and stopping at the `k`-th hit.
    fn has_k_at_least(&self, k: usize, threshold: f64) -> bool {
        self.scored.len() >= k
            && self
                .scored
                .iter()
                .filter(|&&id| self.ranked[id as usize] >= threshold)
                .take(k)
                .count()
                == k
    }
}

impl RoundSink for ScoreSink {
    fn emit(&mut self, _members: &[usize], intensity: f64, _tuples: u64, set: &TupleSet) {
        // Range-walk scoring: a bitmap combination's contiguous bits
        // score as slice sweeps, not per-id iteration.
        set.for_each_range(|start, len| {
            let (s, e) = (start as usize, start as usize + len as usize);
            if e > self.ranked.len() {
                self.ranked.resize(e, f64::NEG_INFINITY);
            }
            for (id, slot) in (start..).zip(&mut self.ranked[s..e]) {
                if *slot == f64::NEG_INFINITY {
                    self.scored.push(id);
                    *slot = intensity;
                } else if intensity > *slot {
                    *slot = intensity;
                }
            }
        });
    }
}

/// ORDER-list sink: records `(members, intensity, count)` per emitted
/// combination — tuple sets are never retained, and the member vector is
/// cloned exactly once per *recorded* combination (the Top-K path clones
/// none at all).
#[derive(Default)]
struct OrderSink {
    combos: Vec<RoundCombo>,
}

impl RoundSink for OrderSink {
    fn emit(&mut self, members: &[usize], intensity: f64, tuples: u64, _set: &TupleSet) {
        self.combos.push(RoundCombo {
            members: members.to_vec(),
            intensity,
            tuples,
        });
    }
}

/// A combination emitted during a round. The combined predicate AST is
/// *not* built here — only `ordered_combinations` materialises it,
/// keeping the rounds allocation-light.
struct RoundCombo {
    members: Vec<usize>,
    intensity: f64,
    tuples: u64,
}

fn sort_order(order: &mut [RoundCombo]) {
    order.sort_by(|a, b| {
        b.intensity
            .total_cmp(&a.intensity)
            .then_with(|| a.members.len().cmp(&b.members.len()))
            .then_with(|| a.members.cmp(&b.members))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::BaseQuery;
    use relstore::{parse_predicate, ColRef, DataType, Database, Schema};
    use std::collections::HashSet;

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

    fn profile() -> Vec<PrefAtom> {
        vec![
            PrefAtom::new(0, parse_predicate("dblp.year>=2005").unwrap(), 0.6),
            PrefAtom::new(1, parse_predicate("dblp.venue='VLDB'").unwrap(), 0.5),
            PrefAtom::new(2, parse_predicate("dblp.venue='PODS'").unwrap(), 0.3),
            PrefAtom::new(3, parse_predicate("dblp.year>=2010").unwrap(), 0.2),
        ]
    }

    fn setup(db: &Database) -> (Executor<'_>, Vec<PrefAtom>) {
        let exec = Executor::new(db, BaseQuery::single("dblp", ColRef::parse("dblp.pid")));
        (exec, profile())
    }

    /// Brute-force reference: each tuple's score is f∧ over all matching
    /// preferences.
    fn reference_ranking(db: &Database, atoms: &[PrefAtom]) -> Vec<RankedTuple> {
        let exec = Executor::new(db, BaseQuery::single("dblp", ColRef::parse("dblp.pid")));
        crate::enhance::score_tuples(&exec, atoms).unwrap()
    }

    #[test]
    fn proposition6_bound_properties() {
        // reaching 0.8 with 0.5-strength conjuncts needs ≥ ~2.32 of them
        let k = proposition6_bound(0.8, 0.5);
        assert!(k > 2.0 && k < 3.0, "{k}");
        // verify it is a valid lower bound: ceil(k) conjuncts suffice
        let n = k.ceil() as usize;
        let reached = 1.0 - (1.0 - 0.5f64).powi(n as i32);
        assert!(reached >= 0.8);
        // and one fewer does not
        let reached = 1.0 - (1.0 - 0.5f64).powi(n as i32 - 1);
        assert!(reached < 0.8);
        // degenerate inputs
        assert!(proposition6_bound(0.5, 0.0).is_infinite());
        assert!(proposition6_bound(1.0, 0.5).is_infinite());
    }

    #[test]
    fn complete_peps_matches_brute_force_ranking() {
        let db = db();
        let (exec, atoms) = setup(&db);
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let peps = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete);
        let got = peps.top_k(10).unwrap();
        let want = reference_ranking(&db, &atoms);
        assert_eq!(got.len(), want.len());
        for ((gt, gi), (wt, wi)) in got.iter().zip(want.iter()) {
            assert_eq!(gt, wt, "tuple order");
            assert!((gi - wi).abs() < 1e-12, "intensity for {gt}: {gi} vs {wi}");
        }
    }

    #[test]
    fn top_k_truncates_and_orders() {
        let db = db();
        let (exec, atoms) = setup(&db);
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let peps = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete);
        let top2 = peps.top_k(2).unwrap();
        assert_eq!(top2.len(), 2);
        assert!(top2[0].1 >= top2[1].1);
        let all = peps.top_k(100).unwrap();
        assert_eq!(&all[..2], &top2[..]);
    }

    #[test]
    fn zero_k_is_an_error() {
        let db = db();
        let (exec, atoms) = setup(&db);
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let peps = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete);
        assert!(matches!(peps.top_k(0), Err(HypreError::ZeroK)));
    }

    #[test]
    fn ordered_combinations_descend_and_are_applicable_or_singleton() {
        let db = db();
        let (exec, atoms) = setup(&db);
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let peps = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete);
        let order = peps.ordered_combinations().unwrap();
        assert!(!order.is_empty());
        assert!(order.windows(2).all(|w| w[0].intensity >= w[1].intensity));
        // expansions are applicable by construction
        for rec in order.iter().filter(|r| r.arity() >= 2) {
            assert!(rec.applicable(), "{rec:?}");
        }
        // no duplicate member sets
        let sets: HashSet<&Vec<usize>> = order.iter().map(|r| &r.members).collect();
        assert_eq!(sets.len(), order.len());
    }

    #[test]
    fn approximate_subset_of_complete() {
        let db = db();
        let (exec, atoms) = setup(&db);
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let complete = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
            .ordered_combinations()
            .unwrap();
        let approx = Peps::new(&atoms, &exec, &pairs, PepsVariant::Approximate)
            .ordered_combinations()
            .unwrap();
        let complete_sets: HashSet<&Vec<usize>> = complete.iter().map(|r| &r.members).collect();
        for rec in &approx {
            assert!(
                complete_sets.contains(&rec.members),
                "approximate emitted a combination complete missed: {rec:?}"
            );
        }
        assert!(approx.len() <= complete.len());
    }

    #[test]
    fn approximate_agrees_on_this_workload() {
        // On this small profile the approximate variant loses nothing —
        // mirroring the dissertation's finding that the two variants rank
        // identically with only a small time difference.
        let db = db();
        let (exec, atoms) = setup(&db);
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let a = Peps::new(&atoms, &exec, &pairs, PepsVariant::Approximate)
            .top_k(6)
            .unwrap();
        let c = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
            .top_k(6)
            .unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn contradictory_pairs_never_emitted() {
        let db = db();
        let (exec, atoms) = setup(&db);
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let order = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
            .ordered_combinations()
            .unwrap();
        // VLDB ∧ PODS can never appear
        assert!(order
            .iter()
            .all(|r| !(r.members.contains(&1) && r.members.contains(&2))));
    }

    #[test]
    fn full_match_set_combination_is_emitted() {
        // Paper 1 (VLDB, 2010) matches prefs {0: year>=2005, 1: VLDB,
        // 3: year>=2010}; its full match set must be emitted so the tuple
        // scores f∧(0.6, 0.5, 0.2).
        let db = db();
        let (exec, atoms) = setup(&db);
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let order = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
            .ordered_combinations()
            .unwrap();
        assert!(order.iter().any(|r| r.members == vec![0, 1, 3]));
        let top = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
            .top_k(1)
            .unwrap();
        assert_eq!(top[0].0, Value::Int(1));
        let expect = crate::combine::f_and_all([0.6, 0.5, 0.2]);
        assert!((top[0].1 - expect).abs() < 1e-12);
    }

    #[test]
    fn emitted_set_packs_pair_and_singleton_keys() {
        let mut emitted = EmittedSet::new(5);
        assert!(emitted.insert(emitted.pair_key(0, 1)));
        assert!(!emitted.insert(emitted.pair_key(0, 1)), "repeat rejected");
        assert!(emitted.insert(emitted.pair_key(3, 4)));
        assert!(!emitted.contains(emitted.pair_key(1, 2)));
        for s in 0..5 {
            assert!(!emitted.contains(emitted.singleton_key(s)));
            assert!(emitted.insert(emitted.singleton_key(s)));
            assert!(emitted.contains(emitted.singleton_key(s)));
        }
        // pair and singleton key spaces never collide
        assert!(emitted.contains(emitted.pair_key(0, 1)));
        assert!(!emitted.contains(emitted.pair_key(2, 3)));
    }

    #[test]
    fn finalize_top_k_equals_a_truncated_full_sort_on_tie_heavy_arrays() {
        use rand::{Rng, SeedableRng};
        // 40 papers whose pids run out of id order, so the value
        // tie-break is not the id order.
        let mut db = Database::new();
        let papers = db
            .create_table("dblp", Schema::of(&[("pid", DataType::Int)]))
            .unwrap();
        for i in 0..40i64 {
            papers.insert(vec![((i * 17) % 40).into()]).unwrap();
        }
        let exec = Executor::new(&db, BaseQuery::single("dblp", ColRef::parse("dblp.pid")));
        exec.tuple_set(&parse_predicate("dblp.pid>=0").unwrap())
            .unwrap();
        let pairs = PairwiseCache::default();
        let peps = Peps::new(&[], &exec, &pairs, PepsVariant::Complete);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let len = rng.gen_range(1..41usize);
            let ranked: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..4usize) {
                    0 => f64::NEG_INFINITY,
                    v => [0.3, 0.5, 0.8][v - 1],
                })
                .collect();
            let mut full: Vec<RankedTuple> = ranked
                .iter()
                .enumerate()
                .filter(|(_, &score)| score > f64::NEG_INFINITY)
                .map(|(id, &score)| (exec.tuple_value(id as u32), score))
                .collect();
            full.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for k in 1..=len + 1 {
                let want = &full[..k.min(full.len())];
                assert_eq!(peps.finalize_top_k(&sink_of(&ranked), k), want, "k = {k}");
            }
        }
    }

    /// A sink holding a dense score array, its scored ids listed in
    /// descending order (emission order is not id order).
    fn sink_of(ranked: &[f64]) -> ScoreSink {
        ScoreSink {
            ranked: ranked.to_vec(),
            scored: (0..ranked.len() as u32)
                .rev()
                .filter(|&id| ranked[id as usize] > f64::NEG_INFINITY)
                .collect(),
        }
    }

    #[test]
    fn at_least_k_scores_reach_the_threshold() {
        let sink = sink_of(&[0.5, f64::NEG_INFINITY, 0.8, 0.3, 0.5]);
        assert!(sink.has_k_at_least(3, 0.5));
        assert!(!sink.has_k_at_least(4, 0.5));
        assert!(sink.has_k_at_least(4, 0.3));
        assert!(!sink.has_k_at_least(5, 0.0), "unscored slots never count");
    }

    #[test]
    fn the_sink_lists_each_scored_id_once_in_first_scored_order() {
        let mut sink = ScoreSink::default();
        sink.emit(&[0], 0.5, 3, &[7u32, 2, 9].into_iter().collect());
        sink.emit(&[1], 0.8, 2, &[9u32, 4].into_iter().collect());
        assert_eq!(sink.scored, [2, 7, 9, 4]);
        assert_eq!(sink.ranked[9], 0.8);
        assert_eq!(sink.ranked[2], 0.5);
        assert_eq!(sink.ranked[3], f64::NEG_INFINITY);
    }

    #[test]
    fn a_recycled_sink_is_idle_again() {
        let mut sink = ScoreSink::reused();
        sink.emit(&[0], 0.5, 3, &[7u32, 2, 9].into_iter().collect());
        sink.recycle();
        let again = ScoreSink::reused();
        assert!(again.scored.is_empty());
        assert_eq!(again.ranked.len(), 10, "the array is kept");
        assert!(again.ranked.iter().all(|&r| r == f64::NEG_INFINITY));
        again.recycle();
    }

    #[test]
    fn empty_profile_returns_nothing() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::single("dblp", ColRef::parse("dblp.pid")));
        let pairs = PairwiseCache::default();
        let peps = Peps::new(&[], &exec, &pairs, PepsVariant::Complete);
        assert!(peps.top_k(5).unwrap().is_empty());
        assert!(peps.ordered_combinations().unwrap().is_empty());
    }
}
