//! The pure-bitmap (PR 1) set-algebra generation, preserved.
//!
//! PR 2 made the executor's tuple sets *adaptive* ([`TupleSet`]): sorted
//! `u32` arrays below the cardinality threshold, packed-word bitmaps
//! above it. This module keeps the intermediate generation — every set a
//! plain [`BitSet`] regardless of cardinality — alive behind the same
//! tuple-id space, so the three-way `adaptive-vs-bitset-vs-hashset`
//! benches and the differential equivalence tests can compare all three
//! generations on identical inputs:
//!
//! * seed — `HashSet<Value>` algebra ([`crate::baseline`]);
//! * PR 1 — dense `BitSet` algebra (this module);
//! * PR 2 — adaptive `TupleSet` algebra (`hypre_core` proper).
//!
//! [`BitsetAlgebra`] materialises per-predicate `Rc<BitSet>`s by fetching
//! the executor's adaptive set once (memoised; no extra SQL) and
//! re-packing it densely, so both engines agree on tuple ids and the
//! comparison isolates the container representation. [`BitsetPeps`] is
//! the PR 1 PEPS engine verbatim — per-round pair seeding, depth-first
//! expansion with one incremental word-AND per node, dense `Vec<f64>`
//! ranking and the same ordering and early-termination rules — and must
//! stay byte-identical to [`Peps`].
//!
//! **Frozen-control contract (PR 3+).** The bench-regression guard
//! normalises headline timings by this engine, so it must keep measuring
//! the *same* work run over run: it calls only `BitSet`'s original plain
//! word-loop methods (`and`/`or`/`and_not`/`and_count`), never the PR 4
//! SIMD-width `*_wide` kernels, and it predates the PR 4 run container,
//! clone-free COW expansion and packed dedup keys by design — those land
//! in the adaptive engine this module exists to measure against.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use hypre_core::prelude::*;
use relstore::{Predicate, Value};

/// A memoising pure-`BitSet` evaluator sharing an [`Executor`]'s tuple-id
/// space — the PR 1 representation, preserved.
pub struct BitsetAlgebra<'a, 'db> {
    exec: &'a Executor<'db>,
    cache: RefCell<HashMap<String, Rc<BitSet>>>,
}

impl<'a, 'db> BitsetAlgebra<'a, 'db> {
    /// Wraps an executor (for its memoised tuple sets and tuple values).
    pub fn new(exec: &'a Executor<'db>) -> Self {
        BitsetAlgebra {
            exec,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The predicate's tuple set as a dense bitmap over the executor's
    /// tuple ids (one adaptive-set fetch + densification, memoised).
    pub fn tuple_set(&self, unit: &Predicate) -> Result<Rc<BitSet>> {
        let key = unit.canonical();
        if let Some(set) = self.cache.borrow().get(&key) {
            return Ok(Rc::clone(set));
        }
        let set = Rc::new(self.exec.tuple_set(unit)?.to_bitset());
        self.cache.borrow_mut().insert(key, Rc::clone(&set));
        Ok(set)
    }

    /// Pre-warms the memo cache for a profile (kept outside timed bench
    /// regions so the comparison isolates set algebra from SQL).
    pub fn warm(&self, atoms: &[PrefAtom]) -> Result<()> {
        for a in atoms {
            self.tuple_set(&a.predicate)?;
        }
        Ok(())
    }

    /// PR 1's AND evaluation: smallest-first word-AND accumulation.
    pub fn and_set(&self, units: &[&Predicate]) -> Result<BitSet> {
        let mut sets = Vec::with_capacity(units.len());
        for u in units {
            sets.push(self.tuple_set(u)?);
        }
        sets.sort_by_key(|s| s.count());
        let Some(first) = sets.first() else {
            return Ok(BitSet::new());
        };
        let mut acc: BitSet = (**first).clone();
        for s in &sets[1..] {
            acc.and_assign(s);
            if acc.is_empty() {
                break;
            }
        }
        Ok(acc)
    }

    /// PR 1's mixed-clause evaluation: per-group word-OR unions, then
    /// smallest-first word-AND intersection.
    pub fn mixed_set(&self, groups: &[Vec<&Predicate>]) -> Result<BitSet> {
        let mut group_sets: Vec<BitSet> = Vec::with_capacity(groups.len());
        for group in groups {
            let mut union = BitSet::new();
            for u in group {
                let set = self.tuple_set(u)?;
                union.or_assign(&set);
            }
            group_sets.push(union);
        }
        group_sets.sort_by_key(BitSet::count);
        let Some(first) = group_sets.first() else {
            return Ok(BitSet::new());
        };
        let mut acc = first.clone();
        for s in &group_sets[1..] {
            acc.and_assign(s);
            if acc.is_empty() {
                break;
            }
        }
        Ok(acc)
    }

    /// PR 1's pairwise-cache build: per-pair word-AND popcounts. Returns
    /// `(i, j, count)` triples in `(i, j)` order.
    pub fn pairwise_counts(&self, atoms: &[PrefAtom]) -> Result<Vec<(usize, usize, u64)>> {
        let mut sets = Vec::with_capacity(atoms.len());
        for a in atoms {
            sets.push(self.tuple_set(&a.predicate)?);
        }
        let mut out = Vec::with_capacity(atoms.len() * atoms.len().saturating_sub(1) / 2);
        for ai in 0..atoms.len() {
            for bj in ai + 1..atoms.len() {
                out.push((ai, bj, sets[ai].and_count(&sets[bj]) as u64));
            }
        }
        Ok(out)
    }

    /// PR 1's dense scorer: residual accumulation in a `Vec<f64>` indexed
    /// by tuple id, touched ids tracked in a bitmap.
    pub fn score_tuples(&self, atoms: &[PrefAtom]) -> Result<Vec<(Value, f64)>> {
        let mut residual: Vec<f64> = Vec::new();
        let mut touched = BitSet::new();
        for atom in atoms {
            let set = self.tuple_set(&atom.predicate)?;
            for id in set.iter() {
                let idx = id as usize;
                if idx >= residual.len() {
                    residual.resize(idx + 1, 1.0);
                }
                residual[idx] *= 1.0 - atom.intensity;
                touched.insert(id);
            }
        }
        let mut out: Vec<(Value, f64)> = touched
            .iter()
            .map(|id| (self.exec.tuple_value(id), 1.0 - residual[id as usize]))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(out)
    }
}

/// The PR 1 dense PEPS engine over pure bitmaps — byte-identical output to
/// [`Peps`], kept for three-way benchmarking and differential testing.
pub struct BitsetPeps<'x, 'a, 'db> {
    atoms: &'x [PrefAtom],
    algebra: &'x BitsetAlgebra<'a, 'db>,
    pairs: &'x PairwiseCache,
    variant: PepsVariant,
}

impl<'x, 'a, 'db> BitsetPeps<'x, 'a, 'db> {
    /// Creates the engine over a profile, a bitmap algebra and the
    /// (algebra-independent) pairwise cache.
    pub fn new(
        atoms: &'x [PrefAtom],
        algebra: &'x BitsetAlgebra<'a, 'db>,
        pairs: &'x PairwiseCache,
        variant: PepsVariant,
    ) -> Self {
        BitsetPeps {
            atoms,
            algebra,
            pairs,
            variant,
        }
    }

    /// PR 1's `ordered_combinations`: every applicable combination of
    /// every round, sorted by descending combined intensity.
    pub fn ordered_combinations(&self) -> Result<Vec<CombinationRecord>> {
        let sets = self.atom_sets()?;
        let mut emitted: HashSet<Vec<usize>> = HashSet::new();
        let mut order: Vec<RoundCombo> = Vec::new();
        for s in 0..self.atoms.len() {
            self.run_round(s, &sets, &mut emitted, &mut order)?;
        }
        sort_order(&mut order);
        Ok(order
            .into_iter()
            .map(|c| CombinationRecord {
                predicate: Predicate::all(
                    c.members.iter().map(|&m| self.atoms[m].predicate.clone()),
                ),
                members: c.members,
                intensity: c.intensity,
                tuples: c.tuples,
            })
            .collect())
    }

    /// PR 1's `top_k`: dense `Vec<f64>` ranking indexed by tuple id, same
    /// rounds, sorting and early-termination rule as the adaptive engine.
    pub fn top_k(&self, k: usize) -> Result<Vec<(Value, f64)>> {
        assert!(k > 0, "k must be positive");
        let sets = self.atom_sets()?;
        let mut emitted: HashSet<Vec<usize>> = HashSet::new();
        let mut ranked: Vec<f64> = Vec::new();
        let mut n_ranked = 0usize;
        for s in 0..self.atoms.len() {
            let mut round: Vec<RoundCombo> = Vec::new();
            self.run_round(s, &sets, &mut emitted, &mut round)?;
            sort_order(&mut round);
            for combo in &round {
                if combo.tuples == 0 {
                    continue;
                }
                for id in combo.set.iter() {
                    let idx = id as usize;
                    if idx >= ranked.len() {
                        ranked.resize(idx + 1, f64::NEG_INFINITY);
                    }
                    if ranked[idx] == f64::NEG_INFINITY {
                        n_ranked += 1;
                        ranked[idx] = combo.intensity;
                    } else if combo.intensity > ranked[idx] {
                        ranked[idx] = combo.intensity;
                    }
                }
            }
            let threshold = self.atoms[s].intensity;
            if n_ranked >= k && kth_best(&ranked, k) >= threshold {
                break;
            }
        }
        let mut out: Vec<(Value, f64)> = ranked
            .iter()
            .enumerate()
            .filter(|(_, &score)| score > f64::NEG_INFINITY)
            .map(|(id, &score)| (self.algebra.exec.tuple_value(id as u32), score))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        Ok(out)
    }

    fn run_round(
        &self,
        s: usize,
        sets: &[Rc<BitSet>],
        emitted: &mut HashSet<Vec<usize>>,
        out: &mut Vec<RoundCombo>,
    ) -> Result<()> {
        let threshold = self.atoms[s].intensity;
        let seeds: Vec<(usize, usize, f64)> = self
            .pairs
            .entries()
            .iter()
            .filter(|e| e.applicable())
            .filter(|e| self.admits(e.i, e.j, e.intensity, threshold))
            .map(|e| (e.i, e.j, e.intensity))
            .collect();
        for (i, j, intensity) in seeds {
            let members = vec![i, j];
            if !emitted.insert(members.clone()) {
                continue;
            }
            self.expand(members, intensity, sets[i].and(&sets[j]), sets, out);
        }
        let singleton = vec![s];
        if !emitted.contains(&singleton) {
            let set = Rc::clone(&sets[s]);
            let tuples = set.count() as u64;
            if tuples > 0 {
                emitted.insert(singleton.clone());
                out.push(RoundCombo {
                    members: singleton,
                    intensity: self.atoms[s].intensity,
                    tuples,
                    set,
                });
            }
        }
        Ok(())
    }

    fn admits(&self, i: usize, j: usize, pair_intensity: f64, threshold: f64) -> bool {
        if pair_intensity > threshold {
            return true;
        }
        match self.variant {
            PepsVariant::Approximate => false,
            PepsVariant::Complete => {
                let mut residual = 1.0 - pair_intensity;
                for (m, atom) in self.atoms.iter().enumerate() {
                    if m != i && m != j && atom.intensity > 0.0 {
                        residual *= 1.0 - atom.intensity;
                    }
                }
                1.0 - residual > threshold
            }
        }
    }

    fn expand(
        &self,
        members: Vec<usize>,
        intensity: f64,
        set: BitSet,
        sets: &[Rc<BitSet>],
        out: &mut Vec<RoundCombo>,
    ) {
        let set: Rc<BitSet> = Rc::new(set);
        out.push(RoundCombo {
            members: members.clone(),
            intensity,
            tuples: set.count() as u64,
            set: Rc::clone(&set),
        });
        let last = *members.last().expect("combinations are non-empty");
        let candidates: Vec<usize> = self.pairs.pairs_from(last).map(|e| e.j).collect();
        for m in candidates {
            let sm = &sets[m];
            if !set.intersects(sm) {
                continue;
            }
            let mut ext_members = members.clone();
            ext_members.push(m);
            let ext_intensity = f_and(intensity, self.atoms[m].intensity);
            self.expand(ext_members, ext_intensity, set.and(sm), sets, out);
        }
    }

    fn atom_sets(&self) -> Result<Vec<Rc<BitSet>>> {
        self.atoms
            .iter()
            .map(|a| self.algebra.tuple_set(&a.predicate))
            .collect()
    }
}

/// A round combination carrying its dense tuple set (mirror of the
/// engine-internal struct of both dense generations).
struct RoundCombo {
    members: Vec<usize>,
    intensity: f64,
    tuples: u64,
    set: Rc<BitSet>,
}

fn sort_order(order: &mut [RoundCombo]) {
    order.sort_by(|a, b| {
        b.intensity
            .total_cmp(&a.intensity)
            .then_with(|| a.members.len().cmp(&b.members.len()))
            .then_with(|| a.members.cmp(&b.members))
    });
}

fn kth_best(ranked: &[f64], k: usize) -> f64 {
    let mut scores: Vec<f64> = ranked
        .iter()
        .copied()
        .filter(|&s| s > f64::NEG_INFINITY)
        .collect();
    if scores.len() < k {
        return f64::NEG_INFINITY;
    }
    let (_, kth, _) = scores.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
    *kth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_algebra_matches_adaptive_engine_on_the_fixture() {
        let fx = crate::Fixture::small();
        let exec = fx.executor();
        let dense = BitsetAlgebra::new(&exec);
        let atoms: Vec<PrefAtom> = fx
            .graph
            .positive_profile(fx.rich_user)
            .into_iter()
            .take(10)
            .collect();
        assert!(atoms.len() >= 4, "profile too small for the test");

        for a in &atoms {
            let adaptive = exec.tuple_set(&a.predicate).unwrap();
            let bits = dense.tuple_set(&a.predicate).unwrap();
            assert_eq!(adaptive.count(), bits.count());
            assert_eq!(
                adaptive.iter().collect::<Vec<_>>(),
                bits.iter().collect::<Vec<_>>(),
                "ids for {}",
                a.predicate
            );
        }

        let units: Vec<&Predicate> = atoms.iter().take(3).map(|a| &a.predicate).collect();
        assert_eq!(
            exec.and_set(&units).unwrap().iter().collect::<Vec<_>>(),
            dense.and_set(&units).unwrap().iter().collect::<Vec<_>>()
        );

        let cache = PairwiseCache::build(&atoms, &exec).unwrap();
        for (entry, (i, j, count)) in cache
            .entries()
            .iter()
            .zip(dense.pairwise_counts(&atoms).unwrap())
        {
            assert_eq!((entry.i, entry.j, entry.count), (i, j, count));
        }
    }

    #[test]
    fn bitset_peps_is_byte_identical_to_adaptive_peps() {
        let fx = crate::Fixture::small();
        let exec = fx.executor();
        let dense = BitsetAlgebra::new(&exec);
        let atoms: Vec<PrefAtom> = fx
            .graph
            .positive_profile(fx.rich_user)
            .into_iter()
            .take(12)
            .collect();
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        for variant in [PepsVariant::Complete, PepsVariant::Approximate] {
            let adaptive = Peps::new(&atoms, &exec, &pairs, variant);
            let bitmap = BitsetPeps::new(&atoms, &dense, &pairs, variant);
            assert_eq!(
                adaptive.ordered_combinations().unwrap(),
                bitmap.ordered_combinations().unwrap()
            );
            for k in [1usize, 5, 50, 500] {
                assert_eq!(
                    adaptive.top_k(k).unwrap(),
                    bitmap.top_k(k).unwrap(),
                    "k={k}"
                );
            }
        }
    }
}
