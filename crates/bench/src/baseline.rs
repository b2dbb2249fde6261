//! The pre-bitset `HashSet<Value>` set-algebra baseline.
//!
//! PR 1 replaced the executor's tuple sets with tuple-id bitsets. This
//! module keeps the *old* evaluation strategy alive — per-predicate
//! `HashSet<Value>` materialisation, hash-probe intersections, and a
//! `HashMap<Value, f64>` ranked map — so benches can report the
//! bitset-vs-hashset speedup on identical inputs, and equivalence tests
//! can assert the rewrite changed nothing observable.
//!
//! The baseline issues its own queries through
//! `SelectQuery::distinct_values` (the seed's exact feed) and keeps its
//! own memo cache, so it never touches the executor's sets. Like the
//! PR 1 bitmap generation ([`crate::bitset_baseline`]), it is frozen:
//! the PR 4 hot-path work (SIMD-width kernels, COW expansion) lands
//! only in the adaptive engine, and the three-way
//! equivalence suites pin all generations byte-identical.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use hypre_core::prelude::*;
use relstore::{Predicate, Value};

/// A memoising `HashSet<Value>` evaluator over the same base query an
/// [`Executor`] runs — the seed implementation, preserved.
pub struct HashSetAlgebra<'a, 'db> {
    exec: &'a Executor<'db>,
    cache: RefCell<HashMap<String, Rc<HashSet<Value>>>>,
}

impl<'a, 'db> HashSetAlgebra<'a, 'db> {
    /// Wraps an executor (for its database and base query only).
    pub fn new(exec: &'a Executor<'db>) -> Self {
        HashSetAlgebra {
            exec,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The seed's tuple-set materialisation: one query per distinct
    /// predicate, values cloned into a `HashSet`.
    pub fn tuple_set(&self, unit: &Predicate) -> Result<Rc<HashSet<Value>>> {
        let key = unit.canonical();
        if let Some(set) = self.cache.borrow().get(&key) {
            return Ok(Rc::clone(set));
        }
        let values = self
            .exec
            .base()
            .select_for(unit)
            .distinct_values(self.exec.database(), &self.exec.base().key)?;
        let set: Rc<HashSet<Value>> = Rc::new(values.into_iter().collect());
        self.cache.borrow_mut().insert(key, Rc::clone(&set));
        Ok(set)
    }

    /// Pre-warms the memo cache for a profile (kept outside timed regions
    /// so benches isolate set algebra from SQL).
    pub fn warm(&self, atoms: &[PrefAtom]) -> Result<()> {
        for a in atoms {
            self.tuple_set(&a.predicate)?;
        }
        Ok(())
    }

    /// The seed's AND evaluation: smallest-first hash-probe intersection.
    pub fn and_set(&self, units: &[&Predicate]) -> Result<HashSet<Value>> {
        let mut sets = Vec::with_capacity(units.len());
        for u in units {
            sets.push(self.tuple_set(u)?);
        }
        sets.sort_by_key(|s| s.len());
        let Some(first) = sets.first() else {
            return Ok(HashSet::new());
        };
        let mut acc: HashSet<Value> = first.iter().cloned().collect();
        for s in &sets[1..] {
            acc.retain(|v| s.contains(v));
            if acc.is_empty() {
                break;
            }
        }
        Ok(acc)
    }

    /// The seed's mixed-clause evaluation: per-group unions, then
    /// smallest-first intersection.
    pub fn mixed_set(&self, groups: &[Vec<&Predicate>]) -> Result<HashSet<Value>> {
        let mut group_sets: Vec<HashSet<Value>> = Vec::with_capacity(groups.len());
        for group in groups {
            let mut union: HashSet<Value> = HashSet::new();
            for u in group {
                union.extend(self.tuple_set(u)?.iter().cloned());
            }
            group_sets.push(union);
        }
        group_sets.sort_by_key(HashSet::len);
        let Some(first) = group_sets.first() else {
            return Ok(HashSet::new());
        };
        let mut acc = first.clone();
        for s in &group_sets[1..] {
            acc.retain(|v| s.contains(v));
            if acc.is_empty() {
                break;
            }
        }
        Ok(acc)
    }

    /// The seed's pairwise-cache build: per-pair hash-probe intersection
    /// counts. Returns `(i, j, count)` triples in `(i, j)` order.
    pub fn pairwise_counts(&self, atoms: &[PrefAtom]) -> Result<Vec<(usize, usize, u64)>> {
        let mut sets = Vec::with_capacity(atoms.len());
        for a in atoms {
            sets.push(self.tuple_set(&a.predicate)?);
        }
        let mut out = Vec::with_capacity(atoms.len() * atoms.len().saturating_sub(1) / 2);
        for ai in 0..atoms.len() {
            for bj in ai + 1..atoms.len() {
                let (small, large) = if sets[ai].len() <= sets[bj].len() {
                    (&sets[ai], &sets[bj])
                } else {
                    (&sets[bj], &sets[ai])
                };
                let count = small.iter().filter(|v| large.contains(*v)).count() as u64;
                out.push((ai, bj, count));
            }
        }
        Ok(out)
    }

    /// The seed's brute-force ranking: `HashMap<Value, f64>` residual
    /// accumulation over per-atom tuple sets (the pre-dense
    /// `score_tuples`).
    pub fn score_tuples(&self, atoms: &[PrefAtom]) -> Result<Vec<(Value, f64)>> {
        let mut residual: HashMap<Value, f64> = HashMap::new();
        for atom in atoms {
            for tuple in self.tuple_set(&atom.predicate)?.iter() {
                *residual.entry(tuple.clone()).or_insert(1.0) *= 1.0 - atom.intensity;
            }
        }
        let mut out: Vec<(Value, f64)> = residual.into_iter().map(|(t, r)| (t, 1.0 - r)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(out)
    }

    /// The seed's PEPS scoring loop: re-ranks an already-computed ordered
    /// combination list through hash intersections and a
    /// `HashMap<Value, f64>` ranked map, truncated to `k`. Used as the
    /// like-for-like benchmark counterpart of [`Peps::top_k`]'s dense
    /// inner loop.
    pub fn rank_combinations(
        &self,
        atoms: &[PrefAtom],
        order: &[CombinationRecord],
        k: usize,
    ) -> Result<Vec<(Value, f64)>> {
        let mut ranked: HashMap<Value, f64> = HashMap::new();
        for combo in order.iter().filter(|c| c.applicable()) {
            let units: Vec<&Predicate> =
                combo.members.iter().map(|&m| &atoms[m].predicate).collect();
            for tuple in self.and_set(&units)? {
                ranked
                    .entry(tuple)
                    .and_modify(|v| *v = v.max(combo.intensity))
                    .or_insert(combo.intensity);
            }
        }
        let mut out: Vec<(Value, f64)> = ranked.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        Ok(out)
    }
}

/// The seed's complete PEPS Top-K, preserved verbatim over the HashSet
/// algebra: per-round pair seeding, depth-first expansion with per-step
/// `and_set` applicability checks, a `HashMap<Value, f64>` ranked map and
/// the same early-termination rule. This is the true "before" of the
/// bitset rewrite — bench it against [`hypre_core::algo::peps::Peps`].
pub struct SeedPeps<'x, 'a, 'db> {
    atoms: &'x [PrefAtom],
    algebra: &'x HashSetAlgebra<'a, 'db>,
    pairs: &'x PairwiseCache,
    variant: PepsVariant,
}

impl<'x, 'a, 'db> SeedPeps<'x, 'a, 'db> {
    /// Creates the seed engine over a profile, a HashSet algebra and the
    /// (algebra-independent) pairwise cache.
    pub fn new(
        atoms: &'x [PrefAtom],
        algebra: &'x HashSetAlgebra<'a, 'db>,
        pairs: &'x PairwiseCache,
        variant: PepsVariant,
    ) -> Self {
        SeedPeps {
            atoms,
            algebra,
            pairs,
            variant,
        }
    }

    /// The seed's `ordered_combinations`.
    pub fn ordered_combinations(&self) -> Result<Vec<CombinationRecord>> {
        let mut emitted: HashSet<Vec<usize>> = HashSet::new();
        let mut order: Vec<CombinationRecord> = Vec::new();
        for s in 0..self.atoms.len() {
            self.run_round(s, &mut emitted, &mut order)?;
        }
        sort_order(&mut order);
        Ok(order)
    }

    /// The seed's `top_k`: `HashMap<Value, f64>` ranked map, hash-probe
    /// intersections per combination, identical round and termination
    /// logic to the dense engine.
    pub fn top_k(&self, k: usize) -> Result<Vec<(Value, f64)>> {
        assert!(k > 0, "k must be positive");
        let mut emitted: HashSet<Vec<usize>> = HashSet::new();
        let mut ranked: HashMap<Value, f64> = HashMap::new();
        for s in 0..self.atoms.len() {
            let mut round: Vec<CombinationRecord> = Vec::new();
            self.run_round(s, &mut emitted, &mut round)?;
            sort_order(&mut round);
            for combo in round.iter().filter(|c| c.applicable()) {
                let units: Vec<&Predicate> = combo
                    .members
                    .iter()
                    .map(|&m| &self.atoms[m].predicate)
                    .collect();
                for tuple in self.algebra.and_set(&units)? {
                    ranked
                        .entry(tuple)
                        .and_modify(|v| *v = v.max(combo.intensity))
                        .or_insert(combo.intensity);
                }
            }
            let threshold = self.atoms[s].intensity;
            if ranked.len() >= k && kth_best(&ranked, k) >= threshold {
                break;
            }
        }
        let mut out: Vec<(Value, f64)> = ranked.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        Ok(out)
    }

    fn run_round(
        &self,
        s: usize,
        emitted: &mut HashSet<Vec<usize>>,
        out: &mut Vec<CombinationRecord>,
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
            if emitted.contains(&members) {
                continue;
            }
            self.expand(members, intensity, emitted, out)?;
        }
        let singleton = vec![s];
        if !emitted.contains(&singleton) {
            let tuples = self.algebra.tuple_set(&self.atoms[s].predicate)?.len() as u64;
            if tuples > 0 {
                emitted.insert(singleton.clone());
                out.push(CombinationRecord {
                    members: singleton,
                    predicate: self.atoms[s].predicate.clone(),
                    intensity: self.atoms[s].intensity,
                    tuples,
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
        emitted: &mut HashSet<Vec<usize>>,
        out: &mut Vec<CombinationRecord>,
    ) -> Result<()> {
        if !emitted.insert(members.clone()) {
            return Ok(());
        }
        let units: Vec<&Predicate> = members.iter().map(|&m| &self.atoms[m].predicate).collect();
        let tuples = self.algebra.and_set(&units)?.len() as u64;
        out.push(CombinationRecord {
            members: members.clone(),
            predicate: Predicate::all(members.iter().map(|&m| self.atoms[m].predicate.clone())),
            intensity,
            tuples,
        });
        let last = *members.last().expect("combinations are non-empty");
        let candidates: Vec<usize> = self
            .pairs
            .pairs_from(last)
            .map(|e| e.j)
            .filter(|m| !members.contains(m))
            .collect();
        for m in candidates {
            let mut ext_members = members.clone();
            ext_members.push(m);
            if emitted.contains(&ext_members) {
                continue;
            }
            let ext_units: Vec<&Predicate> = ext_members
                .iter()
                .map(|&i| &self.atoms[i].predicate)
                .collect();
            if !self.algebra.and_set(&ext_units)?.is_empty() {
                let ext_intensity = f_and(intensity, self.atoms[m].intensity);
                self.expand(ext_members, ext_intensity, emitted, out)?;
            }
        }
        Ok(())
    }
}

fn sort_order(order: &mut [CombinationRecord]) {
    order.sort_by(|a, b| {
        b.intensity
            .total_cmp(&a.intensity)
            .then_with(|| a.members.len().cmp(&b.members.len()))
            .then_with(|| a.members.cmp(&b.members))
    });
}

fn kth_best(ranked: &HashMap<Value, f64>, k: usize) -> f64 {
    let mut scores: Vec<f64> = ranked.values().copied().collect();
    scores.sort_by(|a, b| b.total_cmp(a));
    scores.get(k - 1).copied().unwrap_or(f64::NEG_INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::parse_predicate;

    #[test]
    fn baseline_agrees_with_bitset_engine_on_the_fixture() {
        let fx = crate::Fixture::small();
        let exec = fx.executor();
        let baseline = HashSetAlgebra::new(&exec);
        let atoms: Vec<PrefAtom> = fx
            .graph
            .positive_profile(fx.rich_user)
            .into_iter()
            .take(10)
            .collect();
        assert!(atoms.len() >= 4, "profile too small for the test");

        // unit sets
        for a in &atoms {
            let bits = exec.tuples(&a.predicate).unwrap();
            let hash = baseline.tuple_set(&a.predicate).unwrap();
            let mut hash_sorted: Vec<Value> = hash.iter().cloned().collect();
            hash_sorted.sort();
            assert_eq!(bits, hash_sorted, "unit set for {}", a.predicate);
        }

        // AND combinations
        let units: Vec<&Predicate> = atoms.iter().take(3).map(|a| &a.predicate).collect();
        let mut hash_and: Vec<Value> = baseline.and_set(&units).unwrap().into_iter().collect();
        hash_and.sort();
        assert_eq!(exec.tuples_and(&units).unwrap(), hash_and);

        // pairwise counts
        let cache = PairwiseCache::build(&atoms, &exec).unwrap();
        let counts = baseline.pairwise_counts(&atoms).unwrap();
        assert_eq!(cache.entries().len(), counts.len());
        for (entry, (i, j, count)) in cache.entries().iter().zip(counts) {
            assert_eq!((entry.i, entry.j, entry.count), (i, j, count));
        }
    }

    #[test]
    fn baseline_scoring_matches_dense_scoring() {
        let fx = crate::Fixture::small();
        let exec = fx.executor();
        let baseline = HashSetAlgebra::new(&exec);
        let atoms = fx.graph.positive_profile(fx.modest_user);
        let dense = score_tuples(&exec, &atoms).unwrap();
        let hash = baseline.score_tuples(&atoms).unwrap();
        assert_eq!(dense.len(), hash.len());
        for ((dt, dg), (ht, hg)) in dense.iter().zip(hash.iter()) {
            assert_eq!(dt, ht);
            assert!((dg - hg).abs() < 1e-12);
        }
    }

    #[test]
    fn seed_peps_is_byte_identical_to_dense_peps() {
        let fx = crate::Fixture::small();
        let exec = fx.executor();
        let baseline = HashSetAlgebra::new(&exec);
        let atoms: Vec<PrefAtom> = fx
            .graph
            .positive_profile(fx.rich_user)
            .into_iter()
            .take(12)
            .collect();
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let dense = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete);
        let seed = SeedPeps::new(&atoms, &baseline, &pairs, PepsVariant::Complete);
        assert_eq!(
            dense.ordered_combinations().unwrap(),
            seed.ordered_combinations().unwrap()
        );
        for k in [1usize, 5, 50, 500] {
            assert_eq!(dense.top_k(k).unwrap(), seed.top_k(k).unwrap(), "k={k}");
        }
        // Approximate variant too.
        let dense = Peps::new(&atoms, &exec, &pairs, PepsVariant::Approximate);
        let seed = SeedPeps::new(&atoms, &baseline, &pairs, PepsVariant::Approximate);
        assert_eq!(dense.top_k(25).unwrap(), seed.top_k(25).unwrap());
    }

    #[test]
    fn mixed_set_matches_engine() {
        let fx = crate::Fixture::small();
        let exec = fx.executor();
        let baseline = HashSetAlgebra::new(&exec);
        let a = parse_predicate("dblp.year>=2005").unwrap();
        let b = parse_predicate("dblp.year>=2009").unwrap();
        let groups = [vec![&a, &b]];
        let bits = exec.mixed_set(&groups).unwrap();
        let hash = baseline.mixed_set(&groups).unwrap();
        assert_eq!(bits.count(), hash.len());
        let mut hash_sorted: Vec<Value> = hash.into_iter().collect();
        hash_sorted.sort();
        assert_eq!(exec.values_of(&bits), hash_sorted);
    }
}
