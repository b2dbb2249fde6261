//! Equivalence properties for the PR 1 bitset rewrite: on random
//! predicates over the generated DBLP corpus, the interned-bitset algebra
//! (`and`/`or`/`count`/iteration) must agree exactly with the
//! seed's `HashSet<Value>` evaluation, and `Peps::top_k` /
//! `ordered_combinations` must produce identical output to the
//! HashSet-based reference loop.

use std::collections::HashSet;
use std::sync::OnceLock;

use proptest::prelude::*;

use hypre_bench::baseline::{HashSetAlgebra, SeedPeps};
use hypre_bench::Fixture;
use hypre_repro::prelude::*;
use hypre_repro::relstore::{Predicate, Value};

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(Fixture::small)
}

/// Draws a predicate from the extracted workload (a real stored
/// preference over the corpus) or a synthetic year-range/venue atom, so
/// both dense and empty tuple sets are exercised.
fn corpus_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (0usize..1 << 16).prop_map(|i| {
            let quant = &fixture().workload.quantitative;
            quant[i % quant.len()].predicate.clone()
        }),
        (1990i64..2014).prop_map(|y| {
            hypre_repro::relstore::parse_predicate(&format!("dblp.year>={y}")).unwrap()
        }),
        (0u64..40).prop_map(|a| {
            hypre_repro::relstore::parse_predicate(&format!("dblp_author.aid={a}")).unwrap()
        }),
    ]
}

fn sorted(values: impl IntoIterator<Item = Value>) -> Vec<Value> {
    let mut out: Vec<Value> = values.into_iter().collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unit sets, AND (intersection), OR (union), popcount and
    /// ascending-id iteration all match the HashSet baseline.
    #[test]
    fn prop_bitset_algebra_matches_hashset_baseline(
        a in corpus_predicate(),
        b in corpus_predicate(),
        c in corpus_predicate(),
    ) {
        let fx = fixture();
        let exec = fx.executor();
        let baseline = HashSetAlgebra::new(&exec);

        // unit sets
        for p in [&a, &b, &c] {
            let bits = exec.tuple_set(p).unwrap();
            let hash = baseline.tuple_set(p).unwrap();
            prop_assert_eq!(bits.count(), hash.len(), "count for {}", p);
            prop_assert_eq!(bits.is_empty(), hash.is_empty());
            prop_assert_eq!(exec.tuples(p).unwrap(), sorted(hash.iter().cloned()));
        }

        let (sa, sb) = (exec.tuple_set(&a).unwrap(), exec.tuple_set(&b).unwrap());
        let (ha, hb) = (baseline.tuple_set(&a).unwrap(), baseline.tuple_set(&b).unwrap());

        // and
        let and_vals = exec.values_of(&sa.and(&sb));
        prop_assert_eq!(and_vals, sorted(ha.intersection(&hb).cloned()));
        prop_assert_eq!(sa.and_count(&sb), ha.intersection(&hb).count());
        prop_assert_eq!(sa.intersects(&sb), !ha.is_disjoint(&hb));
        prop_assert_eq!(
            exec.tuples_and(&[&a, &b, &c]).unwrap(),
            sorted(baseline.and_set(&[&a, &b, &c]).unwrap())
        );

        // or (via the mixed-clause single group and the raw bitset union)
        let or_vals = exec.values_of(&sa.or(&sb));
        prop_assert_eq!(&or_vals, &sorted(ha.union(&hb).cloned()));
        let mixed = exec.mixed_set(&[vec![&a, &b]]).unwrap();
        prop_assert_eq!(exec.values_of(&mixed), or_vals);

        // iteration is ascending and duplicate-free
        let ids: Vec<u32> = sa.iter().collect();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(ids.len(), sa.count());

        // mixed clause: (a ∪ b) ∩ c
        let groups = [vec![&a, &b], vec![&c]];
        let bits_mixed = exec.mixed_set(&groups).unwrap();
        let hash_mixed = baseline.mixed_set(&groups).unwrap();
        prop_assert_eq!(exec.values_of(&bits_mixed), sorted(hash_mixed));
    }
}

/// Builds a profile of distinct predicates with descending intensities.
fn profile_from(prefs: Vec<(Predicate, f64)>) -> Vec<PrefAtom> {
    let mut atoms: Vec<PrefAtom> = Vec::new();
    let mut seen = HashSet::new();
    for (p, v) in prefs {
        if seen.insert(p.canonical()) {
            atoms.push(PrefAtom::new(atoms.len(), p, v));
        }
    }
    atoms.sort_by(|x, y| y.intensity.total_cmp(&x.intensity));
    for (i, a) in atoms.iter_mut().enumerate() {
        a.index = i;
    }
    atoms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `ordered_combinations` and `top_k` over the bitset engine are
    /// byte-identical to the HashSet reference of the same PEPS variant:
    /// same combination records (the counts come out of hash
    /// intersections on the reference side) and the same ranked tuples
    /// with the same scores.
    #[test]
    fn prop_peps_output_identical_to_hashset_reference(
        prefs in prop::collection::vec(
            (corpus_predicate(), 0.05f64..=0.95),
            2..6,
        ),
        k in 1usize..40,
        variant in prop_oneof![Just(PepsVariant::Complete), Just(PepsVariant::Approximate)],
    ) {
        let fx = fixture();
        let exec = fx.executor();
        let baseline = HashSetAlgebra::new(&exec);
        let atoms = profile_from(prefs);

        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        // Pairwise counts equal the hash-intersection counts.
        for (entry, (i, j, count)) in pairs
            .entries()
            .iter()
            .zip(baseline.pairwise_counts(&atoms).unwrap())
        {
            prop_assert_eq!((entry.i, entry.j, entry.count), (i, j, count));
        }

        let peps = Peps::new(&atoms, &exec, &pairs, variant);
        let seed = SeedPeps::new(&atoms, &baseline, &pairs, variant);

        // ordered_combinations is byte-identical to the seed algorithm
        // (same records, same counts, same bit-exact intensities).
        let order = peps.ordered_combinations().unwrap();
        prop_assert_eq!(&order, &seed.ordered_combinations().unwrap());

        // top_k is byte-identical to the seed's HashMap-ranked top_k —
        // rounds, expansion and early termination included.
        let got = peps.top_k(k).unwrap();
        let want = seed.top_k(k).unwrap();
        prop_assert_eq!(&got, &want);

        // Complete PEPS also agrees with the brute-force residual scorer
        // up to floating-point association (PEPS multiplies `1−p`
        // factors in chain order, the scorer in profile order).
        // Approximate PEPS may miss combinations, so only the seed
        // reference binds it.
        if variant == PepsVariant::Complete {
            let brute = baseline.score_tuples(&atoms).unwrap();
            prop_assert_eq!(got.len(), k.min(brute.len()));
            let by_tuple: std::collections::HashMap<&Value, f64> =
                brute.iter().map(|(t, g)| (t, *g)).collect();
            prop_assert!(got.windows(2).all(|w| w[0].1 >= w[1].1), "descending scores");
            for (t, g) in &got {
                let bg = by_tuple[t];
                prop_assert!((g - bg).abs() < 1e-9, "{t}: {g} vs {bg}");
            }
        }
    }
}
