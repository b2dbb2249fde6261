//! Three-way differential properties for the PR 2 adaptive tuple-set
//! rewrite: on random predicate *trees* over the generated DBLP corpus,
//! the adaptive `TupleSet` algebra, the pure-bitmap `BitSet` algebra and
//! the seed `HashSet<Value>` algebra must agree exactly — and
//! `Peps::top_k` / `ordered_combinations` must be byte-identical across
//! all three engine generations (adaptive `Peps`, PR 1 `BitsetPeps`, seed
//! `SeedPeps`).

use std::collections::HashSet;
use std::sync::OnceLock;

use proptest::prelude::*;

use hypre_bench::baseline::{HashSetAlgebra, SeedPeps};
use hypre_bench::bitset_baseline::{BitsetAlgebra, BitsetPeps};
use hypre_bench::Fixture;
use hypre_repro::prelude::*;
use hypre_repro::relstore::{Predicate, Value};

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(Fixture::small)
}

/// Draws a predicate from the extracted workload (a real stored
/// preference over the corpus), a synthetic year-range or author atom,
/// or a `dblp.pid BETWEEN` range (contiguous driver rows, the shape a
/// fresh ad-hoc atom has), so dense, sparse, contiguous and empty tuple
/// sets are all exercised.
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
        (1u64..1300, 0u64..600).prop_map(|(lo, len)| {
            let text = format!("dblp.pid BETWEEN {lo} AND {}", lo + len);
            hypre_repro::relstore::parse_predicate(&text).unwrap()
        }),
    ]
}

/// A random set-algebra expression tree over corpus predicates.
#[derive(Debug, Clone)]
enum Expr {
    Atom(Predicate),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

fn expr_tree() -> BoxedStrategy<Expr> {
    corpus_predicate()
        .prop_map(Expr::Atom)
        .boxed()
        .prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone(), 0u8..2).prop_map(|(a, b, op)| {
                    let (a, b) = (Box::new(a), Box::new(b));
                    match op {
                        0 => Expr::And(a, b),
                        _ => Expr::Or(a, b),
                    }
                }),
            ]
        })
}

/// Evaluates the tree over the adaptive engine, asserting the container
/// invariant on every intermediate result.
fn eval_adaptive(expr: &Expr, exec: &Executor<'_>) -> TupleSet {
    let out = match expr {
        Expr::Atom(p) => (*exec.tuple_set(p).unwrap()).clone(),
        Expr::And(a, b) => eval_adaptive(a, exec).and(&eval_adaptive(b, exec)),
        Expr::Or(a, b) => eval_adaptive(a, exec).or(&eval_adaptive(b, exec)),
    };
    assert_canonical(&out);
    out
}

/// Canonical-container invariant: rebuilding from the id list reproduces
/// the representation exactly (the container is a pure function of the
/// contents), and the array respects its cardinality cap.
fn assert_canonical(out: &TupleSet) {
    let rebuilt: TupleSet = out.iter().collect();
    assert_eq!(out, &rebuilt, "non-canonical container");
    assert_eq!(out.container(), rebuilt.container());
    if out.is_array() {
        assert!(out.count() <= ARRAY_MAX, "array container over the cap");
    }
}

/// Evaluates the tree over the pure-bitmap reference algebra.
fn eval_bitset(expr: &Expr, algebra: &BitsetAlgebra<'_, '_>) -> BitSet {
    match expr {
        Expr::Atom(p) => (*algebra.tuple_set(p).unwrap()).clone(),
        Expr::And(a, b) => eval_bitset(a, algebra).and(&eval_bitset(b, algebra)),
        Expr::Or(a, b) => eval_bitset(a, algebra).or(&eval_bitset(b, algebra)),
    }
}

/// Evaluates the tree over the seed `HashSet<Value>` algebra.
fn eval_hashset(expr: &Expr, algebra: &HashSetAlgebra<'_, '_>) -> HashSet<Value> {
    match expr {
        Expr::Atom(p) => (*algebra.tuple_set(p).unwrap()).clone(),
        Expr::And(a, b) => {
            let (x, y) = (eval_hashset(a, algebra), eval_hashset(b, algebra));
            x.intersection(&y).cloned().collect()
        }
        Expr::Or(a, b) => {
            let (x, y) = (eval_hashset(a, algebra), eval_hashset(b, algebra));
            x.union(&y).cloned().collect()
        }
    }
}

fn sorted(values: impl IntoIterator<Item = Value>) -> Vec<Value> {
    let mut out: Vec<Value> = values.into_iter().collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The three algebra generations agree on random predicate trees:
    /// same ids (adaptive vs bitmap), same identities (vs the seed
    /// HashSet evaluation), same counts and emptiness, and the adaptive
    /// results keep canonical containers throughout.
    #[test]
    fn prop_three_way_algebra_agrees_on_random_trees(tree in expr_tree()) {
        let fx = fixture();
        let exec = fx.executor();
        let bitset = BitsetAlgebra::new(&exec);
        let hashset = HashSetAlgebra::new(&exec);

        let adaptive = eval_adaptive(&tree, &exec);
        let dense = eval_bitset(&tree, &bitset);
        let seed = eval_hashset(&tree, &hashset);

        // adaptive ≡ bitset: identical interned id lists
        prop_assert_eq!(
            adaptive.iter().collect::<Vec<u32>>(),
            dense.iter().collect::<Vec<u32>>()
        );
        prop_assert_eq!(adaptive.count(), dense.count());
        prop_assert_eq!(adaptive.is_empty(), dense.is_empty());

        // adaptive ≡ hashset: identical tuple identities
        prop_assert_eq!(exec.values_of(&adaptive), sorted(seed));

        // ascending, duplicate-free iteration
        let ids: Vec<u32> = adaptive.iter().collect();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    /// Pairwise ops between two random trees agree across generations in
    /// both argument orders (mixed containers included), and the
    /// non-materialising ops (`and_count`, `intersects`) match their
    /// materialised counterparts.
    #[test]
    fn prop_three_way_pairwise_ops_agree(a in expr_tree(), b in expr_tree()) {
        let fx = fixture();
        let exec = fx.executor();
        let bitset = BitsetAlgebra::new(&exec);

        let (xa, xb) = (eval_adaptive(&a, &exec), eval_adaptive(&b, &exec));
        let (da, db) = (eval_bitset(&a, &bitset), eval_bitset(&b, &bitset));

        for ((x, y), (p, q)) in [((&xa, &xb), (&da, &db)), ((&xb, &xa), (&db, &da))] {
            prop_assert_eq!(x.and_count(y), p.and_count(q));
            prop_assert_eq!(x.and_count(y), x.and(y).count());
            prop_assert_eq!(x.intersects(y), p.intersects(q));
            prop_assert_eq!(x.intersects(y), !x.and(y).is_empty());
            let mut and_acc = x.clone();
            and_acc.and_assign(y);
            prop_assert_eq!(&and_acc, &x.and(y), "and_assign ≡ and");
            let mut or_acc = x.clone();
            or_acc.or_assign(y);
            prop_assert_eq!(&or_acc, &x.or(y), "or_assign ≡ or");
        }
    }
}

/// A random id set shaped to exercise both containers and their
/// boundaries: a union of a few contiguous ranges plus scattered ids, so
/// op results land on both sides of the promotion rule.
fn shaped_ids() -> impl Strategy<Value = Vec<u32>> {
    (
        prop::collection::vec((0u32..50_000, 1u32..2_000), 0..6),
        prop::collection::vec(0u32..200_000, 0..40),
    )
        .prop_map(|(ranges, scatter)| {
            let mut ids: Vec<u32> = scatter;
            for (s, l) in ranges {
                ids.extend(s..s.saturating_add(l));
            }
            ids.sort_unstable();
            ids.dedup();
            ids
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Range boundary property: on synthetic range-plus-scatter sets,
    /// every op agrees with plain `HashSet<u32>` semantics in both
    /// argument orders, every result keeps a canonical container, and
    /// inserts at range edges match reference inserts exactly.
    #[test]
    fn prop_run_boundary_algebra_agrees_with_hashset(a in shaped_ids(), b in shaped_ids()) {
        let ta: TupleSet = a.iter().copied().collect();
        let tb: TupleSet = b.iter().copied().collect();
        let ha: HashSet<u32> = a.iter().copied().collect();
        let hb: HashSet<u32> = b.iter().copied().collect();
        assert_canonical(&ta);
        assert_canonical(&tb);

        for ((x, y), (p, q)) in [((&ta, &tb), (&ha, &hb)), ((&tb, &ta), (&hb, &ha))] {
            let mut want_and: Vec<u32> = p.intersection(q).copied().collect();
            want_and.sort_unstable();
            prop_assert_eq!(&x.and(y).iter().collect::<Vec<u32>>(), &want_and);
            prop_assert_eq!(x.and_count(y), want_and.len());
            prop_assert_eq!(x.intersects(y), !want_and.is_empty());
            let mut want_or: Vec<u32> = p.union(q).copied().collect();
            want_or.sort_unstable();
            prop_assert_eq!(x.or(y).iter().collect::<Vec<u32>>(), want_or);
            let mut and_acc = x.clone();
            and_acc.and_assign(y);
            prop_assert_eq!(&and_acc, &x.and(y));
            let mut or_acc = x.clone();
            or_acc.or_assign(y);
            prop_assert_eq!(&or_acc, &x.or(y));
            for r in [x.and(y), x.or(y)] {
                assert_canonical(&r);
            }
        }

        // Inserts at range edges: one at a time, each set must match the
        // reference and stay canonical.
        let mut mutated = ta.clone();
        let mut reference = ha.clone();
        for id in b.iter().copied().take(8) {
            prop_assert_eq!(mutated.insert(id), reference.insert(id));
            prop_assert!(mutated.contains(id));
            assert_canonical(&mutated);
        }
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `ordered_combinations` and `top_k` are byte-identical across the
    /// three engine generations: the adaptive `Peps`, the PR 1 pure-bitmap
    /// `BitsetPeps` and the seed `SeedPeps` — same combination records
    /// (members, predicates, counts, bit-exact intensities) and the same
    /// ranked tuples with the same scores, for both variants.
    #[test]
    fn prop_peps_byte_identical_across_three_generations(
        prefs in prop::collection::vec(
            (corpus_predicate(), 0.05f64..=0.95),
            2..6,
        ),
        k in 1usize..40,
    ) {
        let fx = fixture();
        let exec = fx.executor();
        let bitset = BitsetAlgebra::new(&exec);
        let hashset = HashSetAlgebra::new(&exec);
        let atoms = profile_from(prefs);

        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        // Pairwise counts agree across all three set representations.
        let dense_counts = bitset.pairwise_counts(&atoms).unwrap();
        let seed_counts = hashset.pairwise_counts(&atoms).unwrap();
        for ((entry, d), s) in pairs.entries().iter().zip(&dense_counts).zip(&seed_counts) {
            prop_assert_eq!((entry.i, entry.j, entry.count), *d);
            prop_assert_eq!(*d, *s);
        }

        for variant in [PepsVariant::Complete, PepsVariant::Approximate] {
            let adaptive = Peps::new(&atoms, &exec, &pairs, variant);
            let dense = BitsetPeps::new(&atoms, &bitset, &pairs, variant);
            let seed = SeedPeps::new(&atoms, &hashset, &pairs, variant);

            let order = adaptive.ordered_combinations().unwrap();
            prop_assert_eq!(&order, &dense.ordered_combinations().unwrap());
            prop_assert_eq!(&order, &seed.ordered_combinations().unwrap());

            let top = adaptive.top_k(k).unwrap();
            prop_assert_eq!(&top, &dense.top_k(k).unwrap());
            prop_assert_eq!(&top, &seed.top_k(k).unwrap());
        }
    }
}
