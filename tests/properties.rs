//! Property-based tests (proptest) for the model's invariants, run across
//! crates: intensity algebra, propagation axioms, graph invariants under
//! random preference streams, PEPS-vs-brute-force ranking equality, TA
//! correctness, parser round-trips (predicate and preference-DSL),
//! skyline dominance, and relstore's columnar plans against the row-wise
//! reference pipeline.

use std::sync::Arc;

use proptest::prelude::*;

use hypre_repro::core::dsl::{AtomAst, AtomKind, Pos, PrefExpr, ProfileAst};
use hypre_repro::graphstore::traverse::would_create_cycle;
use hypre_repro::prelude::*;
use hypre_repro::relstore::table::ZONE_ROWS;
use hypre_repro::relstore::{
    parse_predicate, CmpOp, ColRef, DataType, Database, IndexKind, Predicate, RowId, Schema,
    SelectQuery, Value,
};
use hypre_repro::topk::{threshold_algorithm, GradedList};

// ---------------------------------------------------------------------
// strategies
// ---------------------------------------------------------------------

fn intensity_value() -> impl Strategy<Value = f64> {
    (-1.0f64..=1.0).prop_map(|v| (v * 1e6).round() / 1e6)
}

fn positive_intensity() -> impl Strategy<Value = f64> {
    (0.01f64..=1.0).prop_map(|v| (v * 1e6).round() / 1e6)
}

fn qual_strength() -> impl Strategy<Value = f64> {
    (0.0f64..=1.0).prop_map(|v| (v * 1e6).round() / 1e6)
}

/// A small universe of atomic predicates over two attributes.
fn atom_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (0u8..6).prop_map(|v| parse_predicate(&format!("dblp.venue='V{v}'")).unwrap()),
        (0u8..8).prop_map(|a| parse_predicate(&format!("dblp_author.aid={a}")).unwrap()),
        (1990i64..2012).prop_map(|y| parse_predicate(&format!("dblp.year>={y}")).unwrap()),
    ]
}

/// One random preference event for the graph stream.
#[derive(Debug, Clone)]
enum Event {
    Quant(Predicate, f64),
    Qual(Predicate, Predicate, f64),
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (atom_predicate(), intensity_value()).prop_map(|(p, v)| Event::Quant(p, v)),
        (atom_predicate(), atom_predicate(), qual_strength())
            .prop_map(|(l, r, s)| Event::Qual(l, r, s)),
    ]
}

// ---------------------------------------------------------------------
// intensity algebra
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Proposition 1: f∧ is order-independent and matches its closed form.
    #[test]
    fn prop_f_and_order_independent(mut ps in prop::collection::vec(positive_intensity(), 1..7)) {
        let closed = 1.0 - ps.iter().map(|p| 1.0 - p).product::<f64>();
        let forward = f_and_all(ps.iter().copied());
        ps.reverse();
        let backward = f_and_all(ps.iter().copied());
        prop_assert!((forward - closed).abs() < 1e-9);
        prop_assert!((forward - backward).abs() < 1e-9);
    }

    /// f∧ is inflationary and stays in [0, 1] for non-negative operands.
    #[test]
    fn prop_f_and_inflationary(a in qual_strength(), b in qual_strength()) {
        let c = f_and(a, b);
        prop_assert!(c >= a - 1e-12 && c >= b - 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
    }

    /// f∨ is reserved: the result lies between its operands.
    #[test]
    fn prop_f_or_reserved(a in intensity_value(), b in intensity_value()) {
        let c = f_or(a, b);
        prop_assert!(c >= a.min(b) - 1e-12 && c <= a.max(b) + 1e-12);
    }

    /// Proposition 2: the descending-order fold dominates other orders.
    #[test]
    fn prop_f_or_order_dependent(mut ps in prop::collection::vec(qual_strength(), 3..3usize.saturating_add(1))) {
        ps.sort_by(|a, b| b.total_cmp(a));
        let (p1, p2, p3) = (ps[0], ps[1], ps[2]);
        let a = f_or(p1, f_or(p2, p3));
        let b = f_or(p2, f_or(p1, p3));
        let c = f_or(p3, f_or(p1, p2));
        prop_assert!(a >= b - 1e-12 && b >= c - 1e-12);
    }

    /// Algorithm 8's axioms hold for both propagation models: the left
    /// result dominates the seed, the right result is dominated by it,
    /// zero strength is the identity, and everything stays in [-1, 1].
    #[test]
    fn prop_propagation_axioms(
        seed in intensity_value(),
        strength in qual_strength(),
    ) {
        for model in [IntensityModel::Exponential, IntensityModel::Linear] {
            let qt = Intensity::new(seed).unwrap();
            let ql = QualIntensity::new(strength).unwrap();
            let left = model.propagate(Position::Left, ql, qt).value();
            let right = model.propagate(Position::Right, ql, qt).value();
            prop_assert!(left >= seed - 1e-12, "{model:?} left {left} seed {seed}");
            prop_assert!(right <= seed + 1e-12, "{model:?} right {right} seed {seed}");
            prop_assert!((-1.0..=1.0).contains(&left));
            prop_assert!((-1.0..=1.0).contains(&right));
            if strength == 0.0 {
                prop_assert!((left - seed).abs() < 1e-12);
                prop_assert!((right - seed).abs() < 1e-12);
            }
        }
    }

    /// Default-value strategies always seed inside [-1, 1].
    #[test]
    fn prop_default_seeds_in_range(values in prop::collection::vec(intensity_value(), 0..20)) {
        for strategy in DefaultValueStrategy::table12() {
            let v = strategy.seed(&values).value();
            prop_assert!((-1.0..=1.0).contains(&v), "{strategy:?} gave {v}");
        }
    }
}

// ---------------------------------------------------------------------
// graph invariants under random streams
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any interleaving of preference insertions keeps the two structural
    /// invariants: acyclic PREFERS subgraph and left ≥ right on every
    /// PREFERS edge. Each qualitative insert is classified `CYCLE` exactly
    /// when graphstore's own guard, run on the property-graph export taken
    /// just before the insert, says the edge would close a PREFERS cycle.
    #[test]
    fn prop_graph_invariants_under_random_streams(
        events in prop::collection::vec(event(), 1..40)
    ) {
        let mut graph = HypreGraph::new();
        let user = UserId(1);
        for e in events {
            match e {
                Event::Quant(p, v) => {
                    graph.add_quantitative(&QuantitativePref::new(
                        user, p, Intensity::new(v).unwrap(),
                    ));
                }
                Event::Qual(l, r, s) => {
                    if l.canonical() != r.canonical() {
                        // An endpoint that does not exist yet has no edges,
                        // so it cannot close a cycle.
                        let export = graph.to_property_graph();
                        let expect_cycle = match (graph.find_node(user, &l), graph.find_node(user, &r)) {
                            (Some(left), Some(right)) => would_create_cycle(
                                &export, left, right, Some(EdgeKind::Prefers.label()),
                            ),
                            _ => false,
                        };
                        let pref = QualitativePref::new(
                            user, l, r, QualIntensity::new(s).unwrap(),
                        ).unwrap();
                        let out = graph.add_qualitative(&pref).unwrap();
                        prop_assert_eq!(out.kind == EdgeKind::Cycle, expect_cycle);
                    }
                }
            }
            if let Err(msg) = graph.check_invariants() {
                prop_assert!(false, "invariant violated: {msg}");
            }
        }
    }

    /// Reloading the same stream gives identical profiles (determinism).
    #[test]
    fn prop_graph_build_is_deterministic(
        events in prop::collection::vec(event(), 1..25)
    ) {
        let build = || {
            let mut g = HypreGraph::new();
            for e in &events {
                match e {
                    Event::Quant(p, v) => {
                        g.add_quantitative(&QuantitativePref::new(
                            UserId(1), p.clone(), Intensity::new(*v).unwrap(),
                        ));
                    }
                    Event::Qual(l, r, s) => {
                        if l.canonical() != r.canonical() {
                            g.add_qualitative(&QualitativePref::new(
                                UserId(1), l.clone(), r.clone(),
                                QualIntensity::new(*s).unwrap(),
                            ).unwrap()).unwrap();
                        }
                    }
                }
            }
            g.profile(UserId(1))
                .into_iter()
                .map(|p| (p.predicate.canonical(), p.intensity))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(build(), build());
    }
}

// ---------------------------------------------------------------------
// PEPS vs brute force on random micro-workloads
// ---------------------------------------------------------------------

fn micro_db(venues: &[u8], authors: &[(u8, u8)]) -> Database {
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
    for (i, v) in venues.iter().enumerate() {
        papers
            .insert(vec![
                (i as i64 + 1).into(),
                format!("V{v}").into(),
                (1990 + (i as i64 % 22)).into(),
            ])
            .unwrap();
    }
    let link = db
        .create_table(
            "dblp_author",
            Schema::of(&[("pid", DataType::Int), ("aid", DataType::Int)]),
        )
        .unwrap();
    for &(p, a) in authors {
        let pid = (p as usize % venues.len().max(1)) as i64 + 1;
        link.insert(vec![pid.into(), (a as i64).into()]).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Complete PEPS reproduces the brute-force f∧ ranking exactly on any
    /// random micro-workload.
    #[test]
    fn prop_peps_matches_bruteforce(
        venues in prop::collection::vec(0u8..5, 3..12),
        authors in prop::collection::vec((0u8..12, 0u8..8), 1..20),
        prefs in prop::collection::vec((atom_predicate(), positive_intensity()), 1..6),
    ) {
        let db = micro_db(&venues, &authors);
        let exec = Executor::new(&db, BaseQuery::dblp());
        let mut atoms: Vec<PrefAtom> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (p, v) in prefs {
            if seen.insert(p.canonical()) {
                atoms.push(PrefAtom::new(atoms.len(), p, v));
            }
        }
        atoms.sort_by(|a, b| b.intensity.total_cmp(&a.intensity));
        for (i, a) in atoms.iter_mut().enumerate() { a.index = i; }

        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let peps = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete);
        let got = peps.top_k(1000).unwrap();
        let want = score_tuples(&exec, &atoms).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for ((gt, gg), (wt, wg)) in got.iter().zip(want.iter()) {
            prop_assert_eq!(gt, wt);
            prop_assert!((gg - wg).abs() < 1e-9, "{} vs {}", gg, wg);
        }
    }
}

/// Intensities drawn from three values, so equal scores are common.
fn tied_intensity() -> impl Strategy<Value = f64> {
    (0usize..3).prop_map(|i| [0.3, 0.5, 0.8][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Top-K truncation on tie-heavy profiles, for every k: the scores
    /// are the full ranking's first k bit for bit, the tuples strictly
    /// above the k-th score are the full ranking's, and the answer is
    /// ordered by (score desc, value asc). Which tuples tied at the k-th
    /// score come back may differ from the full ranking when PEPS stops
    /// at a round whose threshold equals that score.
    #[test]
    fn prop_peps_top_k_truncates_like_the_full_ranking(
        venues in prop::collection::vec(0u8..5, 3..12),
        authors in prop::collection::vec((0u8..12, 0u8..8), 1..20),
        prefs in prop::collection::vec((atom_predicate(), tied_intensity()), 1..6),
    ) {
        let db = micro_db(&venues, &authors);
        let exec = Executor::new(&db, BaseQuery::dblp());
        let mut atoms: Vec<PrefAtom> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (p, v) in prefs {
            if seen.insert(p.canonical()) {
                atoms.push(PrefAtom::new(atoms.len(), p, v));
            }
        }
        atoms.sort_by(|a, b| b.intensity.total_cmp(&a.intensity));
        for (i, a) in atoms.iter_mut().enumerate() { a.index = i; }

        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        let peps = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete);
        let full = peps.top_k(venues.len() + 1).unwrap();
        for k in 1..=full.len() {
            let got = peps.top_k(k).unwrap();
            prop_assert_eq!(got.len(), k);
            let bits = |r: &[RankedTuple]| r.iter().map(|t| t.1.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&full[..k]));
            let kth = got[k - 1].1;
            let above = |r: &[RankedTuple]| {
                r.iter().filter(|t| t.1 > kth).cloned().collect::<Vec<_>>()
            };
            prop_assert_eq!(above(&got), above(&full));
            prop_assert!(got.windows(2).all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An edited profile's pairwise table, extended from the table of its
    /// kept atoms, equals the table built from scratch entry for entry
    /// and lookup for lookup, wherever the other atoms sit and however
    /// many there are (none, all, tied intensities, empty sets); and the
    /// scheduler, which extends the snapshot atoms' memoised table, ranks
    /// as a fresh executor does.
    #[test]
    fn prop_extended_pairwise_table_equals_a_fresh_build(
        venues in prop::collection::vec(0u8..5, 3..12),
        authors in prop::collection::vec((0u8..12, 0u8..8), 1..20),
        prefs in prop::collection::vec((atom_predicate(), tied_intensity(), 0u8..2), 1..9),
    ) {
        let db = micro_db(&venues, &authors);
        let exec = Executor::new(&db, BaseQuery::dblp());
        let mut prefs = prefs;
        prefs.sort_by(|a, b| b.1.total_cmp(&a.1));
        let atoms: Vec<PrefAtom> = prefs
            .iter()
            .enumerate()
            .map(|(i, (p, v, _))| PrefAtom::new(i, p.clone(), *v))
            .collect();
        let kept: Vec<usize> = (0..atoms.len()).filter(|&i| prefs[i].2 == 0).collect();
        let kept_atoms: Vec<PrefAtom> = kept.iter().map(|&i| atoms[i].clone()).collect();
        let sets: Vec<SharedTupleSet> =
            atoms.iter().map(|a| exec.tuple_set(&a.predicate).unwrap()).collect();
        let intensities: Vec<f64> = atoms.iter().map(|a| a.intensity).collect();

        let want = PairwiseCache::build(&atoms, &exec).unwrap();
        let got = PairwiseCache::build(&kept_atoms, &exec)
            .unwrap()
            .extend(&kept, &sets, &intensities);
        prop_assert_eq!(got.entries(), want.entries());
        for i in 0..atoms.len() {
            let from = |t: &PairwiseCache| t.pairs_from(i).cloned().collect::<Vec<_>>();
            prop_assert_eq!(from(&got), from(&want));
            for j in 0..atoms.len() {
                prop_assert_eq!(got.entry(i, j), want.entry(i, j));
            }
        }

        let cache = Arc::new(
            ProfileCache::warm(&db, BaseQuery::dblp(), kept_atoms.iter().map(|a| &a.predicate))
                .unwrap(),
        );
        let req = [BatchRequest::new(atoms.clone(), 5)];
        let solo = Peps::new(&atoms, &exec, &want, PepsVariant::Complete).top_k(5).unwrap();
        for _ in 0..2 {
            let out = BatchScheduler::sequential().run(&db, &cache, &req).unwrap();
            prop_assert_eq!(out.results[0].as_ref().unwrap(), &solo);
        }
    }
}

// ---------------------------------------------------------------------
// TA vs brute force on random graded lists
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_ta_matches_bruteforce(
        list_a in prop::collection::vec((0u64..30, qual_strength()), 1..25),
        list_b in prop::collection::vec((0u64..30, qual_strength()), 1..25),
        k in 1usize..10,
    ) {
        let lists = vec![GradedList::new(list_a), GradedList::new(list_b)];
        let agg = |g: &[f64]| f_and_all(g.iter().copied());
        let got = threshold_algorithm(&lists, k, agg);
        // brute force
        let mut all: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for l in &lists {
            all.extend(l.iter().map(|(t, _)| *t));
        }
        let mut want: Vec<(u64, f64)> = all
            .into_iter()
            .map(|t| (t, agg(&[lists[0].grade(&t), lists[1].grade(&t)])))
            .collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for ((gt, gg), (wt, wg)) in got.iter().zip(want.iter()) {
            prop_assert_eq!(gt, wt);
            prop_assert!((gg - wg).abs() < 1e-12);
        }
    }
}

// ---------------------------------------------------------------------
// parser round-trip
// ---------------------------------------------------------------------

fn rt_predicate(depth: u32) -> BoxedStrategy<Predicate> {
    let leaf = prop_oneof![
        (0u8..5).prop_map(|v| parse_predicate(&format!("dblp.venue='V{v}'")).unwrap()),
        (0i64..100).prop_map(|a| parse_predicate(&format!("dblp_author.aid={a}")).unwrap()),
        (1990i64..2012, 0i64..5)
            .prop_map(|(lo, d)| { Predicate::between(ColRef::parse("dblp.year"), lo, lo + d) }),
        prop::collection::vec(0u8..5, 1..4).prop_map(|vs| {
            Predicate::in_list(
                ColRef::parse("dblp.venue"),
                vs.into_iter().map(|v| format!("V{v}")).collect::<Vec<_>>(),
            )
        }),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Predicate::not),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Display → parse is the identity on the AST.
    #[test]
    fn prop_parser_roundtrip(p in rt_predicate(3)) {
        let text = p.to_string();
        let reparsed = parse_predicate(&text).unwrap();
        prop_assert_eq!(&p, &reparsed, "text: {}", text);
        // canonicalisation is stable
        prop_assert_eq!(p.canonical(), reparsed.canonical());
    }
}

// ---------------------------------------------------------------------
// canonical text: one renderer, byte-identical to the original Display
// ---------------------------------------------------------------------

/// The original fmt-based rendering of predicates and literals, kept here
/// as the reference `Predicate::write_canonical` must reproduce byte for
/// byte.
mod reference {
    use std::borrow::Cow;
    use std::fmt;

    use hypre_repro::relstore::{ColRef, Predicate, Value};

    pub fn literal(v: &Value) -> Cow<'static, str> {
        match v {
            Value::Null => Cow::Borrowed("NULL"),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    Cow::Owned(format!("{f:.1}"))
                } else {
                    Cow::Owned(f.to_string())
                }
            }
            Value::Str(s) => Cow::Owned(format!("'{}'", s.replace('\'', "''"))),
        }
    }

    struct Col<'a>(&'a ColRef);

    impl fmt::Display for Col<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match &self.0.table {
                Some(t) => write!(f, "{t}.{}", self.0.column),
                None => write!(f, "{}", self.0.column),
            }
        }
    }

    pub struct Text<'a>(pub &'a Predicate);

    impl fmt::Display for Text<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fn needs_parens(parent_is_and: bool, child: &Predicate) -> bool {
                match child {
                    Predicate::Or(_) => parent_is_and,
                    _ => false,
                }
            }
            match self.0 {
                Predicate::True => write!(f, "TRUE"),
                Predicate::False => write!(f, "FALSE"),
                Predicate::Cmp(c, op, v) => write!(f, "{}{op}{}", Col(c), literal(v)),
                Predicate::Between(c, lo, hi) => {
                    write!(f, "{} BETWEEN {} AND {}", Col(c), literal(lo), literal(hi))
                }
                Predicate::InList(c, vals) => {
                    write!(f, "{} IN (", Col(c))?;
                    for (i, v) in vals.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}", literal(v))?;
                    }
                    write!(f, ")")
                }
                Predicate::Not(inner) => match inner.as_ref() {
                    Predicate::Cmp(..) | Predicate::Between(..) | Predicate::InList(..) => {
                        write!(f, "NOT {}", Text(inner))
                    }
                    _ => write!(f, "NOT ({})", Text(inner)),
                },
                Predicate::And(ps) => {
                    for (i, p) in ps.iter().enumerate() {
                        if i > 0 {
                            write!(f, " AND ")?;
                        }
                        if needs_parens(true, p) {
                            write!(f, "({})", Text(p))?;
                        } else {
                            write!(f, "{}", Text(p))?;
                        }
                    }
                    Ok(())
                }
                Predicate::Or(ps) => {
                    for (i, p) in ps.iter().enumerate() {
                        if i > 0 {
                            write!(f, " OR ")?;
                        }
                        write!(f, "{}", Text(p))?;
                    }
                    Ok(())
                }
            }
        }
    }

    pub fn render(p: &Predicate) -> String {
        Text(p).to_string()
    }
}

/// Float literals whose rendering is easy to get wrong: signed zero,
/// integral values (which keep a `.0`), extremes and non-finite values.
const EDGE_FLOATS: [f64; 12] = [
    -0.0,
    0.0,
    2.0,
    -3.0,
    1e20,
    -1e300,
    0.1,
    -2.5e-7,
    f64::MAX,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Strings that exercise the `''` escape.
const EDGE_STRINGS: [&str; 6] = ["", "'", "''", "O'Hara", "a'b'c'", "plain"];

fn render_col() -> impl Strategy<Value = ColRef> {
    prop_oneof![
        (0usize..3).prop_map(|i| ColRef::bare(["year", "venue", "pid"][i])),
        (0usize..3).prop_map(|i| ColRef::qualified(["dblp", "t", "dblp_author"][i], "aid")),
    ]
}

/// A literal; `finite` keeps out the non-finite floats, which the
/// predicate parser has no spelling for.
fn render_value(finite: bool) -> BoxedStrategy<Value> {
    let floats = if finite {
        EDGE_FLOATS.len() - 3
    } else {
        EDGE_FLOATS.len()
    };
    prop_oneof![
        Just(Value::Null),
        (-1_000i64..1_000).prop_map(Value::Int),
        (i64::MIN..=i64::MAX).prop_map(Value::Int),
        prop_oneof![Just(Value::Int(i64::MIN)), Just(Value::Int(i64::MAX))],
        (-1e6f64..1e6).prop_map(Value::Float),
        (-1_000i64..1_000).prop_map(|i| Value::Float(i as f64)),
        (0..floats).prop_map(|i| Value::Float(EDGE_FLOATS[i])),
        (0..EDGE_STRINGS.len()).prop_map(|i| Value::str(EDGE_STRINGS[i])),
        prop::collection::vec(0usize..4, 0..6)
            .prop_map(|cs| Value::Str(cs.into_iter().map(|c| ['a', '\'', ' ', 'Z'][c]).collect())),
    ]
    .boxed()
}

fn render_op() -> impl Strategy<Value = CmpOp> {
    (0usize..6).prop_map(|i| {
        [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][i]
    })
}

/// A random predicate tree built with the raw constructors, so `And`s
/// nest inside `And`s and `Or`s inside `Or`s (the builders would flatten
/// them). With `parser_normal`, `NOT` goes through [`Predicate::not`]
/// and `And`/`Or` have at least two operands, which is what the parser
/// builds, so the text can round-trip; without it, `NOT (NOT …)` and
/// one-operand `And`/`Or` appear too.
fn render_tree(finite: bool, parser_normal: bool) -> BoxedStrategy<Predicate> {
    let leaf = prop_oneof![
        (render_col(), render_op(), render_value(finite))
            .prop_map(|(c, op, v)| Predicate::Cmp(c, op, v)),
        (render_col(), render_value(finite), render_value(finite))
            .prop_map(|(c, lo, hi)| Predicate::Between(c, lo, hi)),
        (
            render_col(),
            prop::collection::vec(render_value(finite), 1..4)
        )
            .prop_map(|(c, vs)| Predicate::InList(c, vs)),
    ];
    // The parser never builds a one-operand `And` or `Or`.
    let operands = if parser_normal { 2..4 } else { 1..4 };
    leaf.prop_recursive(3, 24, 3, move |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), operands.clone()).prop_map(Predicate::And),
            prop::collection::vec(inner.clone(), operands.clone()).prop_map(Predicate::Or),
            inner.prop_map(move |p| {
                if parser_normal {
                    p.not()
                } else {
                    Predicate::Not(Box::new(p))
                }
            }),
        ]
    })
    .boxed()
}

/// `write_canonical` (into a fresh and into a reused buffer),
/// `canonical()` and `Display` all equal the reference rendering.
fn assert_renders_like_the_reference(p: &Predicate, reused: &mut String) -> String {
    let want = reference::render(p);
    let mut fresh = String::new();
    p.write_canonical(&mut fresh);
    assert_eq!(fresh, want, "write_canonical of {p:?}");
    reused.clear();
    p.write_canonical(reused);
    assert_eq!(
        *reused, want,
        "write_canonical into a reused buffer of {p:?}"
    );
    assert_eq!(p.canonical(), want, "canonical() of {p:?}");
    assert_eq!(format!("{p}"), want, "Display of {p:?}");
    want
}

#[test]
fn literal_edge_cases_render_like_the_reference() {
    let mut values: Vec<Value> = vec![
        Value::Null,
        Value::Int(0),
        Value::Int(-1),
        Value::Int(-42),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
    ];
    values.extend(EDGE_FLOATS.map(Value::Float));
    values.extend(EDGE_STRINGS.map(Value::str));
    let mut reused = String::new();
    for v in values {
        let want = reference::literal(&v);
        assert_eq!(v.to_literal(), want, "to_literal of {v:?}");
        reused.clear();
        v.write_literal(&mut reused);
        assert_eq!(reused, want, "write_literal of {v:?}");
        let p = Predicate::Cmp(ColRef::qualified("t", "c"), CmpOp::Ge, v.clone());
        let text = assert_renders_like_the_reference(&p, &mut reused);
        let non_finite = matches!(v, Value::Float(f) if !f.is_finite());
        if !non_finite {
            let reparsed = parse_predicate(&text).unwrap();
            assert_eq!(
                reparsed.canonical(),
                text,
                "{v:?} round-trips through the parser"
            );
        }
    }
    for (p, text) in [
        (Predicate::True, "TRUE"),
        (Predicate::False, "FALSE"),
        (Predicate::Not(Box::new(Predicate::True)), "NOT (TRUE)"),
        (Predicate::And(vec![]), ""),
    ] {
        assert_eq!(assert_renders_like_the_reference(&p, &mut reused), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every rendering path reproduces the reference on any tree shape,
    /// non-finite literals and double negations included.
    #[test]
    fn prop_canonical_renderer_matches_the_reference(p in render_tree(false, false)) {
        let mut reused = String::from("stale text the renderer must not keep");
        assert_renders_like_the_reference(&p, &mut reused);
    }

    /// On trees the parser can spell (finite literals, `NOT` as the parser
    /// builds it), parsing the canonical text gives the same text back.
    #[test]
    fn prop_canonical_text_reparses_to_itself(p in render_tree(true, true)) {
        let mut reused = String::new();
        let text = assert_renders_like_the_reference(&p, &mut reused);
        let reparsed = parse_predicate(&text).unwrap();
        prop_assert_eq!(reparsed.canonical(), text);
    }
}

// ---------------------------------------------------------------------
// preference-DSL round-trip and error hygiene
// ---------------------------------------------------------------------

/// A random DSL atom. Predicates come from [`rt_predicate`] — fully
/// qualified column references only, because the parser qualifies bare
/// columns against the `OVER` table and a bare-column AST would not
/// round-trip structurally. Derived names include embedded quotes to
/// exercise the `''` escaping.
fn dsl_atom() -> impl Strategy<Value = AtomAst> {
    let kind = prop_oneof![
        rt_predicate(2).prop_map(AtomKind::Predicate),
        (0u8..4).prop_map(|i| {
            let names = ["Jim Gray", "Grace O'Brien", "A. N. Author", "D'Arcy d'If"];
            AtomKind::CoauthorOf(names[i as usize].to_string())
        }),
        (0u8..3).prop_map(|i| {
            let venues = ["SIGMOD", "VLDB '05", "J. o' Irrepr. Results"];
            AtomKind::SameVenueAs(venues[i as usize].to_string())
        }),
    ];
    let intensity = prop_oneof![
        Just(None),
        intensity_value().prop_map(Some),
        Just(Some(1.0)),
        Just(Some(-1.0)),
    ];
    (kind, intensity).prop_map(|(kind, intensity)| AtomAst {
        kind,
        intensity,
        pos: Pos::start(),
    })
}

/// A random composition expression over DSL atoms.
fn dsl_expr(depth: u32) -> BoxedStrategy<PrefExpr> {
    dsl_atom()
        .prop_map(PrefExpr::Atom)
        .prop_recursive(depth, 16, 2, |inner| {
            prop_oneof![
                (qual_strength(), inner.clone(), inner.clone()).prop_map(|(s, l, r)| {
                    PrefExpr::Prior {
                        strength: s,
                        left: Box::new(l),
                        right: Box::new(r),
                        pos: Pos::start(),
                    }
                }),
                (inner.clone(), inner).prop_map(|(l, r)| PrefExpr::Pareto {
                    left: Box::new(l),
                    right: Box::new(r),
                }),
            ]
        })
}

/// A random profile AST.
fn dsl_profile() -> impl Strategy<Value = ProfileAst> {
    (0u8..3, prop::collection::vec(dsl_expr(2), 1..6)).prop_map(|(n, statements)| ProfileAst {
        name: ["p", "rich_user", "q2"][n as usize].to_string(),
        table: "dblp".to_string(),
        statements,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// parse → Display → parse is the identity on random profile ASTs:
    /// intensities and strengths re-parse bit-identically, derived-name
    /// quoting is lossless, and composition parenthesisation is
    /// unambiguous at any nesting.
    #[test]
    fn prop_dsl_roundtrip(ast in dsl_profile()) {
        let printed = ast.to_string();
        let reparsed = match parse_profile(&printed) {
            Ok(p) => p,
            Err(e) => {
                prop_assert!(false, "pretty-printed source failed to parse: {e}\n{printed}");
                unreachable!()
            }
        };
        prop_assert_eq!(&ast, &reparsed, "round-trip changed the AST:\n{}", printed);
        // And printing is a fixpoint: the second print matches the first.
        prop_assert_eq!(printed, reparsed.to_string());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutilated profile sources never panic the parser: every outcome is
    /// `Ok` or a typed [`DslError`] whose position lies inside the input
    /// (1-based line within the source's line count, column ≥ 1) and
    /// whose `Display` renders.
    #[test]
    fn prop_dsl_malformed_inputs_yield_typed_errors(
        ast in dsl_profile(),
        kind in 0u8..4,
        at in 0.0f64..1.0,
        garbage in 0u8..12,
    ) {
        let src = ast.to_string();
        let chars: Vec<char> = src.chars().collect();
        let idx = ((chars.len() as f64) * at) as usize;
        let junk = [
            "@", "@ 2.0", "PRIOR", "PARETO", "(", ")", "'", "\"",
            "0.5.5", "&", "!", "\u{3b1}\u{3b2}",
        ][garbage as usize];
        let mutated: String = match kind {
            // truncate
            0 => chars[..idx].iter().collect(),
            // insert a junk token
            1 => {
                let mut s: String = chars[..idx].iter().collect();
                s.push_str(junk);
                s.extend(&chars[idx..]);
                s
            }
            // replace one character
            2 if !chars.is_empty() => {
                let i = idx.min(chars.len() - 1);
                let mut s: String = chars[..i].iter().collect();
                s.push_str(junk);
                s.extend(&chars[i + 1..]);
                s
            }
            // delete one character
            _ if !chars.is_empty() => {
                let i = idx.min(chars.len() - 1);
                let mut s: String = chars[..i].iter().collect();
                s.extend(&chars[i + 1..]);
                s
            }
            _ => String::new(),
        };
        match parse_profile(&mutated) {
            Ok(_) => {} // the mutation happened to stay well-formed
            Err(e) => {
                // A source ending in '\n' reports EOF errors on the line
                // *after* the last textual one, hence the +1.
                let lines = mutated.lines().count().max(1) as u32 + 1;
                prop_assert!(e.pos.line >= 1, "line 0 in: {e}");
                prop_assert!(
                    e.pos.line <= lines,
                    "error line {} beyond the {}-line input: {e}",
                    e.pos.line,
                    lines
                );
                prop_assert!(e.pos.column >= 1, "column 0 in: {e}");
                let rendered = e.to_string();
                prop_assert!(
                    rendered.starts_with(&format!("line {}, column {}", e.pos.line, e.pos.column)),
                    "Display lost the position: {rendered}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// skyline dominance
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every skyline member is non-dominated and every non-member is
    /// dominated (checked against the brute-force oracle).
    #[test]
    fn prop_skyline_is_exact(rows in prop::collection::vec((0i64..50, 0i64..50), 1..30)) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "items",
                Schema::of(&[("id", DataType::Int), ("x", DataType::Int), ("y", DataType::Int)]),
            )
            .unwrap();
        for (i, (x, y)) in rows.iter().enumerate() {
            t.insert(vec![(i as i64).into(), (*x).into(), (*y).into()]).unwrap();
        }
        let prefs = vec![
            AttributePref::min(ColRef::parse("x")),
            AttributePref::min(ColRef::parse("y")),
        ];
        let sky = skyline(&db, "items", &prefs).unwrap();
        for row in 0..rows.len() {
            let member = sky.contains(&row);
            let oracle = hypre_repro::core::skyline::is_skyline_member(&db, "items", &prefs, row).unwrap();
            prop_assert_eq!(member, oracle, "row {}", row);
        }
        // sanity: the global minimum on x is always present
        let min_x = rows.iter().enumerate().min_by_key(|(i, (x, _))| (*x, *i)).unwrap();
        let min_x_dominated = rows.iter().enumerate().any(|(j, (x, y))| {
            j != min_x.0 && (*x, *y) != (min_x.1.0, min_x.1.1)
                && *x <= min_x.1.0 && *y <= min_x.1.1
                && (*x < min_x.1.0 || *y < min_x.1.1)
        });
        if !min_x_dominated {
            prop_assert!(sky.contains(&min_x.0));
        }
    }
}

// ---------------------------------------------------------------------
// value ordering laws (relstore)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// relstore's Value total order is antisymmetric and transitive over a
    /// random sample, and Eq implies identical sort position behaviour.
    #[test]
    fn prop_value_total_order(ints in prop::collection::vec(-100i64..100, 3..10)) {
        let mut values: Vec<Value> = Vec::new();
        for (i, v) in ints.iter().enumerate() {
            values.push(Value::Int(*v));
            if i % 2 == 0 {
                values.push(Value::Float(*v as f64 / 2.0));
            }
            if i % 3 == 0 {
                values.push(Value::str(format!("s{v}")));
            }
        }
        values.push(Value::Null);
        let mut sorted = values.clone();
        sorted.sort();
        // sorting is idempotent and Null leads
        let mut again = sorted.clone();
        again.sort();
        prop_assert_eq!(&sorted, &again);
        prop_assert_eq!(&sorted[0], &Value::Null);
    }
}

// ---------------------------------------------------------------------
// columnar plans vs the row-wise reference (relstore)
// ---------------------------------------------------------------------

/// A numeric literal: mostly `Int`, else an integral `Float` (`7.0`) or
/// a fractional `Float` (`10.5`), so `INT` columns see every cross-type
/// comparison. The range straddles the generated column values, so
/// boundary rows (`col > v` with a row holding `v`) are common.
fn num_literal() -> impl Strategy<Value = Value> {
    (0u8..4, -2i64..9).prop_map(|(kind, v)| match kind {
        0 | 1 => Value::Int(v),
        2 => Value::Float(v as f64),
        _ => Value::Float(v as f64 + 0.5),
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    (0u8..6).prop_map(|o| {
        [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][o as usize]
    })
}

/// One atom over an `INT` column: comparison, `BETWEEN` (possibly with an
/// empty or cross-type range) or an `IN` list mixing literal types.
fn int_atom(column: &'static str) -> BoxedStrategy<Predicate> {
    prop_oneof![
        (cmp_op(), num_literal()).prop_map(move |(op, v)| Predicate::cmp(
            ColRef::parse(column),
            op,
            v
        )),
        (num_literal(), num_literal()).prop_map(move |(lo, hi)| Predicate::between(
            ColRef::parse(column),
            lo,
            hi
        )),
        prop::collection::vec(num_literal(), 1..4)
            .prop_map(move |vs| Predicate::in_list(ColRef::parse(column), vs)),
    ]
    .boxed()
}

fn venue_atom() -> BoxedStrategy<Predicate> {
    prop_oneof![
        (cmp_op(), 0u8..4).prop_map(|(op, v)| Predicate::cmp(
            ColRef::parse("dblp.venue"),
            op,
            format!("V{v}")
        )),
        prop::collection::vec(0u8..4, 1..3).prop_map(|vs| Predicate::in_list(
            ColRef::parse("dblp.venue"),
            vs.into_iter().map(|v| format!("V{v}")).collect::<Vec<_>>()
        )),
        // A type-mismatched literal matches nothing.
        num_literal().prop_map(|v| Predicate::cmp(ColRef::parse("dblp.venue"), CmpOp::Eq, v)),
    ]
    .boxed()
}

fn driver_atom() -> BoxedStrategy<Predicate> {
    prop_oneof![int_atom("dblp.pid"), int_atom("dblp.year"), venue_atom()].boxed()
}

fn joined_atom() -> BoxedStrategy<Predicate> {
    prop_oneof![int_atom("dblp_author.aid"), int_atom("dblp_author.pid")].boxed()
}

fn pred_tree(leaf: BoxedStrategy<Predicate>) -> BoxedStrategy<Predicate> {
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Predicate::not),
        ]
    })
}

/// A nullable small integer: `0` draws `NULL`.
fn nullable(v: u8, offset: i64) -> Value {
    match v {
        0 => Value::Null,
        v => Value::Int(i64::from(v) + offset),
    }
}

/// Papers and author links with small key ranges (duplicate driver keys,
/// dangling links), `NULL` keys and `NULL` filter columns on both sides.
fn plan_db(papers: &[(u8, u8, u8)], links: &[(u8, u8)], indexes: &[u8]) -> Database {
    let mut db = Database::new();
    let dblp = db
        .create_table(
            "dblp",
            Schema::of(&[
                ("pid", DataType::Int),
                ("venue", DataType::Str),
                ("year", DataType::Int),
            ]),
        )
        .unwrap();
    for &(pid, venue, year) in papers {
        let venue = match venue {
            0 => Value::Null,
            v => Value::str(format!("V{}", v - 1)),
        };
        dblp.insert(vec![nullable(pid, -1), venue, nullable(year, -2)])
            .unwrap();
    }
    let link = db
        .create_table(
            "dblp_author",
            Schema::of(&[("pid", DataType::Int), ("aid", DataType::Int)]),
        )
        .unwrap();
    for &(pid, aid) in links {
        link.insert(vec![nullable(pid, -1), nullable(aid, -1)])
            .unwrap();
    }
    let columns = [
        ("dblp", "pid"),
        ("dblp", "year"),
        ("dblp", "venue"),
        ("dblp_author", "pid"),
        ("dblp_author", "aid"),
    ];
    for (&(table, column), &kind) in columns.iter().zip(indexes) {
        let kind = match kind {
            1 => IndexKind::Hash,
            2 => IndexKind::BTree,
            _ => continue,
        };
        db.table_mut(table)
            .unwrap()
            .create_index(column, kind)
            .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `distinct_row_set` and `distinct_row_set_among` run relstore's
    /// columnar plans (index seeks on either side of the join, typed `i64`
    /// kernels, seeded candidates); the row-wise pipeline is the oracle.
    /// Every shape — single table, semi-join, joined filter and a mixed
    /// filter no plan compiles — must match it exactly, under every
    /// combination of hash, BTree or no index on each filter and join
    /// column, and a seeded call must equal the oracle restricted to its
    /// candidates, whatever the candidates (empty, duplicated, past the
    /// last row).
    #[test]
    fn prop_columnar_plans_match_rowwise_reference(
        papers in prop::collection::vec((0u8..7, 0u8..5, 0u8..12), 0..14),
        links in prop::collection::vec((0u8..9, 0u8..6), 0..16),
        indexes in prop::collection::vec(0u8..3, 5..6),
        shape in 0u8..4,
        swap_join in 0u8..2,
        driver_pred in pred_tree(driver_atom()),
        joined_pred in pred_tree(joined_atom()),
        mixed_pred in pred_tree(prop_oneof![driver_atom(), joined_atom()].boxed()),
        seed in prop::collection::vec(0usize..18, 0..10),
    ) {
        let db = plan_db(&papers, &links, &indexes);
        let (left, right) = (ColRef::parse("dblp.pid"), ColRef::parse("dblp_author.pid"));
        let (left, right) = if swap_join == 1 { (right, left) } else { (left, right) };
        let joined = SelectQuery::from("dblp").join("dblp_author", left, right);
        let q = match shape {
            0 => SelectQuery::from("dblp").filter(driver_pred),
            1 => joined.filter(driver_pred),
            2 => joined.filter(joined_pred),
            _ => joined.filter(mixed_pred),
        };
        let want = q.distinct_row_set_rowwise(&db).unwrap();
        prop_assert_eq!(&q.distinct_row_set(&db).unwrap(), &want, "query {:?}", q);
        let seed: Vec<RowId> = seed.into_iter().map(RowId).collect();
        let want_among: Vec<RowId> = want.iter().filter(|r| seed.contains(r)).copied().collect();
        prop_assert_eq!(
            q.distinct_row_set_among(&db, &seed).unwrap(),
            want_among,
            "query {:?} among {:?}",
            q,
            seed
        );
    }
}

// ---------------------------------------------------------------------
// zone-map range walks vs the row-wise reference (relstore)
// ---------------------------------------------------------------------

/// A table spanning several zone-map blocks: `asc` counts up from
/// `-rows/2`, `shuffled` holds the same values in a scattered order, and
/// `holey` is `asc` with a `NULL` every `null_every` rows (none for 0)
/// and its second block all `NULL`.
fn zoned_table(rows: usize, null_every: usize) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(
            "t",
            Schema::of(&[
                ("asc", DataType::Int),
                ("shuffled", DataType::Int),
                ("holey", DataType::Int),
            ]),
        )
        .unwrap();
    let half = (rows / 2) as i64;
    for r in 0..rows {
        let asc = r as i64 - half;
        let shuffled = ((r * 7919) % rows) as i64 - half;
        let hole =
            (null_every > 0 && r % null_every == 0) || (ZONE_ROWS..2 * ZONE_ROWS).contains(&r);
        let holey = if hole { Value::Null } else { Value::Int(asc) };
        t.insert(vec![asc.into(), shuffled.into(), holey]).unwrap();
    }
    db
}

/// A range bound near the generated values: mostly an `Int`, else a
/// fractional or integral `Float`, else `i64::MIN`/`MAX`.
fn zone_bound() -> impl Strategy<Value = Value> {
    (0u8..8, -1700i64..1700).prop_map(|(kind, v)| match kind {
        0..=4 => Value::Int(v),
        5 => Value::Float(v as f64 + 0.5),
        6 => Value::Float(v as f64),
        _ => Value::Int(if v < 0 { i64::MIN } else { i64::MAX }),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An unseeded walk skips the zone-map blocks a top-level `INT` range
    /// conjunct rules out; the row-wise pipeline is the oracle. Ranges
    /// land on ascending and scattered columns, with `NULL`s, across
    /// block edges and the partial last block, alone, under `AND`, `OR`
    /// and `NOT`, as `<>`, and with float bounds.
    #[test]
    fn prop_zone_skipping_walks_match_rowwise_reference(
        rows in 0usize..(3 * ZONE_ROWS + 64),
        null_every in 0usize..4,
        column in 0usize..3,
        other_column in 0usize..3,
        form in 0u8..6,
        lo in zone_bound(),
        hi in zone_bound(),
        op in cmp_op(),
    ) {
        let db = zoned_table(rows, null_every);
        let names = ["t.asc", "t.shuffled", "t.holey"];
        let col = || ColRef::parse(names[column]);
        let range = Predicate::between(col(), lo.clone(), hi.clone());
        let other = Predicate::cmp(ColRef::parse(names[other_column]), op, hi.clone());
        let pred = match form {
            0 => range,
            1 => range.and(other),
            2 => range.or(other),
            3 => range.not(),
            4 => Predicate::cmp(col(), CmpOp::Ne, lo),
            _ => Predicate::cmp(col(), CmpOp::Ge, lo).and(Predicate::cmp(col(), CmpOp::Le, hi)),
        };
        let q = SelectQuery::from("t").filter(pred);
        prop_assert_eq!(
            q.distinct_row_set(&db).unwrap(),
            q.distinct_row_set_rowwise(&db).unwrap(),
            "query {:?} over {} rows",
            q,
            rows
        );
    }
}
