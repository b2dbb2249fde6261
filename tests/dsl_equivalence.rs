//! The DSL differential contract: every shipped example profile,
//! rewritten in the preference DSL, must be **byte-identical** to its
//! hand-built original — same replayed graph, same positive atoms, same
//! rankings, and the same tuple-set Arcs through a
//! shared executor memo, so a `BatchScheduler` groups a hand session and
//! its DSL twin into one evaluation. The DSL is sugar over the existing
//! model; it is never allowed to *mean* anything different.

use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use hypre_bench::Fixture;
use hypre_repro::prelude::*;
use hypre_repro::relstore::{parse_predicate, ColRef, DataType, Database, Schema};

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(Fixture::small)
}

/// Renders a positive profile as DSL source — one quantitative statement
/// per atom, in profile order, intensities printed with `f64`'s
/// shortest-round-trip `Display` so they re-parse bit-identically.
fn dsl_twin_of_atoms(name: &str, table: &str, atoms: &[PrefAtom]) -> String {
    let mut src = format!("PROFILE {name} OVER {table} {{\n");
    for a in atoms {
        let _ = writeln!(src, "    {} @ {};", a.predicate.canonical(), a.intensity);
    }
    src.push_str("}\n");
    src
}

/// Parses + compiles a DSL profile (no graph-derived atoms) and returns
/// its positive atoms, asserting the parse→print→parse round trip on the
/// way through.
fn compile_atoms(src: &str, user: UserId) -> Vec<PrefAtom> {
    let ast = parse_profile(src).expect("twin source parses");
    let reparsed = parse_profile(&ast.to_string()).expect("pretty-printed source parses");
    assert_eq!(ast, reparsed, "parse -> Display -> parse must be lossless");
    ast.compile(user, &DerivedCatalog::new())
        .expect("twin compiles")
        .atoms()
        .expect("twin graph is valid")
}

/// A comparable snapshot of a user's full stored profile (computed
/// intensities included), bit-exact on the scores.
fn profile_snapshot(graph: &HypreGraph, user: UserId) -> Vec<(String, Option<u64>)> {
    graph
        .profile(user)
        .into_iter()
        .map(|p| (p.predicate.canonical(), p.intensity.map(f64::to_bits)))
        .collect()
}

// ---------------------------------------------------------------------
// The three hand-built example profiles, each against a DSL twin written
// in the surface syntax (bare columns, explicit PRIOR strengths).
// ---------------------------------------------------------------------

#[test]
fn quickstart_profile_and_its_dsl_twin_are_byte_identical() {
    // examples/quickstart.rs: two scored genres plus one qualitative
    // preference whose endpoint score is computed via Eq. 4.1.
    let mut db = Database::new();
    let movies = db
        .create_table(
            "movie",
            Schema::of(&[
                ("mid", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("genre", DataType::Str),
            ]),
        )
        .unwrap();
    for (mid, title, year, genre) in [
        (1, "Casablanca", 1942, "drama"),
        (2, "Psycho", 1960, "horror"),
        (3, "Schindler's List", 1993, "drama"),
        (4, "White Christmas", 1954, "comedy"),
        (5, "The Adventures of Tintin", 2011, "comedy"),
        (6, "The Girl on the Train", 2013, "thriller"),
    ] {
        movies
            .insert(vec![mid.into(), title.into(), year.into(), genre.into()])
            .unwrap();
    }

    let me = UserId(1);
    let mut hand = HypreGraph::new();
    hand.add_quantitative(&QuantitativePref::new(
        me,
        parse_predicate("movie.genre='comedy'").unwrap(),
        Intensity::new(0.9).unwrap(),
    ));
    hand.add_quantitative(&QuantitativePref::new(
        me,
        parse_predicate("movie.genre='drama'").unwrap(),
        Intensity::new(0.4).unwrap(),
    ));
    hand.add_qualitative(
        &QualitativePref::new(
            me,
            parse_predicate("movie.year>=2000").unwrap(),
            parse_predicate("movie.genre='drama'").unwrap(),
            QualIntensity::new(0.5).unwrap(),
        )
        .unwrap(),
    )
    .unwrap();

    // The same profile in the surface syntax: bare columns qualify
    // against the OVER table, the PRIOR strength is explicit.
    let src = "PROFILE quickstart OVER movie {
        genre = 'comedy' @ 0.9;
        genre = 'drama'  @ 0.4;
        (year >= 2000) PRIOR @ 0.5 (genre = 'drama');
    }";
    let ast = parse_profile(src).unwrap();
    let compiled = ast.compile(me, &DerivedCatalog::new()).unwrap();
    let dsl_graph = compiled.build_graph().unwrap();

    // Same stored profile, computed Eq. 4.1 score included, bit-exact.
    assert_eq!(
        profile_snapshot(&dsl_graph, me),
        profile_snapshot(&hand, me)
    );
    assert_eq!(compiled.atoms().unwrap(), hand.positive_profile(me));

    // Same enhanced WHERE clause and the same ranking.
    let base = BaseQuery::single("movie", ColRef::parse("movie.mid"));
    assert_eq!(
        enhance_query(&base, &dsl_graph, me)
            .query
            .predicate()
            .canonical(),
        enhance_query(&base, &hand, me)
            .query
            .predicate()
            .canonical(),
    );
    let exec = Executor::new(&db, base);
    assert_eq!(
        score_tuples(&exec, &compiled.atoms().unwrap()).unwrap(),
        score_tuples(&exec, &hand.positive_profile(me)).unwrap(),
    );
}

#[test]
fn movie_night_conflict_machinery_is_identical_through_the_dsl() {
    // examples/movie_night.rs: a negative score, a PRIOR chain, an
    // equal-preference (strength 0) edge and a cycle-closing edge. The
    // DSL twin must replay the exact same outcomes — including the inert
    // CYCLE edge and every computed score.
    let me = UserId(42);
    let mut hand = HypreGraph::new();
    hand.add_quantitative(&QuantitativePref::new(
        me,
        parse_predicate("movie.genre='comedy'").unwrap(),
        Intensity::new(0.8).unwrap(),
    ));
    hand.add_quantitative(&QuantitativePref::new(
        me,
        parse_predicate("movie.genre='horror'").unwrap(),
        Intensity::new(-0.6).unwrap(),
    ));
    for (sup, inf, strength) in [
        ("movie.genre='comedy'", "movie.genre='drama'", 0.7),
        ("movie.genre='drama'", "movie.genre='thriller'", 0.2),
        ("movie.genre='thriller'", "movie.genre='scifi'", 0.0),
        ("movie.genre='thriller'", "movie.genre='comedy'", 0.4),
    ] {
        hand.add_qualitative(
            &QualitativePref::new(
                me,
                parse_predicate(sup).unwrap(),
                parse_predicate(inf).unwrap(),
                QualIntensity::new(strength).unwrap(),
            )
            .unwrap(),
        )
        .unwrap();
    }
    hand.check_invariants().unwrap();

    let src = "PROFILE movie_night OVER movie {
        genre = 'comedy' @ 0.8;
        genre = 'horror' @ -0.6;
        (genre = 'comedy')   PRIOR @ 0.7 (genre = 'drama');
        (genre = 'drama')    PRIOR @ 0.2 (genre = 'thriller');
        (genre = 'thriller') PRIOR @ 0   (genre = 'scifi');
        (genre = 'thriller') PRIOR @ 0.4 (genre = 'comedy');
    }";
    let compiled = parse_profile(src)
        .unwrap()
        .compile(me, &DerivedCatalog::new())
        .unwrap();
    let dsl_graph = compiled.build_graph().unwrap();
    dsl_graph.check_invariants().unwrap();

    assert_eq!(
        profile_snapshot(&dsl_graph, me),
        profile_snapshot(&hand, me)
    );
    assert_eq!(compiled.atoms().unwrap(), hand.positive_profile(me));
    assert_eq!(dsl_graph.edge_kind_counts(me), hand.edge_kind_counts(me));
    assert_eq!(
        dsl_graph.quantitative_counts(me),
        hand.quantitative_counts(me)
    );
}

#[test]
fn car_dealership_ranking_is_identical_through_the_dsl() {
    // examples/car_dealership.rs: BETWEEN and IN predicates with three
    // weights; the DSL twin must reproduce Table 9's t1 > t2 > t3.
    let mut db = Database::new();
    let cars = db
        .create_table(
            "cars",
            Schema::of(&[
                ("id", DataType::Int),
                ("price", DataType::Int),
                ("mileage", DataType::Int),
                ("make", DataType::Str),
            ]),
        )
        .unwrap();
    for (id, price, mileage, make) in [
        (1, 7_000, 43_489, "Honda"),
        (2, 16_000, 35_334, "VW"),
        (3, 20_000, 49_119, "Honda"),
    ] {
        cars.insert(vec![id.into(), price.into(), mileage.into(), make.into()])
            .unwrap();
    }

    let buyer = UserId(7);
    let mut hand = HypreGraph::new();
    for (pred, intensity) in [
        ("cars.price BETWEEN 7000 AND 16000", 0.8),
        ("cars.mileage BETWEEN 20000 AND 50000", 0.5),
        ("cars.make IN ('BMW','Honda')", 0.2),
    ] {
        hand.add_quantitative(&QuantitativePref::new(
            buyer,
            parse_predicate(pred).unwrap(),
            Intensity::new(intensity).unwrap(),
        ));
    }

    let src = "PROFILE dealership OVER cars {
        price BETWEEN 7000 AND 16000    @ 0.8;
        mileage BETWEEN 20000 AND 50000 @ 0.5;
        make IN ('BMW', 'Honda')        @ 0.2;
    }";
    let dsl_atoms = compile_atoms(src, buyer);
    let hand_atoms = hand.positive_profile(buyer);
    assert_eq!(dsl_atoms, hand_atoms);

    let exec = Executor::new(&db, BaseQuery::single("cars", ColRef::parse("cars.id")));
    let ranked = score_tuples(&exec, &dsl_atoms).unwrap();
    assert_eq!(ranked, score_tuples(&exec, &hand_atoms).unwrap());
    let ids: Vec<Option<i64>> = ranked.iter().map(|(id, _)| id.as_i64()).collect();
    assert_eq!(ids, [Some(1), Some(2), Some(3)], "Table 9 order holds");
}

// ---------------------------------------------------------------------
// The DBLP study profiles: extraction-produced predicates round-trip
// through the DSL and rank byte-identically, solo and batched.
// ---------------------------------------------------------------------

#[test]
fn dblp_study_profiles_rank_byte_identically_through_the_dsl() {
    let fx = fixture();
    let exec = fx.executor();
    for (name, user) in [("rich", fx.rich_user), ("modest", fx.modest_user)] {
        let hand_atoms = fx.graph.positive_profile(user);
        assert!(!hand_atoms.is_empty(), "{name} profile must be non-empty");
        let src = dsl_twin_of_atoms(name, "dblp", &hand_atoms);
        let dsl_atoms = compile_atoms(&src, user);
        assert_eq!(dsl_atoms, hand_atoms, "{name} atoms diverged");

        // The twin resolves to the *same* tuple-set Arcs through the
        // shared executor memo — predicate identity, not just equality.
        for (h, d) in hand_atoms.iter().zip(&dsl_atoms) {
            let hs = exec.tuple_set(&h.predicate).unwrap();
            let ds = exec.tuple_set(&d.predicate).unwrap();
            assert!(
                Arc::ptr_eq(&hs, &ds),
                "{name}: twin predicate {} interned to a different set",
                d.predicate.canonical()
            );
        }

        // Byte-identical rankings and ORDER lists for both PEPS
        // variants.
        let reference_pairs = PairwiseCache::build(&hand_atoms, &exec).unwrap();
        for variant in [PepsVariant::Complete, PepsVariant::Approximate] {
            let reference = Peps::new(&hand_atoms, &exec, &reference_pairs, variant);
            let want_top = reference.top_k(25).unwrap();
            let want_order = reference.ordered_combinations().unwrap();
            let pairs = PairwiseCache::build(&dsl_atoms, &exec).unwrap();
            assert_eq!(pairs.entries(), reference_pairs.entries());
            let peps = Peps::new(&dsl_atoms, &exec, &pairs, variant);
            assert_eq!(
                peps.top_k(25).unwrap(),
                want_top,
                "{name}: top_k diverged ({variant:?})"
            );
            assert_eq!(
                peps.ordered_combinations().unwrap(),
                want_order,
                "{name}: ORDER diverged ({variant:?})"
            );
        }
    }
}

#[test]
fn hand_and_dsl_sessions_share_one_batched_evaluation() {
    // A hand-built session and its DSL twin carry *equal* atoms over the
    // *same* tuple-set Arcs, so the scheduler must put them in one group
    // — the twin rides the original's evaluation for free, and both get
    // the same bytes as solo sequential execution.
    let fx = fixture();
    let profiles: Vec<(UserId, Vec<PrefAtom>)> = [fx.rich_user, fx.modest_user]
        .into_iter()
        .map(|u| (u, fx.graph.positive_profile(u)))
        .collect();

    let warm = fx.executor();
    for (_, atoms) in &profiles {
        for a in atoms {
            warm.tuple_set(&a.predicate).unwrap();
        }
    }
    let cache = Arc::new(ProfileCache::snapshot(&warm));

    let mut mix: Vec<BatchRequest> = Vec::new();
    for (user, hand_atoms) in &profiles {
        let src = dsl_twin_of_atoms("twin", "dblp", hand_atoms);
        let dsl_atoms = compile_atoms(&src, *user);
        mix.push(BatchRequest::new(hand_atoms.clone(), 20));
        mix.push(BatchRequest::new(dsl_atoms, 20));
    }

    let out = BatchScheduler::sequential()
        .run(&fx.db, &cache, &mix)
        .unwrap();
    assert_eq!(
        out.stats.groups,
        profiles.len(),
        "each DSL twin must share its original's group"
    );
    assert_eq!(out.stats.shared, profiles.len());
    assert_eq!(out.stats.queries_run, 0, "warmed snapshot serves SQL-free");
    for pair in out.results.chunks(2) {
        assert_eq!(
            pair[0].as_ref().unwrap(),
            pair[1].as_ref().unwrap(),
            "twin answered differently from its original"
        );
    }
    // And both match running the hand profile alone, cold.
    for (i, (_, hand_atoms)) in profiles.iter().enumerate() {
        let solo_exec = Executor::new(&fx.db, BaseQuery::dblp());
        let pairs = PairwiseCache::build(hand_atoms, &solo_exec).unwrap();
        let want = Peps::new(hand_atoms, &solo_exec, &pairs, PepsVariant::Complete)
            .top_k(20)
            .unwrap();
        assert_eq!(out.results[2 * i].as_ref().unwrap(), &want);
    }
}
