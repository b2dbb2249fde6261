//! Preference-aware query enhancement (§4.6): rewriting a user's base
//! query with the mixed clause built from their profile, and scoring the
//! returned tuples with combined intensities (§4.6.1).

use relstore::{Predicate, SelectQuery, Value};

use crate::combine::{mixed_clause, Combination, PrefAtom};
use crate::error::Result;
use crate::exec::{BaseQuery, Executor};
use crate::graph::HypreGraph;
use crate::preference::UserId;
use crate::tupleset::TupleSet;

/// The result of enhancing a base query with a user profile.
#[derive(Debug, Clone)]
pub struct EnhancedQuery {
    /// The executable rewritten query.
    pub query: SelectQuery,
    /// The mixed-clause combination the filter was built from.
    pub combination: Combination,
    /// How many negative preferences were turned into exclusion filters.
    pub negatives_excluded: usize,
}

/// Rewrites the base query with the user's positive profile as a mixed
/// clause (OR within an attribute, AND across attributes — the §4.6 rule)
/// and the user's negative preferences as `AND NOT (…)` exclusions.
///
/// With an empty positive profile the filter is the exclusions alone (or
/// `TRUE`), mirroring the unpersonalised query.
pub fn enhance_query(base: &BaseQuery, graph: &HypreGraph, user: UserId) -> EnhancedQuery {
    let atoms = graph.positive_profile(user);
    let combination = mixed_clause(&atoms);
    let negatives = graph.negative_preferences(user);
    let mut filter = combination.predicate.clone();
    for neg in &negatives {
        filter = filter.and(neg.predicate.clone().not());
    }
    EnhancedQuery {
        query: base.select_for(&filter),
        combination,
        negatives_excluded: negatives.len(),
    }
}

/// A tuple identity with its combined intensity.
pub type ScoredTuple = (Value, f64);

/// Scores every tuple matched by at least one atom with the `f∧` combination
/// of all the atoms it matches (§4.6.1, Example 6: a tuple matching
/// preferences with intensities 0.8, 0.5, 0.2 scores 0.92). Results are
/// sorted by descending intensity, ties by ascending tuple value for
/// determinism.
pub fn score_tuples(exec: &Executor<'_>, atoms: &[PrefAtom]) -> Result<Vec<ScoredTuple>> {
    score_tuples_with_negatives(exec, atoms, &[])
}

/// Scores tuples like [`score_tuples`] but *excludes* any tuple matched by
/// a negative preference — negatives act as hard filters rather than score
/// penalties when ranking (the enhancement path of §4.3 drops negative
/// predicates entirely).
pub fn score_tuples_with_negatives(
    exec: &Executor<'_>,
    atoms: &[PrefAtom],
    negatives: &[Predicate],
) -> Result<Vec<ScoredTuple>> {
    // Accumulate ∏(1 − p) per tuple in a dense array indexed by tuple id,
    // then flip to 1 − ∏ at the end. Identities only materialise for the
    // matched tuples that no negative bans.
    let mut residual: Vec<f64> = Vec::new();
    let mut touched = TupleSet::new();
    for atom in atoms {
        let set = exec.tuple_set(&atom.predicate)?;
        for id in set.iter() {
            let idx = id as usize;
            if idx >= residual.len() {
                residual.resize(idx + 1, 1.0);
            }
            residual[idx] *= 1.0 - atom.intensity;
        }
        touched.or_assign(&set);
    }
    let mut banned = TupleSet::new();
    for neg in negatives {
        let set = exec.tuple_set(neg)?;
        banned.or_assign(&set);
    }
    let mut out: Vec<ScoredTuple> = touched
        .iter()
        .filter(|&id| !banned.contains(id))
        .map(|id| (exec.tuple_value(id), 1.0 - residual[id as usize]))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::f_and;
    use crate::intensity::Intensity;
    use crate::preference::QuantitativePref;
    use relstore::{parse_predicate, ColRef, DataType, Database, Schema};

    /// The dealership relation of Tables 5/8 with Example 6's preferences.
    fn dealership() -> Database {
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
        db
    }

    fn example6_atoms() -> Vec<PrefAtom> {
        vec![
            PrefAtom::new(
                0,
                parse_predicate("cars.price BETWEEN 7000 AND 16000").unwrap(),
                0.8,
            ),
            PrefAtom::new(
                1,
                parse_predicate("cars.mileage BETWEEN 20000 AND 50000").unwrap(),
                0.5,
            ),
            PrefAtom::new(
                2,
                parse_predicate("cars.make IN ('BMW','Honda')").unwrap(),
                0.2,
            ),
        ]
    }

    #[test]
    fn example6_tuple_scores_match_table9() {
        let db = dealership();
        let exec = Executor::new(&db, BaseQuery::single("cars", ColRef::parse("cars.id")));
        let scored = score_tuples(&exec, &example6_atoms()).unwrap();
        // Table 9: t1 = 0.92, t2 = 0.9, t3 = 0.6, in this order.
        assert_eq!(scored.len(), 3);
        assert_eq!(scored[0].0, Value::Int(1));
        assert!((scored[0].1 - 0.92).abs() < 1e-12);
        assert_eq!(scored[1].0, Value::Int(2));
        assert!((scored[1].1 - 0.9).abs() < 1e-12);
        assert_eq!(scored[2].0, Value::Int(3));
        assert!((scored[2].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn scoring_is_order_independent() {
        let db = dealership();
        let exec = Executor::new(&db, BaseQuery::single("cars", ColRef::parse("cars.id")));
        let mut atoms = example6_atoms();
        atoms.reverse();
        let scored = score_tuples(&exec, &atoms).unwrap();
        assert!(
            (scored[0].1 - 0.92).abs() < 1e-12,
            "Proposition 1 in action"
        );
    }

    #[test]
    fn empty_profile_scores_nothing() {
        let db = dealership();
        let exec = Executor::new(&db, BaseQuery::single("cars", ColRef::parse("cars.id")));
        assert!(score_tuples(&exec, &[]).unwrap().is_empty());
    }

    #[test]
    fn negative_preferences_ban_tuples() {
        let db = dealership();
        let exec = Executor::new(&db, BaseQuery::single("cars", ColRef::parse("cars.id")));
        let negatives = vec![parse_predicate("cars.make='Honda'").unwrap()];
        let scored = score_tuples_with_negatives(&exec, &example6_atoms(), &negatives).unwrap();
        assert_eq!(scored.len(), 1);
        assert_eq!(scored[0].0, Value::Int(2));
    }

    #[test]
    fn enhance_builds_mixed_clause_and_exclusions() {
        let db = dealership();
        let mut graph = HypreGraph::new();
        let user = UserId(5);
        graph.add_quantitative(&QuantitativePref::new(
            user,
            parse_predicate("cars.make='Honda'").unwrap(),
            Intensity::new(0.6).unwrap(),
        ));
        graph.add_quantitative(&QuantitativePref::new(
            user,
            parse_predicate("cars.make='BMW'").unwrap(),
            Intensity::new(0.3).unwrap(),
        ));
        graph.add_quantitative(&QuantitativePref::new(
            user,
            parse_predicate("cars.price BETWEEN 7000 AND 16000").unwrap(),
            Intensity::new(0.5).unwrap(),
        ));
        graph.add_quantitative(&QuantitativePref::new(
            user,
            parse_predicate("cars.mileage>45000").unwrap(),
            Intensity::new(-0.8).unwrap(),
        ));
        let base = BaseQuery::single("cars", ColRef::parse("cars.id"));
        let enhanced = enhance_query(&base, &graph, user);
        assert_eq!(enhanced.negatives_excluded, 1);
        let text = enhanced.query.predicate().to_string();
        assert!(text.contains("OR"), "same-attribute makes OR-ed: {text}");
        assert!(text.contains("NOT"), "negative excluded: {text}");
        // car 1: Honda, in price range, mileage 43489 → kept
        // car 3: Honda but price out of range → dropped by AND group
        let n = enhanced.query.count(&db).unwrap();
        assert_eq!(n, 1);
        // combined intensity of the mixed clause
        let expect = f_and(crate::combine::f_or(0.6, 0.3), 0.5);
        assert!((enhanced.combination.intensity - expect).abs() < 1e-12);
    }

    #[test]
    fn enhance_with_empty_profile_is_unfiltered() {
        let db = dealership();
        let graph = HypreGraph::new();
        let base = BaseQuery::single("cars", ColRef::parse("cars.id"));
        let enhanced = enhance_query(&base, &graph, UserId(1));
        assert_eq!(enhanced.query.count(&db).unwrap(), 3);
        assert_eq!(enhanced.combination.intensity, 0.0);
    }
}
