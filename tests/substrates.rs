//! Substrate-level integration: TSV persistence round-trips through the
//! relational engine, index/scan equivalence, and graph-query consistency
//! on a realistic corpus.

use hypre_repro::dblp::{extract, gen, load, tsv};
use hypre_repro::graphstore::{Dir, NodeQuery, PropValue};
use hypre_repro::prelude::*;
use hypre_repro::relstore::{parse_predicate, ColRef, IndexKind, SelectQuery};

#[test]
fn tsv_roundtrip_preserves_query_results() {
    let dataset = gen::generate(&gen::GeneratorConfig::tiny(99));
    let text = tsv::to_tsv(&dataset);
    let back = tsv::from_tsv(&text).expect("roundtrip parses");
    let db_a = load::load(&dataset).unwrap();
    let db_b = load::load(&back).unwrap();
    for pred in [
        "dblp.year>=2005",
        "dblp.venue='VLDB'",
        "dblp_author.aid=3",
        "dblp.year BETWEEN 1995 AND 2000",
    ] {
        let q = |db| {
            SelectQuery::from("dblp")
                .join(
                    "dblp_author",
                    ColRef::parse("dblp.pid"),
                    ColRef::parse("dblp_author.pid"),
                )
                .filter(parse_predicate(pred).unwrap())
                .count_distinct(db, &ColRef::parse("dblp.pid"))
                .unwrap()
        };
        assert_eq!(q(&db_a), q(&db_b), "{pred}");
    }
}

#[test]
fn index_and_scan_paths_agree_on_generated_data() {
    let dataset = gen::generate(&gen::GeneratorConfig::tiny(7));
    // load() builds indexes; a manual load without indexes is the oracle.
    let indexed = load::load(&dataset).unwrap();
    let mut bare = relstore::Database::new();
    for name in ["dblp", "author", "citation", "dblp_author"] {
        let src = indexed.table(name).unwrap();
        let dst = bare.create_table(name, src.schema().clone()).unwrap();
        for (_, row) in src.scan() {
            dst.insert(row.to_vec()).unwrap();
        }
    }
    let venues: Vec<String> = dataset.venues().iter().map(|v| v.to_string()).collect();
    for venue in venues.iter().take(6) {
        let q = SelectQuery::from("dblp")
            .filter(parse_predicate(&format!("dblp.venue='{venue}'")).unwrap());
        assert_eq!(
            q.count(&indexed).unwrap(),
            q.count(&bare).unwrap(),
            "venue {venue}"
        );
    }
    // range through the BTree index vs bare scan
    let q = SelectQuery::from("dblp")
        .filter(parse_predicate("dblp.year BETWEEN 1995 AND 2005").unwrap());
    assert_eq!(q.count(&indexed).unwrap(), q.count(&bare).unwrap());
}

#[test]
fn late_index_creation_matches_preloaded_indexes() {
    let dataset = gen::generate(&gen::GeneratorConfig::tiny(13));
    let indexed = load::load(&dataset).unwrap();
    let mut late = relstore::Database::new();
    for name in ["dblp", "dblp_author"] {
        let src = indexed.table(name).unwrap();
        let dst = late.create_table(name, src.schema().clone()).unwrap();
        for (_, row) in src.scan() {
            dst.insert(row.to_vec()).unwrap();
        }
    }
    // backfill an index *after* loading — must answer identically
    late.table_mut("dblp")
        .unwrap()
        .create_index("venue", IndexKind::Hash)
        .unwrap();
    let venue = dataset.papers[0].venue.clone();
    let q = SelectQuery::from("dblp")
        .filter(parse_predicate(&format!("dblp.venue='{venue}'")).unwrap());
    assert_eq!(q.count(&indexed).unwrap(), q.count(&late).unwrap());
}

#[test]
fn hypre_graph_is_queryable_through_graphstore_directly() {
    // The HYPRE graph exports to an ordinary property graph: the
    // Cypher-style layer must see exactly what the typed API sees.
    let dataset = gen::generate(&gen::GeneratorConfig::tiny(21));
    let workload = extract::extract(&dataset, &extract::ExtractionConfig::default());
    let mut graph = HypreGraph::new();
    graph
        .load(&workload.quantitative, &workload.qualitative)
        .unwrap();
    let user = *graph.users().first().unwrap();
    let export = graph.to_property_graph();

    let via_api = graph.user_nodes(user).len();
    let via_query = NodeQuery::new(&export)
        .label(NODE_LABEL)
        .prop_eq("uid", PropValue::Int(user.0 as i64))
        .count();
    assert_eq!(via_api, via_query);

    // intensity-descending scan matches the typed profile order
    let profile = graph.profile(user);
    let scored: Vec<_> = NodeQuery::new(&export)
        .label(NODE_LABEL)
        .prop_eq("uid", PropValue::Int(user.0 as i64))
        .has_prop("intensity")
        .order_by("intensity", Dir::Desc)
        .run();
    let typed_scored: Vec<_> = profile
        .iter()
        .filter(|p| p.intensity.is_some())
        .map(|p| p.node)
        .collect();
    assert_eq!(scored.len(), typed_scored.len());
    // same intensity sequence (node tie-break may differ between layers)
    let seq = |nodes: &[graphstore::NodeId]| -> Vec<f64> {
        nodes
            .iter()
            .map(|&n| graph.node_intensity(n).unwrap().0)
            .collect()
    };
    assert_eq!(seq(&scored), seq(&typed_scored));
}

#[test]
fn executor_set_algebra_matches_flat_sql_on_single_table_predicates() {
    // For predicates that only touch the driving table, per-preference
    // existential semantics and flat SQL coincide — verify on real data.
    let dataset = gen::generate(&gen::GeneratorConfig::tiny(31));
    let db = load::load(&dataset).unwrap();
    let exec = Executor::new(&db, BaseQuery::dblp());
    let a = parse_predicate("dblp.year>=2000").unwrap();
    let b = parse_predicate("dblp.year<=2005").unwrap();
    let set_based = exec.count_and(&[&a, &b]).unwrap();
    let flat = SelectQuery::from("dblp")
        .filter(a.clone().and(b.clone()))
        .count_distinct(&db, &ColRef::parse("dblp.pid"))
        .unwrap();
    assert_eq!(set_based, flat);
}
