//! Golden regression for the HYPRE graph's read side: a digest of every
//! user's stored profile, positive atoms, edge-kind and quantitative
//! counts plus the load report, pinned for three inputs — a tiny
//! extracted corpus, the 2k-paper bench fixture, and the DSL profiles of
//! `tests/dsl_equivalence.rs`. Any change to node ids, predicates,
//! intensity bits, provenance or edge classification moves a digest.
//!
//! To re-pin after an intended semantic change, run
//! `cargo test --test graph_golden -- --nocapture` and copy the printed
//! digests into the constants below.

use hypre_bench::Fixture;
use hypre_repro::dblp::{extract, gen};
use hypre_repro::prelude::*;
use hypre_repro::relstore::parse_predicate;

const TINY_DIGEST: u64 = 0x04ae_7689_fdcb_6d2f;
const FIXTURE_2K_DIGEST: u64 = 0xeaa5_fdef_41d0_18ca;
const DSL_DIGEST: u64 = 0xa215_d861_6a2e_d9b3;

/// FNV-1a over the rendered lines — stable across platforms and runs.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn line(&mut self, text: &str) {
        for b in text.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Loads the preferences into a fresh graph and digests everything a
/// reader can observe per user. Also asserts that every stored predicate
/// is what re-parsing its canonical text yields.
fn digest(quants: &[QuantitativePref], quals: &[QualitativePref]) -> u64 {
    let mut graph = HypreGraph::new();
    let report = graph.load(quants, quals).expect("preferences load");
    let mut d = Digest::new();
    d.line(&format!(
        "report {} {} {} {}",
        report.quantitative, report.qualitative, report.cycle_edges, report.discard_edges
    ));
    d.line(&format!(
        "graph {} {}",
        graph.node_count(),
        graph.edge_count()
    ));
    for user in graph.users() {
        d.line(&format!("user {}", user.0));
        for p in graph.profile(user) {
            let canonical = p.predicate.canonical();
            assert_eq!(
                p.predicate,
                parse_predicate(&canonical).expect("canonical text parses"),
                "stored predicate of node {} differs from its re-parsed text",
                p.node
            );
            d.line(&format!(
                "node {} {canonical} {:?} {:?}",
                p.node,
                p.intensity.map(f64::to_bits),
                p.provenance
            ));
        }
        for a in graph.positive_profile(user) {
            d.line(&format!(
                "atom {} {} {}",
                a.index,
                a.predicate.canonical(),
                a.intensity.to_bits()
            ));
        }
        let kinds = graph.edge_kind_counts(user);
        for kind in [EdgeKind::Prefers, EdgeKind::Cycle, EdgeKind::Discard] {
            d.line(&format!(
                "edges {} {}",
                kind.label(),
                kinds.get(&kind).copied().unwrap_or(0)
            ));
        }
        let (user_provided, scored) = graph.quantitative_counts(user);
        d.line(&format!("counts {user_provided} {scored}"));
    }
    d.0
}

fn check(name: &str, got: u64, pinned: u64) {
    println!("{name}: {got:#018x}");
    assert_eq!(got, pinned, "{name} digest moved: {got:#018x}");
}

#[test]
fn tiny_extracted_workload_matches_the_pinned_digest() {
    let dataset = gen::generate(&gen::GeneratorConfig::tiny(21));
    let workload = extract::extract(&dataset, &extract::ExtractionConfig::default());
    let got = digest(&workload.quantitative, &workload.qualitative);
    check("tiny", got, TINY_DIGEST);
}

#[test]
fn bench_fixture_2k_workload_matches_the_pinned_digest() {
    let fx = Fixture::papers(2000);
    let got = digest(&fx.workload.quantitative, &fx.workload.qualitative);
    check("fixture_2k", got, FIXTURE_2K_DIGEST);
}

#[test]
fn dsl_profiles_match_the_pinned_digest() {
    // The three hand-built example profiles of tests/dsl_equivalence.rs,
    // each under its own user, in their surface syntax.
    let sources = [
        (
            UserId(1),
            "PROFILE quickstart OVER movie {
                genre = 'comedy' @ 0.9;
                genre = 'drama'  @ 0.4;
                (year >= 2000) PRIOR @ 0.5 (genre = 'drama');
            }",
        ),
        (
            UserId(42),
            "PROFILE movie_night OVER movie {
                genre = 'comedy' @ 0.8;
                genre = 'horror' @ -0.6;
                (genre = 'comedy')   PRIOR @ 0.7 (genre = 'drama');
                (genre = 'drama')    PRIOR @ 0.2 (genre = 'thriller');
                (genre = 'thriller') PRIOR @ 0   (genre = 'scifi');
                (genre = 'thriller') PRIOR @ 0.4 (genre = 'comedy');
            }",
        ),
        (
            UserId(7),
            "PROFILE dealership OVER cars {
                price BETWEEN 7000 AND 16000    @ 0.8;
                mileage BETWEEN 20000 AND 50000 @ 0.5;
                make IN ('BMW', 'Honda')        @ 0.2;
            }",
        ),
    ];
    let mut quants = Vec::new();
    let mut quals = Vec::new();
    for (user, src) in sources {
        let compiled = parse_profile(src)
            .expect("profile parses")
            .compile(user, &DerivedCatalog::new())
            .expect("profile compiles");
        // Every profile states its scores before its PRIOR edges, so the
        // two-pass load replays each one in source order.
        quants.extend(compiled.quantitative().into_iter().cloned());
        quals.extend(compiled.qualitative().into_iter().cloned());
    }
    let got = digest(&quants, &quals);
    check("dsl", got, DSL_DIGEST);
}
