//! Emits the machine-readable perf snapshot for the current PR (e.g.
//! `BENCH_PR13.json`), prints it one text line per row, prints a delta
//! against the newest checked-in `BENCH_PR*.json`, and **fails (exit 1)**
//! when a headline row regresses by more than [`GUARD_MAX_REGRESSION`],
//! when a `live_ingest` row's delta ingest is no faster than the full
//! re-warm it replaces (`ingest_ns ≥ rewarm_ns`), or when the baseline it
//! was given cannot be read — the bench gate `scripts/ci.sh
//! --release-bench` runs.
//!
//! # Report layout
//!
//! Every measurement is one [`Row`]: `section`, `name`, `papers`, then
//! its named metrics. The JSON report holds a short header (`bench`,
//! `sizes`, `available_parallelism`) and a `rows` array with
//! one flat object per line:
//!
//! ```text
//! {"section":"peps_top_k","name":"complete_k10","papers":2000,"adaptive_ns":…,"bitset_ns":…,"hashset_ns":…,"vs_bitset":2.71,"vs_hashset":9.40}
//! ```
//!
//! Headline rows keep the flat `adaptive_ns`/`bitset_ns`/`hashset_ns`
//! keys every earlier report used, so one line parser reads old and new
//! reports alike as a baseline.
//!
//! # Sections
//!
//! Per corpus size (default 2 000 and 20 000 papers; override with
//! `BENCH_SIZES=2000,20000`), with the three generations of set algebra
//! (adaptive `TupleSet` / pure `BitSet` / seed `HashSet<Value>`)
//! memo-warmed so the timed regions are pure set algebra:
//!
//! * `pairwise_build` (headline) — warm `PairwiseCache::build` for all
//!   three engines; `pairwise_build_cold` adds the cold adaptive build
//!   including its `n` SQL queries;
//! * `peps_top_k` (headline) — `Peps::top_k` (complete variant, k = 10
//!   and 100) over the rich profile, plus `sparse_k10` over a
//!   sparse/range-heavy synthetic profile (year windows, single-author
//!   long-tail atoms);
//! * `containers` — how the rich profile's tuple sets distribute over
//!   the array and bitmap containers, with bytes against the
//!   pure-bitmap footprint;
//! * `live_ingest` — warm on a 95 % base corpus, then ingest the last
//!   5 % as an append-only delta (`ProfileCache::ingest_delta`) versus a
//!   cold full re-warm over the grown corpus; the *ingest guard* fails
//!   the run when any row has `ingest_ns ≥ rewarm_ns`;
//! * `storage_1m` — the columnar `distinct_row_set` plan versus the
//!   row-materialising reference on a scan and a joined filter, and
//!   warm-snapshot save/load versus a cold SQL re-warm. With
//!   `--bench-1m` the section also streams a million-paper corpus
//!   (`BENCH_1M_PAPERS` overrides the size) and records single-shot
//!   timings for load, warm, pairwise build, PEPS top-k, snapshot
//!   save/load and the scan at scale;
//! * `graph_workload` — property-graph build, co-occurrence derivation,
//!   DSL compile of `COAUTHOR_OF`/`SAME_VENUE_AS` atoms, and PEPS top-k
//!   over them;
//! * `set_algebra` / `set_algebra_sparse` — `and_count` and `or` over
//!   the densest and the sparsest operand pair, with each operand's
//!   bytes in `memory`;
//! * `ablation` (smallest size only) — the §4.4 exponential versus
//!   linear intensity model (graph load time), and the §5.5 pairwise
//!   cache versus one `count_distinct` query per atom pair.
//!
//! Serving — sessions sharing one snapshot, batched evaluation of
//! repeated profiles — is not timed here: `perfbench` measures it end to
//! end over `serve::wire` (its `hot_zipf` workload).
//!
//! Only the headline rows are guarded. Each is compared against the same
//! `(section, name, papers)` row of the baseline report, **normalised by
//! the frozen PR 1 bitset engine** (the control both runs measure under
//! their own conditions) whenever the baseline recorded it, so host-wide
//! drift cancels instead of tripping the gate; PR 1-era baselines fall
//! back to raw wall-clock.
//!
//! Usage: `cargo run --release -p hypre-bench --bin bench_report
//! [--bench-1m] [out.json [baseline.json]]` — with no positional
//! arguments the output name is derived as `BENCH_PR{n+1}.json` from
//! the newest checked-in `BENCH_PR{n}.json`, which doubles as the
//! baseline.

use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypre_bench::baseline::{HashSetAlgebra, SeedPeps};
use hypre_bench::bitset_baseline::{BitsetAlgebra, BitsetPeps};
use hypre_bench::timing::median_time;
use hypre_bench::Fixture;
use hypre_core::prelude::*;
use relstore::{ColRef, SelectQuery};

/// Maximum tolerated slowdown of a headline row versus the baseline
/// report before the run fails (1.25 = 25 % regression budget).
const GUARD_MAX_REGRESSION: f64 = 1.25;

/// Sections the regression guard watches.
const HEADLINE_SECTIONS: [&str; 2] = ["pairwise_build", "peps_top_k"];

/// The per-corpus sections, in run order.
const SECTIONS: [fn(&Corpus) -> Vec<Row>; 7] = [
    headline,
    containers,
    live_ingest,
    storage,
    graph_workload,
    set_algebra,
    ablation,
];

/// One metric value: an integer (nanoseconds, bytes, counts) or a ratio.
#[derive(Debug, Clone, Copy)]
enum Metric {
    Count(u128),
    Ratio(f64),
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Count(v) => write!(f, "{v}"),
            Metric::Ratio(v) => write!(f, "{v:.2}"),
        }
    }
}

/// One report row: the guard's `(section, name, papers)` key plus named
/// metrics in output order.
#[derive(Debug)]
struct Row {
    section: &'static str,
    name: String,
    papers: usize,
    metrics: Vec<(&'static str, Metric)>,
}

impl Row {
    fn new(section: &'static str, name: impl Into<String>, papers: usize) -> Row {
        Row {
            section,
            name: name.into(),
            papers,
            metrics: Vec::new(),
        }
    }

    fn count(mut self, key: &'static str, value: u128) -> Row {
        self.metrics.push((key, Metric::Count(value)));
        self
    }

    /// Appends `num / den` (a zero denominator counts as 1).
    fn ratio(mut self, key: &'static str, num: u128, den: u128) -> Row {
        self.metrics
            .push((key, Metric::Ratio(num as f64 / den.max(1) as f64)));
        self
    }

    fn get(&self, key: &str) -> Option<u128> {
        self.metrics.iter().find_map(|(k, v)| match v {
            Metric::Count(c) if *k == key => Some(*c),
            _ => None,
        })
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"section\":\"{}\",\"name\":\"{}\",\"papers\":{}",
            self.section, self.name, self.papers
        );
        for (key, value) in &self.metrics {
            let _ = write!(out, ",\"{key}\":{value}");
        }
        out.push('}');
        out
    }

    fn to_text(&self) -> String {
        let mut out = format!(
            "{:>19} {:<22} n={:<8}",
            self.section, self.name, self.papers
        );
        for (key, value) in &self.metrics {
            let _ = write!(out, " {key}={value}");
        }
        out
    }
}

/// A three-generation comparison row: adaptive engine, PR 1 bitset
/// control, seed hash-set engine, and the adaptive engine's speedups.
fn engines(
    section: &'static str,
    name: impl Into<String>,
    papers: usize,
    adaptive_ns: u128,
    bitset_ns: u128,
    hashset_ns: u128,
) -> Row {
    Row::new(section, name, papers)
        .count("adaptive_ns", adaptive_ns)
        .count("bitset_ns", bitset_ns)
        .count("hashset_ns", hashset_ns)
        .ratio("vs_bitset", bitset_ns, adaptive_ns)
        .ratio("vs_hashset", hashset_ns, adaptive_ns)
}

/// One `BENCH_SIZES` corpus and its memo-warmed engines, shared by every
/// per-corpus section.
struct Corpus<'a, 'db> {
    papers: usize,
    fx: &'db Fixture,
    /// The rich study user's positive profile.
    atoms: &'a [PrefAtom],
    exec: &'a Executor<'db>,
    pairs: &'a PairwiseCache,
    bitset: &'a BitsetAlgebra<'a, 'db>,
    hashset: &'a HashSetAlgebra<'a, 'db>,
    /// Whether this is the smallest corpus (the `ablation` section's).
    smallest: bool,
}

fn measure<R>(f: impl FnMut() -> R) -> u128 {
    median_time(5, Duration::from_millis(120), f).as_nanos()
}

/// Times one execution of `f` and returns its output — for phases that
/// take seconds per run, or that build what the next phase consumes.
fn time_once<R>(f: impl FnOnce() -> R) -> (u128, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_nanos(), out)
}

/// A sparse/range-heavy synthetic profile: year windows (wide sets
/// scattered over corpus order — bitmap territory) plus
/// single-author long-tail atoms (tiny arrays). The `sparse_k10`
/// headline row measures it.
fn sparse_profile() -> Vec<PrefAtom> {
    [
        ("dblp.year>=1995", 0.9),
        ("dblp.year>=2000", 0.8),
        ("dblp.year>=2005", 0.7),
        ("dblp_author.aid=3", 0.6),
        ("dblp_author.aid=7", 0.55),
        ("dblp.year>=2008", 0.5),
        ("dblp_author.aid=11", 0.45),
        ("dblp_author.aid=19", 0.4),
        ("dblp.year>=2010", 0.35),
        ("dblp_author.aid=23", 0.3),
    ]
    .iter()
    .enumerate()
    .map(|(i, (pred, intensity))| {
        PrefAtom::new(
            i,
            relstore::parse_predicate(pred).expect("static predicate parses"),
            *intensity,
        )
    })
    .collect()
}

fn scan_query() -> SelectQuery {
    SelectQuery::from("dblp").filter(
        relstore::parse_predicate("dblp.year>=2005 OR dblp.year<1995")
            .expect("static predicate parses"),
    )
}

fn headline(c: &Corpus) -> Vec<Row> {
    let (n, atoms, exec) = (c.papers, c.atoms, c.exec);
    let (bitset, hashset) = (c.bitset, c.hashset);
    let cold_ns = measure(|| {
        PairwiseCache::build(atoms, &c.fx.executor())
            .unwrap()
            .applicable_count()
    });
    let mut rows = vec![
        Row::new("pairwise_build_cold", "cold", n).count("adaptive_ns", cold_ns),
        engines(
            "pairwise_build",
            "warm",
            n,
            measure(|| {
                PairwiseCache::build(atoms, exec)
                    .unwrap()
                    .applicable_count()
            }),
            measure(|| bitset.pairwise_counts(atoms).unwrap().len()),
            measure(|| hashset.pairwise_counts(atoms).unwrap().len()),
        ),
    ];
    let peps = Peps::new(atoms, exec, c.pairs, PepsVariant::Complete);
    let dense_peps = BitsetPeps::new(atoms, bitset, c.pairs, PepsVariant::Complete);
    let seed_peps = SeedPeps::new(atoms, hashset, c.pairs, PepsVariant::Complete);
    for k in [10usize, 100] {
        rows.push(engines(
            "peps_top_k",
            format!("complete_k{k}"),
            n,
            measure(|| peps.top_k(k).unwrap().len()),
            measure(|| dense_peps.top_k(k).unwrap().len()),
            measure(|| seed_peps.top_k(k).unwrap().len()),
        ));
    }
    let sparse = sparse_profile();
    hashset.warm(&sparse).unwrap();
    bitset.warm(&sparse).unwrap();
    let sparse_pairs = PairwiseCache::build(&sparse, exec).unwrap();
    let peps = Peps::new(&sparse, exec, &sparse_pairs, PepsVariant::Complete);
    let dense_peps = BitsetPeps::new(&sparse, bitset, &sparse_pairs, PepsVariant::Complete);
    let seed_peps = SeedPeps::new(&sparse, hashset, &sparse_pairs, PepsVariant::Complete);
    rows.push(engines(
        "peps_top_k",
        "sparse_k10",
        n,
        measure(|| peps.top_k(10).unwrap().len()),
        measure(|| dense_peps.top_k(10).unwrap().len()),
        measure(|| seed_peps.top_k(10).unwrap().len()),
    ));
    rows
}

fn containers(c: &Corpus) -> Vec<Row> {
    ["array", "bitmap"]
        .into_iter()
        .map(|kind| {
            let (mut sets, mut adaptive_bytes, mut bitset_bytes) = (0u128, 0u128, 0u128);
            for a in c.atoms {
                let set = c.exec.tuple_set(&a.predicate).unwrap();
                if set.container() == kind {
                    sets += 1;
                    adaptive_bytes += set.heap_bytes() as u128;
                    bitset_bytes += c.bitset.tuple_set(&a.predicate).unwrap().heap_bytes() as u128;
                }
            }
            Row::new("containers", kind, c.papers)
                .count("sets", sets)
                .count("adaptive_bytes", adaptive_bytes)
                .count("bitset_bytes", bitset_bytes)
        })
        .collect()
}

/// The incremental path re-scores only the predicates the delta touches;
/// the alternative it must beat is a cold full re-warm.
fn live_ingest(c: &Corpus) -> Vec<Row> {
    let split = hypre_bench::ingest::split_corpus(&c.fx.dataset, 0.95);
    let predicates: Vec<&relstore::Predicate> = c.atoms.iter().map(|a| &a.predicate).collect();
    let base_cache = ProfileCache::warm(&split.base, BaseQuery::dblp(), predicates.clone())
        .expect("base warm-up succeeds");
    let (_, report) = base_cache
        .ingest_delta(&split.full)
        .expect("append-only delta ingests");
    let ingest_ns = measure(|| base_cache.ingest_delta(&split.full).unwrap().1.new_tuples);
    let rewarm_ns = measure(|| {
        ProfileCache::warm(&split.full, BaseQuery::dblp(), predicates.clone())
            .unwrap()
            .len()
    });
    vec![Row::new("live_ingest", "delta_5pct", c.papers)
        .count(
            "delta_rows",
            (split.delta_papers + split.delta_links) as u128,
        )
        .count("changed_predicates", report.changed.len() as u128)
        .count("ingest_ns", ingest_ns)
        .count("rewarm_ns", rewarm_ns)
        .ratio("speedup", rewarm_ns, ingest_ns)]
}

/// Columnar plan versus the row-materialising reference on two shapes
/// where both do the same logical work — an OR-of-ranges scan (no index
/// seed) and a joined filter — then snapshot save/load versus what a
/// load replaces: a cold SQL re-warm of the same predicates.
fn storage(c: &Corpus) -> Vec<Row> {
    let (n, db) = (c.papers, &c.fx.db);
    let join_q = SelectQuery::from("dblp")
        .join(
            "dblp_author",
            ColRef::parse("dblp.pid"),
            ColRef::parse("dblp_author.pid"),
        )
        .filter(relstore::parse_predicate("dblp_author.aid<=25").expect("static predicate parses"));
    let mut rows = Vec::new();
    for (name, q) in [
        ("scan_or_filter", &scan_query()),
        ("joined_filter", &join_q),
    ] {
        let fast = q.distinct_row_set(db).unwrap();
        let slow = q.distinct_row_set_rowwise(db).unwrap();
        assert_eq!(fast, slow, "columnar and rowwise plans must agree ({name})");
        let columnar_ns = measure(|| q.distinct_row_set(db).unwrap().len());
        let rowwise_ns = measure(|| q.distinct_row_set_rowwise(db).unwrap().len());
        rows.push(
            Row::new("storage_1m", name, n)
                .count("rows_out", fast.len() as u128)
                .count("columnar_ns", columnar_ns)
                .count("rowwise_ns", rowwise_ns)
                .ratio("speedup", rowwise_ns, columnar_ns),
        );
    }

    let snap_path =
        std::env::temp_dir().join(format!("hypre_bench_{n}_{}.hyprsnap", std::process::id()));
    let predicates: Vec<&relstore::Predicate> = c.atoms.iter().map(|a| &a.predicate).collect();
    let rewarm = || {
        ProfileCache::warm(db, BaseQuery::dblp(), predicates.clone())
            .expect("profile warm-up succeeds")
    };
    let warm_cache = rewarm();
    let save_ns = measure(|| warm_cache.save_to(&snap_path, None).unwrap());
    let snapshot_bytes = std::fs::metadata(&snap_path)
        .expect("snapshot written")
        .len();
    let load_ns = measure(|| ProfileCache::load_from(&snap_path, db).unwrap().0.len());
    let _ = std::fs::remove_file(&snap_path);
    let rewarm_ns = measure(|| rewarm().len());
    rows.push(snapshot_row(
        n,
        warm_cache.len(),
        snapshot_bytes,
        save_ns,
        load_ns,
        rewarm_ns,
    ));
    rows
}

fn snapshot_row(
    papers: usize,
    sets: usize,
    snapshot_bytes: u64,
    save_ns: u128,
    load_ns: u128,
    rewarm_ns: u128,
) -> Row {
    Row::new("storage_1m", "snapshot", papers)
        .count("sets", sets as u128)
        .count("snapshot_bytes", u128::from(snapshot_bytes))
        .count("save_ns", save_ns)
        .count("load_ns", load_ns)
        .count("rewarm_ns", rewarm_ns)
        .ratio("speedup", rewarm_ns, load_ns)
}

fn graph_workload(c: &Corpus) -> Vec<Row> {
    use dblp_workload::graph::PaperGraph;
    let (n, dataset) = (c.papers, &c.fx.dataset);
    let (build_ns, mut pg) =
        time_once(|| PaperGraph::build(dataset).expect("corpus loads into the graph"));
    let mut rows = vec![Row::new("graph_workload", "build_graph", n)
        .count("ns", build_ns)
        .count("nodes", pg.graph.node_count() as u128)
        .count("edges", pg.graph.edge_count() as u128)];
    let (derive_ns, (co_report, venue_report)) =
        time_once(|| pg.derive_preference_edges(4).expect("derivation succeeds"));
    rows.push(
        Row::new("graph_workload", "derive_edges", n)
            .count("ns", derive_ns)
            .count("coauthor_pairs", co_report.pairs as u128)
            .count("venue_pairs", venue_report.pairs as u128),
    );
    let catalog = pg.derived_catalog(dataset);
    let author = dataset
        .authors
        .iter()
        .max_by_key(|a| pg.coauthor_aids(a.aid).len())
        .expect("corpus has authors");
    let venue = dataset
        .venues()
        .into_iter()
        .max_by_key(|v| pg.co_venues(v).len())
        .expect("corpus has venues");
    let source = format!(
        "PROFILE bench OVER dblp {{
            COAUTHOR_OF('{author_name}') @ 0.8;
            SAME_VENUE_AS('{venue_name}') @ 0.5;
            COAUTHOR_OF('{author_name}') PRIOR @ 0.6 year < 2005;
        }}",
        author_name = author.full_name.replace('\'', "''"),
        venue_name = venue.replace('\'', "''"),
    );
    let compile = || {
        parse_profile(&source)
            .expect("bench profile parses")
            .compile(UserId(999), &catalog)
            .expect("bench profile compiles")
            .atoms()
            .expect("atoms build")
    };
    let compile_ns = measure(|| compile().len());
    let g_atoms = compile();
    rows.push(
        Row::new("graph_workload", "dsl_compile", n)
            .count("ns", compile_ns)
            .count("atoms", g_atoms.len() as u128),
    );
    let g_exec = c.fx.executor();
    let g_pairs = PairwiseCache::build(&g_atoms, &g_exec).expect("pairwise over derived atoms");
    let g_peps = Peps::new(&g_atoms, &g_exec, &g_pairs, PepsVariant::Complete);
    let topk_ns = measure(|| g_peps.top_k(10).expect("top-k over derived atoms").len());
    rows.push(
        Row::new("graph_workload", "graph_top_k", n)
            .count("ns", topk_ns)
            .count("k", 10),
    );
    rows
}

/// Micro-ops over the densest operand pair (bitmap containers) and the
/// sparsest non-empty pair (array containers), with each operand's bytes
/// in `memory`.
fn set_algebra(c: &Corpus) -> Vec<Row> {
    let (n, atoms, exec) = (c.papers, c.atoms, c.exec);
    let counts: Vec<u64> = atoms
        .iter()
        .map(|a| exec.count(&a.predicate).unwrap())
        .collect();
    let mut idx: Vec<usize> = (0..atoms.len()).filter(|&i| counts[i] > 0).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    let mut regimes = Vec::new();
    if idx.len() >= 2 {
        regimes.push(("set_algebra", idx[0], idx[1]));
    } else {
        eprintln!("  fewer than two non-empty tuple sets; skipping set_algebra sections");
    }
    if idx.len() >= 4 {
        // Distinct from the dense pair, or the "sparse" rows would
        // just re-measure the dense operands under a new label.
        regimes.push(("set_algebra_sparse", idx[idx.len() - 1], idx[idx.len() - 2]));
    } else if idx.len() >= 2 {
        eprintln!("  profile too small for a distinct sparse pair; skipping set_algebra_sparse");
    }
    let mut rows = Vec::new();
    for (section, i, j) in regimes {
        let (pa, pb) = (&atoms[i].predicate, &atoms[j].predicate);
        let (aa, ab) = (exec.tuple_set(pa).unwrap(), exec.tuple_set(pb).unwrap());
        let (ba, bb) = (
            c.bitset.tuple_set(pa).unwrap(),
            c.bitset.tuple_set(pb).unwrap(),
        );
        let (ha, hb) = (
            c.hashset.tuple_set(pa).unwrap(),
            c.hashset.tuple_set(pb).unwrap(),
        );
        for (set_name, a_set, b_set) in [("a", &aa, &ba), ("b", &ab, &bb)] {
            rows.push(
                Row::new(
                    "memory",
                    format!("{section}/{set_name}:{}", a_set.container()),
                    n,
                )
                .count("cardinality", a_set.count() as u128)
                .count("adaptive_bytes", a_set.heap_bytes() as u128)
                .count("bitset_bytes", b_set.heap_bytes() as u128),
            );
        }
        rows.push(engines(
            section,
            "and_count",
            n,
            measure(|| aa.and_count(&ab)),
            measure(|| ba.and_count(&bb)),
            measure(|| ha.iter().filter(|v| hb.contains(*v)).count()),
        ));
        rows.push(engines(
            section,
            "or",
            n,
            measure(|| aa.or(&ab).count()),
            measure(|| ba.or(&bb).count()),
            measure(|| ha.union(&hb).count()),
        ));
    }
    rows
}

/// Two design choices measured against their alternatives: the
/// dissertation's exponential intensity model (Eq. 4.1/4.2) against the
/// linear one §4.4 allows, by graph load time; and the §5.5 pairwise
/// cache (a cold build: one query per atom, then set intersections)
/// against one `count_distinct` query per atom pair, as a direct reading
/// of §5.5 against a SQL engine would run it.
fn ablation(c: &Corpus) -> Vec<Row> {
    if !c.smallest {
        return Vec::new();
    }
    let (n, atoms, workload) = (c.papers, c.atoms, &c.fx.workload);
    let load_ns = |model| {
        measure(|| {
            let mut graph = HypreGraph::with_config(model, DefaultValueStrategy::default());
            graph
                .load(&workload.quantitative, &workload.qualitative)
                .unwrap();
            graph.node_count()
        })
    };
    let cache_ns = measure(|| {
        PairwiseCache::build(atoms, &c.fx.executor())
            .unwrap()
            .applicable_count()
    });
    let base = BaseQuery::dblp();
    let pid = ColRef::parse("dblp.pid");
    // Seconds per run even at the smallest corpus: timed once.
    let (per_pair_sql_ns, _) = time_once(|| {
        let mut applicable = 0usize;
        for (i, a) in atoms.iter().enumerate() {
            for b in &atoms[i + 1..] {
                let both = a.predicate.clone().and(b.predicate.clone());
                if base
                    .select_for(&both)
                    .count_distinct(&c.fx.db, &pid)
                    .unwrap()
                    > 0
                {
                    applicable += 1;
                }
            }
        }
        applicable
    });
    vec![
        Row::new("ablation", "intensity_model", n)
            .count("exponential_ns", load_ns(IntensityModel::Exponential))
            .count("linear_ns", load_ns(IntensityModel::Linear)),
        Row::new("ablation", "pairwise_cache", n)
            .count(
                "pairs",
                (atoms.len() * atoms.len().saturating_sub(1) / 2) as u128,
            )
            .count("cache_build_ns", cache_ns)
            .count("per_pair_sql_ns", per_pair_sql_ns)
            .ratio("speedup", per_pair_sql_ns, cache_ns),
    ]
}

/// The million-paper gate (`--bench-1m`): streams the corpus straight
/// into columnar segments, warms a fixed synthetic profile (preference
/// extraction needs a materialised dataset, which streaming avoids), and
/// records single-shot end-to-end timings for each serving phase.
fn million_gate() -> Vec<Row> {
    let m_papers: usize = std::env::var("BENCH_1M_PAPERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1_000_000);
    eprintln!("streaming {m_papers}-paper corpus (--bench-1m)…");
    let config = dblp_workload::GeneratorConfig {
        papers: m_papers,
        authors: (m_papers * 2 / 5).max(50),
        venues: (m_papers / 65).clamp(8, 120),
        ..dblp_workload::GeneratorConfig::default()
    };
    let (build_ns, db) =
        time_once(|| dblp_workload::load_streamed(&config).expect("streamed load succeeds"));
    let n = db.table("dblp").expect("dblp loaded").len();
    let link_rows = db.table("dblp_author").expect("links loaded").len();
    let phase = |name: &'static str, ns: u128| Row::new("storage_1m", name, n).count("ns", ns);
    let mut rows = vec![phase("load_streamed", build_ns).count("link_rows", link_rows as u128)];

    let atoms = sparse_profile();
    let predicates: Vec<&relstore::Predicate> = atoms.iter().map(|a| &a.predicate).collect();
    let (warm_ns, cache) = time_once(|| {
        ProfileCache::warm(&db, BaseQuery::dblp(), predicates).expect("million-paper warm succeeds")
    });
    rows.push(phase("profile_warm", warm_ns).count("sets", cache.len() as u128));

    let cache = Arc::new(cache);
    let session = Executor::with_cache(&db, Arc::clone(&cache)).expect("cached executor");
    let (pair_ns, pairs) =
        time_once(|| PairwiseCache::build(&atoms, &session).expect("pairwise build succeeds"));
    rows.push(
        phase("pairwise_build", pair_ns).count("applicable", pairs.applicable_count() as u128),
    );

    let peps = Peps::new(&atoms, &session, &pairs, PepsVariant::Complete);
    let (topk_ns, top) = time_once(|| peps.top_k(10).expect("top-k succeeds"));
    rows.push(phase("peps_top_k_k10", topk_ns).count("returned", top.len() as u128));

    // Snapshot at scale: save + load once each; the re-warm comparison is
    // the single-shot warm above over the same corpus and predicates.
    let snap_path =
        std::env::temp_dir().join(format!("hypre_bench_1m_{}.hyprsnap", std::process::id()));
    let (save_ns, _) = time_once(|| {
        cache
            .save_to(&snap_path, Some(&pairs))
            .expect("snapshot save")
    });
    let snapshot_bytes = std::fs::metadata(&snap_path)
        .expect("snapshot written")
        .len();
    let (load_ns, loaded) =
        time_once(|| ProfileCache::load_from(&snap_path, &db).expect("snapshot load"));
    let _ = std::fs::remove_file(&snap_path);
    rows.push(snapshot_row(
        n,
        loaded.0.len(),
        snapshot_bytes,
        save_ns,
        load_ns,
        warm_ns,
    ));

    let scan_q = scan_query();
    let (columnar_ns, fast) = time_once(|| scan_q.distinct_row_set(&db).expect("columnar scan"));
    let (rowwise_ns, slow) =
        time_once(|| scan_q.distinct_row_set_rowwise(&db).expect("rowwise scan"));
    assert_eq!(fast, slow, "columnar and rowwise plans must agree at 1M");
    rows.push(
        Row::new("storage_1m", "scan_or_filter", n)
            .count("rows_out", fast.len() as u128)
            .count("columnar_ns", columnar_ns)
            .count("rowwise_ns", rowwise_ns)
            .ratio("speedup", rowwise_ns, columnar_ns),
    );
    rows
}

/// The numeric suffix of a `BENCH_PR<n>.json` file name.
fn bench_file_number(name: &str) -> Option<u32> {
    name.strip_prefix("BENCH_PR")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Every `BENCH_PR*.json` in `dir`, newest (highest number) first. Note
/// this sees the working tree, not the git index — `scripts/ci.sh`
/// resolves the *checked-in* baseline via `git ls-files` and passes both
/// names explicitly; this listing is the fallback for direct invocations.
fn bench_files_newest_first(dir: &Path) -> Vec<(u32, String)> {
    let mut files: Vec<(u32, String)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            Some((bench_file_number(&name)?, name))
        })
        .collect();
    files.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
    files
}

/// The whole JSON report: a header, then one row object per line.
fn render_report(bench: &str, sizes: &[usize], cores: usize, rows: &[Row]) -> String {
    let mut json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"sizes\": {sizes:?},\n  \
         \"available_parallelism\": {cores},\n  \"rows\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    {}{sep}", row.to_json());
    }
    json.push_str("  ]\n}\n");
    json
}

fn main() {
    let mut bench_1m = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--bench-1m" => bench_1m = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other} (supported: --bench-1m)");
                std::process::exit(2);
            }
            _ => positional.push(arg),
        }
    }
    let mut args = positional.into_iter();
    let known = bench_files_newest_first(Path::new("."));
    let out_path = args
        .next()
        .unwrap_or_else(|| format!("BENCH_PR{}.json", known.first().map_or(1, |(n, _)| n + 1)));
    // Baseline: explicit second argument, else the newest bench file
    // that is not the output itself (so regenerating the current PR's
    // artifact in place still guards against its predecessor).
    let baseline_path = args.next().or_else(|| {
        known
            .iter()
            .map(|(_, name)| name.clone())
            .find(|name| *name != out_path)
    });
    let mut sizes: Vec<usize> = std::env::var("BENCH_SIZES")
        .unwrap_or_else(|_| "2000,20000".to_owned())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    if sizes.is_empty() {
        eprintln!("BENCH_SIZES contained no usable sizes; using 2000,20000");
        sizes = vec![2_000, 20_000];
    }
    let smallest = sizes.iter().copied().min();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rows: Vec<Row> = Vec::new();
    for &n in &sizes {
        eprintln!("building {n}-paper fixture…");
        let fx = Fixture::papers(n);
        let atoms = fx.graph.positive_profile(fx.rich_user);
        eprintln!("  profile: {} preferences", atoms.len());
        let exec = fx.executor();
        let pairs = PairwiseCache::build(&atoms, &exec).expect("pairwise build succeeds");
        let bitset = BitsetAlgebra::new(&exec);
        let hashset = HashSetAlgebra::new(&exec);
        bitset.warm(&atoms).expect("bitset warm-up succeeds");
        hashset.warm(&atoms).expect("hash-set warm-up succeeds");
        let corpus = Corpus {
            papers: n,
            fx: &fx,
            atoms: &atoms,
            exec: &exec,
            pairs: &pairs,
            bitset: &bitset,
            hashset: &hashset,
            smallest: Some(n) == smallest,
        };
        for section in SECTIONS {
            rows.extend(section(&corpus));
        }
    }
    if bench_1m {
        rows.extend(million_gate());
    }

    let json = render_report(out_path.trim_end_matches(".json"), &sizes, cores, &rows);
    std::fs::write(&out_path, json).expect("write report");
    for row in &rows {
        println!("{}", row.to_text());
    }
    eprintln!("wrote {out_path}");

    let ingest_ok = ingest_guard(&rows);
    let headline_ok = baseline_guard(&out_path, baseline_path, &rows);
    if !(ingest_ok && headline_ok) {
        std::process::exit(1);
    }
}

/// Delta ingest must stay faster than the cold re-warm it replaces:
/// fails when any `live_ingest` row has `ingest_ns ≥ rewarm_ns`, so the
/// ratio cannot silently invert.
fn ingest_guard(rows: &[Row]) -> bool {
    println!("\n== ingest guard (live_ingest: ingest must beat a full re-warm) ==");
    let mut ok = true;
    for row in rows.iter().filter(|r| r.section == "live_ingest") {
        let ingest = row
            .get("ingest_ns")
            .expect("live_ingest rows carry ingest_ns");
        let rewarm = row
            .get("rewarm_ns")
            .expect("live_ingest rows carry rewarm_ns");
        let pass = ingest < rewarm;
        println!(
            "  {} n={:<6} ingest {:>12} ns  full re-warm {:>12} ns  ({:.2}x)",
            if pass { "ok  " } else { "FAIL" },
            row.papers,
            ingest,
            rewarm,
            rewarm as f64 / ingest.max(1) as f64,
        );
        ok &= pass;
    }
    ok
}

/// Prints the delta against the baseline report and runs the headline
/// regression guard. `true` when it passes or no baseline was found;
/// `false` when the baseline is the output itself or cannot be read.
fn baseline_guard(out_path: &str, baseline_path: Option<String>, rows: &[Row]) -> bool {
    let Some(baseline_path) = baseline_path else {
        println!("\n(no baseline BENCH_PR*.json found — skipping delta and regression guard)");
        return true;
    };
    if baseline_path == out_path {
        eprintln!(
            "baseline and output are the same file ({out_path}) — a report never \
             guards against itself; pass a distinct baseline"
        );
        return false;
    }
    let contents = match std::fs::read_to_string(&baseline_path) {
        Ok(contents) => contents,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e} — the regression guard fails");
            return false;
        }
    };
    let baseline: Vec<ParsedRow> = contents.lines().filter_map(parse_row).collect();
    let current: Vec<ParsedRow> = rows
        .iter()
        .filter_map(|r| parse_row(&r.to_json()))
        .collect();
    print_delta(&baseline_path, &baseline, &current);
    regression_guard(&baseline_path, &baseline, &current)
}

/// One report row as the guard reads it: `(section, name, papers,
/// engine_ns, control_ns)`. `engine_ns` is the engine-under-test time
/// (`adaptive_ns`, or `bitset_ns` for PR 1-era files); `control_ns` is
/// the frozen PR 1 bitset engine's time in that same run, when the row
/// recorded both.
type ParsedRow = (String, String, usize, u128, Option<u128>);

/// Finds this run's row for a baseline row's `(section, name, papers)`.
fn find<'r>(rows: &'r [ParsedRow], key: &ParsedRow) -> Option<&'r ParsedRow> {
    rows.iter()
        .find(|r| r.0 == key.0 && r.1 == key.1 && r.2 == key.2)
}

/// Prints a side-by-side delta of this run against the baseline report:
/// for every `(section, name, papers)` row the baseline measured,
/// compare its engine time with today's adaptive engine.
fn print_delta(baseline_path: &str, baseline: &[ParsedRow], current: &[ParsedRow]) {
    println!("\n== delta vs {baseline_path} (baseline engine → this run's adaptive engine) ==");
    let mut matched = 0usize;
    for base in baseline {
        let Some(now) = find(current, base) else {
            continue;
        };
        matched += 1;
        let ratio = base.3 as f64 / now.3.max(1) as f64;
        println!(
            "{:>19} {:<14} n={:<6} base {:>12} ns → now {:>12} ns  ({:>5.2}x {})",
            base.0,
            base.1,
            base.2,
            base.3,
            now.3,
            if ratio >= 1.0 { ratio } else { 1.0 / ratio },
            if ratio >= 1.0 { "faster" } else { "slower" },
        );
    }
    if matched == 0 {
        println!("(no comparable rows found in {baseline_path})");
    }
}

/// The bench-regression gate: every headline row (`pairwise_build`,
/// `peps_top_k`) of the baseline must still exist in this run and must
/// not regress by more than [`GUARD_MAX_REGRESSION`]. A baseline
/// headline row with no counterpart in the current run fails the gate
/// too — a renamed or dropped row must update the baseline, not dodge
/// it. Returns `false` (→ exit 1) on any breach.
///
/// Regression is measured **normalised by the frozen control engine**
/// whenever both runs recorded it: the PR 1 pure-bitmap generation is
/// guaranteed unchanged by the ROADMAP guardrails and is re-measured
/// under identical conditions in every report, so comparing
/// `adaptive/bitset` ratios across runs cancels host-wide drift
/// (thermal state, noisy neighbours on shared runners) that raw
/// wall-clock comparison would misreport as a code regression. For
/// PR 1-era baselines without a recorded control, raw wall-clock is the
/// fallback.
fn regression_guard(baseline_path: &str, baseline: &[ParsedRow], current: &[ParsedRow]) -> bool {
    println!(
        "\n== regression guard vs {baseline_path} (headline rows, {:.0}% budget, \
         control-normalised where possible) ==",
        (GUARD_MAX_REGRESSION - 1.0) * 100.0
    );
    // A partial run (BENCH_SIZES override) only guards the sizes it
    // measured; within a measured size, every baseline headline row
    // must match.
    let measured_sizes: std::collections::HashSet<usize> = current.iter().map(|r| r.2).collect();
    let mut checked = 0usize;
    let mut ok = true;
    for base in baseline {
        let (section, name, papers, base_ns, base_control_ns) = base;
        if !HEADLINE_SECTIONS.contains(&section.as_str()) || !measured_sizes.contains(papers) {
            continue;
        }
        checked += 1;
        let Some((_, _, _, now_ns, now_control_ns)) = find(current, base) else {
            println!(
                "  MISS {:<16} {:<14} n={:<6} baseline row has no counterpart in this run",
                section, name, papers
            );
            ok = false;
            continue;
        };
        let raw = (*now_ns).max(1) as f64 / (*base_ns).max(1) as f64;
        let (ratio, how) = match (base_control_ns, now_control_ns) {
            (Some(base_control), Some(now_control)) if *base_control > 0 && *now_control > 0 => {
                let now = (*now_ns).max(1) as f64 / *now_control as f64;
                let then = (*base_ns).max(1) as f64 / *base_control as f64;
                (now / then, "vs-control")
            }
            _ => (raw, "raw"),
        };
        let breached = ratio > GUARD_MAX_REGRESSION;
        println!(
            "  {} {:<16} {:<14} n={:<6} {:>12} ns vs {:>12} ns baseline ({:.2}x {how}, {:.2}x raw)",
            if breached { "FAIL" } else { "ok  " },
            section,
            name,
            papers,
            now_ns,
            base_ns,
            ratio,
            raw,
        );
        ok &= !breached;
    }
    if checked == 0 {
        let mut sizes: Vec<usize> = measured_sizes.into_iter().collect();
        sizes.sort_unstable();
        println!("  (no baseline headline row at the measured sizes {sizes:?} — nothing to guard)");
    } else if ok {
        println!("  regression guard passed ({checked} rows)");
    } else {
        eprintln!("regression guard FAILED against {baseline_path}");
    }
    ok
}

/// Extracts one [`ParsedRow`] from a report line — a flat JSON object
/// per line, parsed without a JSON dependency. The engine time is
/// `adaptive_ns` (PR 2+ reports), falling back to `bitset_ns` for PR
/// 1-era files; the control time is `bitset_ns` only when the line
/// records it *alongside* `adaptive_ns` (in a PR 1 file `bitset_ns`
/// *is* the engine, not a control). Lines without an engine time are
/// not guard rows.
fn parse_row(line: &str) -> Option<ParsedRow> {
    let section = json_str_field(line, "section")?;
    let name = json_str_field(line, "name")?;
    let papers = json_num_field(line, "papers")?;
    let adaptive = json_num_field(line, "adaptive_ns");
    let bitset = json_num_field(line, "bitset_ns");
    let ns = adaptive.or(bitset)?;
    let control = adaptive.and(bitset);
    Some((section, name, papers as usize, ns, control))
}

fn json_str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_owned())
}

fn json_num_field(line: &str, key: &str) -> Option<u128> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_checked_in_report_parses_as_a_baseline() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = bench_files_newest_first(&root);
        assert!(
            files.len() >= 8,
            "expected the checked-in reports, found {files:?}"
        );
        for (number, file) in files {
            let contents = std::fs::read_to_string(root.join(&file)).expect("report is readable");
            let headline: Vec<ParsedRow> = contents
                .lines()
                .filter_map(parse_row)
                .filter(|r| HEADLINE_SECTIONS.contains(&r.0.as_str()))
                .collect();
            // PR 1–3 guarded warm pairwise + complete k10/k100 at two
            // sizes; PR 4 added `sparse_k10`.
            let expected = if number <= 3 { 6 } else { 8 };
            assert_eq!(headline.len(), expected, "{file}");
            for row in &headline {
                // PR 1 recorded the bitset engine as the engine under
                // test, with no control beside it.
                assert_eq!(row.4.is_some(), number > 1, "{file}: {row:?}");
                assert!(row.3 > 0, "{file}: {row:?}");
            }
        }
    }

    #[test]
    fn rows_round_trip_through_the_writer_and_the_guard_parser() {
        let rows = [
            engines("peps_top_k", "sparse_k10", 2_000, 1_234, 2_345, 99_999),
            engines("set_algebra", "and_count", 20_000, 7, 0, 50),
            Row::new("pairwise_build_cold", "cold", 20_000).count("adaptive_ns", 777),
            Row::new("live_ingest", "delta_5pct", 2_000)
                .count("ingest_ns", 5)
                .count("rewarm_ns", 9)
                .ratio("speedup", 9, 5),
            Row::new("containers", "bitmap", 2_000)
                .count("adaptive_bytes", 64)
                .count("bitset_bytes", 128),
        ];
        let report = render_report("BENCH_TEST", &[2_000, 20_000], 2, &rows);
        let parsed: Vec<ParsedRow> = report.lines().filter_map(parse_row).collect();
        let key = |s: &str, n: &str, p, ns, control| (s.to_owned(), n.to_owned(), p, ns, control);
        assert_eq!(
            parsed,
            [
                key("peps_top_k", "sparse_k10", 2_000, 1_234, Some(2_345)),
                key("set_algebra", "and_count", 20_000, 7, Some(0)),
                key("pairwise_build_cold", "cold", 20_000, 777, None),
            ]
        );
        for row in &rows {
            let line = row.to_json();
            assert!(report.contains(&line), "{line}");
            assert_eq!(
                json_str_field(&line, "section").as_deref(),
                Some(row.section)
            );
            assert_eq!(json_str_field(&line, "name"), Some(row.name.clone()));
            assert_eq!(json_num_field(&line, "papers"), Some(row.papers as u128));
        }
    }

    #[test]
    fn an_unreadable_named_baseline_fails_the_guard() {
        assert!(!baseline_guard(
            "BENCH_TEST_OUT.json",
            Some("no_such_baseline.json".to_owned()),
            &[]
        ));
        assert!(baseline_guard("BENCH_TEST_OUT.json", None, &[]));
    }
}
