//! Emits the machine-readable perf snapshot for the current PR (e.g.
//! `BENCH_PR3.json`), prints a side-by-side delta against the newest
//! checked-in `BENCH_PR*.json`, and **fails (exit 1) when a headline row
//! regresses** by more than [`GUARD_MAX_REGRESSION`] **or when a
//! `live_ingest` row's delta ingest is no faster than the full re-warm it
//! replaces** (`ingest_ns ≥ rewarm_ns`) — the bench gate
//! `scripts/ci.sh --release-bench` runs.
//!
//! Measures, per corpus size (default 2 000 and 20 000 papers; override
//! with `BENCH_SIZES=2000,20000`), across the **three generations** of
//! set algebra (adaptive `TupleSet` / pure `BitSet` / seed
//! `HashSet<Value>`, all memo-warmed so the timed regions are pure set
//! algebra):
//!
//! * `pairwise_build` — `PairwiseCache::build` wall time, plus the cold
//!   adaptive build including its `n` SQL queries;
//! * `peps_top_k` — `Peps::top_k` latency (complete variant, k = 10 and
//!   100) for all three engines over the same pairwise cache;
//! * `set_algebra` / `set_algebra_sparse` — micro-ops over the densest
//!   and sparsest profile tuple sets, with per-set container bytes in
//!   the `memory` section;
//! * `pairwise_build_parallel` — the PR 3 sharded triangular pass (now
//!   cost-weighted) at 1, 2 and 4 worker threads (byte-identical
//!   results; the delta is pure scheduling, so single-core hosts show
//!   spawn overhead, multi-core hosts show speedup — the host's core
//!   count is recorded as `available_parallelism`);
//! * `peps_parallel` — PR 4: `Peps::top_k` with the round expansions
//!   sharded at 1, 2 and 4 workers (same caveat on single-core hosts;
//!   `tests/parallel_equivalence.rs` pins every count byte-identical);
//! * `multi_session` — N user sessions served from one shared
//!   `ProfileCache` snapshot versus N cold executors that re-run every
//!   profile query;
//! * `containers` — PR 4: how the rich profile's tuple sets distribute
//!   over the three adaptive containers (array / runs / bitmap), with
//!   per-container byte totals against the pure-bitmap footprint;
//! * `live_ingest` — PR 6: warming on a 95 % base corpus then ingesting
//!   the remaining 5 % as an append-only delta
//!   (`ProfileCache::ingest_delta`) versus a cold full re-warm over the
//!   grown corpus. Non-headline: the rows carry no `name` field, so the
//!   regression guard ignores them; the *ingest guard* instead fails the
//!   run when any row's `ingest_ns ≥ rewarm_ns`;
//! * `scaling` — PR 8 (only with `--scaling`, the `scripts/ci.sh
//!   --scaling` mode): per-thread-count curves at 1, 2, 4 and 8 workers
//!   for the pairwise build, PEPS top-k (work-stealing rounds) and
//!   batched serving, each with its speedup over the 1-worker run. On a
//!   1-core host the section records an explicit
//!   `"skipped": "available_parallelism=1"` marker instead of junk
//!   spawn-overhead rows; without the flag it records
//!   `"skipped": "not_requested"`. Non-headline either way (the rows
//!   carry no `name` field), so the regression guard never trips on a
//!   host's core count;
//! * `batched_serving` — PR 7: 100–400 simulated sessions drawing
//!   profiles Zipf-popularly from the variant pool, served unbatched
//!   (every session its own executor + PEPS rounds, fanned over 4 OS
//!   threads) versus one `BatchScheduler` run that evaluates each
//!   distinct profile identity once and demultiplexes. Both shapes are
//!   checksum-verified equal before timing. Non-headline, same as
//!   `live_ingest`;
//! * `graph_workload` — PR 10: the graph-derived workload end to end —
//!   property-graph build over the corpus, co-author/venue co-occurrence
//!   derivation, DSL parse + compile of a profile naming `COAUTHOR_OF` /
//!   `SAME_VENUE_AS` atoms, and PEPS top-k over the compiled atoms.
//!   Non-headline (the rows carry a `stage` field, no `name`), so the
//!   regression guard and the delta printer ignore them;
//! * `storage_1m` — PR 9: the columnar `distinct_row_set` plan versus
//!   the row-materialising reference on scan- and join-shaped queries,
//!   and warm-snapshot persistence (`ProfileCache::save_to` /
//!   `load_from`) versus a cold SQL re-warm, at every `BENCH_SIZES`
//!   corpus. With `--bench-1m` the section additionally streams a
//!   million-paper corpus (`BENCH_1M_PAPERS` overrides the size)
//!   through `load_streamed` and records single-shot end-to-end
//!   timings: corpus build, profile warm, pairwise build, PEPS top-k,
//!   snapshot save/load, and the columnar-vs-rowwise scan at scale.
//!   Non-headline (custom field names), so the regression guard and
//!   the delta printer ignore every row.
//!
//! The **headline rows** (`pairwise_build`, `peps_top_k` — including the
//! PR 4 `sparse_k10` row over a sparse/range-heavy synthetic profile,
//! the regime the run container and clone-free expansion target) are the
//! regression guard: each is compared against the same row of the
//! baseline report and the run exits non-zero past the threshold. The
//! comparison is **normalised by the frozen PR 1 bitset engine** (the
//! control both runs measure under their own conditions) whenever the
//! baseline recorded it, so host-wide drift between runs — thermal
//! state, noisy neighbours on shared hardware — cancels out instead of
//! tripping the gate; PR 1-era baselines fall back to raw wall-clock.
//!
//! Usage: `cargo run --release -p hypre-bench --bin bench_report
//! [--scaling] [--bench-1m] [out.json [baseline.json]]` — with no positional
//! arguments the output name is derived as `BENCH_PR{n+1}.json` from
//! the newest checked-in `BENCH_PR{n}.json`, which doubles as the
//! baseline.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use hypre_bench::baseline::{HashSetAlgebra, SeedPeps};
use hypre_bench::bitset_baseline::{BitsetAlgebra, BitsetPeps};
use hypre_bench::timing::median_time;
use hypre_bench::{serving, Fixture};
use hypre_core::prelude::*;

/// Maximum tolerated slowdown of a headline row versus the baseline
/// report before the run fails (1.25 = 25 % regression budget).
const GUARD_MAX_REGRESSION: f64 = 1.25;

/// Sections the regression guard watches.
const HEADLINE_SECTIONS: [&str; 2] = ["pairwise_build", "peps_top_k"];

/// One comparison row: median nanoseconds per generation.
struct Row {
    section: &'static str,
    name: String,
    papers: usize,
    adaptive_ns: u128,
    bitset_ns: u128,
    hashset_ns: u128,
}

impl Row {
    /// Speedup of the adaptive engine over the pure-bitmap generation.
    fn vs_bitset(&self) -> f64 {
        self.bitset_ns as f64 / self.adaptive_ns.max(1) as f64
    }

    /// Speedup of the adaptive engine over the seed generation.
    fn vs_hashset(&self) -> f64 {
        self.hashset_ns as f64 / self.adaptive_ns.max(1) as f64
    }
}

/// One memory row: container bytes for a profile tuple set under both
/// dense generations, tagged with the adaptive container it picked.
struct MemRow {
    papers: usize,
    name: String,
    container: &'static str,
    cardinality: usize,
    adaptive_bytes: usize,
    bitset_bytes: usize,
}

/// One parallel row: a warm parallel phase at a worker count
/// (`pairwise_build_parallel` or `peps_parallel`).
struct ParallelRow {
    section: &'static str,
    papers: usize,
    threads: usize,
    ns: u128,
}

/// One container-census row: how many of the profile's tuple sets picked
/// a container, and what they cost against the pure-bitmap generation.
struct ContainerRow {
    papers: usize,
    container: &'static str,
    sets: usize,
    adaptive_bytes: usize,
    bitset_bytes: usize,
}

/// One serving row: N sessions cold versus over a shared snapshot.
struct MultiSessionRow {
    papers: usize,
    sessions: usize,
    cold_ns: u128,
    shared_ns: u128,
    warm_build_ns: u128,
}

/// One live-ingest row: appending a delta into a warmed snapshot versus
/// a cold full re-warm over the grown corpus.
struct LiveIngestRow {
    papers: usize,
    delta_rows: usize,
    changed_predicates: usize,
    ingest_ns: u128,
    rewarm_ns: u128,
}

/// Worker counts the `--scaling` curves sweep.
const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// One scaling-curve row: a warm parallel phase at a worker count, for
/// the multi-core curves the `--scaling` mode emits, plus the summed
/// work-stealing counters (`crate::steal`) of one instrumented run of
/// the phase — tasks claimed, successful steals, idle victim probes.
/// Phases that never enter the work-stealing pool report zeros.
/// Non-headline (no `name` field in the JSON), so the regression guard
/// ignores it.
struct ScalingRow {
    phase: &'static str,
    papers: usize,
    threads: usize,
    ns: u128,
    tasks: usize,
    steals: usize,
    idle_probes: usize,
}

/// One storage row (PR 9): the columnar `distinct_row_set` plan versus
/// the row-materialising reference over the identical query. Custom
/// field names keep it out of the regression guard.
struct StorageScanRow {
    papers: usize,
    name: &'static str,
    rows_out: usize,
    columnar_ns: u128,
    rowwise_ns: u128,
}

/// One snapshot row (PR 9): persisting a warmed `ProfileCache` to the
/// versioned binary snapshot format versus re-warming the same profile
/// from SQL.
struct StorageSnapRow {
    papers: usize,
    sets: usize,
    snapshot_bytes: u64,
    save_ns: u128,
    load_ns: u128,
    rewarm_ns: u128,
}

/// One million-paper gate row (PR 9, `--bench-1m`): a single-shot
/// end-to-end phase timing over the streamed corpus — these phases run
/// seconds to minutes, so they are timed once with [`time_once`]
/// instead of the median-of-5 harness.
struct StorageMillionRow {
    papers: usize,
    phase: &'static str,
    ns: u128,
    detail: String,
}

/// One batched-serving row: a Zipf session mix served unbatched versus
/// through one `BatchScheduler` run.
struct BatchedServingRow {
    papers: usize,
    sessions: usize,
    profiles: usize,
    groups: usize,
    shared: usize,
    unbatched_ns: u128,
    batched_ns: u128,
}

/// One graph-workload row (PR 10): a stage of the graph-derived pipeline
/// — property-graph build, co-occurrence derivation, DSL compile, PEPS
/// top-k over derived atoms. Non-headline: the `stage` field (no `name`)
/// keeps every row out of the regression guard and the delta printer.
struct GraphWorkloadRow {
    papers: usize,
    stage: &'static str,
    ns: u128,
    detail: String,
}

fn measure<R>(f: impl FnMut() -> R) -> u128 {
    median_time(5, Duration::from_millis(120), f).as_nanos()
}

/// Times one execution of `f` — for the `--bench-1m` phases, where a
/// single run already takes seconds and median-of-5 would be wasteful.
fn time_once<R>(f: impl FnOnce() -> R) -> (u128, R) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed().as_nanos(), out)
}

/// Drains the process-wide work-stealing counters and sums them across
/// workers: `(tasks, steals, idle_probes)`.
fn steal_totals() -> (usize, usize, usize) {
    take_cumulative_stats()
        .iter()
        .fold((0, 0, 0), |(t, s, p), w| {
            (t + w.tasks, s + w.steals, p + w.idle_probes)
        })
}

/// A sparse/range-heavy synthetic profile: year windows (whose tuple
/// sets intern to contiguous id runs — run-container territory) plus
/// single-author long-tail atoms (tiny arrays). This is the regime the
/// PR 4 run container and clone-free COW expansion target, and the
/// `sparse_k10` headline row measures.
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

/// The numeric suffix of a `BENCH_PR<n>.json` file name.
fn bench_file_number(name: &str) -> Option<u32> {
    name.strip_prefix("BENCH_PR")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Every `BENCH_PR*.json` in the current directory, newest (highest
/// number) first. Note this sees the working tree, not the git index —
/// `scripts/ci.sh` resolves the *checked-in* baseline via
/// `git ls-files` and passes both names explicitly; this listing is the
/// fallback for direct invocations.
fn bench_files_newest_first() -> Vec<(u32, String)> {
    let mut files: Vec<(u32, String)> = std::fs::read_dir(".")
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

fn main() {
    let mut scaling_requested = false;
    let mut bench_1m = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--scaling" => scaling_requested = true,
            "--bench-1m" => bench_1m = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other} (supported: --scaling, --bench-1m)");
                std::process::exit(2);
            }
            _ => positional.push(arg),
        }
    }
    let mut args = positional.into_iter();
    let known = bench_files_newest_first();
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

    let mut rows: Vec<Row> = Vec::new();
    let mut mem: Vec<MemRow> = Vec::new();
    let mut parallel: Vec<ParallelRow> = Vec::new();
    let mut containers: Vec<ContainerRow> = Vec::new();
    let mut multi: Vec<MultiSessionRow> = Vec::new();
    let mut live: Vec<LiveIngestRow> = Vec::new();
    let mut batched: Vec<BatchedServingRow> = Vec::new();
    let mut graph_rows: Vec<GraphWorkloadRow> = Vec::new();
    let mut scaling: Vec<ScalingRow> = Vec::new();
    let mut storage_scans: Vec<StorageScanRow> = Vec::new();
    let mut storage_snaps: Vec<StorageSnapRow> = Vec::new();
    let mut storage_million: Vec<StorageMillionRow> = Vec::new();
    let mut extra = String::new();

    let cores = Parallelism::Auto.workers();
    // The scaling curves only mean something with real cores behind
    // them: a 1-core host would measure thread-spawn overhead, not
    // scaling, so the section is skipped with an explicit marker and
    // the headline guard never sees a core-count artifact.
    let measure_scaling = scaling_requested && cores > 1;

    for &n in &sizes {
        eprintln!("building {n}-paper fixture…");
        let fx = Fixture::papers(n);
        let atoms = fx.graph.positive_profile(fx.rich_user);
        eprintln!("  profile: {} preferences", atoms.len());

        // Cold adaptive build (includes the n SQL queries).
        let cold_ns = measure(|| {
            let fresh = fx.executor();
            PairwiseCache::build(&atoms, &fresh)
                .unwrap()
                .applicable_count()
        });
        let _ = write!(
            extra,
            "{}{{\"section\":\"pairwise_build_cold\",\"papers\":{n},\"adaptive_ns\":{cold_ns}}}",
            if extra.is_empty() { "" } else { ",\n    " },
        );

        // Warm engines: the comparison isolates set algebra.
        let exec = fx.executor();
        let hashset = HashSetAlgebra::new(&exec);
        let bitset = BitsetAlgebra::new(&exec);
        hashset.warm(&atoms).unwrap();
        bitset.warm(&atoms).unwrap();
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();

        rows.push(Row {
            section: "pairwise_build",
            name: "warm".to_owned(),
            papers: n,
            adaptive_ns: measure(|| {
                PairwiseCache::build(&atoms, &exec)
                    .unwrap()
                    .applicable_count()
            }),
            bitset_ns: measure(|| bitset.pairwise_counts(&atoms).unwrap().len()),
            hashset_ns: measure(|| hashset.pairwise_counts(&atoms).unwrap().len()),
        });

        // PR 3: the same warm triangular pass, sharded (cost-weighted
        // chunks since PR 4).
        for threads in [1usize, 2, 4] {
            parallel.push(ParallelRow {
                section: "pairwise_build_parallel",
                papers: n,
                threads,
                ns: measure(|| {
                    PairwiseCache::build_with(&atoms, &exec, Parallelism::threads(threads))
                        .unwrap()
                        .applicable_count()
                }),
            });
        }

        let peps = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete);
        let dense_peps = BitsetPeps::new(&atoms, &bitset, &pairs, PepsVariant::Complete);
        let seed_peps = SeedPeps::new(&atoms, &hashset, &pairs, PepsVariant::Complete);
        for k in [10usize, 100] {
            rows.push(Row {
                section: "peps_top_k",
                name: format!("complete_k{k}"),
                papers: n,
                adaptive_ns: measure(|| peps.top_k(k).unwrap().len()),
                bitset_ns: measure(|| dense_peps.top_k(k).unwrap().len()),
                hashset_ns: measure(|| seed_peps.top_k(k).unwrap().len()),
            });
        }

        // PR 4: the same top_k with the round expansions sharded across
        // the executor's Parallelism workers.
        for threads in [1usize, 2, 4] {
            exec.set_parallelism(Parallelism::threads(threads));
            parallel.push(ParallelRow {
                section: "peps_parallel",
                papers: n,
                threads,
                ns: measure(|| peps.top_k(100).unwrap().len()),
            });
        }
        exec.set_parallelism(Parallelism::Sequential);

        // PR 4: a sparse/range-heavy profile — year windows interning to
        // contiguous id runs plus single-author long-tail atoms — the
        // regime the run container and clone-free COW expansion target.
        // A headline row: the guard covers it from this PR on.
        let sparse_atoms = sparse_profile();
        hashset.warm(&sparse_atoms).unwrap();
        bitset.warm(&sparse_atoms).unwrap();
        let sparse_pairs = PairwiseCache::build(&sparse_atoms, &exec).unwrap();
        let sparse_peps = Peps::new(&sparse_atoms, &exec, &sparse_pairs, PepsVariant::Complete);
        let sparse_dense =
            BitsetPeps::new(&sparse_atoms, &bitset, &sparse_pairs, PepsVariant::Complete);
        let sparse_seed = SeedPeps::new(
            &sparse_atoms,
            &hashset,
            &sparse_pairs,
            PepsVariant::Complete,
        );
        rows.push(Row {
            section: "peps_top_k",
            name: "sparse_k10".to_owned(),
            papers: n,
            adaptive_ns: measure(|| sparse_peps.top_k(10).unwrap().len()),
            bitset_ns: measure(|| sparse_dense.top_k(10).unwrap().len()),
            hashset_ns: measure(|| sparse_seed.top_k(10).unwrap().len()),
        });

        // PR 4: container census of the rich profile's tuple sets.
        for kind in ["array", "runs", "bitmap"] {
            let mut row = ContainerRow {
                papers: n,
                container: kind,
                sets: 0,
                adaptive_bytes: 0,
                bitset_bytes: 0,
            };
            for a in &atoms {
                let set = exec.tuple_set(&a.predicate).unwrap();
                if set.container() == kind {
                    row.sets += 1;
                    row.adaptive_bytes += set.heap_bytes();
                    row.bitset_bytes += bitset.tuple_set(&a.predicate).unwrap().heap_bytes();
                }
            }
            containers.push(row);
        }

        // PR 3: multi-session serving — N sessions over one shared
        // snapshot versus N cold executors re-running every query. Both
        // shapes run their sessions concurrently (hypre_bench::serving),
        // so the delta isolates what the snapshot buys rather than
        // conflating it with thread-level parallelism.
        const SESSIONS: usize = 4;
        let warm_build_ns = measure(|| {
            let warm = fx.executor();
            let built = PairwiseCache::build(&atoms, &warm).unwrap().entries().len();
            (ProfileCache::snapshot(&warm).len(), built)
        });
        let cache = Arc::new(ProfileCache::snapshot(&exec));
        let base = BaseQuery::dblp();
        multi.push(MultiSessionRow {
            papers: n,
            sessions: SESSIONS,
            cold_ns: measure(|| {
                serving::serve_cold_concurrent(&fx.db, &base, &atoms, SESSIONS, 10)
            }),
            shared_ns: measure(|| {
                serving::serve_shared_concurrent(&fx.db, &cache, &atoms, SESSIONS, 10)
            }),
            warm_build_ns,
        });

        // PR 6: live ingest — warm once on a 95 % base corpus, then
        // append the remaining 5 % as an append-only delta. The
        // incremental path re-scores only the predicates the delta
        // touches; the alternative is a cold full re-warm.
        let split = hypre_bench::ingest::split_corpus(&fx.dataset, 0.95);
        let predicates: Vec<&relstore::Predicate> = atoms.iter().map(|a| &a.predicate).collect();
        let base_cache = ProfileCache::warm(&split.base, BaseQuery::dblp(), predicates.clone())
            .expect("base warm-up succeeds");
        let (_, report) = base_cache
            .ingest_delta(&split.full)
            .expect("append-only delta ingests");
        live.push(LiveIngestRow {
            papers: n,
            delta_rows: split.delta_papers + split.delta_links,
            changed_predicates: report.changed.len(),
            ingest_ns: measure(|| base_cache.ingest_delta(&split.full).unwrap().1.new_tuples),
            rewarm_ns: measure(|| {
                ProfileCache::warm(&split.full, BaseQuery::dblp(), predicates.clone())
                    .unwrap()
                    .len()
            }),
        });

        // PR 9: columnar segment storage. Two query shapes where the
        // columnar plan and the row-materialising reference do the same
        // logical work: an OR-of-ranges scan (no usable index seed, so
        // both paths walk every driving row) and a joined filter (the
        // plan membership-tests typed key segments; the reference
        // builds the generic hash-join pipeline).
        let scan_q = relstore::SelectQuery::from("dblp").filter(
            relstore::parse_predicate("dblp.year>=2005 OR dblp.year<1995")
                .expect("static predicate parses"),
        );
        let join_q = relstore::SelectQuery::from("dblp")
            .join(
                "dblp_author",
                relstore::ColRef::parse("dblp.pid"),
                relstore::ColRef::parse("dblp_author.pid"),
            )
            .filter(
                relstore::parse_predicate("dblp_author.aid<=25").expect("static predicate parses"),
            );
        for (name, q) in [("scan_or_filter", &scan_q), ("joined_filter", &join_q)] {
            let fast = q.distinct_row_set(&fx.db).unwrap();
            let slow = q.distinct_row_set_rowwise(&fx.db).unwrap();
            assert_eq!(fast, slow, "columnar and rowwise plans must agree ({name})");
            storage_scans.push(StorageScanRow {
                papers: n,
                name,
                rows_out: fast.len(),
                columnar_ns: measure(|| q.distinct_row_set(&fx.db).unwrap().len()),
                rowwise_ns: measure(|| q.distinct_row_set_rowwise(&fx.db).unwrap().len()),
            });
        }

        // PR 9: warm-snapshot persistence — save the warmed profile
        // cache to the versioned binary format, load it back, and
        // compare the load against what it replaces: a cold SQL
        // re-warm of the same predicates.
        let snap_path =
            std::env::temp_dir().join(format!("hypre_bench_{n}_{}.hyprsnap", std::process::id()));
        let warm_cache = ProfileCache::warm(&fx.db, BaseQuery::dblp(), predicates.clone())
            .expect("profile warm-up succeeds");
        let save_ns = measure(|| warm_cache.save_to(&snap_path, None).unwrap());
        let snapshot_bytes = std::fs::metadata(&snap_path)
            .expect("snapshot written")
            .len();
        storage_snaps.push(StorageSnapRow {
            papers: n,
            sets: warm_cache.len(),
            snapshot_bytes,
            save_ns,
            load_ns: measure(|| ProfileCache::load_from(&snap_path, &fx.db).unwrap().0.len()),
            rewarm_ns: measure(|| {
                ProfileCache::warm(&fx.db, BaseQuery::dblp(), predicates.clone())
                    .unwrap()
                    .len()
            }),
        });
        let _ = std::fs::remove_file(&snap_path);

        // PR 7: batched cross-session serving. Sessions draw their
        // profile Zipf-popularly from the variant pool (overlapping
        // slices of the two study users' profiles), so a real mix of
        // hot and long-tail identities reaches the scheduler. The
        // unbatched baseline runs every session's own PEPS rounds over
        // 4 OS threads; the batched shape evaluates each distinct
        // profile identity once and demultiplexes.
        let modest_atoms = fx.graph.positive_profile(fx.modest_user);
        let profiles = hypre_bench::profile_variants(&atoms, &modest_atoms);
        let zipf_cache = {
            let warm = fx.executor();
            for profile in &profiles {
                for atom in profile {
                    warm.tuple_set(&atom.predicate).expect("variant predicate");
                }
            }
            Arc::new(ProfileCache::snapshot(&warm))
        };
        let session_counts: &[usize] = if n < 10_000 { &[100, 400] } else { &[100] };
        for &sessions in session_counts {
            let mix = serving::zipf_session_mix(&profiles, sessions, 10, 1.1, 42);
            let unbatched_total = serving::serve_unbatched_sessions(&fx.db, &zipf_cache, &mix, 4);
            let (batched_total, stats) =
                serving::serve_batched_sessions(&fx.db, &zipf_cache, &mix, Parallelism::threads(4));
            assert_eq!(
                unbatched_total, batched_total,
                "batched and unbatched serving must agree before timing"
            );
            batched.push(BatchedServingRow {
                papers: n,
                sessions,
                profiles: profiles.len(),
                groups: stats.groups,
                shared: stats.shared,
                unbatched_ns: measure(|| {
                    serving::serve_unbatched_sessions(&fx.db, &zipf_cache, &mix, 4)
                }),
                batched_ns: measure(|| {
                    serving::serve_batched_sessions(
                        &fx.db,
                        &zipf_cache,
                        &mix,
                        Parallelism::threads(4),
                    )
                    .0
                }),
            });
        }

        // PR 10: the graph-derived workload family — corpus into the
        // property graph, co-occurrence derivation, a DSL profile naming
        // the derived atoms, and PEPS top-k over them. Non-headline
        // (`stage` field, no `name`), so the guard never sees it.
        {
            use dblp_workload::graph::PaperGraph;
            let (build_ns, mut pg) =
                time_once(|| PaperGraph::build(&fx.dataset).expect("corpus loads into the graph"));
            graph_rows.push(GraphWorkloadRow {
                papers: n,
                stage: "build_graph",
                ns: build_ns,
                detail: format!(
                    "{} nodes, {} edges",
                    pg.graph.node_count(),
                    pg.graph.edge_count()
                ),
            });
            let (derive_ns, (co_report, venue_report)) =
                time_once(|| pg.derive_preference_edges(4).expect("derivation succeeds"));
            graph_rows.push(GraphWorkloadRow {
                papers: n,
                stage: "derive_edges",
                ns: derive_ns,
                detail: format!(
                    "{} coauthor + {} venue pairs",
                    co_report.pairs, venue_report.pairs
                ),
            });
            let catalog = pg.derived_catalog(&fx.dataset);
            let author = fx
                .dataset
                .authors
                .iter()
                .max_by_key(|a| pg.coauthor_aids(a.aid).len())
                .expect("corpus has authors");
            let venue = fx
                .dataset
                .venues()
                .into_iter()
                .map(String::from)
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
            let compile_ns = measure(|| {
                parse_profile(&source)
                    .expect("bench profile parses")
                    .compile(UserId(999), &catalog)
                    .expect("bench profile compiles")
                    .atoms()
                    .expect("atoms build")
                    .len()
            });
            let g_atoms = parse_profile(&source)
                .expect("bench profile parses")
                .compile(UserId(999), &catalog)
                .expect("bench profile compiles")
                .atoms()
                .expect("atoms build");
            graph_rows.push(GraphWorkloadRow {
                papers: n,
                stage: "dsl_compile",
                ns: compile_ns,
                detail: format!("{} positive atoms", g_atoms.len()),
            });
            let g_exec = fx.executor();
            let g_pairs =
                PairwiseCache::build(&g_atoms, &g_exec).expect("pairwise over derived atoms");
            let g_peps = Peps::new(&g_atoms, &g_exec, &g_pairs, PepsVariant::Complete);
            let topk_ns = measure(|| g_peps.top_k(10).expect("top-k over derived atoms").len());
            graph_rows.push(GraphWorkloadRow {
                papers: n,
                stage: "graph_top_k",
                ns: topk_ns,
                detail: "k=10".to_owned(),
            });
        }

        // PR 8: multi-core scaling curves (only with --scaling, and
        // only when the host actually has cores to scale over). Three
        // phases per thread count: the cost-weighted work-stealing
        // pairwise build, PEPS top-k with work-stealing rounds, and
        // batched Zipf serving through the scheduler. Results are
        // byte-identical at every count (tests/parallel_equivalence.rs
        // pins this), so the curves measure pure scheduling.
        if measure_scaling {
            // Each phase is timed with the median harness, then run
            // once more with the cumulative steal counters drained so
            // the row carries the per-run work-stealing profile.
            let scaling_mix = serving::zipf_session_mix(&profiles, 100, 10, 1.1, 42);
            for threads in SCALING_THREADS {
                let ns = measure(|| {
                    PairwiseCache::build_with(&atoms, &exec, Parallelism::threads(threads))
                        .unwrap()
                        .applicable_count()
                });
                let _ = take_cumulative_stats();
                PairwiseCache::build_with(&atoms, &exec, Parallelism::threads(threads))
                    .unwrap()
                    .applicable_count();
                let (tasks, steals, idle_probes) = steal_totals();
                scaling.push(ScalingRow {
                    phase: "pairwise_build",
                    papers: n,
                    threads,
                    ns,
                    tasks,
                    steals,
                    idle_probes,
                });
                exec.set_parallelism(Parallelism::threads(threads));
                let ns = measure(|| peps.top_k(100).unwrap().len());
                let _ = take_cumulative_stats();
                peps.top_k(100).unwrap();
                let (tasks, steals, idle_probes) = steal_totals();
                scaling.push(ScalingRow {
                    phase: "peps_top_k",
                    papers: n,
                    threads,
                    ns,
                    tasks,
                    steals,
                    idle_probes,
                });
                exec.set_parallelism(Parallelism::Sequential);
                let ns = measure(|| {
                    serving::serve_batched_sessions(
                        &fx.db,
                        &zipf_cache,
                        &scaling_mix,
                        Parallelism::threads(threads),
                    )
                    .0
                });
                let _ = take_cumulative_stats();
                serving::serve_batched_sessions(
                    &fx.db,
                    &zipf_cache,
                    &scaling_mix,
                    Parallelism::threads(threads),
                );
                let (tasks, steals, idle_probes) = steal_totals();
                scaling.push(ScalingRow {
                    phase: "batched_serving",
                    papers: n,
                    threads,
                    ns,
                    tasks,
                    steals,
                    idle_probes,
                });
            }
        }

        // Operand picks: densest pair (bitmap containers) and sparsest
        // non-empty pair (array containers).
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
            eprintln!(
                "  profile too small for a distinct sparse pair; skipping set_algebra_sparse"
            );
        }
        for (section, i, j) in regimes {
            let (pa, pb) = (&atoms[i].predicate, &atoms[j].predicate);
            let (aa, ab) = (exec.tuple_set(pa).unwrap(), exec.tuple_set(pb).unwrap());
            let (ba, bb) = (bitset.tuple_set(pa).unwrap(), bitset.tuple_set(pb).unwrap());
            let (ha, hb) = (
                hashset.tuple_set(pa).unwrap(),
                hashset.tuple_set(pb).unwrap(),
            );
            eprintln!(
                "  {section}: operand sets of {} and {} tuples ({} / {} containers)",
                aa.count(),
                ab.count(),
                aa.container(),
                ab.container(),
            );
            for (set_name, a_set, b_set) in [("a", &aa, &ba), ("b", &ab, &bb)] {
                mem.push(MemRow {
                    papers: n,
                    name: format!("{section}/{set_name}"),
                    container: a_set.container(),
                    cardinality: a_set.count(),
                    adaptive_bytes: a_set.heap_bytes(),
                    bitset_bytes: b_set.heap_bytes(),
                });
            }

            rows.push(Row {
                section,
                name: "and_count".to_owned(),
                papers: n,
                adaptive_ns: measure(|| aa.and_count(&ab)),
                bitset_ns: measure(|| ba.and_count(&bb)),
                hashset_ns: measure(|| ha.iter().filter(|v| hb.contains(*v)).count()),
            });
            rows.push(Row {
                section,
                name: "or".to_owned(),
                papers: n,
                adaptive_ns: measure(|| aa.or(&ab).count()),
                bitset_ns: measure(|| ba.or(&bb).count()),
                hashset_ns: measure(|| ha.union(&hb).count()),
            });
            rows.push(Row {
                section,
                name: "and_not".to_owned(),
                papers: n,
                adaptive_ns: measure(|| aa.and_not(&ab).count()),
                bitset_ns: measure(|| ba.and_not(&bb).count()),
                hashset_ns: measure(|| ha.difference(&hb).count()),
            });
        }
    }

    // PR 9: the million-paper gate. Streams the corpus straight into
    // columnar segments (`load_streamed` — no materialised dataset on
    // the way in), warms a fixed synthetic profile (preference
    // extraction needs a materialised dataset, which is exactly what
    // streaming avoids), and records single-shot end-to-end timings
    // for each serving phase at scale.
    if bench_1m {
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
        let paper_rows = db.table("dblp").expect("dblp loaded").len();
        let link_rows = db.table("dblp_author").expect("links loaded").len();
        storage_million.push(StorageMillionRow {
            papers: paper_rows,
            phase: "load_streamed",
            ns: build_ns,
            detail: format!("paper_rows={paper_rows} link_rows={link_rows}"),
        });

        let atoms = sparse_profile();
        let predicates: Vec<&relstore::Predicate> = atoms.iter().map(|a| &a.predicate).collect();
        let (warm_ns, cache) = time_once(|| {
            ProfileCache::warm(&db, BaseQuery::dblp(), predicates.clone())
                .expect("million-paper warm succeeds")
        });
        storage_million.push(StorageMillionRow {
            papers: paper_rows,
            phase: "profile_warm",
            ns: warm_ns,
            detail: format!("sets={}", cache.len()),
        });

        let cache = Arc::new(cache);
        let session = Executor::with_cache(&db, Arc::clone(&cache)).expect("cached executor");
        let (pair_ns, pairs) =
            time_once(|| PairwiseCache::build(&atoms, &session).expect("pairwise build succeeds"));
        storage_million.push(StorageMillionRow {
            papers: paper_rows,
            phase: "pairwise_build",
            ns: pair_ns,
            detail: format!("applicable={}", pairs.applicable_count()),
        });

        let peps = Peps::new(&atoms, &session, &pairs, PepsVariant::Complete);
        let (topk_ns, top) = time_once(|| peps.top_k(10).expect("top-k succeeds"));
        storage_million.push(StorageMillionRow {
            papers: paper_rows,
            phase: "peps_top_k_k10",
            ns: topk_ns,
            detail: format!("returned={}", top.len()),
        });

        // Snapshot at scale: save + load once each; the re-warm
        // comparison is the single-shot warm measured above over the
        // same corpus and predicates.
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
        storage_snaps.push(StorageSnapRow {
            papers: paper_rows,
            sets: loaded.0.len(),
            snapshot_bytes,
            save_ns,
            load_ns,
            rewarm_ns: warm_ns,
        });

        let scan_q = relstore::SelectQuery::from("dblp").filter(
            relstore::parse_predicate("dblp.year>=2005 OR dblp.year<1995")
                .expect("static predicate parses"),
        );
        let (columnar_ns, fast) =
            time_once(|| scan_q.distinct_row_set(&db).expect("columnar scan"));
        let (rowwise_ns, slow) =
            time_once(|| scan_q.distinct_row_set_rowwise(&db).expect("rowwise scan"));
        assert_eq!(fast, slow, "columnar and rowwise plans must agree at 1M");
        storage_scans.push(StorageScanRow {
            papers: paper_rows,
            name: "scan_or_filter",
            rows_out: fast.len(),
            columnar_ns,
            rowwise_ns,
        });
    }

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"bench\": \"{}\",\n  \"sizes\": {:?},\n  \"available_parallelism\": {cores},\n  \"cold\": [\n    {extra}\n  ],\n  \"results\": [\n",
        out_path.trim_end_matches(".json"),
        sizes
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"section\":\"{}\",\"name\":\"{}\",\"papers\":{},\"adaptive_ns\":{},\"bitset_ns\":{},\"hashset_ns\":{},\"vs_bitset\":{:.2},\"vs_hashset\":{:.2}}}{}",
            r.section,
            r.name,
            r.papers,
            r.adaptive_ns,
            r.bitset_ns,
            r.hashset_ns,
            r.vs_bitset(),
            r.vs_hashset(),
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n  \"parallel\": [\n");
    for (i, p) in parallel.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"section\":\"{}\",\"papers\":{},\"threads\":{},\"ns\":{}}}{}",
            p.section,
            p.papers,
            p.threads,
            p.ns,
            if i + 1 == parallel.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n  \"containers\": [\n");
    for (i, c) in containers.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"papers\":{},\"container\":\"{}\",\"sets\":{},\"adaptive_bytes\":{},\"bitset_bytes\":{}}}{}",
            c.papers,
            c.container,
            c.sets,
            c.adaptive_bytes,
            c.bitset_bytes,
            if i + 1 == containers.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n  \"multi_session\": [\n");
    for (i, m) in multi.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"papers\":{},\"sessions\":{},\"cold_ns\":{},\"shared_ns\":{},\"warm_build_ns\":{},\"speedup\":{:.2}}}{}",
            m.papers,
            m.sessions,
            m.cold_ns,
            m.shared_ns,
            m.warm_build_ns,
            m.cold_ns as f64 / m.shared_ns.max(1) as f64,
            if i + 1 == multi.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n  \"live_ingest\": [\n");
    for (i, l) in live.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"papers\":{},\"delta_rows\":{},\"changed_predicates\":{},\"ingest_ns\":{},\"rewarm_ns\":{},\"speedup\":{:.2}}}{}",
            l.papers,
            l.delta_rows,
            l.changed_predicates,
            l.ingest_ns,
            l.rewarm_ns,
            l.rewarm_ns as f64 / l.ingest_ns.max(1) as f64,
            if i + 1 == live.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n  \"batched_serving\": [\n");
    for (i, b) in batched.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"papers\":{},\"sessions\":{},\"profiles\":{},\"groups\":{},\"shared\":{},\"unbatched_ns\":{},\"batched_ns\":{},\"speedup\":{:.2}}}{}",
            b.papers,
            b.sessions,
            b.profiles,
            b.groups,
            b.shared,
            b.unbatched_ns,
            b.batched_ns,
            b.unbatched_ns as f64 / b.batched_ns.max(1) as f64,
            if i + 1 == batched.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n  \"graph_workload\": [\n");
    for (i, g) in graph_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"section\":\"graph_workload\",\"papers\":{},\"stage\":\"{}\",\"ns\":{},\"detail\":\"{}\"}}{}",
            g.papers,
            g.stage,
            g.ns,
            g.detail,
            if i + 1 == graph_rows.len() { "" } else { "," },
        );
    }
    // PR 9 storage rows: three shapes share the section, told apart by
    // their `kind` field. Custom field names (no `name`/`adaptive_ns`)
    // keep every row out of the regression guard and the delta printer.
    json.push_str("  ],\n  \"storage_1m\": [\n");
    let storage_total = storage_scans.len() + storage_snaps.len() + storage_million.len();
    let mut storage_emitted = 0usize;
    let storage_sep = |emitted: &mut usize| {
        *emitted += 1;
        if *emitted == storage_total {
            ""
        } else {
            ","
        }
    };
    for s in &storage_scans {
        let _ = writeln!(
            json,
            "    {{\"section\":\"storage_1m\",\"kind\":\"distinct_row_set\",\"query\":\"{}\",\"papers\":{},\"rows_out\":{},\"columnar_ns\":{},\"rowwise_ns\":{},\"speedup\":{:.2}}}{}",
            s.name,
            s.papers,
            s.rows_out,
            s.columnar_ns,
            s.rowwise_ns,
            s.rowwise_ns as f64 / s.columnar_ns.max(1) as f64,
            storage_sep(&mut storage_emitted),
        );
    }
    for s in &storage_snaps {
        let _ = writeln!(
            json,
            "    {{\"section\":\"storage_1m\",\"kind\":\"snapshot\",\"papers\":{},\"sets\":{},\"snapshot_bytes\":{},\"save_ns\":{},\"load_ns\":{},\"rewarm_ns\":{},\"speedup\":{:.2}}}{}",
            s.papers,
            s.sets,
            s.snapshot_bytes,
            s.save_ns,
            s.load_ns,
            s.rewarm_ns,
            s.rewarm_ns as f64 / s.load_ns.max(1) as f64,
            storage_sep(&mut storage_emitted),
        );
    }
    for s in &storage_million {
        let _ = writeln!(
            json,
            "    {{\"section\":\"storage_1m\",\"kind\":\"million_gate\",\"phase\":\"{}\",\"papers\":{},\"ns\":{},\"detail\":\"{}\"}}{}",
            s.phase,
            s.papers,
            s.ns,
            s.detail,
            storage_sep(&mut storage_emitted),
        );
    }
    // The scaling section is always present so downstream parsers see a
    // stable schema: either measured rows or an explicit skip marker
    // (1-core hosts would measure spawn overhead, not scaling).
    json.push_str("  ],\n  \"scaling\": ");
    if measure_scaling {
        let _ = writeln!(json, "{{\"threads\": {SCALING_THREADS:?}, \"rows\": [");
        for (i, s) in scaling.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"section\":\"scaling\",\"phase\":\"{}\",\"papers\":{},\"threads\":{},\"ns\":{},\"speedup_vs_1\":{:.2},\"tasks\":{},\"steals\":{},\"idle_probes\":{}}}{}",
                s.phase,
                s.papers,
                s.threads,
                s.ns,
                scaling_speedup(&scaling, s),
                s.tasks,
                s.steals,
                s.idle_probes,
                if i + 1 == scaling.len() { "" } else { "," },
            );
        }
        json.push_str("  ]},\n  \"memory\": [\n");
    } else {
        let reason = if scaling_requested {
            "available_parallelism=1"
        } else {
            "not_requested"
        };
        let _ = write!(json, "{{\"skipped\": \"{reason}\"}},\n  \"memory\": [\n");
    }
    for (i, m) in mem.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"papers\":{},\"set\":\"{}\",\"container\":\"{}\",\"cardinality\":{},\"adaptive_bytes\":{},\"bitset_bytes\":{}}}{}",
            m.papers,
            m.name,
            m.container,
            m.cardinality,
            m.adaptive_bytes,
            m.bitset_bytes,
            if i + 1 == mem.len() { "" } else { "," },
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    for r in &rows {
        println!(
            "{:>18} {:<14} n={:<6} adaptive {:>10} ns  bitset {:>10} ns  hashset {:>12} ns  vs-bitset {:>6.1}x  vs-hashset {:>7.1}x",
            r.section,
            r.name,
            r.papers,
            r.adaptive_ns,
            r.bitset_ns,
            r.hashset_ns,
            r.vs_bitset(),
            r.vs_hashset(),
        );
    }
    for p in &parallel {
        println!(
            "{:>22} threads={:<7} n={:<6} {:>10} ns  ({cores} cores available)",
            p.section, p.threads, p.papers, p.ns
        );
    }
    for c in &containers {
        println!(
            "{:>18} {:<8} n={:<6} sets={:<4} adaptive {:>9} B  bitset {:>9} B",
            "containers", c.container, c.papers, c.sets, c.adaptive_bytes, c.bitset_bytes
        );
    }
    for m in &multi {
        println!(
            "{:>18} {} sessions    n={:<6} cold {:>12} ns  shared {:>12} ns  ({:.1}x, warm build {} ns)",
            "multi_session",
            m.sessions,
            m.papers,
            m.cold_ns,
            m.shared_ns,
            m.cold_ns as f64 / m.shared_ns.max(1) as f64,
            m.warm_build_ns,
        );
    }
    for l in &live {
        println!(
            "{:>18} delta={:<6} n={:<6} changed={:<4} ingest {:>12} ns  full re-warm {:>12} ns  ({:.1}x)",
            "live_ingest",
            l.delta_rows,
            l.papers,
            l.changed_predicates,
            l.ingest_ns,
            l.rewarm_ns,
            l.rewarm_ns as f64 / l.ingest_ns.max(1) as f64,
        );
    }
    for b in &batched {
        println!(
            "{:>18} {} sessions  n={:<6} {} profiles → {} groups ({} shared)  unbatched {:>12} ns  batched {:>12} ns  ({:.1}x)",
            "batched_serving",
            b.sessions,
            b.papers,
            b.profiles,
            b.groups,
            b.shared,
            b.unbatched_ns,
            b.batched_ns,
            b.unbatched_ns as f64 / b.batched_ns.max(1) as f64,
        );
    }
    for g in &graph_rows {
        println!(
            "{:>18} {:<16} n={:<8} {:>12} ns  ({})",
            "graph_workload", g.stage, g.papers, g.ns, g.detail,
        );
    }
    for s in &storage_scans {
        println!(
            "{:>18} {:<16} n={:<8} |out|={:<7} columnar {:>12} ns  rowwise {:>12} ns  ({:.1}x)",
            "storage_1m",
            s.name,
            s.papers,
            s.rows_out,
            s.columnar_ns,
            s.rowwise_ns,
            s.rowwise_ns as f64 / s.columnar_ns.max(1) as f64,
        );
    }
    for s in &storage_snaps {
        println!(
            "{:>18} {:<16} n={:<8} sets={:<4} {:>9} B  save {:>11} ns  load {:>11} ns  re-warm {:>12} ns  ({:.1}x)",
            "storage_1m",
            "snapshot",
            s.papers,
            s.sets,
            s.snapshot_bytes,
            s.save_ns,
            s.load_ns,
            s.rewarm_ns,
            s.rewarm_ns as f64 / s.load_ns.max(1) as f64,
        );
    }
    for s in &storage_million {
        println!(
            "{:>18} {:<16} n={:<8} {:>12} ns  ({})",
            "storage_1m", s.phase, s.papers, s.ns, s.detail,
        );
    }
    if measure_scaling {
        for s in &scaling {
            println!(
                "{:>18} {:<16} threads={:<3} n={:<6} {:>12} ns  ({:.2}x vs 1 worker, {cores} cores; tasks={} steals={} probes={})",
                "scaling",
                s.phase,
                s.threads,
                s.papers,
                s.ns,
                scaling_speedup(&scaling, s),
                s.tasks,
                s.steals,
                s.idle_probes,
            );
        }
    } else if scaling_requested {
        println!(
            "{:>18} skipped: available_parallelism=1 (spawn overhead is not a scaling curve)",
            "scaling"
        );
    }
    for m in &mem {
        println!(
            "{:>18} {:<22} n={:<6} |set|={:<6} [{:<6}] adaptive {:>8} B  bitset {:>8} B",
            "memory",
            m.name,
            m.papers,
            m.cardinality,
            m.container,
            m.adaptive_bytes,
            m.bitset_bytes
        );
    }
    eprintln!("wrote {out_path}");

    let ingest_ok = ingest_guard(&live);
    let headline_ok = baseline_guard(&out_path, baseline_path, &rows);
    if !(ingest_ok && headline_ok) {
        std::process::exit(1);
    }
}

/// Delta ingest must stay faster than the cold re-warm it replaces:
/// fails when any `live_ingest` row has `ingest_ns ≥ rewarm_ns`, so the
/// ratio cannot silently invert.
fn ingest_guard(live: &[LiveIngestRow]) -> bool {
    println!("\n== ingest guard (live_ingest: ingest must beat a full re-warm) ==");
    let mut ok = true;
    for l in live {
        let pass = l.ingest_ns < l.rewarm_ns;
        println!(
            "  {} n={:<6} ingest {:>12} ns  full re-warm {:>12} ns  ({:.2}x)",
            if pass { "ok  " } else { "FAIL" },
            l.papers,
            l.ingest_ns,
            l.rewarm_ns,
            l.rewarm_ns as f64 / l.ingest_ns.max(1) as f64,
        );
        ok &= pass;
    }
    ok
}

/// Prints the delta against the baseline report and runs the headline
/// regression guard; `true` when it passes or there is no baseline.
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
    let Ok(contents) = std::fs::read_to_string(&baseline_path) else {
        println!("\n(no {baseline_path} found — skipping delta and regression guard)");
        return true;
    };
    let baseline_rows: Vec<BaselineRow> = contents.lines().filter_map(parse_result_row).collect();
    print_delta(&baseline_path, &baseline_rows, rows);
    regression_guard(&baseline_path, &baseline_rows, rows)
}

/// Speedup of a scaling row over the 1-worker run of the same phase and
/// corpus size.
fn scaling_speedup(rows: &[ScalingRow], row: &ScalingRow) -> f64 {
    rows.iter()
        .find(|r| r.phase == row.phase && r.papers == row.papers && r.threads == 1)
        .map_or(1.0, |base| base.ns as f64 / row.ns.max(1) as f64)
}

/// One parsed baseline result row: `(section, name, papers, engine_ns,
/// control_ns)`. `engine_ns` is the baseline's engine-under-test time
/// (`adaptive_ns`, or `bitset_ns` for PR 1-era files); `control_ns` is
/// the frozen PR 1 bitset engine's time in that same baseline run, when
/// the file recorded both.
type BaselineRow = (String, String, usize, u128, Option<u128>);

/// Prints a side-by-side delta of this run against the baseline report:
/// for every `(section, name, papers)` row the baseline measured,
/// compare its engine time with today's adaptive engine.
fn print_delta(baseline_path: &str, baseline_rows: &[BaselineRow], rows: &[Row]) {
    println!("\n== delta vs {baseline_path} (baseline engine → this run's adaptive engine) ==");
    let mut matched = 0usize;
    for (section, name, papers, base_ns, _) in baseline_rows {
        let Some(row) = rows
            .iter()
            .find(|r| r.section == section && r.name == *name && r.papers == *papers)
        else {
            continue;
        };
        matched += 1;
        let ratio = *base_ns as f64 / row.adaptive_ns.max(1) as f64;
        println!(
            "{:>16} {:<14} n={:<6} base {:>12} ns → now {:>12} ns  ({:>5.2}x {})",
            section,
            name,
            papers,
            base_ns,
            row.adaptive_ns,
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
fn regression_guard(baseline_path: &str, baseline_rows: &[BaselineRow], rows: &[Row]) -> bool {
    println!(
        "\n== regression guard vs {baseline_path} (headline rows, {:.0}% budget, \
         control-normalised where possible) ==",
        (GUARD_MAX_REGRESSION - 1.0) * 100.0
    );
    // A partial run (BENCH_SIZES override) only guards the sizes it
    // measured; within a measured size, every baseline headline row
    // must match.
    let measured_sizes: std::collections::HashSet<usize> = rows.iter().map(|r| r.papers).collect();
    let mut checked = 0usize;
    let mut ok = true;
    for (section, name, papers, base_ns, base_control_ns) in baseline_rows {
        if !HEADLINE_SECTIONS.contains(&section.as_str()) || !measured_sizes.contains(papers) {
            continue;
        }
        checked += 1;
        let Some(row) = rows
            .iter()
            .find(|r| r.section == section && r.name == *name && r.papers == *papers)
        else {
            println!(
                "  MISS {:<16} {:<14} n={:<6} baseline row has no counterpart in this run",
                section, name, papers
            );
            ok = false;
            continue;
        };
        let raw = row.adaptive_ns.max(1) as f64 / (*base_ns).max(1) as f64;
        let (ratio, how) = match base_control_ns {
            Some(control) if *control > 0 && row.bitset_ns > 0 => {
                let current = row.adaptive_ns.max(1) as f64 / row.bitset_ns as f64;
                let baseline = (*base_ns).max(1) as f64 / *control as f64;
                (current / baseline, "vs-control")
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
            row.adaptive_ns,
            base_ns,
            ratio,
            raw,
        );
        ok &= !breached;
    }
    if checked == 0 {
        println!("  (baseline has no headline rows — nothing to guard)");
    } else if ok {
        println!("  regression guard passed ({checked} rows)");
    } else {
        eprintln!("regression guard FAILED against {baseline_path}");
    }
    ok
}

/// Extracts one [`BaselineRow`] from a baseline result line — a flat
/// JSON object per line, parsed without a JSON dependency. The engine
/// time is `adaptive_ns` (PR 2+ reports), falling back to `bitset_ns`
/// for PR 1-era files; the control time is `bitset_ns` only when the
/// line records it *alongside* `adaptive_ns` (in a PR 1 file `bitset_ns`
/// *is* the engine, not a control).
fn parse_result_row(line: &str) -> Option<BaselineRow> {
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
