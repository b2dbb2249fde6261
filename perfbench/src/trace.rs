//! The traced run: per-layer metrics. It serves the untraced run's `.low`
//! steps again over the socket, then replays the same requests in-process
//! in batches of the mean size the server's `Stats` reply reported, timing
//! each call into a layer's public functions from this file. Every
//! replayed batch is evaluated twice — once through `BatchScheduler::run`
//! and once composed from `tuple_set` → `PairwiseCache::build` →
//! `Peps::top_k_multi` — and the two must agree byte for byte.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use hypre_core::algo::peps::{Peps, PepsVariant, RankedTuple};
use hypre_core::combine::PrefAtom;
use hypre_core::exec::{BaseQuery, EpochCache, Executor, PairwiseCache, ProfileCache};
use hypre_core::sched::{BatchRequest, BatchScheduler};
use hypre_core::serve::wire::{self, Request, Response};
use relstore::{Database, Predicate};

use perfbench::loadgen::Outcome;
use perfbench::params::RESTART_REPEATS;
use perfbench::stats::{mean, median, percentile};
use perfbench::workload;

use crate::check::Checker;
use crate::env::{self, Inputs};
use crate::report::{Metric, RunOut, Tally};
use crate::run::{self, Ingest};

/// Per-layer timings gathered by the replay.
#[derive(Default)]
struct Replay {
    decode_us: Vec<f64>,
    encode_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    run_us: Vec<f64>,
    groups: Vec<f64>,
    shared: usize,
    requests: usize,
    resolve_us: Vec<f64>,
    hits: usize,
    queries: usize,
    build_us: Vec<f64>,
    peps_us: Vec<f64>,
    composed_us: f64,
    /// Per replayed request: the scheduler time of its batch (ms).
    engine_ms: Vec<f64>,
}

/// Replays `requests` through the scheduler and through the composed
/// phases, batch by batch; returns the timings.
fn replay(
    db: &Database,
    cache: &Arc<ProfileCache>,
    requests: &[&Request],
    batch: usize,
    tally: &mut Tally,
) -> Replay {
    let mut r = Replay::default();
    let scheduler = BatchScheduler::sequential();
    for chunk in requests.chunks(batch) {
        let mut batch_reqs = Vec::with_capacity(chunk.len());
        for req in chunk {
            let payload = wire::encode_request(req);
            let t = Instant::now();
            let decoded = wire::decode_request(&payload).expect("requests decode");
            r.decode_us.push(t.elapsed().as_secs_f64() * 1e6);
            let Request::TopK { k, atoms, .. } = decoded else {
                unreachable!("only Top-K requests are replayed");
            };
            batch_reqs.push(BatchRequest::new(
                workload::admitted_profile(&atoms),
                k as usize,
            ));
        }

        // The two evaluations alternate which goes first, so neither is
        // always the one that warms the processor caches.
        let compose_first = r.run_us.len() % 2 == 1;
        let mut phased = None;
        if compose_first {
            phased = Some(timed_composed(db, cache, &batch_reqs, &mut r));
        }
        let t = Instant::now();
        let outcome = scheduler.run(db, cache, &batch_reqs).expect("batch runs");
        let run_us = t.elapsed().as_secs_f64() * 1e6;
        let phased = phased.unwrap_or_else(|| timed_composed(db, cache, &batch_reqs, &mut r));
        r.run_us.push(run_us);
        r.groups.push(outcome.stats.groups as f64);
        r.shared += outcome.stats.shared;
        r.requests += outcome.stats.requests;
        r.engine_ms
            .extend(std::iter::repeat_n(run_us / 1e3, chunk.len()));

        for (served, mine) in outcome.results.into_iter().zip(phased) {
            let served = served.expect("replayed request answers");
            let t = Instant::now();
            let bytes = wire::encode_response(&Response::TopK(served));
            r.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            r.reply_bytes.push(bytes.len() as f64);
            tally.checked += 1;
            if wire::encode_response(&Response::TopK(mine)) != bytes {
                tally.mismatches += 1;
                eprintln!("mismatch: composed phases differ from BatchScheduler::run");
            }
        }
    }
    r
}

/// One scheduler group: atoms, distinct ks ascending, `(request, k)`
/// members.
type Group = (Vec<PrefAtom>, Vec<usize>, Vec<(usize, usize)>);

/// [`composed`], timed as a whole into `r.composed_us`.
fn timed_composed(
    db: &Database,
    cache: &Arc<ProfileCache>,
    batch: &[BatchRequest],
    r: &mut Replay,
) -> Vec<Vec<RankedTuple>> {
    let t = Instant::now();
    let out = composed(db, cache, batch, r);
    r.composed_us += t.elapsed().as_secs_f64() * 1e6;
    out
}

/// One batch evaluated phase by phase, grouped exactly as the scheduler
/// groups: by tuple-set identity and intensity bits.
fn composed(
    db: &Database,
    cache: &Arc<ProfileCache>,
    batch: &[BatchRequest],
    r: &mut Replay,
) -> Vec<Vec<RankedTuple>> {
    let exec = Executor::with_cache_pinned(db, Arc::clone(cache)).expect("session opens");
    let mut index: HashMap<Vec<(usize, u64)>, usize> = HashMap::new();
    // Per group: its atoms, its distinct ks (ascending) and its members.
    let mut groups: Vec<Group> = Vec::new();
    for (i, req) in batch.iter().enumerate() {
        let mut key = Vec::with_capacity(req.atoms.len());
        for atom in &req.atoms {
            key.push((resolve(&exec, &atom.predicate, r), atom.intensity.to_bits()));
        }
        let g = *index.entry(key).or_insert_with(|| {
            groups.push((req.atoms.clone(), Vec::new(), Vec::new()));
            groups.len() - 1
        });
        if let Err(slot) = groups[g].1.binary_search(&req.k) {
            groups[g].1.insert(slot, req.k);
        }
        groups[g].2.push((i, req.k));
    }
    let mut out = vec![Vec::new(); batch.len()];
    for (atoms, ks, members) in &groups {
        let t = Instant::now();
        let pairs = PairwiseCache::build(atoms, &exec).expect("pairwise builds");
        r.build_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let per_k = Peps::new(atoms, &exec, &pairs, PepsVariant::Complete)
            .top_k_multi(ks)
            .expect("PEPS answers");
        r.peps_us.push(t.elapsed().as_secs_f64() * 1e6);
        for &(i, k) in members {
            let slot = ks.binary_search(&k).expect("k was registered");
            out[i] = per_k[slot].clone();
        }
    }
    r.hits += exec.shared_hits() + exec.cache_hits();
    r.queries += exec.queries_run();
    out
}

/// One timed atom resolution; returns the set's identity.
fn resolve(exec: &Executor<'_>, predicate: &Predicate, r: &mut Replay) -> usize {
    let t = Instant::now();
    let set = exec.tuple_set(predicate).expect("atom resolves");
    r.resolve_us.push(t.elapsed().as_secs_f64() * 1e6);
    Arc::as_ptr(&set) as usize
}

/// Ingest-layer numbers: `(seconds per delta, ms per warmed set, changed
/// sets, new tuples, retired, evicted)`.
fn ingest_metrics(ingests: &[Ingest], epochs: &EpochCache) -> Vec<Metric> {
    let secs: Vec<f64> = ingests.iter().map(|i| i.end - i.start).collect();
    let per_set: Vec<f64> = ingests
        .iter()
        .map(|i| (i.end - i.start) * 1e3 / i.warmed_sets.max(1) as f64)
        .collect();
    let n = ingests.len();
    vec![
        Metric::new("ingest.s_per_delta", median(&secs), "s", n),
        Metric::new("ingest.ms_per_warmed_set", median(&per_set), "ms", n),
        Metric::new(
            "ingest.changed_sets",
            ingests
                .iter()
                .map(|i| i.report.changed.len())
                .sum::<usize>() as f64,
            "count",
            n,
        ),
        Metric::new(
            "ingest.new_tuples",
            ingests.iter().map(|i| i.report.new_tuples).sum::<usize>() as f64,
            "count",
            n,
        ),
        Metric::new("epoch.retired", epochs.retired_count() as f64, "count", 1),
        Metric::new("epoch.evicted", epochs.evicted_count() as f64, "count", 1),
    ]
}

/// Ingests each grown corpus into a fresh cache of the workload's warmed
/// profiles over the base corpus — the ingest cost a static workload's
/// cache would pay.
fn ingest_probe(inputs: &Inputs, preds: &[&Predicate]) -> (Vec<Ingest>, EpochCache) {
    let cache = ProfileCache::warm(&inputs.base_db, BaseQuery::dblp(), preds.iter().copied())
        .expect("warm-up succeeds");
    let epochs = EpochCache::new(cache);
    let start = Instant::now();
    let ingests = inputs
        .grown
        .iter()
        .map(|db| {
            let warmed_sets = epochs.current().cache().len();
            let t = start.elapsed().as_secs_f64();
            let report = epochs.ingest(db, 0).expect("append-only delta ingests");
            Ingest {
                start: t,
                end: start.elapsed().as_secs_f64(),
                warmed_sets,
                report,
            }
        })
        .collect();
    (ingests, epochs)
}

/// The traced run.
pub fn traced(inputs: &Inputs, seconds: f64, tally: &mut Tally) -> RunOut {
    let p = inputs.params;
    let mut stack = env::start(inputs);
    tally.attempted += 1;
    let setup = stack.times;
    let mut log = Vec::new();

    let (lows, _, ingests, stats) =
        run::fixed_rates(inputs, &mut stack, &mut HashSet::new(), seconds, false);
    for low in &lows {
        tally.attempted += low.step.sent() as u64;
        tally.failed += low.step.failed() as u64;
        log.push(run::step_line(low));
    }
    let batches = stats.batches.max(1);
    let batch_mean = stats.requests as f64 / batches as f64;

    let served_db = Arc::clone(&stack.served_db);
    let mut base = Checker::new(&stack.warm_db);
    let mut full = Checker::new(&served_db);
    for (i, low) in lows.iter().enumerate() {
        let ing: &[Ingest] = if i == 0 { &ingests } else { &[] };
        run::check_step(low, ing, &mut base, &mut full, tally);
    }
    let mut select_us = base.select_us.clone();
    select_us.extend(&full.select_us);

    // Replay the answered requests in schedule order.
    let cache = Arc::clone(stack.epochs.current().cache());
    let answered: Vec<(&Request, &Outcome)> = lows
        .iter()
        .flat_map(|l| l.requests.iter().zip(&l.step.outcomes))
        .filter(|(_, o)| o.ok)
        .collect();
    let replayed: Vec<&Request> = answered.iter().map(|(r, _)| *r).collect();
    let batch = (batch_mean.round() as usize).max(1);
    let r = replay(&served_db, &cache, &replayed, batch, tally);
    let residual: Vec<f64> = answered
        .iter()
        .zip(&r.engine_ms)
        .filter_map(|((_, o), e)| o.latency_ms().map(|l| l - e))
        .collect();

    // Ingest: the live step's own ingests, or a probe over the base corpus.
    let preds: Vec<&Predicate> = stack
        .profiles
        .iter()
        .flat_map(|pr| pr.atoms.iter().map(|a| &a.predicate))
        .collect();
    let ingest = if p.live {
        ingest_metrics(&ingests, &stack.epochs)
    } else {
        let (probe, epochs) = ingest_probe(inputs, &preds);
        ingest_metrics(&probe, &epochs)
    };

    // Snapshot save and load of the serving epoch, then restarts from it:
    // load → server up → first answer, checked against a solo answer.
    let path = inputs
        .scratch
        .join(format!("{}-{}-traced.snap", p.name, inputs.seed));
    let (mut save_ms, mut load_ms, mut restart_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..RESTART_REPEATS {
        let t = Instant::now();
        cache.save_to(&path, None).expect("snapshot saves");
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        ProfileCache::load_from(&path, &served_db).expect("snapshot loads");
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let first = workload::requests(&p, &stack.profiles, inputs.seed, 0, 1).remove(0);
    let expected_first = full.expected(&first);
    for _ in 0..RESTART_REPEATS {
        let (ms, reply) = run::restart(&path, &served_db, &wire::encode_request(&first));
        tally.attempted += 1;
        tally.checked += 1;
        if reply != expected_first {
            tally.mismatches += 1;
            eprintln!("mismatch: first answer after restart differs from the solo answer");
        }
        restart_ms.push(ms);
    }
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);

    let resolve_total: f64 = r.resolve_us.iter().sum();
    let build_total: f64 = r.build_us.iter().sum();
    let peps_total: f64 = r.peps_us.iter().sum();
    let run_total: f64 = r.run_us.iter().sum();
    let nreq = r.requests.max(1) as f64;
    let lags: Vec<f64> = lows.iter().flat_map(|l| l.step.send_lags_ms()).collect();
    let sent: usize = lows.iter().map(|l| l.step.sent()).sum();
    let completed: usize = lows.iter().map(|l| l.step.completed()).sum();
    let pct = |v: &[f64], q: f64, what: &str| {
        percentile(v, q).unwrap_or_else(|e| {
            eprintln!("{what}: {e}");
            std::process::exit(1);
        })
    };
    let mut metrics = vec![
        Metric::new(
            "serve.residual_ms.p50",
            pct(&residual, 0.5, "residual"),
            "ms",
            residual.len(),
        ),
        Metric::new(
            "serve.residual_ms.p99",
            pct(&residual, 0.99, "residual"),
            "ms",
            residual.len(),
        ),
        Metric::new(
            "serve.batch_size_mean",
            batch_mean,
            "count",
            batches as usize,
        ),
        Metric::new("serve.overloads", stats.overloads as f64, "count", 1),
        Metric::new(
            "serve.protocol_errors",
            stats.protocol_errors as f64,
            "count",
            1,
        ),
        Metric::new(
            "wire.decode_us",
            mean(&r.decode_us),
            "us",
            r.decode_us.len(),
        ),
        Metric::new(
            "wire.encode_us",
            mean(&r.encode_us),
            "us",
            r.encode_us.len(),
        ),
        Metric::new(
            "wire.reply_bytes",
            mean(&r.reply_bytes),
            "bytes",
            r.reply_bytes.len(),
        ),
        Metric::new("sched.run_us", mean(&r.run_us), "us", r.run_us.len()),
        Metric::new(
            "sched.groups_per_batch",
            mean(&r.groups),
            "count",
            r.groups.len(),
        ),
        Metric::new(
            "sched.share_ratio",
            r.shared as f64 / nreq,
            "ratio",
            r.requests,
        ),
        Metric::new(
            "exec.resolve_us",
            mean(&r.resolve_us),
            "us",
            r.resolve_us.len(),
        ),
        Metric::new(
            "exec.hit_ratio",
            r.hits as f64 / (r.hits + r.queries).max(1) as f64,
            "ratio",
            r.hits + r.queries,
        ),
        Metric::new(
            "relstore.select_us",
            mean(&select_us),
            "us",
            select_us.len(),
        ),
        Metric::new(
            "relstore.queries_per_request",
            r.queries as f64 / nreq,
            "count",
            r.requests,
        ),
        Metric::new(
            "pairwise.build_us",
            mean(&r.build_us),
            "us",
            r.build_us.len(),
        ),
        Metric::new("peps.top_k_us", mean(&r.peps_us), "us", r.peps_us.len()),
    ];
    metrics.extend(ingest);
    metrics.extend([
        Metric::new("snapshot.save_ms", median(&save_ms), "ms", save_ms.len()),
        Metric::new("snapshot.load_ms", median(&load_ms), "ms", load_ms.len()),
        Metric::new("snapshot.bytes", bytes as f64, "bytes", 1),
        Metric::new(
            "snapshot.restart_ms",
            median(&restart_ms),
            "ms",
            restart_ms.len(),
        ),
        Metric::new("relstore.load_s", setup.load, "s", 1),
        Metric::new("graph.load_s", setup.graph, "s", 1),
        Metric::new("exec.warm_s", setup.warm, "s", 1),
        Metric::new("exec.warmed_sets", stack.warmed_sets as f64, "count", 1),
        Metric::new(
            "loadgen.send_lag_p99_ms",
            pct(&lags, 0.99, "send lag"),
            "ms",
            lags.len(),
        ),
        Metric::new("loadgen.sent", sent as f64, "count", lows.len()),
        Metric::new("loadgen.completed", completed as f64, "count", lows.len()),
        Metric::new(
            "trace.unattributed_share",
            (run_total - resolve_total - build_total - peps_total) / run_total.max(1e-9),
            "ratio",
            r.run_us.len(),
        ),
        Metric::new(
            "trace.overhead_share",
            (r.composed_us - run_total) / run_total.max(1e-9),
            "ratio",
            r.run_us.len(),
        ),
    ]);
    let out = RunOut {
        metrics,
        unbounded: Vec::new(),
        log,
        warmed_sets: stack.warmed_sets,
        steps: lows
            .iter()
            .map(|l| (l.label.clone(), l.rate, l.step.sent()))
            .collect(),
    };
    drop(stack);
    out
}
