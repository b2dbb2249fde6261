//! The untraced run: end-to-end metrics only. Set up several times, serve
//! the workload's traffic open-loop at the two pinned rates and up the
//! max-rate ladder, then check the answers.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hypre_core::exec::{DeltaReport, EpochCache, ProfileCache};
use hypre_core::serve::wire::{self, Request};
use hypre_core::serve::Server;
use relstore::Database;

use perfbench::loadgen::{frame, Client, Step};
use perfbench::params::{
    LADDER_BASE_RPS, LADDER_RATIO, LATENCY_LIMIT_MS, MAX_IN_FLIGHT, ROUNDS, SETUP_REPEATS,
    TIMEOUT_S, WINDOW,
};
use perfbench::stats::{median, window_percentiles};
use perfbench::workload;

use crate::check::{keep_mask, Checker};
use crate::env::{self, Inputs, Stack, WireStats};
use crate::report::{Metric, RunOut, Tally};

/// Seconds of low-rate traffic before the first ingest of a live step.
const LIVE_PRE_S: f64 = 1.0;
/// Seconds of traffic after the last ingest returned.
const LIVE_POST_S: f64 = 1.0;
/// Longest a live step may last.
const LIVE_MAX_S: f64 = 120.0;
/// Share of replies checked beyond one per distinct (profile, k).
const CHECK_SHARE: f64 = 0.02;
/// Step ids: each step draws its own requests and arrivals (round `r` of
/// a rate is `STEP_LOW + r` or `STEP_HIGH + r`).
const STEP_LOW: u64 = 10;
const STEP_HIGH: u64 = 50;
const STEP_LADDER: u64 = 100;

/// One served step, with the requests it offered.
pub struct Served {
    /// What the step was called in the output.
    pub label: String,
    /// The offered rate.
    pub rate: f64,
    /// The offered requests.
    pub requests: Vec<Request>,
    /// What happened to each.
    pub step: Step,
}

impl Served {
    /// The p50 and p99 latency (ms) over this step alone.
    pub fn p50_p99(&self) -> Result<(f64, f64), String> {
        p50_p99(std::slice::from_ref(self))
    }

    /// Whether the step met the latency limit with no failures and no
    /// growing backlog: completions kept pace, and no connection reached
    /// the in-flight cap (beyond it the server would refuse requests).
    pub fn meets_limit(&self) -> bool {
        !self.step.throttled
            && self.step.failed() == 0
            && self.step.kept_pace()
            && self.p50_p99().is_ok_and(|(_, p99)| p99 <= LATENCY_LIMIT_MS)
    }
}

/// The p50 and p99 latency (ms) of a rate served in `steps`: medians over
/// every window of [`WINDOW`] requests, refusing a p99 under 1,000 samples.
pub fn p50_p99(steps: &[Served]) -> Result<(f64, f64), String> {
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for s in steps {
        let lat = s.step.latencies_ms();
        p50.extend(window_percentiles(&lat, 0.50, WINDOW)?);
        p99.extend(window_percentiles(&lat, 0.99, WINDOW)?);
    }
    if p50.is_empty() {
        return Err("no step served".into());
    }
    Ok((median(&p50), median(&p99)))
}

/// One ingest made during a live step (times from the step start).
pub struct Ingest {
    /// When `EpochCache::ingest` was called.
    pub start: f64,
    /// When it returned (the new epoch is published).
    pub end: f64,
    /// Tuple sets in the epoch it ingested into.
    pub warmed_sets: usize,
    /// What it absorbed.
    pub report: DeltaReport,
}

/// Offers `count` requests at `rate` (step `id`), keeping a check sample.
/// For a live workload with `ingest` set, the deltas are ingested while
/// the step runs and the step ends [`LIVE_POST_S`] after the last one.
#[allow(clippy::too_many_arguments)]
fn serve_step(
    inputs: &Inputs,
    stack: &mut Stack,
    seen: &mut HashSet<(u64, u32)>,
    label: &str,
    id: u64,
    rate: f64,
    count: usize,
    ingest: bool,
) -> (Served, Vec<Ingest>) {
    let requests = workload::requests(&inputs.params, &stack.profiles, inputs.seed, id, count);
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| frame(&wire::encode_request(r)))
        .collect();
    let schedule = workload::poisson_schedule(rate, count, inputs.seed, id);
    let keep = keep_mask(&requests, CHECK_SHARE, inputs.seed, id, seen);
    let stop_at = AtomicU64::new(u64::MAX);
    let start = Instant::now();
    let (step, ingests) = std::thread::scope(|scope| {
        let ingester = ingest.then(|| {
            let (epochs, grown, stop_at) = (&stack.epochs, &inputs.grown, &stop_at);
            scope.spawn(move || ingest_deltas(epochs, grown, start, stop_at))
        });
        let step = stack.client.run_step(
            start,
            &frames,
            &schedule,
            &keep,
            &stop_at,
            MAX_IN_FLIGHT,
            TIMEOUT_S,
        );
        let ingests = ingester
            .map(|h| h.join().expect("ingest thread panicked"))
            .unwrap_or_default();
        (step, ingests)
    });
    let served = Served {
        label: label.to_string(),
        rate,
        requests,
        step,
    };
    (served, ingests)
}

/// Ingests each grown corpus in turn after [`LIVE_PRE_S`], then ends the
/// step [`LIVE_POST_S`] after the last ingest returned.
fn ingest_deltas(
    epochs: &EpochCache,
    grown: &[Arc<Database>],
    start: Instant,
    stop_at: &AtomicU64,
) -> Vec<Ingest> {
    std::thread::sleep(std::time::Duration::from_secs_f64(LIVE_PRE_S));
    let mut out = Vec::new();
    for db in grown {
        let warmed_sets = epochs.current().cache().len();
        let t = start.elapsed().as_secs_f64();
        let report = epochs.ingest(db, 0).expect("append-only delta ingests");
        out.push(Ingest {
            start: t,
            end: start.elapsed().as_secs_f64(),
            warmed_sets,
            report,
        });
    }
    let end = start.elapsed().as_secs_f64() + LIVE_POST_S;
    stop_at.store((end * 1e6) as u64, Ordering::SeqCst);
    out
}

/// Requests in a step of `share` of the run's seconds at `rate`, and at
/// least one latency window.
fn step_count(rate: f64, seconds: f64, share: f64) -> usize {
    ((rate * seconds * share) as usize).max(WINDOW)
}

/// The live step's request horizon: it ends early, when the ingests do.
fn live_count(rate: f64) -> usize {
    (rate * LIVE_MAX_S) as usize
}

/// The ladder rate of rung `r`.
fn rung_rate(r: i64) -> f64 {
    LADDER_BASE_RPS * LADDER_RATIO.powi(r as i32)
}

/// The rung nearest a rate.
fn rung_of(rate: f64) -> i64 {
    ((rate / LADDER_BASE_RPS).ln() / LADDER_RATIO.ln()).round() as i64
}

/// Climbs the ladder one rung at a time from the rung nearest
/// `start_rate` until two rungs in a row miss the limit; the max rate is
/// the highest rung that met it. (One stray miss below the knee does not
/// end the climb.) When the first rung already misses, the climb restarts
/// four rungs (~20%) lower until a rung passes. Returns the max rate (0
/// when nothing passes) and every step served.
fn max_rate(
    inputs: &Inputs,
    stack: &mut Stack,
    seen: &mut HashSet<(u64, u32)>,
    seconds: f64,
    start_rate: f64,
) -> (f64, Vec<Served>) {
    let mut steps: Vec<Served> = Vec::new();
    let mut serve = |r: i64, steps: &mut Vec<Served>| {
        let rate = rung_rate(r);
        let (served, _) = serve_step(
            inputs,
            stack,
            seen,
            &format!("ladder rung {r}"),
            STEP_LADDER + steps.len() as u64,
            rate,
            step_count(rate, seconds, 0.1),
            false,
        );
        let ok = served.meets_limit();
        steps.push(served);
        ok
    };
    let mut best = rung_of(start_rate);
    while !serve(best, &mut steps) {
        if best == 0 {
            return (0.0, steps);
        }
        best = (best - 4).max(0);
    }
    let (mut r, mut misses) = (best, 0);
    while misses < 2 {
        r += 1;
        if serve(r, &mut steps) {
            best = r;
            misses = 0;
        } else {
            misses += 1;
        }
    }
    (rung_rate(best), steps)
}

/// Checks every kept reply of `served` against a solo evaluation. For a
/// live step, replies answered before the first ingest are checked
/// against `base` and replies sent after the last ingest returned against
/// `full`; the rest are in flight across epochs and are not checked.
pub fn check_step<'db>(
    served: &Served,
    ingests: &[Ingest],
    base: &mut Checker<'db>,
    full: &mut Checker<'db>,
    tally: &mut Tally,
) {
    let first = ingests.first().map_or(f64::INFINITY, |i| i.start);
    let last = ingests.last().map_or(f64::NEG_INFINITY, |i| i.end);
    for (o, request) in served.step.outcomes.iter().zip(&served.requests) {
        let Some(reply) = &o.reply else { continue };
        let checker = if ingests.is_empty() {
            &mut *full
        } else if o.done.is_some_and(|d| d < first) {
            &mut *base
        } else if o.sent.is_some_and(|s| s > last) {
            &mut *full
        } else {
            continue;
        };
        tally.checked += 1;
        if checker.expected(request) != *reply {
            tally.mismatches += 1;
            eprintln!(
                "mismatch in {}: reply differs from the solo answer",
                served.label
            );
        }
    }
}

/// Serves the `.low` rate and, when `with_high`, the `.high` rate in
/// [`ROUNDS`] alternating rounds, each round on a fresh server over the
/// same epochs. A live workload's `.low` is instead one step that spans
/// the ingests. Returns the low steps, the high steps, the ingests and
/// the servers' summed counters.
pub fn fixed_rates(
    inputs: &Inputs,
    stack: &mut Stack,
    seen: &mut HashSet<(u64, u32)>,
    seconds: f64,
    with_high: bool,
) -> (Vec<Served>, Vec<Served>, Vec<Ingest>, WireStats) {
    let p = inputs.params;
    let (mut low, mut high, mut ingests) = (Vec::new(), Vec::new(), Vec::new());
    let mut stats = WireStats::default();
    if p.live {
        let before = stack.wire_stats();
        let count = live_count(p.rate_low);
        let (s, ing) = serve_step(
            inputs, stack, seen, "low", STEP_LOW, p.rate_low, count, true,
        );
        stats.add(stack.wire_stats().since(before));
        low.push(s);
        ingests = ing;
    }
    let per_round = |rate: f64, share: f64| step_count(rate, seconds, share / ROUNDS as f64);
    for r in 0..ROUNDS as u64 {
        stack.restart_server();
        if !p.live {
            let label = format!("low {r}");
            let count = per_round(p.rate_low, 0.4);
            let id = STEP_LOW + r;
            low.push(serve_step(inputs, stack, seen, &label, id, p.rate_low, count, false).0);
        }
        if with_high {
            let label = format!("high {r}");
            let count = per_round(p.rate_high, 0.3);
            let id = STEP_HIGH + r;
            high.push(serve_step(inputs, stack, seen, &label, id, p.rate_high, count, false).0);
        }
        stats.add(stack.wire_stats());
    }
    (low, high, ingests, stats)
}

/// The untraced run.
pub fn untraced(inputs: &Inputs, seconds: f64, tally: &mut Tally) -> RunOut {
    let p = inputs.params;
    let wall = Instant::now();
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPEATS {
        // The previous stack stops before the next set-up starts.
        drop(stack.take());
        let s = env::start(inputs);
        tally.attempted += 1;
        setups.push(s.times.total);
        stack = Some(s);
    }
    let mut stack = stack.expect("at least one set-up");
    let mut log = Vec::new();

    let serving_from = wall.elapsed().as_secs_f64();
    let mut seen = HashSet::new();
    let (low, high, ingests, _) = fixed_rates(inputs, &mut stack, &mut seen, seconds, true);
    let (max_rps, ladder) = max_rate(inputs, &mut stack, &mut seen, seconds, p.ladder_from);

    for s in low.iter().chain(&high).chain(&ladder) {
        tally.attempted += s.step.sent() as u64;
        tally.failed += s.step.failed() as u64;
        log.push(step_line(s));
    }
    for i in &ingests {
        log.push(format!(
            "ingest: {:.3} s into {} warmed sets, {} changed, {} new tuples",
            i.end - i.start,
            i.warmed_sets,
            i.report.changed.len(),
            i.report.new_tuples
        ));
    }

    let checking_from = wall.elapsed().as_secs_f64();
    let served_db = Arc::clone(&stack.served_db);
    let mut base = Checker::new(&stack.warm_db);
    let mut full = Checker::new(&served_db);

    // Answer check, outside every timed window.
    for (i, s) in low.iter().chain(&high).chain(&ladder).enumerate() {
        let ing: &[Ingest] = if i == 0 { &ingests } else { &[] };
        check_step(s, ing, &mut base, &mut full, tally);
    }

    log.push(format!(
        "wall: set-ups {serving_from:.1} s, serving {:.1} s, answer check {:.1} s",
        checking_from - serving_from,
        wall.elapsed().as_secs_f64() - checking_from
    ));
    let (p50_low, p99_low) = p50_p99(&low).unwrap_or_else(|e| refuse("low", &e));
    let (p50_high, p99_high) = p50_p99(&high).unwrap_or_else(|e| refuse("high", &e));
    let sent = |steps: &[Served]| steps.iter().map(|s| s.step.sent()).sum::<usize>();
    let (n_low, n_high) = (sent(&low), sent(&high));
    let ladder_n = sent(&ladder);
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("max_rate_rps", max_rps, "1/s", ladder_n),
    ];
    let unbounded = vec![
        Metric::new("latency_p50_ms.low", p50_low, "ms", n_low),
        Metric::new("latency_p99_ms.low", p99_low, "ms", n_low),
        Metric::new("latency_p50_ms.high", p50_high, "ms", n_high),
        Metric::new("latency_p99_ms.high", p99_high, "ms", n_high),
    ];
    let out = RunOut {
        metrics,
        unbounded,
        log,
        warmed_sets: stack.warmed_sets,
        steps: low
            .iter()
            .chain(&high)
            .chain(&ladder)
            .map(|s| (s.label.clone(), s.rate, s.step.sent()))
            .collect(),
    };
    drop(stack);
    out
}

/// Exits without a result when a step's samples cannot support a p99.
fn refuse(label: &str, why: &str) -> ! {
    eprintln!("step {label}: {why}");
    std::process::exit(1);
}

/// One line describing a served step.
pub fn step_line(s: &Served) -> String {
    let pct = s
        .p50_p99()
        .map_or_else(|e| e, |(a, b)| format!("p50 {a:.3} ms, p99 {b:.3} ms"));
    format!(
        "step {:<14} {:>8.1} req/s offered: sent {}, completed {}, failed {}, {}{}{}",
        s.label,
        s.rate,
        s.step.sent(),
        s.step.completed(),
        s.step.failed(),
        pct,
        if s.step.throttled {
            ", in-flight cap hit"
        } else {
            ""
        },
        if s.meets_limit() {
            ""
        } else {
            " [misses limit]"
        },
    )
}

/// Snapshot load → server up → first answer, in ms; returns the reply.
pub fn restart(path: &std::path::Path, db: &Arc<Database>, first: &[u8]) -> (f64, Vec<u8>) {
    let t = Instant::now();
    let (cache, _) = ProfileCache::load_from(path, db).expect("snapshot loads");
    let epochs = Arc::new(EpochCache::new(cache));
    let server = Server::start(Arc::clone(db), epochs, env::serve_config()).expect("server starts");
    let mut client = Client::connect(server.local_addr(), 1).expect("client connects");
    let reply = client.call(first).expect("first request answered");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    drop(client);
    server.shutdown();
    (ms, reply)
}
