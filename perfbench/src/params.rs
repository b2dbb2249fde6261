//! Every workload parameter, pinned. Rates are absolute numbers frozen
//! from the first measurement (see `README.md`); nothing here is derived
//! from the host or from the code under test.

/// The corpus every workload serves.
pub struct CorpusParams {
    /// Generator seed (fixed: the run seed varies the traffic, not the data).
    pub seed: u64,
    /// Papers.
    pub papers: usize,
    /// Authors.
    pub authors: usize,
    /// Venues.
    pub venues: usize,
}

/// The 20k-paper corpus, with the author and venue populations the
/// repository's 20k bench rows use.
pub const CORPUS: CorpusParams = CorpusParams {
    seed: 42,
    papers: 20_000,
    authors: 8_000,
    venues: 120,
};

/// Seed of the user pick: which users a workload serves, and their Zipf
/// popularity ranks, are pinned; the run seed draws the traffic.
pub const PROFILE_SEED: u64 = 1;

/// Server shard threads.
pub const SHARDS: usize = 2;
/// Load-generator threads, one per connection.
pub const CONNECTIONS: usize = 2;
/// The latency limit a rate step's p99 must meet.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// A request unanswered this long after its scheduled send has failed.
pub const TIMEOUT_S: f64 = 10.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Snapshot restarts per run; `restart_ms` is their median.
pub const RESTART_REPEATS: usize = 21;
/// Requests per latency window: a p99 needs ten samples beyond it, so a
/// window holds at least 1,000. A rate's p50 and p99 are the medians of
/// its windows' p50 and p99.
pub const WINDOW: usize = 1_100;
/// The `.low` and `.high` rates are served in this many alternating
/// rounds, so a stall of the host lands in a few windows of each rate
/// rather than in one whole rate.
pub const ROUNDS: usize = 5;
/// The max-rate ladder: rung `i` offers `LADDER_BASE_RPS · 1.05^i`.
pub const LADDER_BASE_RPS: f64 = 10.0;
/// Rungs are this far apart.
pub const LADDER_RATIO: f64 = 1.05;
/// A step stops sending once this many requests are in flight on one
/// connection: its backlog is growing, and stopping keeps the server's
/// admission queue (256 per shard sweep) from refusing requests.
pub const MAX_IN_FLIGHT: usize = 224;

/// The exponent of the Zipf popularity over warmed profiles.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Share of requests asking k = 100 (the rest ask k = 10).
pub const K100_SHARE: f64 = 0.05;
/// Share of the corpus (its last papers) that arrives as deltas.
pub const DELTA_SHARE: f64 = 0.01;

/// How a workload draws its requests.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// A warmed profile drawn Zipf([`ZIPF_EXPONENT`]) by popularity rank.
    Zipf,
    /// A warmed profile drawn uniformly, plus one fresh ad-hoc atom no
    /// cache holds: every request is its own group, and each pays a
    /// relstore query for its fresh atom.
    Adhoc,
}

/// One workload's pinned parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The workload name `--workload` selects.
    pub name: &'static str,
    /// Profiles warmed before serving.
    pub warmed: usize,
    /// The request shape.
    pub traffic: Traffic,
    /// The `.low` offered rate, requests per second.
    pub rate_low: f64,
    /// The `.high` offered rate, requests per second.
    pub rate_high: f64,
    /// The rate the max-rate ladder starts climbing from, below the
    /// max rate measured at the seed.
    pub ladder_from: f64,
    /// Whether the deltas are ingested while serving. Otherwise the
    /// server serves the complete corpus, and the deltas only feed the
    /// traced run's ingest measurement.
    pub live: bool,
    /// Append-only deltas the last [`DELTA_SHARE`] of the corpus arrives in.
    pub deltas: usize,
}

/// The three workloads.
pub const WORKLOADS: [Params; 3] = [
    Params {
        name: "hot_zipf",
        warmed: 400,
        traffic: Traffic::Zipf,
        rate_low: 2300.0,
        rate_high: 4600.0,
        ladder_from: 9000.0,
        live: false,
        deltas: 1,
    },
    Params {
        name: "adhoc_cold",
        warmed: 400,
        traffic: Traffic::Adhoc,
        rate_low: 720.0,
        rate_high: 1450.0,
        ladder_from: 2500.0,
        live: false,
        deltas: 1,
    },
    Params {
        name: "live_ingest",
        warmed: 32,
        traffic: Traffic::Zipf,
        rate_low: 1800.0,
        rate_high: 3600.0,
        ladder_from: 12000.0,
        live: true,
        deltas: 3,
    },
];

/// The parameters of the named workload.
pub fn workload(name: &str) -> Option<Params> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}
