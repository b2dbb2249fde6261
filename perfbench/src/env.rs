//! Inputs and set-up shared by the untraced and the traced run: the
//! generated corpus, the databases, and one timed start of the serving
//! stack (relstore load → graph load → warm → server start → first answer).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dblp_workload::DblpDataset;
use hypre_core::exec::{BaseQuery, EpochCache, ProfileCache};
use hypre_core::graph::HypreGraph;
use hypre_core::serve::wire::{self, Request, Response};
use hypre_core::serve::{ServeConfig, Server};
use relstore::{Database, Predicate, Value};

use perfbench::loadgen::Client;
use perfbench::params::{Params, CONNECTIONS, DELTA_SHARE, PROFILE_SEED, SHARDS};
use perfbench::workload::{self, Corpus, Profile};

/// Everything generated before the first timer starts.
pub struct Inputs {
    /// The workload's pinned parameters.
    pub params: Params,
    /// The run seed.
    pub seed: u64,
    /// The generated corpus.
    pub corpus: Corpus,
    /// The corpus the cache is warmed on: the whole corpus, or for a live
    /// workload the base prefix.
    pub warm_dataset: DblpDataset,
    /// The base corpus, before any delta.
    pub base_db: Arc<Database>,
    /// The corpus after each delta, the last one complete: the server
    /// serves the complete corpus, and each epoch pins its prefix.
    pub grown: Vec<Arc<Database>>,
    /// Where snapshots are written (inside the checkout).
    pub scratch: PathBuf,
}

impl Inputs {
    /// Generates the corpus and the grown databases for `params`.
    pub fn generate(params: Params, seed: u64, scratch: PathBuf) -> Self {
        let corpus = workload::corpus();
        let split = workload::live_split(&corpus.dataset, DELTA_SHARE, params.deltas);
        let mut db = dblp_workload::load(&split.base).expect("corpus loads");
        let base_db = Arc::new(db.clone());
        let mut grown = Vec::new();
        for (papers, links) in &split.deltas {
            append(&mut db, papers, links);
            grown.push(Arc::new(db.clone()));
        }
        let warm_dataset = if params.live {
            split.base
        } else {
            corpus.dataset.clone()
        };
        Inputs {
            params,
            seed,
            corpus,
            warm_dataset,
            base_db,
            grown,
            scratch,
        }
    }

    /// The complete corpus the server serves.
    pub fn full(&self) -> &Arc<Database> {
        self.grown.last().expect("at least one delta")
    }
}

/// Appends papers and their authorship links to the two tables the base
/// query reads.
fn append(
    db: &mut Database,
    papers: &[dblp_workload::Paper],
    links: &[dblp_workload::PaperAuthor],
) {
    let dblp = db.table_mut("dblp").expect("dblp exists");
    for p in papers {
        dblp.insert(vec![
            Value::Int(p.pid as i64),
            Value::str(&p.title),
            Value::Int(p.year),
            Value::str(&p.venue),
        ])
        .expect("append matches schema");
    }
    let link = db.table_mut("dblp_author").expect("dblp_author exists");
    for l in links {
        link.insert(vec![Value::Int(l.pid as i64), Value::Int(l.aid as i64)])
            .expect("append matches schema");
    }
}

/// Per-phase wall times of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `dblp_workload::load::load`.
    pub load: f64,
    /// `HypreGraph::load`.
    pub graph: f64,
    /// `ProfileCache::warm`.
    pub warm: f64,
    /// Generated inputs to the first answered request.
    pub total: f64,
}

/// A started serving stack.
pub struct Stack {
    /// The database the cache was warmed on.
    pub warm_db: Arc<Database>,
    /// The database the server serves.
    pub served_db: Arc<Database>,
    /// The epochs the server serves.
    pub epochs: Arc<EpochCache>,
    /// The server (dropped last).
    pub server: Server,
    /// Pipelined connections to it.
    pub client: Client,
    /// The warmed profiles the run draws from.
    pub profiles: Vec<Profile>,
    /// Tuple sets warmed into the first epoch.
    pub warmed_sets: usize,
    /// How long each phase took.
    pub times: SetupTimes,
}

/// Server counters read over the wire (`Stats`), plus the protocol error
/// count the wire reply does not carry (`Server::stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    /// Top-K requests answered.
    pub requests: u64,
    /// Scheduler batches run.
    pub batches: u64,
    /// Requests refused by the admission queue.
    pub overloads: u64,
    /// Frames that failed to decode.
    pub protocol_errors: u64,
}

impl WireStats {
    /// The counts in `self` that `earlier` does not hold yet.
    pub fn since(self, earlier: WireStats) -> WireStats {
        WireStats {
            requests: self.requests - earlier.requests,
            batches: self.batches - earlier.batches,
            overloads: self.overloads - earlier.overloads,
            protocol_errors: self.protocol_errors - earlier.protocol_errors,
        }
    }

    /// Adds another server's counts.
    pub fn add(&mut self, other: WireStats) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.overloads += other.overloads;
        self.protocol_errors += other.protocol_errors;
    }
}

impl Stack {
    /// Replaces the server (and the client's connections) with a fresh
    /// one over the same database and epochs. Thread placement and
    /// connection state then differ from round to round instead of
    /// holding for a whole run.
    pub fn restart_server(&mut self) {
        let server = Server::start(
            Arc::clone(&self.served_db),
            Arc::clone(&self.epochs),
            serve_config(),
        )
        .expect("server starts");
        self.client = Client::connect(server.local_addr(), CONNECTIONS).expect("client connects");
        self.server = server;
    }

    /// The server's counters.
    pub fn wire_stats(&mut self) -> WireStats {
        let reply = self
            .client
            .call(&wire::encode_request(&Request::Stats { tenant: 0 }))
            .expect("stats answered");
        match wire::decode_response(&reply) {
            Ok(Response::Stats(s)) => WireStats {
                requests: s.total_requests,
                batches: s.batches,
                overloads: s.overloads,
                protocol_errors: self.server.stats().protocol_errors,
            },
            other => panic!("unexpected stats reply: {other:?}"),
        }
    }
}

/// The server configuration every run uses: pinned shard count.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        ..ServeConfig::default()
    }
}

/// One timed set-up: relstore load, graph load, profile warm-up, server
/// start, and the first answered Top-K request.
pub fn start(inputs: &Inputs) -> Stack {
    let p = &inputs.params;
    let t0 = Instant::now();
    let db = Arc::new(dblp_workload::load(&inputs.warm_dataset).expect("corpus loads"));
    let load = t0.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut graph = HypreGraph::new();
    graph
        .load(
            &inputs.corpus.prefs.quantitative,
            &inputs.corpus.prefs.qualitative,
        )
        .expect("extracted preferences load");
    let graph_s = t.elapsed().as_secs_f64();

    let profiles = workload::pick_profiles(&graph, PROFILE_SEED, p.warmed);
    let t = Instant::now();
    let preds: Vec<&Predicate> = profiles
        .iter()
        .flat_map(|pr| pr.atoms.iter().map(|a| &a.predicate))
        .collect();
    let cache = ProfileCache::warm(&db, BaseQuery::dblp(), preds).expect("warm-up succeeds");
    let warm = t.elapsed().as_secs_f64();
    let warmed_sets = cache.len();

    let epochs = Arc::new(EpochCache::new(cache));
    let served = if p.live {
        Arc::clone(inputs.full())
    } else {
        Arc::clone(&db)
    };
    let server = Server::start(Arc::clone(&served), Arc::clone(&epochs), serve_config())
        .expect("server starts");
    let mut client = Client::connect(server.local_addr(), CONNECTIONS).expect("client connects");
    let first = workload::requests(p, &profiles, inputs.seed, 0, 1).remove(0);
    let reply = client
        .call(&wire::encode_request(&first))
        .expect("first request answered");
    assert!(
        matches!(wire::decode_response(&reply), Ok(Response::TopK(_))),
        "first request answered with a ranking"
    );
    let total = t0.elapsed().as_secs_f64();
    Stack {
        warm_db: db,
        served_db: served,
        epochs,
        server,
        client,
        profiles,
        warmed_sets,
        times: SetupTimes {
            load,
            graph: graph_s,
            warm,
            total,
        },
    }
}
