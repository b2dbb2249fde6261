//! The HYPRE engine behind a socket: a thread-per-connection TCP server
//! batching pipelined Top-K sessions over one epoch-versioned
//! `ProfileCache`. A scripted client pings, pipelines preference
//! queries for two tenants (answers verified byte-for-byte against
//! direct `Peps` runs), sends a garbage frame and keeps its connection,
//! reads per-tenant stats, and then watches a live ingest flip the
//! serving epoch between batches — no restart, no stop-the-world.
//!
//! ```text
//! cargo run --release --example preference_server
//! ```

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hypre_bench::ingest::split_corpus;
use hypre_repro::core::serve::wire::{
    self, ErrorCode, Request, Response, WireAtom, MAX_FRAME_BYTES,
};
use hypre_repro::core::serve::{ServeConfig, Server};
use hypre_repro::dblp::{extract, gen};
use hypre_repro::prelude::*;
use hypre_repro::relstore::{Database, Predicate};

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    // 1. A corpus split append-only: 90 % live at warm-up, the rest
    //    arrives mid-serving as an epoch-2 delta.
    let dataset = gen::generate(&gen::GeneratorConfig {
        papers: 2000,
        authors: 800,
        venues: 30,
        ..gen::GeneratorConfig::default()
    });
    let workload = extract::extract(&dataset, &extract::ExtractionConfig::default());
    let split = split_corpus(&dataset, 0.9);

    // 2. Two tenants with different preference profiles.
    let mut graph = HypreGraph::new();
    graph.load(&workload.quantitative, &workload.qualitative)?;
    let mut users = graph.users();
    users.sort_by_key(|u| std::cmp::Reverse(graph.positive_profile(*u).len()));
    let rich = graph.positive_profile(users[0]);
    let modest = graph.positive_profile(users[users.len() / 2]);
    println!(
        "tenants: rich profile {} atoms, modest profile {} atoms",
        rich.len(),
        modest.len()
    );

    // 3. Warm both profiles on the base corpus, publish as epoch 1, and
    //    put the scheduler behind a TCP server that lets at most 2
    //    connections evaluate a batch at once. The server owns
    //    the full (append-only grown) corpus; pinned epoch-1 sessions
    //    still answer base-corpus results because every tuple set comes
    //    from the epoch snapshot, not from SQL.
    let predicates: Vec<&Predicate> = rich
        .iter()
        .chain(modest.iter())
        .map(|a| &a.predicate)
        .collect();
    let cache = ProfileCache::warm(&split.base, BaseQuery::dblp(), predicates)?;
    let epochs = Arc::new(EpochCache::new(cache));
    let db = Arc::new(split.full.clone());
    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&epochs),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    )?;
    println!("serving on {}", server.local_addr());

    // 4. A client connects and pings.
    let mut client = TcpStream::connect(server.local_addr())?;
    client.set_read_timeout(Some(Duration::from_secs(30)))?;
    send(&mut client, &Request::Ping)?;
    assert_eq!(recv(&mut client)?, Response::Pong);

    // 5. Pipelined Top-K for both tenants in one write; the
    //    connection's thread reads them as one batch, evaluates each
    //    distinct profile once, and replies in request order. The
    //    answers are byte-identical to direct in-process PEPS runs over
    //    the base corpus (the pinned epoch).
    let mut burst = Vec::new();
    for (tenant, profile) in [(1u64, &rich), (2u64, &modest)] {
        let payload = wire::encode_request(&top_k_request(tenant, 10, profile));
        burst.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        burst.extend_from_slice(&payload);
    }
    use std::io::Write as _;
    client.write_all(&burst)?;
    for profile in [&rich, &modest] {
        let want = solo_top_k(&split.base, profile, 10)?;
        match recv(&mut client)? {
            Response::TopK(ranked) => assert_eq!(ranked, want, "server must match solo PEPS"),
            other => panic!("expected a TopK reply, got {other:?}"),
        }
    }
    println!("epoch 1: both tenants served, byte-identical to solo PEPS");

    // 6. A garbage frame gets a typed error — and the same connection
    //    keeps serving.
    wire::write_frame(&mut client, &[0xEE, 0xFF])?;
    match recv(&mut client)? {
        Response::Error { code, detail } => {
            assert_eq!(code, ErrorCode::UnknownOpcode);
            println!("garbage frame rejected: {detail}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    send(&mut client, &Request::Ping)?;
    assert_eq!(recv(&mut client)?, Response::Pong, "connection survives");

    // 7. The delta goes live mid-serving: epoch 2 is published and the
    //    next batch runs on it. The very next answers match a cold
    //    executor over the full corpus.
    let report = epochs.ingest(&split.full, 0)?;
    println!(
        "ingested delta: {} new tuples, {} predicates re-scored, now epoch {}",
        report.new_tuples,
        report.changed.len(),
        epochs.current_epoch()
    );
    send(&mut client, &top_k_request(1, 10, &rich))?;
    let want_new = solo_top_k(&split.full, &rich, 10)?;
    match recv(&mut client)? {
        Response::TopK(ranked) => {
            assert_eq!(ranked, want_new, "the next batch serves the new epoch");
        }
        other => panic!("expected a TopK reply, got {other:?}"),
    }
    println!("epoch 2: served without a restart, answers match a cold executor");

    // 8. Per-tenant accounting straight off the wire.
    send(&mut client, &Request::Stats { tenant: 1 })?;
    match recv(&mut client)? {
        Response::Stats(stats) => {
            println!(
                "tenant 1: {} requests ({} errors); server total {} requests, \
                 {} batches, {} groups, {} shared evaluations",
                stats.tenant_requests,
                stats.tenant_errors,
                stats.total_requests,
                stats.batches,
                stats.groups,
                stats.shared
            );
            assert_eq!(stats.tenant_requests, 2);
            assert_eq!(stats.tenant_errors, 0);
        }
        other => panic!("expected a Stats reply, got {other:?}"),
    }

    // 9. Clean shutdown: stop flag, acceptor woken, every connection's
    //    socket shut down and its thread joined.
    drop(client);
    server.shutdown();
    println!("server drained and shut down cleanly");
    Ok(())
}

fn top_k_request(tenant: u64, k: u32, atoms: &[PrefAtom]) -> Request {
    Request::TopK {
        tenant,
        k,
        variant: PepsVariant::Complete,
        atoms: atoms
            .iter()
            .map(|a| WireAtom {
                predicate: a.predicate.canonical(),
                intensity: a.intensity,
            })
            .collect(),
    }
}

fn solo_top_k(db: &Database, atoms: &[PrefAtom], k: usize) -> Result<Vec<RankedTuple>> {
    let exec = Executor::new(db, BaseQuery::dblp());
    let pairs = PairwiseCache::build(atoms, &exec)?;
    Peps::new(atoms, &exec, &pairs, PepsVariant::Complete).top_k(k)
}

fn send(stream: &mut TcpStream, req: &Request) -> std::io::Result<()> {
    wire::write_frame(stream, &wire::encode_request(req))
}

fn recv(stream: &mut TcpStream) -> std::result::Result<Response, Box<dyn std::error::Error>> {
    let payload = wire::read_frame(stream, MAX_FRAME_BYTES)?;
    Ok(wire::decode_response(&payload)?)
}
