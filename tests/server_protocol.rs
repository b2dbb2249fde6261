//! Protocol robustness for the TCP serving loop: every frame type
//! round-trips over a real socket, malformed input maps to typed error
//! frames without killing the connection loop, a lying length prefix is
//! rejected at the admission bound, the bounded queue sheds load with
//! typed `Overloaded` rejections, an oversized profile is a typed
//! `BadRequest`, pipelined replies keep request order, a client that
//! never reads blocks only itself, and connections past the bound are
//! closed — no panics, no hangs.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

use hypre_bench::Fixture;
use hypre_repro::core::serve::wire::{
    self, ErrorCode, Request, Response, WireAtom, MAX_FRAME_BYTES,
};
use hypre_repro::core::serve::{ServeConfig, Server, MAX_CONNECTIONS, MAX_PROFILE_ATOMS};
use hypre_repro::prelude::*;
use hypre_repro::relstore::{Database, Predicate};

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(Fixture::small)
}

fn rich_atoms() -> Vec<PrefAtom> {
    fixture().graph.positive_profile(fixture().rich_user)
}

/// Starts a server over the fixture corpus with the rich profile warmed.
fn start_server(config: ServeConfig) -> (Server, Arc<Database>) {
    let fx = fixture();
    let db = Arc::new(fx.db.clone());
    let atoms = rich_atoms();
    let predicates: Vec<&Predicate> = atoms.iter().map(|a| &a.predicate).collect();
    let cache = ProfileCache::warm(&db, BaseQuery::dblp(), predicates).unwrap();
    let epochs = Arc::new(EpochCache::new(cache));
    let server = Server::start(Arc::clone(&db), epochs, config).unwrap();
    (server, db)
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

fn send(stream: &mut TcpStream, req: &Request) {
    wire::write_frame(stream, &wire::encode_request(req)).unwrap();
}

fn recv(stream: &mut TcpStream) -> Response {
    let payload = wire::read_frame(stream, MAX_FRAME_BYTES).unwrap();
    wire::decode_response(&payload).unwrap()
}

/// Requests as one buffer of frames, for a single pipelined write.
fn frames(reqs: &[Request]) -> Vec<u8> {
    let mut burst = Vec::new();
    for req in reqs {
        let payload = wire::encode_request(req);
        burst.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        burst.extend_from_slice(&payload);
    }
    burst
}

fn top_k_request(tenant: u64, k: u32) -> Request {
    Request::TopK {
        tenant,
        k,
        variant: PepsVariant::Complete,
        atoms: rich_atoms()
            .iter()
            .map(|a| WireAtom {
                predicate: a.predicate.canonical(),
                intensity: a.intensity,
            })
            .collect(),
    }
}

/// What the serving loop must answer for the rich profile: the solo
/// sequential reference.
fn solo_top_k(db: &Database, k: usize) -> Vec<RankedTuple> {
    let atoms = rich_atoms();
    let exec = Executor::new(db, BaseQuery::dblp());
    let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
    Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
        .top_k(k)
        .unwrap()
}

#[test]
fn every_frame_type_round_trips_over_a_real_socket() {
    let (server, db) = start_server(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    let mut stream = connect(&server);

    send(&mut stream, &Request::Ping);
    assert_eq!(recv(&mut stream), Response::Pong);

    send(&mut stream, &top_k_request(5, 10));
    match recv(&mut stream) {
        Response::TopK(ranked) => assert_eq!(ranked, solo_top_k(&db, 10)),
        other => panic!("expected a TopK reply, got {other:?}"),
    }

    send(&mut stream, &Request::Stats { tenant: 5 });
    match recv(&mut stream) {
        Response::Stats(stats) => {
            assert_eq!(stats.tenant, 5);
            assert_eq!(stats.tenant_requests, 1);
            assert_eq!(stats.tenant_errors, 0);
            assert_eq!(stats.total_requests, 1);
            assert!(stats.batches >= 1);
        }
        other => panic!("expected a Stats reply, got {other:?}"),
    }
    assert_eq!(server.tenant_stats(5).requests, 1);
    assert_eq!(server.stats().connections, 1);
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_keeps_serving() {
    let (server, db) = start_server(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let mut stream = connect(&server);

    // Unknown opcode: typed rejection, connection survives.
    wire::write_frame(&mut stream, &[0x55, 1, 2, 3]).unwrap();
    match recv(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOpcode),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // Truncated body: a well-framed TopK payload cut mid-field.
    let mut short = wire::encode_request(&top_k_request(1, 5));
    short.truncate(7);
    wire::write_frame(&mut stream, &short).unwrap();
    match recv(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // Trailing garbage after a valid Ping payload.
    let mut padded = wire::encode_request(&Request::Ping);
    padded.extend_from_slice(b"junk");
    wire::write_frame(&mut stream, &padded).unwrap();
    match recv(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // Semantically invalid requests: k = 0, then an unparsable predicate.
    send(
        &mut stream,
        &Request::TopK {
            tenant: 9,
            k: 0,
            variant: PepsVariant::Complete,
            atoms: vec![],
        },
    );
    match recv(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected an error frame, got {other:?}"),
    }
    send(
        &mut stream,
        &Request::TopK {
            tenant: 9,
            k: 3,
            variant: PepsVariant::Complete,
            atoms: vec![WireAtom {
                predicate: "not a predicate ((".into(),
                intensity: 0.5,
            }],
        },
    );
    match recv(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // The same connection still serves a valid request after all that.
    send(&mut stream, &top_k_request(9, 5));
    match recv(&mut stream) {
        Response::TopK(ranked) => assert_eq!(ranked, solo_top_k(&db, 5)),
        other => panic!("expected a TopK reply, got {other:?}"),
    }
    assert!(server.stats().protocol_errors >= 3);
    let tenant = server.tenant_stats(9);
    assert_eq!(tenant.requests, 3, "k=0, bad predicate, then the good one");
    assert_eq!(tenant.errors, 2);
    server.shutdown();
}

#[test]
fn oversized_frames_hit_the_admission_bound_and_the_server_survives() {
    let (server, db) = start_server(ServeConfig {
        shards: 1,
        max_frame_bytes: 256,
        ..ServeConfig::default()
    });

    // A frame declaring 10 KiB against a 256-byte bound: typed
    // rejection before any payload is buffered, then the connection is
    // closed (a lying prefix cannot be resynced).
    let mut stream = connect(&server);
    stream.write_all(&10_240u32.to_be_bytes()).unwrap();
    stream.write_all(&[0u8; 64]).unwrap();
    match recv(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let eof = wire::read_frame(&mut stream, MAX_FRAME_BYTES);
    assert!(eof.is_err(), "the poisoned connection must be closed");

    // The server itself keeps serving new connections: a one-atom
    // request small enough to clear the 256-byte bound.
    let atom = rich_atoms().remove(0);
    let small = Request::TopK {
        tenant: 2,
        k: 5,
        variant: PepsVariant::Complete,
        atoms: vec![WireAtom {
            predicate: atom.predicate.canonical(),
            intensity: atom.intensity,
        }],
    };
    let solo_small = {
        let atoms = vec![PrefAtom::new(0, atom.predicate.clone(), atom.intensity)];
        let exec = Executor::new(&db, BaseQuery::dblp());
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
            .top_k(5)
            .unwrap()
    };
    let mut fresh = connect(&server);
    send(&mut fresh, &small);
    match recv(&mut fresh) {
        Response::TopK(ranked) => assert_eq!(ranked, solo_small),
        other => panic!("expected a TopK reply, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_truncated_frame_then_disconnect_cannot_hang_the_loop() {
    let (server, db) = start_server(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    {
        // Half a length prefix, then the client vanishes.
        let mut stream = connect(&server);
        stream.write_all(&[0, 0]).unwrap();
    }
    {
        // A full prefix promising a payload that never arrives.
        let mut stream = connect(&server);
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
    }
    // The loop is still alive and serving.
    let mut fresh = connect(&server);
    send(&mut fresh, &top_k_request(3, 5));
    match recv(&mut fresh) {
        Response::TopK(ranked) => assert_eq!(ranked, solo_top_k(&db, 5)),
        other => panic!("expected a TopK reply, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn the_bounded_queue_sheds_load_with_typed_overload_rejections() {
    let (server, db) = start_server(ServeConfig {
        shards: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    });
    let mut stream = connect(&server);

    // Pipeline 6 requests in a single write: one sweep admits 2 and
    // sheds 4 with typed Overloaded frames; nothing panics, nothing is
    // silently dropped.
    let mut burst = Vec::new();
    for _ in 0..6 {
        let payload = wire::encode_request(&top_k_request(8, 10));
        burst.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        burst.extend_from_slice(&payload);
    }
    stream.write_all(&burst).unwrap();

    let want = solo_top_k(&db, 10);
    let mut served = 0usize;
    let mut shed = 0usize;
    for _ in 0..6 {
        match recv(&mut stream) {
            Response::TopK(ranked) => {
                assert_eq!(ranked, want);
                served += 1;
            }
            Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::Overloaded);
                shed += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(served + shed, 6, "every request gets exactly one answer");
    assert!(served >= 2, "admitted requests are served, not dropped");
    assert!(shed >= 1, "the bound must reject the burst's tail");
    assert_eq!(server.stats().overloads, shed as u64);
    server.shutdown();
}

#[test]
fn an_oversized_profile_is_a_typed_bad_request_and_the_connection_keeps_serving() {
    let (server, db) = start_server(ServeConfig::default());
    let mut stream = connect(&server);

    // Pairwise-disjoint atoms, one past the bound.
    let oversized = Request::TopK {
        tenant: 9,
        k: 10,
        variant: PepsVariant::Complete,
        atoms: (1..=MAX_PROFILE_ATOMS + 1)
            .map(|pid| WireAtom {
                predicate: format!("dblp.pid={pid}"),
                intensity: 0.5,
            })
            .collect(),
    };
    send(&mut stream, &oversized);
    match recv(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected a BadRequest error, got {other:?}"),
    }

    // A normal profile is still served, and its second batch reuses the
    // pairwise table its first one memoised.
    for _ in 0..2 {
        send(&mut stream, &top_k_request(9, 10));
        assert_eq!(recv(&mut stream), Response::TopK(solo_top_k(&db, 10)));
    }
    assert_eq!(server.tenant_stats(9).errors, 1);
    assert_eq!(server.stats().pairwise_reused, 1);
    server.shutdown();
}

#[test]
fn pipelined_replies_come_back_in_request_order() {
    let (server, db) = start_server(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let mut stream = connect(&server);
    let k_zero = Request::TopK {
        tenant: 4,
        k: 0,
        variant: PepsVariant::Complete,
        atoms: vec![],
    };
    let burst = frames(&[
        top_k_request(4, 10),
        Request::Ping,
        k_zero,
        Request::Stats { tenant: 4 },
    ]);
    stream.write_all(&burst).unwrap();

    match recv(&mut stream) {
        Response::TopK(ranked) => assert_eq!(ranked, solo_top_k(&db, 10)),
        other => panic!("expected the TopK reply first, got {other:?}"),
    }
    assert_eq!(recv(&mut stream), Response::Pong);
    match recv(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected the k = 0 rejection third, got {other:?}"),
    }
    match recv(&mut stream) {
        Response::Stats(stats) => {
            // The Stats request counts both Top-K requests sent before it.
            assert_eq!(stats.tenant_requests, 2);
            assert_eq!(stats.tenant_errors, 1);
            assert_eq!(stats.total_requests, 2);
        }
        other => panic!("expected the Stats reply last, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_client_that_never_reads_blocks_only_itself() {
    let (server, db) = start_server(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });

    // Pipeline Top-K requests and never read a reply, until the server
    // stops taking them and this client's own write times out.
    let mut hog = connect(&server);
    hog.set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let burst = frames(&vec![top_k_request(6, 10); 64]);
    while hog.write_all(&burst).is_ok() {}

    // A well-behaved client is still answered promptly and correctly.
    let mut fresh = connect(&server);
    fresh
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    send(&mut fresh, &top_k_request(7, 10));
    match recv(&mut fresh) {
        Response::TopK(ranked) => assert_eq!(ranked, solo_top_k(&db, 10)),
        other => panic!("expected a TopK reply, got {other:?}"),
    }

    // Shutdown wakes the connection blocked writing to the hog.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(2)).is_ok(),
        "shutdown must return while the never-reading client is connected"
    );
    drop(hog);
}

#[test]
fn connections_past_the_bound_are_closed() {
    let (server, db) = start_server(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let mut open: Vec<TcpStream> = (0..MAX_CONNECTIONS).map(|_| connect(&server)).collect();

    // The server closes the connection past the bound without a reply.
    let mut extra = connect(&server);
    let mut byte = [0u8; 1];
    assert_eq!(extra.read(&mut byte).unwrap(), 0, "expected EOF");

    // The connections within the bound are still served.
    let want = solo_top_k(&db, 10);
    for i in [0, MAX_CONNECTIONS - 1] {
        send(&mut open[i], &top_k_request(1, 10));
        match recv(&mut open[i]) {
            Response::TopK(ranked) => assert_eq!(ranked, want),
            other => panic!("expected a TopK reply, got {other:?}"),
        }
    }

    // The bound counts open connections: once one closes, a new one is
    // served.
    drop(open.remove(0));
    let served = (0..250).any(|_| {
        let mut stream = connect(&server);
        let answered = wire::write_frame(&mut stream, &wire::encode_request(&Request::Ping))
            .and_then(|()| wire::read_frame(&mut stream, MAX_FRAME_BYTES))
            .is_ok_and(|reply| wire::decode_response(&reply) == Ok(Response::Pong));
        if !answered {
            std::thread::sleep(Duration::from_millis(20));
        }
        answered
    });
    assert!(served, "a connection under the bound must be served");
    server.shutdown();
}
