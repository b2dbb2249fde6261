//! A std-only TCP serving loop over the batch scheduler: thread-per-core
//! sharded, length-prefix framed, admission-controlled.
//!
//! # Architecture
//!
//! One acceptor thread hands incoming connections round-robin to `N`
//! shard threads (`N` defaults to the core count). Each shard owns its
//! connections outright — no cross-shard locking on the hot path — and
//! runs a sweep loop: drain every socket (non-blocking), reassemble
//! frames ([`wire::FrameBuffer`]), answer `Ping`/`Stats` inline, queue
//! `TopK` requests, then hand the queued requests to one
//! [`BatchScheduler`] run so concurrent
//! sessions with the same profile identity share a single round
//! evaluation. Answers are byte-identical to solo execution — batching
//! changes wall-clock, never results (see [`crate::sched`]).
//!
//! # Admission control
//!
//! Two typed bounds, no panics (the crate denies `unwrap`/`expect`):
//!
//! * **frame size** — a frame whose *declared* length exceeds
//!   [`ServeConfig::max_frame_bytes`] is rejected with
//!   [`wire::ErrorCode::FrameTooLarge`] before any payload is buffered,
//!   and the connection is closed (a lying length prefix cannot be
//!   resynced). The server itself keeps serving.
//! * **queue depth** — each shard holds at most
//!   [`ServeConfig::queue_capacity`] pending Top-K requests per sweep;
//!   requests beyond that are rejected immediately with
//!   [`wire::ErrorCode::Overloaded`] and the connection stays open.
//!
//! Server state is bounded too: per-tenant counters are kept for at most
//! 4 096 client-chosen tenant ids; later ids count in the server-wide
//! totals only.
//!
//! Malformed-but-framed payloads (bad opcode, truncated body, garbage
//! UTF-8) get their own typed error frame and the connection keeps
//! serving — protocol robustness is pinned by `tests/server_protocol.rs`.
//!
//! # Epochs
//!
//! Each shard serves through an [`EpochSession`]: in-flight batches
//! answer on the epoch they started on, and the session drains at the
//! next batch boundary, so an [`EpochCache::ingest`] never blocks
//! serving and never tears a batch.

pub mod wire;

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use relstore::{parse_predicate, Database};

use crate::combine::PrefAtom;
use crate::error::HypreError;
use crate::exec::{EpochCache, EpochSession, Parallelism};
use crate::sched::{BatchRequest, BatchScheduler};

use wire::{ErrorCode, FrameBuffer, Request, Response, StatsReply, WireError};

/// Server tuning knobs. `Default` suits tests and examples.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; `127.0.0.1:0` picks a free port.
    pub addr: String,
    /// Shard (worker thread) count; `0` means one per core.
    pub shards: usize,
    /// Per-shard bound on Top-K requests admitted per sweep; the rest
    /// get a typed [`ErrorCode::Overloaded`] rejection.
    pub queue_capacity: usize,
    /// Most requests one scheduler batch evaluates together.
    pub batch_max: usize,
    /// Frame-size admission bound (declared payload length).
    pub max_frame_bytes: usize,
    /// The [`Parallelism`] knob each shard's round expansions run under.
    pub parallelism: Parallelism,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 0,
            queue_capacity: 256,
            batch_max: 64,
            max_frame_bytes: wire::MAX_FRAME_BYTES,
            parallelism: Parallelism::Sequential,
        }
    }
}

/// Why the server could not start or stopped serving.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or thread-spawn failure.
    Io(io::Error),
    /// The preference engine refused the configuration.
    Engine(HypreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serving I/O: {e}"),
            ServeError::Engine(e) => write!(f, "serving engine: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Engine(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<HypreError> for ServeError {
    fn from(e: HypreError) -> Self {
        ServeError::Engine(e)
    }
}

/// A point-in-time snapshot of the server-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Top-K requests answered (error answers included).
    pub total_requests: u64,
    /// Scheduler batches run.
    pub batches: u64,
    /// Distinct profile-identity groups across those batches.
    pub groups: u64,
    /// Requests answered off another session's evaluation.
    pub shared: u64,
    /// Requests rejected by the bounded admission queue.
    pub overloads: u64,
    /// Frames that failed to decode (typed error frames sent).
    pub protocol_errors: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// How many tenants the server keeps counters for. Tenant ids are chosen
/// by clients, so the table must not grow with them: requests from a
/// tenant first seen once the table is full count in the server-wide
/// totals only, and its [`TenantStats`] read as zero.
const MAX_TENANTS: usize = 4096;

/// One tenant's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Top-K requests answered for this tenant.
    pub requests: u64,
    /// Those that ended in an error frame.
    pub errors: u64,
}

#[derive(Default)]
struct Counters {
    total_requests: AtomicU64,
    batches: AtomicU64,
    groups: AtomicU64,
    shared: AtomicU64,
    overloads: AtomicU64,
    protocol_errors: AtomicU64,
    connections: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            total_requests: self.total_requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
            overloads: self.overloads.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
        }
    }
}

struct SharedState {
    db: Arc<Database>,
    epochs: Arc<EpochCache>,
    config: ServeConfig,
    stop: std::sync::atomic::AtomicBool,
    counters: Counters,
    tenants: TenantTable,
}

impl SharedState {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Per-tenant counters for at most [`MAX_TENANTS`] tenants.
#[derive(Default)]
struct TenantTable(Mutex<HashMap<u64, TenantStats>>);

impl TenantTable {
    fn get(&self, tenant: u64) -> TenantStats {
        let map = self
            .0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        map.get(&tenant).copied().unwrap_or_default()
    }

    fn record(&self, tenant: u64, errored: bool) {
        let mut map = self
            .0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if map.len() >= MAX_TENANTS && !map.contains_key(&tenant) {
            return;
        }
        let entry = map.entry(tenant).or_default();
        entry.requests += 1;
        if errored {
            entry.errors += 1;
        }
    }
}

/// The running server: a handle that owns the acceptor and shard
/// threads. Dropping it (or calling [`Server::shutdown`]) stops
/// accepting, wakes every thread and joins them.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<SharedState>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the shard and acceptor threads, and returns once
    /// the server is accepting.
    ///
    /// # Errors
    /// [`ServeError::Io`] when binding or spawning fails.
    pub fn start(
        db: Arc<Database>,
        epochs: Arc<EpochCache>,
        config: ServeConfig,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shards = if config.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.shards
        };
        let shared = Arc::new(SharedState {
            db,
            epochs,
            config,
            stop: std::sync::atomic::AtomicBool::new(false),
            counters: Counters::default(),
            tenants: TenantTable::default(),
        });
        let mut threads = Vec::with_capacity(shards + 1);
        let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(shards);
        for shard_id in 0..shards {
            let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
            senders.push(tx);
            let state = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("hypre-shard-{shard_id}"))
                    .spawn(move || shard_loop(&state, &rx))?,
            );
        }
        let state = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("hypre-accept".into())
                .spawn(move || accept_loop(&state, &listener, &senders))?,
        );
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-wide counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.counters.snapshot()
    }

    /// One tenant's counters (zero for a tenant past the tracked-tenant
    /// cap).
    pub fn tenant_stats(&self, tenant: u64) -> TenantStats {
        self.shared.tenants.get(tenant)
    }

    /// Stops accepting, drains the threads and returns once they have
    /// all exited.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(state: &SharedState, listener: &TcpListener, senders: &[Sender<TcpStream>]) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if state.stopping() {
            break;
        }
        let Ok(stream) = stream else { continue };
        state.counters.connections.fetch_add(1, Ordering::Relaxed);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        if senders.is_empty() || senders[next % senders.len()].send(stream).is_err() {
            break;
        }
        next += 1;
    }
}

/// One shard-owned connection.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    closed: bool,
}

/// A Top-K request admitted into the current sweep's batch.
struct Pending {
    conn: usize,
    tenant: u64,
    request: BatchRequest,
}

fn shard_loop(state: &SharedState, rx: &Receiver<TcpStream>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut session = EpochSession::open(&state.epochs);
    let scheduler = BatchScheduler::new(state.config.parallelism);
    let mut scratch = vec![0u8; 16 * 1024];
    while !state.stopping() {
        // Adopt newly accepted connections.
        loop {
            match rx.try_recv() {
                Ok(stream) => conns.push(Conn {
                    stream,
                    frames: FrameBuffer::new(state.config.max_frame_bytes),
                    closed: false,
                }),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }

        // Sweep: drain sockets, reassemble frames, answer what can be
        // answered inline, queue Top-K work under the admission bound.
        let mut pending: Vec<Pending> = Vec::new();
        let mut any_activity = false;
        for idx in 0..conns.len() {
            if conns[idx].closed {
                continue;
            }
            let mut eof = false;
            loop {
                match conns[idx].stream.read(&mut scratch) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        any_activity = true;
                        conns[idx].frames.extend(&scratch[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            loop {
                match conns[idx].frames.next_frame() {
                    Ok(Some(payload)) => {
                        handle_payload(state, &mut conns, idx, &payload, &mut pending);
                        if conns[idx].closed {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(too_large) => {
                        // Only `TooLarge` can surface here: the stream
                        // cannot be resynced after a lying length
                        // prefix, so send the typed rejection and close.
                        state
                            .counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        reply(
                            &mut conns[idx],
                            &Response::Error {
                                code: ErrorCode::FrameTooLarge,
                                detail: too_large.to_string(),
                            },
                        );
                        conns[idx].closed = true;
                        break;
                    }
                }
            }
            if eof {
                conns[idx].closed = true;
            }
        }

        // Evaluate the admitted batch: drain the epoch session first, so
        // this batch serves the newest published epoch while the one
        // already in flight (previous iteration) finished on its own.
        if !pending.is_empty() {
            session.drain(&state.epochs);
            let cache = session.cache();
            for chunk in pending.chunks(state.config.batch_max) {
                let requests: Vec<BatchRequest> = chunk.iter().map(|p| p.request.clone()).collect();
                state.counters.batches.fetch_add(1, Ordering::Relaxed);
                match scheduler.run(&state.db, &cache, &requests) {
                    Ok(outcome) => {
                        state
                            .counters
                            .groups
                            .fetch_add(outcome.stats.groups as u64, Ordering::Relaxed);
                        state
                            .counters
                            .shared
                            .fetch_add(outcome.stats.shared as u64, Ordering::Relaxed);
                        for (p, result) in chunk.iter().zip(outcome.results) {
                            let (response, errored) = match result {
                                Ok(ranked) => (Response::TopK(ranked), false),
                                Err(e) => (
                                    Response::Error {
                                        code: ErrorCode::Engine,
                                        detail: e.to_string(),
                                    },
                                    true,
                                ),
                            };
                            finish_top_k(state, &mut conns, p, &response, errored);
                        }
                    }
                    Err(e) => {
                        let response = Response::Error {
                            code: ErrorCode::Engine,
                            detail: e.to_string(),
                        };
                        for p in chunk {
                            finish_top_k(state, &mut conns, p, &response, true);
                        }
                    }
                }
            }
        } else if !any_activity {
            std::thread::sleep(Duration::from_micros(300));
        }

        conns.retain(|c| !c.closed);
    }
}

/// Answers or queues one decoded frame.
fn handle_payload(
    state: &SharedState,
    conns: &mut [Conn],
    idx: usize,
    payload: &[u8],
    pending: &mut Vec<Pending>,
) {
    match wire::decode_request(payload) {
        Ok(Request::Ping) => reply(&mut conns[idx], &Response::Pong),
        Ok(Request::Stats { tenant }) => {
            let snap = state.counters.snapshot();
            let per_tenant = state.tenants.get(tenant);
            reply(
                &mut conns[idx],
                &Response::Stats(StatsReply {
                    tenant,
                    tenant_requests: per_tenant.requests,
                    tenant_errors: per_tenant.errors,
                    total_requests: snap.total_requests,
                    batches: snap.batches,
                    groups: snap.groups,
                    shared: snap.shared,
                    overloads: snap.overloads,
                }),
            );
        }
        Ok(Request::TopK {
            tenant,
            k,
            variant,
            atoms,
        }) => {
            if pending.len() >= state.config.queue_capacity {
                state.counters.overloads.fetch_add(1, Ordering::Relaxed);
                state
                    .counters
                    .total_requests
                    .fetch_add(1, Ordering::Relaxed);
                state.tenants.record(tenant, true);
                reply(
                    &mut conns[idx],
                    &Response::Error {
                        code: ErrorCode::Overloaded,
                        detail: format!(
                            "admission queue full ({} pending)",
                            state.config.queue_capacity
                        ),
                    },
                );
                return;
            }
            match admit_top_k(k, &atoms, variant) {
                Ok(request) => pending.push(Pending {
                    conn: idx,
                    tenant,
                    request,
                }),
                Err(detail) => {
                    state
                        .counters
                        .total_requests
                        .fetch_add(1, Ordering::Relaxed);
                    state.tenants.record(tenant, true);
                    reply(
                        &mut conns[idx],
                        &Response::Error {
                            code: ErrorCode::BadRequest,
                            detail,
                        },
                    );
                }
            }
        }
        Err(e) => {
            state
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            let code = match e {
                WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
                _ => ErrorCode::Malformed,
            };
            reply(
                &mut conns[idx],
                &Response::Error {
                    code,
                    detail: e.to_string(),
                },
            );
        }
    }
}

/// Validates and normalises a Top-K request into a [`BatchRequest`]:
/// predicates parsed, intensities bounds-checked, atoms ordered by
/// descending intensity (the invariant the PEPS rounds rely on).
fn admit_top_k(
    k: u32,
    atoms: &[wire::WireAtom],
    variant: crate::algo::peps::PepsVariant,
) -> Result<BatchRequest, String> {
    if k == 0 {
        return Err("top-k requires k >= 1".into());
    }
    let mut parsed = Vec::with_capacity(atoms.len());
    for atom in atoms {
        if !atom.intensity.is_finite() || !(0.0..=1.0).contains(&atom.intensity) {
            return Err(format!(
                "intensity {} outside [0, 1] for predicate '{}'",
                atom.intensity, atom.predicate
            ));
        }
        let predicate = parse_predicate(&atom.predicate)
            .map_err(|e| format!("bad predicate '{}': {e}", atom.predicate))?;
        parsed.push((predicate, atom.intensity));
    }
    parsed.sort_by(|a, b| b.1.total_cmp(&a.1));
    let profile = parsed
        .into_iter()
        .enumerate()
        .map(|(i, (predicate, intensity))| PrefAtom::new(i, predicate, intensity))
        .collect();
    Ok(BatchRequest::new(profile, k as usize).with_variant(variant))
}

/// Records counters and writes one batched Top-K answer.
fn finish_top_k(
    state: &SharedState,
    conns: &mut [Conn],
    p: &Pending,
    response: &Response,
    errored: bool,
) {
    state
        .counters
        .total_requests
        .fetch_add(1, Ordering::Relaxed);
    state.tenants.record(p.tenant, errored);
    reply(&mut conns[p.conn], response);
}

/// Encodes and writes one frame to a (non-blocking) connection,
/// retrying short writes; a hard write error closes the connection.
fn reply(conn: &mut Conn, response: &Response) {
    if conn.closed {
        return;
    }
    let payload = wire::encode_response(response);
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    framed.extend_from_slice(&payload);
    let mut off = 0usize;
    while off < framed.len() {
        match conn.stream.write(&framed[off..]) {
            Ok(0) => {
                conn.closed = true;
                return;
            }
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.closed = true;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_table_stops_growing_at_the_cap() {
        let table = TenantTable::default();
        for tenant in 0..(MAX_TENANTS as u64 + 100) {
            table.record(tenant, false);
        }
        let tracked = |table: &TenantTable| table.0.lock().expect("not poisoned").len();
        assert_eq!(tracked(&table), MAX_TENANTS);
        let untracked = MAX_TENANTS as u64 + 50;
        assert_eq!(table.get(untracked), TenantStats::default());

        table.record(7, true);
        table.record(untracked, true);
        assert_eq!(tracked(&table), MAX_TENANTS);
        assert_eq!(
            table.get(7),
            TenantStats {
                requests: 2,
                errors: 1
            }
        );
        assert_eq!(table.get(untracked), TenantStats::default());
    }
}
