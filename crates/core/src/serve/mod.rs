//! A std-only TCP serving loop over the batch scheduler: one blocking
//! thread per connection, length-prefix framed, admission-controlled.
//!
//! # Architecture
//!
//! An acceptor thread spawns one thread per connection. That thread
//! loops: one blocking `read`, reassembled into frames
//! ([`wire::FrameBuffer`]); the `TopK` requests of every frame that read
//! completed go to one [`BatchScheduler`] run, so requests with the same
//! profile identity share a single round evaluation; the replies are
//! built in request order into one buffer and sent with one blocking
//! `write_all`. Answers are byte-identical to solo execution — batching
//! changes wall-clock, never results (see [`crate::sched`]).
//!
//! A client that stops reading blocks only its own thread, and TCP flow
//! control then stops it from sending. [`Server::shutdown`] shuts every
//! socket down, which wakes a blocked read or write, and joins the
//! threads. [`ServeConfig::shards`] bounds how many connections evaluate
//! a batch at once; a connection leaves that gate before it writes.
//!
//! # Admission control
//!
//! Typed bounds, no panics (the crate denies `unwrap`/`expect`):
//!
//! * **frame size** — a frame whose *declared* length exceeds
//!   [`ServeConfig::max_frame_bytes`] is rejected with
//!   [`wire::ErrorCode::FrameTooLarge`] before any payload is buffered,
//!   and the connection is closed (a lying length prefix cannot be
//!   resynced). The server itself keeps serving.
//! * **queue depth** — one read admits at most
//!   [`ServeConfig::queue_capacity`] Top-K requests into its batch; the
//!   rest are rejected with [`wire::ErrorCode::Overloaded`] and the
//!   connection stays open.
//! * **connections** — a connection accepted while [`MAX_CONNECTIONS`]
//!   are served is closed.
//! * **profile size** — a Top-K request with more than
//!   [`MAX_PROFILE_ATOMS`] atoms is rejected with
//!   [`wire::ErrorCode::BadRequest`] before any work, and the connection
//!   stays open.
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
//! Each batch holds the epoch current when it starts
//! ([`EpochCache::current`]), so an [`EpochCache::ingest`] never blocks
//! serving and never tears a batch.

pub mod wire;

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use relstore::{parse_predicate, Database};

use crate::combine::PrefAtom;
use crate::error::HypreError;
use crate::exec::EpochCache;
use crate::sched::{BatchRequest, BatchScheduler};

use wire::{ErrorCode, FrameBuffer, Request, Response, StatsReply, WireError};

/// Server tuning knobs. `Default` suits tests and examples.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; `127.0.0.1:0` picks a free port.
    pub addr: String,
    /// Most connections evaluating a batch at once; `0` means one per
    /// core.
    pub shards: usize,
    /// Bound on the Top-K requests one read admits into its batch; the
    /// rest get a typed [`ErrorCode::Overloaded`] rejection.
    pub queue_capacity: usize,
    /// Frame-size admission bound (declared payload length).
    pub max_frame_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 0,
            queue_capacity: 256,
            max_frame_bytes: wire::MAX_FRAME_BYTES,
        }
    }
}

/// How many connections the server serves at once. Each one holds a
/// thread and a 256 KiB read buffer, so their number must not grow
/// with the clients: a connection accepted while this many are open is
/// closed at once, and its client reads EOF.
pub const MAX_CONNECTIONS: usize = 256;

/// The most atoms a Top-K request's profile may have. A profile of `n`
/// atoms builds a pairwise table of `n(n−1)/2` entries, 32 bytes each,
/// while it holds an evaluation place: at this bound that is about
/// 16 MiB, where the ~47k atoms a 1 MiB frame can carry would ask for
/// ~35 GB.
pub const MAX_PROFILE_ATOMS: usize = 1024;

/// The most one blocking read takes off a connection. Each read's Top-K
/// requests become one scheduler batch, so the buffer must take a
/// pipelining client's whole backlog at once, or its batches shrink: at
/// 16 KiB, a pipelined Zipf workload with live ingest served about a
/// quarter fewer requests per second.
const READ_BYTES: usize = 256 * 1024;

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
    /// Groups whose pairwise table came from the snapshot's memo, or was
    /// extended from a memoised table of the group's snapshot atoms (see
    /// [`BatchStats::pairwise_reused`](crate::sched::BatchStats::pairwise_reused)).
    pub pairwise_reused: u64,
    /// Answers taken from the snapshot's memo instead of a PEPS run (see
    /// [`BatchStats::answers_reused`](crate::sched::BatchStats::answers_reused)).
    /// The wire `Stats` reply does not carry it.
    pub answers_reused: u64,
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
    pairwise_reused: AtomicU64,
    answers_reused: AtomicU64,
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
            pairwise_reused: self.pairwise_reused.load(Ordering::Relaxed),
            answers_reused: self.answers_reused.load(Ordering::Relaxed),
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
    stop: AtomicBool,
    counters: Counters,
    tenants: TenantTable,
    gate: Gate,
}

impl SharedState {
    /// Counts one answered Top-K request.
    fn record_top_k(&self, tenant: u64, errored: bool) {
        self.counters.total_requests.fetch_add(1, Ordering::Relaxed);
        self.tenants.record(tenant, errored);
    }

    /// Counts a frame that failed to decode, and answers it with a typed
    /// error.
    fn protocol_error(&self, code: ErrorCode, detail: String) -> Slot {
        self.counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        Slot::Reply(Response::Error { code, detail })
    }
}

/// Locks a mutex, recovering from poisoning: every value guarded here is
/// a counter, updated in one step.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-tenant counters for at most [`MAX_TENANTS`] tenants.
#[derive(Default)]
struct TenantTable(Mutex<HashMap<u64, TenantStats>>);

impl TenantTable {
    fn get(&self, tenant: u64) -> TenantStats {
        lock(&self.0).get(&tenant).copied().unwrap_or_default()
    }

    fn record(&self, tenant: u64, errored: bool) {
        let mut map = lock(&self.0);
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

/// Lets at most `limit` connections evaluate a batch at once
/// ([`ServeConfig::shards`]).
struct Gate {
    limit: usize,
    held: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    /// Waits for a free place; the place is held until the permit drops.
    fn enter(&self) -> Permit<'_> {
        let held = self
            .freed
            .wait_while(lock(&self.held), |held| *held >= self.limit);
        *held.unwrap_or_else(PoisonError::into_inner) += 1;
        Permit(self)
    }
}

struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *lock(&self.0.held) -= 1;
        self.0.freed.notify_one();
    }
}

/// A connection's thread, and a second handle on its socket to wake it
/// with at shutdown.
type Connection = (TcpStream, JoinHandle<()>);

/// The running server: a handle that owns the acceptor thread, which
/// owns the connection threads. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting, wakes every thread and joins
/// them.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<SharedState>,
    acceptor: Option<JoinHandle<Vec<Connection>>>,
}

impl Server {
    /// Binds, spawns the acceptor thread, and returns once the server is
    /// accepting.
    ///
    /// # Errors
    /// The `io::Error` when binding or spawning fails.
    pub fn start(
        db: Arc<Database>,
        epochs: Arc<EpochCache>,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let limit = if config.shards == 0 {
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
            stop: AtomicBool::new(false),
            counters: Counters::default(),
            tenants: TenantTable::default(),
            gate: Gate {
                limit,
                held: Mutex::new(0),
                freed: Condvar::new(),
            },
        });
        let state = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("hypre-accept".into())
            .spawn(move || accept_loop(&state, &listener))?;
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
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

    /// Stops accepting, wakes and joins every thread, and returns once
    /// they have all exited.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::Relaxed);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let connections = acceptor.join().unwrap_or_default();
        // Wake each connection thread from a blocked read or write.
        for (stream, _) in &connections {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, thread) in connections {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Spawns a thread per accepted connection until the server stops, and
/// returns the connections that may still be running.
fn accept_loop(state: &Arc<SharedState>, listener: &TcpListener) -> Vec<Connection> {
    let mut connections: Vec<Connection> = Vec::new();
    for stream in listener.incoming() {
        if state.stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        state.counters.connections.fetch_add(1, Ordering::Relaxed);
        for (_, thread) in connections.extract_if(.., |(_, thread)| thread.is_finished()) {
            let _ = thread.join();
        }
        if connections.len() >= MAX_CONNECTIONS {
            continue; // dropping the only handle closes the socket
        }
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let conn_state = Arc::clone(state);
        let spawned = std::thread::Builder::new()
            .name("hypre-conn".into())
            .spawn(move || serve_connection(&conn_state, stream));
        if let Ok(thread) = spawned {
            connections.push((handle, thread));
        }
    }
    connections
}

/// One connection's loop: a blocking read, then one blocking write of
/// the replies to every frame it completed. Ends when the client hangs
/// up, a frame cannot be resynced or a socket call fails, which
/// [`Server::shutdown`] forces.
fn serve_connection(state: &SharedState, mut stream: TcpStream) {
    let mut frames = FrameBuffer::new(state.config.max_frame_bytes);
    let mut buf = vec![0u8; READ_BYTES];
    let mut out = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => frames.extend(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        out.clear();
        let open = answer(state, &mut frames, &mut out);
        if stream.write_all(&out).is_err() || !open {
            break;
        }
    }
    // The acceptor holds another handle on this socket, so dropping this
    // one would not close it.
    let _ = stream.shutdown(Shutdown::Both);
}

/// One decoded request's place in the reply stream.
enum Slot {
    /// A reply fixed when the frame was decoded.
    Reply(Response),
    /// A `Stats` request, answered in turn so that it counts every
    /// request before it.
    Stats(u64),
    /// A Top-K request admitted to the batch: its answer is the batch's
    /// next one.
    Admitted(u64),
    /// A Top-K request (tenant, code, detail) refused before evaluation.
    Refused(u64, ErrorCode, String),
}

/// Decodes every complete frame in `frames`, evaluates the admitted
/// Top-K requests as one batch, and appends the replies to `out` in
/// request order. Returns `false` when the connection must close.
fn answer(state: &SharedState, frames: &mut FrameBuffer, out: &mut Vec<u8>) -> bool {
    let mut slots = Vec::new();
    let mut batch = Vec::new();
    let open = loop {
        match frames.next_frame() {
            Ok(Some(payload)) => slots.push(decode(state, &payload, &mut batch)),
            Ok(None) => break true,
            // Only `TooLarge` can surface here: the stream cannot be
            // resynced after a lying length prefix, so send the typed
            // rejection and close.
            Err(too_large) => {
                let detail = too_large.to_string();
                slots.push(state.protocol_error(ErrorCode::FrameTooLarge, detail));
                break false;
            }
        }
    };
    let mut answers = evaluate(state, &batch).into_iter();
    for slot in slots {
        let response = match slot {
            Slot::Reply(response) => response,
            Slot::Stats(tenant) => stats_reply(state, tenant),
            Slot::Admitted(tenant) => {
                let Some(response) = answers.next() else {
                    unreachable!("evaluate answers every admitted request")
                };
                state.record_top_k(tenant, matches!(response, Response::Error { .. }));
                response
            }
            Slot::Refused(tenant, code, detail) => {
                if code == ErrorCode::Overloaded {
                    state.counters.overloads.fetch_add(1, Ordering::Relaxed);
                }
                state.record_top_k(tenant, true);
                Response::Error { code, detail }
            }
        };
        let payload = wire::encode_response(&response);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&payload);
    }
    open
}

/// Decodes one frame, admitting a valid Top-K request into `batch` while
/// it has room.
fn decode(state: &SharedState, payload: &[u8], batch: &mut Vec<BatchRequest>) -> Slot {
    match wire::decode_request(payload) {
        Ok(Request::Ping) => Slot::Reply(Response::Pong),
        Ok(Request::Stats { tenant }) => Slot::Stats(tenant),
        Ok(Request::TopK {
            tenant,
            k,
            variant,
            atoms,
        }) => {
            let capacity = state.config.queue_capacity;
            if batch.len() >= capacity {
                let detail = format!("admission queue full ({capacity} pending)");
                return Slot::Refused(tenant, ErrorCode::Overloaded, detail);
            }
            match admit_top_k(k, &atoms, variant) {
                Ok(request) => {
                    batch.push(request);
                    Slot::Admitted(tenant)
                }
                Err(detail) => Slot::Refused(tenant, ErrorCode::BadRequest, detail),
            }
        }
        Err(e) => {
            let code = match e {
                WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
                _ => ErrorCode::Malformed,
            };
            state.protocol_error(code, e.to_string())
        }
    }
}

/// Validates and normalises a Top-K request into a [`BatchRequest`]:
/// profile size bounded, predicates parsed, intensities bounds-checked,
/// atoms ordered by descending intensity (the invariant the PEPS rounds
/// rely on).
fn admit_top_k(
    k: u32,
    atoms: &[wire::WireAtom],
    variant: crate::algo::peps::PepsVariant,
) -> Result<BatchRequest, String> {
    if k == 0 {
        return Err("top-k requires k >= 1".into());
    }
    if atoms.len() > MAX_PROFILE_ATOMS {
        return Err(format!(
            "profile has {} atoms; at most {MAX_PROFILE_ATOMS} are served",
            atoms.len()
        ));
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

/// Runs the admitted requests as one batch on the current epoch, inside
/// the [`Gate`]; one response per request, in order.
fn evaluate(state: &SharedState, batch: &[BatchRequest]) -> Vec<Response> {
    if batch.is_empty() {
        return Vec::new();
    }
    let outcome = {
        let _permit = state.gate.enter();
        let epoch = state.epochs.current();
        BatchScheduler::sequential().run(&state.db, epoch.cache(), batch)
    };
    state.counters.batches.fetch_add(1, Ordering::Relaxed);
    let engine_error = |e: &HypreError| Response::Error {
        code: ErrorCode::Engine,
        detail: e.to_string(),
    };
    match outcome {
        Ok(outcome) => {
            let counters = &state.counters;
            counters
                .groups
                .fetch_add(outcome.stats.groups as u64, Ordering::Relaxed);
            counters
                .shared
                .fetch_add(outcome.stats.shared as u64, Ordering::Relaxed);
            counters
                .pairwise_reused
                .fetch_add(outcome.stats.pairwise_reused as u64, Ordering::Relaxed);
            counters
                .answers_reused
                .fetch_add(outcome.stats.answers_reused as u64, Ordering::Relaxed);
            outcome
                .results
                .into_iter()
                .map(|result| match result {
                    Ok(ranked) => Response::TopK(ranked),
                    Err(e) => engine_error(&e),
                })
                .collect()
        }
        Err(e) => batch.iter().map(|_| engine_error(&e)).collect(),
    }
}

/// The `Stats` reply for `tenant`, from the counters as they stand.
fn stats_reply(state: &SharedState, tenant: u64) -> Response {
    let snap = state.counters.snapshot();
    let per_tenant = state.tenants.get(tenant);
    Response::Stats(StatsReply {
        tenant,
        tenant_requests: per_tenant.requests,
        tenant_errors: per_tenant.errors,
        total_requests: snap.total_requests,
        batches: snap.batches,
        groups: snap.groups,
        shared: snap.shared,
        overloads: snap.overloads,
    })
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
