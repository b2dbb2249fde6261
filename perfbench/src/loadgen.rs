//! The open-loop load generator: pre-encoded request frames go out on a
//! Poisson schedule over pipelined connections, one generator thread per
//! connection (plus a reader thread that collects its replies), and each
//! request's latency is timed from its *scheduled* send — so a stall is
//! charged to every request that was due during it, even when the
//! generator itself could only send it late.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hypre_core::serve::wire::{self, FrameBuffer, Response};

/// What happened to one request of a step.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Scheduled send, seconds from the step start.
    pub scheduled: f64,
    /// Actual send, seconds from the step start (`None`: never sent).
    pub sent: Option<f64>,
    /// Reply read, seconds from the step start (`None`: no reply).
    pub done: Option<f64>,
    /// Whether the reply decoded to a non-error response.
    pub ok: bool,
    /// The reply payload, when the caller asked to keep it.
    pub reply: Option<Vec<u8>>,
}

impl Outcome {
    /// Latency from the scheduled send, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.scheduled) * 1e3)
    }
}

/// One rate step's record.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// Per request, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Whether the generator held a due request because its connection
    /// already had the most requests in flight; the wait counts in that
    /// request's latency.
    pub throttled: bool,
}

impl Step {
    /// Requests sent.
    pub fn sent(&self) -> usize {
        self.outcomes.iter().filter(|o| o.sent.is_some()).count()
    }

    /// Requests answered without an error.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.ok).count()
    }

    /// Sent requests that failed: an error reply, or no reply in time.
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.sent.is_some() && !o.ok)
            .count()
    }

    /// Latencies (ms from the scheduled send) of the sent requests, in
    /// schedule order; a failed request counts as infinitely late, so it
    /// misses any limit.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.sent.is_some())
            .map(|o| {
                if o.ok {
                    o.latency_ms().unwrap_or(f64::INFINITY)
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// How late the generator sent each request, in milliseconds.
    pub fn send_lags_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.sent.map(|s| (s - o.scheduled) * 1e3))
            .collect()
    }

    /// Whether completions kept pace with sends over the second half of
    /// the sending window: completions in it fall short of the requests
    /// due in it by at most 5% (plus a few for Poisson noise).
    pub fn kept_pace(&self) -> bool {
        let sent = || self.outcomes.iter().filter(|o| o.sent.is_some());
        let Some(end) = sent().map(|o| o.scheduled).reduce(f64::max) else {
            return true;
        };
        let mid = end / 2.0;
        let due = sent()
            .filter(|o| o.scheduled > mid && o.scheduled <= end)
            .count();
        let done = sent()
            .filter(|o| o.done.is_some_and(|d| d > mid && d <= end))
            .count();
        done as f64 + 5.0 >= 0.95 * due as f64
    }
}

/// A payload with its 4-byte big-endian length prefix, ready to write.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    framed.extend_from_slice(payload);
    framed
}

/// Open pipelined client connections.
pub struct Client {
    conns: Vec<TcpStream>,
}

impl Client {
    /// Opens `n` connections to `addr`, with Nagle off on the client side.
    ///
    /// # Errors
    /// The connect error.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Self> {
        let conns = (0..n)
            .map(|_| {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(s)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Client { conns })
    }

    /// Sends one frame and waits for its reply (untimed helper).
    ///
    /// # Errors
    /// The I/O error.
    pub fn call(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        let conn = &mut self.conns[0];
        conn.set_read_timeout(None)?;
        wire::write_frame(conn, payload)?;
        wire::read_frame(conn, wire::MAX_FRAME_BYTES)
    }

    /// Runs one open-loop step from `start`: request `i` (the length-
    /// prefixed [`frame`] `frames[i]`) is due `schedule[i]` seconds after
    /// `start` and goes out on connection `i % n`. Each connection has one
    /// generator thread, which sleeps until the next request is due and
    /// writes it, and one reader thread, which blocks on the socket and
    /// matches replies to requests in order (replies on a connection come
    /// back in request order).
    ///
    /// Sending stops at the first request due after `stop_at_us` (read
    /// while the step runs, so another thread can end an open-ended
    /// step). A connection never has more than `max_in_flight` requests
    /// outstanding: at the cap the generator holds the next request until
    /// a reply frees a slot, and the hold counts in its latency. A request
    /// unanswered `timeout_s` after its scheduled send fails, and so does
    /// everything still outstanding then. `keep[i]` keeps request `i`'s
    /// reply payload.
    #[allow(clippy::too_many_arguments)]
    pub fn run_step(
        &mut self,
        start: Instant,
        frames: &[Vec<u8>],
        schedule: &[f64],
        keep: &[bool],
        stop_at_us: &AtomicU64,
        max_in_flight: usize,
        timeout_s: f64,
    ) -> Step {
        let n = self.conns.len();
        let throttled = AtomicBool::new(false);
        let mut outcomes: Vec<Outcome> = schedule
            .iter()
            .map(|&scheduled| Outcome {
                scheduled,
                ..Outcome::default()
            })
            .collect();
        let per_conn: Vec<(Vec<Sent>, Vec<Reply>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let mine: Vec<usize> = (c..schedule.len()).step_by(n).collect();
                    let reader = conn.try_clone().expect("socket clones");
                    let in_flight = Arc::new(AtomicUsize::new(0));
                    let gone = Arc::new(AtomicBool::new(false));
                    let (tx, rx) = mpsc::channel::<usize>();
                    let throttled = &throttled;
                    let sender = {
                        let (in_flight, gone) = (Arc::clone(&in_flight), Arc::clone(&gone));
                        scope.spawn(move || {
                            let mut sent = Vec::with_capacity(mine.len());
                            'send: for &i in &mine {
                                let due = schedule[i];
                                if (due * 1e6) as u64 > stop_at_us.load(Ordering::SeqCst) {
                                    break;
                                }
                                sleep_until(start, due);
                                while in_flight.load(Ordering::SeqCst) >= max_in_flight {
                                    if gone.load(Ordering::SeqCst) {
                                        break 'send;
                                    }
                                    throttled.store(true, Ordering::Relaxed);
                                    std::thread::sleep(HOLD);
                                }
                                in_flight.fetch_add(1, Ordering::SeqCst);
                                if tx.send(i).is_err() || conn.write_all(&frames[i]).is_err() {
                                    break;
                                }
                                sent.push((i, start.elapsed().as_secs_f64()));
                            }
                            sent
                        })
                    };
                    let receiver = scope.spawn(move || {
                        let replies = collect_replies(
                            reader, &rx, &in_flight, schedule, keep, start, timeout_s,
                        );
                        gone.store(true, Ordering::SeqCst);
                        replies
                    });
                    (sender, receiver)
                })
                .collect();
            handles
                .into_iter()
                .map(|(s, r)| {
                    (
                        s.join().expect("generator thread panicked"),
                        r.join().expect("reader thread panicked"),
                    )
                })
                .collect()
        });
        for (sent, replies) in per_conn {
            for (i, t) in sent {
                outcomes[i].sent = Some(t);
            }
            for (i, done, ok, reply) in replies {
                let o = &mut outcomes[i];
                o.done = Some(done);
                o.ok = ok;
                o.reply = reply;
            }
        }
        Step {
            outcomes,
            throttled: throttled.load(Ordering::SeqCst),
        }
    }
}

/// How long a generator at the in-flight cap waits before looking again.
const HOLD: Duration = Duration::from_micros(100);
/// How often a blocked reader wakes to check for a stuck request.
const READ_TICK: Duration = Duration::from_millis(50);

/// Sleeps until `due` seconds after `start` (returns at once when late).
fn sleep_until(start: Instant, due: f64) {
    let now = start.elapsed().as_secs_f64();
    if due > now {
        std::thread::sleep(Duration::from_secs_f64(due - now));
    }
}

/// A written request: its index and when its last byte was written.
type Sent = (usize, f64);

/// An answered request: its index, when the reply was read, whether it
/// was a non-error response, and the payload when kept.
type Reply = (usize, f64, bool, Option<Vec<u8>>);

/// One connection's reader: blocks on the socket and matches each reply
/// frame to the oldest request the generator has written. Returns
/// `(request, reply time, ok, kept payload)` per answered request; it ends
/// once the generator is done and nothing is outstanding, or when the
/// oldest request has waited `timeout_s` since it was due.
fn collect_replies(
    mut conn: TcpStream,
    rx: &mpsc::Receiver<usize>,
    in_flight: &AtomicUsize,
    schedule: &[f64],
    keep: &[bool],
    start: Instant,
    timeout_s: f64,
) -> Vec<Reply> {
    let mut out = Vec::new();
    let mut frames = FrameBuffer::new(wire::MAX_FRAME_BYTES);
    let mut scratch = vec![0u8; 64 * 1024];
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut generator_done = false;
    if conn.set_read_timeout(Some(READ_TICK)).is_err() {
        return out;
    }
    loop {
        loop {
            match rx.try_recv() {
                Ok(i) => pending.push_back(i),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    generator_done = true;
                    break;
                }
            }
        }
        if pending.is_empty() {
            if generator_done {
                break;
            }
            match rx.recv_timeout(READ_TICK) {
                Ok(i) => pending.push_back(i),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => generator_done = true,
            }
            continue;
        }
        let now = start.elapsed().as_secs_f64();
        if pending
            .front()
            .is_some_and(|&i| now - schedule[i] > timeout_s)
        {
            // The server is stuck: everything outstanding has failed. Close
            // the connection so a generator blocked writing to it returns.
            let _ = conn.shutdown(std::net::Shutdown::Both);
            break;
        }
        match conn.read(&mut scratch) {
            Ok(0) => break,
            Ok(len) => {
                let done = start.elapsed().as_secs_f64();
                frames.extend(&scratch[..len]);
                while let Ok(Some(payload)) = frames.next_frame() {
                    // A reply can overtake the generator's notice of its
                    // request by a moment: wait for the notice.
                    let next = match pending.pop_front() {
                        Some(i) => i,
                        None => match rx.recv() {
                            Ok(i) => i,
                            Err(_) => break,
                        },
                    };
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    let ok = matches!(
                        wire::decode_response(&payload),
                        Ok(r) if !matches!(r, Response::Error { .. })
                    );
                    let kept = keep[next].then_some(payload);
                    out.push((next, done, ok, kept));
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
    out
}
