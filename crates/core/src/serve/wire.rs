//! The hand-rolled length-prefixed binary protocol the serving loop
//! speaks — std-only, no serialization dependency.
//!
//! # Framing
//!
//! Every frame is a 4-byte big-endian payload length followed by the
//! payload; the payload's first byte is the opcode. A declared length
//! above the connection's max-frame bound is rejected *before* any
//! payload is buffered ([`WireError::TooLarge`]) — the admission bound
//! that stops a hostile length prefix from ballooning server memory.
//! All multi-byte integers are big-endian; floats travel as IEEE-754
//! bit patterns; strings as a `u32` byte length plus UTF-8 bytes.
//!
//! # Frame types
//!
//! | opcode | frame | direction |
//! |--------|-------|-----------|
//! | `0x01` | [`Request::TopK`] | client → server |
//! | `0x02` | [`Request::Stats`] | client → server |
//! | `0x03` | [`Request::Ping`] | client → server |
//! | `0x81` | [`Response::TopK`] | server → client |
//! | `0x82` | [`Response::Stats`] | server → client |
//! | `0x83` | [`Response::Pong`] | server → client |
//! | `0x7F` | [`Response::Error`] | server → client |
//!
//! Decoding is total: any malformed payload maps to a typed
//! [`WireError`], never a panic — the connection loop answers with an
//! [`ErrorCode`] frame and keeps serving.

use std::fmt;
use std::io::{self, Read, Write};

use relstore::Value;

use crate::algo::peps::{PepsVariant, RankedTuple};

/// Default per-connection frame-size admission bound (1 MiB).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

const OP_TOP_K: u8 = 0x01;
const OP_STATS: u8 = 0x02;
const OP_PING: u8 = 0x03;
const OP_TOP_K_REPLY: u8 = 0x81;
const OP_STATS_REPLY: u8 = 0x82;
const OP_PONG: u8 = 0x83;
const OP_ERROR: u8 = 0x7F;

/// One profile atom as it travels on the wire: canonical predicate text
/// plus intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAtom {
    /// Predicate source text (parsed server-side with
    /// [`relstore::parse_predicate`]).
    pub predicate: String,
    /// Quantitative intensity in `[0, 1]`.
    pub intensity: f64,
}

/// A client request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A Top-K preference query for one tenant session.
    TopK {
        /// The tenant the session belongs to (stats attribution).
        tenant: u64,
        /// How many tuples to return.
        k: u32,
        /// Which PEPS variant to run.
        variant: PepsVariant,
        /// The profile, in descending intensity order.
        atoms: Vec<WireAtom>,
    },
    /// Asks for the server's counters plus the tenant's own.
    Stats {
        /// Whose per-tenant counters to report.
        tenant: u64,
    },
    /// Liveness probe.
    Ping,
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The ranked answer to a [`Request::TopK`].
    TopK(Vec<RankedTuple>),
    /// The answer to a [`Request::Stats`].
    Stats(StatsReply),
    /// The answer to a [`Request::Ping`].
    Pong,
    /// A typed rejection; the connection stays usable unless the code
    /// says otherwise (see [`ErrorCode`]).
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

/// Counters reported by [`Response::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// The tenant the per-tenant fields describe.
    pub tenant: u64,
    /// Top-K requests this tenant has had answered (errors included).
    pub tenant_requests: u64,
    /// This tenant's requests that ended in an error frame.
    pub tenant_errors: u64,
    /// Top-K requests answered across all tenants.
    pub total_requests: u64,
    /// Batches the scheduler has run.
    pub batches: u64,
    /// Distinct profile-identity groups across those batches.
    pub groups: u64,
    /// Requests answered off another session's evaluation.
    pub shared: u64,
    /// Requests rejected by the bounded admission queue.
    pub overloads: u64,
}

/// Typed rejection codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The read's batch already held the bounded number of admitted
    /// Top-K requests; retry later. The connection stays open.
    Overloaded,
    /// The frame's declared length exceeded the admission bound; the
    /// server closes the connection (the stream cannot be resynced).
    FrameTooLarge,
    /// The payload did not decode (truncated body, bad UTF-8, trailing
    /// bytes). The connection stays open.
    Malformed,
    /// The opcode byte is not a request opcode. The connection stays
    /// open.
    UnknownOpcode,
    /// The request decoded but was semantically invalid (unparsable
    /// predicate, `k = 0`). The connection stays open.
    BadRequest,
    /// The preference engine failed the request. The connection stays
    /// open.
    Engine,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::FrameTooLarge => 2,
            ErrorCode::Malformed => 3,
            ErrorCode::UnknownOpcode => 4,
            ErrorCode::BadRequest => 5,
            ErrorCode::Engine => 6,
        }
    }

    fn from_u8(raw: u8) -> Result<Self, WireError> {
        Ok(match raw {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::FrameTooLarge,
            3 => ErrorCode::Malformed,
            4 => ErrorCode::UnknownOpcode,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::Engine,
            other => return Err(WireError::BadErrorCode(other)),
        })
    }
}

/// Why a payload failed to decode. Every variant is a recoverable,
/// typed condition — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field it declared.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        got: usize,
    },
    /// A frame declared a length above the admission bound.
    TooLarge {
        /// The declared payload length.
        declared: usize,
        /// The connection's bound.
        max: usize,
    },
    /// The opcode byte matches no frame type.
    UnknownOpcode(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the last declared field.
    TrailingBytes(usize),
    /// A `Value` tag byte matches no variant.
    BadValueTag(u8),
    /// An error-code byte matches no [`ErrorCode`].
    BadErrorCode(u8),
    /// A PEPS-variant byte matches no [`PepsVariant`].
    BadVariant(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(
                    f,
                    "truncated payload: field needs {needed} bytes, {got} left"
                )
            }
            WireError::TooLarge { declared, max } => {
                write!(
                    f,
                    "frame declares {declared} bytes, admission bound is {max}"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last field"),
            WireError::BadValueTag(t) => write!(f, "unknown value tag {t}"),
            WireError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            WireError::BadVariant(v) => write!(f, "unknown PEPS variant {v}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Payload encoding

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(x) => {
            buf.push(2);
            put_f64(buf, *x);
        }
        Value::Str(s) => {
            buf.push(3);
            put_str(buf, s);
        }
    }
}

fn variant_byte(v: PepsVariant) -> u8 {
    match v {
        PepsVariant::Complete => 0,
        PepsVariant::Approximate => 1,
    }
}

/// Encodes a request payload (opcode byte included, length prefix not).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::TopK {
            tenant,
            k,
            variant,
            atoms,
        } => {
            buf.push(OP_TOP_K);
            put_u64(&mut buf, *tenant);
            put_u32(&mut buf, *k);
            buf.push(variant_byte(*variant));
            put_u32(&mut buf, atoms.len() as u32);
            for atom in atoms {
                put_f64(&mut buf, atom.intensity);
                put_str(&mut buf, &atom.predicate);
            }
        }
        Request::Stats { tenant } => {
            buf.push(OP_STATS);
            put_u64(&mut buf, *tenant);
        }
        Request::Ping => buf.push(OP_PING),
    }
    buf
}

/// Encodes a response payload (opcode byte included, length prefix not).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::TopK(ranked) => {
            buf.push(OP_TOP_K_REPLY);
            put_u32(&mut buf, ranked.len() as u32);
            for (value, score) in ranked {
                put_value(&mut buf, value);
                put_f64(&mut buf, *score);
            }
        }
        Response::Stats(s) => {
            buf.push(OP_STATS_REPLY);
            for v in [
                s.tenant,
                s.tenant_requests,
                s.tenant_errors,
                s.total_requests,
                s.batches,
                s.groups,
                s.shared,
                s.overloads,
            ] {
                put_u64(&mut buf, v);
            }
        }
        Response::Pong => buf.push(OP_PONG),
        Response::Error { code, detail } => {
            buf.push(OP_ERROR);
            buf.push(code.to_u8());
            put_str(&mut buf, detail);
        }
    }
    buf
}

// ---------------------------------------------------------------------
// Payload decoding

/// A bounds-checked cursor over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let left = self.buf.len() - self.pos;
        if left < n {
            return Err(WireError::Truncated {
                needed: n,
                got: left,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Ok(u32::from_be_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_be_bytes(raw))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(i64::from_be_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn value(&mut self) -> Result<Value, WireError> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Str(self.string()?),
            tag => return Err(WireError::BadValueTag(tag)),
        })
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left > 0 {
            return Err(WireError::TrailingBytes(left));
        }
        Ok(())
    }
}

fn decode_variant(raw: u8) -> Result<PepsVariant, WireError> {
    Ok(match raw {
        0 => PepsVariant::Complete,
        1 => PepsVariant::Approximate,
        other => return Err(WireError::BadVariant(other)),
    })
}

/// Decodes a request payload.
///
/// # Errors
/// A typed [`WireError`] for any malformed input; never panics.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let req = match r.u8()? {
        OP_TOP_K => {
            let tenant = r.u64()?;
            let k = r.u32()?;
            let variant = decode_variant(r.u8()?)?;
            let n = r.u32()? as usize;
            // Cap the pre-allocation by what the payload could actually
            // hold (≥ 12 bytes per atom), so a lying count cannot
            // balloon memory before `take` rejects it.
            let mut atoms = Vec::with_capacity(n.min(payload.len() / 12 + 1));
            for _ in 0..n {
                let intensity = r.f64()?;
                let predicate = r.string()?;
                atoms.push(WireAtom {
                    predicate,
                    intensity,
                });
            }
            Request::TopK {
                tenant,
                k,
                variant,
                atoms,
            }
        }
        OP_STATS => Request::Stats { tenant: r.u64()? },
        OP_PING => Request::Ping,
        op => return Err(WireError::UnknownOpcode(op)),
    };
    r.finish()?;
    Ok(req)
}

/// Decodes a response payload.
///
/// # Errors
/// A typed [`WireError`] for any malformed input; never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let resp = match r.u8()? {
        OP_TOP_K_REPLY => {
            let n = r.u32()? as usize;
            let mut ranked = Vec::with_capacity(n.min(payload.len() / 9 + 1));
            for _ in 0..n {
                let value = r.value()?;
                let score = r.f64()?;
                ranked.push((value, score));
            }
            Response::TopK(ranked)
        }
        OP_STATS_REPLY => Response::Stats(StatsReply {
            tenant: r.u64()?,
            tenant_requests: r.u64()?,
            tenant_errors: r.u64()?,
            total_requests: r.u64()?,
            batches: r.u64()?,
            groups: r.u64()?,
            shared: r.u64()?,
            overloads: r.u64()?,
        }),
        OP_PONG => Response::Pong,
        OP_ERROR => {
            let code = ErrorCode::from_u8(r.u8()?)?;
            let detail = r.string()?;
            Response::Error { code, detail }
        }
        op => return Err(WireError::UnknownOpcode(op)),
    };
    r.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Framing

/// Writes one length-prefixed frame (blocking).
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame (blocking) — the client-side helper;
/// the server reassembles frames incrementally via [`FrameBuffer`].
///
/// # Errors
/// `InvalidData` when the declared length exceeds `max`; otherwise the
/// underlying I/O error (including `UnexpectedEof` on truncation).
pub fn read_frame(r: &mut impl Read, max: usize) -> io::Result<Vec<u8>> {
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    let len = u32::from_be_bytes(head) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::TooLarge { declared: len, max }.to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Incremental frame reassembly over a stream read in chunks: bytes go
/// in as each read returns them, complete payloads come out — with the
/// max-frame admission bound enforced on the *declared* length, before
/// buffering. Taking a frame only advances a start offset; the consumed
/// prefix is dropped once per [`extend`](Self::extend), so a read that
/// carries many frames costs one compaction, not one copy per frame.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Where the unconsumed bytes of `buf` begin.
    start: usize,
    max: usize,
}

impl FrameBuffer {
    /// A buffer enforcing the given frame-size admission bound.
    pub fn new(max: usize) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            start: 0,
            max,
        }
    }

    /// Appends bytes read off the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete payload, if one has fully arrived.
    ///
    /// # Errors
    /// [`WireError::TooLarge`] when the next frame's declared length
    /// exceeds the bound — the connection cannot be resynced and should
    /// be closed after the typed rejection is sent.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let mut head = [0u8; 4];
        head.copy_from_slice(&pending[..4]);
        let len = u32::from_be_bytes(head) as usize;
        if len > self.max {
            return Err(WireError::TooLarge {
                declared: len,
                max: self.max,
            });
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let payload = pending[4..4 + len].to_vec();
        self.start += 4 + len;
        Ok(Some(payload))
    }

    /// Bytes currently buffered (partial frame included).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::TopK {
                tenant: 42,
                k: 10,
                variant: PepsVariant::Complete,
                atoms: vec![
                    WireAtom {
                        predicate: "dblp.year>=2010".into(),
                        intensity: 0.75,
                    },
                    WireAtom {
                        predicate: "dblp.venue='VLDB'".into(),
                        intensity: 0.5,
                    },
                ],
            },
            Request::TopK {
                tenant: 0,
                k: 1,
                variant: PepsVariant::Approximate,
                atoms: vec![],
            },
            Request::Stats { tenant: 7 },
            Request::Ping,
        ];
        for req in reqs {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips_every_value_variant() {
        let resps = [
            Response::TopK(vec![
                (Value::Int(3), 0.9),
                (Value::Str("p. 12".into()), 0.5),
                (Value::Float(2.5), 0.25),
                (Value::Null, 0.0),
            ]),
            Response::TopK(vec![]),
            Response::Stats(StatsReply {
                tenant: 9,
                tenant_requests: 4,
                tenant_errors: 1,
                total_requests: 100,
                batches: 12,
                groups: 30,
                shared: 70,
                overloads: 2,
            }),
            Response::Pong,
            Response::Error {
                code: ErrorCode::Overloaded,
                detail: "queue full".into(),
            },
        ];
        for resp in resps {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn every_error_code_round_trips() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::FrameTooLarge,
            ErrorCode::Malformed,
            ErrorCode::UnknownOpcode,
            ErrorCode::BadRequest,
            ErrorCode::Engine,
        ] {
            let resp = Response::Error {
                code,
                detail: String::new(),
            };
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_yield_typed_errors() {
        assert!(matches!(
            decode_request(&[]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            decode_request(&[0x55]),
            Err(WireError::UnknownOpcode(0x55))
        ));
        // TopK header cut short
        let mut good = encode_request(&Request::Stats { tenant: 3 });
        good.truncate(4);
        assert!(matches!(
            decode_request(&good),
            Err(WireError::Truncated { .. })
        ));
        // trailing garbage
        let mut padded = encode_request(&Request::Ping);
        padded.push(0);
        assert!(matches!(
            decode_request(&padded),
            Err(WireError::TrailingBytes(1))
        ));
        // invalid UTF-8 in a predicate
        let mut req = encode_request(&Request::TopK {
            tenant: 1,
            k: 1,
            variant: PepsVariant::Complete,
            atoms: vec![WireAtom {
                predicate: "ab".into(),
                intensity: 1.0,
            }],
        });
        let n = req.len();
        req[n - 1] = 0xFF;
        req[n - 2] = 0xFE;
        assert_eq!(decode_request(&req), Err(WireError::BadUtf8));
        // bad variant byte
        let mut req = encode_request(&Request::TopK {
            tenant: 1,
            k: 1,
            variant: PepsVariant::Complete,
            atoms: vec![],
        });
        req[13] = 9;
        assert_eq!(decode_request(&req), Err(WireError::BadVariant(9)));
        // bad value tag / error code on the response side
        assert!(matches!(
            decode_response(&[OP_TOP_K_REPLY, 0, 0, 0, 1, 250]),
            Err(WireError::BadValueTag(250))
        ));
        assert!(matches!(
            decode_response(&[OP_ERROR, 200, 0, 0, 0, 0]),
            Err(WireError::BadErrorCode(200))
        ));
        // a lying atom count must not balloon memory: it trips Truncated
        let mut lying = vec![OP_TOP_K];
        lying.extend_from_slice(&0u64.to_be_bytes());
        lying.extend_from_slice(&1u32.to_be_bytes());
        lying.push(0);
        lying.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_request(&lying),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let payload = encode_request(&Request::Stats { tenant: 11 });
        let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(&payload);
        let mut fb = FrameBuffer::new(MAX_FRAME_BYTES);
        for &b in &framed[..framed.len() - 1] {
            fb.extend(&[b]);
            assert_eq!(fb.next_frame().unwrap(), None, "partial frame");
        }
        fb.extend(&framed[framed.len() - 1..]);
        assert_eq!(fb.next_frame().unwrap(), Some(payload));
        assert_eq!(fb.next_frame().unwrap(), None);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_yields_pipelined_frames_in_order() {
        let a = encode_request(&Request::Ping);
        let b = encode_request(&Request::Stats { tenant: 2 });
        let mut wirebytes = Vec::new();
        for p in [&a, &b] {
            wirebytes.extend_from_slice(&(p.len() as u32).to_be_bytes());
            wirebytes.extend_from_slice(p);
        }
        let mut fb = FrameBuffer::new(MAX_FRAME_BYTES);
        fb.extend(&wirebytes);
        assert_eq!(fb.next_frame().unwrap(), Some(a));
        assert_eq!(fb.next_frame().unwrap(), Some(b));
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_buffer_keeps_a_partial_frame_across_the_compaction() {
        let a = encode_request(&Request::Ping);
        let b = encode_request(&Request::Stats { tenant: 7 });
        let mut wirebytes = Vec::new();
        for p in [&a, &b] {
            wirebytes.extend_from_slice(&(p.len() as u32).to_be_bytes());
            wirebytes.extend_from_slice(p);
        }
        let split = wirebytes.len() - 2;
        let mut fb = FrameBuffer::new(MAX_FRAME_BYTES);
        fb.extend(&wirebytes[..split]);
        assert_eq!(fb.next_frame().unwrap(), Some(a));
        assert_eq!(fb.next_frame().unwrap(), None, "b is still partial");
        assert_eq!(fb.buffered(), split - 4 - 1);
        fb.extend(&wirebytes[split..]);
        assert_eq!(fb.next_frame().unwrap(), Some(b));
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_enforces_the_admission_bound_before_buffering() {
        let mut fb = FrameBuffer::new(64);
        fb.extend(&1000u32.to_be_bytes());
        assert_eq!(
            fb.next_frame(),
            Err(WireError::TooLarge {
                declared: 1000,
                max: 64
            })
        );
    }

    #[test]
    fn blocking_frame_io_round_trips() {
        let payload = encode_response(&Response::Pong);
        let mut wirebytes = Vec::new();
        write_frame(&mut wirebytes, &payload).unwrap();
        let mut cursor = &wirebytes[..];
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap(), payload);
        // oversized declared length is rejected client-side too
        let mut oversized = &wirebytes[..];
        assert!(read_frame(&mut oversized, 0).is_err());
    }

    #[test]
    fn wire_errors_render() {
        for e in [
            WireError::Truncated { needed: 4, got: 1 },
            WireError::TooLarge {
                declared: 10,
                max: 5,
            },
            WireError::UnknownOpcode(0xAB),
            WireError::BadUtf8,
            WireError::TrailingBytes(3),
            WireError::BadValueTag(7),
            WireError::BadErrorCode(8),
            WireError::BadVariant(9),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
