//! The wire protocol of `exea-serve`: length-prefixed binary frames carrying
//! a typed request/response pair, in the shape of a typed client/server
//! function-dispatch protocol — every operation the daemon offers is one
//! [`Request`] variant, every outcome (including every failure) one typed
//! [`Response`] variant. There is no stringly-typed escape hatch: a client
//! can always `match` on what came back.
//!
//! # Framing
//!
//! ```text
//! [u32 len (LE)] [len payload bytes]
//! ```
//!
//! Payloads are hand-rolled little-endian scalars (the daemon has no serde
//! wire format on purpose: the protocol is small enough to read, and every
//! decode failure maps to a typed [`WireError`]). Frames larger than the
//! negotiated maximum are rejected *before* allocation, so a hostile or
//! corrupted length prefix cannot balloon memory.
//!
//! # Failure taxonomy
//!
//! Transport-level failures surface as [`FrameError`] (torn frame, stalled
//! peer, oversized frame, clean close); payload-level failures as
//! [`WireError`]; application-level rejections as first-class [`Response`]
//! variants ([`Response::Overloaded`], [`Response::DeadlineExceeded`],
//! [`Response::ShuttingDown`], [`Response::BadRequest`],
//! [`Response::Internal`]). The chaos suite asserts this taxonomy is total:
//! under every injected fault the daemon answers with exactly one of these,
//! never a hang and never a half-frame followed by silence.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Largest frame either side will read or write (1 MiB). Large enough for
/// a [`Request::Verify`] batch at [`MAX_VERIFY_PAIRS`], small enough that a
/// corrupt length prefix cannot balloon allocation.
pub const MAX_FRAME: u32 = 1 << 20;

/// Upper bound on pairs in one [`Request::Verify`] — beyond this the
/// request decodes to a typed [`WireError::Malformed`] and the server
/// answers [`Response::BadRequest`].
pub const MAX_VERIFY_PAIRS: usize = 4096;

/// Upper bound on the embedding dimension of one [`Request::Insert`] —
/// beyond this the request decodes to a typed [`WireError::Malformed`]
/// (the real dimension check against the engine happens server-side and
/// answers [`Response::BadRequest`]).
pub const MAX_INSERT_DIM: usize = 4096;

/// Serving tier a reply was computed at — the degradation ladder, most
/// exact first. Tagged on every predict response so clients always know
/// what quality they got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The live LSM corpus with exhaustive segments: bit-identical to the
    /// exact scan over the live rows.
    Full,
    /// One IVF over the startup target rows, probing a subset of its
    /// lists: subset-only recall, fewer rows scored.
    Partial,
    /// SQ8 quantized scan + exact re-rank: cheapest, subset-only.
    Sq8,
}

impl Tier {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            Tier::Full => 0,
            Tier::Partial => 1,
            Tier::Sq8 => 2,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Tier> {
        match code {
            0 => Some(Tier::Full),
            1 => Some(Tier::Partial),
            2 => Some(Tier::Sq8),
            _ => None,
        }
    }

    /// Human-readable name (used in `health`/bench output).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Partial => "partial",
            Tier::Sq8 => "sq8",
        }
    }
}

/// One operation of the daemon, as a typed enum — the function-dispatch
/// shape: one variant per remote procedure.
/// (`PartialEq` only: [`Request::Insert`] carries floats.)
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Top-`k` candidate targets for one source entity, served from the
    /// degradation ladder (`tier` pins a tier, `None` lets load decide).
    Predict {
        /// Source entity id (row in the source embedding table).
        source: u32,
        /// How many candidates to return.
        k: u16,
        /// Pin a serving tier; `None` = the load-chosen tier.
        tier: Option<Tier>,
    },
    /// Explanation confidence for one (source, target) pair through the
    /// full batched pipeline.
    Explain {
        /// Source entity id.
        source: u32,
        /// Target entity id.
        target: u32,
    },
    /// Accept/reject verdicts for a batch of candidate pairs (strong-edges
    /// + β rule).
    Verify {
        /// The `(source, target)` pairs to verify.
        pairs: Vec<(u32, u32)>,
    },
    /// Run the full repair pipeline over the model's predictions.
    Repair,
    /// Insert (or replace) one live target row in the LSM mutable corpus.
    /// The vector is the *raw* embedding; the engine normalises it once,
    /// exactly like the offline build.
    Insert {
        /// Target entity id the row answers for.
        entity: u32,
        /// Raw embedding row (`engine dim` values; bit-exact f32s).
        vector: Vec<f32>,
    },
    /// Delete one live target row (tombstone; shadows every older
    /// generation of the entity).
    Remove {
        /// Target entity id to tombstone.
        entity: u32,
    },
    /// Liveness + load probe; never queued, never rejected for load.
    Health,
    /// Serving counters since startup.
    Stats,
}

/// A framed request: client-chosen correlation id, per-request deadline
/// budget, and the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Echoed verbatim in the response frame.
    pub id: u64,
    /// Deadline budget in milliseconds; `0` means "use the server default".
    pub deadline_ms: u32,
    /// The operation.
    pub request: Request,
}

/// One predict candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Target entity id.
    pub target: u32,
    /// Bit-exact f32 similarity score.
    pub score: f32,
}

/// Serving counters reported by [`Response::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Requests answered successfully.
    pub served: u64,
    /// Requests rejected with [`Response::Overloaded`].
    pub overloaded: u64,
    /// Requests rejected with [`Response::DeadlineExceeded`].
    pub deadline_expired: u64,
    /// Requests rejected with [`Response::ShuttingDown`].
    pub shutting_down: u64,
    /// Undecodable or invalid requests ([`Response::BadRequest`]).
    pub bad_requests: u64,
    /// Handler panics isolated to [`Response::Internal`].
    pub panics: u64,
    /// Transport-level faults observed (torn frames, I/O errors, stalls).
    pub transport_faults: u64,
    /// Pipeline batches executed by the admission layer.
    pub batches: u64,
    /// Pairs served through those batches.
    pub batched_pairs: u64,
    /// Predict requests served degraded (partial routing).
    pub degraded_partial: u64,
    /// Predict requests served degraded (SQ8).
    pub degraded_sq8: u64,
    /// Connections accepted since startup.
    pub connections: u64,
}

/// Every outcome the daemon can produce — success payloads and typed
/// rejections in one closed enum.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Predict result, tagged with the tier that served it.
    Predict {
        /// Tier the candidates were computed at.
        tier: Tier,
        /// Best-first candidates.
        candidates: Vec<Candidate>,
    },
    /// Explain result.
    Explain {
        /// Explanation confidence (Eq. 9), bit-identical to the offline
        /// pipeline.
        confidence: f64,
        /// Whether the ADG has a strongly-influential edge.
        has_strong_edges: bool,
        /// Triples in the matching subgraph.
        num_triples: u32,
    },
    /// Verify verdicts, one per requested pair, in request order.
    Verify {
        /// `(accepted, confidence)` per pair.
        verdicts: Vec<(bool, f64)>,
    },
    /// Repair outcome summary.
    Repair {
        /// Pairs whose target changed.
        changed_pairs: u64,
        /// One-to-many conflicts found.
        one_to_many_conflicts: u64,
        /// Low-confidence pairs dissolved.
        low_confidence_pairs: u64,
        /// Source entities re-aligned by the greedy fallback.
        greedy_fallback: u64,
        /// Size of the repaired alignment.
        repaired_len: u64,
    },
    /// Insert acknowledged: the row is live and queryable.
    Insert {
        /// Whether this insert sealed the mutable segment.
        sealed: bool,
        /// Live rows in the mutable corpus after the insert.
        live_rows: u64,
        /// Sealed segments after the insert (and any triggered compaction).
        segments: u32,
    },
    /// Remove acknowledged.
    Remove {
        /// Whether a live row existed (and was tombstoned).
        existed: bool,
        /// Live rows in the mutable corpus after the remove.
        live_rows: u64,
    },
    /// Liveness + load snapshot.
    Health {
        /// Whether the daemon is draining for shutdown.
        draining: bool,
        /// Jobs waiting in the admission queue.
        queue_depth: u32,
        /// Requests currently executing.
        inflight: u32,
        /// Tier a load-routed predict would be served at right now.
        tier: Tier,
    },
    /// Serving counters.
    Stats(StatsReply),
    /// Admission queue full — back off and retry after the given delay.
    Overloaded {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u32,
    },
    /// The request's deadline expired before a result was produced.
    DeadlineExceeded,
    /// The daemon is shutting down and will not take new work.
    ShuttingDown,
    /// The request was undecodable or referenced unknown entities.
    BadRequest {
        /// What was wrong.
        message: String,
    },
    /// An isolated internal failure (e.g. a panicking handler).
    Internal {
        /// What failed.
        message: String,
    },
}

/// A framed response: the request's correlation id plus the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The id of the request this answers (`0` when the request id itself
    /// was undecodable).
    pub id: u64,
    /// The outcome.
    pub response: Response,
}

// ---------------------------------------------------------------------------
// Payload encode/decode
// ---------------------------------------------------------------------------

/// A payload-level decode failure — always typed, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the announced structure did.
    Truncated,
    /// An unknown request/response tag.
    UnknownTag(u8),
    /// Structurally invalid payload (bounds, counts, encodings).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian payload reader with typed exhaustion.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-utf8 string"))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

const TAG_PREDICT: u8 = 1;
const TAG_EXPLAIN: u8 = 2;
const TAG_VERIFY: u8 = 3;
const TAG_REPAIR: u8 = 4;
const TAG_HEALTH: u8 = 5;
const TAG_STATS: u8 = 6;
const TAG_INSERT: u8 = 7;
const TAG_REMOVE: u8 = 8;
const TAG_OVERLOADED: u8 = 100;
const TAG_DEADLINE: u8 = 101;
const TAG_SHUTDOWN: u8 = 102;
const TAG_BAD_REQUEST: u8 = 103;
const TAG_INTERNAL: u8 = 104;

/// Wire code for "no tier pinned" in [`Request::Predict`].
const TIER_AUTO: u8 = 0xFF;

/// Encodes one request frame to a payload (framing is added separately by
/// [`write_frame`]).
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&frame.id.to_le_bytes());
    out.extend_from_slice(&frame.deadline_ms.to_le_bytes());
    match &frame.request {
        Request::Predict { source, k, tier } => {
            out.push(TAG_PREDICT);
            out.extend_from_slice(&source.to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
            out.push(tier.map_or(TIER_AUTO, Tier::code));
        }
        Request::Explain { source, target } => {
            out.push(TAG_EXPLAIN);
            out.extend_from_slice(&source.to_le_bytes());
            out.extend_from_slice(&target.to_le_bytes());
        }
        Request::Verify { pairs } => {
            out.push(TAG_VERIFY);
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (s, t) in pairs {
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
        Request::Repair => out.push(TAG_REPAIR),
        Request::Insert { entity, vector } => {
            out.push(TAG_INSERT);
            out.extend_from_slice(&entity.to_le_bytes());
            out.extend_from_slice(&(vector.len() as u16).to_le_bytes());
            for v in vector {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        Request::Remove { entity } => {
            out.push(TAG_REMOVE);
            out.extend_from_slice(&entity.to_le_bytes());
        }
        Request::Health => out.push(TAG_HEALTH),
        Request::Stats => out.push(TAG_STATS),
    }
    out
}

/// Decodes one request payload.
pub fn decode_request(payload: &[u8]) -> Result<RequestFrame, WireError> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let deadline_ms = c.u32()?;
    let tag = c.u8()?;
    let request = match tag {
        TAG_PREDICT => {
            let source = c.u32()?;
            let k = c.u16()?;
            let tier = match c.u8()? {
                TIER_AUTO => None,
                code => {
                    Some(Tier::from_code(code).ok_or(WireError::Malformed("unknown tier code"))?)
                }
            };
            Request::Predict { source, k, tier }
        }
        TAG_EXPLAIN => Request::Explain {
            source: c.u32()?,
            target: c.u32()?,
        },
        TAG_VERIFY => {
            let count = c.u32()? as usize;
            if count > MAX_VERIFY_PAIRS {
                return Err(WireError::Malformed("too many verify pairs"));
            }
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                pairs.push((c.u32()?, c.u32()?));
            }
            Request::Verify { pairs }
        }
        TAG_REPAIR => Request::Repair,
        TAG_INSERT => {
            let entity = c.u32()?;
            let dim = c.u16()? as usize;
            if dim > MAX_INSERT_DIM {
                return Err(WireError::Malformed("insert vector too wide"));
            }
            let mut vector = Vec::with_capacity(dim);
            for _ in 0..dim {
                vector.push(c.f32()?);
            }
            Request::Insert { entity, vector }
        }
        TAG_REMOVE => Request::Remove { entity: c.u32()? },
        TAG_HEALTH => Request::Health,
        TAG_STATS => Request::Stats,
        other => return Err(WireError::UnknownTag(other)),
    };
    c.finish()?;
    Ok(RequestFrame {
        id,
        deadline_ms,
        request,
    })
}

/// Encodes one response frame to a payload.
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&frame.id.to_le_bytes());
    match &frame.response {
        Response::Predict { tier, candidates } => {
            out.push(TAG_PREDICT);
            out.push(tier.code());
            out.extend_from_slice(&(candidates.len() as u16).to_le_bytes());
            for c in candidates {
                out.extend_from_slice(&c.target.to_le_bytes());
                out.extend_from_slice(&c.score.to_bits().to_le_bytes());
            }
        }
        Response::Explain {
            confidence,
            has_strong_edges,
            num_triples,
        } => {
            out.push(TAG_EXPLAIN);
            out.extend_from_slice(&confidence.to_bits().to_le_bytes());
            out.push(u8::from(*has_strong_edges));
            out.extend_from_slice(&num_triples.to_le_bytes());
        }
        Response::Verify { verdicts } => {
            out.push(TAG_VERIFY);
            out.extend_from_slice(&(verdicts.len() as u32).to_le_bytes());
            for (accepted, confidence) in verdicts {
                out.push(u8::from(*accepted));
                out.extend_from_slice(&confidence.to_bits().to_le_bytes());
            }
        }
        Response::Repair {
            changed_pairs,
            one_to_many_conflicts,
            low_confidence_pairs,
            greedy_fallback,
            repaired_len,
        } => {
            out.push(TAG_REPAIR);
            for v in [
                changed_pairs,
                one_to_many_conflicts,
                low_confidence_pairs,
                greedy_fallback,
                repaired_len,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Insert {
            sealed,
            live_rows,
            segments,
        } => {
            out.push(TAG_INSERT);
            out.push(u8::from(*sealed));
            out.extend_from_slice(&live_rows.to_le_bytes());
            out.extend_from_slice(&segments.to_le_bytes());
        }
        Response::Remove { existed, live_rows } => {
            out.push(TAG_REMOVE);
            out.push(u8::from(*existed));
            out.extend_from_slice(&live_rows.to_le_bytes());
        }
        Response::Health {
            draining,
            queue_depth,
            inflight,
            tier,
        } => {
            out.push(TAG_HEALTH);
            out.push(u8::from(*draining));
            out.extend_from_slice(&queue_depth.to_le_bytes());
            out.extend_from_slice(&inflight.to_le_bytes());
            out.push(tier.code());
        }
        Response::Stats(s) => {
            out.push(TAG_STATS);
            for v in [
                s.served,
                s.overloaded,
                s.deadline_expired,
                s.shutting_down,
                s.bad_requests,
                s.panics,
                s.transport_faults,
                s.batches,
                s.batched_pairs,
                s.degraded_partial,
                s.degraded_sq8,
                s.connections,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Overloaded { retry_after_ms } => {
            out.push(TAG_OVERLOADED);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Response::DeadlineExceeded => out.push(TAG_DEADLINE),
        Response::ShuttingDown => out.push(TAG_SHUTDOWN),
        Response::BadRequest { message } => {
            out.push(TAG_BAD_REQUEST);
            put_string(&mut out, message);
        }
        Response::Internal { message } => {
            out.push(TAG_INTERNAL);
            put_string(&mut out, message);
        }
    }
    out
}

/// Decodes one response payload.
pub fn decode_response(payload: &[u8]) -> Result<ResponseFrame, WireError> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let tag = c.u8()?;
    let response = match tag {
        TAG_PREDICT => {
            let tier = Tier::from_code(c.u8()?).ok_or(WireError::Malformed("unknown tier code"))?;
            let count = c.u16()? as usize;
            let mut candidates = Vec::with_capacity(count);
            for _ in 0..count {
                candidates.push(Candidate {
                    target: c.u32()?,
                    score: c.f32()?,
                });
            }
            Response::Predict { tier, candidates }
        }
        TAG_EXPLAIN => Response::Explain {
            confidence: c.f64()?,
            has_strong_edges: c.u8()? != 0,
            num_triples: c.u32()?,
        },
        TAG_VERIFY => {
            let count = c.u32()? as usize;
            if count > MAX_VERIFY_PAIRS {
                return Err(WireError::Malformed("too many verify verdicts"));
            }
            let mut verdicts = Vec::with_capacity(count);
            for _ in 0..count {
                verdicts.push((c.u8()? != 0, c.f64()?));
            }
            Response::Verify { verdicts }
        }
        TAG_REPAIR => Response::Repair {
            changed_pairs: c.u64()?,
            one_to_many_conflicts: c.u64()?,
            low_confidence_pairs: c.u64()?,
            greedy_fallback: c.u64()?,
            repaired_len: c.u64()?,
        },
        TAG_INSERT => Response::Insert {
            sealed: c.u8()? != 0,
            live_rows: c.u64()?,
            segments: c.u32()?,
        },
        TAG_REMOVE => Response::Remove {
            existed: c.u8()? != 0,
            live_rows: c.u64()?,
        },
        TAG_HEALTH => Response::Health {
            draining: c.u8()? != 0,
            queue_depth: c.u32()?,
            inflight: c.u32()?,
            tier: Tier::from_code(c.u8()?).ok_or(WireError::Malformed("unknown tier code"))?,
        },
        TAG_STATS => Response::Stats(StatsReply {
            served: c.u64()?,
            overloaded: c.u64()?,
            deadline_expired: c.u64()?,
            shutting_down: c.u64()?,
            bad_requests: c.u64()?,
            panics: c.u64()?,
            transport_faults: c.u64()?,
            batches: c.u64()?,
            batched_pairs: c.u64()?,
            degraded_partial: c.u64()?,
            degraded_sq8: c.u64()?,
            connections: c.u64()?,
        }),
        TAG_OVERLOADED => Response::Overloaded {
            retry_after_ms: c.u32()?,
        },
        TAG_DEADLINE => Response::DeadlineExceeded,
        TAG_SHUTDOWN => Response::ShuttingDown,
        TAG_BAD_REQUEST => Response::BadRequest {
            message: c.string()?,
        },
        TAG_INTERNAL => Response::Internal {
            message: c.string()?,
        },
        other => return Err(WireError::UnknownTag(other)),
    };
    c.finish()?;
    Ok(ResponseFrame { id, response })
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// A transport-level framing failure.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed cleanly at a frame boundary.
    Closed,
    /// The stream ended mid-frame: `got` of `want` bytes arrived.
    Torn {
        /// Bytes received before the stream ended.
        got: usize,
        /// Bytes the frame announced.
        want: usize,
    },
    /// The length prefix exceeds the negotiated maximum.
    TooLarge {
        /// The announced length.
        len: u32,
    },
    /// The peer stopped making progress mid-frame for longer than the
    /// stall budget.
    Stalled {
        /// Bytes received before the stall.
        got: usize,
        /// Bytes the frame announced.
        want: usize,
    },
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::Torn { got, want } => {
                write!(f, "torn frame: stream ended after {got} of {want} bytes")
            }
            FrameError::TooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Stalled { got, want } => {
                write!(f, "peer stalled after {got} of {want} bytes")
            }
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether an I/O error is a read-timeout tick (both kinds occur in the
/// wild: unix sockets report `WouldBlock`, windows `TimedOut`).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame from a stream whose read timeout is the
/// caller's poll interval.
///
/// Returns `Ok(None)` when a timeout fires before *any* byte of the frame
/// arrived — the idle case, letting servers poll their shutdown flag
/// between requests. Once the first byte is in, the peer owes the rest of
/// the frame within `stall`: timeouts past that budget become
/// [`FrameError::Stalled`], so a half-written frame can never wedge a
/// connection thread. EINTR retries; EOF mid-frame is typed
/// [`FrameError::Torn`]; an oversized prefix is rejected before any
/// payload allocation.
pub fn read_frame(
    r: &mut impl Read,
    max_len: u32,
    stall: Duration,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    let mut first_byte_at: Option<Instant> = None;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Torn { got, want: 4 }
                })
            }
            Ok(n) => {
                got += n;
                first_byte_at.get_or_insert_with(Instant::now);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => match first_byte_at {
                None => return Ok(None),
                Some(start) if start.elapsed() >= stall => {
                    return Err(FrameError::Stalled { got, want: 4 })
                }
                Some(_) => {}
            },
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_len {
        return Err(FrameError::TooLarge { len });
    }
    let want = 4 + len as usize;
    let mut payload = vec![0u8; len as usize];
    let mut have = 0usize;
    let start = first_byte_at.unwrap_or_else(Instant::now);
    while have < payload.len() {
        match r.read(&mut payload[have..]) {
            Ok(0) => {
                return Err(FrameError::Torn {
                    got: 4 + have,
                    want,
                })
            }
            Ok(n) => have += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if start.elapsed() >= stall {
                    return Err(FrameError::Stalled {
                        got: 4 + have,
                        want,
                    });
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(frame: RequestFrame) {
        let bytes = encode_request(&frame);
        assert_eq!(decode_request(&bytes).unwrap(), frame);
    }

    fn roundtrip_response(frame: ResponseFrame) {
        let bytes = encode_response(&frame);
        assert_eq!(decode_response(&bytes).unwrap(), frame);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(RequestFrame {
            id: 7,
            deadline_ms: 250,
            request: Request::Predict {
                source: 42,
                k: 10,
                tier: None,
            },
        });
        roundtrip_request(RequestFrame {
            id: 8,
            deadline_ms: 0,
            request: Request::Predict {
                source: 1,
                k: 1,
                tier: Some(Tier::Sq8),
            },
        });
        roundtrip_request(RequestFrame {
            id: u64::MAX,
            deadline_ms: u32::MAX,
            request: Request::Explain {
                source: 3,
                target: 9,
            },
        });
        roundtrip_request(RequestFrame {
            id: 1,
            deadline_ms: 5,
            request: Request::Verify {
                pairs: vec![(0, 1), (2, 3), (u32::MAX, 0)],
            },
        });
        roundtrip_request(RequestFrame {
            id: 13,
            deadline_ms: 40,
            request: Request::Insert {
                entity: 77,
                vector: vec![0.5, -1.25, 3.0, 0.0],
            },
        });
        roundtrip_request(RequestFrame {
            id: 14,
            deadline_ms: 40,
            request: Request::Insert {
                entity: 0,
                vector: vec![],
            },
        });
        roundtrip_request(RequestFrame {
            id: 15,
            deadline_ms: 0,
            request: Request::Remove { entity: u32::MAX },
        });
        for request in [Request::Repair, Request::Health, Request::Stats] {
            roundtrip_request(RequestFrame {
                id: 2,
                deadline_ms: 0,
                request,
            });
        }
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(ResponseFrame {
            id: 3,
            response: Response::Predict {
                tier: Tier::Partial,
                candidates: vec![
                    Candidate {
                        target: 5,
                        score: 0.25,
                    },
                    Candidate {
                        target: 6,
                        score: -1.5,
                    },
                ],
            },
        });
        roundtrip_response(ResponseFrame {
            id: 4,
            response: Response::Explain {
                confidence: 0.123456789,
                has_strong_edges: true,
                num_triples: 17,
            },
        });
        roundtrip_response(ResponseFrame {
            id: 5,
            response: Response::Verify {
                verdicts: vec![(true, 0.9), (false, 0.1)],
            },
        });
        roundtrip_response(ResponseFrame {
            id: 6,
            response: Response::Repair {
                changed_pairs: 1,
                one_to_many_conflicts: 2,
                low_confidence_pairs: 3,
                greedy_fallback: 4,
                repaired_len: 300,
            },
        });
        roundtrip_response(ResponseFrame {
            id: 7,
            response: Response::Health {
                draining: false,
                queue_depth: 2,
                inflight: 5,
                tier: Tier::Full,
            },
        });
        roundtrip_response(ResponseFrame {
            id: 8,
            response: Response::Stats(StatsReply {
                served: 100,
                overloaded: 1,
                deadline_expired: 2,
                shutting_down: 3,
                bad_requests: 4,
                panics: 5,
                transport_faults: 6,
                batches: 7,
                batched_pairs: 8,
                degraded_partial: 9,
                degraded_sq8: 10,
                connections: 11,
            }),
        });
        roundtrip_response(ResponseFrame {
            id: 13,
            response: Response::Insert {
                sealed: true,
                live_rows: 1 << 40,
                segments: 3,
            },
        });
        roundtrip_response(ResponseFrame {
            id: 14,
            response: Response::Remove {
                existed: false,
                live_rows: 0,
            },
        });
        roundtrip_response(ResponseFrame {
            id: 9,
            response: Response::Overloaded { retry_after_ms: 50 },
        });
        for response in [Response::DeadlineExceeded, Response::ShuttingDown] {
            roundtrip_response(ResponseFrame { id: 10, response });
        }
        roundtrip_response(ResponseFrame {
            id: 11,
            response: Response::BadRequest {
                message: "unknown entity".to_string(),
            },
        });
        roundtrip_response(ResponseFrame {
            id: 12,
            response: Response::Internal {
                message: "handler panicked".to_string(),
            },
        });
    }

    #[test]
    fn float_payloads_are_bit_exact() {
        // NaN and signed zero survive the wire unchanged: scores travel as
        // raw bits, not through any float formatting.
        let frame = ResponseFrame {
            id: 1,
            response: Response::Predict {
                tier: Tier::Full,
                candidates: vec![
                    Candidate {
                        target: 0,
                        score: f32::NAN,
                    },
                    Candidate {
                        target: 1,
                        score: -0.0,
                    },
                ],
            },
        };
        let bytes = encode_response(&frame);
        let back = decode_response(&bytes).unwrap();
        match back.response {
            Response::Predict { candidates, .. } => {
                assert_eq!(candidates[0].score.to_bits(), f32::NAN.to_bits());
                assert_eq!(candidates[1].score.to_bits(), (-0.0f32).to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn decode_failures_are_typed() {
        // Truncation at every prefix and oversized counts are swept for all
        // request tags in `tests/protocol_fuzz.rs`.
        let bytes = encode_request(&RequestFrame {
            id: 1,
            deadline_ms: 2,
            request: Request::Explain {
                source: 3,
                target: 4,
            },
        });
        // Unknown tag.
        let mut unknown = bytes.clone();
        unknown[12] = 99;
        assert_eq!(
            decode_request(&unknown).unwrap_err(),
            WireError::UnknownTag(99)
        );
        // Trailing garbage.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_request(&trailing).unwrap_err(),
            WireError::Malformed("trailing bytes")
        );
        // Insert vectors travel as raw bits: NaN survives the wire.
        let nan = encode_request(&RequestFrame {
            id: 1,
            deadline_ms: 0,
            request: Request::Insert {
                entity: 5,
                vector: vec![f32::NAN, -0.0],
            },
        });
        match decode_request(&nan).unwrap().request {
            Request::Insert { vector, .. } => {
                assert_eq!(vector[0].to_bits(), f32::NAN.to_bits());
                assert_eq!(vector[1].to_bits(), (-0.0f32).to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = std::io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME, Duration::from_secs(1))
                .unwrap()
                .unwrap(),
            b"hello"
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME, Duration::from_secs(1))
                .unwrap()
                .unwrap(),
            b""
        );
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME, Duration::from_secs(1)),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn torn_and_oversized_frames_are_typed() {
        // EOF mid-length-prefix.
        let mut r = std::io::Cursor::new(vec![5u8, 0]);
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME, Duration::from_secs(1)),
            Err(FrameError::Torn { got: 2, want: 4 })
        ));
        // EOF mid-payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(6);
        let mut r = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME, Duration::from_secs(1)),
            Err(FrameError::Torn { got: 6, want: 9 })
        ));
        // Oversized prefix rejected before allocation.
        let mut r = std::io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME, Duration::from_secs(1)),
            Err(FrameError::TooLarge { len: u32::MAX })
        ));
    }
}
