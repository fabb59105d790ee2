//! Length-prefixed binary wire protocol for the UQL serving layer.
//!
//! Every frame is `MAGIC (4) | VERSION (1) | TYPE (1) | LEN (4, BE) |
//! CRC32 (4, BE) | PAYLOAD (LEN bytes)`. Requests carry UQL text or a
//! prepared-statement id; responses carry row batches, execution
//! telemetry, or typed errors. The CRC covers the payload bytes
//! (`pagestore::crc32`), so a network that flips a bit *inside* a
//! well-framed payload produces a typed [`ProtoError::BadCrc`] instead
//! of silently decoding into wrong rows — the wire analog of the page
//! checksum trailers.
//!
//! Decoding is defensive in a fixed order — magic, version, declared
//! length against the payload cap, then type, then payload (CRC checked
//! once the payload bytes are in hand) — so an oversized length prefix
//! is rejected *before* any allocation and garbage input can never make
//! the decoder panic. Errors are classified as fatal (the stream can no
//! longer be framed: close after reporting) or recoverable (the frame
//! boundary is intact: report and keep the connection).
//!
//! A decoded [`Frame::RowBatch`] keeps its payload: the payload sits in
//! one shared buffer and every [`WireRow`] is a view of it, so a batch
//! costs a constant number of allocations however many rows it holds.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::ops::{Deref, Range};
use std::sync::Arc;

use pagestore::crc32;

/// First four bytes of every frame: "UQLW" (UQL wire).
pub const MAGIC: [u8; 4] = *b"UQLW";
/// Protocol revision; bumped on any incompatible frame change.
/// v2 added the payload CRC32 header field and the `Done` degraded flag.
pub const VERSION: u8 = 2;
/// Fixed prefix size: magic + version + type + payload length + CRC32.
pub const HEADER_LEN: usize = 14;
/// Default cap on a single frame's payload (1 MiB).
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;
/// Rows per [`Frame::RowBatch`]; large results span several batches.
pub const BATCH_ROWS: usize = 512;

/// Sentinel encoding `None` in a [`WireRow`] assignment slot.
const NO_ASSIGNMENT: u32 = u32::MAX;
/// The smallest encoded row: an empty key's length and a zero slot count.
const MIN_ROW_LEN: usize = 8;
/// A [`RowBatchWriter`] keeps its buffer between replies up to this size.
const RETAINED_BYTES: usize = 4 << 20;

/// Frame type tags. Requests are < 0x80, responses >= 0x80.
mod tag {
    pub(super) const QUERY: u8 = 0x01;
    pub(super) const PREPARE: u8 = 0x02;
    pub(super) const EXECUTE: u8 = 0x03;
    pub(super) const PING: u8 = 0x04;
    pub(super) const STATS: u8 = 0x05;
    pub(super) const TRACE: u8 = 0x06;
    pub(super) const ROW_BATCH: u8 = 0x81;
    pub(super) const DONE: u8 = 0x82;
    pub(super) const ERROR: u8 = 0x83;
    pub(super) const PONG: u8 = 0x84;
    pub(super) const PREPARED: u8 = 0x85;
    pub(super) const STATS_REPLY: u8 = 0x86;
    pub(super) const TRACE_REPLY: u8 = 0x87;
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// UQL text failed to parse or plan.
    Parse = 1,
    /// The query planned but execution failed.
    Exec = 2,
    /// Admission control shed the request; retry later.
    Overloaded = 3,
    /// The peer sent bytes that violate the framing rules.
    Proto = 4,
    /// `Execute` named a prepared-statement id the server no longer holds.
    UnknownStatement = 5,
    /// `Trace` named a query id the slow-query log does not hold (never
    /// logged, below the threshold, or already evicted by a worse query).
    NotFound = 6,
    /// A storage fault prevented answering and no degraded path was
    /// available; the data is intact, retry later.
    Unavailable = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::Parse),
            2 => Some(ErrorCode::Exec),
            3 => Some(ErrorCode::Overloaded),
            4 => Some(ErrorCode::Proto),
            5 => Some(ErrorCode::UnknownStatement),
            6 => Some(ErrorCode::NotFound),
            7 => Some(ErrorCode::Unavailable),
            _ => None,
        }
    }
}

/// Bytes of a decoded frame's payload, viewed in place: the payload's
/// shared buffer plus a range of it. Cloning bumps a reference count and
/// copies nothing; a view that outlives its frame keeps the whole payload
/// (at most the reader's `max_payload`) alive.
#[derive(Clone)]
pub struct FrameBytes {
    buf: Arc<[u8]>,
    range: Range<usize>,
}

impl FrameBytes {
    /// `buf[range]`; the decoder has checked the range against `buf`.
    fn view(buf: &Arc<[u8]>, range: Range<usize>) -> FrameBytes {
        FrameBytes {
            buf: Arc::clone(buf),
            range,
        }
    }
}

impl Deref for FrameBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl PartialEq for FrameBytes {
    fn eq(&self, other: &FrameBytes) -> bool {
        **self == **other
    }
}

impl Eq for FrameBytes {}

impl fmt::Debug for FrameBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<Vec<u8>> for FrameBytes {
    fn from(bytes: Vec<u8>) -> FrameBytes {
        let range = 0..bytes.len();
        FrameBytes {
            buf: bytes.into(),
            range,
        }
    }
}

/// A row's position assignment: one slot per spec position, each the
/// index of a path element or `None` (`0xFFFF_FFFF` on the wire). Holds
/// the big-endian wire slots; a decoded one views its frame.
#[derive(Clone, PartialEq, Eq)]
pub struct Assignment(FrameBytes);

impl Assignment {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.0.len() / 4
    }

    /// Whether the assignment has no slots.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The slots, in position order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Option<u32>> + '_ {
        self.0.chunks_exact(4).map(|slot| {
            let v = u32::from_be_bytes(slot.try_into().expect("a four-byte chunk"));
            (v != NO_ASSIGNMENT).then_some(v)
        })
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<Option<u32>> for Assignment {
    fn from_iter<I: IntoIterator<Item = Option<u32>>>(slots: I) -> Assignment {
        let mut wire = Vec::new();
        for a in slots {
            put_u32(&mut wire, a.unwrap_or(NO_ASSIGNMENT));
        }
        Assignment(wire.into())
    }
}

impl From<Vec<Option<u32>>> for Assignment {
    fn from(slots: Vec<Option<u32>>) -> Assignment {
        slots.into_iter().collect()
    }
}

/// One query-result row: the entry's canonical key bytes
/// ([`uindex::EntryKey::encode`]) plus the position assignment. Byte-for-
/// byte comparable against an in-process oracle's encoding of the same
/// hit. A decoded row views its frame's payload; it allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRow {
    /// `EntryKey::encode()` of the hit.
    pub key: FrameBytes,
    /// Per-spec-position path-element index.
    pub assignment: Assignment,
}

impl WireRow {
    /// Encode a [`uindex::QueryHit`] as the row the server sends for it —
    /// how the oracles judge the wire. (The server writes the entry's
    /// stored key bytes through [`RowBatchWriter`]; keys are canonical, so
    /// those are exactly `hit.key.encode()`.)
    pub fn from_hit(hit: &uindex::QueryHit) -> WireRow {
        WireRow {
            key: hit.key.encode().into(),
            assignment: hit.assignment.iter().map(|a| a.map(|i| i as u32)).collect(),
        }
    }
}

/// Execution summary closing every successful response stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DoneInfo {
    /// Total rows sent in the preceding [`Frame::RowBatch`] frames.
    pub rows: u64,
    /// Scan cost: distinct pages touched.
    pub pages_read: u64,
    /// Scan cost: entries the matcher examined.
    pub entries_examined: u64,
    /// Scan cost: skip-seeks performed.
    pub seeks: u64,
    /// Server-side execution time in microseconds.
    pub micros: u64,
    /// Whether the plan came from the prepared-plan cache.
    pub cached_plan: bool,
    /// Whether the answer came from the degraded object-store scan path
    /// (index quarantined or faulting) rather than the index. Degraded
    /// answers are still exact — just slower.
    pub degraded: bool,
}

/// Every frame the protocol can carry, request and response alike.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Parse-and-run one UQL query.
    Query { uql: String },
    /// Parse and cache a plan; the reply names it with [`Frame::Prepared`].
    Prepare { uql: String },
    /// Run a previously prepared plan by id.
    Execute { id: u64 },
    /// Liveness probe.
    Ping,
    /// Live introspection: counters, rates and percentiles over the most
    /// recent `window_s` seconds. Answered on the connection thread,
    /// *bypassing* admission control — an overloaded server must still
    /// answer Stats.
    Stats { window_s: u32 },
    /// Fetch the slow-query log entry for one query id (ids are listed in
    /// the `StatsReply` payload) — an after-the-fact EXPLAIN ANALYZE.
    Trace { id: u64 },
    /// A chunk of result rows (large results span several batches).
    RowBatch { rows: Vec<WireRow> },
    /// End of a successful response stream, with execution telemetry.
    Done(DoneInfo),
    /// Typed failure; terminates the response stream for one request.
    Error { code: ErrorCode, message: String },
    /// Reply to [`Frame::Ping`].
    Pong,
    /// Reply to [`Frame::Prepare`]: the id to pass to [`Frame::Execute`].
    Prepared { id: u64 },
    /// Reply to [`Frame::Stats`]: a JSON document (schema in DESIGN.md
    /// §14). JSON rather than binary fields so the payload can grow
    /// without a protocol revision; it is introspection, not the hot path.
    StatsReply { json: String },
    /// Reply to [`Frame::Trace`]: the slow-log entry as JSON.
    TraceReply { json: String },
}

impl Frame {
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Frame::Query { .. } => tag::QUERY,
            Frame::Prepare { .. } => tag::PREPARE,
            Frame::Execute { .. } => tag::EXECUTE,
            Frame::Ping => tag::PING,
            Frame::Stats { .. } => tag::STATS,
            Frame::Trace { .. } => tag::TRACE,
            Frame::RowBatch { .. } => tag::ROW_BATCH,
            Frame::Done(_) => tag::DONE,
            Frame::Error { .. } => tag::ERROR,
            Frame::Pong => tag::PONG,
            Frame::Prepared { .. } => tag::PREPARED,
            Frame::StatsReply { .. } => tag::STATS_REPLY,
            Frame::TraceReply { .. } => tag::TRACE_REPLY,
        }
    }
}

/// Framing and payload failures, split into fatal (stream unframeable)
/// and recoverable (frame boundary intact) by [`ProtoError::is_fatal`].
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// The peer closed the stream at a frame boundary (clean EOF).
    Closed,
    /// Frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol revision.
    BadVersion(u8),
    /// Type byte outside the known frame set.
    UnknownType(u8),
    /// Declared payload length exceeds the cap; rejected pre-allocation.
    Oversized { len: u32, max: u32 },
    /// Stream ended mid-frame.
    Truncated,
    /// Well-framed payload bytes that do not decode as the declared type.
    BadPayload(String),
    /// The peer left a frame half-written past the server's read
    /// deadline; the connection is closed rather than holding its IO
    /// thread's buffer forever.
    ReadDeadline,
    /// The payload bytes do not match the header's CRC32 — the frame was
    /// damaged in transit. Fatal: the stream can no longer be trusted.
    BadCrc {
        /// CRC declared in the header.
        expected: u32,
        /// CRC of the payload bytes actually received.
        actual: u32,
    },
}

impl ProtoError {
    /// Whether the connection can continue after this error. A bad magic,
    /// version, or length means we no longer know where frames begin;
    /// a bad payload or unknown type inside a valid frame does not.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, ProtoError::UnknownType(_) | ProtoError::BadPayload(_))
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io: {e}"),
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "declared payload {len} bytes exceeds cap {max}")
            }
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::BadPayload(m) => write!(f, "bad payload: {m}"),
            ProtoError::ReadDeadline => write!(f, "read deadline exceeded mid-frame"),
            ProtoError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "payload crc mismatch: header {expected:08x}, received bytes {actual:08x}"
                )
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// One `RowBatch` row: the key, then the assignment's slot count and slots.
fn put_row(out: &mut Vec<u8>, key: &[u8], assignment: impl ExactSizeIterator<Item = Option<u32>>) {
    put_bytes(out, key);
    put_u32(out, assignment.len() as u32);
    for a in assignment {
        put_u32(out, a.unwrap_or(NO_ASSIGNMENT));
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// The range of the next `n` bytes, checked against the payload.
    fn range(&mut self, n: usize) -> Result<Range<usize>, ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ProtoError::BadPayload("payload shorter than declared".into()))?;
        let range = self.pos..end;
        self.pos = end;
        Ok(range)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let range = self.range(n)?;
        Ok(&self.buf[range])
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bytes not yet consumed: the most any declared count can be backed by.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A length-prefixed byte string whose declared length is validated
    /// against the bytes actually present before any allocation.
    fn bytes(&mut self) -> Result<&'a [u8], ProtoError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| ProtoError::BadPayload("string is not UTF-8".into()))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::BadPayload(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Append `frame`'s payload to `p`.
fn encode_payload(frame: &Frame, p: &mut Vec<u8>) {
    match frame {
        Frame::Query { uql } | Frame::Prepare { uql } => put_bytes(p, uql.as_bytes()),
        Frame::Execute { id } | Frame::Prepared { id } | Frame::Trace { id } => put_u64(p, *id),
        Frame::Ping | Frame::Pong => {}
        Frame::Stats { window_s } => put_u32(p, *window_s),
        Frame::StatsReply { json } | Frame::TraceReply { json } => put_bytes(p, json.as_bytes()),
        Frame::RowBatch { rows } => {
            put_u32(p, rows.len() as u32);
            for row in rows {
                put_row(p, &row.key, row.assignment.iter());
            }
        }
        Frame::Done(d) => {
            put_u64(p, d.rows);
            put_u64(p, d.pages_read);
            put_u64(p, d.entries_examined);
            put_u64(p, d.seeks);
            put_u64(p, d.micros);
            p.push(d.cached_plan as u8);
            p.push(d.degraded as u8);
        }
        Frame::Error { code, message } => {
            p.push(*code as u8);
            put_bytes(p, message.as_bytes());
        }
    }
}

fn decode_payload(ty: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    if ty == tag::ROW_BATCH {
        // The rows keep their payload: copy it once into a shared buffer.
        return decode_row_batch(payload.into());
    }
    let mut c = Cursor::new(payload);
    let frame = match ty {
        tag::QUERY => Frame::Query { uql: c.string()? },
        tag::PREPARE => Frame::Prepare { uql: c.string()? },
        tag::EXECUTE => Frame::Execute { id: c.u64()? },
        tag::PING => Frame::Ping,
        tag::STATS => Frame::Stats { window_s: c.u32()? },
        tag::TRACE => Frame::Trace { id: c.u64()? },
        tag::PONG => Frame::Pong,
        tag::PREPARED => Frame::Prepared { id: c.u64()? },
        tag::STATS_REPLY => Frame::StatsReply { json: c.string()? },
        tag::TRACE_REPLY => Frame::TraceReply { json: c.string()? },
        tag::DONE => Frame::Done(DoneInfo {
            rows: c.u64()?,
            pages_read: c.u64()?,
            entries_examined: c.u64()?,
            seeks: c.u64()?,
            micros: c.u64()?,
            cached_plan: match c.u8()? {
                0 => false,
                1 => true,
                b => {
                    return Err(ProtoError::BadPayload(format!(
                        "cached_plan flag must be 0/1, got {b}"
                    )))
                }
            },
            degraded: match c.u8()? {
                0 => false,
                1 => true,
                b => {
                    return Err(ProtoError::BadPayload(format!(
                        "degraded flag must be 0/1, got {b}"
                    )))
                }
            },
        }),
        tag::ERROR => {
            let raw = c.u8()?;
            let code = ErrorCode::from_u8(raw)
                .ok_or_else(|| ProtoError::BadPayload(format!("unknown error code {raw}")))?;
            Frame::Error {
                code,
                message: c.string()?,
            }
        }
        other => return Err(ProtoError::UnknownType(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Decode a CRC-checked `RowBatch` payload into rows that view it. Every
/// key length and slot count is checked against the payload before its
/// view exists.
fn decode_row_batch(payload: Arc<[u8]>) -> Result<Frame, ProtoError> {
    let mut c = Cursor::new(&payload);
    let n = c.u32()? as usize;
    // Counts are untrusted: reserve only what the remaining bytes could
    // hold (a row takes at least MIN_ROW_LEN bytes), and an inflated
    // count fails on `range`.
    let mut rows = Vec::with_capacity(n.min(c.remaining() / MIN_ROW_LEN));
    for _ in 0..n {
        let key_len = c.u32()? as usize;
        let key = c.range(key_len)?;
        let slot_bytes = (c.u32()? as usize)
            .checked_mul(4)
            .ok_or_else(|| ProtoError::BadPayload("slot count overflows".into()))?;
        let slots = c.range(slot_bytes)?;
        rows.push(WireRow {
            key: FrameBytes::view(&payload, key),
            assignment: Assignment(FrameBytes::view(&payload, slots)),
        });
    }
    c.finish()?;
    Ok(Frame::RowBatch { rows })
}

// ---------------------------------------------------------------------------
// Frame-level encode/decode
// ---------------------------------------------------------------------------

/// Serialize one frame (header + payload) into a fresh buffer.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(frame, &mut out);
    out
}

/// Append one encoded frame to `out`.
fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    encode_payload(frame, out);
    seal(&mut out[start..], frame.tag());
}

/// Write the header of `frame` — a header-sized gap followed by the
/// payload — in place: its length and CRC are the payload's.
fn seal(frame: &mut [u8], tag: u8) {
    let (header, payload) = frame.split_at_mut(HEADER_LEN);
    header[..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    header[5] = tag;
    header[6..10].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[10..].copy_from_slice(&crc32(payload).to_be_bytes());
}

/// Builds a whole query reply in one reusable buffer — rows straight from
/// the scan ([`uindex::RowSink`]), no [`WireRow`] in between — as the
/// bytes [`encode_frame`] gives for the same rows cut into
/// [`BATCH_ROWS`]-row [`Frame::RowBatch`] frames followed by
/// [`Frame::Done`]. A batch's header and row count are left as a gap and
/// written when the batch closes.
#[derive(Debug, Default)]
pub struct RowBatchWriter {
    buf: Vec<u8>,
    /// Where the open batch's frame starts in `buf`.
    batch_start: usize,
    /// Rows in the open batch; 0 when no batch is open.
    batch_rows: u32,
    rows: u64,
}

impl RowBatchWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the reply in progress, keeping the buffer for the next one
    /// unless an outsized reply grew it past 4 MiB.
    pub fn clear(&mut self) {
        if self.buf.capacity() > RETAINED_BYTES {
            self.buf = Vec::new();
        }
        self.buf.clear();
        self.batch_rows = 0;
        self.rows = 0;
    }

    /// Rows written since the last [`RowBatchWriter::clear`].
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Append one row, closing the batch it fills.
    pub fn push_row(&mut self, key: &[u8], assignment: impl ExactSizeIterator<Item = Option<u32>>) {
        if self.batch_rows == 0 {
            self.batch_start = self.buf.len();
            // The header, then the row count.
            self.buf.resize(self.batch_start + HEADER_LEN + 4, 0);
        }
        put_row(&mut self.buf, key, assignment);
        self.batch_rows += 1;
        self.rows += 1;
        if self.batch_rows as usize == BATCH_ROWS {
            self.close_batch();
        }
    }

    fn close_batch(&mut self) {
        let frame = &mut self.buf[self.batch_start..];
        frame[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&self.batch_rows.to_be_bytes());
        seal(frame, tag::ROW_BATCH);
        self.batch_rows = 0;
    }

    /// Close the open batch, append `Done` and return the whole reply.
    pub fn finish(&mut self, done: &DoneInfo) -> &[u8] {
        if self.batch_rows > 0 {
            self.close_batch();
        }
        encode_frame_into(&Frame::Done(*done), &mut self.buf);
        &self.buf
    }
}

impl uindex::RowSink for RowBatchWriter {
    #[inline]
    fn row(&mut self, row: &uindex::Row<'_>) -> uindex::Result<()> {
        let slots = row.assignment().iter().map(|a| a.map(|i| i as u32));
        self.push_row(row.key(), slots);
        Ok(())
    }

    fn restart(&mut self) {
        self.clear();
    }
}

/// Validate a 14-byte header, returning `(type, payload_len, payload_crc)`.
/// The declared length is checked against `max_payload` *here*, before the
/// caller allocates a payload buffer; the CRC is checked by
/// [`verify_crc`] once the payload bytes are in hand.
pub fn parse_header(
    header: &[u8; HEADER_LEN],
    max_payload: u32,
) -> Result<(u8, u32, u32), ProtoError> {
    if header[..4] != MAGIC {
        return Err(ProtoError::BadMagic(header[..4].try_into().unwrap()));
    }
    if header[4] != VERSION {
        return Err(ProtoError::BadVersion(header[4]));
    }
    let len = u32::from_be_bytes(header[6..10].try_into().unwrap());
    if len > max_payload {
        return Err(ProtoError::Oversized {
            len,
            max: max_payload,
        });
    }
    let crc = u32::from_be_bytes(header[10..14].try_into().unwrap());
    Ok((header[5], len, crc))
}

/// Check received payload bytes against the header's declared CRC.
pub fn verify_crc(expected: u32, payload: &[u8]) -> Result<(), ProtoError> {
    let actual = crc32(payload);
    if actual == expected {
        Ok(())
    } else {
        Err(ProtoError::BadCrc { expected, actual })
    }
}

/// Decode a well-framed payload body for frame type `ty`.
pub fn parse_payload(ty: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    decode_payload(ty, payload)
}

/// Decode one frame from the front of `buf`, returning it and the number
/// of bytes consumed. Short input yields [`ProtoError::Truncated`].
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<(Frame, usize), ProtoError> {
    if buf.len() < HEADER_LEN {
        return Err(ProtoError::Truncated);
    }
    let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().unwrap();
    let (ty, len, crc) = parse_header(header, max_payload)?;
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(ProtoError::Truncated);
    }
    verify_crc(crc, &buf[HEADER_LEN..total])?;
    let frame = decode_payload(ty, &buf[HEADER_LEN..total])?;
    Ok((frame, total))
}

/// Blocking read of exactly one frame from `r`. EOF at a frame boundary
/// is [`ProtoError::Closed`]; EOF mid-frame is [`ProtoError::Truncated`].
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Frame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    fill(r, &mut header, true)?;
    let (ty, len, crc) = parse_header(&header, max_payload)?;
    // Read straight into the buffer a row batch's rows will share.
    let mut payload: Arc<[u8]> = std::iter::repeat_n(0, len as usize).collect();
    fill(r, Arc::get_mut(&mut payload).expect("a new buffer"), false)?;
    verify_crc(crc, &payload)?;
    if ty == tag::ROW_BATCH {
        decode_row_batch(payload)
    } else {
        decode_payload(ty, &payload)
    }
}

/// Fill `buf` from `r`, retrying reads a signal interrupted. EOF before a
/// frame's first byte is [`ProtoError::Closed`], anywhere else
/// [`ProtoError::Truncated`].
fn fill(r: &mut impl Read, buf: &mut [u8], frame_start: bool) -> Result<(), ProtoError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 && frame_start => return Err(ProtoError::Closed),
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Blocking write of one frame to `w`.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))
}
