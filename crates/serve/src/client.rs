//! Minimal blocking client for the UQL wire protocol: used by the load
//! generator, the test battery, and as the reference for how a foreign
//! client should drive the server.

use std::fmt;
use std::io::{BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::proto::{self, DoneInfo, ErrorCode, Frame, ProtoError, WireRow, DEFAULT_MAX_PAYLOAD};

/// A failure surfaced to the client caller, keeping server-side typed
/// errors (notably `Overloaded`) distinguishable from transport issues.
#[derive(Debug)]
pub enum ServeError {
    /// Framing/transport failure on this side of the wire.
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Server { code: ErrorCode, message: String },
    /// The server sent a well-formed frame the client did not expect in
    /// this state (e.g. a `Pong` to a `Query`).
    Unexpected(&'static str),
}

impl ServeError {
    /// Whether this is an admission-control shed (retryable).
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            ServeError::Server {
                code: ErrorCode::Overloaded,
                ..
            }
        )
    }

    /// Whether a retry can possibly succeed **and** cannot change
    /// observable state, given whether the request was `idempotent`.
    ///
    /// The table, pinned by unit tests below:
    ///
    /// * typed `Overloaded` / `Unavailable` — the server explicitly said
    ///   "retry later"; always retryable.
    /// * any other typed server error (`Parse`, `Exec`, `Proto`,
    ///   `UnknownStatement`, `NotFound`) — deterministic; retrying
    ///   re-earns the same answer, so never retryable.
    /// * framing/transport loss (`Io`, `Closed`, `Truncated`, `BadMagic`,
    ///   `BadVersion`, `Oversized`, `BadCrc`, `ReadDeadline`) — the
    ///   request may or may not have executed, so retryable **only** for
    ///   idempotent requests (reads). All UQL statements are reads today,
    ///   but the split keeps the client honest if that ever changes.
    /// * a well-framed-but-wrong frame (`UnknownType`, `BadPayload`,
    ///   [`ServeError::Unexpected`]) — the peers disagree about the
    ///   protocol; retrying cannot fix that.
    pub fn is_retryable(&self, idempotent: bool) -> bool {
        match self {
            ServeError::Server { code, .. } => {
                matches!(code, ErrorCode::Overloaded | ErrorCode::Unavailable)
            }
            ServeError::Proto(ProtoError::UnknownType(_) | ProtoError::BadPayload(_)) => false,
            ServeError::Proto(_) => idempotent,
            ServeError::Unexpected(_) => false,
        }
    }

    /// Whether the connection is unusable after this error — the same
    /// fatal/recoverable split the server applies to client input. An
    /// unknown-but-well-framed response tag ([`ProtoError::UnknownType`])
    /// and a typed server error both leave the stream at a frame
    /// boundary, so the connection can keep being used; anything that
    /// loses framing (truncation, bad magic, IO failure) cannot.
    pub fn is_fatal(&self) -> bool {
        match self {
            ServeError::Proto(e) => e.is_fatal(),
            ServeError::Server { .. } => false,
            // The frame parsed; it just arrived in the wrong state. The
            // stream is still framed.
            ServeError::Unexpected(_) => false,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Proto(e) => write!(f, "protocol: {e}"),
            ServeError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ServeError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ProtoError> for ServeError {
    fn from(e: ProtoError) -> Self {
        ServeError::Proto(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Proto(ProtoError::Io(e))
    }
}

/// A complete successful query response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// All rows, concatenated across row batches in arrival order.
    pub rows: Vec<WireRow>,
    /// The closing execution summary.
    pub done: DoneInfo,
}

/// Bytes a [`Client`] reads ahead: a whole batch of typical rows, so a
/// frame's header and payload arrive in one `read`.
const READ_AHEAD: usize = 64 << 10;

/// One blocking connection to a UQL server.
pub struct Client {
    /// The socket, read through a buffer; writes go to the socket itself.
    stream: BufReader<TcpStream>,
    max_payload: u32,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::with_capacity(READ_AHEAD, stream),
            max_payload: DEFAULT_MAX_PAYLOAD,
        })
    }

    fn write_frame(&mut self, frame: &Frame) -> std::io::Result<()> {
        proto::write_frame(self.stream.get_mut(), frame)
    }

    /// Bound every blocking read on this connection. Without one, a lost
    /// or garbled reply (e.g. a corrupted length header making the peer
    /// wait for bytes that never come) blocks the caller forever; with
    /// one, the read fails with a timed-out I/O error, which
    /// [`ServeError::is_fatal`] marks as connection-poisoning — exactly
    /// what a retrying caller needs to tear down and reconnect.
    pub fn set_read_timeout(
        &mut self,
        timeout: Option<std::time::Duration>,
    ) -> std::io::Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.write_frame(&Frame::Ping)?;
        match self.read_reply()? {
            Frame::Pong => Ok(()),
            _ => Err(ServeError::Unexpected("wanted Pong")),
        }
    }

    /// Parse-and-cache a statement server-side; the returned id drives
    /// [`Client::execute`].
    pub fn prepare(&mut self, uql: &str) -> Result<u64, ServeError> {
        self.write_frame(&Frame::Prepare { uql: uql.into() })?;
        match self.read_reply()? {
            Frame::Prepared { id } => Ok(id),
            _ => Err(ServeError::Unexpected("wanted Prepared")),
        }
    }

    /// Run a previously prepared statement.
    pub fn execute(&mut self, id: u64) -> Result<QueryReply, ServeError> {
        self.write_frame(&Frame::Execute { id })?;
        self.collect_rows()
    }

    /// Parse-and-run one UQL statement.
    pub fn query(&mut self, uql: &str) -> Result<QueryReply, ServeError> {
        self.write_frame(&Frame::Query { uql: uql.into() })?;
        self.collect_rows()
    }

    /// Fetch the server's live stats document for the last `window_s`
    /// seconds. Answered even by a saturated server — Stats bypasses
    /// admission control.
    pub fn stats(&mut self, window_s: u32) -> Result<String, ServeError> {
        self.write_frame(&Frame::Stats { window_s })?;
        match self.read_reply()? {
            Frame::StatsReply { json } => Ok(json),
            Frame::Error { code, message } => Err(ServeError::Server { code, message }),
            _ => Err(ServeError::Unexpected("wanted StatsReply")),
        }
    }

    /// Fetch the slow-query log entry for query `id` (an id previously
    /// reported in a `StatsReply` slow list). `NotFound` means the entry
    /// was evicted or never logged.
    pub fn trace(&mut self, id: u64) -> Result<String, ServeError> {
        self.write_frame(&Frame::Trace { id })?;
        match self.read_reply()? {
            Frame::TraceReply { json } => Ok(json),
            Frame::Error { code, message } => Err(ServeError::Server { code, message }),
            _ => Err(ServeError::Unexpected("wanted TraceReply")),
        }
    }

    /// Send raw bytes as-is — the malformed-input tests' entry point.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.get_mut().write_all(bytes)
    }

    /// Read one frame off the wire (for driving the protocol manually).
    pub fn read_reply(&mut self) -> Result<Frame, ProtoError> {
        proto::read_frame(&mut self.stream, self.max_payload)
    }

    fn collect_rows(&mut self) -> Result<QueryReply, ServeError> {
        read_query_reply(&mut self.stream, self.max_payload)
    }
}

/// Read one query's answer — row batches up to `Done`, or a typed error.
fn read_query_reply(r: &mut impl Read, max_payload: u32) -> Result<QueryReply, ServeError> {
    let mut rows = Vec::new();
    loop {
        match proto::read_frame(r, max_payload)? {
            Frame::RowBatch { rows: batch } if rows.is_empty() => rows = batch,
            Frame::RowBatch { rows: batch } => rows.extend(batch),
            Frame::Done(done) => return Ok(QueryReply { rows, done }),
            Frame::Error { code, message } => return Err(ServeError::Server { code, message }),
            _ => return Err(ServeError::Unexpected("wanted RowBatch/Done/Error")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket stand-in that hands over all it has on every `read`, and
    /// counts the calls.
    struct CountingReader {
        bytes: std::io::Cursor<Vec<u8>>,
        reads: usize,
    }

    impl Read for CountingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_reply_is_read_a_buffer_at_a_time() {
        let row = WireRow {
            key: vec![7; 24].into(),
            assignment: vec![Some(0), None].into(),
        };
        let rows = vec![row; proto::BATCH_ROWS + 100];
        let mut bytes = Vec::new();
        for batch in rows.chunks(proto::BATCH_ROWS) {
            bytes.extend(proto::encode_frame(&Frame::RowBatch {
                rows: batch.to_vec(),
            }));
        }
        let done = DoneInfo {
            rows: rows.len() as u64,
            ..DoneInfo::default()
        };
        bytes.extend(proto::encode_frame(&Frame::Done(done)));
        assert!(
            bytes.len() < READ_AHEAD,
            "premise: the reply fits the buffer"
        );

        let counting = |bytes: &[u8]| CountingReader {
            bytes: std::io::Cursor::new(bytes.to_vec()),
            reads: 0,
        };
        let mut unbuffered = counting(&bytes);
        let reply = read_query_reply(&mut unbuffered, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!((reply.rows.len(), reply.done), (rows.len(), done));
        assert_eq!(unbuffered.reads, 6, "a header and a payload read per frame");
        let mut buffered = BufReader::with_capacity(READ_AHEAD, counting(&bytes));
        let reply = read_query_reply(&mut buffered, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!((reply.rows, reply.done), (rows, done));
        assert_eq!(buffered.get_ref().reads, 1, "three frames, one read");
    }

    #[test]
    fn an_untrusted_row_count_reserves_only_what_the_bytes_can_hold() {
        // The largest count the field can carry, then ten minimal rows: the
        // decoder must reserve for ten, not four billion.
        let mut payload = u32::MAX.to_be_bytes().to_vec();
        payload.extend([0u8; 80]);
        let mut frame = proto::encode_frame(&Frame::RowBatch { rows: Vec::new() });
        frame.truncate(proto::HEADER_LEN);
        frame[6..10].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        frame[10..14].copy_from_slice(&pagestore::crc32(&payload).to_be_bytes());
        frame.extend(&payload);
        assert!(matches!(
            proto::decode_frame(&frame, DEFAULT_MAX_PAYLOAD),
            Err(ProtoError::BadPayload(_))
        ));
        // An honest count reserves exactly the rows that follow.
        let honest = proto::encode_frame(&Frame::RowBatch {
            rows: vec![
                WireRow {
                    key: Vec::new().into(),
                    assignment: Vec::new().into(),
                };
                10
            ],
        });
        match proto::decode_frame(&honest, DEFAULT_MAX_PAYLOAD).unwrap().0 {
            Frame::RowBatch { rows } => assert_eq!((rows.len(), rows.capacity()), (10, 10)),
            other => panic!("decoded {other:?}"),
        }
    }

    fn server(code: ErrorCode) -> ServeError {
        ServeError::Server {
            code,
            message: "x".into(),
        }
    }

    #[test]
    fn overloaded_and_unavailable_always_retry() {
        for code in [ErrorCode::Overloaded, ErrorCode::Unavailable] {
            assert!(server(code).is_retryable(true));
            assert!(server(code).is_retryable(false));
        }
    }

    #[test]
    fn deterministic_server_errors_never_retry() {
        for code in [
            ErrorCode::Parse,
            ErrorCode::Exec,
            ErrorCode::Proto,
            ErrorCode::UnknownStatement,
            ErrorCode::NotFound,
        ] {
            assert!(!server(code).is_retryable(true), "{code:?}");
            assert!(!server(code).is_retryable(false), "{code:?}");
        }
    }

    #[test]
    fn framing_loss_retries_only_idempotent_requests() {
        let losses = [
            ServeError::Proto(ProtoError::Io(std::io::Error::other("boom"))),
            ServeError::Proto(ProtoError::Closed),
            ServeError::Proto(ProtoError::Truncated),
            ServeError::Proto(ProtoError::BadMagic(*b"nope")),
            ServeError::Proto(ProtoError::BadVersion(9)),
            ServeError::Proto(ProtoError::Oversized { len: 9, max: 1 }),
            ServeError::Proto(ProtoError::ReadDeadline),
            ServeError::Proto(ProtoError::BadCrc {
                expected: 1,
                actual: 2,
            }),
        ];
        for e in losses {
            assert!(e.is_retryable(true), "{e}");
            assert!(!e.is_retryable(false), "{e}");
        }
    }

    #[test]
    fn protocol_disagreement_never_retries() {
        let disagreements = [
            ServeError::Proto(ProtoError::UnknownType(0x7f)),
            ServeError::Proto(ProtoError::BadPayload("bad".into())),
            ServeError::Unexpected("wanted Pong"),
        ];
        for e in disagreements {
            assert!(!e.is_retryable(true), "{e}");
            assert!(!e.is_retryable(false), "{e}");
        }
    }
}
