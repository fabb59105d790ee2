//! Wire-protocol battery: encode≡decode round-trips for every frame type
//! under proptest, then a deterministic malformed-input sweep — first
//! against the decoder as a pure function, then against a live server.
//! The contract: garbage in yields a typed error plus either a healthy
//! connection (recoverable) or a clean close (fatal), and never a panic;
//! hostile `RowBatch` bytes decode to `BadPayload`.

use proptest::prelude::*;
use serve::proto::{
    self, DoneInfo, ErrorCode, Frame, ProtoError, RowBatchWriter, WireRow, BATCH_ROWS,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, VERSION,
};
use serve::{Client, ServeOptions, Server};

// ---------------------------------------------------------------------------
// Round-trip property: decode(encode(f)) == f for every frame type
// ---------------------------------------------------------------------------

fn arb_row() -> impl Strategy<Value = WireRow> {
    (
        proptest::collection::vec(any::<u8>(), 0..40),
        proptest::collection::vec(prop_oneof![Just(None), (0u32..1000).prop_map(Some)], 0..5),
    )
        .prop_map(|(key, assignment)| WireRow {
            key: key.into(),
            assignment: assignment.into(),
        })
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just(' '),
            Just('\''),
            Just(':'),
            Just('é'),
            Just('\u{1F600}'),
        ],
        0..30,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_string().prop_map(|uql| Frame::Query { uql }),
        arb_string().prop_map(|uql| Frame::Prepare { uql }),
        any::<u64>().prop_map(|id| Frame::Execute { id }),
        Just(Frame::Ping),
        Just(Frame::Pong),
        any::<u64>().prop_map(|id| Frame::Prepared { id }),
        proptest::collection::vec(arb_row(), 0..8).prop_map(|rows| Frame::RowBatch { rows }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(
                |(rows, pages_read, entries_examined, seeks, micros, cached_plan, degraded)| {
                    Frame::Done(DoneInfo {
                        rows,
                        pages_read,
                        entries_examined,
                        seeks,
                        micros,
                        cached_plan,
                        degraded,
                    })
                }
            ),
        (
            prop_oneof![
                Just(ErrorCode::Parse),
                Just(ErrorCode::Exec),
                Just(ErrorCode::Overloaded),
                Just(ErrorCode::Proto),
                Just(ErrorCode::UnknownStatement),
                Just(ErrorCode::NotFound),
                Just(ErrorCode::Unavailable),
            ],
            arb_string()
        )
            .prop_map(|(code, message)| Frame::Error { code, message }),
        any::<u32>().prop_map(|window_s| Frame::Stats { window_s }),
        any::<u64>().prop_map(|id| Frame::Trace { id }),
        arb_string().prop_map(|json| Frame::StatsReply { json }),
        arb_string().prop_map(|json| Frame::TraceReply { json }),
    ]
}

proptest! {
    #[test]
    fn frame_roundtrip(frame in arb_frame()) {
        let buf = proto::encode_frame(&frame);
        let (decoded, consumed) = proto::decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap();
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(consumed, buf.len());

        // The streaming reader agrees with the buffer decoder.
        let mut cursor = std::io::Cursor::new(buf.clone());
        let streamed = proto::read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap();
        prop_assert_eq!(&streamed, &frame);

        // With trailing bytes appended, exactly one frame is consumed.
        let mut padded = buf.clone();
        padded.extend_from_slice(&[0xAA; 7]);
        let (redecoded, consumed) = proto::decode_frame(&padded, DEFAULT_MAX_PAYLOAD).unwrap();
        prop_assert_eq!(&redecoded, &frame);
        prop_assert_eq!(consumed, buf.len());
    }

    #[test]
    fn decoded_rows_outlive_their_frame(rows in proptest::collection::vec(arb_row(), 0..40)) {
        // Rows view their frame's payload: kept rows must still read back
        // the originals once the encoded bytes and the frame are gone.
        let bytes = proto::encode_frame(&Frame::RowBatch { rows: rows.clone() });
        let decoded = proto::decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).unwrap().0;
        let streamed =
            proto::read_frame(&mut std::io::Cursor::new(bytes.clone()), DEFAULT_MAX_PAYLOAD)
                .unwrap();
        drop(bytes);
        for frame in [decoded, streamed] {
            let Frame::RowBatch { rows: got } = frame else {
                panic!("decoded {frame:?}");
            };
            let kept: Vec<WireRow> = got.iter().step_by(2).cloned().collect();
            drop(got);
            let want: Vec<WireRow> = rows.iter().step_by(2).cloned().collect();
            prop_assert_eq!(kept, want);
        }
    }

    #[test]
    fn truncation_never_panics(frame in arb_frame(), cut in 0usize..64) {
        // Every proper prefix either decodes as Truncated or (if the cut
        // lands beyond the frame) succeeds; no prefix may panic.
        let buf = proto::encode_frame(&frame);
        let cut = cut.min(buf.len().saturating_sub(1));
        match proto::decode_frame(&buf[..cut], DEFAULT_MAX_PAYLOAD) {
            Err(ProtoError::Truncated) => {}
            other => prop_assert!(false, "prefix of len {cut} gave {other:?}"),
        }
    }

    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        // Arbitrary bytes: any typed error is fine, panics are not.
        let _ = proto::decode_frame(&bytes, DEFAULT_MAX_PAYLOAD);
    }
}

// ---------------------------------------------------------------------------
// The server's reply writer produces exactly the frames encode_frame does
// ---------------------------------------------------------------------------

/// A reply as [`Frame`]s: `BATCH_ROWS`-row batches, then `Done`.
fn reply_by_frames(rows: &[WireRow], done: &DoneInfo) -> Vec<u8> {
    let mut out = Vec::new();
    for batch in rows.chunks(BATCH_ROWS) {
        out.extend(proto::encode_frame(&Frame::RowBatch {
            rows: batch.to_vec(),
        }));
    }
    out.extend(proto::encode_frame(&Frame::Done(*done)));
    out
}

/// The same reply through a (reused) [`RowBatchWriter`].
fn reply_by_writer(writer: &mut RowBatchWriter, rows: &[WireRow], done: &DoneInfo) -> Vec<u8> {
    writer.clear();
    for row in rows {
        writer.push_row(&row.key, row.assignment.iter());
    }
    assert_eq!(writer.rows(), rows.len() as u64);
    writer.finish(done).to_vec()
}

#[test]
fn row_batch_writer_matches_encode_frame_at_batch_boundaries() {
    let mut writer = RowBatchWriter::new();
    for n in [0, 1, 511, 512, 513, 1024, 2000] {
        let rows: Vec<WireRow> = (0..n)
            .map(|i| WireRow {
                key: format!("key-{i}").into_bytes().into(),
                assignment: vec![Some(i % 3), None, Some(i)].into(),
            })
            .collect();
        let done = DoneInfo {
            rows: n as u64,
            pages_read: 3,
            micros: 17,
            degraded: n % 2 == 0,
            ..DoneInfo::default()
        };
        assert_eq!(
            reply_by_writer(&mut writer, &rows, &done),
            reply_by_frames(&rows, &done),
            "{n} rows"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn row_batch_writer_matches_encode_frame(
        before in proptest::collection::vec(arb_row(), 0..600),
        rows in proptest::collection::vec(arb_row(), 0..1200),
        pages_read in any::<u64>(),
        cached_plan in any::<bool>(),
    ) {
        let done = DoneInfo {
            rows: rows.len() as u64,
            pages_read,
            cached_plan,
            ..DoneInfo::default()
        };
        // A writer that already built (and dropped) another reply.
        let mut writer = RowBatchWriter::new();
        for row in &before {
            writer.push_row(&row.key, row.assignment.iter());
        }
        prop_assert_eq!(
            reply_by_writer(&mut writer, &rows, &done),
            reply_by_frames(&rows, &done)
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic malformed-input sweep: decoder level
// ---------------------------------------------------------------------------

/// A v2 header declaring `len` payload bytes and carrying `crc`. For a
/// zero-length payload the CRC of the empty slice is correct; headers
/// whose declared length is rejected before any payload is read never
/// have their CRC checked, so the empty-slice CRC is fine there too.
fn header(ty: u8, len: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(&MAGIC);
    h.push(VERSION);
    h.push(ty);
    h.extend_from_slice(&len.to_be_bytes());
    h.extend_from_slice(&pagestore::crc32(&[]).to_be_bytes());
    h
}

/// A complete well-framed v2 frame around a hand-crafted payload: header
/// with the payload's true length and CRC, then the payload bytes.
fn frame_bytes(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(ty);
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&pagestore::crc32(payload).to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// A `RowBatch` payload of one row, cut after its key: a row count of 1,
/// the declared key length, then `key`.
fn row_batch_of_one(key_len: u32, key: &[u8]) -> Vec<u8> {
    let mut p = 1u32.to_be_bytes().to_vec();
    p.extend_from_slice(&key_len.to_be_bytes());
    p.extend_from_slice(key);
    p
}

#[test]
fn malformed_sweep_decoder() {
    // Bad magic.
    let mut buf = proto::encode_frame(&Frame::Ping);
    buf[0] = b'X';
    assert!(matches!(
        proto::decode_frame(&buf, DEFAULT_MAX_PAYLOAD),
        Err(ProtoError::BadMagic(_))
    ));

    // Bad version.
    let mut buf = proto::encode_frame(&Frame::Ping);
    buf[4] = VERSION + 1;
    assert!(matches!(
        proto::decode_frame(&buf, DEFAULT_MAX_PAYLOAD),
        Err(ProtoError::BadVersion(_))
    ));

    // Oversized declared length: rejected from the header alone, before
    // any payload bytes exist to allocate for.
    let buf = header(0x01, u32::MAX);
    match proto::decode_frame(&buf, DEFAULT_MAX_PAYLOAD) {
        Err(ProtoError::Oversized { len, max }) => {
            assert_eq!(len, u32::MAX);
            assert_eq!(max, DEFAULT_MAX_PAYLOAD);
        }
        other => panic!("oversized prefix gave {other:?}"),
    }

    // Unknown frame type (well-framed): recoverable.
    let buf = header(0x7F, 0);
    match proto::decode_frame(&buf, DEFAULT_MAX_PAYLOAD) {
        Err(e @ ProtoError::UnknownType(0x7F)) => assert!(!e.is_fatal()),
        other => panic!("unknown type gave {other:?}"),
    }

    // Garbage payloads, each well-framed: recoverable BadPayload.
    let cases: Vec<(u8, Vec<u8>)> = vec![
        // Query whose inner string claims more bytes than the payload has.
        (0x01, {
            let mut p = 100u32.to_be_bytes().to_vec();
            p.extend_from_slice(b"abcd");
            p
        }),
        // Query whose string is not UTF-8.
        (0x01, {
            let mut p = 2u32.to_be_bytes().to_vec();
            p.extend_from_slice(&[0xFF, 0xFE]);
            p
        }),
        // Execute with a short id.
        (0x03, vec![1, 2, 3]),
        // Ping with trailing junk.
        (0x04, vec![9]),
        // Done with an out-of-range cached_plan flag.
        (0x82, {
            let mut p = Vec::new();
            for _ in 0..5 {
                p.extend_from_slice(&0u64.to_be_bytes());
            }
            p.push(7);
            p.push(0);
            p
        }),
        // Done with an out-of-range degraded flag.
        (0x82, {
            let mut p = Vec::new();
            for _ in 0..5 {
                p.extend_from_slice(&0u64.to_be_bytes());
            }
            p.push(1);
            p.push(7);
            p
        }),
        // Error frame with an unknown error code.
        (0x83, {
            let mut p = vec![99u8];
            p.extend_from_slice(&0u32.to_be_bytes());
            p
        }),
        // RowBatch whose row count promises more rows than exist.
        (0x81, 1000u32.to_be_bytes().to_vec()),
        // RowBatch whose row's key length runs past the payload.
        (0x81, row_batch_of_one(100, b"abcd")),
        // RowBatch whose row's slot count runs past the payload: three
        // slots declared, two present.
        (0x81, {
            let mut p = row_batch_of_one(2, b"ab");
            p.extend_from_slice(&3u32.to_be_bytes());
            p.extend_from_slice(&[0; 8]);
            p
        }),
        // RowBatch whose row's slot count is u32::MAX.
        (0x81, {
            let mut p = row_batch_of_one(0, b"");
            p.extend_from_slice(&u32::MAX.to_be_bytes());
            p.extend_from_slice(&[0; 16]);
            p
        }),
        // Stats with a short window (u32 needs 4 bytes).
        (0x05, vec![0, 1]),
        // Stats with trailing junk after the window.
        (0x05, vec![0, 0, 0, 1, 0xEE]),
        // Trace with a short id.
        (0x06, vec![1, 2, 3]),
        // StatsReply whose JSON string is not UTF-8.
        (0x86, {
            let mut p = 2u32.to_be_bytes().to_vec();
            p.extend_from_slice(&[0xFF, 0xFE]);
            p
        }),
        // TraceReply whose string claims more bytes than the payload has.
        (0x87, {
            let mut p = 100u32.to_be_bytes().to_vec();
            p.extend_from_slice(b"{}");
            p
        }),
    ];
    for (ty, payload) in cases {
        let buf = frame_bytes(ty, &payload);
        match proto::decode_frame(&buf, DEFAULT_MAX_PAYLOAD) {
            Err(e @ ProtoError::BadPayload(_)) => assert!(!e.is_fatal()),
            other => panic!("garbage payload for type {ty:#x} gave {other:?}"),
        }
    }

    // A bit flipped inside a well-framed payload: typed BadCrc, fatal —
    // corrupted bytes must never decode into a (wrong) frame.
    let mut buf = proto::encode_frame(&Frame::Query {
        uql: "color: Color = 'Red'".into(),
    });
    let target = HEADER_LEN + 6;
    buf[target] ^= 0x10;
    match proto::decode_frame(&buf, DEFAULT_MAX_PAYLOAD) {
        Err(e @ ProtoError::BadCrc { .. }) => assert!(e.is_fatal()),
        other => panic!("corrupted payload gave {other:?}"),
    }
    // The streaming reader agrees.
    let mut cursor = std::io::Cursor::new(buf);
    match proto::read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD) {
        Err(ProtoError::BadCrc { .. }) => {}
        other => panic!("corrupted payload streamed gave {other:?}"),
    }
}

#[test]
fn a_bit_flipped_anywhere_in_a_full_row_batch_is_bad_crc() {
    // A full batch is long enough for every part of the CRC: the folding
    // kernel's 64-byte blocks and 16-byte steps, and the table loop's tail.
    let rows: Vec<WireRow> = (0..BATCH_ROWS as u32)
        .map(|i| WireRow {
            key: format!("key-{i}").into_bytes().into(),
            assignment: vec![Some(i), None].into(),
        })
        .collect();
    assert_eq!(rows.len(), 512);
    let clean = proto::encode_frame(&Frame::RowBatch { rows });
    let len = clean.len() - HEADER_LEN;
    let (blocks_end, lanes_end) = (len / 64 * 64, len / 16 * 16);
    assert!(
        blocks_end < lanes_end && lanes_end < len,
        "a {len}-byte payload has no 16-byte fold tail or no table tail"
    );
    for (place, at) in [
        ("the first 64-byte block", 5),
        ("a middle block", blocks_end / 2 + 3),
        ("the 16-byte fold tail", blocks_end + 1),
        ("the last byte", len - 1),
    ] {
        let mut buf = clean.clone();
        buf[HEADER_LEN + at] ^= 0x04;
        match proto::decode_frame(&buf, DEFAULT_MAX_PAYLOAD) {
            Err(e @ ProtoError::BadCrc { .. }) => assert!(e.is_fatal()),
            other => panic!("a bit flipped in {place} (byte {at} of {len}) gave {other:?}"),
        }
        let mut cursor = std::io::Cursor::new(buf);
        match proto::read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD) {
            Err(ProtoError::BadCrc { .. }) => {}
            other => panic!("a bit flipped in {place} streamed gave {other:?}"),
        }
    }
}

/// A stream that hands over its bytes in scripted chunks, failing a read
/// with `Interrupted` (a signal arriving mid-`read`) between chunks.
struct InterruptedReader {
    chunks: Vec<Vec<u8>>,
    interrupt: bool,
}

impl std::io::Read for InterruptedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.chunks.is_empty() {
            return Ok(0);
        }
        if std::mem::take(&mut self.interrupt) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let chunk = &mut self.chunks[0];
        let n = buf.len().min(chunk.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        chunk.drain(..n);
        if chunk.is_empty() {
            self.chunks.remove(0);
            self.interrupt = true;
        }
        Ok(n)
    }
}

#[test]
fn read_frame_retries_interrupted_reads() {
    let frame = Frame::RowBatch {
        rows: (0..3)
            .map(|i| WireRow {
                key: vec![i; 20].into(),
                assignment: vec![Some(i as u32), None].into(),
            })
            .collect(),
    };
    let bytes = proto::encode_frame(&frame);
    // Interrupted once mid-header and once mid-payload.
    let (header, payload) = bytes.split_at(HEADER_LEN);
    let mut reader = InterruptedReader {
        chunks: vec![
            header[..5].to_vec(),
            [&header[5..], &payload[..10]].concat(),
            payload[10..].to_vec(),
        ],
        interrupt: false,
    };
    assert_eq!(
        proto::read_frame(&mut reader, DEFAULT_MAX_PAYLOAD).unwrap(),
        frame
    );
    assert!(matches!(
        proto::read_frame(&mut reader, DEFAULT_MAX_PAYLOAD),
        Err(ProtoError::Closed)
    ));
}

// ---------------------------------------------------------------------------
// Deterministic malformed-input sweep: live server
// ---------------------------------------------------------------------------

fn tiny_server() -> (uindex::Database, Server) {
    let (schema, classes) = workload::serve::schema();
    let mut db = uindex::Database::with_page_size(schema, 1024, 4096).unwrap();
    workload::serve::populate(&mut db, &classes, 7, 60).unwrap();
    let reader = db.reader();
    let server = Server::start(
        reader,
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    (db, server)
}

const VALID_UQL: &str = "color: Color = 'Red'";

fn expect_proto_error(client: &mut Client) {
    match client.read_reply().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Proto),
        other => panic!("wanted a Proto error frame, got {other:?}"),
    }
}

fn expect_clean_close(client: &mut Client) {
    match client.read_reply() {
        Err(ProtoError::Closed) => {}
        // The server closing can also surface as a reset, depending on
        // timing; either way no further frames arrive.
        Err(ProtoError::Io(_)) => {}
        other => panic!("connection should be closed, got {other:?}"),
    }
}

#[test]
fn malformed_sweep_live_server() {
    let (_db, server) = tiny_server();
    let addr = server.local_addr();

    // Fatal: bad magic. Typed error, then clean close.
    let mut c = Client::connect(addr).unwrap();
    c.send_raw(b"JUNKJUNKJUNKJUNK").unwrap();
    expect_proto_error(&mut c);
    expect_clean_close(&mut c);

    // Fatal: bad version.
    let mut c = Client::connect(addr).unwrap();
    let mut buf = proto::encode_frame(&Frame::Ping);
    buf[4] = 9;
    c.send_raw(&buf).unwrap();
    expect_proto_error(&mut c);
    expect_clean_close(&mut c);

    // Fatal: oversized length prefix — rejected before the server reads
    // (or allocates) a single payload byte.
    let mut c = Client::connect(addr).unwrap();
    c.send_raw(&header(0x01, u32::MAX)).unwrap();
    expect_proto_error(&mut c);
    expect_clean_close(&mut c);

    // Recoverable: unknown frame type. Typed error, connection healthy —
    // the same connection then answers a real query.
    let mut c = Client::connect(addr).unwrap();
    c.send_raw(&header(0x7F, 0)).unwrap();
    expect_proto_error(&mut c);
    let reply = c.query(VALID_UQL).unwrap();
    assert!(reply.done.rows == reply.rows.len() as u64);

    // Recoverable: garbage payload inside a valid frame.
    let mut c = Client::connect(addr).unwrap();
    c.send_raw(&frame_bytes(0x01, &100u32.to_be_bytes()))
        .unwrap();
    expect_proto_error(&mut c);
    c.ping().unwrap();

    // Fatal: a payload bit flipped in transit. Typed error, clean close —
    // the server must never decode (let alone execute) the damaged frame.
    let mut c = Client::connect(addr).unwrap();
    let mut buf = proto::encode_frame(&Frame::Query {
        uql: VALID_UQL.into(),
    });
    buf[HEADER_LEN + 6] ^= 0x10;
    c.send_raw(&buf).unwrap();
    expect_proto_error(&mut c);
    expect_clean_close(&mut c);

    // Recoverable: a client sending response-typed frames.
    let mut c = Client::connect(addr).unwrap();
    c.send_raw(&proto::encode_frame(&Frame::Pong)).unwrap();
    expect_proto_error(&mut c);
    c.ping().unwrap();

    // Truncated frame then abrupt close: the server must not leak the
    // connection or wedge — it keeps serving new clients.
    {
        let mut c = Client::connect(addr).unwrap();
        let buf = proto::encode_frame(&Frame::Query {
            uql: VALID_UQL.into(),
        });
        c.send_raw(&buf[..buf.len() - 3]).unwrap();
    } // dropped: TCP close mid-frame

    // After the whole sweep the server still answers correctly.
    let mut c = Client::connect(addr).unwrap();
    let reply = c.query(VALID_UQL).unwrap();
    assert_eq!(reply.done.rows, reply.rows.len() as u64);
    drop(c);

    let report = server.shutdown();
    assert!(
        report.metrics.counter("serve.proto_errors") >= 6,
        "sweep recorded {} proto errors",
        report.metrics.counter("serve.proto_errors")
    );
    // Quiescent: nothing in flight after shutdown.
    assert_eq!(report.metrics.counter("serve.shed"), 0);
}

// ---------------------------------------------------------------------------
// UQL-level errors are typed, not protocol errors
// ---------------------------------------------------------------------------

#[test]
fn parse_and_statement_errors_are_typed() {
    let (_db, server) = tiny_server();
    let mut c = Client::connect(server.local_addr()).unwrap();

    match c.query("nonsense ,,, query") {
        Err(serve::ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::Parse),
        other => panic!("wanted Parse error, got {other:?}"),
    }
    // The connection survives a parse error.
    match c.execute(123456) {
        Err(serve::ServeError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownStatement)
        }
        other => panic!("wanted UnknownStatement, got {other:?}"),
    }
    let reply = c.query(VALID_UQL).unwrap();
    assert_eq!(reply.done.rows, reply.rows.len() as u64);
    drop(c);
    server.shutdown();
}
