//! Live-introspection battery: Stats/Trace against a running server.
//!
//! - Torture: concurrent Stats pollers riding along a mixed query stream —
//!   every reply parses, counters are monotone across replies, and the
//!   sampled cumulative tally never runs ahead of the live sum.
//! - Stats under saturation: with the whole admission bound held
//!   externally, Stats still answers (the bypass contract).
//! - Slow-query log: entries appear, Trace returns the full document,
//!   unknown ids get a typed `NotFound`.
//! - Read deadline: a half-written frame header closes the connection
//!   with a typed fatal error, counted in `deadline_closed`.
//! - Transport errors: a client that resets mid-reply is one disconnect,
//!   in the registry and in Stats.
//! - Client-side fatal/recoverable split: an unknown response tag is
//!   recoverable, truncation is fatal.

use std::io::Write as _;
use std::time::{Duration, Instant};

use serve::proto::{self, ErrorCode, Frame, ProtoError, HEADER_LEN, MAGIC, VERSION};
use serve::{Client, ServeError, ServeOptions, Server};
use telemetry::json;

fn server_with(options: ServeOptions) -> (uindex::Database, Server) {
    let (schema, classes) = workload::serve::schema();
    let mut db = uindex::Database::with_page_size(schema, 1024, 4096).unwrap();
    workload::serve::populate(&mut db, &classes, 23, 100).unwrap();
    let reader = db.reader();
    let server = Server::start(reader, options).unwrap();
    (db, server)
}

fn fast_sampling() -> ServeOptions {
    ServeOptions {
        workers: 2,
        sample_interval: Duration::from_millis(50),
        ..ServeOptions::default()
    }
}

const UQL: &str = "color: Color = 'Red'";

fn ju64(v: &json::Json, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = match cur.get(key) {
            Some(x) => x,
            None => return 0,
        };
    }
    cur.as_u64().unwrap_or(0)
}

#[test]
fn concurrent_stats_pollers_with_mixed_queries() {
    let (_db, server) = server_with(fast_sampling());
    let addr = server.local_addr();
    let statements = workload::serve::uql_families();

    std::thread::scope(|scope| {
        // Query stream: 3 clients, 40 mixed requests each.
        let mut workers = Vec::new();
        for t in 0..3usize {
            let statements = statements.clone();
            workers.push(scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let prepared: Vec<u64> = statements.iter().map(|s| c.prepare(s).unwrap()).collect();
                for i in 0..40 {
                    let which = (t + i) % statements.len();
                    let reply = if i % 2 == 0 {
                        c.execute(prepared[which]).unwrap()
                    } else {
                        c.query(statements[which]).unwrap()
                    };
                    assert_eq!(reply.done.rows, reply.rows.len() as u64);
                }
            }));
        }
        // Stats pollers: 2 concurrent, hammering without sleeping.
        let mut pollers = Vec::new();
        for _ in 0..2 {
            pollers.push(scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let (mut last_cum, mut last_live, mut last_tick) = (0u64, 0u64, 0u64);
                for _ in 0..60 {
                    let doc = c.stats(5).expect("Stats reply");
                    let v = json::parse(&doc).expect("every Stats reply must parse");
                    let cum = ju64(&v, &["cumulative", "queries"]);
                    let live = ju64(&v, &["live", "queries"]);
                    let tick = ju64(&v, &["tick"]);
                    assert!(cum >= last_cum, "cumulative went backwards");
                    assert!(live >= last_live, "live counter went backwards");
                    assert!(tick >= last_tick, "tick went backwards");
                    assert!(cum <= live, "sampled tally ran ahead of the live sum");
                    last_cum = cum;
                    last_live = live;
                    last_tick = tick;
                }
            }));
        }
        for h in workers.into_iter().chain(pollers) {
            h.join().unwrap();
        }
    });

    // Quiesce: within a few sample intervals the cumulative tally
    // converges on the live total exactly.
    let mut c = Client::connect(addr).unwrap();
    let total = 3 * 40u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let v = json::parse(&c.stats(0).unwrap()).unwrap();
        let cum = ju64(&v, &["cumulative", "queries"]);
        let live = ju64(&v, &["live", "queries"]);
        assert_eq!(live, total, "live counter must be exact at quiesce");
        if cum == total {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sampled tally never converged: {cum} != {total}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(c);
    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve.queries"), total);
}

#[test]
fn stats_succeeds_while_gate_is_saturated() {
    let (_db, server) = server_with(ServeOptions {
        workers: 2,
        max_inflight: 2,
        sample_interval: Duration::from_millis(50),
        ..ServeOptions::default()
    });
    let gate = server.gate();
    let held: Vec<_> = (0..2).map(|_| gate.try_admit().unwrap()).collect();

    let mut c = Client::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        match c.query(UQL) {
            Err(e) if e.is_overloaded() => {}
            other => panic!("saturated server must shed, got {other:?}"),
        }
    }
    // Stats answers on the spot, reporting full occupancy and the sheds.
    let v = json::parse(&c.stats(10).expect("Stats must bypass the gate")).unwrap();
    assert_eq!(ju64(&v, &["live", "inflight"]), 2);
    assert_eq!(ju64(&v, &["live", "shed"]), 3);
    drop(held);
    let reply = c.query(UQL).unwrap();
    assert!(reply.done.rows > 0);
    drop(c);
    server.shutdown();
}

#[test]
fn slow_log_records_and_trace_replays() {
    let (_db, server) = server_with(fast_sampling());
    let mut c = Client::connect(server.local_addr()).unwrap();

    // With the default threshold of 0 every query competes for the log.
    for _ in 0..5 {
        c.query(UQL).unwrap();
    }
    let v = json::parse(&c.stats(10).unwrap()).unwrap();
    let slow = v.get("slow").and_then(|s| s.as_arr()).expect("slow list");
    assert!(!slow.is_empty(), "queries must land in the slow log");

    let id = ju64(&slow[0], &["id"]);
    assert!(id > 0, "query ids are monotonically assigned from 1");
    let trace = c.trace(id).expect("trace of a logged id");
    let t = json::parse(&trace).expect("TraceReply parses");
    assert_eq!(ju64(&t, &["id"]), id);
    assert_eq!(
        t.get("uql").and_then(|u| u.as_str()),
        Some(UQL),
        "entry carries the normalized statement"
    );
    assert!(t.get("scan_stats").is_some());
    assert!(
        t.get("delta").and_then(|d| d.get("histograms")).is_some(),
        "entry carries the per-query registry delta"
    );
    assert!(ju64(&t, &["snapshot_epoch"]) > 0);

    // Unknown id: typed NotFound, connection stays healthy.
    match c.trace(u64::MAX) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("wanted NotFound, got {other:?}"),
    }
    c.ping().unwrap();
    drop(c);
    server.shutdown();
}

/// A logged query's registry delta is that query's alone, also when the
/// queries before it on the connection were too fast for the log (their
/// events must not pile into the next entry).
#[test]
fn slow_log_delta_covers_one_query() {
    let (schema, classes) = workload::serve::schema();
    let mut db = uindex::Database::with_page_size(schema, 1024, 4096).unwrap();
    workload::serve::populate(&mut db, &classes, 23, 2000).unwrap();
    let server = Server::start(
        db.reader(),
        ServeOptions {
            workers: 1,
            slow_log_capacity: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    const BIG: &str = "color: Vehicle in [Vehicle*]";
    for _ in 0..10 {
        c.query("color: Color = 'NoSuchColor'").unwrap();
    }
    assert!(c.query(BIG).unwrap().done.rows >= 2000);

    let v = json::parse(&c.stats(10).unwrap()).unwrap();
    let slow = v.get("slow").and_then(|s| s.as_arr()).expect("slow list");
    assert_eq!(slow.len(), 1);
    let t = json::parse(&c.trace(ju64(&slow[0], &["id"])).unwrap()).unwrap();
    assert_eq!(t.get("uql").and_then(|u| u.as_str()), Some(BIG));
    assert_eq!(ju64(&t, &["delta", "counters", "serve.queries"]), 1);
    assert_eq!(
        ju64(&t, &["delta", "histograms", "serve.query_us", "count"]),
        1
    );
    drop(c);
    server.shutdown();
}

#[test]
fn slow_log_threshold_filters_fast_queries() {
    let (_db, server) = server_with(ServeOptions {
        workers: 2,
        slow_query_us: u64::MAX, // nothing is ever this slow
        ..ServeOptions::default()
    });
    let mut c = Client::connect(server.local_addr()).unwrap();
    for _ in 0..5 {
        c.query(UQL).unwrap();
    }
    let v = json::parse(&c.stats(10).unwrap()).unwrap();
    let slow = v.get("slow").and_then(|s| s.as_arr()).expect("slow list");
    assert!(
        slow.is_empty(),
        "under-threshold queries must not be logged"
    );
    drop(c);
    server.shutdown();
}

#[test]
fn half_written_header_hits_the_read_deadline() {
    let (_db, server) = server_with(ServeOptions {
        workers: 1,
        read_deadline: Some(Duration::from_millis(200)),
        ..ServeOptions::default()
    });
    let addr = server.local_addr();

    // An idle connection that never sends a byte is NOT subject to the
    // deadline: it must still answer long after the budget.
    let mut idle = Client::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    idle.ping()
        .expect("idle connection must survive the deadline");

    // A connection stalling mid-header is closed with a typed error.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(&MAGIC[..2]).unwrap(); // 2 of 10 header bytes
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match proto::read_frame(&mut stream, proto::DEFAULT_MAX_PAYLOAD) {
        Ok(Frame::Error { code, message }) => {
            assert_eq!(code, ErrorCode::Proto);
            assert!(
                message.contains("deadline"),
                "error must name the deadline, got {message:?}"
            );
        }
        other => panic!("wanted a typed deadline error, got {other:?}"),
    }
    // ...and then actually closed (fatal, not recoverable).
    match proto::read_frame(&mut stream, proto::DEFAULT_MAX_PAYLOAD) {
        Err(ProtoError::Closed) | Err(ProtoError::Io(_)) => {}
        other => panic!("connection must be closed after the deadline, got {other:?}"),
    }

    // The counter recorded it, and Stats exposes it.
    let v = json::parse(&idle.stats(10).unwrap()).unwrap();
    assert_eq!(ju64(&v, &["live", "deadline_closed"]), 1);
    drop(idle);
    drop(stream);

    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve.conn.deadline_closed"), 1);
}

#[test]
fn transport_error_disconnect_counts_once() {
    let (schema, classes) = workload::serve::schema();
    let mut db = uindex::Database::with_page_size(schema, 1024, 4096).unwrap();
    workload::serve::populate(&mut db, &classes, 23, 2000).unwrap();
    let server = Server::start(db.reader(), fast_sampling()).unwrap();
    let addr = server.local_addr();
    let mut observer = Client::connect(addr).unwrap();

    // Ask for every vehicle, wait for the reply to start arriving, then
    // close without reading it. Unread data turns the close into a reset,
    // so the server's next write or read fails on the transport.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let uql = "color: Color between 'A' and 'Z'".to_string();
    stream
        .write_all(&proto::encode_frame(&Frame::Query { uql }))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.peek(&mut [0u8; 1]).unwrap();
    drop(stream);

    let t0 = Instant::now();
    while server.metrics().counter("serve.disconnects") == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the reset connection was never counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let v = json::parse(&observer.stats(10).unwrap()).unwrap();
    assert_eq!(ju64(&v, &["live", "disconnects"]), 1);

    // Shutdown joins every thread, so a second count, had the server
    // made one, is in its report. Clean closes, the observer's and
    // shutdown's, are not disconnects.
    drop(observer);
    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve.disconnects"), 1);
}

#[test]
fn client_splits_fatal_from_recoverable_responses() {
    // A fake "server" speaking raw TCP lets us inject responses the real
    // server would never send.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        // 1: a well-framed frame with an unknown response tag.
        let mut unknown = Vec::new();
        unknown.extend_from_slice(&MAGIC);
        unknown.push(VERSION);
        unknown.push(0xEE);
        unknown.extend_from_slice(&0u32.to_be_bytes());
        unknown.extend_from_slice(&pagestore::crc32(&[]).to_be_bytes());
        sock.write_all(&unknown).unwrap();
        // 2: a valid Pong — proves the stream stayed usable.
        sock.write_all(&proto::encode_frame(&Frame::Pong)).unwrap();
        // 3: a truncated header, then close — framing is lost for good.
        sock.write_all(&MAGIC[..3]).unwrap();
    });

    let mut client = Client::connect(addr).unwrap();
    client.send_raw(&proto::encode_frame(&Frame::Ping)).unwrap();

    // Unknown response tag: typed, recoverable — the stream is still at
    // a frame boundary and the next frame parses fine.
    let err = ServeError::from(client.read_reply().expect_err("unknown tag must error"));
    assert!(
        !err.is_fatal(),
        "well-framed unknown response must be recoverable: {err}"
    );
    match client.read_reply() {
        Ok(Frame::Pong) => {}
        other => panic!("stream must still be framed after UnknownType, got {other:?}"),
    }

    // Truncation: fatal — the connection cannot be trusted further.
    let err = ServeError::from(
        client
            .read_reply()
            .expect_err("truncated header must error"),
    );
    assert!(err.is_fatal(), "lost framing must be fatal: {err}");
    // Typed server errors stay recoverable; transport errors stay fatal.
    assert!(!ServeError::Server {
        code: ErrorCode::Overloaded,
        message: String::new()
    }
    .is_fatal());
    assert!(ServeError::from(ProtoError::BadMagic(*b"XXXX")).is_fatal());
    fake.join().unwrap();
}

#[test]
fn stats_and_trace_roundtrip_over_live_wire() {
    // Belt-and-braces for the new frames over a real connection: the
    // encode path in the client and the decode path in the server (and
    // back) agree, including multi-kilobyte JSON replies.
    let (_db, server) = server_with(fast_sampling());
    let mut c = Client::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        c.query(UQL).unwrap();
    }
    let doc = c.stats(60).unwrap();
    assert!(doc.len() > 200, "stats doc should be substantial");
    let v = json::parse(&doc).unwrap();
    assert!(v.get("window").is_some() && v.get("live").is_some());
    // Zero-length header frames still round-trip.
    assert_eq!(HEADER_LEN, 14);
    drop(c);
    server.shutdown();
}
