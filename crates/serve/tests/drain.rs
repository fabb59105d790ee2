//! Contracts of the one-thread-per-request server that no poll interval
//! backs any more: `shutdown()` drains exactly the requests in progress
//! and returns as soon as they are answered; blocking reads still honour
//! the per-frame deadline; `workers` still bounds execution when requests
//! run on their connections' threads; closed connections leave nothing
//! behind.

use std::collections::HashMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

use serve::proto::{self, ErrorCode, Frame};
use serve::{Client, ServeOptions, Server, WireRow};
use telemetry::json;

fn server_with(n_vehicles: usize, options: ServeOptions) -> (uindex::Database, Server) {
    let (schema, classes) = workload::serve::schema();
    let mut db = uindex::Database::with_page_size(schema, 1024, 1 << 14).unwrap();
    workload::serve::populate(&mut db, &classes, 7, n_vehicles).unwrap();
    let server = Server::start(db.reader(), options).unwrap();
    (db, server)
}

#[test]
fn shutdown_answers_the_executing_query_then_returns_at_once() {
    const VEHICLES: usize = 300; // every age in the database is in the list
    let (_db, server) = server_with(
        VEHICLES,
        ServeOptions {
            workers: 2,
            max_payload: 8 << 20,
            ..ServeOptions::default()
        },
    );
    let addr = server.local_addr();

    // Idle connections, each parked in a blocking read after one request.
    let mut idle: Vec<Client> = (0..4).map(|_| Client::connect(addr).unwrap()).collect();
    for c in &mut idle {
        c.ping().unwrap();
    }

    // One long query on a small database: an `in` list is one index seek
    // per value, so 400 000 values keep a slot busy for a good while.
    let long = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let ages: Vec<String> = (0..400_000).map(|i| i.to_string()).collect();
        let reply = c.query(&format!("age: Age in ({})", ages.join(", ")));
        (reply, Instant::now())
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.inflight() == 0 {
        assert!(Instant::now() < deadline, "the long query never started");
        std::thread::yield_now();
    }

    let called = Instant::now();
    let report = server.shutdown();
    let returned = Instant::now();

    let (reply, answered) = long.join().unwrap();
    let reply = reply.expect("an admitted query is answered with Done across shutdown");
    assert_eq!(reply.rows.len(), VEHICLES);
    assert_eq!(reply.done.rows, VEHICLES as u64);
    assert!(
        answered > called,
        "the query must still have been in progress when shutdown was called"
    );
    // shutdown() returned only once the whole answer was written...
    assert_eq!(report.metrics.counter("serve.queries"), 1);
    assert_eq!(report.metrics.histograms["serve.rows"].sum, VEHICLES as u64);
    assert_eq!(report.metrics.counter("serve.disconnects"), 0);
    // ...and did not linger: there is no poll interval to wait out.
    let lag = returned.saturating_duration_since(answered);
    assert!(
        lag < Duration::from_millis(100),
        "shutdown returned {lag:?} after the last answer"
    );
    // The idle connections were closed, not abandoned.
    for c in &mut idle {
        assert!(c.ping().is_err(), "idle connection must be closed");
    }
}

#[test]
fn stalled_payload_hits_the_deadline_while_idle_connections_live_on() {
    let (_db, server) = server_with(
        50,
        ServeOptions {
            workers: 1,
            read_deadline: Some(Duration::from_millis(200)),
            ..ServeOptions::default()
        },
    );
    let addr = server.local_addr();
    let mut idle = Client::connect(addr).unwrap();

    // A complete header promising a payload that never fully arrives: the
    // connection is mid-frame, so the deadline clock runs from the header.
    let frame = proto::encode_frame(&Frame::Query {
        uql: "color: Color = 'Red'".into(),
    });
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(&frame[..frame.len() - 3]).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match proto::read_frame(&mut stream, proto::DEFAULT_MAX_PAYLOAD) {
        Ok(Frame::Error { code, message }) => {
            assert_eq!(code, ErrorCode::Proto);
            assert!(message.contains("deadline"), "got {message:?}");
        }
        other => panic!("wanted a typed deadline error, got {other:?}"),
    }
    assert!(
        proto::read_frame(&mut stream, proto::DEFAULT_MAX_PAYLOAD).is_err(),
        "the stalled connection must be closed"
    );

    // Twice the deadline has passed on a connection that sent nothing: a
    // blocking idle read is not subject to it.
    std::thread::sleep(Duration::from_millis(250));
    idle.ping()
        .expect("idle connection must survive the deadline");
    // A frame trickling in whole within the budget is served normally.
    let mut slow = std::net::TcpStream::connect(addr).unwrap();
    let ping = proto::encode_frame(&Frame::Ping);
    slow.write_all(&ping[..5]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    slow.write_all(&ping[5..]).unwrap();
    assert!(matches!(
        proto::read_frame(&mut slow, proto::DEFAULT_MAX_PAYLOAD),
        Ok(Frame::Pong)
    ));
    drop((idle, stream, slow));

    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve.conn.deadline_closed"), 1);
}

#[test]
fn one_slot_serves_four_clients_with_oracle_answers() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 30;
    let (mut db, server) = server_with(
        300,
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    );
    let reader = db.reader();
    let statements = workload::serve::uql_families();
    let expected: HashMap<&str, Vec<WireRow>> = statements
        .iter()
        .map(|stmt| {
            let q = reader.parse_uql(stmt).unwrap();
            let (hits, _) = reader.query(&q).unwrap();
            let rows = hits.iter().map(WireRow::from_hit).collect();
            (*stmt, rows)
        })
        .collect();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let (statements, expected) = (&statements, &expected);
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..REQUESTS {
                    let stmt = statements[(t + i) % statements.len()];
                    let reply = c.query(stmt).unwrap();
                    assert_eq!(reply.rows, expected[stmt], "client {t}: `{stmt}` diverged");
                }
            });
        }
    });

    let total = (CLIENTS * REQUESTS) as u64;
    let mut c = Client::connect(addr).unwrap();
    let v = json::parse(&c.stats(0).unwrap()).unwrap();
    let slots = v.get("workers").and_then(|w| w.as_arr()).unwrap();
    assert_eq!(slots.len(), 1, "one execution slot, however many threads");
    let served: u64 = slots
        .iter()
        .map(|w| w.get("queries").and_then(|q| q.as_u64()).unwrap())
        .sum();
    assert_eq!(served, total);
    drop(c);
    assert_eq!(server.shutdown().metrics.counter("serve.queries"), total);
}

#[test]
fn closed_connections_leave_the_registry() {
    let (_db, server) = server_with(10, ServeOptions::default());
    let addr = server.local_addr();
    for _ in 0..200 {
        let mut c = Client::connect(addr).unwrap();
        c.ping().unwrap();
    }
    // Each closed connection's thread deregisters itself and is joined at
    // the next accept; only the last few can still be on their way out.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() > 4 {
        let left = server.open_connections();
        assert!(
            Instant::now() < deadline,
            "{left} of 200 closed connections still registered"
        );
        std::thread::yield_now();
    }
    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve.connections"), 200);
    assert_eq!(report.metrics.counter("serve.requests"), 200);
}

#[test]
fn a_small_reply_is_one_write_and_a_large_one_keeps_its_batches() {
    use std::io::Read as _;
    const VEHICLES: usize = 1_500; // more than two full row batches
    let (_db, server) = server_with(VEHICLES, ServeOptions::default());
    let addr = server.local_addr();

    // A reader woken by a small reply finds all of it: the rows and `Done`
    // arrive in one segment, so one `read` returns both frames whole.
    let query = proto::encode_frame(&Frame::Query {
        uql: "color: Color = 'Red'".into(),
    });
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut buf = vec![0u8; 1 << 16];
    let mut small_rows = 0;
    for _ in 0..100 {
        stream.write_all(&query).unwrap();
        let n = stream.read(&mut buf).unwrap();
        let mut bytes = &buf[..n];
        let first = proto::read_frame(&mut bytes, proto::DEFAULT_MAX_PAYLOAD);
        let rows = match first {
            Ok(Frame::RowBatch { rows }) => rows.len() as u64,
            other => panic!("wanted the rows first, got {other:?}"),
        };
        match proto::read_frame(&mut bytes, proto::DEFAULT_MAX_PAYLOAD) {
            Ok(Frame::Done(done)) => assert_eq!(done.rows, rows),
            other => panic!("Done did not come with the rows: {other:?}"),
        }
        assert!(bytes.is_empty());
        small_rows += rows;
    }
    drop(stream);

    let mut c = Client::connect(addr).unwrap();
    let ages: Vec<String> = (0..200).map(|i| i.to_string()).collect();
    let reply = c
        .query(&format!("age: Age in ({})", ages.join(", ")))
        .unwrap();
    assert_eq!(reply.rows.len(), VEHICLES);
    assert_eq!(reply.done.rows, VEHICLES as u64);
    drop(c);
    assert_eq!(
        server.shutdown().metrics.histograms["serve.rows"].sum,
        small_rows + VEHICLES as u64
    );
}
