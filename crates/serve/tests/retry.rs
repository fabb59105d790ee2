//! [`serve::RetryClient`] against real and scripted servers: transparent
//! reconnect after connection loss, re-`Prepare` before any `Execute`
//! retry, bounded give-up on sustained overload, and deadline-bounded
//! retry budgets. Stub servers are scripted with [`serve::proto`]
//! directly so each fault is injected at an exact protocol step.

use std::net::TcpListener;
use std::time::Duration;

use proptest::prelude::*;
use serve::proto::{self, DoneInfo, Frame, DEFAULT_MAX_PAYLOAD};
use serve::{RetryClient, RetryPolicy, ServeOptions, Server};

proptest! {
    /// The backoff sequence, for any (seed, base, cap): deterministic per
    /// seed, monotone non-decreasing, never above the cap, and bounded by
    /// the attempt budget (the policy yields exactly `max_attempts - 1`
    /// sleeps; past the cap every sleep equals the cap).
    #[test]
    fn backoff_sequence_properties(
        seed in any::<u64>(),
        base_ms in 1u64..50,
        cap_ms in 1u64..2000,
    ) {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(base_ms),
            max_backoff: Duration::from_millis(cap_ms),
            jitter_seed: seed,
            ..RetryPolicy::default()
        };
        let same = p.clone();
        let other = RetryPolicy { jitter_seed: seed ^ 1, ..p.clone() };
        let mut prev = Duration::ZERO;
        let mut diverged = false;
        for n in 1..=24u32 {
            let b = p.backoff(n);
            prop_assert_eq!(b, same.backoff(n), "same seed, same sleep");
            prop_assert!(b >= prev, "retry {}: {:?} < {:?}", n, b, prev);
            prop_assert!(b <= p.max_backoff);
            diverged |= b != other.backoff(n) || b == p.max_backoff;
            prev = b;
        }
        // Either the jitter streams diverged somewhere, or the whole
        // sequence saturated at the cap (where jitter cannot show).
        prop_assert!(diverged);
        // Exponential growth saturates: far past the doublings that fit
        // under any cap, the sleep is exactly the cap.
        prop_assert_eq!(p.backoff(64), p.max_backoff);
    }
}

const STMT: &str = "color: Color = 'Red'";

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        ..RetryPolicy::default()
    }
}

fn empty_done() -> DoneInfo {
    DoneInfo {
        rows: 0,
        pages_read: 0,
        entries_examined: 0,
        seeks: 0,
        micros: 1,
        cached_plan: false,
        degraded: false,
    }
}

#[test]
fn ping_reconnects_after_connection_drop() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        // Connection 1: accept and slam the door before any reply.
        let (c1, _) = listener.accept().unwrap();
        drop(c1);
        // Connection 2: behave.
        let (mut c2, _) = listener.accept().unwrap();
        let frame = proto::read_frame(&mut c2, DEFAULT_MAX_PAYLOAD).unwrap();
        assert!(matches!(frame, Frame::Ping), "got {frame:?}");
        proto::write_frame(&mut c2, &Frame::Pong).unwrap();
    });

    let retries0 = telemetry::counter_value("serve.client.retries");
    let reconnects0 = telemetry::counter_value("serve.client.reconnects");
    let mut client = RetryClient::new(addr.to_string(), fast_policy());
    client
        .ping()
        .expect("retry must ride through the dropped connection");
    assert_eq!(
        telemetry::counter_value("serve.client.reconnects"),
        reconnects0 + 1,
        "exactly one reconnect"
    );
    assert_eq!(
        telemetry::counter_value("serve.client.retries"),
        retries0 + 1,
        "exactly one retry sleep"
    );
    stub.join().unwrap();
}

#[test]
fn execute_reprepares_on_fresh_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        // Connection 1: serve one prepare + execute, then die mid-request.
        let (mut c1, _) = listener.accept().unwrap();
        match proto::read_frame(&mut c1, DEFAULT_MAX_PAYLOAD).unwrap() {
            Frame::Prepare { uql } => assert_eq!(uql, STMT),
            other => panic!("wanted Prepare, got {other:?}"),
        }
        proto::write_frame(&mut c1, &Frame::Prepared { id: 7 }).unwrap();
        match proto::read_frame(&mut c1, DEFAULT_MAX_PAYLOAD).unwrap() {
            Frame::Execute { id } => assert_eq!(id, 7),
            other => panic!("wanted Execute, got {other:?}"),
        }
        proto::write_frame(&mut c1, &Frame::Done(empty_done())).unwrap();
        // The second Execute arrives here; drop without answering.
        let _ = proto::read_frame(&mut c1, DEFAULT_MAX_PAYLOAD);
        drop(c1);

        // Connection 2: the client must NOT replay Execute{7} — statement
        // ids died with the stream, so a fresh Prepare must come first.
        let (mut c2, _) = listener.accept().unwrap();
        match proto::read_frame(&mut c2, DEFAULT_MAX_PAYLOAD).unwrap() {
            Frame::Prepare { uql } => assert_eq!(uql, STMT),
            other => panic!("execute retried without re-prepare: {other:?}"),
        }
        proto::write_frame(&mut c2, &Frame::Prepared { id: 42 }).unwrap();
        match proto::read_frame(&mut c2, DEFAULT_MAX_PAYLOAD).unwrap() {
            Frame::Execute { id } => assert_eq!(id, 42, "stale statement id replayed"),
            other => panic!("wanted Execute, got {other:?}"),
        }
        proto::write_frame(&mut c2, &Frame::Done(empty_done())).unwrap();
    });

    let mut client = RetryClient::new(addr.to_string(), fast_policy());
    let stmt = client.prepare(STMT);
    client.execute(stmt).expect("first execute");
    client
        .execute(stmt)
        .expect("second execute must reconnect and re-prepare");
    stub.join().unwrap();
}

#[test]
fn read_timeout_unwedges_a_swallowed_reply() {
    // Connection 1 reads the request and never answers — the shape a
    // corrupted length header leaves the wire in. Without a read
    // timeout the client would block forever.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut c1, _) = listener.accept().unwrap();
        let _ = proto::read_frame(&mut c1, DEFAULT_MAX_PAYLOAD).unwrap();
        // Hold the connection open, silently, until the client gives up
        // on it; the accept below only happens after its timeout fires.
        let (mut c2, _) = listener.accept().unwrap();
        drop(c1);
        let frame = proto::read_frame(&mut c2, DEFAULT_MAX_PAYLOAD).unwrap();
        assert!(matches!(frame, Frame::Ping), "got {frame:?}");
        proto::write_frame(&mut c2, &Frame::Pong).unwrap();
    });

    let mut client = RetryClient::new(
        addr.to_string(),
        RetryPolicy {
            read_timeout: Some(Duration::from_millis(250)),
            ..fast_policy()
        },
    );
    let started = std::time::Instant::now();
    client.ping().expect("the timeout must unwedge the request");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the client must not have blocked unboundedly"
    );
    stub.join().unwrap();
}

/// A tiny real server for the overload tests.
fn overloadable_server() -> (Server, String) {
    let (schema, classes) = workload::serve::schema();
    let mut db = uindex::Database::with_page_size(schema, 1024, 1 << 14).unwrap();
    workload::serve::populate(&mut db, &classes, 42, 50).unwrap();
    let server = Server::start(
        db.reader(),
        ServeOptions {
            workers: 1,
            max_inflight: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn bounded_retries_give_up_on_sustained_overload_then_recover() {
    let (server, addr) = overloadable_server();
    // Occupy the only admission slot from outside: every query sheds.
    let gate = server.gate();
    let permit = gate.try_admit().unwrap();

    let gaveup0 = telemetry::counter_value("serve.client.gaveup");
    let retries0 = telemetry::counter_value("serve.client.retries");
    let mut client = RetryClient::new(
        addr,
        RetryPolicy {
            max_attempts: 2,
            ..fast_policy()
        },
    );
    let err = client.query(STMT).expect_err("saturated server must shed");
    assert!(err.is_overloaded(), "got {err}");
    assert_eq!(telemetry::counter_value("serve.client.gaveup"), gaveup0 + 1);
    assert_eq!(
        telemetry::counter_value("serve.client.retries"),
        retries0 + 1,
        "max_attempts = 2 permits exactly one retry"
    );

    // Load lifts; the same client (same connection) succeeds.
    drop(permit);
    let reply = client.query(STMT).expect("post-overload query");
    assert!(!reply.rows.is_empty());
    server.shutdown();
}

#[test]
fn deadline_bounds_the_retry_budget() {
    let (server, addr) = overloadable_server();
    let gate = server.gate();
    let _permit = gate.try_admit().unwrap();

    let gaveup0 = telemetry::counter_value("serve.client.gaveup");
    let mut client = RetryClient::new(
        addr,
        RetryPolicy {
            max_attempts: 1000,
            deadline: Some(Duration::ZERO),
            ..fast_policy()
        },
    );
    let err = client.query(STMT).expect_err("deadline must cut retries");
    assert!(err.is_overloaded());
    assert_eq!(
        telemetry::counter_value("serve.client.gaveup"),
        gaveup0 + 1,
        "giving up on deadline is counted"
    );
    server.shutdown();
}
