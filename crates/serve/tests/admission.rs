//! Admission-control battery: the gate as a unit, then against a live
//! server — saturate the bound and every excess request must get a typed
//! `Overloaded`, the server's `serve.shed` counter must count each one,
//! accepted queries must be unaffected, and a shed request must never
//! touch the buffer pool.

use serve::{AdmissionGate, Client, ServeOptions, Server};

// ---------------------------------------------------------------------------
// Gate unit tests
// ---------------------------------------------------------------------------

#[test]
fn gate_admits_up_to_limit_and_sheds_excess() {
    let gate = AdmissionGate::new(3);
    let p1 = gate.try_admit().unwrap();
    let p2 = gate.try_admit().unwrap();
    let p3 = gate.try_admit().unwrap();
    assert_eq!(gate.inflight(), 3);

    // Saturated: every further attempt sheds.
    for _ in 0..5 {
        assert!(gate.try_admit().is_none());
    }
    assert_eq!(gate.inflight(), 3);

    // Releasing one slot re-opens exactly one admission.
    drop(p2);
    assert_eq!(gate.inflight(), 2);
    let p4 = gate.try_admit().unwrap();
    assert!(gate.try_admit().is_none());

    drop(p1);
    drop(p3);
    drop(p4);
    assert_eq!(gate.inflight(), 0);
}

#[test]
fn zero_limit_gate_sheds_everything() {
    let gate = AdmissionGate::new(0);
    for _ in 0..10 {
        assert!(gate.try_admit().is_none());
    }
    assert_eq!(gate.inflight(), 0);
}

#[test]
fn gate_is_exact_under_contention() {
    let gate = AdmissionGate::new(8);
    let admitted: usize = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let gate = &gate;
                scope.spawn(move || {
                    (0..500)
                        .filter(|_| match gate.try_admit() {
                            Some(_permit) => {
                                assert!(gate.inflight() <= 8, "bound exceeded");
                                true
                            }
                            None => false,
                        })
                        .count()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).sum()
    });
    assert_eq!(gate.inflight(), 0);
    // Four threads never hold more than four permits: nothing is shed.
    assert_eq!(admitted, 2000);
}

// ---------------------------------------------------------------------------
// Live server
// ---------------------------------------------------------------------------

fn server_with(options: ServeOptions) -> (uindex::Database, Server) {
    let (schema, classes) = workload::serve::schema();
    let mut db = uindex::Database::with_page_size(schema, 1024, 4096).unwrap();
    workload::serve::populate(&mut db, &classes, 11, 80).unwrap();
    let reader = db.reader();
    let server = Server::start(reader, options).unwrap();
    (db, server)
}

const UQL: &str = "color: Color = 'Red'";

#[test]
fn saturated_gate_sheds_with_typed_overloaded() {
    let (_db, server) = server_with(ServeOptions {
        workers: 2,
        max_inflight: 2,
        ..ServeOptions::default()
    });
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Occupy the whole bound externally: the next query requests are
    // deterministically shed, with no timing games.
    let gate = server.gate();
    let held: Vec<_> = (0..2).map(|_| gate.try_admit().unwrap()).collect();

    for i in 0..4 {
        match c.query(UQL) {
            Err(e) if e.is_overloaded() => {}
            other => panic!("request {i} should be shed, got {other:?}"),
        }
    }
    assert_eq!(server.metrics().counter("serve.shed"), 4);

    // Release the bound: the very same connection's queries now succeed,
    // completely unaffected by the earlier shedding.
    drop(held);
    let reply = c.query(UQL).unwrap();
    assert_eq!(reply.done.rows, reply.rows.len() as u64);
    assert!(reply.done.rows > 0, "Red vehicles must exist");
    drop(c);

    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve.shed"), 4);
    assert_eq!(report.metrics.counter("serve.queries"), 1);
}

#[test]
fn shed_requests_never_touch_the_buffer_pool() {
    let (db, server) = server_with(ServeOptions {
        workers: 2,
        max_inflight: 0, // shed everything: a drain/maintenance gate
        ..ServeOptions::default()
    });
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Warm the plan cache so later sheds don't even parse fresh text.
    match c.query(UQL) {
        Err(e) if e.is_overloaded() => {}
        other => panic!("zero-bound server must shed, got {other:?}"),
    }

    let live_before = db.index().tree().pool().live_pages();
    for _ in 0..25 {
        match c.query(UQL) {
            Err(e) if e.is_overloaded() => {}
            other => panic!("zero-bound server must shed, got {other:?}"),
        }
    }

    // The saturated server must still answer Stats — the introspection
    // path bypasses the admission gate entirely — and the reply must
    // carry the correct shed count.
    let doc = c.stats(10).expect("Stats must succeed at max_inflight = 0");
    let v = telemetry::json::parse(&doc).expect("StatsReply parses");
    let shed = v
        .get("live")
        .and_then(|l| l.get("shed"))
        .and_then(|s| s.as_u64());
    assert_eq!(shed, Some(26), "Stats must report the sheds so far");
    assert_eq!(
        v.get("live")
            .and_then(|l| l.get("max_inflight"))
            .and_then(|m| m.as_u64()),
        Some(0)
    );

    assert_eq!(live_before, db.index().tree().pool().live_pages());
    drop(c);

    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve.shed"), 26);
    assert_eq!(
        report.metrics.counter("serve.queries"),
        0,
        "nothing may reach the workers"
    );
    assert!(!report.metrics.histograms.contains_key("serve.rows"));
    // The shed path stops at the gate, and the Stats path never leaves the
    // connection thread. The report sums every server thread's registry,
    // so over the server's whole life the page layer saw no fetch, no IO
    // and no allocation.
    for name in [
        "pagestore.pool.hits",
        "pagestore.pool.misses",
        "pagestore.pool.allocations",
        "pagestore.pool.writebacks",
    ] {
        assert_eq!(report.metrics.counters.get(name), None, "{name} moved");
    }
}
