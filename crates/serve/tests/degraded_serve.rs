//! The live server under storage faults: corruption mid-query degrades
//! the service (right answers from the fallback path, `degraded` flagged
//! on the wire and in Stats) instead of killing workers or connections —
//! even when the scan had already written rows into the reply; exhausted
//! transient I/O on a reader without a fallback maps to a typed retryable
//! `Unavailable`; and a [`serve::RetryClient`] rides straight through it.
//! A clean `check()` on the owning database restores the index path for
//! the running server — no restart. A query that panics is a typed `Exec`
//! error on a connection that keeps serving.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use btree::BTreeConfig;
use pagestore::{
    BufferPool, ChecksumStore, Fault, FaultStore, MemStore, PageId, PageStore, TRAILER_LEN,
};
use serve::{
    Client, ErrorCode, RetryClient, RetryPolicy, ServeError, ServeOptions, Server, WireRow,
};
use uindex::{Database, DatabaseReader, UIndex};

const SEED: u64 = 42;
const STMT: &str = "color: Color = 'Red'";
/// Every vehicle: a reply spanning many leaves.
const ALL_COLORS: &str = "color: Color between 'A' and 'Z'";

/// The in-memory stack with a fault layer below the checksums.
type MemDb = Database<ChecksumStore<FaultStore<MemStore>>>;

fn build_db(n_vehicles: usize) -> MemDb {
    let (schema, classes) = workload::serve::schema();
    let inner = FaultStore::new(MemStore::new(1024 + TRAILER_LEN));
    let mut db = MemDb::over_store(schema, inner, 1 << 14, BTreeConfig::default()).unwrap();
    workload::serve::populate(&mut db, &classes, SEED, n_vehicles).unwrap();
    db
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    }
}

/// Flush the pool's cache so the next scan reads through the fault layer.
fn expose_store(db: &MemDb) {
    let pool = db.index().tree().pool();
    pool.flush().unwrap();
    pool.invalidate_cache().unwrap();
}

#[test]
fn corruption_degrades_the_live_service_and_check_heals_it() {
    let mut db = build_db(200);
    let reader = db.reader_with_fallback();
    let server = Server::start(reader, options()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let healthy = client.query(STMT).unwrap();
    assert!(!healthy.rows.is_empty());
    assert!(!healthy.done.degraded);
    assert!(!server.degraded());

    // Silent single-bit damage under the cache: the next scan detects
    // corruption mid-query, on a worker thread.
    expose_store(&db);
    let h = db.fault_handle();
    h.inject(h.ops(), Fault::BitFlip { bit: 6 });

    let degraded = client.query(STMT).unwrap();
    assert!(
        degraded.done.degraded,
        "the answer must be flagged degraded"
    );
    assert_eq!(
        degraded.rows, healthy.rows,
        "degraded answers must match healthy ones byte-for-byte"
    );

    // The quarantine latched (shared flag): subsequent queries stay
    // degraded — and still right — until a clean check.
    let again = client.query(STMT).unwrap();
    assert!(again.done.degraded);
    assert_eq!(again.rows, healthy.rows);

    assert!(server.degraded(), "the server must report the quarantine");
    assert!(server.metrics().counter("serve.degraded_answers") >= 2);
    let json = client.stats(0).unwrap();
    assert!(
        json.contains("\"degraded\": true"),
        "Stats JSON must surface degraded mode: {json}"
    );

    // The damage was transient (one poisoned read); a clean check lifts
    // the quarantine for the running server — no restart, no reconnect.
    let report = db.check().unwrap();
    assert!(report.clean());
    let healed = client.query(STMT).unwrap();
    assert!(
        !healed.done.degraded,
        "a clean check restores the index path"
    );
    assert_eq!(healed.rows, healthy.rows);
    assert!(!server.degraded());

    let report = server.shutdown();
    assert!(report.metrics.counter("serve.degraded_answers") >= 2);
    assert_eq!(
        report
            .metrics
            .counters
            .get("serve.worker.panics")
            .copied()
            .unwrap_or(0),
        0,
        "no worker may die under storage faults"
    );
}

/// The in-process answer, encoded the way the oracles judge the wire.
fn oracle_rows(db: &MemDb, uql: &str) -> Vec<WireRow> {
    let (hits, _) = db.query_uql(uql).unwrap();
    hits.iter().map(WireRow::from_hit).collect()
}

#[test]
fn a_fault_after_rows_were_written_restarts_the_reply() {
    let mut db = build_db(400);
    let expected = oracle_rows(&db, ALL_COLORS);
    assert_eq!(expected.len(), 400);
    let reader = db.reader_with_fallback();
    let server = Server::start(reader, options()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // How many page reads a cold run of the query makes: a descent, then
    // leaf after leaf, each one's rows written into the reply before the
    // next leaf is read.
    expose_store(&db);
    let h = db.fault_handle();
    let before = h.ops();
    assert_eq!(client.query(ALL_COLORS).unwrap().rows, expected);
    let reads = h.ops() - before;
    assert!(
        reads >= 4,
        "premise: the reply spans several leaves ({reads} reads)"
    );

    // Damage each of those reads in turn. Whenever the fault strikes, the
    // reply must be exactly the oracle's: no rows from before the fault,
    // none twice.
    let mut degraded = 0;
    for k in 0..reads {
        expose_store(&db);
        let h = db.fault_handle();
        h.inject(h.ops() + k, Fault::BitFlip { bit: 6 });
        let reply = client.query(ALL_COLORS).unwrap();
        assert_eq!(reply.rows, expected, "fault at read {k} of {reads}");
        assert_eq!(reply.done.rows, expected.len() as u64);
        if reply.done.degraded {
            degraded += 1;
            assert!(db.check().unwrap().clean(), "the damage was transient");
        }
    }
    assert!(
        degraded > 0,
        "no fault reached the scan ({reads} reads swept)"
    );
    server.shutdown();
}

/// A page store that panics on every read while `armed`.
struct PanickingStore {
    inner: MemStore,
    armed: Arc<AtomicBool>,
}

impl PageStore for PanickingStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&mut self) -> pagestore::Result<PageId> {
        self.inner.allocate()
    }

    fn free(&mut self, id: PageId) -> pagestore::Result<()> {
        self.inner.free(id)
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> pagestore::Result<()> {
        assert!(!self.armed.load(Ordering::Acquire), "injected read panic");
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> pagestore::Result<()> {
        self.inner.write(id, buf)
    }

    fn contains(&self, id: PageId) -> bool {
        self.inner.contains(id)
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn live_page_ids(&self) -> Vec<PageId> {
        self.inner.live_page_ids()
    }
}

#[test]
fn a_panicking_query_is_a_typed_exec_error_and_the_connection_serves_on() {
    let db = build_db(200);
    let armed = Arc::new(AtomicBool::new(false));
    let store = PanickingStore {
        inner: MemStore::new(1024),
        armed: Arc::clone(&armed),
    };
    let pool = BufferPool::new(store, 1 << 14);
    let mut index =
        UIndex::new(pool, BTreeConfig::default(), db.index().encoding().clone()).unwrap();
    for spec in db.index().specs() {
        index.define(db.schema(), spec.clone()).unwrap();
    }
    index.build_all(db.store()).unwrap();
    let reader = DatabaseReader::for_index(&mut index, db.schema());
    let server = Server::start(reader, options()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let expected = oracle_rows(&db, ALL_COLORS);
    assert_eq!(client.query(ALL_COLORS).unwrap().rows, expected);

    let pool = index.tree().pool();
    pool.flush().unwrap();
    pool.invalidate_cache().unwrap();
    armed.store(true, Ordering::Release);
    match client.query(ALL_COLORS) {
        Err(ServeError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Exec);
            assert!(message.contains("injected read panic"), "{message}");
        }
        other => panic!("wanted a typed Exec error, got {other:?}"),
    }
    armed.store(false, Ordering::Release);
    client.ping().unwrap();
    assert_eq!(client.query(ALL_COLORS).unwrap().rows, expected);

    let report = server.shutdown();
    assert_eq!(report.metrics.counters.get("serve.worker.panics"), Some(&1));
}

#[test]
fn exhausted_io_without_fallback_is_a_typed_unavailable() {
    let mut db = build_db(200);
    let reader = db.reader(); // no fallback source
    let server = Server::start(reader, options()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let healthy = client.query(STMT).unwrap();

    // Three consecutive I/O failures exhaust the pool's bounded retries.
    expose_store(&db);
    let h = db.fault_handle();
    h.inject_burst(h.ops(), 3, Fault::IoError);

    let err = client
        .query(STMT)
        .expect_err("no fallback: the query fails");
    match &err {
        ServeError::Server { code, .. } => assert_eq!(*code, ErrorCode::Unavailable),
        other => panic!("wanted a typed server error, got {other}"),
    }
    assert!(
        err.is_retryable(true),
        "Unavailable must invite the client to retry"
    );
    assert!(!err.is_fatal(), "the connection survives");
    assert!(!db.quarantined(), "transient I/O never quarantines");

    // The burst is consumed; the same connection, same statement, works.
    let recovered = client.query(STMT).unwrap();
    assert_eq!(recovered.rows, healthy.rows);
    assert!(!recovered.done.degraded);
    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve.degraded_answers"), 0);
}

#[test]
fn retry_client_rides_through_transient_unavailability() {
    let mut db = build_db(200);
    let server = Server::start(db.reader(), options()).unwrap();
    let mut healthy_client = Client::connect(server.local_addr()).unwrap();
    let healthy = healthy_client.query(STMT).unwrap();

    expose_store(&db);
    let h = db.fault_handle();
    h.inject_burst(h.ops(), 3, Fault::IoError);

    let retries0 = telemetry::counter_value("serve.client.retries");
    let mut client = RetryClient::new(
        server.local_addr().to_string(),
        RetryPolicy {
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
    );
    let reply = client
        .query(STMT)
        .expect("the retry client must absorb the fault window");
    assert_eq!(reply.rows, healthy.rows);
    assert!(!reply.done.degraded);
    assert!(
        telemetry::counter_value("serve.client.retries") > retries0,
        "success required at least one retry"
    );
    server.shutdown();
}
