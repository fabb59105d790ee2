//! The serving tier's storage fault policy, end to end over the real
//! database stacks:
//!
//! * **transient I/O** is absorbed by the buffer pool's bounded retries
//!   (`pagestore.pool.retries`) — the query answers from the index and
//!   nothing degrades;
//! * **exhausted retries** degrade a query — on the writer handle and on
//!   a fallback-armed reader alike — to the object store *without*
//!   quarantining, so the next query tries the index again;
//! * **corruption** is never retried: it quarantines on the spot (the
//!   flag shared between writer and readers), every degraded answer still
//!   matches the healthy one, and a clean `check()` lifts the quarantine.

use btree::BTreeConfig;
use objstore::Value;
use pagestore::{ChecksumStore, Fault, FaultStore, MemStore, PageStore, TRAILER_LEN};
use schema::{AttrType, Schema};
use uindex::{
    Database, DatabaseReader, DiskDatabase, DiskOptions, IndexSpec, Query, QueryHit, ValuePred,
};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("uindex_pool_retry_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn vehicle_schema() -> Schema {
    let mut s = Schema::new();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    s
}

const COLORS: [&str; 5] = ["Red", "Blue", "Green", "Black", "White"];

fn red_query(id: uindex::IndexId) -> Query {
    Query::on(id).value(ValuePred::eq(Value::Str("Red".into())))
}

/// The red query through `reader`'s guarded path at its latest epoch:
/// the hits and whether the degraded path answered.
fn red_guarded<P: PageStore>(
    reader: &DatabaseReader<P>,
    id: uindex::IndexId,
) -> (Vec<QueryHit>, bool) {
    let mut hits = Vec::new();
    let (_, degraded) = reader
        .query_guarded_into(&reader.snapshot(), &red_query(id), &mut hits)
        .unwrap();
    (hits, degraded)
}

fn populate<P: PageStore>(db: &mut Database<P>, n: usize) -> uindex::IndexId {
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    let id = db
        .define_index(IndexSpec::class_hierarchy("by_color", vehicle, "Color"))
        .unwrap();
    for i in 0..n {
        let v = db.create_object(vehicle).unwrap();
        db.set_attr(v, "Color", Value::Str(COLORS[i % COLORS.len()].into()))
            .unwrap();
    }
    id
}

#[test]
fn disk_pool_retries_absorb_transient_io_burst() {
    let dir = tmpdir("transient");
    let mut db = DiskDatabase::create(
        vehicle_schema(),
        &dir,
        DiskOptions {
            page_size: 256,
            pool_pages: 64,
            ..DiskOptions::default()
        },
    )
    .unwrap();
    let id = populate(&mut db, 60);
    db.checkpoint().unwrap();
    let healthy = db.query(&red_query(id)).unwrap();
    assert!(!healthy.is_empty());

    // Drop the cache so the next scan actually reads through the stack,
    // then schedule two consecutive transient failures right where the
    // scan's first page read will land.
    let pool = db.index().tree().pool();
    pool.flush().unwrap();
    pool.invalidate_cache().unwrap();
    let h = db.fault_handle();
    let retries0 = telemetry::counter_value("pagestore.pool.retries");
    let successes0 = telemetry::counter_value("pagestore.pool.retry_successes");
    h.inject_burst(h.ops(), 2, Fault::IoError);

    let hits = db.query(&red_query(id)).unwrap();
    assert_eq!(hits, healthy, "answers under transient faults must match");
    assert!(!db.quarantined(), "transient I/O must not quarantine");
    assert_eq!(h.pending_faults(), 0, "the burst was consumed");
    assert!(
        telemetry::counter_value("pagestore.pool.retries") >= retries0 + 2,
        "each absorbed failure is a counted retry"
    );
    assert!(
        telemetry::counter_value("pagestore.pool.retry_successes") > successes0,
        "the recovered fetch is counted"
    );
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_reader_degrades_on_exhausted_retries_without_quarantine() {
    let dir = tmpdir("exhausted");
    let mut db = DiskDatabase::create(
        vehicle_schema(),
        &dir,
        DiskOptions {
            page_size: 256,
            pool_pages: 64,
            ..DiskOptions::default()
        },
    )
    .unwrap();
    let id = populate(&mut db, 60);
    db.checkpoint().unwrap();
    let healthy = db.query(&red_query(id)).unwrap();
    let reader = db.reader_with_fallback();

    let pool = db.index().tree().pool();
    pool.flush().unwrap();
    pool.invalidate_cache().unwrap();
    let h = db.fault_handle();
    let degraded0 = telemetry::counter_value("uindex.degraded.queries");
    // Three consecutive failures exhaust the pool's 3 bounded attempts.
    h.inject_burst(h.ops(), 3, Fault::IoError);

    let (hits, degraded) = red_guarded(&reader, id);
    assert!(degraded, "exhausted retries must degrade, not fail");
    assert_eq!(hits, healthy, "degraded answers must match healthy ones");
    assert!(
        !reader.quarantined() && !db.quarantined(),
        "transient I/O degrades without quarantining"
    );
    assert_eq!(
        telemetry::counter_value("uindex.degraded.queries"),
        degraded0 + 1
    );

    // The faults are gone; the very next query uses the index again.
    let (hits2, degraded2) = red_guarded(&reader, id);
    assert!(!degraded2, "no quarantine, so the index path is retried");
    assert_eq!(hits2, healthy);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_writer_degrades_on_exhausted_retries_without_quarantine() {
    let dir = tmpdir("writer_exhausted");
    let mut db = DiskDatabase::create(
        vehicle_schema(),
        &dir,
        DiskOptions {
            page_size: 256,
            pool_pages: 64,
            ..DiskOptions::default()
        },
    )
    .unwrap();
    let id = populate(&mut db, 60);
    db.checkpoint().unwrap();
    let healthy = db.query(&red_query(id)).unwrap();
    assert!(!healthy.is_empty());

    let pool = db.index().tree().pool();
    pool.flush().unwrap();
    pool.invalidate_cache().unwrap();
    let h = db.fault_handle();
    let degraded0 = telemetry::counter_value("uindex.degraded.queries");
    let quarantines0 = telemetry::counter_value("uindex.degraded.quarantines");
    // Three consecutive failures exhaust the pool's 3 bounded attempts.
    h.inject_burst(h.ops(), 3, Fault::IoError);

    let mut hits = Vec::new();
    let (_, degraded) = db.query_traced_guarded(&red_query(id), &mut hits).unwrap();
    assert!(degraded, "exhausted retries must degrade, not fail");
    assert_eq!(hits, healthy, "degraded answers must match healthy ones");
    assert!(
        !db.quarantined(),
        "transient I/O degrades without quarantining"
    );
    assert_eq!(
        telemetry::counter_value("uindex.degraded.queries"),
        degraded0 + 1
    );
    assert_eq!(
        telemetry::counter_value("uindex.degraded.quarantines"),
        quarantines0
    );

    // The faults are gone; the very next query uses the index again.
    let mut hits2 = Vec::new();
    let (_, degraded2) = db.query_traced_guarded(&red_query(id), &mut hits2).unwrap();
    assert!(!degraded2, "no quarantine, so the index path is retried");
    assert_eq!(hits2, healthy);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_is_never_retried_and_quarantines_shared_flag() {
    let inner = FaultStore::new(MemStore::new(1024 + TRAILER_LEN));
    let mut db = Database::<ChecksumStore<_>>::over_store(
        vehicle_schema(),
        inner,
        1 << 16,
        BTreeConfig::default(),
    )
    .unwrap();
    let id = populate(&mut db, 60);
    let healthy = db.query(&red_query(id)).unwrap();
    assert!(!healthy.is_empty());
    let reader = db.reader_with_fallback();

    let pool = db.index().tree().pool();
    pool.flush().unwrap();
    pool.invalidate_cache().unwrap();
    let h = db.fault_handle();
    let retries0 = telemetry::counter_value("pagestore.pool.retries");
    let quarantines0 = telemetry::counter_value("uindex.degraded.quarantines");
    // Silent single-bit damage below the checksum layer: the next read
    // detects it as corruption.
    h.inject(h.ops(), Fault::BitFlip { bit: 7 });

    let (hits, degraded) = red_guarded(&reader, id);
    assert!(degraded, "corruption mid-scan degrades the answer");
    assert_eq!(hits, healthy, "degraded answers must match healthy ones");
    assert_eq!(
        telemetry::counter_value("pagestore.pool.retries"),
        retries0,
        "corruption must never be retried"
    );
    assert_eq!(
        telemetry::counter_value("uindex.degraded.quarantines"),
        quarantines0 + 1
    );
    assert!(
        reader.quarantined() && db.quarantined(),
        "the quarantine flag is shared between reader and writer"
    );

    // The flag sticks even though the one-shot fault is consumed.
    let (hits2, degraded2) = red_guarded(&reader, id);
    assert!(degraded2, "quarantine persists until a clean check");
    assert_eq!(hits2, healthy);

    // A clean check lifts the quarantine for writer and readers alike.
    let report = db.check().unwrap();
    assert!(report.clean(), "damage was transient, the pages are intact");
    assert!(!reader.quarantined() && !db.quarantined());
    let (hits3, degraded3) = red_guarded(&reader, id);
    assert!(!degraded3, "a clean check restores the index path");
    assert_eq!(hits3, healthy);
}
