//! End-to-end tests for the durable tier: create → mutate → commit →
//! crash (drop without checkpoint) → reopen, with the full open pipeline
//! (WAL replay, scrub, tree verification) and the oracle cross-checks
//! (Parallel ≡ Forward ≡ brute-force) on the reopened store.

use std::path::PathBuf;

use objstore::Value;
use schema::{AttrType, Schema};
use uindex::{
    ClassSel, Database, DiskDatabase, DiskOptions, IndexSpec, Query, ScanAlgorithm, ValuePred,
};

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("uindex_disk_db_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn vehicle_schema() -> Schema {
    let mut s = Schema::new();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    s.add_subclass("Automobile", vehicle).unwrap();
    s
}

fn small_options() -> DiskOptions {
    DiskOptions {
        page_size: 256,
        pool_pages: 256,
        group_commit: 2,
        checkpoint_every: 0, // only explicit checkpoints: tests control them
        ..DiskOptions::default()
    }
}

const COLORS: [&str; 5] = ["Red", "Blue", "Green", "Black", "White"];

/// Populate `n` vehicles with round-robin colors and define the color
/// index.
fn populate(db: &mut DiskDatabase, n: usize) {
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    db.define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    for i in 0..n {
        let v = db.create_object(vehicle).unwrap();
        db.set_attr(v, "Color", Value::Str(COLORS[i % COLORS.len()].into()))
            .unwrap();
    }
}

fn color_query(db: &Database<uindex::DiskStore>, color: &str) -> Query {
    let idx = db.index().index_by_name("color").unwrap();
    Query::on(idx).value(ValuePred::eq(Value::Str(color.into())))
}

/// Parallel ≡ Forward ≡ brute-force on a database (the oracle
/// equivalence, run against a reopened disk store).
fn assert_oracle_equivalence(db: &mut DiskDatabase) {
    for color in COLORS {
        let q = color_query(db, color);
        let mut fwd = q.clone();
        fwd.algorithm = ScanAlgorithm::Forward;
        let parallel = db.query(&q).unwrap();
        let forward = db.query(&fwd).unwrap();
        let brute = uindex::oracle::eval(db.index(), db.store(), &q).unwrap();
        assert_eq!(parallel, forward, "{color}: Parallel ≠ Forward");
        assert_eq!(parallel, brute, "{color}: index ≠ brute-force oracle");
        assert!(!parallel.is_empty(), "{color}: query must hit something");
    }
}

#[test]
fn create_commit_crash_reopen_serves_committed_state() {
    let dir = tmpdir("crash_reopen");
    {
        let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
        populate(&mut db, 50);
        db.commit().unwrap();
        // An uncommitted mutation: must NOT survive the crash.
        let vehicle = db.schema().class_by_name("Vehicle").unwrap();
        let v = db.create_object(vehicle).unwrap();
        db.set_attr(v, "Color", Value::Str("Purple".into()))
            .unwrap();
        drop(db); // crash: no commit, no checkpoint
    }
    let (mut db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.tree_ok, "tree must verify before serving");
    assert!(!report.rebuilt, "committed state must open without salvage");
    assert!(report.scrub.clean(), "scrub must pass: {:?}", report.scrub);
    assert_eq!(db.store().len(), 50, "uncommitted object rolled back");
    let q_red = color_query(&db, "Red");
    let hits = db.query(&q_red).unwrap();
    assert_eq!(hits.len(), 10);
    let q_purple = color_query(&db, "Purple");
    assert!(db.query(&q_purple).unwrap().is_empty());
    assert_oracle_equivalence(&mut db);
    // check() runs the full scrub + verify + content cross-check on disk.
    let check = db.check().unwrap();
    assert!(check.clean(), "check on reopened disk db: {check:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_at_every_commit_boundary_torture() {
    // Mutate across several commits; crash after each commit boundary and
    // assert the reopened database serves exactly the committed prefix,
    // verified tree included.
    for crash_after in 0..5usize {
        let dir = tmpdir(&format!("boundary_{crash_after}"));
        let per_batch = 8;
        {
            let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
            let vehicle = db.schema().class_by_name("Vehicle").unwrap();
            let idx = IndexSpec::class_hierarchy("color", vehicle, "Color");
            db.define_index(idx).unwrap();
            db.commit().unwrap();
            for batch in 0..crash_after {
                for i in 0..per_batch {
                    let v = db.create_object(vehicle).unwrap();
                    let color = COLORS[(batch * per_batch + i) % COLORS.len()];
                    db.set_attr(v, "Color", Value::Str(color.into())).unwrap();
                }
                db.commit().unwrap();
            }
            // Uncommitted tail, lost at the crash.
            let v = db.create_object(vehicle).unwrap();
            db.set_attr(v, "Color", Value::Str("Red".into())).unwrap();
            drop(db);
        }
        let (mut db, report) = DiskDatabase::open(&dir).unwrap();
        assert!(
            report.tree_ok && !report.rebuilt,
            "crash after {crash_after} commits: {report:?}"
        );
        assert_eq!(
            db.store().len(),
            crash_after * per_batch,
            "crash after {crash_after} commits: wrong object count"
        );
        let check = db.check().unwrap();
        assert!(
            check.clean(),
            "crash after {crash_after} commits: {check:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn schema_evolution_survives_reopen() {
    let dir = tmpdir("evolution");
    {
        let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
        populate(&mut db, 10);
        let truck = {
            let vehicle = db.schema().class_by_name("Vehicle").unwrap();
            db.add_subclass("Truck", vehicle).unwrap()
        };
        db.add_attr(truck, "Payload", AttrType::Int).unwrap();
        let t = db.create_object(truck).unwrap();
        db.set_attr(t, "Color", Value::Str("Red".into())).unwrap();
        db.checkpoint().unwrap();
        drop(db);
    }
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.tree_ok && !report.rebuilt);
    let truck = db.schema().class_by_name("Truck").unwrap();
    let q = color_query(&db, "Red").class_at(0, ClassSel::SubTree(truck));
    assert_eq!(db.query(&q).unwrap().len(), 1, "evolved subclass query");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repair_rebuilds_in_place() {
    let dir = tmpdir("repair");
    let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
    populate(&mut db, 25);
    db.commit().unwrap();
    let q_blue = color_query(&db, "Blue");
    let before: Vec<_> = db.query(&q_blue).unwrap();
    let n = db.repair().unwrap();
    assert!(n > 0);
    assert_eq!(db.query(&q_blue).unwrap(), before);
    assert!(db.check().unwrap().clean());
    drop(db);
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.tree_ok);
    let q_blue = color_query(&db, "Blue");
    assert_eq!(db.query(&q_blue).unwrap(), before);
    std::fs::remove_dir_all(&dir).ok();
}
