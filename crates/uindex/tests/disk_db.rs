//! End-to-end tests for the durable tier: create → mutate → commit →
//! crash (drop without checkpoint) → reopen, with the full open pipeline
//! (WAL replay, scrub, tree verification) and the oracle cross-checks
//! (Parallel ≡ Forward ≡ brute-force) on the reopened store.

use std::path::PathBuf;

use objstore::Value;
use schema::{AttrType, Schema};
use uindex::{
    distinct_oids_at, ClassSel, Database, DiskDatabase, DiskOptions, Error, IndexSpec, Query,
    ScanAlgorithm, ValuePred,
};

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("uindex_disk_db_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn vehicle_schema() -> Schema {
    let mut s = Schema::new();
    let employee = s.add_class("Employee").unwrap();
    s.add_attr(employee, "Age", AttrType::Int).unwrap();
    let company = s.add_class("Company").unwrap();
    s.add_attr(company, "President", AttrType::Ref(employee))
        .unwrap();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    s.add_attr(vehicle, "MadeBy", AttrType::Ref(company))
        .unwrap();
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

/// Define the color index (id 0) and the three-position `age` path index
/// (id 1), then populate one 55-year-old president, their company and `n`
/// vehicles made by it: round-robin colors, every other one an Automobile.
fn populate(db: &mut DiskDatabase, n: usize) {
    let class = |name: &str| db.schema().class_by_name(name).unwrap();
    let (employee, company) = (class("Employee"), class("Company"));
    let (vehicle, auto) = (class("Vehicle"), class("Automobile"));
    db.define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    let age = IndexSpec::path("age", vehicle, &["MadeBy", "President"], "Age");
    db.define_index(age).unwrap();
    let e = db.create_object(employee).unwrap();
    db.set_attr(e, "Age", Value::Int(55)).unwrap();
    let c = db.create_object(company).unwrap();
    db.set_attr(c, "President", Value::Ref(e)).unwrap();
    for i in 0..n {
        let v = db
            .create_object(if i % 2 == 0 { vehicle } else { auto })
            .unwrap();
        db.set_attr(v, "Color", Value::Str(COLORS[i % COLORS.len()].into()))
            .unwrap();
        db.set_attr(v, "MadeBy", Value::Ref(c)).unwrap();
    }
}

/// The employee and the company [`populate`] creates beside the vehicles.
const NON_VEHICLES: usize = 2;

fn color_query(db: &Database<uindex::DiskStore>, color: &str) -> Query {
    let idx = db.planner().index_by_name("color").unwrap();
    Query::on(idx).value(ValuePred::eq(Value::Str(color.into())))
}

/// Vehicles whose maker's president is at least 50, through the path index.
fn age_query(db: &Database<uindex::DiskStore>) -> Query {
    let idx = db.planner().index_by_name("age").unwrap();
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    Query::on(idx)
        .value(ValuePred::at_least(Value::Int(50)))
        .class_at(2, ClassSel::SubTree(vehicle))
}

/// Parallel ≡ Forward ≡ brute-force on a database (the oracle
/// equivalence, run against a reopened disk store), on both indexes.
fn assert_oracle_equivalence(db: &mut DiskDatabase) {
    let mut queries: Vec<Query> = COLORS.iter().map(|c| color_query(db, c)).collect();
    queries.push(age_query(db));
    for q in queries {
        let mut fwd = q.clone();
        fwd.algorithm = ScanAlgorithm::Forward;
        let parallel = db.query(&q).unwrap();
        let forward = db.query(&fwd).unwrap();
        let brute = uindex::oracle::eval(db.planner(), db.store(), &q).unwrap();
        assert_eq!(parallel, forward, "{q:?}: Parallel ≠ Forward");
        assert_eq!(parallel, brute, "{q:?}: index ≠ brute-force oracle");
        assert!(!parallel.is_empty(), "{q:?}: query must hit something");
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
    assert_eq!(
        db.store().len(),
        50 + NON_VEHICLES,
        "uncommitted object rolled back"
    );
    // Indexes come back under their original names and ids.
    for (id, name) in ["color", "age"].into_iter().enumerate() {
        assert_eq!(db.planner().index_by_name(name), Some(id as u16));
    }
    let q_red = color_query(&db, "Red");
    let hits = db.query(&q_red).unwrap();
    assert_eq!(hits.len(), 10);
    let auto = db.schema().class_by_name("Automobile").unwrap();
    let red_autos = q_red.clone().class_at(0, ClassSel::Exact(auto));
    assert_eq!(db.query(&red_autos).unwrap().len(), 5);
    let q_purple = color_query(&db, "Purple");
    assert!(db.query(&q_purple).unwrap().is_empty());
    // The three-position path index works end to end after the reopen.
    let q_age = age_query(&db);
    assert_eq!(distinct_oids_at(&db.query(&q_age).unwrap(), 2).len(), 50);
    assert_oracle_equivalence(&mut db);
    // check() runs the full scrub + verify + content cross-check on disk.
    let check = db.check().unwrap();
    assert!(check.clean(), "check on reopened disk db: {check:?}");
    // And the reopened database stays maintained under new mutations.
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    let maker = db
        .store()
        .extent(db.schema().class_by_name("Company").unwrap())[0];
    let v = db.create_object(vehicle).unwrap();
    db.set_attr(v, "Color", Value::Str("Red".into())).unwrap();
    db.set_attr(v, "MadeBy", Value::Ref(maker)).unwrap();
    assert_eq!(db.query(&q_red).unwrap().len(), 11);
    assert_eq!(distinct_oids_at(&db.query(&q_age).unwrap(), 2).len(), 51);
    db.index().verify().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// `check` on a handle holding mutations no commit has staged: whatever it
/// makes durable on the way to the scrub must be a whole commit, object
/// records with their index entries. (The generic `Database::check` a
/// deref reaches flushes index pages alone.)
#[test]
fn check_with_unstaged_mutations_then_a_drop_reopens_content_clean() {
    let dir = tmpdir("check_unstaged");
    {
        let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
        populate(&mut db, 20);
        db.commit().unwrap();
        let vehicle = db.schema().class_by_name("Vehicle").unwrap();
        let v = db.store().extent(vehicle)[0];
        db.set_attr(v, "Color", Value::Str("Purple".into()))
            .unwrap();
        assert!(db.check().unwrap().clean());
        drop(db); // no commit
    }
    let (mut db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "{report:?}");
    let check = db.check().unwrap();
    assert!(check.clean(), "index and objects must agree: {check:?}");
    assert_oracle_equivalence(&mut db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory without a `pages.db` — missing, empty, or holding only the
/// two files of the retired snapshot layout — is refused by name.
#[test]
fn a_directory_that_is_not_a_database_is_refused_by_name() {
    let dir = tmpdir("not_a_db");
    for shape in ["missing", "empty", "retired snapshot files"] {
        match shape {
            "missing" => {}
            "empty" => std::fs::create_dir_all(&dir).unwrap(),
            _ => {
                for stem in ["objects", "specs"] {
                    std::fs::write(dir.join(stem).with_extension("bin"), b"garbage").unwrap();
                }
            }
        }
        let err = DiskDatabase::open(&dir).err().expect("opened");
        assert!(
            matches!(&err, Error::NotADatabase(named) if *named == dir),
            "{shape}: wrong error: {err}"
        );
        let message = err.to_string();
        assert!(
            message.contains(dir.to_str().unwrap()) && message.contains("pages.db"),
            "{shape}: {message}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The options a database was created with come back from its meta page,
/// whether it was closed or dropped without a commit.
#[test]
fn the_meta_page_brings_back_the_create_time_options() {
    let dir = tmpdir("options");
    let options = DiskOptions {
        page_size: 256,
        pool_pages: 32,
        config: btree::BTreeConfig::with_max_entries(10).without_compression(),
        group_commit: 1,
        checkpoint_every: 0,
    };
    let mut db = DiskDatabase::create(vehicle_schema(), &dir, options).unwrap();
    populate(&mut db, 40);
    db.commit().unwrap();
    db.close().unwrap();
    let (mut db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(*db.options(), options, "after close");
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    let v = db.create_object(vehicle).unwrap();
    db.set_attr(v, "Color", Value::Str("Red".into())).unwrap();
    drop(db); // no commit
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(*db.options(), options, "after a drop without commit");
    assert_eq!(db.store().len(), 40 + NON_VEHICLES);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// The page file, its free-list manifest and the log are the whole
/// database: nothing else is written beside them.
#[test]
fn a_database_directory_holds_its_page_file_manifest_and_log_only() {
    let dir = tmpdir("three_files");
    let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
    populate(&mut db, 20);
    db.commit().unwrap();
    db.close().unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["pages.db", "pages.db.free", "wal.log"]);
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

/// A definition whose catalog record cannot fit one B-tree entry — a long
/// index, class or attribute name — is refused on the disk tier with a
/// typed error that is not corruption, before anything changes: later
/// commits, `check` and `close` work, and a reopen has every committed
/// mutation. The in-memory tier writes no catalog and accepts the names.
#[test]
fn names_too_long_for_the_catalog_are_refused_on_disk_only() {
    let long = "n".repeat(400);
    let dir = tmpdir("long_names");
    let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
    populate(&mut db, 10);
    db.commit().unwrap();
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    let (classes, specs) = (db.schema().num_classes(), db.index().specs().len());
    let refusals = [
        db.define_index(IndexSpec::class_hierarchy(&long, vehicle, "Color"))
            .map(drop),
        db.add_class(&long).map(drop),
        db.add_subclass(&long, vehicle).map(drop),
        db.add_attr(vehicle, &long, AttrType::Int).map(drop),
    ];
    for refused in refusals {
        match refused {
            Err(Error::Page(e @ pagestore::Error::EntryTooLarge { .. })) => {
                assert!(!e.is_corruption(), "{e}")
            }
            other => panic!("expected EntryTooLarge, got {other:?}"),
        }
    }
    assert_eq!(db.schema().num_classes(), classes, "no class was added");
    assert_eq!(db.index().specs().len(), specs, "no index was defined");
    assert!(db.schema().resolve_attr(vehicle, &long).is_none());

    // A definition is sized against the shortest code its class could get;
    // the real code is checked again when it is assigned, at the class's
    // first use. A grandchild of a pending class passes the first check at
    // the longest name that fits a two-component code, and a pending
    // class's attribute at the longest that fits one component: with their
    // real codes (one component longer) neither fits, and the class stays
    // pending, out of the catalog.
    let mid = db.add_subclass("Mid", vehicle).unwrap();
    let near = (1..400)
        .rev()
        .find_map(|n| db.add_subclass(&"g".repeat(n), mid).ok())
        .expect("a short enough name fits");
    let crowded = db.add_subclass("Crowded", vehicle).unwrap();
    (1..400)
        .rev()
        .find(|&n| db.add_attr(crowded, &"a".repeat(n), AttrType::Int).is_ok())
        .expect("a short enough name fits");
    for class in [near, crowded] {
        match db.create_object(class) {
            Err(Error::Page(pagestore::Error::EntryTooLarge { .. })) => {}
            other => panic!("expected EntryTooLarge, got {other:?}"),
        }
    }
    db.create_object(mid).unwrap();

    // Nothing is wedged: mutate, commit, check and close as usual.
    let v = db.create_object(vehicle).unwrap();
    db.set_attr(v, "Color", Value::Str("Red".into())).unwrap();
    db.commit().unwrap();
    assert!(db.check().unwrap().clean());
    let n = db.store().len();
    db.close().unwrap();
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(db.store().len(), n, "every committed mutation is back");
    assert_eq!(db.query(&color_query(&db, "Red")).unwrap().len(), 3);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();

    let mut mem = Database::in_memory(vehicle_schema()).unwrap();
    let vehicle = mem.schema().class_by_name("Vehicle").unwrap();
    mem.define_index(IndexSpec::class_hierarchy(&long, vehicle, "Color"))
        .unwrap();
    mem.add_class(&long).unwrap();
    mem.add_attr(vehicle, &long, AttrType::Int).unwrap();
    let mid = mem.add_subclass("Mid", vehicle).unwrap();
    let grandchild = mem.add_subclass(&"g".repeat(400), mid).unwrap();
    mem.create_object(grandchild).unwrap();
}
