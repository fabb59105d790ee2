//! End-to-end tests for the durable tier: create → mutate → commit →
//! crash (drop without checkpoint) → reopen, with the full open pipeline
//! (WAL replay, scrub, tree verification) and the oracle cross-checks
//! (Parallel ≡ Forward ≡ brute-force) on the reopened store.

use std::path::PathBuf;

use objstore::Value;
use pagestore::disk as pdisk;
use pagestore::{Fault, PageId, PageStore};
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

/// The page file and the log are the whole database: nothing else is
/// written beside them.
#[test]
fn a_database_directory_holds_its_page_file_and_log_only() {
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
    assert_eq!(names, ["pages.db", "wal.log"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Add `n` vehicles of `color`, made by the first company.
fn add_vehicles(db: &mut DiskDatabase, n: usize, color: &str) -> Vec<objstore::Oid> {
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    let company = db.schema().class_by_name("Company").unwrap();
    let maker = db.store().extent(company)[0];
    (0..n)
        .map(|_| {
            let v = db.create_object(vehicle).unwrap();
            db.set_attr(v, "Color", Value::Str(color.into())).unwrap();
            db.set_attr(v, "MadeBy", Value::Ref(maker)).unwrap();
            v
        })
        .collect()
}

/// A power loss keeps what was synced — the page file as of the last
/// checkpoint and the log's committed records — and may lose or tear what
/// the page file gained since: the stamps of the pages handed out after
/// that checkpoint, committed or not. Lost, the committed pages come back
/// from the log, the file growing one slot at a time — pages handed out
/// and freed again before the commit included; torn past the last
/// commit, the slot is garbage the open frees. Either way the reopen is
/// clean and not rebuilt, holds the committed state, and its live pages
/// are exactly page 0 and the pages of the two trees.
#[test]
fn a_power_loss_past_the_last_sync_reopens_clean() {
    let dir = tmpdir("power_loss");
    let pages = dir.join(pdisk::PAGES_FILE);
    let len = |path: &std::path::Path| std::fs::metadata(path).unwrap().len();
    let synced = {
        let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
        populate(&mut db, 60);
        db.checkpoint().unwrap();
        let synced = len(&pages);
        add_vehicles(&mut db, 60, "Purple");
        for v in add_vehicles(&mut db, 100, "Gray") {
            db.delete_object(v, false).unwrap();
        }
        db.commit().unwrap();
        let committed = len(&pages);
        assert!(committed > synced, "the commit handed out no new slot");
        add_vehicles(&mut db, 60, "Orange");
        assert!(
            len(&pages) > committed,
            "the uncommitted batch handed out none"
        );
        synced
    };
    let work = dir.with_extension("work");
    for case in ["lost", "torn"] {
        std::fs::remove_dir_all(&work).ok();
        std::fs::create_dir_all(&work).unwrap();
        for name in [pdisk::PAGES_FILE, pdisk::WAL_FILE] {
            std::fs::copy(dir.join(name), work.join(name)).unwrap();
        }
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(work.join(pdisk::PAGES_FILE))
            .unwrap();
        match case {
            "lost" => file.set_len(synced).unwrap(),
            _ => {
                use std::os::unix::fs::FileExt;
                let end = len(&work.join(pdisk::PAGES_FILE));
                file.write_all_at(&[0xA5; 100], end - 100).unwrap();
            }
        }
        drop(file);
        let (mut db, report) = DiskDatabase::open(&work).unwrap_or_else(|e| panic!("{case}: {e}"));
        assert!(report.clean() && !report.rebuilt, "{case}: {report:?}");
        assert_eq!(db.store().len(), 120 + NON_VEHICLES, "{case}");
        assert_eq!(db.query(&color_query(&db, "Purple")).unwrap().len(), 60);
        assert!(db.query(&color_query(&db, "Orange")).unwrap().is_empty());
        let mut reachable: Vec<PageId> = db.object_pages().unwrap();
        reachable.extend(db.index().tree().page_ids().unwrap());
        reachable.push(PageId(0));
        reachable.sort();
        let live = db.index().tree().pool().store_lock().live_page_ids();
        assert_eq!(live, reachable, "{case}: live pages");
        assert_oracle_equivalence(&mut db);
        assert!(db.check().unwrap().clean(), "{case}");
    }
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory of the previous on-disk format — a `UIDXPGS2` page file
/// with a free-list manifest beside it, a log with allocation (op 2) and
/// free (op 3) records — is refused with a typed error, never opened.
#[test]
fn the_previous_format_is_refused_with_a_typed_error() {
    let dir = tmpdir("previous_format");
    let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
    populate(&mut db, 5);
    db.close().unwrap();
    let pages = std::fs::read(dir.join("pages.db")).unwrap();
    let record = |op: u8| {
        let mut rec = vec![op, 0, 0, 0, 0, 0, 0, 0, 0];
        rec.extend_from_slice(&pagestore::crc32(&rec).to_le_bytes());
        rec
    };
    for op in [2, 3] {
        let mut log = record(op);
        log.extend(record(4));
        std::fs::write(dir.join("wal.log"), &log).unwrap();
        match DiskDatabase::open(&dir) {
            Err(Error::Page(pagestore::Error::Corrupt(msg))) => {
                assert!(msg.contains(&format!("unknown op {op}")), "{msg}")
            }
            Err(e) => panic!("op {op}: {e}"),
            Ok((_, report)) => panic!("op {op}: opened: {report:?}"),
        }
    }
    std::fs::write(dir.join("wal.log"), b"").unwrap();
    let mut old = b"UIDXPGS2".to_vec();
    old.extend_from_slice(&pages[8..12]);
    old.extend_from_slice(&[0u8; 12]);
    let crc = pagestore::crc32(&old[..24]);
    old.extend_from_slice(&crc.to_le_bytes());
    old.extend_from_slice(&[0u8; 4]);
    old.extend_from_slice(&pages[16..]);
    std::fs::write(dir.join("pages.db"), &old).unwrap();
    std::fs::write(dir.join("pages.db.free"), b"UIDXFREE").unwrap();
    match DiskDatabase::open(&dir) {
        Err(Error::Page(pagestore::Error::Corrupt(msg))) => assert!(msg.contains("magic"), "{msg}"),
        Err(e) => panic!("UIDXPGS2: {e}"),
        Ok((_, report)) => panic!("UIDXPGS2: opened: {report:?}"),
    }
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
            !report.rebuilt,
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
    assert!(!report.rebuilt);
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
    let (db, _) = DiskDatabase::open(&dir).unwrap();
    let q_blue = color_query(&db, "Blue");
    assert_eq!(db.query(&q_blue).unwrap(), before);
    std::fs::remove_dir_all(&dir).ok();
}

/// Define a `long`-named index, root class and attribute and a long-named
/// grandchild class, and give each a use: the object and the answers that
/// [`long_name_answers`] reads.
fn define_long_names<P: PageStore>(db: &mut Database<P>, long: &str) {
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    db.define_index(IndexSpec::class_hierarchy(long, vehicle, "Color"))
        .unwrap();
    let root = db.add_class(long).unwrap();
    db.add_attr(root, long, AttrType::Int).unwrap();
    let mid = db.add_subclass("Mid", vehicle).unwrap();
    let grandchild = db.add_subclass(&long.replace('n', "g"), mid).unwrap();
    let o = db.create_object(root).unwrap();
    db.set_attr(o, long, Value::Int(7)).unwrap();
    let g = db.create_object(grandchild).unwrap();
    db.set_attr(g, "Color", Value::Str("Red".into())).unwrap();
}

/// What the long names of [`define_long_names`] hold: the long-named
/// index's `Red` answer, the long-named class's extent and its attribute.
fn long_name_answers<P: PageStore>(db: &Database<P>, long: &str) -> (usize, Vec<Value>) {
    let idx = db.planner().index_by_name(long).unwrap();
    let red = Query::on(idx).value(ValuePred::eq(Value::Str("Red".into())));
    let hits = db.query(&red).unwrap();
    assert_eq!(
        hits,
        uindex::oracle::eval(db.planner(), db.store(), &red).unwrap()
    );
    let root = db.schema().class_by_name(long).unwrap();
    let values = db
        .store()
        .extent(root)
        .into_iter()
        .map(|o| db.store().attr(o, long).unwrap().unwrap().clone())
        .collect();
    (hits.len(), values)
}

/// A 400-byte index, class and attribute name — far longer than one
/// B-tree entry of a 256-byte page — is accepted on both tiers: the disk
/// tier keeps definitions in its object tree's header, not in index
/// entries. On disk they survive a close, a crash-style reopen (a drop
/// without a checkpoint) and a rebuild of the index.
#[test]
fn long_names_are_accepted_on_both_tiers_and_survive_reopen_and_rebuild() {
    let long = "n".repeat(400);
    let mut mem = Database::in_memory(vehicle_schema()).unwrap();
    define_long_names(&mut mem, &long);
    let want = long_name_answers(&mem, &long);
    assert_eq!(want, (1, vec![Value::Int(7)]));

    let dir = tmpdir("long_names");
    let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
    define_long_names(&mut db, &long);
    db.commit().unwrap();
    assert_eq!(long_name_answers(&db, &long), want);
    drop(db); // a crash: the commit is in the log only
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "crash-style reopen: {report:?}");
    assert_eq!(long_name_answers(&db, &long), want, "crash-style reopen");
    let root = db.index().tree().root();
    db.close().unwrap();
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "reopen after close: {report:?}");
    assert_eq!(long_name_answers(&db, &long), want, "reopen after close");
    drop(db);
    {
        let mut stack = pdisk::open(&dir).unwrap();
        pdisk::checksum_layer(&mut stack)
            .inner_mut()
            .damage_now(root, Fault::BitFlip { bit: 77 })
            .unwrap();
    }
    let (mut db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.rebuilt, "{report:?}");
    assert_eq!(long_name_answers(&db, &long), want, "rebuilt");
    assert!(db.check().unwrap().clean());
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A name longer than [`schema::NAME_MAX`] bytes — the widest length the
/// definition records hold — is refused on both tiers with a typed error
/// that is not corruption, before anything changes; one of exactly that
/// length is accepted and, on disk, comes back after a reopen. So for
/// counts: a class takes [`schema::MEMBERS_MAX`] attributes, each keeping
/// its own ordinal through a reopen, and refuses the next; an index of more
/// positions than a `u16` counts is refused.
#[test]
fn names_longer_than_name_max_are_refused_on_both_tiers() {
    let too_long = "x".repeat(schema::NAME_MAX + 1);
    fn refuse_and_accept<P: PageStore>(db: &mut Database<P>, too_long: &str) {
        let vehicle = db.schema().class_by_name("Vehicle").unwrap();
        let pending = db.add_class("Pending").unwrap();
        let (classes, specs) = (db.schema().num_classes(), db.index().specs().len());
        let refusals = [
            db.define_index(IndexSpec::class_hierarchy(too_long, vehicle, "Color"))
                .map(drop),
            db.add_class(too_long).map(drop),
            db.add_subclass(too_long, vehicle).map(drop),
            db.add_attr(vehicle, too_long, AttrType::Int).map(drop),
        ];
        for refused in refusals {
            match refused {
                Err(Error::Schema(schema::Error::NameTooLong(len))) => {
                    assert_eq!(len, too_long.len())
                }
                other => panic!("expected NameTooLong, got {other:?}"),
            }
        }
        assert_eq!(db.schema().num_classes(), classes, "no class was added");
        assert_eq!(db.index().specs().len(), specs, "no index was defined");
        assert!(db.schema().resolve_attr(vehicle, too_long).is_none());
        assert!(
            db.index().encoding().code(pending).is_none(),
            "still pending"
        );
        let longest = &too_long[1..];
        let class = db.add_class(longest).unwrap();
        db.create_object(class).unwrap();

        let wide = db.add_class("Wide").unwrap();
        for i in 0..schema::MEMBERS_MAX {
            db.add_attr(wide, &format!("a{i}"), AttrType::Int).unwrap();
        }
        match db.add_attr(wide, "one_more", AttrType::Int) {
            Err(Error::Schema(schema::Error::TooManyAttrs(class))) => assert_eq!(class, wide),
            other => panic!("expected TooManyAttrs, got {other:?}"),
        }
        assert_eq!(db.schema().own_attrs(wide).count(), schema::MEMBERS_MAX);
        let mut spec = IndexSpec::class_hierarchy("wide", vehicle, "Color")
            .build(db.schema())
            .unwrap();
        spec.positions
            .resize(usize::from(u16::MAX) + 1, spec.positions[0].clone());
        assert!(matches!(db.define_index_spec(spec), Err(Error::BadSpec(_))));
    }
    refuse_and_accept(
        &mut Database::in_memory(vehicle_schema()).unwrap(),
        &too_long,
    );

    let dir = tmpdir("name_max");
    let mut db = DiskDatabase::create(vehicle_schema(), &dir, small_options()).unwrap();
    populate(&mut db, 5);
    refuse_and_accept(&mut db, &too_long);
    db.close().unwrap();
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "{report:?}");
    let longest = db.schema().class_by_name(&too_long[1..]).unwrap();
    assert_eq!(db.store().extent(longest).len(), 1);
    let wide = db.schema().class_by_name("Wide").unwrap();
    let attrs: Vec<_> = db.schema().own_attrs(wide).collect();
    assert_eq!(attrs.len(), schema::MEMBERS_MAX);
    for (i, (attr, name, _)) in attrs.into_iter().enumerate() {
        assert_eq!((attr.0 as usize, name), (i, format!("a{i}").as_str()));
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A page size below [`pagestore::PAGE_SIZE_MIN`] is a typed refusal that
/// is not corruption, from every constructor that takes one — on disk
/// before the directory exists — and the minimum itself still opens. A
/// size so small that even the checksummed inner page would be below the
/// minimum (0 here) is refused as well, not left to the store to panic on.
#[test]
fn a_page_size_below_the_minimum_is_refused_before_any_file_is_touched() {
    let refused = |result: Result<(), Error>, size: usize, what: &str| match result {
        Err(Error::Page(e @ pagestore::Error::PageSizeTooSmall { size: got, .. })) => {
            assert_eq!(got, size, "{what}");
            assert!(!e.is_corruption(), "{what}: {e}")
        }
        other => panic!("{what}: expected PageSizeTooSmall, got {other:?}"),
    };
    let config = btree::BTreeConfig::default();
    let dir = tmpdir("page_size");
    let options = |page_size| DiskOptions {
        page_size,
        ..small_options()
    };
    for size in [0, 48] {
        refused(
            Database::with_page_size(vehicle_schema(), size, 64).map(drop),
            size,
            "with_page_size",
        );
        refused(
            Database::with_config(vehicle_schema(), size, 64, config).map(drop),
            size,
            "with_config",
        );
        refused(
            DiskDatabase::create(vehicle_schema(), &dir, options(size)).map(drop),
            size,
            "create",
        );
        assert!(!dir.exists(), "create touched the file system");
    }

    let min = pagestore::PAGE_SIZE_MIN;
    Database::with_page_size(vehicle_schema(), min, 64).unwrap();
    Database::with_config(vehicle_schema(), min, 64, config).unwrap();
    DiskDatabase::create(vehicle_schema(), &dir, options(min))
        .unwrap()
        .close()
        .unwrap();
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(db.options().page_size, min);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
