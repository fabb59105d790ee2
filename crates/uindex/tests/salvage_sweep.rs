//! Salvage on the durable tier, page by page.
//!
//! The index is derived data and the objects are not, and the two share a
//! page file — so this sweep takes a checkpointed store and damages **every
//! live page in turn with every silent fault kind a cold open can see** (bit
//! rot, torn write, misdirected write; a stale read needs the epoch memory
//! of a running store), and holds `open` to the line between them:
//!
//! * an **index** page: the open reports `rebuilt`, loses no object, answers
//!   every query like the oracle — and never fetched the damaged page (the
//!   pool's read-error counter, which any fetch of it would move, stands
//!   still); its live pages are then exactly page 0 and the pages of the
//!   two trees;
//! * the **meta** page or an **object** page: a typed error. Never a panic,
//!   never a wrong answer.
//!
//! Then the rebuild itself is crashed at each of its page-file operations:
//! whatever the reopen finds, it has every object.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use objstore::Value;
use pagestore::disk as pdisk;
use pagestore::{Fault, PageId, PageStore};
use schema::{AttrType, Schema};
use uindex::{DiskDatabase, DiskOptions, Error, IndexSpec, Query, ValuePred};

const VEHICLES: usize = 420;
const COLORS: [&str; 5] = ["Red", "Blue", "Green", "Black", "White"];

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("uindex_salvage_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// What the pristine store holds, and which of its pages are what.
struct Pristine {
    dir: PathBuf,
    objects: Vec<u8>,
    index_pages: BTreeSet<PageId>,
    live_pages: Vec<PageId>,
}

fn build(name: &str) -> Pristine {
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
    let automobile = s.add_subclass("Automobile", vehicle).unwrap();

    let dir = tmpdir(name);
    let options = DiskOptions {
        page_size: 256,
        pool_pages: 1 << 10,
        group_commit: 1,
        checkpoint_every: 0,
        ..DiskOptions::default()
    };
    let mut db = DiskDatabase::create(s, &dir, options).unwrap();
    db.define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    db.define_index(IndexSpec::path(
        "age",
        vehicle,
        &["MadeBy", "President"],
        "Age",
    ))
    .unwrap();
    let mut companies = Vec::new();
    for i in 0..6 {
        let e = db.create_object(employee).unwrap();
        db.set_attr(e, "Age", Value::Int(25 + 6 * i)).unwrap();
        let c = db.create_object(company).unwrap();
        db.set_attr(c, "President", Value::Ref(e)).unwrap();
        companies.push(c);
    }
    for i in 0..VEHICLES {
        let class = if i % 3 == 0 { automobile } else { vehicle };
        let v = db.create_object(class).unwrap();
        db.set_attr(v, "Color", Value::Str(COLORS[i % COLORS.len()].into()))
            .unwrap();
        db.set_attr(
            v,
            "MadeBy",
            Value::Ref(companies[(i * 7) % companies.len()]),
        )
        .unwrap();
        if i % 40 == 0 {
            db.commit().unwrap();
        }
    }
    db.checkpoint().unwrap();
    let pristine = Pristine {
        objects: db.store().to_bytes(),
        index_pages: db.index().tree().page_ids().unwrap().into_iter().collect(),
        live_pages: db.index().tree().pool().store_lock().live_page_ids(),
        dir,
    };
    db.close().unwrap();
    pristine
}

/// The live pages of `db`'s store are page 0 and the pages of its two
/// trees: the wreck is freed, and nothing the roots reach is.
fn assert_live_is_reachable(db: &DiskDatabase, what: &str) {
    let mut reachable: BTreeSet<PageId> = db.object_pages().unwrap().into_iter().collect();
    reachable.extend(db.index().tree().page_ids().unwrap());
    reachable.insert(PageId(0));
    let live: BTreeSet<PageId> = db
        .index()
        .tree()
        .pool()
        .store_lock()
        .live_page_ids()
        .into_iter()
        .collect();
    assert_eq!(live, reachable, "{what}: live pages");
}

/// Every index answers like the oracle, straight through the index.
fn assert_oracle_equal(db: &DiskDatabase, what: &str) {
    assert_eq!(db.index().specs().len(), 2, "{what}: index definitions");
    for q in [
        Query::on(0),
        Query::on(0).value(ValuePred::eq(Value::Str("Green".into()))),
        Query::on(1),
        Query::on(1).value(ValuePred::at_least(Value::Int(40))),
    ] {
        let oracle = uindex::oracle::eval(db.planner(), db.store(), &q).unwrap();
        assert!(!oracle.is_empty(), "{what}: vacuous query");
        let (hits, _) = db.index().query(db.schema(), &q).unwrap();
        assert_eq!(hits, oracle, "{what}: {q:?}");
    }
}

#[test]
fn damage_to_each_page_rebuilds_the_index_or_is_a_typed_error() {
    let pristine = build("sweep");
    let others = pristine.live_pages.len() - pristine.index_pages.len();
    assert!(
        pristine.index_pages.len() >= 20 && others >= 20,
        "fixture too small: {} index pages, {others} others",
        pristine.index_pages.len()
    );
    let work = pristine.dir.with_extension("work");
    let (mut rebuilt, mut refused) = (0, 0);
    for (i, &page) in pristine.live_pages.iter().enumerate() {
        let victim = pristine.live_pages[(i + 1) % pristine.live_pages.len()];
        for (name, fault) in [
            ("bit-flip", Fault::BitFlip { bit: i * 97 + 5 }),
            ("torn-write", Fault::TornWrite { bytes: 90 }),
            ("misdirected-write", Fault::MisdirectedWrite { victim }),
        ] {
            let what = format!("{name} on {page:?}");
            copy_dir(&pristine.dir, &work);
            {
                let mut stack = pdisk::open(&work).unwrap();
                pdisk::checksum_layer(&mut stack)
                    .inner_mut()
                    .damage_now(page, fault)
                    .unwrap();
            }
            let read_errors = telemetry::counter_value("pagestore.pool.read_errors");
            let opened = DiskDatabase::open(&work);
            if pristine.index_pages.contains(&page) {
                let (mut db, report) = opened.unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(
                    report.rebuilt && !report.scrub.clean(),
                    "{what}: {report:?}"
                );
                assert_eq!(
                    telemetry::counter_value("pagestore.pool.read_errors"),
                    read_errors,
                    "{what}: the damaged page was fetched"
                );
                assert_eq!(db.store().to_bytes(), pristine.objects, "{what}: objects");
                assert_live_is_reachable(&db, &what);
                assert_oracle_equal(&db, &what);
                // The wreck is gone: a full check finds nothing to flag.
                let check = db.check().unwrap();
                assert!(check.clean(), "{what}: {check:?}");
                rebuilt += 1;
            } else {
                match opened {
                    Err(Error::Page(_) | Error::Store(_)) => refused += 1,
                    Err(e) => panic!("{what}: unexpected error kind: {e}"),
                    Ok((_, report)) => panic!("{what}: opened anyway: {report:?}"),
                }
            }
        }
    }
    assert_eq!(rebuilt, 3 * pristine.index_pages.len());
    assert_eq!(refused, 3 * others);

    // After a rebuild the store is whole again on its own: the next open
    // is clean and not rebuilt.
    copy_dir(&pristine.dir, &work);
    {
        let mut stack = pdisk::open(&work).unwrap();
        let page = *pristine.index_pages.iter().next_back().unwrap();
        pdisk::checksum_layer(&mut stack)
            .inner_mut()
            .damage_now(page, Fault::BitFlip { bit: 1 })
            .unwrap();
    }
    let (db, report) = DiskDatabase::open(&work).unwrap();
    assert!(report.rebuilt);
    drop(db);
    let (db, report) = DiskDatabase::open(&work).unwrap();
    assert!(report.clean() && !report.rebuilt, "{report:?}");
    assert_live_is_reachable(&db, "the open after a rebuild");
    assert_eq!(db.store().to_bytes(), pristine.objects);
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir_all(&pristine.dir).ok();
}

#[test]
fn a_crash_anywhere_in_repair_keeps_every_object() {
    let pristine = build("repair");
    let work = pristine.dir.with_extension("work");
    let mut crashes = 0;
    for op in 0.. {
        copy_dir(&pristine.dir, &work);
        let (mut db, _) = DiskDatabase::open(&work).unwrap();
        let handle = db.fault_handle();
        handle.inject(handle.ops() + op, Fault::Crash);
        let repaired = db.repair();
        if !handle.crashed() {
            repaired.expect("repair without a crash");
            break;
        }
        assert!(repaired.is_err(), "op {op}: repair outlived a crashed disk");
        drop(db);
        let what = format!("crash at repair's page-file op {op}");
        let (db, _) = DiskDatabase::open(&work).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(db.store().to_bytes(), pristine.objects, "{what}: objects");
        assert_live_is_reachable(&db, &what);
        assert_oracle_equal(&db, &what);
        crashes += 1;
    }
    assert!(
        crashes > 50,
        "only {crashes} crash points: repair does too little"
    );
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir_all(&pristine.dir).ok();
}
