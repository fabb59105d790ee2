//! Every way a definition changes reaches the disk with the next commit.
//!
//! The object tree's header is the only durable copy of the definitions:
//! schema, class codes and index specs. A commit encodes it only when the
//! schema's or the encoding's stamp, or the number of index definitions,
//! moved since it was last written — and a freshly opened object tree has
//! nothing remembered. Here each kind of definition change happens alone
//! between two commits, with no checkpoint: `add_class`, `add_attr` (a
//! reference from a pending class among them), a `create_object` that
//! assigns a pending class its code (a new root referencing only the first
//! hierarchy among them), `add_subclass`, `define_index` and
//! `repair`. After each commit a copy of the directory (a crash: no
//! `close`) is opened and held to the state before it:
//!
//! * the schema, every class code, the classes still pending and every
//!   index definition, all of which the header carries;
//! * every index answering like the oracle, and like before the crash;
//! * an index tree without a single catalog record, live and reopened.
//!
//! Then the copy's index is damaged, so that the next open rebuilds it from
//! the header alone, and the rebuilt store is held to the same schema,
//! class codes, pending classes, definitions and answers.

use std::path::{Path, PathBuf};

use objstore::{Oid, Value};
use pagestore::disk as pdisk;
use pagestore::Fault;
use schema::{AttrType, ClassId, Encoding, Schema};
use uindex::{catalog_entry_count, DiskDatabase, DiskOptions, IndexId, IndexSpec, KeyValue, Query};

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "uindex_definitions_{}_{}",
        std::process::id(),
        name
    ));
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

/// One line per class: name, parents and own attributes.
fn schema_facts(schema: &Schema) -> Vec<String> {
    schema
        .class_ids()
        .map(|c| {
            let attrs: Vec<_> = schema.own_attrs(c).map(|(_, n, ty)| (n, ty)).collect();
            let name = schema.class_name(c);
            format!("{c:?} {name} {:?} {attrs:?}", schema.parents(c))
        })
        .collect()
}

/// The classes without a code: the ones whose first use is still to come.
fn pending(schema: &Schema, encoding: &Encoding) -> Vec<ClassId> {
    schema
        .class_ids()
        .filter(|&c| encoding.code(c).is_none())
        .collect()
}

/// One line per class that has a code: the class and its code.
fn coded_classes(schema: &Schema, encoding: &Encoding) -> Vec<String> {
    schema
        .class_ids()
        .filter_map(|c| {
            let code = encoding.code(c)?;
            let attrs: Vec<_> = schema.own_attrs(c).map(|(_, n, ty)| (n, ty)).collect();
            Some(format!(
                "{c:?} {} {:?} {attrs:?} {:?}",
                schema.class_name(c),
                schema.parents(c),
                code.as_bytes()
            ))
        })
        .collect()
}

/// Every index's full answer as `(value, OIDs)` rows — comparable across
/// a rebuild, which may assign other codes.
type Answers = Vec<Vec<(KeyValue, Vec<Oid>)>>;

/// Each index's answer straight from the tree, checked against the oracle.
fn answers(db: &DiskDatabase, what: &str) -> Answers {
    (0..db.index().specs().len() as IndexId)
        .map(|id| {
            let q = Query::on(id);
            let oracle = uindex::oracle::eval(db.planner(), db.store(), &q).unwrap();
            let (hits, _) = db.index().query(db.schema(), &q).unwrap();
            assert_eq!(hits, oracle, "{what}: index {id} differs from the oracle");
            hits.iter()
                .map(|h| {
                    let oids = h.key.path.iter().map(|e| e.oid).collect();
                    (h.key.value.clone(), oids)
                })
                .collect()
        })
        .collect()
}

/// What a reopen must find.
struct Expected {
    schema: Vec<String>,
    codes: Vec<String>,
    pending: Vec<ClassId>,
    specs: Vec<IndexSpec>,
    objects: Vec<u8>,
    answers: Answers,
}

fn expected(db: &DiskDatabase, what: &str) -> Expected {
    Expected {
        schema: schema_facts(db.schema()),
        codes: coded_classes(db.schema(), db.index().encoding()),
        pending: pending(db.schema(), db.index().encoding()),
        specs: db.index().specs().to_vec(),
        objects: db.store().to_bytes(),
        answers: answers(db, what),
    }
}

/// Hold `db` — reopened or rebuilt — to `want`'s definitions and objects,
/// and its index tree to index entries only.
fn assert_definitions(db: &mut DiskDatabase, want: &Expected, what: &str) {
    assert_eq!(schema_facts(db.schema()), want.schema, "{what}: schema");
    let encoding = db.index().encoding();
    assert_eq!(
        coded_classes(db.schema(), encoding),
        want.codes,
        "{what}: class codes"
    );
    assert_eq!(
        pending(db.schema(), encoding),
        want.pending,
        "{what}: pending classes"
    );
    assert_eq!(db.index().specs(), want.specs, "{what}: index specs");
    assert_eq!(db.store().to_bytes(), want.objects, "{what}: objects");
    assert_eq!(
        catalog_entry_count(db.index_mut()).unwrap(),
        0,
        "{what}: catalog records in the index tree"
    );
}

/// Commit, crash a copy of the directory, and hold both of its reopens —
/// attached with the header's definitions, then rebuilt under them — to
/// the state before.
fn commit_and_crash(db: &mut DiskDatabase, what: &str) {
    db.commit().unwrap();
    let want = expected(db, what);
    assert_eq!(catalog_entry_count(db.index_mut()).unwrap(), 0, "{what}");
    let crash = db.dir().with_extension("crash");
    copy_dir(db.dir(), &crash);

    let (mut reopened, report) = DiskDatabase::open(&crash).unwrap();
    assert!(report.clean() && !report.rebuilt, "{what}: {report:?}");
    // No checkpoint ran since the commit: it came back from the log.
    assert!(
        report.recovery.is_some_and(|r| r.replayed_batches > 0),
        "{what}: {report:?}"
    );
    assert_definitions(&mut reopened, &want, what);
    assert_eq!(answers(&reopened, what), want.answers, "{what}: answers");

    // The open checkpointed the replayed log: the page file holds it all.
    let root = reopened.index().tree().root();
    drop(reopened);
    {
        let mut stack = pdisk::open(&crash).unwrap();
        pdisk::checksum_layer(&mut stack)
            .inner_mut()
            .damage_now(root, Fault::BitFlip { bit: 77 })
            .unwrap();
    }
    let (mut rebuilt, report) = DiskDatabase::open(&crash).unwrap();
    assert!(
        report.rebuilt,
        "{what}: damaged index not rebuilt: {report:?}"
    );
    let rebuilt_what = format!("{what}, rebuilt");
    assert_definitions(&mut rebuilt, &want, &rebuilt_what);
    assert_eq!(
        answers(&rebuilt, what),
        want.answers,
        "{what}: answers after a rebuild"
    );
    drop(rebuilt);
    std::fs::remove_dir_all(&crash).ok();
}

#[test]
fn every_definition_change_survives_a_crash_after_its_commit() {
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

    let dir = tmpdir("phases");
    let options = DiskOptions {
        page_size: 512,
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
    let mut vehicles = Vec::new();
    for i in 0..4 {
        let e = db.create_object(employee).unwrap();
        db.set_attr(e, "Age", Value::Int(30 + 7 * i)).unwrap();
        let c = db.create_object(company).unwrap();
        db.set_attr(c, "President", Value::Ref(e)).unwrap();
        for j in 0..10 {
            let class = if j % 2 == 0 { automobile } else { vehicle };
            let v = db.create_object(class).unwrap();
            let color = ["Red", "Blue", "Green"][(i as usize + j) % 3];
            db.set_attr(v, "Color", Value::Str(color.into())).unwrap();
            db.set_attr(v, "MadeBy", Value::Ref(c)).unwrap();
            vehicles.push(v);
        }
    }
    commit_and_crash(&mut db, "load");

    // A new hierarchy, pending until its first use.
    let dealer = db.add_class("Dealer").unwrap();
    commit_and_crash(&mut db, "add_class");

    // An attribute on a class that has a code.
    db.add_attr(vehicle, "Wheels", AttrType::Int).unwrap();
    commit_and_crash(&mut db, "add_attr");

    // A reference from the pending class: its code, when it comes, must
    // sort after the class it references (paper Fig. 4b).
    db.add_attr(dealer, "Stocks", AttrType::Ref(vehicle))
        .unwrap();
    commit_and_crash(&mut db, "add_attr with a reference on a pending class");

    // First use of the pending class assigns its code: the encoding alone
    // changed.
    db.create_object(dealer).unwrap();
    commit_and_crash(&mut db, "create_object assigning a code");

    // A new root whose one constraint is a reference to the first
    // hierarchy: its code must not be one a later root already holds.
    let asset = db.add_class("Asset").unwrap();
    db.add_attr(asset, "Users", AttrType::RefSet(employee))
        .unwrap();
    db.create_object(asset).unwrap();
    commit_and_crash(&mut db, "a new root referencing the first hierarchy");

    let van = db.add_subclass("Van", vehicle).unwrap();
    commit_and_crash(&mut db, "add_subclass");
    let v = db.create_object(van).unwrap();
    db.set_attr(v, "Color", Value::Str("Blue".into())).unwrap();
    commit_and_crash(&mut db, "create_object assigning a subclass code");

    for (i, &v) in vehicles.iter().enumerate() {
        db.set_attr(v, "Wheels", Value::Int(3 + (i % 3) as i64))
            .unwrap();
    }
    commit_and_crash(&mut db, "set_attr");

    // Nothing is pending: the spec table alone changes.
    db.define_index(IndexSpec::class_hierarchy("wheels", vehicle, "Wheels"))
        .unwrap();
    commit_and_crash(&mut db, "define_index");

    // A repaired index is a new tree under the same codes.
    db.repair().unwrap();
    db.set_attr(vehicles[5], "Color", Value::Str("Green".into()))
        .unwrap();
    commit_and_crash(&mut db, "repair");

    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A fresh database with one indexed class and a few objects, committed.
fn small_db(name: &str) -> DiskDatabase {
    let mut s = Schema::new();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    let options = DiskOptions {
        page_size: 512,
        pool_pages: 1 << 10,
        group_commit: 1,
        checkpoint_every: 0,
        ..DiskOptions::default()
    };
    let mut db = DiskDatabase::create(s, &tmpdir(name), options).unwrap();
    db.define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    for color in ["Red", "Blue", "Red"] {
        let v = db.create_object(vehicle).unwrap();
        db.set_attr(v, "Color", Value::Str(color.into())).unwrap();
    }
    db.commit().unwrap();
    db
}

/// Close `db` and open its directory again: the open must be clean, with
/// every class code it had.
fn reopen(db: DiskDatabase, what: &str) -> DiskDatabase {
    let codes = coded_classes(db.schema(), db.index().encoding());
    let dir = db.dir().to_path_buf();
    db.close().unwrap();
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean() && !report.rebuilt, "{what}: {report:?}");
    assert_eq!(
        coded_classes(db.schema(), db.index().encoding()),
        codes,
        "{what}: class codes"
    );
    db
}

#[test]
fn a_class_committed_before_its_first_use_reopens_pending() {
    let mut db = small_db("pending_reopen");
    let dealer = db.add_class("Dealer").unwrap();
    db.add_attr(dealer, "Name", AttrType::Str).unwrap();
    commit_and_crash(&mut db, "add_class and add_attr");

    let mut db = reopen(db, "a pending class");
    assert!(db.index().encoding().code(dealer).is_none());
    // Its first use after the reopen assigns the code, and it can be
    // indexed.
    let d = db.create_object(dealer).unwrap();
    assert!(db.index().encoding().code(dealer).is_some());
    db.set_attr(d, "Name", Value::Str("Acme".into())).unwrap();
    db.define_index(IndexSpec::class_hierarchy("dealer", dealer, "Name"))
        .unwrap();
    commit_and_crash(&mut db, "first use after a reopen");

    let dir = db.dir().to_path_buf();
    drop(reopen(db, "after the first use"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pending_class_below_a_coded_one_keeps_the_catalog_dense() {
    let mut db = small_db("pending_gap");
    let a = db.add_class("A").unwrap();
    let b = db.add_class("B").unwrap();
    db.create_object(b).unwrap();
    commit_and_crash(&mut db, "a pending class below a coded one");

    // Twice: the first reopen must not rebuild (which would replace the
    // evolution-assigned codes with generated ones), nor the second.
    let db = reopen(db, "first reopen");
    let mut db = reopen(db, "second reopen");
    assert!(db.index().encoding().code(a).is_none());
    db.create_object(a).unwrap();
    assert!(db.index().encoding().code(a).is_some());
    commit_and_crash(&mut db, "the lower class's first use");

    let dir = db.dir().to_path_buf();
    drop(reopen(db, "both coded"));
    std::fs::remove_dir_all(&dir).ok();
}
