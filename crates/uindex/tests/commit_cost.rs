//! What a durable commit costs, as counts.
//!
//! A commit writes what changed: the index leaves the mutation touched, the
//! page of each object it touched, the meta page if a root or length moved,
//! and the object tree's header — the definitions — only when one of them
//! changed. A recolour edits its three leaf entries where they lie (the
//! colour's entry out and in, the object's record) and re-encodes no leaf.
//! None of that depends on how large the database is (the counts are the
//! same at 2 000 and at 20 000 vehicles), and between checkpoints all of
//! it goes to `wal.log`. A checkpointing commit writes one marker and one
//! log fsync before its page writes and one page-file fsync, whether or
//! not a page was allocated or freed. Timings on a shared box cannot gate
//! that; these counts repeat exactly, so they can.

use std::collections::{BTreeMap, BTreeSet};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use objstore::{Oid, Value};
use pagestore::PageId;
use schema::{AttrType, ClassId, Schema};
use uindex::{DiskDatabase, DiskOptions, IndexSpec};

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "uindex_commit_cost_{}_{}",
        std::process::id(),
        name
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Colours of one length: a recolour rewrites its object's record in
/// place, so no step of the flat-in-size run depends on where a grown
/// record happens to land.
const COLORS: [&str; 5] = ["Red", "Tan", "Sky", "Jet", "Ash"];
const COMPANIES: usize = 25;

struct Classes {
    employee: ClassId,
    company: ClassId,
    vehicle: ClassId,
    automobile: ClassId,
}

fn vehicle_schema() -> (Schema, Classes) {
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
    s.add_attr(vehicle, "Serial", AttrType::Int).unwrap();
    let automobile = s.add_subclass("Automobile", vehicle).unwrap();
    let classes = Classes {
        employee,
        company,
        vehicle,
        automobile,
    };
    (s, classes)
}

/// The vehicle database at `n` vehicles: loaded, indexed (`color`, `age`,
/// `serial`) and checkpointed; no checkpoint happens again unless asked.
fn vehicle_db(dir: &Path, n: usize) -> (DiskDatabase, Vec<Oid>) {
    vehicle_db_with(dir, n, DiskOptions::default().group_commit, 0)
}

/// [`vehicle_db`] with a group-commit interval and a checkpoint period.
fn vehicle_db_with(
    dir: &Path,
    n: usize,
    group_commit: u32,
    checkpoint_every: u32,
) -> (DiskDatabase, Vec<Oid>) {
    let (schema, c) = vehicle_schema();
    let options = DiskOptions {
        group_commit,
        checkpoint_every,
        ..DiskOptions::default()
    };
    let mut db = DiskDatabase::create(schema, dir, options).unwrap();
    let mut companies = Vec::new();
    for i in 0..COMPANIES {
        let e = db.create_object(c.employee).unwrap();
        db.set_attr(e, "Age", Value::Int(25 + i as i64)).unwrap();
        let company = db.create_object(c.company).unwrap();
        db.set_attr(company, "President", Value::Ref(e)).unwrap();
        companies.push(company);
    }
    let mut vehicles = Vec::with_capacity(n);
    for i in 0..n {
        let class = if i % 3 == 0 { c.automobile } else { c.vehicle };
        let v = db.create_object(class).unwrap();
        db.set_attr(v, "Color", Value::Str(COLORS[i % COLORS.len()].into()))
            .unwrap();
        db.set_attr(v, "MadeBy", Value::Ref(companies[(i * 7) % COMPANIES]))
            .unwrap();
        db.set_attr(v, "Serial", Value::Int(i as i64)).unwrap();
        vehicles.push(v);
    }
    db.define_index(IndexSpec::class_hierarchy("color", c.vehicle, "Color"))
        .unwrap();
    db.define_index(IndexSpec::path(
        "age",
        c.vehicle,
        &["MadeBy", "President"],
        "Age",
    ))
    .unwrap();
    db.define_index(IndexSpec::class_hierarchy("serial", c.vehicle, "Serial"))
        .unwrap();
    db.checkpoint().unwrap();
    (db, vehicles)
}

/// `(length, mtime, inode)` of every file in `dir` but the log.
fn other_files(dir: &Path) -> BTreeMap<String, (u64, i64, i64, u64)> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name() != "wal.log")
        .map(|e| {
            let m = e.metadata().unwrap();
            let stamp = (m.len(), m.mtime(), m.mtime_nsec(), m.ino());
            (e.file_name().to_string_lossy().into_owned(), stamp)
        })
        .collect()
}

/// What 64 recolour-and-commit steps cost at one database size.
struct Cost {
    wal_appends: u64,
    /// Bytes the steps put into the directory: the log's growth, no other
    /// file being allowed to change.
    wal_bytes: u64,
}

fn recolour_cost(n: usize) -> Cost {
    let dir = tmpdir(&format!("flat{n}"));
    let (mut db, vehicles) = vehicle_db(&dir, n);
    let wal = dir.join("wal.log");
    let mut cost = Cost {
        wal_appends: 0,
        wal_bytes: 0,
    };
    for step in 0..64 {
        // The same relative positions at every size.
        let v = vehicles[(step * 2 + 1) * n / 128];
        let files = other_files(&dir);
        let log = std::fs::metadata(&wal).unwrap().len();
        let appends = telemetry::counter_value("pagestore.wal.appends");
        let allocations = telemetry::counter_value("pagestore.pool.allocations");
        let edits = telemetry::counter_value("btree.leaf.in_place_edits");
        let reencodes = telemetry::counter_value("btree.leaf.reencodes");

        let Some(Value::Str(old)) = db.store().attr(v, "Color").unwrap().cloned() else {
            panic!("vehicle without a colour");
        };
        let at = COLORS.iter().position(|c| *c == old).unwrap();
        let new = COLORS[(at + 1 + step % 4) % COLORS.len()];
        db.set_attr(v, "Color", Value::Str(new.into())).unwrap();
        db.commit().unwrap();

        // The colour's entry out and in, and the object's record replaced:
        // each written into its leaf where it lies, no leaf decoded and
        // encoded whole.
        assert_eq!(
            (
                telemetry::counter_value("btree.leaf.in_place_edits") - edits,
                telemetry::counter_value("btree.leaf.reencodes") - reencodes,
            ),
            (3, 0),
            "{n} vehicles, step {step}: (leaf edits in place, leaves re-encoded)"
        );
        cost.wal_appends += telemetry::counter_value("pagestore.wal.appends") - appends;
        cost.wal_bytes += std::fs::metadata(&wal).unwrap().len() - log;
        let after = other_files(&dir);
        let changed: Vec<_> = after
            .iter()
            .filter(|(k, v)| files.get(*k) != Some(v))
            .collect();
        // A page allocation would extend `pages.db` (the store hands out
        // and zeroes slots eagerly); an in-place recolour needs none.
        assert_eq!(
            telemetry::counter_value("pagestore.pool.allocations"),
            allocations,
            "{n} vehicles, step {step}: a same-length recolour split a page"
        );
        assert!(
            changed.is_empty() && after.len() == files.len(),
            "{n} vehicles, step {step}: a commit between checkpoints wrote {changed:?}"
        );
    }
    drop(db);
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean() && !report.rebuilt, "{report:?}");
    assert_eq!(db.store().len(), n + 2 * COMPANIES);
    std::fs::remove_dir_all(&dir).ok();
    cost
}

#[test]
fn commit_cost_is_flat_in_database_size() {
    let small = recolour_cost(2_000);
    let large = recolour_cost(20_000);
    for (cost, n) in [(&small, 2_000), (&large, 20_000)] {
        // Two index leaves (one entry out, one in), the object's page and
        // the commit marker; a step short of that found both entries on
        // one leaf, a step over it merged or split one.
        assert!(
            (64 * 3..=64 * 4 + 16).contains(&cost.wal_appends),
            "{n} vehicles: {} WAL appends for 64 commits",
            cost.wal_appends
        );
    }
    // Equal up to the leaf a key happens to fall on: within a page per
    // eight commits, at ten times the objects.
    let page = 1024 + 13;
    assert!(
        small.wal_appends.abs_diff(large.wal_appends) <= 8,
        "WAL appends: {} at 2 000 vehicles, {} at 20 000",
        small.wal_appends,
        large.wal_appends
    );
    assert!(
        small.wal_bytes.abs_diff(large.wal_bytes) <= 8 * page,
        "bytes written: {} at 2 000 vehicles, {} at 20 000",
        small.wal_bytes,
        large.wal_bytes
    );
}

/// Pages of `db`'s object tree that hold its header record.
fn header_leaves(db: &DiskDatabase) -> BTreeSet<PageId> {
    let leaves: BTreeSet<PageId> = db.header_pages().unwrap().into_iter().collect();
    assert!(!leaves.is_empty(), "no header in the object tree");
    leaves
}

/// Pages the log wrote from byte `from` on:
/// `[op u8][page u32][len u32][data][crc u32]`, op 1 = page write.
fn pages_logged(dir: &Path, from: u64) -> BTreeSet<PageId> {
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let mut pos = from as usize;
    let mut pages = BTreeSet::new();
    while pos + 13 <= log.len() {
        let len = u32::from_le_bytes(log[pos + 5..pos + 9].try_into().unwrap()) as usize;
        if log[pos] == 1 {
            let page = u32::from_le_bytes(log[pos + 1..pos + 5].try_into().unwrap());
            pages.insert(PageId(page));
        }
        pos += 13 + len;
    }
    pages
}

#[test]
fn the_header_is_written_only_when_a_definition_changed() {
    let dir = tmpdir("header");
    let (mut db, vehicles) = vehicle_db(&dir, 600);
    let wal = dir.join("wal.log");
    let log_len = || std::fs::metadata(&wal).unwrap().len();

    // An attribute update: its index leaves and its object's page, and not
    // one page of the header.
    let header = header_leaves(&db);
    let from = log_len();
    db.set_attr(vehicles[300], "Color", Value::Str("Jet".into()))
        .unwrap();
    db.commit().unwrap();
    let logged = pages_logged(&dir, from);
    assert!(!logged.is_empty() && logged.len() <= 4, "{logged:?}");
    assert!(
        logged.is_disjoint(&header),
        "set_attr + commit rewrote header pages {:?}",
        logged.intersection(&header).collect::<Vec<_>>()
    );

    // Schema evolution reaches the header...
    let from = log_len();
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    let truck = db.add_subclass("Truck", vehicle).unwrap();
    db.add_attr(truck, "Payload", AttrType::Int).unwrap();
    let t = db.create_object(truck).unwrap();
    db.set_attr(t, "Payload", Value::Int(9)).unwrap();
    db.commit().unwrap();
    assert!(
        !pages_logged(&dir, from).is_disjoint(&header_leaves(&db)),
        "add_subclass + add_attr + commit left the header alone"
    );

    // ... and so does a new index.
    let from = log_len();
    db.define_index(IndexSpec::class_hierarchy("payload", truck, "Payload"))
        .unwrap();
    db.commit().unwrap();
    assert!(
        !pages_logged(&dir, from).is_disjoint(&header_leaves(&db)),
        "define_index + commit left the header alone"
    );

    // An unchanged schema is free again, and all of it survives a crash.
    let header = header_leaves(&db);
    let from = log_len();
    db.set_attr(vehicles[301], "Color", Value::Str("Ash".into()))
        .unwrap();
    db.commit().unwrap();
    assert!(pages_logged(&dir, from).is_disjoint(&header));
    drop(db);
    let (mut db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean() && !report.rebuilt, "{report:?}");
    let truck = db.schema().class_by_name("Truck").unwrap();
    assert!(db.schema().resolve_attr(truck, "Payload").is_some());
    let (hits, _) = db.query_uql("payload: Payload = 9").unwrap();
    assert_eq!(hits.len(), 1);
    assert!(db.check().unwrap().clean());
    std::fs::remove_dir_all(&dir).ok();
}

/// The durability counters, read together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Durability {
    checkpoints: u64,
    wal_commits: u64,
    wal_fsyncs: u64,
    wal_checkpoints: u64,
    file_fsyncs: u64,
}

fn durability() -> Durability {
    let c = telemetry::counter_value;
    Durability {
        checkpoints: c("uindex.disk.checkpoints"),
        wal_commits: c("pagestore.wal.commits"),
        wal_fsyncs: c("pagestore.wal.fsyncs"),
        wal_checkpoints: c("pagestore.wal.checkpoints"),
        file_fsyncs: c("pagestore.file.fsyncs"),
    }
}

impl std::ops::Sub for Durability {
    type Output = Durability;
    fn sub(self, o: Durability) -> Durability {
        Durability {
            checkpoints: self.checkpoints - o.checkpoints,
            wal_commits: self.wal_commits - o.wal_commits,
            wal_fsyncs: self.wal_fsyncs - o.wal_fsyncs,
            wal_checkpoints: self.wal_checkpoints - o.wal_checkpoints,
            file_fsyncs: self.file_fsyncs - o.file_fsyncs,
        }
    }
}

#[test]
fn a_checkpoint_pays_for_its_data() {
    // Group commit 1: the checkpoint's marker gets its own group fsync.
    // Group commit 8 (the default): no group fsync falls due between
    // checkpoints, so the checkpoint forces it.
    for group_commit in [1, 8] {
        let dir = tmpdir(&format!("checkpoint{group_commit}"));
        let (mut db, vehicles) = vehicle_db_with(&dir, 2_000, group_commit, 4);
        let what = |step| format!("group commit {group_commit}, step {step}");
        for step in 0..16 {
            let v = vehicles[step * 97 + 11];
            let Some(Value::Str(old)) = db.store().attr(v, "Color").unwrap().cloned() else {
                panic!("vehicle without a colour");
            };
            let at = COLORS.iter().position(|c| *c == old).unwrap();
            let new = COLORS[(at + 1) % COLORS.len()];
            db.set_attr(v, "Color", Value::Str(new.into())).unwrap();
            let before = durability();
            db.commit().unwrap();
            let cost = durability() - before;
            let checkpointing = step % 4 == 3;
            assert_eq!(cost.checkpoints, u64::from(checkpointing), "{}", what(step));
            assert_eq!(cost.wal_commits, 1, "{}: one marker", what(step));
            if checkpointing {
                // One log fsync covers the marker before any page write;
                // the other is the log truncate after the page file's.
                assert_eq!(
                    (cost.wal_checkpoints, cost.wal_fsyncs),
                    (1, 2),
                    "{}: {cost:?}",
                    what(step)
                );
                assert_eq!(cost.file_fsyncs, 1, "{}: {cost:?}", what(step));
            } else {
                assert_eq!(
                    cost.wal_fsyncs,
                    u64::from(group_commit == 1),
                    "{}",
                    what(step)
                );
                assert_eq!(cost.file_fsyncs, 0, "{}", what(step));
            }
        }

        // A page allocated (new vehicles split the object tree's last
        // leaf) or freed (deleted vehicles empty leaves) costs the next
        // checkpoint nothing more: one page-file fsync, as ever.
        let vehicle = db.schema().class_by_name("Vehicle").unwrap();
        for change in ["allocate", "free"] {
            let (allocations, frees) = (
                telemetry::counter_value("pagestore.pool.allocations"),
                telemetry::counter_value("pagestore.pool.frees"),
            );
            let before = durability();
            for i in 0..300 {
                if change == "allocate" {
                    let v = db.create_object(vehicle).unwrap();
                    db.set_attr(v, "Serial", Value::Int(10_000 + i)).unwrap();
                } else {
                    db.delete_object(vehicles[i as usize], false).unwrap();
                }
            }
            db.commit().unwrap();
            let moved = if change == "allocate" {
                telemetry::counter_value("pagestore.pool.allocations") - allocations
            } else {
                telemetry::counter_value("pagestore.pool.frees") - frees
            };
            assert!(moved > 0, "{group_commit}: no page to {change}");
            for _ in 0..2 {
                db.commit().unwrap();
            }
            let staged = durability() - before;
            assert_eq!(
                (staged.checkpoints, staged.file_fsyncs),
                (0, 0),
                "{group_commit}, {change}: before the checkpoint"
            );
            db.commit().unwrap();
            let cost = durability() - before;
            assert_eq!(
                (cost.checkpoints, cost.file_fsyncs),
                (1, 1),
                "{group_commit}, {change}: at the checkpoint: {cost:?}"
            );
        }
        drop(db);
        let (db, report) = DiskDatabase::open(&dir).unwrap();
        assert!(report.clean() && !report.rebuilt, "{report:?}");
        assert_eq!(db.store().len(), 2_000 + 2 * COMPANIES);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn definitions_are_encoded_only_after_a_definition_changed() {
    let dir = tmpdir("definition_syncs");
    let (mut db, vehicles) = vehicle_db(&dir, 600);
    let syncs = || telemetry::counter_value("uindex.disk.definition_syncs");

    // The set-up's checkpoint wrote the definitions: a recolour finds the
    // schema's and the encoding's stamps and the spec count unchanged, and
    // its commit does not encode the header.
    let before = syncs();
    for step in 0..100 {
        let v = vehicles[step * 5 + 1];
        let color = COLORS[step % COLORS.len()];
        db.set_attr(v, "Color", Value::Str(color.into())).unwrap();
        db.commit().unwrap();
    }
    assert_eq!(syncs() - before, 0, "100 set_attr commits");

    // A new attribute changes the schema: one stage re-encodes the header,
    // and the one after it nothing.
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    db.add_attr(vehicle, "Wheels", AttrType::Int).unwrap();
    let before = syncs();
    db.commit().unwrap();
    assert_eq!(syncs() - before, 1, "the commit after add_attr");
    db.set_attr(vehicles[7], "Wheels", Value::Int(4)).unwrap();
    db.commit().unwrap();
    assert_eq!(syncs() - before, 1, "the commit after that");

    drop(db);
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean() && !report.rebuilt, "{report:?}");
    assert!(db.schema().resolve_attr(vehicle, "Wheels").is_some());
    assert_eq!(
        db.store().attr(vehicles[7], "Wheels").unwrap(),
        Some(&Value::Int(4))
    );
    std::fs::remove_dir_all(&dir).ok();
}
