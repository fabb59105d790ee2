//! Crash sweep over the one durability domain.
//!
//! A seeded script mixes every kind of mutation — creates, recolours,
//! re-pointed references (end-of-path and mid-path), one object grown past
//! a page, deletes, schema evolution, a new index — with commits and
//! checkpoints, against a shadow [`ObjectStore`] that receives the same
//! operations. Then every way the process can die is tried:
//!
//! * **in the log**: for each stretch between checkpoints, the directory as
//!   it stood at the end of the stretch is reopened with `wal.log` cut at
//!   every record boundary and in the middle of every record;
//! * **in a checkpoint**: the script is replayed with the page file
//!   crashing at each of its operations during each checkpoint in turn;
//! * **in a checkpoint a commit triggers**: a second script runs with
//!   `checkpoint_every` set, and every such commit is replayed with the
//!   page file crashing at each of its operations. Once the commit's marker
//!   is in the log, every reopen holds that commit.
//!
//! Every reopen must come up `clean() && !rebuilt` holding exactly the
//! shadow's state at the last commit that survived: objects byte-equal,
//! every index answering like the brute-force oracle, `check()` clean —
//! and its live pages exactly page 0 and the pages of the two trees: no
//! page leaked, none the roots reach freed.
//! Objects, index and meta page have no way to disagree — there is one log
//! and one commit marker — and this is the test that says so.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use objstore::{ObjectStore, Oid, Value};
use pagestore::{Fault, PageId, PageStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schema::{AttrType, ClassId, Schema};
use uindex::{DiskDatabase, DiskOptions, IndexSpec, Query, ValuePred};

const STEPS: usize = 170;
const COLORS: [&str; 6] = ["Red", "Blue", "Green", "Black", "White", "Ultramarine"];

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "uindex_crash_sweep_{}_{}",
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

fn schema() -> Schema {
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
    s.add_attr(vehicle, "Notes", AttrType::Str).unwrap();
    s.add_subclass("Automobile", vehicle).unwrap();
    s
}

fn options() -> DiskOptions {
    DiskOptions {
        page_size: 256,
        // Small enough that uncommitted pages are evicted into the log
        // mid-mutation: the sweep then also cuts through uncommitted tails.
        pool_pages: 24,
        group_commit: 1,
        checkpoint_every: 0,
        ..DiskOptions::default()
    }
}

/// The shadow's state at one commit.
#[derive(Clone, PartialEq)]
struct Committed {
    objects: Vec<u8>,
    indexes: usize,
}

/// One stretch of the script between checkpoints: the directory as it
/// stood when the stretch ended (log uncheckpointed), what it held when
/// the stretch began, and each commit with the log's length after it.
struct Stretch {
    image: PathBuf,
    base: Committed,
    commits: Vec<(u64, Committed)>,
}

/// Die inside checkpoint number `checkpoint`, at the page file's `op`-th
/// operation from the checkpoint's start.
#[derive(Clone, Copy)]
struct CrashAt {
    checkpoint: usize,
    op: u64,
}

enum Outcome {
    /// Ran to the end: every stretch, and the number of checkpoints.
    Finished(Vec<Stretch>, usize),
    /// The injected crash fired: what the last commit held, and what the
    /// dying checkpoint was committing.
    Crashed(Committed, Committed),
    /// The crash point lies beyond the checkpoint's last operation.
    Outlived,
}

/// The database and its shadow, mutated in lockstep.
struct World {
    db: DiskDatabase,
    shadow: ObjectStore,
    indexes: usize,
    employees: Vec<Oid>,
    companies: Vec<Oid>,
    vehicles: Vec<Oid>,
}

impl World {
    fn class(&self, name: &str) -> ClassId {
        self.db.schema().class_by_name(name).unwrap()
    }

    fn create(&mut self, class: ClassId) -> Oid {
        let oid = self.db.create_object(class).unwrap();
        assert_eq!(self.shadow.create(class).unwrap(), oid);
        oid
    }

    fn set(&mut self, oid: Oid, attr: &str, value: Value) {
        self.db.set_attr(oid, attr, value.clone()).unwrap();
        self.shadow.set_attr(oid, attr, value).unwrap();
    }

    fn define(&mut self, spec: uindex::SpecBuilder) {
        self.db.define_index(spec).unwrap();
        self.indexes += 1;
    }

    fn committed(&self) -> Committed {
        Committed {
            objects: self.shadow.to_bytes(),
            indexes: self.indexes,
        }
    }
}

/// A new database in `dir` and its shadow, with the `color` and `age`
/// indexes, four employees and three companies, none of it committed.
fn new_world(dir: &Path, options: DiskOptions) -> World {
    let db = DiskDatabase::create(schema(), dir, options).unwrap();
    let mut w = World {
        shadow: ObjectStore::new(db.schema().clone()),
        db,
        indexes: 0,
        employees: Vec::new(),
        companies: Vec::new(),
        vehicles: Vec::new(),
    };
    let (employee, company, vehicle) =
        (w.class("Employee"), w.class("Company"), w.class("Vehicle"));
    w.define(IndexSpec::class_hierarchy("color", vehicle, "Color"));
    w.define(IndexSpec::path(
        "age",
        vehicle,
        &["MadeBy", "President"],
        "Age",
    ));
    for i in 0..4 {
        let e = w.create(employee);
        w.set(e, "Age", Value::Int(30 + 7 * i));
        w.employees.push(e);
    }
    for i in 0..3 {
        let c = w.create(company);
        w.set(c, "President", Value::Ref(w.employees[i]));
        w.companies.push(c);
    }
    w
}

fn run_script(dir: &Path, seed: u64, crash: Option<CrashAt>) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = new_world(dir, options());
    let employee = w.class("Employee");
    let vehicle_classes = [w.class("Vehicle"), w.class("Automobile")];

    let mut stretches = Vec::new();
    let mut base = Committed {
        objects: ObjectStore::new(schema()).to_bytes(),
        indexes: 0,
    };
    let mut last = base.clone();
    let mut commits = Vec::new();
    let mut checkpoints = 0;
    let (mut evolved, mut indexed, mut grown) = (false, false, 0);
    let wal = dir.join("wal.log");

    for step in 0..STEPS {
        match rng.gen_range(0..100) {
            0..=24 => {
                let class = vehicle_classes[rng.gen_range(0..2)];
                let v = w.create(class);
                let color = COLORS[rng.gen_range(0..COLORS.len())];
                w.set(v, "Color", Value::Str(color.into()));
                let maker = w.companies[rng.gen_range(0..w.companies.len())];
                w.set(v, "MadeBy", Value::Ref(maker));
                w.vehicles.push(v);
            }
            25..=39 if !w.vehicles.is_empty() => {
                let v = w.vehicles[rng.gen_range(0..w.vehicles.len())];
                let color = COLORS[rng.gen_range(0..COLORS.len())];
                w.set(v, "Color", Value::Str(color.into()));
            }
            40..=46 if !w.vehicles.is_empty() => {
                // End-of-path re-point: one vehicle changes maker.
                let v = w.vehicles[rng.gen_range(0..w.vehicles.len())];
                let maker = w.companies[rng.gen_range(0..w.companies.len())];
                w.set(v, "MadeBy", Value::Ref(maker));
            }
            47..=52 => {
                // Mid-path re-point: the president switches companies, and
                // every vehicle of that company moves in the `age` index.
                let c = w.companies[rng.gen_range(0..w.companies.len())];
                let e = w.employees[rng.gen_range(0..w.employees.len())];
                w.set(c, "President", Value::Ref(e));
            }
            53..=57 if !w.vehicles.is_empty() && grown < 3 => {
                // One object past a page (256 bytes), then past three.
                grown += 1;
                let v = w.vehicles[rng.gen_range(0..w.vehicles.len())];
                w.set(v, "Notes", Value::Str("n".repeat(300 * grown)));
            }
            58..=64 if w.vehicles.len() > 2 => {
                let v = w.vehicles.swap_remove(rng.gen_range(0..w.vehicles.len()));
                w.db.delete_object(v, false).unwrap();
                w.shadow.delete(v, false).unwrap();
            }
            65..=68 if !evolved && step > STEPS / 4 => {
                evolved = true;
                let truck = w.db.add_subclass("Truck", vehicle_classes[0]).unwrap();
                w.db.add_attr(truck, "Payload", AttrType::Int).unwrap();
                let shadow_schema = w.shadow.schema_mut();
                let t = shadow_schema
                    .add_subclass("Truck", vehicle_classes[0])
                    .unwrap();
                assert_eq!(t, truck);
                shadow_schema
                    .add_attr(truck, "Payload", AttrType::Int)
                    .unwrap();
                let v = w.create(truck);
                w.set(v, "Color", Value::Str("Red".into()));
                w.set(v, "Payload", Value::Int(12));
                w.vehicles.push(v);
            }
            69..=72 if !indexed && step > STEPS / 3 => {
                indexed = true;
                w.define(IndexSpec::class_hierarchy("employee-age", employee, "Age"));
            }
            73..=92 => {
                w.db.commit().unwrap();
                last = w.committed();
                commits.push((std::fs::metadata(&wal).unwrap().len(), last.clone()));
            }
            93..=99 => {
                let image = dir.with_extension(format!("stretch{}", stretches.len()));
                if crash.is_none() {
                    copy_dir(dir, &image);
                }
                stretches.push(Stretch {
                    image,
                    base: std::mem::replace(&mut base, w.committed()),
                    commits: std::mem::take(&mut commits),
                });
                let dying = crash.filter(|c| c.checkpoint == checkpoints);
                let handle = w.db.fault_handle();
                if let Some(c) = dying {
                    handle.inject(handle.ops() + c.op, Fault::Crash);
                }
                let result = w.db.checkpoint();
                if dying.is_some() {
                    return match (result.is_err(), handle.crashed()) {
                        (true, true) => Outcome::Crashed(last, w.committed()),
                        (false, false) => Outcome::Outlived,
                        other => panic!("crash and checkpoint result disagree: {other:?}"),
                    };
                }
                result.unwrap();
                last = w.committed();
                checkpoints += 1;
            }
            _ => {}
        }
    }
    assert!(
        evolved && indexed && grown == 3,
        "the seed must reach every kind of step"
    );
    // The tail of the script stays in the log: the last stretch.
    let image = dir.with_extension(format!("stretch{}", stretches.len()));
    copy_dir(dir, &image);
    stretches.push(Stretch {
        image,
        base,
        commits,
    });
    Outcome::Finished(stretches, checkpoints)
}

/// The live pages of `db`'s store are page 0 and the pages of its two
/// trees, no more and no fewer.
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

/// Reopen `dir` and hold it to one of `allowed` (returning which): clean,
/// not rebuilt, every live page reachable and every reachable page live,
/// objects byte-equal, indexes oracle-equal, `check()` clean.
fn reopen_and_verify(dir: &Path, allowed: &[&Committed], what: &str) -> usize {
    let (mut db, report) =
        DiskDatabase::open(dir).unwrap_or_else(|e| panic!("{what}: open failed: {e}"));
    assert!(report.clean() && !report.rebuilt, "{what}: {report:?}");
    assert_live_is_reachable(&db, what);
    let objects = db.store().to_bytes();
    let which = allowed
        .iter()
        .position(|c| c.objects == objects)
        .unwrap_or_else(|| panic!("{what}: objects match no allowed commit"));
    assert_eq!(
        db.index().specs().len(),
        allowed[which].indexes,
        "{what}: index definitions"
    );
    for id in 0..db.index().specs().len() as u16 {
        let all = Query::on(id);
        let some = match id {
            0 => Query::on(id).value(ValuePred::between(
                Value::Str("Blue".into()),
                Value::Str("Red".into()),
            )),
            _ => Query::on(id).value(ValuePred::at_least(Value::Int(40))),
        };
        for q in [all, some] {
            let oracle = uindex::oracle::eval(db.planner(), db.store(), &q).unwrap();
            let (hits, _) = db.index().query(db.schema(), &q).unwrap();
            assert_eq!(hits, oracle, "{what}: index {id}");
        }
    }
    let check = db.check().unwrap();
    assert!(check.clean(), "{what}: {check:?}");
    which
}

/// Offsets of the record boundaries of a WAL image (0 and the end among
/// them): `[op u8][page u32][len u32][data][crc u32]`.
fn record_boundaries(log: &[u8]) -> Vec<usize> {
    let mut at = vec![0];
    let mut pos = 0;
    while pos + 13 <= log.len() {
        let len = u32::from_le_bytes(log[pos + 5..pos + 9].try_into().unwrap()) as usize;
        pos += 13 + len;
        assert!(pos <= log.len(), "the script's own log ends mid-record");
        at.push(pos);
    }
    assert_eq!(pos, log.len());
    at
}

#[test]
fn every_log_prefix_reopens_to_the_last_surviving_commit() {
    let dir = tmpdir("log");
    let Outcome::Finished(stretches, checkpoints) = run_script(&dir, 0xC0FFEE, None) else {
        panic!("no crash was asked for");
    };
    assert!(
        checkpoints >= 3,
        "script too short: {checkpoints} checkpoints"
    );
    let work = dir.with_extension("work");
    let (mut cuts, mut mid_commit_cuts) = (0, 0);
    for (n, stretch) in stretches.iter().enumerate() {
        let log = std::fs::read(stretch.image.join("wal.log")).unwrap();
        let boundaries = record_boundaries(&log);
        let mut points = boundaries.clone();
        points.extend(boundaries.windows(2).map(|w| (w[0] + w[1]) / 2));
        points.sort_unstable();
        points.dedup();
        for cut in points {
            copy_dir(&stretch.image, &work);
            std::fs::write(work.join("wal.log"), &log[..cut]).unwrap();
            let survivor = stretch
                .commits
                .iter()
                .rev()
                .find(|(end, _)| *end <= cut as u64)
                .map_or(&stretch.base, |(_, c)| c);
            reopen_and_verify(
                &work,
                &[survivor],
                &format!("stretch {n}, log cut at {cut}"),
            );
            cuts += 1;
            mid_commit_cuts +=
                usize::from(!stretch.commits.iter().any(|(end, _)| *end == cut as u64));
        }
        std::fs::remove_dir_all(&stretch.image).ok();
    }
    assert!(cuts > 200, "only {cuts} cuts: the script logs too little");
    assert!(
        mid_commit_cuts > cuts / 2,
        "cuts must fall inside commits too"
    );
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crash_at_every_page_file_op_of_every_checkpoint_reopens_whole() {
    let dir = tmpdir("ckpt");
    let Outcome::Finished(stretches, checkpoints) = run_script(&dir, 0xC0FFEE, None) else {
        panic!("no crash was asked for");
    };
    for stretch in &stretches {
        std::fs::remove_dir_all(&stretch.image).ok();
    }
    let (mut crashes, mut before, mut after) = (0, 0, 0);
    for checkpoint in 0..checkpoints {
        // Once the commit marker is in the log the new state survives
        // every later crash point of the same checkpoint.
        let mut marker_written = false;
        for op in 0.. {
            let crash = CrashAt { checkpoint, op };
            match run_script(&dir, 0xC0FFEE, Some(crash)) {
                Outcome::Outlived => break,
                Outcome::Finished(..) => panic!("checkpoint {checkpoint} never ran"),
                Outcome::Crashed(old, new) => {
                    let what = format!("checkpoint {checkpoint}, page-file op {op}");
                    let which = reopen_and_verify(&dir, &[&old, &new], &what);
                    let is_new = which == 1 || old == new;
                    assert!(is_new || !marker_written, "{what}: went back in time");
                    marker_written |= is_new && old != new;
                    crashes += 1;
                    if is_new {
                        after += 1;
                    } else {
                        before += 1;
                    }
                }
            }
        }
    }
    assert!(crashes > 50, "only {crashes} crash points");
    assert!(
        before > 0 && after > 0,
        "{before} before / {after} after the marker"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Commits per checkpoint in the commit-triggered script.
const EVERY: usize = 4;
/// Checkpoints the commit-triggered script runs through.
const WINDOWS: usize = 6;

enum Triggered {
    /// Ran to the end: per checkpoint, whether a page was allocated or
    /// freed since the one before.
    Finished(Vec<bool>),
    /// The injected crash fired inside a checkpointing commit: what the
    /// commit before it held, what it commits, and whether its marker
    /// reached the log before the crash.
    Crashed(Committed, Committed, bool),
    /// The crash point lies beyond the commit's last operation.
    Outlived,
}

/// One step of the commit-triggered script. Even windows allocate and free
/// pages (creates, deletes, mid-path re-points); odd windows only recolour
/// between names of one length, which seldom changes the allocation state.
fn triggered_step(w: &mut World, rng: &mut StdRng, window: usize) {
    let vehicle_classes = [w.class("Vehicle"), w.class("Automobile")];
    if window % 2 == 1 && !w.vehicles.is_empty() {
        let v = w.vehicles[rng.gen_range(0..w.vehicles.len())];
        let color = ["Green", "Black", "White"][rng.gen_range(0..3)];
        w.set(v, "Color", Value::Str(color.into()));
        return;
    }
    match rng.gen_range(0..10) {
        0..=5 => {
            let v = w.create(vehicle_classes[rng.gen_range(0..2)]);
            let color = COLORS[rng.gen_range(0..COLORS.len())];
            w.set(v, "Color", Value::Str(color.into()));
            let maker = w.companies[rng.gen_range(0..w.companies.len())];
            w.set(v, "MadeBy", Value::Ref(maker));
            w.vehicles.push(v);
        }
        6..=7 if w.vehicles.len() > 2 => {
            let v = w.vehicles.swap_remove(rng.gen_range(0..w.vehicles.len()));
            w.db.delete_object(v, false).unwrap();
            w.shadow.delete(v, false).unwrap();
        }
        _ => {
            let c = w.companies[rng.gen_range(0..w.companies.len())];
            let e = w.employees[rng.gen_range(0..w.employees.len())];
            w.set(c, "President", Value::Ref(e));
        }
    }
}

/// Whether the log holds a commit marker past byte `from` (a record
/// boundary).
fn marker_after(log: &[u8], from: u64) -> bool {
    let mut pos = from as usize;
    while pos + 13 <= log.len() {
        if log[pos] == 4 {
            return true;
        }
        pos += 13 + u32::from_le_bytes(log[pos + 5..pos + 9].try_into().unwrap()) as usize;
    }
    false
}

fn run_triggered(dir: &Path, seed: u64, crash: Option<CrashAt>) -> Triggered {
    let mut rng = StdRng::seed_from_u64(seed);
    let options = DiskOptions {
        checkpoint_every: EVERY as u32,
        group_commit: 3,
        ..options()
    };
    let mut w = new_world(dir, options);
    let mut last = Committed {
        objects: ObjectStore::new(schema()).to_bytes(),
        indexes: 0,
    };
    let wal = dir.join("wal.log");
    let pages_moved = || {
        telemetry::counter_value("pagestore.pool.allocations")
            + telemetry::counter_value("pagestore.pool.frees")
    };
    let mut moved_before = pages_moved();
    let mut moved = Vec::new();
    for commit in 0..EVERY * WINDOWS {
        let window = commit / EVERY;
        for _ in 0..6 {
            triggered_step(&mut w, &mut rng, window);
        }
        let checkpointing = commit % EVERY == EVERY - 1;
        let dying = crash.filter(|c| checkpointing && c.checkpoint == window);
        let handle = w.db.fault_handle();
        if let Some(c) = dying {
            handle.inject(handle.ops() + c.op, Fault::Crash);
        }
        let log_before = std::fs::metadata(&wal).unwrap().len();
        let result = w.db.commit();
        if dying.is_some() {
            return match (result.is_err(), handle.crashed()) {
                (true, true) => {
                    let marker = marker_after(&std::fs::read(&wal).unwrap(), log_before);
                    Triggered::Crashed(last, w.committed(), marker)
                }
                (false, false) => Triggered::Outlived,
                other => panic!("crash and commit result disagree: {other:?}"),
            };
        }
        result.unwrap();
        last = w.committed();
        if checkpointing {
            moved.push(pages_moved() > moved_before);
            moved_before = pages_moved();
        }
    }
    Triggered::Finished(moved)
}

#[test]
fn a_crash_at_every_page_file_op_of_a_commit_triggered_checkpoint_keeps_the_commit() {
    let dir = tmpdir("triggered");
    let seed = 0x7216_6E12;
    let Triggered::Finished(moved) = run_triggered(&dir, seed, None) else {
        panic!("no crash was asked for");
    };
    assert_eq!(moved.len(), WINDOWS);
    assert!(
        moved.contains(&true) && moved.contains(&false),
        "the script must reach checkpoints with and without a page allocated or freed: {moved:?}"
    );
    let (mut in_checkpoint, mut in_stage) = (0, 0);
    for checkpoint in 0..WINDOWS {
        let mut marker_written = false;
        for op in 0.. {
            let crash = CrashAt { checkpoint, op };
            match run_triggered(&dir, seed, Some(crash)) {
                Triggered::Outlived => break,
                Triggered::Finished(_) => panic!("checkpoint {checkpoint} never ran"),
                Triggered::Crashed(old, new, marker) => {
                    let what =
                        format!("commit-triggered checkpoint {checkpoint}, page-file op {op}");
                    if marker {
                        // The checkpoint itself: the commit is durable.
                        reopen_and_verify(&dir, &[&new], &what);
                        marker_written = true;
                        in_checkpoint += 1;
                    } else {
                        // A first-touch read while the commit was staged.
                        assert!(
                            !marker_written,
                            "{what}: a crash before the marker after one past it"
                        );
                        reopen_and_verify(&dir, &[&old], &what);
                        in_stage += 1;
                    }
                }
            }
        }
        assert!(
            marker_written,
            "checkpoint {checkpoint}: no crash after the marker"
        );
    }
    assert!(
        in_checkpoint > 4 * WINDOWS,
        "only {in_checkpoint} crash points in checkpoints ({in_stage} while staging)"
    );
    std::fs::remove_dir_all(&dir).ok();
}
