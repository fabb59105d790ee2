//! Multi-threaded oracle torture: K scanner threads race one mutator
//! through the full `Database` stack (and the disk tier, with commits and
//! inline checkpoints every second commit thrown in). Every scan runs against an epoch
//! snapshot and must equal the brute-force oracle's answer for exactly
//! that epoch — no torn reads, no lost entries, no cross-epoch bleed.
//!
//! Protocol: the mutator records the oracle's answers for the query set
//! keyed by the tree epoch right after each mutation publishes; scanners
//! pin a snapshot, wait for its epoch's answers to appear (the map insert
//! can lag the publish by a few instructions), and compare.
//!
//! Reader clones on 1, 2, 4 and 8 threads, on both tiers, return per-query
//! hits and stats identical to one thread's.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use objstore::{Oid, Value};
use schema::{AttrType, Schema};
use uindex::{
    Database, DatabaseReader, DiskDatabase, DiskOptions, IndexSpec, Query, QueryHit, ScanStats,
    ValuePred,
};

const COLORS: [&str; 5] = ["Red", "Blue", "Green", "Black", "White"];

fn vehicle_schema() -> Schema {
    let mut s = Schema::new();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    s
}

fn color_queries(db: &Database<impl pagestore::PageStore>) -> Vec<Query> {
    let idx = db.planner().index_by_name("color").unwrap();
    COLORS
        .iter()
        .map(|c| Query::on(idx).value(ValuePred::eq(Value::Str((*c).into()))))
        .collect()
}

fn oracle_answers<P: pagestore::PageStore>(
    db: &Database<P>,
    queries: &[Query],
) -> Vec<Vec<QueryHit>> {
    queries
        .iter()
        .map(|q| uindex::oracle::eval(db.planner(), db.store(), q).unwrap())
        .collect()
}

struct ExpectedMap {
    by_epoch: Mutex<BTreeMap<u64, Vec<Vec<QueryHit>>>>,
    done: AtomicBool,
}

/// One scanner thread body: snapshot, wait for that epoch's oracle
/// answers, compare every query, repeat until the mutator finishes.
fn scan_loop<P: pagestore::PageStore + Send + Sync>(
    reader: &DatabaseReader<P>,
    queries: &[Query],
    expected: &ExpectedMap,
) -> u64 {
    let mut scans = 0u64;
    loop {
        let finished = expected.done.load(Ordering::Acquire);
        let snap = reader.snapshot();
        let want = loop {
            if let Some(w) = expected.by_epoch.lock().unwrap().get(&snap.epoch()) {
                break w.clone();
            }
            // The publish happened; the map insert is a few instructions
            // behind. (Never reached after `done`: the mutator sets it
            // only after its last epoch is recorded.)
            std::thread::yield_now();
        };
        for (q, want) in queries.iter().zip(&want) {
            let (hits, _) = reader.query_at(&snap, q).unwrap();
            assert_eq!(
                hits,
                *want,
                "scan diverged from the oracle at epoch {}",
                snap.epoch()
            );
        }
        scans += 1;
        if finished {
            return scans;
        }
    }
}

/// Deterministic mutator step: create, recolor, or delete.
fn mutate<P: pagestore::PageStore>(
    db: &mut Database<P>,
    live: &mut Vec<Oid>,
    vehicle: schema::ClassId,
    seed: &mut u64,
) {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let roll = *seed >> 33;
    if live.len() < 8 || roll.is_multiple_of(3) {
        let v = db.create_object(vehicle).unwrap();
        db.set_attr(v, "Color", Value::Str(COLORS[(roll % 5) as usize].into()))
            .unwrap();
        live.push(v);
    } else if roll % 3 == 1 {
        let v = live[(roll % live.len() as u64) as usize];
        db.set_attr(v, "Color", Value::Str(COLORS[(roll % 5) as usize].into()))
            .unwrap();
    } else {
        let v = live.swap_remove((roll % live.len() as u64) as usize);
        db.delete_object(v, true).unwrap();
    }
}

fn torture<P, C>(mut db: Database<P>, scanners: usize, rounds: usize, mut on_round: C)
where
    P: pagestore::PageStore + Send + Sync,
    C: FnMut(&mut Database<P>),
{
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    db.define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    let mut live = Vec::new();
    let mut seed = 0x5DEECE66Du64;
    for _ in 0..30 {
        mutate(&mut db, &mut live, vehicle, &mut seed);
    }
    let queries = color_queries(&db);
    let reader = db.reader();

    let expected = ExpectedMap {
        by_epoch: Mutex::new(BTreeMap::new()),
        done: AtomicBool::new(false),
    };
    expected
        .by_epoch
        .lock()
        .unwrap()
        .insert(db.index().tree().epoch(), oracle_answers(&db, &queries));

    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..scanners {
            let reader = reader.clone();
            let (queries, expected) = (&queries, &expected);
            workers.push(scope.spawn(move || scan_loop(&reader, queries, expected)));
        }

        for _ in 0..rounds {
            for _ in 0..5 {
                mutate(&mut db, &mut live, vehicle, &mut seed);
                // Each mutation published an epoch; record its answers
                // before the next mutation so scanners can always match.
                expected
                    .by_epoch
                    .lock()
                    .unwrap()
                    .insert(db.index().tree().epoch(), oracle_answers(&db, &queries));
            }
            on_round(&mut db);
        }
        expected.done.store(true, Ordering::Release);

        for w in workers {
            let scans = w.join().unwrap();
            assert!(scans > 0, "scanner exited without scanning");
        }
    });

    // Quiesced: everything reclaimable was reclaimed, the tree verifies,
    // and no page leaked.
    drop(reader);
    db.index_mut().tree_mut().publish().unwrap();
    let tracker = db.index().tree().tracker();
    assert_eq!(tracker.active_snapshots(), 0);
    assert_eq!(tracker.pending_frees(), 0);
    assert_eq!(tracker.version_count(), 0);
    let stats = db.index().verify().unwrap();
    assert_eq!(
        db.index().tree().pool().live_pages(),
        stats.total_nodes(),
        "page leak after quiescence"
    );
}

#[test]
fn send_sync_static_assertions() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    // The store stacks under both tiers.
    assert_send_sync::<uindex::DbStore>();
    assert_send_sync::<uindex::DiskStore>();
    // Whole databases can move across threads; readers can be shared.
    assert_send::<Database<uindex::DbStore>>();
    assert_send::<DiskDatabase>();
    assert_send_sync::<DatabaseReader<uindex::DbStore>>();
    assert_send_sync::<DatabaseReader<uindex::DiskStore>>();
    assert_send::<uindex::DbSnapshot>();
}

#[test]
fn scanners_race_mutator_memory_tier() {
    let db = Database::with_page_size(vehicle_schema(), 256, 4096).unwrap();
    torture(db, 4, 30, |_| {});
}

#[test]
fn scanners_race_mutator_disk_tier_with_commits() {
    let mut p = std::env::temp_dir();
    p.push(format!("uindex_torture_disk_{}", std::process::id()));
    let dir: PathBuf = p;
    std::fs::remove_dir_all(&dir).ok();
    let options = DiskOptions {
        page_size: 256,
        pool_pages: 1024,
        group_commit: 4,
        checkpoint_every: 2,
        ..DiskOptions::default()
    };
    let mut disk = DiskDatabase::create(vehicle_schema(), &dir, options).unwrap();
    // Commit every round, and so checkpoint every second round, while four
    // scanners stream over their snapshots.
    {
        let db_rounds = 15;
        let vehicle = disk.schema().class_by_name("Vehicle").unwrap();
        disk.define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
            .unwrap();
        let mut live = Vec::new();
        let mut seed = 0x2545F4914F6CDD1Du64;
        for _ in 0..30 {
            mutate(&mut disk, &mut live, vehicle, &mut seed);
        }
        disk.commit().unwrap();
        let queries = color_queries(&disk);
        let reader = disk.reader();
        let expected = ExpectedMap {
            by_epoch: Mutex::new(BTreeMap::new()),
            done: AtomicBool::new(false),
        };
        expected
            .by_epoch
            .lock()
            .unwrap()
            .insert(disk.index().tree().epoch(), oracle_answers(&disk, &queries));

        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for _ in 0..4 {
                let reader = reader.clone();
                let (queries, expected) = (&queries, &expected);
                workers.push(scope.spawn(move || scan_loop(&reader, queries, expected)));
            }
            for _ in 0..db_rounds {
                for _ in 0..5 {
                    mutate(&mut disk, &mut live, vehicle, &mut seed);
                    expected
                        .by_epoch
                        .lock()
                        .unwrap()
                        .insert(disk.index().tree().epoch(), oracle_answers(&disk, &queries));
                }
                disk.commit().unwrap();
            }
            expected.done.store(true, Ordering::Release);
            for w in workers {
                assert!(w.join().unwrap() > 0);
            }
        });

        drop(reader);
    }
    // Clean shutdown and reopen: the racing checkpoints must leave a
    // store that comes back verbatim.
    let n = disk.store().len();
    disk.close().unwrap();
    let (reopened, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(reopened.store().len(), n);
    std::fs::remove_dir_all(&dir).ok();
}

/// The thread-count fixture on either tier: 300 vehicles, and a skewed
/// stream — every color probe several times over plus a few wide ranges,
/// so the threads' shares of the stream cost different amounts.
fn colored_stream<P: pagestore::PageStore>(db: &mut Database<P>) -> Vec<Query> {
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    let idx = db
        .define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    for i in 0..300 {
        let v = db.create_object(vehicle).unwrap();
        db.set_attr(v, "Color", Value::Str(COLORS[i % 5].into()))
            .unwrap();
    }
    let mut base = color_queries(db);
    base.push(Query::on(idx).value(ValuePred::between(
        Value::Str("Blue".into()),
        Value::Str("Red".into()),
    )));
    (0..40).map(|i| base[i % base.len()].clone()).collect()
}

/// Run `stream` on `threads` clones of `reader`, one per scoped thread,
/// thread `t` taking every `threads`-th query from the `t`-th on; returns
/// each query's hits and `ScanStats` in stream order.
fn on_threads<P: pagestore::PageStore + Send + Sync>(
    reader: &DatabaseReader<P>,
    stream: &[Query],
    threads: usize,
) -> Vec<(Vec<QueryHit>, ScanStats)> {
    let mut out: Vec<Option<(Vec<QueryHit>, ScanStats)>> = vec![None; stream.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let reader = reader.clone();
                scope.spawn(move || {
                    let snap = reader.snapshot();
                    let mine = stream.iter().enumerate().skip(t).step_by(threads);
                    mine.map(|(i, q)| (i, reader.query_at(&snap, q).unwrap()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, result) in w.join().expect("query thread panicked") {
                out[i] = Some(result);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every query ran"))
        .collect()
}

/// Reader clones on 2/4/8 threads must reproduce the one-thread pass bit
/// for bit, per query: hits and `ScanStats`. Returns the hits.
fn thread_count_invariant<P: pagestore::PageStore + Send + Sync>(
    reader: &DatabaseReader<P>,
    stream: &[Query],
) -> Vec<Vec<QueryHit>> {
    let single = on_threads(reader, stream, 1);
    for threads in [2, 4, 8] {
        let multi = on_threads(reader, stream, threads);
        assert_eq!(single.len(), multi.len());
        for (i, (s, m)) in single.iter().zip(&multi).enumerate() {
            assert_eq!(s.0, m.0, "query {i}: hits differ at {threads} threads");
            assert_eq!(
                s.1, m.1,
                "query {i}: per-query stats differ at {threads} threads"
            );
        }
    }
    single.into_iter().map(|(hits, _)| hits).collect()
}

#[test]
fn reader_clones_on_1_2_4_8_threads_agree_on_both_tiers() {
    let mut mem = Database::with_page_size(vehicle_schema(), 256, 4096).unwrap();
    let stream = colored_stream(&mut mem);
    let mem_hits = thread_count_invariant(&mem.reader(), &stream);
    assert!(mem_hits.iter().all(|h| !h.is_empty()));

    // The same database on the durable tier, closed and reopened cold so
    // the threads race over real file reads.
    let dir = std::env::temp_dir().join(format!("uindex_torture_threads_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let options = DiskOptions {
        page_size: 256,
        pool_pages: 1024,
        ..DiskOptions::default()
    };
    let mut disk = DiskDatabase::create(vehicle_schema(), &dir, options).unwrap();
    let stream = colored_stream(&mut disk);
    disk.commit().unwrap();
    disk.close().unwrap();
    let (mut disk, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "{report:?}");
    let disk_hits = thread_count_invariant(&disk.reader(), &stream);
    assert_eq!(mem_hits, disk_hits, "hits differ between the store tiers");
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
}
