//! WAL recovery torture: sweep a crash across *every* operation boundary
//! of a scripted workload and a fault across *every* backing-store
//! operation of a checkpoint, asserting the reopened store always matches
//! a shadow model of the last committed state. The log records no frees:
//! a reopened store is handed the shadow's committed live set through
//! [`BufferPool::free_unreachable`], as a database hands it its roots.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use pagestore::{BufferPool, Fault, FaultStore, MemStore, PageId, PageStore, WalStore};

const PS: usize = 128;

/// Free every page of `store` that `live` does not name.
fn keep_only<S: PageStore>(store: S, live: impl Iterator<Item = u32>) -> S {
    let pool = BufferPool::new(store, 8);
    pool.free_unreachable(&live.map(PageId).collect()).unwrap();
    pool.into_store()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fault_torture_{}_{}", std::process::id(), name));
    p
}

/// Workload script. `Alloc` binds the next slot number; `Write`/`Free`
/// name slots, so the script is independent of the page ids the store
/// hands out at runtime.
#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc,
    Write(usize, u8),
    Free(usize),
    Commit,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic mix of allocations, overwrites, frees and commits.
fn script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = seed;
    let mut ops = Vec::with_capacity(len);
    let mut alive: Vec<usize> = Vec::new();
    let mut next_slot = 0;
    for _ in 0..len {
        let r = splitmix(&mut rng) % 10;
        let op = if alive.is_empty() || r < 3 {
            alive.push(next_slot);
            next_slot += 1;
            Op::Alloc
        } else if r < 7 {
            let s = alive[(splitmix(&mut rng) % alive.len() as u64) as usize];
            Op::Write(s, (splitmix(&mut rng) % 251) as u8 + 1)
        } else if r < 8 {
            let i = (splitmix(&mut rng) % alive.len() as u64) as usize;
            Op::Free(alive.swap_remove(i))
        } else {
            Op::Commit
        };
        ops.push(op);
    }
    ops.push(Op::Commit);
    ops
}

/// State at the last commit: live page contents and committed frees.
#[derive(Default, Clone)]
struct Shadow {
    pages: HashMap<u32, Vec<u8>>,
    freed: HashSet<u32>,
}

/// Crash the WAL'd store at every op boundary of the script; after each
/// crash, reopen from the log and check the shadow of the last commit.
/// Odd boundaries additionally get a torn garbage tail appended to the
/// log, which replay must ignore.
#[test]
fn crash_at_every_op_boundary_recovers_last_commit() {
    let ops = script(0xC0FF_EE00, 70);
    for crash_at in 0..=ops.len() {
        let path = tmp(&format!("crash{crash_at}"));
        let _ = std::fs::remove_file(&path);
        let mut wal = WalStore::create(MemStore::new(PS), &path).unwrap();
        let mut slots: HashMap<usize, u32> = HashMap::new();
        let mut next_slot = 0;
        let mut pending = Shadow::default();
        let mut committed = Shadow::default();
        for op in &ops[..crash_at] {
            match *op {
                Op::Alloc => {
                    let id = wal.allocate().unwrap();
                    slots.insert(next_slot, id.0);
                    next_slot += 1;
                    pending.pages.insert(id.0, vec![0u8; PS]);
                    pending.freed.remove(&id.0);
                }
                Op::Write(s, b) => {
                    let id = slots[&s];
                    let buf = vec![b; PS];
                    wal.write(pagestore::PageId(id), &buf).unwrap();
                    pending.pages.insert(id, buf);
                }
                Op::Free(s) => {
                    let id = slots[&s];
                    wal.free(pagestore::PageId(id)).unwrap();
                    pending.pages.remove(&id);
                    pending.freed.insert(id);
                }
                Op::Commit => {
                    wal.commit().unwrap();
                    committed = pending.clone();
                }
            }
        }
        // Crash: drop the overlay without committing or checkpointing.
        let inner = wal.into_inner();
        if crash_at % 2 == 1 {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xDB, 0x01, 0xFF, 0x3C, 0x77]).unwrap();
        }
        let recovered = WalStore::open(inner, &path)
            .unwrap_or_else(|e| panic!("reopen after crash at op {crash_at} failed: {e}"));
        let mut recovered = keep_only(recovered, committed.pages.keys().copied());
        let mut buf = vec![0u8; PS];
        for (&id, want) in &committed.pages {
            recovered
                .read(pagestore::PageId(id), &mut buf)
                .unwrap_or_else(|e| {
                    panic!("crash at op {crash_at}: committed page {id} unreadable: {e}")
                });
            assert_eq!(
                &buf, want,
                "crash at op {crash_at}: committed page {id} content lost"
            );
        }
        for &id in &committed.freed {
            assert!(
                recovered.read(pagestore::PageId(id), &mut buf).is_err(),
                "crash at op {crash_at}: committed free of page {id} forgotten"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Run a fixed committed workload, then inject one fault at backing-store
/// operation `k` of the checkpoint, for every `k` until the checkpoint
/// outruns the schedule. A failed checkpoint must leave the store fully
/// recoverable — by retrying after repair (even `k`) or by crashing and
/// replaying the still-intact log (odd `k`).
fn checkpoint_fault_sweep(fault: Fault, tag: &str) {
    let mut completed_clean = false;
    for k in 0..200u64 {
        let path = tmp(&format!("ckpt_{tag}_{k}"));
        let _ = std::fs::remove_file(&path);
        let mut wal = WalStore::create(FaultStore::new(MemStore::new(PS)), &path).unwrap();
        let mut expected: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut ids = Vec::new();
        for i in 0..6u8 {
            let id = wal.allocate().unwrap();
            let buf = vec![i + 10; PS];
            wal.write(id, &buf).unwrap();
            expected.insert(id.0, buf);
            ids.push(id);
        }
        wal.free(ids[2]).unwrap();
        let freed = ids[2];
        expected.remove(&freed.0);
        wal.commit().unwrap();

        let base = wal.inner().handle().ops();
        wal.inner().handle().inject(base + k, fault);
        match wal.checkpoint() {
            Ok(()) => {
                // Every checkpoint operation (write, free, sync) propagates
                // injected faults, so success means the checkpoint finished
                // before reaching op base+k: the sweep has covered every
                // injection point.
                assert_eq!(
                    wal.inner().handle().pending_faults(),
                    1,
                    "{tag}/{k}: fault swallowed"
                );
                completed_clean = true;
                wal.inner().handle().clear_faults();
                verify(&mut wal, &expected, freed, tag, k);
                assert_eq!(
                    std::fs::metadata(&path).unwrap().len(),
                    0,
                    "{tag}/{k}: clean checkpoint must truncate the log"
                );
            }
            Err(_) => {
                if k % 2 == 0 {
                    // Repair the disk and retry: re-applying the overlay is
                    // idempotent, so the second checkpoint must succeed.
                    wal.inner().handle().clear_faults();
                    wal.checkpoint()
                        .unwrap_or_else(|e| panic!("{tag}/{k}: retry after repair failed: {e}"));
                    verify(&mut wal, &expected, freed, tag, k);
                } else {
                    // Crash instead: unwrap down to the bare memory store
                    // (losing the overlay) and replay the log.
                    let mem = wal.into_inner().into_inner();
                    let rec = WalStore::open(mem, &path)
                        .unwrap_or_else(|e| panic!("{tag}/{k}: reopen failed: {e}"));
                    let mut rec = keep_only(rec, expected.keys().copied());
                    verify(&mut rec, &expected, freed, tag, k);
                }
            }
        }
        std::fs::remove_file(&path).ok();
        if completed_clean {
            return;
        }
    }
    panic!("{tag}: checkpoint never completed within 200 injected ops");
}

fn verify<S: PageStore>(
    store: &mut S,
    expected: &HashMap<u32, Vec<u8>>,
    freed: pagestore::PageId,
    tag: &str,
    k: u64,
) {
    let mut buf = vec![0u8; PS];
    for (&id, want) in expected {
        store
            .read(pagestore::PageId(id), &mut buf)
            .unwrap_or_else(|e| panic!("{tag}/{k}: page {id} unreadable after recovery: {e}"));
        assert_eq!(
            &buf, want,
            "{tag}/{k}: page {id} content wrong after recovery"
        );
    }
    assert!(
        store.read(freed, &mut buf).is_err(),
        "{tag}/{k}: freed page {freed:?} came back to life"
    );
}

#[test]
fn checkpoint_survives_io_error_at_every_op() {
    checkpoint_fault_sweep(Fault::IoError, "ioerr");
}

#[test]
fn checkpoint_survives_torn_write_at_every_op() {
    checkpoint_fault_sweep(Fault::TornWrite { bytes: 33 }, "torn");
}
