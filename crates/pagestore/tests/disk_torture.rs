//! Disk-stack recovery torture: sweep a crash across *every* operation
//! boundary of a scripted workload running on the full production stack
//! `WalStore<ChecksumStore<FaultStore<FileStore>>>` — real files, real
//! reopen — and assert the recovered store always matches a shadow model
//! of the last committed state, and that a checkpoint after recovery
//! leaves every on-disk page with a valid checksum trailer.
//!
//! This extends the `fault_torture` pattern from `MemStore` to the durable
//! tier: a "crash" here drops the whole stack (losing the WAL overlay and
//! the `FileStore`'s in-memory free list) and rebuilds it from nothing but
//! the files via [`pagestore::disk::open`]. Neither file records which
//! pages are free, so every reopen is handed the shadow's committed live
//! set through [`BufferPool::free_unreachable`], as a database hands it
//! the pages its roots reach.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};

use pagestore::disk::{self, DiskStack, WAL_FILE};
use pagestore::{BufferPool, PageId, PageStore};

/// Exposed page size: the checksum layer adds its 16-byte trailer below.
const PS: usize = 112;

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("disk_torture_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Workload script. `Alloc` binds the next slot number; `Write`/`Free`
/// name slots, so the script is independent of the page ids the store
/// hands out at runtime. `Checkpoint` flushes the overlay to the file and
/// truncates the log — the recovery path then has both durable file state
/// *and* post-checkpoint log batches to reconcile.
#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc,
    Write(usize, u8),
    Free(usize),
    Commit,
    Checkpoint,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic mix of allocations, overwrites, frees, commits and
/// (when `with_checkpoints`) checkpoints.
fn script(seed: u64, len: usize, with_checkpoints: bool) -> Vec<Op> {
    let mut rng = seed;
    let mut ops = Vec::with_capacity(len);
    let mut alive: Vec<usize> = Vec::new();
    let mut next_slot = 0;
    for _ in 0..len {
        let r = splitmix(&mut rng) % 12;
        let op = if alive.is_empty() || r < 4 {
            alive.push(next_slot);
            next_slot += 1;
            Op::Alloc
        } else if r < 8 {
            let s = alive[(splitmix(&mut rng) % alive.len() as u64) as usize];
            Op::Write(s, (splitmix(&mut rng) % 251) as u8 + 1)
        } else if r < 9 {
            let i = (splitmix(&mut rng) % alive.len() as u64) as usize;
            Op::Free(alive.swap_remove(i))
        } else if r < 11 || !with_checkpoints {
            Op::Commit
        } else {
            Op::Checkpoint
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

/// Reopen the stack in `dir` and free every page but `live`.
fn reopen(dir: &Path, live: &BTreeSet<u32>, what: &str) -> DiskStack {
    let stack = disk::open(dir).unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
    let pool = BufferPool::new(stack, 8);
    pool.free_unreachable(&live.iter().map(|&id| PageId(id)).collect())
        .unwrap();
    pool.into_store()
}

/// Run `ops[..crash_at]` against a fresh disk stack in `dir`, crash
/// (drop everything), reopen from the files, and assert the recovered
/// state matches the shadow of the last commit. Odd boundaries also get a
/// torn garbage tail appended to the WAL, which replay must ignore.
fn crash_and_check(dir: &Path, ops: &[Op], crash_at: usize) {
    let mut stack = disk::create(dir, PS).unwrap();
    stack.set_group_commit(3); // batched fsyncs: replay still sees the bytes
    let mut slots: HashMap<usize, u32> = HashMap::new();
    let mut next_slot = 0;
    let mut pending = Shadow::default();
    let mut committed = Shadow::default();
    for op in &ops[..crash_at] {
        match *op {
            Op::Alloc => {
                let id = stack.allocate().unwrap();
                slots.insert(next_slot, id.0);
                next_slot += 1;
                pending.pages.insert(id.0, vec![0u8; PS]);
                pending.freed.remove(&id.0);
            }
            Op::Write(s, b) => {
                let id = slots[&s];
                let buf = vec![b; PS];
                stack.write(PageId(id), &buf).unwrap();
                pending.pages.insert(id, buf);
            }
            Op::Free(s) => {
                let id = slots[&s];
                stack.free(PageId(id)).unwrap();
                pending.pages.remove(&id);
                pending.freed.insert(id);
            }
            Op::Commit => {
                stack.commit().unwrap();
                committed = pending.clone();
            }
            Op::Checkpoint => {
                stack.checkpoint().unwrap();
                committed = pending.clone();
            }
        }
    }
    // Crash: drop the stack — WAL overlay and FileStore free list are
    // gone; only the files remain.
    drop(stack);
    if crash_at % 2 == 1 {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(&[0xDB, 0x01, 0xFF, 0x3C, 0x77]).unwrap();
    }

    let want_live: BTreeSet<u32> = committed.pages.keys().copied().collect();
    let mut recovered = reopen(dir, &want_live, &format!("crash at op {crash_at}"));
    assert!(
        recovered.recovery().is_some(),
        "crash at op {crash_at}: open must produce a recovery report"
    );
    let mut buf = vec![0u8; PS];
    for (&id, want) in &committed.pages {
        recovered.read(PageId(id), &mut buf).unwrap_or_else(|e| {
            panic!("crash at op {crash_at}: committed page {id} unreadable: {e}")
        });
        assert_eq!(
            &buf, want,
            "crash at op {crash_at}: committed page {id} content lost"
        );
    }
    for &id in &committed.freed {
        assert!(
            recovered.read(PageId(id), &mut buf).is_err(),
            "crash at op {crash_at}: committed free of page {id} forgotten"
        );
    }
    let live: BTreeSet<u32> = recovered.live_page_ids().into_iter().map(|p| p.0).collect();
    assert_eq!(
        live, want_live,
        "crash at op {crash_at}: live page set diverged from shadow"
    );

    // Checkpoint the recovered state and scrub: every page that reached
    // the file must carry a valid trailer.
    recovered.checkpoint().unwrap();
    let report = disk::checksum_layer(&mut recovered).scrub();
    assert!(
        report.clean(),
        "crash at op {crash_at}: scrub found damage after recovery checkpoint: {report:?}"
    );
    drop(recovered);

    // Second-generation reopen: the checkpointed file alone (log is
    // truncated) must reproduce the same state.
    let mut second = reopen(
        dir,
        &want_live,
        &format!("second reopen after crash at op {crash_at}"),
    );
    assert_eq!(
        second.recovery().map(|r| r.replayed_batches),
        Some(0),
        "crash at op {crash_at}: checkpoint must leave nothing to replay"
    );
    for (&id, want) in &committed.pages {
        second.read(PageId(id), &mut buf).unwrap_or_else(|e| {
            panic!("crash at op {crash_at}: page {id} unreadable after checkpointed reopen: {e}")
        });
        assert_eq!(
            &buf, want,
            "crash at op {crash_at}: page {id} content lost across checkpointed reopen"
        );
    }
    let live2: BTreeSet<u32> = second.live_page_ids().into_iter().map(|p| p.0).collect();
    assert_eq!(
        live2, want_live,
        "crash at op {crash_at}: live set diverged from shadow after checkpointed reopen"
    );
}

/// Crash at every op boundary of a commit-only script (no mid-script
/// checkpoints): recovery leans entirely on WAL replay.
#[test]
fn crash_at_every_op_boundary_recovers_last_commit() {
    let ops = script(0xD15C_0001, 48, false);
    for crash_at in 0..=ops.len() {
        let dir = tmpdir(&format!("commit_only_{crash_at}"));
        crash_and_check(&dir, &ops, crash_at);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crash at every op boundary of a script with interleaved checkpoints:
/// recovery must reconcile durable file state with post-checkpoint log
/// batches.
#[test]
fn crash_at_every_op_boundary_with_checkpoints() {
    let ops = script(0xD15C_0002, 48, true);
    assert!(
        ops.iter().any(|o| matches!(o, Op::Checkpoint)),
        "script must exercise mid-run checkpoints"
    );
    for crash_at in 0..=ops.len() {
        let dir = tmpdir(&format!("with_ckpt_{crash_at}"));
        crash_and_check(&dir, &ops, crash_at);
        std::fs::remove_dir_all(&dir).ok();
    }
}
