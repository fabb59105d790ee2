//! The correctness harness, wired into the tier-1 suite:
//!
//! 1. Differential oracle — 50 seeded random schema/database/query trials
//!    asserting parallel scan ≡ forward scan ≡ brute-force oracle and that
//!    the parallel scan never reads more pages (see `uindex::oracle`).
//! 2. WAL recovery torture at the B-tree level — crash the store at every
//!    commit boundary of a random workload and assert the reopened tree
//!    passes `verify()` and matches a shadow `BTreeMap` of the last commit.
//! 3. Fault propagation — injected read errors surface as `Err` from tree
//!    lookups, never as panics, and clear once the fault is gone.

use std::collections::BTreeMap;
use std::path::PathBuf;

use btree::{BTree, BTreeConfig};
use pagestore::{BufferPool, Fault, FaultStore, MemStore, WalStore};

#[test]
fn differential_oracle_50_trials() {
    let sum = uindex::oracle::run_trials(0xFEED_FACE_CAFE, 50);
    assert_eq!(sum.trials, 50);
    assert!(sum.queries >= 200, "too few queries: {sum:?}");
    assert!(sum.hits > 0, "no query ever matched: {sum:?}");
    assert!(
        sum.distinct_checks > 0,
        "distinct path never exercised: {sum:?}"
    );
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("harness_{}_{}", std::process::id(), name));
    p
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn key(n: u64) -> Vec<u8> {
    format!("key{:05}", n % 400).into_bytes()
}

/// Insert/delete workload with a commit every three operations; crash at
/// every commit boundary and recover the tree from the WAL.
#[test]
fn btree_over_wal_crashes_at_every_commit_boundary() {
    const OPS: usize = 90;
    const COMMIT_EVERY: usize = 3;
    let boundaries = OPS / COMMIT_EVERY;
    for crash_after in 0..=boundaries {
        let path = tmp(&format!("btwal{crash_after}"));
        let _ = std::fs::remove_file(&path);
        let wal = WalStore::create(MemStore::new(256), &path).unwrap();
        let pool = BufferPool::new(wal, 1 << 12);
        let mut tree = BTree::create(pool, BTreeConfig::default()).unwrap();
        let mut rng = 0x7EA5_EED0u64;
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        // State captured at the most recent commit.
        let mut committed = (model.clone(), tree.root(), tree.len());
        // The creation wrote the empty root page; make it durable so the
        // "crash before any commit" case has a tree to reopen.
        tree.pool().flush_to_store_only().unwrap();
        tree.pool().store_lock().commit().unwrap();
        let mut commits_done = 0;
        'outer: for op in 0..OPS {
            let k = key(splitmix(&mut rng));
            if splitmix(&mut rng).is_multiple_of(4) {
                tree.delete(&k).unwrap();
                model.remove(&k);
            } else {
                let v = splitmix(&mut rng).to_le_bytes().to_vec();
                tree.insert(&k, &v).unwrap();
                model.insert(k, v);
            }
            if (op + 1) % COMMIT_EVERY == 0 {
                tree.pool().flush_to_store_only().unwrap();
                tree.pool().store_lock().commit().unwrap();
                committed = (model.clone(), tree.root(), tree.len());
                commits_done += 1;
                if commits_done == crash_after {
                    break 'outer;
                }
            }
        }
        // Crash: drop dirty frames and the WAL overlay without committing.
        let inner = tree.into_pool().into_store().into_inner();
        let recovered = WalStore::open(inner, &path)
            .unwrap_or_else(|e| panic!("reopen after {crash_after} commits failed: {e}"));
        let (model_c, root_c, len_c) = committed;
        let tree = BTree::open(
            BufferPool::new(recovered, 1 << 12),
            BTreeConfig::default(),
            root_c,
            len_c,
        );
        let stats = tree
            .verify()
            .unwrap_or_else(|e| panic!("verify failed after {crash_after} commits: {e}"));
        assert_eq!(
            stats.entries as usize,
            model_c.len(),
            "entry count diverges after {crash_after} commits"
        );
        let got: Vec<(Vec<u8>, Vec<u8>)> = tree.view().scan_all().unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> = model_c
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(
            got, want,
            "recovered tree diverges from shadow model after {crash_after} commits"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Read faults surface as `Err`, not panics, and reads succeed again once
/// the fault schedule is exhausted.
#[test]
fn read_faults_propagate_as_errors() {
    let pool = BufferPool::new(FaultStore::new(MemStore::new(256)), 4);
    let mut tree = BTree::create(pool, BTreeConfig::default()).unwrap();
    for i in 0..200u32 {
        let k = i.to_be_bytes();
        tree.insert(&k, &k).unwrap();
    }
    // A tiny pool guarantees lookups must read from the store; fault the
    // next several reads.
    let base = tree.pool().store_lock().handle().ops();
    for j in 0..8 {
        tree.pool()
            .store_lock()
            .handle()
            .inject(base + j, Fault::IoError);
    }
    let mut saw_error = false;
    for i in 0..200u32 {
        let k = i.to_be_bytes();
        match tree.view().get(&k) {
            Ok(Some(v)) => assert_eq!(v, k),
            Ok(None) => panic!("inserted key {i} vanished"),
            Err(_) => saw_error = true,
        }
    }
    assert!(saw_error, "faulted reads must surface as errors");
    assert_eq!(tree.pool().store_lock().handle().pending_faults(), 0);
    // With the schedule drained, every key is readable again.
    for i in 0..200u32 {
        let k = i.to_be_bytes();
        assert_eq!(tree.view().get(&k).unwrap().as_deref(), Some(k.as_slice()));
    }
    tree.verify().unwrap();
}
