//! Tree-level recovery torture: crash a WAL-backed tree at every commit
//! boundary and prove the recovered tree is structurally verifiable and
//! content-identical to the last committed state; and prove that silent
//! page damage under a checksummed store surfaces through `verify()` as a
//! typed corruption error instead of a malformed-tree panic or a wrong
//! answer.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

use btree::{BTree, BTreeConfig, Error, Node};
use pagestore::{BufferPool, ChecksumStore, MemStore, PageStore, WalStore, TRAILER_LEN};

const PS: usize = 256;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("btree_fault_{}_{}", std::process::id(), name));
    p
}

fn key(i: usize) -> Vec<u8> {
    format!("key-{i:06}").into_bytes()
}

/// Crash the tree after each commit boundary in turn — with an extra
/// flushed-but-uncommitted tail of mutations in flight — replay the WAL,
/// reattach at the committed root, and check `verify()` plus exact content
/// equality against a shadow map of the last commit.
#[test]
fn crash_at_every_commit_boundary_recovers_verifiable_tree() {
    const BATCHES: usize = 6;
    const PER_BATCH: usize = 120;
    for crash_after in 0..BATCHES {
        let path = tmp(&format!("crash{crash_after}"));
        let _ = std::fs::remove_file(&path);
        let store = WalStore::create(MemStore::new(PS), &path).unwrap();
        let pool = BufferPool::new(store, 1 << 12);
        let mut tree = BTree::create(pool, BTreeConfig::default()).unwrap();
        let mut shadow: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut committed = (tree.root(), tree.len(), shadow.clone());
        for b in 0..=crash_after {
            for j in 0..PER_BATCH {
                let i = b * PER_BATCH + j;
                if i >= 3 && i.is_multiple_of(5) {
                    let victim = key(i - 3);
                    tree.delete(&victim).unwrap();
                    shadow.remove(&victim);
                }
                let k = key(i);
                tree.insert(&k, &(i as u32).to_le_bytes()).unwrap();
                shadow.insert(k, (i as u32).to_le_bytes().to_vec());
            }
            tree.pool().flush_to_store_only().unwrap();
            tree.pool().store_lock().commit().unwrap();
            committed = (tree.root(), tree.len(), shadow.clone());
        }
        // Uncommitted tail: reaches the log but must not survive the crash.
        for j in 0..40 {
            let i = (crash_after + 1) * PER_BATCH + j;
            tree.insert(&key(i), b"uncommitted").unwrap();
        }
        tree.pool().flush_to_store_only().unwrap();

        // Crash: lose the WAL overlay, replay the log into the bare store.
        let inner = tree.into_pool().into_store().into_inner();
        let recovered = WalStore::open(inner, &path)
            .unwrap_or_else(|e| panic!("crash {crash_after}: replay failed: {e}"));
        let (root, len, want) = committed;
        let pool = BufferPool::new(recovered, 1 << 12);
        let tree = BTree::open(pool, BTreeConfig::default(), root, len);
        tree.verify()
            .unwrap_or_else(|e| panic!("crash {crash_after}: recovered tree unverifiable: {e}"));
        assert_eq!(tree.len(), len, "crash {crash_after}: committed len lost");
        let got = tree.view().scan_all().unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> = want.into_iter().collect();
        assert_eq!(
            got, want,
            "crash {crash_after}: recovered content diverges from last commit"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Damage one raw page below a checksummed store: `verify()` must fail
/// with a typed corruption error naming the page — never a wrong answer,
/// never a decode panic.
#[test]
fn verify_surfaces_checksum_corruption() {
    let store = ChecksumStore::new(MemStore::new(PS + TRAILER_LEN));
    let pool = BufferPool::new(store, 64);
    let mut tree = BTree::create(pool, BTreeConfig::default()).unwrap();
    for i in 0..800usize {
        tree.insert(&key(i), &(i as u32).to_le_bytes()).unwrap();
    }
    tree.verify().unwrap();
    let (root, len) = (tree.root(), tree.len());
    tree.pool().flush().unwrap();

    let mut store = tree.into_pool().into_store();
    let ids = store.live_page_ids();
    let victim = ids[ids.len() / 2];
    let mut full = vec![0u8; store.inner().page_size()];
    store.inner_mut().read(victim, &mut full).unwrap();
    full[7] ^= 0x20;
    store.inner_mut().write(victim, &full).unwrap();

    let pool = BufferPool::new(store, 64);
    let tree = BTree::open(pool, BTreeConfig::default(), root, len);
    let err = tree
        .verify()
        .expect_err("damaged page must fail verification");
    assert!(
        err.is_corruption(),
        "expected a corruption error, got: {err}"
    );
    assert!(
        err.to_string().contains(&victim.to_string()),
        "error must name the damaged page: {err}"
    );
}

/// A leaf whose `next` pointer leads back to the first leaf still decodes,
/// so only the chain itself is wrong. `verify` must refuse the tree with a
/// typed corruption error, and in bounded time: a check that follows the
/// chain never returns, and `DiskDatabase::open` verifies every index.
#[test]
fn verify_refuses_a_cyclic_leaf_chain() {
    let pool = BufferPool::new(MemStore::new(PS), 64);
    let items = (0..40).map(|i| (key(i), Vec::new()));
    let tree = BTree::bulk_load(pool, BTreeConfig::with_max_entries(4), items).unwrap();
    let view = tree.view();
    let mut cur = view.seek_first().unwrap();
    let mut leaves = Vec::new();
    while view.cursor_peek(&mut cur).unwrap().is_some() {
        if leaves.last() != Some(&cur.leaf_page()) {
            leaves.push(cur.leaf_page());
        }
        cur.advance();
    }
    assert_eq!(leaves.len(), 10);

    let last = tree.pool().fetch(leaves[9]).unwrap();
    let Node::Leaf(mut leaf) = Node::decode(&last.read()).unwrap() else {
        panic!("the cursor's page is not a leaf");
    };
    leaf.next = leaves[0];
    Node::Leaf(leaf).encode(&mut last.write(), true).unwrap();
    drop(last);

    let (done, verdict) = mpsc::channel();
    std::thread::spawn(move || done.send(tree.verify().map(|_| ())));
    let verdict = verdict
        .recv_timeout(Duration::from_secs(60))
        .expect("verify did not return on a cyclic leaf chain");
    assert!(
        matches!(verdict, Err(Error::Corrupt(_))),
        "expected a corruption error, got: {verdict:?}"
    );
}
