//! File-backed durability: build a tree on a FileStore, flush, reopen the
//! file, and read everything back.

use btree::{BTree, BTreeConfig};
use pagestore::{BufferPool, FileStore};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("btree_persist_{}_{}", std::process::id(), name));
    p
}

#[test]
fn build_flush_reopen() {
    let path = tmp("roundtrip");
    let (root, len) = {
        let store = FileStore::create(&path, 512).unwrap();
        let pool = BufferPool::new(store, 256);
        let mut tree = BTree::create(pool, BTreeConfig::default()).unwrap();
        for i in 0..3000u32 {
            tree.insert(format!("key-{i:06}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        tree.verify().unwrap();
        tree.pool().flush().unwrap();
        (tree.root(), tree.len())
    };
    {
        let store = FileStore::open(&path).unwrap();
        let pool = BufferPool::new(store, 256);
        let tree = BTree::open(pool, BTreeConfig::default(), root, len);
        assert_eq!(tree.len(), 3000);
        tree.verify().unwrap();
        for i in (0..3000u32).step_by(97) {
            assert_eq!(
                tree.view().get(format!("key-{i:06}").as_bytes()).unwrap(),
                Some(i.to_le_bytes().to_vec()),
                "key {i}"
            );
        }
        // Range scans traverse the leaf chain from disk.
        let r = tree.view().range(b"key-001000", b"key-001100").unwrap();
        assert_eq!(r.len(), 100);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mutations_after_reopen() {
    let path = tmp("mutate");
    let (root, len) = {
        let store = FileStore::create(&path, 512).unwrap();
        let pool = BufferPool::new(store, 64);
        let mut tree = BTree::create(pool, BTreeConfig::default()).unwrap();
        for i in 0..500u32 {
            tree.insert(format!("k{i:05}").as_bytes(), b"v").unwrap();
        }
        tree.pool().flush().unwrap();
        (tree.root(), tree.len())
    };
    let store = FileStore::open(&path).unwrap();
    let pool = BufferPool::new(store, 64);
    let mut tree = BTree::open(pool, BTreeConfig::default(), root, len);
    for i in 0..250u32 {
        assert!(tree
            .delete(format!("k{i:05}").as_bytes())
            .unwrap()
            .is_some());
    }
    for i in 500..700u32 {
        tree.insert(format!("k{i:05}").as_bytes(), b"w").unwrap();
    }
    tree.verify().unwrap();
    assert_eq!(tree.len(), 450);
    tree.pool().flush().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn small_buffer_pool_evicts_and_reloads() {
    // A pool far smaller than the tree forces constant eviction; the tree
    // must stay correct when most nodes live only on disk.
    let path = tmp("evict");
    let writebacks = || telemetry::counter_value("pagestore.pool.writebacks");
    let writebacks0 = writebacks();
    let store = FileStore::create(&path, 512).unwrap();
    let pool = BufferPool::new(store, 8);
    let mut tree = BTree::create(pool, BTreeConfig::default()).unwrap();
    for i in 0..2000u32 {
        tree.insert(format!("k{i:06}").as_bytes(), &i.to_be_bytes())
            .unwrap();
    }
    // NOTE: verify() walks everything through the tiny pool.
    let stats = tree.verify().unwrap();
    assert!(stats.leaf_nodes > 8, "tree larger than the pool");
    for i in (0..2000u32).step_by(61) {
        assert_eq!(
            tree.view().get(format!("k{i:06}").as_bytes()).unwrap(),
            Some(i.to_be_bytes().to_vec())
        );
    }
    assert!(writebacks() > writebacks0, "evictions must write back");
    std::fs::remove_file(&path).ok();
}
