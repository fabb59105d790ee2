//! Regression tests for the frame-embedded decode cache.
//!
//! Decoded nodes live on the buffer-pool frames themselves
//! (`PageReadGuard::get_or_decode`), so the decode cache's capacity *is* the
//! pool's capacity: a node stays decoded exactly as long as its page is
//! resident, and rewriting the page bytes invalidates the cached decode
//! atomically. Readers walk leaves in place and the write path does not
//! cache the leaves it decodes, so the cache holds interior nodes only.
//! These tests pin those properties plus eviction correctness under a pool
//! far smaller than the tree.

use btree::{BTree, BTreeConfig, Capacity};
use pagestore::{BufferPool, MemStore, PageId};

fn build_tree(n: u32, pool_pages: usize) -> BTree<MemStore> {
    let pool = BufferPool::new(MemStore::new(1024), pool_pages);
    let config = BTreeConfig {
        capacity: Capacity::Entries(4),
        ..BTreeConfig::default()
    };
    BTree::bulk_load(
        pool,
        config,
        (0..n).map(|i| (format!("{i:06}").into_bytes(), Vec::new())),
    )
    .unwrap()
}

#[test]
fn root_keeps_its_decode_through_leaf_churn() {
    let tree = build_tree(400, 4096); // ~100 leaves, pool holds everything
    let root = tree.root();

    // Seek-heavy scan touching every third leaf: each descent re-references
    // the root, so its frame must stay resident and keep its decode while
    // leaves stream through.
    for i in (0..400u32).step_by(12) {
        let key = format!("{i:06}").into_bytes();
        let mut cur = tree.seek(&key).unwrap();
        let (k, _) = tree.cursor_entry(&mut cur).unwrap().unwrap();
        assert_eq!(k, key);
        let frame = tree
            .pool()
            .peek(root)
            .expect("root frame evicted during seek scan");
        assert!(
            frame.has_decoded(),
            "root lost its cached decode after seeking to {i}"
        );
    }
}

#[test]
fn eviction_keeps_lookups_correct() {
    // A pool much smaller than the tree forces constant eviction and
    // re-decoding; results must be unaffected.
    let tree = build_tree(300, 16);
    for i in (0..300u32).rev() {
        let key = format!("{i:06}").into_bytes();
        assert_eq!(tree.get(&key).unwrap(), Some(Vec::new()), "key {i}");
    }
    assert_eq!(tree.scan_all().unwrap().len(), 300);
}

/// Every leaf, in key order, as a forward pass over the tree sees them.
fn leaves(tree: &BTree<MemStore>) -> Vec<PageId> {
    let view = tree.view();
    let mut cur = view.seek_first().unwrap();
    let mut leaves: Vec<PageId> = Vec::new();
    while view.cursor_peek(&mut cur).unwrap().is_some() {
        if leaves.last() != Some(&cur.leaf_page()) {
            leaves.push(cur.leaf_page());
        }
        cur.advance();
    }
    leaves
}

#[test]
fn no_leaf_frame_holds_a_decode() {
    let mut tree = build_tree(400, 4096);
    let leaf_ids = leaves(&tree);
    assert!(leaf_ids.len() >= 100, "4 entries to a leaf");
    let keys: Vec<Vec<u8>> = (0..400u32)
        .map(|i| format!("{i:06}").into_bytes())
        .collect();
    // Each access path starts from a pool that holds no frame at all: a
    // forward scan, the parallel algorithm's skip-seeks, point lookups, and
    // the write path, which decodes the leaves it changes but caches none.
    for what in ["forward", "parallel", "get", "write"] {
        tree.pool().flush().unwrap();
        tree.pool().invalidate_cache().unwrap();
        match what {
            "forward" => assert_eq!(tree.scan_all().unwrap().len(), 400),
            "parallel" => {
                let view = tree.view();
                let mut cur = view.seek_first().unwrap();
                for key in keys.iter().step_by(3) {
                    view.reseek(&mut cur, key).unwrap();
                    let (k, _) = view.cursor_peek(&mut cur).unwrap().unwrap();
                    assert_eq!(k, &key[..]);
                }
            }
            "get" => {
                for key in keys.iter().step_by(7) {
                    assert_eq!(tree.get(key).unwrap(), Some(Vec::new()));
                }
            }
            _ => {
                for key in keys.iter().step_by(11) {
                    assert_eq!(tree.insert(key, b"v").unwrap(), Some(Vec::new()));
                    assert_eq!(tree.delete(&[&key[..], b"x"].concat()).unwrap(), None);
                }
            }
        }
        assert!(
            tree.pool().peek(tree.root()).unwrap().has_decoded(),
            "{what}: the root routes by its decoded separators"
        );
        let resident: Vec<PageId> = leaf_ids
            .iter()
            .copied()
            .filter(|&id| tree.pool().peek(id).is_some())
            .collect();
        assert!(!resident.is_empty(), "{what}: premise: leaves were read");
        for id in resident {
            assert!(
                !tree.pool().peek(id).unwrap().has_decoded(),
                "{what} left a decode on leaf {id}"
            );
        }
    }
}

#[test]
fn page_write_invalidates_cached_decode() {
    let mut tree = build_tree(100, 4096);
    // A descent decodes the interiors it routes through: warm the parent
    // of the leaf holding key 000000.
    let cur = tree.seek(b"000000").unwrap();
    let parent = *cur.path_pages().last().expect("a tree of many leaves");
    drop(cur);
    let decoded = |tree: &BTree<MemStore>| tree.pool().peek(parent).unwrap().has_decoded();
    assert!(decoded(&tree));

    // Four entries to a leaf: within four inserts beside key 000000 its
    // leaf splits and the parent takes a separator. That rewrite must clear
    // the frame's decode slot so no reader can ever observe a stale node
    // (an insert that rewrites only the leaf leaves the parent decoded).
    let mut inserted = Vec::new();
    while decoded(&tree) && inserted.len() < 4 {
        let key = format!("000000.{}", inserted.len()).into_bytes();
        tree.insert(&key, b"new").unwrap();
        inserted.push(key);
    }
    assert!(!decoded(&tree), "stale decode survived a page rewrite");
    for key in &inserted {
        assert_eq!(tree.get(key).unwrap(), Some(b"new".to_vec()));
    }
    assert!(decoded(&tree), "reading decodes the new bytes");
}

#[test]
fn invalidate_cache_drops_decodes_with_frames() {
    let tree = build_tree(200, 4096);
    assert_eq!(tree.scan_all().unwrap().len(), 200);
    let root = tree.root();
    assert!(tree.pool().peek(root).unwrap().has_decoded());
    tree.pool().flush().unwrap();
    tree.pool().invalidate_cache().unwrap();
    assert!(
        tree.pool().peek(root).is_none(),
        "invalidate_cache left the root frame resident"
    );
    // Everything still reads back correctly from the store.
    for i in [0u32, 57, 123, 199] {
        let key = format!("{i:06}").into_bytes();
        assert_eq!(tree.get(&key).unwrap(), Some(Vec::new()));
    }
}
