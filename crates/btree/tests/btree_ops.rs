//! Functional tests for the B+-tree: inserts, deletes, cursors, splits,
//! merges, both capacity models, compression on/off.

use btree::{BTree, BTreeConfig};
use pagestore::{BufferPool, MemStore};

fn new_tree(page_size: usize, config: BTreeConfig) -> BTree<MemStore> {
    let pool = BufferPool::new(MemStore::new(page_size), 4096);
    BTree::create(pool, config).unwrap()
}

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:08}").into_bytes()
}

fn val(i: u32) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

#[test]
fn empty_tree_behaviour() {
    let mut t = new_tree(256, BTreeConfig::default());
    assert!(t.is_empty());
    assert_eq!(t.view().get(b"anything").unwrap(), None);
    assert_eq!(t.delete(b"anything").unwrap(), None);
    assert_eq!(t.view().scan_all().unwrap(), vec![]);
    let stats = t.verify().unwrap();
    assert_eq!(stats.height, 1);
    assert_eq!(stats.entries, 0);
}

#[test]
fn single_entry() {
    let mut t = new_tree(256, BTreeConfig::default());
    assert_eq!(t.insert(b"k", b"v").unwrap(), None);
    assert_eq!(t.view().get(b"k").unwrap(), Some(b"v".to_vec()));
    assert_eq!(t.len(), 1);
    assert_eq!(t.insert(b"k", b"w").unwrap(), Some(b"v".to_vec()));
    assert_eq!(t.len(), 1, "replace does not grow");
    assert_eq!(t.delete(b"k").unwrap(), Some(b"w".to_vec()));
    assert!(t.is_empty());
    t.verify().unwrap();
}

#[test]
fn sequential_inserts_and_lookups() {
    let mut t = new_tree(256, BTreeConfig::default());
    for i in 0..2000 {
        t.insert(&key(i), &val(i)).unwrap();
    }
    assert_eq!(t.len(), 2000);
    let stats = t.verify().unwrap();
    assert!(stats.height >= 3, "small pages force a deep tree");
    for i in (0..2000).step_by(37) {
        assert_eq!(t.view().get(&key(i)).unwrap(), Some(val(i)));
    }
    assert_eq!(t.view().get(b"key-99999999x").unwrap(), None);
}

#[test]
fn reverse_order_inserts() {
    let mut t = new_tree(256, BTreeConfig::default());
    for i in (0..1000).rev() {
        t.insert(&key(i), &val(i)).unwrap();
    }
    t.verify().unwrap();
    let all = t.view().scan_all().unwrap();
    assert_eq!(all.len(), 1000);
    for (i, (k, _)) in all.iter().enumerate() {
        assert_eq!(k, &key(i as u32));
    }
}

#[test]
fn interleaved_inserts() {
    let mut t = new_tree(256, BTreeConfig::default());
    // Insert evens then odds to force mid-node insertions everywhere.
    for i in (0..1000).step_by(2) {
        t.insert(&key(i), &val(i)).unwrap();
    }
    for i in (1..1000).step_by(2) {
        t.insert(&key(i), &val(i)).unwrap();
    }
    t.verify().unwrap();
    assert_eq!(t.len(), 1000);
}

#[test]
fn delete_everything_both_directions() {
    for forward in [true, false] {
        let mut t = new_tree(256, BTreeConfig::default());
        let n = 1200u32;
        for i in 0..n {
            t.insert(&key(i), &val(i)).unwrap();
        }
        let order: Vec<u32> = if forward {
            (0..n).collect()
        } else {
            (0..n).rev().collect()
        };
        for (step, i) in order.iter().enumerate() {
            assert_eq!(t.delete(&key(*i)).unwrap(), Some(val(*i)), "delete {i}");
            if step % 97 == 0 {
                t.verify().unwrap();
            }
        }
        assert!(t.is_empty());
        t.verify().unwrap();
    }
}

#[test]
fn delete_middle_out() {
    let mut t = new_tree(256, BTreeConfig::default());
    let n = 800u32;
    for i in 0..n {
        t.insert(&key(i), &val(i)).unwrap();
    }
    // Delete from the middle outward, stressing merges on both sides.
    let mut order = Vec::new();
    let (mut lo, mut hi) = (n / 2, n / 2 + 1);
    order.push(n / 2);
    while lo > 0 || hi < n {
        if lo > 0 {
            lo -= 1;
            order.push(lo);
        }
        if hi < n {
            order.push(hi);
            hi += 1;
        }
    }
    for (step, i) in order.iter().enumerate() {
        assert!(t.delete(&key(*i)).unwrap().is_some());
        if step % 131 == 0 {
            t.verify().unwrap();
        }
    }
    assert!(t.is_empty());
}

#[test]
fn entry_capacity_mode_matches_paper_geometry() {
    // The paper's experiment 1: max 10 records per node.
    let mut t = new_tree(1024, BTreeConfig::with_max_entries(10));
    for i in 0..2000 {
        t.insert(&key(i), &[]).unwrap();
    }
    let stats = t.verify().unwrap();
    // Every leaf holds between 5 and 10 entries.
    assert!(stats.leaf_nodes >= 200, "leaves: {}", stats.leaf_nodes);
    assert!(stats.leaf_nodes <= 400, "leaves: {}", stats.leaf_nodes);
    for i in (0..2000).step_by(101) {
        assert!(t.view().contains(&key(i)).unwrap());
    }
}

#[test]
fn compression_off_still_correct() {
    let mut t = new_tree(256, BTreeConfig::default().without_compression());
    for i in 0..1500 {
        t.insert(&key(i), &val(i)).unwrap();
    }
    t.verify().unwrap();
    for i in (0..1500).step_by(53) {
        assert_eq!(t.view().get(&key(i)).unwrap(), Some(val(i)));
    }
}

#[test]
fn compression_reduces_node_count() {
    // Keys share a long prefix, so compression packs far more per page.
    let mk = |i: u32| format!("common/long/shared/prefix/key-{i:08}").into_bytes();
    let build = |compress: bool| {
        let cfg = if compress {
            BTreeConfig::default()
        } else {
            BTreeConfig::default().without_compression()
        };
        let mut t = new_tree(512, cfg);
        for i in 0..3000 {
            t.insert(&mk(i), &[]).unwrap();
        }
        t.verify().unwrap()
    };
    let with = build(true);
    let without = build(false);
    assert!(
        with.leaf_nodes * 2 <= without.leaf_nodes,
        "compressed {} vs uncompressed {} leaves",
        with.leaf_nodes,
        without.leaf_nodes
    );
}

/// The paper's §4.2 storage claim as a count: U-index entries share long
/// prefixes (index id, attribute value, class code), so front compression
/// packs the same 50 000 keys into well under half the leaves.
#[test]
fn front_compression_cuts_leaves_of_uindex_shaped_keys() {
    let items: Vec<(Vec<u8>, Vec<u8>)> = {
        let mut keys: Vec<Vec<u8>> = (0..50_000u32)
            .map(|i| {
                format!("idx0/color={:04}/class=C{:02}/oid={i:08}", i % 50, i % 12).into_bytes()
            })
            .collect();
        keys.sort();
        keys.into_iter().map(|k| (k, Vec::new())).collect()
    };
    let build = |cfg: BTreeConfig| {
        let pool = BufferPool::new(MemStore::new(1024), 1 << 16);
        BTree::bulk_load(pool, cfg, items.clone()).unwrap()
    };
    let with = build(BTreeConfig::default());
    let without = build(BTreeConfig::default().without_compression());
    assert_eq!(with.view().scan_all().unwrap(), items);
    assert_eq!(without.view().scan_all().unwrap(), items);
    let (with, without) = (with.verify().unwrap(), without.verify().unwrap());
    assert!(
        with.leaf_nodes * 5 <= without.leaf_nodes * 2,
        "compressed {} vs uncompressed {} leaves: ratio below 2.5",
        with.leaf_nodes,
        without.leaf_nodes
    );
}

#[test]
fn cursor_seek_positions() {
    let mut t = new_tree(256, BTreeConfig::default());
    for i in (0..100).map(|i| i * 10) {
        t.insert(&key(i), &val(i)).unwrap();
    }
    // Exact hit.
    let mut c = t.view().seek(&key(500)).unwrap();
    assert_eq!(t.view().cursor_entry(&mut c).unwrap().unwrap().0, key(500));
    // Between keys: lands on the next larger.
    let mut c = t.view().seek(&key(501)).unwrap();
    assert_eq!(t.view().cursor_entry(&mut c).unwrap().unwrap().0, key(510));
    // Before everything.
    let mut c = t.view().seek(b"").unwrap();
    assert_eq!(t.view().cursor_entry(&mut c).unwrap().unwrap().0, key(0));
    // Past everything.
    let mut c = t.view().seek(&key(100_000)).unwrap();
    assert!(t.view().cursor_entry(&mut c).unwrap().is_none());
}

#[test]
fn range_and_prefix_scans() {
    let mut t = new_tree(256, BTreeConfig::default());
    for i in 0..500 {
        t.insert(&key(i), &val(i)).unwrap();
    }
    let r = t.view().range(&key(100), &key(110)).unwrap();
    assert_eq!(r.len(), 10);
    assert_eq!(r[0].0, key(100));
    assert_eq!(r[9].0, key(109));

    let p = t.view().prefix_scan(b"key-0000012").unwrap();
    assert_eq!(p.len(), 10); // key-00000120 ..= key-00000129
    assert!(p.iter().all(|(k, _)| k.starts_with(b"key-0000012")));

    // Empty range.
    assert!(t.view().range(&key(300), &key(300)).unwrap().is_empty());
}

#[test]
fn bulk_load_matches_incremental() {
    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..5000u32).map(|i| (key(i), val(i))).collect();
    let pool = BufferPool::new(MemStore::new(512), 4096);
    let bulk = BTree::bulk_load(pool, BTreeConfig::default(), items.clone()).unwrap();
    let stats = bulk.verify().unwrap();
    assert_eq!(stats.entries, 5000);
    assert_eq!(bulk.view().scan_all().unwrap(), items);

    let mut incr = new_tree(512, BTreeConfig::default());
    for (k, v) in &items {
        incr.insert(k, v).unwrap();
    }
    let incr_stats = incr.verify().unwrap();
    // Bulk loading packs tighter than random splits.
    assert!(stats.leaf_nodes <= incr_stats.leaf_nodes);
}

#[test]
fn bulk_load_rejects_unsorted() {
    let pool = BufferPool::new(MemStore::new(512), 64);
    let items = vec![(b"b".to_vec(), vec![]), (b"a".to_vec(), vec![])];
    assert!(BTree::bulk_load(pool, BTreeConfig::default(), items).is_err());
    let pool = BufferPool::new(MemStore::new(512), 64);
    let dup = vec![(b"a".to_vec(), vec![]), (b"a".to_vec(), vec![])];
    assert!(BTree::bulk_load(pool, BTreeConfig::default(), dup).is_err());
}

#[test]
fn bulk_load_empty_and_tiny() {
    let pool = BufferPool::new(MemStore::new(512), 64);
    let t = BTree::bulk_load(pool, BTreeConfig::default(), Vec::new()).unwrap();
    assert!(t.is_empty());
    t.verify().unwrap();

    let pool = BufferPool::new(MemStore::new(512), 64);
    let t = BTree::bulk_load(
        pool,
        BTreeConfig::default(),
        vec![(b"only".to_vec(), b"one".to_vec())],
    )
    .unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.view().get(b"only").unwrap(), Some(b"one".to_vec()));
    t.verify().unwrap();
}

#[test]
fn bulk_load_entry_capacity() {
    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..997u32).map(|i| (key(i), vec![])).collect();
    let pool = BufferPool::new(MemStore::new(1024), 4096);
    let t = BTree::bulk_load(pool, BTreeConfig::with_max_entries(10), items).unwrap();
    let stats = t.verify().unwrap();
    assert_eq!(stats.entries, 997);
}

#[test]
fn batch_insert_counts_new_keys() {
    let mut t = new_tree(512, BTreeConfig::default());
    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..1000u32).rev().map(|i| (key(i), val(i))).collect();
    assert_eq!(t.insert_batch(items).unwrap(), 1000);
    assert_eq!(t.len(), 1000);
    // Re-inserting is all replacements.
    let again: Vec<(Vec<u8>, Vec<u8>)> = (0..100u32).map(|i| (key(i), val(i))).collect();
    assert_eq!(t.insert_batch(again).unwrap(), 0);
    assert_eq!(t.len(), 1000);
    t.verify().unwrap();
}

#[test]
fn oversized_entry_rejected() {
    let mut t = new_tree(256, BTreeConfig::default());
    let huge = vec![b'x'; 300];
    for err in [
        t.insert(&huge, b"").unwrap_err(),
        t.insert(b"k", &huge).unwrap_err(),
    ] {
        assert!(
            matches!(err, btree::Error::EntryTooLarge { .. }),
            "typed refusal: {err}"
        );
        assert!(!err.is_corruption(), "an oversized entry is not damage");
    }
    assert_eq!(t.len(), 0, "nothing was inserted");
}

#[test]
fn key_only_entries() {
    // The U-index stores key-only entries; make sure empty values work.
    let mut t = new_tree(256, BTreeConfig::default());
    for i in 0..800 {
        t.insert(&key(i), &[]).unwrap();
    }
    assert_eq!(t.view().get(&key(400)).unwrap(), Some(vec![]));
    assert!(t.view().contains(&key(400)).unwrap());
    assert!(!t.view().contains(b"nope").unwrap());
    t.verify().unwrap();
}

#[test]
fn query_page_accounting() {
    let mut t = new_tree(256, BTreeConfig::default());
    for i in 0..5000 {
        t.insert(&key(i), &[]).unwrap();
    }
    let height = t.verify().unwrap().height;

    // A point lookup touches exactly `height` distinct pages.
    t.pool().begin_query();
    t.view().get(&key(2500)).unwrap();
    let q = t.pool().query_stats();
    assert_eq!(q.distinct_pages as usize, height);

    // A second lookup of the same key in the same query is free.
    t.view().get(&key(2500)).unwrap();
    assert_eq!(
        t.pool().query_stats().distinct_pages as usize,
        height,
        "revisits are not recounted"
    );

    // A range scan touches height + extra leaves.
    t.pool().begin_query();
    let r = t.view().range(&key(1000), &key(1200)).unwrap();
    assert_eq!(r.len(), 200);
    let scan_pages = t.pool().query_stats().distinct_pages as usize;
    assert!(scan_pages > height);
    assert!(scan_pages < height + 60, "got {scan_pages}");
}

#[test]
fn page_reuse_after_merges() {
    // Inserting then deleting most entries should shrink the live page set.
    let mut t = new_tree(256, BTreeConfig::default());
    for i in 0..2000 {
        t.insert(&key(i), &[]).unwrap();
    }
    let peak = t.pool().live_pages();
    for i in 0..1990 {
        t.delete(&key(i)).unwrap();
    }
    t.verify().unwrap();
    assert!(
        t.pool().live_pages() < peak / 4,
        "pages not reclaimed: {} of {}",
        t.pool().live_pages(),
        peak
    );
}

#[test]
fn long_common_prefixes_across_splits() {
    // Pathological: keys identical except the last bytes; splits must keep
    // separators valid.
    let mk = |i: u32| {
        let mut k = vec![b'z'; 40];
        k.extend_from_slice(format!("{i:06}").as_bytes());
        k
    };
    let mut t = new_tree(256, BTreeConfig::default());
    for i in 0..2000 {
        t.insert(&mk(i), &[]).unwrap();
    }
    t.verify().unwrap();
    for i in (0..2000).step_by(71) {
        assert!(t.view().contains(&mk(i)).unwrap());
    }
    for i in 0..2000 {
        assert!(t.delete(&mk(i)).unwrap().is_some());
    }
    assert!(t.is_empty());
}

#[test]
fn binary_keys_with_zero_bytes() {
    let mut t = new_tree(256, BTreeConfig::default());
    let keys: Vec<Vec<u8>> = (0..500u16)
        .map(|i| {
            let mut k = vec![0u8, 0, i as u8];
            k.extend_from_slice(&i.to_be_bytes());
            k.push(0);
            k
        })
        .collect();
    for k in &keys {
        t.insert(k, b"v").unwrap();
    }
    t.verify().unwrap();
    for k in &keys {
        assert!(t.view().contains(k).unwrap());
    }
}

#[test]
fn stats_shape_reasonable() {
    let mut t = new_tree(1024, BTreeConfig::default());
    for i in 0..20_000u32 {
        t.insert(&key(i), &[]).unwrap();
    }
    let s = t.verify().unwrap();
    assert_eq!(s.entries, 20_000);
    // ~18-byte keys, compressed, in 1 KiB pages: expect high leaf fanout.
    let per_leaf = 20_000 / s.leaf_nodes;
    assert!(per_leaf > 30, "per-leaf {per_leaf}");
    assert!(s.height <= 4, "height {}", s.height);
    assert!(s.internal_nodes < s.leaf_nodes);
}

/// Grow, churn and drain a tree on 256-byte pages against a `BTreeMap`,
/// running `verify()` after every step, with front compression on and off.
/// The split and merge counters prove the sequence really went through
/// leaf and interior splits, merges and redistributions — every arena
/// writer (`insert_at`, `set_value`, `remove_at`, `split_off`, `append`).
#[test]
fn arena_nodes_match_model_through_splits_and_merges() {
    use std::collections::BTreeMap;

    for config in [
        BTreeConfig::default(),
        BTreeConfig::default().without_compression(),
    ] {
        let splits0 = telemetry::counter_value("btree.splits");
        let merges0 = telemetry::counter_value("btree.merges");
        let mut t = new_tree(256, config);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut max_height = 0;
        // Phase 0 grows (inserts dominate), 1 churns, 2 drains.
        for step in 0..6000u32 {
            let phase = step / 2000;
            let r = next();
            let k = format!("shared/prefix/{:04}", r % 900).into_bytes();
            let insert = match phase {
                0 => (r >> 32) & 7 != 0,
                1 => (r >> 32) & 1 != 0,
                _ => (r >> 32) & 7 == 0,
            };
            if insert {
                // Re-inserting a live key replaces its value with one of
                // another length.
                let v = vec![step as u8; (r >> 40) as usize % 14];
                assert_eq!(t.insert(&k, &v).unwrap(), model.insert(k, v), "step {step}");
            } else {
                assert_eq!(t.delete(&k).unwrap(), model.remove(&k), "step {step}");
            }
            let stats = t
                .verify()
                .unwrap_or_else(|e| panic!("verify after step {step}: {e}"));
            assert_eq!(stats.entries, model.len() as u64, "step {step}");
            max_height = max_height.max(stats.height);
        }
        let all: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(t.view().scan_all().unwrap(), all);
        assert!(max_height >= 3, "interior nodes split too: {max_height}");
        let splits = telemetry::counter_value("btree.splits") - splits0;
        let merges = telemetry::counter_value("btree.merges") - merges0;
        assert!(splits >= 40, "only {splits} splits");
        assert!(merges >= 20, "only {merges} merges");
    }
}

#[test]
fn append_split_fills_leaves_on_ascending_inserts_only() {
    let leaves = |config: BTreeConfig, keys: &[u32]| {
        let mut tree = new_tree(512, config);
        for &i in keys {
            tree.insert(&key(i), &val(i)).unwrap();
        }
        for &i in keys {
            assert_eq!(tree.view().get(&key(i)).unwrap(), Some(val(i)));
        }
        tree.verify().unwrap().leaf_nodes
    };
    let ascending: Vec<u32> = (0..4000).collect();
    let halved = leaves(BTreeConfig::default(), &ascending);
    let filled = leaves(BTreeConfig::default().with_append_split(), &ascending);
    assert!(
        filled * 100 <= halved * 60,
        "appends should fill leaves: {filled} leaves against {halved}"
    );
    // Any other arrival order never appends to the last leaf's end twice in
    // a row: the option changes nothing there.
    let scattered: Vec<u32> = (0..4000u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 4000)
        .collect();
    let descending: Vec<u32> = (0..4000).rev().collect();
    for keys in [&scattered, &descending] {
        let plain = leaves(BTreeConfig::default(), keys);
        let with = leaves(BTreeConfig::default().with_append_split(), keys);
        assert!(with <= plain, "{with} leaves against {plain}");
    }
}

#[test]
fn two_trees_share_a_pool_and_own_their_pages() {
    use std::collections::BTreeSet;
    use std::sync::Arc;
    let pool = Arc::new(BufferPool::new(MemStore::new(256), 1 << 12));
    let mut a = BTree::create(pool.clone(), BTreeConfig::default()).unwrap();
    let mut b = BTree::create(pool.clone(), BTreeConfig::default()).unwrap();
    for i in 0..600 {
        a.insert(&key(i), &val(i)).unwrap();
        b.insert(&key(i + 10_000), b"b").unwrap();
    }
    for i in (0..600).step_by(3) {
        a.delete(&key(i)).unwrap();
    }
    assert_eq!(a.verify().unwrap().entries, 400);
    assert_eq!(b.verify().unwrap().entries, 600);
    let pages_a: BTreeSet<_> = a.page_ids().unwrap().into_iter().collect();
    let pages_b: BTreeSet<_> = b.page_ids().unwrap().into_iter().collect();
    assert_eq!(pages_a.len(), a.verify().unwrap().total_nodes());
    assert!(pages_a.is_disjoint(&pages_b));
    assert_eq!(pages_a.len() + pages_b.len(), pool.live_pages());
}

/// `insert_batch` visits a leaf once per run of keys instead of once per
/// key, and must leave *exactly* the tree the single inserts leave — same
/// pages, same bytes — because page counts measured over batch-built trees
/// are compared across versions.
#[test]
fn batched_upserts_build_the_tree_single_inserts_build() {
    for config in [
        BTreeConfig::default(),
        BTreeConfig::default().with_append_split(),
        BTreeConfig::with_max_entries(6),
    ] {
        let mut batched = new_tree(256, config);
        let mut single = new_tree(256, config);
        let mut x = 12345u32;
        let mut step = || {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            x >> 8
        };
        for round in 0..40 {
            // Runs of neighbours, scattered keys, repeats and re-writes
            // with values of other lengths.
            let mut items = Vec::new();
            for _ in 0..1 + step() % 60 {
                let k = if round % 3 == 0 {
                    round * 100 + step() % 90
                } else {
                    step() % 5000
                };
                items.push((key(k), vec![b'v'; (step() % 40) as usize]));
            }
            let mut sorted = items.clone();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            let mut replaced = 0;
            for (k, v) in &sorted {
                replaced += u64::from(single.insert(k, v).unwrap().is_some());
            }
            let fresh = batched.insert_batch(items).unwrap();
            assert_eq!(fresh, sorted.len() as u64 - replaced);
            assert_eq!(batched.len(), single.len());
            assert_eq!(batched.verify().unwrap(), single.verify().unwrap());
            let pages = batched.page_ids().unwrap();
            assert_eq!(pages, single.page_ids().unwrap());
            for id in pages {
                let a = batched.pool().fetch(id).unwrap();
                let b = single.pool().fetch(id).unwrap();
                assert_eq!(*a.read(), *b.read(), "round {round}: page {id} differs");
            }
        }
        assert!(batched.verify().unwrap().height >= 3);
    }
}
