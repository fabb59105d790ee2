//! Snapshot-read semantics: published-state isolation, version-store
//! preservation across writer churn, deferred-free reclamation (no page
//! leaks), and a concurrent scanners-vs-mutator smoke against a model.
//! The full multi-layer torture test lives in the uindex crate; this file
//! pins the btree-level contract it builds on.

use std::collections::BTreeMap;
use std::sync::Mutex;

use btree::{BTree, BTreeConfig, Capacity, TreeReader, TreeSnapshot};
use pagestore::{BufferPool, MemStore};

fn small_tree() -> BTree<MemStore> {
    let pool = BufferPool::new(MemStore::new(1024), 4096);
    let config = BTreeConfig {
        capacity: Capacity::Entries(4),
        ..BTreeConfig::default()
    };
    BTree::create(pool, config).unwrap()
}

fn key(i: u32) -> Vec<u8> {
    format!("{i:06}").into_bytes()
}

#[test]
fn send_sync_static_assertions() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BufferPool<MemStore>>();
    assert_send_sync::<TreeReader<MemStore>>();
    assert_send::<TreeSnapshot>();
    assert_send::<btree::EntryRef>();
}

#[test]
fn snapshot_sees_published_state_only() {
    let mut tree = small_tree();
    for i in 0..100 {
        tree.insert(&key(i), b"v1").unwrap();
    }
    tree.enable_snapshots();
    let reader = tree.reader();

    let snap = reader.snapshot();
    assert_eq!(snap.len(), 100);

    // Unpublished writer progress is invisible to old *and new* snapshots.
    for i in 100..150 {
        tree.insert(&key(i), b"v1").unwrap();
    }
    tree.insert(&key(7), b"v2").unwrap();
    assert_eq!(reader.read(&snap).scan_all().unwrap().len(), 100);
    assert_eq!(
        reader.read(&snap).get(&key(7)).unwrap(),
        Some(b"v1".to_vec()),
        "snapshot must see the pre-mutation value"
    );
    let snap2 = reader.snapshot();
    assert_eq!(snap2.len(), 100, "publish has not happened yet");

    tree.publish().unwrap();
    let snap3 = reader.snapshot();
    assert_eq!(snap3.len(), 150);
    assert_eq!(
        reader.read(&snap3).get(&key(7)).unwrap(),
        Some(b"v2".to_vec())
    );
    // The old snapshot still answers from its own epoch.
    assert_eq!(reader.read(&snap).scan_all().unwrap().len(), 100);
}

#[test]
fn a_walk_over_a_preserved_leaf_sees_its_pre_image() {
    let mut tree = small_tree();
    for i in 0..40 {
        tree.insert(&key(i), b"old").unwrap();
    }
    tree.enable_snapshots();
    let reader = tree.reader();
    let snap = reader.snapshot();
    // Rewrite the leaves around key 9: a new value, a new key beside it (a
    // split, at four entries to a node) and a deletion.
    tree.insert(&key(9), b"new").unwrap();
    tree.insert(b"000009x", b"new").unwrap();
    tree.delete(&key(10)).unwrap();
    tree.publish().unwrap();
    assert!(
        tree.tracker().version_count() > 0,
        "premise: pre-images kept"
    );

    let version_reads = || telemetry::counter_value("btree.snapshot.version_reads");
    let before = version_reads();
    let view = reader.read(&snap);
    let old = |i: u32| (key(i), b"old".to_vec());
    let mut cur = view.seek(&key(7)).unwrap();
    let mut walked = Vec::new();
    for _ in 0..8 {
        let (k, v) = view.cursor_peek(&mut cur).unwrap().unwrap();
        walked.push((k.to_vec(), v.to_vec()));
        cur.advance();
    }
    assert_eq!(walked, (7..15).map(old).collect::<Vec<_>>());
    // Re-seeks over the same leaves, ahead and behind the cursor.
    for i in [12, 9, 10, 8] {
        view.reseek(&mut cur, &key(i)).unwrap();
        assert_eq!(view.cursor_entry(&mut cur).unwrap(), Some(old(i)));
    }
    assert_eq!(view.get(&key(10)).unwrap(), Some(b"old".to_vec()));
    assert_eq!(view.get(b"000009x").unwrap(), None);
    assert!(
        version_reads() > before,
        "the walk read leaves from the version store"
    );

    let now = reader.snapshot();
    let view = reader.read(&now);
    assert_eq!(view.get(&key(9)).unwrap(), Some(b"new".to_vec()));
    assert_eq!(view.get(&key(10)).unwrap(), None);
    assert_eq!(view.scan_all().unwrap().len(), 40);
}

#[test]
fn snapshot_survives_total_rewrite() {
    let mut tree = small_tree();
    let original: Vec<(Vec<u8>, Vec<u8>)> = (0..500).map(|i| (key(i), b"orig".to_vec())).collect();
    tree.bulk_replace(original.clone()).unwrap();
    tree.enable_snapshots();
    let reader = tree.reader();
    let snap = reader.snapshot();

    // Delete everything and insert a disjoint key set, publishing along
    // the way: the snapshot must keep answering from its own epoch even
    // after multiple newer publishes.
    for i in 0..500 {
        tree.delete(&key(i)).unwrap();
        if i % 100 == 99 {
            tree.publish().unwrap();
        }
    }
    for i in 1000..1200 {
        tree.insert(&key(i), b"new").unwrap();
    }
    tree.publish().unwrap();

    assert_eq!(reader.read(&snap).scan_all().unwrap(), original);
    assert!(
        tree.tracker().version_count() > 0,
        "a total rewrite under a live snapshot must preserve versions"
    );

    // Newer snapshot sees only the new world.
    let snap2 = reader.snapshot();
    let now = reader.read(&snap2).scan_all().unwrap();
    assert_eq!(now.len(), 200);
    assert!(now.iter().all(|(_, v)| v == b"new"));
}

#[test]
fn reclamation_frees_everything_after_last_snapshot_drops() {
    let mut tree = small_tree();
    tree.bulk_replace((0..500).map(|i| (key(i), Vec::new())))
        .unwrap();
    tree.enable_snapshots();
    let reader = tree.reader();
    let snap = reader.snapshot();

    for i in 0..500 {
        if i % 10 != 9 {
            tree.delete(&key(i)).unwrap();
        }
    }
    tree.publish().unwrap();
    assert!(
        tree.tracker().pending_frees() > 0,
        "merges under a live snapshot must defer their frees"
    );

    drop(snap);
    tree.publish().unwrap();
    assert_eq!(tree.tracker().pending_frees(), 0);
    assert_eq!(tree.tracker().version_count(), 0);
    assert_eq!(tree.tracker().active_snapshots(), 0);

    // No page leaks: every live store page is a reachable tree node.
    let stats = tree.verify().unwrap();
    assert_eq!(tree.pool().live_pages(), stats.total_nodes());
}

#[test]
fn long_held_snapshot_pins_pages_not_epochs() {
    let mut tree = small_tree();
    for i in 0..200 {
        tree.insert(&key(i), b"v0").unwrap();
    }
    tree.enable_snapshots();
    let reader = tree.reader();
    let snap = reader.snapshot();

    // A serving process can hold a reader snapshot across hundreds of
    // writer epochs. Same-size overwrites keep the page set stable, so the
    // version store must converge to at most one preserved pre-image per
    // page — not one per publish interval survived.
    let mut counts = Vec::new();
    for round in 0..120u32 {
        for i in 0..10u32 {
            tree.insert(&key((i * 17) % 200), format!("r{round:04}").as_bytes())
                .unwrap();
        }
        tree.publish().unwrap();
        counts.push(tree.tracker().version_count());
    }
    let max = *counts.iter().max().unwrap();
    assert!(
        max <= tree.pool().live_pages(),
        "version store pinned {max} versions for one snapshot over \
         {} live pages — growing with epochs, not pages",
        tree.pool().live_pages()
    );
    assert_eq!(
        counts[30], counts[119],
        "version count must reach a steady state while the snapshot is held"
    );

    // The pinned snapshot still reads its own epoch exactly.
    let view = reader.read(&snap);
    assert_eq!(view.scan_all().unwrap().len(), 200);
    assert_eq!(view.get(&key(0)).unwrap(), Some(b"v0".to_vec()));

    // Refresh the snapshot (drop + re-pin, the server's per-query
    // pattern): the next publish must revert the footprint completely.
    drop(snap);
    let fresh = reader.snapshot();
    tree.publish().unwrap();
    assert_eq!(
        tree.tracker().version_count(),
        0,
        "footprint did not revert after the oldest snapshot was refreshed"
    );
    assert_eq!(tree.tracker().pending_frees(), 0);
    assert_eq!(
        reader.read(&fresh).get(&key(0)).unwrap(),
        Some(b"r0119".to_vec())
    );
}

#[test]
fn refresh_reverts_deferred_frees_from_structural_churn() {
    let mut tree = small_tree();
    tree.bulk_replace((0..600).map(|i| (key(i), Vec::new())))
        .unwrap();
    tree.enable_snapshots();
    let reader = tree.reader();
    let snap = reader.snapshot();
    let pages_before = tree.pool().live_pages();

    // Structural churn under a pinned snapshot: deletes merge nodes and
    // defer their frees; the snapshot keeps every freed page live.
    for i in 0..600 {
        if i % 5 != 0 {
            tree.delete(&key(i)).unwrap();
        }
    }
    tree.publish().unwrap();
    assert!(tree.tracker().pending_frees() > 0);
    assert!(tree.pool().live_pages() >= pages_before - 1);
    assert_eq!(reader.read(&snap).scan_all().unwrap().len(), 600);

    // Refreshing the oldest (only) snapshot releases every deferred page:
    // live pages revert to exactly the surviving tree's nodes.
    drop(snap);
    let fresh = reader.snapshot();
    tree.publish().unwrap();
    assert_eq!(tree.tracker().pending_frees(), 0);
    assert_eq!(tree.tracker().version_count(), 0);
    let stats = tree.verify().unwrap();
    assert_eq!(
        tree.pool().live_pages(),
        stats.total_nodes(),
        "deferred frees survived the snapshot refresh"
    );
    assert_eq!(reader.read(&fresh).scan_all().unwrap().len(), 120);
}

#[test]
fn concurrent_scanners_match_model_per_epoch() {
    let mut tree = small_tree();
    tree.enable_snapshots();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    // expected[epoch] is recorded *before* the publish that exposes that
    // epoch, so scanners can never observe an epoch without expectations.
    type EpochAnswers = BTreeMap<u64, Vec<(Vec<u8>, Vec<u8>)>>;
    let expected: Mutex<EpochAnswers> = Mutex::new(BTreeMap::new());
    expected.lock().unwrap().insert(tree.epoch(), Vec::new());

    let reader = tree.reader();
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..4 {
            let reader = reader.clone();
            let expected = &expected;
            workers.push(scope.spawn(move || {
                let mut scans = 0u32;
                while scans < 60 {
                    let snap = reader.snapshot();
                    let got = reader.read(&snap).scan_all().unwrap();
                    let want = expected
                        .lock()
                        .unwrap()
                        .get(&snap.epoch())
                        .cloned()
                        .expect("scanned an epoch that was never published");
                    assert_eq!(got, want, "scan diverged at epoch {}", snap.epoch());
                    scans += 1;
                }
            }));
        }

        // Mutator: batches of inserts/deletes, then record-and-publish.
        let mut seed = 0x9E3779B9u64;
        for round in 0..40 {
            for _ in 0..20 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(round);
                let k = key((seed >> 33) as u32 % 300);
                if seed.is_multiple_of(3) {
                    model.remove(&k);
                    tree.delete(&k).unwrap();
                } else {
                    let v = seed.to_le_bytes().to_vec();
                    model.insert(k.clone(), v.clone());
                    tree.insert(&k, &v).unwrap();
                }
            }
            let snapshot_model: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            expected
                .lock()
                .unwrap()
                .insert(tree.epoch(), snapshot_model);
            tree.publish().unwrap();
        }
        for w in workers {
            w.join().unwrap();
        }
    });

    // Quiesced: a final publish reclaims everything.
    tree.publish().unwrap();
    assert_eq!(tree.tracker().pending_frees(), 0);
    let stats = tree.verify().unwrap();
    assert_eq!(tree.pool().live_pages(), stats.total_nodes());
}
