//! The scan path's allocation budget, as a test instead of a comment.
//!
//! A counting global allocator (an `unsafe impl` that only forwards to
//! the system allocator) counts `alloc`/`realloc` calls per thread, and
//! these budgets are pinned:
//!
//! * **examining an entry allocates nothing** — a `Forward` scan over
//!   10 000 and over 20 000 non-matching entries of a warm index performs
//!   the *same*, small number of allocations;
//! * **a hit costs at most two allocations** — the `String` of a string
//!   value and the `path` vector of a multi-element path. A query
//!   returning `H` one-element-path hits (the lone element is inline)
//!   performs at most `H + c` allocations when the value is a string and
//!   `c` when it is an integer; `H` two-element-path hits over an integer
//!   cost `H + c`;
//! * **a carried hit allocates nothing** — a hit that differs from the
//!   one before it only in its last OID clones it, and shares its string:
//!   10 000 hits over five string values in two classes (ten clusters)
//!   cost at most one allocation per cluster plus `c`;
//! * **a skip-seek allocates nothing** — a `Parallel` scan that skips
//!   10 000 times (in-leaf and re-descending alike)
//!   performs the same number of allocations as one that skips 5 000
//!   times: the cursor's retained path records child indices, it does not
//!   copy fence keys;
//! * **a leaf visit allocates nothing** — readers walk leaf pages in
//!   place: `Forward` scans over N and 2N leaves whose frames hold no
//!   decoded node perform the same number of allocations (a reader that
//!   decoded each leaf would pay two more per leaf);
//! * **decoding a leaf is two allocations** — on the write path, which
//!   still decodes leaves: `Node::decode` of a 193-entry leaf (the
//!   benchmark's leaf fill) allocates its arena and its offset table,
//!   nothing per entry;
//! * **a served row allocates nothing** — 10 000 and 20 000 string hits
//!   written by the scan straight into a warmed `serve::RowBatchWriter`
//!   (the server's per-connection reply buffer) cost the same constant;
//! * **a bulk load allocates per page, not per entry** — loading 50 000
//!   and 100 000 unordered string-keyed entries (about 215 to a 1 KiB
//!   leaf) costs at most five allocations per page written (the pool's
//!   frame and page buffers are three) plus 128 for the logarithmic growth
//!   of the key buffer, the level vectors and the pool's maps, and fewer
//!   than one per 40 entries: keys go into one buffer, not a vector each.
//!
//! `c` covers what a query allocates whatever it returns: the cursor's
//! retained path, scratch buffers, timing spans, the translated matcher and
//! the hit vector's logarithmic regrowth.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use btree::{BTree, BTreeConfig, Node};
use objstore::{Oid, Value};
use pagestore::{BufferPool, MemStore};
use schema::{AttrType, ClassId, Encoding, Schema};
use serve::proto::{DoneInfo, RowBatchWriter};
use uindex::{
    ClassSel, CodeBytes, Database, EntryKey, IndexId, IndexSpec, KeyValue, PathElem, Query,
    QueryHit, UIndex, ValuePred,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds (`try_with` tolerates a
// thread that is tearing its locals down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread performs inside `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What a query may allocate regardless of how many entries it examines
/// or returns.
const PER_QUERY: u64 = 64;

const OBJECTS: i64 = 24_000;

struct Fixture {
    db: Database,
    /// `Thing`'s sub-class: no object is one, so selecting it matches
    /// nothing while a forward scan still examines every entry in range.
    empty_class: ClassId,
    /// Class-hierarchy index on `Thing.Num` (one distinct integer each).
    num: IndexId,
    /// Class-hierarchy index on `Thing.Name` (one distinct string each).
    name: IndexId,
    /// Path index on `Thing.Owner.Age`: two path elements per entry, 240
    /// things under each of 100 ages.
    age: IndexId,
}

fn name_of(i: i64) -> Value {
    Value::Str(format!("name-{i:06}"))
}

fn fixture() -> Fixture {
    let mut schema = Schema::new();
    let thing = schema.add_class("Thing").unwrap();
    schema.add_attr(thing, "Num", AttrType::Int).unwrap();
    schema.add_attr(thing, "Name", AttrType::Str).unwrap();
    let empty_class = schema.add_subclass("Rare", thing).unwrap();
    let owner = schema.add_class("Owner").unwrap();
    schema.add_attr(owner, "Age", AttrType::Int).unwrap();
    schema
        .add_attr(thing, "Owner", AttrType::Ref(owner))
        .unwrap();
    let mut db = Database::in_memory(schema).unwrap();
    let owners: Vec<_> = (0..100)
        .map(|age| {
            let oid = db.create_object(owner).unwrap();
            db.set_attr(oid, "Age", Value::Int(age)).unwrap();
            oid
        })
        .collect();
    for i in 0..OBJECTS {
        let oid = db.create_object(thing).unwrap();
        db.set_attr(oid, "Num", Value::Int(i)).unwrap();
        db.set_attr(oid, "Name", name_of(i)).unwrap();
        db.set_attr(oid, "Owner", Value::Ref(owners[i as usize % 100]))
            .unwrap();
    }
    let num = db
        .define_index(IndexSpec::class_hierarchy("num", thing, "Num"))
        .unwrap();
    let name = db
        .define_index(IndexSpec::class_hierarchy("name", thing, "Name"))
        .unwrap();
    let age = db
        .define_index(IndexSpec::path("age", thing, &["Owner"], "Age"))
        .unwrap();
    Fixture {
        db,
        empty_class,
        num,
        name,
        age,
    }
}

/// Run `q` once to warm the pool (every leaf decoded and cached, scratch
/// and per-thread state grown), then again under the counter.
fn measured(db: &Database, q: &Query) -> (Vec<QueryHit>, uindex::ScanStats, u64) {
    db.query_with_stats(q).unwrap();
    let ((hits, stats), allocs) = allocations(|| db.query_with_stats(q).unwrap());
    (hits, stats, allocs)
}

#[test]
fn examining_entries_allocates_nothing() {
    let f = fixture();
    let scan = |upto: i64| {
        let q = Query::on(f.num)
            .value(ValuePred::between(Value::Int(0), Value::Int(upto - 1)))
            .class_at(0, ClassSel::Exact(f.empty_class))
            .forward_scan();
        let (hits, stats, allocs) = measured(&f.db, &q);
        assert!(hits.is_empty());
        assert!(
            stats.entries_examined >= upto as u64,
            "examined {} of {upto}",
            stats.entries_examined
        );
        allocs
    };
    let ten = scan(10_000);
    let twenty = scan(20_000);
    assert_eq!(
        ten, twenty,
        "allocations grew with the entries examined: {ten} for 10 000, {twenty} for 20 000"
    );
    assert!(ten <= PER_QUERY, "{ten} allocations to examine entries");
}

#[test]
fn a_skip_seek_allocates_nothing() {
    let f = fixture();
    // Every entry is a `Thing`, below the selected class: the matcher
    // skips to `Rare` within the value, landing on the next value's entry.
    let scan = |upto: i64| {
        let q = Query::on(f.num)
            .value(ValuePred::between(Value::Int(0), Value::Int(upto - 1)))
            .class_at(0, ClassSel::Exact(f.empty_class));
        let (hits, stats, allocs) = measured(&f.db, &q);
        assert!(hits.is_empty());
        assert!(
            stats.seeks >= upto as u64 && stats.descents > 100,
            "premise: one skip per value, many of them re-descending ({stats:?})"
        );
        allocs
    };
    let five = scan(5_000);
    let ten = scan(10_000);
    assert_eq!(
        five, ten,
        "allocations grew with the skips: {five} for 5 000, {ten} for 10 000"
    );
    assert!(five <= PER_QUERY, "{five} allocations to skip");
}

#[test]
fn a_leaf_visit_allocates_nothing() {
    let f = fixture();
    let tree = f.db.index().tree();
    let scan = |upto: i64| {
        let q = Query::on(f.num)
            .value(ValuePred::between(Value::Int(0), Value::Int(upto - 1)))
            .class_at(0, ClassSel::Exact(f.empty_class))
            .forward_scan();
        // Warm scratch and per-thread state.
        f.db.query_with_stats(&q).unwrap();
        // Rewriting a page in place drops whatever decode its frame held:
        // every leaf the scan crosses is then bytes only.
        let view = tree.view();
        let mut cur = view.seek_first().unwrap();
        let mut leaves = Vec::new();
        while view.cursor_peek(&mut cur).unwrap().is_some() {
            if leaves.last() != Some(&cur.leaf_page()) {
                leaves.push(cur.leaf_page());
            }
            cur.advance();
        }
        for &leaf in &leaves {
            let page = tree.pool().fetch(leaf).unwrap();
            drop(page.write());
            assert!(!page.has_decoded());
        }
        let ((hits, stats), allocs) = allocations(|| f.db.query_with_stats(&q).unwrap());
        assert!(hits.is_empty());
        (allocs, stats.pages_read)
    };
    let (n, pages_n) = scan(6_000);
    let (two_n, pages_2n) = scan(12_000);
    assert!(
        pages_n >= 20 && pages_2n >= 2 * pages_n - 2,
        "premise: twice the leaves ({pages_n} vs {pages_2n} pages)"
    );
    assert_eq!(
        n, two_n,
        "allocations grew with the leaves visited: {n} for {pages_n} pages, \
         {two_n} for {pages_2n}"
    );
    assert!(n <= PER_QUERY, "{n} allocations to visit leaves");
}

#[test]
fn a_hit_costs_at_most_two_allocations() {
    let f = fixture();
    let h = 10_000;
    let q = Query::on(f.name).value(ValuePred::between(name_of(0), name_of(h - 1)));
    let (hits, _, allocs) = measured(&f.db, &q);
    assert_eq!(hits.len() as i64, h);
    assert!(hits.iter().all(|hit| hit.key.path.len() == 1));
    assert!(
        allocs <= h as u64 + PER_QUERY,
        "{allocs} allocations for {h} string hits"
    );

    let q = Query::on(f.num).value(ValuePred::between(Value::Int(0), Value::Int(h - 1)));
    let (hits, _, allocs) = measured(&f.db, &q);
    assert_eq!(hits.len() as i64, h);
    assert!(
        allocs <= PER_QUERY,
        "{allocs} allocations for {h} integer hits"
    );

    // Two path elements: the path vector is the hit's one allocation.
    let q = Query::on(f.age).value(ValuePred::between(Value::Int(0), Value::Int(41)));
    let (hits, _, allocs) = measured(&f.db, &q);
    assert_eq!(hits.len(), 42 * 240);
    assert!(hits.iter().all(|hit| hit.key.path.len() == 2));
    assert!(
        allocs <= hits.len() as u64 + PER_QUERY,
        "{allocs} allocations for {} two-element integer hits",
        hits.len()
    );
}

#[test]
fn a_carried_hit_allocates_nothing() {
    let mut schema = Schema::new();
    let thing = schema.add_class("Thing").unwrap();
    schema.add_attr(thing, "Color", AttrType::Str).unwrap();
    let other = schema.add_subclass("Other", thing).unwrap();
    let mut db = Database::in_memory(schema).unwrap();
    let colors = ["Red", "Green", "Blue", "White", "Black"];
    let h = 10_000;
    for i in 0..h {
        let oid = db.create_object([thing, other][i % 2]).unwrap();
        db.set_attr(oid, "Color", Value::Str(colors[i % 5].into()))
            .unwrap();
    }
    let color = db
        .define_index(IndexSpec::class_hierarchy("color", thing, "Color"))
        .unwrap();
    let (hits, _, allocs) = measured(&db, &Query::on(color));
    assert_eq!(hits.len(), h);
    let clusters = 5 * 2;
    assert!(
        allocs <= clusters + PER_QUERY,
        "{allocs} allocations for {h} string hits in {clusters} clusters"
    );
}

#[test]
fn a_served_row_allocates_nothing() {
    let mut f = fixture();
    let reader = f.db.reader();
    let mut reply = RowBatchWriter::new();
    let mut serve = |h: i64| {
        let q = Query::on(f.name).value(ValuePred::between(name_of(0), name_of(h - 1)));
        let mut run = || {
            reply.clear();
            let snap = reader.snapshot();
            let (stats, degraded) = reader.query_guarded_into(&snap, &q, &mut reply).unwrap();
            assert_eq!((stats.matches, degraded), (h as u64, false));
            reply.finish(&DoneInfo::default()).len()
        };
        run(); // warm: pool, scratch, and the buffer at this reply's size
        let (bytes, allocs) = allocations(run);
        assert!(bytes > 20 * h as usize, "{bytes} bytes for {h} rows");
        allocs
    };
    serve(20_000); // the buffer grows to the larger reply once
    let ten = serve(10_000);
    let twenty = serve(20_000);
    assert_eq!(
        ten, twenty,
        "allocations grew with the rows served: {ten} for 10 000, {twenty} for 20 000"
    );
    assert!(ten <= PER_QUERY, "{ten} allocations to serve rows");
}

#[test]
fn decoding_a_leaf_is_two_allocations() {
    let items = (0..193u32).map(|i| (format!("k{i:04}").into_bytes(), Vec::new()));
    let pool = BufferPool::new(MemStore::new(1024), 16);
    let tree = BTree::bulk_load(pool, BTreeConfig::default(), items).unwrap();
    let page = tree.pool().fetch(tree.root()).unwrap().read().to_vec();
    let (node, allocs) = allocations(|| Node::decode(&page).unwrap());
    assert!(matches!(node, Node::Leaf(_)));
    assert_eq!(node.count(), 193);
    assert!(
        allocs <= 3,
        "{allocs} allocations to decode a 193-entry leaf"
    );
}

#[test]
fn a_bulk_load_allocates_per_page_not_per_entry() {
    let mut schema = Schema::new();
    let class = schema.add_class("Posting").unwrap();
    let encoding = Encoding::generate(&schema).unwrap();
    let code: CodeBytes = encoding.code(class).unwrap().as_bytes().into();
    let load = |n: u32| {
        // The experiment harness's shape: 8-character string keys, 20
        // postings each, handed over in no particular order.
        let entries: Vec<EntryKey> = (0..n)
            .map(|i| {
                let i = i.wrapping_mul(7919) % n;
                EntryKey {
                    index_id: 0,
                    value: KeyValue::Str(format!("{:08x}", i / 20).into()),
                    path: vec![PathElem {
                        code: code.clone(),
                        oid: Oid(i),
                    }]
                    .into(),
                }
            })
            .collect();
        let mut index = UIndex::in_memory(encoding.clone()).unwrap();
        let (loaded, allocs) = allocations(|| index.bulk_load_entries(&entries).unwrap());
        assert_eq!(loaded, u64::from(n));
        (allocs, index.verify().unwrap().total_nodes() as u64)
    };
    for n in [50_000, 100_000] {
        let (allocs, pages) = load(n);
        assert!(
            allocs <= 5 * pages + 128 && allocs * 40 <= u64::from(n),
            "{allocs} allocations to bulk-load {n} entries into {pages} pages"
        );
    }
}
