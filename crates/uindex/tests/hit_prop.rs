//! A hit is the entry its row key decodes to, whichever way it was built.
//!
//! The `Vec<QueryHit>` sink builds a cluster's first hit from the offsets
//! the matcher parsed and every carried hit by cloning its predecessor,
//! sharing the predecessor's string. Over random databases with every hit
//! shape — integer, float, boolean and string values (strings with an
//! escaped NUL among them), one- and two-element paths, carried and not —
//! each hit must equal [`EntryKey::decode`] of the key the scan handed
//! over, print the same, carry the row's assignment, and equal the
//! brute-force answer (`oracle::eval`). Hits that
//! differ only in their last OID must share one string.

use std::collections::BTreeSet;
use std::sync::Arc;

use objstore::{Oid, Value};
use proptest::prelude::*;
use schema::{AttrType, ClassId, Schema};
use uindex::{
    ClassSel, Database, EntryKey, IndexId, IndexSpec, KeyValue, OidSel, Query, QueryHit, Row,
    RowSink,
};

const STRINGS: [&str; 5] = ["", "a", "bb", "a\0b", "\u{e9}t\u{e9}"];
const FLOATS: [f64; 4] = [-2.25, 0.0, -0.0, 1.5];

/// The stored key and assignment of every row the scan hands over.
#[derive(Default)]
struct Rows(Vec<(Vec<u8>, Vec<Option<usize>>)>);

impl RowSink for Rows {
    fn row(&mut self, row: &Row<'_>) -> uindex::Result<()> {
        self.0.push((row.key().to_vec(), row.assignment().to_vec()));
        Ok(())
    }

    fn restart(&mut self) {
        self.0.clear();
    }
}

/// One generated object: class choice, Int, Str, Float, Bool, owner.
type RawObject = (bool, i64, usize, usize, bool, usize);

struct Fixture {
    db: Database,
    thing: ClassId,
    sub: ClassId,
    indexes: Vec<IndexId>,
    oids: Vec<Oid>,
}

/// `Thing` (and its subclass) with one attribute of each indexable kind,
/// each indexed over the hierarchy, and a path index on its owner's name.
fn fixture(objects: &[RawObject]) -> Fixture {
    let mut s = Schema::new();
    let owner = s.add_class("Owner").unwrap();
    s.add_attr(owner, "Name", AttrType::Str).unwrap();
    let thing = s.add_class("Thing").unwrap();
    s.add_attr(thing, "I", AttrType::Int).unwrap();
    s.add_attr(thing, "S", AttrType::Str).unwrap();
    s.add_attr(thing, "F", AttrType::Float).unwrap();
    s.add_attr(thing, "B", AttrType::Bool).unwrap();
    s.add_attr(thing, "Owner", AttrType::Ref(owner)).unwrap();
    let sub = s.add_subclass("SubThing", thing).unwrap();
    let mut db = Database::in_memory(s).unwrap();
    let owners: Vec<Oid> = STRINGS
        .iter()
        .take(3)
        .map(|name| {
            let o = db.create_object(owner).unwrap();
            db.set_attr(o, "Name", Value::Str((*name).into())).unwrap();
            o
        })
        .collect();
    let mut oids = Vec::new();
    for &(in_sub, i, si, fi, b, oi) in objects {
        let t = db.create_object(if in_sub { sub } else { thing }).unwrap();
        db.set_attr(t, "I", Value::Int(i)).unwrap();
        db.set_attr(t, "S", Value::Str(STRINGS[si].into())).unwrap();
        db.set_attr(t, "F", Value::Float(FLOATS[fi])).unwrap();
        db.set_attr(t, "B", Value::Bool(b)).unwrap();
        db.set_attr(t, "Owner", Value::Ref(owners[oi])).unwrap();
        oids.push(t);
    }
    let mut indexes: Vec<IndexId> = ["I", "S", "F", "B"]
        .iter()
        .map(|attr| {
            db.define_index(IndexSpec::class_hierarchy(attr, thing, attr))
                .unwrap()
        })
        .collect();
    indexes.push(
        db.define_index(IndexSpec::path("owner", thing, &["Owner"], "Name"))
            .unwrap(),
    );
    Fixture {
        db,
        thing,
        sub,
        indexes,
        oids,
    }
}

/// Every query shape run against index `id`: all of it, one subclass, an
/// OID set on the `Thing` position (no carry), and the forward scan of
/// each.
fn queries(f: &Fixture, id: IndexId) -> Vec<(Query, bool)> {
    let spec = &f.db.index().specs()[id as usize];
    let pos = (spec.positions.iter())
        .position(|p| p.class == f.thing)
        .unwrap();
    let some: BTreeSet<Oid> = f.oids.iter().step_by(3).copied().collect();
    let mut out = Vec::new();
    for q in [
        Query::on(id),
        Query::on(id).class_at(pos, ClassSel::Exact(f.sub)),
        Query::on(id).oid_at(pos, OidSel::In(some)),
    ] {
        let carries = q.preds.iter().all(|(_, p)| p.oid.is_any());
        out.push((q.clone().forward_scan(), carries));
        out.push((q, carries));
    }
    out
}

fn string_of(hit: &QueryHit) -> Option<&Arc<str>> {
    match hit.value() {
        KeyValue::Str(s) => Some(s),
        _ => None,
    }
}

/// Hold every hit of every query to its row key, to the oracle, and to
/// the sharing rule; returns how many hits shared their predecessor's
/// string.
fn check(f: &mut Fixture) -> usize {
    let reader = f.db.reader();
    let mut shared = 0;
    for &id in &f.indexes {
        for (q, carries) in queries(f, id) {
            let (hits, _) = reader.query(&q).unwrap();
            let mut rows = Rows::default();
            let snap = reader.snapshot();
            let (_, degraded) = reader.query_guarded_into(&snap, &q, &mut rows).unwrap();
            assert!(!degraded);
            assert_eq!(hits.len(), rows.0.len(), "{:?}", q);
            for (hit, (key, assignment)) in hits.iter().zip(&rows.0) {
                let decoded = EntryKey::decode(key).unwrap();
                assert_eq!(&hit.key, &decoded);
                assert_eq!(format!("{:?}", hit.key), format!("{decoded:?}"));
                assert_eq!(&hit.assignment, assignment);
                let value = Value::from(hit.value());
                assert_eq!(format!("{:?}", hit.value()), format!("{value:?}"));
            }
            for (i, pair) in hits.windows(2).enumerate() {
                let (a, b) = (&rows.0[i].0, &rows.0[i + 1].0);
                let same_but_oid = a.len() == b.len() && a[..a.len() - 4] == b[..b.len() - 4];
                if let (true, true, Some(x), Some(y)) = (
                    carries,
                    same_but_oid,
                    string_of(&pair[0]),
                    string_of(&pair[1]),
                ) {
                    assert!(Arc::ptr_eq(x, y), "carried hit copied {:?}", y);
                    shared += 1;
                }
            }
            let oracle = uindex::oracle::eval(f.db.planner(), f.db.store(), &q).unwrap();
            assert_eq!(&hits, &oracle, "degraded answer differs on {:?}", q);
        }
    }
    shared
}

fn arb_object() -> impl Strategy<Value = RawObject> {
    (
        any::<bool>(),
        -2i64..3,
        0..STRINGS.len(),
        0..FLOATS.len(),
        any::<bool>(),
        0usize..3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hits_are_their_decoded_row_keys(
        objects in proptest::collection::vec(arb_object(), 0..150),
    ) {
        check(&mut fixture(&objects));
    }
}

/// The sharing rule is not vacuous: with ten objects per value and class,
/// most string hits share their predecessor's string, and a cluster's
/// hits hold one string between them.
#[test]
fn a_clusters_hits_share_one_string() {
    let objects: Vec<RawObject> = (0..200)
        .map(|i| (i % 2 == 0, 0, i % 5, 0, false, i % 3))
        .collect();
    let mut f = fixture(&objects);
    let shared = check(&mut f);
    assert!(shared > 500, "only {shared} hits shared a string");

    let q = Query::on(f.indexes[1]);
    let hits = f.db.query(&q).unwrap();
    assert_eq!(hits.len(), 200);
    let strings: BTreeSet<*const u8> = hits
        .iter()
        .map(|h| string_of(h).unwrap().as_ptr())
        .collect();
    // Five strings in two classes: one string per cluster.
    assert_eq!(
        strings.len(),
        10,
        "{} strings for 10 clusters",
        strings.len()
    );
}
