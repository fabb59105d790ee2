//! Property test of the retrieval machinery: random two-position path
//! entries, random queries over values / class selectors / OID selectors,
//! checked against a brute-force filter — and the parallel algorithm must
//! agree with forward scanning while never reading more pages.

use btree::BTreeConfig;
use objstore::{Oid, Value};
use pagestore::{BufferPool, MemStore};
use proptest::prelude::*;
use schema::{AttrType, ClassId, Encoding, Schema};
use uindex::{ClassSel, EntryKey, IndexSpec, KeyValue, OidSel, PathElem, Query, UIndex, ValuePred};

/// Fixture: X (with X0, X1 sub-classes) is referenced by Y (with Y0, Y1).
struct Fixture {
    index: UIndex<MemStore>,
    /// [X, X0, X1]
    xs: Vec<ClassId>,
    /// [Y, Y0, Y1]
    ys: Vec<ClassId>,
    entries: Vec<EntryKey>,
    schema: Schema,
}

fn build(raw_entries: &[(i64, u8, u32, u8, u32)]) -> Fixture {
    let mut s = Schema::new();
    let x = s.add_class("X").unwrap();
    s.add_attr(x, "V", AttrType::Int).unwrap();
    let x0 = s.add_subclass("X0", x).unwrap();
    let x1 = s.add_subclass("X1", x).unwrap();
    let y = s.add_class("Y").unwrap();
    s.add_attr(y, "ToX", AttrType::Ref(x)).unwrap();
    let y0 = s.add_subclass("Y0", y).unwrap();
    let y1 = s.add_subclass("Y1", y).unwrap();
    let enc = Encoding::generate(&s).unwrap();
    let pool = BufferPool::new(MemStore::new(256), 1 << 14);
    let mut index = UIndex::new(pool, BTreeConfig::default(), enc).unwrap();
    let spec = IndexSpec::path("p", y, &["ToX"], "V").build(&s).unwrap();
    let id = index.define(&s, spec).unwrap();
    assert_eq!(id, 0);
    let xs = vec![x, x0, x1];
    let ys = vec![y, y0, y1];
    let entries: Vec<EntryKey> = raw_entries
        .iter()
        .map(|(v, xc, xo, yc, yo)| EntryKey {
            index_id: 0,
            value: KeyValue::Int(*v),
            path: vec![
                PathElem {
                    code: index
                        .encoding()
                        .code(xs[(*xc % 3) as usize])
                        .unwrap()
                        .as_bytes()
                        .into(),
                    oid: Oid(*xo % 50 + 1),
                },
                PathElem {
                    code: index
                        .encoding()
                        .code(ys[(*yc % 3) as usize])
                        .unwrap()
                        .as_bytes()
                        .into(),
                    oid: Oid(*yo % 50 + 1),
                },
            ]
            .into(),
        })
        .collect();
    index.bulk_load_entries(&entries).unwrap();
    // Deduplicate the reference list the same way the tree does.
    let mut deduped = entries.clone();
    deduped.sort_by_key(|e| e.encode());
    deduped.dedup_by_key(|e| e.encode());
    Fixture {
        index,
        xs,
        ys,
        entries: deduped,
        schema: s,
    }
}

#[derive(Debug, Clone)]
struct RawQuery {
    value: u8, // 0 any, 1 eq, 2 range, 3 in
    v1: i64,
    v2: i64,
    xsel: u8, // 0 any, 1 exact, 2 subtree, 3 anyof
    xclass: u8,
    ysel: u8,
    yclass: u8,
    xoid: Option<u32>,
    yoids: Vec<u32>,
}

fn arb_query() -> impl Strategy<Value = RawQuery> {
    (
        0u8..4,
        -5i64..15,
        -5i64..15,
        0u8..4,
        0u8..3,
        0u8..4,
        0u8..3,
        proptest::option::of(0u32..60),
        proptest::collection::vec(0u32..60, 0..4),
    )
        .prop_map(
            |(value, v1, v2, xsel, xclass, ysel, yclass, xoid, yoids)| RawQuery {
                value,
                v1,
                v2,
                xsel,
                xclass,
                ysel,
                yclass,
                xoid,
                yoids,
            },
        )
}

fn build_query(f: &Fixture, rq: &RawQuery) -> Query {
    let mut q = Query::on(0);
    q = match rq.value {
        1 => q.value(ValuePred::eq(Value::Int(rq.v1))),
        2 => {
            let (lo, hi) = if rq.v1 <= rq.v2 {
                (rq.v1, rq.v2)
            } else {
                (rq.v2, rq.v1)
            };
            q.value(ValuePred::between(Value::Int(lo), Value::Int(hi)))
        }
        3 => q.value(ValuePred::In(vec![Value::Int(rq.v1), Value::Int(rq.v2)])),
        _ => q,
    };
    let sel = |kind: u8, class: u8, classes: &[ClassId]| match kind {
        1 => Some(ClassSel::Exact(classes[class as usize])),
        2 => Some(ClassSel::SubTree(classes[class as usize])),
        3 => Some(ClassSel::AnyOf(vec![
            ClassSel::Exact(classes[1]),
            ClassSel::Exact(classes[2]),
        ])),
        _ => None,
    };
    if let Some(s) = sel(rq.xsel, rq.xclass, &f.xs) {
        q = q.class_at(0, s);
    }
    if let Some(s) = sel(rq.ysel, rq.yclass, &f.ys) {
        q = q.class_at(1, s);
    }
    if let Some(o) = rq.xoid {
        q = q.oid_at(0, OidSel::Is(Oid(o % 50 + 1)));
    }
    if !rq.yoids.is_empty() {
        q = q.oid_at(
            1,
            OidSel::In(rq.yoids.iter().map(|o| Oid(o % 50 + 1)).collect()),
        );
    }
    q
}

/// Naive evaluation over the entry list.
fn brute(f: &Fixture, rq: &RawQuery) -> Vec<Vec<u8>> {
    let value_ok = |v: &KeyValue| -> bool {
        let KeyValue::Int(i) = v else { return false };
        match rq.value {
            1 => *i == rq.v1,
            2 => {
                let (lo, hi) = if rq.v1 <= rq.v2 {
                    (rq.v1, rq.v2)
                } else {
                    (rq.v2, rq.v1)
                };
                (lo..=hi).contains(i)
            }
            3 => *i == rq.v1 || *i == rq.v2,
            _ => true,
        }
    };
    let class_ok = |kind: u8, class: u8, classes: &[ClassId], actual: ClassId| match kind {
        1 => actual == classes[class as usize],
        2 => f.schema.is_subclass_of(actual, classes[class as usize]),
        3 => actual == classes[1] || actual == classes[2],
        _ => true,
    };
    f.entries
        .iter()
        .filter(|e| {
            if !value_ok(&e.value) {
                return false;
            }
            let xclass = f.index.encoding().class_by_code(&e.path[0].code).unwrap();
            let yclass = f.index.encoding().class_by_code(&e.path[1].code).unwrap();
            class_ok(rq.xsel, rq.xclass, &f.xs, xclass)
                && class_ok(rq.ysel, rq.yclass, &f.ys, yclass)
                && rq.xoid.is_none_or(|o| e.path[0].oid == Oid(o % 50 + 1))
                && (rq.yoids.is_empty()
                    || rq.yoids.iter().any(|o| e.path[1].oid == Oid(o % 50 + 1)))
        })
        .map(|e| e.encode())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_forward_and_brute_force_agree(
        raw_entries in proptest::collection::vec(
            (0i64..10, any::<u8>(), any::<u32>(), any::<u8>(), any::<u32>()),
            0..250,
        ),
        queries in proptest::collection::vec(arb_query(), 1..6),
    ) {
        let f = build(&raw_entries);
        for rq in &queries {
            let q = build_query(&f, rq);
            let (par_hits, par_stats) = f.index.query(&f.schema, &q).unwrap();
            let (fwd_hits, fwd_stats) = f.index.query(&f.schema, &q.clone().forward_scan()).unwrap();
            prop_assert_eq!(&par_hits, &fwd_hits, "algorithms disagree on {:?}", rq);
            prop_assert!(par_stats.pages_read <= fwd_stats.pages_read);
            let mut got: Vec<Vec<u8>> =
                par_hits.iter().map(|h| h.key.encode()).collect();
            got.sort();
            let mut want = brute(&f, rq);
            want.sort();
            prop_assert_eq!(got, want, "brute force disagrees on {:?}", rq);
        }
    }
}
