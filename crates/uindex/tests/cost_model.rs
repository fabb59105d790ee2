//! Empirical validation of the §4.2 cost model: every measured query cost
//! must fall within the analytic bounds, across a battery of query shapes
//! on a realistic database.

use objstore::Value;
use schema::{AttrType, ClassId, Schema};
use uindex::analysis::{class_groups, CostModel};
use uindex::{ClassSel, Database, IndexSpec, Query, ValuePred};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build() -> (Database, Vec<ClassId>, u16) {
    let mut s = Schema::new();
    let root = s.add_class("Item").unwrap();
    s.add_attr(root, "Score", AttrType::Int).unwrap();
    let mut classes = vec![root];
    for i in 0..6 {
        classes.push(s.add_subclass(&format!("Sub{i}"), root).unwrap());
    }
    // A deeper branch under Sub0.
    classes.push(s.add_subclass("Deep", classes[1]).unwrap());
    let mut db = Database::in_memory(s).unwrap();
    let idx = db
        .define_index(IndexSpec::class_hierarchy("score", root, "Score"))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..6000 {
        let class = classes[rng.gen_range(0..classes.len())];
        let o = db.create_object(class).unwrap();
        db.set_attr(o, "Score", Value::Int(rng.gen_range(0..200)))
            .unwrap();
    }
    (db, classes, idx)
}

#[test]
fn measured_costs_respect_bounds() {
    let (mut db, classes, idx) = build();
    let stats = db.index_mut().verify().unwrap();
    let model = CostModel::from_stats(&stats);

    // (query, r = distinct values searched)
    let cases: Vec<(Query, u64)> = vec![
        // Exact value, whole hierarchy.
        (Query::on(idx).value(ValuePred::eq(Value::Int(50))), 1),
        // Exact value, one sub-tree.
        (
            Query::on(idx)
                .value(ValuePred::eq(Value::Int(50)))
                .class_at(0, ClassSel::SubTree(classes[1])),
            1,
        ),
        // Exact value, dispersed exact classes.
        (
            Query::on(idx)
                .value(ValuePred::eq(Value::Int(50)))
                .class_at(0, ClassSel::any_of_exact(&[classes[2], classes[5]])),
            1,
        ),
        // Enumerated values (r = 3), dispersed classes.
        (
            Query::on(idx)
                .value(ValuePred::In(vec![
                    Value::Int(10),
                    Value::Int(90),
                    Value::Int(170),
                ]))
                .class_at(0, ClassSel::any_of_exact(&[classes[2], classes[5]])),
            3,
        ),
        // Contiguous range: r = number of distinct values in it (11).
        (
            Query::on(idx)
                .value(ValuePred::between(Value::Int(100), Value::Int(110)))
                .class_at(0, ClassSel::Exact(classes[3])),
            11,
        ),
        // Whole-index scan: r = all 200 values (one contiguous group, so
        // the bound is loose but must still hold).
        (Query::on(idx), 200),
    ];
    for (q, r) in cases {
        let m = class_groups(db.planner(), &q).unwrap();
        let (hits, measured) = db.query_with_stats(&q).unwrap();
        let bounds = model.bounds(r, m, hits.len() as u64);
        assert!(
            bounds.contains(&measured),
            "query {q:?}: measured {} outside {:?} (r={r}, m={m}, hits={})",
            measured.pages_read,
            bounds,
            hits.len()
        );
        // The forward scan also respects the trivial cap.
        let (_, fwd) = db.query_with_stats(&q.forward_scan()).unwrap();
        assert!(fwd.pages_read <= model.total_pages());
    }
}

#[test]
fn single_access_is_logarithmic() {
    // §4.2: "the U-index provides almost the same performance as a
    // single-class index": a point access costs the height, independent of
    // how many classes share the tree.
    let (mut db, classes, idx) = build();
    let stats = db.index_mut().verify().unwrap();
    for class in &classes {
        let q = Query::on(idx)
            .value(ValuePred::eq(Value::Int(77)))
            .class_at(0, ClassSel::Exact(*class));
        let (_, s) = db.query_with_stats(&q).unwrap();
        assert!(
            s.pages_read <= stats.height as u64 + 2,
            "point access cost {} exceeds height+2",
            s.pages_read
        );
    }
}
