//! Multi-value reference attributes (paper §4.3) and API error paths.

use objstore::{Oid, Value};
use schema::{AttrType, Schema};
use uindex::{distinct_oids_at, ClassSel, Database, Error, IndexSpec, Query, ValuePred};

/// "If a vehicle is manufactured by multiple companies, the same vehicle
/// object will appear in multiple index entries" (§4.3).
#[test]
fn multivalue_reference_in_path() {
    let mut s = Schema::new();
    let employee = s.add_class("Employee").unwrap();
    s.add_attr(employee, "Age", AttrType::Int).unwrap();
    let company = s.add_class("Company").unwrap();
    s.add_attr(company, "President", AttrType::Ref(employee))
        .unwrap();
    let vehicle = s.add_class("Vehicle").unwrap();
    // Multi-valued: a vehicle made by several companies.
    s.add_attr(vehicle, "MadeBy", AttrType::RefSet(company))
        .unwrap();

    let mut db = Database::in_memory(s).unwrap();
    let idx = db
        .define_index(IndexSpec::path(
            "age",
            vehicle,
            &["MadeBy", "President"],
            "Age",
        ))
        .unwrap();

    let e1 = db.create_object(employee).unwrap();
    db.set_attr(e1, "Age", Value::Int(50)).unwrap();
    let e2 = db.create_object(employee).unwrap();
    db.set_attr(e2, "Age", Value::Int(60)).unwrap();
    let c1 = db.create_object(company).unwrap();
    db.set_attr(c1, "President", Value::Ref(e1)).unwrap();
    let c2 = db.create_object(company).unwrap();
    db.set_attr(c2, "President", Value::Ref(e2)).unwrap();
    let v = db.create_object(vehicle).unwrap();
    db.set_attr(v, "MadeBy", Value::RefSet(vec![c1, c2]))
        .unwrap();

    // The vehicle appears under BOTH presidents' ages.
    for (age, pres) in [(50, e1), (60, e2)] {
        let hits = db
            .query(&Query::on(idx).value(ValuePred::eq(Value::Int(age))))
            .unwrap();
        assert_eq!(distinct_oids_at(&hits, 2), [v].into_iter().collect());
        assert_eq!(distinct_oids_at(&hits, 0), [pres].into_iter().collect());
    }

    // Dropping one manufacturer removes exactly that entry group (the
    // paper's noted multi-value update overhead).
    db.set_attr(v, "MadeBy", Value::RefSet(vec![c2])).unwrap();
    assert!(db
        .query(&Query::on(idx).value(ValuePred::eq(Value::Int(50))))
        .unwrap()
        .is_empty());
    assert_eq!(
        db.query(&Query::on(idx).value(ValuePred::eq(Value::Int(60))))
            .unwrap()
            .len(),
        1
    );
    db.index_mut().verify().unwrap();

    // Deleting the vehicle clears everything.
    db.delete_object(v, false).unwrap();
    assert!(db.query(&Query::on(idx)).unwrap().is_empty());
}

#[test]
fn multivalue_at_anchor_side() {
    // An employee OWNS several vehicles; index vehicle color reachable from
    // Employee via the multi-valued attribute: Owner(1) <- owns - Vehicle(0)?
    // Here the anchor (attr owner) is the Vehicle; Employee references it.
    let mut s = Schema::new();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    let employee = s.add_class("Employee").unwrap();
    s.add_attr(employee, "Owns", AttrType::RefSet(vehicle))
        .unwrap();

    let mut db = Database::in_memory(s).unwrap();
    let idx = db
        .define_index(IndexSpec::path("owner-color", employee, &["Owns"], "Color"))
        .unwrap();

    let v1 = db.create_object(vehicle).unwrap();
    db.set_attr(v1, "Color", Value::Str("Red".into())).unwrap();
    let v2 = db.create_object(vehicle).unwrap();
    db.set_attr(v2, "Color", Value::Str("Red".into())).unwrap();
    let e = db.create_object(employee).unwrap();
    db.set_attr(e, "Owns", Value::RefSet(vec![v1, v2])).unwrap();

    let hits = db
        .query(&Query::on(idx).value(ValuePred::eq(Value::Str("Red".into()))))
        .unwrap();
    // Positions: Vehicle(0) < Employee(1). Two entries, one per owned
    // vehicle, both naming the owner.
    assert_eq!(hits.len(), 2);
    assert_eq!(distinct_oids_at(&hits, 1), [e].into_iter().collect());
    assert_eq!(distinct_oids_at(&hits, 0), [v1, v2].into_iter().collect());
}

#[test]
fn error_paths() {
    let mut s = Schema::new();
    let a = s.add_class("A").unwrap();
    s.add_attr(a, "X", AttrType::Int).unwrap();
    s.add_attr(a, "R", AttrType::Ref(a)).unwrap();
    let mut db = Database::in_memory(s).unwrap();

    // Reference attributes are not indexable.
    let err = db
        .define_index(IndexSpec::class_hierarchy("bad", a, "R"))
        .unwrap_err();
    assert!(matches!(err, Error::BadSpec(_)), "{err}");

    // Unknown attribute name.
    let err = db
        .define_index(IndexSpec::class_hierarchy("bad", a, "Nope"))
        .unwrap_err();
    assert!(matches!(err, Error::BadSpec(_)), "{err}");

    // Duplicate index name.
    db.define_index(IndexSpec::class_hierarchy("x", a, "X"))
        .unwrap();
    let err = db
        .define_index(IndexSpec::class_hierarchy("x", a, "X"))
        .unwrap_err();
    assert!(matches!(err, Error::BadSpec(_)), "{err}");

    // Unknown index id in a query.
    let err = db.query(&Query::on(42)).unwrap_err();
    assert!(matches!(err, Error::UnknownIndex(42)), "{err}");

    // Predicate on a position the index does not have.
    let idx = db.planner().index_by_name("x").unwrap();
    let err = db
        .query(&Query::on(idx).class_at(3, ClassSel::Exact(a)))
        .unwrap_err();
    assert!(matches!(err, Error::BadQuery(_)), "{err}");

    // Class selector outside the index's sub-tree.
    let mut s2 = Schema::new();
    let b = s2.add_class("B").unwrap();
    s2.add_attr(b, "X", AttrType::Int).unwrap();
    let other = s2.add_class("Other").unwrap();
    let mut db2 = Database::in_memory(s2).unwrap();
    let idx2 = db2
        .define_index(IndexSpec::class_hierarchy("x", b, "X"))
        .unwrap();
    let err = db2
        .query(&Query::on(idx2).class_at(0, ClassSel::Exact(other)))
        .unwrap_err();
    assert!(matches!(err, Error::BadQuery(_)), "{err}");

    // Empty value range.
    let err = db2
        .query(&Query::on(idx2).value(ValuePred::Range {
            lo: Some(Value::Int(10)),
            hi: Some(Value::Int(5)),
            hi_inclusive: false,
        }))
        .unwrap_err();
    assert!(matches!(err, Error::BadQuery(_)), "{err}");

    // Querying a reference value.
    let err = db2
        .query(&Query::on(idx2).value(ValuePred::eq(Value::Ref(Oid(1)))))
        .unwrap_err();
    assert!(matches!(err, Error::BadQuery(_)), "{err}");
}

#[test]
fn unset_attributes_are_not_indexed() {
    let mut s = Schema::new();
    let a = s.add_class("A").unwrap();
    s.add_attr(a, "X", AttrType::Int).unwrap();
    let mut db = Database::in_memory(s).unwrap();
    let idx = db
        .define_index(IndexSpec::class_hierarchy("x", a, "X"))
        .unwrap();
    let o = db.create_object(a).unwrap();
    // No value set yet: no entries.
    assert!(db.query(&Query::on(idx)).unwrap().is_empty());
    db.set_attr(o, "X", Value::Int(1)).unwrap();
    assert_eq!(db.query(&Query::on(idx)).unwrap().len(), 1);
}

#[test]
fn incomplete_paths_produce_no_entries() {
    // A company without a president: vehicles made by it are unreachable
    // through the path index (complete-chain semantics).
    let mut s = Schema::new();
    let employee = s.add_class("Employee").unwrap();
    s.add_attr(employee, "Age", AttrType::Int).unwrap();
    let company = s.add_class("Company").unwrap();
    s.add_attr(company, "President", AttrType::Ref(employee))
        .unwrap();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "MadeBy", AttrType::Ref(company))
        .unwrap();
    let mut db = Database::in_memory(s).unwrap();
    let idx = db
        .define_index(IndexSpec::path(
            "age",
            vehicle,
            &["MadeBy", "President"],
            "Age",
        ))
        .unwrap();
    let c = db.create_object(company).unwrap();
    let v = db.create_object(vehicle).unwrap();
    db.set_attr(v, "MadeBy", Value::Ref(c)).unwrap();
    assert!(db.query(&Query::on(idx)).unwrap().is_empty());
    // Completing the chain creates the entry retroactively.
    let e = db.create_object(employee).unwrap();
    db.set_attr(e, "Age", Value::Int(40)).unwrap();
    db.set_attr(c, "President", Value::Ref(e)).unwrap();
    assert_eq!(db.query(&Query::on(idx)).unwrap().len(), 1);
}

/// A value whose index entry cannot fit one B-tree entry is refused with a
/// typed error that is not corruption, and leaves nothing half applied:
/// store, tree and oracle still agree on the old value, and `check()` is
/// clean.
#[test]
fn oversized_entry_refuses_set_attr_whole() {
    let mut s = Schema::new();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    let mut db = Database::with_page_size(s, 1024, 256).unwrap();
    let idx = db
        .define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    let v = db.create_object(vehicle).unwrap();
    db.set_attr(v, "Color", Value::Str("Red".into())).unwrap();

    let long = "x".repeat(2000);
    let err = db
        .set_attr(v, "Color", Value::Str(long.clone()))
        .unwrap_err();
    match &err {
        Error::Page(e) => {
            assert!(!e.is_corruption(), "an oversized value is not damage: {e}");
            assert!(matches!(e, pagestore::Error::EntryTooLarge { .. }), "{e}");
        }
        other => panic!("expected a typed page error, got {other:?}"),
    }

    assert_eq!(
        db.store().attr(v, "Color").unwrap(),
        Some(&Value::Str("Red".into())),
        "the store keeps the old value"
    );
    let red = Query::on(idx).value(ValuePred::eq(Value::Str("Red".into())));
    let long_q = Query::on(idx).value(ValuePred::eq(Value::Str(long)));
    for q in [&red, &long_q] {
        let oracle = uindex::oracle::eval(db.planner(), db.store(), q).unwrap();
        assert_eq!(db.query(q).unwrap(), oracle, "tree and oracle agree");
    }
    assert_eq!(db.query(&red).unwrap().len(), 1);
    let report = db.check().unwrap();
    assert!(report.clean() && !report.quarantined, "{report:?}");
}
