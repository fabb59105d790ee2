//! A class holds at most [`schema::MEMBERS_MAX`] attributes and parents —
//! the widest ordinal the catalog records — and the next is a typed
//! refusal that changes nothing.

use schema::{AttrType, ClassId, Error, Schema, MEMBERS_MAX};

#[test]
fn attributes_beyond_members_max_are_refused() {
    let mut s = Schema::new();
    let wide = s.add_class("Wide").unwrap();
    for i in 0..MEMBERS_MAX {
        s.add_attr(wide, &format!("a{i}"), AttrType::Int).unwrap();
    }
    assert_eq!(
        s.add_attr(wide, "one_more", AttrType::Int),
        Err(Error::TooManyAttrs(wide))
    );
    assert!(s.resolve_attr(wide, "one_more").is_none());
    assert_eq!(s.own_attrs(wide).count(), MEMBERS_MAX);
}

#[test]
fn parents_beyond_members_max_are_refused() {
    let mut s = Schema::new();
    let parents: Vec<ClassId> = (0..=MEMBERS_MAX)
        .map(|i| s.add_class(&format!("P{i}")).unwrap())
        .collect();
    let child = s.add_subclass("Child", parents[0]).unwrap();
    for &p in &parents[1..MEMBERS_MAX] {
        s.add_parent(child, p).unwrap();
    }
    assert_eq!(
        s.add_parent(child, parents[MEMBERS_MAX]),
        Err(Error::TooManyParents(child))
    );
    s.add_parent(child, parents[1]).unwrap(); // already a parent: no change
    assert_eq!(s.parents(child).len(), MEMBERS_MAX);
}
