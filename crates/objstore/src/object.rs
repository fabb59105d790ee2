//! The object store proper.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use schema::{AttrId, AttrType, ClassId, Schema};

use crate::oid::Oid;
use crate::value::{Value, ValueKind};
use crate::{Error, Result};

/// A stored object: its (most specific) class plus attribute values keyed by
/// the attribute's *declaring* class and id.
#[derive(Debug, Clone)]
pub struct Object {
    class: ClassId,
    attrs: BTreeMap<(ClassId, AttrId), Value>,
}

impl Object {
    /// The object's direct class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The attribute value declared at `(class, attr)`, if set.
    pub fn get(&self, class: ClassId, attr: AttrId) -> Option<&Value> {
        self.attrs.get(&(class, attr))
    }

    /// All set attributes.
    pub fn attrs(&self) -> impl Iterator<Item = (&(ClassId, AttrId), &Value)> {
        self.attrs.iter()
    }
}

/// An in-memory object base over a [`Schema`].
#[derive(Debug, Clone)]
pub struct ObjectStore {
    schema: Schema,
    objects: BTreeMap<Oid, Object>,
    extents: HashMap<ClassId, BTreeSet<Oid>>,
    /// target oid → referring (source oid, declaring class, attr).
    reverse: HashMap<Oid, BTreeSet<(Oid, ClassId, AttrId)>>,
    next_oid: u32,
}

impl ObjectStore {
    /// Create an empty store over `schema`.
    pub fn new(schema: Schema) -> Self {
        ObjectStore {
            schema,
            objects: BTreeMap::new(),
            extents: HashMap::new(),
            reverse: HashMap::new(),
            next_oid: 1,
        }
    }

    /// The schema objects conform to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable schema access (for evolution demos). Existing objects are
    /// unaffected; new classes start with empty extents.
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Create an object of `class` with no attributes set.
    pub fn create(&mut self, class: ClassId) -> Result<Oid> {
        if class.0 as usize >= self.schema.num_classes() {
            return Err(Error::UnknownClass(class));
        }
        let oid = Oid(self.next_oid);
        self.next_oid += 1;
        self.objects.insert(
            oid,
            Object {
                class,
                attrs: BTreeMap::new(),
            },
        );
        self.extents.entry(class).or_default().insert(oid);
        Ok(oid)
    }

    /// Create an object with an explicit OID (persistence reload path).
    /// Fails if the OID is taken; future fresh OIDs are allocated above it.
    pub fn create_with_oid(&mut self, oid: Oid, class: ClassId) -> Result<()> {
        if class.0 as usize >= self.schema.num_classes() {
            return Err(Error::UnknownClass(class));
        }
        // The last OID has no successor to allocate fresh ones from.
        let next = oid.0.checked_add(1).ok_or(Error::BadReference(oid))?;
        if self.objects.contains_key(&oid) {
            return Err(Error::BadReference(oid));
        }
        self.objects.insert(
            oid,
            Object {
                class,
                attrs: BTreeMap::new(),
            },
        );
        self.extents.entry(class).or_default().insert(oid);
        self.next_oid = self.next_oid.max(next);
        Ok(())
    }

    /// The object behind `oid`.
    pub fn get(&self, oid: Oid) -> Result<&Object> {
        self.objects.get(&oid).ok_or(Error::UnknownOid(oid))
    }

    /// The direct class of `oid`.
    pub fn class_of(&self, oid: Oid) -> Result<ClassId> {
        Ok(self.get(oid)?.class)
    }

    /// Whether `oid` exists.
    pub fn exists(&self, oid: Oid) -> bool {
        self.objects.contains_key(&oid)
    }

    fn expected_kind(ty: AttrType) -> &'static str {
        match ty {
            AttrType::Int => "Int",
            AttrType::Str => "Str",
            AttrType::Float => "Float",
            AttrType::Bool => "Bool",
            AttrType::Ref(_) => "Ref",
            AttrType::RefSet(_) => "RefSet",
        }
    }

    fn kind_matches(ty: AttrType, kind: ValueKind) -> bool {
        matches!(
            (ty, kind),
            (AttrType::Int, ValueKind::Int)
                | (AttrType::Str, ValueKind::Str)
                | (AttrType::Float, ValueKind::Float)
                | (AttrType::Bool, ValueKind::Bool)
                | (AttrType::Ref(_), ValueKind::Ref)
                | (AttrType::RefSet(_), ValueKind::RefSet)
        )
    }

    /// Set attribute `name` (resolved through inheritance) on `oid`,
    /// returning the previous value.
    ///
    /// Type-checks the value, validates reference targets (object must
    /// exist and be of the declared class or a sub-class), and maintains
    /// the reverse-reference index.
    pub fn set_attr(&mut self, oid: Oid, name: &str, mut value: Value) -> Result<Option<Value>> {
        let class = self.class_of(oid)?;
        let (decl, attr) = self
            .schema
            .resolve_attr(class, name)
            .ok_or_else(|| Error::UnknownAttr(name.to_string()))?;
        let ty = self.schema.attr_type(decl, attr);
        if !Self::kind_matches(ty, value.kind()) {
            return Err(Error::TypeMismatch {
                attr: name.to_string(),
                expected: Self::expected_kind(ty).to_string(),
                got: value.kind().to_string(),
            });
        }
        // Validate and normalize references.
        match (&mut value, ty) {
            (Value::Ref(t), AttrType::Ref(target_class)) => {
                self.check_ref(*t, target_class)?;
            }
            (Value::RefSet(ts), AttrType::RefSet(target_class)) => {
                ts.sort_unstable();
                ts.dedup();
                for t in ts.iter() {
                    self.check_ref(*t, target_class)?;
                }
            }
            _ => {}
        }
        Ok(self.replace(oid, decl, attr, Some(value)))
    }

    /// Put `value` — or no value — back as attribute `name` of `oid`,
    /// without [`ObjectStore::set_attr`]'s checks: the undo of a set whose
    /// effects a layer above refused. Returns the value it replaced.
    pub fn restore_attr(
        &mut self,
        oid: Oid,
        name: &str,
        value: Option<Value>,
    ) -> Result<Option<Value>> {
        let class = self.class_of(oid)?;
        let (decl, attr) = self
            .schema
            .resolve_attr(class, name)
            .ok_or_else(|| Error::UnknownAttr(name.to_string()))?;
        Ok(self.replace(oid, decl, attr, value))
    }

    /// Swap the stored value and the reverse-reference entries it implies.
    fn replace(
        &mut self,
        oid: Oid,
        decl: ClassId,
        attr: AttrId,
        value: Option<Value>,
    ) -> Option<Value> {
        let attrs = &mut self.objects.get_mut(&oid).expect("checked").attrs;
        let old = match &value {
            Some(v) => attrs.insert((decl, attr), v.clone()),
            None => attrs.remove(&(decl, attr)),
        };
        if let Some(old_v) = &old {
            self.unlink(oid, decl, attr, old_v);
        }
        if let Some(v) = &value {
            self.link(oid, decl, attr, v);
        }
        old
    }

    fn check_ref(&self, target: Oid, target_class: ClassId) -> Result<()> {
        let tclass = self
            .objects
            .get(&target)
            .ok_or(Error::BadReference(target))?
            .class;
        if !self.schema.is_subclass_of(tclass, target_class) {
            return Err(Error::BadReference(target));
        }
        Ok(())
    }

    fn link(&mut self, source: Oid, decl: ClassId, attr: AttrId, value: &Value) {
        match value {
            Value::Ref(t) => {
                self.reverse
                    .entry(*t)
                    .or_default()
                    .insert((source, decl, attr));
            }
            Value::RefSet(ts) => {
                for t in ts {
                    self.reverse
                        .entry(*t)
                        .or_default()
                        .insert((source, decl, attr));
                }
            }
            _ => {}
        }
    }

    fn unlink(&mut self, source: Oid, decl: ClassId, attr: AttrId, value: &Value) {
        match value {
            Value::Ref(t) => {
                if let Some(set) = self.reverse.get_mut(t) {
                    set.remove(&(source, decl, attr));
                }
            }
            Value::RefSet(ts) => {
                for t in ts {
                    if let Some(set) = self.reverse.get_mut(t) {
                        set.remove(&(source, decl, attr));
                    }
                }
            }
            _ => {}
        }
    }

    /// Read attribute `name` (resolved through inheritance) on `oid`.
    pub fn attr(&self, oid: Oid, name: &str) -> Result<Option<&Value>> {
        let obj = self.get(oid)?;
        let (decl, attr) = self
            .schema
            .resolve_attr(obj.class, name)
            .ok_or_else(|| Error::UnknownAttr(name.to_string()))?;
        Ok(obj.get(decl, attr))
    }

    /// Follow a single-valued reference attribute.
    pub fn follow_ref(&self, oid: Oid, name: &str) -> Result<Option<Oid>> {
        match self.attr(oid, name)? {
            Some(Value::Ref(t)) => Ok(Some(*t)),
            _ => Ok(None),
        }
    }

    /// Delete `oid`. Fails with [`Error::StillReferenced`] if other objects
    /// reference it (pass `force = true` to leave dangling references, which
    /// index maintenance tests use).
    pub fn delete(&mut self, oid: Oid, force: bool) -> Result<Object> {
        if !self.exists(oid) {
            return Err(Error::UnknownOid(oid));
        }
        if !force && self.reverse.get(&oid).is_some_and(|s| !s.is_empty()) {
            return Err(Error::StillReferenced(oid));
        }
        let obj = self.objects.remove(&oid).expect("checked");
        for ((decl, attr), v) in &obj.attrs {
            self.unlink(oid, *decl, *attr, v);
        }
        self.extents
            .get_mut(&obj.class)
            .expect("in extent")
            .remove(&oid);
        Ok(obj)
    }

    /// Direct instances of `class` (no sub-classes), in OID order.
    pub fn extent(&self, class: ClassId) -> Vec<Oid> {
        self.extents
            .get(&class)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Instances of `class` and all its sub-classes, in OID order.
    pub fn extent_deep(&self, class: ClassId) -> Vec<Oid> {
        let mut out = BTreeSet::new();
        for c in self.schema.subtree(class) {
            if let Some(s) = self.extents.get(&c) {
                out.extend(s.iter().copied());
            }
        }
        out.into_iter().collect()
    }

    /// Objects referencing `target`, as (source oid, declaring class, attr).
    pub fn referrers(&self, target: Oid) -> Vec<(Oid, ClassId, AttrId)> {
        self.reverse
            .get(&target)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All live OIDs in order.
    pub fn oids(&self) -> impl Iterator<Item = Oid> + '_ {
        self.objects.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::AttrType;

    fn setup() -> (ObjectStore, ClassId, ClassId, ClassId) {
        let mut s = Schema::new();
        let emp = s.add_class("Employee").unwrap();
        s.add_attr(emp, "Age", AttrType::Int).unwrap();
        let com = s.add_class("Company").unwrap();
        s.add_attr(com, "Name", AttrType::Str).unwrap();
        s.add_attr(com, "President", AttrType::Ref(emp)).unwrap();
        let veh = s.add_class("Vehicle").unwrap();
        s.add_attr(veh, "Color", AttrType::Str).unwrap();
        s.add_attr(veh, "MadeBy", AttrType::Ref(com)).unwrap();
        (ObjectStore::new(s), emp, com, veh)
    }

    #[test]
    fn create_and_attrs() {
        let (mut db, emp, ..) = setup();
        let e = db.create(emp).unwrap();
        assert!(db.exists(e));
        assert_eq!(db.set_attr(e, "Age", Value::Int(50)).unwrap(), None);
        assert_eq!(db.attr(e, "Age").unwrap(), Some(&Value::Int(50)));
        assert_eq!(
            db.set_attr(e, "Age", Value::Int(51)).unwrap(),
            Some(Value::Int(50))
        );
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn type_checking() {
        let (mut db, emp, ..) = setup();
        let e = db.create(emp).unwrap();
        assert!(matches!(
            db.set_attr(e, "Age", Value::Str("old".into())),
            Err(Error::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.set_attr(e, "Salary", Value::Int(1)),
            Err(Error::UnknownAttr(_))
        ));
    }

    #[test]
    fn references_and_reverse_index() {
        let (mut db, emp, com, veh) = setup();
        let e = db.create(emp).unwrap();
        let c = db.create(com).unwrap();
        let v = db.create(veh).unwrap();
        db.set_attr(c, "President", Value::Ref(e)).unwrap();
        db.set_attr(v, "MadeBy", Value::Ref(c)).unwrap();
        assert_eq!(db.follow_ref(v, "MadeBy").unwrap(), Some(c));
        assert_eq!(db.referrers(e).len(), 1);
        assert_eq!(db.referrers(c).len(), 1);
        // Re-pointing updates the reverse index.
        let e2 = db.create(emp).unwrap();
        db.set_attr(c, "President", Value::Ref(e2)).unwrap();
        assert!(db.referrers(e).is_empty());
        assert_eq!(db.referrers(e2).len(), 1);
    }

    #[test]
    fn bad_references_rejected() {
        let (mut db, emp, com, veh) = setup();
        let e = db.create(emp).unwrap();
        let v = db.create(veh).unwrap();
        // Wrong class.
        assert!(matches!(
            db.set_attr(v, "MadeBy", Value::Ref(e)),
            Err(Error::BadReference(_))
        ));
        // Nonexistent target.
        let c = db.create(com).unwrap();
        assert!(matches!(
            db.set_attr(c, "President", Value::Ref(Oid(999))),
            Err(Error::BadReference(_))
        ));
    }

    #[test]
    fn delete_and_integrity() {
        let (mut db, emp, com, _) = setup();
        let e = db.create(emp).unwrap();
        let c = db.create(com).unwrap();
        db.set_attr(c, "President", Value::Ref(e)).unwrap();
        assert!(matches!(
            db.delete(e, false),
            Err(Error::StillReferenced(_))
        ));
        db.delete(c, false).unwrap();
        // Deleting the referrer unlinked the reverse entry.
        db.delete(e, false).unwrap();
        assert!(db.is_empty());
        assert!(matches!(db.delete(e, false), Err(Error::UnknownOid(_))));
    }

    #[test]
    fn extents_and_inheritance() {
        let mut s = Schema::new();
        let veh = s.add_class("Vehicle").unwrap();
        s.add_attr(veh, "Color", AttrType::Str).unwrap();
        let auto = s.add_subclass("Automobile", veh).unwrap();
        let compact = s.add_subclass("Compact", auto).unwrap();
        let mut db = ObjectStore::new(s);
        let v = db.create(veh).unwrap();
        let a = db.create(auto).unwrap();
        let k = db.create(compact).unwrap();
        assert_eq!(db.extent(veh), vec![v]);
        assert_eq!(db.extent_deep(veh), vec![v, a, k]);
        assert_eq!(db.extent_deep(auto), vec![a, k]);
        // Inherited attribute settable on the sub-class instance.
        db.set_attr(k, "Color", Value::Str("Red".into())).unwrap();
        assert_eq!(
            db.attr(k, "Color").unwrap(),
            Some(&Value::Str("Red".into()))
        );
    }

    #[test]
    fn refset_normalized() {
        let mut s = Schema::new();
        let emp = s.add_class("Employee").unwrap();
        let veh = s.add_class("Vehicle").unwrap();
        s.add_attr(emp, "Owns", AttrType::RefSet(veh)).unwrap();
        let mut db = ObjectStore::new(s);
        let e = db.create(emp).unwrap();
        let v1 = db.create(veh).unwrap();
        let v2 = db.create(veh).unwrap();
        db.set_attr(e, "Owns", Value::RefSet(vec![v2, v1, v2]))
            .unwrap();
        assert_eq!(
            db.attr(e, "Owns").unwrap(),
            Some(&Value::RefSet(vec![v1, v2]))
        );
        assert_eq!(db.referrers(v1).len(), 1);
        assert_eq!(db.referrers(v2).len(), 1);
    }
}
