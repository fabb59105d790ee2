//! Classes, attributes, and the SUP/REF schema graph.

use std::collections::{HashMap, HashSet};

use crate::error::{Error, Result};
use crate::stamp::Stamp;

/// Identifier of a class within a [`Schema`] (dense, insertion-ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

/// Identifier of an attribute within its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

/// Attribute types. `Ref` is a single-valued reference — the m:1 REF
/// relationship of the paper — and `RefSet` a multi-valued reference
/// (the paper's §4.3 multi-value attribute case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrType {
    /// 64-bit integer.
    Int,
    /// UTF-8 string.
    Str,
    /// 64-bit float (total-order encoded in indexes).
    Float,
    /// Boolean.
    Bool,
    /// Single-valued reference to another class: `source REF target`.
    Ref(ClassId),
    /// Multi-valued reference to another class.
    RefSet(ClassId),
}

impl AttrType {
    /// The referenced class, for `Ref`/`RefSet`.
    pub fn ref_target(&self) -> Option<ClassId> {
        match self {
            AttrType::Ref(c) | AttrType::RefSet(c) => Some(*c),
            _ => None,
        }
    }
}

/// A REF relationship in the schema graph: `source` holds a reference
/// attribute (`attr`) whose values are objects of `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefEdge {
    /// The referencing ("many") class.
    pub source: ClassId,
    /// The reference attribute on `source`.
    pub attr: AttrId,
    /// The referenced ("one") class.
    pub target: ClassId,
    /// Whether the attribute is multi-valued.
    pub multi: bool,
}

#[derive(Debug, Clone)]
struct AttrData {
    name: String,
    ty: AttrType,
}

#[derive(Debug, Clone)]
struct ClassData {
    name: String,
    parents: Vec<ClassId>,
    children: Vec<ClassId>,
    attrs: Vec<AttrData>,
}

/// An OODB schema: a set of classes with attributes, connected by SUP
/// (is-a) and REF (reference) relationships.
///
/// SUP edges form a DAG (multiple inheritance allowed, cycles rejected).
/// REF edges are induced by `Ref`/`RefSet` attributes.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    classes: Vec<ClassData>,
    by_name: HashMap<String, ClassId>,
    /// Every `(class, attribute name)` declared, so that a class with many
    /// attributes is not searched end to end for each new one.
    attr_names: HashSet<(ClassId, String)>,
    /// Changed by every `&mut` method (see [`Stamp`]).
    stamp: Stamp,
}

/// Longest class, attribute or index name, in bytes: the catalog records
/// a name's length as a `u16`.
pub const NAME_MAX: usize = u16::MAX as usize;

/// Most attributes a class may declare, and most parents it may have: the
/// catalog records each one's ordinal as a `u16`.
pub const MEMBERS_MAX: usize = u16::MAX as usize + 1;

/// Refuse a name longer than [`NAME_MAX`] bytes with
/// [`Error::NameTooLong`].
pub fn check_name(name: &str) -> Result<()> {
    if name.len() > NAME_MAX {
        return Err(Error::NameTooLong(name.len()));
    }
    Ok(())
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// The stamp of this content: equal stamps mean equal schemas.
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// All class ids in insertion order.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> {
        (0..self.classes.len() as u32).map(ClassId)
    }

    fn data(&self, id: ClassId) -> Result<&ClassData> {
        self.classes
            .get(id.0 as usize)
            .ok_or(Error::UnknownClass(id))
    }

    /// Add a top-level class (a new hierarchy root).
    pub fn add_class(&mut self, name: &str) -> Result<ClassId> {
        check_name(name)?;
        self.stamp = Stamp::fresh();
        if self.by_name.contains_key(name) {
            return Err(Error::DuplicateClass(name.to_string()));
        }
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ClassData {
            name: name.to_string(),
            parents: Vec::new(),
            children: Vec::new(),
            attrs: Vec::new(),
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Add a class as a sub-class of `parent`.
    pub fn add_subclass(&mut self, name: &str, parent: ClassId) -> Result<ClassId> {
        self.data(parent)?;
        let id = self.add_class(name)?;
        self.classes[id.0 as usize].parents.push(parent);
        self.classes[parent.0 as usize].children.push(id);
        Ok(id)
    }

    /// Add an additional parent (multiple inheritance). Rejects is-a cycles.
    pub fn add_parent(&mut self, class: ClassId, parent: ClassId) -> Result<()> {
        self.stamp = Stamp::fresh();
        self.data(class)?;
        self.data(parent)?;
        if class == parent || self.is_subclass_of(parent, class) {
            return Err(Error::HierarchyCycle(class));
        }
        // The edge is in both lists; a parent's children are usually the
        // shorter one to search.
        if !self.classes[parent.0 as usize].children.contains(&class) {
            if self.classes[class.0 as usize].parents.len() >= MEMBERS_MAX {
                return Err(Error::TooManyParents(class));
            }
            self.classes[class.0 as usize].parents.push(parent);
            self.classes[parent.0 as usize].children.push(class);
        }
        Ok(())
    }

    /// Declare an attribute on `class`. `Ref`/`RefSet` types create REF
    /// edges in the schema graph.
    pub fn add_attr(&mut self, class: ClassId, name: &str, ty: AttrType) -> Result<AttrId> {
        check_name(name)?;
        self.stamp = Stamp::fresh();
        if let Some(target) = ty.ref_target() {
            self.data(target)?;
        }
        let data = self.data(class)?;
        let key = (class, name.to_string());
        if self.attr_names.contains(&key) {
            return Err(Error::DuplicateAttr(name.to_string()));
        }
        if data.attrs.len() >= MEMBERS_MAX {
            return Err(Error::TooManyAttrs(class));
        }
        let id = AttrId(data.attrs.len() as u32);
        self.classes[class.0 as usize].attrs.push(AttrData {
            name: name.to_string(),
            ty,
        });
        self.attr_names.insert(key);
        Ok(id)
    }

    /// Class name.
    pub fn class_name(&self, id: ClassId) -> &str {
        &self.classes[id.0 as usize].name
    }

    /// Look up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// Direct parents (empty for hierarchy roots).
    pub fn parents(&self, id: ClassId) -> &[ClassId] {
        &self.classes[id.0 as usize].parents
    }

    /// Direct children in insertion order.
    pub fn children(&self, id: ClassId) -> &[ClassId] {
        &self.classes[id.0 as usize].children
    }

    /// Attribute name.
    pub fn attr_name(&self, class: ClassId, attr: AttrId) -> &str {
        &self.classes[class.0 as usize].attrs[attr.0 as usize].name
    }

    /// Attribute type.
    pub fn attr_type(&self, class: ClassId, attr: AttrId) -> AttrType {
        self.classes[class.0 as usize].attrs[attr.0 as usize].ty
    }

    /// Attributes declared directly on `class`.
    pub fn own_attrs(&self, class: ClassId) -> impl Iterator<Item = (AttrId, &str, AttrType)> {
        self.classes[class.0 as usize]
            .attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (AttrId(i as u32), a.name.as_str(), a.ty))
    }

    /// Resolve an attribute by name on `class`, searching inherited
    /// attributes (first-parent order) when not declared directly. Returns
    /// the declaring class together with the attribute id.
    pub fn resolve_attr(&self, class: ClassId, name: &str) -> Option<(ClassId, AttrId)> {
        let data = &self.classes[class.0 as usize];
        if let Some(i) = data.attrs.iter().position(|a| a.name == name) {
            return Some((class, AttrId(i as u32)));
        }
        for &p in &data.parents {
            if let Some(found) = self.resolve_attr(p, name) {
                return Some(found);
            }
        }
        None
    }

    /// Whether `a` is `b` or a (transitive) sub-class of `b`.
    pub fn is_subclass_of(&self, a: ClassId, b: ClassId) -> bool {
        if a == b {
            return true;
        }
        self.classes[a.0 as usize]
            .parents
            .iter()
            .any(|&p| self.is_subclass_of(p, b))
    }

    /// The hierarchy root above `id` (following first parents).
    pub fn hierarchy_root(&self, id: ClassId) -> ClassId {
        match self.classes[id.0 as usize].parents.first() {
            Some(&p) => self.hierarchy_root(p),
            None => id,
        }
    }

    /// Hierarchy roots (classes without parents) in insertion order.
    pub fn roots(&self) -> Vec<ClassId> {
        self.class_ids()
            .filter(|&c| self.parents(c).is_empty())
            .collect()
    }

    /// Pre-order walk of the sub-tree rooted at `id` (following
    /// first-parent children only, so multiply-inherited classes appear
    /// under their first parent).
    pub fn subtree(&self, id: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        self.subtree_rec(id, &mut out);
        out
    }

    fn subtree_rec(&self, id: ClassId, out: &mut Vec<ClassId>) {
        out.push(id);
        for &c in self.children(id) {
            // Only recurse through primary-parent children; secondary
            // (multiple-inheritance) children live under their first parent.
            if self.classes[c.0 as usize].parents.first() == Some(&id) {
                self.subtree_rec(c, out);
            }
        }
    }

    /// All REF edges induced by reference attributes.
    pub fn ref_edges(&self) -> Vec<RefEdge> {
        let mut out = Vec::new();
        for c in self.class_ids() {
            for (attr, _, ty) in self.own_attrs(c) {
                if let Some(target) = ty.ref_target() {
                    out.push(RefEdge {
                        source: c,
                        attr,
                        target,
                        multi: matches!(ty, AttrType::RefSet(_)),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Schema, ClassId, ClassId, ClassId, ClassId) {
        let mut s = Schema::new();
        let vehicle = s.add_class("Vehicle").unwrap();
        let auto = s.add_subclass("Automobile", vehicle).unwrap();
        let truck = s.add_subclass("Truck", vehicle).unwrap();
        let compact = s.add_subclass("Compact", auto).unwrap();
        (s, vehicle, auto, truck, compact)
    }

    #[test]
    fn names_and_lookup() {
        let (s, vehicle, auto, ..) = sample();
        assert_eq!(s.class_name(vehicle), "Vehicle");
        assert_eq!(s.class_by_name("Automobile"), Some(auto));
        assert_eq!(s.class_by_name("Nope"), None);
        assert_eq!(s.num_classes(), 4);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut s = Schema::new();
        s.add_class("A").unwrap();
        assert!(matches!(s.add_class("A"), Err(Error::DuplicateClass(_))));
    }

    #[test]
    fn subclass_relationships() {
        let (s, vehicle, auto, truck, compact) = sample();
        assert!(s.is_subclass_of(compact, vehicle));
        assert!(s.is_subclass_of(compact, auto));
        assert!(!s.is_subclass_of(compact, truck));
        assert!(s.is_subclass_of(vehicle, vehicle));
        assert!(!s.is_subclass_of(vehicle, auto));
        assert_eq!(s.hierarchy_root(compact), vehicle);
        assert_eq!(s.roots(), vec![vehicle]);
    }

    #[test]
    fn subtree_preorder() {
        let (s, vehicle, auto, truck, compact) = sample();
        assert_eq!(s.subtree(vehicle), vec![vehicle, auto, compact, truck]);
        assert_eq!(s.subtree(auto), vec![auto, compact]);
        assert_eq!(s.subtree(truck), vec![truck]);
    }

    #[test]
    fn hierarchy_cycle_rejected() {
        let (mut s, vehicle, _, _, compact) = sample();
        assert!(matches!(
            s.add_parent(vehicle, compact),
            Err(Error::HierarchyCycle(_))
        ));
        assert!(matches!(
            s.add_parent(vehicle, vehicle),
            Err(Error::HierarchyCycle(_))
        ));
    }

    #[test]
    fn multiple_inheritance() {
        let (mut s, vehicle, auto, truck, _) = sample();
        let amphibious = s.add_subclass("Amphibious", auto).unwrap();
        s.add_parent(amphibious, truck).unwrap();
        assert!(s.is_subclass_of(amphibious, auto));
        assert!(s.is_subclass_of(amphibious, truck));
        // Appears only under its first parent in the pre-order walk.
        let sub = s.subtree(vehicle);
        assert_eq!(sub.iter().filter(|&&c| c == amphibious).count(), 1);
    }

    #[test]
    fn attrs_and_resolution() {
        let (mut s, vehicle, auto, _, compact) = sample();
        let color = s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
        s.add_attr(auto, "Doors", AttrType::Int).unwrap();
        assert!(matches!(
            s.add_attr(vehicle, "Color", AttrType::Str),
            Err(Error::DuplicateAttr(_))
        ));
        // Inherited resolution finds the declaring class.
        assert_eq!(s.resolve_attr(compact, "Color"), Some((vehicle, color)));
        assert!(s.resolve_attr(compact, "Doors").is_some());
        assert_eq!(s.resolve_attr(vehicle, "Doors"), None);
        assert_eq!(s.attr_name(vehicle, color), "Color");
    }

    #[test]
    fn ref_edges_from_attrs() {
        let mut s = Schema::new();
        let emp = s.add_class("Employee").unwrap();
        let com = s.add_class("Company").unwrap();
        let veh = s.add_class("Vehicle").unwrap();
        s.add_attr(com, "President", AttrType::Ref(emp)).unwrap();
        s.add_attr(veh, "MadeBy", AttrType::Ref(com)).unwrap();
        s.add_attr(veh, "Owners", AttrType::RefSet(emp)).unwrap();
        let edges = s.ref_edges();
        assert_eq!(edges.len(), 3);
        assert!(edges
            .iter()
            .any(|e| e.source == com && e.target == emp && !e.multi));
        assert!(edges
            .iter()
            .any(|e| e.source == veh && e.target == emp && e.multi));
    }
}
