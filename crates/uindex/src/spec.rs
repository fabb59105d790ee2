//! Index definitions.
//!
//! One [`IndexSpec`] describes one logical index:
//!
//! * **class-hierarchy index** — one position (the hierarchy root), indexing
//!   an attribute over the root and all its sub-classes;
//! * **path / nested index** — a chain of positions linked by reference
//!   attributes, e.g. `Vehicle.ManufacturedBy → Company.President →
//!   Employee`, indexing `Employee.Age`;
//! * **combined index** — a path whose positions include their sub-classes
//!   (answering queries like "domestic automobiles manufactured by a
//!   Japanese auto company whose president's age is above 50", which neither
//!   classical index can);
//! * **multi-path index** — several paths sharing their lower positions
//!   (§3.3 "Multiple Paths": divisions *and* vehicles of companies by
//!   president's age) stored as a position *forest*.
//!
//! Positions are kept in ascending class-code order, which the encoding
//! guarantees for REF chains; every entry's elements then appear in key
//! order and the clustering properties of §3 hold.

use schema::{AttrId, ClassId, Encoding, Schema};

use crate::error::{Error, Result};

/// One position in an index's path forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// The class anchoring this position (with its sub-tree if the spec
    /// includes sub-classes).
    pub class: ClassId,
    /// Index of the position this one references, `None` for the attribute
    /// owner (position 0).
    pub parent: Option<usize>,
    /// The reference attribute on `class` (or an ancestor) whose value
    /// points at the parent position's object. `None` for position 0.
    pub via: Option<(ClassId, AttrId)>,
}

/// A logical index definition hosted by [`crate::UIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Human-readable name (unique within a [`crate::UIndex`]).
    pub name: String,
    /// The indexed attribute, as (declaring class, attr id). Must be an
    /// indexable (non-reference) attribute resolvable on position 0's class.
    pub attr: (ClassId, AttrId),
    /// The path forest; `positions[0]` owns the indexed attribute.
    pub positions: Vec<PathStep>,
    /// Whether each position covers its whole class sub-tree (true for
    /// class-hierarchy and combined indexes) or only direct instances.
    pub include_subclasses: bool,
}

impl IndexSpec {
    /// A class-hierarchy index: `attr_name` over `root` and all sub-classes.
    pub fn class_hierarchy(name: &str, root: ClassId, attr_name: &str) -> SpecBuilder {
        SpecBuilder {
            name: name.to_string(),
            top: root,
            chain: Vec::new(),
            attr_name: attr_name.to_string(),
            include_subclasses: true,
        }
    }

    /// A path (nested) index described top-down, paper style:
    /// `path("idx", vehicle, &["ManufacturedBy", "President"], "Age")`
    /// indexes `Employee.Age` reachable from `Vehicle`.
    ///
    /// By default sub-classes are included at every position (a *combined*
    /// index); call [`SpecBuilder::exact_classes`] for a classic path index
    /// over the listed classes only.
    pub fn path(name: &str, top: ClassId, refs: &[&str], attr_name: &str) -> SpecBuilder {
        SpecBuilder {
            name: name.to_string(),
            top,
            chain: refs.iter().map(|s| s.to_string()).collect(),
            attr_name: attr_name.to_string(),
            include_subclasses: true,
        }
    }

    /// Whether this index's entries read attribute `attr` (declaring
    /// class, attribute id): it is the indexed attribute or the via
    /// reference of a position. An entry is made of the classes and OIDs
    /// of its positions and the anchor's indexed value, so setting any
    /// other attribute of any object leaves every entry as it was.
    pub fn reads(&self, attr: (ClassId, AttrId)) -> bool {
        self.attr == attr || self.positions.iter().any(|p| p.via == Some(attr))
    }

    /// Merge another spec into this one, sharing equal positions (same
    /// class, same via, same parent chain). Both specs must index the same
    /// attribute and agree on `include_subclasses`. The result is a
    /// multi-path index (§3.3).
    pub fn merge(mut self, other: &IndexSpec) -> Result<IndexSpec> {
        if self.attr != other.attr {
            return Err(Error::BadSpec(
                "multi-path specs must index the same attribute".into(),
            ));
        }
        if self.include_subclasses != other.include_subclasses {
            return Err(Error::BadSpec(
                "multi-path specs must agree on sub-class inclusion".into(),
            ));
        }
        // Map other's position indexes into self.
        let mut mapping: Vec<usize> = Vec::with_capacity(other.positions.len());
        for step in &other.positions {
            let mapped_parent = step.parent.map(|p| mapping[p]);
            let existing = self.positions.iter().position(|s| {
                s.class == step.class && s.via == step.via && s.parent == mapped_parent
            });
            let idx = match existing {
                Some(i) => i,
                None => {
                    self.positions.push(PathStep {
                        class: step.class,
                        parent: mapped_parent,
                        via: step.via,
                    });
                    self.positions.len() - 1
                }
            };
            mapping.push(idx);
        }
        Ok(self)
    }

    /// Validate against the schema and encoding, and normalize: positions
    /// sorted by class code (parents before children), parent indexes
    /// remapped.
    pub fn normalize(&mut self, schema: &Schema, encoding: &Encoding) -> Result<()> {
        if self.positions.is_empty() {
            return Err(Error::BadSpec("index needs at least one position".into()));
        }
        // The catalog records the count as a `u16`.
        if self.positions.len() > usize::from(u16::MAX) {
            return Err(Error::BadSpec("index has too many positions".into()));
        }
        if self.positions[0].parent.is_some() || self.positions[0].via.is_some() {
            return Err(Error::BadSpec(
                "position 0 must be the attribute owner".into(),
            ));
        }
        // Attribute must resolve on position 0's class and be indexable.
        let ty = schema.attr_type(self.attr.0, self.attr.1);
        if ty.ref_target().is_some() {
            return Err(Error::BadSpec(
                "indexed attribute must not be a reference".into(),
            ));
        }
        if !schema.is_subclass_of(self.positions[0].class, self.attr.0) {
            return Err(Error::BadSpec(
                "indexed attribute not declared on position 0's class".into(),
            ));
        }
        // Each non-root position: via attr exists, is a reference, and its
        // target is hierarchy-compatible with the parent's class.
        for (i, step) in self.positions.iter().enumerate().skip(1) {
            let parent = step
                .parent
                .ok_or_else(|| Error::BadSpec(format!("position {i} missing parent")))?;
            if parent >= self.positions.len() {
                return Err(Error::BadSpec(format!("position {i} parent out of range")));
            }
            let (decl, attr) = step
                .via
                .ok_or_else(|| Error::BadSpec(format!("position {i} missing via attr")))?;
            if !schema.is_subclass_of(step.class, decl) {
                return Err(Error::BadSpec(format!(
                    "position {i}: via attribute not declared on its class"
                )));
            }
            let target = schema
                .attr_type(decl, attr)
                .ref_target()
                .ok_or_else(|| Error::BadSpec(format!("position {i}: via is not a reference")))?;
            let pclass = self.positions[parent].class;
            if !schema.is_subclass_of(pclass, target) && !schema.is_subclass_of(target, pclass) {
                return Err(Error::BadSpec(format!(
                    "position {i}: reference target incompatible with parent position"
                )));
            }
        }
        // Sort positions by class code; parents must end up before children.
        let mut order: Vec<usize> = (0..self.positions.len()).collect();
        let code_of = |c: ClassId| -> Result<Vec<u8>> {
            Ok(encoding
                .code(c)
                .ok_or_else(|| Error::BadSpec(format!("class {c:?} has no code")))?
                .as_bytes()
                .to_vec())
        };
        let mut codes = Vec::with_capacity(self.positions.len());
        for s in &self.positions {
            codes.push(code_of(s.class)?);
        }
        order.sort_by(|&a, &b| codes[a].cmp(&codes[b]));
        let mut remap = vec![0usize; order.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = new;
        }
        let mut sorted: Vec<PathStep> = order
            .iter()
            .map(|&old| {
                let s = &self.positions[old];
                PathStep {
                    class: s.class,
                    parent: s.parent.map(|p| remap[p]),
                    via: s.via,
                }
            })
            .collect();
        for (i, s) in sorted.iter().enumerate() {
            if let Some(p) = s.parent {
                if p >= i {
                    return Err(Error::BadSpec(
                        "encoding does not order REF targets before sources on this path; \
                         use a cycle-broken encoding for this index"
                            .into(),
                    ));
                }
            } else if i != 0 {
                return Err(Error::BadSpec(
                    "attribute owner does not have the smallest class code on this path".into(),
                ));
            }
        }
        // Position code regions must be pairwise disjoint so entry elements
        // can be attributed to positions unambiguously.
        let regions = sorted
            .iter()
            .map(|s| encoding.range(s.class, self.include_subclasses))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| Error::BadSpec("class has no code".into()))?;
        for w in regions.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(Error::BadSpec(
                    "position class regions overlap; positions must come from \
                     disjoint sub-trees"
                        .into(),
                ));
            }
        }
        self.positions = std::mem::take(&mut sorted);
        Ok(())
    }
}

/// Ergonomic builder produced by [`IndexSpec::class_hierarchy`] and
/// [`IndexSpec::path`].
pub struct SpecBuilder {
    name: String,
    top: ClassId,
    chain: Vec<String>,
    attr_name: String,
    include_subclasses: bool,
}

impl SpecBuilder {
    /// Restrict every position to its exact class (classic nested/path
    /// index instead of the combined form).
    pub fn exact_classes(mut self) -> Self {
        self.include_subclasses = false;
        self
    }

    /// Resolve names against `schema` and produce the spec.
    ///
    /// The path was given top-down (`Vehicle`, refs `["ManufacturedBy",
    /// "President"]`, attr `"Age"`); the spec stores it attribute-owner
    /// first.
    pub fn build(self, schema: &Schema) -> Result<IndexSpec> {
        // Walk the reference chain downwards to find each position's class.
        let mut chain_classes = vec![self.top];
        let mut vias: Vec<(ClassId, AttrId)> = Vec::new();
        let mut cur = self.top;
        for ref_name in &self.chain {
            let (decl, attr) = schema
                .resolve_attr(cur, ref_name)
                .ok_or_else(|| Error::BadSpec(format!("no attribute {ref_name:?}")))?;
            let target = schema
                .attr_type(decl, attr)
                .ref_target()
                .ok_or_else(|| Error::BadSpec(format!("{ref_name:?} is not a reference")))?;
            vias.push((decl, attr));
            chain_classes.push(target);
            cur = target;
        }
        let owner = *chain_classes.last().expect("non-empty");
        let (attr_decl, attr_id) = schema
            .resolve_attr(owner, &self.attr_name)
            .ok_or_else(|| Error::BadSpec(format!("no attribute {:?}", self.attr_name)))?;
        // Reverse into owner-first order: position i references position
        // i-1 via the chain attribute.
        let n = chain_classes.len();
        let positions: Vec<PathStep> = (0..n)
            .map(|i| {
                let class = chain_classes[n - 1 - i];
                if i == 0 {
                    PathStep {
                        class,
                        parent: None,
                        via: None,
                    }
                } else {
                    PathStep {
                        class,
                        parent: Some(i - 1),
                        via: Some(vias[n - 1 - i]),
                    }
                }
            })
            .collect();
        Ok(IndexSpec {
            name: self.name,
            attr: (attr_decl, attr_id),
            positions,
            include_subclasses: self.include_subclasses,
        })
    }
}
