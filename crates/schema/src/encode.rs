//! Code assignment: the paper's `COD` relation.
//!
//! [`Encoding::generate`] orders hierarchy roots by a topological sort of the
//! contracted REF graph (targets before sources, so `Employee < Company <
//! Vehicle`), then assigns prefix codes down each hierarchy in pre-order.
//! [`Encoding::assign_class`] and [`Encoding::assign_root`] implement schema
//! evolution (Fig. 4) by fractional insertion, never renaming existing
//! classes.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ops::Bound::{Excluded, Unbounded};

use crate::code::ClassCode;
use crate::error::{Error, Result};
use crate::frac;
use crate::model::{AttrId, ClassId, RefEdge, Schema};
use crate::stamp::Stamp;

/// An assignment of [`ClassCode`]s to (a subset of) a schema's classes.
#[derive(Debug, Clone, Default)]
pub struct Encoding {
    codes: Vec<Option<ClassCode>>,
    by_code: BTreeMap<Vec<u8>, ClassId>,
    /// Changed by every code assignment (see [`Stamp`]).
    stamp: Stamp,
}

impl Encoding {
    /// Generate codes for every class, honouring all REF edges.
    ///
    /// Fails with [`Error::RefCycle`] if the contracted REF graph is cyclic;
    /// use [`crate::cycles::partition_acyclic`] to split the edges and
    /// generate one encoding per group (paper §4.3).
    pub fn generate(schema: &Schema) -> Result<Encoding> {
        Self::generate_ignoring(schema, &HashSet::new())
    }

    /// Like [`Encoding::generate`] but ignoring the given REF edges
    /// (identified by `(source, attr)`) when ordering hierarchy roots.
    pub fn generate_ignoring(
        schema: &Schema,
        ignored: &HashSet<(ClassId, AttrId)>,
    ) -> Result<Encoding> {
        let roots = schema.roots();
        let order = topo_order_roots(schema, &roots, ignored)?;
        let comps = frac::sequence(order.len());
        let mut enc = Encoding {
            codes: vec![None; schema.num_classes()],
            by_code: BTreeMap::new(),
            stamp: Stamp::fresh(),
        };
        for (root, comp) in order.iter().zip(comps) {
            let code = ClassCode::root(&comp);
            enc.assign_subtree(schema, *root, code);
        }
        Ok(enc)
    }

    fn assign_subtree(&mut self, schema: &Schema, class: ClassId, code: ClassCode) {
        let children: Vec<ClassId> = schema
            .children(class)
            .iter()
            .copied()
            .filter(|&c| schema.parents(c).first() == Some(&class))
            .collect();
        let comps = frac::sequence(children.len());
        self.set(class, code.clone());
        for (child, comp) in children.iter().zip(comps) {
            self.assign_subtree(schema, *child, code.child(&comp));
        }
    }

    fn set(&mut self, class: ClassId, code: ClassCode) {
        self.stamp = Stamp::fresh();
        self.by_code.insert(code.as_bytes().to_vec(), class);
        if class.0 as usize >= self.codes.len() {
            // Schema evolution adds classes after generation.
            self.codes.resize(class.0 as usize + 1, None);
        }
        self.codes[class.0 as usize] = Some(code);
    }

    /// Install a known code directly (used when reloading an encoding from
    /// a persisted catalog). The caller is responsible for the code's
    /// consistency with the schema.
    pub fn set_raw(&mut self, class: ClassId, code: ClassCode) {
        self.set(class, code);
    }

    /// The stamp of this content: equal stamps mean equal encodings.
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// The code of `class`, if assigned.
    pub fn code(&self, class: ClassId) -> Option<&ClassCode> {
        self.codes.get(class.0 as usize)?.as_ref()
    }

    /// Reverse lookup: the class owning exactly this code encoding.
    pub fn class_by_code(&self, bytes: &[u8]) -> Option<ClassId> {
        self.by_code.get(bytes).copied()
    }

    /// All `(code, class)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], ClassId)> {
        self.by_code.iter().map(|(b, c)| (b.as_slice(), *c))
    }

    /// The byte range `[lo, hi)` covering the class and its entire coded
    /// sub-tree.
    pub fn subtree_range(&self, class: ClassId) -> Option<(Vec<u8>, Vec<u8>)> {
        let code = self.code(class)?;
        Some((code.as_bytes().to_vec(), code.subtree_end()))
    }

    /// Schema evolution, Fig. 4a: assign a code to a newly added class whose
    /// parent (or root status) already exists in this encoding. The new
    /// component is placed after the last encoded sibling.
    pub fn assign_class(&mut self, schema: &Schema, class: ClassId) -> Result<&ClassCode> {
        if self.code(class).is_some() {
            return Err(Error::AlreadyEncoded(class));
        }
        let parent = match schema.parents(class).first() {
            Some(&p) => p,
            None => return self.assign_root(schema, class),
        };
        let parent_code = self
            .code(parent)
            .ok_or(Error::ParentNotEncoded(class))?
            .clone();
        // Last existing sibling component under this parent.
        let last_sibling_comp: Option<Vec<u8>> = schema
            .children(parent)
            .iter()
            .filter(|&&c| c != class)
            .filter_map(|&c| self.code(c))
            .filter(|c| c.parent().as_ref() == Some(&parent_code))
            .map(|c| c.last_component().to_vec())
            .max();
        let comp = frac::between(last_sibling_comp.as_deref(), None);
        self.set(class, parent_code.child(&comp));
        Ok(self.code(class).expect("just set"))
    }

    /// Schema evolution, Fig. 4b: assign a root component to a new
    /// hierarchy root, positioned between the REF targets it references and
    /// the REF sources referencing it.
    pub fn assign_root(&mut self, schema: &Schema, class: ClassId) -> Result<&ClassCode> {
        if self.code(class).is_some() {
            return Err(Error::AlreadyEncoded(class));
        }
        // Lower bound: the largest root component among hierarchies this
        // class's hierarchy references. Upper bound: the smallest root
        // component among hierarchies referencing it.
        let mut lo: Option<Vec<u8>> = None;
        let mut hi: Option<Vec<u8>> = None;
        for e in schema.ref_edges() {
            let src_root = schema.hierarchy_root(e.source);
            let tgt_root = schema.hierarchy_root(e.target);
            if src_root == class && tgt_root != class {
                if let Some(code) = self.code(tgt_root) {
                    let comp = code.components().next().unwrap().to_vec();
                    lo = Some(lo.map_or(comp.clone(), |l: Vec<u8>| l.max(comp)));
                }
            } else if tgt_root == class && src_root != class {
                if let Some(code) = self.code(src_root) {
                    let comp = code.components().next().unwrap().to_vec();
                    hi = Some(hi.map_or(comp.clone(), |h: Vec<u8>| h.min(comp)));
                }
            }
        }
        if let (Some(l), Some(h)) = (&lo, &hi) {
            if l >= h {
                return Err(Error::NoRoomForRoot(class));
            }
        }
        // Narrow the open side to the existing root next to the given one,
        // so that no existing root lies between the bounds and the new
        // component cannot be one of theirs. Unconstrained, the new root
        // goes after the last one.
        let roots: BTreeSet<Vec<u8>> = self
            .by_code
            .values()
            .filter_map(|&c| self.code(c))
            .filter(|c| c.depth() == 1)
            .map(|c| c.last_component().to_vec())
            .collect();
        match (&lo, &hi) {
            (Some(l), _) => {
                let above = roots.range::<Vec<u8>, _>((Excluded(l), Unbounded)).next();
                if let Some(next) = above.filter(|&n| hi.as_ref().is_none_or(|h| n < h)) {
                    hi = Some(next.clone());
                }
            }
            (None, Some(h)) => lo = roots.range::<Vec<u8>, _>(..h).next_back().cloned(),
            (None, None) => lo = roots.last().cloned(),
        }
        let comp = frac::between(lo.as_deref(), hi.as_deref());
        self.set(class, ClassCode::root(&comp));
        Ok(self.code(class).expect("just set"))
    }

    /// Verify the paper's two ordering properties over this encoding:
    /// pre-order equals code order within every hierarchy, and (for
    /// non-ignored REF edges) target roots sort before source roots.
    pub fn verify(&self, schema: &Schema, ignored: &HashSet<(ClassId, AttrId)>) -> Result<()> {
        for root in schema.roots() {
            let pre = schema.subtree(root);
            let mut sorted = pre.clone();
            sorted.sort_by(|a, b| {
                self.code(*a)
                    .map(|c| c.as_bytes().to_vec())
                    .cmp(&self.code(*b).map(|c| c.as_bytes().to_vec()))
            });
            if pre != sorted {
                return Err(Error::RefCycle(vec![])); // ordering property violated
            }
        }
        for e in schema.ref_edges() {
            if ignored.contains(&(e.source, e.attr)) {
                continue;
            }
            let (sr, tr) = (
                schema.hierarchy_root(e.source),
                schema.hierarchy_root(e.target),
            );
            if sr == tr {
                continue; // intra-hierarchy reference: no ordering demanded
            }
            if let (Some(s), Some(t)) = (self.code(sr), self.code(tr)) {
                if t.as_bytes() >= s.as_bytes() {
                    return Err(Error::RefCycle(vec![e]));
                }
            }
        }
        Ok(())
    }
}

/// Topologically order hierarchy roots so that REF targets come before REF
/// sources. Stable: ties broken by class insertion order.
fn topo_order_roots(
    schema: &Schema,
    roots: &[ClassId],
    ignored: &HashSet<(ClassId, AttrId)>,
) -> Result<Vec<ClassId>> {
    let index: BTreeMap<ClassId, usize> = roots.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let n = roots.len();
    // adj[t] -> sources that must come after t.
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut in_deg = vec![0usize; n];
    let mut edge_set = HashSet::new();
    let mut relevant_edges: Vec<RefEdge> = Vec::new();
    for e in schema.ref_edges() {
        if ignored.contains(&(e.source, e.attr)) {
            continue;
        }
        let s = index[&schema.hierarchy_root(e.source)];
        let t = index[&schema.hierarchy_root(e.target)];
        if s == t {
            continue;
        }
        relevant_edges.push(e);
        if edge_set.insert((t, s)) {
            out_edges[t].push(s);
            in_deg[s] += 1;
        }
    }
    // Kahn with a sorted frontier for determinism.
    let mut frontier: Vec<usize> = (0..n).filter(|&i| in_deg[i] == 0).collect();
    frontier.sort_unstable();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = frontier.first().copied() {
        frontier.remove(0);
        order.push(roots[i]);
        for &j in &out_edges[i] {
            in_deg[j] -= 1;
            if in_deg[j] == 0 {
                let pos = frontier.partition_point(|&k| k < j);
                frontier.insert(pos, j);
            }
        }
    }
    if order.len() != n {
        // Report the edges among the remaining (cyclic) roots.
        let stuck: HashSet<ClassId> = roots
            .iter()
            .filter(|r| !order.contains(r))
            .copied()
            .collect();
        let edges = relevant_edges
            .into_iter()
            .filter(|e| {
                stuck.contains(&schema.hierarchy_root(e.source))
                    && stuck.contains(&schema.hierarchy_root(e.target))
            })
            .collect();
        return Err(Error::RefCycle(edges));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AttrType;

    /// The paper's Figure 1 schema (City, Employee, Company, Division,
    /// Vehicle with sub-hierarchies).
    fn paper_schema() -> (Schema, Vec<ClassId>) {
        let mut s = Schema::new();
        let employee = s.add_class("Employee").unwrap();
        s.add_attr(employee, "Age", AttrType::Int).unwrap();
        let city = s.add_class("City").unwrap();
        let company = s.add_class("Company").unwrap();
        s.add_attr(company, "President", AttrType::Ref(employee))
            .unwrap();
        let division = s.add_class("Division").unwrap();
        s.add_attr(division, "Belong", AttrType::Ref(company))
            .unwrap();
        s.add_attr(division, "LocatedIn", AttrType::Ref(city))
            .unwrap();
        let vehicle = s.add_class("Vehicle").unwrap();
        s.add_attr(vehicle, "ManufacturedBy", AttrType::Ref(company))
            .unwrap();
        s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
        let auto = s.add_subclass("Automobile", vehicle).unwrap();
        let truck = s.add_subclass("Truck", vehicle).unwrap();
        let compact = s.add_subclass("CompactAutomobile", auto).unwrap();
        let auto_co = s.add_subclass("AutoCompany", company).unwrap();
        let truck_co = s.add_subclass("TruckCompany", company).unwrap();
        let jap_co = s.add_subclass("JapaneseAutoCompany", auto_co).unwrap();
        (
            s,
            vec![
                employee, city, company, division, vehicle, auto, truck, compact, auto_co,
                truck_co, jap_co,
            ],
        )
    }

    #[test]
    fn paper_ordering_properties() {
        let (s, ids) = paper_schema();
        let enc = Encoding::generate(&s).unwrap();
        enc.verify(&s, &HashSet::new()).unwrap();
        let code = |i: usize| enc.code(ids[i]).unwrap().as_bytes().to_vec();
        let (employee, _city, company, _division, vehicle) =
            (code(0), code(1), code(2), code(3), code(4));
        // REF targets before sources, exactly like C1 < C2 < C5.
        assert!(employee < company);
        assert!(company < vehicle);
        // Sub-classes inside parents' region.
        let auto = enc.code(ids[5]).unwrap();
        let vehicle_code = enc.code(ids[4]).unwrap();
        assert!(auto.has_prefix(vehicle_code));
        let compact = enc.code(ids[7]).unwrap();
        assert!(compact.has_prefix(auto));
        assert!(compact.has_prefix(vehicle_code));
        // JapaneseAutoCompany under AutoCompany under Company.
        let jap = enc.code(ids[10]).unwrap();
        assert!(jap.has_prefix(enc.code(ids[8]).unwrap()));
        assert!(jap.has_prefix(enc.code(ids[2]).unwrap()));
    }

    #[test]
    fn preorder_equals_code_order() {
        let (s, ids) = paper_schema();
        let enc = Encoding::generate(&s).unwrap();
        let vehicle = ids[4];
        let pre = s.subtree(vehicle);
        let mut by_code = pre.clone();
        by_code.sort_by_key(|c| enc.code(*c).unwrap().as_bytes().to_vec());
        assert_eq!(pre, by_code);
    }

    #[test]
    fn subtree_range_isolates_hierarchy() {
        let (s, ids) = paper_schema();
        let enc = Encoding::generate(&s).unwrap();
        let (lo, hi) = enc.subtree_range(ids[4]).unwrap(); // Vehicle
        for (i, &id) in ids.iter().enumerate() {
            let code = enc.code(id).unwrap().as_bytes();
            let inside = code >= lo.as_slice() && code < hi.as_slice();
            let is_vehicle_family = s.is_subclass_of(id, ids[4]);
            assert_eq!(inside, is_vehicle_family, "class index {i}");
        }
    }

    #[test]
    fn ref_cycle_detected() {
        let mut s = Schema::new();
        let emp = s.add_class("Employee").unwrap();
        let veh = s.add_class("Vehicle").unwrap();
        // OWN: Employee -> Vehicle, USE: Vehicle -> Employee (paper §4.3).
        s.add_attr(emp, "Own", AttrType::RefSet(veh)).unwrap();
        s.add_attr(veh, "UsedBy", AttrType::RefSet(emp)).unwrap();
        match Encoding::generate(&s) {
            Err(Error::RefCycle(edges)) => assert_eq!(edges.len(), 2),
            other => panic!("expected RefCycle, got {other:?}"),
        }
        // Ignoring one edge breaks the cycle.
        let ignored: HashSet<(ClassId, AttrId)> = [(emp, AttrId(0))].into_iter().collect();
        let enc = Encoding::generate_ignoring(&s, &ignored).unwrap();
        enc.verify(&s, &ignored).unwrap();
    }

    #[test]
    fn evolution_add_subclass() {
        let (mut s, ids) = paper_schema();
        let enc0 = Encoding::generate(&s).unwrap();
        let mut enc = enc0.clone();
        // Fig 4a: add a new class within an existing hierarchy.
        let bus = s.add_subclass("Bus", ids[4]).unwrap();
        let code = enc.assign_class(&s, bus).unwrap().clone();
        assert!(code.has_prefix(enc.code(ids[4]).unwrap()));
        // No existing code changed.
        for &id in &ids {
            assert_eq!(enc.code(id), enc0.code(id));
        }
        // The new code is still inside Vehicle's range and after Truck.
        let (lo, hi) = enc.subtree_range(ids[4]).unwrap();
        assert!(code.as_bytes() >= lo.as_slice() && code.as_bytes() < hi.as_slice());
        assert!(code.as_bytes() > enc.code(ids[6]).unwrap().as_bytes());
        enc.verify(&s, &HashSet::new()).unwrap();
    }

    #[test]
    fn evolution_add_constrained_root() {
        let (mut s, ids) = paper_schema();
        let mut enc = Encoding::generate(&s).unwrap();
        // Fig 4b: a new hierarchy between Company and Vehicle: Dealer
        // references Company, Vehicle references Dealer.
        let dealer = s.add_class("Dealer").unwrap();
        s.add_attr(dealer, "Franchise", AttrType::Ref(ids[2]))
            .unwrap();
        s.add_attr(ids[4], "SoldBy", AttrType::Ref(dealer)).unwrap();
        let code = enc.assign_class(&s, dealer).unwrap().clone();
        assert!(code.as_bytes() > enc.code(ids[2]).unwrap().as_bytes());
        assert!(code.as_bytes() < enc.code(ids[4]).unwrap().as_bytes());
        enc.verify(&s, &HashSet::new()).unwrap();
    }

    #[test]
    fn evolution_no_room_is_cycle() {
        let mut s = Schema::new();
        let a = s.add_class("A").unwrap();
        let b = s.add_class("B").unwrap();
        s.add_attr(b, "ToA", AttrType::Ref(a)).unwrap();
        let mut enc = Encoding::generate(&s).unwrap();
        // New root C that references B but is referenced by A: needs
        // code(B) < code(C) < code(A), but code(A) < code(B). No room.
        let c = s.add_class("C").unwrap();
        s.add_attr(c, "ToB", AttrType::Ref(b)).unwrap();
        s.add_attr(a, "ToC", AttrType::Ref(c)).unwrap();
        assert!(matches!(
            enc.assign_root(&s, c),
            Err(Error::NoRoomForRoot(_))
        ));
    }

    #[test]
    fn evolution_unconstrained_root_goes_last() {
        let (mut s, _) = paper_schema();
        let mut enc = Encoding::generate(&s).unwrap();
        let max_before = enc.iter().map(|(b, _)| b.to_vec()).max().unwrap();
        let island = s.add_class("Island").unwrap();
        let code = enc.assign_class(&s, island).unwrap();
        assert!(code.as_bytes() > max_before.as_slice());
    }

    #[test]
    fn class_by_code_roundtrip() {
        let (s, ids) = paper_schema();
        let enc = Encoding::generate(&s).unwrap();
        for &id in &ids {
            let code = enc.code(id).unwrap();
            assert_eq!(enc.class_by_code(code.as_bytes()), Some(id));
        }
        assert_eq!(enc.class_by_code(b"nonsense"), None);
    }
}
