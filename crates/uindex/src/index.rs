//! [`UIndex`]: many logical indexes in one B+-tree, plus maintenance.

use std::sync::Arc;

use btree::{BTree, BTreeConfig, TreeStats};
use objstore::{ObjectStore, Oid, Value};
use pagestore::{BufferPool, MemStore, PageStore};
use schema::{ClassId, Encoding, Schema};

use crate::error::{Error, Result};
use crate::key::{EntryKey, KeyValue, PathElem};
use crate::query::{ClassSel, OidSel, Query, QueryHit};
use crate::scan::{Matcher, PosConstraint, ScanStats};
use crate::spec::IndexSpec;

/// Identifier of a logical index within a [`UIndex`] (embedded as the first
/// two key bytes).
pub type IndexId = u16;

/// The uniform index: a set of [`IndexSpec`]s sharing one front-compressed
/// B+-tree (§4.1).
pub struct UIndex<S: PageStore> {
    tree: BTree<S>,
    encoding: Encoding,
    specs: Vec<IndexSpec>,
}

impl UIndex<MemStore> {
    /// An in-memory U-index with the paper's page geometry (1024-byte
    /// pages).
    pub fn in_memory(encoding: Encoding) -> Result<Self> {
        let pool = BufferPool::new(MemStore::new(1024), 1 << 16);
        Self::new(pool, BTreeConfig::default(), encoding)
    }
}

impl<S: PageStore> UIndex<S> {
    /// Create an empty U-index over `pool` (its own, or an `Arc` of a pool
    /// it shares — see [`BTree::create`]).
    pub fn new(
        pool: impl Into<Arc<BufferPool<S>>>,
        config: BTreeConfig,
        encoding: Encoding,
    ) -> Result<Self> {
        Ok(UIndex {
            tree: BTree::create(pool, config)?,
            encoding,
            specs: Vec::new(),
        })
    }

    /// Assemble from an existing tree and the definitions it was built
    /// under.
    pub(crate) fn from_parts(tree: BTree<S>, encoding: Encoding, specs: Vec<IndexSpec>) -> Self {
        UIndex {
            tree,
            encoding,
            specs,
        }
    }

    /// The class-code encoding in use.
    pub fn encoding(&self) -> &Encoding {
        &self.encoding
    }

    /// Mutable encoding access (schema evolution).
    pub fn encoding_mut(&mut self) -> &mut Encoding {
        &mut self.encoding
    }

    /// The shared B-tree (for statistics and verification).
    pub fn tree(&self) -> &BTree<S> {
        &self.tree
    }

    /// Mutable access to the shared B-tree.
    pub fn tree_mut(&mut self) -> &mut BTree<S> {
        &mut self.tree
    }

    /// Consume the index, returning the buffer pool (for handing the
    /// underlying store back to its owner, e.g. to close a file store).
    pub fn into_pool(self) -> pagestore::BufferPool<S> {
        self.tree.into_pool()
    }

    /// Registered index specs.
    pub fn specs(&self) -> &[IndexSpec] {
        &self.specs
    }

    /// Register an index definition (normalizing and validating it).
    /// Entries are **not** built; call [`UIndex::build`] or use
    /// [`crate::Database`], which maintains entries incrementally.
    pub fn define(&mut self, schema: &Schema, mut spec: IndexSpec) -> Result<IndexId> {
        schema::check_name(&spec.name)?;
        if self.specs.iter().any(|s| s.name == spec.name) {
            return Err(Error::BadSpec(format!(
                "duplicate index name {:?}",
                spec.name
            )));
        }
        if self.specs.len() >= u16::MAX as usize {
            return Err(Error::BadSpec("too many indexes".into()));
        }
        spec.normalize(schema, &self.encoding)?;
        self.specs.push(spec);
        Ok((self.specs.len() - 1) as IndexId)
    }

    // ----- maintenance ---------------------------------------------------

    /// Insert the given entries (replace semantics).
    pub fn insert_entries(&mut self, entries: &[EntryKey]) -> Result<u64> {
        let mut n = 0;
        for e in entries {
            if self.tree.insert(&e.encode(), &[])?.is_none() {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Remove the given entries; returns how many existed.
    pub fn remove_entries(&mut self, entries: &[EntryKey]) -> Result<u64> {
        let mut n = 0;
        for e in entries {
            if self.tree.delete(&e.encode())?.is_some() {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Build index `id` from the current store contents (incremental
    /// inserts; see [`UIndex::build_all`] for the packed bulk path).
    pub fn build(&mut self, store: &ObjectStore, id: IndexId) -> Result<u64> {
        let keys = self.planner(store.schema()).all_keys(store, id)?;
        let n = keys.len() as u64;
        self.tree
            .insert_batch(keys.into_iter().map(|k| (k, Vec::new())).collect())?;
        Ok(n)
    }

    /// Build **all** registered indexes at once with a packed bulk load.
    /// The tree must be empty.
    pub fn build_all(&mut self, store: &ObjectStore) -> Result<u64> {
        let planner = self.planner(store.schema());
        let mut keys = Vec::new();
        // Each index's keys ascend and start with its id: the run ascends.
        for id in 0..self.specs.len() as IndexId {
            keys.extend(
                planner
                    .all_keys(store, id)?
                    .into_iter()
                    .map(|k| (k, Vec::new())),
            );
        }
        let n = keys.len() as u64;
        self.tree.bulk_replace(keys)?;
        Ok(n)
    }

    /// Bulk-load explicit entries into an empty tree (used by experiment
    /// harnesses that synthesize entries without an object store).
    pub fn bulk_load_entries(&mut self, entries: &[EntryKey]) -> Result<u64> {
        let mut keys: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(entries.len());
        for e in entries {
            keys.push((e.encode(), Vec::new()));
        }
        keys.sort_unstable();
        keys.dedup();
        let n = keys.len() as u64;
        self.tree.bulk_replace(keys)?;
        Ok(n)
    }

    // ----- querying ------------------------------------------------------

    /// The metadata view over this index's spec table and class encoding,
    /// with `schema` (the index keeps none of its own).
    pub fn planner<'a>(&'a self, schema: &'a Schema) -> Planner<'a> {
        Planner {
            specs: &self.specs,
            encoding: &self.encoding,
            schema,
        }
    }

    /// Run a query on the live tree, returning hits and the scan cost
    /// counters. No fallback: a storage error is the caller's. `schema` is
    /// the one the index's specs were defined against.
    pub fn query(&self, schema: &Schema, q: &Query) -> Result<(Vec<QueryHit>, ScanStats)> {
        let mut hits = Vec::new();
        let view = self.tree.view();
        let matcher = self.planner(schema).matcher(q);
        let (trace, _) = crate::exec::run_guarded(&view, matcher, None, q, &mut hits)?;
        Ok((hits, trace.stats))
    }

    /// Verify the underlying B-tree and return its shape statistics.
    pub fn verify(&self) -> Result<TreeStats> {
        Ok(self.tree.verify()?)
    }
}

/// The metadata every read needs and none changes: a spec table, the class
/// encoding and the schema. [`crate::Database::planner`] and
/// [`crate::DatabaseReader::planner`] lend it out, and everything that
/// reads only metadata takes it: index lookup by id or name, query
/// planning, [`crate::uql::parse`], and the object-store walks behind
/// maintenance, the degraded query path and [`crate::oracle::eval`].
#[derive(Clone, Copy)]
pub struct Planner<'a> {
    pub(crate) specs: &'a [IndexSpec],
    pub(crate) encoding: &'a Encoding,
    pub(crate) schema: &'a Schema,
}

impl<'a> Planner<'a> {
    /// The spec behind `id`.
    pub fn spec(&self, id: IndexId) -> Result<&'a IndexSpec> {
        self.specs.get(id as usize).ok_or(Error::UnknownIndex(id))
    }

    /// Look up an index id by name.
    pub fn index_by_name(&self, name: &str) -> Option<IndexId> {
        self.specs
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as IndexId)
    }

    // ----- entry enumeration ---------------------------------------------
    //
    // These walk the object store only, which is what makes the degraded
    // query path possible: when the tree is quarantined or faulting, the
    // metadata and the store still give the exact entry set a healthy
    // index would contain.

    fn class_in_scope(&self, spec: &IndexSpec, pos: usize, class: ClassId) -> bool {
        let pc = spec.positions[pos].class;
        if spec.include_subclasses {
            self.schema.is_subclass_of(class, pc)
        } else {
            class == pc
        }
    }

    /// The encoded keys, ascending, of all entries anchored at `anchor` (a
    /// would-be position-0 object), computed from the current store state.
    /// Empty if the object is out of scope or has no value for the indexed
    /// attribute.
    fn entries_for_anchor(
        &self,
        store: &ObjectStore,
        id: IndexId,
        anchor: Oid,
    ) -> Result<Vec<Vec<u8>>> {
        let spec = self.spec(id)?;
        if !store.exists(anchor) {
            return Ok(Vec::new());
        }
        let class = store.class_of(anchor)?;
        if !self.class_in_scope(spec, 0, class) {
            return Ok(Vec::new());
        }
        let obj = store.get(anchor)?;
        // Converted once: every entry of the anchor shares the value.
        let Some(Ok(value)) = obj.get(spec.attr.0, spec.attr.1).map(KeyValue::try_from) else {
            return Ok(Vec::new());
        };
        let chains = self.chains(spec);

        let mut out = Vec::new();
        for chain in &chains {
            let mut stack: Vec<Vec<(usize, Oid)>> = vec![vec![(0, anchor)]];
            // Depth-first instantiation along the chain.
            self.instantiate_chain(store, spec, chain, 1, &mut stack, &value, id, &mut out)?;
        }
        // Multi-branch specs can produce duplicate single-position chains;
        // normalize.
        let mut keys: Vec<_> = out.iter().map(EntryKey::encode).collect();
        keys.sort_unstable();
        keys.dedup();
        Ok(keys)
    }

    /// The encoded keys of every entry of index `id`, ascending and without
    /// duplicates, recomputed object by object from the current store
    /// contents — never read from the tree: what a build inserts, what a
    /// degraded query answers from, and what [`crate::Database::check`]
    /// holds the tree to.
    pub(crate) fn all_keys(&self, store: &ObjectStore, id: IndexId) -> Result<Vec<Vec<u8>>> {
        let mut keys = Vec::new();
        for oid in store.oids() {
            keys.extend(self.entries_for_anchor(store, id, oid)?);
        }
        keys.sort_unstable();
        keys.dedup();
        Ok(keys)
    }

    #[allow(clippy::too_many_arguments)]
    fn instantiate_chain(
        &self,
        store: &ObjectStore,
        spec: &IndexSpec,
        chain: &[usize],
        depth: usize,
        stack: &mut Vec<Vec<(usize, Oid)>>,
        value: &KeyValue,
        id: IndexId,
        out: &mut Vec<EntryKey>,
    ) -> Result<()> {
        if depth == chain.len() {
            // Emit one entry from the current assignment.
            let assignment: Vec<(usize, Oid)> =
                stack.iter().map(|lvl| *lvl.last().expect("set")).collect();
            let mut path: Vec<PathElem> = Vec::with_capacity(assignment.len());
            for (pos, oid) in &assignment {
                let class = store.class_of(*oid)?;
                let code = self
                    .encoding
                    .code(class)
                    .ok_or_else(|| Error::BadSpec(format!("class {class:?} has no code")))?;
                let _ = pos;
                path.push(PathElem {
                    code: code.as_bytes().into(),
                    oid: *oid,
                });
            }
            out.push(EntryKey {
                index_id: id,
                value: value.clone(),
                path: path.into(),
            });
            return Ok(());
        }
        let pos = chain[depth];
        let step = &spec.positions[pos];
        let (via_decl, via_attr) = step.via.expect("non-root position");
        let parent_pos = step.parent.expect("non-root position");
        // The object currently assigned to the parent position.
        let parent_oid = stack
            .iter()
            .flat_map(|lvl| lvl.last())
            .find(|(p, _)| *p == parent_pos)
            .map(|(_, o)| *o)
            .expect("parent assigned before child");
        // Candidates: objects referencing parent_oid via the spec's attr,
        // with a class in this position's scope.
        let mut candidates: Vec<Oid> = store
            .referrers(parent_oid)
            .into_iter()
            .filter(|(_, decl, attr)| (*decl, *attr) == (via_decl, via_attr))
            .map(|(src, _, _)| src)
            .filter(|src| {
                store
                    .class_of(*src)
                    .map(|c| self.class_in_scope(spec, pos, c))
                    .unwrap_or(false)
            })
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        for cand in candidates {
            stack.push(vec![(pos, cand)]);
            self.instantiate_chain(store, spec, chain, depth + 1, stack, value, id, out)?;
            stack.pop();
        }
        Ok(())
    }

    /// Root-to-leaf chains of the spec's position forest.
    fn chains(&self, spec: &IndexSpec) -> Vec<Vec<usize>> {
        let n = spec.positions.len();
        let mut has_child = vec![false; n];
        for p in &spec.positions {
            if let Some(parent) = p.parent {
                has_child[parent] = true;
            }
        }
        (0..n)
            .filter(|&i| !has_child[i])
            .map(|leaf| {
                let mut chain = vec![leaf];
                let mut cur = leaf;
                while let Some(p) = spec.positions[cur].parent {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                chain
            })
            .collect()
    }

    /// The encoded keys, ascending, of all entries of index `id` that
    /// contain `oid` at any position, under the current store state: the
    /// exact set an update of `oid` can add or remove.
    pub(crate) fn entries_involving(
        &self,
        store: &ObjectStore,
        id: IndexId,
        oid: Oid,
    ) -> Result<Vec<Vec<u8>>> {
        let spec = self.spec(id)?;
        if !store.exists(oid) {
            return Ok(Vec::new());
        }
        let class = store.class_of(oid)?;
        let chains = self.chains(spec);
        let mut out = Vec::new();
        for pos in 0..spec.positions.len() {
            if !self.class_in_scope(spec, pos, class) {
                continue;
            }
            for chain in chains.iter().filter(|c| c.contains(&pos)) {
                let pi = chain.iter().position(|&x| x == pos).expect("contains");
                for up in self.enumerate_up(store, spec, chain, pi, oid)? {
                    let anchor = up[0].1;
                    let obj = store.get(anchor)?;
                    let Some(Ok(value)) = obj.get(spec.attr.0, spec.attr.1).map(KeyValue::try_from)
                    else {
                        continue;
                    };
                    let mut stack: Vec<Vec<(usize, Oid)>> =
                        up.into_iter().map(|x| vec![x]).collect();
                    self.instantiate_chain(
                        store,
                        spec,
                        chain,
                        pi + 1,
                        &mut stack,
                        &value,
                        id,
                        &mut out,
                    )?;
                }
            }
        }
        let mut keys: Vec<_> = out.iter().map(EntryKey::encode).collect();
        keys.sort_unstable();
        keys.dedup();
        Ok(keys)
    }

    /// Assignments for `chain[0..=pi]` whose last element is `oid` at
    /// position `chain[pi]`, found by following the via references from
    /// `oid` towards the anchor.
    fn enumerate_up(
        &self,
        store: &ObjectStore,
        spec: &IndexSpec,
        chain: &[usize],
        pi: usize,
        oid: Oid,
    ) -> Result<Vec<Vec<(usize, Oid)>>> {
        if pi == 0 {
            return Ok(vec![vec![(chain[0], oid)]]);
        }
        let pos = chain[pi];
        let step = &spec.positions[pos];
        let (decl, attr) = step.via.expect("non-root position");
        let parent_pos = step.parent.expect("non-root position");
        let obj = store.get(oid)?;
        let targets: Vec<Oid> = match obj.get(decl, attr) {
            Some(Value::Ref(t)) => vec![*t],
            Some(Value::RefSet(ts)) => ts.clone(),
            _ => Vec::new(),
        };
        let mut out = Vec::new();
        for t in targets {
            if !store.exists(t) {
                continue;
            }
            let tc = store.class_of(t)?;
            if !self.class_in_scope(spec, parent_pos, tc) {
                continue;
            }
            for mut up in self.enumerate_up(store, spec, chain, pi - 1, t)? {
                up.push((pos, oid));
                out.push(up);
            }
        }
        Ok(out)
    }

    fn resolve_class_sel(
        &self,
        sel: &ClassSel,
        region: &(Vec<u8>, Vec<u8>),
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<()> {
        match sel {
            ClassSel::Any => out.push(region.clone()),
            ClassSel::Exact(c) => {
                let code = self
                    .encoding
                    .code(*c)
                    .ok_or_else(|| Error::BadQuery(format!("class {c:?} has no code")))?;
                let lo = code.as_bytes().to_vec();
                let mut hi = lo.clone();
                hi.push(0x00);
                out.push((lo, hi));
            }
            ClassSel::SubTree(c) => {
                let (lo, hi) = self
                    .encoding
                    .subtree_range(*c)
                    .ok_or_else(|| Error::BadQuery(format!("class {c:?} has no code")))?;
                out.push((lo, hi));
            }
            ClassSel::AnyOf(sels) => {
                for s in sels {
                    self.resolve_class_sel(s, region, out)?;
                }
            }
        }
        Ok(())
    }

    fn value_ranges(&self, q: &Query) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        use crate::query::ValuePred::*;
        let point = |v: &Value| -> Result<(Vec<u8>, Vec<u8>)> {
            let e = v
                .encode_ordered()
                .ok_or_else(|| Error::BadQuery("non-indexable query value".into()))?;
            let mut hi = e.clone();
            hi.push(0x00);
            Ok((e, hi))
        };
        let mut ranges = match &q.value {
            Any => vec![(Vec::new(), vec![0xFF])],
            Eq(v) => vec![point(v)?],
            In(vs) => {
                let mut r = Vec::with_capacity(vs.len());
                for v in vs {
                    r.push(point(v)?);
                }
                r
            }
            Range {
                lo,
                hi,
                hi_inclusive,
            } => {
                let lo_b = match lo {
                    Some(v) => v
                        .encode_ordered()
                        .ok_or_else(|| Error::BadQuery("non-indexable bound".into()))?,
                    None => Vec::new(),
                };
                let hi_b = match hi {
                    Some(v) => {
                        let mut b = v
                            .encode_ordered()
                            .ok_or_else(|| Error::BadQuery("non-indexable bound".into()))?;
                        if *hi_inclusive {
                            b.push(0x00);
                        }
                        b
                    }
                    None => vec![0xFF],
                };
                if lo_b >= hi_b {
                    return Err(Error::BadQuery("empty value range".into()));
                }
                vec![(lo_b, hi_b)]
            }
        };
        ranges.sort();
        ranges.dedup();
        // Merge overlaps so range_position sees disjoint intervals.
        let mut merged: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(ranges.len());
        for r in ranges {
            match merged.last_mut() {
                Some(last) if r.0 <= last.1 => {
                    if r.1 > last.1 {
                        last.1 = r.1;
                    }
                }
                _ => merged.push(r),
            }
        }
        Ok(merged)
    }

    pub(crate) fn matcher(&self, q: &Query) -> Result<Matcher> {
        let spec = self.spec(q.index)?;
        let value_ranges = self.value_ranges(q)?;
        let mut positions = Vec::with_capacity(spec.positions.len());
        for (i, step) in spec.positions.iter().enumerate() {
            let region = if spec.include_subclasses {
                self.encoding
                    .subtree_range(step.class)
                    .ok_or_else(|| Error::BadSpec("class has no code".into()))?
            } else {
                let code = self
                    .encoding
                    .code(step.class)
                    .ok_or_else(|| Error::BadSpec("class has no code".into()))?
                    .as_bytes()
                    .to_vec();
                let mut hi = code.clone();
                hi.push(0x00);
                (code, hi)
            };
            let pred = q.preds.iter().find(|(p, _)| *p == i).map(|(_, p)| p);
            let (class_ranges, oids, required) = match pred {
                None => (vec![region.clone()], OidSel::Any, false),
                Some(p) => {
                    let mut ranges = Vec::new();
                    self.resolve_class_sel(&p.class, &region, &mut ranges)?;
                    ranges.sort();
                    ranges.dedup();
                    let mut merged: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                    for r in ranges {
                        // Clamp to the position region.
                        let lo = r.0.max(region.0.clone());
                        let hi = r.1.min(region.1.clone());
                        if lo >= hi {
                            continue;
                        }
                        match merged.last_mut() {
                            Some(last) if lo <= last.1 => {
                                if hi > last.1 {
                                    last.1 = hi;
                                }
                            }
                            _ => merged.push((lo, hi)),
                        }
                    }
                    if merged.is_empty() {
                        return Err(Error::BadQuery(format!(
                            "class selector at position {i} selects nothing in this index"
                        )));
                    }
                    let required = !p.class.is_any() || !p.oid.is_any();
                    (merged, p.oid.clone(), required)
                }
            };
            positions.push(PosConstraint {
                region,
                class_ranges,
                oids,
                required,
            });
        }
        for (p, _) in &q.preds {
            if *p >= spec.positions.len() {
                return Err(Error::BadQuery(format!(
                    "predicate on position {p}, index has {}",
                    spec.positions.len()
                )));
            }
        }
        Ok(Matcher {
            index_id: q.index,
            value_ranges,
            positions,
            distinct_upto: q.distinct_upto,
        })
    }
}
