//! [`UIndex`]: many logical indexes in one B+-tree, plus maintenance.

use std::sync::Arc;

use btree::{BTree, BTreeConfig, KeyBuffer, TreeStats};
use objstore::{ObjectStore, Oid, Value};
use pagestore::{BufferPool, MemStore, PageStore};
use schema::{ClassId, Encoding, Schema};

use crate::error::{Error, Result};
use crate::key::{write_key, EntryKey, KeyValue};
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
        self.tree.upsert_sorted(&keys, |_, _| {})?;
        Ok(keys.len() as u64)
    }

    /// Build **all** registered indexes at once with a packed bulk load.
    /// The tree must be empty.
    pub fn build_all(&mut self, store: &ObjectStore) -> Result<u64> {
        let planner = self.planner(store.schema());
        let mut keys = KeyBuffer::new();
        for id in 0..self.specs.len() as IndexId {
            planner.walk_keys(store, id, &mut keys)?;
        }
        self.bulk_load_keys(keys)
    }

    /// Bulk-load explicit entries, in any order and possibly repeated,
    /// into an empty tree (used by experiment harnesses that synthesize
    /// entries without an object store).
    pub fn bulk_load_entries(&mut self, entries: &[EntryKey]) -> Result<u64> {
        let mut keys = KeyBuffer::with_capacity(entries.len(), 0);
        for e in entries {
            keys.push_with(|out| e.encode_into(out));
        }
        self.bulk_load_keys(keys)
    }

    /// Bulk-load entry keys, in any order and possibly repeated, into an
    /// empty tree: the keys are sorted as fixed-width records, their
    /// duplicates dropped, and the leaves packed straight from the buffer
    /// ([`BTree::bulk_replace`]). Write each key with [`crate::write_key`]
    /// (or [`EntryKey::encode_into`]). Returns the number of entries.
    pub fn bulk_load_keys(&mut self, mut keys: KeyBuffer) -> Result<u64> {
        keys.sort();
        self.tree.bulk_replace(&keys)?;
        Ok(keys.len() as u64)
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
    // Every entry comes from one walk over the object store, `EntryWalk`,
    // which never reads the tree: that is what makes the degraded query
    // path possible, since when the tree is quarantined or faulting the
    // metadata and the store still give the exact entry set a healthy
    // index would contain. Builds, `check()` and degraded answers start it
    // at position 0 of every object; maintenance starts it at every
    // position of the one object a mutation touches.

    fn class_in_scope(&self, spec: &IndexSpec, pos: usize, class: ClassId) -> bool {
        let pc = spec.positions[pos].class;
        if spec.include_subclasses {
            self.schema.is_subclass_of(class, pc)
        } else {
            class == pc
        }
    }

    /// The encoded keys of every entry of index `id`, ascending and without
    /// duplicates, recomputed object by object from the current store
    /// contents — never read from the tree: what a build inserts, what a
    /// degraded query answers from, and what [`crate::Database::check`]
    /// holds the tree to.
    pub(crate) fn all_keys(&self, store: &ObjectStore, id: IndexId) -> Result<KeyBuffer> {
        let mut keys = KeyBuffer::new();
        self.walk_keys(store, id, &mut keys)?;
        keys.sort();
        Ok(keys)
    }

    /// Append to `keys`, unsorted, the key of every entry of index `id`.
    fn walk_keys(&self, store: &ObjectStore, id: IndexId, keys: &mut KeyBuffer) -> Result<()> {
        let walk = EntryWalk::new(*self, store, id)?;
        for oid in store.oids() {
            walk.entries_through(0, oid, keys)?;
        }
        Ok(())
    }

    /// The encoded keys, ascending, of all entries of index `id` that
    /// contain `oid` at any position, under the current store state: the
    /// exact set an update of `oid` can add or remove.
    pub(crate) fn entries_involving(
        &self,
        store: &ObjectStore,
        id: IndexId,
        oid: Oid,
    ) -> Result<KeyBuffer> {
        let walk = EntryWalk::new(*self, store, id)?;
        let mut keys = KeyBuffer::new();
        for pos in 0..walk.spec.positions.len() {
            walk.entries_through(pos, oid, &mut keys)?;
        }
        keys.sort();
        Ok(keys)
    }

    fn resolve_class_sel(
        &self,
        sel: &ClassSel,
        region: &(Vec<u8>, Vec<u8>),
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<()> {
        match sel {
            ClassSel::Any => out.push(region.clone()),
            ClassSel::Exact(c) | ClassSel::SubTree(c) => {
                let with_subclasses = matches!(sel, ClassSel::SubTree(_));
                let range = self
                    .encoding
                    .range(*c, with_subclasses)
                    .ok_or_else(|| Error::BadQuery(format!("class {c:?} has no code")))?;
                out.push(range);
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
            let region = self
                .encoding
                .range(step.class, spec.include_subclasses)
                .ok_or_else(|| Error::BadSpec("class has no code".into()))?;
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

/// One enumeration of index `id`'s entries in `store`, with what it holds
/// fixed. An entry instantiates one chain of the spec's position forest —
/// a run of positions from position 0 to a position without children —
/// with one object per position, each referencing the previous one
/// through the position's via attribute, and the anchor (position 0's
/// object) holding a value for the indexed attribute.
struct EntryWalk<'a> {
    planner: Planner<'a>,
    store: &'a ObjectStore,
    spec: &'a IndexSpec,
    id: IndexId,
    /// Each position's children, the positions naming it as parent; a
    /// position without any ends a chain.
    children: Vec<Vec<usize>>,
}

/// The chain a walk is on, position 0 first: each object's class-code
/// bytes and OID, so a position's parent is the previous element.
type Chain<'a> = Vec<(&'a [u8], Oid)>;

impl<'a> EntryWalk<'a> {
    fn new(planner: Planner<'a>, store: &'a ObjectStore, id: IndexId) -> Result<Self> {
        let spec = planner.spec(id)?;
        let mut children = vec![Vec::new(); spec.positions.len()];
        for (pos, step) in spec.positions.iter().enumerate() {
            if let Some(parent) = step.parent {
                children[parent].push(pos);
            }
        }
        Ok(EntryWalk {
            planner,
            store,
            spec,
            id,
            children,
        })
    }

    /// Append to `out` the key of every entry in which `oid` holds
    /// position `pos`: up from `oid` to the anchor along the via
    /// references, then down every chain through `pos`.
    fn entries_through(&self, pos: usize, oid: Oid, out: &mut KeyBuffer) -> Result<()> {
        let Some(code) = self.code_at(pos, oid)? else {
            return Ok(());
        };
        let parent_of = |p: &usize| self.spec.positions[*p].parent;
        let depth = std::iter::successors(parent_of(&pos), parent_of).count();
        let mut chain = vec![(code, oid); depth + 1];
        self.up(pos, depth, pos, &mut chain, out)
    }

    /// The class code of `oid` if it is live and its class is in scope at
    /// `pos`.
    fn code_at(&self, pos: usize, oid: Oid) -> Result<Option<&'a [u8]>> {
        let Ok(class) = self.store.class_of(oid) else {
            return Ok(None);
        };
        if !self.planner.class_in_scope(self.spec, pos, class) {
            return Ok(None);
        }
        let code = self.planner.encoding.code(class);
        let code = code.ok_or_else(|| Error::BadSpec(format!("class {class:?} has no code")))?;
        Ok(Some(code.as_bytes()))
    }

    /// With `chain[depth]` holding position `pos`, fill `chain[..depth]`
    /// with every run of objects the via references lead up to the anchor,
    /// and go down from position `start`, the end of the filled chain.
    fn up(
        &self,
        pos: usize,
        depth: usize,
        start: usize,
        chain: &mut Chain<'a>,
        out: &mut KeyBuffer,
    ) -> Result<()> {
        let step = &self.spec.positions[pos];
        let Some(parent) = step.parent else {
            let anchor = self.store.get(chain[0].1)?;
            // Converted once: every entry of the anchor shares the value.
            let value = anchor.get(self.spec.attr.0, self.spec.attr.1);
            let Some(Ok(value)) = value.map(KeyValue::try_from) else {
                return Ok(());
            };
            return self.down(start, &value, chain, out);
        };
        let (decl, attr) = step.via.expect("a position with a parent has a via");
        let targets = match self.store.get(chain[depth].1)?.get(decl, attr) {
            Some(Value::Ref(t)) => std::slice::from_ref(t),
            Some(Value::RefSet(ts)) => ts.as_slice(),
            _ => &[],
        };
        for &target in targets {
            if let Some(code) = self.code_at(parent, target)? {
                chain[depth - 1] = (code, target);
                self.up(parent, depth - 1, start, chain, out)?;
            }
        }
        Ok(())
    }

    /// With the chain ending at position `pos`, extend it by every object
    /// that references its last one through a child position's via, and
    /// write each finished chain's key to `out`.
    fn down(
        &self,
        pos: usize,
        value: &KeyValue,
        chain: &mut Chain<'a>,
        out: &mut KeyBuffer,
    ) -> Result<()> {
        if self.children[pos].is_empty() {
            out.push_with(|key| write_key(key, self.id, value, chain.iter().copied()));
            return Ok(());
        }
        let (_, last) = *chain.last().expect("the anchor is set");
        let referrers = self.store.referrers(last);
        for &child in &self.children[pos] {
            let via = self.spec.positions[child].via;
            for &(src, decl, attr) in &referrers {
                if via != Some((decl, attr)) {
                    continue;
                }
                if let Some(code) = self.code_at(child, src)? {
                    chain.push((code, src));
                    self.down(child, value, chain, out)?;
                    chain.pop();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::PathElem;
    use proptest::prelude::*;

    fn arb_entry() -> impl Strategy<Value = EntryKey> {
        // Strings over a small alphabet holding NUL (escaped in the key),
        // from empty to past the sort record's 24 bytes; codes of one to
        // three non-zero bytes; a few OIDs, so that entries repeat.
        let text = proptest::collection::vec(prop_oneof![Just('\0'), Just('a'), Just('b')], 0..30);
        let value = prop_oneof![
            text.prop_map(|t| KeyValue::Str(t.into_iter().collect::<String>().into())),
            (-3..3i64).prop_map(KeyValue::Int),
        ];
        let code = proptest::collection::vec(1..4u8, 1..4);
        let path = proptest::collection::vec((code, 0..4u32), 1..3);
        (0..2u16, value, path).prop_map(|(index_id, value, path)| EntryKey {
            index_id,
            value,
            path: path
                .into_iter()
                .map(|(code, oid)| PathElem {
                    code: code.as_slice().into(),
                    oid: Oid(oid),
                })
                .collect(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// A bulk load of unordered, repeated entries stores exactly the
        /// byte-sorted, deduplicated set of their keys.
        #[test]
        fn bulk_load_orders_and_dedups_as_a_byte_sort_does(
            entries in proptest::collection::vec(arb_entry(), 0..120),
            repeats in proptest::collection::vec(0..120usize, 0..40),
        ) {
            let mut entries = entries;
            for &r in &repeats {
                if let Some(e) = entries.get(r % entries.len().max(1)).cloned() {
                    entries.push(e);
                }
            }
            let mut want: Vec<Vec<u8>> = entries.iter().map(EntryKey::encode).collect();
            want.sort_unstable();
            want.dedup();
            let mut index = UIndex::in_memory(Encoding::default()).unwrap();
            let loaded = index.bulk_load_entries(&entries).unwrap();
            prop_assert_eq!(loaded, want.len() as u64);
            index.verify().unwrap();
            let stored: Vec<Vec<u8>> = index
                .tree()
                .view()
                .scan_all()
                .unwrap()
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            prop_assert_eq!(stored, want);
        }
    }
}
