//! Experiment 2 data: 150,000 objects uniform over 8 or 40 classes, with
//! 100 / 1,000 / 150,000 distinct 8-byte keys — plus the U-index adapter
//! that speaks the same [`SetIndex`] interface as the baselines.

use std::collections::HashMap;

use baselines::{QueryCost, SetId, SetIndex};
use btree::{BTreeConfig, KeyBuffer};
use objstore::{Oid, Value};
use pagestore::{BufferPool, MemStore, PageId, PageStore, Result as PageResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schema::{ClassId, Encoding, Schema};
use uindex::{
    ClassSel, EntryKey, IndexId, IndexSpec, KeyValue, PathElem, Query, ScanAlgorithm, ScanStats,
    UIndex, ValuePred,
};

/// Key cardinality of a generated database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyCount {
    /// Every object has a distinct key ("unique keys").
    Unique,
    /// Keys drawn uniformly from this many distinct values.
    Distinct(u32),
}

/// Parameters of an experiment-2 database.
#[derive(Debug, Clone, Copy)]
pub struct UniformConfig {
    /// Total objects (the paper uses 150,000).
    pub num_objects: u32,
    /// Number of classes / sets (8 or 40).
    pub num_sets: u16,
    /// Key cardinality.
    pub keys: KeyCount,
    /// RNG seed.
    pub seed: u64,
}

/// An 8-byte, order-preserving ASCII key (hex of the key ordinal), matching
/// the paper's 8-byte key size while staying printable for every structure.
pub fn key_bytes(v: u32) -> Vec<u8> {
    format!("{v:08x}").into_bytes()
}

/// Generate the posting list `(key, set, oid)` for a configuration.
/// Objects are distributed uniformly over the sets; keys per [`KeyCount`].
pub fn generate_postings(config: &UniformConfig) -> Vec<(Vec<u8>, SetId, Oid)> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.num_objects as usize);
    for i in 0..config.num_objects {
        let key = match config.keys {
            KeyCount::Unique => key_bytes(i),
            KeyCount::Distinct(k) => key_bytes(rng.gen_range(0..k)),
        };
        let set = SetId(rng.gen_range(0..config.num_sets));
        out.push((key, set, Oid(i + 1)));
    }
    out
}

/// The sorted list of distinct key ordinals a configuration uses (for
/// range-query generation).
pub fn key_space(config: &UniformConfig) -> u32 {
    match config.keys {
        KeyCount::Unique => config.num_objects,
        KeyCount::Distinct(k) => k,
    }
}

fn corrupt(e: uindex::Error) -> pagestore::Error {
    pagestore::Error::Corrupt(e.to_string())
}

/// A real U-index behind the [`SetIndex`] harness interface, generic over
/// the page-store tier (`MemStore` by default; the disk bench runs it over
/// the WAL + checksum + file stack).
///
/// Sets map to the classes of a synthetic hierarchy (a root with `n-1`
/// children, in pre-order = set-id order, so "near" sets have adjacent
/// class codes). Postings become ordinary class-hierarchy index entries in
/// the shared B-tree.
pub struct UIndexSet<P: PageStore = MemStore> {
    index: UIndex<P>,
    id: IndexId,
    classes: Vec<ClassId>,
    schema: Schema,
    algorithm: ScanAlgorithm,
}

impl UIndexSet {
    /// An empty in-memory U-index over `num_sets` classes with the paper's
    /// page geometry.
    pub fn new(num_sets: u16) -> PageResult<Self> {
        Self::with_pool(BufferPool::new(MemStore::new(1024), 1 << 17), num_sets)
    }

    /// Build an in-memory index from postings with a packed bulk load.
    pub fn build(num_sets: u16, postings: &[(Vec<u8>, SetId, Oid)]) -> PageResult<Self> {
        Self::build_with_pool(
            BufferPool::new(MemStore::new(1024), 1 << 17),
            num_sets,
            postings,
        )
    }
}

impl<P: PageStore> UIndexSet<P> {
    /// An empty U-index over `num_sets` classes on the given pool (any
    /// store tier).
    pub fn with_pool(pool: BufferPool<P>, num_sets: u16) -> PageResult<Self> {
        let mut schema = Schema::new();
        let root = schema.add_class("S0").expect("fresh schema");
        schema
            .add_attr(root, "Key", schema::AttrType::Str)
            .expect("fresh class");
        let mut classes = vec![root];
        for i in 1..num_sets {
            classes.push(
                schema
                    .add_subclass(&format!("S{i}"), root)
                    .expect("unique names"),
            );
        }
        let encoding = Encoding::generate(&schema).expect("acyclic");
        let mut index = UIndex::new(pool, BTreeConfig::default(), encoding).map_err(corrupt)?;
        let spec = IndexSpec::class_hierarchy("key", root, "Key")
            .build(&schema)
            .expect("valid spec");
        let id = index.define(&schema, spec).map_err(corrupt)?;
        Ok(UIndexSet {
            index,
            id,
            classes,
            schema,
            algorithm: ScanAlgorithm::Parallel,
        })
    }

    /// Build from postings with a packed bulk load on the given pool. Each
    /// posting's key is written once, straight into one buffer; the
    /// postings of one key share one value, made once.
    pub fn build_with_pool(
        pool: BufferPool<P>,
        num_sets: u16,
        postings: &[(Vec<u8>, SetId, Oid)],
    ) -> PageResult<Self> {
        let mut out = Self::with_pool(pool, num_sets)?;
        let encoding = out.index.encoding();
        let codes: Vec<&[u8]> = out
            .classes
            .iter()
            .map(|&c| encoding.code(c).expect("all classes coded").as_bytes())
            .collect();
        let mut values: HashMap<&[u8], KeyValue> = HashMap::new();
        let mut keys = KeyBuffer::with_capacity(postings.len(), postings.len() * 24);
        for (k, s, o) in postings {
            let value = values.entry(k).or_insert_with(|| Self::key_value(k));
            let path = std::iter::once((codes[s.0 as usize], *o));
            keys.push_with(|key| uindex::write_key(key, out.id, value, path));
        }
        out.index.bulk_load_keys(keys).map_err(corrupt)?;
        Ok(out)
    }

    /// Write the schema catalog into the tree and flush every dirty page to
    /// the store. Returns `(root, len)` — everything [`UIndexSet::open`]
    /// needs to attach to the tree after a reopen.
    pub fn persist(&mut self) -> PageResult<(PageId, u64)> {
        self.index.save_catalog(&self.schema).map_err(corrupt)?;
        let root = self.index.tree().root();
        let len = self.index.tree().len();
        self.index.tree().pool().flush_to_store_only()?;
        Ok((root, len))
    }

    /// Attach to a previously [`persist`](UIndexSet::persist)ed index on a
    /// reopened store: the schema and spec come back from the in-tree
    /// catalog.
    pub fn open(pool: BufferPool<P>, root: PageId, len: u64) -> PageResult<Self> {
        let (index, schema) =
            UIndex::open_with_catalog(pool, BTreeConfig::default(), root, len).map_err(corrupt)?;
        let id = index
            .planner(&schema)
            .index_by_name("key")
            .ok_or_else(|| pagestore::Error::Corrupt("catalog lost the key index".into()))?;
        let mut classes = Vec::new();
        while let Some(c) = schema.class_by_name(&format!("S{}", classes.len())) {
            classes.push(c);
        }
        if classes.is_empty() {
            return Err(pagestore::Error::Corrupt(
                "catalog lost the set classes".into(),
            ));
        }
        Ok(UIndexSet {
            index,
            id,
            classes,
            schema,
            algorithm: ScanAlgorithm::Parallel,
        })
    }

    /// The buffer pool (to flush, or reach the underlying store tier).
    pub fn pool(&self) -> &BufferPool<P> {
        self.index.tree().pool()
    }

    /// Consume the adapter, returning the pool (and with it the store).
    pub fn into_pool(self) -> BufferPool<P> {
        self.index.into_pool()
    }

    /// Select the scan algorithm for subsequent queries.
    pub fn use_algorithm(&mut self, algorithm: ScanAlgorithm) {
        self.algorithm = algorithm;
    }

    /// Exact-key query returning the full scan statistics (not just the
    /// harness's `QueryCost` projection).
    pub fn exact_stats(
        &mut self,
        key: &[u8],
        sets: &[SetId],
    ) -> PageResult<(Vec<(SetId, Oid)>, ScanStats)> {
        let q = self.exact_query(key, sets);
        self.run_stats(q)
    }

    /// Range query (`lo <= key < hi`) returning the full scan statistics.
    pub fn range_stats(
        &mut self,
        lo: &[u8],
        hi: &[u8],
        sets: &[SetId],
    ) -> PageResult<(Vec<(SetId, Oid)>, ScanStats)> {
        let q = self.range_query(lo, hi, sets);
        self.run_stats(q)
    }

    /// Build (without running) the exact-probe [`Query`], under the
    /// currently selected scan algorithm — for callers that run it
    /// themselves, e.g. through a [`uindex::DatabaseReader`].
    pub fn exact_query(&self, key: &[u8], sets: &[SetId]) -> Query {
        let mut q = Query::on(self.id)
            .value(ValuePred::eq(Self::value_of(key)))
            .class_at(0, self.class_sel(sets));
        q.algorithm = self.algorithm;
        q
    }

    /// Build (without running) the range [`Query`] (`lo <= key < hi`).
    pub fn range_query(&self, lo: &[u8], hi: &[u8], sets: &[SetId]) -> Query {
        let mut q = Query::on(self.id)
            .value(ValuePred::Range {
                lo: Some(Self::value_of(lo)),
                hi: Some(Self::value_of(hi)),
                hi_inclusive: false,
            })
            .class_at(0, self.class_sel(sets));
        q.algorithm = self.algorithm;
        q
    }

    /// A `Send + Clone` handle for querying this index from other threads
    /// (see [`uindex::DatabaseReader`]). Enables snapshot mode on the tree.
    pub fn reader(&mut self) -> uindex::DatabaseReader<P> {
        uindex::DatabaseReader::for_index(&mut self.index, &self.schema)
    }

    /// Convert raw index hits into the harness's sorted `(set, oid)` shape.
    pub fn set_hits(&self, hits: &[uindex::QueryHit]) -> Vec<(SetId, Oid)> {
        let mut out = Vec::with_capacity(hits.len());
        for h in hits {
            let class = self
                .index
                .encoding()
                .class_by_code(&h.key.path[0].code)
                .expect("known code");
            let set = SetId(
                self.classes
                    .iter()
                    .position(|&c| c == class)
                    .expect("known class") as u16,
            );
            out.push((set, h.key.path[0].oid));
        }
        out.sort();
        out
    }

    fn entry(&self, value: KeyValue, set: SetId, oid: Oid) -> EntryKey {
        let class = self.classes[set.0 as usize];
        let code = self
            .index
            .encoding()
            .code(class)
            .expect("all classes coded")
            .as_bytes()
            .into();
        EntryKey {
            index_id: self.id,
            value,
            path: vec![PathElem { code, oid }].into(),
        }
    }

    fn key_value(key: &[u8]) -> KeyValue {
        KeyValue::Str(std::str::from_utf8(key).expect("ascii key").into())
    }

    fn run(&mut self, q: Query) -> PageResult<(Vec<(SetId, Oid)>, QueryCost)> {
        let (hits, stats) = self.run_stats(q)?;
        Ok((
            hits,
            QueryCost {
                pages: stats.pages_read,
                visits: stats.node_visits,
                descents: stats.descents,
            },
        ))
    }

    fn run_stats(&mut self, q: Query) -> PageResult<(Vec<(SetId, Oid)>, ScanStats)> {
        let mut q = q;
        q.algorithm = self.algorithm;
        let (hits, stats) = self
            .index
            .query(&self.schema, &q)
            .map_err(|e| pagestore::Error::Corrupt(e.to_string()))?;
        Ok((self.set_hits(&hits), stats))
    }

    fn class_sel(&self, sets: &[SetId]) -> ClassSel {
        ClassSel::AnyOf(
            sets.iter()
                .map(|s| ClassSel::Exact(self.classes[s.0 as usize]))
                .collect(),
        )
    }

    fn value_of(key: &[u8]) -> Value {
        Value::Str(String::from_utf8(key.to_vec()).expect("ascii key"))
    }

    /// Shape statistics of the underlying tree.
    pub fn verify(&mut self) -> PageResult<btree::TreeStats> {
        self.index
            .verify()
            .map_err(|e| pagestore::Error::Corrupt(e.to_string()))
    }
}

impl<P: PageStore> SetIndex for UIndexSet<P> {
    fn insert(&mut self, key: &[u8], set: SetId, oid: Oid) -> PageResult<()> {
        let e = self.entry(Self::key_value(key), set, oid);
        self.index
            .insert_entries(std::slice::from_ref(&e))
            .map_err(|e| pagestore::Error::Corrupt(e.to_string()))?;
        Ok(())
    }

    fn remove(&mut self, key: &[u8], set: SetId, oid: Oid) -> PageResult<bool> {
        let e = self.entry(Self::key_value(key), set, oid);
        let n = self
            .index
            .remove_entries(std::slice::from_ref(&e))
            .map_err(|e| pagestore::Error::Corrupt(e.to_string()))?;
        Ok(n > 0)
    }

    fn exact(&mut self, key: &[u8], sets: &[SetId]) -> PageResult<(Vec<(SetId, Oid)>, QueryCost)> {
        let q = Query::on(self.id)
            .value(ValuePred::eq(Self::value_of(key)))
            .class_at(0, self.class_sel(sets));
        self.run(q)
    }

    fn range(
        &mut self,
        lo: &[u8],
        hi: &[u8],
        sets: &[SetId],
    ) -> PageResult<(Vec<(SetId, Oid)>, QueryCost)> {
        let q = Query::on(self.id)
            .value(ValuePred::Range {
                lo: Some(Self::value_of(lo)),
                hi: Some(Self::value_of(hi)),
                hi_inclusive: false,
            })
            .class_at(0, self.class_sel(sets));
        self.run(q)
    }

    fn total_pages(&self) -> usize {
        self.index.tree().pool().live_pages()
    }

    fn name(&self) -> &'static str {
        "U-index"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(
        postings: &[(Vec<u8>, SetId, Oid)],
        lo: &[u8],
        hi: &[u8],
        sets: &[SetId],
    ) -> Vec<(SetId, Oid)> {
        let mut out: Vec<(SetId, Oid)> = postings
            .iter()
            .filter(|(k, s, _)| k.as_slice() >= lo && k.as_slice() < hi && sets.contains(s))
            .map(|(_, s, o)| (*s, *o))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn generation_deterministic_and_uniform() {
        let cfg = UniformConfig {
            num_objects: 10_000,
            num_sets: 8,
            keys: KeyCount::Distinct(100),
            seed: 1,
        };
        let a = generate_postings(&cfg);
        let b = generate_postings(&cfg);
        assert_eq!(a, b);
        // Roughly uniform across sets.
        let mut counts = [0usize; 8];
        for (_, s, _) in &a {
            counts[s.0 as usize] += 1;
        }
        for c in counts {
            assert!((1000..1600).contains(&c), "set count {c}");
        }
    }

    #[test]
    fn uindex_adapter_matches_brute_force() {
        let cfg = UniformConfig {
            num_objects: 5_000,
            num_sets: 8,
            keys: KeyCount::Distinct(200),
            seed: 2,
        };
        let postings = generate_postings(&cfg);
        let mut u = UIndexSet::build(8, &postings).unwrap();
        u.verify().unwrap();

        let sets = [SetId(1), SetId(4), SetId(5)];
        let probe = key_bytes(42);
        let mut hi = probe.clone();
        hi.push(0);
        let (hits, cost) = u.exact(&probe, &sets).unwrap();
        assert_eq!(hits, brute(&postings, &probe, &hi, &sets));
        assert!(cost.pages >= 2);

        let (hits, _) = u.range(&key_bytes(50), &key_bytes(70), &sets).unwrap();
        assert_eq!(
            hits,
            brute(&postings, &key_bytes(50), &key_bytes(70), &sets)
        );

        // Forward scan agrees.
        u.use_algorithm(ScanAlgorithm::Forward);
        let (fwd, fwd_cost) = u.range(&key_bytes(50), &key_bytes(70), &sets).unwrap();
        assert_eq!(fwd, brute(&postings, &key_bytes(50), &key_bytes(70), &sets));
        u.use_algorithm(ScanAlgorithm::Parallel);
        let (_, par_cost) = u.range(&key_bytes(50), &key_bytes(70), &sets).unwrap();
        assert!(par_cost.pages <= fwd_cost.pages);
    }

    #[test]
    fn adapter_incremental_ops() {
        let mut u = UIndexSet::new(4).unwrap();
        u.insert(&key_bytes(1), SetId(2), Oid(10)).unwrap();
        u.insert(&key_bytes(1), SetId(3), Oid(11)).unwrap();
        let (hits, _) = u.exact(&key_bytes(1), &[SetId(2), SetId(3)]).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(u.remove(&key_bytes(1), SetId(2), Oid(10)).unwrap());
        assert!(!u.remove(&key_bytes(1), SetId(2), Oid(10)).unwrap());
        let (hits, _) = u.exact(&key_bytes(1), &[SetId(2), SetId(3)]).unwrap();
        assert_eq!(hits, vec![(SetId(3), Oid(11))]);
    }
}
