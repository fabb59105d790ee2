//! The H-tree of Low, Lu & Ooi: one B+-tree per class (set grouping).
//!
//! Retrieval over `k` sets fans out to `k` trees, so costs grow linearly in
//! the number of queried sets but never pay for unqueried ones — the polar
//! opposite of the CH-tree. The original's nested inter-tree pointers (which
//! let a super-class query enter sub-class trees mid-way) are simplified to
//! independent per-set trees; the paper uses H-trees qualitatively only
//! (§4.4) and this captures their cost profile: best for small set counts
//! and ranges, worst for exact-match over many sets.

use std::collections::BTreeMap;

use btree::{BTree, BTreeConfig};
use objstore::Oid;
use pagestore::{BufferPool, MemStore, Result};

use crate::common::{QueryCost, SetId, SetIndex};

/// The H-tree forest. See the module docs.
pub struct HTree {
    page_size: usize,
    pool_pages: usize,
    trees: BTreeMap<SetId, BTree<MemStore>>,
}

/// Per-tree keys are `key ++ oid` with empty values: all postings of one
/// key sit adjacent in that set's tree.
fn posting_key(key: &[u8], oid: Oid) -> Vec<u8> {
    let mut k = Vec::with_capacity(key.len() + 5);
    k.extend_from_slice(key);
    k.push(0x00);
    k.extend_from_slice(&oid.to_bytes());
    k
}

impl HTree {
    /// An empty H-tree with the given per-tree page geometry.
    pub fn new(page_size: usize, pool_pages: usize) -> Self {
        HTree {
            page_size,
            pool_pages,
            trees: BTreeMap::new(),
        }
    }

    /// Build from postings in one pass.
    pub fn build(
        page_size: usize,
        pool_pages: usize,
        postings: &mut [(Vec<u8>, SetId, Oid)],
    ) -> Result<Self> {
        postings.sort_by(|a, b| (a.1, &a.0, a.2).cmp(&(b.1, &b.0, b.2)));
        let mut out = HTree::new(page_size, pool_pages);
        let mut i = 0;
        while i < postings.len() {
            let set = postings[i].1;
            let mut items = Vec::new();
            while i < postings.len() && postings[i].1 == set {
                items.push((posting_key(&postings[i].0, postings[i].2), Vec::new()));
                i += 1;
            }
            let pool = BufferPool::new(MemStore::new(page_size), pool_pages);
            let tree = BTree::bulk_load(pool, BTreeConfig::default(), items)?;
            out.trees.insert(set, tree);
        }
        Ok(out)
    }

    fn tree_mut(&mut self, set: SetId) -> Result<&mut BTree<MemStore>> {
        if !self.trees.contains_key(&set) {
            let pool = BufferPool::new(MemStore::new(self.page_size), self.pool_pages);
            let tree = BTree::create(pool, BTreeConfig::default())?;
            self.trees.insert(set, tree);
        }
        Ok(self.trees.get_mut(&set).expect("just inserted"))
    }
}

impl SetIndex for HTree {
    fn insert(&mut self, key: &[u8], set: SetId, oid: Oid) -> Result<()> {
        let k = posting_key(key, oid);
        self.tree_mut(set)?.insert(&k, &[])?;
        Ok(())
    }

    fn remove(&mut self, key: &[u8], set: SetId, oid: Oid) -> Result<bool> {
        let k = posting_key(key, oid);
        match self.trees.get_mut(&set) {
            Some(t) => Ok(t.delete(&k)?.is_some()),
            None => Ok(false),
        }
    }

    fn exact(&mut self, key: &[u8], sets: &[SetId]) -> Result<(Vec<(SetId, Oid)>, QueryCost)> {
        let mut lo = key.to_vec();
        lo.push(0x00);
        let mut hi = key.to_vec();
        hi.push(0x01);
        self.range_inner(&lo, &hi, sets)
    }

    fn range(
        &mut self,
        lo: &[u8],
        hi: &[u8],
        sets: &[SetId],
    ) -> Result<(Vec<(SetId, Oid)>, QueryCost)> {
        let mut lo2 = lo.to_vec();
        lo2.push(0x00);
        let mut hi2 = hi.to_vec();
        hi2.push(0x00);
        self.range_inner(&lo2, &hi2, sets)
    }

    fn total_pages(&self) -> usize {
        self.trees.values().map(|t| t.pool().live_pages()).sum()
    }

    fn name(&self) -> &'static str {
        "H-tree"
    }
}

impl HTree {
    fn range_inner(
        &mut self,
        lo: &[u8],
        hi: &[u8],
        sets: &[SetId],
    ) -> Result<(Vec<(SetId, Oid)>, QueryCost)> {
        let mut out = Vec::new();
        let mut cost = QueryCost::default();
        for &set in sets {
            let Some(tree) = self.trees.get_mut(&set) else {
                continue;
            };
            tree.pool().begin_query();
            for (k, _) in tree.view().range(lo, hi)? {
                let oid = Oid::from_bytes(k[k.len() - 4..].try_into().expect("posting key"));
                out.push((set, oid));
            }
            let q = tree.pool().query_stats();
            cost.pages += q.distinct_pages;
            cost.visits += q.node_visits;
        }
        out.sort();
        Ok((out, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        format!("k{i:07}").into_bytes()
    }

    #[test]
    fn basic_ops() {
        let mut t = HTree::new(1024, 1024);
        t.insert(&key(1), SetId(0), Oid(1)).unwrap();
        t.insert(&key(1), SetId(1), Oid(2)).unwrap();
        t.insert(&key(2), SetId(0), Oid(3)).unwrap();
        let (hits, _) = t.exact(&key(1), &[SetId(0), SetId(1)]).unwrap();
        assert_eq!(hits.len(), 2);
        let (hits, _) = t.exact(&key(1), &[SetId(1)]).unwrap();
        assert_eq!(hits, vec![(SetId(1), Oid(2))]);
        assert!(t.remove(&key(1), SetId(1), Oid(2)).unwrap());
        let (hits, _) = t.exact(&key(1), &[SetId(1)]).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn cost_scales_with_sets_queried() {
        let mut postings = Vec::new();
        for i in 0..4000u32 {
            postings.push((key(i % 500), SetId((i % 8) as u16), Oid(i)));
        }
        let mut t = HTree::build(1024, 4096, &mut postings).unwrap();
        let (_, c1) = t.exact(&key(7), &[SetId(0)]).unwrap();
        let all: Vec<SetId> = (0..8).map(SetId).collect();
        let (hits, c8) = t.exact(&key(7), &all).unwrap();
        assert_eq!(hits.len(), 8);
        assert!(
            c8.pages >= c1.pages * 6,
            "multi-set exact match pays per set: {c1:?} vs {c8:?}"
        );
    }

    #[test]
    fn range_only_pays_for_queried_sets() {
        let mut postings = Vec::new();
        for i in 0..4000u32 {
            postings.push((key(i % 500), SetId((i % 8) as u16), Oid(i)));
        }
        let mut t = HTree::build(1024, 4096, &mut postings).unwrap();
        let (hits, c1) = t.range(&key(0), &key(100), &[SetId(3)]).unwrap();
        assert_eq!(hits.len(), 100);
        let all: Vec<SetId> = (0..8).map(SetId).collect();
        let (hits8, c8) = t.range(&key(0), &key(100), &all).unwrap();
        assert_eq!(hits8.len(), 800);
        assert!(c1.pages < c8.pages);
    }
}
