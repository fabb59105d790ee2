//! Kim & Bertino's nested index and path index (§2; [1] in the paper).
//!
//! Both index a value reachable over a reference chain. The **nested
//! index** associates only the *top-class* objects with each value; the
//! **path index** stores the whole instantiation, so queries on in-path
//! classes are answerable — but only by scanning the value's instantiation
//! lists ("such queries, however, may require the search of many index
//! pages").
//!
//! These are qualitative baselines (§4.4); the harness feeds them
//! pre-computed instantiations.

use btree::{BTree, BTreeConfig};
use objstore::Oid;
use pagestore::{BufferPool, MemStore, Result};

use crate::common::QueryCost;

/// Nested index: value → top-class OIDs.
pub struct NestedIndex {
    tree: BTree<MemStore>,
}

fn nested_key(value: &[u8], oid: Oid) -> Vec<u8> {
    let mut k = Vec::with_capacity(value.len() + 5);
    k.extend_from_slice(value);
    k.push(0x00);
    k.extend_from_slice(&oid.to_bytes());
    k
}

impl NestedIndex {
    /// Build from `(value bytes, top oid)` postings.
    pub fn build(page_size: usize, postings: &mut [(Vec<u8>, Oid)]) -> Result<Self> {
        postings.sort();
        let pool = BufferPool::new(MemStore::new(page_size), 1 << 16);
        let mut items: Vec<(Vec<u8>, Vec<u8>)> = postings
            .iter()
            .map(|(v, o)| (nested_key(v, *o), Vec::new()))
            .collect();
        items.dedup();
        Ok(NestedIndex {
            tree: BTree::bulk_load(pool, BTreeConfig::default(), items)?,
        })
    }

    /// Insert one posting.
    pub fn insert(&mut self, value: &[u8], oid: Oid) -> Result<()> {
        self.tree.insert(&nested_key(value, oid), &[])?;
        Ok(())
    }

    /// Remove one posting.
    pub fn remove(&mut self, value: &[u8], oid: Oid) -> Result<bool> {
        Ok(self.tree.delete(&nested_key(value, oid))?.is_some())
    }

    /// Top-class OIDs for an exact value.
    pub fn exact(&mut self, value: &[u8]) -> Result<(Vec<Oid>, QueryCost)> {
        self.tree.pool().begin_query();
        let mut lo = value.to_vec();
        lo.push(0x00);
        let mut hi = value.to_vec();
        hi.push(0x01);
        let oids = self
            .tree
            .range(&lo, &hi)?
            .into_iter()
            .map(|(k, _)| Oid::from_bytes(k[k.len() - 4..].try_into().expect("key")))
            .collect();
        let q = self.tree.pool().query_stats();
        Ok((
            oids,
            QueryCost {
                pages: q.distinct_pages,
                visits: q.node_visits,
                descents: 0,
            },
        ))
    }

    /// Live pages.
    pub fn total_pages(&self) -> usize {
        self.tree.pool().live_pages()
    }
}

/// Path index: value → full path instantiations (top-class object plus the
/// chain of referenced objects).
pub struct PathIndex {
    tree: BTree<MemStore>,
    path_len: usize,
}

fn path_key(value: &[u8], path: &[Oid]) -> Vec<u8> {
    let mut k = Vec::with_capacity(value.len() + 1 + path.len() * 4);
    k.extend_from_slice(value);
    k.push(0x00);
    for o in path {
        k.extend_from_slice(&o.to_bytes());
    }
    k
}

impl PathIndex {
    /// Build from `(value bytes, instantiation)` postings; every
    /// instantiation must have the same length.
    pub fn build(
        page_size: usize,
        path_len: usize,
        postings: &mut [(Vec<u8>, Vec<Oid>)],
    ) -> Result<Self> {
        postings.sort();
        let pool = BufferPool::new(MemStore::new(page_size), 1 << 16);
        let mut items: Vec<(Vec<u8>, Vec<u8>)> = postings
            .iter()
            .map(|(v, p)| {
                debug_assert_eq!(p.len(), path_len);
                (path_key(v, p), Vec::new())
            })
            .collect();
        items.dedup();
        Ok(PathIndex {
            tree: BTree::bulk_load(pool, BTreeConfig::default(), items)?,
            path_len,
        })
    }

    fn decode(&self, key: &[u8]) -> Vec<Oid> {
        let tail = &key[key.len() - self.path_len * 4..];
        tail.chunks(4)
            .map(|c| Oid::from_bytes(c.try_into().expect("chunk")))
            .collect()
    }

    /// All instantiations for an exact value.
    pub fn exact(&mut self, value: &[u8]) -> Result<(Vec<Vec<Oid>>, QueryCost)> {
        self.tree.pool().begin_query();
        let mut lo = value.to_vec();
        lo.push(0x00);
        let mut hi = value.to_vec();
        hi.push(0x01);
        let paths = self
            .tree
            .range(&lo, &hi)?
            .into_iter()
            .map(|(k, _)| self.decode(&k))
            .collect();
        let q = self.tree.pool().query_stats();
        Ok((
            paths,
            QueryCost {
                pages: q.distinct_pages,
                visits: q.node_visits,
                descents: 0,
            },
        ))
    }

    /// Live pages.
    pub fn total_pages(&self) -> usize {
        self.tree.pool().live_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_index_roundtrip() {
        let mut postings: Vec<(Vec<u8>, Oid)> = (0..500u32)
            .map(|i| (format!("v{:03}", i % 50).into_bytes(), Oid(i)))
            .collect();
        let mut n = NestedIndex::build(1024, &mut postings).unwrap();
        let (oids, cost) = n.exact(b"v007").unwrap();
        assert_eq!(oids.len(), 10);
        assert!(cost.pages >= 1);
        n.insert(b"v007", Oid(9999)).unwrap();
        assert_eq!(n.exact(b"v007").unwrap().0.len(), 11);
        assert!(n.remove(b"v007", Oid(9999)).unwrap());
        assert_eq!(n.exact(b"v007").unwrap().0.len(), 10);
    }

    #[test]
    fn path_index_exact_returns_every_instantiation() {
        let mut postings: Vec<(Vec<u8>, Vec<Oid>)> = (0..600u32)
            .map(|i| {
                (
                    format!("v{:02}", i % 10).into_bytes(),
                    vec![Oid(i), Oid(i % 7), Oid(i % 3)],
                )
            })
            .collect();
        let mut p = PathIndex::build(1024, 3, &mut postings).unwrap();
        let (paths, _) = p.exact(b"v03").unwrap();
        assert_eq!(paths.len(), 60);
        assert!(paths.iter().all(|path| path[0].0 % 10 == 3));
    }
}
