//! The classic class-hierarchy index (CH-tree) of Kim, Bertino & Dale.
//!
//! One B+-tree keyed on the attribute value; the value of each entry is a
//! *set directory*: per-class OID lists for every class in the hierarchy
//! holding that key (§2). This is **key grouping** — all postings for one
//! key live together, so exact-match is excellent, while range queries and
//! narrow multi-set queries must read every posting in the key range
//! regardless of which sets were asked for.
//!
//! Directories that do not fit inline in the B-tree entry overflow into a
//! chain of dedicated pages, as in the original design's record overflow.

use btree::{BTree, BTreeConfig};
use objstore::Oid;
use pagestore::{BufferPool, Error, MemStore, PageId, Result};

use crate::common::{read_oids, write_oids, QueryCost, SetId, SetIndex};

const INLINE: u8 = 0;
const CHAINED: u8 = 1;

/// The CH-tree. See the module docs.
pub struct ChTree {
    tree: BTree<MemStore>,
}

/// A decoded per-key directory: sorted `(set, sorted oids)`.
type Directory = Vec<(SetId, Vec<Oid>)>;

fn encode_directory(dir: &Directory) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(dir.len() as u16).to_le_bytes());
    for (set, oids) in dir {
        buf.extend_from_slice(&set.0.to_le_bytes());
        write_oids(&mut buf, oids);
    }
    buf
}

fn decode_directory(buf: &[u8]) -> Result<Directory> {
    let bad = || Error::Corrupt("bad CH-tree directory".into());
    let n = u16::from_le_bytes(buf.get(..2).ok_or_else(bad)?.try_into().unwrap()) as usize;
    let mut pos = 2;
    let mut dir = Vec::with_capacity(n);
    for _ in 0..n {
        let set = u16::from_le_bytes(buf.get(pos..pos + 2).ok_or_else(bad)?.try_into().unwrap());
        pos += 2;
        let oids = read_oids(buf, &mut pos).ok_or_else(bad)?;
        dir.push((SetId(set), oids));
    }
    Ok(dir)
}

impl ChTree {
    /// An empty CH-tree with the given page geometry.
    pub fn new(page_size: usize, pool_pages: usize) -> Result<Self> {
        let pool = BufferPool::new(MemStore::new(page_size), pool_pages);
        Ok(ChTree {
            tree: BTree::create(pool, BTreeConfig::default())?,
        })
    }

    /// Build from postings in one pass (experiment setup).
    pub fn build(
        page_size: usize,
        pool_pages: usize,
        postings: &mut [(Vec<u8>, SetId, Oid)],
    ) -> Result<Self> {
        postings.sort();
        let mut out = ChTree::new(page_size, pool_pages)?;
        let mut i = 0;
        while i < postings.len() {
            let key = postings[i].0.clone();
            let mut dir: Directory = Vec::new();
            while i < postings.len() && postings[i].0 == key {
                let (_, set, oid) = postings[i];
                match dir.last_mut() {
                    Some((s, oids)) if *s == set => oids.push(oid),
                    _ => dir.push((set, vec![oid])),
                }
                i += 1;
            }
            out.write_directory(&key, &dir)?;
        }
        Ok(out)
    }

    fn read_directory(&mut self, key: &[u8]) -> Result<Option<Directory>> {
        let Some(v) = self.tree.get(key)? else {
            return Ok(None);
        };
        self.read_directory_value(&v).map(Some)
    }

    fn read_directory_value(&mut self, v: &[u8]) -> Result<Directory> {
        match v.first() {
            Some(&INLINE) => decode_directory(&v[1..]),
            Some(&CHAINED) => {
                let head = PageId::from_bytes(
                    v.get(1..5)
                        .ok_or_else(|| Error::Corrupt("bad chain head".into()))?
                        .try_into()
                        .unwrap(),
                );
                let bytes = self.read_chain(head)?;
                decode_directory(&bytes)
            }
            _ => Err(Error::Corrupt("bad CH-tree value tag".into())),
        }
    }

    fn read_chain(&mut self, mut page: PageId) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        while !page.is_null() {
            let p = self.tree.pool().fetch(page)?;
            let data = p.read();
            let next = PageId::from_bytes(data[..4].try_into().unwrap());
            let len = u16::from_le_bytes(data[4..6].try_into().unwrap()) as usize;
            out.extend_from_slice(&data[6..6 + len]);
            drop(data);
            page = next;
        }
        Ok(out)
    }

    fn free_chain(&mut self, v: &[u8]) -> Result<()> {
        if v.first() == Some(&CHAINED) {
            let mut page = PageId::from_bytes(v[1..5].try_into().unwrap());
            while !page.is_null() {
                let next = {
                    let p = self.tree.pool().fetch(page)?;
                    let d = p.read();
                    PageId::from_bytes(d[..4].try_into().unwrap())
                };
                self.tree.pool().free(page)?;
                page = next;
            }
        }
        Ok(())
    }

    fn write_directory(&mut self, key: &[u8], dir: &Directory) -> Result<()> {
        // Free a previous chain, if any.
        if let Some(old) = self.tree.get(key)? {
            self.free_chain(&old)?;
        }
        if dir.is_empty() {
            self.tree.delete(key)?;
            return Ok(());
        }
        let bytes = encode_directory(dir);
        let max_inline = self.tree.max_entry_size().saturating_sub(key.len() + 1);
        if bytes.len() <= max_inline {
            let mut v = Vec::with_capacity(bytes.len() + 1);
            v.push(INLINE);
            v.extend_from_slice(&bytes);
            self.tree.insert(key, &v)?;
            return Ok(());
        }
        // Spill into a chain of overflow pages.
        let page_size = self.tree.pool().page_size();
        let payload = page_size - 6;
        let chunks: Vec<&[u8]> = bytes.chunks(payload).collect();
        let mut next = PageId::NULL;
        for chunk in chunks.iter().rev() {
            let (id, page) = self.tree.pool().allocate()?;
            {
                let mut d = page.write();
                d[..4].copy_from_slice(&next.to_bytes());
                d[4..6].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
                d[6..6 + chunk.len()].copy_from_slice(chunk);
            }
            next = id;
        }
        let mut v = vec![CHAINED];
        v.extend_from_slice(&next.to_bytes());
        self.tree.insert(key, &v)?;
        Ok(())
    }

    fn cost(&self) -> QueryCost {
        let q = self.tree.pool().query_stats();
        QueryCost {
            pages: q.distinct_pages,
            visits: q.node_visits,
            descents: 0,
        }
    }
}

impl SetIndex for ChTree {
    fn insert(&mut self, key: &[u8], set: SetId, oid: Oid) -> Result<()> {
        let mut dir = self.read_directory(key)?.unwrap_or_default();
        match dir.binary_search_by_key(&set, |(s, _)| *s) {
            Ok(i) => {
                if let Err(j) = dir[i].1.binary_search(&oid) {
                    dir[i].1.insert(j, oid);
                }
            }
            Err(i) => dir.insert(i, (set, vec![oid])),
        }
        self.write_directory(key, &dir)
    }

    fn remove(&mut self, key: &[u8], set: SetId, oid: Oid) -> Result<bool> {
        let Some(mut dir) = self.read_directory(key)? else {
            return Ok(false);
        };
        let Ok(i) = dir.binary_search_by_key(&set, |(s, _)| *s) else {
            return Ok(false);
        };
        let Ok(j) = dir[i].1.binary_search(&oid) else {
            return Ok(false);
        };
        dir[i].1.remove(j);
        if dir[i].1.is_empty() {
            dir.remove(i);
        }
        self.write_directory(key, &dir)?;
        Ok(true)
    }

    fn exact(&mut self, key: &[u8], sets: &[SetId]) -> Result<(Vec<(SetId, Oid)>, QueryCost)> {
        self.tree.pool().begin_query();
        let mut out = Vec::new();
        if let Some(dir) = self.read_directory(key)? {
            for (set, oids) in dir {
                if sets.binary_search(&set).is_ok() {
                    out.extend(oids.into_iter().map(|o| (set, o)));
                }
            }
        }
        out.sort();
        Ok((out, self.cost()))
    }

    fn range(
        &mut self,
        lo: &[u8],
        hi: &[u8],
        sets: &[SetId],
    ) -> Result<(Vec<(SetId, Oid)>, QueryCost)> {
        self.tree.pool().begin_query();
        let mut out = Vec::new();
        let mut cur = self.tree.seek(lo)?;
        while let Some((k, v)) = self.tree.cursor_entry(&mut cur)? {
            if k.as_slice() >= hi {
                break;
            }
            // Key grouping: the whole directory (including overflow pages)
            // is materialized for every key in range, whether or not the
            // queried sets occur in it.
            let dir = self.read_directory_value(&v)?;
            for (set, oids) in dir {
                if sets.binary_search(&set).is_ok() {
                    out.extend(oids.into_iter().map(|o| (set, o)));
                }
            }
            self.tree.cursor_advance(&mut cur);
        }
        out.sort();
        Ok((out, self.cost()))
    }

    fn total_pages(&self) -> usize {
        self.tree.pool().live_pages()
    }

    fn name(&self) -> &'static str {
        "CH-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        format!("k{i:07}").into_bytes()
    }

    #[test]
    fn insert_exact_remove() {
        let mut t = ChTree::new(1024, 4096).unwrap();
        t.insert(&key(1), SetId(0), Oid(10)).unwrap();
        t.insert(&key(1), SetId(1), Oid(11)).unwrap();
        t.insert(&key(1), SetId(0), Oid(12)).unwrap();
        let (hits, _) = t.exact(&key(1), &[SetId(0)]).unwrap();
        assert_eq!(hits, vec![(SetId(0), Oid(10)), (SetId(0), Oid(12))]);
        let (hits, _) = t.exact(&key(1), &[SetId(0), SetId(1)]).unwrap();
        assert_eq!(hits.len(), 3);
        assert!(t.remove(&key(1), SetId(0), Oid(10)).unwrap());
        assert!(!t.remove(&key(1), SetId(0), Oid(10)).unwrap());
        let (hits, _) = t.exact(&key(1), &[SetId(0)]).unwrap();
        assert_eq!(hits, vec![(SetId(0), Oid(12))]);
    }

    #[test]
    fn overflow_chains() {
        let mut t = ChTree::new(1024, 4096).unwrap();
        // 1000 oids under one key: directory far exceeds a page.
        for i in 0..1000u32 {
            t.insert(&key(7), SetId((i % 4) as u16), Oid(i)).unwrap();
        }
        let (hits, cost) = t
            .exact(&key(7), &[SetId(0), SetId(1), SetId(2), SetId(3)])
            .unwrap();
        assert_eq!(hits.len(), 1000);
        assert!(cost.pages > 4, "chain pages must be read: {cost:?}");
        // Removing everything frees the chain.
        let before = t.total_pages();
        for i in 0..1000u32 {
            t.remove(&key(7), SetId((i % 4) as u16), Oid(i)).unwrap();
        }
        assert!(t.total_pages() < before);
        let (hits, _) = t.exact(&key(7), &[SetId(0)]).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn range_reads_unrelated_sets() {
        // Key grouping: a range query over set 0 pays for set 1's postings.
        let mut postings = Vec::new();
        for i in 0..2000u32 {
            postings.push((key(i), SetId((i % 2) as u16), Oid(i)));
        }
        let mut t = ChTree::build(1024, 4096, &mut postings).unwrap();
        let (hits, cost_one) = t.range(&key(0), &key(400), &[SetId(0)]).unwrap();
        assert_eq!(hits.len(), 200);
        let (hits2, cost_both) = t.range(&key(0), &key(400), &[SetId(0), SetId(1)]).unwrap();
        assert_eq!(hits2.len(), 400);
        // Same pages either way — that is the key-grouping cost profile.
        assert_eq!(cost_one.pages, cost_both.pages);
    }

    #[test]
    fn build_matches_incremental() {
        let mut postings = Vec::new();
        for i in 0..500u32 {
            postings.push((key(i % 50), SetId((i % 3) as u16), Oid(i)));
        }
        let mut built = ChTree::build(1024, 4096, &mut postings.clone()).unwrap();
        let mut incr = ChTree::new(1024, 4096).unwrap();
        for (k, s, o) in &postings {
            incr.insert(k, *s, *o).unwrap();
        }
        for probe in 0..50u32 {
            let sets = [SetId(0), SetId(1), SetId(2)];
            let (a, _) = built.exact(&key(probe), &sets).unwrap();
            let (b, _) = incr.exact(&key(probe), &sets).unwrap();
            let (mut a, mut b) = (a, b);
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }
}
