//! The Nested-Inherited Index (NIX) of Bertino & Foscoli (§2; [3] in the
//! paper).
//!
//! NIX is **key-grouped**: every attribute value maps to a directory with
//! one entry per class (or sub-class) along the indexed path, holding the
//! OIDs of all instances connected to the value. Auxiliary per-class
//! structures map each object to its *parents* along the path, speeding up
//! updates at the price of a second structure to maintain (the reason the
//! paper predicts worse update performance for end-of-path objects, §4.4).
//!
//! The primary structure reuses the CH-tree's value→directory machinery
//! (the Gudes paper itself notes NIX's leaf entries have "a directory
//! structure ... similar to the CH-index"); classes play the role of sets.

use btree::{BTree, BTreeConfig};
use objstore::Oid;
use pagestore::{BufferPool, MemStore, Result};

use crate::chtree::ChTree;
use crate::common::{QueryCost, SetId, SetIndex};

/// The NIX structure. `SetId` identifies a class along the indexed path.
pub struct Nix {
    primary: ChTree,
    /// Auxiliary structure: key = `[class u16][child oid][parent oid]`,
    /// key-only entries.
    aux: BTree<MemStore>,
}

fn aux_key(class: SetId, child: Oid, parent: Oid) -> Vec<u8> {
    let mut k = Vec::with_capacity(10);
    k.extend_from_slice(&class.to_bytes());
    k.extend_from_slice(&child.to_bytes());
    k.extend_from_slice(&parent.to_bytes());
    k
}

impl Nix {
    /// An empty NIX with the given page geometry.
    pub fn new(page_size: usize, pool_pages: usize) -> Result<Self> {
        let pool = BufferPool::new(MemStore::new(page_size), pool_pages);
        Ok(Nix {
            primary: ChTree::new(page_size, pool_pages)?,
            aux: BTree::create(pool, BTreeConfig::default())?,
        })
    }

    /// Associate `(value, class, oid)` in the primary structure and record
    /// `oid`'s parent along the path in the auxiliary structure.
    pub fn insert(
        &mut self,
        value: &[u8],
        class: SetId,
        oid: Oid,
        parent: Option<Oid>,
    ) -> Result<()> {
        SetIndex::insert(&mut self.primary, value, class, oid)?;
        if let Some(p) = parent {
            self.aux.insert(&aux_key(class, oid, p), &[])?;
        }
        Ok(())
    }

    /// Remove an association (and the parent link, if given).
    pub fn remove(
        &mut self,
        value: &[u8],
        class: SetId,
        oid: Oid,
        parent: Option<Oid>,
    ) -> Result<bool> {
        let existed = SetIndex::remove(&mut self.primary, value, class, oid)?;
        if let Some(p) = parent {
            self.aux.delete(&aux_key(class, oid, p))?;
        }
        Ok(existed)
    }

    /// All instances of the queried classes associated with `value`.
    pub fn exact(
        &mut self,
        value: &[u8],
        classes: &[SetId],
    ) -> Result<(Vec<(SetId, Oid)>, QueryCost)> {
        self.primary.exact(value, classes)
    }

    /// Range query over values.
    pub fn range(
        &mut self,
        lo: &[u8],
        hi: &[u8],
        classes: &[SetId],
    ) -> Result<(Vec<(SetId, Oid)>, QueryCost)> {
        self.primary.range(lo, hi, classes)
    }

    /// The parents of `oid` along the path (auxiliary lookup used by
    /// updates).
    pub fn parents(&mut self, class: SetId, oid: Oid) -> Result<(Vec<Oid>, QueryCost)> {
        self.aux.pool().begin_query();
        let mut prefix = Vec::with_capacity(6);
        prefix.extend_from_slice(&class.to_bytes());
        prefix.extend_from_slice(&oid.to_bytes());
        let parents = self
            .aux
            .view()
            .prefix_scan(&prefix)?
            .into_iter()
            .map(|(k, _)| Oid::from_bytes(k[6..10].try_into().expect("aux key")))
            .collect();
        let q = self.aux.pool().query_stats();
        Ok((
            parents,
            QueryCost {
                pages: q.distinct_pages,
                visits: q.node_visits,
                descents: 0,
            },
        ))
    }

    /// Live pages across the primary and auxiliary structures — NIX pays
    /// for both.
    pub fn total_pages(&self) -> usize {
        self.primary.total_pages() + self.aux.pool().live_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_and_aux() {
        let mut nix = Nix::new(1024, 4096).unwrap();
        // Path Vehicle(1)/Company(0): value = president age.
        for i in 0..100u32 {
            let company = Oid(i % 10);
            nix.insert(b"age50", SetId(0), company, None).unwrap();
            nix.insert(b"age50", SetId(1), Oid(100 + i), Some(company))
                .unwrap();
        }
        let (hits, _) = nix.exact(b"age50", &[SetId(0), SetId(1)]).unwrap();
        assert_eq!(hits.len(), 10 + 100);
        let (hits, _) = nix.exact(b"age50", &[SetId(1)]).unwrap();
        assert_eq!(hits.len(), 100);
        // Parent lookups via the auxiliary structure.
        let (parents, cost) = nix.parents(SetId(1), Oid(105)).unwrap();
        assert_eq!(parents, vec![Oid(5)]);
        assert!(cost.pages >= 1);
        // Removal updates both structures.
        assert!(nix
            .remove(b"age50", SetId(1), Oid(105), Some(Oid(5)))
            .unwrap());
        let (parents, _) = nix.parents(SetId(1), Oid(105)).unwrap();
        assert!(parents.is_empty());
    }

    #[test]
    fn update_pays_double() {
        // The qualitative §4.4 point: NIX maintains two structures.
        let mut nix = Nix::new(1024, 4096).unwrap();
        nix.insert(b"v", SetId(0), Oid(1), Some(Oid(9))).unwrap();
        assert!(nix.total_pages() >= 2, "primary + auxiliary pages");
    }
}
