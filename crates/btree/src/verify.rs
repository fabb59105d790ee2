//! Structural invariant checking, used heavily by the property tests.

use std::collections::HashSet;

use pagestore::{Error, PageId, PageStore, Result};

use crate::tree::{BTree, Loaded};

/// Shape statistics returned by [`BTree::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Levels including the leaf level (a lone leaf root has height 1).
    pub height: usize,
    /// Number of interior nodes.
    pub internal_nodes: usize,
    /// Number of leaf nodes.
    pub leaf_nodes: usize,
    /// Number of entries across all leaves.
    pub entries: u64,
}

impl TreeStats {
    /// Total node count (the paper's experiment 1 reports ~1562 for its
    /// configuration).
    pub fn total_nodes(&self) -> usize {
        self.internal_nodes + self.leaf_nodes
    }
}

impl<S: PageStore> BTree<S> {
    /// Check every structural invariant and return shape statistics:
    ///
    /// * all leaves at the same depth;
    /// * keys strictly increasing globally;
    /// * every separator correctly bounds its subtrees
    ///   (`max(left) < sep <= min(right)`);
    /// * every node fits its capacity; non-root nodes are not drastically
    ///   underfull under [`crate::Capacity::Entries`];
    /// * the leaf chain visits exactly the leaves in key order: each
    ///   leaf's `next` is the leaf after it in the tree, the last one's null;
    /// * the recorded length matches the actual entry count.
    ///
    /// Every page is read once, and the leaf chain is checked without
    /// following it, so a chain that loops cannot stall the check.
    pub fn verify(&self) -> Result<TreeStats> {
        let mut stats = TreeStats {
            height: 0,
            internal_nodes: 0,
            leaf_nodes: 0,
            entries: 0,
        };
        // Each leaf and its `next` pointer, in tree order.
        let mut leaves = Vec::new();
        stats.height = self.verify_rec(self.root(), None, None, true, &mut stats, &mut leaves)?;
        for (i, &(id, next)) in leaves.iter().enumerate() {
            let want = leaves.get(i + 1).map_or(PageId::NULL, |&(id, _)| id);
            if next != want {
                return Err(Error::Corrupt(format!(
                    "leaf {id} chains to {next}, but the leaf after it in tree order is {want}"
                )));
            }
        }
        if stats.entries != self.len() {
            return Err(Error::Corrupt(format!(
                "tree len {} != counted entries {}",
                self.len(),
                stats.entries
            )));
        }
        Ok(stats)
    }

    /// Every page of the tree, root first: what the tree owns in a pool
    /// it shares with other structures.
    pub fn page_ids(&self) -> Result<Vec<PageId>> {
        let mut ids = vec![self.root()];
        let mut next = 0;
        while next < ids.len() {
            if let Loaded::Interior(int) = self.descend(ids[next])? {
                ids.extend_from_slice(int.children());
            }
            next += 1;
        }
        Ok(ids)
    }

    /// Whether the tree reaches any page of `ids`, found without fetching
    /// one of them: a walk from the root that stops short of each.
    pub fn reaches(&self, ids: &HashSet<PageId>) -> Result<bool> {
        let mut todo = vec![self.root()];
        while let Some(id) = todo.pop() {
            if ids.contains(&id) {
                return Ok(true);
            }
            if let Loaded::Interior(int) = self.descend(id)? {
                todo.extend_from_slice(int.children());
            }
        }
        Ok(false)
    }

    fn verify_rec(
        &self,
        id: PageId,
        lower: Option<&[u8]>, // inclusive bound: all keys >= lower
        upper: Option<&[u8]>, // exclusive bound: all keys < upper
        is_root: bool,
        stats: &mut TreeStats,
        leaves: &mut Vec<(PageId, PageId)>,
    ) -> Result<usize> {
        let over = || Err(Error::Corrupt(format!("node {id} over capacity")));
        let int = match self.load(id)? {
            Loaded::Leaf(leaf) if !self.fits(&leaf) => return over(),
            Loaded::Interior(int) if !self.fits(&*int) => return over(),
            Loaded::Leaf(leaf) => {
                stats.leaf_nodes += 1;
                stats.entries += leaf.len() as u64;
                leaves.push((id, leaf.next));
                let n = leaf.len();
                let problem = if (1..n).any(|i| leaf.key(i - 1) >= leaf.key(i)) {
                    "keys not strictly increasing"
                } else if n > 0 && lower.is_some_and(|lo| leaf.key(0) < lo) {
                    "key below separator bound"
                } else if n > 0 && upper.is_some_and(|hi| leaf.key(n - 1) >= hi) {
                    "key at/above separator bound"
                } else {
                    return Ok(1);
                };
                return Err(Error::Corrupt(format!("leaf {id} {problem}")));
            }
            Loaded::Interior(int) => int,
        };
        stats.internal_nodes += 1;
        if int.is_empty() && !is_root {
            return Err(Error::Corrupt(format!("interior {id} shape invalid")));
        }
        if (1..int.len()).any(|i| int.sep(i - 1) >= int.sep(i)) {
            return Err(Error::Corrupt(format!(
                "interior {id} separators not increasing"
            )));
        }
        let mut child_height = None;
        for (i, &child) in int.children().iter().enumerate() {
            let lo = i.checked_sub(1).map(|j| int.sep(j)).or(lower);
            let hi = (i < int.len()).then(|| int.sep(i)).or(upper);
            let h = self.verify_rec(child, lo, hi, false, stats, leaves)?;
            if child_height.is_some_and(|prev| prev != h) {
                return Err(Error::Corrupt(format!(
                    "interior {id} children at different heights"
                )));
            }
            child_height = Some(h);
        }
        Ok(child_height.expect("at least one child") + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BTreeConfig;
    use pagestore::{BufferPool, MemStore};

    #[test]
    fn verify_small_tree() {
        let pool = BufferPool::new(MemStore::new(128), 1024);
        let mut tree = BTree::create(pool, BTreeConfig::default()).unwrap();
        for i in 0..500u32 {
            tree.insert(format!("k{i:05}").as_bytes(), b"v").unwrap();
        }
        let stats = tree.verify().unwrap();
        assert_eq!(stats.entries, 500);
        assert!(stats.height >= 2);
        assert!(stats.leaf_nodes > 1);
    }
}
