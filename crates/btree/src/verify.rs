//! Structural invariant checking, used heavily by the property tests.

use pagestore::{Error, PageId, PageStore, Result};

use crate::node::Node;
use crate::tree::BTree;

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
    /// * the leaf chain visits exactly the leaves in key order;
    /// * the recorded length matches the actual entry count.
    pub fn verify(&self) -> Result<TreeStats> {
        let mut stats = TreeStats {
            height: 0,
            internal_nodes: 0,
            leaf_nodes: 0,
            entries: 0,
        };
        let mut leaves_in_order = Vec::new();
        let root = self.root();
        let height = self.verify_rec(root, None, None, true, &mut stats, &mut leaves_in_order)?;
        stats.height = height;
        // Check the leaf chain.
        let mut chain = Vec::new();
        let mut id = *leaves_in_order.first().expect("at least one leaf");
        loop {
            chain.push(id);
            let node = self.load_node(id)?;
            let Node::Leaf(leaf) = &*node else {
                return Err(Error::Corrupt("leaf chain hit interior node".into()));
            };
            if leaf.next.is_null() {
                break;
            }
            id = leaf.next;
        }
        if chain != leaves_in_order {
            return Err(Error::Corrupt(format!(
                "leaf chain {chain:?} does not match tree order {leaves_in_order:?}"
            )));
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
            if let Some(Node::Internal(int)) = self.load_interior(ids[next])?.as_deref() {
                ids.extend_from_slice(int.children());
            }
            next += 1;
        }
        Ok(ids)
    }

    fn verify_rec(
        &self,
        id: PageId,
        lower: Option<&[u8]>, // inclusive bound: all keys >= lower
        upper: Option<&[u8]>, // exclusive bound: all keys < upper
        is_root: bool,
        stats: &mut TreeStats,
        leaves: &mut Vec<PageId>,
    ) -> Result<usize> {
        let node = self.load_node(id)?;
        if !self.fits(&node) {
            return Err(Error::Corrupt(format!("node {id} over capacity")));
        }
        match &*node {
            Node::Leaf(leaf) => {
                stats.leaf_nodes += 1;
                stats.entries += leaf.len() as u64;
                leaves.push(id);
                let mut prev: Option<&[u8]> = None;
                for key in (0..leaf.len()).map(|i| leaf.key(i)) {
                    if let Some(p) = prev {
                        if p >= key {
                            return Err(Error::Corrupt(format!(
                                "leaf {id} keys not strictly increasing"
                            )));
                        }
                    }
                    if let Some(lo) = lower {
                        if key < lo {
                            return Err(Error::Corrupt(format!(
                                "leaf {id} key below separator bound"
                            )));
                        }
                    }
                    if let Some(hi) = upper {
                        if key >= hi {
                            return Err(Error::Corrupt(format!(
                                "leaf {id} key at/above separator bound"
                            )));
                        }
                    }
                    prev = Some(key);
                }
                Ok(1)
            }
            Node::Internal(int) => {
                stats.internal_nodes += 1;
                if int.is_empty() && !is_root {
                    return Err(Error::Corrupt(format!("interior {id} shape invalid")));
                }
                for i in 1..int.len() {
                    if int.sep(i - 1) >= int.sep(i) {
                        return Err(Error::Corrupt(format!(
                            "interior {id} separators not increasing"
                        )));
                    }
                }
                let mut child_height = None;
                for (i, child) in int.children().iter().enumerate() {
                    let lo = if i == 0 { lower } else { Some(int.sep(i - 1)) };
                    let hi = if i == int.len() {
                        upper
                    } else {
                        Some(int.sep(i))
                    };
                    let h = self.verify_rec(*child, lo, hi, false, stats, leaves)?;
                    match child_height {
                        None => child_height = Some(h),
                        Some(prev) if prev != h => {
                            return Err(Error::Corrupt(format!(
                                "interior {id} children at different heights"
                            )))
                        }
                        _ => {}
                    }
                }
                Ok(child_height.expect("at least one child") + 1)
            }
        }
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
