//! The paper's §4.2 analytic cost model, made checkable.
//!
//! For retrieval the paper argues:
//!
//! * single-class / single-value access costs `O(log_k N)` — one descent;
//! * a range query over `r` distinct values and `m` distinct (dispersed)
//!   class groups costs at worst `O(r · m · log_k N)` — one descent per
//!   searched group — while clustering and the parallel algorithm make the
//!   average much lower.
//!
//! [`CostModel`] turns those formulas into concrete page bounds for a
//! translated query, given the observed tree shape. The bounds are *sound*:
//! `tests` (and `tests/cost_model.rs`) assert every measured query cost
//! falls inside them.

use crate::error::Result;
use crate::index::Planner;
use crate::query::Query;
use crate::scan::ScanStats;

/// Tree-shape parameters of the cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// B-tree height (`log_k N`).
    pub height: u64,
    /// Average entries per leaf (`k` at the leaf level).
    pub entries_per_leaf: f64,
    /// Total leaves.
    pub leaves: u64,
}

/// Page-read bounds for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBounds {
    /// No query reads fewer distinct pages (a single descent, capped by the
    /// tree size).
    pub min: u64,
    /// No query reads more: one descent per searched (value × class) group
    /// plus the leaves the matches occupy, capped by the whole tree.
    pub max: u64,
}

impl CostBounds {
    /// Whether a measured run landed inside the bounds.
    pub fn contains(&self, stats: &ScanStats) -> bool {
        (self.min..=self.max).contains(&stats.pages_read)
    }
}

impl CostModel {
    /// Extract the model parameters from verified tree statistics.
    pub fn from_stats(stats: &btree::TreeStats) -> CostModel {
        CostModel {
            height: stats.height as u64,
            entries_per_leaf: stats.entries as f64 / stats.leaf_nodes.max(1) as f64,
            leaves: stats.leaf_nodes as u64,
        }
    }

    /// Total pages in the tree (the trivial cap on any query).
    pub fn total_pages(&self) -> u64 {
        // Interior nodes are at most leaves/2 + … ≤ leaves for any fanout
        // ≥ 2; height covers the root chain of a skinny tree.
        self.leaves * 2 + self.height
    }

    /// The §4.2 bounds for a query that searches `r` distinct values over
    /// `m` class groups and produces `matches` entries.
    ///
    /// `r` and `m` are the paper's parameters: for an exact-match value
    /// predicate `r = 1`; for an enumerated (`In`) predicate, its length;
    /// for a contiguous range, the number of distinct values that actually
    /// occur in it. `m` is the number of disjoint class-code ranges the
    /// query constrains (1 when unconstrained — the whole index region is
    /// one contiguous group).
    pub fn bounds(&self, r: u64, m: u64, matches: u64) -> CostBounds {
        let groups = r.max(1) * m.max(1);
        // Each searched group costs at most one root-to-leaf descent; the
        // matched entries occupy at most ceil(matches / epl) + groups
        // leaves (each group can straddle one extra leaf boundary).
        let match_leaves = (matches as f64 / self.entries_per_leaf).ceil() as u64 + groups;
        let max = (groups * self.height + match_leaves).min(self.total_pages());
        CostBounds { min: 1, max }
    }
}

/// The number of class groups (`m`) a query constrains, derived from the
/// translated matcher: the product over positions of the number of disjoint
/// class-code ranges.
pub fn class_groups(planner: Planner<'_>, q: &Query) -> Result<u64> {
    let matcher = planner.matcher(q)?;
    let mut m = 1u64;
    for pos in &matcher.positions {
        m = m.saturating_mul(pos.class_ranges.len().max(1) as u64);
    }
    Ok(m)
}

/// The number of value ranges (`r` lower bound) in the translated query.
/// For contiguous ranges the true `r` is the distinct values occurring in
/// the range, which only the caller can know; this returns the number of
/// disjoint byte ranges (1 for `Eq`/`Range`, the list length for `In`).
pub fn value_groups(planner: Planner<'_>, q: &Query) -> Result<u64> {
    let matcher = planner.matcher(q)?;
    Ok(matcher.value_ranges.len().max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_shapes() {
        let model = CostModel {
            height: 3,
            entries_per_leaf: 50.0,
            leaves: 100,
        };
        // Exact match, one class, one hit: a descent plus a couple leaves.
        let b = model.bounds(1, 1, 1);
        assert_eq!(b.min, 1);
        assert!(b.max >= 3 && b.max <= 8, "{b:?}");
        // 3 values × 2 class groups: 6 descents max.
        let b = model.bounds(3, 2, 10);
        assert!(b.max >= 6 * 3);
        // Everything is capped by the tree size.
        let b = model.bounds(1000, 1000, 1_000_000);
        assert_eq!(b.max, model.total_pages());
    }
}
