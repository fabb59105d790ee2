use pagestore::{Error, Result};

use crate::node::{EntrySize, NodeKind};

/// How node capacity is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capacity {
    /// A node is full when its encoded form exceeds the page size. This is
    /// the realistic model used by the paper's second experiment (1024-byte
    /// pages): front compression directly increases fanout.
    Bytes,
    /// A node holds at most this many entries (separators, for interior
    /// nodes), regardless of encoded size. The paper's first experiment uses
    /// a "small node size m = 10".
    Entries(usize),
}

/// Configuration of a [`crate::BTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeConfig {
    /// Node capacity model.
    pub capacity: Capacity,
    /// Front-compress keys within nodes (§3.2), and store the shortest
    /// distinguishing separators in interior nodes. Turning this off is
    /// the storage-cost ablation.
    pub front_compression: bool,
    /// Split an over-full *last* leaf behind its last entry when that entry
    /// is the one just inserted, instead of in the middle. Keys that arrive
    /// in ascending order (OIDs) then fill every leaf; keys that arrive in
    /// any other order never take this path.
    pub append_split: bool,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig {
            capacity: Capacity::Bytes,
            front_compression: true,
            append_split: false,
        }
    }
}

impl BTreeConfig {
    /// The paper's experiment-1 configuration: at most `m` records per node.
    pub fn with_max_entries(m: usize) -> Self {
        assert!(m >= 3, "entry capacity must be at least 3");
        BTreeConfig {
            capacity: Capacity::Entries(m),
            ..Default::default()
        }
    }

    /// Disable front compression (ablation A2 in DESIGN.md).
    pub fn without_compression(mut self) -> Self {
        self.front_compression = false;
        self
    }

    /// Fill leaves on ascending inserts (see [`BTreeConfig::append_split`]).
    pub fn with_append_split(mut self) -> Self {
        self.append_split = true;
        self
    }

    /// Minimum entry count a non-root node may hold under
    /// [`Capacity::Entries`].
    pub(crate) fn min_entries(&self) -> usize {
        match self.capacity {
            Capacity::Entries(m) => (m / 2).max(1),
            Capacity::Bytes => 1,
        }
    }

    /// Whether a node of `count` entries encoding to `size` bytes fits a
    /// page of `page_size` bytes.
    pub(crate) fn fits(&self, count: usize, size: usize, page_size: usize) -> bool {
        match self.capacity {
            Capacity::Bytes => size <= page_size,
            Capacity::Entries(m) => count <= m && size <= page_size,
        }
    }

    /// Whether a non-root node of `count` entries encoding to `size` bytes
    /// in a page of `page_size` bytes should be rebalanced.
    pub(crate) fn underfull(&self, count: usize, size: usize, page_size: usize) -> bool {
        match self.capacity {
            Capacity::Bytes => size < page_size / 4,
            Capacity::Entries(_) => count < self.min_entries(),
        }
    }

    /// Where to split an over-full node of entries sized `sizes` behind a
    /// `header`-byte header: the entry at the returned index opens the right
    /// half, or moves up to the parent when `promotes`. Both halves fit
    /// `page_size` (and, under [`Capacity::Entries`], hold at most the
    /// capacity). Under [`Capacity::Bytes`] the larger half is as small as
    /// it can be (leftmost on a tie); under [`Capacity::Entries`] the halves
    /// differ by at most one entry when their bytes allow, and are chosen
    /// as under [`Capacity::Bytes`] when they do not.
    pub(crate) fn split_point(
        &self,
        sizes: &[EntrySize],
        header: usize,
        promotes: bool,
        page_size: usize,
    ) -> Result<usize> {
        let n = sizes.len();
        let up = usize::from(promotes);
        // before[i]: the bytes of entries 0..i, each behind its predecessor.
        let mut before = vec![0; n + 1];
        for (i, size) in sizes.iter().enumerate() {
            before[i + 1] = before[i] + size.behind;
        }
        // The larger half's bytes when entries 0..k stay left, if both
        // halves are non-empty and fit.
        let larger_half = |k: usize| {
            if k == 0 || k + up >= n {
                return None;
            }
            // Each half's first entry is encoded alone.
            let left = header + sizes[0].alone + before[k] - before[1];
            let right = header + sizes[k + up].alone + before[n] - before[k + up + 1];
            let counts_fit = match self.capacity {
                Capacity::Bytes => true,
                Capacity::Entries(m) => k <= m && n - k - up <= m,
            };
            let worst = left.max(right);
            (counts_fit && worst <= page_size).then_some(worst)
        };
        if let Capacity::Entries(_) = self.capacity {
            let k = (n + 1 - up) / 2;
            if larger_half(k).is_some() {
                return Ok(k);
            }
        }
        let mut best: Option<(usize, usize)> = None; // (larger half, index)
        for k in 1..n.saturating_sub(up) {
            if let Some(worst) = larger_half(k) {
                if best.is_none_or(|(b, _)| worst < b) {
                    best = Some((worst, k));
                }
            }
        }
        best.map(|(_, k)| k)
            .ok_or_else(|| Error::Corrupt("no valid split point: entry too large for page".into()))
    }
}

/// Lays a level's entries out left to right, one at a time, in nodes filled
/// to capacity: how bulk load packs every level of a tree.
pub(crate) struct Packer {
    config: BTreeConfig,
    page_size: usize,
    header: usize,
    promotes: bool,
    /// Encoded size and entry count of the node being filled.
    size: usize,
    count: usize,
}

impl Packer {
    /// A packer for nodes of kind `N`, of which it needs the header size and
    /// whether boundary entries move up (see [`BTreeConfig::split_point`]).
    pub(crate) fn new<N: NodeKind>(config: BTreeConfig, page_size: usize) -> Self {
        Packer {
            config,
            page_size,
            header: N::HEADER,
            promotes: N::PROMOTES,
            size: N::HEADER,
            count: 0,
        }
    }

    /// Place the next entry. `true` when it is a boundary: the node being
    /// filled is full (under [`Capacity::Entries`], when either its entry
    /// count or its page is), and the entry opens the next one or, when the
    /// packer promotes, moves up to the parent ahead of it.
    pub(crate) fn place(&mut self, e: EntrySize) -> bool {
        let bytes_full = self.count > 0 && self.size + e.behind > self.page_size;
        let full = match self.config.capacity {
            Capacity::Bytes => bytes_full,
            Capacity::Entries(m) => bytes_full || self.count >= m,
        };
        if full {
            (self.size, self.count) = (self.header, 0);
        }
        if !(full && self.promotes) {
            self.size += if self.count == 0 { e.alone } else { e.behind };
            self.count += 1;
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = BTreeConfig::default();
        assert_eq!(c.capacity, Capacity::Bytes);
        assert!(c.front_compression);
    }

    #[test]
    fn entry_capacity_min() {
        assert_eq!(BTreeConfig::with_max_entries(10).min_entries(), 5);
        assert_eq!(BTreeConfig::with_max_entries(3).min_entries(), 1);
    }

    #[test]
    #[should_panic]
    fn tiny_entry_capacity_rejected() {
        let _ = BTreeConfig::with_max_entries(2);
    }
}
