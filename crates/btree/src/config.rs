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
    /// Front-compress keys within nodes (§3.2). Turning this off is the
    /// storage-cost ablation.
    pub front_compression: bool,
    /// Store shortest distinguishing separators in interior nodes.
    pub suffix_truncation: bool,
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
            suffix_truncation: true,
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
        self.suffix_truncation = false;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = BTreeConfig::default();
        assert_eq!(c.capacity, Capacity::Bytes);
        assert!(c.front_compression);
        assert!(c.suffix_truncation);
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
