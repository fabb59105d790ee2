//! The reference a leaf edited in place is held to: the decoded-node path
//! the editor replaced, on a copy of the page.

use btree::{BTreeConfig, Capacity, LeafNode, Node};

/// Whether a leaf of `count` entries encoding to `size` bytes fits a page
/// of `page` bytes under `config`.
pub(crate) fn fits(config: &BTreeConfig, count: usize, size: usize, page: usize) -> bool {
    match config.capacity {
        Capacity::Bytes => size <= page,
        Capacity::Entries(m) => count <= m && size <= page,
    }
}

/// Whether a non-root leaf of `count` entries encoding to `size` bytes
/// should be rebalanced under `config`.
pub(crate) fn underfull(config: &BTreeConfig, count: usize, size: usize, page: usize) -> bool {
    match config.capacity {
        Capacity::Bytes => size < page / 4,
        Capacity::Entries(m) => count < (m / 2).max(1),
    }
}

/// The decoded-node path on a copy of `page`: the page it writes (`None`
/// when the leaf would not fit and must split), the old value, and the
/// edited leaf.
pub(crate) fn reference(
    page: &[u8],
    config: &BTreeConfig,
    key: &[u8],
    value: Option<&[u8]>,
) -> (Option<Vec<u8>>, Option<Vec<u8>>, LeafNode) {
    let Node::Leaf(mut leaf) = Node::decode(page).unwrap() else {
        panic!("not a leaf");
    };
    let old = match (leaf.search(key), value) {
        (Ok(i), Some(v)) => {
            let old = leaf.value(i).to_vec();
            leaf.set_value(i, v);
            Some(old)
        }
        (Err(i), Some(v)) => {
            leaf.insert_at(i, key, v);
            None
        }
        (Ok(i), None) => {
            let old = leaf.value(i).to_vec();
            leaf.remove_at(i);
            Some(old)
        }
        (Err(_), None) => return (Some(page.to_vec()), None, leaf),
    };
    let size = leaf.encoded_size(config.front_compression);
    if !fits(config, leaf.len(), size, page.len()) {
        return (None, old, leaf);
    }
    let mut out = page.to_vec();
    Node::Leaf(leaf.clone())
        .encode(&mut out, config.front_compression)
        .unwrap();
    (Some(out), old, leaf)
}
