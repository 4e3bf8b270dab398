//! The TCE hash index: block key -> `(offset, size)` within a 1-D array.
//!
//! TCE packs a block-sparse many-index tensor into a 1-D Global Array and
//! finds blocks through a hash table shipped alongside the array; the
//! generated code's `GET_HASH_BLOCK(d_a, buf, size, hash_a, key)` resolves
//! `key` in that table and fetches `size` elements at the resolved offset.
//! Here keys are the caller-computed canonical block indices.

use std::collections::HashMap;
use std::ops::Range;

/// Block key -> location index for one packed tensor.
#[derive(Debug, Default, Clone)]
pub struct HashIndex {
    map: HashMap<i64, (usize, usize)>,
    /// `(key, offset, size)` in insertion order, which — blocks being
    /// packed back to back — is ascending offset order.
    blocks: Vec<(i64, usize, usize)>,
    total: usize,
}

impl HashIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a block of `size` elements under `key`, returning its offset.
    /// Panics if the key is already present.
    pub fn insert(&mut self, key: i64, size: usize) -> usize {
        let offset = self.total;
        let prev = self.map.insert(key, (offset, size));
        assert!(prev.is_none(), "duplicate block key {key}");
        self.blocks.push((key, offset, size));
        self.total += size;
        offset
    }

    /// Look up `(offset, size)` for `key`.
    pub fn lookup(&self, key: i64) -> Option<(usize, usize)> {
        self.map.get(&key).copied()
    }

    /// Does the tensor store a block for `key`?
    pub fn contains(&self, key: i64) -> bool {
        self.map.contains_key(&key)
    }

    /// Total packed length (the size of the backing 1-D array).
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Number of stored blocks.
    pub fn num_blocks(&self) -> usize {
        self.map.len()
    }

    /// Iterate `(key, offset, size)` in ascending offset order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, usize, usize)> + '_ {
        self.blocks.iter().copied()
    }

    /// The blocks overlapping the offset range `range`, in ascending
    /// offset order (whole blocks: the first and last may straddle the
    /// range's ends, as a block straddles a shard boundary).
    pub fn blocks_in(&self, range: Range<usize>) -> impl Iterator<Item = (i64, usize, usize)> + '_ {
        let first = self
            .blocks
            .partition_point(|&(_, o, s)| o + s <= range.start);
        self.blocks[first..]
            .iter()
            .copied()
            .take_while(move |&(_, o, _)| o < range.end)
    }
}

/// `GET_HASH_BLOCK`: resolve and fetch one block.
pub fn get_hash_block(ga: &crate::Ga, h: crate::GaHandle, idx: &HashIndex, key: i64) -> Vec<f64> {
    let (offset, size) = idx
        .lookup(key)
        .unwrap_or_else(|| panic!("no block for key {key}"));
    ga.get(h, offset, size)
}

/// `ADD_HASH_BLOCK`: resolve and atomically accumulate one block.
pub fn add_hash_block(
    ga: &crate::Ga,
    h: crate::GaHandle,
    idx: &HashIndex,
    key: i64,
    data: &[f64],
    alpha: f64,
) {
    let (offset, size) = idx
        .lookup(key)
        .unwrap_or_else(|| panic!("no block for key {key}"));
    assert_eq!(data.len(), size, "block size mismatch for key {key}");
    ga.acc(h, offset, data, alpha);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ga;

    #[test]
    fn insert_packs_contiguously() {
        let mut idx = HashIndex::new();
        assert_eq!(idx.insert(42, 10), 0);
        assert_eq!(idx.insert(7, 5), 10);
        assert_eq!(idx.total_len(), 15);
        assert_eq!(idx.lookup(42), Some((0, 10)));
        assert_eq!(idx.lookup(7), Some((10, 5)));
        assert_eq!(idx.lookup(1), None);
        assert_eq!(idx.num_blocks(), 2);
    }

    #[test]
    fn blocks_in_clips_by_offset_range() {
        let mut idx = HashIndex::new();
        for (key, size) in [(9, 4), (5, 6), (1, 2)] {
            idx.insert(key, size);
        }
        let all = [(9, 0, 4), (5, 4, 6), (1, 10, 2)];
        assert_eq!(idx.iter().collect::<Vec<_>>(), all);
        let keys = |r: Range<usize>| idx.blocks_in(r).map(|b| b.0).collect::<Vec<_>>();
        assert_eq!(keys(0..12), [9, 5, 1]);
        assert_eq!(keys(3..5), [9, 5], "both straddle an end of the range");
        assert_eq!(keys(4..10), [5]);
        assert_eq!(keys(5..6), [5]);
        assert_eq!(keys(10..12), [1]);
    }

    #[test]
    #[should_panic]
    fn duplicate_key_panics() {
        let mut idx = HashIndex::new();
        idx.insert(1, 4);
        idx.insert(1, 4);
    }

    #[test]
    fn hash_block_get_add_roundtrip() {
        let mut idx = HashIndex::new();
        idx.insert(100, 4);
        idx.insert(200, 4);
        let ga = Ga::init(2);
        let h = ga.create(idx.total_len());
        add_hash_block(&ga, h, &idx, 200, &[1.0, 2.0, 3.0, 4.0], 2.0);
        assert_eq!(get_hash_block(&ga, h, &idx, 200), vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(get_hash_block(&ga, h, &idx, 100), vec![0.0; 4]);
    }

    #[test]
    #[should_panic]
    fn add_wrong_size_panics() {
        let mut idx = HashIndex::new();
        idx.insert(1, 4);
        let ga = Ga::init(1);
        let h = ga.create(4);
        add_hash_block(&ga, h, &idx, 1, &[0.0; 3], 1.0);
    }
}
