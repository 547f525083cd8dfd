//! Tombstones: the deleted-id set live-lake drops are filtered through.
//!
//! A [`TombSet`] is a plain bitset over column ids. Deletes in the live
//! lake are *logical* — the vectors stay in their immutable segments until
//! compaction rewrites them — so every search path (flat, SQ8 two-stage,
//! HNSW) takes an optional `TombSet` and suppresses dead ids at
//! candidate-collection time. Filtering there rather than post-hoc keeps
//! the contract exact: a top-k over live rows, not a top-k over everything
//! with holes punched in it.

/// A set of deleted (tombstoned) ids, stored as a bitset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TombSet {
    words: Vec<u64>,
    count: usize,
}

impl TombSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild from raw bitset words (the `DJT1` codec).
    pub fn from_words(words: Vec<u64>) -> Self {
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        Self { words, count }
    }

    /// The raw bitset words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mark `id` deleted; returns false if it already was.
    pub fn insert(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.count += 1;
        true
    }

    /// True when `id` is deleted.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Number of deleted ids.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Number of deleted ids in `0..n` — the tombstones that can crowd the
    /// top-k of an index holding `n` rows (a popcount over the covering
    /// words).
    pub fn count_below(&self, n: usize) -> usize {
        let (full, rest) = (n / 64, n % 64);
        let whole: usize = self.words.iter().take(full).map(|w| w.count_ones() as usize).sum();
        let partial = self
            .words
            .get(full)
            .map_or(0, |w| (w & ((1u64 << rest) - 1)).count_ones() as usize);
        whole + partial
    }

    /// True when nothing is deleted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Deleted ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| (w * 64 + b) as u32)
        })
    }
}

impl FromIterator<u32> for TombSet {
    fn from_iter<T: IntoIterator<Item = u32>>(ids: T) -> Self {
        let mut set = Self::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut t = TombSet::new();
        assert!(t.is_empty());
        assert!(t.insert(3));
        assert!(t.insert(64));
        assert!(t.insert(1000));
        assert!(!t.insert(3), "double insert reports false");
        assert_eq!(t.len(), 3);
        assert!(t.contains(3) && t.contains(64) && t.contains(1000));
        assert!(!t.contains(4) && !t.contains(63) && !t.contains(100_000));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![3, 64, 1000]);
    }

    #[test]
    fn words_roundtrip() {
        let t: TombSet = [0u32, 63, 64, 127, 500].into_iter().collect();
        let back = TombSet::from_words(t.words().to_vec());
        assert_eq!(back, t);
        assert_eq!(back.len(), 5);
    }
}
