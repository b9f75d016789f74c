//! A hierarchical-bitmap priority set over a dense integer universe.
//!
//! The order-to-schedule sweep ([`crate::schedule::greedy_pack_into`],
//! which runs every heuristic's order, the `1_To_k` procedure included)
//! repeatedly asks one question: *of the nodes whose parent has already
//! aired, which comes earliest in the input order?* Keys are therefore
//! unique positions in `0..n` — a dense universe — so a
//! binary heap's `O(log n)` pointer-chasing per operation is overkill. A
//! bitmap with one summary bit per 64-bit word (repeated until one word
//! remains) answers `pop_min` with a short cascade of find-first-set
//! scans, and membership updates touch at most one word per level. At a
//! million keys that is 3 levels and ~200 KB — cache-resident where a heap
//! of the same keys thrashes.
//!
//! All buffers are retained across [`MinSeqSet::reset`] calls, a
//! smaller universe's included, so a steady-state user performs no heap
//! allocation, even when it alternates between universes of different
//! sizes.

/// A set of `usize` keys drawn from a bounded universe `0..universe`,
/// supporting `insert` and `pop_min` in `O(levels)` word operations.
///
/// ```
/// use bcast_core::seqset::MinSeqSet;
///
/// let mut set = MinSeqSet::new();
/// set.reset(1_000);
/// set.insert(700);
/// set.insert(3);
/// set.insert(64);
/// assert_eq!(set.pop_min(), Some(3));
/// assert_eq!(set.pop_min(), Some(64));
/// assert_eq!(set.pop_min(), Some(700));
/// assert_eq!(set.pop_min(), None);
/// ```
#[derive(Debug, Default)]
pub struct MinSeqSet {
    /// `levels[0]` is the bitmap over keys; `levels[l + 1]` holds one
    /// summary bit per word of `levels[l]` (set iff that word is nonzero).
    /// Only the first `live` levels are in use, and the last of them is
    /// always a single word; the rest keep their capacity for a larger
    /// universe.
    levels: Vec<Vec<u64>>,
    /// Levels the current universe uses.
    live: usize,
    /// Number of keys currently in the set.
    len: usize,
    /// Every `levels[0]` word strictly below this index is zero, so a
    /// `pop_min` whose hint word is nonzero needs a single load instead of
    /// a top-down descent. Inserts below the hint lower it.
    hint: usize,
}

impl MinSeqSet {
    /// An empty set over the empty universe; call [`reset`](Self::reset)
    /// before use.
    pub fn new() -> Self {
        MinSeqSet::default()
    }

    /// Clears the set and re-sizes it for keys in `0..universe`. Buffer
    /// capacity is retained, levels a smaller universe does not use
    /// included, so shrinking, re-using or growing back costs no
    /// allocation.
    pub fn reset(&mut self, universe: usize) {
        self.len = 0;
        self.hint = 0;
        let mut words = universe.div_ceil(64).max(1);
        let mut level = 0;
        loop {
            if self.levels.len() <= level {
                self.levels.push(Vec::new());
            }
            let buf = &mut self.levels[level];
            buf.clear();
            buf.resize(words, 0);
            if words == 1 {
                break;
            }
            words = words.div_ceil(64);
            level += 1;
        }
        self.live = level + 1;
    }

    /// Number of keys in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key`. Inserting a present key is a no-op that still counts
    /// toward [`len`](Self::len) — callers of the packing loops never do
    /// it (each node wakes exactly once), so the cost of an exact check is
    /// not worth carrying on the hot path.
    ///
    /// # Panics
    /// Panics (debug) if `key` is outside the universe given to `reset`.
    #[inline]
    pub fn insert(&mut self, key: usize) {
        debug_assert!(key < self.levels[0].len() * 64, "key out of universe");
        self.len += 1;
        self.hint = self.hint.min(key / 64);
        let mut idx = key;
        for level in &mut self.levels[..self.live] {
            let (word, bit) = (idx / 64, idx % 64);
            let was = level[word];
            level[word] = was | 1 << bit;
            if was != 0 {
                // The summary bits above are already set.
                break;
            }
            idx = word;
        }
    }

    /// Removes and returns the smallest key, or `None` when empty.
    #[inline]
    pub fn pop_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // Fast path: the hint word holds the minimum whenever it is
        // nonzero (everything below it is empty by invariant).
        let mut idx = if self.levels[0][self.hint] != 0 {
            self.hint * 64 + self.levels[0][self.hint].trailing_zeros() as usize
        } else {
            // Descend: the single top word locates the nonzero word below
            // it, and so on down to the key bitmap.
            let mut idx = 0usize;
            for level in self.levels[..self.live].iter().rev() {
                idx = idx * 64 + level[idx].trailing_zeros() as usize;
            }
            idx
        };
        let key = idx;
        self.hint = key / 64;
        // Clear the bit, cascading summary clears while words empty out.
        for level in &mut self.levels[..self.live] {
            let (word, bit) = (idx / 64, idx % 64);
            level[word] &= !(1 << bit);
            if level[word] != 0 {
                break;
            }
            idx = word;
        }
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pops_none() {
        let mut s = MinSeqSet::new();
        s.reset(10);
        assert!(s.is_empty());
        assert_eq!(s.pop_min(), None);
    }

    #[test]
    fn single_key_round_trip() {
        let mut s = MinSeqSet::new();
        s.reset(1);
        s.insert(0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_min(), Some(0));
        assert_eq!(s.pop_min(), None);
    }

    #[test]
    fn orders_across_word_and_level_boundaries() {
        // A universe needing three levels (> 64² keys).
        let mut s = MinSeqSet::new();
        s.reset(300_000);
        let keys = [299_999usize, 0, 63, 64, 4095, 4096, 262_143, 262_144];
        for &k in &keys {
            s.insert(k);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let mut popped = Vec::new();
        while let Some(k) = s.pop_min() {
            popped.push(k);
        }
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_insert_and_pop() {
        let mut s = MinSeqSet::new();
        s.reset(1_000);
        s.insert(500);
        s.insert(100);
        assert_eq!(s.pop_min(), Some(100));
        s.insert(50);
        s.insert(900);
        assert_eq!(s.pop_min(), Some(50));
        assert_eq!(s.pop_min(), Some(500));
        assert_eq!(s.pop_min(), Some(900));
        assert!(s.is_empty());
    }

    #[test]
    fn reset_reuses_and_shrinks() {
        let mut s = MinSeqSet::new();
        s.reset(200_000);
        s.insert(199_999);
        assert_eq!(s.pop_min(), Some(199_999));
        // Shrink to a universe small enough to drop a level; stale bits
        // from the old universe must not leak.
        s.reset(100);
        assert!(s.is_empty());
        s.insert(99);
        s.insert(1);
        assert_eq!(s.pop_min(), Some(1));
        assert_eq!(s.pop_min(), Some(99));
        assert_eq!(s.pop_min(), None);
        // Grow back: the unused levels kept their buffers, and a stale
        // summary bit in one must not leak either.
        s.insert(5);
        s.reset(200_000);
        s.insert(150_000);
        s.insert(70);
        assert_eq!(s.pop_min(), Some(70));
        assert_eq!(s.pop_min(), Some(150_000));
        assert_eq!(s.pop_min(), None);
    }

    #[test]
    fn matches_a_model_on_pseudorandom_workloads() {
        use std::collections::BTreeSet;
        let mut s = MinSeqSet::new();
        let mut model = BTreeSet::new();
        let universe = 70_000usize; // two levels plus a partial third
        s.reset(universe);
        // Deterministic LCG; mix inserts and pops.
        let mut x = 0x2545f4914f6cdd1du64;
        for step in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as usize % universe;
            if step % 3 == 2 {
                assert_eq!(s.pop_min(), model.iter().next().copied());
                if !model.is_empty() {
                    let first = *model.iter().next().unwrap();
                    model.remove(&first);
                }
            } else if !model.contains(&key) {
                s.insert(key);
                model.insert(key);
            }
        }
        while let Some(k) = s.pop_min() {
            assert_eq!(model.iter().next().copied(), Some(k));
            model.remove(&k);
        }
        assert!(model.is_empty());
    }
}
