//! A small, growable bitset keyed by [`NodeId`].
//!
//! The search algorithms of the paper manipulate many node sets — `PATH_T(X)`
//! (nodes placed so far), `Ancestor`, `Cancestor`, `Nancestor` — whose
//! elements are dense arena indices. A word-packed bitset gives O(1)
//! membership and O(n/64) set algebra without hashing, which dominates the
//! inner loop of the topological-tree expansion.
//!
//! The exact search keeps each state's sets as fixed-width runs of words in
//! one shared pool rather than as a [`BitSet`] per state, so the set
//! operations exist over bare word slices in [`bits`]; [`BitSet`] is the
//! owning, growable wrapper over the same functions.

use crate::NodeId;
use std::fmt;

const BITS: usize = u64::BITS as usize;

/// Set operations over a bare word slice: bit `b` of word `w` is id
/// `64·w + b`. A slice never grows, so [`bits::insert`] needs ids below
/// `64 · words.len()`; reads treat ids beyond the slice as absent.
pub mod bits {
    use super::{BITS, FX_SEED};
    use crate::{mix64, NodeId};

    /// Words needed for ids `0..capacity`.
    #[inline]
    pub fn words_for(capacity: usize) -> usize {
        capacity.div_ceil(BITS)
    }

    /// Membership test.
    #[inline]
    pub fn contains(words: &[u64], id: NodeId) -> bool {
        let (w, b) = (id.index() / BITS, id.index() % BITS);
        words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Inserts `id`; `true` if it was absent.
    ///
    /// # Panics
    /// If `id` lies beyond the slice.
    #[inline]
    pub fn insert(words: &mut [u64], id: NodeId) -> bool {
        let (w, b) = (id.index() / BITS, id.index() % BITS);
        let mask = 1u64 << b;
        let fresh = words[w] & mask == 0;
        words[w] |= mask;
        fresh
    }

    /// Removes `id`; `true` if it was present.
    #[inline]
    pub fn remove(words: &mut [u64], id: NodeId) -> bool {
        let (w, b) = (id.index() / BITS, id.index() % BITS);
        let Some(word) = words.get_mut(w) else {
            return false;
        };
        let mask = 1u64 << b;
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Number of set ids.
    #[inline]
    pub fn count(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set ids strictly below `id` — `id`'s rank within the set.
    ///
    /// Word-wise popcount, used by the incremental bound maintenance to
    /// translate a global sorted rank into a rank among unplaced nodes in
    /// O(id/64) rather than O(id).
    #[inline]
    pub fn rank(words: &[u64], id: NodeId) -> usize {
        let (w, b) = (id.index() / BITS, id.index() % BITS);
        let full = count(&words[..w.min(words.len())]);
        let partial = words
            .get(w)
            .map_or(0, |x| (x & ((1u64 << b) - 1)).count_ones() as usize);
        full + partial
    }

    /// Iterates the set ids in ascending order.
    pub fn iter(words: &[u64]) -> impl Iterator<Item = NodeId> + '_ {
        words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(NodeId::from_index(wi * BITS + b))
            })
        })
    }

    /// Iterates the ids of `lo..hi` that are *not* in the set, ascending.
    ///
    /// Word-at-a-time over the complement, so the cost is proportional to
    /// the number of absent ids plus the words spanned — the incremental
    /// bound uses this to walk unplaced ranks without touching placed ones.
    pub fn iter_unset(words: &[u64], lo: usize, hi: usize) -> impl Iterator<Item = NodeId> + '_ {
        let lo_word = lo / BITS;
        let hi_word = hi.div_ceil(BITS);
        (lo_word..hi_word).flat_map(move |wi| {
            let word = words.get(wi).copied().unwrap_or(0);
            let mut bits = !word;
            if wi == lo_word {
                bits &= !0u64 << (lo % BITS);
            }
            if (wi + 1) * BITS > hi {
                bits &= (1u64 << (hi % BITS)) - 1;
            }
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(NodeId::from_index(wi * BITS + b))
            })
        })
    }

    /// A well-mixed 64-bit hash of the set's contents.
    ///
    /// Word-wise FxHash-style fold (`h = rotl(h, 5) ⊕ word; h ·= seed`) over
    /// the words up to the last non-zero one, finished with [`mix64`].
    /// Ignoring trailing zero words makes the hash a function of the ids
    /// alone, however many words hold them. One multiply per 64 ids — cheap
    /// enough for the per-generated-state hot path of the search engines.
    #[inline]
    pub fn mix_hash(words: &[u64]) -> u64 {
        let end = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        let mut h = 0u64;
        for &w in &words[..end] {
            h = (h.rotate_left(5) ^ w).wrapping_mul(FX_SEED);
        }
        mix64(h)
    }
}

/// A fixed-capacity bitset over dense node ids.
///
/// Equality and hashing ignore trailing zero words, so two sets holding the
/// same ids compare equal regardless of how much capacity each was created
/// with — required because the search algorithms use `BitSet` as a hash-map
/// key.
#[derive(Default, Clone)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
            && self.words[common..].iter().all(|&w| w == 0)
            && other.words[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for BitSet {}

impl std::hash::Hash for BitSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // One pre-mixed word keeps `HashMap` users consistent with the
        // open-addressing dominance table, which consumes `mix_hash`
        // directly.
        state.write_u64(self.mix_hash());
    }
}

/// The multiplier of FxHash (Firefox's hasher): a 64-bit odd constant with
/// no obvious structure, chosen there empirically for word-sized keys.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Finalizing mix for a single word key (SplitMix64's avalanche function).
///
/// Used to spread an FxHash-style folded value — whose low bits are weak —
/// across all 64 bits, so shard selection and open-addressing tables can
/// slice *any* bit range of the result.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl BitSet {
    /// A well-mixed 64-bit hash of the set's contents: [`bits::mix_hash`]
    /// over the backing words, so it agrees with `Eq` (and with
    /// [`Hash`](std::hash::Hash), which delegates here) across
    /// differently-sized-but-equal sets.
    #[inline]
    pub fn mix_hash(&self) -> u64 {
        bits::mix_hash(&self.words)
    }

    /// Creates an empty set able to hold ids `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        BitSet {
            words: vec![0; bits::words_for(capacity)],
            len: 0,
        }
    }

    /// Number of ids currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set holds no ids.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `id`, growing the backing storage if needed.
    /// Returns `true` if the id was newly inserted.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let w = id.index() / BITS;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = bits::insert(&mut self.words, id);
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`. Returns `true` if the id was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let present = bits::remove(&mut self.words, id);
        self.len -= usize::from(present);
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        bits::contains(&self.words, id)
    }

    /// Removes every id, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// In-place union with `other`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        self.recount();
    }

    /// In-place difference: removes every id in `other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
        self.recount();
    }

    /// Number of ids in `self ∖ other` without allocating.
    pub fn difference_len(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let o = other.words.get(i).copied().unwrap_or(0);
                (w & !o).count_ones() as usize
            })
            .sum()
    }

    /// True if every id of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words.iter().enumerate().all(|(i, &w)| {
            let o = other.words.get(i).copied().unwrap_or(0);
            w & !o == 0
        })
    }

    /// True if the sets share no id.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & b == 0)
    }

    /// Iterates ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        bits::iter(&self.words)
    }

    fn recount(&mut self) {
        self.len = bits::count(&self.words);
    }
}

impl FromIterator<NodeId> for BitSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut set = BitSet::default();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> BitSet {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::with_capacity(4);
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)));
        assert!(s.contains(NodeId(3)));
        assert!(!s.contains(NodeId(2)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(NodeId(3)));
        assert!(!s.remove(NodeId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = BitSet::with_capacity(1);
        s.insert(NodeId(500));
        assert!(s.contains(NodeId(500)));
        assert!(!s.contains(NodeId(499)));
        assert!(!s.remove(NodeId(10_000)));
    }

    #[test]
    fn set_algebra() {
        let mut a = ids(&[1, 2, 3, 64, 65]);
        let b = ids(&[2, 64, 200]);
        assert_eq!(a.difference_len(&b), 3);
        assert!(!a.is_subset(&b));
        assert!(ids(&[2, 64]).is_subset(&b));
        assert!(ids(&[5]).is_disjoint(&b));
        a.difference_with(&b);
        assert_eq!(a, ids(&[1, 3, 65]));
        a.union_with(&b);
        assert_eq!(a, ids(&[1, 2, 3, 64, 65, 200]));
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn iteration_is_ascending() {
        let s = ids(&[70, 1, 64, 0]);
        let got: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![0, 1, 64, 70]);
    }

    #[test]
    fn equality_ignores_capacity() {
        use std::hash::{BuildHasher, RandomState};
        let mut a = BitSet::with_capacity(1);
        let mut b = BitSet::with_capacity(1000);
        a.insert(NodeId(3));
        b.insert(NodeId(3));
        assert_eq!(a, b);
        let h = RandomState::new();
        assert_eq!(h.hash_one(&a), h.hash_one(&b));
        b.insert(NodeId(900));
        assert_ne!(a, b);
    }

    #[test]
    fn mix_hash_ignores_capacity_and_matches_std_hash() {
        use std::hash::{BuildHasher, RandomState};
        // Equal sets built with very different capacities (and thus
        // different trailing-zero word counts) must agree on both the raw
        // mix and the `Hash` impl that feeds `HashMap`.
        let cases: &[&[u32]] = &[&[], &[0], &[63], &[64], &[3, 64, 500], &[700]];
        let h = RandomState::new();
        for ids_in in cases {
            let mut a = BitSet::with_capacity(1);
            let mut b = BitSet::with_capacity(4096);
            for &i in *ids_in {
                a.insert(NodeId(i));
                b.insert(NodeId(i));
            }
            assert_eq!(a, b);
            assert_eq!(a.mix_hash(), b.mix_hash(), "{ids_in:?}");
            assert_eq!(h.hash_one(&a), h.hash_one(&b), "{ids_in:?}");
            // Removing down to empty must hash like a fresh empty set.
            for &i in *ids_in {
                b.remove(NodeId(i));
            }
            assert_eq!(b.mix_hash(), BitSet::default().mix_hash());
        }
    }

    #[test]
    fn mix_hash_separates_small_sets() {
        // All 2^10 subsets of {0..10} hash distinctly — a weak mix (e.g.
        // xor of words) would collide immediately on single-word sets.
        let mut seen = std::collections::HashSet::new();
        for mask in 0u32..1024 {
            let s: BitSet = (0..10).filter(|i| mask >> i & 1 == 1).map(NodeId).collect();
            assert!(seen.insert(s.mix_hash()), "collision at mask {mask:#b}");
        }
    }

    #[test]
    fn rank_counts_ids_below() {
        let s = ids(&[0, 3, 64, 70, 200]);
        assert_eq!(bits::rank(&s.words, NodeId(0)), 0);
        assert_eq!(bits::rank(&s.words, NodeId(1)), 1);
        assert_eq!(bits::rank(&s.words, NodeId(3)), 1);
        assert_eq!(bits::rank(&s.words, NodeId(64)), 2);
        assert_eq!(bits::rank(&s.words, NodeId(65)), 3);
        assert_eq!(bits::rank(&s.words, NodeId(200)), 4);
        assert_eq!(bits::rank(&s.words, NodeId(10_000)), 5);
        assert_eq!(bits::rank(&[], NodeId(9)), 0);
    }

    #[test]
    fn iter_unset_walks_the_complement() {
        let s = ids(&[1, 3, 64, 66]);
        let got: Vec<u32> = bits::iter_unset(&s.words, 0, 6).map(|n| n.0).collect();
        assert_eq!(got, vec![0, 2, 4, 5]);
        let got: Vec<u32> = bits::iter_unset(&s.words, 3, 67).map(|n| n.0).collect();
        let want: Vec<u32> = (3..67).filter(|i| ![3, 64, 66].contains(i)).collect();
        assert_eq!(got, want);
        // Range beyond capacity: everything there is unset.
        let got: Vec<u32> = bits::iter_unset(&[0], 62, 66).map(|n| n.0).collect();
        assert_eq!(got, vec![62, 63, 64, 65]);
        assert!(bits::iter_unset(&s.words, 5, 5).next().is_none());
        // Word-aligned hi must not drop the final word.
        let got: Vec<u32> = bits::iter_unset(&s.words, 60, 64).map(|n| n.0).collect();
        assert_eq!(got, vec![60, 61, 62, 63]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = ids(&[1, 100]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(NodeId(100)));
    }
}
