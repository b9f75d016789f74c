//! A flat open-addressing dominance table over interned state ids.
//!
//! Every exact engine in the workspace keeps the same kind of record: *the
//! best cost seen so far for an equivalence class of search states*. The
//! class key is a set (placed tree nodes, assigned PAP jobs) plus a small
//! scalar (slots used, next person). The first-generation implementation was
//! a nested `HashMap<BitSet, HashMap<u32, f64>>` — a SipHash pass over the
//! whole set per operation, a heap-allocated inner map per outer entry, and
//! a full `BitSet` clone per insert. This module replaces it with one flat
//! table:
//!
//! * the key is `(hash: u64, aux: u32)` where `hash` is a caller-computed
//!   content hash ([`crate::BitSet::mix_hash`] or [`crate::mix64`]) —
//!   nothing is re-hashed inside the table;
//! * entries carry an **interned id** (`u32`) naming the full key in some
//!   caller-owned arena (the best-first search's state arena, the PAP
//!   solver's mask vector). On a hash+aux match the caller's `same(id)`
//!   closure confirms true equality, so 64-bit collisions cannot corrupt an
//!   exact search, yet the table itself never stores or clones a set;
//! * linear probing over a power-of-two array, grown at 3/4 load; no
//!   deletions (dominance records only improve), so no tombstones;
//! * one [`probe`](DominanceTable::probe) resolves lookup *and* insertion
//!   position: the caller inspects the returned [`Probe`], then calls
//!   [`fill`](DominanceTable::fill) or [`update`](DominanceTable::update)
//!   with the slot it was handed — no second traversal. (Interleaving other
//!   table mutations between the probe and its write would invalidate the
//!   slot; the engines never do.)
//!
//! The table counts probes and hits so the search engines can report
//! dominance-layer effectiveness per run.

/// Sentinel id marking an empty slot (no real arena grows to 2^32 − 1).
const EMPTY: u32 = u32::MAX;

/// Minimum capacity (power of two) a fresh table allocates.
const MIN_CAP: usize = 64;

#[derive(Clone, Copy)]
struct Entry {
    hash: u64,
    value: f64,
    aux: u32,
    id: u32,
}

const VACANT: Entry = Entry {
    hash: 0,
    value: 0.0,
    aux: 0,
    id: EMPTY,
};

/// Outcome of a [`DominanceTable::probe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// The key is present: `id` names the interned twin, `value` the best
    /// cost recorded for it. `slot` may be passed to
    /// [`DominanceTable::update`] to improve the record in place.
    Occupied {
        /// Probe-sequence position of the entry.
        slot: usize,
        /// Interned id of the stored key.
        id: u32,
        /// Best cost recorded so far.
        value: f64,
    },
    /// The key is absent; `slot` is where [`DominanceTable::fill`] must
    /// place it.
    Vacant {
        /// First free probe-sequence position for this key.
        slot: usize,
    },
}

/// Flat open-addressing `(hash, aux) → (id, best value)` table.
///
/// See the module docs for the design; see the search engines for usage.
pub struct DominanceTable {
    entries: Vec<Entry>,
    mask: usize,
    len: usize,
    probes: u64,
    hits: u64,
}

impl Default for DominanceTable {
    fn default() -> Self {
        Self::with_capacity(MIN_CAP)
    }
}

impl DominanceTable {
    /// Creates a table that can hold about `capacity` records before the
    /// first growth.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity
            .saturating_mul(4)
            .div_ceil(3)
            .next_power_of_two()
            .max(MIN_CAP);
        DominanceTable {
            entries: vec![VACANT; cap],
            mask: cap - 1,
            len: 0,
            probes: 0,
            hits: 0,
        }
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no record has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Probes performed so far (each [`probe`](Self::probe) call is one).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Probes that found an existing record for their key.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Bytes of heap backing the table (entry array only).
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    /// Start position of the probe sequence for `(hash, aux)`.
    ///
    /// `hash` is already well mixed but does not cover `aux`, so the table
    /// folds `aux` in and re-mixes: keys that differ only in `aux` start
    /// their probe sequences apart.
    #[inline]
    fn start(&self, hash: u64, aux: u32) -> usize {
        (crate::mix64(hash ^ (u64::from(aux) << 32)) as usize) & self.mask
    }

    /// One-pass lookup. `same(id)` must report whether the interned key
    /// `id` equals the probed key; it runs only on a full `(hash, aux)`
    /// match, i.e. almost always exactly once, on the true twin.
    #[inline]
    pub fn probe(&mut self, hash: u64, aux: u32, mut same: impl FnMut(u32) -> bool) -> Probe {
        self.probes += 1;
        let mut i = self.start(hash, aux);
        loop {
            let e = self.entries[i];
            if e.id == EMPTY {
                return Probe::Vacant { slot: i };
            }
            if e.hash == hash && e.aux == aux && same(e.id) {
                self.hits += 1;
                return Probe::Occupied {
                    slot: i,
                    id: e.id,
                    value: e.value,
                };
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts a fresh record at the `slot` returned by a
    /// [`Probe::Vacant`], then grows the table if it crossed 3/4 load.
    ///
    /// # Panics
    /// Debug-asserts the slot is still vacant.
    pub fn fill(&mut self, slot: usize, hash: u64, aux: u32, id: u32, value: f64) {
        debug_assert_eq!(self.entries[slot].id, EMPTY, "fill of occupied slot");
        debug_assert_ne!(id, EMPTY, "id {EMPTY:#x} is the vacancy sentinel");
        self.entries[slot] = Entry {
            hash,
            value,
            aux,
            id,
        };
        self.len += 1;
        if self.len * 4 >= self.entries.len() * 3 {
            self.grow();
        }
    }

    /// Improves the record at the `slot` returned by a [`Probe::Occupied`]:
    /// new best `value`, and `id` re-pointed at the state that achieved it.
    pub fn update(&mut self, slot: usize, id: u32, value: f64) {
        debug_assert_ne!(self.entries[slot].id, EMPTY, "update of vacant slot");
        self.entries[slot].id = id;
        self.entries[slot].value = value;
    }

    /// Doubles the array and re-seats every record. Keys are distinct by
    /// construction, so reinsertion needs no equality checks.
    fn grow(&mut self) {
        let new_cap = self.entries.len() * 2;
        let old = std::mem::replace(&mut self.entries, vec![VACANT; new_cap]);
        self.mask = new_cap - 1;
        for e in old {
            if e.id == EMPTY {
                continue;
            }
            let mut i = self.start(e.hash, e.aux);
            while self.entries[i].id != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.entries[i] = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts or improves, mimicking the engines' dominance pattern.
    fn upsert(t: &mut DominanceTable, hash: u64, aux: u32, id: u32, value: f64) {
        match t.probe(hash, aux, |stored| stored == id) {
            Probe::Occupied { slot, .. } => t.update(slot, id, value),
            Probe::Vacant { slot } => t.fill(slot, hash, aux, id, value),
        }
    }

    #[test]
    fn probe_fill_update_roundtrip() {
        let mut t = DominanceTable::default();
        assert!(t.is_empty());
        let h = crate::mix64(42);
        let Probe::Vacant { slot } = t.probe(h, 3, |_| unreachable!("empty table")) else {
            panic!("fresh key must be vacant");
        };
        t.fill(slot, h, 3, 7, 1.5);
        assert_eq!(t.len(), 1);
        // Same hash, different aux — a different key.
        assert!(matches!(t.probe(h, 4, |_| true), Probe::Vacant { .. }));
        match t.probe(h, 3, |id| id == 7) {
            Probe::Occupied { slot, id, value } => {
                assert_eq!((id, value), (7, 1.5));
                t.update(slot, 9, 0.5);
            }
            v => panic!("expected occupied, got {v:?}"),
        }
        match t.probe(h, 3, |id| id == 9) {
            Probe::Occupied { id, value, .. } => assert_eq!((id, value), (9, 0.5)),
            v => panic!("expected occupied, got {v:?}"),
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.probes(), 4);
        assert_eq!(t.hits(), 2);
    }

    #[test]
    fn equal_hash_different_content_coexists() {
        // Force a full 64-bit hash + aux collision between two keys whose
        // `same` checks disagree: both must be stored and retrievable.
        let mut t = DominanceTable::default();
        let h = 0xdead_beef_u64;
        let Probe::Vacant { slot } = t.probe(h, 1, |_| false) else {
            panic!()
        };
        t.fill(slot, h, 1, 100, 10.0);
        // Key B collides but `same(100)` is false → must land elsewhere.
        let Probe::Vacant { slot } = t.probe(h, 1, |id| id == 200) else {
            panic!("collision with different content must read as vacant");
        };
        t.fill(slot, h, 1, 200, 20.0);
        assert_eq!(t.len(), 2);
        match t.probe(h, 1, |id| id == 100) {
            Probe::Occupied { value, .. } => assert_eq!(value, 10.0),
            v => panic!("lost key A: {v:?}"),
        }
        match t.probe(h, 1, |id| id == 200) {
            Probe::Occupied { value, .. } => assert_eq!(value, 20.0),
            v => panic!("lost key B: {v:?}"),
        }
    }

    #[test]
    fn survives_growth() {
        let mut t = DominanceTable::with_capacity(MIN_CAP);
        let n = 10_000u32;
        for i in 0..n {
            upsert(&mut t, crate::mix64(u64::from(i)), i % 5, i, f64::from(i));
        }
        assert_eq!(t.len(), n as usize);
        for i in 0..n {
            match t.probe(crate::mix64(u64::from(i)), i % 5, |id| id == i) {
                Probe::Occupied { id, value, .. } => {
                    assert_eq!(id, i);
                    assert_eq!(value, f64::from(i));
                }
                v => panic!("key {i} lost after growth: {v:?}"),
            }
        }
        assert!(t.heap_bytes() >= t.len() * std::mem::size_of::<Entry>());
    }

    #[test]
    fn hit_rate_counters_accumulate() {
        let mut t = DominanceTable::default();
        for round in 0..3u64 {
            for i in 0..100u32 {
                upsert(
                    &mut t,
                    crate::mix64(u64::from(i)),
                    0,
                    i,
                    f64::from(i) - round as f64,
                );
            }
        }
        assert_eq!(t.probes(), 300);
        assert_eq!(t.hits(), 200);
        assert_eq!(t.len(), 100);
    }
}
