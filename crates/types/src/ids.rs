//! Identifier newtypes for nodes, channels, slots and bucket addresses.

use std::fmt;

/// Identifier of a node (index or data) in an index tree.
///
/// Node ids are dense indices into a tree's per-node columns, assigned by
/// the tree builder; `NodeId(0)` is always the root. They are meaningless
/// across different trees.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root node of every index tree.
    pub const ROOT: NodeId = NodeId(0);

    /// Returns the id as a `usize` column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a column index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a broadcast channel, 0-based.
///
/// The paper numbers channels `C1..Ck`; [`ChannelId(0)`](ChannelId) is `C1`,
/// the channel every client initially tunes into to find the index root.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u16);

impl ChannelId {
    /// The first broadcast channel (`C1` in the paper); clients start here.
    pub const FIRST: ChannelId = ChannelId(0);

    /// Returns the channel as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `ChannelId` from a 0-based index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u16`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ChannelId(u16::try_from(index).expect("channel index exceeds u16::MAX"))
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Match the paper's 1-based channel naming in human-facing output.
        write!(f, "C{}", self.0 + 1)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0 + 1)
    }
}

/// A 1-based broadcast slot within a cycle.
///
/// One bucket is transmitted per channel per slot. The paper's data wait
/// `T(Di)` for a node placed in slot `s` is exactly `s`, so keeping slots
/// 1-based makes the cost model read like formula (1) of the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot(pub u32);

impl Slot {
    /// The first slot of a broadcast cycle.
    pub const FIRST: Slot = Slot(1);

    /// Returns the slot number as the paper's wait contribution `T(Di)`.
    #[inline]
    pub fn wait(self) -> u64 {
        self.0 as u64
    }

    /// Returns the 0-based offset of this slot within the cycle.
    ///
    /// Slots are 1-based by invariant; the degenerate `Slot(0)` (reachable
    /// through the public field) maps to offset 0 rather than underflowing.
    #[inline]
    pub fn offset(self) -> usize {
        self.0.saturating_sub(1) as usize
    }

    /// Builds a slot from a 0-based offset.
    ///
    /// # Panics
    /// Panics if `offset + 1` does not fit in `u32`.
    #[inline]
    pub fn from_offset(offset: usize) -> Self {
        Slot(u32::try_from(offset + 1).expect("slot offset exceeds u32::MAX"))
    }

    /// The slot immediately after this one.
    #[inline]
    pub fn next(self) -> Slot {
        Slot(self.0 + 1)
    }
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Position of a bucket in the broadcast grid: a `(channel, slot)` pair.
///
/// This is the codomain of the paper's allocation function
/// `f : I ∪ D → C × S`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BucketAddr {
    /// Channel the bucket is transmitted on.
    pub channel: ChannelId,
    /// Slot (1-based) within the broadcast cycle.
    pub slot: Slot,
}

impl BucketAddr {
    /// Convenience constructor from 0-based channel and slot indices.
    #[inline]
    pub fn new(channel: usize, slot_offset: usize) -> Self {
        BucketAddr {
            channel: ChannelId::from_index(channel),
            slot: Slot::from_offset(slot_offset),
        }
    }
}

impl fmt::Display for BucketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.channel, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(NodeId::ROOT.index(), 0);
    }

    #[test]
    fn channel_display_is_one_based() {
        assert_eq!(format!("{}", ChannelId::FIRST), "C1");
        assert_eq!(format!("{}", ChannelId::from_index(3)), "C4");
        assert_eq!(ChannelId::from_index(3).index(), 3);
    }

    #[test]
    fn slot_wait_matches_paper_t() {
        // A node in the 3rd slot of the cycle has T(Di) = 3.
        let s = Slot::from_offset(2);
        assert_eq!(s.wait(), 3);
        assert_eq!(s.offset(), 2);
        assert_eq!(s.next(), Slot(4));
        assert_eq!(Slot::FIRST.wait(), 1);
    }

    #[test]
    fn degenerate_slot_zero_does_not_underflow() {
        assert_eq!(Slot(0).offset(), 0);
    }

    #[test]
    fn bucket_addr_ordering_is_channel_major() {
        let a = BucketAddr::new(0, 5);
        let b = BucketAddr::new(1, 0);
        assert!(a < b);
        assert_eq!(format!("{a}"), "C1@s6");
    }

    #[test]
    #[should_panic(expected = "node index exceeds")]
    fn node_id_overflow_panics() {
        let _ = NodeId::from_index(usize::MAX);
    }
}
