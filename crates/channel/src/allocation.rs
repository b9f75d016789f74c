//! The allocation mapping `f : I ∪ D → C × S` and its feasibility rules.

use bcast_index_tree::IndexTree;
use bcast_types::{BucketAddr, ChannelId, NodeId, Slot};
use std::fmt;

/// A (partial, while being built) assignment of tree nodes to buckets.
///
/// Invariants enforced by [`Allocation::place`] and re-checked wholesale by
/// [`Allocation::validate`]:
///
/// * injective — at most one node per bucket, at most one bucket per node
///   (the paper assumes "no index or data nodes replicate in a broadcast
///   cycle");
/// * within `num_channels`.
///
/// The *ordering* constraint — every child broadcast strictly after its
/// parent — needs the tree and is checked by [`Allocation::validate`].
#[derive(Clone, Debug)]
pub struct Allocation {
    addr: Vec<Option<BucketAddr>>,
    /// Occupied buckets, for O(1) collision checks while building.
    occupied: std::collections::HashSet<BucketAddr>,
    num_channels: usize,
    /// Highest slot used so far (cycle length once complete).
    cycle_len: u32,
    placed: usize,
}

/// A violated allocation-feasibility rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeasibilityError {
    /// Two nodes were assigned the same bucket.
    BucketCollision(BucketAddr),
    /// The same node was placed twice.
    NodePlacedTwice(NodeId),
    /// A channel id ≥ the declared channel count was used.
    ChannelOutOfRange(ChannelId),
    /// Some tree node was never placed.
    NodeUnplaced(NodeId),
    /// A child is broadcast no later than its parent.
    ChildBeforeParent {
        /// The offending parent.
        parent: NodeId,
        /// The offending child.
        child: NodeId,
    },
    /// The root is not at slot 1 of channel `C1` (clients must find it
    /// there at the start of every cycle).
    RootNotAtOrigin,
    /// The allocation refers to nodes outside the tree.
    SizeMismatch {
        /// Nodes in the allocation table.
        allocation: usize,
        /// Nodes in the tree.
        tree: usize,
    },
    /// The tree (of this depth) is deeper than a compiled route record can
    /// count ([`MAX_ROUTE_DEPTH`](crate::compiled::MAX_ROUTE_DEPTH)), so
    /// no program over it can be published.
    TreeTooDeep(u32),
}

impl fmt::Display for FeasibilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeasibilityError::BucketCollision(a) => write!(f, "two nodes in bucket {a}"),
            FeasibilityError::NodePlacedTwice(n) => write!(f, "node {n} placed twice"),
            FeasibilityError::ChannelOutOfRange(c) => write!(f, "channel {c} out of range"),
            FeasibilityError::NodeUnplaced(n) => write!(f, "node {n} never placed"),
            FeasibilityError::ChildBeforeParent { parent, child } => {
                write!(f, "child {child} not strictly after parent {parent}")
            }
            FeasibilityError::RootNotAtOrigin => {
                write!(f, "index root must occupy slot 1 of channel C1")
            }
            FeasibilityError::SizeMismatch { allocation, tree } => {
                write!(
                    f,
                    "allocation for {allocation} nodes used with {tree}-node tree"
                )
            }
            FeasibilityError::TreeTooDeep(depth) => write!(
                f,
                "tree depth {depth} exceeds the route record limit of {}",
                crate::compiled::MAX_ROUTE_DEPTH
            ),
        }
    }
}

impl std::error::Error for FeasibilityError {}

impl Allocation {
    /// Creates an empty allocation for `num_nodes` nodes over
    /// `num_channels` channels.
    ///
    /// # Panics
    /// Panics if `num_channels == 0`.
    pub fn new(num_nodes: usize, num_channels: usize) -> Self {
        assert!(num_channels > 0, "need at least one channel");
        Allocation {
            addr: vec![None; num_nodes],
            occupied: std::collections::HashSet::with_capacity(num_nodes),
            num_channels,
            cycle_len: 0,
            placed: 0,
        }
    }

    /// Number of broadcast channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Cycle length in slots (max slot used).
    #[inline]
    pub fn cycle_len(&self) -> usize {
        self.cycle_len as usize
    }

    /// Number of nodes placed.
    #[inline]
    pub fn placed(&self) -> usize {
        self.placed
    }

    /// True once every node has a bucket.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.placed == self.addr.len()
    }

    /// Bucket of `node`, if placed.
    #[inline]
    pub fn addr(&self, node: NodeId) -> Option<BucketAddr> {
        self.addr.get(node.index()).copied().flatten()
    }

    /// Slot of `node` (its `T(·)` contribution), if placed.
    #[inline]
    pub fn slot_of(&self, node: NodeId) -> Option<Slot> {
        self.addr(node).map(|a| a.slot)
    }

    /// Places `node` at `addr`, rejecting duplicates and collisions.
    pub fn place(&mut self, node: NodeId, addr: BucketAddr) -> Result<(), FeasibilityError> {
        if addr.channel.index() >= self.num_channels {
            return Err(FeasibilityError::ChannelOutOfRange(addr.channel));
        }
        if self.addr[node.index()].is_some() {
            return Err(FeasibilityError::NodePlacedTwice(node));
        }
        if !self.occupied.insert(addr) {
            return Err(FeasibilityError::BucketCollision(addr));
        }
        self.addr[node.index()] = Some(addr);
        self.cycle_len = self.cycle_len.max(addr.slot.0);
        self.placed += 1;
        Ok(())
    }

    /// Builds a 1-channel allocation from a broadcast sequence
    /// (slot `i+1` holds `sequence[i]`).
    pub fn from_sequence(
        sequence: &[NodeId],
        tree: &IndexTree,
    ) -> Result<Allocation, FeasibilityError> {
        let mut alloc = Allocation::new(tree.len(), 1);
        for (i, &node) in sequence.iter().enumerate() {
            alloc.place(node, BucketAddr::new(0, i))?;
        }
        alloc.validate(tree)?;
        Ok(alloc)
    }

    /// Builds a k-channel allocation from a *slot schedule*: `slots[i]` is
    /// the set of nodes transmitted at slot `i+1` (the "compound node" of
    /// the paper's topological tree), at most `num_channels` of them.
    ///
    /// Channels are assigned with the paper's §3.1 rules:
    ///
    /// 1. the root element goes to channel `C1`;
    /// 2. an element whose index-tree parent occupied channel `c` in an
    ///    earlier slot prefers channel `c` ("put the elements of nodes which
    ///    have the parent-child relationship ... into the same broadcast
    ///    channel if possible");
    /// 3. remaining elements fill the lowest free channels in preorder-rank
    ///    order, deterministically.
    pub fn from_slot_schedule(
        slots: &[Vec<NodeId>],
        tree: &IndexTree,
        num_channels: usize,
    ) -> Result<Allocation, FeasibilityError> {
        let mut alloc = Allocation::new(tree.len(), num_channels);
        for (slot_offset, members) in slots.iter().enumerate() {
            let mut used = vec![false; num_channels];
            let mut deferred: Vec<NodeId> = Vec::new();
            // Pass 1: honor root / parent-channel preferences.
            let mut ordered = members.clone();
            ordered.sort_by_key(|&n| tree.preorder_rank(n));
            for &node in &ordered {
                let preferred = if node == tree.root() {
                    Some(ChannelId::FIRST)
                } else {
                    tree.parent(node)
                        .and_then(|p| alloc.addr(p))
                        .map(|a| a.channel)
                };
                match preferred {
                    Some(c) if c.index() < num_channels && !used[c.index()] => {
                        used[c.index()] = true;
                        alloc.place(
                            node,
                            BucketAddr {
                                channel: c,
                                slot: Slot::from_offset(slot_offset),
                            },
                        )?;
                    }
                    _ => deferred.push(node),
                }
            }
            // Pass 2: everything else onto the lowest free channels.
            let mut next_free = 0usize;
            for node in deferred {
                while next_free < num_channels && used[next_free] {
                    next_free += 1;
                }
                if next_free >= num_channels {
                    // More members than channels in this slot.
                    return Err(FeasibilityError::BucketCollision(BucketAddr::new(
                        num_channels - 1,
                        slot_offset,
                    )));
                }
                used[next_free] = true;
                alloc.place(node, BucketAddr::new(next_free, slot_offset))?;
            }
        }
        alloc.validate(tree)?;
        Ok(alloc)
    }

    /// Full feasibility check against `tree`.
    pub fn validate(&self, tree: &IndexTree) -> Result<(), FeasibilityError> {
        if self.addr.len() != tree.len() {
            return Err(FeasibilityError::SizeMismatch {
                allocation: self.addr.len(),
                tree: tree.len(),
            });
        }
        // Everything placed, in range, no collisions.
        let mut seen: Vec<Option<NodeId>> = vec![None; self.num_channels * self.cycle_len as usize];
        for i in 0..self.addr.len() {
            let node = NodeId::from_index(i);
            let Some(addr) = self.addr[i] else {
                return Err(FeasibilityError::NodeUnplaced(node));
            };
            if addr.channel.index() >= self.num_channels {
                return Err(FeasibilityError::ChannelOutOfRange(addr.channel));
            }
            let key = addr.channel.index() * self.cycle_len as usize + addr.slot.offset();
            if seen[key].is_some() {
                return Err(FeasibilityError::BucketCollision(addr));
            }
            seen[key] = Some(node);
        }
        // Root at the cycle origin.
        if self.addr(tree.root())
            != Some(BucketAddr {
                channel: ChannelId::FIRST,
                slot: Slot::FIRST,
            })
        {
            return Err(FeasibilityError::RootNotAtOrigin);
        }
        // Children strictly after parents.
        for i in 0..tree.len() {
            let child = NodeId::from_index(i);
            if let Some(parent) = tree.parent(child) {
                let ps = self.addr[parent.index()].expect("checked above").slot;
                let cs = self.addr[i].expect("checked above").slot;
                if cs <= ps {
                    return Err(FeasibilityError::ChildBeforeParent { parent, child });
                }
            }
        }
        Ok(())
    }

    /// Iterates `(node, addr)` pairs for all placed nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, BucketAddr)> + '_ {
        self.addr
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|addr| (NodeId::from_index(i), addr)))
    }

    /// Renders the bucket grid like the paper's Fig. 2, one channel a row:
    ///
    /// ```text
    /// C1 | 1 2 A 4 C
    /// C2 | . 3 B E D
    /// ```
    pub fn render(&self, tree: &IndexTree) -> String {
        let mut grid = vec![vec![".".to_string(); self.cycle_len as usize]; self.num_channels];
        for (node, addr) in self.iter() {
            grid[addr.channel.index()][addr.slot.offset()] = tree.label(node);
        }
        let mut out = String::new();
        for (c, row) in grid.iter().enumerate() {
            out.push_str(&format!("C{} | {}\n", c + 1, row.join(" ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_index_tree::builders;

    fn ids(tree: &IndexTree, labels: &[&str]) -> Vec<NodeId> {
        labels
            .iter()
            .map(|l| tree.find_by_label(l).expect("label exists"))
            .collect()
    }

    #[test]
    fn fig2a_sequence_is_feasible() {
        let t = builders::paper_example();
        let seq = ids(&t, &["1", "3", "E", "4", "C", "D", "2", "A", "B"]);
        let a = Allocation::from_sequence(&seq, &t).unwrap();
        assert_eq!(a.cycle_len(), 9);
        assert!(a.is_complete());
        assert_eq!(a.slot_of(t.find_by_label("E").unwrap()), Some(Slot(3)));
    }

    #[test]
    fn infeasible_sequence_rejected() {
        let t = builders::paper_example();
        // A before its parent 2.
        let seq = ids(&t, &["1", "A", "2", "B", "3", "E", "4", "C", "D"]);
        let err = Allocation::from_sequence(&seq, &t).unwrap_err();
        assert!(matches!(err, FeasibilityError::ChildBeforeParent { .. }));
    }

    #[test]
    fn sequence_missing_node_rejected() {
        let t = builders::paper_example();
        let seq = ids(&t, &["1", "2", "3", "A", "B", "E", "4", "C"]);
        let err = Allocation::from_sequence(&seq, &t).unwrap_err();
        assert!(matches!(err, FeasibilityError::NodeUnplaced(_)));
    }

    #[test]
    fn root_must_start_cycle() {
        let t = builders::paper_example();
        // Feasible ordering, but the root sits on channel C2.
        let seq = ids(&t, &["1", "2", "3", "A", "B", "E", "4", "C", "D"]);
        let mut a = Allocation::new(t.len(), 2);
        for (i, &n) in seq.iter().enumerate() {
            let ch = usize::from(n == t.root());
            a.place(n, BucketAddr::new(ch, i)).unwrap();
        }
        assert_eq!(
            a.validate(&t).unwrap_err(),
            FeasibilityError::RootNotAtOrigin
        );
    }

    #[test]
    fn fig2b_schedule_assigns_channels_like_paper() {
        let t = builders::paper_example();
        // Slot sets of Fig. 2(b): {1},{2,3},{A,B},{4,E},{C,D}.
        let slots = vec![
            ids(&t, &["1"]),
            ids(&t, &["2", "3"]),
            ids(&t, &["A", "B"]),
            ids(&t, &["4", "E"]),
            ids(&t, &["C", "D"]),
        ];
        let a = Allocation::from_slot_schedule(&slots, &t, 2).unwrap();
        // Root on C1; 2 prefers C1 (parent 1 on C1), so 3 goes to C2.
        let ch = |l: &str| a.addr(t.find_by_label(l).unwrap()).unwrap().channel.0;
        assert_eq!(ch("1"), 0);
        assert_eq!(ch("2"), 0);
        assert_eq!(ch("3"), 1);
        // A prefers C1 (parent 2 on C1); B also prefers C1 but it is taken,
        // so B lands on C2. 4 and E prefer C2 (parent 3), 4 wins by preorder
        // rank? E's rank is smaller (E comes before 4 in preorder of Fig 1a?
        // preorder: 1,2,A,B,3,E,4,C,D → E rank 5, 4 rank 6). E wins C2.
        assert_eq!(ch("A"), 0);
        assert_eq!(ch("B"), 1);
        assert_eq!(ch("E"), 1);
        assert_eq!(ch("4"), 0);
        a.validate(&t).unwrap();
        let rendered = a.render(&t);
        assert!(rendered.starts_with("C1 | 1 2 A 4"));
    }

    #[test]
    fn schedule_overflow_rejected() {
        let t = builders::paper_example();
        let slots = vec![ids(&t, &["1"]), ids(&t, &["2", "3", "A"])];
        assert!(Allocation::from_slot_schedule(&slots, &t, 2).is_err());
    }

    #[test]
    fn place_rejects_collision_and_duplicate() {
        let t = builders::paper_example();
        let mut a = Allocation::new(t.len(), 2);
        a.place(NodeId(0), BucketAddr::new(0, 0)).unwrap();
        assert_eq!(
            a.place(NodeId(1), BucketAddr::new(0, 0)).unwrap_err(),
            FeasibilityError::BucketCollision(BucketAddr::new(0, 0))
        );
        assert_eq!(
            a.place(NodeId(0), BucketAddr::new(1, 0)).unwrap_err(),
            FeasibilityError::NodePlacedTwice(NodeId(0))
        );
        assert!(matches!(
            a.place(NodeId(1), BucketAddr::new(7, 0)).unwrap_err(),
            FeasibilityError::ChannelOutOfRange(_)
        ));
    }
}
