//! Slot schedules — the search algorithms' native output.
//!
//! The topological-tree search produces a *path of compound nodes*: for each
//! slot, the set of tree nodes transmitted in that slot (across channels).
//! [`Schedule`] is that path. Channel assignment within a slot does not
//! affect the data wait (formula 1 only reads slots), so the search works on
//! schedules and the §3.1 channel rules are applied once at the end via
//! [`Schedule::into_allocation`].

use crate::seqset::MinSeqSet;
use bcast_channel::{Allocation, FeasibilityError, SlotPlan};
use bcast_index_tree::IndexTree;
use bcast_types::NodeId;

/// A sequence of slots, each holding the nodes transmitted at that slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    slots: Vec<Vec<NodeId>>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Wraps explicit slot sets.
    pub fn from_slots(slots: Vec<Vec<NodeId>>) -> Self {
        Schedule { slots }
    }

    /// Builds a 1-channel schedule from a node sequence.
    pub fn from_sequence(sequence: impl IntoIterator<Item = NodeId>) -> Self {
        Schedule {
            slots: sequence.into_iter().map(|n| vec![n]).collect(),
        }
    }

    /// Clones a flat [`SlotPlan`] into per-slot vectors. The inverse
    /// direction of the zero-allocation pipeline: plan-producing code paths
    /// use this to keep serving the `Schedule`-based API.
    pub fn from_plan(plan: &SlotPlan) -> Self {
        Schedule {
            slots: plan.slots().map(<[NodeId]>::to_vec).collect(),
        }
    }

    /// Appends a slot.
    pub fn push_slot(&mut self, members: Vec<NodeId>) {
        self.slots.push(members);
    }

    /// The slot sets.
    pub fn slots(&self) -> &[Vec<NodeId>] {
        &self.slots
    }

    /// Cycle length in slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total nodes scheduled.
    pub fn node_count(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Average data wait (formula 1) of this schedule against `tree`.
    ///
    /// Works directly on slots, without materializing channels; the result
    /// is identical to [`bcast_channel::cost::average_data_wait`] on the
    /// corresponding allocation (asserted by tests).
    pub fn average_data_wait(&self, tree: &IndexTree) -> f64 {
        let total = tree.total_weight();
        if total.is_zero() {
            return 0.0;
        }
        let mut sum = 0.0;
        for (offset, members) in self.slots.iter().enumerate() {
            for &n in members {
                if tree.is_data(n) {
                    sum += tree.weight(n) * (offset as u64 + 1);
                }
            }
        }
        sum / total.get()
    }

    /// Applies the §3.1 channel-assignment rules, producing a validated
    /// [`Allocation`] over `num_channels` channels.
    pub fn into_allocation(
        &self,
        tree: &IndexTree,
        num_channels: usize,
    ) -> Result<Allocation, FeasibilityError> {
        Allocation::from_slot_schedule(&self.slots, tree, num_channels)
    }

    /// Widest slot (minimum channel count needed to realize the schedule).
    pub fn max_width(&self) -> usize {
        self.slots.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Packs a *linear order* of all tree nodes into a k-channel schedule:
/// slots are filled left to right, each slot taking up to `k` still
/// unplaced nodes — earliest in `order` first — whose parents sit in
/// strictly earlier slots.
///
/// This is the one place an order becomes a schedule. The heuristics
/// differ only in the order they feed it: the density-sorted preorder
/// (§4.2 Index Tree Sorting, where this sweep *is* the paper's
/// `1_To_k_BroadcastChannel` — see [`crate::heuristics::one_to_k`]), the
/// global density rank (frontier-greedy), an expanded shrunken path, or
/// the plain preorder. A node appearing before its parent in `order` is
/// simply deferred until the parent has aired, so any permutation of the
/// tree's nodes yields a feasible schedule; with `k = 1` a topological
/// order comes back unchanged.
///
/// # Panics
/// Panics if `k == 0` or `order` is not a permutation of the tree's nodes
/// — wrong length or any duplicate (a programming error in the caller).
pub fn greedy_schedule_from_order(order: &[NodeId], tree: &IndexTree, k: usize) -> Schedule {
    let mut scratch = PackScratch::new();
    let mut plan = SlotPlan::new();
    greedy_pack_into(order, tree, k, &mut scratch, &mut plan);
    Schedule::from_plan(&plan)
}

/// Reusable buffers for [`greedy_pack_into`]: capacity survives across
/// calls, so a steady-state packer performs no heap allocation.
#[derive(Debug, Default)]
pub struct PackScratch {
    /// `seq[n]` = position of node `n` in the input order (doubles as the
    /// duplicate check).
    seq: Vec<u32>,
    /// Awake nodes (parent aired in a strictly earlier slot) keyed by
    /// position.
    awake: MinSeqSet,
    /// Position-space child table:
    /// `pos_children[pos_starts[i] .. pos_starts[i + 1]]` holds the
    /// positions of the children of `order[i]`.
    pos_starts: Vec<u32>,
    /// See [`PackScratch::pos_starts`].
    pos_children: Vec<u32>,
    /// Positions placed in the slot being filled.
    slot_pos: Vec<u32>,
}

impl PackScratch {
    /// Empty scratch; the first pack sizes the buffers to the tree.
    pub fn new() -> Self {
        PackScratch::default()
    }
}

/// The zero-allocation twin of [`greedy_schedule_from_order`]: packs
/// `order` into `plan` (cleared first) using `scratch`'s reusable buffers.
///
/// Each slot pops the `k` smallest positions from an *awake set* — a
/// node enters it once its parent has aired, and placing a node wakes its
/// children for the *next* slot, never the current one — so the sweep is
/// near-linear where rescanning the unplaced remainder per slot is
/// quadratic once a subtree piles up behind an unplaced ancestor (see
/// [`MinSeqSet`]).
///
/// # Panics
/// Panics if `k == 0` or `order` is not a permutation of the tree's nodes
/// — wrong length or any duplicate (a programming error in the caller).
pub fn greedy_pack_into(
    order: &[NodeId],
    tree: &IndexTree,
    k: usize,
    scratch: &mut PackScratch,
    plan: &mut SlotPlan,
) {
    assert!(k >= 1, "need at least one channel");
    assert_eq!(order.len(), tree.len(), "order must cover all nodes");
    let PackScratch {
        seq,
        awake,
        pos_starts,
        pos_children,
        slot_pos,
    } = scratch;

    // Inverse permutation (and the duplicate check that makes it one).
    seq.clear();
    seq.resize(tree.len(), u32::MAX);
    for (i, &n) in order.iter().enumerate() {
        assert_eq!(
            seq[n.index()],
            u32::MAX,
            "order is not a permutation of the tree: node {n} appears twice"
        );
        seq[n.index()] = i as u32;
    }

    // The slot loop is a serial chain of data-dependent loads, so the
    // per-node child walk (CSR range, then each child's position) is
    // hoisted into a position-space child table built by two tight
    // sequential passes up front — the same cache misses, but overlapped
    // by the CPU instead of serialized behind each slot's pops.
    pos_starts.clear();
    pos_starts.reserve(order.len() + 1);
    pos_starts.push(0);
    let mut total = 0u32;
    for &n in order {
        total += tree.child_range(n).len() as u32;
        pos_starts.push(total);
    }
    let flat = tree.flat_children();
    pos_children.clear();
    pos_children.reserve(total as usize);
    for &n in order {
        pos_children.extend(flat[tree.child_range(n)].iter().map(|c| seq[c.index()]));
    }

    // The sweep: each slot pops the `k` smallest awake positions, and a
    // placed node wakes its children for the next slot.
    plan.clear();
    awake.reset(order.len());
    if !order.is_empty() {
        awake.insert(seq[tree.root().index()] as usize);
    }
    while !awake.is_empty() {
        slot_pos.clear();
        while slot_pos.len() < k {
            let Some(pos) = awake.pop_min() else {
                break;
            };
            plan.push(order[pos]);
            slot_pos.push(pos as u32);
        }
        plan.commit_slot();
        for &p in slot_pos.iter() {
            let children = pos_starts[p as usize] as usize..pos_starts[p as usize + 1] as usize;
            for &c in &pos_children[children] {
                awake.insert(c as usize);
            }
        }
    }
    assert_eq!(
        plan.node_count(),
        order.len(),
        "every node wakes once its parent airs"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_channel::cost;
    use bcast_index_tree::builders;

    fn ids(tree: &IndexTree, labels: &[&str]) -> Vec<NodeId> {
        labels
            .iter()
            .map(|l| tree.find_by_label(l).expect("label exists"))
            .collect()
    }

    #[test]
    fn schedule_cost_matches_allocation_cost() {
        let t = builders::paper_example();
        let s = Schedule::from_slots(vec![
            ids(&t, &["1"]),
            ids(&t, &["2", "3"]),
            ids(&t, &["A", "B"]),
            ids(&t, &["4", "E"]),
            ids(&t, &["C", "D"]),
        ]);
        let alloc = s.into_allocation(&t, 2).unwrap();
        assert!((s.average_data_wait(&t) - cost::average_data_wait(&alloc, &t)).abs() < 1e-12);
        assert!((s.average_data_wait(&t) - 272.0 / 70.0).abs() < 1e-12);
        assert_eq!(s.max_width(), 2);
        assert_eq!(s.node_count(), 9);
    }

    #[test]
    fn one_channel_sequence() {
        let t = builders::paper_example();
        let s = Schedule::from_sequence(ids(&t, &["1", "3", "E", "4", "C", "D", "2", "A", "B"]));
        assert!((s.average_data_wait(&t) - 421.0 / 70.0).abs() < 1e-12);
        s.into_allocation(&t, 1).unwrap();
    }

    #[test]
    fn greedy_packing_respects_parents() {
        let t = builders::paper_example();
        // Preorder: 1 2 A B 3 E 4 C D, packed into 2 channels.
        let order = ids(&t, &["1", "2", "A", "B", "3", "E", "4", "C", "D"]);
        let s = greedy_schedule_from_order(&order, &t, 2);
        // Slot 1: {1} (2 is a child of 1, must wait). Slot 2: {2, 3}.
        assert_eq!(s.slots()[0], ids(&t, &["1"]));
        assert_eq!(s.slots()[1], ids(&t, &["2", "3"]));
        // Everything feasible as an allocation.
        s.into_allocation(&t, 2).unwrap();
        assert_eq!(s.node_count(), 9);
    }

    #[test]
    fn greedy_packing_one_channel_is_the_order() {
        let t = builders::paper_example();
        let order = ids(&t, &["1", "2", "A", "B", "3", "E", "4", "C", "D"]);
        let s = greedy_schedule_from_order(&order, &t, 1);
        let flat: Vec<NodeId> = s.slots().iter().map(|m| m[0]).collect();
        assert_eq!(flat, order);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn greedy_packing_rejects_duplicates() {
        let t = builders::paper_example();
        let mut order = ids(&t, &["1", "2", "A", "B", "3", "E", "4", "C", "D"]);
        order[8] = order[2]; // A twice, D missing — right length, not a permutation
        let _ = greedy_schedule_from_order(&order, &t, 2);
    }

    #[test]
    fn greedy_packing_repairs_non_topological_order() {
        // A precedes its parent 2 in the order; the packer simply defers it
        // until the parent has aired, producing a feasible schedule.
        let t = builders::paper_example();
        let order = ids(&t, &["A", "1", "2", "B", "3", "E", "4", "C", "D"]);
        let s = greedy_schedule_from_order(&order, &t, 1);
        s.into_allocation(&t, 1).unwrap();
        assert_eq!(s.node_count(), 9);
    }

    #[test]
    fn wide_channels_compress_cycle() {
        let t = builders::paper_example();
        let order = ids(&t, &["1", "2", "3", "A", "B", "E", "4", "C", "D"]);
        let s = greedy_schedule_from_order(&order, &t, 4);
        // 1 | 2 3 | A B E 4 | C D → 4 slots.
        assert_eq!(s.len(), 4);
    }
}
