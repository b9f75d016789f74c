//! The paper's cost model.
//!
//! Formula (1): the **average data wait** of an allocation is
//!
//! ```text
//!        Σ_{Di ∈ D} W(Di)·T(Di)
//!        ──────────────────────        T(Di) = slot of Di (1-based)
//!          Σ_{Di ∈ D} W(Di)
//! ```
//!
//! The paper's worked examples (Fig. 2): the one-channel allocation
//! `1 3 E 4 C D 2 A B` costs `(18·3 + 15·5 + 7·6 + 20·8 + 10·9)/70 ≈ 6.01`,
//! the two-channel allocation costs `≈ 3.88`. Both are pinned by tests here.
//!
//! Access time additionally includes the **probe wait**: the time from
//! tuning in until the bucket holding the index root arrives. In the
//! paper's model every bucket of channel `C1` carries a pointer to the first
//! bucket of the next cycle, so a client tuning in during slot `t` of an
//! `L`-slot cycle reads the root `L - t + 1` slots later; uniformly over
//! `t`, the expected probe wait is `(L + 1) / 2`.

use crate::allocation::Allocation;
use bcast_index_tree::{IndexTree, TreeStats};
use bcast_types::Weight;

/// Weighted wait numerator `Σ W(Di)·T(Di)` of formula (1).
///
/// # Panics
/// Panics if some data node of `tree` is unplaced (validate first).
pub fn weighted_wait_sum(alloc: &Allocation, tree: &IndexTree) -> f64 {
    tree.data_nodes()
        .iter()
        .map(|&d| {
            let slot = alloc
                .slot_of(d)
                .expect("data node must be placed to have a wait");
            tree.weight(d) * slot.wait()
        })
        .sum()
}

/// Formula (1): average data wait in buckets.
///
/// Returns 0 for the degenerate all-zero-weight tree (no requests → no
/// waiting) rather than dividing by zero.
pub fn average_data_wait(alloc: &Allocation, tree: &IndexTree) -> f64 {
    let total = tree.total_weight();
    if total.is_zero() {
        return 0.0;
    }
    weighted_wait_sum(alloc, tree) / total.get()
}

/// Expected probe wait `(L + 1) / 2` for cycle length `L`, in slots.
pub fn expected_probe_wait(cycle_len: usize) -> f64 {
    (cycle_len as f64 + 1.0) / 2.0
}

/// Expected total access time: probe wait plus average data wait.
pub fn expected_access_time(alloc: &Allocation, tree: &IndexTree) -> f64 {
    expected_probe_wait(alloc.cycle_len()) + average_data_wait(alloc, tree)
}

/// The earliest slots the unplaced data nodes of a partial schedule can
/// take: the `t_j` of DESIGN §5.1, shared by the analytic floor below and
/// the exact search's `U(X)` (`bcast_core::bound`).
///
/// A partial schedule has used `used` slots of `channels`. Its candidate
/// set holds `free_data` data nodes and `free_index` index nodes, and no
/// index node of the tree has more than `fanout` children. Opening `i`
/// index nodes makes at most `(fanout − 1)·i + min(i, free_index)` more
/// data nodes available, and each opened index node airs strictly before
/// the data it unlocks. So no schedule airs its `j`-th unplaced data node
/// before slot [`SlotFloor::slot`]`(j)`, and the floor never decreases
/// in `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotFloor {
    /// Slots already used.
    pub used: u64,
    /// Channels `k`: nodes per slot.
    pub channels: usize,
    /// Data nodes in the candidate set.
    pub free_data: usize,
    /// Index nodes in the candidate set.
    pub free_index: usize,
    /// The largest fanout of any index node of the tree.
    pub fanout: usize,
}

impl SlotFloor {
    /// `a_j`: the fewest index nodes that must air before `j` unplaced
    /// data nodes can have aired — the least `i` with
    /// `(F − 1)·i + min(i, free_index) ≥ j − free_data`. A fanout below 2
    /// counts as 2, which can only lower the count.
    fn index_needed(&self, j: usize) -> usize {
        let locked = j.saturating_sub(self.free_data);
        let f = self.fanout.max(2);
        if locked <= f * self.free_index {
            locked.div_ceil(f)
        } else {
            (locked - self.free_index).div_ceil(f - 1)
        }
    }

    /// The packing slot `used + ⌈j/k⌉` of the `j`-th (1-based) unplaced
    /// data node: its slot if every unplaced data node were available.
    pub fn packing_slot(&self, j: usize) -> u64 {
        self.used + j.div_ceil(self.channels) as u64
    }

    /// `t_j`: the earliest slot of the `j`-th (1-based) unplaced data node
    /// to air. With nothing locked (`a_j = 0`) that is the packing slot.
    /// Otherwise the `a_j` index nodes and all but `k` of the first `j`
    /// data nodes air in slots before it:
    /// `used + 1 + ⌈(a_j + max(0, j − k))/k⌉`.
    pub fn slot(&self, j: usize) -> u64 {
        let k = self.channels;
        match self.index_needed(j) {
            0 => self.packing_slot(j),
            a => self.used + 1 + (a + j.saturating_sub(k)).div_ceil(k) as u64,
        }
    }
}

/// An analytic lower bound on the average data wait of *any* feasible
/// k-channel allocation of `tree`: slot 1 holds only the root, so every
/// schedule continues from the root's children, and the heaviest data
/// nodes pair with the earliest [`SlotFloor`] slots after it.
///
/// The floor charges each data node the index nodes it waits behind, not
/// only the `k` nodes per slot. The exact search checks its optima
/// against it, and `bcast compare` reports every method's gap to it.
pub fn data_wait_lower_bound(tree: &IndexTree, num_channels: usize) -> f64 {
    let total = tree.total_weight();
    if total.is_zero() {
        return 0.0;
    }
    let children = tree.children(tree.root());
    let free_data = children.iter().filter(|&&c| tree.is_data(c)).count();
    let floor = SlotFloor {
        used: 1,
        channels: num_channels,
        free_data,
        free_index: children.len() - free_data,
        fanout: TreeStats::of(tree).max_fanout,
    };
    let mut weights: Vec<Weight> = tree.data_nodes().iter().map(|&d| tree.weight(d)).collect();
    weights.sort_unstable_by(|a, b| b.cmp(a));
    let mut sum = 0.0;
    for (i, w) in weights.into_iter().enumerate() {
        sum += w * floor.slot(i + 1);
    }
    sum / total.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_index_tree::builders;
    use bcast_types::NodeId;

    fn ids(tree: &IndexTree, labels: &[&str]) -> Vec<NodeId> {
        labels
            .iter()
            .map(|l| tree.find_by_label(l).expect("label exists"))
            .collect()
    }

    #[test]
    fn paper_fig2a_one_channel_cost() {
        let t = builders::paper_example();
        let seq = ids(&t, &["1", "3", "E", "4", "C", "D", "2", "A", "B"]);
        let a = Allocation::from_sequence(&seq, &t).unwrap();
        let wait = average_data_wait(&a, &t);
        // (18·3 + 15·5 + 7·6 + 20·8 + 10·9) / 70 = 421/70.
        assert!((wait - 421.0 / 70.0).abs() < 1e-12);
        assert!((wait - 6.01).abs() < 0.01, "paper rounds to 6.01");
    }

    #[test]
    fn paper_fig2b_two_channel_cost() {
        let t = builders::paper_example();
        let slots = vec![
            ids(&t, &["1"]),
            ids(&t, &["2", "3"]),
            ids(&t, &["A", "B"]),
            ids(&t, &["4", "E"]),
            ids(&t, &["C", "D"]),
        ];
        let a = Allocation::from_slot_schedule(&slots, &t, 2).unwrap();
        let wait = average_data_wait(&a, &t);
        // (20·3 + 10·3 + 18·4 + 15·5 + 7·5) / 70 = 272/70 ≈ 3.885…
        assert!((wait - 272.0 / 70.0).abs() < 1e-12);
        assert!((wait - 3.89).abs() < 0.01);
    }

    #[test]
    fn probe_wait_expectation() {
        assert_eq!(expected_probe_wait(9), 5.0);
        assert_eq!(expected_probe_wait(1), 1.0);
    }

    #[test]
    fn access_time_combines_both() {
        let t = builders::paper_example();
        let seq = ids(&t, &["1", "3", "E", "4", "C", "D", "2", "A", "B"]);
        let a = Allocation::from_sequence(&seq, &t).unwrap();
        let access = expected_access_time(&a, &t);
        assert!((access - (5.0 + 421.0 / 70.0)).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_is_below_known_allocations() {
        let t = builders::paper_example();
        let lb1 = data_wait_lower_bound(&t, 1);
        assert!(lb1 <= 421.0 / 70.0);
        let lb2 = data_wait_lower_bound(&t, 2);
        assert!(lb2 <= 264.0 / 70.0, "the two-channel optimum is 264/70");
        // After slot 1 the root's two index children are available and no
        // data. A(20) and E(18) wait behind one opened index node (slot 3),
        // C(15) and B(10) behind two (slot 4) and D(7) behind three (slot
        // 5): (20·3 + 18·3 + 15·4 + 10·4 + 7·5)/70 = 249/70.
        assert!((lb2 - 249.0 / 70.0).abs() < 1e-12, "{lb2}");
    }

    #[test]
    fn slot_floor_is_the_packing_slot_until_data_locks() {
        for k in 1..=4usize {
            for free_data in 0..6usize {
                let floor = SlotFloor {
                    used: 3,
                    channels: k,
                    free_data,
                    free_index: 2,
                    fanout: 3,
                };
                let mut prev = 0;
                for j in 1..=20usize {
                    let t = floor.slot(j);
                    assert_eq!(floor.packing_slot(j), 3 + j.div_ceil(k) as u64);
                    assert!(
                        t >= floor.packing_slot(j),
                        "k={k} free_data={free_data} j={j}"
                    );
                    assert!(t >= prev, "t_j never decreases");
                    if j <= free_data {
                        assert_eq!(t, floor.packing_slot(j));
                        assert_eq!(floor.index_needed(j), 0);
                    } else {
                        assert!(t > 3 + 1, "a locked data node airs after an index node");
                    }
                    prev = t;
                }
            }
        }
        // Two available index nodes of fanout 3 unlock at most 6 data
        // nodes; each further one needs another opened index node, which
        // unlocks 2 more.
        let floor = SlotFloor {
            used: 1,
            channels: 2,
            free_data: 0,
            free_index: 2,
            fanout: 3,
        };
        let needed: Vec<usize> = (1..=10).map(|j| floor.index_needed(j)).collect();
        assert_eq!(needed, [1, 1, 1, 2, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn zero_weight_tree_has_zero_wait() {
        use bcast_index_tree::TreeBuilder;
        use bcast_types::Weight;
        let mut b = TreeBuilder::new();
        let root = b.root("r");
        b.add_data(root, Weight::ZERO, "d").unwrap();
        let t = b.build().unwrap();
        let seq = vec![t.root(), t.find_by_label("d").unwrap()];
        let a = Allocation::from_sequence(&seq, &t).unwrap();
        assert_eq!(average_data_wait(&a, &t), 0.0);
        assert_eq!(data_wait_lower_bound(&t, 3), 0.0);
    }
}
