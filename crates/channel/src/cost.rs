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
use bcast_index_tree::IndexTree;
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

/// A simple analytic lower bound on the average data wait of *any* feasible
/// k-channel allocation of `tree`:
///
/// * slot 1 is consumed by the root index node, so data starts at slot 2;
/// * at most `k` nodes fit per slot;
/// * the best case packs data nodes heaviest-first into the earliest slots.
///
/// Used by tests to sanity-check optimal-search results and by benches to
/// report optimality gaps without running the exact search.
pub fn data_wait_lower_bound(tree: &IndexTree, num_channels: usize) -> f64 {
    let total = tree.total_weight();
    if total.is_zero() {
        return 0.0;
    }
    let mut weights: Vec<Weight> = tree.data_nodes().iter().map(|&d| tree.weight(d)).collect();
    weights.sort_unstable_by(|a, b| b.cmp(a));
    let mut sum = 0.0;
    for (i, w) in weights.into_iter().enumerate() {
        let slot = 2 + (i / num_channels) as u64;
        sum += w * slot;
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
        assert!(lb2 <= 272.0 / 70.0);
        // With 2 channels: heaviest at slot 2: (20·2+18·2+15·3+10·3+7·4)/70.
        assert!(
            (lb2 - (20.0 * 2.0 + 18.0 * 2.0 + 15.0 * 3.0 + 10.0 * 3.0 + 7.0 * 4.0) / 70.0).abs()
                < 1e-12
        );
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
