//! Heuristic 1: Index Tree Shrinking.
//!
//! Two reductions make a too-large instance tractable for the exact
//! searches, then the solution is expanded back:
//!
//! * **Node combination** ([`combine`]) — "change the index node whose
//!   children are all data nodes into a data node having the weight equal
//!   to the sum of the weights of the children", repeated (deepest first)
//!   until the tree fits a node budget. A combined super-node is later
//!   restored as its index node followed by its data children in
//!   descending weight order (the Lemma-3 canonical order).
//! * **Tree partitioning** ([`partition_solve`]) — solve each subtree
//!   hanging off the root independently, then merge the per-subtree
//!   broadcasts in descending weight-density order (the same rule as the
//!   sorting heuristic, derived from Lemma 6).
//!
//! Expansion produces a *linear* node order which
//! [`crate::schedule::greedy_schedule_from_order`] repacks into `k`
//! channels, guaranteeing feasibility for any channel count.

use crate::data_tree;
use crate::schedule::{greedy_schedule_from_order, Schedule};
use bcast_index_tree::{IndexTree, TreeBuilder};
use bcast_types::{NodeId, Weight};

/// A reduced tree plus everything needed to expand solutions back.
pub struct CombineResult {
    /// The reduced tree.
    pub reduced: IndexTree,
    /// Maps each reduced node to its original node.
    pub to_orig: Vec<NodeId>,
    /// Original index nodes that were combined, with their (original)
    /// children at combination time, pre-sorted heaviest-first by
    /// effective (post-combination) weight — the Lemma-3 canonical
    /// restoration order. Combination cascades, so children may themselves
    /// be combined super-nodes.
    expansion: Vec<Option<Vec<NodeId>>>,
}

impl CombineResult {
    /// Expands a reduced-tree node into its original broadcast fragment:
    /// the node itself, or (for a combined super-node) its index node
    /// followed — transitively — by its children heaviest-first.
    /// Convenience wrapper over [`CombineResult::expand_node_into`].
    pub fn expand_node(&self, reduced_node: NodeId) -> Vec<NodeId> {
        let mut stack = Vec::new();
        let mut out = Vec::new();
        self.expand_node_into(reduced_node, &mut stack, &mut out);
        out
    }

    /// Appends the expansion of `reduced_node` to `out`, driving the walk
    /// with the caller's reusable `stack` (the expansion lists are
    /// pre-sorted at combine time, so no per-node buffer or sort is
    /// needed here).
    pub fn expand_node_into(
        &self,
        reduced_node: NodeId,
        stack: &mut Vec<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        stack.clear();
        stack.push(self.to_orig[reduced_node.index()]);
        while let Some(orig) = stack.pop() {
            out.push(orig);
            if let Some(children) = &self.expansion[orig.index()] {
                stack.extend(children.iter().rev().copied());
            }
        }
    }
}

/// Repeatedly combines the deepest index node whose children are all data
/// nodes, until at most `max_nodes` nodes remain (or only the root is left
/// to combine — the root is never combined).
pub fn combine(tree: &IndexTree, max_nodes: usize) -> CombineResult {
    // Working copy over original ids.
    let n = tree.len();
    let mut is_data: Vec<bool> = (0..n)
        .map(|i| tree.is_data(NodeId::from_index(i)))
        .collect();
    let mut weight: Vec<Weight> = (0..n).map(|i| tree.weight(NodeId::from_index(i))).collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut expansion: Vec<Option<Vec<NodeId>>> = vec![None; n];
    let mut node_count = n;

    // Deepest-first worklist of combinable index nodes (max-heap on
    // (level, preorder rank)); combining a node can only make its parent
    // newly combinable, so the heap is maintained incrementally instead of
    // rescanning all n nodes per combination.
    let combinable =
        |id: NodeId, is_data: &[bool]| tree.children(id).iter().all(|&c| is_data[c.index()]);
    let mut heap: std::collections::BinaryHeap<(u32, u32, NodeId)> = (0..n)
        .map(NodeId::from_index)
        .filter(|&id| !is_data[id.index()] && id != tree.root() && combinable(id, &is_data))
        .map(|id| (tree.level(id), tree.preorder_rank(id), id))
        .collect();
    while node_count > max_nodes {
        // Pop until a still-valid candidate appears ("this is repeated":
        // already-combined super-nodes count as data children, so
        // combination cascades bottom-up; parents may be enqueued before
        // they are actually combinable and are re-checked here).
        let idx = loop {
            match heap.pop() {
                None => break None,
                Some((_, _, id))
                    if !is_data[id.index()] && id != tree.root() && combinable(id, &is_data) =>
                {
                    break Some(id)
                }
                Some(_) => continue,
            }
        };
        let Some(idx) = idx else { break };
        // Combine: children die, idx becomes a data super-node.
        let mut total = Weight::ZERO;
        let mut kids = Vec::new();
        for &c in tree.children(idx) {
            total += weight[c.index()];
            alive[c.index()] = false;
            kids.push(c);
        }
        node_count -= kids.len();
        is_data[idx.index()] = true;
        weight[idx.index()] = total;
        expansion[idx.index()] = Some(kids);
        if let Some(p) = tree.parent(idx) {
            if p != tree.root() && !is_data[p.index()] && combinable(p, &is_data) {
                heap.push((tree.level(p), tree.preorder_rank(p), p));
            }
        }
    }

    // Pre-sort every expansion list heaviest-first (effective weight, id
    // tie-break). A child's weight is frozen the moment it is combined
    // away, so sorting once here matches sorting at expansion time.
    for kids in expansion.iter_mut().flatten() {
        kids.sort_by(|&a, &b| weight[b.index()].cmp(&weight[a.index()]).then(a.cmp(&b)));
    }

    // Rebuild as an IndexTree over the alive nodes.
    let mut b = TreeBuilder::new();
    let mut to_orig: Vec<NodeId> = Vec::with_capacity(node_count);
    let mut new_id_of: Vec<Option<NodeId>> = vec![None; n];
    let root = b.root(tree.label(tree.root()));
    to_orig.push(tree.root());
    new_id_of[tree.root().index()] = Some(root);
    let mut stack: Vec<NodeId> = tree.children(tree.root()).iter().rev().copied().collect();
    while let Some(orig) = stack.pop() {
        if !alive[orig.index()] {
            continue;
        }
        let parent_new = new_id_of[tree.parent(orig).expect("non-root").index()]
            .expect("parents visited before children in preorder");
        let new = if is_data[orig.index()] {
            b.add_data(parent_new, weight[orig.index()], tree.label(orig))
                .expect("valid parent")
        } else {
            b.add_index(parent_new, tree.label(orig))
                .expect("valid parent")
        };
        new_id_of[orig.index()] = Some(new);
        to_orig.push(orig);
        if expansion[orig.index()].is_none() {
            for &c in tree.children(orig).iter().rev() {
                stack.push(c);
            }
        }
    }
    let reduced = b.build().expect("combination preserves validity");
    debug_assert_eq!(reduced.len(), to_orig.len());
    CombineResult {
        reduced,
        to_orig,
        expansion,
    }
}

/// Result of a shrink-based heuristic run.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// Feasible k-channel schedule on the *original* tree.
    pub schedule: Schedule,
    /// Its average data wait.
    pub data_wait: f64,
    /// Node count of the reduced instance actually searched.
    pub reduced_nodes: usize,
}

/// The combine heuristic's linear broadcast order (shrink to `max_nodes`,
/// solve the reduced instance exactly, expand), appended into `out`
/// (cleared first). Returns the reduced instance's node count. Splitting
/// this out of [`combine_solve`] lets the fused publish path pack the
/// order straight into a [`bcast_channel::SlotPlan`] without the
/// intermediate `Schedule`.
pub fn combine_order_into(tree: &IndexTree, max_nodes: usize, out: &mut Vec<NodeId>) -> usize {
    let combined = combine(tree, max_nodes);
    let reduced_order = solve_sequence(&combined.reduced);
    out.clear();
    out.reserve(tree.len());
    let mut stack = Vec::new();
    for rn in reduced_order {
        combined.expand_node_into(rn, &mut stack, out);
    }
    combined.reduced.len()
}

/// Node-combination heuristic: shrink to `max_nodes`, solve the reduced
/// instance exactly (1-channel data-tree search), expand, and repack into
/// `k` channels.
pub fn combine_solve(tree: &IndexTree, k: usize, max_nodes: usize) -> ShrinkResult {
    assert!(k >= 1, "need at least one channel");
    let mut order: Vec<NodeId> = Vec::new();
    let reduced_nodes = combine_order_into(tree, max_nodes, &mut order);
    let schedule = greedy_schedule_from_order(&order, tree, k);
    let data_wait = schedule.average_data_wait(tree);
    ShrinkResult {
        schedule,
        data_wait,
        reduced_nodes,
    }
}

/// One root subtree's contribution to [`partition_solve`]: its merge
/// density, its expanded broadcast order (original-tree ids), and the
/// reduced node count actually searched. `copy_stack` and `expand_stack`
/// are reusable worklists, so solving many subtrees allocates no fresh
/// stack per partition.
fn solve_partition(
    tree: &IndexTree,
    sub_root: NodeId,
    max_sub_nodes: usize,
    copy_stack: &mut Vec<(NodeId, NodeId)>,
    expand_stack: &mut Vec<NodeId>,
) -> (f64, Vec<NodeId>, usize) {
    if tree.is_data(sub_root) {
        return (tree.weight(sub_root).get(), vec![sub_root], 1);
    }
    let (sub, to_orig) = copy_subtree(tree, sub_root, copy_stack);
    let combined = combine(&sub, max_sub_nodes);
    let reduced_order = solve_sequence(&combined.reduced);
    let mut order: Vec<NodeId> = Vec::with_capacity(sub.len());
    for rn in reduced_order {
        // Expand within the subtree, then map to the original tree.
        let before = order.len();
        combined.expand_node_into(rn, expand_stack, &mut order);
        for n in &mut order[before..] {
            *n = to_orig[n.index()];
        }
    }
    let density = tree.subtree_weight(sub_root).get() / tree.subtree_size(sub_root) as f64;
    (density, order, combined.reduced.len())
}

/// Tree-partitioning heuristic: solve each root subtree independently
/// (shrinking any subtree above `max_sub_nodes` first), merge subtree
/// broadcasts in descending weight-density order, repack into `k`
/// channels.
pub fn partition_solve(tree: &IndexTree, k: usize, max_sub_nodes: usize) -> ShrinkResult {
    assert!(k >= 1, "need at least one channel");
    let kids = tree.children(tree.root());
    let mut copy_stack = Vec::new();
    let mut expand_stack = Vec::new();
    let mut max_reduced = 1usize;
    let mut parts: Vec<(f64, Vec<NodeId>)> = Vec::with_capacity(kids.len());
    for &c in kids {
        let (density, order, reduced) =
            solve_partition(tree, c, max_sub_nodes, &mut copy_stack, &mut expand_stack);
        max_reduced = max_reduced.max(reduced);
        parts.push((density, order));
    }
    // Heaviest density first (Lemma-6 merge rule); stable tie-break by
    // first node id for determinism.
    parts.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| a.1.first().cmp(&b.1.first()))
    });
    let mut order = vec![tree.root()];
    for (_, part) in parts {
        order.extend(part);
    }
    let schedule = greedy_schedule_from_order(&order, tree, k);
    let data_wait = schedule.average_data_wait(tree);
    ShrinkResult {
        schedule,
        data_wait,
        reduced_nodes: max_reduced,
    }
}

/// Exact 1-channel sequence for a (small) tree via the data-tree search.
fn solve_sequence(tree: &IndexTree) -> Vec<NodeId> {
    let result = data_tree::search_optimal(tree);
    result.schedule.slots().iter().map(|m| m[0]).collect()
}

/// Deep-copies the subtree rooted at `sub_root` (an index node) into a
/// standalone tree; returns it with a new-id → original-id map. `stack` is
/// the caller's reusable worklist.
fn copy_subtree(
    tree: &IndexTree,
    sub_root: NodeId,
    stack: &mut Vec<(NodeId, NodeId)>,
) -> (IndexTree, Vec<NodeId>) {
    debug_assert!(tree.is_index(sub_root));
    let mut b = TreeBuilder::new();
    let mut to_orig = Vec::new();
    let root = b.root(tree.label(sub_root));
    debug_assert_eq!(root, NodeId::ROOT);
    to_orig.push(sub_root);
    // (original node, new parent)
    stack.clear();
    stack.extend(tree.children(sub_root).iter().rev().map(|&c| (c, root)));
    while let Some((orig, parent_new)) = stack.pop() {
        let new = if tree.is_data(orig) {
            b.add_data(parent_new, tree.weight(orig), tree.label(orig))
                .expect("valid parent")
        } else {
            b.add_index(parent_new, tree.label(orig))
                .expect("valid parent")
        };
        debug_assert_eq!(new.index(), to_orig.len());
        to_orig.push(orig);
        for &c in tree.children(orig).iter().rev() {
            stack.push((c, new));
        }
    }
    (b.build().expect("subtree copy is valid"), to_orig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo_tree;
    use bcast_index_tree::builders;
    use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};
    use proptest::prelude::*;

    #[test]
    fn combine_paper_example_once() {
        // Node 4 (children C, D — all data, deepest) combines first into a
        // super-node of weight 22; then node 2 (A, B) into weight 30.
        let t = builders::paper_example();
        let c = combine(&t, 7);
        assert_eq!(c.reduced.len(), 7);
        let n4 = c.reduced.find_by_label("4").unwrap();
        assert!(c.reduced.is_data(n4));
        assert_eq!(c.reduced.weight(n4).get(), 22.0);
        c.reduced.check_invariants().unwrap();
        // Expansion restores 4, C, D in weight order.
        let expanded = c.expand_node(n4);
        let labels: Vec<String> = expanded.iter().map(|&n| t.label(n)).collect();
        assert_eq!(labels, vec!["4", "C", "D"]);
    }

    #[test]
    fn combine_to_minimum_keeps_root() {
        let t = builders::paper_example();
        let c = combine(&t, 1);
        // Root can never combine, so the fixpoint is root + its (super)
        // children: 1, 2*, 3* → but 3 has a super-node child, so 3 combines
        // too once 4 is a super-node: final = {1, 2*, 3*} = 3 nodes.
        assert!(c.reduced.len() <= 3);
        c.reduced.check_invariants().unwrap();
        assert_eq!(c.reduced.total_weight().get(), 70.0);
    }

    #[test]
    fn combine_solve_is_feasible_and_reasonable() {
        let t = builders::paper_example();
        for k in 1..=3usize {
            let exact = topo_tree::solve_exhaustive(&t, k);
            let r = combine_solve(&t, k, 7);
            r.schedule.into_allocation(&t, k).unwrap();
            assert!(r.data_wait >= exact.data_wait - 1e-9);
            assert!(
                r.data_wait <= exact.data_wait * 1.25,
                "k={k}: heuristic {} vs optimal {}",
                r.data_wait,
                exact.data_wait
            );
        }
    }

    #[test]
    fn partition_solve_is_feasible_and_reasonable() {
        let t = builders::paper_example();
        for k in 1..=3usize {
            let exact = topo_tree::solve_exhaustive(&t, k);
            let r = partition_solve(&t, k, 64);
            r.schedule.into_allocation(&t, k).unwrap();
            assert!(r.data_wait >= exact.data_wait - 1e-9);
            assert!(
                r.data_wait <= exact.data_wait * 1.25,
                "k={k}: heuristic {} vs optimal {}",
                r.data_wait,
                exact.data_wait
            );
        }
    }

    #[test]
    fn scales_to_large_trees() {
        let cfg = RandomTreeConfig {
            data_nodes: 2_000,
            max_fanout: 5,
            weights: FrequencyDist::Zipf {
                theta: 1.0,
                scale: 500.0,
            },
        };
        let t = random_tree(&cfg, 3);
        let r = combine_solve(&t, 3, 12);
        r.schedule.into_allocation(&t, 3).unwrap();
        assert_eq!(r.schedule.node_count(), t.len());
        assert!(r.reduced_nodes <= 12 + 4, "reduced to {}", r.reduced_nodes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn both_heuristics_always_feasible(
            n in 1usize..30,
            k in 1usize..5,
            seed in 0u64..500,
        ) {
            let cfg = RandomTreeConfig {
                data_nodes: n,
                max_fanout: 4,
                weights: FrequencyDist::Uniform { lo: 1.0, hi: 40.0 },
            };
            let t = random_tree(&cfg, seed);
            let a = combine_solve(&t, k, 10);
            a.schedule.into_allocation(&t, k).unwrap();
            let b = partition_solve(&t, k, 10);
            b.schedule.into_allocation(&t, k).unwrap();
        }
    }
}
