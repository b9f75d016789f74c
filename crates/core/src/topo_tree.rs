//! Algorithm 1: the (unpruned) k-channel topological tree.
//!
//! Every feasible index-and-data allocation corresponds to a root-to-leaf
//! path of the topological tree: each tree node is a *compound node* — the
//! set of tree nodes transmitted in one slot. Expanding a leaf `P` collects
//! the candidate set `S` (nodes whose parents are all placed); if `|S| ≤ k`
//! the single child contains all of `S`, otherwise there is one child per
//! `k`-component subset of `S`.
//!
//! This module walks that tree exhaustively — exponential, but exact — and
//! is the ground truth the pruned searches are validated against.

use crate::avail::{for_each_combination, PathState, Subsets};
use crate::schedule::Schedule;
use bcast_index_tree::IndexTree;
use bcast_types::{bits, NodeId};

/// Depth-first traversal of every root-to-leaf path of the k-channel
/// topological tree. `visit` receives each complete path as its slot sets
/// (borrowed — wrap in [`Schedule::from_slots`] only if kept) plus its
/// unnormalized weighted wait; return `false` to stop early.
pub fn for_each_schedule(
    tree: &IndexTree,
    k: usize,
    mut visit: impl FnMut(&[Vec<NodeId>], f64) -> bool,
) {
    assert!(k >= 1, "need at least one channel");
    let mut slots: Vec<Vec<NodeId>> = Vec::new();
    let mut stop = false;
    dfs(
        tree,
        k,
        &PathState::initial(tree),
        &mut slots,
        &mut visit,
        &mut stop,
    );
}

fn dfs(
    tree: &IndexTree,
    k: usize,
    state: &PathState,
    slots: &mut Vec<Vec<NodeId>>,
    visit: &mut impl FnMut(&[Vec<NodeId>], f64) -> bool,
    stop: &mut bool,
) {
    if *stop {
        return;
    }
    if state.s.is_complete(tree) {
        if !visit(slots, state.s.weighted_wait) {
            *stop = true;
        }
        return;
    }
    let mut children = Subsets::default();
    compound_children(state.available(), k, &mut children);
    for members in children.iter() {
        let next = state.place(tree, members);
        slots.push(members.to_vec());
        dfs(tree, k, &next, slots, visit, stop);
        slots.pop();
        if *stop {
            return;
        }
    }
}

/// Writes the children of the topological-tree node whose candidate set
/// is `available` into `out`, per Algorithm 1 step 4: all of `S` if
/// `|S| ≤ k`, else every k-component subset of `S`.
pub fn compound_children(available: &[u64], k: usize, out: &mut Subsets) {
    let Subsets {
        width,
        ids,
        index: s,
        pick,
        ..
    } = out;
    ids.clear();
    s.clear();
    s.extend(bits::iter(available));
    if s.len() <= k {
        *width = s.len();
        ids.extend_from_slice(s);
        return;
    }
    *width = k;
    pick.clear();
    for_each_combination(s, k, 0, pick, &mut |subset| ids.extend_from_slice(subset));
}

/// Counts the root-to-leaf paths of the unpruned k-channel topological
/// tree (the full solution-space size the pruning percentages in Table 1
/// are measured against, for `k = 1` simply `|I ∪ D|` restricted
/// topological orders).
pub fn count_paths(tree: &IndexTree, k: usize) -> u128 {
    let mut count = 0u128;
    for_each_schedule(tree, k, |_, _| {
        count += 1;
        true
    });
    count
}

/// Result of an exact search.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    /// A minimum-cost schedule.
    pub schedule: Schedule,
    /// Its average data wait (formula 1).
    pub data_wait: f64,
    /// Paths enumerated.
    pub paths: u128,
}

/// Exhaustive optimal allocation by full enumeration of the topological
/// tree. Exponential; use only on small trees (ground truth for tests and
/// for the Fig. 14 "Optimal" series at `m ≤ 3`).
pub fn solve_exhaustive(tree: &IndexTree, k: usize) -> ExhaustiveResult {
    solve_exhaustive_limited(tree, k, None).expect("no limit set")
}

/// Like [`solve_exhaustive`], in the same single walk, aborting with
/// `Err(limit)` once more than `path_limit` paths have been enumerated.
pub fn solve_exhaustive_limited(
    tree: &IndexTree,
    k: usize,
    path_limit: Option<u64>,
) -> Result<ExhaustiveResult, u64> {
    let limit = path_limit.map_or(u128::MAX, u128::from);
    let mut best: Option<(Schedule, f64)> = None;
    let mut paths = 0u128;
    for_each_schedule(tree, k, |slots, wait| {
        paths += 1;
        if paths > limit {
            return false;
        }
        if best.as_ref().is_none_or(|(_, w)| wait < *w) {
            // Clone only on improvement, not per enumerated path.
            best = Some((Schedule::from_slots(slots.to_vec()), wait));
        }
        true
    });
    if paths > limit {
        return Err(path_limit.expect("only a finite limit can be exceeded"));
    }
    let (schedule, wait) = best.expect("non-empty tree has at least one schedule");
    let total = tree.total_weight().get();
    Ok(ExhaustiveResult {
        schedule,
        data_wait: if total == 0.0 { 0.0 } else { wait / total },
        paths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_index_tree::builders;
    use bcast_types::Weight;

    #[test]
    fn one_channel_paths_of_paper_example() {
        // The 1-channel topological tree of Fig. 6: its leaves are the
        // topological orders of the 9-node index tree. Verify against an
        // independent linear-extension count via the hook formula for
        // forests: n! / Π subtree_size(v).
        let t = builders::paper_example();
        let n_fact: f64 = (1..=9).map(|x| x as f64).product();
        let denom: f64 = t
            .preorder()
            .iter()
            .map(|&v| t.subtree_size(v) as f64)
            .product();
        let expected = (n_fact / denom).round() as u128;
        assert_eq!(count_paths(&t, 1), expected);
    }

    #[test]
    fn two_channel_optimum_of_paper_example() {
        // §1.1 / Fig. 2(b) shows a 3.88 allocation; the true optimum is
        // 264/70 ≈ 3.771 (schedule 1 | 2 3 | A E | B 4 | C D).
        let t = builders::paper_example();
        let r = solve_exhaustive(&t, 2);
        assert!(
            (r.data_wait - 264.0 / 70.0).abs() < 1e-12,
            "got {}",
            r.data_wait
        );
        r.schedule.into_allocation(&t, 2).unwrap();
    }

    #[test]
    fn one_channel_optimum_of_paper_example() {
        let t = builders::paper_example();
        let r = solve_exhaustive(&t, 1);
        // Optimal one-channel wait: verify the value is at most the Fig 2(a)
        // example (6.01) and reproducible.
        assert!(r.data_wait <= 421.0 / 70.0 + 1e-12);
        r.schedule.into_allocation(&t, 1).unwrap();
        // The optimum is stable across runs (deterministic enumeration).
        let r2 = solve_exhaustive(&t, 1);
        assert_eq!(r.data_wait, r2.data_wait);
    }

    #[test]
    fn wide_channels_allow_level_schedule() {
        let t = builders::paper_example();
        let r = solve_exhaustive(&t, 4);
        // Corollary 1: with k ≥ widest level (4), level-by-level is optimal:
        // slots 1|{2,3}|{A,B,E,4}|{C,D} ⇒ (20+10+18)·3 + (15+7)·4 = 232.
        assert!((r.data_wait - 232.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn chain_tree_has_single_path_per_channel_count() {
        // A chain index tree: every slot's candidate set is {next index,
        // previous data...}; with k large enough the path is forced.
        let w: Vec<Weight> = [5u32, 3].iter().map(|&x| Weight::from(x)).collect();
        let t = builders::chain(&w).unwrap();
        // I1 | {D1, I2} | {D2}: one path with k = 2.
        assert_eq!(count_paths(&t, 2), 1);
        // k = 1: I1 then orders of {D1, I2} then D2: I1 D1 I2 D2 or
        // I1 I2 D1 D2 or I1 I2 D2 D1 → 3 topological orders.
        assert_eq!(count_paths(&t, 1), 3);
    }

    #[test]
    fn subset_enumeration_counts() {
        // With |S| = 4 and k = 2 the expansion yields C(4,2) = 6 children
        // (paper Example 1: Neighbor_2(X) has six elements).
        let t = builders::paper_example();
        let s = PathState::initial(&t)
            .place(&t, &[t.find_by_label("1").unwrap()])
            .place(
                &t,
                &[t.find_by_label("2").unwrap(), t.find_by_label("3").unwrap()],
            );
        let mut out = Subsets::default();
        compound_children(s.available(), 2, &mut out);
        assert_eq!(out.iter().count(), 6);
        // |S| ≤ k: one child holding all of S.
        compound_children(s.available(), 4, &mut out);
        assert_eq!(out.iter().count(), 1);
        assert_eq!(out.iter().next().map(<[NodeId]>::len), Some(4));
    }
}
