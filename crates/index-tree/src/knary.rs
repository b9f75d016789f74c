//! k-nary alphabetic search trees — the \[SV96\] extension the paper adopts.
//!
//! \[SV96\] extends the alphabetic (Hu–Tucker) tree "to k-nary search trees
//! ... such that by adjusting the fanout of the tree, a tree node can fit in
//! a wireless packet of any size". Two constructions are provided:
//!
//! * [`build_alphabetic_knary`] — the *exact* optimal alphabetic k-ary tree
//!   via interval dynamic programming (O(n³·k) time, O(n²·k) space): for
//!   every key interval and every child budget, the best split into
//!   consecutive sub-intervals is memoized. Use for the modest tree sizes
//!   where exact allocation search is feasible anyway.
//! * [`build_weight_balanced`] — a fast O(n log n)-ish approximation that
//!   recursively splits the key range into `k` contiguous groups of
//!   near-equal total weight. Use for the large-tree heuristic benchmarks.

use crate::builder::TreeBuilder;
use crate::hu_tucker::AlphabeticError;
use crate::tree::IndexTree;
use bcast_types::Weight;

/// Builds the cost-optimal alphabetic k-ary tree over `weights` (key order).
///
/// Minimizes `Σ wᵢ·depth(i)` over all leaf-oriented trees whose internal
/// fanout is at most `fanout` and whose leaves appear in key order.
///
/// # Errors
/// Returns [`AlphabeticError::Empty`] for an empty weight list.
///
/// # Panics
/// Panics if `fanout < 2`.
pub fn build_alphabetic_knary(
    weights: &[Weight],
    fanout: usize,
) -> Result<IndexTree, AlphabeticError> {
    assert!(fanout >= 2, "fanout must be >= 2");
    let fanout = fanout.min(weights.len().max(2)).min(u16::MAX as usize);
    let n = weights.len();
    if n == 0 {
        return Err(AlphabeticError::Empty);
    }

    let mut b = TreeBuilder::new();
    let root = b.root("1");
    if n == 1 {
        b.add_data(root, weights[0], "D0").expect("valid");
        return Ok(b.build().expect("valid tree"));
    }

    let dp = KnaryDp::solve(weights, fanout);
    let mut counter = 1usize;
    // Emit the root's children, then recurse on multi-leaf parts.
    let mut stack = vec![(root, 0usize, n - 1)];
    while let Some((parent, i, j)) = stack.pop() {
        // Children of `parent` cover leaves i..=j; split per the DP table.
        let parts = dp.best_split(i, j);
        // Attach in order; push multi-leaf parts for later expansion with
        // fresh index nodes.
        for (pi, pj) in parts {
            if pi == pj {
                b.add_data(parent, weights[pi], format!("D{pi}"))
                    .expect("valid");
            } else {
                counter += 1;
                let id = b.add_index(parent, counter.to_string()).expect("valid");
                stack.push((id, pi, pj));
            }
        }
    }
    // `stack.pop()` order makes sibling *expansion* order irregular, but
    // attachment order (the loop above) is always left-to-right, so key
    // order is preserved. Re-sort expansion by re-walking is unnecessary.
    Ok(b.build().expect("DP construction is valid"))
}

/// Interval DP table for the optimal alphabetic k-ary tree.
struct KnaryDp {
    n: usize,
    fanout: usize,
    prefix: Vec<f64>,
    /// `best[i][j]`: optimal subtree cost over leaves `i..=j` (the subtree's
    /// root sits at depth 0; each level below adds `W(i,j)`).
    best: Vec<f64>,
    /// `cut[i][j][t]`: last split point `m` when covering `i..=j` with
    /// exactly `t+1` parts (flattened).
    cut: Vec<u32>,
    /// `best_t[i][j]`: child count achieving `best[i][j]`.
    best_t: Vec<u16>,
}

impl KnaryDp {
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.n + j
    }

    fn cut_idx(&self, i: usize, j: usize, t: usize) -> usize {
        (i * self.n + j) * self.fanout + t
    }

    /// Cost of making leaves `i..=j` a child of some node: free for a single
    /// leaf, `best` for a subtree.
    fn part_cost(&self, i: usize, j: usize) -> f64 {
        if i == j {
            0.0
        } else {
            self.best[self.idx(i, j)]
        }
    }

    fn weight(&self, i: usize, j: usize) -> f64 {
        self.prefix[j + 1] - self.prefix[i]
    }

    fn solve(weights: &[Weight], fanout: usize) -> KnaryDp {
        let n = weights.len();
        let mut prefix = vec![0.0f64; n + 1];
        for (i, w) in weights.iter().enumerate() {
            prefix[i + 1] = prefix[i] + w.get();
        }
        let mut dp = KnaryDp {
            n,
            fanout,
            prefix,
            best: vec![f64::INFINITY; n * n],
            cut: vec![u32::MAX; n * n * fanout],
            best_t: vec![0u16; n * n],
        };

        // `split[t]` is computed per interval: min cost of covering i..=j
        // with exactly t parts. split[1](i,j) = part_cost(i,j); for t>1,
        // split[t](i,j) = min_m split[t-1](i,m) + part_cost(m+1, j).
        // We interleave: intervals by increasing length; `best` for length L
        // depends on `split` of strictly shorter intervals only (every part
        // of a >=2-way split is shorter), so the order is well-founded.
        let mut split = vec![f64::INFINITY; n * n * fanout];
        for i in 0..n {
            // Length-1 intervals: a single leaf as one part costs 0.
            split[(i * n + i) * fanout] = 0.0;
        }
        for len in 2..=n {
            for i in 0..=n - len {
                let j = i + len - 1;
                // t = 1 part (only meaningful inside larger splits).
                // part_cost(i,j) uses best[i][j] which we are about to set;
                // so compute t >= 2 first from shorter intervals, derive
                // best, then backfill split[..][1].
                let mut overall = f64::INFINITY;
                let mut overall_t = 0u16;
                for t in 2..=fanout.min(len) {
                    let mut bt = f64::INFINITY;
                    let mut bm = u32::MAX;
                    // Last part is m+1..=j; previous t-1 parts cover i..=m.
                    for m in i + t.saturating_sub(2)..j {
                        let left = split[(i * n + m) * fanout + (t - 2)];
                        let right = dp.part_cost(m + 1, j);
                        let c = left + right;
                        if c < bt {
                            bt = c;
                            bm = m as u32;
                        }
                    }
                    split[(i * n + j) * fanout + (t - 1)] = bt;
                    let ci = dp.cut_idx(i, j, t - 1);
                    dp.cut[ci] = bm;
                    if bt < overall {
                        overall = bt;
                        overall_t = u16::try_from(t).expect("fanout bounded below");
                    }
                }
                let id = dp.idx(i, j);
                dp.best[id] = overall + dp.weight(i, j);
                dp.best_t[id] = overall_t;
                split[id * fanout] = dp.best[id];
            }
        }
        dp
    }

    /// Recovers the chosen parts `(i..=m1, m1+1..=m2, ...)` of interval
    /// `i..=j` at the root of its subtree.
    fn best_split(&self, i: usize, j: usize) -> Vec<(usize, usize)> {
        debug_assert!(i < j);
        let t = usize::from(self.best_t[self.idx(i, j)]);
        debug_assert!(t >= 2, "multi-leaf interval must record a split");
        self.unroll(i, j, t)
    }

    /// Unrolls the stored cut points for a `t`-way split of `i..=j`.
    fn unroll(&self, i: usize, j: usize, t: usize) -> Vec<(usize, usize)> {
        let mut parts = Vec::with_capacity(t);
        let mut hi = j;
        let mut tt = t;
        while tt > 1 {
            let m = self.cut[self.cut_idx(i, hi, tt - 1)] as usize;
            parts.push((m + 1, hi));
            hi = m;
            tt -= 1;
        }
        parts.push((i, hi));
        parts.reverse();
        parts
    }
}

/// Fast approximate alphabetic k-ary tree: recursively split the key range
/// into up to `fanout` contiguous groups of near-equal total weight.
///
/// Runs in O(n·depth) after an O(n) prefix-sum pass and handles trees with
/// hundreds of thousands of items; quality is within a few percent of the
/// DP optimum on realistic skews (see the crate benches).
///
/// # Errors
/// Returns [`AlphabeticError::Empty`] for an empty weight list.
///
/// # Panics
/// Panics if `fanout < 2`.
pub fn build_weight_balanced(
    weights: &[Weight],
    fanout: usize,
) -> Result<IndexTree, AlphabeticError> {
    build_weight_balanced_impl(weights, fanout, true)
}

/// [`build_weight_balanced`] without node labels, for rebuild loops.
///
/// The tree is structurally **identical** to the labeled variant (same
/// splits, same node ids, same weights, bit for bit) but skips the
/// per-node `format!` label, so the build makes the same few heap
/// allocations at any size. Use wherever nobody reads
/// [`IndexTree::label`] (labels fall back to the debug node id).
///
/// # Errors
/// Returns [`AlphabeticError::Empty`] for an empty weight list.
///
/// # Panics
/// Panics if `fanout < 2`.
pub fn build_weight_balanced_unlabeled(
    weights: &[Weight],
    fanout: usize,
) -> Result<IndexTree, AlphabeticError> {
    build_weight_balanced_impl(weights, fanout, false)
}

fn build_weight_balanced_impl(
    weights: &[Weight],
    fanout: usize,
    labeled: bool,
) -> Result<IndexTree, AlphabeticError> {
    assert!(fanout >= 2, "fanout must be >= 2");
    if weights.is_empty() {
        return Err(AlphabeticError::Empty);
    }
    let mut prefix = vec![0.0f64; weights.len() + 1];
    for (i, w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w.get();
    }

    // Every index node gets at least two children, so the tree has fewer
    // than 2n nodes: reserving that keeps the columns reallocation-free.
    let mut b = TreeBuilder::with_capacity(2 * weights.len());
    let root = b.root("1");
    let mut counter = 1usize;
    let add_data = |b: &mut TreeBuilder, parent, i: usize| {
        if labeled {
            b.add_data(parent, weights[i], format!("D{i}"))
        } else {
            b.add_data_unlabeled(parent, weights[i])
        }
        .expect("valid");
    };
    // Pending multi-leaf intervals: at most `fanout - 1` per level of the
    // current path plus the children just attached, and, being disjoint
    // intervals of two or more items, never more than n/2 + 1. So the
    // reservation covers every tree up to 64 levels deep.
    let mut stack = Vec::with_capacity(fanout.saturating_mul(64).min(weights.len() / 2 + 1));
    stack.push((root, 0usize, weights.len() - 1));
    while let Some((parent, i, j)) = stack.pop() {
        if i == j {
            add_data(&mut b, parent, i);
            continue;
        }
        let len = j - i + 1;
        let parts = fanout.min(len);
        let total = prefix[j + 1] - prefix[i];
        let share = total / parts as f64;
        // Greedy cut: close each group once it reaches its fair share,
        // always leaving enough items for the remaining groups. Groups are
        // attached left to right as they close.
        let mut lo = i;
        for g in 0..parts {
            let remaining_groups = parts - g - 1;
            let max_hi = j - remaining_groups;
            let mut hi = lo;
            if g + 1 < parts {
                let group_target = prefix[lo] + share.max(f64::MIN_POSITIVE);
                while hi < max_hi && prefix[hi + 1] < group_target {
                    hi += 1;
                }
            } else {
                hi = j;
            }
            if lo == hi {
                add_data(&mut b, parent, lo);
            } else {
                counter += 1;
                let id = if labeled {
                    b.add_index(parent, counter.to_string())
                } else {
                    b.add_index_unlabeled(parent)
                }
                .expect("valid");
                stack.push((id, lo, hi));
            }
            lo = hi + 1;
        }
    }
    Ok(b.build().expect("weight-balanced construction is valid"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hu_tucker;
    use bcast_types::NodeId;
    use proptest::prelude::*;

    fn w(v: &[u32]) -> Vec<Weight> {
        v.iter().map(|&x| Weight::from(x)).collect()
    }

    /// Leaf labels in in-order must be key order.
    fn assert_alphabetic(t: &IndexTree, n: usize) {
        fn inorder(t: &IndexTree, id: bcast_types::NodeId, out: &mut Vec<usize>) {
            if t.is_data(id) {
                let label = t.label(id);
                out.push(label[1..].parse().unwrap());
            }
            for &c in t.children(id) {
                inorder(t, c, out);
            }
        }
        let mut order = Vec::new();
        inorder(t, t.root(), &mut order);
        assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    fn wpl_below_root(t: &IndexTree) -> f64 {
        t.data_nodes()
            .iter()
            .map(|&d| t.weight(d) * u64::from(t.level(d) - 1))
            .sum()
    }

    #[test]
    fn binary_dp_matches_hu_tucker() {
        for case in [
            vec![1u32, 2, 3, 4, 5],
            vec![30, 1, 1, 30],
            vec![7, 7, 7, 7, 7, 7],
        ] {
            let weights = w(&case);
            let t = build_alphabetic_knary(&weights, 2).unwrap();
            assert_alphabetic(&t, case.len());
            assert_eq!(
                wpl_below_root(&t),
                hu_tucker::alphabetic_cost_dp(&weights),
                "case {case:?}"
            );
        }
    }

    #[test]
    fn wider_fanout_never_hurts() {
        let weights = w(&[12, 5, 8, 20, 3, 9, 14, 2, 7, 11]);
        let mut prev = f64::INFINITY;
        for k in 2..=6 {
            let t = build_alphabetic_knary(&weights, k).unwrap();
            let cost = wpl_below_root(&t);
            assert!(cost <= prev + 1e-9, "fanout {k} worsened cost");
            prev = cost;
        }
    }

    #[test]
    fn flat_tree_when_fanout_covers_all() {
        let weights = w(&[1, 2, 3]);
        let t = build_alphabetic_knary(&weights, 4).unwrap();
        // All three leaves directly under the root.
        assert_eq!(t.num_index_nodes(), 1);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn single_item_both_builders() {
        assert_eq!(build_alphabetic_knary(&w(&[4]), 3).unwrap().len(), 2);
        assert_eq!(build_weight_balanced(&w(&[4]), 3).unwrap().len(), 2);
    }

    #[test]
    fn weight_balanced_handles_zero_weights() {
        let t = build_weight_balanced(&w(&[0, 0, 0, 0, 0]), 3).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.num_data_nodes(), 5);
    }

    #[test]
    fn unlabeled_variant_is_structurally_identical() {
        let weights: Vec<Weight> = (0..500u32)
            .map(|i| Weight::new(f64::from(i % 89) + 0.25).unwrap())
            .collect();
        for fanout in [2, 4, 7] {
            let labeled = build_weight_balanced(&weights, fanout).unwrap();
            let bare = build_weight_balanced_unlabeled(&weights, fanout).unwrap();
            bare.check_invariants().unwrap();
            assert_eq!(labeled.preorder(), bare.preorder());
            assert_eq!(labeled.level_table(), bare.level_table());
            assert_eq!(labeled.data_nodes(), bare.data_nodes());
            assert_eq!(labeled.subtree_size_table(), bare.subtree_size_table());
            for i in 0..labeled.len() {
                let id = NodeId::from_index(i);
                assert_eq!(
                    labeled.weight(id).get().to_bits(),
                    bare.weight(id).get().to_bits()
                );
                assert_eq!(
                    labeled.subtree_weight(id).get().to_bits(),
                    bare.subtree_weight(id).get().to_bits()
                );
                // Root keeps its "1" label (one string); everything else
                // stays bare.
                assert!(
                    i == 0 || bare.label(id) == format!("{id}"),
                    "node {i} label"
                );
            }
        }
    }

    #[test]
    fn weight_balanced_large_input() {
        let weights: Vec<Weight> = (0..10_000u32).map(|i| Weight::from(i % 97 + 1)).collect();
        let t = build_weight_balanced(&weights, 8).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.num_data_nodes(), 10_000);
        assert_alphabetic(&t, 10_000);
        for id in t.preorder() {
            assert!(t.children(*id).len() <= 8);
        }
    }

    proptest! {
        #[test]
        fn dp_tree_is_valid_alphabetic(
            ws in prop::collection::vec(1u32..50, 1..14),
            k in 2usize..5,
        ) {
            let weights = w(&ws);
            let t = build_alphabetic_knary(&weights, k).unwrap();
            t.check_invariants().unwrap();
            assert_alphabetic(&t, ws.len());
            for id in t.preorder() {
                prop_assert!(t.children(*id).len() <= k);
            }
        }

        #[test]
        fn dp_no_worse_than_weight_balanced(
            ws in prop::collection::vec(1u32..50, 2..14),
            k in 2usize..5,
        ) {
            let weights = w(&ws);
            let exact = build_alphabetic_knary(&weights, k).unwrap();
            let approx = build_weight_balanced(&weights, k).unwrap();
            prop_assert!(
                wpl_below_root(&exact) <= wpl_below_root(&approx) + 1e-9,
                "DP cost {} > balanced cost {}",
                wpl_below_root(&exact),
                wpl_below_root(&approx)
            );
        }
    }
}
