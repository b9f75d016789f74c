//! Heuristic 2: Index Tree Sorting.
//!
//! "For each node in the index tree, we sort its children from left to
//! right in descending order `>`", where for subtrees rooted at `A` and `B`
//! (with `N_A`, `N_B` nodes and data-weight sums `W_A`, `W_B`):
//!
//! ```text
//! A > B  ⇔  N_B · W_A ≥ N_A · W_B
//! ```
//!
//! i.e. descending *weight density* `W/N` — the same exchange criterion as
//! Lemma 6, applied to whole subtrees. The broadcast is then the preorder
//! traversal of the sorted tree (for one channel) or its
//! [`crate::heuristics::one_to_k`] distribution (for `k` channels), which
//! is the one order-to-schedule sweep,
//! [`greedy_pack_into`](crate::schedule::greedy_pack_into).
//! Sorting costs `O(N log m)` per the paper; the whole heuristic is
//! near-linear and handles trees far beyond the exact searches.
//!
//! ## Zero-allocation engine
//!
//! [`sorted_preorder_into`] is the million-node entry point: it sorts
//! child *index ranges* of the tree's flat CSR child table in place inside
//! a reusable [`SortScratch`] — no per-node `Vec` — and emits the preorder
//! into a caller-owned buffer. The pairwise cross-product rule is replaced
//! by one precomputed scalar key per node (the density `W/N`, bit-encoded
//! so `u64` order = descending density), which the two in-place sorters
//! share: comparison sort for ordinary fanouts, LSD radix for very wide
//! ones. [`density_rank_into`] sorts the same keys across *all* nodes
//! instead of within each child range — the frontier-greedy order
//! ([`crate::baselines::greedy_frontier`]).

use crate::schedule::{greedy_schedule_from_order, Schedule};
use bcast_index_tree::IndexTree;
use bcast_types::NodeId;

/// The paper's subtree comparator: returns `true` when `a` should precede
/// `b` (`a > b` in the paper's notation).
pub fn precedes(tree: &IndexTree, a: NodeId, b: NodeId) -> bool {
    let (na, wa) = (tree.subtree_size(a) as f64, tree.subtree_weight(a).get());
    let (nb, wb) = (tree.subtree_size(b) as f64, tree.subtree_weight(b).get());
    nb * wa >= na * wb
}

/// Ranges at least this wide take the LSD-radix path; narrower ones
/// use the in-place comparison sort on the same keys (identical order, so
/// the cutover is purely a performance knob).
const RADIX_MIN: usize = 64;

/// Reusable buffers for [`sorted_preorder_into`] and [`density_rank_into`].
/// Capacity survives across calls: a steady-state publisher re-sorting the
/// same tree performs no heap allocation.
#[derive(Debug, Default)]
pub struct SortScratch {
    /// Per-node sort key: descending subtree density encoded so plain
    /// ascending `u64` order gives the paper's `>` order. The delta
    /// republish lane (`crate::delta`) patches dirty entries in place.
    pub(crate) keys: Vec<u64>,
    /// Working copy of the tree's CSR child table whose per-parent ranges
    /// are sorted in place. Persistent across publishes: the delta lane
    /// re-sorts only the dirty parents' ranges.
    pub(crate) sorted: Vec<NodeId>,
    /// DFS emit stack.
    pub(crate) stack: Vec<NodeId>,
    /// Radix-scatter buffer for wide ranges.
    pub(crate) radix: Vec<NodeId>,
}

impl SortScratch {
    /// Empty scratch; the first call sizes the buffers to the tree.
    pub fn new() -> Self {
        SortScratch::default()
    }
}

/// Encodes a subtree's density `W/N` so ascending `u64` order means
/// *descending* density. Weights are non-negative and finite (never −0.0:
/// [`bcast_types::Weight::new`] stores it as +0.0) and `N ≥ 1`, so the
/// quotient is a non-negative finite `f64` other than −0.0, whose IEEE bit
/// pattern is monotone in the value; complementing the bits reverses the
/// order.
#[inline]
pub(crate) fn density_key(weight: f64, size: u32) -> u64 {
    !(weight / f64::from(size)).to_bits()
}

/// Fills `keys` with every node's density key.
fn fill_keys(tree: &IndexTree, keys: &mut Vec<u64>) {
    let weights = tree.subtree_weight_table();
    let sizes = tree.subtree_size_table();
    keys.clear();
    keys.extend(
        weights
            .iter()
            .zip(sizes)
            .map(|(w, &size)| density_key(w.get(), size)),
    );
}

/// Sorts one range in place by `(key, id)` — descending density,
/// ascending id tie-break. The range arrives in ascending id order (a CSR
/// child range, or all ids), so the stable radix path needs no explicit
/// tie-break digit.
pub(crate) fn sort_range(range: &mut [NodeId], keys: &[u64], tmp: &mut Vec<NodeId>) {
    if range.len() < RADIX_MIN {
        range.sort_unstable_by(|&a, &b| keys[a.index()].cmp(&keys[b.index()]).then(a.cmp(&b)));
        return;
    }
    // LSD radix over 8-bit digits, ping-ponging between `range` and `tmp`;
    // constant digits are skipped, so uniform high bytes cost one counting
    // pass each.
    let mut counts = [0usize; 256];
    tmp.clear();
    tmp.resize(range.len(), NodeId(0));
    let mut in_range = true;
    for shift in (0..64).step_by(8) {
        counts.fill(0);
        let src: &[NodeId] = if in_range { range } else { tmp };
        for &n in src {
            counts[((keys[n.index()] >> shift) & 0xFF) as usize] += 1;
        }
        if counts.contains(&range.len()) {
            continue;
        }
        let mut sum = 0usize;
        for c in counts.iter_mut() {
            let here = *c;
            *c = sum;
            sum += here;
        }
        if in_range {
            for &n in range.iter() {
                let d = ((keys[n.index()] >> shift) & 0xFF) as usize;
                tmp[counts[d]] = n;
                counts[d] += 1;
            }
        } else {
            for &n in tmp.iter() {
                let d = ((keys[n.index()] >> shift) & 0xFF) as usize;
                range[counts[d]] = n;
                counts[d] += 1;
            }
        }
        in_range = !in_range;
    }
    if !in_range {
        range.copy_from_slice(tmp);
    }
}

/// Preorder of the density-sorted tree, emitted into `out` (cleared first)
/// using `scratch`'s reusable buffers — the zero-allocation core of the
/// sorting heuristic (see the module docs).
pub fn sorted_preorder_into(tree: &IndexTree, scratch: &mut SortScratch, out: &mut Vec<NodeId>) {
    fill_keys(tree, &mut scratch.keys);

    // Sort each parent's child range in place. Re-copying from the tree's
    // CSR table restores the ascending-id order the radix tie-break relies
    // on (a reused scratch still holds last call's order).
    scratch.sorted.clear();
    scratch.sorted.extend_from_slice(tree.flat_children());
    let starts = tree.child_starts();
    for p in 0..tree.len() {
        let range = starts[p] as usize..starts[p + 1] as usize;
        if range.len() > 1 {
            sort_range(
                &mut scratch.sorted[range],
                &scratch.keys,
                &mut scratch.radix,
            );
        }
    }

    // Preorder emit over the sorted ranges.
    out.clear();
    out.reserve(tree.len());
    scratch.stack.clear();
    scratch.stack.push(tree.root());
    while let Some(node) = scratch.stack.pop() {
        out.push(node);
        for &c in scratch.sorted[tree.child_range(node)].iter().rev() {
            scratch.stack.push(c);
        }
    }
    debug_assert_eq!(out.len(), tree.len());
}

/// Preorder traversal of the tree with every node's children visited in
/// sorted (descending-density) order. For a single channel, this sequence
/// *is* the broadcast. Convenience wrapper over [`sorted_preorder_into`]
/// with one-shot buffers; allocation-sensitive callers hold a
/// [`SortScratch`] and call the `_into` form directly.
pub fn sorted_preorder(tree: &IndexTree) -> Vec<NodeId> {
    let mut out = Vec::new();
    sorted_preorder_into(tree, &mut SortScratch::new(), &mut out);
    out
}

/// Every node ranked by the same density key the sorted preorder uses —
/// descending `W/N` (a data node's own weight), ascending id on ties —
/// across the whole tree rather than within each child range, emitted
/// into `out` (cleared first). Fed to the sweep, it is the
/// frontier-greedy schedule: a node's priority never changes, so taking
/// the `k` highest-priority awake nodes per slot is taking the `k`
/// earliest-ranked ones.
pub fn density_rank_into(tree: &IndexTree, scratch: &mut SortScratch, out: &mut Vec<NodeId>) {
    fill_keys(tree, &mut scratch.keys);
    out.clear();
    out.extend((0..tree.len()).map(NodeId::from_index));
    sort_range(out, &scratch.keys, &mut scratch.radix);
}

/// The full sorting heuristic: the sorted preorder, distributed over `k`
/// channels by the `1_To_k_BroadcastChannel` procedure (`k = 1` returns
/// the sequence itself).
///
/// ```
/// use bcast_core::heuristics::sorting;
/// use bcast_index_tree::builders;
///
/// let tree = builders::paper_example();
/// let schedule = sorting::sorting_schedule(&tree, 2);
/// // Feasible for 2 channels, near the optimum of 264/70:
/// schedule.into_allocation(&tree, 2).unwrap();
/// assert!((schedule.average_data_wait(&tree) - 272.0 / 70.0).abs() < 1e-9);
/// ```
pub fn sorting_schedule(tree: &IndexTree, k: usize) -> Schedule {
    greedy_schedule_from_order(&sorted_preorder(tree), tree, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo_tree;
    use bcast_index_tree::builders;
    use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};
    use proptest::prelude::*;

    #[test]
    fn fig13_sorted_preorder() {
        // The paper sorts Fig. 1(a) into the broadcast 1 2 A B 3 E 4 C D.
        let t = builders::paper_example();
        let labels: Vec<String> = sorted_preorder(&t).iter().map(|&n| t.label(n)).collect();
        assert_eq!(labels, vec!["1", "2", "A", "B", "3", "E", "4", "C", "D"]);
    }

    #[test]
    fn fig13_comparator_pairs() {
        // Paper: "we sort the pairs of the nodes 23, AB, 4E and CD".
        let t = builders::paper_example();
        let id = |l: &str| t.find_by_label(l).unwrap();
        assert!(precedes(&t, id("2"), id("3"))); // 5·30 ≥ 3·40
        assert!(precedes(&t, id("A"), id("B")));
        assert!(precedes(&t, id("E"), id("4"))); // 3·18 ≥ 1·22
        assert!(precedes(&t, id("C"), id("D")));
    }

    #[test]
    fn density_key_orders_like_the_comparator() {
        // Distinct densities: the scalar key must agree with `precedes`.
        let t = builders::paper_example();
        for &a in t.preorder() {
            for &b in t.preorder() {
                let ka = density_key(t.subtree_weight(a).get(), t.subtree_size(a));
                let kb = density_key(t.subtree_weight(b).get(), t.subtree_size(b));
                if ka < kb {
                    assert!(
                        precedes(&t, a, b),
                        "{} should precede {}",
                        t.label(a),
                        t.label(b)
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch across trees, alternating the two orders it serves:
        // stale keys, ranges or radix capacity must never leak.
        let cfg = RandomTreeConfig {
            data_nodes: 5_000,
            max_fanout: 150, // wide fanouts exercise the radix path
            weights: FrequencyDist::Zipf {
                theta: 0.8,
                scale: 300.0,
            },
        };
        let mut scratch = SortScratch::new();
        let mut out = Vec::new();
        for seed in 0..3u64 {
            let t = random_tree(&cfg, seed);
            sorted_preorder_into(&t, &mut scratch, &mut out);
            assert_eq!(out, sorted_preorder(&t), "seed {seed}: sorted preorder");
            density_rank_into(&t, &mut scratch, &mut out);
            let mut fresh = Vec::new();
            density_rank_into(&t, &mut SortScratch::new(), &mut fresh);
            assert_eq!(out, fresh, "seed {seed}: density rank");
        }
    }

    #[test]
    fn negative_zero_weight_sorts_as_zero() {
        // `precedes` reads −0.0 as 0, so A (weight −0) must sort last, as
        // it does with weight 0 — not first as the densest child.
        for zero in [-0.0, 0.0] {
            let mut b = bcast_index_tree::TreeBuilder::new();
            let root = b.root("1");
            for (label, w) in [("A", zero), ("B", 5.0), ("C", 3.0)] {
                b.add_data(root, bcast_types::Weight::new(w).unwrap(), label)
                    .unwrap();
            }
            let t = b.build().unwrap();
            let labels: Vec<String> = sorted_preorder(&t).iter().map(|&n| t.label(n)).collect();
            assert_eq!(labels, ["1", "B", "C", "A"], "weight {zero:?}");
            let s = sorting_schedule(&t, 1);
            assert!((s.average_data_wait(&t) - 2.375).abs() < 1e-12);
        }
    }

    #[test]
    fn radix_and_comparison_paths_agree() {
        // A star tree: one root with hundreds of children of equal and
        // distinct densities, far past RADIX_MIN.
        let cfg = RandomTreeConfig {
            data_nodes: 800,
            max_fanout: 500,
            weights: FrequencyDist::Uniform { lo: 0.0, hi: 5.0 }, // ties likely
        };
        let t = random_tree(&cfg, 11);
        let order = sorted_preorder(&t);
        // Every adjacent sibling pair in every sorted range obeys the key
        // order with id tie-break.
        let mut scratch = SortScratch::new();
        let mut out = Vec::new();
        sorted_preorder_into(&t, &mut scratch, &mut out);
        assert_eq!(order, out);
        for p in 0..t.len() {
            let r = t.child_range(bcast_types::NodeId::from_index(p));
            let range = &scratch.sorted[r];
            for w in range.windows(2) {
                let (ka, kb) = (
                    density_key(t.subtree_weight(w[0]).get(), t.subtree_size(w[0])),
                    density_key(t.subtree_weight(w[1]).get(), t.subtree_size(w[1])),
                );
                assert!((ka, w[0]) < (kb, w[1]), "range out of order");
            }
        }
    }

    #[test]
    fn one_channel_cost_close_to_optimal_on_paper_example() {
        let t = builders::paper_example();
        let s = sorting_schedule(&t, 1);
        let exact = topo_tree::solve_exhaustive(&t, 1);
        let wait = s.average_data_wait(&t);
        assert!(wait >= exact.data_wait - 1e-12);
        // On this small example the heuristic is within 10% of optimal.
        assert!(
            wait <= exact.data_wait * 1.10,
            "wait {wait} vs {}",
            exact.data_wait
        );
        s.into_allocation(&t, 1).unwrap();
    }

    #[test]
    fn two_channel_schedule_matches_fig2b_shape() {
        let t = builders::paper_example();
        let s = sorting_schedule(&t, 2);
        // 1 | 2 3 | A B | E 4 | C D per the procedure walk-through.
        assert_eq!(s.len(), 5);
        assert!((s.average_data_wait(&t) - 272.0 / 70.0).abs() < 1e-12);
        s.into_allocation(&t, 2).unwrap();
    }

    #[test]
    fn scales_to_large_trees() {
        let cfg = RandomTreeConfig {
            data_nodes: 20_000,
            max_fanout: 6,
            weights: FrequencyDist::Zipf {
                theta: 0.9,
                scale: 1000.0,
            },
        };
        let t = random_tree(&cfg, 7);
        let s = sorting_schedule(&t, 4);
        assert_eq!(s.node_count(), t.len());
        s.into_allocation(&t, 4).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn always_feasible_and_never_beats_optimal(
            n in 2usize..7,
            k in 1usize..4,
            seed in 0u64..500,
        ) {
            let cfg = RandomTreeConfig {
                data_nodes: n,
                max_fanout: 3,
                weights: FrequencyDist::Uniform { lo: 1.0, hi: 50.0 },
            };
            let t = random_tree(&cfg, seed);
            let s = sorting_schedule(&t, k);
            s.into_allocation(&t, k).unwrap();
            let exact = topo_tree::solve_exhaustive(&t, k);
            prop_assert!(s.average_data_wait(&t) >= exact.data_wait - 1e-9);
        }
    }
}
