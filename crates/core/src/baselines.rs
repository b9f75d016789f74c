//! Comparison baselines.
//!
//! * [`preorder_schedule`] — the naive broadcast: plain (unsorted) preorder
//!   packed greedily into `k` channels. What a system without the paper's
//!   machinery would do; isolates the gain of the *sorting* step.
//! * [`random_feasible`] — a uniformly drawn topological order, packed
//!   greedily. The "no policy at all" floor.
//! * [`sv96`] — the \[SV96\] allocation the paper's §1.1 argues against:
//!   every tree level broadcast cyclically on its own channel. Modeled
//!   analytically, since its cyclic per-level channels do not fit the
//!   single-cycle grid of [`bcast_channel`]: a client descending the tree
//!   waits an expected `(width(ℓ) + 1) / 2` slots at each level for the
//!   needed bucket to come around. Exposes exactly the two §1.1 drawbacks:
//!   the channel count is *forced* to the tree depth (inflexibility) and
//!   narrow levels idle their channel (waste).

use crate::heuristics::sorting::{density_rank_into, SortScratch};
use crate::schedule::{greedy_schedule_from_order, Schedule};
use bcast_index_tree::IndexTree;
use bcast_types::NodeId;

/// Plain preorder order packed into `k` channels.
pub fn preorder_schedule(tree: &IndexTree, k: usize) -> Schedule {
    greedy_schedule_from_order(tree.preorder(), tree, k)
}

/// A random feasible schedule: repeatedly transmit up to `k` uniformly
/// chosen available nodes per slot. Deterministic per `seed` (xorshift64*).
pub fn random_feasible(tree: &IndexTree, k: usize, seed: u64) -> Schedule {
    assert!(k >= 1, "need at least one channel");
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut placed = vec![false; tree.len()];
    let mut available: Vec<NodeId> = vec![tree.root()];
    let mut schedule = Schedule::new();
    while !available.is_empty() {
        let take = k.min(available.len());
        let mut members = Vec::with_capacity(take);
        for _ in 0..take {
            let i = (next() % available.len() as u64) as usize;
            members.push(available.swap_remove(i));
        }
        for &n in &members {
            placed[n.index()] = true;
        }
        // Children become available only for *later* slots, so extend after
        // the draw.
        for &n in &members {
            available.extend(tree.children(n).iter().copied());
        }
        schedule.push_slot(members);
    }
    schedule
}

/// Frontier-greedy scheduling — **our extension**, not in the paper.
///
/// At every slot, transmit the `k` *available* nodes (parents already
/// aired) with the highest static priority: a data node's access weight, or
/// an index node's subtree weight density `W/N` (airing it unlocks heavy
/// descendants). This interleaves subtrees instead of walking them
/// depth-first, which is exactly where the paper's preorder-based sorting
/// heuristic loses ground on large skewed workloads (see the A3 bench and
/// EXPERIMENTS.md): heavy items in later subtrees no longer wait for whole
/// earlier subtrees to finish.
///
/// O(n log n): priorities are static, so ranking every node once
/// ([`density_rank_into`], descending density, ascending id on ties) and
/// running the one order-to-schedule sweep on that rank gives the same
/// slots as re-selecting the best awake nodes at every slot. The sorting
/// heuristic feeds the same sweep the density-sorted *preorder* instead.
pub fn greedy_frontier(tree: &IndexTree, k: usize) -> Schedule {
    let mut rank = Vec::new();
    density_rank_into(tree, &mut SortScratch::new(), &mut rank);
    greedy_schedule_from_order(&rank, tree, k)
}

/// Analytic model of the \[SV96\] per-level cyclic allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sv96Model {
    /// Channels the scheme *requires* (= tree depth; §1.1 "lack of
    /// flexibility").
    pub channels_needed: usize,
    /// Expected access time in slots for a weighted-random request.
    pub expected_access_time: f64,
    /// Fraction of channel slots carrying a bucket if all channels run at
    /// the widest level's cycle length (§1.1 "waste of channel space").
    pub utilization: f64,
}

/// Evaluates the \[SV96\] scheme on `tree`.
///
/// Each level `ℓ` (1-based) cycles on its own channel with period
/// `width(ℓ)`; after reading a level-`ℓ` bucket the client hops to level
/// `ℓ+1` and waits on average `(width(ℓ+1) + 1) / 2` slots. A request for
/// data node `d` at level `L` therefore costs
/// `Σ_{ℓ=1..L} (width(ℓ) + 1) / 2` expected slots.
pub fn sv96(tree: &IndexTree) -> Sv96Model {
    let depth = tree.depth() as usize;
    let mut widths = vec![0usize; depth + 1];
    for &n in tree.preorder() {
        widths[tree.level(n) as usize] += 1;
    }
    // Prefix sums of per-level expected waits.
    let mut cum = vec![0.0f64; depth + 1];
    for l in 1..=depth {
        cum[l] = cum[l - 1] + (widths[l] as f64 + 1.0) / 2.0;
    }
    let tw = tree.total_weight().get();
    let expected_access_time = if tw == 0.0 {
        0.0
    } else {
        tree.data_nodes()
            .iter()
            .map(|&d| tree.weight(d).get() * cum[tree.level(d) as usize])
            .sum::<f64>()
            / tw
    };
    let max_width = *widths[1..].iter().max().unwrap_or(&1) as f64;
    let used: usize = widths[1..].iter().sum();
    Sv96Model {
        channels_needed: depth,
        expected_access_time,
        utilization: used as f64 / (depth as f64 * max_width),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{greedy_pack_into, PackScratch};
    use crate::topo_tree;
    use bcast_channel::SlotPlan;
    use bcast_index_tree::{builders, knary};
    use bcast_types::Weight;
    use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Max-heap priority for the frontier oracle: `(priority, Reverse(id))`
    /// — deterministic tie-break toward the lower node id.
    #[derive(Debug, PartialEq)]
    struct FrontierPriority(f64, Reverse<NodeId>);

    impl Eq for FrontierPriority {}

    impl PartialOrd for FrontierPriority {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for FrontierPriority {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0
                .total_cmp(&other.0)
                .then_with(|| self.1.cmp(&other.1))
        }
    }

    /// Frontier-greedy as first written, the oracle for the rank sweep:
    /// one binary heap over the awake nodes, popping the `k` of highest
    /// priority per slot, children joining only after their parent's slot.
    fn frontier_heap_oracle(tree: &IndexTree, k: usize) -> SlotPlan {
        let priority = |n: NodeId| -> f64 {
            if tree.is_data(n) {
                tree.weight(n).get()
            } else {
                tree.subtree_weight(n).get() / f64::from(tree.subtree_size(n))
            }
        };
        let mut heap = BinaryHeap::new();
        let mut plan = SlotPlan::new();
        let root = tree.root();
        heap.push((FrontierPriority(priority(root), Reverse(root)), root));
        while !heap.is_empty() {
            for _ in 0..k.min(heap.len()) {
                let (_, n) = heap.pop().expect("len checked");
                plan.push(n);
            }
            for &n in plan.open_members() {
                for &c in tree.children(n) {
                    heap.push((FrontierPriority(priority(c), Reverse(c)), c));
                }
            }
            plan.commit_slot();
        }
        plan
    }

    #[test]
    fn preorder_baseline_is_feasible_and_suboptimal_or_equal() {
        let t = builders::paper_example();
        for k in 1..=3usize {
            let s = preorder_schedule(&t, k);
            s.into_allocation(&t, k).unwrap();
            let exact = topo_tree::solve_exhaustive(&t, k);
            assert!(s.average_data_wait(&t) >= exact.data_wait - 1e-9);
        }
    }

    #[test]
    fn random_baseline_is_feasible_and_deterministic() {
        let cfg = RandomTreeConfig {
            data_nodes: 30,
            max_fanout: 4,
            weights: FrequencyDist::Uniform { lo: 1.0, hi: 9.0 },
        };
        let t = random_tree(&cfg, 1);
        let a = random_feasible(&t, 3, 42);
        let b = random_feasible(&t, 3, 42);
        assert_eq!(a, b);
        a.into_allocation(&t, 3).unwrap();
        let c = random_feasible(&t, 3, 43);
        c.into_allocation(&t, 3).unwrap();
    }

    #[test]
    fn greedy_frontier_is_feasible_and_beats_random_on_skew() {
        let cfg = RandomTreeConfig {
            data_nodes: 500,
            max_fanout: 8,
            weights: FrequencyDist::SelfSimilar {
                fraction: 0.2,
                total: 10_000.0,
            },
        };
        let t = random_tree(&cfg, 9);
        for k in [1usize, 4] {
            let g = greedy_frontier(&t, k);
            g.into_allocation(&t, k).unwrap();
        }
        let g = greedy_frontier(&t, 4).average_data_wait(&t);
        let r = random_feasible(&t, 4, 1).average_data_wait(&t);
        assert!(
            g < r,
            "frontier {g} should beat random {r} on skewed weights"
        );
    }

    #[test]
    fn greedy_frontier_optimal_when_corollary_applies() {
        // With k ≥ widest level the frontier policy degenerates to the
        // level schedule... not necessarily — but it must still be feasible
        // and match the optimum on the paper example with k = 4.
        let t = builders::paper_example();
        let g = greedy_frontier(&t, 4);
        g.into_allocation(&t, 4).unwrap();
        let exact = topo_tree::solve_exhaustive(&t, 4);
        assert!((g.average_data_wait(&t) - exact.data_wait).abs() < 1e-9);
    }

    #[test]
    fn frontier_and_sorting_differ_only_off_key_order() {
        // The service's shape: the boot tree (weight-balanced over uniform
        // weights, fanout 4) reweighted to Zipf(0.9) demand, on 3 channels.
        // With popularity in key order the density-sorted preorder already
        // is the global rank's schedule. Scattered across keys, the
        // preorder makes hot items wait behind whole cold subtrees; the
        // global rank does not.
        const ITEMS: usize = 4_096;
        const K: usize = 3;
        let mut tree =
            knary::build_weight_balanced_unlabeled(&vec![Weight::from(1u32); ITEMS], 4).unwrap();
        let zipf = FrequencyDist::Zipf {
            theta: 0.9,
            scale: 1_000.0,
        };
        let reweight = |tree: &mut IndexTree, weights: &[Weight]| {
            let updates: Vec<(NodeId, Weight)> = tree
                .data_nodes()
                .iter()
                .copied()
                .zip(weights.iter().copied())
                .collect();
            tree.reweight(&updates);
        };
        let access = |tree: &IndexTree, s: &Schedule| {
            bcast_channel::cost::expected_access_time(&s.into_allocation(tree, K).unwrap(), tree)
        };

        reweight(
            &mut tree,
            &bcast_workloads::freq::sorted_desc(&zipf.sample(ITEMS, 0)),
        );
        let sorting = crate::heuristics::sorting::sorting_schedule(&tree, K);
        assert_eq!(sorting, greedy_frontier(&tree, K), "key-ordered Zipf");

        for seed in 1..=3u64 {
            reweight(&mut tree, &zipf.sample(ITEMS, seed));
            let sorting = access(
                &tree,
                &crate::heuristics::sorting::sorting_schedule(&tree, K),
            );
            let frontier = access(&tree, &greedy_frontier(&tree, K));
            assert!(
                frontier < 0.85 * sorting,
                "seed {seed}: frontier {frontier:.1} vs sorting {sorting:.1} slots"
            );
        }
    }

    #[test]
    fn sv96_chain_wastes_channels() {
        // §1.1's extreme case: a chain tree. SV96 needs `depth` channels at
        // utilization far below 1 (here every level has ≤ 2 nodes but the
        // scheme still pins one channel per level).
        let w: Vec<Weight> = (1..=5u32).map(Weight::from).collect();
        let t = builders::chain(&w).unwrap();
        let m = sv96(&t);
        assert_eq!(m.channels_needed, t.depth() as usize);
        assert!(m.utilization < 1.0);
    }

    #[test]
    fn sv96_expected_access_on_paper_example() {
        let t = builders::paper_example();
        let m = sv96(&t);
        assert_eq!(m.channels_needed, 4);
        // widths: 1, 2, 4, 2 → per-level waits 1, 1.5, 2.5, 1.5.
        // A,B,E at level 3: 5.0; C,D at level 4: 6.5.
        let expect = ((20.0 + 10.0 + 18.0) * 5.0 + (15.0 + 7.0) * 6.5) / 70.0;
        assert!((m.expected_access_time - expect).abs() < 1e-12);
        // Utilization: 9 nodes / (4 channels × width 4).
        assert!((m.utilization - 9.0 / 16.0).abs() < 1e-12);
    }

    /// A rank-vs-heap case's tree: `shape` 0 is random with fanouts 2–7,
    /// 1 random with fanouts of 64 or more (the radix rank path), 2 the
    /// service's boot shape (weight-balanced, as full as the fanout
    /// allows). `weights` 0 keeps the scattered Zipf draw, 1 makes every
    /// weight equal, 2 every weight zero, 3 every other weight a −0.0
    /// input (which must rank like +0.0, as the heap's `total_cmp` would
    /// not otherwise agree with the key order).
    fn rank_case_tree(shape: u8, weights: u8, size: usize, seed: u64) -> IndexTree {
        let zipf = FrequencyDist::Zipf {
            theta: 0.9,
            scale: 1_000.0,
        };
        let mut t = match shape {
            0 => random_tree(
                &RandomTreeConfig {
                    data_nodes: 1 + size,
                    max_fanout: 2 + (seed % 6) as usize,
                    weights: zipf,
                },
                seed,
            ),
            1 => random_tree(
                &RandomTreeConfig {
                    data_nodes: 65 + size,
                    max_fanout: 64 + (seed % 137) as usize,
                    weights: zipf,
                },
                seed,
            ),
            _ => knary::build_weight_balanced_unlabeled(
                &zipf.sample(1 + size, seed),
                2 + (seed % 6) as usize,
            )
            .unwrap(),
        };
        let updates: Vec<(NodeId, Weight)> = t
            .data_nodes()
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| match weights {
                1 => Some((d, Weight::from(7u32))),
                2 => Some((d, Weight::ZERO)),
                3 if i % 2 == 0 => Some((d, Weight::new(-0.0).unwrap())),
                _ => None,
            })
            .collect();
        t.reweight(&updates);
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn frontier_rank_matches_the_heap_oracle(
            shape in 0u8..3,
            weights in 0u8..4,
            size in 0usize..500,
            seed in 0u64..1_000,
            k in 1usize..=7,
        ) {
            let t = rank_case_tree(shape, weights, size, seed);
            let mut rank = Vec::new();
            density_rank_into(&t, &mut SortScratch::new(), &mut rank);
            let mut plan = SlotPlan::new();
            greedy_pack_into(&rank, &t, k, &mut PackScratch::new(), &mut plan);
            prop_assert_eq!(plan, frontier_heap_oracle(&t, k));
        }
    }
}
