//! The `1_To_k_BroadcastChannel` procedure (§4.2).
//!
//! Distributes a 1-channel broadcast (a sorted preorder sequence) over `k`
//! channels. The paper buckets the sequence into per-level lists (nodes of
//! the same tree level, ascending sequence number); each level then fills
//! one slot with up to `k` nodes, and nodes that do not fit are *merged*
//! into the next level's list (by sequence number). The final list is
//! dumped `k` per slot.
//!
//! Two repairs over the paper's pseudocode, documented in DESIGN.md:
//!
//! * the inner loop's `i ≤ NumOfChannels` bound would write channel `k+1`;
//!   we fill exactly `k` channels per slot;
//! * after a merge, a deferred node and its own child can meet in one list;
//!   the paper's code would put them in the same slot (infeasible). We skip
//!   any node whose parent is not yet in a strictly earlier slot — it
//!   simply stays for a later slot.
//!
//! ## One sweep
//!
//! With the second repair, every slot — an inner level's or the dump's —
//! takes the `k` smallest-sequence nodes whose parent aired in a strictly
//! earlier slot. Such a node is never deeper than the level being filled
//! (slot `s` holds nodes of level at most `s + 1`, by induction from the
//! root), so each level's merged list already holds every eligible node
//! and the level lists decide nothing. The whole procedure is therefore
//! the workspace's one order-to-schedule sweep,
//! [`greedy_pack_into`](crate::schedule::greedy_pack_into), fed the sorted
//! preorder: it seeds an awake set with the root, pops up to `k` per slot,
//! and after committing a slot wakes the placed nodes' children. The sweep
//! is near-linear, where the per-level form re-merges the unplaced carry
//! at every level (`O(n · depth)`), and it writes the identical plan; the
//! test module keeps the per-level form as the oracle.

use bcast_index_tree::IndexTree;

/// Slot index at which the procedure's last-level dump begins on `tree`.
/// Each of the levels `1 .. depth` commits exactly one slot (a node of the
/// last level is still waiting, so some node is awake), hence the dump
/// starts at slot `depth − 1`, and slot `s` before it is level `s + 1`'s.
/// The delta lane (`crate::delta`) guards those inner-level slots and
/// repairs only dump slots in place.
pub(crate) fn first_dump_slot(tree: &IndexTree) -> u32 {
    tree.depth().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::sorting::sorted_preorder;
    use crate::schedule::{greedy_pack_into, greedy_schedule_from_order, PackScratch, Schedule};
    use crate::seqset::MinSeqSet;
    use bcast_channel::SlotPlan;
    use bcast_index_tree::{builders, knary};
    use bcast_types::{NodeId, Weight};
    use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    /// The per-level procedure as the paper states it (with both repairs):
    /// bucket by level, fill one slot per inner level from the level's list
    /// merged with the carry, then dump the last list off an awake set.
    /// Returns the plan, the first dump slot and the inner-level placements
    /// `(node, level, slot)` in commit order — the oracle for the sweep.
    fn distribute_oracle(
        tree: &IndexTree,
        order: &[NodeId],
        k: usize,
    ) -> (SlotPlan, u32, Vec<(NodeId, u32, u32)>) {
        let mut plan = SlotPlan::new();
        let mut first_dump_slot = u32::MAX;
        let mut inner_log = Vec::new();

        let mut seq = vec![u32::MAX; tree.len()];
        for (i, &n) in order.iter().enumerate() {
            assert_eq!(seq[n.index()], u32::MAX, "node {n} appears twice");
            seq[n.index()] = i as u32;
        }

        // Counting sort by level, ascending sequence within each level.
        let levels = tree.level_table();
        let num_levels = tree.depth() as usize + 1; // indexed by level; 0 unused
        let mut counts = vec![0u32; num_levels];
        for &n in order {
            counts[levels[n.index()] as usize] += 1;
        }
        let mut level_starts = vec![0u32; num_levels + 1];
        for l in 0..num_levels {
            level_starts[l + 1] = level_starts[l] + counts[l];
        }
        let mut buckets = vec![NodeId(0); order.len()];
        counts.copy_from_slice(&level_starts[..num_levels]);
        for &n in order {
            let l = levels[n.index()] as usize;
            buckets[counts[l] as usize] = n;
            counts[l] += 1;
        }

        let mut slot_of = vec![u32::MAX; tree.len()];
        let mut merged: Vec<NodeId> = Vec::new();
        let mut carry: Vec<NodeId> = Vec::new();
        let (mut pending, mut rest) = (Vec::new(), Vec::new());
        let depth = tree.depth() as usize;
        let mut slot = 0u32;
        for level in 1..=depth {
            // Merge the carry into this level's list by sequence number.
            let list = &buckets[level_starts[level] as usize..level_starts[level + 1] as usize];
            merged.clear();
            let (mut i, mut j) = (0, 0);
            while i < list.len() && j < carry.len() {
                if seq[list[i].index()] <= seq[carry[j].index()] {
                    merged.push(list[i]);
                    i += 1;
                } else {
                    merged.push(carry[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&list[i..]);
            merged.extend_from_slice(&carry[j..]);
            carry.clear();

            std::mem::swap(&mut pending, &mut merged);
            if level == depth {
                // Dump: each slot takes the `k` smallest-sequence nodes
                // whose parent aired in a strictly earlier slot.
                first_dump_slot = slot;
                let mut awake = MinSeqSet::new();
                awake.reset(order.len());
                for &n in &pending {
                    let ready = tree
                        .parent(n)
                        .is_none_or(|p| slot_of[p.index()] != u32::MAX);
                    if ready {
                        awake.insert(seq[n.index()] as usize);
                    }
                }
                let mut placed = 0usize;
                let mut slot_nodes = Vec::new();
                while !awake.is_empty() {
                    slot_nodes.clear();
                    while plan.open_len() < k {
                        let Some(pos) = awake.pop_min() else {
                            break;
                        };
                        plan.push(order[pos]);
                        slot_nodes.push(order[pos]);
                    }
                    placed += plan.open_len();
                    plan.commit_slot();
                    slot += 1;
                    for &n in &slot_nodes {
                        for &c in tree.children(n) {
                            awake.insert(seq[c.index()] as usize);
                        }
                    }
                }
                assert_eq!(
                    placed,
                    pending.len(),
                    "topological order guarantees progress"
                );
            } else {
                // One slot per inner level; the remainder merges into the
                // next level's list.
                rest.clear();
                for &n in &pending {
                    let parent_ok = tree.parent(n).is_none_or(|p| slot_of[p.index()] < slot);
                    if plan.open_len() < k && parent_ok {
                        plan.push(n);
                    } else {
                        rest.push(n);
                    }
                }
                if plan.open_len() > 0 {
                    for &n in plan.open_members() {
                        slot_of[n.index()] = slot;
                        inner_log.push((n, level as u32, slot));
                    }
                    plan.commit_slot();
                    slot += 1;
                }
                std::mem::swap(&mut carry, &mut rest);
            }
        }
        (plan, first_dump_slot, inner_log)
    }

    /// Runs the sweep and the oracle on one case and compares the plan,
    /// the first dump slot and the inner placements (which the sweep's
    /// callers read off the plan's first slots).
    fn assert_matches_oracle(tree: &IndexTree, order: &[NodeId], k: usize) {
        let mut plan = SlotPlan::new();
        greedy_pack_into(order, tree, k, &mut PackScratch::new(), &mut plan);
        let (oracle, oracle_dump, oracle_inner) = distribute_oracle(tree, order, k);
        assert_eq!(plan, oracle, "plan");
        let dump = first_dump_slot(tree);
        assert_eq!(dump, oracle_dump, "first dump slot");
        let inner: Vec<(NodeId, u32, u32)> = (0..dump)
            .flat_map(|s| plan.slot(s as usize).iter().map(move |&n| (n, s + 1, s)))
            .collect();
        assert_eq!(inner, oracle_inner, "inner placements");
    }

    #[test]
    fn paper_walkthrough_fig13_two_channels() {
        // Sorted order 1 2 A B 3 E 4 C D with k = 2:
        // slot1 {1}, slot2 {2,3}, slot3 {A,B} (E,4 deferred to level 4),
        // slot4 {E,4}, slot5 {C,D}.
        let t = builders::paper_example();
        let order = sorted_preorder(&t);
        let s = greedy_schedule_from_order(&order, &t, 2);
        let as_labels: Vec<Vec<String>> = s
            .slots()
            .iter()
            .map(|m| m.iter().map(|&n| t.label(n)).collect())
            .collect();
        assert_eq!(
            as_labels,
            vec![
                vec!["1"],
                vec!["2", "3"],
                vec!["A", "B"],
                vec!["E", "4"],
                vec!["C", "D"],
            ]
        );
        s.into_allocation(&t, 2).unwrap();
    }

    #[test]
    fn three_channels_shorten_the_cycle() {
        let t = builders::paper_example();
        let order = sorted_preorder(&t);
        let s2 = greedy_schedule_from_order(&order, &t, 2);
        let s3 = greedy_schedule_from_order(&order, &t, 3);
        assert!(s3.len() <= s2.len());
        s3.into_allocation(&t, 3).unwrap();
    }

    #[test]
    fn deferred_parent_never_shares_slot_with_child() {
        // A chain stresses the merge repair: every index node's child
        // follows immediately.
        let w: Vec<Weight> = (1..=6u32).map(Weight::from).collect();
        let t = builders::chain(&w).unwrap();
        let order: Vec<NodeId> = t.preorder().to_vec();
        let s = greedy_schedule_from_order(&order, &t, 3);
        s.into_allocation(&t, 3).unwrap();
        assert_matches_oracle(&t, &order, 3);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch across a larger tree, then smaller ones: stale
        // capacity from an earlier run must never leak into a later plan.
        let mut scratch = PackScratch::new();
        let mut plan = SlotPlan::new();
        for (seed, items) in [(0u64, 3_000usize), (1, 700), (2, 40)] {
            let cfg = RandomTreeConfig {
                data_nodes: items,
                max_fanout: 5,
                weights: FrequencyDist::Zipf {
                    theta: 0.9,
                    scale: 400.0,
                },
            };
            let t = random_tree(&cfg, seed);
            let order = sorted_preorder(&t);
            greedy_pack_into(&order, &t, 3, &mut scratch, &mut plan);
            assert_eq!(
                Schedule::from_plan(&plan),
                greedy_schedule_from_order(&order, &t, 3),
                "seed {seed}, {items} items"
            );
        }
    }

    /// The 1M-item tree of `tests/publish_stress.rs`, compared against the
    /// oracle at full size under `make stress`.
    #[test]
    #[ignore = "heavy: million-item oracle comparison; run with --ignored stress"]
    fn stress_sweep_matches_the_per_level_oracle_at_million_items() {
        let weights = FrequencyDist::SelfSimilar {
            fraction: 0.2,
            total: 1e9,
        }
        .sample(1_000_000, 0x1_000_000);
        let t = knary::build_weight_balanced(&weights, 4).expect("items >= 1");
        let order = sorted_preorder(&t);
        assert_matches_oracle(&t, &order, 3);
    }

    /// A twin case's tree: `shape` 0 is deep and skewed (splits of at most
    /// three under Zipf weights), 1 wide (fanouts over 64, uniform
    /// weights), 2 a chain (one node per level).
    fn twin_tree(shape: u8, size: usize, seed: u64) -> IndexTree {
        let cfg = match shape {
            0 => RandomTreeConfig {
                data_nodes: 1 + size % 400,
                max_fanout: 2 + (seed % 2) as usize,
                weights: FrequencyDist::Zipf {
                    theta: 1.2,
                    scale: 1_000.0,
                },
            },
            1 => RandomTreeConfig {
                data_nodes: 65 + size,
                max_fanout: 65 + (seed % 136) as usize,
                weights: FrequencyDist::Uniform { lo: 0.0, hi: 50.0 },
            },
            _ => {
                let w: Vec<Weight> = (1..=1 + size as u32 % 30).map(Weight::from).collect();
                return builders::chain(&w).unwrap();
            }
        };
        random_tree(&cfg, seed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn always_feasible(n in 1usize..40, k in 1usize..6, seed in 0u64..500) {
            let cfg = RandomTreeConfig {
                data_nodes: n,
                max_fanout: 4,
                weights: FrequencyDist::Uniform { lo: 0.0, hi: 30.0 },
            };
            let t = random_tree(&cfg, seed);
            let s = greedy_schedule_from_order(&sorted_preorder(&t), &t, k);
            prop_assert_eq!(s.node_count(), t.len());
            s.into_allocation(&t, k).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn sweep_matches_the_per_level_oracle(
            shape in 0u8..3,
            size in 0usize..600,
            seed in 0u64..1_000,
            order_kind in 0u8..3,
            k in 1usize..=7,
        ) {
            let t = twin_tree(shape, size, seed);
            let order = match order_kind {
                0 => sorted_preorder(&t),
                1 => t.preorder().to_vec(),
                _ => {
                    let mut order = t.preorder().to_vec();
                    order.shuffle(&mut StdRng::seed_from_u64(seed));
                    order
                }
            };
            assert_matches_oracle(&t, &order, k);
        }
    }
}
