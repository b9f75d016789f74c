//! The fused publish pipeline vs the legacy three-pass path.
//!
//! Two claims are pinned here:
//!
//! 1. **Bit-identical output.** For random trees × heuristic × channel
//!    count, [`Publisher::publish`] (one fused traversal:
//!    schedule → channel assignment → route tables) produces exactly the
//!    `CompiledProgram`, `BroadcastProgram` buckets and mean data wait of
//!    the legacy pipeline `Schedule` → `Allocation::from_slot_schedule` →
//!    `BroadcastProgram::build` → `CompiledProgram::compile`.
//! 2. **The sorting heuristic as first written.** The fused `Sorting`
//!    publish still produces, bit for bit, the program of the heuristic's
//!    original, allocation-heavy form, kept here as an oracle.
//! 3. **Zero heap allocations after warm-up.** This binary installs the
//!    [`CountingAlloc`] global allocator; once the publisher's scratch
//!    buffers are sized, a republish must not touch the heap at all —
//!    also when one workspace publishes catalogs of different sizes in
//!    turn, as a serving lane does for its tenants.
//! 4. **No per-node heap objects in the tree.** Under the same counter, a
//!    weight-balanced build makes as many allocations at 65,536 items as
//!    at 4,096, and a reweight of every leaf makes a small constant number.
//! 5. **A reweighted tree publishes like a fresh one.** The service's boot
//!    tree, reweighted in place, publishes the same program as a
//!    from-scratch build of its shape over the new weights.

use broadcast_alloc::alloc::heuristics::{shrink, sorting};
use broadcast_alloc::alloc::{
    baselines, PublishHeuristic, PublishOptions, PublishWorkspace, Publisher, Schedule,
};
use broadcast_alloc::channel::{BroadcastProgram, CompiledProgram};
use broadcast_alloc::tree::{knary, IndexTree, TreeBuilder};
use broadcast_alloc::types::alloc_counter::{allocation_count, CountingAlloc};
use broadcast_alloc::types::{NodeId, Weight};
use broadcast_alloc::workloads::{random_tree, FrequencyDist, RandomTreeConfig};
use proptest::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The legacy three-pass path for a schedule.
fn three_pass(s: &Schedule, tree: &IndexTree, k: usize) -> (BroadcastProgram, CompiledProgram) {
    let alloc = s.into_allocation(tree, k).expect("feasible");
    let program = BroadcastProgram::build(&alloc, tree).expect("valid");
    let compiled = CompiledProgram::compile(&program, tree).expect("compiles");
    (program, compiled)
}

/// The sorting heuristic in its original form: a preorder whose children
/// are sorted per node by the cross-multiplied density comparator, then
/// per-level lists merged by sequence number through fresh vectors, one
/// slot per inner level, and the last level dumped `k` per slot by
/// rescanning what remains.
fn original_sorting_schedule(tree: &IndexTree, k: usize) -> Schedule {
    let mut order = Vec::with_capacity(tree.len());
    let mut stack = vec![tree.root()];
    while let Some(n) = stack.pop() {
        order.push(n);
        let mut children = tree.children(n).to_vec();
        children.sort_by(|&a, &b| {
            let da = tree.subtree_weight(a).get() * tree.subtree_size(b) as f64;
            let db = tree.subtree_weight(b).get() * tree.subtree_size(a) as f64;
            db.total_cmp(&da).then(a.cmp(&b))
        });
        stack.extend(children.iter().rev());
    }
    if k == 1 {
        return Schedule::from_sequence(order);
    }
    let mut seq = vec![0u32; tree.len()];
    for (i, &n) in order.iter().enumerate() {
        seq[n.index()] = i as u32;
    }
    let depth = tree.depth() as usize;
    let mut lists = vec![Vec::new(); depth + 1];
    for &n in &order {
        lists[tree.level(n) as usize].push(n);
    }
    let mut placed = vec![false; tree.len()];
    let mut schedule = Schedule::new();
    let mut carry = Vec::new();
    for (level, list) in lists.iter_mut().enumerate().skip(1) {
        let mut pending = merge_by_seq(std::mem::take(list), carry, &seq);
        loop {
            match take_slot(tree, pending, k, &mut placed, &mut schedule) {
                Err(unplaced) => {
                    pending = unplaced;
                    break;
                }
                Ok(rest) => {
                    pending = rest;
                    if level < depth || pending.is_empty() {
                        break;
                    }
                }
            }
        }
        carry = pending;
    }
    while !carry.is_empty() {
        carry = take_slot(tree, carry, k, &mut placed, &mut schedule)
            .expect("a topological order always makes progress");
    }
    schedule
}

/// Fills the next slot with up to `k` nodes of `pending`, in order, whose
/// parents sit in earlier slots. Returns the rest, or all of `pending`
/// when none could be placed.
fn take_slot(
    tree: &IndexTree,
    pending: Vec<NodeId>,
    k: usize,
    placed: &mut [bool],
    schedule: &mut Schedule,
) -> Result<Vec<NodeId>, Vec<NodeId>> {
    let (mut members, mut rest) = (Vec::new(), Vec::new());
    for n in pending {
        if members.len() < k && tree.parent(n).is_none_or(|p| placed[p.index()]) {
            members.push(n);
        } else {
            rest.push(n);
        }
    }
    if members.is_empty() {
        return Err(rest);
    }
    for &n in &members {
        placed[n.index()] = true;
    }
    schedule.push_slot(members);
    Ok(rest)
}

fn merge_by_seq(a: Vec<NodeId>, b: Vec<NodeId>, seq: &[u32]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if seq[a[i].index()] <= seq[b[j].index()] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_sorting_matches_the_original_heuristic(
        n in 2usize..400,
        wide in any::<bool>(),
        k in 1usize..5,
        seed in 0u64..500,
    ) {
        let cfg = RandomTreeConfig {
            data_nodes: n,
            // Fanouts past the 64-child cutover take the radix sort path.
            max_fanout: if wide { 150 } else { 4 },
            weights: FrequencyDist::SelfSimilar { fraction: 0.2, total: 1e9 },
        };
        let tree = random_tree(&cfg, seed);
        let mut p = Publisher::new();
        let fused = p
            .publish(&tree, k, PublishHeuristic::Sorting, PublishOptions::default())
            .expect("the sorting plan is feasible");
        let (_, original) = three_pass(&original_sorting_schedule(&tree, k), &tree, k);
        prop_assert_eq!(fused, &original, "k = {}", k);
    }

    #[test]
    fn fused_publish_matches_three_pass(
        n in 2usize..120,
        k in 1usize..4,
        seed in 0u64..500,
    ) {
        let cfg = RandomTreeConfig {
            data_nodes: n,
            max_fanout: 5,
            weights: FrequencyDist::SelfSimilar { fraction: 0.25, total: 10_000.0 },
        };
        let tree = random_tree(&cfg, seed);
        let mut p = Publisher::new();
        for (h, schedule) in [
            (PublishHeuristic::Sorting, sorting::sorting_schedule(&tree, k)),
            (
                PublishHeuristic::Shrink { max_nodes: 8 },
                shrink::combine_solve(&tree, k, 8).schedule,
            ),
            (PublishHeuristic::Frontier, baselines::greedy_frontier(&tree, k)),
            (PublishHeuristic::Preorder, baselines::preorder_schedule(&tree, k)),
        ] {
            let fused = p
                .publish(&tree, k, h, PublishOptions::default())
                .expect("heuristic plans are feasible")
                .clone();
            let (program, compiled) = three_pass(&schedule, &tree, k);
            // Identical T(Di) route tables…
            prop_assert_eq!(&fused, &compiled, "{:?} at k = {}", h, k);
            // …identical bucket grid…
            prop_assert_eq!(
                p.pipeline().materialize_program(&tree),
                program,
                "{:?} at k = {}",
                h,
                k
            );
            // …identical mean cost.
            let fused_wait = p.plan().average_data_wait(&tree);
            let legacy_wait = schedule.average_data_wait(&tree);
            prop_assert!((fused_wait - legacy_wait).abs() < 1e-12);
        }
    }
}

#[test]
fn fused_hot_path_is_allocation_free_after_warmup() {
    let cfg = RandomTreeConfig {
        data_nodes: 4096,
        max_fanout: 4,
        weights: FrequencyDist::SelfSimilar {
            fraction: 0.2,
            total: 1_000_000.0,
        },
    };
    let tree = random_tree(&cfg, 7);
    let mut p = Publisher::new();
    let opts = PublishOptions::default();
    for h in [
        PublishHeuristic::Sorting,
        PublishHeuristic::Frontier,
        PublishHeuristic::Preorder,
    ] {
        for k in [1usize, 3] {
            // Two warm-up publishes size every scratch buffer (the second
            // catches capacity that only settles after the first swap).
            p.publish(&tree, k, h, opts).expect("feasible");
            p.publish(&tree, k, h, opts).expect("feasible");
            let before = allocation_count();
            p.publish(&tree, k, h, opts).expect("feasible");
            let delta = allocation_count() - before;
            assert_eq!(
                delta, 0,
                "fused {h:?} hot path at k = {k} performed {delta} heap allocations"
            );
        }
    }
}

#[test]
fn a_workspace_shared_by_two_catalog_sizes_is_allocation_free_after_warmup() {
    // A large and a small catalog take turns on one workspace, each
    // publishing into a program of its own. Two warm-up rounds size every
    // buffer for the large catalog: the first the scratch and one route
    // table, the second the spare table the large program swaps with
    // (the first round's swaps leave the workspace an empty one). From
    // then on no publish may allocate: a smaller publish must keep what
    // the larger one needs.
    let trees = [4_096usize, 64].map(|items| {
        knary::build_weight_balanced_unlabeled(&zipf_weights(items, 3), 4).expect("items >= 1")
    });
    for h in [PublishHeuristic::Sorting, PublishHeuristic::Frontier] {
        let mut work = PublishWorkspace::new();
        let mut served = [CompiledProgram::default(), CompiledProgram::default()];
        for round in 0..5 {
            for (tree, program) in trees.iter().zip(&mut served) {
                let before = allocation_count();
                work.publish(tree, 3, h, program).expect("feasible");
                let allocs = allocation_count() - before;
                let items = tree.data_nodes().len();
                if round >= 2 {
                    assert_eq!(allocs, 0, "{h:?}, round {round}, {items} items");
                }
            }
        }
    }
}

fn zipf_weights(items: usize, seed: u64) -> Vec<Weight> {
    FrequencyDist::Zipf {
        theta: 0.9,
        scale: 1_000.0,
    }
    .sample(items, seed)
}

/// The updates that give leaf `i` (in preorder) weight `weights[i]`.
fn leaf_updates(tree: &IndexTree, weights: &[Weight]) -> Vec<(NodeId, Weight)> {
    tree.data_nodes()
        .iter()
        .copied()
        .zip(weights.iter().copied())
        .collect()
}

#[test]
fn tree_build_and_reweight_make_no_per_node_allocations() {
    let build_allocs = |items: usize| {
        let weights = zipf_weights(items, 11);
        let before = allocation_count();
        let tree = knary::build_weight_balanced_unlabeled(&weights, 4).unwrap();
        let allocs = allocation_count() - before;
        (tree, allocs)
    };
    let (_, small) = build_allocs(4_096);
    let (mut tree, large) = build_allocs(65_536);
    assert_eq!(
        small,
        large,
        "a build allocated {small} times at 4,096 items but {large} at 65,536 ({} index nodes)",
        tree.num_index_nodes()
    );

    let updates = leaf_updates(&tree, &zipf_weights(65_536, 12));
    let before = allocation_count();
    tree.reweight(&updates);
    let allocs = allocation_count() - before;
    assert!(
        allocs <= 8,
        "a reweight of every leaf allocated {allocs} times"
    );
}

#[test]
fn a_reweighted_boot_tree_publishes_like_a_fresh_build() {
    const ITEMS: usize = 4_096;
    // The service's boot tree: weight-balanced over uniform weights.
    let mut boot =
        knary::build_weight_balanced_unlabeled(&vec![Weight::from(1u32); ITEMS], 4).unwrap();
    let updates = leaf_updates(&boot, &zipf_weights(ITEMS, 5));
    boot.reweight(&updates);

    // The same shape built from scratch over the new weights: adding nodes
    // in id order reproduces every id.
    let mut new_weight = vec![Weight::ZERO; boot.len()];
    for &(d, w) in &updates {
        new_weight[d.index()] = w;
    }
    let mut b = TreeBuilder::with_capacity(boot.len());
    b.root("1");
    for (i, &w) in new_weight.iter().enumerate().skip(1) {
        let id = NodeId::from_index(i);
        let parent = boot.parent(id).unwrap();
        let added = if boot.is_data(id) {
            b.add_data_unlabeled(parent, w)
        } else {
            b.add_index_unlabeled(parent)
        };
        assert_eq!(added.unwrap(), id);
    }
    let fresh = b.build().unwrap();

    let (mut p, mut q) = (Publisher::new(), Publisher::new());
    let opts = PublishOptions::default();
    for h in [PublishHeuristic::Sorting, PublishHeuristic::Frontier] {
        for k in [1usize, 3] {
            let reweighted = p.publish(&boot, k, h, opts).expect("feasible");
            let rebuilt = q.publish(&fresh, k, h, opts).expect("feasible");
            assert_eq!(reweighted, rebuilt, "{h:?} at k = {k}");
        }
    }
}
