//! The fused publish pipeline vs the legacy three-pass path.
//!
//! Two claims are pinned here:
//!
//! 1. **Bit-identical output.** For random trees × heuristic × channel
//!    count × thread count, [`Publisher::publish`] (one fused traversal:
//!    schedule → channel assignment → route tables) produces exactly the
//!    `CompiledProgram`, `BroadcastProgram` buckets and mean data wait of
//!    the legacy pipeline `Schedule` → `Allocation::from_slot_schedule` →
//!    `BroadcastProgram::build` → `CompiledProgram::compile`.
//! 2. **The sorting heuristic as first written.** The fused `Sorting`
//!    publish still produces, bit for bit, the program of the heuristic's
//!    original, allocation-heavy form, kept here as an oracle.
//! 3. **Zero heap allocations after warm-up.** This binary installs the
//!    [`CountingAlloc`] global allocator; once the publisher's scratch
//!    buffers are sized, a single-threaded republish must not touch the
//!    heap at all.

use broadcast_alloc::alloc::heuristics::{shrink, sorting};
use broadcast_alloc::alloc::{baselines, PublishHeuristic, PublishOptions, Publisher, Schedule};
use broadcast_alloc::channel::{BroadcastProgram, CompiledProgram};
use broadcast_alloc::tree::IndexTree;
use broadcast_alloc::types::alloc_counter::{allocation_count, CountingAlloc};
use broadcast_alloc::types::NodeId;
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
            .publish(&tree, k, PublishHeuristic::Sorting, PublishOptions { threads: 1 })
            .expect("the sorting plan is feasible");
        let (_, original) = three_pass(&original_sorting_schedule(&tree, k), &tree, k);
        prop_assert_eq!(fused, &original, "k = {}", k);
    }

    #[test]
    fn fused_publish_matches_three_pass(
        n in 2usize..120,
        k in 1usize..4,
        t_idx in 0usize..3,
        seed in 0u64..500,
    ) {
        let threads = [1usize, 2, 4][t_idx];
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
                .publish(&tree, k, h, PublishOptions { threads })
                .expect("heuristic plans are feasible")
                .clone();
            let (program, compiled) = three_pass(&schedule, &tree, k);
            // Identical T(Di) route tables…
            prop_assert_eq!(&fused, &compiled, "{:?} at k = {}, threads = {}", h, k, threads);
            // …identical bucket grid…
            prop_assert_eq!(
                p.pipeline().materialize_program(&tree),
                program,
                "{:?} at k = {}, threads = {}",
                h,
                k,
                threads
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
    let opts = PublishOptions { threads: 1 };
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
