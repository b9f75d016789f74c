//! Ablation A3: heuristic throughput on large trees — the regime §4.2
//! exists for. Measures the sorting heuristic (near-linear per the paper's
//! O(N log m) claim), the `1_To_k` distribution (the one order-to-schedule
//! sweep, fed the sorted preorder), the frontier-greedy extension (the
//! same sweep over a global density rank), and the node-combination
//! shrink heuristic, on Zipf-weighted random trees of 10³–10⁴ data nodes.
//! Two more rows time the tree every republish starts from: the
//! weight-balanced build over 65,536 Zipf(0.9) items at fanout 4
//! (`tree_build`) and a reweight of every one of its leaves
//! (`reweight_all`).

use bcast_core::baselines;
use bcast_core::heuristics::{shrink, sorting};
use bcast_core::schedule::greedy_schedule_from_order;
use bcast_index_tree::knary;
use bcast_types::{NodeId, Weight};
use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_heuristics(c: &mut Criterion) {
    let mut g = c.benchmark_group("heuristics_scale");
    for n in [1_000usize, 10_000] {
        let tree = random_tree(
            &RandomTreeConfig {
                data_nodes: n,
                max_fanout: 6,
                weights: FrequencyDist::Zipf {
                    theta: 0.9,
                    scale: 1000.0,
                },
            },
            42,
        );
        g.throughput(Throughput::Elements(tree.len() as u64));
        g.bench_with_input(BenchmarkId::new("sorting_k1", n), &tree, |b, t| {
            b.iter(|| black_box(sorting::sorting_schedule(t, 1).len()))
        });
        g.bench_with_input(BenchmarkId::new("sorting_k4", n), &tree, |b, t| {
            b.iter(|| black_box(sorting::sorting_schedule(t, 4).len()))
        });
        let order = sorting::sorted_preorder(&tree);
        g.bench_with_input(
            BenchmarkId::new("one_to_k_distribute", n),
            &(&tree, &order),
            |b, (t, o)| b.iter(|| black_box(greedy_schedule_from_order(o, t, 4).len())),
        );
        g.bench_with_input(BenchmarkId::new("frontier_k4", n), &tree, |b, t| {
            b.iter(|| black_box(baselines::greedy_frontier(t, 4).len()))
        });
        g.bench_with_input(BenchmarkId::new("shrink_combine_k4", n), &tree, |b, t| {
            b.iter(|| black_box(shrink::combine_solve(t, 4, 12).data_wait))
        });
    }
    g.finish();
}

fn bench_tree(c: &mut Criterion) {
    const ITEMS: usize = 65_536;
    let zipf = FrequencyDist::Zipf {
        theta: 0.9,
        scale: 1000.0,
    };
    let weights = zipf.sample(ITEMS, 42);
    let mut g = c.benchmark_group("heuristics_scale");
    g.throughput(Throughput::Elements(ITEMS as u64));
    g.bench_with_input(BenchmarkId::new("tree_build", ITEMS), &weights, |b, w| {
        b.iter(|| black_box(knary::build_weight_balanced_unlabeled(w, 4).unwrap().len()))
    });
    let mut tree = knary::build_weight_balanced_unlabeled(&weights, 4).unwrap();
    let updates: Vec<(NodeId, Weight)> = tree
        .data_nodes()
        .iter()
        .copied()
        .zip(zipf.sample(ITEMS, 43))
        .collect();
    g.bench_function(BenchmarkId::new("reweight_all", ITEMS), |b| {
        b.iter(|| {
            tree.reweight(black_box(&updates));
            black_box(tree.total_weight())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_heuristics, bench_tree);
criterion_main!(benches);
