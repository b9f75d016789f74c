//! Ablation A2: the paper's `U(X)` bound vs the capacity-aware packed
//! bound vs the index-aware bound (the default) in the best-first search.
//! Each dominates the one before it pointwise (proved in
//! `bcast_core::bound` and DESIGN §5.1), so it expands no more states;
//! this bench shows whether the tighter arithmetic pays for itself in wall
//! time across tree shapes and channel counts: two small searches of a few
//! dozen states, and the binary depth-5 tree of `tests/search_golden.rs`,
//! where the bounds' pruning differs by thousands of states.

use bcast_core::best_first::{self, BestFirstOptions};
use bcast_core::bound::BoundKind;
use bcast_index_tree::builders;
use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_bounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("bound_tightness");
    let uniform = FrequencyDist::Uniform { lo: 1.0, hi: 100.0 };
    let balanced = builders::full_balanced(3, 3, &uniform.sample(9, 5)).expect("valid shape");
    let binary = builders::full_balanced(2, 5, &uniform.sample(16, 99)).expect("valid shape");
    let random = random_tree(
        &RandomTreeConfig {
            data_nodes: 8,
            max_fanout: 3,
            weights: FrequencyDist::Zipf {
                theta: 0.8,
                scale: 100.0,
            },
        },
        11,
    );
    for (name, tree) in [
        ("balanced-m3", balanced),
        ("random-n8", random),
        ("binary-d5", binary),
    ] {
        for k in [2usize, 3] {
            for (bname, bound) in [
                ("paper", BoundKind::Paper),
                ("packed", BoundKind::Packed),
                ("indexed", BoundKind::Indexed),
            ] {
                let tag = format!("{name}/k{k}");
                g.bench_with_input(BenchmarkId::new(bname, &tag), &tree, |b, t| {
                    let opts = BestFirstOptions {
                        bound,
                        ..BestFirstOptions::default()
                    };
                    b.iter(|| black_box(best_first::search(t, k, &opts).unwrap().data_wait))
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_bounds);
criterion_main!(benches);
