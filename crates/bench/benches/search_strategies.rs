//! Ablation A1: wall-clock cost of each exact search strategy.
//!
//! Compares, on trees where all strategies terminate quickly:
//! * full enumeration of the topological tree (Algorithm 1),
//! * best-first over the unpruned tree (paper's baseline search),
//! * best-first over the Appendix-pruned tree,
//! * the §3.3 data-tree branch and bound (k = 1 only).
//!
//! Expected shape: pruned ≪ unpruned ≪ exhaustive, with the data tree the
//! fastest single-channel solver — the quantitative backing for §3.2/§3.3.
//! The heavy `balanced-d4` instance (27 data nodes, ~34k expansions at
//! k = 2 under the default index-aware bound, ~67k under the packed one)
//! runs the pruned search only: exhaustive and unpruned search do not
//! finish in bench-able time there.

use bcast_core::best_first::{self, BestFirstOptions};
use bcast_core::{data_tree, topo_tree};
use bcast_index_tree::{builders, IndexTree};
use bcast_workloads::FrequencyDist;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// (name, tree, all-strategies?): the `balanced-d4` entry is pruned only.
fn trees() -> Vec<(String, IndexTree, bool)> {
    let mut out = vec![("paper".to_string(), builders::paper_example(), true)];
    for m in [2usize, 3] {
        let weights = FrequencyDist::Uniform { lo: 1.0, hi: 100.0 }.sample(m * m, 99);
        out.push((
            format!("balanced-m{m}"),
            builders::full_balanced(m, 3, &weights).expect("valid shape"),
            true,
        ));
    }
    let weights = FrequencyDist::Uniform { lo: 1.0, hi: 100.0 }.sample(27, 99);
    out.push((
        "balanced-d4".to_string(),
        builders::full_balanced(3, 4, &weights).expect("valid shape"),
        false,
    ));
    out
}

fn bench_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("search_strategies");
    for (name, tree, all_strategies) in trees() {
        let ks: &[usize] = if all_strategies { &[1, 2] } else { &[2] };
        for &k in ks {
            let tag = format!("{name}/k{k}");
            if all_strategies {
                g.bench_with_input(BenchmarkId::new("exhaustive", &tag), &tree, |b, t| {
                    b.iter(|| black_box(topo_tree::solve_exhaustive(t, k).data_wait))
                });
                g.bench_with_input(
                    BenchmarkId::new("best_first_unpruned", &tag),
                    &tree,
                    |b, t| {
                        let opts = BestFirstOptions {
                            pruned: false,
                            ..BestFirstOptions::default()
                        };
                        b.iter(|| black_box(best_first::search(t, k, &opts).unwrap().data_wait))
                    },
                );
            }
            g.bench_with_input(
                BenchmarkId::new("best_first_pruned", &tag),
                &tree,
                |b, t| {
                    let opts = BestFirstOptions::default();
                    b.iter(|| black_box(best_first::search(t, k, &opts).unwrap().data_wait))
                },
            );
            if k == 1 && all_strategies {
                g.bench_with_input(BenchmarkId::new("data_tree", &tag), &tree, |b, t| {
                    b.iter(|| black_box(data_tree::search_optimal(t).data_wait))
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
