//! Deep (slow) cross-validation, `#[ignore]`d by default.
//!
//! `make stress`, and so `make check`, runs it in release mode (about a
//! minute): an extended sweep that pushes the exact searches to the edge
//! of what exhaustive enumeration can still ground-truth: larger trees,
//! every strategy, every bound, every channel count. The fast versions of
//! these checks run in the per-crate property tests.

use broadcast_alloc::alloc::best_first::{self, BestFirstOptions};
use broadcast_alloc::alloc::bound::BoundKind;
use broadcast_alloc::alloc::{data_tree, topo_tree};
use broadcast_alloc::workloads::{random_tree, FrequencyDist, RandomTreeConfig};

#[test]
#[ignore = "about a minute in release; run with `make stress`"]
fn all_exact_strategies_agree_on_larger_trees() {
    for seed in 0..60u64 {
        let cfg = RandomTreeConfig {
            data_nodes: 6 + (seed as usize % 3),
            max_fanout: 3,
            weights: FrequencyDist::Zipf {
                theta: 0.8,
                scale: 100.0,
            },
        };
        let tree = random_tree(&cfg, seed);
        for k in 1..=3usize {
            let exact = topo_tree::solve_exhaustive(&tree, k);
            for pruned in [false, true] {
                for bound in [BoundKind::Paper, BoundKind::Packed, BoundKind::Indexed] {
                    let opts = BestFirstOptions {
                        pruned,
                        bound,
                        ..BestFirstOptions::default()
                    };
                    let got = best_first::search(&tree, k, &opts).unwrap();
                    assert!(
                        (got.data_wait - exact.data_wait).abs() < 1e-9,
                        "seed {seed} k {k} pruned {pruned} bound {bound:?}: \
                         {} vs {}",
                        got.data_wait,
                        exact.data_wait
                    );
                }
            }
            if k == 1 {
                let dt = data_tree::search_optimal(&tree);
                assert!(
                    (dt.data_wait - exact.data_wait).abs() < 1e-9,
                    "seed {seed}: data tree {} vs {}",
                    dt.data_wait,
                    exact.data_wait
                );
            }
        }
    }
}

#[test]
#[ignore = "about a minute in release; run with `make stress`"]
fn data_tree_counts_nest_across_many_trees() {
    use data_tree::PruneLevel;
    for seed in 0..80u64 {
        let cfg = RandomTreeConfig {
            data_nodes: 2 + (seed as usize % 7),
            max_fanout: 4,
            weights: FrequencyDist::Uniform { lo: 1.0, hi: 100.0 },
        };
        let tree = random_tree(&cfg, seed);
        let p2 = data_tree::count_paths(&tree, PruneLevel::P2);
        let p12 = data_tree::count_paths(&tree, PruneLevel::P12);
        let p124 = data_tree::count_paths(&tree, PruneLevel::P124);
        assert!(p2 >= p12, "seed {seed}");
        assert!(p12 >= p124, "seed {seed}");
        assert!(
            p124 >= 1,
            "seed {seed}: pruning must keep at least one path"
        );
    }
}
