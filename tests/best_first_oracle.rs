//! Oracle suite: the best-first search must return the cost full
//! enumeration finds, on hundreds of random small trees, and the pruned
//! and unpruned expansions must agree.
//!
//! The oracle comparison uses an epsilon because full enumeration sums waits
//! in a different order. The pruned/unpruned comparison is *exact* `f64`
//! equality: both accumulate the weighted wait through the same
//! `Bounder::step` additions along the winning path, so when they agree on
//! the optimal schedule (random continuous weights make exact cost ties
//! between distinct schedules a measure-zero event) the floating-point
//! results are byte-identical.

use broadcast_alloc::alloc::best_first::{self, BestFirstOptions};
use broadcast_alloc::alloc::topo_tree;
use broadcast_alloc::workloads::{random_tree, FrequencyDist, RandomTreeConfig};
use proptest::prelude::{prop_assert, prop_assume, proptest, ProptestConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn best_first_matches_exhaustive_oracle(
        n in 2usize..7,
        k in 1usize..4,
        seed in 0u64..100_000,
    ) {
        let cfg = RandomTreeConfig {
            data_nodes: n,
            max_fanout: 3,
            weights: FrequencyDist::Uniform { lo: 1.0, hi: 100.0 },
        };
        let tree = random_tree(&cfg, seed);
        prop_assume!(tree.len() <= 12);

        let got = best_first::search(&tree, k, &BestFirstOptions::default())
            .expect("no node limit set");

        // The search reports the cost its schedule actually evaluates to,
        // and the schedule is feasible.
        prop_assert!((got.schedule.average_data_wait(&tree) - got.data_wait).abs() < 1e-9);
        got.schedule.into_allocation(&tree, k).expect("best-first schedule feasible");

        // Brute-force oracle: enumerable at this size.
        let oracle = topo_tree::solve_exhaustive(&tree, k);
        prop_assert!(
            (got.data_wait - oracle.data_wait).abs() < 1e-9,
            "n={} k={} seed={}: best-first {} vs exhaustive {}",
            n, k, seed, got.data_wait, oracle.data_wait
        );
    }
}

/// The unpruned Algorithm-1 expansion must agree with the Appendix's
/// pruned one: both share the bound, the dominance layer and the
/// Property-1 completion, so a divergence here isolates a fault in the
/// pruning rules.
#[test]
fn unpruned_agrees_with_pruned_on_a_seed_sweep() {
    for seed in 0..24u64 {
        let cfg = RandomTreeConfig {
            data_nodes: 2 + (seed as usize % 4),
            max_fanout: 3,
            weights: FrequencyDist::Zipf {
                theta: 0.9,
                scale: 100.0,
            },
        };
        let tree = random_tree(&cfg, seed);
        for k in 1..=3usize {
            let pruned =
                best_first::search(&tree, k, &BestFirstOptions::default()).expect("no limit");
            let unpruned_opts = BestFirstOptions {
                pruned: false,
                ..BestFirstOptions::default()
            };
            let unpruned = best_first::search(&tree, k, &unpruned_opts).expect("no limit");
            assert_eq!(unpruned.data_wait, pruned.data_wait, "seed={seed} k={k}");
            unpruned
                .schedule
                .into_allocation(&tree, k)
                .expect("unpruned schedule feasible");
        }
    }
}
