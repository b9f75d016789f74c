//! Property-based workspace tests: every heuristic and baseline produces a
//! feasible schedule bracketed by the analytic lower bound and never beats
//! the exact optimum where the optimum is computable.

use broadcast_alloc::alloc::heuristics::{shrink, sorting};
use broadcast_alloc::alloc::{baselines, find_optimal, OptimalOptions};
use broadcast_alloc::channel::cost;
use broadcast_alloc::workloads::{random_tree, FrequencyDist, RandomTreeConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn heuristics_bracketed_by_bound_and_optimum(
        n in 2usize..7,
        k in 1usize..4,
        seed in 0u64..400,
    ) {
        let cfg = RandomTreeConfig {
            data_nodes: n,
            max_fanout: 3,
            weights: FrequencyDist::Uniform { lo: 1.0, hi: 60.0 },
        };
        let tree = random_tree(&cfg, seed);
        let lower = cost::data_wait_lower_bound(&tree, k);
        let optimal = find_optimal(&tree, k, &OptimalOptions::default()).unwrap();
        prop_assert!(optimal.data_wait >= lower - 1e-9);

        for (name, wait) in [
            ("sorting", sorting::sorting_schedule(&tree, k).average_data_wait(&tree)),
            ("shrink", shrink::combine_solve(&tree, k, 6).data_wait),
            ("partition", shrink::partition_solve(&tree, k, 6).data_wait),
            ("frontier", baselines::greedy_frontier(&tree, k).average_data_wait(&tree)),
        ] {
            prop_assert!(
                wait >= optimal.data_wait - 1e-9,
                "{name} ({wait}) beat the optimum ({}) — impossible",
                optimal.data_wait
            );
        }
    }

    /// The analytic floor charges every data node the index nodes it
    /// waits behind, so it must stay admissible: never above the optimum
    /// on small trees of any fanout, never above any heuristic's or
    /// baseline's cost on larger ones.
    #[test]
    fn analytic_floor_never_exceeds_a_feasible_cost(
        n in 2usize..7,
        large in 30usize..300,
        fanout in 2usize..7,
        k in 1usize..5,
        seed in 0u64..400,
    ) {
        let small = random_tree(&RandomTreeConfig {
            data_nodes: n,
            max_fanout: fanout,
            weights: FrequencyDist::Uniform { lo: 1.0, hi: 60.0 },
        }, seed);
        let lower = cost::data_wait_lower_bound(&small, k);
        let optimal = find_optimal(&small, k, &OptimalOptions::default()).unwrap();
        prop_assert!(
            lower <= optimal.data_wait + 1e-9,
            "n={n} fanout={fanout} k={k} seed={seed}: floor {lower} above optimum {}",
            optimal.data_wait
        );

        let tree = random_tree(&RandomTreeConfig {
            data_nodes: large,
            max_fanout: fanout + 2,
            weights: FrequencyDist::Zipf { theta: 0.9, scale: 1_000.0 },
        }, seed);
        let lower = cost::data_wait_lower_bound(&tree, k);
        for (name, schedule) in [
            ("sorting", sorting::sorting_schedule(&tree, k)),
            ("shrink", shrink::combine_solve(&tree, k, 8).schedule),
            ("partition", shrink::partition_solve(&tree, k, 8).schedule),
            ("frontier", baselines::greedy_frontier(&tree, k)),
            ("preorder", baselines::preorder_schedule(&tree, k)),
            ("random", baselines::random_feasible(&tree, k, seed)),
        ] {
            let wait = schedule.average_data_wait(&tree);
            prop_assert!(
                lower <= wait + 1e-9,
                "{name}, {large} items, k={k} seed={seed}: floor {lower} above cost {wait}"
            );
        }
    }

    #[test]
    fn heuristics_feasible_on_large_irregular_trees(
        n in 50usize..400,
        k in 1usize..8,
        seed in 0u64..200,
    ) {
        let cfg = RandomTreeConfig {
            data_nodes: n,
            max_fanout: 7,
            weights: FrequencyDist::SelfSimilar { fraction: 0.25, total: 10_000.0 },
        };
        let tree = random_tree(&cfg, seed);
        for schedule in [
            sorting::sorting_schedule(&tree, k),
            shrink::combine_solve(&tree, k, 10).schedule,
            shrink::partition_solve(&tree, k, 10).schedule,
            baselines::greedy_frontier(&tree, k),
        ] {
            prop_assert_eq!(schedule.node_count(), tree.len());
            schedule.into_allocation(&tree, k).unwrap();
        }
    }

    #[test]
    fn more_channels_never_hurt_the_optimum(
        n in 2usize..6,
        seed in 0u64..200,
    ) {
        let cfg = RandomTreeConfig {
            data_nodes: n,
            max_fanout: 3,
            weights: FrequencyDist::Uniform { lo: 1.0, hi: 40.0 },
        };
        let tree = random_tree(&cfg, seed);
        let mut prev = f64::INFINITY;
        for k in 1..=4usize {
            let r = find_optimal(&tree, k, &OptimalOptions::default()).unwrap();
            prop_assert!(r.data_wait <= prev + 1e-9, "k={k}: {} > {prev}", r.data_wait);
            prev = r.data_wait;
        }
    }
}
