//! One-call optimal allocation with automatic strategy dispatch.

use crate::best_first::{self, BestFirstOptions, SearchStats};
use crate::bound::BoundKind;
use crate::corollary;
use crate::data_tree;
use crate::schedule::Schedule;
use crate::topo_tree;
use bcast_index_tree::IndexTree;
use std::fmt;

/// Search strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Pick the cheapest exact strategy for the instance: Corollary 1 when
    /// `k ≥` the widest level, the §3.3 data tree for `k = 1`, the pruned
    /// best-first search otherwise.
    #[default]
    Auto,
    /// Best-first over the pruned topological tree (any `k`).
    BestFirst,
    /// Best-first over the *unpruned* Algorithm-1 tree (ablation).
    BestFirstUnpruned,
    /// §3.3 data-tree branch and bound (requires `k = 1`).
    DataTree,
    /// Full enumeration (tiny instances; ground truth).
    Exhaustive,
    /// Level-by-level closed form (requires `k ≥` widest level).
    Corollary1,
}

/// Options for [`find_optimal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimalOptions {
    /// Strategy selection.
    pub strategy: Strategy,
    /// Bound for the best-first strategies.
    pub bound: BoundKind,
    /// Node budget for the best-first strategies (`None` = unlimited).
    pub node_limit: Option<u64>,
}

/// An optimal allocation and how it was obtained.
#[derive(Debug, Clone)]
pub struct OptimalResult {
    /// An optimal schedule.
    pub schedule: Schedule,
    /// Its average data wait (formula 1).
    pub data_wait: f64,
    /// Search effort (states/paths, strategy-specific; 0 for Corollary 1).
    pub nodes_expanded: u64,
    /// Bound and dominance-layer counters (all zero for strategies without
    /// a bounded frontier: Corollary 1, data tree, exhaustive).
    pub stats: SearchStats,
    /// The strategy that actually ran.
    pub strategy_used: Strategy,
}

/// Search failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The node budget was exhausted; use a heuristic or raise the limit.
    NodeLimitExceeded {
        /// The exceeded limit.
        limit: u64,
    },
    /// The strategy cannot handle this instance (e.g. `DataTree` with
    /// `k > 1`, `Corollary1` with too few channels).
    StrategyInapplicable {
        /// The strategy that was requested.
        strategy: Strategy,
        /// Why it cannot run.
        reason: &'static str,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::NodeLimitExceeded { limit } => {
                write!(f, "search exceeded node limit {limit}")
            }
            SearchError::StrategyInapplicable { strategy, reason } => {
                write!(f, "{strategy:?} inapplicable: {reason}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// Finds a provably optimal k-channel allocation for `tree`.
///
/// ```
/// use bcast_core::{find_optimal, OptimalOptions};
/// use bcast_index_tree::builders;
///
/// let tree = builders::paper_example();
/// let result = find_optimal(&tree, 2, &OptimalOptions::default()).unwrap();
/// assert!((result.data_wait - 264.0 / 70.0).abs() < 1e-9);
/// ```
pub fn find_optimal(
    tree: &IndexTree,
    k: usize,
    opts: &OptimalOptions,
) -> Result<OptimalResult, SearchError> {
    assert!(k >= 1, "need at least one channel");
    let strategy = match opts.strategy {
        Strategy::Auto => {
            if corollary::applies(tree, k) {
                Strategy::Corollary1
            } else if k == 1 {
                Strategy::DataTree
            } else {
                Strategy::BestFirst
            }
        }
        s => s,
    };
    match strategy {
        Strategy::Auto => unreachable!("resolved above"),
        Strategy::Corollary1 => {
            if !corollary::applies(tree, k) {
                return Err(SearchError::StrategyInapplicable {
                    strategy,
                    reason: "needs k >= widest tree level",
                });
            }
            let schedule = corollary::level_schedule(tree);
            let data_wait = schedule.average_data_wait(tree);
            Ok(OptimalResult {
                schedule,
                data_wait,
                nodes_expanded: 0,
                stats: SearchStats::default(),
                strategy_used: strategy,
            })
        }
        Strategy::DataTree => {
            if k != 1 {
                return Err(SearchError::StrategyInapplicable {
                    strategy,
                    reason: "the data tree handles a single channel only",
                });
            }
            let r = data_tree::search_optimal_limited(tree, opts.node_limit)
                .map_err(|limit| SearchError::NodeLimitExceeded { limit })?;
            Ok(OptimalResult {
                schedule: r.schedule,
                data_wait: r.data_wait,
                nodes_expanded: r.nodes_expanded,
                stats: SearchStats::default(),
                strategy_used: strategy,
            })
        }
        Strategy::BestFirst | Strategy::BestFirstUnpruned => {
            let bf = BestFirstOptions {
                pruned: strategy == Strategy::BestFirst,
                bound: opts.bound,
                property1: true,
                node_limit: opts.node_limit,
            };
            let r = best_first::search(tree, k, &bf)
                .map_err(|e| SearchError::NodeLimitExceeded { limit: e.limit })?;
            Ok(OptimalResult {
                schedule: r.schedule,
                data_wait: r.data_wait,
                nodes_expanded: r.nodes_expanded,
                stats: r.stats,
                strategy_used: strategy,
            })
        }
        Strategy::Exhaustive => {
            let r = topo_tree::solve_exhaustive_limited(tree, k, opts.node_limit)
                .map_err(|limit| SearchError::NodeLimitExceeded { limit })?;
            Ok(OptimalResult {
                schedule: r.schedule,
                data_wait: r.data_wait,
                nodes_expanded: r.paths as u64,
                stats: SearchStats::default(),
                strategy_used: strategy,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_index_tree::builders;
    use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};
    // Selective import: `proptest::prelude::*` would shadow our `Strategy`
    // enum with proptest's `Strategy` trait.
    use proptest::prelude::{prop_assert, proptest, ProptestConfig};

    #[test]
    fn auto_dispatch_picks_expected_strategies() {
        let t = builders::paper_example();
        let opts = OptimalOptions::default();
        assert_eq!(
            find_optimal(&t, 1, &opts).unwrap().strategy_used,
            Strategy::DataTree
        );
        assert_eq!(
            find_optimal(&t, 2, &opts).unwrap().strategy_used,
            Strategy::BestFirst
        );
        assert_eq!(
            find_optimal(&t, 4, &opts).unwrap().strategy_used,
            Strategy::Corollary1
        );
    }

    #[test]
    fn all_strategies_agree_on_paper_example() {
        let t = builders::paper_example();
        for k in 1..=4usize {
            let reference = find_optimal(
                &t,
                k,
                &OptimalOptions {
                    strategy: Strategy::Exhaustive,
                    ..OptimalOptions::default()
                },
            )
            .unwrap();
            let strategies: Vec<Strategy> = match k {
                1 => vec![
                    Strategy::Auto,
                    Strategy::DataTree,
                    Strategy::BestFirst,
                    Strategy::BestFirstUnpruned,
                ],
                4 => vec![Strategy::Auto, Strategy::Corollary1, Strategy::BestFirst],
                _ => vec![
                    Strategy::Auto,
                    Strategy::BestFirst,
                    Strategy::BestFirstUnpruned,
                ],
            };
            for s in strategies {
                let r = find_optimal(
                    &t,
                    k,
                    &OptimalOptions {
                        strategy: s,
                        ..OptimalOptions::default()
                    },
                )
                .unwrap();
                assert!(
                    (r.data_wait - reference.data_wait).abs() < 1e-9,
                    "k={k} strategy={s:?}: {} vs {}",
                    r.data_wait,
                    reference.data_wait
                );
            }
        }
    }

    #[test]
    fn inapplicable_strategies_error() {
        let t = builders::paper_example();
        let err = find_optimal(
            &t,
            2,
            &OptimalOptions {
                strategy: Strategy::DataTree,
                ..OptimalOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SearchError::StrategyInapplicable { .. }));
        let err = find_optimal(
            &t,
            2,
            &OptimalOptions {
                strategy: Strategy::Corollary1,
                ..OptimalOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SearchError::StrategyInapplicable { .. }));
    }

    #[test]
    fn node_limit_propagates() {
        let t = builders::paper_example();
        let err = find_optimal(
            &t,
            2,
            &OptimalOptions {
                strategy: Strategy::BestFirst,
                node_limit: Some(1),
                ..OptimalOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, SearchError::NodeLimitExceeded { limit: 1 });
    }

    #[test]
    fn limited_exhaustive_walks_once_and_honors_the_limit() {
        let t = builders::paper_example();
        for k in 1..=3usize {
            let exhaustive = |node_limit| {
                find_optimal(
                    &t,
                    k,
                    &OptimalOptions {
                        strategy: Strategy::Exhaustive,
                        node_limit,
                        ..OptimalOptions::default()
                    },
                )
            };
            let unlimited = exhaustive(None).unwrap();
            let paths = u64::try_from(topo_tree::count_paths(&t, k)).unwrap();
            assert_eq!(unlimited.nodes_expanded, paths);
            let within = exhaustive(Some(paths)).unwrap();
            assert_eq!(within.nodes_expanded, paths, "k={k}");
            assert_eq!(within.data_wait.to_bits(), unlimited.data_wait.to_bits());
            assert_eq!(within.schedule.slots(), unlimited.schedule.slots());
            assert_eq!(
                exhaustive(Some(paths - 1)).unwrap_err(),
                SearchError::NodeLimitExceeded { limit: paths - 1 }
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn auto_matches_exhaustive(n in 2usize..6, k in 1usize..5, seed in 0u64..300) {
            let cfg = RandomTreeConfig {
                data_nodes: n,
                max_fanout: 3,
                weights: FrequencyDist::Uniform { lo: 1.0, hi: 50.0 },
            };
            let t = random_tree(&cfg, seed);
            let auto = find_optimal(&t, k, &OptimalOptions::default()).unwrap();
            let exact = find_optimal(&t, k, &OptimalOptions {
                strategy: Strategy::Exhaustive,
                ..OptimalOptions::default()
            }).unwrap();
            prop_assert!((auto.data_wait - exact.data_wait).abs() < 1e-9,
                "n={n} k={k} seed={seed}: {:?} {} vs exhaustive {}",
                auto.strategy_used, auto.data_wait, exact.data_wait);
            auto.schedule.into_allocation(&t, k).unwrap();
        }
    }
}
