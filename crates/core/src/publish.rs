//! One-call fused publish: heuristic order → slot plan → compiled routes.
//!
//! [`Publisher`] owns every scratch buffer the heuristics and the fused
//! [`PublishPipeline`] need, so a steady-state republish — the adaptive
//! controller's rebuild loop, a periodic workload refresh — performs no
//! heap allocation after warm-up: orders are emitted into a reused `Vec`,
//! packed into a reused [`SlotPlan`], and compiled into the pipeline's
//! double-buffered route tables in a single traversal.
//!
//! A publish builds nothing for the delta lane. A successful `Sorting`
//! run only records that its order and plan can seed the lane's diff
//! state; [`Publisher::republish_delta`] builds that state on its first
//! call, so a publisher that never calls it never pays for it.
//!
//! The output is bit-identical to the legacy three-pass path
//! (`Schedule` → `Allocation::from_slot_schedule` →
//! `BroadcastProgram::build` → `CompiledProgram::compile`) because the
//! heuristic entry points are thin wrappers over the same `_into` engines
//! this struct drives (property-tested in `tests/publish_pipeline.rs`).

use crate::heuristics::shrink::combine_order_into;
use crate::heuristics::sorting::{density_rank_into, sorted_preorder_into, SortScratch};
use crate::schedule::{greedy_pack_into, PackScratch};
use bcast_channel::{CompiledProgram, FeasibilityError, PublishPipeline, SlotPlan};
use bcast_index_tree::IndexTree;
use bcast_types::NodeId;

/// Which scheduling policy drives a [`Publisher::publish`] call. Each one
/// is a node order; [`greedy_pack_into`] turns any of them into the slot
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishHeuristic {
    /// §4.2 index-tree sorting: the density-sorted preorder, distributed
    /// with `1_To_k_BroadcastChannel` (the paper's scalable heuristic;
    /// matches [`crate::heuristics::sorting::sorting_schedule`]).
    Sorting,
    /// Frontier-greedy scheduling (our extension; matches
    /// [`crate::baselines::greedy_frontier`]): every node ranked by the
    /// same density key across the whole tree instead of within each
    /// child range.
    Frontier,
    /// §4.2 index-tree shrinking via node combination: shrink to
    /// `max_nodes`, solve exactly, expand, repack greedily (matches
    /// [`crate::heuristics::shrink::combine_solve`]).
    Shrink {
        /// Reduced-instance size budget for the exact inner solve.
        max_nodes: usize,
    },
    /// Plain preorder packed greedily — the naive baseline (matches
    /// [`crate::baselines::preorder_schedule`]).
    Preorder,
}

/// Options for a publish call. There are none left: the parameter stays
/// so existing callers of [`Publisher::publish`] and
/// [`Publisher::republish_delta`] keep compiling. Build it with
/// `PublishOptions::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct PublishOptions;

/// Reusable publish engine: heuristic scratch + slot plan + fused pipeline.
///
/// See the [module docs](self) for the allocation discipline. The program
/// returned by [`publish`](Publisher::publish) stays valid (and served via
/// [`current`](Publisher::current)) until the *next successful* publish;
/// a failed publish leaves it untouched.
#[derive(Debug, Default)]
pub struct Publisher {
    pub(crate) sort: SortScratch,
    pack: PackScratch,
    pub(crate) order: Vec<NodeId>,
    pub(crate) plan: SlotPlan,
    pub(crate) pipeline: PublishPipeline,
    /// Diff state of the incremental republish lane
    /// ([`Publisher::republish_delta`] in [`crate::delta`]). A publish
    /// only records whether its order and plan can seed it; the lane
    /// builds it from them on its first call.
    pub(crate) delta: crate::delta::DeltaState,
}

impl Publisher {
    /// Empty publisher; the first publish sizes all buffers.
    pub fn new() -> Self {
        Publisher::default()
    }

    /// Schedules `tree` onto `k` channels with `heuristic` and compiles the
    /// route tables, reusing every buffer from previous calls.
    ///
    /// # Errors
    /// Propagates the pipeline's feasibility errors:
    /// [`FeasibilityError::TreeTooDeep`] for a tree deeper than
    /// [`MAX_ROUTE_DEPTH`](bcast_channel::MAX_ROUTE_DEPTH) levels.
    /// Otherwise the built-in heuristics always produce feasible plans, so
    /// an error indicates a bug — but the served program (see
    /// [`current`](Publisher::current)) is left untouched either way.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn publish(
        &mut self,
        tree: &IndexTree,
        k: usize,
        heuristic: PublishHeuristic,
        _: PublishOptions,
    ) -> Result<&CompiledProgram, FeasibilityError> {
        let order: &[NodeId] = match heuristic {
            PublishHeuristic::Sorting => {
                sorted_preorder_into(tree, &mut self.sort, &mut self.order);
                &self.order
            }
            PublishHeuristic::Frontier => {
                density_rank_into(tree, &mut self.sort, &mut self.order);
                &self.order
            }
            PublishHeuristic::Shrink { max_nodes } => {
                combine_order_into(tree, max_nodes, &mut self.order);
                &self.order
            }
            PublishHeuristic::Preorder => tree.preorder(),
        };
        greedy_pack_into(order, tree, k, &mut self.pack, &mut self.plan);
        // Only the Sorting heuristic has an incremental twin, so only a
        // successful Sorting run leaves an order and plan the delta lane
        // can build its baseline from; anything else, a failure included,
        // makes the next `republish_delta` fall back cleanly.
        self.delta.invalidate();
        self.pipeline.publish(tree, &self.plan, k)?;
        if heuristic == PublishHeuristic::Sorting {
            self.delta.mark_seedable(tree, k);
        }
        Ok(self.pipeline.current())
    }

    /// The route tables of the most recent successful publish (empty
    /// tables if none yet).
    pub fn current(&self) -> &CompiledProgram {
        self.pipeline.current()
    }

    /// Captures the served program into a checksummed snapshot image
    /// (see [`bcast_channel::snapshot`]). `tree` must be the tree of the
    /// last publish — its data catalog is stored so a cold-start can
    /// rebuild the item → node map without the tree.
    pub fn snapshot_image(&self, tree: &IndexTree) -> bcast_channel::SnapshotImage {
        self.pipeline.snapshot_image(tree.data_nodes())
    }

    /// Installs a snapshot-loaded program as the served one, bypassing
    /// the publish path entirely — the microsecond cold-start. The
    /// incremental delta state is invalidated (there is no diff baseline
    /// for a program this publisher never derived), so the next
    /// `republish_delta` falls back to a full publish cleanly.
    pub fn adopt_snapshot(&mut self, program: CompiledProgram, channels: usize) {
        self.pipeline.adopt_program(program, channels);
        self.delta.invalidate();
    }

    /// The slot plan behind the most recent publish attempt.
    pub fn plan(&self) -> &SlotPlan {
        &self.plan
    }

    /// The underlying fused pipeline (bucket addresses, program
    /// materialization for oracle checks).
    pub fn pipeline(&self) -> &PublishPipeline {
        &self.pipeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;
    use crate::heuristics::{shrink, sorting};
    use bcast_channel::BroadcastProgram;
    use bcast_index_tree::builders;

    /// The legacy three-pass path for a schedule.
    fn three_pass(s: &crate::Schedule, tree: &IndexTree, k: usize) -> CompiledProgram {
        let alloc = s.into_allocation(tree, k).expect("feasible");
        let program = BroadcastProgram::build(&alloc, tree).expect("valid");
        CompiledProgram::compile(&program, tree).expect("compiles")
    }

    #[test]
    fn publisher_matches_three_pass_for_every_heuristic() {
        let t = builders::paper_example();
        let mut p = Publisher::new();
        for k in 1..=3usize {
            let cases: Vec<(PublishHeuristic, crate::Schedule)> = vec![
                (PublishHeuristic::Sorting, sorting::sorting_schedule(&t, k)),
                (
                    PublishHeuristic::Frontier,
                    baselines::greedy_frontier(&t, k),
                ),
                (
                    PublishHeuristic::Shrink { max_nodes: 6 },
                    shrink::combine_solve(&t, k, 6).schedule,
                ),
                (
                    PublishHeuristic::Preorder,
                    baselines::preorder_schedule(&t, k),
                ),
            ];
            for (h, schedule) in cases {
                let fused = p.publish(&t, k, h, PublishOptions::default()).unwrap();
                let compiled = three_pass(&schedule, &t, k);
                assert_eq!(*fused, compiled, "heuristic {h:?} at k = {k}");
                assert_eq!(crate::Schedule::from_plan(p.plan()), schedule);
            }
        }
    }

    #[test]
    fn current_survives_between_publishes() {
        let t = builders::paper_example();
        let mut p = Publisher::new();
        let first = p
            .publish(&t, 2, PublishHeuristic::Sorting, PublishOptions::default())
            .unwrap()
            .clone();
        assert_eq!(*p.current(), first);
        p.publish(&t, 1, PublishHeuristic::Sorting, PublishOptions::default())
            .unwrap();
        assert_ne!(*p.current(), first, "k = 1 republish replaces the program");
    }

    #[test]
    fn reused_publisher_matches_a_fresh_one() {
        // Every heuristic shares the order buffer and the sweep's scratch;
        // switching between them on one publisher must leave nothing
        // stale behind.
        let t = builders::paper_example();
        let mut reused = Publisher::new();
        for k in [1usize, 2, 3] {
            for h in [
                PublishHeuristic::Sorting,
                PublishHeuristic::Frontier,
                PublishHeuristic::Shrink { max_nodes: 6 },
                PublishHeuristic::Preorder,
            ] {
                let a = reused
                    .publish(&t, k, h, PublishOptions::default())
                    .unwrap()
                    .clone();
                let mut fresh = Publisher::new();
                let b = fresh.publish(&t, k, h, PublishOptions::default()).unwrap();
                assert_eq!(a, *b, "heuristic {h:?} at k = {k}");
            }
        }
    }
}
