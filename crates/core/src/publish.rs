//! One-call fused publish: heuristic order → slot plan → compiled routes.
//!
//! A [`PublishWorkspace`] owns every scratch buffer the heuristics and
//! the fused [`PublishPipeline`] need, so a steady-state republish — the
//! adaptive controller's rebuild loop, a periodic workload refresh —
//! performs no heap allocation after warm-up: orders are emitted into a
//! reused `Vec`, packed into a reused [`SlotPlan`], and compiled into the
//! pipeline's spare route table in a single traversal.
//! [`PublishWorkspace::publish`] writes into a program the caller keeps,
//! so one workspace serves any number of programs in turn: a serving lane
//! lends one to every tenant it runs, and each tenant keeps only its
//! program between republishes. A [`Publisher`] is a workspace and the
//! program it serves, for callers that publish one program.
//!
//! The output is bit-identical to the legacy three-pass path
//! (`Schedule` → `Allocation::from_slot_schedule` →
//! `BroadcastProgram::build` → `CompiledProgram::compile`) because the
//! heuristic entry points are thin wrappers over the same `_into` engines
//! this module drives (property-tested in `tests/publish_pipeline.rs`).

use crate::heuristics::shrink::combine_order_into;
use crate::heuristics::sorting::{density_rank_into, sorted_preorder_into, SortScratch};
use crate::schedule::{greedy_pack_into, PackScratch};
use bcast_channel::{CompiledProgram, FeasibilityError, PublishPipeline, SlotPlan};
use bcast_index_tree::IndexTree;
use bcast_types::{NodeId, Weight};

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
/// so existing callers of [`Publisher::publish`] keep compiling. Build it
/// with `PublishOptions::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct PublishOptions;

/// The argument of [`Publisher::republish_delta`], kept only so its
/// callers compile: the incremental patch lane it tuned is gone, and
/// `max_touched` is unread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaOptions {
    /// Unread.
    pub max_touched: f64,
}

/// Every buffer a publish writes and then leaves idle until the next one:
/// the heuristics' scratch, the node order, the slot plan, and the fused
/// pipeline's placement columns and spare route table.
///
/// A publish initializes each buffer before it reads it, so one workspace
/// serves any number of programs in turn and carries nothing from one to
/// the next; a publish abandoned midway (a panic caught above it) leaves
/// nothing the next one reads. The buffers grow to the largest catalog
/// published through them and are never shrunk.
#[derive(Debug, Default)]
pub struct PublishWorkspace {
    sort: SortScratch,
    pack: PackScratch,
    order: Vec<NodeId>,
    plan: SlotPlan,
    pipeline: PublishPipeline,
}

impl PublishWorkspace {
    /// An empty workspace; it allocates nothing until its first publish.
    pub fn new() -> Self {
        PublishWorkspace::default()
    }

    /// Schedules `tree` onto `k` channels with `heuristic` and compiles
    /// the route tables into `served`, reusing every buffer of this
    /// workspace from previous calls. On success the new program replaces
    /// `served`; on error `served` is left untouched.
    ///
    /// # Errors
    /// Propagates the pipeline's feasibility errors:
    /// [`FeasibilityError::TreeTooDeep`] for a tree deeper than
    /// [`MAX_ROUTE_DEPTH`](bcast_channel::MAX_ROUTE_DEPTH) levels.
    /// Otherwise the built-in heuristics always produce feasible plans, so
    /// an error indicates a bug.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn publish(
        &mut self,
        tree: &IndexTree,
        k: usize,
        heuristic: PublishHeuristic,
        served: &mut CompiledProgram,
    ) -> Result<(), FeasibilityError> {
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
        self.pipeline.publish(tree, &self.plan, k, served)
    }

    /// The slot plan behind the most recent publish attempt through this
    /// workspace.
    pub fn plan(&self) -> &SlotPlan {
        &self.plan
    }
}

/// A [`PublishWorkspace`] and the program it serves.
///
/// See the [module docs](self) for the allocation discipline. The program
/// returned by [`publish`](Publisher::publish) stays valid (and served via
/// [`current`](Publisher::current)) until the *next successful* publish;
/// a failed publish leaves it untouched.
#[derive(Debug, Default)]
pub struct Publisher {
    work: PublishWorkspace,
    /// The program on air: the last successful publish.
    served: CompiledProgram,
}

impl Publisher {
    /// Empty publisher; the first publish sizes all buffers.
    pub fn new() -> Self {
        Publisher::default()
    }

    /// [`PublishWorkspace::publish`] through this publisher's workspace
    /// into the program it serves, which it returns.
    ///
    /// # Errors
    /// As [`PublishWorkspace::publish`]; the served program (see
    /// [`current`](Publisher::current)) is left untouched.
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
        self.work.publish(tree, k, heuristic, &mut self.served)?;
        Ok(&self.served)
    }

    /// A full [`publish`](Publisher::publish) of `tree`, which the caller
    /// has already reweighted by `changes`. Kept only so its callers
    /// compile: the incremental patch lane it once ran is gone, and
    /// `changes` and `delta` are unread.
    ///
    /// # Errors
    /// As [`publish`](Publisher::publish).
    pub fn republish_delta(
        &mut self,
        tree: &IndexTree,
        _changes: &[(NodeId, Weight)],
        k: usize,
        heuristic: PublishHeuristic,
        opts: PublishOptions,
        _delta: DeltaOptions,
    ) -> Result<(), FeasibilityError> {
        self.publish(tree, k, heuristic, opts).map(|_| ())
    }

    /// The route tables of the most recent successful publish (empty
    /// tables if none yet).
    pub fn current(&self) -> &CompiledProgram {
        &self.served
    }

    /// The slot plan behind the most recent publish attempt.
    pub fn plan(&self) -> &SlotPlan {
        self.work.plan()
    }

    /// The fused pipeline (bucket addresses, program materialization for
    /// oracle checks), as the last publish left it.
    pub fn pipeline(&self) -> &PublishPipeline {
        &self.work.pipeline
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
    fn a_shared_workspace_publishes_each_program_like_a_fresh_one() {
        use bcast_index_tree::knary;
        use bcast_types::Weight;
        let zipf: Vec<Weight> = (0..300)
            .map(|i| Weight::new(1.0 / (i + 1) as f64).unwrap())
            .collect();
        let trees = [
            knary::build_weight_balanced_unlabeled(&zipf, 4).unwrap(),
            builders::paper_example(),
        ];
        // Two programs take turns on one workspace, alternating a large
        // and a small tree: each publish must come out as a fresh
        // publisher's would, whatever the workspace held before. The
        // workspace first holds a publish abandoned midway: a chain too
        // deep to route is ordered and packed, then refused.
        let mut work = PublishWorkspace::new();
        let mut served = [CompiledProgram::default(), CompiledProgram::default()];
        let deep = builders::chain(&vec![Weight::from(1u32); 65_535]).unwrap();
        let refused = work.publish(&deep, 2, PublishHeuristic::Sorting, &mut served[0]);
        assert_eq!(refused, Err(FeasibilityError::TreeTooDeep(65_536)));
        assert_eq!(served[0], CompiledProgram::default());
        for k in [1usize, 3] {
            for h in [
                PublishHeuristic::Sorting,
                PublishHeuristic::Frontier,
                PublishHeuristic::Shrink { max_nodes: 6 },
                PublishHeuristic::Preorder,
            ] {
                for (program, t) in served.iter_mut().zip(&trees) {
                    work.publish(t, k, h, program).unwrap();
                    let mut fresh = Publisher::new();
                    let opts = PublishOptions::default();
                    assert_eq!(
                        *program,
                        *fresh.publish(t, k, h, opts).unwrap(),
                        "{h:?}, k = {k}"
                    );
                }
            }
        }
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
