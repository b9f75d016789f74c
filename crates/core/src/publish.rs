//! One-call fused publish: heuristic order → slot plan → compiled routes.
//!
//! A [`PublishWorkspace`] owns every scratch buffer the heuristics and
//! the fused [`PublishPipeline`] need, so a steady-state republish — the
//! adaptive controller's rebuild loop, a periodic workload refresh —
//! performs no heap allocation after warm-up: orders are emitted into a
//! reused `Vec`, packed into a reused [`SlotPlan`], and compiled into the
//! pipeline's spare route table in a single traversal. A [`Publisher`]
//! holds the program it serves and publishes either through a workspace
//! of its own ([`Publisher::publish`]) or through one it borrows
//! ([`Publisher::publish_in`]); both run the same code. A serving lane
//! lends one workspace to every tenant it runs, so each tenant keeps only
//! its program between republishes.
//!
//! A publish builds nothing for the delta lane. A successful `Sorting`
//! run through the publisher's own workspace only records that its order
//! and plan can seed the lane's diff state;
//! [`Publisher::republish_delta`] builds that state on its first call, so
//! a publisher that never calls it never pays for it.
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

/// Every buffer a publish writes and then leaves idle until the next one:
/// the heuristics' scratch, the node order, the slot plan, and the fused
/// pipeline's placement columns and spare route table.
///
/// A publish initializes each buffer before it reads it, so one workspace
/// serves any number of publishers in turn and carries nothing from one
/// to the next; a publish abandoned midway (a panic caught above it)
/// leaves nothing the next one reads. The buffers grow to the largest
/// catalog published through them and are never shrunk.
#[derive(Debug, Default)]
pub struct PublishWorkspace {
    pub(crate) sort: SortScratch,
    pack: PackScratch,
    pub(crate) order: Vec<NodeId>,
    pub(crate) plan: SlotPlan,
    pub(crate) pipeline: PublishPipeline,
}

impl PublishWorkspace {
    /// An empty workspace; it allocates nothing until its first publish.
    pub fn new() -> Self {
        PublishWorkspace::default()
    }

    /// Schedules `tree` onto `k` channels with `heuristic` and compiles
    /// the route tables into `served` (see [`Publisher::publish`]).
    fn publish(
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
}

/// The program a tenant serves, plus the means to republish it.
///
/// See the [module docs](self) for the allocation discipline. The program
/// returned by [`publish`](Publisher::publish) stays valid (and served via
/// [`current`](Publisher::current)) until the *next successful* publish;
/// a failed publish leaves it untouched.
#[derive(Debug, Default)]
pub struct Publisher {
    /// The workspace of [`publish`](Publisher::publish) and the delta
    /// lane. A publisher that only publishes through borrowed workspaces
    /// never sizes it.
    pub(crate) work: PublishWorkspace,
    /// The program on air: the last successful publish.
    pub(crate) served: CompiledProgram,
    /// Channel count of the program on air.
    channels: usize,
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
    /// route tables, reusing every buffer of this publisher's own
    /// workspace from previous calls.
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
        // Only the Sorting heuristic has an incremental twin, so only a
        // successful Sorting run leaves an order and plan the delta lane
        // can build its baseline from; anything else, a failure included,
        // makes the next `republish_delta` fall back cleanly.
        self.delta.invalidate();
        self.work.publish(tree, k, heuristic, &mut self.served)?;
        self.channels = k;
        if heuristic == PublishHeuristic::Sorting {
            self.delta.mark_seedable(tree, k);
        }
        Ok(&self.served)
    }

    /// [`publish`](Publisher::publish) through a borrowed workspace: the
    /// same code and the same program, with every buffer it writes left
    /// in `work`, so this publisher keeps only the program. That leaves
    /// no order or plan here for the delta lane to build from, so the
    /// next [`republish_delta`](Publisher::republish_delta) falls back
    /// to a full publish.
    ///
    /// # Errors
    /// As [`publish`](Publisher::publish); a failure leaves the served
    /// program untouched.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn publish_in(
        &mut self,
        work: &mut PublishWorkspace,
        tree: &IndexTree,
        k: usize,
        heuristic: PublishHeuristic,
    ) -> Result<&CompiledProgram, FeasibilityError> {
        self.delta.invalidate();
        work.publish(tree, k, heuristic, &mut self.served)?;
        self.channels = k;
        Ok(&self.served)
    }

    /// The route tables of the most recent successful publish (empty
    /// tables if none yet).
    pub fn current(&self) -> &CompiledProgram {
        &self.served
    }

    /// Captures the served program into a checksummed snapshot image
    /// (see [`bcast_channel::snapshot`]). `tree` must be the tree of the
    /// last publish — its data catalog is stored so a cold-start can
    /// rebuild the item → node map without the tree.
    pub fn snapshot_image(&self, tree: &IndexTree) -> bcast_channel::SnapshotImage {
        bcast_channel::SnapshotImage::capture(&self.served, self.channels, tree.data_nodes())
    }

    /// Installs a snapshot-loaded program as the served one, bypassing
    /// the publish path entirely — the microsecond cold-start. The
    /// incremental delta state is invalidated and the workspace's
    /// placement forgotten (there is no diff baseline for a program this
    /// publisher never derived), so the next `republish_delta` falls back
    /// to a full publish cleanly.
    ///
    /// # Panics
    /// Panics if `channels == 0`.
    pub fn adopt_snapshot(&mut self, program: CompiledProgram, channels: usize) {
        assert!(channels > 0, "need at least one channel");
        self.served = program;
        self.channels = channels;
        self.work.pipeline.forget_placement();
        self.delta.invalidate();
    }

    /// The slot plan behind the most recent publish attempt through this
    /// publisher's own workspace.
    pub fn plan(&self) -> &SlotPlan {
        &self.work.plan
    }

    /// The fused pipeline of this publisher's own workspace (bucket
    /// addresses, program materialization for oracle checks), as its last
    /// publish left it.
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
    fn a_borrowed_workspace_publishes_like_an_own_one_and_seeds_no_delta_lane() {
        use crate::{DeltaLane, DeltaOptions, FullReason};
        use bcast_index_tree::knary;
        use bcast_types::Weight;
        let zipf: Vec<Weight> = (0..300)
            .map(|i| Weight::new(1.0 / (i + 1) as f64).unwrap())
            .collect();
        let trees = [
            knary::build_weight_balanced_unlabeled(&zipf, 4).unwrap(),
            builders::paper_example(),
        ];
        // Two publishers take turns on one workspace, alternating a large
        // and a small tree: each publish must come out as a fresh
        // publisher's would, whatever the workspace held before. The
        // workspace first holds a publish abandoned midway: a chain too
        // deep to route is ordered and packed, then refused.
        let mut work = PublishWorkspace::new();
        let mut borrowers = [Publisher::new(), Publisher::new()];
        let opts = PublishOptions::default();
        let deep = builders::chain(&vec![Weight::from(1u32); 65_535]).unwrap();
        let refused = borrowers[0].publish_in(&mut work, &deep, 2, PublishHeuristic::Sorting);
        assert_eq!(refused, Err(FeasibilityError::TreeTooDeep(65_536)));
        assert_eq!(*borrowers[0].current(), CompiledProgram::default());
        for k in [1usize, 3] {
            for h in [
                PublishHeuristic::Sorting,
                PublishHeuristic::Frontier,
                PublishHeuristic::Shrink { max_nodes: 6 },
                PublishHeuristic::Preorder,
            ] {
                for (p, t) in borrowers.iter_mut().zip(&trees) {
                    let served = p.publish_in(&mut work, t, k, h).unwrap().clone();
                    let mut fresh = Publisher::new();
                    assert_eq!(
                        served,
                        *fresh.publish(t, k, h, opts).unwrap(),
                        "{h:?}, k = {k}"
                    );
                }
            }
        }
        // The borrowers sized nothing of their own and left the delta lane
        // no baseline: its next call falls back to a full publish.
        let [p, _] = &mut borrowers;
        assert_eq!(p.work.order.capacity(), 0);
        assert_eq!(p.plan().node_count(), 0);
        let report = p
            .republish_delta(
                &trees[0],
                &[],
                3,
                PublishHeuristic::Sorting,
                opts,
                DeltaOptions { max_touched: 1.0 },
            )
            .unwrap();
        assert_eq!(report.lane, DeltaLane::Full(FullReason::ColdState));
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
