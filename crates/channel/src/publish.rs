//! The fused publish pipeline: slot plan → channels → route tables, one
//! pass, no intermediate per-node allocations.
//!
//! The classic path from a heuristic schedule to a servable program is
//! three separate passes, each materializing an intermediate:
//!
//! 1. [`Allocation::from_slot_schedule`](crate::Allocation::from_slot_schedule)
//!    — clones and rank-sorts every slot's member list, hashes every bucket
//!    into a collision set, then re-validates the whole mapping;
//! 2. [`BroadcastProgram::build`](crate::BroadcastProgram::build) — walks
//!    the allocation again, allocating a pointer vector per index bucket;
//! 3. [`CompiledProgram::compile`](crate::CompiledProgram::compile) — walks
//!    the pointer graph a third time to derive the flat route tables.
//!
//! Every quantity those passes compute is already determined by the slot
//! plan plus the §3.1 channel rules, so [`PublishPipeline::publish`] fuses
//! them: one sweep over the plan assigns channels (identical rule order:
//! rank-sorted members, root/parent preference, then lowest-free), checks
//! feasibility inline with flat arrays instead of a hash set, and writes
//! `T(Di)`, path lengths and cumulative channel switches directly into a
//! [`CompiledProgram`] — the same single-DFS argument as PR 3's compile
//! step, except the "DFS" degenerates to the slot sweep because parents
//! always occupy strictly earlier slots.
//!
//! The pipeline is scratch only, held apart from the program it publishes
//! for. Each publish builds into the spare route table the pipeline keeps
//! and, on success, swaps it with the served program the caller passes
//! in, so the served tables stay untouched mid-rebuild (and after a failed
//! one) and their capacity is recycled on the next epoch. Every publish
//! initializes each buffer before it reads it, so one pipeline can publish
//! for any number of served programs in turn: a serving lane shares one
//! among all its tenants. After warm-up the whole fused path performs
//! zero heap allocations (asserted by `tests/publish_pipeline.rs` under
//! the `alloc-count` counting allocator). The delta lane's
//! [`PublishPipeline::republish_delta`] seeds the spare table with one
//! copy of the served tables before it patches.
//!
//! [`SlotPlan`] is the flat schedule representation the heuristics emit
//! into: one members array plus slot boundaries, reusable across rebuilds.
//! The pointer-grid [`BroadcastProgram`] is *not* built on the hot path;
//! [`PublishPipeline::materialize_program`] reconstructs it bit-identically
//! on demand for oracle tests and wire serialization.
//!
//! Programs published here serve lossy channels unchanged: fault injection
//! and client recovery ([`crate::faults`]) operate on the compiled route
//! tables at request time via
//! [`ServeOptions::faults`](crate::compiled::ServeOptions), so a rebuild
//! under degraded delivery (see `bcast-adaptive`'s `DegradationPolicy`)
//! reuses this exact pipeline.

use crate::allocation::FeasibilityError;
use crate::compiled::{CompiledProgram, MAX_ROUTE_DEPTH};
use crate::program::{Bucket, Pointer};
use crate::BroadcastProgram;
use bcast_index_tree::IndexTree;
use bcast_types::{BucketAddr, ChannelId, NodeId, Slot};

/// A flat slot schedule: the concatenated member lists of every slot plus
/// the slot boundaries. The zero-allocation twin of a `Vec<Vec<NodeId>>`
/// slot schedule — heuristics emit into a reused plan, the pipeline reads
/// slots as subslices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotPlan {
    members: Vec<NodeId>,
    /// `slot_ends[i]` = end offset of slot `i` in `members`; committed
    /// slots only (an open slot's members trail past the last end).
    slot_ends: Vec<u32>,
}

impl SlotPlan {
    /// An empty plan.
    pub fn new() -> Self {
        SlotPlan::default()
    }

    /// Removes all slots, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.members.clear();
        self.slot_ends.clear();
    }

    /// Number of committed slots (the cycle length).
    pub fn len(&self) -> usize {
        self.slot_ends.len()
    }

    /// True if no slot has been committed.
    pub fn is_empty(&self) -> bool {
        self.slot_ends.is_empty()
    }

    /// Total members across committed slots.
    pub fn node_count(&self) -> usize {
        self.slot_ends.last().map_or(0, |&e| e as usize)
    }

    /// Appends a member to the currently open (uncommitted) slot.
    #[inline]
    pub fn push(&mut self, node: NodeId) {
        self.members.push(node);
    }

    /// Members appended to the open slot since the last commit.
    #[inline]
    pub fn open_len(&self) -> usize {
        self.members.len() - self.node_count()
    }

    /// The members of the open (uncommitted) slot.
    #[inline]
    pub fn open_members(&self) -> &[NodeId] {
        &self.members[self.node_count()..]
    }

    /// Commits the open slot.
    ///
    /// # Panics
    /// Panics if the open slot is empty — schedules never contain empty
    /// slots, and committing one would silently corrupt the cycle length.
    #[inline]
    pub fn commit_slot(&mut self) {
        assert!(self.open_len() > 0, "cannot commit an empty slot");
        self.slot_ends
            .push(u32::try_from(self.members.len()).expect("members fit in u32"));
    }

    /// The members of committed slot `i` (0-based).
    #[inline]
    pub fn slot(&self, i: usize) -> &[NodeId] {
        &self.members[self.slot_range(i)]
    }

    /// The `members` index range of committed slot `i` (0-based) — the
    /// delta republish lane maps its position-space repairs through these
    /// global offsets.
    #[inline]
    pub fn slot_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 {
            0
        } else {
            self.slot_ends[i - 1] as usize
        };
        start..self.slot_ends[i] as usize
    }

    /// The concatenated member array across committed slots, in slot-major
    /// order (see [`slot_range`](SlotPlan::slot_range) for the boundaries).
    #[inline]
    pub fn members(&self) -> &[NodeId] {
        &self.members[..self.node_count()]
    }

    /// Overwrites the member at global offset `idx` — the delta lane's
    /// patch-in-place primitive. The slot boundaries are invariant under a
    /// repack (validated repairs never change per-slot counts), so only
    /// member identities move.
    #[inline]
    pub fn set_member(&mut self, idx: usize, node: NodeId) {
        debug_assert!(idx < self.node_count(), "patch lands in a committed slot");
        self.members[idx] = node;
    }

    /// Iterates the committed slots as subslices.
    pub fn slots(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.len()).map(move |i| self.slot(i))
    }

    /// Widest committed slot (minimum feasible channel count).
    pub fn max_width(&self) -> usize {
        self.slots().map(<[NodeId]>::len).max().unwrap_or(0)
    }

    /// Average data wait (formula 1) of this plan against `tree` — the flat
    /// twin of `Schedule::average_data_wait`, bit-identical because both
    /// fold `weight · slot` in the same slot-major, member order.
    pub fn average_data_wait(&self, tree: &IndexTree) -> f64 {
        let total = tree.total_weight();
        if total.is_zero() {
            return 0.0;
        }
        let mut sum = 0.0;
        for (offset, members) in self.slots().enumerate() {
            for &n in members {
                if tree.is_data(n) {
                    sum += tree.weight(n) * (offset as u64 + 1);
                }
            }
        }
        sum / total.get()
    }
}

/// The fused publisher's scratch: reusable flat state turning a
/// [`SlotPlan`] into a servable [`CompiledProgram`] in one pass (see the
/// module docs). It holds no served program, only the spare route table
/// the next publish builds into.
#[derive(Debug, Default)]
pub struct PublishPipeline {
    /// Channel of each placed node this publish; `u16::MAX` = unplaced.
    channel_of: Vec<u16>,
    /// 1-based slot of each placed node; `0` = unplaced.
    slot_of: Vec<u32>,
    /// Cumulative channel switches on the root path, per placed node.
    switches: Vec<u32>,
    /// Per-channel occupancy of the slot being assigned.
    used: Vec<bool>,
    /// Rank-sort scratch for one slot's members.
    ordered: Vec<NodeId>,
    /// Members deferred to the lowest-free pass, in rank order.
    deferred: Vec<NodeId>,
    /// Channel count of the last successful publish, which the placement
    /// columns describe (`0` if none, or forgotten).
    num_channels: usize,
    /// The route table the next publish builds into: the tables a served
    /// program held before its last publish, capacity recycled.
    spare: CompiledProgram,
}

impl PublishPipeline {
    /// A pipeline with empty buffers; the first publish sizes everything.
    pub fn new() -> Self {
        PublishPipeline::default()
    }

    /// Fused publish: assigns channels to `plan`'s slots with the §3.1
    /// rules, validates feasibility inline, and emits the compiled route
    /// tables — all in one pass over flat arrays. On success the new
    /// program replaces `served` and `served`'s old tables become the
    /// pipeline's spare; on error `served` (the program being served) is
    /// left untouched.
    ///
    /// The hand-over is a swap, unless the spare holds more than twice
    /// the records the new program needs: then the program is copied into
    /// `served` and the spare kept, so a pipeline shared by catalogs of
    /// different sizes never leaves a small one holding a large one's
    /// tables.
    ///
    /// The result is bit-identical to the three-pass path
    /// `Allocation::from_slot_schedule` → `BroadcastProgram::build` →
    /// `CompiledProgram::compile` on the same plan (property-tested in
    /// `tests/publish_pipeline.rs`).
    ///
    /// # Errors
    /// [`FeasibilityError::TreeTooDeep`] if `tree` is deeper than
    /// [`MAX_ROUTE_DEPTH`], before any state is touched. Otherwise the
    /// same feasibility classes the three-pass path surfaces:
    /// [`FeasibilityError::BucketCollision`] when a slot holds more members
    /// than channels, [`FeasibilityError::NodePlacedTwice`] /
    /// [`FeasibilityError::NodeUnplaced`] when the plan is not a partition
    /// of the tree, [`FeasibilityError::ChildBeforeParent`] when a member's
    /// parent does not occupy a strictly earlier slot, and
    /// [`FeasibilityError::RootNotAtOrigin`] when slot 1 does not lead with
    /// the root (the fused path reports it as the collision-free errors
    /// arise, not after a separate validation sweep).
    ///
    /// # Panics
    /// Panics if `num_channels == 0` or the plan references node ids
    /// outside `tree` (both programming errors in the caller, as in the
    /// three-pass path).
    pub fn publish(
        &mut self,
        tree: &IndexTree,
        plan: &SlotPlan,
        num_channels: usize,
        served: &mut CompiledProgram,
    ) -> Result<(), FeasibilityError> {
        assert!(num_channels > 0, "need at least one channel");
        if tree.depth() > MAX_ROUTE_DEPTH {
            return Err(FeasibilityError::TreeTooDeep(tree.depth()));
        }
        let n = tree.len();
        let k = num_channels;

        self.channel_of.clear();
        self.channel_of.resize(n, u16::MAX);
        self.slot_of.clear();
        self.slot_of.resize(n, 0);
        self.switches.clear();
        self.switches.resize(n, 0);
        self.used.clear();
        self.used.resize(k, false);
        self.spare
            .reset(n, u32::try_from(plan.len()).expect("cycle fits in u32"));

        let levels = tree.level_table();
        let mut placed = 0usize;
        for (offset, members) in plan.slots().enumerate() {
            let slot = offset as u32 + 1;
            // Same member order as the three-pass path: ascending preorder
            // rank (ranks are unique, so unstable sorting is equivalent).
            self.ordered.clear();
            self.ordered.extend_from_slice(members);
            self.ordered
                .sort_unstable_by_key(|&m| tree.preorder_rank(m));
            self.used.fill(false);
            self.deferred.clear();

            // Pass 1: honor root / parent-channel preferences.
            for i in 0..self.ordered.len() {
                let node = self.ordered[i];
                let preferred = if node == tree.root() {
                    Some(0usize)
                } else {
                    match tree.parent(node) {
                        Some(p) if self.slot_of[p.index()] != 0 => {
                            Some(usize::from(self.channel_of[p.index()]))
                        }
                        _ => None,
                    }
                };
                match preferred {
                    Some(c) if c < k && !self.used[c] => {
                        self.used[c] = true;
                        self.place(tree, levels, node, c, slot)?;
                        placed += 1;
                    }
                    _ => self.deferred.push(node),
                }
            }
            // Pass 2: everything else onto the lowest free channels.
            let mut next_free = 0usize;
            for i in 0..self.deferred.len() {
                let node = self.deferred[i];
                while next_free < k && self.used[next_free] {
                    next_free += 1;
                }
                if next_free >= k {
                    return Err(FeasibilityError::BucketCollision(BucketAddr::new(
                        k - 1,
                        offset,
                    )));
                }
                self.used[next_free] = true;
                self.place(tree, levels, node, next_free, slot)?;
                placed += 1;
            }
        }

        if placed != n {
            let unplaced = (0..n)
                .find(|&i| self.slot_of[i] == 0)
                .expect("placed < n implies a hole");
            return Err(FeasibilityError::NodeUnplaced(NodeId::from_index(unplaced)));
        }
        let root = tree.root().index();
        if self.channel_of[root] != 0 || self.slot_of[root] != 1 {
            return Err(FeasibilityError::RootNotAtOrigin);
        }

        self.num_channels = k;
        if self.spare.capacity() > 2 * n {
            served.copy_from(&self.spare);
        } else {
            std::mem::swap(served, &mut self.spare);
        }
        Ok(())
    }

    /// Delta republish: patches the compiled tables instead of rebuilding
    /// them. `plan` must be the last published plan with only *validated*
    /// in-place repairs applied (same cycle length, same per-slot member
    /// counts, every member's parent still in a strictly earlier slot —
    /// `bcast_core`'s delta engine falls back to [`publish`] otherwise),
    /// and `dirty[i]` must be true for every slot whose member set changed
    /// (both the old and new slot of every moved node).
    ///
    /// The spare table is first seeded with one bit-copy of `served`'s
    /// route tables, so each patch pays one memcpy-grade O(n) copy;
    /// keeping the spare in sync instead would cost every full publish a
    /// copy whether or not a patch ever follows.
    /// Dirty slots are then re-assigned ascending with the *identical*
    /// §3.1 per-slot rules as [`publish`]: rank-sorted members,
    /// root/parent preference, lowest-free fallback.
    /// Whenever a node's `(channel, slot, switches)` triple moves, its
    /// children's slots are marked dirty — channel switches are cumulative
    /// along root paths, and children always air in strictly later slots,
    /// so the ascending sweep carries every cascade. Slots never marked
    /// dirty provably re-derive their old assignment (same members, same
    /// parent state), which is why skipping them is exact: the result is
    /// bit-identical to a full [`publish`] of the patched plan, pinned by
    /// `tests/delta_republish.rs`.
    ///
    /// On return the patched program has been swapped into `served`.
    ///
    /// # Panics
    /// Panics if no publish succeeded yet, or `tree` / `num_channels` /
    /// `dirty.len()` / `served` disagree with the last published epoch.
    ///
    /// [`publish`]: PublishPipeline::publish
    pub fn republish_delta(
        &mut self,
        tree: &IndexTree,
        plan: &SlotPlan,
        num_channels: usize,
        dirty: &mut [bool],
        served: &mut CompiledProgram,
    ) {
        let k = num_channels;
        assert_eq!(
            k, self.num_channels,
            "channel count changed; full publish required"
        );
        assert_eq!(
            self.channel_of.len(),
            tree.len(),
            "tree changed; full publish required"
        );
        assert_eq!(dirty.len(), plan.len(), "one dirty flag per slot");
        assert_eq!(
            served.cycle_len(),
            plan.len(),
            "cycle length is repack-invariant"
        );
        self.spare.copy_from(served);

        for offset in 0..plan.len() {
            if !dirty[offset] {
                continue;
            }
            let slot = offset as u32 + 1;
            let members = plan.slot(offset);
            self.ordered.clear();
            self.ordered.extend_from_slice(members);
            self.ordered
                .sort_unstable_by_key(|&m| tree.preorder_rank(m));
            self.used.fill(false);
            self.deferred.clear();

            // Pass 1: honor root / parent-channel preferences.
            for i in 0..self.ordered.len() {
                let node = self.ordered[i];
                let preferred = if node == tree.root() {
                    Some(0usize)
                } else {
                    // Parents air strictly earlier, so their patched
                    // assignment is already final in this ascending sweep.
                    tree.parent(node)
                        .map(|p| usize::from(self.channel_of[p.index()]))
                };
                match preferred {
                    Some(c) if c < k && !self.used[c] => {
                        self.used[c] = true;
                        self.patch_place(tree, node, c, slot, dirty);
                    }
                    _ => self.deferred.push(node),
                }
            }
            // Pass 2: everything else onto the lowest free channels.
            let mut next_free = 0usize;
            for i in 0..self.deferred.len() {
                let node = self.deferred[i];
                while next_free < k && self.used[next_free] {
                    next_free += 1;
                }
                debug_assert!(next_free < k, "validated repairs never widen a slot past k");
                self.used[next_free] = true;
                self.patch_place(tree, node, next_free, slot, dirty);
            }
        }

        std::mem::swap(served, &mut self.spare);
    }

    /// [`republish_delta`]'s placement: recomputes `node`'s
    /// `(channel, slot, switches)` and, only if the triple moved, updates
    /// the flat arrays, patches the route record (data nodes), and marks
    /// the children's slots dirty to carry the cascade.
    ///
    /// [`republish_delta`]: PublishPipeline::republish_delta
    #[inline]
    fn patch_place(
        &mut self,
        tree: &IndexTree,
        node: NodeId,
        channel: usize,
        slot: u32,
        dirty: &mut [bool],
    ) {
        let i = node.index();
        let switches = match tree.parent(node) {
            None => 0,
            Some(p) => {
                debug_assert!(
                    self.slot_of[p.index()] != 0 && self.slot_of[p.index()] < slot,
                    "validated repairs keep parents strictly earlier"
                );
                self.switches[p.index()] + u32::from(self.channel_of[p.index()] != channel as u16)
            }
        };
        let ch = u16::try_from(channel).expect("channel fits ChannelId");
        if self.channel_of[i] == ch && self.slot_of[i] == slot && self.switches[i] == switches {
            return;
        }
        self.channel_of[i] = ch;
        self.slot_of[i] = slot;
        self.switches[i] = switches;
        if tree.is_data(node) {
            self.spare.patch_data(node, slot, switches);
        } else {
            for &c in tree.children(node) {
                // A moved child's *new* slot is already dirty (the core
                // engine seeds both endpoints), so marking its possibly
                // stale stored slot here is safe either way.
                dirty[self.slot_of[c.index()] as usize - 1] = true;
            }
        }
    }

    /// Places `node` on `(channel, slot)`: feasibility checks, switch
    /// accumulation, and the route-table write for data nodes.
    #[inline]
    fn place(
        &mut self,
        tree: &IndexTree,
        levels: &[u32],
        node: NodeId,
        channel: usize,
        slot: u32,
    ) -> Result<(), FeasibilityError> {
        let i = node.index();
        if self.slot_of[i] != 0 {
            return Err(FeasibilityError::NodePlacedTwice(node));
        }
        let switches = match tree.parent(node) {
            None => 0,
            Some(p) => {
                let ps = self.slot_of[p.index()];
                // The three-pass path finds both "parent later" and "parent
                // missing" in its final validation sweep; inline they are
                // indistinguishable (the parent is simply not yet placed)
                // and both mean the child does not air strictly after it.
                if ps == 0 || ps >= slot {
                    return Err(FeasibilityError::ChildBeforeParent {
                        parent: p,
                        child: node,
                    });
                }
                self.switches[p.index()] + u32::from(self.channel_of[p.index()] != channel as u16)
            }
        };
        self.channel_of[i] = u16::try_from(channel).expect("channel fits ChannelId");
        self.slot_of[i] = slot;
        self.switches[i] = switches;
        if tree.is_data(node) {
            // `path_len` is the bucket count on the root..=data pointer
            // path, which the pointer-graph DFS counts one hop at a time —
            // but it is exactly the node's level, already cached.
            self.spare.record_data(node, slot, levels[i], switches);
        }
        Ok(())
    }

    /// Channel count of the last successful publish (`0` if none yet, or
    /// after [`forget_placement`](PublishPipeline::forget_placement)).
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Forgets the placement of the last publish, for a publisher that
    /// installs a program it did not derive (a validated snapshot load):
    /// [`addr`] answers `None` and [`materialize_program`] is unavailable
    /// until the next full [`publish`] re-derives the placement, so
    /// neither (nor the delta lane) can trust columns that describe
    /// another program.
    ///
    /// [`addr`]: PublishPipeline::addr
    /// [`materialize_program`]: PublishPipeline::materialize_program
    /// [`publish`]: PublishPipeline::publish
    pub fn forget_placement(&mut self) {
        self.num_channels = 0;
        self.channel_of.clear();
        self.slot_of.clear();
        self.switches.clear();
    }

    /// Reconstructs the full pointer-grid [`BroadcastProgram`] of the last
    /// successful publish — bit-identical to what
    /// [`BroadcastProgram::build`] produces from the equivalent allocation.
    /// Off the hot path by design: serving needs only the compiled tables,
    /// so the grid (and its per-bucket pointer vectors) is materialized
    /// lazily for oracle tests, rendering and wire serialization.
    ///
    /// # Panics
    /// Panics if no publish succeeded yet or `tree` is not the tree of the
    /// last publish.
    pub fn materialize_program(&self, tree: &IndexTree) -> BroadcastProgram {
        assert_eq!(
            self.channel_of.len(),
            tree.len(),
            "materialize_program requires a prior publish over the same tree"
        );
        // Every slot of a plan holds a node, so the last slot is the cycle.
        let cycle_len = self.slot_of.iter().copied().max().unwrap_or(0) as usize;
        let mut grid = vec![vec![Bucket::Empty; cycle_len]; self.num_channels];
        for i in 0..tree.len() {
            let node = NodeId::from_index(i);
            let bucket = if tree.is_data(node) {
                Bucket::Data { node }
            } else {
                let pointers = tree
                    .children(node)
                    .iter()
                    .map(|&child| Pointer {
                        child,
                        channel: ChannelId(self.channel_of[child.index()]),
                        offset: self.slot_of[child.index()] - self.slot_of[i],
                    })
                    .collect();
                Bucket::Index { node, pointers }
            };
            grid[usize::from(self.channel_of[i])][self.slot_of[i] as usize - 1] = bucket;
        }
        BroadcastProgram::from_parts(grid, cycle_len)
    }

    /// `(channel, slot)` of `node` in the last successful publish, if
    /// placed — the pipeline's equivalent of
    /// [`Allocation::addr`](crate::Allocation::addr).
    pub fn addr(&self, node: NodeId) -> Option<BucketAddr> {
        let i = node.index();
        (i < self.slot_of.len() && self.slot_of[i] != 0).then(|| BucketAddr {
            channel: ChannelId(self.channel_of[i]),
            slot: Slot(self.slot_of[i]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Allocation;
    use bcast_index_tree::builders;

    fn ids(tree: &IndexTree, labels: &[&str]) -> Vec<NodeId> {
        labels
            .iter()
            .map(|l| tree.find_by_label(l).expect("label exists"))
            .collect()
    }

    fn fig2b_plan(tree: &IndexTree) -> SlotPlan {
        let mut plan = SlotPlan::new();
        for slot in [
            vec!["1"],
            vec!["2", "3"],
            vec!["A", "B"],
            vec!["4", "E"],
            vec!["C", "D"],
        ] {
            for n in ids(tree, &slot) {
                plan.push(n);
            }
            plan.commit_slot();
        }
        plan
    }

    #[test]
    fn plan_accessors() {
        let t = builders::paper_example();
        let plan = fig2b_plan(&t);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.node_count(), 9);
        assert_eq!(plan.max_width(), 2);
        assert_eq!(plan.slot(0), &ids(&t, &["1"])[..]);
        assert_eq!(plan.slot(4), &ids(&t, &["C", "D"])[..]);
        assert!((plan.average_data_wait(&t) - 272.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn fused_publish_matches_three_pass_path() {
        let t = builders::paper_example();
        let plan = fig2b_plan(&t);
        let slots: Vec<Vec<NodeId>> = plan.slots().map(<[NodeId]>::to_vec).collect();
        let alloc = Allocation::from_slot_schedule(&slots, &t, 2).unwrap();
        let program = BroadcastProgram::build(&alloc, &t).unwrap();
        let compiled = CompiledProgram::compile(&program, &t).unwrap();

        let (mut pipe, mut served) = (PublishPipeline::new(), CompiledProgram::default());
        pipe.publish(&t, &plan, 2, &mut served).unwrap();
        assert_eq!(served, compiled);
        assert_eq!(pipe.materialize_program(&t), program);
        for i in 0..t.len() {
            let n = NodeId::from_index(i);
            assert_eq!(pipe.addr(n), alloc.addr(n));
        }
    }

    #[test]
    fn republish_reuses_buffers_and_preserves_front_on_error() {
        let t = builders::paper_example();
        let plan = fig2b_plan(&t);
        let (mut pipe, mut served) = (PublishPipeline::new(), CompiledProgram::default());
        pipe.publish(&t, &plan, 2, &mut served).unwrap();
        let good = served.clone();

        // An infeasible plan: three members into two channels.
        let mut bad = SlotPlan::new();
        for slot in [vec!["1"], vec!["2", "3"], vec!["A", "B", "E"]] {
            for n in ids(&t, &slot) {
                bad.push(n);
            }
            bad.commit_slot();
        }
        let err = pipe.publish(&t, &bad, 2, &mut served).unwrap_err();
        assert!(matches!(err, FeasibilityError::BucketCollision(_)));
        // The served program is untouched by the failed rebuild.
        assert_eq!(served, good);

        // And a successful republish swaps buffers without losing content.
        pipe.publish(&t, &plan, 2, &mut served).unwrap();
        assert_eq!(served, good);
    }

    #[test]
    fn child_before_parent_is_rejected() {
        let t = builders::paper_example();
        let mut plan = SlotPlan::new();
        // A airs in slot 1 alongside the root; its parent 2 airs later.
        for n in ids(&t, &["1", "A"]) {
            plan.push(n);
        }
        plan.commit_slot();
        for n in ids(&t, &["2", "3"]) {
            plan.push(n);
        }
        plan.commit_slot();
        let mut pipe = PublishPipeline::new();
        let err = pipe
            .publish(&t, &plan, 2, &mut CompiledProgram::default())
            .unwrap_err();
        assert!(matches!(err, FeasibilityError::ChildBeforeParent { .. }));
    }

    #[test]
    fn incomplete_plan_is_rejected() {
        let t = builders::paper_example();
        let mut plan = SlotPlan::new();
        for n in ids(&t, &["1"]) {
            plan.push(n);
        }
        plan.commit_slot();
        let mut pipe = PublishPipeline::new();
        let err = pipe
            .publish(&t, &plan, 2, &mut CompiledProgram::default())
            .unwrap_err();
        assert!(matches!(err, FeasibilityError::NodeUnplaced(_)));
    }

    /// A chain of `items` data nodes on two channels, each slot airing
    /// one spine node's data child on the parent's channel and its index
    /// child on the other, so the deepest item's route maxes out both
    /// fields: path length `items + 1`, `items − 1` channel switches.
    fn zigzag_chain(items: usize) -> (IndexTree, SlotPlan) {
        let t = builders::chain(&vec![bcast_types::Weight::from(1u32); items]).unwrap();
        let mut plan = SlotPlan::new();
        plan.push(t.root());
        plan.commit_slot();
        let mut spine = t.root();
        loop {
            let children = t.children(spine);
            for &c in children {
                plan.push(c);
            }
            plan.commit_slot();
            match children.iter().find(|&&c| !t.is_data(c)) {
                Some(&next) => spine = next,
                None => break,
            }
        }
        (t, plan)
    }

    #[test]
    fn too_deep_a_tree_is_refused_and_the_served_program_kept() {
        let t = builders::paper_example();
        let (mut pipe, mut served) = (PublishPipeline::new(), CompiledProgram::default());
        pipe.publish(&t, &fig2b_plan(&t), 2, &mut served).unwrap();
        let good = served.clone();

        // 65,535 items: 65,536 levels, one more than a route word counts.
        let (deep, plan) = zigzag_chain(65_535);
        let err = pipe.publish(&deep, &plan, 2, &mut served).unwrap_err();
        assert_eq!(err, FeasibilityError::TreeTooDeep(65_536));
        assert_eq!(served, good);

        // One level shallower publishes, bit-identical to the three-pass
        // path, with both route fields at their largest real values.
        let (t, plan) = zigzag_chain(65_534);
        assert_eq!(t.depth(), MAX_ROUTE_DEPTH);
        pipe.publish(&t, &plan, 2, &mut served).unwrap();
        let (fused, program) = (served, pipe.materialize_program(&t));
        assert_eq!(fused, CompiledProgram::compile(&program, &t).unwrap());
        let last = *t.data_nodes().last().unwrap();
        let trace = fused.access(last, Slot::FIRST).unwrap();
        assert_eq!(trace.tuning_time, MAX_ROUTE_DEPTH + 1);
        assert_eq!(trace.channel_switches, MAX_ROUTE_DEPTH - 2);
    }

    #[test]
    fn sequence_plan_matches_one_channel_path() {
        let t = builders::paper_example();
        let seq = ids(&t, &["1", "3", "E", "4", "C", "D", "2", "A", "B"]);
        let mut plan = SlotPlan::new();
        for &n in &seq {
            plan.push(n);
            plan.commit_slot();
        }
        assert_eq!(plan.len(), 9);

        let alloc = Allocation::from_sequence(&seq, &t).unwrap();
        let program = BroadcastProgram::build(&alloc, &t).unwrap();
        let compiled = CompiledProgram::compile(&program, &t).unwrap();
        let (mut pipe, mut served) = (PublishPipeline::new(), CompiledProgram::default());
        pipe.publish(&t, &plan, 1, &mut served).unwrap();
        assert_eq!(served, compiled);
        assert_eq!(pipe.materialize_program(&t), program);
    }

    #[test]
    fn a_shared_pipeline_publishes_each_program_as_a_fresh_one_would() {
        // One pipeline publishing for a large program and a small one in
        // turn: each comes out as a pipeline of its own would build it,
        // and the small one never takes over the large one's tables.
        let (small_tree, small_plan) = zigzag_chain(8);
        let (large_tree, large_plan) = zigzag_chain(200);
        let fresh = |tree: &IndexTree, plan: &SlotPlan| {
            let mut served = CompiledProgram::default();
            PublishPipeline::new()
                .publish(tree, plan, 2, &mut served)
                .unwrap();
            served
        };
        let (small_alone, large_alone) = (
            fresh(&small_tree, &small_plan),
            fresh(&large_tree, &large_plan),
        );
        let mut pipe = PublishPipeline::new();
        let (mut small, mut large) = (CompiledProgram::default(), CompiledProgram::default());
        for _ in 0..3 {
            pipe.publish(&large_tree, &large_plan, 2, &mut large)
                .unwrap();
            assert_eq!(large, large_alone);
            pipe.publish(&small_tree, &small_plan, 2, &mut small)
                .unwrap();
            assert_eq!(small, small_alone);
            assert!(
                small.capacity() <= 2 * small_tree.len(),
                "{}",
                small.capacity()
            );
        }
    }
}
