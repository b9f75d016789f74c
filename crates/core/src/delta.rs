//! Incremental delta republish: O(changed) repair of a published program.
//!
//! A full [`Publisher::publish`] recomputes the density-sorted preorder,
//! the `1_To_k` distribution and the compiled route tables from scratch —
//! 0.54 s warm at one million items — even when only a few hundred weights
//! drifted since the last epoch. This module adds the O(changed) lane
//! (ROADMAP item 2): [`Publisher::republish_delta`] diffs the incoming
//! weight changes against the served program's snapshot and repairs the
//! program *in place*, falling back to a full publish whenever a validity
//! check cannot certify bit-identity.
//!
//! ## Why localized repair is exact
//!
//! The compiled program is a pure function of the tree structure and the
//! per-parent sorted child orders: the preorder emit, the `1_To_k` slot
//! assignment and the §3.1 channel rules all consume only those. A weight
//! change therefore matters *only* through the sibling reorders it causes.
//! The lane exploits this in four stages:
//!
//! 1. **Dirty frontier** — the changed leaves' proper ancestors are the
//!    only nodes whose density keys move, so only their child ranges can
//!    reorder. Each dirty range is re-sorted from a fresh CSR copy with
//!    the *same* `sort_range` kernel the full path uses (the comparison
//!    path is a total order on `(key, id)`, the radix path is stable from
//!    ascending-id input), so the re-sorted range is bit-identical to what
//!    a full publish would produce.
//! 2. **Windows** — diffing old vs new range yields the changed child
//!    subrange; its subtrees occupy one contiguous *position window* of
//!    the emitted order, which is re-emitted by the same DFS. Windows
//!    nest or are disjoint (sibling spans), so only outermost ones run.
//! 3. **Regions** — for `k > 1`, each window's positions span a slot
//!    interval of the `1_To_k` dump. The dump is re-simulated locally over
//!    exactly those slots with a min-heap in position space, and the
//!    result is committed only if (a) every slot re-fills to its old
//!    count, (b) no pop exceeds the slot's old maximum position — every
//!    awake position *outside* the region provably exceeds it, so the
//!    local winner set equals the global one — (c) ragged slots (fewer
//!    than `k` members) drain the heap, and (d) nothing is left over
//!    after the last slot. A node whose slot moved re-anchors its
//!    out-of-region children via spawned follow-up regions; any spawn
//!    that would reach back into committed slots aborts to the full lane.
//!    Windows that touch an inner-level (pre-dump) placement, detected by
//!    conservative per-level position guards recorded during the full
//!    run, also abort — inner selection is a global order property.
//! 4. **Route patch** — [`PublishPipeline::republish_delta`] reconciles
//!    the back buffer with the served tables (an O(patched) journal
//!    replay after a previous patch; a full copy only after a full
//!    publish) and re-runs the per-slot §3.1 assignment only over dirty
//!    slots, cascading through descendants' slots when a
//!    `(channel, slot, switches)` triple moves, then swaps — downtime
//!    stays zero and the steady-state patch has no O(n) copy floor.
//!
//! Every stage either certifies the exact full-publish result or falls
//! back; `tests/delta_republish.rs` pins delta == full bit-identically
//! across random trees × heuristics × `k` × churn fractions.
//!
//! [`PublishPipeline::republish_delta`]: bcast_channel::PublishPipeline::republish_delta

use crate::heuristics::sorting::{density_key, sort_range};
use crate::publish::{PublishHeuristic, PublishOptions, Publisher};
use bcast_channel::{FeasibilityError, SlotPlan};
use bcast_index_tree::IndexTree;
use bcast_types::{NodeId, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tuning knobs for [`Publisher::republish_delta`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaOptions {
    /// Fallback threshold: when the touched fraction of the program
    /// (re-emitted order positions plus re-simulated slot positions, over
    /// the node count) exceeds this, the lane falls back to a full
    /// publish — past it, repair costs more than the rebuild it avoids.
    pub max_touched: f64,
}

impl Default for DeltaOptions {
    fn default() -> Self {
        DeltaOptions { max_touched: 0.05 }
    }
}

/// Which lane a [`Publisher::republish_delta`] call actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaLane {
    /// The program was repaired in place.
    Patched,
    /// A full publish ran instead, for the recorded reason. The output is
    /// identical either way; only the cost differs.
    Full(FullReason),
}

/// Why the delta lane fell back to a full publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullReason {
    /// No valid diff state: first publish, or the previous publish was
    /// not a successful `Sorting` run.
    ColdState,
    /// The requested heuristic has no incremental twin.
    UnsupportedHeuristic,
    /// Channel count or tree size changed since the snapshot.
    EpochShape,
    /// A window overlapped an inner-level (pre-dump) placement, whose
    /// selection is a global property of the order.
    InnerPlacement,
    /// The touched fraction exceeded [`DeltaOptions::max_touched`].
    OverBudget,
    /// A region re-simulation could not certify bit-identity (count,
    /// dominance, ragged-slot or drain check failed, or a spawned repair
    /// reached back into committed slots).
    RegionCheck,
}

/// Outcome of a [`Publisher::republish_delta`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    /// The lane taken.
    pub lane: DeltaLane,
    /// Order positions re-emitted plus slot positions re-simulated
    /// (`total` when the full lane ran).
    pub touched: usize,
    /// Node count of the published tree.
    pub total: usize,
}

impl DeltaReport {
    /// True when the in-place repair lane ran.
    pub fn is_delta(&self) -> bool {
        self.lane == DeltaLane::Patched
    }
}

/// One outermost reorder window: positions `[lo, hi)` of the emitted
/// order hold the subtrees of `parent`'s sorted children `[ci, cj)`,
/// whose relative order changed.
#[derive(Debug, Clone, Copy)]
struct Window {
    lo: u32,
    hi: u32,
    parent: NodeId,
    ci: u32,
    cj: u32,
}

/// Persistent diff state snapshotted after each full `Sorting` publish
/// (see [`crate::delta`] module docs). All buffers are reused across
/// epochs; the warm path allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct DeltaState {
    valid: bool,
    k: usize,
    n: usize,
    /// `seq[node]` = position of the node in the emitted order.
    seq: Vec<u32>,
    /// `pos_slot[pos]` = slot index (0-based) of the node at `pos`.
    pos_slot: Vec<u32>,
    /// Parallel to `plan.members()`: the position of each member, so a
    /// slot's positions are one contiguous, ascending slice.
    slot_positions: Vec<u32>,
    /// First slot committed by the `1_To_k` dump (0 when `k == 1`).
    first_dump_slot: u32,
    /// `inner_guard[level]` = one past the max position any inner-level
    /// step at `level` or deeper selected; positions below it may not be
    /// reordered without consulting the inner selection.
    inner_guard: Vec<u32>,
    /// Epoch stamps for dirty-parent dedup, keyed by node index.
    stamp: Vec<u32>,
    epoch: u32,
    dirty_parents: Vec<NodeId>,
    /// Old copy of the range being re-sorted.
    tmp_old: Vec<NodeId>,
    /// Radix ping-pong buffer for the re-sort.
    tmp_sort: Vec<NodeId>,
    windows: Vec<Window>,
    /// Slot spans `[sa, sb]` awaiting re-simulation, ascending.
    regions: Vec<(u32, u32)>,
    /// Regions spawned by slot moves, spliced in after the current one.
    spawns: Vec<(u32, u32)>,
    /// Per-slot dirty flags handed to the pipeline's route patch.
    dirty_slots: Vec<bool>,
    /// Epoch stamps for region membership, keyed by position.
    pos_stamp: Vec<u32>,
    pos_epoch: u32,
    /// Positions of the region being re-simulated.
    region_pos: Vec<u32>,
    /// Awake positions of the local dump re-simulation.
    heap: BinaryHeap<Reverse<u32>>,
    /// Committed pops of the region: `(position, new slot)` in pop order.
    popped: Vec<(u32, u32)>,
    /// Window re-emit DFS stack.
    stack: Vec<NodeId>,
}

impl DeltaState {
    /// Drops the snapshot; the next `republish_delta` takes the full lane.
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Rebuilds the snapshot after a successful full `Sorting` publish:
    /// two O(n) passes over buffers whose capacity survives, so the warm
    /// publish path stays allocation-free.
    pub(crate) fn rebuild(
        &mut self,
        tree: &IndexTree,
        k: usize,
        order: &[NodeId],
        plan: &SlotPlan,
        first_dump_slot: u32,
        inner_log: &[(NodeId, u32, u32)],
    ) {
        let n = tree.len();
        self.seq.clear();
        self.seq.resize(n, 0);
        for (i, &nd) in order.iter().enumerate() {
            self.seq[nd.index()] = i as u32;
        }
        self.pos_slot.clear();
        self.pos_slot.resize(n, 0);
        self.slot_positions.clear();
        self.slot_positions.resize(plan.node_count(), 0);
        let members = plan.members();
        for s in 0..plan.len() {
            for idx in plan.slot_range(s) {
                let p = self.seq[members[idx].index()];
                self.slot_positions[idx] = p;
                self.pos_slot[p as usize] = s as u32;
            }
        }
        let depth = tree.depth() as usize;
        self.inner_guard.clear();
        self.inner_guard.resize(depth + 2, 0);
        for &(nd, lvl, _slot) in inner_log {
            let g = &mut self.inner_guard[lvl as usize];
            *g = (*g).max(self.seq[nd.index()] + 1);
        }
        for lvl in (1..=depth).rev() {
            self.inner_guard[lvl] = self.inner_guard[lvl].max(self.inner_guard[lvl + 1]);
        }
        self.first_dump_slot = first_dump_slot;
        self.valid = true;
        self.k = k;
        self.n = n;
    }
}

impl Publisher {
    /// Incremental republish: repairs the served program in place for the
    /// given weight `changes` (data leaves whose weights moved — apply
    /// them to `tree` with [`IndexTree::reweight`] *before* calling), or
    /// falls back to a full [`publish`](Publisher::publish) when no
    /// validity check path certifies bit-identity. Either way the
    /// resulting program — see [`current`](Publisher::current) — is
    /// bit-identical to a full publish of the reweighted tree, and the
    /// double-buffered swap semantics are unchanged.
    ///
    /// Only [`PublishHeuristic::Sorting`] has an incremental twin; other
    /// heuristics always take the full lane. The tree *structure* must be
    /// unchanged since the last publish — only weights may move.
    ///
    /// # Errors
    /// Propagates pipeline feasibility errors from the full-publish
    /// fallback (the patch lane itself is infallible once validated).
    pub fn republish_delta(
        &mut self,
        tree: &IndexTree,
        changes: &[(NodeId, Weight)],
        k: usize,
        heuristic: PublishHeuristic,
        opts: PublishOptions,
        delta: DeltaOptions,
    ) -> Result<DeltaReport, FeasibilityError> {
        let total = tree.len();
        let gate = if heuristic != PublishHeuristic::Sorting {
            Some(FullReason::UnsupportedHeuristic)
        } else if !self.delta.valid {
            Some(FullReason::ColdState)
        } else if self.delta.k != k || self.delta.n != total {
            Some(FullReason::EpochShape)
        } else {
            None
        };
        let reason = match gate {
            Some(r) => r,
            None => match self.try_patch(tree, changes, k, delta) {
                Ok(touched) => {
                    return Ok(DeltaReport {
                        lane: DeltaLane::Patched,
                        touched,
                        total,
                    })
                }
                Err(r) => r,
            },
        };
        self.publish(tree, k, heuristic, opts)?;
        Ok(DeltaReport {
            lane: DeltaLane::Full(reason),
            touched: total,
            total,
        })
    }

    /// The patch lane. On `Err` the state may be partially mutated; the
    /// caller's full-publish fallback rebuilds everything it read.
    fn try_patch(
        &mut self,
        tree: &IndexTree,
        changes: &[(NodeId, Weight)],
        k: usize,
        opts: DeltaOptions,
    ) -> Result<usize, FullReason> {
        let n = tree.len();
        let st = &mut self.delta;

        // Stage 1: dirty frontier — proper ancestors of changed leaves.
        if st.stamp.len() != n {
            st.stamp.clear();
            st.stamp.resize(n, 0);
            st.epoch = 0;
        }
        st.epoch = st.epoch.wrapping_add(1);
        if st.epoch == 0 {
            st.stamp.fill(0);
            st.epoch = 1;
        }
        st.dirty_parents.clear();
        for &(id, _) in changes {
            let mut cur = tree.parent(id);
            while let Some(p) = cur {
                if st.stamp[p.index()] == st.epoch {
                    break;
                }
                st.stamp[p.index()] = st.epoch;
                st.dirty_parents.push(p);
                cur = tree.parent(p);
            }
        }

        // Refresh the density keys the reweight moved: the changed leaves
        // and every dirty ancestor (their subtree weights changed; sizes
        // are structural and fixed).
        let weights = tree.subtree_weight_table();
        let sizes = tree.subtree_size_table();
        let keys = &mut self.sort.keys;
        for &(id, _) in changes {
            keys[id.index()] = density_key(weights[id.index()].get(), sizes[id.index()]);
        }
        for &p in &st.dirty_parents {
            keys[p.index()] = density_key(weights[p.index()].get(), sizes[p.index()]);
        }

        // Stage 2: re-sort dirty child ranges, diff old vs new → windows.
        st.windows.clear();
        let flat = tree.flat_children();
        let sorted = &mut self.sort.sorted;
        for &p in &st.dirty_parents {
            let r = tree.child_range(p);
            if r.len() <= 1 {
                continue;
            }
            st.tmp_old.clear();
            st.tmp_old.extend_from_slice(&sorted[r.clone()]);
            // Fresh ascending-id copy, exactly like the full path — the
            // radix sorter's stability contract depends on it.
            sorted[r.clone()].copy_from_slice(&flat[r.clone()]);
            sort_range(&mut sorted[r.clone()], keys, &mut st.tmp_sort);
            let new_r = &sorted[r.clone()];
            let old_r = &st.tmp_old[..];
            let mut i = 0;
            while i < old_r.len() && old_r[i] == new_r[i] {
                i += 1;
            }
            if i == old_r.len() {
                continue; // keys moved, order did not
            }
            let mut j = old_r.len();
            while j > i && old_r[j - 1] == new_r[j - 1] {
                j -= 1;
            }
            // The changed children [i, j) hold the same node set in a new
            // order; their subtree spans tile one contiguous position
            // window of the old (and new) emit.
            let lo = st.seq[old_r[i].index()];
            let last = old_r[j - 1];
            let hi = st.seq[last.index()] + tree.subtree_size(last);
            st.windows.push(Window {
                lo,
                hi,
                parent: p,
                ci: i as u32,
                cj: j as u32,
            });
        }
        if st.windows.is_empty() {
            // Pure weight drift: the order, plan and program are already
            // exactly what a full publish would produce.
            return Ok(0);
        }

        // Keep only outermost windows: sibling subtree spans nest or are
        // disjoint, never partially overlap.
        st.windows.sort_unstable_by_key(|w| (w.lo, Reverse(w.hi)));
        let mut keep = 0usize;
        for i in 1..st.windows.len() {
            let w = st.windows[i];
            let prev = st.windows[keep];
            if w.lo >= prev.hi {
                keep += 1;
                st.windows[keep] = w;
            } else {
                debug_assert!(w.hi <= prev.hi, "sibling spans nest or are disjoint");
            }
        }
        st.windows.truncate(keep + 1);

        let mut touched: usize = st.windows.iter().map(|w| (w.hi - w.lo) as usize).sum();
        let budget = (opts.max_touched * n as f64) as usize;
        if touched > budget {
            return Err(FullReason::OverBudget);
        }

        // Inner-placement guards (k > 1): a window may not contain any
        // position an inner-level step's selection could have seen.
        if k > 1 {
            let levels = tree.level_table();
            for w in &st.windows {
                for p in w.lo..w.hi {
                    if st.pos_slot[p as usize] < st.first_dump_slot {
                        return Err(FullReason::InnerPlacement);
                    }
                    let lvl = levels[self.order[p as usize].index()] as usize;
                    if p < st.inner_guard[lvl] {
                        return Err(FullReason::InnerPlacement);
                    }
                }
            }
        }

        // Re-emit each window with the same DFS as the full path, over
        // the updated sorted ranges; `order` and `seq` converge to what a
        // full publish would emit.
        for wi in 0..st.windows.len() {
            let w = st.windows[wi];
            let r = tree.child_range(w.parent);
            let mut cursor = w.lo as usize;
            for c in w.ci..w.cj {
                st.stack.clear();
                st.stack.push(self.sort.sorted[r.start + c as usize]);
                while let Some(nd) = st.stack.pop() {
                    self.order[cursor] = nd;
                    st.seq[nd.index()] = cursor as u32;
                    cursor += 1;
                    for &cc in self.sort.sorted[tree.child_range(nd)].iter().rev() {
                        st.stack.push(cc);
                    }
                }
            }
            debug_assert_eq!(cursor, w.hi as usize, "window re-emit tiles the span");
        }

        st.dirty_slots.clear();
        st.dirty_slots.resize(self.plan.len(), false);

        if k == 1 {
            // One slot per position: patch members directly.
            for w in &st.windows {
                for p in w.lo..w.hi {
                    self.plan.set_member(p as usize, self.order[p as usize]);
                    st.dirty_slots[p as usize] = true;
                }
            }
            self.pipeline
                .republish_delta(tree, &self.plan, k, &mut st.dirty_slots);
            return Ok(touched);
        }

        // Stage 3: slot regions spanned by the windows, merged ascending.
        st.regions.clear();
        for w in &st.windows {
            let (mut sa, mut sb) = (u32::MAX, 0u32);
            for p in w.lo..w.hi {
                let s = st.pos_slot[p as usize];
                sa = sa.min(s);
                sb = sb.max(s);
            }
            st.regions.push((sa, sb));
        }
        st.regions.sort_unstable();

        let mut ri = 0usize;
        while ri < st.regions.len() {
            while ri + 1 < st.regions.len() && st.regions[ri + 1].0 <= st.regions[ri].1 {
                let nxt = st.regions.remove(ri + 1);
                st.regions[ri].1 = st.regions[ri].1.max(nxt.1);
            }
            let (sa, sb) = st.regions[ri];
            touched += resim_region(st, tree, &self.order, &mut self.plan, k, sa, sb)?;
            if touched > budget {
                return Err(FullReason::OverBudget);
            }
            while let Some(sp) = st.spawns.pop() {
                st.regions.push(sp);
            }
            st.regions[ri + 1..].sort_unstable();
            ri += 1;
        }

        // Stage 4: patch the route tables over the dirty slots and swap.
        self.pipeline
            .republish_delta(tree, &self.plan, k, &mut st.dirty_slots);
        Ok(touched)
    }
}

/// Re-simulates the `1_To_k` dump over slots `[sa, sb]` in position space
/// and commits the result (slot membership, `pos_slot`, plan members,
/// dirty flags) if — and only if — the validity checks certify that a
/// full run would assign these slots identically (see the module docs).
/// Slot moves spawn follow-up regions into `st.spawns`. Returns the
/// number of positions re-simulated.
fn resim_region(
    st: &mut DeltaState,
    tree: &IndexTree,
    order: &[NodeId],
    plan: &mut SlotPlan,
    k: usize,
    sa: u32,
    sb: u32,
) -> Result<usize, FullReason> {
    if sa < st.first_dump_slot {
        return Err(FullReason::InnerPlacement);
    }
    let n = order.len();
    if st.pos_stamp.len() != n {
        st.pos_stamp.clear();
        st.pos_stamp.resize(n, 0);
        st.pos_epoch = 0;
    }
    st.pos_epoch = st.pos_epoch.wrapping_add(1);
    if st.pos_epoch == 0 {
        st.pos_stamp.fill(0);
        st.pos_epoch = 1;
    }

    // P = every position currently assigned to a region slot.
    st.region_pos.clear();
    for s in sa..=sb {
        for idx in plan.slot_range(s as usize) {
            let p = st.slot_positions[idx];
            st.region_pos.push(p);
            st.pos_stamp[p as usize] = st.pos_epoch;
        }
    }

    // Seed the awake heap: positions whose parent lies outside the
    // region. Such a parent's slot is final and strictly below `sa`
    // (parents precede children, and earlier regions are already
    // committed), so these positions are awake for every region slot.
    st.heap.clear();
    for &p in &st.region_pos {
        let Some(par) = tree.parent(order[p as usize]) else {
            // The root airs in slot 0, which the inner guard keeps out of
            // every region; reaching it means the state is inconsistent.
            return Err(FullReason::RegionCheck);
        };
        let pp = st.seq[par.index()] as usize;
        if st.pos_stamp[pp] != st.pos_epoch {
            if st.pos_slot[pp] >= sa {
                // A spawned region whose parent moved past it: the local
                // eligibility model no longer holds.
                return Err(FullReason::RegionCheck);
            }
            st.heap.push(Reverse(p));
        }
    }

    // The local dump: per slot, pop exactly the old member count, check
    // dominance against the old maximum position, and wake in-region
    // children for the next slot.
    st.popped.clear();
    for s in sa..=sb {
        let range = plan.slot_range(s as usize);
        let count = range.len();
        let max_old = st.slot_positions[range.end - 1];
        let base = st.popped.len();
        for _ in 0..count {
            let Some(Reverse(p)) = st.heap.pop() else {
                return Err(FullReason::RegionCheck); // slot under-fills
            };
            if p > max_old {
                return Err(FullReason::RegionCheck); // dominance lost
            }
            st.popped.push((p, s));
        }
        if count < k && !st.heap.is_empty() {
            return Err(FullReason::RegionCheck); // old slot was ragged
        }
        for i in base..st.popped.len() {
            let (p, _) = st.popped[i];
            for &c in tree.children(order[p as usize]) {
                let cp = st.seq[c.index()];
                if st.pos_stamp[cp as usize] == st.pos_epoch {
                    st.heap.push(Reverse(cp));
                }
            }
        }
    }
    if !st.heap.is_empty() {
        return Err(FullReason::RegionCheck); // a position escaped the span
    }

    // Spawns: a node whose slot moved re-anchors its out-of-region
    // children. Their current slots are strictly past `sb` (they trail
    // their parent's old slot and sit outside the region), so a spawn
    // reaching back into committed slots cannot be repaired locally.
    for &(p, s_new) in &st.popped {
        if st.pos_slot[p as usize] == s_new {
            continue;
        }
        for &c in tree.children(order[p as usize]) {
            let cp = st.seq[c.index()] as usize;
            if st.pos_stamp[cp] == st.pos_epoch {
                continue;
            }
            let cs = st.pos_slot[cp];
            let nsa = (s_new + 1).min(cs);
            if nsa <= sb {
                return Err(FullReason::RegionCheck);
            }
            st.spawns.push((nsa, cs));
        }
    }

    // Commit: pops arrive ascending per slot, preserving the invariant
    // that a slot's positions slice is sorted.
    let mut w = 0usize;
    for s in sa..=sb {
        for idx in plan.slot_range(s as usize) {
            let (p, ps) = st.popped[w];
            debug_assert_eq!(ps, s);
            w += 1;
            st.slot_positions[idx] = p;
            plan.set_member(idx, order[p as usize]);
        }
        st.dirty_slots[s as usize] = true;
    }
    for &(p, s_new) in &st.popped {
        st.pos_slot[p as usize] = s_new;
    }
    Ok(st.region_pos.len())
}
