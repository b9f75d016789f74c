//! Admissible estimates `U(X)` for the best-first search.
//!
//! §3.1 defines `E(X) = V(X) + U(X)`: `V(X)` is the weighted wait already
//! accumulated along the path, `U(X)` an estimate for the unplaced data
//! nodes. The paper's `U(X)` "is acquired by assuming the data nodes ... are
//! all allocated next to the node X" — every unplaced data node at slot
//! `slots_used + 1`. That never overestimates the true completion cost
//! (no data node can appear earlier than the next slot), so the search stays
//! exact.
//!
//! Two tighter kinds stay admissible. Each charges the `j`-th heaviest
//! unplaced data node a slot no schedule can beat for the `j`-th data node
//! it airs; the slots never decrease in `j`, so pairing the heaviest
//! weights with the earliest slots bounds every completion from below.
//!
//! - [`BoundKind::Packed`]: at most `k` nodes fit per slot, so the
//!   heaviest unplaced data node is charged slot `s+1`, the next `k-1`
//!   likewise, the following `k` slot `s+2`, and so on.
//! - [`BoundKind::Indexed`] (the default): a data node whose parent has not
//!   aired also waits behind the index nodes that must open first. With
//!   `r_d` data and `r_i` index nodes available and largest fanout `F`, the
//!   `j`-th data node past the `r_d`-th takes the slot
//!   [`bcast_channel::cost::SlotFloor::slot`] gives, never earlier than
//!   Packed's. DESIGN §5.1 has the proof.
//!
//! `Paper ≤ Packed ≤ Indexed` pointwise, so each expands no more states
//! than the one before it; the A2 ablation bench measures the gaps.
//!
//! # Incremental evaluation
//!
//! Evaluating `U(X)` by a scan over every data node costs O(D), and the
//! search needs it once per *generated* state. The Paper and Packed
//! bounds decompose into slot-independent aggregates that a state can
//! carry along its path:
//!
//! ```text
//! U_paper (X) = (s+1) · unplaced(X)
//! U_packed(X) = (s+1) · unplaced(X) + penalty(X)
//!     where penalty(X) = Σ_i w_i · ⌊i/k⌋  over unplaced data nodes,
//!     i = rank among unplaced in the global heaviest-first order
//! ```
//!
//! A state carries `unplaced` and `penalty` in its [`Scalars`] and the
//! placed global ranks in the rank words of its [`Layout`];
//! [`Bounder::step`] advances them per placed data node: `unplaced` loses
//! the node's weight, and `penalty` loses `w·⌊r/k⌋` (the node's own charge
//! at its unplaced rank `r`) plus the weight of every *later* unplaced node
//! whose rank is a multiple of `k` — exactly the nodes promoted one packing
//! slot when ranks close up. The walk visits only still-unplaced ranks
//! behind the removed node (and nothing at all for index-node placements),
//! so the per-state cost is O(placement delta + trailing unplaced) instead
//! of O(D).
//!
//! [`Bounder::estimate`] reads Paper and Packed in O(1). Indexed carries
//! the Packed companion too and adds, per estimate, the extra charge of
//! the unplaced ranks past the `r_d`-th, whose data may be locked: it
//! counts `r_d` and `r_i` off the candidate words with one popcount
//! against a data mask and walks those ranks in the rank words. Nothing
//! more is stored per state. [`BoundCounters`] meters every path; the
//! best-first search surfaces the totals.

use crate::avail::{self, Layout, Scalars};
use bcast_channel::cost::SlotFloor;
use bcast_index_tree::{IndexTree, TreeStats};
use bcast_types::{bits, NodeId, Weight};

/// Which lower bound the best-first search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundKind {
    /// The paper's estimate: all unplaced data in the very next slot.
    Paper,
    /// Capacity-aware packing of unplaced data, heaviest first.
    Packed,
    /// Packed, plus the index nodes a locked data node waits behind.
    #[default]
    Indexed,
}

/// Tallies of bound-evaluation effort, kept by the caller so the
/// [`Bounder`] itself stays immutable.
///
/// `work` counts sorted-data entries touched: a full scan adds D, an
/// incremental advance adds the placement delta plus the trailing unplaced
/// ranks it walked, and a [`BoundKind::Indexed`] estimate adds the
/// unplaced ranks past the `r_d`-th it charges. `work / generated states`
/// is the measured per-state bound cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BoundCounters {
    /// Full O(D) evaluations ([`Bounder::attach`]); 1 per search (the
    /// root).
    pub full_evals: u64,
    /// Incremental [`Bounder::step`] advances (one per generated child).
    pub inc_updates: u64,
    /// Total sorted-data entries touched across both paths.
    pub work: u64,
}

/// Precomputed, search-invariant data for bound evaluation: the data nodes
/// in the global heaviest-first rank order, which the Property-1
/// completion walks too.
#[derive(Debug, Clone)]
pub struct Bounder {
    kind: BoundKind,
    k: usize,
    /// Data nodes sorted heaviest-first (ids), with their weights.
    sorted_data: Vec<(NodeId, Weight)>,
    /// Node-id index → global rank in `sorted_data`; `NOT_DATA` sentinel
    /// for index nodes.
    rank_of: Vec<u32>,
    /// One bit per data node id, for counting the available data nodes.
    data_mask: Vec<u64>,
    /// The largest fanout of any index node.
    fanout: usize,
}

/// `rank_of` sentinel for nodes that are not data nodes.
const NOT_DATA: u32 = u32::MAX;

impl Bounder {
    /// Builds the bounder for `tree` and `k` channels.
    pub fn new(tree: &IndexTree, k: usize, kind: BoundKind) -> Self {
        assert!(k >= 1, "need at least one channel");
        let mut ids: Vec<NodeId> = tree.data_nodes().to_vec();
        avail::sort_weight_desc(tree, &mut ids);
        let sorted_data: Vec<(NodeId, Weight)> =
            ids.into_iter().map(|d| (d, tree.weight(d))).collect();
        let mut rank_of = vec![NOT_DATA; tree.len()];
        let mut data_mask = vec![0; bits::words_for(tree.len())];
        for (rank, &(d, _)) in sorted_data.iter().enumerate() {
            rank_of[d.index()] = rank as u32;
            bits::insert(&mut data_mask, d);
        }
        Bounder {
            kind,
            k,
            sorted_data,
            rank_of,
            data_mask,
            fanout: TreeStats::of(tree).max_fanout,
        }
    }

    /// The bound kind in use.
    pub fn kind(&self) -> BoundKind {
        self.kind
    }

    /// True if states carry the packing companion: the placed ranks and
    /// the penalty (every kind but [`BoundKind::Paper`]).
    fn packs(&self) -> bool {
        self.kind != BoundKind::Paper
    }

    /// The word layout of a state under this bounder: the packing kinds
    /// keep one placed-rank bit per data node, [`BoundKind::Paper`] none.
    pub fn layout(&self, tree: &IndexTree) -> Layout {
        let ranks = if self.packs() {
            self.sorted_data.len()
        } else {
            0
        };
        Layout::new(tree.len(), ranks)
    }

    /// Writes the root state into `words` (nothing placed, only the tree
    /// root available) and returns its scalars with the bound companion
    /// attached.
    pub fn root(
        &self,
        tree: &IndexTree,
        words: &mut [u64],
        counters: &mut BoundCounters,
    ) -> Scalars {
        let layout = self.layout(tree);
        layout.write_root(tree, words);
        let mut s = Scalars::default();
        self.attach(layout, words, &mut s, counters);
        s
    }

    /// Computes the bound companion of a state from its placed set — one
    /// O(D) scan, writing the placed ranks and `s.unplaced` / `s.penalty`.
    ///
    /// The best-first search calls this exactly once, through
    /// [`Bounder::root`]; every descendant advances the companion through
    /// [`Bounder::step`] instead.
    pub fn attach(
        &self,
        layout: Layout,
        words: &mut [u64],
        s: &mut Scalars,
        counters: &mut BoundCounters,
    ) {
        counters.full_evals += 1;
        counters.work += self.sorted_data.len() as u64;
        let mut unplaced = 0.0;
        let mut penalty = 0.0;
        let mut i = 0usize; // rank among unplaced
        for (rank, &(d, w)) in self.sorted_data.iter().enumerate() {
            if bits::contains(layout.placed(words), d) {
                if self.packs() {
                    bits::insert(layout.ranks_mut(words), NodeId::from_index(rank));
                }
            } else {
                unplaced += w.get();
                if self.packs() {
                    penalty += w.get() * (i / self.k) as f64;
                }
                i += 1;
            }
        }
        s.unplaced = unplaced;
        s.penalty = penalty;
    }

    /// [`avail::place`] plus the O(delta) advance of the bound companion:
    /// the one step every engine takes to generate a child in place.
    pub fn step(
        &self,
        tree: &IndexTree,
        layout: Layout,
        words: &mut [u64],
        s: &mut Scalars,
        members: &[NodeId],
        counters: &mut BoundCounters,
    ) {
        avail::place(tree, layout, words, s, members);
        counters.inc_updates += 1;
        let ranks = layout.ranks_mut(words);
        for &m in members {
            let rank = self.rank_of[m.index()];
            if rank != NOT_DATA {
                self.remove_rank(ranks, s, rank as usize, counters);
            }
        }
    }

    /// Removes the data node at global rank `g` from the unplaced
    /// aggregates.
    fn remove_rank(
        &self,
        ranks: &mut [u64],
        s: &mut Scalars,
        g: usize,
        counters: &mut BoundCounters,
    ) {
        let w = self.sorted_data[g].1.get();
        s.unplaced -= w;
        counters.work += 1;
        if !self.packs() {
            return;
        }
        let gid = NodeId::from_index(g);
        // Unplaced rank of the removed node: global rank minus the placed
        // ranks in front of it.
        let r = g - bits::rank(ranks, gid);
        s.penalty -= w * (r / self.k) as f64;
        // Ranks behind g close up by one; the unplaced nodes whose old rank
        // was a multiple of k cross a packing-slot boundary and get one slot
        // cheaper.
        let unset_behind = bits::iter_unset(ranks, g + 1, self.sorted_data.len());
        for (off, g2) in unset_behind.enumerate() {
            counters.work += 1;
            if (r + 1 + off).is_multiple_of(self.k) {
                s.penalty -= self.sorted_data[g2.index()].1.get();
            }
        }
        bits::insert(ranks, gid);
    }

    /// `U(X)` of the state in `words` with scalars `s`. Paper and Packed
    /// read the carried companion in O(1). Indexed adds, to Packed's value,
    /// the extra charge of each unplaced rank past the `r_d`-th: its
    /// [`SlotFloor`] slot minus its packing slot. `r_d` and `r_i` come off
    /// the candidate words, and the walk is metered in `counters.work`.
    pub fn estimate(
        &self,
        layout: Layout,
        words: &[u64],
        s: &Scalars,
        counters: &mut BoundCounters,
    ) -> f64 {
        let used = u64::from(s.slots_used);
        let packed = s.unplaced * (used + 1) as f64 + s.penalty;
        if self.kind != BoundKind::Indexed {
            return packed;
        }
        let available = layout.available(words);
        let free_data: usize = available
            .iter()
            .zip(&self.data_mask)
            .map(|(a, m)| (a & m).count_ones() as usize)
            .sum();
        let unplaced = self.sorted_data.len() - (s.placed - s.placed_index) as usize;
        if free_data >= unplaced {
            return packed; // nothing locked: every slot is the packing slot
        }
        let floor = SlotFloor {
            used,
            channels: self.k,
            free_data,
            free_index: bits::count(available) - free_data,
            fanout: self.fanout,
        };
        let ranks = bits::iter_unset(layout.ranks(words), 0, self.sorted_data.len());
        let mut extra = 0.0;
        for (i, g) in ranks.enumerate().skip(free_data) {
            counters.work += 1;
            let j = i + 1;
            extra += self.sorted_data[g.index()].1 * (floor.slot(j) - floor.packing_slot(j));
        }
        packed + extra
    }

    /// Property 1: completes the schedule by emitting the remaining
    /// (all-data) nodes in descending weight order, `k` per slot — the
    /// global rank order with the placed nodes skipped, so nothing is
    /// sorted — and returns the resulting total weighted wait. `out`, if
    /// given, receives the completion's slots. Valid once every index node
    /// is placed.
    pub fn property1_total(
        &self,
        placed: &[u64],
        s: &Scalars,
        mut out: Option<&mut Vec<Vec<NodeId>>>,
    ) -> f64 {
        let mut wait = s.weighted_wait;
        let rest = self
            .sorted_data
            .iter()
            .filter(|&&(d, _)| !bits::contains(placed, d));
        for (i, &(d, w)) in rest.enumerate() {
            let slot = u64::from(s.slots_used) + 1 + (i / self.k) as u64;
            wait += w * slot;
            if let Some(out) = out.as_deref_mut() {
                if i % self.k == 0 {
                    out.push(Vec::with_capacity(self.k));
                }
                out.last_mut().expect("pushed above").push(d);
            }
        }
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avail::{PathState, Subsets};
    use crate::topo_tree;
    use bcast_index_tree::builders;
    use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};
    use proptest::prelude::*;

    const KINDS: [BoundKind; 3] = [BoundKind::Paper, BoundKind::Packed, BoundKind::Indexed];

    fn id(tree: &IndexTree, label: &str) -> NodeId {
        tree.find_by_label(label).expect("label exists")
    }

    /// `U(X)` by a full scan over the data nodes and the candidate set —
    /// the oracle the carried companion and the Indexed walk are checked
    /// against.
    fn scan(t: &IndexTree, b: &Bounder, s: &PathState) -> f64 {
        let next_slot = u64::from(s.s.slots_used) + 1;
        let unplaced = b
            .sorted_data
            .iter()
            .filter(|&&(d, _)| !bits::contains(s.placed(), d));
        match b.kind {
            BoundKind::Paper => unplaced.map(|&(_, w)| w.get()).sum::<f64>() * next_slot as f64,
            BoundKind::Packed => unplaced
                .enumerate()
                .map(|(i, &(_, w))| w * (next_slot + (i / b.k) as u64))
                .sum(),
            BoundKind::Indexed => {
                let free_data = bits::iter(s.available()).filter(|&n| t.is_data(n)).count();
                let floor = SlotFloor {
                    used: u64::from(s.s.slots_used),
                    channels: b.k,
                    free_data,
                    free_index: bits::count(s.available()) - free_data,
                    fanout: TreeStats::of(t).max_fanout,
                };
                unplaced
                    .enumerate()
                    .map(|(i, &(_, w))| w * floor.slot(i + 1))
                    .sum()
            }
        }
    }

    /// [`Bounder::estimate`] of `s`.
    fn estimate(b: &Bounder, s: &PathState, c: &mut BoundCounters) -> f64 {
        b.estimate(s.layout, &s.words, &s.s, c)
    }

    /// The root under `b`'s layout, its companion attached.
    fn root(t: &IndexTree, b: &Bounder, c: &mut BoundCounters) -> PathState {
        let mut s = PathState::with_layout(t, b.layout(t));
        s.s = b.root(t, &mut s.words, c);
        s
    }

    /// `s` after [`Bounder::step`] places `members`.
    fn step(
        t: &IndexTree,
        b: &Bounder,
        s: &PathState,
        members: &[NodeId],
        c: &mut BoundCounters,
    ) -> PathState {
        let mut next = s.clone();
        b.step(t, next.layout, &mut next.words, &mut next.s, members, c);
        next.last = members.to_vec();
        next
    }

    /// The least total weighted wait of any completion of `s`, by full
    /// enumeration of the topological tree below it.
    fn best_completion(t: &IndexTree, k: usize, s: &PathState) -> f64 {
        if s.s.is_complete(t) {
            return s.s.weighted_wait;
        }
        let mut children = Subsets::default();
        topo_tree::compound_children(s.available(), k, &mut children);
        children
            .iter()
            .map(|members| best_completion(t, k, &s.place(t, members)))
            .fold(f64::INFINITY, f64::min)
    }

    /// A random tree of `n` data nodes, fanout at most 3.
    fn small_tree(n: usize, seed: u64) -> IndexTree {
        let cfg = RandomTreeConfig {
            data_nodes: n,
            max_fanout: 3,
            weights: FrequencyDist::Uniform { lo: 1.0, hi: 100.0 },
        };
        random_tree(&cfg, seed)
    }

    /// The nodes a random path places next: 1..=k available nodes, chosen
    /// by a deterministic shuffle of the candidate set.
    fn pick(s: &PathState, k: usize, seed: u64, step_no: u64) -> Vec<NodeId> {
        let mut avail: Vec<NodeId> = bits::iter(s.available()).collect();
        let take = 1 + (seed.wrapping_mul(31).wrapping_add(step_no) as usize) % k;
        avail.sort_by_key(|a| bcast_types::mix64(seed ^ step_no ^ (a.index() as u64) << 17));
        avail.truncate(take.min(avail.len()));
        avail
    }

    #[test]
    fn paper_bound_charges_next_slot() {
        let t = builders::paper_example();
        let s = PathState::initial(&t).place(&t, &[id(&t, "1")]);
        let b = Bounder::new(&t, 2, BoundKind::Paper);
        // All 70 units of weight at slot 2.
        assert_eq!(scan(&t, &b, &s), 140.0);
    }

    #[test]
    fn packed_bound_spreads_over_slots() {
        let t = builders::paper_example();
        let s = PathState::initial(&t).place(&t, &[id(&t, "1")]);
        let b = Bounder::new(&t, 2, BoundKind::Packed);
        // Slots 2,2,3,3,4 for weights 20,18,15,10,7:
        // 40+36+45+30+28 = 179.
        assert_eq!(scan(&t, &b, &s), 179.0);
    }

    #[test]
    fn indexed_bound_charges_the_index_nodes_data_waits_behind() {
        // After slot 1 only the index nodes 2 and 3 are available (fanout
        // 2): A(20) and E(18) wait behind one opened index node (slot 3),
        // C(15) and B(10) behind two (slot 4), D(7) behind three (slot 5):
        // 60+54+60+40+35 = 249, the analytic floor's numerator.
        let t = builders::paper_example();
        let b = Bounder::new(&t, 2, BoundKind::Indexed);
        let mut c = BoundCounters::default();
        let s = step(&t, &b, &root(&t, &b, &mut c), &[id(&t, "1")], &mut c);
        assert_eq!(scan(&t, &b, &s), 249.0);
        let work = c.work;
        assert_eq!(estimate(&b, &s, &mut c), 249.0);
        assert_eq!(c.work - work, 5, "all five unplaced ranks are locked");
        let floor = bcast_channel::cost::data_wait_lower_bound(&t, 2);
        assert!((floor - 249.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn packed_dominates_paper() {
        let t = builders::paper_example();
        let paper = Bounder::new(&t, 1, BoundKind::Paper);
        let packed = Bounder::new(&t, 1, BoundKind::Packed);
        let mut s = PathState::initial(&t);
        for label in ["1", "2", "A"] {
            s = s.place(&t, &[id(&t, label)]);
            assert!(scan(&t, &packed, &s) >= scan(&t, &paper, &s));
        }
    }

    #[test]
    fn bounds_are_admissible_against_exhaustive() {
        // V(X) + U(X) never exceeds the best completion through X; checked
        // at the root state against the global optimum.
        let t = builders::paper_example();
        for k in 1..=3usize {
            let opt = topo_tree::solve_exhaustive(&t, k);
            let optimal_weighted = opt.data_wait * t.total_weight().get();
            for kind in KINDS {
                let b = Bounder::new(&t, k, kind);
                let mut c = BoundCounters::default();
                let s0 = root(&t, &b, &mut c);
                assert!(
                    estimate(&b, &s0, &mut c) <= optimal_weighted + 1e-9,
                    "k={k} kind={kind:?}"
                );
            }
        }
    }

    #[test]
    fn estimate_is_zero_when_all_data_placed() {
        let t = builders::paper_example();
        for kind in KINDS {
            let b = Bounder::new(&t, 1, kind);
            let mut c = BoundCounters::default();
            let mut s = root(&t, &b, &mut c);
            for label in ["1", "2", "A", "B", "3", "E", "4", "C", "D"] {
                s = step(&t, &b, &s, &[id(&t, label)], &mut c);
            }
            assert_eq!(scan(&t, &b, &s), 0.0);
            assert_eq!(estimate(&b, &s, &mut c), 0.0);
        }
    }

    #[test]
    fn incremental_matches_scan_on_paper_example() {
        let t = builders::paper_example();
        for kind in KINDS {
            let b = Bounder::new(&t, 2, kind);
            let mut c = BoundCounters::default();
            let mut s = root(&t, &b, &mut c);
            assert_eq!(estimate(&b, &s, &mut c), scan(&t, &b, &s));
            for members in [
                vec![id(&t, "1")],
                vec![id(&t, "2"), id(&t, "3")],
                vec![id(&t, "A"), id(&t, "E")],
                vec![id(&t, "B"), id(&t, "4")],
                vec![id(&t, "C"), id(&t, "D")],
            ] {
                s = step(&t, &b, &s, &members, &mut c);
                let fast = estimate(&b, &s, &mut c);
                assert!(
                    (fast - scan(&t, &b, &s)).abs() < 1e-9,
                    "kind={kind:?} after {members:?}: fast {fast} vs scan {}",
                    scan(&t, &b, &s)
                );
            }
            assert_eq!(estimate(&b, &s, &mut c), 0.0);
            assert_eq!(c.full_evals, 1, "only the root pays the O(D) scan");
            assert_eq!(c.inc_updates, 5);
        }
    }

    #[test]
    fn attach_mid_path_matches_the_incremental_step() {
        // attach works from any placed set, not just the root's: on a
        // state reached by plain placements (no companion carried), it
        // rebuilds the same ranks and aggregates the steps would have.
        let t = builders::paper_example();
        let b = Bounder::new(&t, 2, BoundKind::Packed);
        let path = [vec![id(&t, "1")], vec![id(&t, "2"), id(&t, "3")]];
        let mut c = BoundCounters::default();
        let mut stepped = root(&t, &b, &mut c);
        let mut bare = PathState::with_layout(&t, b.layout(&t));
        for members in &path {
            stepped = step(&t, &b, &stepped, members, &mut c);
            bare = bare.place(&t, members);
        }
        b.attach(bare.layout, &mut bare.words, &mut bare.s, &mut c);
        assert_eq!(c.full_evals, 2);
        assert_eq!(c.inc_updates, 2);
        assert_eq!(bare.words, stepped.words);
        let fast = estimate(&b, &bare, &mut c);
        assert_eq!(fast, estimate(&b, &stepped, &mut c));
        assert_eq!(fast, scan(&t, &b, &bare));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Satellite invariant: along any placement path, the incrementally
        /// maintained `U(X)` equals a from-scratch scan after every
        /// [`Bounder::step`], for every bound kind and k ∈ {1,2,3}.
        /// Tolerance 1e-9 relative: the incremental path reassociates the
        /// float sums, so drift of a few ulps is expected.
        #[test]
        fn incremental_bound_tracks_scan_on_random_paths(
            n in 2usize..10,
            k in 1usize..4,
            seed in 0u64..1000,
            kind in 0usize..3,
        ) {
            let t = small_tree(n, seed);
            let kind = KINDS[kind];
            let b = Bounder::new(&t, k, kind);
            let mut c = BoundCounters::default();
            let mut s = root(&t, &b, &mut c);
            let mut step_no = 0u64;
            while !s.s.is_complete(&t) {
                s = step(&t, &b, &s, &pick(&s, k, seed, step_no), &mut c);
                let fast = estimate(&b, &s, &mut c);
                let scanned = scan(&t, &b, &s);
                let tol = 1e-9 * scanned.abs().max(1.0);
                prop_assert!(
                    (fast - scanned).abs() <= tol,
                    "n={n} k={k} seed={seed} kind={kind:?} step={step_no}: \
                     fast {fast} vs scan {scanned}"
                );
                step_no += 1;
            }
            prop_assert_eq!(c.full_evals, 1);
            prop_assert_eq!(c.inc_updates, step_no);
        }

        /// At every state of a random placement path, Indexed is at least
        /// Packed, and `V(X) + U(X)` under Indexed never exceeds the best
        /// completion of that state, found by exhaustive enumeration.
        #[test]
        fn indexed_dominates_packed_and_stays_admissible_on_random_paths(
            n in 2usize..6,
            k in 1usize..4,
            seed in 0u64..1000,
        ) {
            let t = small_tree(n, seed);
            let indexed = Bounder::new(&t, k, BoundKind::Indexed);
            let packed = Bounder::new(&t, k, BoundKind::Packed);
            let mut c = BoundCounters::default();
            let mut s = root(&t, &indexed, &mut c);
            let mut step_no = 0u64;
            loop {
                // Both kinds carry the same words and companion.
                let u = estimate(&indexed, &s, &mut c);
                let u_packed = estimate(&packed, &s, &mut c);
                prop_assert!(
                    u >= u_packed,
                    "n={n} k={k} seed={seed} step={step_no}: indexed {u} < packed {u_packed}"
                );
                let best = best_completion(&t, k, &s);
                let f = s.s.weighted_wait + u;
                prop_assert!(
                    f <= best + 1e-9 * best.max(1.0),
                    "n={n} k={k} seed={seed} step={step_no}: V+U {f} > best completion {best}"
                );
                if s.s.is_complete(&t) {
                    break;
                }
                s = step(&t, &indexed, &s, &pick(&s, k, seed, step_no), &mut c);
                step_no += 1;
            }
        }
    }
}
