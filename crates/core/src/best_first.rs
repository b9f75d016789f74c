//! §3.1: best-first (A*-style) search for the optimal allocation.
//!
//! "In general, an optimal path in a k-channel topological tree can be found
//! by using the best-first search strategy" with the evaluation function
//! `E(X) = V(X) + U(X)`.
//!
//! # Why the result is optimal
//!
//! Every [`BoundKind`] is admissible — `U(X)` never overestimates the cost
//! of completing `X` — so when the first *complete* state is popped from
//! the frontier, every remaining frontier entry has `E ≥` the popped
//! state's `E`, and its own true completion cost is at least its `E`. For a
//! complete state `E` *is* the exact cost, so nothing still queued can beat
//! it: the standard A* argument. A Property-1 terminal re-enters the
//! frontier at its exact total, so it counts as complete.
//!
//! The default bound is [`BoundKind::Indexed`], which also charges each
//! locked data node the index nodes that must air before it. Every bound
//! depends only on a state's placed set and slot count, the key of the
//! dominance table, so pruning a dominated twin never drops a state with
//! a smaller `E`. [`Bounder::estimate`] evaluates it once at the root and
//! once per child that survives the dominance probe.
//!
//! Candidate generation is pluggable: the unpruned Algorithm-1 expansion
//! ([`crate::topo_tree::compound_children`]) or the Appendix's reduced
//! expansion ([`crate::prune::pruned_children`]). Property 1 is applied as a
//! terminal fast path: once every index node is placed, the unique optimal
//! completion (remaining data heaviest-first, `k` per slot) is computed in
//! closed form instead of being searched.

use crate::avail::{Layout, Scalars, Subsets};
use crate::bound::{BoundCounters, BoundKind, Bounder};
use crate::prune;
use crate::schedule::Schedule;
use crate::topo_tree;
use bcast_index_tree::IndexTree;
use bcast_types::dominance::Probe;
use bcast_types::{bits, DominanceTable, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options for [`search`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestFirstOptions {
    /// Use the Appendix's pruned candidate generation (§3.2). Turning this
    /// off yields the plain Algorithm-1 expansion — exact but much slower
    /// (the A1 ablation bench measures the gap).
    pub pruned: bool,
    /// The `U(X)` estimate.
    pub bound: BoundKind,
    /// Apply the Property-1 closed-form completion once all index nodes are
    /// placed.
    pub property1: bool,
    /// Abort after expanding this many states (`None` = unlimited).
    pub node_limit: Option<u64>,
}

impl Default for BestFirstOptions {
    fn default() -> Self {
        BestFirstOptions {
            pruned: true,
            bound: BoundKind::Indexed,
            property1: true,
            node_limit: None,
        }
    }
}

/// Effort counters for one search run, surfaced through
/// [`BestFirstResult`].
///
/// `bound_work / nodes_generated` is the measured per-state bound cost: the
/// incremental bound holds it at O(placement delta) where the old
/// scan-per-state design paid O(D). `table_hits / table_probes` is the
/// dominance hit rate — how often a generated state re-reached an already
/// recorded `(placed, slots)` class.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Full O(D) bound evaluations (root attach + any fallback rescans).
    pub bound_full_evals: u64,
    /// O(delta) incremental bound advances (one per generated child).
    pub bound_inc_updates: u64,
    /// Sorted-data entries touched by bound evaluation in total.
    pub bound_work: u64,
    /// Dominance-table probes (generation + stale checks).
    pub table_probes: u64,
    /// Probes that found an existing record.
    pub table_hits: u64,
    /// Occupied bytes of the state arena (records, word pool and member
    /// pool) plus the dominance table's heap at the end of the search —
    /// the peak, since neither ever shrinks.
    pub peak_arena_bytes: u64,
}

/// Result of a successful search.
#[derive(Debug, Clone)]
pub struct BestFirstResult {
    /// An optimal schedule.
    pub schedule: Schedule,
    /// Its average data wait (formula 1).
    pub data_wait: f64,
    /// States expanded (popped and grown) during the search.
    pub nodes_expanded: u64,
    /// States pushed onto the frontier.
    pub nodes_generated: u64,
    /// Bound and dominance-layer effort counters.
    pub stats: SearchStats,
}

/// The search exceeded its node limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLimitExceeded {
    /// The limit that was hit.
    pub limit: u64,
}

impl std::fmt::Display for NodeLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "best-first search exceeded node limit {}", self.limit)
    }
}

impl std::error::Error for NodeLimitExceeded {}

/// f-ordered priority key with deterministic tie-breaking.
#[derive(PartialEq)]
struct Priority(f64, u64);

impl Eq for Priority {}

impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .total_cmp(&other.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}

/// One generated state, fixed size. Its words (placed, available and
/// placed-rank sets, per the search's [`Layout`]) sit at `id · stride` in
/// the word pool, and the members of the slot that produced it at
/// `members .. members + width` in the member pool.
#[derive(Clone, Copy)]
struct Record {
    /// Arena id of the parent ([`ROOT`] for the root).
    parent: u32,
    members: u32,
    width: u32,
    /// `bits::mix_hash` of the placed words, so stale checks re-probe the
    /// dominance table without rehashing.
    hash: u64,
    s: Scalars,
    /// Exact total weighted wait once the Property-1 fast path has made
    /// this a terminal; NaN before. The completion itself is recomputed
    /// only for the winner, by [`finish`].
    total: f64,
}

/// `Record::parent` of the root.
const ROOT: u32 = u32::MAX;

/// States the arena pools and the frontier have room for before their
/// first reallocation, so a search of a few thousand states grows each of
/// them only a few times.
const INITIAL_STATES: usize = 1024;

/// The search arena: fixed-size records plus two flat pools. A state
/// is one record, one stride of words and its members — no heap object of
/// its own.
struct Arena {
    layout: Layout,
    records: Vec<Record>,
    words: Vec<u64>,
    members: Vec<NodeId>,
}

impl Arena {
    fn words(&self, id: usize) -> &[u64] {
        let stride = self.layout.stride();
        &self.words[id * stride..(id + 1) * stride]
    }

    fn placed(&self, id: usize) -> &[u64] {
        self.layout.placed(self.words(id))
    }

    fn last(&self, id: usize) -> &[NodeId] {
        let r = &self.records[id];
        &self.members[r.members as usize..(r.members + r.width) as usize]
    }

    /// Appends a state; returns its id.
    fn push(
        &mut self,
        parent: u32,
        members: &[NodeId],
        words: &[u64],
        hash: u64,
        s: Scalars,
    ) -> u32 {
        // Ids and member offsets are u32 (u32::MAX is the dominance
        // table's vacancy sentinel and `ROOT`).
        let id = u32::try_from(self.records.len())
            .ok()
            .filter(|&id| id < ROOT)
            .expect("search arena holds fewer than 2^32 - 1 states");
        self.records.push(Record {
            parent,
            members: u32::try_from(self.members.len()).expect("member pool below 2^32 entries"),
            width: members.len() as u32,
            hash,
            s,
            total: f64::NAN,
        });
        self.members.extend_from_slice(members);
        self.words.extend_from_slice(words);
        id
    }

    /// Occupied bytes (see [`SearchStats::peak_arena_bytes`]).
    fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.records[..])
            + std::mem::size_of_val(&self.words[..])
            + std::mem::size_of_val(&self.members[..])
    }
}

/// Finds an optimal k-channel schedule for `tree`.
pub fn search(
    tree: &IndexTree,
    k: usize,
    opts: &BestFirstOptions,
) -> Result<BestFirstResult, NodeLimitExceeded> {
    assert!(k >= 1, "need at least one channel");
    let bounder = Bounder::new(tree, k, opts.bound);
    let layout = bounder.layout(tree);
    let mut counters = BoundCounters::default();
    let mut arena = Arena {
        layout,
        records: Vec::with_capacity(INITIAL_STATES),
        words: Vec::with_capacity(INITIAL_STATES * layout.stride()),
        members: Vec::with_capacity(INITIAL_STATES * k),
    };
    let mut open: BinaryHeap<Reverse<(Priority, usize)>> =
        BinaryHeap::with_capacity(INITIAL_STATES);
    // Dominance layer: best g (weighted wait) per placed set and slot
    // count, as a flat table over arena ids. Probing hashes nothing and
    // copies nothing — true equality runs only on a full `(hash, slots)`
    // match, against the twin's placed words in the pool.
    let mut table = DominanceTable::default();
    // Children are generated into `children` and built, one at a time, in
    // `scratch`; only a child that survives the dominance probe is copied
    // into the arena.
    let mut children = Subsets::default();
    let mut scratch = vec![0u64; layout.stride()];
    let mut generated = 0u64;
    let mut expanded = 0u64;

    let root = bounder.root(tree, &mut scratch, &mut counters);
    let root_f = bounder.estimate(layout, &scratch, &root, &mut counters);
    let root_hash = bits::mix_hash(layout.placed(&scratch));
    arena.push(ROOT, &[], &scratch, root_hash, root);
    open.push(Reverse((Priority(root_f, 0), 0)));

    while let Some(Reverse((Priority(_f, _), idx))) = open.pop() {
        let rec = arena.records[idx];
        // Terminal (complete or Property-1 completed): first pop is optimal
        // because f equals the exact total for terminals and every other
        // frontier entry has admissible f ≤ its true cost.
        if !rec.total.is_nan() || rec.s.is_complete(tree) {
            return Ok(finish(
                tree, &bounder, &arena, &table, idx, expanded, generated, counters,
            ));
        }
        // Stale check: a better path to the same (placed, slots) was found
        // after this entry was pushed. The table records strict improvements
        // only, so "recorded value below ours" means superseded.
        let placed = arena.placed(idx);
        let stale = match table.probe(rec.hash, rec.s.slots_used, |id| {
            arena.placed(id as usize) == placed
        }) {
            Probe::Occupied { value, .. } => value < rec.s.weighted_wait,
            Probe::Vacant { .. } => false, // only the root is unrecorded
        };
        if stale {
            continue;
        }
        expanded += 1;
        if let Some(limit) = opts.node_limit {
            if expanded > limit {
                return Err(NodeLimitExceeded { limit });
            }
        }

        // Property-1 fast path: deterministic optimal completion. The entry
        // is marked terminal in place (its total only) and re-pushed at its
        // now-exact priority.
        if opts.property1 && rec.s.all_index_placed(tree) {
            let total = bounder.property1_total(placed, &rec.s, None);
            arena.records[idx].total = total;
            generated += 1;
            open.push(Reverse((Priority(total, generated), idx)));
            continue;
        }

        let available = layout.available(arena.words(idx));
        if opts.pruned {
            prune::pruned_children(tree, available, arena.last(idx), k, &mut children);
        } else {
            topo_tree::compound_children(available, k, &mut children);
        }
        for members in children.iter() {
            scratch.copy_from_slice(arena.words(idx));
            let mut s = rec.s;
            bounder.step(tree, layout, &mut scratch, &mut s, members, &mut counters);
            let g = s.weighted_wait;
            let placed = layout.placed(&scratch);
            let hash = bits::mix_hash(placed);
            let probe = table.probe(hash, s.slots_used, |id| arena.placed(id as usize) == placed);
            if let Probe::Occupied { value, .. } = probe {
                if value <= g {
                    continue; // dominated: an equal-or-better twin exists
                }
            }
            let f = g + bounder.estimate(layout, &scratch, &s, &mut counters);
            generated += 1;
            let id = arena.push(idx as u32, members, &scratch, hash, s);
            match probe {
                Probe::Occupied { slot, .. } => table.update(slot, id, g),
                Probe::Vacant { slot } => table.fill(slot, hash, s.slots_used, id, g),
            }
            open.push(Reverse((Priority(f, generated), id as usize)));
        }
    }
    unreachable!("a valid index tree always admits a feasible schedule")
}

#[allow(clippy::too_many_arguments)]
fn finish(
    tree: &IndexTree,
    bounder: &Bounder,
    arena: &Arena,
    table: &DominanceTable,
    idx: usize,
    expanded: u64,
    generated: u64,
    counters: BoundCounters,
) -> BestFirstResult {
    // Walk parents to the root, collecting slots.
    let mut slots: Vec<Vec<NodeId>> = Vec::new();
    let mut cur = idx as u32;
    while cur != ROOT {
        let last = arena.last(cur as usize);
        if !last.is_empty() {
            slots.push(last.to_vec());
        }
        cur = arena.records[cur as usize].parent;
    }
    slots.reverse();
    let rec = &arena.records[idx];
    let total = if rec.total.is_nan() {
        rec.s.weighted_wait
    } else {
        let tail_total = bounder.property1_total(arena.placed(idx), &rec.s, Some(&mut slots));
        debug_assert_eq!(tail_total.to_bits(), rec.total.to_bits());
        rec.total
    };
    let schedule = Schedule::from_slots(slots);
    let tw = tree.total_weight().get();
    BestFirstResult {
        schedule,
        data_wait: if tw == 0.0 { 0.0 } else { total / tw },
        nodes_expanded: expanded,
        nodes_generated: generated,
        stats: SearchStats {
            bound_full_evals: counters.full_evals,
            bound_inc_updates: counters.inc_updates,
            bound_work: counters.work,
            table_probes: table.probes(),
            table_hits: table.hits(),
            peak_arena_bytes: (arena.bytes() + table.heap_bytes()) as u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo_tree::solve_exhaustive;
    use bcast_index_tree::builders;
    use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};
    use proptest::prelude::*;

    #[test]
    fn matches_exhaustive_on_paper_example_all_k() {
        let t = builders::paper_example();
        for k in 1..=4 {
            let exact = solve_exhaustive(&t, k);
            for pruned in [false, true] {
                for bound in [BoundKind::Paper, BoundKind::Packed, BoundKind::Indexed] {
                    let opts = BestFirstOptions {
                        pruned,
                        bound,
                        ..BestFirstOptions::default()
                    };
                    let got = search(&t, k, &opts).unwrap();
                    assert!(
                        (got.data_wait - exact.data_wait).abs() < 1e-9,
                        "k={k} pruned={pruned} bound={bound:?}: {} vs {}",
                        got.data_wait,
                        exact.data_wait
                    );
                    // The schedule really evaluates to the reported cost and
                    // is feasible.
                    assert!((got.schedule.average_data_wait(&t) - got.data_wait).abs() < 1e-9);
                    got.schedule.into_allocation(&t, k).unwrap();
                }
            }
        }
    }

    #[test]
    fn two_channel_paper_optimum_value() {
        let t = builders::paper_example();
        let r = search(&t, 2, &BestFirstOptions::default()).unwrap();
        assert!((r.data_wait - 264.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_reduces_work() {
        let t = builders::paper_example();
        let unpruned = search(
            &t,
            2,
            &BestFirstOptions {
                pruned: false,
                property1: false,
                ..BestFirstOptions::default()
            },
        )
        .unwrap();
        let pruned = search(&t, 2, &BestFirstOptions::default()).unwrap();
        assert!(pruned.nodes_generated <= unpruned.nodes_generated);
    }

    #[test]
    fn node_limit_is_honored() {
        let t = builders::paper_example();
        let err = search(
            &t,
            1,
            &BestFirstOptions {
                node_limit: Some(1),
                ..BestFirstOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.limit, 1);
    }

    #[test]
    fn single_data_node_tree() {
        use bcast_index_tree::TreeBuilder;
        use bcast_types::Weight;
        let mut b = TreeBuilder::new();
        let root = b.root("r");
        b.add_data(root, Weight::from(5u32), "d").unwrap();
        let t = b.build().unwrap();
        let r = search(&t, 3, &BestFirstOptions::default()).unwrap();
        assert_eq!(r.data_wait, 2.0); // root slot 1, data slot 2
    }

    #[test]
    fn zero_weight_tree() {
        // Every bound and every g is zero, so each state ties on f: the
        // search must still reach a complete, feasible schedule.
        use bcast_index_tree::TreeBuilder;
        use bcast_types::Weight;
        let mut b = TreeBuilder::new();
        let root = b.root("r");
        b.add_data(root, Weight::ZERO, "d1").unwrap();
        b.add_data(root, Weight::ZERO, "d2").unwrap();
        let t = b.build().unwrap();
        let r = search(&t, 2, &BestFirstOptions::default()).unwrap();
        assert_eq!(r.data_wait, 0.0);
        r.schedule.into_allocation(&t, 2).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn optimal_on_random_trees(
            n in 2usize..6,
            k in 1usize..4,
            seed in 0u64..500,
            pruned: bool,
        ) {
            let cfg = RandomTreeConfig {
                data_nodes: n,
                max_fanout: 3,
                weights: FrequencyDist::Uniform { lo: 1.0, hi: 50.0 },
            };
            let t = random_tree(&cfg, seed);
            let exact = solve_exhaustive(&t, k);
            let opts = BestFirstOptions { pruned, ..BestFirstOptions::default() };
            let got = search(&t, k, &opts).unwrap();
            prop_assert!(
                (got.data_wait - exact.data_wait).abs() < 1e-9,
                "n={n} k={k} seed={seed} pruned={pruned}: best-first {} vs exhaustive {}",
                got.data_wait, exact.data_wait
            );
            got.schedule.into_allocation(&t, k).unwrap();
        }
    }
}
