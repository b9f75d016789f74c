//! The sequential best-first search keeps no per-state heap objects.
//!
//! A state is one fixed-size record plus one stride of words in the
//! search's pools, and every child is generated into one reused buffer and
//! built in one reused scratch stride, so a dominated child touches no
//! allocator. What a search does allocate is a fixed set-up (the bound's
//! rank columns, the scratch buffers, pools with room for the first 1,024
//! states), the doubling growth of its pools past that (records, words,
//! members, frontier heap, dominance table), and the schedule it returns:
//! one vector per slot plus the slot list.
//!
//! This binary installs the [`CountingAlloc`] global allocator and pins
//! the per-state rate at fewer than one allocation per thousand generated
//! states. The rate is measured between two searches of the same tree at
//! the same `k` that differ only in their bound, and so in how many states
//! they generate; the returned schedules' vectors are not counted. The
//! default Indexed bound walks the unplaced ranks of every surviving
//! child, so its search is held to fewer than one allocation per hundred
//! generated states in all, which a walk that allocated would break. The
//! tree is the balanced binary depth-5 tree, built as the A1 ablation
//! builds its trees.

use broadcast_alloc::alloc::best_first::{search, BestFirstOptions};
use broadcast_alloc::alloc::bound::BoundKind;
use broadcast_alloc::tree::{builders, IndexTree};
use broadcast_alloc::types::alloc_counter::{allocation_count, CountingAlloc};
use broadcast_alloc::workloads::FrequencyDist;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one search at k = 2, not counting the returned
/// schedule's vectors, and the states it generated.
fn measure(tree: &IndexTree, bound: BoundKind) -> (u64, u64) {
    let opts = BestFirstOptions {
        bound,
        ..BestFirstOptions::default()
    };
    let before = allocation_count();
    let result = search(tree, 2, &opts).expect("no node limit set");
    let allocs = allocation_count() - before;
    let schedule_vectors = result.schedule.len() as u64 + 1;
    (allocs - schedule_vectors, result.nodes_generated)
}

#[test]
fn search_allocates_less_than_once_per_thousand_generated_states() {
    let weights = FrequencyDist::Uniform { lo: 1.0, hi: 100.0 }.sample(16, 99);
    let tree = builders::full_balanced(2, 5, &weights).expect("valid balanced tree");
    let (packed_allocs, packed_states) = measure(&tree, BoundKind::Packed);
    let (paper_allocs, paper_states) = measure(&tree, BoundKind::Paper);
    let (indexed_allocs, indexed_states) = measure(&tree, BoundKind::Indexed);
    // The explorations this budget is measured against (pinned in
    // `search_golden.rs` as well).
    assert_eq!(
        (packed_states, paper_states, indexed_states),
        (14_036, 29_631, 6_013)
    );
    let extra_allocs = paper_allocs.saturating_sub(packed_allocs);
    let extra_states = paper_states - packed_states;
    assert!(
        extra_allocs * 1_000 < extra_states,
        "{extra_allocs} more allocations for {extra_states} more generated states \
         ({packed_allocs} for {packed_states}, {paper_allocs} for {paper_states})"
    );
    // The pools grow by doubling, so a whole search stays far below one
    // allocation per hundred states as well.
    for (allocs, states) in [
        (packed_allocs, packed_states),
        (indexed_allocs, indexed_states),
    ] {
        assert!(
            allocs * 100 < states,
            "{allocs} allocations for {states} generated states"
        );
    }
}
