//! Search-path state shared by the topological-tree algorithms.
//!
//! A node of the topological tree is identified by the multiset of tree
//! nodes placed so far (`PATH_T(X)`), the elements of the last compound node
//! `X`, the slot count, and the accumulated weighted wait `V(X)`. The
//! *candidate set* `S` of Algorithm 1 —
//! `S = ∪_{y ∈ PATH_T(X)} Children(y) − PATH_T(X)` — is maintained
//! incrementally: placing a compound node removes its members from `S` and
//! adds their children.
//!
//! A state is stored in two halves so that an engine can keep millions of
//! them without a heap object each: a fixed run of words (the placed set,
//! the candidate set and the bound's placed-rank set, laid out by
//! [`Layout`]) and the [`Scalars`]. [`place`] is the one implementation of
//! a placement over those halves; every engine, and the owned `PathState`
//! the exhaustive walk uses, goes through it.

use bcast_index_tree::IndexTree;
use bcast_types::{bits, NodeId};

/// Sorts node ids heaviest-first with the workspace-standard deterministic
/// tie-break (ascending id). Every module that ranks data nodes by access
/// frequency — pruning, bounds, Property-1 completions, the data tree —
/// must use this one comparator so their orders agree.
pub fn sort_weight_desc(tree: &IndexTree, nodes: &mut [NodeId]) {
    // The comparator is a total order over distinct ids, so the in-place
    // unstable sort yields the stable sort's order without its buffer.
    nodes.sort_unstable_by(|&a, &b| tree.weight(b).cmp(&tree.weight(a)).then(a.cmp(&b)));
}

/// Where one state's sets sit in its run of words: the placed set, then
/// the candidate set (one bit per tree node each), then one bit per data
/// node for the bound's placed ranks (none if the bound keeps no ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    node_words: usize,
    rank_words: usize,
}

impl Layout {
    /// The layout for a tree of `nodes` nodes and `ranks` rank bits.
    pub fn new(nodes: usize, ranks: usize) -> Self {
        Layout {
            node_words: bits::words_for(nodes),
            rank_words: bits::words_for(ranks),
        }
    }

    /// Words of one node set: `⌈n/64⌉`.
    pub fn node_words(self) -> usize {
        self.node_words
    }

    /// Words per state: `2·⌈n/64⌉ + ⌈ranks/64⌉`.
    pub fn stride(self) -> usize {
        2 * self.node_words + self.rank_words
    }

    /// The placed set `PATH_T(X)` of a state's words.
    pub fn placed(self, words: &[u64]) -> &[u64] {
        &words[..self.node_words]
    }

    /// The candidate set `S` of a state's words.
    pub fn available(self, words: &[u64]) -> &[u64] {
        &words[self.node_words..2 * self.node_words]
    }

    /// The bound's placed-rank set.
    pub fn ranks(self, words: &[u64]) -> &[u64] {
        &words[2 * self.node_words..self.stride()]
    }

    /// The bound's placed-rank set, mutable.
    pub fn ranks_mut(self, words: &mut [u64]) -> &mut [u64] {
        &mut words[2 * self.node_words..self.stride()]
    }

    /// Writes the initial state into `words`: nothing placed, only the
    /// tree root available.
    pub fn write_root(self, tree: &IndexTree, words: &mut [u64]) {
        words.fill(0);
        bits::insert(&mut words[self.node_words..], tree.root());
    }
}

/// The fixed-size half of a search state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Scalars {
    /// Slots used so far.
    pub slots_used: u32,
    /// Number of placed nodes.
    pub placed: u32,
    /// Number of placed *index* nodes (for the Property-1 fast path).
    pub placed_index: u32,
    /// `V(X)`: accumulated `Σ W(d)·T(d)` over placed data nodes
    /// (unnormalized).
    pub weighted_wait: f64,
    /// Bound companion: total weight of unplaced data nodes (see
    /// [`crate::bound`]).
    pub unplaced: f64,
    /// Bound companion: the packing penalty of the unplaced data nodes
    /// (always 0 for [`crate::bound::BoundKind::Paper`]; Packed and Indexed
    /// both carry it).
    pub penalty: f64,
}

impl Scalars {
    /// True once every tree node has been placed.
    pub fn is_complete(&self, tree: &IndexTree) -> bool {
        self.placed as usize == tree.len()
    }

    /// True if every unplaced node is a data node (Property 1 / the
    /// deterministic-completion fast path applies).
    pub fn all_index_placed(&self, tree: &IndexTree) -> bool {
        self.placed_index as usize == tree.num_index_nodes()
    }
}

/// Transmits `members` in the next slot: each leaves the candidate set,
/// joins the placed set and offers its children, and each data member adds
/// `W·slot` to the weighted wait, in member order. The bound companion is
/// advanced separately, by [`crate::bound::Bounder::step`].
///
/// # Panics
/// Debug-asserts that every member is currently available.
pub fn place(
    tree: &IndexTree,
    layout: Layout,
    words: &mut [u64],
    s: &mut Scalars,
    members: &[NodeId],
) {
    let (placed, rest) = words.split_at_mut(layout.node_words);
    let available = &mut rest[..layout.node_words];
    s.slots_used += 1;
    s.placed += members.len() as u32;
    for &n in members {
        let was_available = bits::remove(available, n);
        debug_assert!(was_available, "placing unavailable node {n}");
        bits::insert(placed, n);
        for &c in tree.children(n) {
            bits::insert(available, c);
        }
        if tree.is_data(n) {
            s.weighted_wait += tree.weight(n) * u64::from(s.slots_used);
        } else {
            s.placed_index += 1;
        }
    }
}

/// The compound nodes one expansion offers, stored flat: every subset of
/// one expansion has the same size, so subset `i` is
/// `ids[i·width..(i+1)·width]`. The generators ([`crate::prune`],
/// [`crate::topo_tree`]) refill it in place and keep their working lists
/// in it too, so an engine that reuses one `Subsets` allocates only while
/// its buffers are still growing.
#[derive(Debug, Default, Clone)]
pub struct Subsets {
    pub(crate) width: usize,
    pub(crate) ids: Vec<NodeId>,
    /// Generator scratch: data candidates.
    pub(crate) data: Vec<NodeId>,
    /// Generator scratch: index candidates (or all of `S`).
    pub(crate) index: Vec<NodeId>,
    /// Generator scratch: the combination being built.
    pub(crate) pick: Vec<NodeId>,
}

impl Subsets {
    /// The subsets, in generation order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, NodeId> {
        self.ids.chunks_exact(self.width.max(1))
    }
}

/// Calls `emit` with every `need`-element combination of `items`, in
/// lexicographic order of positions, building each in `pick` (which must
/// start empty).
pub(crate) fn for_each_combination(
    items: &[NodeId],
    need: usize,
    from: usize,
    pick: &mut Vec<NodeId>,
    emit: &mut impl FnMut(&[NodeId]),
) {
    if pick.len() == need {
        emit(pick);
        return;
    }
    let missing = need - pick.len();
    if items.len() - from < missing {
        return;
    }
    for i in from..=items.len() - missing {
        pick.push(items[i]);
        for_each_combination(items, need, i + 1, pick, emit);
        pick.pop();
    }
}

/// One owned search state over the word layout: the exhaustive walk's
/// state, and the handle the unit tests drive the generators and bounds
/// through. [`PathState::place`] copies the words and runs [`place`].
#[derive(Clone, Debug)]
pub(crate) struct PathState {
    pub(crate) layout: Layout,
    pub(crate) words: Vec<u64>,
    /// Elements of the most recent compound node `X` (empty at the root
    /// pseudo-state before slot 1).
    pub(crate) last: Vec<NodeId>,
    pub(crate) s: Scalars,
}

impl PathState {
    /// The initial state: nothing placed, only the tree root available,
    /// with no rank words.
    pub(crate) fn initial(tree: &IndexTree) -> Self {
        PathState::with_layout(tree, Layout::new(tree.len(), 0))
    }

    /// The initial state under `layout` (no bound companion attached).
    pub(crate) fn with_layout(tree: &IndexTree, layout: Layout) -> Self {
        let mut words = vec![0; layout.stride()];
        layout.write_root(tree, &mut words);
        PathState {
            layout,
            words,
            last: Vec::new(),
            s: Scalars::default(),
        }
    }

    /// The candidate set `S`.
    pub(crate) fn available(&self) -> &[u64] {
        self.layout.available(&self.words)
    }

    /// `PATH_T(X)`.
    #[cfg(test)]
    pub(crate) fn placed(&self) -> &[u64] {
        self.layout.placed(&self.words)
    }

    /// Returns the state after transmitting `members` in the next slot.
    pub(crate) fn place(&self, tree: &IndexTree, members: &[NodeId]) -> PathState {
        let mut next = self.clone();
        place(tree, self.layout, &mut next.words, &mut next.s, members);
        next.last = members.to_vec();
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::{BoundKind, Bounder};
    use bcast_index_tree::builders;

    fn id(tree: &IndexTree, label: &str) -> NodeId {
        tree.find_by_label(label).expect("label exists")
    }

    #[test]
    fn initial_state_offers_root() {
        let t = builders::paper_example();
        let s = PathState::initial(&t);
        assert_eq!(bits::count(s.available()), 1);
        assert!(bits::contains(s.available(), t.root()));
        assert!(!s.s.is_complete(&t));
        assert_eq!(s.s.slots_used, 0);
    }

    #[test]
    fn placing_updates_candidates_like_example1() {
        // Paper Example 1: PATH_T(X) = {1,2,3} ⇒ S = {4, A, B, E}.
        let t = builders::paper_example();
        let s0 = PathState::initial(&t);
        let s1 = s0.place(&t, &[id(&t, "1")]);
        let s2 = s1.place(&t, &[id(&t, "2"), id(&t, "3")]);
        let mut avail: Vec<String> = bits::iter(s2.available()).map(|n| t.label(n)).collect();
        avail.sort();
        assert_eq!(avail, vec!["4", "A", "B", "E"]);
        assert_eq!(s2.s.slots_used, 2);
        assert_eq!(s2.s.placed, 3);
        assert_eq!(s2.s.weighted_wait, 0.0); // only index nodes so far
    }

    #[test]
    fn weighted_wait_accumulates() {
        let t = builders::paper_example();
        let s = PathState::initial(&t)
            .place(&t, &[id(&t, "1")])
            .place(&t, &[id(&t, "2"), id(&t, "3")])
            .place(&t, &[id(&t, "A"), id(&t, "E")]);
        // A and E both land in slot 3: (20 + 18) · 3 = 114.
        assert_eq!(s.s.weighted_wait, 114.0);
    }

    #[test]
    fn property1_completion_orders_by_weight() {
        let t = builders::paper_example();
        // Place all four index nodes in two slots (1 | 2 3 | 4).
        let s = PathState::initial(&t)
            .place(&t, &[id(&t, "1")])
            .place(&t, &[id(&t, "2"), id(&t, "3")])
            .place(&t, &[id(&t, "4")]);
        assert!(s.s.all_index_placed(&t));
        let b = Bounder::new(&t, 2, BoundKind::Packed);
        let mut slots = Vec::new();
        let wait = b.property1_total(s.placed(), &s.s, Some(&mut slots));
        // Remaining data desc: A(20), E(18), C(15), B(10), D(7) at slots
        // 4,4,5,5,6 ⇒ 20·4 + 18·4 + 15·5 + 10·5 + 7·6 = 319.
        assert_eq!(wait, 319.0);
        assert_eq!(b.property1_total(s.placed(), &s.s, None), 319.0);
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[0], vec![id(&t, "A"), id(&t, "E")]);
        assert_eq!(slots[2], vec![id(&t, "D")]);
    }

    #[test]
    fn all_index_placed_detects_missing() {
        let t = builders::paper_example();
        let s = PathState::initial(&t).place(&t, &[id(&t, "1")]);
        assert!(!s.s.all_index_placed(&t));
    }
}
