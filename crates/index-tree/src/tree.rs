//! The columnar index tree and its cached query structures.
//!
//! An [`IndexTree`] owns no per-node heap objects. It is a handful of flat
//! columns indexed by [`NodeId`]: the parent of every node, a CSR child
//! table, levels, preorder ranks, subtree sizes and subtree weights, plus
//! the data nodes in preorder and a label column that stops at the last
//! labeled node. Each fact is stored once:
//!
//! * a node is a data node exactly when its child range is empty,
//! * a data node's weight is its subtree weight,
//! * an index node's weight is zero.
//!
//! An unlabeled build therefore makes a fixed number of allocations,
//! whatever the tree's size, and dropping a tree frees a handful of
//! vectors.

use bcast_types::{BitSet, NodeId, Weight};

/// An immutable index tree over which broadcast allocations are computed.
///
/// Invariants (established by [`TreeBuilder`](crate::TreeBuilder) and
/// re-checkable via [`IndexTree::check_invariants`]):
///
/// * node `0` is the root,
/// * every other node's parent has a smaller id,
/// * every index node has a child, so the leaves are exactly the data nodes,
/// * the parent column and the child table agree,
/// * there is at least one data node.
///
/// On construction the tree caches the per-node *level* (root = 1, the
/// paper's convention), the *preorder rank* (the paper's "unique weight"
/// assigned to index nodes, used to orient local swaps), and subtree
/// aggregates (node count and total data weight, used by the Index Tree
/// Sorting heuristic).
#[derive(Clone, Debug)]
pub struct IndexTree {
    /// Parent of every node; the root's entry is the root itself.
    parents: Vec<NodeId>,
    levels: Vec<u32>,
    preorder_ranks: Vec<u32>,
    preorder_seq: Vec<NodeId>,
    subtree_sizes: Vec<u32>,
    /// Total data weight under each node; a data node's entry is its own
    /// weight.
    subtree_weights: Vec<Weight>,
    /// CSR child table: node `i`'s children occupy
    /// `child_flat[child_starts[i] .. child_starts[i + 1]]`, in key order.
    child_starts: Vec<u32>,
    child_flat: Vec<NodeId>,
    data_nodes: Vec<NodeId>,
    /// Labels of nodes `0..labels.len()`; every later node is unlabeled.
    labels: Vec<Option<String>>,
    total_weight: Weight,
    depth: u32,
}

impl IndexTree {
    /// Derives every cached column from the builder's columns.
    ///
    /// Only called by `TreeBuilder`. `parents[0]` is the root itself and
    /// every other node's parent has a smaller id; `weights` holds each
    /// data node's weight and zero for index nodes.
    pub(crate) fn from_columns(
        parents: Vec<NodeId>,
        weights: Vec<Weight>,
        labels: Vec<Option<String>>,
    ) -> Self {
        let n = parents.len();
        let mut subtree_weights = weights;
        let mut subtree_sizes = vec![1u32; n];

        // One counting pass over the parent column sizes every child range
        // and leaves `child_starts[p]` at the end of `p`'s range.
        let mut child_starts = vec![0u32; n + 1];
        for &p in &parents[1..] {
            child_starts[p.index()] += 1;
        }
        let mut end = 0u32;
        for s in &mut child_starts {
            end += *s;
            *s = end;
        }
        // Fill every range back to front in descending id order, so siblings
        // land in ascending id (= insertion = key) order and each start
        // counts down to its final value. Children have larger ids than
        // their parent, so each subtree aggregate is complete before it is
        // folded upward, and each parent adds its children last to first.
        let mut child_flat = vec![NodeId::ROOT; n - 1];
        for c in (1..n).rev() {
            let p = parents[c].index();
            child_starts[p] -= 1;
            child_flat[child_starts[p] as usize] = NodeId::from_index(c);
            subtree_sizes[p] += subtree_sizes[c];
            let w = subtree_weights[c];
            subtree_weights[p] += w;
        }

        // Levels and preorder ranks top-down: a node's first child follows
        // it in preorder and each later child follows its elder sibling's
        // whole subtree.
        let mut levels = vec![1u32; n];
        let mut preorder_ranks = vec![0u32; n];
        let mut leaves = 0usize;
        for p in 0..n {
            let range = child_starts[p] as usize..child_starts[p + 1] as usize;
            leaves += usize::from(range.is_empty());
            let mut next = preorder_ranks[p] + 1;
            for &c in &child_flat[range] {
                levels[c.index()] = levels[p] + 1;
                preorder_ranks[c.index()] = next;
                next += subtree_sizes[c.index()];
            }
        }
        let mut preorder_seq = vec![NodeId::ROOT; n];
        for (i, &r) in preorder_ranks.iter().enumerate() {
            preorder_seq[r as usize] = NodeId::from_index(i);
        }
        let mut data_nodes = Vec::with_capacity(leaves);
        data_nodes.extend(
            preorder_seq
                .iter()
                .copied()
                .filter(|&id| child_starts[id.index()] == child_starts[id.index() + 1]),
        );

        let total_weight = subtree_weights[0];
        let depth = levels.iter().copied().max().unwrap_or(0);
        IndexTree {
            parents,
            levels,
            preorder_ranks,
            preorder_seq,
            subtree_sizes,
            subtree_weights,
            child_starts,
            child_flat,
            data_nodes,
            labels,
            total_weight,
            depth,
        }
    }

    /// Total number of nodes (index + data).
    #[inline]
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True only for the degenerate empty tree (never produced by builders).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Re-weights a set of data nodes in place, repairing the subtree
    /// weights of their ancestors only: O(|updates| · depth) and no
    /// comparison sort, plus clearing one bit per node.
    ///
    /// The walk up from each updated leaf marks every ancestor it reaches
    /// and stops at the first one already marked. The marked nodes are then
    /// bucketed by level and refolded deepest level first, so each is
    /// refolded once, after all of its children. Each refold adds its
    /// children last to first starting from zero, the order a fresh build
    /// folds them in, so the repaired table is **bit-identical** to the one
    /// a from-scratch build over the new weights would produce — the
    /// property the delta republish lane's density keys rely on. Tree
    /// *structure* (children, levels, preorder, subtree sizes) is
    /// untouched. When a leaf appears more than once, its last update wins.
    ///
    /// # Panics
    /// Panics if any updated node is not a data node. Every target is
    /// checked before anything is written, so a refused call leaves the
    /// tree unchanged.
    pub fn reweight(&mut self, updates: &[(NodeId, Weight)]) {
        for &(id, _) in updates {
            assert!(self.is_data(id), "reweight targets data nodes, got {id}");
        }
        if updates.is_empty() {
            return;
        }
        let depth = self.depth as usize;
        let mut marked = BitSet::with_capacity(self.len());
        let mut dirty = Vec::with_capacity(
            self.num_index_nodes()
                .min(updates.len().saturating_mul(depth)),
        );
        for &(id, w) in updates {
            self.subtree_weights[id.index()] = w;
            let mut cur = id;
            while let Some(p) = self.parent(cur) {
                if !marked.insert(p) {
                    break;
                }
                dirty.push(p);
                cur = p;
            }
        }
        // Counting sort on the level column: bucket `depth - level`, so the
        // deepest level comes first.
        let mut bucket_starts = vec![0usize; depth + 1];
        for &p in &dirty {
            bucket_starts[depth - self.levels[p.index()] as usize] += 1;
        }
        let mut start = 0;
        for s in &mut bucket_starts {
            start += *s;
            *s = start - *s;
        }
        let mut order = vec![NodeId::ROOT; dirty.len()];
        for &p in &dirty {
            let b = &mut bucket_starts[depth - self.levels[p.index()] as usize];
            order[*b] = p;
            *b += 1;
        }
        for &p in &order {
            let mut acc = Weight::ZERO;
            for &c in self.child_flat[self.child_range(p)].iter().rev() {
                acc += self.subtree_weights[c.index()];
            }
            self.subtree_weights[p.index()] = acc;
        }
        self.total_weight = self.subtree_weights[0];
    }

    /// The root node id (`NodeId::ROOT`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Children of `id` in key order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.child_flat[self.child_range(id)]
    }

    /// Parent of `id`, `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        (id != NodeId::ROOT).then(|| self.parents[id.index()])
    }

    /// True if `id` is a data (leaf) node.
    #[inline]
    pub fn is_data(&self, id: NodeId) -> bool {
        self.child_starts[id.index()] == self.child_starts[id.index() + 1]
    }

    /// True if `id` is an index (internal) node.
    #[inline]
    pub fn is_index(&self, id: NodeId) -> bool {
        !self.is_data(id)
    }

    /// Access frequency of `id` (zero for index nodes).
    #[inline]
    pub fn weight(&self, id: NodeId) -> Weight {
        if self.is_data(id) {
            self.subtree_weights[id.index()]
        } else {
            Weight::ZERO
        }
    }

    /// Level of `id`, root = 1 (the paper's convention).
    #[inline]
    pub fn level(&self, id: NodeId) -> u32 {
        self.levels[id.index()]
    }

    /// Preorder rank of `id`, root = 0.
    ///
    /// The paper gives each index node "a unique weight ... by numbering the
    /// index nodes from 1 by the preorder traversal"; this rank is that
    /// tie-break weight (lower rank = earlier in preorder = heavier priority).
    #[inline]
    pub fn preorder_rank(&self, id: NodeId) -> u32 {
        self.preorder_ranks[id.index()]
    }

    /// All nodes in preorder.
    #[inline]
    pub fn preorder(&self) -> &[NodeId] {
        &self.preorder_seq
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    #[inline]
    pub fn subtree_size(&self, id: NodeId) -> u32 {
        self.subtree_sizes[id.index()]
    }

    /// Total data weight in the subtree rooted at `id`.
    #[inline]
    pub fn subtree_weight(&self, id: NodeId) -> Weight {
        self.subtree_weights[id.index()]
    }

    /// All data nodes, in preorder.
    #[inline]
    pub fn data_nodes(&self) -> &[NodeId] {
        &self.data_nodes
    }

    /// Number of data nodes.
    #[inline]
    pub fn num_data_nodes(&self) -> usize {
        self.data_nodes.len()
    }

    /// Number of index nodes.
    #[inline]
    pub fn num_index_nodes(&self) -> usize {
        self.len() - self.num_data_nodes()
    }

    /// Sum of all data weights (`Σ W(Di)`, the denominator of formula 1).
    #[inline]
    pub fn total_weight(&self) -> Weight {
        self.total_weight
    }

    /// Depth of the tree in levels (root = 1, so the paper's "depth 3"
    /// balanced trees report 3 here).
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Maximum number of nodes on any single level.
    ///
    /// Corollary 1 of the paper: if the number of channels is at least this
    /// wide, the level-by-level allocation is optimal.
    pub fn max_level_width(&self) -> usize {
        let mut widths = vec![0usize; self.depth as usize + 1];
        for &l in &self.levels {
            widths[l as usize] += 1;
        }
        widths.into_iter().max().unwrap_or(0)
    }

    /// The flattened CSR child table: the concatenation of every node's
    /// children in node-id order. Node `i` owns the index range
    /// [`IndexTree::child_range`]`(i)` of this slice.
    ///
    /// Together with [`IndexTree::child_starts`],
    /// [`IndexTree::subtree_size_table`], [`IndexTree::subtree_weight_table`]
    /// and [`IndexTree::level_table`], this is the structure-of-arrays
    /// preorder view the §4.2 heuristics traverse: child ranges can be
    /// copied once into a scratch buffer and sorted in place, with subtree
    /// aggregates read by plain indexing.
    #[inline]
    pub fn flat_children(&self) -> &[NodeId] {
        &self.child_flat
    }

    /// CSR offsets into [`IndexTree::flat_children`], length `len() + 1`.
    /// Monotone; `child_starts()[i]..child_starts()[i + 1]` is node `i`'s
    /// child range.
    #[inline]
    pub fn child_starts(&self) -> &[u32] {
        &self.child_starts
    }

    /// Index range of `id`'s children within [`IndexTree::flat_children`].
    #[inline]
    pub fn child_range(&self, id: NodeId) -> std::ops::Range<usize> {
        self.child_starts[id.index()] as usize..self.child_starts[id.index() + 1] as usize
    }

    /// Per-node subtree sizes, indexed by `NodeId` (the SoA twin of
    /// [`IndexTree::subtree_size`]).
    #[inline]
    pub fn subtree_size_table(&self) -> &[u32] {
        &self.subtree_sizes
    }

    /// Per-node subtree data weights, indexed by `NodeId` (the SoA twin of
    /// [`IndexTree::subtree_weight`]).
    #[inline]
    pub fn subtree_weight_table(&self) -> &[Weight] {
        &self.subtree_weights
    }

    /// Per-node levels (root = 1), indexed by `NodeId` (the SoA twin of
    /// [`IndexTree::level`]).
    #[inline]
    pub fn level_table(&self) -> &[u32] {
        &self.levels
    }

    /// Iterator over the proper ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(self.parent(id), move |&a| self.parent(a))
    }

    /// The paper's `Ancestor(Di)`: set of proper ancestors of `id`.
    pub fn ancestor_set(&self, id: NodeId) -> BitSet {
        let mut set = BitSet::with_capacity(self.len());
        for a in self.ancestors(id) {
            set.insert(a);
        }
        set
    }

    /// True if `parent` is the tree parent of `child`.
    #[inline]
    pub fn is_parent_of(&self, parent: NodeId, child: NodeId) -> bool {
        self.parent(child) == Some(parent)
    }

    /// Label of `id` if one was set, else its debug id.
    pub fn label(&self, id: NodeId) -> String {
        match self.labels.get(id.index()) {
            Some(Some(label)) => label.clone(),
            _ => format!("{id}"),
        }
    }

    /// Looks a node up by label (linear scan; intended for tests/examples).
    pub fn find_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels
            .iter()
            .position(|l| l.as_deref() == Some(label))
            .map(NodeId::from_index)
    }

    /// Weighted path length `Σ W(d) · level(d)`: the classic alphabetic-tree
    /// objective minimized by Hu–Tucker, and a proxy for average tuning time.
    pub fn weighted_path_length(&self) -> f64 {
        self.data_nodes
            .iter()
            .map(|&d| self.weight(d) * u64::from(self.level(d)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::IndexTree;
    use crate::{builders, knary, TreeBuilder};
    use bcast_types::{NodeId, Weight};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl IndexTree {
        /// The sort-based reweight the level-bucketed one replaced, kept as
        /// its oracle: every ancestor of every update, sorted deepest level
        /// first and deduplicated, then refolded.
        fn reweight_by_sort(&mut self, updates: &[(NodeId, Weight)]) {
            for &(id, w) in updates {
                assert!(self.is_data(id), "reweight targets data nodes, got {id}");
                self.subtree_weights[id.index()] = w;
            }
            let mut dirty: Vec<NodeId> = updates
                .iter()
                .flat_map(|&(id, _)| self.ancestors(id))
                .collect();
            dirty.sort_unstable_by_key(|&p| (std::cmp::Reverse(self.levels[p.index()]), p));
            dirty.dedup();
            for &p in &dirty {
                let mut acc = Weight::ZERO;
                for &c in self.children(p).iter().rev() {
                    acc += self.subtree_weights[c.index()];
                }
                self.subtree_weights[p.index()] = acc;
            }
            self.total_weight = self.subtree_weights[0];
        }
    }

    /// A from-scratch build of `tree`'s shape, data node `d` weighing
    /// `weight(d)`. Adding nodes in id order reproduces every id.
    fn rebuild_with(tree: &IndexTree, weight: impl Fn(NodeId) -> Weight) -> IndexTree {
        let mut b = TreeBuilder::with_capacity(tree.len());
        b.root("1");
        for i in 1..tree.len() {
            let id = NodeId::from_index(i);
            let parent = tree.parent(id).unwrap();
            let added = if tree.is_data(id) {
                b.add_data_unlabeled(parent, weight(id))
            } else {
                b.add_index_unlabeled(parent)
            };
            assert_eq!(added.unwrap(), id);
        }
        b.build().unwrap()
    }

    fn weight_bits(t: &IndexTree) -> Vec<u64> {
        (0..t.len())
            .map(|i| t.weight(NodeId::from_index(i)).get().to_bits())
            .collect()
    }

    fn subtree_bits(t: &IndexTree) -> Vec<u64> {
        t.subtree_weight_table()
            .iter()
            .map(|w| w.get().to_bits())
            .collect()
    }

    /// Subtree weights, weights and total weight agree bit for bit.
    fn assert_same_weights(a: &IndexTree, b: &IndexTree, what: &str) {
        assert_eq!(subtree_bits(a), subtree_bits(b), "{what}: subtree weights");
        assert_eq!(weight_bits(a), weight_bits(b), "{what}: weights");
        assert_eq!(
            a.total_weight().get().to_bits(),
            b.total_weight().get().to_bits(),
            "{what}: total weight"
        );
    }

    /// A fractional weight drawn from `rng`, so f64 accumulation order is
    /// observable in the sums.
    fn fractional(rng: &mut StdRng) -> Weight {
        Weight::new(rng.gen_range(0.0..100.0) + 0.1).unwrap()
    }

    /// A random tree over `items` leaves whose index nodes have between
    /// `lo` and `hi` children (fewer only where too few leaves remain).
    fn random_shape(items: usize, lo: usize, hi: usize, rng: &mut StdRng) -> IndexTree {
        let mut b = TreeBuilder::new();
        let mut stack = vec![(b.root("1"), items)];
        while let Some((parent, n)) = stack.pop() {
            let parts = rng.gen_range(lo..=hi).min(n);
            // Deal the leaves out one at a time, then split the rest at random.
            let mut sizes = vec![1usize; parts];
            for _ in parts..n {
                let at = rng.gen_range(0..parts);
                sizes[at] += 1;
            }
            for size in sizes {
                if size == 1 {
                    b.add_data_unlabeled(parent, fractional(rng)).unwrap();
                } else {
                    stack.push((b.add_index_unlabeled(parent).unwrap(), size));
                }
            }
        }
        b.build().unwrap()
    }

    fn zipf(items: usize) -> Vec<Weight> {
        (0..items)
            .map(|r| Weight::new(1_000.0 / ((r + 1) as f64).powf(0.9)).unwrap())
            .collect()
    }

    #[derive(Clone, Copy, Debug)]
    enum Shape {
        Narrow,
        Wide,
        Chain,
        ZipfBalanced,
    }

    #[derive(Clone, Copy, Debug)]
    enum Updates {
        Empty,
        OneLeaf,
        EveryLeaf,
        RepeatedLeaf,
    }

    const SHAPES: [Shape; 4] = [
        Shape::Narrow,
        Shape::Wide,
        Shape::Chain,
        Shape::ZipfBalanced,
    ];
    const UPDATES: [Updates; 4] = [
        Updates::Empty,
        Updates::OneLeaf,
        Updates::EveryLeaf,
        Updates::RepeatedLeaf,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn reweight_matches_the_sort_oracle_and_a_fresh_build(
            shape in 0usize..4,
            updates in 0usize..4,
            items in 1usize..600,
            seed in any::<u64>(),
        ) {
            let (shape, updates) = (SHAPES[shape], UPDATES[updates]);
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = match shape {
                Shape::Narrow => random_shape(items, 2, 7, &mut rng),
                Shape::Wide => random_shape(items, 64, 200, &mut rng),
                Shape::Chain => {
                    let w: Vec<Weight> = (0..items).map(|_| fractional(&mut rng)).collect();
                    builders::chain(&w).unwrap()
                }
                Shape::ZipfBalanced => {
                    knary::build_weight_balanced_unlabeled(&zipf(items), rng.gen_range(2..=7))
                        .unwrap()
                }
            };
            let data = tree.data_nodes();
            let pick = data[rng.gen_range(0..data.len())];
            let batch: Vec<(NodeId, Weight)> = match updates {
                Updates::Empty => Vec::new(),
                Updates::OneLeaf => vec![(pick, fractional(&mut rng))],
                Updates::EveryLeaf => data.iter().map(|&d| (d, fractional(&mut rng))).collect(),
                Updates::RepeatedLeaf => vec![
                    (pick, fractional(&mut rng)),
                    (data[0], fractional(&mut rng)),
                    (pick, fractional(&mut rng)),
                ],
            };

            let mut live = tree.clone();
            live.reweight(&batch);
            let mut oracle = tree.clone();
            oracle.reweight_by_sort(&batch);
            assert_same_weights(&live, &oracle, "sort oracle");

            // Later updates of a leaf win.
            let mut fresh_weights: Vec<Weight> =
                (0..tree.len()).map(|i| tree.weight(NodeId::from_index(i))).collect();
            for &(id, w) in &batch {
                fresh_weights[id.index()] = w;
            }
            let fresh = rebuild_with(&tree, |id| fresh_weights[id.index()]);
            assert_same_weights(&live, &fresh, "fresh build");
            prop_assert_eq!(live.preorder(), tree.preorder());
            prop_assert_eq!(live.child_starts(), tree.child_starts());
        }
    }

    #[test]
    fn a_refused_reweight_changes_nothing() {
        let mut t = builders::paper_example();
        let a = t.find_by_label("A").unwrap();
        let n2 = t.find_by_label("2").unwrap();
        let before = t.clone();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.reweight(&[(a, Weight::new(0.3).unwrap()), (n2, Weight::from(1u32))]);
        }));
        assert!(refused.is_err(), "an index-node target must be refused");
        assert_same_weights(&t, &before, "refused call");
        assert_eq!(t.preorder(), before.preorder());
        assert_eq!(t.flat_children(), before.flat_children());
        assert_eq!(t.child_starts(), before.child_starts());
        assert_eq!(t.level_table(), before.level_table());
        assert_eq!(t.subtree_size_table(), before.subtree_size_table());
        assert_eq!(t.data_nodes(), before.data_nodes());
    }

    #[test]
    fn paper_example_structure() {
        let t = builders::paper_example();
        assert_eq!(t.len(), 9);
        assert_eq!(t.num_data_nodes(), 5);
        assert_eq!(t.num_index_nodes(), 4);
        assert_eq!(t.total_weight().get(), 70.0);
        assert_eq!(t.depth(), 4); // 1 → 3 → 4 → C
        let a = t.find_by_label("A").unwrap();
        assert!(t.is_data(a));
        assert_eq!(t.weight(a).get(), 20.0);
        let n2 = t.find_by_label("2").unwrap();
        assert!(t.is_index(n2));
        assert_eq!(t.weight(n2), Weight::ZERO);
        assert!(t.is_parent_of(n2, a));
        assert_eq!(t.level(t.root()), 1);
        assert_eq!(t.level(a), 3);
    }

    #[test]
    fn labels_stop_at_the_last_labeled_node() {
        let t = knary::build_weight_balanced_unlabeled(&zipf(50), 4).unwrap();
        assert_eq!(t.labels.len(), 1);
        assert_eq!(t.label(t.root()), "1");
        let d = t.data_nodes()[0];
        assert_eq!(t.label(d), format!("{d}"));
        assert_eq!(t.find_by_label("1"), Some(t.root()));
        assert_eq!(t.find_by_label(&format!("{d}")), None);
    }

    #[test]
    fn preorder_ranks_are_unique_and_root_first() {
        let t = builders::paper_example();
        let mut ranks: Vec<u32> = (0..t.len())
            .map(|i| t.preorder_rank(NodeId::from_index(i)))
            .collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..t.len() as u32).collect::<Vec<_>>());
        assert_eq!(t.preorder_rank(t.root()), 0);
        assert_eq!(t.preorder()[0], t.root());
        let labels: Vec<String> = t.preorder().iter().map(|&n| t.label(n)).collect();
        assert_eq!(labels, ["1", "2", "A", "B", "3", "E", "4", "C", "D"]);
    }

    #[test]
    fn ancestors_of_paper_node_c() {
        // Ancestor(C) = {4, 3, 1} in the paper's Fig. 1(a).
        let t = builders::paper_example();
        let c = t.find_by_label("C").unwrap();
        let labels: Vec<String> = t.ancestors(c).map(|a| t.label(a)).collect();
        assert_eq!(labels, vec!["4", "3", "1"]);
        let set = t.ancestor_set(c);
        assert_eq!(set.len(), 3);
        assert!(set.contains(t.root()));
    }

    #[test]
    fn subtree_aggregates() {
        let t = builders::paper_example();
        let n3 = t.find_by_label("3").unwrap();
        // Subtree of 3: {3, E, 4, C, D} → 5 nodes, weight 18+15+7 = 40.
        assert_eq!(t.subtree_size(n3), 5);
        assert_eq!(t.subtree_weight(n3).get(), 40.0);
        assert_eq!(t.subtree_size(t.root()) as usize, t.len());
    }

    #[test]
    fn csr_child_table_matches_node_children() {
        let t = builders::paper_example();
        assert_eq!(t.child_starts().len(), t.len() + 1);
        assert_eq!(t.flat_children().len(), t.len() - 1);
        for i in 0..t.len() {
            let id = NodeId::from_index(i);
            for &c in t.children(id) {
                assert_eq!(t.parent(c), Some(id));
            }
        }
        let kids: Vec<String> = t
            .children(t.find_by_label("3").unwrap())
            .iter()
            .map(|&c| t.label(c))
            .collect();
        assert_eq!(kids, ["E", "4"]);
        assert_eq!(t.subtree_size_table().len(), t.len());
        assert_eq!(t.subtree_weight_table()[0], t.total_weight());
        assert_eq!(t.level_table()[0], 1);
    }

    #[test]
    fn max_level_width_of_balanced_tree() {
        let weights: Vec<Weight> = (1..=9u32).map(Weight::from).collect();
        let t = builders::full_balanced(3, 3, &weights).unwrap();
        assert_eq!(t.num_data_nodes(), 9);
        assert_eq!(t.max_level_width(), 9);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn weighted_path_length_counts_levels() {
        let t = builders::paper_example();
        // A,B at level 3 (20+10)*3 = 90; E at level 3: 54; C,D at level 4: 88.
        assert_eq!(t.weighted_path_length(), 90.0 + 54.0 + 88.0);
    }

    #[test]
    fn reweight_matches_from_scratch_rebuild_bit_for_bit() {
        // Fractional weights make f64 accumulation order observable: the
        // repaired subtree-weight table must match a from-scratch build
        // over the new weights down to the last bit, not just approximately.
        let weights: Vec<Weight> = (1..=27u32)
            .map(|i| Weight::new(f64::from(i) * 0.3 + 0.07).unwrap())
            .collect();
        let mut live = builders::full_balanced(3, 4, &weights).unwrap();
        let updates: Vec<(NodeId, Weight)> = live
            .data_nodes()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(i, &d)| (d, Weight::new(0.11 * (i + 1) as f64).unwrap()))
            .collect();
        let twin = rebuild_with(&live, |id| {
            updates
                .iter()
                .find(|&&(d, _)| d == id)
                .map_or(live.weight(id), |&(_, w)| w)
        });
        live.reweight(&updates);
        assert_same_weights(&live, &twin, "rebuild");
        // Structure is untouched, so every structural cache stays equal.
        assert_eq!(live.preorder(), twin.preorder());
        assert_eq!(live.subtree_size_table(), twin.subtree_size_table());
        assert_eq!(live.level_table(), twin.level_table());
    }

    #[test]
    fn reweight_with_no_updates_is_a_no_op() {
        let mut t = builders::paper_example();
        let before = t.subtree_weight_table().to_vec();
        t.reweight(&[]);
        assert_eq!(t.subtree_weight_table(), &before[..]);
    }

    #[test]
    #[should_panic(expected = "reweight targets data nodes")]
    fn reweight_rejects_index_nodes() {
        let mut t = builders::paper_example();
        let n2 = t.find_by_label("2").unwrap();
        t.reweight(&[(n2, Weight::from(1u32))]);
    }
}
