//! The arena-allocated index tree and its cached query structures.

use bcast_types::{BitSet, NodeId, Weight};

/// Kind of a tree node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum NodeKind {
    /// Internal routing node; occupies a bucket but contributes no data wait.
    Index,
    /// Leaf payload node with an access frequency `W(Di)`.
    Data,
}

/// One node of an [`IndexTree`].
#[derive(Clone, Debug)]
pub struct Node {
    /// Index or data.
    pub kind: NodeKind,
    /// Parent in the index tree; `None` only for the root.
    pub parent: Option<NodeId>,
    /// Children in left-to-right (key) order; empty for data nodes.
    pub children: Vec<NodeId>,
    /// Access frequency; [`Weight::ZERO`] for index nodes.
    pub weight: Weight,
    /// Optional human-readable label (the paper labels data nodes `A..E` and
    /// index nodes `1..4`).
    pub label: Option<String>,
}

/// An immutable index tree over which broadcast allocations are computed.
///
/// Invariants (checked by [`TreeBuilder`](crate::TreeBuilder) and
/// re-checkable via [`IndexTree::check_invariants`]):
///
/// * node `0` is the root,
/// * every data node is a leaf and every leaf is a data node,
/// * `parent`/`children` links are mutually consistent and acyclic,
/// * there is at least one data node.
///
/// On construction the tree caches the per-node *level* (root = 1, the
/// paper's convention), the *preorder rank* (the paper's "unique weight"
/// assigned to index nodes, used to orient local swaps), and subtree
/// aggregates (node count and total data weight, used by the Index Tree
/// Sorting heuristic).
#[derive(Clone, Debug)]
pub struct IndexTree {
    nodes: Vec<Node>,
    levels: Vec<u32>,
    preorder_ranks: Vec<u32>,
    preorder_seq: Vec<NodeId>,
    subtree_sizes: Vec<u32>,
    subtree_weights: Vec<Weight>,
    /// CSR child table: node `i`'s children occupy
    /// `child_flat[child_starts[i] .. child_starts[i + 1]]`, in key order.
    child_starts: Vec<u32>,
    child_flat: Vec<NodeId>,
    data_nodes: Vec<NodeId>,
    total_weight: Weight,
    depth: u32,
}

impl IndexTree {
    /// Builds the cached structures from a validated node arena.
    ///
    /// Only called by `TreeBuilder`; the arena must already satisfy the
    /// structural invariants.
    pub(crate) fn from_arena(nodes: Vec<Node>) -> Self {
        let n = nodes.len();
        let mut levels = vec![0u32; n];
        let mut preorder_ranks = vec![0u32; n];
        let mut preorder_seq = Vec::with_capacity(n);
        let mut subtree_sizes = vec![1u32; n];
        let mut subtree_weights = vec![Weight::ZERO; n];
        let mut data_nodes = Vec::new();

        // Iterative preorder: assigns levels and ranks.
        let mut stack = vec![(NodeId::ROOT, 1u32)];
        let mut rank = 0u32;
        while let Some((id, level)) = stack.pop() {
            levels[id.index()] = level;
            preorder_ranks[id.index()] = rank;
            rank += 1;
            preorder_seq.push(id);
            if nodes[id.index()].kind == NodeKind::Data {
                data_nodes.push(id);
            }
            for &c in nodes[id.index()].children.iter().rev() {
                stack.push((c, level + 1));
            }
        }

        // Postorder accumulation of subtree aggregates: walk preorder in
        // reverse so every child is folded before its parent.
        for &id in preorder_seq.iter().rev() {
            let node = &nodes[id.index()];
            if node.kind == NodeKind::Data {
                subtree_weights[id.index()] = node.weight;
            }
            if let Some(p) = node.parent {
                subtree_sizes[p.index()] += subtree_sizes[id.index()];
                let w = subtree_weights[id.index()];
                subtree_weights[p.index()] += w;
            }
        }

        let total_weight = subtree_weights[0];
        let depth = levels.iter().copied().max().unwrap_or(0);

        // Flatten the per-node child vectors into one CSR table, so the
        // heuristics can sort child *index ranges* in place over flat
        // arrays instead of cloning a `Vec<NodeId>` per node.
        let mut child_starts = Vec::with_capacity(n + 1);
        let mut child_flat = Vec::with_capacity(n.saturating_sub(1));
        child_starts.push(0u32);
        for node in &nodes {
            child_flat.extend_from_slice(&node.children);
            child_starts.push(u32::try_from(child_flat.len()).expect("fits: one entry per node"));
        }

        IndexTree {
            nodes,
            levels,
            preorder_ranks,
            preorder_seq,
            subtree_sizes,
            subtree_weights,
            child_starts,
            child_flat,
            data_nodes,
            total_weight,
            depth,
        }
    }

    /// Total number of nodes (index + data).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True only for the degenerate empty tree (never produced by builders).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Re-weights a set of data nodes in place, repairing the cached
    /// subtree-weight table along the touched ancestor paths only —
    /// `O(|updates| · depth · fanout)` instead of a full rebuild.
    ///
    /// Tree *structure* (children, levels, preorder, subtree sizes) is
    /// untouched, so every structural cache stays valid. Dirty subtree
    /// weights are recomputed with the exact accumulation order of
    /// `IndexTree::from_arena` (children folded in reverse child order),
    /// so the repaired table is **bit-identical** to the one a from-scratch
    /// build over the new weights would produce — the property the delta
    /// republish lane's density keys rely on.
    ///
    /// # Panics
    /// Panics if any updated node is not a data node.
    pub fn reweight(&mut self, updates: &[(NodeId, Weight)]) {
        if updates.is_empty() {
            return;
        }
        // Leaves: a data node's subtree weight is its own weight.
        for &(id, w) in updates {
            assert!(self.is_data(id), "reweight targets data nodes, got {id}");
            self.nodes[id.index()].weight = w;
            self.subtree_weights[id.index()] = w;
        }
        // Collect every proper ancestor of an updated leaf, deduplicated,
        // deepest first (equal levels are independent of each other).
        let mut dirty: Vec<NodeId> = Vec::new();
        for &(id, _) in updates {
            let mut cur = self.nodes[id.index()].parent;
            while let Some(p) = cur {
                dirty.push(p);
                cur = self.nodes[p.index()].parent;
            }
        }
        dirty.sort_unstable_by_key(|&p| (std::cmp::Reverse(self.levels[p.index()]), p));
        dirty.dedup();
        // `from_arena` folds subtree weights into each parent by walking the
        // preorder in reverse: parent starts at ZERO (index nodes carry no
        // weight of their own) and children are added last-to-first.
        for &p in &dirty {
            let mut acc = Weight::ZERO;
            for &c in self.nodes[p.index()].children.iter().rev() {
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

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Children of `id` in key order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Parent of `id`, `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// True if `id` is a data (leaf) node.
    #[inline]
    pub fn is_data(&self, id: NodeId) -> bool {
        self.nodes[id.index()].kind == NodeKind::Data
    }

    /// True if `id` is an index (internal) node.
    #[inline]
    pub fn is_index(&self, id: NodeId) -> bool {
        self.nodes[id.index()].kind == NodeKind::Index
    }

    /// Access frequency of `id` (zero for index nodes).
    #[inline]
    pub fn weight(&self, id: NodeId) -> Weight {
        self.nodes[id.index()].weight
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
    /// preorder view the §4.2 heuristics traverse without touching the node
    /// arena: child ranges can be copied once into a scratch buffer and
    /// sorted in place, with subtree aggregates read by plain indexing.
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
        self.node(id)
            .label
            .clone()
            .unwrap_or_else(|| format!("{id}"))
    }

    /// Looks a node up by label (linear scan; intended for tests/examples).
    pub fn find_by_label(&self, label: &str) -> Option<NodeId> {
        (0..self.len())
            .map(NodeId::from_index)
            .find(|&id| self.node(id).label.as_deref() == Some(label))
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
    use crate::builders;
    use bcast_types::{NodeId, Weight};

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
        assert!(t.is_parent_of(n2, a));
        assert_eq!(t.level(t.root()), 1);
        assert_eq!(t.level(a), 3);
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
            assert_eq!(&t.flat_children()[t.child_range(id)], t.children(id));
        }
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
        // over the mutated arena down to the last bit, not just approximately.
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
        let mut arena: Vec<super::Node> = (0..live.len())
            .map(|i| live.node(NodeId::from_index(i)).clone())
            .collect();
        for &(id, w) in &updates {
            arena[id.index()].weight = w;
        }
        let twin = super::IndexTree::from_arena(arena);
        live.reweight(&updates);
        for i in 0..live.len() {
            let id = NodeId::from_index(i);
            assert_eq!(
                live.weight(id).get().to_bits(),
                twin.weight(id).get().to_bits(),
                "weight of node {i}"
            );
            assert_eq!(
                live.subtree_weight(id).get().to_bits(),
                twin.subtree_weight(id).get().to_bits(),
                "subtree weight of node {i}"
            );
        }
        assert_eq!(
            live.total_weight().get().to_bits(),
            twin.total_weight().get().to_bits()
        );
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
