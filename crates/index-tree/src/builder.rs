//! Validating builder for [`IndexTree`].

use crate::tree::IndexTree;
use crate::validate;
use bcast_types::{NodeId, Weight};
use std::fmt;

/// Errors reported while building an index tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeBuildError {
    /// A referenced parent id was never created.
    UnknownParent(NodeId),
    /// A child was attached to a data node.
    ChildOfDataNode(NodeId),
    /// `build` was called before any node was added.
    EmptyTree,
    /// The finished tree violates a structural invariant.
    Invariant(validate::TreeInvariantError),
}

impl fmt::Display for TreeBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeBuildError::UnknownParent(id) => write!(f, "unknown parent node {id}"),
            TreeBuildError::ChildOfDataNode(id) => {
                write!(f, "cannot attach a child to data node {id}")
            }
            TreeBuildError::EmptyTree => write!(f, "tree has no nodes"),
            TreeBuildError::Invariant(e) => write!(f, "invalid tree: {e}"),
        }
    }
}

impl std::error::Error for TreeBuildError {}

impl From<validate::TreeInvariantError> for TreeBuildError {
    fn from(e: validate::TreeInvariantError) -> Self {
        TreeBuildError::Invariant(e)
    }
}

/// Incrementally constructs an [`IndexTree`].
///
/// The first node added must be the root index node (created by
/// [`TreeBuilder::root`]); children are attached top-down. Acyclicity is
/// guaranteed by construction because a child can only reference an
/// already-created parent.
///
/// The builder appends to flat columns (parent, weight, kind and a label
/// column that grows only as far as the last labeled node), so no node
/// owns a heap allocation: with capacity reserved up front, only labels
/// allocate while nodes are added, and `build` adds a fixed number of
/// columns whatever the tree's size.
///
/// ```
/// use bcast_index_tree::TreeBuilder;
/// use bcast_types::Weight;
///
/// let mut b = TreeBuilder::new();
/// let root = b.root("1");
/// b.add_data(root, Weight::from(20u32), "A").unwrap();
/// b.add_data(root, Weight::from(10u32), "B").unwrap();
/// let tree = b.build().unwrap();
/// assert_eq!(tree.num_data_nodes(), 2);
/// ```
#[derive(Default)]
pub struct TreeBuilder {
    parents: Vec<NodeId>,
    /// Each data node's weight; zero for index nodes.
    weights: Vec<Weight>,
    is_data: Vec<bool>,
    labels: Vec<Option<String>>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TreeBuilder::default()
    }

    /// Creates an empty builder that reserves `total` nodes up front, so a
    /// build of at most that many nodes appends without reallocating.
    pub fn with_capacity(total: usize) -> Self {
        TreeBuilder {
            parents: Vec::with_capacity(total),
            weights: Vec::with_capacity(total),
            is_data: Vec::with_capacity(total),
            labels: Vec::new(),
        }
    }

    /// Creates the root index node. Must be called exactly once, first.
    ///
    /// # Panics
    /// Panics if a root already exists (programming error, not data error).
    pub fn root(&mut self, label: impl Into<String>) -> NodeId {
        assert!(self.parents.is_empty(), "root() called twice");
        self.push(NodeId::ROOT, false, Weight::ZERO, Some(label.into()))
    }

    /// Adds an index node under `parent`.
    pub fn add_index(
        &mut self,
        parent: NodeId,
        label: impl Into<String>,
    ) -> Result<NodeId, TreeBuildError> {
        self.add_node(parent, false, Weight::ZERO, Some(label.into()))
    }

    /// Adds a data node with access frequency `weight` under `parent`.
    pub fn add_data(
        &mut self,
        parent: NodeId,
        weight: Weight,
        label: impl Into<String>,
    ) -> Result<NodeId, TreeBuildError> {
        self.add_node(parent, true, weight, Some(label.into()))
    }

    /// Adds an unlabeled data node.
    pub fn add_data_unlabeled(
        &mut self,
        parent: NodeId,
        weight: Weight,
    ) -> Result<NodeId, TreeBuildError> {
        self.add_node(parent, true, weight, None)
    }

    /// Adds an unlabeled index node.
    pub fn add_index_unlabeled(&mut self, parent: NodeId) -> Result<NodeId, TreeBuildError> {
        self.add_node(parent, false, Weight::ZERO, None)
    }

    fn add_node(
        &mut self,
        parent: NodeId,
        is_data: bool,
        weight: Weight,
        label: Option<String>,
    ) -> Result<NodeId, TreeBuildError> {
        match self.is_data.get(parent.index()) {
            None => Err(TreeBuildError::UnknownParent(parent)),
            Some(true) => Err(TreeBuildError::ChildOfDataNode(parent)),
            Some(false) => Ok(self.push(parent, is_data, weight, label)),
        }
    }

    fn push(
        &mut self,
        parent: NodeId,
        is_data: bool,
        weight: Weight,
        label: Option<String>,
    ) -> NodeId {
        let id = NodeId::from_index(self.parents.len());
        self.parents.push(parent);
        self.weights.push(weight);
        self.is_data.push(is_data);
        if label.is_some() {
            self.labels.resize(id.index(), None);
            self.labels.push(label);
        }
        id
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True before the root is created.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Finishes the tree, rejecting an index node without children.
    ///
    /// Insertion already rejects unknown parents and children of data
    /// nodes, so a childless index node is the one invariant left to check.
    /// When there are several, the one reported is the last in preorder.
    pub fn build(self) -> Result<IndexTree, TreeBuildError> {
        if self.parents.is_empty() {
            return Err(TreeBuildError::EmptyTree);
        }
        let tree = IndexTree::from_columns(self.parents, self.weights, self.labels);
        let childless_index = (0..tree.len())
            .map(NodeId::from_index)
            .filter(|&id| !self.is_data[id.index()] && tree.is_data(id))
            .max_by_key(|&id| tree.preorder_rank(id));
        if let Some(id) = childless_index {
            return Err(validate::TreeInvariantError::LeafIndexNode(id).into());
        }
        debug_assert!(tree.check_invariants().is_ok(), "builder broke the tree");
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_child_of_data_node() {
        let mut b = TreeBuilder::new();
        let root = b.root("r");
        let d = b.add_data(root, Weight::from(1u32), "d").unwrap();
        let err = b.add_data(d, Weight::from(1u32), "x").unwrap_err();
        assert_eq!(err, TreeBuildError::ChildOfDataNode(d));
    }

    #[test]
    fn rejects_unknown_parent() {
        let mut b = TreeBuilder::new();
        b.root("r");
        let err = b.add_index(NodeId(42), "x").unwrap_err();
        assert_eq!(err, TreeBuildError::UnknownParent(NodeId(42)));
    }

    #[test]
    fn rejects_empty_tree() {
        assert_eq!(
            TreeBuilder::new().build().unwrap_err(),
            TreeBuildError::EmptyTree
        );
    }

    #[test]
    fn rejects_leaf_index_node() {
        // An index node with no children violates "data items on the leaf
        // nodes" and would be undetectable by the allocation algorithms.
        // With several, the last in preorder is reported.
        let mut b = TreeBuilder::new();
        let root = b.root("r");
        b.add_index(root, "i").unwrap();
        b.add_data(root, Weight::from(1u32), "d").unwrap();
        let j = b.add_index(root, "j").unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            TreeBuildError::Invariant(validate::TreeInvariantError::LeafIndexNode(j))
        );
        let mut bare_root = TreeBuilder::new();
        bare_root.root("r");
        assert_eq!(
            bare_root.build().unwrap_err(),
            TreeBuildError::Invariant(validate::TreeInvariantError::LeafIndexNode(NodeId::ROOT))
        );
    }

    #[test]
    #[should_panic(expected = "root() called twice")]
    fn double_root_panics() {
        let mut b = TreeBuilder::new();
        b.root("a");
        b.root("b");
    }

    #[test]
    fn single_data_node_under_root_is_valid() {
        let mut b = TreeBuilder::new();
        let root = b.root("r");
        b.add_data(root, Weight::from(5u32), "d").unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.depth(), 2);
    }
}
