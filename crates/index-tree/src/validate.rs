//! Structural invariant checking for [`IndexTree`].

use crate::tree::IndexTree;
use bcast_types::NodeId;
use std::fmt;

/// A violated structural invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeInvariantError {
    /// The parent column and the child table disagree at this node.
    LinkMismatch(NodeId),
    /// An index node has no children (leaves must be data nodes).
    LeafIndexNode(NodeId),
    /// A node is unreachable from the root (cycle or orphan).
    Unreachable(NodeId),
    /// The tree contains no data node.
    NoDataNodes,
}

impl fmt::Display for TreeInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeInvariantError::LinkMismatch(id) => {
                write!(f, "parent/child links disagree at {id}")
            }
            TreeInvariantError::LeafIndexNode(id) => {
                write!(f, "index node {id} has no children")
            }
            TreeInvariantError::Unreachable(id) => write!(f, "node {id} unreachable from root"),
            TreeInvariantError::NoDataNodes => write!(f, "tree has no data nodes"),
        }
    }
}

impl std::error::Error for TreeInvariantError {}

impl IndexTree {
    /// Verifies every structural invariant of the tree.
    ///
    /// Builders establish them by construction (a debug build re-checks);
    /// this is public so that integration tests and fuzzers can re-validate
    /// trees after transformation passes (e.g. the node-combination
    /// heuristic). Leaves are data nodes by definition here, so the
    /// builder is what rejects a childless index node.
    pub fn check_invariants(&self) -> Result<(), TreeInvariantError> {
        if self.is_empty() {
            return Err(TreeInvariantError::NoDataNodes);
        }
        // Each child names its range's owner as parent and comes after it,
        // so following parents always ends at the root.
        for i in 0..self.len() {
            let id = NodeId::from_index(i);
            for &c in self.children(id) {
                if c.index() <= i || self.parent(c) != Some(id) {
                    return Err(TreeInvariantError::LinkMismatch(c));
                }
            }
        }
        // The child table reaches every node exactly once.
        let mut seen = vec![false; self.len()];
        for &id in self.preorder() {
            if std::mem::replace(&mut seen[id.index()], true) {
                return Err(TreeInvariantError::LinkMismatch(id));
            }
        }
        if let Some(orphan) = seen.iter().position(|&s| !s) {
            return Err(TreeInvariantError::Unreachable(NodeId::from_index(orphan)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builders;

    #[test]
    fn paper_example_is_valid() {
        builders::paper_example().check_invariants().unwrap();
    }

    #[test]
    fn all_builders_produce_valid_trees() {
        use bcast_types::Weight;
        let w: Vec<Weight> = (1..=8u32).map(Weight::from).collect();
        builders::full_balanced(2, 4, &w)
            .unwrap()
            .check_invariants()
            .unwrap();
        builders::chain(&w).unwrap().check_invariants().unwrap();
    }
}
