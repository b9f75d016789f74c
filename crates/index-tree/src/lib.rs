#![warn(missing_docs)]

//! Index-tree substrate for the broadcast-allocation workspace.
//!
//! The paper assumes "an index tree composed of index nodes and data nodes":
//! internal *index nodes* route a key search, leaf *data nodes* carry the
//! broadcast payload and an access frequency `W(Di)`. This crate provides:
//!
//! * [`IndexTree`] — a columnar tree (flat per-node columns, no per-node
//!   heap objects) with cached preorder ranks, levels and subtree
//!   aggregates (everything the allocation algorithms query in their inner
//!   loops),
//! * [`TreeBuilder`] — a validating builder,
//! * construction algorithms:
//!   * [`builders::full_balanced`] — the full balanced m-ary tree used by the
//!     paper's experiments (Table 1, Fig. 14),
//!   * [`hu_tucker::build_alphabetic`] — the optimal alphabetic *binary*
//!     search tree of Hu & Tucker \[HT71\], the index structure the paper
//!     adopts,
//!   * [`knary::build_alphabetic_knary`] — its k-nary extension \[SV96\]
//!     (exact interval DP plus a scalable weight-balanced approximation),
//!   * [`huffman::build_huffman_knary`] — the skewed (non-alphabetic) k-ary
//!     Huffman tree \[CYW97\], used as a tuning-time comparator.

mod builder;
pub mod builders;
mod display;
pub mod hu_tucker;
pub mod huffman;
pub mod knary;
mod stats;
mod tree;
mod validate;

pub use builder::{TreeBuildError, TreeBuilder};
pub use stats::TreeStats;
pub use tree::IndexTree;
pub use validate::TreeInvariantError;
