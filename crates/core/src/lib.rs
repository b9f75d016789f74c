#![warn(missing_docs)]

//! Core allocation algorithms of *Optimal Index and Data Allocation in
//! Multiple Broadcast Channels* (Lo & Chen, ICDE 2000).
//!
//! Given an index tree and `k` broadcast channels, find the allocation of
//! index and data nodes to channel slots minimizing the average data wait
//! (formula 1), subject to: no replication within a cycle, and every child
//! broadcast strictly after its parent.
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 Algorithm 1 (k-channel topological tree) | [`topo_tree`] |
//! | §3.1 best-first search, `E(X) = V(X) + U(X)` | [`best_first`], [`bound`] |
//! | §3.2 Lemmas 1–5, Properties 1–3, Appendix algorithm | [`prune`] |
//! | §3.3 data tree, Lemma 6, Property 4 | [`data_tree`] |
//! | Corollary 1 (wide-channel fast path) | [`corollary`] |
//! | §4.2 heuristic 1: index tree shrinking | [`heuristics::shrink`] |
//! | §4.2 heuristic 2: index tree sorting + `1_To_k_BroadcastChannel` | [`heuristics::sorting`], [`heuristics::one_to_k`] |
//! | comparison baselines (\[SV96\], naive orders) | [`baselines`] |
//!
//! The one-call entry point is [`optimal::find_optimal`], which dispatches
//! to the cheapest strategy that is still exact; [`heuristics`] cover the
//! large-tree regime where exact search is infeasible (the problem is
//! NP-hard via the Personnel Assignment Problem).

pub mod avail;
pub mod baselines;
pub mod best_first;
pub mod bound;
pub mod corollary;
pub mod data_tree;
pub mod delta;
pub mod heuristics;
pub mod optimal;
pub mod prune;
pub mod publish;
pub mod replication;
pub mod schedule;
pub mod seqset;
pub mod topo_tree;

pub use delta::{DeltaLane, DeltaOptions, DeltaReport, FullReason};
pub use optimal::{find_optimal, OptimalOptions, OptimalResult, SearchError, Strategy};
pub use publish::{PublishHeuristic, PublishOptions, PublishWorkspace, Publisher};
pub use schedule::Schedule;
