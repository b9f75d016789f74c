//! §3.2 / Appendix: the pruned candidate generator.
//!
//! [`pruned_children`] produces the next-neighbors of a topological-tree
//! node after applying the paper's swap-based pruning:
//!
//! * **Step 2, Case 1** (all elements of the current compound node `P` are
//!   index nodes):
//!   * `k = 1`: only children of `P`'s element survive, and among data
//!     children only the heaviest (Property 2, first characteristic);
//!   * `k > 1`: data nodes that are not children of an element of `P` are
//!     removed, and only the `k` heaviest remaining data nodes are kept
//!     (Property 3, first and second characteristics).
//! * **Step 2, Case 2** (`P` contains a data node): data nodes that are not
//!   children of an element of `P` and are heavier than some data node of
//!   `P` are removed (Property 2 second characteristic / Property 3 fourth
//!   characteristic, justified by Lemma 4 local swaps).
//! * **Step 3**: `k`-component subsets are generated such that (i) the data
//!   nodes of a subset are always the heaviest prefix of the surviving data
//!   candidates (Lemma 3), and (ii) when `P` is all-index and `k > 1`, the
//!   subset contains at least one child of an element of `P` (Property 3,
//!   first characteristic — otherwise a global swap per Lemmas 1–2 improves
//!   the path).
//! * **Step 4**: subsets eliminated by a profitable local swap against `P`:
//!   (i) a data node of the subset swappable with an index node of `P`
//!   (Lemmas 4–5 — data earlier is never worse), and (ii) two swappable
//!   index nodes out of canonical order, using the paper's unique index
//!   weights ("numbering the index nodes from 1 by the preorder traversal").
//!
//! Safety: every elimination is backed by an exchange argument producing a
//! different root-to-leaf path of cost ≤ the eliminated one, so at least one
//! optimal path always survives — verified against exhaustive enumeration by
//! the property tests in [`crate::best_first`].

use crate::avail::{for_each_combination, sort_weight_desc, Subsets};
use bcast_index_tree::IndexTree;
use bcast_types::{bits, NodeId};

/// Writes the pruned next-neighbors of the topological-tree node whose
/// candidate set is `available` and whose last compound node is `last` into
/// `out`, replacing its contents.
pub fn pruned_children(
    tree: &IndexTree,
    available: &[u64],
    last: &[NodeId],
    k: usize,
    out: &mut Subsets,
) {
    assert!(k >= 1, "need at least one channel");
    let Subsets {
        width,
        ids,
        data,
        index,
        pick,
    } = out;
    ids.clear();
    // Initial pseudo-state: the only child is the compound node {root}.
    if last.is_empty() {
        debug_assert!(bits::contains(available, tree.root()));
        *width = 1;
        ids.push(tree.root());
        return;
    }

    let p = last;
    let p_all_index = p.iter().all(|&n| tree.is_index(n));
    let is_child_of_p = |n: NodeId| tree.parent(n).is_some_and(|par| p.contains(&par));

    // ---- Step 1: candidate set S, split into data / index. ----
    data.clear();
    index.clear();
    for n in bits::iter(available) {
        if tree.is_data(n) {
            data.push(n);
        } else {
            index.push(n);
        }
    }
    sort_weight_desc(tree, data);

    // ---- Step 2: prune the candidate set. ----
    if p_all_index {
        if k == 1 {
            // Only children of P's single element; data reduced to the
            // heaviest data child.
            index.retain(|&n| is_child_of_p(n));
            let best_data = data.iter().copied().find(|&n| is_child_of_p(n));
            data.clear();
            data.extend(best_data);
        } else {
            data.retain(|&n| is_child_of_p(n));
            data.truncate(k);
        }
    } else {
        // P contains at least one data node.
        let min_data_w = p
            .iter()
            .filter(|&&n| tree.is_data(n))
            .map(|&n| tree.weight(n))
            .min()
            .expect("case 2 means P holds a data node");
        data.retain(|&n| is_child_of_p(n) || tree.weight(n) <= min_data_w);
    }

    // ---- Step 3: generate k-component subsets. ----
    let take = k.min(data.len() + index.len());
    *width = take;
    if take == 0 {
        // Step 2 emptied the candidate set (unreachable on feasible paths —
        // heavier foreign data always has an in-P parent; see the module
        // tests — but a dead branch beats an empty compound node that would
        // loop the search).
        return;
    }
    for n_data in 0..=data.len().min(take) {
        let n_index = take - n_data;
        if n_index > index.len() {
            continue;
        }
        pick.clear();
        for_each_combination(index, n_index, 0, pick, &mut |idx_part| {
            // Rule (i): the data part is always the heaviest prefix. The
            // subset is written straight into the output and dropped again
            // if a rule eliminates it.
            let at = ids.len();
            ids.extend_from_slice(&data[..n_data]);
            ids.extend_from_slice(idx_part);
            let subset = &mut ids[at..];
            // Rule (ii): all-index P with k > 1 must stay adjacent to one
            // of its children.
            let adjacent = !p_all_index || k == 1 || subset.iter().any(|&n| is_child_of_p(n));
            // ---- Step 4: local-swap eliminations. ----
            if adjacent && !step4_eliminates(tree, p, p_all_index, subset, is_child_of_p) {
                subset.sort_unstable();
            } else {
                ids.truncate(at);
            }
        });
    }
}

/// True if the subset is eliminated by a profitable local swap against `P`.
fn step4_eliminates(
    tree: &IndexTree,
    p: &[NodeId],
    p_all_index: bool,
    subset: &[NodeId],
    is_child_of_p: impl Fn(NodeId) -> bool,
) -> bool {
    // An index node x of P can move into the subset's slot iff none of its
    // children already sit in the subset (Lemma 4 first condition).
    let x_movable = |x: NodeId| -> bool {
        tree.is_index(x) && !tree.children(x).iter().any(|c| subset.contains(c))
    };

    // (i) A data node of the subset swappable with an index node of P:
    // moving the data node one slot earlier is never worse (its weight
    // dominates the index node's zero weight).
    let swappable_data = subset.iter().any(|&y| tree.is_data(y) && !is_child_of_p(y));
    if swappable_data {
        let has_index_partner = if p_all_index {
            // Lemma 5: an all-index P can always free a slot.
            !p.is_empty()
        } else {
            p.iter().any(|&x| x_movable(x))
        };
        if has_index_partner {
            return true;
        }
    }

    // (ii) Two swappable index nodes out of canonical (preorder) order:
    // keep only one orientation of cost-equal sibling paths.
    for &y in subset {
        if !tree.is_index(y) || is_child_of_p(y) {
            continue;
        }
        for &x in p {
            if x_movable(x) && tree.preorder_rank(y) > tree.preorder_rank(x) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avail::PathState;
    use bcast_index_tree::builders;

    fn id(tree: &IndexTree, label: &str) -> NodeId {
        tree.find_by_label(label).expect("label exists")
    }

    /// The pruned children of `s`, each as its sorted labels.
    fn children(tree: &IndexTree, s: &PathState, k: usize) -> Vec<Vec<String>> {
        let mut out = Subsets::default();
        pruned_children(tree, s.available(), &s.last, k, &mut out);
        out.iter()
            .map(|subset| {
                let mut v: Vec<String> = subset.iter().map(|&n| tree.label(n)).collect();
                v.sort();
                v
            })
            .collect()
    }

    #[test]
    fn root_is_the_only_first_move() {
        let t = builders::paper_example();
        let s = PathState::initial(&t);
        assert_eq!(children(&t, &s, 3), vec![vec!["1".to_string()]]);
    }

    #[test]
    fn example3_index_node_2_keeps_only_a() {
        // Paper Example 3 (k = 1): among next-neighbors A, B, 3 of the node
        // {2}, only A remains — B is dominated (W(A) > W(B)), and 3 is not a
        // child of 2 (Property 2, first characteristic).
        let t = builders::paper_example();
        let s = PathState::initial(&t)
            .place(&t, &[id(&t, "1")])
            .place(&t, &[id(&t, "2")]);
        assert_eq!(children(&t, &s, 1), vec![vec!["A".to_string()]]);
    }

    #[test]
    fn fig9_root_expansion_keeps_both_index_children() {
        let t = builders::paper_example();
        let s = PathState::initial(&t).place(&t, &[id(&t, "1")]);
        let got = children(&t, &s, 1);
        assert_eq!(got, vec![vec!["2".to_string()], vec!["3".to_string()]]);
    }

    #[test]
    fn fig9_node_3_offers_4_and_e() {
        let t = builders::paper_example();
        let s = PathState::initial(&t)
            .place(&t, &[id(&t, "1")])
            .place(&t, &[id(&t, "3")]);
        let mut got = children(&t, &s, 1);
        got.sort();
        assert_eq!(got, vec![vec!["4".to_string()], vec!["E".to_string()]]);
    }

    #[test]
    fn example4_two_channel_expansion_of_23() {
        // After 1 | {2,3} with k = 2: S = {4, A, B, E}; pruning leaves the
        // subsets {A,4} and {A,E} (B is not a top-2 data child; {B,4},
        // {B,E}, {4,E}, {A,B} all eliminated), matching Fig. 10.
        let t = builders::paper_example();
        let s = PathState::initial(&t)
            .place(&t, &[id(&t, "1")])
            .place(&t, &[id(&t, "2"), id(&t, "3")]);
        let mut got = children(&t, &s, 2);
        got.sort();
        assert_eq!(
            got,
            vec![
                vec!["4".to_string(), "A".to_string()],
                vec!["A".to_string(), "E".to_string()],
            ]
        );
    }

    #[test]
    fn fig10_continuation_after_a4() {
        // P = {A,4}: survivors of S = {B,C,D,E} must take data as the
        // heaviest prefix → only {C,E}.
        let t = builders::paper_example();
        let s = PathState::initial(&t)
            .place(&t, &[id(&t, "1")])
            .place(&t, &[id(&t, "2"), id(&t, "3")])
            .place(&t, &[id(&t, "A"), id(&t, "4")]);
        let got = children(&t, &s, 2);
        assert_eq!(got, vec![vec!["C".to_string(), "E".to_string()]]);
    }

    #[test]
    fn fig10_continuation_after_ae() {
        // P = {A,E}: S = {B,4}, forced subset {B,4}, no elimination (no
        // index node in P to swap with).
        let t = builders::paper_example();
        let s = PathState::initial(&t)
            .place(&t, &[id(&t, "1")])
            .place(&t, &[id(&t, "2"), id(&t, "3")])
            .place(&t, &[id(&t, "A"), id(&t, "E")]);
        let got = children(&t, &s, 2);
        assert_eq!(got, vec![vec!["4".to_string(), "B".to_string()]]);
    }

    #[test]
    fn data_node_case_blocks_heavier_foreign_data() {
        // k = 1, P = {E} (weight 18): B (10) may follow, A (20) may not
        // (Property 2, second characteristic). 2 and 4 (index) may follow.
        let t = builders::paper_example();
        let s = PathState::initial(&t)
            .place(&t, &[id(&t, "1")])
            .place(&t, &[id(&t, "3")])
            .place(&t, &[id(&t, "E")]);
        // S = {2, 4}: both index — no data candidates at all here; place 2
        // to surface {A, B, 4}.
        let s = s.place(&t, &[id(&t, "2")]);
        // P = {2} all-index again: children A, B; keep A only + index 4?
        // 4 is not a child of 2 → removed (k = 1 case 1).
        let got = children(&t, &s, 1);
        assert_eq!(got, vec![vec!["A".to_string()]]);
        // Now P = {A} (data, weight 20): B(10) allowed, 4 allowed — E
        // already placed; nothing heavier than 20 exists.
        let s = s.place(&t, &[id(&t, "A")]);
        let mut got = children(&t, &s, 1);
        got.sort();
        assert_eq!(got, vec![vec!["4".to_string()], vec!["B".to_string()]]);
    }
}
