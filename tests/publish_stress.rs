//! Million-item publish stress test for the fused pipeline.
//!
//! Builds a weight-balanced alphabetic tree over one million data items
//! (≈1.33M nodes with fanout 4) and publishes it onto 3 channels with the
//! sorting heuristic. Pins that a steady-state republish into reused
//! buffers reproduces the program exactly (the double-buffer swap loses
//! nothing).
//!
//! Gated behind `#[ignore]` to keep the default suite fast:
//!
//! ```text
//! cargo test --release -- --ignored stress
//! ```

use broadcast_alloc::alloc::{PublishHeuristic, PublishOptions, Publisher};
use broadcast_alloc::tree::knary;
use broadcast_alloc::workloads::FrequencyDist;

#[test]
#[ignore = "heavy: million-item publish; run with --ignored"]
fn stress_fused_publish_at_million_items() {
    const ITEMS: usize = 1_000_000;
    const K: usize = 3;
    let weights = FrequencyDist::SelfSimilar {
        fraction: 0.2,
        total: 1e9,
    }
    .sample(ITEMS, 0x1_000_000);
    let tree = knary::build_weight_balanced(&weights, 4).expect("items >= 1");

    let mut p1 = Publisher::new();
    let base = p1
        .publish(
            &tree,
            K,
            PublishHeuristic::Sorting,
            PublishOptions::default(),
        )
        .expect("feasible")
        .clone();
    // Parent constraints can leave slots partially filled, so the cycle is
    // bounded below by perfect packing and above by one node per slot.
    assert!(base.cycle_len() >= tree.len().div_ceil(K));
    assert!(base.cycle_len() <= tree.len());

    // Steady-state republish into warm buffers loses nothing.
    let again = p1
        .publish(
            &tree,
            K,
            PublishHeuristic::Sorting,
            PublishOptions::default(),
        )
        .expect("feasible");
    assert_eq!(base, *again);
}
