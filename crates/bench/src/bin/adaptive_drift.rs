//! Extension experiment (paper §5, future work 1): online adaptation to
//! changing access patterns. A serving-loop tenant that re-estimates
//! demand and republishes every slice is scored against a program frozen
//! at the first slice's demand (static) and one republished from every
//! slice's true demand (oracle), per drift regime. See
//! [`bcast_bench::drift`] for the setup and the scorer.
//!
//! ```text
//! cargo run --release -p bcast-bench --bin adaptive_drift [seed]
//! ```

use bcast_bench::drift::{
    self, ALPHA, CHANNELS, FANOUT, HOT_ITEMS, HOT_MASS, ITEMS, REGIMES, REQUESTS, SLICES,
};
use bcast_bench::render_table;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(17);
    println!(
        "Adaptive broadcasting under drift — {ITEMS} items, {SLICES} slices × {REQUESTS} \
         requests, hot set of {HOT_ITEMS} items holding {HOT_MASS} of demand, {CHANNELS} \
         channels, fanout {FANOUT}, Frontier, EMA α = {ALPHA}, seed {seed}\n"
    );

    let mut rows = Vec::new();
    let mut shape_ok = true;
    for (name, regime) in REGIMES {
        let w = drift::compare(regime, seed);
        shape_ok &= w.shape_holds(regime);
        let (s, a, o) = (w.static_wait, w.adaptive_wait, w.oracle_wait);
        rows.push(vec![
            name.to_string(),
            format!("{s:.2}"),
            format!("{a:.2}"),
            format!("{o:.2}"),
            format!("{:.1}%", 100.0 * (s - a) / s),
            format!("{:.1}%", 100.0 * (a - o) / o),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "drift regime",
                "static",
                "adaptive",
                "oracle",
                "adaptive gain",
                "gap to oracle",
            ],
            &rows
        )
    );
    println!("Expected data wait in slots (formula 1), averaged over slices.\n");
    println!(
        "Shape check ({}): the adaptive tenant beats the frozen program under",
        if shape_ok { "holds" } else { "FAILS" }
    );
    println!("every drift, never beats the oracle, and pays at most 10% on stationary");
    println!("demand for estimating what static was told. Fast drift whose period");
    println!("approaches the estimator's memory exposes adaptation lag — estimates");
    println!("chase a distribution that has already moved — which is why the paper");
    println!("calls for an *efficient on-line* algorithm when \"the change is");
    println!("frequent\" (§5).");
}
