//! Determinism property: a full scenario run — every per-phase,
//! per-tenant metric, rebuild count and SLO verdict — is *bit-identical*
//! across thread counts and across reruns with the same seed, for
//! randomly drawn scenario shapes and seeds.
//!
//! Tenants are self-contained state machines, thread sharding only
//! partitions them, and no cross-tenant float accumulation exists — so
//! `==` on outcomes (and their fingerprints) must hold exactly, not
//! approximately.

use broadcast_alloc::serve::run_scenario;
use broadcast_alloc::workloads::canonical_scenarios;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn outcomes_are_bit_identical_across_threads_and_reruns(
        scenario in 0usize..4,
        tenants in 2usize..5,
        items in 16usize..64,
        rate in 50u32..250,
        slices in 4u32..10,
        seed in 0u64..1_000_000,
    ) {
        let spec = canonical_scenarios(tenants, items, rate, slices)
            .swap_remove(scenario);

        let base = run_scenario(&spec, seed, 1);
        for threads in [2usize, 4] {
            let other = run_scenario(&spec, seed, threads);
            prop_assert_eq!(
                &base, &other,
                "scenario {} seed {} at {} threads diverged",
                spec.name, seed, threads
            );
            prop_assert_eq!(base.fingerprint(), other.fingerprint());
        }

        // Rerun with the same seed replays the day exactly.
        let replay = run_scenario(&spec, seed, 1);
        prop_assert_eq!(&base, &replay, "same-seed rerun diverged");

        // And the seed actually matters: a different seed perturbs the
        // sampled request streams, so some metric must move.
        let other_seed = run_scenario(&spec, seed ^ 0x5EED_CAFE, 1);
        prop_assert!(
            base.fingerprint() != other_seed.fingerprint(),
            "different seeds should produce different days"
        );
    }

    /// The delta lane keeps each tenant's boot tree and reweights it
    /// before every full publish, so its tenants carry a tree and change
    /// lists across slices. The determinism bar extends to it: with the
    /// lane enabled, the whole outcome (including the per-tenant
    /// `delta_rebuilds` / `full_rebuilds` split and `touched_ppm`, all
    /// folded into the fingerprint) must stay bit-identical across thread
    /// counts and reruns.
    #[test]
    fn delta_lane_decision_is_thread_invariant(
        scenario in 0usize..4,
        tenants in 2usize..4,
        items in 16usize..64,
        rate in 50u32..250,
        slices in 4u32..10,
        seed in 0u64..1_000_000,
    ) {
        let spec = canonical_scenarios(tenants, items, rate, slices)
            .swap_remove(scenario)
            .with_delta_lane();

        let base = run_scenario(&spec, seed, 1);
        for threads in [2usize, 4] {
            let other = run_scenario(&spec, seed, threads);
            prop_assert_eq!(
                &base, &other,
                "delta-lane scenario {} seed {} at {} threads diverged",
                spec.name, seed, threads
            );
            prop_assert_eq!(base.fingerprint(), other.fingerprint());
        }
        let replay = run_scenario(&spec, seed, 1);
        prop_assert_eq!(&base, &replay, "same-seed delta-lane rerun diverged");

        // Every rebuild publishes in full.
        for p in &base.phases {
            for t in &p.tenants {
                prop_assert_eq!(t.snapshot.delta_rebuilds, 0);
                prop_assert_eq!(t.snapshot.full_rebuilds, t.snapshot.rebuilds);
            }
        }
    }
}
