//! The pooled executor is pinned bit-identical to its oracle, a
//! `threads = 1` twin that runs the roster in order on the calling
//! thread: same tenants, same slices, same churn — exactly equal phase
//! snapshots at every thread count, plus scenario fingerprints invariant
//! across thread counts. A mixed roster pins the lanes' shared rebuild
//! workspaces: no tenant's republish may depend on who published through
//! the workspace before it. The `--ignored` soak drives the pool
//! handshake through ten thousand wake/park cycles.

use bcast_adaptive::EmaEstimator;
use bcast_channel::SnapshotImage;
use bcast_core::{PublishHeuristic, PublishOptions, Publisher};
use bcast_index_tree::knary;
use bcast_serve::{run_scenario, RebuildLane, ServeLoop, TenantConfig};
use bcast_types::{NodeId, SloSnapshot, SloSpec, Weight};
use bcast_workloads::{canonical_scenarios, DemandShape, DemandSpec};
use proptest::prelude::*;

fn demand(rate: u32) -> DemandSpec {
    DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, rate)
}

fn boot(seed: u64, threads: usize, tenants: usize, rate: u32, slices: u32) -> ServeLoop {
    let mut svc = ServeLoop::new(seed, threads);
    for id in 0..tenants as u64 {
        svc.join(TenantConfig::new(id, 24));
        svc.tenant_mut(id)
            .unwrap()
            .begin_phase(demand(rate), None, SloSpec::lossless(), slices);
    }
    svc
}

fn snapshots(svc: &ServeLoop) -> Vec<(u64, SloSnapshot)> {
    svc.tenants()
        .iter()
        .map(|t| (t.id(), t.phase_snapshot()))
        .collect()
}

/// Drives the pooled loop and its sequential twin through the same
/// script: slices, then a mid-run join/leave wave, then more slices —
/// asserting snapshot equality at both checkpoints.
fn compare_executors(seed: u64, threads: usize, tenants: usize, rate: u32) {
    let slices = 8u32;
    let mut pooled = boot(seed, threads, tenants, rate, slices);
    let mut oracle = boot(seed, 1, tenants, rate, slices);
    pooled.run_slices(4);
    oracle.run_slices(4);
    assert_eq!(
        snapshots(&pooled),
        snapshots(&oracle),
        "pre-churn, threads {threads} tenants {tenants}"
    );
    for svc in [&mut pooled, &mut oracle] {
        for _ in 0..2 {
            let id = svc.next_id();
            svc.join(TenantConfig::new(id, 24));
            svc.tenant_mut(id).unwrap().begin_phase(
                demand(rate),
                None,
                SloSpec::lossless(),
                slices,
            );
        }
        svc.leave(0);
    }
    pooled.run_slices(4);
    oracle.run_slices(4);
    assert_eq!(
        snapshots(&pooled),
        snapshots(&oracle),
        "post-churn, threads {threads} tenants {tenants}"
    );
    assert_eq!(pooled.slices_run(), oracle.slices_run());
}

#[test]
fn pooled_matches_scoped_across_the_full_grid() {
    for &threads in &[1usize, 2, 4, 8] {
        for &tenants in &[1usize, 3, 8, 17] {
            compare_executors(0x5EED, threads, tenants, 60);
        }
    }
}

#[test]
fn scenario_fingerprints_are_thread_count_invariant_under_the_pool() {
    for spec in canonical_scenarios(3, 24, 500, 4) {
        let base = run_scenario(&spec, 0xF00D, 1);
        for threads in [2usize, 8] {
            let other = run_scenario(&spec, 0xF00D, threads);
            assert_eq!(base, other, "{} threads {threads}", spec.name);
            assert_eq!(base.fingerprint(), other.fingerprint(), "{}", spec.name);
        }
    }
}

/// A roster whose tenants differ in every way a republish's buffers are
/// sized by: catalogs of 64, 512 and 4,096 items, 1 and 3 channels, each
/// heuristic, and both rebuild lanes. Two full-lane tenants share a boot
/// shape, so one of them boots from the other's image. Every tenant
/// republishes every 2 slices at a rate of its own, so the lanes' load
/// balance regroups them.
fn mixed_roster() -> Vec<TenantConfig> {
    use PublishHeuristic::{Frontier, Preorder, Shrink, Sorting};
    let delta = RebuildLane::Delta { max_touched: 0.0 };
    let shapes = [
        (64, 3, Shrink { max_nodes: 6 }, RebuildLane::Full),
        (64, 1, Sorting, RebuildLane::Full),
        (512, 3, Frontier, RebuildLane::Full),
        (512, 3, Frontier, RebuildLane::Full),
        (512, 3, Sorting, delta),
        (512, 1, Preorder, RebuildLane::Full),
        (4_096, 1, Frontier, RebuildLane::Full),
        (4_096, 3, Frontier, delta),
        (4_096, 3, Sorting, RebuildLane::Full),
    ];
    shapes
        .into_iter()
        .map(|(items, channels, heuristic, rebuild_lane)| {
            let mut c = TenantConfig::new(0, items);
            c.channels = channels;
            c.heuristic = heuristic;
            c.rebuild_lane = rebuild_lane;
            c.rebuild_every = Some(2);
            c.degradation = None;
            c
        })
        .collect()
}

/// The tree a tenant's last rebuild published: a weight-balanced build
/// over its published weights on the full lane; on the delta lane its
/// boot tree (built over the estimator's boot weights) with every leaf
/// reweighted to its published weight.
fn rebuilt_tree(c: &TenantConfig, published: &[Weight]) -> bcast_index_tree::IndexTree {
    if c.rebuild_lane == RebuildLane::Full {
        return knary::build_weight_balanced_unlabeled(published, c.fanout).unwrap();
    }
    let boot = EmaEstimator::new(c.items, c.alpha);
    let mut tree = knary::build_weight_balanced_unlabeled(boot.published(), c.fanout).unwrap();
    let updates: Vec<(NodeId, Weight)> = tree
        .data_nodes()
        .iter()
        .copied()
        .zip(published.iter().copied())
        .collect();
    tree.reweight(&updates);
    tree
}

/// Each tenant's phase snapshot after every slice.
type Trace = Vec<Vec<(u64, SloSnapshot)>>;

/// Joins `roster` in its order, runs it for 7 slices (3 cadence
/// rebuilds) on `threads` lanes and returns every slice's snapshots.
/// After each rebuild, every tenant that republished must air exactly
/// what a fresh standalone publisher makes of the tree its lane derives
/// from its published weights ([`rebuilt_tree`]), with the same
/// item → node map.
fn run_mixed(roster: &[TenantConfig], threads: usize) -> Trace {
    let mut svc = ServeLoop::new(0x3A7E, threads);
    for c in roster {
        svc.join(c.clone());
    }
    for t in svc.tenants_mut() {
        let demand = DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, 90 + 37 * t.id() as u32);
        t.begin_phase(demand, None, SloSpec::lossless(), 8);
    }
    let mut trace = Vec::new();
    for _ in 0..7 {
        let before: Vec<u64> = svc.tenants().iter().map(|t| t.total_rebuilds()).collect();
        svc.run_slice();
        for (t, &rebuilds) in svc.tenants().iter().zip(&before) {
            if t.total_rebuilds() == rebuilds {
                continue;
            }
            let c = t.config();
            let tree = rebuilt_tree(c, t.estimator().published());
            let mut fresh = Publisher::new();
            fresh
                .publish(&tree, c.channels, c.heuristic, PublishOptions::default())
                .unwrap();
            assert_eq!(
                t.snapshot_image().words(),
                SnapshotImage::capture(fresh.current(), c.channels, tree.data_nodes()).words(),
                "tenant {} on {threads} lanes, slice {}",
                t.id(),
                svc.slices_run()
            );
        }
        trace.push(snapshots(&svc));
    }
    trace
}

#[test]
fn a_lane_workspace_carries_nothing_from_one_tenant_to_the_next() {
    let shapes = mixed_roster();
    // Two roster orders: ids ascending with catalog size and joined in id
    // order, then ids descending with it and joined last id first.
    let ascending: Vec<TenantConfig> = shapes
        .iter()
        .enumerate()
        .map(|(id, c)| TenantConfig {
            id: id as u64,
            ..c.clone()
        })
        .collect();
    let descending: Vec<TenantConfig> = shapes
        .iter()
        .rev()
        .enumerate()
        .map(|(id, c)| TenantConfig {
            id: id as u64,
            ..c.clone()
        })
        .rev()
        .collect();
    for roster in [ascending, descending] {
        let one = run_mixed(&roster, 1);
        for threads in [2, 3] {
            assert_eq!(one, run_mixed(&roster, threads), "{threads} lanes");
        }
        // Each tenant on its own, in a loop whose workspace no other
        // tenant ever touches, serves exactly as it did in the roster.
        for c in &roster {
            let solo = run_mixed(std::slice::from_ref(c), 1);
            for (slice, (mixed, alone)) in one.iter().zip(&solo).enumerate() {
                let mixed = mixed.iter().find(|(id, _)| *id == c.id).unwrap();
                assert_eq!(*mixed, alone[0], "tenant {} at slice {slice}", c.id);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn pooled_matches_scoped_on_random_rosters(
        seed in any::<u64>(),
        threads_pick in 0usize..4,
        tenants_pick in 0usize..4,
        rate in 20u32..120,
    ) {
        let threads = [1usize, 2, 4, 8][threads_pick];
        let tenants = [1usize, 3, 8, 17][tenants_pick];
        compare_executors(seed, threads, tenants, rate);
    }
}

/// Long-haul soak: ten thousand pooled slices (ten thousand pool
/// wake/park handshakes) stay bit-identical to a sequential run of the
/// same roster. Run via `make stress` (`cargo test --release -- --ignored
/// stress`).
#[test]
#[ignore = "long soak; run via make stress"]
fn stress_pooled_soak_10k_slices() {
    const SLICES: u32 = 10_000;
    let mut pooled = boot(0xDEAD_5EED, 4, 8, 60, SLICES);
    let mut sequential = boot(0xDEAD_5EED, 1, 8, 60, SLICES);
    for block in 0..10 {
        for _ in 0..(SLICES / 10) {
            pooled.run_slice();
            sequential.run_slice();
        }
        assert_eq!(
            snapshots(&pooled),
            snapshots(&sequential),
            "divergence by block {block}"
        );
    }
    assert_eq!(pooled.slices_run(), u64::from(SLICES));
    let stats = pooled.pool_stats();
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.scheduled_slices, u64::from(SLICES));
    assert!(stats.busy_ns.iter().all(|&ns| ns > 0));
    for (id, snap) in snapshots(&pooled) {
        assert_eq!(snap.requests, u64::from(SLICES) * 60, "tenant {id}");
        assert_eq!(snap.failed, 0, "tenant {id}");
        assert_eq!(snap.rebuild_downtime_slots, 0, "tenant {id}");
    }
}
