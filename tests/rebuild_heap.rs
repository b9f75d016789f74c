//! The heap a full rebuild keeps does not grow with the roster.
//!
//! This binary installs the [`CountingAlloc`] global allocator and runs
//! two single-lane `ServeLoop`s, one of 2 and one of 6 same-shape
//! full-lane tenants, through their first cadence rebuild. The first
//! tenant of each loop joins cold and the rest boot from its image, so
//! before that slice no tenant but the first has published through a
//! workspace. The live heap the rebuild slice leaves behind on this
//! thread must differ between the two loops by less than one tenant's
//! workspace: the lane lends every tenant the same one, so the four
//! extra tenants keep only their new programs.

use broadcast_alloc::alloc::{PublishHeuristic, PublishWorkspace, Publisher};
use broadcast_alloc::serve::{ServeLoop, TenantConfig};
use broadcast_alloc::tree::knary;
use broadcast_alloc::types::alloc_counter::{live_bytes, CountingAlloc};
use broadcast_alloc::types::SloSpec;
use broadcast_alloc::workloads::{DemandShape, DemandSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ITEMS: usize = 4_096;
const RATE: u32 = 2_000;
/// The tenant default republishes every 8 slices.
const CADENCE: u32 = 8;

/// Runs `tenants` tenants up to their first cadence rebuild and returns
/// the live heap that slice left behind, with the loop, so the caller
/// can read what its tenants published.
fn retained_by_the_rebuild_slice(tenants: u64) -> (i64, ServeLoop) {
    let mut svc = ServeLoop::new(0x4EA9, 1);
    for id in 0..tenants {
        let mut config = TenantConfig::new(id, ITEMS);
        config.degradation = None;
        svc.join(config);
    }
    assert_eq!(svc.snapshot_boots(), tenants - 1);
    let demand = DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, RATE);
    for t in svc.tenants_mut() {
        t.begin_phase(demand, None, SloSpec::lossless(), 2 * CADENCE);
    }
    svc.run_slices(CADENCE - 1);
    let before = live_bytes();
    svc.run_slice();
    let retained = live_bytes() - before;
    for t in svc.tenants() {
        let snap = t.phase_snapshot();
        assert_eq!(snap.full_rebuilds, 1, "tenant {}: {snap:?}", t.id());
    }
    (retained, svc)
}

/// The heap one workspace keeps after publishing `tree` twice for a
/// publisher that then leaves: every scratch buffer, plus the first
/// program as its spare route table.
fn one_workspace(tree: &broadcast_alloc::tree::IndexTree) -> i64 {
    let before = live_bytes();
    let mut work = PublishWorkspace::new();
    let mut publisher = Publisher::new();
    for _ in 0..2 {
        publisher
            .publish_in(&mut work, tree, 3, PublishHeuristic::Sorting)
            .unwrap();
    }
    drop(publisher);
    let kept = live_bytes() - before;
    drop(work);
    kept
}

#[test]
fn the_ledger_follows_allocations_and_frees() {
    let before = live_bytes();
    let mut v: Vec<u64> = Vec::with_capacity(1_000);
    assert_eq!(live_bytes() - before, 8_000);
    v.reserve_exact(2_000);
    assert_eq!(live_bytes() - before, 16_000);
    drop(v);
    assert_eq!(live_bytes(), before);
}

#[test]
fn a_rebuild_keeps_no_more_heap_for_more_tenants() {
    let (two, _) = retained_by_the_rebuild_slice(2);
    let (six, svc) = retained_by_the_rebuild_slice(6);
    // The workspace as the last tenant's rebuild sized it.
    let last = svc.tenants().last().expect("six tenants");
    let tree = knary::build_weight_balanced_unlabeled(last.estimator().published(), 4).unwrap();
    let workspace = one_workspace(&tree);
    assert!(
        (six - two).abs() < workspace,
        "2 tenants kept {two} bytes, 6 kept {six}: one workspace is {workspace}"
    );
}
