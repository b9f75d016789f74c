//! A warm steady serving slice performs no heap allocation.
//!
//! This binary installs the [`CountingAlloc`] global allocator, runs a
//! single-threaded `ServeLoop` through its adaptation republish and one
//! slice more (the first slice on a new program sizes the session buffers
//! once, a per-republish cost), then counts the allocations of the slices
//! after that on this thread. The roster is drift-gated clean tenants,
//! whose cadence points fall inside the counted window and are gated off,
//! plus one tenant on the brownout channel, so the lossy kernel path is
//! counted too, and two tenants large enough for the prefetching chunk
//! paths (`PREFETCH_MIN_LEN` items, republishes and degradation feedback
//! off), one clean and one on the brownout channel, so that the clean and
//! the lossy prefetching chunks are counted as well.

use broadcast_alloc::serve::{ServeLoop, TenantConfig};
use broadcast_alloc::types::alloc_counter::{allocation_count, CountingAlloc};
use broadcast_alloc::types::prefetch::PREFETCH_MIN_LEN;
use broadcast_alloc::types::SloSpec;
use broadcast_alloc::workloads::{brownout_channel, DemandShape, DemandSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Items per tenant and requests per tenant per slice: about ten requests
/// per item, where a stationary stream's drift stays under the gate.
const ITEMS: usize = 512;
const RATE: u32 = 5_000;
const CLEAN_TENANTS: u64 = 4;
/// Through the slice-8 adaptation republish, plus one slice on the new
/// program.
const WARMUP: u32 = 9;
/// Counted slices: the cadence points at slices 16 and 24 fall inside.
const COUNTED: u32 = 16;

#[test]
fn warm_steady_slices_do_not_allocate() {
    let brownout_id = CLEAN_TENANTS;
    let large_id = brownout_id + 1;
    let large_brownout_id = large_id + 1;
    let mut svc = ServeLoop::new(0x5EED, 1);
    for id in 0..=brownout_id {
        let mut config = TenantConfig::new(id, ITEMS);
        config.rebuild_min_drift = Some(0.3);
        svc.join(config);
    }
    for id in [large_id, large_brownout_id] {
        let mut large = TenantConfig::new(id, PREFETCH_MIN_LEN);
        large.rebuild_every = None;
        large.degradation = None;
        svc.join(large);
    }
    for t in svc.tenants_mut() {
        let demand = DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, RATE);
        let (faults, slo) = if t.id() == brownout_id || t.id() == large_brownout_id {
            (Some(brownout_channel()), SloSpec::degraded(0.90, 8.0))
        } else {
            (None, SloSpec::lossless())
        };
        t.begin_phase(demand, faults, slo, WARMUP + COUNTED);
    }
    svc.run_slices(WARMUP);
    let before = allocation_count();
    svc.run_slices(COUNTED);
    let allocs = allocation_count() - before;

    for t in svc.tenants() {
        let snap = t.phase_snapshot();
        assert_eq!(snap.quarantined, 0, "tenant {}: {snap:?}", t.id());
        if t.id() == large_id {
            assert_eq!(snap.rebuilds, 0, "{snap:?}");
            assert_eq!(snap.delivered, snap.requests, "{snap:?}");
            continue;
        }
        if t.id() == large_brownout_id {
            assert_eq!(snap.rebuilds, 0, "{snap:?}");
            assert!(snap.retries > 0, "{snap:?}");
            continue;
        }
        assert_eq!(snap.rebuilds, 1, "tenant {}: {snap:?}", t.id());
        assert_eq!(snap.skipped_rebuilds, 2, "tenant {}: {snap:?}", t.id());
        if t.id() == brownout_id {
            assert!(snap.failed > 0 || snap.retries > 0, "{snap:?}");
        } else {
            assert_eq!(snap.delivered, snap.requests, "{snap:?}");
        }
    }
    assert_eq!(
        allocs, 0,
        "heap allocations in {COUNTED} warm steady slices"
    );
}
