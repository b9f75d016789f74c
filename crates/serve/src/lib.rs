#![warn(missing_docs)]

//! A live multi-tenant serving loop over the broadcast machinery — the
//! "day in the life" harness that exercises everything the lower crates
//! provide (allocation heuristics, compiled serving, fault recovery,
//! online adaptation) as one long-lived service.
//!
//! * [`tenant`] — one tenant: tree + double-buffered publisher + EMA
//!   estimator + degradation tracker, advanced one time slice at a time;
//! * [`service`] — the [`ServeLoop`]: a roster of tenants advanced in
//!   lock-step slices across a persistent worker pool with deterministic
//!   load-balanced lane assignment, SLO-aware overload shedding under a
//!   per-slice request budget, and panic quarantine around every
//!   tenant's slice work;
//! * [`scenario`] — the steppable [`ScenarioDriver`] and the
//!   [`run_scenario`] interpreter for the canonical
//!   [`bcast_workloads::scenario`] scripts, producing per-phase SLO
//!   verdicts (plus [`run_scenario_with_stats`] for the pool's
//!   wall-clock side channel);
//! * [`checkpoint`] — crash safety: atomic, versioned, CRC-sealed
//!   manifests written at slice boundaries
//!   ([`ServeLoop::checkpoint`]) and restored cold
//!   ([`ServeLoop::restore`]) with bit-identical resumption.
//!
//! Determinism is the design invariant: tenants are self-contained (all
//! randomness derives from the service seed and the tenant's stable id),
//! so a scenario replays bit-identically at any thread count, and a
//! tenant's metrics are the same whether it serves alone or among noisy
//! neighbors — the property the tenant-isolation chaos tests pin down
//! with exact equality. Crash-restore leans on the same invariant: a
//! checkpoint carries every input the slice loop consumes, so a run
//! killed at any slice boundary and restored finishes with the same
//! outcome fingerprint as one that never crashed.

// The unit tests count heap allocations (a corrupt checkpoint run must
// fail before it allocates).
#[cfg(test)]
#[global_allocator]
static ALLOC: bcast_types::alloc_counter::CountingAlloc = bcast_types::alloc_counter::CountingAlloc;

pub mod checkpoint;
pub mod scenario;
pub mod service;
pub mod tenant;

pub use checkpoint::CheckpointError;
pub use scenario::{
    run_scenario, run_scenario_with_stats, PhaseReport, ScenarioDriver, ScenarioOutcome,
    TenantPhaseReport,
};
pub use service::{PoolStats, ServeLoop};
pub use tenant::{RebuildLane, TenantConfig, TenantRuntime};

/// Installs (once, process-wide) a panic hook that swallows the report
/// for panics whose payload contains `"chaos poison"` — the marker every
/// injected chaos panic carries — and forwards everything else to the
/// previous hook. The quarantine machinery catches these panics anyway;
/// this only keeps chaos tests and storm harnesses from flooding stderr
/// with expected backtraces. Real panics still print.
pub fn silence_chaos_panic_reports() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("chaos poison") {
                prev(info);
            }
        }));
    });
}
