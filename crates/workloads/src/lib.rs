#![warn(missing_docs)]

//! Workload generators for the broadcast-allocation experiments.
//!
//! The paper's evaluation draws access frequencies from two sources — "given
//! randomly" (Table 1) and a normal distribution `N(µ, σ)` (Fig. 14) — and
//! builds full balanced m-ary index trees over them. Broadcast-dissemination
//! studies more broadly use Zipf-like skews, so those are provided too for
//! the extension benches.
//!
//! Everything is deterministic given an explicit `u64` seed.

pub mod fault_scenarios;
pub mod freq;
pub mod requests;
pub mod rng;
pub mod scenario;
pub mod shapes;

pub use fault_scenarios::{erasure_sweep, BurstProfile, FaultScenario};
pub use freq::FrequencyDist;
pub use requests::{AliasTable, RequestStream, TaggedAliasTable};
pub use scenario::{
    brownout, brownout_channel, canonical_scenarios, diurnal_drift, flash_crowd, overload_storm,
    poison_pill, tenant_churn, DemandShape, DemandSpec, PhaseSpec, ScenarioSpec, TenantOverride,
};
pub use shapes::{random_tree, RandomTreeConfig};
