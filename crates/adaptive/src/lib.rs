#![warn(missing_docs)]

//! Online adaptation of broadcast programs — the paper's §5 first
//! future-work item: "If the change [of access patterns] is frequent, an
//! efficient on-line algorithm to immediately reflect the current
//! broadcasting state is needed."
//!
//! The crate holds the adaptive pieces the serving loop
//! (`bcast-serve`'s `TenantRuntime`) runs:
//!
//! * [`estimator`] — frequency estimation from the observed request stream
//!   (exponential moving average, the standard re-estimation technique the
//!   paper's §1 cites from \[DCK97, SRB97\]);
//! * [`controller`] — the degraded-feedback path ([`DegradationPolicy`],
//!   [`DegradationTracker`]) that rebuilds on sustained delivery-rate
//!   drops with hysteresis and exponential cooldown backoff;
//! * [`hotset`] — *which* items to broadcast (the paper's §1 first
//!   research category): top-k-with-hysteresis membership plus the hybrid
//!   push–pull capacity trade-off.
//!
//! The static / adaptive / oracle comparison (EXPERIMENTS F1) lives in
//! `bcast-bench` and drives a real tenant.

pub mod controller;
pub mod estimator;
pub mod hotset;

pub use controller::{DegradationPolicy, DegradationTracker};
pub use estimator::EmaEstimator;
pub use hotset::{HotSetConfig, HotSetManager};
