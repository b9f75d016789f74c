#![warn(missing_docs)]

//! Broadcast-channel substrate.
//!
//! Models the physical layer of the paper: `k` channels transmitting one
//! bucket per slot, a broadcast cycle repeated periodically, buckets holding
//! either an index node (with `(channel, offset)` pointers to its children)
//! or a data node.
//!
//! The crate provides, bottom-up:
//!
//! * [`Allocation`] — the paper's mapping `f : I ∪ D → C × S`, with
//!   feasibility validation (injective, child strictly after parent) and the
//!   §3.1 channel-assignment rules for turning a *slot schedule* (the
//!   compound-node path found by the search algorithms) into concrete
//!   channel positions;
//! * [`cost`] — formula (1): the average data wait, plus probe-wait and
//!   access-time expectations;
//! * [`BroadcastProgram`] — the fully materialized bucket grid with forward
//!   pointers, validated so every pointer is followable;
//! * [`simulator`] — a client that tunes in at an arbitrary slot, follows
//!   pointers, and reports access time / tuning time / channel switches,
//!   used to cross-validate the analytic cost model and to measure the
//!   tuning-time effects the paper's introduction discusses;
//! * [`compiled`] — the compile-then-serve layer: per-node route tables
//!   precomputed in one pass ([`CompiledProgram`]), turning each simulated
//!   access into an O(1) table read, plus the sharded batched serving
//!   engine ([`CompiledProgram::serve_batch`]) and its exact streaming
//!   [`LatencyHistogram`];
//! * [`publish`] — the fused zero-allocation path from a heuristic's
//!   [`SlotPlan`] straight to a servable [`CompiledProgram`]
//!   ([`PublishPipeline`]), which builds into a spare route table and
//!   swaps it in only on success, so a rebuild never disturbs the program
//!   currently being served and one pipeline can publish for many;
//! * [`snapshot`] — versioned, CRC-sealed, fixed-layout binary images
//!   of a [`CompiledProgram`] ([`SnapshotImage`]): a publish persisted
//!   once cold-starts any number of later tenants with a bounds-checked
//!   cast instead of a re-publish;
//! * [`faults`] — deterministic lossy-channel fault injection
//!   ([`FaultPlan`]: seeded erasure and Gilbert–Elliott burst loss) and
//!   the bounded-budget client recovery protocol ([`RecoveryPolicy`]),
//!   injectable into both the pointer-walk oracle
//!   ([`faults::access_lossy`]) and the batched serving engine.

mod allocation;
pub mod compiled;
pub mod cost;
pub mod faults;
pub mod hist;
mod program;
pub mod publish;
pub mod simulator;
pub mod snapshot;
pub mod wire;

pub use allocation::{Allocation, FeasibilityError};
pub use compiled::{
    BatchMetrics, CompiledProgram, ServeOptions, ServeSession, MAX_ROUTE_DEPTH, SERVE_CHUNK,
};
pub use faults::{
    ClientLink, DeliveredTrace, FailReason, FaultError, FaultPlan, GilbertElliott, RecoveryFailure,
    RecoveryPolicy, RequestOutcome,
};
pub use hist::{HistMark, LatencyHistogram};
pub use program::{BroadcastProgram, Bucket, Pointer, ProgramError};
pub use publish::{PublishPipeline, SlotPlan};
pub use simulator::SimError;
pub use snapshot::{MappedSnapshot, SnapshotError, SnapshotImage, SnapshotView};
