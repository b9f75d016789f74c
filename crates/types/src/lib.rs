#![warn(missing_docs)]

//! Vocabulary types shared across the broadcast-allocation workspace.
//!
//! The workspace reproduces *Optimal Index and Data Allocation in Multiple
//! Broadcast Channels* (Lo & Chen, ICDE 2000). Every crate speaks in terms of
//! the identifiers defined here:
//!
//! * [`NodeId`] — an index or data node of the index tree,
//! * [`ChannelId`] — one of the `k` broadcast channels,
//! * [`Slot`] — a 1-based broadcast slot (one bucket per channel per slot),
//! * [`Weight`] — a non-negative access frequency,
//! * [`BitSet`] — a growable bitset used for ancestor/placement sets in the
//!   search algorithms,
//! * [`DominanceTable`] — a flat open-addressing best-cost table keyed by
//!   `(64-bit hash, small aux)` over interned state ids, shared by every
//!   exact search engine's dominance/memoization layer (see [`dominance`]),
//! * [`occurrences`] — cyclic root-occurrence geometry shared by the §5
//!   replication analysis and the lossy-serving recovery overlay,
//! * [`pool`] — a persistent parked worker pool ([`WorkerPool`]) with an
//!   epoch publish/retire handshake, amortizing thread-spawn cost across
//!   the serving loop's per-slice parallel regions,
//! * [`slo`] — service-level-objective vocabulary ([`SloSpec`],
//!   [`SloSnapshot`], [`SloViolation`]) shared by the multi-tenant serving
//!   loop, the scenario harness and the CLI,
//! * [`crc`] — the shared compile-time CRC table builder and the
//!   hardware/software CRC-32C engine sealing snapshots, wire buckets and
//!   the service checkpoint manifest,
//! * [`prefetch`](mod@prefetch) — the bounds-checked software prefetch
//!   and the table size from which the request path uses it,
//! * [`words`] — the word codec ([`WordWriter`], [`WordReader`]) every
//!   checkpointed type writes and reads its state through.
//!
//! The identifiers, [`Weight`] and [`BitSet`] are plain data: `Copy` where
//! possible, no interior mutability, no allocation beyond the bitset's
//! backing vector.

#[cfg(feature = "alloc-count")]
pub mod alloc_counter;
mod bitset;
pub mod crc;
pub mod dominance;
mod ids;
pub mod occurrences;
pub mod pool;
pub mod prefetch;
pub mod slo;
mod weight;
pub mod words;

pub use bitset::{bits, mix64, BitSet};
pub use dominance::DominanceTable;
pub use ids::{BucketAddr, ChannelId, NodeId, Slot};
pub use pool::WorkerPool;
pub use slo::{SloSnapshot, SloSpec, SloViolation};
pub use weight::{Weight, WeightError};
pub use words::{WordReader, WordWriter};
