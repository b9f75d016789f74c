//! Deterministic lossy-channel fault injection and the client recovery
//! protocol.
//!
//! The paper's setting is *wireless* broadcast, where bucket loss is the
//! norm, yet the base serving stack assumes a perfect channel. This module
//! adds the missing failure axis without giving up any of the repo's
//! reproducibility guarantees:
//!
//! * [`FaultPlan`] — a seeded description of *when reads fail*: independent
//!   per-bucket erasure or a two-state Gilbert–Elliott burst-loss chain.
//!   Every draw is keyed by SplitMix64 on the **global request index**, so
//!   outcomes are bit-identical at any `serve_batch` thread count and
//!   across reruns of the same seed.
//! * The **recovery protocol**: a lost bucket is retried at the next
//!   occurrence of the same node — the next slot for the probe, the next
//!   root occurrence (an earlier replica when
//!   `bcast_core::replication`-style root copies are assumed; see
//!   [`root_occurrence_gaps`]) for the root, and the next cycle for
//!   interior/data buckets — with exponential backoff in *occurrences
//!   skipped*, under a bounded retry/timeout budget
//!   ([`RecoveryPolicy`]). A request that exhausts its budget is reported
//!   as [`RequestOutcome::Failed`], never retried unboundedly and never
//!   aborting the batch.
//! * [`access_lossy`] — an independent pointer-walking oracle that executes
//!   the protocol over the real bucket grid; the compiled serving path
//!   replays the identical draw/charge sequence through
//!   [`recover_access`], and property tests pin the two against each
//!   other.
//!
//! ### Timing model
//!
//! Read attempts are indexed by `(path position, attempt)`; position `0` is
//! the probe, `1` the root, `2..` the interior/data path. For erasure
//! faults the loss draw for `(request, position, attempt)` is a pure hash —
//! losses at erasure probability `p` are a superset of losses at `p' < p`
//! (a *monotone coupling*), which is what makes the degradation curve of
//! delivery rate provably monotone in `p`. The Gilbert–Elliott chain
//! advances once per read attempt and once per occurrence dozed through,
//! so bursts correlate consecutive attempts; backoff doubles the
//! occurrences skipped and therefore escapes bad states geometrically.
//!
//! A draw `x` stands for the uniform `(x >> 11) / 2⁵³`, and it falls below
//! probability `p` exactly when `x >> 11 < ⌈p·2⁵³⌉`. A plan computes these
//! integer thresholds once, for every probability it holds (the
//! Gilbert–Elliott chain's stationary bad share included), so each draw is
//! a shift and an integer compare. The threshold never falls as `p` rises,
//! so the coupling survives.
//!
//! Retry waits are charged in *slots*: a probe retry only costs time when
//! the probes wrap past the cycle boundary (the root broadcast that would
//! have been caught is missed); a root retry costs the gap to the next
//! root occurrence; an interior/data retry costs whole cycles (which keeps
//! the slot arithmetic of the unreplicated grid exact). Root-replica gaps
//! are the analytical overlay of `bcast_core::replication::analyze` —
//! primary-path waits still use the unreplicated program. A budget thus
//! bounds every delivered access
//! ([`RecoveryPolicy::max_delivered_access`]), and
//! [`RecoveryPolicy::fits`] refuses a budget whose bound would overflow
//! the serving kernel's `u32` access times.

use crate::compiled::mix64;
use crate::program::{BroadcastProgram, Bucket};
use crate::simulator::{AccessTrace, SimError};
use bcast_index_tree::IndexTree;
use bcast_types::{occurrences, NodeId, Slot};
use std::fmt;

/// The integer threshold of probability `p`: `⌈p·2⁵³⌉`. A 64-bit draw
/// `x` stands for the uniform `(x >> 11) / 2⁵³` on `[0, 1)`, and that
/// uniform is below `p` exactly when `x >> 11 < threshold(p)`: the
/// quotient, the product `p·2⁵³` and its ceiling are all exact in `f64`
/// (scaling by a power of two, values at most 2⁵³), and an integer is
/// below a real `r` exactly when it is below `⌈r⌉`. A draw is thus one
/// shift and one integer compare.
#[inline]
fn threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Whether draw `x` falls below the probability whose
/// [`threshold`] is `below`.
#[inline]
fn hit(x: u64, below: u64) -> bool {
    x >> 11 < below
}

/// An invalid fault-model parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A probability parameter escaped `[0, 1]` (or was NaN).
    BadProbability {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::BadProbability { name, value } => {
                write!(f, "fault probability {name} = {value} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for FaultError {}

fn check_prob(name: &'static str, value: f64) -> Result<f64, FaultError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(FaultError::BadProbability { name, value })
    }
}

/// Parameters of the two-state Gilbert–Elliott burst-loss chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Transition probability good → bad per read attempt.
    pub p_good_to_bad: f64,
    /// Transition probability bad → good per read attempt.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad (burst) state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Stationary probability of the bad state (`0` when the chain never
    /// leaves good).
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom > 0.0 {
            self.p_good_to_bad / denom
        } else {
            0.0
        }
    }

    /// Long-run expected loss rate.
    pub fn expected_loss(&self) -> f64 {
        let pb = self.stationary_bad();
        (1.0 - pb) * self.loss_good + pb * self.loss_bad
    }
}

/// A Gilbert–Elliott chain's probabilities as draw thresholds
/// ([`threshold`]), computed once per plan so that a link's draws are
/// integer compares.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GeThresholds {
    to_bad: u64,
    to_good: u64,
    loss_good: u64,
    loss_bad: u64,
    /// Of [`GilbertElliott::stationary_bad`]: a link's starting state.
    start_bad: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FaultModel {
    None,
    Erasure {
        p: f64,
        lost_below: u64,
    },
    GilbertElliott {
        ge: GilbertElliott,
        below: GeThresholds,
    },
}

/// A seeded, reproducible description of channel faults.
///
/// Plans are plain `Copy` data; per-request randomness comes from
/// [`FaultPlan::link`], which derives an independent [`ClientLink`] from
/// the **global request index** — the property that makes lossy
/// `serve_batch` results independent of thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    model: FaultModel,
}

impl FaultPlan {
    /// The perfect channel: no read ever fails. Serving with this plan is
    /// bit-identical to (and as fast as) the fault-free engine.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            model: FaultModel::None,
        }
    }

    /// Independent per-read erasure with probability `p`.
    ///
    /// # Errors
    /// [`FaultError::BadProbability`] if `p` escapes `[0, 1]`.
    pub fn erasure(p: f64, seed: u64) -> Result<Self, FaultError> {
        let p = check_prob("erasure_p", p)?;
        Ok(FaultPlan {
            seed,
            model: FaultModel::Erasure {
                p,
                lost_below: threshold(p),
            },
        })
    }

    /// Gilbert–Elliott burst loss; the per-request chain starts from its
    /// stationary distribution.
    ///
    /// # Errors
    /// [`FaultError::BadProbability`] if any parameter escapes `[0, 1]`.
    pub fn gilbert_elliott(ge: GilbertElliott, seed: u64) -> Result<Self, FaultError> {
        let below = GeThresholds {
            to_bad: threshold(check_prob("p_good_to_bad", ge.p_good_to_bad)?),
            to_good: threshold(check_prob("p_bad_to_good", ge.p_bad_to_good)?),
            loss_good: threshold(check_prob("loss_good", ge.loss_good)?),
            loss_bad: threshold(check_prob("loss_bad", ge.loss_bad)?),
            start_bad: threshold(ge.stationary_bad()),
        };
        Ok(FaultPlan {
            seed,
            model: FaultModel::GilbertElliott { ge, below },
        })
    }

    /// True for the perfect-channel plan (serving takes the fault-free
    /// fast path).
    #[inline]
    pub fn is_none(&self) -> bool {
        matches!(self.model, FaultModel::None)
    }

    /// Long-run expected per-read loss rate of the plan.
    pub fn expected_loss(&self) -> f64 {
        match self.model {
            FaultModel::None => 0.0,
            FaultModel::Erasure { p, .. } => p,
            FaultModel::GilbertElliott { ge, .. } => ge.expected_loss(),
        }
    }

    /// The fault stream one request observes; keyed purely by
    /// `(plan seed, request_index)`.
    pub fn link(&self, request_index: u64) -> ClientLink {
        let key = mix64(self.seed, request_index);
        let kind = match self.model {
            FaultModel::None => LinkKind::Perfect,
            FaultModel::Erasure { lost_below, .. } => LinkKind::Erasure { key, lost_below },
            FaultModel::GilbertElliott { below, .. } => {
                let mut link = SeqLink {
                    state: key,
                    bad: false,
                    below,
                };
                // Stationary start so short requests see the long-run mix.
                link.bad = hit(link.next_draw(), below.start_bad);
                LinkKind::Gilbert(link)
            }
        };
        ClientLink { kind }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Sequential per-request chain state for the Gilbert–Elliott model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SeqLink {
    state: u64,
    bad: bool,
    below: GeThresholds,
}

impl SeqLink {
    #[inline]
    fn next_draw(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(0xC2B2_AE3D_27D4_EB4F, self.state)
    }

    /// One transition: the chain leaves its state when the draw falls
    /// below that state's exit probability.
    #[inline]
    fn step(&mut self) {
        let exit = if self.bad {
            self.below.to_good
        } else {
            self.below.to_bad
        };
        self.bad ^= hit(self.next_draw(), exit);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LinkKind {
    Perfect,
    Erasure { key: u64, lost_below: u64 },
    Gilbert(SeqLink),
}

/// One request's view of the degraded channel.
///
/// The oracle walk and the compiled serving path drive a link through the
/// *same* sequence of [`read_lost`](Self::read_lost) /
/// [`doze`](Self::doze) calls, so both observe identical faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientLink {
    kind: LinkKind,
}

impl ClientLink {
    /// Whether the read at path position `pos` (0 = probe, 1 = root,
    /// 2.. = interior/data) fails on its `attempt`-th try (0-based).
    ///
    /// For erasure links the draw is a pure hash of `(pos, attempt)` with
    /// a shared uniform — losses at probability `p` contain the losses at
    /// every `p' < p` (monotone coupling: the draw is compared with
    /// `threshold(p)`, which never falls as `p` rises).
    #[inline]
    pub fn read_lost(&mut self, pos: u32, attempt: u32) -> bool {
        match &mut self.kind {
            LinkKind::Perfect => false,
            LinkKind::Erasure { key, lost_below } => {
                let draw = mix64(*key, (u64::from(pos) << 32) | u64::from(attempt));
                hit(draw, *lost_below)
            }
            LinkKind::Gilbert(link) => {
                let lost_below = if link.bad {
                    link.below.loss_bad
                } else {
                    link.below.loss_good
                };
                let lost = hit(link.next_draw(), lost_below);
                link.step();
                lost
            }
        }
    }

    /// Advances the link past `occurrences` read opportunities the client
    /// dozes through (burst chains keep evolving while the radio is off).
    #[inline]
    pub fn doze(&mut self, occurrences: u64) {
        if let LinkKind::Gilbert(link) = &mut self.kind {
            for _ in 0..occurrences {
                link.step();
            }
        }
    }
}

/// Retry/timeout budget and backoff shape of the recovery protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total failed reads tolerated per request before it is declared
    /// [`FailReason::RetriesExhausted`].
    pub max_retries: u32,
    /// Upper bound on the *extra* wait (slots added by recovery) before
    /// the request is declared [`FailReason::TimedOut`]. `u64::MAX`
    /// disables the timeout; the retry budget still bounds every request.
    pub timeout_slots: u64,
    /// Exponential backoff cap: the `f`-th consecutive failure at one
    /// position skips `2^min(f, cap)` occurrences (0-based `f`).
    pub backoff_cap: u32,
    /// Root occurrences per cycle assumed by root-bucket retries (`1` =
    /// no replication; values above 1 price retries on the evenly spaced
    /// replica grid of `bcast_core::replication`).
    pub root_replicas: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 8,
            timeout_slots: u64::MAX,
            backoff_cap: 4,
            root_replicas: 1,
        }
    }
}

impl RecoveryPolicy {
    /// True if the recovery protocol can run this policy on a cycle of at
    /// most `max_cycle` slots: a backoff cap below 64, so the skip
    /// `2^min(f, cap)` fits a `u64`; at most `max_cycle` root replicas, so
    /// the replica grid of [`root_occurrence_gaps`] is sized by the
    /// program, not by the policy; and a
    /// [`max_delivered_access`](Self::max_delivered_access) on
    /// `max_cycle` that fits the serving kernel's `u32` access times, so
    /// every delivered access is recorded at its true value. The bound
    /// grows with the cycle, so a policy that fits `max_cycle` fits every
    /// shorter cycle too.
    pub fn fits(&self, max_cycle: usize) -> bool {
        self.backoff_cap < 64
            && self.root_replicas as usize <= max_cycle
            && self.max_delivered_access(max_cycle) <= u64::from(u32::MAX)
    }

    /// The longest total access time, in slots, of a request delivered
    /// under this policy on a cycle of `cycle_len` slots (saturating at
    /// `u64::MAX`): `2·cycle − 1` of fault-free access plus
    /// `(cycle + root_replicas − 1)·Σ_{f<max_retries} 2^min(f, backoff_cap)`
    /// of recovery wait. A failed read's `f`-th retry at one position
    /// waits `2^min(f, cap)` occurrences of at most `cycle + replicas − 1`
    /// slots each (a probe retry waits at most one cycle), and splitting
    /// the retry budget over several positions restarts `f` at 0, which
    /// only shortens the sum.
    pub fn max_delivered_access(&self, cycle_len: usize) -> u64 {
        let pow2 = |e: u128| 1u128.checked_shl(e as u32).unwrap_or(u128::MAX);
        let (retries, cap) = (u128::from(self.max_retries), u128::from(self.backoff_cap));
        // Skips double for the first `cap + 1` retries, then stay at 2^cap.
        let doubling = retries.min(cap + 1);
        let skips =
            (pow2(doubling) - 1).saturating_add((retries - doubling).saturating_mul(pow2(cap)));
        let cycle = cycle_len as u128;
        let occurrence = cycle + u128::from(self.root_replicas.max(1)) - 1;
        let worst = (2 * cycle)
            .saturating_sub(1)
            .saturating_add(occurrence.saturating_mul(skips));
        u64::try_from(worst).unwrap_or(u64::MAX)
    }
}

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The retry budget ([`RecoveryPolicy::max_retries`]) ran out.
    RetriesExhausted,
    /// Accumulated recovery wait exceeded
    /// [`RecoveryPolicy::timeout_slots`].
    TimedOut,
}

impl fmt::Display for FailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailReason::RetriesExhausted => write!(f, "retry budget exhausted"),
            FailReason::TimedOut => write!(f, "recovery timeout exceeded"),
        }
    }
}

/// A request the recovery protocol gave up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryFailure {
    /// Failed reads charged before giving up.
    pub retries: u32,
    /// Extra wait (slots) accumulated before giving up.
    pub extra_wait: u64,
    /// Which budget ran out.
    pub reason: FailReason,
}

impl fmt::Display for RecoveryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "request failed ({}) after {} retries and {} extra slots",
            self.reason, self.retries, self.extra_wait
        )
    }
}

impl std::error::Error for RecoveryFailure {}

/// A request delivered despite faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredTrace {
    /// The access trace; `tuning_time` includes every failed read.
    pub trace: AccessTrace,
    /// Failed reads recovered from.
    pub retries: u32,
    /// Slots of wait added by recovery on top of the fault-free access.
    pub extra_wait: u64,
}

impl DeliveredTrace {
    /// Total slots from tune-in to data retrieval, recovery included.
    pub fn total_access_time(&self) -> u64 {
        u64::from(self.trace.access_time()) + self.extra_wait
    }
}

/// Outcome of one access over a lossy channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The data bucket was read within budget.
    Delivered(DeliveredTrace),
    /// The request was abandoned after exhausting its budget.
    Failed(RecoveryFailure),
}

impl RequestOutcome {
    /// The delivered trace, if any.
    pub fn delivered(&self) -> Option<&DeliveredTrace> {
        match self {
            RequestOutcome::Delivered(d) => Some(d),
            RequestOutcome::Failed(_) => None,
        }
    }
}

impl fmt::Display for RequestOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestOutcome::Delivered(d) => write!(
                f,
                "delivered in {} slots ({} retries, {} extra slots)",
                d.total_access_time(),
                d.retries,
                d.extra_wait
            ),
            RequestOutcome::Failed(e) => write!(f, "{e}"),
        }
    }
}

/// Cyclic gaps between consecutive root occurrences for a cycle of
/// `cycle_len` slots under `root_replicas` evenly spaced root copies —
/// the per-batch precomputation the serving engine shares across shards.
///
/// `root_replicas` is clamped to at least 1; with exactly 1 the single gap
/// is the whole cycle.
pub fn root_occurrence_gaps(cycle_len: usize, root_replicas: u32) -> Vec<u64> {
    let mut out = Vec::new();
    root_occurrence_gaps_into(cycle_len, root_replicas, &mut out);
    out
}

/// [`root_occurrence_gaps`] into a caller-owned buffer (cleared first) —
/// the serving session's per-batch refill, allocation-free once the
/// buffer has grown to the replica count.
pub fn root_occurrence_gaps_into(cycle_len: usize, root_replicas: u32, out: &mut Vec<u64>) {
    let rep = occurrences::replicate_root(cycle_len, root_replicas.max(1));
    let gaps = occurrences::occurrence_gaps(&rep.positions, rep.cycle_len);
    out.clear();
    out.extend_from_slice(&gaps);
}

/// Tracks a request's retry/timeout budget; both serving paths charge in
/// the same order (retry first, then the wait it causes).
struct Budget<'a> {
    policy: &'a RecoveryPolicy,
    retries: u32,
    extra_wait: u64,
}

impl<'a> Budget<'a> {
    fn new(policy: &'a RecoveryPolicy) -> Self {
        Budget {
            policy,
            retries: 0,
            extra_wait: 0,
        }
    }

    #[inline]
    fn charge_retry(&mut self) -> Result<(), RecoveryFailure> {
        if self.retries >= self.policy.max_retries {
            return Err(RecoveryFailure {
                retries: self.retries,
                extra_wait: self.extra_wait,
                reason: FailReason::RetriesExhausted,
            });
        }
        self.retries += 1;
        Ok(())
    }

    #[inline]
    fn charge_wait(&mut self, slots: u64) -> Result<(), RecoveryFailure> {
        self.extra_wait = self.extra_wait.saturating_add(slots);
        if self.extra_wait > self.policy.timeout_slots {
            return Err(RecoveryFailure {
                retries: self.retries,
                extra_wait: self.extra_wait,
                reason: FailReason::TimedOut,
            });
        }
        Ok(())
    }
}

/// Runs the probe phase: repeated reads at consecutive slots until one
/// succeeds. Returns the probe retries; extra wait accrues only when the
/// probes wrap past the cycle boundary and the next root broadcast is
/// missed.
fn recover_probe(
    tune_slot_1based: u32,
    cycle_len: u32,
    link: &mut ClientLink,
    budget: &mut Budget<'_>,
) -> Result<u32, RecoveryFailure> {
    let mut k = 0u32;
    while link.read_lost(0, k) {
        budget.charge_retry()?;
        k += 1;
    }
    if k > 0 {
        let wrapped = u64::from((tune_slot_1based - 1 + k) / cycle_len);
        budget.charge_wait(u64::from(cycle_len) * wrapped)?;
    }
    Ok(k)
}

/// Runs the retry loop for the path read at `pos` (1 = root, 2.. =
/// interior/data) until the read succeeds or the budget runs out.
#[inline]
fn recover_path_read(
    pos: u32,
    cycle_len: u32,
    link: &mut ClientLink,
    budget: &mut Budget<'_>,
    root_gaps: &[u64],
    root_idx: &mut usize,
) -> Result<(), RecoveryFailure> {
    let mut f = 0u32;
    while link.read_lost(pos, f) {
        budget.charge_retry()?;
        let skip = 1u64 << f.min(budget.policy.backoff_cap);
        let wait = if pos != 1 {
            // Whole cycles keep the slot arithmetic of the grid exact.
            u64::from(cycle_len) * skip
        } else if let [gap] = root_gaps {
            // One root occurrence per cycle: the walk below sums `skip`
            // copies of its one gap and stays at index 0.
            gap * skip
        } else {
            // Next root occurrence(s): walk the cyclic replica gaps.
            let mut w = 0u64;
            for _ in 0..skip {
                w += root_gaps[*root_idx];
                *root_idx += 1;
                if *root_idx == root_gaps.len() {
                    *root_idx = 0;
                }
            }
            w
        };
        budget.charge_wait(wait)?;
        link.doze(skip - 1);
        f += 1;
    }
    Ok(())
}

/// Replays the recovery protocol over a fault-free [`AccessTrace`] — the
/// compiled serving path's half of the protocol. The pointer-walking
/// oracle ([`access_lossy`]) must produce the identical outcome for the
/// same link; property tests pin the two together.
///
/// `tune_slot` is a 1-based tune-in slot (wrapped into the cycle) and
/// `root_gaps` the output of [`root_occurrence_gaps`] for this cycle and
/// policy.
pub fn recover_access(
    base: AccessTrace,
    tune_slot: Slot,
    cycle_len: u32,
    link: &mut ClientLink,
    policy: &RecoveryPolicy,
    root_gaps: &[u64],
) -> RequestOutcome {
    debug_assert!(cycle_len >= 1);
    let s = ((tune_slot.0 - 1) % cycle_len) + 1;
    recover_in_cycle(base, s, cycle_len, link, policy, root_gaps)
}

/// [`recover_access`] from a tune-in slot `s` already in `1..=cycle_len`
/// — the serving kernel's entry, whose division-free draw lands there.
#[inline]
pub(crate) fn recover_in_cycle(
    base: AccessTrace,
    s: u32,
    cycle_len: u32,
    link: &mut ClientLink,
    policy: &RecoveryPolicy,
    root_gaps: &[u64],
) -> RequestOutcome {
    debug_assert!(
        (1..=cycle_len).contains(&s),
        "tune-in slot {s} outside the cycle"
    );
    let mut budget = Budget::new(policy);
    if let Err(e) = recover_probe(s, cycle_len, link, &mut budget) {
        return RequestOutcome::Failed(e);
    }
    let path_len = base.tuning_time - 1;
    let mut root_idx = 0usize;
    for pos in 1..=path_len {
        if let Err(e) =
            recover_path_read(pos, cycle_len, link, &mut budget, root_gaps, &mut root_idx)
        {
            return RequestOutcome::Failed(e);
        }
    }
    RequestOutcome::Delivered(DeliveredTrace {
        trace: AccessTrace {
            tuning_time: base.tuning_time + budget.retries,
            ..base
        },
        retries: budget.retries,
        extra_wait: budget.extra_wait,
    })
}

/// Pointer-walking oracle for lossy access: executes the client protocol
/// of [`crate::simulator::access`] over the real bucket grid, consulting
/// `plan`'s fault stream before every read and recovering per the policy.
///
/// This is an independent implementation of the same protocol the
/// compiled path replays through [`recover_access`]; for every program,
/// target, tune-in and plan the two agree exactly.
///
/// # Errors
/// The same corruption classes as the fault-free simulator
/// ([`SimError::NotADataNode`], [`SimError::BrokenPointer`],
/// [`SimError::NoRoute`]); fault-induced *losses* are not errors — they
/// surface in the returned [`RequestOutcome`].
pub fn access_lossy(
    program: &BroadcastProgram,
    tree: &IndexTree,
    target: NodeId,
    tune_in: Slot,
    plan: &FaultPlan,
    request_index: u64,
    policy: &RecoveryPolicy,
) -> Result<RequestOutcome, SimError> {
    use bcast_types::{BucketAddr, ChannelId};

    if !tree.is_data(target) {
        return Err(SimError::NotADataNode(target));
    }
    let cycle_len = program.cycle_len() as u32;
    let tune_in = Slot::from_offset(tune_in.offset() % program.cycle_len());
    let root_gaps = root_occurrence_gaps(program.cycle_len(), policy.root_replicas);
    let mut on_path = vec![false; tree.len()];
    on_path[target.index()] = true;
    for a in tree.ancestors(target) {
        on_path[a.index()] = true;
    }

    let mut link = plan.link(request_index);
    let mut budget = Budget::new(policy);

    // Probe: keep reading consecutive C1 buckets until one gets through.
    let probe_wait = program.next_cycle_offset(tune_in);
    match recover_probe(tune_in.0, cycle_len, &mut link, &mut budget) {
        Ok(_) => {}
        Err(e) => return Ok(RequestOutcome::Failed(e)),
    }
    let mut tuning_time = 1u32; // successful reads only; retries added at the end

    // Pointer walk from the root at (C1, s1), retrying each bucket at its
    // next occurrence per the protocol.
    let mut root_idx = 0usize;
    let mut at = BucketAddr {
        channel: ChannelId::FIRST,
        slot: Slot::FIRST,
    };
    let mut clock = 1u32;
    let mut pos = 1u32;
    let mut channel_switches = 0u32;
    loop {
        if let Err(e) = recover_path_read(
            pos,
            cycle_len,
            &mut link,
            &mut budget,
            &root_gaps,
            &mut root_idx,
        ) {
            return Ok(RequestOutcome::Failed(e));
        }
        tuning_time += 1;
        match program.bucket(at) {
            Bucket::Data { node } if on_path[node.index()] => {
                return Ok(RequestOutcome::Delivered(DeliveredTrace {
                    trace: AccessTrace {
                        probe_wait,
                        data_wait: clock - 1,
                        tuning_time: tuning_time + budget.retries,
                        channel_switches,
                    },
                    retries: budget.retries,
                    extra_wait: budget.extra_wait,
                }));
            }
            Bucket::Index { node, pointers } if on_path[node.index()] => {
                let Some(ptr) = pointers.iter().find(|p| on_path[p.child.index()]) else {
                    return Err(SimError::NoRoute { at: *node, target });
                };
                if ptr.channel != at.channel {
                    channel_switches += 1;
                }
                clock += ptr.offset;
                at = BucketAddr {
                    channel: ptr.channel,
                    slot: Slot(at.slot.0 + ptr.offset),
                };
                pos += 1;
            }
            Bucket::Data { node } | Bucket::Index { node, .. } => {
                return Err(SimError::BrokenPointer {
                    at,
                    expected: *node,
                })
            }
            Bucket::Empty => {
                return Err(SimError::BrokenPointer {
                    at,
                    expected: target,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::simulator;

    fn fig2b() -> (IndexTree, BroadcastProgram) {
        use bcast_index_tree::builders;
        let t = builders::paper_example();
        let slots: Vec<Vec<NodeId>> = [
            vec!["1"],
            vec!["2", "3"],
            vec!["A", "B"],
            vec!["4", "E"],
            vec!["C", "D"],
        ]
        .iter()
        .map(|ls| {
            ls.iter()
                .map(|l| t.find_by_label(l).expect("label exists"))
                .collect()
        })
        .collect();
        let a = Allocation::from_slot_schedule(&slots, &t, 2).unwrap();
        let p = BroadcastProgram::build(&a, &t).unwrap();
        (t, p)
    }

    #[test]
    fn perfect_plan_reproduces_the_fault_free_trace() {
        let (t, p) = fig2b();
        let plan = FaultPlan::none();
        let policy = RecoveryPolicy::default();
        for &d in t.data_nodes() {
            for tune in 1..=p.cycle_len() as u32 {
                let base = simulator::access(&p, &t, d, Slot(tune)).unwrap();
                let out = access_lossy(&p, &t, d, Slot(tune), &plan, 7, &policy).unwrap();
                let RequestOutcome::Delivered(del) = out else {
                    panic!("perfect channel never fails");
                };
                assert_eq!(del.trace, base);
                assert_eq!(del.retries, 0);
                assert_eq!(del.extra_wait, 0);
            }
        }
    }

    #[test]
    fn invalid_probabilities_are_rejected() {
        assert!(matches!(
            FaultPlan::erasure(1.5, 0),
            Err(FaultError::BadProbability { .. })
        ));
        assert!(FaultPlan::erasure(f64::NAN, 0).is_err());
        let bad = GilbertElliott {
            p_good_to_bad: -0.1,
            p_bad_to_good: 0.5,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let err = FaultPlan::gilbert_elliott(bad, 0).unwrap_err();
        assert!(err.to_string().contains("p_good_to_bad"));
    }

    #[test]
    fn erasure_losses_are_monotone_in_p() {
        // The coupling: every loss at p must also be a loss at p' > p.
        let lo = FaultPlan::erasure(0.1, 99).unwrap();
        let hi = FaultPlan::erasure(0.45, 99).unwrap();
        for req in 0..200u64 {
            let mut a = lo.link(req);
            let mut b = hi.link(req);
            for pos in 0..4u32 {
                for attempt in 0..4u32 {
                    let la = a.read_lost(pos, attempt);
                    let lb = b.read_lost(pos, attempt);
                    assert!(!la || lb, "loss at p=0.1 missing at p=0.45");
                }
            }
        }
    }

    #[test]
    fn links_are_deterministic_per_request_index() {
        let plan = FaultPlan::gilbert_elliott(
            GilbertElliott {
                p_good_to_bad: 0.2,
                p_bad_to_good: 0.3,
                loss_good: 0.01,
                loss_bad: 0.7,
            },
            123,
        )
        .unwrap();
        for req in [0u64, 1, 99, u64::MAX] {
            let mut a = plan.link(req);
            let mut b = plan.link(req);
            for i in 0..32 {
                assert_eq!(a.read_lost(1, i), b.read_lost(1, i));
            }
            a.doze(5);
            b.doze(5);
            assert_eq!(a.read_lost(2, 0), b.read_lost(2, 0));
        }
    }

    #[test]
    fn retry_budget_bounds_every_request() {
        // A channel that always loses: every request must fail with
        // RetriesExhausted after exactly max_retries failed reads.
        let (t, p) = fig2b();
        let plan = FaultPlan::erasure(1.0, 5).unwrap();
        let policy = RecoveryPolicy {
            max_retries: 6,
            ..RecoveryPolicy::default()
        };
        for &d in t.data_nodes() {
            let out = access_lossy(&p, &t, d, Slot(3), &plan, 0, &policy).unwrap();
            let RequestOutcome::Failed(f) = out else {
                panic!("total loss cannot deliver");
            };
            assert_eq!(f.retries, 6);
            assert_eq!(f.reason, FailReason::RetriesExhausted);
        }
    }

    #[test]
    fn timeout_budget_caps_extra_wait() {
        let (t, p) = fig2b();
        let plan = FaultPlan::erasure(0.9, 11).unwrap();
        let policy = RecoveryPolicy {
            max_retries: 64,
            timeout_slots: 2 * p.cycle_len() as u64,
            ..RecoveryPolicy::default()
        };
        let mut timed_out = 0;
        for req in 0..200u64 {
            let d = t.data_nodes()[req as usize % t.num_data_nodes()];
            match access_lossy(&p, &t, d, Slot(1), &plan, req, &policy).unwrap() {
                RequestOutcome::Delivered(del) => {
                    assert!(del.extra_wait <= policy.timeout_slots);
                }
                RequestOutcome::Failed(f) => {
                    if f.reason == FailReason::TimedOut {
                        timed_out += 1;
                    }
                }
            }
        }
        assert!(timed_out > 0, "p=0.9 with a tight timeout must time out");
    }

    #[test]
    fn probe_retry_only_costs_time_across_the_cycle_boundary() {
        // Force exactly the probe's first read to fail: erasure draws are
        // (pos, attempt)-keyed, so scan for a request index whose link
        // loses (0, 0) but nothing else on the relevant prefix.
        let (t, p) = fig2b();
        let cycle = p.cycle_len() as u32;
        let plan = FaultPlan::erasure(0.25, 77).unwrap();
        let policy = RecoveryPolicy::default();
        let mut checked = 0;
        for req in 0..5000u64 {
            let mut probe_only = plan.link(req);
            let first_lost = probe_only.read_lost(0, 0);
            let second_lost = probe_only.read_lost(0, 1);
            let mut rest_ok = true;
            for pos in 1..=4u32 {
                let mut l = plan.link(req);
                // Skip the probe draws (hash-keyed: independent of order).
                if l.read_lost(pos, 0) {
                    rest_ok = false;
                }
            }
            if !(first_lost && !second_lost && rest_ok) {
                continue;
            }
            checked += 1;
            let d = t.data_nodes()[0];
            // Tune in mid-cycle: one extra probe read stays inside the
            // cycle, so no extra wait.
            let mid = access_lossy(&p, &t, d, Slot(2), &plan, req, &policy).unwrap();
            let del = mid.delivered().expect("delivered");
            assert_eq!(del.retries, 1);
            assert_eq!(del.extra_wait, 0);
            // Tune in at the last slot: the retry wraps into the next
            // cycle and misses a root broadcast → one full cycle of wait.
            let edge = access_lossy(&p, &t, d, Slot(cycle), &plan, req, &policy).unwrap();
            let del = edge.delivered().expect("delivered");
            assert_eq!(del.retries, 1);
            assert_eq!(del.extra_wait, u64::from(cycle));
            if checked >= 3 {
                break;
            }
        }
        assert!(checked > 0, "no request with a probe-only loss found");
    }

    #[test]
    fn integer_thresholds_decide_every_draw_as_the_float_compare_did() {
        // The uniform on `[0, 1)` a draw stands for; `unit(x) < p` is the
        // float compare each threshold must reproduce.
        fn unit(x: u64) -> f64 {
            (x >> 11) as f64 / (1u64 << 53) as f64
        }
        let brownout = bcast_workloads::brownout_channel().burst.unwrap();
        let ge = GilbertElliott {
            p_good_to_bad: brownout.p_good_to_bad,
            p_bad_to_good: brownout.p_bad_to_good,
            loss_good: brownout.loss_good,
            loss_bad: brownout.loss_bad,
        };
        let eps = 1.0 / (1u64 << 53) as f64;
        let subnormal = f64::MIN_POSITIVE / 4.0;
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        let probabilities = [
            0.0,
            eps,
            subnormal,
            0.1,
            0.5,
            1.0 - eps,
            1.0,
            ge.p_good_to_bad,
            ge.p_bad_to_good,
            ge.loss_good,
            ge.loss_bad,
            ge.stationary_bad(),
        ];
        for p in probabilities {
            let t = threshold(p);
            // The draws on either side of the threshold, with the low
            // bits the shift drops both clear and set.
            let below = t.checked_sub(1);
            let at = Some(t).filter(|&t| t < 1 << 53);
            for y in [below, at].into_iter().flatten() {
                for low in [0, 0x7FF] {
                    let x = y << 11 | low;
                    assert_eq!(unit(x) < p, hit(x, t), "p {p:e}, x >> 11 = {y}");
                }
            }
        }
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(eps), 1);
        assert_eq!(threshold(subnormal), 1);
        assert_eq!(threshold(1.0), 1 << 53);
    }

    #[test]
    fn root_retries_wait_the_replica_gaps_they_skip() {
        // A channel that loses every read retries the root until the
        // budget runs out; its extra wait is then the gaps walked, one
        // skip `2^min(f, cap)` at a time, from the first root occurrence.
        let plan = FaultPlan::erasure(1.0, 3).unwrap();
        for replicas in 1..=5u32 {
            for cycle in [1usize, 2, 5, 17] {
                let gaps = root_occurrence_gaps(cycle, replicas);
                let policy = RecoveryPolicy {
                    max_retries: 9,
                    backoff_cap: 2,
                    root_replicas: replicas,
                    ..RecoveryPolicy::default()
                };
                let mut budget = Budget::new(&policy);
                let (mut link, mut idx) = (plan.link(0), 0);
                let err =
                    recover_path_read(1, cycle as u32, &mut link, &mut budget, &gaps, &mut idx)
                        .unwrap_err();
                let mut walked = 0u64;
                let mut expect = 0u64;
                for f in 0..policy.max_retries {
                    for _ in 0..1u64 << f.min(policy.backoff_cap) {
                        expect += gaps[walked as usize % gaps.len()];
                        walked += 1;
                    }
                }
                assert_eq!(err.extra_wait, expect, "replicas {replicas} cycle {cycle}");
                assert_eq!(idx, walked as usize % gaps.len());
                assert!(
                    err.extra_wait <= policy.max_delivered_access(cycle) - (2 * cycle as u64 - 1),
                    "replicas {replicas} cycle {cycle}"
                );
            }
        }
    }

    #[test]
    fn max_delivered_access_sums_the_backoff_in_closed_form() {
        for cap in [0u32, 1, 4, 63] {
            for retries in [0u32, 1, 2, 5, 9, 40] {
                let policy = RecoveryPolicy {
                    max_retries: retries,
                    backoff_cap: cap,
                    root_replicas: 3,
                    ..RecoveryPolicy::default()
                };
                let skips: u128 = (0..retries).map(|f| 1u128 << f.min(cap)).sum();
                let worst = 2 * 10 - 1 + (10 + 3 - 1) * skips;
                let expect = u64::try_from(worst).unwrap_or(u64::MAX);
                assert_eq!(
                    policy.max_delivered_access(10),
                    expect,
                    "cap {cap} retries {retries}"
                );
            }
        }
        // The default policy on a 65,536-item tenant's longest cycle.
        let default = RecoveryPolicy::default();
        assert_eq!(
            default.max_delivered_access(1 << 17),
            (2 << 17) - 1 + (1 << 17) * 79
        );
        assert!(default.fits(1 << 17));
        // Saturating, not wrapping, at the extremes.
        let huge = RecoveryPolicy {
            max_retries: u32::MAX,
            backoff_cap: u32::MAX,
            root_replicas: u32::MAX,
            ..default
        };
        assert_eq!(huge.max_delivered_access(usize::MAX), u64::MAX);
        assert!(!huge.fits(usize::MAX));
        let retries = RecoveryPolicy {
            max_retries: u32::MAX,
            ..default
        };
        assert!(!retries.fits(2));
    }

    #[test]
    fn root_replicas_shrink_root_retry_waits() {
        let gaps1 = root_occurrence_gaps(100, 1);
        let gaps4 = root_occurrence_gaps(100, 4);
        assert_eq!(gaps1, vec![100]);
        assert_eq!(gaps4.len(), 4);
        assert!(gaps4.iter().all(|&g| g < 100));
        // Stretched cycle: 100 + 3 extra root slots.
        assert_eq!(gaps4.iter().sum::<u64>(), 103);
    }

    #[test]
    fn display_and_error_compose() {
        fn takes_error(_: &dyn std::error::Error) {}
        let e = FaultError::BadProbability {
            name: "p",
            value: 2.0,
        };
        takes_error(&e);
        let f = RecoveryFailure {
            retries: 3,
            extra_wait: 40,
            reason: FailReason::TimedOut,
        };
        takes_error(&f);
        assert!(f.to_string().contains("timeout"));
        assert!(e.to_string().contains("outside [0, 1]"));
    }
}
