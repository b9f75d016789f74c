//! One tenant of the serving loop: an index tree, a double-buffered
//! publisher, a demand estimator and a degradation tracker, advanced one
//! time slice at a time.
//!
//! A tenant is a *self-contained* state machine: every random draw it
//! makes (request sampling, tune-in slots, channel faults) derives from
//! its own seed — itself derived only from the service seed and the
//! tenant's stable id — and the global slice counter. Nothing depends on
//! which worker thread runs the tenant or on who its neighbors are, which
//! is what makes scenario runs bit-identical across thread counts and
//! lets the isolation tests demand *exact* equality between a tenant's
//! solo run and its run amid noisy co-tenants.

use crate::checkpoint::{WordReader, WordWriter};
use bcast_adaptive::{DegradationPolicy, DegradationTracker, EmaEstimator};
use bcast_channel::{
    compiled::{CompiledProgram, ServeOptions, ServeSession, SERVE_CHUNK},
    faults::{FaultPlan, GilbertElliott, RecoveryPolicy},
    hist::{HistMark, LatencyHistogram},
    snapshot::{SnapshotError, SnapshotView},
};
use bcast_core::publish::{PublishHeuristic, PublishOptions, Publisher};
use bcast_core::{DeltaLane, DeltaOptions};
use bcast_index_tree::{knary, IndexTree};
use bcast_types::{mix64, NodeId, SloSnapshot, SloSpec, SloViolation, Weight};
use bcast_workloads::{DemandShape, DemandSpec, FaultScenario, TaggedAliasTable};
use std::time::Instant;

/// Mixes two 64-bit values into one seed. [`mix64`] is a one-argument
/// finalizer, so two-value mixing composes it: the golden-ratio multiply
/// separates `(a, b)` from `(a, b + 1)` before the final avalanche.
#[inline]
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Headroom of the per-phase latency accumulator, in cycles of the
/// program on air when the phase began. Rebuilds within a phase change
/// the cycle length slightly; the window clamps only above this bound.
///
/// This is *not* what limits a degraded tenant's p99: the serve kernel
/// clamps each lossy access time at its own 8-cycle bound before it
/// reaches the window, so a brownout tenant's p99 saturates at exactly 8
/// cycles. `SloSpec::degraded(_, 8.0)` budgets the p99 at those same 8
/// cycles, so its p99 check cannot fire (pinned by the test
/// `lossy_p99_saturates_at_the_kernel_clamp`).
/// Raising the kernel's clamp would move every lossy p99, so it is left
/// for a change of its own.
const PHASE_HIST_CYCLES: u32 = 16;

/// First quarantine term after a caught panic, in slices.
const QUARANTINE_BASE_SLICES: u64 = 2;

/// Ceiling of the doubling quarantine backoff, in slices.
const QUARANTINE_MAX_SLICES: u64 = 64;

/// Manifest tag: the tenant's on-air program is still the boot image for
/// its shape — restore resolves it through the manifest's boot-image
/// cache section instead of an embedded copy.
const IMAGE_BOOT_REF: u32 = 0;

/// Manifest tag: the tenant's on-air program follows inline as a
/// self-validating [`SnapshotImage`](bcast_channel::SnapshotImage).
const IMAGE_EMBEDDED: u32 = 1;

/// Quarantine state of a poisoned tenant: a panic during its slice work
/// was caught, and until the backoff elapses the tenant serves from its
/// last-good double-buffered program with every rebuild path suspended.
/// Re-entry doubles the term up to [`QUARANTINE_MAX_SLICES`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quarantine {
    /// First slice index eligible for a readmission probe (a full slice
    /// with rebuilds re-enabled; success clears the quarantine).
    until_slice: u64,
    /// Term (slices) the *next* quarantine entry will serve.
    next_backoff: u64,
}

/// Which republish machinery a tenant's rebuilds run through.
///
/// The delta lane keeps the boot-time index-tree *structure* and only
/// repairs weights, schedule order and routes incrementally
/// ([`bcast_core::delta`]); the full lane re-derives the weight-balanced
/// tree from scratch every rebuild. Both swap the double-buffered program
/// atomically, so downtime is zero either way — the lane trades
/// structural adaptivity for O(changed) rebuild cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RebuildLane {
    /// Rebuild the tree and republish everything (the PR6 behavior; the
    /// default, so existing scenario fingerprints replay unchanged).
    #[default]
    Full,
    /// Diff the estimator's changed weights against the served program
    /// and patch in place when at most `max_touched` of the schedule
    /// moved, falling back to a full publish past the threshold. The
    /// index-tree *structure* stays fixed at its boot shape — only
    /// weights and the allocation adapt (the documented trade of this
    /// lane; tenants whose catalog shape must track demand keep `Full`).
    Delta {
        /// Fallback threshold as a fraction of schedule positions.
        max_touched: f64,
    },
}

/// Static configuration of one tenant.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Stable tenant id — the *only* tenant-specific input to seed
    /// derivation, so a tenant's behavior is independent of roster
    /// position.
    pub id: u64,
    /// Catalog size (data items).
    pub items: usize,
    /// Index-tree fanout.
    pub fanout: usize,
    /// Broadcast channels.
    pub channels: usize,
    /// Allocation heuristic for publishes.
    pub heuristic: PublishHeuristic,
    /// EMA smoothing factor for the demand estimator.
    pub alpha: f64,
    /// Republish every this many slices (`None` = only on degradation).
    pub rebuild_every: Option<u64>,
    /// Minimum relative estimator drift (see
    /// [`EmaEstimator::drift_since_publish`]) for a periodic republish to
    /// actually run; below it the cadence point is recorded as a skipped
    /// rebuild and the served program stays. `None` (the default, and the
    /// historical behavior) republishes unconditionally. Degradation-fired
    /// rebuilds are never gated. Deterministic: drift is a pure function
    /// of the request stream, so skips replay identically at any thread
    /// count.
    pub rebuild_min_drift: Option<f64>,
    /// Degradation-feedback rebuild policy (`None` = disabled).
    pub degradation: Option<DegradationPolicy>,
    /// Client recovery budget under channel faults.
    pub recovery: RecoveryPolicy,
    /// Republish machinery: full rebuilds or the incremental delta lane.
    pub rebuild_lane: RebuildLane,
}

impl TenantConfig {
    /// A tenant with the defaults the canonical scenarios use: fanout-4
    /// tree over 3 channels, sorting heuristic, EMA α = 0.4, periodic
    /// republish every 8 slices plus the default degradation feedback.
    pub fn new(id: u64, items: usize) -> Self {
        TenantConfig {
            id,
            items,
            fanout: 4,
            channels: 3,
            heuristic: PublishHeuristic::Sorting,
            alpha: 0.4,
            rebuild_every: Some(8),
            rebuild_min_drift: None,
            degradation: Some(DegradationPolicy::default()),
            recovery: RecoveryPolicy::default(),
            rebuild_lane: RebuildLane::Full,
        }
    }
}

/// Metrics accumulated over the current observation window (one scenario
/// phase, typically).
#[derive(Debug, Clone)]
struct Window {
    requests: u64,
    delivered: u64,
    failed: u64,
    retries: u64,
    hist: LatencyHistogram,
    max_cycle_len: u32,
    rebuilds: u64,
    degraded_rebuilds: u64,
    downtime_slots: u64,
    delta_rebuilds: u64,
    full_rebuilds: u64,
    /// Schedule positions touched / positions total, summed over the
    /// window's rebuilds (exact integers → deterministic ppm).
    touched_nodes: u64,
    touched_total: u64,
    /// Programs installed from a snapshot image during the window.
    snapshot_loads: u64,
    /// Periodic republish points gated off by `rebuild_min_drift`.
    skipped_rebuilds: u64,
    /// Wall nanoseconds inside rebuilds — side channel, never compared.
    rebuild_wall_ns: u64,
    /// Demand-sampler alias tables rebuilt — cache-miss side channel.
    alias_rebuilds: u64,
    /// Panics caught and turned into quarantine entries.
    quarantined: u64,
    /// Successful readmission probes out of quarantine.
    readmitted: u64,
    /// Requests refused by the overload-shedding admission controller.
    shed: u64,
}

impl Window {
    fn new(hist_bound: u32) -> Self {
        Window {
            requests: 0,
            delivered: 0,
            failed: 0,
            retries: 0,
            hist: LatencyHistogram::with_bound(hist_bound.max(1)),
            max_cycle_len: 0,
            rebuilds: 0,
            degraded_rebuilds: 0,
            downtime_slots: 0,
            delta_rebuilds: 0,
            full_rebuilds: 0,
            touched_nodes: 0,
            touched_total: 0,
            snapshot_loads: 0,
            skipped_rebuilds: 0,
            rebuild_wall_ns: 0,
            alias_rebuilds: 0,
            quarantined: 0,
            readmitted: 0,
            shed: 0,
        }
    }

    fn snapshot(&self) -> SloSnapshot {
        SloSnapshot {
            requests: self.requests,
            delivered: self.delivered,
            failed: self.failed,
            retries: self.retries,
            p99_slots: if self.hist.is_empty() {
                0
            } else {
                self.hist.percentile(0.99)
            },
            mean_access_slots: if self.hist.is_empty() {
                0.0
            } else {
                self.hist.mean()
            },
            max_cycle_len: self.max_cycle_len,
            rebuilds: self.rebuilds,
            degraded_rebuilds: self.degraded_rebuilds,
            rebuild_downtime_slots: self.downtime_slots,
            delta_rebuilds: self.delta_rebuilds,
            full_rebuilds: self.full_rebuilds,
            touched_ppm: (self.touched_nodes * 1_000_000)
                .checked_div(self.touched_total)
                .unwrap_or(0),
            snapshot_loads: self.snapshot_loads,
            skipped_rebuilds: self.skipped_rebuilds,
            rebuild_wall_ns: self.rebuild_wall_ns,
            alias_rebuilds: self.alias_rebuilds,
            quarantined: self.quarantined,
            readmitted: self.readmitted,
            shed_requests: self.shed,
        }
    }
}

/// A live tenant: tree + publisher + estimator + degradation tracker,
/// advanced by [`run_slice`](TenantRuntime::run_slice).
#[derive(Debug)]
pub struct TenantRuntime {
    config: TenantConfig,
    seed: u64,
    tree: IndexTree,
    data_nodes: Vec<NodeId>,
    publisher: Publisher,
    estimator: EmaEstimator,
    degradation: Option<DegradationTracker>,
    // Current-phase script.
    demand: DemandSpec,
    faults: Option<FaultScenario>,
    slo: SloSpec,
    phase_slices: u32,
    slice_in_phase: u32,
    // Lifetime counters.
    slices_run: u64,
    total_requests: u64,
    total_rebuilds: u64,
    /// Snapshot cold-starts not yet attributed to a phase window — the
    /// boot happens before the first `begin_phase`, which moves this
    /// into the fresh window so the join phase reports it.
    pending_snapshot_loads: u64,
    window: Window,
    /// Cached demand sampler with the item→node map fused in (each draw
    /// yields the target [`NodeId`] from the same cache line as the
    /// alias decision). Rebuilt only when the demand *shape* changes
    /// ([`sampler_shape`](Self::sampler_shape) tracks the shape it was
    /// built for) or a full republish remints the node ids the tags bake
    /// in. Within a phase only the request rate interpolates — the pmf
    /// is constant — so steady-state slices skip the O(items) Vose
    /// construction entirely.
    sampler: TaggedAliasTable,
    sampler_shape: Option<DemandShape>,
    /// Scratch pmf for sampler rebuilds (reused capacity).
    pmf: Vec<f64>,
    /// Reused [`SERVE_CHUNK`]-sized staging buffer: sampled targets are
    /// gathered here and fed straight to the chunked serve kernel, so a
    /// slice never materializes its full request vector.
    chunk: Vec<NodeId>,
    /// Reusable streaming-serve state (histogram shard and fault
    /// overlay buffers persist across slices).
    session: ServeSession,
    /// EWMA of recent slice request counts — the deterministic cost
    /// input to the service's load-balanced lane assignment.
    ewma_cost: u64,
    /// Popularity snapshot the next rebuild consumes, patched in place
    /// from the estimator's changed set — rebuilds no longer clone the
    /// full weight vector.
    weights: Vec<Weight>,
    /// Scratch for [`EmaEstimator::drain_changed`] (item-indexed).
    changes: Vec<(u32, Weight)>,
    /// The same changes mapped onto tree data nodes for the delta lane.
    node_changes: Vec<(NodeId, Weight)>,
    /// Panic-quarantine state (`None` = healthy).
    quarantine: Option<Quarantine>,
    /// Admission cap for the *next* slice, set by the service's overload
    /// shedder and consumed by [`run_slice`](Self::run_slice) (`None` =
    /// everything admitted). Transient per-slice state — never part of a
    /// checkpoint.
    admitted_cap: Option<u32>,
    /// Chaos hook: absolute slice indices at which the slice body panics
    /// (deterministic fault injection for the quarantine tests).
    chaos_panic_slices: Vec<u64>,
}

impl TenantRuntime {
    /// Boots a tenant cold: uniform weights, first program published.
    ///
    /// # Panics
    /// Panics if `config.items == 0` or the catalog cannot be scheduled
    /// on `config.channels` channels (the bundled heuristics always
    /// produce feasible allocations for sane configs).
    pub fn new(config: TenantConfig, service_seed: u64) -> Self {
        assert!(config.items > 0, "tenant needs at least one item");
        let seed = mix2(service_seed, config.id);
        let estimator = EmaEstimator::new(config.items, config.alpha);
        let weights = estimator.weights();
        let tree = knary::build_weight_balanced_unlabeled(&weights, config.fanout)
            .expect("uniform weights build a valid tree");
        let mut publisher = Publisher::new();
        publisher
            .publish(
                &tree,
                config.channels,
                config.heuristic,
                PublishOptions::default(),
            )
            .expect("bundled heuristics produce feasible allocations");
        let data_nodes = tree.data_nodes().to_vec();
        let cycle = publisher.current().cycle_len() as u32;
        TenantRuntime {
            seed,
            tree,
            data_nodes,
            publisher,
            estimator,
            degradation: config.degradation.map(DegradationTracker::new),
            demand: DemandSpec::flat(bcast_workloads::DemandShape::Zipf { theta: 0.9 }, 0),
            faults: None,
            slo: SloSpec::default(),
            phase_slices: 0,
            slice_in_phase: 0,
            slices_run: 0,
            total_requests: 0,
            total_rebuilds: 0,
            pending_snapshot_loads: 0,
            window: Window::new(PHASE_HIST_CYCLES * cycle.max(1)),
            sampler: TaggedAliasTable::new(),
            sampler_shape: None,
            pmf: Vec::new(),
            chunk: Vec::with_capacity(SERVE_CHUNK),
            session: ServeSession::new(),
            ewma_cost: 0,
            weights,
            changes: Vec::new(),
            node_changes: Vec::new(),
            quarantine: None,
            admitted_cap: None,
            chaos_panic_slices: Vec::new(),
            config,
        }
    }

    /// Boots a tenant from a validated snapshot image instead of a boot
    /// publish — the microsecond cold-start. The snapshot's program is
    /// installed directly (three memcpys, no heuristic run) and the
    /// item → node map comes from the image's catalog section, so
    /// nothing O(items · log) runs at all.
    ///
    /// A tenant booted from the image of an identical config's boot
    /// publish *serves bit-identically* to a cold [`new`]: every random
    /// draw derives from the tenant seed and slice counter alone, the
    /// adopted program equals the boot publish by snapshot round-trip
    /// exactness, and the estimator starts uniform either way. The only
    /// observable difference is the window's `snapshot_loads` count.
    ///
    /// The boot index tree is *not* reconstructed (that is the cost
    /// being skipped); a one-node stand-in holds its place until the
    /// first rebuild derives a fresh tree from estimator weights, which
    /// is why only [`RebuildLane::Full`] tenants may boot this way —
    /// the delta lane patches against the boot tree's structure.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] if the image's catalog size or channel
    /// count disagrees with `config` — a snapshot never silently serves
    /// the wrong catalog.
    ///
    /// # Panics
    /// Panics if `config.items == 0` or the lane is not `Full`.
    ///
    /// [`new`]: TenantRuntime::new
    pub fn from_snapshot(
        config: TenantConfig,
        service_seed: u64,
        view: &SnapshotView<'_>,
    ) -> Result<Self, SnapshotError> {
        assert!(config.items > 0, "tenant needs at least one item");
        assert!(
            config.rebuild_lane == RebuildLane::Full,
            "snapshot cold-start requires the full rebuild lane"
        );
        if view.num_data() != config.items {
            return Err(SnapshotError::Corrupt(
                "snapshot catalog size does not match the tenant config",
            ));
        }
        if view.channels() != config.channels {
            return Err(SnapshotError::Corrupt(
                "snapshot channel count does not match the tenant config",
            ));
        }
        let seed = mix2(service_seed, config.id);
        let estimator = EmaEstimator::new(config.items, config.alpha);
        let weights = estimator.weights();
        let data_nodes: Vec<NodeId> = view.data_nodes().collect();
        let mut publisher = Publisher::new();
        publisher.adopt_snapshot(view.to_program(), config.channels);
        // Stand-in tree (see the docs above): one leaf, O(1) to build.
        let tree = knary::build_weight_balanced_unlabeled(&weights[..1], config.fanout)
            .expect("a single uniform weight builds a valid tree");
        let cycle = publisher.current().cycle_len() as u32;
        Ok(TenantRuntime {
            seed,
            tree,
            data_nodes,
            publisher,
            estimator,
            degradation: config.degradation.map(DegradationTracker::new),
            demand: DemandSpec::flat(bcast_workloads::DemandShape::Zipf { theta: 0.9 }, 0),
            faults: None,
            slo: SloSpec::default(),
            phase_slices: 0,
            slice_in_phase: 0,
            slices_run: 0,
            total_requests: 0,
            total_rebuilds: 0,
            pending_snapshot_loads: 1,
            window: Window::new(PHASE_HIST_CYCLES * cycle.max(1)),
            sampler: TaggedAliasTable::new(),
            sampler_shape: None,
            pmf: Vec::new(),
            chunk: Vec::with_capacity(SERVE_CHUNK),
            session: ServeSession::new(),
            ewma_cost: 0,
            weights,
            changes: Vec::new(),
            node_changes: Vec::new(),
            quarantine: None,
            admitted_cap: None,
            chaos_panic_slices: Vec::new(),
            config,
        })
    }

    /// Captures the tenant's *boot* program into a snapshot image — the
    /// persistence half of the cold-start path. Only meaningful before
    /// the first rebuild (the service's boot-image cache calls it right
    /// after [`new`](TenantRuntime::new)); after a rebuild the tree and
    /// program have moved on together and the image would simply record
    /// the newer epoch.
    pub fn snapshot_image(&self) -> bcast_channel::SnapshotImage {
        self.publisher.snapshot_image(&self.tree)
    }

    /// Stable tenant id.
    pub fn id(&self) -> u64 {
        self.config.id
    }

    /// The tenant's configuration.
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// Cycle length (slots) of the program currently on air.
    pub fn cycle_len(&self) -> u32 {
        self.publisher.current().cycle_len() as u32
    }

    /// Lifetime requests offered to this tenant.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Lifetime programs published (boot publish excluded).
    pub fn total_rebuilds(&self) -> u64 {
        self.total_rebuilds
    }

    /// The SLO the current phase holds this tenant to.
    pub fn slo(&self) -> SloSpec {
        self.slo
    }

    /// Starts a new observation window with a new script: demand shape,
    /// channel condition and SLO for the next `slices` slices. Resets the
    /// window accumulator; estimator, tree and degradation state carry
    /// over (a tenant's demand history does not reset at phase
    /// boundaries).
    pub fn begin_phase(
        &mut self,
        demand: DemandSpec,
        faults: Option<FaultScenario>,
        slo: SloSpec,
        slices: u32,
    ) {
        self.demand = demand;
        self.faults = faults;
        self.slo = slo;
        self.phase_slices = slices;
        self.slice_in_phase = 0;
        self.window = Window::new(PHASE_HIST_CYCLES * self.cycle_len().max(1));
        self.window.snapshot_loads = std::mem::take(&mut self.pending_snapshot_loads);
    }

    /// Clears the degradation tracker's transient hysteresis/cooldown
    /// state (e.g. after an operator re-provisions the tenant's channel),
    /// keeping its lifetime rebuild count.
    pub fn reset_channel_state(&mut self) {
        if let Some(t) = &mut self.degradation {
            t.reset();
        }
    }

    /// Advances the tenant by one time slice: sample the slice's
    /// requests from the scripted demand, serve them against the program
    /// on air, feed the estimator, then run the between-slice control
    /// actions (degradation feedback, periodic republish). Both rebuild
    /// paths go through the double-buffered publisher swap, so requests
    /// are never held while a program compiles — the downtime counter
    /// stays at zero and the SLO check proves it.
    ///
    /// The steady-state slice is allocation-free: the alias sampler is
    /// cached across slices (rebuilt only on a demand-shape change),
    /// sampled targets stream through a reused [`SERVE_CHUNK`]-sized
    /// buffer straight into the chunked serve kernel, and the kernel
    /// records access times straight into the phase window's histogram,
    /// so serving does no per-slice work that scales with the cycle
    /// length. Sampling draws, tune-in slots and fault links are all
    /// keyed by the slice seed and the global request index, so the
    /// streamed slice is bit-identical to the original
    /// build-a-batch-then-serve form.
    ///
    /// The whole slice runs under `catch_unwind`: a panic anywhere in
    /// the tenant's work — serving, estimator feedback, a republish — is
    /// caught *here*, inside the tenant, so it can never poison a worker
    /// lane or perturb a neighbor. The panicking tenant enters
    /// quarantine: it keeps serving from its last-good double-buffered
    /// program with every rebuild path suspended, and after an
    /// exponential backoff (`QUARANTINE_BASE_SLICES` slices, doubling
    /// to `QUARANTINE_MAX_SLICES`) a probe slice with rebuilds
    /// re-enabled decides readmission. Both transitions are counted in
    /// the window ([`SloSnapshot::quarantined`] /
    /// [`SloSnapshot::readmitted`]) and — panics being deterministic
    /// under the chaos hooks — participate in replay equality.
    pub fn run_slice(&mut self) {
        let parked = self
            .quarantine
            .is_some_and(|q| self.slices_run < q.until_slice);
        let body =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.slice_body(parked)));
        match body {
            Ok(()) => {
                if !parked && self.quarantine.take().is_some() {
                    self.window.readmitted += 1;
                }
            }
            Err(payload) => {
                drop(payload);
                self.window.quarantined += 1;
                let term = self
                    .quarantine
                    .map_or(QUARANTINE_BASE_SLICES, |q| q.next_backoff);
                self.quarantine = Some(Quarantine {
                    until_slice: self.slices_run + term,
                    next_backoff: (term * 2).min(QUARANTINE_MAX_SLICES),
                });
            }
        }
    }

    /// The actual slice work (see [`run_slice`](Self::run_slice), which
    /// wraps it in the panic boundary). `parked` suspends both rebuild
    /// paths — the quarantined tenant serves from the program already on
    /// air and its degradation tracker is frozen.
    fn slice_body(&mut self, parked: bool) {
        let rate = self
            .demand
            .rate_at(self.slice_in_phase, self.phase_slices.max(1));
        let slice_seed = mix2(self.seed, self.slices_run);
        self.slice_in_phase = (self.slice_in_phase + 1).min(self.phase_slices.saturating_sub(1));
        self.slices_run += 1;
        // Cost hint for the service's lane assignment: an EWMA over
        // slice request counts, updated before the slice runs so the
        // scheduler could have used this very value. Pure integer
        // arithmetic on deterministic inputs. Scripted demand — not the
        // admitted share — drives the hint: a shed tenant still costs
        // its sampling draws.
        self.ewma_cost = (3 * self.ewma_cost + u64::from(rate)).div_ceil(4);
        // The service's admission cap is consumed whether or not the
        // slice completes, so a stale cap can never leak into a later
        // slice.
        let admitted = match self.admitted_cap.take() {
            Some(cap) => rate.min(cap),
            None => rate,
        };
        let shed = rate - admitted;
        if self.chaos_panic_slices.contains(&(self.slices_run - 1)) {
            panic!(
                "chaos poison: injected panic at slice {}",
                self.slices_run - 1
            );
        }

        if rate > 0 {
            // The demand *shape* is constant within a phase (only the
            // request rate interpolates slice to slice), so the Vose
            // construction runs once per shape change, not once per
            // slice — plus once after any full republish, which remints
            // the node ids the table's tags bake in. Same pmf → byte-
            // identical table → identical draws.
            if self.sampler_shape != Some(self.demand.shape) {
                self.demand.shape.pmf_into(self.config.items, &mut self.pmf);
                let data_nodes = &self.data_nodes;
                self.sampler.rebuild(&self.pmf, |i| data_nodes[i].0);
                self.sampler_shape = Some(self.demand.shape);
                self.window.alias_rebuilds += 1;
            }
            let mut state = mix2(slice_seed, 1);

            // Serve against the program on air. `current()` is always
            // servable — the publisher swaps buffers atomically between
            // slices — so the downtime branch is unreachable by
            // construction; the counter exists to *prove* that to the SLO
            // check rather than assume it.
            let program = self.publisher.current();
            if program.num_data_nodes() == 0 {
                // Demand still arrives during downtime: the estimator
                // sees what was *requested*, exactly as when serving.
                for _ in 0..rate {
                    let (item, _) = self.sampler.sample(&mut state);
                    self.estimator.observe(item as usize);
                }
                self.window.downtime_slots += 1;
            } else {
                if admitted > 0 {
                    let opts = ServeOptions {
                        threads: 1,
                        seed: mix2(slice_seed, 2),
                        faults: fault_plan(self.faults.as_ref(), mix2(slice_seed, 3)),
                        recovery: self.config.recovery,
                    };
                    program.begin_session(&mut self.session, &opts);
                    // Restore point should a chunk be refused midway: the
                    // slice then panics, and must leave the window exactly
                    // as it found it.
                    let (mark, first_draw) = (self.window.hist.mark(), state);
                    let mut remaining = admitted as usize;
                    while remaining > 0 {
                        let n = remaining.min(SERVE_CHUNK);
                        self.chunk.clear();
                        for _ in 0..n {
                            // One fused draw: the item for the estimator
                            // and its serving node from the same cache
                            // line.
                            let (item, node) = self.sampler.sample(&mut state);
                            // The estimator sees what was *requested*
                            // (demand, not delivery — channel loss must
                            // not starve the allocator's view of
                            // popularity).
                            self.estimator.observe(item as usize);
                            self.chunk.push(NodeId(node));
                        }
                        let served = program.serve_chunk_into(
                            &mut self.session,
                            &self.chunk,
                            &mut self.window.hist,
                        );
                        if let Err(e) = served {
                            let fed = admitted as usize - remaining + n;
                            let window = &mut self.window.hist;
                            take_back(program, &self.sampler, first_draw, fed, &opts, window, mark);
                            panic!("targets are data nodes of the published tree: {e:?}");
                        }
                        remaining -= n;
                    }
                }
                // The shed tail continues the same sampler state stream:
                // refused requests are still demand, so the estimator
                // observes them and the window counts them as offered —
                // shedding shows up as a delivery-rate drop on the shed
                // tenant, never as vanished load.
                for _ in 0..shed {
                    let (item, _) = self.sampler.sample(&mut state);
                    self.estimator.observe(item as usize);
                }
                if shed > 0 {
                    self.window.requests += u64::from(shed);
                    self.window.shed += u64::from(shed);
                    self.total_requests += u64::from(shed);
                }
                if admitted > 0 {
                    self.absorb_session();

                    // Degradation feedback reacts to this slice's
                    // delivery; a parked (quarantined) tenant's tracker
                    // is frozen along with its rebuilds.
                    let rate_served = self.session.delivery_rate();
                    let fire = !parked
                        && self
                            .degradation
                            .as_mut()
                            .is_some_and(|t| t.observe(rate_served));
                    if fire {
                        self.rebuild();
                        self.window.degraded_rebuilds += 1;
                    }
                }
            }
        }

        self.estimator.roll_epoch();
        if parked {
            // Quarantine suspends the periodic republish path too: the
            // last-good program stays on air until readmission.
            return;
        }
        if let Some(every) = self.config.rebuild_every {
            if every > 0 && self.slices_run.is_multiple_of(every) {
                // Drift gate: a converged stream makes the cadence
                // republish a no-op — skip it and keep serving the
                // program already on air. Degradation-fired rebuilds
                // (above) bypass this on purpose.
                let quiet = self
                    .config
                    .rebuild_min_drift
                    .is_some_and(|floor| self.estimator.drift_since_publish() < floor);
                if quiet {
                    self.window.skipped_rebuilds += 1;
                } else {
                    self.rebuild();
                }
            }
        }
    }

    /// Deterministic per-slice cost estimate for the service's
    /// load-balanced lane assignment (larger = more expensive). Derived
    /// only from the tenant's own scripted request rates, so schedules
    /// built from it are identical on every run and thread count. Never
    /// zero: even an idle tenant costs a slice call.
    #[inline]
    pub fn cost_hint(&self) -> u64 {
        self.ewma_cost.max(1)
    }

    /// The scripted request rate of the tenant's *next* slice — the
    /// deterministic input the service's overload shedder water-fills
    /// over before dispatching the slice.
    pub fn next_rate(&self) -> u32 {
        self.demand
            .rate_at(self.slice_in_phase, self.phase_slices.max(1))
    }

    /// Caps the next slice's admitted requests (the overload shedder's
    /// verdict; `None` admits everything). Consumed by the next
    /// [`run_slice`](Self::run_slice) — the cap never outlives one slice.
    pub fn set_admitted_cap(&mut self, cap: Option<u32>) {
        self.admitted_cap = cap;
    }

    /// Whether the tenant is currently quarantined (serving from its
    /// last-good program with rebuilds suspended).
    pub fn is_quarantined(&self) -> bool {
        self.quarantine.is_some()
    }

    /// Chaos hook: make the slice body panic at absolute slice index
    /// `slice` (the tenant's `slices_run` value when the slice starts).
    /// Deterministic by construction — the quarantine tests script exact
    /// poison points with it. Always compiled: the hook is a `Vec`
    /// lookup on the slice path, free when unused.
    pub fn inject_panic_at_slice(&mut self, slice: u64) {
        self.chaos_panic_slices.push(slice);
    }

    /// Chaos hook: panic `slices_from_now` slices into the future (0 =
    /// the very next slice). The scenario interpreter arms phase-scripted
    /// poison points through this.
    pub fn inject_panic_after(&mut self, slices_from_now: u64) {
        let at = self.slices_run + slices_from_now;
        self.chaos_panic_slices.push(at);
    }

    /// The window accumulated so far, as plain data.
    pub fn phase_snapshot(&self) -> SloSnapshot {
        self.window.snapshot()
    }

    /// Checks the accumulated window against the phase's SLO.
    pub fn phase_violations(&self) -> Vec<SloViolation> {
        self.window.snapshot().check(&self.slo)
    }

    /// Folds the finished slice's session counters into the window — the
    /// streaming counterpart of the old `BatchMetrics` absorb, with no
    /// intermediate metrics struct. The access times are already in the
    /// window's histogram: the kernel recorded them there.
    fn absorb_session(&mut self) {
        self.window.requests += self.session.requests();
        self.window.delivered += self.session.delivered();
        self.window.failed += self.session.failed();
        self.window.retries += self.session.retries();
        self.window.max_cycle_len = self.window.max_cycle_len.max(self.cycle_len());
        self.total_requests += self.session.requests();
    }

    /// Republishes from the estimator's current weights through the
    /// double-buffered swap: the old program serves until the new one is
    /// compiled, then `current()` flips. The configured [`RebuildLane`]
    /// picks the machinery — a full tree rebuild + publish, or the
    /// incremental delta lane patching the served schedule in place —
    /// and the window's lane counters and wall-clock side channel record
    /// which path ran and how much of the schedule it touched.
    fn rebuild(&mut self) {
        let started = Instant::now();
        // O(changed) estimator handoff, shared by both lanes: the
        // persistent snapshot absorbs only the weights that moved.
        self.changes.clear();
        self.estimator.drain_changed(&mut self.changes);
        for &(i, w) in &self.changes {
            self.weights[i as usize] = w;
        }
        match self.config.rebuild_lane {
            RebuildLane::Full => {
                let tree =
                    knary::build_weight_balanced_unlabeled(&self.weights, self.config.fanout)
                        .expect("estimator weights are positive");
                self.publisher
                    .publish(
                        &tree,
                        self.config.channels,
                        self.config.heuristic,
                        PublishOptions::default(),
                    )
                    .expect("bundled heuristics produce feasible allocations");
                self.data_nodes.clear();
                self.data_nodes.extend_from_slice(tree.data_nodes());
                self.tree = tree;
                // The sampler's tags bake in the item→node map this
                // rebuild just reminted — invalidate so the next serving
                // slice re-tags (the delta lane keeps node ids stable
                // and skips this).
                self.sampler_shape = None;
                self.window.full_rebuilds += 1;
                let total = self.tree.len() as u64;
                self.window.touched_nodes += total;
                self.window.touched_total += total;
            }
            RebuildLane::Delta { max_touched } => {
                // Structure stays at its boot shape: only weights move,
                // so `data_nodes` keeps mapping item i → leaf i.
                self.node_changes.clear();
                self.node_changes.extend(
                    self.changes
                        .iter()
                        .map(|&(i, w)| (self.data_nodes[i as usize], w)),
                );
                self.tree.reweight(&self.node_changes);
                let report = self
                    .publisher
                    .republish_delta(
                        &self.tree,
                        &self.node_changes,
                        self.config.channels,
                        self.config.heuristic,
                        PublishOptions::default(),
                        DeltaOptions { max_touched },
                    )
                    .expect("bundled heuristics produce feasible allocations");
                match report.lane {
                    DeltaLane::Patched => self.window.delta_rebuilds += 1,
                    DeltaLane::Full(_) => self.window.full_rebuilds += 1,
                }
                self.window.touched_nodes += report.touched as u64;
                self.window.touched_total += report.total as u64;
            }
        }
        self.window.rebuilds += 1;
        self.window.max_cycle_len = self.window.max_cycle_len.max(self.cycle_len());
        self.total_rebuilds += 1;
        self.window.rebuild_wall_ns += started.elapsed().as_nanos() as u64;
    }

    /// Serializes the tenant's complete mutable state into the
    /// checkpoint word stream: config, phase script, lifetime counters,
    /// the full window (histogram included), estimator and degradation
    /// trajectories, quarantine state, armed chaos points, the weight
    /// snapshot and the program on air (as a CRC-sealed
    /// [`SnapshotImage`](bcast_channel::SnapshotImage)). The admission
    /// cap is deliberately absent — it is per-slice transient state the
    /// service re-derives after a restore — and so are the sampler and
    /// session scratch, which the first restored slice rebuilds
    /// deterministically (only the equality-excluded `alias_rebuilds`
    /// side channel can tell).
    ///
    /// `boot` is the service's cached boot image for this tenant's shape
    /// (if any): when the program on air is still bit-identical to it —
    /// every tenant that has not rebuilt since boot — the manifest
    /// stores a one-word reference instead of re-embedding the
    /// multi-megabyte image. At snapshot scale that reference is the
    /// difference between a manifest dominated by `n_tenants` identical
    /// program images and one that carries the image once, in the cache
    /// section.
    pub(crate) fn export_state(
        &self,
        w: &mut WordWriter,
        boot: Option<&bcast_channel::SnapshotImage>,
    ) {
        let c = &self.config;
        w.u64(c.id);
        w.u64(c.items as u64);
        w.u64(c.fanout as u64);
        w.u64(c.channels as u64);
        match c.heuristic {
            PublishHeuristic::Sorting => w.u32(0),
            PublishHeuristic::Frontier => w.u32(1),
            PublishHeuristic::Shrink { max_nodes } => {
                w.u32(2);
                w.u64(max_nodes as u64);
            }
            PublishHeuristic::Preorder => w.u32(3),
        }
        w.f64(c.alpha);
        w.opt_u64(c.rebuild_every);
        w.opt_f64(c.rebuild_min_drift);
        match &c.degradation {
            None => w.u32(0),
            Some(p) => {
                w.u32(1);
                w.f64(p.min_delivery_rate);
                w.f64(p.recovered_rate);
                w.u32(p.sustain_epochs);
                w.u64(p.cooldown_epochs);
                w.u64(p.max_cooldown_epochs);
            }
        }
        w.u32(c.recovery.max_retries);
        w.u64(c.recovery.timeout_slots);
        w.u32(c.recovery.backoff_cap);
        w.u32(c.recovery.root_replicas);
        match c.rebuild_lane {
            RebuildLane::Full => w.u32(0),
            RebuildLane::Delta { max_touched } => {
                w.u32(1);
                w.f64(max_touched);
            }
        }

        // Phase script. The fault scenario's `&'static str` name cannot
        // round-trip; it never reaches serving, so restore substitutes a
        // literal (outcome-neutral by construction).
        match self.demand.shape {
            DemandShape::Zipf { theta } => {
                w.u32(0);
                w.f64(theta);
            }
            DemandShape::HotSet {
                hot_items,
                hot_mass,
                offset,
            } => {
                w.u32(1);
                w.u64(hot_items as u64);
                w.f64(hot_mass);
                w.u64(offset as u64);
            }
        }
        w.u32(self.demand.start_rate);
        w.u32(self.demand.end_rate);
        match &self.faults {
            None => w.u32(0),
            Some(f) => {
                w.u32(1);
                w.f64(f.erasure_p);
                match &f.burst {
                    None => w.u32(0),
                    Some(b) => {
                        w.u32(1);
                        w.f64(b.p_good_to_bad);
                        w.f64(b.p_bad_to_good);
                        w.f64(b.loss_good);
                        w.f64(b.loss_bad);
                    }
                }
            }
        }
        w.f64(self.slo.min_delivery_rate);
        w.f64(self.slo.max_p99_cycles);
        w.u64(self.slo.max_rebuild_downtime_slots);
        w.u32(self.phase_slices);
        w.u32(self.slice_in_phase);

        // Lifetime counters and the scheduler's cost EWMA.
        w.u64(self.slices_run);
        w.u64(self.total_requests);
        w.u64(self.total_rebuilds);
        w.u64(self.pending_snapshot_loads);
        w.u64(self.ewma_cost);

        // Quarantine and armed chaos points (a pending poison must
        // survive a checkpoint, or the restored run would diverge from
        // the uninterrupted one).
        match &self.quarantine {
            None => w.u32(0),
            Some(q) => {
                w.u32(1);
                w.u64(q.until_slice);
                w.u64(q.next_backoff);
            }
        }
        w.u64_slice(&self.chaos_panic_slices);

        // The window, histogram included.
        let win = &self.window;
        w.u64(win.requests);
        w.u64(win.delivered);
        w.u64(win.failed);
        w.u64(win.retries);
        let mut scratch = Vec::new();
        win.hist.export_state(&mut scratch);
        w.u64_slice(&scratch);
        w.u32(win.max_cycle_len);
        for x in [
            win.rebuilds,
            win.degraded_rebuilds,
            win.downtime_slots,
            win.delta_rebuilds,
            win.full_rebuilds,
            win.touched_nodes,
            win.touched_total,
            win.snapshot_loads,
            win.skipped_rebuilds,
            win.rebuild_wall_ns,
            win.alias_rebuilds,
            win.quarantined,
            win.readmitted,
            win.shed,
        ] {
            w.u64(x);
        }

        // Adaptive state: estimator trajectory, tracker hysteresis.
        scratch.clear();
        self.estimator.export_state(&mut scratch);
        w.u64_slice(&scratch);
        match &self.degradation {
            None => w.u32(0),
            Some(t) => {
                w.u32(1);
                scratch.clear();
                t.export_state(&mut scratch);
                w.u64_slice(&scratch);
            }
        }

        // The weight snapshot rebuilds consume, bit for bit.
        scratch.clear();
        scratch.extend(self.weights.iter().map(|wt| wt.get().to_bits()));
        w.u64_slice(&scratch);

        // The demand sampler, when one is live: the fused alias columns
        // themselves, not the pmf they were built from. Both derive
        // deterministically from the demand shape, but the columns are
        // the finished product — a restored tenant copies them straight
        // back and samples immediately, skipping both the pmf
        // derivation (a `powf` per item for Zipf) and the Vose
        // construction on its first slice.
        match self.sampler_shape {
            Some(shape) if self.sampler.len() == c.items => {
                w.u32(1);
                match shape {
                    DemandShape::Zipf { theta } => {
                        w.u32(0);
                        w.f64(theta);
                    }
                    DemandShape::HotSet {
                        hot_items,
                        hot_mass,
                        offset,
                    } => {
                        w.u32(1);
                        w.u64(hot_items as u64);
                        w.f64(hot_mass);
                        w.u64(offset as u64);
                    }
                }
                let mut cols = Vec::new();
                self.sampler.export_columns(&mut cols);
                w.u32_slice(&cols);
            }
            _ => w.u32(0),
        }

        // The program on air: a reference into the boot-image cache when
        // it is still the boot program, a self-validating embedded
        // snapshot image otherwise.
        let image = bcast_channel::SnapshotImage::capture(
            self.publisher.current(),
            c.channels,
            &self.data_nodes,
        );
        match boot {
            Some(b) if b.words() == image.words() => w.u32(IMAGE_BOOT_REF),
            _ => {
                w.u32(IMAGE_EMBEDDED);
                w.u32_slice(image.words());
            }
        }
    }

    /// Rebuilds a tenant from [`export_state`](Self::export_state)'s
    /// words. Fails closed (`None`) on any truncation, range violation
    /// or image corruption — a checkpoint never restores approximately.
    ///
    /// Mirrors [`from_snapshot`](Self::from_snapshot): the boot index
    /// tree is a one-leaf stand-in until the next full rebuild derives
    /// the real one from the restored weights, so only
    /// [`RebuildLane::Full`] tenants restore this way.
    /// `cache` is the already-restored boot-image section of the same
    /// manifest, each image pre-decoded to its program once by the
    /// service: a by-reference program record clones the shared decode
    /// (and fails closed if the shape's image is absent).
    pub(crate) fn import_state(
        service_seed: u64,
        r: &mut WordReader<'_>,
        cache: &[(crate::service::BootKey, crate::service::CachedProgram)],
    ) -> Option<TenantRuntime> {
        let id = r.u64()?;
        let items = usize::try_from(r.u64()?).ok()?;
        let fanout = usize::try_from(r.u64()?).ok()?;
        let channels = usize::try_from(r.u64()?).ok()?;
        if items == 0 || fanout < 2 || channels == 0 {
            return None;
        }
        let heuristic = match r.u32()? {
            0 => PublishHeuristic::Sorting,
            1 => PublishHeuristic::Frontier,
            2 => PublishHeuristic::Shrink {
                max_nodes: usize::try_from(r.u64()?).ok()?,
            },
            3 => PublishHeuristic::Preorder,
            _ => return None,
        };
        let alpha = r.f64()?;
        let rebuild_every = r.opt_u64()?;
        let rebuild_min_drift = r.opt_f64()?;
        let degradation = match r.u32()? {
            0 => None,
            1 => Some(DegradationPolicy {
                min_delivery_rate: r.f64()?,
                recovered_rate: r.f64()?,
                sustain_epochs: r.u32()?,
                cooldown_epochs: r.u64()?,
                max_cooldown_epochs: r.u64()?,
            }),
            _ => return None,
        };
        let recovery = RecoveryPolicy {
            max_retries: r.u32()?,
            timeout_slots: r.u64()?,
            backoff_cap: r.u32()?,
            root_replicas: r.u32()?,
        };
        let rebuild_lane = match r.u32()? {
            0 => RebuildLane::Full,
            1 => RebuildLane::Delta {
                max_touched: r.f64()?,
            },
            _ => return None,
        };
        if rebuild_lane != RebuildLane::Full {
            // The delta lane patches against the live boot tree, which a
            // checkpoint does not carry (documented restore limit).
            return None;
        }
        let config = TenantConfig {
            id,
            items,
            fanout,
            channels,
            heuristic,
            alpha,
            rebuild_every,
            rebuild_min_drift,
            degradation,
            recovery,
            rebuild_lane,
        };

        let shape = match r.u32()? {
            0 => DemandShape::Zipf { theta: r.f64()? },
            1 => DemandShape::HotSet {
                hot_items: usize::try_from(r.u64()?).ok()?,
                hot_mass: r.f64()?,
                offset: usize::try_from(r.u64()?).ok()?,
            },
            _ => return None,
        };
        let demand = DemandSpec {
            shape,
            start_rate: r.u32()?,
            end_rate: r.u32()?,
        };
        let faults = match r.u32()? {
            0 => None,
            1 => {
                let erasure_p = r.f64()?;
                let burst = match r.u32()? {
                    0 => None,
                    1 => Some(bcast_workloads::BurstProfile {
                        p_good_to_bad: r.f64()?,
                        p_bad_to_good: r.f64()?,
                        loss_good: r.f64()?,
                        loss_bad: r.f64()?,
                    }),
                    _ => return None,
                };
                Some(FaultScenario {
                    name: "restored",
                    erasure_p,
                    burst,
                })
            }
            _ => return None,
        };
        let slo = SloSpec {
            min_delivery_rate: r.f64()?,
            max_p99_cycles: r.f64()?,
            max_rebuild_downtime_slots: r.u64()?,
        };
        let phase_slices = r.u32()?;
        let slice_in_phase = r.u32()?;

        let slices_run = r.u64()?;
        let total_requests = r.u64()?;
        let total_rebuilds = r.u64()?;
        let pending_snapshot_loads = r.u64()?;
        let ewma_cost = r.u64()?;

        let quarantine = match r.u32()? {
            0 => None,
            1 => Some(Quarantine {
                until_slice: r.u64()?,
                next_backoff: r.u64()?,
            }),
            _ => return None,
        };
        let chaos_panic_slices = r.u64_vec()?;

        let requests = r.u64()?;
        let delivered = r.u64()?;
        let failed = r.u64()?;
        let retries = r.u64()?;
        let hist_words = r.u64_vec()?;
        let mut cur = &hist_words[..];
        let hist = LatencyHistogram::import_state(&mut cur)?;
        if !cur.is_empty() {
            return None;
        }
        let max_cycle_len = r.u32()?;
        let mut tail = [0u64; 14];
        for slot in &mut tail {
            *slot = r.u64()?;
        }
        let window = Window {
            requests,
            delivered,
            failed,
            retries,
            hist,
            max_cycle_len,
            rebuilds: tail[0],
            degraded_rebuilds: tail[1],
            downtime_slots: tail[2],
            delta_rebuilds: tail[3],
            full_rebuilds: tail[4],
            touched_nodes: tail[5],
            touched_total: tail[6],
            snapshot_loads: tail[7],
            skipped_rebuilds: tail[8],
            rebuild_wall_ns: tail[9],
            alias_rebuilds: tail[10],
            quarantined: tail[11],
            readmitted: tail[12],
            shed: tail[13],
        };

        let est_words = r.u64_vec()?;
        let mut cur = &est_words[..];
        let estimator = EmaEstimator::import_state(&mut cur)?;
        if !cur.is_empty() || estimator.len() != items {
            return None;
        }
        let degradation = match (r.u32()?, config.degradation) {
            (0, None) => None,
            (1, Some(policy)) => {
                let words = r.u64_vec()?;
                let mut cur = &words[..];
                let tracker = DegradationTracker::import_state(policy, &mut cur)?;
                if !cur.is_empty() {
                    return None;
                }
                Some(tracker)
            }
            _ => return None,
        };

        let weight_bits = r.u64_vec()?;
        if weight_bits.len() != items {
            return None;
        }
        let weights = weight_bits
            .iter()
            .map(|&b| Weight::new(f64::from_bits(b)).ok())
            .collect::<Option<Vec<_>>>()?;

        // The live sampler, if the checkpoint carried one: the fused
        // alias columns restore by straight copy (structurally validated
        // — word count, alias ranges, item count — so a malformed
        // manifest fails closed).
        let sampler_state = match r.u32()? {
            0 => None,
            1 => {
                let shape = match r.u32()? {
                    0 => DemandShape::Zipf { theta: r.f64()? },
                    1 => DemandShape::HotSet {
                        hot_items: usize::try_from(r.u64()?).ok()?,
                        hot_mass: r.f64()?,
                        offset: usize::try_from(r.u64()?).ok()?,
                    },
                    _ => return None,
                };
                let table = TaggedAliasTable::import_columns(&r.u32_vec()?)?;
                if table.len() != items {
                    return None;
                }
                Some((shape, table))
            }
            _ => return None,
        };

        // The program on air: a boot-cache reference clones the decode
        // the service already shares across every tenant of this shape;
        // an embedded image decodes here. Either way the program must
        // match the config it claims to serve.
        let (publisher, data_nodes) = match r.u32()? {
            IMAGE_BOOT_REF => {
                let key = crate::service::boot_key(&config);
                let cached = &cache.iter().find(|(k, _)| *k == key)?.1;
                if cached.data_nodes.len() != items || cached.channels != channels {
                    return None;
                }
                let mut publisher = Publisher::new();
                publisher.adopt_snapshot(cached.program.clone(), channels);
                (publisher, cached.data_nodes.clone())
            }
            IMAGE_EMBEDDED => {
                let image = bcast_channel::SnapshotImage::from_words(r.u32_vec()?);
                let view = image.view().ok()?;
                if view.num_data() != items || view.channels() != channels {
                    return None;
                }
                let data_nodes: Vec<NodeId> = view.data_nodes().collect();
                let mut publisher = Publisher::new();
                publisher.adopt_snapshot(view.to_program(), channels);
                (publisher, data_nodes)
            }
            _ => return None,
        };
        // Stand-in tree, exactly like `from_snapshot`: one leaf, O(1),
        // replaced by the next full rebuild from the restored weights.
        let tree = knary::build_weight_balanced_unlabeled(&weights[..1], fanout).ok()?;
        let mut sampler = TaggedAliasTable::new();
        let mut sampler_shape = None;
        if let Some((shape, table)) = sampler_state {
            sampler = table;
            sampler_shape = Some(shape);
        }

        Some(TenantRuntime {
            seed: mix2(service_seed, id),
            tree,
            data_nodes,
            publisher,
            estimator,
            degradation,
            demand,
            faults,
            slo,
            phase_slices,
            slice_in_phase,
            slices_run,
            total_requests,
            total_rebuilds,
            pending_snapshot_loads,
            window,
            sampler,
            sampler_shape,
            pmf: Vec::new(),
            chunk: Vec::with_capacity(SERVE_CHUNK),
            session: ServeSession::new(),
            ewma_cost,
            weights,
            changes: Vec::new(),
            node_changes: Vec::new(),
            quarantine,
            admitted_cap: None,
            chaos_panic_slices,
            config,
        })
    }
}

/// Takes a refused slice's access times back out of the window it
/// recorded them into, returning the window to `mark`. The slice's first
/// `fed` requests (the refused chunk included) are replayed from the
/// sampler state `state` through a scratch session: draws, tune-ins and
/// fault links depend only on that state and the request index, and the
/// refused chunk records the same prefix again before it is refused, so
/// the replayed histogram holds exactly what the slice recorded. Cold:
/// it runs only on the way to a panic.
#[cold]
fn take_back(
    program: &CompiledProgram,
    sampler: &TaggedAliasTable,
    mut state: u64,
    fed: usize,
    opts: &ServeOptions,
    window: &mut LatencyHistogram,
    mark: HistMark,
) {
    let mut session = ServeSession::new();
    program.begin_session(&mut session, opts);
    let mut chunk = Vec::with_capacity(SERVE_CHUNK);
    let mut remaining = fed;
    while remaining > 0 {
        let n = remaining.min(SERVE_CHUNK);
        chunk.clear();
        chunk.extend((0..n).map(|_| NodeId(sampler.sample(&mut state).1)));
        if program.serve_chunk(&mut session, &chunk).is_err() {
            break;
        }
        remaining -= n;
    }
    window.rollback(mark, session.histogram());
}

/// Interprets a workload-crate [`FaultScenario`] (plain numbers) as a
/// channel-crate [`FaultPlan`] seeded for one slice.
fn fault_plan(scenario: Option<&FaultScenario>, seed: u64) -> FaultPlan {
    match scenario {
        None => FaultPlan::none(),
        Some(s) => match s.burst {
            Some(b) => FaultPlan::gilbert_elliott(
                GilbertElliott {
                    p_good_to_bad: b.p_good_to_bad,
                    p_bad_to_good: b.p_bad_to_good,
                    loss_good: b.loss_good,
                    loss_bad: b.loss_bad,
                },
                seed,
            )
            .expect("scenario presets are valid probabilities"),
            None if s.erasure_p > 0.0 => {
                FaultPlan::erasure(s.erasure_p, seed).expect("scenario presets are valid")
            }
            None => FaultPlan::none(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_workloads::DemandShape;

    fn demand(rate: u32) -> DemandSpec {
        DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, rate)
    }

    #[test]
    fn lossless_slices_deliver_everything_with_zero_downtime() {
        let mut t = TenantRuntime::new(TenantConfig::new(7, 32), 0xDA7);
        t.begin_phase(demand(200), None, SloSpec::lossless(), 10);
        for _ in 0..10 {
            t.run_slice();
        }
        let snap = t.phase_snapshot();
        assert_eq!(snap.requests, 2000);
        assert_eq!(snap.delivered, 2000);
        assert_eq!(snap.rebuild_downtime_slots, 0);
        assert!(snap.rebuilds >= 1, "periodic republish every 8 slices");
        assert!(
            t.phase_violations().is_empty(),
            "{:?}",
            t.phase_violations()
        );
    }

    #[test]
    fn quarantine_backs_off_exponentially_and_readmits() {
        crate::silence_chaos_panic_reports();
        let mut t = TenantRuntime::new(TenantConfig::new(7, 32), 0xBAD);
        t.begin_phase(demand(100), None, SloSpec::lossless(), 16);
        // Poison slice 2, and slice 5 — exactly the probe slice after the
        // first 2-slice quarantine term — so the term doubles to 4.
        t.inject_panic_at_slice(2);
        t.inject_panic_at_slice(5);
        let mut quarantined_timeline = Vec::new();
        for _ in 0..12 {
            t.run_slice();
            quarantined_timeline.push(t.is_quarantined());
        }
        assert_eq!(
            quarantined_timeline,
            [
                false, false, // healthy
                true, true, true, // first panic: 2-slice term + probe
                true, true, true, true, true, // probe panics: 4-slice term
                false, false, // second probe succeeds
            ]
        );
        let snap = t.phase_snapshot();
        assert_eq!(snap.quarantined, 2);
        assert_eq!(snap.readmitted, 1);
        // A panicked slice is a clean no-op: the 10 surviving slices
        // serve their full rate losslessly, so even the strict SLO holds.
        assert_eq!(snap.requests, 1000);
        assert_eq!(snap.delivered, 1000);
        assert!(
            t.phase_violations().is_empty(),
            "{:?}",
            t.phase_violations()
        );
    }

    #[test]
    fn same_seed_and_id_replay_bit_identically() {
        let run = |service_seed: u64| {
            let mut t = TenantRuntime::new(TenantConfig::new(3, 48), service_seed);
            t.begin_phase(demand(150), None, SloSpec::lossless(), 8);
            for _ in 0..8 {
                t.run_slice();
            }
            t.phase_snapshot()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn lossy_channel_still_bounded_by_degraded_slo() {
        let mut t = TenantRuntime::new(TenantConfig::new(0, 32), 0xBAD);
        t.begin_phase(
            demand(200),
            Some(bcast_workloads::brownout_channel()),
            SloSpec::degraded(0.90, 8.0),
            12,
        );
        for _ in 0..12 {
            t.run_slice();
        }
        let snap = t.phase_snapshot();
        assert!(snap.failed < snap.requests / 10, "{snap:?}");
        assert_eq!(snap.rebuild_downtime_slots, 0);
        assert!(t.phase_violations().is_empty(), "{:?}", t.phase_snapshot());
    }

    #[test]
    fn delta_lane_serves_with_zero_downtime_and_counts_lanes() {
        let mut config = TenantConfig::new(5, 64);
        config.rebuild_lane = RebuildLane::Delta { max_touched: 0.25 };
        let mut t = TenantRuntime::new(config, 0xDE17A);
        t.begin_phase(demand(300), None, SloSpec::lossless(), 24);
        for _ in 0..24 {
            t.run_slice();
        }
        let snap = t.phase_snapshot();
        assert_eq!(snap.requests, snap.delivered, "lossless channel");
        assert_eq!(snap.rebuild_downtime_slots, 0, "swap stays double-buffered");
        assert!(snap.rebuilds >= 2, "periodic republish every 8 slices");
        assert_eq!(
            snap.delta_rebuilds + snap.full_rebuilds,
            snap.rebuilds,
            "every rebuild is attributed to exactly one lane"
        );
        assert!(t.phase_violations().is_empty(), "{snap:?}");
    }

    #[test]
    fn delta_lane_replays_bit_identically() {
        let run = |_attempt: u64| {
            let mut config = TenantConfig::new(9, 48);
            config.rebuild_lane = RebuildLane::Delta { max_touched: 0.1 };
            let mut t = TenantRuntime::new(config, 0xFACE);
            t.begin_phase(demand(200), None, SloSpec::lossless(), 16);
            for _ in 0..16 {
                t.run_slice();
            }
            t.phase_snapshot()
        };
        // Wall ns differs between the runs; equality must hold anyway.
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn snapshot_cold_start_serves_bit_identically() {
        let config = TenantConfig::new(4, 40);
        let mut cold = TenantRuntime::new(config.clone(), 0xB007);
        let image = cold.snapshot_image();
        let view = image.view().unwrap();
        let mut warm = TenantRuntime::from_snapshot(config, 0xB007, &view).unwrap();
        // 12 slices cross the periodic rebuild at slice 8, so the warm
        // tenant's first full rebuild (replacing the stand-in tree) is
        // inside the window being compared.
        for t in [&mut cold, &mut warm] {
            t.begin_phase(demand(150), None, SloSpec::lossless(), 12);
            for _ in 0..12 {
                t.run_slice();
            }
        }
        assert_eq!(cold.phase_snapshot(), warm.phase_snapshot());
        assert!(warm.phase_violations().is_empty());
        assert_eq!(cold.phase_snapshot().snapshot_loads, 0);
        assert_eq!(warm.phase_snapshot().snapshot_loads, 1);
    }

    #[test]
    fn snapshot_with_mismatched_config_is_rejected() {
        let cold = TenantRuntime::new(TenantConfig::new(1, 32), 7);
        let image = cold.snapshot_image();
        let view = image.view().unwrap();
        let wrong_items = TenantConfig::new(2, 33);
        assert!(TenantRuntime::from_snapshot(wrong_items, 7, &view).is_err());
        let mut wrong_channels = TenantConfig::new(2, 32);
        wrong_channels.channels = 2;
        assert!(TenantRuntime::from_snapshot(wrong_channels, 7, &view).is_err());
    }

    #[test]
    fn alias_table_rebuilds_only_on_shape_changes() {
        // Republishes disabled: only demand-shape changes can miss.
        let mut config = TenantConfig::new(2, 32);
        config.rebuild_every = None;
        config.degradation = None;
        let mut t = TenantRuntime::new(config, 0xA11A5);
        t.begin_phase(demand(100), None, SloSpec::lossless(), 6);
        for _ in 0..6 {
            t.run_slice();
        }
        assert_eq!(
            t.phase_snapshot().alias_rebuilds,
            1,
            "one Vose construction for six same-shape slices"
        );
        // A new phase with the same shape keeps the cached table.
        t.begin_phase(demand(50), None, SloSpec::lossless(), 4);
        for _ in 0..4 {
            t.run_slice();
        }
        assert_eq!(t.phase_snapshot().alias_rebuilds, 0);
        // A shape change rebuilds exactly once.
        let hot = DemandSpec::flat(
            DemandShape::HotSet {
                hot_items: 4,
                hot_mass: 0.8,
                offset: 0,
            },
            50,
        );
        t.begin_phase(hot, None, SloSpec::lossless(), 4);
        for _ in 0..4 {
            t.run_slice();
        }
        assert_eq!(t.phase_snapshot().alias_rebuilds, 1);
        assert!(t.cost_hint() >= 1);
    }

    #[test]
    fn full_republish_retags_the_sampler_and_the_delta_lane_does_not() {
        // The fused sampler bakes item→node tags in, so a *full*
        // republish (new tree, new node ids) must re-tag on the next
        // serving slice; the delta lane keeps node ids stable and the
        // cache survives its republishes.
        let run = |lane: RebuildLane| {
            let mut config = TenantConfig::new(3, 32);
            config.degradation = None; // periodic rebuilds only
            config.rebuild_lane = lane;
            let mut t = TenantRuntime::new(config, 0xA11A5);
            t.begin_phase(demand(100), None, SloSpec::lossless(), 12);
            for _ in 0..12 {
                t.run_slice();
            }
            let snap = t.phase_snapshot();
            assert_eq!(snap.rebuilds, 1, "one periodic republish at slice 8");
            snap.alias_rebuilds
        };
        assert_eq!(
            run(RebuildLane::Full),
            2,
            "cold build + post-republish re-tag"
        );
        assert_eq!(
            run(RebuildLane::Delta { max_touched: 0.5 }),
            1,
            "cold build only; delta republishes keep the cache"
        );
    }

    #[test]
    fn drift_gate_skips_quiet_cadences_but_not_real_shifts() {
        let mut config = TenantConfig::new(11, 64);
        config.rebuild_min_drift = Some(0.3);
        let mut t = TenantRuntime::new(config, 0x5EED);
        // Stationary phase crossing three cadence points (slices 8, 16,
        // 24): the first republish publishes the estimator for the first
        // time (everything counts as drifted), the remaining two see only
        // sampling noise and are gated off.
        t.begin_phase(demand(300), None, SloSpec::lossless(), 24);
        for _ in 0..24 {
            t.run_slice();
        }
        let quiet = t.phase_snapshot();
        assert_eq!(quiet.rebuilds, 1, "{quiet:?}");
        assert_eq!(quiet.skipped_rebuilds, 2, "{quiet:?}");
        assert_eq!(
            quiet.requests, quiet.delivered,
            "gate must not drop requests"
        );
        assert!(t.phase_violations().is_empty(), "{quiet:?}");
        // The hot set relocates: the mass itself moves, drift exceeds the
        // floor, and the next cadence point (slice 32) rebuilds through
        // the gate.
        let moved = DemandSpec::flat(
            DemandShape::HotSet {
                hot_items: 8,
                hot_mass: 0.9,
                offset: 32,
            },
            300,
        );
        t.begin_phase(moved, None, SloSpec::lossless(), 8);
        for _ in 0..8 {
            t.run_slice();
        }
        let shifted = t.phase_snapshot();
        assert_eq!(
            shifted.rebuilds, 1,
            "real shift must republish: {shifted:?}"
        );
        assert_eq!(shifted.skipped_rebuilds, 0, "{shifted:?}");
    }

    /// Replays the slice a tenant just ran through the path its window
    /// used to be fed by — serve into the session's own histogram, then
    /// absorb that into the window. `program` is the program the slice
    /// served from, captured before it ran; the sampler cannot have
    /// changed since it served.
    fn absorb_twin_slice(
        t: &TenantRuntime,
        program: &CompiledProgram,
        slice_seed: u64,
        rate: u32,
        window: &mut LatencyHistogram,
    ) {
        let opts = ServeOptions {
            threads: 1,
            seed: mix2(slice_seed, 2),
            faults: fault_plan(t.faults.as_ref(), mix2(slice_seed, 3)),
            recovery: t.config.recovery,
        };
        let mut session = ServeSession::new();
        program.begin_session(&mut session, &opts);
        let mut state = mix2(slice_seed, 1);
        let mut chunk = Vec::new();
        let mut remaining = rate as usize;
        while remaining > 0 {
            let n = remaining.min(SERVE_CHUNK);
            chunk.clear();
            chunk.extend((0..n).map(|_| NodeId(t.sampler.sample(&mut state).1)));
            program.serve_chunk(&mut session, &chunk).unwrap();
            remaining -= n;
        }
        window.absorb(session.histogram());
    }

    #[test]
    fn window_fed_directly_equals_session_then_absorb() {
        for faults in [None, Some(bcast_workloads::brownout_channel())] {
            let mut config = TenantConfig::new(6, 48);
            config.degradation = None; // the slice-8 full republish only
            let mut t = TenantRuntime::new(config, 0x7E1);
            t.begin_phase(demand(300), faults, SloSpec::degraded(0.5, 8.0), 16);
            let boot_cycle = t.cycle_len();
            let mut twin = LatencyHistogram::with_bound(PHASE_HIST_CYCLES * boot_cycle);
            let mut clamped = false;
            for _ in 0..16 {
                let program = t.publisher.current().clone();
                let (slice_seed, rate) = (mix2(t.seed, t.slices_run), t.next_rate());
                t.run_slice();
                absorb_twin_slice(&t, &program, slice_seed, rate, &mut twin);
                assert_eq!(t.window.hist, twin, "faults {faults:?}");
                clamped |= twin.count() > 0 && twin.max() as usize > 8 * program.cycle_len();
            }
            assert_ne!(t.cycle_len(), boot_cycle, "the republish changed the cycle");
            assert_eq!(clamped, faults.is_some(), "lossy waits past 8 cycles");
        }
    }

    #[test]
    fn a_slice_refused_midway_leaves_the_window_untouched() {
        crate::silence_chaos_panic_reports();
        for faults in [None, Some(bcast_workloads::brownout_channel())] {
            let mut t = TenantRuntime::new(TenantConfig::new(8, 64), 0x5A1E);
            t.begin_phase(demand(2_000), faults, SloSpec::degraded(0.5, 8.0), 8);
            for _ in 0..3 {
                t.run_slice();
            }
            // Poison one item the next slice first draws after two whole
            // chunks: its node tag becomes an id no program routes, so the
            // kernel refuses a chunk after at least two were recorded.
            let mut state = mix2(mix2(t.seed, t.slices_run), 1);
            let draws: Vec<u32> = (0..2_000).map(|_| t.sampler.sample(&mut state).0).collect();
            let poisoned = (2 * SERVE_CHUNK..draws.len())
                .map(|p| draws[p])
                .find(|item| draws.iter().position(|d| d == item).unwrap() >= 2 * SERVE_CHUNK)
                .expect("some item first appears after two chunks");
            let mut pmf = Vec::new();
            t.demand.shape.pmf_into(t.config.items, &mut pmf);
            let data_nodes = t.data_nodes.clone();
            t.sampler.rebuild(&pmf, |i| {
                if i == poisoned as usize {
                    u32::MAX
                } else {
                    data_nodes[i].0
                }
            });
            let (hist, snap) = (t.window.hist.clone(), t.phase_snapshot());
            t.run_slice();
            assert!(t.is_quarantined(), "the refused chunk panics the slice");
            assert_eq!(t.window.hist, hist, "faults {faults:?}");
            let after = t.phase_snapshot();
            assert_eq!(after.quarantined, snap.quarantined + 1);
            assert_eq!(
                SloSnapshot {
                    quarantined: snap.quarantined,
                    ..after
                },
                snap
            );
        }
    }

    #[test]
    fn lossy_p99_saturates_at_the_kernel_clamp() {
        // Republishes off, so one cycle length holds all phase long.
        let mut config = TenantConfig::new(0, 32);
        config.rebuild_every = None;
        config.degradation = None;
        let mut t = TenantRuntime::new(config, 0xBAD);
        t.begin_phase(
            demand(400),
            Some(bcast_workloads::brownout_channel()),
            SloSpec::degraded(0.5, 8.0),
            12,
        );
        for _ in 0..12 {
            t.run_slice();
        }
        let (snap, cycle) = (t.phase_snapshot(), t.cycle_len());
        // The true waits run past 8 cycles, but the kernel clamps them
        // there, so the p99 reads exactly 8 cycles — the degraded SLO's
        // own ceiling, which it therefore can never exceed.
        assert!(t.window.hist.max() > 8 * cycle);
        assert_eq!(snap.p99_slots, 8 * cycle, "{snap:?}");
        assert!(
            !t.phase_violations()
                .iter()
                .any(|v| matches!(v, SloViolation::P99AccessTime { .. })),
            "{snap:?}"
        );
    }

    #[test]
    fn rate_zero_slices_are_idle_but_still_roll_epochs() {
        let mut t = TenantRuntime::new(TenantConfig::new(1, 16), 1);
        t.begin_phase(demand(0), None, SloSpec::lossless(), 4);
        for _ in 0..4 {
            t.run_slice();
        }
        let snap = t.phase_snapshot();
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.delivery_rate(), 1.0);
        assert!(t.phase_violations().is_empty());
    }
}
