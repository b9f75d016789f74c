//! One tenant of the serving loop: the program on air, a demand
//! estimator and a degradation tracker, advanced one time slice at a
//! time. A tenant keeps only what its rebuild lane reads, and publishes
//! every program through the rebuild workspace its serving lane lends
//! it. The full lane builds a tree for each rebuild, publishes it and
//! drops it, so between rebuilds it holds only the program. The delta
//! lane keeps the boot index tree and the change lists it reweights that
//! tree by.
//!
//! The demand sampler is derived state: a phase's demand shape plus the
//! item → node map. A full republish re-mints node ids, so it re-tags a
//! built sampler on the spot, and the tags always match the program on
//! air. A checkpoint stores neither the sampler nor any flag about it; a
//! restore builds it from the restored demand shape and item → node map.
//!
//! A tenant is a *self-contained* state machine: every random draw it
//! makes (request sampling, tune-in slots, channel faults) derives from
//! its own seed — itself derived only from the service seed and the
//! tenant's stable id — and the global slice counter. Nothing depends on
//! which worker thread runs the tenant or on who its neighbors are, which
//! is what makes scenario runs bit-identical across thread counts and
//! lets the isolation tests demand *exact* equality between a tenant's
//! solo run and its run amid noisy co-tenants.

use crate::checkpoint::{read_demand_shape, read_heuristic, write_demand_shape, write_heuristic};
use bcast_adaptive::{DegradationPolicy, DegradationTracker, EmaEstimator};
use bcast_channel::{
    compiled::{CompiledProgram, ServeOptions, ServeSession, SERVE_CHUNK},
    faults::{FaultPlan, GilbertElliott, RecoveryPolicy},
    hist::{HistMark, LatencyHistogram},
    snapshot::{SnapshotError, SnapshotView},
};
use bcast_core::publish::{PublishHeuristic, PublishWorkspace};
use bcast_index_tree::{knary, IndexTree};
use bcast_types::prefetch::PREFETCH_MIN_LEN;
use bcast_types::{
    mix64, NodeId, SloSnapshot, SloSpec, SloViolation, Weight, WordReader, WordWriter,
};
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

/// Longest cycle an `items`-item tenant can air: no cycle is longer than
/// the tree it schedules, at most `2 × items` nodes, since every index
/// node of the weight-balanced tree except a one-item root has two or
/// more children. A restore bounds what it allocates by it.
fn max_cycle_len(items: usize) -> usize {
    items.saturating_mul(2)
}

/// Most buckets a window histogram of an `items`-item tenant can hold —
/// the restore's allocation cap: `PHASE_HIST_CYCLES` of the longest
/// cycles plus bucket zero.
fn max_window_buckets(items: usize) -> usize {
    (PHASE_HIST_CYCLES as usize)
        .saturating_mul(max_cycle_len(items))
        .saturating_add(1)
}

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

/// Which tree a tenant's rebuilds publish.
///
/// The full lane re-derives the weight-balanced tree from scratch every
/// rebuild; the delta lane keeps the boot tree's *structure* and only
/// reweights it by the estimator's changes. Both publish the whole
/// program through the serving lane's workspace and swap it in
/// atomically, so downtime is zero either way.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RebuildLane {
    /// Rebuild the tree and republish everything (the PR6 behavior; the
    /// default, so existing scenario fingerprints replay unchanged).
    #[default]
    Full,
    /// Reweight the boot tree by the estimator's changed weights and
    /// republish it. The index-tree *structure* stays fixed at its boot
    /// shape, so node ids never change — only weights and the allocation
    /// adapt (tenants whose catalog shape must track demand keep `Full`).
    Delta {
        /// Unread: the incremental patch lane this budgeted is gone. The
        /// field stays only so existing callers compile.
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
    /// Republish machinery: full rebuilds or the reweighted boot tree.
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
    /// The window's counters, in the snapshot that reports them and the
    /// encoding that checkpoints them; the three fields
    /// [`snapshot`](Window::snapshot) derives stay 0 here.
    counts: SloSnapshot,
    hist: LatencyHistogram,
    /// Schedule positions touched / positions total, summed over the
    /// window's rebuilds (exact integers → deterministic ppm). Every
    /// rebuild publishes in full, touching every position.
    touched_nodes: u64,
    touched_total: u64,
}

impl Window {
    fn new(hist_bound: u32) -> Self {
        Window {
            counts: SloSnapshot::default(),
            hist: LatencyHistogram::with_bound(hist_bound.max(1)),
            touched_nodes: 0,
            touched_total: 0,
        }
    }

    /// The counters, with the p99 and mean access time read off the
    /// histogram and the touched share in parts per million.
    fn snapshot(&self) -> SloSnapshot {
        let (p99_slots, mean_access_slots) = if self.hist.is_empty() {
            (0, 0.0)
        } else {
            (self.hist.percentile(0.99), self.hist.mean())
        };
        SloSnapshot {
            p99_slots,
            mean_access_slots,
            touched_ppm: (self.touched_nodes * 1_000_000)
                .checked_div(self.touched_total)
                .unwrap_or(0),
            ..self.counts
        }
    }
}

/// A live tenant: program on air + estimator + degradation tracker (+
/// the boot tree and change lists on the delta lane), advanced by
/// [`run_slice_in`](TenantRuntime::run_slice_in).
#[derive(Debug)]
pub struct TenantRuntime {
    config: TenantConfig,
    seed: u64,
    /// The boot tree a [`RebuildLane::Delta`] tenant reweights and
    /// republishes. `None` on the full lane: each full rebuild builds a
    /// tree, publishes it and drops it, since serving reads only the
    /// program and the item → node map.
    tree: Option<IndexTree>,
    data_nodes: Vec<NodeId>,
    /// The program on air: the last successful publish, made through a
    /// workspace the serving lane lent.
    program: CompiledProgram,
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
    /// built for). Within a phase only the request rate interpolates —
    /// the pmf is constant — so steady-state slices skip the O(items)
    /// Vose construction entirely. A full republish re-tags it in place
    /// (see [`rebuild`](Self::rebuild)); a checkpoint never stores it.
    sampler: TaggedAliasTable,
    sampler_shape: Option<DemandShape>,
    /// Reused staging buffers for one [`SERVE_CHUNK`] of requests: sampled
    /// targets are gathered here and fed straight to the chunked serve
    /// kernel, so a slice never materializes its full request vector.
    draws: ChunkDraws,
    /// Reusable streaming-serve state (histogram shard and fault
    /// overlay buffers persist across slices).
    session: ServeSession,
    /// EWMA of recent slice request counts — the deterministic cost
    /// input to the service's load-balanced lane assignment.
    ewma_cost: u64,
    /// The delta lane's scratch for [`EmaEstimator::drain_changed`]
    /// (item-indexed); the full lane drains without a list.
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
    /// Boots a tenant cold on its own: [`new_in`](Self::new_in) with a
    /// workspace of its own, dropped once the boot program is published.
    ///
    /// # Panics
    /// As [`new_in`](Self::new_in).
    pub fn new(config: TenantConfig, service_seed: u64) -> Self {
        Self::new_in(config, service_seed, &mut PublishWorkspace::new())
    }

    /// Boots a tenant cold: uniform weights, first program published
    /// through `work` (its serving lane's rebuild workspace), so it keeps
    /// only the program — and, on the delta lane, the boot tree.
    ///
    /// # Panics
    /// Panics if `config.items == 0` or the catalog cannot be scheduled
    /// on `config.channels` channels (the bundled heuristics always
    /// produce feasible allocations for sane configs).
    pub fn new_in(config: TenantConfig, service_seed: u64, work: &mut PublishWorkspace) -> Self {
        assert!(config.items > 0, "tenant needs at least one item");
        let estimator = EmaEstimator::new(config.items, config.alpha);
        let tree = knary::build_weight_balanced_unlabeled(estimator.published(), config.fanout)
            .expect("uniform weights build a valid tree");
        let mut program = CompiledProgram::default();
        work.publish(&tree, config.channels, config.heuristic, &mut program)
            .expect("bundled heuristics produce feasible allocations");
        let data_nodes = tree.data_nodes().to_vec();
        let delta_lane = config.rebuild_lane != RebuildLane::Full;
        let mut t = Self::assemble(service_seed, config, program, data_nodes, estimator, None);
        t.tree = delta_lane.then_some(tree);
        t
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
    /// being skipped), and a full-lane tenant keeps no tree anyway: its
    /// first rebuild derives a fresh one from estimator weights. Only
    /// [`RebuildLane::Full`] tenants may boot this way — the delta lane
    /// reweights the boot tree itself.
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
        let estimator = EmaEstimator::new(config.items, config.alpha);
        let data_nodes: Vec<NodeId> = view.data_nodes().collect();
        let mut t = Self::assemble(
            service_seed,
            config,
            view.to_program(),
            data_nodes,
            estimator,
            None,
        );
        t.pending_snapshot_loads = 1;
        Ok(t)
    }

    /// Assembles a tenant from the parts its boot paths differ in: the
    /// program on air and the item → node map it serves by, the
    /// estimator whose published weights rebuilds consume, and a
    /// restored window (`None`: a fresh one sized for the program on
    /// air). The tenant seed derives from `service_seed` and the config's
    /// id; everything else starts as before a tenant's first phase.
    ///
    /// The tenant holds no tree: a program installed from an image or a
    /// checkpoint comes without one, and a full-lane tenant needs none.
    /// [`new_in`] hands a delta-lane tenant the tree it published from.
    ///
    /// [`new_in`]: TenantRuntime::new_in
    fn assemble(
        service_seed: u64,
        config: TenantConfig,
        program: CompiledProgram,
        data_nodes: Vec<NodeId>,
        estimator: EmaEstimator,
        window: Option<Window>,
    ) -> Self {
        let window = window.unwrap_or_else(|| {
            Window::new(PHASE_HIST_CYCLES * (program.cycle_len() as u32).max(1))
        });
        TenantRuntime {
            seed: mix2(service_seed, config.id),
            tree: None,
            data_nodes,
            program,
            estimator,
            degradation: config.degradation.map(DegradationTracker::new),
            demand: DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, 0),
            faults: None,
            slo: SloSpec::default(),
            phase_slices: 0,
            slice_in_phase: 0,
            slices_run: 0,
            total_requests: 0,
            total_rebuilds: 0,
            pending_snapshot_loads: 0,
            window,
            sampler: TaggedAliasTable::new(),
            sampler_shape: None,
            draws: ChunkDraws::new(),
            session: ServeSession::new(),
            ewma_cost: 0,
            changes: Vec::new(),
            node_changes: Vec::new(),
            quarantine: None,
            admitted_cap: None,
            chaos_panic_slices: Vec::new(),
            config,
        }
    }

    /// Captures the program on air into a snapshot image, with the
    /// item → node map it serves by as the catalog. Called right after
    /// [`new`](TenantRuntime::new), this is the boot image the service's
    /// cache shares with later joins of the same shape; after a rebuild
    /// it records the newer program. Any tenant can be captured,
    /// including one booted from an image or restored from a checkpoint
    /// before its first rebuild.
    pub fn snapshot_image(&self) -> bcast_channel::SnapshotImage {
        bcast_channel::SnapshotImage::capture(&self.program, self.config.channels, &self.data_nodes)
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
        self.program.cycle_len() as u32
    }

    /// Lifetime requests offered to this tenant.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Lifetime programs published (boot publish excluded).
    pub fn total_rebuilds(&self) -> u64 {
        self.total_rebuilds
    }

    /// The demand estimator: its published snapshot holds the weights
    /// the last full rebuild built its tree from.
    pub fn estimator(&self) -> &EmaEstimator {
        &self.estimator
    }

    /// The SLO the current phase holds this tenant to.
    pub fn slo(&self) -> SloSpec {
        self.slo
    }

    /// Starts a new observation window with a new script: demand shape,
    /// channel condition and SLO for the next `slices` slices. Resets the
    /// window accumulator; estimator, program and degradation state
    /// carry over (a tenant's demand history does not reset at phase
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
        self.window.counts.snapshot_loads = std::mem::take(&mut self.pending_snapshot_loads);
    }

    /// [`run_slice_in`](Self::run_slice_in) for a tenant run on its own:
    /// a republish gets a workspace of its own, dropped once it is done.
    pub fn run_slice(&mut self) {
        self.run_slice_in(&mut PublishWorkspace::new());
    }

    /// Advances the tenant by one time slice: sample the slice's
    /// requests from the scripted demand, serve them against the program
    /// on air, feed the estimator, then run the between-slice control
    /// actions (degradation feedback, periodic republish). A republish
    /// runs in `work`, the rebuild workspace of the serving lane running
    /// this tenant, and leaves its buffers there. It swaps the new program
    /// in only once it is compiled, so requests are never held while a
    /// program compiles — the downtime counter stays at zero and the SLO
    /// check proves it.
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
    /// A tenant of [`PREFETCH_MIN_LEN`] items or more, whose sampler and
    /// estimator tables outgrow the cache, draws and counts a chunk at a
    /// time with prefetches ([`TaggedAliasTable::sample_chunk`],
    /// [`EmaEstimator::observe_chunk`]); a smaller one draws, counts and
    /// stages each request in one fused step. Both give the same draws
    /// and counts, so the outcome does not depend on the size rule.
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
    pub fn run_slice_in(&mut self, work: &mut PublishWorkspace) {
        self.run_slice_on(work, self.config.items >= PREFETCH_MIN_LEN);
    }

    /// [`run_slice_in`](Self::run_slice_in) with the request path's form
    /// given: `chunked` draws and counts a chunk at a time with prefetches.
    fn run_slice_on(&mut self, work: &mut PublishWorkspace, chunked: bool) {
        let parked = self
            .quarantine
            .is_some_and(|q| self.slices_run < q.until_slice);
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.slice_body(work, parked, chunked)
        }));
        match body {
            Ok(()) => {
                if !parked && self.quarantine.take().is_some() {
                    self.window.counts.readmitted += 1;
                }
            }
            Err(payload) => {
                drop(payload);
                self.window.counts.quarantined += 1;
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

    /// The actual slice work (see [`run_slice_in`](Self::run_slice_in),
    /// which wraps it in the panic boundary). `parked` suspends both
    /// rebuild paths — the quarantined tenant serves from the program
    /// already on air and its degradation tracker is frozen. `chunked`
    /// picks the request path's form (see [`ChunkDraws::draw`]).
    fn slice_body(&mut self, work: &mut PublishWorkspace, parked: bool, chunked: bool) {
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
            self.build_sampler();
            let mut state = mix2(slice_seed, 1);

            // Serve against the program on air. It is always servable —
            // a publish swaps programs atomically between slices — so the
            // downtime branch is unreachable by construction; the counter
            // exists to *prove* that to the SLO check rather than assume
            // it.
            let program = &self.program;
            if program.num_data_nodes() == 0 {
                // Demand still arrives during downtime: the estimator
                // sees what was *requested*, exactly as when serving.
                self.draws.observe(
                    &self.sampler,
                    &mut self.estimator,
                    &mut state,
                    rate,
                    chunked,
                );
                self.window.counts.rebuild_downtime_slots += 1;
            } else {
                if admitted > 0 {
                    let opts = ServeOptions {
                        threads: 1,
                        seed: mix2(slice_seed, 2),
                        faults: fault_plan(self.faults.as_ref(), mix2(slice_seed, 3))
                            .expect("scripted and restored channels hold valid probabilities"),
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
                        // The estimator sees what was *requested* (demand,
                        // not delivery — channel loss must not starve the
                        // allocator's view of popularity).
                        let targets = self.draws.draw(
                            &self.sampler,
                            &mut self.estimator,
                            &mut state,
                            n,
                            chunked,
                        );
                        let served = program.serve_chunk_into(
                            &mut self.session,
                            targets,
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
                self.draws.observe(
                    &self.sampler,
                    &mut self.estimator,
                    &mut state,
                    shed,
                    chunked,
                );
                if shed > 0 {
                    self.window.counts.requests += u64::from(shed);
                    self.window.counts.shed_requests += u64::from(shed);
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
                        self.rebuild(work);
                        self.window.counts.degraded_rebuilds += 1;
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
                    self.window.counts.skipped_rebuilds += 1;
                } else {
                    self.rebuild(work);
                }
            }
        }
    }

    /// Builds the demand sampler for the phase's demand shape over the
    /// item → node map on air, unless it is built for that shape already.
    /// The shape is constant within a phase (only the request rate
    /// interpolates slice to slice), so the Vose construction runs once
    /// per shape change, not once per slice, and once per restore
    /// ([`ServeLoop::build_samplers`](crate::ServeLoop::build_samplers)).
    /// Same pmf → byte-identical table → identical draws. The pmf is a
    /// temporary of this rare event, not kept between builds.
    pub(crate) fn build_sampler(&mut self) {
        if self.sampler_shape == Some(self.demand.shape) {
            return;
        }
        let data_nodes = &self.data_nodes;
        let pmf = self.demand.shape.pmf(self.config.items);
        self.sampler.rebuild(&pmf, |i| data_nodes[i].0);
        self.sampler_shape = Some(self.demand.shape);
        self.window.counts.alias_rebuilds += 1;
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
        let cycle_len = self.cycle_len();
        let counts = &mut self.window.counts;
        counts.requests += self.session.requests();
        counts.delivered += self.session.delivered();
        counts.failed += self.session.failed();
        counts.retries += self.session.retries();
        counts.max_cycle_len = counts.max_cycle_len.max(cycle_len);
        self.total_requests += self.session.requests();
    }

    /// Republishes from the estimator's current weights in `work` and
    /// swaps the new program in once it is compiled: the old program
    /// serves until then. The configured [`RebuildLane`] picks the tree —
    /// a fresh weight-balanced build, or the boot tree reweighted by the
    /// estimator's changes — and every rebuild publishes it in full.
    fn rebuild(&mut self, work: &mut PublishWorkspace) {
        let started = Instant::now();
        let (k, heuristic) = (self.config.channels, self.config.heuristic);
        // O(changed) estimator handoff, shared by both lanes: the
        // estimator's published snapshot absorbs only the weights that
        // moved. The full lane builds from that snapshot, the delta lane
        // (the one tenant that keeps a tree) also lists the moves to
        // reweight its tree by.
        let nodes = match self.tree.as_mut() {
            None => {
                self.estimator.publish_changed();
                let tree = knary::build_weight_balanced_unlabeled(
                    self.estimator.published(),
                    self.config.fanout,
                )
                .expect("estimator weights are positive");
                work.publish(&tree, k, heuristic, &mut self.program)
                    .expect("bundled heuristics produce feasible allocations");
                self.data_nodes.clear();
                self.data_nodes.extend_from_slice(tree.data_nodes());
                // The sampler's tags bake in the item→node map this
                // rebuild just reminted: re-tag a built sampler now, so
                // its tags always match the program on air. Its
                // thresholds and alias items depend on the pmf alone. The
                // delta lane keeps node ids stable and skips this.
                if !self.sampler.is_empty() {
                    let data_nodes = &self.data_nodes;
                    self.sampler.retag(|i| data_nodes[i].0);
                    self.window.counts.alias_rebuilds += 1;
                }
                // The tree is dropped here: serving reads only the
                // program and `data_nodes`.
                tree.len() as u64
            }
            Some(tree) => {
                self.changes.clear();
                self.estimator.drain_changed(&mut self.changes);
                // Structure stays at its boot shape: only weights move,
                // so `data_nodes` keeps mapping item i → leaf i.
                self.node_changes.clear();
                self.node_changes.extend(
                    self.changes
                        .iter()
                        .map(|&(i, w)| (self.data_nodes[i as usize], w)),
                );
                tree.reweight(&self.node_changes);
                work.publish(tree, k, heuristic, &mut self.program)
                    .expect("bundled heuristics produce feasible allocations");
                tree.len() as u64
            }
        };
        self.window.counts.full_rebuilds += 1;
        self.window.touched_nodes += nodes;
        self.window.touched_total += nodes;
        self.window.counts.rebuilds += 1;
        self.window.counts.max_cycle_len = self.window.counts.max_cycle_len.max(self.cycle_len());
        self.total_rebuilds += 1;
        self.window.counts.rebuild_wall_ns += started.elapsed().as_nanos() as u64;
    }

    /// Serializes the tenant's complete mutable state into the
    /// checkpoint word stream: config, the program on air (as a
    /// CRC-sealed [`SnapshotImage`](bcast_channel::SnapshotImage)), phase
    /// script, lifetime counters, quarantine state, armed chaos points,
    /// the full window (histogram included), and the estimator and
    /// degradation trajectories. The estimator carries the weight
    /// snapshot the next full rebuild builds from. The admission cap is
    /// deliberately absent — it is per-slice transient state the service
    /// re-derives after a restore — and so is the session scratch. So is
    /// the demand sampler, derived from the phase's demand shape and the
    /// item → node map: the restore rebuilds it deterministically (only
    /// the equality-excluded `alias_rebuilds` side channel can tell).
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
        write_heuristic(w, c.heuristic);
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

        // The program on air, right after the config: its catalog
        // confirms the item count that bounds every run below. A
        // reference into the boot-image cache when it is still the boot
        // program, a self-validating embedded snapshot image otherwise.
        let image = self.snapshot_image();
        match boot {
            Some(b) if b.words() == image.words() => w.u32(IMAGE_BOOT_REF),
            _ => {
                w.u32(IMAGE_EMBEDDED);
                w.u32_slice(image.words());
            }
        }

        // Phase script. The fault scenario's `&'static str` name cannot
        // round-trip; it never reaches serving, so restore substitutes a
        // literal (outcome-neutral by construction).
        write_demand_shape(w, self.demand.shape);
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
        self.slo.export_state(w);
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
        // the uninterrupted one). The points are written flat, two words
        // each, so the words that follow bound their count.
        match &self.quarantine {
            None => w.u32(0),
            Some(q) => {
                w.u32(1);
                w.u64(q.until_slice);
                w.u64(q.next_backoff);
            }
        }
        w.u64(self.chaos_panic_slices.len() as u64);
        for &slice in &self.chaos_panic_slices {
            w.u64(slice);
        }

        // The window, histogram included.
        let win = &self.window;
        win.counts.export_state(w);
        win.hist.export_state(w);
        w.u64(win.touched_nodes);
        w.u64(win.touched_total);

        // Adaptive state: estimator trajectory, tracker hysteresis.
        self.estimator.export_state(w);
        match &self.degradation {
            None => w.u32(0),
            Some(t) => {
                w.u32(1);
                t.export_state(w);
            }
        }
    }

    /// Rebuilds a tenant from [`export_state`](Self::export_state)'s
    /// words. Fails closed (`None`) on any truncation, range violation
    /// or image corruption — a checkpoint never restores approximately.
    /// Every run is bounded before it is allocated: by the item count
    /// once the program's catalog has confirmed it, by the window's
    /// bucket cap, or by the words that follow. Every value the slice
    /// path acts on is held to the rule its constructor applies: a
    /// recovery policy that [fits](RecoveryPolicy::fits) the longest
    /// cycle the tenant can air, a demand shape with a pmf over its
    /// items, and channel probabilities in `[0, 1]`.
    ///
    /// Mirrors [`from_snapshot`](Self::from_snapshot): a checkpoint
    /// stores no tree and the restored tenant holds none, since its next
    /// full rebuild derives one from the estimator's published weights.
    /// So only [`RebuildLane::Full`] tenants restore this way. Nor does
    /// it build the demand sampler: the restore builds every tenant's
    /// once the manifest is decoded and freed
    /// ([`ServeLoop::build_samplers`](crate::ServeLoop::build_samplers)).
    /// `cache` is the already-restored boot-image section of the same
    /// manifest, each image pre-decoded to its program once by the
    /// service: a by-reference program record clones the shared decode
    /// (and fails closed if the shape's image is absent).
    pub(crate) fn import_state(
        service_seed: u64,
        r: &mut WordReader<'_>,
        cache: &[(crate::service::BootKey, crate::service::CachedProgram)],
    ) -> Option<TenantRuntime> {
        let config = TenantConfig {
            id: r.u64()?,
            items: usize::try_from(r.u64()?).ok()?,
            fanout: usize::try_from(r.u64()?).ok()?,
            channels: usize::try_from(r.u64()?).ok()?,
            heuristic: read_heuristic(r)?,
            alpha: r.f64()?,
            rebuild_every: r.opt_u64()?,
            rebuild_min_drift: r.opt_f64()?,
            degradation: match r.u32()? {
                0 => None,
                1 => Some(DegradationPolicy {
                    min_delivery_rate: r.f64()?,
                    recovered_rate: r.f64()?,
                    sustain_epochs: r.u32()?,
                    cooldown_epochs: r.u64()?,
                    max_cooldown_epochs: r.u64()?,
                }),
                _ => return None,
            },
            recovery: RecoveryPolicy {
                max_retries: r.u32()?,
                timeout_slots: r.u64()?,
                backoff_cap: r.u32()?,
                root_replicas: r.u32()?,
            },
            rebuild_lane: match r.u32()? {
                0 => RebuildLane::Full,
                1 => RebuildLane::Delta {
                    max_touched: r.f64()?,
                },
                _ => return None,
            },
        };
        let (items, fanout, channels) = (config.items, config.fanout, config.channels);
        // The delta lane reweights the live boot tree, which a
        // checkpoint does not carry (documented restore limit).
        if items == 0
            || fanout < 2
            || channels == 0
            || config.rebuild_lane != RebuildLane::Full
            || !config.recovery.fits(max_cycle_len(items))
        {
            return None;
        }

        // The program on air: a boot-cache reference clones the decode
        // the service already shares across every tenant of this shape;
        // an embedded image decodes here, borrowed from the manifest.
        // Either way the program must match the config it claims to
        // serve, so from here on `items` is backed by the catalog's words.
        let (program, data_nodes) = match r.u32()? {
            IMAGE_BOOT_REF => {
                let key = crate::service::boot_key(&config);
                let cached = &cache.iter().find(|(k, _)| *k == key)?.1;
                if cached.data_nodes.len() != items || cached.channels != channels {
                    return None;
                }
                (cached.program.clone(), cached.data_nodes.clone())
            }
            IMAGE_EMBEDDED => {
                let view = SnapshotView::new(r.u32_slice()?).ok()?;
                if view.num_data() != items || view.channels() != channels {
                    return None;
                }
                (view.to_program(), view.data_nodes().collect())
            }
            _ => return None,
        };

        let demand = DemandSpec {
            shape: read_demand_shape(r, items)?,
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
                let scenario = FaultScenario {
                    name: "restored",
                    erasure_p,
                    burst,
                };
                fault_plan(Some(&scenario), 0)?;
                Some(scenario)
            }
            _ => return None,
        };
        let slo = SloSpec::import_state(r)?;
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
        let armed = r.count(r.remaining() / 2)?;
        let chaos_panic_slices = (0..armed).map(|_| r.u64()).collect::<Option<Vec<_>>>()?;

        let window = Window {
            counts: SloSnapshot::import_state(r)?,
            hist: LatencyHistogram::import_state(r, max_window_buckets(items))?,
            touched_nodes: r.u64()?,
            touched_total: r.u64()?,
        };
        let estimator = EmaEstimator::import_state(r, items)?;
        let degradation = match (r.u32()?, config.degradation) {
            (0, None) => None,
            (1, Some(policy)) => Some(DegradationTracker::import_state(policy, r)?),
            _ => return None,
        };

        let mut t = Self::assemble(
            service_seed,
            config,
            program,
            data_nodes,
            estimator,
            Some(window),
        );
        t.degradation = degradation;
        t.demand = demand;
        t.faults = faults;
        t.slo = slo;
        t.phase_slices = phase_slices;
        t.slice_in_phase = slice_in_phase;
        t.slices_run = slices_run;
        t.total_requests = total_requests;
        t.total_rebuilds = total_rebuilds;
        t.pending_snapshot_loads = pending_snapshot_loads;
        t.ewma_cost = ewma_cost;
        t.quarantine = quarantine;
        t.chaos_panic_slices = chaos_panic_slices;
        Some(t)
    }
}

/// Takes a refused slice's access times back out of the window it
/// recorded them into, returning the window to `mark`. The slice's first
/// `fed` requests (the refused chunk included) are replayed from the
/// sampler state `state` through a scratch session: draws, tune-ins and
/// fault links depend only on that state and the request index, and a
/// refused chunk records nothing on either path, clean or lossy, in the
/// slice or in the replay, so the replayed histogram holds exactly what
/// the slice recorded. Cold: it runs only on the way to a panic.
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

/// Reused buffers for one [`SERVE_CHUNK`] of a slice's requests: the
/// items drawn (the estimator's input), their tags, and the serving nodes
/// the kernel reads. Fixed-size, so drawing never allocates.
#[derive(Debug, Clone)]
struct ChunkDraws {
    items: [u32; SERVE_CHUNK],
    tags: [u32; SERVE_CHUNK],
    nodes: [NodeId; SERVE_CHUNK],
}

impl ChunkDraws {
    fn new() -> Self {
        ChunkDraws {
            items: [0; SERVE_CHUNK],
            tags: [0; SERVE_CHUNK],
            nodes: [NodeId(0); SERVE_CHUNK],
        }
    }

    /// Draws the next `n ≤ SERVE_CHUNK` requests from `state`, counts
    /// each drawn item in `estimator`, and returns their serving nodes.
    /// `chunked` draws and counts the whole chunk at a time with
    /// prefetches, for tables too large to stay cached; otherwise each
    /// request is drawn, counted and staged in one fused step, which is
    /// faster while the tables are cached. The choice is made once per
    /// chunk. Both forms give the same nodes, counts and final `state`.
    #[inline]
    fn draw(
        &mut self,
        sampler: &TaggedAliasTable,
        estimator: &mut EmaEstimator,
        state: &mut u64,
        n: usize,
        chunked: bool,
    ) -> &[NodeId] {
        let nodes = &mut self.nodes[..n];
        if chunked {
            let (items, tags) = (&mut self.items[..n], &mut self.tags[..n]);
            sampler.sample_chunk(state, items, tags);
            estimator.observe_chunk(items);
            for (node, &tag) in nodes.iter_mut().zip(tags.iter()) {
                *node = NodeId(tag);
            }
        } else {
            for node in nodes.iter_mut() {
                // One fused draw: the item for the estimator and its
                // serving node from the same cache line.
                let (item, tag) = sampler.sample(state);
                estimator.observe(item as usize);
                *node = NodeId(tag);
            }
        }
        nodes
    }

    /// Draws and counts the next `count` requests without serving them
    /// (shed or downtime demand), a chunk at a time.
    fn observe(
        &mut self,
        sampler: &TaggedAliasTable,
        estimator: &mut EmaEstimator,
        state: &mut u64,
        count: u32,
        chunked: bool,
    ) {
        let mut remaining = count as usize;
        while remaining > 0 {
            let n = remaining.min(SERVE_CHUNK);
            self.draw(sampler, estimator, state, n, chunked);
            remaining -= n;
        }
    }
}

/// Interprets a workload-crate [`FaultScenario`] (plain numbers) as a
/// channel-crate [`FaultPlan`] seeded for one slice. `None` if a
/// probability the plan uses lies outside `[0, 1]`, which the plan's
/// constructors refuse; a restore refuses such a channel up front.
fn fault_plan(scenario: Option<&FaultScenario>, seed: u64) -> Option<FaultPlan> {
    let Some(s) = scenario else {
        return Some(FaultPlan::none());
    };
    match s.burst {
        Some(b) => FaultPlan::gilbert_elliott(
            GilbertElliott {
                p_good_to_bad: b.p_good_to_bad,
                p_bad_to_good: b.p_bad_to_good,
                loss_good: b.loss_good,
                loss_bad: b.loss_bad,
            },
            seed,
        )
        .ok(),
        None if s.erasure_p > 0.0 => FaultPlan::erasure(s.erasure_p, seed).ok(),
        None => Some(FaultPlan::none()),
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
            snap.full_rebuilds, snap.rebuilds,
            "every rebuild publishes in full"
        );
        assert_eq!(snap.delta_rebuilds, 0);
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
        // tenant's first full rebuild (its first tree since the image) is
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
    fn only_a_delta_lane_tenant_keeps_a_tree() {
        // The full lane holds no tree after boot, after a rebuild, after
        // a snapshot boot and after a restore, and never a change list:
        // it drains without a list.
        let mut t = TenantRuntime::new(TenantConfig::new(3, 64), 0x7EE);
        assert!(t.tree.is_none());
        t.begin_phase(demand(200), None, SloSpec::lossless(), 9);
        for _ in 0..9 {
            t.run_slice();
        }
        assert_eq!(t.phase_snapshot().full_rebuilds, 1);
        assert!(t.tree.is_none());
        assert_eq!(t.changes.capacity(), 0);
        let image = t.snapshot_image();
        let warm =
            TenantRuntime::from_snapshot(t.config.clone(), 0x7EE, &image.view().unwrap()).unwrap();
        assert!(warm.tree.is_none());
        let mut w = WordWriter::new();
        t.export_state(&mut w, None);
        let words = w.into_words();
        let restored = TenantRuntime::import_state(0x7EE, &mut WordReader::new(&words), &[])
            .expect("a full-lane tenant restores");
        assert!(restored.tree.is_none());

        // The delta lane keeps its boot tree, reweighted in place, across
        // rebuilds.
        let mut config = TenantConfig::new(3, 64);
        config.rebuild_lane = RebuildLane::Delta { max_touched: 0.25 };
        let mut d = TenantRuntime::new(config, 0x7EE);
        d.begin_phase(demand(200), None, SloSpec::lossless(), 9);
        for _ in 0..9 {
            d.run_slice();
        }
        assert_eq!(d.phase_snapshot().rebuilds, 1);
        let tree = d.tree.as_ref().expect("the delta lane keeps its boot tree");
        assert_eq!(tree.data_nodes(), &d.data_nodes[..]);
    }

    #[test]
    fn a_delta_lane_rebuild_publishes_its_reweighted_boot_tree_in_full() {
        // Three cadence rebuilds: each must air exactly what a fresh
        // workspace publishes from the boot tree reweighted to the
        // estimator's published weights. Node ids never change, so the
        // sampler is built once and never re-tagged, and the rebuild's
        // plan stays in the lent workspace, not in the tenant.
        for heuristic in [PublishHeuristic::Sorting, PublishHeuristic::Frontier] {
            for channels in [1usize, 3] {
                let mut config = TenantConfig::new(4, 96);
                config.channels = channels;
                config.heuristic = heuristic;
                config.degradation = None; // cadence rebuilds only
                config.rebuild_lane = RebuildLane::Delta { max_touched: 0.05 };
                let mut work = PublishWorkspace::new();
                let mut t = TenantRuntime::new_in(config, 0xD17A, &mut work);
                let boot_nodes = t.data_nodes.clone();
                t.begin_phase(demand(300), None, SloSpec::lossless(), 24);
                for slice in 1..=24 {
                    let before = t.program.clone();
                    t.run_slice_in(&mut work);
                    if slice % 8 != 0 {
                        continue;
                    }
                    let what = format!("{heuristic:?}, k = {channels}, slice {slice}");
                    let tree = t.tree.as_ref().expect("the delta lane keeps its boot tree");
                    for (item, &node) in t.data_nodes.iter().enumerate() {
                        assert_eq!(tree.weight(node), t.estimator.published()[item], "{what}");
                    }
                    let (mut fresh_work, mut fresh) =
                        (PublishWorkspace::new(), CompiledProgram::default());
                    fresh_work
                        .publish(tree, channels, heuristic, &mut fresh)
                        .unwrap();
                    assert_eq!(t.program, fresh, "{what}");
                    assert_eq!(work.plan(), fresh_work.plan(), "{what}");
                    if slice == 8 {
                        assert_ne!(
                            t.program, before,
                            "{what}: the first rebuild moves the program"
                        );
                    }
                }
                let snap = t.phase_snapshot();
                assert_eq!(
                    (snap.rebuilds, snap.full_rebuilds, snap.delta_rebuilds),
                    (3, 3, 0)
                );
                assert_eq!(snap.alias_rebuilds, 1, "{heuristic:?}, k = {channels}");
                assert_eq!(t.data_nodes, boot_nodes);
            }
        }
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
    /// served from and `data_nodes` the item → node map it served by,
    /// both captured before it ran: the sampler's draws cannot have
    /// changed since it served, but a republish re-tags them.
    fn absorb_twin_slice(
        t: &TenantRuntime,
        program: &CompiledProgram,
        data_nodes: &[NodeId],
        slice_seed: u64,
        rate: u32,
        window: &mut LatencyHistogram,
    ) {
        let opts = ServeOptions {
            threads: 1,
            seed: mix2(slice_seed, 2),
            faults: fault_plan(t.faults.as_ref(), mix2(slice_seed, 3)).unwrap(),
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
            chunk.extend((0..n).map(|_| data_nodes[t.sampler.sample(&mut state).0 as usize]));
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
                let (program, data_nodes) = (t.program.clone(), t.data_nodes.clone());
                let (slice_seed, rate) = (mix2(t.seed, t.slices_run), t.next_rate());
                t.run_slice();
                absorb_twin_slice(&t, &program, &data_nodes, slice_seed, rate, &mut twin);
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

    #[test]
    fn restore_refuses_script_and_policy_values_the_slice_path_cannot_run() {
        use bcast_workloads::BurstProfile;
        const ITEMS: usize = 64;
        fn burst(loss_bad: f64) -> Option<FaultScenario> {
            let brownout = bcast_workloads::brownout_channel().burst.unwrap();
            Some(FaultScenario {
                name: "burst",
                erasure_p: 0.0,
                burst: Some(BurstProfile {
                    loss_bad,
                    ..brownout
                }),
            })
        }
        fn erasure(erasure_p: f64) -> Option<FaultScenario> {
            Some(FaultScenario {
                name: "erasure",
                erasure_p,
                burst: None,
            })
        }
        fn hot(hot_items: usize, hot_mass: f64, offset: usize) -> DemandShape {
            DemandShape::HotSet {
                hot_items,
                hot_mass,
                offset,
            }
        }
        fn zipf(theta: f64) -> DemandShape {
            DemandShape::Zipf { theta }
        }
        let dir = std::env::temp_dir().join(format!("bcast-bad-values-{}", std::process::id()));
        // Each value is written by the checkpoint itself, so the manifest
        // carries a valid CRC and only the restore's own checks stand
        // between it and a tenant that panics or over-allocates once it
        // serves. Values one past a bound must fall back a generation;
        // values at the bound must restore the newest.
        // The largest retry budget whose worst delivered access on the
        // tenant's longest cycle still fits the kernel's `u32`.
        fn last_fitting_retries(t: &TenantRuntime) -> u32 {
            let fits = |max_retries| {
                let policy = RecoveryPolicy {
                    max_retries,
                    ..t.config.recovery
                };
                policy.fits(max_cycle_len(ITEMS))
            };
            let (mut lo, mut hi) = (0u32, u32::MAX);
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if fits(mid) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo
        }
        type Tamper = fn(&mut TenantRuntime);
        let cases: [(&str, bool, Tamper); 20] = [
            ("loss_bad 2.0", false, |t| t.faults = burst(2.0)),
            ("loss_bad 1.0", true, |t| t.faults = burst(1.0)),
            ("erasure 1.5", false, |t| t.faults = erasure(1.5)),
            ("erasure 1.0", true, |t| t.faults = erasure(1.0)),
            ("theta NaN", false, |t| t.demand.shape = zipf(f64::NAN)),
            ("theta -1", false, |t| t.demand.shape = zipf(-1.0)),
            ("theta 0", true, |t| t.demand.shape = zipf(0.0)),
            ("empty hot block", false, |t| {
                t.demand.shape = hot(0, 0.5, 0)
            }),
            ("hot block past items", false, |t| {
                t.demand.shape = hot(ITEMS + 1, 0.5, 0)
            }),
            ("hot mass 1.5", false, |t| t.demand.shape = hot(4, 1.5, 0)),
            ("all-zero pmf", false, |t| {
                t.demand.shape = hot(ITEMS, 0.0, 0)
            }),
            ("whole-catalog hot block", true, |t| {
                t.demand.shape = hot(ITEMS, 1.0, 0)
            }),
            ("offset usize::MAX", true, |t| {
                t.demand.shape = hot(4, 0.9, usize::MAX)
            }),
            ("backoff cap 64", false, |t| {
                t.config.recovery.backoff_cap = 64
            }),
            ("backoff cap 63", true, |t| {
                t.config.recovery.backoff_cap = 63
            }),
            ("replicas 2 x items + 1", false, |t| {
                t.config.recovery.root_replicas = 2 * ITEMS as u32 + 1
            }),
            ("replicas 2 x items", true, |t| {
                t.config.recovery.root_replicas = 2 * ITEMS as u32
            }),
            ("max_retries u32::MAX", false, |t| {
                t.config.recovery.max_retries = u32::MAX
            }),
            ("max_retries past the bound", false, |t| {
                t.config.recovery.max_retries = last_fitting_retries(t) + 1
            }),
            ("max_retries at the bound", true, |t| {
                t.config.recovery.max_retries = last_fitting_retries(t)
            }),
        ];
        for (what, restores, tamper) in cases {
            let _ = std::fs::remove_dir_all(&dir);
            let mut svc = crate::ServeLoop::new(7, 1);
            svc.join(TenantConfig::new(0, ITEMS));
            let brownout = Some(bcast_workloads::brownout_channel());
            let slo = SloSpec::degraded(0.5, 8.0);
            svc.tenants_mut()[0].begin_phase(demand(500), brownout, slo, 4);
            svc.run_slices(1);
            svc.checkpoint(&dir).unwrap();
            svc.run_slices(1);
            tamper(&mut svc.tenants_mut()[0]);
            svc.checkpoint(&dir).unwrap();
            let mut restored = crate::ServeLoop::restore(&dir, 1).unwrap();
            let newest = if restores { 2 } else { 1 };
            assert_eq!(restored.slices_run(), newest, "{what}");
            restored.run_slices(1);
            assert!(!restored.tenants()[0].is_quarantined(), "{what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_request_paths_serve_bit_identically_across_a_rebuild() {
        // The size rule only picks how a slice draws and counts, so
        // forcing either side on the same tenant must change nothing:
        // not the window, and not the estimator the slice-8 full
        // republish publishes from. Slice 10 sheds part of its demand.
        let run = |chunked: bool| {
            let mut t = TenantRuntime::new(TenantConfig::new(5, 200), 0xC4A);
            t.begin_phase(demand(700), None, SloSpec::lossless(), 12);
            let mut snaps = Vec::new();
            for slice in 0..12 {
                if slice == 10 {
                    t.set_admitted_cap(Some(300));
                }
                t.run_slice_on(&mut PublishWorkspace::new(), chunked);
                snaps.push(t.phase_snapshot());
            }
            let mut estimator = WordWriter::new();
            t.estimator.export_state(&mut estimator);
            (snaps, estimator.into_words())
        };
        let fused = run(false);
        assert_eq!(fused, run(true));
        let last = fused.0.last().unwrap();
        assert_eq!(last.full_rebuilds, 1, "{last:?}");
        assert_eq!(last.shed_requests, 400, "{last:?}");
    }

    #[test]
    fn a_checkpoint_right_after_a_full_republish_restores_that_slice() {
        // Slice 8 ends in the periodic full republish, which re-mints
        // every node id: it must re-tag the sampler on the spot, and the
        // checkpoint taken right after it must restore that slice.
        let dir = std::env::temp_dir().join(format!("bcast-stale-tags-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc = crate::ServeLoop::new(11, 1);
        svc.join(TenantConfig::new(0, 64));
        svc.tenants_mut()[0].begin_phase(demand(500), None, SloSpec::lossless(), 16);
        svc.run_slices(4);
        svc.checkpoint(&dir).unwrap();
        svc.run_slices(4);
        let t = &svc.tenants()[0];
        assert_eq!(t.phase_snapshot().full_rebuilds, 1);
        let mut state = 0x7A6;
        for _ in 0..1_000 {
            let (item, tag) = t.sampler.sample(&mut state);
            assert_eq!(
                tag, t.data_nodes[item as usize].0,
                "tags match the program on air"
            );
        }
        svc.checkpoint(&dir).unwrap();
        let mut restored = crate::ServeLoop::restore(&dir, 1).unwrap();
        assert_eq!(restored.slices_run(), 8, "the newest manifest restores");
        svc.run_slices(4);
        restored.run_slices(4);
        assert_eq!(
            restored.tenants()[0].phase_snapshot(),
            svc.tenants()[0].phase_snapshot()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_refuses_a_non_finite_estimate() {
        use bcast_channel::snapshot::{read_word_file, write_word_file};
        let dir = std::env::temp_dir().join(format!("bcast-inf-estimate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc = crate::ServeLoop::new(7, 1);
        svc.join(TenantConfig::new(0, 64));
        svc.tenants_mut()[0].begin_phase(demand(500), None, SloSpec::lossless(), 4);
        svc.run_slices(1);
        svc.checkpoint(&dir).unwrap();
        svc.run_slices(1);
        let newest = svc.checkpoint(&dir).unwrap();

        // Make item 0's estimate +inf in the newest manifest, in place,
        // and re-seal its CRC, so only the estimator's own check can
        // catch it. The slice's roll left no counts, so the estimate run
        // starts at word 6 (alpha, epochs, a zero count of count pairs):
        // its length, then the control word of a literal batch whose
        // first value is item 0's.
        let mut w = WordWriter::new();
        svc.tenants()[0].estimator.export_state(&mut w);
        let good = w.into_words();
        assert_eq!(good[4..6], [0, 0], "no counts pending");
        assert_eq!(good[9] >> 31, 0, "a literal batch leads the run");
        let mut bad = good.clone();
        let inf = f64::INFINITY.to_bits();
        bad[10..12].copy_from_slice(&[inf as u32, (inf >> 32) as u32]);
        let mut words = read_word_file(&newest).unwrap();
        let at = words
            .windows(good.len())
            .position(|run| run == good)
            .expect("the estimator is in the manifest");
        words[at..at + bad.len()].copy_from_slice(&bad);
        let last = words.len() - 1;
        words[last] = bcast_types::crc::crc32c(&words[..last]);
        write_word_file(&newest, &words).unwrap();

        let restored = crate::ServeLoop::restore(&dir, 1).unwrap();
        assert_eq!(
            restored.slices_run(),
            1,
            "fell back to the older generation"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_refuses_a_window_histogram_larger_than_the_tree_allows() {
        let mut t = TenantRuntime::new(TenantConfig::new(2, 48), 0x5EED);
        t.begin_phase(demand(200), None, SloSpec::lossless(), 4);
        t.run_slice();
        let mut w = WordWriter::new();
        t.export_state(&mut w, None);
        let words = w.into_words();
        let restore =
            |words: &[u32]| TenantRuntime::import_state(0x5EED, &mut WordReader::new(words), &[]);
        assert!(restore(&words).is_some(), "the untampered state restores");

        // Make the histogram's header claim 2^40 buckets (an 8 TiB
        // array), u64::MAX, or one more than the catalog allows: the
        // restore must fail closed instead of aborting on the allocation.
        let mut w = WordWriter::new();
        t.window.hist.export_state(&mut w);
        let good = w.into_words();
        let at = words
            .windows(good.len())
            .position(|run| run == good)
            .expect("the window histogram is in the stream");
        for buckets in [1u64 << 40, u64::MAX, max_window_buckets(48) as u64 + 1] {
            let mut bad = words.clone();
            bad[at..at + 2].copy_from_slice(&[buckets as u32, (buckets >> 32) as u32]);
            assert!(restore(&bad).is_none(), "{buckets} buckets");
        }
    }
}
