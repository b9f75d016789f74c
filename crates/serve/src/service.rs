//! The multi-tenant event loop: a roster of [`TenantRuntime`]s advanced
//! in lock-step time slices across a persistent worker pool.
//!
//! Parallelism is pure partitioning: tenants are self-contained (every
//! random draw derives from the tenant's own seed), workers get disjoint
//! sets of tenants, and no state is merged across tenants — so the loop
//! produces bit-identical results at any thread count, and `threads == 1`
//! never spawns at all.
//!
//! Two execution properties distinguish the steady state from a naive
//! scoped-spawn loop:
//!
//! * **Persistent workers.** A slice is a few hundred microseconds of
//!   work; spawning OS threads per slice costs a comparable amount of
//!   kernel time. The loop parks a [`WorkerPool`] for its lifetime and
//!   wakes it with an epoch handshake each slice ([`ServeLoop::run_slice`]).
//!   A `threads = 1` loop runs the roster in order on the calling thread;
//!   it is the equivalence oracle the pooled path is property-tested
//!   against.
//! * **Load-balanced lanes.** Tenants are assigned to worker lanes by
//!   deterministic LPT (longest processing time first) over each tenant's
//!   [`cost_hint`](TenantRuntime::cost_hint) — an EWMA of its scripted
//!   request rate — instead of contiguous roster chunks, so one hot
//!   tenant no longer serializes a whole chunk's neighbors behind it.
//!   The assignment is a pure function of deterministic hints, and lane
//!   placement cannot affect any tenant's outcome anyway (isolation), so
//!   scheduling is free to chase balance.
//! * **One rebuild workspace per lane.** A full republish writes a
//!   workspace's worth of buffers (sort keys, order, slot plan, placement
//!   columns, a spare route table) and then leaves them idle until the
//!   next one. The loop keeps one [`PublishWorkspace`] per lane and lends
//!   it to each tenant the lane runs, for the boot publish in
//!   [`join`](ServeLoop::join) and for every full rebuild, so a tenant
//!   keeps only the program it serves. Lanes run their tenants one after
//!   another, so one set of buffers per lane is all the roster ever uses
//!   at once.

use crate::checkpoint::{read_heuristic, write_heuristic, CheckpointError};
use crate::tenant::{mix2, RebuildLane, TenantConfig, TenantRuntime};
use bcast_channel::SnapshotImage;
use bcast_core::publish::{PublishHeuristic, PublishWorkspace};
use bcast_types::{WordReader, WordWriter, WorkerPool};

/// Seed salt for the overload shedder's per-slice remainder lottery,
/// keeping its draw stream disjoint from every tenant's request stream
/// (which derives from `mix2(seed, id)` without the salt).
const ADMIT_SALT: u64 = 0x5AED_AD31_7B0D_6E75;

/// The boot-program identity: two tenants whose key matches publish the
/// exact same first program (boot weights are uniform, so the catalog
/// size, tree fanout, channel count and heuristic determine it fully).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BootKey {
    items: usize,
    fanout: usize,
    channels: usize,
    heuristic: PublishHeuristic,
}

/// The boot identity of a tenant config — the cache key for shared boot
/// images, and the key a manifest's by-reference program record resolves
/// through on restore.
pub(crate) fn boot_key(c: &TenantConfig) -> BootKey {
    BootKey {
        items: c.items,
        fanout: c.fanout,
        channels: c.channels,
        heuristic: c.heuristic,
    }
}

/// A boot-cache image pre-decoded once per restore: the compiled
/// program and its data-node catalog, cloned (a pair of memcpys)
/// by every tenant whose manifest block references the image instead of
/// each tenant re-running the column decode and catalog walk on the
/// same bytes.
pub(crate) struct CachedProgram {
    pub(crate) program: bcast_channel::CompiledProgram,
    pub(crate) data_nodes: Vec<bcast_types::NodeId>,
    pub(crate) channels: usize,
}

/// Reused per-slice scheduling buffers — the lane assignment is computed
/// every slice without allocating.
#[derive(Debug, Default)]
struct SchedScratch {
    /// Tenant indices sorted heaviest-first (the LPT order).
    order: Vec<u32>,
    /// Assigned lane per tenant index.
    lane_of: Vec<u32>,
    /// Accumulated cost per lane during assignment.
    lane_load: Vec<u64>,
    /// Tenant indices grouped by lane (counting-sorted, roster order
    /// within a lane).
    perm: Vec<u32>,
    /// Lane group boundaries into `perm` (`starts[l]..starts[l + 1]`).
    starts: Vec<u32>,
    /// Write cursors for the counting sort.
    cursor: Vec<u32>,
}

/// Shared mutable access to the tenant array for the pool closure. Lanes
/// index **disjoint** tenant sets (the counting-sorted permutation
/// partitions `0..n`), so no element is touched by two lanes.
struct TenantsPtr(*mut TenantRuntime);
// SAFETY: see above — all concurrent accesses go to disjoint elements.
unsafe impl Sync for TenantsPtr {}

/// Shared mutable access to the per-lane rebuild workspaces for the pool
/// closure. Lane `l` touches only workspace `l`, and the pool runs each
/// lane index exactly once per job, so no element is touched by two
/// lanes.
struct WorkspacesPtr(*mut PublishWorkspace);
// SAFETY: see above — every lane reaches one distinct element, which
// holds only plain buffers.
unsafe impl Sync for WorkspacesPtr {}

/// Wall-clock execution statistics of the serving loop's worker pool — a
/// side channel for operators and benches, never part of a deterministic
/// outcome (lane busy times are wall time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Pool lanes (caller thread included); `1` when running sequentially.
    pub workers: usize,
    /// Cumulative busy nanoseconds per lane since the pool started.
    pub busy_ns: Vec<u64>,
    /// Load imbalance across lanes in parts-per-million:
    /// `(max − min) · 10⁶ / max` over `busy_ns` (`0` = perfectly even,
    /// also `0` before any pooled slice ran).
    pub imbalance_ppm: u64,
    /// Slices executed through the pooled load-balanced path.
    pub scheduled_slices: u64,
}

/// A live multi-tenant serving loop.
#[derive(Debug)]
pub struct ServeLoop {
    tenants: Vec<TenantRuntime>,
    seed: u64,
    threads: usize,
    next_id: u64,
    slices_run: u64,
    /// Boot snapshot images by config identity: the first tenant of a
    /// given shape pays the boot publish and deposits its image; every
    /// later join of the same shape cold-starts from the image in
    /// microseconds. Scenario churn phases are exactly this pattern.
    boot_images: Vec<(BootKey, SnapshotImage)>,
    /// Joins served from the cache (lifetime).
    snapshot_boots: u64,
    /// Persistent workers, created on the first pooled slice and parked
    /// between slices for the life of the loop.
    pool: Option<WorkerPool>,
    sched: SchedScratch,
    scheduled_slices: u64,
    /// Per-slice request budget across the whole roster; `None` admits
    /// everything. See [`set_slice_budget`](Self::set_slice_budget).
    slice_budget: Option<u64>,
    /// Scratch for the shedder's water-filling pass (tenant indices in
    /// rate order, then clipped indices in lottery order).
    admit_order: Vec<u32>,
    /// Scratch: per-roster-index admitted cap for the coming slice
    /// (`u64::MAX` = uncapped).
    admit_caps: Vec<u64>,
    /// One rebuild workspace per lane (index = pool lane; lane 0 also
    /// serves the sequential path and boot publishes), made when a lane
    /// is first needed and sized by its first publish. Execution-side
    /// like the pool: never checkpointed, dropped with the loop.
    workspaces: Vec<PublishWorkspace>,
}

impl ServeLoop {
    /// An empty loop. `seed` roots every tenant's derived seed; `threads`
    /// is the worker count for [`run_slice`](Self::run_slice) (`0` and
    /// `1` both mean sequential — results never depend on it).
    pub fn new(seed: u64, threads: usize) -> Self {
        ServeLoop {
            tenants: Vec::new(),
            seed,
            threads,
            next_id: 0,
            slices_run: 0,
            boot_images: Vec::new(),
            snapshot_boots: 0,
            pool: None,
            sched: SchedScratch::default(),
            scheduled_slices: 0,
            slice_budget: None,
            admit_order: Vec::new(),
            admit_caps: Vec::new(),
            workspaces: Vec::new(),
        }
    }

    /// Makes the rebuild workspaces of the first `lanes` lanes that are
    /// not made yet. A new workspace holds no buffers until it publishes.
    fn make_workspaces(&mut self, lanes: usize) {
        if self.workspaces.len() < lanes {
            self.workspaces.resize_with(lanes, PublishWorkspace::new);
        }
    }

    /// Caps the total requests admitted per slice across the roster.
    /// When the roster's scripted demand exceeds the budget, admission
    /// water-fills: every tenant at or below its fair share keeps its
    /// full rate (bit-identical to serving solo), and only over-quota
    /// tenants are clipped to the common level, with the remainder
    /// distributed one request each by a seeded per-slice lottery. Shed
    /// requests still count against the tenant's delivery rate (surfaced
    /// as [`shed_requests`](bcast_types::SloSnapshot::shed_requests)),
    /// so the existing SLO floor catches sustained overload.
    ///
    /// Deterministic: admission is a pure function of the roster's
    /// scripted rates, the service seed and the slice counter — thread
    /// count never enters.
    pub fn set_slice_budget(&mut self, budget: Option<u64>) {
        self.slice_budget = budget;
    }

    /// The per-slice admission budget, if one is set.
    pub fn slice_budget(&self) -> Option<u64> {
        self.slice_budget
    }

    /// Computes each tenant's admitted cap for the coming slice (the
    /// water-filling pass described on
    /// [`set_slice_budget`](Self::set_slice_budget)) and arms the caps.
    /// Runs on the caller thread before tenants fan out to lanes.
    fn admit_slice(&mut self) {
        let Some(budget) = self.slice_budget else {
            return;
        };
        let n = self.tenants.len();
        if n == 0 {
            return;
        }
        let total: u64 = self.tenants.iter().map(|t| u64::from(t.next_rate())).sum();
        if total <= budget {
            for t in &mut self.tenants {
                t.set_admitted_cap(None);
            }
            return;
        }
        // Water-fill: walk tenants cheapest-first; whoever fits under
        // the running fair share keeps its full rate, the rest split the
        // remaining budget evenly at the water level.
        let tenants = &self.tenants;
        let order = &mut self.admit_order;
        order.clear();
        order.extend(0..n as u32);
        order.sort_unstable_by_key(|&i| (tenants[i as usize].next_rate(), i));
        self.admit_caps.clear();
        self.admit_caps.resize(n, u64::MAX);
        let mut remaining = budget;
        let mut left = n as u64;
        let mut first_clipped = n;
        for (at, &i) in order.iter().enumerate() {
            let rate = u64::from(tenants[i as usize].next_rate());
            if rate <= remaining / left {
                remaining -= rate;
                left -= 1;
            } else {
                first_clipped = at;
                break;
            }
        }
        if first_clipped < n {
            let level = remaining / left;
            let extra = (remaining % left) as usize;
            // The remainder goes one request each to `extra` clipped
            // tenants, chosen by a seeded per-slice lottery over tenant
            // ids (stable under roster churn, fresh every slice).
            let slice_key = mix2(self.seed ^ ADMIT_SALT, self.slices_run);
            let clipped = &mut order[first_clipped..];
            clipped.sort_unstable_by_key(|&i| (mix2(slice_key, tenants[i as usize].id()), i));
            for (won, &i) in clipped.iter().enumerate() {
                self.admit_caps[i as usize] = level + u64::from(won < extra);
            }
        }
        for (t, &cap) in self.tenants.iter_mut().zip(&self.admit_caps) {
            t.set_admitted_cap((cap != u64::MAX).then(|| cap.min(u64::from(u32::MAX)) as u32));
        }
    }

    /// Boots a tenant and adds it to the roster, keeping the roster
    /// sorted by id. The tenant's seed derives from the service seed and
    /// `config.id` only — never from roster position — so a tenant
    /// behaves identically whether it serves alone or among neighbors.
    ///
    /// The boot path picks itself: if an earlier join with the same
    /// boot identity (items, fanout, channels, heuristic) deposited a
    /// snapshot image, a full-lane tenant cold-starts from it through
    /// the real binary round-trip ([`TenantRuntime::from_snapshot`]) —
    /// bit-identical serving, microseconds instead of a publish. The
    /// first join of each shape pays the boot publish and deposits its
    /// image for the rest. A cold boot publishes through lane 0's
    /// rebuild workspace.
    ///
    /// # Panics
    /// Panics if a tenant with the same id is already on the roster.
    pub fn join(&mut self, config: TenantConfig) -> u64 {
        let id = config.id;
        assert!(
            self.tenant(id).is_none(),
            "tenant id {id} already on the roster"
        );
        self.next_id = self.next_id.max(id + 1);
        let key = boot_key(&config);
        let cached = (config.rebuild_lane == RebuildLane::Full)
            .then(|| self.boot_images.iter().find(|(k, _)| *k == key))
            .flatten();
        let runtime = match cached {
            Some((_, image)) => {
                let view = image.view().expect("cached boot images are self-captured");
                let t = TenantRuntime::from_snapshot(config, self.seed, &view)
                    .expect("cached boot image matches the config it was keyed by");
                self.snapshot_boots += 1;
                t
            }
            None => {
                self.make_workspaces(1);
                let t = TenantRuntime::new_in(config, self.seed, &mut self.workspaces[0]);
                if t.config().rebuild_lane == RebuildLane::Full {
                    self.boot_images.push((key, t.snapshot_image()));
                }
                t
            }
        };
        let at = self.tenants.partition_point(|t| t.id() < id);
        self.tenants.insert(at, runtime);
        id
    }

    /// Joins served from the boot-image cache over the loop's lifetime.
    pub fn snapshot_boots(&self) -> u64 {
        self.snapshot_boots
    }

    /// The next unused tenant id (for churn scripts that join anonymous
    /// tenants).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Removes a tenant from the roster. Returns `false` if no tenant
    /// with that id is present.
    pub fn leave(&mut self, id: u64) -> bool {
        match self.position(id) {
            Some(at) => {
                self.tenants.remove(at);
                true
            }
            None => false,
        }
    }

    /// The roster index of tenant `id`: a binary search, since
    /// [`join`](Self::join) keeps the roster sorted by id and a restore
    /// refuses one that is not.
    fn position(&self, id: u64) -> Option<usize> {
        self.tenants.binary_search_by_key(&id, |t| t.id()).ok()
    }

    /// The roster, in ascending id order.
    pub fn tenants(&self) -> &[TenantRuntime] {
        &self.tenants
    }

    /// Mutable roster access (for per-phase scripting).
    pub fn tenants_mut(&mut self) -> &mut [TenantRuntime] {
        &mut self.tenants
    }

    /// One tenant by id.
    pub fn tenant(&self, id: u64) -> Option<&TenantRuntime> {
        self.position(id).map(|i| &self.tenants[i])
    }

    /// One tenant by id, mutably.
    pub fn tenant_mut(&mut self, id: u64) -> Option<&mut TenantRuntime> {
        self.position(id).map(|i| &mut self.tenants[i])
    }

    /// Slices the loop has run.
    pub fn slices_run(&self) -> u64 {
        self.slices_run
    }

    /// The service seed every tenant's randomness derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Advances every tenant by one time slice.
    ///
    /// With more than one thread and more than one tenant, tenants are
    /// assigned to the persistent pool's lanes by deterministic LPT over
    /// their cost hints and executed in parallel; otherwise the roster
    /// runs sequentially on the calling thread. Either way the result is
    /// bit-identical to every other thread count — lanes own disjoint
    /// tenants and tenants are self-contained. Each lane lends its rebuild
    /// workspace to the tenants it runs, one after another.
    pub fn run_slice(&mut self) {
        self.admit_slice();
        let lanes = self.threads.clamp(1, self.tenants.len().max(1));
        if lanes <= 1 {
            self.make_workspaces(1);
            let work = &mut self.workspaces[0];
            for t in &mut self.tenants {
                t.run_slice_in(work);
            }
        } else {
            let pool_lanes = self.threads;
            self.schedule(lanes, pool_lanes);
            self.make_workspaces(pool_lanes);
            let works = WorkspacesPtr(self.workspaces.as_mut_ptr());
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(pool_lanes));
            let base = TenantsPtr(self.tenants.as_mut_ptr());
            // Capture the `Sync` wrappers by reference, not their
            // raw-pointer fields (closure field-capture would otherwise
            // grab the non-`Sync` pointers themselves).
            let (base, works) = (&base, &works);
            let perm = &self.sched.perm;
            let starts = &self.sched.starts;
            pool.run(|lane| {
                let lo = starts[lane] as usize;
                let hi = starts[lane + 1] as usize;
                // SAFETY: the pool runs each lane index in
                // `0..pool_lanes` exactly once, and `workspaces` holds at
                // least `pool_lanes` of them, so this lane's is in bounds
                // and no other lane reaches it.
                let work = unsafe { &mut *works.0.add(lane) };
                for &ti in &perm[lo..hi] {
                    // SAFETY: `perm` is a permutation of the roster
                    // partitioned by lane, so every tenant index is
                    // visited by exactly one lane — accesses through the
                    // shared base pointer are disjoint.
                    unsafe { (*base.0.add(ti as usize)).run_slice_in(work) };
                }
            });
            self.scheduled_slices += 1;
        }
        self.slices_run += 1;
    }

    /// Assigns each tenant to one of `lanes` lanes by LPT: walk tenants
    /// heaviest-hint-first, always placing onto the least-loaded lane
    /// (ties → lowest lane). `pool_lanes ≥ lanes` sizes the boundary
    /// array — lanes past `lanes` get empty groups, which the pool
    /// tolerates (a roster smaller than the pool leaves workers idle).
    /// All buffers are retained scratch; no allocation in steady state.
    fn schedule(&mut self, lanes: usize, pool_lanes: usize) {
        let n = self.tenants.len();
        let tenants = &self.tenants;
        let s = &mut self.sched;
        s.order.clear();
        s.order.extend(0..n as u32);
        s.order
            .sort_unstable_by_key(|&i| (std::cmp::Reverse(tenants[i as usize].cost_hint()), i));
        s.lane_load.clear();
        s.lane_load.resize(lanes, 0);
        s.lane_of.clear();
        s.lane_of.resize(n, 0);
        for &i in &s.order {
            let lane = s
                .lane_load
                .iter()
                .enumerate()
                .min_by_key(|&(l, &c)| (c, l))
                .map(|(l, _)| l)
                .expect("lanes >= 1");
            s.lane_of[i as usize] = lane as u32;
            s.lane_load[lane] += tenants[i as usize].cost_hint();
        }
        // Counting-sort tenant indices by lane (roster order within each
        // lane group) so each lane walks one contiguous run of `perm`.
        s.starts.clear();
        s.starts.resize(pool_lanes + 1, 0);
        for &l in &s.lane_of {
            s.starts[l as usize + 1] += 1;
        }
        for k in 1..s.starts.len() {
            s.starts[k] += s.starts[k - 1];
        }
        s.cursor.clear();
        s.cursor.extend_from_slice(&s.starts);
        s.perm.clear();
        s.perm.resize(n, 0);
        for (i, &l) in s.lane_of.iter().enumerate() {
            let at = s.cursor[l as usize];
            s.perm[at as usize] = i as u32;
            s.cursor[l as usize] += 1;
        }
    }

    /// Runs `n` consecutive slices.
    pub fn run_slices(&mut self, n: u32) {
        for _ in 0..n {
            self.run_slice();
        }
    }

    /// Wall-clock pool statistics (see [`PoolStats`]). Before any pooled
    /// slice has run — including always-sequential loops — reports one
    /// idle lane with no busy time.
    pub fn pool_stats(&self) -> PoolStats {
        let (workers, busy_ns) = match &self.pool {
            Some(p) => (p.size(), p.busy_ns()),
            None => (1, Vec::new()),
        };
        let max = busy_ns.iter().copied().max().unwrap_or(0);
        let min = busy_ns.iter().copied().min().unwrap_or(0);
        let imbalance_ppm = (max - min)
            .saturating_mul(1_000_000)
            .checked_div(max)
            .unwrap_or(0);
        PoolStats {
            workers,
            busy_ns,
            imbalance_ppm,
            scheduled_slices: self.scheduled_slices,
        }
    }

    /// Lifetime requests offered across the whole roster (tenants that
    /// already left are not counted).
    pub fn total_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.total_requests()).sum()
    }

    /// Serializes the full deterministic service state — everything the
    /// slice loop consumes — into the manifest word stream. The worker
    /// pool, scheduler scratch, rebuild workspaces and wall-clock stats
    /// are execution-side and excluded (a restore at a different thread
    /// count is still bit-identical).
    ///
    /// # Errors
    /// [`CheckpointError::DeltaLaneUnsupported`] if any tenant rebuilds
    /// through the delta lane.
    pub(crate) fn export_state(&self, w: &mut WordWriter) -> Result<(), CheckpointError> {
        if self
            .tenants
            .iter()
            .any(|t| t.config().rebuild_lane != RebuildLane::Full)
        {
            return Err(CheckpointError::DeltaLaneUnsupported);
        }
        w.u64(self.seed);
        w.u64(self.next_id);
        w.u64(self.slices_run);
        w.u64(self.snapshot_boots);
        w.opt_u64(self.slice_budget);
        // The boot-image cache is part of the deterministic state:
        // churn joins after a restore must hit (or miss) the cache
        // exactly as the uninterrupted run would, and `snapshot_loads`
        // is fingerprinted.
        w.u64(self.boot_images.len() as u64);
        for (key, image) in &self.boot_images {
            w.u64(key.items as u64);
            w.u64(key.fanout as u64);
            w.u64(key.channels as u64);
            write_heuristic(w, key.heuristic);
            w.u32_slice(image.words());
        }
        // The roster follows, one tenant after another: restore reads
        // them front to back.
        w.u64(self.tenants.len() as u64);
        for t in &self.tenants {
            let key = boot_key(t.config());
            let boot = self
                .boot_images
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, image)| image);
            t.export_state(w, boot);
        }
        Ok(())
    }

    /// Builds every tenant's demand sampler from its restored demand
    /// shape and item → node map. A restore calls it after it has freed
    /// the manifest buffer, so the samplers' columns and build
    /// temporaries reuse that buffer's memory instead of lying between
    /// the decoded tenants; DESIGN §13.1 gives what that does to the
    /// peak memory of a process that restores.
    pub(crate) fn build_samplers(&mut self) {
        for t in &mut self.tenants {
            t.build_sampler();
        }
    }

    /// Rebuilds a service from [`export_state`](Self::export_state)'s
    /// word stream, tenant by tenant in roster order. Fails closed
    /// (`None`) on any truncation or invariant violation — a roster out
    /// of id order, a boot image that does not self-validate, a tenant
    /// that does not decode. `threads` comes from the caller, not the
    /// manifest: it sizes the restored loop's pool. Every element takes
    /// at least one word, so a count above the words that remain is
    /// refused, and nothing is reserved ahead of the elements decoded.
    pub(crate) fn import_state(r: &mut WordReader<'_>, threads: usize) -> Option<ServeLoop> {
        let seed = r.u64()?;
        let next_id = r.u64()?;
        let slices_run = r.u64()?;
        let snapshot_boots = r.u64()?;
        let slice_budget = r.opt_u64()?;
        let n_images = r.count(r.remaining())?;
        let mut boot_images = Vec::new();
        let mut boot_programs = Vec::new();
        for _ in 0..n_images {
            let key = BootKey {
                items: usize::try_from(r.u64()?).ok()?,
                fanout: usize::try_from(r.u64()?).ok()?,
                channels: usize::try_from(r.u64()?).ok()?,
                heuristic: read_heuristic(r)?,
            };
            let image = SnapshotImage::from_words(r.u32_slice()?.to_vec());
            // Validate and decode the image exactly once here; every
            // tenant that references it clones the result instead of
            // re-walking the same megabytes.
            let view = image.view().ok()?;
            if boot_images.iter().any(|(k, _)| *k == key) {
                return None;
            }
            boot_programs.push((
                key,
                CachedProgram {
                    program: view.to_program(),
                    data_nodes: view.data_nodes().collect(),
                    channels: key.channels,
                },
            ));
            boot_images.push((key, image));
        }
        let n_tenants = r.count(r.remaining())?;
        let mut tenants: Vec<TenantRuntime> = Vec::new();
        for _ in 0..n_tenants {
            let t = TenantRuntime::import_state(seed, r, &boot_programs)?;
            if t.id() >= next_id || tenants.last().is_some_and(|prev| prev.id() >= t.id()) {
                return None;
            }
            tenants.push(t);
        }
        Some(ServeLoop {
            tenants,
            seed,
            threads,
            next_id,
            slices_run,
            boot_images,
            snapshot_boots,
            pool: None,
            sched: SchedScratch::default(),
            scheduled_slices: 0,
            slice_budget,
            admit_order: Vec::new(),
            admit_caps: Vec::new(),
            workspaces: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_types::SloSpec;
    use bcast_workloads::{DemandShape, DemandSpec};

    fn demand(rate: u32) -> DemandSpec {
        DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, rate)
    }

    fn boot(threads: usize, tenants: u64) -> ServeLoop {
        let mut svc = ServeLoop::new(0x5EED, threads);
        for id in 0..tenants {
            svc.join(TenantConfig::new(id, 32));
            svc.tenant_mut(id)
                .unwrap()
                .begin_phase(demand(120), None, SloSpec::lossless(), 6);
        }
        svc
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let snapshots = |threads: usize| {
            let mut svc = boot(threads, 5);
            svc.run_slices(6);
            svc.tenants()
                .iter()
                .map(|t| (t.id(), t.phase_snapshot()))
                .collect::<Vec<_>>()
        };
        let one = snapshots(1);
        assert_eq!(one, snapshots(2));
        assert_eq!(one, snapshots(4));
        assert_eq!(one, snapshots(16), "more threads than tenants");
    }

    #[test]
    fn pooled_executor_matches_the_scoped_oracle() {
        // The oracle is the `threads = 1` twin: the roster in order on the
        // calling thread.
        for threads in [1usize, 2, 4] {
            let mut pooled = boot(threads, 5);
            let mut oracle = boot(1, 5);
            for _ in 0..6 {
                pooled.run_slice();
                oracle.run_slice();
            }
            assert_eq!(snap(&pooled), snap(&oracle), "threads = {threads}");
            assert_eq!(pooled.slices_run(), oracle.slices_run());
        }
    }

    #[test]
    fn fewer_tenants_than_threads_leaves_lanes_empty() {
        // Regression: the old chunked split could produce fewer chunks
        // than workers; the pooled scheduler must tolerate a roster
        // smaller than the pool (idle lanes) and still match sequential.
        let mut wide = boot(8, 3);
        let mut narrow = boot(1, 3);
        for _ in 0..6 {
            wide.run_slice();
            narrow.run_slice();
        }
        let snap = |svc: &ServeLoop| {
            svc.tenants()
                .iter()
                .map(|t| (t.id(), t.phase_snapshot()))
                .collect::<Vec<_>>()
        };
        assert_eq!(snap(&wide), snap(&narrow));
        // Mid-run shrink to a single tenant: pooled path degrades to
        // sequential without touching the parked pool.
        wide.leave(1);
        wide.leave(2);
        narrow.leave(1);
        narrow.leave(2);
        for _ in 0..3 {
            wide.run_slice();
            narrow.run_slice();
        }
        assert_eq!(snap(&wide), snap(&narrow));
    }

    #[test]
    fn roster_position_does_not_change_a_tenant() {
        // Tenant 3 solo vs tenant 3 among neighbors: bit-identical.
        let mut solo = ServeLoop::new(9, 1);
        solo.join(TenantConfig::new(3, 24));
        solo.tenant_mut(3)
            .unwrap()
            .begin_phase(demand(90), None, SloSpec::lossless(), 5);
        solo.run_slices(5);

        let mut svc = ServeLoop::new(9, 2);
        for id in [0u64, 1, 3, 6] {
            svc.join(TenantConfig::new(id, 24));
            svc.tenant_mut(id)
                .unwrap()
                .begin_phase(demand(90), None, SloSpec::lossless(), 5);
        }
        svc.run_slices(5);
        assert_eq!(
            solo.tenant(3).unwrap().phase_snapshot(),
            svc.tenant(3).unwrap().phase_snapshot()
        );
    }

    #[test]
    fn boot_image_cache_serves_same_shape_joins() {
        let svc = boot(1, 5);
        // First join of the shape pays the publish; the other four
        // cold-start from its deposited image.
        assert_eq!(svc.snapshot_boots(), 4);
        let mut mixed = ServeLoop::new(1, 1);
        mixed.join(TenantConfig::new(0, 32));
        mixed.join(TenantConfig::new(1, 48));
        assert_eq!(mixed.snapshot_boots(), 0, "different shapes never share");
        mixed.join(TenantConfig::new(2, 48));
        assert_eq!(mixed.snapshot_boots(), 1);
    }

    #[test]
    fn snapshot_image_captures_cache_booted_and_restored_tenants() {
        // A cache-booted or restored tenant holds no tree; capturing it
        // must still record the program on air with the full catalog.
        let images = |svc: &ServeLoop| -> Vec<Vec<u32>> {
            svc.tenants()
                .iter()
                .map(|t| t.snapshot_image().words().to_vec())
                .collect()
        };
        let restore = |svc: &ServeLoop| {
            let mut w = WordWriter::new();
            svc.export_state(&mut w).unwrap();
            let words = w.into_words();
            ServeLoop::import_state(&mut WordReader::new(&words), 1)
                .expect("self-exported state must import")
        };
        let mut svc = ServeLoop::new(7, 1);
        svc.join(TenantConfig::new(0, 64));
        svc.join(TenantConfig::new(1, 64));
        assert_eq!(svc.snapshot_boots(), 1);
        let boot = images(&svc);
        assert_eq!(
            boot[1], boot[0],
            "the cache-booted twin airs the boot image"
        );
        // Restored by reference to the boot-image cache...
        assert_eq!(images(&restore(&svc)), boot);
        // ...and from embedded images, once both tenants have rebuilt.
        for t in svc.tenants_mut() {
            t.begin_phase(demand(100), None, SloSpec::lossless(), 8);
        }
        svc.run_slices(8);
        let rebuilt = images(&svc);
        assert_ne!(rebuilt[0], boot[0]);
        assert_eq!(images(&restore(&svc)), rebuilt);
    }

    #[test]
    fn churn_keeps_ids_stable_and_unique() {
        let mut svc = boot(1, 3);
        assert_eq!(svc.next_id(), 3);
        svc.leave(1);
        let id = svc.next_id();
        svc.join(TenantConfig::new(id, 32));
        assert_eq!(id, 3, "freed low ids are not recycled");
        assert_eq!(
            svc.tenants().iter().map(|t| t.id()).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        assert!(!svc.leave(99), "unknown id");
    }

    #[test]
    fn id_lookups_stay_correct_across_churn() {
        let mut svc = boot(1, 4);
        // Ids, not roster positions, resolve: remove from the middle,
        // join a high id, then check every survivor.
        svc.leave(1);
        svc.join(TenantConfig::new(40, 32));
        svc.leave(0);
        for id in [2u64, 3, 40] {
            assert_eq!(svc.tenant(id).map(|t| t.id()), Some(id));
            assert_eq!(svc.tenant_mut(id).map(|t| t.id()), Some(id));
        }
        for id in [0u64, 1, 99] {
            assert!(svc.tenant(id).is_none());
            assert!(svc.tenant_mut(id).is_none());
        }
    }

    fn snap(svc: &ServeLoop) -> Vec<(u64, bcast_types::SloSnapshot)> {
        svc.tenants()
            .iter()
            .map(|t| (t.id(), t.phase_snapshot()))
            .collect()
    }

    #[test]
    fn budget_at_or_above_demand_is_a_no_op() {
        let mut capped = boot(1, 4);
        capped.set_slice_budget(Some(4 * 120));
        let mut free = boot(1, 4);
        for _ in 0..6 {
            capped.run_slice();
            free.run_slice();
        }
        assert_eq!(snap(&capped), snap(&free));
        assert!(snap(&capped).iter().all(|(_, s)| s.shed_requests == 0));
    }

    #[test]
    fn shedding_is_deterministic_across_threads_and_executors() {
        // `threads = 1` runs sequentially, the others on the pool.
        let run = |threads: usize| {
            let mut svc = boot(threads, 5);
            svc.set_slice_budget(Some(300));
            svc.run_slices(6);
            snap(&svc)
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
        // 5 tenants at 120 against a budget of 300: every slice admits
        // exactly the budget and sheds the rest, and the floor keeps
        // delivery rate honest.
        let total_shed: u64 = one.iter().map(|(_, s)| s.shed_requests).sum();
        let total_requests: u64 = one.iter().map(|(_, s)| s.requests).sum();
        assert_eq!(total_requests, 5 * 120 * 6);
        assert_eq!(total_shed, (5 * 120 - 300) * 6);
        for (_, s) in &one {
            assert!(s.shed_requests > 0, "uniform roster: everyone clipped");
            assert!(s.delivery_rate() < 0.9, "shedding shows in the SLO");
        }
    }

    #[test]
    fn under_share_tenants_are_untouched_by_neighbors_shedding() {
        // Tenant 3 asks for far less than its fair share; three hot
        // neighbors blow the budget. Water-filling must leave tenant 3
        // bit-identical to serving solo with no budget at all.
        let script = |svc: &mut ServeLoop, id: u64, rate: u32| {
            svc.tenant_mut(id)
                .unwrap()
                .begin_phase(demand(rate), None, SloSpec::lossless(), 6)
        };
        let mut solo = ServeLoop::new(0x5EED, 1);
        solo.join(TenantConfig::new(3, 32));
        script(&mut solo, 3, 50);
        solo.run_slices(6);

        let mut crowded = ServeLoop::new(0x5EED, 2);
        for id in [0u64, 1, 2, 3] {
            crowded.join(TenantConfig::new(id, 32));
            script(&mut crowded, id, if id == 3 { 50 } else { 500 });
        }
        crowded.set_slice_budget(Some(800));
        crowded.run_slices(6);

        let quiet = crowded.tenant(3).unwrap().phase_snapshot();
        assert_eq!(solo.tenant(3).unwrap().phase_snapshot(), quiet);
        assert_eq!(quiet.shed_requests, 0);
        // The hot neighbors split the remaining 750 at the water level.
        for id in [0u64, 1, 2] {
            let s = crowded.tenant(id).unwrap().phase_snapshot();
            assert_eq!(s.requests, 500 * 6);
            assert_eq!(s.shed_requests, 250 * 6);
        }
    }

    #[test]
    fn poisoned_tenant_is_quarantined_and_neighbors_never_notice() {
        crate::silence_chaos_panic_reports();
        let mut clean = boot(2, 4);
        let mut poisoned = boot(2, 4);
        poisoned.tenant_mut(1).unwrap().inject_panic_after(2);
        for _ in 0..6 {
            clean.run_slice();
            poisoned.run_slice();
        }
        for id in [0u64, 2, 3] {
            assert_eq!(
                clean.tenant(id).unwrap().phase_snapshot(),
                poisoned.tenant(id).unwrap().phase_snapshot(),
                "neighbor {id} perturbed by the poisoned tenant"
            );
        }
        let sick = poisoned.tenant(1).unwrap().phase_snapshot();
        assert_eq!(sick.quarantined, 1);
        assert_eq!(sick.readmitted, 1, "probe after backoff readmits");
    }

    #[test]
    fn exported_state_restores_bit_identically_mid_run() {
        let mut svc = boot(2, 5);
        svc.set_slice_budget(Some(400));
        svc.run_slices(3);
        let mut w = WordWriter::new();
        svc.export_state(&mut w).unwrap();
        let words = w.into_words();
        let mut restored = ServeLoop::import_state(&mut WordReader::new(&words), 4)
            .expect("self-exported state must import");
        svc.run_slices(3);
        restored.run_slices(3);
        assert_eq!(svc.slices_run(), restored.slices_run());
        assert_eq!(snap(&svc), snap(&restored));
        assert_eq!(svc.snapshot_boots(), restored.snapshot_boots());
        // Post-restore churn must hit the boot-image cache exactly as
        // the uninterrupted run would.
        let id = restored.next_id();
        assert_eq!(id, svc.next_id());
        svc.join(TenantConfig::new(id, 32));
        restored.join(TenantConfig::new(id, 32));
        assert_eq!(svc.snapshot_boots(), restored.snapshot_boots());
        // Truncation at every cut fails closed, never half-restores.
        for cut in 0..words.len().min(200) {
            assert!(ServeLoop::import_state(&mut WordReader::new(&words[..cut]), 1).is_none());
        }
    }

    #[test]
    fn a_tenant_read_one_word_short_or_long_fails_the_restore_closed() {
        use bcast_channel::snapshot::{read_word_file, write_word_file};
        let dir = std::env::temp_dir().join(format!("bcast-tenant-span-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc = boot(1, 3);
        svc.run_slices(2);
        svc.checkpoint(&dir).unwrap();
        svc.run_slices(2);
        let newest = svc.checkpoint(&dir).unwrap();
        let words = read_word_file(&newest).unwrap();
        // No length prefix marks where a tenant ends, so a tenant whose
        // words gain one (the next part starts a word late) or lose one
        // (it reads into the next part) must still be refused: for the
        // middle tenant and for the last one, whose neighbor is the end
        // of the manifest.
        for id in [1, 2] {
            let t = svc.tenant(id).unwrap();
            let key = boot_key(t.config());
            let cached = svc.boot_images.iter().find(|(k, _)| *k == key);
            let mut w = WordWriter::new();
            t.export_state(&mut w, cached.map(|(_, image)| image));
            let block = w.into_words();
            let at = words
                .windows(block.len())
                .position(|run| run == block)
                .expect("the tenant's words are in the manifest");
            let end = at + block.len();
            let longer = [&words[..end], &[0], &words[end..]].concat();
            let shorter = [&words[..end - 1], &words[end..]].concat();
            for mut tampered in [longer, shorter] {
                let last = tampered.len() - 1;
                tampered[last] = bcast_types::crc::crc32c(&tampered[..last]);
                write_word_file(&newest, &tampered).unwrap();
                let restored = ServeLoop::restore(&dir, 1).unwrap();
                assert_eq!(restored.slices_run(), 2, "tenant {id}: fell back");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_stats_report_lanes_and_busy_time() {
        let mut svc = boot(1, 2);
        svc.run_slices(2);
        let seq = svc.pool_stats();
        assert_eq!(seq.workers, 1, "sequential loop never builds a pool");
        assert_eq!(seq.scheduled_slices, 0);
        assert_eq!(seq.imbalance_ppm, 0);

        let mut svc = boot(2, 4);
        svc.run_slices(4);
        let stats = svc.pool_stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.scheduled_slices, 4);
        assert_eq!(stats.busy_ns.len(), 2);
        assert!(stats.busy_ns.iter().all(|&ns| ns > 0));
        assert!(stats.imbalance_ppm <= 1_000_000);
    }
}
