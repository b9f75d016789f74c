//! The four serving workloads: one `ServeLoop` driven slice by slice, on
//! one thread (steady-hot also replays its warm-up on a 2-lane pool).

use crate::metrics::{self, sorted_median, Fnv, Metrics};
use crate::replay::{Replayer, Stages, TenantReplay};
use crate::trace::{self, timed, Tracer};
use crate::window::{self, Block, Stepper};
use crate::{median_setup_s, Report, RunSpec, Workload};
use bcast_core::DeltaOptions;
use bcast_serve::{RebuildLane, ServeLoop, TenantConfig};
use bcast_types::{SloSnapshot, SloSpec};
use bcast_workloads::{brownout_channel, DemandShape, DemandSpec, FaultScenario};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// drift-republish moves its hot set every this many slices.
const DRIFT_PHASE_SLICES: u64 = 32;
/// Phase length for flat scripts: the rate is constant, so this only has
/// to outlast any run.
const FLAT_PHASE_SLICES: u32 = 1 << 24;
/// lossy-recovery checkpoints at every multiple of this slice count...
const CHECKPOINT_EVERY: u64 = 8;
/// ...and kills and restores the service at every multiple of this one.
const RESTORE_EVERY: u64 = 16;
/// Republish cadence of every tenant whose config keeps the default.
const DEFAULT_REBUILD_EVERY: u64 = 8;
const DRIFT_REBUILD_EVERY: u64 = 4;
const DELTA_MAX_TOUCHED: f64 = 0.05;
/// Slices replayed per tenant in a traced run, each round followed by a
/// real slice: whole republish cadences, so rebuilds enter in proportion,
/// and enough of them (0.2 s on steady-hot) that one burst of the shared
/// machine's other load does not decide the reconciliation.
const REPLAY_SLICES: u32 = 32;
/// Pooled slices a traced steady-hot run reads the pool over.
const POOL_PROBE_SLICES: u32 = 400;

/// Size and pacing of one serving workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    tenants: u64,
    items: usize,
    rate: u32,
    /// Lanes of the pooled twin whose warm-up must match the timed one.
    pool_lanes: usize,
    warmup: u32,
    /// Timed slices whose outcome is fingerprinted and checked.
    prefix: usize,
    /// Slices per block: one cycle of the workload's slowest cadence (the
    /// drift gate, a republish, or kill → restore).
    block: usize,
}

fn shape(w: Workload, scale: u32) -> Option<Shape> {
    // lossy-recovery warms up to slice 23 and its twin check runs slice
    // 24, so its 16-slice blocks end right after the republish that
    // follows each restore: a restored tenant keeps a placeholder tree
    // until then, and the traced run's replay captures the tree.
    let (tenants, items, rate, pool_lanes, warmup, prefix, block) = match w {
        Workload::SteadyHot => (8, 4_096, 40_000, 2, 9, 1_000, 8),
        Workload::Catalog1m => (1, 1_000_000, 125_000, 1, 9, 128, 8),
        Workload::DriftRepublish => (4, 65_536, 20_000, 1, 8, 64, 4),
        Workload::LossyRecovery => (8, 65_536, 5_000, 1, 23, 32, 16),
        Workload::ExactPlan => return None,
    };
    Some(Shape {
        tenants,
        items: items / scale as usize,
        rate: rate / scale,
        pool_lanes,
        warmup,
        prefix,
        block,
    })
}

fn config(w: Workload, id: u64, items: usize) -> TenantConfig {
    let mut c = TenantConfig::new(id, items);
    match w {
        Workload::SteadyHot => c.rebuild_min_drift = Some(0.3),
        Workload::Catalog1m => c.rebuild_min_drift = Some(1.0),
        Workload::DriftRepublish => {
            c.rebuild_every = Some(DRIFT_REBUILD_EVERY);
            c.rebuild_lane = RebuildLane::Delta {
                max_touched: DELTA_MAX_TOUCHED,
            };
        }
        Workload::LossyRecovery | Workload::ExactPlan => {}
    }
    c
}

/// The lower half of lossy-recovery's roster sits on the brownout channel.
fn faults(w: Workload, id: u64, sh: &Shape) -> Option<FaultScenario> {
    (w == Workload::LossyRecovery && id < sh.tenants / 2).then(brownout_channel)
}

/// Demand of phase `phase` (0 = warm-up): drift-republish's hot set
/// advances by items/16 per phase, everything else is Zipf(0.9).
fn demand_shape(w: Workload, items: usize, phase: u64) -> DemandShape {
    match w {
        Workload::DriftRepublish => DemandShape::HotSet {
            hot_items: (items / 8).max(1),
            hot_mass: 0.8,
            offset: (phase as usize * (items / 16)) % items,
        },
        _ => DemandShape::Zipf { theta: 0.9 },
    }
}

fn begin_phase(svc: &mut ServeLoop, w: Workload, sh: &Shape, phase: u64) {
    let demand = DemandSpec::flat(demand_shape(w, sh.items, phase), sh.rate);
    let slices = match w {
        Workload::DriftRepublish => DRIFT_PHASE_SLICES as u32,
        _ => FLAT_PHASE_SLICES,
    };
    for t in svc.tenants_mut() {
        let f = faults(w, t.id(), sh);
        let slo = match f {
            Some(_) => SloSpec::degraded(0.90, 8.0),
            None => SloSpec::lossless(),
        };
        t.begin_phase(demand, f, slo, slices);
    }
}

/// Builds the service from its inputs and runs the warm-up slices.
fn setup(
    w: Workload,
    sh: &Shape,
    seed: u64,
    threads: usize,
    tracer: &mut Option<Tracer>,
) -> ServeLoop {
    let span = trace::open(tracer, "setup");
    let mut svc = ServeLoop::new(seed, threads);
    for id in 0..sh.tenants {
        timed(tracer, "serve_loop.join", || {
            svc.join(config(w, id, sh.items))
        });
    }
    begin_phase(&mut svc, w, sh, 0);
    for _ in 0..sh.warmup {
        timed(tracer, "serve_loop.run_slice", || svc.run_slice());
    }
    trace::close(tracer, span);
    svc
}

fn snapshots(svc: &ServeLoop) -> Vec<(u64, SloSnapshot)> {
    svc.tenants()
        .iter()
        .map(|t| (t.id(), t.phase_snapshot()))
        .collect()
}

/// One tenant's outcome summed over the phases of the timed window.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    requests: u64,
    delivered: u64,
    failed: u64,
    shed: u64,
    retries: u64,
    /// Σ access time over delivered requests (mean × delivered).
    wait_sum: f64,
    /// Largest per-phase p99.
    p99: u32,
    rebuilds: u64,
    degraded_rebuilds: u64,
    downtime: u64,
    delta_rebuilds: u64,
    /// Σ touched_ppm × rebuilds, so phases combine weighted by rebuilds.
    touched_ppm_sum: u64,
    skipped: u64,
    quarantined: u64,
    /// Wall time inside rebuilds (never fingerprinted).
    rebuild_wall_ns: u64,
}

impl Acc {
    fn add(&mut self, s: &SloSnapshot) {
        self.requests += s.requests;
        self.delivered += s.delivered;
        self.failed += s.failed;
        self.shed += s.shed_requests;
        self.retries += s.retries;
        self.wait_sum += s.mean_access_slots * s.delivered as f64;
        self.p99 = self.p99.max(s.p99_slots);
        self.rebuilds += s.rebuilds;
        self.degraded_rebuilds += s.degraded_rebuilds;
        self.downtime += s.rebuild_downtime_slots;
        self.delta_rebuilds += s.delta_rebuilds;
        self.touched_ppm_sum += s.touched_ppm * s.rebuilds;
        self.skipped += s.skipped_rebuilds;
        self.quarantined += s.quarantined;
        self.rebuild_wall_ns += s.rebuild_wall_ns;
    }

    fn fingerprint(&self, f: &mut Fnv) {
        for x in [
            self.requests,
            self.delivered,
            self.failed,
            self.shed,
            self.retries,
            u64::from(self.p99),
            self.rebuilds,
            self.degraded_rebuilds,
            self.downtime,
            self.delta_rebuilds,
            self.touched_ppm_sum,
            self.skipped,
            self.quarantined,
        ] {
            f.u64(x);
        }
        f.f64(self.wait_sum);
    }
}

fn sum<T: std::iter::Sum<T>>(accs: &[Acc], field: impl Fn(&Acc) -> T) -> T {
    accs.iter().map(field).sum()
}

/// Every offered request is delivered, failed or shed, and no tenant
/// ever went without a servable program.
fn check_accounting(accs: &[Acc]) -> Result<(), String> {
    for (id, a) in accs.iter().enumerate() {
        if a.delivered + a.failed + a.shed != a.requests {
            return Err(format!(
                "tenant {id}: delivered {} + failed {} + shed {} != offered {}",
                a.delivered, a.failed, a.shed, a.requests
            ));
        }
        if a.downtime != 0 {
            return Err(format!(
                "tenant {id}: {} slots of rebuild downtime",
                a.downtime
            ));
        }
    }
    Ok(())
}

/// A checkpoint directory under `target/bcast_bench/`, created empty and
/// removed when dropped.
struct CheckpointDir(PathBuf);

impl CheckpointDir {
    fn fresh(w: Workload) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new("target/bcast_bench").join(format!(
            "ckpt-{}-{}-{n}",
            w.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(CheckpointDir(dir))
    }
}

impl Drop for CheckpointDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Pool readings from a run of pooled slices (steady-hot, traced runs).
#[derive(Debug, Default)]
struct PoolTrace {
    lanes: usize,
    slices: u64,
    wall_ns: f64,
    handshake_ns: f64,
    busy_ns: Vec<u64>,
}

impl PoolTrace {
    /// Runs `slices` slices on a pooled service, reading the lanes' busy
    /// time around each.
    fn probe(svc: &mut ServeLoop, slices: u32, tracer: &mut Option<Tracer>) -> PoolTrace {
        let span = trace::open(tracer, "pool.probe");
        let mut pool = PoolTrace::default();
        for _ in 0..slices {
            let before = svc.pool_stats().busy_ns;
            let ((), ns) = timed(tracer, "serve_loop.run_slice", || svc.run_slice());
            let after = svc.pool_stats().busy_ns;
            if before.len() != after.len() || after.is_empty() {
                continue;
            }
            pool.busy_ns.resize(after.len(), 0);
            let mut slowest = 0;
            for (lane, (a, b)) in after.iter().zip(&before).enumerate() {
                let d = a.saturating_sub(*b);
                pool.busy_ns[lane] += d;
                slowest = slowest.max(d);
            }
            pool.lanes = after.len();
            pool.slices += 1;
            pool.wall_ns += ns as f64;
            pool.handshake_ns += (ns as f64 - slowest as f64).max(0.0);
        }
        trace::close(tracer, span);
        pool
    }
}

/// A restore waiting for its first slice (kill → serving ends there).
struct PendingRestore {
    span: Option<usize>,
    started: Instant,
    decode_ms: f64,
}

/// A running serving workload and its accounting.
struct ServiceRun {
    w: Workload,
    sh: Shape,
    svc: ServeLoop,
    /// Current demand phase (0 = warm-up).
    phase: u64,
    phase_slices: u64,
    /// Outcome of the timed window's closed phases, per tenant.
    closed: Vec<Acc>,
    dir: Option<CheckpointDir>,
    start_slice: u64,
    attempted: u64,
    failed: u64,
    steps: usize,
    prefix: Option<Vec<Acc>>,
    /// `VmHWM` when the prefix completed: the peak of a fixed amount of
    /// work, however long the deadline lets the window run.
    prefix_rss_mb: f64,
    /// Checkpoint samples: (write ms, manifest MB).
    checkpoints: Vec<(f64, f64)>,
    /// Restore samples: [decode ms, first slice ms, kill → serving ms].
    restores: Vec<[f64; 3]>,
    pending_restore: Option<PendingRestore>,
}

impl ServiceRun {
    fn new(w: Workload, sh: Shape, svc: ServeLoop, dir: Option<CheckpointDir>) -> Self {
        ServiceRun {
            w,
            sh,
            svc,
            phase: 0,
            phase_slices: 0,
            closed: Vec::new(),
            dir,
            start_slice: 0,
            attempted: 0,
            failed: 0,
            steps: 0,
            prefix: None,
            prefix_rss_mb: 0.0,
            checkpoints: Vec::new(),
            restores: Vec::new(),
            pending_restore: None,
        }
    }

    fn totals(&self) -> Vec<Acc> {
        let mut out = self.closed.clone();
        for (acc, t) in out.iter_mut().zip(self.svc.tenants()) {
            acc.add(&t.phase_snapshot());
        }
        out
    }

    /// Starts the timed window: phase 1, empty outcome windows.
    fn begin_timed(&mut self) {
        self.phase = 1;
        self.phase_slices = 0;
        self.closed = vec![Acc::default(); self.svc.tenants().len()];
        self.start_slice = self.svc.slices_run();
        begin_phase(&mut self.svc, self.w, &self.sh, self.phase);
    }

    /// lossy-recovery's checkpoint directory (`None` elsewhere).
    fn ckpt_dir(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.0.clone())
    }

    fn fail(&mut self, msg: String) -> String {
        self.failed += 1;
        format!(
            "{msg} (ops_attempted {}, ops_failed {})",
            self.attempted, self.failed
        )
    }

    /// The prefix is complete: check it and keep its outcome.
    fn close_prefix(&mut self) -> Result<(), String> {
        let totals = self.totals();
        check_accounting(&totals)?;
        if self.w == Workload::DriftRepublish {
            let end = self.svc.slices_run();
            let cadence = end / DRIFT_REBUILD_EVERY - self.start_slice / DRIFT_REBUILD_EVERY;
            let want = self.sh.tenants * cadence;
            let got = sum(&totals, |a| a.rebuilds);
            if got != want {
                return Err(format!(
                    "{got} rebuilds over the prefix, {want} cadence points"
                ));
            }
        }
        self.prefix = Some(totals);
        self.prefix_rss_mb = metrics::peak_rss_mb()?;
        Ok(())
    }

    fn checkpoint(&mut self, tracer: &mut Option<Tracer>) -> Result<(), String> {
        let Some(dir) = self.ckpt_dir() else {
            return Ok(());
        };
        let slice = self.svc.slices_run();
        self.attempted += 1;
        let (res, ns) = timed(tracer, "serve_loop.checkpoint", || {
            self.svc.checkpoint(&dir)
        });
        let path = match res {
            Ok(p) => p,
            Err(e) => return Err(self.fail(format!("checkpoint at slice {slice} failed: {e}"))),
        };
        let bytes = match std::fs::metadata(&path) {
            Ok(m) => m.len(),
            Err(e) => return Err(self.fail(format!("manifest {path:?} unreadable: {e}"))),
        };
        self.checkpoints.push((ns as f64 / 1e6, bytes as f64 / 1e6));
        Ok(())
    }

    /// Drops the service and restores it from the newest manifest; the
    /// next step's slice completes kill → serving. Fails closed if the
    /// restore errors or resumes anywhere but the slice the newest
    /// checkpoint was taken at.
    fn kill_and_restore(&mut self, tracer: &mut Option<Tracer>) -> Result<(), String> {
        let Some(dir) = self.ckpt_dir() else {
            return Ok(());
        };
        let expected = self.svc.slices_run();
        self.attempted += 1;
        let span = trace::open(tracer, "serve_loop.kill_to_serving");
        let started = Instant::now();
        timed(tracer, "serve_loop.drop", || {
            drop(std::mem::replace(&mut self.svc, ServeLoop::new(0, 1)))
        });
        let (res, decode_ns) = timed(tracer, "serve_loop.restore", || ServeLoop::restore(&dir, 1));
        let restored = match res {
            Ok(s) => s,
            Err(e) => return Err(self.fail(format!("restore at slice {expected} failed: {e}"))),
        };
        if restored.slices_run() != expected {
            let got = restored.slices_run();
            return Err(self.fail(format!(
                "restore resumed at slice {got}, not {expected}: the newest manifest was rejected"
            )));
        }
        self.svc = restored;
        self.pending_restore = Some(PendingRestore {
            span,
            started,
            decode_ms: decode_ns as f64 / 1e6,
        });
        Ok(())
    }

    /// Checkpoints, restores a twin from the manifest, runs one slice on
    /// both and demands equal outcomes. Runs before the timed window.
    fn twin_check(&mut self) -> Result<(), String> {
        let Some(dir) = self.ckpt_dir() else {
            return Ok(());
        };
        self.svc
            .checkpoint(&dir)
            .map_err(|e| format!("twin checkpoint failed: {e}"))?;
        let mut twin =
            ServeLoop::restore(&dir, 1).map_err(|e| format!("twin restore failed: {e}"))?;
        if twin.slices_run() != self.svc.slices_run() {
            return Err("twin restored at the wrong slice".into());
        }
        self.svc.run_slice();
        twin.run_slice();
        if snapshots(&twin) != snapshots(&self.svc) {
            return Err(
                "restored twin diverged from the uninterrupted service after one slice".into(),
            );
        }
        Ok(())
    }
}

impl Stepper for ServiceRun {
    /// One slice, plus lossy-recovery's checkpoint and kill → restore at
    /// their cadence.
    fn step(&mut self, tracer: &mut Option<Tracer>) -> Result<(f64, u64), String> {
        if self.w == Workload::DriftRepublish && self.phase_slices == DRIFT_PHASE_SLICES {
            self.closed = self.totals();
            self.phase += 1;
            self.phase_slices = 0;
            begin_phase(&mut self.svc, self.w, &self.sh, self.phase);
        }
        let ((), ns) = timed(tracer, "serve_loop.run_slice", || self.svc.run_slice());
        let ms = ns as f64 / 1e6;
        let offered = self.sh.tenants * u64::from(self.sh.rate);
        self.phase_slices += 1;
        self.attempted += offered;
        if let Some(p) = self.pending_restore.take() {
            trace::close(tracer, p.span);
            let total_ms = p.started.elapsed().as_secs_f64() * 1e3;
            self.restores.push([p.decode_ms, ms, total_ms]);
        }
        if self.dir.is_some() {
            let s = self.svc.slices_run();
            if s.is_multiple_of(CHECKPOINT_EVERY) {
                self.checkpoint(tracer)?;
            }
            if s.is_multiple_of(RESTORE_EVERY) {
                self.kill_and_restore(tracer)?;
            }
        }
        self.steps += 1;
        if self.steps == self.sh.prefix {
            self.close_prefix()?;
        }
        Ok((ms, offered))
    }

    fn prefix_done(&self) -> bool {
        self.prefix.is_some()
    }
}

/// Runs one serving workload.
pub(crate) fn run(w: Workload, spec: &RunSpec) -> Result<Report, String> {
    let sh =
        shape(w, spec.scale).ok_or_else(|| format!("{} is not a serving workload", w.name()))?;
    let mut tracer = spec.trace.then(Tracer::new);
    let t0 = Instant::now();
    let svc = setup(w, &sh, spec.seed, 1, &mut tracer);
    let first_setup_s = t0.elapsed().as_secs_f64();

    let mut pool = PoolTrace::default();
    if sh.pool_lanes > 1 {
        let mut pooled = setup(w, &sh, spec.seed, sh.pool_lanes, &mut None);
        if snapshots(&pooled) != snapshots(&svc) {
            return Err(format!(
                "warm-up outcome differs between 1 and {} threads",
                sh.pool_lanes
            ));
        }
        if spec.trace {
            pool = PoolTrace::probe(&mut pooled, POOL_PROBE_SLICES, &mut tracer);
        }
    }
    let dir = match w {
        Workload::LossyRecovery => Some(CheckpointDir::fresh(w)?),
        _ => None,
    };
    let mut run = ServiceRun::new(w, sh, svc, dir);
    run.twin_check()?;
    run.begin_timed();

    let untraced = window::run(&mut run, &mut None, spec.untraced_window(), sh.block)?;
    let prefix = run.prefix.clone().ok_or("the prefix never completed")?;
    let mut fp = Fnv::new();
    for a in &prefix {
        a.fingerprint(&mut fp);
    }

    let layers = if spec.trace {
        let m = layer_metrics(&mut run, &untraced, &prefix, &pool, spec, &mut tracer)?;
        trace::save(&tracer, w)?;
        Some(m)
    } else {
        None
    };
    check_accounting(&run.totals())?;
    let (attempted, failed, timed_steps, peak_rss_mb) =
        (run.attempted, run.failed, run.steps, run.prefix_rss_mb);
    drop(run);

    let metrics = match layers {
        Some(m) => m,
        None => {
            let setup_s = median_setup_s(first_setup_s, spec.seconds, || {
                drop(setup(w, &sh, spec.seed, 1, &mut None));
                Ok(())
            })?;
            e2e_metrics(&untraced, &prefix, setup_s, peak_rss_mb)
        }
    };
    metrics::check_complete(&metrics, spec.trace)?;
    Ok(Report {
        fingerprint: fp.0,
        attempted,
        failed,
        timed_steps,
        prefix_steps: sh.prefix,
        metrics,
    })
}

fn e2e_metrics(blocks: &[Block], prefix: &[Acc], setup_s: f64, peak_rss_mb: f64) -> Metrics {
    let delivered = sum(prefix, |a| a.delivered);
    let mut m = Metrics::new();
    window::insert_wall_metrics(&mut m, blocks);
    m.insert(
        "mean_wait_slots",
        sum(prefix, |a| a.wait_sum) / delivered as f64,
    );
    m.insert(
        "p99_wait_slots",
        f64::from(prefix.iter().map(|a| a.p99).max().unwrap_or(0)),
    );
    m.insert(
        "delivery_rate",
        delivered as f64 / sum(prefix, |a| a.requests) as f64,
    );
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", peak_rss_mb);
    m
}

/// The traced window, the stage replay and every per-layer metric.
fn layer_metrics(
    run: &mut ServiceRun,
    untraced: &[Block],
    prefix: &[Acc],
    pool: &PoolTrace,
    spec: &RunSpec,
    tracer: &mut Option<Tracer>,
) -> Result<Metrics, String> {
    let (w, sh) = (run.w, run.sh);
    run.checkpoints.clear();
    run.restores.clear();
    let before = run.totals();
    let traced = window::run(run, tracer, spec.seconds / 2, sh.block)?;
    let after = run.totals();

    let t = tracer.as_mut().ok_or("a traced run needs a tracer")?;
    // Replay every tenant's slice stages, alternating rounds with real
    // slices so both see the same machine state.
    let mut stages = Stages::default();
    let mut replayers = Vec::new();
    for tenant in run.svc.tenants() {
        let input = TenantReplay {
            tenant,
            shape: demand_shape(w, sh.items, run.phase),
            rate: sh.rate,
            faults: faults(w, tenant.id(), &sh),
            delta: (w == Workload::DriftRepublish).then_some(DeltaOptions {
                max_touched: DELTA_MAX_TOUCHED,
            }),
        };
        replayers.push(Replayer::new(&input, spec.seed, t, &mut stages)?);
    }
    let rebuilt_before = sum(&run.totals(), |a| a.rebuild_wall_ns);
    let (mut replayed_ns, mut real_ns) = (0u64, 0u64);
    for _ in 0..REPLAY_SLICES {
        for r in &mut replayers {
            replayed_ns += r.slice(t, &mut stages)?;
        }
        real_ns += t.time("serve_loop.run_slice", || run.svc.run_slice()).1;
    }
    let rebuilt_ns = sum(&run.totals(), |a| a.rebuild_wall_ns) - rebuilt_before;
    for r in replayers {
        r.finish(t, &mut stages)?;
    }

    let mut m = metrics::zeroed(true);
    let per_tenant_ms = |ns: u64| ns as f64 / 1e6 / stages.tenants.max(1) as f64;
    let per_slice_ms = |ns: u64| ns as f64 / 1e6 / stages.slices.max(1) as f64;
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    if pool.slices > 0 {
        let busy: u64 = pool.busy_ns.iter().sum();
        let max = pool.busy_ns.iter().copied().max().unwrap_or(0);
        let min = pool.busy_ns.iter().copied().min().unwrap_or(0);
        m.insert(
            "pool.busy_share",
            busy as f64 / (pool.lanes as f64 * pool.wall_ns),
        );
        m.insert(
            "pool.handshake_ms",
            pool.handshake_ns / pool.slices as f64 / 1e6,
        );
        m.insert("pool.imbalance_ppm", per((max - min) * 1_000_000, max));
    }

    m.insert(
        "sampler.ns_per_req",
        per(
            stages.draw_ns.saturating_sub(stages.observe_ns),
            stages.requests,
        ),
    );
    m.insert(
        "sampler.rebuild_ms",
        per_tenant_ms(stages.sampler_rebuild_ns),
    );
    m.insert(
        "estimate.observe_ns_per_req",
        per(stages.observe_ns, stages.requests),
    );
    m.insert("estimate.roll_ms", per_slice_ms(stages.roll_ns));
    let drift_ms = per(stages.drift_ns, stages.drift_calls) / 1e6;
    m.insert("estimate.drift_ms", drift_ms);
    m.insert(
        "kernel.clean_ns_per_req",
        per(stages.clean_serve_ns, stages.clean_requests),
    );
    m.insert("kernel.session_reset_ms", per_slice_ms(stages.reset_ns));
    m.insert(
        "kernel.lossy_ns_per_req",
        per(stages.lossy_serve_ns, stages.lossy_requests),
    );
    m.insert(
        "kernel.retries_per_req",
        per(sum(prefix, |a| a.retries), sum(prefix, |a| a.requests)),
    );
    m.insert("hist.absorb_ms", per_slice_ms(stages.absorb_ns));
    m.insert("tree.build_ms", per_tenant_ms(stages.tree_build_ns));
    m.insert("publish.full_ms", per_tenant_ms(stages.publish_full_ns));
    m.insert("publish.delta_ms", per_tenant_ms(stages.publish_delta_ns));
    let rebuilds = sum(prefix, |a| a.rebuilds);
    m.insert(
        "publish.delta_patch_ratio",
        per(sum(prefix, |a| a.delta_rebuilds), rebuilds),
    );
    m.insert(
        "publish.touched_ppm",
        per(sum(prefix, |a| a.touched_ppm_sum), rebuilds),
    );
    let rebuild_ns = sum(&after, |a| a.rebuild_wall_ns) - sum(&before, |a| a.rebuild_wall_ns);
    let traced_rebuilds = sum(&after, |a| a.rebuilds) - sum(&before, |a| a.rebuilds);
    m.insert("tenant.rebuild_ms", per(rebuild_ns, traced_rebuilds) / 1e6);
    m.insert("tenant.rebuilds", rebuilds as f64);
    m.insert("tenant.skipped_rebuilds", sum(prefix, |a| a.skipped) as f64);
    m.insert("snapshot.verify_ms", per_tenant_ms(stages.verify_ns));
    m.insert("snapshot.install_ms", per_tenant_ms(stages.install_ns));

    if !run.checkpoints.is_empty() {
        let mut write: Vec<f64> = run.checkpoints.iter().map(|c| c.0).collect();
        let mut mb: Vec<f64> = run.checkpoints.iter().map(|c| c.1).collect();
        m.insert("checkpoint.write_ms", sorted_median(&mut write));
        m.insert("checkpoint.mb", sorted_median(&mut mb));
    }
    if !run.restores.is_empty() {
        let mut decode: Vec<f64> = run.restores.iter().map(|r| r[0]).collect();
        let mut first: Vec<f64> = run.restores.iter().map(|r| r[1]).collect();
        let explained: f64 = run.restores.iter().map(|r| r[0] + r[1]).sum();
        let total: f64 = run.restores.iter().map(|r| r[2]).sum();
        m.insert("restore.decode_ms", sorted_median(&mut decode));
        m.insert("restore.first_slice_ms", sorted_median(&mut first));
        m.insert("reconcile.restore", explained / total);
    }

    // The real slices between replay rounds paid the replayed stages,
    // their rebuilds, and the drift gate's O(items) check once per cadence.
    let gated = config(w, 0, sh.items).rebuild_min_drift.is_some();
    let cadence_points = if gated {
        u64::from(REPLAY_SLICES) / DEFAULT_REBUILD_EVERY
    } else {
        0
    };
    let drift_ns = sh.tenants as f64 * drift_ms * 1e6 * cadence_points as f64;
    m.insert(
        "reconcile.slice",
        (replayed_ns as f64 + rebuilt_ns as f64 + drift_ns) / real_ns as f64,
    );
    m.insert(
        "trace.overhead",
        window::quiet_step_ms(&traced, 0.5) / window::quiet_step_ms(untraced, 0.5),
    );
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    /// A small lossy-recovery service with two checkpoint generations.
    fn checkpointed() -> ServiceRun {
        let w = Workload::LossyRecovery;
        let sh = shape(w, 100).expect("a serving workload");
        let svc = setup(w, &sh, DEFAULT_SEED, 1, &mut None);
        let dir = CheckpointDir::fresh(w).expect("checkpoint dir");
        let mut run = ServiceRun::new(w, sh, svc, Some(dir));
        run.begin_timed();
        for _ in 0..2 {
            run.svc.run_slice();
            run.checkpoint(&mut None).expect("checkpoint");
        }
        run
    }

    fn manifests(run: &ServiceRun) -> Vec<PathBuf> {
        let dir = &run.dir.as_ref().expect("lossy runs checkpoint").0;
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("readable checkpoint dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "bcp"))
            .collect();
        paths.sort();
        paths
    }

    fn corrupt(path: &Path) {
        let mut bytes = std::fs::read(path).expect("manifest");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(path, bytes).expect("rewrite manifest");
    }

    #[test]
    fn corrupted_newest_manifest_fails_the_restore_closed() {
        let mut run = checkpointed();
        let paths = manifests(&run);
        assert_eq!(paths.len(), 2);
        corrupt(&paths[1]);
        // The restore falls back to the older generation, which resumes
        // at the wrong slice: the run must refuse it.
        let err = run.kill_and_restore(&mut None).unwrap_err();
        assert!(err.contains("newest manifest was rejected"), "{err}");
        assert_eq!(run.failed, 1);
    }

    #[test]
    fn no_valid_manifest_fails_the_restore_closed() {
        let mut run = checkpointed();
        for p in manifests(&run) {
            corrupt(&p);
        }
        let err = run.kill_and_restore(&mut None).unwrap_err();
        assert!(err.contains("failed"), "{err}");
        assert_eq!(run.failed, 1);
    }
}
