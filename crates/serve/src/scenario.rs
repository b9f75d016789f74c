//! Interprets a [`ScenarioSpec`] against a [`ServeLoop`]: churn at phase
//! boundaries, per-tenant demand/fault/SLO scripts, and per-phase SLO
//! verdicts collected into a [`ScenarioOutcome`].
//!
//! The interpreter is the steppable [`ScenarioDriver`]: one slice per
//! [`step`](ScenarioDriver::step), phase boundaries collected as they
//! complete — so a run can be checkpointed at any slice boundary
//! ([`ScenarioDriver::checkpoint`]), killed, and restored
//! ([`ScenarioDriver::restore`]) to finish with the same outcome as a
//! run that never crashed. [`run_scenario`] is the drive-to-completion
//! convenience over it.
//!
//! The outcome derives `PartialEq`, and every number in it is either an
//! exact integer or an `f64` computed from exact integers — so "replays
//! bit-identically" is testable as plain `==` between outcomes from
//! different thread counts or reruns, and [`ScenarioOutcome::fingerprint`]
//! folds the whole outcome into one `u64` for cheap cross-run comparison.

use crate::checkpoint::{self, CheckpointError, SECTION_DRIVER};
use crate::service::{PoolStats, ServeLoop};
use crate::tenant::{RebuildLane, TenantConfig};
use bcast_types::{SloSnapshot, SloSpec, SloViolation, WordReader};
use bcast_workloads::{PhaseSpec, ScenarioSpec};
use std::path::{Path, PathBuf};

/// One tenant's verdict for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPhaseReport {
    /// Stable tenant id.
    pub tenant: u64,
    /// What the tenant measured over the phase.
    pub snapshot: SloSnapshot,
    /// The SLO it was held to.
    pub slo: SloSpec,
    /// Objectives violated (empty = the SLO held).
    pub violations: Vec<SloViolation>,
}

/// All tenants' verdicts for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase label from the spec.
    pub name: String,
    /// Slices the phase ran.
    pub slices: u32,
    /// Per-tenant verdicts, in ascending tenant id order.
    pub tenants: Vec<TenantPhaseReport>,
}

impl PhaseReport {
    /// Requests offered across all tenants in the phase.
    pub fn requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.snapshot.requests).sum()
    }

    /// Worst per-tenant delivery rate in the phase.
    pub fn min_delivery_rate(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.snapshot.delivery_rate())
            .fold(1.0, f64::min)
    }
}

/// The full record of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario label from the spec.
    pub name: String,
    /// The seed the run derived all randomness from.
    pub seed: u64,
    /// Per-phase reports, in timeline order.
    pub phases: Vec<PhaseReport>,
}

impl ScenarioOutcome {
    /// Every violation in the run as `(phase, tenant, violation)`.
    pub fn violations(&self) -> Vec<(&str, u64, &SloViolation)> {
        self.phases
            .iter()
            .flat_map(|p| {
                p.tenants
                    .iter()
                    .flat_map(|t| t.violations.iter().map(|v| (p.name.as_str(), t.tenant, v)))
            })
            .collect()
    }

    /// Panics with a readable listing if any phase SLO was violated.
    pub fn assert_slos(&self) {
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "scenario '{}' (seed {:#x}) violated SLOs:\n{}",
            self.name,
            self.seed,
            violations
                .iter()
                .map(|(phase, tenant, v)| format!("  [{phase}] tenant {tenant}: {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Requests offered across the whole run.
    pub fn total_requests(&self) -> u64 {
        self.phases.iter().map(PhaseReport::requests).sum()
    }

    /// Programs published across the whole run (all tenants).
    pub fn total_rebuilds(&self) -> u64 {
        self.phases
            .iter()
            .flat_map(|p| &p.tenants)
            .map(|t| t.snapshot.rebuilds)
            .sum()
    }

    /// Slots any tenant spent without a servable program — zero by
    /// construction of the double-buffered swap.
    pub fn total_downtime_slots(&self) -> u64 {
        self.phases
            .iter()
            .flat_map(|p| &p.tenants)
            .map(|t| t.snapshot.rebuild_downtime_slots)
            .sum()
    }

    /// Folds every deterministic field of the outcome into one
    /// order-sensitive 64-bit FNV-1a digest (floats by bit pattern). Two
    /// runs are bit-identical iff their fingerprints match — the cheap
    /// cross-thread-count and cross-rerun determinism check. The
    /// snapshots' `rebuild_wall_ns` side channel is excluded, exactly as
    /// it is from `SloSnapshot`'s equality; the rebuild-lane counters
    /// (`delta_rebuilds`, `full_rebuilds`, `touched_ppm`) are *included*,
    /// so the delta/full fallback decision itself is pinned deterministic.
    /// `snapshot_loads` is also included (despite being excluded from
    /// snapshot equality): which joins took the boot-image fast path is
    /// deterministic in the scenario script, so churn runs pin it. The
    /// robustness counters (`quarantined`, `readmitted`, `shed_requests`)
    /// are included too — injected panics and budget admission are both
    /// deterministic, so crash-restore equivalence covers them.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: u64, x: u64) -> u64 {
            x.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let mut h = self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        h = eat(h, self.seed);
        for p in &self.phases {
            h = eat(h, u64::from(p.slices));
            for t in &p.tenants {
                let s = &t.snapshot;
                for x in [
                    t.tenant,
                    s.requests,
                    s.delivered,
                    s.failed,
                    s.retries,
                    u64::from(s.p99_slots),
                    s.mean_access_slots.to_bits(),
                    u64::from(s.max_cycle_len),
                    s.rebuilds,
                    s.degraded_rebuilds,
                    s.rebuild_downtime_slots,
                    s.delta_rebuilds,
                    s.full_rebuilds,
                    s.touched_ppm,
                    s.snapshot_loads,
                    s.quarantined,
                    s.readmitted,
                    s.shed_requests,
                    t.violations.len() as u64,
                ] {
                    h = eat(h, x);
                }
            }
        }
        h
    }
}

/// Tenant configuration the runner boots every scenario tenant with.
fn tenant_config(id: u64, spec: &ScenarioSpec) -> TenantConfig {
    let mut config = TenantConfig::new(id, spec.items_per_tenant);
    config.fanout = spec.fanout;
    config.channels = spec.channels;
    if let Some(max_touched) = spec.delta_max_touched {
        config.rebuild_lane = RebuildLane::Delta { max_touched };
    }
    config
}

/// Applies one phase's churn and scripts to the roster.
fn begin_phase(svc: &mut ServeLoop, phase: &PhaseSpec, spec: &ScenarioSpec) {
    for _ in 0..phase.join {
        let id = svc.next_id();
        svc.join(tenant_config(id, spec));
    }
    for _ in 0..phase.leave {
        let Some(last) = svc.tenants().last().map(|t| t.id()) else {
            break;
        };
        svc.leave(last);
    }
    for t in svc.tenants_mut() {
        let id = t.id();
        t.begin_phase(
            phase.demand_for(id),
            phase.faults_for(id),
            phase.slo_for(id),
            phase.slices,
        );
        if let Some(at) = phase.poison_for(id) {
            t.inject_panic_after(u64::from(at));
        }
    }
}

/// Runs a scenario to completion: boots `spec.tenants` tenants with ids
/// `0..tenants`, then for each phase applies churn, scripts every tenant
/// and advances the loop `slices` times. Deterministic in `(spec, seed)`
/// alone — `threads` only partitions work.
pub fn run_scenario(spec: &ScenarioSpec, seed: u64, threads: usize) -> ScenarioOutcome {
    run_scenario_with_stats(spec, seed, threads).0
}

/// [`run_scenario`] plus the serving loop's wall-clock [`PoolStats`] —
/// the observability side channel (lane busy times, imbalance, pooled
/// slice count) that the deterministic outcome deliberately excludes.
/// The outcome half is bit-identical to [`run_scenario`]'s.
pub fn run_scenario_with_stats(
    spec: &ScenarioSpec,
    seed: u64,
    threads: usize,
) -> (ScenarioOutcome, PoolStats) {
    let mut driver = ScenarioDriver::new(spec.clone(), seed, threads);
    while driver.step() {}
    driver.into_outcome_with_stats()
}

/// A scenario run held open between slices: the interpreter state
/// ([`run_scenario`] drives one to completion) exposed so callers can
/// advance one slice at a time and checkpoint at any boundary.
///
/// The driver owns its spec and a [`ServeLoop`]; phase churn and tenant
/// scripts apply exactly as the closed-loop runner applies them, so a
/// stepped run, a checkpoint-restored run and [`run_scenario`] all
/// produce bit-identical [`ScenarioOutcome`]s for the same `(spec,
/// seed)`.
#[derive(Debug)]
pub struct ScenarioDriver {
    spec: ScenarioSpec,
    svc: ServeLoop,
    seed: u64,
    /// Index of the phase currently running (== `spec.phases.len()` when
    /// the run is complete).
    phase_idx: usize,
    /// Slices already run inside the current phase.
    slices_done: u32,
    /// Reports of phases that finished, in timeline order.
    completed: Vec<PhaseReport>,
}

impl ScenarioDriver {
    /// Boots the scenario's initial roster and applies the first phase's
    /// scripts. `threads` is an execution parameter only.
    pub fn new(spec: ScenarioSpec, seed: u64, threads: usize) -> Self {
        let mut svc = ServeLoop::new(seed, threads);
        svc.set_slice_budget(spec.slice_budget);
        for id in 0..spec.tenants as u64 {
            svc.join(tenant_config(id, &spec));
        }
        let mut driver = ScenarioDriver {
            spec,
            svc,
            seed,
            phase_idx: 0,
            slices_done: 0,
            completed: Vec::new(),
        };
        if !driver.spec.phases.is_empty() {
            begin_phase(&mut driver.svc, &driver.spec.phases[0], &driver.spec);
        }
        driver.finish_completed_phases();
        driver
    }

    /// Runs one slice, collecting any phase that completes (and applying
    /// the next phase's churn and scripts). Returns `false` once the
    /// scenario is complete — calling again is a no-op.
    pub fn step(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        self.svc.run_slice();
        self.slices_done += 1;
        self.finish_completed_phases();
        !self.is_done()
    }

    /// Collects every phase the slice counter has closed out, advancing
    /// through zero-slice phases in the same pass.
    fn finish_completed_phases(&mut self) {
        while self.phase_idx < self.spec.phases.len()
            && self.slices_done >= self.spec.phases[self.phase_idx].slices
        {
            let phase = &self.spec.phases[self.phase_idx];
            self.completed.push(PhaseReport {
                name: phase.name.to_string(),
                slices: phase.slices,
                tenants: self
                    .svc
                    .tenants()
                    .iter()
                    .map(|t| TenantPhaseReport {
                        tenant: t.id(),
                        snapshot: t.phase_snapshot(),
                        slo: t.slo(),
                        violations: t.phase_violations(),
                    })
                    .collect(),
            });
            self.phase_idx += 1;
            self.slices_done = 0;
            if self.phase_idx < self.spec.phases.len() {
                begin_phase(&mut self.svc, &self.spec.phases[self.phase_idx], &self.spec);
            }
        }
    }

    /// `true` once every phase has run and been collected.
    pub fn is_done(&self) -> bool {
        self.phase_idx >= self.spec.phases.len()
    }

    /// The underlying service (read-only; stepping owns mutation).
    pub fn service(&self) -> &ServeLoop {
        &self.svc
    }

    /// Reports of the phases completed so far, in timeline order.
    pub fn completed_phases(&self) -> &[PhaseReport] {
        &self.completed
    }

    /// The outcome of the run so far (all phases when
    /// [`is_done`](Self::is_done), the completed prefix otherwise).
    pub fn into_outcome(self) -> ScenarioOutcome {
        ScenarioOutcome {
            name: self.spec.name.to_string(),
            seed: self.seed,
            phases: self.completed,
        }
    }

    /// [`into_outcome`](Self::into_outcome) plus the pool's wall-clock
    /// side channel.
    pub fn into_outcome_with_stats(self) -> (ScenarioOutcome, PoolStats) {
        let stats = self.svc.pool_stats();
        (self.into_outcome(), stats)
    }

    /// Checkpoints the whole run — service state plus the driver's phase
    /// cursor and completed reports — as an atomic manifest in `dir`.
    /// Restorable by [`restore`](Self::restore) with the same spec.
    ///
    /// # Errors
    /// Propagates [`ServeLoop::checkpoint`]'s error conditions.
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<PathBuf, CheckpointError> {
        let mut w = checkpoint::manifest_writer(SECTION_DRIVER);
        self.svc.export_state(&mut w)?;
        w.u64(spec_tag(&self.spec));
        w.u64(self.phase_idx as u64);
        w.u32(self.slices_done);
        w.u64(self.completed.len() as u64);
        for report in &self.completed {
            w.u64(report.tenants.len() as u64);
            for t in &report.tenants {
                w.u64(t.tenant);
                t.slo.export_state(&mut w);
                t.snapshot.export_state(&mut w);
            }
        }
        checkpoint::write_manifest(dir.as_ref(), self.svc.slices_run(), w)
    }

    /// Restores a run from the newest valid driver manifest in `dir`,
    /// resuming mid-phase at the checkpointed slice. Corrupt or torn
    /// newer generations fall back to older ones, exactly like
    /// [`ServeLoop::restore`]. The caller supplies the spec (manifests
    /// carry a structural tag of it, not the spec itself); a tag
    /// mismatch is [`CheckpointError::SpecMismatch`], never a silent
    /// cross-scenario resume.
    pub fn restore(
        dir: impl AsRef<Path>,
        spec: &ScenarioSpec,
        threads: usize,
    ) -> Result<ScenarioDriver, CheckpointError> {
        let mut mismatched = false;
        let result = checkpoint::restore_first_valid(dir.as_ref(), |r| {
            Self::decode(r, spec, threads, &mut mismatched)
        });
        match result {
            Ok(mut driver) => {
                driver.svc.build_samplers();
                Ok(driver)
            }
            Err(CheckpointError::NoValidManifest) if mismatched => {
                Err(CheckpointError::SpecMismatch)
            }
            Err(e) => Err(e),
        }
    }

    /// Decodes one manifest payload into a driver. `None` falls back to
    /// the next generation; `mismatched` records that an otherwise-valid
    /// manifest belonged to a different spec.
    fn decode(
        r: &mut WordReader<'_>,
        spec: &ScenarioSpec,
        threads: usize,
        mismatched: &mut bool,
    ) -> Option<ScenarioDriver> {
        if r.u32()? != SECTION_DRIVER {
            return None;
        }
        let svc = ServeLoop::import_state(r, threads)?;
        if r.u64()? != spec_tag(spec) {
            *mismatched = true;
            return None;
        }
        let phase_idx = usize::try_from(r.u64()?).ok()?;
        if phase_idx > spec.phases.len() {
            return None;
        }
        let slices_done = r.u32()?;
        if phase_idx < spec.phases.len() && slices_done >= spec.phases[phase_idx].slices {
            return None;
        }
        let n_reports = usize::try_from(r.u64()?).ok()?;
        // Every phase before the cursor has exactly one report.
        if n_reports != phase_idx {
            return None;
        }
        let mut completed = Vec::with_capacity(n_reports);
        for phase in &spec.phases[..n_reports] {
            let n_tenants = r.count(r.remaining())?;
            let mut tenants = Vec::new();
            for _ in 0..n_tenants {
                let tenant = r.u64()?;
                let slo = SloSpec::import_state(r)?;
                let snapshot = SloSnapshot::import_state(r)?;
                // Verdicts are derived data: recompute instead of trust.
                let violations = snapshot.check(&slo);
                tenants.push(TenantPhaseReport {
                    tenant,
                    snapshot,
                    slo,
                    violations,
                });
            }
            completed.push(PhaseReport {
                name: phase.name.to_string(),
                slices: phase.slices,
                tenants,
            });
        }
        // The driver section ends the manifest: a word left over means
        // some part decoded fewer words than it wrote.
        if !r.is_empty() {
            return None;
        }
        Some(ScenarioDriver {
            spec: spec.clone(),
            seed: svc.seed(),
            svc,
            phase_idx,
            slices_done,
            completed,
        })
    }
}

/// Folds the structural identity of a spec into a tag the manifest
/// carries: a restore against a different scenario shape must fail
/// loudly, not resume into the wrong script. Field *values* that tenants
/// consume every slice (rates, fault probabilities) live in the restored
/// tenant state itself, so the tag only needs to pin the shape.
fn spec_tag(spec: &ScenarioSpec) -> u64 {
    fn eat(h: u64, x: u64) -> u64 {
        x.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let mut h = spec.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    h = eat(h, spec.tenants as u64);
    h = eat(h, spec.items_per_tenant as u64);
    h = eat(h, spec.fanout as u64);
    h = eat(h, spec.channels as u64);
    h = eat(h, spec.delta_max_touched.map_or(0, f64::to_bits));
    h = eat(h, spec.slice_budget.unwrap_or(u64::MAX));
    h = eat(h, spec.phases.len() as u64);
    for p in &spec.phases {
        h = p.name.bytes().fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        h = eat(h, u64::from(p.slices));
        h = eat(h, p.join as u64);
        h = eat(h, p.leave as u64);
        h = eat(h, p.overrides.len() as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcast_workloads::{flash_crowd, overload_storm, poison_pill, tenant_churn};

    #[test]
    fn runner_follows_the_phase_timeline() {
        let spec = flash_crowd(3, 32, 80, 6);
        let out = run_scenario(&spec, 0xF1A5, 1);
        assert_eq!(out.phases.len(), 3);
        assert_eq!(out.phases[0].name, "calm");
        // The spike phase multiplies tenant 0's rate by 8.
        let calm = out.phases[0].tenants[0].snapshot.requests;
        let spike = out.phases[1].tenants[0].snapshot.requests;
        assert_eq!(spike, calm * 8);
        out.assert_slos();
        assert_eq!(out.total_downtime_slots(), 0);
    }

    #[test]
    fn churn_changes_the_roster_between_phases() {
        let spec = tenant_churn(3, 32, 60, 5);
        let out = run_scenario(&spec, 7, 2);
        assert_eq!(out.phases[0].tenants.len(), 3);
        assert_eq!(out.phases[1].tenants.len(), 5, "2 joined");
        assert_eq!(out.phases[2].tenants.len(), 3, "2 newest left");
        let ids: Vec<u64> = out.phases[2].tenants.iter().map(|t| t.tenant).collect();
        assert_eq!(ids, vec![0, 1, 2], "original cohort keeps its ids");
        out.assert_slos();
    }

    #[test]
    fn churn_joins_cold_start_from_the_boot_image_cache() {
        let spec = tenant_churn(3, 32, 60, 5);
        let out = run_scenario(&spec, 7, 1);
        // The three boot tenants share one shape: tenant 0 publishes,
        // tenants 1-2 load its image; the join phase's two newcomers
        // load it too. Loads land in the first window begun after boot.
        let steady: u64 = out.phases[0]
            .tenants
            .iter()
            .map(|t| t.snapshot.snapshot_loads)
            .sum();
        assert_eq!(steady, 2);
        let joiners: Vec<u64> = out.phases[1]
            .tenants
            .iter()
            .filter(|t| t.tenant >= 3)
            .map(|t| t.snapshot.snapshot_loads)
            .collect();
        assert_eq!(joiners, vec![1, 1]);
        out.assert_slos();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bcast-drv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn stepped_driver_matches_the_closed_loop_runner() {
        let spec = flash_crowd(3, 24, 40, 4);
        let baseline = run_scenario(&spec, 0xC0DE, 2);
        let mut driver = ScenarioDriver::new(spec.clone(), 0xC0DE, 1);
        let mut steps = 0;
        while driver.step() {
            steps += 1;
        }
        assert_eq!(steps + 1, spec.total_slices());
        assert!(driver.is_done());
        assert_eq!(driver.into_outcome(), baseline);
    }

    #[test]
    fn checkpointed_driver_finishes_bit_identically() {
        let spec = flash_crowd(3, 24, 40, 4);
        let baseline = run_scenario(&spec, 0xBEEF, 1);
        let dir = temp_dir("resume");
        let mut driver = ScenarioDriver::new(spec.clone(), 0xBEEF, 1);
        for _ in 0..5 {
            driver.step();
        }
        driver.checkpoint(&dir).unwrap();
        drop(driver); // the crash
        let mut restored = ScenarioDriver::restore(&dir, &spec, 4).unwrap();
        assert_eq!(restored.service().slices_run(), 5);
        assert_eq!(
            restored.completed_phases().len(),
            1,
            "phase 0 is in the manifest"
        );
        while restored.step() {}
        let out = restored.into_outcome();
        assert_eq!(out, baseline);
        assert_eq!(out.fingerprint(), baseline.fingerprint());

        // Restoring against a different scenario shape fails loudly.
        let other = tenant_churn(3, 24, 40, 4);
        assert_eq!(
            ScenarioDriver::restore(&dir, &other, 1).err(),
            Some(crate::CheckpointError::SpecMismatch)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_storm_sheds_the_storm_and_spares_neighbors() {
        let spec = overload_storm(4, 32, 60, 5);
        let out = run_scenario(&spec, 0x570, 2);
        out.assert_slos();
        let storm = &out.phases[1];
        let spiker = &storm.tenants[0].snapshot;
        assert!(spiker.shed_requests > 0, "the storm is clipped");
        assert!(spiker.delivery_rate() < 1.0);
        for t in &storm.tenants[1..] {
            assert_eq!(t.snapshot.shed_requests, 0, "neighbors admitted in full");
            assert_eq!(t.snapshot.delivery_rate(), 1.0);
        }
        for phase in [&out.phases[0], &out.phases[2]] {
            assert!(
                phase.tenants.iter().all(|t| t.snapshot.shed_requests == 0),
                "calm phases fit under the budget"
            );
        }
    }

    #[test]
    fn poison_pill_quarantines_without_any_slo_damage() {
        crate::silence_chaos_panic_reports();
        let spec = poison_pill(3, 32, 60, 6);
        let out = run_scenario(&spec, 0xDEAD, 2);
        out.assert_slos();
        let poisoned = &out.phases[1].tenants[0].snapshot;
        assert_eq!(poisoned.quarantined, 1);
        assert_eq!(poisoned.readmitted, 1);
        for t in &out.phases[1].tenants[1..] {
            assert_eq!(t.snapshot.quarantined, 0);
        }
        // Determinism holds through injected panics.
        assert_eq!(out, run_scenario(&spec, 0xDEAD, 4));
    }

    #[test]
    fn fingerprint_distinguishes_runs_and_matches_replays() {
        let spec = flash_crowd(2, 24, 50, 4);
        let a = run_scenario(&spec, 11, 1);
        let b = run_scenario(&spec, 11, 4);
        assert_eq!(a, b, "thread count is invisible");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = run_scenario(&spec, 12, 1);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed changes the run");
    }
}
