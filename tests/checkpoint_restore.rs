//! Crash-restore equivalence suite: a serving run killed at ANY slice
//! boundary and restored from its checkpoint manifest must finish with
//! the same [`ScenarioOutcome`] fingerprint as a run that never crashed
//! — exact equality, not "close enough", because the manifest carries
//! every input the slice loop consumes and the loop itself is a pure
//! function of them.
//!
//! The default-sized tests sweep every boundary of small scenarios
//! (including mid-quarantine and mid-shedding states) in debug `cargo
//! test`; the `#[ignore]`-gated storm — repeated kill/restore cycles at
//! pseudo-random crash points across thread counts — runs in release
//! via `make crash` (wired into `make chaos`).

use broadcast_alloc::serve::{
    run_scenario, CheckpointError, ScenarioDriver, ScenarioOutcome, ServeLoop, TenantConfig,
};
use broadcast_alloc::workloads::{flash_crowd, overload_storm, poison_pill, ScenarioSpec};
use std::path::PathBuf;

/// A fresh scratch directory under the system temp dir, unique per test
/// and process so parallel test binaries never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcast-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `spec` to completion with a simulated crash: step to `boundary`
/// slices, checkpoint, drop the driver (the crash), restore at
/// `threads`, finish. Returns the restored run's outcome.
fn crash_and_restore(
    spec: &ScenarioSpec,
    seed: u64,
    boundary: u64,
    threads: usize,
    dir: &PathBuf,
) -> ScenarioOutcome {
    let mut driver = ScenarioDriver::new(spec.clone(), seed, 1);
    for _ in 0..boundary {
        driver.step();
    }
    driver
        .checkpoint(dir)
        .expect("checkpoint at a slice boundary");
    drop(driver); // the crash

    let mut restored = ScenarioDriver::restore(dir, spec, threads).expect("manifest restores");
    assert_eq!(
        restored.service().slices_run(),
        boundary,
        "resumes at the checkpointed slice"
    );
    while restored.step() {}
    restored.into_outcome()
}

/// The tentpole property, swept exhaustively: every slice boundary of
/// the scenario is a valid crash point, and every restore finishes
/// bit-identically — across the calm script, the overload-shedding
/// script and the panic-quarantine script (so the checkpoint provably
/// carries admission and quarantine state, not just the happy path).
#[test]
fn crash_at_every_slice_boundary_is_bit_identical() {
    broadcast_alloc::serve::silence_chaos_panic_reports();
    let specs = [
        flash_crowd(3, 24, 40, 4),
        overload_storm(3, 24, 30, 3),
        poison_pill(2, 24, 40, 3),
    ];
    for spec in &specs {
        let seed = 0xC4A5;
        let baseline = run_scenario(spec, seed, 1);
        let total = spec.total_slices();
        for boundary in 0..=total {
            let dir = scratch(spec.name);
            // Restore at a different thread count than the crash ran at:
            // threads are an execution parameter, never state.
            let threads = 1 + (boundary as usize % 3);
            let out = crash_and_restore(spec, seed, boundary, threads, &dir);
            assert_eq!(
                out, baseline,
                "{}: crash at boundary {boundary}/{total} diverged",
                spec.name
            );
            assert_eq!(out.fingerprint(), baseline.fingerprint());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A bare `ServeLoop` (no scenario driver) checkpoints and restores the
/// same way, a service that keeps checkpointing runs on exactly like one
/// that never did — and an empty directory fails closed with a typed
/// error.
#[test]
fn bare_service_checkpoint_restores_and_empty_dir_fails_closed() {
    use broadcast_alloc::types::SloSpec;
    use broadcast_alloc::workloads::{DemandShape, DemandSpec};

    let dir = scratch("bare");
    assert!(matches!(
        ServeLoop::restore(&dir, 1),
        Err(CheckpointError::Io(_)) | Err(CheckpointError::NoValidManifest)
    ));

    let demand = DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, 150);
    let boot = |threads: usize| {
        let mut svc = ServeLoop::new(0xBA2E, threads);
        for id in 0..3 {
            svc.join(TenantConfig::new(id, 32));
            svc.tenant_mut(id)
                .unwrap()
                .begin_phase(demand, None, SloSpec::lossless(), 8);
        }
        svc
    };
    let mut svc = boot(1);
    svc.run_slices(3);
    svc.checkpoint(&dir).unwrap();
    let mut restored = ServeLoop::restore(&dir, 2).unwrap();
    let mut uninterrupted = boot(1);
    uninterrupted.run_slices(3);
    for _ in 0..5 {
        restored.run_slice();
        uninterrupted.run_slice();
        svc.run_slice();
        svc.checkpoint(&dir).unwrap();
    }
    let snap = |svc: &ServeLoop| {
        svc.tenants()
            .iter()
            .map(|t| (t.id(), t.phase_snapshot()))
            .collect::<Vec<_>>()
    };
    assert_eq!(snap(&restored), snap(&uninterrupted));
    assert_eq!(
        snap(&svc),
        snap(&uninterrupted),
        "a checkpoint is a pure read"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tiny deterministic generator for the storm's crash points (the
/// test's own randomness must not perturb the service's).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// The release-mode kill-and-restore storm `make crash` runs: repeated
/// crash/restore cycles at pseudo-random points — including crashes
/// *after* the checkpoint, where the restore rewinds and deterministic
/// replay must regenerate the lost slices exactly — across thread
/// counts {1, 2, 4}, against scenarios exercising shedding and
/// quarantine, all held to fingerprint equality.
#[test]
#[ignore = "heavy kill-and-restore storm; run with make crash"]
fn chaos_kill_and_restore_storm() {
    broadcast_alloc::serve::silence_chaos_panic_reports();
    let specs = [
        flash_crowd(6, 64, 300, 12),
        overload_storm(6, 64, 200, 12),
        poison_pill(6, 64, 300, 12),
    ];
    let mut rng = 0x57AB_1E5Eu64;
    for spec in &specs {
        let seed = 0xD15A57E5;
        let baseline = run_scenario(spec, seed, 4);
        let total = spec.total_slices();
        for threads in [1usize, 2, 4] {
            for round in 0..6 {
                let dir = scratch(&format!("storm-{}-{threads}-{round}", spec.name));
                // Drive with periodic checkpoints; crash at a random
                // slice (not necessarily a checkpoint), restore from
                // whatever manifest survived, repeat a few times.
                let mut driver = ScenarioDriver::new(spec.clone(), seed, threads);
                let mut crashes = 1 + lcg(&mut rng) % 3;
                let checkpoint_every = 1 + lcg(&mut rng) % 4;
                let mut since_checkpoint = 0;
                driver.checkpoint(&dir).unwrap();
                loop {
                    if crashes > 0 && lcg(&mut rng).is_multiple_of(total.max(1)) {
                        crashes -= 1;
                        drop(driver); // kill
                        driver = ScenarioDriver::restore(&dir, spec, threads)
                            .expect("storm always leaves a valid manifest");
                        since_checkpoint = 0;
                        continue;
                    }
                    if !driver.step() {
                        break;
                    }
                    since_checkpoint += 1;
                    if since_checkpoint >= checkpoint_every {
                        driver.checkpoint(&dir).unwrap();
                        since_checkpoint = 0;
                    }
                }
                let out = driver.into_outcome();
                assert_eq!(
                    out.fingerprint(),
                    baseline.fingerprint(),
                    "{}: storm run diverged (threads {threads}, round {round})",
                    spec.name
                );
                assert_eq!(out, baseline);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
