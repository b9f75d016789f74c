//! `bcast_bench` — the one benchmark every performance claim about this
//! repository is measured with.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/bcast_bench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! Defaults: `--workload all`, `--seed 24301`, `--seconds 15`, untraced.
//! One workload runs per process: `--workload all` re-executes this binary
//! once per workload, so set-up starts cold and the peak resident set
//! belongs to that workload alone. The seed is the only source of
//! randomness. An unknown workload or flag prints the usage and exits 2;
//! a failed correctness check exits 1 before any number is printed.
//! `cargo test` with the same `--manifest-path` runs every workload at
//! 1/100 scale.
//!
//! # Output
//!
//! Per workload, two JSON lines on stdout: a detail object (seed, outcome
//! fingerprint, timed steps, `ops_attempted`, `ops_failed`) and, last, the
//! result object `{"correct", "attempted", "failed", "metrics"}` whose
//! metrics are the end-to-end table below (untraced) or the per-layer
//! table (`--trace`). `attempted` counts requests offered plus checkpoint,
//! restore and solve calls in the timed window; `failed` counts calls that
//! returned an error — a checkpoint or restore error fails the run. A
//! request the modelled lossy channel drops after its retry budget is the
//! channel's outcome, not a failed call: it lowers `delivery_rate`.
//!
//! # Workloads
//!
//! Every serving workload is a closed loop: slices run back to back and
//! each slice's request count is fixed by the tenants' demand script.
//! All use fanout-4 trees on 3 channels with the Sorting heuristic, in one
//! process with at most 2 threads.
//!
//! | name | shape | why |
//! |---|---|---|
//! | `steady-hot` | 8 tenants × 4,096 items, Zipf(0.9), 40k req/tenant/slice, `rebuild_min_drift` 0.3, clean channel; 9 warm-up slices through the adaptation republish; timed on 1 lane, its warm-up replayed on a 2-lane pool | Per-request work dominates (sampler draw, estimator count, kernel with its tables in cache) and publishing is idle. Sampler and kernel changes show here; the only workload that runs the pool. |
//! | `catalog-1m` | 1 tenant × 1,000,000 items, Zipf(0.9), 125k req/slice, `rebuild_min_drift` 1.0, clean, 1 thread; 9 warm-up slices | The same request path over tables far larger than cache, plus per-slice work that grows with the catalog. Memory-layout changes show here and not in `steady-hot`. |
//! | `drift-republish` | 4 tenants × 65,536 items; a hot set of items/8 holding 0.8 of the mass moves by items/16 every 32 slices; 20k req/tenant/slice, republish every 4 slices on the delta lane (`max_touched` 0.05), 1 thread | Republishing takes most of the wall time. Publish and delta-lane changes show here; `steady-hot` and `catalog-1m` predict no change. |
//! | `lossy-recovery` | 8 tenants × 65,536 items, Zipf(0.9), 5k req/tenant/slice; tenants 0–3 on the brownout Gilbert–Elliott channel (~20% loss), 4–7 clean; default config (full lane, republish every 8, degradation feedback); checkpoint every 8 slices, kill → restore every 16 | The kernel's lossy recovery path, checkpoint writes beside serving reads, and full republishes. A serving gain that costs the lossy path or the checkpoint shows here. |
//! | `exact-plan` | rounds of `best_first::search` on the paper example (k=2), balanced-m3 (k=2), balanced-d4 (k=2) and balanced-d4 (k=3), weights perturbed ±2% by the seed; 1 warm-up round | The paper's exact search and no serving: the only workload where search changes show. |
//!
//! The seed perturbs exact-plan's weights by at most 2% so that every
//! seed measures a search of comparable effort; serving workloads take
//! their request streams, tune-ins and channel losses from it.
//!
//! Each run sets up once, then executes a fixed *prefix* of timed steps
//! (slices, or search rounds) whose outcome repeats bit for bit for a
//! given seed: the fingerprint, the deterministic metrics, the peak
//! memory and the correctness checks all read the prefix (or, for
//! exact-plan, the warm-up round every timed round must repeat). Timing
//! then continues, in blocks of one cadence cycle each, until `--seconds`
//! have passed. The other set-ups run after the window.
//!
//! # End-to-end metrics
//!
//! Wall-clock metrics are computed per block and read from the window's
//! quietest block (see `window`): other tenants of the shared machine slow
//! our steps in bursts. A block is one cycle of the workload's slowest
//! cadence: 8 slices on steady-hot and catalog-1m (the drift gate), 4 on
//! drift-republish (the republish), 16 on lossy-recovery (kill → restore),
//! and 2 rounds on exact-plan. So `step_ms_p90` is a block's slowest step
//! on all but lossy-recovery, where 1 of 16 lies beyond it.
//!
//! | name | unit | better | definition |
//! |---|---|---|---|
//! | `throughput` | 1/s | higher | operations per second of the fastest block: requests offered (serving; checkpoint and restore time included) or searches (exact-plan) |
//! | `step_ms_p50` | ms | lower | lowest per-block median wall time of one timed step: a `ServeLoop::run_slice`, or one round over the exact-plan instance set |
//! | `step_ms_p90` | ms | lower | lowest per-block 90th percentile of the same; on drift-republish and lossy-recovery it lands on republishing slices |
//! | `mean_wait_slots` | slots | lower | request-weighted mean access time over the prefix, the paper's objective as served; exact-plan: mean optimal expected access time (probe + data wait) |
//! | `p99_wait_slots` | slots | lower | worst tenant's p99 access time over the prefix; exact-plan: worst instance's p99 under its optimal plan |
//! | `delivery_rate` | fraction | higher | delivered ÷ offered over the prefix (failed and shed requests are misses); exact-plan: solved ÷ attempted searches |
//! | `setup_s` | s | lower | building the workload from its inputs through warm-up, up to the first timed step; median of the set-ups in one run (at least 3, repeated until they take an eighth of `--seconds`) |
//! | `peak_rss_mb` | MB | lower | `VmHWM` of the workload's own process when the prefix completes; exact-plan: after its warm-up round |
//!
//! # Per-layer metrics (`--trace`)
//!
//! The traced run sets up once, measures `--seconds / 2` untraced, then
//! `--seconds / 2` with spans around every call the benchmark makes into
//! a layer (`ServeLoop::join`, `run_slice`, `checkpoint`, `restore`, the
//! first slice after a restore, `best_first::search`). It then replays
//! every tenant's slice stages through the layers' public functions
//! (capture the program on air → alias table → sample / observe / serve
//! chunk / absorb / roll → tree build and publish; see `replay`),
//! alternating each replayed round with a real slice, and writes all
//! spans, with self times, to `target/bcast_bench/trace-<workload>.json`.
//! steady-hot also runs 400 slices on its 2-lane pool for the pool
//! metrics. Counters are read between slices, outside any span. A layer
//! that a workload does not run reports 0.
//!
//! | module | metrics | should move | predicted flat on |
//! |---|---|---|---|
//! | `bcast_serve::service` (pool) | `pool.busy_share`, `pool.handshake_ms` (slice wall minus the slowest lane's busy time), `pool.imbalance_ppm` | no end-to-end metric: the timed window runs 1 lane | every other workload (0) |
//! | `bcast_workloads::requests` | `sampler.ns_per_req`, `sampler.rebuild_ms` | `throughput` on steady-hot and catalog-1m | exact-plan |
//! | `bcast_adaptive::estimator` | `estimate.observe_ns_per_req`, `estimate.roll_ms`, `estimate.drift_ms` | `step_ms_p50` on catalog-1m (grows with item count) | steady-hot |
//! | `bcast_channel::compiled` | `kernel.clean_ns_per_req`, `kernel.session_reset_ms`, `kernel.lossy_ns_per_req`, `kernel.retries_per_req` | `throughput` on steady-hot (cache-resident) and catalog-1m (memory-bound); lossy ones move `step_ms_p50` and `delivery_rate` on lossy-recovery | lossy ones on every clean workload |
//! | `bcast_channel::hist` | `hist.absorb_ms` | `step_ms_p50` on catalog-1m | steady-hot |
//! | `bcast_index_tree` | `tree.build_ms` | `setup_s` on catalog-1m; `step_ms_p90` on lossy-recovery | steady-hot |
//! | `bcast_core::publish`, `bcast_core::delta`, `bcast_channel::publish` | `publish.full_ms`, `publish.delta_ms`, `publish.delta_patch_ratio`, `publish.touched_ppm`, `tenant.rebuild_ms`, `tenant.rebuilds`, `tenant.skipped_rebuilds` | `step_ms_p90` on drift-republish; `setup_s` on catalog-1m | steady-hot and catalog-1m after warm-up |
//! | `bcast_channel::snapshot` | `snapshot.verify_ms`, `snapshot.install_ms` | `throughput` on lossy-recovery (restores) | all others |
//! | `bcast_serve::checkpoint` | `checkpoint.write_ms`, `checkpoint.mb`, `restore.decode_ms`, `restore.first_slice_ms` | `throughput` on lossy-recovery | all others |
//! | `bcast_core::best_first` (+ the dominance table) | `search.expanded`, `search.generated`, `search.table_hit_ratio`, `search.bound_work_per_state`, `search.ns_per_expansion`, `search.peak_arena_mb` | `step_ms_p50` on exact-plan | every serving workload |
//! | harness | `reconcile.slice`, `reconcile.restore`, `trace.overhead` | — | — |
//!
//! `tenant.rebuilds`, `tenant.skipped_rebuilds`, `publish.delta_patch_ratio`,
//! `publish.touched_ppm` and `kernel.retries_per_req` count the prefix, so
//! they repeat exactly. `reconcile.slice` is the replayed stage time of a
//! round (summed over tenants), plus the rebuilds and drift-gate checks the
//! real slices between rounds paid, over those real slices; on exact-plan
//! it is search time over round time. `reconcile.restore` is restore plus
//! first slice over the whole kill → serving span. `trace.overhead` is
//! traced over untraced `step_ms_p50`.
//!
//! # Machine
//!
//! The reference box is a shared Linux container with 2 cores
//! (`nproc` = 2). Its 2-lane pool moves between about 1.4 and 2.9 ms per
//! steady-hot slice as the scheduler places the lanes, against a steady
//! 2.8 ms on one lane; that is why steady-hot is timed on one lane, and
//! the `pool.*` numbers measure coordination cost on a shared box, not
//! parallel speed-up. Over ten seeds, the quartile spread of a wall-clock
//! metric there ran from 2% to 36% of its median, with the load of the
//! box's other tenants, which can shift for many minutes at a time (the
//! per-request kernel cost doubled in one such shift): that is why every
//! wall-clock bound in `BENCHMARK.json` is 0.25, the largest allowed, and
//! not 0.10.

mod exact;
mod metrics;
mod replay;
mod service;
#[cfg(test)]
mod tests;
mod trace;
mod window;

use metrics::Metrics;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed every recorded number was measured with.
pub(crate) const DEFAULT_SEED: u64 = 24301;

/// Fewest set-ups an untraced run times; `setup_s` is their median.
const SETUPS: usize = 3;

/// Median set-up time of an untraced run: the `first` set-up (seconds)
/// plus repeats of `again`, until there are [`SETUPS`] of them and they
/// have taken an eighth of the window. A quick set-up (steady-hot's
/// 40 ms) is so sampled across more than one burst of the shared
/// machine's other load. Runs after the timed window, so it cannot
/// disturb the window or the peak memory it reports.
pub(crate) fn median_setup_s(
    first: f64,
    window: Duration,
    mut again: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut samples = vec![first];
    while samples.len() < SETUPS || samples.iter().sum::<f64>() < window.as_secs_f64() / 8.0 {
        let t0 = Instant::now();
        again()?;
        samples.push(t0.elapsed().as_secs_f64());
    }
    Ok(metrics::sorted_median(&mut samples))
}

const USAGE: &str = "usage: bcast_bench [--workload steady-hot|catalog-1m|drift-republish|\
lossy-recovery|exact-plan|all] [--seed N] [--seconds S] [--trace [0|1]]";

/// The five named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    SteadyHot,
    Catalog1m,
    DriftRepublish,
    LossyRecovery,
    ExactPlan,
}

impl Workload {
    pub(crate) const ALL: [Workload; 5] = [
        Workload::SteadyHot,
        Workload::Catalog1m,
        Workload::DriftRepublish,
        Workload::LossyRecovery,
        Workload::ExactPlan,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::SteadyHot => "steady-hot",
            Workload::Catalog1m => "catalog-1m",
            Workload::DriftRepublish => "drift-republish",
            Workload::LossyRecovery => "lossy-recovery",
            Workload::ExactPlan => "exact-plan",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one workload run is sized. `scale` divides catalog sizes and
/// request rates (1 = the published workload; tests use 100).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunSpec {
    pub(crate) seed: u64,
    pub(crate) seconds: Duration,
    pub(crate) trace: bool,
    pub(crate) scale: u32,
}

impl RunSpec {
    /// The untraced window: all of `--seconds`, or the first half of a
    /// traced run (the traced window takes the second).
    pub(crate) fn untraced_window(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

/// What a successful run reports.
#[derive(Debug)]
pub(crate) struct Report {
    /// FNV-1a over the prefix outcome; equal for equal seeds.
    pub(crate) fingerprint: u64,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) timed_steps: usize,
    pub(crate) prefix_steps: usize,
    pub(crate) metrics: Metrics,
}

/// Runs one workload; `Err` means a correctness check or a call failed.
pub(crate) fn run(w: Workload, spec: &RunSpec) -> Result<Report, String> {
    match w {
        Workload::ExactPlan => exact::run(spec),
        _ => service::run(w, spec),
    }
}

/// The command line: which workload (`None` = all) and how to run it.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    spec: RunSpec,
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        spec: RunSpec {
            seed: DEFAULT_SEED,
            seconds: Duration::from_secs(15),
            trace: false,
            scale: 1,
        },
    };
    let spec = &mut args.spec;
    let rest: Vec<String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let value = rest.get(i + 1).map(String::as_str);
        match rest[i].as_str() {
            "--workload" => {
                args.workload = match value {
                    Some("all") => None,
                    Some(name) => Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    ),
                    None => return Err("--workload needs a value".into()),
                };
                i += 2;
            }
            "--seed" => {
                spec.seed = value
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an unsigned integer")?;
                i += 2;
            }
            "--seconds" => {
                spec.seconds = value
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .map(Duration::from_secs_f64)
                    .ok_or("--seconds needs a number of seconds in [0, 3600]")?;
                i += 2;
            }
            "--trace" => match value {
                Some("0") => (spec.trace, i) = (false, i + 2),
                Some("1") => (spec.trace, i) = (true, i + 2),
                _ => (spec.trace, i) = (true, i + 1),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("bcast_bench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args.spec),
        None => run_all(&args.spec),
    }
}

fn run_one(w: Workload, spec: &RunSpec) -> ExitCode {
    match run(w, spec) {
        Ok(report) => {
            println!("{}", metrics::detail_line(w, spec, &report));
            println!("{}", metrics::result_line(&report, spec.trace));
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("bcast_bench: {}: {msg}", w.name());
            ExitCode::FAILURE
        }
    }
}

/// Re-executes this binary once per workload, in order, so each gets a
/// cold process; the children print straight to this process's output.
/// Stops at the first workload that fails.
fn run_all(spec: &RunSpec) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bcast_bench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--seconds", &spec.seconds.as_secs_f64().to_string()])
            .args(["--trace", if spec.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("bcast_bench: {} failed ({s})", w.name());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("bcast_bench: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
