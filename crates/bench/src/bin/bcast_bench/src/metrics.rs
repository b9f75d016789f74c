//! Metric tables, summary statistics and the JSON lines the benchmark
//! prints. The two tables are the benchmark's contract with
//! `BENCHMARK.json` (a test keeps them in step).

use crate::{Report, RunSpec, Workload};
use std::collections::BTreeMap;

/// Metric name → measured value.
pub(crate) type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics (untraced runs): name and unit.
pub(crate) const END_TO_END: [(&str, &str); 8] = [
    ("throughput", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("mean_wait_slots", "slots"),
    ("p99_wait_slots", "slots"),
    ("delivery_rate", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit.
pub(crate) const PER_LAYER: [(&str, &str); 36] = [
    ("pool.busy_share", "fraction"),
    ("pool.handshake_ms", "ms"),
    ("pool.imbalance_ppm", "ppm"),
    ("sampler.ns_per_req", "ns"),
    ("sampler.rebuild_ms", "ms"),
    ("estimate.observe_ns_per_req", "ns"),
    ("estimate.roll_ms", "ms"),
    ("estimate.drift_ms", "ms"),
    ("kernel.clean_ns_per_req", "ns"),
    ("kernel.session_reset_ms", "ms"),
    ("kernel.lossy_ns_per_req", "ns"),
    ("kernel.retries_per_req", "ratio"),
    ("hist.absorb_ms", "ms"),
    ("tree.build_ms", "ms"),
    ("publish.full_ms", "ms"),
    ("publish.delta_ms", "ms"),
    ("publish.delta_patch_ratio", "ratio"),
    ("publish.touched_ppm", "ppm"),
    ("tenant.rebuild_ms", "ms"),
    ("tenant.rebuilds", "count"),
    ("tenant.skipped_rebuilds", "count"),
    ("snapshot.verify_ms", "ms"),
    ("snapshot.install_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.mb", "MB"),
    ("restore.decode_ms", "ms"),
    ("restore.first_slice_ms", "ms"),
    ("search.expanded", "count"),
    ("search.generated", "count"),
    ("search.table_hit_ratio", "ratio"),
    ("search.bound_work_per_state", "count"),
    ("search.ns_per_expansion", "ns"),
    ("search.peak_arena_mb", "MB"),
    ("reconcile.slice", "ratio"),
    ("reconcile.restore", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The table a run prints.
pub(crate) fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Every metric of the printed table at 0 — the value of a layer the
/// workload does not run.
pub(crate) fn zeroed(trace: bool) -> Metrics {
    table(trace).iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// Fails unless `m` holds exactly the printed table's metrics, all finite.
pub(crate) fn check_complete(m: &Metrics, trace: bool) -> Result<(), String> {
    let want = table(trace);
    for (name, _) in want {
        match m.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("metric {name} is not finite ({v})")),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    if m.len() != want.len() {
        return Err(format!(
            "{} metrics measured, {} expected",
            m.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of an ascending slice.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` ascending and returns its median (upper middle).
pub(crate) fn sorted_median(v: &mut [f64]) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    percentile(v, 0.5)
}

/// Peak resident set of this process in MB (10⁶ bytes), from `VmHWM`.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// FNV-1a over little-endian words: the outcome fingerprint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub(crate) fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

/// The per-workload detail object (printed before the result line).
pub(crate) fn detail_line(w: Workload, spec: &RunSpec, r: &Report) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        concat!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"fingerprint\": \"{:016x}\", \"prefix_steps\": {}, \"timed_steps\": {}, ",
            "\"ops_attempted\": {}, \"ops_failed\": {}, ",
            "\"available_parallelism\": {}}}"
        ),
        w.name(),
        spec.seed,
        spec.seconds.as_secs_f64(),
        spec.trace,
        r.fingerprint,
        r.prefix_steps,
        r.timed_steps,
        r.attempted,
        r.failed,
        cores
    )
}

/// The result object: the last line of a run's standard output.
pub(crate) fn result_line(r: &Report, trace: bool) -> String {
    let entries = table(trace)
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                r.metrics[name]
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{entries}}}}}",
        r.attempted, r.failed
    )
}
