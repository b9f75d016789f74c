//! Every workload at 1/100 scale passes its checks twice with equal
//! fingerprints; the traced run fills the per-layer table; the metric
//! tables match `BENCHMARK.json`.

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::{parse_args, run, Report, RunSpec, Workload, DEFAULT_SEED};
use std::time::Duration;

fn small(seed: u64, trace: bool) -> RunSpec {
    RunSpec {
        seed,
        seconds: Duration::ZERO,
        trace,
        scale: 100,
    }
}

fn run_small(w: Workload, seed: u64, trace: bool) -> Report {
    run(w, &small(seed, trace)).unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

fn passes_twice(w: Workload) {
    let a = run_small(w, DEFAULT_SEED, false);
    let b = run_small(w, DEFAULT_SEED, false);
    assert_eq!(
        a.fingerprint,
        b.fingerprint,
        "{}: same seed, same outcome",
        w.name()
    );
    for name in ["mean_wait_slots", "p99_wait_slots", "delivery_rate"] {
        assert_eq!(a.metrics[name], b.metrics[name], "{}: {name}", w.name());
    }
    assert_eq!(a.failed, 0);
    assert!(a.attempted > 0 && a.timed_steps >= a.prefix_steps);
    let other = run_small(w, 7, false);
    assert_ne!(
        a.fingerprint,
        other.fingerprint,
        "{}: the seed matters",
        w.name()
    );
}

#[test]
fn steady_hot_passes_twice() {
    passes_twice(Workload::SteadyHot);
}

#[test]
fn catalog_1m_passes_twice() {
    passes_twice(Workload::Catalog1m);
}

#[test]
fn drift_republish_passes_twice() {
    passes_twice(Workload::DriftRepublish);
}

#[test]
fn lossy_recovery_passes_twice() {
    passes_twice(Workload::LossyRecovery);
}

#[test]
fn exact_plan_passes_twice() {
    passes_twice(Workload::ExactPlan);
}

#[test]
fn traced_runs_report_every_layer_and_reconcile() {
    for w in Workload::ALL {
        let r = run_small(w, DEFAULT_SEED, true);
        assert_eq!(r.metrics.len(), PER_LAYER.len(), "{}", w.name());
        assert!(r.metrics["reconcile.slice"] > 0.0, "{}", w.name());
        assert!(r.metrics["trace.overhead"] > 0.0, "{}", w.name());
        let untraced = run_small(w, DEFAULT_SEED, false);
        assert_eq!(
            r.fingerprint,
            untraced.fingerprint,
            "{}: tracing moved the outcome",
            w.name()
        );
    }
    let lossy = run_small(Workload::LossyRecovery, DEFAULT_SEED, true);
    for name in [
        "checkpoint.write_ms",
        "checkpoint.mb",
        "restore.decode_ms",
        "reconcile.restore",
    ] {
        assert!(lossy.metrics[name] > 0.0, "lossy-recovery {name}");
    }
    let exact = run_small(Workload::ExactPlan, DEFAULT_SEED, true);
    assert!(exact.metrics["search.expanded"] > 0.0);
    assert_eq!(
        exact.metrics["sampler.ns_per_req"], 0.0,
        "no serving layer runs"
    );
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    assert_eq!(
        text.matches("\"better\"").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists a metric the benchmark does not print"
    );
}

#[test]
fn arguments_parse_and_unknown_ones_are_refused() {
    let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let a = args("--workload exact-plan --seed 5 --seconds 2.5 --trace 1").unwrap();
    assert_eq!(a.workload, Some(Workload::ExactPlan));
    assert_eq!(
        (a.spec.seed, a.spec.seconds, a.spec.trace),
        (5, Duration::from_secs_f64(2.5), true)
    );
    assert!(!args("--trace 0").unwrap().spec.trace);
    assert!(args("--trace").unwrap().spec.trace);
    assert_eq!(args("--workload all").unwrap().workload, None);
    assert!(args("--workload earthquake").is_err());
    assert!(args("--frobnicate").is_err());
    assert!(args("--seed -1").is_err());
    assert!(args("--seconds").is_err());
}

#[test]
fn result_line_carries_every_metric_with_its_unit() {
    let report = Report {
        fingerprint: 0,
        attempted: 3,
        failed: 0,
        timed_steps: 1,
        prefix_steps: 1,
        metrics: END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect(),
    };
    let line = metrics::result_line(&report, false);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    assert!(line.ends_with("}}}"));
}
