//! Million-request serving stress: the batched compiled engine at the
//! ROADMAP's traffic scale. Ignored by default (several seconds in debug
//! builds); `make stress` runs it in release mode alongside the other
//! `stress` tests.

use broadcast_alloc::alloc::heuristics::sorting;
use broadcast_alloc::channel::{simulator, BroadcastProgram, CompiledProgram, ServeOptions};
use broadcast_alloc::tree::knary;
use broadcast_alloc::types::NodeId;
use broadcast_alloc::workloads::{FrequencyDist, RequestStream};

#[test]
#[ignore = "million-request serving stress; run via `make stress`"]
fn million_request_serving_stress() {
    const ITEMS: usize = 4096;
    const REQUESTS: usize = 1_000_000;
    const CHANNELS: usize = 4;
    let weights = FrequencyDist::Zipf {
        theta: 1.0,
        scale: 1000.0,
    }
    .sample(ITEMS, 23);
    let tree = knary::build_weight_balanced(&weights, 8).expect("non-empty");
    let alloc = sorting::sorting_schedule(&tree, CHANNELS)
        .into_allocation(&tree, CHANNELS)
        .expect("feasible");
    let program = BroadcastProgram::build(&alloc, &tree).expect("valid program");
    let compiled = CompiledProgram::compile(&program, &tree).expect("routable");
    let data = tree.data_nodes();
    let targets: Vec<NodeId> = RequestStream::zipf(data.len(), 1.0, 6)
        .take(REQUESTS)
        .map(|i| data[i])
        .collect();

    let opts = ServeOptions {
        threads: 1,
        seed: 0xBEEF,
        ..ServeOptions::default()
    };
    let m1 = compiled
        .serve_batch(&targets, &opts)
        .expect("all reachable");
    assert_eq!(m1.requests, REQUESTS);
    assert_eq!(m1.histogram.count(), REQUESTS as u64);

    // Sharded serving is bit-identical to sequential at any thread count.
    for threads in [2usize, 4] {
        let mt = compiled
            .serve_batch(&targets, &ServeOptions { threads, ..opts })
            .expect("all reachable");
        assert_eq!(m1, mt, "threads = {threads}");
    }

    // Sanity bounds: access time sits between 1 slot and probe + data
    // worst cases; the histogram agrees with the point statistics.
    let cycle = compiled.cycle_len() as f64;
    assert!(m1.mean_access_time >= 1.0 && m1.mean_access_time <= 2.0 * cycle);
    assert!(m1.mean_data_wait < cycle);
    assert!(f64::from(m1.histogram.percentile(0.5)) <= m1.mean_access_time * 2.0);
    assert!(m1.histogram.max() <= 2 * compiled.cycle_len() as u32);

    // Spot-check a deterministic subsample against the pointer-walking
    // oracle: the million-request aggregate is only trustworthy if each
    // individual table read still matches a real pointer walk.
    for i in (0..REQUESTS).step_by(9973) {
        let tune = opts.tune_in(i as u64, compiled.cycle_len());
        let oracle = simulator::access(&program, &tree, targets[i], tune).expect("reachable");
        let fast = compiled.access(targets[i], tune).expect("routed");
        assert_eq!(oracle, fast, "request {i}");
    }
}
