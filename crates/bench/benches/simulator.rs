//! Ablation A4: broadcast-substrate throughput — program materialization
//! (pointer computation), route-table compilation, and client-access
//! serving, over trees of increasing size. Two axes added in PR 3 keep the
//! compile-then-serve layer honest:
//!
//! * **batched vs scalar** — the same request batch through the scalar
//!   pointer-walking `simulator::access` loop and through
//!   `CompiledProgram::serve_batch`;
//! * **threads** — the sharded serving engine at 1/2/4 threads (on a
//!   single-core container the >1 rows measure coordination overhead).
//!
//! The `request_path` group measures the crossover behind
//! `PREFETCH_MIN_LEN`: the sampler's chunked draw against a `sample`
//! loop, the estimator's chunked count against an `observe` loop, and a
//! warm `ServeLoop::run_slice` per request (one tenant, republishes off),
//! at 4,096 to 1,000,000 items.

use bcast_adaptive::EmaEstimator;
use bcast_channel::{simulator, BroadcastProgram, CompiledProgram, ServeOptions, SERVE_CHUNK};
use bcast_core::heuristics::sorting;
use bcast_index_tree::{knary, IndexTree};
use bcast_serve::{ServeLoop, TenantConfig};
use bcast_types::{NodeId, SloSpec, Slot};
use bcast_workloads::{DemandShape, DemandSpec, FrequencyDist, RequestStream, TaggedAliasTable};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

fn setup(n: usize) -> (IndexTree, bcast_channel::Allocation) {
    let weights = FrequencyDist::Zipf {
        theta: 1.0,
        scale: 1000.0,
    }
    .sample(n, 8);
    let tree = knary::build_weight_balanced(&weights, 8).expect("non-empty");
    let alloc = sorting::sorting_schedule(&tree, 4)
        .into_allocation(&tree, 4)
        .expect("feasible");
    (tree, alloc)
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    for n in [256usize, 4096] {
        let (tree, alloc) = setup(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(
            BenchmarkId::new("program_build", n),
            &(&tree, &alloc),
            |b, (t, a)| b.iter(|| black_box(BroadcastProgram::build(a, t).unwrap().cycle_len())),
        );
        let program = BroadcastProgram::build(&alloc, &tree).expect("valid");
        g.bench_with_input(
            BenchmarkId::new("compile_route_tables", n),
            &(&program, &tree),
            |b, (p, t)| {
                b.iter(|| black_box(CompiledProgram::compile(p, t).unwrap().num_data_nodes()))
            },
        );
        g.bench_with_input(
            BenchmarkId::new("single_access", n),
            &(&program, &tree),
            |b, (p, t)| {
                let target = *t.data_nodes().last().expect("non-empty");
                b.iter(|| black_box(simulator::access(p, t, target, Slot::FIRST).unwrap()))
            },
        );
        g.bench_with_input(
            BenchmarkId::new("aggregate_metrics", n),
            &(&program, &tree),
            |b, (p, t)| {
                b.iter(|| black_box(simulator::aggregate_metrics(p, t).unwrap().avg_data_wait))
            },
        );
    }
    g.finish();
}

/// Batched-vs-scalar and thread axes over a fixed 16k-request Zipf batch.
fn bench_serving(c: &mut Criterion) {
    const REQUESTS: usize = 16_384;
    let mut g = c.benchmark_group("serving");
    for n in [256usize, 4096] {
        let (tree, alloc) = setup(n);
        let program = BroadcastProgram::build(&alloc, &tree).expect("valid");
        let compiled = CompiledProgram::compile(&program, &tree).expect("routable");
        let data = tree.data_nodes();
        let targets: Vec<NodeId> = RequestStream::zipf(data.len(), 1.0, 77)
            .take(REQUESTS)
            .map(|i| data[i])
            .collect();
        let opts = ServeOptions {
            threads: 1,
            seed: 99,
            ..ServeOptions::default()
        };
        g.throughput(Throughput::Elements(REQUESTS as u64));
        g.bench_with_input(
            BenchmarkId::new("scalar_access_loop", n),
            &(&program, &tree, &targets),
            |b, (p, t, targets)| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for (i, &target) in targets.iter().enumerate() {
                        let tune = opts.tune_in(i as u64, p.cycle_len());
                        acc +=
                            u64::from(simulator::access(p, t, target, tune).unwrap().access_time());
                    }
                    black_box(acc)
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("batched_compiled", n),
            &(&compiled, &targets),
            |b, (c, targets)| {
                b.iter(|| black_box(c.serve_batch(targets, &opts).unwrap().mean_access_time))
            },
        );
        for threads in [1usize, 2, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("batched_threads_n{n}"), threads),
                &(&compiled, &targets),
                |b, (c, targets)| {
                    let t_opts = ServeOptions { threads, ..opts };
                    b.iter(|| black_box(c.serve_batch(targets, &t_opts).unwrap().mean_access_time))
                },
            );
        }
    }
    g.finish();
}

/// The request path's per-request cost on each side of
/// `PREFETCH_MIN_LEN`, over Zipf(0.9) demand as the serving tenants draw
/// it: 64 chunks of draws or counts per iteration, and one 200,000-request
/// slice per `run_slice` iteration (divide the time per iteration by
/// those counts for the time per request).
fn bench_request_path(c: &mut Criterion) {
    const DRAWS: usize = 64 * SERVE_CHUNK;
    const RATE: u32 = 200_000;
    let shape = DemandShape::Zipf { theta: 0.9 };
    let mut g = c.benchmark_group("request_path");
    g.measurement_time(Duration::from_secs(1));
    for n in [4_096usize, 16_384, 65_536, 262_144, 1_000_000] {
        let mut pmf = Vec::new();
        shape.pmf_into(n, &mut pmf);
        let mut sampler = TaggedAliasTable::new();
        sampler.rebuild(&pmf, |i| 3 * i as u32);
        // The counting rows walk a pool 64 iterations long, so an
        // iteration does not find the counts the last one warmed.
        let mut state = 0x5EED_u64;
        let pool: Vec<u32> = (0..64 * DRAWS)
            .map(|_| sampler.sample(&mut state).0)
            .collect();
        g.throughput(Throughput::Elements(DRAWS as u64));
        g.bench_function(BenchmarkId::new("sample_loop", n), |b| {
            let mut state = 1u64;
            b.iter(|| {
                let mut acc = 0u32;
                for _ in 0..DRAWS {
                    acc ^= sampler.sample(&mut state).1;
                }
                black_box(acc)
            })
        });
        g.bench_function(BenchmarkId::new("sample_chunk", n), |b| {
            let mut state = 1u64;
            let (mut drawn, mut tags) = ([0u32; SERVE_CHUNK], [0u32; SERVE_CHUNK]);
            b.iter(|| {
                let mut acc = 0u32;
                for _ in 0..DRAWS / SERVE_CHUNK {
                    sampler.sample_chunk(&mut state, &mut drawn, &mut tags);
                    acc ^= tags[SERVE_CHUNK - 1];
                }
                black_box(acc)
            })
        });
        let mut estimator = EmaEstimator::new(n, 0.4);
        let mut batches = pool.chunks(DRAWS).cycle();
        g.bench_function(BenchmarkId::new("observe_loop", n), |b| {
            b.iter(|| {
                for &item in batches.next().expect("cycles") {
                    estimator.observe(item as usize);
                }
            })
        });
        g.bench_function(BenchmarkId::new("observe_chunk", n), |b| {
            b.iter(|| {
                for chunk in batches.next().expect("cycles").chunks(SERVE_CHUNK) {
                    estimator.observe_chunk(chunk);
                }
            })
        });

        let mut config = TenantConfig::new(0, n);
        config.rebuild_every = None;
        config.degradation = None;
        let mut svc = ServeLoop::new(0x5EED, 1);
        svc.join(config);
        svc.tenants_mut()[0].begin_phase(
            DemandSpec::flat(shape, RATE),
            None,
            SloSpec::lossless(),
            u32::MAX,
        );
        svc.run_slices(2);
        g.throughput(Throughput::Elements(u64::from(RATE)));
        g.bench_function(BenchmarkId::new("run_slice", n), |b| {
            b.iter(|| svc.run_slice())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simulator, bench_serving, bench_request_path);
criterion_main!(benches);
