//! exact-plan: rounds of the paper's best-first search over a fixed
//! instance set. No serving layer runs.

use crate::metrics::{self, sorted_median, Fnv, Metrics};
use crate::trace::{self, timed, Tracer};
use crate::window::{self, Block, Stepper};
use crate::{median_setup_s, Report, RunSpec, Workload, DEFAULT_SEED};
use bcast_channel::cost;
use bcast_core::best_first::{self, BestFirstOptions, BestFirstResult};
use bcast_core::heuristics::sorting;
use bcast_index_tree::{builders, IndexTree};
use bcast_types::{mix64, NodeId, Weight};
use bcast_workloads::FrequencyDist;
use std::time::Instant;

/// Timed rounds whose outcome is checked before timing continues.
const PREFIX_ROUNDS: usize = 2;
/// Rounds per block: the fewest whose p50 and p90 are different rounds.
const BLOCK_ROUNDS: usize = 2;
/// Largest relative change the seed makes to a base weight: small enough
/// that every seed searches with comparable effort.
const PERTURBATION: f64 = 0.02;
/// Seed of the balanced trees' base weights (the search benches' own).
const BASE_WEIGHT_SEED: u64 = 99;

/// Optimal expected access time (probe + data wait, slots) of each
/// instance at the default seed, in instance order.
const DEFAULT_SEED_ACCESS: [f64; 4] = [
    6.772854458832239,
    8.255149106374706,
    21.05091896909714,
    14.931060158734322,
];

struct Instance {
    name: &'static str,
    tree: IndexTree,
    k: usize,
}

/// Scales every data weight of `tree` by a seeded factor in
/// `1 ± PERTURBATION`.
fn perturbed(mut tree: IndexTree, seed: u64, salt: u64) -> Result<IndexTree, String> {
    let updates = tree
        .data_nodes()
        .iter()
        .enumerate()
        .map(|(j, &d)| {
            let u = (mix64(seed ^ mix64(salt << 32 | j as u64)) >> 11) as f64 / (1u64 << 53) as f64;
            let w = tree.weight(d).get() * (1.0 + PERTURBATION * (2.0 * u - 1.0));
            Weight::new(w).map(|w| (d, w))
        })
        .collect::<Result<Vec<(NodeId, Weight)>, _>>()
        .map_err(|e| format!("perturbed weight rejected: {e:?}"))?;
    tree.reweight(&updates);
    Ok(tree)
}

/// The paper example (k=2), balanced-m3 (k=2) and, at full scale,
/// balanced-d4 at k=2 and k=3.
fn instances(seed: u64, scale: u32) -> Result<Vec<Instance>, String> {
    let uniform = FrequencyDist::Uniform { lo: 1.0, hi: 100.0 };
    let balanced = |m: usize, depth: u32| {
        builders::full_balanced(
            m,
            depth,
            &uniform.sample(m.pow(depth - 1), BASE_WEIGHT_SEED),
        )
        .map_err(|e| format!("balanced tree: {e}"))
    };
    let mut out = vec![
        Instance {
            name: "paper",
            tree: perturbed(builders::paper_example(), seed, 0)?,
            k: 2,
        },
        Instance {
            name: "balanced-m3",
            tree: perturbed(balanced(3, 3)?, seed, 1)?,
            k: 2,
        },
    ];
    if scale == 1 {
        let d4 = perturbed(balanced(3, 4)?, seed, 2)?;
        out.push(Instance {
            name: "balanced-d4",
            tree: d4.clone(),
            k: 2,
        });
        out.push(Instance {
            name: "balanced-d4",
            tree: d4,
            k: 3,
        });
    }
    Ok(out)
}

fn search(inst: &Instance) -> Result<BestFirstResult, String> {
    best_first::search(&inst.tree, inst.k, &BestFirstOptions::default())
        .map_err(|e| format!("{} (k={}): {e}", inst.name, inst.k))
}

/// The plan is feasible, its cost is what the search reports, and that
/// cost sits between the analytic lower bound and the sorting heuristic.
fn validate(inst: &Instance, r: &BestFirstResult) -> Result<(), String> {
    let what = format!("{} (k={})", inst.name, inst.k);
    r.schedule
        .into_allocation(&inst.tree, inst.k)
        .map_err(|e| format!("{what}: optimal plan is infeasible: {e:?}"))?;
    let tol = 1e-9 * r.data_wait.max(1.0);
    if (r.schedule.average_data_wait(&inst.tree) - r.data_wait).abs() > tol {
        return Err(format!("{what}: reported cost does not match its plan"));
    }
    let lower = cost::data_wait_lower_bound(&inst.tree, inst.k);
    let heuristic = sorting::sorting_schedule(&inst.tree, inst.k).average_data_wait(&inst.tree);
    if r.data_wait < lower - tol || r.data_wait > heuristic + tol {
        return Err(format!(
            "{what}: cost {} outside [lower bound {lower}, sorting heuristic {heuristic}]",
            r.data_wait
        ));
    }
    Ok(())
}

/// Expected access time of the optimal plan: probe wait plus data wait.
fn access_time(r: &BestFirstResult) -> f64 {
    cost::expected_probe_wait(r.schedule.len()) + r.data_wait
}

/// p99 access time of the optimal plan: a client tunes in uniformly over
/// the cycle (probe wait 1..=L slots), then waits for its item's slot.
fn p99_access(inst: &Instance, r: &BestFirstResult) -> u32 {
    let l = r.schedule.len();
    let total = inst.tree.total_weight().get();
    let mut mass = vec![0.0f64; 2 * l + 1];
    for (offset, members) in r.schedule.slots().iter().enumerate() {
        for &n in members.iter().filter(|&&n| inst.tree.is_data(n)) {
            let p = inst.tree.weight(n).get() / total / l as f64;
            for probe in 1..=l {
                mass[probe + offset + 1] += p;
            }
        }
    }
    let mut cdf = 0.0;
    for (v, p) in mass.iter().enumerate() {
        cdf += p;
        if cdf >= 0.99 - 1e-12 {
            return v as u32;
        }
    }
    (2 * l) as u32
}

struct ExactRun {
    instances: Vec<Instance>,
    reference: Vec<BestFirstResult>,
    attempted: u64,
    failed: u64,
    rounds: usize,
    /// Per round: (wall ms, ms inside searches).
    round_ms: Vec<(f64, f64)>,
}

impl Stepper for ExactRun {
    /// Solves every instance once, demanding the warm-up round's counts.
    fn step(&mut self, tracer: &mut Option<Tracer>) -> Result<(f64, u64), String> {
        let span = trace::open(tracer, "exact.round");
        let t0 = Instant::now();
        let mut search_ns = 0;
        for (inst, want) in self.instances.iter().zip(&self.reference) {
            self.attempted += 1;
            let (r, ns) = timed(tracer, "best_first.search", || search(inst));
            let r = r.inspect_err(|_| self.failed += 1)?;
            search_ns += ns;
            if r.nodes_expanded != want.nodes_expanded
                || r.nodes_generated != want.nodes_generated
                || r.data_wait.to_bits() != want.data_wait.to_bits()
            {
                return Err(format!(
                    "round {}: {} (k={}) expanded {} / generated {} states at cost {}, \
                     the warm-up round {} / {} at {}",
                    self.rounds,
                    inst.name,
                    inst.k,
                    r.nodes_expanded,
                    r.nodes_generated,
                    r.data_wait,
                    want.nodes_expanded,
                    want.nodes_generated,
                    want.data_wait
                ));
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        trace::close(tracer, span);
        self.rounds += 1;
        self.round_ms.push((ms, search_ns as f64 / 1e6));
        Ok((ms, self.instances.len() as u64))
    }

    fn prefix_done(&self) -> bool {
        self.rounds >= PREFIX_ROUNDS
    }
}

/// Builds the instances and solves each once (the warm-up round).
fn setup(
    spec: &RunSpec,
    tracer: &mut Option<Tracer>,
) -> Result<(Vec<Instance>, Vec<BestFirstResult>), String> {
    let span = trace::open(tracer, "setup");
    let instances = instances(spec.seed, spec.scale)?;
    let reference = instances
        .iter()
        .map(|i| timed(tracer, "best_first.search", || search(i)).0)
        .collect::<Result<Vec<_>, _>>()?;
    trace::close(tracer, span);
    Ok((instances, reference))
}

/// Runs exact-plan.
pub(crate) fn run(spec: &RunSpec) -> Result<Report, String> {
    let mut tracer = spec.trace.then(Tracer::new);
    let t0 = Instant::now();
    let (instances, reference) = setup(spec, &mut tracer)?;
    let first_setup_s = t0.elapsed().as_secs_f64();
    // Read after the warm-up round rather than the prefix: each further
    // round of the d4 searches adds allocator fragmentation that varies
    // by seed (117 to 137 MB over eight seeds), against ±2% here.
    let peak_rss_mb = metrics::peak_rss_mb()?;
    for (inst, r) in instances.iter().zip(&reference) {
        validate(inst, r)?;
    }
    let access: Vec<f64> = reference.iter().map(access_time).collect();
    let recorded = access.len() == DEFAULT_SEED_ACCESS.len()
        && access
            .iter()
            .zip(DEFAULT_SEED_ACCESS)
            .all(|(got, want)| (got - want).abs() <= 1e-9 * want);
    if spec.seed == DEFAULT_SEED && spec.scale == 1 && !recorded {
        return Err(format!(
            "optimal access times {access:?} slots, recorded {DEFAULT_SEED_ACCESS:?}"
        ));
    }
    let p99 = instances
        .iter()
        .zip(&reference)
        .map(|(i, r)| p99_access(i, r))
        .max()
        .unwrap_or(0);
    let mut fp = Fnv::new();
    for (a, r) in access.iter().zip(&reference) {
        fp.f64(*a);
        fp.u64(r.nodes_expanded);
        fp.u64(r.nodes_generated);
    }

    let mut run = ExactRun {
        instances,
        reference,
        attempted: 0,
        failed: 0,
        rounds: 0,
        round_ms: Vec::new(),
    };
    let untraced = window::run(&mut run, &mut None, spec.untraced_window(), BLOCK_ROUNDS)?;

    let metrics = if spec.trace {
        run.round_ms.clear();
        let traced = window::run(&mut run, &mut tracer, spec.seconds / 2, BLOCK_ROUNDS)?;
        trace::save(&tracer, Workload::ExactPlan)?;
        layer_metrics(&run, &traced, &untraced)
    } else {
        let setup_s = median_setup_s(first_setup_s, spec.seconds, || {
            setup(spec, &mut None).map(drop)
        })?;
        let mut m = Metrics::new();
        window::insert_wall_metrics(&mut m, &untraced);
        m.insert(
            "mean_wait_slots",
            access.iter().sum::<f64>() / access.len() as f64,
        );
        m.insert("p99_wait_slots", f64::from(p99));
        m.insert("delivery_rate", 1.0);
        m.insert("setup_s", setup_s);
        m.insert("peak_rss_mb", peak_rss_mb);
        m
    };
    metrics::check_complete(&metrics, spec.trace)?;
    Ok(Report {
        fingerprint: fp.0,
        attempted: run.attempted,
        failed: run.failed,
        timed_steps: run.rounds,
        prefix_steps: PREFIX_ROUNDS,
        metrics,
    })
}

fn layer_metrics(run: &ExactRun, traced: &[Block], untraced: &[Block]) -> Metrics {
    let reference = &run.reference;
    let expanded: u64 = reference.iter().map(|r| r.nodes_expanded).sum();
    let generated: u64 = reference.iter().map(|r| r.nodes_generated).sum();
    let (mut probes, mut hits, mut work, mut states, mut arena) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for r in reference {
        probes += r.stats.table_probes;
        hits += r.stats.table_hits;
        work += r.stats.bound_work;
        states += r.stats.bound_inc_updates + r.stats.bound_full_evals;
        arena = arena.max(r.stats.peak_arena_bytes);
    }
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let mut search_ms: Vec<f64> = run.round_ms.iter().map(|r| r.1).collect();
    let mut m = metrics::zeroed(true);
    m.insert("search.expanded", expanded as f64);
    m.insert("search.generated", generated as f64);
    m.insert("search.table_hit_ratio", ratio(hits as f64, probes as f64));
    m.insert(
        "search.bound_work_per_state",
        ratio(work as f64, states as f64),
    );
    m.insert(
        "search.ns_per_expansion",
        sorted_median(&mut search_ms) * 1e6 / expanded.max(1) as f64,
    );
    m.insert("search.peak_arena_mb", arena as f64 / 1e6);
    m.insert(
        "reconcile.slice",
        ratio(
            run.round_ms.iter().map(|r| r.1).sum(),
            run.round_ms.iter().map(|r| r.0).sum(),
        ),
    );
    m.insert(
        "trace.overhead",
        window::quiet_step_ms(traced, 0.5) / window::quiet_step_ms(untraced, 0.5),
    );
    m
}
