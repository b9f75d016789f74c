//! `bcast` — command-line front end for the broadcast-allocation library.
//!
//! ```text
//! bcast optimal   [--input FILE | --demo] --channels K [--strategy S] [--limit N]
//! bcast heuristic [--input FILE | --demo] --channels K [--method M] [--replicas R]
//! bcast simulate  [--input FILE | --demo] --channels K --item LABEL [--tune-in SLOT]
//!                 [--loss P | --burst GB,BG,LG,LB] [--retries N] [--timeout SLOTS]
//!                 [--replicas R] [--requests N] [--seed S]
//! bcast render    [--input FILE | --demo]
//! bcast gen       --items N [--dist zipf|uniform|normal] [--fanout F] [--seed S]
//! bcast serve     --scenario NAME|all [--tenants N] [--items N] [--rate R]
//!                 [--slices S] [--threads T] [--seed S] [--budget R]
//!                 [--checkpoint-dir DIR [--checkpoint-every N] [--restore]]
//! bcast snapshot  save  [--input FILE | --demo] --channels K --output FILE [--method M]
//! bcast snapshot  load  --file FILE
//! bcast snapshot  serve --file FILE [--requests N] [--seed S]
//! ```
//!
//! Trees are read in the text format of [`broadcast_alloc::textfmt`]
//! (`--demo` loads the paper's Fig. 1(a) example). `gen` prints a fresh
//! tree in the same format, so pipelines compose:
//!
//! ```text
//! bcast gen --items 40 --dist zipf | bcast heuristic --channels 3
//! ```

use broadcast_alloc::alloc::heuristics::{shrink, sorting};
use broadcast_alloc::alloc::{
    baselines, find_optimal, replication, OptimalOptions, Schedule, Strategy,
};
use broadcast_alloc::channel::{
    simulator, BroadcastProgram, CompiledProgram, FaultPlan, GilbertElliott, MappedSnapshot,
    RecoveryPolicy, RequestOutcome, ServeOptions,
};
use broadcast_alloc::serve::{run_scenario_with_stats, PoolStats, ScenarioOutcome};
use broadcast_alloc::textfmt;
use broadcast_alloc::tree::{knary, IndexTree, TreeStats};
use broadcast_alloc::types::Slot;
use broadcast_alloc::workloads::{FrequencyDist, RequestStream};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::process::ExitCode;

/// `print!` for command output; see [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for command output; see [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes command output to stdout. A reader that closes the pipe early
/// (`bcast gen … | head -1`) ends the command quietly with status 0:
/// output nobody reads is no error. Any other write failure is reported
/// and exits with status 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("bcast: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bcast: {msg}");
            eprintln!("run `bcast help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    const INPUT: &[&str] = &["input", "demo"];
    // `snapshot` takes a subcommand word before its flags.
    if cmd == "snapshot" {
        let Some(sub) = args.get(1) else {
            return Err("snapshot needs a subcommand: save, load or serve".into());
        };
        let opts = parse_flags(&args[2..])?;
        return match sub.as_str() {
            "save" => {
                opts.allow(INPUT, &["channels", "output", "method"])?;
                cmd_snapshot_save(&opts)
            }
            "load" => {
                opts.allow(&[], &["file"])?;
                cmd_snapshot_load(&opts)
            }
            "serve" => {
                opts.allow(&[], &["file", "requests", "seed"])?;
                cmd_snapshot_serve(&opts)
            }
            other => Err(format!("unknown snapshot subcommand '{other}'")),
        };
    }
    let opts = parse_flags(&args[1..])?;
    match cmd.as_str() {
        "optimal" => {
            opts.allow(INPUT, &["channels", "strategy", "limit"])?;
            cmd_optimal(&opts)
        }
        "heuristic" => {
            opts.allow(INPUT, &["channels", "method", "replicas"])?;
            cmd_heuristic(&opts)
        }
        "simulate" => {
            opts.allow(
                INPUT,
                &[
                    "channels", "item", "tune-in", "loss", "burst", "retries", "timeout",
                    "replicas", "requests", "seed",
                ],
            )?;
            cmd_simulate(&opts)
        }
        "render" => {
            opts.allow(INPUT, &[])?;
            cmd_render(&opts)
        }
        "gen" => {
            opts.allow(&[], &["items", "dist", "fanout", "seed"])?;
            cmd_gen(&opts)
        }
        "compare" => {
            opts.allow(INPUT, &["channels", "limit"])?;
            cmd_compare(&opts)
        }
        "serve" => {
            opts.allow(
                &[],
                &[
                    "scenario",
                    "tenants",
                    "items",
                    "rate",
                    "slices",
                    "threads",
                    "seed",
                    "delta",
                    "budget",
                    "checkpoint-dir",
                    "checkpoint-every",
                    "restore",
                ],
            )?;
            cmd_serve(&opts)
        }
        "help" | "--help" | "-h" => {
            outln!("{}", HELP);
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

const HELP: &str = "\
bcast — optimal index and data allocation in multiple broadcast channels

commands:
  optimal    provably optimal allocation      --channels K [--strategy auto|datatree|bestfirst|exhaustive] [--limit N]
  heuristic  scalable allocation              --channels K [--method sorting|shrink|partition|frontier] [--replicas R]
  simulate   client access trace              --channels K --item LABEL [--tune-in SLOT]
             lossy channel:                   [--loss P | --burst GB,BG,LG,LB] [--retries N]
                                              [--timeout SLOTS] [--replicas R] [--requests N] [--seed S]
  render     pretty-print the tree
  gen        emit a random tree               --items N [--dist zipf|uniform|normal] [--fanout F] [--seed S]
  compare    run every method on one tree     --channels K [--limit N]
  serve      multi-tenant scenario service    --scenario flash-crowd|diurnal-drift|brownout|tenant-churn|
                                                         overload-storm|poison-pill|all
                                              [--tenants N] [--items N] [--rate R] [--slices S]
                                              [--threads T] [--seed S] [--delta MAX_TOUCHED]
                                              [--budget REQUESTS_PER_SLICE]
                                              [--checkpoint-dir DIR] [--checkpoint-every N] [--restore]
             --delta routes rebuilds through the incremental republish lane
             (falls back to a full publish past the MAX_TOUCHED fraction)
             --budget caps admitted requests per slice (water-filling shed)
             --checkpoint-dir writes crash-safe manifests every N slices
             (single scenario only); --restore resumes the newest valid
             manifest instead of starting fresh, non-zero exit if none
  snapshot   zero-copy program images         save  --channels K --output FILE [--method M]
                                              load  --file FILE
                                              serve --file FILE [--requests N] [--seed S]
             save publishes a tree and writes the checksummed binary image;
             load verifies it; serve cold-starts the kernel straight from it

input: --input FILE (text format), --demo (paper example), or stdin.";

struct Flags(HashMap<String, String>);

impl Flags {
    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }
    fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for --{key}: '{v}'"))
            })
            .transpose()
    }
    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.parse(key)?
            .ok_or_else(|| format!("missing required flag --{key}"))
    }
    /// Rejects flags outside the command's vocabulary (typo protection).
    fn allow(&self, common: &[&str], specific: &[&str]) -> Result<(), String> {
        for key in self.0.keys() {
            if !common.contains(&key.as_str()) && !specific.contains(&key.as_str()) {
                return Err(format!("unknown flag --{key} for this command"));
            }
        }
        Ok(())
    }
    /// `--channels`, validated to be at least 1.
    fn channels(&self) -> Result<usize, String> {
        let k: usize = self.require("channels")?;
        if k == 0 {
            return Err("--channels must be at least 1".into());
        }
        Ok(k)
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument '{a}'"));
        };
        // Boolean flags take no value.
        if key == "demo" || key == "restore" {
            map.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(Flags(map))
}

fn load_tree(opts: &Flags) -> Result<IndexTree, String> {
    let text = if opts.get("demo").is_some() {
        textfmt::DEMO.to_string()
    } else if let Some(path) = opts.get("input") {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    } else {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        if buf.trim().is_empty() {
            return Err("no input: pass --input FILE, --demo, or pipe a tree".into());
        }
        buf
    };
    textfmt::parse_tree(&text).map_err(|e| e.to_string())
}

fn print_schedule(tree: &IndexTree, schedule: &Schedule, k: usize) -> Result<(), String> {
    let alloc = schedule
        .into_allocation(tree, k)
        .map_err(|e| format!("schedule infeasible: {e}"))?;
    out!("{}", alloc.render(tree));
    outln!(
        "cycle {} slots | average data wait {:.4} buckets",
        alloc.cycle_len(),
        schedule.average_data_wait(tree)
    );
    Ok(())
}

fn cmd_optimal(opts: &Flags) -> Result<(), String> {
    let tree = load_tree(opts)?;
    let k = opts.channels()?;
    let strategy = match opts.get("strategy").unwrap_or("auto") {
        "auto" => Strategy::Auto,
        "datatree" => Strategy::DataTree,
        "bestfirst" => Strategy::BestFirst,
        "exhaustive" => Strategy::Exhaustive,
        other => return Err(format!("unknown strategy '{other}'")),
    };
    let result = find_optimal(
        &tree,
        k,
        &OptimalOptions {
            strategy,
            node_limit: opts.parse("limit")?,
            ..OptimalOptions::default()
        },
    )
    .map_err(|e| format!("{e} (try `bcast heuristic`)"))?;
    outln!(
        "optimal via {:?} ({} states expanded)",
        result.strategy_used,
        result.nodes_expanded
    );
    let s = result.stats;
    if s.bound_inc_updates + s.bound_full_evals > 0 {
        let per_state =
            s.bound_work as f64 / (s.bound_inc_updates + s.bound_full_evals).max(1) as f64;
        let hit_rate = if s.table_probes == 0 {
            0.0
        } else {
            100.0 * s.table_hits as f64 / s.table_probes as f64
        };
        outln!(
            "bound: {} incremental + {} full evals ({:.2} entries/state) | \
             dominance: {} probes, {:.1}% hits | arena {} KiB",
            s.bound_inc_updates,
            s.bound_full_evals,
            per_state,
            s.table_probes,
            hit_rate,
            s.peak_arena_bytes / 1024
        );
    }
    print_schedule(&tree, &result.schedule, k)
}

fn cmd_heuristic(opts: &Flags) -> Result<(), String> {
    let tree = load_tree(opts)?;
    let k = opts.channels()?;
    let method = opts.get("method").unwrap_or("sorting");
    let schedule = match method {
        "sorting" => sorting::sorting_schedule(&tree, k),
        "shrink" => shrink::combine_solve(&tree, k, 12).schedule,
        "partition" => shrink::partition_solve(&tree, k, 12).schedule,
        "frontier" => baselines::greedy_frontier(&tree, k),
        other => return Err(format!("unknown method '{other}'")),
    };
    let max_replicas = opts.parse::<u32>("replicas")?;
    // Each candidate factor r places r root copies, so r is bounded by
    // the slots they spread over.
    if let Some(max_r) = max_replicas.filter(|&r| r as usize > schedule.len()) {
        return Err(format!(
            "--replicas {max_r} exceeds the schedule length {}",
            schedule.len()
        ));
    }
    outln!("heuristic: {method}");
    print_schedule(&tree, &schedule, k)?;
    if let Some(max_r) = max_replicas {
        let best = replication::optimal_replication(&schedule, &tree, max_r.max(1));
        outln!(
            "best root replication <= {max_r}: r = {} (expected access {:.2} slots)",
            best.replicas,
            best.expected_access_time
        );
    }
    Ok(())
}

fn cmd_simulate(opts: &Flags) -> Result<(), String> {
    let tree = load_tree(opts)?;
    let k = opts.channels()?;
    let item: String = opts.require("item")?;
    let target = tree
        .find_by_label(&item)
        .ok_or_else(|| format!("no node labeled '{item}'"))?;
    let result = find_optimal(&tree, k, &OptimalOptions::default())
        .map_err(|e| format!("{e} (tree too large for exact search)"))?;
    let alloc = result
        .schedule
        .into_allocation(&tree, k)
        .map_err(|e| e.to_string())?;
    let program = BroadcastProgram::build(&alloc, &tree).map_err(|e| e.to_string())?;
    let tune_in = Slot(opts.parse::<u32>("tune-in")?.unwrap_or(1).max(1));
    let trace = simulator::access(&program, &tree, target, tune_in).map_err(|e| e.to_string())?;
    out!("{}", alloc.render(&tree));
    outln!(
        "fetch '{item}' tuning in at slot {}: probe {} + data {} = {} slots, \
         {} buckets read, {} channel switch(es)",
        tune_in.0,
        trace.probe_wait,
        trace.data_wait,
        trace.access_time(),
        trace.tuning_time,
        trace.channel_switches
    );
    let agg = simulator::aggregate_metrics(&program, &tree).map_err(|e| e.to_string())?;
    outln!(
        "fleet expectation: access {:.2} slots, tuning {:.2} buckets",
        agg.avg_access_time,
        agg.avg_tuning_time
    );
    if opts.get("loss").is_some() || opts.get("burst").is_some() {
        simulate_lossy(opts, &tree, &program, target, tune_in)?;
    }
    Ok(())
}

/// The `--loss`/`--burst` extension of `simulate`: replays the same access
/// over a faulty channel (single recovered trace + a weighted batch).
fn simulate_lossy(
    opts: &Flags,
    tree: &IndexTree,
    program: &BroadcastProgram,
    target: broadcast_alloc::types::NodeId,
    tune_in: Slot,
) -> Result<(), String> {
    let seed: u64 = opts.parse("seed")?.unwrap_or(7);
    let plan = match opts.get("burst") {
        Some(spec) => {
            let parts: Vec<f64> = spec
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse()
                        .map_err(|_| format!("bad --burst component '{p}'"))
                })
                .collect::<Result<_, String>>()?;
            let [gb, bg, lg, lb] = parts[..] else {
                return Err("--burst needs four values: GB,BG,LG,LB".into());
            };
            FaultPlan::gilbert_elliott(
                GilbertElliott {
                    p_good_to_bad: gb,
                    p_bad_to_good: bg,
                    loss_good: lg,
                    loss_bad: lb,
                },
                seed,
            )
            .map_err(|e| e.to_string())?
        }
        None => FaultPlan::erasure(opts.parse("loss")?.unwrap_or(0.0), seed)
            .map_err(|e| e.to_string())?,
    };
    let defaults = RecoveryPolicy::default();
    let policy = RecoveryPolicy {
        max_retries: opts.parse("retries")?.unwrap_or(defaults.max_retries),
        timeout_slots: opts.parse("timeout")?.unwrap_or(defaults.timeout_slots),
        root_replicas: opts.parse::<u32>("replicas")?.unwrap_or(1).max(1),
        ..defaults
    };
    let cycle = program.cycle_len();
    if policy.root_replicas as usize > cycle {
        return Err(format!(
            "--replicas {} exceeds the cycle length {cycle}",
            policy.root_replicas
        ));
    }
    if !policy.fits(cycle) {
        return Err(format!(
            "--retries {} lets a delivered access take up to {} slots on this \
             {cycle}-slot cycle, more than the {} the serving kernel can record",
            policy.max_retries,
            policy.max_delivered_access(cycle),
            u32::MAX
        ));
    }
    let compiled = CompiledProgram::compile(program, tree).map_err(|e| e.to_string())?;
    outln!(
        "\nlossy channel (expected loss {:.2}%, retries <= {}, root replicas {}):",
        100.0 * plan.expected_loss(),
        policy.max_retries,
        policy.root_replicas
    );
    match compiled
        .access_lossy(target, tune_in, &plan, 0, &policy)
        .map_err(|e| e.to_string())?
    {
        RequestOutcome::Delivered(d) => outln!(
            "  this access: delivered after {} retr{} (+{} recovery slots, {} total)",
            d.retries,
            if d.retries == 1 { "y" } else { "ies" },
            d.extra_wait,
            d.total_access_time()
        ),
        RequestOutcome::Failed(f) => outln!("  this access: {f}"),
    }
    let requests: usize = opts.parse("requests")?.unwrap_or(10_000);
    let data = tree.data_nodes();
    let weights: Vec<f64> = data.iter().map(|&d| tree.weight(d).get()).collect();
    let targets: Vec<_> = RequestStream::from_weights(&weights, seed ^ 0x7A11)
        .take(requests)
        .map(|i| data[i])
        .collect();
    let m = compiled
        .serve_batch(
            &targets,
            &ServeOptions {
                seed,
                faults: plan,
                recovery: policy,
                ..ServeOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
    outln!(
        "  {} requests: {:.2}% delivered ({} failed), mean access {:.2} slots \
         (+{:.2} recovery), {:.3} retries/request",
        m.requests,
        100.0 * m.delivery_rate(),
        m.failed,
        m.mean_access_time,
        m.mean_extra_wait,
        m.retries as f64 / m.requests.max(1) as f64
    );
    Ok(())
}

fn cmd_render(opts: &Flags) -> Result<(), String> {
    let tree = load_tree(opts)?;
    out!("{}", tree.render());
    outln!("{}", TreeStats::of(&tree));
    Ok(())
}

fn cmd_compare(opts: &Flags) -> Result<(), String> {
    let tree = load_tree(opts)?;
    let k = opts.channels()?;
    let lower = broadcast_alloc::channel::cost::data_wait_lower_bound(&tree, k);
    outln!(
        "{} nodes, {k} channels, analytic floor {lower:.3} buckets\n",
        tree.len()
    );
    outln!("{:<22} {:>12} {:>10}", "method", "data wait", "vs floor");
    let show = |name: &str, wait: f64| {
        outln!(
            "{name:<22} {wait:>12.4} {:>9.1}%",
            100.0 * (wait - lower) / lower.max(1e-9)
        );
    };
    let limit = opts.parse::<u64>("limit")?.or(Some(2_000_000));
    match find_optimal(
        &tree,
        k,
        &OptimalOptions {
            node_limit: limit,
            ..OptimalOptions::default()
        },
    ) {
        Ok(r) => show(&format!("optimal ({:?})", r.strategy_used), r.data_wait),
        Err(e) => outln!("{:<22} {:>12}", "optimal", format!("({e})")),
    }
    show(
        "sorting",
        sorting::sorting_schedule(&tree, k).average_data_wait(&tree),
    );
    show(
        "shrink (combine)",
        shrink::combine_solve(&tree, k, 12).data_wait,
    );
    show(
        "shrink (partition)",
        shrink::partition_solve(&tree, k, 12).data_wait,
    );
    show(
        "frontier greedy",
        baselines::greedy_frontier(&tree, k).average_data_wait(&tree),
    );
    show(
        "preorder",
        baselines::preorder_schedule(&tree, k).average_data_wait(&tree),
    );
    show(
        "random",
        baselines::random_feasible(&tree, k, 1).average_data_wait(&tree),
    );
    Ok(())
}

fn cmd_serve(opts: &Flags) -> Result<(), String> {
    use broadcast_alloc::serve::ScenarioDriver;
    use broadcast_alloc::workloads::{
        brownout, canonical_scenarios, diurnal_drift, flash_crowd, overload_storm, poison_pill,
        tenant_churn,
    };
    let tenants: usize = opts.parse("tenants")?.unwrap_or(4);
    let items: usize = opts.parse("items")?.unwrap_or(64);
    let rate: u32 = opts.parse("rate")?.unwrap_or(500);
    let slices: u32 = opts.parse("slices")?.unwrap_or(24);
    let threads: usize = opts.parse("threads")?.unwrap_or(4);
    let seed: u64 = opts.parse("seed")?.unwrap_or(0x5EED);
    if tenants == 0 || items == 0 || slices == 0 {
        return Err("--tenants, --items and --slices must be positive".into());
    }
    let delta: Option<f64> = opts.parse("delta")?;
    if let Some(d) = delta {
        if !(0.0..=1.0).contains(&d) {
            return Err("--delta must be a fraction in [0, 1]".into());
        }
    }
    let budget: Option<u64> = opts.parse("budget")?;
    if budget == Some(0) {
        return Err("--budget must be positive".into());
    }
    let checkpoint_dir = opts.get("checkpoint-dir").map(str::to_string);
    let checkpoint_every: u64 = opts.parse("checkpoint-every")?.unwrap_or(1);
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be positive".into());
    }
    if checkpoint_dir.is_none()
        && (opts.get("checkpoint-every").is_some() || opts.get("restore").is_some())
    {
        return Err("--checkpoint-every and --restore need --checkpoint-dir".into());
    }
    let name = opts.get("scenario").unwrap_or("all");
    let mut specs = match name {
        "all" => canonical_scenarios(tenants, items, rate, slices),
        "flash-crowd" => vec![flash_crowd(tenants, items, rate, slices)],
        "diurnal-drift" => vec![diurnal_drift(tenants, items, rate, slices)],
        "brownout" => vec![brownout(tenants, items, rate, slices)],
        "tenant-churn" => vec![tenant_churn(tenants, items, rate, slices)],
        "overload-storm" => vec![overload_storm(tenants, items, rate, slices)],
        "poison-pill" => vec![poison_pill(tenants, items, rate, slices)],
        other => return Err(format!("unknown scenario '{other}' (try `all`)")),
    };
    if let Some(max_touched) = delta {
        specs = specs
            .into_iter()
            .map(|s| s.with_delta_lane(max_touched))
            .collect();
    }
    if let Some(b) = budget {
        specs = specs.into_iter().map(|s| s.with_slice_budget(b)).collect();
    }
    // Scripted panics (poison-pill) are caught and quarantined; keep the
    // default hook from spraying their backtraces over the report.
    broadcast_alloc::serve::silence_chaos_panic_reports();

    if let Some(dir) = checkpoint_dir {
        // Checkpointing drives one scenario through the resumable
        // driver; `all` would interleave manifests from different specs.
        if specs.len() != 1 {
            return Err("--checkpoint-dir needs a single --scenario, not `all`".into());
        }
        let spec = specs.remove(0);
        let mut driver = if opts.get("restore").is_some() {
            ScenarioDriver::restore(&dir, &spec, threads)
                .map_err(|e| format!("cannot restore from {dir}: {e}"))?
        } else {
            ScenarioDriver::new(spec.clone(), seed, threads)
        };
        let resumed_at = driver.service().slices_run();
        let mut since_checkpoint = 0u64;
        loop {
            let more = driver.step();
            since_checkpoint += 1;
            if since_checkpoint >= checkpoint_every || !more {
                driver
                    .checkpoint(&dir)
                    .map_err(|e| format!("checkpoint failed: {e}"))?;
                since_checkpoint = 0;
            }
            if !more {
                break;
            }
        }
        let (outcome, stats) = driver.into_outcome_with_stats();
        let held = print_outcome(&outcome);
        print_pool_stats(&stats);
        outln!(
            "  checkpoint: manifests in {dir} every {checkpoint_every} slice(s), resumed at slice {resumed_at}"
        );
        return if held {
            Ok(())
        } else {
            Err("one or more phase SLOs were violated".into())
        };
    }

    let mut all_held = true;
    for spec in &specs {
        let (outcome, stats) = run_scenario_with_stats(spec, seed, threads);
        all_held &= print_outcome(&outcome);
        print_pool_stats(&stats);
    }
    if all_held {
        Ok(())
    } else {
        Err("one or more phase SLOs were violated".into())
    }
}

/// Renders one scenario outcome as a per-phase table; returns whether
/// every phase SLO held.
fn print_outcome(outcome: &ScenarioOutcome) -> bool {
    outln!(
        "scenario {} (seed {:#x}) — {} requests, {} rebuilds, fingerprint {:016x}",
        outcome.name,
        outcome.seed,
        outcome.total_requests(),
        outcome.total_rebuilds(),
        outcome.fingerprint()
    );
    outln!(
        "  {:<12} {:>7} {:>10} {:>9} {:>9} {:>8} {:>6} {:>5} {:>9} {:>10} {:>9} {:>6}  slo",
        "phase",
        "tenants",
        "requests",
        "deliver%",
        "p99 slots",
        "rebuilds",
        "delta",
        "full",
        "touch_ppm",
        "rebuild_ms",
        "downtime",
        "alias"
    );
    let mut all_held = true;
    for p in &outcome.phases {
        let requests = p.requests();
        let p99 = p
            .tenants
            .iter()
            .map(|t| t.snapshot.p99_slots)
            .max()
            .unwrap_or(0);
        let rebuilds: u64 = p.tenants.iter().map(|t| t.snapshot.rebuilds).sum();
        let delta: u64 = p.tenants.iter().map(|t| t.snapshot.delta_rebuilds).sum();
        let full: u64 = p.tenants.iter().map(|t| t.snapshot.full_rebuilds).sum();
        // Worst per-tenant touched fraction: full rebuilds read 10⁶ ppm,
        // a quiet delta patch a few hundred.
        let touched_ppm = p
            .tenants
            .iter()
            .map(|t| t.snapshot.touched_ppm)
            .max()
            .unwrap_or(0);
        let wall_ns: u64 = p.tenants.iter().map(|t| t.snapshot.rebuild_wall_ns).sum();
        let downtime: u64 = p
            .tenants
            .iter()
            .map(|t| t.snapshot.rebuild_downtime_slots)
            .sum();
        let violated: usize = p.tenants.iter().map(|t| t.violations.len()).sum();
        // Alias-table rebuilds: one per (tenant, phase) when demand
        // shapes only change at phase boundaries — more means the cache
        // is missing inside a phase.
        let alias: u64 = p.tenants.iter().map(|t| t.snapshot.alias_rebuilds).sum();
        all_held &= violated == 0;
        outln!(
            "  {:<12} {:>7} {:>10} {:>9.3} {:>9} {:>8} {:>6} {:>5} {:>9} {:>10.3} {:>9} {:>6}  {}",
            p.name,
            p.tenants.len(),
            requests,
            100.0 * p.min_delivery_rate(),
            p99,
            rebuilds,
            delta,
            full,
            touched_ppm,
            wall_ns as f64 / 1e6,
            downtime,
            alias,
            if violated == 0 {
                "ok".to_string()
            } else {
                format!("{violated} VIOLATED")
            }
        );
    }
    for (phase, tenant, v) in outcome.violations() {
        outln!("  ! [{phase}] tenant {tenant}: {v}");
    }
    all_held
}

/// Renders the worker pool's wall-clock side channel (excluded from the
/// deterministic outcome and its fingerprint): per-lane busy time, the
/// busiest-vs-idlest lane spread, and how many slices ran pooled.
fn print_pool_stats(stats: &PoolStats) {
    let busy: Vec<String> = stats
        .busy_ns
        .iter()
        .map(|&ns| format!("{:.2}ms", ns as f64 / 1e6))
        .collect();
    outln!(
        "  pool: {} worker{}, {} pooled slices, lane busy [{}], imbalance {} ppm",
        stats.workers,
        if stats.workers == 1 { "" } else { "s" },
        stats.scheduled_slices,
        busy.join(" "),
        stats.imbalance_ppm
    );
}

fn cmd_snapshot_save(opts: &Flags) -> Result<(), String> {
    use broadcast_alloc::alloc::publish::{PublishHeuristic, PublishOptions, Publisher};
    let tree = load_tree(opts)?;
    let k = opts.channels()?;
    let output: String = opts.require("output")?;
    let heuristic = match opts.get("method").unwrap_or("sorting") {
        "sorting" => PublishHeuristic::Sorting,
        "frontier" => PublishHeuristic::Frontier,
        "shrink" => PublishHeuristic::Shrink { max_nodes: 12 },
        "preorder" => PublishHeuristic::Preorder,
        other => return Err(format!("unknown method '{other}'")),
    };
    let mut publisher = Publisher::new();
    let started = std::time::Instant::now();
    publisher
        .publish(&tree, k, heuristic, PublishOptions::default())
        .map_err(|e| e.to_string())?;
    let publish_time = started.elapsed();
    let image = publisher.snapshot_image(&tree);
    image.save(&output).map_err(|e| e.to_string())?;
    outln!(
        "snapshot {}: {} bytes, {} data items over {} channels, cycle {} slots \
         (publish took {:.3} ms)",
        output,
        image.byte_len(),
        tree.data_nodes().len(),
        k,
        publisher.current().cycle_len(),
        publish_time.as_secs_f64() * 1e3
    );
    Ok(())
}

fn cmd_snapshot_load(opts: &Flags) -> Result<(), String> {
    let path: String = opts.require("file")?;
    let started = std::time::Instant::now();
    let mapped = MappedSnapshot::open(&path).map_err(|e| format!("{path}: {e}"))?;
    let view = mapped.view().map_err(|e| format!("{path}: {e}"))?;
    let elapsed = started.elapsed();
    outln!(
        "snapshot {}: ok — {} bytes, {} nodes ({} data) over {} channels, \
         cycle {} slots, verified in {:.1} us (zero-copy)",
        path,
        mapped.byte_len(),
        view.num_nodes(),
        view.num_data(),
        view.channels(),
        view.cycle_len(),
        elapsed.as_secs_f64() * 1e6
    );
    Ok(())
}

fn cmd_snapshot_serve(opts: &Flags) -> Result<(), String> {
    let path: String = opts.require("file")?;
    let requests: usize = opts.parse("requests")?.unwrap_or(10_000);
    let seed: u64 = opts.parse("seed")?.unwrap_or(7);
    let started = std::time::Instant::now();
    let mapped = MappedSnapshot::open(&path).map_err(|e| format!("{path}: {e}"))?;
    let view = mapped.view().map_err(|e| format!("{path}: {e}"))?;
    let program = view.to_program();
    let cold_start = started.elapsed();
    let data: Vec<_> = view.data_nodes().collect();
    let weights = vec![1.0f64; data.len()];
    let targets: Vec<_> = RequestStream::from_weights(&weights, seed)
        .take(requests)
        .map(|i| data[i])
        .collect();
    let m = program
        .serve_batch(
            &targets,
            &ServeOptions {
                seed,
                ..ServeOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
    outln!(
        "cold-start from {} in {:.1} us (load + verify + install)",
        path,
        cold_start.as_secs_f64() * 1e6
    );
    outln!(
        "  {} requests: {:.2}% delivered, mean access {:.2} slots, \
         {:.3} switches/request",
        m.requests,
        100.0 * m.delivery_rate(),
        m.mean_access_time,
        m.mean_channel_switches
    );
    Ok(())
}

fn cmd_gen(opts: &Flags) -> Result<(), String> {
    let items: usize = opts.require("items")?;
    if items == 0 {
        return Err("--items must be positive".into());
    }
    let seed: u64 = opts.parse("seed")?.unwrap_or(42);
    let fanout: usize = opts.parse("fanout")?.unwrap_or(4);
    if fanout < 2 {
        return Err("--fanout must be at least 2".into());
    }
    let dist = match opts.get("dist").unwrap_or("zipf") {
        "zipf" => FrequencyDist::Zipf {
            theta: 1.0,
            scale: 1000.0,
        },
        "uniform" => FrequencyDist::Uniform { lo: 1.0, hi: 100.0 },
        "normal" => FrequencyDist::paper_fig14(20.0),
        other => return Err(format!("unknown dist '{other}'")),
    };
    let weights = dist.sample(items, seed);
    let tree = knary::build_weight_balanced(&weights, fanout).map_err(|e| e.to_string())?;
    out!("{}", textfmt::format_tree(&tree));
    Ok(())
}
