//! Parallel best-first search: work-stealing branch and bound.
//!
//! Runs the same pruned (or unpruned) topological-tree expansion as
//! [`crate::best_first`], but across `N` worker threads that cooperate
//! through three shared structures:
//!
//! * a **global injector** — a mutex-guarded priority queue seeded with the
//!   root state; idle workers steal small batches from it, and workers whose
//!   local queue grows past a threshold donate half of their best states
//!   back, so promising subtrees spread across the pool;
//! * a **shared incumbent** ([`bcast_types::SharedIncumbent`]) — the best
//!   complete-solution cost found by *any* worker, mirrored into fixed point
//!   so an atomic `fetch_min` publishes improvements lock-free. Every worker
//!   prunes against it at generation and again at expansion;
//! * a **sharded seen-state table** — the dominance layer of the sequential
//!   search (`best g per (placed-set, slots-used)`), split across
//!   `SEEN_SHARDS` mutexes keyed by the placed-set hash so concurrent
//!   inserts rarely collide. Each shard is a flat
//!   [`bcast_types::DominanceTable`] over placed sets interned in one
//!   shard-local word pool: a probe hashes nothing (tasks carry their hash
//!   from birth) and an improving update copies nothing — a set's words
//!   are copied exactly once, on first insert.
//!
//! A task is the sequential search's state in owned form: its
//! [`Scalars`] plus one stride of words, grown by the same
//! [`Bounder::step`] and generators.
//!
//! # Why the sequential optimality argument is not enough
//!
//! Sequential A* stops at the first *complete* state popped: everything
//! still queued has an admissible `f` at least as large, so nothing can beat
//! it. With concurrent pops that argument breaks — another worker may be
//! holding a cheaper state it has not finished expanding. The engine
//! therefore runs as exhaustive branch and bound with the standard
//! **distributed-A\* termination check**: complete solutions only *update
//! the incumbent* (they are never "popped as the answer"), and the search
//! ends when the global lower bound over all outstanding work — every local
//! queue, every in-flight state, and the injector — reaches the incumbent.
//! At that point no remaining state can lead to a cheaper solution, so the
//! incumbent is optimal. The drain case (all queues empty) is the special
//! case where the global lower bound is `+∞`.
//!
//! Detecting "global lower bound ≥ incumbent" without stopping the world:
//!
//! * each worker publishes a per-worker atomic lower bound on the `f` of
//!   everything it owns (its local queue plus the state in hand). The bound
//!   is lowered with `fetch_min` when work arrives and raised only at safe
//!   points (immediately after a pop, or after an expansion finishes) where
//!   the exact queue minimum is known. Because both [`BoundKind`] estimates
//!   are *consistent* — a child's `f` never drops below its parent's (the
//!   parent's bound is the minimum over completion assignments and the
//!   child's charge is one such assignment) — expanding a state never
//!   invalidates the published value;
//! * the injector keeps its own published minimum, updated under its lock;
//! * states migrate between queues only through the injector's critical
//!   section, which is bracketed by a seqlock epoch (odd while a transfer
//!   is in flight). The termination scan reads the epoch, then every
//!   published minimum, then the epoch again; it only trusts a scan during
//!   which no transfer started or completed. A migration between two scanned
//!   locations therefore cannot hide from a trusted scan.
//!
//! # Exactness under fixed-point sharing
//!
//! Priorities travel as `to_fixed_floor(f)` and the incumbent is stored
//! `to_fixed_ceil`ed, so `floor(f) ≥ ceil(c)` implies `f ≥ c` for the
//! underlying reals: pruning and the termination check can only fire when
//! the exact comparison also holds (see [`bcast_types::incumbent`]). The
//! winning schedule's cost is tracked as an exact `f64` under a mutex, with
//! ties inside one fixed-point quantum re-compared exactly, so the reported
//! optimum carries no quantization error and equals the sequential search's
//! result (asserted by the `parallel_equivalence` property suite).
//!
//! [`BoundKind`]: crate::bound::BoundKind

use crate::avail::{Layout, Scalars, Subsets};
use crate::best_first::{BestFirstOptions, BestFirstResult, NodeLimitExceeded, SearchStats};
use crate::bound::{BoundCounters, Bounder};
use crate::prune;
use crate::schedule::Schedule;
use crate::topo_tree;
use bcast_index_tree::IndexTree;
use bcast_types::dominance::Probe;
use bcast_types::incumbent::{to_fixed_ceil, to_fixed_floor, FIXED_INFINITY};
use bcast_types::{bits, DominanceTable, NodeId, SharedIncumbent};
use std::cmp::{Ordering as CmpOrdering, Reverse};
use std::collections::BinaryHeap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shards of the seen-state dominance table.
const SEEN_SHARDS: usize = 64;
/// States taken from the injector per steal.
const STEAL_BATCH: usize = 4;
/// A worker donates half its queue once it holds more than twice this many
/// states and the injector is running low.
const DONATE_KEEP: usize = 16;

/// One reverse link of a search path. Paths share ancestors structurally,
/// so cloning a task is O(1) in path length.
struct PathNode {
    members: Vec<NodeId>,
    parent: Option<Arc<PathNode>>,
}

/// A frontier state owned by exactly one queue (or worker hand) at a time.
struct Task {
    /// `to_fixed_floor(g + h)` — the priority and the pruning key.
    f_fixed: u64,
    /// Global generation number; deterministic-ish tie-break within a heap.
    seq: u64,
    /// Cached `bits::mix_hash` of the placed words — selects the seen
    /// shard and keys its dominance table, so a task is hashed exactly
    /// once, at birth.
    hash: u64,
    s: Scalars,
    /// One stride of words under the engine's [`Layout`].
    words: Vec<u64>,
    path: Option<Arc<PathNode>>,
}

impl PartialEq for Task {
    fn eq(&self, other: &Self) -> bool {
        self.f_fixed == other.f_fixed && self.seq == other.seq
    }
}
impl Eq for Task {}
impl PartialOrd for Task {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Task {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.f_fixed
            .cmp(&other.f_fixed)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Exact record of the best complete solution seen so far.
struct Best {
    total: f64,
    slots: Vec<Vec<NodeId>>,
}

/// One shard of the seen-state dominance layer: a flat table over ids
/// interned into the shard-local `placed` word pool, one run of
/// `node_words` words per id. A placed set is copied once, on first
/// insert; probes and improving updates copy nothing.
#[derive(Default)]
struct Shard {
    table: DominanceTable,
    placed: Vec<u64>,
}

/// The placed set interned as `id` in a shard's word pool.
fn interned(pool: &[u64], id: u32, node_words: usize) -> &[u64] {
    &pool[id as usize * node_words..(id as usize + 1) * node_words]
}

impl Shard {
    /// Occupied bytes of this shard (table array + interned words).
    fn bytes(&self) -> usize {
        self.table.heap_bytes() + std::mem::size_of_val(&self.placed[..])
    }
}

struct Engine<'t> {
    tree: &'t IndexTree,
    k: usize,
    opts: BestFirstOptions,
    bounder: Bounder,
    layout: Layout,
    incumbent: SharedIncumbent,
    best: Mutex<Option<Best>>,
    seen: Vec<Mutex<Shard>>,
    injector: Mutex<BinaryHeap<Reverse<Task>>>,
    /// Lower bound on the `f` of every task in the injector
    /// (`u64::MAX` when empty); mutated only under the injector lock.
    injector_min: AtomicU64,
    /// Seqlock epoch around injector transfers: odd while one is in flight.
    epoch: AtomicU64,
    /// Per-worker lower bound on the `f` of everything that worker owns.
    worker_min: Vec<AtomicU64>,
    /// Tasks pushed but not yet fully expanded; 0 ⇒ the search has drained.
    outstanding: AtomicU64,
    done: AtomicBool,
    limit_hit: AtomicBool,
    expanded: AtomicU64,
    generated: AtomicU64,
    seq: AtomicU64,
    /// Workers flush their local [`BoundCounters`] here on exit.
    bound_full_evals: AtomicU64,
    bound_inc_updates: AtomicU64,
    bound_work: AtomicU64,
}

impl<'t> Engine<'t> {
    fn new(tree: &'t IndexTree, k: usize, opts: &BestFirstOptions, threads: usize) -> Self {
        let bounder = Bounder::new(tree, k, opts.bound);
        let layout = bounder.layout(tree);
        Engine {
            tree,
            k,
            opts: *opts,
            bounder,
            layout,
            incumbent: SharedIncumbent::new(),
            best: Mutex::new(None),
            seen: (0..SEEN_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            injector: Mutex::new(BinaryHeap::new()),
            injector_min: AtomicU64::new(FIXED_INFINITY),
            epoch: AtomicU64::new(0),
            worker_min: (0..threads)
                .map(|_| AtomicU64::new(FIXED_INFINITY))
                .collect(),
            outstanding: AtomicU64::new(0),
            done: AtomicBool::new(false),
            limit_hit: AtomicBool::new(false),
            expanded: AtomicU64::new(0),
            generated: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            bound_full_evals: AtomicU64::new(0),
            bound_inc_updates: AtomicU64::new(0),
            bound_work: AtomicU64::new(0),
        }
    }

    /// Flushes a worker's local bound tally into the shared totals.
    fn flush_counters(&self, c: &BoundCounters) {
        self.bound_full_evals
            .fetch_add(c.full_evals, Ordering::Relaxed);
        self.bound_inc_updates
            .fetch_add(c.inc_updates, Ordering::Relaxed);
        self.bound_work.fetch_add(c.work, Ordering::Relaxed);
    }

    /// True when a task at this fixed-point priority cannot beat the
    /// incumbent (exact by the floor/ceil discipline).
    fn fixed_pruned(&self, f_fixed: u64) -> bool {
        let incumbent = self.incumbent.load_fixed();
        incumbent != FIXED_INFINITY && f_fixed >= incumbent
    }

    /// Shard index from a task's cached placed-set hash. The shard tables
    /// re-mix before indexing, so the low bits doing double duty here do
    /// not skew the probe sequences.
    fn shard_of(&self, hash: u64) -> usize {
        (hash as usize) % self.seen.len()
    }

    /// Registers a complete solution. The atomic `offer` publishes the
    /// fixed-point cost for pruning; the exact `f64` winner is resolved
    /// under the mutex, including ties inside one fixed-point quantum where
    /// `offer` alone cannot distinguish the cheaper schedule.
    fn record_solution(&self, total: f64, slots: impl FnOnce() -> Vec<Vec<NodeId>>) {
        let improved = self.incumbent.offer(total);
        if improved || to_fixed_ceil(total) <= self.incumbent.load_fixed() {
            let mut best = self.best.lock().expect("best mutex");
            match best.as_ref() {
                Some(b) if b.total <= total => {}
                _ => {
                    *best = Some(Best {
                        total,
                        slots: slots(),
                    })
                }
            }
        }
    }

    /// The distributed-A* termination check: ends the search once the
    /// minimum published `f` across the injector and every worker is at or
    /// above the incumbent. Only trusts a scan not overlapping a transfer.
    fn maybe_finish(&self) {
        let incumbent = self.incumbent.load_fixed();
        if incumbent == FIXED_INFINITY {
            return;
        }
        let e1 = self.epoch.load(Ordering::Acquire);
        if e1 % 2 == 1 {
            return;
        }
        let mut lb = self.injector_min.load(Ordering::Acquire);
        for w in &self.worker_min {
            lb = lb.min(w.load(Ordering::Acquire));
        }
        if lb >= incumbent && self.epoch.load(Ordering::Acquire) == e1 {
            self.done.store(true, Ordering::Release);
        }
    }

    /// Takes up to [`STEAL_BATCH`] tasks from the injector; the first is
    /// returned, the rest land in `local`. The stolen work is covered by
    /// `worker_min` *before* the injector's published minimum rises, so the
    /// termination scan never sees it uncovered.
    fn steal(&self, me: usize, local: &mut BinaryHeap<Reverse<Task>>) -> Option<Task> {
        let mut inj = self.injector.lock().expect("injector mutex");
        inj.peek()?;
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let Reverse(first) = inj.pop().expect("peeked above");
        self.worker_min[me].fetch_min(first.f_fixed, Ordering::AcqRel);
        for _ in 1..STEAL_BATCH {
            match inj.pop() {
                Some(t) => local.push(t),
                None => break,
            }
        }
        let top = inj
            .peek()
            .map(|Reverse(t)| t.f_fixed)
            .unwrap_or(FIXED_INFINITY);
        self.injector_min.store(top, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        Some(first)
    }

    /// Moves half of `local` (every other best task) into the injector so
    /// idle workers find work. Called only at safe points, where
    /// `worker_min` still covers the moved tasks until the injector's
    /// published minimum takes over inside the epoch bracket.
    fn donate(&self, local: &mut BinaryHeap<Reverse<Task>>) {
        let mut inj = self.injector.lock().expect("injector mutex");
        if inj.len() >= DONATE_KEEP {
            return;
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
        let moves = local.len() / 2;
        let mut keep = Vec::with_capacity(moves);
        for i in 0..moves * 2 {
            let Some(t) = local.pop() else { break };
            if i % 2 == 0 {
                inj.push(t);
            } else {
                keep.push(t);
            }
        }
        local.extend(keep);
        let top = inj
            .peek()
            .map(|Reverse(t)| t.f_fixed)
            .unwrap_or(FIXED_INFINITY);
        self.injector_min.store(top, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Expands one task: prune, dominance-check, generate children. Complete
    /// children and Property-1 completions update the incumbent directly
    /// instead of re-entering a queue (branch-and-bound style; see the
    /// module docs for why first-pop optimality does not apply here).
    fn process(
        &self,
        task: &Task,
        me: usize,
        local: &mut BinaryHeap<Reverse<Task>>,
        counters: &mut BoundCounters,
        (children, scratch): &mut (Subsets, Vec<u64>),
    ) {
        if self.fixed_pruned(task.f_fixed) {
            return;
        }
        let (layout, node_words) = (self.layout, self.layout.node_words());
        let placed = layout.placed(&task.words);
        {
            let mut shard = self.seen[self.shard_of(task.hash)]
                .lock()
                .expect("seen shard");
            let Shard {
                table,
                placed: pool,
            } = &mut *shard;
            let stale = match table.probe(task.hash, task.s.slots_used, |id| {
                interned(pool, id, node_words) == placed
            }) {
                Probe::Occupied { value, .. } => value < task.s.weighted_wait,
                Probe::Vacant { .. } => false, // only the root is unrecorded
            };
            if stale {
                return;
            }
        }
        let expanded = self.expanded.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.opts.node_limit {
            if expanded > limit {
                self.limit_hit.store(true, Ordering::Release);
                self.done.store(true, Ordering::Release);
                return;
            }
        }

        if self.opts.property1 && task.s.all_index_placed(self.tree) {
            let total = self.bounder.property1_total(placed, &task.s, None);
            self.generated.fetch_add(1, Ordering::Relaxed);
            self.record_solution(total, || {
                let mut slots = collect_slots(&task.path);
                self.bounder
                    .property1_total(placed, &task.s, Some(&mut slots));
                slots
            });
            return;
        }

        let available = layout.available(&task.words);
        if self.opts.pruned {
            // The last slot's members are the path's newest link.
            let last = task.path.as_ref().map_or(&[][..], |p| &p.members);
            prune::pruned_children(self.tree, available, last, self.k, children);
        } else {
            topo_tree::compound_children(available, self.k, children);
        }
        for members in children.iter() {
            let mut s = task.s;
            scratch.copy_from_slice(&task.words);
            self.bounder
                .step(self.tree, layout, scratch, &mut s, members, counters);
            if s.is_complete(self.tree) {
                let total = s.weighted_wait;
                self.generated.fetch_add(1, Ordering::Relaxed);
                self.record_solution(total, || {
                    let mut slots = collect_slots(&task.path);
                    slots.push(members.to_vec());
                    slots
                });
                continue;
            }
            let g = s.weighted_wait;
            let placed = layout.placed(scratch);
            let hash = bits::mix_hash(placed);
            {
                let mut shard = self.seen[self.shard_of(hash)].lock().expect("seen shard");
                let Shard {
                    table,
                    placed: pool,
                } = &mut *shard;
                match table.probe(hash, s.slots_used, |id| {
                    interned(pool, id, node_words) == placed
                }) {
                    Probe::Occupied { value, .. } if value <= g => continue,
                    Probe::Occupied { slot, id, .. } => table.update(slot, id, g),
                    Probe::Vacant { slot } => {
                        let id = (pool.len() / node_words) as u32;
                        pool.extend_from_slice(placed);
                        table.fill(slot, hash, s.slots_used, id, g);
                    }
                }
            }
            let f = g + self.bounder.estimate_fast(&s);
            let f_fixed = to_fixed_floor(f);
            if self.fixed_pruned(f_fixed) {
                continue;
            }
            self.generated.fetch_add(1, Ordering::Relaxed);
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let path = Some(Arc::new(PathNode {
                members: members.to_vec(),
                parent: task.path.clone(),
            }));
            self.outstanding.fetch_add(1, Ordering::AcqRel);
            self.worker_min[me].fetch_min(f_fixed, Ordering::AcqRel);
            local.push(Reverse(Task {
                f_fixed,
                seq,
                hash,
                s,
                words: scratch.clone(),
                path,
            }));
        }
    }
}

fn collect_slots(path: &Option<Arc<PathNode>>) -> Vec<Vec<NodeId>> {
    let mut rev: Vec<Vec<NodeId>> = Vec::new();
    let mut cur = path.as_ref();
    while let Some(node) = cur {
        rev.push(node.members.clone());
        cur = node.parent.as_ref();
    }
    rev.reverse();
    rev
}

fn worker(eng: &Engine<'_>, me: usize) {
    let mut counters = BoundCounters::default();
    worker_loop(eng, me, &mut counters);
    eng.flush_counters(&counters);
}

fn worker_loop(eng: &Engine<'_>, me: usize, counters: &mut BoundCounters) {
    let mut local: BinaryHeap<Reverse<Task>> = BinaryHeap::new();
    // The buffers this worker generates and builds children in.
    let mut buffers = (Subsets::default(), vec![0; eng.layout.stride()]);
    loop {
        if eng.done.load(Ordering::Acquire) {
            return;
        }
        let task = match local.pop() {
            Some(Reverse(t)) => Some(t),
            None => eng.steal(me, &mut local),
        };
        let Some(task) = task else {
            // Idle: nothing local, nothing to steal. `worker_min` is
            // already at infinity (raised at the last safe point).
            if eng.outstanding.load(Ordering::Acquire) == 0 {
                return;
            }
            std::thread::yield_now();
            continue;
        };
        // Safe point: hand = old queue minimum, so publishing it (or the
        // new top, whichever is lower) can only raise the bound.
        let top = local
            .peek()
            .map(|Reverse(t)| t.f_fixed)
            .unwrap_or(FIXED_INFINITY);
        eng.worker_min[me].store(task.f_fixed.min(top), Ordering::Release);

        eng.process(&task, me, &mut local, counters, &mut buffers);

        // Safe point: the hand is empty again; the exact queue minimum is
        // the published bound.
        let top = local
            .peek()
            .map(|Reverse(t)| t.f_fixed)
            .unwrap_or(FIXED_INFINITY);
        eng.worker_min[me].store(top, Ordering::Release);
        if eng.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            eng.done.store(true, Ordering::Release);
        }
        eng.maybe_finish();
        if local.len() > 2 * DONATE_KEEP {
            eng.donate(&mut local);
        }
    }
}

/// Finds an optimal k-channel schedule for `tree` with `threads` workers.
///
/// Returns the same optimal cost as [`crate::best_first::search`] (asserted
/// by the equivalence property suite); the schedule achieving it may differ
/// when several schedules tie. With a node limit, the parallel search
/// reports [`NodeLimitExceeded`] whenever the combined expansion count
/// crosses the limit, even if a solution was already found — matching the
/// sequential search's "budget exhausted before proof of optimality"
/// semantics.
pub fn search(
    tree: &IndexTree,
    k: usize,
    opts: &BestFirstOptions,
    threads: NonZeroUsize,
) -> Result<BestFirstResult, NodeLimitExceeded> {
    assert!(k >= 1, "need at least one channel");
    let threads = threads.get();
    let eng = Engine::new(tree, k, opts, threads);

    let mut root_counters = BoundCounters::default();
    let mut words = vec![0; eng.layout.stride()];
    let root = eng.bounder.root(tree, &mut words, &mut root_counters);
    eng.flush_counters(&root_counters);
    let root_f = to_fixed_floor(eng.bounder.estimate_fast(&root));
    let root_hash = bits::mix_hash(eng.layout.placed(&words));
    eng.outstanding.store(1, Ordering::Release);
    eng.injector_min.store(root_f, Ordering::Release);
    eng.injector
        .lock()
        .expect("injector mutex")
        .push(Reverse(Task {
            f_fixed: root_f,
            seq: eng.seq.fetch_add(1, Ordering::Relaxed),
            hash: root_hash,
            s: root,
            words,
            path: None,
        }));

    std::thread::scope(|scope| {
        for me in 0..threads {
            let eng = &eng;
            scope.spawn(move || worker(eng, me));
        }
    });

    if eng.limit_hit.load(Ordering::Acquire) {
        return Err(NodeLimitExceeded {
            limit: opts.node_limit.expect("limit_hit implies a limit"),
        });
    }
    let best = eng
        .best
        .lock()
        .expect("best mutex")
        .take()
        .expect("a valid index tree always admits a feasible schedule");
    let tw = tree.total_weight().get();
    let mut stats = SearchStats {
        bound_full_evals: eng.bound_full_evals.load(Ordering::Acquire),
        bound_inc_updates: eng.bound_inc_updates.load(Ordering::Acquire),
        bound_work: eng.bound_work.load(Ordering::Acquire),
        ..SearchStats::default()
    };
    for shard in &eng.seen {
        let shard = shard.lock().expect("seen shard");
        stats.table_probes += shard.table.probes();
        stats.table_hits += shard.table.hits();
        stats.peak_arena_bytes += shard.bytes() as u64;
    }
    Ok(BestFirstResult {
        schedule: Schedule::from_slots(best.slots),
        data_wait: if tw == 0.0 { 0.0 } else { best.total / tw },
        nodes_expanded: eng.expanded.load(Ordering::Acquire),
        nodes_generated: eng.generated.load(Ordering::Acquire),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::best_first;
    use crate::bound::BoundKind;
    use bcast_index_tree::builders;
    use bcast_workloads::{random_tree, FrequencyDist, RandomTreeConfig};

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).expect("nonzero")
    }

    #[test]
    fn matches_sequential_on_paper_example() {
        let t = builders::paper_example();
        for k in 1..=4 {
            let seq = best_first::search(&t, k, &BestFirstOptions::default()).unwrap();
            for threads in [1usize, 2, 4] {
                let par = search(&t, k, &BestFirstOptions::default(), nz(threads)).unwrap();
                assert_eq!(par.data_wait, seq.data_wait, "k={k} threads={threads}");
                par.schedule.into_allocation(&t, k).unwrap();
            }
        }
    }

    #[test]
    fn all_option_combinations_agree() {
        let t = builders::paper_example();
        for pruned in [false, true] {
            for bound in [BoundKind::Paper, BoundKind::Packed] {
                for property1 in [false, true] {
                    let opts = BestFirstOptions {
                        pruned,
                        bound,
                        property1,
                        ..BestFirstOptions::default()
                    };
                    let seq = best_first::search(&t, 2, &opts).unwrap();
                    let par = search(&t, 2, &opts, nz(3)).unwrap();
                    assert_eq!(
                        par.data_wait, seq.data_wait,
                        "pruned={pruned} bound={bound:?} property1={property1}"
                    );
                }
            }
        }
    }

    #[test]
    fn threads_field_dispatches_from_best_first() {
        let t = builders::paper_example();
        let opts = BestFirstOptions {
            threads: Some(nz(2)),
            ..BestFirstOptions::default()
        };
        let r = best_first::search(&t, 2, &opts).unwrap();
        assert!((r.data_wait - 264.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn random_trees_agree_across_thread_counts() {
        for seed in 0..20u64 {
            let cfg = RandomTreeConfig {
                data_nodes: 3 + (seed as usize % 5),
                max_fanout: 3,
                weights: FrequencyDist::Uniform { lo: 1.0, hi: 100.0 },
            };
            let t = random_tree(&cfg, seed);
            for k in 1..=3usize {
                let seq = best_first::search(&t, k, &BestFirstOptions::default()).unwrap();
                let par = search(&t, k, &BestFirstOptions::default(), nz(4)).unwrap();
                assert_eq!(par.data_wait, seq.data_wait, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn node_limit_reports_exceeded() {
        let t = builders::paper_example();
        let opts = BestFirstOptions {
            node_limit: Some(1),
            property1: false,
            ..BestFirstOptions::default()
        };
        let err = search(&t, 1, &opts, nz(2)).unwrap_err();
        assert_eq!(err.limit, 1);
    }

    #[test]
    fn single_data_node_tree_parallel() {
        use bcast_index_tree::TreeBuilder;
        use bcast_types::Weight;
        let mut b = TreeBuilder::new();
        let root = b.root("r");
        b.add_data(root, Weight::from(5u32), "d").unwrap();
        let t = b.build().unwrap();
        let r = search(&t, 3, &BestFirstOptions::default(), nz(4)).unwrap();
        assert_eq!(r.data_wait, 2.0);
    }

    #[test]
    fn zero_weight_tree_parallel() {
        use bcast_index_tree::TreeBuilder;
        use bcast_types::Weight;
        let mut b = TreeBuilder::new();
        let root = b.root("r");
        b.add_data(root, Weight::ZERO, "d1").unwrap();
        b.add_data(root, Weight::ZERO, "d2").unwrap();
        let t = b.build().unwrap();
        let r = search(&t, 2, &BestFirstOptions::default(), nz(2)).unwrap();
        assert_eq!(r.data_wait, 0.0);
        r.schedule.into_allocation(&t, 2).unwrap();
    }
}
