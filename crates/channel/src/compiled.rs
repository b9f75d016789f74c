//! Compiled route tables and the batched serving engine.
//!
//! [`simulator::access`](crate::simulator::access) re-walks the pointer
//! path through the bucket grid for every request — an O(path) walk plus an
//! O(tree) ancestor-marking allocation. Every quantity it reports, however,
//! is a pure function of `(target, tune-in residue)`:
//!
//! * probe wait depends only on the tune-in residue within the cycle,
//! * data wait, tuning time and channel switches depend only on the target,
//!   because the pointer route from the root to a data bucket is fixed by
//!   the program.
//!
//! [`CompiledProgram::compile`] therefore walks the pointer graph **once**
//! (each bucket is visited exactly once — O(buckets)), validating every
//! pointer on the way, and stores one flat route record per node. A single
//! access becomes one record read and one subtraction;
//! [`CompiledProgram::serve_batch`] feeds millions of requests through the
//! records with per-thread sharding and a streaming [`LatencyHistogram`],
//! never allocating per request. The pointer-chasing simulator remains the
//! oracle the tables are property-tested against.
//!
//! # Kernel layout
//!
//! Each node owns one 8-byte record `[slot, route]`, stored once and read
//! by every path: compile, the fused publish, the delta lane's patches,
//! snapshot capture and install, and all three kernel bodies. `slot` is
//! `T(Di)`, 1-based, so `slot == 0` doubles as the "unrouted" sentinel —
//! there is no separate `routed` bitmap to load per request. `route` packs the pointer-path length into its low 16 bits and
//! the channel switches into its high 16, exactly the snapshot format's
//! route word, so a snapshot's two columns zip into the records. Both
//! fields fit because a path length is its data node's level and a switch
//! count is always smaller: [`MAX_ROUTE_DEPTH`] bounds the tree, checked
//! once by each record producer. A request's entire route is one 8-byte
//! load, so on a Zipf workload whose tables exceed L1 a request costs one
//! cache-line touch.
//!
//! [`serve_batch`](CompiledProgram::serve_batch) processes requests in
//! fixed-size chunks: per chunk it draws all tune-in residues, loads the
//! records, sums the route word's two halves in exact per-chunk `u32`
//! lanes, validates the chunk with a folded sentinel flag (re-scanned in
//! order only on failure, so the reported error is identical to the
//! reference loop's), and records access times into the histogram in one
//! [`LatencyHistogram::record_batch`] call. Once the route table holds
//! [`PREFETCH_MIN_LEN`] records or more, each chunk first prefetches the
//! records of its own targets and, before the flush, the histogram bucket
//! of each access time, so a chunk's cache misses overlap instead of
//! queuing; a smaller table stays cached and skips both passes.
//!
//! Lossy requests are served the same way, one chunk at a time: prefetch
//! the records, fold the sentinel and refuse the chunk before anything is
//! recorded (the rule both paths share), draw each tune-in with
//! `FastMod` and run the recovery protocol from it into a stack buffer
//! of delivered totals, then prefetch their buckets and flush them with
//! one [`LatencyHistogram::record_batch_clamped`] at the lossy bound. The
//! fault model's draws are integer compares and a one-root retry is one
//! multiply, so no request pays a hardware division.
//!
//! The original per-request loops, clean and lossy, survive as
//! [`serve_batch_scalar`](CompiledProgram::serve_batch_scalar) — the
//! oracle the chunked kernels are pinned bit-identical to at any thread
//! count.

use crate::faults::{self, FaultPlan, RecoveryPolicy, RequestOutcome};
use crate::hist::LatencyHistogram;
use crate::program::{BroadcastProgram, Bucket};
use crate::simulator::{AccessTrace, SimError};
use bcast_index_tree::IndexTree;
use bcast_types::prefetch::PREFETCH_MIN_LEN;
use bcast_types::{BucketAddr, ChannelId, NodeId, Slot};

/// SplitMix64 finalizer: spreads a request index into an independent
/// 64-bit draw, so per-request tune-in slots depend only on the *global*
/// request index — sharded serving is thread-count invariant. The fault
/// model draws from it too, under keys of its own, so fault draws and
/// tune-in draws are independent streams.
#[inline]
pub(crate) fn mix64(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Division-free remainder by a fixed cycle length (Lemire's fastmod).
///
/// `c = ⌈2^128 / d⌉` is the 128-bit fixed-point inverse of `d`; the
/// remainder of `x mod d` is the high 64 bits of `(c·x mod 2^128) · d`.
/// With a 128-bit fraction this is **exact** for every `x < 2^64` and
/// `d ≤ 2^32` (the fraction width 128 ≥ 64 + log2(d) bound from the
/// fastmod paper), so it can replace the hardware `%` in the serving
/// kernel without perturbing a single tune-in draw. Property tests pin it
/// against `%` directly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastMod {
    d: u64,
    c: u128,
}

impl FastMod {
    /// Precomputes the inverse of `d`. `d` must be nonzero and fit in 32
    /// bits (cycle lengths are `u32`).
    #[inline]
    pub(crate) fn new(d: u64) -> Self {
        debug_assert!(d != 0, "modulus must be nonzero");
        debug_assert!(d <= u64::from(u32::MAX) + 1, "modulus must fit 32 bits");
        // For d = 1 the fraction wraps to 0, which still yields the
        // correct remainder (always 0) — hence the wrapping add.
        FastMod {
            d,
            c: (u128::MAX / u128::from(d)).wrapping_add(1),
        }
    }

    /// `x % d`, exactly, with two multiplies instead of a division.
    #[inline]
    pub(crate) fn rem(self, x: u64) -> u64 {
        let lowbits = self.c.wrapping_mul(u128::from(x));
        // High 64 bits of the 192-bit product `lowbits · d`.
        let bottom = ((lowbits & u128::from(u64::MAX)) * u128::from(self.d)) >> 64;
        let top = (lowbits >> 64) * u128::from(self.d);
        ((top + bottom) >> 64) as u64
    }
}

/// Chunk size of the batched serving kernel: big enough to amortize the
/// histogram flush and validation fold, small enough that the per-chunk
/// probe/total buffers live in registers and L1. Public so streaming
/// callers ([`ServeSession`]) can size their staging buffers to feed the
/// kernel whole chunks.
pub const SERVE_CHUNK: usize = 256;

/// Deepest index tree a program can route: a data node's pointer-path
/// length is its level, and it must fit the low 16 bits of its route word
/// (its channel-switch count, always smaller, fits the high 16).
pub const MAX_ROUTE_DEPTH: u32 = 0xFFFF;

/// Packs a data node's pointer-path length and channel switches into its
/// route word, `path_len | switches << 16` — the snapshot format's
/// encoding, so a program's records are its snapshot columns zipped.
#[inline]
fn route_word(path_len: u32, switches: u32) -> u32 {
    debug_assert!(
        path_len <= MAX_ROUTE_DEPTH && switches < path_len,
        "route fields fit 16 bits (path_len {path_len}, switches {switches})"
    );
    path_len | switches << 16
}

/// Buckets read on the pointer path root..=data (tuning time minus the
/// initial probe bucket): the route word's low half.
#[inline]
fn path_len(route: u32) -> u32 {
    route & 0xFFFF
}

/// Channel switches performed after the probe: the route word's high half.
#[inline]
fn switches(route: u32) -> u32 {
    route >> 16
}

/// Per-node route tables compiled from a [`BroadcastProgram`].
///
/// Construction validates the whole pointer graph (every child reachable,
/// every pointer landing on the bucket it promises), so lookups are
/// infallible for any data node of the source tree — the O(1) answers are
/// *exact*, not approximations, by the argument in the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledProgram {
    cycle_len: u32,
    /// One 8-byte record `[slot, route]` per node. `slot` is `T(Di)`, the
    /// absolute 1-based slot of the node's data bucket, or `0` for
    /// unrouted nodes (whose whole record is zero); `route` is the
    /// [`route_word`] of its path length and channel switches.
    routes: Vec<[u32; 2]>,
    num_data: usize,
}

impl CompiledProgram {
    /// Compiles `program` (built over `tree`) into flat route tables in one
    /// pass over the pointer graph.
    ///
    /// # Errors
    /// [`SimError::TreeTooDeep`] if `tree` is deeper than
    /// [`MAX_ROUTE_DEPTH`], before any work. Otherwise surfaces the same
    /// corruption classes the walking simulator would hit at request time,
    /// but eagerly: [`SimError::NoRoute`] if an index bucket lacks a
    /// pointer to one of its children, and [`SimError::BrokenPointer`] if
    /// a pointer leads outside the grid or to a bucket not holding the
    /// promised node.
    pub fn compile(program: &BroadcastProgram, tree: &IndexTree) -> Result<Self, SimError> {
        if tree.depth() > MAX_ROUTE_DEPTH {
            return Err(SimError::TreeTooDeep(tree.depth()));
        }
        let mut this = CompiledProgram {
            cycle_len: program.cycle_len() as u32,
            routes: vec![[0; 2]; tree.len()],
            num_data: 0,
        };
        // Depth-first over the pointer graph; the tree structure guarantees
        // each node (hence each occupied bucket) is pushed exactly once.
        let root_addr = BucketAddr {
            channel: ChannelId::FIRST,
            slot: Slot::FIRST,
        };
        let mut stack: Vec<(BucketAddr, NodeId, u32, u32)> = vec![(root_addr, tree.root(), 1, 0)];
        while let Some((at, expect, path_len, switches)) = stack.pop() {
            if at.channel.index() >= program.num_channels()
                || at.slot.offset() >= program.cycle_len()
            {
                // A corrupt pointer escaping the grid: report it instead of
                // indexing out of bounds.
                return Err(SimError::BrokenPointer {
                    at,
                    expected: expect,
                });
            }
            match program.bucket(at) {
                Bucket::Data { node } if *node == expect && tree.is_data(expect) => {
                    this.record_data(expect, at.slot.0, path_len, switches);
                }
                Bucket::Index { node, pointers } if *node == expect => {
                    for &child in tree.children(expect) {
                        let Some(ptr) = pointers.iter().find(|p| p.child == child) else {
                            return Err(SimError::NoRoute {
                                at: expect,
                                target: child,
                            });
                        };
                        stack.push((
                            BucketAddr {
                                channel: ptr.channel,
                                slot: Slot(at.slot.0 + ptr.offset),
                            },
                            child,
                            path_len + 1,
                            switches + u32::from(ptr.channel != at.channel),
                        ));
                    }
                }
                // Bucket holds something other than the routed-to node (or
                // a data payload where the tree expects an index node).
                Bucket::Data { .. } | Bucket::Index { .. } | Bucket::Empty => {
                    return Err(SimError::BrokenPointer {
                        at,
                        expected: expect,
                    });
                }
            }
        }
        Ok(this)
    }

    /// Resets the tables for `n` nodes and `cycle_len` slots, keeping the
    /// backing capacity — the fused pipeline's rebuild entry point
    /// (`clear` + `resize` never reallocates once the buffer has grown
    /// to steady-state size).
    pub(crate) fn reset(&mut self, n: usize, cycle_len: u32) {
        self.cycle_len = cycle_len;
        self.routes.clear();
        self.routes.resize(n, [0; 2]);
        self.num_data = 0;
    }

    /// Writes one data node's route record — the DFS leaf case of
    /// [`CompiledProgram::compile`] and its fused-pipeline equivalent.
    #[inline]
    pub(crate) fn record_data(&mut self, node: NodeId, slot: u32, path_len: u32, switches: u32) {
        let rec = &mut self.routes[node.index()];
        debug_assert!(rec[0] == 0, "data node recorded twice");
        debug_assert!(slot != 0, "slots are 1-based");
        *rec = [slot, route_word(path_len, switches)];
        self.num_data += 1;
    }

    /// Overwrites an *existing* data route record in place — the delta
    /// republish lane's counterpart of [`record_data`]: `path_len` (the
    /// node's level) and `num_data` are invariant under a repack, so only
    /// the slot and switch count move.
    ///
    /// [`record_data`]: CompiledProgram::record_data
    #[inline]
    pub(crate) fn patch_data(&mut self, node: NodeId, slot: u32, switches: u32) {
        let rec = &mut self.routes[node.index()];
        debug_assert!(rec[0] != 0, "patch_data targets an existing record");
        debug_assert!(slot != 0, "slots are 1-based");
        *rec = [slot, route_word(path_len(rec[1]), switches)];
    }

    /// Makes `self` a bit-identical copy of `other`, reusing this buffer's
    /// capacity (`Vec::clone_from` — memcpy-grade, no allocation once
    /// capacities match). The delta lane seeds the back buffer from the
    /// served front program before patching dirty records.
    pub(crate) fn copy_from(&mut self, other: &CompiledProgram) {
        self.cycle_len = other.cycle_len;
        self.routes.clone_from(&other.routes);
        self.num_data = other.num_data;
    }

    /// The route record of `node`, or the zero record (`slot == 0`:
    /// unrouted) for index nodes and foreign ids.
    #[inline]
    fn record(&self, node: NodeId) -> [u32; 2] {
        self.routes.get(node.index()).copied().unwrap_or([0; 2])
    }

    /// Cycle length in slots.
    #[inline]
    pub fn cycle_len(&self) -> usize {
        self.cycle_len as usize
    }

    /// Number of routed data nodes.
    #[inline]
    pub fn num_data_nodes(&self) -> usize {
        self.num_data
    }

    /// The absolute slot `T(Di)` of a data node's bucket, or `None` for
    /// index nodes / foreign ids.
    #[inline]
    pub fn data_slot(&self, node: NodeId) -> Option<Slot> {
        Some(self.record(node)[0]).filter(|&s| s != 0).map(Slot)
    }

    /// Number of nodes the route tables cover (data and index alike).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.routes.len()
    }

    /// Every routed data node, in node-id order — lets snapshot consumers
    /// build request batches without the source tree.
    pub fn routed_nodes(&self) -> Vec<NodeId> {
        self.routes
            .iter()
            .enumerate()
            .filter(|&(_, r)| r[0] != 0)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Borrows the `[slot, route]` records for the snapshot writer.
    pub(crate) fn records(&self) -> &[[u32; 2]] {
        &self.routes
    }

    /// Rebuilds a program from validated snapshot columns by zipping the
    /// slot and route columns into records. The caller (the snapshot
    /// loader) has already checked the sentinel invariants (`count(slot
    /// != 0) == num_data`, `max(slot) ≤ cycle_len`), so this is
    /// infallible.
    pub(crate) fn from_columns(
        cycle_len: u32,
        slot: &[u32],
        route: &[u32],
        num_data: usize,
    ) -> Self {
        debug_assert_eq!(slot.len(), route.len());
        CompiledProgram {
            cycle_len,
            routes: slot.iter().zip(route).map(|(&s, &r)| [s, r]).collect(),
            num_data,
        }
    }

    /// Probe wait for a tune-in slot: slots until the next cycle's root
    /// bucket has been read, with cyclic wraparound for tune-ins past the
    /// cycle (matching the walking simulator's normalization).
    #[inline]
    pub fn probe_wait(&self, tune_in: Slot) -> u32 {
        self.cycle_len - (tune_in.offset() as u32 % self.cycle_len)
    }

    /// O(1) equivalent of [`simulator::access`](crate::simulator::access):
    /// one 8-byte record read and the probe-wait subtraction.
    ///
    /// # Errors
    /// [`SimError::NotADataNode`] for index nodes or foreign ids; routing
    /// errors cannot occur here because compilation validated every route.
    #[inline]
    pub fn access(&self, target: NodeId, tune_in: Slot) -> Result<AccessTrace, SimError> {
        let [slot, route] = self.record(target);
        if slot == 0 {
            return Err(SimError::NotADataNode(target));
        }
        Ok(AccessTrace {
            probe_wait: self.probe_wait(tune_in),
            data_wait: slot - 1,
            tuning_time: path_len(route) + 1,
            channel_switches: switches(route),
        })
    }

    /// Serves a batch of requests through the route tables, optionally
    /// sharded over `opts.threads` OS threads, and aggregates exact means
    /// plus a streaming latency histogram (no per-request allocation).
    ///
    /// Each request's tune-in slot is drawn uniformly over the cycle from
    /// `opts.seed` and the request's **global index**, so the result is
    /// bit-identical for every thread count — and because
    /// [`FaultPlan::link`] is keyed by the same global index, that also
    /// holds with `opts.faults` enabled. With [`FaultPlan::none`] the
    /// engine takes the original fault-free fast path unchanged; with
    /// faults, each lost read is recovered per `opts.recovery`, delivered
    /// requests record their **total** access time (recovery wait
    /// included) in the histogram, and failed requests are counted in
    /// [`BatchMetrics::failed`] instead of aborting the batch.
    ///
    /// # Errors
    /// [`SimError::NotADataNode`] if any target is not a routed data node.
    pub fn serve_batch(
        &self,
        targets: &[NodeId],
        opts: &ServeOptions,
    ) -> Result<BatchMetrics, SimError> {
        self.serve_batch_with(targets, opts, Kernel::Chunked)
    }

    /// [`serve_batch`](Self::serve_batch) through the original per-request
    /// scalar loop, clean or lossy — the bit-identity oracle for the
    /// chunked kernels. Results are pinned equal to `serve_batch` for
    /// every input, fault plan and thread count (property-tested); the
    /// only difference is speed.
    ///
    /// # Errors
    /// [`SimError::NotADataNode`] if any target is not a routed data node.
    pub fn serve_batch_scalar(
        &self,
        targets: &[NodeId],
        opts: &ServeOptions,
    ) -> Result<BatchMetrics, SimError> {
        self.serve_batch_with(targets, opts, Kernel::Reference)
    }

    fn serve_batch_with(
        &self,
        targets: &[NodeId],
        opts: &ServeOptions,
        kernel: Kernel,
    ) -> Result<BatchMetrics, SimError> {
        let threads = opts.threads.max(1);
        // Replica-gap overlay shared by every shard (empty when unused).
        let root_gaps = if opts.faults.is_none() {
            Vec::new()
        } else {
            faults::root_occurrence_gaps(self.cycle_len(), opts.recovery.root_replicas)
        };
        let shard = if threads <= 1 || targets.len() < threads {
            self.serve_shard(targets, 0, opts, &root_gaps, kernel)?
        } else {
            let chunk = targets.len().div_ceil(threads);
            let mut shards: Vec<Result<Shard, SimError>> = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .chunks(chunk)
                    .enumerate()
                    .map(|(t, part)| {
                        let start = (t * chunk) as u64;
                        let gaps = &root_gaps;
                        scope.spawn(move || self.serve_shard(part, start, opts, gaps, kernel))
                    })
                    .collect();
                shards = handles
                    .into_iter()
                    .map(|h| h.join().expect("no panics"))
                    .collect();
            });
            let mut merged: Option<Shard> = None;
            for s in shards {
                let s = s?;
                match &mut merged {
                    None => merged = Some(s),
                    Some(m) => m.merge(&s),
                }
            }
            merged.expect("at least one shard")
        };
        Ok(shard.into_metrics(targets.len()))
    }

    /// Sequential serving of one shard; `start` is the shard's global
    /// request offset (keeps tune-in and fault draws shard-layout
    /// independent).
    fn serve_shard(
        &self,
        targets: &[NodeId],
        start: u64,
        opts: &ServeOptions,
        root_gaps: &[u64],
        kernel: Kernel,
    ) -> Result<Shard, SimError> {
        if opts.faults.is_none() {
            return match kernel {
                Kernel::Reference => self.serve_shard_reference(targets, start, opts),
                Kernel::Chunked => self.serve_shard_chunked(targets, start, opts),
            };
        }
        // Lossy path: replay the recovery protocol over each request's
        // fault-free trace. Recovery can add many cycles of wait, so the
        // histogram bound gets headroom (values beyond it clamp in
        // percentile queries; the mean stays exact).
        let mut shard = Shard::new(self.hist_bound(true));
        let (tally, hist) = (&mut shard.tally, &mut shard.hist);
        match kernel {
            Kernel::Reference => {
                self.serve_lossy_reference(tally, hist, targets, start, opts, root_gaps)
            }
            Kernel::Chunked => self.serve_lossy_into(tally, hist, targets, start, opts, root_gaps),
        }?;
        Ok(shard)
    }

    /// Upper bound of a batch's access-time histogram: exactly the
    /// fault-free worst case (probe ≤ cycle, data wait < cycle), or
    /// [`LOSSY_HIST_CYCLES`] cycles under faults, where a longer recovery
    /// wait clamps into the top bucket.
    #[inline]
    fn hist_bound(&self, lossy: bool) -> u32 {
        if lossy {
            LOSSY_HIST_CYCLES * self.cycle_len
        } else {
            2 * self.cycle_len
        }
    }

    /// Chunked lossy kernel body, accumulating into a caller-owned tally
    /// and histogram — shared by [`serve_shard`](Self::serve_shard) and
    /// the streaming [`serve_chunk`](Self::serve_chunk) path. `start` is
    /// the global index of `targets[0]`, which keys both the tune-in draw
    /// and the fault link, so feeding any chunking of a batch through
    /// this body is bit-identical to one pass over the whole batch. Access
    /// times clamp at the lossy bound whatever `hist`'s own bound is.
    ///
    /// Each [`SERVE_CHUNK`] runs four passes: prefetch the targets' route
    /// records (large tables only); fold the `slot == 0` sentinel and
    /// refuse the chunk through [`first_unrouted`] before anything is
    /// recorded, as the clean kernel does; draw each tune-in with
    /// [`FastMod`] and run the recovery protocol from it, buffering the
    /// delivered totals and keeping the tally's sums in locals; then
    /// prefetch the totals' buckets (large tables only) and flush them in
    /// one [`LatencyHistogram::record_batch_clamped`]. Every step is the
    /// exact integer work of [`serve_lossy_reference`] on the same draws,
    /// so the two record bit-identical shards.
    ///
    /// [`first_unrouted`]: CompiledProgram::first_unrouted
    /// [`serve_lossy_reference`]: CompiledProgram::serve_lossy_reference
    fn serve_lossy_into(
        &self,
        tally: &mut Tally,
        hist: &mut LatencyHistogram,
        targets: &[NodeId],
        start: u64,
        opts: &ServeOptions,
        root_gaps: &[u64],
    ) -> Result<(), SimError> {
        if targets.is_empty() {
            return Ok(());
        }
        let cap = self.hist_bound(true);
        let fm = FastMod::new(u64::from(self.cycle_len));
        let prefetching = self.routes.len() >= PREFETCH_MIN_LEN;
        let mut totals = [0u32; SERVE_CHUNK];
        for (chunk_no, chunk) in targets.chunks(SERVE_CHUNK).enumerate() {
            let first = start + (chunk_no * SERVE_CHUNK) as u64;
            if prefetching {
                for &target in chunk {
                    bcast_types::prefetch::prefetch(&self.routes, target.index());
                }
            }
            if chunk
                .iter()
                .fold(false, |bad, &t| bad | (self.record(t)[0] == 0))
            {
                return Err(self.first_unrouted(chunk));
            }
            let mut delivered = 0usize;
            let (mut wait_sum, mut tune_sum, mut switch_sum) = (0u64, 0u64, 0u64);
            let (mut extra_sum, mut retries, mut failed) = (0u64, 0u64, 0u64);
            for (c, &target) in chunk.iter().enumerate() {
                let [slot, route] = self.record(target);
                let index = first + c as u64;
                let s = fm.rem(mix64(opts.seed, index)) as u32 + 1;
                let base = AccessTrace {
                    probe_wait: self.cycle_len - (s - 1),
                    data_wait: slot - 1,
                    tuning_time: path_len(route) + 1,
                    channel_switches: switches(route),
                };
                let mut link = opts.faults.link(index);
                let outcome = faults::recover_in_cycle(
                    base,
                    s,
                    self.cycle_len,
                    &mut link,
                    &opts.recovery,
                    root_gaps,
                );
                match outcome {
                    RequestOutcome::Delivered(d) => {
                        totals[delivered] =
                            u32::try_from(d.total_access_time()).unwrap_or(u32::MAX);
                        delivered += 1;
                        wait_sum += u64::from(d.trace.data_wait);
                        tune_sum += u64::from(d.trace.tuning_time);
                        switch_sum += u64::from(d.trace.channel_switches);
                        extra_sum += d.extra_wait;
                        retries += u64::from(d.retries);
                    }
                    RequestOutcome::Failed(f) => {
                        retries += u64::from(f.retries);
                        failed += 1;
                    }
                }
            }
            let totals = &totals[..delivered];
            if prefetching {
                hist.prefetch_buckets(totals, cap);
            }
            hist.record_batch_clamped(totals, cap);
            tally.wait_sum += wait_sum;
            tally.tune_sum += tune_sum;
            tally.switch_sum += switch_sum;
            tally.extra_sum += extra_sum;
            tally.retries += retries;
            tally.delivered += delivered as u64;
            tally.failed += failed;
        }
        Ok(())
    }

    /// Lossy serving, one request at a time — the original loop, kept
    /// verbatim as the oracle [`serve_lossy_into`] is pinned against.
    ///
    /// [`serve_lossy_into`]: CompiledProgram::serve_lossy_into
    fn serve_lossy_reference(
        &self,
        tally: &mut Tally,
        hist: &mut LatencyHistogram,
        targets: &[NodeId],
        start: u64,
        opts: &ServeOptions,
        root_gaps: &[u64],
    ) -> Result<(), SimError> {
        let cycle = u64::from(self.cycle_len);
        let cap = self.hist_bound(true);
        for (j, &target) in targets.iter().enumerate() {
            let [slot, route] = self.record(target);
            if slot == 0 {
                return Err(SimError::NotADataNode(target));
            }
            let index = start + j as u64;
            let s = (mix64(opts.seed, index) % cycle) as u32 + 1;
            let base = AccessTrace {
                probe_wait: self.cycle_len - (s - 1),
                data_wait: slot - 1,
                tuning_time: path_len(route) + 1,
                channel_switches: switches(route),
            };
            let mut link = opts.faults.link(index);
            let outcome = faults::recover_access(
                base,
                Slot(s),
                self.cycle_len,
                &mut link,
                &opts.recovery,
                root_gaps,
            );
            match outcome {
                RequestOutcome::Delivered(d) => {
                    let total = u32::try_from(d.total_access_time()).unwrap_or(u32::MAX);
                    hist.record_clamped(total, cap);
                    tally.wait_sum += u64::from(d.trace.data_wait);
                    tally.tune_sum += u64::from(d.trace.tuning_time);
                    tally.switch_sum += u64::from(d.trace.channel_switches);
                    tally.extra_sum += d.extra_wait;
                    tally.retries += u64::from(d.retries);
                    tally.delivered += 1;
                }
                RequestOutcome::Failed(f) => {
                    tally.retries += u64::from(f.retries);
                    tally.failed += 1;
                }
            }
        }
        Ok(())
    }

    /// Fault-free serving, one request at a time — the original engine,
    /// kept verbatim as the oracle the chunked kernel is pinned against.
    fn serve_shard_reference(
        &self,
        targets: &[NodeId],
        start: u64,
        opts: &ServeOptions,
    ) -> Result<Shard, SimError> {
        let cycle = u64::from(self.cycle_len);
        let mut shard = Shard::new(self.hist_bound(false));
        for (j, &target) in targets.iter().enumerate() {
            let [slot, route] = self.record(target);
            if slot == 0 {
                return Err(SimError::NotADataNode(target));
            }
            let probe = self.cycle_len - (mix64(opts.seed, start + j as u64) % cycle) as u32;
            let wait = slot - 1;
            shard.hist.record(probe + wait);
            shard.tally.wait_sum += u64::from(wait);
            shard.tally.tune_sum += u64::from(path_len(route) + 1);
            shard.tally.switch_sum += u64::from(switches(route));
            shard.tally.delivered += 1;
        }
        Ok(shard)
    }

    /// Fault-free serving in [`SERVE_CHUNK`]-request chunks: division-free
    /// tune-in draws, a folded sentinel validation (re-scanned in order
    /// only on failure so the error matches the reference loop's), one
    /// record load per request and a batched histogram flush, with the
    /// chunk's records and buckets prefetched once the table is large.
    ///
    /// Every arithmetic step is exact integer work in the same order as
    /// the reference loop (sums are commutative integer adds), so the
    /// shard it produces is bit-identical to [`serve_shard_reference`]'s.
    ///
    /// [`serve_shard_reference`]: CompiledProgram::serve_shard_reference
    fn serve_shard_chunked(
        &self,
        targets: &[NodeId],
        start: u64,
        opts: &ServeOptions,
    ) -> Result<Shard, SimError> {
        let mut shard = Shard::new(self.hist_bound(false));
        self.serve_chunks_into(&mut shard.tally, &mut shard.hist, targets, start, opts.seed)?;
        Ok(shard)
    }

    /// Chunked fault-free kernel body, accumulating into a caller-owned
    /// tally and histogram — shared by [`serve_shard_chunked`] and the
    /// streaming [`serve_chunk`](Self::serve_chunk) path. `start` is the
    /// global index of `targets[0]`. Every per-request quantity depends
    /// only on that global index and the target, and every accumulation
    /// is commutative exact integer arithmetic, so feeding a batch
    /// through this body in *any* chunking produces a bit-identical
    /// result. Access times clamp at the fault-free bound whatever
    /// `hist`'s own bound is (they never exceed it).
    ///
    /// [`serve_shard_chunked`]: CompiledProgram::serve_shard_chunked
    fn serve_chunks_into(
        &self,
        tally: &mut Tally,
        hist: &mut LatencyHistogram,
        targets: &[NodeId],
        start: u64,
        seed: u64,
    ) -> Result<(), SimError> {
        if targets.is_empty() {
            return Ok(());
        }
        let cap = self.hist_bound(false);
        let fm = FastMod::new(u64::from(self.cycle_len));
        // A route table or histogram this large no longer stays cached,
        // so each chunk's random reads are hinted before they are made.
        let prefetching = self.routes.len() >= PREFETCH_MIN_LEN;
        let mut totals = [0u32; SERVE_CHUNK];
        for (chunk_no, chunk) in targets.chunks(SERVE_CHUNK).enumerate() {
            let base = chunk_no * SERVE_CHUNK;
            if prefetching {
                for &target in chunk {
                    bcast_types::prefetch::prefetch(&self.routes, target.index());
                }
            }
            // One fused pass per chunk: draw the tune-in residue with the
            // division-free reduction, read the node's 8-byte record, fold
            // the sentinel check into one flag (a bad lane yields the zero
            // record; the chunk is rejected before anything is recorded,
            // so its garbage never escapes), and buffer the access totals
            // for one batched histogram flush. The route word's two 16-bit
            // halves sum in `u32` lanes: a chunk adds at most 256 · 0xFFFF
            // < 2^24 to each, so the per-chunk sums are exact.
            let mut bad = false;
            let mut wait_sum = 0u64;
            let mut path_sum = 0u32;
            let mut switch_sum = 0u32;
            for (c, &target) in chunk.iter().enumerate() {
                let [slot, route] = self.record(target);
                bad |= slot == 0;
                let probe = self.cycle_len - fm.rem(mix64(seed, start + (base + c) as u64)) as u32;
                let wait = slot.wrapping_sub(1);
                totals[c] = probe.wrapping_add(wait);
                wait_sum += u64::from(wait);
                path_sum += path_len(route);
                switch_sum += switches(route);
            }
            if bad {
                return Err(self.first_unrouted(chunk));
            }
            if prefetching {
                hist.prefetch_buckets(&totals[..chunk.len()], cap);
            }
            hist.record_batch_clamped(&totals[..chunk.len()], cap);
            tally.wait_sum += wait_sum;
            // Tuning time is path length plus the probe bucket, per request.
            tally.tune_sum += u64::from(path_sum) + chunk.len() as u64;
            tally.switch_sum += u64::from(switch_sum);
            tally.delivered += chunk.len() as u64;
        }
        Ok(())
    }

    /// In-order scan for the first unrouted target of a rejected chunk —
    /// reports exactly the error the reference loop would.
    #[cold]
    fn first_unrouted(&self, chunk: &[NodeId]) -> SimError {
        for &target in chunk {
            if self.record(target)[0] == 0 {
                return SimError::NotADataNode(target);
            }
        }
        unreachable!("rejected chunk contains an unrouted target")
    }

    /// Single lossy access through the route tables: the compiled
    /// equivalent of [`faults::access_lossy`] (which walks the real bucket
    /// grid — property tests pin the two together).
    ///
    /// # Errors
    /// [`SimError::NotADataNode`] for unrouted targets; losses are not
    /// errors, they surface in the [`RequestOutcome`].
    pub fn access_lossy(
        &self,
        target: NodeId,
        tune_in: Slot,
        plan: &FaultPlan,
        request_index: u64,
        policy: &RecoveryPolicy,
    ) -> Result<RequestOutcome, SimError> {
        let base = self.access(target, tune_in)?;
        let root_gaps = faults::root_occurrence_gaps(self.cycle_len(), policy.root_replicas);
        let s = (tune_in.offset() as u32 % self.cycle_len) + 1;
        let mut link = plan.link(request_index);
        Ok(faults::recover_access(
            base,
            Slot(s),
            self.cycle_len,
            &mut link,
            policy,
            &root_gaps,
        ))
    }

    /// Arms `session` to stream one logical batch through this program,
    /// reusing all of the session's buffers — allocation-free once the
    /// histogram has grown to this program's bound and, on the lossy
    /// path, once the replica gaps are derived for this cycle length and
    /// replica count (they are recomputed only when either changes). The
    /// result of feeding any chunking of a batch through
    /// [`serve_chunk`](Self::serve_chunk) is bit-identical to one
    /// [`serve_batch`](Self::serve_batch) call over the concatenation, at
    /// any thread count (the batch kernel is itself sharding-invariant).
    ///
    /// The session's own histogram is emptied here but sized only by the
    /// batch's first `serve_chunk`: a batch fed only through
    /// [`serve_chunk_into`](Self::serve_chunk_into) never records into
    /// it, so it never pays for its `2 × cycle_len` buckets (lossy: 8
    /// cycles).
    pub fn begin_session(&self, session: &mut ServeSession, opts: &ServeOptions) {
        let lossy = !opts.faults.is_none();
        session.shard.reset(0);
        session.hist_bound = self.hist_bound(lossy);
        session.opts = *opts;
        session.lossy = lossy;
        let gaps_for = (self.cycle_len, opts.recovery.root_replicas);
        if lossy && session.root_gaps_for != Some(gaps_for) {
            faults::root_occurrence_gaps_into(
                self.cycle_len(),
                opts.recovery.root_replicas,
                &mut session.root_gaps,
            );
            session.root_gaps_for = Some(gaps_for);
        }
        session.requests = 0;
    }

    /// Serves the next `targets.len()` requests of the session's batch,
    /// accumulating into the session's shard. Global request indices
    /// (which key tune-in and fault draws) advance automatically, so the
    /// caller only streams target chunks — feed [`SERVE_CHUNK`]-sized
    /// slices to hand the kernel whole chunks.
    ///
    /// # Errors
    /// [`SimError::NotADataNode`] if any target is not a routed data
    /// node. The session is left mid-batch and should be re-armed with
    /// [`begin_session`](Self::begin_session) before reuse.
    pub fn serve_chunk(
        &self,
        session: &mut ServeSession,
        targets: &[NodeId],
    ) -> Result<(), SimError> {
        self.feed(session, targets, None)
    }

    /// [`serve_chunk`](Self::serve_chunk), except that access times are
    /// recorded straight into `hist` instead of the session's own
    /// histogram, which stays empty. Each value lands in bucket
    /// `min(value, session bound, hist bound)` with its true value in the
    /// sum, min and max — exactly where recording into the session and
    /// then [`LatencyHistogram::absorb`]ing the session's histogram into
    /// `hist` would put it, without sizing, zeroing and walking a session
    /// histogram of `2 × cycle_len` (lossy: 8 cycles) buckets per batch.
    /// Every other session aggregate accumulates as usual.
    ///
    /// # Errors
    /// As [`serve_chunk`](Self::serve_chunk). On either path, clean or
    /// lossy, a refused [`SERVE_CHUNK`] records nothing: the session's
    /// tally and `hist` stay as they were before it (a longer `targets`
    /// keeps the whole chunks served before the refused one).
    pub fn serve_chunk_into(
        &self,
        session: &mut ServeSession,
        targets: &[NodeId],
        hist: &mut LatencyHistogram,
    ) -> Result<(), SimError> {
        self.feed(session, targets, Some(hist))
    }

    /// Shared body of [`serve_chunk`](Self::serve_chunk) and
    /// [`serve_chunk_into`](Self::serve_chunk_into): `hist` overrides the
    /// session's own histogram as the recording target.
    fn feed(
        &self,
        session: &mut ServeSession,
        targets: &[NodeId],
        hist: Option<&mut LatencyHistogram>,
    ) -> Result<(), SimError> {
        // Requests fed so far number the chunk's first request.
        let start = session.requests;
        session.requests += targets.len() as u64;
        let ServeSession {
            shard,
            hist_bound,
            opts,
            root_gaps,
            lossy,
            ..
        } = session;
        let hist = match hist {
            Some(hist) => hist,
            None => {
                // The batch's first `serve_chunk` sizes the histogram
                // `begin_session` emptied; nothing has recorded into it.
                if shard.hist.bound() != *hist_bound {
                    shard.hist.reset(*hist_bound);
                }
                &mut shard.hist
            }
        };
        if *lossy {
            self.serve_lossy_into(&mut shard.tally, hist, targets, start, opts, root_gaps)
        } else {
            self.serve_chunks_into(&mut shard.tally, hist, targets, start, opts.seed)
        }
    }
}

/// Histogram headroom for lossy serving, in multiples of the cycle length
/// (fault-free serving needs exactly 2 — probe ≤ cycle, data wait <
/// cycle; recovery waits can add several more). A longer lossy access
/// time is counted at this bound, wherever it is recorded, so lossy
/// quantiles saturate at 8 cycles; the mean stays exact.
const LOSSY_HIST_CYCLES: u32 = 8;

/// Which shard body to run, clean or lossy — the production chunked
/// kernel or the per-request reference loop it is pinned bit-identical
/// to.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Chunked,
    Reference,
}

/// Options for [`CompiledProgram::serve_batch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// OS threads to shard the batch over (`0` and `1` both mean
    /// sequential). Results do not depend on this value.
    pub threads: usize,
    /// Seed for the per-request tune-in draws.
    pub seed: u64,
    /// Channel fault model ([`FaultPlan::none`] = the perfect channel and
    /// the original fast path).
    pub faults: FaultPlan,
    /// Recovery budget applied when `faults` is not the perfect channel.
    pub recovery: RecoveryPolicy,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 1,
            seed: 0x5EED,
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl ServeOptions {
    /// The tune-in slot `serve_batch` uses for the request at `index` in a
    /// cycle of `cycle_len` slots — exposed so oracle tests can replay the
    /// exact same request against the walking simulator.
    #[inline]
    pub fn tune_in(&self, index: u64, cycle_len: usize) -> Slot {
        Slot((mix64(self.seed, index) % cycle_len as u64) as u32 + 1)
    }
}

/// Reusable state for streaming one logical batch through
/// [`CompiledProgram::serve_chunk`] without per-slice allocation.
///
/// A session owns the accumulator shard, the armed [`ServeOptions`] and
/// the lossy path's replica-gap overlay; [`CompiledProgram::begin_session`]
/// resets all of them in place (reusing buffer capacity), and the
/// accessors read the accumulated aggregates at any point mid-stream.
#[derive(Debug, Clone)]
pub struct ServeSession {
    shard: Shard,
    /// The bound the armed batch's histogram takes at its first
    /// [`CompiledProgram::serve_chunk`].
    hist_bound: u32,
    opts: ServeOptions,
    root_gaps: Vec<u64>,
    /// The `(cycle_len, root_replicas)` that `root_gaps` was derived for.
    root_gaps_for: Option<(u32, u32)>,
    lossy: bool,
    /// Requests fed so far in the armed batch, which is also the global
    /// index of the next request (tune-in and fault draws key on it).
    requests: u64,
}

impl ServeSession {
    /// Creates an idle session. Arm it with
    /// [`CompiledProgram::begin_session`] before feeding chunks.
    pub fn new() -> Self {
        ServeSession {
            shard: Shard::new(0),
            hist_bound: 0,
            opts: ServeOptions::default(),
            root_gaps: Vec::new(),
            root_gaps_for: None,
            lossy: false,
            requests: 0,
        }
    }

    /// Requests fed so far in the current batch.
    #[inline]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.shard.tally.delivered
    }

    /// Requests failed so far (always 0 on the fault-free path).
    #[inline]
    pub fn failed(&self) -> u64 {
        self.shard.tally.failed
    }

    /// Failed reads recovered from (or charged by failed requests).
    #[inline]
    pub fn retries(&self) -> u64 {
        self.shard.tally.retries
    }

    /// Fraction of fed requests delivered (`1.0` before any are fed).
    #[inline]
    pub fn delivery_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.shard.tally.delivered as f64 / self.requests as f64
        }
    }

    /// The access-time histogram accumulated so far by
    /// [`CompiledProgram::serve_chunk`] (chunks served with
    /// [`CompiledProgram::serve_chunk_into`] record elsewhere). Its bound
    /// is 0 until the batch's first `serve_chunk` sizes it.
    #[inline]
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.shard.hist
    }

    /// Snapshots the session's aggregates as a [`BatchMetrics`] — the
    /// same value [`CompiledProgram::serve_batch`] would return for the
    /// concatenation of every chunk fed so far. Clones the histogram, so
    /// this is for batch boundaries and tests, not the per-chunk path.
    pub fn to_metrics(&self) -> BatchMetrics {
        self.shard
            .clone()
            .into_metrics(usize::try_from(self.requests).unwrap_or(usize::MAX))
    }
}

impl Default for ServeSession {
    fn default() -> Self {
        ServeSession::new()
    }
}

/// Per-thread accumulator: a histogram shard plus the integer sums.
#[derive(Debug, Clone)]
struct Shard {
    hist: LatencyHistogram,
    tally: Tally,
}

/// The exact, order-independent integer sums of a kernel pass — kept
/// apart from the histogram so a pass can record access times into a
/// histogram the shard does not own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Tally {
    wait_sum: u64,
    tune_sum: u64,
    switch_sum: u64,
    extra_sum: u64,
    retries: u64,
    delivered: u64,
    failed: u64,
}

impl Shard {
    fn new(bound: u32) -> Self {
        Shard {
            hist: LatencyHistogram::with_bound(bound),
            tally: Tally::default(),
        }
    }

    /// Empties the accumulator and re-covers histogram values
    /// `0..=bound`, reusing buffer capacity — bit-equivalent to a fresh
    /// [`Shard::new`], without the allocation.
    fn reset(&mut self, bound: u32) {
        self.hist.reset(bound);
        self.tally = Tally::default();
    }

    fn merge(&mut self, other: &Shard) {
        self.hist.merge(&other.hist);
        let (t, o) = (&mut self.tally, &other.tally);
        t.wait_sum += o.wait_sum;
        t.tune_sum += o.tune_sum;
        t.switch_sum += o.switch_sum;
        t.extra_sum += o.extra_sum;
        t.retries += o.retries;
        t.delivered += o.delivered;
        t.failed += o.failed;
    }

    fn into_metrics(self, requests: usize) -> BatchMetrics {
        // Means are over *delivered* requests; failed ones contribute only
        // to the failure/retry columns.
        let t = &self.tally;
        let n = t.delivered as f64;
        BatchMetrics {
            requests,
            mean_access_time: if t.delivered == 0 {
                0.0
            } else {
                self.hist.mean()
            },
            mean_data_wait: if t.delivered == 0 {
                0.0
            } else {
                t.wait_sum as f64 / n
            },
            mean_tuning_time: if t.delivered == 0 {
                0.0
            } else {
                t.tune_sum as f64 / n
            },
            mean_channel_switches: if t.delivered == 0 {
                0.0
            } else {
                t.switch_sum as f64 / n
            },
            mean_extra_wait: if t.delivered == 0 {
                0.0
            } else {
                t.extra_sum as f64 / n
            },
            delivered: t.delivered,
            failed: t.failed,
            retries: t.retries,
            histogram: self.hist,
        }
    }
}

/// Aggregated result of one [`CompiledProgram::serve_batch`] call.
///
/// All `mean_*` columns average over **delivered** requests; failed
/// requests are counted in [`failed`](Self::failed) (and their retries in
/// [`retries`](Self::retries)) but never skew the means. On the perfect
/// channel every request is delivered and the metrics are bit-identical
/// to the fault-free engine's.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMetrics {
    /// Requests served (delivered + failed).
    pub requests: usize,
    /// Mean access time in slots (probe wait + data wait; plus recovery
    /// wait under faults).
    pub mean_access_time: f64,
    /// Mean data wait in slots, measured from the root bucket (i.e.
    /// `T(Di) − 1` averaged over requests).
    pub mean_data_wait: f64,
    /// Mean tuning time in buckets (failed reads included for delivered
    /// requests).
    pub mean_tuning_time: f64,
    /// Mean channel switches per access.
    pub mean_channel_switches: f64,
    /// Mean slots of recovery wait added on top of the fault-free access
    /// (0 on the perfect channel).
    pub mean_extra_wait: f64,
    /// Requests delivered within their recovery budget.
    pub delivered: u64,
    /// Requests abandoned after exhausting their retry/timeout budget.
    pub failed: u64,
    /// Total failed reads recovered from (or charged by failed requests).
    pub retries: u64,
    /// Exact access-time histogram over delivered requests (quantiles via
    /// [`LatencyHistogram::percentile`]; under faults the recorded value
    /// is the total access time, recovery wait included).
    pub histogram: LatencyHistogram,
}

impl BatchMetrics {
    /// Fraction of requests delivered (`1.0` for an empty batch).
    pub fn delivery_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.delivered as f64 / self.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::simulator;
    use bcast_index_tree::builders;

    fn ids(tree: &IndexTree, labels: &[&str]) -> Vec<NodeId> {
        labels
            .iter()
            .map(|l| tree.find_by_label(l).expect("label exists"))
            .collect()
    }

    fn fig2b() -> (IndexTree, BroadcastProgram) {
        let t = builders::paper_example();
        let slots = vec![
            ids(&t, &["1"]),
            ids(&t, &["2", "3"]),
            ids(&t, &["A", "B"]),
            ids(&t, &["4", "E"]),
            ids(&t, &["C", "D"]),
        ];
        let a = Allocation::from_slot_schedule(&slots, &t, 2).unwrap();
        let p = BroadcastProgram::build(&a, &t).unwrap();
        (t, p)
    }

    #[test]
    fn compiled_access_matches_oracle_on_every_pair() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        assert_eq!(c.num_data_nodes(), t.num_data_nodes());
        let cycle = p.cycle_len() as u32;
        for &d in t.data_nodes() {
            // Including tune-ins past the cycle (wraparound).
            for tune in 1..=(2 * cycle + 3) {
                let oracle = simulator::access(&p, &t, d, Slot(tune)).unwrap();
                let fast = c.access(d, Slot(tune)).unwrap();
                assert_eq!(oracle, fast, "node {} tune {tune}", t.label(d));
            }
        }
    }

    #[test]
    fn rejects_index_targets() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let idx = t.find_by_label("2").unwrap();
        assert_eq!(
            c.access(idx, Slot::FIRST).unwrap_err(),
            SimError::NotADataNode(idx)
        );
        assert_eq!(c.data_slot(idx), None);
    }

    #[test]
    fn dropped_pointer_fails_compilation_with_no_route() {
        let (t, mut p) = fig2b();
        let root_addr = BucketAddr::new(0, 0);
        let Bucket::Index { pointers, .. } = p.bucket_mut(root_addr) else {
            panic!("root bucket is an index bucket");
        };
        pointers.pop().expect("root has children");
        assert!(matches!(
            CompiledProgram::compile(&p, &t),
            Err(SimError::NoRoute { .. })
        ));
    }

    #[test]
    fn redirected_pointer_fails_compilation_with_broken_pointer() {
        let (t, mut p) = fig2b();
        let root_addr = BucketAddr::new(0, 0);
        let Bucket::Index { pointers, .. } = p.bucket_mut(root_addr) else {
            panic!("root bucket is an index bucket");
        };
        // Point the first child pointer at a different occupied bucket.
        pointers[0].offset += 1;
        assert!(matches!(
            CompiledProgram::compile(&p, &t),
            Err(SimError::BrokenPointer { .. })
        ));
    }

    #[test]
    fn serve_batch_is_thread_count_invariant() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..1000).map(|i| data[i % data.len()]).collect();
        let base = ServeOptions {
            threads: 1,
            seed: 42,
            ..ServeOptions::default()
        };
        let m1 = c.serve_batch(&targets, &base).unwrap();
        for threads in [2, 3, 8] {
            let mt = c
                .serve_batch(&targets, &ServeOptions { threads, ..base })
                .unwrap();
            assert_eq!(m1, mt, "threads = {threads}");
        }
        assert_eq!(m1.requests, 1000);
        assert_eq!(m1.histogram.count(), 1000);
    }

    #[test]
    fn serve_batch_matches_oracle_fold() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..257).map(|i| data[(i * 7) % data.len()]).collect();
        let opts = ServeOptions {
            threads: 1,
            seed: 7,
            ..ServeOptions::default()
        };
        let m = c.serve_batch(&targets, &opts).unwrap();
        let mut access_sum = 0u64;
        let mut wait_sum = 0u64;
        for (i, &target) in targets.iter().enumerate() {
            let tune = opts.tune_in(i as u64, c.cycle_len());
            let trace = simulator::access(&p, &t, target, tune).unwrap();
            access_sum += u64::from(trace.access_time());
            wait_sum += u64::from(trace.data_wait);
        }
        let n = targets.len() as f64;
        assert!((m.mean_access_time - access_sum as f64 / n).abs() < 1e-12);
        assert!((m.mean_data_wait - wait_sum as f64 / n).abs() < 1e-12);
    }

    #[test]
    fn serve_batch_rejects_bad_targets() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let idx = t.find_by_label("3").unwrap();
        let err = c.serve_batch(&[idx], &ServeOptions::default()).unwrap_err();
        assert_eq!(err, SimError::NotADataNode(idx));
        // The chunked kernel reports the same first error the reference
        // loop would, even when the bad target is mid-chunk.
        let data = t.data_nodes();
        let mut targets: Vec<NodeId> = (0..100).map(|i| data[i % data.len()]).collect();
        targets[37] = idx;
        targets[61] = NodeId::from_index(100_000); // out of bounds too
        let opts = ServeOptions::default();
        assert_eq!(
            c.serve_batch(&targets, &opts).unwrap_err(),
            c.serve_batch_scalar(&targets, &opts).unwrap_err(),
        );
    }

    #[test]
    fn chunked_kernel_matches_scalar_oracle() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        // Sizes around the chunk boundary, plus empty and single-request.
        for len in [0usize, 1, 7, 63, 64, 65, 127, 128, 1000] {
            let targets: Vec<NodeId> = (0..len).map(|i| data[(i * 5) % data.len()]).collect();
            for threads in [1, 3] {
                let opts = ServeOptions {
                    threads,
                    seed: 0xC0FFEE,
                    ..ServeOptions::default()
                };
                let fast = c.serve_batch(&targets, &opts).unwrap();
                let oracle = c.serve_batch_scalar(&targets, &opts).unwrap();
                assert_eq!(fast, oracle, "len {len} threads {threads}");
            }
        }
    }

    #[test]
    fn fastmod_matches_hardware_remainder() {
        for d in [
            1u64,
            2,
            3,
            5,
            9,
            255,
            256,
            1023,
            65_536,
            u64::from(u32::MAX),
        ] {
            let fm = FastMod::new(d);
            let mut x = 0x1234_5678_9ABC_DEF0u64;
            for _ in 0..1000 {
                x = mix64(x, d);
                assert_eq!(fm.rem(x), x % d, "x {x} d {d}");
            }
            assert_eq!(fm.rem(0), 0);
            assert_eq!(fm.rem(u64::MAX), u64::MAX % d);
        }
    }

    #[test]
    fn empty_batch_yields_zero_metrics() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let m = c.serve_batch(&[], &ServeOptions::default()).unwrap();
        assert_eq!(m.requests, 0);
        assert_eq!(m.mean_access_time, 0.0);
        assert!(m.histogram.is_empty());
        assert_eq!(m.delivery_rate(), 1.0);
    }

    #[test]
    fn lossy_serving_is_thread_count_invariant_and_deterministic() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..2000).map(|i| data[(i * 3) % data.len()]).collect();
        let base = ServeOptions {
            threads: 1,
            seed: 42,
            faults: FaultPlan::erasure(0.15, 0xFA11).unwrap(),
            recovery: RecoveryPolicy {
                max_retries: 5,
                timeout_slots: 64,
                ..RecoveryPolicy::default()
            },
        };
        let m1 = c.serve_batch(&targets, &base).unwrap();
        assert!(m1.failed > 0, "tight budget at 15% loss must fail some");
        assert!(m1.retries > 0);
        assert_eq!(m1.delivered + m1.failed, targets.len() as u64);
        for threads in [2, 3, 8] {
            let mt = c
                .serve_batch(&targets, &ServeOptions { threads, ..base })
                .unwrap();
            assert_eq!(m1, mt, "threads = {threads}");
        }
        // Rerun with the same seed: bit-identical.
        assert_eq!(m1, c.serve_batch(&targets, &base).unwrap());
        // A different fault seed changes the outcome.
        let other = ServeOptions {
            faults: FaultPlan::erasure(0.15, 0xFA12).unwrap(),
            ..base
        };
        assert_ne!(m1, c.serve_batch(&targets, &other).unwrap());
    }

    #[test]
    fn zero_probability_faults_match_the_fault_free_fast_path() {
        // p = 0 exercises the lossy code path but loses nothing: every
        // aggregate must equal the fast path's (histogram bounds differ by
        // design, so compare fields, not the whole struct).
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..500).map(|i| data[i % data.len()]).collect();
        let clean = c.serve_batch(&targets, &ServeOptions::default()).unwrap();
        let lossy_opts = ServeOptions {
            faults: FaultPlan::erasure(0.0, 9).unwrap(),
            ..ServeOptions::default()
        };
        let lossy = c.serve_batch(&targets, &lossy_opts).unwrap();
        assert_eq!(lossy.delivered, clean.delivered);
        assert_eq!(lossy.failed, 0);
        assert_eq!(lossy.retries, 0);
        assert_eq!(lossy.mean_access_time, clean.mean_access_time);
        assert_eq!(lossy.mean_data_wait, clean.mean_data_wait);
        assert_eq!(lossy.mean_tuning_time, clean.mean_tuning_time);
        assert_eq!(lossy.mean_extra_wait, 0.0);
        assert_eq!(lossy.histogram.mean(), clean.histogram.mean());
    }

    #[test]
    fn total_loss_fails_everything_without_aborting() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..100).map(|i| data[i % data.len()]).collect();
        let opts = ServeOptions {
            faults: FaultPlan::erasure(1.0, 1).unwrap(),
            ..ServeOptions::default()
        };
        let m = c.serve_batch(&targets, &opts).unwrap();
        assert_eq!(m.delivered, 0);
        assert_eq!(m.failed, 100);
        assert_eq!(m.delivery_rate(), 0.0);
        assert_eq!(m.mean_access_time, 0.0);
        assert!(m.histogram.is_empty());
        // Every request charged its full retry budget, nothing more.
        assert_eq!(m.retries, 100 * u64::from(opts.recovery.max_retries));
    }

    #[test]
    fn session_chunk_feed_matches_serve_batch_bit_for_bit() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..1000).map(|i| data[(i * 3) % data.len()]).collect();
        let lossless = ServeOptions {
            seed: 0xABCD,
            ..ServeOptions::default()
        };
        let lossy = ServeOptions {
            seed: 0xABCD,
            faults: FaultPlan::erasure(0.15, 0xFA11).unwrap(),
            recovery: RecoveryPolicy {
                max_retries: 5,
                timeout_slots: 64,
                ..RecoveryPolicy::default()
            },
            ..ServeOptions::default()
        };
        // One session reused across batches pins both the chunk-feed
        // equivalence and the begin_session reset (lossless after lossy
        // shrinks the histogram bound, lossy after lossless regrows it).
        let mut session = ServeSession::new();
        for opts in [&lossless, &lossy, &lossless, &lossy] {
            let oracle = c.serve_batch(&targets, opts).unwrap();
            // Odd chunk sizes, never aligned to SERVE_CHUNK.
            for chunk in [1usize, 7, 100, 255, 257, 999] {
                c.begin_session(&mut session, opts);
                for part in targets.chunks(chunk) {
                    c.serve_chunk(&mut session, part).unwrap();
                }
                assert_eq!(session.requests(), targets.len() as u64);
                assert_eq!(session.to_metrics(), oracle, "chunk {chunk}");
                assert_eq!(session.delivered(), oracle.delivered);
                assert_eq!(session.failed(), oracle.failed);
                assert_eq!(session.retries(), oracle.retries);
                assert_eq!(session.delivery_rate(), oracle.delivery_rate());
                assert_eq!(session.histogram(), &oracle.histogram);
                // Recorded straight into a 3-cycle window instead (wider
                // than the clean session, narrower than the lossy one):
                // the window equals one that absorbed the batch's
                // histogram, and the session's own histogram stays empty.
                let mut direct = LatencyHistogram::with_bound(3 * c.cycle_len() as u32);
                let mut absorbed = direct.clone();
                absorbed.absorb(&oracle.histogram);
                c.begin_session(&mut session, opts);
                for part in targets.chunks(chunk) {
                    c.serve_chunk_into(&mut session, part, &mut direct).unwrap();
                }
                assert_eq!(direct, absorbed, "chunk {chunk}");
                assert!(session.histogram().is_empty());
                assert_eq!(session.delivered(), oracle.delivered);
                assert_eq!(session.retries(), oracle.retries);
            }
        }
    }

    #[test]
    fn session_rejects_bad_targets_like_the_batch_engine() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let idx = t.find_by_label("3").unwrap();
        let mut session = ServeSession::new();
        c.begin_session(&mut session, &ServeOptions::default());
        let data = t.data_nodes();
        let mut targets: Vec<NodeId> = (0..64).map(|i| data[i % data.len()]).collect();
        targets[37] = idx;
        assert_eq!(
            c.serve_chunk(&mut session, &targets).unwrap_err(),
            SimError::NotADataNode(idx)
        );
        // An empty session reports the empty-batch identity rate.
        c.begin_session(&mut session, &ServeOptions::default());
        assert_eq!(session.delivery_rate(), 1.0);
        assert_eq!(session.requests(), 0);
    }

    #[test]
    fn a_session_fed_only_into_a_window_never_sizes_its_histogram() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let targets: Vec<NodeId> = (0..600).map(|i| data[i % data.len()]).collect();
        let lossy = ServeOptions {
            faults: FaultPlan::erasure(0.2, 7).unwrap(),
            ..ServeOptions::default()
        };
        let mut session = ServeSession::new();
        for opts in [ServeOptions::default(), lossy] {
            // A `serve_chunk` batch sizes the histogram as `serve_batch`
            // does...
            c.begin_session(&mut session, &opts);
            c.serve_chunk(&mut session, &targets).unwrap();
            let batch = c.serve_batch(&targets, &opts).unwrap();
            assert_eq!(session.histogram().bound(), batch.histogram.bound());
            // ...and the next batch, fed only into a window, leaves it
            // emptied at bound 0.
            let mut window = LatencyHistogram::with_bound(16 * c.cycle_len() as u32);
            c.begin_session(&mut session, &opts);
            for part in targets.chunks(SERVE_CHUNK) {
                c.serve_chunk_into(&mut session, part, &mut window).unwrap();
            }
            assert_eq!(session.histogram().bound(), 0);
            assert!(session.histogram().is_empty());
            assert_eq!(window.count(), session.delivered());
        }
    }

    #[test]
    fn too_deep_a_tree_is_refused_before_compiling() {
        // A chain of 65,535 items is 65,536 levels deep: its deepest path
        // length would overflow the route word's 16-bit half.
        let t = builders::chain(&vec![bcast_types::Weight::from(1u32); 65_535]).unwrap();
        assert_eq!(t.depth(), MAX_ROUTE_DEPTH + 1);
        let a = Allocation::from_sequence(t.preorder(), &t).unwrap();
        let p = BroadcastProgram::build(&a, &t).unwrap();
        let err = CompiledProgram::compile(&p, &t).unwrap_err();
        assert_eq!(err, SimError::TreeTooDeep(65_536));
        assert!(err.to_string().contains("65536"), "{err}");
    }

    #[test]
    fn maximal_route_words_are_exact_in_every_kernel() {
        // Both 16-bit route fields at their maximum and slots reaching the
        // cycle length — values no proptest tree produces, and the ones
        // the chunked kernel's per-chunk `u32` route sums must survive.
        let cycle_len = 1000u32;
        let slot: Vec<u32> = (0..64u32)
            .map(|i| match i % 4 {
                0 => 0, // unrouted, like an index node
                1 => cycle_len,
                2 => 1,
                _ => cycle_len - i,
            })
            .collect();
        let route: Vec<u32> = slot
            .iter()
            .map(|&s| if s == 0 { 0 } else { u32::MAX })
            .collect();
        let routed = slot.iter().filter(|&&s| s != 0).count();
        let c = CompiledProgram::from_columns(cycle_len, &slot, &route, routed);
        let data = c.routed_nodes();
        assert_eq!(data.len(), routed);
        // Three full chunks plus a ragged tail.
        let targets: Vec<NodeId> = (0..3 * SERVE_CHUNK + 37)
            .map(|i| data[(i * 7) % data.len()])
            .collect();
        let clean = ServeOptions {
            seed: 0xED6E,
            ..ServeOptions::default()
        };
        let lossy = ServeOptions {
            faults: FaultPlan::erasure(0.2, 0xFA11).unwrap(),
            ..clean
        };
        let mut session = ServeSession::new();
        for opts in [clean, lossy] {
            let batch = c.serve_batch(&targets, &opts).unwrap();
            assert_eq!(batch, c.serve_batch_scalar(&targets, &opts).unwrap());
            assert_eq!(
                batch,
                c.serve_batch(&targets, &ServeOptions { threads: 3, ..opts })
                    .unwrap()
            );
            if opts.faults.is_none() {
                assert_eq!(batch.mean_tuning_time, f64::from(0xFFFF + 1));
                assert_eq!(batch.mean_channel_switches, f64::from(0xFFFF));
            }
            // A session fed chunk by chunk, recording into its own
            // histogram and straight into a window.
            c.begin_session(&mut session, &opts);
            for part in targets.chunks(SERVE_CHUNK) {
                c.serve_chunk(&mut session, part).unwrap();
            }
            assert_eq!(session.to_metrics(), batch);
            let mut window = LatencyHistogram::with_bound(batch.histogram.bound());
            c.begin_session(&mut session, &opts);
            for part in targets.chunks(SERVE_CHUNK) {
                c.serve_chunk_into(&mut session, part, &mut window).unwrap();
            }
            assert_eq!(window, batch.histogram);
            assert_eq!(session.delivered(), batch.delivered);
            assert_eq!(session.failed(), batch.failed);
            assert_eq!(session.retries(), batch.retries);
        }
    }

    #[test]
    fn a_route_table_past_the_prefetch_size_serves_like_the_oracle() {
        // A program with enough records that the chunked kernel prefetches
        // each chunk's records and histogram buckets: the batch, the
        // session and the refusal of a bad target must not change.
        let nodes = PREFETCH_MIN_LEN + 3;
        let cycle_len = 40_000u32;
        let slot: Vec<u32> = (0..nodes as u32)
            .map(|i| {
                if i % 3 == 0 {
                    0
                } else {
                    1 + mix64(7, u64::from(i)) as u32 % cycle_len
                }
            })
            .collect();
        let route: Vec<u32> = slot
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                if s == 0 {
                    0
                } else {
                    route_word(2 + i as u32 % 9, i as u32 % 2)
                }
            })
            .collect();
        let routed = slot.iter().filter(|&&s| s != 0).count();
        let c = CompiledProgram::from_columns(cycle_len, &slot, &route, routed);
        let data = c.routed_nodes();
        let mut targets: Vec<NodeId> = (0..5 * SERVE_CHUNK + 11)
            .map(|i| data[mix64(3, i as u64) as usize % data.len()])
            .collect();
        let opts = ServeOptions {
            seed: 0x9F1,
            ..ServeOptions::default()
        };
        let batch = c.serve_batch(&targets, &opts).unwrap();
        assert_eq!(batch, c.serve_batch_scalar(&targets, &opts).unwrap());
        let mut session = ServeSession::new();
        let mut window = LatencyHistogram::with_bound(16 * cycle_len);
        let mut absorbed = window.clone();
        absorbed.absorb(&batch.histogram);
        c.begin_session(&mut session, &opts);
        for part in targets.chunks(SERVE_CHUNK) {
            c.serve_chunk_into(&mut session, part, &mut window).unwrap();
        }
        assert_eq!(window, absorbed);
        assert_eq!(session.delivered(), batch.delivered);
        // An index node mid-chunk, and an id past the table.
        targets[SERVE_CHUNK + 40] = NodeId(3);
        targets[2 * SERVE_CHUNK] = NodeId::from_index(nodes + 9);
        assert_eq!(
            c.serve_batch(&targets, &opts).unwrap_err(),
            SimError::NotADataNode(NodeId(3))
        );
    }

    /// The brownout scenario's Gilbert–Elliott channel.
    fn brownout(seed: u64) -> FaultPlan {
        let b = bcast_workloads::brownout_channel().burst.unwrap();
        let ge = faults::GilbertElliott {
            p_good_to_bad: b.p_good_to_bad,
            p_bad_to_good: b.p_bad_to_good,
            loss_good: b.loss_good,
            loss_bad: b.loss_bad,
        };
        FaultPlan::gilbert_elliott(ge, seed).unwrap()
    }

    #[test]
    fn a_lossy_route_table_past_the_prefetch_size_serves_like_the_oracle() {
        // The lossy sibling of the clean case above: the chunked lossy
        // kernel prefetches each chunk's records and histogram buckets,
        // and must still equal the per-request loop in the batch, in a
        // session and in a window.
        let nodes = PREFETCH_MIN_LEN + 5;
        let cycle_len = 30_000u32;
        let slot: Vec<u32> = (0..nodes as u32)
            .map(|i| {
                if i % 4 == 0 {
                    0
                } else {
                    1 + mix64(11, u64::from(i)) as u32 % cycle_len
                }
            })
            .collect();
        let route: Vec<u32> = slot
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                if s == 0 {
                    0
                } else {
                    route_word(2 + i as u32 % 7, i as u32 % 3 % 2)
                }
            })
            .collect();
        let routed = slot.iter().filter(|&&s| s != 0).count();
        let c = CompiledProgram::from_columns(cycle_len, &slot, &route, routed);
        let data = c.routed_nodes();
        let targets: Vec<NodeId> = (0..6 * SERVE_CHUNK + 29)
            .map(|i| data[mix64(5, i as u64) as usize % data.len()])
            .collect();
        let opts = ServeOptions {
            seed: 0xB0,
            faults: brownout(0xB1),
            ..ServeOptions::default()
        };
        let batch = c.serve_batch(&targets, &opts).unwrap();
        assert!(batch.retries > 0 && batch.delivered > 0, "{batch:?}");
        assert_eq!(batch, c.serve_batch_scalar(&targets, &opts).unwrap());
        let threaded = ServeOptions { threads: 3, ..opts };
        assert_eq!(batch, c.serve_batch_scalar(&targets, &threaded).unwrap());
        assert_eq!(batch, c.serve_batch(&targets, &threaded).unwrap());
        let mut session = ServeSession::new();
        c.begin_session(&mut session, &opts);
        for part in targets.chunks(SERVE_CHUNK) {
            c.serve_chunk(&mut session, part).unwrap();
        }
        assert_eq!(session.to_metrics(), batch);
        let mut window = LatencyHistogram::with_bound(16 * cycle_len);
        let mut absorbed = window.clone();
        absorbed.absorb(&batch.histogram);
        c.begin_session(&mut session, &opts);
        for part in targets.chunks(SERVE_CHUNK) {
            c.serve_chunk_into(&mut session, part, &mut window).unwrap();
        }
        assert_eq!(window, absorbed);
        assert_eq!(session.retries(), batch.retries);
    }

    #[test]
    fn a_refused_chunk_records_nothing_on_either_path() {
        // An unrouted target mid-chunk: both kernels report it, and a
        // session that has served one good chunk keeps exactly that
        // chunk's tally and histogram through the refused one.
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let data = t.data_nodes();
        let good: Vec<NodeId> = (0..SERVE_CHUNK)
            .map(|i| data[(i * 3) % data.len()])
            .collect();
        let mut bad = good.clone();
        let idx = t.find_by_label("2").unwrap();
        bad[SERVE_CHUNK / 2 + 9] = idx;
        bad[SERVE_CHUNK - 1] = NodeId::from_index(t.len() + 4);
        let clean = ServeOptions {
            seed: 0x5EF,
            ..ServeOptions::default()
        };
        let lossy = ServeOptions {
            faults: brownout(0x5F0),
            ..clean
        };
        // The session's request count moves on; its tally and histogram
        // must not.
        let kept =
            |session: &ServeSession| (session.shard.tally.clone(), session.shard.hist.clone());
        for opts in [clean, lossy] {
            let both = [good.clone(), bad.clone()].concat();
            let err = c.serve_batch(&both, &opts).unwrap_err();
            assert_eq!(err, SimError::NotADataNode(idx));
            assert_eq!(err, c.serve_batch_scalar(&both, &opts).unwrap_err());

            let mut session = ServeSession::new();
            c.begin_session(&mut session, &opts);
            c.serve_chunk(&mut session, &good).unwrap();
            let before = kept(&session);
            assert_eq!(c.serve_chunk(&mut session, &bad).unwrap_err(), err);
            assert_eq!(kept(&session), before);

            let mut window = LatencyHistogram::with_bound(16 * c.cycle_len() as u32);
            c.begin_session(&mut session, &opts);
            c.serve_chunk_into(&mut session, &good, &mut window)
                .unwrap();
            let (before, window_before) = (kept(&session), window.clone());
            assert_eq!(
                c.serve_chunk_into(&mut session, &bad, &mut window)
                    .unwrap_err(),
                err
            );
            assert_eq!(kept(&session), before);
            assert_eq!(window, window_before);
        }
    }

    #[test]
    fn compiled_lossy_access_matches_walking_oracle() {
        let (t, p) = fig2b();
        let c = CompiledProgram::compile(&p, &t).unwrap();
        let plan = FaultPlan::erasure(0.3, 0xABCD).unwrap();
        let policy = RecoveryPolicy {
            max_retries: 10,
            timeout_slots: 200,
            backoff_cap: 3,
            root_replicas: 2,
        };
        for &d in t.data_nodes() {
            for tune in 1..=p.cycle_len() as u32 {
                for req in 0..8u64 {
                    let walk =
                        faults::access_lossy(&p, &t, d, Slot(tune), &plan, req, &policy).unwrap();
                    let fast = c.access_lossy(d, Slot(tune), &plan, req, &policy).unwrap();
                    assert_eq!(walk, fast, "node {} tune {tune} req {req}", t.label(d));
                }
            }
        }
    }
}
