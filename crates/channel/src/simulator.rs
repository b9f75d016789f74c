//! A mobile-client simulator over a [`BroadcastProgram`].
//!
//! The paper splits a request's life into **probe wait** (tune in on channel
//! `C1`, read the current bucket, learn the offset of the next cycle's
//! root) and **data wait** (follow index pointers from the root to the data
//! bucket). Between reads the client dozes, so *tuning time* — the number of
//! buckets actually listened to, the paper's proxy for battery drain
//! \[IVB94a\] — is the pointer-path length plus the initial probe.
//!
//! The simulator executes exactly that protocol and reports every metric,
//! giving an end-to-end check of the analytic cost model
//! ([`crate::cost::average_data_wait`]) and enabling the tuning-time
//! comparisons between index-tree shapes that motivated the paper's choice
//! of alphabetic trees.

use crate::compiled::CompiledProgram;
use crate::hist::LatencyHistogram;
use crate::program::{BroadcastProgram, Bucket};
use bcast_index_tree::IndexTree;
use bcast_types::{BucketAddr, ChannelId, NodeId, Slot};
use std::fmt;

/// The trace of one simulated access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTrace {
    /// Slots from tune-in until the root bucket has been read (inclusive).
    pub probe_wait: u32,
    /// Slots from the root bucket (exclusive) to the data bucket
    /// (inclusive); equals the paper's `T(Di)` minus the root's slot when
    /// the root sits at slot 1 — i.e. `T(Di) - 1`.
    pub data_wait: u32,
    /// Buckets actually read (probe bucket + root + index path + data).
    pub tuning_time: u32,
    /// Channel switches performed after the probe.
    pub channel_switches: u32,
}

impl AccessTrace {
    /// Total slots from tune-in to data retrieval.
    pub fn access_time(&self) -> u32 {
        self.probe_wait + self.data_wait
    }
}

/// Errors from a simulated access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The requested node is not a data node.
    NotADataNode(NodeId),
    /// A followed pointer led to a bucket not holding the expected node —
    /// the program is corrupt.
    BrokenPointer {
        /// Bucket the pointer led to.
        at: BucketAddr,
        /// Node the client expected there.
        expected: NodeId,
    },
    /// An index bucket had no pointer toward the target (routing failure).
    NoRoute {
        /// The index node where routing stopped.
        at: NodeId,
        /// The unreachable target.
        target: NodeId,
    },
    /// The tree (of this depth) is deeper than a compiled route record can
    /// count ([`MAX_ROUTE_DEPTH`](crate::compiled::MAX_ROUTE_DEPTH)).
    TreeTooDeep(u32),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotADataNode(n) => write!(f, "{n} is not a data node"),
            SimError::BrokenPointer { at, expected } => {
                write!(f, "bucket {at} does not hold expected node {expected}")
            }
            SimError::NoRoute { at, target } => {
                write!(f, "no pointer from {at} toward {target}")
            }
            SimError::TreeTooDeep(depth) => write!(
                f,
                "tree depth {depth} exceeds the route record limit of {}",
                crate::compiled::MAX_ROUTE_DEPTH
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Simulates one access to `target`, tuning in during slot `tune_in` of the
/// cycle (1-based, on channel `C1`).
///
/// Protocol:
/// 1. read the current `C1` bucket (1 tuning bucket) and learn the offset
///    to the next cycle's first bucket;
/// 2. doze until that bucket — the index root — and read it;
/// 3. at each index bucket, follow the pointer to the child that is an
///    ancestor-or-self of `target` (a key-range lookup in the real system);
/// 4. repeat until the data bucket is read.
pub fn access(
    program: &BroadcastProgram,
    tree: &IndexTree,
    target: NodeId,
    tune_in: Slot,
) -> Result<AccessTrace, SimError> {
    if !tree.is_data(target) {
        return Err(SimError::NotADataNode(target));
    }
    // The broadcast is cyclic: a tune-in past the cycle length is the same
    // physical moment as its in-cycle residue.
    let tune_in = Slot::from_offset(tune_in.offset() % program.cycle_len());
    // Ancestor chain of the target (self included) for routing.
    let mut on_path = vec![false; tree.len()];
    on_path[target.index()] = true;
    for a in tree.ancestors(target) {
        on_path[a.index()] = true;
    }

    // Step 1: probe. Reading the tune-in bucket costs one listening slot and
    // tells us where the next cycle starts.
    let mut tuning_time = 1u32;
    let probe_wait = program.next_cycle_offset(tune_in);
    let mut channel_switches = 0u32;

    // Step 2 onward: walk pointers from the root at (C1, s1).
    let mut at = BucketAddr {
        channel: ChannelId::FIRST,
        slot: Slot::FIRST,
    };
    let mut clock = 1u32; // slots elapsed since cycle start, = at.slot
    loop {
        tuning_time += 1;
        match program.bucket(at) {
            Bucket::Data { node } if on_path[node.index()] => {
                return Ok(AccessTrace {
                    probe_wait,
                    data_wait: clock - 1,
                    tuning_time,
                    channel_switches,
                });
            }
            Bucket::Index { node, pointers } if on_path[node.index()] => {
                let Some(ptr) = pointers.iter().find(|p| on_path[p.child.index()]) else {
                    return Err(SimError::NoRoute { at: *node, target });
                };
                if ptr.channel != at.channel {
                    channel_switches += 1;
                }
                clock += ptr.offset;
                at = BucketAddr {
                    channel: ptr.channel,
                    slot: Slot(at.slot.0 + ptr.offset),
                };
            }
            Bucket::Data { node } | Bucket::Index { node, .. } => {
                return Err(SimError::BrokenPointer {
                    at,
                    expected: *node,
                })
            }
            Bucket::Empty => {
                return Err(SimError::BrokenPointer {
                    at,
                    expected: target,
                })
            }
        }
    }
}

/// Aggregate metrics over every data node (weighted by access frequency)
/// and every tune-in slot (uniform).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateMetrics {
    /// Expected access time (probe + data wait) in slots.
    pub avg_access_time: f64,
    /// Expected data wait in slots, measured from cycle start (the paper's
    /// formula-1 quantity).
    pub avg_data_wait: f64,
    /// Expected tuning time in buckets.
    pub avg_tuning_time: f64,
    /// Expected channel switches per access.
    pub avg_channel_switches: f64,
}

/// Exhaustively simulates every `(data node, tune-in slot)` pair and
/// averages, weighting data nodes by access frequency.
///
/// The returned `avg_data_wait` equals
/// [`crate::cost::average_data_wait`] — asserted by integration tests —
/// because the simulator's `data_wait` is `T(Di) - 1` and the root
/// consumes slot 1 exactly as formula (1) assumes.
pub fn aggregate_metrics(
    program: &BroadcastProgram,
    tree: &IndexTree,
) -> Result<AggregateMetrics, SimError> {
    // One O(buckets) compile validates every route; each per-node read is
    // then O(1) instead of a pointer walk.
    let compiled = CompiledProgram::compile(program, tree)?;
    let total_w = tree.total_weight().get();
    let cycle = program.cycle_len() as f64;
    let mut access_acc = 0.0;
    let mut wait_acc = 0.0;
    let mut tune_acc = 0.0;
    let mut switch_acc = 0.0;
    for &d in tree.data_nodes() {
        let w = tree.weight(d).get();
        // Probe wait depends only on the tune-in slot; average it once.
        // data wait / tuning / switches are tune-in independent.
        let trace = compiled.access(d, Slot::FIRST)?;
        let avg_probe = (cycle + 1.0) / 2.0;
        access_acc += w * (avg_probe + f64::from(trace.data_wait));
        wait_acc += w * f64::from(trace.data_wait + 1); // + root slot
        tune_acc += w * f64::from(trace.tuning_time);
        switch_acc += w * f64::from(trace.channel_switches);
    }
    if total_w == 0.0 {
        return Ok(AggregateMetrics {
            avg_access_time: 0.0,
            avg_data_wait: 0.0,
            avg_tuning_time: 0.0,
            avg_channel_switches: 0.0,
        });
    }
    Ok(AggregateMetrics {
        avg_access_time: access_acc / total_w,
        avg_data_wait: wait_acc / total_w,
        avg_tuning_time: tune_acc / total_w,
        avg_channel_switches: switch_acc / total_w,
    })
}

/// Latency distribution of simulated accesses — tail behavior the paper's
/// mean-only formula (1) cannot show.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyDistribution {
    /// Mean access time (slots).
    pub mean: f64,
    /// Median access time.
    pub p50: u32,
    /// 90th percentile.
    pub p90: u32,
    /// 99th percentile.
    pub p99: u32,
    /// Worst observed access.
    pub max: u32,
    /// Number of simulated requests.
    pub samples: usize,
}

/// Simulates `requests` independent accesses — target drawn proportionally
/// to access weight, tune-in slot uniform over the cycle — and reports the
/// realized access-time distribution. Deterministic per `seed`
/// (xorshift64*).
///
/// Each access is an O(1) read of the compiled route tables, and samples
/// stream through an exact fixed-bucket [`LatencyHistogram`] — no
/// per-request allocation or sort, so request counts in the millions are
/// routine (see `CompiledProgram::serve_batch` for the sharded engine).
///
/// # Errors
/// Propagates any routing failure (a corrupt program).
///
/// # Panics
/// Panics if `requests == 0` or the tree has zero total weight (no
/// distribution to draw targets from).
pub fn latency_distribution(
    program: &BroadcastProgram,
    tree: &IndexTree,
    requests: usize,
    seed: u64,
) -> Result<LatencyDistribution, SimError> {
    assert!(requests > 0, "need at least one request");
    let total = tree.total_weight().get();
    assert!(
        total > 0.0,
        "cannot draw targets from an all-zero-weight tree"
    );
    let compiled = CompiledProgram::compile(program, tree)?;
    // Cumulative weights for inverse-CDF target sampling.
    let data = tree.data_nodes();
    let mut cdf = Vec::with_capacity(data.len());
    let mut acc = 0.0;
    for &d in data {
        acc += tree.weight(d).get();
        cdf.push(acc);
    }
    let mut state = seed | 1;
    let mut next_u64 = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let cycle = program.cycle_len() as u64;
    // Access time is bounded by probe (≤ cycle) + data wait (< cycle).
    let mut hist = LatencyHistogram::with_bound(2 * cycle as u32);
    for _ in 0..requests {
        let u = (next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        let idx = match cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(data.len() - 1),
        };
        let tune = Slot((next_u64() % cycle) as u32 + 1);
        let trace = compiled.access(data[idx], tune)?;
        hist.record(trace.access_time());
    }
    Ok(LatencyDistribution {
        mean: hist.mean(),
        p50: hist.percentile(0.50),
        p90: hist.percentile(0.90),
        p99: hist.percentile(0.99),
        max: hist.max(),
        samples: requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::cost;
    use bcast_index_tree::builders;

    fn ids(tree: &IndexTree, labels: &[&str]) -> Vec<NodeId> {
        labels
            .iter()
            .map(|l| tree.find_by_label(l).expect("label exists"))
            .collect()
    }

    fn fig2a() -> (IndexTree, Allocation, BroadcastProgram) {
        let t = builders::paper_example();
        let seq = ids(&t, &["1", "3", "E", "4", "C", "D", "2", "A", "B"]);
        let a = Allocation::from_sequence(&seq, &t).unwrap();
        let p = BroadcastProgram::build(&a, &t).unwrap();
        (t, a, p)
    }

    fn fig2b() -> (IndexTree, Allocation, BroadcastProgram) {
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
        (t, a, p)
    }

    #[test]
    fn simulated_wait_matches_analytic_one_channel() {
        let (t, a, p) = fig2a();
        for &d in t.data_nodes() {
            let trace = access(&p, &t, d, Slot::FIRST).unwrap();
            let analytic = a.slot_of(d).unwrap().wait() as u32;
            assert_eq!(trace.data_wait + 1, analytic, "node {}", t.label(d));
        }
        let agg = aggregate_metrics(&p, &t).unwrap();
        assert!((agg.avg_data_wait - cost::average_data_wait(&a, &t)).abs() < 1e-9);
    }

    #[test]
    fn simulated_wait_matches_analytic_two_channels() {
        let (t, a, p) = fig2b();
        let agg = aggregate_metrics(&p, &t).unwrap();
        assert!((agg.avg_data_wait - cost::average_data_wait(&a, &t)).abs() < 1e-9);
        // Some accesses must hop channels in the Fig. 2(b) layout.
        assert!(agg.avg_channel_switches > 0.0);
    }

    #[test]
    fn tuning_time_is_path_length_plus_probe() {
        let (t, _, p) = fig2a();
        let c = t.find_by_label("C").unwrap();
        // Path 1 → 3 → 4 → C: read probe bucket + 4 path buckets.
        let trace = access(&p, &t, c, Slot(4)).unwrap();
        assert_eq!(trace.tuning_time, 5);
        // Probe: tuned at slot 4 of a 9-slot cycle → root read 6 slots on.
        assert_eq!(trace.probe_wait, 6);
        assert_eq!(trace.access_time(), 6 + trace.data_wait);
    }

    #[test]
    fn tune_in_past_cycle_wraps() {
        let (t, _, p) = fig2a();
        let c = t.find_by_label("C").unwrap();
        // Slot 13 of a 9-slot cycle is physically slot 4.
        let a = access(&p, &t, c, Slot(13)).unwrap();
        let b = access(&p, &t, c, Slot(4)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_index_node_target() {
        let (t, _, p) = fig2a();
        let idx = t.find_by_label("2").unwrap();
        assert_eq!(
            access(&p, &t, idx, Slot::FIRST).unwrap_err(),
            SimError::NotADataNode(idx)
        );
    }

    #[test]
    fn latency_distribution_is_consistent() {
        let (t, a, p) = fig2b();
        let d = latency_distribution(&p, &t, 20_000, 9).unwrap();
        assert_eq!(d.samples, 20_000);
        assert!(d.p50 <= d.p90 && d.p90 <= d.p99 && d.p99 <= d.max);
        // Mean access ≈ expected probe + expected data wait − 1 (the
        // simulator measures from tune-in; formula-1 counts the root slot).
        let expected = crate::cost::expected_probe_wait(a.cycle_len())
            + crate::cost::average_data_wait(&a, &t)
            - 1.0;
        assert!(
            (d.mean - expected).abs() < 0.1,
            "sampled mean {} vs analytic {expected}",
            d.mean
        );
        // Worst case bounded by cycle + deepest path.
        assert!(d.max as usize <= 2 * a.cycle_len() + t.depth() as usize);
    }

    #[test]
    fn latency_distribution_is_deterministic() {
        let (t, _, p) = fig2a();
        let a = latency_distribution(&p, &t, 500, 7).unwrap();
        let b = latency_distribution(&p, &t, 500, 7).unwrap();
        assert_eq!(a, b);
        let c = latency_distribution(&p, &t, 500, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn all_targets_reachable_in_both_layouts() {
        for (t, _, p) in [fig2a(), fig2b()] {
            for &d in t.data_nodes() {
                access(&p, &t, d, Slot::FIRST).unwrap();
            }
        }
    }
}
