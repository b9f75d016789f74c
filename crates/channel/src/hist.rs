//! A streaming fixed-bucket latency histogram.
//!
//! Broadcast access times are small bounded integers (probe wait ≤ cycle,
//! data wait < cycle), so a bucket width of one slot makes the histogram
//! *exact*: recording is a single counter increment — no per-request
//! allocation, no sample vector to sort — and every quantile query returns
//! the same value a sorted sample array would. Shards produced by parallel
//! serving merge by element-wise addition.

use bcast_types::{WordReader, WordWriter};

/// Exact integer-valued histogram with unit-width buckets `0..=bound`.
///
/// Values above the bound are clamped into the top bucket for counting
/// purposes (quantiles then saturate at `bound`), but [`max`](Self::max)
/// always reports the true maximum observed value. Fault-free serving
/// sizes the bound from its worst case (`2 × cycle_len`: probe ≤ cycle,
/// data wait < cycle) and never clamps. Lossy serving does clamp: its
/// bound is 8 cycles, and a recovery that waits longer counts in the top
/// bucket, so its quantiles saturate at 8 cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u32,
    max: u32,
}

/// A restore point for [`LatencyHistogram::rollback`]: the histogram's
/// exact moments when [`LatencyHistogram::mark`] was taken.
#[derive(Debug, Clone, Copy)]
pub struct HistMark {
    total: u64,
    sum: u64,
    min: u32,
    max: u32,
}

impl LatencyHistogram {
    /// Creates an empty histogram covering values `0..=bound`.
    pub fn with_bound(bound: u32) -> Self {
        LatencyHistogram {
            counts: vec![0; bound as usize + 1],
            total: 0,
            sum: 0,
            min: u32::MAX,
            max: 0,
        }
    }

    /// Largest value representable without clamping.
    #[inline]
    pub fn bound(&self) -> u32 {
        (self.counts.len() - 1) as u32
    }

    /// Empties the histogram and re-covers `0..=bound`, reusing the
    /// bucket vector's capacity — the serving session's per-batch reset
    /// (allocation-free once the buffer has grown to the largest bound
    /// seen). The result is indistinguishable from a fresh
    /// [`with_bound`](Self::with_bound).
    ///
    /// An empty histogram skips the zero fill: the counts always sum to
    /// the total, so every bucket is already zero and only buckets the
    /// new bound adds get written. A session whose histogram is never fed
    /// (its values go straight into another histogram) resets in O(1).
    pub fn reset(&mut self, bound: u32) {
        if self.total != 0 {
            self.counts.clear();
        }
        self.counts.truncate(bound as usize + 1);
        self.counts.resize(bound as usize + 1, 0);
        self.total = 0;
        self.sum = 0;
        self.min = u32::MAX;
        self.max = 0;
    }

    /// Records one observation. O(1), allocation-free.
    #[inline]
    pub fn record(&mut self, value: u32) {
        self.record_clamped(value, u32::MAX);
    }

    /// Records one observation into bucket `min(value, cap, bound)`,
    /// keeping the true value in the sum, min and max. With `cap` the
    /// bound of a histogram the value would otherwise pass through first,
    /// this lands exactly where recording there and then
    /// [`absorb`](Self::absorb)ing that histogram into this one would.
    #[inline]
    pub fn record_clamped(&mut self, value: u32, cap: u32) {
        let idx = (value.min(cap) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += u64::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a batch of observations in one call — the serving kernel's
    /// per-chunk flush. Bit-identical to calling [`record`](Self::record)
    /// on each value in order (every update is commutative integer
    /// arithmetic), but keeps the counts base pointer and min/max in
    /// registers across the whole batch.
    #[inline]
    pub fn record_batch(&mut self, values: &[u32]) {
        self.record_batch_clamped(values, u32::MAX);
    }

    /// [`record_batch`](Self::record_batch) with every bucket index
    /// clamped at `cap` as well as at the bound — the batch form of
    /// [`record_clamped`](Self::record_clamped).
    #[inline]
    pub fn record_batch_clamped(&mut self, values: &[u32], cap: u32) {
        let top = (cap as usize).min(self.counts.len() - 1);
        let mut min = self.min;
        let mut max = self.max;
        let mut sum = self.sum;
        for &value in values {
            self.counts[(value as usize).min(top)] += 1;
            sum += u64::from(value);
            min = min.min(value);
            max = max.max(value);
        }
        self.min = min;
        self.max = max;
        self.sum = sum;
        self.total += values.len() as u64;
    }

    /// Prefetches the bucket each of `values` will be counted in by
    /// [`record_batch_clamped`](Self::record_batch_clamped) with the same
    /// `cap` — the serve kernel's hint before a flush into a histogram
    /// too large to stay cached. Changes nothing.
    #[inline]
    pub(crate) fn prefetch_buckets(&self, values: &[u32], cap: u32) {
        let top = (cap as usize).min(self.counts.len() - 1);
        for &value in values {
            bcast_types::prefetch::prefetch(&self.counts, (value as usize).min(top));
        }
    }

    /// Folds another histogram (e.g. a per-thread shard) into this one.
    ///
    /// # Panics
    /// Panics if the bounds differ — shards of one batch always agree.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "cannot merge histograms with different bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Folds another histogram into this one, clamping values above this
    /// histogram's bound into the top bucket — the cross-window variant of
    /// [`merge`](Self::merge) for accumulators whose source bounds vary
    /// (a tenant's cycle length, hence its per-batch histogram bound,
    /// changes across rebuilds; its phase-level accumulator does not).
    /// The true sum/min/max are carried over exactly, so the mean never
    /// drifts; only above-bound quantiles saturate, as documented on the
    /// type.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        let top = self.counts.len() - 1;
        for (value, &c) in other.counts.iter().enumerate() {
            self.counts[value.min(top)] += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The restore point [`rollback`](Self::rollback) returns to.
    pub fn mark(&self) -> HistMark {
        HistMark {
            total: self.total,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }

    /// Takes back everything recorded since `mark`, given `recorded`: a
    /// histogram holding exactly those values (at any bound — its buckets
    /// are subtracted clamped as [`absorb`](Self::absorb) adds them).
    /// Afterwards `self` equals what it was at the mark. The cold path of
    /// a slice that fails after recording straight into its window.
    ///
    /// # Panics
    /// Panics, changing nothing, if `recorded` does not hold as many
    /// values as were recorded since the mark.
    pub fn rollback(&mut self, mark: HistMark, recorded: &LatencyHistogram) {
        assert_eq!(
            self.total.checked_sub(recorded.total),
            Some(mark.total),
            "rollback must take back exactly what was recorded since the mark"
        );
        let top = self.counts.len() - 1;
        for (value, &c) in recorded.counts.iter().enumerate() {
            self.counts[value.min(top)] -= c;
        }
        self.total = mark.total;
        self.sum = mark.sum;
        self.min = mark.min;
        self.max = mark.max;
    }

    /// Number of recorded observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations (true values, not clamped) — lets callers
    /// combine histograms with externally tracked totals (e.g. delivered
    /// vs failed request accounting) without floating-point drift.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True if nothing has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of all observations (true values, not clamped).
    ///
    /// # Panics
    /// Panics on an empty histogram.
    pub fn mean(&self) -> f64 {
        assert!(self.total > 0, "mean of an empty histogram");
        self.sum as f64 / self.total as f64
    }

    /// The value at sorted rank `⌊count · p⌋` (capped at the last rank) —
    /// exactly what indexing a sorted sample array at that position would
    /// return, so quantiles are exact, not interpolated.
    ///
    /// # Panics
    /// Panics on an empty histogram or `p` outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> u32 {
        assert!(self.total > 0, "percentile of an empty histogram");
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
        let rank = ((self.total as f64 * p) as u64).min(self.total - 1);
        let mut seen = 0u64;
        for (value, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return value as u32;
            }
        }
        unreachable!("total matches sum of counts")
    }

    /// Smallest observed value.
    ///
    /// # Panics
    /// Panics on an empty histogram.
    pub fn min(&self) -> u32 {
        assert!(self.total > 0, "min of an empty histogram");
        self.min
    }

    /// Largest observed value (never clamped).
    ///
    /// # Panics
    /// Panics on an empty histogram.
    pub fn max(&self) -> u32 {
        assert!(self.total > 0, "max of an empty histogram");
        self.max
    }

    /// Writes the histogram's complete state (bucket counts and exact
    /// moments) for a checkpoint. Inverse of
    /// [`import_state`](Self::import_state).
    ///
    /// Occupied buckets are written sparsely as ascending
    /// `(index, count)` pairs of three words: a serving-latency histogram
    /// is bounded by the broadcast cycle length but populated only around
    /// the cycle positions traffic actually hits, so the dense bucket
    /// array would be megabytes of zeros per tenant at snapshot scale.
    pub fn export_state(&self, w: &mut WordWriter) {
        w.u64(self.counts.len() as u64);
        w.u64(self.total);
        w.u64(self.sum);
        w.u32(self.min);
        w.u32(self.max);
        let occupied = self.counts.iter().filter(|&&c| c != 0).count();
        w.u64(occupied as u64);
        for (i, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c != 0) {
            // The bound is a `u32`, so every bucket index fits one word.
            w.u32(i as u32);
            w.u64(c);
        }
    }

    /// Rebuilds a histogram from the state
    /// [`export_state`](Self::export_state) wrote. The state is sparse,
    /// so its length does not bound the dense bucket array: the caller
    /// supplies `max_buckets` from state it has already validated, and a
    /// larger count is refused before anything is allocated. Fails
    /// closed: a truncated stream, a bucket count above `max_buckets`,
    /// out-of-order or out-of-range bucket indices, or counts that do not
    /// sum to `total` yield `None`.
    pub fn import_state(r: &mut WordReader<'_>, max_buckets: usize) -> Option<Self> {
        let buckets = r.count(max_buckets)?;
        let (total, sum, min, max) = (r.u64()?, r.u64()?, r.u32()?, r.u32()?);
        let occupied = r.count(buckets)?;
        let pairs = r.take(occupied.checked_mul(3)?)?;
        if buckets == 0 {
            return None;
        }
        let mut counts = vec![0u64; buckets];
        let mut prev: Option<usize> = None;
        let mut total_check = 0u64;
        for pair in pairs.chunks_exact(3) {
            let i = pair[0] as usize;
            let c = u64::from(pair[1]) | (u64::from(pair[2]) << 32);
            if i >= buckets || prev.is_some_and(|p| p >= i) || c == 0 {
                return None;
            }
            prev = Some(i);
            counts[i] = c;
            total_check = total_check.checked_add(c)?;
        }
        if total_check != total {
            return None;
        }
        Some(LatencyHistogram {
            counts,
            total,
            sum,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sorted_array_semantics() {
        let samples: Vec<u32> = vec![9, 1, 4, 4, 7, 2, 2, 2, 30, 5];
        let mut h = LatencyHistogram::with_bound(64);
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((sorted.len() as f64 * p) as usize).min(sorted.len() - 1);
            assert_eq!(h.percentile(p), sorted[rank], "p = {p}");
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 30);
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), samples.iter().map(|&s| u64::from(s)).sum::<u64>());
        let mean: f64 = samples.iter().map(|&s| f64::from(s)).sum::<f64>() / 10.0;
        assert!((h.mean() - mean).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut all = LatencyHistogram::with_bound(20);
        let mut a = LatencyHistogram::with_bound(20);
        let mut b = LatencyHistogram::with_bound(20);
        for v in 0..=20u32 {
            all.record(v);
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn record_batch_equals_repeated_record() {
        let values: Vec<u32> = (0..257u32).map(|i| (i * 37) % 90).collect();
        let mut one = LatencyHistogram::with_bound(64);
        let mut batch = LatencyHistogram::with_bound(64);
        for &v in &values {
            one.record(v);
        }
        // Mixed chunk sizes, including empty and clamping values.
        batch.record_batch(&values[..0]);
        batch.record_batch(&values[..1]);
        batch.record_batch(&values[1..64]);
        batch.record_batch(&values[64..]);
        assert_eq!(one, batch);
    }

    #[test]
    fn clamps_counts_but_reports_true_max() {
        let mut h = LatencyHistogram::with_bound(4);
        h.record(100);
        h.record(1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.percentile(1.0), 4); // clamped into the top bucket
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn absorb_accepts_mismatched_bounds() {
        // Same-bound absorb is exactly merge.
        let mut a = LatencyHistogram::with_bound(20);
        let mut b = LatencyHistogram::with_bound(20);
        let mut m = LatencyHistogram::with_bound(20);
        for v in [1u32, 5, 19] {
            a.record(v);
            m.record(v);
        }
        for v in [0u32, 20] {
            b.record(v);
            m.record(v);
        }
        a.absorb(&b);
        assert_eq!(a, m);
        // Wider source clamps into the top bucket but keeps exact moments.
        let mut narrow = LatencyHistogram::with_bound(4);
        let mut wide = LatencyHistogram::with_bound(100);
        wide.record(2);
        wide.record(90);
        narrow.absorb(&wide);
        assert_eq!(narrow.count(), 2);
        assert_eq!(narrow.sum(), 92);
        assert_eq!(narrow.max(), 90);
        assert_eq!(narrow.percentile(1.0), 4);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn empty_percentile_panics() {
        let _ = LatencyHistogram::with_bound(4).percentile(0.5);
    }

    #[test]
    fn reset_equals_a_fresh_histogram() {
        let mut reused = LatencyHistogram::with_bound(100);
        for v in [3u32, 90, 7] {
            reused.record(v);
        }
        for bound in [4u32, 100, 250] {
            reused.reset(bound);
            assert_eq!(reused, LatencyHistogram::with_bound(bound));
            reused.record(2);
            reused.record(bound + 5);
        }
        // An emptied histogram skips the zero fill: resetting it to a
        // larger and then a smaller bound must still give a fresh one,
        // whether a reset or a rollback emptied it.
        reused.reset(60);
        for bound in [300u32, 10, 60] {
            reused.reset(bound);
            assert_eq!(reused, LatencyHistogram::with_bound(bound));
        }
        let mark = reused.mark();
        let mut recorded = LatencyHistogram::with_bound(80);
        for v in [0u32, 59, 75] {
            reused.record(v);
            recorded.record(v);
        }
        reused.rollback(mark, &recorded);
        assert_eq!(reused, LatencyHistogram::with_bound(60));
        for bound in [500u32, 3] {
            reused.reset(bound);
            assert_eq!(reused, LatencyHistogram::with_bound(bound));
        }
    }

    #[test]
    fn clamped_recording_equals_record_then_absorb() {
        // A session of bound 8 folded into a wider window (12) and into a
        // narrower one (5): recording each value straight into the window
        // with cap 8 must give the same histogram, batched or one by one.
        let values: Vec<u32> = (0..200u32).map(|i| (i * 7) % 30).collect();
        for window_bound in [12u32, 5] {
            let mut session = LatencyHistogram::with_bound(8);
            session.record_batch(&values);
            let mut via_absorb = LatencyHistogram::with_bound(window_bound);
            via_absorb.absorb(&session);
            let mut batched = LatencyHistogram::with_bound(window_bound);
            batched.record_batch_clamped(&values[..100], 8);
            batched.record_batch_clamped(&values[100..], 8);
            let mut single = LatencyHistogram::with_bound(window_bound);
            for &v in &values {
                single.record_clamped(v, 8);
            }
            assert_eq!(batched, via_absorb, "window bound {window_bound}");
            assert_eq!(single, via_absorb, "window bound {window_bound}");
        }
    }

    #[test]
    fn rollback_returns_to_the_mark() {
        let mut window = LatencyHistogram::with_bound(12);
        for v in [1u32, 4, 11] {
            window.record(v);
        }
        let before = window.clone();
        let mark = window.mark();
        // Values recorded clamped at a session bound of 8, some past the
        // window's own bound, replayed into a histogram of that bound.
        let mut replay = LatencyHistogram::with_bound(8);
        for v in [0u32, 9, 30, 3] {
            window.record_clamped(v, 8);
            replay.record(v);
        }
        assert_ne!(window, before);
        window.rollback(mark, &replay);
        assert_eq!(window, before);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn mismatched_merge_panics() {
        let mut a = LatencyHistogram::with_bound(4);
        a.merge(&LatencyHistogram::with_bound(5));
    }

    #[test]
    fn state_roundtrip_is_exact_and_fails_closed_on_truncation() {
        let mut h = LatencyHistogram::with_bound(32);
        for v in [0u32, 3, 3, 31, 200, 7] {
            h.record(v);
        }
        let mut w = WordWriter::new();
        h.export_state(&mut w);
        let words = w.into_words();
        let mut r = WordReader::new(&words);
        let back = LatencyHistogram::import_state(&mut r, 33).expect("valid stream");
        assert!(r.is_empty());
        assert_eq!(back, h);
        for cut in 0..words.len() {
            assert!(
                LatencyHistogram::import_state(&mut WordReader::new(&words[..cut]), 33).is_none(),
                "cut {cut}"
            );
        }
        // A tampered total (words 2 and 3) is rejected, not adopted.
        let mut bad = words.clone();
        bad[2] += 1;
        assert!(LatencyHistogram::import_state(&mut WordReader::new(&bad), 33).is_none());
        // So is a bucket count above the caller's maximum.
        assert!(LatencyHistogram::import_state(&mut WordReader::new(&words), 32).is_none());
    }

    #[test]
    fn oversized_bucket_counts_fail_closed_before_allocating() {
        // An empty histogram's header claiming 2^40 buckets (an 8 TiB
        // array) or u64::MAX buckets must be refused, not allocated.
        for buckets in [1u64 << 40, u64::MAX] {
            let mut w = WordWriter::new();
            for x in [buckets, 0, 0, 0, 0] {
                w.u64(x);
            }
            assert!(
                LatencyHistogram::import_state(&mut WordReader::new(w.words()), 1 << 20).is_none(),
                "{buckets} buckets"
            );
        }
    }
}
