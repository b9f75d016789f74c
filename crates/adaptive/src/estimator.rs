//! Access-frequency estimation from the request stream.
//!
//! The broadcast server cannot see true popularity; it sees requests (in
//! the paper's hybrid setting, the on-demand up-link misses used to
//! "re-estimate its access frequency" \[DCK97, SRB97\]). The standard
//! streaming estimator is an exponential moving average over per-epoch
//! request counts: cheap, O(items) memory, and tunably reactive via the
//! decay factor `alpha`.

use bcast_types::prefetch::prefetch;
use bcast_types::{Weight, WordReader, WordWriter};

/// The least weight an item is published at: an item never requested
/// keeps a small positive weight, so it stays broadcastable and
/// tie-breakable.
const FLOOR: f64 = 1e-6;

/// Exponential-moving-average frequency estimator.
///
/// Counts requests within an *epoch* (one broadcast cycle, typically); at
/// each [`EmaEstimator::roll_epoch`] the running estimate becomes
/// `alpha · count + (1 - alpha) · previous`. Higher `alpha` reacts faster
/// but is noisier.
///
/// ```
/// use bcast_adaptive::EmaEstimator;
///
/// let mut est = EmaEstimator::new(2, 0.5);
/// est.observe(0);
/// est.observe(0);
/// est.roll_epoch();
/// assert_eq!(est.estimate(0), 1.0); // 0.5 · 2 + 0.5 · 0
/// assert_eq!(est.estimate(1), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EmaEstimator {
    alpha: f64,
    /// Per-epoch request counts. `u32` deliberately: an epoch is one
    /// serving slice (tens of thousands of requests), so 32 bits never
    /// saturate, and the half-size array keeps the per-request increment
    /// inside a smaller cache footprint on the serving hot path.
    counts: Vec<u32>,
    estimate: Vec<f64>,
    epochs: u64,
    /// The published snapshot: each item's floored weight as of the last
    /// [`EmaEstimator::drain_changed`] that published it. It starts at
    /// the floor for every item, the weights a boot tree is built from.
    published: Vec<Weight>,
    /// Whether a drain has published the estimates yet. Until one has,
    /// every roll marks every item dirty and drift is infinite, whatever
    /// `published` holds.
    published_yet: bool,
    /// Items whose floored weight bits moved vs `published`, deduplicated.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
}

impl EmaEstimator {
    /// Creates an estimator over `items` item ids with decay `alpha ∈
    /// (0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is out of `(0, 1]` or `items == 0`.
    pub fn new(items: usize, alpha: f64) -> Self {
        assert!(items > 0, "need at least one item");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EmaEstimator {
            alpha,
            counts: vec![0; items],
            estimate: vec![0.0; items],
            epochs: 0,
            published: vec![Weight::new(FLOOR).expect("the floor is a weight"); items],
            published_yet: false,
            dirty: Vec::new(),
            dirty_flag: vec![false; items],
        }
    }

    /// Number of tracked items.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if no items are tracked (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Records one request for `item`. `#[inline]` because the serving
    /// loop calls this once per request from another crate, and the
    /// workspace builds without LTO — without the hint the counter bump
    /// would be an outlined cross-crate call on the hottest path.
    ///
    /// # Panics
    /// Panics on an out-of-range item id.
    #[inline]
    pub fn observe(&mut self, item: usize) {
        self.counts[item] += 1;
    }

    /// Records one request for each of `items`: the same counts as a
    /// loop of [`observe`](Self::observe) calls. For catalogs whose counts
    /// outgrow the cache, it prefetches every count of the chunk first
    /// and increments them after, so the chunk's misses are in flight
    /// together.
    ///
    /// # Panics
    /// Panics on an out-of-range item id.
    #[inline]
    pub fn observe_chunk(&mut self, items: &[u32]) {
        for &item in items {
            prefetch(&self.counts, item as usize);
        }
        for &item in items {
            self.counts[item as usize] += 1;
        }
    }

    /// Ends the current epoch, folding its counts into the estimate and
    /// marking every item whose *floored published weight* bits moved —
    /// the epoch roll already walks all items, so dirty tracking rides
    /// along for free and [`drain_changed`](EmaEstimator::drain_changed)
    /// stays O(changed).
    ///
    /// One pass over the catalog, so at a million items this is the
    /// largest per-slice cost after serving itself. The loop is written to
    /// stream as little memory as it can: every column is re-sliced to
    /// one length up front (no bounds checks inside), and the dirty flag
    /// is read *before* the published weight — an item already marked
    /// dirty reads item 0's published weight (one word that stays in
    /// cache) instead of its own, so it streams only its estimate and
    /// count, and the index select leaves no branch on the flag to
    /// mispredict where dirty and clean items interleave. The float ops
    /// and their order are the original ones, so estimates, dirty marks
    /// and their order are bit-identical (a twin proptest pins this
    /// against the original loop). Before the first publish every item
    /// counts as moved.
    pub fn roll_epoch(&mut self) {
        let n = self.counts.len();
        let (alpha, keep) = (self.alpha, 1.0 - self.alpha);
        let unpublished = !self.published_yet;
        let counts = &mut self.counts[..n];
        let estimate = &mut self.estimate[..n];
        let published = &self.published[..n];
        let dirty_flag = &mut self.dirty_flag[..n];
        for i in 0..n {
            let est = alpha * (counts[i] as f64) + keep * estimate[i];
            estimate[i] = est;
            counts[i] = 0;
            let dirty = dirty_flag[i];
            let seen = published[if dirty { 0 } else { i }].get();
            if !dirty & (unpublished | (est.max(FLOOR).to_bits() != seen.to_bits())) {
                dirty_flag[i] = true;
                self.dirty.push(i as u32);
            }
        }
        self.epochs += 1;
    }

    /// The original [`roll_epoch`](EmaEstimator::roll_epoch) loop, kept
    /// as the oracle the fast loop is pinned against.
    #[cfg(test)]
    fn roll_epoch_oracle(&mut self) {
        for (i, (est, cnt)) in self.estimate.iter_mut().zip(&mut self.counts).enumerate() {
            *est = self.alpha * (*cnt as f64) + (1.0 - self.alpha) * *est;
            *cnt = 0;
            let floored = est.max(1e-6);
            let moved =
                !self.published_yet || floored.to_bits() != self.published[i].get().to_bits();
            if moved && !self.dirty_flag[i] {
                self.dirty_flag[i] = true;
                self.dirty.push(i as u32);
            }
        }
        self.epochs += 1;
    }

    /// Items whose floored weight changed since the last
    /// [`drain_changed`](EmaEstimator::drain_changed), ascending.
    pub fn changed(&self) -> &[u32] {
        &self.dirty
    }

    /// Drains the changed set into `out` as `(item, new weight)` pairs
    /// (ascending by item, appended) and advances the published snapshot —
    /// O(changed), so a rebuild reads the whole snapshot from
    /// [`published`](EmaEstimator::published) without copying it. Weights
    /// match [`weights`](EmaEstimator::weights) exactly: the same
    /// `max(1e-6)` floor, bit for bit.
    pub fn drain_changed(&mut self, out: &mut Vec<(u32, Weight)>) {
        self.dirty.sort_unstable();
        self.publish_dirty(|i, w| out.push((i, w)));
    }

    /// [`drain_changed`](EmaEstimator::drain_changed) without its list:
    /// advances the published snapshot over the changed set and clears
    /// it, for a rebuild that reads the whole snapshot from
    /// [`published`](EmaEstimator::published) and never the changes.
    /// O(changed) and allocation-free; the set is not sorted, since only
    /// the list's order depends on it.
    pub fn publish_changed(&mut self) {
        self.publish_dirty(|_, _| {});
    }

    /// Publishes every dirty item's floored estimate, handing each
    /// `(item, weight)` to `emit` in the changed set's order, and clears
    /// the set.
    fn publish_dirty(&mut self, mut emit: impl FnMut(u32, Weight)) {
        // Until the first publish a roll marks every item dirty, so the
        // first drain with anything to publish publishes every item.
        self.published_yet |= !self.dirty.is_empty();
        for &i in &self.dirty {
            let w = Weight::new(self.estimate[i as usize].max(FLOOR))
                .expect("EMA of counts is finite, non-negative");
            self.published[i as usize] = w;
            self.dirty_flag[i as usize] = false;
            emit(i, w);
        }
        self.dirty.clear();
    }

    /// The published snapshot: each item's weight as of the
    /// [`drain_changed`](EmaEstimator::drain_changed) that last published
    /// it, and the floor weight `1e-6` before any drain has — the weights
    /// a boot tree is built from.
    pub fn published(&self) -> &[Weight] {
        &self.published
    }

    /// Relative L1 drift of the current floored estimates against the
    /// published snapshot: `Σ|wᵢ − pᵢ| / Σ pᵢ`, or `f64::INFINITY` before
    /// the first [`drain_changed`](EmaEstimator::drain_changed) (nothing
    /// is published yet, so everything has drifted).
    ///
    /// This is the republish gate's input: a stationary stream's EMA
    /// fluctuates by sampling noise only (drift well under ~0.2 for
    /// realistic rates), while a genuine popularity shift moves the mass
    /// itself — so "republish only when drift exceeds a floor" skips the
    /// no-op rebuilds without ever missing a real change. O(items), no
    /// allocation, deterministic.
    pub fn drift_since_publish(&self) -> f64 {
        if !self.published_yet {
            return f64::INFINITY;
        }
        let mut moved = 0.0f64;
        let mut base = 0.0f64;
        for (est, pub_w) in self.estimate.iter().zip(&self.published) {
            moved += (est.max(FLOOR) - pub_w.get()).abs();
            base += pub_w.get();
        }
        if base > 0.0 {
            moved / base
        } else {
            f64::INFINITY
        }
    }

    /// Epochs rolled so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Current estimates as allocation weights. A small floor keeps items
    /// that were never requested from collapsing to zero weight (they must
    /// remain broadcastable and tie-breakable).
    pub fn weights(&self) -> Vec<Weight> {
        self.estimate
            .iter()
            .map(|&e| Weight::new(e.max(FLOOR)).expect("EMA of counts is finite, non-negative"))
            .collect()
    }

    /// Raw estimate for one item.
    pub fn estimate(&self, item: usize) -> f64 {
        self.estimate[item]
    }

    /// Writes the estimator's complete state for a checkpoint — float
    /// bit patterns, never rounded values, so a restored estimator
    /// continues the exact trajectory of the original. The item count is
    /// the caller's to carry; the inverse is
    /// [`import_state`](EmaEstimator::import_state).
    /// Mid-epoch counts are written sparsely as ascending `(item, count)`
    /// word pairs: a checkpoint is taken at an epoch boundary, where
    /// [`roll_epoch`](EmaEstimator::roll_epoch) has just zeroed them.
    pub fn export_state(&self, w: &mut WordWriter) {
        w.f64(self.alpha);
        w.u64(self.epochs);
        let occupied = self.counts.iter().filter(|&&c| c != 0).count();
        w.u64(occupied as u64);
        for (i, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c != 0) {
            w.u32(i as u32);
            w.u32(c);
        }
        w.u64_run(&self.estimate, f64::to_bits);
        w.u32(u32::from(self.published_yet));
        w.u64_run(&self.published, |p| p.get().to_bits());
        w.u32_slice(&self.dirty);
    }

    /// Rebuilds an estimator over `items` items from the state
    /// [`export_state`](EmaEstimator::export_state) wrote. `items` bounds
    /// every run before it is allocated, so it must come from state the
    /// caller has already validated. Fails closed: a truncated or
    /// structurally invalid stream yields `None`, never a half-restored
    /// estimator. So does an estimate that is not finite or is below
    /// zero, which no export writes: the next
    /// [`drain_changed`](EmaEstimator::drain_changed) could not turn it
    /// into a [`Weight`].
    pub fn import_state(r: &mut WordReader<'_>, items: usize) -> Option<EmaEstimator> {
        let alpha = r.f64()?;
        let epochs = r.u64()?;
        if !(alpha > 0.0 && alpha <= 1.0) || items == 0 {
            return None;
        }
        let occupied = r.count(items)?;
        let pairs = r.take(occupied.checked_mul(2)?)?;
        let mut counts = vec![0u32; items];
        let mut prev: Option<usize> = None;
        for pair in pairs.chunks_exact(2) {
            let (i, c) = (pair[0] as usize, pair[1]);
            if i >= items || prev.is_some_and(|p| p >= i) || c == 0 {
                return None;
            }
            prev = Some(i);
            counts[i] = c;
        }
        let estimate = r.u64_run(items, |b| {
            let e = f64::from_bits(b);
            (e.is_finite() && e >= 0.0).then_some(e)
        })?;
        let published_yet = match r.u32()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let published = r.u64_run(items, |b| Weight::new(f64::from_bits(b)).ok())?;
        if estimate.len() != items || published.len() != items {
            return None;
        }
        let dirty = r.u32_slice()?;
        let mut dirty_flag = vec![false; items];
        for &d in dirty {
            let flag = dirty_flag.get_mut(d as usize)?;
            if *flag {
                return None; // duplicate dirty entry
            }
            *flag = true;
        }
        Some(EmaEstimator {
            alpha,
            counts,
            estimate,
            epochs,
            published,
            published_yet,
            dirty: dirty.to_vec(),
            dirty_flag,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn converges_to_stationary_rates() {
        let mut e = EmaEstimator::new(3, 0.3);
        for _ in 0..200 {
            for _ in 0..30 {
                e.observe(0);
            }
            for _ in 0..10 {
                e.observe(1);
            }
            e.roll_epoch();
        }
        assert!((e.estimate(0) - 30.0).abs() < 1e-6);
        assert!((e.estimate(1) - 10.0).abs() < 1e-6);
        assert!(e.estimate(2) < 1e-6);
        assert_eq!(e.epochs(), 200);
        // Weight floor keeps unseen items alive.
        assert!(e.weights()[2].get() > 0.0);
    }

    #[test]
    fn tracks_a_shift_within_a_few_epochs() {
        let mut e = EmaEstimator::new(2, 0.5);
        for _ in 0..20 {
            for _ in 0..10 {
                e.observe(0);
            }
            e.roll_epoch();
        }
        // Popularity flips to item 1.
        for _ in 0..6 {
            for _ in 0..10 {
                e.observe(1);
            }
            e.roll_epoch();
        }
        assert!(
            e.estimate(1) > e.estimate(0),
            "estimator should have crossed over: {} vs {}",
            e.estimate(1),
            e.estimate(0)
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_bad_alpha() {
        let _ = EmaEstimator::new(1, 0.0);
    }

    #[test]
    fn changed_set_tracks_exactly_the_moved_weights() {
        let mut e = EmaEstimator::new(4, 0.5);
        let mut out = Vec::new();
        // First drain: everything is dirty (nothing published yet), and
        // the drained weights equal the full vector bit for bit.
        e.roll_epoch();
        e.drain_changed(&mut out);
        assert_eq!(out.len(), 4);
        for (i, &(item, w)) in out.iter().enumerate() {
            assert_eq!(item as usize, i);
            assert_eq!(w.get().to_bits(), e.weights()[i].get().to_bits());
        }
        // A quiet epoch over all-zero estimates moves nothing.
        out.clear();
        e.roll_epoch();
        e.drain_changed(&mut out);
        assert!(out.is_empty(), "no weight moved, but {out:?} drained");
        // Requests against item 2 dirty exactly item 2.
        e.observe(2);
        e.observe(2);
        e.roll_epoch();
        assert_eq!(e.changed(), &[2]);
        e.drain_changed(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
        assert_eq!(out[0].1.get().to_bits(), e.weights()[2].get().to_bits());
        // Dirty marks deduplicate across epochs until drained.
        out.clear();
        e.observe(1);
        e.roll_epoch();
        e.observe(1);
        e.roll_epoch();
        assert_eq!(e.changed(), &[1, 2], "decay keeps item 2 moving");
        e.drain_changed(&mut out);
        assert_eq!(out.iter().map(|c| c.0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn drift_tracks_mass_movement_not_noise() {
        let mut e = EmaEstimator::new(2, 0.5);
        // Nothing published yet: everything counts as drifted.
        assert_eq!(e.drift_since_publish(), f64::INFINITY);
        let mut out = Vec::new();
        for _ in 0..30 {
            for _ in 0..10 {
                e.observe(0);
            }
            e.roll_epoch();
        }
        e.drain_changed(&mut out);
        // Converged stationary stream: estimates barely move after the
        // publish, so drift stays near zero.
        for _ in 0..3 {
            for _ in 0..10 {
                e.observe(0);
            }
            e.roll_epoch();
        }
        assert!(
            e.drift_since_publish() < 0.01,
            "{}",
            e.drift_since_publish()
        );
        // Popularity flip: the mass itself moves, drift jumps.
        for _ in 0..3 {
            for _ in 0..10 {
                e.observe(1);
            }
            e.roll_epoch();
        }
        assert!(e.drift_since_publish() > 0.5, "{}", e.drift_since_publish());
    }

    #[test]
    fn exported_state_restores_the_exact_trajectory() {
        let mut e = EmaEstimator::new(5, 0.4);
        let mut out = Vec::new();
        for epoch in 0..13usize {
            for r in 0..(epoch % 4) + 1 {
                e.observe(r);
            }
            e.roll_epoch();
            if epoch == 6 {
                e.drain_changed(&mut out);
            }
        }
        // Mid-epoch counts survive too.
        e.observe(3);
        let mut w = WordWriter::new();
        e.export_state(&mut w);
        let words = w.into_words();
        let mut r = WordReader::new(&words);
        let mut back = EmaEstimator::import_state(&mut r, 5).expect("valid stream");
        assert!(r.is_empty(), "import must consume exactly its words");
        // Same continuation: identical epochs, weights, drift and
        // changed-set behaviour after more traffic on both copies.
        assert_eq!(back.epochs(), e.epochs());
        assert_eq!(back.published(), e.published());
        assert_eq!(
            back.drift_since_publish().to_bits(),
            e.drift_since_publish().to_bits()
        );
        for _ in 0..3 {
            e.observe(1);
            back.observe(1);
            e.roll_epoch();
            back.roll_epoch();
        }
        assert_eq!(back.changed(), e.changed());
        let (ws_a, ws_b) = (e.weights(), back.weights());
        for (a, b) in ws_a.iter().zip(&ws_b) {
            assert_eq!(a.get().to_bits(), b.get().to_bits());
        }
        // Truncations fail closed at every cut.
        for cut in 0..words.len() {
            assert!(
                EmaEstimator::import_state(&mut WordReader::new(&words[..cut]), 5).is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn a_huge_item_count_fails_closed_before_allocating() {
        // The caller's item count bounds every run: an estimate run
        // claiming 2^40 values over an empty body is refused from its
        // length, not by an allocation the input cannot back.
        let mut w = WordWriter::new();
        w.f64(0.5);
        w.u64(0);
        w.u64(0);
        w.u64(1 << 40);
        assert!(EmaEstimator::import_state(&mut WordReader::new(w.words()), 5).is_none());
        // A 5-item estimator neither restores as 4 items (its runs are
        // longer than that bound) nor as 6 (its runs are shorter).
        let mut e = EmaEstimator::new(5, 0.5);
        e.observe(2);
        let mut w = WordWriter::new();
        e.export_state(&mut w);
        for items in [4, 6] {
            assert!(EmaEstimator::import_state(&mut WordReader::new(w.words()), items).is_none());
        }
        assert!(EmaEstimator::import_state(&mut WordReader::new(w.words()), 5).is_some());
    }

    #[test]
    fn a_non_finite_or_negative_estimate_fails_closed() {
        let mut e = EmaEstimator::new(3, 0.5);
        e.observe(1);
        e.roll_epoch();
        let restore = |e: &EmaEstimator| {
            let mut w = WordWriter::new();
            e.export_state(&mut w);
            EmaEstimator::import_state(&mut WordReader::new(w.words()), 3)
        };
        assert!(restore(&e).is_some());
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1.0] {
            for item in 0..3 {
                let mut tampered = e.clone();
                tampered.estimate[item] = bad;
                assert!(
                    restore(&tampered).is_none(),
                    "estimate {bad} of item {item}"
                );
            }
        }
    }

    /// The estimator as it was before its published snapshot became
    /// `Weight`s with a published-yet flag: `f64`s that start NaN, so a
    /// roll marks every unpublished item dirty and drift is infinite
    /// until a drain overwrites them. The oracle the flag is pinned
    /// against.
    struct NanSentinel {
        alpha: f64,
        counts: Vec<u32>,
        estimate: Vec<f64>,
        published: Vec<f64>,
        dirty: Vec<u32>,
        dirty_flag: Vec<bool>,
    }

    impl NanSentinel {
        fn new(items: usize, alpha: f64) -> Self {
            NanSentinel {
                alpha,
                counts: vec![0; items],
                estimate: vec![0.0; items],
                published: vec![f64::NAN; items],
                dirty: Vec::new(),
                dirty_flag: vec![false; items],
            }
        }

        fn roll_epoch(&mut self) {
            for (i, (est, cnt)) in self.estimate.iter_mut().zip(&mut self.counts).enumerate() {
                *est = self.alpha * (*cnt as f64) + (1.0 - self.alpha) * *est;
                *cnt = 0;
                let floored = est.max(1e-6);
                if floored.to_bits() != self.published[i].to_bits() && !self.dirty_flag[i] {
                    self.dirty_flag[i] = true;
                    self.dirty.push(i as u32);
                }
            }
        }

        fn drain_changed(&mut self, out: &mut Vec<(u32, f64)>) {
            self.dirty.sort_unstable();
            for &i in &self.dirty {
                let w = self.estimate[i as usize].max(1e-6);
                self.published[i as usize] = w;
                self.dirty_flag[i as usize] = false;
                out.push((i, w));
            }
            self.dirty.clear();
        }

        fn drift_since_publish(&self) -> f64 {
            let mut moved = 0.0f64;
            let mut base = 0.0f64;
            for (est, pub_w) in self.estimate.iter().zip(&self.published) {
                if pub_w.is_nan() {
                    return f64::INFINITY;
                }
                moved += (est.max(1e-6) - pub_w).abs();
                base += pub_w;
            }
            if base > 0.0 {
                moved / base
            } else {
                f64::INFINITY
            }
        }
    }

    proptest! {
        /// The chunked count against a loop of `observe`: the same counts,
        /// hence the same estimates after a roll.
        #[test]
        fn observe_chunk_matches_an_observe_loop(
            items in 1usize..300,
            draws in prop::collection::vec(any::<u32>(), 0..700),
            split in any::<usize>(),
        ) {
            let draws: Vec<u32> = draws.into_iter().map(|d| d % items as u32).collect();
            let mut chunked = EmaEstimator::new(items, 0.5);
            let mut single = EmaEstimator::new(items, 0.5);
            let cut = split % (draws.len() + 1);
            chunked.observe_chunk(&draws[..cut]);
            chunked.observe_chunk(&draws[cut..]);
            for &d in &draws {
                single.observe(d as usize);
            }
            prop_assert_eq!(&chunked.counts, &single.counts);
        }

        #[test]
        fn estimates_bounded_by_max_epoch_count(
            reqs in prop::collection::vec(0usize..4, 0..200),
            alpha in 0.05f64..1.0,
        ) {
            let mut e = EmaEstimator::new(4, alpha);
            let mut max_per_epoch = 0u64;
            for chunk in reqs.chunks(20) {
                for &r in chunk {
                    e.observe(r);
                }
                max_per_epoch = max_per_epoch.max(chunk.len() as u64);
                e.roll_epoch();
            }
            for i in 0..4 {
                prop_assert!(e.estimate(i) <= max_per_epoch as f64 + 1e-9);
                prop_assert!(e.estimate(i) >= 0.0);
            }
        }

        /// The fast roll against the original loop. Random per-epoch
        /// counts, drains at random epochs (rolls before the first one run
        /// against the not-yet-published snapshot), and a quiet
        /// tail long enough that every requested item decays across the
        /// `1e-6` floor. After every roll the two must agree bit for bit.
        #[test]
        fn roll_matches_the_original_loop_bit_for_bit(
            items in 1usize..10,
            alpha in 0.3f64..1.0,
            draws in prop::collection::vec(0u32..24, 1..400),
            drain_mask in any::<u64>(),
        ) {
            let mut fast = EmaEstimator::new(items, alpha);
            let mut oracle = EmaEstimator::new(items, alpha);
            let (mut out_fast, mut out_oracle) = (Vec::new(), Vec::new());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut crossed = false;
            for epoch in 0..draws.len().div_ceil(items) + 60 {
                for item in 0..items {
                    // Three in four draws request nothing; past the drawn
                    // epochs every item is quiet.
                    let d = draws.get(epoch * items + item).copied().unwrap_or(0);
                    for _ in 0..d.saturating_sub(17) {
                        fast.observe(item);
                        oracle.observe(item);
                    }
                }
                let above: Vec<bool> = (0..items).map(|i| oracle.estimate(i) >= 1e-6).collect();
                fast.roll_epoch();
                oracle.roll_epoch_oracle();
                crossed |= (0..items).any(|i| above[i] && oracle.estimate(i) < 1e-6);
                prop_assert_eq!(bits(&fast.estimate), bits(&oracle.estimate));
                prop_assert_eq!(fast.published(), oracle.published());
                prop_assert_eq!(fast.published_yet, oracle.published_yet);
                prop_assert_eq!(fast.changed(), oracle.changed());
                prop_assert_eq!(&fast.dirty_flag, &oracle.dirty_flag);
                prop_assert_eq!(&fast.counts, &oracle.counts);
                prop_assert_eq!(fast.epochs(), oracle.epochs());
                prop_assert_eq!(
                    fast.drift_since_publish().to_bits(),
                    oracle.drift_since_publish().to_bits()
                );
                if drain_mask >> (epoch % 64) & 1 == 1 {
                    fast.drain_changed(&mut out_fast);
                    oracle.drain_changed(&mut out_oracle);
                    prop_assert_eq!(out_fast.len(), out_oracle.len());
                    for (a, b) in out_fast.iter().zip(&out_oracle) {
                        prop_assert_eq!(a.0, b.0);
                        prop_assert_eq!(a.1.get().to_bits(), b.1.get().to_bits());
                    }
                }
            }
            prop_assert!(crossed || draws.iter().all(|&d| d <= 17), "no item crossed the floor");
        }

        /// The published snapshot and its flag against the NaN-sentinel
        /// original, over random observe / roll / drain sequences that may
        /// drain before the first roll. After every step both must agree
        /// on `changed()`, the drained pairs and the drift bits, and the
        /// published weights must equal the original's, reading the
        /// floor weight where it still held NaN.
        #[test]
        fn published_snapshot_matches_the_nan_sentinel_original(
            items in 1usize..12,
            alpha in 0.05f64..1.0,
            early_drain in any::<bool>(),
            ops in prop::collection::vec(0usize..96, 0..400),
        ) {
            let mut est = EmaEstimator::new(items, alpha);
            let mut oracle = NanSentinel::new(items, alpha);
            let (mut out, mut out_oracle) = (Vec::new(), Vec::new());
            // Each draw is an op code (its low three bits) and an item.
            for code in early_drain.then_some(7).into_iter().chain(ops) {
                let item = code >> 3;
                match code & 7 {
                    0..=4 => {
                        est.observe(item % items);
                        oracle.counts[item % items] += 1;
                    }
                    5 | 6 => {
                        est.roll_epoch();
                        oracle.roll_epoch();
                    }
                    _ => {
                        out.clear();
                        out_oracle.clear();
                        est.drain_changed(&mut out);
                        oracle.drain_changed(&mut out_oracle);
                        let pairs: Vec<(u32, u64)> =
                            out.iter().map(|&(i, w)| (i, w.get().to_bits())).collect();
                        let pairs_oracle: Vec<(u32, u64)> =
                            out_oracle.iter().map(|&(i, w)| (i, w.to_bits())).collect();
                        prop_assert_eq!(pairs, pairs_oracle);
                    }
                }
                prop_assert_eq!(est.changed(), &oracle.dirty[..]);
                prop_assert_eq!(
                    est.drift_since_publish().to_bits(),
                    oracle.drift_since_publish().to_bits()
                );
                let published: Vec<u64> = est.published().iter().map(|w| w.get().to_bits()).collect();
                let expected: Vec<u64> = oracle
                    .published
                    .iter()
                    .map(|&p| if p.is_nan() { FLOOR } else { p }.to_bits())
                    .collect();
                prop_assert_eq!(published, expected);
            }
        }

        /// The list-free drain against `drain_changed`, over random
        /// observe / roll / drain sequences that may drain before the
        /// first roll: after every step the estimator that only advances
        /// its snapshot must equal a twin that drained the list, in the
        /// published weights, the published-yet flag, the dirty flags,
        /// `changed()` and the drift bits.
        #[test]
        fn the_list_free_drain_is_drain_changed_without_its_list(
            items in 1usize..12,
            alpha in 0.05f64..1.0,
            early_drain in any::<bool>(),
            ops in prop::collection::vec(0usize..96, 0..400),
        ) {
            let mut est = EmaEstimator::new(items, alpha);
            let mut twin = EmaEstimator::new(items, alpha);
            let mut out = Vec::new();
            // Each draw is an op code (its low three bits) and an item.
            for code in early_drain.then_some(7).into_iter().chain(ops) {
                let item = code >> 3;
                match code & 7 {
                    0..=4 => {
                        est.observe(item % items);
                        twin.observe(item % items);
                    }
                    5 | 6 => {
                        est.roll_epoch();
                        twin.roll_epoch();
                    }
                    _ => {
                        est.publish_changed();
                        twin.drain_changed(&mut out);
                    }
                }
                prop_assert_eq!(est.published(), twin.published());
                prop_assert_eq!(est.published_yet, twin.published_yet);
                prop_assert_eq!(&est.dirty_flag, &twin.dirty_flag);
                prop_assert_eq!(est.changed(), twin.changed());
                prop_assert_eq!(
                    est.drift_since_publish().to_bits(),
                    twin.drift_since_publish().to_bits()
                );
            }
        }
    }
}
