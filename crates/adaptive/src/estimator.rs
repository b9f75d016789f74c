//! Access-frequency estimation from the request stream.
//!
//! The broadcast server cannot see true popularity; it sees requests (in
//! the paper's hybrid setting, the on-demand up-link misses used to
//! "re-estimate its access frequency" \[DCK97, SRB97\]). The standard
//! streaming estimator is an exponential moving average over per-epoch
//! request counts: cheap, O(items) memory, and tunably reactive via the
//! decay factor `alpha`.

use bcast_types::Weight;

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
    /// Floored weights as of the last [`EmaEstimator::drain_changed`] —
    /// the published snapshot the changed-set diffs against.
    published: Vec<f64>,
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
            published: vec![f64::NAN; items], // NaN ⇒ everything dirty at first drain
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
    /// against the original loop).
    pub fn roll_epoch(&mut self) {
        let n = self.counts.len();
        let (alpha, keep) = (self.alpha, 1.0 - self.alpha);
        let counts = &mut self.counts[..n];
        let estimate = &mut self.estimate[..n];
        let published = &self.published[..n];
        let dirty_flag = &mut self.dirty_flag[..n];
        for i in 0..n {
            let est = alpha * (counts[i] as f64) + keep * estimate[i];
            estimate[i] = est;
            counts[i] = 0;
            let dirty = dirty_flag[i];
            let seen = published[if dirty { 0 } else { i }];
            if !dirty & (est.max(1e-6).to_bits() != seen.to_bits()) {
                dirty_flag[i] = true;
                self.dirty.push(i as u32);
            }
        }
        self.epochs += 1;
    }

    /// The original [`roll_epoch`](EmaEstimator::roll_epoch) loop, kept
    /// verbatim as the oracle the fast loop is pinned against.
    #[cfg(test)]
    fn roll_epoch_oracle(&mut self) {
        for (i, (est, cnt)) in self.estimate.iter_mut().zip(&mut self.counts).enumerate() {
            *est = self.alpha * (*cnt as f64) + (1.0 - self.alpha) * *est;
            *cnt = 0;
            let floored = est.max(1e-6);
            if floored.to_bits() != self.published[i].to_bits() && !self.dirty_flag[i] {
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
    /// O(changed), so rebuild callers no longer clone the full weight
    /// vector. Weights match [`weights`](EmaEstimator::weights) exactly:
    /// the same `max(1e-6)` floor, bit for bit.
    pub fn drain_changed(&mut self, out: &mut Vec<(u32, Weight)>) {
        self.dirty.sort_unstable();
        for &i in &self.dirty {
            let w = self.estimate[i as usize].max(1e-6);
            self.published[i as usize] = w;
            self.dirty_flag[i as usize] = false;
            out.push((
                i,
                Weight::new(w).expect("EMA of counts is finite, non-negative"),
            ));
        }
        self.dirty.clear();
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
            .map(|&e| Weight::new(e.max(1e-6)).expect("EMA of counts is finite, non-negative"))
            .collect()
    }

    /// Raw estimate for one item.
    pub fn estimate(&self, item: usize) -> f64 {
        self.estimate[item]
    }

    /// Appends the estimator's complete state to `out` as `u64` words —
    /// float bit patterns, never rounded values, so a restored estimator
    /// continues the exact trajectory of the original (the checkpoint
    /// path depends on this bit-identity). The inverse is
    /// [`import_state`](EmaEstimator::import_state).
    /// Mid-epoch counts are encoded sparsely (`item << 32 | count`,
    /// ascending): a checkpoint is taken at an epoch boundary where
    /// [`roll_epoch`](EmaEstimator::roll_epoch) has just zeroed them, so
    /// the dense array would be `items` words of zeros. Dirty items pack
    /// two per word, order preserved — at snapshot scale these two runs
    /// would otherwise dominate the estimator section.
    pub fn export_state(&self, out: &mut Vec<u64>) {
        out.push(self.alpha.to_bits());
        out.push(self.counts.len() as u64);
        out.push(self.epochs);
        let occupied = self.counts.iter().filter(|&&c| c != 0).count();
        out.push(occupied as u64);
        out.extend(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| ((i as u64) << 32) | u64::from(c)),
        );
        out.extend(self.estimate.iter().map(|e| e.to_bits()));
        out.extend(self.published.iter().map(|p| p.to_bits()));
        out.push(self.dirty.len() as u64);
        out.extend(
            self.dirty.chunks(2).map(|pair| {
                u64::from(pair[0]) | (pair.get(1).map_or(0, |&hi| u64::from(hi)) << 32)
            }),
        );
    }

    /// Rebuilds an estimator from a word stream written by
    /// [`export_state`](EmaEstimator::export_state), consuming exactly
    /// the words it reads from the front of `*words`. Fails closed:
    /// a truncated or structurally invalid stream yields `None`, never a
    /// half-restored estimator.
    pub fn import_state(words: &mut &[u64]) -> Option<EmaEstimator> {
        fn take<'a>(words: &mut &'a [u64], n: usize) -> Option<&'a [u64]> {
            if words.len() < n {
                return None;
            }
            let (head, rest) = words.split_at(n);
            *words = rest;
            Some(head)
        }
        let header = take(words, 4)?;
        let alpha = f64::from_bits(header[0]);
        let items = usize::try_from(header[1]).ok()?;
        let epochs = header[2];
        if !(alpha > 0.0 && alpha <= 1.0) || items == 0 {
            return None;
        }
        let occupied = usize::try_from(header[3]).ok()?;
        if occupied > items {
            return None;
        }
        // Allocate nothing the stream cannot back: the occupied pairs, the
        // two dense runs and the dirty length must all be present first.
        let needed = items
            .checked_mul(2)
            .and_then(|n| n.checked_add(occupied))
            .and_then(|n| n.checked_add(1))?;
        if words.len() < needed {
            return None;
        }
        let mut counts = vec![0u32; items];
        let mut prev: Option<usize> = None;
        for &pair in take(words, occupied)? {
            let i = usize::try_from(pair >> 32).ok()?;
            let c = pair as u32;
            if i >= items || prev.is_some_and(|p| p >= i) || c == 0 {
                return None;
            }
            prev = Some(i);
            counts[i] = c;
        }
        let estimate: Vec<f64> = take(words, items)?
            .iter()
            .map(|&w| f64::from_bits(w))
            .collect();
        let published: Vec<f64> = take(words, items)?
            .iter()
            .map(|&w| f64::from_bits(w))
            .collect();
        let dirty_len = usize::try_from(*take(words, 1)?.first()?).ok()?;
        if dirty_len > items {
            return None;
        }
        let packed = take(words, dirty_len.div_ceil(2))?;
        let mut dirty = Vec::with_capacity(dirty_len);
        for k in 0..dirty_len {
            let word = packed[k / 2];
            dirty.push(if k % 2 == 0 {
                word as u32
            } else {
                (word >> 32) as u32
            });
        }
        let mut dirty_flag = vec![false; items];
        for &d in &dirty {
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
            dirty,
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
        let mut words = Vec::new();
        e.export_state(&mut words);
        let mut cursor = &words[..];
        let mut back = EmaEstimator::import_state(&mut cursor).expect("valid stream");
        assert!(cursor.is_empty(), "import must consume exactly its words");
        // Same continuation: identical epochs, weights, drift and
        // changed-set behaviour after more traffic on both copies.
        assert_eq!(back.epochs(), e.epochs());
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
            let mut cursor = &words[..cut];
            assert!(
                EmaEstimator::import_state(&mut cursor).is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn a_huge_item_count_fails_closed_before_allocating() {
        // A header claiming 2^40 items over an empty body must be refused
        // from its length, not by an allocation the input cannot back.
        let words = [0.5f64.to_bits(), 1 << 40, 0, 0];
        let mut cursor = &words[..];
        assert!(EmaEstimator::import_state(&mut cursor).is_none());
    }

    proptest! {
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
        /// against the all-NaN "nothing published" snapshot), and a quiet
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
                prop_assert_eq!(bits(&fast.published), bits(&oracle.published));
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
    }
}
