//! Request-stream generators for the batched serving engine.
//!
//! The serving loop and the serving-side experiments (latency tails,
//! throughput benches) need millions of item draws per run, so sampling
//! must be O(1) per request with no allocation. [`AliasTable`] preprocesses an
//! arbitrary probability mass function into a Walker **alias table**
//! (O(items) build) and then draws with one SplitMix64 step, one
//! multiply-shift index map and one comparison per sample. The table and
//! the generator state are deliberately separate: a long-lived caller
//! builds the table once per demand shape and reseeds a plain `u64` state
//! per slice, so steady-state sampling allocates nothing. The serving
//! loop's tenants keep only a [`TaggedAliasTable`], whose fused columns
//! the Vose construction fills in place; [`AliasTable`] is the same
//! table with every tag zero. A build allocates the columns, the scaled
//! weights and one work buffer, nothing that grows. The tagged table is
//! derived state through and through — a demand shape's pmf plus the
//! item → node map — so it has no checkpoint encoding: a restore builds
//! it afresh.
//! [`RequestStream`] bundles a table and a state back together for
//! one-shot callers.
//!
//! Deterministic given an explicit `u64` seed, like every generator in
//! this crate.

use bcast_types::prefetch::prefetch;

/// A Walker alias table over a fixed probability mass function: the
/// state-free half of a [`RequestStream`], sharable across draws whose
/// generator state lives elsewhere. It is a [`TaggedAliasTable`] whose
/// tags are all zero, so both draw the same items by construction.
#[derive(Debug, Clone)]
pub struct AliasTable(TaggedAliasTable);

impl AliasTable {
    /// Builds a table with draw probability proportional to each weight.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn from_weights(weights: &[f64]) -> Self {
        let mut table = TaggedAliasTable::new();
        table.rebuild(weights, |_| 0);
        AliasTable(table)
    }

    /// Number of distinct items.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always false — tables have at least one item by construction.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Draws the next item index, advancing `state` by one SplitMix64
    /// step: O(1), allocation-free. The caller owns the state, so one
    /// table serves any number of independent streams — reseeding costs a
    /// single store.
    #[inline]
    pub fn sample(&self, state: &mut u64) -> usize {
        self.0.sample(state).0 as usize
    }
}

/// Advances `state` by one SplitMix64 step and returns its output — the
/// one generator every alias draw uses, so the plain, the fused and the
/// chunked draws are bit-identical by construction.
#[inline(always)]
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The column a draw `z` picks among `len`: its low 32 bits, mapped by
/// Lemire's multiply-shift (bias-free at these table sizes).
#[inline(always)]
fn column(z: u64, len: usize) -> usize {
    ((u64::from(z as u32) * len as u64) >> 32) as usize
}

/// The acceptance coin of a draw `z`: its high 32 bits, accepted when at
/// most the column's threshold.
#[inline(always)]
fn coin(z: u64) -> u32 {
    (z >> 32) as u32
}

/// One column of a [`TaggedAliasTable`]: the acceptance threshold plus
/// the pre-resolved `(item, tag)` pair for *both* branch outcomes, packed
/// into 16 bytes so a draw touches exactly one cache line beyond the
/// generator state. The accept-branch item is the column index itself and
/// is not stored.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct TaggedColumn {
    /// Acceptance threshold, scaled to `u32::MAX + 1`.
    threshold: u32,
    /// Tag of the column's own item (accept branch).
    accept_tag: u32,
    /// Alias item (reject branch).
    alias_item: u32,
    /// Tag of the alias item (reject branch).
    alias_tag: u32,
}

/// A Walker alias table fused with a per-item `u32` tag, resolved at
/// build time so the sampling hot path never chases a second lookup
/// table.
///
/// The serving loop's tenants sample an item *and* immediately map it to
/// the catalog node serving it; with separate threshold, alias and
/// item→node tables that is up to three dependent random reads per
/// request. Here each column carries the threshold and both possible
/// `(item, tag)` outcomes in one 16-byte record, so a draw costs one
/// SplitMix64 step and a single random cache-line read. [`AliasTable`]
/// is this table with every tag zero.
#[derive(Debug, Clone, Default)]
pub struct TaggedAliasTable {
    columns: Vec<TaggedColumn>,
}

impl TaggedAliasTable {
    /// An empty table. Sampling panics until the first
    /// [`rebuild`](Self::rebuild).
    pub fn new() -> Self {
        TaggedAliasTable::default()
    }

    /// Rebuilds over a new pmf, attaching `tag(item)` to every branch
    /// outcome. The construction writes thresholds and alias items
    /// straight into the columns, kept in their reused buffer, and the
    /// tags follow in one [`retag`](Self::retag) pass. Its two work
    /// stacks share one buffer, one growing from the front and the other
    /// from the back, so a build allocates that buffer and the scaled
    /// weights once each, and nothing that grows.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn rebuild(&mut self, weights: &[f64], tag: impl FnMut(usize) -> u32) {
        let n = weights.len();
        assert!(n > 0, "need at least one item");
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "weights must be finite and >= 0"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        // Every column starts out always accepting. Vose's stable
        // construction scales each probability by n, then pairs every
        // under-full column with an over-full donor.
        let columns = &mut self.columns;
        columns.clear();
        columns.extend((0..n as u32).map(|item| TaggedColumn {
            threshold: u32::MAX,
            alias_item: item,
            ..TaggedColumn::default()
        }));
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        // Under-full columns in `stacks[..small]`, over-full ones in
        // `stacks[large..]`, each popped from its inner end.
        let mut stacks = vec![0u32; n];
        let (mut small, mut large) = (0, n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                stacks[small] = i as u32;
                small += 1;
            } else {
                large -= 1;
                stacks[large] = i as u32;
            }
        }
        while small > 0 && large < n {
            small -= 1;
            let s = stacks[small] as usize;
            let l = stacks[large];
            large += 1;
            columns[s].threshold = (scaled[s] * (u32::MAX as f64 + 1.0)) as u32;
            columns[s].alias_item = l;
            scaled[l as usize] -= 1.0 - scaled[s];
            if scaled[l as usize] < 1.0 {
                stacks[small] = l;
                small += 1;
            } else {
                large -= 1;
                stacks[large] = l;
            }
        }
        // Leftovers (either stack) are exactly full up to rounding: they
        // keep accepting.
        self.retag(tag);
    }

    /// Replaces every column's tags with `tag`'s, keeping thresholds and
    /// alias items: the same table a [`rebuild`](Self::rebuild) over the
    /// same pmf with `tag` makes, in one O(items) pass with no pmf and no
    /// Vose construction.
    pub fn retag(&mut self, mut tag: impl FnMut(usize) -> u32) {
        for (i, c) in self.columns.iter_mut().enumerate() {
            c.accept_tag = tag(i);
            c.alias_tag = tag(c.alias_item as usize);
        }
    }

    /// Number of distinct items.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True until the first build.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Draws the next `(item, tag)`, advancing `state` by one SplitMix64
    /// step. The item sequence is bit-identical to
    /// [`AliasTable::sample`] over the same pmf and state.
    ///
    /// # Panics
    /// Panics (index out of bounds) on an empty table.
    #[inline]
    pub fn sample(&self, state: &mut u64) -> (u32, u32) {
        let z = splitmix_next(state);
        let col = column(z, self.columns.len());
        self.columns[col].resolve(col as u32, coin(z))
    }

    /// Draws `items.len()` samples at once, writing each `(item, tag)` to
    /// `items[i]` and `tags[i]`: exactly the draws, and the final
    /// `state`, of that many [`sample`](Self::sample) calls. For tables
    /// larger than cache: the first pass runs the generator and
    /// prefetches every column it picks, the second resolves each draw
    /// from its column, so the chunk's misses are in flight together
    /// instead of one after another.
    ///
    /// # Panics
    /// Panics if `tags` is shorter than `items`, or if the table is empty
    /// and `items` is not.
    #[inline]
    pub fn sample_chunk(&self, state: &mut u64, items: &mut [u32], tags: &mut [u32]) {
        let tags = &mut tags[..items.len()];
        // Pass 1 parks each draw's column in `items` and its coin in
        // `tags`; pass 2 overwrites both with the resolved outcome.
        for (col, coin_out) in items.iter_mut().zip(tags.iter_mut()) {
            let z = splitmix_next(state);
            let c = column(z, self.columns.len());
            prefetch(&self.columns, c);
            (*col, *coin_out) = (c as u32, coin(z));
        }
        for (item, tag) in items.iter_mut().zip(tags.iter_mut()) {
            (*item, *tag) = self.columns[*item as usize].resolve(*item, *tag);
        }
    }
}

impl TaggedColumn {
    /// The `(item, tag)` a draw of column `col` with acceptance coin
    /// `coin` yields. Branchless: the coin is data-random, so a
    /// conditional jump would mispredict constantly, but both outcomes
    /// sit in this one record, so the compare folds into two cmovs. The
    /// hint is needed: in the chunked draw's second pass the compiler
    /// otherwise branches, which made that pass three times slower.
    #[inline(always)]
    fn resolve(self, col: u32, coin: u32) -> (u32, u32) {
        let reject = coin > self.threshold;
        (
            std::hint::select_unpredictable(reject, self.alias_item, col),
            std::hint::select_unpredictable(reject, self.alias_tag, self.accept_tag),
        )
    }
}

/// An infinite, deterministic stream of item indices drawn i.i.d. from a
/// fixed probability mass function, via the alias method: an
/// [`AliasTable`] bundled with its generator state.
#[derive(Debug, Clone)]
pub struct RequestStream {
    table: AliasTable,
    state: u64,
}

impl RequestStream {
    /// Builds a stream over `weights.len()` items with draw probability
    /// proportional to each weight.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn from_weights(weights: &[f64], seed: u64) -> Self {
        RequestStream {
            table: AliasTable::from_weights(weights),
            state: seed,
        }
    }

    /// A Zipf(θ) stream: item `i` has probability ∝ `1 / (i + 1)^theta`
    /// (item 0 is the hottest; shuffle externally if rank order and item
    /// ids must be independent).
    ///
    /// # Panics
    /// Panics if `items == 0` or `theta` is negative or non-finite.
    pub fn zipf(items: usize, theta: f64, seed: u64) -> Self {
        assert!(theta >= 0.0 && theta.is_finite(), "theta must be >= 0");
        let pmf: Vec<f64> = (0..items)
            .map(|r| 1.0 / ((r + 1) as f64).powf(theta))
            .collect();
        Self::from_weights(&pmf, seed)
    }

    /// A hotset stream: the first `hot_items` items uniformly share
    /// `hot_mass` of the probability, the remaining items uniformly share
    /// the rest — the classic 80/20-style skew dialed by two knobs.
    ///
    /// # Panics
    /// Panics if `hot_items` is zero or larger than `items`, or `hot_mass`
    /// is outside `[0, 1]` (and, transitively, if the resulting pmf would
    /// be all-zero: `hot_mass == 0` with no cold items).
    pub fn hotset(items: usize, hot_items: usize, hot_mass: f64, seed: u64) -> Self {
        assert!(
            hot_items > 0 && hot_items <= items,
            "hot_items must be in 1..=items"
        );
        assert!(
            (0.0..=1.0).contains(&hot_mass),
            "hot_mass must be in [0, 1]"
        );
        let cold_items = items - hot_items;
        let pmf: Vec<f64> = (0..items)
            .map(|i| {
                if i < hot_items {
                    hot_mass / hot_items as f64
                } else {
                    (1.0 - hot_mass) / cold_items as f64
                }
            })
            .collect();
        Self::from_weights(&pmf, seed)
    }

    /// Number of distinct items.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Always false — streams have at least one item by construction.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Draws the next item index: O(1), allocation-free.
    #[inline]
    pub fn sample(&mut self) -> usize {
        self.table.sample(&mut self.state)
    }
}

impl Iterator for RequestStream {
    type Item = usize;

    /// Infinite stream; use `take(n)` for a finite batch.
    fn next(&mut self) -> Option<usize> {
        Some(self.sample())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn empirical(stream: &mut RequestStream, draws: usize) -> Vec<f64> {
        let mut counts = vec![0u64; stream.len()];
        for _ in 0..draws {
            counts[stream.sample()] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / draws as f64)
            .collect()
    }

    #[test]
    fn matches_target_pmf() {
        let weights = [5.0, 1.0, 3.0, 1.0];
        let mut s = RequestStream::from_weights(&weights, 11);
        let freq = empirical(&mut s, 200_000);
        let total: f64 = weights.iter().sum();
        for (i, f) in freq.iter().enumerate() {
            let expect = weights[i] / total;
            assert!(
                (f - expect).abs() < 0.01,
                "item {i}: empirical {f} vs pmf {expect}"
            );
        }
    }

    #[test]
    fn zipf_is_rank_monotone() {
        let mut s = RequestStream::zipf(16, 1.0, 3);
        let freq = empirical(&mut s, 100_000);
        assert!(freq[0] > freq[3] && freq[3] > freq[15]);
        // Hottest rank of Zipf(1) over 16 items: 1 / H_16 ≈ 0.296.
        assert!((freq[0] - 0.296).abs() < 0.02, "hottest {}", freq[0]);
    }

    #[test]
    fn hotset_concentrates_the_requested_mass() {
        let mut s = RequestStream::hotset(100, 10, 0.8, 9);
        let freq = empirical(&mut s, 100_000);
        let hot: f64 = freq[..10].iter().sum();
        assert!((hot - 0.8).abs() < 0.01, "hot mass {hot}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<usize> = RequestStream::zipf(32, 0.9, 5).take(100).collect();
        let b: Vec<usize> = RequestStream::zipf(32, 0.9, 5).take(100).collect();
        assert_eq!(a, b);
        let c: Vec<usize> = RequestStream::zipf(32, 0.9, 6).take(100).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn single_item_stream_draws_it() {
        let mut s = RequestStream::from_weights(&[2.5], 1);
        for _ in 0..10 {
            assert_eq!(s.sample(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn rejects_zero_mass() {
        let _ = RequestStream::from_weights(&[0.0, 0.0], 1);
    }

    #[test]
    fn shared_table_matches_bundled_stream_bit_for_bit() {
        let weights: Vec<f64> = (0..64).map(|i| 1.0 / (i + 1) as f64).collect();
        let table = AliasTable::from_weights(&weights);
        for seed in [0u64, 1, 0x5EED, u64::MAX] {
            let bundled: Vec<usize> = RequestStream::from_weights(&weights, seed)
                .take(500)
                .collect();
            let mut state = seed;
            let resumed: Vec<usize> = (0..500).map(|_| table.sample(&mut state)).collect();
            assert_eq!(bundled, resumed, "seed {seed:#x}");
        }
    }

    #[test]
    fn reseeding_state_replays_the_slice_sequence() {
        // The serving loop's usage: one cached table, a fresh state per
        // slice — equal to building a fresh stream per slice.
        let weights = [4.0, 2.0, 1.0, 1.0, 0.5];
        let table = AliasTable::from_weights(&weights);
        for slice_seed in [7u64, 8, 9] {
            let fresh: Vec<usize> = RequestStream::from_weights(&weights, slice_seed)
                .take(64)
                .collect();
            let mut state = slice_seed;
            let cached: Vec<usize> = (0..64).map(|_| table.sample(&mut state)).collect();
            assert_eq!(fresh, cached);
        }
    }

    #[test]
    fn tagged_table_draws_the_same_items_with_resolved_tags() {
        // Fused draws must be bit-identical to the plain table over the
        // same pmf — the determinism contract the serving loop leans on —
        // with every tag equal to the side lookup it replaces.
        let weights: Vec<f64> = (0..257).map(|i| 1.0 / (i + 1) as f64).collect();
        let nodes: Vec<u32> = (0..257).map(|i| 1000 + 3 * i as u32).collect();
        let plain = AliasTable::from_weights(&weights);
        let mut tagged = TaggedAliasTable::new();
        tagged.rebuild(&weights, |i| nodes[i]);
        assert_eq!(tagged.len(), plain.len());
        let (mut s1, mut s2) = (0x5EED_u64, 0x5EED_u64);
        for _ in 0..10_000 {
            let item = plain.sample(&mut s1);
            let (tagged_item, tag) = tagged.sample(&mut s2);
            assert_eq!(tagged_item as usize, item);
            assert_eq!(tag, nodes[item]);
        }
        // Rebuilding over a different pmf retargets the tags too.
        let flipped: Vec<f64> = weights.iter().rev().copied().collect();
        tagged.rebuild(&flipped, |i| nodes[i] + 1);
        let flipped_plain = AliasTable::from_weights(&flipped);
        let (mut s1, mut s2) = (9u64, 9u64);
        for _ in 0..1000 {
            let item = flipped_plain.sample(&mut s1);
            let (tagged_item, tag) = tagged.sample(&mut s2);
            assert_eq!(tagged_item as usize, item);
            assert_eq!(tag, nodes[item] + 1);
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_samples_identically() {
        // A rebuilt table keeps its column buffer whether the pmf shrinks
        // it or grows it back, and draws exactly as a fresh one does.
        let a: Vec<f64> = (0..32).map(|i| (i + 1) as f64).collect();
        let b = [5.0, 1.0, 3.0, 1.0];
        let mut reused = TaggedAliasTable::new();
        reused.rebuild(&a, |i| i as u32);
        let buffer = reused.columns.as_ptr();
        for (pmf, seed) in [(&b[..], 9u64), (&a[..], 11u64)] {
            reused.rebuild(pmf, |i| 2 * i as u32);
            assert_eq!(reused.columns.as_ptr(), buffer);
            assert_eq!(reused.len(), pmf.len());
            let mut fresh = TaggedAliasTable::new();
            fresh.rebuild(pmf, |i| 2 * i as u32);
            let plain = AliasTable::from_weights(pmf);
            let (mut s1, mut s2, mut s3) = (seed, seed, seed);
            for _ in 0..1000 {
                let drawn = reused.sample(&mut s1);
                assert_eq!(drawn, fresh.sample(&mut s2));
                assert_eq!(drawn.0 as usize, plain.sample(&mut s3));
            }
        }
    }

    #[test]
    fn retag_matches_a_rebuild_with_the_new_tags() {
        let weights: Vec<f64> = (0..300).map(|i| 1.0 / ((i % 37) + 1) as f64).collect();
        let mut retagged = TaggedAliasTable::new();
        retagged.rebuild(&weights, |i| i as u32);
        let mut rebuilt = TaggedAliasTable::new();
        rebuilt.rebuild(&weights, |i| 7 * i as u32 + 1);
        retagged.retag(|i| 7 * i as u32 + 1);
        assert_eq!(retagged.columns, rebuilt.columns);
    }

    proptest! {
        /// The chunked draw against `sample` called once per request:
        /// every `(item, tag)` and the carried state, over chunk lengths at
        /// and around the serve kernel's 256 and random ones, chained so
        /// each chunk starts from the state the last one left.
        #[test]
        fn sample_chunk_matches_repeated_sample(
            weights in prop::collection::vec(0.0f64..10.0, 1..600),
            random_lens in prop::collection::vec(0usize..700, 0..6),
            seed in any::<u64>(),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let mut table = TaggedAliasTable::new();
            table.rebuild(&weights, |i| 3 * i as u32 + 11);
            let (mut chunked, mut single) = (seed, seed);
            for len in [0usize, 1, 255, 256].into_iter().chain(random_lens) {
                let (mut items, mut tags) = (vec![0u32; len], vec![0u32; len]);
                table.sample_chunk(&mut chunked, &mut items, &mut tags);
                let oracle: Vec<(u32, u32)> = (0..len).map(|_| table.sample(&mut single)).collect();
                let got: Vec<(u32, u32)> = items.into_iter().zip(tags).collect();
                prop_assert_eq!(got, oracle);
                prop_assert_eq!(chunked, single);
            }
        }
    }
}
