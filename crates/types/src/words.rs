//! The word codec every checkpointed type writes and reads its state
//! through: one little-endian `u32` stream, the unit the CRC-32C kernel
//! ([`crc`](crate::crc)) and the snapshot word files already speak.
//! `u64`s travel as little-endian word pairs.
//!
//! [`WordWriter`] appends values; [`WordReader`] reads them back in the
//! same order and fails closed (`None`) on truncation or on any value out
//! of range, so a caller that bubbles the `None` refuses a short or
//! tampered stream as a unit and never half-applies it. A reader never
//! allocates for a count it has not bounded first: by the words that
//! follow (a flat run, sparse pairs), or by a limit the caller has
//! already validated (an RLE run, whose words do not bound its length).

/// Shortest equal-value run [`WordWriter::u64_run`] collapses to a
/// repeat pair. Breaking a literal batch costs one extra control word and
/// a repeat pair costs two, so four is the first length that always wins.
const MIN_REPEAT: usize = 4;

/// Control-word flag marking a repeat batch in the `u64` RLE stream.
const REPEAT_BIT: u64 = 1 << 63;

/// Append-only encoder of the word stream.
#[derive(Debug, Default)]
pub struct WordWriter {
    words: Vec<u32>,
}

impl WordWriter {
    /// An empty stream.
    pub fn new() -> Self {
        WordWriter::default()
    }

    /// The words written so far.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Consumes the writer, yielding its words.
    pub fn into_words(self) -> Vec<u32> {
        self.words
    }

    /// One word.
    pub fn u32(&mut self, x: u32) {
        self.words.push(x);
    }

    /// Two words, low half first.
    pub fn u64(&mut self, x: u64) {
        self.words.push(x as u32);
        self.words.push((x >> 32) as u32);
    }

    /// An `f64`'s bit pattern, so it reads back bit for bit.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// A presence word (`0` or `1`), then the value if present.
    pub fn opt_u64(&mut self, x: Option<u64>) {
        self.u32(u32::from(x.is_some()));
        if let Some(v) = x {
            self.u64(v);
        }
    }

    /// A presence word (`0` or `1`), then the value if present.
    pub fn opt_f64(&mut self, x: Option<f64>) {
        self.opt_u64(x.map(f64::to_bits));
    }

    /// A flat run: its length as a `u64`, then the words themselves.
    pub fn u32_slice(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        self.words.extend_from_slice(xs);
    }

    /// A run of `u64`s — each element's `bits` — behind its length,
    /// run-length encoded. Checkpointed runs are long (a value per
    /// catalog item) and often dominated by one value, such as the floor
    /// weight of items never requested, so four or more equal values
    /// collapse to a `(count, value)` pair. Distinct values pass
    /// through as literal batches costing one control word each, so the
    /// worst case is within one word of the flat encoding. The elements
    /// are read in place: no copy of the run is made.
    pub fn u64_run<T: Copy>(&mut self, xs: &[T], bits: impl Fn(T) -> u64) {
        self.words.reserve(2 * xs.len() + 4);
        self.u64(xs.len() as u64);
        let mut lit_start = 0;
        let mut i = 0;
        while i < xs.len() {
            let v = bits(xs[i]);
            let mut j = i + 1;
            while j < xs.len() && bits(xs[j]) == v {
                j += 1;
            }
            if j - i >= MIN_REPEAT {
                self.u64_literals(&xs[lit_start..i], &bits);
                self.u64(REPEAT_BIT | (j - i) as u64);
                self.u64(v);
                lit_start = j;
            }
            i = j;
        }
        self.u64_literals(&xs[lit_start..], &bits);
    }

    /// One literal batch of the [`u64_run`](Self::u64_run) encoding: a
    /// count control word, then the values.
    fn u64_literals<T: Copy>(&mut self, xs: &[T], bits: &impl Fn(T) -> u64) {
        if xs.is_empty() {
            return;
        }
        self.u64(xs.len() as u64);
        self.words.extend(xs.iter().flat_map(|&x| {
            let b = bits(x);
            [b as u32, (b >> 32) as u32]
        }));
    }
}

/// One batch of the `u64` RLE stream: `count` copies of a value, or a
/// literal block of little-endian word pairs.
enum U64Batch<'a> {
    Repeat(usize, u64),
    Literal(&'a [u32]),
}

/// Cursor over a word stream written by a [`WordWriter`]. Every read
/// returns `None` on truncation or on a value out of range.
#[derive(Debug)]
pub struct WordReader<'a> {
    words: &'a [u32],
}

impl<'a> WordReader<'a> {
    /// A cursor at the start of `words`.
    pub fn new(words: &'a [u32]) -> Self {
        WordReader { words }
    }

    /// True once every word has been read: a decoder that must consume
    /// its whole input checks this, so trailing words fail it closed.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Words not yet read.
    pub fn remaining(&self) -> usize {
        self.words.len()
    }

    /// One word.
    pub fn u32(&mut self) -> Option<u32> {
        let (&first, rest) = self.words.split_first()?;
        self.words = rest;
        Some(first)
    }

    /// Inverse of [`WordWriter::u64`].
    pub fn u64(&mut self) -> Option<u64> {
        let lo = self.u32()?;
        let hi = self.u32()?;
        Some(u64::from(lo) | (u64::from(hi) << 32))
    }

    /// Inverse of [`WordWriter::f64`].
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Inverse of [`WordWriter::opt_u64`]; a presence word other than `0`
    /// or `1` fails.
    pub fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u32()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    /// Inverse of [`WordWriter::opt_f64`].
    pub fn opt_f64(&mut self) -> Option<Option<f64>> {
        Some(self.opt_u64()?.map(f64::from_bits))
    }

    /// A `u64` count, refused above `max`.
    pub fn count(&mut self, max: usize) -> Option<usize> {
        usize::try_from(self.u64()?).ok().filter(|&n| n <= max)
    }

    /// The next `n` words, borrowed; `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u32]> {
        if n > self.words.len() {
            return None;
        }
        let (run, rest) = self.words.split_at(n);
        self.words = rest;
        Some(run)
    }

    /// Inverse of [`WordWriter::u32_slice`], borrowed from the stream.
    pub fn u32_slice(&mut self) -> Option<&'a [u32]> {
        let n = usize::try_from(self.u64()?).ok()?;
        self.take(n)
    }

    /// Inverse of [`WordWriter::u64_run`], mapping each value through
    /// `value`, which refuses one by returning `None`. An RLE stream's
    /// words do not bound its length, so the caller bounds it: a claimed
    /// length above `max_len` is refused before anything is allocated, and
    /// so is a stream whose batches miscount or end early (they are walked
    /// once before the one allocation).
    pub fn u64_run<T: Clone>(
        &mut self,
        max_len: usize,
        mut value: impl FnMut(u64) -> Option<T>,
    ) -> Option<Vec<T>> {
        let len = self.count(max_len)?;
        WordReader::new(self.words).u64_batches(len, |_| Some(()))?;
        let mut out = Vec::with_capacity(len);
        self.u64_batches(len, |batch| {
            match batch {
                U64Batch::Repeat(count, v) => out.resize(out.len() + count, value(v)?),
                U64Batch::Literal(run) => {
                    for pair in run.chunks_exact(2) {
                        out.push(value(u64::from(pair[0]) | (u64::from(pair[1]) << 32))?);
                    }
                }
            }
            Some(())
        })?;
        Some(out)
    }

    /// Walks the batches of a [`u64_run`](Self::u64_run) stream of `len`
    /// values, handing each to `emit`; `None` on a zero or over-long
    /// count, on truncation, or when `emit` refuses a batch.
    fn u64_batches(
        &mut self,
        len: usize,
        mut emit: impl FnMut(U64Batch<'a>) -> Option<()>,
    ) -> Option<()> {
        let mut filled = 0;
        while filled < len {
            let ctrl = self.u64()?;
            let count = usize::try_from(ctrl & !REPEAT_BIT).ok()?;
            if count == 0 || count > len - filled {
                return None;
            }
            if ctrl & REPEAT_BIT != 0 {
                emit(U64Batch::Repeat(count, self.u64()?))?;
            } else {
                emit(U64Batch::Literal(self.take(count.checked_mul(2)?)?))?;
            }
            filled += count;
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_codec_round_trips_and_fails_closed() {
        let mut w = WordWriter::new();
        w.u32(5);
        w.u64(u64::MAX - 3);
        w.f64(-0.25);
        w.opt_u64(None);
        w.opt_u64(Some(9));
        w.opt_f64(Some(1.5));
        w.u64_run(&[1u64, 2, 3], |x| x);
        w.u32_slice(&[10, 20]);
        let words = w.into_words();
        let mut r = WordReader::new(&words);
        assert_eq!(r.u32(), Some(5));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.f64(), Some(-0.25));
        assert_eq!(r.opt_u64(), Some(None));
        assert_eq!(r.opt_u64(), Some(Some(9)));
        assert_eq!(r.opt_f64(), Some(Some(1.5)));
        assert_eq!(r.u64_run(3, Some), Some(vec![1, 2, 3]));
        assert_eq!(r.u32_slice(), Some(&[10u32, 20][..]));
        assert!(r.is_empty());
        assert_eq!(r.u32(), None, "exhausted");
        for cut in 0..words.len() {
            let mut r = WordReader::new(&words[..cut]);
            let ok = r.u32().is_some()
                && r.u64().is_some()
                && r.f64().is_some()
                && r.opt_u64().is_some()
                && r.opt_u64().is_some()
                && r.opt_f64().is_some()
                && r.u64_run(3, Some).is_some()
                && r.u32_slice().is_some();
            assert!(!ok, "cut at {cut} must fail somewhere");
        }
        // A presence word other than 0 or 1 is corruption.
        assert_eq!(WordReader::new(&[2, 0, 0]).opt_u64(), None);
    }

    #[test]
    fn runs_collapse_repeats_and_keep_every_value() {
        let xs: Vec<f64> = [0.5, 0.5, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6, 2.0, -0.0, -0.0]
            .into_iter()
            .collect();
        let mut w = WordWriter::new();
        w.u64_run(&xs, f64::to_bits);
        // Length, a 2-value literal batch, a 5-value repeat pair, then a
        // 3-value literal batch: 2 + (2 + 4) + (2 + 2) + (2 + 6) words.
        assert_eq!(w.words().len(), 20);
        let back = WordReader::new(w.words())
            .u64_run(xs.len(), |b| Some(f64::from_bits(b)))
            .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&xs));
    }

    #[test]
    fn a_run_past_its_bound_or_its_words_fails_closed() {
        let mut w = WordWriter::new();
        w.u64_run(&[7u64; 9], |x| x);
        let words = w.into_words();
        assert_eq!(WordReader::new(&words).u64_run(9, Some), Some(vec![7; 9]));
        assert!(WordReader::new(&words).u64_run(8, Some).is_none(), "bound");
        assert!(
            WordReader::new(&words)
                .u64_run(9, |x| (x != 7).then_some(x))
                .is_none(),
            "a refused value"
        );
        // A batch counting past the claimed length, a zero count and a
        // flat run longer than the stream are corruption, not requests.
        for stream in [
            [4u32, 0, 5, 1 << 31, 7, 0],
            [4, 0, 0, 1 << 31, 7, 0],
            [4, 0, 4, 0, 7, 0],
        ] {
            assert!(WordReader::new(&stream).u64_run(4, Some).is_none());
        }
        assert!(WordReader::new(&[3, 0, 1, 2]).u32_slice().is_none());
        assert!(WordReader::new(&[u32::MAX, u32::MAX]).u32_slice().is_none());
    }
}
