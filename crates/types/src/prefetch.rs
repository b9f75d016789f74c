//! Software prefetch for the request path's random table reads.
//!
//! A serving tenant reads four tables per request at random positions:
//! its sampler's alias columns, its estimator's counts, its program's
//! route records and its phase window's histogram. Once those outgrow the
//! cache, a loop that reads them one request at a time waits on one miss
//! after another. The chunked forms of that path
//! (`TaggedAliasTable::sample_chunk`, `EmaEstimator::observe_chunk` and
//! the serve kernel's chunk body) first [`prefetch`] every position a
//! chunk will read and only then read them, so the chunk's misses are in
//! flight together. Below [`PREFETCH_MIN_LEN`] the tables stay cached and
//! the extra pass only costs time, so the plain per-request loop runs
//! instead.

/// Table length from which the request path draws, counts and routes a
/// chunk at a time with prefetches: a tenant with at least this many
/// items, and a program with at least this many route records.
///
/// The crossover rows of the `simulator` criterion bench (one warm tenant
/// slice per request, at 4,096 to 1,000,000 items) put it between 16,384
/// items, where the per-request loop is still ahead, and 65,536, where
/// the chunk path already wins; EXPERIMENTS (A4, crossover) records the
/// table.
pub const PREFETCH_MIN_LEN: usize = 65_536;

/// Hints the CPU to bring `table[i]` into the L1 cache ahead of a read.
/// An index past the end is ignored, and on targets other than x86_64
/// this does nothing. A prefetch never faults and changes no value, so
/// it can never change what the program computes, only how long the
/// read that follows it waits.
#[inline(always)]
pub fn prefetch<T>(table: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(entry) = table.get(i) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: the pointer comes from a live reference into `table`,
        // and a prefetch has no other requirement: it reads and writes
        // nothing the program can observe.
        unsafe { _mm_prefetch(std::ptr::from_ref(entry).cast::<i8>(), _MM_HINT_T0) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (table, i);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_ignores_indices_past_the_end_and_changes_nothing() {
        let table = [1u64, 2, 3];
        for i in [0, 2, 3, usize::MAX] {
            prefetch(&table, i);
        }
        prefetch::<u32>(&[], 0);
        assert_eq!(table, [1, 2, 3]);
    }
}
