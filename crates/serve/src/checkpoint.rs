//! Crash-safe service checkpoints: an atomic, versioned, CRC-sealed
//! manifest of the whole [`ServeLoop`] — every tenant's program,
//! estimator trajectory, window and quarantine state, the service's
//! boot-image cache and slice counter — written at slice boundaries and
//! restored cold after a crash.
//!
//! Three properties carry the design:
//!
//! * **A torn write is never adopted.** Manifests are written to a
//!   `.tmp` sibling, fsynced, then renamed into place (and the directory
//!   fsynced), so the named manifest is always either the old complete
//!   generation or the new complete generation. Restore ignores `.tmp`
//!   files entirely.
//! * **Fail closed, fall back.** Every manifest seals its words with the
//!   same hardware CRC-32C the snapshot wire format uses
//!   ([`bcast_types::crc`]). Restore walks manifests newest-first and
//!   takes the first one that passes *all* validation — framing, magic,
//!   version, endianness, checksum, and the full state decode. A
//!   truncated, bit-flipped or version-skewed newest manifest means the
//!   previous generation restores instead; only a directory with no
//!   valid manifest at all errors. The writer keeps the last
//!   `KEEP_GENERATIONS` generations to make that fallback real.
//! * **Bit-identical resumption.** The manifest carries every input the
//!   slice loop consumes (see [`TenantRuntime`]'s state export), so a
//!   run crashed at any slice boundary and restored produces the same
//!   [`ScenarioOutcome`](crate::ScenarioOutcome) fingerprint as an
//!   uninterrupted run — the property the checkpoint tests sweep every
//!   boundary to pin.
//!
//! [`TenantRuntime`]: crate::tenant::TenantRuntime

use crate::service::ServeLoop;
use bcast_channel::snapshot::{read_word_file, write_word_file};
use bcast_core::publish::PublishHeuristic;
use bcast_types::crc::crc32c;
use bcast_workloads::DemandShape;
use std::fs;
use std::path::{Path, PathBuf};

/// Manifest magic: `"BCKP"` as little-endian ASCII words.
const MANIFEST_MAGIC: u32 = 0x504B_4342;

/// Manifest format version this build writes and reads.
const MANIFEST_VERSION: u32 = 1;

/// Endianness sentinel (same convention as the snapshot wire format).
const ENDIAN_MARK: u32 = 0x0102_0304;

/// Header words before the payload: magic, version, endian mark,
/// reserved.
const HEADER_WORDS: usize = 4;

/// Checkpoint generations kept on disk. Two is the minimum that makes
/// "corrupt newest falls back to last good" a real guarantee.
const KEEP_GENERATIONS: usize = 2;

/// Why a checkpoint operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (create, write, fsync, rename, scan).
    Io(std::io::ErrorKind),
    /// No manifest in the directory survived validation — nothing to
    /// restore from. Corrupt newer generations have already been
    /// skipped by the time this is returned.
    NoValidManifest,
    /// A tenant on the delta rebuild lane cannot be checkpointed: the
    /// delta lane patches against its live boot tree, which the
    /// manifest does not carry.
    DeltaLaneUnsupported,
    /// The manifest belongs to a different scenario spec than the one
    /// supplied to the restore (driver restores only).
    SpecMismatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(kind) => write!(f, "checkpoint I/O failed: {kind}"),
            CheckpointError::NoValidManifest => {
                write!(f, "no valid checkpoint manifest in the directory")
            }
            CheckpointError::DeltaLaneUnsupported => {
                write!(f, "delta-lane tenants cannot be checkpointed")
            }
            CheckpointError::SpecMismatch => {
                write!(f, "checkpoint was taken under a different scenario spec")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.kind())
    }
}

/// Shortest equal-value run [`WordWriter::u64_slice`] collapses to a
/// repeat pair. Breaking a literal batch costs one extra control word and
/// a repeat pair costs two, so four is the first length that always wins.
const MIN_REPEAT: usize = 4;

/// Control-word flag marking a repeat run in the `u64` RLE stream.
const REPEAT_BIT: u64 = 1 << 63;

/// Ceiling on a length-prefixed run's claimed element count
/// (`u64_vec`/`u32_vec`): far above any real manifest section, far below
/// an allocation-of-death. RLE means a claimed length cannot be bounded
/// by the words that remain in the buffer.
const MAX_RUN_LEN: usize = 1 << 27;

/// Append-only word-stream encoder shared by every manifest section.
/// `u64`s are split into little-endian `u32` pairs so the whole manifest
/// stays one `u32` stream — the unit the CRC-32C kernel and the snapshot
/// wire format already speak.
#[derive(Debug, Default)]
pub(crate) struct WordWriter {
    words: Vec<u32>,
}

impl WordWriter {
    pub(crate) fn new() -> Self {
        WordWriter { words: Vec::new() }
    }

    pub(crate) fn u32(&mut self, x: u32) {
        self.words.push(x);
    }

    pub(crate) fn u64(&mut self, x: u64) {
        self.words.push(x as u32);
        self.words.push((x >> 32) as u32);
    }

    pub(crate) fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub(crate) fn opt_u64(&mut self, x: Option<u64>) {
        match x {
            None => self.u32(0),
            Some(v) => {
                self.u32(1);
                self.u64(v);
            }
        }
    }

    pub(crate) fn opt_f64(&mut self, x: Option<f64>) {
        match x {
            None => self.u32(0),
            Some(v) => {
                self.u32(1);
                self.f64(v);
            }
        }
    }

    /// A [`PublishHeuristic`] as a tag word (plus its node cap for
    /// `Shrink`) — the one encoding the tenant config and the boot-image
    /// cache keys share.
    pub(crate) fn heuristic(&mut self, h: PublishHeuristic) {
        match h {
            PublishHeuristic::Sorting => self.u32(0),
            PublishHeuristic::Frontier => self.u32(1),
            PublishHeuristic::Shrink { max_nodes } => {
                self.u32(2);
                self.u64(max_nodes as u64);
            }
            PublishHeuristic::Preorder => self.u32(3),
        }
    }

    /// A [`DemandShape`] as a tag word and its parameters — the one
    /// encoding the phase script and the live sampler share.
    pub(crate) fn demand_shape(&mut self, shape: DemandShape) {
        match shape {
            DemandShape::Zipf { theta } => {
                self.u32(0);
                self.f64(theta);
            }
            DemandShape::HotSet {
                hot_items,
                hot_mass,
                offset,
            } => {
                self.u32(1);
                self.u64(hot_items as u64);
                self.f64(hot_mass);
                self.u64(offset as u64);
            }
        }
    }

    /// Length-prefixed `u64` run, run-length encoded. Manifests carry
    /// runs of tens of thousands of words (estimator trajectories,
    /// weight snapshots), and several of them are dominated by one
    /// repeated value — boot-uniform weights, the not-yet-published NaN
    /// sentinel — so repeats of [`MIN_REPEAT`] or more collapse to a
    /// `(count, value)` pair. Distinct data passes through as literal
    /// batches costing one control word each, so the worst case is
    /// within one word of the flat encoding.
    pub(crate) fn u64_slice(&mut self, xs: &[u64]) {
        self.words.reserve(2 * xs.len() + 4);
        self.u64(xs.len() as u64);
        let mut lit_start = 0;
        let mut i = 0;
        while i < xs.len() {
            let v = xs[i];
            let mut j = i + 1;
            while j < xs.len() && xs[j] == v {
                j += 1;
            }
            if j - i >= MIN_REPEAT {
                self.u64_literals(&xs[lit_start..i]);
                self.u64(REPEAT_BIT | (j - i) as u64);
                self.u64(v);
                lit_start = j;
            }
            i = j;
        }
        self.u64_literals(&xs[lit_start..]);
    }

    /// One literal batch of the [`u64_slice`](Self::u64_slice) encoding:
    /// a count control word followed by the raw values.
    fn u64_literals(&mut self, xs: &[u64]) {
        if xs.is_empty() {
            return;
        }
        self.u64(xs.len() as u64);
        self.words
            .extend(xs.iter().flat_map(|&x| [x as u32, (x >> 32) as u32]));
    }

    /// Length-prefixed raw `u32` run (snapshot images embed this way).
    pub(crate) fn u32_slice(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        self.words.extend_from_slice(xs);
    }

    /// Reserves one word whose value is only known after later writes —
    /// block-length prefixes backpatch through [`patch`](Self::patch).
    pub(crate) fn placeholder(&mut self) -> usize {
        let at = self.words.len();
        self.words.push(0);
        at
    }

    pub(crate) fn patch(&mut self, at: usize, value: u32) {
        self.words[at] = value;
    }

    /// Words written so far (block-length backpatching measures spans).
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// Consumes the writer, yielding the raw word stream (tests encode
    /// and decode in memory without the file framing).
    #[cfg(test)]
    pub(crate) fn into_words(self) -> Vec<u32> {
        self.words
    }
}

/// One batch of the `u64` RLE stream: `count` copies of a value, or a
/// literal block of little-endian `u32` pairs.
enum U64Batch<'a> {
    Repeat(usize, u64),
    Literal(&'a [u32]),
}

/// Cursor over a manifest payload. Every read fails closed (`None`) on
/// truncation; decoders bubble the `None` so a short or gnawed manifest
/// is rejected as a unit, never half-applied.
#[derive(Debug)]
pub(crate) struct WordReader<'a> {
    words: &'a [u32],
}

impl<'a> WordReader<'a> {
    pub(crate) fn new(words: &'a [u32]) -> Self {
        WordReader { words }
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let (&first, rest) = self.words.split_first()?;
        self.words = rest;
        Some(first)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let lo = self.u32()?;
        let hi = self.u32()?;
        Some(u64::from(lo) | (u64::from(hi) << 32))
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    pub(crate) fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u32()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    pub(crate) fn opt_f64(&mut self) -> Option<Option<f64>> {
        match self.u32()? {
            0 => Some(None),
            1 => Some(Some(self.f64()?)),
            _ => None,
        }
    }

    /// Inverse of [`WordWriter::heuristic`]; fails closed on unknown tags.
    pub(crate) fn heuristic(&mut self) -> Option<PublishHeuristic> {
        Some(match self.u32()? {
            0 => PublishHeuristic::Sorting,
            1 => PublishHeuristic::Frontier,
            2 => PublishHeuristic::Shrink {
                max_nodes: usize::try_from(self.u64()?).ok()?,
            },
            3 => PublishHeuristic::Preorder,
            _ => return None,
        })
    }

    /// Inverse of [`WordWriter::demand_shape`]; fails closed on unknown
    /// tags.
    pub(crate) fn demand_shape(&mut self) -> Option<DemandShape> {
        Some(match self.u32()? {
            0 => DemandShape::Zipf { theta: self.f64()? },
            1 => DemandShape::HotSet {
                hot_items: usize::try_from(self.u64()?).ok()?,
                hot_mass: self.f64()?,
                offset: usize::try_from(self.u64()?).ok()?,
            },
            _ => return None,
        })
    }

    /// Inverse of [`WordWriter::u64_slice`]. Fails closed on a zero or
    /// over-long batch count, a length beyond [`MAX_RUN_LEN`] (an RLE
    /// stream's claimed length is not bounded by the buffer it sits in,
    /// so corruption must not become a giant allocation), or truncation.
    /// The whole stream is validated on a copy of the cursor before the
    /// one allocation, so a stream that fails allocates nothing.
    pub(crate) fn u64_vec(&mut self) -> Option<Vec<u64>> {
        let len = usize::try_from(self.u64()?).ok()?;
        if len > MAX_RUN_LEN {
            return None;
        }
        WordReader::new(self.words).u64_batches(len, |_| {})?;
        let mut out = Vec::with_capacity(len);
        self.u64_batches(len, |batch| match batch {
            U64Batch::Repeat(count, v) => out.resize(out.len() + count, v),
            // Flat pair decode: manifests carry multi-million-word runs
            // and the restore path is wall-clock bound, so no per-element
            // cursor.
            U64Batch::Literal(run) => out.extend(
                run.chunks_exact(2)
                    .map(|p| u64::from(p[0]) | (u64::from(p[1]) << 32)),
            ),
        })?;
        Some(out)
    }

    /// Walks the batches of a [`u64_vec`](Self::u64_vec) stream of `len`
    /// values, handing each to `emit`; `None` on a zero or over-long
    /// count or on truncation.
    fn u64_batches(&mut self, len: usize, mut emit: impl FnMut(U64Batch<'a>)) -> Option<()> {
        let mut filled = 0;
        while filled < len {
            let ctrl = self.u64()?;
            let count = usize::try_from(ctrl & !REPEAT_BIT).ok()?;
            if count == 0 || count > len - filled {
                return None;
            }
            if ctrl & REPEAT_BIT != 0 {
                emit(U64Batch::Repeat(count, self.u64()?));
            } else {
                emit(U64Batch::Literal(self.take(count.checked_mul(2)?)?));
            }
            filled += count;
        }
        Some(())
    }

    /// Takes the next `n` words as a raw borrowed block. Length-prefixed
    /// tenant blocks split off this way so they can decode independently
    /// (and in parallel) without advancing a shared cursor.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u32]> {
        if n > self.words.len() {
            return None;
        }
        let (run, rest) = self.words.split_at(n);
        self.words = rest;
        Some(run)
    }

    /// True once every word has been consumed — block decoders assert
    /// this so a tenant block with trailing garbage fails closed.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    pub(crate) fn u32_vec(&mut self) -> Option<Vec<u32>> {
        let len = usize::try_from(self.u64()?).ok()?;
        if len > self.words.len() {
            return None;
        }
        let (run, rest) = self.words.split_at(len);
        self.words = rest;
        Some(run.to_vec())
    }
}

/// Seals `payload` into a full manifest word buffer: header, payload,
/// trailing CRC-32C over everything before it.
fn seal(payload: &[u32]) -> Vec<u32> {
    let mut words = Vec::with_capacity(HEADER_WORDS + payload.len() + 1);
    words.extend_from_slice(&[MANIFEST_MAGIC, MANIFEST_VERSION, ENDIAN_MARK, 0]);
    words.extend_from_slice(payload);
    words.push(crc32c(&words));
    words
}

/// Validates a manifest word buffer and returns its payload slice.
/// `None` on any framing, header, version or checksum failure.
fn unseal(words: &[u32]) -> Option<&[u32]> {
    if words.len() < HEADER_WORDS + 1 {
        return None;
    }
    if words[0] != MANIFEST_MAGIC || words[1] != MANIFEST_VERSION || words[2] != ENDIAN_MARK {
        return None;
    }
    let (body, crc) = words.split_at(words.len() - 1);
    if crc32c(body) != crc[0] {
        return None;
    }
    Some(&body[HEADER_WORDS..])
}

/// The manifest filename for a checkpoint taken at `slice`. Zero-padded
/// so lexicographic directory order is generation order.
fn manifest_name(slice: u64) -> String {
    format!("manifest-{slice:020}.bcp")
}

/// Writes a sealed manifest atomically through [`write_word_file`]
/// (`.tmp` sibling → fsync → rename → directory fsync): a crash at any
/// point leaves either the previous generation or the complete new one,
/// never a torn file. Older generations beyond [`KEEP_GENERATIONS`] are
/// pruned afterwards.
fn write_manifest(dir: &Path, slice: u64, payload: &[u32]) -> Result<PathBuf, CheckpointError> {
    fs::create_dir_all(dir)?;
    let final_path = dir.join(manifest_name(slice));
    write_word_file(&final_path, &seal(payload))?;
    for stale in manifest_paths(dir)?.into_iter().skip(KEEP_GENERATIONS) {
        // Pruning is best-effort: a leftover old generation is harmless.
        let _ = fs::remove_file(stale);
    }
    Ok(final_path)
}

/// Manifest files in `dir`, newest generation first. `.tmp` leftovers of
/// interrupted writes are never listed.
fn manifest_paths(dir: &Path) -> Result<Vec<PathBuf>, CheckpointError> {
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("manifest-") && name.ends_with(".bcp") {
            names.push(name.to_string());
        }
    }
    names.sort_unstable_by(|a, b| b.cmp(a));
    Ok(names.into_iter().map(|n| dir.join(n)).collect())
}

/// Reads one manifest file and validates its seal, returning the full
/// word buffer (slice the payload out with [`payload_of`]). `None` on
/// any I/O or validation failure — the restore loop treats both as "try
/// the next generation".
fn decode_file(path: &Path) -> Option<Vec<u32>> {
    let words = read_word_file(path).ok()?;
    unseal(&words)?;
    Some(words)
}

/// The payload slice of a buffer [`decode_file`] validated — header and
/// trailing CRC trimmed without re-hashing or copying.
fn payload_of(words: &[u32]) -> &[u32] {
    &words[HEADER_WORDS..words.len() - 1]
}

/// Section tag: the manifest holds a bare service (no driver state).
pub(crate) const SECTION_SERVICE: u32 = 0;

/// Section tag: a scenario driver's state follows the service section.
pub(crate) const SECTION_DRIVER: u32 = 1;

impl ServeLoop {
    /// Writes a checkpoint manifest of the whole service to `dir`
    /// (created if absent). Atomic and versioned — see the module docs.
    /// Call at slice boundaries only; mid-slice state lives on worker
    /// stacks and is not capturable.
    ///
    /// # Errors
    /// [`CheckpointError::DeltaLaneUnsupported`] if any tenant rebuilds
    /// through the delta lane; [`CheckpointError::Io`] on filesystem
    /// failure.
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<PathBuf, CheckpointError> {
        let mut w = WordWriter::new();
        w.u32(SECTION_SERVICE);
        self.export_state(&mut w)?;
        write_manifest(dir.as_ref(), self.slices_run(), &w.words)
    }

    /// Restores a service from the newest valid checkpoint manifest in
    /// `dir`, resuming at the checkpointed slice with every tenant
    /// serving its checkpointed program. Corrupt or torn newer
    /// generations fall back to the previous good one; `threads` is an
    /// execution parameter, never part of the state (a checkpoint taken
    /// at one thread count restores at any other, bit-identically).
    ///
    /// # Errors
    /// [`CheckpointError::NoValidManifest`] if nothing in `dir`
    /// validates; [`CheckpointError::Io`] if the directory cannot be
    /// scanned.
    pub fn restore(dir: impl AsRef<Path>, threads: usize) -> Result<ServeLoop, CheckpointError> {
        restore_first_valid(dir.as_ref(), |r| {
            let section = r.u32()?;
            if section != SECTION_SERVICE && section != SECTION_DRIVER {
                return None;
            }
            // A driver manifest is a superset: the service section
            // restores the same way, the driver tail is simply unused.
            ServeLoop::import_state(r, threads)
        })
    }
}

/// Driver-level checkpoint plumbing used by
/// [`ScenarioDriver`](crate::scenario::ScenarioDriver): same manifest
/// framing, with the driver section appended after the service state.
pub(crate) fn write_driver_manifest(
    dir: &Path,
    slice: u64,
    build: impl FnOnce(&mut WordWriter) -> Result<(), CheckpointError>,
) -> Result<PathBuf, CheckpointError> {
    let mut w = WordWriter::new();
    build(&mut w)?;
    write_manifest(dir, slice, &w.words)
}

/// Walks manifests newest-first handing each decoded payload to `try_restore`
/// until one fully validates; `None` results fall back to older
/// generations.
pub(crate) fn restore_first_valid<T>(
    dir: &Path,
    mut try_restore: impl FnMut(&mut WordReader<'_>) -> Option<T>,
) -> Result<T, CheckpointError> {
    for path in manifest_paths(dir)? {
        let Some(words) = decode_file(&path) else {
            continue;
        };
        let mut r = WordReader::new(payload_of(&words));
        if let Some(v) = try_restore(&mut r) {
            return Ok(v);
        }
    }
    Err(CheckpointError::NoValidManifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_unseal_round_trip() {
        let payload = [7u32, 8, 9, 0xDEAD_BEEF];
        let words = seal(&payload);
        assert_eq!(unseal(&words), Some(&payload[..]));
    }

    #[test]
    fn unseal_rejects_every_header_and_crc_tamper() {
        let words = seal(&[1, 2, 3]);
        assert!(unseal(&words[..3]).is_none(), "truncated below header");
        let mut short = words.clone();
        short.pop();
        assert!(unseal(&short).is_none(), "truncated payload breaks the crc");
        for i in 0..3 {
            let mut bad = words.clone();
            bad[i] ^= 1;
            assert!(unseal(&bad).is_none(), "header word {i} tamper");
        }
        let mut flip = words.clone();
        flip[HEADER_WORDS] ^= 0x8000;
        assert!(unseal(&flip).is_none(), "payload bit flip");
        let mut skew = words.clone();
        skew[1] = MANIFEST_VERSION + 1;
        let last = skew.len() - 1;
        skew[last] = crc32c(&skew[..last]);
        assert!(unseal(&skew).is_none(), "version skew with a valid crc");
    }

    #[test]
    fn word_codec_round_trips_and_fails_closed() {
        let mut w = WordWriter::new();
        w.u32(5);
        w.u64(u64::MAX - 3);
        w.f64(-0.25);
        w.opt_u64(None);
        w.opt_u64(Some(9));
        w.opt_f64(Some(1.5));
        w.u64_slice(&[1, 2, 3]);
        w.u32_slice(&[10, 20]);
        let mut r = WordReader::new(&w.words);
        assert_eq!(r.u32(), Some(5));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.f64(), Some(-0.25));
        assert_eq!(r.opt_u64(), Some(None));
        assert_eq!(r.opt_u64(), Some(Some(9)));
        assert_eq!(r.opt_f64(), Some(Some(1.5)));
        assert_eq!(r.u64_vec(), Some(vec![1, 2, 3]));
        assert_eq!(r.u32_vec(), Some(vec![10, 20]));
        assert_eq!(r.u32(), None, "exhausted");
        // Truncation at every cut of the stream fails closed.
        for cut in 0..w.words.len() {
            let mut r = WordReader::new(&w.words[..cut]);
            let mut ok = true;
            ok &= r.u32().is_some();
            ok &= r.u64().is_some();
            ok &= r.f64().is_some();
            ok &= r.opt_u64().is_some();
            ok &= r.opt_u64().is_some();
            ok &= r.opt_f64().is_some();
            ok &= r.u64_vec().is_some();
            ok &= r.u32_vec().is_some();
            assert!(!ok, "cut at {cut} must fail somewhere");
        }
        // A length prefix larger than the remaining buffer is corruption,
        // not an allocation request.
        let mut w = WordWriter::new();
        w.u64(u64::MAX);
        assert!(WordReader::new(&w.words).u64_vec().is_none());
        assert!(WordReader::new(&w.words).u32_vec().is_none());
    }

    #[test]
    fn a_truncated_run_fails_before_it_allocates() {
        use bcast_types::alloc_counter::allocation_count;
        // A length prefix claiming MAX_RUN_LEN values (1 GiB of u64s),
        // followed by nothing, then by one repeat batch that covers only
        // part of it: both streams end early and must be rejected before
        // anything is allocated.
        let mut w = WordWriter::new();
        w.u64(MAX_RUN_LEN as u64);
        let header_only = w.words.clone();
        w.u64(REPEAT_BIT | 5);
        w.u64(7);
        for words in [&header_only[..], &w.words[..]] {
            let before = allocation_count();
            assert!(WordReader::new(words).u64_vec().is_none());
            assert_eq!(allocation_count(), before, "{} words", words.len());
        }
    }

    #[test]
    fn manifest_files_sort_newest_first_and_skip_tmp() {
        let dir = std::env::temp_dir().join(format!("bcast-ckpt-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for slice in [3u64, 12, 7] {
            write_manifest(&dir, slice, &[slice as u32]).unwrap();
        }
        fs::write(dir.join("manifest-99999999999999999999.bcp.tmp"), b"torn").unwrap();
        let paths = manifest_paths(&dir).unwrap();
        // KEEP_GENERATIONS prunes the oldest of the three.
        assert_eq!(paths.len(), KEEP_GENERATIONS);
        assert!(paths[0].to_str().unwrap().contains(&manifest_name(12)));
        assert!(paths[1].to_str().unwrap().contains(&manifest_name(7)));
        let words = decode_file(&paths[0]).expect("newest manifest validates");
        assert_eq!(payload_of(&words), &[12u32]);
        let _ = fs::remove_dir_all(&dir);
    }
}
