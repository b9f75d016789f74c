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
//! Every part of the payload — the service, each tenant, and the
//! estimator, tracker, histogram, sampler and SLO types a tenant holds —
//! writes and reads itself through the one word codec,
//! [`bcast_types::words`]. Tenants follow one another with no length
//! prefix and restore front to back; a restore must consume the payload
//! exactly, so a part that reads more or fewer words than it wrote fails
//! it closed.
//!
//! [`TenantRuntime`]: crate::tenant::TenantRuntime

use crate::service::ServeLoop;
use bcast_channel::snapshot::{read_word_file, write_word_file};
use bcast_core::publish::PublishHeuristic;
use bcast_types::crc::crc32c;
use bcast_types::{WordReader, WordWriter};
use bcast_workloads::DemandShape;
use std::fs;
use std::path::{Path, PathBuf};

/// Manifest magic: `"BCKP"` as little-endian ASCII words.
const MANIFEST_MAGIC: u32 = 0x504B_4342;

/// Manifest format version this build writes and reads; a manifest of
/// any other version fails closed.
const MANIFEST_VERSION: u32 = 2;

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

/// A [`PublishHeuristic`] as a tag word (plus its node cap for `Shrink`):
/// the one encoding the tenant config and the boot-image cache keys
/// share.
pub(crate) fn write_heuristic(w: &mut WordWriter, h: PublishHeuristic) {
    match h {
        PublishHeuristic::Sorting => w.u32(0),
        PublishHeuristic::Frontier => w.u32(1),
        PublishHeuristic::Shrink { max_nodes } => {
            w.u32(2);
            w.u64(max_nodes as u64);
        }
        PublishHeuristic::Preorder => w.u32(3),
    }
}

/// Inverse of [`write_heuristic`]; fails closed on unknown tags.
pub(crate) fn read_heuristic(r: &mut WordReader<'_>) -> Option<PublishHeuristic> {
    Some(match r.u32()? {
        0 => PublishHeuristic::Sorting,
        1 => PublishHeuristic::Frontier,
        2 => PublishHeuristic::Shrink {
            max_nodes: usize::try_from(r.u64()?).ok()?,
        },
        3 => PublishHeuristic::Preorder,
        _ => return None,
    })
}

/// A [`DemandShape`] as a tag word and its parameters: the one encoding
/// the phase script and the live sampler share.
pub(crate) fn write_demand_shape(w: &mut WordWriter, shape: DemandShape) {
    match shape {
        DemandShape::Zipf { theta } => {
            w.u32(0);
            w.f64(theta);
        }
        DemandShape::HotSet {
            hot_items,
            hot_mass,
            offset,
        } => {
            w.u32(1);
            w.u64(hot_items as u64);
            w.f64(hot_mass);
            w.u64(offset as u64);
        }
    }
}

/// Inverse of [`write_demand_shape`]; fails closed on unknown tags.
pub(crate) fn read_demand_shape(r: &mut WordReader<'_>) -> Option<DemandShape> {
    Some(match r.u32()? {
        0 => DemandShape::Zipf { theta: r.f64()? },
        1 => DemandShape::HotSet {
            hot_items: usize::try_from(r.u64()?).ok()?,
            hot_mass: r.f64()?,
            offset: usize::try_from(r.u64()?).ok()?,
        },
        _ => return None,
    })
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
        write_manifest(dir.as_ref(), self.slices_run(), w.words())
    }

    /// Restores a service from the newest valid checkpoint manifest
    /// [`checkpoint`](Self::checkpoint) wrote in `dir`, resuming at the
    /// checkpointed slice with every tenant serving its checkpointed
    /// program. Corrupt or torn newer generations fall back to the
    /// previous good one; `threads` is an execution parameter, never part
    /// of the state (a checkpoint taken at one thread count restores at
    /// any other, bit-identically). A scenario driver's manifest restores
    /// through [`ScenarioDriver::restore`](crate::ScenarioDriver::restore).
    ///
    /// # Errors
    /// [`CheckpointError::NoValidManifest`] if nothing in `dir`
    /// validates; [`CheckpointError::Io`] if the directory cannot be
    /// scanned.
    pub fn restore(dir: impl AsRef<Path>, threads: usize) -> Result<ServeLoop, CheckpointError> {
        restore_first_valid(dir.as_ref(), |r| {
            if r.u32()? != SECTION_SERVICE {
                return None;
            }
            let svc = ServeLoop::import_state(r, threads)?;
            // Tenants decode front to back with no length prefix, so a
            // part that reads fewer words than it wrote shows here.
            r.is_empty().then_some(svc)
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
    write_manifest(dir, slice, w.words())
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
        // Version skew with a valid crc, a version 1 manifest included.
        for version in [1, MANIFEST_VERSION + 1] {
            let mut skew = words.clone();
            skew[1] = version;
            let last = skew.len() - 1;
            skew[last] = crc32c(&skew[..last]);
            assert!(unseal(&skew).is_none(), "version {version}");
        }
    }

    #[test]
    fn a_truncated_run_fails_before_it_allocates() {
        use bcast_types::alloc_counter::allocation_count;
        // A run claiming 2^20 values, followed by nothing, then by a
        // repeat batch that covers only part of it: both streams end
        // early and must be refused before anything is allocated, even
        // under a bound that admits the claimed length.
        let mut w = WordWriter::new();
        w.u64(1 << 20);
        let header_only = w.words().to_vec();
        w.u64((1 << 63) | 5);
        w.u64(7);
        for words in [&header_only[..], w.words()] {
            let before = allocation_count();
            assert!(WordReader::new(words).u64_run(1 << 20, Some).is_none());
            assert_eq!(allocation_count(), before, "{} words", words.len());
        }
    }

    #[test]
    fn a_run_longer_than_its_bound_is_refused_with_no_allocation() {
        use bcast_types::alloc_counter::allocation_count;
        // Four words of repeat batch claim 2^27 values, 1 GiB of u64s: a
        // well-formed run that an unbounded reader allocates and fills.
        // Bounded by a 65,536-item catalog, it allocates nothing.
        let mut w = WordWriter::new();
        w.u64(1 << 27);
        w.u64((1 << 63) | (1 << 27));
        w.u64(7);
        let before = allocation_count();
        assert!(WordReader::new(w.words()).u64_run(1 << 16, Some).is_none());
        assert_eq!(allocation_count(), before);
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
