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
//! estimator, tracker, histogram and SLO types a tenant holds — writes
//! and reads itself through the one word codec, [`bcast_types::words`].
//! Tenants follow one another with no length prefix and restore front to
//! back; a restore must consume the payload exactly, so a part that reads
//! more or fewer words than it wrote fails it closed. Each fact is
//! written once: state a tenant can derive from what the manifest holds,
//! such as its demand sampler (the phase's demand shape plus the
//! item → node map), is rebuilt after a restore, not stored. Every
//! decoded value that serving later acts on is checked against the rule
//! its constructor applies, so a manifest that passes its CRC still
//! cannot restore a tenant that panics or over-allocates on its first
//! slice.
//!
//! A manifest is built in one word buffer that starts with its header;
//! the CRC-32C is appended to that same buffer, which is then written as
//! is, so no checkpoint copies its manifest.
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
const MANIFEST_VERSION: u32 = 3;

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
    /// delta lane reweights its live boot tree, which the manifest does
    /// not carry.
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

/// A [`DemandShape`] as a tag word and its parameters.
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

/// Inverse of [`write_demand_shape`] for an `items`-item tenant; fails
/// closed on unknown tags and on a shape with no pmf over `items`
/// ([`DemandShape::fits`]), which the restored tenant's sampler build
/// would otherwise panic on.
pub(crate) fn read_demand_shape(r: &mut WordReader<'_>, items: usize) -> Option<DemandShape> {
    let shape = match r.u32()? {
        0 => DemandShape::Zipf { theta: r.f64()? },
        1 => DemandShape::HotSet {
            hot_items: usize::try_from(r.u64()?).ok()?,
            hot_mass: r.f64()?,
            offset: usize::try_from(r.u64()?).ok()?,
        },
        _ => return None,
    };
    shape.fits(items).then_some(shape)
}

/// A manifest buffer holding the header words and then the `section`
/// tag: the payload is written after them, and
/// [`write_manifest`] appends the CRC-32C in place.
pub(crate) fn manifest_writer(section: u32) -> WordWriter {
    let mut w = WordWriter::new();
    for word in [MANIFEST_MAGIC, MANIFEST_VERSION, ENDIAN_MARK, 0, section] {
        w.u32(word);
    }
    w
}

/// Seals a manifest [`manifest_writer`] began: appends the CRC-32C of
/// every word before it to the same buffer.
fn append_crc(w: &mut WordWriter) {
    let crc = crc32c(w.words());
    w.u32(crc);
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

/// Seals the manifest `w` holds and writes it atomically through
/// [`write_word_file`] (`.tmp` sibling → fsync → rename → directory
/// fsync): a crash at any point leaves either the previous generation or
/// the complete new one, never a torn file. Older generations beyond
/// [`KEEP_GENERATIONS`] are pruned afterwards.
pub(crate) fn write_manifest(
    dir: &Path,
    slice: u64,
    mut w: WordWriter,
) -> Result<PathBuf, CheckpointError> {
    append_crc(&mut w);
    fs::create_dir_all(dir)?;
    let final_path = dir.join(manifest_name(slice));
    write_word_file(&final_path, w.words())?;
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
        let mut w = manifest_writer(SECTION_SERVICE);
        self.export_state(&mut w)?;
        write_manifest(dir.as_ref(), self.slices_run(), w)
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
        let mut svc = restore_first_valid(dir.as_ref(), |r| decode_service(r, threads))?;
        svc.build_samplers();
        Ok(svc)
    }
}

/// Decodes a bare service manifest's payload. Tenants decode front to
/// back with no length prefix, so a part that reads fewer words than it
/// wrote shows as words left over, and fails the decode.
fn decode_service(r: &mut WordReader<'_>, threads: usize) -> Option<ServeLoop> {
    if r.u32()? != SECTION_SERVICE {
        return None;
    }
    let svc = ServeLoop::import_state(r, threads)?;
    r.is_empty().then_some(svc)
}

/// Walks manifests newest-first handing each unsealed payload to
/// `try_restore` until one fully validates. A file that cannot be read
/// or unsealed, or a `None` from `try_restore`, falls back to the next
/// older generation.
pub(crate) fn restore_first_valid<T>(
    dir: &Path,
    mut try_restore: impl FnMut(&mut WordReader<'_>) -> Option<T>,
) -> Result<T, CheckpointError> {
    for path in manifest_paths(dir)? {
        let Ok(words) = read_word_file(&path) else {
            continue;
        };
        if let Some(v) = unseal(&words).and_then(|p| try_restore(&mut WordReader::new(p))) {
            return Ok(v);
        }
    }
    Err(CheckpointError::NoValidManifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sealed service manifest whose payload after the section tag is
    /// `body`, built the way a checkpoint builds one.
    fn sealed(body: &[u32]) -> Vec<u32> {
        let mut w = manifest_writer(SECTION_SERVICE);
        for &word in body {
            w.u32(word);
        }
        append_crc(&mut w);
        w.into_words()
    }

    #[test]
    fn seal_and_unseal_round_trip() {
        let words = sealed(&[7, 8, 9, 0xDEAD_BEEF]);
        assert_eq!(words.len(), HEADER_WORDS + 6, "header, section, body, crc");
        assert_eq!(
            unseal(&words),
            Some(&[SECTION_SERVICE, 7, 8, 9, 0xDEAD_BEEF][..])
        );
    }

    #[test]
    fn unseal_rejects_every_header_and_crc_tamper() {
        let words = sealed(&[1, 2, 3]);
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
        // Version skew with a valid crc, versions 1 and 2 included.
        for version in [1, 2, MANIFEST_VERSION + 1] {
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
            let mut w = manifest_writer(SECTION_SERVICE);
            w.u32(slice as u32);
            write_manifest(&dir, slice, w).unwrap();
        }
        fs::write(dir.join("manifest-99999999999999999999.bcp.tmp"), b"torn").unwrap();
        let paths = manifest_paths(&dir).unwrap();
        // KEEP_GENERATIONS prunes the oldest of the three.
        assert_eq!(paths.len(), KEEP_GENERATIONS);
        assert!(paths[0].to_str().unwrap().contains(&manifest_name(12)));
        assert!(paths[1].to_str().unwrap().contains(&manifest_name(7)));
        let words = read_word_file(&paths[0]).unwrap();
        assert_eq!(unseal(&words), Some(&[SECTION_SERVICE, 12][..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_payload_word_set_to_an_extreme_panics_the_decode_or_allocates_past_a_cap() {
        use crate::tenant::TenantConfig;
        use bcast_types::alloc_counter::take_largest_allocation;
        use bcast_types::SloSpec;
        use bcast_workloads::{brownout_channel, DemandShape, DemandSpec};
        /// No decode of this manifest may ask for a larger block: a
        /// count that reserves ahead of what it decodes (1,024 tenant
        /// runtimes are 5.7 MB) fails it.
        const CAP: usize = 64 << 10;
        // A real manifest: two 64-item tenants, tenant 1 on the brownout
        // channel, past the slice-8 full republish so that both programs
        // are embedded.
        let mut svc = ServeLoop::new(0xF022, 1);
        for id in 0..2 {
            svc.join(TenantConfig::new(id, 64));
            let (faults, slo) = match id {
                0 => (None, SloSpec::lossless()),
                _ => (Some(brownout_channel()), SloSpec::degraded(0.5, 8.0)),
            };
            let demand = DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, 300);
            svc.tenant_mut(id)
                .unwrap()
                .begin_phase(demand, faults, slo, 12);
        }
        svc.run_slices(10);
        let mut w = manifest_writer(SECTION_SERVICE);
        svc.export_state(&mut w).unwrap();
        append_crc(&mut w);
        let words = w.into_words();
        let decode =
            |words: &[u32]| unseal(words).and_then(|p| decode_service(&mut WordReader::new(p), 1));
        take_largest_allocation();
        assert!(decode(&words).is_some(), "the untampered manifest restores");
        let honest = take_largest_allocation();
        assert!(honest <= CAP, "{honest} bytes");
        // Each payload word in turn at u32::MAX and at 0, with the CRC
        // resealed, so only the decode's own checks stand in the way.
        let last = words.len() - 1;
        let mut tampered = words.clone();
        let mut refused = 0;
        for at in HEADER_WORDS..last {
            for value in [u32::MAX, 0] {
                tampered.copy_from_slice(&words);
                tampered[at] = value;
                tampered[last] = crc32c(&tampered[..last]);
                take_largest_allocation();
                refused += usize::from(decode(&tampered).is_none());
                let size = take_largest_allocation();
                assert!(
                    size <= CAP,
                    "word {at} = {value:#x}: a {size}-byte allocation"
                );
            }
        }
        assert!(refused > last, "most tampers are refused: {refused}");
    }
}
