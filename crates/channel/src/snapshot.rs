//! Zero-copy program snapshots: a versioned, checksummed, fixed-layout
//! binary image of a [`CompiledProgram`] plus the serving metadata a
//! tenant needs to cold-start.
//!
//! A cold tenant boot normally pays a full publish — heuristic schedule,
//! feasibility sweep, route compilation — which is ~0.4 s warm at one
//! million items. Everything that publish produces, though, is a few
//! flat `u32` arrays; persisting them turns the next boot into a file
//! map, a checksum, and a column zip. The image is *fixed-layout by
//! construction*: loading is a bounds-check-and-cast, never a parse, and
//! [`MappedSnapshot`] validates the page cache's copy in place without
//! ever materializing a second one.
//!
//! # Format
//!
//! A snapshot is a sequence of little-endian `u32` words:
//!
//! ```text
//! word  0   magic        0x42435053
//! word  1   version      1
//! word  2   endian mark  0x01020304 (readers on any byte order agree)
//! word  3   k            broadcast channels of the publish
//! word  4   cycle_len    slots per broadcast cycle
//! word  5   n            nodes covered by the route tables
//! word  6   num_data     routed data nodes
//! word  7   reserved     0
//! then      slot[n]      T(Di) column (1-based; 0 = unrouted)
//! then      route[n]     path_len in the low 16 bits, channel switches
//!                        in the high 16 (a program's own route word:
//!                        its producers reject trees deeper than
//!                        MAX_ROUTE_DEPTH, so both fields always fit)
//! then      data[num_data] data-node ids, item order (the tenant's
//!                          item → node map)
//! last      crc          CRC-32C over every preceding word's LE bytes
//! ```
//!
//! Packing the two metric counters into one route word cuts the 1M-item
//! image from ~20 MB to ~15 MB; at cold-start the dominant cost is
//! faulting the image through the CPU, so bytes saved are microseconds
//! saved.
//!
//! # Versioning and endianness
//!
//! The header pins all three compatibility axes. An unknown `magic` or
//! `version` fails closed ([`SnapshotError::BadMagic`] /
//! [`SnapshotError::UnsupportedVersion`]) — version 1 readers never
//! guess at future layouts. The endian mark is written as the native
//! byte interpretation of `0x01020304`; since the format is defined as
//! little-endian and [`SnapshotImage::from_bytes`] decodes words with
//! explicit LE reads, the mark is a tripwire for images produced by a
//! (hypothetical) writer that dumped native big-endian memory instead
//! of the defined layout.
//!
//! # Integrity
//!
//! The trailing word seals the image with CRC-32C (Castagnoli, the
//! polynomial with hardware support on x86_64 SSE4.2 — the checker runs
//! three interleaved `crc32` instruction streams merged with a GF(2)
//! combine when available and a compile-time table otherwise, and the
//! two are property-tested equal). A truncated file,
//! a flipped bit, or a wrong-length column region is always a typed
//! [`SnapshotError`], never a silently wrong route table; beyond the
//! checksum, [`SnapshotView::new`] re-validates the structural
//! invariants the serving kernel relies on (every slot within the
//! cycle, sentinel count matching `num_data`, every data id routed).

use crate::compiled::CompiledProgram;
use bcast_types::crc::crc32c;
use bcast_types::NodeId;
use std::fmt;
use std::path::{Path, PathBuf};

/// First word of every snapshot image.
pub const SNAPSHOT_MAGIC: u32 = 0x4243_5053;
/// Format version this module writes and the only one it reads.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Byte-order tripwire (see the module docs).
const ENDIAN_MARK: u32 = 0x0102_0304;
/// Header words before the column regions.
const HEADER_WORDS: usize = 8;

/// Why a snapshot image was rejected. Every variant is fail-closed: a
/// rejected image yields no program at all, never a partial one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than a header plus checksum — nothing to validate.
    TooShort,
    /// Byte length is not a whole number of `u32` words.
    NotWordSized(usize),
    /// First word is not [`SNAPSHOT_MAGIC`].
    BadMagic(u32),
    /// Version word names a layout this reader does not know.
    UnsupportedVersion(u32),
    /// The endian tripwire word was byte-swapped (see the module docs).
    BadEndianMark(u32),
    /// Header counts disagree with the actual image length.
    LengthMismatch {
        /// Words the header's `n`/`num_data` imply.
        expected_words: usize,
        /// Words actually present.
        found_words: usize,
    },
    /// The trailing CRC-32C does not match the image contents.
    ChecksumMismatch {
        /// CRC computed over the received words.
        expected: u32,
        /// CRC carried by the image.
        found: u32,
    },
    /// The image decodes structurally but violates a route-table
    /// invariant the serving kernel relies on.
    Corrupt(&'static str),
    /// The underlying file operation failed.
    Io(std::io::ErrorKind),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than header + checksum"),
            SnapshotError::NotWordSized(len) => {
                write!(f, "snapshot length {len} is not a multiple of 4 bytes")
            }
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:#010x}"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadEndianMark(m) => {
                write!(f, "byte-swapped snapshot (endian mark {m:#010x})")
            }
            SnapshotError::LengthMismatch {
                expected_words,
                found_words,
            } => write!(
                f,
                "snapshot length mismatch (header implies {expected_words} words, found {found_words})"
            ),
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch (computed {expected:#010x}, carried {found:#010x})"
            ),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::Io(kind) => write!(f, "snapshot io error: {kind}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.kind())
    }
}

/// An owned snapshot image: the word buffer exactly as it lives on disk
/// (modulo byte order — words are held natively, serialized LE).
///
/// Capturing, saving, loading and validating are all methods here;
/// [`view`](SnapshotImage::view) produces the borrowed, validated
/// [`SnapshotView`] that actual consumers read through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotImage {
    words: Vec<u32>,
}

impl SnapshotImage {
    /// Captures `program` (published on `channels` channels, serving the
    /// item catalog `data_nodes`, in item order) into an image, sealing
    /// it with the trailing CRC-32C.
    ///
    /// # Panics
    /// Panics if `data_nodes` disagrees with the program's routed-node
    /// count — the caller hands in the catalog of the publish that
    /// produced `program`, so a mismatch is a programming error.
    pub fn capture(program: &CompiledProgram, channels: usize, data_nodes: &[NodeId]) -> Self {
        let num_data = program.num_data_nodes();
        assert_eq!(
            data_nodes.len(),
            num_data,
            "catalog size must match the program's routed nodes"
        );
        let records = program.records();
        let n = records.len();
        let mut words = Vec::with_capacity(HEADER_WORDS + 2 * n + num_data + 1);
        words.extend_from_slice(&[
            SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            ENDIAN_MARK,
            u32::try_from(channels).expect("channel count fits u32"),
            program.cycle_len() as u32,
            u32::try_from(n).expect("node count fits u32"),
            u32::try_from(num_data).expect("data count fits u32"),
            0,
        ]);
        words.extend(records.iter().map(|&[slot, _]| slot));
        words.extend(records.iter().map(|&[_, route]| route));
        words.extend(data_nodes.iter().map(|d| d.0));
        words.push(crc32c(&words));
        SnapshotImage { words }
    }

    /// Decodes an image from its on-disk byte serialization. Only the
    /// word framing is checked here; header, checksum and invariants are
    /// [`view`](SnapshotImage::view)'s job, so a caller holding bytes
    /// from an untrusted source gets every failure as a typed error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if !bytes.len().is_multiple_of(4) {
            return Err(SnapshotError::NotWordSized(bytes.len()));
        }
        let mut words = vec![0u32; bytes.len() / 4];
        // SAFETY: `u32` is plain old data; the byte view covers exactly
        // the buffer we just allocated.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), bytes.len()) };
        dst.copy_from_slice(bytes);
        #[cfg(target_endian = "big")]
        for w in &mut words {
            *w = u32::from_le(*w);
        }
        Ok(SnapshotImage { words })
    }

    /// The on-disk byte serialization (little-endian words).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Writes the image to `path` through [`write_word_file`]: a failed
    /// or interrupted save leaves the previous file at `path` intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        write_word_file(path.as_ref(), &self.words)?;
        Ok(())
    }

    /// Reads an image from `path` through [`read_word_file`] (framing
    /// only; validate via [`view`](SnapshotImage::view)). For a boot
    /// path that never needs an owned copy at all, use
    /// [`MappedSnapshot::open`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Ok(SnapshotImage {
            words: read_word_file(path.as_ref())?,
        })
    }

    /// Size of the serialized image in bytes.
    pub fn byte_len(&self) -> usize {
        self.words.len() * 4
    }

    /// The image's native word buffer — embedding an image inside a
    /// larger word-oriented container (the serve crate's checkpoint
    /// manifest) copies these directly, no byte re-framing.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Rewraps a word buffer as an image. Framing-only, exactly like
    /// [`from_bytes`](SnapshotImage::from_bytes) — header, checksum and
    /// invariants are still [`view`](SnapshotImage::view)'s job.
    pub fn from_words(words: Vec<u32>) -> Self {
        SnapshotImage { words }
    }

    /// Validates the image and borrows it as a [`SnapshotView`].
    pub fn view(&self) -> Result<SnapshotView<'_>, SnapshotError> {
        SnapshotView::new(&self.words)
    }
}

/// Writes `words` to `path` as little-endian bytes, crash-safely: the
/// bytes go to a `.tmp` sibling, which is fsynced and renamed over
/// `path`, and then the directory is fsynced. A crash or error at any
/// step leaves either the previous file or the complete new one at
/// `path`, never a torn file. Snapshots and the serve crate's checkpoint
/// manifests are both written through here.
pub fn write_word_file(path: &Path, words: &[u32]) -> std::io::Result<()> {
    use std::io::Write as _;
    // On a little-endian host the file bytes are the words' own memory,
    // so multi-megabyte images are written without a byte-copy pass.
    #[cfg(target_endian = "little")]
    // SAFETY: every u32 is 4 valid initialized bytes; alignment of u8 is 1.
    let bytes: &[u8] =
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 4) };
    #[cfg(not(target_endian = "little"))]
    let bytes_buf: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    #[cfg(not(target_endian = "little"))]
    let bytes: &[u8] = &bytes_buf;
    let mut tmp_path = path.as_os_str().to_owned();
    tmp_path.push(".tmp");
    let tmp_path = PathBuf::from(tmp_path);
    {
        let mut file = std::fs::File::create(&tmp_path)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp_path, path)?;
    // Make the rename itself durable before reporting success.
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Reads a little-endian word file (as [`write_word_file`] writes it)
/// into native words. The file is read straight into the word buffer —
/// one copy, no intermediate byte vector — and the buffer is sized from
/// the file's own length. Framing only: a length that is not a whole
/// number of words is [`SnapshotError::NotWordSized`], and what the words
/// mean is the caller's to validate.
pub fn read_word_file(path: &Path) -> Result<Vec<u32>, SnapshotError> {
    use std::io::Read as _;
    let mut file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| SnapshotError::Io(std::io::ErrorKind::FileTooLarge))?;
    if !len.is_multiple_of(4) {
        return Err(SnapshotError::NotWordSized(len));
    }
    let mut words = vec![0u32; len / 4];
    // SAFETY: `u32` is plain old data; the byte view covers exactly the
    // buffer we just allocated.
    let dst = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
    file.read_exact(dst)?;
    #[cfg(target_endian = "big")]
    for w in &mut words {
        *w = u32::from_le(*w);
    }
    Ok(words)
}

/// A validated, zero-copy window over a snapshot's words: the column
/// regions are subslices of the image, borrowed, never re-allocated.
/// Constructing one performs the full validation (header, length,
/// CRC-32C, route-table invariants); everything after that is
/// infallible.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    channels: u32,
    cycle_len: u32,
    slot: &'a [u32],
    route: &'a [u32],
    data_nodes: &'a [u32],
}

impl<'a> SnapshotView<'a> {
    /// Validates `words` as a version-1 snapshot image. The checks run
    /// in cheapest-first order; each failure names exactly what broke.
    pub fn new(words: &'a [u32]) -> Result<Self, SnapshotError> {
        if words.len() < HEADER_WORDS + 1 {
            return Err(SnapshotError::TooShort);
        }
        if words[0] != SNAPSHOT_MAGIC {
            // A byte-swapped magic means the whole image is byte-swapped;
            // report that specifically before the generic bad-magic case.
            if words[0] == SNAPSHOT_MAGIC.swap_bytes() {
                return Err(SnapshotError::BadEndianMark(words[2]));
            }
            return Err(SnapshotError::BadMagic(words[0]));
        }
        if words[1] != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(words[1]));
        }
        if words[2] != ENDIAN_MARK {
            return Err(SnapshotError::BadEndianMark(words[2]));
        }
        let channels = words[3];
        let cycle_len = words[4];
        let n = words[5] as usize;
        let num_data = words[6] as usize;
        let expected_words = HEADER_WORDS + 2 * n + num_data + 1;
        if words.len() != expected_words {
            return Err(SnapshotError::LengthMismatch {
                expected_words,
                found_words: words.len(),
            });
        }
        let expected = crc32c(&words[..words.len() - 1]);
        let found = words[words.len() - 1];
        if expected != found {
            return Err(SnapshotError::ChecksumMismatch { expected, found });
        }

        // The bounds-check-and-cast: columns are subslices of the image.
        let slot = &words[HEADER_WORDS..HEADER_WORDS + n];
        let route = &words[HEADER_WORDS + n..HEADER_WORDS + 2 * n];
        let data_nodes = &words[HEADER_WORDS + 2 * n..HEADER_WORDS + 2 * n + num_data];

        // Route-table invariants the serving kernel relies on. The CRC
        // already rules out transport corruption; these rule out a
        // well-sealed image of a program that was never valid. The scans
        // are branchless folds (max / count / all) so the compiler can
        // vectorize them — this runs on the boot path at full image
        // width — with a slow second pass only on failure to name the
        // exact violation.
        if num_data > n {
            return Err(SnapshotError::Corrupt("more data nodes than nodes"));
        }
        if channels == 0 && n > 0 {
            return Err(SnapshotError::Corrupt("routed program on zero channels"));
        }
        let mut max_slot = 0u32;
        let mut routed = 0usize;
        for &s in slot {
            max_slot = max_slot.max(s);
            routed += usize::from(s != 0);
        }
        if max_slot > cycle_len {
            return Err(SnapshotError::Corrupt("slot beyond the cycle"));
        }
        if routed != num_data {
            return Err(SnapshotError::Corrupt(
                "sentinel count disagrees with num_data",
            ));
        }
        let mut all_routed = true;
        for &d in data_nodes {
            all_routed &= slot.get(d as usize).is_some_and(|&s| s != 0);
        }
        if !all_routed {
            for &d in data_nodes {
                if slot.get(d as usize).is_none() {
                    return Err(SnapshotError::Corrupt("catalog id outside the node table"));
                }
            }
            return Err(SnapshotError::Corrupt("catalog id is not a routed node"));
        }
        Ok(SnapshotView {
            channels,
            cycle_len,
            slot,
            route,
            data_nodes,
        })
    }

    /// Broadcast channels of the publish that produced the program.
    pub fn channels(&self) -> usize {
        self.channels as usize
    }

    /// Cycle length in slots.
    pub fn cycle_len(&self) -> u32 {
        self.cycle_len
    }

    /// Nodes covered by the route tables.
    pub fn num_nodes(&self) -> usize {
        self.slot.len()
    }

    /// Routed data nodes (the catalog size).
    pub fn num_data(&self) -> usize {
        self.data_nodes.len()
    }

    /// The item → data-node map, in item order.
    pub fn data_nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.data_nodes.iter().map(|&d| NodeId(d))
    }

    /// Reconstructs the compiled program by zipping the slot and route
    /// columns into its `[slot, route]` records — the entire cost of
    /// installing a snapshot beyond the file map and checksum.
    pub fn to_program(&self) -> CompiledProgram {
        CompiledProgram::from_columns(self.cycle_len, self.slot, self.route, self.num_data())
    }
}

/// A read-only memory mapping of a snapshot file: the zero-copy load
/// path. Where [`SnapshotImage::load`] copies the file into an owned
/// buffer, `open` maps the page cache's copy directly and
/// [`view`](MappedSnapshot::view) validates it in place — a 1M-item
/// cold-start touches each image byte exactly once, for the checksum.
///
/// The mapping is private to this process, but it still windows the
/// file: truncating the file while mapped is undefined behaviour at the
/// OS level (`SIGBUS` on access). Callers own the file's lifecycle, as
/// they do for any mapped file; the boot paths here read images they
/// wrote themselves.
///
/// On targets without the fast path (non-Unix, or big-endian hosts
/// where the little-endian words must be swapped anyway) the type
/// transparently falls back to an owned [`SnapshotImage`] — same API,
/// one extra copy.
#[cfg(all(unix, target_endian = "little"))]
#[derive(Debug)]
pub struct MappedSnapshot {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime,
// so sharing or sending it across threads is no different from an
// owned, never-written buffer.
#[cfg(all(unix, target_endian = "little"))]
unsafe impl Send for MappedSnapshot {}
#[cfg(all(unix, target_endian = "little"))]
unsafe impl Sync for MappedSnapshot {}

/// Raw bindings for the three calls the mapping needs. The workspace
/// vendors no `libc` crate; the platform C library is always linked, so
/// declaring the symbols directly is dependency-free.
#[cfg(all(unix, target_endian = "little"))]
mod mm {
    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;
    /// Linux: fault the whole mapping in up front (readahead included),
    /// so the validation pass that follows never minor-faults per page.
    #[cfg(target_os = "linux")]
    pub const MAP_POPULATE: i32 = 0x8000;
    #[cfg(not(target_os = "linux"))]
    pub const MAP_POPULATE: i32 = 0;
    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
}

#[cfg(all(unix, target_endian = "little"))]
impl MappedSnapshot {
    /// Maps the snapshot file at `path` read-only. Framing only, like
    /// [`SnapshotImage::load`]; validation is
    /// [`view`](MappedSnapshot::view)'s job.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).expect("snapshot fits in memory");
        if len % 4 != 0 {
            return Err(SnapshotError::NotWordSized(len));
        }
        if len == 0 {
            return Err(SnapshotError::TooShort);
        }
        // SAFETY: a fresh read-only shared mapping of `len` bytes; the
        // fd may close after this call (the mapping holds its own
        // reference to the file).
        let ptr = unsafe {
            mm::mmap(
                std::ptr::null_mut(),
                len,
                mm::PROT_READ,
                mm::MAP_SHARED | mm::MAP_POPULATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(SnapshotError::Io(std::io::Error::last_os_error().kind()));
        }
        Ok(MappedSnapshot { ptr, len })
    }

    /// The mapped image as words. The format is little-endian and so is
    /// this target (the `cfg` above), so the cast is the identity.
    pub fn words(&self) -> &[u32] {
        // SAFETY: mmap returns page-aligned (hence u32-aligned) memory;
        // the mapping is `len` bytes, lives as long as `self`, and
        // `len % 4 == 0` was checked at open.
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u32>(), self.len / 4) }
    }

    /// Size of the mapped image in bytes.
    pub fn byte_len(&self) -> usize {
        self.len
    }

    /// Validates the mapping in place as a [`SnapshotView`].
    pub fn view(&self) -> Result<SnapshotView<'_>, SnapshotError> {
        SnapshotView::new(self.words())
    }
}

#[cfg(all(unix, target_endian = "little"))]
impl Drop for MappedSnapshot {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are the exact mapping from `open`.
        unsafe { mm::munmap(self.ptr, self.len) };
    }
}

/// Fallback for targets without the mapped fast path: an owned image
/// behind the same API.
#[cfg(not(all(unix, target_endian = "little")))]
#[derive(Debug)]
pub struct MappedSnapshot {
    image: SnapshotImage,
}

#[cfg(not(all(unix, target_endian = "little")))]
impl MappedSnapshot {
    /// Loads the snapshot file at `path` into an owned buffer (this
    /// target has no zero-copy path). Framing only; validation is
    /// [`view`](MappedSnapshot::view)'s job.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Ok(MappedSnapshot {
            image: SnapshotImage::load(path)?,
        })
    }

    /// The loaded image as words.
    pub fn words(&self) -> &[u32] {
        &self.image.words
    }

    /// Size of the loaded image in bytes.
    pub fn byte_len(&self) -> usize {
        self.image.byte_len()
    }

    /// Validates the image as a [`SnapshotView`].
    pub fn view(&self) -> Result<SnapshotView<'_>, SnapshotError> {
        self.image.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::program::BroadcastProgram;
    use bcast_index_tree::builders;

    fn compiled() -> (CompiledProgram, Vec<NodeId>) {
        let t = builders::paper_example();
        let slots: Vec<Vec<NodeId>> = [
            vec!["1"],
            vec!["2", "3"],
            vec!["A", "B"],
            vec!["4", "E"],
            vec!["C", "D"],
        ]
        .iter()
        .map(|ls| {
            ls.iter()
                .map(|l| t.find_by_label(l).expect("label exists"))
                .collect()
        })
        .collect();
        let a = Allocation::from_slot_schedule(&slots, &t, 2).unwrap();
        let p = BroadcastProgram::build(&a, &t).unwrap();
        (
            CompiledProgram::compile(&p, &t).unwrap(),
            t.data_nodes().to_vec(),
        )
    }

    #[test]
    fn roundtrip_is_exact_equality() {
        let (program, data) = compiled();
        let image = SnapshotImage::capture(&program, 2, &data);
        let view = image.view().unwrap();
        assert_eq!(view.channels(), 2);
        assert_eq!(view.cycle_len() as usize, program.cycle_len());
        assert_eq!(view.num_data(), program.num_data_nodes());
        assert_eq!(view.data_nodes().collect::<Vec<_>>(), data);
        assert_eq!(view.to_program(), program);
    }

    #[test]
    fn format_v1_is_pinned_word_for_word() {
        // The Fig-2b program's version-1 image, word for word: snapshot
        // files and the checkpoint manifests that embed them stay readable
        // across builds only while this holds.
        let (program, data) = compiled();
        let image = SnapshotImage::capture(&program, 2, &data);
        #[rustfmt::skip]
        let v1: [u32; 32] = [
            // magic, version, endian mark, k, cycle_len, n, num_data, 0
            0x4243_5053, 1, 0x0102_0304, 2, 5, 9, 5, 0,
            // slot[9]
            0, 0, 0, 3, 3, 4, 0, 5, 5,
            // route[9]: path_len | switches << 16
            0, 0, 0, 3, 65_539, 65_539, 0, 131_076, 196_612,
            // data[5], then the CRC-32C seal
            3, 4, 5, 7, 8, 3_929_272_066,
        ];
        assert_eq!(image.words(), &v1[..]);
        assert_eq!(image.view().unwrap().to_program(), program);
    }

    #[test]
    fn byte_serialization_roundtrips() {
        let (program, data) = compiled();
        let image = SnapshotImage::capture(&program, 2, &data);
        let back = SnapshotImage::from_bytes(&image.to_bytes()).unwrap();
        assert_eq!(back, image);
        assert_eq!(back.view().unwrap().to_program(), program);
    }

    #[test]
    fn file_roundtrip() {
        let (program, data) = compiled();
        let image = SnapshotImage::capture(&program, 2, &data);
        let path = std::env::temp_dir().join("bcast_snapshot_test.bin");
        image.save(&path).unwrap();
        let back = SnapshotImage::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, image);
    }

    #[test]
    fn failed_save_keeps_the_previous_snapshot() {
        let (program, data) = compiled();
        let image = SnapshotImage::capture(&program, 2, &data);
        let dir = std::env::temp_dir().join(format!("bcast-snapshot-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("program.snap");
        image.save(&path).unwrap();
        // A directory squatting on the temp sibling makes the next save
        // fail before it reaches `path`.
        std::fs::create_dir_all(dir.join("program.snap.tmp")).unwrap();
        let err = SnapshotImage::from_words(vec![0; 4])
            .save(&path)
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err:?}");
        assert_eq!(SnapshotImage::load(&path).unwrap(), image);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = SnapshotImage::load("/nonexistent/bcast.snap").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
    }

    #[test]
    fn every_truncation_fails_closed() {
        let (program, data) = compiled();
        let bytes = SnapshotImage::capture(&program, 2, &data).to_bytes();
        for cut in 0..bytes.len() {
            let result = SnapshotImage::from_bytes(&bytes[..cut]).and_then(|i| {
                i.view()?;
                Ok(())
            });
            assert!(result.is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn every_single_bit_flip_fails_closed() {
        let (program, data) = compiled();
        let bytes = SnapshotImage::capture(&program, 2, &data).to_bytes();
        let mut checksum_hits = 0usize;
        for byte in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut raw = bytes.clone();
                raw[byte] ^= 1 << bit;
                let image = SnapshotImage::from_bytes(&raw).unwrap();
                match image.view() {
                    Err(SnapshotError::ChecksumMismatch { expected, found }) => {
                        assert_ne!(expected, found);
                        checksum_hits += 1;
                    }
                    // Header-field flips may fail structurally first —
                    // any error is a detection.
                    Err(_) => {}
                    Ok(_) => panic!("byte {byte} bit {bit}: corruption decoded silently"),
                }
            }
        }
        assert!(checksum_hits > bytes.len(), "CRC barely exercised");
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        let (program, data) = compiled();
        let image = SnapshotImage::capture(&program, 2, &data);
        let mut words = image.words.clone();
        words[1] = 2;
        assert_eq!(
            SnapshotView::new(&words).unwrap_err(),
            SnapshotError::UnsupportedVersion(2)
        );
        let mut words = image.words.clone();
        words[0] = 0xDEAD_BEEF;
        assert_eq!(
            SnapshotView::new(&words).unwrap_err(),
            SnapshotError::BadMagic(0xDEAD_BEEF)
        );
        let swapped: Vec<u32> = image.words.iter().map(|w| w.swap_bytes()).collect();
        assert!(matches!(
            SnapshotView::new(&swapped).unwrap_err(),
            SnapshotError::BadEndianMark(_)
        ));
    }

    #[test]
    fn invariant_violations_are_corrupt_even_with_a_valid_seal() {
        let (program, data) = compiled();
        let image = SnapshotImage::capture(&program, 2, &data);
        // Point a slot beyond the cycle and re-seal — only the semantic
        // validation can catch this.
        let reseal = |mutate: &dyn Fn(&mut Vec<u32>)| {
            let mut words = image.words.clone();
            words.pop();
            mutate(&mut words);
            let crc = crc32c(&words);
            words.push(crc);
            words
        };
        let routed_at = (HEADER_WORDS..HEADER_WORDS + program.num_nodes())
            .find(|&i| image.words[i] != 0)
            .unwrap();
        let bad_slot = reseal(&|w: &mut Vec<u32>| w[routed_at] = w[4] + 1);
        assert_eq!(
            SnapshotView::new(&bad_slot).unwrap_err(),
            SnapshotError::Corrupt("slot beyond the cycle")
        );
        let bad_count = reseal(&|w: &mut Vec<u32>| w[routed_at] = 0);
        assert_eq!(
            SnapshotView::new(&bad_count).unwrap_err(),
            SnapshotError::Corrupt("sentinel count disagrees with num_data")
        );
        let n = program.num_nodes() as u32;
        let data_at = HEADER_WORDS + 2 * program.num_nodes();
        let bad_catalog = reseal(&|w: &mut Vec<u32>| w[data_at] = n);
        assert_eq!(
            SnapshotView::new(&bad_catalog).unwrap_err(),
            SnapshotError::Corrupt("catalog id outside the node table")
        );
        // Point the catalog at a node that exists but is unrouted (an
        // index node has slot 0).
        let unrouted = (0..program.num_nodes() as u32)
            .find(|&i| image.words[HEADER_WORDS + i as usize] == 0)
            .unwrap();
        let bad_target = reseal(&|w: &mut Vec<u32>| w[data_at] = unrouted);
        assert_eq!(
            SnapshotView::new(&bad_target).unwrap_err(),
            SnapshotError::Corrupt("catalog id is not a routed node")
        );
    }

    #[test]
    fn mapped_snapshot_matches_owned_load() {
        let (program, data) = compiled();
        let image = SnapshotImage::capture(&program, 2, &data);
        let path = std::env::temp_dir().join("bcast_snapshot_map_test.bin");
        image.save(&path).unwrap();
        let mapped = MappedSnapshot::open(&path).unwrap();
        assert_eq!(mapped.byte_len(), image.byte_len());
        assert_eq!(mapped.words(), &image.words[..]);
        assert_eq!(mapped.view().unwrap().to_program(), program);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            MappedSnapshot::open(&path).unwrap_err(),
            SnapshotError::Io(_)
        ));
    }

    #[test]
    fn mapped_snapshot_rejects_bad_framing() {
        let dir = std::env::temp_dir();
        let odd = dir.join("bcast_snapshot_map_odd.bin");
        std::fs::write(&odd, [1, 2, 3]).unwrap();
        assert_eq!(
            MappedSnapshot::open(&odd).unwrap_err(),
            SnapshotError::NotWordSized(3)
        );
        std::fs::remove_file(&odd).ok();
        let empty = dir.join("bcast_snapshot_map_empty.bin");
        std::fs::write(&empty, []).unwrap();
        assert_eq!(
            MappedSnapshot::open(&empty).unwrap_err(),
            SnapshotError::TooShort
        );
        std::fs::remove_file(&empty).ok();
    }
}
