//! Adversarial wire-format fuzzing: a receiver decoding a hostile or
//! damaged byte stream must fail *closed* — every truncation and bit flip
//! surfaces as a [`wire::WireError`], never a panic and never a silently
//! corrupted `Ok`. The per-bucket CRC32 trailer (PR 5) is what turns
//! "garbled pointer that mis-routes clients for a whole cycle" into an
//! immediate `ChecksumMismatch`.

use broadcast_alloc::alloc::heuristics::sorting;
use broadcast_alloc::alloc::publish::{PublishHeuristic, PublishOptions, Publisher};
use broadcast_alloc::channel::{wire, BroadcastProgram, SnapshotError, SnapshotImage};
use broadcast_alloc::serve::{ServeLoop, TenantConfig};
use broadcast_alloc::tree::{knary, IndexTree};
use broadcast_alloc::types::{crc::crc32c, ChannelId, SloSpec};
use broadcast_alloc::workloads::{DemandShape, DemandSpec, FrequencyDist};
use bytes::Bytes;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// A small but non-trivial encoded channel: random weights, 2 channels,
/// payloads of varying length so bucket framing is irregular.
fn encoded_channel(items: usize, seed: u64) -> Bytes {
    let weights = FrequencyDist::Zipf {
        theta: 0.8,
        scale: 100.0,
    }
    .sample(items.max(2), seed);
    let tree = knary::build_weight_balanced(&weights, 3).expect("non-empty weights");
    let k = 2;
    let schedule = sorting::sorting_schedule(&tree, k);
    let alloc = schedule.into_allocation(&tree, k).expect("feasible");
    let program = BroadcastProgram::build(&alloc, &tree).expect("valid program");
    wire::encode_channel(&program, ChannelId::FIRST, |n| {
        Bytes::from(vec![n.index() as u8; 1 + n.index() % 7])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Truncating the stream at *any* byte boundary either errors or — when
    /// the cut lands exactly between sealed buckets — yields a strict
    /// prefix of the genuine buckets. It never panics and never fabricates
    /// a bucket that was not broadcast.
    #[test]
    fn truncation_fails_closed_at_every_length(
        items in 2usize..10,
        seed in 0u64..10_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let encoded = encoded_channel(items, seed);
        let clean = wire::decode_channel(encoded.clone()).expect("self-produced stream decodes");
        let cut = ((encoded.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < encoded.len());
        match wire::decode_channel(encoded.slice(0..cut)) {
            // A cut between buckets is indistinguishable from a shorter
            // broadcast; every surviving bucket must still be genuine.
            Ok(prefix) => {
                prop_assert!(prefix.len() < clean.len());
                prop_assert_eq!(&prefix[..], &clean[..prefix.len()]);
            }
            Err(e) => {
                // Mid-bucket cuts are truncations; a cut inside the CRC
                // trailer can also read as a checksum mismatch. Formatting
                // the error exercises the Display impls.
                let _ = e.to_string();
            }
        }
    }

    /// Flipping any single bit anywhere in the stream is detected: the
    /// decode errors (almost always `ChecksumMismatch`; framing damage may
    /// surface as `Truncated`/`BadKind` first) and never returns the
    /// original bucket sequence as if nothing happened.
    #[test]
    fn single_bit_flips_never_decode_silently(
        items in 2usize..10,
        seed in 0u64..10_000,
        flip_pos in 0u64..1_000_000,
        bit in 0usize..8,
    ) {
        let encoded = encoded_channel(items, seed);
        let clean = wire::decode_channel(encoded.clone()).expect("clean stream decodes");
        let mut raw = encoded.to_vec();
        let pos = (flip_pos % raw.len() as u64) as usize;
        raw[pos] ^= 1 << bit;
        if let Ok(decoded) = wire::decode_channel(Bytes::from(raw)) {
            prop_assert!(
                decoded != clean,
                "bit {bit} of byte {pos} flipped yet the stream decoded unchanged"
            );
        }
    }

    /// Feeding completely arbitrary bytes into the bucket decoder never
    /// panics — it either rejects the garbage or parses some structurally
    /// valid (and CRC-consistent) bucket out of it.
    #[test]
    fn random_garbage_never_panics_the_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let mut stream = Bytes::from(bytes.clone());
        // Errors are expected and fine; what this pins is "no panic".
        let _ = wire::decode_bucket(&mut stream);
        let _ = wire::decode_channel(Bytes::from(bytes));
    }
}

// ---------------------------------------------------------------------------
// Program snapshots (PR 8) are the other wire format: a published
// program's binary image must fail closed under the same adversities —
// truncation, bit flips, version skew — and round-trip bit-identically
// when intact.
// ---------------------------------------------------------------------------

/// A published program's snapshot image over a random tree.
fn published_snapshot(items: usize, k: usize, seed: u64) -> (SnapshotImage, Publisher, IndexTree) {
    let weights = FrequencyDist::Zipf {
        theta: 0.8,
        scale: 100.0,
    }
    .sample(items.max(2), seed);
    let tree = knary::build_weight_balanced(&weights, 3).expect("non-empty weights");
    let mut publisher = Publisher::new();
    publisher
        .publish(
            &tree,
            k,
            PublishHeuristic::Sorting,
            PublishOptions::default(),
        )
        .expect("feasible");
    let image = SnapshotImage::capture(publisher.current(), k, tree.data_nodes());
    (image, publisher, tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Capture → serialize → decode → validate → install reproduces the
    /// published program *exactly* (`==`, not field-wise) along with the
    /// item catalog, for random trees and k ∈ {1,2,3}.
    #[test]
    fn snapshot_roundtrip_is_bit_identical(
        items in 2usize..30,
        k in 1usize..4,
        seed in 0u64..100_000,
    ) {
        let (image, publisher, tree) = published_snapshot(items, k, seed);
        let back = SnapshotImage::from_bytes(&image.to_bytes()).expect("word framing");
        let view = back.view().expect("self-captured image validates");
        prop_assert_eq!(view.channels(), k);
        prop_assert_eq!(
            view.data_nodes().collect::<Vec<_>>(),
            tree.data_nodes().to_vec()
        );
        prop_assert_eq!(&view.to_program(), publisher.current());
    }

    /// Truncating a snapshot at *any* byte boundary fails closed: a typed
    /// `SnapshotError`, never a panic, never a partial program.
    #[test]
    fn snapshot_truncation_fails_closed(
        items in 2usize..30,
        k in 1usize..4,
        seed in 0u64..100_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let (image, _, _) = published_snapshot(items, k, seed);
        let bytes = image.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < bytes.len());
        let result = SnapshotImage::from_bytes(&bytes[..cut]).and_then(|i| {
            i.view()?;
            Ok(())
        });
        prop_assert!(result.is_err(), "prefix of {} bytes accepted", cut);
        // Formatting the error exercises the Display impls.
        let _ = result.unwrap_err().to_string();
    }

    /// Flipping any single bit anywhere in a snapshot is detected at
    /// validation — the view errors, never decodes silently.
    #[test]
    fn snapshot_bit_flips_fail_closed(
        items in 2usize..30,
        k in 1usize..4,
        seed in 0u64..100_000,
        flip_pos in 0u64..1_000_000,
        bit in 0usize..8,
    ) {
        let (image, _, _) = published_snapshot(items, k, seed);
        let mut bytes = image.to_bytes();
        let pos = (flip_pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let result = SnapshotImage::from_bytes(&bytes).and_then(|i| {
            i.view()?;
            Ok(())
        });
        prop_assert!(
            result.is_err(),
            "bit {} of byte {} flipped yet the snapshot validated",
            bit,
            pos
        );
    }

    /// Arbitrary bytes fed to the snapshot decoder never panic — garbage
    /// is rejected with a typed error (or, vanishingly, happens to be a
    /// valid image; what this pins is "no panic").
    #[test]
    fn snapshot_garbage_never_panics(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let _ = SnapshotImage::from_bytes(&bytes).and_then(|i| {
            i.view()?;
            Ok(())
        });
    }
}

/// Deterministic companion: a snapshot stamped with a future format
/// version is refused up front — version 1 readers never guess at
/// layouts they do not know — and the same goes for a foreign magic.
#[test]
fn snapshot_version_and_magic_skew_are_refused() {
    let (image, _, _) = published_snapshot(6, 2, 7);
    let mut bytes = image.to_bytes();
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes()); // version word
    let err = SnapshotImage::from_bytes(&bytes)
        .and_then(|i| i.view().map(|_| ()))
        .unwrap_err();
    assert_eq!(err, SnapshotError::UnsupportedVersion(2));

    let mut bytes = image.to_bytes();
    bytes[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes()); // magic word
    let err = SnapshotImage::from_bytes(&bytes)
        .and_then(|i| i.view().map(|_| ()))
        .unwrap_err();
    assert_eq!(err, SnapshotError::BadMagic(0xDEAD_BEEF));
}

/// Deterministic companion: chop an encoded channel *inside the CRC
/// trailer* of its final bucket and check the specific error taxonomy —
/// structural bytes intact, checksum unreadable → `Truncated`.
#[test]
fn missing_crc_trailer_reads_as_truncation() {
    let encoded = encoded_channel(5, 42);
    for missing in 1..=4 {
        let cut = encoded.len() - missing;
        let err = wire::decode_channel(encoded.slice(0..cut))
            .expect_err("a bucket without its full CRC cannot decode");
        assert_eq!(err, wire::WireError::Truncated, "missing {missing} bytes");
    }
}

// ---------------------------------------------------------------------------
// Checkpoint manifests (PR 10) are the third wire format: the crash-safe
// service's on-disk state. The bar is stricter than fail-closed — a
// damaged *newest* manifest must fall back to the previous good
// generation (truncation, bit flips, version skew, a torn `.tmp` from a
// crashed rename), and only a directory with no valid manifest at all
// may error. Never fail open, never resume from damaged state.
// ---------------------------------------------------------------------------

/// Two checkpoint generations of a small service — gen A at 2 slices,
/// gen B at 4 — plus the per-tenant snapshots a gen-A restore must
/// reproduce. Built once; the fuzz cases rewrite them into scratch
/// directories.
struct ManifestFixture {
    gen_a_name: String,
    gen_a: Vec<u8>,
    gen_b_name: String,
    gen_b: Vec<u8>,
    gen_a_snapshots: Vec<(u64, broadcast_alloc::types::SloSnapshot)>,
}

fn snapshots(svc: &ServeLoop) -> Vec<(u64, broadcast_alloc::types::SloSnapshot)> {
    svc.tenants()
        .iter()
        .map(|t| (t.id(), t.phase_snapshot()))
        .collect()
}

fn manifest_fixture() -> &'static ManifestFixture {
    static FIXTURE: OnceLock<ManifestFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("bcast-mfx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc = ServeLoop::new(0xF1F7, 1);
        for id in 0..2 {
            svc.join(TenantConfig::new(id, 24));
            svc.tenant_mut(id).unwrap().begin_phase(
                DemandSpec::flat(DemandShape::Zipf { theta: 0.9 }, 120),
                None,
                SloSpec::lossless(),
                8,
            );
        }
        svc.run_slices(2);
        let gen_a_path = svc.checkpoint(&dir).unwrap();
        let gen_a = std::fs::read(&gen_a_path).unwrap();
        let gen_a_snapshots = snapshots(&svc);
        svc.run_slices(2);
        let gen_b_path = svc.checkpoint(&dir).unwrap();
        let gen_b = std::fs::read(&gen_b_path).unwrap();
        let name = |p: &Path| p.file_name().unwrap().to_str().unwrap().to_string();
        let fixture = ManifestFixture {
            gen_a_name: name(&gen_a_path),
            gen_a,
            gen_b_name: name(&gen_b_path),
            gen_b,
            gen_a_snapshots,
        };
        let _ = std::fs::remove_dir_all(&dir);
        fixture
    })
}

/// Writes gen A intact and gen B as `newest_bytes` into a fresh scratch
/// directory, returning its path.
fn stage_generations(tag: &str, newest_bytes: &[u8]) -> PathBuf {
    let f = manifest_fixture();
    let dir = std::env::temp_dir().join(format!("bcast-mf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(&f.gen_a_name), &f.gen_a).unwrap();
    std::fs::write(dir.join(&f.gen_b_name), newest_bytes).unwrap();
    dir
}

/// Asserts that restoring from `dir` lands on gen A (the last good
/// generation): same slice counter, bit-identical tenant snapshots.
fn assert_restores_gen_a(dir: &Path, context: &str) {
    let f = manifest_fixture();
    let restored = ServeLoop::restore(dir, 1)
        .unwrap_or_else(|e| panic!("{context}: must fall back to gen A, got {e}"));
    assert_eq!(restored.slices_run(), 2, "{context}: wrong generation");
    assert_eq!(snapshots(&restored), f.gen_a_snapshots, "{context}");
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating the newest manifest at any byte boundary restores the
    /// previous generation — never the torn one, never an error.
    #[test]
    fn manifest_truncation_falls_back_to_last_good(cut_frac in 0.0f64..1.0) {
        let f = manifest_fixture();
        let cut = ((f.gen_b.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < f.gen_b.len());
        let dir = stage_generations("trunc", &f.gen_b[..cut]);
        assert_restores_gen_a(&dir, &format!("truncated to {cut} bytes"));
    }

    /// Flipping any single bit anywhere in the newest manifest is caught
    /// by the CRC seal and falls back to the previous generation.
    #[test]
    fn manifest_bit_flips_fall_back_to_last_good(
        flip_pos in 0u64..1_000_000,
        bit in 0usize..8,
    ) {
        let f = manifest_fixture();
        let mut bytes = f.gen_b.clone();
        let pos = (flip_pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let dir = stage_generations("flip", &bytes);
        assert_restores_gen_a(&dir, &format!("bit {bit} of byte {pos} flipped"));
    }
}

/// A manifest stamped with a future format version is refused even with
/// a *valid* CRC re-sealed over it — version skew is structural, and the
/// restore falls back rather than guessing at an unknown layout.
#[test]
fn manifest_version_skew_falls_back_even_with_valid_crc() {
    let f = manifest_fixture();
    let mut words: Vec<u32> = f
        .gen_b
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    words[1] += 1; // version word
    let last = words.len() - 1;
    words[last] = crc32c(&words[..last]); // re-seal so only the version is wrong
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let dir = stage_generations("skew", &bytes);
    assert_restores_gen_a(&dir, "version skew with re-sealed crc");
}

/// A crash between writing the temp file and renaming it leaves a stale
/// `.tmp` beside the previous manifest. Restore must ignore the temp —
/// even one whose content is a fully valid manifest — and serve the last
/// adopted generation.
#[test]
fn partial_rename_leaves_the_previous_generation_authoritative() {
    let f = manifest_fixture();
    let dir = std::env::temp_dir().join(format!("bcast-mf-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(&f.gen_a_name), &f.gen_a).unwrap();
    // The interrupted write: gen B's bytes still under their .tmp name.
    std::fs::write(dir.join(format!("{}.tmp", f.gen_b_name)), &f.gen_b).unwrap();
    assert_restores_gen_a(&dir, "stale .tmp beside the old manifest");
}

/// Arbitrary garbage under a manifest name (wrong length, no framing) is
/// skipped, not fatal.
#[test]
fn garbage_manifest_files_are_skipped() {
    let f = manifest_fixture();
    let dir = stage_generations("garbage", b"not a manifest at all\x01\x02\x03");
    let _ = f;
    assert_restores_gen_a(&dir, "garbage under the newest manifest name");
}

/// Corrupting a *payload* byte (not framing) is exactly the case headers
/// alone cannot catch — it must surface as `ChecksumMismatch`.
#[test]
fn payload_corruption_is_a_checksum_mismatch() {
    let encoded = encoded_channel(6, 7);
    // Walk buckets to find a data bucket's payload byte: re-decode the
    // clean stream, then flip the last body byte before the final CRC.
    let mut raw = encoded.to_vec();
    let n = raw.len();
    raw[n - 5] ^= 0x01; // last byte covered by the final bucket's CRC
    match wire::decode_channel(Bytes::from(raw)) {
        Err(wire::WireError::ChecksumMismatch { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}
