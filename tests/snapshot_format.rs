//! Snapshot persistence contract: a warmed `ProfileCache` saved to disk
//! and loaded back must serve byte-identical `top_k` rankings without
//! issuing a single SQL query, and every way a snapshot file can be
//! wrong — missing, truncated, any bit flipped, zeroed pairwise counts,
//! newer format version, an impossible pairwise size, warmed on a
//! different corpus — must surface as the right typed `HypreError`, never
//! a panic and never silently wrong results.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use hypre_bench::Fixture;
use hypre_repro::prelude::*;
use hypre_repro::relstore::Value;

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(Fixture::small)
}

/// A warmed cache + pairwise table over the rich user's profile, plus
/// the reference top-25 computed before any serialisation.
fn warmed() -> (ProfileCache, PairwiseCache, Vec<PrefAtom>, Vec<RankedTuple>) {
    let fx = fixture();
    let atoms = fx.graph.positive_profile(fx.rich_user);
    let exec = fx.executor();
    let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
    let want = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete)
        .top_k(25)
        .unwrap();
    (ProfileCache::snapshot(&exec), pairs, atoms, want)
}

/// A snapshot path in the temp dir, named per process, that is removed
/// when dropped: a test that panics before its load returns leaves no
/// file behind.
struct TempPath(PathBuf);

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp_path(name: &str) -> TempPath {
    TempPath(std::env::temp_dir().join(format!("hypre_{name}_{}.hyprsnap", std::process::id())))
}

/// Bytes of the trailing FNV-1a-64 checksum.
const CHECKSUM_LEN: usize = 8;

/// Recomputes the trailing checksum after a test overwrote a field, so
/// the load reaches the structural check the test is aimed at.
fn reseal(bytes: &mut [u8]) {
    let body_len = bytes.len() - CHECKSUM_LEN;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes[..body_len] {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[body_len..].copy_from_slice(&hash.to_le_bytes());
}

/// Writes `bytes` as a snapshot file and loads it against the fixture.
fn load_bytes(name: &str, bytes: &[u8]) -> Result<(ProfileCache, Option<PairwiseCache>)> {
    let path = temp_path(name);
    std::fs::write(&path, bytes).unwrap();
    ProfileCache::load_from(&path, &fixture().db)
}

#[test]
fn loaded_snapshot_serves_identical_top_k() {
    let fx = fixture();
    let (cache, pairs, atoms, want) = warmed();
    let path = temp_path("roundtrip");
    cache.save_to(&path, Some(&pairs)).unwrap();
    let (loaded, loaded_pairs) = ProfileCache::load_from(&path, &fx.db).unwrap();
    let loaded = Arc::new(loaded);
    let loaded_pairs = loaded_pairs.expect("pairwise table travelled with the snapshot");

    let session = Executor::with_cache(&fx.db, Arc::clone(&loaded)).unwrap();
    let top = Peps::new(&atoms, &session, &loaded_pairs, PepsVariant::Complete)
        .top_k(25)
        .unwrap();
    assert_eq!(top, want, "top_k diverged");
    assert_eq!(
        session.queries_run(),
        0,
        "a loaded snapshot must serve without SQL"
    );
}

#[test]
fn missing_snapshot_file_is_an_io_error() {
    let fx = fixture();
    let err = ProfileCache::load_from("/nonexistent/path/warm.hyprsnap", &fx.db).unwrap_err();
    assert!(matches!(err, HypreError::SnapshotIo { .. }), "{err:?}");
}

#[test]
fn truncated_snapshots_are_corrupt_at_every_tested_cut() {
    let fx = fixture();
    let (cache, pairs, _, _) = warmed();
    let path = temp_path("truncate");
    cache.save_to(&path, Some(&pairs)).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Cuts inside the magic, the version, the header sections and near
    // the end (the module's unit suite sweeps every byte; here we pin
    // the file-level behaviour end to end).
    for cut in [0, 4, 8, 10, bytes.len() / 3, bytes.len() - 1] {
        let path = temp_path("truncate_cut");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = ProfileCache::load_from(&path, &fx.db).unwrap_err();
        assert!(
            matches!(err, HypreError::SnapshotCorrupt { .. }),
            "cut at {cut}: {err:?}"
        );
    }
}

#[test]
fn a_pairwise_size_whose_triangle_overflows_is_corrupt() {
    // A 2-atom table ends the file before the checksum: u64 n, u64
    // count = 1, one 32-byte entry. Overwrite n with u64::MAX, whose
    // n(n−1)/2 overflows, and re-seal so the size check is reached.
    let fx = fixture();
    let atoms: Vec<PrefAtom> = fx.graph.positive_profile(fx.rich_user)[..2].to_vec();
    let exec = fx.executor();
    let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
    let path = temp_path("pair_size");
    ProfileCache::snapshot(&exec)
        .save_to(&path, Some(&pairs))
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let size_at = bytes.len() - CHECKSUM_LEN - 48;
    assert_eq!(bytes[size_at..size_at + 8], 2u64.to_le_bytes());
    bytes[size_at..size_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let err = ProfileCache::load_from(&path, &fx.db).unwrap_err();
    assert!(matches!(err, HypreError::SnapshotCorrupt { .. }), "{err:?}");
}

#[test]
fn bad_magic_and_trailing_garbage_are_corrupt() {
    let fx = fixture();
    let (cache, _, _, _) = warmed();
    let path = temp_path("garble");
    cache.save_to(&path, None).unwrap();
    let good = std::fs::read(&path).unwrap();

    let mut flipped = good.clone();
    flipped[0] ^= 0xFF;
    std::fs::write(&path, &flipped).unwrap();
    let err = ProfileCache::load_from(&path, &fx.db).unwrap_err();
    assert!(matches!(err, HypreError::SnapshotCorrupt { .. }), "{err:?}");

    let mut trailing = good;
    trailing.extend_from_slice(b"junk");
    std::fs::write(&path, &trailing).unwrap();
    let err = ProfileCache::load_from(&path, &fx.db).unwrap_err();
    assert!(matches!(err, HypreError::SnapshotCorrupt { .. }), "{err:?}");
}

#[test]
fn version_skewed_snapshot_reports_both_versions() {
    let fx = fixture();
    let (cache, _, _, _) = warmed();
    let path = temp_path("version");
    cache.save_to(&path, None).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = ProfileCache::load_from(&path, &fx.db).unwrap_err();
    match err {
        HypreError::SnapshotVersion { found, supported } => {
            assert_eq!(found, 99);
            assert!(supported < 99);
        }
        other => panic!("expected SnapshotVersion, got {other:?}"),
    }
}

#[test]
fn snapshot_of_a_different_corpus_is_stale() {
    let fx = fixture();
    let (cache, _, _, _) = warmed();
    let path = temp_path("stale");
    cache.save_to(&path, None).unwrap();
    // Same schema, one more paper: the fingerprint must refuse it.
    let mut grown = fx.db.clone();
    grown
        .table_mut("dblp")
        .unwrap()
        .insert(vec![
            Value::Int(9_999_999),
            Value::str("Phantom Paper"),
            Value::Int(2011),
            Value::str("VLDB"),
        ])
        .unwrap();
    let err = ProfileCache::load_from(&path, &grown).unwrap_err();
    match err {
        HypreError::StaleSnapshot {
            table,
            warmed,
            current,
        } => {
            assert_eq!(table, "dblp");
            assert_eq!(current, warmed.map(|n| n + 1));
        }
        other => panic!("expected StaleSnapshot, got {other:?}"),
    }
}

#[test]
fn flipping_one_bit_in_any_byte_is_never_ok() {
    // A snapshot saved with its table over a 3-atom profile, small enough
    // to load once per byte.
    let fx = fixture();
    let atoms: Vec<PrefAtom> = fx.graph.positive_profile(fx.rich_user)[..3].to_vec();
    let exec = fx.executor();
    let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
    let good = {
        let path = temp_path("bit_flip");
        ProfileCache::snapshot(&exec)
            .save_to(&path, Some(&pairs))
            .unwrap();
        std::fs::read(&path).unwrap()
    };
    assert!(load_bytes("bit_flip", &good).is_ok());
    for at in 0..good.len() {
        let mut flipped = good.clone();
        flipped[at] ^= 1 << (at % 8);
        let loaded = load_bytes("bit_flip", &flipped);
        assert!(
            matches!(
                loaded,
                Err(HypreError::SnapshotCorrupt { .. } | HypreError::SnapshotVersion { .. })
            ),
            "byte {at} of {}: {:?}",
            good.len(),
            loaded.map(|_| "loaded")
        );
    }
}

#[test]
fn zeroed_pairwise_counts_are_corrupt() {
    // The table ends the file before the checksum, one 32-byte entry
    // (u64 i, u64 j, f64 intensity, u64 count) per pair. Zeroed counts
    // are structurally valid and would re-rank every position, so only
    // the checksum (not re-sealed here) can refuse them.
    let (cache, pairs, _, _) = warmed();
    let path = temp_path("zeroed");
    cache.save_to(&path, Some(&pairs)).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let entries_at = bytes.len() - CHECKSUM_LEN - 32 * pairs.entries().len();
    let mut zeroed = 0;
    for (idx, entry) in pairs.entries().iter().enumerate() {
        let count_at = entries_at + 32 * idx + 24;
        assert_eq!(bytes[count_at..count_at + 8], entry.count.to_le_bytes());
        if entry.applicable() {
            bytes[count_at..count_at + 8].fill(0);
            zeroed += 1;
        }
    }
    assert!(zeroed > 0, "the rich profile has applicable pairs");
    let loaded = load_bytes("zeroed", &bytes);
    assert!(
        matches!(loaded, Err(HypreError::SnapshotCorrupt { .. })),
        "{:?}",
        loaded.map(|_| "loaded")
    );
}

#[test]
fn a_corpus_with_two_driver_rows_swapped_is_stale() {
    // A tuple id is a driver row, so the file holds no keys: only the
    // key digest can tell a permuted corpus of the same row counts.
    let fx = fixture();
    let (first, second) = (&fx.dataset.papers[0], &fx.dataset.papers[1]);
    let pick = hypre_repro::relstore::parse_predicate(&format!("dblp.pid={}", first.pid)).unwrap();
    let cache = ProfileCache::warm(&fx.db, BaseQuery::dblp(), [&pick]).unwrap();
    let path = temp_path("swapped");
    cache.save_to(&path, None).unwrap();

    let mut dataset = fx.dataset.clone();
    dataset.papers.swap(0, 1);
    let swapped = hypre_repro::dblp::load(&dataset).unwrap();
    match ProfileCache::load_from(&path, &swapped).unwrap_err() {
        HypreError::StaleSnapshot {
            table,
            warmed,
            current,
        } => {
            assert_eq!(table, "dblp");
            assert_eq!(warmed, current, "the row counts agree; the keys do not");
        }
        other => panic!("expected StaleSnapshot, got {other:?}"),
    }

    // What the digest prevents: a session opened on the swapped corpus
    // checks row counts only, and its cached id names the other paper.
    let fresh = Executor::new(&swapped, BaseQuery::dblp());
    let session = Executor::with_cache(&swapped, Arc::new(cache)).unwrap();
    assert_eq!(fresh.tuples(&pick).unwrap(), [Value::Int(first.pid as i64)]);
    assert_eq!(
        session.tuples(&pick).unwrap(),
        [Value::Int(second.pid as i64)]
    );
}
