//! Snapshot persistence contract: a warmed `ProfileCache` saved to disk
//! and loaded back must serve byte-identical `top_k` rankings without
//! issuing a single SQL query, and every way a snapshot file can be
//! wrong — missing, truncated, bit-flipped magic, newer format version,
//! an impossible pairwise size, warmed on a different corpus — must surface as
//! the right typed `HypreError`, never a panic and never silently wrong
//! results.

use std::path::PathBuf;
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

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hypre_{name}_{}.hyprsnap", std::process::id()))
}

#[test]
fn loaded_snapshot_serves_identical_top_k_at_1_2_and_8_workers() {
    let fx = fixture();
    let (cache, pairs, atoms, want) = warmed();
    let path = temp_path("roundtrip");
    cache.save_to(&path, Some(&pairs)).unwrap();
    let (loaded, loaded_pairs) = ProfileCache::load_from(&path, &fx.db).unwrap();
    std::fs::remove_file(&path).unwrap();
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
    std::fs::remove_file(&path).unwrap();
    // Cuts inside the magic, the version, the header sections and near
    // the end (the module's unit suite sweeps every byte; here we pin
    // the file-level behaviour end to end).
    for cut in [0, 4, 8, 10, bytes.len() / 3, bytes.len() - 1] {
        let path = temp_path("truncate_cut");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = ProfileCache::load_from(&path, &fx.db).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(err, HypreError::SnapshotCorrupt { .. }),
            "cut at {cut}: {err:?}"
        );
    }
}

#[test]
fn a_pairwise_size_whose_triangle_overflows_is_corrupt() {
    // A 2-atom table ends the file: u64 n, u64 count = 1, one 32-byte
    // entry. Overwrite n with u64::MAX, whose n(n−1)/2 overflows.
    let fx = fixture();
    let atoms: Vec<PrefAtom> = fx.graph.positive_profile(fx.rich_user)[..2].to_vec();
    let exec = fx.executor();
    let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
    let path = temp_path("pair_size");
    ProfileCache::snapshot(&exec)
        .save_to(&path, Some(&pairs))
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let size_at = bytes.len() - 48;
    assert_eq!(bytes[size_at..size_at + 8], 2u64.to_le_bytes());
    bytes[size_at..size_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = ProfileCache::load_from(&path, &fx.db).unwrap_err();
    std::fs::remove_file(&path).unwrap();
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
    std::fs::remove_file(&path).unwrap();
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
    std::fs::remove_file(&path).unwrap();
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
    std::fs::remove_file(&path).unwrap();
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
