//! Versioned binary snapshots of a warmed [`ProfileCache`] — the
//! restart-without-rewarm path.
//!
//! Warming a profile cache over a large corpus costs one SQL query per
//! distinct predicate plus the triangular pairwise pass; at a million
//! papers that is the dominant start-up cost. A snapshot file persists
//! the warmed state — every materialised predicate tuple set (in its
//! canonical container encoding), the corpus identity it was built on,
//! and optionally the pairwise table — so a restarted process gets back
//! to serving with a single sequential file read.
//!
//! ## Format (version 4)
//!
//! A flat length-prefixed little-endian byte stream, no external
//! dependencies:
//!
//! ```text
//! magic     8  b"HYPRSNAP"
//! version   u32
//! fingerprint  u32 count, then per table: str name, u8 tag, [u64 rows];
//!              then u64 key digest
//! base query   str driver, colref key, u32 joins,
//!              then per join: str table, colref left, colref right
//! tuple sets   u64 count (keys sorted), then per set:
//!              str canonical-predicate key, u8 container tag, payload
//!                0 array:  u32 n, n × u32 id
//!                2 bitmap: u32 n, n × u64 word
//!                (tag 1 is retired: version 3 used it for run lists)
//! pairwise     u8 flag, [u64 n, u64 count, count × (u64 i, u64 j,
//!              f64-bits intensity, u64 count)]
//! checksum     u64 FNV-1a-64 of every preceding byte
//! ```
//!
//! Strings are `u32` byte length + UTF-8. `colref` is a `u8` qualifier
//! tag (+ table string when qualified) + column string. Predicates are
//! not structurally encoded: the set key *is* the canonical predicate
//! text, and the display/parse round-trip (`tests/properties.rs`) makes
//! re-parsing it reproduce the AST exactly.
//!
//! A tuple id is a driver row, so the file stores no key values (version
//! 2 wrote every key in id order). The fingerprint's key digest — FNV-1a-64
//! over the driver's key column on the fingerprinted rows — is what ties
//! ids to keys instead. Version 4 drops the run container, so a set tagged
//! 1 is [`HypreError::SnapshotCorrupt`] and a version-3 file is
//! [`HypreError::SnapshotVersion`].
//!
//! ## Integrity contract
//!
//! The checksum is verified right after the magic and version (so a
//! version skew still reports [`HypreError::SnapshotVersion`]): a changed
//! byte, a truncation or trailing bytes is [`HypreError::SnapshotCorrupt`]
//! before any field is parsed. It catches damage no structural check
//! can, such as a zeroed pairwise count, which would load and re-rank.
//! Behind it, every read is bounds-checked and every count is validated
//! against the bytes remaining *before* allocation, so even a re-sealed
//! file with bad fields surfaces as a typed error —
//! [`HypreError::SnapshotCorrupt`], [`HypreError::SnapshotVersion`],
//! [`HypreError::SnapshotIo`] — never a panic or an over-allocation.
//! Container payloads are re-validated against the [`TupleSet`]
//! invariants (sorted, duplicate-free arrays) and every tuple id
//! must be below the fingerprinted driver row count. The base query must
//! have the one shape the executor supports, and the fingerprint must
//! name exactly its tables, in order; either failing is
//! [`HypreError::SnapshotCorrupt`]. Loading also re-fingerprints the live
//! corpus: a snapshot warmed on different row counts, or on driver rows
//! whose keys differ (rewritten or permuted rows), is
//! [`HypreError::StaleSnapshot`], and a driver key that is `NULL` or
//! repeated is [`HypreError::UnsupportedBaseQuery`].
//!
//! Writes go to a sibling temp file first and are published with an
//! atomic rename, so a crash mid-save never leaves a torn snapshot at
//! the target path.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use relstore::{parse_predicate, ColRef, Database, Predicate};

use crate::error::{HypreError, Result};
use crate::tupleset::{ContainerDump, TupleSet};

use super::{
    check_fingerprint_tables, check_keys, fnv1a64, index_by_first, triangle, BaseQuery,
    CorpusCheck, PairEntry, PairwiseCache, PairwiseMemo, ProfileCache, SharedTupleSet, FNV_OFFSET,
};

/// File magic: identifies a HYPRE profile snapshot.
const MAGIC: &[u8; 8] = b"HYPRSNAP";

/// Highest snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Bytes of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// FNV-1a, 64-bit: the checksum that seals a snapshot's bytes.
fn checksum(bytes: &[u8]) -> u64 {
    fnv1a64(FNV_OFFSET, bytes)
}

// ----------------------------------------------------------------------
// writing
// ----------------------------------------------------------------------

fn w_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn w_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn w_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn w_str(buf: &mut Vec<u8>, s: &str) -> Result<()> {
    let len = u32::try_from(s.len()).map_err(|_| HypreError::SnapshotIo {
        detail: format!("string of {} bytes exceeds the format's u32 limit", s.len()),
    })?;
    w_u32(buf, len);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn w_colref(buf: &mut Vec<u8>, c: &ColRef) -> Result<()> {
    match &c.table {
        Some(t) => {
            w_u8(buf, 1);
            w_str(buf, t)?;
        }
        None => w_u8(buf, 0),
    }
    w_str(buf, &c.column)
}

fn w_set(buf: &mut Vec<u8>, set: &TupleSet) {
    match set.dump() {
        ContainerDump::Array(ids) => {
            w_u8(buf, 0);
            w_u32(buf, ids.len() as u32);
            for &id in ids {
                w_u32(buf, id);
            }
        }
        ContainerDump::Bitmap(bits) => {
            w_u8(buf, 2);
            w_u32(buf, bits.words().len() as u32);
            for &w in bits.words() {
                w_u64(buf, w);
            }
        }
    }
}

// ----------------------------------------------------------------------
// reading
// ----------------------------------------------------------------------

/// Bounds-checked cursor over the snapshot bytes. Every failure carries
/// the byte offset, so corrupt files diagnose themselves.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn corrupt(&self, what: &str) -> HypreError {
        HypreError::SnapshotCorrupt {
            detail: format!("{what} at byte {}", self.pos),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt(what))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn r_u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn r_u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(b);
        Ok(u32::from_le_bytes(arr))
    }

    fn r_u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// A `count`-element section of at least `min_entry` bytes per
    /// element must fit in the remaining bytes — checked *before* any
    /// allocation, so a corrupt count cannot drive an OOM.
    fn checked_count(&self, count: u64, min_entry: usize, what: &str) -> Result<usize> {
        let remaining = (self.buf.len() - self.pos) as u64;
        let fits = count
            .checked_mul(min_entry as u64)
            .is_some_and(|need| need <= remaining);
        if fits {
            Ok(count as usize)
        } else {
            Err(self.corrupt(what))
        }
    }

    fn r_str(&mut self, what: &str) -> Result<String> {
        let len = self.r_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt(what))
    }

    fn r_colref(&mut self, what: &str) -> Result<ColRef> {
        let table = match self.r_u8(what)? {
            0 => None,
            1 => Some(self.r_str(what)?),
            _ => return Err(self.corrupt(what)),
        };
        let column = self.r_str(what)?;
        Ok(ColRef { table, column })
    }

    /// One tuple-set container: parse, re-validate its invariants, and
    /// check every id lands inside the `universe` of driver rows.
    fn r_set(&mut self, universe: usize, what: &str) -> Result<TupleSet> {
        let tag = self.r_u8(what)?;
        let raw_n = self.r_u32(what)? as u64;
        let n = self.checked_count(raw_n, 4, what)?;
        match tag {
            0 => {
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(self.r_u32(what)?);
                }
                if ids.last().is_some_and(|&m| m as usize >= universe) {
                    return Err(self.corrupt(what));
                }
                TupleSet::restore_array(ids).ok_or_else(|| self.corrupt(what))
            }
            2 => {
                let mut words = Vec::with_capacity(n);
                for _ in 0..n {
                    words.push(self.r_u64(what)?);
                }
                let top = words
                    .iter()
                    .rposition(|&w| w != 0)
                    .map(|wi| wi as u64 * 64 + (63 - words[wi].leading_zeros() as u64));
                if top.is_some_and(|t| t >= universe as u64) {
                    return Err(self.corrupt(what));
                }
                Ok(TupleSet::restore_bitmap(words))
            }
            _ => Err(self.corrupt(what)),
        }
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.corrupt("trailing bytes after snapshot end"))
        }
    }
}

// ----------------------------------------------------------------------
// ProfileCache persistence
// ----------------------------------------------------------------------

impl ProfileCache {
    /// Serialises the warmed cache (and optionally a [`PairwiseCache`]
    /// built over the same profile) to `path` in snapshot format
    /// [`SNAPSHOT_VERSION`].
    ///
    /// The bytes are staged in a sibling `.tmp` file and published with
    /// an atomic rename, so readers never observe a torn snapshot and a
    /// crash mid-save leaves any previous snapshot at `path` intact.
    ///
    /// # Errors
    /// [`HypreError::SnapshotIo`] on any filesystem failure.
    pub fn save_to(&self, path: impl AsRef<Path>, pairs: Option<&PairwiseCache>) -> Result<()> {
        let path = path.as_ref();
        let bytes = self.to_bytes(pairs)?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, &bytes).map_err(|e| HypreError::SnapshotIo {
            detail: format!("write {}: {e}", tmp.display()),
        })?;
        std::fs::rename(&tmp, path).map_err(|e| {
            // Best-effort cleanup; the rename failure is the real error.
            let _ = std::fs::remove_file(&tmp);
            HypreError::SnapshotIo {
                detail: format!("rename {} -> {}: {e}", tmp.display(), path.display()),
            }
        })
    }

    /// The snapshot byte image [`ProfileCache::save_to`] writes.
    fn to_bytes(&self, pairs: Option<&PairwiseCache>) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        w_u32(&mut buf, SNAPSHOT_VERSION);

        w_u32(&mut buf, self.fingerprint.len() as u32);
        for (table, rows) in &self.fingerprint {
            w_str(&mut buf, table)?;
            match rows {
                Some(n) => {
                    w_u8(&mut buf, 1);
                    w_u64(&mut buf, *n as u64);
                }
                None => w_u8(&mut buf, 0),
            }
        }
        w_u64(&mut buf, self.key_digest);

        w_str(&mut buf, &self.base.table)?;
        w_colref(&mut buf, &self.base.key)?;
        w_u32(&mut buf, self.base.joins.len() as u32);
        for (table, left, right) in &self.base.joins {
            w_str(&mut buf, table)?;
            w_colref(&mut buf, left)?;
            w_colref(&mut buf, right)?;
        }

        let mut sets: Vec<(&String, &SharedTupleSet)> =
            self.sets.iter().map(|(key, (_, set))| (key, set)).collect();
        sets.sort_unstable_by_key(|&(key, _)| key);
        w_u64(&mut buf, sets.len() as u64);
        for (key, set) in sets {
            w_str(&mut buf, key)?;
            w_set(&mut buf, set);
        }

        match pairs {
            Some(p) => {
                w_u8(&mut buf, 1);
                w_u64(&mut buf, p.n as u64);
                w_u64(&mut buf, p.entries.len() as u64);
                for e in &p.entries {
                    w_u64(&mut buf, e.i as u64);
                    w_u64(&mut buf, e.j as u64);
                    w_u64(&mut buf, e.intensity.to_bits());
                    w_u64(&mut buf, e.count);
                }
            }
            None => w_u8(&mut buf, 0),
        }
        let sealed = checksum(&buf);
        w_u64(&mut buf, sealed);
        Ok(buf)
    }

    /// Loads a snapshot written by [`ProfileCache::save_to`] and pins it
    /// to the live corpus: the stored fingerprint must match the row
    /// counts `db` reports for every base-query table, and the key digest
    /// the driver's keys; then every driver key is checked non-`NULL` and
    /// unique. Both checks are one pass over the driver's key column.
    ///
    /// # Errors
    /// - [`HypreError::SnapshotIo`] — the file cannot be read.
    /// - [`HypreError::SnapshotCorrupt`] — bad magic, a checksum
    ///   mismatch (truncation, trailing bytes, any damaged byte), or any
    ///   structural-validation failure.
    /// - [`HypreError::SnapshotVersion`] — valid magic, another format
    ///   version.
    /// - [`HypreError::StaleSnapshot`] — well-formed snapshot warmed on
    ///   a corpus whose row counts or driver keys differ from `db`'s.
    /// - [`HypreError::UnsupportedBaseQuery`] — a driver key of `db` is
    ///   `NULL` or repeated.
    pub fn load_from(
        path: impl AsRef<Path>,
        db: &Database,
    ) -> Result<(ProfileCache, Option<PairwiseCache>)> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| HypreError::SnapshotIo {
            detail: format!("read {}: {e}", path.display()),
        })?;
        let (mut cache, pairs) = ProfileCache::from_bytes(&bytes)?;
        cache.check_corpus(db, CorpusCheck::Exact)?;
        let (driver, key_idx) = cache.base.driver_key(db)?;
        cache.check_key_digest(driver, key_idx)?;
        check_keys(driver, key_idx)?;
        cache.checked_rows = driver.len();
        Ok((cache, pairs))
    }

    /// Parses and structurally validates a snapshot byte image.
    fn from_bytes(bytes: &[u8]) -> Result<(ProfileCache, Option<PairwiseCache>)> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(MAGIC.len(), "magic number")? != MAGIC {
            return Err(HypreError::SnapshotCorrupt {
                detail: "bad magic number: not a HYPRE snapshot".into(),
            });
        }
        let version = r.r_u32("format version")?;
        if version != SNAPSHOT_VERSION {
            return Err(HypreError::SnapshotVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let Some(body_len) = bytes
            .len()
            .checked_sub(CHECKSUM_LEN)
            .filter(|&n| n >= r.pos)
        else {
            return Err(r.corrupt("missing checksum"));
        };
        let (body, sealed) = bytes.split_at(body_len);
        if checksum(body).to_le_bytes() != sealed {
            return Err(r.corrupt("checksum mismatch"));
        }
        r.buf = body;

        let raw_fp = r.r_u32("fingerprint count")? as u64;
        let n_fp = r.checked_count(raw_fp, 5, "fingerprint count")?;
        let mut fingerprint = Vec::with_capacity(n_fp);
        for _ in 0..n_fp {
            let table = r.r_str("fingerprint table name")?;
            let rows = match r.r_u8("fingerprint row-count tag")? {
                0 => None,
                1 => Some(r.r_u64("fingerprint row count")? as usize),
                _ => return Err(r.corrupt("fingerprint row-count tag")),
            };
            fingerprint.push((table, rows));
        }
        let key_digest = r.r_u64("key digest")?;

        let driver = r.r_str("base-query driver table")?;
        let key = r.r_colref("base-query key column")?;
        let raw_joins = r.r_u32("join count")? as u64;
        let n_joins = r.checked_count(raw_joins, 10, "join count")?;
        let mut joins = Vec::with_capacity(n_joins);
        for _ in 0..n_joins {
            let table = r.r_str("join table")?;
            let left = r.r_colref("join left column")?;
            let right = r.r_colref("join right column")?;
            joins.push((table, left, right));
        }
        let base = BaseQuery {
            table: driver,
            joins,
            key,
        };
        base.check_shape()
            .map_err(|e| r.corrupt(&format!("base query: {e}")))?;
        check_fingerprint_tables(&fingerprint, &base)?;

        // Tuple ids are driver rows.
        let universe = fingerprint[0].1.unwrap_or(0);

        let raw_sets = r.r_u64("tuple-set count")?;
        let n_sets = r.checked_count(raw_sets, 9, "tuple-set count")?;
        let mut sets: HashMap<String, (Predicate, SharedTupleSet)> = HashMap::with_capacity(n_sets);
        for _ in 0..n_sets {
            let key = r.r_str("tuple-set predicate key")?;
            let set = r.r_set(universe, "tuple-set container")?;
            // The canonical key is the predicate's display form, and
            // display/parse round-trips exactly (tests/properties.rs) —
            // re-parsing reproduces the AST delta ingest re-evaluates.
            let pred = parse_predicate(&key).map_err(|e| HypreError::SnapshotCorrupt {
                detail: format!("unparseable predicate key '{key}': {e}"),
            })?;
            if sets.insert(key, (pred, Arc::new(set))).is_some() {
                return Err(r.corrupt("duplicate tuple-set key"));
            }
        }

        let pairs = match r.r_u8("pairwise flag")? {
            0 => None,
            1 => {
                let n = usize::try_from(r.r_u64("pairwise profile size")?)
                    .map_err(|_| r.corrupt("pairwise profile size"))?;
                let raw_count = r.r_u64("pairwise entry count")?;
                let count = r.checked_count(raw_count, 32, "pairwise entry count")?;
                // `n` is untrusted: a size whose triangle overflows is
                // corrupt, not a wrapped count.
                if n.checked_mul(n.saturating_sub(1)).map(|d| d / 2) != Some(count) {
                    return Err(r.corrupt("pairwise entry count is not a full triangle"));
                }
                let mut entries = Vec::with_capacity(count);
                for expected in triangle(n) {
                    let i = r.r_u64("pairwise entry")? as usize;
                    let j = r.r_u64("pairwise entry")? as usize;
                    let intensity = f64::from_bits(r.r_u64("pairwise entry")?);
                    let hits = r.r_u64("pairwise entry")?;
                    if (i, j) != expected {
                        return Err(r.corrupt("pairwise entries out of triangular order"));
                    }
                    entries.push(PairEntry {
                        i,
                        j,
                        intensity,
                        count: hits,
                    });
                }
                let by_first = index_by_first(&entries, n);
                Some(PairwiseCache {
                    n,
                    entries,
                    by_first,
                })
            }
            _ => return Err(r.corrupt("pairwise flag")),
        };
        r.done()?;

        let cache = ProfileCache {
            base,
            sets,
            fingerprint,
            key_digest,
            // Nothing is known of the corpus until `load_from` checks it.
            checked_rows: 0,
            pairwise: PairwiseMemo::default(),
        };
        Ok((cache, pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Executor, PairwiseCache, ProfileCache};
    use super::*;
    use crate::combine::PrefAtom;
    use relstore::{DataType, Schema, Value};

    fn tiny_dblp() -> Database {
        let mut db = Database::new();
        let papers = db
            .create_table(
                "dblp",
                Schema::of(&[
                    ("pid", DataType::Int),
                    ("venue", DataType::Str),
                    ("year", DataType::Int),
                ]),
            )
            .unwrap();
        for (pid, venue, year) in [
            (1, "VLDB", 2006),
            (2, "VLDB", 2010),
            (3, "SIGMOD", 2008),
            (4, "PODS", 2010),
        ] {
            papers
                .insert(vec![pid.into(), venue.into(), year.into()])
                .unwrap();
        }
        let link = db
            .create_table(
                "dblp_author",
                Schema::of(&[("pid", DataType::Int), ("aid", DataType::Int)]),
            )
            .unwrap();
        for (pid, aid) in [(1, 10), (2, 10), (2, 11), (3, 11), (4, 12)] {
            link.insert(vec![pid.into(), aid.into()]).unwrap();
        }
        db
    }

    fn warmed(db: &Database) -> (ProfileCache, PairwiseCache) {
        let atoms = vec![
            PrefAtom::new(0, parse_predicate("dblp.venue='VLDB'").unwrap(), 0.9),
            PrefAtom::new(1, parse_predicate("dblp.year>=2008").unwrap(), 0.6),
            PrefAtom::new(2, parse_predicate("dblp_author.aid=11").unwrap(), 0.4),
        ];
        let exec = Executor::new(db, super::super::BaseQuery::dblp());
        let pairs = PairwiseCache::build(&atoms, &exec).unwrap();
        (ProfileCache::snapshot(&exec), pairs)
    }

    /// A snapshot path in the temp dir, named per process so concurrent
    /// test runs cannot collide, and removed on drop so a test that
    /// panics before cleaning up leaves no file behind.
    struct TempPath(std::path::PathBuf);

    impl TempPath {
        fn new(name: &str) -> TempPath {
            let file = format!("hypre_snapshot_{name}_{}.hyprsnap", std::process::id());
            TempPath(std::env::temp_dir().join(file))
        }
    }

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

    #[test]
    fn snapshot_round_trips_to_equal_cache() {
        let db = tiny_dblp();
        let (cache, pairs) = warmed(&db);
        let path = TempPath::new("roundtrip");
        cache.save_to(&path, Some(&pairs)).unwrap();
        let (loaded, loaded_pairs) = ProfileCache::load_from(&path, &db).unwrap();

        assert_eq!(loaded.fingerprint, cache.fingerprint);
        assert_eq!(loaded.tuple_universe(), cache.tuple_universe());
        assert_eq!(loaded.len(), cache.len());
        for (key, (pred, set)) in &cache.sets {
            let (loaded_pred, restored) = &loaded.sets[key];
            assert_eq!(&**restored, &**set, "set for {key}");
            assert_eq!(loaded_pred, pred, "pred for {key}");
        }
        assert_eq!(loaded.key_digest, cache.key_digest);
        assert_eq!(loaded.checked_rows, 4, "load checks every driver key");
        let loaded_pairs = loaded_pairs.unwrap();
        assert_eq!(loaded_pairs.entries, pairs.entries);
        assert_eq!(loaded_pairs.n, pairs.n);
        assert_eq!(loaded_pairs.by_first, pairs.by_first);
    }

    #[test]
    fn missing_file_is_io_error() {
        let db = tiny_dblp();
        let err = ProfileCache::load_from("/nonexistent/dir/x.hyprsnap", &db).unwrap_err();
        assert!(matches!(err, HypreError::SnapshotIo { .. }), "{err:?}");
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let err = ProfileCache::from_bytes(b"NOTASNAP rest").unwrap_err();
        assert!(matches!(err, HypreError::SnapshotCorrupt { .. }), "{err:?}");
    }

    #[test]
    fn newer_version_is_version_error() {
        let db = tiny_dblp();
        let (cache, _) = warmed(&db);
        let mut bytes = cache.to_bytes(None).unwrap();
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        let err = ProfileCache::from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            HypreError::SnapshotVersion {
                found: 9,
                supported: SNAPSHOT_VERSION
            }
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic() {
        let db = tiny_dblp();
        let (cache, pairs) = warmed(&db);
        let bytes = cache.to_bytes(Some(&pairs)).unwrap();
        for cut in 0..bytes.len() {
            let err = ProfileCache::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    HypreError::SnapshotCorrupt { .. } | HypreError::SnapshotVersion { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let db = tiny_dblp();
        let (cache, _) = warmed(&db);
        let mut bytes = cache.to_bytes(None).unwrap();
        bytes.push(0xFF);
        let err = ProfileCache::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, HypreError::SnapshotCorrupt { .. }), "{err:?}");
    }

    #[test]
    fn fingerprint_must_name_exactly_the_base_query_tables() {
        let db = tiny_dblp();
        let (cache, _) = warmed(&db);
        let mut empty = cache.clone();
        empty.fingerprint.clear();
        let mut renamed = cache.clone();
        renamed.fingerprint[1].0 = "other_table".into();
        for tampered in [empty, renamed] {
            let bytes = tampered.to_bytes(None).unwrap();
            let err = ProfileCache::from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, HypreError::SnapshotCorrupt { .. }), "{err:?}");
            // The in-process check refuses the same cache.
            assert!(matches!(
                tampered.ingest_delta(&db),
                Err(HypreError::SnapshotCorrupt { .. })
            ));
        }
    }

    #[test]
    fn base_query_off_the_driver_is_corrupt() {
        let db = tiny_dblp();
        let (mut cache, _) = warmed(&db);
        cache.base.key = ColRef::parse("dblp_author.pid");
        let bytes = cache.to_bytes(None).unwrap();
        let err = ProfileCache::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, HypreError::SnapshotCorrupt { .. }), "{err:?}");
    }

    #[test]
    fn a_rewritten_driver_key_is_stale_at_load_and_ingest() {
        let db = tiny_dblp();
        let (cache, _) = warmed(&db);
        let path = TempPath::new("rewritten");
        cache.save_to(&path, None).unwrap();
        // The same rows, with paper 4 renumbered 5.
        let mut rewritten = Database::new();
        let papers = rewritten
            .create_table(
                "dblp",
                Schema::of(&[
                    ("pid", DataType::Int),
                    ("venue", DataType::Str),
                    ("year", DataType::Int),
                ]),
            )
            .unwrap();
        for row in db.table("dblp").unwrap().scan().map(|(_, row)| row) {
            let pid = if row[0] == Value::Int(4) {
                Value::Int(5)
            } else {
                row[0].clone()
            };
            papers
                .insert(vec![pid, row[1].clone(), row[2].clone()])
                .unwrap();
        }
        let links = db.table("dblp_author").unwrap();
        *rewritten
            .create_table("dblp_author", links.schema().clone())
            .unwrap() = links.clone();
        let stale = HypreError::StaleSnapshot {
            table: "dblp".into(),
            warmed: Some(4),
            current: Some(4),
        };
        assert_eq!(
            ProfileCache::load_from(&path, &rewritten).unwrap_err(),
            stale
        );
        assert_eq!(cache.ingest_delta(&rewritten).unwrap_err(), stale);
    }

    #[test]
    fn fingerprint_mismatch_is_stale() {
        let mut db = tiny_dblp();
        let (cache, _) = warmed(&db);
        let path = TempPath::new("stale");
        cache.save_to(&path, None).unwrap();
        // Grow the corpus under the snapshot.
        db.table_mut("dblp")
            .unwrap()
            .insert(vec![Value::Int(999), Value::str("ICDE"), Value::Int(2020)])
            .unwrap();
        let err = ProfileCache::load_from(&path, &db).unwrap_err();
        assert!(
            matches!(err, HypreError::StaleSnapshot { ref table, .. } if table == "dblp"),
            "{err:?}"
        );
    }
}
