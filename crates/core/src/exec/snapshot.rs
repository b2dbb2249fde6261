//! Versioned binary snapshots of a warmed [`ProfileCache`] — the
//! restart-without-rewarm path.
//!
//! Warming a profile cache over a large corpus costs one SQL query per
//! distinct predicate plus the triangular pairwise pass; at a million
//! papers that is the dominant start-up cost. A snapshot file persists
//! the warmed state — frozen tuple-id interner, every materialised
//! predicate tuple set (in its canonical container encoding), and
//! optionally the pairwise table — so a restarted process gets back to
//! serving with a single sequential file read.
//!
//! ## Format (version 2)
//!
//! A flat length-prefixed little-endian byte stream, no external
//! dependencies:
//!
//! ```text
//! magic     8  b"HYPRSNAP"
//! version   u32
//! fingerprint  u32 count, then per table: str name, u8 tag, [u64 rows]
//! base query   str driver, colref key, u32 joins,
//!              then per join: str table, colref left, colref right
//! interner     u64 count, then per value (in id order): u8 tag + payload
//! tuple sets   u64 count (keys sorted), then per set:
//!              str canonical-predicate key, u8 container tag, payload
//!                0 array:  u32 n, n × u32 id
//!                1 runs:   u32 n, n × (u32 start, u32 len)
//!                2 bitmap: u32 n, n × u64 word
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
//! [`HypreError::SnapshotIo`] — never a panic or an over-allocation. Container payloads are re-validated
//! against the [`TupleSet`] invariants (sorted arrays, disjoint
//! ascending runs) and every tuple id must resolve inside the interner's
//! id space. The base query must have the one shape the executor
//! supports, and the fingerprint must name exactly its tables, in order;
//! either failing is [`HypreError::SnapshotCorrupt`]. Loading also
//! re-fingerprints the live corpus through the in-process staleness
//! check: a snapshot warmed on different table shapes is
//! [`HypreError::StaleSnapshot`].
//!
//! Writes go to a sibling temp file first and are published with an
//! atomic rename, so a crash mid-save never leaves a torn snapshot at
//! the target path.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use relstore::{parse_predicate, ColRef, Database, Predicate, Value};

use crate::error::{HypreError, Result};
use crate::tupleset::{ContainerDump, TupleSet};

use super::{
    check_fingerprint_tables, index_by_first, triangle, BaseQuery, CorpusCheck, PairEntry,
    PairwiseCache, PairwiseMemo, ProfileCache, SharedTupleSet, TupleInterner,
};

/// File magic: identifies a HYPRE profile snapshot.
const MAGIC: &[u8; 8] = b"HYPRSNAP";

/// Highest snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Bytes of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// FNV-1a, 64-bit: the checksum that seals a snapshot's bytes. Each step
/// is a bijection of the running state, so changing any one byte always
/// changes the result.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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

fn w_value(buf: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Null => w_u8(buf, 0),
        Value::Int(i) => {
            w_u8(buf, 1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            w_u8(buf, 2);
            w_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            w_u8(buf, 3);
            w_str(buf, s)?;
        }
    }
    Ok(())
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
        ContainerDump::Runs(runs) => {
            w_u8(buf, 1);
            w_u32(buf, runs.len() as u32);
            for &(start, len) in runs {
                w_u32(buf, start);
                w_u32(buf, len);
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

    fn r_i64(&mut self, what: &str) -> Result<i64> {
        Ok(self.r_u64(what)? as i64)
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

    fn r_value(&mut self, what: &str) -> Result<Value> {
        match self.r_u8(what)? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.r_i64(what)?)),
            2 => Ok(Value::Float(f64::from_bits(self.r_u64(what)?))),
            3 => Ok(Value::Str(self.r_str(what)?)),
            _ => Err(self.corrupt(what)),
        }
    }

    /// One tuple-set container: parse, re-validate its invariants, and
    /// check every id lands inside the interner's `universe`.
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
            1 => {
                let mut runs = Vec::with_capacity(n);
                for _ in 0..n {
                    let start = self.r_u32(what)?;
                    let len = self.r_u32(what)?;
                    runs.push((start, len));
                }
                let past_end = runs
                    .last()
                    .is_some_and(|&(s, l)| s as u64 + l as u64 > universe as u64);
                if past_end {
                    return Err(self.corrupt(what));
                }
                TupleSet::restore_runs(runs).ok_or_else(|| self.corrupt(what))
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
    /// built over the same profile) to `path` in snapshot format v2.
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

        w_str(&mut buf, &self.base.table)?;
        w_colref(&mut buf, &self.base.key)?;
        w_u32(&mut buf, self.base.joins.len() as u32);
        for (table, left, right) in &self.base.joins {
            w_str(&mut buf, table)?;
            w_colref(&mut buf, left)?;
            w_colref(&mut buf, right)?;
        }

        w_u64(&mut buf, self.interner.len() as u64);
        for id in 0..self.interner.len() as u32 {
            w_value(&mut buf, self.interner.value(id))?;
        }

        let mut keys: Vec<&String> = self.sets.keys().collect();
        keys.sort();
        w_u64(&mut buf, keys.len() as u64);
        for key in keys {
            w_str(&mut buf, key)?;
            let Some(set) = self.sets.get(key) else {
                unreachable!("key came from the map");
            };
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
        let checksum = fnv1a64(&buf);
        w_u64(&mut buf, checksum);
        Ok(buf)
    }

    /// Loads a snapshot written by [`ProfileCache::save_to`] and pins it
    /// to the live corpus: the stored fingerprint must match the row
    /// counts `db` reports for every base-query table.
    ///
    /// # Errors
    /// - [`HypreError::SnapshotIo`] — the file cannot be read.
    /// - [`HypreError::SnapshotCorrupt`] — bad magic, a checksum
    ///   mismatch (truncation, trailing bytes, any damaged byte), or any
    ///   structural-validation failure.
    /// - [`HypreError::SnapshotVersion`] — valid magic, another format
    ///   version.
    /// - [`HypreError::StaleSnapshot`] — well-formed snapshot warmed on
    ///   a corpus whose table shapes differ from `db`.
    pub fn load_from(
        path: impl AsRef<Path>,
        db: &Database,
    ) -> Result<(ProfileCache, Option<PairwiseCache>)> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| HypreError::SnapshotIo {
            detail: format!("read {}: {e}", path.display()),
        })?;
        let (cache, pairs) = ProfileCache::from_bytes(&bytes)?;
        cache.check_corpus(db, CorpusCheck::Exact)?;
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
        if fnv1a64(body).to_le_bytes() != sealed {
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

        let raw_vals = r.r_u64("interner count")?;
        let n_vals = r.checked_count(raw_vals, 1, "interner count")?;
        let mut interner = TupleInterner::default();
        for idx in 0..n_vals {
            let v = r.r_value("interner value")?;
            let id = interner.intern(&v)?;
            if id as usize != idx {
                return Err(r.corrupt("duplicate interner value"));
            }
        }
        let universe = interner.len();

        let raw_sets = r.r_u64("tuple-set count")?;
        let n_sets = r.checked_count(raw_sets, 9, "tuple-set count")?;
        let mut sets: HashMap<String, SharedTupleSet> = HashMap::with_capacity(n_sets);
        let mut preds: HashMap<String, Predicate> = HashMap::with_capacity(n_sets);
        for _ in 0..n_sets {
            let key = r.r_str("tuple-set predicate key")?;
            let set = r.r_set(universe, "tuple-set container")?;
            // The canonical key is the predicate's display form, and
            // display/parse round-trips exactly (tests/properties.rs) —
            // re-parsing reproduces the AST delta ingest re-evaluates.
            let pred = parse_predicate(&key).map_err(|e| HypreError::SnapshotCorrupt {
                detail: format!("unparseable predicate key '{key}': {e}"),
            })?;
            if sets.insert(key.clone(), Arc::new(set)).is_some() {
                return Err(r.corrupt("duplicate tuple-set key"));
            }
            preds.insert(key, pred);
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
                let by_first = index_by_first(&entries);
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
            interner: Arc::new(interner),
            sets,
            preds,
            fingerprint,
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
    use relstore::{DataType, Schema};

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
        for (key, set) in &cache.sets {
            let restored = loaded.get(key).unwrap();
            assert_eq!(&*restored, &**set, "set for {key}");
        }
        for (key, pred) in &cache.preds {
            assert_eq!(loaded.preds.get(key), Some(pred), "pred for {key}");
        }
        for id in 0..cache.tuple_universe() as u32 {
            assert_eq!(loaded.interner.value(id), cache.interner.value(id));
        }
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
