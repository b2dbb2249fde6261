//! Query execution services for the combination algorithms: the base-query
//! shape, applicability checks (Definition 15) with memoisation, and the
//! pre-computed pairwise combination list used by PEPS (§5.5) — all built
//! on row-id tuple ids and adaptive compressed set algebra.
//!
//! ## Combination semantics
//!
//! A stored preference is one SQL predicate and is evaluated as one query
//! against the base join. A *combination* of preferences, however, is
//! evaluated with **per-preference existential semantics**: a tuple
//! (paper) satisfies `P1 AND P2` iff it satisfies `P1` and satisfies `P2`
//! *independently*. This matters for attributes produced by the join — a
//! co-authored paper must satisfy `aid=2222 AND aid=4787` even though no
//! single joined row carries both author ids. The dissertation's prose
//! assumes exactly this ("two preferences on different authors that have
//! not published together **yet**" is its only empty-AND example, §7.3),
//! and Fagin's TA baseline is built the same way (§7.6.1: one graded list
//! per attribute, author grades `f∧`-aggregated per paper) — the reported
//! 100 % PEPS/TA agreement is only possible under these semantics.
//!
//! ## Row ids as tuple ids + adaptive sets
//!
//! The executor evaluates combinations by set algebra — intersection for
//! `AND`, union for `OR` — but never over heap `HashSet<Value>`s. Instead:
//!
//! 1. A tuple's id is the index of its row in the driving table. The base
//!    query's key (`dblp.pid`) must be non-`NULL` and unique on the
//!    driver, so a row stands for exactly one key and counting rows
//!    counts `DISTINCT` keys; a key that is `NULL` or repeated is
//!    [`HypreError::UnsupportedBaseQuery`]. `relstore`'s columnar
//!    `distinct_row_set` plan returns each matching driver row once, in
//!    ascending order, and that list *is* the predicate's set: no key is
//!    read, hashed or sorted. The keys are checked once — when a fresh
//!    executor first uses a row, when a cache is warmed or loaded, when
//!    a delta is ingested, and in a session only for rows past its
//!    snapshot's checked rows. With an index on the key the check reads
//!    the index's key count; without one it is one pass over the column.
//! 2. Each preference's *tuple set* is an adaptive compressed
//!    [`TupleSet`] over those ids — a sorted
//!    `u32` array for sparse predicates (the single-author/rare-venue long
//!    tail), a packed-word bitmap for dense ones, runs where rows are
//!    contiguous — materialised once per distinct predicate (memoised on
//!    the predicate's canonical text; one SQL query per predicate, ever)
//!    and shared as [`SharedTupleSet`]. Sets follow corpus order, so a
//!    predicate over a column the corpus is sorted by is a few runs.
//! 3. Combination evaluation picks the container-pair fast path: word-wide
//!    `&`/`|` loops and popcounts for bitmap pairs, merge/galloping walks
//!    for array pairs, contains-probes for mixed pairs; applicability
//!    (Definition 15) is an emptiness test. The [`PairwiseCache`] build
//!    collapses from `n(n−1)/2` SQL queries to `n` tuple-set fetches plus
//!    `n(n−1)/2` intersection-count passes that never materialise an
//!    intersection.
//!
//! Tuple *identities* (`Value`s) only reappear at the API boundary
//! ([`Executor::tuples`], [`Executor::tuples_and`],
//! [`Executor::values_of`], PEPS's final Top-K slice), where ids are read
//! back from the driver's key column and sorted for determinism; rankings
//! break ties by key value, never by id.
//!
//! ## Threading and the snapshot/sharing model
//!
//! The executor itself is a **single-session** object: its memo tables
//! use `RefCell`/`Cell` interior mutability, so it is `Send`-free and
//! never crosses threads. Everything one session computes — the
//! [`PairwiseCache`] build of §5.5 (`n` tuple-set fetches, then one
//! walk of the `(i, j)` triangle of AND-popcounts) and every PEPS round
//! — runs on the thread that owns the executor. Concurrency enters only
//! *between* sessions, through **shared profile snapshots**.
//!
//! A [`ProfileCache`] is an immutable, `Send + Sync` snapshot of a
//! warmed executor: the memoised predicate→tuple-set map (`Arc`'d sets,
//! shared structurally) plus the corpus identity it was built on — the
//! base tables' row counts and a digest of the driver's key column. N
//! concurrent user sessions against the same corpus each open a cheap
//! session executor with [`Executor::with_cache`]; cached predicates
//! resolve **lock-free** from the snapshot (no `RefCell` borrow, no SQL),
//! while predicates the snapshot has not seen fall through to the
//! session's private memo. Both name tuples by driver row, so snapshot
//! sets and session-local sets share one id space with no translation,
//! and rows appended after the snapshot get ids above every old one.
//! Sets are written only during the build phase (warm an
//! executor, then [`ProfileCache::snapshot`]) and are immutable
//! thereafter; the only later write is the snapshot's bounded,
//! mutex-guarded memo of pairwise tables. That is the whole
//! thread-safety contract: share `Arc<ProfileCache>` freely, keep each
//! `Executor` on one thread. Sessions run concurrently, one thread each
//! (see `examples/multi_user_serving.rs`, perfbench's `hot_zipf`
//! workload and [`crate::serve`], which evaluates each batch on the
//! connection thread that read it).
//!
//! ## Epoch lifecycle: live corpora without stop-the-world
//!
//! A frozen snapshot over a *live* corpus needs versioning, not a
//! restart. [`EpochCache`] holds an atomically-swappable **current
//! epoch** (an epoch number plus an `Arc<ProfileCache>`); the
//! `Arc<Epoch>` that [`EpochCache::current`] returns is the only handle
//! on it:
//!
//! 1. **Hold** — a caller takes `current()` and keeps the `Arc<Epoch>`,
//!    which keeps the epoch's snapshot alive however many publishes
//!    happen later.
//! 2. **Serve** — executors over the held snapshot open with
//!    [`Executor::with_cache_pinned`], which tolerates append-only
//!    growth of the underlying tables (cached predicates answer exactly
//!    as warmed while the corpus grows underneath), or batches run on it
//!    through a [`BatchScheduler`](crate::sched::BatchScheduler).
//! 3. **Ingest / publish** — [`EpochCache::ingest`] absorbs an
//!    append-only delta off to the side ([`ProfileCache::ingest_delta`]:
//!    delta rows → candidate driver rows → per-predicate incremental
//!    re-evaluation → copy-on-write container growth) and publishes the
//!    result as a new epoch ([`EpochCache::publish`]). Nothing blocks:
//!    holders of the old epoch keep answering throughout.
//! 4. **Next `current()`** — a caller moves on by taking `current()`
//!    again at a boundary of its choosing; [`crate::serve`] does so for
//!    every batch. The new epoch's pairwise memo starts empty, so each
//!    profile's table is rebuilt on its first batch there.
//! 5. **Evict** — a retired epoch is freed the moment its last
//!    `Arc<Epoch>` is dropped, and its snapshot with it once no executor
//!    still reads it; the cache keeps only a `Weak` to count it.
//!
//! **Failure atomicity:** warm-up and ingest build a complete new
//! snapshot *before* anything is returned or published — a mid-build
//! failure (SQL error, injected fault, stale fingerprint) surfaces as a
//! typed [`HypreError`], returns nothing, and leaves the current epoch
//! untouched and serving. There is no partially-warmed epoch by
//! construction; [`EpochCache::ingest`]'s bounded retry reruns whole
//! attempts, never resumes half-built state. A corpus change appends
//! cannot explain (a table shrank or vanished, or an old driver key
//! changed) is [`HypreError::StaleSnapshot`] — never a panic. Every base
//! query has one shape — the key column on the driving table, unique
//! there, every join anchored on a driver column — which is what makes
//! ingest incremental; a base query of another shape, or a key that is
//! `NULL` or repeated, is [`HypreError::UnsupportedBaseQuery`] on first
//! use, never a silent fallback. The fault-injection harness
//! (`relstore::FailSchedule`) and `tests/live_corpus.rs` pin this
//! contract at every injection point.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use relstore::{ColRef, Database, Predicate, RowId, SelectQuery, StrDict, Table, Value};

use crate::algo::peps::{PepsVariant, RankedTuple};
use crate::combine::{f_and, PrefAtom};
use crate::error::{HypreError, Result};
use crate::tupleset::TupleSet;

pub mod snapshot;

/// The base select query every preference combination enhances — the
/// dissertation's `SELECT count(distinct dblp.pid) FROM dblp JOIN
/// dblp_author ON dblp.pid = dblp_author.pid WHERE …` (§5.3).
#[derive(Debug, Clone)]
pub struct BaseQuery {
    /// Driving table.
    pub table: String,
    /// `(joined table, driver column, joined column)` inner equi-joins.
    pub joins: Vec<(String, ColRef, ColRef)>,
    /// The tuple-identity column counted with `DISTINCT`.
    pub key: ColRef,
}

impl BaseQuery {
    /// A single-table base query.
    pub fn single(table: impl Into<String>, key: ColRef) -> Self {
        BaseQuery {
            table: table.into(),
            joins: Vec::new(),
            key,
        }
    }

    /// Adds an inner equi-join.
    pub fn join(mut self, table: impl Into<String>, left: ColRef, right: ColRef) -> Self {
        self.joins.push((table.into(), left, right));
        self
    }

    /// The dissertation's DBLP base query.
    pub fn dblp() -> Self {
        BaseQuery::single("dblp", ColRef::parse("dblp.pid")).join(
            "dblp_author",
            ColRef::parse("dblp.pid"),
            ColRef::parse("dblp_author.pid"),
        )
    }

    /// Builds the executable query for a filter, joining only the tables
    /// the filter references. In the DBLP workload every paper has at
    /// least one author row, so dropping an unreferenced join leaves
    /// `COUNT(DISTINCT pid)` unchanged while skipping the join work.
    pub fn select_for(&self, filter: &Predicate) -> SelectQuery {
        let referenced = filter.tables();
        let mut q = SelectQuery::from(self.table.clone());
        for (table, left, right) in &self.joins {
            if referenced.contains(table) {
                q = q.join(table.clone(), left.clone(), right.clone());
            }
        }
        q.filter(filter.clone())
    }

    /// The driving table, then each joined table, in join order — the
    /// tables a [`ProfileCache`] fingerprints.
    fn tables(&self) -> impl Iterator<Item = &String> {
        std::iter::once(&self.table).chain(self.joins.iter().map(|(table, _, _)| table))
    }

    /// Checks the one base-query shape the executor supports: the key
    /// column is on the driving table and every join is anchored on a
    /// driver column (unqualified columns resolve on the driver). Tuple
    /// ids are driver rows, and delta ingest maps joined rows back to
    /// driver rows, on that shape.
    ///
    /// # Errors
    /// [`HypreError::UnsupportedBaseQuery`] naming the offending column.
    fn check_shape(&self) -> Result<()> {
        let on_driver = |col: &ColRef| col.table.as_ref().is_none_or(|t| *t == self.table);
        let offending = std::iter::once(&self.key)
            .chain(self.joins.iter().map(|(_, left, _)| left))
            .find(|col| !on_driver(col));
        match offending {
            None => Ok(()),
            Some(col) => Err(HypreError::UnsupportedBaseQuery {
                detail: format!("column {col} is not on the driving table '{}'", self.table),
            }),
        }
    }

    /// The driving table and its key column's index, once the shape is
    /// checked.
    ///
    /// # Errors
    /// [`HypreError::UnsupportedBaseQuery`] for another shape; a
    /// relational error when the driver or its key column is missing.
    fn driver_key<'db>(&self, db: &'db Database) -> Result<(&'db Table, usize)> {
        self.check_shape()?;
        let driver = db.table(&self.table)?;
        let key_idx = driver
            .schema()
            .require(Some(&self.table), &self.key.column)?;
        Ok((driver, key_idx))
    }
}

/// Checks that the key column at `key_idx` of `driver` can name tuples
/// by row: every key is non-`NULL` and held by no other row, so one row
/// id stands for one key value and counting rows counts distinct keys,
/// and every row id fits a `u32` tuple id.
///
/// # Errors
/// [`HypreError::IdSpaceExhausted`] past `u32::MAX + 1` rows;
/// [`HypreError::UnsupportedBaseQuery`] for a `NULL` or repeated key.
fn check_keys(driver: &Table, key_idx: usize) -> Result<()> {
    id_space(driver.len())?;
    if driver.is_unique_key(key_idx) {
        Ok(())
    } else {
        let column = driver.schema().column(key_idx).name();
        Err(HypreError::UnsupportedBaseQuery {
            detail: format!(
                "key column {}.{column} holds a NULL or a repeated value",
                driver.name()
            ),
        })
    }
}

/// Checks that `rows` driver rows fit the dense `u32` tuple-id space.
fn id_space(rows: usize) -> Result<()> {
    if rows as u64 > u64::from(u32::MAX) + 1 {
        Err(HypreError::IdSpaceExhausted)
    } else {
        Ok(())
    }
}

/// The FNV-1a-64 offset basis: the digest of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends an FNV-1a-64 state over `bytes`. Each step is a bijection of
/// the running state, so changing any one byte always changes the result.
fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Extends an FNV-1a-64 state over the keys of `rows` of the driver:
/// each `INT` key as its eight little-endian bytes, any other key as its
/// canonical literal and a `0` separator. It is a snapshot's corpus
/// identity: a tuple id is a row, so the digest says which key each id
/// stands for.
fn key_digest(state: u64, driver: &Table, key_idx: usize, rows: std::ops::Range<usize>) -> u64 {
    match driver.int_values(key_idx) {
        Some(keys) => keys[rows]
            .iter()
            .fold(state, |h, k| fnv1a64(h, &k.to_le_bytes())),
        None => rows.fold(state, |h, row| {
            let key = driver.value_at(row, key_idx).unwrap_or(Value::Null);
            fnv1a64(fnv1a64(h, key.to_literal().as_bytes()), &[0])
        }),
    }
}

/// A shared, immutable tuple set: an adaptive compressed set
/// ([`TupleSet`]) over tuple ids (driver row ids). `Arc`-backed so materialised
/// sets are shared without copying — down PEPS expansion paths and out
/// of a [`ProfileCache`] shared by concurrent sessions.
pub type SharedTupleSet = Arc<TupleSet>;

/// Runs preference-enhanced queries with per-preference tuple-set
/// memoisation and query accounting (the combination algorithms are
/// compared by how many real queries they issue).
///
/// An executor is a **session**: single-threaded by construction
/// (interior mutability in its memo tables), optionally reading through
/// a shared [`ProfileCache`] snapshot.
pub struct Executor<'db> {
    db: &'db Database,
    base: BaseQuery,
    /// The driving table and its key column, resolved once.
    driver: Result<(&'db Table, usize)>,
    /// Driver rows whose keys are known non-`NULL` and unique: none for a
    /// fresh executor, the snapshot's checked rows for a session. A
    /// result holding a row at or past it checks the key column first.
    unique_rows: Cell<usize>,
    atom_cache: RefCell<HashMap<String, (Predicate, SharedTupleSet)>>,
    shared: Option<Arc<ProfileCache>>,
    queries_run: Cell<usize>,
    cache_hits: Cell<usize>,
    shared_hits: Cell<usize>,
}

impl<'db> Executor<'db> {
    /// Creates an executor over a database and base query.
    pub fn new(db: &'db Database, base: BaseQuery) -> Self {
        Executor {
            db,
            driver: base.driver_key(db),
            base,
            unique_rows: Cell::new(0),
            atom_cache: RefCell::new(HashMap::new()),
            shared: None,
            queries_run: Cell::new(0),
            cache_hits: Cell::new(0),
            shared_hits: Cell::new(0),
        }
    }

    /// Opens a session executor over a shared profile snapshot: the base
    /// query comes from the cache, cached predicates resolve lock-free
    /// without SQL, and new predicates run into the session's own memo.
    /// Both name tuples by driver row, so they share one id space.
    ///
    /// The snapshot pins the corpus state it was built from — sessions
    /// must run against the same (immutable) [`Database`] the cache was
    /// warmed on, or cached sets would silently disagree with fresh
    /// queries.
    ///
    /// # Errors
    /// [`HypreError::StaleSnapshot`] when `db`'s base-table row counts do
    /// not match the counts recorded when the snapshot was taken — the
    /// cheap fingerprint that turns a mixed-corpora session (stale cached
    /// sets beside fresh SQL against a different corpus) into an
    /// immediate typed error instead of a silently wrong ranking. A
    /// session open compares row counts only: the key digest is checked
    /// where a snapshot meets a corpus it was not built on
    /// ([`ProfileCache::load_from`], [`ProfileCache::ingest_delta`]), not
    /// on every batch.
    pub fn with_cache(db: &'db Database, cache: Arc<ProfileCache>) -> Result<Self> {
        Executor::open_session(db, cache, CorpusCheck::Exact)
    }

    /// Like [`Executor::with_cache`], but tolerant of *append-only
    /// growth*: the session opens as long as every base-query table is at
    /// least as long as it was at warm time. This is how executors over a
    /// retired [`EpochCache`] epoch keep answering while the live
    /// corpus grows underneath them — cached predicates resolve from the
    /// held snapshot exactly as warmed; only predicates the snapshot
    /// never materialised fall through to SQL and would observe the
    /// grown corpus.
    ///
    /// # Errors
    /// [`HypreError::StaleSnapshot`] when a table shrank, disappeared or
    /// appeared — changes an append-only corpus cannot produce.
    pub fn with_cache_pinned(db: &'db Database, cache: Arc<ProfileCache>) -> Result<Self> {
        Executor::open_session(db, cache, CorpusCheck::AppendOnly)
    }

    fn open_session(
        db: &'db Database,
        cache: Arc<ProfileCache>,
        check: CorpusCheck,
    ) -> Result<Self> {
        cache.check_corpus(db, check)?;
        Ok(Executor {
            db,
            base: cache.base.clone(),
            driver: cache.base.driver_key(db),
            unique_rows: Cell::new(cache.checked_rows),
            atom_cache: RefCell::new(HashMap::new()),
            shared: Some(cache),
            queries_run: Cell::new(0),
            cache_hits: Cell::new(0),
            shared_hits: Cell::new(0),
        })
    }

    /// The base query.
    pub fn base(&self) -> &BaseQuery {
        &self.base
    }

    /// The database.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    // ------------------------------------------------------------------
    // tuple-id boundary
    // ------------------------------------------------------------------

    /// The driving table and its key column, behind every issued id.
    ///
    /// # Panics
    /// Panics when the base query has no driver: then no id was issued.
    fn key_column(&self) -> (&'db Table, usize) {
        match &self.driver {
            Ok(driver) => *driver,
            Err(e) => panic!("no tuple id was issued: {e}"),
        }
    }

    /// The id-space size: the driving table's row count, an upper bound
    /// for ids in any tuple set this executor produces.
    pub fn tuple_universe(&self) -> usize {
        self.driver.as_ref().map_or(0, |(driver, _)| driver.len())
    }

    /// The tuple identity behind an id: its driver row's key.
    ///
    /// # Panics
    /// Panics if the id is past the driving table.
    pub fn tuple_value(&self, id: u32) -> Value {
        let (driver, key_idx) = self.key_column();
        match driver.value_at(id as usize, key_idx) {
            Some(key) => key,
            None => panic!("tuple id {id} is past the driving table"),
        }
    }

    /// How tuple ids order by their keys — the tie-break of every
    /// ranking — with the key column resolved once, so a comparison
    /// clones no key.
    pub(crate) fn tuple_order(&self) -> TupleOrder<'db> {
        let (driver, key_idx) = self.key_column();
        if let Some(keys) = driver.int_values(key_idx) {
            TupleOrder::Int(keys)
        } else if let Some((codes, dict)) = driver.str_codes(key_idx) {
            TupleOrder::Str(codes, dict)
        } else {
            TupleOrder::Cells(driver, key_idx)
        }
    }

    /// Translates a tuple set back to sorted tuple identities — the only
    /// place ids become `Value`s again.
    pub fn values_of(&self, set: &TupleSet) -> Vec<Value> {
        let mut out: Vec<Value> = set.iter().map(|id| self.tuple_value(id)).collect();
        out.sort();
        out
    }

    /// Checks the driver's keys before ids up to `end` are used, unless
    /// rows that far are already known unique; after a check, every row
    /// of the (immutable) driver is.
    ///
    /// # Errors
    /// As [`check_keys`].
    fn ensure_unique_keys(&self, driver: &Table, key_idx: usize, end: usize) -> Result<()> {
        if end > self.unique_rows.get() {
            check_keys(driver, key_idx)?;
            self.unique_rows.set(driver.len());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // single-preference (unit) evaluation
    // ------------------------------------------------------------------

    /// The tuple set matched by one preference predicate, memoised on the
    /// predicate's canonical text. One SQL query per distinct predicate,
    /// ever — and zero for predicates a shared [`ProfileCache`] snapshot
    /// already materialised (those resolve lock-free, without touching
    /// the session's own memo).
    pub fn tuple_set(&self, unit: &Predicate) -> Result<SharedTupleSet> {
        self.resolve(unit).map(|(set, _)| set)
    }

    /// [`tuple_set`](Self::tuple_set), also saying whether the set came
    /// from the shared [`ProfileCache`] snapshot (`true`) rather than the
    /// session's own memo or SQL.
    pub(crate) fn resolve(&self, unit: &Predicate) -> Result<(SharedTupleSet, bool)> {
        let key = unit.canonical();
        if let Some(cache) = &self.shared {
            if let Some(set) = cache.get(&key) {
                self.shared_hits.set(self.shared_hits.get() + 1);
                return Ok((set, true));
            }
        }
        if let Some((_, set)) = self.atom_cache.borrow().get(&key) {
            self.cache_hits.set(self.cache_hits.get() + 1);
            return Ok((Arc::clone(set), false));
        }
        self.queries_run.set(self.queries_run.get() + 1);
        let set: SharedTupleSet = Arc::new(self.run(unit)?);
        self.atom_cache
            .borrow_mut()
            .insert(key, (unit.clone(), Arc::clone(&set)));
        Ok((set, false))
    }

    /// Runs the unit's enhanced query: its distinct driving rows, which
    /// come back ascending and deduplicated, *are* its tuple ids — no key
    /// is read, hashed or sorted. Rows past those known to have unique
    /// keys are checked first.
    fn run(&self, unit: &Predicate) -> Result<TupleSet> {
        let (driver, key_idx) = self.driver.clone()?;
        let rids = self.base.select_for(unit).distinct_row_set(self.db)?;
        self.ensure_unique_keys(driver, key_idx, rids.last().map_or(0, |r| r.0 + 1))?;
        Ok(TupleSet::from_sorted(
            rids.into_iter().map(|r| r.0 as u32).collect(),
        ))
    }

    /// `COUNT(DISTINCT key)` for one preference predicate (a popcount).
    pub fn count(&self, unit: &Predicate) -> Result<u64> {
        Ok(self.tuple_set(unit)?.count() as u64)
    }

    /// Definition 15: a predicate is *applicable* when the enhanced query
    /// returns at least one tuple.
    pub fn is_applicable(&self, unit: &Predicate) -> Result<bool> {
        Ok(!self.tuple_set(unit)?.is_empty())
    }

    /// The distinct key values matched by one preference predicate, sorted
    /// for determinism.
    pub fn tuples(&self, unit: &Predicate) -> Result<Vec<Value>> {
        let set = self.tuple_set(unit)?;
        Ok(self.values_of(&set))
    }

    // ------------------------------------------------------------------
    // combination evaluation (bitset algebra over preference units)
    // ------------------------------------------------------------------

    /// The tuple set of an AND combination: the intersection of the member
    /// preferences' tuple sets (smallest-first, container-adaptive).
    pub fn and_set(&self, units: &[&Predicate]) -> Result<TupleSet> {
        let mut sets = Vec::with_capacity(units.len());
        for u in units {
            sets.push(self.tuple_set(u)?);
        }
        Ok(intersect_all(sets))
    }

    /// `COUNT(DISTINCT key)` of an AND combination.
    pub fn count_and(&self, units: &[&Predicate]) -> Result<u64> {
        Ok(self.and_set(units)?.count() as u64)
    }

    /// Whether an AND combination is applicable.
    pub fn is_applicable_and(&self, units: &[&Predicate]) -> Result<bool> {
        if units.is_empty() {
            return Ok(false);
        }
        // Pairwise screen: if any two members don't intersect, neither
        // does the whole combination — no intersection is materialised.
        let mut sets = Vec::with_capacity(units.len());
        for u in units {
            sets.push(self.tuple_set(u)?);
        }
        for (i, a) in sets.iter().enumerate() {
            for b in &sets[i + 1..] {
                if !a.intersects(b) {
                    return Ok(false);
                }
            }
        }
        Ok(!intersect_all(sets).is_empty())
    }

    /// Sorted tuple identities of an AND combination.
    pub fn tuples_and(&self, units: &[&Predicate]) -> Result<Vec<Value>> {
        let set = self.and_set(units)?;
        Ok(self.values_of(&set))
    }

    /// The tuple set of a mixed clause: groups are OR-ed (union) within and
    /// AND-ed (intersection) across — the §4.6 combination rule.
    pub fn mixed_set(&self, groups: &[Vec<&Predicate>]) -> Result<TupleSet> {
        let mut group_sets: Vec<TupleSet> = Vec::with_capacity(groups.len());
        for group in groups {
            let mut union = TupleSet::new();
            for u in group {
                let set = self.tuple_set(u)?;
                union.or_assign(&set);
            }
            group_sets.push(union);
        }
        group_sets.sort_by_key(TupleSet::count);
        let Some(first) = group_sets.first() else {
            return Ok(TupleSet::new());
        };
        let mut acc = first.clone();
        for s in &group_sets[1..] {
            acc.and_assign(s);
            if acc.is_empty() {
                break;
            }
        }
        Ok(acc)
    }

    /// `COUNT(DISTINCT key)` of a mixed clause.
    pub fn count_mixed(&self, groups: &[Vec<&Predicate>]) -> Result<u64> {
        Ok(self.mixed_set(groups)?.count() as u64)
    }

    // ------------------------------------------------------------------
    // accounting
    // ------------------------------------------------------------------

    /// Number of real SQL queries issued (one per distinct preference).
    pub fn queries_run(&self) -> usize {
        self.queries_run.get()
    }

    /// Number of tuple-set requests served from the session's own cache.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits.get()
    }

    /// Number of tuple-set requests served lock-free from a shared
    /// [`ProfileCache`] snapshot.
    pub fn shared_hits(&self) -> usize {
        self.shared_hits.get()
    }
}

/// How tuple ids order: by their driver keys, in [`Value`] order, read
/// straight off the key column's segment. Keys are non-`NULL`, so an
/// `INT` key compares as its `i64` and a `TEXT` key as its string, as
/// their `Value`s do.
pub(crate) enum TupleOrder<'db> {
    Int(&'db [i64]),
    Str(&'db [u32], &'db StrDict),
    Cells(&'db Table, usize),
}

impl TupleOrder<'_> {
    /// Orders two tuple ids by their keys.
    pub(crate) fn cmp(&self, a: u32, b: u32) -> Ordering {
        let (a, b) = (a as usize, b as usize);
        match *self {
            TupleOrder::Int(keys) => keys[a].cmp(&keys[b]),
            TupleOrder::Str(codes, dict) => dict.get(codes[a]).cmp(&dict.get(codes[b])),
            TupleOrder::Cells(driver, key_idx) => driver
                .value_at(a, key_idx)
                .cmp(&driver.value_at(b, key_idx)),
        }
    }
}

/// An immutable, `Send + Sync` snapshot of a warmed executor, shared
/// across session executors behind `Arc`: the memoised predicate→tuple-set
/// map plus the corpus identity it was built on. The serving shape for
/// multi-user workloads (Chomicki's incremental-profile argument): N
/// concurrent sessions against one corpus fetch materialised sets
/// lock-free, and only pay SQL for predicates the snapshot has never
/// seen.
///
/// Writes go through a *build phase* — warm any executor (run the
/// profile predicates through it), then freeze with
/// [`ProfileCache::snapshot`]. The tuple sets are immutable thereafter;
/// to absorb new predicates, snapshot a session that ran them and swap
/// the `Arc` (readers keep their old snapshot until they re-open).
///
/// The one thing that still changes is a bounded memo of pairwise
/// tables (§5.5's per-profile list, "updated when the preference graph
/// is updated") and of the answers read off them.
/// [`BatchScheduler`](crate::sched::BatchScheduler) fills it lazily:
///
/// * one [`PairwiseCache`] per profile identity whose every atom set
///   this snapshot holds (for a profile with atoms from elsewhere, the
///   table of its snapshot atoms alone: the full table is extended from
///   it and never memoised), until the tables hold
///   [`PAIRWISE_MEMO_ENTRIES`] entries;
/// * beside a whole profile's table, its finished PEPS answers by
///   variant and `k`, until the answers hold [`PAIRWISE_MEMO_ENTRIES`]
///   tuples, tallied apart from the tables. An answer only ever joins a
///   memoised table, and never one of an edited profile's snapshot part.
///
/// A table is a pure function of the sets and intensities it is keyed
/// by, and an answer of the table, its sets, the variant and `k` (its
/// tuple keys are those of rows the snapshot pins), so the memo changes
/// wall-clock, never an answer. Every new snapshot — [`ProfileCache::snapshot`],
/// a delta ingest that changed something, a loaded file — starts with
/// an empty memo; a clone copies it.
#[derive(Debug, Clone)]
pub struct ProfileCache {
    base: BaseQuery,
    /// Every materialised set with the predicate AST behind it, by
    /// canonical key — the AST is what delta ingest re-evaluates over
    /// changed rows without re-parsing canonical text.
    sets: HashMap<String, (Predicate, SharedTupleSet)>,
    /// Row counts of the base query's tables at snapshot time, named in
    /// [`BaseQuery::tables`] order — the cheap corpus identity
    /// [`ProfileCache::check_corpus`] compares so a snapshot is never
    /// silently served against a different database.
    fingerprint: Vec<(String, Option<usize>)>,
    /// FNV-1a-64 of the driver's key column over the fingerprinted driver
    /// rows ([`key_digest`]): which key each tuple id stands for.
    key_digest: u64,
    /// Driver rows whose keys are known non-`NULL` and unique; every id
    /// in every set is below it. Sessions start from it.
    checked_rows: usize,
    /// Pairwise tables and answers of the profiles served from this
    /// snapshot.
    pairwise: PairwiseMemo,
}

/// The most pairwise entries a [`ProfileCache`]'s memo holds, counting
/// one more per table for its key. At 32 bytes per [`PairEntry`] that is
/// about 32 MiB. The memoised answers have a budget of their own of as
/// many tuples, counting one more per answer: at 40 bytes per
/// [`RankedTuple`] (plus a text key's bytes) about 40 MiB.
pub const PAIRWISE_MEMO_ENTRIES: usize = 1 << 20;

/// A memoised Top-K answer, shared by every request it answers.
pub(crate) type MemoAnswer = Arc<[RankedTuple]>;

/// A profile's identity: each atom's tuple-set `Arc` pointer and
/// intensity bits, in profile order. The pairwise table is a pure
/// function of it while the sets behind the pointers stay alive.
pub(crate) type ProfileKey = Vec<(usize, u64)>;

/// A snapshot's memo of pairwise tables and answers, keyed by
/// [`ProfileKey`]. Only keys whose pointers all name sets the snapshot
/// itself holds may enter: the snapshot keeps those `Arc`s alive as long
/// as the memo, so no pointer in a key can be reused for another set.
#[derive(Debug, Default)]
struct PairwiseMemo(Mutex<MemoTables>);

#[derive(Debug, Default, Clone)]
struct MemoTables {
    tables: HashMap<ProfileKey, MemoEntry>,
    /// Entries held, plus one per table.
    entries: usize,
    /// Answer tuples held, plus one per answer.
    answer_tuples: usize,
}

/// One profile's table and the answers PEPS read off it.
#[derive(Debug, Clone)]
struct MemoEntry {
    pairs: Arc<PairwiseCache>,
    answers: HashMap<(PepsVariant, usize), MemoAnswer>,
}

impl PairwiseMemo {
    /// Locks the tables, recovering from a poisoned mutex (a table is
    /// inserted in one step, never half-written).
    fn lock(&self) -> MutexGuard<'_, MemoTables> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Clone for PairwiseMemo {
    /// A clone of a snapshot holds the same set `Arc`s, so the memoised
    /// keys stay valid for it.
    fn clone(&self) -> Self {
        PairwiseMemo(Mutex::new(self.lock().clone()))
    }
}

/// Row counts of the base query's driver and joined tables (`None` for a
/// missing table) — the corpus identity a [`ProfileCache`] pins.
fn corpus_fingerprint(db: &Database, base: &BaseQuery) -> Vec<(String, Option<usize>)> {
    base.tables()
        .map(|t| (t.clone(), db.table(t).map(Table::len).ok()))
        .collect()
}

/// Checks that a fingerprint names exactly the base query's tables, in
/// order. Only a snapshot file can break this, so a mismatch is
/// [`HypreError::SnapshotCorrupt`].
fn check_fingerprint_tables(
    fingerprint: &[(String, Option<usize>)],
    base: &BaseQuery,
) -> Result<()> {
    if fingerprint.iter().map(|(table, _)| table).eq(base.tables()) {
        Ok(())
    } else {
        Err(HypreError::SnapshotCorrupt {
            detail: "fingerprint does not name exactly the base query's tables".into(),
        })
    }
}

/// How far the live corpus may have moved from a snapshot's fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CorpusCheck {
    /// Every table has exactly its warm-time row count.
    Exact,
    /// Tables may have grown by appends; none shrank, appeared or vanished.
    AppendOnly,
}

/// `(warm-time, current)` row counts of one base-query table; `None` for
/// a table absent both then and now.
type TableSpan = Option<(usize, usize)>;

impl ProfileCache {
    /// Freezes an executor's current state — every memoised tuple set —
    /// into a shareable snapshot. Snapshotting a session executor folds
    /// its local memo *and* the snapshot it reads through into one flat
    /// map, so caches compose incrementally. The snapshot fingerprints
    /// the corpus as it is now, key digest included (one pass over the
    /// driver's key column).
    pub fn snapshot(exec: &Executor<'_>) -> Self {
        let mut sets = exec
            .shared
            .as_ref()
            .map(|c| c.sets.clone())
            .unwrap_or_default();
        for (key, (pred, set)) in exec.atom_cache.borrow().iter() {
            sets.insert(key.clone(), (pred.clone(), Arc::clone(set)));
        }
        let key_digest = exec
            .driver
            .as_ref()
            .map_or(FNV_OFFSET, |&(driver, key_idx)| {
                key_digest(FNV_OFFSET, driver, key_idx, 0..driver.len())
            });
        ProfileCache {
            base: exec.base.clone(),
            sets,
            fingerprint: corpus_fingerprint(exec.db, &exec.base),
            key_digest,
            checked_rows: exec.unique_rows.get(),
            pairwise: PairwiseMemo::default(),
        }
    }

    /// Builds a snapshot directly: runs every predicate through a fresh
    /// executor (one SQL query each) and freezes the result.
    ///
    /// # Errors
    /// [`HypreError::UnsupportedBaseQuery`] for a base query of another
    /// shape or a driver key that is `NULL` or repeated somewhere; any
    /// error of the queries.
    pub fn warm<'p>(
        db: &Database,
        base: BaseQuery,
        predicates: impl IntoIterator<Item = &'p Predicate>,
    ) -> Result<Self> {
        let exec = Executor::new(db, base);
        let (driver, key_idx) = exec.driver.clone()?;
        for p in predicates {
            exec.tuple_set(p)?;
        }
        exec.ensure_unique_keys(driver, key_idx, driver.len())?;
        Ok(ProfileCache::snapshot(&exec))
    }

    /// The base query the snapshot was built for.
    pub fn base(&self) -> &BaseQuery {
        &self.base
    }

    /// The materialised tuple set for a canonical predicate key, if the
    /// snapshot holds it.
    pub fn get(&self, canonical: &str) -> Option<SharedTupleSet> {
        self.sets.get(canonical).map(|(_, set)| Arc::clone(set))
    }

    /// Whether the snapshot holds a predicate (by canonical text).
    pub fn contains(&self, predicate: &Predicate) -> bool {
        self.sets.contains_key(&predicate.canonical())
    }

    /// Number of materialised predicate tuple sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the snapshot holds no tuple sets.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Size of the frozen tuple-id space: the driver's row count when the
    /// snapshot was taken.
    pub fn tuple_universe(&self) -> usize {
        self.fingerprint
            .first()
            .and_then(|&(_, rows)| rows)
            .unwrap_or(0)
    }

    /// The pairwise table keyed by `key`, whose every set pointer names
    /// a set this snapshot holds — a whole profile's, or the part of an
    /// edited profile that came from the snapshot, which the caller then
    /// [extends](PairwiseCache::extend) by its other atoms: the memoised
    /// table (`true`), or else `build`'s, memoised while the memo has
    /// room (`false`). Beside it, for each of `ks`, the answer under
    /// `variant` memoised with the table, if there is one. Only a
    /// caller whose key is its whole profile's may ask for answers (and
    /// store them with [`memoise_answers`](Self::memoise_answers)); any
    /// other passes no `ks`.
    ///
    /// A hit takes the lock once. It is never held while `build` runs,
    /// so two batches may build the same table at once; the first to
    /// finish keeps its copy.
    pub(crate) fn memoised_pairwise(
        &self,
        key: &[(usize, u64)],
        variant: PepsVariant,
        ks: &[usize],
        build: impl FnOnce() -> PairwiseCache,
    ) -> (Arc<PairwiseCache>, bool, Vec<Option<MemoAnswer>>) {
        if let Some(entry) = self.pairwise.lock().tables.get(key) {
            let answers = ks
                .iter()
                .map(|&k| entry.answers.get(&(variant, k)).cloned())
                .collect();
            return (Arc::clone(&entry.pairs), true, answers);
        }
        let pairs = Arc::new(build());
        let cost = pairs.entries.len() + 1;
        let mut memo = self.pairwise.lock();
        let memo = &mut *memo;
        if memo.entries + cost <= PAIRWISE_MEMO_ENTRIES {
            if let Entry::Vacant(slot) = memo.tables.entry(key.to_vec()) {
                slot.insert(MemoEntry {
                    pairs: Arc::clone(&pairs),
                    answers: HashMap::new(),
                });
                memo.entries += cost;
            }
        }
        (pairs, false, vec![None; ks.len()])
    }

    /// Memoises `answers`, the Top-K answers under `variant` of the whole
    /// profile `key` names, beside its table while the answers have room.
    /// A profile whose table is not memoised keeps no answer.
    pub(crate) fn memoise_answers(
        &self,
        key: &[(usize, u64)],
        variant: PepsVariant,
        answers: impl IntoIterator<Item = (usize, MemoAnswer)>,
    ) {
        let mut memo = self.pairwise.lock();
        let memo = &mut *memo;
        let Some(entry) = memo.tables.get_mut(key) else {
            return;
        };
        for (k, answer) in answers {
            let cost = answer.len() + 1;
            if memo.answer_tuples + cost > PAIRWISE_MEMO_ENTRIES {
                continue;
            }
            if let Entry::Vacant(slot) = entry.answers.entry((variant, k)) {
                slot.insert(answer);
                memo.answer_tuples += cost;
            }
        }
    }

    /// Pairwise entries the memo holds, plus one per table — never more
    /// than [`PAIRWISE_MEMO_ENTRIES`].
    pub fn pairwise_memo_entries(&self) -> usize {
        self.pairwise.lock().entries
    }

    /// Answer tuples the memo holds, plus one per answer — never more
    /// than [`PAIRWISE_MEMO_ENTRIES`].
    pub fn answer_memo_tuples(&self) -> usize {
        self.pairwise.lock().answer_tuples
    }

    /// The one corpus-identity check: `db`'s base-query tables against
    /// the warm-time fingerprint, which must name exactly those tables.
    /// Returns each table's span in [`BaseQuery::tables`] order.
    ///
    /// # Errors
    /// [`HypreError::SnapshotCorrupt`] when the fingerprint names other
    /// tables; [`HypreError::StaleSnapshot`] when a row count moved in a
    /// way `check` does not allow.
    fn check_corpus(&self, db: &Database, check: CorpusCheck) -> Result<Vec<TableSpan>> {
        check_fingerprint_tables(&self.fingerprint, &self.base)?;
        self.fingerprint
            .iter()
            .map(|(table, warmed)| {
                let now = db.table(table).map(Table::len).ok();
                match (*warmed, now) {
                    (None, None) => Ok(None),
                    (Some(w), Some(c)) if c == w || (c > w && check == CorpusCheck::AppendOnly) => {
                        Ok(Some((w, c)))
                    }
                    _ => Err(HypreError::StaleSnapshot {
                        table: table.clone(),
                        warmed: *warmed,
                        current: now,
                    }),
                }
            })
            .collect()
    }

    /// Checks that the driver's first [`tuple_universe`](Self::tuple_universe)
    /// keys are still the ones the snapshot was built on.
    ///
    /// # Errors
    /// [`HypreError::StaleSnapshot`] with equal row counts when a key
    /// differs (a row rewritten, or rows permuted).
    fn check_key_digest(&self, driver: &Table, key_idx: usize) -> Result<()> {
        let rows = self.tuple_universe().min(driver.len());
        if key_digest(FNV_OFFSET, driver, key_idx, 0..rows) == self.key_digest {
            Ok(())
        } else {
            Err(HypreError::StaleSnapshot {
                table: self.base.table.clone(),
                warmed: Some(rows),
                current: Some(rows),
            })
        }
    }

    /// Absorbs an *append-only* corpus delta into a new snapshot without
    /// re-deriving any predicate from SQL scratch. For every base-query
    /// table that grew since warm time, the delta rows are mapped to the
    /// driver rows they could affect: new driver rows directly, new
    /// joined rows through their join key — sought in the driver's index
    /// on the join column when it has one, else found in one pass over
    /// that column. Each predicate is then re-evaluated over just those
    /// candidate rows by relstore's seeded columnar plan
    /// ([`relstore::SelectQuery::distinct_row_set_among`]); the matching
    /// rows are the new members (an appended driver row's id is above
    /// every old one by construction), and the matching run / array /
    /// bitmap containers grow copy-on-write — untouched sets are shared
    /// structurally with the old snapshot. Because the tables are
    /// append-only, predicate matches are monotone (a driver row can only
    /// *gain* witnesses), so insert-only maintenance is exact.
    ///
    /// Before any set grows, the driver's keys over the old rows must
    /// still match the snapshot's key digest, and every key, appended ones
    /// included, must be non-`NULL` and unique.
    ///
    /// `self` is never mutated: on any error the old snapshot remains
    /// fully intact and serving — the atomicity contract the epoch layer
    /// builds on. If no table grew, the snapshot is returned unchanged
    /// (a cheap no-op) with an empty report.
    ///
    /// # Errors
    /// [`HypreError::StaleSnapshot`] when the corpus changed in a way
    /// appends cannot produce (a table shrank, appeared or disappeared, or
    /// an old driver key changed);
    /// [`HypreError::UnsupportedBaseQuery`] for a base query with its key
    /// or a join column off the driving table, or a key that is `NULL` or
    /// repeated; any error from the underlying queries (e.g. injected
    /// faults).
    pub fn ingest_delta(&self, db: &Database) -> Result<(ProfileCache, DeltaReport)> {
        let spans = self.check_corpus(db, CorpusCheck::AppendOnly)?;
        let appended: Vec<(String, usize)> = self
            .base
            .tables()
            .zip(&spans)
            .filter_map(|(table, span)| match *span {
                Some((old, now)) if now > old => Some((table.clone(), now - old)),
                _ => None,
            })
            .collect();
        let (driver, key_idx) = self.base.driver_key(db)?;
        self.check_key_digest(driver, key_idx)?;
        if appended.is_empty() {
            return Ok((self.clone(), DeltaReport::default()));
        }
        check_keys(driver, key_idx)?;
        let (driver_old, driver_now) = spans[0].unwrap_or((driver.len(), driver.len()));

        // Per joined table that grew: the driver rows its delta rows reach
        // through the join key — sought key by key through the driver's
        // index on the join column when it has one, else found in one
        // pass over that column.
        let mut joined_candidates: HashMap<&str, Vec<RowId>> = HashMap::new();
        for ((table, left, right), span) in self.base.joins.iter().zip(&spans[1..]) {
            let Some((old, now)) = *span else {
                continue;
            };
            if now == old {
                continue;
            }
            let jt = db.table(table)?;
            let right_idx = jt.schema().require(Some(table), &right.column)?;
            let left_idx = driver
                .schema()
                .require(Some(&self.base.table), &left.column)?;
            let delta_keys = (old..now)
                .filter_map(|idx| jt.value_at(idx, right_idx))
                .filter(|key| !key.is_null());
            let cands = joined_candidates.entry(table.as_str()).or_default();
            if driver.has_index(&left.column) {
                for key in delta_keys {
                    cands.extend_from_slice(driver.index_lookup(&left.column, &key).unwrap_or(&[]));
                }
            } else {
                let delta_keys: HashSet<Value> = delta_keys.collect();
                cands.extend(
                    (0..driver.len())
                        .filter(|&rid| {
                            driver
                                .value_at(rid, left_idx)
                                .is_some_and(|v| delta_keys.contains(&v))
                        })
                        .map(RowId),
                );
            }
        }
        let new_driver: Vec<RowId> = (driver_old..driver_now).map(RowId).collect();

        // Re-evaluate each predicate over only its candidate rows,
        // growing the matching containers copy-on-write, and note which
        // appended driver rows joined some set.
        let mut joined_new = vec![false; driver_now - driver_old];
        let mut sets: HashMap<String, (Predicate, SharedTupleSet)> =
            HashMap::with_capacity(self.sets.len());
        let mut changed: Vec<String> = Vec::new();
        let mut cands_by_refs: HashMap<Vec<&str>, Vec<RowId>> = HashMap::new();
        let mut entries: Vec<(&String, &(Predicate, SharedTupleSet))> = self.sets.iter().collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        for (key, (pred, old_set)) in entries {
            // A predicate's candidates depend only on which grown joined
            // tables its query joins, so each such set is merged once.
            let q = self.base.select_for(pred);
            let grown_refs: Vec<&str> = q.tables()[1..]
                .iter()
                .filter_map(|t| joined_candidates.get_key_value(t.as_str()))
                .map(|(t, _)| *t)
                .collect();
            let cands = cands_by_refs.entry(grown_refs).or_insert_with_key(|refs| {
                let mut cands = new_driver.clone();
                for t in refs {
                    cands.extend_from_slice(&joined_candidates[t]);
                }
                cands.sort_unstable();
                cands.dedup();
                cands
            });
            if cands.is_empty() {
                sets.insert(key.clone(), (pred.clone(), Arc::clone(old_set)));
                continue;
            }
            let rids = q.distinct_row_set_among(db, cands)?;
            let fresh: Vec<u32> = rids
                .iter()
                .map(|r| r.0 as u32)
                .filter(|&id| !old_set.contains(id))
                .collect();
            for r in rids.iter().filter(|r| r.0 >= driver_old) {
                joined_new[r.0 - driver_old] = true;
            }
            if fresh.is_empty() {
                sets.insert(key.clone(), (pred.clone(), Arc::clone(old_set)));
            } else {
                let mut grown = (**old_set).clone();
                grown.insert_all(fresh);
                changed.push(key.clone());
                sets.insert(key.clone(), (pred.clone(), Arc::new(grown)));
            }
        }
        let key_digest = key_digest(self.key_digest, driver, key_idx, driver_old..driver_now);
        Ok((
            ProfileCache {
                base: self.base.clone(),
                sets,
                fingerprint: corpus_fingerprint(db, &self.base),
                key_digest,
                checked_rows: driver.len(),
                pairwise: PairwiseMemo::default(),
            },
            DeltaReport {
                appended,
                changed,
                new_tuples: joined_new.iter().filter(|&&joined| joined).count(),
            },
        ))
    }
}

/// What one [`ProfileCache::ingest_delta`] absorbed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// `(table, appended row count)` for every base-query table that
    /// grew since warm time. Empty means the ingest was a no-op.
    pub appended: Vec<(String, usize)>,
    /// Canonical keys of the predicates whose tuple sets gained members,
    /// sorted.
    pub changed: Vec<String>,
    /// Appended driver rows (tuples above the previous id space) that
    /// joined some tuple set.
    pub new_tuples: usize,
}

impl DeltaReport {
    /// Whether nothing changed (no table grew).
    pub fn is_noop(&self) -> bool {
        self.appended.is_empty()
    }
}

/// An epoch: one published [`ProfileCache`] snapshot. Every `Arc<Epoch>`
/// handle from [`EpochCache::current`] keeps it alive; once the epoch is
/// retired, the last one to drop frees its snapshot. Epoch numbers start
/// at 1 and increase by one per publish.
#[derive(Debug)]
pub struct Epoch {
    number: u64,
    cache: Arc<ProfileCache>,
}

impl Epoch {
    /// The epoch number (1-based, monotonically increasing).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The snapshot this epoch serves.
    pub fn cache(&self) -> &Arc<ProfileCache> {
        &self.cache
    }
}

/// The epoch-versioned cache layer: an atomically-swappable *current*
/// snapshot plus a `Weak` to every retired epoch still held elsewhere —
/// the live-corpus serving shape with no stop-the-world. See the module
/// docs for the lifecycle and the failure-atomicity contract.
#[derive(Debug)]
pub struct EpochCache {
    state: Mutex<EpochState>,
}

#[derive(Debug)]
struct EpochState {
    current: Arc<Epoch>,
    /// Retired epochs, possibly already freed. Epochs `1..current` are
    /// exactly the retired ones, so the freed ones need no record:
    /// publishing prunes them.
    retired: Vec<Weak<Epoch>>,
}

impl EpochState {
    fn retired_alive(&self) -> usize {
        self.retired.iter().filter(|e| e.strong_count() > 0).count()
    }
}

impl EpochCache {
    /// Starts the epoch sequence at epoch 1 with an initial snapshot.
    pub fn new(cache: ProfileCache) -> Self {
        EpochCache {
            state: Mutex::new(EpochState {
                current: Arc::new(Epoch {
                    number: 1,
                    cache: Arc::new(cache),
                }),
                retired: Vec::new(),
            }),
        }
    }

    /// Locks the state, recovering from a poisoned mutex (the state is
    /// swap-only, never left half-written).
    fn lock(&self) -> MutexGuard<'_, EpochState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current epoch. The handle keeps the epoch and its snapshot
    /// alive until dropped, even after a publish retires it.
    pub fn current(&self) -> Arc<Epoch> {
        Arc::clone(&self.lock().current)
    }

    /// The current epoch number.
    pub fn current_epoch(&self) -> u64 {
        self.lock().current.number
    }

    /// Publishes a fully-built snapshot as the new current epoch,
    /// retiring the old one; returns the new epoch number. Holders of the
    /// retired epoch keep serving from it until they take
    /// [`EpochCache::current`] again.
    pub fn publish(&self, cache: ProfileCache) -> u64 {
        let mut st = self.lock();
        let number = st.current.number + 1;
        let next = Arc::new(Epoch {
            number,
            cache: Arc::new(cache),
        });
        let old = std::mem::replace(&mut st.current, next);
        st.retired.retain(|e| e.strong_count() > 0);
        st.retired.push(Arc::downgrade(&old));
        number
    }

    /// Ingests an append-only delta from `db` into the current epoch's
    /// snapshot ([`ProfileCache::ingest_delta`]) with a bounded retry
    /// budget, publishing the result as a new epoch on success. The
    /// build runs entirely off to the side: each attempt starts from the
    /// held snapshot, a failed attempt (even the last) leaves the current
    /// epoch untouched and serving, and a no-op delta publishes nothing.
    ///
    /// # Errors
    /// [`HypreError::WarmUpFailed`] wrapping the final attempt's error
    /// once the budget (first try + `retries`) is exhausted.
    pub fn ingest(&self, db: &Database, retries: usize) -> Result<DeltaReport> {
        let snapshot = self.current();
        let mut attempts = 0usize;
        let (cache, report) = loop {
            attempts += 1;
            match snapshot.cache.ingest_delta(db) {
                Ok(out) => break out,
                Err(e) if attempts > retries => {
                    return Err(HypreError::WarmUpFailed {
                        attempts,
                        last: Box::new(e),
                    });
                }
                Err(_) => {}
            }
        };
        if !report.is_noop() {
            self.publish(cache);
        }
        Ok(report)
    }

    /// Retired epochs still held by an [`EpochCache::current`] handle.
    pub fn retired_count(&self) -> usize {
        self.lock().retired_alive()
    }

    /// Retired epochs freed so far (their last holder dropped).
    pub fn evicted_count(&self) -> u64 {
        let st = self.lock();
        st.current.number - 1 - st.retired_alive() as u64
    }
}

/// The `(i, j)` pairs of an `n`-preference profile, `i < j`, in the
/// `(i, j)` lexicographic order the pairwise table stores them in.
fn triangle(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)))
}

/// Where the pair `(i, j)`, `i < j < n`, sits in [`triangle`]'s order:
/// row `i` starts after the `i` previous rows of lengths `n−1, …, n−i`.
fn triangle_index(n: usize, i: usize, j: usize) -> usize {
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Builds the per-first-member retrieval index over a pairwise table:
/// applicable entries grouped by `i`, each group in descending combined
/// intensity (ties by ascending `j`) — the order PEPS consumes.
fn index_by_first(entries: &[PairEntry], n: usize) -> Vec<Vec<usize>> {
    let mut by_first: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, e) in entries.iter().enumerate() {
        if e.applicable() {
            by_first[e.i].push(idx);
        }
    }
    for list in &mut by_first {
        list.sort_by(|&x, &y| {
            entries[y]
                .intensity
                .total_cmp(&entries[x].intensity)
                .then(entries[x].j.cmp(&entries[y].j))
        });
    }
    by_first
}

/// Intersects shared tuple sets smallest-first, bailing on empty.
fn intersect_all(mut sets: Vec<SharedTupleSet>) -> TupleSet {
    sets.sort_by_key(|s| s.count());
    let Some(first) = sets.first() else {
        return TupleSet::new();
    };
    let mut acc: TupleSet = (**first).clone();
    for s in &sets[1..] {
        acc.and_assign(s);
        if acc.is_empty() {
            break;
        }
    }
    acc
}

/// One entry of the pre-computed pairwise combination list (§5.5): an
/// AND-combined preference pair with its combined intensity and result
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct PairEntry {
    /// Profile index of the first preference (`i < j`).
    pub i: usize,
    /// Profile index of the second preference.
    pub j: usize,
    /// `f∧(intensity_i, intensity_j)`.
    pub intensity: f64,
    /// `COUNT(DISTINCT key)` of the AND combination.
    pub count: u64,
}

impl PairEntry {
    /// Scores the pair `(i, j)` of a profile's tuple sets and intensities.
    fn score(i: usize, j: usize, sets: &[SharedTupleSet], intensities: &[f64]) -> Self {
        PairEntry {
            i,
            j,
            intensity: f_and(intensities[i], intensities[j]),
            count: sets[i].and_count(&sets[j]) as u64,
        }
    }

    /// Whether the pair is applicable (returns tuples).
    pub fn applicable(&self) -> bool {
        self.count > 0
    }
}

/// The pre-computed list of all AND-combinations of two preferences,
/// "updated when the preference graph is updated" (§5.5). Both PEPS
/// variants consult it to seed and prune their expansions.
///
/// Entries are stored in `(i, j)` lexicographic order over all `i < j`,
/// which makes [`PairwiseCache::entry`] a closed-form triangular index
/// instead of a linear scan.
#[derive(Debug, Clone, Default)]
pub struct PairwiseCache {
    /// Profile size the cache was built for.
    n: usize,
    entries: Vec<PairEntry>,
    /// entry indexes grouped by first member (indexed by member), each
    /// sorted by descending combined intensity (the retrieval order PEPS
    /// wants).
    by_first: Vec<Vec<usize>>,
}

impl PairwiseCache {
    /// Builds the cache for a profile: `n` tuple-set fetches through the
    /// executor plus `n(n−1)/2` container-adaptive intersection-count
    /// passes — no pairwise intersection is ever materialised.
    pub fn build(atoms: &[PrefAtom], exec: &Executor<'_>) -> Result<Self> {
        let sets = atoms
            .iter()
            .map(|a| exec.tuple_set(&a.predicate))
            .collect::<Result<Vec<_>>>()?;
        let intensities: Vec<f64> = atoms.iter().map(|a| a.intensity).collect();
        Ok(Self::from_sets(&sets, &intensities))
    }

    /// [`build`](Self::build) over sets the caller has already resolved,
    /// one per atom, with the atoms' intensities.
    pub(crate) fn from_sets(sets: &[SharedTupleSet], intensities: &[f64]) -> Self {
        Self::from_entries(
            triangle(sets.len())
                .map(|(i, j)| PairEntry::score(i, j, sets, intensities))
                .collect(),
            sets.len(),
        )
    }

    /// The table of a profile that contains this table's profile: `sets`
    /// and `intensities` describe the whole profile, and `kept[a]` is
    /// the position in it of this table's atom `a`. Pairs of two kept
    /// atoms are copied with their indexes remapped; only pairs that
    /// involve another atom are scored. The result equals
    /// [`build`](Self::build) over the whole profile whenever this
    /// table was built over `kept`'s sets and intensities.
    ///
    /// # Panics
    /// When `kept` does not hold one strictly ascending position below
    /// `sets.len()` per atom of this table.
    pub fn extend(&self, kept: &[usize], sets: &[SharedTupleSet], intensities: &[f64]) -> Self {
        let n = sets.len();
        assert_eq!(kept.len(), self.n, "one position per atom of the table");
        assert!(
            kept.windows(2).all(|w| w[0] < w[1]) && kept.last().is_none_or(|&p| p < n),
            "kept positions ascend inside the profile"
        );
        let mut slot = vec![None; n];
        for (a, &p) in kept.iter().enumerate() {
            slot[p] = Some(a);
        }
        let entries = triangle(n)
            .map(|(i, j)| match (slot[i], slot[j]) {
                (Some(a), Some(b)) => PairEntry {
                    i,
                    j,
                    ..self.entries[triangle_index(self.n, a, b)].clone()
                },
                _ => PairEntry::score(i, j, sets, intensities),
            })
            .collect();
        Self::from_entries(entries, n)
    }

    fn from_entries(entries: Vec<PairEntry>, n: usize) -> Self {
        let by_first = index_by_first(&entries, n);
        PairwiseCache {
            n,
            entries,
            by_first,
        }
    }

    /// All entries (applicable or not), in `(i, j)` order.
    pub fn entries(&self) -> &[PairEntry] {
        &self.entries
    }

    /// Applicable pairs whose first member is `i`, descending by combined
    /// intensity — the `CombsOfTwo(p)` lookup of Algorithm 6.
    pub fn pairs_from(&self, i: usize) -> impl Iterator<Item = &PairEntry> + '_ {
        self.by_first
            .get(i)
            .into_iter()
            .flatten()
            .map(move |&idx| &self.entries[idx])
    }

    /// The entry for an unordered pair, if it exists — a triangular-index
    /// computation, O(1).
    pub fn entry(&self, a: usize, b: usize) -> Option<&PairEntry> {
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        if a == b || j >= self.n {
            return None;
        }
        let idx = triangle_index(self.n, i, j);
        debug_assert!({
            let e = &self.entries[idx];
            e.i == i && e.j == j
        });
        self.entries.get(idx)
    }

    /// Whether the unordered pair is applicable.
    pub fn applicable(&self, a: usize, b: usize) -> bool {
        self.entry(a, b).is_some_and(PairEntry::applicable)
    }

    /// Number of applicable pairs.
    pub fn applicable_count(&self) -> usize {
        self.entries.iter().filter(|e| e.applicable()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{parse_predicate, DataType, Schema};

    fn db() -> Database {
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

    fn atom(i: usize, pred: &str, intensity: f64) -> PrefAtom {
        PrefAtom::new(i, parse_predicate(pred).unwrap(), intensity)
    }

    fn p(s: &str) -> Predicate {
        parse_predicate(s).unwrap()
    }

    #[test]
    fn tuple_sets_are_cached() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        let pred = p("dblp.venue='VLDB'");
        assert_eq!(exec.count(&pred).unwrap(), 2);
        assert_eq!(exec.count(&pred).unwrap(), 2);
        assert_eq!(exec.queries_run(), 1);
        assert!(exec.cache_hits() >= 1);
    }

    #[test]
    fn join_only_when_referenced() {
        let db = db();
        let base = BaseQuery::dblp();
        let venue_only = p("dblp.venue='VLDB'");
        assert_eq!(base.select_for(&venue_only).tables().len(), 1);
        let with_author = p("dblp_author.aid=10");
        assert_eq!(base.select_for(&with_author).tables().len(), 2);
        let exec = Executor::new(&db, base);
        assert_eq!(exec.count(&venue_only).unwrap(), 2);
        assert_eq!(exec.count(&with_author).unwrap(), 2);
    }

    #[test]
    fn applicability_definition15() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        assert!(exec.is_applicable(&p("dblp.venue='PODS'")).unwrap());
        assert!(!exec.is_applicable(&p("dblp.venue='ICDE'")).unwrap());
    }

    #[test]
    fn coauthored_paper_satisfies_two_author_predicates() {
        // The semantics note in the module docs: paper 2 has authors 10
        // and 11, so the AND combination of the two author preferences
        // must return it.
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        let a = p("dblp_author.aid=10");
        let b = p("dblp_author.aid=11");
        let set = exec.and_set(&[&a, &b]).unwrap();
        assert_eq!(set.count(), 1);
        assert_eq!(exec.values_of(&set), vec![Value::Int(2)]);
    }

    #[test]
    fn contradictory_venues_intersect_empty() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        let a = p("dblp.venue='VLDB'");
        let b = p("dblp.venue='SIGMOD'");
        assert_eq!(exec.count_and(&[&a, &b]).unwrap(), 0);
        assert!(!exec.is_applicable_and(&[&a, &b]).unwrap());
    }

    #[test]
    fn and_set_matches_single_unit_for_singletons() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        let a = p("dblp.year>=2008");
        assert_eq!(exec.count_and(&[&a]).unwrap(), exec.count(&a).unwrap());
        assert_eq!(exec.count_and(&[]).unwrap(), 0, "empty AND is empty");
        assert!(!exec.is_applicable_and(&[]).unwrap());
    }

    #[test]
    fn mixed_set_is_or_within_and_across() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        let venue_a = p("dblp.venue='VLDB'");
        let venue_b = p("dblp.venue='PODS'");
        let recent = p("dblp.year>=2010");
        // (VLDB ∪ PODS) ∩ year≥2010 = {2, 4}
        let set = exec
            .mixed_set(&[vec![&venue_a, &venue_b], vec![&recent]])
            .unwrap();
        assert_eq!(set.count(), 2);
        assert_eq!(exec.values_of(&set), vec![Value::Int(2), Value::Int(4)]);
        assert_eq!(
            exec.count_mixed(&[vec![&venue_a, &venue_b], vec![&recent]])
                .unwrap(),
            2
        );
    }

    #[test]
    fn tuples_are_sorted_and_deterministic() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        let vals = exec.tuples(&p("dblp.year>=2008")).unwrap();
        assert_eq!(vals, vec![Value::Int(2), Value::Int(3), Value::Int(4)]);
        let a = p("dblp.year>=2008");
        let b = p("dblp.venue='VLDB'");
        let vals = exec.tuples_and(&[&a, &b]).unwrap();
        assert_eq!(vals, vec![Value::Int(2)]);
    }

    #[test]
    fn tuple_ids_are_driver_rows() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        // Rows 1..=3 hold papers 2, 3 and 4.
        let set = exec.tuple_set(&p("dblp.year>=2008")).unwrap();
        assert_eq!(set.iter().collect::<Vec<_>>(), [1, 2, 3]);
        for id in set.iter() {
            assert_eq!(exec.tuple_value(id), Value::Int(i64::from(id) + 1));
        }
        assert_eq!(exec.tuple_universe(), 4);
        assert_eq!(exec.tuple_order().cmp(1, 3), std::cmp::Ordering::Less);
        assert_eq!(exec.tuple_order().cmp(2, 2), std::cmp::Ordering::Equal);
        // A joined filter names the same rows.
        let coauth = exec.tuple_set(&p("dblp_author.aid=11")).unwrap();
        assert_eq!(coauth.iter().collect::<Vec<_>>(), [1, 2]);
    }

    /// The test corpus with its `dblp` rows' keys replaced by `keys`.
    fn db_with_keys(keys: &[Value]) -> Database {
        let mut db = Database::new();
        let papers = db
            .create_table(
                "dblp",
                Schema::of(&[("pid", DataType::Int), ("venue", DataType::Str)]),
            )
            .unwrap();
        for key in keys {
            papers.insert(vec![key.clone(), "VLDB".into()]).unwrap();
        }
        db.create_table(
            "dblp_author",
            Schema::of(&[("pid", DataType::Int), ("aid", DataType::Int)]),
        )
        .unwrap();
        db
    }

    #[test]
    fn a_null_or_repeated_driver_key_is_an_unsupported_base_query() {
        let vldb = p("dblp.venue='VLDB'");
        for keys in [
            vec![Value::Int(1), Value::Int(2), Value::Int(1)],
            vec![Value::Int(1), Value::Null],
        ] {
            for indexed in [false, true] {
                let mut db = db_with_keys(&keys);
                if indexed {
                    db.table_mut("dblp")
                        .unwrap()
                        .create_index("pid", relstore::IndexKind::Hash)
                        .unwrap();
                }
                let exec = Executor::new(&db, BaseQuery::dblp());
                assert!(matches!(
                    exec.tuple_set(&vldb),
                    Err(HypreError::UnsupportedBaseQuery { .. })
                ));
                // Warm-up checks the keys even when no set holds a row.
                assert!(matches!(
                    ProfileCache::warm(&db, BaseQuery::dblp(), [&p("dblp.venue='PODS'")]),
                    Err(HypreError::UnsupportedBaseQuery { .. })
                ));
            }
        }
        let unique = db_with_keys(&[Value::Int(1), Value::Int(2)]);
        assert!(ProfileCache::warm(&unique, BaseQuery::dblp(), [&vldb]).is_ok());
    }

    #[test]
    fn a_session_checks_keys_only_for_rows_past_its_snapshot() {
        let base = db_with_keys(&[Value::Int(1), Value::Int(2)]);
        let cache = Arc::new(
            ProfileCache::warm(&base, BaseQuery::dblp(), [&p("dblp.venue='VLDB'")]).unwrap(),
        );
        // An appended row repeating key 1: cached sets still serve, and a
        // fresh atom matching only old rows needs no check.
        let mut grown = base.clone();
        grown
            .table_mut("dblp")
            .unwrap()
            .insert(vec![1.into(), "PODS".into()])
            .unwrap();
        let session = Executor::with_cache_pinned(&grown, Arc::clone(&cache)).unwrap();
        assert_eq!(
            session.tuples(&p("dblp.venue='VLDB'")).unwrap(),
            [Value::Int(1), Value::Int(2)]
        );
        assert_eq!(session.tuples(&p("dblp.pid=2")).unwrap(), [Value::Int(2)]);
        // A fresh atom reaching the appended row is a typed error.
        assert!(matches!(
            session.tuple_set(&p("dblp.venue='PODS'")),
            Err(HypreError::UnsupportedBaseQuery { .. })
        ));
    }

    #[test]
    fn pairwise_cache_uses_n_queries() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        let atoms = vec![
            atom(0, "dblp.venue='VLDB'", 0.8),
            atom(1, "dblp_author.aid=11", 0.5),
            atom(2, "dblp.venue='SIGMOD'", 0.3),
        ];
        let cache = PairwiseCache::build(&atoms, &exec).unwrap();
        assert_eq!(exec.queries_run(), 3, "one query per preference");
        assert_eq!(cache.entries().len(), 3);
        // VLDB ∧ aid=11 → paper 2 → applicable
        assert!(cache.applicable(0, 1));
        assert!(cache.applicable(1, 0), "unordered lookup");
        // VLDB ∧ SIGMOD → contradiction
        assert!(!cache.applicable(0, 2));
        // SIGMOD ∧ aid=11 → paper 3
        assert!(cache.applicable(1, 2));
        assert_eq!(cache.applicable_count(), 2);
        let from0: Vec<_> = cache.pairs_from(0).collect();
        assert_eq!(from0.len(), 1);
        assert_eq!(from0[0].j, 1);
        assert!((from0[0].intensity - f_and(0.8, 0.5)).abs() < 1e-12);
    }

    #[test]
    fn pairwise_cache_intensity_ordering() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        let atoms = vec![
            atom(0, "dblp.year>=2006", 0.9),
            atom(1, "dblp.venue='VLDB'", 0.2),
            atom(2, "dblp_author.aid=11", 0.8),
        ];
        let cache = PairwiseCache::build(&atoms, &exec).unwrap();
        let from0: Vec<_> = cache.pairs_from(0).collect();
        assert_eq!(from0.len(), 2);
        assert!(from0[0].intensity >= from0[1].intensity);
        assert_eq!(from0[0].j, 2, "higher-intensity partner first");
    }

    #[test]
    fn shared_infrastructure_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<TupleSet>();
        check::<crate::bitset::BitSet>();
        check::<SharedTupleSet>();
        check::<ProfileCache>();
        check::<PairwiseCache>();
        check::<Epoch>();
        check::<EpochCache>();
        check::<Arc<Epoch>>();
        check::<DeltaReport>();
    }

    #[test]
    fn triangle_walks_pairs_in_storage_order() {
        assert_eq!(
            triangle(4).collect::<Vec<_>>(),
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
        assert_eq!(triangle(1).count(), 0);
        assert_eq!(triangle(0).count(), 0);
    }

    #[test]
    fn profile_cache_sessions_resolve_lock_free_and_extend_locally() {
        let db = db();
        let vldb = p("dblp.venue='VLDB'");
        let recent = p("dblp.year>=2008");
        let cache = Arc::new(ProfileCache::warm(&db, BaseQuery::dblp(), [&vldb, &recent]).unwrap());
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&vldb));
        assert!(!cache.is_empty());
        assert_eq!(cache.tuple_universe(), 4);

        let session = Executor::with_cache(&db, Arc::clone(&cache)).unwrap();
        // Cached predicates: zero SQL, shared hits instead.
        let set = session.tuple_set(&vldb).unwrap();
        assert_eq!(set.count(), 2);
        assert_eq!(session.queries_run(), 0);
        assert_eq!(session.shared_hits(), 1);
        // A predicate the snapshot never saw: one SQL query, local memo,
        // in the same row-id space as the snapshot's sets.
        let pods = p("dblp.venue='PODS'");
        let fresh = Executor::new(&db, BaseQuery::dblp());
        let want: Vec<Value> = fresh.tuples(&pods).unwrap();
        assert_eq!(session.tuples(&pods).unwrap(), want);
        assert_eq!(session.queries_run(), 1);
        session.tuple_set(&pods).unwrap();
        assert_eq!(session.queries_run(), 1, "local memo caught the repeat");
        assert_eq!(session.tuple_universe(), cache.tuple_universe());
        assert_eq!(session.values_of(&set), fresh.tuples(&vldb).unwrap());
        // Re-snapshot folds the session memo into a new flat cache.
        let folded = ProfileCache::snapshot(&session);
        assert_eq!(folded.len(), 3);
        assert_eq!(folded.tuple_universe(), session.tuple_universe());
        let session2 = Executor::with_cache(&db, Arc::new(folded)).unwrap();
        assert_eq!(session2.tuples(&pods).unwrap(), want);
        assert_eq!(session2.queries_run(), 0);
    }

    #[test]
    fn session_over_a_different_corpus_is_a_typed_error_not_a_panic() {
        let base_db = db();
        let cache = Arc::new(
            ProfileCache::warm(&base_db, BaseQuery::dblp(), [&p("dblp.venue='VLDB'")]).unwrap(),
        );
        let mut other = db();
        other
            .table_mut("dblp")
            .unwrap()
            .insert(vec![9.into(), "ICDE".into(), 2013.into()])
            .unwrap();
        let err = Executor::with_cache(&other, Arc::clone(&cache))
            .err()
            .expect("grown corpus must be rejected by the strict opener");
        assert!(matches!(
            err,
            HypreError::StaleSnapshot {
                ref table,
                warmed: Some(4),
                current: Some(5),
            } if table == "dblp"
        ));
        // The pinned opener tolerates append-only growth…
        let pinned = Executor::with_cache_pinned(&other, Arc::clone(&cache)).unwrap();
        assert_eq!(
            pinned.tuple_set(&p("dblp.venue='VLDB'")).unwrap().count(),
            2
        );
        assert_eq!(pinned.queries_run(), 0);
        // …but still rejects a shrunken corpus.
        let mut tiny = Database::new();
        tiny.create_table(
            "dblp",
            Schema::of(&[
                ("pid", DataType::Int),
                ("venue", DataType::Str),
                ("year", DataType::Int),
            ]),
        )
        .unwrap();
        assert!(matches!(
            Executor::with_cache_pinned(&tiny, cache),
            Err(HypreError::StaleSnapshot { .. })
        ));
    }

    #[test]
    fn id_space_exhaustion_is_a_typed_error() {
        assert_eq!(id_space(0), Ok(()));
        assert_eq!(id_space(u32::MAX as usize + 1), Ok(()), "row u32::MAX fits");
        assert_eq!(
            id_space(u32::MAX as usize + 2),
            Err(HypreError::IdSpaceExhausted)
        );
    }

    #[test]
    fn ingest_delta_of_an_unchanged_corpus_is_a_noop() {
        let db = db();
        let cache = ProfileCache::warm(&db, BaseQuery::dblp(), [&p("dblp.venue='VLDB'")]).unwrap();
        let (same, report) = cache.ingest_delta(&db).unwrap();
        assert!(report.is_noop());
        assert!(report.changed.is_empty());
        assert_eq!(report.new_tuples, 0);
        assert_eq!(same.len(), cache.len());
        assert_eq!(same.tuple_universe(), cache.tuple_universe());
    }

    #[test]
    fn ingest_delta_appends_matches_and_shares_untouched_sets() {
        // Without an index on the driver's join column, delta join keys
        // reach old papers by one pass over that column; with one, by
        // index seeks. Both must find paper 1's new author link.
        for indexed in [false, true] {
            let mut base_db = db();
            if indexed {
                base_db
                    .table_mut("dblp")
                    .unwrap()
                    .create_index("pid", relstore::IndexKind::Hash)
                    .unwrap();
            }
            ingest_grows_matches_and_shares_untouched_sets(&base_db);
        }
    }

    fn ingest_grows_matches_and_shares_untouched_sets(base_db: &Database) {
        let vldb = p("dblp.venue='VLDB'");
        let pods = p("dblp.venue='PODS'");
        let coauth = p("dblp_author.aid=11");
        let cache =
            ProfileCache::warm(base_db, BaseQuery::dblp(), [&vldb, &pods, &coauth]).unwrap();

        // Append one VLDB paper and link existing paper 1 to author 11.
        let mut grown = base_db.clone();
        grown
            .table_mut("dblp")
            .unwrap()
            .insert(vec![5.into(), "VLDB".into(), 2015.into()])
            .unwrap();
        for (pid, aid) in [(5, 13), (1, 11)] {
            grown
                .table_mut("dblp_author")
                .unwrap()
                .insert(vec![pid.into(), aid.into()])
                .unwrap();
        }
        let (next, report) = cache.ingest_delta(&grown).unwrap();
        assert!(!report.is_noop());
        assert_eq!(
            report.changed,
            vec![vldb.canonical(), coauth.canonical()],
            "VLDB gains paper 5, aid=11 gains paper 1; PODS untouched"
        );
        // Untouched set is shared structurally, not copied.
        assert!(Arc::ptr_eq(
            &cache.get(&pods.canonical()).unwrap(),
            &next.get(&pods.canonical()).unwrap()
        ));
        // The grown sets agree with a cold executor over the grown db.
        let fresh = Executor::new(&grown, BaseQuery::dblp());
        let session = Executor::with_cache(&grown, Arc::new(next)).unwrap();
        for pred in [&vldb, &pods, &coauth] {
            assert_eq!(
                session.tuples(pred).unwrap(),
                fresh.tuples(pred).unwrap(),
                "{}",
                pred.canonical()
            );
        }
        assert_eq!(session.queries_run(), 0, "ingest left nothing to re-run");
    }

    #[test]
    fn ingest_delta_rejects_non_append_changes() {
        let base_db = db();
        let cache =
            ProfileCache::warm(&base_db, BaseQuery::dblp(), [&p("dblp.venue='VLDB'")]).unwrap();
        let mut shrunk = Database::new();
        shrunk
            .create_table(
                "dblp",
                Schema::of(&[
                    ("pid", DataType::Int),
                    ("venue", DataType::Str),
                    ("year", DataType::Int),
                ]),
            )
            .unwrap();
        assert!(matches!(
            cache.ingest_delta(&shrunk),
            Err(HypreError::StaleSnapshot { .. })
        ));
    }

    #[test]
    fn epoch_cache_pins_publishes_and_evicts() {
        let db = db();
        let cache = ProfileCache::warm(&db, BaseQuery::dblp(), [&p("dblp.venue='VLDB'")]).unwrap();
        let epochs = EpochCache::new(cache.clone());
        assert_eq!(epochs.current_epoch(), 1);
        assert_eq!(epochs.retired_count(), 0);

        let mut held = epochs.current();
        assert_eq!(held.number(), 1);

        // Publish while epoch 1 is held: it is retired but kept alive by
        // the handle.
        assert_eq!(epochs.publish(cache.clone()), 2);
        assert_eq!(epochs.current_epoch(), 2);
        assert_eq!(epochs.retired_count(), 1);
        assert_eq!(held.number(), 1, "the handle stays on its epoch");

        // Taking `current()` again moves onto epoch 2, and the retired
        // epoch, held by nothing else, is evicted.
        held = epochs.current();
        assert_eq!(held.number(), 2);
        assert_eq!(epochs.retired_count(), 0);
        assert_eq!(epochs.evicted_count(), 1);

        // A handle on epoch 2 keeps it alive past the next publish; it is
        // evicted when the handle drops.
        assert_eq!(epochs.publish(cache), 3);
        assert_eq!(epochs.retired_count(), 1);
        assert_eq!(epochs.evicted_count(), 1);
        drop(held);
        assert_eq!(epochs.retired_count(), 0);
        assert_eq!(epochs.evicted_count(), 2);
    }

    #[test]
    fn retired_epochs_live_exactly_as_long_as_their_holders() {
        let db = db();
        let cache = ProfileCache::warm(&db, BaseQuery::dblp(), [&p("dblp.venue='VLDB'")]).unwrap();
        let epochs = EpochCache::new(cache.clone());

        let handle = epochs.current();
        epochs.publish(cache.clone());
        assert_eq!(handle.number(), 1);
        assert_eq!(epochs.retired_count(), 1, "held by the handle");
        assert_eq!(epochs.evicted_count(), 0);
        drop(handle);
        assert_eq!(epochs.retired_count(), 0);
        assert_eq!(epochs.evicted_count(), 1);

        // Moving a handle on frees the old epoch's snapshot at once, with
        // no further call into the epoch cache.
        let mut held = epochs.current();
        let old_cache = Arc::downgrade(held.cache());
        epochs.publish(cache);
        assert!(old_cache.upgrade().is_some(), "the handle holds epoch 2");
        held = epochs.current();
        assert_eq!(held.number(), 3);
        assert!(old_cache.upgrade().is_none(), "epoch 2's snapshot is freed");
    }

    #[test]
    fn base_queries_off_the_driver_are_typed_errors() {
        let db = db();
        let vldb = p("dblp.venue='VLDB'");
        let key_on_join = BaseQuery::single("dblp", ColRef::parse("dblp_author.pid")).join(
            "dblp_author",
            ColRef::parse("dblp.pid"),
            ColRef::parse("dblp_author.pid"),
        );
        let join_off_driver = BaseQuery::single("dblp", ColRef::parse("dblp.pid")).join(
            "dblp_author",
            ColRef::parse("dblp_author.pid"),
            ColRef::parse("dblp.pid"),
        );
        for base in [key_on_join, join_off_driver] {
            let exec = Executor::new(&db, base.clone());
            assert!(matches!(
                exec.tuple_set(&vldb),
                Err(HypreError::UnsupportedBaseQuery { .. })
            ));
            assert!(matches!(
                ProfileCache::warm(&db, base, [&vldb]),
                Err(HypreError::UnsupportedBaseQuery { .. })
            ));
        }
    }

    #[test]
    fn sessions_rank_identically_to_a_fresh_executor() {
        let db = db();
        let atoms = vec![
            atom(0, "dblp.year>=2006", 0.9),
            atom(1, "dblp.venue='VLDB'", 0.7),
            atom(2, "dblp_author.aid=11", 0.5),
            atom(3, "dblp.venue='PODS'", 0.4),
        ];
        let fresh = Executor::new(&db, BaseQuery::dblp());
        let fresh_pairs = PairwiseCache::build(&atoms, &fresh).unwrap();
        let want = crate::algo::peps::Peps::new(
            &atoms,
            &fresh,
            &fresh_pairs,
            crate::algo::peps::PepsVariant::Complete,
        )
        .top_k(4)
        .unwrap();

        let cache = Arc::new(ProfileCache::snapshot(&fresh));
        let session = Executor::with_cache(&db, Arc::clone(&cache)).unwrap();
        let pairs = PairwiseCache::build(&atoms, &session).unwrap();
        assert_eq!(pairs.entries(), fresh_pairs.entries());
        assert_eq!(session.queries_run(), 0, "all sets came from the cache");
        let got = crate::algo::peps::Peps::new(
            &atoms,
            &session,
            &pairs,
            crate::algo::peps::PepsVariant::Complete,
        )
        .top_k(4)
        .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn triangular_entry_lookup_covers_every_pair() {
        let db = db();
        let exec = Executor::new(&db, BaseQuery::dblp());
        let atoms = vec![
            atom(0, "dblp.year>=2006", 0.9),
            atom(1, "dblp.venue='VLDB'", 0.7),
            atom(2, "dblp_author.aid=11", 0.5),
            atom(3, "dblp.venue='PODS'", 0.4),
            atom(4, "dblp.year>=2010", 0.2),
        ];
        let cache = PairwiseCache::build(&atoms, &exec).unwrap();
        assert_eq!(cache.entries().len(), 10);
        for i in 0..atoms.len() {
            for j in 0..atoms.len() {
                let got = cache.entry(i, j);
                if i == j {
                    assert!(got.is_none(), "diagonal ({i},{j})");
                } else {
                    let e = got.unwrap_or_else(|| panic!("missing entry ({i},{j})"));
                    assert_eq!((e.i, e.j), (i.min(j), i.max(j)));
                }
            }
        }
        assert!(cache.entry(0, 7).is_none(), "out of range");
        assert!(PairwiseCache::default().entry(0, 1).is_none());
    }
}
