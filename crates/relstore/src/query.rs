//! The query executor: single-table scans and hash-joined multi-table
//! selects with predicate filters and `COUNT(DISTINCT …)` aggregation.
//!
//! The dissertation's workload issues exactly one query shape (§5.3):
//!
//! ```sql
//! SELECT count(distinct dblp.pid)        -- or SELECT *
//! FROM dblp JOIN dblp_author ON dblp.pid = dblp_author.pid
//! WHERE <preference predicate combination>
//! ```
//!
//! [`SelectQuery`] executes this shape (and its generalisation to any number
//! of inner equi-joined tables) with hash joins, and accelerates the driving
//! table's scan with an index when the filter contains a usable top-level
//! equality conjunct.
//!
//! ## Columnar plans
//!
//! [`SelectQuery::distinct_row_set`] — the call whose driver rows are
//! `hypre-core`'s tuple sets — and its seeded twin
//! [`SelectQuery::distinct_row_set_among`] — the delta-ingest call — both
//! compile the query into one crate-internal `FastPlan` over the tables'
//! columnar segments and indexes. Three shapes compile:
//!
//! * **Scan** — a single-table select: the compiled filter runs over the
//!   driver rows an index seed names (a top-level `=`/`IN`/range conjunct
//!   on an indexed driver column), or over every driver row the zone maps
//!   leave (below).
//! * **Semi-join** — one `INT` equi-join, filter on the driver only: a
//!   passing driver row also needs a join partner, found in a set of the
//!   joined keys built once per run.
//! * **Joined filter** — one `INT` equi-join, filter on the joined table
//!   only: the joined rows are seeded from the joined table's indexes
//!   exactly as a scan's are (so `dblp_author.aid = N` touches the few
//!   rows of author `N`, not the link table), the passing rows' keys are
//!   collected, and the keys are mapped back to driver rows through the
//!   driver key's index when the key set is small, else by one pass over
//!   the driver key segment.
//!
//! Atoms read the typed segments directly. An `INT` column against `Int`
//! literals compiles to a plain `i64` test — `=`, `<>`, `<`, `<=`, `>`,
//! `>=` and `BETWEEN` become one inclusive range check, `IN` a binary
//! search over the sorted literals. Cross-type literals (`pid = 7.0`,
//! `pid BETWEEN 10.5 AND 20`) and `FLOAT` columns delegate to
//! [`Value::compare`] on stack-built values, so mixed-type semantics are
//! inherited rather than re-implemented. String atoms are evaluated
//! **once per dictionary code** into a truth table, so a scan over a
//! million rows compares a million `u32`s, not a million strings.
//!
//! ## Zone maps
//!
//! Every `INT` segment keeps the min and max non-null value of each block
//! of [`ZONE_ROWS`] rows, extended on append. A walk with no access path
//! and no seed — a scan, a semi-join's driver walk, a joined filter's
//! walk of the joined table — skips every block whose zone cannot satisfy
//! one of the filter's top-level `IntRange` conjuncts (the atom itself,
//! or an operand of a top-level `AND`): for `inside` a zone disjoint from
//! `lo..=hi`, for `<>` a zone holding only the excluded value, and an
//! all-`NULL` block always. It is the one walk, not a second scan path:
//! with no such conjunct every block is walked, and every walked row is
//! still tested by the full filter. On an ascending column such as
//! `dblp.pid`, a `BETWEEN` touches one or two blocks. Seeded walks and
//! index seeds do not consult the zones.
//!
//! A *seeded* plan restricts the driver rows to the caller's candidate
//! rows (out-of-range and duplicate ids are dropped), which is how delta
//! ingest re-checks a predicate over only the rows an append could have
//! changed. It walks whichever list is shorter: the seed itself, or its
//! own access path (index seed, or driver rows sought by key) with a
//! binary search into the sorted seed — so a seeded `aid = N` check costs
//! the few rows of author `N`, not the length of the seed.
//!
//! Shapes the compiler does not cover — several joins, a filter spanning
//! both sides of a join, non-`INT` join keys — run the row-materialising
//! join pipeline below. That pipeline is also the reference oracle:
//! [`SelectQuery::distinct_row_set_rowwise`] always takes it, and the
//! differential tests and the row-versus-columnar bench compare the plans
//! against it.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use crate::database::Database;
use crate::error::{RelError, Result};
use crate::index::Index;
use crate::predicate::{CmpOp, ColRef, ColumnResolver, Predicate};
use crate::table::{ColumnData, NullMask, RowId, Table, Zone, ZONE_ROWS};
use crate::value::Value;

/// An inner equi-join condition `left = right` between two qualified columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCond {
    /// One side of the equality.
    pub left: ColRef,
    /// The other side.
    pub right: ColRef,
}

impl JoinCond {
    /// Creates a join condition; both sides must be table-qualified.
    pub fn on(left: ColRef, right: ColRef) -> Self {
        JoinCond { left, right }
    }
}

/// A select query over one or more inner-joined tables.
#[derive(Debug, Clone)]
pub struct SelectQuery {
    from: Vec<String>,
    joins: Vec<JoinCond>,
    filter: Predicate,
}

impl SelectQuery {
    /// Starts a query over a single table.
    pub fn from(table: impl Into<String>) -> Self {
        SelectQuery {
            from: vec![table.into()],
            joins: Vec::new(),
            filter: Predicate::True,
        }
    }

    /// Adds an inner equi-join against another table.
    pub fn join(mut self, table: impl Into<String>, left: ColRef, right: ColRef) -> Self {
        self.from.push(table.into());
        self.joins.push(JoinCond::on(left, right));
        self
    }

    /// Sets the `WHERE` predicate (replacing any previous filter).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.filter = predicate;
        self
    }

    /// The tables in the FROM list, in join order.
    pub fn tables(&self) -> &[String] {
        &self.from
    }

    /// The current filter predicate.
    pub fn predicate(&self) -> &Predicate {
        &self.filter
    }

    /// `SELECT COUNT(*)` — the number of joined rows passing the filter.
    pub fn count(&self, db: &Database) -> Result<u64> {
        let bound = self.bind(db)?;
        let mut n = 0u64;
        self.execute(db, &bound, None, |_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    /// `SELECT COUNT(DISTINCT col)` — the workhorse of the dissertation's
    /// applicable-combination checks. Each distinct value is cloned exactly
    /// once into the probe set, no matter how many joined rows stream past.
    pub fn count_distinct(&self, db: &Database, col: &ColRef) -> Result<u64> {
        let bound = self.bind(db)?;
        let target = bound.locate(col)?;
        let mut seen: HashSet<Value> = HashSet::new();
        self.execute(db, &bound, None, |_, joined| {
            let v = joined.value_at(target);
            if !v.is_null() && !seen.contains(v) {
                seen.insert(v.clone());
            }
            Ok(true)
        })?;
        Ok(seen.len() as u64)
    }

    /// Collects the distinct values of `col` over the filtered join — used
    /// when the caller needs tuple identities (e.g. coverage sets) rather
    /// than just counts. Clones each distinct value exactly once.
    pub fn distinct_values(&self, db: &Database, col: &ColRef) -> Result<Vec<Value>> {
        let bound = self.bind(db)?;
        let target = bound.locate(col)?;
        let mut seen: HashSet<Value> = HashSet::new();
        let mut out = Vec::new();
        self.execute(db, &bound, None, |_, joined| {
            let v = joined.value_at(target);
            if !v.is_null() && !seen.contains(v) {
                seen.insert(v.clone());
                out.push(v.clone());
            }
            Ok(true)
        })?;
        Ok(out)
    }

    /// The distinct *driving-table* rows with at least one joined row
    /// passing the filter, in scan (ascending `RowId`) order.
    ///
    /// Its rows are `hypre-core`'s tuple sets. The query compiles into a
    /// columnar plan (see the module docs): index seeks on either side of
    /// the join, zone-map block skipping, typed `i64` kernels, and driver
    /// rows recovered from joined keys through the driver key's index —
    /// no row is ever materialised. Shapes the plan compiler does not
    /// cover run the reference join pipeline instead, with the same
    /// result. Either way the call charges one operation against an
    /// armed fault schedule.
    pub fn distinct_row_set(&self, db: &Database) -> Result<Vec<RowId>> {
        self.row_set(db, None)
    }

    /// The reference row-materialising implementation of
    /// [`SelectQuery::distinct_row_set`]: identical semantics, but every
    /// candidate row is materialised to `Vec<Value>`, each joined table
    /// is hash-built whole, and the filter is evaluated through the
    /// generic resolver. It is the oracle the differential tests and the
    /// row-versus-columnar bench compare the columnar plans against; no
    /// production path calls it.
    pub fn distinct_row_set_rowwise(&self, db: &Database) -> Result<Vec<RowId>> {
        let bound = self.bind(db)?;
        self.rowwise_row_set(db, &bound, None)
    }

    /// Like [`SelectQuery::distinct_row_set`], but only the listed
    /// driving-table rows are considered as candidates: the same columnar
    /// plan runs with the list in place of the driver's index seed. This
    /// is the delta-ingest seam — after an append, the executor
    /// re-evaluates a predicate over just the rows a delta could have
    /// affected instead of the whole table. The result equals
    /// `distinct_row_set_rowwise` restricted to the candidates:
    /// out-of-range and duplicate candidates are ignored, and the result
    /// is in ascending `RowId` order.
    pub fn distinct_row_set_among(
        &self,
        db: &Database,
        candidates: &[RowId],
    ) -> Result<Vec<RowId>> {
        self.row_set(db, Some(candidates))
    }

    fn row_set(&self, db: &Database, seed: Option<&[RowId]>) -> Result<Vec<RowId>> {
        let bound = self.bind(db)?;
        // Compilability is decided before the fault check so that both
        // outcomes charge exactly one operation against an armed fault
        // schedule (compile failures fall through to `execute`, which
        // performs the check itself).
        match FastPlan::compile(self, &bound) {
            Some(plan) => {
                db.fault_check()?;
                Ok(plan.run(self, &bound, seed))
            }
            None => self.rowwise_row_set(db, &bound, seed),
        }
    }

    fn rowwise_row_set(
        &self,
        db: &Database,
        bound: &BoundQuery<'_>,
        seed: Option<&[RowId]>,
    ) -> Result<Vec<RowId>> {
        let mut seen = vec![false; bound.tables[0].len()];
        let mut out = Vec::new();
        self.execute(db, bound, seed, |rid, _| {
            if !seen[rid.0] {
                seen[rid.0] = true;
                out.push(rid);
            }
            // The driving row is established; stop expanding its joins.
            Ok(false)
        })?;
        out.sort_unstable();
        Ok(out)
    }

    // ------------------------------------------------------------------
    // binding & execution internals
    // ------------------------------------------------------------------

    fn bind<'db>(&self, db: &'db Database) -> Result<BoundQuery<'db>> {
        if self.from.is_empty() {
            return Err(RelError::EmptyFrom);
        }
        let mut tables = Vec::with_capacity(self.from.len());
        for name in &self.from {
            tables.push(db.table(name)?);
        }
        for j in &self.joins {
            for side in [&j.left, &j.right] {
                let t = side
                    .table
                    .as_deref()
                    .ok_or_else(|| RelError::AmbiguousColumn(side.column.clone()))?;
                if !self.from.iter().any(|f| f == t) {
                    return Err(RelError::JoinTableNotInFrom(t.to_owned()));
                }
            }
        }
        Ok(BoundQuery {
            names: self.from.clone(),
            tables,
        })
    }

    /// Drives the join pipeline, invoking `sink` for every joined row that
    /// passes the filter. The sink receives the driving-table row id and
    /// returns whether to keep expanding the *current* driving row's join
    /// matches (`false` short-circuits to the next driving row — the
    /// existence-only fast path of [`SelectQuery::distinct_row_set`]).
    ///
    /// `seed_override` restricts the driving-table candidates to an
    /// explicit row-id list (the delta-ingest path); `None` uses the
    /// index-or-scan access path. Counts one operation against any armed
    /// fault schedule before touching data.
    fn execute<'db>(
        &self,
        db: &Database,
        bound: &BoundQuery<'db>,
        seed_override: Option<&[RowId]>,
        mut sink: impl FnMut(RowId, &JoinedRow<'_, 'db>) -> Result<bool>,
    ) -> Result<()> {
        db.fault_check()?;
        // Validate the filter's column references once, up front, so that a
        // typo'd predicate is an error rather than silently matching nothing.
        for attr in self.filter.attributes() {
            bound.locate(&attr)?;
        }

        // Seed: candidate rows of the driving table, via index if possible.
        let driver = bound.tables[0];
        let seed: Vec<RowId> = match seed_override {
            Some(ids) => ids.to_vec(),
            None => match self.index_seed(driver, &bound.names[0]) {
                Some(ids) => ids,
                None => (0..driver.len()).map(RowId).collect(),
            },
        };

        // Build hash tables for each joined table keyed on its join column.
        // joins[k] connects from[k+1] with some earlier table.
        let mut built: Vec<JoinBuild<'db>> = Vec::with_capacity(self.joins.len());
        for (k, cond) in self.joins.iter().enumerate() {
            let new_name = &bound.names[k + 1];
            let (new_side, old_side) = if cond.left.table.as_deref() == Some(new_name.as_str()) {
                (&cond.left, &cond.right)
            } else if cond.right.table.as_deref() == Some(new_name.as_str()) {
                (&cond.right, &cond.left)
            } else {
                return Err(RelError::JoinTableNotInFrom(new_name.clone()));
            };
            let new_table = bound.tables[k + 1];
            let key_idx = new_table
                .schema()
                .require(Some(new_name), &new_side.column)?;
            let probe = bound.locate(old_side)?;
            if probe.table_idx > k {
                // The "old" side must already be bound when this join runs.
                return Err(RelError::JoinTableNotInFrom(
                    old_side.table.clone().unwrap_or_default(),
                ));
            }
            let mut hash: HashMap<Value, Vec<RowId>> = HashMap::with_capacity(new_table.len());
            for row in 0..new_table.len() {
                if let Some(key) = new_table.value_at(row, key_idx) {
                    if !key.is_null() {
                        hash.entry(key).or_default().push(RowId(row));
                    }
                }
            }
            built.push(JoinBuild {
                table: new_table,
                hash,
                probe,
            });
        }

        // Depth-first pipeline over the join chain. Out-of-range ids (only
        // possible via a stale `seed_override`) are skipped, not a panic.
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(bound.tables.len());
        for id in seed {
            let Some(row) = driver.row(id) else { continue };
            rows.push(row);
            self.join_level(bound, &built, 0, id, &mut rows, &mut sink)?;
            rows.pop();
        }
        Ok(())
    }

    /// Returns whether to continue expanding the current driving row.
    fn join_level<'db>(
        &self,
        bound: &BoundQuery<'db>,
        built: &[JoinBuild<'db>],
        level: usize,
        driver_row: RowId,
        rows: &mut Vec<Vec<Value>>,
        sink: &mut impl FnMut(RowId, &JoinedRow<'_, 'db>) -> Result<bool>,
    ) -> Result<bool> {
        if level == built.len() {
            let joined = JoinedRow { bound, rows };
            if self.filter.eval(&joined)? {
                let joined = JoinedRow { bound, rows };
                return sink(driver_row, &joined);
            }
            return Ok(true);
        }
        let jb = &built[level];
        let probe_val = rows[jb.probe.table_idx][jb.probe.col_idx].clone();
        if probe_val.is_null() {
            return Ok(true); // inner join drops null keys
        }
        if let Some(matches) = jb.hash.get(&probe_val) {
            for &id in matches {
                let Some(row) = jb.table.row(id) else {
                    // Hash-build ids come straight from the table scan.
                    unreachable!("hash row ids are valid");
                };
                rows.push(row);
                let keep_going =
                    self.join_level(bound, built, level + 1, driver_row, rows, sink)?;
                rows.pop();
                if !keep_going {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Looks for a usable top-level conjunct (`col = v`, `col IN (…)`,
    /// `BETWEEN`, or a single-sided `>`/`>=`/`<`/`<=` range on an indexed
    /// column of the driving table) and returns the candidate row ids it
    /// implies. The conjunct is still re-checked by the filter, so this is
    /// purely an access-path optimisation.
    fn index_seed(&self, table: &Table, table_name: &str) -> Option<Vec<RowId>> {
        use std::ops::Bound;
        for conjunct in self.filter.conjuncts() {
            match conjunct {
                Predicate::Cmp(col, CmpOp::Eq, v)
                    if refers_to(col, table_name, table) && table.has_index(&col.column) =>
                {
                    return Some(point_lookup(table, &col.column, v));
                }
                Predicate::Cmp(col, op, v) if refers_to(col, table_name, table) => {
                    // Single-sided range conjuncts ride a BTree index; the
                    // common `dblp.year>=Y` preference shape stops paying
                    // for a full scan. Bounds are widened to the numeric
                    // type twin (see `low_twin`/`high_twin`) so a float
                    // literal over an int column still seeds a superset.
                    let (lo, hi) = match op {
                        CmpOp::Ge => (Bound::Included(low_twin(v)), Bound::Unbounded),
                        CmpOp::Gt => (Bound::Excluded(high_twin(v)), Bound::Unbounded),
                        CmpOp::Le => (Bound::Unbounded, Bound::Included(high_twin(v))),
                        CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(low_twin(v))),
                        CmpOp::Eq | CmpOp::Ne => continue,
                    };
                    if let Some(ids) =
                        table.index_range_bounds(&col.column, lo.as_ref(), hi.as_ref())
                    {
                        return Some(ids);
                    }
                }
                Predicate::Between(col, lo, hi) if refers_to(col, table_name, table) => {
                    let (lo, hi) = (low_twin(lo), high_twin(hi));
                    if let Some(ids) = table.index_range(&col.column, &lo, &hi) {
                        return Some(ids);
                    }
                }
                Predicate::InList(col, vals)
                    if refers_to(col, table_name, table) && table.has_index(&col.column) =>
                {
                    let mut out = Vec::new();
                    for v in vals {
                        out.extend(point_lookup(table, &col.column, v));
                    }
                    out.sort_unstable();
                    out.dedup();
                    return Some(out);
                }
                _ => {}
            }
        }
        None
    }
}

// ----------------------------------------------------------------------
// columnar plans
// ----------------------------------------------------------------------

/// A compiled columnar plan for [`SelectQuery::distinct_row_set`] and
/// [`SelectQuery::distinct_row_set_among`]. Each variant borrows the
/// typed segments and indexes it reads; compilation fails (to the
/// row-wise pipeline) rather than approximating.
enum FastPlan<'db> {
    /// Single-table select: evaluate the compiled filter per driver row.
    Scan { pred: FastPred<'db> },
    /// One equi-join, filter on the driver only: a driver row qualifies if
    /// the filter passes *and* its key has a joined partner.
    SemiJoin {
        pred: FastPred<'db>,
        driver_key: KeyCol<'db>,
        joined_key: KeyCol<'db>,
    },
    /// One equi-join, filter on the joined table only: collect the keys of
    /// the passing joined rows, then find the driver rows holding them.
    JoinedFilter {
        pred: FastPred<'db>,
        driver_key: KeyCol<'db>,
        joined_key: KeyCol<'db>,
    },
}

/// The cost of one driver-key index seek in walked rows: a joined-filter
/// plan seeks driver rows key by key only when `SEEK_COST` × keys is less
/// than the rows it would otherwise walk (the seed, or every driver row).
/// A seek hashes a `Value` and follows its posting list; a walked row
/// hashes one `i64`.
const SEEK_COST: usize = 2;

/// An `INT` join-key segment: values, null mask and the column's index,
/// if it has one. Only a joined-filter plan's driver-key seek reads the
/// index, and it re-checks every sought row on the exact `i64` key: index
/// lookups match through [`Value`]'s `f64`-based order, which merges
/// `INT`s above 2^53.
struct KeyCol<'db> {
    values: &'db [i64],
    nulls: &'db NullMask,
    index: Option<&'db Index>,
}

impl<'db> KeyCol<'db> {
    fn new(table: &'db Table, col_idx: usize) -> Option<Self> {
        match table.column_data(col_idx)? {
            ColumnData::Int { values, nulls, .. } => Some(KeyCol {
                values,
                nulls,
                index: table.index_at(col_idx),
            }),
            _ => None,
        }
    }

    /// The key of `row`; `None` when it is `NULL`, which no inner join
    /// matches.
    fn get(&self, row: usize) -> Option<i64> {
        (!self.nulls.is_null(row)).then(|| self.values[row])
    }
}

/// A top-level `IntRange` conjunct of a compiled filter, seen through
/// its column's zone map: a row can pass the filter only in a block whose
/// zone may hold the range.
struct ZoneTest<'db> {
    zones: &'db [Zone],
    lo: i64,
    hi: i64,
    inside: bool,
}

/// Calls `f` on each row a plan visits: the listed ids (a caller's seed
/// or an index seed) with out-of-range ones dropped, or else every row
/// below `len` in a block of [`ZONE_ROWS`] rows whose zones may hold
/// every one of `tests` (with no tests, every row).
fn for_each_row(
    len: usize,
    listed: Option<&[RowId]>,
    tests: &[ZoneTest<'_>],
    mut f: impl FnMut(usize),
) {
    match listed {
        Some(ids) => ids.iter().filter(|id| id.0 < len).for_each(|id| f(id.0)),
        None => {
            for start in (0..len).step_by(ZONE_ROWS) {
                let block = start / ZONE_ROWS;
                let may_pass = tests.iter().all(|t| {
                    t.zones
                        .get(block)
                        .is_none_or(|zone| zone.may_hold(t.lo, t.hi, t.inside))
                });
                if may_pass {
                    (start..len.min(start + ZONE_ROWS)).for_each(&mut f);
                }
            }
        }
    }
}

/// The driver rows below `len` that pass `keep`. The walk follows the
/// plan's own access path (`access`: an index seed or rows sought by key;
/// `None` means every row a zone test leaves) or the caller's sorted
/// `seed`, whichever is shorter; rows walked from `access` must also be
/// in `seed`.
fn select(
    len: usize,
    access: Option<&[RowId]>,
    seed: Option<&[RowId]>,
    tests: &[ZoneTest<'_>],
    keep: impl Fn(usize) -> bool,
) -> Vec<RowId> {
    let mut out = Vec::new();
    match (access, seed) {
        (Some(access), Some(seed)) if access.len() < seed.len() => {
            for_each_row(len, Some(access), tests, |r| {
                if seed.binary_search(&RowId(r)).is_ok() && keep(r) {
                    out.push(RowId(r));
                }
            });
        }
        (walk, None) | (_, walk @ Some(_)) => for_each_row(len, walk, tests, |r| {
            if keep(r) {
                out.push(RowId(r));
            }
        }),
    }
    out
}

impl<'db> FastPlan<'db> {
    fn compile(q: &SelectQuery, bound: &BoundQuery<'db>) -> Option<FastPlan<'db>> {
        match q.joins.as_slice() {
            [] => Some(FastPlan::Scan {
                pred: FastPred::compile(&q.filter, bound, 0)?,
            }),
            [cond] => {
                // Resolve the join exactly as `execute` does; any failure
                // here falls back so the generic path raises the error.
                let new_name = &bound.names[1];
                let (new_side, old_side) = if cond.left.table.as_deref() == Some(new_name.as_str())
                {
                    (&cond.left, &cond.right)
                } else if cond.right.table.as_deref() == Some(new_name.as_str()) {
                    (&cond.right, &cond.left)
                } else {
                    return None;
                };
                let joined_idx = bound.tables[1].schema().index_of(&new_side.column)?;
                let probe = bound.locate(old_side).ok()?;
                if probe.table_idx != 0 {
                    return None;
                }
                let driver_key = KeyCol::new(bound.tables[0], probe.col_idx)?;
                let joined_key = KeyCol::new(bound.tables[1], joined_idx)?;
                if let Some(pred) = FastPred::compile(&q.filter, bound, 0) {
                    return Some(FastPlan::SemiJoin {
                        pred,
                        driver_key,
                        joined_key,
                    });
                }
                let pred = FastPred::compile(&q.filter, bound, 1)?;
                Some(FastPlan::JoinedFilter {
                    pred,
                    driver_key,
                    joined_key,
                })
            }
            _ => None,
        }
    }

    /// Runs the plan. Without a seed it walks its own access path (an
    /// index seed, or driver rows sought by key) or every driver row; with
    /// one it walks the seed, or its access path filtered by the seed
    /// when that is shorter. Infallible: compilation resolved every
    /// reference.
    fn run(&self, q: &SelectQuery, bound: &BoundQuery<'db>, seed: Option<&[RowId]>) -> Vec<RowId> {
        let driver = bound.tables[0];
        // A seed is binary-searched, so it must be sorted (delta ingest
        // passes it sorted already).
        let sorted_seed: Vec<RowId>;
        let seed = match seed {
            Some(ids) if !ids.is_sorted() => {
                let mut ids = ids.to_vec();
                ids.sort_unstable();
                sorted_seed = ids;
                Some(sorted_seed.as_slice())
            }
            seed => seed,
        };
        let mut out = match self {
            FastPlan::Scan { pred } => {
                let access = q.index_seed(driver, &bound.names[0]);
                let tests = pred.zone_tests();
                select(driver.len(), access.as_deref(), seed, &tests, |r| {
                    pred.eval(r)
                })
            }
            FastPlan::SemiJoin {
                pred,
                driver_key,
                joined_key,
            } => {
                let joined_keys: HashSet<i64> = (0..bound.tables[1].len())
                    .filter_map(|r| joined_key.get(r))
                    .collect();
                let access = q.index_seed(driver, &bound.names[0]);
                let tests = pred.zone_tests();
                select(driver.len(), access.as_deref(), seed, &tests, |r| {
                    pred.eval(r) && driver_key.get(r).is_some_and(|k| joined_keys.contains(&k))
                })
            }
            FastPlan::JoinedFilter {
                pred,
                driver_key,
                joined_key,
            } => {
                // Seed the joined side from its own indexes (the filter's
                // conjuncts are all joined-side), exactly as a scan seeds
                // the driver.
                let joined = bound.tables[1];
                let joined_seed = q.index_seed(joined, &bound.names[1]);
                let mut passing: HashSet<i64> = HashSet::new();
                let tests = pred.zone_tests();
                for_each_row(joined.len(), joined_seed.as_deref(), &tests, |r| {
                    if pred.eval(r) {
                        passing.extend(joined_key.get(r));
                    }
                });
                let walk_len = seed.map_or(driver.len(), <[RowId]>::len);
                let few_keys = passing.len().saturating_mul(SEEK_COST) < walk_len;
                let sought: Option<Vec<RowId>> = driver_key.index.filter(|_| few_keys).map(|ix| {
                    passing
                        .iter()
                        .flat_map(|&k| ix.get(&Value::Int(k)))
                        .copied()
                        .collect()
                });
                select(driver.len(), sought.as_deref(), seed, &[], |r| {
                    driver_key.get(r).is_some_and(|k| passing.contains(&k))
                })
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A predicate compiled against one table's columnar segments. Atom
/// semantics mirror [`Predicate::eval`] exactly: `NULL` or incomparable
/// operands collapse to `false` at the atom, and `Not`/`And`/`Or` compose
/// the collapsed booleans.
enum FastPred<'db> {
    Const(bool),
    /// The typed kernel of an `INT` column against `Int` literals: passes
    /// when the value lies in `lo..=hi` (`inside`) or outside it (`<>`).
    IntRange {
        values: &'db [i64],
        nulls: &'db NullMask,
        zones: &'db [Zone],
        lo: i64,
        hi: i64,
        inside: bool,
    },
    /// The typed kernel of an all-`Int` `IN` list over an `INT` column;
    /// `lits` is sorted and deduplicated.
    IntIn {
        values: &'db [i64],
        nulls: &'db NullMask,
        lits: Vec<i64>,
    },
    /// An `INT` column against a cross-type literal (`pid = 7.0`).
    IntAtom {
        values: &'db [i64],
        nulls: &'db NullMask,
        test: LitTest,
    },
    FloatAtom {
        values: &'db [f64],
        nulls: &'db NullMask,
        test: LitTest,
    },
    /// String atoms are pre-evaluated per dictionary code.
    StrAtom {
        codes: &'db [u32],
        nulls: &'db NullMask,
        matches: Vec<bool>,
    },
    Not(Box<FastPred<'db>>),
    And(Vec<FastPred<'db>>),
    Or(Vec<FastPred<'db>>),
}

/// The literal side of a compiled atom. [`LitTest::eval`] takes the
/// column value's comparison against a literal, so numeric atoms inherit
/// [`Value::compare`]'s cross-type semantics and string atoms run the same
/// test once per dictionary code.
enum LitTest {
    Cmp(CmpOp, Value),
    Between(Value, Value),
    InList(Vec<Value>),
}

impl LitTest {
    fn eval(&self, cmp: impl Fn(&Value) -> Option<Ordering>) -> bool {
        match self {
            LitTest::Cmp(op, lit) => cmp(lit).is_some_and(|o| op.matches(o)),
            LitTest::Between(lo, hi) => {
                cmp(lo).is_some_and(|o| CmpOp::Ge.matches(o))
                    && cmp(hi).is_some_and(|o| CmpOp::Le.matches(o))
            }
            LitTest::InList(vals) => vals.iter().any(|lit| cmp(lit) == Some(Ordering::Equal)),
        }
    }

    /// The typed `i64` kernel for this test over an `INT` segment, when
    /// every literal is an `Int`: comparisons and `BETWEEN` become one
    /// inclusive range check (`<>` its complement), `IN` a binary search.
    fn int_kernel<'db>(
        &self,
        values: &'db [i64],
        nulls: &'db NullMask,
        zones: &'db [Zone],
    ) -> Option<FastPred<'db>> {
        let range = |lo, hi, inside| FastPred::IntRange {
            values,
            nulls,
            zones,
            lo,
            hi,
            inside,
        };
        Some(match self {
            LitTest::Cmp(op, Value::Int(lit)) => {
                let lit = *lit;
                match op {
                    CmpOp::Eq => range(lit, lit, true),
                    CmpOp::Ne => range(lit, lit, false),
                    CmpOp::Le => range(i64::MIN, lit, true),
                    CmpOp::Ge => range(lit, i64::MAX, true),
                    // `< i64::MIN` and `> i64::MAX` match nothing.
                    CmpOp::Lt => lit
                        .checked_sub(1)
                        .map_or(FastPred::Const(false), |hi| range(i64::MIN, hi, true)),
                    CmpOp::Gt => lit
                        .checked_add(1)
                        .map_or(FastPred::Const(false), |lo| range(lo, i64::MAX, true)),
                }
            }
            LitTest::Between(Value::Int(lo), Value::Int(hi)) => range(*lo, *hi, true),
            LitTest::InList(vals) => {
                let mut lits = vals.iter().map(Value::as_i64).collect::<Option<Vec<_>>>()?;
                lits.sort_unstable();
                lits.dedup();
                FastPred::IntIn {
                    values,
                    nulls,
                    lits,
                }
            }
            _ => return None,
        })
    }
}

/// `Value::compare` restricted to a string left-hand side: comparable only
/// against string literals (strings have no numeric image, and `NULL`
/// compares as incomparable).
fn cmp_str_lit(s: &str, lit: &Value) -> Option<Ordering> {
    match lit {
        Value::Str(l) => Some(s.cmp(l.as_str())),
        _ => None,
    }
}

impl<'db> FastPred<'db> {
    /// Compiles `pred` for evaluation over rows of `bound.tables[table_idx]`.
    /// Every column reference must resolve to that table; anything else
    /// (unknown columns, other tables, ambiguity) returns `None` and the
    /// caller falls back to the generic pipeline.
    fn compile(
        pred: &Predicate,
        bound: &BoundQuery<'db>,
        table_idx: usize,
    ) -> Option<FastPred<'db>> {
        let column = |col: &ColRef| -> Option<&'db ColumnData> {
            let loc = bound.locate(col).ok()?;
            (loc.table_idx == table_idx)
                .then(|| bound.tables[table_idx].column_data(loc.col_idx))
                .flatten()
        };
        let all = |ps: &[Predicate]| -> Option<Vec<FastPred<'db>>> {
            ps.iter()
                .map(|p| Self::compile(p, bound, table_idx))
                .collect()
        };
        Some(match pred {
            Predicate::True => FastPred::Const(true),
            Predicate::False => FastPred::Const(false),
            Predicate::Cmp(col, op, lit) => {
                Self::atom(column(col)?, LitTest::Cmp(*op, lit.clone()))
            }
            Predicate::Between(col, lo, hi) => {
                Self::atom(column(col)?, LitTest::Between(lo.clone(), hi.clone()))
            }
            Predicate::InList(col, vals) => Self::atom(column(col)?, LitTest::InList(vals.clone())),
            Predicate::Not(inner) => {
                FastPred::Not(Box::new(Self::compile(inner, bound, table_idx)?))
            }
            Predicate::And(ps) => FastPred::And(all(ps)?),
            Predicate::Or(ps) => FastPred::Or(all(ps)?),
        })
    }

    /// Compiles one atom over its column's segment.
    fn atom(data: &'db ColumnData, test: LitTest) -> FastPred<'db> {
        match data {
            ColumnData::Int {
                values,
                nulls,
                zones,
            } => match test.int_kernel(values, nulls, zones) {
                Some(kernel) => kernel,
                None => FastPred::IntAtom {
                    values,
                    nulls,
                    test,
                },
            },
            ColumnData::Float { values, nulls } => FastPred::FloatAtom {
                values,
                nulls,
                test,
            },
            ColumnData::Str { codes, dict, nulls } => FastPred::StrAtom {
                codes,
                nulls,
                matches: dict
                    .iter()
                    .map(|s| test.eval(|lit| cmp_str_lit(s, lit)))
                    .collect(),
            },
        }
    }

    /// The zone tests of the top-level `IntRange` conjuncts: the atom
    /// itself, or those among an `And`'s operands, at any depth of `And`.
    fn zone_tests(&self) -> Vec<ZoneTest<'db>> {
        let mut tests = Vec::new();
        let mut stack = vec![self];
        while let Some(p) = stack.pop() {
            match p {
                FastPred::IntRange {
                    zones,
                    lo,
                    hi,
                    inside,
                    ..
                } => tests.push(ZoneTest {
                    zones,
                    lo: *lo,
                    hi: *hi,
                    inside: *inside,
                }),
                FastPred::And(ps) => stack.extend(ps),
                _ => {}
            }
        }
        tests
    }

    fn eval(&self, row: usize) -> bool {
        match self {
            FastPred::Const(b) => *b,
            FastPred::IntRange {
                values,
                nulls,
                lo,
                hi,
                inside,
                ..
            } => !nulls.is_null(row) && (*lo..=*hi).contains(&values[row]) == *inside,
            FastPred::IntIn {
                values,
                nulls,
                lits,
            } => !nulls.is_null(row) && lits.binary_search(&values[row]).is_ok(),
            FastPred::IntAtom {
                values,
                nulls,
                test,
            } => !nulls.is_null(row) && test.eval(|lit| Value::Int(values[row]).compare(lit)),
            FastPred::FloatAtom {
                values,
                nulls,
                test,
            } => !nulls.is_null(row) && test.eval(|lit| Value::Float(values[row]).compare(lit)),
            FastPred::StrAtom {
                codes,
                nulls,
                matches,
            } => !nulls.is_null(row) && matches.get(codes[row] as usize).copied().unwrap_or(false),
            FastPred::Not(p) => !p.eval(row),
            FastPred::And(ps) => ps.iter().all(|p| p.eval(row)),
            FastPred::Or(ps) => ps.iter().any(|p| p.eval(row)),
        }
    }
}

/// Index point lookup that also probes the literal's numeric type twin, so
/// `col=2008.0` still finds `Int(2008)` keys (predicate evaluation compares
/// numerically; index keys compare structurally for hash indexes).
fn point_lookup(table: &Table, column: &str, v: &Value) -> Vec<RowId> {
    let mut out: Vec<RowId> = table
        .index_lookup(column, v)
        .map(<[RowId]>::to_vec)
        .unwrap_or_default();
    for twin in [low_twin(v), high_twin(v)] {
        if twin != *v {
            if let Some(ids) = table.index_lookup(column, &twin) {
                out.extend_from_slice(ids);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The numerically-equal value that sorts *first* under `Value`'s total
/// order (`Int(n)` sorts before `Float(n)`): for an integral float within
/// `i64` range, its `Int` twin; otherwise the value itself. Used to widen
/// index lower bounds so the seed stays a superset of the filter's
/// numeric-comparison semantics.
fn low_twin(v: &Value) -> Value {
    match v {
        Value::Float(f) if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f < i64::MAX as f64 => {
            Value::Int(*f as i64)
        }
        other => other.clone(),
    }
}

/// The numerically-equal value that sorts *last* under `Value`'s total
/// order: for an `Int`, its `Float` twin (same `as_f64` image, so it sorts
/// at the top of the equal-value run even when the cast rounds); otherwise
/// the value itself.
fn high_twin(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::Float(*i as f64),
        other => other.clone(),
    }
}

fn refers_to(col: &ColRef, table_name: &str, table: &Table) -> bool {
    match &col.table {
        Some(t) => t == table_name,
        None => table.schema().contains(&col.column),
    }
}

/// A located column: which FROM-table and which column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Located {
    table_idx: usize,
    col_idx: usize,
}

struct JoinBuild<'db> {
    table: &'db Table,
    hash: HashMap<Value, Vec<RowId>>,
    probe: Located,
}

/// The FROM list resolved against the database.
struct BoundQuery<'db> {
    names: Vec<String>,
    tables: Vec<&'db Table>,
}

impl<'db> BoundQuery<'db> {
    /// Resolves a (possibly unqualified) column reference to a location,
    /// erroring on unknown or ambiguous names.
    fn locate(&self, col: &ColRef) -> Result<Located> {
        match &col.table {
            Some(t) => {
                let table_idx = self
                    .names
                    .iter()
                    .position(|n| n == t)
                    .ok_or_else(|| RelError::UnknownTable(t.clone()))?;
                let col_idx = self.tables[table_idx]
                    .schema()
                    .require(Some(t), &col.column)?;
                Ok(Located { table_idx, col_idx })
            }
            None => {
                let mut found: Option<Located> = None;
                for (ti, table) in self.tables.iter().enumerate() {
                    if let Some(ci) = table.schema().index_of(&col.column) {
                        if found.is_some() {
                            return Err(RelError::AmbiguousColumn(col.column.clone()));
                        }
                        found = Some(Located {
                            table_idx: ti,
                            col_idx: ci,
                        });
                    }
                }
                found.ok_or_else(|| RelError::UnknownColumn {
                    table: None,
                    column: col.column.clone(),
                })
            }
        }
    }
}

/// One joined row during execution; resolves predicate column references.
struct JoinedRow<'a, 'db> {
    bound: &'a BoundQuery<'db>,
    rows: &'a [Vec<Value>],
}

impl<'a> JoinedRow<'a, '_> {
    fn value_at(&self, loc: Located) -> &'a Value {
        &self.rows[loc.table_idx][loc.col_idx]
    }
}

impl ColumnResolver for JoinedRow<'_, '_> {
    fn resolve(&self, col: &ColRef) -> Result<&Value> {
        let loc = self.bound.locate(col)?;
        Ok(&self.rows[loc.table_idx][loc.col_idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::parser::parse_predicate;
    use crate::schema::Schema;
    use crate::value::DataType;

    /// A miniature DBLP: 6 papers, 4 authors, a paper-author link table.
    fn mini_dblp() -> Database {
        let mut db = Database::new();
        let dblp = db
            .create_table(
                "dblp",
                Schema::of(&[
                    ("pid", DataType::Int),
                    ("title", DataType::Str),
                    ("year", DataType::Int),
                    ("venue", DataType::Str),
                ]),
            )
            .unwrap();
        for (pid, title, year, venue) in [
            (1, "Materialized Views", 2000, "VLDB"),
            (2, "Composite Subset Measures", 2006, "VLDB"),
            (3, "Keymantic", 2010, "PVLDB"),
            (4, "Proximity Rank Join", 2010, "PVLDB"),
            (5, "Relational Joins on GPUs", 2008, "SIGMOD"),
            (6, "Weak Privacy for RFID", 2010, "INFOCOM"),
        ] {
            dblp.insert(vec![pid.into(), title.into(), year.into(), venue.into()])
                .unwrap();
        }
        let authors = db
            .create_table(
                "dblp_author",
                Schema::of(&[("pid", DataType::Int), ("aid", DataType::Int)]),
            )
            .unwrap();
        for (pid, aid) in [
            (1, 100),
            (1, 101),
            (2, 100),
            (3, 102),
            (4, 102),
            (4, 103),
            (5, 103),
        ] {
            authors.insert(vec![pid.into(), aid.into()]).unwrap();
        }
        db
    }

    /// One driver column read off the rows the reference pipeline
    /// returns, in row order.
    fn driver_column(db: &Database, q: &SelectQuery, column: &str) -> Vec<Value> {
        let driver = db.table(&q.tables()[0]).unwrap();
        let col = driver.schema().index_of(column).unwrap();
        q.distinct_row_set_rowwise(db)
            .unwrap()
            .iter()
            .map(|r| driver.value_at(r.0, col).unwrap())
            .collect()
    }

    #[test]
    fn single_table_filter() {
        let db = mini_dblp();
        let q = SelectQuery::from("dblp").filter(parse_predicate("dblp.venue='PVLDB'").unwrap());
        assert_eq!(
            driver_column(&db, &q, "pid"),
            vec![Value::Int(3), Value::Int(4)]
        );
        assert_eq!(q.count(&db).unwrap(), 2);
    }

    #[test]
    fn empty_filter_returns_all() {
        let db = mini_dblp();
        assert_eq!(SelectQuery::from("dblp").count(&db).unwrap(), 6);
    }

    #[test]
    fn join_count_distinct_matches_paper_query_shape() {
        let db = mini_dblp();
        // SELECT count(distinct dblp.pid) FROM dblp JOIN dblp_author ...
        // WHERE dblp.venue='VLDB' AND dblp_author.aid=100
        let q = SelectQuery::from("dblp")
            .join(
                "dblp_author",
                ColRef::parse("dblp.pid"),
                ColRef::parse("dblp_author.pid"),
            )
            .filter(parse_predicate("dblp.venue='VLDB' AND dblp_author.aid=100").unwrap());
        assert_eq!(
            q.count_distinct(&db, &ColRef::parse("dblp.pid")).unwrap(),
            2
        );
    }

    #[test]
    fn join_distinct_deduplicates_multi_author_papers() {
        let db = mini_dblp();
        // Paper 4 has two authors; the raw join yields two rows but the
        // distinct pid count must be 1.
        let q = SelectQuery::from("dblp")
            .join(
                "dblp_author",
                ColRef::parse("dblp.pid"),
                ColRef::parse("dblp_author.pid"),
            )
            .filter(parse_predicate("dblp.pid=4").unwrap());
        assert_eq!(q.count(&db).unwrap(), 2);
        assert_eq!(
            q.count_distinct(&db, &ColRef::parse("dblp.pid")).unwrap(),
            1
        );
    }

    #[test]
    fn or_across_attributes() {
        let db = mini_dblp();
        let q = SelectQuery::from("dblp")
            .filter(parse_predicate("dblp.venue='INFOCOM' OR dblp.year=2006").unwrap());
        assert_eq!(q.count(&db).unwrap(), 2);
    }

    #[test]
    fn contradictory_and_returns_zero() {
        let db = mini_dblp();
        let q = SelectQuery::from("dblp")
            .filter(parse_predicate("dblp.venue='VLDB' AND dblp.venue='SIGMOD'").unwrap());
        assert_eq!(q.count(&db).unwrap(), 0);
    }

    #[test]
    fn index_seed_agrees_with_full_scan() {
        let mut db = mini_dblp();
        let q = SelectQuery::from("dblp")
            .filter(parse_predicate("dblp.venue='PVLDB' AND dblp.year=2010").unwrap());
        let before = q.count(&db).unwrap();
        db.table_mut("dblp")
            .unwrap()
            .create_index("venue", IndexKind::Hash)
            .unwrap();
        assert_eq!(q.count(&db).unwrap(), before);
    }

    #[test]
    fn btree_seed_for_between() {
        let mut db = mini_dblp();
        db.table_mut("dblp")
            .unwrap()
            .create_index("year", IndexKind::BTree)
            .unwrap();
        let q = SelectQuery::from("dblp")
            .filter(parse_predicate("dblp.year BETWEEN 2006 AND 2010").unwrap());
        assert_eq!(q.count(&db).unwrap(), 5);
    }

    #[test]
    fn in_list_seed() {
        let mut db = mini_dblp();
        db.table_mut("dblp")
            .unwrap()
            .create_index("venue", IndexKind::Hash)
            .unwrap();
        let q = SelectQuery::from("dblp")
            .filter(parse_predicate("dblp.venue IN ('VLDB','SIGMOD')").unwrap());
        assert_eq!(q.count(&db).unwrap(), 3);
    }

    #[test]
    fn unqualified_columns_resolve_when_unique() {
        let db = mini_dblp();
        let q = SelectQuery::from("dblp").filter(parse_predicate("venue='VLDB'").unwrap());
        assert_eq!(q.count(&db).unwrap(), 2);
    }

    #[test]
    fn ambiguous_unqualified_column_is_an_error() {
        let db = mini_dblp();
        // `pid` exists in both dblp and dblp_author.
        let q = SelectQuery::from("dblp")
            .join(
                "dblp_author",
                ColRef::parse("dblp.pid"),
                ColRef::parse("dblp_author.pid"),
            )
            .filter(parse_predicate("pid=1").unwrap());
        assert!(matches!(
            q.count(&db),
            Err(RelError::AmbiguousColumn(c)) if c == "pid"
        ));
    }

    #[test]
    fn unknown_filter_column_is_an_error() {
        let db = mini_dblp();
        let q = SelectQuery::from("dblp").filter(parse_predicate("dblp.nope=1").unwrap());
        assert!(q.count(&db).is_err());
    }

    #[test]
    fn unknown_table_is_an_error() {
        let db = mini_dblp();
        assert!(SelectQuery::from("missing").count(&db).is_err());
    }

    #[test]
    fn open_range_seed_agrees_with_full_scan() {
        let mut db = mini_dblp();
        let queries = [
            "dblp.year>=2008",
            "dblp.year>2008",
            "dblp.year<=2008",
            "dblp.year<2008",
            "dblp.year>=2010 AND dblp.venue='PVLDB'",
        ];
        let before: Vec<u64> = queries
            .iter()
            .map(|q| {
                SelectQuery::from("dblp")
                    .filter(parse_predicate(q).unwrap())
                    .count(&db)
                    .unwrap()
            })
            .collect();
        db.table_mut("dblp")
            .unwrap()
            .create_index("year", IndexKind::BTree)
            .unwrap();
        for (q, want) in queries.iter().zip(before) {
            let got = SelectQuery::from("dblp")
                .filter(parse_predicate(q).unwrap())
                .count(&db)
                .unwrap();
            assert_eq!(got, want, "indexed vs scan for {q}");
        }
    }

    #[test]
    fn cross_type_literal_bounds_keep_index_seed_a_superset() {
        // `Value`'s total order puts `Int(n)` strictly before `Float(n)`,
        // so a float literal over an int column (or vice versa) must widen
        // its index bound to the numeric type twin or boundary rows vanish
        // from the seed. The filter compares numerically either way.
        let mut db = mini_dblp();
        let queries = [
            "dblp.year>=2008.0",
            "dblp.year>2007.0",
            "dblp.year<=2008.0",
            "dblp.year<2010.0",
            "dblp.year BETWEEN 2006.0 AND 2010.0",
        ];
        let before: Vec<u64> = queries
            .iter()
            .map(|q| {
                SelectQuery::from("dblp")
                    .filter(parse_predicate(q).unwrap())
                    .count(&db)
                    .unwrap()
            })
            .collect();
        db.table_mut("dblp")
            .unwrap()
            .create_index("year", IndexKind::BTree)
            .unwrap();
        for (q, want) in queries.iter().zip(before) {
            let got = SelectQuery::from("dblp")
                .filter(parse_predicate(q).unwrap())
                .count(&db)
                .unwrap();
            assert_eq!(got, want, "indexed vs scan for {q}");
        }
    }

    #[test]
    fn open_range_pushdown_exact_counts_with_fractional_literals() {
        // A fractional float literal has no Int twin, so the widened
        // bounds (`low_twin`/`high_twin` leave it unchanged) must still
        // seed every qualifying int row: year > 2007.5 means year ≥ 2008.
        // Expected counts are hand-derived from the fixture's years
        // {2000, 2006, 2010, 2010, 2008, 2010}.
        let mut db = mini_dblp();
        db.table_mut("dblp")
            .unwrap()
            .create_index("year", IndexKind::BTree)
            .unwrap();
        let cases = [
            ("dblp.year>2007.5", 4u64), // 2008 + three 2010s
            ("dblp.year>=2007.5", 4),   // same set: no year equals 2007.5
            ("dblp.year<2007.5", 2),    // 2000, 2006
            ("dblp.year<=2007.5", 2),
            ("dblp.year>2008.0", 3), // strict: the 2008 row is out
            ("dblp.year>=2008.0", 4),
            ("dblp.year<2010.0", 3), // 2000, 2006, 2008
            ("dblp.year<=2010.0", 6),
            ("dblp.year>2010.5", 0), // above every row
            ("dblp.year<1999.5", 0), // below every row
        ];
        for (text, want) in cases {
            let q = SelectQuery::from("dblp").filter(parse_predicate(text).unwrap());
            assert_eq!(q.count(&db).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn open_range_pushdown_on_float_column_with_int_literals() {
        // The reverse direction: a BTree over Float keys probed with Int
        // literals. `Int(n)` sorts before `Float(n)` in `Value`'s total
        // order, so an unwidened Included(Int(2)) bound would skip the
        // Float(2.0) key itself.
        let mut db = Database::new();
        let scores = db
            .create_table(
                "scores",
                Schema::of(&[("id", DataType::Int), ("score", DataType::Float)]),
            )
            .unwrap();
        for (id, score) in [(1, 0.5), (2, 2.0), (3, 2.5), (4, 4.0), (5, 4.0)] {
            scores
                .insert(vec![Value::Int(id), Value::Float(score)])
                .unwrap();
        }
        let cases = [
            ("scores.score>=2", 4u64), // 2.0, 2.5, 4.0, 4.0
            ("scores.score>2", 3),     // strict: 2.0 is out
            ("scores.score<=2", 2),    // 0.5, 2.0
            ("scores.score<2", 1),
            ("scores.score>=4", 2),
            ("scores.score>4", 0),
            ("scores.score<0", 0),
            ("scores.score>=2.5", 3), // fractional literal, float keys
        ];
        let bare: Vec<u64> = cases
            .iter()
            .map(|(text, _)| {
                SelectQuery::from("scores")
                    .filter(parse_predicate(text).unwrap())
                    .count(&db)
                    .unwrap()
            })
            .collect();
        db.table_mut("scores")
            .unwrap()
            .create_index("score", IndexKind::BTree)
            .unwrap();
        for ((text, want), scanned) in cases.iter().zip(bare) {
            assert_eq!(scanned, *want, "scan for {text}");
            let q = SelectQuery::from("scores").filter(parse_predicate(text).unwrap());
            assert_eq!(q.count(&db).unwrap(), *want, "indexed for {text}");
        }
    }

    #[test]
    fn open_range_pushdown_boundary_row_survives_widened_bounds() {
        // The regression the twin-widening exists for: with an Int BTree
        // key and a whole-number float bound, `>=2008.0` must keep the
        // boundary 2008 row and `>2008.0` must drop it — in both the
        // seeded and the post-filter result.
        let mut db = mini_dblp();
        db.table_mut("dblp")
            .unwrap()
            .create_index("year", IndexKind::BTree)
            .unwrap();
        let ge = SelectQuery::from("dblp").filter(parse_predicate("dblp.year>=2008.0").unwrap());
        let years = driver_column(&db, &ge, "year");
        assert!(years.contains(&Value::Int(2008)), "boundary row kept");
        assert_eq!(years.len(), 4);
        assert_eq!(ge.count(&db).unwrap(), 4);
        let gt = SelectQuery::from("dblp").filter(parse_predicate("dblp.year>2008.0").unwrap());
        let years = driver_column(&db, &gt, "year");
        assert!(!years.contains(&Value::Int(2008)));
        assert_eq!(years.len(), 3);
        assert_eq!(gt.count(&db).unwrap(), 3);
    }

    #[test]
    fn cross_type_equality_probes_hash_index_twins() {
        let mut db = mini_dblp();
        let q = SelectQuery::from("dblp").filter(parse_predicate("dblp.year=2010.0").unwrap());
        let q_in = SelectQuery::from("dblp")
            .filter(parse_predicate("dblp.year IN (2000.0, 2010.0)").unwrap());
        let want = q.count(&db).unwrap();
        let want_in = q_in.count(&db).unwrap();
        assert_eq!(want, 3, "scan finds the int rows for a float literal");
        db.table_mut("dblp")
            .unwrap()
            .create_index("year", IndexKind::Hash)
            .unwrap();
        assert_eq!(
            q.count(&db).unwrap(),
            want,
            "hash index probes the Int twin"
        );
        assert_eq!(q_in.count(&db).unwrap(), want_in, "IN list probes twins");
    }

    #[test]
    fn distinct_row_set_dedupes_driver_rows() {
        let db = mini_dblp();
        // Paper 4 has two authors: two joined rows, one driving row.
        let q = SelectQuery::from("dblp")
            .join(
                "dblp_author",
                ColRef::parse("dblp.pid"),
                ColRef::parse("dblp_author.pid"),
            )
            .filter(parse_predicate("dblp.pid=4").unwrap());
        assert_eq!(q.count(&db).unwrap(), 2);
        assert_eq!(q.distinct_row_set(&db).unwrap(), vec![RowId(3)]);
        // Single-table: all six papers, in scan order.
        let all = SelectQuery::from("dblp").distinct_row_set(&db).unwrap();
        assert_eq!(all, (0..6).map(RowId).collect::<Vec<_>>());
        // A filter on the joined side still gates driving rows.
        let q = SelectQuery::from("dblp")
            .join(
                "dblp_author",
                ColRef::parse("dblp.pid"),
                ColRef::parse("dblp_author.pid"),
            )
            .filter(parse_predicate("dblp_author.aid=102").unwrap());
        assert_eq!(
            q.distinct_row_set(&db).unwrap(),
            vec![RowId(2), RowId(3)],
            "papers 3 and 4 have author 102"
        );
    }

    #[test]
    fn distinct_row_set_matches_count_distinct_on_key() {
        let db = mini_dblp();
        for filter in [
            "dblp.year>=2008",
            "dblp.venue='VLDB'",
            "dblp_author.aid=103",
        ] {
            let q = SelectQuery::from("dblp")
                .join(
                    "dblp_author",
                    ColRef::parse("dblp.pid"),
                    ColRef::parse("dblp_author.pid"),
                )
                .filter(parse_predicate(filter).unwrap());
            let rows = q.distinct_row_set(&db).unwrap().len() as u64;
            let vals = q.count_distinct(&db, &ColRef::parse("dblp.pid")).unwrap();
            assert_eq!(rows, vals, "pid is the driver key, so both agree: {filter}");
        }
    }

    #[test]
    fn columnar_plan_matches_rowwise_reference() {
        // The battery: every supported atom type and connective, over both
        // the single-table and the joined shapes, must agree byte-for-byte
        // with the row-materialising reference path.
        let mut db = mini_dblp();
        db.table_mut("dblp")
            .unwrap()
            .insert(vec![7.into(), Value::Null, Value::Null, Value::Null])
            .unwrap();
        let filters = [
            "dblp.venue='PVLDB'",
            "dblp.venue<>'PVLDB'",
            "dblp.venue>'PVLDB'",
            "dblp.venue IN ('VLDB','SIGMOD','nope')",
            "dblp.venue BETWEEN 'INFOCOM' AND 'SIGMOD'",
            "dblp.year=2010",
            "dblp.year>=2008",
            "dblp.year BETWEEN 2006 AND 2010",
            "dblp.year IN (2000, 2008)",
            "dblp.year=2010.0",
            "dblp.venue='VLDB' AND dblp.year<2005",
            "dblp.venue='VLDB' OR dblp.year=2008",
            "NOT dblp.venue='VLDB'",
            "NOT (dblp.venue='VLDB' OR dblp.venue='PVLDB')",
            "dblp.venue=2010",  // type-mismatched literal: matches nothing
            "dblp.year='VLDB'", // likewise in the numeric direction
        ];
        for text in filters {
            let q = SelectQuery::from("dblp").filter(parse_predicate(text).unwrap());
            assert_eq!(
                q.distinct_row_set(&db).unwrap(),
                q.distinct_row_set_rowwise(&db).unwrap(),
                "single-table: {text}"
            );
        }
        for text in [
            "dblp.venue='PVLDB'",
            "dblp.year>=2008",
            "dblp_author.aid=102",
            "dblp_author.aid IN (100, 103)",
            "NOT dblp_author.aid=100",
        ] {
            let q = SelectQuery::from("dblp")
                .join(
                    "dblp_author",
                    ColRef::parse("dblp.pid"),
                    ColRef::parse("dblp_author.pid"),
                )
                .filter(parse_predicate(text).unwrap());
            assert_eq!(
                q.distinct_row_set(&db).unwrap(),
                q.distinct_row_set_rowwise(&db).unwrap(),
                "joined: {text}"
            );
        }
    }

    #[test]
    fn columnar_plan_agrees_under_indexes() {
        // Index seeding reorders candidates; the fast path must still come
        // back sorted and deduplicated.
        let mut db = mini_dblp();
        db.table_mut("dblp")
            .unwrap()
            .create_index("venue", IndexKind::Hash)
            .unwrap();
        db.table_mut("dblp")
            .unwrap()
            .create_index("year", IndexKind::BTree)
            .unwrap();
        for text in [
            "dblp.venue='VLDB'",
            "dblp.year>=2008",
            "dblp.year BETWEEN 2006 AND 2010",
            "dblp.venue IN ('VLDB','SIGMOD')",
            "dblp.venue='PVLDB' AND dblp.year=2010",
        ] {
            let q = SelectQuery::from("dblp").filter(parse_predicate(text).unwrap());
            assert_eq!(
                q.distinct_row_set(&db).unwrap(),
                q.distinct_row_set_rowwise(&db).unwrap(),
                "indexed: {text}"
            );
        }
    }

    #[test]
    fn columnar_semi_join_requires_a_join_partner() {
        // Paper 6 has no authors: a driver-only filter over the joined
        // query shape must still drop it (inner-join semantics).
        let db = mini_dblp();
        let q = SelectQuery::from("dblp")
            .join(
                "dblp_author",
                ColRef::parse("dblp.pid"),
                ColRef::parse("dblp_author.pid"),
            )
            .filter(parse_predicate("dblp.year=2010").unwrap());
        let fast = q.distinct_row_set(&db).unwrap();
        assert_eq!(fast, q.distinct_row_set_rowwise(&db).unwrap());
        assert_eq!(fast, vec![RowId(2), RowId(3)], "paper 6 (2010) authorless");
    }

    #[test]
    fn typed_kernels_match_value_compare_at_the_extremes() {
        // Int literals compile to `i64` range tests; the boundaries where
        // `lit ± 1` would overflow, reversed BETWEENs, duplicate IN
        // literals and `<>` over NULL rows must all agree with the
        // row-wise `Value::compare` path.
        let mut db = mini_dblp();
        db.table_mut("dblp")
            .unwrap()
            .insert(vec![7.into(), Value::Null, Value::Null, Value::Null])
            .unwrap();
        let year = || ColRef::parse("dblp.year");
        let mut preds: Vec<Predicate> = Vec::new();
        for lit in [i64::MIN, i64::MIN + 1, 2008, i64::MAX - 1, i64::MAX] {
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                preds.push(Predicate::cmp(year(), op, lit));
            }
        }
        preds.push(Predicate::between(year(), 2010, 2006));
        preds.push(Predicate::between(year(), i64::MIN, i64::MAX));
        preds.push(Predicate::in_list(year(), [2010, 2000, 2010]));
        preds.push(Predicate::in_list(
            year(),
            [Value::Int(2010), Value::Float(2000.0)],
        ));
        preds.push(Predicate::cmp(year(), CmpOp::Ne, 2010).not());
        for p in preds {
            let q = SelectQuery::from("dblp").filter(p);
            assert_eq!(
                q.distinct_row_set(&db).unwrap(),
                q.distinct_row_set_rowwise(&db).unwrap(),
                "{}",
                q.predicate()
            );
        }
    }

    /// A one-column-per-kind table of `rows` rows: `asc` counts up from
    /// `-rows/2`, `mixed` is `asc` shuffled by a fixed stride, and `holey`
    /// is `asc` with every third row and the whole second block `NULL`.
    fn zoned_db(rows: usize) -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::of(&[
                    ("asc", DataType::Int),
                    ("mixed", DataType::Int),
                    ("holey", DataType::Int),
                ]),
            )
            .unwrap();
        let half = (rows / 2) as i64;
        for r in 0..rows {
            let asc = r as i64 - half;
            let mixed = ((r * 7919) % rows.max(1)) as i64 - half;
            let holey = if r % 3 == 0 || (ZONE_ROWS..2 * ZONE_ROWS).contains(&r) {
                Value::Null
            } else {
                Value::Int(asc)
            };
            t.insert(vec![asc.into(), mixed.into(), holey]).unwrap();
        }
        db
    }

    fn assert_zoned_walks_match(db: &Database, filters: &[String]) {
        for text in filters {
            let q = SelectQuery::from("t").filter(parse_predicate(text).unwrap());
            assert_eq!(
                q.distinct_row_set(db).unwrap(),
                q.distinct_row_set_rowwise(db).unwrap(),
                "{text}"
            );
        }
    }

    #[test]
    fn zone_skipping_walks_match_the_rowwise_reference() {
        let rows = 3 * ZONE_ROWS + 5;
        let mut db = zoned_db(rows);
        let edge = (ZONE_ROWS as i64) - (rows / 2) as i64;
        let (min, max) = (i64::MIN, i64::MAX);
        let mut filters = Vec::new();
        for col in ["asc", "mixed", "holey"] {
            for (lo, hi) in [
                (edge - 1, edge),
                (edge, edge),
                (edge - 1, edge - 1),
                (edge + 3, edge + 2),
                (edge - 5, edge + (ZONE_ROWS as i64) + 5),
                (min, edge),
                (edge, max),
                (min, max),
            ] {
                filters.push(format!("t.{col} BETWEEN {lo} AND {hi}"));
                filters.push(format!("t.{col} >= {lo} AND t.{col} <= {hi}"));
                filters.push(format!("t.{col} BETWEEN {lo} AND {hi} OR t.{col} = 0"));
                filters.push(format!("NOT t.{col} BETWEEN {lo} AND {hi}"));
                filters.push(format!("t.asc < {lo} AND t.{col} > {hi}"));
            }
            for lit in [edge, min, max, 0] {
                for op in ["=", "<>", "<", "<=", ">", ">="] {
                    filters.push(format!("t.{col} {op} {lit}"));
                }
            }
            filters.push(format!("t.{col} > {edge}.5"));
            filters.push(format!("t.{col} BETWEEN {edge}.0 AND {}.5", edge + 2));
            filters.push(format!("t.{col} = {edge}.0"));
        }
        assert_zoned_walks_match(&db, &filters);
        // Appends into the partial last block extend its zone.
        let t = db.table_mut("t").unwrap();
        for v in [max, min, 10 * rows as i64] {
            t.insert(vec![v.into(), v.into(), Value::Null]).unwrap();
        }
        filters.push(format!("t.asc >= {}", 10 * rows as i64));
        filters.push(format!("t.mixed = {max}"));
        filters.push(format!("t.asc = {min}"));
        assert_zoned_walks_match(&db, &filters);
        // And an empty table walks nothing.
        assert_zoned_walks_match(&zoned_db(0), &filters);
    }

    #[test]
    fn an_int_range_walk_visits_only_the_blocks_its_zones_may_hold() {
        let rows = 4 * ZONE_ROWS + 10;
        let db = zoned_db(rows);
        let visited = |text: &str| {
            let q = SelectQuery::from("t").filter(parse_predicate(text).unwrap());
            let bound = q.bind(&db).unwrap();
            let Some(FastPlan::Scan { pred }) = FastPlan::compile(&q, &bound) else {
                panic!("{text} compiles to a scan");
            };
            let mut n = 0;
            for_each_row(rows, None, &pred.zone_tests(), |_| n += 1);
            n
        };
        let half = (rows / 2) as i64;
        // `asc` is ascending: a range inside one block walks that block.
        let lo = ZONE_ROWS as i64 + 10 - half;
        assert_eq!(
            visited(&format!("t.asc BETWEEN {lo} AND {}", lo + 50)),
            ZONE_ROWS
        );
        assert_eq!(
            visited(&format!("t.asc BETWEEN {lo} AND {}", lo + ZONE_ROWS as i64)),
            2 * ZONE_ROWS
        );
        // The last, partial block; an empty range; every row.
        assert_eq!(visited(&format!("t.asc > {}", rows as i64 - half - 3)), 10);
        assert_eq!(visited("t.asc BETWEEN 5 AND 4"), 0);
        assert_eq!(visited("t.asc <> 0"), rows);
        // Only top-level conjuncts prune: under OR or NOT every row is walked.
        assert_eq!(
            visited(&format!("t.asc = {lo} AND t.mixed >= 0")),
            ZONE_ROWS
        );
        assert_eq!(visited(&format!("t.asc = {lo} OR t.asc = 0")), rows);
        assert_eq!(visited(&format!("NOT t.asc <> {lo}")), rows);
        // An all-NULL block holds no value: `holey` skips its second block.
        assert_eq!(visited("t.holey <> 0"), rows - ZONE_ROWS);
    }

    #[test]
    fn every_plan_charges_exactly_one_fault_operation() {
        use crate::fault::FailSchedule;
        use std::sync::Arc;

        let mut db = mini_dblp();
        db.table_mut("dblp")
            .unwrap()
            .create_index("pid", IndexKind::Hash)
            .unwrap();
        db.table_mut("dblp_author")
            .unwrap()
            .create_index("aid", IndexKind::Hash)
            .unwrap();
        let joined = |filter: &str| {
            SelectQuery::from("dblp")
                .join(
                    "dblp_author",
                    ColRef::parse("dblp.pid"),
                    ColRef::parse("dblp_author.pid"),
                )
                .filter(parse_predicate(filter).unwrap())
        };
        let index_seek = joined("dblp_author.aid=102");
        let typed = SelectQuery::from("dblp")
            .filter(parse_predicate("dblp.year BETWEEN 2006 AND 2010").unwrap());
        let mixed = joined("dblp.venue='PVLDB' AND dblp_author.aid=102");

        // Pin which plan each call exercises.
        let bound = index_seek.bind(&db).unwrap();
        assert!(matches!(
            FastPlan::compile(&index_seek, &bound),
            Some(FastPlan::JoinedFilter { .. })
        ));
        assert!(index_seek
            .index_seed(bound.tables[1], "dblp_author")
            .is_some());
        let bound = typed.bind(&db).unwrap();
        assert!(matches!(
            FastPlan::compile(&typed, &bound),
            Some(FastPlan::Scan {
                pred: FastPred::IntRange { .. }
            })
        ));
        let bound = mixed.bind(&db).unwrap();
        assert!(FastPlan::compile(&mixed, &bound).is_none(), "falls back");

        let seed = [RowId(3), RowId(2), RowId(3), RowId(99)];
        type Call<'q> = Box<dyn Fn(&Database) -> Result<Vec<RowId>> + 'q>;
        let calls: Vec<(&str, Call)> = vec![
            (
                "joined index seek",
                Box::new(|db| index_seek.distinct_row_set(db)),
            ),
            ("typed kernel", Box::new(|db| typed.distinct_row_set(db))),
            (
                "seeded",
                Box::new(|db| index_seek.distinct_row_set_among(db, &seed)),
            ),
            ("fallback", Box::new(|db| mixed.distinct_row_set(db))),
            (
                "seeded fallback",
                Box::new(|db| mixed.distinct_row_set_among(db, &seed)),
            ),
        ];
        for (name, call) in &calls {
            let want = call(&db).unwrap();
            let mut counted = db.clone();
            let probe = Arc::new(FailSchedule::never());
            counted.arm_faults(Arc::clone(&probe));
            assert_eq!(call(&counted).unwrap(), want, "{name}");
            assert_eq!(probe.ops_started(), 1, "{name} charges one operation");

            let mut failing = db.clone();
            let schedule = Arc::new(FailSchedule::nth(1));
            failing.arm_faults(Arc::clone(&schedule));
            assert_eq!(call(&failing), Err(RelError::FaultInjected(1)), "{name}");
            assert_eq!(schedule.injected(), 1, "{name}");
            assert_eq!(call(&failing).unwrap(), want, "{name} after the fault");
            assert_eq!(schedule.ops_started(), 2, "{name}");
        }
    }

    #[test]
    fn distinct_values_returns_identities() {
        let db = mini_dblp();
        let q = SelectQuery::from("dblp").filter(parse_predicate("dblp.venue='PVLDB'").unwrap());
        let vals = q.distinct_values(&db, &ColRef::parse("dblp.pid")).unwrap();
        assert_eq!(vals.len(), 2);
        assert!(vals.contains(&Value::Int(3)));
        assert!(vals.contains(&Value::Int(4)));
    }

    #[test]
    fn join_rows_resolve_qualified_columns() {
        let db = mini_dblp();
        let join = SelectQuery::from("dblp").join(
            "dblp_author",
            ColRef::parse("dblp.pid"),
            ColRef::parse("dblp_author.pid"),
        );
        // Every link row joins; paper 6 has no author and drops out.
        assert_eq!(join.count(&db).unwrap(), 7);
        assert_eq!(
            driver_column(&db, &join, "pid"),
            (1..=5).map(Value::Int).collect::<Vec<_>>()
        );
        // Qualified columns of both sides resolve in the filter.
        let q =
            join.filter(parse_predicate("dblp.title='Keymantic' AND dblp_author.aid=102").unwrap());
        assert_eq!(driver_column(&db, &q, "venue"), vec![Value::str("PVLDB")]);
    }

    #[test]
    fn three_way_join() {
        let mut db = mini_dblp();
        let names = db
            .create_table(
                "author",
                Schema::of(&[("aid", DataType::Int), ("name", DataType::Str)]),
            )
            .unwrap();
        for (aid, name) in [(100, "Ada"), (101, "Bob"), (102, "Cy"), (103, "Dee")] {
            names.insert(vec![aid.into(), name.into()]).unwrap();
        }
        let q = SelectQuery::from("dblp")
            .join(
                "dblp_author",
                ColRef::parse("dblp.pid"),
                ColRef::parse("dblp_author.pid"),
            )
            .join(
                "author",
                ColRef::parse("dblp_author.aid"),
                ColRef::parse("author.aid"),
            )
            .filter(parse_predicate("author.name='Cy'").unwrap());
        assert_eq!(
            q.count_distinct(&db, &ColRef::parse("dblp.pid")).unwrap(),
            2
        );
    }
}
