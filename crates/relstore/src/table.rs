//! Heap-resident tables stored as **columnar segments**: a schema plus
//! per-column typed arrays with maintained secondary indexes.
//!
//! ## Segment layout
//!
//! Each column lives in its own typed segment rather than inside boxed
//! per-row `Vec<Value>`s:
//!
//! * `INT` columns are a `Vec<i64>` plus a *zone map*: the min and max
//!   non-null value of each block of [`ZONE_ROWS`] rows, extended on
//!   every append, so a range scan skips the blocks that cannot hold a
//!   match,
//! * `FLOAT` columns are a `Vec<f64>`,
//! * `TEXT` columns are dictionary-encoded: a `Vec<u32>` of codes plus a
//!   per-column [`StrDict`] mapping code → string in **first-appearance
//!   (corpus) order** — repeated venue names cost 4 bytes per row, and
//!   predicate evaluation compares codes instead of strings,
//! * every column carries a null bitmap (one bit per row; the typed array
//!   holds a sentinel at null positions).
//!
//! Row positions are dense and append-only, so [`RowId`] doubles as the
//! offset into every segment. The row API (`insert`, `row`, `cell`,
//! `scan`) is preserved as a *view* over the columns — `row` and `scan`
//! materialise `Vec<Value>`s on demand — while the query executor reads
//! the typed segments directly ([`Table::int_values`],
//! [`Table::str_codes`], …) for tight column scans.
//!
//! Segments and indexes sit behind `Arc`s: cloning a `Table` (or a whole
//! `Database`, as the delta-ingest and fault-retry paths do) is a
//! per-column reference bump, and the first append to a shared column
//! copies it on write.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{RelError, Result};
use crate::index::{Index, IndexKind};
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Identifies a row within one table. Row ids are dense, stable and never
/// reused (the engine is append-only, which is all the HYPRE workload needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub usize);

/// A per-column string dictionary: code → string in first-appearance
/// order, with a hash-bucketed reverse probe (`by_hash` stores candidate
/// codes per string hash, so the strings themselves are stored exactly
/// once).
///
/// Codes are dense `u32`s assigned in insertion order; because tables are
/// append-only, every code maps to at least one live row.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    values: Vec<String>,
    by_hash: HashMap<u64, Vec<u32>>,
}

impl StrDict {
    fn hash_of(s: &str) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    /// The code for `s`, if it has been interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.by_hash
            .get(&Self::hash_of(s))?
            .iter()
            .copied()
            .find(|&c| self.values[c as usize] == s)
    }

    /// Interns `s`, returning its (new or existing) code.
    fn intern(&mut self, s: String, column: &str) -> Result<u32> {
        if let Some(code) = self.code_of(&s) {
            return Ok(code);
        }
        let code = u32::try_from(self.values.len()).map_err(|_| RelError::DictionaryFull {
            column: column.to_owned(),
        })?;
        self.by_hash
            .entry(Self::hash_of(&s))
            .or_default()
            .push(code);
        self.values.push(s);
        Ok(code)
    }

    /// The string behind `code`.
    pub fn get(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates the interned strings in code order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(String::as_str)
    }
}

/// One bit per row; set bits mark SQL `NULL` cells.
#[derive(Debug, Clone, Default)]
pub(crate) struct NullMask {
    words: Vec<u64>,
    len: usize,
}

impl NullMask {
    fn push(&mut self, is_null: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        if is_null {
            if let Some(w) = self.words.last_mut() {
                *w |= 1u64 << bit;
            }
        }
        self.len += 1;
    }

    pub(crate) fn is_null(&self, row: usize) -> bool {
        self.words
            .get(row / 64)
            .is_some_and(|w| (w >> (row % 64)) & 1 == 1)
    }

    fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }
}

/// Rows per zone-map block of an `INT` segment: block `b` covers rows
/// `b·ZONE_ROWS .. (b+1)·ZONE_ROWS`.
pub const ZONE_ROWS: usize = 1024;

/// The smallest and largest non-null value of one zone-map block. A block
/// with no non-null value holds the empty zone (`min > max`), which no
/// range can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Zone {
    min: i64,
    max: i64,
}

impl Zone {
    const EMPTY: Zone = Zone {
        min: i64::MAX,
        max: i64::MIN,
    };

    fn extend(&mut self, v: i64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Whether some value of the block can lie inside `lo..=hi`
    /// (`inside`), or outside it (`!inside`).
    pub(crate) fn may_hold(&self, lo: i64, hi: i64, inside: bool) -> bool {
        if self.min > self.max {
            return false;
        }
        if inside {
            lo <= hi && self.min <= hi && self.max >= lo
        } else {
            self.min < lo || self.max > hi
        }
    }
}

/// One columnar segment. The typed array holds a sentinel (`0`, `0.0`,
/// `u32::MAX`) at null positions; the null mask is authoritative.
#[derive(Debug, Clone)]
pub(crate) enum ColumnData {
    Int {
        values: Vec<i64>,
        nulls: NullMask,
        /// One zone per started block of [`ZONE_ROWS`] rows.
        zones: Vec<Zone>,
    },
    Float {
        values: Vec<f64>,
        nulls: NullMask,
    },
    Str {
        codes: Vec<u32>,
        dict: StrDict,
        nulls: NullMask,
    },
}

impl ColumnData {
    fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => ColumnData::Int {
                values: Vec::new(),
                nulls: NullMask::default(),
                zones: Vec::new(),
            },
            DataType::Float => ColumnData::Float {
                values: Vec::new(),
                nulls: NullMask::default(),
            },
            DataType::Str => ColumnData::Str {
                codes: Vec::new(),
                dict: StrDict::default(),
                nulls: NullMask::default(),
            },
        }
    }

    /// Appends a cell already validated and coerced by `Table::insert`.
    fn push(&mut self, value: Value) {
        match (self, value) {
            (
                ColumnData::Int {
                    values,
                    nulls,
                    zones,
                },
                Value::Int(i),
            ) => {
                match zones.last_mut() {
                    Some(zone) if values.len() % ZONE_ROWS != 0 => zone.extend(i),
                    _ => zones.push(Zone { min: i, max: i }),
                }
                values.push(i);
                nulls.push(false);
            }
            (
                ColumnData::Int {
                    values,
                    nulls,
                    zones,
                },
                Value::Null,
            ) => {
                if values.len() % ZONE_ROWS == 0 {
                    zones.push(Zone::EMPTY);
                }
                values.push(0);
                nulls.push(true);
            }
            (ColumnData::Float { values, nulls }, Value::Float(f)) => {
                values.push(f);
                nulls.push(false);
            }
            (ColumnData::Float { values, nulls }, Value::Null) => {
                values.push(0.0);
                nulls.push(true);
            }
            (ColumnData::Str { .. }, Value::Str(_)) => {
                // `Table::insert` interns the string and appends the code
                // via `push_code`; this arm is never taken.
                unreachable!("string cells are appended via push_code");
            }
            (ColumnData::Str { codes, nulls, .. }, Value::Null) => {
                codes.push(u32::MAX);
                nulls.push(true);
            }
            _ => unreachable!("cell type was validated against the schema"),
        }
    }

    fn push_code(&mut self, code: u32) {
        match self {
            ColumnData::Str { codes, nulls, .. } => {
                codes.push(code);
                nulls.push(false);
            }
            _ => unreachable!("push_code targets TEXT segments only"),
        }
    }

    fn value_at(&self, row: usize) -> Value {
        match self {
            ColumnData::Int { values, nulls, .. } => {
                if nulls.is_null(row) {
                    Value::Null
                } else {
                    Value::Int(values[row])
                }
            }
            ColumnData::Float { values, nulls } => {
                if nulls.is_null(row) {
                    Value::Null
                } else {
                    Value::Float(values[row])
                }
            }
            ColumnData::Str { codes, dict, nulls } => {
                if nulls.is_null(row) {
                    Value::Null
                } else {
                    match dict.get(codes[row]) {
                        Some(s) => Value::str(s),
                        None => unreachable!("codes come from this dictionary"),
                    }
                }
            }
        }
    }

    fn is_null(&self, row: usize) -> bool {
        match self {
            ColumnData::Int { nulls, .. }
            | ColumnData::Float { nulls, .. }
            | ColumnData::Str { nulls, .. } => nulls.is_null(row),
        }
    }
}

/// A single relation: schema, columnar segments and any secondary indexes.
///
/// Cloning shares all segments and indexes via `Arc` (copy-on-write on the
/// next append), so snapshots taken by delta ingest and fault-retry are
/// cheap regardless of row count.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    len: usize,
    columns: Vec<Arc<ColumnData>>,
    /// Secondary indexes keyed by column position.
    indexes: HashMap<usize, Arc<Index>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Arc::new(ColumnData::new(c.data_type())))
            .collect();
        Table {
            name: name.into(),
            schema,
            len: 0,
            columns,
            indexes: HashMap::new(),
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Validates and appends a row, maintaining all indexes.
    ///
    /// Integer values are widened into `FLOAT` columns; any other type
    /// mismatch is rejected.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId> {
        if row.len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        let mut coerced = Vec::with_capacity(row.len());
        for (i, v) in row.into_iter().enumerate() {
            let col = self.schema.column(i);
            if !v.is_assignable_to(col.data_type()) {
                return Err(RelError::TypeMismatch {
                    column: col.name().to_owned(),
                    expected: col.data_type(),
                    value: v.to_literal(),
                });
            }
            coerced.push(v.coerce_to(col.data_type()));
        }
        let id = RowId(self.len);
        for (&col_idx, index) in &mut self.indexes {
            Arc::make_mut(index).insert(coerced[col_idx].clone(), id);
        }
        // String cells intern into the per-column dictionary first (the
        // only fallible step — and growing a dictionary without appending
        // a row is harmless), then every segment appends infallibly, so a
        // failed insert never leaves segments at mismatched lengths.
        for (ci, v) in coerced.into_iter().enumerate() {
            let seg = Arc::make_mut(&mut self.columns[ci]);
            if let (ColumnData::Str { dict, .. }, Value::Str(s)) = (&mut *seg, &v) {
                let code = dict.intern(s.clone(), self.schema.column(ci).name())?;
                seg.push_code(code);
            } else {
                seg.push(v);
            }
        }
        self.len += 1;
        Ok(id)
    }

    /// Inserts many rows; stops at (and returns) the first error.
    pub fn insert_many<I>(&mut self, rows: I) -> Result<usize>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// The row with the given id, materialised from the column segments.
    pub fn row(&self, id: RowId) -> Option<Vec<Value>> {
        (id.0 < self.len).then(|| self.columns.iter().map(|c| c.value_at(id.0)).collect())
    }

    /// The cell at `(row, column name)`, materialised from its segment.
    pub fn cell(&self, id: RowId, column: &str) -> Option<Value> {
        let ci = self.schema.index_of(column)?;
        (id.0 < self.len).then(|| self.columns[ci].value_at(id.0))
    }

    /// The cell at `(row position, column position)`, or `None` when out of
    /// range — the positional twin of [`Table::cell`] used by the executor.
    pub fn value_at(&self, row: usize, col_idx: usize) -> Option<Value> {
        (row < self.len && col_idx < self.columns.len())
            .then(|| self.columns[col_idx].value_at(row))
    }

    /// Whether the cell at `(row position, column position)` is `NULL`
    /// (out-of-range positions read as non-null).
    pub fn is_null_at(&self, row: usize, col_idx: usize) -> bool {
        row < self.len && self.columns.get(col_idx).is_some_and(|c| c.is_null(row))
    }

    /// The typed segment of an `INT` column (`None` for other types); null
    /// positions hold `0` — consult [`Table::is_null_at`].
    pub fn int_values(&self, col_idx: usize) -> Option<&[i64]> {
        match self.columns.get(col_idx)?.as_ref() {
            ColumnData::Int { values, .. } => Some(values),
            _ => None,
        }
    }

    /// The typed segment of a `FLOAT` column (`None` for other types); null
    /// positions hold `0.0`.
    pub fn float_values(&self, col_idx: usize) -> Option<&[f64]> {
        match self.columns.get(col_idx)?.as_ref() {
            ColumnData::Float { values, .. } => Some(values),
            _ => None,
        }
    }

    /// The raw segment behind a column, for the query executor's compiled
    /// columnar plans.
    pub(crate) fn column_data(&self, col_idx: usize) -> Option<&ColumnData> {
        self.columns.get(col_idx).map(Arc::as_ref)
    }

    /// The code segment and dictionary of a `TEXT` column (`None` for other
    /// types); null positions hold `u32::MAX`.
    pub fn str_codes(&self, col_idx: usize) -> Option<(&[u32], &StrDict)> {
        match self.columns.get(col_idx)?.as_ref() {
            ColumnData::Str { codes, dict, .. } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Iterates over `(RowId, materialised row)` pairs.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, Vec<Value>)> + '_ {
        (0..self.len).map(move |i| {
            (
                RowId(i),
                self.columns.iter().map(|c| c.value_at(i)).collect(),
            )
        })
    }

    /// Creates a secondary index on `column`.
    ///
    /// # Errors
    /// `UnknownColumn` if the column does not exist, `DuplicateIndex` if one
    /// is already present.
    pub fn create_index(&mut self, column: &str, kind: IndexKind) -> Result<()> {
        let ci = self.schema.require(Some(&self.name), column)?;
        if self.indexes.contains_key(&ci) {
            return Err(RelError::DuplicateIndex {
                table: self.name.clone(),
                column: column.to_owned(),
            });
        }
        let mut index = Index::new(kind);
        for row in 0..self.len {
            index.insert(self.columns[ci].value_at(row), RowId(row));
        }
        self.indexes.insert(ci, Arc::new(index));
        Ok(())
    }

    /// Whether `column` has a secondary index.
    pub fn has_index(&self, column: &str) -> bool {
        self.schema
            .index_of(column)
            .is_some_and(|ci| self.indexes.contains_key(&ci))
    }

    /// The index on the column at `col_idx`, if one exists — the positional
    /// access the compiled plans use for key seeks.
    pub(crate) fn index_at(&self, col_idx: usize) -> Option<&Index> {
        self.indexes.get(&col_idx).map(Arc::as_ref)
    }

    /// Point lookup through the index on `column`, if one exists.
    pub fn index_lookup(&self, column: &str, value: &Value) -> Option<&[RowId]> {
        let ci = self.schema.index_of(column)?;
        self.indexes.get(&ci).map(|ix| ix.get(value))
    }

    /// Range lookup `[lo, hi]` through a BTree index on `column`, if one
    /// exists (hash indexes return `None`).
    pub fn index_range(&self, column: &str, lo: &Value, hi: &Value) -> Option<Vec<RowId>> {
        let ci = self.schema.index_of(column)?;
        self.indexes.get(&ci)?.range(lo, hi)
    }

    /// Open-ended range lookup through a BTree index on `column`, if one
    /// exists — serves single-sided comparison conjuncts (`>`, `>=`, `<`,
    /// `<=`). Hash indexes return `None`.
    pub fn index_range_bounds(
        &self,
        column: &str,
        lo: std::ops::Bound<&Value>,
        hi: std::ops::Bound<&Value>,
    ) -> Option<Vec<RowId>> {
        let ci = self.schema.index_of(column)?;
        self.indexes.get(&ci)?.range_bounds(lo, hi)
    }

    /// Distinct values present in `column` (a typed column scan; `NULL`
    /// counts as one distinct value, matching the row-store behaviour).
    pub fn distinct_count(&self, column: &str) -> Result<usize> {
        let ci = self.schema.require(Some(&self.name), column)?;
        Ok(match self.columns[ci].as_ref() {
            ColumnData::Int { values, nulls, .. } => {
                let mut seen = std::collections::HashSet::with_capacity(values.len());
                for (row, &v) in values.iter().enumerate() {
                    if !nulls.is_null(row) {
                        seen.insert(v);
                    }
                }
                seen.len() + usize::from(nulls.any())
            }
            ColumnData::Float { values, nulls } => {
                let mut seen = std::collections::HashSet::with_capacity(values.len());
                for (row, &v) in values.iter().enumerate() {
                    if !nulls.is_null(row) {
                        seen.insert(v.to_bits());
                    }
                }
                seen.len() + usize::from(nulls.any())
            }
            // Append-only tables never orphan a dictionary code, so the
            // dictionary size *is* the distinct non-null count.
            ColumnData::Str { dict, nulls, .. } => dict.len() + usize::from(nulls.any()),
        })
    }

    /// Whether every row holds a non-`NULL` value in the column at
    /// `col_idx` that no other row holds — what a column must satisfy to
    /// name rows. Read off the column's index when it has one (its key
    /// count against the row count), else one pass over the segment.
    pub fn is_unique_key(&self, col_idx: usize) -> bool {
        if let Some(ix) = self.index_at(col_idx) {
            return ix.key_count() == self.len && ix.get(&Value::Null).is_empty();
        }
        let Some(data) = self.column_data(col_idx) else {
            return false;
        };
        match data {
            ColumnData::Int { values, nulls, .. } => {
                let mut seen = std::collections::HashSet::with_capacity(values.len());
                !nulls.any() && values.iter().all(|&v| seen.insert(v))
            }
            ColumnData::Float { values, nulls } => {
                let mut seen = std::collections::HashSet::with_capacity(values.len());
                !nulls.any() && values.iter().all(|&v| seen.insert(v.to_bits()))
            }
            ColumnData::Str { codes, dict, nulls } => {
                let mut seen = vec![false; dict.len()];
                !nulls.any()
                    && codes
                        .iter()
                        .all(|&c| !std::mem::replace(&mut seen[c as usize], true))
            }
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{} rows]", self.name, self.schema, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn movie_table() -> Table {
        let mut t = Table::new(
            "movie",
            Schema::of(&[
                ("mid", DataType::Str),
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("genre", DataType::Str),
            ]),
        );
        for (mid, title, year, genre) in [
            ("m1", "Casablanca", 1942, "drama"),
            ("m2", "Psycho", 1960, "horror"),
            ("m3", "Schindler's List", 1993, "drama"),
            ("m4", "White Christmas", 1954, "comedy"),
            ("m5", "The Adventures of Tintin", 2011, "comedy"),
            ("m6", "The Girl on the Train", 2013, "thriller"),
        ] {
            t.insert(vec![mid.into(), title.into(), year.into(), genre.into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn insert_scan_roundtrip() {
        let t = movie_table();
        assert_eq!(t.len(), 6);
        let titles: Vec<_> = t
            .scan()
            .map(|(_, r)| r[1].as_str().unwrap().to_owned())
            .collect();
        assert_eq!(titles[0], "Casablanca");
        assert_eq!(t.cell(RowId(4), "genre"), Some(Value::str("comedy")));
    }

    #[test]
    fn arity_and_type_checks() {
        let mut t = movie_table();
        let err = t.insert(vec!["m7".into()]).unwrap_err();
        assert!(matches!(
            err,
            RelError::ArityMismatch {
                expected: 4,
                got: 1
            }
        ));
        let err = t
            .insert(vec![
                "m7".into(),
                "T".into(),
                "not-a-year".into(),
                "g".into(),
            ])
            .unwrap_err();
        assert!(matches!(err, RelError::TypeMismatch { .. }));
        // A rejected row leaves the table untouched.
        assert_eq!(t.len(), 6);
        assert_eq!(t.row(RowId(5)).unwrap().len(), 4);
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut t = Table::new(
            "scores",
            Schema::of(&[("id", DataType::Int), ("score", DataType::Float)]),
        );
        t.insert(vec![1.into(), Value::Int(3)]).unwrap();
        assert_eq!(t.cell(RowId(0), "score"), Some(Value::Float(3.0)));
        assert_eq!(t.float_values(1), Some(&[3.0][..]));
    }

    #[test]
    fn null_allowed_in_any_column() {
        let mut t = movie_table();
        t.insert(vec!["m7".into(), Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!(t.cell(RowId(6), "title"), Some(Value::Null));
        assert!(t.is_null_at(6, 1));
        assert!(t.is_null_at(6, 2));
        assert!(!t.is_null_at(5, 1));
        assert_eq!(t.row(RowId(6)).unwrap()[2], Value::Null);
    }

    #[test]
    fn columnar_segments_expose_typed_arrays() {
        let t = movie_table();
        let years = t.int_values(2).unwrap();
        assert_eq!(years, &[1942, 1960, 1993, 1954, 2011, 2013]);
        assert!(t.int_values(1).is_none(), "title is TEXT");
        assert!(t.float_values(2).is_none(), "year is INT");
        let (codes, dict) = t.str_codes(3).unwrap();
        assert_eq!(codes.len(), 6);
        // Dictionary codes are assigned in first-appearance order.
        assert_eq!(dict.get(codes[0]), Some("drama"));
        assert_eq!(dict.code_of("comedy"), Some(2));
        assert_eq!(dict.code_of("opera"), None);
        assert_eq!(codes[0], codes[2], "repeated strings share a code");
        assert_eq!(dict.len(), 4);
        let in_dict: Vec<&str> = dict.iter().collect();
        assert_eq!(in_dict, ["drama", "horror", "comedy", "thriller"]);
    }

    #[test]
    fn value_at_matches_cell() {
        let t = movie_table();
        assert_eq!(t.value_at(4, 3), Some(Value::str("comedy")));
        assert_eq!(t.value_at(0, 2), Some(Value::Int(1942)));
        assert_eq!(t.value_at(6, 0), None, "row out of range");
        assert_eq!(t.value_at(0, 9), None, "column out of range");
    }

    #[test]
    fn clone_shares_segments_until_append() {
        let t = movie_table();
        let snap = t.clone();
        assert!(
            Arc::ptr_eq(&t.columns[0], &snap.columns[0]),
            "clone is a reference bump, not a deep copy"
        );
        let mut grown = snap.clone();
        grown
            .insert(vec![
                "m7".into(),
                "New".into(),
                2014.into(),
                "comedy".into(),
            ])
            .unwrap();
        // Copy-on-write: the snapshot still sees 6 rows.
        assert_eq!(snap.len(), 6);
        assert_eq!(grown.len(), 7);
        assert!(!Arc::ptr_eq(&grown.columns[0], &snap.columns[0]));
    }

    #[test]
    fn hash_index_lookup_matches_scan() {
        let mut t = movie_table();
        t.create_index("genre", IndexKind::Hash).unwrap();
        assert!(t.has_index("genre"));
        let hits = t.index_lookup("genre", &Value::str("comedy")).unwrap();
        assert_eq!(hits, &[RowId(3), RowId(4)]);
        assert!(t
            .index_lookup("genre", &Value::str("opera"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn index_stays_fresh_after_inserts() {
        let mut t = movie_table();
        t.create_index("genre", IndexKind::Hash).unwrap();
        t.insert(vec![
            "m7".into(),
            "New".into(),
            2014.into(),
            "comedy".into(),
        ])
        .unwrap();
        let hits = t.index_lookup("genre", &Value::str("comedy")).unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn btree_index_supports_range() {
        let mut t = movie_table();
        t.create_index("year", IndexKind::BTree).unwrap();
        let hits = t
            .index_range("year", &Value::Int(1950), &Value::Int(1995))
            .unwrap();
        // ascending by year: 1954 (m4), 1960 (m2), 1993 (m3)
        assert_eq!(hits, vec![RowId(3), RowId(1), RowId(2)]);
    }

    #[test]
    fn hash_index_has_no_range() {
        let mut t = movie_table();
        t.create_index("year", IndexKind::Hash).unwrap();
        assert!(t
            .index_range("year", &Value::Int(1950), &Value::Int(1995))
            .is_none());
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut t = movie_table();
        t.create_index("genre", IndexKind::Hash).unwrap();
        let err = t.create_index("genre", IndexKind::BTree).unwrap_err();
        assert!(matches!(err, RelError::DuplicateIndex { .. }));
    }

    #[test]
    fn distinct_count() {
        let t = movie_table();
        assert_eq!(t.distinct_count("genre").unwrap(), 4);
        assert_eq!(t.distinct_count("mid").unwrap(), 6);
        assert!(t.distinct_count("nope").is_err());
    }

    #[test]
    fn distinct_count_counts_null_once() {
        let mut t = movie_table();
        t.insert(vec!["m7".into(), Value::Null, Value::Null, Value::Null])
            .unwrap();
        t.insert(vec!["m8".into(), Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!(t.distinct_count("genre").unwrap(), 5, "4 genres + NULL");
        assert_eq!(t.distinct_count("year").unwrap(), 7, "6 years + NULL");
    }

    #[test]
    fn a_btree_index_tells_ints_past_f64_precision_apart() {
        // 2^53 and 2^53 + 1 round to one f64; the index must still hold
        // them as two keys.
        let mut t = Table::new("big", Schema::of(&[("id", DataType::Int)]));
        let (big, bigger) = (1i64 << 53, (1i64 << 53) + 1);
        t.insert(vec![big.into()]).unwrap();
        t.insert(vec![bigger.into()]).unwrap();
        t.create_index("id", IndexKind::BTree).unwrap();
        assert_eq!(
            t.index_lookup("id", &Value::Int(bigger)),
            Some(&[RowId(1)][..])
        );
        assert_eq!(
            t.index_lookup("id", &Value::Int(big)),
            Some(&[RowId(0)][..])
        );
        assert!(t.is_unique_key(0), "two distinct keys are a unique key");
    }
}
