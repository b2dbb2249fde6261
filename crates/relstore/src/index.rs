//! Secondary indexes: hash (point lookups) and BTree (point + range).

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::table::RowId;
use crate::value::Value;

/// Which index structure to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map from value to row-id postings; O(1) point lookups.
    Hash,
    /// Ordered map; point lookups plus inclusive range scans.
    BTree,
}

/// A maintained secondary index over one column.
#[derive(Debug, Clone)]
pub enum Index {
    /// See [`IndexKind::Hash`].
    Hash(HashMap<Value, Vec<RowId>>),
    /// See [`IndexKind::BTree`].
    BTree(BTreeMap<Value, Vec<RowId>>),
}

impl Index {
    /// Creates an empty index of the requested kind.
    pub fn new(kind: IndexKind) -> Self {
        match kind {
            IndexKind::Hash => Index::Hash(HashMap::new()),
            IndexKind::BTree => Index::BTree(BTreeMap::new()),
        }
    }

    /// Adds a `(value, row)` posting.
    pub fn insert(&mut self, value: Value, row: RowId) {
        match self {
            Index::Hash(m) => m.entry(value).or_default().push(row),
            Index::BTree(m) => m.entry(value).or_default().push(row),
        }
    }

    /// Row ids holding exactly `value` (strict equality; the executor handles
    /// numeric coercion before consulting the index).
    pub fn get(&self, value: &Value) -> &[RowId] {
        match self {
            Index::Hash(m) => m.get(value).map(Vec::as_slice).unwrap_or(&[]),
            Index::BTree(m) => m.get(value).map(Vec::as_slice).unwrap_or(&[]),
        }
    }

    /// Row ids with values in `[lo, hi]`, ascending by value. Only BTree
    /// indexes answer ranges; hash indexes return `None`.
    pub fn range(&self, lo: &Value, hi: &Value) -> Option<Vec<RowId>> {
        self.range_bounds(Bound::Included(lo), Bound::Included(hi))
    }

    /// Row ids with values in the given (possibly open-ended) bounds,
    /// ascending by value — the access path behind `>`/`>=`/`<`/`<=`
    /// pushdown. Only BTree indexes answer ranges; hash indexes return
    /// `None`.
    pub fn range_bounds(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Option<Vec<RowId>> {
        match self {
            Index::Hash(_) => None,
            Index::BTree(m) => {
                let mut out = Vec::new();
                // `BTreeMap::range` panics on an inverted range; one such
                // range (`BETWEEN 5 AND 3`) simply holds no rows. The bounds
                // are ordered by the map's own `Ord`, which calls two
                // values equal only when `==` does.
                if let (
                    Bound::Included(l) | Bound::Excluded(l),
                    Bound::Included(h) | Bound::Excluded(h),
                ) = (lo, hi)
                {
                    let both_included =
                        matches!((lo, hi), (Bound::Included(_), Bound::Included(_)));
                    match l.cmp(h) {
                        Ordering::Greater => return Some(out),
                        Ordering::Equal if !both_included => return Some(out),
                        _ => {}
                    }
                }
                for (_, rows) in m.range((lo, hi)) {
                    out.extend_from_slice(rows);
                }
                Some(out)
            }
        }
    }

    /// Number of distinct keys in the index.
    pub fn key_count(&self) -> usize {
        match self {
            Index::Hash(m) => m.len(),
            Index::BTree(m) => m.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_point_lookup() {
        let mut ix = Index::new(IndexKind::Hash);
        ix.insert(Value::str("VLDB"), RowId(0));
        ix.insert(Value::str("VLDB"), RowId(2));
        ix.insert(Value::str("PODS"), RowId(1));
        assert_eq!(ix.get(&Value::str("VLDB")), &[RowId(0), RowId(2)]);
        assert_eq!(ix.get(&Value::str("SIGMOD")), &[] as &[RowId]);
        assert_eq!(ix.key_count(), 2);
        assert!(ix.range(&Value::Int(0), &Value::Int(1)).is_none());
    }

    #[test]
    fn btree_range_lookup() {
        let mut ix = Index::new(IndexKind::BTree);
        for (y, r) in [(2000, 0), (2003, 1), (2005, 2), (2009, 3)] {
            ix.insert(Value::Int(y), RowId(r));
        }
        let hits = ix.range(&Value::Int(2001), &Value::Int(2005)).unwrap();
        assert_eq!(hits, vec![RowId(1), RowId(2)]);
        // inclusive on both ends
        let hits = ix.range(&Value::Int(2000), &Value::Int(2009)).unwrap();
        assert_eq!(hits.len(), 4);
        // empty range
        let hits = ix.range(&Value::Int(2010), &Value::Int(2020)).unwrap();
        assert!(hits.is_empty());
        // inverted and degenerate half-open ranges hold no rows
        assert!(ix
            .range(&Value::Int(2005), &Value::Int(2003))
            .unwrap()
            .is_empty());
        let five = Value::Int(2005);
        for (lo, hi) in [
            (Bound::Excluded(&five), Bound::Excluded(&five)),
            (Bound::Included(&five), Bound::Excluded(&five)),
            (Bound::Excluded(&five), Bound::Included(&five)),
        ] {
            assert!(ix.range_bounds(lo, hi).unwrap().is_empty());
        }
        // an inverted range of unequal INTs above 2^53, which round to
        // one f64
        let (big, bigger) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert_ne!(big, bigger);
        assert!(ix
            .range_bounds(Bound::Excluded(&bigger), Bound::Excluded(&big))
            .unwrap()
            .is_empty());
    }
}
