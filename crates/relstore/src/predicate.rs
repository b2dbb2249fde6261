//! Predicate AST: the `WHERE`-clause fragment of SQL that HYPRE preferences
//! are written in, with evaluation, attribute extraction and SQL rendering.
//!
//! HYPRE stores every preference as an SQL predicate string (§4.2 of the
//! dissertation) and combines predicates with `AND`/`OR` when enhancing a
//! query (§4.6). This module is therefore the lingua franca between the
//! preference graph (`hypre-core`) and the relational engine.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::Result;
use crate::value::Value;

/// A possibly table-qualified column reference, e.g. `dblp.venue` or `year`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColRef {
    /// Optional qualifying table name.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// An unqualified column reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColRef {
            table: None,
            column: column.into(),
        }
    }

    /// A table-qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }

    /// Parses `"t.c"` or `"c"` (no validation beyond the dot split).
    pub fn parse(s: &str) -> Self {
        match s.split_once('.') {
            Some((t, c)) => ColRef::qualified(t, c),
            None => ColRef::bare(s),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Comparison operators supported in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` (also parsed from `!=`)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering produced by [`Value::compare`].
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Resolves a column reference to the cell value of the "current row".
///
/// Query execution implements this over joined row views; tests can
/// implement it over a simple map.
pub trait ColumnResolver {
    /// Returns the value bound to `col`, or an error if the reference cannot
    /// be resolved (unknown table/column, ambiguity).
    fn resolve(&self, col: &ColRef) -> Result<&Value>;
}

/// A boolean predicate over one (joined) row.
///
/// `And`/`Or` are n-ary to keep combined preference predicates shallow and
/// their rendered SQL readable; [`Predicate::and`] and [`Predicate::or`]
/// flatten as they build.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (the neutral element of `AND`).
    True,
    /// Always false (the neutral element of `OR`).
    False,
    /// `col <op> literal`.
    Cmp(ColRef, CmpOp, Value),
    /// `col BETWEEN low AND high` (inclusive on both ends, SQL semantics).
    Between(ColRef, Value, Value),
    /// `col IN (v1, v2, …)`.
    InList(ColRef, Vec<Value>),
    /// Logical negation.
    Not(Box<Predicate>),
    /// N-ary conjunction.
    And(Vec<Predicate>),
    /// N-ary disjunction.
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Shorthand for an equality comparison.
    pub fn eq(col: ColRef, value: impl Into<Value>) -> Self {
        Predicate::Cmp(col, CmpOp::Eq, value.into())
    }

    /// Shorthand for a comparison.
    pub fn cmp(col: ColRef, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp(col, op, value.into())
    }

    /// Shorthand for a `BETWEEN`.
    pub fn between(col: ColRef, low: impl Into<Value>, high: impl Into<Value>) -> Self {
        Predicate::Between(col, low.into(), high.into())
    }

    /// Shorthand for an `IN` list.
    pub fn in_list<V: Into<Value>>(col: ColRef, values: impl IntoIterator<Item = V>) -> Self {
        Predicate::InList(col, values.into_iter().map(Into::into).collect())
    }

    /// Conjoins two predicates, flattening nested `And`s and dropping
    /// `True` operands. `False` absorbs.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::False, _) | (_, Predicate::False) => Predicate::False,
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (p, q) => Predicate::And(vec![p, q]),
        }
    }

    /// Disjoins two predicates, flattening nested `Or`s and dropping
    /// `False` operands. `True` absorbs.
    pub fn or(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, _) | (_, Predicate::True) => Predicate::True,
            (Predicate::False, p) | (p, Predicate::False) => p,
            (Predicate::Or(mut a), Predicate::Or(b)) => {
                a.extend(b);
                Predicate::Or(a)
            }
            (Predicate::Or(mut a), p) => {
                a.push(p);
                Predicate::Or(a)
            }
            (p, Predicate::Or(mut b)) => {
                b.insert(0, p);
                Predicate::Or(b)
            }
            (p, q) => Predicate::Or(vec![p, q]),
        }
    }

    /// Logical negation (with double-negation elimination).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        match self {
            Predicate::True => Predicate::False,
            Predicate::False => Predicate::True,
            Predicate::Not(inner) => *inner,
            p => Predicate::Not(Box::new(p)),
        }
    }

    /// Conjoins an iterator of predicates (`True` for an empty iterator).
    pub fn all(preds: impl IntoIterator<Item = Predicate>) -> Predicate {
        preds.into_iter().fold(Predicate::True, |acc, p| acc.and(p))
    }

    /// Disjoins an iterator of predicates (`False` for an empty iterator).
    pub fn any(preds: impl IntoIterator<Item = Predicate>) -> Predicate {
        preds.into_iter().fold(Predicate::False, |acc, p| acc.or(p))
    }

    /// Evaluates the predicate against the row bound by `resolver`.
    ///
    /// SQL three-valued logic is collapsed: a comparison involving `NULL`
    /// or incomparable types contributes `false` (the tuple does not match),
    /// which is exactly how a `WHERE` clause filters.
    pub fn eval(&self, resolver: &dyn ColumnResolver) -> Result<bool> {
        Ok(match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Cmp(col, op, lit) => {
                let v = resolver.resolve(col)?;
                v.compare(lit).map(|ord| op.matches(ord)).unwrap_or(false)
            }
            Predicate::Between(col, lo, hi) => {
                let v = resolver.resolve(col)?;
                let ge_lo = v.compare(lo).map(|o| CmpOp::Ge.matches(o)).unwrap_or(false);
                let le_hi = v.compare(hi).map(|o| CmpOp::Le.matches(o)).unwrap_or(false);
                ge_lo && le_hi
            }
            Predicate::InList(col, vals) => {
                let v = resolver.resolve(col)?;
                vals.iter().any(|lit| v.sql_eq(lit))
            }
            Predicate::Not(inner) => !inner.eval(resolver)?,
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval(resolver)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval(resolver)? {
                        return Ok(true);
                    }
                }
                false
            }
        })
    }

    /// The set of column references mentioned anywhere in the predicate.
    ///
    /// HYPRE's mixed-clause combination semantics (§4.6) group preferences
    /// by the attribute they constrain; this is the accessor it uses.
    pub fn attributes(&self) -> BTreeSet<ColRef> {
        let mut out = BTreeSet::new();
        self.collect_attributes(&mut out);
        out
    }

    fn collect_attributes(&self, out: &mut BTreeSet<ColRef>) {
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Cmp(c, _, _) | Predicate::Between(c, _, _) | Predicate::InList(c, _) => {
                out.insert(c.clone());
            }
            Predicate::Not(p) => p.collect_attributes(out),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_attributes(out);
                }
            }
        }
    }

    /// The set of table names mentioned by qualified column references.
    pub fn tables(&self) -> BTreeSet<String> {
        self.attributes()
            .into_iter()
            .filter_map(|c| c.table)
            .collect()
    }

    /// Splits a top-level conjunction into its conjuncts (a non-`And`
    /// predicate is its own single conjunct).
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        match self {
            Predicate::And(ps) => ps.iter().collect(),
            p => vec![p],
        }
    }

    /// A canonical rendering used for node deduplication in the HYPRE graph
    /// (the dissertation deduplicates nodes by `(uid, predicate)` string
    /// equality): the [`Predicate::write_canonical`] text, which is also
    /// the `Display` form.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    /// Number of atomic comparisons in the predicate — a cheap complexity
    /// measure used by tests and benches.
    pub fn atom_count(&self) -> usize {
        match self {
            Predicate::True | Predicate::False => 0,
            Predicate::Cmp(..) | Predicate::Between(..) | Predicate::InList(..) => 1,
            Predicate::Not(p) => p.atom_count(),
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().map(Predicate::atom_count).sum(),
        }
    }

    /// Appends the canonical text to `out`: the one renderer behind
    /// [`Predicate::canonical`] and `Display`, so the canonicalisation
    /// policy has one home. `And` operands that are `Or`s are
    /// parenthesised, `NOT` wraps a non-atomic operand in parentheses,
    /// and literals are [`Value::write_literal`]'s. It allocates nothing
    /// beyond growing `out`, so a caller that renders many predicates can
    /// reuse one buffer.
    pub fn write_canonical(&self, out: &mut String) {
        match self {
            Predicate::True => out.push_str("TRUE"),
            Predicate::False => out.push_str("FALSE"),
            Predicate::Cmp(c, op, v) => {
                write_col(c, out);
                out.push_str(op.symbol());
                v.write_literal(out);
            }
            Predicate::Between(c, lo, hi) => {
                write_col(c, out);
                out.push_str(" BETWEEN ");
                lo.write_literal(out);
                out.push_str(" AND ");
                hi.write_literal(out);
            }
            Predicate::InList(c, vals) => {
                write_col(c, out);
                out.push_str(" IN (");
                for (i, v) in vals.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write_literal(out);
                }
                out.push(')');
            }
            Predicate::Not(inner) => match inner.as_ref() {
                Predicate::Cmp(..) | Predicate::Between(..) | Predicate::InList(..) => {
                    out.push_str("NOT ");
                    inner.write_canonical(out);
                }
                _ => {
                    out.push_str("NOT (");
                    inner.write_canonical(out);
                    out.push(')');
                }
            },
            Predicate::And(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" AND ");
                    }
                    if matches!(p, Predicate::Or(_)) {
                        out.push('(');
                        p.write_canonical(out);
                        out.push(')');
                    } else {
                        p.write_canonical(out);
                    }
                }
            }
            Predicate::Or(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" OR ");
                    }
                    p.write_canonical(out);
                }
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// Appends `table.column` or `column`.
fn write_col(c: &ColRef, out: &mut String) {
    if let Some(t) = &c.table {
        out.push_str(t);
        out.push('.');
    }
    out.push_str(&c.column);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RelError;
    use std::collections::HashMap;

    struct MapResolver(HashMap<ColRef, Value>);

    impl ColumnResolver for MapResolver {
        fn resolve(&self, col: &ColRef) -> Result<&Value> {
            self.0.get(col).ok_or_else(|| RelError::UnknownColumn {
                table: col.table.clone(),
                column: col.column.clone(),
            })
        }
    }

    fn row(pairs: &[(&str, Value)]) -> MapResolver {
        MapResolver(
            pairs
                .iter()
                .map(|(k, v)| (ColRef::parse(k), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn comparison_evaluation() {
        let r = row(&[
            ("dblp.year", Value::Int(2009)),
            ("dblp.venue", "PVLDB".into()),
        ]);
        let p = Predicate::cmp(ColRef::parse("dblp.year"), CmpOp::Ge, 2009);
        assert!(p.eval(&r).unwrap());
        let p = Predicate::cmp(ColRef::parse("dblp.year"), CmpOp::Gt, 2009);
        assert!(!p.eval(&r).unwrap());
        let p = Predicate::eq(ColRef::parse("dblp.venue"), "PVLDB");
        assert!(p.eval(&r).unwrap());
    }

    #[test]
    fn between_is_inclusive() {
        let r = row(&[("year", Value::Int(2005))]);
        for (lo, hi, expect) in [(2000, 2005, true), (2005, 2009, true), (2006, 2009, false)] {
            let p = Predicate::between(ColRef::bare("year"), lo, hi);
            assert_eq!(p.eval(&r).unwrap(), expect, "between {lo} and {hi}");
        }
    }

    #[test]
    fn in_list_matches_any() {
        let r = row(&[("make", "Honda".into())]);
        let p = Predicate::in_list(ColRef::bare("make"), ["BMW", "Honda"]);
        assert!(p.eval(&r).unwrap());
        let p = Predicate::in_list(ColRef::bare("make"), ["BMW", "VW"]);
        assert!(!p.eval(&r).unwrap());
    }

    #[test]
    fn null_never_matches() {
        let r = row(&[("venue", Value::Null)]);
        assert!(!Predicate::eq(ColRef::bare("venue"), "VLDB")
            .eval(&r)
            .unwrap());
        assert!(!Predicate::cmp(ColRef::bare("venue"), CmpOp::Ne, "VLDB")
            .eval(&r)
            .unwrap());
        assert!(!Predicate::between(ColRef::bare("venue"), 1, 2)
            .eval(&r)
            .unwrap());
        assert!(!Predicate::in_list(ColRef::bare("venue"), ["VLDB"])
            .eval(&r)
            .unwrap());
    }

    #[test]
    fn and_or_not_logic() {
        let r = row(&[("a", Value::Int(1)), ("b", Value::Int(2))]);
        let a1 = Predicate::eq(ColRef::bare("a"), 1);
        let b3 = Predicate::eq(ColRef::bare("b"), 3);
        assert!(!a1.clone().and(b3.clone()).eval(&r).unwrap());
        assert!(a1.clone().or(b3.clone()).eval(&r).unwrap());
        assert!(b3.clone().not().eval(&r).unwrap());
        assert!(!a1.not().eval(&r).unwrap());
    }

    #[test]
    fn builders_flatten_and_absorb() {
        let a = Predicate::eq(ColRef::bare("x"), 1);
        let b = Predicate::eq(ColRef::bare("y"), 2);
        let c = Predicate::eq(ColRef::bare("z"), 3);
        let p = a.clone().and(b.clone()).and(c.clone());
        assert!(matches!(&p, Predicate::And(v) if v.len() == 3));
        let q = a.clone().or(b.clone()).or(c.clone());
        assert!(matches!(&q, Predicate::Or(v) if v.len() == 3));
        assert_eq!(a.clone().and(Predicate::True), a);
        assert_eq!(a.clone().and(Predicate::False), Predicate::False);
        assert_eq!(a.clone().or(Predicate::False), a);
        assert_eq!(a.clone().or(Predicate::True), Predicate::True);
        assert_eq!(a.clone().not().not(), a);
    }

    #[test]
    fn attribute_extraction() {
        let p = Predicate::eq(ColRef::parse("dblp.venue"), "VLDB")
            .and(Predicate::cmp(ColRef::parse("dblp.year"), CmpOp::Ge, 2010))
            .or(Predicate::eq(ColRef::parse("dblp_author.aid"), 128));
        let attrs = p.attributes();
        assert_eq!(attrs.len(), 3);
        assert!(attrs.contains(&ColRef::parse("dblp.venue")));
        assert_eq!(
            p.tables(),
            ["dblp", "dblp_author"]
                .into_iter()
                .map(String::from)
                .collect()
        );
    }

    #[test]
    fn display_renders_sql() {
        let p = Predicate::eq(ColRef::parse("dblp.venue"), "VLDB").and(Predicate::cmp(
            ColRef::parse("dblp.year"),
            CmpOp::Lt,
            2010,
        ));
        assert_eq!(p.to_string(), "dblp.venue='VLDB' AND dblp.year<2010");
        let q = Predicate::eq(ColRef::parse("a.x"), 1).or(Predicate::eq(ColRef::parse("a.y"), 2));
        let both = Predicate::eq(ColRef::parse("b.z"), 3).and(q);
        assert_eq!(both.to_string(), "b.z=3 AND (a.x=1 OR a.y=2)");
        let n = Predicate::eq(ColRef::parse("v"), "X").not();
        assert_eq!(n.to_string(), "NOT v='X'");
    }

    #[test]
    fn conjuncts_split() {
        let a = Predicate::eq(ColRef::bare("x"), 1);
        let b = Predicate::eq(ColRef::bare("y"), 2);
        let p = a.clone().and(b.clone());
        assert_eq!(p.conjuncts().len(), 2);
        assert_eq!(a.conjuncts().len(), 1);
    }

    #[test]
    fn atom_count_counts_leaves() {
        let p = Predicate::eq(ColRef::bare("x"), 1)
            .and(Predicate::between(ColRef::bare("y"), 1, 2))
            .or(Predicate::in_list(ColRef::bare("z"), [1, 2, 3]).not());
        assert_eq!(p.atom_count(), 3);
        assert_eq!(Predicate::True.atom_count(), 0);
    }

    #[test]
    fn all_any_fold() {
        let ps = vec![
            Predicate::eq(ColRef::bare("x"), 1),
            Predicate::eq(ColRef::bare("y"), 2),
        ];
        assert!(matches!(Predicate::all(ps.clone()), Predicate::And(v) if v.len() == 2));
        assert!(matches!(Predicate::any(ps), Predicate::Or(v) if v.len() == 2));
        assert_eq!(Predicate::all(vec![]), Predicate::True);
        assert_eq!(Predicate::any(vec![]), Predicate::False);
    }

    #[test]
    fn unknown_column_is_an_error_not_false() {
        let r = row(&[("a", Value::Int(1))]);
        let p = Predicate::eq(ColRef::bare("missing"), 1);
        assert!(p.eval(&r).is_err());
    }
}
