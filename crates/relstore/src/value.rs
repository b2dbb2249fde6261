//! Typed scalar values stored in relation cells and used in predicate literals.
//!
//! `relstore` supports three concrete types — 64-bit integers, 64-bit floats
//! and UTF-8 strings — plus SQL-style `NULL`. The HYPRE workload (DBLP
//! relations, preference predicates) only needs these. Values implement a
//! *total* order and a hash consistent with equality so they can serve as
//! hash-join and `COUNT(DISTINCT …)` keys.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};

/// The declared type of a column. `NULL` is permitted in any column and has
/// no `DataType` of its own, matching SQL semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "TEXT"),
        }
    }
}

/// A dynamically typed scalar cell value.
///
/// Equality is *strict* (an `Int(1)` is not equal to a `Float(1.0)`); the
/// comparison operators used during predicate evaluation perform numeric
/// coercion separately (see [`Value::compare`]). This keeps `Eq`/`Hash`
/// consistent so values can be used as `HashMap` keys.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL; compares less than every non-null value in the total order,
    /// but never matches a comparison predicate (three-valued logic collapses
    /// `UNKNOWN` to `false`).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is tolerated and ordered via `f64::total_cmp`.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// A convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Returns the concrete type of the value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Whether this value is SQL `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value can be stored in a column of type `dtype`.
    ///
    /// `Null` is storable anywhere; an `Int` may be stored in a `Float`
    /// column (it is widened on insert by [`Value::coerce_to`]).
    pub fn is_assignable_to(&self, dtype: DataType) -> bool {
        matches!(
            (self, dtype),
            (Value::Null, _)
                | (Value::Int(_), DataType::Int)
                | (Value::Int(_), DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Str(_), DataType::Str)
        )
    }

    /// Widens the value to the given column type where lossless (`Int` →
    /// `Float`); returns the value unchanged otherwise.
    pub fn coerce_to(self, dtype: DataType) -> Value {
        match (self, dtype) {
            (Value::Int(i), DataType::Float) => Value::Float(i as f64),
            (v, _) => v,
        }
    }

    /// Numeric view of the value, coercing `Int` to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// SQL-style comparison used by predicate evaluation.
    ///
    /// Returns `None` when either side is `NULL` (three-valued logic:
    /// comparisons against `NULL` are unknown) or when the operands are of
    /// incomparable types (e.g. a string against a number). Numeric operands
    /// of mixed `Int`/`Float` type are compared as `f64`.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Some(x.total_cmp(&y)),
                _ => None,
            },
        }
    }

    /// SQL-style equality used by predicate evaluation: numeric coercion
    /// applies, `NULL` never equals anything (including `NULL`).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }

    /// Renders the value as a predicate literal (strings single-quoted with
    /// embedded quotes doubled, SQL style), through
    /// [`Value::write_literal`].
    pub fn to_literal(&self) -> String {
        let mut out = String::new();
        self.write_literal(&mut out);
        out
    }

    /// Appends the value's predicate literal to `out`: `NULL`, an integer
    /// in decimal, a float as Rust prints it (an integral finite float
    /// keeps a trailing `.0` so the literal round-trips as a float), or a
    /// single-quoted string with embedded quotes doubled. Integers and
    /// strings are written by hand; only floats go through `fmt`, straight
    /// into `out`. Every literal rendering goes through here.
    pub fn write_literal(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("NULL"),
            Value::Int(i) => write_int(*i, out),
            Value::Float(f) => {
                // Writing into a `String` cannot fail.
                let _ = if f.fract() == 0.0 && f.is_finite() {
                    write!(out, "{f:.1}")
                } else {
                    write!(out, "{f}")
                };
            }
            Value::Str(s) => {
                out.push('\'');
                for (i, part) in s.split('\'').enumerate() {
                    if i > 0 {
                        out.push_str("''");
                    }
                    out.push_str(part);
                }
                out.push('\'');
            }
        }
    }
}

/// Appends `i` in decimal: digits are produced least significant first
/// into a stack buffer wide enough for `u64::MAX` (20 digits), so
/// `i64::MIN` needs no special case.
fn write_int(i: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut n = i.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order for sorting and BTree indexes: `Null` sorts first, then
/// numbers, then strings. Two `Int`s compare as `i64`; otherwise numbers
/// interleave by `f64` value, `Int` before a `Float` of the same value.
/// The numbers are thus ordered by the key (`f64` value, `Int` before
/// `Float`, `i64`), so `INT`s above 2^53 that round to one `f64` still
/// compare unequal, as `==` says they are.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => {}
            ord => return ord,
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (a, b) => {
                let (x, y) = (a.as_f64().unwrap_or(0.0), b.as_f64().unwrap_or(0.0));
                x.total_cmp(&y).then_with(|| {
                    // Int sorts before Float of equal numeric value.
                    let tag = |v: &Value| matches!(v, Value::Float(_)) as u8;
                    tag(a).cmp(&tag(b))
                })
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn strict_equality_separates_int_and_float() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_eq!(Value::Int(1), Value::Int(1));
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
    }

    #[test]
    fn sql_comparison_coerces_numerics() {
        assert!(Value::Int(1).sql_eq(&Value::Float(1.0)));
        assert_eq!(
            Value::Int(2).compare(&Value::Float(1.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Float(0.5).compare(&Value::Int(1)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn string_number_comparison_is_unknown() {
        assert_eq!(Value::str("a").compare(&Value::Int(1)), None);
    }

    #[test]
    fn hash_is_consistent_with_eq() {
        let a = Value::str("VLDB");
        let b = Value::str("VLDB");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn total_order_ranks_null_numbers_strings() {
        let mut vals = vec![
            Value::str("a"),
            Value::Int(5),
            Value::Null,
            Value::Float(2.5),
            Value::Int(-3),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Int(-3),
                Value::Float(2.5),
                Value::Int(5),
                Value::str("a"),
            ]
        );
    }

    #[test]
    fn int_sorts_before_equal_float() {
        let mut vals = vec![Value::Float(3.0), Value::Int(3)];
        vals.sort();
        assert_eq!(vals, vec![Value::Int(3), Value::Float(3.0)]);
    }

    #[test]
    fn ints_past_f64_precision_order_as_i64() {
        let (a, b) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(b.cmp(&a), Ordering::Greater);
        assert_eq!(
            Value::Int(i64::MAX).cmp(&Value::Int(i64::MAX - 1)),
            Ordering::Greater
        );
        // Both round to 2^53 as f64: an Int still sorts before the Float,
        // so the order stays total.
        let f = Value::Float((1u64 << 53) as f64);
        assert_eq!(a.cmp(&f), Ordering::Less);
        assert_eq!(b.cmp(&f), Ordering::Less);
        assert_eq!(Value::Int((1 << 53) + 2).cmp(&f), Ordering::Greater);
    }

    #[test]
    fn literals_round_trip_quoting() {
        assert_eq!(Value::str("O'Hara").to_literal(), "'O''Hara'");
        assert_eq!(Value::Int(42).to_literal(), "42");
        assert_eq!(Value::Float(2.0).to_literal(), "2.0");
        assert_eq!(Value::Null.to_literal(), "NULL");
        assert_eq!(Value::Int(i64::MIN).to_literal(), i64::MIN.to_string());
        assert_eq!(Value::Int(i64::MAX).to_literal(), i64::MAX.to_string());
        assert_eq!(Value::Int(-7).to_literal(), "-7");
        assert_eq!(Value::Int(0).to_literal(), "0");
        assert_eq!(Value::str("''").to_literal(), "''''''");
    }

    #[test]
    fn assignability_and_coercion() {
        assert!(Value::Int(1).is_assignable_to(DataType::Float));
        assert!(!Value::Str("x".into()).is_assignable_to(DataType::Int));
        assert!(Value::Null.is_assignable_to(DataType::Str));
        assert_eq!(Value::Int(2).coerce_to(DataType::Float), Value::Float(2.0));
        assert_eq!(Value::str("s").coerce_to(DataType::Float), Value::str("s"));
    }

    #[test]
    fn nan_is_ordered_and_hashable() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
        // total_cmp puts NaN above +inf
        assert_eq!(nan.cmp(&Value::Float(f64::INFINITY)), Ordering::Greater);
    }
}
