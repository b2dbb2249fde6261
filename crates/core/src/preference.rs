//! Preference types: the user-facing inputs to the HYPRE graph.

use std::fmt;

use relstore::Predicate;

use crate::error::{HypreError, Result};
use crate::intensity::{Intensity, QualIntensity};

/// A user identifier. The DBLP workload identifies users with author ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u64);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid={}", self.0)
    }
}

/// Where a stored intensity value came from — Algorithm 7's conflict check
/// distinguishes user-provided values from ones the system derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Supplied by the user with the preference.
    UserProvided,
    /// Derived via Eq. 4.1/4.2 from a qualitative edge.
    SystemComputed,
    /// Seeded by a [`crate::intensity::DefaultValueStrategy`].
    DefaultSeed,
}

impl Provenance {
    /// The `provenance` property value in the property-graph export.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Provenance::UserProvided => "user",
            Provenance::SystemComputed => "computed",
            Provenance::DefaultSeed => "default",
        }
    }
}

/// A quantitative preference: "this predicate's tuples score `intensity`"
/// (Definition 1). Rendered in the HYPRE graph as a node whose
/// self-referential intensity is the score.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantitativePref {
    /// The owning user.
    pub user: UserId,
    /// The tuples the preference applies to.
    pub predicate: Predicate,
    /// The score in `[-1, 1]`.
    pub intensity: Intensity,
}

impl QuantitativePref {
    /// Creates a quantitative preference.
    pub fn new(user: UserId, predicate: Predicate, intensity: Intensity) -> Self {
        QuantitativePref {
            user,
            predicate,
            intensity,
        }
    }
}

impl fmt::Display for QuantitativePref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] ({}, {})",
            self.user, self.predicate, self.intensity
        )
    }
}

/// A qualitative preference: "left's tuples are preferred over right's,
/// with strength `intensity`" (Definition 4 extended with intensity).
#[derive(Debug, Clone, PartialEq)]
pub struct QualitativePref {
    /// The owning user.
    pub user: UserId,
    /// The preferred side.
    pub left: Predicate,
    /// The less-preferred side.
    pub right: Predicate,
    /// Edge strength in `[0, 1]`; `0` means equally preferred.
    pub intensity: QualIntensity,
}

impl QualitativePref {
    /// Creates a qualitative preference with a non-negative strength.
    ///
    /// # Errors
    /// [`HypreError::SelfPreference`] when both sides are the same
    /// predicate — a preference graph edge must connect two *different*
    /// nodes (Definition 14 reserves self-edges for quantitative scores).
    pub fn new(
        user: UserId,
        left: Predicate,
        right: Predicate,
        intensity: QualIntensity,
    ) -> Result<Self> {
        if left.canonical() == right.canonical() {
            return Err(HypreError::SelfPreference(left.canonical()));
        }
        Ok(QualitativePref {
            user,
            left,
            right,
            intensity,
        })
    }

    /// Creates a qualitative preference from a *signed* strength, applying
    /// Proposition 7: a negative strength means the opposite direction, so
    /// the sides are swapped and the absolute value used.
    ///
    /// The DBLP extraction pipeline produces signed differences of
    /// quantitative intensities (§6.2.2); this constructor is its entry
    /// point.
    ///
    /// # Errors
    /// [`HypreError::SelfPreference`] as for [`QualitativePref::new`];
    /// [`HypreError::QualIntensityOutOfRange`] if `|signed| > 1` or NaN.
    pub fn from_signed(
        user: UserId,
        left: Predicate,
        right: Predicate,
        signed: f64,
    ) -> Result<Self> {
        if signed.is_nan() {
            return Err(HypreError::QualIntensityOutOfRange(signed));
        }
        if signed < 0.0 {
            QualitativePref::new(user, right, left, QualIntensity::new(-signed)?)
        } else {
            QualitativePref::new(user, left, right, QualIntensity::new(signed)?)
        }
    }

    /// The reversed preference ("B preferred over A"), carrying the same
    /// strength — the positive-value twin of Proposition 7.
    pub fn reversed(&self) -> QualitativePref {
        QualitativePref {
            user: self.user,
            left: self.right.clone(),
            right: self.left.clone(),
            intensity: self.intensity,
        }
    }
}

impl fmt::Display for QualitativePref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] ({}) ≻ ({}) @ {}",
            self.user, self.left, self.right, self.intensity
        )
    }
}

/// Either preference kind — convenient for mixed ingestion pipelines.
#[derive(Debug, Clone, PartialEq)]
pub enum Preference {
    /// A scored preference.
    Quantitative(QuantitativePref),
    /// A comparative preference.
    Qualitative(QualitativePref),
}

impl Preference {
    /// The owning user.
    pub fn user(&self) -> UserId {
        match self {
            Preference::Quantitative(p) => p.user,
            Preference::Qualitative(p) => p.user,
        }
    }
}

impl From<QuantitativePref> for Preference {
    fn from(p: QuantitativePref) -> Self {
        Preference::Quantitative(p)
    }
}

impl From<QualitativePref> for Preference {
    fn from(p: QualitativePref) -> Self {
        Preference::Qualitative(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::parse_predicate;

    fn pred(s: &str) -> Predicate {
        parse_predicate(s).unwrap()
    }

    #[test]
    fn quantitative_display() {
        let p = QuantitativePref::new(
            UserId(2),
            pred("dblp.venue='PODS'"),
            Intensity::new(0.14).unwrap(),
        );
        let s = p.to_string();
        assert!(s.contains("uid=2") && s.contains("PODS"));
    }

    #[test]
    fn self_preference_rejected() {
        let e = QualitativePref::new(
            UserId(1),
            pred("a=1"),
            pred("a=1"),
            QualIntensity::new(0.5).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(e, HypreError::SelfPreference(_)));
    }

    #[test]
    fn proposition7_signed_normalisation() {
        // negative strength flips direction
        let p = QualitativePref::from_signed(UserId(1), pred("a=1"), pred("b=2"), -0.3).unwrap();
        assert_eq!(p.left, pred("b=2"));
        assert_eq!(p.right, pred("a=1"));
        assert!((p.intensity.value() - 0.3).abs() < 1e-12);
        // positive strength keeps direction
        let p = QualitativePref::from_signed(UserId(1), pred("a=1"), pred("b=2"), 0.3).unwrap();
        assert_eq!(p.left, pred("a=1"));
        // reversal round-trips
        let r = p.reversed();
        assert_eq!(r.left, pred("b=2"));
        assert_eq!(r.reversed(), p);
    }

    #[test]
    fn signed_out_of_range_rejected() {
        assert!(QualitativePref::from_signed(UserId(1), pred("a=1"), pred("b=2"), 1.5).is_err());
        assert!(
            QualitativePref::from_signed(UserId(1), pred("a=1"), pred("b=2"), f64::NAN).is_err()
        );
    }

    #[test]
    fn preference_enum_dispatch() {
        let q: Preference =
            QuantitativePref::new(UserId(7), pred("a=1"), Intensity::new(0.1).unwrap()).into();
        assert_eq!(q.user(), UserId(7));
        let ql: Preference =
            QualitativePref::new(UserId(8), pred("a=1"), pred("b=2"), QualIntensity::ZERO)
                .unwrap()
                .into();
        assert_eq!(ql.user(), UserId(8));
    }
}
