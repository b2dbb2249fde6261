//! Error type for the HYPRE core library.

use std::fmt;

use graphstore::GraphError;
use relstore::RelError;

/// Errors produced by HYPRE graph maintenance, preference combination and
/// query enhancement.
#[derive(Debug, Clone, PartialEq)]
pub enum HypreError {
    /// A quantitative intensity outside `[-1, 1]` or NaN.
    IntensityOutOfRange(f64),
    /// A qualitative intensity outside `[0, 1]` or NaN (signed inputs are
    /// normalised first via Proposition 7; this fires past that range).
    QualIntensityOutOfRange(f64),
    /// The two sides of a qualitative preference are the same predicate.
    SelfPreference(String),
    /// The referenced user has no preferences in the graph.
    UnknownUser(u64),
    /// An underlying relational-engine error.
    Rel(RelError),
    /// An underlying graph-engine error.
    Graph(GraphError),
    /// Top-K was asked for `k = 0`.
    ZeroK,
    /// A `ProfileCache` snapshot no longer matches the corpus it was
    /// warmed on: the named table's row count moved (or the table itself
    /// appeared/disappeared), or — with equal counts — the keys of the
    /// driving table's first `warmed` rows differ from warm time (rows
    /// rewritten or permuted). Re-warm, or ingest the delta with
    /// [`ProfileCache::ingest_delta`](crate::exec::ProfileCache::ingest_delta).
    StaleSnapshot {
        /// The table whose shape diverged.
        table: String,
        /// Row count recorded at warm time (`None` = table was absent).
        warmed: Option<usize>,
        /// Row count observed now (`None` = table is absent).
        current: Option<usize>,
    },
    /// A base query whose key column, or a join's driver-side column, is
    /// not on the driving table, or whose key is `NULL` or repeated on it
    /// — the one shape the executor and delta ingest support (a tuple id
    /// is a driver row, so the key must name rows).
    UnsupportedBaseQuery {
        /// The offending column and the driving table.
        detail: String,
    },
    /// The dense `u32` tuple-id space is exhausted — the driving table
    /// grew past `u32::MAX + 1` rows. Ingest degrades into this error
    /// instead of aborting the process.
    IdSpaceExhausted,
    /// A warm-up or delta-ingest attempt failed even after the bounded
    /// retry budget; carries the attempt count and the last error.
    WarmUpFailed {
        /// Total attempts made (initial try + retries).
        attempts: usize,
        /// The error from the final attempt.
        last: Box<HypreError>,
    },
    /// An I/O failure while writing or reading a profile snapshot file.
    /// Carries the rendered `std::io::Error` (the error type itself is
    /// neither `Clone` nor `PartialEq`).
    SnapshotIo {
        /// Human-readable operation + OS error detail.
        detail: String,
    },
    /// A snapshot file with a valid magic number but a format version this
    /// build does not speak.
    SnapshotVersion {
        /// Version recorded in the file.
        found: u32,
        /// Highest version this build can load.
        supported: u32,
    },
    /// A snapshot file that is truncated, has a bad magic number, or fails
    /// structural validation (counts past end-of-file, non-canonical
    /// containers, dangling references).
    SnapshotCorrupt {
        /// What failed to parse, and where.
        detail: String,
    },
    /// A preference-DSL lex, parse or compile failure.
    Dsl(crate::dsl::DslError),
}

impl fmt::Display for HypreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HypreError::IntensityOutOfRange(v) => {
                write!(f, "intensity {v} outside [-1, 1]")
            }
            HypreError::QualIntensityOutOfRange(v) => {
                write!(f, "qualitative intensity {v} outside [0, 1]")
            }
            HypreError::SelfPreference(p) => {
                write!(
                    f,
                    "qualitative preference relates predicate '{p}' to itself"
                )
            }
            HypreError::UnknownUser(uid) => write!(f, "no preferences stored for user {uid}"),
            HypreError::Rel(e) => write!(f, "relational engine: {e}"),
            HypreError::Graph(e) => write!(f, "graph engine: {e}"),
            HypreError::ZeroK => write!(f, "top-k requires k >= 1"),
            HypreError::StaleSnapshot {
                table,
                warmed,
                current,
            } if warmed == current => {
                let rows = warmed.map_or(0, |n| n);
                write!(
                    f,
                    "profile snapshot warmed on a different corpus: the keys of \
                     table '{table}''s first {rows} rows changed since warm time"
                )
            }
            HypreError::StaleSnapshot {
                table,
                warmed,
                current,
            } => {
                let show = |n: &Option<usize>| match n {
                    Some(n) => n.to_string(),
                    None => "absent".to_string(),
                };
                write!(
                    f,
                    "profile snapshot warmed on a different corpus: table '{table}' \
                     had {} rows at warm time but {} now",
                    show(warmed),
                    show(current)
                )
            }
            HypreError::UnsupportedBaseQuery { detail } => {
                write!(f, "unsupported base query: {detail}")
            }
            HypreError::IdSpaceExhausted => {
                write!(
                    f,
                    "tuple id space exhausted: the driving table has more than u32::MAX + 1 rows"
                )
            }
            HypreError::WarmUpFailed { attempts, last } => {
                write!(f, "warm-up failed after {attempts} attempt(s): {last}")
            }
            HypreError::SnapshotIo { detail } => {
                write!(f, "snapshot i/o: {detail}")
            }
            HypreError::SnapshotVersion { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} not supported (this build reads <= {supported})"
                )
            }
            HypreError::SnapshotCorrupt { detail } => {
                write!(f, "snapshot corrupt: {detail}")
            }
            HypreError::Dsl(e) => write!(f, "preference DSL: {e}"),
        }
    }
}

impl std::error::Error for HypreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HypreError::Rel(e) => Some(e),
            HypreError::Graph(e) => Some(e),
            HypreError::WarmUpFailed { last, .. } => Some(last.as_ref()),
            HypreError::Dsl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelError> for HypreError {
    fn from(e: RelError) -> Self {
        HypreError::Rel(e)
    }
}

impl From<GraphError> for HypreError {
    fn from(e: GraphError) -> Self {
        HypreError::Graph(e)
    }
}

impl From<crate::dsl::DslError> for HypreError {
    fn from(e: crate::dsl::DslError) -> Self {
        HypreError::Dsl(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, HypreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: HypreError = RelError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("relational"));
        let e: HypreError = GraphError::NodeNotFound(3).into();
        assert!(e.to_string().contains("graph"));
        assert!(HypreError::IntensityOutOfRange(1.5)
            .to_string()
            .contains("1.5"));
    }

    #[test]
    fn live_corpus_variants_render_their_detail() {
        let e = HypreError::StaleSnapshot {
            table: "dblp".into(),
            warmed: Some(100),
            current: Some(105),
        };
        assert!(e.to_string().contains("different corpus"));
        assert!(e.to_string().contains("dblp"));
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("105"));
        let gone = HypreError::StaleSnapshot {
            table: "dblp".into(),
            warmed: Some(100),
            current: None,
        };
        assert!(gone.to_string().contains("absent"));
        let rekeyed = HypreError::StaleSnapshot {
            table: "dblp".into(),
            warmed: Some(100),
            current: Some(100),
        };
        assert!(rekeyed
            .to_string()
            .contains("keys of table 'dblp''s first 100 rows"));
        assert!(HypreError::IdSpaceExhausted.to_string().contains("u32"));
        let wrapped = HypreError::WarmUpFailed {
            attempts: 3,
            last: Box::new(HypreError::ZeroK),
        };
        assert!(wrapped.to_string().contains("3 attempt"));
        use std::error::Error;
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn snapshot_variants_render_their_detail() {
        let e = HypreError::SnapshotIo {
            detail: "open /tmp/x: permission denied".into(),
        };
        assert!(e.to_string().contains("permission denied"));
        let e = HypreError::SnapshotVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains("<= 1"));
        let e = HypreError::SnapshotCorrupt {
            detail: "tuple-set table truncated at entry 12".into(),
        };
        assert!(e.to_string().contains("truncated at entry 12"));
    }
}
