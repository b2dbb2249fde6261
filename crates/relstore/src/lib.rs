//! # relstore — an embedded in-memory relational engine
//!
//! `relstore` is the relational substrate of the HYPRE reproduction: it
//! plays the role MySQL plays in the dissertation. It provides
//!
//! * typed tables ([`Table`], [`Schema`], [`Value`]),
//! * SQL-style predicates ([`Predicate`]) with a text parser
//!   ([`parse_predicate`]) matching the predicate strings HYPRE stores in
//!   its preference graph (`dblp.venue='VLDB' AND dblp.year>=2010`),
//! * hash and BTree secondary indexes ([`IndexKind`]),
//! * a query executor ([`SelectQuery`]) covering the dissertation's query
//!   class: single-table selects and inner equi-joined multi-table selects
//!   with `COUNT(DISTINCT …)` aggregation.
//!
//! ## Example
//!
//! ```
//! use relstore::{Database, Schema, DataType, SelectQuery, ColRef, parse_predicate};
//!
//! let mut db = Database::new();
//! let papers = db.create_table("dblp", Schema::of(&[
//!     ("pid", DataType::Int),
//!     ("venue", DataType::Str),
//!     ("year", DataType::Int),
//! ])).unwrap();
//! papers.insert(vec![1.into(), "VLDB".into(), 2006.into()]).unwrap();
//! papers.insert(vec![2.into(), "PVLDB".into(), 2010.into()]).unwrap();
//!
//! let q = SelectQuery::from("dblp")
//!     .filter(parse_predicate("dblp.year>=2009").unwrap());
//! assert_eq!(q.count_distinct(&db, &ColRef::parse("dblp.pid")).unwrap(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod database;
pub mod error;
pub mod fault;
pub mod index;
pub mod parser;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod table;
pub mod value;

pub use database::Database;
pub use error::{RelError, Result};
pub use fault::{FailSchedule, FailingDriver};
pub use index::{Index, IndexKind};
pub use parser::parse_predicate;
pub use predicate::{CmpOp, ColRef, ColumnResolver, Predicate};
pub use query::{JoinCond, SelectQuery};
pub use schema::{Column, Schema};
pub use table::{RowId, StrDict, Table};
pub use value::{DataType, Value};
