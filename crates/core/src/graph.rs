//! The HYPRE graph: the unified preference store (Definition 14) and its
//! maintenance algorithms.
//!
//! Every node is a `(user, predicate, intensity?)` triple. A quantitative
//! preference is a node with an intensity; a qualitative preference is a
//! directed edge `left → right` whose strength is its intensity. Edges are
//! of one of three kinds:
//!
//! * `PREFERS` — a live qualitative preference, traversed by ranking;
//! * `CYCLE`   — the edge would have closed a cycle in the PREFERS
//!   subgraph (conflicting behaviour, §6.2.3) and is kept but inert;
//! * `DISCARD` — the edge contradicts the endpoints' intensities
//!   (`intensity(left) < intensity(right)`) and neither endpoint could be
//!   recomputed without propagating the conflict.
//!
//! ## Layout
//!
//! The store is typed columns, keyed for deduplication:
//!
//! * each distinct canonical text is interned once for the whole graph:
//!   predicate id `p` holds a [`Predicate`] and its canonical text, and a
//!   `canonical text → p` table finds it;
//! * node `i` holds its uid, its predicate id,
//!   `Option<(intensity, Provenance)>`, and the first and last of its
//!   outgoing and of its incoming edges;
//! * edge `j` holds its endpoints, its [`EdgeKind`], its strength, and
//!   the next edge out of its source and into its target, so each
//!   adjacency list is threaded through the edges in insertion order and
//!   a node allocates nothing for it;
//! * each user maps to its nodes in creation order and to a
//!   `predicate id → node` table — the `createOrReturnNodeId` lookup the
//!   dissertation serves from the Neo4j `uidIndex` plus a predicate
//!   filter (§4.3).
//!
//! Node identity is `(user, canonical text)`. The `Predicate` a node
//! reads back is the first one inserted with its canonical text
//! *anywhere in the graph*, possibly by another user and possibly of
//! another shape: `And([And([a, b]), c])` and `And([a, b, c])` render the
//! same text and share one entry. That cannot change an answer: trees
//! with one text select the same tuples (the text parses back to one
//! predicate), and [`ProfileCache`](crate::exec::ProfileCache) and the
//! scheduler resolve an atom by its canonical text, never by its tree
//! shape.
//!
//! Reads ([`HypreGraph::node_intensity`], [`HypreGraph::profile`],
//! [`HypreGraph::positive_profile`], [`HypreGraph::users`]) look up no
//! string-keyed property and parse nothing: a profile clones the interned
//! `Predicate`s. Each insert renders a predicate's canonical text into a
//! buffer the graph reuses and allocates its text only the first time
//! the graph sees it; the per-user predicate-id tables hash with one
//! multiply per key. The PREFERS cycle guard walks the typed adjacency with
//! reusable scratch, so it allocates nothing per insert either.
//!
//! ## Property-graph export
//!
//! [`HypreGraph::to_property_graph`] renders the store as the Neo4j-style
//! [`PropertyGraph`] of §4.3, for [`graphstore::NodeQuery`] and
//! [`graphstore::traverse`]. Its contract:
//!
//! * node `i` is `NodeId(i)`, labelled [`NODE_LABEL`] (`uidIndex`), with
//!   an index on `(uidIndex, uid)`. Its properties are `uid` (`Int`),
//!   `predicate` (the canonical text) and, once scored, `intensity`
//!   (`Float`) and `provenance` (`"user"`, `"computed"` or `"default"`);
//! * edge `j` is `EdgeId(j)`, labelled `PREFERS`, `CYCLE` or `DISCARD`
//!   ([`EdgeKind::label`]), with its strength as the `intensity` (`Float`)
//!   property.
//!
//! ## Reconciling the dissertation's pseudocode
//!
//! Algorithm 1, Algorithm 7 and the prose of §4.4/§6.3 disagree in small
//! ways (e.g. Algorithm 7 would flag every system-seeded node as a
//! conflict, which contradicts §6.3's Scenario 3). This implementation
//! follows the prose, which is self-consistent:
//!
//! 1. `createOrReturnNodeId` deduplicates nodes on `(uid, predicate)`;
//!    re-adding a quantitative preference *averages* the intensities
//!    (§4.5 step 1).
//! 2. A new qualitative edge that closes a PREFERS-cycle is inserted with
//!    label `CYCLE` and never traversed (Algorithm 1 line 6).
//! 3. If exactly one endpoint lacks an intensity it is computed from the
//!    other via Eq. 4.1/4.2 (Scenario 2).
//! 4. If both endpoints lack intensities, the right node is seeded with the
//!    configured [`DefaultValueStrategy`] and the left computed from it
//!    (Scenario 3; seeding the right and growing the left keeps the edge
//!    invariant by construction).
//! 5. If both endpoints have intensities and `left ≥ right` the edge is
//!    simply `PREFERS`. Otherwise the *incompatible intensities* conflict
//!    (§6.2.3) applies: if one endpoint has no other PREFERS connection its
//!    intensity is recomputed (Figures 14/15) — repairing rather than
//!    propagating the conflict — else the edge is inserted as `DISCARD`.
//!
//! The edge invariant maintained throughout: **for every PREFERS edge,
//! `intensity(left) ≥ intensity(right)` whenever both are defined, and the
//! PREFERS subgraph is acyclic.** [`HypreGraph::check_invariants`] asserts
//! both (used by tests and property tests).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphstore::{EdgeId, GraphError, NodeId, PropValue, PropertyGraph};
use relstore::Predicate;

use crate::combine::PrefAtom;
use crate::error::{HypreError, Result};
use crate::intensity::{DefaultValueStrategy, Intensity, IntensityModel, Position, QualIntensity};
use crate::preference::{Provenance, QualitativePref, QuantitativePref, UserId};

/// The label every preference node carries in the property-graph export
/// (and the index scope).
pub const NODE_LABEL: &str = "uidIndex";

/// Edge classification (the dissertation's PREFERS / CYCLE / DISCARD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A live qualitative preference.
    Prefers,
    /// Inserted but inert: would have closed a cycle.
    Cycle,
    /// Inserted but inert: incompatible with the endpoint intensities.
    Discard,
}

impl EdgeKind {
    /// The edge label in the property-graph export.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Prefers => "PREFERS",
            EdgeKind::Cycle => "CYCLE",
            EdgeKind::Discard => "DISCARD",
        }
    }
}

/// A preference node read back out of the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPreference {
    /// The graph node.
    pub node: NodeId,
    /// The stored predicate.
    pub predicate: Predicate,
    /// The intensity, if one has been assigned.
    pub intensity: Option<f64>,
    /// Where the intensity came from.
    pub provenance: Option<Provenance>,
}

/// The result of inserting one qualitative preference.
#[derive(Debug, Clone, PartialEq)]
pub struct QualInsertOutcome {
    /// The created edge.
    pub edge: EdgeId,
    /// How the edge was classified.
    pub kind: EdgeKind,
    /// The left (preferred) node.
    pub left: NodeId,
    /// The right node.
    pub right: NodeId,
    /// `(node, new intensity)` if an endpoint intensity was computed or
    /// recomputed during insertion.
    pub recomputed: Vec<(NodeId, f64)>,
}

/// Timing and conflict counters for a bulk load (Table 11).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Quantitative preferences inserted.
    pub quantitative: usize,
    /// Qualitative preferences inserted.
    pub qualitative: usize,
    /// Wall-clock time of the quantitative pass.
    pub quantitative_time: Duration,
    /// Wall-clock time of the qualitative pass.
    pub qualitative_time: Duration,
    /// Edges classified `CYCLE`.
    pub cycle_edges: usize,
    /// Edges classified `DISCARD`.
    pub discard_edges: usize,
}

/// One preference node.
struct Node {
    uid: u64,
    /// Index into [`HypreGraph::predicates`].
    pred: u32,
    score: Option<(f64, Provenance)>,
    /// Outgoing edges, linked through [`Edge::next_out`].
    out_edges: EdgeList,
    /// Incoming edges, linked through [`Edge::next_in`].
    in_edges: EdgeList,
}

/// The end of an adjacency list.
const NO_EDGE: usize = usize::MAX;

/// The ends of a node's outgoing or incoming edge list, which continues
/// through the edges themselves.
#[derive(Clone, Copy)]
struct EdgeList {
    first: usize,
    last: usize,
}

impl EdgeList {
    const EMPTY: EdgeList = EdgeList {
        first: NO_EDGE,
        last: NO_EDGE,
    };
}

/// One qualitative edge.
#[derive(Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    kind: EdgeKind,
    strength: f64,
    /// The next edge out of `from`, or [`NO_EDGE`].
    next_out: usize,
    /// The next edge into `to`, or [`NO_EDGE`].
    next_in: usize,
}

/// The edges of the list starting at `first`, following `next`.
fn edge_list(
    edges: &[Edge],
    first: usize,
    next: fn(&Edge) -> usize,
) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors((first != NO_EDGE).then_some(first), move |&e| {
        let n = next(&edges[e]);
        (n != NO_EDGE).then_some(n)
    })
}

/// The edges out of `node`, in insertion order.
fn out_edges<'a>(
    nodes: &[Node],
    edges: &'a [Edge],
    node: usize,
) -> impl Iterator<Item = usize> + 'a {
    edge_list(edges, nodes[node].out_edges.first, |e| e.next_out)
}

/// The hasher of the per-user `predicate id → node` tables: one multiply
/// per key instead of SipHash. Predicate ids are dense and assigned by
/// the graph itself, never taken from input, so no key can be crafted to
/// collide; the odd Fibonacci constant keeps distinct low bits distinct
/// and spreads them into the high bits the table's control bytes read.
#[derive(Default)]
struct PredIdHasher(u64);

impl Hasher for PredIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// One user's nodes: creation order, and the `(uid, predicate)` dedup
/// table on predicate id.
#[derive(Default)]
struct UserNodes {
    nodes: Vec<usize>,
    by_pred: HashMap<u32, usize, BuildHasherDefault<PredIdHasher>>,
}

/// Reusable scratch for the PREFERS reachability walk: a visit stamp per
/// node and a DFS stack, both kept between walks.
#[derive(Default)]
struct Walk {
    stamp: Vec<u32>,
    generation: u32,
    stack: Vec<usize>,
}

impl Walk {
    /// Whether `from` reaches `to` along PREFERS edges.
    fn reaches(&mut self, nodes: &[Node], edges: &[Edge], from: usize, to: usize) -> bool {
        self.stamp.resize(nodes.len(), 0);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.stack.clear();
        self.stack.push(from);
        self.stamp[from] = self.generation;
        while let Some(n) = self.stack.pop() {
            for e in out_edges(nodes, edges, n) {
                let edge = edges[e];
                if edge.kind != EdgeKind::Prefers {
                    continue;
                }
                if edge.to == to {
                    return true;
                }
                if self.stamp[edge.to] != self.generation {
                    self.stamp[edge.to] = self.generation;
                    self.stack.push(edge.to);
                }
            }
        }
        false
    }
}

fn node_id(i: usize) -> NodeId {
    NodeId(i as u64)
}

fn edge_id(j: usize) -> EdgeId {
    EdgeId(j as u64)
}

/// The HYPRE preference graph: all users' profiles in one store.
pub struct HypreGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    users: HashMap<u64, UserNodes>,
    /// The interned predicates, by predicate id: the first `Predicate`
    /// inserted with each canonical text, and that text.
    predicates: Vec<(Predicate, Arc<str>)>,
    /// Canonical text → predicate id.
    pred_ids: HashMap<Arc<str>, u32>,
    /// The buffer each insert renders canonical text into.
    text: String,
    model: IntensityModel,
    default_strategy: DefaultValueStrategy,
    walk: Walk,
}

impl Default for HypreGraph {
    fn default() -> Self {
        HypreGraph::new()
    }
}

impl HypreGraph {
    /// Creates an empty graph with the dissertation's defaults
    /// (exponential propagation, fixed `0.5` seed).
    pub fn new() -> Self {
        HypreGraph::with_config(IntensityModel::Exponential, DefaultValueStrategy::default())
    }

    /// Creates an empty graph with explicit propagation and seeding policy.
    pub fn with_config(model: IntensityModel, default_strategy: DefaultValueStrategy) -> Self {
        HypreGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            users: HashMap::new(),
            predicates: Vec::new(),
            pred_ids: HashMap::new(),
            text: String::new(),
            model,
            default_strategy,
            walk: Walk::default(),
        }
    }

    /// The store as a Neo4j-style property graph (the mapping is in the
    /// module docs): node `i` is `NodeId(i)` and edge `j` is `EdgeId(j)`.
    pub fn to_property_graph(&self) -> PropertyGraph {
        let mut graph = PropertyGraph::with_capacity(self.nodes.len());
        graph
            .create_index(NODE_LABEL, "uid")
            .unwrap_or_else(|e| unreachable!("fresh graph has no indexes: {e}"));
        for n in &self.nodes {
            let mut props = vec![
                ("uid", PropValue::Int(n.uid as i64)),
                ("predicate", PropValue::str(&*self.interned(n).1)),
            ];
            if let Some((intensity, provenance)) = n.score {
                props.push(("intensity", PropValue::Float(intensity)));
                props.push(("provenance", PropValue::str(provenance.as_str())));
            }
            graph.create_node([NODE_LABEL], props);
        }
        for e in &self.edges {
            graph
                .create_edge(
                    node_id(e.from),
                    node_id(e.to),
                    e.kind.label(),
                    [("intensity", e.strength)],
                )
                .unwrap_or_else(|e| unreachable!("endpoints exist: {e}"));
        }
        graph
    }

    /// The configured propagation model.
    pub fn model(&self) -> IntensityModel {
        self.model
    }

    /// The configured default-value strategy.
    pub fn default_strategy(&self) -> DefaultValueStrategy {
        self.default_strategy
    }

    /// Number of preference nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of qualitative edges (all kinds).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    // ------------------------------------------------------------------
    // insertion
    // ------------------------------------------------------------------

    /// Inserts a quantitative preference (§4.5 step 1).
    ///
    /// If the `(user, predicate)` node already exists its intensity is
    /// updated: averaged with the new value when one was already present,
    /// set otherwise. Either way the stored value is marked user-provided.
    pub fn add_quantitative(&mut self, pref: &QuantitativePref) -> NodeId {
        let pred = self.intern(&pref.predicate);
        let node = self.create_or_get_node(pref.user, pred);
        let new_value = match self.nodes[node].score {
            Some((old, Provenance::UserProvided)) => (old + pref.intensity.value()) / 2.0,
            _ => pref.intensity.value(),
        };
        self.set_intensity(node, new_value, Provenance::UserProvided);
        node_id(node)
    }

    /// Inserts a qualitative preference (Algorithm 1 reconciled with
    /// §4.4/§6.3 — see the module docs for the exact case analysis).
    ///
    /// # Errors
    /// [`HypreError::SelfPreference`] when both sides have the same
    /// canonical text; no node or edge is added.
    pub fn add_qualitative(&mut self, pref: &QualitativePref) -> Result<QualInsertOutcome> {
        let left_pred = self.intern(&pref.left);
        let right_pred = self.intern(&pref.right);
        if left_pred == right_pred {
            return Err(HypreError::SelfPreference(pref.left.canonical()));
        }
        let left = self.create_or_get_node(pref.user, left_pred);
        let right = self.create_or_get_node(pref.user, right_pred);
        let ql = pref.intensity;
        let outcome =
            |edge: usize, kind: EdgeKind, recomputed: Vec<(NodeId, f64)>| QualInsertOutcome {
                edge: edge_id(edge),
                kind,
                left: node_id(left),
                right: node_id(right),
                recomputed,
            };

        // Duplicate edge: refresh the strength instead of stacking edges.
        let edges = &self.edges;
        let duplicate = out_edges(&self.nodes, edges, left)
            .find(|&e| edges[e].to == right && edges[e].kind == EdgeKind::Prefers);
        if let Some(existing) = duplicate {
            self.edges[existing].strength = ql.value();
            return Ok(outcome(existing, EdgeKind::Prefers, Vec::new()));
        }

        // Conflicting behaviour: the edge would close a PREFERS cycle.
        if self.closes_cycle(left, right) {
            let edge = self.insert_edge(left, right, EdgeKind::Cycle, ql);
            return Ok(outcome(edge, EdgeKind::Cycle, Vec::new()));
        }

        let mut recomputed = Vec::new();
        let kind = match (self.nodes[left].score, self.nodes[right].score) {
            (None, None) => {
                // Scenario 3: seed the right node, grow the left from it.
                let seed = self
                    .default_strategy
                    .seed(&self.user_intensities(pref.user));
                self.set_intensity(right, seed.value(), Provenance::DefaultSeed);
                let l = self.model.propagate(Position::Left, ql, seed);
                self.set_intensity(left, l.value(), Provenance::SystemComputed);
                recomputed.push((node_id(right), seed.value()));
                recomputed.push((node_id(left), l.value()));
                EdgeKind::Prefers
            }
            (None, Some((r, _))) => {
                // Scenario 2, new left node.
                let l = self
                    .model
                    .propagate(Position::Left, ql, Intensity::saturating(r));
                self.set_intensity(left, l.value(), Provenance::SystemComputed);
                recomputed.push((node_id(left), l.value()));
                EdgeKind::Prefers
            }
            (Some((l, _)), None) => {
                // Scenario 2, new right node.
                let r = self
                    .model
                    .propagate(Position::Right, ql, Intensity::saturating(l));
                self.set_intensity(right, r.value(), Provenance::SystemComputed);
                recomputed.push((node_id(right), r.value()));
                EdgeKind::Prefers
            }
            (Some((l, _)), Some((r, _))) => {
                if l >= r {
                    EdgeKind::Prefers
                } else {
                    // Incompatible intensities. Repair through a free
                    // endpoint (no other PREFERS connection), else discard.
                    if !self.has_prefers_edge(left) {
                        let new_l =
                            self.model
                                .propagate(Position::Left, ql, Intensity::saturating(r));
                        self.set_intensity(left, new_l.value(), Provenance::SystemComputed);
                        recomputed.push((node_id(left), new_l.value()));
                        EdgeKind::Prefers
                    } else if !self.has_prefers_edge(right) {
                        let new_r =
                            self.model
                                .propagate(Position::Right, ql, Intensity::saturating(l));
                        self.set_intensity(right, new_r.value(), Provenance::SystemComputed);
                        recomputed.push((node_id(right), new_r.value()));
                        EdgeKind::Prefers
                    } else {
                        EdgeKind::Discard
                    }
                }
            }
        };
        let edge = self.insert_edge(left, right, kind, ql);
        Ok(outcome(edge, kind, recomputed))
    }

    /// Algorithm 7 verbatim: `FALSE` (no conflict) only when the left
    /// intensity strictly dominates *and* both values are user-provided.
    /// Exposed for auditing; insertion uses the reconciled prose semantics
    /// (module docs).
    pub fn algorithm7_check_conflict(left: (f64, Provenance), right: (f64, Provenance)) -> bool {
        !(left.0 > right.0
            && left.1 == Provenance::UserProvided
            && right.1 == Provenance::UserProvided)
    }

    /// Bulk-loads a workload: all quantitative preferences first (timed as
    /// one batch pass), then all qualitative preferences one transaction at
    /// a time — the two-step procedure of §4.5/§6.3, producing the Table 11
    /// measurements.
    pub fn load(
        &mut self,
        quants: &[QuantitativePref],
        quals: &[QualitativePref],
    ) -> Result<IngestReport> {
        let mut report = IngestReport::default();
        // At most one node per quantitative and two per qualitative
        // preference, and one edge per qualitative preference.
        self.nodes.reserve(quants.len() + 2 * quals.len());
        self.edges.reserve(quals.len());
        let t0 = Instant::now();
        for q in quants {
            self.add_quantitative(q);
            report.quantitative += 1;
        }
        report.quantitative_time = t0.elapsed();
        let t1 = Instant::now();
        for q in quals {
            let out = self.add_qualitative(q)?;
            report.qualitative += 1;
            match out.kind {
                EdgeKind::Cycle => report.cycle_edges += 1,
                EdgeKind::Discard => report.discard_edges += 1,
                EdgeKind::Prefers => {}
            }
        }
        report.qualitative_time = t1.elapsed();
        Ok(report)
    }

    // ------------------------------------------------------------------
    // node accessors
    // ------------------------------------------------------------------

    /// Finds the node for `(user, predicate)` if present.
    pub fn find_node(&self, user: UserId, predicate: &Predicate) -> Option<NodeId> {
        let pred = *self.pred_ids.get(predicate.canonical().as_str())?;
        self.users
            .get(&user.0)?
            .by_pred
            .get(&pred)
            .map(|&i| node_id(i))
    }

    /// The stored intensity and provenance of a node, if assigned.
    pub fn node_intensity(&self, node: NodeId) -> Option<(f64, Provenance)> {
        self.nodes.get(node.0 as usize)?.score
    }

    /// Reads a node back as a [`StoredPreference`].
    ///
    /// # Errors
    /// [`HypreError::Graph`] when the node does not exist.
    pub fn stored_preference(&self, node: NodeId) -> Result<StoredPreference> {
        let n = self
            .nodes
            .get(node.0 as usize)
            .ok_or(GraphError::NodeNotFound(node.0))?;
        Ok(StoredPreference {
            node,
            predicate: self.interned(n).0.clone(),
            intensity: n.score.map(|(v, _)| v),
            provenance: n.score.map(|(_, p)| p),
        })
    }

    /// All user ids with at least one node, ascending.
    pub fn users(&self) -> Vec<UserId> {
        let mut uids: Vec<u64> = self.users.keys().copied().collect();
        uids.sort_unstable();
        uids.into_iter().map(UserId).collect()
    }

    /// All nodes belonging to a user, in node-id order.
    pub fn user_nodes(&self, user: UserId) -> Vec<NodeId> {
        self.nodes_of(user).iter().map(|&i| node_id(i)).collect()
    }

    /// All intensity values currently stored for a user (any provenance) —
    /// the input to [`DefaultValueStrategy::seed`].
    pub fn user_intensities(&self, user: UserId) -> Vec<f64> {
        self.nodes_of(user)
            .iter()
            .filter_map(|&i| self.nodes[i].score.map(|(v, _)| v))
            .collect()
    }

    // ------------------------------------------------------------------
    // profiles
    // ------------------------------------------------------------------

    /// The user's full profile: every node, with or without intensity,
    /// ordered by descending intensity (unscored nodes last), ties broken
    /// by node id.
    pub fn profile(&self, user: UserId) -> Vec<StoredPreference> {
        let mut prefs: Vec<StoredPreference> = self
            .nodes_of(user)
            .iter()
            .filter_map(|&i| self.stored_preference(node_id(i)).ok())
            .collect();
        prefs.sort_by(|a, b| {
            match (a.intensity, b.intensity) {
                (Some(x), Some(y)) => y.total_cmp(&x),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            }
            .then(a.node.cmp(&b.node))
        });
        prefs
    }

    /// The combination-ready profile: strictly positive intensities only
    /// (negative preferences filter *out* of enhancement, §4.3, and a zero
    /// intensity is indifference), as [`PrefAtom`]s indexed 0.. in
    /// descending-intensity order — the [`HypreGraph::profile`] order.
    pub fn positive_profile(&self, user: UserId) -> Vec<PrefAtom> {
        let mut positive: Vec<(usize, f64)> = self
            .nodes_of(user)
            .iter()
            .filter_map(|&i| match self.nodes[i].score {
                Some((v, _)) if v > 0.0 => Some((i, v)),
                _ => None,
            })
            .collect();
        positive.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        positive
            .into_iter()
            .enumerate()
            .map(|(index, (i, v))| PrefAtom::new(index, self.interned(&self.nodes[i]).0.clone(), v))
            .collect()
    }

    /// The user's negative preferences (intensity < 0) — used as hard
    /// exclusion filters by query enhancement.
    pub fn negative_preferences(&self, user: UserId) -> Vec<StoredPreference> {
        self.profile(user)
            .into_iter()
            .filter(|p| p.intensity.is_some_and(|v| v < 0.0))
            .collect()
    }

    /// Counts for Figs. 26/27: `(user-provided quantitative nodes, all
    /// scored nodes)`. The gap is the coverage HYPRE gains by converting
    /// qualitative preferences into quantitative ones.
    pub fn quantitative_counts(&self, user: UserId) -> (usize, usize) {
        let mut user_provided = 0usize;
        let mut scored = 0usize;
        for &i in self.nodes_of(user) {
            if let Some((_, prov)) = self.nodes[i].score {
                scored += 1;
                if prov == Provenance::UserProvided {
                    user_provided += 1;
                }
            }
        }
        (user_provided, scored)
    }

    /// Per-kind edge counts for a user's subgraph.
    pub fn edge_kind_counts(&self, user: UserId) -> HashMap<EdgeKind, usize> {
        let mut out = HashMap::new();
        for &i in self.nodes_of(user) {
            for e in out_edges(&self.nodes, &self.edges, i) {
                *out.entry(self.edges[e].kind).or_insert(0) += 1;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // invariants
    // ------------------------------------------------------------------

    /// Asserts the two structural invariants of the model:
    ///
    /// 1. the PREFERS subgraph is acyclic, and
    /// 2. every PREFERS edge has `intensity(left) ≥ intensity(right)`
    ///    (when both are defined), with all intensities in `[-1, 1]`.
    ///
    /// Acyclicity is checked by [`graphstore::traverse::topo_sort`] on
    /// the [`HypreGraph::to_property_graph`] export, independently of the
    /// insert-time cycle guard. Returns a human-readable violation
    /// description, or `Ok(())`.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        // edge monotonicity + range
        for (j, e) in self.edges.iter().enumerate() {
            if e.kind != EdgeKind::Prefers {
                continue;
            }
            let li = self.nodes[e.from].score.map(|(v, _)| v);
            let ri = self.nodes[e.to].score.map(|(v, _)| v);
            if let (Some(l), Some(r)) = (li, ri) {
                if l < r - 1e-12 {
                    return Err(format!(
                        "PREFERS edge {} has left {l} < right {r}",
                        edge_id(j)
                    ));
                }
            }
            for v in [li, ri].into_iter().flatten() {
                if !(-1.0..=1.0).contains(&v) {
                    return Err(format!("intensity {v} outside [-1,1]"));
                }
            }
        }
        // acyclicity, checked per weakly-meaningful scope (all nodes)
        let graph = self.to_property_graph();
        let scope: Vec<NodeId> = graph.nodes().map(|n| n.id()).collect();
        graphstore::traverse::topo_sort(&graph, &scope, Some(EdgeKind::Prefers.label()))
            .map(|_| ())
            .map_err(|_| "PREFERS subgraph contains a cycle".to_owned())
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn nodes_of(&self, user: UserId) -> &[usize] {
        self.users.get(&user.0).map_or(&[], |u| u.nodes.as_slice())
    }

    /// A node's interned predicate and canonical text.
    fn interned(&self, node: &Node) -> &(Predicate, Arc<str>) {
        &self.predicates[node.pred as usize]
    }

    /// The predicate id of `predicate`'s canonical text, interning the
    /// predicate when the graph has not seen that text. The text is
    /// rendered into the reused buffer, so only a new text allocates.
    fn intern(&mut self, predicate: &Predicate) -> u32 {
        self.text.clear();
        predicate.write_canonical(&mut self.text);
        if let Some(&pred) = self.pred_ids.get(self.text.as_str()) {
            return pred;
        }
        let pred = u32::try_from(self.predicates.len())
            .unwrap_or_else(|_| unreachable!("more than u32::MAX distinct predicates"));
        let text: Arc<str> = Arc::from(self.text.as_str());
        self.pred_ids.insert(Arc::clone(&text), pred);
        self.predicates.push((predicate.clone(), text));
        pred
    }

    /// `createOrReturnNodeId`: the node for `(user, pred)`, created when
    /// absent.
    fn create_or_get_node(&mut self, user: UserId, pred: u32) -> usize {
        let entry = self.users.entry(user.0).or_default();
        if let Some(&i) = entry.by_pred.get(&pred) {
            return i;
        }
        let i = self.nodes.len();
        entry.nodes.push(i);
        entry.by_pred.insert(pred, i);
        self.nodes.push(Node {
            uid: user.0,
            pred,
            score: None,
            out_edges: EdgeList::EMPTY,
            in_edges: EdgeList::EMPTY,
        });
        i
    }

    /// Whether the node has any PREFERS edge, in or out (Algorithm 1's
    /// `degree(n, PREFERS) > 0`).
    fn has_prefers_edge(&self, node: usize) -> bool {
        let incoming = edge_list(&self.edges, self.nodes[node].in_edges.first, |e| e.next_in);
        out_edges(&self.nodes, &self.edges, node)
            .chain(incoming)
            .any(|e| self.edges[e].kind == EdgeKind::Prefers)
    }

    /// Whether a PREFERS edge `left → right` would close a cycle, i.e.
    /// `right` already reaches `left` (Algorithm 1 line 6).
    fn closes_cycle(&mut self, left: usize, right: usize) -> bool {
        left == right || self.walk.reaches(&self.nodes, &self.edges, right, left)
    }

    fn set_intensity(&mut self, node: usize, value: f64, provenance: Provenance) {
        self.nodes[node].score = Some((value, provenance));
        self.revalidate_incident_edges(node);
    }

    /// Re-validates the edges touching a node after its intensity changed
    /// (§6.2.3: an edge "can be relabeled, and used later, if the
    /// preference intensities of the two involved nodes change"), outgoing
    /// edges first, each list in insertion order:
    ///
    /// * a `PREFERS` edge whose endpoints now satisfy `left < right` is
    ///   demoted to `DISCARD`;
    /// * a `DISCARD` edge whose endpoints now satisfy `left ≥ right` is
    ///   promoted back to `PREFERS` — unless doing so would close a cycle
    ///   in the current PREFERS subgraph.
    fn revalidate_incident_edges(&mut self, node: usize) {
        // Revalidation relabels edges but never relinks them, so each
        // list can be followed while it runs.
        let mut e = self.nodes[node].out_edges.first;
        while e != NO_EDGE {
            self.revalidate_edge(e);
            e = self.edges[e].next_out;
        }
        let mut e = self.nodes[node].in_edges.first;
        while e != NO_EDGE {
            self.revalidate_edge(e);
            e = self.edges[e].next_in;
        }
    }

    fn revalidate_edge(&mut self, edge: usize) {
        let Edge { from, to, kind, .. } = self.edges[edge];
        let (Some((l, _)), Some((r, _))) = (self.nodes[from].score, self.nodes[to].score) else {
            return;
        };
        match kind {
            EdgeKind::Prefers if l < r => self.edges[edge].kind = EdgeKind::Discard,
            EdgeKind::Discard if l >= r && !self.closes_cycle(from, to) => {
                self.edges[edge].kind = EdgeKind::Prefers;
            }
            _ => {}
        }
    }

    fn insert_edge(
        &mut self,
        left: usize,
        right: usize,
        kind: EdgeKind,
        ql: QualIntensity,
    ) -> usize {
        let edge = self.edges.len();
        self.edges.push(Edge {
            from: left,
            to: right,
            kind,
            strength: ql.value(),
            next_out: NO_EDGE,
            next_in: NO_EDGE,
        });
        let out = &mut self.nodes[left].out_edges;
        match out.last {
            NO_EDGE => out.first = edge,
            prev => self.edges[prev].next_out = edge,
        }
        out.last = edge;
        let inc = &mut self.nodes[right].in_edges;
        match inc.last {
            NO_EDGE => inc.first = edge,
            prev => self.edges[prev].next_in = edge,
        }
        inc.last = edge;
        edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::parse_predicate;

    fn qt(uid: u64, pred: &str, intensity: f64) -> QuantitativePref {
        QuantitativePref::new(
            UserId(uid),
            parse_predicate(pred).unwrap(),
            Intensity::new(intensity).unwrap(),
        )
    }

    fn ql(uid: u64, left: &str, right: &str, intensity: f64) -> QualitativePref {
        QualitativePref::new(
            UserId(uid),
            parse_predicate(left).unwrap(),
            parse_predicate(right).unwrap(),
            QualIntensity::new(intensity).unwrap(),
        )
        .unwrap()
    }

    /// Builds the §3.3 walkthrough graph (Figures 4–8).
    fn section33_graph() -> HypreGraph {
        let mut g = HypreGraph::new();
        // Quantitative preferences P1–P4 (Fig. 5)
        g.add_quantitative(&qt(1, "year>=2000 AND year<=2005", 0.3));
        g.add_quantitative(&qt(1, "year>=2005 AND year<=2009", 0.5));
        g.add_quantitative(&qt(1, "year>=2009", 0.8));
        g.add_quantitative(&qt(1, "venue='INFOCOM'", -1.0));
        g
    }

    #[test]
    fn quantitative_insert_and_dedup_averages() {
        let mut g = section33_graph();
        assert_eq!(g.node_count(), 4);
        // duplicate predicate: node reused, intensities averaged (§4.5)
        let n = g.add_quantitative(&qt(1, "year>=2009", 0.4));
        assert_eq!(g.node_count(), 4);
        let (v, prov) = g.node_intensity(n).unwrap();
        assert!((v - 0.6).abs() < 1e-12);
        assert_eq!(prov, Provenance::UserProvided);
    }

    #[test]
    fn relative_preference_seeds_both_nodes() {
        // Fig. 6: P5 ≻ P6 @ 0.8, both nodes new. Right gets the default
        // seed (0.5); left grows via Eq. 4.1: 0.5 · 2^0.8.
        let mut g = section33_graph();
        let out = g
            .add_qualitative(&ql(
                1,
                "venue='VLDB' AND year>=2010",
                "venue='VLDB' AND year<2010",
                0.8,
            ))
            .unwrap();
        assert_eq!(out.kind, EdgeKind::Prefers);
        let (r, rp) = g.node_intensity(out.right).unwrap();
        let (l, lp) = g.node_intensity(out.left).unwrap();
        assert_eq!(r, 0.5);
        assert_eq!(rp, Provenance::DefaultSeed);
        assert!((l - (0.5 * 2f64.powf(0.8)).min(1.0)).abs() < 1e-12);
        assert_eq!(lp, Provenance::SystemComputed);
        assert!(l >= r);
        g.check_invariants().unwrap();
    }

    #[test]
    fn set_preference_computes_new_left_from_existing_right() {
        // Fig. 7: P7 (venue='VLDB') ≻ P3 (year>=2009, 0.8) @ 0.2.
        let mut g = section33_graph();
        let out = g
            .add_qualitative(&ql(1, "venue='VLDB'", "year>=2009", 0.2))
            .unwrap();
        assert_eq!(out.kind, EdgeKind::Prefers);
        let (l, _) = g.node_intensity(out.left).unwrap();
        assert!((l - (0.8 * 2f64.powf(0.2)).min(1.0)).abs() < 1e-12);
        assert_eq!(g.node_count(), 5); // P3 reused
        g.check_invariants().unwrap();
    }

    #[test]
    fn existing_left_computes_new_right() {
        let mut g = section33_graph();
        // year>=2009 (0.8) ≻ fresh node @ 0.5 → right = 0.8 · 2^-0.5
        let out = g
            .add_qualitative(&ql(1, "year>=2009", "venue='ICDE'", 0.5))
            .unwrap();
        let (r, rp) = g.node_intensity(out.right).unwrap();
        assert!((r - 0.8 * 2f64.powf(-0.5)).abs() < 1e-12);
        assert_eq!(rp, Provenance::SystemComputed);
        g.check_invariants().unwrap();
    }

    #[test]
    fn compatible_intensities_link_without_recompute() {
        // Fig. 8: P7 (≈0.92) ≻ P8 (venue='SIGMOD', 0.8) @ 0.3.
        let mut g = section33_graph();
        g.add_qualitative(&ql(1, "venue='VLDB'", "year>=2009", 0.2))
            .unwrap();
        g.add_quantitative(&qt(1, "venue='SIGMOD'", 0.8));
        let out = g
            .add_qualitative(&ql(1, "venue='VLDB'", "venue='SIGMOD'", 0.3))
            .unwrap();
        assert_eq!(out.kind, EdgeKind::Prefers);
        assert!(out.recomputed.is_empty());
        g.check_invariants().unwrap();
    }

    #[test]
    fn cycle_edge_is_labeled_cycle() {
        let mut g = HypreGraph::new();
        g.add_qualitative(&ql(1, "a=1", "b=2", 0.5)).unwrap();
        g.add_qualitative(&ql(1, "b=2", "c=3", 0.5)).unwrap();
        let out = g.add_qualitative(&ql(1, "c=3", "a=1", 0.5)).unwrap();
        assert_eq!(out.kind, EdgeKind::Cycle);
        g.check_invariants().unwrap();
        let counts = g.edge_kind_counts(UserId(1));
        assert_eq!(counts.get(&EdgeKind::Cycle), Some(&1));
        assert_eq!(counts.get(&EdgeKind::Prefers), Some(&2));
    }

    #[test]
    fn two_node_cycle_is_caught() {
        let mut g = HypreGraph::new();
        g.add_qualitative(&ql(1, "a=1", "b=2", 0.5)).unwrap();
        let out = g.add_qualitative(&ql(1, "b=2", "a=1", 0.3)).unwrap();
        assert_eq!(out.kind, EdgeKind::Cycle);
    }

    #[test]
    fn incompatible_intensities_repaired_through_free_left() {
        let mut g = HypreGraph::new();
        g.add_quantitative(&qt(1, "a=1", 0.2));
        g.add_quantitative(&qt(1, "b=2", 0.7));
        // a (0.2) ≻ b (0.7): conflict; both nodes are free → repair left.
        let out = g.add_qualitative(&ql(1, "a=1", "b=2", 0.4)).unwrap();
        assert_eq!(out.kind, EdgeKind::Prefers);
        assert_eq!(out.recomputed.len(), 1);
        let (l, lp) = g.node_intensity(out.left).unwrap();
        assert!((l - (0.7 * 2f64.powf(0.4)).min(1.0)).abs() < 1e-12);
        assert_eq!(lp, Provenance::SystemComputed);
        g.check_invariants().unwrap();
    }

    #[test]
    fn incompatible_intensities_repaired_through_free_right() {
        let mut g = HypreGraph::new();
        g.add_quantitative(&qt(1, "a=1", 0.2));
        g.add_quantitative(&qt(1, "b=2", 0.7));
        g.add_quantitative(&qt(1, "c=3", 0.1));
        // pin `a` with an existing PREFERS edge so only `b` is free
        g.add_qualitative(&ql(1, "a=1", "c=3", 0.1)).unwrap();
        let out = g.add_qualitative(&ql(1, "a=1", "b=2", 0.4)).unwrap();
        assert_eq!(out.kind, EdgeKind::Prefers);
        let (r, _) = g.node_intensity(out.right).unwrap();
        // a stays 0.2 (well, repaired earlier? `a ≻ c` has 0.2 > 0.1, no recompute)
        let (l, _) = g.node_intensity(out.left).unwrap();
        assert!((l - 0.2).abs() < 1e-12);
        assert!((r - 0.2 * 2f64.powf(-0.4)).abs() < 1e-12);
        g.check_invariants().unwrap();
    }

    #[test]
    fn incompatible_intensities_discard_when_both_pinned() {
        let mut g = HypreGraph::new();
        for (p, v) in [("a=1", 0.2), ("b=2", 0.7), ("c=3", 0.1), ("d=4", 0.9)] {
            g.add_quantitative(&qt(1, p, v));
        }
        g.add_qualitative(&ql(1, "a=1", "c=3", 0.1)).unwrap(); // pins a
        g.add_qualitative(&ql(1, "d=4", "b=2", 0.1)).unwrap(); // pins b
        let out = g.add_qualitative(&ql(1, "a=1", "b=2", 0.4)).unwrap();
        assert_eq!(out.kind, EdgeKind::Discard);
        // intensities untouched
        assert!((g.node_intensity(out.left).unwrap().0 - 0.2).abs() < 1e-12);
        assert!((g.node_intensity(out.right).unwrap().0 - 0.7).abs() < 1e-12);
        g.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_qualitative_edge_refreshes_strength() {
        let mut g = HypreGraph::new();
        let first = g.add_qualitative(&ql(1, "a=1", "b=2", 0.5)).unwrap();
        let second = g.add_qualitative(&ql(1, "a=1", "b=2", 0.9)).unwrap();
        assert_eq!(first.edge, second.edge);
        assert_eq!(g.edge_count(), 1);
        let export = g.to_property_graph();
        let e = export.edge(first.edge).unwrap();
        assert_eq!(e.prop("intensity").unwrap().as_f64(), Some(0.9));
    }

    #[test]
    fn rejected_self_preference_leaves_the_graph_unchanged() {
        // Built by struct literal: `QualitativePref::new` would refuse it.
        let pref = QualitativePref {
            user: UserId(1),
            left: parse_predicate("a=1").unwrap(),
            right: parse_predicate("a = 1").unwrap(),
            intensity: QualIntensity::new(0.5).unwrap(),
        };
        let mut g = HypreGraph::new();
        assert!(matches!(
            g.add_qualitative(&pref),
            Err(HypreError::SelfPreference(_))
        ));
        assert_eq!(g.node_count(), 0);
        assert!(g.users().is_empty());
    }

    #[test]
    fn export_maps_nodes_and_edges_by_index() {
        let mut g = section33_graph();
        let out = g
            .add_qualitative(&ql(1, "venue='VLDB'", "year>=2009", 0.2))
            .unwrap();
        let export = g.to_property_graph();
        assert_eq!(export.node_count(), g.node_count());
        assert_eq!(export.edge_count(), g.edge_count());
        for n in g.user_nodes(UserId(1)) {
            let node = export.node(n).unwrap();
            let stored = g.stored_preference(n).unwrap();
            assert!(node.has_label(NODE_LABEL));
            assert_eq!(node.prop("uid"), Some(&PropValue::Int(1)));
            assert_eq!(
                node.prop("predicate").and_then(PropValue::as_str),
                Some(stored.predicate.canonical().as_str())
            );
            assert_eq!(
                node.prop("intensity").and_then(PropValue::as_f64),
                stored.intensity
            );
            assert_eq!(
                node.prop("provenance").and_then(PropValue::as_str),
                stored.provenance.map(Provenance::as_str)
            );
        }
        let edge = export.edge(out.edge).unwrap();
        assert_eq!((edge.from(), edge.to()), (out.left, out.right));
        assert_eq!(edge.label(), EdgeKind::Prefers.label());
        assert_eq!(
            edge.prop("intensity").and_then(PropValue::as_f64),
            Some(0.2)
        );
        assert_eq!(
            export.index_lookup(NODE_LABEL, "uid", &PropValue::Int(1)),
            Some(g.user_nodes(UserId(1)))
        );
    }

    #[test]
    fn profiles_sort_descending_and_filter() {
        let mut g = section33_graph();
        let profile = g.profile(UserId(1));
        let vals: Vec<Option<f64>> = profile.iter().map(|p| p.intensity).collect();
        assert_eq!(vals, vec![Some(0.8), Some(0.5), Some(0.3), Some(-1.0)]);
        let positive = g.positive_profile(UserId(1));
        assert_eq!(positive.len(), 3);
        assert_eq!(positive[0].index, 0);
        assert!(positive
            .windows(2)
            .all(|w| w[0].intensity >= w[1].intensity));
        let negatives = g.negative_preferences(UserId(1));
        assert_eq!(negatives.len(), 1);
        // another user sees nothing
        assert!(g.profile(UserId(99)).is_empty());
        // unscored node sorts last in full profile
        g.add_qualitative(&ql(1, "x=1", "year>=2009", 0.0)).unwrap();
        let _ = g; // x=1 got computed intensity, so nothing unscored remains
    }

    #[test]
    fn users_are_isolated() {
        let mut g = HypreGraph::new();
        g.add_quantitative(&qt(1, "a=1", 0.5));
        g.add_quantitative(&qt(2, "a=1", 0.9));
        assert_eq!(g.node_count(), 2, "same predicate, different users");
        assert_eq!(g.users(), vec![UserId(1), UserId(2)]);
        assert_eq!(g.user_nodes(UserId(1)).len(), 1);
        let (v1, _) = g
            .node_intensity(
                g.find_node(UserId(1), &parse_predicate("a=1").unwrap())
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(v1, 0.5);
    }

    #[test]
    fn one_canonical_text_is_one_node_per_user_and_one_entry_per_graph() {
        let (a, b, c) = (
            parse_predicate("a=1").unwrap(),
            parse_predicate("b=2").unwrap(),
            parse_predicate("c=3").unwrap(),
        );
        let nested = Predicate::And(vec![Predicate::And(vec![a.clone(), b.clone()]), c.clone()]);
        let flat = Predicate::And(vec![a, b, c]);
        assert_ne!(nested, flat);
        assert_eq!(nested.canonical(), flat.canonical());

        let mut g = HypreGraph::new();
        let first = g.add_quantitative(&QuantitativePref::new(
            UserId(1),
            nested.clone(),
            Intensity::new(0.2).unwrap(),
        ));
        let again = g.add_quantitative(&QuantitativePref::new(
            UserId(1),
            flat.clone(),
            Intensity::new(0.4).unwrap(),
        ));
        assert_eq!(first, again, "one user: both shapes are one node");
        assert_eq!(g.node_count(), 1);
        assert!((g.node_intensity(first).unwrap().0 - 0.3).abs() < 1e-12);
        assert_eq!(g.find_node(UserId(1), &nested), Some(first));
        assert_eq!(g.find_node(UserId(1), &flat), Some(first));
        // The node keeps the first shape inserted with its text.
        assert_eq!(g.stored_preference(first).unwrap().predicate, nested);

        let other = g.add_quantitative(&QuantitativePref::new(
            UserId(2),
            flat.clone(),
            Intensity::new(0.9).unwrap(),
        ));
        assert_ne!(other, first, "two users: two nodes");
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.predicates.len(), 1, "the two nodes share one entry");
        assert_eq!(g.nodes[0].pred, g.nodes[1].pred);
        // ... so user 2's node reads back user 1's shape.
        assert_eq!(g.stored_preference(other).unwrap().predicate, nested);
        assert_eq!(g.find_node(UserId(2), &nested), Some(other));
        assert_eq!(g.find_node(UserId(3), &nested), None);
    }

    #[test]
    fn quantitative_counts_track_conversion() {
        let mut g = section33_graph();
        let (user, scored) = g.quantitative_counts(UserId(1));
        assert_eq!((user, scored), (4, 4));
        // qualitative with two fresh nodes adds two scored nodes
        g.add_qualitative(&ql(1, "v='A'", "v='B'", 0.5)).unwrap();
        let (user, scored) = g.quantitative_counts(UserId(1));
        assert_eq!(user, 4);
        assert_eq!(scored, 6);
    }

    #[test]
    fn load_reports_counts_and_conflicts() {
        let mut g = HypreGraph::new();
        let quants = vec![qt(1, "a=1", 0.5), qt(1, "b=2", 0.3)];
        let quals = vec![
            ql(1, "a=1", "b=2", 0.2),
            ql(1, "b=2", "a=1", 0.2), // cycle
        ];
        let report = g.load(&quants, &quals).unwrap();
        assert_eq!(report.quantitative, 2);
        assert_eq!(report.qualitative, 2);
        assert_eq!(report.cycle_edges, 1);
        assert_eq!(report.discard_edges, 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn quantitative_update_demotes_violated_edges() {
        // §6.2.3 relabeling: raising the right endpoint of a PREFERS edge
        // above its left endpoint demotes the edge to DISCARD.
        let mut g = HypreGraph::new();
        let out = g.add_qualitative(&ql(1, "a=1", "b=2", 0.0)).unwrap();
        assert_eq!(out.kind, EdgeKind::Prefers);
        // both endpoints sit at the default seed (0.5); now the user says
        // b is actually a 0.9
        g.add_quantitative(&qt(1, "b=2", 0.9));
        let export = g.to_property_graph();
        let edge = export.edge(out.edge).unwrap();
        assert_eq!(edge.label(), EdgeKind::Discard.label());
        g.check_invariants().unwrap();
    }

    #[test]
    fn quantitative_update_promotes_resolved_discards() {
        let mut g = HypreGraph::new();
        let out = g.add_qualitative(&ql(1, "a=1", "b=2", 0.0)).unwrap();
        g.add_quantitative(&qt(1, "b=2", 0.9)); // demotes to DISCARD
                                                // the user then upgrades `a` past `b`: the edge becomes valid again
        g.add_quantitative(&qt(1, "a=1", 0.95));
        let export = g.to_property_graph();
        let edge = export.edge(out.edge).unwrap();
        assert_eq!(edge.label(), EdgeKind::Prefers.label());
        g.check_invariants().unwrap();
    }

    #[test]
    fn discard_promotion_never_closes_a_cycle() {
        let mut g = HypreGraph::new();
        for (p, v) in [("a=1", 0.3), ("b=2", 0.7)] {
            g.add_quantitative(&qt(1, p, v));
        }
        // pin both nodes so the conflict cannot be repaired
        g.add_quantitative(&qt(1, "c=3", 0.1));
        g.add_quantitative(&qt(1, "d=4", 0.9));
        g.add_qualitative(&ql(1, "a=1", "c=3", 0.1)).unwrap();
        g.add_qualitative(&ql(1, "d=4", "b=2", 0.1)).unwrap();
        // a (0.3) ≻ b (0.7): both pinned → DISCARD
        let down = g.add_qualitative(&ql(1, "a=1", "b=2", 0.2)).unwrap();
        assert_eq!(down.kind, EdgeKind::Discard);
        // b ≻ a is consistent with intensities → PREFERS
        let up = g.add_qualitative(&ql(1, "b=2", "a=1", 0.2)).unwrap();
        assert_eq!(up.kind, EdgeKind::Prefers);
        // now raise a to 1.0: the a→b DISCARD would become intensity-valid,
        // but promoting it would close a cycle with b→a — it must stay
        // DISCARD; meanwhile b→a (1.0 left? no: b=0.7 < a=1.0) demotes.
        g.add_quantitative(&qt(1, "a=1", 1.0));
        g.check_invariants().unwrap();
        assert_eq!(
            g.to_property_graph().edge(down.edge).unwrap().label(),
            EdgeKind::Discard.label(),
        );
    }

    #[test]
    fn algorithm7_verbatim() {
        use Provenance::*;
        // no conflict: left dominates, both user-provided
        assert!(!HypreGraph::algorithm7_check_conflict(
            (0.8, UserProvided),
            (0.3, UserProvided)
        ));
        // conflict: left below right
        assert!(HypreGraph::algorithm7_check_conflict(
            (0.2, UserProvided),
            (0.3, UserProvided)
        ));
        // conflict flagged when a value is system-derived
        assert!(HypreGraph::algorithm7_check_conflict(
            (0.8, SystemComputed),
            (0.3, UserProvided)
        ));
    }

    #[test]
    fn default_strategy_uses_existing_profile_values() {
        let mut g = HypreGraph::with_config(
            IntensityModel::Exponential,
            DefaultValueStrategy::AvgPositive,
        );
        g.add_quantitative(&qt(1, "a=1", 0.4));
        g.add_quantitative(&qt(1, "b=2", 0.2));
        let out = g.add_qualitative(&ql(1, "x=1", "y=2", 0.5)).unwrap();
        let (r, _) = g.node_intensity(out.right).unwrap();
        assert!(
            (r - 0.3).abs() < 1e-12,
            "avg_pos of 0.4, 0.2 = 0.3, got {r}"
        );
    }

    #[test]
    fn linear_model_keeps_invariants() {
        let mut g =
            HypreGraph::with_config(IntensityModel::Linear, DefaultValueStrategy::default());
        g.add_quantitative(&qt(1, "a=1", 0.4));
        g.add_qualitative(&ql(1, "b=2", "a=1", 0.7)).unwrap();
        g.add_qualitative(&ql(1, "a=1", "c=3", 0.9)).unwrap();
        g.check_invariants().unwrap();
    }
}
