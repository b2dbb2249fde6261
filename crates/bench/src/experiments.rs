//! One function per table/figure of the evaluation chapter. The
//! `experiments` binary prints these and integration tests assert on
//! their shapes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use graphstore::{BatchInserter, BatchStat, PropValue, PropertyGraph};
use hypre_core::prelude::*;
use hypre_topk::threshold_algorithm;
use relstore::Value;

use crate::fixture::Fixture;
use crate::ta_glue::{build_graded_lists, f_and_agg};

// ---------------------------------------------------------------------
// Table 12
// ---------------------------------------------------------------------

/// Table 12: each DEFAULT_VALUE strategy evaluated on a user's stored
/// intensities.
pub fn table12_rows(fx: &Fixture, user: UserId) -> Vec<(&'static str, f64)> {
    let values = fx.graph.user_intensities(user);
    DefaultValueStrategy::table12()
        .into_iter()
        .map(|s| (s.label(), s.seed(&values).value()))
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 13
// ---------------------------------------------------------------------

/// Fig. 13: batched node-insertion timing. The dissertation inserts 7 B
/// nodes in 1 M batches on a server; the reproduction scales the totals
/// down but keeps the batch discipline so the curve's shape (per-batch
/// time roughly flat with a mild upward drift) is comparable.
pub fn fig13_insertion_scaling(total_nodes: usize, batch_size: usize) -> Vec<BatchStat> {
    let mut graph = PropertyGraph::with_capacity(total_nodes);
    let mut inserter = BatchInserter::new(&mut graph, batch_size);
    for i in 0..total_nodes {
        inserter.add_node(
            ["uidIndex"],
            [
                ("uid", PropValue::Int((i % 1000) as i64)),
                ("intensity", PropValue::Float((i % 100) as f64 / 100.0)),
            ],
        );
    }
    let (_, stats) = inserter.finish();
    stats
}

// ---------------------------------------------------------------------
// Fig. 17
// ---------------------------------------------------------------------

/// Fig. 17: the distribution of preferences per user, bucketed for
/// readable output: `(bucket upper bound, number of users)`.
pub fn fig17_distribution(fx: &Fixture, bucket_width: usize) -> Vec<(usize, usize)> {
    let mut buckets: BTreeMap<usize, usize> = BTreeMap::new();
    for (_, n) in fx.workload.preference_counts() {
        let bucket = n.div_ceil(bucket_width.max(1)) * bucket_width.max(1);
        *buckets.entry(bucket).or_default() += 1;
    }
    buckets.into_iter().collect()
}

// ---------------------------------------------------------------------
// Figs. 18–25 (utility / tuples / intensity per combination order)
// ---------------------------------------------------------------------

/// One combination-order series point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComboPoint {
    /// Position in the "combination order" (x-axis of Figs. 18–25).
    pub order: usize,
    /// Tuples returned.
    pub tuples: u64,
    /// Combined intensity.
    pub intensity: f64,
    /// Utility with the paper's 25-tuple page cap (Eq. 5.2, §7.1.1).
    pub utility: f64,
}

/// Figs. 18–25: Partially-Combine-All records grouped by arity (the paper
/// plots arities 2, 5 and 10).
pub fn utility_series(
    fx: &Fixture,
    user: UserId,
    arities: &[usize],
) -> Result<BTreeMap<usize, Vec<ComboPoint>>> {
    let exec = fx.executor();
    let atoms = fx.graph.positive_profile(user);
    let records = partially_combine_all(&atoms, &exec)?;
    let mut out: BTreeMap<usize, Vec<ComboPoint>> = BTreeMap::new();
    for &arity in arities {
        let series: Vec<ComboPoint> = records
            .iter()
            .filter(|r| r.arity() == arity)
            .enumerate()
            .map(|(order, r)| ComboPoint {
                order,
                tuples: r.tuples,
                intensity: r.intensity,
                utility: utility(r.tuples, r.arity(), r.intensity, Some(UTILITY_PAGE_CAP)),
            })
            .collect();
        out.insert(arity, series);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Figs. 26–27 (quantitative preference conversion)
// ---------------------------------------------------------------------

/// Figs. 26–27: the intensity-sorted series before (user-provided
/// quantitative only) and after (all scored nodes) HYPRE conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversionSeries {
    /// Intensities of original quantitative preferences, descending.
    pub from_quantitative_table: Vec<f64>,
    /// Intensities of every scored node in the graph, descending.
    pub from_graph: Vec<f64>,
}

/// Computes the Figs. 26–27 series for one user.
pub fn conversion_series(fx: &Fixture, user: UserId) -> ConversionSeries {
    let mut original: Vec<f64> = fx
        .workload
        .quantitative
        .iter()
        .filter(|p| p.user == user)
        .map(|p| p.intensity.value())
        .collect();
    original.sort_by(|a, b| b.total_cmp(a));
    let graph: Vec<f64> = fx
        .graph
        .profile(user)
        .into_iter()
        .filter_map(|p| p.intensity)
        .collect();
    ConversionSeries {
        from_quantitative_table: original,
        from_graph: graph,
    }
}

// ---------------------------------------------------------------------
// Fig. 28 (coverage)
// ---------------------------------------------------------------------

/// Fig. 28: QT / QL / QT+QL / HYPRE coverage for one user.
pub fn coverage_report(fx: &Fixture, user: UserId) -> Result<CoverageReport> {
    let exec = fx.executor();
    coverage(
        &exec,
        &fx.graph,
        user,
        &fx.workload.quantitative,
        &fx.workload.qualitative,
    )
}

// ---------------------------------------------------------------------
// Figs. 29–31 (Combine-Two)
// ---------------------------------------------------------------------

/// Figs. 29–31 data: Combine-Two records under both semantics, with
/// inapplicable combinations removed (as the paper's plots do).
#[derive(Debug, Clone)]
pub struct CombineTwoFigs {
    /// AND semantics records (applicable only).
    pub and_records: Vec<CombinationRecord>,
    /// AND_OR semantics records (applicable only).
    pub and_or_records: Vec<CombinationRecord>,
}

/// Runs Combine-Two under both semantics.
pub fn combine_two_figs(fx: &Fixture, user: UserId) -> Result<CombineTwoFigs> {
    let exec = fx.executor();
    let atoms = fx.graph.positive_profile(user);
    let mut and_records = combine_two(&atoms, &exec, CombineSemantics::And)?;
    and_records.retain(CombinationRecord::applicable);
    let mut and_or_records = combine_two(&atoms, &exec, CombineSemantics::AndOr)?;
    and_or_records.retain(CombinationRecord::applicable);
    Ok(CombineTwoFigs {
        and_records,
        and_or_records,
    })
}

// ---------------------------------------------------------------------
// Figs. 32–34 (Partially-Combine-All)
// ---------------------------------------------------------------------

/// Figs. 32–34: the full Partially-Combine-All record stream.
pub fn partially_combine_all_figs(fx: &Fixture, user: UserId) -> Result<Vec<CombinationRecord>> {
    let exec = fx.executor();
    let atoms = fx.graph.positive_profile(user);
    partially_combine_all(&atoms, &exec)
}

// ---------------------------------------------------------------------
// Figs. 35–36 (Bias-Random)
// ---------------------------------------------------------------------

/// Figs. 35–36: `(valid, invalid)` counts per seeded run.
pub fn bias_random_figs(fx: &Fixture, user: UserId, runs: u64) -> Result<Vec<(usize, usize)>> {
    let exec = fx.executor();
    let atoms = fx.graph.positive_profile(user);
    let mut out = Vec::with_capacity(runs as usize);
    for seed in 0..runs {
        let stats = bias_random(&atoms, &exec, seed)?;
        out.push((stats.valid, stats.invalid));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Figs. 37–38 (PEPS vs TA)
// ---------------------------------------------------------------------

/// Figs. 37–38 data: the two intensity-ordered tuple series plus the
/// §7.6.2 metrics.
#[derive(Debug, Clone)]
pub struct PepsVsTa {
    /// The intensity threshold used (the user's maximum preference
    /// intensity, as in the paper).
    pub threshold: f64,
    /// PEPS tuples with intensity ≥ threshold, descending.
    pub peps: Vec<(Value, f64)>,
    /// TA tuples with grade ≥ threshold, descending.
    pub ta: Vec<(Value, f64)>,
    /// Definition 21 similarity of the two lists.
    pub similarity: f64,
    /// Definition 22 overlap of the two lists (literal positional form).
    pub overlap: f64,
    /// Tie-aware order agreement of the common tuples (the robust form of
    /// Definition 22; see [`hypre_core::metrics::order_concordance`]).
    pub concordance: f64,
}

/// Runs PEPS over the full hybrid profile against TA over the
/// *quantitative-only* graded lists (§7.6.1 builds TA's lists from the
/// quantitative preference tables — TA "cannot see" the converted
/// qualitative preferences, which is exactly why the dissertation reports
/// only ~37 % similarity while the common tuples keep their relative
/// order). Rankings are compared above the user's top preference
/// intensity, as in Figs. 37–38.
pub fn peps_vs_ta(fx: &Fixture, user: UserId, variant: PepsVariant) -> Result<PepsVsTa> {
    let exec = fx.executor();
    let atoms = fx.graph.positive_profile(user);
    let threshold = atoms.first().map(|a| a.intensity).unwrap_or(0.0);

    let pairs = PairwiseCache::build(&atoms, &exec)?;
    let peps_engine = Peps::new(&atoms, &exec, &pairs, variant);
    let k = 2048; // large enough to exhaust every ranked tuple at our scale
    let mut peps: Vec<(Value, f64)> = peps_engine.top_k(k)?;
    peps.retain(|(_, g)| *g >= threshold);

    // TA sees only the original (positive) quantitative preferences.
    let qt_atoms: Vec<PrefAtom> = fx
        .workload
        .quantitative
        .iter()
        .filter(|p| p.user == user && p.intensity.value() > 0.0)
        .enumerate()
        .map(|(i, p)| PrefAtom::new(i, p.predicate.clone(), p.intensity.value()))
        .collect();
    let lists = build_graded_lists(&exec, &qt_atoms)?;
    let mut ta: Vec<(Value, f64)> = threshold_algorithm(&lists, k, f_and_agg);
    ta.retain(|(_, g)| *g >= threshold);

    let peps_ids: Vec<Value> = peps.iter().map(|(t, _)| t.clone()).collect();
    let ta_ids: Vec<Value> = ta.iter().map(|(t, _)| t.clone()).collect();
    Ok(PepsVsTa {
        threshold,
        similarity: similarity(&peps_ids, &ta_ids),
        overlap: overlap(&peps_ids, &ta_ids),
        concordance: order_concordance(&peps, &ta),
        peps,
        ta,
    })
}

/// The §7.6.3 sanity check: on a quantitative-only graph PEPS and TA must
/// agree exactly (100 % similarity and overlap). Returns
/// `(similarity, overlap)`.
pub fn qt_only_equivalence(fx: &Fixture, user: UserId) -> Result<(f64, f64)> {
    let quants: Vec<QuantitativePref> = fx
        .workload
        .quantitative
        .iter()
        .filter(|p| p.user == user && p.intensity.value() > 0.0)
        .cloned()
        .collect();
    let mut graph = HypreGraph::new();
    graph.load(&quants, &[])?;
    let atoms = graph.positive_profile(user);
    let exec = fx.executor();
    let pairs = PairwiseCache::build(&atoms, &exec)?;
    let peps = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete).top_k(2048)?;
    let lists = build_graded_lists(&exec, &atoms)?;
    let ta = threshold_algorithm(&lists, 2048, f_and_agg);
    let peps_ids: Vec<Value> = peps.iter().map(|(t, _)| t.clone()).collect();
    let ta_ids: Vec<Value> = ta.iter().map(|(t, _)| t.clone()).collect();
    Ok((similarity(&peps_ids, &ta_ids), overlap(&peps_ids, &ta_ids)))
}

// ---------------------------------------------------------------------
// Figs. 39–40 (PEPS latency vs K)
// ---------------------------------------------------------------------

/// One latency measurement.
#[derive(Debug, Clone, Copy)]
pub struct LatencyPoint {
    /// The K of Top-K.
    pub k: usize,
    /// Approximate PEPS over the full hybrid profile.
    pub approximate: Duration,
    /// Complete PEPS over the full hybrid profile.
    pub complete: Duration,
    /// Approximate PEPS over the quantitative-only profile.
    pub quantitative_only: Duration,
}

/// Figs. 39–40: mean PEPS latency for each K, averaged over `reps` runs
/// (the paper averages 10 runs per K). Pair-cache build time is excluded,
/// as in the paper — the cache is maintained with the graph, not per
/// query.
pub fn peps_latency(
    fx: &Fixture,
    user: UserId,
    ks: &[usize],
    reps: usize,
) -> Result<Vec<LatencyPoint>> {
    let exec = fx.executor();
    let atoms = fx.graph.positive_profile(user);
    let pairs = PairwiseCache::build(&atoms, &exec)?;

    let qt_quants: Vec<QuantitativePref> = fx
        .workload
        .quantitative
        .iter()
        .filter(|p| p.user == user && p.intensity.value() > 0.0)
        .cloned()
        .collect();
    let mut qt_graph = HypreGraph::new();
    qt_graph.load(&qt_quants, &[])?;
    let qt_atoms = qt_graph.positive_profile(user);
    let qt_pairs = PairwiseCache::build(&qt_atoms, &exec)?;

    let mut out = Vec::with_capacity(ks.len());
    for &k in ks {
        let mut approx = Duration::ZERO;
        let mut complete = Duration::ZERO;
        let mut qt_only = Duration::ZERO;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            let _ = Peps::new(&atoms, &exec, &pairs, PepsVariant::Approximate).top_k(k)?;
            approx += t.elapsed();
            let t = Instant::now();
            let _ = Peps::new(&atoms, &exec, &pairs, PepsVariant::Complete).top_k(k)?;
            complete += t.elapsed();
            let t = Instant::now();
            let _ = Peps::new(&qt_atoms, &exec, &qt_pairs, PepsVariant::Approximate).top_k(k)?;
            qt_only += t.elapsed();
        }
        let n = reps.max(1) as u32;
        out.push(LatencyPoint {
            k,
            approximate: approx / n,
            complete: complete / n,
            quantitative_only: qt_only / n,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx() -> Fixture {
        Fixture::small()
    }

    #[test]
    fn table12_has_seven_rows_in_range() {
        let f = fx();
        let rows = table12_rows(&f, f.rich_user);
        assert_eq!(rows.len(), 7);
        for (label, v) in rows {
            assert!((-1.0..=1.0).contains(&v), "{label}: {v}");
        }
    }

    #[test]
    fn fig13_batches_cover_total() {
        let stats = fig13_insertion_scaling(2500, 1000);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|s| s.nodes).sum::<usize>(), 2500);
        assert_eq!(stats.last().unwrap().total_nodes_after, 2500);
    }

    #[test]
    fn fig17_buckets_sum_to_users() {
        let f = fx();
        let dist = fig17_distribution(&f, 10);
        let users: usize = dist.iter().map(|(_, n)| n).sum();
        assert_eq!(users, f.workload.preference_counts().len());
    }

    #[test]
    fn utility_series_has_pairs() {
        let f = fx();
        let series = utility_series(&f, f.rich_user, &[2, 5]).unwrap();
        let twos = &series[&2];
        assert!(!twos.is_empty(), "arity-2 combinations exist");
        for p in twos {
            assert!(p.utility <= 25.0 / 2.0, "page cap bounds utility");
        }
    }

    #[test]
    fn conversion_grows_the_profile() {
        let f = fx();
        let c = conversion_series(&f, f.rich_user);
        assert!(
            c.from_graph.len() > c.from_quantitative_table.len(),
            "HYPRE scores more predicates than the original table ({} vs {})",
            c.from_graph.len(),
            c.from_quantitative_table.len()
        );
        assert!(
            c.from_graph.windows(2).all(|w| w[0] >= w[1]),
            "descending order"
        );
    }

    #[test]
    fn coverage_hypre_dominates() {
        let f = fx();
        for user in f.study_users() {
            let r = coverage_report(&f, user).unwrap();
            assert!(r.hypre >= r.combined, "{user}: {r:?}");
            assert!(r.combined >= r.quantitative.max(r.qualitative));
        }
    }

    #[test]
    fn qt_only_peps_equals_ta_exactly() {
        let f = fx();
        for user in f.study_users() {
            let (sim, ovl) = qt_only_equivalence(&f, user).unwrap();
            assert!((sim - 1.0).abs() < 1e-12, "{user}: similarity {sim}");
            assert!((ovl - 1.0).abs() < 1e-12, "{user}: overlap {ovl}");
        }
    }

    #[test]
    fn hybrid_peps_covers_at_least_ta_above_threshold() {
        let f = fx();
        let r = peps_vs_ta(&f, f.rich_user, PepsVariant::Complete).unwrap();
        // The dissertation's two headline findings (§7.6.3): PEPS covers
        // at least as many tuples as TA (it sees the converted qualitative
        // preferences TA cannot), and the lists are only partially similar.
        assert!(
            r.peps.len() >= r.ta.len(),
            "PEPS ({}) finds at least as many tuples above {} as TA ({})",
            r.peps.len(),
            r.threshold,
            r.ta.len()
        );
        assert!((0.0..=1.0).contains(&r.similarity));
        assert!((0.0..=1.0).contains(&r.overlap));
    }

    #[test]
    fn latency_points_cover_requested_ks() {
        let f = fx();
        let pts = peps_latency(&f, f.modest_user, &[10, 50], 2).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].k, 10);
        assert!(pts.iter().all(|p| p.complete >= Duration::ZERO));
    }
}
