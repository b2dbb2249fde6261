//! The standard experiment fixture: one seeded corpus, its extracted
//! workload, the loaded database and the ingested HYPRE graph, plus the
//! two designated study users.
//!
//! The dissertation reports every per-user experiment for `uid=2` (a rich
//! profile, ~170 graph preferences) and `uid=38437` (a modest one, ~50).
//! The fixture picks analogous users from the synthetic corpus: the user
//! with the most extracted preferences, and a mid-tail user.

use dblp_workload::{extract, gen, load, DblpDataset, ExtractedWorkload};
use hypre_core::prelude::*;
use relstore::Database;

/// A fully prepared experiment environment.
pub struct Fixture {
    /// The synthetic corpus.
    pub dataset: DblpDataset,
    /// The extracted preferences (the original `quantitative_pref` /
    /// `qualitative_pref` tables).
    pub workload: ExtractedWorkload,
    /// The loaded relational database.
    pub db: Database,
    /// The ingested HYPRE graph.
    pub graph: HypreGraph,
    /// Load timing/conflict report (Table 11).
    pub ingest: IngestReport,
    /// The `uid=2` analogue: richest profile.
    pub rich_user: UserId,
    /// The `uid=38437` analogue: mid-tail profile.
    pub modest_user: UserId,
}

impl Fixture {
    /// The standard corpus (4 000 papers) used by the `experiments` binary.
    pub fn standard() -> Self {
        Fixture::build(gen::GeneratorConfig::default())
    }

    /// A small corpus for fast benches and integration tests.
    pub fn small() -> Self {
        Fixture::build(gen::GeneratorConfig {
            papers: 1200,
            authors: 500,
            venues: 30,
            ..gen::GeneratorConfig::default()
        })
    }

    /// A fixture over an `n`-paper corpus with proportionally scaled
    /// author and venue populations — the 2k/20k scaling axis of the
    /// bitset-vs-hashset benches.
    pub fn papers(n: usize) -> Self {
        Fixture::build(gen::GeneratorConfig {
            papers: n,
            authors: (n * 2 / 5).max(50),
            venues: (n / 65).clamp(8, 120),
            ..gen::GeneratorConfig::default()
        })
    }

    /// Builds a fixture from a generator configuration.
    pub fn build(config: gen::GeneratorConfig) -> Self {
        let dataset = gen::generate(&config);
        // A small conflict-injection rate exercises the CYCLE/DISCARD
        // machinery at workload scale (clean §6.2 extraction can never
        // conflict; see `ExtractionConfig::conflict_rate`).
        let workload = extract::extract(
            &dataset,
            &extract::ExtractionConfig {
                conflict_rate: 0.03,
                ..extract::ExtractionConfig::default()
            },
        );
        let db = load::load(&dataset).expect("schema is valid");
        let mut graph = HypreGraph::new();
        let ingest = graph
            .load(&workload.quantitative, &workload.qualitative)
            .expect("extracted preferences are valid");
        let (rich_user, modest_user) = pick_users(&workload);
        Fixture {
            dataset,
            workload,
            db,
            graph,
            ingest,
            rich_user,
            modest_user,
        }
    }

    /// A fresh executor over the fixture database with the paper's base
    /// query.
    pub fn executor(&self) -> Executor<'_> {
        Executor::new(&self.db, BaseQuery::dblp())
    }

    /// The two study users, in `(rich, modest)` order.
    pub fn study_users(&self) -> [UserId; 2] {
        [self.rich_user, self.modest_user]
    }
}

/// Picks the richest user and a mid-tail user with a meaningful profile.
/// Each user's strongest quantitative intensity comes from one pass over
/// the preferences.
fn pick_users(workload: &ExtractedWorkload) -> (UserId, UserId) {
    let mut strongest: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for p in &workload.quantitative {
        let max = strongest.entry(p.user.0).or_insert(0.0);
        *max = max.max(p.intensity.value());
    }
    pick_users_by(workload, |uid| strongest.get(&uid).copied().unwrap_or(0.0))
}

/// [`pick_users`] given each user's strongest quantitative intensity
/// (`0.0` for a user with none).
fn pick_users_by(
    workload: &ExtractedWorkload,
    max_intensity: impl Fn(u64) -> f64,
) -> (UserId, UserId) {
    let counts = workload.preference_counts();
    // Study users must have a non-saturated top preference: a profile whose
    // strongest intensity is exactly 1.0 turns every intensity figure into
    // a flat line at 1.0 (the threshold filter of Figs. 37–38 then matches
    // only the 1.0-scoring tuples on both sides).
    let rich = counts
        .iter()
        .filter(|(uid, _)| max_intensity(**uid) < 0.95)
        .max_by_key(|(uid, n)| (**n, std::cmp::Reverse(**uid)))
        .or_else(|| counts.iter().max_by_key(|(_, n)| **n))
        .map(|(uid, _)| UserId(*uid))
        .expect("workload has users");
    // Mid-tail: the user closest to 40 % of the richest count, with at
    // least 8 preferences so every experiment has material to work with.
    let rich_n = counts[&rich.0];
    let target = (rich_n * 2 / 5).max(8);
    // Per user: predicates that only appear on the qualitative side — each
    // becomes a *new* scored node during ingest, which is what the
    // conversion and coverage figures measure. The modest user must gain
    // some, or those figures degenerate to flat lines.
    let mut quantitative_preds: std::collections::HashMap<u64, std::collections::HashSet<String>> =
        std::collections::HashMap::new();
    for p in &workload.quantitative {
        quantitative_preds
            .entry(p.user.0)
            .or_default()
            .insert(p.predicate.canonical());
    }
    let mut conversion_growth: std::collections::HashMap<u64, usize> =
        std::collections::HashMap::new();
    for p in &workload.qualitative {
        let known = quantitative_preds.entry(p.user.0).or_default();
        for side in [&p.left, &p.right] {
            let key = side.canonical();
            if !known.contains(&key) {
                known.insert(key);
                *conversion_growth.entry(p.user.0).or_default() += 1;
            }
        }
    }
    let modest = counts
        .iter()
        .filter(|(uid, _)| **uid != rich.0)
        .filter(|(_, n)| **n >= 8)
        .filter(|(uid, _)| max_intensity(**uid) < 0.95)
        .filter(|(uid, _)| conversion_growth.get(*uid).copied().unwrap_or(0) >= 5)
        .min_by_key(|(_, n)| n.abs_diff(target))
        .map(|(uid, _)| UserId(*uid))
        .unwrap_or(rich);
    (rich, modest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fixture_is_coherent() {
        let f = Fixture::small();
        assert!(f.graph.node_count() > 0);
        assert!(f.ingest.quantitative > 0);
        assert!(f.ingest.qualitative > 0);
        assert_ne!(f.rich_user, f.modest_user);
        f.graph.check_invariants().unwrap();
        // the rich user has a usable positive profile
        let profile = f.graph.positive_profile(f.rich_user);
        assert!(
            profile.len() >= 8,
            "rich profile has {} atoms",
            profile.len()
        );
        let modest = f.graph.positive_profile(f.modest_user);
        assert!(!modest.is_empty());
        assert!(profile.len() >= modest.len());
    }

    #[test]
    fn study_users_match_the_per_user_scan_at_2k_papers() {
        let config = gen::GeneratorConfig {
            papers: 2000,
            authors: 800,
            venues: 30,
            ..gen::GeneratorConfig::default()
        };
        let workload = extract::extract(
            &gen::generate(&config),
            &extract::ExtractionConfig {
                conflict_rate: 0.03,
                ..extract::ExtractionConfig::default()
            },
        );
        // The O(users × preferences) scan `pick_users` used to run per
        // candidate user.
        let scan = |uid: u64| {
            workload
                .quantitative
                .iter()
                .filter(|p| p.user.0 == uid)
                .map(|p| p.intensity.value())
                .fold(0.0f64, f64::max)
        };
        let picks = pick_users(&workload);
        assert_eq!(picks, pick_users_by(&workload, scan));
        assert_ne!(picks.0, picks.1, "two distinct study users");
    }

    #[test]
    fn fixtures_are_reproducible() {
        let a = Fixture::small();
        let b = Fixture::small();
        assert_eq!(a.rich_user, b.rich_user);
        assert_eq!(a.modest_user, b.modest_user);
        assert_eq!(a.workload.quantitative.len(), b.workload.quantitative.len());
    }
}
