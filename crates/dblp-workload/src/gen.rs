//! A seeded synthetic DBLP generator.
//!
//! The real DBLP-Citation-network V4 dump is proprietary and 1.6 M papers
//! deep; what the dissertation's experiments actually depend on is the
//! *shape* of the data, not its identity:
//!
//! * venue popularity is heavy-tailed (Zipf) — some venues host a large
//!   share of papers;
//! * authors form venue-centric communities — an author repeatedly
//!   publishes in a small set of home venues (this is what makes the
//!   top-5 venue extraction of §6.2.1 meaningful);
//! * author productivity follows preferential attachment — a long tail of
//!   one-paper authors and a few prolific ones (the Fig. 17 distribution);
//! * citations prefer earlier, already-cited papers in nearby communities
//!   (so citation-based author preferences are concentrated).
//!
//! All randomness flows from a single seed, so every fixture, test and
//! bench is reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{Author, Citation, DblpDataset, Paper, PaperAuthor};

/// Generator parameters. `Default` gives a laptop-friendly corpus that
/// preserves the distributional shape of the full dump.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed; equal seeds give identical datasets.
    pub seed: u64,
    /// Number of papers.
    pub papers: usize,
    /// Number of authors.
    pub authors: usize,
    /// Number of venues.
    pub venues: usize,
    /// Publication years, inclusive.
    pub year_range: (i64, i64),
    /// Maximum authors per paper (minimum is 1).
    pub max_authors_per_paper: usize,
    /// Mean outgoing citations per paper.
    pub mean_citations: f64,
    /// Zipf skew for venue popularity (1.0 ≈ classic Zipf).
    pub venue_skew: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 42,
            papers: 4000,
            authors: 1500,
            venues: 60,
            year_range: (1990, 2011),
            max_authors_per_paper: 5,
            mean_citations: 3.0,
            venue_skew: 1.0,
        }
    }
}

impl GeneratorConfig {
    /// A small corpus for fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            papers: 300,
            authors: 120,
            venues: 8,
            ..GeneratorConfig::default()
        }
    }
}

/// Venue names modelled on the dissertation's examples.
const VENUE_STEMS: [&str; 12] = [
    "VLDB", "SIGMOD", "PODS", "ICDE", "PVLDB", "INFOCOM", "CIKM", "EDBT", "KDD", "WWW", "SODA",
    "NSDI",
];

fn venue_name(i: usize) -> String {
    if i < VENUE_STEMS.len() {
        VENUE_STEMS[i].to_owned()
    } else {
        format!("CONF-{i}")
    }
}

/// Draws an index in `0..n` from a Zipf-like distribution with skew `s`.
fn zipf(rng: &mut StdRng, n: usize, s: f64, weights: &mut Vec<f64>) -> usize {
    if weights.len() != n {
        *weights = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        for w in weights.iter_mut() {
            *w /= total;
        }
        // cumulative
        let mut acc = 0.0;
        for w in weights.iter_mut() {
            acc += *w;
            *w = acc;
        }
    }
    let x: f64 = rng.gen();
    weights.partition_point(|&c| c < x).min(n - 1)
}

/// A streaming paper generator: yields each paper with its author-id
/// list one at a time, holding only the community rosters and their
/// pick weights (O(authors) memory) — never the corpus itself. This is the
/// constant-memory path `load_streamed` uses to build million-paper
/// databases without materialising a [`DblpDataset`] first.
///
/// The stream performs the author and paper phases of [`generate`] with
/// the *identical* RNG draw sequence ([`generate`] is itself implemented
/// on top of it), so for equal configs the streamed papers are exactly
/// the materialised ones. Citations are not streamed: they need the
/// whole paper list for rich-get-richer sampling, so they exist only on
/// the materialised path.
pub struct PaperStream {
    rng: StdRng,
    config: GeneratorConfig,
    venue_weights: Vec<f64>,
    community: Vec<Roster>,
    /// Per author id: its `(venue, position)` in its home roster (the
    /// entry for id 0 is unused).
    home_slot: Vec<(usize, usize)>,
    /// `(author id, venue, position)` of each author added to a venue
    /// that had no home members.
    drafted: Vec<(u64, usize, usize)>,
    next_paper: usize,
}

/// One venue's community: its members, and a Fenwick tree over their
/// pick weights `degree + 1`.
struct Roster {
    members: Vec<u64>,
    /// 1-based: `tree[i]` sums the weights of members
    /// `i − lowbit(i) .. i` (0-based, end exclusive).
    tree: Vec<usize>,
    total: usize,
}

impl Roster {
    /// A roster whose members all have degree 0 (weight 1).
    fn new(members: Vec<u64>) -> Self {
        let n = members.len();
        Roster {
            members,
            tree: (0..=n).map(|i| i & i.wrapping_neg()).collect(),
            total: n,
        }
    }

    /// Adds one to the weight of the member at `pos`.
    fn bump(&mut self, pos: usize) {
        let mut i = pos + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
        self.total += 1;
    }

    /// The first member whose cumulative weight exceeds `x < total`.
    fn find(&self, mut x: usize) -> u64 {
        let n = self.tree.len() - 1;
        let mut pos = 0;
        let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= x {
                pos = next;
                x -= self.tree[next];
            }
            step >>= 1;
        }
        self.members[pos]
    }
}

impl PaperStream {
    /// Runs the author phase (home-venue communities) and positions the
    /// stream at the first paper.
    pub fn new(config: GeneratorConfig) -> Self {
        assert!(config.papers > 0 && config.authors > 0 && config.venues > 0);
        assert!(config.year_range.0 <= config.year_range.1);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Authors, each with a home venue (community) drawn Zipf-like so
        // big venues host big communities.
        let mut venue_weights = Vec::new();
        let home_venue: Vec<usize> = (0..config.authors)
            .map(|_| {
                zipf(
                    &mut rng,
                    config.venues,
                    config.venue_skew,
                    &mut venue_weights,
                )
            })
            .collect();
        // Community rosters for fast sampling.
        let mut community: Vec<Vec<u64>> = vec![Vec::new(); config.venues];
        let mut home_slot = vec![(0, 0); config.authors + 1];
        for (i, &v) in home_venue.iter().enumerate() {
            home_slot[i + 1] = (v, community[v].len());
            community[v].push(i as u64 + 1);
        }
        let mut drafted = Vec::new();
        for (v, members) in community.iter_mut().enumerate() {
            if members.is_empty() {
                // Guarantee each venue has at least one potential author.
                let aid = (v % config.authors) as u64 + 1;
                drafted.push((aid, v, 0));
                members.push(aid);
            }
        }
        PaperStream {
            rng,
            config,
            venue_weights,
            community: community.into_iter().map(Roster::new).collect(),
            home_slot,
            drafted,
            next_paper: 0,
        }
    }

    /// The author rows of the corpus (synthesised, no RNG draws).
    pub fn author_rows(&self) -> impl Iterator<Item = Author> {
        (0..self.config.authors).map(|i| Author {
            aid: i as u64 + 1,
            full_name: format!("Author {}", i + 1),
        })
    }

    /// Papers this stream will yield in total.
    pub fn paper_count(&self) -> usize {
        self.config.papers
    }

    /// Hands back the RNG once the paper phase is done, positioned
    /// exactly where [`generate`]'s citation phase expects it.
    fn into_rng(self) -> StdRng {
        debug_assert_eq!(self.next_paper, self.config.papers, "stream drained");
        self.rng
    }
}

impl Iterator for PaperStream {
    type Item = (Paper, Vec<u64>);

    fn next(&mut self) -> Option<Self::Item> {
        // Papers: venue Zipf-drawn; years uniform; author count
        // geometric-ish with preferential attachment inside the venue
        // community.
        if self.next_paper >= self.config.papers {
            return None;
        }
        let pid = self.next_paper as u64 + 1;
        self.next_paper += 1;
        let venue_idx = zipf(
            &mut self.rng,
            self.config.venues,
            self.config.venue_skew,
            &mut self.venue_weights,
        );
        let year = self
            .rng
            .gen_range(self.config.year_range.0..=self.config.year_range.1);
        let paper = Paper {
            pid,
            title: format!("Paper {pid}"),
            year,
            venue: venue_name(venue_idx),
        };
        // 1..=max authors, biased towards fewer.
        let mut n_authors = 1;
        while n_authors < self.config.max_authors_per_paper && self.rng.gen_bool(0.45) {
            n_authors += 1;
        }
        let mut chosen: Vec<u64> = Vec::with_capacity(n_authors);
        let roster = &self.community[venue_idx];
        for _ in 0..n_authors {
            // 60 %: home-community author (preferential by degree);
            // 40 %: anyone (cross-community collaboration). The split
            // keeps authors venue-concentrated without driving their
            // top venue share to 1.0 (the dissertation's profiles top
            // out around 0.5, Fig. 26).
            let aid = if self.rng.gen_bool(0.6) {
                roster.find(self.rng.gen_range(0..roster.total))
            } else {
                self.rng.gen_range(1..=self.config.authors as u64)
            };
            if !chosen.contains(&aid) {
                chosen.push(aid);
            }
        }
        for &aid in &chosen {
            let (v, pos) = self.home_slot[aid as usize];
            self.community[v].bump(pos);
            for &(_, v, pos) in self.drafted.iter().filter(|d| d.0 == aid) {
                self.community[v].bump(pos);
            }
        }
        Some((paper, chosen))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.config.papers - self.next_paper;
        (left, Some(left))
    }
}

/// Generates a dataset from the configuration.
pub fn generate(config: &GeneratorConfig) -> DblpDataset {
    let mut stream = PaperStream::new(config.clone());
    let authors: Vec<Author> = stream.author_rows().collect();
    let mut papers = Vec::with_capacity(config.papers);
    let mut paper_authors = Vec::with_capacity(config.papers * 2);
    for (paper, chosen) in stream.by_ref() {
        let pid = paper.pid;
        papers.push(paper);
        for aid in chosen {
            paper_authors.push(PaperAuthor { pid, aid });
        }
    }
    let mut rng = stream.into_rng();

    // Citations: each paper cites earlier papers, preferring already-cited
    // ones (rich get richer) and its own venue 60 % of the time.
    let mut citations = Vec::new();
    let mut cite_count: Vec<usize> = vec![0; config.papers + 1];
    // Papers indexed by venue for biased picking.
    let mut by_venue: Vec<Vec<usize>> = vec![Vec::new(); config.venues];
    let mut venue_of_paper: Vec<usize> = Vec::with_capacity(config.papers);
    for (i, paper) in papers.iter().enumerate() {
        let vi = VENUE_STEMS
            .iter()
            .position(|s| *s == paper.venue)
            .unwrap_or_else(|| paper.venue[5..].parse::<usize>().expect("CONF-i format"));
        by_venue[vi].push(i);
        venue_of_paper.push(vi);
    }
    for (i, paper) in papers.iter().enumerate() {
        let n_cites = sample_poissonish(&mut rng, config.mean_citations);
        let mut seen: Vec<u64> = Vec::with_capacity(n_cites);
        for _ in 0..n_cites {
            let candidate_pool: &[usize] = if rng.gen_bool(0.6) {
                &by_venue[venue_of_paper[i]]
            } else {
                // any paper
                &[]
            };
            let target = pick_citation_target(
                &mut rng,
                &papers,
                candidate_pool,
                &cite_count,
                paper.year,
                i,
            );
            if let Some(t) = target {
                let cid = papers[t].pid;
                if !seen.contains(&cid) {
                    seen.push(cid);
                    cite_count[t + 1] += 1;
                    citations.push(Citation {
                        pid: paper.pid,
                        cid,
                    });
                }
            }
        }
    }

    DblpDataset {
        papers,
        authors,
        citations,
        paper_authors,
    }
}

fn sample_poissonish(rng: &mut StdRng, mean: f64) -> usize {
    // A simple geometric approximation of a Poisson with the given mean —
    // the experiments only need a skewed small count.
    let p = 1.0 / (1.0 + mean);
    let mut n = 0;
    while n < 12 && !rng.gen_bool(p) {
        n += 1;
    }
    n
}

fn pick_citation_target(
    rng: &mut StdRng,
    papers: &[Paper],
    pool: &[usize],
    cite_count: &[usize],
    citing_year: i64,
    citing_idx: usize,
) -> Option<usize> {
    // Try a handful of samples; accept earlier-or-equal-year targets with
    // probability weighted by citation count (rich get richer).
    for _ in 0..8 {
        let cand = if pool.is_empty() {
            rng.gen_range(0..papers.len())
        } else {
            pool[rng.gen_range(0..pool.len())]
        };
        if cand == citing_idx || papers[cand].year > citing_year {
            continue;
        }
        let w = cite_count[cand + 1] + 1;
        if rng.gen_ratio(w.min(10) as u32, 10) || rng.gen_bool(0.3) {
            return Some(cand);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn roster_picks_the_member_a_cumulative_scan_picks() {
        // Weights `degree + 1` over a scan of the same draw, after
        // arbitrary bumps, at roster sizes around powers of two.
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 3, 7, 8, 9, 64, 100] {
            let mut roster = Roster::new((0..n as u64).map(|a| a * 10).collect());
            let mut weight = vec![1usize; n];
            for _ in 0..200 {
                let pos = rng.gen_range(0..n);
                roster.bump(pos);
                weight[pos] += 1;
                assert_eq!(roster.total, weight.iter().sum::<usize>());
                let x = rng.gen_range(0..roster.total);
                let mut left = x;
                let want = weight
                    .iter()
                    .position(|&w| {
                        left < w || {
                            left -= w;
                            false
                        }
                    })
                    .unwrap();
                assert_eq!(roster.find(x), roster.members[want], "n {n}, x {x}");
            }
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let c = GeneratorConfig::tiny(7);
        let a = generate(&c);
        let b = generate(&c);
        assert_eq!(a.papers, b.papers);
        assert_eq!(a.citations, b.citations);
        assert_eq!(a.paper_authors, b.paper_authors);
    }

    #[test]
    fn stream_yields_exactly_the_materialised_papers() {
        let c = GeneratorConfig::tiny(9);
        let d = generate(&c);
        let mut links: Vec<PaperAuthor> = Vec::new();
        let papers: Vec<Paper> = PaperStream::new(c.clone())
            .map(|(p, aids)| {
                for aid in aids {
                    links.push(PaperAuthor { pid: p.pid, aid });
                }
                p
            })
            .collect();
        assert_eq!(papers, d.papers);
        assert_eq!(links, d.paper_authors);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig::tiny(1));
        let b = generate(&GeneratorConfig::tiny(2));
        assert_ne!(a.paper_authors, b.paper_authors);
    }

    #[test]
    fn respects_cardinalities() {
        let c = GeneratorConfig::tiny(3);
        let d = generate(&c);
        assert_eq!(d.papers.len(), c.papers);
        assert_eq!(d.authors.len(), c.authors);
        assert!(d.venues().len() <= c.venues);
    }

    #[test]
    fn every_paper_has_at_least_one_author() {
        let d = generate(&GeneratorConfig::tiny(4));
        let with_authors: HashSet<u64> = d.paper_authors.iter().map(|pa| pa.pid).collect();
        for p in &d.papers {
            assert!(with_authors.contains(&p.pid), "paper {} authorless", p.pid);
        }
    }

    #[test]
    fn citations_point_backwards_in_time() {
        let d = generate(&GeneratorConfig::tiny(5));
        let year: HashMap<u64, i64> = d.papers.iter().map(|p| (p.pid, p.year)).collect();
        assert!(!d.citations.is_empty());
        for c in &d.citations {
            assert!(year[&c.pid] >= year[&c.cid], "citation into the future");
            assert_ne!(c.pid, c.cid, "self-citation");
        }
    }

    #[test]
    fn venue_popularity_is_skewed() {
        let d = generate(&GeneratorConfig::default());
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for p in &d.papers {
            *counts.entry(p.venue.as_str()).or_default() += 1;
        }
        let mut sizes: Vec<usize> = counts.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        // the top venue should host several times the median venue
        let median = sizes[sizes.len() / 2].max(1);
        assert!(
            sizes[0] >= 3 * median,
            "expected heavy tail, top={} median={median}",
            sizes[0]
        );
    }

    #[test]
    fn author_productivity_is_right_skewed() {
        let d = generate(&GeneratorConfig::default());
        let mut per_author: HashMap<u64, usize> = HashMap::new();
        for pa in &d.paper_authors {
            *per_author.entry(pa.aid).or_default() += 1;
        }
        let mut sorted: Vec<usize> = per_author.values().copied().collect();
        sorted.sort_unstable();
        let max = *sorted.last().unwrap();
        let median = sorted[sorted.len() / 2];
        assert!(max >= 10, "some authors are prolific (max={max})");
        assert!(
            max >= 4 * median.max(1),
            "preferential attachment skews productivity: max={max} median={median}"
        );
    }

    #[test]
    fn authors_concentrate_in_home_venues() {
        let d = generate(&GeneratorConfig::default());
        let venue_of: HashMap<u64, &str> =
            d.papers.iter().map(|p| (p.pid, p.venue.as_str())).collect();
        // For authors with ≥ 5 papers, the dominant venue share should be
        // well above uniform.
        let mut per_author: HashMap<u64, Vec<&str>> = HashMap::new();
        for pa in &d.paper_authors {
            per_author
                .entry(pa.aid)
                .or_default()
                .push(venue_of[&pa.pid]);
        }
        let mut checked = 0;
        let mut concentrated = 0;
        for venues in per_author.values().filter(|v| v.len() >= 5) {
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for v in venues {
                *counts.entry(v).or_default() += 1;
            }
            let top = counts.values().copied().max().unwrap();
            checked += 1;
            if top as f64 / venues.len() as f64 > 0.4 {
                concentrated += 1;
            }
        }
        assert!(checked > 10, "need enough prolific authors to judge");
        assert!(
            concentrated * 3 >= checked * 2,
            "most prolific authors should have a home venue ({concentrated}/{checked})"
        );
    }
}
