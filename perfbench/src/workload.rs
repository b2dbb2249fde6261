//! Inputs: the pinned corpus, the seeded profile picks and the request
//! streams of each workload. Nothing here reads the host; every draw
//! comes from the `--seed` argument through [`Rng`].

use dblp_workload::{extract, gen, DblpDataset, ExtractedWorkload, Paper, PaperAuthor};
use hypre_core::algo::peps::PepsVariant;
use hypre_core::combine::PrefAtom;
use hypre_core::graph::HypreGraph;
use hypre_core::serve::wire::{Request, WireAtom};
use relstore::parse_predicate;

use crate::params::{Params, Traffic, CORPUS, K100_SHARE, ZIPF_EXPONENT};
use crate::rng::Rng;

/// Independent draw streams made from one seed.
const STREAM_USERS: u64 = 1;
const STREAM_REQUESTS: u64 = 2;
const STREAM_SCHEDULE: u64 = 3;
const STREAM_CHECK: u64 = 4;

/// The generated corpus and its extracted preferences.
pub struct Corpus {
    /// Papers, authors, citations and authorship links.
    pub dataset: DblpDataset,
    /// The extracted `quantitative_pref` / `qualitative_pref` rows.
    pub prefs: ExtractedWorkload,
}

/// Generates the pinned corpus (its generator seed is a parameter, not
/// the run seed, so every run measures the same data).
pub fn corpus() -> Corpus {
    let dataset = gen::generate(&gen::GeneratorConfig {
        seed: CORPUS.seed,
        papers: CORPUS.papers,
        authors: CORPUS.authors,
        venues: CORPUS.venues,
        ..gen::GeneratorConfig::default()
    });
    let prefs = extract::extract(&dataset, &extract::ExtractionConfig::default());
    Corpus { dataset, prefs }
}

/// The corpus split for live ingest: a base prefix plus the appended
/// papers (and their authorship links) in arrival order.
pub struct LiveSplit {
    /// The corpus as it stands when the cache is warmed.
    pub base: DblpDataset,
    /// Delta `i`: the papers and links that arrive in the `i`-th ingest.
    pub deltas: Vec<(Vec<Paper>, Vec<PaperAuthor>)>,
}

/// Carves the last `share` of the papers into `count` append-only deltas.
pub fn live_split(dataset: &DblpDataset, share: f64, count: usize) -> LiveSplit {
    let total = dataset.papers.len();
    let keep = total - ((total as f64 * share).round() as usize).max(count);
    let mut base = dataset.clone();
    base.papers.truncate(keep);
    let kept_max = base.papers.last().map_or(0, |p| p.pid);
    base.paper_authors.retain(|pa| pa.pid <= kept_max);
    let tail = &dataset.papers[keep..];
    let per = tail.len().div_ceil(count);
    let deltas = tail
        .chunks(per)
        .map(|chunk| {
            let (lo, hi) = (chunk[0].pid, chunk[chunk.len() - 1].pid);
            let links = dataset
                .paper_authors
                .iter()
                .filter(|pa| pa.pid >= lo && pa.pid <= hi)
                .cloned()
                .collect();
            (chunk.to_vec(), links)
        })
        .collect();
    LiveSplit { base, deltas }
}

/// One user's positive profile.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The user (also the tenant id of its requests).
    pub user: u64,
    /// The atoms, strongest first.
    pub atoms: Vec<PrefAtom>,
}

/// Picks `count` distinct users with a non-empty positive profile, in a
/// seeded order. The workloads pass the pinned
/// [`PROFILE_SEED`](crate::params::PROFILE_SEED): the user population is
/// part of a workload, and the run seed varies the traffic drawn from it.
pub fn pick_profiles(graph: &HypreGraph, seed: u64, count: usize) -> Vec<Profile> {
    let mut users: Vec<u64> = graph
        .users()
        .into_iter()
        .filter(|u| !graph.positive_profile(*u).is_empty())
        .map(|u| u.0)
        .collect();
    users.sort_unstable();
    Rng::new(seed, STREAM_USERS).shuffle(&mut users);
    assert!(
        users.len() >= count,
        "corpus has {} users with a profile, {count} needed",
        users.len()
    );
    users[..count]
        .iter()
        .map(|&user| Profile {
            user,
            atoms: graph.positive_profile(hypre_core::preference::UserId(user)),
        })
        .collect()
}

/// Cumulative Zipf(`exponent`) weights over `items` ranks (rank 0 hottest).
pub fn zipf_cdf(items: usize, exponent: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..items)
        .map(|rank| {
            acc += 1.0 / ((rank + 1) as f64).powf(exponent);
            acc
        })
        .collect();
    for w in &mut cdf {
        *w /= acc;
    }
    cdf
}

/// One Zipf draw from a [`zipf_cdf`] table.
pub fn zipf_draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// One fresh `BETWEEN` or `IN` atom over paper ids that no warmed
/// profile holds: a random id range or a random handful of ids.
pub fn adhoc_atom(rng: &mut Rng) -> WireAtom {
    let pid = |rng: &mut Rng| 1 + rng.below(CORPUS.papers) as u64;
    let predicate = if rng.below(2) == 0 {
        let lo = pid(rng);
        format!(
            "dblp.pid BETWEEN {lo} AND {}",
            lo + 200 + rng.below(1800) as u64
        )
    } else {
        let pids: Vec<String> = (0..5).map(|_| pid(rng).to_string()).collect();
        format!("dblp.pid IN ({})", pids.join(", "))
    };
    // Two decimals keep the intensity exact on the wire and in the text.
    let intensity = (5 + rng.below(91)) as f64 / 100.0;
    WireAtom {
        predicate,
        intensity,
    }
}

/// The wire form of a profile's atoms.
pub fn wire_atoms(atoms: &[PrefAtom]) -> Vec<WireAtom> {
    atoms
        .iter()
        .map(|a| WireAtom {
            predicate: a.predicate.canonical(),
            intensity: a.intensity,
        })
        .collect()
}

/// Draws `count` Top-K requests of a workload's traffic shape for rate
/// step `step` (each step draws its own stream).
pub fn requests(
    params: &Params,
    profiles: &[Profile],
    seed: u64,
    step: u64,
    count: usize,
) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ step.wrapping_mul(0x9E37_79B9), STREAM_REQUESTS);
    let cdf = match params.traffic {
        Traffic::Zipf => zipf_cdf(profiles.len(), ZIPF_EXPONENT),
        Traffic::Adhoc => Vec::new(),
    };
    (0..count)
        .map(|_| {
            let (profile, fresh) = match params.traffic {
                Traffic::Zipf => (&profiles[zipf_draw(&cdf, &mut rng)], false),
                Traffic::Adhoc => (&profiles[rng.below(profiles.len())], true),
            };
            let mut atoms = wire_atoms(&profile.atoms);
            if fresh {
                atoms.push(adhoc_atom(&mut rng));
            }
            let k = if rng.unit() < K100_SHARE { 100 } else { 10 };
            Request::TopK {
                tenant: profile.user,
                k,
                variant: PepsVariant::Complete,
                atoms,
            }
        })
        .collect()
}

/// Open-loop Poisson arrivals at `rate` per second: `count` send times,
/// in seconds from the start of the step.
pub fn poisson_schedule(rate: f64, count: usize, seed: u64, step: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ step.wrapping_mul(0x9E37_79B9), STREAM_SCHEDULE);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += rng.exp(1.0 / rate);
            t
        })
        .collect()
}

/// A seeded sample of `share` of the indices `0..n` (sorted).
pub fn check_sample(n: usize, share: f64, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, STREAM_CHECK);
    (0..n).filter(|_| rng.unit() < share).collect()
}

/// The profile an admitted request resolves to, built exactly as the
/// server admits it: predicates parsed, atoms stably sorted strongest
/// first, re-indexed.
pub fn admitted_profile(atoms: &[WireAtom]) -> Vec<PrefAtom> {
    let mut parsed: Vec<_> = atoms
        .iter()
        .map(|a| {
            let p = parse_predicate(&a.predicate).expect("generated predicates parse");
            (p, a.intensity)
        })
        .collect();
    parsed.sort_by(|a, b| b.1.total_cmp(&a.1));
    parsed
        .into_iter()
        .enumerate()
        .map(|(i, (p, w))| PrefAtom::new(i, p, w))
        .collect()
}
