//! The answer check: a served reply must be byte-identical to a solo
//! `Peps::top_k` on a fresh `Executor` over the matching corpus. Runs
//! outside every timed window.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use hypre_core::algo::peps::{Peps, PepsVariant};
use hypre_core::exec::{BaseQuery, Executor, PairwiseCache};
use hypre_core::serve::wire::{self, Request, Response};
use relstore::Database;

use perfbench::workload;

/// Solo answers over one corpus, memoised per distinct request.
pub struct Checker<'db> {
    exec: Executor<'db>,
    memo: HashMap<Vec<u8>, Vec<u8>>,
    /// Wall time of each atom resolution that ran a relstore query (µs):
    /// every atom misses on this fresh executor once.
    pub select_us: Vec<f64>,
}

impl<'db> Checker<'db> {
    /// A checker with a fresh executor over `db`.
    pub fn new(db: &'db Database) -> Self {
        Checker {
            exec: Executor::new(db, BaseQuery::dblp()),
            memo: HashMap::new(),
            select_us: Vec::new(),
        }
    }

    /// The encoded reply a solo evaluation of `request` gives.
    pub fn expected(&mut self, request: &Request) -> Vec<u8> {
        let key = wire::encode_request(&strip_tenant(request));
        if let Some(reply) = self.memo.get(&key) {
            return reply.clone();
        }
        let Request::TopK { k, atoms, .. } = request else {
            unreachable!("only Top-K requests are checked");
        };
        let profile = workload::admitted_profile(atoms);
        for atom in &profile {
            let before = self.exec.queries_run();
            let t = Instant::now();
            self.exec
                .tuple_set(&atom.predicate)
                .expect("generated predicates resolve");
            if self.exec.queries_run() > before {
                self.select_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let response = PairwiseCache::build(&profile, &self.exec)
            .and_then(|pairs| {
                Peps::new(&profile, &self.exec, &pairs, PepsVariant::Complete).top_k(*k as usize)
            })
            .map_or_else(
                |e| Response::Error {
                    code: wire::ErrorCode::Engine,
                    detail: e.to_string(),
                },
                Response::TopK,
            );
        let reply = wire::encode_response(&response);
        self.memo.insert(key, reply.clone());
        reply
    }
}

/// The request with its tenant zeroed: the tenant only attributes stats,
/// so two tenants asking the same profile get the same answer.
fn strip_tenant(request: &Request) -> Request {
    match request {
        Request::TopK {
            k, variant, atoms, ..
        } => Request::TopK {
            tenant: 0,
            k: *k,
            variant: *variant,
            atoms: atoms.clone(),
        },
        other => other.clone(),
    }
}

/// Which requests of a step keep their replies for the check: a seeded
/// `share` of all, plus the first request in the run of every distinct
/// (profile, k) — the profile being the tenant's; `seen` carries the
/// pairs earlier steps already kept.
pub fn keep_mask(
    requests: &[Request],
    share: f64,
    seed: u64,
    step: u64,
    seen: &mut HashSet<(u64, u32)>,
) -> Vec<bool> {
    let mut keep = vec![false; requests.len()];
    for i in workload::check_sample(requests.len(), share, seed ^ step) {
        keep[i] = true;
    }
    for (i, r) in requests.iter().enumerate() {
        if let Request::TopK { tenant, k, .. } = r {
            if seen.insert((*tenant, *k)) {
                keep[i] = true;
            }
        }
    }
    keep
}
