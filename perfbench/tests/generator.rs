//! Self-tests of the load generator: seeded draws repeat, percentiles
//! follow the ten-samples-beyond rule, and a server stall is charged to
//! every request scheduled during it.
//!
//! ```text
//! cargo test --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use hypre_core::combine::PrefAtom;
use hypre_core::serve::wire::{self, Response};
use perfbench::loadgen::{frame, Client};
use perfbench::params::{self, Traffic};
use perfbench::rng::Rng;
use perfbench::stats::percentile;
use perfbench::workload::{self, Profile};
use relstore::parse_predicate;

fn profiles() -> Vec<Profile> {
    let profile = |user: u64, venue: &str| Profile {
        user,
        atoms: vec![
            PrefAtom::new(
                0,
                parse_predicate(&format!("dblp.venue='{venue}'")).unwrap(),
                0.8,
            ),
            PrefAtom::new(1, parse_predicate("dblp.year>=2005").unwrap(), 0.4),
        ],
    };
    (0..50).map(|u| profile(u, &format!("V{u}"))).collect()
}

#[test]
fn poisson_schedule_is_deterministic_per_seed() {
    let a = workload::poisson_schedule(500.0, 4000, 7, 1);
    assert_eq!(a, workload::poisson_schedule(500.0, 4000, 7, 1));
    assert_ne!(
        a,
        workload::poisson_schedule(500.0, 4000, 8, 1),
        "seed matters"
    );
    assert_ne!(
        a,
        workload::poisson_schedule(500.0, 4000, 7, 2),
        "step matters"
    );
    assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals increase");
    let mean_gap = a[a.len() - 1] / a.len() as f64;
    assert!(
        (mean_gap - 1.0 / 500.0).abs() < 0.1 / 500.0,
        "mean gap {mean_gap}"
    );
}

#[test]
fn zipf_and_adhoc_draws_are_deterministic_per_seed() {
    let cdf = workload::zipf_cdf(50, 1.1);
    let draw = |seed| {
        let mut rng = Rng::new(seed, 0);
        (0..2000)
            .map(|_| workload::zipf_draw(&cdf, &mut rng))
            .collect::<Vec<_>>()
    };
    let a = draw(3);
    assert_eq!(a, draw(3));
    assert_ne!(a, draw(4));
    let head = a.iter().filter(|&&i| i == 0).count();
    let tail = a.iter().filter(|&&i| i == 49).count();
    assert!(
        head > 10 * tail.max(1),
        "rank 0 ({head}) dominates rank 49 ({tail})"
    );

    let pool = profiles();
    for w in params::WORKLOADS {
        let a = workload::requests(&w, &pool, 11, 1, 300);
        assert_eq!(a, workload::requests(&w, &pool, 11, 1, 300), "{}", w.name);
        assert_ne!(a, workload::requests(&w, &pool, 12, 1, 300), "{}", w.name);
    }
    let adhoc = params::workload("adhoc_cold").unwrap();
    assert!(matches!(adhoc.traffic, Traffic::Adhoc));
    let reqs = workload::requests(&adhoc, &pool, 11, 1, 300);
    let mut fresh_atoms = std::collections::HashSet::new();
    for r in &reqs {
        let wire::Request::TopK { atoms, .. } = r else {
            panic!("Top-K only")
        };
        assert_eq!(atoms.len(), 3, "two profile atoms and one fresh atom");
        for a in &atoms[2..] {
            assert!(parse_predicate(&a.predicate).is_ok(), "{}", a.predicate);
            fresh_atoms.insert(a.predicate.clone());
        }
    }
    assert!(
        fresh_atoms.len() > 290,
        "ad-hoc atoms are fresh: {}",
        fresh_atoms.len()
    );
}

#[test]
fn percentiles_need_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.99), Ok(990.0));
    assert_eq!(percentile(&samples, 0.50), Ok(500.0));
    assert!(
        percentile(&samples[..999], 0.99).is_err(),
        "999 samples cannot give a p99"
    );
    assert!(
        percentile(&samples[..19], 0.50).is_err(),
        "19 samples cannot give a p50"
    );
    assert_eq!(percentile(&samples[..20], 0.50), Ok(10.0));
    assert!(percentile(&[], 0.5).is_err());
}

/// A server that answers every frame with a `Pong` at once, except that it
/// stops for `stall` after reading frame `stall_at`. The frames are large,
/// so while it stalls the socket buffers fill and the generator's writes
/// block: later requests leave late, yet must be charged from their
/// scheduled send.
#[test]
fn a_stall_is_charged_to_every_request_scheduled_during_it() {
    const REQUESTS: usize = 200;
    const GAP_S: f64 = 0.002;
    const STALL_AT: usize = 50;
    const STALL: Duration = Duration::from_millis(300);
    const PAYLOAD: usize = 128 * 1024;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let pong = frame(&wire::encode_response(&Response::Pong));
        for i in 0..REQUESTS {
            wire::read_frame(&mut conn, 1 << 20).unwrap();
            if i == STALL_AT {
                std::thread::sleep(STALL);
            }
            conn.write_all(&pong).unwrap();
        }
    });

    let mut client = Client::connect(addr, 1).unwrap();
    let frames: Vec<Vec<u8>> = (0..REQUESTS).map(|_| frame(&vec![0x03; PAYLOAD])).collect();
    let schedule: Vec<f64> = (0..REQUESTS).map(|i| (i + 1) as f64 * GAP_S).collect();
    let keep = vec![false; REQUESTS];
    let step = client.run_step(
        Instant::now(),
        &frames,
        &schedule,
        &keep,
        &AtomicU64::new(u64::MAX),
        REQUESTS,
        10.0,
    );
    server.join().unwrap();

    assert_eq!(step.completed(), REQUESTS);
    // The stall cannot end before frame STALL_AT was due plus the stall.
    let stall_end = schedule[STALL_AT] + STALL.as_secs_f64();
    let mut late_sends = 0;
    for (i, o) in step.outcomes.iter().enumerate().skip(STALL_AT + 1) {
        if o.scheduled >= stall_end {
            break;
        }
        let owed_ms = (stall_end - o.scheduled) * 1e3;
        let latency = o.latency_ms().unwrap();
        assert!(
            latency >= owed_ms,
            "request {i} due during the stall: latency {latency:.1} ms < owed {owed_ms:.1} ms"
        );
        if o.sent.unwrap() - o.scheduled > 0.05 {
            late_sends += 1;
        }
    }
    assert!(
        late_sends > 0,
        "the stall should block the generator, or the test shows nothing"
    );
}
