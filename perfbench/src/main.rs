//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_zipf --seed 1 --seconds 8 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run,
//! `--trace 1` the per-layer metrics of a traced run. The last line of
//! standard output is the JSON result; the lines before it are the metric
//! table (with units and sample counts), the step log and the run
//! manifest. See `README.md` for the workloads and what each metric
//! should move.

mod check;
mod env;
mod report;
mod run;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::params::{self, CONNECTIONS, CORPUS, SHARDS};

use crate::report::{json_str, Tally};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(8.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(params) = params::workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (have: {})",
            args.workload,
            params::WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    let scratch = PathBuf::from(".bench_run");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }

    let inputs = env::Inputs::generate(params, args.seed, scratch.clone());
    let mut tally = Tally::default();
    let out = if args.trace {
        trace::traced(&inputs, args.seconds, &mut tally)
    } else {
        run::untraced(&inputs, args.seconds, &mut tally)
    };
    let _ = std::fs::remove_dir(&scratch);

    for line in &out.log {
        println!("{line}");
    }
    report::print_table(params.name, args.trace, &out);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "error_rate {:.6} ({} failed of {} attempted; {} replies checked, {} mismatched)",
        (tally.failed + tally.mismatches) as f64 / tally.attempted.max(1) as f64,
        tally.failed + tally.mismatches,
        tally.attempted,
        tally.checked,
        tally.mismatches
    );
    println!(
        "{{\"manifest\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"corpus_papers\": {}, \"warmed_profiles\": {}, \"cold_profiles\": 0, \
         \"warmed_sets\": {}, \"server_shards\": {}, \"generator_threads\": {}, \
         \"connections\": {}, \"available_parallelism\": {}, \"git_commit\": {}, \
         \"steps\": [{}], \"note\": {}}}}}",
        json_str(params.name),
        args.seed,
        args.trace,
        args.seconds,
        CORPUS.papers,
        params.warmed,
        out.warmed_sets,
        SHARDS,
        CONNECTIONS,
        CONNECTIONS,
        cores,
        json_str(&git_commit()),
        out.steps
            .iter()
            .map(|(label, rate, n)| format!(
                "{{\"step\": {}, \"offered_rps\": {rate:.3}, \"samples\": {n}}}",
                json_str(label)
            ))
            .collect::<Vec<_>>()
            .join(", "),
        json_str(&format!("absolute numbers were taken on {cores} core(s)")),
    );
    println!("{}", report::result_line(&tally, &out.metrics));
    ExitCode::SUCCESS
}
