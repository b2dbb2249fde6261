//! Output: a human-readable metric table (name, value, unit, samples),
//! the run manifest, and the one-line JSON result the last line carries.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// What a run hands back for printing.
pub struct RunOut {
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the table but left out of the result line and
    /// of `BENCHMARK.json`, because their run-to-run spread exceeds any
    /// bound the benchmark may set (see `README.md`).
    pub unbounded: Vec<Metric>,
    /// Step and ingest log lines.
    pub log: Vec<String>,
    /// Tuple sets warmed before serving.
    pub warmed_sets: usize,
    /// Per served step: label, offered rate and requests sent.
    pub steps: Vec<(String, f64, usize)>,
}

/// Operations attempted and failed, and answers checked, over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Requests sent (set-up, serving and restart requests).
    pub attempted: u64,
    /// Requests that got an error, a refusal or no reply in time.
    pub failed: u64,
    /// Replies compared with a solo evaluation.
    pub checked: u64,
    /// Compared replies that differed; each is also a failed operation.
    pub mismatches: u64,
}

/// Prints the metric table: the result's metrics, then the unbounded ones.
pub fn print_table(workload: &str, traced: bool, out: &RunOut) {
    println!(
        "== {workload} ({} run) ==",
        if traced { "traced" } else { "untraced" }
    );
    for m in out.metrics.iter().chain(&out.unbounded) {
        println!(
            "  {:<28} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values have no JSON form).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.mismatches == 0,
        tally.attempted.max(1),
        tally.failed + tally.mismatches,
        body.join(", ")
    )
}
