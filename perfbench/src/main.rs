//! The repository benchmark: one workload per invocation, measured end to
//! end (untraced runs) or layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-flat-tlm --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the
//! host and mode metadata of the run. A failed output check prints
//! `"correct": false` and exits with code 1. See `README.md` for the
//! workloads, every metric and the layer each per-layer metric belongs to.

mod layers;
mod serve;
mod sim;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "paper-flat-rtl",
    "paper-flat-tlm",
    "paper-flat-lt",
    "sharded-4x4",
    "serve-mix",
];

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub measure: Duration,
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Named whole-run checks; any `false` makes the run incorrect.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Metadata fields as pre-rendered JSON values.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    pub fn meta(&mut self, key: &str, json_value: impl Into<String>) {
        self.meta.push((key.to_owned(), json_value.into()));
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        measure: Duration::from_secs_f64(seconds.unwrap_or(10.0)),
        trace: trace.unwrap_or(false),
    })
}

fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some(serve::CHILD_MODE) {
        return serve::child_main();
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-mix" => serve::run(&args),
        name => sim::run(&args, name),
    };
    let mut outcome = match outcome {
        Ok(outcome) if outcome.attempted > 0 => outcome,
        Ok(_) => {
            eprintln!("perfbench: {}: no operation completed", args.workload);
            return ExitCode::FAILURE;
        }
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    outcome.meta("workload", format!("\"{}\"", args.workload));
    outcome.meta("seed", args.seed.to_string());
    outcome.meta("trace", args.trace.to_string());
    outcome.meta("measure_seconds", args.measure.as_secs_f64().to_string());
    outcome.meta(
        "nproc",
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .to_string(),
    );
    outcome.meta("commit", format!("\"{}\"", commit()));
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(name, ok)| format!("\"{name}\": {ok}"))
        .collect();
    outcome.meta("checks", format!("{{{}}}", checks.join(", ")));
    for (name, ok) in &outcome.checks {
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
    }
    let meta: Vec<String> = outcome
        .meta
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));
    println!("{}", render(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one (benchmark checkouts usually are not repositories).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .unwrap_or_default()
            .trim()
            .to_owned(),
        None => head.to_owned(),
    };
    if id.len() == 40 && id.bytes().all(|b| b.is_ascii_hexdigit()) {
        id
    } else {
        "unknown".to_owned()
    }
}

/// Resident-set high-water mark of a process in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn args_parse_and_validate() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve-mix",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.seed, 7);
        assert!(args.trace);
        assert_eq!(args.measure, Duration::from_secs(2));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve-mix", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.metric("kcps", 1.5, "Kcycles/s");
        assert!(render(&outcome).starts_with("{\"correct\": true, \"attempted\": 10"));
        outcome.failed = 1;
        assert!(render(&outcome).starts_with("{\"correct\": false"));
        outcome.failed = 0;
        outcome.check("determinism", false);
        assert!(!outcome.correct());
    }
}
