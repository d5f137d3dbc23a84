//! The repository's end-to-end benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload paper_suite|fleet|replay_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop: one client in one process makes its
//! next call only after the previous one returns. `--trace 0` measures
//! the end-to-end metrics untraced. `--trace 1` gives the per-layer
//! metrics: it runs every workload once more, each in its own process,
//! with spans recorded around the benchmark's calls into each layer, and
//! reports each workload's tracing overhead. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod fleet;
mod measure;
mod replay;
mod suite;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use measure::Outcome;

/// Each workload, with the share of a traced run's seconds it gets (by
/// pass length).
const WORKLOADS: [(&str, f64); 3] = [("paper_suite", 0.45), ("fleet", 0.35), ("replay_mix", 0.2)];

fn workload_names() -> String {
    WORKLOADS.map(|(w, _)| w).join("|")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the helper processes the benchmark starts itself.
    helper: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        helper: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--helper" => args.helper = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.helper.as_deref() != Some("cold-pass") {
        if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
            return Err(format!("--workload must be one of {}", workload_names()));
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err("--seconds must be a positive number".to_string());
        }
    }
    Ok(args)
}

/// Runs this benchmark again as a helper process with `args`, waits for
/// it, and parses its outcome.
pub fn helper(args: &[&str]) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start helper {args:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!("helper {args:?} exited with {}", output.status));
    }
    Outcome::from_lines(&String::from_utf8_lossy(&output.stdout))
}

/// One workload, untraced (`traced == false`) or traced, in this process.
fn run_workload(
    workload: &str,
    seed: u64,
    budget: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    let err = |e: impact_core::error::Error| format!("{workload}: {e}");
    match (workload, traced) {
        ("paper_suite", false) => suite::run(seed, budget),
        ("paper_suite", true) => Ok(suite::run_traced(budget)),
        ("fleet", false) => Ok(fleet::run(seed, budget)),
        ("fleet", true) => Ok(fleet::run_traced(seed, budget)),
        ("replay_mix", false) => replay::run(seed, budget).map_err(err),
        ("replay_mix", true) => replay::run_traced(seed, budget).map_err(err),
        _ => Err(format!("unknown workload {workload:?}")),
    }
}

/// The traced run: every workload, each in a helper process of its own
/// (so resident-memory samples stay per workload), on its share of the
/// seconds. The workload named on the command line is the one the
/// caller asked about; the per-layer map needs all three.
fn traced_all(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    for (workload, share) in WORKLOADS {
        let seed = args.seed.to_string();
        let seconds = (args.seconds * share).to_string();
        out.absorb(helper(&[
            "--helper",
            "traced",
            "--workload",
            workload,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
        ])?);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                workload_names()
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let result = match args.helper.as_deref() {
        Some("cold-pass") => Ok(suite::cold_pass()),
        Some("traced") => run_workload(&args.workload, args.seed, budget, true),
        Some(other) => Err(format!("unknown helper {other:?}")),
        None if args.trace => traced_all(&args),
        None => run_workload(&args.workload, args.seed, budget, false),
    };
    match result {
        Ok(out) if args.helper.is_some() => {
            print!("{}", out.to_lines());
            ExitCode::SUCCESS
        }
        Ok(out) => {
            for m in &out.metrics {
                println!("{}: {} = {} {}", args.workload, m.name, m.value, m.unit);
            }
            println!(
                "{}: failed_frac = {} ({} of {} checks failed)",
                args.workload,
                measure::ratio(out.failed as f64, out.attempted as f64),
                out.failed,
                out.attempted
            );
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
