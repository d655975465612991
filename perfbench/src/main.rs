//! Command-line entry of the repository benchmark.
//!
//! ```text
//! sgprs-perfbench --workload <paper-sweep|fleet-epoch|fleet-event-overload>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the simulated-statistics digest, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Failed
//! output checks are listed on standard error.

use sgprs_bench::report::CountingAlloc;
use sgprs_perfbench::{run, Plan, Workload, REFERENCE_SEED};
use std::process::ExitCode;
use std::time::Duration;

/// Counts heap allocations for the `allocs_per_*` metrics.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: sgprs-perfbench --workload <paper-sweep|fleet-epoch|fleet-event-overload> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<(Workload, Plan), String> {
    let mut workload = None;
    let mut plan = Plan {
        seed: REFERENCE_SEED,
        budget: Duration::from_secs(10),
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => plan.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| bad())?;
                if !(secs.is_finite() && secs > 0.0 && secs <= 3600.0) {
                    return Err(bad());
                }
                plan.budget = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                plan.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, plan))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, plan) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(workload, &plan);
    for failure in &outcome.failures {
        eprintln!("check failed: {failure}");
    }
    println!(
        "sim_digest {} seed={} {:#018x}",
        workload.name(),
        plan.seed,
        outcome.digest
    );
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
