//! End-to-end benchmark of the key-graph group key server.
//!
//! ```text
//! cargo run --release --manifest-path kgbench/Cargo.toml -- \
//!     --workload paper-immediate --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Each workload builds a group, then drives membership requests in a
//! closed loop (one thread, one request — or one batch interval —
//! outstanding) for `--seconds` of wall time, checking every output
//! against properties of the method. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` interleaves untraced and traced blocks and prints
//! the per-layer metrics read from the server's own phase spans. The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod checks;
mod cluster;
mod immediate;
mod measure;

use measure::Report;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: kgbench --workload <paper-immediate|cluster-batched> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Timed before the workload, so a set of runs on a drifting host
    // shows the drift beside the workload's own figures.
    let ref_loop_ms = measure::host_ref_loop_ms();
    eprintln!("host.ref_loop_ms {ref_loop_ms:.3}");
    let budget = Duration::from_secs(args.seconds);
    let report: Report = match args.workload.as_str() {
        "paper-immediate" => immediate::run(args.seed, budget, args.trace),
        "cluster-batched" => match cluster::run(args.seed, budget, args.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cluster-batched: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.print(ref_loop_ms, args.trace);
    ExitCode::SUCCESS
}
