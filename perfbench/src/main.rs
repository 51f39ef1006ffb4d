//! End-to-end and per-layer benchmark of the FLH workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_mix|atpg_ceiling|hold_mc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for about
//! `--seconds`, checks the program's outputs outside the timed phase and
//! prints one JSON result line last. `--trace 0` reports the end-to-end
//! metrics, with every time scaled to a fixed reference speed of the host
//! (`report::Pace`); `--trace 1` runs a fixed window of the workload twice
//! (recorder off, then on), times each layer from outside, writes the
//! Chrome trace and the deterministic counter document under
//! `.bench_out/<workload>-seed<n>/`, and reports the per-layer metrics.
//! See `perfbench/README.md` for the workloads and the metric map.

mod atpg_ceiling;
mod hold_mc;
mod report;
mod serve_mix;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, END_TO_END};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The seed whose outputs are pinned by digest.
pub const DEFAULT_SEED: u64 = 1;

const USAGE: &str =
    "usage: flh-perfbench --workload <serve_mix|atpg_ceiling|hold_mc> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Where a traced run writes its Chrome trace and counter document.
fn trace_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out").join(format!("{}-seed{}", args.workload, args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes the traced window's deterministic counter document and the
/// Chrome trace of the whole traced run.
pub fn write_trace_files(args: &Args, det: &flh_obs::Snapshot) -> Result<(), String> {
    let dir = trace_dir(args)?;
    let counters = dir.join("counters.json");
    let document = flh_obs::det_document(det);
    std::fs::write(&counters, &document)
        .map_err(|e| format!("writing {}: {e}", counters.display()))?;
    let trace = dir.join("trace.json");
    flh_obs::write_trace(&trace).map_err(|e| format!("writing {}: {e}", trace.display()))?;
    eprintln!(
        "trace: {} and {} (counter digest {:016x})",
        trace.display(),
        counters.display(),
        flh_serve::fnv1a(document.as_bytes())
    );
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    let outcome: Outcome = match args.workload.as_str() {
        "serve_mix" => serve_mix::run(args)?,
        "atpg_ceiling" => atpg_ceiling::run(args)?,
        "hold_mc" => hold_mc::run(args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let expected: Vec<(String, &str)> = if args.trace {
        report::per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    outcome.render(&expected)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flh-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
