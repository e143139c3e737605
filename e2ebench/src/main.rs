//! End-to-end benchmark of the hotspot detector.
//!
//! ```sh
//! # from the repository root
//! bash e2ebench/bench.sh --workload scan_cold --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads: `scan_cold`, `rescan_edit`, `train` (see
//! `e2ebench/README.md`). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the traced replay and prints the per-layer metrics,
//! writing its spans to `e2ebench/out/` under the working directory (the
//! repository root). `--scale tiny` shrinks every workload to the suite's
//! tiny scale for a quick self-test. The last line of standard output is
//! one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod metrics;
mod replay;
mod stats;
mod trace;
mod workloads;

use metrics::{result_line, Checks, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use workloads::{RunSpec, Workload};

const USAGE: &str = "usage: e2ebench --workload <scan_cold|rescan_edit|train> \
                     [--seed N] [--seconds S] [--trace 0|1] [--scale bench|tiny]";

fn parse_args(args: &[String]) -> Result<(RunSpec, bool), String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                tiny = match value.as_str() {
                    "bench" => false,
                    "tiny" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let run = RunSpec {
        workload,
        seed,
        seconds,
        tiny,
        // Relative, not the build's manifest directory: an absolute path
        // compiled in would make the binary depend on where it was built.
        out_dir: PathBuf::from("e2ebench/out"),
    };
    Ok((run, trace))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.out_dir) {
        eprintln!("cannot create {}: {e}", run.out_dir.display());
        std::process::exit(1);
    }
    let mut checks = Checks::default();
    let (values, table) = if trace {
        (workloads::run_traced(&run, &mut checks), PER_LAYER)
    } else {
        (workloads::run(&run, &mut checks), END_TO_END)
    };
    println!("{}", result_line(table, &values, &mut checks));
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
