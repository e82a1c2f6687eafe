//! `loadbench`: the open-loop event→reaction benchmark.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload echo|market|durable-push --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints a human-readable report, then,
//! as the last line, one JSON object: `correct`, `attempted`, `failed`,
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `loadbench/README.md`.

use std::process::ExitCode;

use loadbench::report::Report;
use loadbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: loadbench --workload echo|market|durable-push --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds < 4 {
        return Err("--seconds must be at least 4".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
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
    let run_dir = match std::env::current_dir() {
        Ok(d) => d.join(".bench_run"),
        Err(e) => {
            eprintln!("no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.trace {
        loadbench::traced::run(args.workload, args.seed, args.seconds as f64, &run_dir)
    } else {
        loadbench::bench::run(args.workload, args.seed, args.seconds as f64, &run_dir)
    };
    let _ = std::fs::remove_dir(&run_dir);
    match result {
        Ok(report) => {
            print(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadbench {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn print(r: &Report) {
    for line in &r.notes {
        println!("{line}");
    }
    println!("{}", r.json());
}
