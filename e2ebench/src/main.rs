//! `hoiho-e2ebench` — the end-to-end benchmark's measuring program.
//!
//! ```text
//! hoiho-e2ebench --workload <timeline|learn|serve_zipf|serve_uniform>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                --serve-bin <hoiho-serve binary> --work-dir <dir>
//! ```
//!
//! Run it through `e2ebench/run.py`, which builds it and the
//! `hoiho-serve` binary first. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer rows with
//! `--trace 1`. The exit code is nonzero when any output check failed.
//! Run from the repository root: the `learn` workload reads
//! `scenarios/*.hoiho`.

mod measure;
mod offline;
mod pin;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag)?;
        v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
        serve_bin: PathBuf::from(value("--serve-bin")?),
        work_dir: PathBuf::from(value("--work-dir")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hoiho-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every workload runs on one core: the threads and the server it
    // starts inherit the mask (see pin.rs).
    if let Some(cpu) = pin::last_cpu() {
        if !pin::set_current(&cpu) {
            eprintln!("hoiho-e2ebench: cannot pin to one CPU");
            return ExitCode::FAILURE;
        }
    }
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let work = args.work_dir.as_path();
    let result = match args.workload.as_str() {
        "timeline" => offline::timeline(seed, secs, trace),
        "learn" => offline::learn(seed, secs, trace),
        "serve_zipf" => serve::run(serve::ZIPF, seed, secs, trace, &args.serve_bin, work),
        "serve_uniform" => serve::run(serve::UNIFORM, seed, secs, trace, &args.serve_bin, work),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(report) => {
            println!("{}", report.json());
            if report.failed == 0 && report.attempted > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("hoiho-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
