//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-references
//! ```
//!
//! Runs one workload for about `--seconds` seconds of measurement, checks
//! its outputs, and prints one JSON object as the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! of the traced run with `--trace 1`. Exits non-zero when a check failed.
//! README.md describes the workloads, the metrics and how each is measured.

mod check;
mod engine;
mod gateway;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod twin;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: &[&str] = &[
    "gateway-4ch",
    "serve-super",
    "netsim-waveform",
    "city-analytic",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Writes the traced run's spans under `.perfbench_out/` in the working
/// directory (best effort: the metrics do not depend on it).
pub fn write_spans(trace: &trace::Trace, args: &Args) {
    let path = PathBuf::from(".perfbench_out")
        .join(format!("{}-seed{}.spans.csv", args.workload, args.seed));
    match trace.write_csv(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }
}

fn metadata(args: &Args) -> String {
    let simd = lora_phy::simd::simd_report();
    format!(
        "meta: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"simd\": {{\"backend\": \"{}\", \"f64_lanes\": {}, \"forced\": {}}}, \"nproc\": {}, \
         \"cpu_model\": \"{}\", \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        simd.backend,
        simd.f64_lanes,
        simd.forced,
        sys::nproc(),
        sys::cpu_model().replace('"', "'"),
        sys::commit().replace('"', "'"),
    )
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--write-references") {
        return match engine::write_references() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", metadata(&args));
    let outcome: Outcome = match args.workload.as_str() {
        "gateway-4ch" => gateway::run(&args),
        "serve-super" => serve::run(&args),
        "netsim-waveform" => engine::run_waveform(&args),
        "city-analytic" => engine::run_city(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    println!(
        "failed_share: {} of {} attempted ({:.6})",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let correct = if args.trace {
        outcome.print(PER_LAYER, true)
    } else {
        outcome.print(END_TO_END, false)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
