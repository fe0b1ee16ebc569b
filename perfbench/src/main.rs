//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <hd_cold|exact_small|serve_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from the seed, sets the workload up several
//! times (the median is `setup_s`), runs an untimed warm-up round where
//! the workload allows one, then repeats rounds of the same seeded inputs
//! until `--seconds` have passed. Every answer is checked; failed checks,
//! error responses and rejections count in `failed`. With `--trace 1` the
//! run then replays one round layer by layer and reports per-layer
//! metrics instead of the end-to-end ones. In-process solver kernels run
//! on one thread.

mod checks;
mod exact_small;
mod hd_cold;
mod inputs;
mod layers;
mod outcome;
mod serve_churn;
mod trace;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "hd_cold" => hd_cold::run(&args),
        "exact_small" => exact_small::run(&args),
        "serve_churn" => serve_churn::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (expected hd_cold, exact_small or serve_churn)");
            return ExitCode::from(2);
        }
    };
    outcome.print(&args.workload, args.seed, args.trace);
    ExitCode::SUCCESS
}
