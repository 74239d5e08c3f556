//! The repository benchmark: three workloads driven through the
//! workspace's public library calls, each printing its end-to-end
//! metrics (untraced run) or per-layer metrics (traced run) and checking
//! every output it produces.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9_store --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Scratch files go to `.bench_work/` under the current directory and
//! are removed at exit; traced runs leave their spans in `.bench_out/`.

mod common;
mod credit;
mod fig9;
mod layers;
mod mining;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Report;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for catalog files, private to this process.
    pub work: PathBuf,
}

/// Where a traced run leaves its spans.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("trace-{workload}-{seed}.jsonl"))
}

const WORKLOADS: [&str; 3] = ["fig9_store", "credit_rules", "serve_refresh"];

fn usage() -> String {
    format!(
        "usage: qar-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_result(report: &Report) {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.failed == 0,
        report.checks.attempted,
        report.checks.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qar-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("qar-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    if args.trace {
        if let Err(e) = std::fs::create_dir_all(".bench_out") {
            eprintln!("qar-perfbench: cannot create .bench_out: {e}");
            return ExitCode::FAILURE;
        }
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
    };
    let result = match args.workload.as_str() {
        "fig9_store" => fig9::run(&ctx),
        "credit_rules" => credit::run(&ctx),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using the scratch root.
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(report) => {
            for m in &report.metrics {
                eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            eprintln!(
                "  checks: {} attempted, {} failed",
                report.checks.attempted, report.checks.failed
            );
            for failure in &report.checks.failures {
                eprintln!("  FAILED: {failure}");
            }
            print_result(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qar-perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
