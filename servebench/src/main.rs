//! The served-pipeline benchmark: drives a real `sitm_serve::Server` at
//! its defaults over loopback with one of three seeded workloads, checks
//! every answer against an oracle, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload point_reads --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the per-layer metrics (see README.md). Lines before the
//! result start with `#`: the host record and the sample counts.

mod conn;
mod corpus;
mod layers;
mod measure;
mod served;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use served::{Args, Report};

const WORKLOADS: [&str; 3] = ["point_reads", "ingest_flush", "scan_under_ingest"];

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let traced = traced.unwrap_or(false);
    let tag = format!("{workload}-seed{seed}-{}", std::process::id());
    Ok((
        workload.clone(),
        Args {
            seed,
            seconds: seconds.unwrap_or(10.0),
            traced,
            work: PathBuf::from(".bench_work").join(&tag),
            out: PathBuf::from(".bench_out").join(format!("spans-{workload}-seed{seed}.jsonl")),
        },
    ))
}

/// `rustc -V`, the commit (when run from a git checkout), nproc.
fn host_record(workload: &str, args: &Args) -> String {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let commit = if std::path::Path::new(".git").exists() {
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or("unknown".to_string(), |s| s.trim().to_string())
    } else {
        std::env::var("SERVEBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "# host: {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"commit\": \"{commit}\"}}",
        args.seed, args.seconds, u8::from(args.traced)
    )
}

fn run(workload: &str, args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("create {}: {e}", args.work.display()))?;
    if let (true, Some(parent)) = (args.traced, args.out.parent()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    match workload {
        "point_reads" => workloads::point_reads(args),
        "ingest_flush" => workloads::ingest_flush(args),
        _ => workloads::scan_under_ingest(args),
    }
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", host_record(&workload, &args));
    let result = run(&workload, &args);
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(".bench_work");
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("servebench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for why in &report.tally.first_failures {
        println!("# failure: {why}");
    }
    let tally = &report.tally;
    println!(
        "# error_rate: {} of {} operations failed",
        tally.failed, tally.attempted
    );
    let metrics = if args.traced {
        &report.layers
    } else {
        &report.e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
