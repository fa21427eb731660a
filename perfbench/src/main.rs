//! `tks-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`.
//! The line before it records the machine.  Exits nonzero when any
//! operation failed or any check or workload guard did not hold.

use std::process::{Command, ExitCode};

use tks_perfbench::stats::{json_str, result_line};
use tks_perfbench::workloads::{self, Args, Workload};

const USAGE: &str = "usage: tks-perfbench --workload ingest|investigate-spill|mixed \
                     --seed N --seconds S --trace 0|1";

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// nproc, CPU model, rustc version and commit of this run.
fn machine_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"machine\": {{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&cpu),
        json_str(&first_line("rustc", &["--version"])),
        json_str(&first_line("git", &["rev-parse", "HEAD"])),
        json_str(&format!("{:?}", args.workload)),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = workloads::run(args);
    for e in &out.errors {
        eprintln!("[perfbench] FAILED: {e}");
    }
    if args.trace {
        let name = format!(".bench_trace/{:?}-seed{}.jsonl", args.workload, args.seed);
        if let Err(e) = out.spans.write(std::path::Path::new(&name)) {
            eprintln!("[perfbench] could not write {name}: {e}");
        } else {
            eprintln!(
                "[perfbench] {} spans written to {name}",
                out.spans.spans.len()
            );
        }
    }
    let finite = out.metrics.0.iter().all(|m| m.value.is_finite());
    let correct = out.errors.is_empty() && out.failed == 0 && finite;
    for m in &out.metrics.0 {
        eprintln!(
            "[perfbench] {:<42} {:>16.4} {:<12} (n = {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", machine_line(&args));
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
