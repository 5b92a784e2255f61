//! Layer-by-layer benchmark of the SOI FFT.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk-inproc --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! roofline and the layer-by-layer replay instead (and, on
//! `tcp-resilient`, the open-loop serving schedule), prints the per-layer
//! metrics, and writes its spans to `perfbench/out/`. The last line of
//! standard output is the JSON result. See `perfbench/README.md` for the
//! workloads and what each metric should move.

mod alloc;
mod input;
mod mesh;
mod metrics;
mod roofline;
mod serve;
mod soi;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use mesh::Transport;
use metrics::{Kind, Outcome};
use soi::Shape;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 2] = ["bulk-inproc", "tcp-resilient"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
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
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let shape = if args.workload == "bulk-inproc" {
        Shape {
            n: 1 << 23,
            transport: Transport::InProc,
            resilient: false,
        }
    } else {
        Shape {
            n: 1 << 20,
            transport: Transport::Tcp,
            resilient: true,
        }
    };
    soi::assert_untuned(shape.n);
    if !args.trace {
        let mut outcome = soi::run(&args.workload, shape, args.seed, args.seconds)?;
        outcome.values.set("peak_rss_mib", peak_rss_mib()?);
        return Ok(outcome);
    }
    let origin = Instant::now();
    let mut spans = Vec::new();
    let mut outcome = soi::run_traced(&args.workload, shape, args.seed, origin, &mut spans)?;
    let mut turned_away = 0;
    if shape.resilient {
        let tally = serve::layers(
            args.seed,
            args.seconds,
            origin,
            &mut spans,
            &mut outcome.values,
        )?;
        outcome.attempted += tally.attempted;
        outcome.failed += tally.failed;
        outcome.correct &= tally.failed == 0;
        turned_away = tally.turned_away;
    }
    let frac = (outcome.failed + turned_away) as f64 / outcome.attempted as f64;
    outcome.values.set("failed_frac", frac);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {}", path.display());
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let kind = if args.trace {
                Kind::Layer
            } else {
                Kind::EndToEnd
            };
            println!("{}", metrics::result_json(&outcome, kind));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: outputs failed the correctness check");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
