//! The PLR CPU-stack benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --spec          # prints BENCHMARK.json
//! ```
//!
//! One process runs one workload on inputs generated from `--seed`,
//! checks every output against a serial oracle outside the timed
//! sections, prints every metric by name with its unit and sample count,
//! writes a self-describing record (host, build, kernel tier, seed) under
//! `.bench_out/`, and ends with one JSON line holding the contract's
//! metrics: the end-to-end ones untraced, the per-layer ones traced.
//! A wrong output, a failed call or an anomaly (a pool panic, cancel or
//! deadline, a service relaunch or degraded shard) is counted as a
//! failure and makes the process exit non-zero.
//!
//! Workloads (see `report::workloads` for why each is there):
//!
//! - `long_scan`: closed-loop `run_in_place` on one 2^26-element sequence
//!   for each of `fir_iir_f64`, `feedback_f64`, `order2_i64`,
//!   `varying_f64`, `segmented_f64` in turn.
//! - `rows`: closed-loop steps of `BatchRunner::run_rows` on 256 × 16 Ki
//!   rows, 256 log-uniform rows streamed through `stream()`, and 32 rows
//!   through a `ServiceCore`; then an open-loop Poisson phase into the
//!   service at a steady and an overload rate fixed in `service.rs`.
//!
//! Each timed program step is paired with a reference step of the
//! benchmark's own (`refs`): a copy of the same bytes for the long scans,
//! a naive serial loop over the batch rows for `rows`. The gated
//! throughput is a ratio to the reference, so it holds still when a
//! shared host's speed moves; the absolute figures and the latencies are
//! printed beside it.
//!
//! The traced run (`--trace 1`) spends half its window untraced and half
//! traced, reports the difference of their reference ratios as
//! `trace.overhead_frac`, adds layer probes (kernels, plan builds, pool
//! round trip) and per-case baselines (best serial kernel, one-thread
//! runner), and writes its spans to `.bench_out/`.

mod check;
mod layers;
mod long_scan;
mod meta;
mod openloop;
mod refs;
mod report;
mod rng;
mod rows;
mod service;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Seconds one run measures (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u32 = 30;

/// What every workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for every runner (the CPU count).
    pub threads: usize,
    /// The common origin of every span timestamp.
    pub epoch: Instant,
}

/// Notes a phase boundary on stderr with the time since the process
/// started, so a slow phase shows where it is.
pub fn progress(what: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("perfbench: {t:8.3}s {what}");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, RUN_SECONDS, false);
    while let Some(a) = it.next() {
        if a == "--spec" {
            print!("{}", report::benchmark_json());
            return Ok(None);
        }
        let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{a} {v}: {e}");
        match a.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = v.parse().map_err(bad)?,
            "--seconds" => seconds = v.parse().map_err(bad)?,
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::workloads().iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn run(args: &Args, r: &mut Report) -> Result<Vec<trace::Span>, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: f64::from(args.seconds),
        trace: args.trace,
        threads: meta::nproc(),
        epoch: Instant::now(),
    };
    let mut spans = if args.workload == "long_scan" {
        long_scan::run(&ctx, r)?
    } else {
        rows::run(&ctx, r)?
    };
    if ctx.trace {
        spans.extend(layers::run(&ctx, r));
        layers::span_metrics(&spans, r);
        layers::fill_unexercised(r);
    }
    Ok(spans)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut r = Report::default();
    meta::stamp(&mut r, &args.workload, args.seed, args.seconds, args.trace);
    let spans = match run(&args, &mut r) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    r.add(
        "failed_frac",
        r.failed as f64 / r.attempted.max(1) as f64,
        "frac",
        r.attempted,
    );

    for (k, v) in &r.stamp {
        println!("# {k}: {v}");
    }
    for m in &r.metrics {
        println!("{:<40} {:>14.6} {:<8} n={}", m.name, m.value, m.unit, m.n);
    }
    for n in &r.notes {
        println!("# note: {n}");
    }
    for f in &r.failures {
        println!("FAILURE: {f}");
    }

    let out = PathBuf::from(".bench_out");
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join(format!("{tag}.json")), r.record_json()))
        .and_then(|()| {
            if args.trace {
                trace::write_jsonl(&out.join(format!("{tag}.spans.jsonl")), &spans)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: writing the record under {}: {e}", out.display());
        return ExitCode::from(1);
    }

    let specs = if args.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    match r.result_line(&specs) {
        Ok(line) if r.failed == 0 => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: {} failures; see above", r.failed);
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
