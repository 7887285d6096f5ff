//! `long_scan`: one caller in a closed loop runs `run_in_place` on a
//! single 2^26-element sequence (512 MiB per array, several times the
//! last-level cache), for each of five cases in turn: `fir_iir_f64`,
//! `feedback_f64`, `order2_i64`, `varying_f64` and `segmented_f64`. The
//! scan streams from DRAM, so each call is paired with a copy of the same
//! bytes on as many threads (the paper's 2n-words memcpy bound), which
//! also restores the call's input. The gated throughput is the per-pair
//! ratio, summarized per case by the median and over the cases by the
//! geometric mean.

use crate::check::{anomalous, first_mismatch, first_mismatch_par, Checked, Tol};
use crate::refs::{self, geomean};
use crate::report::{Report, CASES};
use crate::rng::{self, Rng};
use crate::stats::{median_of, Samples};
use crate::trace::{Span, Tracer};
use crate::Ctx;
use plr_core::blocked::{fir_in_place, SolveKernel};
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::plan;
use plr_core::segmented::{self, Segments};
use plr_core::serial;
use plr_core::signature::Signature;
use plr_core::varying::{self, VaryingSignature};
use plr_parallel::{ParallelRunner, RunStats, RunnerConfig, SegmentedRunner, VaryingRunner};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const LEN: usize = 1 << 26;
/// Setups of each case per untraced run; `setup_s` is the sum over the
/// cases of each case's median setup.
const SETUP_REPS: usize = 3;
/// Calls per baseline (one-thread runner, best serial kernel).
const BASELINE_REPS: usize = 3;

type RunFn<T> = Box<dyn Fn(&mut [T]) -> Result<RunStats, EngineError>>;
type InPlace<T> = Box<dyn Fn(&mut [T])>;
type Oracle<T> = Box<dyn Fn(&[T]) -> Vec<T>>;

/// One long-scan case: how to generate its seeded input in place, how to
/// build its runner at a thread count, its serial oracle, and its best
/// serial kernel. One case's input, work array and oracle output are
/// resident at a time.
struct Case<T> {
    fill: InPlace<T>,
    build: Box<dyn Fn(usize) -> Result<RunFn<T>, EngineError>>,
    oracle: Oracle<T>,
    tol: fn(&[T]) -> Tol,
    best_serial: InPlace<T>,
}

fn config(threads: usize) -> RunnerConfig {
    RunnerConfig {
        threads,
        ..RunnerConfig::default()
    }
}

/// The best serial kernel for a constant signature over one segment: the
/// in-place FIR (unless pure feedback) and the dispatched solve kernel.
fn serial_kernel<T: Element>(sig: &Signature<T>, kernel: &SolveKernel<T>, data: &mut [T]) {
    if !sig.is_pure_feedback() {
        fir_in_place(sig.feedforward(), &[], 0, data);
    }
    kernel.solve_in_place(data);
}

fn constant_case<T: Checked>(sig: &str, fill: InPlace<T>) -> Case<T> {
    let sig: Signature<T> = sig.parse().expect("case signatures parse");
    let (s1, s2, s3) = (sig.clone(), sig.clone(), sig);
    let kernel = SolveKernel::select(s3.feedback());
    Case {
        fill,
        build: Box::new(move |threads| {
            let r = ParallelRunner::with_config(s1.clone(), config(threads))?;
            Ok(Box::new(move |d: &mut [T]| r.run_in_place(d)) as RunFn<T>)
        }),
        oracle: Box::new(move |x| serial::run(&s2, x)),
        tol: T::kernel_tol,
        best_serial: Box::new(move |d| serial_kernel(&s3, &kernel, d)),
    }
}

fn varying_case(seed: u64) -> Case<f64> {
    let mut g = Rng::stream(seed, "long_scan.varying_f64.gates");
    let sig = VaryingSignature::first_order(rng::gates(&mut g, LEN, 1000))
        .expect("order-1 signatures always build");
    let (s1, s2, s3) = (sig.clone(), sig.clone(), sig);
    Case {
        fill: Box::new(move |d| {
            rng::fill_positive(&mut Rng::stream(seed, "long_scan.varying_f64"), d);
        }),
        build: Box::new(move |threads| {
            let r = VaryingRunner::with_config(s1.clone(), config(threads))?;
            Ok(Box::new(move |d: &mut [f64]| r.run_in_place(d)) as RunFn<f64>)
        }),
        oracle: Box::new(move |x| varying::reference(&s2, x).expect("input has the bound length")),
        tol: |_| Tol::Rel(1e-9),
        // The serial reference is the only serial evaluator of varying
        // signatures, so it is also the best one.
        best_serial: Box::new(move |d| {
            let y = varying::reference(&s3, d).expect("input has the bound length");
            d.copy_from_slice(&y);
        }),
    }
}

fn segmented_case(seed: u64) -> Case<f64> {
    const SEG: usize = 1 << 16;
    let sig: Signature<f64> = "0.2:0.8".parse().expect("case signatures parse");
    let segments = Segments::uniform(SEG, LEN);
    let (s1, s2, s3) = (sig.clone(), sig.clone(), sig);
    let (g1, g2, g3) = (segments.clone(), segments.clone(), segments);
    let kernel = SolveKernel::select(s3.feedback());
    Case {
        fill: Box::new(move |d| {
            let mut g = Rng::stream(seed, "long_scan.segmented_f64");
            rng::fill_sparse_segments(&mut g, d, SEG, 0.9);
        }),
        build: Box::new(move |threads| {
            let r = SegmentedRunner::with_config(s1.clone(), g1.clone(), LEN, config(threads))?;
            Ok(Box::new(move |d: &mut [f64]| r.run_in_place(d)) as RunFn<f64>)
        }),
        oracle: Box::new(move |x| segmented::run_serial(&s2, &g2, x)),
        tol: f64::kernel_tol,
        best_serial: Box::new(move |d| {
            for (s, e) in g3.ranges(d.len()) {
                serial_kernel(&s3, &kernel, &mut d[s..e]);
            }
        }),
    }
}

/// What the five cases of one run add up to.
#[derive(Default)]
struct Totals {
    setup_s: f64,
    setups: u64,
    calls: u64,
    /// Per case: median of copy time ÷ scan time over the case's pairs.
    vs_copy: Vec<f64>,
    memcpy_gb_s: Samples,
    /// Per case: untraced copy-to-call ratio ÷ traced − 1.
    trace_overhead: Samples,
    cache_hits: f64,
    cache_lookups: f64,
    spans: Vec<Span>,
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<Vec<Span>, String> {
    let seed = ctx.seed;
    let mut t = Totals::default();
    for case in CASES {
        let label = format!("long_scan.{case}");
        let f64_fill: InPlace<f64> =
            Box::new(move |d| rng::fill_positive(&mut Rng::stream(seed, &label), d));
        match case {
            "fir_iir_f64" => measure(
                case,
                constant_case("0.04:1.6,-0.64", f64_fill),
                ctx,
                r,
                &mut t,
            ),
            "feedback_f64" => measure(case, constant_case("1:1.6,-0.64", f64_fill), ctx, r, &mut t),
            "order2_i64" => {
                let fill = Box::new(move |d: &mut [i64]| {
                    rng::fill_small_i64(&mut Rng::stream(seed, "long_scan.order2_i64"), d);
                });
                measure(case, constant_case("1:2,-1", fill), ctx, r, &mut t)
            }
            "varying_f64" => measure(case, varying_case(seed), ctx, r, &mut t),
            "segmented_f64" => measure(case, segmented_case(seed), ctx, r, &mut t),
            other => Err(format!("unknown long-scan case {other}")),
        }?;
    }
    r.add("setup_s", t.setup_s, "s", t.setups);
    r.add("throughput_vs_ref", geomean(&t.vs_copy), "ratio", t.calls);
    if ctx.trace {
        r.add(
            "kernel.memcpy_gb_s",
            t.memcpy_gb_s.median(),
            "GB/s",
            t.memcpy_gb_s.len() as u64,
        );
        r.add(
            "trace.overhead_frac",
            t.trace_overhead.median(),
            "frac",
            t.trace_overhead.len() as u64,
        );
        r.add(
            "plan.cache_hit_frac",
            if t.cache_lookups > 0.0 {
                t.cache_hits / t.cache_lookups
            } else {
                0.0
            },
            "frac",
            t.calls,
        );
    }
    Ok(t.spans)
}

/// Runner construction (plan build, cold plan cache), first touch of the
/// work array, and the first call (pool spawn): everything before the
/// window. Copying the input in is the benchmark's work, not the
/// program's, and is left out. Returns the runner, the work array and the
/// setup time.
fn setup<T: Checked>(
    c: &Case<T>,
    input: &[T],
    threads: usize,
) -> Result<(RunFn<T>, Vec<T>, f64), String> {
    plan::clear_cache();
    let t0 = Instant::now();
    let mut work = vec![T::zero(); LEN];
    work.fill(T::zero());
    let touched = t0.elapsed();
    work.copy_from_slice(input);
    let t1 = Instant::now();
    let runner = (c.build)(threads).map_err(|e| format!("runner build failed: {e}"))?;
    runner(&mut work).map_err(|e| format!("warm call failed: {e}"))?;
    Ok((runner, work, (touched + t1.elapsed()).as_secs_f64()))
}

/// What a window of calls measured. `calls_ms[i]` and `copy_ms[i]` are
/// one pair: the copy that restored the call's input, then the call.
#[derive(Default)]
struct Window {
    calls_ms: Samples,
    copy_ms: Samples,
    vs_copy: Samples,
    stats: Vec<RunStats>,
}

/// Calls the runner in a closed loop for `seconds`. Before each call the
/// input is copied into the work array on `threads` threads and timed:
/// that copy moves the same bytes as the scan and is its reference. Every
/// output is checked against `want` outside the timed sections.
#[allow(clippy::too_many_arguments)]
fn window<T: Checked>(
    case: &str,
    runner: &RunFn<T>,
    work: &mut [T],
    input: &[T],
    want: &[T],
    tol: Tol,
    seconds: f64,
    threads: usize,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Window {
    let mut w = Window::default();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut call = 0u64;
    while Instant::now() < end || call == 0 {
        call += 1;
        r.attempted += 1;
        let copy_ms = refs::copy(work, input, threads);
        let span = tracer.open();
        let t0 = Instant::now();
        let res = runner(black_box(&mut *work));
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        tracer.close(
            span,
            "runner.run_in_place",
            0,
            call,
            res.as_ref().ok().copied(),
        );
        match res {
            Ok(stats) => {
                if let Some(i) = first_mismatch_par(work, want, tol, threads) {
                    r.fail(format!(
                        "{case}: call {call} output differs from the serial oracle at {i}: {:?} vs {:?}",
                        work[i], want[i]
                    ));
                } else if anomalous(&stats) {
                    r.fail(format!(
                        "{case}: call {call} reported {} aborts and {} recovered workers",
                        stats.aborts, stats.workers_recovered
                    ));
                } else {
                    w.calls_ms.push(dt);
                    w.copy_ms.push(copy_ms);
                    w.vs_copy.push(copy_ms / dt);
                    w.stats.push(stats);
                }
            }
            Err(e) => r.fail(format!("{case}: call {call} failed: {e}")),
        }
    }
    w
}

fn measure<T: Checked>(
    case: &str,
    c: Case<T>,
    ctx: &Ctx,
    r: &mut Report,
    t: &mut Totals,
) -> Result<(), String> {
    crate::progress(&format!("{case}: input and oracle"));
    let mut input = vec![T::zero(); LEN];
    (c.fill)(&mut input);
    let want = (c.oracle)(&input);
    let tol = (c.tol)(&want);
    crate::progress(&format!("{case}: setup"));
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setups = Samples::default();
    let mut built = None;
    for _ in 0..reps {
        // Drop the previous runner and array before building the next,
        // so one setup's memory is never resident twice.
        drop(built.take());
        let (runner, work, s) = setup(&c, &input, ctx.threads)?;
        setups.push(s);
        built = Some((runner, work));
    }
    let (runner, mut work) = built.expect("at least one setup");
    t.setup_s += setups.median();
    t.setups += setups.len() as u64;

    let n = LEN as f64;
    let bytes = (LEN * std::mem::size_of::<T>()) as f64;
    let mut off = Tracer::new(false, ctx.epoch, 0);
    let secs = ctx.seconds / CASES.len() as f64 / if ctx.trace { 2.0 } else { 1.0 };
    crate::progress(&format!("{case}: window"));
    let plain = window(
        case,
        &runner,
        &mut work,
        &input,
        &want,
        tol,
        secs,
        ctx.threads,
        &mut off,
        r,
    );
    if plain.calls_ms.is_empty() {
        return Err(format!(
            "{case}: no call succeeded: {:?}",
            r.failures.first()
        ));
    }
    let calls = plain.calls_ms.len() as u64;
    let p50 = plain.calls_ms.median();
    let vs_copy = plain.vs_copy.median();
    t.calls += calls;
    t.vs_copy.push(vs_copy);
    for ms in plain.copy_ms.iter() {
        t.memcpy_gb_s.push(2.0 * bytes / ms / 1e6);
    }
    r.add(format!("{case}_melem_s"), n / p50 / 1e3, "Melem/s", calls);
    r.add(format!("{case}_vs_memcpy"), vs_copy, "ratio", calls);
    r.add(format!("{case}_latency_ms_p50"), p50, "ms", calls);
    if let Some(s) = plain.stats.last() {
        r.stamp(&format!("kernel_ran.{case}"), format!("{:?}", s.kernel));
        r.stamp(&format!("plan_kind.{case}"), format!("{:?}", s.plan_kind));
        r.stamp(&format!("threads_ran.{case}"), s.threads);
    }
    if !ctx.trace {
        return Ok(());
    }

    let mut tracer = Tracer::new(true, ctx.epoch, 1);
    let traced = window(
        case,
        &runner,
        &mut work,
        &input,
        &want,
        tol,
        secs,
        ctx.threads,
        &mut tracer,
        r,
    );
    // Compared through the copy ratio, so host drift between the halves
    // does not show as overhead.
    t.trace_overhead
        .push(plain.vs_copy.median() / traced.vs_copy.median() - 1.0);
    drop(runner);

    // Baselines on the same bytes in the same run: the best serial kernel
    // and the one-thread runner.
    let serial_ms = median_of(BASELINE_REPS, || {
        work.copy_from_slice(&input);
        let t0 = Instant::now();
        (c.best_serial)(black_box(&mut work));
        t0.elapsed().as_secs_f64() * 1e3
    });
    if case == "fir_iir_f64" {
        r.add(
            "kernel.best_serial_ms",
            serial_ms,
            "ms",
            BASELINE_REPS as u64,
        );
    }
    let one = (c.build)(1).map_err(|e| format!("one-thread runner build failed: {e}"))?;
    work.copy_from_slice(&input);
    one(&mut work).map_err(|e| format!("one-thread warm call failed: {e}"))?;
    let one_ms = median_of(BASELINE_REPS, || {
        work.copy_from_slice(&input);
        let t0 = Instant::now();
        let res = one(black_box(&mut work));
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = res {
            r.fail(format!("{case}: one-thread call failed: {e}"));
        } else if let Some(i) = first_mismatch(&work, &want, tol) {
            r.fail(format!(
                "{case}: one-thread output differs from the oracle at {i}"
            ));
        }
        dt
    });
    drop(one);

    let calls = traced.stats.len().max(1) as f64;
    let mean = |f: &dyn Fn(&RunStats) -> f64| traced.stats.iter().map(f).sum::<f64>() / calls;
    let wall_ms = traced.calls_ms.mean();
    let threads = traced.stats.first().map_or(1, |s| s.threads) as f64;
    let busy_ms = mean(&|s| s.busy_nanos() as f64 / 1e6);
    let chunks = mean(&|s| s.chunks as f64).max(1.0);
    let p = |m: &str| format!("runner.{case}.{m}");
    let nt = traced.stats.len() as u64;
    r.add(p("fir_ms"), mean(&|s| s.fir_nanos as f64 / 1e6), "ms", nt);
    r.add(
        p("solve_ms"),
        mean(&|s| s.solve_nanos as f64 / 1e6),
        "ms",
        nt,
    );
    r.add(
        p("lookback_ms"),
        mean(&|s| s.lookback_nanos as f64 / 1e6),
        "ms",
        nt,
    );
    r.add(
        p("correct_ms"),
        mean(&|s| s.correct_nanos as f64 / 1e6),
        "ms",
        nt,
    );
    r.add(
        p("idle_ms"),
        (wall_ms * threads - busy_ms).max(0.0),
        "ms",
        nt,
    );
    r.add(p("busy_frac"), busy_ms / (wall_ms * threads), "frac", nt);
    r.add(p("spin_waits"), mean(&|s| s.spin_waits as f64), "count", nt);
    r.add(
        p("lookback_depth_mean"),
        mean(&|s| s.mean_lookback_depth()),
        "chunks",
        nt,
    );
    r.add(
        p("fused_frac"),
        mean(&|s| s.fused_chunks as f64) / chunks,
        "frac",
        nt,
    );
    r.add(
        p("skipped_frac"),
        mean(&|s| s.skipped_chunks as f64) / chunks,
        "frac",
        nt,
    );
    r.add(p("one_thread_ms"), one_ms, "ms", BASELINE_REPS as u64);
    r.add(p("scaling_eff"), one_ms / (p50 * threads), "ratio", nt);
    r.add(
        p("vs_best_serial"),
        serial_ms / one_ms,
        "ratio",
        BASELINE_REPS as u64,
    );
    r.add(p("roofline_frac"), vs_copy, "ratio", calls as u64);
    t.cache_hits += mean(&|s| s.plan_cache_hits as f64);
    t.cache_lookups += mean(&|s| (s.plan_cache_hits + s.plan_cache_misses) as f64);
    t.spans.extend(tracer.into_spans());
    Ok(())
}
