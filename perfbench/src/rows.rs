//! `rows`: one caller in a closed loop over many short rows, through
//! every row front end in turn. Each step runs
//!
//! 1. a `run_rows` call on 256 f64 rows of 16 Ki elements of one
//!    `BatchRunner` (`0.04:1.6,-0.64`);
//! 2. 256 log-uniform f64 rows (1 Ki–64 Ki, the next 256 of a pool of
//!    1024) pushed through its `stream()` at the default window, then
//!    joined;
//! 3. 32 log-uniform i64 rows (16 Ki–256 Ki, the next 32 of a pool of 96)
//!    submitted to a `ServiceCore` (2 shards × nproc/2 threads, the three
//!    weighted tenants of `service`) and joined;
//!
//! bracketed by the reference, before and after: the naive serial
//! recurrence over the 256 batch rows on as many threads
//! (`refs::naive_rows`), whose two times are averaged. The rows are short
//! and in cache, and the parallelism is across rows, not within one, so
//! kernels, per-row dispatch, the pool, the stream window and the
//! service's queues decide the time, while look-back and correction do
//! little. The last fifth of the window is the service's open loop
//! (`service::open_loop`), reported but not gated.

use crate::check::{anomalous, first_mismatch, Checked, Tol};
use crate::refs;
use crate::report::Report;
use crate::rng::{self, Rng};
use crate::service;
use crate::stats::Samples;
use crate::trace::{Span, Tracer};
use crate::Ctx;
use plr_core::plan;
use plr_core::serial;
use plr_core::signature::Signature;
use plr_parallel::{BatchRunner, RunStats};
use plr_service::{ServiceCore, SubmitOptions, TenantId};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 256;
/// Distinct streamed rows; each stream step pushes the next `ROWS` of
/// them, so a run samples many row lengths, not one draw of 256.
const STREAM_POOL: usize = 4 * ROWS;
const WIDTH: usize = 1 << 14;
/// Service rows per step, and the distinct rows they are taken from.
const SERVICE_ROWS: usize = 32;
const SERVICE_POOL: usize = 3 * SERVICE_ROWS;
const SETUP_REPS: usize = 31;
const SIG: &str = "0.04:1.6,-0.64";
/// Share of the window spent in the paired closed loop; the rest is the
/// service's open loop.
const CLOSED_SHARE: f64 = 0.8;

struct Inputs {
    sig: Signature<f64>,
    batch: Vec<f64>,
    batch_want: Vec<f64>,
    batch_tol: Tol,
    stream: Vec<Vec<f64>>,
    stream_want: Vec<Vec<f64>>,
    stream_tol: Vec<Tol>,
    /// Service row `k` belongs to tenant `k % 3`.
    service: Vec<Vec<i64>>,
    service_want: Vec<Vec<i64>>,
}

fn inputs(seed: u64) -> Inputs {
    let sig: Signature<f64> = SIG.parse().expect("the rows signature parses");
    let batch = rng::positive_f64(&mut Rng::stream(seed, "rows.batch"), ROWS * WIDTH);
    let batch_want: Vec<f64> = batch
        .chunks(WIDTH)
        .flat_map(|row| serial::run(&sig, row))
        .collect();
    let lens = rng::stratified_log_uniform(
        &mut Rng::stream(seed, "rows.lengths"),
        STREAM_POOL,
        1 << 10,
        1 << 16,
    );
    let mut data = Rng::stream(seed, "rows.stream");
    let stream: Vec<Vec<f64>> = lens
        .into_iter()
        .map(|n| rng::positive_f64(&mut data, n))
        .collect();
    let stream_want: Vec<Vec<f64>> = stream.iter().map(|x| serial::run(&sig, x)).collect();
    let tenants: Vec<Signature<i64>> = service::TENANTS
        .iter()
        .map(|t| t.2.parse().expect("tenant signatures parse"))
        .collect();
    let lens = rng::stratified_log_uniform(
        &mut Rng::stream(seed, "rows.service_lengths"),
        SERVICE_POOL,
        1 << 14,
        1 << 18,
    );
    let mut data = Rng::stream(seed, "rows.service");
    let service: Vec<Vec<i64>> = lens
        .into_iter()
        .map(|n| rng::small_i64(&mut data, n))
        .collect();
    let service_want = service
        .iter()
        .enumerate()
        .map(|(k, x)| serial::run(&tenants[k % tenants.len()], x))
        .collect();
    Inputs {
        sig,
        batch,
        batch_tol: f64::kernel_tol(&batch_want),
        batch_want,
        stream,
        stream_tol: stream_want.iter().map(|w| f64::kernel_tol(w)).collect(),
        stream_want,
        service,
        service_want,
    }
}

/// What a step runs on.
struct Built {
    runner: BatchRunner<f64>,
    core: ServiceCore<i64>,
    ids: Vec<TenantId>,
    work: Vec<f64>,
}

/// Runner and service construction (cold plan cache), first touch of the
/// batch array, a first `run_rows` (pool spawn), a first streamed row,
/// and a first service row per tenant and shard (the shards' workers).
fn setup(inp: &Inputs, threads: usize) -> Result<(Built, f64), String> {
    plan::clear_cache();
    let t0 = Instant::now();
    let runner = BatchRunner::new(inp.sig.clone(), threads);
    let mut work = inp.batch.clone();
    runner
        .run_rows(&mut work, WIDTH)
        .map_err(|e| format!("warm run_rows failed: {e}"))?;
    let s = runner.stream();
    let (_, res) = s.push_row(inp.stream[0].clone()).join();
    res.map_err(|e| format!("warm streamed row failed: {e}"))?;
    s.finish()
        .map_err(|e| format!("warm stream finish failed: {e}"))?;
    let (core, ids) = service::build_core(threads);
    service::warm(&core, &ids, &inp.service[0])?;
    let built = Built {
        runner,
        core,
        ids,
        work,
    };
    Ok((built, t0.elapsed().as_secs_f64()))
}

#[derive(Default)]
struct Window {
    /// Per step: the three front ends' element rate ÷ the reference's.
    vs_ref: Samples,
    /// Per streamed row: its latency ÷ the reference's one-thread time for
    /// as many elements in the same step.
    row_latency_vs_ref: Samples,
    /// Elements per second of each step's three front ends together.
    step_melem_s: Samples,
    ref_melem_s: Samples,
    row_latency_ms: Samples,
    batch_ms: Samples,
    push_block_us: Samples,
    row_solve_us: Samples,
    row_wait_us: Samples,
    cache_hits: u64,
    cache_lookups: u64,
    kernel: Option<plr_core::kernel::KernelKind>,
}

impl Window {
    fn count(&mut self, s: &RunStats) {
        self.kernel.get_or_insert(s.kernel);
        self.cache_hits += s.plan_cache_hits;
        self.cache_lookups += s.plan_cache_hits + s.plan_cache_misses;
    }
}

/// Checks one row's outcome; on success counts its stats and returns them.
fn row_ok<T: Checked>(
    what: &str,
    res: Result<RunStats, plr_core::error::EngineError>,
    got: &[T],
    want: &[T],
    tol: Tol,
    r: &mut Report,
) -> Option<RunStats> {
    r.attempted += 1;
    match res {
        Ok(stats) if anomalous(&stats) => r.fail(format!(
            "rows: {what} reported {} aborts and {} recovered workers",
            stats.aborts, stats.workers_recovered
        )),
        Ok(stats) => match first_mismatch(got, want, tol) {
            None => return Some(stats),
            Some(i) => r.fail(format!(
                "rows: {what} differs from the serial oracle at {i}"
            )),
        },
        Err(e) => r.fail(format!("rows: {what} failed: {e}")),
    }
    None
}

#[allow(clippy::too_many_lines)]
fn window(
    b: &mut Built,
    reference: &mut [f64],
    inp: &Inputs,
    ctx: &Ctx,
    seconds: f64,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Window {
    let mut w = Window::default();
    let naive = |out: &mut [f64]| {
        let sig = &inp.sig;
        refs::naive_rows(
            sig.feedforward(),
            sig.feedback(),
            &inp.batch,
            out,
            WIDTH,
            ctx.threads,
        )
    };
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut step = 0u64;
    while Instant::now() < end || step == 0 {
        step += 1;
        b.work.copy_from_slice(&inp.batch);
        let ref_before_ms = naive(reference);

        // Batch step.
        let span = tracer.open();
        let t0 = Instant::now();
        let res = b.runner.run_rows(black_box(&mut b.work), WIDTH);
        let batch_s = t0.elapsed().as_secs_f64();
        tracer.close(span, "batch.run_rows", 0, step, res.as_ref().ok().copied());
        let what = format!("run_rows step {step}");
        let mut all_ok = match row_ok(&what, res, &b.work, &inp.batch_want, inp.batch_tol, r) {
            Some(stats) => {
                w.count(&stats);
                w.batch_ms.push(batch_s * 1e3);
                true
            }
            None => false,
        };

        // Stream step.
        let first = (step as usize - 1) % (STREAM_POOL / ROWS) * ROWS;
        let rows: Vec<Vec<f64>> = inp.stream[first..first + ROWS].to_vec();
        let stream_elems: usize = rows.iter().map(Vec::len).sum();
        let step_span = tracer.open();
        let epoch = Instant::now();
        let mut pending = Vec::with_capacity(ROWS);
        let s = b.runner.stream();
        for (i, row) in rows.into_iter().enumerate() {
            let pushed = epoch.elapsed();
            let span = tracer.open();
            let h = s.push_row(row);
            tracer.close(span, "stream.push_row", step_span.id, i as u64, None);
            w.push_block_us
                .push((epoch.elapsed() - pushed).as_secs_f64() * 1e6);
            let done = Arc::new(AtomicU64::new(0));
            let slot = Arc::clone(&done);
            h.on_complete(move || {
                slot.store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
            });
            pending.push((h, pushed, done));
        }
        let mut outs = Vec::with_capacity(ROWS);
        for (i, (h, pushed, done)) in pending.into_iter().enumerate() {
            let span = tracer.open();
            let t0 = Instant::now();
            let (data, res) = h.join();
            let waited = t0.elapsed();
            tracer.close(
                span,
                "stream.join",
                step_span.id,
                i as u64,
                res.as_ref().ok().copied(),
            );
            let done_ns = done.load(Ordering::Acquire);
            outs.push((data, res, pushed, done_ns, waited));
        }
        let finished = s.finish();
        let stream_s = epoch.elapsed().as_secs_f64();
        tracer.close(
            step_span,
            "rows.stream_step",
            0,
            step,
            finished.as_ref().ok().copied(),
        );
        if let Err(e) = finished {
            r.fail(format!("rows: stream step {step} finished with {e}"));
            all_ok = false;
        }

        // Service step.
        let sfirst = (step as usize - 1) % (SERVICE_POOL / SERVICE_ROWS) * SERVICE_ROWS;
        let srows: Vec<Vec<i64>> = inp.service[sfirst..sfirst + SERVICE_ROWS].to_vec();
        let service_elems: usize = srows.iter().map(Vec::len).sum();
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(SERVICE_ROWS);
        for (i, row) in srows.into_iter().enumerate() {
            let k = sfirst + i;
            let span = tracer.open();
            let h = b
                .core
                .submit(b.ids[k % b.ids.len()], row, SubmitOptions::default());
            tracer.close(span, "service.submit", 0, k as u64, None);
            handles.push((k, h));
        }
        let mut souts = Vec::with_capacity(SERVICE_ROWS);
        for (k, h) in handles {
            souts.push((
                k,
                h.map(|h| {
                    let span = tracer.open();
                    let (data, res) = h.join();
                    tracer.close(
                        span,
                        "service.wait",
                        0,
                        k as u64,
                        res.as_ref().ok().copied(),
                    );
                    (data, res)
                }),
            ));
        }
        let service_s = t0.elapsed().as_secs_f64();

        // The reference brackets the three front ends.
        let ref_ms = (ref_before_ms + naive(reference)) / 2.0;
        let ref_elems = (ROWS * WIDTH) as f64;
        let ref_melem_s = ref_elems / ref_ms / 1e3;
        // One reference thread's time per element, in milliseconds.
        let ref_ms_per_elem = ref_ms * ctx.threads as f64 / ref_elems;

        // Checks, outside the timed sections.
        for (i, (data, res, pushed, done_ns, waited)) in outs.into_iter().enumerate() {
            let what = format!("streamed row {i} of step {step}");
            let k = first + i;
            match row_ok(&what, res, &data, &inp.stream_want[k], inp.stream_tol[k], r) {
                Some(stats) => {
                    w.count(&stats);
                    let lat_ms = (done_ns as f64 - pushed.as_nanos() as f64) / 1e6;
                    w.row_latency_ms.push(lat_ms);
                    w.row_latency_vs_ref
                        .push(lat_ms / (data.len() as f64 * ref_ms_per_elem));
                    w.row_solve_us.push(stats.busy_nanos() as f64 / 1e3);
                    w.row_wait_us.push(waited.as_secs_f64() * 1e6);
                }
                None => all_ok = false,
            }
        }
        for (k, out) in souts {
            let what = format!("service row {k} of step {step}");
            match out {
                Ok((data, res)) => {
                    match row_ok(&what, res, &data, &inp.service_want[k], Tol::Exact, r) {
                        Some(stats) => w.count(&stats),
                        None => all_ok = false,
                    }
                }
                Err(e) => {
                    r.attempted += 1;
                    r.fail(format!("rows: {what} was refused: {e}"));
                    all_ok = false;
                }
            }
        }
        if all_ok {
            let melem_s = (ROWS * WIDTH + stream_elems + service_elems) as f64
                / (batch_s + stream_s + service_s)
                / 1e6;
            w.step_melem_s.push(melem_s);
            w.ref_melem_s.push(ref_melem_s);
            w.vs_ref.push(melem_s / ref_melem_s);
        }
    }
    w
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<Vec<Span>, String> {
    let inp = inputs(ctx.seed);
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setups = Samples::default();
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let (b, s) = setup(&inp, ctx.threads)?;
        setups.push(s);
        built = Some(b);
    }
    let mut b = built.expect("at least one setup");
    r.add("setup_s", setups.median(), "s", setups.len() as u64);
    let mut reference = vec![0.0; ROWS * WIDTH];

    let closed = ctx.seconds * CLOSED_SHARE;
    let secs = if ctx.trace { closed / 2.0 } else { closed };
    let mut off = Tracer::new(false, ctx.epoch, 0);
    let w = window(&mut b, &mut reference, &inp, ctx, secs, &mut off, r);
    if w.vs_ref.is_empty() {
        return Err(format!("no step succeeded: {:?}", r.failures.first()));
    }
    let steps = w.vs_ref.len() as u64;
    let lat = &w.row_latency_ms;
    let n = lat.len() as u64;
    r.add("throughput_vs_ref", w.vs_ref.median(), "ratio", steps);
    r.add(
        "stream.latency_p50_vs_ref",
        w.row_latency_vs_ref.median(),
        "ratio",
        n,
    );
    r.add_tail(
        "stream.latency_p99_vs_ref",
        &w.row_latency_vs_ref,
        99.0,
        "ratio",
    );
    r.add("batch.run_rows_ms_p50", w.batch_ms.median(), "ms", steps);
    r.add(
        "throughput_melem_s",
        w.step_melem_s.median(),
        "Melem/s",
        steps,
    );
    r.add(
        "reference_melem_s",
        w.ref_melem_s.median(),
        "Melem/s",
        steps,
    );
    r.add("latency_ms_p50", lat.median(), "ms", n);
    r.add_tail("latency_ms_p99", lat, 99.0, "ms");
    if let Some(k) = w.kernel {
        r.stamp("kernel_ran.rows", format!("{k:?}"));
    }
    let mut spans = if ctx.trace {
        let mut tracer = Tracer::new(true, ctx.epoch, 1);
        let t = window(&mut b, &mut reference, &inp, ctx, secs, &mut tracer, r);
        let tn = t.row_latency_ms.len() as u64;
        r.add(
            "trace.overhead_frac",
            w.vs_ref.median() / t.vs_ref.median() - 1.0,
            "frac",
            t.vs_ref.len() as u64,
        );
        r.add(
            "batch.run_rows_ms_p50",
            t.batch_ms.median(),
            "ms",
            t.batch_ms.len() as u64,
        );
        r.add(
            "stream.push_block_us_p50",
            t.push_block_us.median(),
            "us",
            tn,
        );
        r.add_tail("stream.push_block_us_p99", &t.push_block_us, 99.0, "us");
        r.add("stream.row_solve_us_p50", t.row_solve_us.median(), "us", tn);
        r.add_tail("stream.row_wait_us_p99", &t.row_wait_us, 99.0, "us");
        r.add(
            "plan.cache_hit_frac",
            t.cache_hits as f64 / t.cache_lookups.max(1) as f64,
            "frac",
            t.cache_lookups,
        );
        tracer.into_spans()
    } else {
        Vec::new()
    };
    crate::progress("service open loop");
    spans.extend(service::open_loop(
        ctx,
        &b.core,
        &b.ids,
        ctx.seconds * (1.0 - CLOSED_SHARE),
        r,
    ));
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded() {
        let (a, b, c) = (inputs(3), inputs(3), inputs(4));
        assert_eq!(a.batch, b.batch);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.service, b.service);
        assert_ne!(a.batch, c.batch);
        assert_ne!(a.stream, c.stream);
        assert_ne!(a.service, c.service);
        assert_eq!(a.stream.len(), STREAM_POOL);
        assert!(a
            .stream
            .iter()
            .all(|r| ((1 << 10)..=(1 << 16)).contains(&r.len())));
        assert_eq!(a.service.len(), SERVICE_POOL);
        assert!(a
            .service
            .iter()
            .all(|r| ((1 << 14)..=(1 << 18)).contains(&r.len())));
    }
}
