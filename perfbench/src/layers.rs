//! Per-layer probes of the traced run: the kernels on in-cache rows, the
//! plan build functions, and the worker pool's empty round trip; plus the
//! span-derived self times.

use crate::report::{self, Report, SPANS};
use crate::rng::{self, Rng};
use crate::stats::{median_of, time_ms, Samples};
use crate::trace::{self, Span, Tracer};
use crate::Ctx;
use plr_core::blocked::SolveKernel;
use plr_core::plan::{self, CorrectionPlan, PlanRequest};
use plr_core::segmented::{SegmentedPlan, Segments};
use plr_core::signature::Signature;
use plr_core::simd;
use plr_core::varying::{VaryingPlan, VaryingSignature};
use plr_parallel::WorkerPool;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// In-cache row length of the kernel probes.
const ROW: usize = 1 << 14;
const KERNEL_PROBE: Duration = Duration::from_millis(60);
const CHUNK: usize = 1 << 16;
/// Fixed probe sizes of the plan builds.
const VARYING_PLAN_LEN: usize = 1 << 20;
const SEGMENTED_PLAN_LEN: usize = 1 << 26;
const POOL_ROUND_TRIPS: usize = 2000;

/// Median Melem/s of `f` over one-row calls for `KERNEL_PROBE`, restoring
/// the row from `src` before each timed call.
fn kernel_rate<T: Copy>(src: &[T], mut f: impl FnMut(&mut [T]) -> usize) -> (f64, u64) {
    let mut buf = src.to_vec();
    let mut s = Samples::default();
    let end = Instant::now() + KERNEL_PROBE;
    while Instant::now() < end {
        buf.copy_from_slice(src);
        let t0 = Instant::now();
        let n = f(black_box(&mut buf));
        let dt = t0.elapsed().as_secs_f64();
        s.push(n as f64 / dt / 1e6);
    }
    (s.median(), s.len() as u64)
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Vec<Span> {
    let mut g = Rng::stream(ctx.seed, "layers");
    let xf = rng::positive_f64(&mut g, ROW);
    let xi = rng::small_i64(&mut g, ROW);

    let k = SolveKernel::<f64>::select(&[1.6, -0.64]);
    let (v, n) = kernel_rate(&xf, |d| {
        k.solve_in_place(d);
        d.len()
    });
    r.add("kernel.solve_f64_melem_s", v, "Melem/s", n);
    let k = SolveKernel::<i64>::select(&[2, -1]);
    let (v, n) = kernel_rate(&xi, |d| {
        k.solve_in_place(d);
        d.len()
    });
    r.add("kernel.solve_i64_melem_s", v, "Melem/s", n);
    let (v, n) = kernel_rate(&xf, |d| simd::fir_steady_in_place(&[0.04], d, 0));
    r.add("kernel.fir_f64_melem_s", v, "Melem/s", n);
    let list = rng::positive_f64(&mut g, ROW);
    let (v, n) = kernel_rate(&xf, |d| {
        if simd::axpy_in_place(d, &list, 0.5) {
            d.len()
        } else {
            0
        }
    });
    r.add("kernel.axpy_f64_melem_s", v, "Melem/s", n);

    let sig: Signature<f64> = "0.04:1.6,-0.64".parse().expect("probe signature parses");
    let ms = median_of(5, || {
        time_ms(|| {
            black_box(CorrectionPlan::build(&sig, PlanRequest::new::<f64>(CHUNK)));
        })
    });
    r.add("plan.constant_build_ms", ms, "ms", 5);
    let gates = rng::gates(&mut g, VARYING_PLAN_LEN, 1000);
    let ms = median_of(3, || {
        let vs = VaryingSignature::first_order(gates.clone()).expect("order 1 builds");
        time_ms(|| {
            black_box(VaryingPlan::build(vs, CHUNK).expect("plan builds"));
        })
    });
    r.add("plan.varying_build_ms", ms, "ms", 3);
    let seg: Signature<f64> = "0.2:0.8".parse().expect("probe signature parses");
    let ms = median_of(5, || {
        let segs = Segments::uniform(CHUNK, SEGMENTED_PLAN_LEN);
        time_ms(|| {
            black_box(
                SegmentedPlan::build(&seg, segs, SEGMENTED_PLAN_LEN, CHUNK).expect("plan builds"),
            );
        })
    });
    r.add("plan.segmented_build_ms", ms, "ms", 5);
    plan::clear_cache();

    // Empty round trips through a pool of the runners' width.
    let pool = WorkerPool::new(ctx.threads);
    if pool.run(|_, _| {}).is_err() {
        r.fail("pool: warm-up run panicked".into());
    }
    let before = pool.counters();
    let mut tracer = Tracer::new(true, ctx.epoch, 4);
    let mut rt = Samples::default();
    for i in 0..POOL_ROUND_TRIPS {
        let span = tracer.open();
        let t0 = Instant::now();
        let res = pool.run(|_, _| {});
        rt.push(t0.elapsed().as_secs_f64() * 1e6);
        tracer.close(span, "pool.run", 0, i as u64, None);
        r.attempted += 1;
        if let Err(p) = res {
            r.fail(format!("pool: round trip {i} panicked: {p:?}"));
        }
    }
    let after = pool.counters();
    r.add("pool.wake_us_p50", rt.median(), "us", rt.len() as u64);
    for (name, d) in [
        ("pool.panicked", after.panicked - before.panicked),
        ("pool.cancelled", after.cancelled - before.cancelled),
        (
            "pool.deadline_exceeded",
            after.deadline_exceeded - before.deadline_exceeded,
        ),
    ] {
        r.add(name, d as f64, "count", POOL_ROUND_TRIPS as u64);
        if d > 0 {
            r.fail(format!("{name}: {d} during empty round trips"));
        }
    }
    tracer.into_spans()
}

/// Mean self time per call of each traced layer function.
pub fn span_metrics(spans: &[Span], r: &mut Report) {
    let totals = trace::by_name(spans);
    for name in SPANS {
        let t = totals.get(name).copied().unwrap_or_default();
        let mean = if t.count == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.count as f64 / 1e3
        };
        r.add(format!("span.{name}.self_us_mean"), mean, "us", t.count);
    }
    r.add(
        "trace.spans",
        spans.len() as f64,
        "count",
        spans.len() as u64,
    );
}

/// Reports 0 (with no samples) for every per-layer metric of a layer the
/// workload did not exercise.
pub fn fill_unexercised(r: &mut Report) {
    for s in report::per_layer() {
        if r.get(&s.name).is_none() {
            r.add(s.name, 0.0, s.unit, 0);
        }
    }
}
