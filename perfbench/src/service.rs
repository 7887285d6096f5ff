//! The service's open loop, the last phase of the `rows` workload: one
//! generator thread drives Poisson arrivals into a `ServiceCore` (2
//! shards × nproc/2 threads) with three i64 tenants — weight 4 `(1: 1)`,
//! weight 2 `(1: 1, 1)`, weight 1 `(1: 2, -1)` — offered in equal shares.
//! Row lengths are log-uniform 16 Ki–256 Ki (stratified, in seeded order)
//! with a 20 ms deadline. A steady phase at about half the service's
//! capacity on a quiet host (60% of the time) is followed by an overload
//! phase at about 1.5× (the other 40%).
//!
//! Latency runs from a row's due time to its observed completion, so a
//! generator stall is charged to the rows it delayed; the generator's own
//! lateness is reported. A row counts as ok when the service completed it
//! within its deadline, which the service enforces from admission (a late
//! row resolves `DeadlineExceeded`); a shed, late or failed row is a miss.
//! Judging the deadline from admission keeps the goodput a property of the
//! service: generator lag on a loaded host shows in the latencies instead.

use crate::check::anomalous;
use crate::openloop::{interval_rates, pace, poisson_due, summarize, trimmed_tail, Timing};
use crate::report::Report;
use crate::rng::{self, Rng};
use crate::stats::Samples;
use crate::trace::{Span, Tracer};
use crate::Ctx;
use plr_core::error::EngineError;
use plr_core::serial;
use plr_core::signature::Signature;
use plr_service::{ServiceConfig, ServiceCore, ServiceHandle, SubmitOptions, TenantId, TenantSpec};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rates, fixed (never recalibrated per run): about 50% and 150%
/// of the capacity measured on a 2-vCPU AVX-512 host (closed-loop
/// saturation of this tenant and length mix, generator included).
pub const STEADY_ROWS_S: f64 = 4_000.0;
pub const OVERLOAD_ROWS_S: f64 = 12_000.0;
const DEADLINE: Duration = Duration::from_millis(20);
const MIN_LEN: usize = 1 << 14;
const MAX_LEN: usize = 1 << 18;
/// Seeded input pool that checked rows are cut from.
const POOL_LEN: usize = 1 << 22;
/// Rows per phase (on average) kept and checked against the serial
/// oracle after the phase.
const CHECKED_PER_PHASE: f64 = 128.0;
/// Share of the window spent in the steady phase; the rest is overload.
const STEADY_SHARE: f64 = 0.6;
/// Intervals per phase. The goodput is the median of per-interval rates
/// and the tail leaves out the `TRIMMED` worst intervals, so a host stall
/// that hits one or two intervals does not decide the result.
const INTERVALS: usize = 20;
const TRIMMED: usize = 2;
pub const TENANTS: [(&str, u32, &str); 3] = [
    ("w4_prefix", 4, "(1: 1)"),
    ("w2_fibonacci", 2, "(1: 1, 1)"),
    ("w1_order2", 1, "(1: 2, -1)"),
];

struct Arrival {
    due_ns: u64,
    tenant: usize,
    len: usize,
    /// Pool offset of a checked row's fresh input.
    check: Option<usize>,
}

fn schedule(seed: u64, label: &str, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::stream(seed, label);
    let due = poisson_due(&mut rng, rate, seconds);
    let p = CHECKED_PER_PHASE / due.len().max(1) as f64;
    let lens = rng::stratified_log_uniform(&mut rng, due.len(), MIN_LEN, MAX_LEN);
    due.into_iter()
        .zip(lens)
        .map(|(due_ns, len)| {
            let tenant = rng.below(TENANTS.len());
            let check = (rng.unit() < p).then(|| rng.below(POOL_LEN - len));
            Arrival {
                due_ns,
                tenant,
                len,
                check,
            }
        })
        .collect()
}

pub fn build_core(threads: usize) -> (ServiceCore<i64>, Vec<TenantId>) {
    let core = ServiceCore::new(ServiceConfig {
        shards: 2,
        threads_per_shard: (threads / 2).max(1),
        max_queue: 0,
    });
    let ids = TENANTS
        .iter()
        .map(|&(name, w, sig)| {
            let sig: Signature<i64> = sig.parse().expect("tenant signatures parse");
            core.add_tenant(TenantSpec::new(name, sig).with_weight(w))
        })
        .collect();
    (core, ids)
}

/// A first `row` per tenant and shard, which spawns the shards' workers
/// and fills the tenants' plans.
pub fn warm(core: &ServiceCore<i64>, ids: &[TenantId], row: &[i64]) -> Result<(), String> {
    let mut hs = Vec::new();
    for _ in 0..2 {
        for &id in ids {
            let h = core
                .submit(id, row.to_vec(), SubmitOptions::default())
                .map_err(|e| format!("warm submit failed: {e}"))?;
            hs.push(h);
        }
    }
    for h in hs {
        h.join().1.map_err(|e| format!("warm row failed: {e}"))?;
    }
    Ok(())
}

enum Event {
    Admitted {
        k: usize,
        handle: ServiceHandle<i64>,
        sent_ns: u64,
        submit_ns: u64,
    },
    Rejected {
        k: usize,
        err: EngineError,
        sent_ns: u64,
        submit_ns: u64,
    },
}

struct Pending {
    k: usize,
    handle: ServiceHandle<i64>,
    sent_ns: u64,
    submit_ns: u64,
}

/// Everything one phase measured.
#[derive(Default)]
struct Phase {
    offered: u64,
    ok: u64,
    /// `(due, elements)` of every row that completed within its deadline.
    ok_rows: Vec<(u64, u64)>,
    ok_elems_by_tenant: [u64; 3],
    shed_overload: u64,
    shed_quota: u64,
    deadline_miss: u64,
    timings: Vec<Timing>,
    submit_us: Samples,
    solve_us: Samples,
    queue_wait_us: Samples,
    lag_us: Samples,
    queue_depth_max: usize,
    checked: u64,
    /// The solve kernel the first completed row reported.
    kernel: Option<plr_core::kernel::KernelKind>,
}

#[allow(clippy::too_many_arguments)]
fn phase(
    name: &str,
    core: &ServiceCore<i64>,
    ids: &[TenantId],
    arrivals: &[Arrival],
    pool: &[i64],
    sigs: &[Signature<i64>],
    ctx: &Ctx,
    traced: bool,
    r: &mut Report,
    spans: &mut Vec<Span>,
) -> Phase {
    let (tx, rx) = mpsc::channel::<Event>();
    let (free_tx, free_rx) = mpsc::channel::<Vec<i64>>();
    let start = Instant::now() + Duration::from_millis(5);
    let mut ph = Phase {
        offered: arrivals.len() as u64,
        ..Phase::default()
    };
    let mut kept: Vec<(usize, Vec<i64>)> = Vec::new();
    std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut tracer = Tracer::new(traced, ctx.epoch, 2);
            for (k, a) in arrivals.iter().enumerate() {
                let mut buf = free_rx
                    .try_recv()
                    .unwrap_or_else(|_| Vec::with_capacity(MAX_LEN));
                match a.check {
                    // Checked rows carry fresh seeded input; the others
                    // reuse a finished row's buffer (integer solve time
                    // does not depend on the values) to keep the
                    // generator's copying off the service's CPUs.
                    Some(off) => {
                        buf.clear();
                        buf.extend_from_slice(&pool[off..off + a.len]);
                    }
                    None => buf.resize(a.len, 0),
                }
                let sent = pace(start + Duration::from_nanos(a.due_ns));
                let sent_ns = sent.duration_since(start).as_nanos() as u64;
                let span = tracer.open();
                let res = core.submit(ids[a.tenant], buf, SubmitOptions::deadline(DEADLINE));
                let submit_ns = sent.elapsed().as_nanos() as u64;
                tracer.close(span, "service.submit", 0, k as u64, None);
                let ev = match res {
                    Ok(handle) => Event::Admitted {
                        k,
                        handle,
                        sent_ns,
                        submit_ns,
                    },
                    Err(err) => Event::Rejected {
                        k,
                        err,
                        sent_ns,
                        submit_ns,
                    },
                };
                if tx.send(ev).is_err() {
                    break;
                }
            }
            tracer.into_spans()
        });

        let mut tracer = Tracer::new(traced, ctx.epoch, 3);
        let mut pending: Vec<Pending> = Vec::new();
        let mut open = true;
        let mut last_depth = Instant::now();
        let give_up = start + Duration::from_secs_f64(ctx.seconds) + Duration::from_secs(30);
        while open || !pending.is_empty() {
            loop {
                let ev = if pending.is_empty() && open {
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(ev) => ev,
                        Err(mpsc::RecvTimeoutError::Timeout) => break,
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                } else {
                    match rx.try_recv() {
                        Ok(ev) => ev,
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                };
                match ev {
                    Event::Admitted {
                        k,
                        handle,
                        sent_ns,
                        submit_ns,
                    } => {
                        ph.submit_us.push(submit_ns as f64 / 1e3);
                        pending.push(Pending {
                            k,
                            handle,
                            sent_ns,
                            submit_ns,
                        });
                    }
                    Event::Rejected {
                        k,
                        err,
                        sent_ns,
                        submit_ns,
                    } => {
                        ph.submit_us.push(submit_ns as f64 / 1e3);
                        ph.lag_us
                            .push(sent_ns.saturating_sub(arrivals[k].due_ns) as f64 / 1e3);
                        match err {
                            EngineError::Overloaded { .. } => ph.shed_overload += 1,
                            EngineError::QuotaExceeded { .. } => ph.shed_quota += 1,
                            e => r.fail(format!("service {name}: row {k} rejected with {e}")),
                        }
                    }
                }
            }
            if let Some(head) = pending.first() {
                let span = tracer.open();
                let res = head.handle.wait_timeout(Duration::from_micros(200));
                let stats = res.and_then(Result::ok);
                tracer.close(span, "service.wait", 0, head.k as u64, stats);
            }
            if last_depth.elapsed() >= Duration::from_millis(1) {
                let depth: usize = core.stats().shards.iter().map(|s| s.queued).sum();
                ph.queue_depth_max = ph.queue_depth_max.max(depth);
                last_depth = Instant::now();
            }
            let now_ns = start.elapsed().as_nanos() as u64;
            let mut i = 0;
            while i < pending.len() {
                if !pending[i].handle.is_finished() {
                    i += 1;
                    continue;
                }
                let p = pending.remove(i);
                let a = &arrivals[p.k];
                let (data, res) = p.handle.join();
                let t = Timing {
                    due: a.due_ns,
                    sent: p.sent_ns,
                    done: now_ns,
                };
                ph.lag_us.push(t.lag_ns() as f64 / 1e3);
                let solved = res.is_ok();
                match res {
                    Ok(stats) if anomalous(&stats) => r.fail(format!(
                        "service {name}: row {} reported {} aborts and {} recovered workers",
                        p.k, stats.aborts, stats.workers_recovered
                    )),
                    Ok(stats) => {
                        if ph.kernel.is_none() {
                            ph.kernel = Some(stats.kernel);
                        }
                        let solve_ns = stats.busy_nanos();
                        ph.solve_us.push(solve_ns as f64 / 1e3);
                        let after_submit = now_ns.saturating_sub(p.sent_ns + p.submit_ns);
                        ph.queue_wait_us
                            .push(after_submit.saturating_sub(solve_ns) as f64 / 1e3);
                        ph.timings.push(t);
                        ph.ok += 1;
                        ph.ok_rows.push((a.due_ns, a.len as u64));
                        ph.ok_elems_by_tenant[a.tenant] += a.len as u64;
                    }
                    Err(EngineError::DeadlineExceeded { .. }) => ph.deadline_miss += 1,
                    Err(e) => r.fail(format!("service {name}: row {} failed: {e}", p.k)),
                }
                if a.check.is_some() && solved {
                    kept.push((p.k, data));
                } else {
                    let _ = free_tx.send(data);
                }
            }
            if Instant::now() > give_up {
                for p in pending.drain(..) {
                    p.handle.cancel();
                    r.fail(format!("service {name}: row {} never completed", p.k));
                }
            }
        }
        match generator.join() {
            Ok(gen_spans) => spans.extend(gen_spans),
            Err(_) => r.fail(format!("service {name}: the generator thread panicked")),
        }
        spans.extend(tracer.into_spans());
    });

    // Check the kept rows against the serial oracle, outside the window.
    // Only rows that completed are kept: a failed row has no output.
    for (k, data) in kept {
        let a = &arrivals[k];
        let off = a.check.expect("only checked rows are kept");
        let want = serial::run(&sigs[a.tenant], &pool[off..off + a.len]);
        if data != want {
            let i = data
                .iter()
                .zip(&want)
                .position(|(x, y)| x != y)
                .unwrap_or(0);
            r.fail(format!(
                "service {name}: row {k} differs from the serial oracle at {i}"
            ));
        }
        ph.checked += 1;
    }
    ph
}

/// Runs the open loop for `seconds` — a steady phase, then an overload
/// phase — into `core`, and reports what it measured: latency from the
/// due time, the share of rows served within their deadline, and the
/// overload goodput, plus, in a traced run, a traced repeat and the
/// service's layer metrics. None of these is gated: an open loop at fixed
/// rates cannot be paired with a host reference, and on a host whose
/// speed moves by 2× the same rates are a light load one minute and an
/// overload the next.
pub fn open_loop(
    ctx: &Ctx,
    core: &ServiceCore<i64>,
    ids: &[TenantId],
    seconds: f64,
    r: &mut Report,
) -> Vec<Span> {
    let pool = rng::small_i64(&mut Rng::stream(ctx.seed, "service.pool"), POOL_LEN);
    let sigs: Vec<Signature<i64>> = TENANTS
        .iter()
        .map(|t| t.2.parse().expect("tenant signatures parse"))
        .collect();
    let pool = &pool[..];
    // A traced run spends half its time untraced and half traced.
    let share = if ctx.trace { 0.5 } else { 1.0 };
    let steady_s = seconds * share * STEADY_SHARE;
    let over_s = seconds * share * (1.0 - STEADY_SHARE);
    let mut spans = Vec::new();
    let plan_run = |label: &str, traced: bool, r: &mut Report, spans: &mut Vec<Span>| {
        let steady = schedule(
            ctx.seed,
            &format!("service.steady.{label}"),
            STEADY_ROWS_S,
            steady_s,
        );
        let over = schedule(
            ctx.seed,
            &format!("service.overload.{label}"),
            OVERLOAD_ROWS_S,
            over_s,
        );
        let a = phase(
            "steady", core, ids, &steady, pool, &sigs, ctx, traced, r, spans,
        );
        let b = phase(
            "overload", core, ids, &over, pool, &sigs, ctx, traced, r, spans,
        );
        (a, b)
    };

    let (steady, over) = plan_run("plain", false, r, &mut spans);
    r.add(
        "service.rows_checked",
        (steady.checked + over.checked) as f64,
        "rows",
        steady.offered + over.offered,
    );
    if let Some(k) = steady.kernel.or(over.kernel) {
        r.stamp("kernel_ran.service", format!("{k:?}"));
    }
    for ph in [&steady, &over] {
        r.attempted += ph.offered;
    }
    let (steady_ns, over_ns) = ((steady_s * 1e9) as u64, (over_s * 1e9) as u64);
    let (lat, _) = summarize(&steady.timings);
    let goodput = interval_rates(&over.ok_rows, over_ns, INTERVALS).median() / 1e6;
    let tail = trimmed_tail(&steady.timings, steady_ns, INTERVALS, TRIMMED, 99.0);
    let otail = trimmed_tail(&over.timings, over_ns, INTERVALS, TRIMMED, 99.0);
    let n = lat.len() as u64;
    r.add("overload_goodput_melem_s", goodput, "Melem/s", over.ok);
    r.add("service.latency_ms_p50", lat.median(), "ms", n);
    r.add("service.latency_ms_p99", tail, "ms", n);
    r.add(
        "overload_latency_ms_p99",
        otail,
        "ms",
        over.timings.len() as u64,
    );
    r.add(
        "ok_frac",
        steady.ok as f64 / steady.offered.max(1) as f64,
        "frac",
        steady.offered,
    );
    if !ctx.trace {
        anomalies(core, r);
        return spans;
    }

    let (ts, to) = plan_run("traced", true, r, &mut spans);
    r.attempted += ts.offered + to.offered;
    let traced_goodput = interval_rates(&to.ok_rows, over_ns, INTERVALS).median() / 1e6;
    r.add(
        "service.trace_overhead_frac",
        goodput / traced_goodput - 1.0,
        "frac",
        to.ok,
    );
    let mut all = Phase::default();
    for ph in [&ts, &to] {
        all.offered += ph.offered;
        all.shed_overload += ph.shed_overload;
        all.shed_quota += ph.shed_quota;
        all.deadline_miss += ph.deadline_miss;
        all.submit_us.extend(&ph.submit_us);
        all.solve_us.extend(&ph.solve_us);
        all.queue_wait_us.extend(&ph.queue_wait_us);
        all.lag_us.extend(&ph.lag_us);
        all.queue_depth_max = all.queue_depth_max.max(ph.queue_depth_max);
    }
    let offered = all.offered.max(1) as f64;
    let ns = |s: &Samples| s.len() as u64;
    r.add(
        "service.submit_us_p50",
        all.submit_us.median(),
        "us",
        ns(&all.submit_us),
    );
    r.add_tail("service.submit_us_p99", &all.submit_us, 99.0, "us");
    r.add(
        "service.solve_us_p50",
        all.solve_us.median(),
        "us",
        ns(&all.solve_us),
    );
    r.add(
        "service.queue_wait_us_p50",
        all.queue_wait_us.median(),
        "us",
        ns(&all.queue_wait_us),
    );
    r.add_tail("service.queue_wait_us_p99", &all.queue_wait_us, 99.0, "us");
    r.add(
        "service.shed_overload_frac",
        all.shed_overload as f64 / offered,
        "frac",
        all.offered,
    );
    r.add(
        "service.shed_quota_frac",
        all.shed_quota as f64 / offered,
        "frac",
        all.offered,
    );
    r.add(
        "service.deadline_miss_frac",
        all.deadline_miss as f64 / offered,
        "frac",
        all.offered,
    );
    r.add(
        "service.queue_depth_max",
        all.queue_depth_max as f64,
        "rows",
        1,
    );
    r.add_tail("service.gen_lag_us_p99", &all.lag_us, 99.0, "us");
    let stats = core.stats();
    let ewma = stats
        .shards
        .iter()
        .map(|s| s.ewma_service_nanos)
        .max()
        .unwrap_or(0);
    r.add(
        "service.ewma_service_us",
        ewma as f64 / 1e3,
        "us",
        stats.shards.len() as u64,
    );
    let total: u64 = to.ok_elems_by_tenant.iter().sum();
    let wsum: u32 = TENANTS.iter().map(|t| t.1).sum();
    let err = TENANTS
        .iter()
        .zip(to.ok_elems_by_tenant)
        .map(|(t, e)| (e as f64 / total.max(1) as f64 - f64::from(t.1) / f64::from(wsum)).abs())
        .fold(0.0, f64::max);
    r.add("service.weight_share_error", err, "frac", to.ok);
    anomalies(core, r);
    spans
}

/// Relaunched or degraded shards are failures, never dropped.
fn anomalies(core: &ServiceCore<i64>, r: &mut Report) {
    let stats = core.stats();
    let relaunches: u64 = stats.shards.iter().map(|s| s.relaunches).sum();
    let degraded = stats.shards.iter().filter(|s| s.degraded).count();
    r.add("service.relaunches", relaunches as f64, "count", 1);
    r.add("service.degraded_shards", degraded as f64, "count", 1);
    if relaunches > 0 || degraded > 0 {
        r.fail(format!(
            "service: {relaunches} shard relaunches, {degraded} degraded shards"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Key = Vec<(u64, usize, usize, Option<usize>)>;

    fn key(a: &[Arrival]) -> Key {
        a.iter()
            .map(|x| (x.due_ns, x.tenant, x.len, x.check))
            .collect()
    }

    #[test]
    fn schedules_are_seeded_and_within_their_ranges() {
        let a = schedule(5, "service.steady.plain", STEADY_ROWS_S, 1.0);
        assert_eq!(
            key(&a),
            key(&schedule(5, "service.steady.plain", STEADY_ROWS_S, 1.0))
        );
        assert_ne!(
            key(&a),
            key(&schedule(6, "service.steady.plain", STEADY_ROWS_S, 1.0))
        );
        assert_ne!(
            key(&a),
            key(&schedule(5, "service.steady.traced", STEADY_ROWS_S, 1.0))
        );
        let checked = a.iter().filter(|x| x.check.is_some()).count();
        assert!((80..=180).contains(&checked), "{checked} checked rows");
        for x in &a {
            assert!((MIN_LEN..=MAX_LEN).contains(&x.len));
            assert!(x.tenant < TENANTS.len());
            if let Some(off) = x.check {
                assert!(off + x.len <= POOL_LEN);
            }
        }
    }
}
