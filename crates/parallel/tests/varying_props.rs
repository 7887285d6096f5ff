//! Differential gauntlet for the time-varying matrix-carry lowering.
//!
//! The contract: every executor of a [`VaryingSignature`] — the serial
//! reference evaluator, both [`VaryingEngine`] carry strategies, both
//! [`VaryingRunner`] strategies, the whole-row batch path, and the
//! streaming layer — computes the *same recurrence*. For integer
//! elements the arithmetic is wrapping and therefore exactly
//! reassociable: every executor must agree **bit-exactly** across
//! orders, chunk sizes, and thread counts. For floats the chunked
//! executors reassociate, so agreement is elementwise within a few ULPs
//! for contractive coefficient gates (the Mamba/selective-scan regime,
//! where boundary rounding decays geometrically) and within a relative
//! bound for wider gates.
//!
//! Also holds the stats surface to its contract: varying runs report
//! [`PlanKind::MatrixCarry`], never touch the constant-coefficient
//! correction-plan cache, and summarize their kernels as
//! [`KernelKind::Mixed`] exactly when constant-row kernel chunks and
//! varying scalar chunks coexist in one run.

use plr_core::engine::{CarryPropagation, EngineConfig, LocalSolve};
use plr_core::kernel::KernelKind;
use plr_core::plan::{self, PlanKind};
use plr_core::varying::{reference, VaryingEngine, VaryingSignature};
use plr_core::{set_kernel_override, Element, KernelTier};
use plr_parallel::runner::RunnerConfig;
use plr_parallel::VaryingRunner;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip process-global state (the kernel-tier
/// override, the plan-cache switch) against each other.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn lock_global() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic xorshift stream, so every executor sees the same
/// coefficients without an RNG dependency.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

fn int_coeffs(n: usize, k: usize, seed: u64) -> Vec<i64> {
    let mut rng = xorshift(seed);
    (0..n * k).map(|_| (rng() % 5) as i64 - 2).collect()
}

fn int_input(n: usize) -> Vec<i64> {
    (0..n).map(|i| (i % 23) as i64 - 11).collect()
}

/// Contractive gates in `[0.1, 0.5]`: the selective-scan regime where
/// chunk-boundary rounding differences decay geometrically.
fn contractive_gates(n: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut rng = xorshift(seed);
    (0..n * k)
        .map(|_| 0.1 + 0.4 * ((rng() >> 11) as f64 / (1u64 << 53) as f64) / k as f64)
        .collect()
}

/// Wider gates in `[-0.9, 0.9]`: still stable, but rounding differences
/// can linger, so these legs assert a relative bound instead of ULPs.
fn wide_gates(n: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut rng = xorshift(seed);
    (0..n * k)
        .map(|_| (1.8 * ((rng() >> 11) as f64 / (1u64 << 53) as f64) - 0.9) / k as f64)
        .collect()
}

fn float_input(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 13) as f64) * 0.25 - 1.5).collect()
}

/// Monotone total-order key for ULP distance; `-0.0` and `0.0` count as
/// equal (same idiom as the plan-layer gauntlet).
fn ulps64(a: f64, b: f64) -> i64 {
    let key = |x: f64| -> i128 {
        let bits = x.to_bits() as i64;
        if bits >= 0 {
            bits as i128
        } else {
            (i64::MIN as i128) - (bits as i128)
        }
    };
    (key(a) - key(b)).unsigned_abs().min(i64::MAX as u128) as i64
}

fn runner_with<T: Element>(
    sig: &VaryingSignature<T>,
    chunk: usize,
    threads: usize,
) -> VaryingRunner<T> {
    VaryingRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: chunk,
            threads,
            ..Default::default()
        },
    )
    .unwrap()
}

fn engine_with<T: Element>(
    sig: &VaryingSignature<T>,
    chunk: usize,
    carry: CarryPropagation,
) -> VaryingEngine<T> {
    VaryingEngine::with_config(
        sig.clone(),
        EngineConfig {
            chunk_size: chunk,
            local_solve: LocalSolve::Serial,
            carry_propagation: carry,
            flush_denormals: false,
        },
    )
    .unwrap()
}

/// Every executor output for one signature/geometry, labeled.
fn all_executor_outputs<T: Element>(
    sig: &VaryingSignature<T>,
    input: &[T],
    chunk: usize,
    threads: usize,
) -> Vec<(String, Vec<T>)> {
    let mut outs = Vec::new();
    for carry in [CarryPropagation::Sequential, CarryPropagation::Decoupled] {
        let engine = engine_with(sig, chunk, carry);
        outs.push((format!("engine/{carry:?}"), engine.run(input).unwrap()));
    }
    let runner = runner_with(sig, chunk, threads);
    outs.push(("runner".into(), runner.run(input).unwrap()));
    // Batch and stream entry points, one row each (they share RowTask).
    let mut rows = input.to_vec();
    runner.run_rows(&mut rows, input.len().max(1)).unwrap();
    outs.push(("batch/run_rows".into(), rows));
    let stream = runner.stream();
    let handle = stream.push_row(input.to_vec());
    let (streamed, outcome) = handle.join();
    outcome.unwrap();
    outs.push(("stream".into(), streamed));
    outs
}

/// Integers: all six executor paths bit-exact against the naive
/// reference, across orders 1–4, ragged chunk geometries, and thread
/// counts.
#[test]
fn int_executors_bit_exact_across_orders_chunks_threads() {
    let n = 1537;
    let input = int_input(n);
    for k in 1..=4usize {
        let sig = VaryingSignature::new(k, int_coeffs(n, k, 0x5eed + k as u64)).unwrap();
        let expect = reference(&sig, &input).unwrap();
        for chunk in [8usize, 64, 711] {
            if chunk < k {
                continue;
            }
            for threads in [1usize, 2, 4] {
                for (label, got) in all_executor_outputs(&sig, &input, chunk, threads) {
                    assert_eq!(
                        got, expect,
                        "{label} diverged: k={k} chunk={chunk} threads={threads}"
                    );
                }
            }
        }
    }
}

/// Integers with offsets (the affine/homogeneous carry block): still
/// bit-exact everywhere.
#[test]
fn int_offsets_bit_exact() {
    let n = 997;
    let input = int_input(n);
    let mut rng = xorshift(0x0ff5e7);
    let offsets: Vec<i64> = (0..n).map(|_| (rng() % 7) as i64 - 3).collect();
    for k in [1usize, 2, 3] {
        let sig = VaryingSignature::new(k, int_coeffs(n, k, 77 + k as u64))
            .unwrap()
            .with_offsets(offsets.clone())
            .unwrap();
        let expect = reference(&sig, &input).unwrap();
        for (label, got) in all_executor_outputs(&sig, &input, 100, 4) {
            assert_eq!(got, expect, "{label} diverged with offsets, k={k}");
        }
    }
}

/// Positive inputs: with positive contractive gates every partial sum is
/// positive, so no cancellation inflates ULP distances.
fn positive_input(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 13) as f64) * 0.1 + 0.5).collect()
}

/// Contractive float gates, cancellation-free inputs: every executor
/// elementwise within 4 ULP of the serial reference, across orders and
/// geometries. (Signed inputs — where cancellation near zero makes ULP
/// distance meaningless — are covered by the relative-bound leg below.)
#[test]
fn contractive_floats_within_ulps_of_reference() {
    let n = 6000;
    let input = positive_input(n);
    for k in 1..=4usize {
        let sig = VaryingSignature::new(k, contractive_gates(n, k, 0xf10a + k as u64)).unwrap();
        let expect = reference(&sig, &input).unwrap();
        for chunk in [64usize, 513] {
            for threads in [1usize, 4] {
                for (label, got) in all_executor_outputs(&sig, &input, chunk, threads) {
                    for (i, (&g, &e)) in got.iter().zip(&expect).enumerate() {
                        let d = ulps64(g, e);
                        assert!(
                            d <= 4,
                            "{label}: k={k} chunk={chunk} threads={threads} i={i}: \
                             {g} vs {e} ({d} ULPs)"
                        );
                    }
                }
            }
        }
    }
}

/// Wider (but stable) float gates: executors agree with the reference
/// within a relative bound — reassociation error may exceed a few ULPs
/// here, but must stay far below any meaningful divergence.
#[test]
fn wide_gate_floats_within_relative_bound() {
    let n = 8000;
    let input = float_input(n);
    for k in [1usize, 2] {
        let sig = VaryingSignature::new(k, wide_gates(n, k, 0x3b9a + k as u64)).unwrap();
        let expect = reference(&sig, &input).unwrap();
        for (label, got) in all_executor_outputs(&sig, &input, 257, 4) {
            for (i, (&g, &e)) in got.iter().zip(&expect).enumerate() {
                assert!(
                    (g - e).abs() <= 1e-9 * e.abs().max(1.0),
                    "{label}: k={k} i={i}: {g} vs {e}"
                );
            }
        }
    }
}

/// Satellite contract: a run whose chunks mix constant-coefficient
/// stretches (dispatched to the selected constant kernel) with
/// genuinely varying stretches (scalar matrix-carry loop) must summarize
/// its kernel as [`KernelKind::Mixed`]; an all-varying run reports
/// [`KernelKind::Scalar`]. The kernel override is pinned so the
/// `PLR_KERNEL=scalar` CI leg (which makes constant chunks scalar too,
/// collapsing the mix) cannot change what this test observes.
#[test]
fn mixed_constant_and_varying_chunks_report_mixed_kernel() {
    let _g = lock_global();
    set_kernel_override(Some(KernelTier::Blocked));
    let n = 4096;
    let chunk = 256;
    // First half constant gain 0.5 (chunk-aligned → constant chunks with
    // a real kernel), second half varying.
    let mut rng = xorshift(0x51ead);
    let coeffs: Vec<f64> = (0..n)
        .map(|i| {
            if i < n / 2 {
                0.5
            } else {
                0.1 + 0.3 * ((rng() >> 11) as f64 / (1u64 << 53) as f64)
            }
        })
        .collect();
    let sig = VaryingSignature::first_order(coeffs).unwrap();
    let input = float_input(n);
    let expect = reference(&sig, &input).unwrap();
    let runner = runner_with(&sig, chunk, 2);
    let mut data = input.clone();
    let stats = runner.run_in_place(&mut data).unwrap();
    set_kernel_override(None);
    for (i, (&g, &e)) in data.iter().zip(&expect).enumerate() {
        assert!(
            (g - e).abs() <= 1e-9 * e.abs().max(1.0),
            "i={i}: {g} vs {e}"
        );
    }
    assert_eq!(
        stats.kernel,
        KernelKind::Mixed,
        "half-constant/half-varying run must report Mixed"
    );

    // All-varying: every chunk is the scalar matrix-carry loop.
    let all_varying = VaryingSignature::first_order(contractive_gates(n, 1, 0xa11)).unwrap();
    let runner = runner_with(&all_varying, chunk, 2);
    let mut data = float_input(n);
    let stats = runner.run_in_place(&mut data).unwrap();
    assert_eq!(stats.kernel, KernelKind::Scalar);
}

/// Satellite contract: varying signatures never touch the constant
/// correction-plan cache — no entry is inserted, no hit or miss is
/// reported, and a constant-signature probe afterwards still sees a
/// cold cache.
#[test]
fn varying_runs_bypass_the_constant_plan_cache() {
    let _g = lock_global();
    plan::set_cache_enabled(Some(true));
    plan::clear_cache();
    assert_eq!(plan::cache_len(), 0);

    let n = 3000;
    let sig = VaryingSignature::new(2, int_coeffs(n, 2, 0xcac4e)).unwrap();
    let input = int_input(n);
    let runner = runner_with(&sig, 128, 2);
    let mut data = input.clone();
    let stats = runner.run_in_place(&mut data).unwrap();
    assert_eq!(stats.plan_kind, PlanKind::MatrixCarry);
    assert_eq!(stats.plan_cache_hits, 0);
    assert_eq!(stats.plan_cache_misses, 0);
    // Batch + stream entry points are cache-silent too.
    let mut rows = input.clone();
    let stats = runner.run_rows(&mut rows, n).unwrap();
    assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, 0);
    let stream = runner.stream();
    let (_, outcome) = stream.push_row(input.clone()).join();
    outcome.unwrap();

    assert_eq!(
        plan::cache_len(),
        0,
        "varying executors must not populate the constant plan cache"
    );

    // A constant-signature probe immediately afterwards must still be a
    // cold miss — nothing aliased its key.
    let constant: plr_core::Signature<i64> = "1:2,-1".parse().unwrap();
    let probe = plr_parallel::ParallelRunner::with_config(
        constant,
        RunnerConfig {
            chunk_size: 731,
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut data = int_input(2000);
    let stats = probe.run_in_place(&mut data).unwrap();
    plan::set_cache_enabled(None);
    assert_eq!(stats.plan_cache_misses, 1, "probe must miss a cold cache");
    assert_eq!(stats.plan_cache_hits, 0);
}

/// Lookback fusion accounting: on integers, fused chunks are counted and
/// the output stays bit-exact; a one-thread run fuses every chunk.
#[test]
fn lookback_fusion_counts_and_stays_exact() {
    let n = 4096;
    let sig = VaryingSignature::first_order(int_coeffs(n, 1, 0xf05e)).unwrap();
    let input = int_input(n);
    let expect = reference(&sig, &input).unwrap();
    let one = runner_with(&sig, 256, 1);
    let mut data = input.clone();
    let stats = one.run_in_place(&mut data).unwrap();
    assert_eq!(data, expect);
    assert_eq!(
        stats.fused_chunks, stats.chunks,
        "a single worker claims chunks in order, so every chunk fuses"
    );
    let four = runner_with(&sig, 256, 4);
    let mut data = input.clone();
    let stats = four.run_in_place(&mut data).unwrap();
    assert_eq!(data, expect);
    assert!(stats.fused_chunks >= 1, "chunk 0 always fuses");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized differential sweep: arbitrary small-coefficient varying
    /// signatures, arbitrary inputs, random geometry — all six executor
    /// paths bit-exact against the reference. (The vendored proptest stub
    /// has no flat-map, so dependent shapes derive from a drawn seed.)
    #[test]
    fn random_varying_signatures_bit_exact(
        k in 1usize..=4,
        n in 1usize..600,
        seed in 1u64..u64::MAX,
        chunk_sel in 0usize..3,
        threads in 1usize..=4,
    ) {
        let sig = VaryingSignature::new(k, int_coeffs(n, k, seed)).unwrap();
        let mut rng = xorshift(seed ^ 0x5555_5555);
        let data: Vec<i64> = (0..n).map(|_| (rng() % 41) as i64 - 20).collect();
        let expect = reference(&sig, &data).unwrap();
        let chunk = [k.max(4), k.max(37), k.max(n)][chunk_sel];
        for (label, got) in all_executor_outputs(&sig, &data, chunk, threads) {
            prop_assert_eq!(
                &got, &expect,
                "{} diverged: k={} n={} chunk={} threads={}", label, k, n, chunk, threads
            );
        }
    }
}

/// Fault-injection legs (CI's `varying` job runs this file with
/// `--features fault-inject`): an injected worker fault in a varying run
/// must surface as `WorkerPanicked` — never a hang — and the same runner
/// (same pool) must complete a fault-free, bit-exact rerun.
#[cfg(feature = "fault-inject")]
mod fault_legs {
    use super::*;
    use plr_core::error::EngineError;
    use plr_parallel::fault::{self, FaultPlan, FaultSite};
    use std::time::Duration;

    /// Silences the default panic-hook output for panics this module
    /// injects on purpose; everything else still prints.
    fn quiet_injected_panics() {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let s = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("");
                if !s.contains("injected fault") && !payload.is::<plr_parallel::pool::WorkerExit>()
                {
                    default(info);
                }
            }));
        });
    }

    /// Runs `f` on a helper thread, panicking if it does not finish in
    /// `secs` — a hang becomes a test failure, not a stuck CI job.
    fn watchdog<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(r) => {
                let _ = worker.join();
                r
            }
            Err(_) => panic!("watchdog: faulted varying run did not return within {secs}s"),
        }
    }

    const N: usize = 8192;
    const CHUNK: usize = 256;

    fn assert_fault_contract(plan: FaultPlan) {
        let _g = lock_global();
        quiet_injected_panics();
        let sig = VaryingSignature::new(2, int_coeffs(N, 2, 0xfa117)).unwrap();
        let data = int_input(N);
        let expect = reference(&sig, &data).unwrap();
        let runner = runner_with(&sig, CHUNK, 4);

        // Warm the pool so the fault hits resident, parked workers.
        assert_eq!(runner.run(&data).unwrap(), expect, "warm-up must validate");

        fault::arm(plan.clone());
        let (runner, faulted) = watchdog(60, move || {
            let r = runner.run(&data);
            (runner, r)
        });
        let fired = !fault::is_armed();
        fault::disarm();
        assert!(fired, "plan never fired: {plan:?}");
        match faulted {
            Err(EngineError::WorkerPanicked { .. }) => {}
            other => panic!("expected WorkerPanicked, got {other:?} for {plan:?}"),
        }

        // Same pool, fault-free rerun: bit-exact recovery.
        let data = int_input(N);
        let got = watchdog(60, move || runner.run(&data).unwrap());
        assert_eq!(got, expect, "rerun after fault must validate");
    }

    #[test]
    fn solve_fault_errors_and_recovers_lookback() {
        assert_fault_contract(FaultPlan::panic_at_chunk(FaultSite::Solve, (N / CHUNK) / 2));
    }

    /// Streamed varying rows: a row-site fault resolves only that row's
    /// handle to an error; later rows on the same stream still solve.
    #[test]
    fn stream_row_fault_is_isolated() {
        let _g = lock_global();
        quiet_injected_panics();
        let n = 600;
        let sig = VaryingSignature::first_order(int_coeffs(n, 1, 0x57f)).unwrap();
        let input = int_input(n);
        let expect = reference(&sig, &input).unwrap();
        let runner = runner_with(&sig, 64, 2);
        let stream = runner.stream();
        fault::arm(FaultPlan::panic_at_chunk(FaultSite::Row, 0));
        let bad = stream.push_row(input.clone());
        let (_, outcome) = bad.join();
        fault::disarm();
        match outcome {
            Err(EngineError::WorkerPanicked { .. }) => {}
            other => panic!("expected WorkerPanicked for the faulted row, got {other:?}"),
        }
        let good = stream.push_row(input.clone());
        let (got, outcome) = good.join();
        outcome.unwrap();
        assert_eq!(got, expect, "rows after the faulted one must still solve");
    }
}
