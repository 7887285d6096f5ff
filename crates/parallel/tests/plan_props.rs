//! Differential gauntlet for the correction-plan layer.
//!
//! The contract: every specialized correction strategy the planner can
//! pick (scalar fold, conditional add, periodic, decay-truncated) is an
//! *algebraic rewrite*, not an approximation — running any signature
//! with [`PlanMode::Auto`] must agree with the unspecialized
//! [`PlanMode::Dense`] baseline bit-exactly for integers and within a
//! few ULPs for floats (the only divergence allowed is `-0.0` vs `0.0`
//! from skipped exactly-zero factor terms), across strategies, chunk
//! sizes, thread counts, and the batch/stream entry points. The plan
//! cache must key on everything that shapes the plan — including the
//! feedforward taps, which don't affect the correction table but do pick
//! the FIR kernel.

use plr_core::plan::{self, PlanKind, PlanMode};
use plr_core::serial;
use plr_core::signature::Signature;
use plr_core::Element;
use plr_parallel::{BatchRunner, ParallelRunner, RunStats, RunnerConfig};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that mutate global plan-cache state (clear,
/// enable/disable override) against each other; the differential tests
/// don't assert counters and are unaffected.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn run_with<T: Element>(
    sig: &Signature<T>,
    input: &[T],
    chunk: usize,
    threads: usize,
    mode: PlanMode,
) -> (Vec<T>, RunStats) {
    let config = RunnerConfig {
        chunk_size: chunk,
        threads,
        plan: mode,
        ..Default::default()
    };
    let runner = ParallelRunner::with_config(sig.clone(), config).unwrap();
    let mut data = input.to_vec();
    let stats = runner.run_in_place(&mut data).unwrap();
    (data, stats)
}

fn input<T: Element>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_i32(((i * 29) % 19) as i32 - 9))
        .collect()
}

/// Monotone total-order key for ULP distance; maps `-0.0` and `0.0` to
/// the same point so sign-of-zero differences count as zero ULPs.
fn ulps32(a: f32, b: f32) -> i64 {
    let key = |x: f32| -> i64 {
        let bits = x.to_bits() as i32;
        if bits >= 0 {
            bits as i64
        } else {
            (i32::MIN as i64) - (bits as i64)
        }
    };
    (key(a) - key(b)).abs()
}

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

const CHUNKS: [usize; 3] = [8, 64, 1024];
const THREADS: [usize; 3] = [1, 2, 4];

/// Every integer strategy family × geometry: Auto must be bit-exact with
/// both the Dense baseline and the serial reference (integer arithmetic
/// is wrapping, so equality is exact even past overflow).
#[test]
fn int_strategies_bit_exact_vs_dense_and_serial() {
    // scalar fold, FIR'd scalar fold, conditional add (orders 2 and 3),
    // periodic, dense, and a dense-with-FIR case.
    let sigs = [
        "1:1", "4:1", "1:0,1", "2,1:0,1", "1:0,0,1", "1:-1", "1:2,-1", "2,1:1,1",
    ];
    let data = input::<i64>(6000);
    for text in sigs {
        let sig: Signature<i64> = text.parse().unwrap();
        let expect = serial::run(&sig, &data);
        for chunk in CHUNKS {
            for threads in THREADS {
                let ctx = format!("{text} chunk={chunk} threads={threads}");
                let (auto, _) = run_with(&sig, &data, chunk, threads, PlanMode::Auto);
                let (dense, _) = run_with(&sig, &data, chunk, threads, PlanMode::Dense);
                assert_eq!(auto, dense, "auto != dense for {ctx}");
                assert_eq!(auto, expect, "auto != serial for {ctx}");
            }
        }
    }
}

/// Float strategies (including decay truncation at large chunks): Auto
/// vs Dense within a few ULPs elementwise, and both near the serial
/// reference under a loose relative bound (parallel correction
/// reassociates, so serial equality is not expected bit-for-bit).
#[test]
fn float_strategies_match_dense_within_ulps() {
    let n = 20_000;
    let chunks = [64usize, 1024, 4096];

    let f32_sigs = ["0.2:0.8", "1:0.8", "1:1.6,-0.64", "1:-0.5"];
    let data32 = input::<f32>(n);
    for text in f32_sigs {
        let sig: Signature<f32> = text.parse().unwrap();
        let expect = serial::run(&sig, &data32);
        let scale = expect.iter().fold(1.0f32, |m, &v| m.max(v.abs()));
        for chunk in chunks {
            for threads in [1usize, 4] {
                let ctx = format!("{text} chunk={chunk} threads={threads}");
                let (auto, _) = run_with(&sig, &data32, chunk, threads, PlanMode::Auto);
                let (dense, _) = run_with(&sig, &data32, chunk, threads, PlanMode::Dense);
                for i in 0..n {
                    let d = ulps32(auto[i], dense[i]);
                    assert!(d <= 4, "auto vs dense {d} ulps at {i} for {ctx}");
                    assert!(
                        (auto[i] - expect[i]).abs() <= 1e-3 * scale,
                        "auto strays from serial at {i} for {ctx}: {} vs {}",
                        auto[i],
                        expect[i]
                    );
                }
            }
        }
    }

    // f64: the 0.8-pole table only underflows near n ≈ 3540, so the
    // truncated strategy engages at the 4096 chunk and not below.
    let f64_sigs = ["0.2:0.8", "0.04:1.6,-0.64"];
    let data64 = input::<f64>(n);
    for text in f64_sigs {
        let sig: Signature<f64> = text.parse().unwrap();
        for chunk in [1024usize, 4096] {
            let ctx = format!("{text} chunk={chunk}");
            let (auto, _) = run_with(&sig, &data64, chunk, 2, PlanMode::Auto);
            let (dense, _) = run_with(&sig, &data64, chunk, 2, PlanMode::Dense);
            for i in 0..n {
                let d = ulps64(auto[i], dense[i]);
                assert!(d <= 4, "auto vs dense {d} ulps at {i} for {ctx}");
            }
        }
    }
}

/// The stats surface reports which strategy actually ran.
#[test]
fn plan_kinds_and_reset_counters_surface_in_stats() {
    let data = input::<i64>(4000);
    let kind_of = |text: &str, chunk: usize| -> RunStats {
        let sig: Signature<i64> = text.parse().unwrap();
        run_with(&sig, &data, chunk, 2, PlanMode::Auto).1
    };
    assert_eq!(kind_of("1:1", 64).plan_kind, PlanKind::ScalarFold);
    assert_eq!(kind_of("1:0,1", 64).plan_kind, PlanKind::ConditionalAdd);
    assert_eq!(kind_of("1:-1", 64).plan_kind, PlanKind::Periodic);
    assert_eq!(kind_of("1:2,-1", 64).plan_kind, PlanKind::Dense);

    // Stable IIR at a chunk past the decay depth: truncated plan, carry
    // chain resets on every full chunk, and the per-element correction
    // cost collapses relative to the dense baseline.
    let sig: Signature<f32> = "0.2:0.8".parse().unwrap();
    let data32 = input::<f32>(20_000);
    let (_, auto) = run_with(&sig, &data32, 4096, 2, PlanMode::Auto);
    let (_, dense) = run_with(&sig, &data32, 4096, 2, PlanMode::Dense);
    assert_eq!(auto.plan_kind, PlanKind::Truncated);
    assert_eq!(dense.plan_kind, PlanKind::Dense);
    assert!(auto.carry_resets > 0, "never reset the chain");
    assert_eq!(dense.carry_resets, 0, "dense must not reset");
    assert!(
        auto.correction_taps * 8 <= dense.correction_taps,
        "truncated taps {} not ≪ dense taps {}",
        auto.correction_taps,
        dense.correction_taps
    );
}

/// Two identical runner constructions share one cached plan.
#[test]
fn identical_configs_hit_the_plan_cache() {
    let _g = CACHE_LOCK.lock().unwrap();
    plan::set_cache_enabled(Some(true));
    plan::clear_cache();
    // Signature and chunk chosen to be unique to this test so a
    // concurrently-running differential test can't pre-populate the key.
    let sig: Signature<f32> = "0.3:0.7".parse().unwrap();
    let data = input::<f32>(3000);
    let (_, first) = run_with(&sig, &data, 736, 2, PlanMode::Auto);
    let (_, second) = run_with(&sig, &data, 736, 2, PlanMode::Auto);
    plan::set_cache_enabled(None);
    assert_eq!(first.plan_cache_misses, 1, "first build must miss");
    assert_eq!(first.plan_cache_hits, 0);
    assert_eq!(second.plan_cache_hits, 1, "second build must hit");
    assert_eq!(second.plan_cache_misses, 0);
}

/// With the cache disabled (the `PLR_PLAN_CACHE=0` CI leg drives the
/// same switch through the environment), every build replans — and the
/// results don't change.
#[test]
fn disabled_cache_replans_identically() {
    let _g = CACHE_LOCK.lock().unwrap();
    plan::set_cache_enabled(Some(false));
    let sig: Signature<f32> = "0.3:0.7".parse().unwrap();
    let data = input::<f32>(3000);
    let (out_a, first) = run_with(&sig, &data, 736, 2, PlanMode::Auto);
    let (out_b, second) = run_with(&sig, &data, 736, 2, PlanMode::Auto);
    plan::set_cache_enabled(None);
    assert_eq!(first.plan_cache_hits, 0);
    assert_eq!(first.plan_cache_misses, 1);
    assert_eq!(second.plan_cache_hits, 0, "disabled cache must never hit");
    assert_eq!(second.plan_cache_misses, 1);
    assert_eq!(out_a, out_b, "replanning must be deterministic");
}

/// The feedforward taps are part of the cache key: two signatures with
/// identical feedback (identical correction tables!) but different FIR
/// parts must not alias to one plan.
#[test]
fn cache_key_includes_feedforward() {
    let _g = CACHE_LOCK.lock().unwrap();
    plan::set_cache_enabled(Some(true));
    plan::clear_cache();
    let a: Signature<i64> = "1:2,-1".parse().unwrap();
    let b: Signature<i64> = "3:2,-1".parse().unwrap();
    let data = input::<i64>(3000);
    let (out_a, stats_a) = run_with(&a, &data, 96, 2, PlanMode::Auto);
    let (out_b, stats_b) = run_with(&b, &data, 96, 2, PlanMode::Auto);
    plan::set_cache_enabled(None);
    assert_eq!(stats_a.plan_cache_misses, 1);
    assert_eq!(
        stats_b.plan_cache_misses, 1,
        "same feedback, different feedforward must be a distinct plan"
    );
    assert_eq!(stats_b.plan_cache_hits, 0);
    // Behavioral backstop: if the key dropped the FIR taps, `b` would
    // run `a`'s kernel and diverge from the reference.
    assert_eq!(out_a, serial::run(&a, &data));
    assert_eq!(out_b, serial::run(&b, &data));
}

/// Batch entry points go through the same plan layer: the whole-row path
/// reports its (correction-free) plan, the long-rows path inherits the
/// chunked runner's strategy — including truncation.
#[test]
fn batch_paths_plan_and_match_serial() {
    // Whole-row dispatch: rows ≥ threads, each row solved serially.
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), 4);
    let width = 512;
    let rows = 8;
    let mut data: Vec<i64> = (0..rows * width)
        .map(|i| ((i * 13) % 11) as i64 - 5)
        .collect();
    let expect: Vec<i64> = data
        .chunks(width)
        .flat_map(|row| serial::run(&sig, row))
        .collect();
    let stats = runner.run_rows(&mut data, width).unwrap();
    assert_eq!(data, expect);
    assert_eq!(stats.plan_kind, PlanKind::Unplanned);
    assert_eq!(
        stats.plan_cache_hits + stats.plan_cache_misses,
        1,
        "whole-row batch consults the plan cache exactly once"
    );

    // Long-rows dispatch: rows < threads, intra-row chunked parallelism;
    // a stable IIR must surface the truncated strategy end to end.
    let sigf: Signature<f32> = "0.2:0.8".parse().unwrap();
    let runner = BatchRunner::new(sigf.clone(), 4);
    let width = 50_000;
    let mut data: Vec<f32> = input::<f32>(2 * width);
    let expect: Vec<f32> = data
        .chunks(width)
        .flat_map(|row| serial::run(&sigf, row))
        .collect();
    let stats = runner.run_rows(&mut data, width).unwrap();
    assert_eq!(stats.plan_kind, PlanKind::Truncated);
    assert!(
        stats.carry_resets > 0,
        "long stable rows must reset carries"
    );
    let scale = expect.iter().fold(1.0f32, |m, &v| m.max(v.abs()));
    for i in 0..data.len() {
        assert!(
            (data[i] - expect[i]).abs() <= 1e-3 * scale,
            "batch long-row strays at {i}: {} vs {}",
            data[i],
            expect[i]
        );
    }
}

/// A stream consults the plan cache once for its lifetime, not per row.
#[test]
fn stream_consults_plan_cache_once() {
    let sig: Signature<i64> = "1:0,1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), 2);
    let stream = runner.stream();
    let rows: Vec<Vec<i64>> = (0..5)
        .map(|r| {
            (0..256)
                .map(|i| ((r * 31 + i * 7) % 13) as i64 - 6)
                .collect()
        })
        .collect();
    let handles: Vec<_> = rows
        .iter()
        .map(|row| stream.push_row(row.clone()))
        .collect();
    stream.close();
    for (handle, row) in handles.into_iter().zip(&rows) {
        let (out, result) = handle.join();
        result.unwrap();
        assert_eq!(out, serial::run(&sig, row));
    }
    let stats = stream.finish().unwrap();
    assert_eq!(stats.plan_kind, PlanKind::Unplanned);
    assert_eq!(
        stats.plan_cache_hits + stats.plan_cache_misses,
        1,
        "one plan consult per stream, not per row"
    );
}

/// Arbitrary integer signatures with FIR length 1–2 and feedback order
/// 1–4 (trailing coefficients forced nonzero so the stated order holds).
fn int_signature() -> impl Strategy<Value = Signature<i64>> {
    let nonzero = prop_oneof![-2i64..=-1, 1i64..=2];
    (
        proptest::collection::vec(-2i64..=2, 0..2),
        nonzero.clone(),
        proptest::collection::vec(-2i64..=2, 0..4),
        nonzero,
    )
        .prop_map(|(mut ff, ff_last, mut fb, fb_last)| {
            ff.push(ff_last);
            fb.push(fb_last);
            Signature::new(ff, fb).expect("nonzero trailing coefficients")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the planner picks for an arbitrary integer signature, the
    /// result is bit-identical to the forced-dense baseline and the
    /// serial reference under any geometry.
    #[test]
    fn auto_matches_dense_for_arbitrary_int_signatures(
        sig in int_signature(),
        data in proptest::collection::vec(-20i64..20, 0..1500),
        chunk_pow in 2usize..8,
        threads in 1usize..5,
    ) {
        let chunk = (1usize << chunk_pow).max(sig.order());
        let (auto, _) = run_with(&sig, &data, chunk, threads, PlanMode::Auto);
        let (dense, _) = run_with(&sig, &data, chunk, threads, PlanMode::Dense);
        prop_assert_eq!(&auto, &dense, "auto != dense for {} chunk={}", &sig, chunk);
        prop_assert_eq!(auto, serial::run(&sig, &data), "auto != serial for {}", &sig);
    }
}
