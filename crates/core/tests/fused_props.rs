//! Differential gauntlet for the FIR-folded solve,
//! [`SolveKernel::solve_fir_in_place_sliced`].
//!
//! Every solver the dispatcher can hand out — the forced `scalar`,
//! `blocked`, `simd` and `auto` tiers, plus an explicit [`SimdKernel`] on
//! each ISA the CPU reports — must reproduce the two-pass oracle
//! `serial::fir_map` then `serial::recursive_in_place` over the raw left
//! context followed by the data:
//!
//! * tap counts 0…6: one tap takes the scaled-table path, every other
//!   count the per-slice map path, on both sides of [`MAX_FIR_TAPS`]
//!   (where the vector FIR map stops);
//! * lengths that are not multiples of [`BLOCK`], including lengths
//!   shorter than the FIR's reach, and lengths spanning several
//!   [`SOLVE_SLICE`]s (the per-slice raw-tail hand-off);
//! * left contexts shorter than, equal to and longer than the reach.
//!
//! Integers must match bit for bit; floats stay within the same
//! `4096·ε·scale` bound the plain solve kernels are held to.

use plr_core::blocked::{SolveKernel, BLOCK, MAX_BLOCKED_ORDER, SOLVE_SLICE};
use plr_core::element::Element;
use plr_core::kernel::KernelTier;
use plr_core::serial;
use plr_core::simd::{available_isas, SimdKernel, MAX_FIR_TAPS};
use proptest::prelude::*;

/// Every solver the dispatcher can hand out for this feedback.
fn all_solvers<T: Element>(fb: &[T]) -> Vec<(String, SolveKernel<T>)> {
    let mut out: Vec<(String, SolveKernel<T>)> = [
        KernelTier::Scalar,
        KernelTier::Blocked,
        KernelTier::Simd,
        KernelTier::Auto,
    ]
    .into_iter()
    .map(|tier| {
        (
            format!("tier={tier:?}"),
            SolveKernel::select_with_tier(fb, tier),
        )
    })
    .collect();
    for isa in available_isas::<T>() {
        if let Some(k) = SimdKernel::try_new_with(fb, isa) {
            out.push((format!("isa={isa:?}"), SolveKernel::Simd(k)));
        }
    }
    out
}

/// The two-pass oracle: FIR over `prev ++ data` (terms before `prev`
/// read zero), keep the `data` part, then the zero-history solve.
fn oracle<T: Element>(fb: &[T], taps: &[T], prev: &[T], data: &[T]) -> Vec<T> {
    let mut full = prev.to_vec();
    full.extend_from_slice(data);
    let mut out = serial::fir_map(taps, &full).split_off(prev.len());
    serial::recursive_in_place(fb, &mut out);
    out
}

/// Lengths around every block edge, the FIR's reach, and a random base.
fn lengths(base: usize, taps: usize) -> Vec<usize> {
    let edge = (base / BLOCK + 1) * BLOCK;
    let mut out = vec![0, 1, BLOCK - 1, BLOCK, BLOCK + 1, edge + 1, base];
    out.extend([taps.saturating_sub(2), taps.saturating_sub(1)]);
    out
}

fn fused<T: Element>(kernel: &SolveKernel<T>, taps: &[T], prev: &[T], data: &[T]) -> Vec<T> {
    let mut got = data.to_vec();
    let out = kernel.solve_fir_in_place_sliced(taps, prev, &mut got, &mut || true);
    assert!(out.completed);
    got
}

fn int_feedback() -> impl Strategy<Value = Vec<i64>> {
    let nonzero = prop_oneof![-3i64..=-1, 1i64..=3];
    (
        proptest::collection::vec(-3i64..=3, 0..MAX_BLOCKED_ORDER + 1),
        nonzero,
    )
        .prop_map(|(mut fb, last)| {
            fb.push(last);
            fb
        })
}

/// Stable float feedback of order 1..=MAX_BLOCKED_ORDER (real poles
/// inside (-0.8, 0.8)), so outputs stay bounded.
fn stable_float_feedback() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-0.8f64..0.8, 1..MAX_BLOCKED_ORDER + 1).prop_map(|poles| {
        let mut c = vec![1.0f64];
        for &p in &poles {
            let mut next = vec![0.0; c.len() + 1];
            for (i, &ci) in c.iter().enumerate() {
                next[i] += ci * -p;
                next[i + 1] += ci;
            }
            c = next;
        }
        c.reverse();
        c[1..].iter().map(|&v| -v).collect()
    })
}

fn assert_close(expect: &[f64], got: &[f64], ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(expect.len(), got.len(), "{}", ctx);
    let scale = expect.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (i, (a, b)) in expect.iter().zip(got).enumerate() {
        prop_assert!(
            (a - b).abs() <= 4096.0 * f64::EPSILON * scale,
            "{ctx}: index {i}: {a} vs {b} (scale {scale})"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_tier_and_isa_is_bit_exact_for_i64(
        fb in int_feedback(),
        taps in proptest::collection::vec(-3i64..=3, 0..7),
        prev in proptest::collection::vec(-9i64..9, 0..7),
        input in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
    ) {
        for n in lengths(input.len(), taps.len()) {
            let data = &input[..n.min(input.len())];
            let expect = oracle(&fb, &taps, &prev, data);
            for (name, kernel) in all_solvers(&fb) {
                prop_assert_eq!(&fused(&kernel, &taps, &prev, data), &expect,
                    "{} fb={:?} taps={:?} prev={:?} n={}", name, &fb, &taps, &prev, data.len());
            }
        }
    }

    #[test]
    fn every_tier_and_isa_is_bit_exact_for_i32(
        fb64 in int_feedback(),
        taps64 in proptest::collection::vec(-3i64..=3, 0..7),
        prev64 in proptest::collection::vec(-9i64..9, 0..7),
        input64 in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
    ) {
        let cast = |v: &[i64]| v.iter().map(|&x| x as i32).collect::<Vec<i32>>();
        let (fb, taps, prev, input) = (cast(&fb64), cast(&taps64), cast(&prev64), cast(&input64));
        for n in lengths(input.len(), taps.len()) {
            let data = &input[..n.min(input.len())];
            let expect = oracle(&fb, &taps, &prev, data);
            for (name, kernel) in all_solvers(&fb) {
                prop_assert_eq!(&fused(&kernel, &taps, &prev, data), &expect,
                    "{} fb={:?} taps={:?} n={}", name, &fb, &taps, data.len());
            }
        }
    }

    #[test]
    fn every_tier_and_isa_matches_the_oracle_for_f64(
        fb in stable_float_feedback(),
        taps in proptest::collection::vec(-1.0f64..1.0, 0..7),
        prev in proptest::collection::vec(-4.0f64..4.0, 0..7),
        input in proptest::collection::vec(-4.0f64..4.0, 0..(6 * BLOCK)),
    ) {
        for n in lengths(input.len(), taps.len()) {
            let data = &input[..n.min(input.len())];
            let expect = oracle(&fb, &taps, &prev, data);
            for (name, kernel) in all_solvers(&fb) {
                let got = fused(&kernel, &taps, &prev, data);
                assert_close(&expect, &got,
                    &format!("{name} fb={fb:?} taps={taps:?} n={}", data.len()))?;
            }
        }
    }
}

/// Several slices: the raw tail each slice saves before solving is the
/// next slice's FIR context, and the output is bit-identical to one
/// unsliced pass for every tap count and solver.
#[test]
fn multi_slice_runs_hand_off_the_raw_tail() {
    let n = 2 * SOLVE_SLICE + BLOCK + 5;
    let input: Vec<i64> = (0..n as i64).map(|i| (i * 37 % 23) - 11).collect();
    let prev = [4i64, -2, 7, 1, -5];
    for fb in [
        vec![1i64],
        vec![2, -1],
        vec![1, 0, 0, 1],
        vec![1, 1, 1, 1, 1],
    ] {
        for p in 0..=MAX_FIR_TAPS + 2 {
            let taps: Vec<i64> = (0..p as i64).map(|j| 2 * j - 3).collect();
            let expect = oracle(&fb, &taps, &prev, &input);
            for (name, kernel) in all_solvers(&fb) {
                let mut got = input.clone();
                let mut polls = 0;
                let out = kernel.solve_fir_in_place_sliced(&taps, &prev, &mut got, &mut || {
                    polls += 1;
                    true
                });
                assert!(out.completed);
                assert_eq!(out.slices, 3, "{name} fb={fb:?} p={p}");
                assert_eq!(polls, 2, "{name}: polled before each later slice");
                assert_eq!(got, expect, "{name} fb={fb:?} p={p}");
            }
        }
    }
}

/// A poll that says stop leaves the solved slices final and the rest of
/// the data raw.
#[test]
fn stopping_at_a_poll_leaves_the_rest_raw() {
    let n = 3 * SOLVE_SLICE;
    let input: Vec<i64> = (0..n as i64).map(|i| i % 5 - 2).collect();
    let taps = [1i64, -2, 3];
    let fb = [2i64, -1];
    let expect = oracle(&fb, &taps, &[], &input);
    for (name, kernel) in all_solvers(&fb[..]) {
        let mut data = input.clone();
        let mut budget = 1;
        let out = kernel.solve_fir_in_place_sliced(&taps, &[], &mut data, &mut || {
            budget -= 1;
            budget >= 0
        });
        assert!(!out.completed, "{name}");
        assert_eq!(out.slices, 2, "{name}");
        assert_eq!(data[..2 * SOLVE_SLICE], expect[..2 * SOLVE_SLICE], "{name}");
        assert_eq!(data[2 * SOLVE_SLICE..], input[2 * SOLVE_SLICE..], "{name}");
    }
}
