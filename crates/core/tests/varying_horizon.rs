//! Property tests for the exact-zero horizon of the time-varying
//! correction ([`VaryingPlan::correct_chunk`]).
//!
//! Once the running carry vector is exactly zero in a chunk whose
//! coefficients are all finite, every later `y[i] += 0` is a no-op, so
//! the correction stops at the next [`HORIZON_STRIDE`] boundary. Chunks
//! here span several strides and end in a partial one. These tests run the decoupled three-stage
//! form (zero-state local solves, the affine carry chain, per-chunk
//! corrections) and hold the truncated correction to:
//!
//! * the serial oracle [`varying::reference`], bit for bit, on integers;
//! * the untruncated forward companion pass, bit for bit up to the sign
//!   of zero, on floats — including NaN positions, so a non-finite gate
//!   after the horizon must keep the pass running.
//!
//! Geometries: zero gates at a chunk's first, middle and last position
//! and on both sides of a stride boundary, no zero gate at all, decay to
//! zero by underflow only, a non-finite gate past the horizon, and
//! order 2 with zero rows.
//!
//! The local solves run on whatever kernel the plan selects for the
//! active tier, except in the `-0.0` leg, which pins the scalar tier.
//! Every test holds [`lock_global`] so that pin never leaks into another.

use plr_core::element::Element;
use plr_core::varying::{self, VaryingPlan, VaryingSignature, HORIZON_STRIDE};
use plr_core::{set_kernel_override, KernelTier};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes every test in this binary: the `-0.0` leg sets the
/// process-global kernel-tier override while it builds its plan.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn lock_global() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The untruncated correction: the forward companion pass over the whole
/// chunk with no horizon — the oracle the truncated pass must match.
fn correct_untruncated<T: Element>(
    sig: &VaryingSignature<T>,
    start: usize,
    carry: &[T],
    data: &mut [T],
) {
    let mut v = carry.to_vec();
    for (i, y) in data.iter_mut().enumerate() {
        let row = sig.row(start + i);
        let mut head = T::zero();
        for (j, &a) in row.iter().enumerate() {
            head = head.add(a.mul(v[j]));
        }
        v.rotate_right(1);
        v[0] = head;
        *y = y.add(head);
    }
}

/// The decoupled run: local solves from zero state, the carry chain, and
/// each chunk's correction (truncated through the plan, or untruncated).
fn decoupled<T: Element>(plan: &VaryingPlan<T>, input: &[T], truncated: bool) -> Vec<T> {
    let m = plan.chunk_size();
    let mut data = input.to_vec();
    let mut globals: Vec<Vec<T>> = Vec::new();
    for c in 0..plan.num_chunks() {
        let chunk = &mut data[c * m..((c + 1) * m).min(input.len())];
        let local = plan.solve_chunk(c, None, chunk, &mut || true).state;
        if c == 0 {
            globals.push(local);
            continue;
        }
        let g = &globals[c - 1];
        if truncated {
            plan.correct_chunk(c, g, chunk);
        } else {
            correct_untruncated(plan.signature(), c * m, g, chunk);
        }
        let next = plan.fixup_state(c, g, &local);
        globals.push(next);
    }
    data
}

/// Floats agree bit for bit up to the sign of zero (NaN matches NaN).
fn same_up_to_zero_sign(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

fn assert_floats_match(plan: &VaryingPlan<f64>, input: &[f64], ctx: &str) {
    let got = decoupled(plan, input, true);
    let want = decoupled(plan, input, false);
    for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
        assert!(same_up_to_zero_sign(g, w), "{ctx}: index {i}: {g} vs {w}");
    }
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Order-1 float gates in [0.5, 0.95) with exact zeros at `zeros`.
fn gates_with_zeros(n: usize, zeros: &[usize], seed: u64) -> Vec<f64> {
    let mut next = xorshift(seed);
    let mut g: Vec<f64> = (0..n)
        .map(|_| 0.5 + 0.45 * ((next() >> 11) as f64 / (1u64 << 53) as f64))
        .collect();
    for &z in zeros {
        g[z] = 0.0;
    }
    g
}

fn float_input(n: usize, seed: u64) -> Vec<f64> {
    let mut next = xorshift(seed);
    (0..n)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.25)
        .collect()
}

const M: usize = 4 * HORIZON_STRIDE + 5;

#[test]
fn zero_gate_at_first_middle_and_last_position() {
    let _g = lock_global();
    let n = 4 * M + 17;
    let s = HORIZON_STRIDE;
    for offset in [0, s - 1, s, M / 2, M - 1] {
        let zeros: Vec<usize> = (1..5).map(|c| c * M + offset).filter(|&z| z < n).collect();
        let sig = VaryingSignature::first_order(gates_with_zeros(n, &zeros, 3)).unwrap();
        let plan = VaryingPlan::build(sig, M).unwrap();
        assert_floats_match(&plan, &float_input(n, 5), &format!("offset {offset}"));
    }
}

#[test]
fn no_zero_gate_corrects_the_whole_chunk() {
    let _g = lock_global();
    let n = 3 * M;
    let sig = VaryingSignature::first_order(vec![1.0f64; n]).unwrap();
    let plan = VaryingPlan::build(sig, M).unwrap();
    let input = float_input(n, 9);
    let got = decoupled(&plan, &input, true);
    assert_floats_match(&plan, &input, "unit gates");
    // Unit gates never decay: the last element still carries every input.
    let total: f64 = input.iter().sum();
    assert!((got[n - 1] - total).abs() <= 1e-12 * total.abs().max(1.0));
}

#[test]
fn decay_by_underflow_alone_reaches_the_horizon() {
    let _g = lock_global();
    // Gate 1e-100 underflows any carry to exactly zero within four steps
    // without a single zero coefficient.
    let n = 3 * M;
    let sig = VaryingSignature::first_order(vec![1e-100f64; n]).unwrap();
    let plan = VaryingPlan::build(sig, M).unwrap();
    assert_floats_match(&plan, &float_input(n, 11), "underflow");
}

/// The `-0.0` leg's geometry: chunk 0 leaves a negative carry; chunk 1
/// holds `-0.0` inputs and opens with a zero gate, then a negative one.
fn negative_zero_case() -> (VaryingSignature<f64>, Vec<f64>) {
    let n = 2 * M;
    let mut gates = vec![0.5f64; n];
    gates[M] = 0.0;
    gates[M + 1] = -0.5;
    let mut input = vec![-1.0f64; M];
    input.extend(vec![-0.0f64; M]);
    (VaryingSignature::first_order(gates).unwrap(), input)
}

#[test]
fn truncation_keeps_negative_zero_past_the_horizon() {
    let _g = lock_global();
    // Chunk 1's scalar local solve is -0.0 from its second element on
    // while the untruncated pass carries +0.0 there and flips every
    // output to +0.0; the truncated pass finishes the stride it is in
    // (flipping those outputs too), then stops and leaves the rest -0.0.
    // The premise is the scalar loop's sign of zero (the block-scan
    // kernel may produce +0.0 here), so the plan is built on the scalar
    // tier: this leg tests where the correction stops, not the solve.
    let (sig, input) = negative_zero_case();
    set_kernel_override(Some(KernelTier::Scalar));
    let plan = VaryingPlan::build(sig, M).unwrap();
    set_kernel_override(None);
    let got = decoupled(&plan, &input, true);
    let want = decoupled(&plan, &input, false);
    assert!(got[M + 1..M + HORIZON_STRIDE]
        .iter()
        .all(|v| *v == 0.0 && v.is_sign_positive()));
    assert!(got[M + HORIZON_STRIDE..]
        .iter()
        .all(|v| *v == 0.0 && v.is_sign_negative()));
    assert!(want[M + 1..]
        .iter()
        .all(|v| *v == 0.0 && v.is_sign_positive()));
}

#[test]
fn negative_zero_case_on_the_active_tier_matches_the_untruncated_pass() {
    let _g = lock_global();
    // The same geometry on whatever local-solve kernel the active tier
    // selects: the truncated pass still matches the untruncated one up
    // to the sign of zero.
    let (sig, input) = negative_zero_case();
    let plan = VaryingPlan::build(sig, M).unwrap();
    assert_floats_match(&plan, &input, "-0.0 inputs");
}

#[test]
fn non_finite_gate_after_the_horizon_keeps_the_pass_running() {
    let _g = lock_global();
    // The carry is zero from the zero gate on, but 0·∞ is NaN: the chunk
    // is not all finite, so the correction must run past the stride where
    // it would otherwise stop, and the NaN must land exactly where the
    // untruncated pass puts it.
    let n = 3 * M;
    let at = M + HORIZON_STRIDE + 20;
    for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let mut gates = gates_with_zeros(n, &[M + 3], 13);
        gates[at] = bad;
        let sig = VaryingSignature::first_order(gates).unwrap();
        let plan = VaryingPlan::build(sig, M).unwrap();
        let input = float_input(n, 17);
        let got = decoupled(&plan, &input, true);
        assert!(got[at].is_nan(), "{bad}: 0·{bad} must reach the output");
        assert_floats_match(&plan, &input, &format!("gate {bad}"));
    }
}

#[test]
fn order_two_with_zero_rows() {
    let _g = lock_global();
    // Two consecutive all-zero rows zero both carry components; a single
    // zero row does not (the lag-2 slot still holds the old head).
    let n = 4 * M + 9;
    let k = 2;
    let mut next = xorshift(23);
    let mut coeffs: Vec<f64> = (0..n * k)
        .map(|_| 0.3 * ((next() >> 11) as f64 / (1u64 << 53) as f64) + 0.1)
        .collect();
    for z in [M + 5, M + 6, 2 * M + 140, 3 * M] {
        coeffs[z * k] = 0.0;
        coeffs[z * k + 1] = 0.0;
    }
    let sig = VaryingSignature::new(k, coeffs).unwrap();
    let plan = VaryingPlan::build(sig, M).unwrap();
    assert_floats_match(&plan, &float_input(n, 29), "order 2");
}

/// Integer gates with zeros at random positions (the carry becomes exact
/// zero at the first one, and wrapping products may reach it earlier).
fn int_gates(n: usize, k: usize, zero_every: usize, seed: u64) -> Vec<i64> {
    let mut next = xorshift(seed);
    (0..n * k)
        .map(|i| {
            if (i / k) % zero_every == zero_every - 1 {
                0
            } else {
                (next() % 7) as i64 - 3
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn integers_match_the_reference_bit_exactly(
        k in 1usize..4,
        m in 4usize..300,
        n in 0usize..1200,
        zero_every in 1usize..120,
        seed in 1u64..1000,
    ) {
        let _g = lock_global();
        let coeffs = int_gates(n, k, zero_every, seed);
        let sig = VaryingSignature::new(k, coeffs).unwrap();
        let mut next = xorshift(seed + 7);
        let input: Vec<i64> = (0..n).map(|_| (next() % 41) as i64 - 20).collect();
        let plan = VaryingPlan::build(sig.clone(), m).unwrap();
        let expect = varying::reference(&sig, &input).unwrap();
        prop_assert_eq!(decoupled(&plan, &input, true), expect);
    }

    #[test]
    fn floats_match_the_untruncated_correction(
        k in 1usize..4,
        m in 4usize..300,
        n in 0usize..1200,
        zero_at in 0usize..300,
        seed in 1u64..1000,
    ) {
        let _g = lock_global();
        let mut next = xorshift(seed);
        let mut coeffs: Vec<f64> = (0..n * k)
            .map(|_| 0.9 * ((next() >> 11) as f64 / (1u64 << 53) as f64) - 0.45)
            .collect();
        // Zero rows at the same in-chunk position of every chunk, twice
        // in a row so order-2 and order-3 carries can vanish too.
        for i in 0..n {
            let at = i % m;
            if at >= zero_at % m && at < zero_at % m + k {
                coeffs[i * k..(i + 1) * k].fill(0.0);
            }
        }
        let sig = VaryingSignature::new(k, coeffs).unwrap();
        let plan = VaryingPlan::build(sig, m).unwrap();
        let input = float_input(n, seed + 3);
        let got = decoupled(&plan, &input, true);
        let want = decoupled(&plan, &input, false);
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(same_up_to_zero_sign(g, w), "index {}: {} vs {}", i, g, w);
        }
    }
}
