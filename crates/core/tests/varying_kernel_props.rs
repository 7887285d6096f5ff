//! Differential gauntlet for the order-1 time-varying block-scan kernel
//! ([`varying_scan_with`]) against the scalar loop it replaces,
//! `prev = z[i] + a[i]·prev`.
//!
//! Every available [`Isa`] is driven through the explicit entry point;
//! ISAs without the vector form ([`Isa::Portable`]) must decline and
//! leave the data untouched. The plan-level legs go through
//! [`VaryingPlan::solve_chunk`] on whatever kernel the active tier
//! selects (so the forced-tier CI legs run them on the scalar loop) and
//! check which chunks may take the kernel at all.
//!
//! Bounds:
//! * positive contractive gates and inputs: ≤ 4 ULP;
//! * signed or wide gates: `1e-9` relative (absolute below 1), the bound
//!   of the executor gauntlet;
//! * `-0.0` and non-finite values: equal up to the sign of zero where
//!   finite, non-finite at exactly the scalar loop's positions.

use plr_core::blocked::SOLVE_SLICE;
use plr_core::kernel::{self, KernelKind, KernelTier};
use plr_core::simd::{available_isas, varying_scan_with, Isa};
use plr_core::varying::{VaryingPlan, VaryingSignature};
use proptest::prelude::*;

/// The scalar loop: `y[i] = data[i] + gates[i]·y[i−1]` from `prev`.
fn scalar_scan(gates: &[f64], data: &mut [f64], mut prev: f64) {
    for (y, &a) in data.iter_mut().zip(gates) {
        prev = *y + a * prev;
        *y = prev;
    }
}

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` values uniform in `[lo, hi)`.
fn uniform(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut next = xorshift(seed);
    (0..n).map(|_| lo + (hi - lo) * next()).collect()
}

/// Monotone total-order key for ULP distance; `-0.0` and `0.0` count as
/// equal.
fn ulps(a: f64, b: f64) -> u64 {
    let key = |x: f64| -> i128 {
        let bits = x.to_bits() as i64;
        if bits >= 0 {
            bits as i128
        } else {
            (i64::MIN as i128) - (bits as i128)
        }
    };
    (key(a) - key(b)).unsigned_abs().min(u64::MAX as u128) as u64
}

/// How two outputs must agree.
#[derive(Clone, Copy, Debug)]
enum Bound {
    Ulps(u64),
    Rel(f64),
}

/// Finite outputs agree within `bound` (the sign of zero aside);
/// non-finite outputs sit at exactly the same positions.
fn check(want: &[f64], got: &[f64], bound: Bound, ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: length");
    for (i, (&w, &g)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            w.is_finite(),
            g.is_finite(),
            "{ctx}: index {i}: {g} vs scalar {w} (finiteness)"
        );
        if !w.is_finite() {
            continue;
        }
        let ok = match bound {
            Bound::Ulps(u) => ulps(w, g) <= u,
            Bound::Rel(r) => (w - g).abs() <= r * w.abs().max(1.0),
        };
        assert!(ok, "{ctx}: index {i}: {g} vs scalar {w} ({bound:?})");
    }
}

/// Runs the kernel on every available ISA and checks it against the
/// scalar loop; ISAs without the vector form must leave `data` alone.
fn against_every_isa(gates: &[f64], data: &[f64], prev: f64, bound: Bound, ctx: &str) {
    let mut want = data.to_vec();
    scalar_scan(gates, &mut want, prev);
    let mut ran = 0;
    for isa in available_isas::<f64>() {
        let mut got = data.to_vec();
        if varying_scan_with(isa, gates, &mut got, prev) {
            ran += 1;
            check(&want, &got, bound, &format!("{ctx} isa={isa:?}"));
        } else {
            assert_eq!(isa, Isa::Portable, "{ctx}: {isa:?} declined");
            assert!(
                got.iter()
                    .zip(data)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{ctx}: a declining ISA touched the data"
            );
        }
    }
    assert_eq!(ran > 0, Isa::Avx2.available(), "{ctx}: AVX2 must run");
}

/// Lengths 0–40 and around every 4/8 edge of a few longer bases.
fn lengths() -> Vec<usize> {
    let mut out: Vec<usize> = (0..=40).collect();
    for base in [64usize, 200, 1000] {
        for d in 0..=9 {
            out.push(base - 4 + d);
        }
    }
    out
}

#[test]
fn positive_contractive_lengths_within_4_ulps() {
    for n in lengths() {
        let gates = uniform(n, 0.1, 0.5, 3 + n as u64);
        let data = uniform(n, 0.5, 1.7, 5 + n as u64);
        against_every_isa(
            &gates,
            &data,
            0.0,
            Bound::Ulps(4),
            &format!("zero state n={n}"),
        );
        against_every_isa(&gates, &data, 1.25, Bound::Ulps(4), &format!("state n={n}"));
    }
}

#[test]
fn signed_and_wide_gates_within_relative_bound() {
    for n in lengths() {
        let data = uniform(n, -2.0, 2.0, 7 + n as u64);
        for (lo, hi) in [(-0.9, 0.9), (-1.5, 1.5), (-1.0, -0.5)] {
            let gates = uniform(n, lo, hi, 11 + n as u64);
            let ctx = format!("gates [{lo}, {hi}) n={n}");
            against_every_isa(&gates, &data, -0.75, Bound::Rel(1e-9), &ctx);
        }
    }
}

#[test]
fn zero_gate_at_every_lane_of_a_block() {
    // A zero gate at each position of two 8-element blocks: the first,
    // middle and last lane of both 4-lane vectors among them.
    let n = 24;
    for at in 0..16 {
        let mut gates = uniform(n, 0.1, 0.5, 13);
        gates[at] = 0.0;
        let data = uniform(n, 0.5, 1.7, 17);
        against_every_isa(&gates, &data, 2.0, Bound::Ulps(4), &format!("zero at {at}"));
    }
}

#[test]
fn gates_just_below_one() {
    // Gates in 0.9999–1 barely decay, so rounding differences linger for
    // thousands of steps: the relative bound, not ULPs.
    let n = 5000;
    let gates = uniform(n, 0.9999, 1.0, 19);
    let data = uniform(n, 0.5, 1.7, 23);
    against_every_isa(&gates, &data, 3.0, Bound::Rel(1e-9), "gates 0.9999-1");
}

#[test]
fn subnormal_carries() {
    // A subnormal incoming state decaying through subnormal outputs (zero
    // input), then normal input arriving on top of it.
    let n = 37;
    let gates = uniform(n, 0.1, 0.5, 29);
    let mut data = vec![0.0f64; n];
    for tiny in [f64::MIN_POSITIVE / 3.0, 5e-324, -f64::MIN_POSITIVE / 7.0] {
        against_every_isa(
            &gates,
            &data,
            tiny,
            Bound::Ulps(4),
            &format!("carry {tiny:e}"),
        );
    }
    data[20..].fill(1e-310);
    against_every_isa(&gates, &data, 1e-309, Bound::Ulps(4), "subnormal input");
}

#[test]
fn negative_zero_inputs() {
    // -0.0 inputs with zero, positive and negative states: outputs equal
    // up to the sign of zero.
    let n = 29;
    let data = vec![-0.0f64; n];
    for prev in [0.0, -0.0, 1.5, -1.5] {
        let mut gates = uniform(n, 0.1, 0.5, 31);
        gates[9] = 0.0;
        against_every_isa(
            &gates,
            &data,
            prev,
            Bound::Ulps(4),
            &format!("-0.0, prev {prev}"),
        );
    }
}

#[test]
fn non_finite_inputs_land_where_the_scalar_loop_puts_them() {
    let n = 40;
    for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        for at in [0usize, 3, 4, 7, 8, 13, 31, 39] {
            let mut gates = uniform(n, 0.1, 0.5, 37);
            let mut data = uniform(n, 0.5, 1.7, 41);
            data[at] = bad;
            against_every_isa(
                &gates,
                &data,
                1.0,
                Bound::Ulps(4),
                &format!("{bad} at {at}"),
            );
            // A zero gate right after it turns the carried ∞ into NaN.
            if at + 1 < n {
                gates[at + 1] = 0.0;
                let ctx = format!("{bad} at {at}, zero gate after");
                against_every_isa(&gates, &data, 1.0, Bound::Ulps(4), &ctx);
            }
        }
        let gates = uniform(n, 0.1, 0.5, 43);
        let data = uniform(n, 0.5, 1.7, 47);
        against_every_isa(&gates, &data, bad, Bound::Ulps(4), &format!("state {bad}"));
    }
}

#[test]
fn slices_hand_their_state_on() {
    // Across SOLVE_SLICE: slice by slice with the last output handed to
    // the next slice, against one scalar pass over the whole span.
    let n = 2 * SOLVE_SLICE + 13;
    let gates = uniform(n, 0.1, 0.5, 53);
    let data = uniform(n, 0.5, 1.7, 59);
    let mut want = data.clone();
    scalar_scan(&gates, &mut want, 0.5);
    for isa in available_isas::<f64>() {
        let mut got = data.clone();
        let mut prev = 0.5;
        let mut ran = true;
        for (g, d) in gates.chunks(SOLVE_SLICE).zip(got.chunks_mut(SOLVE_SLICE)) {
            ran &= varying_scan_with(isa, g, d, prev);
            prev = *d.last().unwrap();
        }
        if ran {
            check(&want, &got, Bound::Ulps(4), &format!("sliced isa={isa:?}"));
        }
    }
}

/// The kernel the plan selects for a chunk of finite, in-range `f64`
/// gates under the active tier.
fn expected_gate_kind() -> KernelKind {
    match kernel::tier() {
        KernelTier::Auto | KernelTier::Simd if Isa::Avx2.available() => KernelKind::SimdAvx2,
        _ => KernelKind::Scalar,
    }
}

/// Solves every chunk of `plan` from a zero state (`fused == false`) or
/// from the previous chunk's real state.
fn solve_chunks(plan: &VaryingPlan<f64>, input: &[f64], fused: bool) -> Vec<f64> {
    let m = plan.chunk_size();
    let mut data = input.to_vec();
    let mut state = vec![0.0];
    for c in 0..plan.num_chunks() {
        let chunk = &mut data[c * m..((c + 1) * m).min(input.len())];
        let out = plan.solve_chunk(c, fused.then_some(&state[..]), chunk, &mut || true);
        assert!(out.completed);
        assert_eq!(out.kernel, plan.chunk_kernel_kind(c));
        state = out.state;
    }
    data
}

/// The scalar loop per chunk with offsets folded in, from a zero or the
/// real state.
fn scalar_chunks(gates: &[f64], offsets: &[f64], input: &[f64], m: usize, fused: bool) -> Vec<f64> {
    let mut data: Vec<f64> = input.iter().zip(offsets).map(|(x, d)| x + d).collect();
    let mut prev = 0.0;
    for (g, d) in gates.chunks(m).zip(data.chunks_mut(m)) {
        scalar_scan(g, d, if fused { prev } else { 0.0 });
        prev = *d.last().unwrap();
    }
    data
}

#[test]
fn plan_chunks_with_offsets_in_both_modes() {
    // Chunks longer than a slice, so the plan's own slicing hands the
    // state on inside a chunk too.
    let m = SOLVE_SLICE + 21;
    let n = 3 * m + 5;
    let gates = uniform(n, 0.1, 0.5, 61);
    let offsets = uniform(n, 0.0, 0.5, 67);
    let input = uniform(n, 0.5, 1.2, 71);
    let sig = VaryingSignature::first_order(gates.clone())
        .unwrap()
        .with_offsets(offsets.clone())
        .unwrap();
    let plan = VaryingPlan::build(sig, m).unwrap();
    for c in 0..plan.num_chunks() {
        assert_eq!(plan.chunk_kernel_kind(c), expected_gate_kind(), "chunk {c}");
    }
    for fused in [false, true] {
        let want = scalar_chunks(&gates, &offsets, &input, m, fused);
        let got = solve_chunks(&plan, &input, fused);
        check(
            &want,
            &got,
            Bound::Ulps(4),
            &format!("offsets fused={fused}"),
        );
    }
}

#[test]
fn out_of_range_gates_keep_the_scalar_loop() {
    // One chunk per gate class; only finite gates that are zero or within
    // [2^-64, 2^64] in magnitude may take the block scan. The others must
    // reproduce the scalar loop bit for bit, NaN positions included.
    // The in-range chunk comes last, so every scalar chunk also starts
    // from a state the scalar loop produced.
    let m = 40;
    let classes = [
        Some(f64::INFINITY),
        Some(f64::NEG_INFINITY),
        Some(f64::NAN),
        Some(1e-30),
        Some(-1e30),
        Some(f64::MIN_POSITIVE),
        None,
    ];
    let last = classes.len() - 1;
    let n = m * classes.len();
    let mut gates = uniform(n, 0.1, 0.5, 73);
    for (c, class) in classes.iter().enumerate() {
        if let Some(g) = class {
            gates[c * m + 17] = *g;
        }
    }
    let input = uniform(n, 0.5, 1.7, 79);
    let plan =
        VaryingPlan::build(VaryingSignature::first_order(gates.clone()).unwrap(), m).unwrap();
    for c in 0..last {
        assert_eq!(plan.chunk_kernel_kind(c), KernelKind::Scalar, "chunk {c}");
    }
    assert_eq!(plan.chunk_kernel_kind(last), expected_gate_kind());
    // Zero-state solves: the in-range chunk stays finite and close.
    let want = scalar_chunks(&gates, &vec![0.0; n], &input, m, false);
    let got = solve_chunks(&plan, &input, false);
    check(
        &want[last * m..],
        &got[last * m..],
        Bound::Ulps(4),
        "in range",
    );
    for fused in [false, true] {
        let want = scalar_chunks(&gates, &vec![0.0; n], &input, m, fused);
        let got = solve_chunks(&plan, &input, fused);
        for (i, (&w, &g)) in want.iter().zip(&got).enumerate().take(last * m) {
            assert!(
                w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()),
                "fused={fused} index {i}: {g} vs scalar {w}"
            );
        }
    }
}

#[test]
fn other_elements_and_orders_keep_the_scalar_loop() {
    // f32 and integer elements have no block scan; neither has order 2.
    for isa in available_isas::<f32>() {
        let mut d = vec![1.0f32; 16];
        assert!(!varying_scan_with(isa, &[0.5f32; 16], &mut d, 0.0));
        assert_eq!(d, vec![1.0f32; 16]);
    }
    for isa in available_isas::<i64>() {
        let mut d = vec![1i64; 16];
        assert!(!varying_scan_with(isa, &[2i64; 16], &mut d, 0));
        assert_eq!(d, vec![1i64; 16]);
    }
    let gates: Vec<i64> = (0..100).map(|i| (i % 5) - 2).collect();
    let plan = VaryingPlan::build(VaryingSignature::first_order(gates).unwrap(), 32).unwrap();
    assert_eq!(plan.aggregate_kernel_kind(), KernelKind::Scalar);
    let rows = uniform(200, 0.1, 0.4, 83);
    let plan = VaryingPlan::build(VaryingSignature::new(2, rows).unwrap(), 32).unwrap();
    assert_eq!(plan.aggregate_kernel_kind(), KernelKind::Scalar);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_lengths_and_states(
        n in 0usize..200,
        prev in 0.0f64..4.0,
        seed in 1u64..10_000,
    ) {
        let gates = uniform(n, 0.1, 0.5, seed);
        let data = uniform(n, 0.5, 1.7, seed + 1);
        against_every_isa(&gates, &data, prev, Bound::Ulps(4), &format!("n={n} seed={seed}"));
    }
}
