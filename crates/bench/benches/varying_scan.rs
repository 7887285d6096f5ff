//! Criterion benchmarks for the time-varying matrix-carry lowering.
//!
//! Two workload families from the paper's "operators beyond constant
//! coefficients" frontier:
//!
//! * **order-1 selective scan** (the Mamba/SSM recurrence
//!   `y[i] = x[i] + a[i]·y[i-1]` with per-element gates) — f32, 1M
//!   elements;
//! * **order-2 adaptive filter** (per-element biquad feedback) — f64.
//!
//! The baseline is the *naive* varying evaluator
//! ([`plr_core::varying::reference`]): the straightforward
//! bounds-checked tap loop anyone would write first. The parallel rows
//! measure [`VaryingRunner`] at 1/2/4 workers; plan construction
//! (transition matrices, kernel dedupe) happens once outside the timed
//! loop, mirroring the constant-coefficient benches where runner
//! construction is likewise excluded. `PLR_BENCH_QUICK=1` shrinks the
//! sample counts — the CI smoke mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use plr_core::varying::{reference, VaryingSignature};
use plr_parallel::{RunnerConfig, VaryingRunner};
use std::hint::black_box;

fn quick() -> bool {
    std::env::var("PLR_BENCH_QUICK").is_ok()
}

/// Deterministic gates in `[0.1, 0.5]` (contractive: the stable
/// selective-scan regime).
fn gates_f32(n: usize) -> Vec<f32> {
    let mut s = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            0.1 + 0.4 * ((s >> 40) as f32 / (1u64 << 24) as f32)
        })
        .collect()
}

/// Deterministic order-2 coefficient rows, stable (|a1|≤0.8, |a2|≤0.15).
fn coeffs_f64_order2(n: usize) -> Vec<f64> {
    let mut s = 0x243f6a8885a308d3u64;
    (0..2 * n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            if i % 2 == 0 {
                1.6 * u - 0.8
            } else {
                0.3 * u - 0.15
            }
        })
        .collect()
}

fn input_f32(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i % 17) as f32) * 0.25 - 2.0).collect()
}

fn input_f64(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 13) as f64) * 0.25 - 1.5).collect()
}

/// Order-1 f32 selective scan at 1M elements: naive serial evaluator vs
/// the matrix-carry runner at 1/2/4 workers. This is the acceptance
/// measurement: `plr` at ≥2 threads must beat `serial_naive`.
fn bench_selective_scan(c: &mut Criterion) {
    let n = 1 << 20;
    let sig = VaryingSignature::first_order(gates_f32(n)).unwrap();
    let data = input_f32(n);
    let mut g = c.benchmark_group("varying_scan_order1_1M");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick() { 10 } else { 20 });
    g.bench_function("serial_naive", |b| {
        b.iter(|| reference(black_box(&sig), black_box(&data)).unwrap());
    });
    for threads in [1usize, 2, 4] {
        let runner = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 1 << 16,
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        g.bench_function(BenchmarkId::new("plr", threads), |b| {
            b.iter(|| runner.run(black_box(&data)).unwrap());
        });
    }
    g.finish();
}

/// Order-2 f64 adaptive filter: the matrix-carry path where the carry is
/// a genuine 2×2 transition matrix per chunk.
fn bench_adaptive_filter(c: &mut Criterion) {
    let n = if quick() { 1 << 19 } else { 1 << 20 };
    let sig = VaryingSignature::new(2, coeffs_f64_order2(n)).unwrap();
    let data = input_f64(n);
    let mut g = c.benchmark_group(format!("varying_filter_order2_{}k", n >> 10));
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick() { 10 } else { 20 });
    g.bench_function("serial_naive", |b| {
        b.iter(|| reference(black_box(&sig), black_box(&data)).unwrap());
    });
    for threads in [1usize, 2, 4] {
        let runner = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 1 << 16,
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        g.bench_function(BenchmarkId::new("plr", threads), |b| {
            b.iter(|| runner.run(black_box(&data)).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_selective_scan, bench_adaptive_filter);
criterion_main!(benches);
