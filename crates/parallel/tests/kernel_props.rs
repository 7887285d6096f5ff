//! Kernel-dispatch reporting and time-sliced-solve tests for the
//! parallel layer.
//!
//! The kernel tier is process-global (`PLR_KERNEL` / `set_kernel_override`)
//! and several tests here flip it, so every test in this binary grabs one
//! mutex: a runner built under one tier must not be asserted against a
//! tier another test just installed.

use plr_core::blocked::{SolveKernel, SOLVE_SLICE};
use plr_core::kernel::KernelKind;
use plr_core::serial;
use plr_core::signature::Signature;
use plr_core::{set_kernel_override, KernelTier};
use plr_parallel::{BatchRunner, CancelToken, ParallelRunner, RunnerConfig};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores the ambient tier when a test body panics, so one failure
/// doesn't cascade into every later test in the binary.
struct TierGuard;
impl Drop for TierGuard {
    fn drop(&mut self) {
        set_kernel_override(None);
    }
}

fn input(n: usize) -> Vec<i64> {
    (0..n).map(|i| ((i * 29) % 19) as i64 - 9).collect()
}

/// The runner reports the same kernel the dispatcher would hand out
/// right now, never `Unknown`.
#[test]
fn run_stats_report_the_dispatched_kernel() {
    let _g = serialize();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let expect = SolveKernel::select(sig.feedback()).kind();
    assert_ne!(expect, KernelKind::Unknown);
    let data = input(10_000);
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: 512,
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut got = data.clone();
    let stats = runner.run_in_place(&mut got).unwrap();
    assert_eq!(stats.kernel, expect);
    assert_eq!(got, serial::run(&sig, &data));
}

/// The batch whole-rows path and the streaming path report the kernel
/// too (they share one `RowTask`, so they must agree).
#[test]
fn batch_and_stream_stats_report_the_kernel() {
    let _g = serialize();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let expect = SolveKernel::select(sig.feedback()).kind();
    let width = 256;
    let rows = 8;
    let data = input(width * rows);
    let runner = BatchRunner::new(sig.clone(), 2);

    let mut got = data.clone();
    let stats = runner.run_rows(&mut got, width).unwrap();
    assert_eq!(stats.kernel, expect, "whole-rows path");
    assert_eq!(stats.solve_slices, rows as u64, "one slice per short row");

    let stream = runner.stream();
    let handles: Vec<_> = data
        .chunks(width)
        .map(|row| stream.push_row(row.to_vec()))
        .collect();
    stream.close();
    for (handle, row) in handles.into_iter().zip(data.chunks(width)) {
        let (out, result) = handle.join();
        let row_stats = result.unwrap();
        assert_eq!(out, serial::run(&sig, row));
        assert_eq!(row_stats.kernel, expect, "per-row stats");
    }
    let stats = stream.finish().unwrap();
    assert_eq!(stats.kernel, expect, "stream aggregate");
    assert_eq!(stats.solve_slices, rows as u64);
}

/// Forcing a tier through the programmatic override changes both the
/// kernel that runs and the kernel the stats report; results stay
/// bit-identical across tiers.
#[test]
fn forced_tiers_surface_in_stats() {
    let _g = serialize();
    let _restore = TierGuard;
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let data = input(30_000);
    let expect = serial::run(&sig, &data);
    for (tier, accept) in [
        (KernelTier::Scalar, &[KernelKind::Scalar][..]),
        (KernelTier::Blocked, &[KernelKind::Blocked][..]),
        (
            KernelTier::Simd,
            &[
                KernelKind::SimdPortable,
                KernelKind::SimdAvx2,
                KernelKind::SimdAvx512,
            ][..],
        ),
    ] {
        set_kernel_override(Some(tier));
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 1024,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut got = data.clone();
        let stats = runner.run_in_place(&mut got).unwrap();
        assert!(
            accept.contains(&stats.kernel),
            "{tier:?}: reported {:?}, wanted one of {accept:?}",
            stats.kernel
        );
        assert_eq!(got, expect, "{tier:?}");
    }
    set_kernel_override(None);
}

/// A chunk longer than `SOLVE_SLICE` is solved in abort-polled slices,
/// and the slice count surfaces in stats: `ceil(n / SOLVE_SLICE)` for a
/// single-chunk run, one per chunk when chunks are short.
#[test]
fn solve_slices_surface_in_stats() {
    let _g = serialize();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let n = 3 * SOLVE_SLICE + 421;
    let data = input(n);
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: n,
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut got = data.clone();
    let stats = runner.run_in_place(&mut got).unwrap();
    assert_eq!(stats.chunks, 1);
    assert_eq!(stats.solve_slices, 4, "3 full slices + remainder");
    assert_eq!(got, serial::run(&sig, &data));

    // Short chunks: the unsliced fast path, one slice each.
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: SOLVE_SLICE / 4,
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut got = data.clone();
    let stats = runner.run_in_place(&mut got).unwrap();
    assert_eq!(stats.solve_slices, stats.chunks);
    assert_eq!(got, serial::run(&sig, &data));
}

/// The ISSUE 7 cancellation regression: one row, one chunk, a solve long
/// enough that a cancel must land *inside* the kernel. Before the
/// time-sliced solve, the worker could not observe the token until the
/// whole chunk was done; now the solve bails at a slice boundary, the
/// run reports `Cancelled`, and the tail of the buffer is provably
/// untouched (still the raw input).
#[test]
fn cancel_token_interrupts_a_single_chunk_solve() {
    let _g = serialize();
    let _restore = TierGuard;
    // Forced scalar pins the slowest kernel so the solve comfortably
    // outlives the cancel delay on any hardware (~tens of ms for 16M
    // elements vs a 2 ms cancel).
    set_kernel_override(Some(KernelTier::Scalar));
    let sig: Signature<i32> = "1:2,-1".parse().unwrap();
    let n = 16 * 1024 * 1024;
    let mut data: Vec<i32> = (0..n).map(|i| ((i * 29) % 19) as i32 - 9).collect();
    let runner = ParallelRunner::with_config(
        sig,
        RunnerConfig {
            chunk_size: n,
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        })
    };
    let result = runner.run_in_place_with_cancel(&mut data, &token);
    canceller.join().unwrap();
    set_kernel_override(None);
    match result {
        Err(plr_core::error::EngineError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // Mid-kernel evidence: some suffix must still hold raw input. (A
    // pre-slicing solve would have rewritten every element before the
    // abort was seen.)
    let untouched_tail = data
        .iter()
        .enumerate()
        .rev()
        .take_while(|&(i, &v)| v == ((i * 29) % 19) as i32 - 9)
        .count();
    assert!(
        untouched_tail > 0,
        "cancel landed only after the whole chunk was solved"
    );
}
