//! Persistent-pool benchmarks: repeated small-to-medium runs against a
//! seed-style baseline that pays a full thread spawn/join (plus a separate
//! FIR buffer and copy-back) on every call, the way the runner did before
//! the pool existed. The interesting number is the repeated-call mean —
//! warm parked workers vs per-call `std::thread::scope` — plus a
//! single-shot large-input group confirming the pool costs nothing when
//! spawn overhead amortizes anyway. `PLR_BENCH_QUICK=1` shrinks the sweep
//! to one small size with few samples and skips the 8M single-shot group —
//! the CI smoke mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use plr_core::element::Element;
use plr_core::nacci::{carries_of, CorrectionTable};
use plr_core::serial;
use plr_core::signature::Signature;
use plr_parallel::{resolve_threads, ParallelRunner, RunnerConfig};
use std::hint::black_box;
use std::sync::{Mutex, OnceLock};

fn int_input(n: usize) -> Vec<i64> {
    (0..n)
        .map(|i| ((i as i64).wrapping_mul(0x9E3779B9) % 41) - 20)
        .collect()
}

/// The pre-pool execution shape, reconstructed as a baseline: every call
/// maps the FIR stage through a second full-size buffer, then spawns a
/// fresh `std::thread::scope` for the local solves and another for the
/// correction pass, with a sequential carry chain in between.
fn spawn_per_call<T: Element>(
    sig: &Signature<T>,
    table: &CorrectionTable<T>,
    fir: &[T],
    input: &[T],
    m: usize,
    threads: usize,
) -> Vec<T> {
    let mut data = input.to_vec();
    spawn_per_call_in_place(sig, table, fir, &mut data, m, threads);
    data
}

/// The baseline's map stage, shaped like the pre-pool runner's: a zeroed
/// full-size buffer, its own scoped spawn, and a copy-back.
fn fir_stage_seed_style<T: Element>(fir: &[T], data: &mut [T], threads: usize) {
    let n = data.len();
    let chunk = n.div_ceil(threads).max(1);
    let mut out = vec![T::zero(); n];
    std::thread::scope(|scope| {
        for (idx, slice) in out.chunks_mut(chunk).enumerate() {
            let input = &*data;
            scope.spawn(move || {
                let start = idx * chunk;
                for (off, v) in slice.iter_mut().enumerate() {
                    let i = start + off;
                    let mut acc = T::zero();
                    for (j, &a) in fir.iter().enumerate() {
                        if j > i {
                            break;
                        }
                        acc = acc.add(a.mul(input[i - j]));
                    }
                    *v = acc;
                }
            });
        }
    });
    data.copy_from_slice(&out);
}

/// The in-place entry point of the baseline; "in place" is nominal — like
/// the seed, the map stage still routes through a second full-size buffer.
fn spawn_per_call_in_place<T: Element>(
    sig: &Signature<T>,
    table: &CorrectionTable<T>,
    fir: &[T],
    data: &mut [T],
    m: usize,
    threads: usize,
) {
    if !sig.is_pure_feedback() {
        fir_stage_seed_style(fir, data, threads);
    }
    let n = data.len();
    if n == 0 {
        return;
    }
    let num_chunks = n.div_ceil(m);
    let k = sig.order();
    let feedback = sig.feedback();
    let locals: Vec<OnceLock<Vec<T>>> = (0..num_chunks).map(|_| OnceLock::new()).collect();

    // Pass A: local solves, chunks fed through a bounded channel by the
    // main thread (which does no chunk work itself) — the seed's work
    // distribution, with a mutex-shared std receiver standing in for the
    // mpmc channel it used.
    {
        let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, &mut [T])>(threads);
        let rx = Mutex::new(rx);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (rx, locals) = (&rx, &locals);
                s.spawn(move || loop {
                    let msg = rx.lock().unwrap().recv();
                    let Ok((c, chunk)) = msg else { break };
                    serial::recursive_in_place(feedback, chunk);
                    let _ = locals[c].set(carries_of(chunk, k));
                });
            }
            for item in data.chunks_mut(m).enumerate() {
                tx.send(item).expect("workers outlive the feed");
            }
            drop(tx);
        });
    }

    let mut globals: Vec<Vec<T>> = Vec::with_capacity(num_chunks);
    globals.push(locals[0].get().expect("pass A filled every slot").clone());
    for c in 1..num_chunks {
        let len = m.min(n - c * m);
        globals.push(table.fixup_carries(
            &globals[c - 1],
            locals[c].get().expect("pass A filled every slot"),
            len,
        ));
    }

    // Pass B: correction, fed the same way.
    {
        let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, &mut [T])>(threads);
        let rx = Mutex::new(rx);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (rx, globals) = (&rx, &globals);
                s.spawn(move || loop {
                    let msg = rx.lock().unwrap().recv();
                    let Ok((t, chunk)) = msg else { break };
                    table.correct_chunk(chunk, &globals[t]);
                });
            }
            for (c, chunk) in data.chunks_mut(m).enumerate().skip(1) {
                tx.send((c - 1, chunk)).expect("workers outlive the feed");
            }
            drop(tx);
        });
    }
}

fn bench_repeated_runs(c: &mut Criterion) {
    // A first-order filter with a map stage (a scaled leaky integrator):
    // the seed paid a second full-size buffer plus a copy-back for the map
    // on every call, on top of the per-call thread spawns. Light per-element
    // compute keeps those per-call overheads visible at every size.
    let sig: Signature<i64> = "2:1".parse().unwrap();
    // One worker per CPU, exactly what `RunnerConfig::default()` resolves
    // to — requesting more than the machine has would just benchmark the
    // scheduler, for the baseline and the pool alike.
    let threads = resolve_threads(0);
    let m = 1 << 12;
    let (fir, recursive) = sig.split();
    let table = CorrectionTable::generate_with(recursive.feedback(), m, false);
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: m,
            threads,
            ..Default::default()
        },
    )
    .unwrap();

    // The comparison is only meaningful if the baseline is correct.
    let check = int_input(10_000);
    assert_eq!(
        spawn_per_call(&sig, &table, &fir, &check, m, threads),
        serial::run(&sig, &check),
        "seed-style baseline disagrees with the serial reference"
    );

    let quick = std::env::var("PLR_BENCH_QUICK").is_ok();
    let pows: &[usize] = if quick { &[16] } else { &[16, 18, 20] };
    for &pow in pows {
        let n = 1usize << pow;
        let mut buf = int_input(n);
        let mut g = c.benchmark_group(format!("pool_repeated_{}k", n >> 10));
        g.throughput(Throughput::Elements(n as u64));
        g.sample_size(if quick { 10 } else { 30 });
        g.bench_function(BenchmarkId::new("pooled", threads), |b| {
            b.iter(|| runner.run_in_place(black_box(&mut buf)).unwrap());
        });
        let mut buf = int_input(n);
        g.bench_function(BenchmarkId::new("spawn_per_call", threads), |b| {
            b.iter(|| spawn_per_call_in_place(&sig, &table, &fir, black_box(&mut buf), m, threads));
        });
        g.finish();
    }
}

fn bench_single_shot_large(c: &mut Criterion) {
    // At 8M elements the spawn cost amortizes; the pool must not be slower.
    // The quick smoke skips this group outright — on a CI runner the 8M
    // input dominates wall time without exercising anything the repeated
    // group doesn't.
    if std::env::var("PLR_BENCH_QUICK").is_ok() {
        return;
    }
    let sig: Signature<i64> = "2:1".parse().unwrap();
    let threads = resolve_threads(0);
    let m = 1 << 16;
    let n = 1usize << 23;
    let data = int_input(n);
    let (fir, recursive) = sig.split();
    let table = CorrectionTable::generate_with(recursive.feedback(), m, false);
    let check = int_input(10_000);
    assert_eq!(
        spawn_per_call(&sig, &table, &fir, &check, m, threads),
        serial::run(&sig, &check),
        "seed-style baseline disagrees with the serial reference"
    );
    let mut g = c.benchmark_group("pool_single_shot_8M");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(12);
    g.bench_function("spawn_per_call", |b| {
        b.iter(|| spawn_per_call(&sig, &table, &fir, black_box(&data), m, threads));
    });
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: m,
            threads,
            ..Default::default()
        },
    )
    .unwrap();
    g.bench_function("pooled", |b| {
        b.iter(|| runner.run(black_box(&data)).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench_repeated_runs, bench_single_shot_large);
criterion_main!(benches);
