//! Multithreaded execution of time-varying recurrences.
//!
//! [`VaryingRunner`] maps the matrix-carry lowering
//! ([`plr_core::varying`]) onto the same chunked pipeline the
//! constant-coefficient [`ParallelRunner`](crate::ParallelRunner) uses:
//! workers claim chunks from an atomic ticket counter, solve them locally
//! from zero state, and stitch the chunks together through per-chunk
//! *affine carry maps* `g ↦ M_c·g + local_c` instead of n-nacci
//! correction factors. The transition matrices `M_c` depend only on the
//! coefficients, so they are precomputed once per [`VaryingPlan`] and
//! shared by every run.
//!
//! Each worker publishes its chunk's local state, resolves its
//! predecessor's global state by variable look-back over published
//! carries, corrects its chunk with a forward companion pass, and
//! publishes its own global state. Workers additionally *fuse*
//! opportunistically: when a chunk's predecessor global is already
//! published at claim time (always true for chunk 0), the chunk is solved
//! directly from real history — no local publish, no correction pass, no
//! matrix math. On one thread every chunk fuses and the run degenerates
//! to the serial sweep, which is exactly the work-optimal behavior. Float
//! elements fuse only on a width-1 pool: fused and corrected solves round
//! differently, and fusing on a race would make float outputs depend on
//! scheduler timing. Fused chunks never publish local state; the
//! pipeline's resolver waits on *either* carry cell of a chunk and
//! restarts its walk from the chunk's global when it has no local.
//!
//! Cancel tokens, deadlines, `check_finite`, fault injection, and the
//! batch/stream layers ([`VaryingRunner::run_rows`],
//! [`VaryingRunner::stream`]) all behave exactly as they do for constant
//! signatures; the differential test suite holds the two executors to the
//! same observable semantics.

use crate::batch::RowTask;
use crate::pipeline::{CarryAlgebra, RowAlgebra, Step};
use crate::runner::{Runner, RunnerConfig};
use crate::stats::RunStats;
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::plan::PlanKind;
use plr_core::varying::{VaryingPlan, VaryingSignature};
use std::sync::Arc;

/// A multithreaded executor for one time-varying signature: transition
/// matrices and constant-chunk kernels precomputed once, worker threads
/// spawned once and reused across runs.
///
/// Unlike [`ParallelRunner`](crate::ParallelRunner), the signature binds
/// the *input length* (coefficients are positional), so every run must
/// supply exactly `plan.len()` elements per sequence.
///
/// # Examples
///
/// ```
/// use plr_parallel::VaryingRunner;
/// use plr_core::varying::VaryingSignature;
///
/// // y[i] = x[i] + a[i]·y[i-1] with a = [2, 0, 3, 1].
/// let sig = VaryingSignature::first_order(vec![2i64, 0, 3, 1])?;
/// let runner = VaryingRunner::new(sig)?;
/// let y = runner.run(&[1, 1, 1, 1])?;
/// assert_eq!(y, vec![1, 1, 4, 5]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type VaryingRunner<T> = Runner<VaryingPlan<T>>;

impl<T: Element> VaryingRunner<T> {
    /// Creates a runner with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`VaryingRunner::with_config`].
    pub fn new(signature: VaryingSignature<T>) -> Result<Self, EngineError> {
        Self::with_config(signature, RunnerConfig::default())
    }

    /// Creates a runner with an explicit configuration. The
    /// [`RunnerConfig::plan`] field is ignored — varying signatures have
    /// exactly one lowering and never consult the constant-coefficient
    /// correction-plan cache.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidChunkSize`] when the chunk size is
    /// zero or smaller than the recurrence order, and
    /// [`EngineError::InputTooLarge`] when the signature binds more than
    /// `2^30` elements.
    pub fn with_config(
        signature: VaryingSignature<T>,
        config: RunnerConfig,
    ) -> Result<Self, EngineError> {
        let plan = VaryingPlan::build(signature, config.chunk_size)?;
        Ok(Self::from_plan_and_config(plan, config))
    }

    /// The time-varying signature this runner executes.
    pub fn signature(&self) -> &VaryingSignature<T> {
        self.plan().signature()
    }

    /// The precomputed matrix-carry plan (shared with every run and with
    /// rows dispatched through [`VaryingRunner::run_rows`] /
    /// [`VaryingRunner::stream`]).
    pub fn plan(&self) -> &Arc<VaryingPlan<T>> {
        self.shared_plan()
    }
}

/// The matrix-carry algebra: a chunk's carry is its affine map
/// `g ↦ M_c·g + local_c`, applied by a forward companion pass.
impl<T: Element> CarryAlgebra for VaryingPlan<T> {
    type Elem = T;

    fn chunk_size(&self) -> usize {
        VaryingPlan::chunk_size(self)
    }

    fn bound_len(&self) -> Option<usize> {
        Some(self.len())
    }

    /// Chunk 0 always fuses (its history is the zero state). Later chunks
    /// fuse whenever their predecessor's globals are published at claim
    /// time — integers freely, since their arithmetic is exact either
    /// way, but floats only on a width-1 pool, where every chunk fuses
    /// deterministically and the race cannot decide the rounding.
    fn fuses(&self, width: usize) -> bool {
        !T::IS_FLOAT || width == 1
    }

    fn solve(
        &self,
        c: usize,
        chunk: &mut [T],
        prev: Option<&[T]>,
        tally: &mut RunStats,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> Option<Step<T>> {
        let out = self.solve_chunk(c, prev, chunk, keep_going);
        tally.solve_slices += out.slices;
        if !out.completed {
            return None;
        }
        if c == 0 || prev.is_some() {
            // Fused: solved with real history, so the state is global
            // immediately — no local publish, no correction.
            tally.fused_chunks += 1;
            return Some(Step::Global(out.state, 0));
        }
        Some(Step::Local(out.state))
    }

    fn fixup(&self, c: usize, _len: usize, prev: &[T], local: &[T]) -> Vec<T> {
        self.fixup_state(c, prev, local)
    }

    fn correct(&self, c: usize, chunk: &mut [T], g: &[T]) {
        self.correct_chunk(c, g, chunk);
    }

    /// The varying path has no FIR stage, never touches the
    /// correction-plan cache, and reports the plan's kernel summary
    /// ([`KernelKind::Mixed`](plr_core::kernel::KernelKind::Mixed) when
    /// constant-row kernel chunks and varying scalar chunks coexist).
    fn base_stats(&self) -> RunStats {
        RunStats {
            plan_kind: PlanKind::MatrixCarry,
            kernel: self.aggregate_kernel_kind(),
            correction_taps: self.order() as u64,
            ..RunStats::default()
        }
    }
}

impl<T: Element> RowAlgebra for VaryingPlan<T> {
    fn row_task(plan: &Arc<Self>) -> RowTask<T> {
        RowTask::varying(Arc::clone(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
    use plr_core::varying::{reference, VaryingSignature};

    fn gates_f64(n: usize, k: usize) -> Vec<f64> {
        // Deterministic contractive coefficients in [0.1, 0.5].
        let mut s = 0x9e3779b97f4a7c15u64;
        (0..n * k)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                0.1 + 0.4 * ((s >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect()
    }

    fn coeffs_i64(n: usize, k: usize) -> Vec<i64> {
        let mut s = 0x243f6a8885a308d3u64;
        (0..n * k)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 5) as i64 - 2
            })
            .collect()
    }

    fn input_i64(n: usize) -> Vec<i64> {
        (0..n).map(|i| (i % 23) as i64 - 11).collect()
    }

    #[test]
    fn lookback_matches_reference_exactly_on_ints() {
        let n = 5000;
        for k in [1usize, 2, 3] {
            let sig = VaryingSignature::new(k, coeffs_i64(n, k)).unwrap();
            let input = input_i64(n);
            let expect = reference(&sig, &input).unwrap();
            for threads in [1usize, 4] {
                let runner = VaryingRunner::with_config(
                    sig.clone(),
                    RunnerConfig {
                        chunk_size: 256,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    runner.run(&input).unwrap(),
                    expect,
                    "k={k} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn float_runs_stay_close_to_reference() {
        let n = 10_000;
        let k = 2;
        let sig = VaryingSignature::new(k, gates_f64(n, k)).unwrap();
        let input: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) * 0.25 - 1.5).collect();
        let expect = reference(&sig, &input).unwrap();
        let runner = VaryingRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 512,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let got = runner.run(&input).unwrap();
        for (i, (&g, &e)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (g - e).abs() <= 1e-9 * e.abs().max(1.0),
                "i={i}: {g} vs {e}"
            );
        }
    }

    #[test]
    fn stats_report_the_varying_shape() {
        let n = 4096;
        let sig = VaryingSignature::first_order(coeffs_i64(n, 1)).unwrap();
        let input = input_i64(n);
        let runner = VaryingRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 256,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut data = input.clone();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(stats.plan_kind, PlanKind::MatrixCarry);
        assert_eq!(stats.plan_cache_hits, 0);
        assert_eq!(stats.plan_cache_misses, 0);
        assert_eq!(stats.chunks, 16);
        assert!(stats.fused_chunks >= 1, "chunk 0 always fuses");
    }

    #[test]
    fn wrong_length_is_rejected() {
        let sig = VaryingSignature::first_order(vec![1i64; 64]).unwrap();
        let runner = VaryingRunner::new(sig).unwrap();
        match runner.run(&[0i64; 63]) {
            Err(EngineError::LengthMismatch { expected, got }) => {
                assert_eq!((expected, got), (64, 63));
            }
            other => panic!("expected LengthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_signature_runs_empty_input() {
        let sig = VaryingSignature::new(1, Vec::<i64>::new()).unwrap();
        let runner = VaryingRunner::new(sig).unwrap();
        assert_eq!(runner.run(&[]).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn run_rows_applies_the_signature_per_row() {
        let width = 300;
        let rows = 5;
        let k = 2;
        let sig = VaryingSignature::new(k, coeffs_i64(width, k)).unwrap();
        let runner = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 64,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let mut data: Vec<i64> = (0..width * rows).map(|i| (i % 31) as i64 - 15).collect();
        let expect: Vec<i64> = data
            .chunks(width)
            .flat_map(|row| reference(&sig, row).unwrap())
            .collect();
        let stats = runner.run_rows(&mut data, width).unwrap();
        assert_eq!(data, expect);
        assert_eq!(stats.rows, rows as u64);
        assert_eq!(stats.plan_kind, PlanKind::MatrixCarry);
    }

    #[test]
    fn run_rows_rejects_foreign_widths() {
        let sig = VaryingSignature::first_order(vec![1i64; 100]).unwrap();
        let runner = VaryingRunner::new(sig).unwrap();
        let mut data = vec![0i64; 200];
        assert!(matches!(
            runner.run_rows(&mut data, 50),
            Err(EngineError::LengthMismatch { .. })
        ));
        assert!(matches!(
            runner.run_rows(&mut data, 0),
            Err(EngineError::UnsupportedSignature { .. })
        ));
    }

    #[test]
    fn stream_solves_varying_rows() {
        let width = 257;
        let sig = VaryingSignature::first_order(coeffs_i64(width, 1)).unwrap();
        let runner = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 64,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let rows: Vec<Vec<i64>> = (0..6)
            .map(|r| (0..width).map(|i| ((i + r * 7) % 19) as i64 - 9).collect())
            .collect();
        let stream = runner.stream();
        let handles: Vec<_> = rows
            .iter()
            .map(|row| stream.push_row(row.clone()))
            .collect();
        for (row, handle) in rows.iter().zip(handles) {
            let (got, outcome) = handle.join();
            outcome.unwrap();
            assert_eq!(got, reference(&sig, row).unwrap());
        }
        let stats = stream.finish().unwrap();
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.plan_kind, PlanKind::MatrixCarry);
        assert_eq!(stats.plan_cache_hits, 0);
        assert_eq!(stats.plan_cache_misses, 0);
    }

    #[test]
    fn stream_rejects_wrong_length_rows_at_push() {
        let sig = VaryingSignature::first_order(coeffs_i64(64, 1)).unwrap();
        let runner = VaryingRunner::new(sig.clone()).unwrap();
        let stream = runner.stream();
        let short = stream.push_row(vec![1i64; 63]);
        assert!(short.is_finished(), "a wrong-length row resolves at push");
        assert_eq!(short.index(), usize::MAX);
        let (data, outcome) = short.join();
        assert_eq!(data, vec![1i64; 63], "the buffer comes back untouched");
        match outcome {
            Err(EngineError::LengthMismatch { expected, got }) => {
                assert_eq!((expected, got), (64, 63));
            }
            other => panic!("expected LengthMismatch, got {other:?}"),
        }
        // The stream is unaffected: a row of the bound length solves.
        let row = input_i64(64);
        let (got, outcome) = stream.push_row(row.clone()).join();
        outcome.unwrap();
        assert_eq!(got, reference(&sig, &row).unwrap());
        assert_eq!(stream.finish().unwrap().rows, 1);
    }

    #[test]
    fn pre_cancelled_token_rejects_the_run() {
        let n = 10_000;
        let sig = VaryingSignature::first_order(coeffs_i64(n, 1)).unwrap();
        let runner = VaryingRunner::new(sig.clone()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let input = input_i64(n);
        match runner.run_with_cancel(&input, &token) {
            Err(EngineError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let out = runner.run_with_cancel(&input, &CancelToken::new()).unwrap();
        assert_eq!(out, reference(&sig, &input).unwrap());
    }

    #[test]
    fn expired_deadline_rejects_the_run() {
        let n = 10_000;
        let sig = VaryingSignature::first_order(coeffs_i64(n, 1)).unwrap();
        let input = input_i64(n);
        let runner = VaryingRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 512,
                threads: 4,
                deadline: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
        )
        .unwrap();
        match runner.run(&input) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn check_finite_flags_divergent_varying_floats() {
        // Gain 2 everywhere: f32 state overflows to +inf within the first
        // few chunks; the run must surface NonFiniteCarry.
        let n = 8192;
        let sig = VaryingSignature::first_order(vec![2.0f32; n]).unwrap();
        let input = vec![1.0f32; n];
        let strict = VaryingRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 256,
                threads: 4,
                check_finite: true,
                ..Default::default()
            },
        )
        .unwrap();
        match strict.run(&input) {
            Err(EngineError::NonFiniteCarry { chunk }) => assert!(chunk < n / 256),
            other => panic!("expected NonFiniteCarry, got {other:?}"),
        }
    }
}
