//! The multithreaded runners: chunked decoupled look-back on real threads.
//!
//! This is the paper's algorithm mapped onto the parallelism we actually
//! have in this reproduction environment — CPU threads. Every runner is a
//! [`Runner`] shell around one precomputed plan: it owns the
//! configuration and a persistent [`WorkerPool`] (spawned lazily on the
//! first run, reused by every later one), validates inputs, and hands
//! each run to the crate's one look-back pipeline. What differs between
//! recurrence families is only the plan's *carry algebra* — how a chunk
//! is solved, how carries compose across chunks, and how a chunk is
//! corrected:
//!
//! * [`ParallelRunner`] — constant coefficients ([`ConstantPlan`]): `k`
//!   carries stitched by the n-nacci correction factors;
//! * [`VaryingRunner`](crate::VaryingRunner) — time-varying coefficients:
//!   affine matrix carries, with opportunistic fusion;
//! * [`SegmentedRunner`](crate::SegmentedRunner) — segmented inputs:
//!   reset-aware look-back and a sparse fast path.

use crate::batch::run_task_rows;
use crate::pipeline::{self, timed, CarryAlgebra, RowAlgebra, Step};
use crate::pool::{resolve_threads, CancelToken, RunControl, WorkerPool};
use crate::stats::RunStats;
use crate::stream::RowStream;
use plr_core::blocked::fir_in_place;
use plr_core::element::Element;
use plr_core::engine::MAX_INPUT_LEN;
use plr_core::error::EngineError;
use plr_core::nacci::carries_of;
use plr_core::plan::{self, CorrectionPlan, PlanMode, PlanRequest};
use plr_core::signature::Signature;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Configuration for every [`Runner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Elements per chunk (one chunk is one unit of work). Must be at
    /// least the recurrence order.
    pub chunk_size: usize,
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Opt-in finiteness validation for float runs: after each chunk's
    /// local solve and correction, scan its `k` carries for NaN/Inf and
    /// abort the run with [`EngineError::NonFiniteCarry`] instead of
    /// silently propagating garbage through the look-back chain. Only
    /// the carries are scanned (`O(k)` per chunk, off the element-wise
    /// hot path); a no-op for integer elements. Default `false`.
    pub check_finite: bool,
    /// Wall-clock budget per `run` call, enforced by the worker pool's
    /// watchdog thread: a run that outlives it — even one wedged in a
    /// spin-wait or starved by the OS — is aborted cooperatively and
    /// returns [`EngineError::DeadlineExceeded`] instead of hanging. One
    /// budget covers the whole call (every chunk of the pipeline).
    /// Default `None` (unbounded).
    pub deadline: Option<Duration>,
    /// Correction-plan mode: [`PlanMode::Auto`] (default) picks the
    /// cheapest sound strategy per factor list through the shared plan
    /// cache; [`PlanMode::Dense`] forces the unspecialized full-table
    /// path (the differential-testing and benchmarking baseline).
    pub plan: PlanMode,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            chunk_size: 1 << 16,
            threads: 0,
            check_finite: false,
            deadline: None,
            plan: PlanMode::default(),
        }
    }
}

/// A multithreaded executor for one precomputed plan, with worker
/// threads spawned once and reused across runs. Use it through its
/// per-family names: [`ParallelRunner`],
/// [`VaryingRunner`](crate::VaryingRunner) and
/// [`SegmentedRunner`](crate::SegmentedRunner).
#[derive(Debug)]
pub struct Runner<A> {
    /// The precomputed plan (shared with rows dispatched through the
    /// batch and stream layers).
    plan: Arc<A>,
    config: RunnerConfig,
    /// The persistent pool, created on first use (or inherited from a
    /// [`crate::BatchRunner`] so both share one set of threads).
    pool: OnceLock<Arc<WorkerPool>>,
}

/// A multithreaded executor for one constant-coefficient signature
/// (factors precomputed once, worker threads spawned once and reused
/// across runs).
///
/// # Examples
///
/// ```
/// use plr_parallel::ParallelRunner;
/// use plr_core::signature::Signature;
///
/// let sig: Signature<i64> = "1 : 2, -1".parse()?;
/// let runner = ParallelRunner::new(sig)?;
/// let y = runner.run(&[1, 1, 1, 1])?;
/// assert_eq!(y, vec![1, 3, 6, 10]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type ParallelRunner<T> = Runner<ConstantPlan<T>>;

/// The plan a [`ParallelRunner`] executes: the signature's cached
/// correction plan (factor table, decay-truncated when sound, per-list
/// strategies, FIR and local-solve kernels) and whether the shared plan
/// cache served it.
#[derive(Debug)]
pub struct ConstantPlan<T> {
    correction: Arc<CorrectionPlan<T>>,
    cache_hit: bool,
}

impl<A: CarryAlgebra> Runner<A> {
    pub(crate) fn from_plan_and_config(plan: A, config: RunnerConfig) -> Self {
        Runner {
            plan: Arc::new(plan),
            config,
            pool: OnceLock::new(),
        }
    }

    /// The plan, as shared with the batch and stream layers.
    pub(crate) fn shared_plan(&self) -> &Arc<A> {
        &self.plan
    }

    /// The configured worker count (resolving `0` to the CPU count).
    pub fn threads(&self) -> usize {
        resolve_threads(self.config.threads)
    }

    /// The runner's configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// The persistent pool, spawning it on first use.
    fn pool(&self) -> &Arc<WorkerPool> {
        self.pool
            .get_or_init(|| Arc::new(WorkerPool::new(self.threads())))
    }

    /// A run's control: the caller's cancel link plus the configured
    /// deadline, resolved once so the whole call spends a single budget.
    fn control(&self, cancel: Option<&CancelToken>) -> RunControl {
        let mut ctl = RunControl::new();
        if let Some(token) = cancel {
            ctl = ctl.with_cancel(token);
        }
        if let Some(budget) = self.config.deadline {
            ctl = ctl.with_deadline(budget);
        }
        ctl
    }

    /// Computes the recurrence over `input`, allocating the output.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::LengthMismatch`] when the plan binds an
    /// input length and `input` does not have it,
    /// [`EngineError::InputTooLarge`] beyond 2^30 elements,
    /// [`EngineError::WorkerPanicked`] when a worker (or the calling
    /// thread) panicked mid-run, [`EngineError::NonFiniteCarry`] when
    /// [`RunnerConfig::check_finite`] is on and a chunk produced a NaN or
    /// infinite carry, and [`EngineError::DeadlineExceeded`] when
    /// [`RunnerConfig::deadline`] is set and the run outlived it. On
    /// error the pool survives and the runner stays usable.
    pub fn run(&self, input: &[A::Elem]) -> Result<Vec<A::Elem>, EngineError> {
        let mut data = input.to_vec();
        self.run_in_place(&mut data)?;
        Ok(data)
    }

    /// Like [`Runner::run`], but observing a caller-held [`CancelToken`]:
    /// cancelling any clone of `cancel` — before the call or while it is
    /// executing — aborts the run cooperatively (the same bail-out paths
    /// a worker panic uses; even carry spin-waits notice within one poll
    /// interval) and the call returns [`EngineError::Cancelled`]. The
    /// runner and its pool stay fully usable afterwards.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] on cancellation, plus everything
    /// [`Runner::run`] can return.
    pub fn run_with_cancel(
        &self,
        input: &[A::Elem],
        cancel: &CancelToken,
    ) -> Result<Vec<A::Elem>, EngineError> {
        let mut data = input.to_vec();
        self.run_in_place_with_cancel(&mut data, cancel)?;
        Ok(data)
    }

    /// Computes the recurrence in place, returning runtime statistics.
    ///
    /// # Errors
    ///
    /// See [`Runner::run`]; on error `data` is left partially processed.
    pub fn run_in_place(&self, data: &mut [A::Elem]) -> Result<RunStats, EngineError> {
        self.execute(data, None)
    }

    /// In-place variant of [`Runner::run_with_cancel`].
    ///
    /// # Errors
    ///
    /// See [`Runner::run_with_cancel`]; on error `data` is left
    /// partially processed.
    pub fn run_in_place_with_cancel(
        &self,
        data: &mut [A::Elem],
        cancel: &CancelToken,
    ) -> Result<RunStats, EngineError> {
        self.execute(data, Some(cancel))
    }

    /// Shared entry point: validates the input, builds the run's
    /// [`RunControl`], and runs the look-back pipeline.
    pub(crate) fn execute(
        &self,
        data: &mut [A::Elem],
        cancel: Option<&CancelToken>,
    ) -> Result<RunStats, EngineError> {
        if let Some(expected) = self.plan.bound_len() {
            if data.len() != expected {
                return Err(EngineError::LengthMismatch {
                    expected,
                    got: data.len(),
                });
            }
        }
        if data.len() > MAX_INPUT_LEN {
            return Err(EngineError::InputTooLarge {
                len: data.len(),
                max: MAX_INPUT_LEN,
            });
        }
        if data.is_empty() {
            // Report the worker count the run would have used; every other
            // path resolves it the same way.
            return Ok(RunStats {
                threads: self.threads() as u64,
                ..self.plan.base_stats()
            });
        }
        let ctl = self.control(cancel);
        pipeline::run(
            &*self.plan,
            data,
            self.pool(),
            &ctl,
            self.config.check_finite,
        )
    }
}

impl<A: RowAlgebra> Runner<A> {
    /// Applies the recurrence to each row of a row-major matrix in place:
    /// every row is an independent input under the same plan (so `width`
    /// must equal the plan's bound length). Rows are distributed whole
    /// across the pool through the same [`RowTask`](crate::RowTask)
    /// dispatch the constant batch runner and the streaming layer use.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedSignature`] when `width == 0` or
    /// does not divide the data length, [`EngineError::LengthMismatch`]
    /// when `width` is not the plan's bound length, and
    /// [`EngineError::WorkerPanicked`] when a worker panicked mid-run —
    /// the pool survives and the runner stays usable, but `data` is left
    /// partially processed.
    pub fn run_rows(&self, data: &mut [A::Elem], width: usize) -> Result<RunStats, EngineError> {
        self.run_rows_ctl(data, width, None)
    }

    /// Like [`Runner::run_rows`], but observing a caller-held
    /// [`CancelToken`] (cancelling aborts mid-row; completed rows keep
    /// their results).
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] on cancellation, plus everything
    /// [`Runner::run_rows`] can return.
    pub fn run_rows_with_cancel(
        &self,
        data: &mut [A::Elem],
        width: usize,
        cancel: &CancelToken,
    ) -> Result<RunStats, EngineError> {
        self.run_rows_ctl(data, width, Some(cancel))
    }

    fn run_rows_ctl(
        &self,
        data: &mut [A::Elem],
        width: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<RunStats, EngineError> {
        if width == 0 || !data.len().is_multiple_of(width) {
            return Err(EngineError::UnsupportedSignature {
                reason: format!(
                    "row width {width} does not divide the data length {}",
                    data.len()
                ),
            });
        }
        let expected = self.plan.bound_len().unwrap_or(width);
        if width != expected {
            return Err(EngineError::LengthMismatch {
                expected,
                got: width,
            });
        }
        let task = A::row_task(&self.plan);
        let stats = run_task_rows(self.pool(), &task, data, width, &self.control(cancel))?;
        Ok(RunStats {
            chunks: stats.rows * width.div_ceil(self.plan.chunk_size()) as u64,
            correction_taps: self.plan.base_stats().correction_taps,
            ..stats
        })
    }

    /// Opens a streaming submission channel for independent rows under
    /// this plan — the exact machinery of
    /// [`BatchRunner::stream`](crate::BatchRunner::stream) (backpressure
    /// window, per-row handles, cancel/deadline semantics), dispatching
    /// each row through the plan's [`RowTask`](crate::RowTask). Every
    /// pushed row must have the plan's bound length; a row of any other
    /// length gets a handle already resolved to
    /// [`EngineError::LengthMismatch`].
    pub fn stream(&self) -> RowStream<A::Elem> {
        self.stream_with_window(2 * self.threads().max(1))
    }

    /// Like [`Runner::stream`] with an explicit in-flight window (clamped
    /// to at least 1).
    pub fn stream_with_window(&self, window: usize) -> RowStream<A::Elem> {
        RowStream::launch(
            Arc::clone(self.pool()),
            A::row_task(&self.plan),
            window.max(1),
        )
    }
}

impl<T: Element> ParallelRunner<T> {
    /// Creates a runner with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`ParallelRunner::with_config`].
    pub fn new(signature: Signature<T>) -> Result<Self, EngineError> {
        Self::with_config(signature, RunnerConfig::default())
    }

    /// Creates a runner with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidChunkSize`] when the chunk size is
    /// zero or smaller than the recurrence order (a chunk must hold all
    /// `k` published carries).
    pub fn with_config(signature: Signature<T>, config: RunnerConfig) -> Result<Self, EngineError> {
        if config.chunk_size == 0 || config.chunk_size < signature.order() {
            return Err(EngineError::InvalidChunkSize {
                chunk_size: config.chunk_size,
            });
        }
        let req = PlanRequest {
            mode: config.plan,
            ..PlanRequest::new::<T>(config.chunk_size)
        };
        let (correction, cache_hit) = plan::plan_for(&signature, req);
        let plan = ConstantPlan {
            correction,
            cache_hit,
        };
        Ok(Self::from_plan_and_config(plan, config))
    }

    /// Like [`ParallelRunner::with_config`], but executing on an existing
    /// pool instead of lazily spawning a private one.
    pub(crate) fn with_config_and_pool(
        signature: Signature<T>,
        config: RunnerConfig,
        pool: Arc<WorkerPool>,
    ) -> Result<Self, EngineError> {
        let runner = Self::with_config(signature, config)?;
        let _ = runner.pool.set(pool);
        Ok(runner)
    }

    /// The correction plan this runner executes (strategy selection,
    /// truncation depth, kernels) — shared through the global plan cache.
    pub fn plan(&self) -> &CorrectionPlan<T> {
        &self.plan.correction
    }
}

impl<T: Element> ConstantPlan<T> {
    fn order(&self) -> usize {
        self.correction.signature().order()
    }
}

/// The constant-coefficient algebra: `k` carries, composed and applied
/// through the correction plan's n-nacci factors.
impl<T: Element> CarryAlgebra for ConstantPlan<T> {
    type Elem = T;

    fn chunk_size(&self) -> usize {
        self.correction.chunk_size()
    }

    /// The stash is what lets the map stage run in place: by the time a
    /// worker reads across its left boundary, the owner of that data may
    /// already have overwritten it with mapped values. Chunks after the
    /// first stash the `p - 1` inputs before their start (fewer near the
    /// front of the data).
    fn stash(&self, data: &[T]) -> Vec<Vec<T>> {
        let p = self.correction.fir().len();
        if self.correction.signature().is_pure_feedback() || p <= 1 {
            return Vec::new();
        }
        let m = self.chunk_size();
        (1..data.len().div_ceil(m))
            .map(|c| data[(c * m).saturating_sub(p - 1)..c * m].to_vec())
            .collect()
    }

    fn map_chunk(&self, chunk: &mut [T], c: usize, stash: &[Vec<T>], fir_nanos: &mut u64) {
        if self.correction.signature().is_pure_feedback() {
            return;
        }
        // The stash is empty when `p <= 1`: a one-tap FIR never reads
        // across a chunk boundary.
        let prev: &[T] = if c == 0 || stash.is_empty() {
            &[]
        } else {
            &stash[c - 1]
        };
        let start = c * self.chunk_size();
        timed(fir_nanos, || {
            fir_in_place(self.correction.fir(), prev, start, chunk)
        });
    }

    fn solve(
        &self,
        c: usize,
        chunk: &mut [T],
        _prev: Option<&[T]>,
        tally: &mut RunStats,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> Option<Step<T>> {
        let solved = self
            .correction
            .solve()
            .solve_in_place_sliced(chunk, keep_going);
        tally.solve_slices += solved.slices;
        solved
            .completed
            .then(|| Step::zero_history(c, carries_of(chunk, self.order())))
    }

    fn fixup(&self, _c: usize, len: usize, prev: &[T], local: &[T]) -> Vec<T> {
        self.correction.fixup_carries(prev, local, len)
    }

    fn correct(&self, _c: usize, chunk: &mut [T], g: &[T]) {
        self.correction.correct_chunk(chunk, g);
    }

    fn resets_carries(&self, len: usize) -> bool {
        self.correction.resets_carries(len)
    }

    fn base_stats(&self) -> RunStats {
        RunStats {
            plan_cache_hits: self.cache_hit as u64,
            plan_cache_misses: !self.cache_hit as u64,
            plan_kind: self.correction.kind(),
            correction_taps: self.correction.correction_taps() as u64,
            kernel: self.correction.solve().kind(),
            ..RunStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plr_core::serial;
    use plr_core::validate::validate;

    fn check<T: Element>(sig_text: &str, n: usize, config: RunnerConfig, tol: f64)
    where
        Signature<T>: std::str::FromStr,
        <Signature<T> as std::str::FromStr>::Err: std::fmt::Debug,
    {
        let sig: Signature<T> = sig_text.parse().unwrap();
        let input: Vec<T> = (0..n)
            .map(|i| T::from_i32(((i * 29) % 19) as i32 - 9))
            .collect();
        let runner = ParallelRunner::with_config(sig.clone(), config).unwrap();
        let got = runner.run(&input).unwrap();
        let expect = serial::run(&sig, &input);
        validate(&expect, &got, tol).unwrap_or_else(|e| panic!("{sig_text} {config:?}: {e}"));
    }

    #[test]
    fn integer_catalog_exact_across_thread_counts() {
        for threads in [1, 2, 4, 8] {
            for text in ["1:1", "1:0,1", "1:0,0,1", "1:2,-1", "1:3,-3,1"] {
                check::<i64>(
                    text,
                    100_000,
                    RunnerConfig {
                        chunk_size: 1 << 10,
                        threads,
                        ..Default::default()
                    },
                    0.0,
                );
            }
        }
    }

    #[test]
    fn float_filters_within_tolerance() {
        for text in ["0.2:0.8", "0.04:1.6,-0.64", "0.9,-0.9:0.8"] {
            check::<f32>(
                text,
                50_000,
                RunnerConfig {
                    chunk_size: 4096,
                    threads: 4,
                    ..Default::default()
                },
                1e-3,
            );
        }
    }

    /// Regression test for `WorkerPool::new` graceful degradation: if
    /// *every* worker spawn fails (simulated by `new_degraded`), runs must
    /// still complete correctly on the caller-as-worker-0 serial path and
    /// report the effective width of 1 — and once spawning works again,
    /// the next submission's heal pass must restore the full pool.
    #[test]
    fn zero_spawned_workers_degrades_to_correct_serial_run() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let input: Vec<i64> = (0..50_000).map(|i| (i % 17) as i64 - 8).collect();
        let expect = serial::run(&sig, &input);

        let pool = Arc::new(WorkerPool::new_degraded(4));
        assert_eq!(pool.width(), 1, "no spawned workers must survive");
        let runner = ParallelRunner::with_config_and_pool(
            sig,
            RunnerConfig {
                chunk_size: 1 << 10,
                threads: 4,
                ..Default::default()
            },
            Arc::clone(&pool),
        )
        .unwrap();

        let mut data = input.clone();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(data, expect, "serial fallback must still be correct");
        assert_eq!(stats.threads, 1, "effective width is the caller alone");
        assert_eq!(pool.width(), 1, "inhibited heal must not respawn");

        // Spawning works again: the next submission heals back to full
        // width and the run is still correct.
        pool.allow_respawn();
        let mut data = input.clone();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(data, expect);
        assert_eq!(stats.threads, 4, "heal must restore the full pool");
        assert!(pool.recovered_workers() >= 3);
    }

    #[test]
    fn check_finite_flags_divergent_float_runs() {
        // y_i = 2·y_{i-1} + x_i diverges; f32 overflows to +inf inside the
        // first chunk, so the run must report a non-finite carry.
        let sig: Signature<f32> = "1:2".parse().unwrap();
        let input = vec![1.0f32; 4096];
        let num_chunks = input.len() / 256;
        let config = RunnerConfig {
            chunk_size: 256,
            threads: 4,
            ..Default::default()
        };
        let strict = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                check_finite: true,
                ..config
            },
        )
        .unwrap();
        match strict.run(&input) {
            Err(EngineError::NonFiniteCarry { chunk }) => assert!(chunk < num_chunks),
            other => panic!("expected NonFiniteCarry, got {other:?}"),
        }
        // The check is opt-in: by default the same run completes and
        // silently propagates the non-finite values.
        let lax = ParallelRunner::with_config(sig, config).unwrap();
        let out = lax.run(&input).unwrap();
        assert!(!out.last().unwrap().is_finite());
    }

    #[test]
    fn check_finite_passes_stable_runs_untouched() {
        // Stable float filter and (vacuously) an integer signature: the
        // scan must not reject finite runs or cost integer paths anything.
        let finite_cfg = RunnerConfig {
            chunk_size: 1024,
            threads: 4,
            check_finite: true,
            ..Default::default()
        };
        check::<f32>("0.2:0.8", 10_000, finite_cfg, 1e-3);
        check::<i64>("1:2,-1", 10_000, finite_cfg, 0.0);
    }

    #[test]
    fn ragged_and_tiny_inputs() {
        check::<i64>(
            "1:2,-1",
            1,
            RunnerConfig {
                chunk_size: 64,
                threads: 4,
                ..Default::default()
            },
            0.0,
        );
        check::<i64>(
            "1:2,-1",
            63,
            RunnerConfig {
                chunk_size: 64,
                threads: 4,
                ..Default::default()
            },
            0.0,
        );
        check::<i64>(
            "1:2,-1",
            65,
            RunnerConfig {
                chunk_size: 64,
                threads: 4,
                ..Default::default()
            },
            0.0,
        );
        check::<i64>(
            "1:2,-1",
            6400 + 17,
            RunnerConfig {
                chunk_size: 64,
                threads: 4,
                ..Default::default()
            },
            0.0,
        );
    }

    #[test]
    fn empty_input() {
        let sig: Signature<i32> = "1:1".parse().unwrap();
        let runner = ParallelRunner::new(sig).unwrap();
        assert_eq!(runner.run(&[]).unwrap(), Vec::<i32>::new());
    }

    #[test]
    fn empty_input_reports_resolved_workers() {
        let sig: Signature<i32> = "1:1".parse().unwrap();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 64,
                threads: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let stats = runner.run_in_place(&mut []).unwrap();
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.chunks, 0);

        let sig: Signature<i32> = "1:1".parse().unwrap();
        let auto = ParallelRunner::new(sig).unwrap();
        let stats = auto.run_in_place(&mut []).unwrap();
        assert_eq!(stats.threads, auto.threads() as u64);
        assert!(stats.threads >= 1);
    }

    #[test]
    fn deterministic_for_integers() {
        let sig: Signature<i64> = "1:3,-3,1".parse().unwrap();
        let input: Vec<i64> = (0..200_000).map(|i| (i % 23) as i64 - 11).collect();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 2048,
                threads: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let a = runner.run(&input).unwrap();
        for _ in 0..5 {
            assert_eq!(runner.run(&input).unwrap(), a);
        }
    }

    #[test]
    fn stats_reflect_the_lookback() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 1024,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let mut data: Vec<i64> = (0..100_000).map(|i| i as i64 % 7).collect();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(stats.chunks, 100_000u64.div_ceil(1024));
        assert!(stats.lookback_hops >= stats.chunks - 1);
        assert_eq!(stats.threads, 4);
    }

    #[test]
    fn phase_timings_are_populated() {
        let sig: Signature<f64> = "0.81,-1.62,0.81:1.6,-0.64".parse().unwrap();
        let mut input: Vec<f64> = (0..200_000)
            .map(|i| ((i % 13) as f64) * 0.1 - 0.6)
            .collect();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 4096,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let stats = runner.run_in_place(&mut input).unwrap();
        assert!(stats.solve_nanos > 0, "local solve must be timed");
        assert!(stats.fir_nanos > 0, "FIR stage must be timed");
        assert!(stats.correct_nanos > 0, "correction must be timed");
        assert!(
            stats.busy_nanos() >= stats.solve_nanos,
            "total covers the parts"
        );
    }

    #[test]
    fn pure_feedback_skips_the_fir_phase() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 1024,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut data: Vec<i64> = (0..50_000).map(|i| (i % 5) as i64).collect();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert!(stats.solve_nanos > 0);
    }

    #[test]
    fn repeated_runs_on_one_runner_stay_correct() {
        // The pool is reused across calls; results must stay identical and
        // correct for differently sized inputs on the same runner.
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 512,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        for n in [0usize, 1, 511, 512, 513, 10_000, 70_001] {
            let input: Vec<i64> = (0..n).map(|i| (i % 11) as i64 - 5).collect();
            assert_eq!(
                runner.run(&input).unwrap(),
                serial::run(&sig, &input),
                "n={n}"
            );
        }
    }

    #[test]
    fn config_validation() {
        let sig: Signature<i32> = "1:3,-3,1".parse().unwrap();
        assert!(matches!(
            ParallelRunner::with_config(
                sig.clone(),
                RunnerConfig {
                    chunk_size: 2,
                    threads: 1,
                    ..Default::default()
                }
            ),
            Err(EngineError::InvalidChunkSize { .. })
        ));
        assert!(ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 3,
                threads: 1,
                ..Default::default()
            }
        )
        .is_ok());
    }

    #[test]
    fn fir_signatures_run_the_map_stage() {
        check::<f64>(
            "0.81,-1.62,0.81:1.6,-0.64",
            30_000,
            RunnerConfig {
                chunk_size: 1024,
                threads: 4,
                ..Default::default()
            },
            1e-6,
        );
    }

    #[test]
    fn fir_wider_than_chunk_reaches_across_several_chunks() {
        // p - 1 > m: the boundary stash must reach past the immediately
        // preceding chunk into earlier ones.
        let sig: Signature<i64> = "1,1,1,1,1,1,1:1".parse().unwrap();
        let input: Vec<i64> = (0..1000).map(|i| (i % 9) as i64 - 4).collect();
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 4,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(runner.run(&input).unwrap(), serial::run(&sig, &input));
    }

    #[test]
    fn fir_in_place_matches_fir_map() {
        let fir = [3i64, -2, 5, 7];
        let input: Vec<i64> = (0..100).map(|i| (i % 7) as i64 - 3).collect();
        let expect = serial::fir_map(&fir, &input);
        for m in [1usize, 3, 8, 33, 100, 200] {
            let mut data = input.clone();
            let num_chunks = data.len().div_ceil(m);
            let boundaries: Vec<Vec<i64>> = (1..num_chunks)
                .map(|c| data[(c * m).saturating_sub(fir.len() - 1)..c * m].to_vec())
                .collect();
            for c in (0..num_chunks).rev() {
                // Process in arbitrary (here reverse) order: the stash must
                // make order irrelevant.
                let start = c * m;
                let end = (start + m).min(input.len());
                let prev: &[i64] = if c == 0 { &[] } else { &boundaries[c - 1] };
                fir_in_place(&fir, prev, start, &mut data[start..end]);
            }
            assert_eq!(data, expect, "chunk size {m}");
        }
    }

    #[test]
    fn single_thread_equals_multi_thread_for_ints() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let input: Vec<i64> = (0..50_000).map(|i| (i % 31) as i64 - 15).collect();
        let one = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 4096,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap()
        .run(&input)
        .unwrap();
        let many = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 4096,
                threads: 8,
                ..Default::default()
            },
        )
        .unwrap()
        .run(&input)
        .unwrap();
        assert_eq!(one, many);
    }

    #[test]
    fn pre_cancelled_token_rejects_the_run() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let runner = ParallelRunner::new(sig).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let input: Vec<i64> = (0..10_000).map(|i| (i % 7) as i64).collect();
        match runner.run_with_cancel(&input, &token) {
            Err(EngineError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The runner (and its pool) are unaffected; a fresh token works.
        let out = runner.run_with_cancel(&input, &CancelToken::new()).unwrap();
        assert_eq!(out, serial::run(&"1:2,-1".parse().unwrap(), &input));
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let sig: Signature<i64> = "1:3,-3,1".parse().unwrap();
        let input: Vec<i64> = (0..50_000).map(|i| (i % 13) as i64 - 6).collect();
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 1024,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let token = CancelToken::new();
        let got = runner.run_with_cancel(&input, &token).unwrap();
        assert_eq!(got, serial::run(&sig, &input));
    }

    #[test]
    fn expired_deadline_rejects_the_run() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let input: Vec<i64> = (0..10_000).map(|i| (i % 5) as i64).collect();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 512,
                threads: 4,
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        )
        .unwrap();
        match runner.run(&input) {
            Err(EngineError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::ZERO)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_perturb_results() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let input: Vec<i64> = (0..60_000).map(|i| (i % 9) as i64 - 4).collect();
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 1024,
                threads: 4,
                deadline: Some(Duration::from_secs(120)),
                ..Default::default()
            },
        )
        .unwrap();
        for _ in 0..3 {
            assert_eq!(runner.run(&input).unwrap(), serial::run(&sig, &input));
        }
    }
}
