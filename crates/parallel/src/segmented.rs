//! The multithreaded segmented runner: chunked decoupled look-back over
//! inputs with in-input restart boundaries.
//!
//! A segment reset is a zero carry, and that makes segmented inputs *more*
//! parallel than plain ones, not less: the boundary map classifies every
//! chunk up front, reset chunks publish their global carries straight off
//! their local solve (their tail past the last in-chunk boundary never
//! needed correcting), and look-back from any later chunk terminates at
//! the nearest reset chunk instead of walking to chunk 0. Interior chunks
//! run the ordinary pipeline, with the one twist that a correction is
//! clipped at the first in-chunk boundary.
//!
//! The sparse fast path rides the same classification: a chunk whose
//! post-FIR input is entirely zero solves to zero bit-exactly, so its
//! local solve is skipped outright — the correction pass *is* its output,
//! and its global carries reduce to the factor-table fix-up (a
//! companion-power multiply) of zero locals. `RunStats` reports both
//! classifications (`reset_chunks`, `skipped_chunks`).
//!
//! Progress argument (extending [`ParallelRunner`]'s): tickets are claimed
//! in order, interior chunks publish locals before any waiting, reset
//! chunks publish globals before any waiting, and the look-back floor of
//! every walk is a chunk that publishes unconditionally (chunk 0 or the
//! statically-known nearest reset chunk) — so every spin wait is bounded
//! by the pipeline depth.
//!
//! [`ParallelRunner`]: crate::ParallelRunner

use crate::batch::RowTask;
use crate::pipeline::{timed, CarryAlgebra, RowAlgebra, Step};
use crate::runner::{Runner, RunnerConfig};
use crate::stats::RunStats;
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::nacci::carries_of;
use plr_core::segmented::{all_zero, SegmentedPlan, Segments};
use plr_core::signature::Signature;
use std::sync::Arc;

/// A multithreaded executor for one signature over segmented inputs of a
/// fixed length (boundary map and correction plan precomputed once,
/// worker threads spawned once and reused across runs).
///
/// # Examples
///
/// ```
/// use plr_parallel::SegmentedRunner;
/// use plr_core::segmented::Segments;
/// use plr_core::signature::Signature;
///
/// let sig: Signature<i64> = "1 : 1".parse()?;
/// let runner = SegmentedRunner::new(sig, Segments::uniform(4, 8), 8)?;
/// let y = runner.run(&[1, 1, 1, 1, 1, 1, 1, 1])?;
/// assert_eq!(y, vec![1, 2, 3, 4, 1, 2, 3, 4]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type SegmentedRunner<T> = Runner<SegmentedPlan<T>>;

impl<T: Element> SegmentedRunner<T> {
    /// Creates a runner with the default configuration for inputs of
    /// exactly `len` elements segmented by `segments`.
    ///
    /// # Errors
    ///
    /// See [`SegmentedRunner::with_config`].
    pub fn new(
        signature: Signature<T>,
        segments: Segments,
        len: usize,
    ) -> Result<Self, EngineError> {
        Self::with_config(signature, segments, len, RunnerConfig::default())
    }

    /// Creates a runner with an explicit configuration. The
    /// [`RunnerConfig::plan`] field is ignored — the boundary map is not
    /// part of the constant-signature plan cache's key, so segmented
    /// runners always build their correction plan directly and never
    /// consult (or populate) that cache.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidChunkSize`] when the chunk size is
    /// zero or smaller than the recurrence order, and
    /// [`EngineError::InputTooLarge`] past `2^30` elements.
    pub fn with_config(
        signature: Signature<T>,
        segments: Segments,
        len: usize,
        config: RunnerConfig,
    ) -> Result<Self, EngineError> {
        let plan = SegmentedPlan::build(&signature, segments, len, config.chunk_size)?;
        Ok(Self::from_plan(plan, config))
    }

    /// Wraps an already-built plan (e.g. one with the sparse fast path
    /// toggled via [`SegmentedPlan::with_sparse`]). The configuration's
    /// chunk size is overridden by the plan's — they must agree for the
    /// boundary map to describe the chunks the runner slices.
    pub fn from_plan(plan: SegmentedPlan<T>, mut config: RunnerConfig) -> Self {
        config.chunk_size = plan.chunk_size();
        Self::from_plan_and_config(plan, config)
    }

    /// The precomputed segmented plan (correction plan + boundary map),
    /// shared with rows dispatched through [`SegmentedRunner::run_rows`] /
    /// [`SegmentedRunner::stream`].
    pub fn plan(&self) -> &Arc<SegmentedPlan<T>> {
        self.shared_plan()
    }
}

/// The constant algebra plus a reset floor: a chunk holding a segment
/// start publishes the globals of its tail straight off its solve, and
/// only the prefix before its first boundary continues the incoming
/// carries.
impl<T: Element> CarryAlgebra for SegmentedPlan<T> {
    type Elem = T;

    fn chunk_size(&self) -> usize {
        SegmentedPlan::chunk_size(self)
    }

    fn bound_len(&self) -> Option<usize> {
        Some(self.len())
    }

    fn stash(&self, data: &[T]) -> Vec<Vec<T>> {
        self.stash_boundaries(data)
    }

    fn map_chunk(&self, chunk: &mut [T], c: usize, stash: &[Vec<T>], fir_nanos: &mut u64) {
        timed(fir_nanos, || self.fir_chunk(chunk, c, stash));
    }

    fn solve(
        &self,
        c: usize,
        chunk: &mut [T],
        _prev: Option<&[T]>,
        tally: &mut RunStats,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> Option<Step<T>> {
        // Sparse fast path: an all-zero post-FIR chunk solves to zero
        // bit-exactly, so skip the local solve outright; the correction
        // pass is its entire output, and its carries follow from the
        // factor-table fix-up of zero locals — identical code to the
        // dense path from here on.
        if self.sparse() && all_zero(chunk) {
            tally.skipped_chunks += 1;
        } else {
            let solved = self.solve_chunk(chunk, c, keep_going);
            tally.solve_slices += solved.slices;
            if !solved.completed {
                return None;
            }
        }
        let k = self.order();
        if !self.map().has_resets(c) {
            return Some(Step::zero_history(c, carries_of(chunk, k)));
        }
        // Reset chunk: its tail past the last in-chunk boundary already
        // has real (zero) history, so its globals are final now — publish
        // them before any correction so successors never wait on our
        // walk. Only the prefix before the first boundary continues the
        // incoming segment; chunk 0's prefix starts the data.
        tally.reset_chunks += 1;
        let tail = self.map().global_tail_start(c);
        let limit = match c {
            0 => 0,
            _ => self.map().correct_limit(c, chunk.len()),
        };
        Some(Step::Global(carries_of(&chunk[tail..], k), limit))
    }

    fn fixup(&self, _c: usize, len: usize, prev: &[T], local: &[T]) -> Vec<T> {
        self.correction().fixup_carries(prev, local, len)
    }

    fn correct(&self, _c: usize, chunk: &mut [T], g: &[T]) {
        self.correction().correct_chunk(chunk, g);
    }

    /// Carries never cross a segment boundary, and the nearest reset
    /// chunk publishes unconditionally — the role chunk 0 plays.
    fn floor(&self, j: usize) -> usize {
        self.map().nearest_reset_at_or_before(j).unwrap_or(0)
    }

    fn resets_carries(&self, len: usize) -> bool {
        self.correction().resets_carries(len)
    }

    /// Segmented runs never touch the constant-signature plan cache, so
    /// both cache counters stay 0.
    fn base_stats(&self) -> RunStats {
        RunStats {
            plan_kind: self.correction().kind(),
            kernel: self.correction().solve().kind(),
            correction_taps: self.correction().correction_taps() as u64,
            ..RunStats::default()
        }
    }
}

impl<T: Element> RowAlgebra for SegmentedPlan<T> {
    fn row_task(plan: &Arc<Self>) -> RowTask<T> {
        RowTask::segmented(Arc::clone(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plr_core::segmented::run_serial;

    fn sig2() -> Signature<i64> {
        "1:2,-1".parse().unwrap()
    }

    fn check_config(segments: &Segments, input: &[i64], config: RunnerConfig) {
        let runner =
            SegmentedRunner::with_config(sig2(), segments.clone(), input.len(), config).unwrap();
        let got = runner.run(input).unwrap();
        assert_eq!(got, run_serial(&sig2(), segments, input));
    }

    #[test]
    fn matches_serial_across_geometries() {
        let input: Vec<i64> = (0..4000).map(|i| (i % 11) - 5).collect();
        let config = RunnerConfig {
            chunk_size: 256,
            threads: 4,
            ..Default::default()
        };
        for segments in [
            Segments::uniform(97, input.len()),
            Segments::uniform(256, input.len()),
            Segments::from_starts(vec![0]).unwrap(),
            Segments::from_starts(vec![0, 1, 2, 3, 3999]).unwrap(),
        ] {
            check_config(&segments, &input, config);
        }
    }

    #[test]
    fn reset_and_skip_counters_report() {
        let n = 4096;
        let segments = Segments::uniform(1000, n);
        // Nonzero only in the first chunk: later chunks hit the sparse
        // skip; chunks containing the segment starts count as resets.
        let mut input = vec![0i64; n];
        for (i, v) in input.iter_mut().take(256).enumerate() {
            *v = (i % 7) as i64 - 3;
        }
        let runner = SegmentedRunner::with_config(
            sig2(),
            segments.clone(),
            n,
            RunnerConfig {
                chunk_size: 256,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut data = input.clone();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(data, run_serial(&sig2(), &segments, &input));
        assert_eq!(
            stats.reset_chunks, 4,
            "starts 1000/2000/3000/4000 each land mid-chunk"
        );
        assert!(stats.skipped_chunks > 0, "zero chunks must be skipped");
        assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, 0);
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let runner = SegmentedRunner::new(sig2(), Segments::uniform(4, 0), 0).unwrap();
        assert_eq!(runner.run(&[]).unwrap(), Vec::<i64>::new());
        let stats = runner.run_in_place(&mut []).unwrap();
        assert_eq!(stats.chunks, 0);
    }

    #[test]
    fn stream_rejects_wrong_length_rows_at_push() {
        let segments = Segments::uniform(4, 16);
        let runner = SegmentedRunner::new(sig2(), segments.clone(), 16).unwrap();
        let stream = runner.stream();
        let long = stream.push_row(vec![1i64; 17]);
        assert!(long.is_finished(), "a wrong-length row resolves at push");
        assert_eq!(long.index(), usize::MAX);
        let (data, outcome) = long.join();
        assert_eq!(data, vec![1i64; 17], "the buffer comes back untouched");
        assert!(matches!(
            outcome,
            Err(EngineError::LengthMismatch {
                expected: 16,
                got: 17
            })
        ));
        // The stream is unaffected: a row of the bound length solves.
        let row: Vec<i64> = (0..16).map(|i| i % 5 - 2).collect();
        let (got, outcome) = stream.push_row(row.clone()).join();
        outcome.unwrap();
        assert_eq!(got, run_serial(&sig2(), &segments, &row));
        assert_eq!(stream.finish().unwrap().rows, 1);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let runner = SegmentedRunner::new(sig2(), Segments::uniform(4, 16), 16).unwrap();
        assert!(matches!(
            runner.run(&[1, 2, 3]),
            Err(EngineError::LengthMismatch {
                expected: 16,
                got: 3
            })
        ));
    }
}
