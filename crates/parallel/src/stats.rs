//! Runtime statistics reported by the parallel runner and worker pool.

use plr_core::kernel::KernelKind;
use plr_core::plan::PlanKind;

/// Cumulative run-outcome counters for one [`WorkerPool`], reported by
/// [`WorkerPool::counters`]: how many runs it executed and how many of
/// them ended in each failure class. Monotonic over the pool's lifetime
/// (unlike [`RunStats`], which describes a single run).
///
/// [`WorkerPool`]: crate::WorkerPool
/// [`WorkerPool::counters`]: crate::WorkerPool::counters
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Total runs submitted to the pool (blocking and non-blocking),
    /// including runs that failed fast before starting any work.
    pub runs: u64,
    /// Runs that ended with a worker (or caller-as-worker-0) panic.
    pub panicked: u64,
    /// Runs aborted through a caller-held [`CancelToken`], including
    /// runs rejected because their token was already cancelled.
    ///
    /// [`CancelToken`]: crate::CancelToken
    pub cancelled: u64,
    /// Runs that outlived their deadline and were aborted by the pool's
    /// watchdog (or rejected because the deadline had already passed).
    pub deadline_exceeded: u64,
    /// Workers revived by lazy respawning over the pool's lifetime (same
    /// number as [`WorkerPool::recovered_workers`]).
    ///
    /// [`WorkerPool::recovered_workers`]: crate::WorkerPool::recovered_workers
    pub workers_recovered: u64,
}

/// Counters describing one parallel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Rows solved. One for a single-sequence run, the row count for a
    /// batched [`BatchRunner::run_rows`] call, and `1` in the per-row
    /// stats a streamed [`RowHandle`] reports (so aggregates produced by
    /// [`RunStats::absorb`] count rows correctly).
    ///
    /// [`BatchRunner::run_rows`]: crate::BatchRunner::run_rows
    /// [`RowHandle`]: crate::RowHandle
    pub rows: u64,
    /// Number of chunks processed.
    pub chunks: u64,
    /// Look-back hops performed (carry sets read while resolving
    /// predecessors' global carries; at minimum one per non-first chunk,
    /// more when workers ran ahead of the carry chain).
    pub lookback_hops: u64,
    /// Spin iterations spent waiting on unpublished carries.
    pub spin_waits: u64,
    /// Deepest single look-back performed (the paper's dynamic `c`; it
    /// reports "c is typically much smaller than 32" because each chunk
    /// uses the most recent available global carries).
    pub max_lookback_depth: u64,
    /// Worker threads used (the pool's effective width for this run,
    /// which shrinks when worker threads could not be spawned).
    pub threads: u64,
    /// Worker loops that bailed out early because the run was aborted —
    /// for *any* reason: a worker panicked or died, a finiteness check
    /// failed, a [`CancelToken`] was cancelled, or the deadline watchdog
    /// fired. Always zero for a successful run; nonzero only in
    /// aggregated stats that absorbed an aborted sub-run. To distinguish
    /// the causes, look at the returned error (or, cumulatively, at
    /// [`PoolCounters`]).
    ///
    /// [`CancelToken`]: crate::CancelToken
    pub aborts: u64,
    /// Workers revived by the pool at this run's submission — dead
    /// workers respawned after an injected thread death, or previously
    /// failed spawns that succeeded this time. (Approximate when several
    /// runners share one pool concurrently.)
    pub workers_recovered: u64,
    /// Wall time spent in the FIR map stage, summed across workers
    /// (nanoseconds; zero for pure-feedback signatures).
    pub fir_nanos: u64,
    /// Wall time spent in per-chunk local solves, summed across workers
    /// (nanoseconds).
    pub solve_nanos: u64,
    /// Wall time spent resolving global carries by look-back, summed
    /// across workers (nanoseconds).
    pub lookback_nanos: u64,
    /// Wall time spent applying n-nacci corrections, summed across
    /// workers (nanoseconds).
    pub correct_nanos: u64,
    /// `1` when the runner's correction plan was served from the shared
    /// plan cache, `0` when it was built fresh. Aggregates sum over rows.
    pub plan_cache_hits: u64,
    /// Complement of [`plan_cache_hits`](RunStats::plan_cache_hits).
    pub plan_cache_misses: u64,
    /// Dominant correction strategy the plan selected (`Unplanned` when no
    /// plan was consulted, e.g. a default-constructed stats value).
    pub plan_kind: PlanKind,
    /// Elements the plan touches when correcting one full-size chunk — the
    /// chunk size for dense plans, the decayed prefix length for truncated
    /// ones. Aggregates keep the maximum.
    pub correction_taps: u64,
    /// Look-back hops short-circuited because the predecessor chunk's tail
    /// factors are exactly zero (its global carries equal its locals), so
    /// the carry chain reset instead of walking back.
    pub carry_resets: u64,
    /// The serial solve kernel the run dispatched to (`Unknown` when no
    /// solve ran, e.g. a default-constructed stats value; `Mixed` in
    /// aggregates whose sub-runs disagreed — possible when the kernel
    /// override changed between rows).
    pub kernel: KernelKind,
    /// Local-solve time slices executed: chunks short enough to solve in
    /// one go count one slice; longer chunks split into abort-polled
    /// slices of [`plr_core::blocked::SOLVE_SLICE`] elements and count one
    /// per slice. Aggregates sum over rows.
    pub solve_slices: u64,
    /// Chunks the time-varying look-back pipeline solved *fused*: the
    /// predecessor's global state was already published at claim time, so
    /// the chunk continued from real history — serial-equal work, no
    /// local solve, no matrix carry, no correction pass. Chunk 0 always
    /// counts (its history is the zero state). Zero for constant-path
    /// runs, which never fuse.
    pub fused_chunks: u64,
    /// Chunks of a segmented run that contained at least one segment
    /// boundary (their tail past the last in-chunk reset was globally
    /// final straight off the local solve, and look-back from later
    /// chunks terminated at them). Zero for unsegmented runs.
    pub reset_chunks: u64,
    /// Chunks whose post-FIR input was entirely zero and whose local
    /// solve was therefore skipped on the sparse fast path — their output
    /// is the correction pass alone, and their carries reduce to the
    /// factor-power fix-up of zero locals. Zero when the sparse path is
    /// disabled or never matched.
    pub skipped_chunks: u64,
}

impl RunStats {
    /// Mean look-back depth per corrected chunk (the paper's `c`, which it
    /// bounds by 32 and reports as "typically much smaller").
    pub fn mean_lookback_depth(&self) -> f64 {
        if self.chunks <= 1 {
            0.0
        } else {
            self.lookback_hops as f64 / (self.chunks - 1) as f64
        }
    }

    /// Total per-phase busy time across all workers, nanoseconds.
    ///
    /// This is CPU-side *work* time, not elapsed wall time: with `w`
    /// workers saturated it is up to `w×` the wall clock.
    pub fn busy_nanos(&self) -> u64 {
        self.fir_nanos + self.solve_nanos + self.lookback_nanos + self.correct_nanos
    }

    /// The share of busy time spent in a phase, in `[0, 1]` (zero when
    /// nothing was timed).
    pub fn phase_fraction(&self, phase_nanos: u64) -> f64 {
        let total = self.busy_nanos();
        if total == 0 {
            0.0
        } else {
            phase_nanos as f64 / total as f64
        }
    }

    /// Folds another run's counters into this one (used by batched
    /// execution to aggregate over rows).
    pub fn absorb(&mut self, other: &RunStats) {
        self.rows += other.rows;
        self.chunks += other.chunks;
        self.lookback_hops += other.lookback_hops;
        self.spin_waits += other.spin_waits;
        self.max_lookback_depth = self.max_lookback_depth.max(other.max_lookback_depth);
        self.aborts += other.aborts;
        self.workers_recovered += other.workers_recovered;
        self.fir_nanos += other.fir_nanos;
        self.solve_nanos += other.solve_nanos;
        self.lookback_nanos += other.lookback_nanos;
        self.correct_nanos += other.correct_nanos;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        if self.plan_kind == PlanKind::Unplanned {
            self.plan_kind = other.plan_kind;
        } else if other.plan_kind != PlanKind::Unplanned && other.plan_kind != self.plan_kind {
            self.plan_kind = PlanKind::Mixed;
        }
        self.correction_taps = self.correction_taps.max(other.correction_taps);
        self.carry_resets += other.carry_resets;
        if self.kernel == KernelKind::Unknown {
            self.kernel = other.kernel;
        } else if other.kernel != KernelKind::Unknown && other.kernel != self.kernel {
            self.kernel = KernelKind::Mixed;
        }
        self.solve_slices += other.solve_slices;
        self.fused_chunks += other.fused_chunks;
        self.reset_chunks += other.reset_chunks;
        self.skipped_chunks += other.skipped_chunks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_depth_handles_degenerate_cases() {
        assert_eq!(RunStats::default().mean_lookback_depth(), 0.0);
        let s = RunStats {
            chunks: 11,
            lookback_hops: 20,
            spin_waits: 0,
            max_lookback_depth: 3,
            threads: 4,
            ..RunStats::default()
        };
        assert!((s.mean_lookback_depth() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn busy_time_sums_the_phases() {
        let s = RunStats {
            fir_nanos: 10,
            solve_nanos: 20,
            lookback_nanos: 30,
            correct_nanos: 40,
            ..RunStats::default()
        };
        assert_eq!(s.busy_nanos(), 100);
        assert!((s.phase_fraction(s.solve_nanos) - 0.2).abs() < 1e-12);
        assert_eq!(RunStats::default().phase_fraction(0), 0.0);
    }

    #[test]
    fn absorb_accumulates_and_maxes() {
        let mut a = RunStats {
            chunks: 2,
            lookback_hops: 1,
            max_lookback_depth: 3,
            solve_nanos: 5,
            ..RunStats::default()
        };
        let b = RunStats {
            rows: 1,
            chunks: 3,
            lookback_hops: 2,
            spin_waits: 7,
            max_lookback_depth: 2,
            solve_nanos: 5,
            fir_nanos: 1,
            aborts: 2,
            workers_recovered: 1,
            ..RunStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.rows, 1);
        assert_eq!(a.chunks, 5);
        assert_eq!(a.lookback_hops, 3);
        assert_eq!(a.spin_waits, 7);
        assert_eq!(a.max_lookback_depth, 3);
        assert_eq!(a.solve_nanos, 10);
        assert_eq!(a.fir_nanos, 1);
        assert_eq!(a.aborts, 2);
        assert_eq!(a.workers_recovered, 1);
    }

    #[test]
    fn absorb_plan_fields() {
        let mut a = RunStats {
            plan_cache_hits: 1,
            correction_taps: 100,
            carry_resets: 2,
            ..RunStats::default()
        };
        let b = RunStats {
            plan_cache_misses: 1,
            plan_kind: PlanKind::Truncated,
            correction_taps: 400,
            carry_resets: 3,
            ..RunStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.plan_cache_hits, 1);
        assert_eq!(a.plan_cache_misses, 1);
        assert_eq!(a.plan_kind, PlanKind::Truncated);
        assert_eq!(a.correction_taps, 400);
        assert_eq!(a.carry_resets, 5);
        // Disagreeing kinds collapse to Mixed.
        let c = RunStats {
            plan_kind: PlanKind::Dense,
            ..RunStats::default()
        };
        a.absorb(&c);
        assert_eq!(a.plan_kind, PlanKind::Mixed);
    }

    #[test]
    fn absorb_kernel_fields() {
        let mut a = RunStats {
            solve_slices: 2,
            ..RunStats::default()
        };
        let b = RunStats {
            kernel: KernelKind::SimdAvx2,
            solve_slices: 3,
            ..RunStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.kernel, KernelKind::SimdAvx2);
        assert_eq!(a.solve_slices, 5);
        let d = RunStats {
            fused_chunks: 4,
            ..RunStats::default()
        };
        a.absorb(&d);
        a.absorb(&d);
        assert_eq!(a.fused_chunks, 8);
        // Agreement keeps the kind; disagreement collapses to Mixed.
        a.absorb(&b);
        assert_eq!(a.kernel, KernelKind::SimdAvx2);
        let c = RunStats {
            kernel: KernelKind::Scalar,
            ..RunStats::default()
        };
        a.absorb(&c);
        assert_eq!(a.kernel, KernelKind::Mixed);
    }
}
