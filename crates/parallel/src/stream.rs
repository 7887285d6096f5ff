//! Streamed row submission with per-row completion handles.
//!
//! [`BatchRunner::run_rows`] takes the whole batch at once and blocks —
//! the one remaining all-or-nothing barrier between callers and the
//! pool. This module removes it: [`BatchRunner::stream`] opens a
//! [`RowStream`] that accepts rows one at a time ([`RowStream::push_row`])
//! and solves them concurrently on the same persistent [`WorkerPool`]
//! while the producer keeps generating, so recurrence solving composes as
//! a stage in a larger dataflow instead of a batch barrier.
//!
//! ## Execution model
//!
//! `stream()` submits **one long-lived run** to the pool (via
//! [`WorkerPool::submit`], so the caller's thread is never borrowed);
//! every pool worker loops popping rows from a shared bounded queue and
//! solving them through the same [`RowTask`] code path blocking
//! `run_rows` uses — a streamed row cannot drift from its blocking
//! counterpart. The queue admits at most `window` unfinished rows:
//! `push_row` blocks once the window is full, which is the backpressure
//! that stops a fast producer from buffering an unbounded batch.
//!
//! Each pushed row gets a [`RowHandle`]: poll it, block on it (with or
//! without a timeout), register a completion waker, `await` it (the
//! handle implements [`IntoFuture`]), cancel it through its own
//! [`CancelToken`], or bound it with a per-row deadline via
//! [`RowStream::push_row_ctl`] — all reusing the [`RunControl`]
//! machinery, enforced per row by the pool's multi-watch watchdog.
//!
//! ## Error & ordering guarantees
//!
//! - A failed row (panic, cancel, deadline) resolves **only its own
//!   handle**; the workers and every other row are unaffected, and the
//!   pool stays usable afterwards.
//! - Rows complete in whatever order workers finish them; handles are
//!   the ordering authority, not wall-clock.
//! - [`RowStream::finish`] drains the queue, waits for quiescence, and
//!   surfaces the first per-row error (the aggregate [`RunStats`] counts
//!   every row either way). Dropping the stream instead *cancels*
//!   still-pending rows — their handles resolve to
//!   [`EngineError::Cancelled`] — and quiesces before returning, so no
//!   handle can hang on a dead stream.
//!
//! ## The `Future` adapter
//!
//! [`RowFuture`] / [`RunFuture`] wrap the waker hooks
//! ([`RowHandle::on_complete`], [`RunHandle::on_complete`]) as
//! runtime-agnostic `std` futures — no executor dependency, no busy
//! polling: `poll` registers the task waker and returns `Pending`
//! exactly until the completion callback fires. [`block_on`] is a
//! minimal park-based executor for synchronous callers and tests.
//!
//! [`BatchRunner::run_rows`]: crate::BatchRunner::run_rows
//! [`BatchRunner::stream`]: crate::BatchRunner::stream
//! [`RowTask`]: crate::batch::RowTask

use crate::batch::RowTask;
use crate::pool::{
    lock_recover, AbortReason, AbortSignal, CancelToken, RunControl, RunHandle, WorkerExit,
    WorkerPanic, WorkerPool,
};
use crate::stats::RunStats;
use plr_core::element::Element;
use plr_core::error::EngineError;
use std::cell::Cell;
use std::collections::VecDeque;
use std::future::{Future, IntoFuture};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// How often a parked stream worker re-checks the run-level abort flag
/// while waiting for rows (bounds drop/cancel latency).
const POLL: Duration = Duration::from_millis(10);

thread_local! {
    /// True on a thread that is currently *inside* [`RowStream::launch`]'s
    /// `submit` call. If the pool's driver thread could not be spawned,
    /// `submit` degrades to executing the job synchronously on the calling
    /// thread — which for a stream would deadlock (the worker would wait
    /// for rows the blocked caller can never push). The worker detects
    /// that degenerate re-entry through this flag and declares the stream
    /// dead instead, so pushes fail fast rather than hang.
    static INLINE_LAUNCH: Cell<bool> = const { Cell::new(false) };
}

/// A non-blocking or bounded-wait push found the backpressure window
/// still full — the `WouldBlock` verdict of [`RowStream::try_push_row`] /
/// [`RowStream::push_row_timeout`]. Carries the row buffer back to the
/// caller untouched, so shedding or retrying costs no copy.
#[derive(Debug)]
pub struct PushError<T> {
    /// The row buffer handed back, exactly as submitted.
    pub data: Vec<T>,
}

impl<T> PushError<T> {
    /// Recovers the row buffer for a retry or for shedding bookkeeping.
    pub fn into_data(self) -> Vec<T> {
        self.data
    }
}

impl<T> std::fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream backpressure window full (would block)")
    }
}

impl<T: std::fmt::Debug> std::error::Error for PushError<T> {}

/// One pushed row waiting in the stream's queue.
struct QueuedRow<T> {
    index: usize,
    data: Vec<T>,
    ctl: RunControl,
    inner: Arc<RowInner<T>>,
}

/// Mutable stream state, guarded by [`StreamShared::state`].
struct StreamState<T> {
    queue: VecDeque<QueuedRow<T>>,
    /// Rows pushed but not yet completed (queued + being solved); the
    /// backpressure window bounds this, not just the queue length.
    in_flight: usize,
    closed: bool,
    /// Set when the underlying run died (abort, worker loss, drop): every
    /// later push fails fast with this error instead of queueing forever.
    dead: Option<EngineError>,
    /// First per-row failure, surfaced by [`RowStream::finish`].
    first_error: Option<EngineError>,
    /// Aggregate over completed rows (successes contribute their phase
    /// times; failures contribute `rows` and `aborts`).
    stats: RunStats,
    next_row: usize,
}

struct StreamShared<T> {
    state: Mutex<StreamState<T>>,
    /// Signalled when rows arrive or the stream closes/dies (workers wait
    /// here).
    ready: Condvar,
    /// Signalled when a row completes or the stream dies (pushers blocked
    /// on the window wait here).
    space: Condvar,
    window: usize,
}

/// Clears [`INLINE_LAUNCH`] even if `submit` panics.
struct InlineLaunchGuard;

impl Drop for InlineLaunchGuard {
    fn drop(&mut self) {
        INLINE_LAUNCH.with(|f| f.set(false));
    }
}

/// A streaming submission channel over a [`BatchRunner`]'s pool — see the
/// [module docs](self) for the execution model and guarantees. Created by
/// [`BatchRunner::stream`] / [`BatchRunner::stream_with_window`].
///
/// Dropping the stream without [`finish`](Self::finish) cancels rows
/// still queued or in flight (their handles resolve to
/// [`EngineError::Cancelled`]) and blocks until the workers quiesce.
///
/// [`BatchRunner`]: crate::BatchRunner
/// [`BatchRunner::stream`]: crate::BatchRunner::stream
/// [`BatchRunner::stream_with_window`]: crate::BatchRunner::stream_with_window
pub struct RowStream<T> {
    shared: Arc<StreamShared<T>>,
    /// Cancelling this token aborts the whole stream run.
    run_token: CancelToken,
    /// The long-lived pool run draining the queue; dropping it (stream
    /// drop without `finish`) cancels and quiesces.
    handle: RunHandle,
    /// Pool width at launch, reported in the aggregate stats.
    threads: u64,
    /// The row length the task's plan binds, checked at push time.
    bound_len: Option<usize>,
}

impl<T> std::fmt::Debug for RowStream<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock_recover(&self.shared.state);
        f.debug_struct("RowStream")
            .field("window", &self.shared.window)
            .field("in_flight", &state.in_flight)
            .field("closed", &state.closed)
            .field("dead", &state.dead.is_some())
            .finish()
    }
}

impl<T: Element> RowStream<T> {
    /// Starts the long-lived pool run that drains the row queue. Called
    /// by [`BatchRunner::stream`].
    ///
    /// [`BatchRunner::stream`]: crate::BatchRunner::stream
    pub(crate) fn launch(pool: Arc<WorkerPool>, task: RowTask<T>, window: usize) -> Self {
        let shared = Arc::new(StreamShared {
            state: Mutex::new(StreamState {
                queue: VecDeque::new(),
                in_flight: 0,
                closed: false,
                dead: None,
                first_error: None,
                // One plan consult backs the whole stream; seed the
                // aggregate with its outcome rather than recounting it on
                // every row.
                stats: RunStats {
                    plan_cache_hits: task.plan_cache_hits(),
                    plan_cache_misses: task.plan_cache_misses(),
                    plan_kind: task.plan_kind(),
                    kernel: task.kernel_kind(),
                    ..RunStats::default()
                },
                next_row: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            window,
        });
        let run_token = CancelToken::new();
        let threads = pool.width() as u64;
        let bound_len = task.bound_len();
        let handle = {
            let shared = Arc::clone(&shared);
            let task = task.clone();
            let run_token = run_token.clone();
            let job_pool = Arc::clone(&pool);
            INLINE_LAUNCH.with(|f| f.set(true));
            let _guard = InlineLaunchGuard;
            pool.submit(
                RunControl::new().with_cancel(&run_token),
                move |worker, run_abort| {
                    stream_worker(&job_pool, &shared, &task, &run_token, worker, run_abort)
                },
            )
        };
        // Final sweep once the run is over (normal close, abort, or the
        // degenerate no-worker paths): anything still queued will never be
        // popped — complete those handles and unblock pushers, so no
        // handle and no `push_row` can wedge on a finished run.
        {
            let shared = Arc::clone(&shared);
            let run_token = run_token.clone();
            handle.on_complete(move || {
                let err = if run_token.is_cancelled() {
                    EngineError::Cancelled
                } else {
                    EngineError::WorkerPanicked {
                        worker: 0,
                        payload: "stream run ended with rows still queued".to_string(),
                    }
                };
                drain_pending(&shared, err);
            });
        }
        RowStream {
            shared,
            run_token,
            handle,
            threads,
            bound_len,
        }
    }

    /// The backpressure window: the maximum number of unfinished rows
    /// (queued or being solved) before `push_row` blocks.
    pub fn window(&self) -> usize {
        self.shared.window
    }

    /// Rows pushed but not yet completed.
    pub fn in_flight(&self) -> usize {
        lock_recover(&self.shared.state).in_flight
    }

    /// Submits one row for solving, taking ownership of its buffer, and
    /// returns a [`RowHandle`] that resolves when the row is done (get
    /// the solved buffer back with [`RowHandle::join`]).
    ///
    /// Blocks while the in-flight window is full — that is the
    /// backpressure contract. Rows of a constant-signature stream may
    /// have any length, including lengths that differ between pushes;
    /// a stream whose plan binds the row length (time-varying or
    /// segmented) takes only rows of that length.
    ///
    /// Pushing onto a closed or dead stream, or pushing a row of the wrong
    /// length, does not block: the returned handle is already resolved to
    /// [`EngineError::Cancelled`] (closed), the stream's fatal error
    /// (dead), or [`EngineError::LengthMismatch`] (wrong length), with the
    /// buffer untouched.
    pub fn push_row(&self, data: Vec<T>) -> RowHandle<T> {
        self.push_row_ctl(data, RunControl::new())
    }

    /// Like [`push_row`](Self::push_row), with a per-row [`RunControl`]:
    /// the row observes its own [`CancelToken`] and/or wall-clock
    /// deadline (armed on the pool's watchdog while the row is being
    /// solved), independently of every other row. A cancelled or expired
    /// row resolves its handle to [`EngineError::Cancelled`] /
    /// [`EngineError::DeadlineExceeded`]; the stream keeps going.
    ///
    /// Note the deadline clock starts when [`RunControl::with_deadline`]
    /// is called — time spent blocked on the window counts against it.
    pub fn push_row_ctl(&self, data: Vec<T>, ctl: RunControl) -> RowHandle<T> {
        match self.push_row_bounded(data, ctl, None) {
            Ok(handle) => handle,
            // Unreachable: an unbounded wait never reports WouldBlock.
            Err(e) => unreachable!("blocking push returned {e}"),
        }
    }

    /// Non-blocking [`push_row`](Self::push_row): enqueues only if the
    /// backpressure window has space *right now*, otherwise hands the
    /// buffer straight back as [`PushError`] without waiting. This is the
    /// admission-controller entry point — a caller that must never wedge
    /// on a saturated stream probes with this and converts the verdict
    /// into its own shed/retry decision.
    ///
    /// Closed and dead streams are not `WouldBlock`: exactly like
    /// [`push_row`](Self::push_row), those return an already-resolved
    /// handle (the stream's state is final, so there is nothing to wait
    /// for).
    pub fn try_push_row(&self, data: Vec<T>) -> Result<RowHandle<T>, PushError<T>> {
        self.push_row_bounded(data, RunControl::new(), Some(Duration::ZERO))
    }

    /// [`try_push_row`](Self::try_push_row) with a per-row [`RunControl`]
    /// (cancel token and/or deadline for the row once admitted).
    pub fn try_push_row_ctl(
        &self,
        data: Vec<T>,
        ctl: RunControl,
    ) -> Result<RowHandle<T>, PushError<T>> {
        self.push_row_bounded(data, ctl, Some(Duration::ZERO))
    }

    /// Bounded-wait [`push_row`](Self::push_row): blocks on the window for
    /// at most `timeout`, then hands the buffer back as [`PushError`] if
    /// space never opened. `Duration::ZERO` is equivalent to
    /// [`try_push_row`](Self::try_push_row).
    pub fn push_row_timeout(
        &self,
        data: Vec<T>,
        timeout: Duration,
    ) -> Result<RowHandle<T>, PushError<T>> {
        self.push_row_bounded(data, RunControl::new(), Some(timeout))
    }

    /// [`push_row_timeout`](Self::push_row_timeout) with a per-row
    /// [`RunControl`].
    pub fn push_row_timeout_ctl(
        &self,
        data: Vec<T>,
        ctl: RunControl,
        timeout: Duration,
    ) -> Result<RowHandle<T>, PushError<T>> {
        self.push_row_bounded(data, ctl, Some(timeout))
    }

    /// The one push implementation: waits on the window forever
    /// (`budget: None`), not at all (`Some(ZERO)`), or up to a timeout.
    fn push_row_bounded(
        &self,
        data: Vec<T>,
        ctl: RunControl,
        budget: Option<Duration>,
    ) -> Result<RowHandle<T>, PushError<T>> {
        let cancel = ctl.cancel.clone().unwrap_or_default();
        let ctl = RunControl {
            cancel: Some(cancel.clone()),
            deadline: ctl.deadline,
        };
        let deadline = budget.map(|b| Instant::now() + b);
        let inner = Arc::new(RowInner::new());
        let got = data.len();
        if let Some(expected) = self.bound_len.filter(|&len| len != got) {
            let err = EngineError::LengthMismatch { expected, got };
            return Ok(RowHandle::resolved(inner, cancel, usize::MAX, data, err));
        }
        let mut state = lock_recover(&self.shared.state);
        loop {
            if state.closed {
                drop(state);
                return Ok(RowHandle::resolved(
                    inner,
                    cancel,
                    usize::MAX,
                    data,
                    EngineError::Cancelled,
                ));
            }
            if let Some(err) = state.dead.clone() {
                drop(state);
                return Ok(RowHandle::resolved(inner, cancel, usize::MAX, data, err));
            }
            if state.in_flight < self.shared.window {
                break;
            }
            match deadline {
                None => {
                    state = self
                        .shared
                        .space
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        drop(state);
                        return Err(PushError { data });
                    }
                    state = self
                        .shared
                        .space
                        .wait_timeout(state, at - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
        let index = state.next_row;
        state.next_row += 1;
        state.in_flight += 1;
        state.queue.push_back(QueuedRow {
            index,
            data,
            ctl,
            inner: Arc::clone(&inner),
        });
        drop(state);
        self.shared.ready.notify_one();
        Ok(RowHandle {
            inner,
            cancel,
            index,
            detached: false,
        })
    }

    /// Aborts the whole stream (idempotent): every queued or in-flight
    /// row resolves to [`EngineError::Cancelled`] and later pushes fail
    /// fast. Workers quiesce within one poll interval; use
    /// [`finish`](Self::finish) to join them.
    pub fn cancel(&self) {
        self.run_token.cancel();
    }

    /// Closes the intake: later pushes resolve immediately to
    /// [`EngineError::Cancelled`], and the workers exit once the queue is
    /// drained. Idempotent; does not block — pair with
    /// [`finish`](Self::finish) (or outstanding [`RowHandle`]s) to wait
    /// for the rows already in flight.
    pub fn close(&self) {
        let mut state = lock_recover(&self.shared.state);
        state.closed = true;
        drop(state);
        self.shared.ready.notify_all();
        self.shared.space.notify_all();
    }

    /// Closes the stream, waits for every pushed row to complete, and
    /// returns the aggregate [`RunStats`] — or the first error: a
    /// stream-level failure if the run itself died, otherwise the first
    /// per-row error (including deliberate per-row cancellations and
    /// deadline trips). Per-row outcomes remain available on the
    /// individual handles either way.
    pub fn finish(self) -> Result<RunStats, EngineError> {
        self.close();
        let run = self.handle.wait();
        let state = lock_recover(&self.shared.state);
        if let Err(e) = run {
            return Err(e.into_engine_error());
        }
        if let Some(e) = &state.first_error {
            return Err(e.clone());
        }
        let mut stats = state.stats;
        stats.threads = self.threads;
        Ok(stats)
    }
}

/// Completes every row still in the queue with `err` and marks the
/// stream dead so pushers fail fast. Safe to call repeatedly and
/// concurrently with the worker-side drain — each row is popped exactly
/// once under the state lock.
fn drain_pending<T: Element>(shared: &StreamShared<T>, err: EngineError) {
    let mut state = lock_recover(&shared.state);
    if state.dead.is_none() {
        state.dead = Some(err.clone());
    }
    let leftovers: Vec<QueuedRow<T>> = state.queue.drain(..).collect();
    state.in_flight -= leftovers.len();
    for _ in &leftovers {
        state.stats.absorb(&RunStats {
            rows: 1,
            aborts: 1,
            ..RunStats::default()
        });
    }
    if state.first_error.is_none() && !leftovers.is_empty() {
        state.first_error = Some(err.clone());
    }
    drop(state);
    shared.ready.notify_all();
    shared.space.notify_all();
    for row in leftovers {
        RowInner::complete(&row.inner, row.data, Err(err.clone()));
    }
}

/// The per-worker loop of the stream's long-lived run: pop a row, solve
/// it, repeat; exit when the stream is closed and drained, or when the
/// run itself is aborted (draining leftovers with the abort's reason).
fn stream_worker<T: Element>(
    pool: &Arc<WorkerPool>,
    shared: &StreamShared<T>,
    task: &RowTask<T>,
    run_token: &CancelToken,
    worker: usize,
    run_abort: &AbortSignal,
) {
    loop {
        let row = {
            let mut state = lock_recover(&shared.state);
            loop {
                if run_abort.is_aborted() {
                    drop(state);
                    let err = match run_abort.reason() {
                        Some(AbortReason::DeadlineExceeded) => EngineError::DeadlineExceeded {
                            deadline: Duration::ZERO,
                        },
                        Some(AbortReason::WorkerFault) => EngineError::WorkerPanicked {
                            worker,
                            payload: "a worker fault aborted the stream".to_string(),
                        },
                        Some(AbortReason::Cancelled) | None => EngineError::Cancelled,
                    };
                    drain_pending(shared, err);
                    return;
                }
                if let Some(row) = state.queue.pop_front() {
                    break row;
                }
                if state.closed {
                    return;
                }
                if INLINE_LAUNCH.with(Cell::get) {
                    // Degenerate synchronous fallback (driver thread could
                    // not spawn): we are running *inside* `launch` on the
                    // caller's thread; no rows can ever arrive. Declare
                    // the stream dead instead of deadlocking.
                    drop(state);
                    drain_pending(shared, EngineError::Cancelled);
                    return;
                }
                // Timed wait so an abort tripped while we are parked is
                // still noticed within one poll interval.
                state = shared
                    .ready
                    .wait_timeout(state, POLL)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        process_one(pool, shared, task, run_token, worker, row);
    }
}

/// Solves one popped row and resolves its handle — the streaming analogue
/// of one `run_whole_rows` ticket, plus the per-row control plumbing
/// (cancel token attach, watchdog deadline, panic capture).
fn process_one<T: Element>(
    pool: &Arc<WorkerPool>,
    shared: &StreamShared<T>,
    task: &RowTask<T>,
    run_token: &CancelToken,
    worker: usize,
    row: QueuedRow<T>,
) {
    let QueuedRow {
        index,
        mut data,
        ctl,
        inner,
    } = row;
    if let Err(e) = ctl.status() {
        // Cancelled or expired while queued: fail fast, no work.
        finish_row(shared, &inner, data, Err(e.into_engine_error()));
        return;
    }
    let abort = Arc::new(AbortSignal::default());
    // Stream-level cancellation (drop, explicit run cancel) must reach a
    // row mid-solve — e.g. one wedged in an injected delay — so the
    // stream's quiesce is bounded by one poll, not by the row.
    let run_att = run_token.attach(&abort);
    let row_att = ctl.cancel.as_ref().map(|t| t.attach(&abort));
    let watch = ctl
        .deadline
        .and_then(|(at, _)| pool.watchdog_arm(at, &abort));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        crate::fault::check(crate::fault::FaultSite::Row, worker, index, Some(&abort));
        task.apply(&mut data, worker, index, Some(&abort))
    }));
    // Disarm before reading the reason, mirroring `run_ctl`.
    drop(watch);
    drop(row_att);
    drop(run_att);
    match outcome {
        Ok((fir_nanos, solve_nanos, solve_slices)) => {
            let result = match abort.reason() {
                // A bare WorkerFault is job-owned elsewhere; nothing trips
                // it on a per-row signal, so treat it as clean.
                None | Some(AbortReason::WorkerFault) => Ok(RunStats {
                    rows: 1,
                    chunks: 1,
                    threads: 1,
                    fir_nanos,
                    solve_nanos,
                    plan_kind: task.plan_kind(),
                    kernel: task.kernel_kind(),
                    solve_slices,
                    ..RunStats::default()
                }),
                Some(AbortReason::Cancelled) => Err(EngineError::Cancelled),
                Some(AbortReason::DeadlineExceeded) => Err(EngineError::DeadlineExceeded {
                    deadline: ctl.deadline.map(|(_, b)| b).unwrap_or_default(),
                }),
            };
            finish_row(shared, &inner, data, result);
        }
        Err(payload) => {
            // The panic stays contained: only this row's handle errors,
            // the worker keeps draining the queue. Resolve the handle
            // *before* any rethrow so it can never be left dangling.
            let err = WorkerPanic::from_payload(worker, payload.as_ref()).into_engine_error();
            finish_row(shared, &inner, data, Err(err));
            if payload.is::<WorkerExit>() {
                // Simulated thread death must still retire the worker
                // through the pool's machinery (lazy respawn & co).
                resume_unwind(payload);
            }
        }
    }
}

/// Resolves a row's handle and updates the stream's aggregate state.
fn finish_row<T: Element>(
    shared: &StreamShared<T>,
    inner: &Arc<RowInner<T>>,
    data: Vec<T>,
    result: Result<RunStats, EngineError>,
) {
    let row_stats = match &result {
        Ok(stats) => *stats,
        Err(_) => RunStats {
            rows: 1,
            aborts: 1,
            ..RunStats::default()
        },
    };
    let err = result.as_ref().err().cloned();
    RowInner::complete(inner, data, result);
    let mut state = lock_recover(&shared.state);
    state.in_flight -= 1;
    state.stats.absorb(&row_stats);
    if let Some(e) = err {
        if state.first_error.is_none() {
            state.first_error = Some(e);
        }
    }
    drop(state);
    shared.space.notify_all();
}

struct RowState<T> {
    /// `(solved buffer, outcome)` once the row is done.
    outcome: Option<(Vec<T>, Result<RunStats, EngineError>)>,
    waker: Option<Box<dyn FnOnce() + Send>>,
}

/// Shared completion cell between a [`RowHandle`] and the worker solving
/// its row — the row-granular analogue of the pool's `HandleInner`.
struct RowInner<T> {
    state: Mutex<RowState<T>>,
    done: Condvar,
}

impl<T> RowInner<T> {
    fn new() -> Self {
        RowInner {
            state: Mutex::new(RowState {
                outcome: None,
                waker: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Publishes the outcome, wakes blocked waiters, and fires the waker
    /// outside the lock. Idempotent: the first completion wins (the
    /// worker-side drain and the run-end sweep may race on a dying
    /// stream).
    fn complete(inner: &Arc<Self>, data: Vec<T>, result: Result<RunStats, EngineError>) {
        let waker = {
            let mut state = lock_recover(&inner.state);
            if state.outcome.is_some() {
                return;
            }
            state.outcome = Some((data, result));
            inner.done.notify_all();
            state.waker.take()
        };
        if let Some(wake) = waker {
            wake();
        }
    }
}

/// One streamed row in flight (see [`RowStream::push_row`]).
///
/// Completion is signalled, not joined: poll
/// [`is_finished`](Self::is_finished), block with [`wait`](Self::wait) /
/// [`wait_timeout`](Self::wait_timeout), register a
/// [`on_complete`](Self::on_complete) waker, or `await` the handle (it
/// implements [`IntoFuture`], resolving to the solved buffer plus the
/// outcome). [`join`](Self::join) returns the buffer synchronously.
///
/// Dropping an unfinished handle **cancels its row** (non-blocking; the
/// worker observes the cancel at its next consult and resolves the
/// abandoned row to [`EngineError::Cancelled`]) — a caller that walks
/// away from a row does not leak work. Use [`detach`](Self::detach) to
/// drop the handle and let the row run to completion anyway.
pub struct RowHandle<T> {
    inner: Arc<RowInner<T>>,
    cancel: CancelToken,
    index: usize,
    detached: bool,
}

impl<T> std::fmt::Debug for RowHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowHandle")
            .field("index", &self.index)
            .field(
                "finished",
                &lock_recover(&self.inner.state).outcome.is_some(),
            )
            .finish()
    }
}

impl<T: Element> RowHandle<T> {
    /// A handle born already resolved (a wrong-length row, or a push onto
    /// a closed/dead stream).
    fn resolved(
        inner: Arc<RowInner<T>>,
        cancel: CancelToken,
        index: usize,
        data: Vec<T>,
        err: EngineError,
    ) -> Self {
        RowInner::complete(&inner, data, Err(err));
        RowHandle {
            inner,
            cancel,
            index,
            detached: false,
        }
    }

    /// The row's submission index (0-based, in push order). Pushes that
    /// were rejected outright (wrong length, closed/dead stream) report
    /// `usize::MAX`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether the row has completed (successfully or not).
    pub fn is_finished(&self) -> bool {
        lock_recover(&self.inner.state).outcome.is_some()
    }

    /// Blocks until the row completes and returns its outcome (the per-row
    /// [`RunStats`], or the per-row error). Callable repeatedly; the
    /// solved buffer stays inside the handle until [`join`](Self::join).
    pub fn wait(&self) -> Result<RunStats, EngineError> {
        #[cfg(feature = "fault-inject")]
        crate::fault::check(crate::fault::FaultSite::HandleWait, 0, self.index, None);
        let mut state = lock_recover(&self.inner.state);
        while state.outcome.is_none() {
            state = self
                .inner
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.outcome.as_ref().expect("checked above").1.clone()
    }

    /// Blocks up to `budget` for completion; `None` on timeout (the row
    /// keeps going — pair with [`cancel`](Self::cancel) to give up on
    /// it). Re-waits with the *remaining* budget after spurious wakeups,
    /// so the total wait is bounded by `budget` plus scheduling slack.
    pub fn wait_timeout(&self, budget: Duration) -> Option<Result<RunStats, EngineError>> {
        #[cfg(feature = "fault-inject")]
        crate::fault::check(crate::fault::FaultSite::HandleWait, 0, self.index, None);
        let deadline = Instant::now() + budget;
        let mut state = lock_recover(&self.inner.state);
        while state.outcome.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            state = self
                .inner
                .done
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        Some(state.outcome.as_ref().expect("checked above").1.clone())
    }

    /// Blocks until the row completes and returns the buffer together
    /// with the outcome — solved in place on success, in whatever state
    /// the row reached on error.
    pub fn join(mut self) -> (Vec<T>, Result<RunStats, EngineError>) {
        let _ = self.wait();
        self.detached = true; // the drop below must not cancel
        lock_recover(&self.inner.state)
            .outcome
            .take()
            .expect("wait() returned, the outcome is set")
    }

    /// Cancels this row (idempotent): if it has not started it fails fast
    /// with [`EngineError::Cancelled`]; if it is mid-solve the worker
    /// bails at its next consult. Other rows are unaffected.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the row's cancel token (cancel it from anywhere).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Registers a callback invoked exactly once when the row completes
    /// (immediately if it already has) — the waker hook behind the
    /// `Future` adapter. A second registration replaces the first.
    pub fn on_complete(&self, wake: impl FnOnce() + Send + 'static) {
        let mut state = lock_recover(&self.inner.state);
        if state.outcome.is_some() {
            drop(state);
            wake();
        } else {
            state.waker = Some(Box::new(wake));
        }
    }

    /// Drops the handle *without* cancelling the row: it runs to
    /// completion unobserved (its result is discarded when done).
    pub fn detach(mut self) {
        self.detached = true;
    }
}

impl<T> Drop for RowHandle<T> {
    fn drop(&mut self) {
        if self.detached {
            return;
        }
        if lock_recover(&self.inner.state).outcome.is_none() {
            // Non-blocking by design: the worker resolves the abandoned
            // row to Cancelled on its own schedule; `RowStream::finish`
            // (or the stream's drop) is the quiesce point.
            self.cancel.cancel();
        }
    }
}

// ---------------------------------------------------------------------------
// Future adapters
// ---------------------------------------------------------------------------

/// A [`RowHandle`] as a runtime-agnostic [`Future`], created by
/// `await`ing the handle (its [`IntoFuture`] impl) — resolves to the
/// solved buffer plus the row's outcome, exactly like
/// [`RowHandle::join`], waking the task through
/// [`RowHandle::on_complete`] (no polling loop, no executor dependency).
pub struct RowFuture<T> {
    handle: Option<RowHandle<T>>,
}

impl<T: Element> Future for RowFuture<T> {
    type Output = (Vec<T>, Result<RunStats, EngineError>);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let handle = self
            .handle
            .as_ref()
            .expect("RowFuture polled after completion");
        if !handle.is_finished() {
            let waker = cx.waker().clone();
            // If the row completed between the check and this call, the
            // callback fires immediately and the executor re-polls — no
            // lost wakeup. Re-registration replaces the previous waker,
            // so the row wakes each poller at most once: no double-wake.
            handle.on_complete(move || waker.wake());
            if !self.handle.as_ref().expect("set above").is_finished() {
                return Poll::Pending;
            }
        }
        let handle = self.handle.take().expect("checked above");
        Poll::Ready(handle.join())
    }
}

impl<T: Element> IntoFuture for RowHandle<T> {
    type Output = (Vec<T>, Result<RunStats, EngineError>);
    type IntoFuture = RowFuture<T>;

    fn into_future(self) -> RowFuture<T> {
        RowFuture { handle: Some(self) }
    }
}

/// A [`RunHandle`] as a runtime-agnostic [`Future`], created by
/// `await`ing the handle — resolves to the run's outcome, waking the
/// task through [`RunHandle::on_complete`].
pub struct RunFuture {
    handle: Option<RunHandle>,
}

impl Future for RunFuture {
    type Output = Result<(), crate::pool::RunError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let handle = self
            .handle
            .as_ref()
            .expect("RunFuture polled after completion");
        if !handle.is_finished() {
            let waker = cx.waker().clone();
            handle.on_complete(move || waker.wake());
            if !self.handle.as_ref().expect("set above").is_finished() {
                return Poll::Pending;
            }
        }
        // Finished: wait() returns without blocking; dropping the handle
        // afterwards is a no-op.
        let handle = self.handle.take().expect("checked above");
        Poll::Ready(handle.wait())
    }
}

impl IntoFuture for RunHandle {
    type Output = Result<(), crate::pool::RunError>;
    type IntoFuture = RunFuture;

    fn into_future(self) -> RunFuture {
        RunFuture { handle: Some(self) }
    }
}

/// Waker that unparks the thread driving [`block_on`].
struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives any future to completion on the current thread — a minimal
/// executor for synchronous callers of the [`Future`] adapters. Parks
/// between polls (no busy-waiting): the future's waker unparks us.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => std::thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRunner;
    use plr_core::serial;
    use plr_core::signature::Signature;

    fn rows_of(width: usize, count: usize) -> Vec<Vec<i64>> {
        (0..count)
            .map(|r| {
                (0..width)
                    .map(|i| ((r * 31 + i * 7) % 13) as i64 - 6)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn streamed_rows_match_serial_reference() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let runner = BatchRunner::new(sig.clone(), 4);
        let stream = runner.stream();
        let inputs = rows_of(57, 12);
        let handles: Vec<RowHandle<i64>> = inputs
            .iter()
            .map(|row| stream.push_row(row.clone()))
            .collect();
        // Join in reverse push order: completion is per-handle, not FIFO.
        for (handle, input) in handles.into_iter().zip(&inputs).rev() {
            let (got, result) = handle.join();
            let stats = result.unwrap();
            assert_eq!(stats.rows, 1);
            assert_eq!(got, serial::run(&sig, input));
        }
        let stats = stream.finish().unwrap();
        assert_eq!(stats.rows, 12);
        assert_eq!(stats.chunks, 12);
    }

    #[test]
    fn heterogeneous_row_lengths_are_fine() {
        let sig: Signature<f64> = "0.81,-1.62,0.81:1.6,-0.64".parse().unwrap();
        let runner = BatchRunner::new(sig.clone(), 2);
        let stream = runner.stream_with_window(3);
        let mut handles = Vec::new();
        let mut inputs = Vec::new();
        for width in [1usize, 7, 64, 131] {
            let row: Vec<f64> = (0..width).map(|i| ((i % 9) as f64) * 0.25 - 1.0).collect();
            handles.push(stream.push_row(row.clone()));
            inputs.push(row);
        }
        for (handle, input) in handles.into_iter().zip(&inputs) {
            let (got, result) = handle.join();
            result.unwrap();
            let want = serial::run(&sig, input);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
            }
        }
        stream.finish().unwrap();
    }

    #[test]
    fn push_after_close_resolves_cancelled_with_buffer() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream();
        stream.close();
        let handle = stream.push_row(vec![1, 2, 3]);
        assert!(handle.is_finished());
        assert_eq!(handle.index(), usize::MAX);
        let (data, result) = handle.join();
        assert_eq!(
            data,
            vec![1, 2, 3],
            "rejected pushes leave the buffer untouched"
        );
        assert!(matches!(result, Err(EngineError::Cancelled)));
        stream.finish().unwrap();
    }

    #[test]
    fn empty_stream_finishes_clean() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 3);
        let stats = runner.stream().finish().unwrap();
        assert_eq!(stats.rows, 0);
        assert!(stats.threads >= 1);
    }

    #[test]
    fn row_future_awaits_to_the_solved_buffer() {
        let sig: Signature<i64> = "1:1".parse().unwrap(); // prefix sum
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream();
        let handle = stream.push_row(vec![1, 2, 3, 4]);
        let (got, result) = block_on(handle.into_future());
        result.unwrap();
        assert_eq!(got, vec![1, 3, 6, 10]);
        stream.finish().unwrap();
    }

    #[test]
    fn run_future_awaits_pool_submissions() {
        let pool = Arc::new(WorkerPool::new(2));
        let handle = pool.submit(RunControl::new(), |_, _| {});
        block_on(handle.into_future()).unwrap();
    }

    #[test]
    fn precancelled_row_fails_alone_and_finish_reports_it() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig.clone(), 2);
        let stream = runner.stream();
        let ok_before = stream.push_row(vec![1; 32]);
        let token = CancelToken::new();
        token.cancel();
        let doomed = stream.push_row_ctl(vec![2; 32], RunControl::new().with_cancel(&token));
        let ok_after = stream.push_row(vec![3; 32]);
        assert!(matches!(doomed.wait(), Err(EngineError::Cancelled)));
        ok_before.wait().unwrap();
        ok_after.wait().unwrap();
        // finish surfaces the first per-row error, even a deliberate one.
        assert!(matches!(stream.finish(), Err(EngineError::Cancelled)));
    }

    #[test]
    fn expired_row_deadline_fails_fast() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream();
        let handle =
            stream.push_row_ctl(vec![1; 16], RunControl::new().with_deadline(Duration::ZERO));
        match handle.wait() {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let ok = stream.push_row(vec![1; 16]);
        ok.wait().unwrap();
    }

    #[test]
    fn dropping_the_stream_resolves_every_handle() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(8);
        let handles: Vec<RowHandle<i64>> = (0..8).map(|_| stream.push_row(vec![1; 64])).collect();
        drop(stream); // cancels pending rows, quiesces before returning
        for handle in handles {
            // Each row either completed before the drop landed or was
            // cancelled by it; neither may hang.
            match handle.wait() {
                Ok(_) | Err(EngineError::Cancelled) => {}
                other => panic!("unexpected outcome after stream drop: {other:?}"),
            }
        }
    }

    #[test]
    fn cancel_aborts_the_whole_stream() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(4);
        let first = stream.push_row(vec![1; 8]);
        first.wait().unwrap();
        stream.cancel();
        let late = stream.push_row(vec![2; 8]);
        match late.wait() {
            // Either the death landed before the push (fail-fast) or the
            // drain caught it in the queue; both resolve to Cancelled.
            Err(EngineError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(matches!(stream.finish(), Err(EngineError::Cancelled)));
    }

    #[test]
    fn window_bounds_in_flight_rows() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(2);
        assert_eq!(stream.window(), 2);
        for _ in 0..20 {
            stream.push_row(vec![1; 256]).detach();
            assert!(stream.in_flight() <= 2, "window must bound in-flight rows");
        }
        stream.finish().unwrap();
    }

    #[test]
    fn try_push_row_would_block_hands_the_buffer_back() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(1);
        // A multi-millisecond row holds the window full while we probe.
        let first = stream.push_row(vec![1; 2_000_000]);
        let marker: Vec<i64> = vec![7; 8];
        match stream.try_push_row(marker.clone()) {
            Err(e) => {
                assert!(e.to_string().contains("would block"), "{e}");
                assert_eq!(e.into_data(), marker, "buffer must come back untouched");
            }
            Ok(handle) => {
                // The first row won the race and finished already; the
                // probe was admitted instead of blocking — also correct.
                handle.join().1.unwrap();
            }
        }
        first.join().1.unwrap();
        stream.finish().unwrap();
    }

    #[test]
    fn push_row_timeout_admits_once_space_frees() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(1);
        let first = stream.push_row(vec![1; 1_000_000]);
        // Generous budget: the bounded wait must ride out the first row
        // and then admit, never report WouldBlock here.
        let handle = stream
            .push_row_timeout(vec![2; 64], Duration::from_secs(60))
            .expect("space frees within the budget");
        let (data, stats) = handle.join();
        stats.unwrap();
        assert_eq!(data[0], 2);
        assert_eq!(data[63], 2 * 64);
        first.join().1.unwrap();
        stream.finish().unwrap();
    }

    #[test]
    fn try_push_on_closed_stream_resolves_instead_of_would_block() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(1);
        stream.close();
        // Closed is a *final* verdict, not backpressure: the push must
        // succeed with an already-resolved handle, exactly like push_row.
        let handle = stream
            .try_push_row(vec![3; 16])
            .expect("closed stream must not report WouldBlock");
        assert!(handle.is_finished());
        let (data, result) = handle.join();
        assert_eq!(data, vec![3; 16], "buffer untouched on a closed stream");
        assert!(matches!(result, Err(EngineError::Cancelled)));
    }

    #[test]
    fn detached_rows_still_count_in_aggregate_stats() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream();
        for _ in 0..5 {
            stream.push_row(vec![1; 32]).detach();
        }
        let stats = stream.finish().unwrap();
        assert_eq!(stats.rows, 5);
    }
}
