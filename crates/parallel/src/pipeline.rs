//! The one chunk pipeline every chunked runner executes: decoupled
//! look-back on real threads, generic over a [`CarryAlgebra`].
//!
//! This is the paper's Phase 2 mapped onto CPU threads. Workers live in a
//! persistent [`WorkerPool`] and claim chunks in order from an atomic
//! ticket counter. Each worker maps its chunk in place (the FIR stage;
//! cross-boundary inputs are stashed up front), solves it, and publishes
//! its carries: *local* (zero-history) carries when the chunk still needs
//! its predecessor's globals, or *global* carries straight away when it
//! already has real history (chunk 0, a fused chunk, a reset chunk's
//! tail). A chunk that published locals then derives its predecessor's
//! globals by variable look-back over published carries, corrects itself,
//! and publishes its own globals.
//!
//! The three families differ only in their carry algebra:
//!
//! * **constant** coefficients: `k` carries stitched by the §10
//!   [`CorrectionPlan`](plr_core::plan::CorrectionPlan)'s n-nacci
//!   factors, with a decay-truncated plan resetting the chain for free;
//! * **time-varying** coefficients: a `(k+1)×(k+1)` affine carry map per
//!   chunk, with opportunistic fusion when the predecessor's globals are
//!   already published at claim time;
//! * **segmented** inputs: the constant algebra plus a reset floor (the
//!   nearest chunk holding a segment start publishes globals off its
//!   local solve), the all-zero-chunk skip, and a correction clipped at
//!   the first in-chunk boundary.
//!
//! Progress argument (same as the GPU kernel's): tickets are claimed in
//! order, every in-flight chunk publishes one of its carry cells *before*
//! any waiting, and the floor of every walk is a chunk that publishes its
//! globals unconditionally — so the look-back chain can always be
//! resolved and the spin waits are bounded by the pipeline depth (the
//! pool width).

use crate::batch::RowTask;
use crate::pool::{lock_recover, AbortSignal, RunControl, RunError, SendPtr, Tickets, WorkerPool};
use crate::stats::RunStats;
use plr_core::element::Element;
use plr_core::error::EngineError;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a chunk publishes first, straight off its solve.
pub enum Step<T> {
    /// Zero-history local carries: the chunk still needs its
    /// predecessor's globals, a correction over the whole chunk, and a
    /// global publish of its own.
    Local(Vec<T>),
    /// Final global carries, plus the length of the chunk prefix that
    /// still continues the incoming carries and needs correcting (`0`
    /// when none does).
    Global(Vec<T>, usize),
}

impl<T> Step<T> {
    /// Carries solved from zero history: local carries in general, the
    /// final globals of chunk 0, which has nothing to correct.
    pub fn zero_history(c: usize, carries: Vec<T>) -> Self {
        match c {
            0 => Step::Global(carries, 0),
            _ => Step::Local(carries),
        }
    }
}

/// How one family of recurrences solves, stitches, and corrects chunks.
/// Unreachable outside the crate: the runners are its only implementors.
pub trait CarryAlgebra: Sync {
    /// The element type the algebra computes over.
    type Elem: Element;

    /// Elements per chunk.
    fn chunk_size(&self) -> usize;

    /// The input length the plan binds, if it binds one.
    fn bound_len(&self) -> Option<usize> {
        None
    }

    /// Stashes the original inputs each chunk's in-place map reads from
    /// across its left boundary (empty when the map never does).
    fn stash(&self, _data: &[Self::Elem]) -> Vec<Vec<Self::Elem>> {
        Vec::new()
    }

    /// The map stage (the FIR) of chunk `c`, in place, timed into
    /// `fir_nanos`.
    fn map_chunk(
        &self,
        _chunk: &mut [Self::Elem],
        _c: usize,
        _stash: &[Vec<Self::Elem>],
        _fir_nanos: &mut u64,
    ) {
    }

    /// Whether chunks after the first may fuse on a pool of `width`
    /// workers: solve from their predecessor's globals when those are
    /// published at claim time.
    fn fuses(&self, _width: usize) -> bool {
        false
    }

    /// Solves chunk `c` — locally, or from the predecessor's globals
    /// `prev` when fusing; it may also skip the solve outright — and
    /// returns what to publish, or `None` when `keep_going` stopped it.
    fn solve(
        &self,
        c: usize,
        chunk: &mut [Self::Elem],
        prev: Option<&[Self::Elem]>,
        tally: &mut RunStats,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> Option<Step<Self::Elem>>;

    /// Composes the global carries `prev` through chunk `c` (of `len`
    /// elements), whose local carries are `local`.
    fn fixup(
        &self,
        c: usize,
        len: usize,
        prev: &[Self::Elem],
        local: &[Self::Elem],
    ) -> Vec<Self::Elem>;

    /// Corrects (a prefix of) chunk `c` with its predecessor's globals.
    fn correct(&self, c: usize, chunk: &mut [Self::Elem], g: &[Self::Elem]);

    /// The chunk a look-back from chunk `j` stops at: it publishes its
    /// globals unconditionally and carries never cross it.
    fn floor(&self, _j: usize) -> usize {
        0
    }

    /// Whether a chunk of `len` elements resets the chain: its correction
    /// cannot reach its own carries, so its globals equal its locals.
    fn resets_carries(&self, _len: usize) -> bool {
        false
    }

    /// The stats every run of this algebra reports: plan kind, kernel,
    /// correction taps, plan-cache outcome.
    fn base_stats(&self) -> RunStats;
}

/// A carry algebra whose plan binds the row length, so the runner also
/// dispatches whole rows through the batch and stream layers.
pub trait RowAlgebra: CarryAlgebra {
    /// The per-row work unit for this plan.
    fn row_task(plan: &Arc<Self>) -> RowTask<Self::Elem>;
}

/// Per-chunk carry slots, published lock-free through [`OnceLock`].
struct Slot<T> {
    local: OnceLock<Vec<T>>,
    global: OnceLock<Vec<T>>,
}

/// Which carry cell of a [`Slot`] was found published first.
enum Published<'a, T> {
    /// The chunk's global carries (all that chunk 0, fused and reset
    /// chunks ever publish).
    Global(&'a Vec<T>),
    /// The chunk's zero-history local carries.
    Local(&'a Vec<T>),
}

/// Times one closure, adding the elapsed nanoseconds to `slot`.
pub(crate) fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_nanos() as u64;
    out
}

/// Whether every carry in the slice widens to a finite `f64` (always true
/// for integer elements).
fn all_finite<T: Element>(carries: &[T]) -> bool {
    carries.iter().all(|&c| c.to_f64().is_finite())
}

/// The run-invariant state every worker of one pipeline run shares.
struct Run<'a, A: CarryAlgebra> {
    alg: &'a A,
    n: usize,
    slots: Vec<Slot<A::Elem>>,
    stash: Vec<Vec<A::Elem>>,
    check_finite: bool,
    failure: OnceLock<EngineError>,
}

/// Runs the look-back pipeline of `alg` over `data` on `pool`, under
/// `ctl`'s cancel link and deadline. `check_finite` aborts a float run
/// whose carries go NaN or infinite.
pub(crate) fn run<A: CarryAlgebra>(
    alg: &A,
    data: &mut [A::Elem],
    pool: &WorkerPool,
    ctl: &RunControl,
    check_finite: bool,
) -> Result<RunStats, EngineError> {
    let n = data.len();
    let num_chunks = n.div_ceil(alg.chunk_size());
    let run = Run {
        alg,
        n,
        slots: (0..num_chunks)
            .map(|_| Slot {
                local: OnceLock::new(),
                global: OnceLock::new(),
            })
            .collect(),
        stash: alg.stash(data),
        check_finite: check_finite && A::Elem::IS_FLOAT,
        failure: OnceLock::new(),
    };
    // Per-worker phase times and counters, merged once per job to keep
    // shared-memory traffic off the per-chunk path.
    let totals = Mutex::new(RunStats::default());
    let tickets = Tickets::new(num_chunks);
    // Debug builds check the invariant the `unsafe` slicing below rests
    // on: every chunk is claimed exactly once.
    #[cfg(debug_assertions)]
    let claimed: Vec<AtomicBool> = (0..num_chunks).map(|_| Default::default()).collect();
    let base = SendPtr::new(data.as_mut_ptr());
    let recovered_before = pool.recovered_workers();

    let outcome = pool.run_ctl(ctl, |worker, abort| {
        // Read once per job, after the submission's heal pass.
        let width = pool.width();
        let mut tally = RunStats::default();
        while let Some(c) = tickets.claim() {
            #[cfg(debug_assertions)]
            assert!(
                !claimed[c].swap(true, Ordering::Relaxed),
                "chunk {c} claimed twice"
            );
            let start = c * alg.chunk_size();
            let len = alg.chunk_size().min(n - start);
            // SAFETY: tickets are unique, so chunk `c` is exclusively
            // ours; `base` outlives `pool.run_ctl` (it blocks until every
            // worker finishes, even when one of them panics).
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(start), len) };
            // An aborted run (a worker died, a check failed, a cancel or
            // deadline fired) stops touching data so it can surface its
            // error promptly.
            if abort.is_aborted() || !run.chunk(c, chunk, width, worker, abort, &mut tally) {
                tally.aborts += 1;
                break;
            }
        }
        lock_recover(&totals).absorb(&tally);
    });

    outcome.map_err(RunError::into_engine_error)?;
    if let Some(e) = run.failure.into_inner() {
        return Err(e);
    }
    #[cfg(debug_assertions)]
    assert!(
        claimed.iter().all(|c| c.load(Ordering::Relaxed)),
        "a successful run left a chunk unclaimed"
    );
    let mut stats = RunStats {
        rows: 1,
        chunks: num_chunks as u64,
        threads: pool.width() as u64,
        workers_recovered: pool.recovered_workers() - recovered_before,
        ..alg.base_stats()
    };
    stats.absorb(&totals.into_inner().expect("no worker panicked"));
    Ok(stats)
}

impl<A: CarryAlgebra> Run<'_, A> {
    /// Processes chunk `c` end to end; `false` means the run was aborted
    /// (by us or by someone else) and the worker must stop.
    fn chunk(
        &self,
        c: usize,
        chunk: &mut [A::Elem],
        width: usize,
        _worker: usize,
        abort: &AbortSignal,
        tally: &mut RunStats,
    ) -> bool {
        let alg = self.alg;
        alg.map_chunk(chunk, c, &self.stash, &mut tally.fir_nanos);
        let prev = match c {
            0 => None,
            _ if alg.fuses(width) => self.slots[c - 1].global.get().map(Vec::as_slice),
            _ => None,
        };
        #[cfg(feature = "fault-inject")]
        crate::fault::check(crate::fault::FaultSite::Solve, _worker, c, Some(abort));
        // The solve is time-sliced so a cancel or deadline lands
        // mid-chunk, not after it.
        let start = Instant::now();
        let step = alg.solve(c, chunk, prev, tally, &mut || !abort.is_aborted());
        tally.solve_nanos += start.elapsed().as_nanos() as u64;
        let slot = &self.slots[c];
        let (limit, corrected_publishes) = match step {
            None => return false,
            Some(Step::Local(locals)) => {
                if !self.finite(c, &locals, abort) {
                    return false;
                }
                slot.local
                    .set(locals)
                    .expect("sole producer of local carries");
                (chunk.len(), true)
            }
            Some(Step::Global(globals, limit)) => {
                if !self.finite(c, &globals, abort) {
                    return false;
                }
                slot.global
                    .set(globals)
                    .expect("sole producer of first-published globals");
                (limit, false)
            }
        };
        if limit == 0 {
            return true;
        }
        #[cfg(feature = "fault-inject")]
        crate::fault::check(crate::fault::FaultSite::Lookback, _worker, c, Some(abort));
        let start = Instant::now();
        let g = self.resolve(c - 1, abort, tally);
        tally.lookback_nanos += start.elapsed().as_nanos() as u64;
        // `None`: the run was aborted while we waited on carries that
        // will never be published.
        let Some(g) = g else { return false };
        timed(&mut tally.correct_nanos, || {
            alg.correct(c, &mut chunk[..limit], &g)
        });
        if !corrected_publishes {
            return true;
        }
        // Publish the composition of `g` through our locals — the value
        // every look-back through this chunk derives — rather than the
        // corrected tail: the correction kernels may round differently
        // (fused multiply-adds), and float carries must not depend on
        // which path produced them.
        let locals = slot.local.get().expect("published above");
        let globals = alg.fixup(c, chunk.len(), &g, locals);
        if !self.finite(c, &globals, abort) {
            return false;
        }
        slot.global
            .set(globals)
            .expect("sole producer of corrected globals");
        true
    }

    /// The opt-in finiteness check: records the failure and aborts the
    /// run when a carry is NaN or infinite.
    fn finite(&self, c: usize, carries: &[A::Elem], abort: &AbortSignal) -> bool {
        if self.check_finite && !all_finite(carries) {
            let _ = self.failure.set(EngineError::NonFiniteCarry { chunk: c });
            abort.trigger();
            return false;
        }
        true
    }

    /// Derives the global carries of chunk `j` from published state: walks
    /// back to the nearest chunk with published globals, never past the
    /// algebra's floor (spinning there if necessary), then composes
    /// forward through each later chunk's local carries — or restarts
    /// from its globals when it publishes none (a fused chunk). Composing
    /// through locals keeps float rounding off the race between a
    /// chunk's owner and its successors.
    ///
    /// When chunk `j`'s correction cannot reach its own carries (a
    /// decay-truncated plan), its globals equal its locals: the chain
    /// resets there and the walk collapses to a single wait.
    ///
    /// Returns `None` when the run was aborted while waiting on carries
    /// that will never be published (a dead worker claimed the chunk that
    /// owned them).
    fn resolve(&self, j: usize, abort: &AbortSignal, tally: &mut RunStats) -> Option<Vec<A::Elem>> {
        let m = self.alg.chunk_size();
        let len = |h: usize| m.min(self.n - h * m);
        let floor = self.alg.floor(j);
        if floor < j && self.alg.resets_carries(len(j)) {
            let (Published::Global(g) | Published::Local(g)) =
                wait_for_either(&self.slots[j], &mut tally.spin_waits, abort)?;
            tally.carry_resets += 1;
            tally.max_lookback_depth = tally.max_lookback_depth.max(1);
            return Some(g.clone());
        }
        let mut start = j;
        while start > floor && self.slots[start].global.get().is_none() {
            start -= 1;
        }
        let mut g = match self.slots[start].global.get() {
            Some(g) => g,
            // The floor's only carry cell is its globals, which it
            // publishes unconditionally.
            None => match wait_for_either(&self.slots[floor], &mut tally.spin_waits, abort)? {
                Published::Global(g) | Published::Local(g) => g,
            },
        }
        .clone();
        tally.lookback_hops += 1;
        tally.max_lookback_depth = tally.max_lookback_depth.max((j - start + 1) as u64);
        for h in start + 1..=j {
            g = match wait_for_either(&self.slots[h], &mut tally.spin_waits, abort)? {
                Published::Local(lv) => self.alg.fixup(h, len(h), &g, lv),
                Published::Global(gv) => gv.clone(),
            };
            tally.lookback_hops += 1;
        }
        Some(g)
    }
}

/// Spins (with yields) until *either* carry cell of `slot` is published,
/// preferring the local, or `None` once the run is aborted. The abort
/// flag is polled only on the yield slots (every 64th iteration), keeping
/// the fast path a pure `spin_loop`.
fn wait_for_either<'a, T>(
    slot: &'a Slot<T>,
    spins: &mut u64,
    abort: &AbortSignal,
) -> Option<Published<'a, T>> {
    let mut tries = 0u64;
    loop {
        if let Some(v) = slot.local.get() {
            *spins += tries;
            return Some(Published::Local(v));
        }
        if let Some(v) = slot.global.get() {
            *spins += tries;
            return Some(Published::Global(v));
        }
        tries += 1;
        if tries.is_multiple_of(64) {
            if abort.is_aborted() {
                *spins += tries;
                return None;
            }
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}
