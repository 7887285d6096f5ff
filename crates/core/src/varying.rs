//! Time-varying / affine recurrences lowered onto the chunk machinery.
//!
//! The constant-coefficient engines solve `y[i] = x[i] + Σ_j b_j·y[i-j]`
//! with one coefficient vector for the whole input. This module lifts the
//! same chunk/carry decomposition to **per-element** coefficients
//!
//! ```text
//! y[i] = x[i] + d[i] + Σ_{j=1..k} a_j[i] · y[i-j]
//! ```
//!
//! (the optional `d[i]` is the affine offset), the form selective
//! state-space models (Mamba-style gates, `k = 1`) and adaptive IIR
//! filters (`k = 2`) take.
//!
//! ## Carry algebra: from `k` scalars to a `k×k` matrix
//!
//! With constant coefficients a chunk's effect on the carry state is
//! captured by `k` n-nacci factor lists hoisted to plan time. With
//! varying coefficients the factors differ per element, but the state
//! vector `s[i] = (y[i], …, y[i-k+1])` still advances linearly:
//! `s[i] = C_i · s[i-1] + z[i]·e₀` where `C_i` is the companion matrix of
//! element `i`'s row and `z[i] = x[i] + d[i]`. Over a chunk spanning
//! `[t, t+L)` this composes to
//!
//! ```text
//! s_end = M_chunk · s_start + s_local,   M_chunk = C_{t+L-1} ··· C_t
//! ```
//!
//! with `s_local` the state the chunk produces from a zero start (its
//! *local* solve). `M_chunk` depends only on the coefficients — never the
//! input — so [`VaryingPlan::build`] hoists every chunk's transition
//! matrix to plan time via the incremental `O(k²)`-per-element
//! [`Matrix::companion_push`] product, exactly as the constant path
//! hoists its factor tables. At run time the carry chain is `k`-vector
//! fix-ups (`M·g + local`), and each chunk's per-element correction is a
//! forward companion pass (`O(k)` per element), not a matrix product.
//!
//! ## The affine term as a homogeneous block
//!
//! Folding the offset stream into the input (`z = x + d`) keeps the
//! lowering linear, and the chunk's *action on the carry* is then the
//! affine map `g ↦ M_chunk·g + s_local`. [`AffineMap`] is that algebra
//! made explicit: composition and application agree with embedding the
//! map as the `(k+1)×(k+1)` homogeneous block `[[M, b], [0, 1]]`
//! ([`AffineMap::to_homogeneous`]), which is how the affine term rides
//! the same associative machinery — the offset column is just the last
//! column of the homogeneous matrix.
//!
//! ## Fast paths
//!
//! * **Order-1 block scan** (the Mamba case): the state is one scalar, so
//!   no matrix machinery is needed. For `f64` under the `auto`/`simd`
//!   tiers on an AVX2+FMA CPU the local solve is
//!   [`simd::varying_scan_with`]: each 4-lane vector scans its affine
//!   pairs `(a[i], z[i])` in registers, two vectors compose into an
//!   8-element block, and the only serial dependency is one FMA and one
//!   permute per block. A chunk takes it only when every gate is finite
//!   and zero or of magnitude within `[2⁻⁶⁴, 2⁶⁴]`, so the composed gate
//!   products neither overflow nor underflow where the scalar chain
//!   would not. Everything else — forced `scalar`/`blocked` tiers, CPUs
//!   without AVX2, `f32` and integers, chunks with other gates — runs
//!   the scalar loop `y[i] = a[i]·prev + z[i]`. The correction is
//!   `v *= a[i]; y[i] += v`.
//! * **Constant chunks**: a chunk whose coefficient rows are all equal is
//!   a constant-coefficient solve, so the plan selects a register-blocked
//!   / SIMD [`SolveKernel`] for it directly (no [`crate::plan`] involved
//!   — varying signatures never touch the correction-plan cache) and its
//!   transition matrix collapses to a companion power.

use std::sync::Arc;

use crate::blocked::{SolveKernel, MAX_BLOCKED_ORDER, SOLVE_SLICE};
use crate::companion::Matrix;
use crate::element::Element;
use crate::engine::{CarryPropagation, EngineConfig, MAX_INPUT_LEN};
use crate::error::EngineError;
use crate::kernel::KernelKind;
use crate::simd::{self, Isa};

/// Cap on distinct per-chunk constant-row kernels one plan will build;
/// chunks beyond it fall back to the varying solve (block scan or scalar
/// loop). Real workloads with constant stretches use one or two distinct
/// rows.
const MAX_DISTINCT_KERNELS: usize = 16;

/// Elements between the exact-zero horizon tests of
/// [`VaryingPlan::correct_chunk`]: the correction pass stops at the first
/// multiple of this (from the chunk start) where its carry is exactly zero.
pub const HORIZON_STRIDE: usize = 64;

/// Gate magnitudes the order-1 lane kernel accepts besides exact zero:
/// `[2⁻⁶⁴, 2⁶⁴]`. A product of the up-to-8 gates one block scan composes
/// then stays within `[2⁻⁵¹², 2⁵¹²]` — no overflow, no precision lost to
/// underflow — so the block scan tracks the scalar chain wherever the
/// chain itself stays in range.
const LANE_GATE_MIN: f64 = 5.421_010_862_427_522e-20;
const LANE_GATE_MAX: f64 = 18_446_744_073_709_551_616.0;

/// A time-varying (and optionally affine) recurrence of order `k`, bound
/// to a fixed input length: one `k`-coefficient feedback row per element,
/// plus an optional per-element offset stream.
///
/// Cloning is cheap — the coefficient and offset streams are shared.
#[derive(Debug, Clone)]
pub struct VaryingSignature<T> {
    order: usize,
    len: usize,
    /// Row-major: `coeffs[i·k + (j-1)]` is `a_j[i]`, the weight of
    /// `y[i-j]` when producing `y[i]`.
    coeffs: Arc<[T]>,
    offsets: Option<Arc<[T]>>,
}

impl<T: Element> VaryingSignature<T> {
    /// Builds an order-`k` varying signature from row-major coefficients
    /// (`coeffs[i·k + (j-1)] = a_j[i]`); the bound length is
    /// `coeffs.len() / order`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedSignature`] when `order == 0` or
    /// `coeffs.len()` is not a multiple of `order`.
    pub fn new(order: usize, coeffs: Vec<T>) -> Result<Self, EngineError> {
        if order == 0 {
            return Err(EngineError::UnsupportedSignature {
                reason: "varying signatures need order >= 1".into(),
            });
        }
        if !coeffs.len().is_multiple_of(order) {
            return Err(EngineError::UnsupportedSignature {
                reason: format!(
                    "coefficient stream of {} values is not a whole number of order-{order} rows",
                    coeffs.len()
                ),
            });
        }
        let len = coeffs.len() / order;
        Ok(VaryingSignature {
            order,
            len,
            coeffs: coeffs.into(),
            offsets: None,
        })
    }

    /// The order-1 convenience form: `y[i] = gates[i]·y[i-1] + x[i]`, the
    /// selective-scan shape.
    ///
    /// # Errors
    ///
    /// Never fails for order 1; the `Result` mirrors [`Self::new`].
    pub fn first_order(gates: Vec<T>) -> Result<Self, EngineError> {
        Self::new(1, gates)
    }

    /// Attaches a per-element affine offset stream `d` (the recurrence
    /// gains a `+ d[i]` term).
    ///
    /// # Errors
    ///
    /// [`EngineError::LengthMismatch`] when `offsets.len()` differs from
    /// the signature's bound length.
    pub fn with_offsets(mut self, offsets: Vec<T>) -> Result<Self, EngineError> {
        if offsets.len() != self.len {
            return Err(EngineError::LengthMismatch {
                expected: self.len,
                got: offsets.len(),
            });
        }
        self.offsets = Some(offsets.into());
        Ok(self)
    }

    /// The recurrence order `k`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The input length this signature is bound to.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bound length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The full row-major coefficient stream.
    pub fn coeffs(&self) -> &[T] {
        &self.coeffs
    }

    /// Element `i`'s feedback row (`k` coefficients, lag 1 first).
    pub fn row(&self, i: usize) -> &[T] {
        &self.coeffs[i * self.order..(i + 1) * self.order]
    }

    /// The affine offset stream, if one is attached.
    pub fn offsets(&self) -> Option<&[T]> {
        self.offsets.as_deref()
    }

    /// When every row in `[start, end)` is identical, that row.
    pub fn constant_row_in(&self, start: usize, end: usize) -> Option<&[T]> {
        let first = self.row(start);
        for i in start + 1..end {
            if self.row(i) != first {
                return None;
            }
        }
        Some(first)
    }
}

/// The naive serial evaluator — the differential-testing oracle and the
/// benchmark baseline. Deliberately the obvious loop: per-element row
/// slicing, bounds-checked taps, no specialization.
///
/// # Errors
///
/// [`EngineError::LengthMismatch`] when `input.len()` differs from the
/// signature's bound length.
pub fn reference<T: Element>(
    sig: &VaryingSignature<T>,
    input: &[T],
) -> Result<Vec<T>, EngineError> {
    if input.len() != sig.len() {
        return Err(EngineError::LengthMismatch {
            expected: sig.len(),
            got: input.len(),
        });
    }
    let mut out = input.to_vec();
    for i in 0..out.len() {
        let mut acc = out[i];
        if let Some(d) = sig.offsets() {
            acc = acc.add(d[i]);
        }
        for (j, &a) in sig.row(i).iter().enumerate() {
            if i > j {
                acc = acc.add(a.mul(out[i - 1 - j]));
            }
        }
        out[i] = acc;
    }
    Ok(out)
}

/// An affine map `v ↦ M·v + b` on carry states — a chunk's action on the
/// incoming carry in the time-varying lowering.
///
/// Composition is associative and agrees with multiplying the homogeneous
/// `(k+1)×(k+1)` embeddings `[[M, b], [0, 1]]`; see
/// [`AffineMap::to_homogeneous`].
#[derive(Debug, Clone, PartialEq)]
pub struct AffineMap<T> {
    matrix: Matrix<T>,
    offset: Vec<T>,
}

impl<T: Element> AffineMap<T> {
    /// Builds the map `v ↦ matrix·v + offset`.
    ///
    /// # Panics
    ///
    /// Panics when the offset length differs from the matrix dimension.
    pub fn new(matrix: Matrix<T>, offset: Vec<T>) -> Self {
        assert_eq!(matrix.dim(), offset.len(), "dimension mismatch");
        AffineMap { matrix, offset }
    }

    /// The identity map of dimension `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn identity(k: usize) -> Self {
        AffineMap {
            matrix: Matrix::identity(k),
            offset: vec![T::zero(); k],
        }
    }

    /// The state dimension `k`.
    pub fn dim(&self) -> usize {
        self.matrix.dim()
    }

    /// The linear part.
    pub fn matrix(&self) -> &Matrix<T> {
        &self.matrix
    }

    /// The translation part.
    pub fn offset(&self) -> &[T] {
        &self.offset
    }

    /// Applies the map: `matrix·v + offset`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply(&self, v: &[T]) -> Vec<T> {
        let mut out = self.matrix.apply(v);
        for (o, &b) in out.iter_mut().zip(&self.offset) {
            *o = o.add(b);
        }
        out
    }

    /// Sequential composition: the map that applies `self` first, then
    /// `later` (`later ∘ self`): matrix `M₂M₁`, offset `M₂b₁ + b₂`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn then(&self, later: &AffineMap<T>) -> AffineMap<T> {
        let matrix = later.matrix.mul(&self.matrix);
        let mut offset = later.matrix.apply(&self.offset);
        for (o, &b) in offset.iter_mut().zip(&later.offset) {
            *o = o.add(b);
        }
        AffineMap { matrix, offset }
    }

    /// The `(k+1)×(k+1)` homogeneous embedding `[[M, b], [0, 1]]`:
    /// composing affine maps is multiplying these blocks, and applying
    /// one is multiplying against `(v, 1)`.
    pub fn to_homogeneous(&self) -> Matrix<T> {
        let k = self.dim();
        let h = k + 1;
        let mut data = vec![T::zero(); h * h];
        for i in 0..k {
            for j in 0..k {
                data[i * h + j] = self.matrix.get(i, j);
            }
            data[i * h + k] = self.offset[i];
        }
        data[k * h + k] = T::one();
        Matrix::from_parts(h, data)
    }
}

/// The state after running `chunk` from `prev`: the chunk's last
/// `min(k, len)` outputs (most recent first), back-filled from `prev` when
/// the chunk is shorter than the order.
pub fn advance_state<T: Element>(prev: &[T], chunk: &[T], k: usize) -> Vec<T> {
    let take = k.min(chunk.len());
    let mut state: Vec<T> = chunk.iter().rev().take(take).copied().collect();
    state.extend_from_slice(&prev[..k - take]);
    state
}

/// Solves the varying recurrence over `data` in place with the scalar
/// loops, continuing from `state` (`state[0]` is the value just before
/// `data[0]`, `k` entries; zeros for a cold start). `start` is
/// `data[0]`'s global index into the signature. Offsets are folded on
/// the fly.
///
/// The one path for orders ≥ 2, non-`f64` elements and forced
/// `scalar`/`blocked` tiers; order-1 `f64` chunks reach it only when the
/// block scan is unavailable or one of their gates is out of its range
/// (see the module's fast paths).
fn solve_span<T: Element>(sig: &VaryingSignature<T>, start: usize, state: &[T], data: &mut [T]) {
    let k = sig.order();
    if k == 1 {
        // The order-1 fused scan fast path: one scalar of state.
        let a = sig.coeffs();
        let mut prev = state[0];
        match sig.offsets() {
            Some(d) => {
                for (i, y) in data.iter_mut().enumerate() {
                    let gi = start + i;
                    prev = y.add(d[gi]).add(a[gi].mul(prev));
                    *y = prev;
                }
            }
            None => {
                for (i, y) in data.iter_mut().enumerate() {
                    prev = y.add(a[start + i].mul(prev));
                    *y = prev;
                }
            }
        }
        return;
    }
    let head = k.min(data.len());
    for i in 0..head {
        let gi = start + i;
        let mut acc = data[i];
        if let Some(d) = sig.offsets() {
            acc = acc.add(d[gi]);
        }
        for (j, &a) in sig.row(gi).iter().enumerate() {
            let v = if j < i { data[i - 1 - j] } else { state[j - i] };
            acc = acc.add(a.mul(v));
        }
        data[i] = acc;
    }
    for i in head..data.len() {
        let gi = start + i;
        let mut acc = data[i];
        if let Some(d) = sig.offsets() {
            acc = acc.add(d[gi]);
        }
        for (j, &a) in sig.row(gi).iter().enumerate() {
            acc = acc.add(a.mul(data[i - 1 - j]));
        }
        data[i] = acc;
    }
}

/// Whether every coefficient of a row is finite (always for integers).
fn row_finite<T: Element>(row: &[T]) -> bool {
    !T::IS_FLOAT || row.iter().all(|a| a.to_f64().is_finite())
}

/// Whether the order-1 lane kernel may take gate `a`: exactly zero, or
/// a magnitude in `[LANE_GATE_MIN, LANE_GATE_MAX]` (so finite).
fn lane_gate<T: Element>(a: T) -> bool {
    let m = a.to_f64().abs();
    m == 0.0 || (LANE_GATE_MIN..=LANE_GATE_MAX).contains(&m)
}

/// How one chunk's local solve runs.
#[derive(Debug, Clone, Copy)]
enum ChunkSolver {
    /// Every row equal: the constant-row kernel at this index of
    /// `VaryingPlan::kernels`.
    Constant(u16),
    /// Order 1, every gate a [`lane_gate`]: the block-scan kernel of
    /// [`simd::varying_scan_with`] on this ISA.
    Lanes(Isa),
    /// The scalar varying loop ([`solve_span`]).
    Scalar,
}

/// Outcome of [`VaryingPlan::solve_chunk`].
#[derive(Debug, Clone, PartialEq)]
pub struct VaryingSolve<T> {
    /// `false` when the poll callback stopped the solve early (solved
    /// prefix, untouched remainder — mirrors
    /// [`crate::blocked::SlicedSolve`]).
    pub completed: bool,
    /// Poll slices processed.
    pub slices: u64,
    /// Which kernel class solved this chunk: a constant-row
    /// blocked/SIMD/scalar kernel, the order-1 block scan's ISA, or
    /// [`KernelKind::Scalar`] for the varying loop.
    pub kernel: KernelKind,
    /// The carry state after the chunk (meaningless when
    /// `completed == false`).
    pub state: Vec<T>,
}

/// Per-chunk geometry of a [`VaryingSignature`], with everything that
/// depends only on the coefficients hoisted out of the run path: the
/// chunk transition matrices (the generalized carries) and each chunk's
/// local-solve kernel — a constant-coefficient [`SolveKernel`] for chunks
/// whose rows are all equal, the order-1 block scan for `f64` gate
/// chunks, the scalar varying loop otherwise.
///
/// Kernels are selected directly — a varying plan never consults (or
/// populates) the constant path's correction-plan cache.
#[derive(Debug)]
pub struct VaryingPlan<T> {
    sig: VaryingSignature<T>,
    chunk_size: usize,
    matrices: Vec<Matrix<T>>,
    kernels: Vec<SolveKernel<T>>,
    solvers: Vec<ChunkSolver>,
    /// Per chunk: every coefficient is finite, so a carry that reaches
    /// exactly zero stays zero (the correction's horizon may end it).
    finite: Vec<bool>,
}

impl<T: Element> VaryingPlan<T> {
    /// Builds the plan: classifies every chunk (constant rows → their
    /// kernel; order-1 gates → the block scan where the effective tier
    /// and [`simd::varying_scan_isa`] allow it and every gate is finite
    /// and in range; the scalar loop otherwise) and composes every
    /// chunk's transition matrix.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidChunkSize`] when `chunk_size` is zero or
    /// smaller than the order; [`EngineError::InputTooLarge`] when the
    /// signature's bound length exceeds [`MAX_INPUT_LEN`].
    pub fn build(sig: VaryingSignature<T>, chunk_size: usize) -> Result<Self, EngineError> {
        if chunk_size == 0 || chunk_size < sig.order() {
            return Err(EngineError::InvalidChunkSize { chunk_size });
        }
        if sig.len() > MAX_INPUT_LEN {
            return Err(EngineError::InputTooLarge {
                len: sig.len(),
                max: MAX_INPUT_LEN,
            });
        }
        let k = sig.order();
        let n = sig.len();
        let m = chunk_size;
        let num_chunks = n.div_ceil(m);
        let mut matrices = Vec::with_capacity(num_chunks);
        let lanes = if k == 1 {
            simd::varying_scan_isa::<T>()
        } else {
            None
        };
        let mut kernels: Vec<SolveKernel<T>> = Vec::new();
        let mut solvers = Vec::with_capacity(num_chunks);
        let mut finite = Vec::with_capacity(num_chunks);
        for c in 0..num_chunks {
            let start = c * m;
            let len = m.min(n - start);
            let constant = sig.constant_row_in(start, start + len);
            let kernel = match constant {
                Some(row) if T::BLOCKABLE && k <= MAX_BLOCKED_ORDER => {
                    match kernels.iter().position(|kn| kn.feedback() == row) {
                        Some(i) => Some(i as u16),
                        None if kernels.len() < MAX_DISTINCT_KERNELS => {
                            kernels.push(SolveKernel::select(row));
                            Some((kernels.len() - 1) as u16)
                        }
                        None => None,
                    }
                }
                _ => None,
            };
            let (matrix, all_finite) = match constant {
                // A constant chunk's transition is a companion power.
                Some(row) => (Matrix::companion(row).pow(len as u64), row_finite(row)),
                None => {
                    let mut mtx = Matrix::identity(k);
                    let mut all_finite = true;
                    for i in start..start + len {
                        all_finite &= row_finite(sig.row(i));
                        mtx.companion_push(sig.row(i));
                    }
                    (mtx, all_finite)
                }
            };
            matrices.push(matrix);
            finite.push(all_finite);
            solvers.push(match (kernel, lanes) {
                (Some(i), _) => ChunkSolver::Constant(i),
                (None, Some(isa))
                    if sig.coeffs()[start..start + len]
                        .iter()
                        .all(|&a| lane_gate(a)) =>
                {
                    ChunkSolver::Lanes(isa)
                }
                _ => ChunkSolver::Scalar,
            });
        }
        Ok(VaryingPlan {
            sig,
            chunk_size,
            matrices,
            kernels,
            solvers,
            finite,
        })
    }

    /// The signature this plan lowers.
    pub fn signature(&self) -> &VaryingSignature<T> {
        &self.sig
    }

    /// The recurrence order `k`.
    pub fn order(&self) -> usize {
        self.sig.order()
    }

    /// The bound input length.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Whether the bound length is zero.
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// The chunk size the matrices were composed for.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.matrices.len()
    }

    /// Chunk `c`'s precomputed transition matrix `M_c`.
    pub fn matrix(&self, c: usize) -> &Matrix<T> {
        &self.matrices[c]
    }

    /// The kernel class chunk `c`'s local solve dispatches to.
    pub fn chunk_kernel_kind(&self, c: usize) -> KernelKind {
        match self.solvers[c] {
            ChunkSolver::Constant(i) => self.kernels[i as usize].kind(),
            ChunkSolver::Lanes(isa) => isa.kind(),
            ChunkSolver::Scalar => KernelKind::Scalar,
        }
    }

    /// The kernel summary across chunks: the single class every chunk
    /// shares, or [`KernelKind::Mixed`] when chunks solve on different
    /// kernels (constant-row kernels, the block scan, the scalar loop).
    pub fn aggregate_kernel_kind(&self) -> KernelKind {
        let mut agg: Option<KernelKind> = None;
        for c in 0..self.num_chunks() {
            let k = self.chunk_kernel_kind(c);
            agg = match agg {
                None => Some(k),
                Some(prev) if prev == k => Some(k),
                Some(_) => return KernelKind::Mixed,
            };
        }
        agg.unwrap_or(KernelKind::Scalar)
    }

    /// Chunk `c`'s action on the incoming carry state once its local
    /// state is known: `g ↦ M_c·g + local`.
    pub fn chunk_map(&self, c: usize, local: Vec<T>) -> AffineMap<T> {
        AffineMap::new(self.matrices[c].clone(), local)
    }

    /// Fixes chunk `c`'s incoming global state forward: `M_c·prev + local`
    /// (the in-place form of [`Self::chunk_map`]'s application).
    pub fn fixup_state(&self, c: usize, prev: &[T], local: &[T]) -> Vec<T> {
        let mut g = self.matrices[c].apply(prev);
        for (g, &l) in g.iter_mut().zip(local) {
            *g = g.add(l);
        }
        g
    }

    /// Solves chunk `c` in place, continuing from `state` (`None` for the
    /// decoupled zero-state local solve). Constant-row chunks dispatch to
    /// their selected kernel and block-scan chunks to the lane kernel,
    /// each after folding the offsets into the slice; the scalar loop
    /// folds them on the fly. Time-sliced: `keep_going` is polled between
    /// [`SOLVE_SLICE`]-element slices so cancels land mid-chunk.
    pub fn solve_chunk(
        &self,
        c: usize,
        state: Option<&[T]>,
        data: &mut [T],
        keep_going: &mut dyn FnMut() -> bool,
    ) -> VaryingSolve<T> {
        let k = self.sig.order();
        let start = c * self.chunk_size;
        let solver = self.solvers[c];
        let kind = self.chunk_kernel_kind(c);
        let mut st: Vec<T> = match state {
            Some(s) => s.to_vec(),
            None => vec![T::zero(); k],
        };
        let mut slices = 0u64;
        let mut off = 0;
        while off < data.len() {
            if slices > 0 && !keep_going() {
                return VaryingSolve {
                    completed: false,
                    slices,
                    kernel: kind,
                    state: st,
                };
            }
            let end = (off + SOLVE_SLICE).min(data.len());
            let window = &mut data[off..end];
            let (lo, hi) = (start + off, start + end);
            if let (ChunkSolver::Constant(_) | ChunkSolver::Lanes(_), Some(d)) =
                (solver, self.sig.offsets())
            {
                for (w, &dd) in window.iter_mut().zip(&d[lo..hi]) {
                    *w = w.add(dd);
                }
            }
            match solver {
                ChunkSolver::Constant(i) => {
                    self.kernels[i as usize].solve_in_place_with_history(&st, window);
                }
                ChunkSolver::Lanes(isa) => {
                    let gates = &self.sig.coeffs()[lo..hi];
                    let ran = simd::varying_scan_with(isa, gates, window, st[0]);
                    assert!(ran, "the plan selected an unavailable lane kernel");
                }
                ChunkSolver::Scalar => solve_span(&self.sig, lo, &st, window),
            }
            st = advance_state(&st, window, k);
            off = end;
            slices += 1;
        }
        VaryingSolve {
            completed: true,
            slices,
            kernel: kind,
            state: st,
        }
    }

    /// Adds the boundary correction to a locally-solved chunk `c`: the
    /// forward companion pass `v ← C_i·v`, `y[i] += v[0]`, seeded with
    /// the predecessor's global state. `O(k)` per element; the order-1
    /// fast path is the scalar loop `v *= a[i]; y[i] += v`.
    ///
    /// The pass ends at the exact-zero horizon in chunks whose
    /// coefficients are all finite: once the running carry vector `v` is
    /// exactly zero, `0·a[i]` stays zero and every remaining `y[i] += 0`
    /// is a no-op (the time-varying analogue of truncating a decayed
    /// factor list). `v` is tested every [`HORIZON_STRIDE`] elements, so
    /// a pass that never reaches zero pays one test per stride, not one
    /// per element. The one visible difference is that a `-0.0` output
    /// past the stride where the pass stopped keeps its sign instead of
    /// becoming `+0.0`.
    pub fn correct_chunk(&self, c: usize, carry: &[T], data: &mut [T]) {
        let k = self.sig.order();
        let start = c * self.chunk_size;
        let horizon = self.finite[c];
        if k == 1 {
            let a = &self.sig.coeffs()[start..start + data.len()];
            let mut v = carry[0];
            for (ys, a) in data
                .chunks_mut(HORIZON_STRIDE)
                .zip(a.chunks(HORIZON_STRIDE))
            {
                if horizon && v.is_zero() {
                    return;
                }
                for (y, &ai) in ys.iter_mut().zip(a) {
                    v = v.mul(ai);
                    *y = y.add(v);
                }
            }
            return;
        }
        let mut v = carry.to_vec();
        for (b, ys) in data.chunks_mut(HORIZON_STRIDE).enumerate() {
            if horizon && v.iter().all(|x| x.is_zero()) {
                return;
            }
            for (i, y) in ys.iter_mut().enumerate() {
                let row = self.sig.row(start + b * HORIZON_STRIDE + i);
                let mut head = T::zero();
                for (j, &a) in row.iter().enumerate() {
                    head = head.add(a.mul(v[j]));
                }
                for j in (1..k).rev() {
                    v[j] = v[j - 1];
                }
                v[0] = head;
                *y = y.add(head);
            }
        }
    }
}

/// The serial chunked executor for time-varying recurrences — the
/// single-thread counterpart of the parallel varying runner, wired
/// through the same [`EngineConfig`] the constant [`crate::Engine`]
/// takes.
///
/// `carry_propagation` selects between the fused sequential sweep
/// (chunks continue from real state — no corrections at all) and the
/// decoupled three-stage form (local solves, matrix carry chain,
/// per-chunk corrections) that the parallel strategies distribute.
/// `local_solve` and `flush_denormals` are inert here: within a chunk
/// there are no lanes to double across, and varying coefficients are
/// used exactly as given.
#[derive(Debug)]
pub struct VaryingEngine<T> {
    plan: Arc<VaryingPlan<T>>,
    config: EngineConfig,
}

impl<T: Element> VaryingEngine<T> {
    /// Creates an engine with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`VaryingPlan::build`].
    pub fn new(signature: VaryingSignature<T>) -> Result<Self, EngineError> {
        Self::with_config(signature, EngineConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    ///
    /// # Errors
    ///
    /// See [`VaryingPlan::build`].
    pub fn with_config(
        signature: VaryingSignature<T>,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        let plan = VaryingPlan::build(signature, config.chunk_size)?;
        Ok(VaryingEngine {
            plan: Arc::new(plan),
            config,
        })
    }

    /// The signature this engine is bound to.
    pub fn signature(&self) -> &VaryingSignature<T> {
        self.plan.signature()
    }

    /// The underlying chunk plan.
    pub fn plan(&self) -> &Arc<VaryingPlan<T>> {
        &self.plan
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the recurrence over `input`.
    ///
    /// # Errors
    ///
    /// See [`Self::run_in_place`].
    pub fn run(&self, input: &[T]) -> Result<Vec<T>, EngineError> {
        let mut data = input.to_vec();
        self.run_in_place(&mut data)?;
        Ok(data)
    }

    /// Runs the recurrence in place.
    ///
    /// # Errors
    ///
    /// [`EngineError::LengthMismatch`] when `data.len()` differs from the
    /// signature's bound length.
    pub fn run_in_place(&self, data: &mut [T]) -> Result<(), EngineError> {
        if data.len() != self.plan.len() {
            return Err(EngineError::LengthMismatch {
                expected: self.plan.len(),
                got: data.len(),
            });
        }
        if data.is_empty() {
            return Ok(());
        }
        let k = self.plan.order();
        let m = self.plan.chunk_size();
        let n = data.len();
        let num_chunks = self.plan.num_chunks();
        match self.config.carry_propagation {
            CarryPropagation::Sequential => {
                let mut state = vec![T::zero(); k];
                for c in 0..num_chunks {
                    let start = c * m;
                    let chunk = &mut data[start..(start + m).min(n)];
                    state = self
                        .plan
                        .solve_chunk(c, Some(&state), chunk, &mut || true)
                        .state;
                }
            }
            CarryPropagation::Decoupled => {
                let mut locals: Vec<Vec<T>> = Vec::with_capacity(num_chunks);
                for c in 0..num_chunks {
                    let start = c * m;
                    let chunk = &mut data[start..(start + m).min(n)];
                    locals.push(self.plan.solve_chunk(c, None, chunk, &mut || true).state);
                }
                let mut globals: Vec<Vec<T>> = Vec::with_capacity(num_chunks);
                globals.push(locals[0].clone());
                for c in 1..num_chunks {
                    globals.push(self.plan.fixup_state(c, &globals[c - 1], &locals[c]));
                }
                for c in 1..num_chunks {
                    let start = c * m;
                    let chunk = &mut data[start..(start + m).min(n)];
                    self.plan.correct_chunk(c, &globals[c - 1], chunk);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LocalSolve;
    use crate::kernel::KernelTier;
    use crate::serial;

    /// Deterministic pseudo-random stream without any RNG dependency.
    fn pattern(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    fn int_pattern(seed: u64, n: usize, span: i64) -> Vec<i64> {
        pattern(seed, n)
            .into_iter()
            .map(|v| (v * 2.0 * span as f64) as i64)
            .collect()
    }

    fn decoupled(chunk: usize) -> EngineConfig {
        EngineConfig {
            chunk_size: chunk,
            carry_propagation: CarryPropagation::Decoupled,
            local_solve: LocalSolve::Serial,
            flush_denormals: false,
        }
    }

    fn sequential(chunk: usize) -> EngineConfig {
        EngineConfig {
            carry_propagation: CarryPropagation::Sequential,
            ..decoupled(chunk)
        }
    }

    #[test]
    fn signature_shape_validation() {
        assert!(matches!(
            VaryingSignature::new(0, vec![1i64]),
            Err(EngineError::UnsupportedSignature { .. })
        ));
        assert!(matches!(
            VaryingSignature::new(2, vec![1i64, 2, 3]),
            Err(EngineError::UnsupportedSignature { .. })
        ));
        let sig = VaryingSignature::new(2, vec![1i64, 2, 3, 4]).unwrap();
        assert_eq!(sig.order(), 2);
        assert_eq!(sig.len(), 2);
        assert_eq!(sig.row(1), &[3, 4]);
        assert!(matches!(
            VaryingSignature::first_order(vec![1i64, 2])
                .unwrap()
                .with_offsets(vec![5]),
            Err(EngineError::LengthMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn reference_matches_hand_computed_affine_scan() {
        // y[i] = a[i]·y[i-1] + x[i] + d[i] by hand.
        let sig = VaryingSignature::first_order(vec![2i64, 3, 0, 1])
            .unwrap()
            .with_offsets(vec![10, 0, 0, 5])
            .unwrap();
        let out = reference(&sig, &[1, 1, 1, 1]).unwrap();
        // y0 = 1+10 = 11; y1 = 3·11 + 1 = 34; y2 = 0·34 + 1 = 1; y3 = 1·1 + 1 + 5 = 7.
        assert_eq!(out, vec![11, 34, 1, 7]);
    }

    #[test]
    fn constant_rows_match_the_constant_serial_path() {
        // A varying signature whose rows are all equal is the constant
        // recurrence; the reference must agree with serial::recursive.
        let n = 300;
        for fb in [&[2i64][..], &[1, 1][..], &[2, -1, 3][..]] {
            let coeffs: Vec<i64> = (0..n).flat_map(|_| fb.iter().copied()).collect();
            let sig = VaryingSignature::new(fb.len(), coeffs).unwrap();
            let input = int_pattern(9, n, 50);
            let expect = {
                let mut d = input.clone();
                serial::recursive_in_place(fb, &mut d);
                d
            };
            assert_eq!(reference(&sig, &input).unwrap(), expect);
        }
    }

    #[test]
    fn engines_match_reference_across_orders_and_chunks() {
        let n = 517; // deliberately ragged against every chunk size below
        for k in 1..=4usize {
            let coeffs = int_pattern(k as u64, n * k, 3);
            let offsets = int_pattern(40 + k as u64, n, 20);
            let sig = VaryingSignature::new(k, coeffs)
                .unwrap()
                .with_offsets(offsets)
                .unwrap();
            let input = int_pattern(7, n, 100);
            let expect = reference(&sig, &input).unwrap();
            for chunk in [k.max(1), 8, 64, 512, 1024] {
                if chunk < k {
                    continue;
                }
                for config in [sequential(chunk), decoupled(chunk)] {
                    let engine = VaryingEngine::with_config(sig.clone(), config).unwrap();
                    assert_eq!(
                        engine.run(&input).unwrap(),
                        expect,
                        "order {k}, chunk {chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn float_engines_match_reference_closely() {
        let n = 2048;
        let gates: Vec<f64> = pattern(3, n).iter().map(|v| 0.3 + 0.4 * v).collect();
        let sig = VaryingSignature::first_order(gates)
            .unwrap()
            .with_offsets(pattern(5, n))
            .unwrap();
        let input = pattern(11, n);
        let expect = reference(&sig, &input).unwrap();
        for config in [sequential(64), decoupled(64)] {
            let engine = VaryingEngine::with_config(sig.clone(), config).unwrap();
            let got = engine.run(&input).unwrap();
            for (i, (&g, &e)) in got.iter().zip(&expect).enumerate() {
                assert!(
                    (g - e).abs() <= 1e-9 * e.abs().max(1.0),
                    "index {i}: {g} vs {e}"
                );
            }
        }
    }

    #[test]
    fn affine_maps_compose_like_homogeneous_matrices() {
        let k = 3;
        let mats: Vec<AffineMap<i64>> = (0..4)
            .map(|s| {
                let m = Matrix::from_parts(k, int_pattern(s, k * k, 4));
                AffineMap::new(m, int_pattern(90 + s, k, 6))
            })
            .collect();
        for a in &mats {
            for b in &mats {
                let composed = a.then(b);
                assert_eq!(
                    composed.to_homogeneous(),
                    b.to_homogeneous().mul(&a.to_homogeneous())
                );
                // Application agrees with applying in sequence.
                let v = int_pattern(77, k, 9);
                assert_eq!(composed.apply(&v), b.apply(&a.apply(&v)));
                for c in &mats {
                    // Associativity — what makes the carry chain parallel.
                    assert_eq!(a.then(b).then(c), a.then(&b.then(c)));
                }
            }
        }
        // Identity behaves.
        let id = AffineMap::<i64>::identity(k);
        let v = int_pattern(1, k, 9);
        assert_eq!(id.apply(&v), v);
        assert_eq!(mats[0].then(&id), mats[0]);
        assert_eq!(id.then(&mats[0]), mats[0]);
    }

    #[test]
    fn chunk_map_reproduces_the_carry_chain() {
        // Composing the chunk maps and applying once equals walking the
        // chain chunk by chunk.
        let n = 300;
        let k = 2;
        let sig = VaryingSignature::new(k, int_pattern(2, n * k, 3)).unwrap();
        let plan = VaryingPlan::build(sig.clone(), 64).unwrap();
        let mut data = int_pattern(3, n, 40);
        let mut locals = Vec::new();
        for c in 0..plan.num_chunks() {
            let start = c * 64;
            let chunk = &mut data[start..(start + 64).min(n)];
            locals.push(plan.solve_chunk(c, None, chunk, &mut || true).state);
        }
        let mut chained = locals[0].clone();
        let mut composed = plan.chunk_map(0, locals[0].clone());
        for (c, local) in locals.iter().enumerate().skip(1) {
            chained = plan.fixup_state(c, &chained, local);
            composed = composed.then(&plan.chunk_map(c, local.clone()));
        }
        assert_eq!(chained, composed.apply(&vec![0i64; k]));
    }

    #[test]
    fn constant_chunks_get_kernels_varying_chunks_do_not() {
        let n = 256;
        let m = 64;
        // First two chunks constant (same row), third constant with a
        // different row, last genuinely varying.
        let mut gates = vec![0.5f64; 2 * m];
        gates.extend(vec![0.25f64; m]);
        gates.extend(pattern(8, m).iter().map(|v| 0.3 + 0.2 * v));
        let sig = VaryingSignature::first_order(gates).unwrap();
        let (plan, tier) = {
            let _g = crate::kernel::override_lock();
            (VaryingPlan::build(sig, m).unwrap(), crate::kernel::tier())
        };
        assert_eq!(plan.num_chunks(), 4);
        assert_ne!(plan.chunk_kernel_kind(0), KernelKind::Unknown);
        assert_eq!(plan.chunk_kernel_kind(0), plan.chunk_kernel_kind(1));
        // The varying chunk gets no constant-row kernel: the order-1 block
        // scan where the tier allows explicit SIMD and the CPU has
        // AVX2+FMA, the scalar loop otherwise.
        let varying_kind = match tier {
            KernelTier::Auto | KernelTier::Simd if Isa::Avx2.available() => KernelKind::SimdAvx2,
            _ => KernelKind::Scalar,
        };
        assert_eq!(plan.chunk_kernel_kind(3), varying_kind);
        let _ = plan.aggregate_kernel_kind();
        // Differential: the kernel-dispatched plan still matches the
        // reference (constant chunks run the blocked/SIMD kernel).
        let input = pattern(9, n);
        let sig = plan.signature().clone();
        let expect = reference(&sig, &input).unwrap();
        let engine = VaryingEngine::with_config(sig, decoupled(m)).unwrap();
        let got = engine.run(&input).unwrap();
        for (i, (&g, &e)) in got.iter().zip(&expect).enumerate() {
            assert!((g - e).abs() <= 1e-9 * e.abs().max(1.0), "index {i}");
        }
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let sig = VaryingSignature::first_order(vec![1i64; 10]).unwrap();
        let engine = VaryingEngine::with_config(sig.clone(), sequential(4)).unwrap();
        assert!(matches!(
            engine.run(&[1i64; 9]),
            Err(EngineError::LengthMismatch {
                expected: 10,
                got: 9
            })
        ));
        assert!(matches!(
            reference(&sig, &[1i64; 11]),
            Err(EngineError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn invalid_chunk_sizes_are_rejected() {
        let sig = VaryingSignature::new(3, vec![1i64; 30]).unwrap();
        assert!(matches!(
            VaryingPlan::build(sig.clone(), 0),
            Err(EngineError::InvalidChunkSize { chunk_size: 0 })
        ));
        assert!(matches!(
            VaryingPlan::build(sig, 2),
            Err(EngineError::InvalidChunkSize { chunk_size: 2 })
        ));
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let sig = VaryingSignature::first_order(Vec::<i64>::new()).unwrap();
        let engine = VaryingEngine::with_config(sig, sequential(8)).unwrap();
        assert_eq!(engine.run(&[]).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn sliced_solve_reports_slices_and_stops_on_poll() {
        let n = SOLVE_SLICE * 2 + 100;
        let sig = VaryingSignature::first_order(vec![1i64; n]).unwrap();
        let plan = VaryingPlan::build(sig, n).unwrap();
        let mut data = vec![1i64; n];
        let full = plan.solve_chunk(0, None, &mut data, &mut || true);
        assert!(full.completed);
        assert_eq!(full.slices, 3);
        assert_eq!(full.state[0], n as i64); // prefix sum of ones
        let mut data = vec![1i64; n];
        let mut polls = 0;
        let stopped = plan.solve_chunk(0, None, &mut data, &mut || {
            polls += 1;
            polls < 2
        });
        assert!(!stopped.completed);
        assert_eq!(stopped.slices, 2);
    }
}
