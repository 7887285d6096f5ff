//! Explicit SIMD kernels with runtime ISA dispatch.
//!
//! The register-blocked kernels of [`crate::blocked`] break the
//! per-element dependency so a compiler *can* vectorize them — but a
//! stock `cargo build` targets the x86-64 baseline (SSE2) and leaves the
//! speedup on the table, and wide wrapping-integer multiplies never
//! autovectorized profitably at all. This module writes the hot loops
//! directly against `core::arch`, selected at runtime with
//! `is_x86_feature_detected!`, so a distributed binary gets the vector
//! kernels on whatever CPU it lands on:
//!
//! * **local solve** — the blocked triangular FIR plus `B×k`
//!   carry-factor application at a full [`BLOCK`] (= 16) elements per
//!   step (`f64`/`i64`: 4 vectors of 4 lanes, `f32`/`i32`: 2 vectors of
//!   8). The triangular part is the *transposed* convolution
//!   `y[i] = Σ t[j]·h[i−j]`: each input is broadcast once and
//!   multiply-added against shifted windows of a read-only zero-padded
//!   impulse table, so the hot loop has no staging copies and no
//!   store-to-load-forwarding hazards. The per-block carry fold is the
//!   only serial dependency, and its carries never leave the register
//!   file: the next block's broadcasts are lane permutes of the top
//!   accumulator, not a store + scalar reload. The table is a
//!   parameter, so the same kernels solve a one-tap FIR folded in: the
//!   impulse response scaled by the tap (see [`crate::blocked`]);
//! * **steady-state FIR map** — the `fir_in_place` top-of-chunk loop,
//!   vectorized in descending windows so every load still sees original
//!   input.
//! * **correction apply** — the dense / truncated-tail
//!   `chunk[i] += list[i]·carry` folds from [`crate::plan`].
//! * **order-1 varying scan** — `y[i] = a[i]·y[i−1] + z[i]` with a gate
//!   per element ([`varying_scan_with`], `f64`): an in-register block
//!   scan of the affine pairs `(a, z)`, one carry per 8 elements.
//!
//! Integer kernels are **exact** (wrapping lane arithmetic matches the
//! scalar loops bit for bit). `i64` has no 64-bit lane multiply below
//! AVX-512: the AVX2 kernel builds the wrapping product from half-width
//! (32-bit) pieces — `lo·lo + ((lo·hi + hi·lo) << 32)` via
//! `_mm256_mul_epu32`/`_mm256_mullo_epi32` — and the AVX-512(VL+DQ)
//! kernel uses `_mm256_mullo_epi64` directly. This is what finally makes
//! integer blocking *win* rather than regress. Float kernels contract
//! multiply-adds with FMA, so they differ from the scalar reference at
//! the ULP level (same class of reassociation the blocked kernels
//! already accept).
//!
//! The portable tier ([`Isa::Portable`]) reuses the blocked formulation
//! and compiles everywhere (including non-x86 targets such as aarch64,
//! where the autovectorizer sees the same dependency-free loops);
//! explicit NEON lanes are a possible follow-up but are not required for
//! correctness anywhere.
//!
//! Which tier actually runs is governed by [`crate::kernel`]
//! (`PLR_KERNEL` env / programmatic override) through
//! [`SolveKernel::select`](crate::blocked::SolveKernel::select); the
//! `*_with` entry points here take an explicit [`Isa`] for differential
//! tests and benches.

use crate::blocked::{seed_carries, BlockedKernel, BLOCK, MAX_BLOCKED_ORDER};
use crate::element::Element;
use crate::kernel::{self, KernelKind, KernelTier};
use crate::serial;
use std::any::TypeId;

/// Maximum FIR tap count served by the vector map kernels (matches the
/// unrolled scalar specializations in [`crate::blocked::fir_in_place`]).
pub const MAX_FIR_TAPS: usize = 4;

/// Instruction-set tier an explicit kernel targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// The blocked formulation in plain Rust — compiled everywhere, no
    /// feature detection needed.
    Portable,
    /// x86-64 AVX2 + FMA 256-bit kernels (i64 multiplies emulated from
    /// 32-bit halves).
    Avx2,
    /// x86-64 AVX-512VL+DQ 256-bit kernels (native 64-bit lane
    /// multiply via `vpmullq`); only the `i64` kernels differ from AVX2.
    Avx512,
}

impl Isa {
    /// Whether the running CPU can execute kernels of this tier.
    pub fn available(self) -> bool {
        match self {
            Isa::Portable => true,
            Isa::Avx2 => have_avx2(),
            Isa::Avx512 => have_avx512(),
        }
    }

    /// How run statistics report a kernel on this tier.
    pub fn kind(self) -> KernelKind {
        match self {
            Isa::Portable => KernelKind::SimdPortable,
            Isa::Avx2 => KernelKind::SimdAvx2,
            Isa::Avx512 => KernelKind::SimdAvx512,
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(target_arch = "x86_64")]
fn have_avx512() -> bool {
    have_avx2()
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512vl")
}

#[cfg(not(target_arch = "x86_64"))]
fn have_avx2() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn have_avx512() -> bool {
    false
}

fn is<T: 'static, U: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<U>()
}

/// `true` when explicit kernels exist for this element type (`f32`,
/// `f64`, `i32`, `i64`). Exotic elements (e.g. the max-plus semiring)
/// stay on the scalar reference loops.
pub fn supported<T: Element>() -> bool {
    is::<T, f32>() || is::<T, f64>() || is::<T, i32>() || is::<T, i64>()
}

/// Every ISA with a working *solve* kernel for `T` on this CPU, slowest
/// first. Empty for unsupported element types. Used by the differential
/// suite to exercise each kernel the dispatcher could pick.
pub fn available_isas<T: Element>() -> Vec<Isa> {
    if !supported::<T>() {
        return Vec::new();
    }
    let mut isas = vec![Isa::Portable];
    if have_avx2() {
        isas.push(Isa::Avx2);
    }
    // Only the i64 kernels have a distinct AVX-512 form (vpmullq).
    if is::<T, i64>() && have_avx512() {
        isas.push(Isa::Avx512);
    }
    isas
}

/// The vector ISA [`KernelTier::Auto`] dispatch prefers for `T`, `None`
/// when no *hardware* vector tier is detected (the portable tier is
/// never "preferred": without vector units the blocked/scalar kernels
/// are already the right call).
///
/// `i64` is the deliberate exception: it gets a hardware tier only with
/// AVX-512 (`vpmullq`). The AVX2 half-width multiply emulation is kept
/// for differential coverage, but at ~5 instructions per lane multiply
/// it measured *below* the scalar chain on the transposed-convolution
/// solve, so auto dispatch prefers the blocked formulation there.
pub fn best_isa<T: Element>() -> Option<Isa> {
    if !supported::<T>() {
        return None;
    }
    if is::<T, i64>() {
        return have_avx512().then_some(Isa::Avx512);
    }
    have_avx2().then_some(Isa::Avx2)
}

// ---------------------------------------------------------------------
// Slice reinterpretation: dispatch on the *concrete* element type
// without widening the `Element` trait (exotic elements never reach
// these paths). Each cast is an identity transmute guarded by TypeId.
// ---------------------------------------------------------------------

fn cast_mut<T: 'static, U: 'static>(data: &mut [T]) -> Option<&mut [U]> {
    // SAFETY: T and U are the same type (TypeId equality), so layout,
    // validity and lifetime are all the identity.
    is::<T, U>().then(|| unsafe { &mut *(data as *mut [T] as *mut [U]) })
}

fn cast_ref<T: 'static, U: 'static>(data: &[T]) -> Option<&[U]> {
    // SAFETY: as above.
    is::<T, U>().then(|| unsafe { &*(data as *const [T] as *const [U]) })
}

fn cast_carries<T: 'static, U: 'static>(
    c: &mut [T; MAX_BLOCKED_ORDER],
) -> Option<&mut [U; MAX_BLOCKED_ORDER]> {
    // SAFETY: as above.
    is::<T, U>().then(|| unsafe { &mut *(c as *mut [T; MAX_BLOCKED_ORDER]).cast() })
}

fn cast_block<T: 'static, U: 'static>(b: &[T; BLOCK]) -> Option<&[U; BLOCK]> {
    // SAFETY: as above.
    is::<T, U>().then(|| unsafe { &*(b as *const [T; BLOCK]).cast() })
}

fn cast_rows<T: 'static, U: 'static>(rows: &[[T; BLOCK]]) -> Option<&[[U; BLOCK]]> {
    // SAFETY: as above.
    is::<T, U>().then(|| unsafe { &*(rows as *const [[T; BLOCK]] as *const [[U; BLOCK]]) })
}

fn cast_val<T: Copy + 'static, U: Copy + 'static>(v: T) -> Option<U> {
    // SAFETY: as above; transmute_copy of a value to its own type.
    is::<T, U>().then(|| unsafe { std::mem::transmute_copy(&v) })
}

/// An explicit-SIMD local-solve kernel for one pure-feedback recurrence
/// of order `1..=`[`MAX_BLOCKED_ORDER`], bound to one [`Isa`].
///
/// The precomputed tables (impulse-response prefix, carry-factor rows)
/// are shared with the blocked formulation — the vector step size `B`
/// divides [`BLOCK`], and factor lists for shorter blocks are prefixes
/// of longer ones.
#[derive(Debug, Clone)]
pub struct SimdKernel<T> {
    inner: BlockedKernel<T>,
    isa: Isa,
}

impl<T: Element> SimdKernel<T> {
    /// Builds a kernel on the best tier this CPU offers for `T`, falling
    /// back to the portable formulation when no vector ISA is detected.
    /// `None` when the element type has no explicit kernels or the order
    /// is outside `1..=`[`MAX_BLOCKED_ORDER`].
    pub fn try_new(feedback: &[T]) -> Option<Self> {
        Self::try_new_with(feedback, best_isa::<T>().unwrap_or(Isa::Portable))
    }

    /// Builds a kernel pinned to one [`Isa`] (differential tests and
    /// benches). `None` additionally when the CPU lacks the ISA.
    pub fn try_new_with(feedback: &[T], isa: Isa) -> Option<Self> {
        if !supported::<T>() || !isa.available() {
            return None;
        }
        Some(SimdKernel {
            inner: BlockedKernel::try_new(feedback)?,
            isa,
        })
    }

    /// The kernel [`KernelTier::Auto`] dispatch would run for this
    /// feedback, `None` when no hardware vector tier is detected (the
    /// caller then falls back to blocked/scalar selection).
    pub fn preferred(feedback: &[T]) -> Option<Self> {
        Self::try_new_with(feedback, best_isa::<T>()?)
    }

    /// The ISA this kernel executes on.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The recurrence order `k`.
    pub fn order(&self) -> usize {
        self.inner.order()
    }

    /// The feedback vector this kernel solves.
    pub fn feedback(&self) -> &[T] {
        self.inner.feedback()
    }

    /// The blocked formulation whose tables this kernel shares.
    pub(crate) fn blocked(&self) -> &BlockedKernel<T> {
        &self.inner
    }

    /// Solves `y[i] = t[i] + Σ b-j·y[i-j]` in place with zero history.
    pub fn solve_in_place(&self, data: &mut [T]) {
        self.solve_in_place_with_history(&[], data);
    }

    /// Solves in place continuing from explicit history (`history[0]` is
    /// the value just before `data[0]`), matching
    /// [`serial::recursive_in_place_with_history`].
    pub fn solve_in_place_with_history(&self, history: &[T], data: &mut [T]) {
        let k = self.order();
        let mut carries = seed_carries(history, k);
        let done = self.solve_vector_blocks(self.inner.impulse(), &mut carries, data);
        let tail = &mut data[done..];
        if !tail.is_empty() {
            serial::recursive_in_place_with_history(self.feedback(), &carries[..k], tail);
        }
    }

    /// Runs the vector kernel with impulse table `imp` over as many full
    /// `B`-blocks as fit, updating `carries` (most recent output first)
    /// and returning the element count processed.
    pub(crate) fn solve_vector_blocks(
        &self,
        imp: &[T; BLOCK],
        carries: &mut [T; MAX_BLOCKED_ORDER],
        data: &mut [T],
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        if self.isa != Isa::Portable {
            let k = self.order();
            let rows = self.inner.factors();
            if let (Some(d), Some(c)) = (cast_mut::<T, f64>(data), cast_carries::<T, f64>(carries))
            {
                let (imp, rows) = (cast_block(imp).unwrap(), cast_rows(rows).unwrap());
                // SAFETY: construction verified AVX2+FMA is available.
                return unsafe { x86::solve_f64_avx2(imp, rows, k, c, d) };
            }
            if let (Some(d), Some(c)) = (cast_mut::<T, f32>(data), cast_carries::<T, f32>(carries))
            {
                let (imp, rows) = (cast_block(imp).unwrap(), cast_rows(rows).unwrap());
                // SAFETY: as above.
                return unsafe { x86::solve_f32_avx2(imp, rows, k, c, d) };
            }
            if let (Some(d), Some(c)) = (cast_mut::<T, i32>(data), cast_carries::<T, i32>(carries))
            {
                let (imp, rows) = (cast_block(imp).unwrap(), cast_rows(rows).unwrap());
                // SAFETY: as above.
                return unsafe { x86::solve_i32_avx2(imp, rows, k, c, d) };
            }
            if let (Some(d), Some(c)) = (cast_mut::<T, i64>(data), cast_carries::<T, i64>(carries))
            {
                let (imp, rows) = (cast_block(imp).unwrap(), cast_rows(rows).unwrap());
                // SAFETY: construction verified the specific ISA.
                return match self.isa {
                    Isa::Avx512 => unsafe { x86::solve_i64_avx512(imp, rows, k, c, d) },
                    _ => unsafe { x86::solve_i64_avx2(imp, rows, k, c, d) },
                };
            }
        }
        // Portable tier (and any unreachable type/ISA residue): the
        // blocked formulation, block by block.
        self.inner.solve_blocks(imp, carries, data)
    }
}

/// `true` when the effective kernel tier permits the explicit-SIMD map
/// and correction loops (`Auto` and `Simd`; forcing `scalar` or
/// `blocked` keeps those stages on their reference loops so the forced
/// tier is a true baseline).
fn tier_allows() -> bool {
    matches!(kernel::tier(), KernelTier::Auto | KernelTier::Simd)
}

/// Vectorizes the top of [`fir_in_place`]'s steady state on the best
/// detected ISA: processes the highest `⌊(len−head)/L⌋·L` elements in
/// descending vector windows and returns how many it handled (0 when the
/// tier, type, tap count or CPU rule it out). The caller finishes
/// `[head, len−returned)` with the scalar steady loop.
///
/// [`fir_in_place`]: crate::blocked::fir_in_place
pub fn fir_steady_in_place<T: Element>(fir: &[T], chunk: &mut [T], head: usize) -> usize {
    if !tier_allows() {
        return 0;
    }
    match best_isa::<T>() {
        Some(isa) => fir_steady_with(isa, fir, chunk, head),
        None => 0,
    }
}

/// [`fir_steady_in_place`] pinned to one [`Isa`] (no tier gating) —
/// differential tests and benches. Returns 0 for [`Isa::Portable`],
/// whose steady state *is* the scalar loop.
pub fn fir_steady_with<T: Element>(isa: Isa, fir: &[T], chunk: &mut [T], head: usize) -> usize {
    let p = fir.len();
    if p == 0 || p > MAX_FIR_TAPS || chunk.len() <= head || !isa.available() {
        return 0;
    }
    #[cfg(target_arch = "x86_64")]
    if isa != Isa::Portable {
        if let (Some(c), Some(f)) = (cast_mut::<T, f64>(chunk), cast_ref::<T, f64>(fir)) {
            // SAFETY: `isa.available()` verified AVX2+FMA above.
            return unsafe { x86::fir_steady_f64_avx2(f, c, head) };
        }
        if let (Some(c), Some(f)) = (cast_mut::<T, f32>(chunk), cast_ref::<T, f32>(fir)) {
            // SAFETY: as above.
            return unsafe { x86::fir_steady_f32_avx2(f, c, head) };
        }
        if let (Some(c), Some(f)) = (cast_mut::<T, i32>(chunk), cast_ref::<T, i32>(fir)) {
            // SAFETY: as above.
            return unsafe { x86::fir_steady_i32_avx2(f, c, head) };
        }
        if let (Some(c), Some(f)) = (cast_mut::<T, i64>(chunk), cast_ref::<T, i64>(fir)) {
            // SAFETY: Avx512 availability implies its feature bits.
            return match isa {
                Isa::Avx512 => unsafe { x86::fir_steady_i64_avx512(f, c, head) },
                _ => unsafe { x86::fir_steady_i64_avx2(f, c, head) },
            };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    0
}

/// Correction-apply fold `dst[i] += list[i]·carry` over
/// `min(dst.len(), list.len())` elements on the best detected ISA.
/// Returns `false` (touching nothing) when the tier, element type or CPU
/// rules the vector form out — the caller then runs its scalar fold.
pub fn axpy_in_place<T: Element>(dst: &mut [T], list: &[T], carry: T) -> bool {
    if !tier_allows() {
        return false;
    }
    match best_isa::<T>() {
        Some(isa) => axpy_with(isa, dst, list, carry),
        None => false,
    }
}

/// The ISA [`varying_scan_with`] runs on for `T` under the effective
/// tier: [`best_isa`] when the tier permits explicit SIMD and the vector
/// kernel exists for `T` (`f64` on AVX2+FMA), otherwise `None` — forced
/// `scalar`/`blocked` tiers, other element types, CPUs without AVX2.
pub fn varying_scan_isa<T: Element>() -> Option<Isa> {
    if !tier_allows() || !is::<T, f64>() {
        return None;
    }
    best_isa::<T>()
}

/// The order-1 time-varying scan `y[i] = gates[i]·y[i−1] + data[i]` in
/// place, continuing from `y[−1] = prev`, on one [`Isa`]: the local
/// solve of [`crate::varying`]'s order-1 chunks. Returns `false`
/// (touching nothing) when the vector form does not exist for this ISA
/// and element type — [`Isa::Portable`], a CPU without the ISA, any
/// element but `f64` — and the caller runs its scalar loop.
///
/// The kernel is a block scan over the affine pairs `(a[i], z[i])`:
/// each 4-lane vector builds the in-register prefix of its pairs in two
/// log steps, two vectors compose into one 8-element block, and the
/// block's outputs are `B + A·p` with `p` the previous block's last
/// output. The serial dependency is one FMA plus one permute per 8
/// elements; the scalar loop (which finishes the sub-8 tail here) pays a
/// multiply and an add per element. The reassociation differs from the
/// scalar loop at the ULP level, and its sign of zero may differ.
///
/// That agreement needs gates the plan admits: a gate that is
/// non-finite, or whose magnitude is nonzero but outside
/// `[2⁻⁶⁴, 2⁶⁴]`, can make a composed 8-gate product overflow or
/// underflow where the scalar chain does not, so such chunks stay on the
/// scalar loop (see `VaryingPlan::build`).
///
/// # Panics
///
/// Panics when `gates.len() != data.len()`.
pub fn varying_scan_with<T: Element>(isa: Isa, gates: &[T], data: &mut [T], prev: T) -> bool {
    assert_eq!(gates.len(), data.len(), "one gate per element");
    if isa == Isa::Portable || !isa.available() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    if let (Some(d), Some(g), Some(p)) = (
        cast_mut::<T, f64>(data),
        cast_ref::<T, f64>(gates),
        cast_val::<T, f64>(prev),
    ) {
        // SAFETY: `isa.available()` verified AVX2+FMA above (AVX-512
        // availability implies both).
        let (done, mut prev) = unsafe { x86::varying_scan_f64_avx2(g, d, p) };
        for (y, &a) in d[done..].iter_mut().zip(&g[done..]) {
            prev = *y + a * prev;
            *y = prev;
        }
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = prev;
    false
}

/// [`axpy_in_place`] pinned to one [`Isa`] (no tier gating) —
/// differential tests and benches. `false` for [`Isa::Portable`].
pub fn axpy_with<T: Element>(isa: Isa, dst: &mut [T], list: &[T], carry: T) -> bool {
    if !isa.available() {
        return false;
    }
    let n = dst.len().min(list.len());
    #[cfg(target_arch = "x86_64")]
    if isa != Isa::Portable {
        let done = if let (Some(d), Some(l), Some(c)) = (
            cast_mut::<T, f64>(dst),
            cast_ref::<T, f64>(list),
            cast_val::<T, f64>(carry),
        ) {
            // SAFETY: `isa.available()` verified AVX2+FMA above.
            Some(unsafe { x86::axpy_f64_avx2(d, l, c) })
        } else if let (Some(d), Some(l), Some(c)) = (
            cast_mut::<T, f32>(dst),
            cast_ref::<T, f32>(list),
            cast_val::<T, f32>(carry),
        ) {
            // SAFETY: as above.
            Some(unsafe { x86::axpy_f32_avx2(d, l, c) })
        } else if let (Some(d), Some(l), Some(c)) = (
            cast_mut::<T, i32>(dst),
            cast_ref::<T, i32>(list),
            cast_val::<T, i32>(carry),
        ) {
            // SAFETY: as above.
            Some(unsafe { x86::axpy_i32_avx2(d, l, c) })
        } else if let (Some(d), Some(l), Some(c)) = (
            cast_mut::<T, i64>(dst),
            cast_ref::<T, i64>(list),
            cast_val::<T, i64>(carry),
        ) {
            // SAFETY: Avx512 availability implies its feature bits.
            Some(match isa {
                Isa::Avx512 => unsafe { x86::axpy_i64_avx512(d, l, c) },
                _ => unsafe { x86::axpy_i64_avx2(d, l, c) },
            })
        } else {
            None
        };
        if let Some(done) = done {
            // Scalar remainder above the vector prefix.
            for i in done..n {
                dst[i] = dst[i].add(list[i].mul(carry));
            }
            return true;
        }
    }
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `core::arch` kernel bodies. Every function is gated by a
    //! `#[target_feature]` attribute and must only be reached through
    //! the runtime-detection guards in the parent module.
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::BLOCK;
    use core::arch::x86_64::*;

    /// Wrapping 64×64→64 lane multiply from 32-bit halves (AVX2 has no
    /// `vpmullq`): `a·b mod 2⁶⁴ = aL·bL + ((aL·bH + aH·bL) << 32)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_epi64_avx2(a: __m256i, b: __m256i) -> __m256i {
        let bswap = _mm256_shuffle_epi32::<0xB1>(b); // [bH, bL] per lane
        let prodlh = _mm256_mullo_epi32(a, bswap); // [aL·bH, aH·bL] (low 32)
        let prodlh2 = _mm256_hadd_epi32(prodlh, _mm256_setzero_si256());
        let prodlh3 = _mm256_shuffle_epi32::<0x73>(prodlh2); // (sums) << 32
        let prodll = _mm256_mul_epu32(a, b); // aL·bL, full 64
        _mm256_add_epi64(prodll, prodlh3)
    }

    /// AVX-512VL+DQ native wrapping 64-bit lane multiply.
    #[inline]
    #[target_feature(enable = "avx512dq,avx512vl")]
    unsafe fn mul_epi64_avx512(a: __m256i, b: __m256i) -> __m256i {
        _mm256_mullo_epi64(a, b)
    }

    /// Broadcasts 64-bit lane `lane` of `v` to every lane (runtime lane
    /// index — `vpermpd` takes only immediates, `vpermd` takes a vector).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bcast_lane64(v: __m256i, lane: usize) -> __m256i {
        let base = _mm256_setr_epi32(0, 1, 0, 1, 0, 1, 0, 1);
        let idx = _mm256_add_epi32(_mm256_set1_epi32((2 * lane) as i32), base);
        _mm256_permutevar8x32_epi32(v, idx)
    }

    /// Broadcasts 32-bit lane `lane` of `v` to every lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bcast_lane32(v: __m256i, lane: usize) -> __m256i {
        _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(lane as i32))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bcast_lane_pd(v: __m256d, lane: usize) -> __m256d {
        _mm256_castsi256_pd(bcast_lane64(_mm256_castpd_si256(v), lane))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bcast_lane_ps(v: __m256, lane: usize) -> __m256 {
        _mm256_castsi256_ps(bcast_lane32(_mm256_castps_si256(v), lane))
    }

    /// Generates one local-solve kernel working a full [`BLOCK`] per
    /// step as `V = BLOCK / L` accumulator vectors.
    ///
    /// The triangular FIR is computed as the transposed convolution
    /// `y[i] = Σ_j t[j]·h[i−j]`: each input is broadcast once and
    /// multiply-added against a shifted unaligned window of `hpad`, the
    /// impulse response padded with `BLOCK−1` leading zeros (negative
    /// indices read zero). `hpad` is written once per call and only read
    /// in the loop, so — unlike a per-block staging copy — the loads
    /// never collide with an in-flight store. The carry fold is the only
    /// cross-block dependency, and its chain stays in registers: the
    /// next block's carry broadcasts are lane permutes of the top
    /// accumulator; the scalar `carries` array is materialized once
    /// after the loop.
    macro_rules! float_solve {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $loadu:ident, $storeu:ident, $set1:ident, $fmadd:ident, $zero:ident, $bcast:ident) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(
                impulse: &[$elem; BLOCK],
                factors: &[[$elem; BLOCK]],
                k: usize,
                carries: &mut [$elem; 4],
                data: &mut [$elem],
            ) -> usize {
                const L: usize = $lanes;
                const V: usize = BLOCK / L;
                let nblocks = data.len() / BLOCK;
                if nblocks == 0 {
                    return 0;
                }
                let mut hpad = [0 as $elem; 2 * BLOCK - 1];
                hpad[BLOCK - 1..].copy_from_slice(impulse);
                let hp = hpad.as_ptr().add(BLOCK - 1); // &h[0]
                let mut f = [[$zero(); V]; 4];
                for r in 0..k {
                    for m in 0..V {
                        f[r][m] = $loadu(factors[r].as_ptr().add(m * L));
                    }
                }
                // Seed the register-resident carry vector: lane L-1-r
                // is where block outputs leave carry r.
                let mut seed = [0 as $elem; L];
                for r in 0..k {
                    seed[L - 1 - r] = carries[r];
                }
                let mut top = $loadu(seed.as_ptr());
                for b in 0..nblocks {
                    let ptr = data.as_mut_ptr().add(b * BLOCK);
                    let mut acc = [$zero(); V];
                    for j in 0..BLOCK {
                        let t = $set1(*ptr.add(j));
                        for m in (j / L)..V {
                            acc[m] = $fmadd(t, $loadu(hp.add(m * L).sub(j)), acc[m]);
                        }
                    }
                    for r in 0..k {
                        let c = $bcast(top, L - 1 - r);
                        for m in 0..V {
                            acc[m] = $fmadd(f[r][m], c, acc[m]);
                        }
                    }
                    for m in 0..V {
                        $storeu(ptr.add(m * L), acc[m]);
                    }
                    top = acc[V - 1];
                }
                let mut fin = [0 as $elem; L];
                $storeu(fin.as_mut_ptr(), top);
                for r in 0..k {
                    carries[r] = fin[L - 1 - r];
                }
                nblocks * BLOCK
            }
        };
    }

    /// Integer counterpart of [`float_solve`]: wrapping add/mul lanes,
    /// `si256` loads, multiply supplied per ISA.
    macro_rules! int_solve {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $set1:ident, $add:ident, $mul:path, $bcast:ident) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(
                impulse: &[$elem; BLOCK],
                factors: &[[$elem; BLOCK]],
                k: usize,
                carries: &mut [$elem; 4],
                data: &mut [$elem],
            ) -> usize {
                const L: usize = $lanes;
                const V: usize = BLOCK / L;
                let nblocks = data.len() / BLOCK;
                if nblocks == 0 {
                    return 0;
                }
                let mut hpad = [0 as $elem; 2 * BLOCK - 1];
                hpad[BLOCK - 1..].copy_from_slice(impulse);
                let hp = hpad.as_ptr().add(BLOCK - 1); // &h[0]
                let mut f = [[_mm256_setzero_si256(); V]; 4];
                for r in 0..k {
                    for m in 0..V {
                        f[r][m] =
                            _mm256_loadu_si256(factors[r].as_ptr().add(m * L) as *const __m256i);
                    }
                }
                let mut seed = [0 as $elem; L];
                for r in 0..k {
                    seed[L - 1 - r] = carries[r];
                }
                let mut top = _mm256_loadu_si256(seed.as_ptr() as *const __m256i);
                for b in 0..nblocks {
                    let ptr = data.as_mut_ptr().add(b * BLOCK);
                    let mut acc = [_mm256_setzero_si256(); V];
                    for j in 0..BLOCK {
                        let t = $set1(*ptr.add(j));
                        for m in (j / L)..V {
                            let x = _mm256_loadu_si256(hp.add(m * L).sub(j) as *const __m256i);
                            acc[m] = $add(acc[m], $mul(t, x));
                        }
                    }
                    for r in 0..k {
                        let c = $bcast(top, L - 1 - r);
                        for m in 0..V {
                            acc[m] = $add(acc[m], $mul(f[r][m], c));
                        }
                    }
                    for m in 0..V {
                        _mm256_storeu_si256(ptr.add(m * L) as *mut __m256i, acc[m]);
                    }
                    top = acc[V - 1];
                }
                let mut fin = [0 as $elem; L];
                _mm256_storeu_si256(fin.as_mut_ptr() as *mut __m256i, top);
                for r in 0..k {
                    carries[r] = fin[L - 1 - r];
                }
                nblocks * BLOCK
            }
        };
    }

    /// Steady-state FIR map: descending `L`-wide windows from the top of
    /// the chunk (loads precede the window's store, and lower windows
    /// are untouched original input), scalar low remainder left to the
    /// caller. Returns elements processed.
    macro_rules! float_fir {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $loadu:ident, $storeu:ident, $set1:ident, $mul:ident, $fmadd:ident, $zero:ident) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(fir: &[$elem], chunk: &mut [$elem], head: usize) -> usize {
                const L: usize = $lanes;
                let p = fir.len();
                let n = chunk.len();
                let vecs = (n - head) / L;
                if vecs == 0 {
                    return 0;
                }
                let mut taps = [$zero(); 4];
                for (j, t) in taps.iter_mut().enumerate().take(p) {
                    *t = $set1(fir[j]);
                }
                let base = chunk.as_mut_ptr();
                for v in 0..vecs {
                    let i0 = n - L * (v + 1);
                    let mut acc = $mul(taps[0], $loadu(base.add(i0)));
                    for j in 1..p {
                        acc = $fmadd(taps[j], $loadu(base.add(i0 - j)), acc);
                    }
                    $storeu(base.add(i0), acc);
                }
                vecs * L
            }
        };
    }

    /// Integer counterpart of [`float_fir`].
    macro_rules! int_fir {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $set1:ident, $add:ident, $mul:path) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(fir: &[$elem], chunk: &mut [$elem], head: usize) -> usize {
                const L: usize = $lanes;
                let p = fir.len();
                let n = chunk.len();
                let vecs = (n - head) / L;
                if vecs == 0 {
                    return 0;
                }
                let mut taps = [_mm256_setzero_si256(); 4];
                for (j, t) in taps.iter_mut().enumerate().take(p) {
                    *t = $set1(fir[j]);
                }
                let base = chunk.as_mut_ptr();
                for v in 0..vecs {
                    let i0 = n - L * (v + 1);
                    let mut acc = $mul(taps[0], _mm256_loadu_si256(base.add(i0) as *const __m256i));
                    for j in 1..p {
                        let x = _mm256_loadu_si256(base.add(i0 - j) as *const __m256i);
                        acc = $add(acc, $mul(taps[j], x));
                    }
                    _mm256_storeu_si256(base.add(i0) as *mut __m256i, acc);
                }
                vecs * L
            }
        };
    }

    /// Correction fold `dst[i] += list[i]·c` over the low vector prefix;
    /// returns elements processed (caller finishes the remainder).
    macro_rules! float_axpy {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $loadu:ident, $storeu:ident, $set1:ident, $fmadd:ident) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(dst: &mut [$elem], list: &[$elem], c: $elem) -> usize {
                const L: usize = $lanes;
                let n = dst.len().min(list.len());
                let vecs = n / L;
                let cv = $set1(c);
                let d = dst.as_mut_ptr();
                let l = list.as_ptr();
                for v in 0..vecs {
                    let i = v * L;
                    let acc = $fmadd($loadu(l.add(i)), cv, $loadu(d.add(i)));
                    $storeu(d.add(i), acc);
                }
                vecs * L
            }
        };
    }

    /// Integer counterpart of [`float_axpy`].
    macro_rules! int_axpy {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $set1:ident, $add:ident, $mul:path) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(dst: &mut [$elem], list: &[$elem], c: $elem) -> usize {
                const L: usize = $lanes;
                let n = dst.len().min(list.len());
                let vecs = n / L;
                let cv = $set1(c);
                let d = dst.as_mut_ptr();
                let l = list.as_ptr();
                for v in 0..vecs {
                    let i = v * L;
                    let x = _mm256_loadu_si256(l.add(i) as *const __m256i);
                    let acc = $add(_mm256_loadu_si256(d.add(i) as *const __m256i), $mul(x, cv));
                    _mm256_storeu_si256(d.add(i) as *mut __m256i, acc);
                }
                vecs * L
            }
        };
    }

    /// The in-register prefix of four affine pairs `y ↦ a[l]·y + b[l]`:
    /// lane `l` of the result is pairs `0..=l` composed, lane 0 first.
    /// Two log steps, each shifting in the identity pair `(1, 0)` — by
    /// one lane, then by two — and composing with one FMA (offsets, from
    /// the unshifted gates) and one multiply (gates).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn affine_prefix4(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
        let one = _mm256_set1_pd(1.0);
        let zero = _mm256_setzero_pd();
        // [id, 0, 1, 2]: lane l composes with lane l−1.
        let a1 = _mm256_blend_pd::<0b0001>(_mm256_permute4x64_pd::<0b10_01_00_00>(a), one);
        let b1 = _mm256_blend_pd::<0b0001>(_mm256_permute4x64_pd::<0b10_01_00_00>(b), zero);
        let b = _mm256_fmadd_pd(a, b1, b);
        let a = _mm256_mul_pd(a, a1);
        // [id, id, 0, 1]: lane l composes with lane l−2.
        let a2 = _mm256_permute2f128_pd::<0x02>(a, one);
        let b2 = _mm256_permute2f128_pd::<0x08>(b, b);
        (_mm256_mul_pd(a, a2), _mm256_fmadd_pd(a, b2, b))
    }

    /// Order-1 varying scan `y[i] = a[i]·y[i−1] + y[i]` over the largest
    /// multiple of 8 elements both slices hold, continuing from `prev`.
    /// Returns the count processed and the last output (`prev` when
    /// none).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn varying_scan_f64_avx2(
        gates: &[f64],
        data: &mut [f64],
        prev: f64,
    ) -> (usize, f64) {
        let n = data.len().min(gates.len()) / 8 * 8;
        let g = gates.as_ptr();
        let d = data.as_mut_ptr();
        let mut p = _mm256_set1_pd(prev);
        for i in (0..n).step_by(8) {
            let (a0, b0) = affine_prefix4(_mm256_loadu_pd(g.add(i)), _mm256_loadu_pd(d.add(i)));
            let (a1, b1) =
                affine_prefix4(_mm256_loadu_pd(g.add(i + 4)), _mm256_loadu_pd(d.add(i + 4)));
            // Compose the upper vector onto the lower one's last pair, so
            // both depend on `p` alone.
            let b1 = _mm256_fmadd_pd(a1, _mm256_permute4x64_pd::<0xFF>(b0), b1);
            let a1 = _mm256_mul_pd(a1, _mm256_permute4x64_pd::<0xFF>(a0));
            _mm256_storeu_pd(d.add(i), _mm256_fmadd_pd(a0, p, b0));
            let y1 = _mm256_fmadd_pd(a1, p, b1);
            _mm256_storeu_pd(d.add(i + 4), y1);
            p = _mm256_permute4x64_pd::<0xFF>(y1);
        }
        (n, if n == 0 { prev } else { data[n - 1] })
    }

    float_solve!(
        solve_f64_avx2,
        "avx2,fma",
        f64,
        4,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_fmadd_pd,
        _mm256_setzero_pd,
        bcast_lane_pd
    );
    float_solve!(
        solve_f32_avx2,
        "avx2,fma",
        f32,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps,
        _mm256_setzero_ps,
        bcast_lane_ps
    );
    int_solve!(
        solve_i32_avx2,
        "avx2",
        i32,
        8,
        _mm256_set1_epi32,
        _mm256_add_epi32,
        _mm256_mullo_epi32,
        bcast_lane32
    );
    int_solve!(
        solve_i64_avx2,
        "avx2",
        i64,
        4,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        mul_epi64_avx2,
        bcast_lane64
    );
    int_solve!(
        solve_i64_avx512,
        "avx2,avx512dq,avx512vl",
        i64,
        4,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        mul_epi64_avx512,
        bcast_lane64
    );

    float_fir!(
        fir_steady_f64_avx2,
        "avx2,fma",
        f64,
        4,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_mul_pd,
        _mm256_fmadd_pd,
        _mm256_setzero_pd
    );
    float_fir!(
        fir_steady_f32_avx2,
        "avx2,fma",
        f32,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_mul_ps,
        _mm256_fmadd_ps,
        _mm256_setzero_ps
    );
    int_fir!(
        fir_steady_i32_avx2,
        "avx2",
        i32,
        8,
        _mm256_set1_epi32,
        _mm256_add_epi32,
        _mm256_mullo_epi32
    );
    int_fir!(
        fir_steady_i64_avx2,
        "avx2",
        i64,
        4,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        mul_epi64_avx2
    );
    int_fir!(
        fir_steady_i64_avx512,
        "avx2,avx512dq,avx512vl",
        i64,
        4,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        mul_epi64_avx512
    );

    float_axpy!(
        axpy_f64_avx2,
        "avx2,fma",
        f64,
        4,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_fmadd_pd
    );
    float_axpy!(
        axpy_f32_avx2,
        "avx2,fma",
        f32,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps
    );
    int_axpy!(
        axpy_i32_avx2,
        "avx2",
        i32,
        8,
        _mm256_set1_epi32,
        _mm256_add_epi32,
        _mm256_mullo_epi32
    );
    int_axpy!(
        axpy_i64_avx2,
        "avx2",
        i64,
        4,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        mul_epi64_avx2
    );
    int_axpy!(
        axpy_i64_avx512,
        "avx2,avx512dq,avx512vl",
        i64,
        4,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        mul_epi64_avx512
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_support_is_the_four_builtins() {
        assert!(supported::<f32>() && supported::<f64>());
        assert!(supported::<i32>() && supported::<i64>());
        assert!(!supported::<crate::tropical::MaxPlus>());
        assert!(available_isas::<crate::tropical::MaxPlus>().is_empty());
    }

    #[test]
    fn portable_is_always_available() {
        assert!(Isa::Portable.available());
        assert_eq!(available_isas::<f64>()[0], Isa::Portable);
    }

    #[test]
    fn portable_kernel_matches_scalar_exactly() {
        let fb = [2i64, -1];
        let kernel = SimdKernel::try_new_with(&fb, Isa::Portable).unwrap();
        let input: Vec<i64> = (0..100).map(|i| (i % 7) - 3).collect();
        let mut got = input.clone();
        kernel.solve_in_place(&mut got);
        let mut expect = input;
        serial::recursive_in_place(&fb, &mut expect);
        assert_eq!(got, expect);
    }

    #[test]
    fn unsupported_isa_is_rejected_at_construction() {
        // MaxPlus has no explicit kernels on any ISA.
        use crate::tropical::MaxPlus;
        assert!(SimdKernel::try_new(&[MaxPlus::new(1.0)]).is_none());
        // Order above the blocked cap is rejected for supported types.
        assert!(SimdKernel::try_new(&[1.0f64; MAX_BLOCKED_ORDER + 1]).is_none());
    }
}
