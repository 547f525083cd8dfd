//! # deepjoin-simd
//!
//! Runtime-dispatched `f32` kernels for the hot distance paths (DESIGN.md
//! §"Performance"). Every index in `deepjoin-ann`, the embedding helpers in
//! `deepjoin-embed` and the matrix loops in `deepjoin-nn` funnel their inner
//! products through this crate, so one dispatch decision accelerates the
//! whole system.
//!
//! Besides the distance kernels the crate carries the column encoder's two
//! forward kernels: a small row-major [`gemm`] (outputs held in registers,
//! broadcast-FMA over the inner dimension) and a rational [`tanh_inplace`].
//!
//! Three implementations of each kernel exist:
//!
//! * **scalar** — the straight-line reference (`iter().zip()` chains), kept
//!   as the parity oracle and the before-side of the bench baseline;
//! * **portable** — an 8-accumulator unrolled loop with a fixed reduction
//!   tree, written so LLVM autovectorizes it on any target;
//! * **avx2** — explicit AVX2+FMA intrinsics behind
//!   `is_x86_feature_detected!`, with a 4-row blocked one-query-vs-many
//!   kernel ([`l2_sq_block`]/[`dot_block`]).
//!
//! Dispatch is decided once per process (cached CPUID probe) and can be
//! pinned with [`force_kernel`] so benchmarks can measure before/after in
//! one binary. Results are deterministic for a fixed kernel: each variant
//! uses a fixed accumulation order, so the same inputs always produce the
//! same bits regardless of thread count or call site.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel implementation serves the dispatched entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Straight-line reference implementation.
    Scalar,
    /// Portable 8-lane unrolled accumulators (autovectorizes).
    Portable8,
    /// AVX2 + FMA intrinsics (x86-64 only, runtime-detected).
    Avx2,
}

impl Kernel {
    /// Stable lower-case name (used in bench output).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Portable8 => "portable8",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// 0 = no override, otherwise `Kernel as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);
static DETECTED: OnceLock<Kernel> = OnceLock::new();

fn detect() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Kernel::Avx2;
        }
    }
    Kernel::Portable8
}

/// The kernel the dispatched entry points currently use.
#[inline]
pub fn active_kernel() -> Kernel {
    match FORCED.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        2 => Kernel::Portable8,
        3 => Kernel::Avx2,
        _ => *DETECTED.get_or_init(detect),
    }
}

/// Pin the dispatched kernel (`None` restores auto-detection).
///
/// Intended for benchmarks that measure before/after in one process; the
/// override is process-global, so don't flip it while other threads are
/// mid-search. Forcing [`Kernel::Avx2`] on a machine without AVX2+FMA falls
/// back to auto-detection.
pub fn force_kernel(kernel: Option<Kernel>) {
    let tag = match kernel {
        Some(Kernel::Scalar) => 1,
        Some(Kernel::Portable8) => 2,
        Some(Kernel::Avx2) if detect() == Kernel::Avx2 => 3,
        _ => 0,
    };
    FORCED.store(tag, Ordering::Relaxed);
}

/// Rational `tanh`: `x·P(x²)/Q(x²)` on the clamped input, coefficients
/// high-order first (the minimax fit Eigen uses for its float `tanh`).
/// Beyond the clamp `tanh` is 1 to within half an ulp; the fit never
/// exceeds 1 inside it.
const TANH_CLAMP: f32 = 7.905311;
const TANH_P: [f32; 7] = [
    -2.7607684e-16,
    2.000188e-13,
    -8.604672e-11,
    5.1222973e-8,
    1.48572235e-5,
    6.3726195e-4,
    4.8935246e-3,
];
const TANH_Q: [f32; 4] = [1.1982584e-6, 1.1853471e-4, 2.2684347e-3, 4.893525e-3];

/// Scalar reference kernels — the parity oracle for the optimized paths.
pub mod scalar {
    /// Dot product.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Squared Euclidean distance.
    #[inline]
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    /// `acc[i] += s * x[i]`.
    #[inline]
    pub fn axpy(acc: &mut [f32], x: &[f32], s: f32) {
        debug_assert_eq!(acc.len(), x.len());
        for (a, v) in acc.iter_mut().zip(x) {
            *a += s * v;
        }
    }

    /// Dot product of two u8 code rows, accumulated exactly in `u32`.
    /// Exact for `len ≤ 66051` (255² · len must fit in u32) — far beyond
    /// any embedding dimension this crate serves.
    #[inline]
    pub fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| x as u32 * y as u32).sum()
    }

    /// Dot product of an f32 query against a u8 code row:
    /// `Σ q[i] · c[i]` with the codes widened to f32.
    #[inline]
    pub fn dot_f32u8(q: &[f32], c: &[u8]) -> f32 {
        debug_assert_eq!(q.len(), c.len());
        q.iter().zip(c).map(|(&x, &y)| x * y as f32).sum()
    }

    /// Asymmetric squared L2 between a prepared query and a u8 code row:
    /// `Σ (t[i] − s[i]·c[i])²`, where `t = query − offset` and `s` is the
    /// per-dimension scale — i.e. the exact squared distance between the
    /// query and the *dequantized* row, in one pass over the codes.
    #[inline]
    pub fn l2_sq_f32u8(t: &[f32], s: &[f32], c: &[u8]) -> f32 {
        debug_assert_eq!(t.len(), c.len());
        debug_assert_eq!(s.len(), c.len());
        t.iter()
            .zip(s)
            .zip(c)
            .map(|((&ti, &si), &ci)| {
                let d = ti - si * ci as f32;
                d * d
            })
            .sum()
    }

    /// `out = a·w (+ bias)`, all row-major: `a` is `m×k`, `w` is `k×n`,
    /// `out` is `m×n` (shapes checked by [`super::gemm_with`]).
    pub fn gemm(a: &[f32], w: &[f32], bias: Option<&[f32]>, n: usize, out: &mut [f32]) {
        let k = w.len() / n;
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            match bias {
                Some(b) => o_row.copy_from_slice(b),
                None => o_row.fill(0.0),
            }
            for (p, &x) in a[i * k..(i + 1) * k].iter().enumerate() {
                axpy(o_row, &w[p * n..(p + 1) * n], x);
            }
        }
    }

    /// Rational `tanh` of one value (see [`super::tanh_inplace`]).
    #[inline]
    pub fn tanh(x: f32) -> f32 {
        // `clamp` keeps NaN, unlike `min`/`max`.
        let x = x.clamp(-super::TANH_CLAMP, super::TANH_CLAMP);
        let x2 = x * x;
        let p = super::TANH_P.iter().fold(0.0, |acc, &c| acc * x2 + c) * x;
        let q = super::TANH_Q.iter().fold(0.0, |acc, &c| acc * x2 + c);
        p / q
    }
}

/// Portable unrolled kernels: 8 independent accumulators reduced in a fixed
/// tree, so LLVM can keep 8 lanes in flight without needing permission to
/// reassociate the final sum.
mod portable {
    #[inline]
    fn reduce8(acc: [f32; 8]) -> f32 {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    }

    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0f32; 8];
        let ca = a.chunks_exact(8);
        let cb = b.chunks_exact(8);
        let (ra, rb) = (ca.remainder(), cb.remainder());
        for (xa, xb) in ca.zip(cb) {
            for k in 0..8 {
                acc[k] += xa[k] * xb[k];
            }
        }
        let mut s = reduce8(acc);
        for (x, y) in ra.iter().zip(rb) {
            s += x * y;
        }
        s
    }

    #[inline]
    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0f32; 8];
        let ca = a.chunks_exact(8);
        let cb = b.chunks_exact(8);
        let (ra, rb) = (ca.remainder(), cb.remainder());
        for (xa, xb) in ca.zip(cb) {
            for k in 0..8 {
                let d = xa[k] - xb[k];
                acc[k] += d * d;
            }
        }
        let mut s = reduce8(acc);
        for (x, y) in ra.iter().zip(rb) {
            let d = x - y;
            s += d * d;
        }
        s
    }

    #[inline]
    pub fn axpy(acc: &mut [f32], x: &[f32], s: f32) {
        let ca = acc.chunks_exact_mut(8);
        let cx = x.chunks_exact(8);
        let n8 = x.len() - x.len() % 8;
        for (xa, xx) in ca.zip(cx) {
            for k in 0..8 {
                xa[k] += s * xx[k];
            }
        }
        for (a, v) in acc[n8..].iter_mut().zip(&x[n8..]) {
            *a += s * v;
        }
    }

    #[inline]
    fn reduce8_u32(acc: [u32; 8]) -> u32 {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    }

    #[inline]
    pub fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
        let mut acc = [0u32; 8];
        let ca = a.chunks_exact(8);
        let cb = b.chunks_exact(8);
        let (ra, rb) = (ca.remainder(), cb.remainder());
        for (xa, xb) in ca.zip(cb) {
            for k in 0..8 {
                acc[k] += xa[k] as u32 * xb[k] as u32;
            }
        }
        let mut s = reduce8_u32(acc);
        for (x, y) in ra.iter().zip(rb) {
            s += *x as u32 * *y as u32;
        }
        s
    }

    #[inline]
    pub fn dot_f32u8(q: &[f32], c: &[u8]) -> f32 {
        let mut acc = [0f32; 8];
        let cq = q.chunks_exact(8);
        let cc = c.chunks_exact(8);
        let (rq, rc) = (cq.remainder(), cc.remainder());
        for (xq, xc) in cq.zip(cc) {
            for k in 0..8 {
                acc[k] += xq[k] * xc[k] as f32;
            }
        }
        let mut s = reduce8(acc);
        for (x, y) in rq.iter().zip(rc) {
            s += x * *y as f32;
        }
        s
    }

    #[inline]
    pub fn l2_sq_f32u8(t: &[f32], s: &[f32], c: &[u8]) -> f32 {
        let mut acc = [0f32; 8];
        let ct = t.chunks_exact(8);
        let cs = s.chunks_exact(8);
        let cc = c.chunks_exact(8);
        let n8 = c.len() - c.len() % 8;
        for ((xt, xs), xc) in ct.zip(cs).zip(cc) {
            for k in 0..8 {
                let d = xt[k] - xs[k] * xc[k] as f32;
                acc[k] += d * d;
            }
        }
        let mut sum = reduce8(acc);
        for ((x, y), z) in t[n8..].iter().zip(&s[n8..]).zip(&c[n8..]) {
            let d = x - y * *z as f32;
            sum += d * d;
        }
        sum
    }

    /// Row-major `a·w (+ bias)` in 8-column blocks: the 8 outputs of a block
    /// accumulate in a local array across the whole inner dimension.
    pub fn gemm(a: &[f32], w: &[f32], bias: Option<&[f32]>, n: usize, out: &mut [f32]) {
        let k = w.len() / n;
        let n8 = n - n % 8;
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            for j in (0..n8).step_by(8) {
                let mut acc = [0f32; 8];
                if let Some(b) = bias {
                    acc.copy_from_slice(&b[j..j + 8]);
                }
                for (p, &x) in a_row.iter().enumerate() {
                    let w8 = &w[p * n + j..p * n + j + 8];
                    for c in 0..8 {
                        acc[c] += x * w8[c];
                    }
                }
                o_row[j..j + 8].copy_from_slice(&acc);
            }
            for j in n8..n {
                let mut acc = bias.map_or(0.0, |b| b[j]);
                for (p, &x) in a_row.iter().enumerate() {
                    acc += x * w[p * n + j];
                }
                o_row[j] = acc;
            }
        }
    }
}

/// AVX2+FMA kernels. Safety: every function is `#[target_feature]`-gated and
/// only reachable through [`active_kernel`] after a successful CPUID probe.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    #[inline]
    unsafe fn hsum256(v: __m256) -> f32 {
        // (hi + lo) -> 128; then horizontal pairwise adds.
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let shuf2 = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, shuf2))
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        if i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            i += 8;
        }
        let mut s = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            s += *pa.add(i) * *pb.add(i);
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            let d1 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i + 8)), _mm256_loadu_ps(pb.add(i + 8)));
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut s = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            let d = *pa.add(i) - *pb.add(i);
            s += d * d;
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(acc: &mut [f32], x: &[f32], s: f32) {
        let n = acc.len();
        let pa = acc.as_mut_ptr();
        let px = x.as_ptr();
        let vs = _mm256_set1_ps(s);
        let mut i = 0;
        while i + 8 <= n {
            let r = _mm256_fmadd_ps(vs, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(pa.add(i)));
            _mm256_storeu_ps(pa.add(i), r);
            i += 8;
        }
        while i < n {
            *pa.add(i) += s * *px.add(i);
            i += 1;
        }
    }

    /// Blocked one-query-vs-many dot: 4 rows share each query load, so the
    /// query streams from registers while rows stream from memory.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_block(query: &[f32], data: &[f32], out: &mut [f32]) {
        let dim = query.len();
        let rows = out.len();
        let pq = query.as_ptr();
        let pd = data.as_ptr();
        let d8 = dim - dim % 8;
        let mut r = 0;
        while r + 4 <= rows {
            let (r0, r1, r2, r3) = (
                pd.add(r * dim),
                pd.add((r + 1) * dim),
                pd.add((r + 2) * dim),
                pd.add((r + 3) * dim),
            );
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut j = 0;
            while j < d8 {
                let q = _mm256_loadu_ps(pq.add(j));
                a0 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r0.add(j)), a0);
                a1 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r1.add(j)), a1);
                a2 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r2.add(j)), a2);
                a3 = _mm256_fmadd_ps(q, _mm256_loadu_ps(r3.add(j)), a3);
                j += 8;
            }
            let mut s0 = hsum256(a0);
            let mut s1 = hsum256(a1);
            let mut s2 = hsum256(a2);
            let mut s3 = hsum256(a3);
            while j < dim {
                let q = *pq.add(j);
                s0 += q * *r0.add(j);
                s1 += q * *r1.add(j);
                s2 += q * *r2.add(j);
                s3 += q * *r3.add(j);
                j += 1;
            }
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        while r < rows {
            out[r] = dot(query, std::slice::from_raw_parts(pd.add(r * dim), dim));
            r += 1;
        }
    }

    /// Blocked one-query-vs-many squared L2 (see [`dot_block`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_sq_block(query: &[f32], data: &[f32], out: &mut [f32]) {
        let dim = query.len();
        let rows = out.len();
        let pq = query.as_ptr();
        let pd = data.as_ptr();
        let d8 = dim - dim % 8;
        let mut r = 0;
        while r + 4 <= rows {
            let (r0, r1, r2, r3) = (
                pd.add(r * dim),
                pd.add((r + 1) * dim),
                pd.add((r + 2) * dim),
                pd.add((r + 3) * dim),
            );
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut j = 0;
            while j < d8 {
                let q = _mm256_loadu_ps(pq.add(j));
                let d0 = _mm256_sub_ps(q, _mm256_loadu_ps(r0.add(j)));
                a0 = _mm256_fmadd_ps(d0, d0, a0);
                let d1 = _mm256_sub_ps(q, _mm256_loadu_ps(r1.add(j)));
                a1 = _mm256_fmadd_ps(d1, d1, a1);
                let d2 = _mm256_sub_ps(q, _mm256_loadu_ps(r2.add(j)));
                a2 = _mm256_fmadd_ps(d2, d2, a2);
                let d3 = _mm256_sub_ps(q, _mm256_loadu_ps(r3.add(j)));
                a3 = _mm256_fmadd_ps(d3, d3, a3);
                j += 8;
            }
            let mut s0 = hsum256(a0);
            let mut s1 = hsum256(a1);
            let mut s2 = hsum256(a2);
            let mut s3 = hsum256(a3);
            while j < dim {
                let q = *pq.add(j);
                let (e0, e1, e2, e3) = (
                    q - *r0.add(j),
                    q - *r1.add(j),
                    q - *r2.add(j),
                    q - *r3.add(j),
                );
                s0 += e0 * e0;
                s1 += e1 * e1;
                s2 += e2 * e2;
                s3 += e3 * e3;
                j += 1;
            }
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        while r < rows {
            out[r] = l2_sq(query, std::slice::from_raw_parts(pd.add(r * dim), dim));
            r += 1;
        }
    }

    #[inline]
    unsafe fn hsum256_epi32(v: __m256i) -> u32 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256(v, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x55));
        _mm_cvtsi128_si32(s) as u32
    }

    /// Widen 8 u8 codes (at `p`) to a `__m256` of f32s.
    #[inline]
    unsafe fn load8_u8_ps(p: *const u8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p as *const __m128i)))
    }

    /// u8×u8 dot. `_mm256_maddubs_epi16` saturates for unsigned×unsigned
    /// (products reach 255² = 65025 > i16::MAX), so both sides widen to i16
    /// via `cvtepu8_epi16` first and `madd_epi16` pairs them into i32 lanes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            let va = _mm256_cvtepu8_epi16(_mm_loadu_si128(pa.add(i) as *const __m128i));
            let vb = _mm256_cvtepu8_epi16(_mm_loadu_si128(pb.add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += 16;
        }
        let mut s = hsum256_epi32(acc);
        while i < n {
            s += *pa.add(i) as u32 * *pb.add(i) as u32;
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f32u8(q: &[f32], c: &[u8]) -> f32 {
        let n = q.len();
        let pq = q.as_ptr();
        let pc = c.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), load8_u8_ps(pc.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pq.add(i + 8)),
                load8_u8_ps(pc.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        if i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pq.add(i)), load8_u8_ps(pc.add(i)), acc0);
            i += 8;
        }
        let mut s = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            s += *pq.add(i) * *pc.add(i) as f32;
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_sq_f32u8(t: &[f32], s: &[f32], c: &[u8]) -> f32 {
        let n = t.len();
        let pt = t.as_ptr();
        let ps = s.as_ptr();
        let pc = c.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            // fnmadd(s, c, t) = t − s·c, the residual against the
            // dequantized coordinate.
            let d0 = _mm256_fnmadd_ps(
                _mm256_loadu_ps(ps.add(i)),
                load8_u8_ps(pc.add(i)),
                _mm256_loadu_ps(pt.add(i)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            let d1 = _mm256_fnmadd_ps(
                _mm256_loadu_ps(ps.add(i + 8)),
                load8_u8_ps(pc.add(i + 8)),
                _mm256_loadu_ps(pt.add(i + 8)),
            );
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        if i + 8 <= n {
            let d = _mm256_fnmadd_ps(
                _mm256_loadu_ps(ps.add(i)),
                load8_u8_ps(pc.add(i)),
                _mm256_loadu_ps(pt.add(i)),
            );
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            let d = *pt.add(i) - *ps.add(i) * *pc.add(i) as f32;
            sum += d * d;
            i += 1;
        }
        sum
    }

    /// Blocked one-query-vs-many f32×u8 dot (see [`dot_block`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_f32u8_block(query: &[f32], codes: &[u8], out: &mut [f32]) {
        let dim = query.len();
        let rows = out.len();
        let pq = query.as_ptr();
        let pc = codes.as_ptr();
        let d8 = dim - dim % 8;
        let mut r = 0;
        while r + 4 <= rows {
            let (r0, r1, r2, r3) = (
                pc.add(r * dim),
                pc.add((r + 1) * dim),
                pc.add((r + 2) * dim),
                pc.add((r + 3) * dim),
            );
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut j = 0;
            while j < d8 {
                let q = _mm256_loadu_ps(pq.add(j));
                a0 = _mm256_fmadd_ps(q, load8_u8_ps(r0.add(j)), a0);
                a1 = _mm256_fmadd_ps(q, load8_u8_ps(r1.add(j)), a1);
                a2 = _mm256_fmadd_ps(q, load8_u8_ps(r2.add(j)), a2);
                a3 = _mm256_fmadd_ps(q, load8_u8_ps(r3.add(j)), a3);
                j += 8;
            }
            let mut s0 = hsum256(a0);
            let mut s1 = hsum256(a1);
            let mut s2 = hsum256(a2);
            let mut s3 = hsum256(a3);
            while j < dim {
                let q = *pq.add(j);
                s0 += q * *r0.add(j) as f32;
                s1 += q * *r1.add(j) as f32;
                s2 += q * *r2.add(j) as f32;
                s3 += q * *r3.add(j) as f32;
                j += 1;
            }
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        while r < rows {
            out[r] = dot_f32u8(query, std::slice::from_raw_parts(pc.add(r * dim), dim));
            r += 1;
        }
    }

    /// Blocked one-query-vs-many asymmetric squared L2 (see
    /// [`l2_sq_f32u8`]): 4 code rows share each `t`/`s` load.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_sq_f32u8_block(t: &[f32], s: &[f32], codes: &[u8], out: &mut [f32]) {
        let dim = t.len();
        let rows = out.len();
        let pt = t.as_ptr();
        let ps = s.as_ptr();
        let pc = codes.as_ptr();
        let d8 = dim - dim % 8;
        let mut r = 0;
        while r + 4 <= rows {
            let (r0, r1, r2, r3) = (
                pc.add(r * dim),
                pc.add((r + 1) * dim),
                pc.add((r + 2) * dim),
                pc.add((r + 3) * dim),
            );
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut j = 0;
            while j < d8 {
                let vt = _mm256_loadu_ps(pt.add(j));
                let vs = _mm256_loadu_ps(ps.add(j));
                let d0 = _mm256_fnmadd_ps(vs, load8_u8_ps(r0.add(j)), vt);
                a0 = _mm256_fmadd_ps(d0, d0, a0);
                let d1 = _mm256_fnmadd_ps(vs, load8_u8_ps(r1.add(j)), vt);
                a1 = _mm256_fmadd_ps(d1, d1, a1);
                let d2 = _mm256_fnmadd_ps(vs, load8_u8_ps(r2.add(j)), vt);
                a2 = _mm256_fmadd_ps(d2, d2, a2);
                let d3 = _mm256_fnmadd_ps(vs, load8_u8_ps(r3.add(j)), vt);
                a3 = _mm256_fmadd_ps(d3, d3, a3);
                j += 8;
            }
            let mut s0 = hsum256(a0);
            let mut s1 = hsum256(a1);
            let mut s2 = hsum256(a2);
            let mut s3 = hsum256(a3);
            while j < dim {
                let tj = *pt.add(j);
                let sj = *ps.add(j);
                let (e0, e1, e2, e3) = (
                    tj - sj * *r0.add(j) as f32,
                    tj - sj * *r1.add(j) as f32,
                    tj - sj * *r2.add(j) as f32,
                    tj - sj * *r3.add(j) as f32,
                );
                s0 += e0 * e0;
                s1 += e1 * e1;
                s2 += e2 * e2;
                s3 += e3 * e3;
                j += 1;
            }
            out[r] = s0;
            out[r + 1] = s1;
            out[r + 2] = s2;
            out[r + 3] = s3;
            r += 4;
        }
        while r < rows {
            out[r] = l2_sq_f32u8(t, s, std::slice::from_raw_parts(pc.add(r * dim), dim));
            r += 1;
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load<const MASKED: bool>(p: *const f32, mask: __m256i) -> __m256 {
        if MASKED {
            _mm256_maskload_ps(p, mask)
        } else {
            _mm256_loadu_ps(p)
        }
    }

    /// One `R`-row × `8·C`-column block of [`gemm`]. The `R·C` accumulators
    /// stay in registers across the whole inner dimension: each step
    /// broadcasts one `a` value per row and FMAs it against `C` vectors of
    /// `w`'s row. Every output is `bias + Σₚ` in `p` order, so the bits do
    /// not depend on the blocking. `MASKED` confines all `w`/`bias`/`out`
    /// accesses to the lanes set in `mask` (the last `n % 8` columns).
    ///
    /// # Safety
    /// `a` must be readable for `R` rows of stride `k`; `w` for `k` rows of
    /// stride `n` and `out` writable for `R` rows of stride `n`, each
    /// `8·C` wide (or the `mask` lanes wide); `bias`, when given, as wide.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_block<const R: usize, const C: usize, const MASKED: bool>(
        a: *const f32,
        k: usize,
        w: *const f32,
        bias: Option<*const f32>,
        n: usize,
        out: *mut f32,
        mask: __m256i,
    ) {
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        if let Some(b) = bias {
            for c in 0..C {
                let v = load::<MASKED>(b.add(8 * c), mask);
                for row in &mut acc {
                    row[c] = v;
                }
            }
        }
        for p in 0..k {
            let mut wv = [_mm256_setzero_ps(); C];
            for c in 0..C {
                wv[c] = load::<MASKED>(w.add(p * n + 8 * c), mask);
            }
            for r in 0..R {
                let x = _mm256_set1_ps(*a.add(r * k + p));
                for c in 0..C {
                    acc[r][c] = _mm256_fmadd_ps(x, wv[c], acc[r][c]);
                }
            }
        }
        for r in 0..R {
            for c in 0..C {
                let dst = out.add(r * n + 8 * c);
                if MASKED {
                    _mm256_maskstore_ps(dst, mask, acc[r][c]);
                } else {
                    _mm256_storeu_ps(dst, acc[r][c]);
                }
            }
        }
    }

    /// All `m` rows of the column block starting at `j`: `R` rows at a
    /// time, the remainder one by one.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_cols<const R: usize, const C: usize, const MASKED: bool>(
        a: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        n: usize,
        out: &mut [f32],
        j: usize,
        mask: __m256i,
    ) {
        let (k, m) = (w.len() / n, out.len() / n);
        // SAFETY (both calls): `gemm_with` checked `a` is `m×k`, `w` is
        // `k×n`, `out` is `m×n` and `bias` is `n` long; the caller picked
        // `j + 8·C ≤ n`, or `mask` covering exactly the columns `j..n`.
        let (pa, pw, po) = (a.as_ptr(), w.as_ptr().add(j), out.as_mut_ptr().add(j));
        let pb = bias.map(|b| b.as_ptr().add(j));
        let mut i = 0;
        while i + R <= m {
            gemm_block::<R, C, MASKED>(pa.add(i * k), k, pw, pb, n, po.add(i * n), mask);
            i += R;
        }
        while i < m {
            gemm_block::<1, C, MASKED>(pa.add(i * k), k, pw, pb, n, po.add(i * n), mask);
            i += 1;
        }
    }

    /// Row-major `a·w (+ bias)`: column blocks from 64 wide down to the
    /// masked tail, always with `R·C = 8` accumulators in flight — enough
    /// independent FMA chains to cover the FMA latency at any width.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm(a: &[f32], w: &[f32], bias: Option<&[f32]>, n: usize, out: &mut [f32]) {
        let none = _mm256_setzero_si256();
        let mut j = 0;
        while n - j >= 64 {
            gemm_cols::<1, 8, false>(a, w, bias, n, out, j, none);
            j += 64;
        }
        if n - j >= 32 {
            gemm_cols::<2, 4, false>(a, w, bias, n, out, j, none);
            j += 32;
        }
        if n - j >= 16 {
            gemm_cols::<4, 2, false>(a, w, bias, n, out, j, none);
            j += 16;
        }
        if n - j >= 8 {
            gemm_cols::<8, 1, false>(a, w, bias, n, out, j, none);
            j += 8;
        }
        if j < n {
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - j) as i32), lanes);
            gemm_cols::<8, 1, true>(a, w, bias, n, out, j, mask);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        // Constant first: `min`/`max` return the second operand when either
        // is NaN, so NaN lanes stay NaN.
        let x = _mm256_min_ps(_mm256_set1_ps(super::TANH_CLAMP), x);
        let x = _mm256_max_ps(_mm256_set1_ps(-super::TANH_CLAMP), x);
        let x2 = _mm256_mul_ps(x, x);
        let mut p = _mm256_setzero_ps();
        for c in super::TANH_P {
            p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(c));
        }
        let mut q = _mm256_setzero_ps();
        for c in super::TANH_Q {
            q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(c));
        }
        _mm256_div_ps(_mm256_mul_ps(p, x), q)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tanh_inplace(x: &mut [f32]) {
        let mut chunks = x.chunks_exact_mut(8);
        for c in &mut chunks {
            // SAFETY: `c` is exactly 8 floats.
            _mm256_storeu_ps(c.as_mut_ptr(), tanh8(_mm256_loadu_ps(c.as_ptr())));
        }
        let tail = chunks.into_remainder();
        let mut buf = [0f32; 8];
        buf[..tail.len()].copy_from_slice(tail);
        // SAFETY: `buf` is exactly 8 floats.
        _mm256_storeu_ps(buf.as_mut_ptr(), tanh8(_mm256_loadu_ps(buf.as_ptr())));
        tail.copy_from_slice(&buf[..tail.len()]);
    }
}

/// Dot product with an explicitly chosen kernel (parity tests; prefer
/// [`dot`] everywhere else).
#[inline]
pub fn dot_with(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    match kernel {
        Kernel::Scalar => scalar::dot(a, b),
        Kernel::Portable8 => portable::dot(a, b),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::dot(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::dot(a, b),
    }
}

/// Squared L2 with an explicitly chosen kernel (parity tests).
#[inline]
pub fn l2_sq_with(kernel: Kernel, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    match kernel {
        Kernel::Scalar => scalar::l2_sq(a, b),
        Kernel::Portable8 => portable::l2_sq(a, b),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::l2_sq(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::l2_sq(a, b),
    }
}

/// Dot product (runtime-dispatched).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(active_kernel(), a, b)
}

/// Squared Euclidean distance (runtime-dispatched).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    l2_sq_with(active_kernel(), a, b)
}

/// Cosine similarity (0 when either vector is zero), built on the
/// dispatched dot product.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// `acc[i] += s * x[i]` (runtime-dispatched).
#[inline]
pub fn axpy(acc: &mut [f32], x: &[f32], s: f32) {
    assert_eq!(acc.len(), x.len(), "dimension mismatch");
    match active_kernel() {
        Kernel::Scalar => scalar::axpy(acc, x, s),
        Kernel::Portable8 => portable::axpy(acc, x, s),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::axpy(acc, x, s) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::axpy(acc, x, s),
    }
}

/// Score one query against `out.len()` contiguous row-major rows of `data`
/// with the dot product: `out[i] = query · data[i]`.
///
/// `data.len()` must equal `out.len() * query.len()`.
pub fn dot_block(query: &[f32], data: &[f32], out: &mut [f32]) {
    assert_eq!(
        data.len(),
        out.len() * query.len(),
        "row-major shape mismatch"
    );
    if query.is_empty() {
        out.fill(0.0);
        return;
    }
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::dot_block(query, data, out) },
        Kernel::Scalar => {
            for (o, row) in out.iter_mut().zip(data.chunks_exact(query.len())) {
                *o = scalar::dot(query, row);
            }
        }
        _ => {
            for (o, row) in out.iter_mut().zip(data.chunks_exact(query.len())) {
                *o = portable::dot(query, row);
            }
        }
    }
}

/// Score one query against `out.len()` contiguous row-major rows of `data`
/// with squared L2: `out[i] = ||query − data[i]||²`.
///
/// `data.len()` must equal `out.len() * query.len()`.
pub fn l2_sq_block(query: &[f32], data: &[f32], out: &mut [f32]) {
    assert_eq!(
        data.len(),
        out.len() * query.len(),
        "row-major shape mismatch"
    );
    if query.is_empty() {
        out.fill(0.0);
        return;
    }
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::l2_sq_block(query, data, out) },
        Kernel::Scalar => {
            for (o, row) in out.iter_mut().zip(data.chunks_exact(query.len())) {
                *o = scalar::l2_sq(query, row);
            }
        }
        _ => {
            for (o, row) in out.iter_mut().zip(data.chunks_exact(query.len())) {
                *o = portable::l2_sq(query, row);
            }
        }
    }
}

/// u8×u8 dot product with an explicitly chosen kernel (parity tests).
#[inline]
pub fn dot_u8_with(kernel: Kernel, a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    match kernel {
        Kernel::Scalar => scalar::dot_u8(a, b),
        Kernel::Portable8 => portable::dot_u8(a, b),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::dot_u8(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::dot_u8(a, b),
    }
}

/// f32×u8 dot product with an explicitly chosen kernel (parity tests).
#[inline]
pub fn dot_f32u8_with(kernel: Kernel, q: &[f32], c: &[u8]) -> f32 {
    assert_eq!(q.len(), c.len(), "dimension mismatch");
    match kernel {
        Kernel::Scalar => scalar::dot_f32u8(q, c),
        Kernel::Portable8 => portable::dot_f32u8(q, c),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::dot_f32u8(q, c) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::dot_f32u8(q, c),
    }
}

/// Asymmetric squared L2 with an explicitly chosen kernel (parity tests).
#[inline]
pub fn l2_sq_f32u8_with(kernel: Kernel, t: &[f32], s: &[f32], c: &[u8]) -> f32 {
    assert_eq!(t.len(), c.len(), "dimension mismatch");
    assert_eq!(s.len(), c.len(), "dimension mismatch");
    match kernel {
        Kernel::Scalar => scalar::l2_sq_f32u8(t, s, c),
        Kernel::Portable8 => portable::l2_sq_f32u8(t, s, c),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::l2_sq_f32u8(t, s, c) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => portable::l2_sq_f32u8(t, s, c),
    }
}

/// Dot product of two u8 code rows (runtime-dispatched). Exact: the
/// accumulation is integer, so every kernel returns identical bits.
#[inline]
pub fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
    dot_u8_with(active_kernel(), a, b)
}

/// Dot product of an f32 query against a u8 code row
/// (runtime-dispatched).
#[inline]
pub fn dot_f32u8(q: &[f32], c: &[u8]) -> f32 {
    dot_f32u8_with(active_kernel(), q, c)
}

/// Asymmetric squared L2 `Σ (t[i] − s[i]·c[i])²` between a prepared query
/// (`t = query − offset`, per-dim scales `s`) and a u8 code row
/// (runtime-dispatched). Equals the exact f32 squared distance between the
/// query and the dequantized row.
#[inline]
pub fn l2_sq_f32u8(t: &[f32], s: &[f32], c: &[u8]) -> f32 {
    l2_sq_f32u8_with(active_kernel(), t, s, c)
}

/// Score one f32 query against `out.len()` contiguous row-major u8 code
/// rows with the dot product: `out[i] = query · codes[i]`.
///
/// `codes.len()` must equal `out.len() * query.len()`.
pub fn dot_f32u8_block(query: &[f32], codes: &[u8], out: &mut [f32]) {
    assert_eq!(
        codes.len(),
        out.len() * query.len(),
        "row-major shape mismatch"
    );
    if query.is_empty() {
        out.fill(0.0);
        return;
    }
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::dot_f32u8_block(query, codes, out) },
        Kernel::Scalar => {
            for (o, row) in out.iter_mut().zip(codes.chunks_exact(query.len())) {
                *o = scalar::dot_f32u8(query, row);
            }
        }
        _ => {
            for (o, row) in out.iter_mut().zip(codes.chunks_exact(query.len())) {
                *o = portable::dot_f32u8(query, row);
            }
        }
    }
}

/// Score one prepared query (`t`, per-dim scales `s`) against `out.len()`
/// contiguous row-major u8 code rows with asymmetric squared L2:
/// `out[i] = Σ_d (t[d] − s[d]·codes[i][d])²`.
///
/// `codes.len()` must equal `out.len() * t.len()`; `s.len()` must equal
/// `t.len()`.
pub fn l2_sq_f32u8_block(t: &[f32], s: &[f32], codes: &[u8], out: &mut [f32]) {
    assert_eq!(s.len(), t.len(), "dimension mismatch");
    assert_eq!(codes.len(), out.len() * t.len(), "row-major shape mismatch");
    if t.is_empty() {
        out.fill(0.0);
        return;
    }
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { avx2::l2_sq_f32u8_block(t, s, codes, out) },
        Kernel::Scalar => {
            for (o, row) in out.iter_mut().zip(codes.chunks_exact(t.len())) {
                *o = scalar::l2_sq_f32u8(t, s, row);
            }
        }
        _ => {
            for (o, row) in out.iter_mut().zip(codes.chunks_exact(t.len())) {
                *o = portable::l2_sq_f32u8(t, s, row);
            }
        }
    }
}

/// [`gemm`] with an explicitly chosen kernel (parity tests).
pub fn gemm_with(
    kernel: Kernel,
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    n: usize,
    out: &mut [f32],
) {
    assert!(n > 0 && w.len().is_multiple_of(n), "row-major shape mismatch");
    assert!(out.len().is_multiple_of(n), "row-major shape mismatch");
    assert_eq!(a.len(), out.len() / n * (w.len() / n), "row-major shape mismatch");
    assert!(bias.is_none_or(|b| b.len() == n), "bias length mismatch");
    match kernel {
        Kernel::Scalar => scalar::gemm(a, w, bias, n, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers name `Avx2` only when `available_kernels()` lists
        // it (`active_kernel` takes it from the CPUID probe); the shapes
        // `avx2::gemm` indexes by were checked above.
        Kernel::Avx2 => unsafe { avx2::gemm(a, w, bias, n, out) },
        _ => portable::gemm(a, w, bias, n, out),
    }
}

/// Row-major `out = a·w (+ bias)` (runtime-dispatched): `w` is `k×n`, `a`
/// is `m×k`, `out` is `m×n`, with `k` and `m` taken from the slice lengths.
/// Built for the column encoder's shapes — `n ≤ 64` outputs stay in
/// registers while the kernel broadcast-FMAs over `k` — but correct for
/// any. For a fixed kernel every output is `bias + Σₚ a[i][p]·w[p][j]`
/// summed in `p` order, whatever `m` is.
pub fn gemm(a: &[f32], w: &[f32], bias: Option<&[f32]>, n: usize, out: &mut [f32]) {
    gemm_with(active_kernel(), a, w, bias, n, out);
}

/// [`tanh_inplace`] with an explicitly chosen kernel (parity tests).
pub fn tanh_inplace_with(kernel: Kernel, x: &mut [f32]) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `gemm_with`; any slice is a valid input.
        Kernel::Avx2 => unsafe { avx2::tanh_inplace(x) },
        // The scalar form already autovectorizes; no separate portable tier.
        _ => x.iter_mut().for_each(|v| *v = scalar::tanh(*v)),
    }
}

/// `x[i] = tanh(x[i])` (runtime-dispatched) by a rational approximation,
/// 8 lanes at a time: within 5e-7 of `f32::tanh` everywhere, exactly odd,
/// never beyond ±1, NaN in → NaN out. Not monotone to the last ulp —
/// neighbouring inputs can come back up to 5e-7 out of order.
pub fn tanh_inplace(x: &mut [f32]) {
    tanh_inplace_with(active_kernel(), x);
}

/// The kernels available on this machine (always includes scalar and
/// portable; AVX2 only when detected).
pub fn available_kernels() -> Vec<Kernel> {
    let mut out = vec![Kernel::Scalar, Kernel::Portable8];
    if detect() == Kernel::Avx2 {
        out.push(Kernel::Avx2);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Lengths exercising every unroll boundary: empty, sub-lane, odd, the
    /// 8/16 block edges, and larger-than-block sizes.
    const LENS: &[usize] = &[0, 1, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17, 24, 31, 33, 64, 100, 257];

    fn vecs(len: usize, seed: u64, scale: f32) -> (Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = (0..len).map(|_| rng.gen_range(-1.0f32..1.0) * scale).collect();
        let b = (0..len).map(|_| rng.gen_range(-1.0f32..1.0) * scale).collect();
        (a, b)
    }

    /// |got − want| ≤ 1e-5 · (magnitude of the summed terms), the right
    /// relative notion for reduction kernels (tolerant of reassociation and
    /// FMA, tight enough to catch indexing bugs).
    fn assert_close(got: f32, want: f64, terms_magnitude: f64, ctx: &str) {
        let tol = 1e-5 * terms_magnitude.max(1e-30);
        assert!(
            ((got as f64) - want).abs() <= tol,
            "{ctx}: got {got}, want {want}, tol {tol}"
        );
    }

    fn check_parity(scale: f32, seed: u64) {
        for &len in LENS {
            let (a, b) = vecs(len, seed ^ len as u64, scale);
            let dot_ref: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            let dot_mag: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as f64 * y as f64).abs())
                .sum();
            let l2_ref: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                .sum();
            for k in available_kernels() {
                let ctx = format!("kernel {} len {len} scale {scale}", k.name());
                assert_close(dot_with(k, &a, &b), dot_ref, dot_mag, &format!("dot {ctx}"));
                assert_close(l2_sq_with(k, &a, &b), l2_ref, l2_ref, &format!("l2 {ctx}"));
            }
        }
    }

    #[test]
    fn kernels_agree_on_random_inputs() {
        check_parity(1.0, 11);
        check_parity(1000.0, 12);
    }

    #[test]
    fn kernels_agree_on_denormal_adjacent_inputs() {
        // Products of ±1e-19 values land around 1e-38, the f32 denormal
        // boundary; sums must still agree relatively.
        check_parity(1e-19, 13);
    }

    #[test]
    fn blocks_match_per_row_kernels() {
        let mut rng = StdRng::seed_from_u64(21);
        for &dim in &[1usize, 3, 8, 17, 32, 64, 96] {
            for &rows in &[0usize, 1, 2, 3, 4, 5, 7, 9, 16] {
                let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let data: Vec<f32> = (0..rows * dim)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect();
                let mut got_d = vec![0f32; rows];
                let mut got_l = vec![0f32; rows];
                dot_block(&q, &data, &mut got_d);
                l2_sq_block(&q, &data, &mut got_l);
                for r in 0..rows {
                    let row = &data[r * dim..(r + 1) * dim];
                    let wd: f64 = q.iter().zip(row).map(|(&x, &y)| x as f64 * y as f64).sum();
                    let wl: f64 = q
                        .iter()
                        .zip(row)
                        .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                        .sum();
                    let mag: f64 = q
                        .iter()
                        .zip(row)
                        .map(|(&x, &y)| (x as f64 * y as f64).abs())
                        .sum();
                    assert_close(got_d[r], wd, mag, &format!("dot_block dim {dim} row {r}"));
                    assert_close(got_l[r], wl, wl.max(mag), &format!("l2_block dim {dim} row {r}"));
                }
            }
        }
    }

    #[test]
    fn axpy_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(31);
        for &len in LENS {
            let x: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let base: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let s = rng.gen_range(-2.0f32..2.0);
            let mut want = base.clone();
            scalar::axpy(&mut want, &x, s);
            let mut got = base.clone();
            axpy(&mut got, &x, s);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-6 * w.abs().max(1.0), "axpy len {len}");
            }
        }
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1., 0., 0.], &[2., 0., 0.]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1., 0.], &[0., 1.]).abs() < 1e-6);
        assert_eq!(cosine(&[0., 0.], &[1., 1.]), 0.0);
    }

    fn codes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect()
    }

    #[test]
    fn u8_dot_kernels_are_bit_exact() {
        for &len in LENS {
            let a = codes(len, 41 ^ len as u64);
            let b = codes(len, 42 ^ len as u64);
            let want: u32 = a.iter().zip(&b).map(|(&x, &y)| x as u32 * y as u32).sum();
            for k in available_kernels() {
                assert_eq!(
                    dot_u8_with(k, &a, &b),
                    want,
                    "dot_u8 kernel {} len {len}",
                    k.name()
                );
            }
        }
    }

    /// The asymmetric kernels must agree with the dequantize-then-f32-kernel
    /// route: dequantize the codes (x̂ = off + s·c), run the f32 reference,
    /// and compare. This is the parity property the two-stage scan relies on.
    #[test]
    fn int8_kernels_match_dequantized_f32() {
        let mut rng = StdRng::seed_from_u64(51);
        for &len in LENS {
            let q: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let c = codes(len, 52 ^ len as u64);
            let s: Vec<f32> = (0..len).map(|_| rng.gen_range(0.001f32..0.01)).collect();
            let off: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..0.0)).collect();
            let deq: Vec<f32> = (0..len).map(|i| off[i] + s[i] * c[i] as f32).collect();
            // dot_f32u8 computes q·c (raw codes), reference in f64.
            let dot_ref: f64 = q.iter().zip(&c).map(|(&x, &y)| x as f64 * y as f64).sum();
            let dot_mag: f64 = q
                .iter()
                .zip(&c)
                .map(|(&x, &y)| (x as f64 * y as f64).abs())
                .sum();
            // l2_sq_f32u8 on t = q − off equals ‖q − deq‖².
            let t: Vec<f32> = q.iter().zip(&off).map(|(&x, &o)| x - o).collect();
            let l2_ref: f64 = q
                .iter()
                .zip(&deq)
                .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                .sum();
            for k in available_kernels() {
                let ctx = format!("kernel {} len {len}", k.name());
                assert_close(
                    dot_f32u8_with(k, &q, &c),
                    dot_ref,
                    dot_mag,
                    &format!("dot_f32u8 {ctx}"),
                );
                assert_close(
                    l2_sq_f32u8_with(k, &t, &s, &c),
                    l2_ref,
                    l2_ref.max(dot_mag * 0.02),
                    &format!("l2_sq_f32u8 {ctx}"),
                );
            }
        }
    }

    #[test]
    fn int8_blocks_match_per_row_kernels() {
        let mut rng = StdRng::seed_from_u64(61);
        for &dim in &[1usize, 3, 8, 17, 32, 64, 96] {
            for &rows in &[0usize, 1, 2, 3, 4, 5, 7, 9, 16] {
                let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let s: Vec<f32> = (0..dim).map(|_| rng.gen_range(0.001f32..0.01)).collect();
                let data = codes(rows * dim, (dim * 31 + rows) as u64);
                let mut got_d = vec![0f32; rows];
                let mut got_l = vec![0f32; rows];
                dot_f32u8_block(&q, &data, &mut got_d);
                l2_sq_f32u8_block(&q, &s, &data, &mut got_l);
                for r in 0..rows {
                    let row = &data[r * dim..(r + 1) * dim];
                    let wd: f64 = q.iter().zip(row).map(|(&x, &y)| x as f64 * y as f64).sum();
                    let wl: f64 = q
                        .iter()
                        .zip(&s)
                        .zip(row)
                        .map(|((&t, &sc), &cc)| (t as f64 - sc as f64 * cc as f64).powi(2))
                        .sum();
                    let mag: f64 = q
                        .iter()
                        .zip(row)
                        .map(|(&x, &y)| (x as f64 * y as f64).abs())
                        .sum();
                    assert_close(
                        got_d[r],
                        wd,
                        mag,
                        &format!("dot_f32u8_block dim {dim} row {r}"),
                    );
                    assert_close(
                        got_l[r],
                        wl,
                        wl.max(mag * 0.02),
                        &format!("l2_sq_f32u8_block dim {dim} row {r}"),
                    );
                }
            }
        }
    }

    /// A buffer of `len` random floats starting one float past its
    /// allocation's start, so the slice is never 32-byte aligned.
    fn unaligned(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len + 1).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// ROADMAP 5c: every tier of the GEMM against the scalar tier, at the
    /// encoder's shapes and around them (a lone row, an odd row count that
    /// leaves every row-block remainder, one column, a masked tail, widths
    /// that chain several column blocks), on unaligned slices.
    #[test]
    fn gemm_tiers_match_scalar() {
        let mut rng = StdRng::seed_from_u64(71);
        for &(k, n) in &[(64, 1), (64, 7), (64, 32), (64, 64), (64, 100), (5, 13), (0, 9)] {
            for &m in &[0usize, 1, 3, 56, 256] {
                let (a, w, b) = (
                    unaligned(m * k, &mut rng),
                    unaligned(k * n, &mut rng),
                    unaligned(n, &mut rng),
                );
                let (a, w, b) = (&a[1..], &w[1..], &b[1..]);
                for bias in [None, Some(b)] {
                    let mut want = vec![f32::NAN; m * n + 1];
                    gemm_with(Kernel::Scalar, a, w, bias, n, &mut want[1..]);
                    for kernel in available_kernels() {
                        let mut got = vec![f32::NAN; m * n + 1];
                        gemm_with(kernel, a, w, bias, n, &mut got[1..]);
                        for (i, (g, w)) in got[1..].iter().zip(&want[1..]).enumerate() {
                            assert!(
                                (g - w).abs() <= 1e-5 * (k as f32).max(1.0).sqrt(),
                                "{} m {m} k {k} n {n} bias {} at {i}: {g} vs {w}",
                                kernel.name(),
                                bias.is_some()
                            );
                        }
                    }
                }
            }
        }
    }

    /// A row's outputs do not depend on how many rows ride along, so the
    /// encoder's one-sequence and batched calls agree to the bit.
    #[test]
    fn gemm_rows_are_independent_of_m() {
        let mut rng = StdRng::seed_from_u64(72);
        let (m, k) = (11, 64);
        for &n in &[7usize, 32, 64, 100] {
            let (a, w) = (unaligned(m * k, &mut rng), unaligned(k * n, &mut rng));
            for kernel in available_kernels() {
                let mut all = vec![0f32; m * n];
                gemm_with(kernel, &a[1..], &w[1..], None, n, &mut all);
                for i in 0..m {
                    let mut one = vec![0f32; n];
                    gemm_with(kernel, &a[1 + i * k..1 + (i + 1) * k], &w[1..], None, n, &mut one);
                    assert_eq!(one, all[i * n..(i + 1) * n], "{} n {n} row {i}", kernel.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn gemm_rejects_mismatched_shapes() {
        gemm(&[0.0; 6], &[0.0; 6], None, 3, &mut [0.0; 6]);
    }

    /// `tanh_inplace` over `xs` on one tier, through an unaligned slice
    /// whose length is whatever `xs` has (so the 8-lane tail runs too).
    fn tanh_of(kernel: Kernel, xs: &[f32]) -> Vec<f32> {
        let mut buf = vec![0f32; xs.len() + 1];
        buf[1..].copy_from_slice(xs);
        tanh_inplace_with(kernel, &mut buf[1..]);
        buf.split_off(1)
    }

    #[test]
    fn tanh_error_bound_oddness_range_and_order_on_a_dense_grid() {
        // 2^-10 steps over [-12, 12], ending one short of a lane multiple.
        let xs: Vec<f32> = (-12 * 1024..=12 * 1024).map(|i| i as f32 / 1024.0).collect();
        let neg: Vec<f32> = xs.iter().map(|x| -x).collect();
        for kernel in available_kernels() {
            let ys = tanh_of(kernel, &xs);
            let ys_neg = tanh_of(kernel, &neg);
            for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                let ctx = format!("{} tanh({x}) = {y}", kernel.name());
                assert!((y - x.tanh()).abs() <= 5e-7, "{ctx}: off f32::tanh {}", x.tanh());
                assert!(y.abs() <= 1.0, "{ctx}: beyond 1");
                assert_eq!(ys_neg[i].to_bits(), (-y).to_bits(), "{ctx}: not odd");
                if i > 0 {
                    // Order holds to within the error bound everywhere, and
                    // strictly where one step moves tanh by more than that.
                    assert!(y >= ys[i - 1] - 5e-7, "{ctx}: below tanh({})", xs[i - 1]);
                    assert!(x.abs() > 4.0 || y > ys[i - 1], "{ctx}: not increasing");
                }
            }
        }
    }

    #[test]
    fn tanh_special_values() {
        let tiny = f32::from_bits(1); // smallest subnormal
        let sub = f32::MIN_POSITIVE / 2.0;
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        let xs = [0.0, -0.0, inf, -inf, nan, tiny, -tiny, sub, -sub, 1e30, -1e30];
        for kernel in available_kernels() {
            let ys = tanh_of(kernel, &xs);
            let name = kernel.name();
            assert_eq!(ys[0].to_bits(), 0f32.to_bits(), "{name}: tanh(+0)");
            assert_eq!(ys[1].to_bits(), (-0f32).to_bits(), "{name}: tanh(-0)");
            assert!(ys[4].is_nan(), "{name}: NaN must propagate, got {}", ys[4]);
            for (&x, &y) in xs.iter().zip(&ys) {
                if !x.is_nan() {
                    let ctx = format!("{name}: tanh({x}) = {y}");
                    assert!((y - x.tanh()).abs() <= 5e-7 && y.abs() <= 1.0, "{ctx}");
                    assert_eq!(y.is_sign_negative(), x.is_sign_negative(), "{ctx}: sign");
                }
            }
        }
    }

    #[test]
    fn forcing_kernels_is_reversible() {
        // Note: other tests in this file run concurrently, so only assert
        // on the explicit-kernel paths, not the dispatched ones.
        for k in available_kernels() {
            assert!(!k.name().is_empty());
        }
        force_kernel(None);
        let auto = active_kernel();
        assert!(available_kernels().contains(&auto));
    }
}
