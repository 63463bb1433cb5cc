//! Hardware-aware kernel layer: runtime-dispatched SIMD implementations of
//! the innermost vector/matrix loops.
//!
//! Every spectrum that enters the streaming update is ground through `dot`,
//! `axpy` and the GEMM inner loop; auto-vectorization of the portable code
//! reaches the 128-bit baseline (SSE2) but never uses AVX2 or fused
//! multiply-add, because those are not in the x86-64 target baseline. This
//! module closes that gap with explicit `std::arch` kernels selected *at
//! runtime*:
//!
//! * [`Backend::Scalar`] — the unrolled portable code, verbatim from the
//!   pre-dispatch implementation (see the private `scalar` module's docs). It
//!   is always available and is the only path on non-x86-64 targets.
//! * [`Backend::Avx2Fma`] — AVX2 + FMA kernels (4 `f64` lanes, fused
//!   multiply-add), used when `is_x86_feature_detected!` confirms both
//!   features at startup.
//!
//! Dispatch rules, in priority order:
//!
//! 1. A process-wide override installed via [`set_backend_override`] —
//!    the escape hatch benches and equivalence tests use to measure both
//!    paths inside one process.
//! 2. `SPCA_FORCE_SCALAR` in the environment (any value other than empty
//!    or `0`) pins the scalar path; CI runs the whole workspace under it
//!    so the portable fallback stays covered.
//! 3. CPU feature detection, performed once and cached.
//!
//! Numerical contract: each backend is **bit-deterministic run-to-run**
//! (fixed iteration and reduction order, no threading inside a kernel),
//! but the two backends differ in the last bits because the AVX2 path
//! sums in 4-lane stripes and contracts `a*b + c` into FMAs (one rounding
//! instead of two). Callers that need bit-stable results across *machines*
//! must pin a backend; within one process the dispatched result is stable.

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A kernel implementation the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable unrolled scalar code — always available.
    Scalar,
    /// AVX2 + FMA `std::arch` kernels (x86-64 only, runtime-detected).
    Avx2Fma,
}

impl Backend {
    /// True if this backend can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Avx2Fma => avx2_available(),
        }
    }

    /// Stable lowercase name used in benchmark artifacts and logs.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2Fma => "avx2_fma",
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// 0 = no override, 1 = force scalar, 2 = force AVX2+FMA.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

static DETECTED: OnceLock<Backend> = OnceLock::new();

fn detected() -> Backend {
    *DETECTED.get_or_init(|| {
        let forced =
            std::env::var_os("SPCA_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
        if !forced && avx2_available() {
            Backend::Avx2Fma
        } else {
            Backend::Scalar
        }
    })
}

/// The backend the free functions in this module currently dispatch to.
#[inline]
pub fn backend() -> Backend {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Avx2Fma,
        _ => detected(),
    }
}

/// Installs (or with `None` clears) a process-wide backend override.
///
/// This is the measurement/testing hook: the `fig_kernels` harness and the
/// backend-equivalence tests use it to time or compare both paths within a
/// single process. Panics if the requested backend is not available on
/// this CPU — silently falling back would invalidate the measurement.
pub fn set_backend_override(b: Option<Backend>) {
    let code = match b {
        None => 0,
        Some(Backend::Scalar) => 1,
        Some(be @ Backend::Avx2Fma) => {
            assert!(be.available(), "AVX2+FMA not available on this CPU");
            2
        }
    };
    OVERRIDE.store(code, Ordering::Relaxed);
}

thread_local! {
    /// Reusable B-panel packing buffer for the AVX2 GEMM micro-kernel.
    /// One per thread so `par_gemm`'s column-band workers never contend.
    static PACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Dot product on the dispatched backend. Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_on(backend(), a, b)
}

/// Dot product on an explicit backend. Panics if lengths differ.
#[inline]
pub fn dot_on(be: Backend, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    match be {
        Backend::Scalar => scalar::dot(a, b),
        Backend::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2Fma is only selected after runtime detection.
            unsafe {
                avx2::dot(a, b)
            }
            #[cfg(not(target_arch = "x86_64"))]
            scalar::dot(a, b)
        }
    }
}

/// `y += alpha * x` on the dispatched backend. Panics if lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    axpy_on(backend(), alpha, x, y);
}

/// `y += alpha * x` on an explicit backend. Panics if lengths differ.
#[inline]
pub fn axpy_on(be: Backend, alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match be {
        Backend::Scalar => scalar::axpy(alpha, x, y),
        Backend::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2Fma is only selected after runtime detection.
            unsafe {
                avx2::axpy(alpha, x, y)
            }
            #[cfg(not(target_arch = "x86_64"))]
            scalar::axpy(alpha, x, y)
        }
    }
}

/// In-place scalar multiply on the dispatched backend.
#[inline]
pub fn scale(a: &mut [f64], s: f64) {
    scale_on(backend(), a, s);
}

/// In-place scalar multiply on an explicit backend.
#[inline]
pub fn scale_on(be: Backend, a: &mut [f64], s: f64) {
    match be {
        Backend::Scalar => scalar::scale(a, s),
        Backend::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2Fma is only selected after runtime detection.
            unsafe {
                avx2::scale(a, s)
            }
            #[cfg(not(target_arch = "x86_64"))]
            scalar::scale(a, s)
        }
    }
}

/// Squared Euclidean norm on the dispatched backend.
#[inline]
pub fn norm_sq(a: &[f64]) -> f64 {
    norm_sq_on(backend(), a)
}

/// Squared Euclidean norm on an explicit backend.
#[inline]
pub fn norm_sq_on(be: Backend, a: &[f64]) -> f64 {
    match be {
        Backend::Scalar => scalar::dot(a, a),
        Backend::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2Fma is only selected after runtime detection.
            unsafe {
                avx2::dot(a, a)
            }
            #[cfg(not(target_arch = "x86_64"))]
            scalar::dot(a, a)
        }
    }
}

/// Plane rotation `[x; y] ← [c·x − s·y; s·x + c·y]` applied element-wise to
/// two equal-length columns — the Jacobi sweep inner loop. Panics if
/// lengths differ.
#[inline]
pub fn rotate2(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    rotate2_on(backend(), x, y, c, s);
}

/// [`rotate2`] on an explicit backend. Panics if lengths differ.
#[inline]
pub fn rotate2_on(be: Backend, x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    assert_eq!(x.len(), y.len(), "rotate2: length mismatch");
    match be {
        Backend::Scalar => scalar::rotate2(x, y, c, s),
        Backend::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2Fma is only selected after runtime detection.
            unsafe {
                avx2::rotate2(x, y, c, s)
            }
            #[cfg(not(target_arch = "x86_64"))]
            scalar::rotate2(x, y, c, s)
        }
    }
}

/// GEMM inner block on the dispatched backend: accumulates `A · B` into
/// `out`, where `A` is `m × k`, `B` is `k × width` and `out` is
/// `m × width`, all column-major. `out` is *accumulated into*, so callers
/// computing a plain product must zero it first.
///
/// The AVX2 path runs a register-blocked 8×4 micro-kernel over a packed
/// copy of the B panel (kept in a per-thread reusable buffer); the scalar
/// path is the original per-column axpy loop.
#[inline]
pub fn gemm_block(m: usize, k: usize, width: usize, a: &[f64], bpan: &[f64], out: &mut [f64]) {
    gemm_block_on(backend(), m, k, width, a, bpan, out);
}

/// [`gemm_block`] on an explicit backend.
pub fn gemm_block_on(
    be: Backend,
    m: usize,
    k: usize,
    width: usize,
    a: &[f64],
    bpan: &[f64],
    out: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "gemm_block: A shape mismatch");
    assert_eq!(bpan.len(), k * width, "gemm_block: B panel shape mismatch");
    assert_eq!(out.len(), m * width, "gemm_block: output shape mismatch");
    if m == 0 || k == 0 || width == 0 {
        return;
    }
    match be {
        Backend::Scalar => scalar::gemm_block(m, k, width, a, bpan, out),
        Backend::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            PACK.with(|p| {
                let mut pack = p.borrow_mut();
                // SAFETY: Avx2Fma is only selected after runtime detection.
                unsafe { avx2::gemm_block(m, k, width, a, bpan, out, &mut pack) }
            });
            #[cfg(not(target_arch = "x86_64"))]
            scalar::gemm_block(m, k, width, a, bpan, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, lo: f64) -> Vec<f64> {
        (0..n).map(|i| lo + i as f64 * 0.37).collect()
    }

    /// Backends to test on this host: scalar always, AVX2 when present.
    fn backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        if Backend::Avx2Fma.available() {
            v.push(Backend::Avx2Fma);
        }
        v
    }

    #[test]
    fn scalar_always_available() {
        assert!(Backend::Scalar.available());
        assert_eq!(Backend::Scalar.name(), "scalar");
    }

    #[test]
    fn backend_override_round_trip() {
        set_backend_override(Some(Backend::Scalar));
        assert_eq!(backend(), Backend::Scalar);
        set_backend_override(None);
        let _ = backend(); // whatever detection yields; must not panic
    }

    #[test]
    fn dot_agrees_across_backends_all_lengths() {
        for n in 0..40 {
            let a = seq(n, -3.0);
            let b = seq(n, 2.0);
            let want = dot_on(Backend::Scalar, &a, &b);
            for be in backends() {
                let got = dot_on(be, &a, &b);
                assert!(
                    (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                    "n={n} {be:?}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn axpy_and_scale_agree_across_backends() {
        for n in [0usize, 1, 3, 4, 7, 8, 15, 16, 33, 100] {
            let x = seq(n, 0.5);
            for be in backends() {
                let mut y_want = seq(n, -1.0);
                let mut y_got = y_want.clone();
                scalar::axpy(0.75, &x, &mut y_want);
                axpy_on(be, 0.75, &x, &mut y_got);
                for (g, w) in y_got.iter().zip(&y_want) {
                    assert!((g - w).abs() <= 1e-12 * (1.0 + w.abs()), "n={n} {be:?}");
                }
                let mut s_want = x.clone();
                let mut s_got = x.clone();
                scalar::scale(&mut s_want, -1.25);
                scale_on(be, &mut s_got, -1.25);
                assert_eq!(s_got, s_want, "scale is exact (single multiply)");
            }
        }
    }

    #[test]
    fn rotate2_agrees_across_backends() {
        let (c, s) = (0.8, 0.6);
        for n in [0usize, 1, 4, 5, 13, 64] {
            let x0 = seq(n, 1.0);
            let y0 = seq(n, -2.0);
            for be in backends() {
                let (mut xw, mut yw) = (x0.clone(), y0.clone());
                let (mut xg, mut yg) = (x0.clone(), y0.clone());
                scalar::rotate2(&mut xw, &mut yw, c, s);
                rotate2_on(be, &mut xg, &mut yg, c, s);
                for i in 0..n {
                    assert!((xg[i] - xw[i]).abs() <= 1e-12 * (1.0 + xw[i].abs()));
                    assert!((yg[i] - yw[i]).abs() <= 1e-12 * (1.0 + yw[i].abs()));
                }
            }
        }
    }

    #[test]
    fn gemm_block_agrees_across_backends() {
        // Shapes straddling the 8×4 tile: remainder rows, remainder
        // columns, tiny and empty dimensions.
        for (m, k, width) in [
            (1usize, 1usize, 1usize),
            (8, 3, 4),
            (9, 5, 6),
            (16, 8, 4),
            (23, 7, 11),
            (5, 0, 3),
            (0, 4, 2),
        ] {
            let a = seq(m * k, -1.0);
            let b = seq(k * width, 0.25);
            let mut want = vec![0.0; m * width];
            gemm_block_on(Backend::Scalar, m, k, width, &a, &b, &mut want);
            for be in backends() {
                let mut got = vec![0.0; m * width];
                gemm_block_on(be, m, k, width, &a, &b, &mut got);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() <= 1e-12 * (1.0 + w.abs()),
                        "{m}x{k}x{width} {be:?}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_block_accumulates_into_out() {
        // Contract: out is accumulated, not overwritten.
        let (m, k, width) = (9usize, 2usize, 5usize);
        let a = seq(m * k, 0.0);
        let b = seq(k * width, 1.0);
        for be in backends() {
            let mut base = vec![0.0; m * width];
            gemm_block_on(be, m, k, width, &a, &b, &mut base);
            let mut acc = vec![1.0; m * width];
            gemm_block_on(be, m, k, width, &a, &b, &mut acc);
            for (x, y) in acc.iter().zip(&base) {
                assert!((x - y - 1.0).abs() < 1e-12, "{be:?}");
            }
        }
    }

    #[test]
    fn each_backend_is_deterministic_run_to_run() {
        let a = seq(1001, -4.0);
        let b = seq(1001, 3.0);
        for be in backends() {
            let first = dot_on(be, &a, &b);
            for _ in 0..5 {
                assert_eq!(dot_on(be, &a, &b).to_bits(), first.to_bits(), "{be:?}");
            }
        }
    }
}
