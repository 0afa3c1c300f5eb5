//! SIMD substrate: fixed-width `f32` lane bundles plus runtime kernel-level
//! dispatch.
//!
//! The workspace does not hand-write intrinsics for every kernel. Instead the
//! hot loops are written once against [`F32x8`] — a plain `[f32; 8]` wrapper
//! whose operations LLVM reliably lowers to vector instructions — and each
//! kernel body is instantiated twice: plainly, and behind a
//! `#[target_feature(enable = "avx2,fma")]` wrapper function (see
//! `matmul.rs`/`csr.rs`). Because the wrapper carries the feature attributes,
//! the *same source* is auto-vectorised at SSE2 width in the portable build
//! and at AVX2 width with FMA in the feature-gated one; which one runs is
//! decided once per process by [`simd_level`].
//!
//! # Levels and the `MCOND_SIMD` contract
//!
//! | `MCOND_SIMD`      | level                                             |
//! |-------------------|---------------------------------------------------|
//! | `0` / `scalar`    | [`SimdLevel::Scalar`] — reference kernels         |
//! | `portable`        | [`SimdLevel::Portable`] — lane structs, no FMA    |
//! | `avx2`            | [`SimdLevel::Avx2`] when detected, else clamped   |
//! | unset / other     | best level the CPU supports                       |
//!
//! Requests above what the CPU supports clamp down (never up), so setting
//! `MCOND_SIMD=avx2` on a non-x86 box runs the portable kernels.
//! `MCOND_SIMD=0` is the escape hatch that forces the retained scalar
//! reference kernels everywhere. There is no wider tier: an AVX-512
//! instantiation of the same bodies was bitwise identical to the AVX2 one
//! and measured slower end to end (DESIGN.md §4i), so a host with AVX-512
//! runs [`SimdLevel::Avx2`].
//!
//! # Determinism
//!
//! Lane widths change *grouping* of float additions, so SIMD results may
//! differ from the scalar reference in the last ulps — that is expected and
//! covered by tolerance tests. What is **not** allowed to vary is the result
//! across thread counts: every kernel resolves its level once at entry (on
//! the submitting thread, before any pool fan-out) and fixes its accumulation
//! order independently of how the output is partitioned. [`F32x8::reduce_add`]
//! folds lanes in one documented order for the same reason.

use std::cell::Cell;
use std::sync::OnceLock;

/// Lane count of [`F32x8`]. Eight f32s = one AVX2 register, two SSE2
/// registers — a width every target handles well.
pub const LANES: usize = 8;

/// Kernel implementation tiers, ordered so `min` clamps a request to what
/// the CPU actually supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Reference scalar kernels (`MCOND_SIMD=0`); the comparison baseline.
    Scalar,
    /// Lane-struct kernels with no FMA, auto-vectorised at whatever width
    /// the default target supports. Works on every architecture.
    Portable,
    /// Lane-struct kernels compiled with `avx2,fma` enabled (x86-64 only).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name, matching the accepted `MCOND_SIMD` values.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

static BEST: OnceLock<SimdLevel> = OnceLock::new();
static ENV_LEVEL: OnceLock<SimdLevel> = OnceLock::new();

thread_local! {
    /// [`with_simd_level`] override (tests/benches comparing levels
    /// in-process without racing on the environment).
    static LEVEL_OVERRIDE: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// Best level this CPU supports, detected once per process.
fn detect_best() -> SimdLevel {
    *BEST.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Portable
    })
}

/// `MCOND_SIMD` parsed once per process and clamped to [`detect_best`].
fn env_level() -> SimdLevel {
    *ENV_LEVEL.get_or_init(|| {
        let best = detect_best();
        let var = std::env::var("MCOND_SIMD").unwrap_or_default();
        match var.trim().to_ascii_lowercase().as_str() {
            "0" | "scalar" => SimdLevel::Scalar,
            "portable" => SimdLevel::Portable,
            "avx2" => SimdLevel::Avx2.min(best),
            // Unset, "1", or anything unrecognised: auto-detect.
            _ => best,
        }
    })
}

/// The kernel level a dispatch *on this thread, right now* would pick.
///
/// Kernels must call this once at entry and thread the answer through any
/// pool fan-out (workers have their own thread-locals and would otherwise
/// fall back to the environment level mid-kernel).
#[must_use]
pub fn simd_level() -> SimdLevel {
    LEVEL_OVERRIDE
        .with(Cell::get)
        .map_or_else(env_level, |l| l.min(detect_best()))
}

/// Runs `f` with this thread's kernel level forced to (at most) `level`,
/// restoring the previous override afterwards, also on panic.
///
/// Mirrors `mcond_par::with_thread_limit`: it exists so tests and benches
/// can compare SIMD levels within one process. Requests the CPU cannot
/// honour clamp down, so forcing `Avx2` is safe everywhere.
pub fn with_simd_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LEVEL_OVERRIDE.with(|c| c.replace(Some(level))));
    f()
}

/// Every level that is *exactly honoured* on this machine, ascending
/// (always contains `Scalar` and `Portable`). Tests sweep this list so a
/// run on an AVX2 box exercises all three tiers while a portable box
/// still passes.
#[must_use]
pub fn available_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar, SimdLevel::Portable];
    if detect_best() >= SimdLevel::Avx2 {
        levels.push(SimdLevel::Avx2);
    }
    levels
}

/// Eight `f32` lanes with alignment matching one AVX2 register.
///
/// All operations are lane-wise and written so LLVM vectorises them under
/// whatever target features the *calling* function enables — the
/// compile-twice trick the module docs describe.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    pub const ZERO: Self = Self([0.0; LANES]);

    /// All lanes set to `v`.
    #[inline(always)]
    #[must_use]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Loads the first [`LANES`] values of `src`.
    ///
    /// # Panics
    /// Panics when `src` holds fewer than [`LANES`] values.
    #[inline(always)]
    #[must_use]
    pub fn load(src: &[f32]) -> Self {
        let mut lanes = [0.0f32; LANES];
        lanes.copy_from_slice(&src[..LANES]);
        Self(lanes)
    }

    /// Stores the lanes into the first [`LANES`] values of `dst`.
    ///
    /// # Panics
    /// Panics when `dst` holds fewer than [`LANES`] values.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// Lane-wise `self + o`.
    ///
    /// Named methods instead of `std::ops` impls on purpose: every lane op
    /// in a kernel body must inline under the enclosing `#[target_feature]`
    /// wrapper, and explicit `#[inline(always)]` methods keep that property
    /// visible at the call site.
    #[inline(always)]
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for (rv, ov) in r.iter_mut().zip(&o.0) {
            *rv += *ov;
        }
        Self(r)
    }

    /// Lane-wise `self * o`.
    #[inline(always)]
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Self) -> Self {
        let mut r = self.0;
        for (rv, ov) in r.iter_mut().zip(&o.0) {
            *rv *= *ov;
        }
        Self(r)
    }

    /// Lane-wise `acc + self * o` as two rounded operations (multiply, then
    /// add). Bitwise identical to the scalar `acc += a * b` idiom, which is
    /// what the sparse kernels rely on to stay level-independent.
    #[inline(always)]
    #[must_use]
    pub fn madd(self, o: Self, acc: Self) -> Self {
        let mut r = acc.0;
        for ((rv, sv), ov) in r.iter_mut().zip(&self.0).zip(&o.0) {
            *rv += *sv * *ov;
        }
        Self(r)
    }

    /// Lane-wise fused `self.mul_add(o, acc)` (one rounding).
    ///
    /// **Only call this from functions compiled with the `fma` target
    /// feature** — without hardware FMA, `f32::mul_add` lowers to a libm
    /// call per lane and is catastrophically slower than [`Self::madd`].
    #[inline(always)]
    #[must_use]
    pub fn mul_add(self, o: Self, acc: Self) -> Self {
        let mut r = acc.0;
        for ((rv, sv), ov) in r.iter_mut().zip(&self.0).zip(&o.0) {
            *rv = sv.mul_add(*ov, *rv);
        }
        Self(r)
    }

    /// Horizontal sum in a fixed pairwise order — part of the determinism
    /// contract, so do not "simplify" to `iter().sum()`:
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
    #[inline(always)]
    #[must_use]
    pub fn reduce_add(self) -> f32 {
        let a = self.0;
        let h = [a[0] + a[4], a[1] + a[5], a[2] + a[6], a[3] + a[7]];
        let q = [h[0] + h[2], h[1] + h[3]];
        q[0] + q[1]
    }
}

/// `y += alpha * x`, vectorised over [`LANES`]-wide chunks with a scalar
/// tail. Per element this performs exactly `y[i] = y[i] + alpha * x[i]`
/// (multiply then add, no FMA), so it is bitwise identical to the scalar
/// loop it replaces at every SIMD level — the sparse kernels depend on
/// that to keep serving results independent of `MCOND_SIMD`.
///
/// # Panics
/// Panics when `x` is shorter than `y`.
#[inline(always)]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    let a = F32x8::splat(alpha);
    let mut yc = y.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (ys, xs) in (&mut yc).zip(&mut xc) {
        F32x8::load(ys).add(F32x8::load(xs).mul(a)).store(ys);
    }
    for (yv, xv) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yv += alpha * *xv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_order_supports_clamping() {
        assert!(SimdLevel::Scalar < SimdLevel::Portable);
        assert!(SimdLevel::Portable < SimdLevel::Avx2);
    }

    #[test]
    fn available_levels_start_with_the_reference_tiers() {
        let levels = available_levels();
        assert_eq!(&levels[..2], &[SimdLevel::Scalar, SimdLevel::Portable]);
        for pair in levels.windows(2) {
            assert!(pair[0] < pair[1], "levels must be ascending");
        }
        assert!(levels.contains(&detect_best()));
    }

    #[test]
    fn with_simd_level_overrides_and_restores() {
        let ambient = simd_level();
        with_simd_level(SimdLevel::Scalar, || {
            assert_eq!(simd_level(), SimdLevel::Scalar);
            // Nested overrides clamp independently.
            with_simd_level(SimdLevel::Portable, || {
                assert_eq!(simd_level(), SimdLevel::Portable);
            });
            assert_eq!(simd_level(), SimdLevel::Scalar);
        });
        assert_eq!(simd_level(), ambient);
        let caught = std::panic::catch_unwind(|| {
            with_simd_level(SimdLevel::Scalar, || panic!("escape"));
        });
        assert!(caught.is_err());
        assert_eq!(simd_level(), ambient, "override restored after panic");
    }

    #[test]
    fn forcing_an_unsupported_level_clamps_down() {
        // Avx2 may or may not exist on the test machine; either way the
        // override must resolve to something the CPU honours.
        with_simd_level(SimdLevel::Avx2, || {
            assert!(simd_level() <= detect_best());
        });
    }

    #[test]
    fn reduce_add_uses_the_documented_fold() {
        let v = F32x8([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]);
        let expected = (((1.0 + 16.0) + (4.0 + 64.0)) as f32) + ((2.0 + 32.0) + (8.0 + 128.0));
        assert_eq!(v.reduce_add().to_bits(), expected.to_bits());
    }

    #[test]
    fn axpy_is_bitwise_the_scalar_loop() {
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin() * 1e3).collect();
        let y0: Vec<f32> = (0..37).map(|i| (i as f32 * 0.11).cos()).collect();
        let alpha = 0.123_456_7f32;
        let mut fast = y0.clone();
        axpy(alpha, &x, &mut fast);
        let mut slow = y0;
        for (yv, xv) in slow.iter_mut().zip(&x) {
            *yv += alpha * *xv;
        }
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn lane_ops_match_scalar_semantics() {
        let a = F32x8([1.5, -2.0, 0.25, 3.0, -0.5, 8.0, 0.0, -1.0]);
        let b = F32x8::splat(2.0);
        let sum = a.add(b);
        let prod = a.mul(b);
        let fused = a.madd(b, F32x8::splat(1.0));
        for l in 0..LANES {
            assert_eq!(sum.0[l], a.0[l] + 2.0);
            assert_eq!(prod.0[l], a.0[l] * 2.0);
            assert_eq!(fused.0[l], 1.0 + a.0[l] * 2.0);
        }
    }
}
