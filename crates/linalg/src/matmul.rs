//! Dense matrix multiplication kernels.
//!
//! The default path is a register-blocked packed GEMM: the operands are
//! repacked into cache-resident panels (`MR`-row slivers of A, `NR`-column
//! slivers of B, both k-major) and an `MR×NR` micro-kernel accumulates each
//! output tile entirely in registers. The micro-kernel body is written once
//! against plain arrays and instantiated behind `#[target_feature]` wrappers
//! so the same source auto-vectorises at SSE2 and at AVX2+FMA width;
//! `crate::simd` picks the tier at runtime (`MCOND_SIMD=0` forces the
//! retained scalar reference kernels). Transpose flavours avoid
//! materialising transposes: `a.matmul_tn(b)` computes `Aᵀ·B` and
//! `a.matmul_nt(b)` computes `A·Bᵀ` straight from row-major storage by
//! swapping the packing loops, so all three share one micro-kernel.
//!
//! # Parallel execution and determinism
//!
//! Every kernel row-partitions its **output** across the `mcond-par` pool
//! when the FLOP count clears [`PAR_MIN_FLOPS`]: each task owns a disjoint
//! `&mut` stripe of the result and accumulates every output element in the
//! same order as the serial path (k-blocks ascending, `p` ascending within
//! a block), so results are bit-for-bit identical for any `MCOND_THREADS`
//! value *at a fixed SIMD level*. The level itself is resolved once at
//! kernel entry — before any fan-out — and captured by the stripe closure.
//! Across levels results differ in the last ulps (FMA fuses the rounding;
//! lane grouping reorders additions); see DESIGN.md §4i.

use crate::simd::{self, F32x8, SimdLevel, LANES};
use crate::DMat;
use std::ops::Range;

/// Reports `2·m·k·n` multiply-add FLOPs to the `linalg.matmul.flops`
/// counter (one relaxed atomic load when observability is off).
fn count_flops(m: usize, k: usize, n: usize) {
    mcond_obs::counter_add("linalg.matmul.flops", 2 * (m as u64) * (k as u64) * (n as u64));
}

/// k-block edge of the scalar reference kernel. 64 keeps the streamed B
/// rows hot in L1 and was measured best among {32, 64, 128} before the
/// packed kernels landed; the reference path keeps it so `MCOND_SIMD=0`
/// reproduces the historical accumulation order.
const SCALAR_BLOCK: usize = 64;

/// Micro-kernel register-tile height (rows of A per sliver). Six is the
/// classic f32 choice: 6 × 2 accumulator vectors plus a broadcast and two
/// B loads stay inside 16 architectural registers on AVX2. Measured best
/// among {4, 6, 8, 12} on the dev box.
const MR: usize = 6;

/// Micro-kernel register-tile width (columns of B per sliver): two
/// [`LANES`]-wide vectors. Wider tiles (8×32, 8×48) measured *slower* on
/// the dev box — register spills.
const NR: usize = 2 * LANES;

/// k-extent of one packed block: `KC·(MR+NR)·4` bytes of panel per block
/// must stay cache-resident. 256 beat 128 and 512 on the dev box.
const KC: usize = 256;

/// Row-block edge (42 A-slivers): one packed A block is ≤ `MC·KC` floats,
/// ~258 KiB — L2-resident while the B panel streams through it.
const MC: usize = 252;

/// Column-panel edge: one packed B panel is ≤ `NC·KC` floats (512 KiB).
/// Must be a multiple of `NR`.
const NC: usize = 512;

/// Minimum `2·m·k·n` FLOPs before a product is worth fanning out to the
/// pool. Re-tuned for the packed kernels: at ~100 GFLOP/s a 2-MFLOP GEMM
/// runs in ~20 µs, which is where pool dispatch stops being noise. The old
/// scalar threshold (`1<<19`) made the pool win nothing below ~0.5 ms.
const PAR_MIN_FLOPS: usize = 1 << 21;

/// Minimum output rows per parallel stripe. Each stripe re-packs the B
/// panels it touches, so stripes must be tall enough to amortise that
/// O(k·n) packing against O(rows·k·n) compute — 48 rows keeps the overhead
/// under ~2% while still splitting finely enough for the pool to balance.
const PAR_MIN_ROWS: usize = 48;

// ---------------------------------------------------------------------------
// Scalar reference kernels (`MCOND_SIMD=0`), retained verbatim from the
// pre-SIMD implementation minus the `av == 0.0` skip: the branch defeated
// vectorisation on dense inputs (sparsity is `Csr`'s job) and broke IEEE
// propagation of `0·Inf`/`0·NaN`.
// ---------------------------------------------------------------------------

/// `self · other` restricted to output rows `rows`, writing into the
/// caller-provided stripe `c` (`rows.len() * n` values). Accumulation per
/// output element runs over `p` ascending within ascending k-blocks
/// regardless of the stripe, which is what makes the parallel split
/// bitwise-deterministic.
fn matmul_rows_scalar(a: &[f32], b: &[f32], c: &mut [f32], rows: Range<usize>, k: usize, n: usize) {
    for kk in (0..k).step_by(SCALAR_BLOCK) {
        let k_hi = (kk + SCALAR_BLOCK).min(k);
        for (ii, i) in rows.clone().enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[ii * n..(ii + 1) * n];
            for p in kk..k_hi {
                let av = a_row[p];
                let b_row = &b[p * n..(p + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// `selfᵀ · other` restricted to output rows `rows` (columns of `self`),
/// writing into the stripe `c`. Streams over rows of A and B; per output
/// element the `p` accumulation order is ascending.
fn matmul_tn_rows_scalar(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    rows: Range<usize>,
    k: usize,
    m: usize,
    n: usize,
) {
    // C[i][j] = sum_p A[p][i] * B[p][j]: stream over rows of A and B.
    for p in 0..k {
        let a_row = &a[p * m + rows.start..p * m + rows.end];
        let b_row = &b[p * n..(p + 1) * n];
        for (ii, &av) in a_row.iter().enumerate() {
            let c_row = &mut c[ii * n..(ii + 1) * n];
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

/// `self · otherᵀ` restricted to output rows `rows`. Every output element
/// is an independent ascending dot product.
fn matmul_nt_rows_scalar(a: &[f32], b: &[f32], c: &mut [f32], rows: Range<usize>, k: usize, n: usize) {
    for (ii, i) in rows.enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut c[ii * n..(ii + 1) * n];
        for (j, out_v) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (av, bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *out_v += acc;
        }
    }
}

/// Row-wise dot products for `matvec`, scalar reference order (ascending).
fn matvec_rows_scalar(a: &[f32], v: &[f32], out: &mut [f32], rows: Range<usize>, k: usize) {
    for (ii, i) in rows.enumerate() {
        let row = &a[i * k..(i + 1) * k];
        let mut acc = 0.0f32;
        for (av, bv) in row.iter().zip(v) {
            acc += av * bv;
        }
        out[ii] = acc;
    }
}

// ---------------------------------------------------------------------------
// Packed micro-kernel GEMM, generic over whether the target has hardware
// FMA. The `FMA` flag is a const so each instantiation compiles to
// branch-free straight-line code; `f32::mul_add` without the `fma` target
// feature would lower to a libm call per element.
// ---------------------------------------------------------------------------

/// `C[0..rh, 0..cw] += Ap · Bp` for one register tile. `ap` is an A sliver
/// (`kc × MR`, row-padded with zeros), `bp` a B sliver (`kc × NR`,
/// column-padded with zeros); the accumulators cover the full `MR×NR` tile
/// but only the `rh×cw` valid corner is stored, so the zero padding never
/// reaches `c` (NaN/Inf in real data still propagates normally because `k`
/// is never padded).
///
/// Two codegen subtleties, both measured on the dev box:
/// - each sliver row is converted to a fixed-size array reference before
///   indexing — with runtime `kc` LLVM cannot hoist the slice bounds
///   checks out of the p-loop (39 → 91 GFLOP/s);
/// - the store bounds are **compile-time constants** here. A variable
///   `acc[r][ci]` store loop keeps the whole accumulator array addressable,
///   and depending on pass ordering LLVM then round-trips every accumulator
///   through the stack *inside* the k-loop (2.3× slower). Ragged edge tiles
///   go through [`micro_tile_edge`] instead.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn micro_tile_full<const FMA: bool>(ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let av: &[f32; MR] = av.try_into().expect("A sliver row");
        let bv: &[f32; NR] = bv.try_into().expect("B sliver row");
        for r in 0..MR {
            let a = av[r];
            for ci in 0..NR {
                acc[r][ci] = if FMA { a.mul_add(bv[ci], acc[r][ci]) } else { acc[r][ci] + a * bv[ci] };
            }
        }
    }
    for r in 0..MR {
        let c_row = &mut c[r * ldc..r * ldc + NR];
        for ci in 0..NR {
            c_row[ci] += acc[r][ci];
        }
    }
}

/// [`micro_tile_full`] for ragged boundary tiles: identical accumulation
/// (so edge elements see the same order as interior ones), but only the
/// `rh×cw` valid corner of the register tile is stored. At most one tile
/// column and `MR-1` tile rows per product take this path, so its codegen
/// does not matter.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn micro_tile_edge<const FMA: bool>(
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    rh: usize,
    cw: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let av: &[f32; MR] = av.try_into().expect("A sliver row");
        let bv: &[f32; NR] = bv.try_into().expect("B sliver row");
        for r in 0..MR {
            let a = av[r];
            for ci in 0..NR {
                acc[r][ci] = if FMA { a.mul_add(bv[ci], acc[r][ci]) } else { acc[r][ci] + a * bv[ci] };
            }
        }
    }
    for r in 0..rh {
        let c_row = &mut c[r * ldc..r * ldc + cw];
        for ci in 0..cw {
            c_row[ci] += acc[r][ci];
        }
    }
}

/// Packed GEMM over an output row stripe: `C[rows, :] += op(A) · op(B)`.
///
/// The transpose flavours differ only in how elements are *addressed* while
/// packing (`a_at(i, p)`/`b_at(p, j)` return logical `A[i][p]`/`B[p][j]`),
/// so nn/tn/nt all share this driver and the micro-kernel above.
///
/// Loop nest: `j`-panels (NC) → `k`-blocks (KC, ascending) → pack B panel →
/// `i`-blocks (MC) → pack A block → micro sweep. For a fixed output element
/// the contributions arrive in ascending `k`-block order with `p` ascending
/// inside each block — independent of the stripe, which keeps the parallel
/// split bitwise-deterministic at any thread count.
#[inline(always)]
fn gemm_packed<const FMA: bool>(
    rows: Range<usize>,
    k: usize,
    n: usize,
    a_at: &impl Fn(usize, usize) -> f32,
    b_at: &impl Fn(usize, usize) -> f32,
    c: &mut [f32],
) {
    let ms = rows.len();
    if ms == 0 || n == 0 || k == 0 {
        return;
    }
    debug_assert_eq!(c.len(), ms * n);
    let kc_max = KC.min(k);
    let mut apack = vec![0.0f32; ms.min(MC).next_multiple_of(MR) * kc_max];
    let mut bpack = vec![0.0f32; n.min(NC).next_multiple_of(NR) * kc_max];
    let mut j0 = 0;
    while j0 < n {
        let jn = (j0 + NC).min(n) - j0;
        let mut kk = 0;
        while kk < k {
            let kh = (kk + KC).min(k);
            let kc = kh - kk;
            // Pack the B panel: NR-column slivers, k-major inside a sliver.
            let mut dst = 0;
            let mut jj = 0;
            while jj < jn {
                let jw = (jj + NR).min(jn) - jj;
                for p in kk..kh {
                    for x in 0..NR {
                        bpack[dst] = if x < jw { b_at(p, j0 + jj + x) } else { 0.0 };
                        dst += 1;
                    }
                }
                jj += NR;
            }
            let mut i0 = 0;
            while i0 < ms {
                let mc = (i0 + MC).min(ms) - i0;
                // Pack the A block: MR-row slivers, k-major inside a sliver.
                let mut dst = 0;
                let mut rr = 0;
                while rr < mc {
                    let rh = (rr + MR).min(mc) - rr;
                    for p in kk..kh {
                        for x in 0..MR {
                            apack[dst] =
                                if x < rh { a_at(rows.start + i0 + rr + x, p) } else { 0.0 };
                            dst += 1;
                        }
                    }
                    rr += MR;
                }
                // Micro-kernel sweep over the packed slivers.
                let mut rr = 0;
                let mut sa = 0;
                while rr < mc {
                    let rh = (rr + MR).min(mc) - rr;
                    let ap = &apack[sa * MR * kc..(sa + 1) * MR * kc];
                    let mut jj = 0;
                    let mut sb = 0;
                    while jj < jn {
                        let jw = (jj + NR).min(jn) - jj;
                        let bp = &bpack[sb * NR * kc..(sb + 1) * NR * kc];
                        let ct = &mut c[(i0 + rr) * n + j0 + jj..];
                        if rh == MR && jw == NR {
                            micro_tile_full::<FMA>(ap, bp, ct, n);
                        } else {
                            micro_tile_edge::<FMA>(ap, bp, ct, n, rh, jw);
                        }
                        jj += NR;
                        sb += 1;
                    }
                    rr += MR;
                    sa += 1;
                }
                i0 += MC;
            }
            kk += KC;
        }
        j0 += NC;
    }
}

/// Lane-blocked row dot products for `matvec`. The reduction is split into
/// 4 × [`LANES`] fixed partial sums (chunk `c` of 8 feeds partial `c mod 4`)
/// folded in one documented order, then an ascending scalar tail — the
/// order depends only on `k`, never on threading.
fn matvec_rows_lanes<const FMA: bool>(
    a: &[f32],
    v: &[f32],
    out: &mut [f32],
    rows: Range<usize>,
    k: usize,
) {
    let chunks = k / LANES;
    let quads = chunks / 4;
    for (ii, i) in rows.enumerate() {
        let row = &a[i * k..(i + 1) * k];
        // Four named accumulators, never indexed by a runtime value: an
        // `acc[c & 3]` round-robin array keeps the aggregate addressable
        // and (like the GEMM edge store) can demote all four vectors to
        // the stack inside the hot loop. Chunk c still lands in
        // accumulator c mod 4, so the accumulation order is unchanged.
        let step = |acc: F32x8, off: usize| {
            let x = F32x8::load(&row[off..]);
            let y = F32x8::load(&v[off..]);
            if FMA { x.mul_add(y, acc) } else { x.madd(y, acc) }
        };
        let (mut a0, mut a1, mut a2, mut a3) =
            (F32x8::ZERO, F32x8::ZERO, F32x8::ZERO, F32x8::ZERO);
        for q in 0..quads {
            let base = q * 4 * LANES;
            a0 = step(a0, base);
            a1 = step(a1, base + LANES);
            a2 = step(a2, base + 2 * LANES);
            a3 = step(a3, base + 3 * LANES);
        }
        let mut c = quads * 4;
        if c < chunks {
            a0 = step(a0, c * LANES);
            c += 1;
        }
        if c < chunks {
            a1 = step(a1, c * LANES);
            c += 1;
        }
        if c < chunks {
            a2 = step(a2, c * LANES);
        }
        let mut s = a0.add(a2).add(a1.add(a3)).reduce_add();
        for p in chunks * LANES..k {
            s = if FMA { row[p].mul_add(v[p], s) } else { s + row[p] * v[p] };
        }
        out[ii] = s;
    }
}

// ---------------------------------------------------------------------------
// Level instantiations: the same generic bodies compiled per feature tier.
// The `#[target_feature]` wrappers are what let LLVM re-vectorise the
// `#[inline(always)]` kernels at AVX2 width with FMA; the portable tier
// runs them without.
// ---------------------------------------------------------------------------

fn gemm_nn_portable(a: &[f32], b: &[f32], c: &mut [f32], rows: Range<usize>, k: usize, n: usize) {
    gemm_packed::<false>(rows, k, n, &|i, p| a[i * k + p], &|p, j| b[p * n + j], c);
}
#[allow(clippy::too_many_arguments)]
fn gemm_tn_portable(a: &[f32], b: &[f32], c: &mut [f32], rows: Range<usize>, k: usize, m: usize, n: usize) {
    gemm_packed::<false>(rows, k, n, &|i, p| a[p * m + i], &|p, j| b[p * n + j], c);
}
fn gemm_nt_portable(a: &[f32], b: &[f32], c: &mut [f32], rows: Range<usize>, k: usize, n: usize) {
    gemm_packed::<false>(rows, k, n, &|i, p| a[i * k + p], &|p, j| b[j * k + p], c);
}
fn matvec_portable(a: &[f32], v: &[f32], out: &mut [f32], rows: Range<usize>, k: usize) {
    matvec_rows_lanes::<false>(a, v, out, rows, k);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_nn_avx2(a: &[f32], b: &[f32], c: &mut [f32], rows: Range<usize>, k: usize, n: usize) {
    gemm_packed::<true>(rows, k, n, &|i, p| a[i * k + p], &|p, j| b[p * n + j], c);
}
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_tn_avx2(a: &[f32], b: &[f32], c: &mut [f32], rows: Range<usize>, k: usize, m: usize, n: usize) {
    gemm_packed::<true>(rows, k, n, &|i, p| a[p * m + i], &|p, j| b[p * n + j], c);
}
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_nt_avx2(a: &[f32], b: &[f32], c: &mut [f32], rows: Range<usize>, k: usize, n: usize) {
    gemm_packed::<true>(rows, k, n, &|i, p| a[i * k + p], &|p, j| b[j * k + p], c);
}
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matvec_avx2(a: &[f32], v: &[f32], out: &mut [f32], rows: Range<usize>, k: usize) {
    matvec_rows_lanes::<true>(a, v, out, rows, k);
}

// ---------------------------------------------------------------------------
// Per-stripe dispatch. The level is decided by the *caller* (once, at
// kernel entry, before any pool fan-out) and passed down so every stripe of
// one product runs the same tier.
// ---------------------------------------------------------------------------

fn matmul_rows_level(
    level: SimdLevel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    rows: Range<usize>,
    k: usize,
    n: usize,
) {
    match level {
        SimdLevel::Scalar => matmul_rows_scalar(a, b, c, rows, k, n),
        SimdLevel::Portable => gemm_nn_portable(a, b, c, rows, k, n),
        // SAFETY: `simd::simd_level()` only yields Avx2 after runtime
        // feature detection succeeded (clamped in `with_simd_level` too).
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { gemm_nn_avx2(a, b, c, rows, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => gemm_nn_portable(a, b, c, rows, k, n),
    }
}

#[allow(clippy::too_many_arguments)]
fn matmul_tn_rows_level(
    level: SimdLevel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    rows: Range<usize>,
    k: usize,
    m: usize,
    n: usize,
) {
    match level {
        SimdLevel::Scalar => matmul_tn_rows_scalar(a, b, c, rows, k, m, n),
        SimdLevel::Portable => gemm_tn_portable(a, b, c, rows, k, m, n),
        // SAFETY: as in `matmul_rows_level`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { gemm_tn_avx2(a, b, c, rows, k, m, n) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => gemm_tn_portable(a, b, c, rows, k, m, n),
    }
}

fn matmul_nt_rows_level(
    level: SimdLevel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    rows: Range<usize>,
    k: usize,
    n: usize,
) {
    match level {
        SimdLevel::Scalar => matmul_nt_rows_scalar(a, b, c, rows, k, n),
        SimdLevel::Portable => gemm_nt_portable(a, b, c, rows, k, n),
        // SAFETY: as in `matmul_rows_level`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { gemm_nt_avx2(a, b, c, rows, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => gemm_nt_portable(a, b, c, rows, k, n),
    }
}

fn matvec_rows_level(
    level: SimdLevel,
    a: &[f32],
    v: &[f32],
    out: &mut [f32],
    rows: Range<usize>,
    k: usize,
) {
    match level {
        SimdLevel::Scalar => matvec_rows_scalar(a, v, out, rows, k),
        SimdLevel::Portable => matvec_portable(a, v, out, rows, k),
        // SAFETY: as in `matmul_rows_level`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { matvec_avx2(a, v, out, rows, k) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => matvec_portable(a, v, out, rows, k),
    }
}

impl DMat {
    /// `self · other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    #[must_use]
    pub fn matmul(&self, other: &DMat) -> DMat {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul: {}x{} · {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let (m, k, n) = (self.rows(), self.cols(), other.cols());
        count_flops(m, k, n);
        let level = simd::simd_level();
        let mut out = DMat::zeros(m, n);
        let a = self.as_slice();
        let b = other.as_slice();
        // The thread gate matters even though `parallel_row_chunks` would
        // run serially anyway: its serial path still iterates the chunk
        // ranges, and per-stripe B-panel re-packing is pure overhead when
        // one thread does all the work. Stripe boundaries never change the
        // per-element accumulation order, so this is bit-neutral.
        if mcond_par::max_threads() > 1 && 2 * m * k * n >= PAR_MIN_FLOPS {
            mcond_par::parallel_row_chunks(out.as_mut_slice(), n.max(1), PAR_MIN_ROWS, |rows, chunk| {
                matmul_rows_level(level, a, b, chunk, rows, k, n);
            });
        } else {
            matmul_rows_level(level, a, b, out.as_mut_slice(), 0..m, k, n);
        }
        out
    }

    /// `selfᵀ · other` without materialising the transpose.
    ///
    /// # Panics
    /// Panics when `self.rows() != other.rows()`.
    #[must_use]
    pub fn matmul_tn(&self, other: &DMat) -> DMat {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_tn: Aᵀ·B needs equal row counts ({} vs {})",
            self.rows(),
            other.rows()
        );
        let (k, m, n) = (self.rows(), self.cols(), other.cols());
        count_flops(m, k, n);
        let level = simd::simd_level();
        let mut out = DMat::zeros(m, n);
        let a = self.as_slice();
        let b = other.as_slice();
        if mcond_par::max_threads() > 1 && 2 * m * k * n >= PAR_MIN_FLOPS {
            mcond_par::parallel_row_chunks(out.as_mut_slice(), n.max(1), PAR_MIN_ROWS, |rows, chunk| {
                matmul_tn_rows_level(level, a, b, chunk, rows, k, m, n);
            });
        } else {
            matmul_tn_rows_level(level, a, b, out.as_mut_slice(), 0..m, k, m, n);
        }
        out
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// # Panics
    /// Panics when `self.cols() != other.cols()`.
    #[must_use]
    pub fn matmul_nt(&self, other: &DMat) -> DMat {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_nt: A·Bᵀ needs equal column counts ({} vs {})",
            self.rows(),
            other.rows()
        );
        let (m, k, n) = (self.rows(), self.cols(), other.rows());
        count_flops(m, k, n);
        let level = simd::simd_level();
        let mut out = DMat::zeros(m, n);
        let a = self.as_slice();
        let b = other.as_slice();
        if mcond_par::max_threads() > 1 && 2 * m * k * n >= PAR_MIN_FLOPS {
            mcond_par::parallel_row_chunks(out.as_mut_slice(), n.max(1), PAR_MIN_ROWS, |rows, chunk| {
                matmul_nt_rows_level(level, a, b, chunk, rows, k, n);
            });
        } else {
            matmul_nt_rows_level(level, a, b, out.as_mut_slice(), 0..m, k, n);
        }
        out
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    /// Panics when `v.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.cols(), "matvec: dimension mismatch");
        let (m, k) = (self.rows(), self.cols());
        count_flops(m, k, 1);
        let level = simd::simd_level();
        let mut out = vec![0.0f32; m];
        let a = self.as_slice();
        if mcond_par::max_threads() > 1 && 2 * m * k >= PAR_MIN_FLOPS {
            mcond_par::parallel_row_chunks(&mut out, 1, 64, |rows, chunk| {
                matvec_rows_level(level, a, v, chunk, rows, k);
            });
        } else {
            matvec_rows_level(level, a, v, &mut out, 0..m, k);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{available_levels, with_simd_level};
    use crate::{approx_eq, MatRng};

    fn naive(a: &DMat, b: &DMat) -> DMat {
        let mut out = DMat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a.get(i, p) * b.get(p, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn assert_close(a: &DMat, b: &DMat) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(*x, *y, 1e-4), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive_on_odd_shapes() {
        let mut rng = MatRng::seed_from(7);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 65, 9), (70, 70, 70)] {
            let a = rng.uniform(m, k, -1.0, 1.0);
            let b = rng.uniform(k, n, -1.0, 1.0);
            assert_close(&a.matmul(&b), &naive(&a, &b));
        }
    }

    #[test]
    fn every_simd_level_matches_naive() {
        let mut rng = MatRng::seed_from(19);
        // Shapes straddle the MR=6 / NR=16 tile edges and KC.
        for &(m, k, n) in &[(1, 1, 1), (6, 16, 32), (7, 300, 33), (65, 130, 31)] {
            let a = rng.uniform(m, k, -1.0, 1.0);
            let b = rng.uniform(k, n, -1.0, 1.0);
            let want = naive(&a, &b);
            for level in available_levels() {
                let got = with_simd_level(level, || a.matmul(&b));
                assert_close(&got, &want);
            }
        }
    }

    #[test]
    fn transpose_flavours_match_explicit_transpose() {
        let mut rng = MatRng::seed_from(11);
        let a = rng.uniform(13, 7, -1.0, 1.0);
        let b = rng.uniform(13, 5, -1.0, 1.0);
        let c = rng.uniform(4, 7, -1.0, 1.0);
        for level in available_levels() {
            with_simd_level(level, || {
                assert_close(&a.matmul_tn(&b), &a.transpose().matmul(&b));
                assert_close(&a.matmul_nt(&c), &a.matmul(&c.transpose()));
            });
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = MatRng::seed_from(3);
        let a = rng.uniform(6, 6, -2.0, 2.0);
        assert_close(&a.matmul(&DMat::eye(6)), &a);
        assert_close(&DMat::eye(6).matmul(&a), &a);
    }

    #[test]
    fn matvec_matches_matmul_column() {
        let a = DMat::from_rows(&[&[1., 2.], &[3., 4.]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn dimension_mismatch_panics() {
        let _ = DMat::zeros(2, 3).matmul(&DMat::zeros(2, 3));
    }

    /// The determinism contract: for sizes well above [`PAR_MIN_FLOPS`],
    /// forced-serial and 4-way-parallel runs must agree **bitwise** for
    /// every kernel flavour at every SIMD level — row-partitioned outputs
    /// never change the per-element accumulation order, and the level is
    /// resolved before fan-out.
    #[test]
    fn parallel_kernels_are_bitwise_deterministic_at_every_level() {
        let mut rng = MatRng::seed_from(42);
        // 157·311·97 ≈ 9.5 MFLOP — comfortably above PAR_MIN_FLOPS, odd
        // shapes to exercise ragged chunks and tile edges.
        let a = rng.uniform(157, 311, -1.0, 1.0);
        let b = rng.uniform(311, 97, -1.0, 1.0);
        let at = rng.uniform(311, 157, -1.0, 1.0);
        let bt = rng.uniform(157, 311, -1.0, 1.0);
        let v: Vec<f32> = (0..311).map(|i| (i as f32).sin()).collect();

        for level in available_levels() {
            let run = || (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt), a.matvec(&v));
            let serial = with_simd_level(level, || mcond_par::with_thread_limit(1, run));
            let parallel = with_simd_level(level, || mcond_par::with_thread_limit(4, run));
            let tag = level.name();
            assert_eq!(serial.0.as_slice(), parallel.0.as_slice(), "matmul drifted at {tag}");
            assert_eq!(serial.1.as_slice(), parallel.1.as_slice(), "matmul_tn drifted at {tag}");
            assert_eq!(serial.2.as_slice(), parallel.2.as_slice(), "matmul_nt drifted at {tag}");
            assert_eq!(serial.3, parallel.3, "matvec drifted at {tag}");
        }
    }
}
