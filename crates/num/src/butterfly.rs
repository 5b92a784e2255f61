//! Cooley–Tukey combine butterflies (radix 2, 4, 5 and 8) for the
//! node-local FFT (`soifft_fft::Plan`, paper §5.2.4).
//!
//! A decimation-in-time level of length `n = r·m` holds its `r` child
//! transforms back to back (`dst[j·m .. (j+1)·m]` is child `j`). For every
//! column `k < m` the combine multiplies child `j`'s `k`-th output by the
//! level twiddle `w_n^{j·k}` and runs an `r`-point DFT across the column.
//! `dst` may hold a *batch* of such blocks (`dst.len()` a multiple of
//! `r·m`), all sharing the one twiddle table: the plan hands a level's
//! single-sample children (`m = 1`) over as one batch, which is how the
//! vector kernels fill both lanes when a block has only one column.
//!
//! **Twiddle layout.** Each level owns a contiguous `(r−1) × m` table,
//! row-major in `j`: `tw[(j−1)·m + k] = w_n^{j·k}` for `1 ≤ j < r`. The
//! entries are the values the plan's root-length table holds at index
//! `j·k·(N/n)`, so indexing is a plain offset (no `%`, no division), and
//! two adjacent columns `k, k+1` sit next to each other — one 256-bit load
//! for the AVX2 kernels in [`crate::simd`].
//!
//! **Bit parity.** The public dispatchers route `f64` through the AVX2
//! kernels when [`crate::simd::simd_active`]; the `*_scalar` references
//! here are the fallback and the parity oracle. The vector lanes apply the
//! same multiplies, adds and subtracts in the same order as the scalar
//! formulas (complex multiply as `mul` + `addsub`, no FMA contraction;
//! `·(−i)` and the `w_8` rotations as exact permutes and sign flips), so
//! both paths produce identical bits. Every twiddle multiply the scalar
//! formula performs — including `w^0` on column 0 — is kept, because
//! `x·(1, 0)` is not a bitwise no-op for signed zeros.

use crate::complex::Complex;
use crate::real::Real;

/// The batch layout every combine requires; the AVX2 kernels rely on it
/// for their bounds.
pub(crate) fn check<T>(dst: &[Complex<T>], r: usize, m: usize, tw: &[Complex<T>]) {
    assert!(m >= 1, "butterfly needs m ≥ 1");
    assert_eq!(
        dst.len() % (r * m),
        0,
        "butterfly data length not a multiple of r·m"
    );
    assert_eq!(tw.len(), (r - 1) * m, "butterfly twiddle length != (r−1)·m");
}

/// Radix-2 combine over each block `[child0 | child1]` of `dst`
/// (`dst.len()` a multiple of `2m`, `tw.len() == m`).
#[inline]
pub fn radix2<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>]) {
    T::kradix2(dst, m, tw);
}

/// Radix-4 combine (`dst.len()` a multiple of `4m`, `tw.len() == 3m`).
#[inline]
pub fn radix4<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>]) {
    T::kradix4(dst, m, tw);
}

/// Radix-5 combine (`dst.len()` a multiple of `5m`, `tw.len() == 4m`).
#[inline]
pub fn radix5<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>]) {
    T::kradix5(dst, m, tw);
}

/// Radix-8 combine (`dst.len()` a multiple of `8m`, `tw.len() == 7m`).
#[inline]
pub fn radix8<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>]) {
    T::kradix8(dst, m, tw);
}

/// Scalar reference for [`radix2`].
pub fn radix2_scalar<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>]) {
    check(dst, 2, m, tw);
    for block in dst.chunks_exact_mut(2 * m) {
        for k in 0..m {
            radix2_col(block, m, tw, k);
        }
    }
}

/// Scalar reference for [`radix4`].
pub fn radix4_scalar<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>]) {
    check(dst, 4, m, tw);
    for block in dst.chunks_exact_mut(4 * m) {
        for k in 0..m {
            radix4_col(block, m, tw, k);
        }
    }
}

/// Scalar reference for [`radix5`].
pub fn radix5_scalar<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>]) {
    check(dst, 5, m, tw);
    for block in dst.chunks_exact_mut(5 * m) {
        for k in 0..m {
            radix5_col(block, m, tw, k);
        }
    }
}

/// Scalar reference for [`radix8`].
pub fn radix8_scalar<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>]) {
    check(dst, 8, m, tw);
    for block in dst.chunks_exact_mut(8 * m) {
        for k in 0..m {
            radix8_col(block, m, tw, k);
        }
    }
}

/// One radix-2 column (also the vector kernels' odd-`m` tail).
#[inline(always)]
pub(crate) fn radix2_col<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>], k: usize) {
    let t = tw[k] * dst[m + k];
    let a = dst[k];
    dst[k] = a + t;
    dst[m + k] = a - t;
}

/// One radix-4 column: DIT butterfly with forward sign `w_4 = −i`.
#[inline(always)]
pub(crate) fn radix4_col<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>], k: usize) {
    let a = dst[k];
    let b = tw[k] * dst[m + k];
    let c = tw[m + k] * dst[2 * m + k];
    let d = tw[2 * m + k] * dst[3 * m + k];
    let s0 = a + c;
    let s1 = a - c;
    let s2 = b + d;
    let s3 = (b - d).mul_neg_i();
    dst[k] = s0 + s2;
    dst[m + k] = s1 + s3;
    dst[2 * m + k] = s0 - s2;
    dst[3 * m + k] = s1 - s3;
}

/// `w_5` constants (forward sign): `(cos 2π/5, −sin 2π/5, cos 4π/5,
/// −sin 4π/5)`.
pub(crate) const W5: [f64; 4] = [
    0.309_016_994_374_947_45,
    -0.951_056_516_295_153_5,
    -0.809_016_994_374_947_4,
    -0.587_785_252_292_473_1,
];

/// One radix-5 column.
#[inline(always)]
pub(crate) fn radix5_col<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>], k: usize) {
    let [c1, s1, c2, s2] = W5.map(T::from_f64);
    let a0 = dst[k];
    let a1 = tw[k] * dst[m + k];
    let a2 = tw[m + k] * dst[2 * m + k];
    let a3 = tw[2 * m + k] * dst[3 * m + k];
    let a4 = tw[3 * m + k] * dst[4 * m + k];
    let t1 = a1 + a4;
    let t2 = a2 + a3;
    let t3 = a1 - a4;
    let t4 = a2 - a3;
    dst[k] = a0 + t1 + t2;
    // X1 = a0 + C1·t1 + C2·t2 + i(S1·t3 + S2·t4), X4 its mirror.
    let r1 = a0 + t1 * c1 + t2 * c2;
    let i1 = Complex::new(-(t3.im * s1 + t4.im * s2), t3.re * s1 + t4.re * s2);
    // X2 = a0 + C2·t1 + C1·t2 + i(S2·t3 − S1·t4), X3 its mirror.
    let r2 = a0 + t1 * c2 + t2 * c1;
    let i2 = Complex::new(-(t3.im * s2 - t4.im * s1), t3.re * s2 - t4.re * s1);
    dst[m + k] = r1 + i1;
    dst[4 * m + k] = r1 - i1;
    dst[2 * m + k] = r2 + i2;
    dst[3 * m + k] = r2 - i2;
}

/// One radix-8 column, built from two radix-4 halves joined by
/// `w_8 = (1−i)/√2` rotations — 8 outputs per column with all constants
/// in registers (the register-blocking style of §5.2.4).
#[inline(always)]
pub(crate) fn radix8_col<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>], k: usize) {
    let inv_sqrt2 = T::from_f64(std::f64::consts::FRAC_1_SQRT_2);
    let mut a = [Complex::<T>::ZERO; 8];
    a[0] = dst[k];
    for (j, slot) in a.iter_mut().enumerate().skip(1) {
        *slot = tw[(j - 1) * m + k] * dst[j * m + k];
    }
    // Even half: radix-4 over a0,a2,a4,a6.
    let e0 = a[0] + a[4];
    let e1 = a[0] - a[4];
    let e2 = a[2] + a[6];
    let e3 = (a[2] - a[6]).mul_neg_i();
    let x0 = e0 + e2;
    let x1 = e1 + e3;
    let x2 = e0 - e2;
    let x3 = e1 - e3;
    // Odd half: radix-4 over a1,a3,a5,a7.
    let o0 = a[1] + a[5];
    let o1 = a[1] - a[5];
    let o2 = a[3] + a[7];
    let o3 = (a[3] - a[7]).mul_neg_i();
    let y0 = o0 + o2;
    let y1 = o1 + o3;
    let y2 = o0 - o2;
    let y3 = o1 - o3;
    // Join with w8^l rotations: w8 = (1−i)/√2, w8² = −i, w8³ = −(1+i)/√2.
    let r1 = Complex::new((y1.re + y1.im) * inv_sqrt2, (y1.im - y1.re) * inv_sqrt2);
    let r2 = y2.mul_neg_i();
    let r3 = Complex::new((y3.im - y3.re) * inv_sqrt2, -(y3.re + y3.im) * inv_sqrt2);
    dst[k] = x0 + y0;
    dst[m + k] = x1 + r1;
    dst[2 * m + k] = x2 + r2;
    dst[3 * m + k] = x3 + r3;
    dst[4 * m + k] = x0 - y0;
    dst[5 * m + k] = x1 - r1;
    dst[6 * m + k] = x2 - r2;
    dst[7 * m + k] = x3 - r3;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    /// Direct `r`-point DFT of each twiddled column — the definition the
    /// butterflies implement.
    fn naive(dst: &[c64], r: usize, m: usize, tw: &[c64]) -> Vec<c64> {
        let mut out = vec![c64::ZERO; dst.len()];
        for (o, x) in out.chunks_exact_mut(r * m).zip(dst.chunks_exact(r * m)) {
            for k in 0..m {
                for l in 0..r {
                    let mut acc = x[k];
                    for j in 1..r {
                        let w = c64::root_of_unity(r, (j * l) as i64);
                        acc += w * (tw[(j - 1) * m + k] * x[j * m + k]);
                    }
                    o[l * m + k] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn butterflies_compute_the_column_dft() {
        for (r, f) in [
            (
                2usize,
                radix2_scalar::<f64> as fn(&mut [c64], usize, &[c64]),
            ),
            (4, radix4_scalar::<f64>),
            (5, radix5_scalar::<f64>),
            (8, radix8_scalar::<f64>),
        ] {
            for (m, blocks) in [(1usize, 1usize), (1, 3), (2, 1), (3, 2), (8, 1)] {
                let n = r * m;
                let tw: Vec<c64> = (1..r)
                    .flat_map(|j| (0..m).map(move |k| c64::root_of_unity(n, (j * k) as i64)))
                    .collect();
                let x: Vec<c64> = (0..n * blocks)
                    .map(|i| c64::new((0.3 * i as f64).sin(), (0.7 * i as f64).cos()))
                    .collect();
                let want = naive(&x, r, m, &tw);
                let mut got = x.clone();
                f(&mut got, m, &tw);
                for (g, w) in got.iter().zip(&want) {
                    assert!((*g - *w).abs() < 1e-12, "r={r} m={m}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "twiddle length")]
    fn short_twiddle_table_is_rejected() {
        let mut d = vec![c64::ZERO; 8];
        radix4(&mut d, 2, &[c64::ONE; 5]);
    }
}
