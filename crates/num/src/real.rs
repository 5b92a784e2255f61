//! The precision parameter of the numeric substrate.
//!
//! Every layer above this crate — complex arithmetic, the micro-kernels,
//! FFT plans, the SOI pipeline — is generic over one scalar type
//! implementing [`Real`]. Two implementations exist: `f64` (the default,
//! matching the paper's double-precision arithmetic) and `f32` (the
//! half-payload path: the paper's Section 5 gains are bandwidth gains, and
//! a 4-byte scalar literally halves the bytes moved by the convolution,
//! the local FFTs and the all-to-all).
//!
//! The trait is deliberately *sealed* to those two types: the kernel
//! dispatch hooks (`kdot`, `kaxpy_pointwise`, …) pick a runtime-detected
//! AVX2 implementation per concrete type (see [`crate::simd`]), and the
//! accuracy contracts in the workspace (SNR floors, scalar/SIMD bit
//! parity) are only characterized for these two.
//!
//! Precision-sensitive *constants* (twiddles, window taps, chirps) are
//! always computed in `f64` and then demoted through [`Real::from_f64`],
//! so an `f32` table entry is within half an ulp of the mathematical
//! value rather than compounding single-precision trig error.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::complex::Complex;
use crate::{butterfly, kernels, transpose};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A real scalar type the numeric substrate can compute in.
///
/// Implemented for `f64` and `f32` only (the trait is sealed). All
/// methods mirror the corresponding `std` float methods; the `k*` hooks
/// are the per-type kernel dispatchers — callers go through the free
/// functions in [`crate::kernels`] / [`crate::transpose`] and never call
/// these directly.
pub trait Real:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Size of one scalar in bytes (payload accounting: a complex element
    /// is `2 * BYTES` on the wire).
    const BYTES: usize;

    /// Demotes (or passes through) an `f64` value.
    fn from_f64(x: f64) -> Self;
    /// Promotes (or passes through) to `f64`.
    fn to_f64(self) -> f64;
    /// `self * a + b` with a single rounding where the target supports it.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// `sqrt(self² + other²)` without intermediate overflow.
    fn hypot(self, other: Self) -> Self;
    /// Four-quadrant arctangent `atan2(self, other)`.
    fn atan2(self, other: Self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE maximum.
    fn max(self, other: Self) -> Self;
    /// True when NaN.
    fn is_nan(self) -> bool;
    /// True when neither NaN nor infinite.
    fn is_finite(self) -> bool;

    /// Kernel hook: inner product `Σ t[i]·x[i]` (see [`kernels::dot`]).
    #[doc(hidden)]
    fn kdot(t: &[Complex<Self>], x: &[Complex<Self>]) -> Complex<Self> {
        kernels::dot_scalar(t, x)
    }

    /// Kernel hook: `acc[i] += t[i]·x[i]` (see [`kernels::axpy_pointwise`]).
    #[doc(hidden)]
    fn kaxpy_pointwise(acc: &mut [Complex<Self>], t: &[Complex<Self>], x: &[Complex<Self>]) {
        kernels::axpy_pointwise_scalar(acc, t, x);
    }

    /// Kernel hook: `data[i] *= scale[i]` (see [`kernels::mul_pointwise`]).
    #[doc(hidden)]
    fn kmul_pointwise(data: &mut [Complex<Self>], scale: &[Complex<Self>]) {
        kernels::mul_pointwise_scalar(data, scale);
    }

    /// Kernel hook: strided-tile transpose (see
    /// [`transpose::transpose_tile`]).
    #[doc(hidden)]
    fn ktranspose_tile(
        src: &[Complex<Self>],
        src_stride: usize,
        dst: &mut [Complex<Self>],
        dst_stride: usize,
        rows: usize,
        cols: usize,
    ) {
        transpose::transpose_tile_scalar(src, src_stride, dst, dst_stride, rows, cols);
    }

    /// Kernel hook: radix-2 FFT combine (see [`butterfly::radix2`]).
    #[doc(hidden)]
    fn kradix2(dst: &mut [Complex<Self>], m: usize, tw: &[Complex<Self>]) {
        butterfly::radix2_scalar(dst, m, tw);
    }

    /// Kernel hook: radix-4 FFT combine (see [`butterfly::radix4`]).
    #[doc(hidden)]
    fn kradix4(dst: &mut [Complex<Self>], m: usize, tw: &[Complex<Self>]) {
        butterfly::radix4_scalar(dst, m, tw);
    }

    /// Kernel hook: radix-5 FFT combine (see [`butterfly::radix5`]).
    #[doc(hidden)]
    fn kradix5(dst: &mut [Complex<Self>], m: usize, tw: &[Complex<Self>]) {
        butterfly::radix5_scalar(dst, m, tw);
    }

    /// Kernel hook: radix-8 FFT combine (see [`butterfly::radix8`]).
    #[doc(hidden)]
    fn kradix8(dst: &mut [Complex<Self>], m: usize, tw: &[Complex<Self>]) {
        butterfly::radix8_scalar(dst, m, tw);
    }
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn hypot(self, other: Self) -> Self {
        f64::hypot(self, other)
    }
    #[inline(always)]
    fn atan2(self, other: Self) -> Self {
        f64::atan2(self, other)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    #[inline]
    fn kdot(t: &[Complex<f64>], x: &[Complex<f64>]) -> Complex<f64> {
        crate::simd::dot_c64(t, x)
    }
    #[inline]
    fn kaxpy_pointwise(acc: &mut [Complex<f64>], t: &[Complex<f64>], x: &[Complex<f64>]) {
        crate::simd::axpy_pointwise_c64(acc, t, x);
    }
    #[inline]
    fn kmul_pointwise(data: &mut [Complex<f64>], scale: &[Complex<f64>]) {
        crate::simd::mul_pointwise_c64(data, scale);
    }
    #[inline]
    fn ktranspose_tile(
        src: &[Complex<f64>],
        src_stride: usize,
        dst: &mut [Complex<f64>],
        dst_stride: usize,
        rows: usize,
        cols: usize,
    ) {
        crate::simd::transpose_tile_c64(src, src_stride, dst, dst_stride, rows, cols);
    }
    #[inline]
    fn kradix2(dst: &mut [Complex<f64>], m: usize, tw: &[Complex<f64>]) {
        crate::simd::radix2_c64(dst, m, tw);
    }
    #[inline]
    fn kradix4(dst: &mut [Complex<f64>], m: usize, tw: &[Complex<f64>]) {
        crate::simd::radix4_c64(dst, m, tw);
    }
    #[inline]
    fn kradix5(dst: &mut [Complex<f64>], m: usize, tw: &[Complex<f64>]) {
        crate::simd::radix5_c64(dst, m, tw);
    }
    #[inline]
    fn kradix8(dst: &mut [Complex<f64>], m: usize, tw: &[Complex<f64>]) {
        crate::simd::radix8_c64(dst, m, tw);
    }
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn hypot(self, other: Self) -> Self {
        f32::hypot(self, other)
    }
    #[inline(always)]
    fn atan2(self, other: Self) -> Self {
        f32::atan2(self, other)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    #[inline]
    fn kdot(t: &[Complex<f32>], x: &[Complex<f32>]) -> Complex<f32> {
        crate::simd::dot_c32(t, x)
    }
    #[inline]
    fn kaxpy_pointwise(acc: &mut [Complex<f32>], t: &[Complex<f32>], x: &[Complex<f32>]) {
        crate::simd::axpy_pointwise_c32(acc, t, x);
    }
    #[inline]
    fn kmul_pointwise(data: &mut [Complex<f32>], scale: &[Complex<f32>]) {
        crate::simd::mul_pointwise_c32(data, scale);
    }
    #[inline]
    fn ktranspose_tile(
        src: &[Complex<f32>],
        src_stride: usize,
        dst: &mut [Complex<f32>],
        dst_stride: usize,
        rows: usize,
        cols: usize,
    ) {
        crate::simd::transpose_tile_c32(src, src_stride, dst, dst_stride, rows, cols);
    }
}
