//! Numerics substrate for the `soifft` workspace.
//!
//! This crate hosts the building blocks that every other crate leans on:
//!
//! * [`Complex`] — a complex number generic over the precision parameter
//!   [`Real`], with the concrete aliases [`c64`] (double precision, the
//!   paper's native format, 16 bytes per element) and [`c32`] (single
//!   precision, 8 bytes per element — the half-payload data path),
//! * [`real`] — the sealed [`Real`] trait (`f64` and `f32`) that threads
//!   precision through every layer above,
//! * [`simd`] — runtime-detected AVX2 kernels for the hot loops, with
//!   bit-identical scalar fallbacks,
//! * [`butterfly`] — the local FFT's radix-2/4/8 combine butterflies over
//!   division-free per-level twiddle tables (AVX2 for `f64`),
//! * [`SoaComplex`] — "Struct of Arrays" complex storage plus conversions to
//!   and from the interleaved "Array of Structs" layout (paper §5.2.4),
//! * [`special`] — the special functions needed by the SOI window design
//!   (`erf`, `erfc`, the modified Bessel function `I₀`, `sinc`),
//! * [`transpose`] — cache-blocked matrix transposition kernels (the
//!   workhorse of the 6-step local FFT and of the local permutation that
//!   precedes the all-to-all),
//! * [`strided`] — strided gather/scatter copies,
//! * [`factor`] — small integer factorization utilities used by FFT
//!   planning,
//! * [`error`] — error norms used by tests and the accuracy benches.
//!
//! # Safety posture
//!
//! The crate is `#![deny(unsafe_code)]` with exactly one audited carve-out:
//! the [`simd`] module, which holds the `std::arch` AVX2 kernels behind
//! runtime feature detection. Every `unsafe` block in the workspace's
//! numerical core lives in that one file, each kernel is a leaf function
//! whose bounds are asserted by a safe dispatcher before it runs, and each
//! is property-tested bit-identical to the safe scalar fallback that the
//! same dispatcher uses on hosts without AVX2 (or when
//! `SOIFFT_FORCE_SCALAR=1`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod butterfly;
pub mod complex;
pub mod dpss;
pub mod error;
pub mod factor;
pub mod kernels;
pub mod real;
#[allow(unsafe_code)]
pub mod simd;
pub mod soa;
pub mod special;
pub mod strided;
pub mod transpose;
pub mod tridiag;

pub use complex::{c32, c64, Complex};
pub use real::Real;
pub use soa::SoaComplex;
