//! Node-local FFT library, built from scratch.
//!
//! The SOI algorithm (and the Cooley–Tukey baseline) needs three kinds of
//! node-local transforms, all implemented here rather than borrowed from an
//! external FFT crate — the local FFT is one of the things the paper
//! optimizes (§5.2), so it is part of what this reproduction builds:
//!
//! * **Small/medium transforms** ([`Plan`]): recursive decimation-in-time
//!   Cooley–Tukey for power-of-two and smooth composite sizes (specialized
//!   radix-2/3/4/5/8 butterflies, generic small-prime butterfly), and
//!   Bluestein's chirp-z algorithm for arbitrary sizes. These cover the
//!   `F_L` segment transforms, whose size is the total segment count and
//!   thus arbitrary.
//! * **Batched transforms** ([`batch`]): many independent same-size FFTs —
//!   the `I_{M'} ⊗ F_L` stage runs `M'` of them per node; the paper
//!   vectorizes 8 at a time across the batch (Fig 4(b) step 2).
//! * **Large 1D transforms** ([`sixstep`]): Bailey's 6-step algorithm for
//!   the `F_{M'}` stage, in the paper's two forms — the naive 13-memory-
//!   sweep variant of Fig 4(a) and the fused 4-sweep variant of Fig 4(b) —
//!   plus the architecture-aware rungs of the Fig 10 ladder (dynamic-block
//!   twiddle tables, tiled transposed write-back, fine-grain
//!   parallelization) and the fused-demodulation hook of §5.2.4.
//!
//! Conventions: forward transform is `y_k = Σ_n x_n e^{−2πi nk/N}`
//! (unnormalized, FFTW/MKL-compatible); the inverse is normalized by `1/N`
//! so `inverse(forward(x)) == x`. Flop counts everywhere use the paper's
//! `5 N log₂ N` convention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bluestein;
pub mod cache;
pub mod dft;
pub mod iterative;
pub mod multi;
pub mod plan;
pub mod planar;
pub mod real;
pub mod sixstep;
pub mod stockham;
pub mod twiddle;

pub use cache::{
    global_plan_cache_stats, shared_plan, shared_plan_f32, shared_plan_stats,
    shared_plan_stats_f32, try_shared_plan, try_shared_plan_f32, PlanCache, PlanCacheStats,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use iterative::IterativeFft;
pub use multi::{Plan2d, Plan3d};
pub use plan::{Plan, PlanError};
pub use planar::PlanarFft;
pub use real::RealFft;
pub use sixstep::{SixStepFft, SixStepScratch, SixStepVariant};
pub use stockham::StockhamFft;

/// Flops of an `n`-point complex FFT under the paper's `5 n log₂ n`
/// convention (used consistently for GFLOPS reporting so that rates are
/// comparable with the paper's).
pub fn fft_flops(n: usize) -> f64 {
    let n = n as f64;
    5.0 * n * n.log2()
}
