//! Scalar ↔ SIMD bit-parity for the hot kernels in `soifft_num::simd`.
//!
//! The dispatchers promise that the AVX2 path is **bit-identical** to the
//! scalar fallback on the same inputs (the scalar references mirror the
//! vector accumulator-lane structure, so even the reduction order
//! matches). These properties pin that promise across random lengths —
//! including the ragged tails the vector kernels handle specially — and
//! random finite values.
//!
//! On hosts without AVX2+FMA (or with `SOIFFT_FORCE_SCALAR=1`) the
//! dispatchers take the scalar path and every property holds trivially;
//! the CI matrix runs both configurations.

use proptest::prelude::*;
use soifft::fft::{Plan, SixStepFft, SixStepVariant};
use soifft::num::butterfly;
use soifft::num::kernels;
use soifft::num::simd;
use soifft::num::{c32, c64};
use soifft::par::Pool;

/// Plan lengths reaching every combine path: the 2/4-point leaves alone,
/// radix 8 at one column (block-pair lanes), radix 3/5, the generic
/// butterfly (7, 31), mixed schedules with odd column counts (640 =
/// 8·8·2·5, 40, 12), a depth-first top over flat subtrees (4096), and
/// Bluestein (37, through its power-of-two inner plan).
const PLAN_LENS: [usize; 15] = [
    2,
    4,
    8,
    3,
    5,
    7,
    31,
    16,
    12,
    40,
    640,
    1024,
    4096,
    3 << 9,
    37,
];

/// Small composite six-step sizes: square, ragged and odd splits.
const SIXSTEP_LENS: [usize; 5] = [36, 240, 640, 1024, 4096];

/// Deterministic finite values in [-1, 1); same xorshift as the bench
/// signal generator so failures reproduce from `(len, seed)` alone.
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn vec_c64(len: usize, seed: u64) -> Vec<c64> {
    let mut next = stream(seed);
    (0..len).map(|_| c64::new(next(), next())).collect()
}

fn vec_c32(len: usize, seed: u64) -> Vec<c32> {
    let mut next = stream(seed);
    (0..len)
        .map(|_| c32::new(next() as f32, next() as f32))
        .collect()
}

fn bits64(v: &[c64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

fn bits32(v: &[c32]) -> Vec<(u32, u32)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `dot` (c64): dispatcher == two-lane scalar reference, bitwise.
    #[test]
    fn dot_c64_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let t = vec_c64(len, seed);
        let x = vec_c64(len, seed ^ 0xABCD);
        let got = simd::dot_c64(&t, &x);
        let want = kernels::dot_scalar(&t, &x);
        prop_assert_eq!(got.re.to_bits(), want.re.to_bits());
        prop_assert_eq!(got.im.to_bits(), want.im.to_bits());
    }

    /// `dot` (c32): dispatcher == four-lane scalar reference, bitwise.
    #[test]
    fn dot_c32_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let t = vec_c32(len, seed);
        let x = vec_c32(len, seed ^ 0xABCD);
        let got = simd::dot_c32(&t, &x);
        let want = simd::dot_c32_scalar(&t, &x);
        prop_assert_eq!(got.re.to_bits(), want.re.to_bits());
        prop_assert_eq!(got.im.to_bits(), want.im.to_bits());
    }

    /// Split dot (f32 operands, f64 accumulate): widening makes every
    /// product exact, so SIMD and scalar agree bitwise too.
    #[test]
    fn dot_split_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let t = vec_c32(len, seed);
        let x = vec_c32(len, seed ^ 0xABCD);
        let got = simd::dot_split(&t, &x);
        let want = simd::dot_split_scalar(&t, &x);
        prop_assert_eq!(got.re.to_bits(), want.re.to_bits());
        prop_assert_eq!(got.im.to_bits(), want.im.to_bits());
    }

    /// Pointwise multiply, both widths (element-wise: no reduction order
    /// to worry about, but FMA contraction must round identically).
    #[test]
    fn mul_pointwise_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let scale64 = vec_c64(len, seed ^ 0x5A5A);
        let mut a64 = vec_c64(len, seed);
        let mut b64 = a64.clone();
        simd::mul_pointwise_c64(&mut a64, &scale64);
        kernels::mul_pointwise_scalar(&mut b64, &scale64);
        prop_assert_eq!(bits64(&a64), bits64(&b64));

        let scale32 = vec_c32(len, seed ^ 0x5A5A);
        let mut a32 = vec_c32(len, seed);
        let mut b32 = a32.clone();
        simd::mul_pointwise_c32(&mut a32, &scale32);
        kernels::mul_pointwise_scalar(&mut b32, &scale32);
        prop_assert_eq!(bits32(&a32), bits32(&b32));
    }

    /// Planar (SoA) pointwise multiply over split re/im arrays.
    #[test]
    fn mul_pointwise_planar_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let mut next = stream(seed);
        let mut are: Vec<f64> = (0..len).map(|_| next()).collect();
        let mut aim: Vec<f64> = (0..len).map(|_| next()).collect();
        let bre: Vec<f64> = (0..len).map(|_| next()).collect();
        let bim: Vec<f64> = (0..len).map(|_| next()).collect();
        let mut sre = are.clone();
        let mut sim_ = aim.clone();
        simd::mul_pointwise_planar_f64(&mut are, &mut aim, &bre, &bim);
        simd::mul_pointwise_planar_scalar(&mut sre, &mut sim_, &bre, &bim);
        let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(b(&are), b(&sre));
        prop_assert_eq!(b(&aim), b(&sim_));
    }

    /// Accumulating pointwise multiply (`acc += t·x`), all three widths.
    #[test]
    fn axpy_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let t64 = vec_c64(len, seed ^ 1);
        let x64 = vec_c64(len, seed ^ 2);
        let mut a = vec_c64(len, seed);
        let mut b = a.clone();
        simd::axpy_pointwise_c64(&mut a, &t64, &x64);
        kernels::axpy_pointwise_scalar(&mut b, &t64, &x64);
        prop_assert_eq!(bits64(&a), bits64(&b));

        let t32 = vec_c32(len, seed ^ 1);
        let x32 = vec_c32(len, seed ^ 2);
        let mut a32 = vec_c32(len, seed);
        let mut b32 = a32.clone();
        simd::axpy_pointwise_c32(&mut a32, &t32, &x32);
        kernels::axpy_pointwise_scalar(&mut b32, &t32, &x32);
        prop_assert_eq!(bits32(&a32), bits32(&b32));

        let mut acc_a = vec_c64(len, seed);
        let mut acc_b = acc_a.clone();
        simd::axpy_split(&mut acc_a, &t32, &x32);
        simd::axpy_split_scalar(&mut acc_b, &t32, &x32);
        prop_assert_eq!(bits64(&acc_a), bits64(&acc_b));
    }

    /// Precision-conversion kernels: exact widening and pure bit
    /// movement, so SIMD must equal scalar on every length (odd tails
    /// exercise the pad-dropping path).
    #[test]
    fn conversion_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let s = vec_c32(len, seed);
        let mut a = vec![c64::ZERO; len];
        let mut b = a.clone();
        simd::promote_c32_c64(&s, &mut a);
        simd::promote_c32_c64_scalar(&s, &mut b);
        prop_assert_eq!(bits64(&a), bits64(&b));

        let wire = vec_c64(len.div_ceil(2), seed ^ 0x77);
        let mut a32 = vec![c32::ZERO; len];
        let mut b32 = a32.clone();
        simd::unpack_c32_pairs(&wire, &mut a32);
        simd::unpack_c32_pairs_scalar(&wire, &mut b32);
        prop_assert_eq!(bits32(&a32), bits32(&b32));
    }

    /// Cache-blocked transpose tile: pure data movement, so parity means
    /// the vector gather/scatter visits exactly the scalar's elements —
    /// ragged edge tiles included. Tiles are ≤ TILE×TILE (8×8) by the
    /// kernel's contract.
    #[test]
    fn transpose_tile_parity(
        rows in 1usize..9,
        cols in 1usize..9,
        seed in proptest::prelude::any::<u64>(),
    ) {
        // Strides ≥ the tile so tiles embed in a larger matrix.
        let src_stride = cols + (seed % 3) as usize;
        let dst_stride = rows + (seed % 5) as usize;

        let src64 = vec_c64(rows * src_stride, seed);
        let mut a = vec![c64::ZERO; cols * dst_stride];
        let mut b = a.clone();
        simd::transpose_tile_c64(&src64, src_stride, &mut a, dst_stride, rows, cols);
        soifft::num::transpose::transpose_tile_scalar(
            &src64, src_stride, &mut b, dst_stride, rows, cols,
        );
        prop_assert_eq!(bits64(&a), bits64(&b));

        let src32 = vec_c32(rows * src_stride, seed);
        let mut a32 = vec![c32::ZERO; cols * dst_stride];
        let mut b32 = a32.clone();
        simd::transpose_tile_c32(&src32, src_stride, &mut a32, dst_stride, rows, cols);
        soifft::num::transpose::transpose_tile_scalar(
            &src32, src_stride, &mut b32, dst_stride, rows, cols,
        );
        prop_assert_eq!(bits32(&a32), bits32(&b32));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FFT combine butterflies: dispatcher == scalar reference, bitwise,
    /// over column counts that exercise the odd-column tail and batches
    /// of single-column blocks (the block-pair vector lanes).
    #[test]
    fn fft_combine_parity(
        which in 0usize..4,
        m in 1usize..12,
        blocks in 1usize..5,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let r = [2, 4, 5, 8][which];
        let tw = vec_c64((r - 1) * m, seed ^ 0x7777);
        let x = vec_c64(r * m * blocks, seed);
        let mut a = x.clone();
        let mut b = x;
        match r {
            2 => {
                simd::radix2_c64(&mut a, m, &tw);
                butterfly::radix2_scalar(&mut b, m, &tw);
            }
            4 => {
                simd::radix4_c64(&mut a, m, &tw);
                butterfly::radix4_scalar(&mut b, m, &tw);
            }
            5 => {
                simd::radix5_c64(&mut a, m, &tw);
                butterfly::radix5_scalar(&mut b, m, &tw);
            }
            _ => {
                simd::radix8_c64(&mut a, m, &tw);
                butterfly::radix8_scalar(&mut b, m, &tw);
            }
        }
        prop_assert_eq!(bits64(&a), bits64(&b));
    }

    /// Whole `Plan<f64>` transforms: the dispatched path (AVX2 where
    /// detected) == the plan pinned to its scalar butterflies, bitwise.
    #[test]
    fn plan_f64_parity(which in 0usize..PLAN_LENS.len(), seed in proptest::prelude::any::<u64>()) {
        let n = PLAN_LENS[which];
        let plan = Plan::<f64>::new(n);
        let x = vec_c64(n, seed);
        let mut scratch = plan.make_scratch();
        let mut a = x.clone();
        plan.forward_with_scratch(&mut a, &mut scratch);
        let mut b = x;
        plan.forward_scalar_with_scratch(&mut b, &mut scratch);
        prop_assert_eq!(bits64(&a), bits64(&b));
    }

    /// `SixStepFft`, every Fig 10 rung, with and without the fused
    /// demodulation diagonal: dispatched == scalar-pinned, bitwise.
    #[test]
    fn sixstep_parity(
        rung in 0usize..4,
        which in 0usize..SIXSTEP_LENS.len(),
        scaled in proptest::prelude::any::<bool>(),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let n = SIXSTEP_LENS[which];
        let variant = SixStepVariant::LADDER[rung];
        let pool = match variant {
            SixStepVariant::FusedParallel => Pool::new(2),
            _ => Pool::serial(),
        };
        let plan = SixStepFft::with_pool(n, variant, pool);
        let x = vec_c64(n, seed);
        let scale = vec_c64(n, seed ^ 0x5ca1e);
        let mut scratch = plan.make_scratch();
        let mut aux = vec![c64::ZERO; n];
        let mut a = x.clone();
        let mut b = x;
        if scaled {
            plan.forward_scaled_with(&mut a, &mut aux, &scale, &mut scratch);
            plan.forward_scalar_with(&mut b, &mut aux, Some(&scale), &mut scratch);
        } else {
            plan.forward_with(&mut a, &mut aux, &mut scratch);
            plan.forward_scalar_with(&mut b, &mut aux, None, &mut scratch);
        }
        prop_assert_eq!(bits64(&a), bits64(&b));
    }
}

/// The generic hot-kernel entry points (`kernels::dot`, `::mul_pointwise`,
/// `::axpy_pointwise`, `butterfly::radix8`) route through the same
/// dispatchers — spot-check the chain end to end so a future refactor
/// can't silently fork the paths.
#[test]
fn generic_entry_points_route_through_dispatchers() {
    let t = vec_c64(37, 7);
    let x = vec_c64(37, 11);
    let d = kernels::dot(&t, &x);
    let s = simd::dot_c64(&t, &x);
    assert_eq!(
        (d.re.to_bits(), d.im.to_bits()),
        (s.re.to_bits(), s.im.to_bits())
    );

    let mut a = vec_c64(37, 13);
    let mut b = a.clone();
    kernels::mul_pointwise(&mut a, &t);
    simd::mul_pointwise_c64(&mut b, &t);
    assert_eq!(bits64(&a), bits64(&b));

    let tw = vec_c64(7 * 3, 17);
    let mut a = vec_c64(8 * 3 * 2, 19);
    let mut b = a.clone();
    butterfly::radix8(&mut a, 3, &tw);
    simd::radix8_c64(&mut b, 3, &tw);
    assert_eq!(bits64(&a), bits64(&b));
}
