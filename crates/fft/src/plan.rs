//! FFT plans: the general node-local transform front-end.
//!
//! A [`Plan`] is built once for a given length and reused (plans own their
//! twiddle tables, so construction is `O(n)` trig and execution is
//! allocation-free when the caller supplies scratch). Plans are generic
//! over the precision parameter ([`soifft_num::Real`], default `f64`); the
//! butterfly constants are computed in `f64` and demoted once at
//! construction. Dispatch:
//!
//! * `n == 1` — identity,
//! * `n` smooth (largest prime factor ≤ [`MAX_RADIX`]) — recursive
//!   decimation-in-time Cooley–Tukey with specialized radix-2/3/4/5/8
//!   butterflies and a generic small-prime butterfly,
//! * anything else — Bluestein's chirp-z algorithm
//!   ([`crate::bluestein`]).
//!
//! The recursion reads the (conceptually strided) input depth-first and
//! writes contiguous output, which keeps each combine pass within the
//! subarray produced by its children — the cache-oblivious layout that the
//! 6-step algorithm then scales past LLC sizes. Subtrees that fit in L1
//! run level by level instead (see `Tree`).
//!
//! Twiddles are per-level contiguous tables indexed by plain offsets (no
//! integer division on the hot path). The radix-2/4/5/8 combines are the
//! [`soifft_num::butterfly`] kernels, AVX2 for `f64` where the host has
//! it, and bit-identical to their scalar references either way, so a
//! transform's output bits do not depend on the host or on
//! `SOIFFT_FORCE_SCALAR`.

use std::fmt;

use soifft_num::butterfly;
use soifft_num::factor::factorize;
use soifft_num::{Complex, Real};

use crate::bluestein::BluesteinPlan;

/// Largest prime handled by the generic Cooley–Tukey butterfly; larger
/// prime factors route the whole transform to Bluestein.
pub const MAX_RADIX: usize = 31;

/// Error from fallible plan construction ([`Plan::try_new`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The requested transform length was zero; transforms need `n ≥ 1`.
    ZeroLength,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ZeroLength => write!(f, "transform length must be at least 1"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A reusable FFT plan for a fixed transform length.
///
/// # Example
///
/// ```
/// use soifft_fft::Plan;
/// use soifft_num::c64;
///
/// let plan = Plan::new(240); // 2^4·3·5 — mixed radix
/// let mut data = vec![c64::ZERO; 240];
/// data[1] = c64::ONE;
/// plan.forward(&mut data);
/// // The DFT of a shifted impulse is a complex exponential:
/// assert!((data[10] - c64::root_of_unity(240, 10)).abs() < 1e-12);
/// plan.inverse(&mut data);
/// assert!((data[1] - c64::ONE).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct Plan<T: Real = f64> {
    n: usize,
    kind: Kind<T>,
}

#[derive(Clone, Debug)]
enum Kind<T: Real> {
    Identity,
    CooleyTukey(Tree<T>),
    Bluestein(Box<BluesteinPlan<T>>),
}

/// Subtrees of at most this many points run level by level (see
/// [`Tree`]); larger ones recurse depth-first.
const FLAT_MAX: usize = 1024;

/// The decimation-in-time factor tree of a Cooley–Tukey plan.
///
/// The top levels recurse depth-first — each combine works within the
/// subarray its children just produced, the cache-oblivious layout the
/// 6-step algorithm scales past LLC sizes. Once a subtree fits in
/// [`FLAT_MAX`] points (`flat_depth`), it runs *flat*: its leaf DFTs are
/// computed straight from the strided input, gathered in the recursion's
/// own output order, and then each level below runs as one batched
/// combine over all of the subtree's blocks. Every butterfly sees the same
/// operands in the same order as in the recursion, so the bits do not
/// depend on where the switch happens; the flat form just replaces a call
/// per small node with one call per level and fills both vector lanes
/// when a level has a single column.
#[derive(Clone, Debug)]
struct Tree<T: Real> {
    /// One per combine, outermost first.
    levels: Vec<Level<T>>,
    /// First level of the flat subtrees (`levels.len()` when the whole
    /// plan is a single leaf).
    flat_depth: usize,
    /// Leaf length at the bottom of the tree: 1, 2 or 4.
    leaf: usize,
    /// For leaf block `q` of a flat subtree, the offset (in units of the
    /// subtree's input stride) of its first input sample.
    gather: Vec<u32>,
}

/// One decimation-in-time level of the factor tree: an `n = r·m`-point
/// combine and its twiddles.
///
/// `tw[(j−1)·m + k] = w_n^{jk}` for `1 ≤ j < r`, `k < m` — the
/// [`soifft_num::butterfly`] layout. Each entry is exactly the value a
/// full root-length table holds at index `j·k·(N/n)`, so lookups are
/// plain offsets instead of a `%` per twiddle. A level stores
/// `n − n/r` entries, and the levels telescope to fewer than `N` in
/// total: no more than the single full-size table they replace.
#[derive(Clone, Debug)]
struct Level<T: Real> {
    r: usize,
    m: usize,
    tw: Vec<Complex<T>>,
    /// Generic radices only: `rot[q] = w_r^q` (root-table index `q·N/r`).
    rot: Vec<Complex<T>>,
}

impl<T: Real> Tree<T> {
    /// The factor tree of a length-`big_n` transform with radix schedule
    /// `factors`. The unrolled 2- and 4-point leaves need no level.
    fn new(big_n: usize, factors: &[usize]) -> Self {
        let root = |idx: usize| Complex::<T>::root_of_unity(big_n, idx as i64);
        let mut levels = Vec::new();
        let mut n = big_n;
        let mut flat_depth = None;
        for &r in factors {
            if n == 2 || n == 4 {
                break;
            }
            if n <= FLAT_MAX && flat_depth.is_none() {
                flat_depth = Some(levels.len());
            }
            let m = n / r;
            let ts = big_n / n;
            let tw = (1..r)
                .flat_map(|j| (0..m).map(move |k| root(j * k * ts)))
                .collect();
            let rot = match r {
                2 | 3 | 4 | 5 | 8 => Vec::new(),
                _ => (0..r).map(|q| root(q * (big_n / r))).collect(),
            };
            levels.push(Level { r, m, tw, rot });
            n = m;
        }
        let flat_depth = flat_depth.unwrap_or(levels.len());
        let radices: Vec<usize> = levels[flat_depth..].iter().map(|l| l.r).collect();
        let mut gather = vec![0u32; radices.iter().product()];
        fill_gather(&mut gather, 0, 1, &radices);
        Tree {
            levels,
            flat_depth,
            leaf: n,
            gather,
        }
    }
}

/// Leaf-block input offsets of a flat subtree, in the order the recursion
/// would write them: child `j` of a node with input offset `base` and
/// stride `mult` starts at `base + j·mult` and strides by `mult·r`.
fn fill_gather(gather: &mut [u32], base: usize, mult: usize, radices: &[usize]) {
    match radices.split_first() {
        None => gather[0] = base as u32,
        Some((&r, rest)) => {
            let m = gather.len() / r;
            for (j, g) in gather.chunks_exact_mut(m).enumerate() {
                fill_gather(g, base + j * mult, mult * r, rest);
            }
        }
    }
}

impl<T: Real> Plan<T> {
    /// Builds a plan for `n`-point transforms (`n ≥ 1`).
    ///
    /// # Panics
    /// Panics if `n == 0`; use [`Plan::try_new`] where a zero length can
    /// come from untrusted input.
    pub fn new(n: usize) -> Self {
        match Self::try_new(n) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible plan construction: returns a typed error for a zero
    /// length instead of panicking.
    pub fn try_new(n: usize) -> Result<Self, PlanError> {
        if n == 0 {
            return Err(PlanError::ZeroLength);
        }
        if n == 1 {
            return Ok(Plan {
                n,
                kind: Kind::Identity,
            });
        }
        let fac = factorize(n);
        if fac.iter().all(|&(p, _)| p <= MAX_RADIX) {
            // Radix schedule: fold the power-of-two part into radix-8
            // stages (the paper's §5.2.4 register-blocking choice: "we use
            // radix 8 and 16, case by case"), topping up with a 4 and/or a
            // 2; other primes appear with their multiplicity.
            let mut factors = Vec::new();
            for (p, mult) in fac {
                if p == 2 {
                    let mut e = mult;
                    while e >= 3 {
                        factors.push(8);
                        e -= 3;
                    }
                    if e == 2 {
                        factors.push(4);
                    } else if e == 1 {
                        factors.push(2);
                    }
                } else {
                    for _ in 0..mult {
                        factors.push(p);
                    }
                }
            }
            Ok(Plan {
                n,
                kind: Kind::CooleyTukey(Tree::new(n, &factors)),
            })
        } else {
            Ok(Plan {
                n,
                kind: Kind::Bluestein(Box::new(BluesteinPlan::new(n))),
            })
        }
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the trivial length-1 plan.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when this plan fell back to Bluestein (useful for tests and for
    /// planning reports).
    pub fn is_bluestein(&self) -> bool {
        matches!(self.kind, Kind::Bluestein(_))
    }

    /// Scratch length needed by [`Plan::forward_with_scratch`] /
    /// [`Plan::inverse_with_scratch`].
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            Kind::Identity => 0,
            Kind::CooleyTukey { .. } => self.n,
            Kind::Bluestein(b) => b.scratch_len(),
        }
    }

    /// Allocates a scratch buffer of the right size.
    pub fn make_scratch(&self) -> Vec<Complex<T>> {
        vec![Complex::<T>::ZERO; self.scratch_len()]
    }

    /// Forward transform, in place. Allocates scratch internally; hot loops
    /// should use [`Plan::forward_with_scratch`].
    pub fn forward(&self, data: &mut [Complex<T>]) {
        let mut scratch = self.make_scratch();
        self.forward_with_scratch(data, &mut scratch);
    }

    /// Forward transform, in place, with caller-provided scratch
    /// (`scratch.len() >= self.scratch_len()`).
    pub fn forward_with_scratch(&self, data: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        self.forward_kernels(data, scratch, true);
    }

    /// [`Plan::forward_with_scratch`] pinned to the scalar butterflies
    /// whatever the host supports. Bit-identical to the dispatched path by
    /// contract; public so the parity suite can compare both paths in one
    /// process (the dispatch decision is otherwise process-wide, see
    /// [`soifft_num::simd::simd_active`]).
    #[doc(hidden)]
    pub fn forward_scalar_with_scratch(&self, data: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        self.forward_kernels(data, scratch, false);
    }

    /// The forward transform with the butterfly set chosen by `simd`
    /// (`false` pins the scalar reference).
    pub(crate) fn forward_kernels(
        &self,
        data: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        simd: bool,
    ) {
        assert_eq!(data.len(), self.n, "data length != plan length");
        match &self.kind {
            Kind::Identity => {}
            Kind::CooleyTukey(tree) => {
                let (src, _) = scratch.split_at_mut(self.n);
                src.copy_from_slice(data);
                ct_recursive(src, 0, 1, data, 0, tree, simd);
            }
            Kind::Bluestein(b) => b.forward_kernels(data, scratch, simd),
        }
    }

    /// Forward transform, out of place (`input` is left untouched).
    pub fn forward_oop(&self, input: &[Complex<T>], output: &mut [Complex<T>]) {
        assert_eq!(input.len(), self.n, "input length != plan length");
        assert_eq!(output.len(), self.n, "output length != plan length");
        match &self.kind {
            Kind::Identity => output.copy_from_slice(input),
            Kind::CooleyTukey(tree) => ct_recursive(input, 0, 1, output, 0, tree, true),
            Kind::Bluestein(b) => {
                output.copy_from_slice(input);
                let mut scratch = self.make_scratch();
                b.forward(output, &mut scratch);
            }
        }
    }

    /// Inverse transform, in place, normalized by `1/n` so that
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, data: &mut [Complex<T>]) {
        let mut scratch = self.make_scratch();
        self.inverse_with_scratch(data, &mut scratch);
    }

    /// Inverse transform with caller-provided scratch.
    ///
    /// Implemented by conjugation around the forward kernel
    /// (`ifft(x) = conj(fft(conj(x)))/n`), so every fast path is exercised
    /// by both directions.
    pub fn inverse_with_scratch(&self, data: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        self.inverse_kernels(data, scratch, true);
    }

    /// The inverse transform with the butterfly set chosen by `simd`.
    pub(crate) fn inverse_kernels(
        &self,
        data: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        simd: bool,
    ) {
        for z in data.iter_mut() {
            *z = z.conj();
        }
        self.forward_kernels(data, scratch, simd);
        let inv_n = T::from_f64(1.0 / self.n as f64);
        for z in data.iter_mut() {
            *z = z.conj().scale(inv_n);
        }
    }
}

/// Recursive decimation-in-time step: computes the `dst.len()`-point DFT
/// of the virtual sequence `src[src_off + i·stride]` into `dst`, the
/// subtree rooted at level `depth` of `tree`.
///
/// `simd == false` pins the scalar butterflies (the parity oracle);
/// otherwise the radix-2/4/5/8 combines go through the runtime-dispatched
/// kernels.
fn ct_recursive<T: Real>(
    src: &[Complex<T>],
    src_off: usize,
    stride: usize,
    dst: &mut [Complex<T>],
    depth: usize,
    tree: &Tree<T>,
    simd: bool,
) {
    if depth == tree.flat_depth {
        flat(src, src_off, stride, dst, depth, tree, simd);
        return;
    }
    let level = &tree.levels[depth];
    let r = level.r;
    debug_assert_eq!(r * level.m, dst.len(), "factor schedule does not divide n");
    // Children: r interleaved sub-sequences, each of length m.
    for (j, child) in dst.chunks_exact_mut(level.m).enumerate() {
        ct_recursive(
            src,
            src_off + j * stride,
            stride * r,
            child,
            depth + 1,
            tree,
            simd,
        );
    }
    combine(dst, level, simd);
}

/// A flat subtree (see [`Tree`]): leaf DFTs gathered from the strided
/// input into recursion order, then one batched combine per level,
/// innermost first.
fn flat<T: Real>(
    src: &[Complex<T>],
    src_off: usize,
    stride: usize,
    dst: &mut [Complex<T>],
    depth: usize,
    tree: &Tree<T>,
    simd: bool,
) {
    let leaf_stride = stride * tree.gather.len();
    for (block, &g) in dst.chunks_exact_mut(tree.leaf).zip(&tree.gather) {
        leaf(src, src_off + stride * g as usize, leaf_stride, block);
    }
    for level in tree.levels[depth..].iter().rev() {
        combine(dst, level, simd);
    }
}

/// Combine: for every k, gather the r children's k-th outputs, apply
/// level twiddles w_n^{jk}, and run an r-point DFT across them — over
/// every `r·m` block of `dst`.
fn combine<T: Real>(dst: &mut [Complex<T>], level: &Level<T>, simd: bool) {
    let (r, m, tw) = (level.r, level.m, &level.tw[..]);
    match (r, simd) {
        (2, true) => butterfly::radix2(dst, m, tw),
        (2, false) => butterfly::radix2_scalar(dst, m, tw),
        (4, true) => butterfly::radix4(dst, m, tw),
        (4, false) => butterfly::radix4_scalar(dst, m, tw),
        (5, true) => butterfly::radix5(dst, m, tw),
        (5, false) => butterfly::radix5_scalar(dst, m, tw),
        (8, true) => butterfly::radix8(dst, m, tw),
        (8, false) => butterfly::radix8_scalar(dst, m, tw),
        _ => {
            for block in dst.chunks_exact_mut(r * m) {
                match r {
                    3 => combine_radix3(block, m, tw),
                    _ => combine_generic(block, r, m, tw, &level.rot),
                }
            }
        }
    }
}

/// Unrolled leaves (§5.2.4 "we unroll the leaf of the FFT recursion"):
/// 1-, 2- and 4-point DFTs computed directly from the strided input.
#[inline(always)]
fn leaf<T: Real>(src: &[Complex<T>], src_off: usize, stride: usize, dst: &mut [Complex<T>]) {
    match dst.len() {
        1 => dst[0] = src[src_off],
        2 => {
            let a = src[src_off];
            let b = src[src_off + stride];
            dst[0] = a + b;
            dst[1] = a - b;
        }
        _ => {
            let a = src[src_off];
            let b = src[src_off + stride];
            let c = src[src_off + 2 * stride];
            let d = src[src_off + 3 * stride];
            let s0 = a + c;
            let s1 = a - c;
            let s2 = b + d;
            let s3 = (b - d).mul_neg_i();
            dst[0] = s0 + s2;
            dst[1] = s1 + s3;
            dst[2] = s0 - s2;
            dst[3] = s1 - s3;
        }
    }
}

#[inline]
fn combine_radix3<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &[Complex<T>]) {
    // w_3 = e^{−2πi/3}: re = −1/2, im = −√3/2.
    let c_3 = T::from_f64(-0.5);
    let s_3 = T::from_f64(-0.866_025_403_784_438_6);
    let (q0, q12) = dst.split_at_mut(m);
    let (q1, q2) = q12.split_at_mut(m);
    let (w1, w2) = tw.split_at(m);
    for k in 0..m {
        let a = q0[k];
        let b = w1[k] * q1[k];
        let c = w2[k] * q2[k];
        let sum = b + c;
        let diff = b - c;
        // X0 = a + b + c
        // X1 = a + w b + w² c = a + C·sum + i·S·diff
        // X2 = conj-pattern with −S.
        let re_part = a + sum * c_3;
        let im_part = Complex::new(-diff.im * s_3, diff.re * s_3);
        q0[k] = a + sum;
        q1[k] = re_part + im_part;
        q2[k] = re_part - im_part;
    }
}

/// Generic small-prime butterfly: an explicit r-point DFT per output
/// column. O(r²) per column — acceptable for the r ≤ 31 primes this plan
/// admits. `rot[q] = w_r^q`; the exponent `j·l mod r` is stepped
/// incrementally.
fn combine_generic<T: Real>(
    dst: &mut [Complex<T>],
    r: usize,
    m: usize,
    tw: &[Complex<T>],
    rot: &[Complex<T>],
) {
    let mut col_storage = [Complex::<T>::ZERO; MAX_RADIX + 1];
    let col = &mut col_storage[..r];
    for k in 0..m {
        // Row 0's twiddle is w^0 = rot[0]; the multiply is kept because
        // `x·(1, 0)` is not a bitwise no-op for signed zeros.
        col[0] = rot[0] * dst[k];
        for (j, c) in col.iter_mut().enumerate().skip(1) {
            *c = tw[(j - 1) * m + k] * dst[j * m + k];
        }
        for l in 0..r {
            let mut acc = col[0];
            let mut q = 0;
            for &c in &col[1..] {
                q += l;
                if q >= r {
                    q -= r;
                }
                acc += rot[q] * c;
            }
            dst[l * m + k] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, idft};
    use soifft_num::c32;
    use soifft_num::c64;
    use soifft_num::error::rel_linf;

    fn signal(n: usize) -> Vec<c64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                c64::new((0.37 * t).sin() + 0.2, (0.11 * t).cos() - 0.05 * t.sqrt())
            })
            .collect()
    }

    fn check_forward(n: usize, tol: f64) {
        let x = signal(n);
        let plan = Plan::new(n);
        let mut got = x.clone();
        plan.forward(&mut got);
        let want = dft(&x);
        let err = rel_linf(&got, &want);
        assert!(err < tol, "n={n}: err={err:.3e}");
    }

    #[test]
    fn identity_plan() {
        let plan = Plan::new(1);
        let mut d = vec![c64::new(2.0, 3.0)];
        plan.forward(&mut d);
        assert_eq!(d[0], c64::new(2.0, 3.0));
        plan.inverse(&mut d);
        assert_eq!(d[0], c64::new(2.0, 3.0));
        assert_eq!(plan.scratch_len(), 0);
    }

    #[test]
    fn try_new_reports_zero_length() {
        assert_eq!(Plan::<f64>::try_new(0).unwrap_err(), PlanError::ZeroLength);
        assert!(Plan::<f64>::try_new(1).is_ok());
        assert_eq!(
            PlanError::ZeroLength.to_string(),
            "transform length must be at least 1"
        );
    }

    #[test]
    #[should_panic(expected = "transform length must be at least 1")]
    fn zero_length_panics() {
        let _ = Plan::<f64>::new(0);
    }

    #[test]
    fn powers_of_two_match_direct_dft() {
        for n in [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
            check_forward(n, 1e-11);
        }
    }

    #[test]
    fn odd_radices_match_direct_dft() {
        for n in [3, 9, 27, 5, 25, 15, 45, 7, 21, 35, 11, 13, 33] {
            check_forward(n, 1e-11);
        }
    }

    #[test]
    fn mixed_sizes_match_direct_dft() {
        for n in [
            6,
            12,
            24,
            48,
            60,
            120,
            360,
            960,
            1000,
            1 << 10,
            3 * (1 << 8),
        ] {
            check_forward(n, 1e-11);
        }
    }

    #[test]
    fn f32_plan_tracks_f64_oracle() {
        // Single-precision transforms over the same dispatch paths: the
        // error floor scales with f32 epsilon, not with a broken butterfly.
        for n in [8usize, 12, 27, 48, 100, 256, 257, 1009] {
            let x = signal(n);
            let x32: Vec<c32> = x.iter().map(|&z| c32::from_c64(z)).collect();
            let plan32 = Plan::<f32>::new(n);
            let mut got32 = x32.clone();
            plan32.forward(&mut got32);
            let want = dft(&x);
            let got: Vec<c64> = got32.iter().map(|z| z.to_c64()).collect();
            let err = rel_linf(&got, &want);
            assert!(err < 1e-3, "n={n}: err={err:.3e}");
            // And round-trip.
            plan32.inverse(&mut got32);
            let back: Vec<c64> = got32.iter().map(|z| z.to_c64()).collect();
            let xq: Vec<c64> = x32.iter().map(|z| z.to_c64()).collect();
            assert!(rel_linf(&back, &xq) < 1e-4, "n={n}");
        }
    }

    #[test]
    fn prime_sizes_use_bluestein_and_match() {
        for n in [37, 101, 257, 1009] {
            let plan = Plan::<f64>::new(n);
            assert!(plan.is_bluestein(), "n={n} should be Bluestein");
            check_forward(n, 1e-10);
        }
        // 31 is the largest direct radix.
        assert!(!Plan::<f64>::new(31).is_bluestein());
        assert!(!Plan::<f64>::new(62).is_bluestein());
        assert!(Plan::<f64>::new(74).is_bluestein()); // 2 · 37
    }

    #[test]
    fn inverse_round_trips() {
        for n in [8, 12, 27, 100, 256, 1009] {
            let x = signal(n);
            let plan = Plan::new(n);
            let mut d = x.clone();
            plan.forward(&mut d);
            plan.inverse(&mut d);
            assert!(rel_linf(&d, &x) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_direct_idft() {
        let n = 48;
        let x = signal(n);
        let plan = Plan::new(n);
        let mut d = x.clone();
        plan.inverse(&mut d);
        let want = idft(&x);
        assert!(rel_linf(&d, &want) < 1e-11);
    }

    #[test]
    fn oop_matches_in_place_and_preserves_input() {
        let n = 192;
        let x = signal(n);
        let plan = Plan::new(n);
        let mut out = vec![c64::ZERO; n];
        plan.forward_oop(&x, &mut out);
        let mut inplace = x.clone();
        plan.forward(&mut inplace);
        assert_eq!(out, inplace);
    }

    #[test]
    fn large_pow2_transform_accuracy() {
        // 2^16: accuracy should stay near machine precision relative to a
        // double-checked smaller reference property — use Parseval.
        let n = 1 << 16;
        let x = signal(n);
        let plan = Plan::new(n);
        let mut y = x.clone();
        plan.forward(&mut y);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() / ex < 1e-12);
        // And invert back.
        plan.inverse(&mut y);
        assert!(rel_linf(&y, &x) < 1e-11);
    }

    #[test]
    fn impulse_response_is_flat() {
        let n = 64;
        let mut d = vec![c64::ZERO; n];
        d[0] = c64::ONE;
        Plan::new(n).forward(&mut d);
        for &v in &d {
            assert!((v - c64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn shift_theorem() {
        // x delayed by s ⇒ spectrum multiplied by w^{ks}.
        let n = 40;
        let x = signal(n);
        let mut shifted = vec![c64::ZERO; n];
        for i in 0..n {
            shifted[(i + 3) % n] = x[i];
        }
        let plan = Plan::new(n);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fs = shifted;
        plan.forward(&mut fs);
        for k in 0..n {
            let want = fx[k] * c64::root_of_unity(n, 3 * k as i64);
            assert!((fs[k] - want).abs() < 1e-10 * (1.0 + want.abs()), "k={k}");
        }
    }

    #[test]
    fn scratch_reuse_gives_identical_results() {
        let n = 360;
        let plan = Plan::new(n);
        let x = signal(n);
        let mut a = x.clone();
        plan.forward(&mut a);
        let mut b = x.clone();
        let mut scratch = plan.make_scratch();
        plan.forward_with_scratch(&mut b, &mut scratch);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "data length != plan length")]
    fn wrong_length_panics() {
        let plan = Plan::new(8);
        let mut d = vec![c64::ZERO; 7];
        plan.forward(&mut d);
    }
}
