//! Bluestein's chirp-z algorithm: FFTs of arbitrary length.
//!
//! SOI plans need an `F_L` transform whose length is the *total segment
//! count* `L = S·P` — a deployment parameter that is not necessarily smooth
//! — so the FFT library must handle any length. Bluestein rewrites an
//! `n`-point DFT as a circular convolution of length `m ≥ 2n − 1` (a power
//! of two), using the identity `nk = (n² + k² − (k−n)²)/2`:
//!
//! ```text
//! y_k = c_k · Σ_n (x_n c_n) · conj(c_{k−n}),    c_t = e^{−πi t²/n}
//! ```
//!
//! The chirp exponent `t²` is reduced modulo `2n` in integer arithmetic
//! before the trig call, so precision does not degrade with size.

use soifft_num::factor::next_pow2;
use soifft_num::{Complex, Real};

use crate::plan::Plan;

/// Precomputed state for an arbitrary-length transform.
#[derive(Clone, Debug)]
pub struct BluesteinPlan<T: Real = f64> {
    n: usize,
    m: usize,
    inner: Plan<T>,
    /// `c_t = e^{−πi t² / n}` for `t < n`.
    chirp: Vec<Complex<T>>,
    /// Forward FFT of the conjugate-chirp kernel, length `m`.
    kernel_fft: Vec<Complex<T>>,
}

impl<T: Real> BluesteinPlan<T> {
    /// Builds the plan. `n ≥ 2` (length 1 never reaches Bluestein).
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        let m = next_pow2(2 * n - 1);
        let inner = Plan::new(m);
        let chirp: Vec<Complex<T>> = (0..n).map(|t| chirp_factor(t, n)).collect();
        // Kernel b[t] = conj(c_t) placed circularly at ±t.
        let mut kernel = vec![Complex::<T>::ZERO; m];
        kernel[0] = chirp[0].conj();
        for t in 1..n {
            let v = chirp[t].conj();
            kernel[t] = v;
            kernel[m - t] = v;
        }
        inner.forward(&mut kernel);
        BluesteinPlan {
            n,
            m,
            inner,
            chirp,
            kernel_fft: kernel,
        }
    }

    /// The (outer) transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Scratch requirement: one padded buffer plus the inner plan's own
    /// scratch.
    pub fn scratch_len(&self) -> usize {
        self.m + self.inner.scratch_len()
    }

    /// In-place forward transform of `data` (`data.len() == n`).
    pub fn forward(&self, data: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        self.forward_kernels(data, scratch, true);
    }

    /// [`BluesteinPlan::forward`] with the inner plan's butterfly set
    /// chosen by `simd` (see [`Plan::forward_scalar_with_scratch`]).
    pub(crate) fn forward_kernels(
        &self,
        data: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        simd: bool,
    ) {
        assert_eq!(data.len(), self.n, "data length != plan length");
        assert!(scratch.len() >= self.scratch_len(), "scratch too small");
        let (a, inner_scratch) = scratch.split_at_mut(self.m);

        // a = chirp-modulated input, zero-padded to m.
        for (i, slot) in a.iter_mut().enumerate().take(self.n) {
            *slot = data[i] * self.chirp[i];
        }
        for slot in a.iter_mut().skip(self.n) {
            *slot = Complex::<T>::ZERO;
        }

        // Convolve with the kernel via the inner power-of-two plan.
        self.inner.forward_kernels(a, inner_scratch, simd);
        for (v, &k) in a.iter_mut().zip(&self.kernel_fft) {
            *v *= k;
        }
        self.inner.inverse_kernels(a, inner_scratch, simd);

        // Demodulate the first n outputs.
        for (k, out) in data.iter_mut().enumerate() {
            *out = a[k] * self.chirp[k];
        }
    }
}

/// `e^{−πi (t² mod 2n) / n}` with the square reduced in `u128` and the
/// trig evaluated in `f64` before demotion to the target precision.
fn chirp_factor<T: Real>(t: usize, n: usize) -> Complex<T> {
    let sq = (t as u128 * t as u128) % (2 * n as u128);
    Complex::cis(-std::f64::consts::PI * sq as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;
    use soifft_num::c64;
    use soifft_num::error::rel_linf;

    fn signal(n: usize) -> Vec<c64> {
        (0..n)
            .map(|i| c64::new((0.21 * i as f64).sin(), (0.13 * i as f64).cos()))
            .collect()
    }

    fn run(n: usize) -> f64 {
        let x = signal(n);
        let plan = BluesteinPlan::<f64>::new(n);
        let mut got = x.clone();
        let mut scratch = vec![c64::ZERO; plan.scratch_len()];
        plan.forward(&mut got, &mut scratch);
        rel_linf(&got, &dft(&x))
    }

    #[test]
    fn primes_match_direct_dft() {
        for n in [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 61, 127, 251, 509,
        ] {
            let err = run(n);
            assert!(err < 1e-10, "n={n}: err={err:.3e}");
        }
    }

    #[test]
    fn composites_match_direct_dft() {
        // Bluestein must be correct even for sizes the planner would send
        // to Cooley–Tukey.
        for n in [4, 12, 100, 256, 730] {
            let err = run(n);
            assert!(err < 1e-10, "n={n}: err={err:.3e}");
        }
    }

    #[test]
    fn chirp_exponent_is_reduced_safely() {
        // For huge t, t² overflows u64; the u128 path must still give the
        // exactly-reduced angle.
        let n = 1000;
        let t = 3_000_000_007usize;
        let reduced = (t as u128 * t as u128 % (2 * n as u128)) as f64;
        let expect = c64::cis(-std::f64::consts::PI * reduced / n as f64);
        assert!((chirp_factor::<f64>(t, n) - expect).abs() < 1e-12);
    }

    #[test]
    fn plan_metadata() {
        let p = BluesteinPlan::<f64>::new(37);
        assert_eq!(p.len(), 37);
        assert!(p.scratch_len() >= 128);
        assert!(!p.is_empty());
    }

    #[test]
    fn large_prime_accuracy_holds() {
        let err = run(1009);
        assert!(err < 5e-10, "err={err:.3e}");
    }
}
