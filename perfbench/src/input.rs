//! Seeded inputs and output checks. The program under test sees only the
//! generated samples, never the seed.

use soifft_num::c64;

/// SplitMix64: a small, well-mixed generator that needs no dependency.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// `n` complex samples, each component uniform in `[-1, 1)`.
pub fn signal(n: usize, seed: u64) -> Vec<c64> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| c64::new(2.0 * rng.unit() - 1.0, 2.0 * rng.unit() - 1.0))
        .collect()
}

/// The single-node reference spectrum of `x`.
pub fn reference(x: &[c64]) -> Vec<c64> {
    let mut y = x.to_vec();
    soifft_fft::Plan::new(x.len()).forward(&mut y);
    y
}

/// `(signal energy, error energy)` of `got` against `want`; sums over
/// ranks combine into one SNR with [`snr_db`].
pub fn energies(got: &[c64], want: &[c64]) -> (f64, f64) {
    assert_eq!(got.len(), want.len(), "output length");
    got.iter().zip(want).fold((0.0, 0.0), |(s, e), (g, w)| {
        (s + w.norm_sqr(), e + (*g - *w).norm_sqr())
    })
}

/// SNR in dB; an exact match reads as 400 dB (beyond any f64 rounding
/// error) so the value stays a finite number.
pub fn snr_db(signal: f64, error: f64) -> f64 {
    if error == 0.0 {
        400.0
    } else {
        10.0 * (signal / error).log10()
    }
}

/// True when every element of `a` has the same bits as `b`'s.
pub fn bit_identical(a: &[c64], b: &[c64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_input() {
        assert!(bit_identical(&signal(64, 7), &signal(64, 7)));
        assert!(!bit_identical(&signal(64, 7), &signal(64, 8)));
        assert!(signal(1000, 1)
            .iter()
            .all(|v| v.re.abs() <= 1.0 && v.im.abs() <= 1.0));
    }

    #[test]
    fn snr_of_a_known_error() {
        let want = vec![c64::new(1.0, 0.0); 4];
        let got: Vec<c64> = want.iter().map(|v| *v + c64::new(1e-5, 0.0)).collect();
        let (s, e) = energies(&got, &want);
        assert!((snr_db(s, e) - 100.0).abs() < 1e-6);
        assert_eq!(snr_db(s, 0.0), 400.0);
    }
}
