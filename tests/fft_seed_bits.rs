//! Seed-bits golden: the node-local FFT kernels reproduce, bit for bit,
//! the outputs of the original scalar Cooley–Tukey butterflies.
//!
//! Each case runs a transform on a fixed deterministic input and hashes
//! the raw output bits with 64-bit FNV-1a. The committed fixture
//! `tests/data/fft_seed_bits.txt` was recorded with the scalar,
//! full-table kernels that predate the division-free AVX2 butterflies;
//! both the dispatched path (AVX2 where detected) and
//! `SOIFFT_FORCE_SCALAR=1` must match it exactly, which is what lets the
//! pipeline's `snr_db` and every bit-identity suite above it stay
//! unchanged across kernel rewrites.
//!
//! Regenerate (only when an output change is intended and explained)
//! with `SOIFFT_WRITE_GOLDEN=1 cargo test --test fft_seed_bits`.

use soifft::fft::{Plan, SixStepFft, SixStepVariant};
use soifft::num::{c32, c64, Complex, Real};
use soifft::par::Pool;

/// Deterministic finite values in [-1, 1) (xorshift, as in the parity
/// suite).
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn input(len: usize, seed: u64) -> Vec<c64> {
    let mut next = stream(seed);
    (0..len).map(|_| c64::new(next(), next())).collect()
}

/// 64-bit FNV-1a over the little-endian bits of every component.
fn fnv1a<T: Real>(v: &[Complex<T>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for z in v {
        if T::BYTES == 8 {
            eat(&z.re.to_f64().to_bits().to_le_bytes());
            eat(&z.im.to_f64().to_bits().to_le_bytes());
        } else {
            eat(&(z.re.to_f64() as f32).to_bits().to_le_bytes());
            eat(&(z.im.to_f64() as f32).to_bits().to_le_bytes());
        }
    }
    h
}

fn plan_f64(n: usize) -> u64 {
    let mut x = input(n, n as u64);
    Plan::<f64>::new(n).forward(&mut x);
    fnv1a(&x)
}

fn plan_f32(n: usize) -> u64 {
    let mut x: Vec<c32> = input(n, n as u64).into_iter().map(c32::from_c64).collect();
    Plan::<f32>::new(n).forward(&mut x);
    fnv1a(&x)
}

fn sixstep(n: usize, variant: SixStepVariant, scaled: bool) -> u64 {
    let plan = SixStepFft::with_pool(n, variant, Pool::new(2));
    let mut x = input(n, n as u64 ^ 0x5eed);
    let mut aux = vec![c64::ZERO; n];
    if scaled {
        let scale = input(n, 0x5ca1e);
        plan.forward_scaled(&mut x, &mut aux, &scale);
    } else {
        plan.forward(&mut x, &mut aux);
    }
    fnv1a(&x)
}

/// `(case name, fingerprint)` for every pinned transform.
fn fingerprints() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    // Every combine path: the radix-2/4 leaves, radix-8 stages with even
    // and odd column counts, radix 3/5, generic primes, Bluestein.
    for n in [
        2,
        3,
        4,
        5,
        7,
        8,
        16,
        31,
        12,
        40,
        360,
        640,
        1009,
        1024,
        4096,
        3 << 10,
        1 << 20,
    ] {
        out.push((format!("plan_f64_{n}"), plan_f64(n)));
    }
    for n in [16, 640, 1024, 1009] {
        out.push((format!("plan_f32_{n}"), plan_f32(n)));
    }
    for variant in SixStepVariant::LADDER {
        for scaled in [false, true] {
            out.push((
                format!("sixstep_{variant:?}_4096_scaled{}", u8::from(scaled)),
                sixstep(4096, variant, scaled),
            ));
        }
    }
    // The pipeline's recovery-FFT geometry (M' = 655360 on the benchmark's
    // bulk workload), with the demodulation diagonal fused in.
    out.push((
        "sixstep_FusedDynamic_655360_scaled1".into(),
        sixstep(655_360, SixStepVariant::FusedDynamic, true),
    ));
    out
}

fn render(cases: &[(String, u64)]) -> String {
    cases
        .iter()
        .map(|(name, h)| format!("{name} {h:016x}\n"))
        .collect()
}

#[test]
fn fft_outputs_match_seed_bits() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/fft_seed_bits.txt");
    let got = render(&fingerprints());
    if std::env::var("SOIFFT_WRITE_GOLDEN").is_ok() {
        std::fs::write(&fixture, &got).unwrap();
    }
    let want = std::fs::read_to_string(&fixture).expect("seed-bits fixture");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "FFT output bits drifted from the seed kernels");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "case list changed"
    );
}
