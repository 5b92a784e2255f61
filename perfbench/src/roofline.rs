//! The machine's roofline, measured in the same run as the layers it
//! normalises: STREAM-style copy and triad bandwidth over arrays at least
//! four times the last-level cache, and an in-cache FFT peak.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use soifft_num::c64;

pub struct Roofline {
    pub llc_bytes: usize,
    pub array_bytes: usize,
    pub copy_gbps: f64,
    pub triad_gbps: f64,
    pub fft_peak_gflops: f64,
    pub axpy_peak_gflops: f64,
}

/// Largest cache size sysfs reports for CPU 0, or 32 MiB when it cannot
/// be read.
pub fn llc_bytes() -> usize {
    let size = |index: u32| -> Option<usize> {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let text = std::fs::read_to_string(path).ok()?;
        let text = text.trim();
        let (digits, scale) = if let Some(d) = text.strip_suffix('K') {
            (d, 1 << 10)
        } else if let Some(d) = text.strip_suffix('M') {
            (d, 1 << 20)
        } else {
            (text, 1)
        };
        Some(digits.parse::<usize>().ok()? * scale)
    };
    (0..8).filter_map(size).max().unwrap_or(32 << 20)
}

/// Runs `kernel` on `threads` scoped threads, each over one matching
/// chunk of the three arrays, and returns the wall time.
fn sweep(
    threads: usize,
    (a, b, c): (&mut [f64], &mut [f64], &mut [f64]),
    kernel: fn(&mut [f64], &mut [f64], &mut [f64]),
) -> f64 {
    let chunk = a.len().div_ceil(threads);
    let t = Instant::now();
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            s.spawn(move || kernel(a, b, c));
        }
    });
    t.elapsed().as_secs_f64()
}

/// Best-of-`reps` copy (`c = a`) and triad (`a = b + s·c`) bandwidth on
/// `threads` threads, counting 2 and 3 array sweeps of `array_bytes`.
fn stream(threads: usize, array_bytes: usize, reps: usize) -> (f64, f64) {
    let len = array_bytes / 8;
    let (mut a, mut b, mut c) = (vec![0f64; len], vec![0f64; len], vec![0f64; len]);
    // First touch on the threads that will stream each chunk.
    sweep(threads, (&mut a, &mut b, &mut c), |a, b, c| {
        a.fill(1.0);
        b.fill(2.0);
        c.fill(0.5);
    });
    let mut copy = f64::INFINITY;
    let mut triad = f64::INFINITY;
    for _ in 0..reps {
        copy = copy.min(sweep(threads, (&mut a, &mut b, &mut c), |a, _, c| {
            c.copy_from_slice(a)
        }));
        triad = triad.min(sweep(threads, (&mut a, &mut b, &mut c), |a, b, c| {
            for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                *a = b + 3.0 * c;
            }
        }));
    }
    std::hint::black_box((&a, &b, &c));
    (
        2.0 * array_bytes as f64 / copy * 1e-9,
        3.0 * array_bytes as f64 / triad * 1e-9,
    )
}

/// Aggregate GFLOP/s of `threads` threads, each calling `kernel` on its
/// own state from `init` back to back for about `seconds`.
fn peak<S>(
    threads: usize,
    seconds: f64,
    flops_per_call: f64,
    init: impl Fn() -> S + Sync,
    kernel: impl Fn(&mut S) + Sync,
) -> f64 {
    let calls = AtomicU64::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut state = init();
                let t = Instant::now();
                let mut k = 0;
                while t.elapsed().as_secs_f64() < seconds {
                    for _ in 0..16 {
                        kernel(&mut state);
                    }
                    k += 16;
                }
                std::hint::black_box(&mut state);
                calls.fetch_add(k, Ordering::Relaxed);
            });
        }
    });
    calls.into_inner() as f64 * flops_per_call / t.elapsed().as_secs_f64() * 1e-9
}

/// Peak of back-to-back in-cache `n`-point FFTs (`5 n log2 n` flops).
fn fft_peak(threads: usize, n: usize, seconds: f64) -> f64 {
    let plan = soifft_fft::Plan::new(n);
    let fresh: Vec<c64> = (0..n).map(|i| c64::new((i % 5) as f64, 1.0)).collect();
    let init = || (0u32, fresh.clone(), plan.make_scratch());
    peak(
        threads,
        seconds,
        soifft_fft::fft_flops(n),
        init,
        |(k, data, scratch)| {
            // Restart from the input every 16 transforms so magnitudes (which
            // grow by `n` per unnormalised transform) stay finite.
            if *k % 16 == 0 {
                data.copy_from_slice(&fresh);
            }
            *k += 1;
            plan.forward_with_scratch(data, scratch);
        },
    )
}

/// Peak of the convolution's complex multiply-accumulate kernel
/// (`soifft_num::kernels::axpy_pointwise`, 8 flops per element) on
/// `n`-element operands that stay in L1.
fn axpy_peak(threads: usize, n: usize, seconds: f64) -> f64 {
    let init = || {
        let t: Vec<c64> = (0..n).map(|i| c64::new(0.5, i as f64 * 1e-3)).collect();
        (vec![c64::ZERO; n], t.clone(), t)
    };
    peak(threads, seconds, 8.0 * n as f64, init, |(acc, t, x)| {
        soifft_num::kernels::axpy_pointwise(acc, t, x)
    })
}

/// Measures the roofline on `threads` threads.
pub fn measure(threads: usize) -> Roofline {
    let llc = llc_bytes();
    let array_bytes = 4 * llc;
    let (copy_gbps, triad_gbps) = stream(threads, array_bytes, 3);
    Roofline {
        llc_bytes: llc,
        array_bytes,
        copy_gbps,
        triad_gbps,
        fft_peak_gflops: fft_peak(threads, 1 << 12, 0.5),
        axpy_peak_gflops: axpy_peak(threads, 256, 0.5),
    }
}
