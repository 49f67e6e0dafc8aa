//! Property-based tests of the DSP substrate's numerical invariants.
//!
//! The offline build has no `proptest`, so the properties are exercised
//! with a deterministic seeded case generator: same coverage
//! style (random-ish inputs, invariant assertions), fully reproducible.

use biodsp::fft::{fft, ifft, Complex};
use biodsp::filter::{median_filter, moving_average, SosCascade};
use biodsp::psd::{periodogram, Spectrum};
use biodsp::resample::interp_linear;
use biodsp::stats;
use biodsp::window::WindowKind;
use simrand::rngs::StdRng;
use simrand::{Rng, SeedableRng};

/// Deterministic case generator over the workspace PRNG.
struct Gen(StdRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(StdRng::seed_from_u64(seed))
    }
    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn unit(&mut self) -> f64 {
        self.0.gen()
    }
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        self.0.gen_range(lo..hi)
    }
    fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.u64() % (hi - lo + 1) as u64) as usize
    }
    fn signal(&mut self, min_len: usize, max_len: usize) -> Vec<f64> {
        let n = self.int(min_len, max_len);
        (0..n).map(|_| self.range(-100.0, 100.0)).collect()
    }
}

const CASES: usize = 64;

/// ifft(fft(x)) == x to numerical precision for any power-of-two
/// complex signal.
#[test]
fn fft_roundtrip() {
    let mut g = Gen::new(1);
    for _ in 0..CASES {
        let sig: Vec<Complex> = (0..64)
            .map(|_| Complex::new(g.range(-1e3, 1e3), g.range(-1e3, 1e3)))
            .collect();
        let back = ifft(&fft(&sig));
        for (a, b) in back.iter().zip(sig.iter()) {
            assert!((*a - *b).norm() < 1e-6);
        }
    }
}

/// Parseval: time-domain and frequency-domain energies agree.
#[test]
fn fft_parseval() {
    let mut g = Gen::new(2);
    for _ in 0..CASES {
        let sig: Vec<Complex> = (0..128)
            .map(|_| Complex::new(g.range(-1e2, 1e2), 0.0))
            .collect();
        let spec = fft(&sig);
        let te: f64 = sig.iter().map(|c| c.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / 128.0;
        assert!((te - fe).abs() <= 1e-6 * te.max(1.0));
    }
}

/// The periodogram's total power approximates the signal variance
/// (within a factor accounting for windowing bias on short records).
#[test]
fn periodogram_power_tracks_variance() {
    let mut g = Gen::new(3);
    for _ in 0..CASES {
        let sig = g.signal(16, 256);
        let var = stats::variance(&sig);
        if var <= 1e-6 {
            continue;
        }
        let spec = periodogram(&sig, 32.0, WindowKind::Hann).unwrap();
        let total = spec.total_power();
        assert!(total > 0.0);
        assert!(total < 20.0 * var, "total {total} var {var}");
        assert!(total > var / 20.0, "total {total} var {var}");
    }
}

/// Band powers over a partition sum to (at most) the total power.
#[test]
fn band_powers_partition() {
    let mut g = Gen::new(4);
    for _ in 0..CASES {
        let sig = g.signal(16, 128);
        let spec = periodogram(&sig, 16.0, WindowKind::Hann).unwrap();
        let total = spec.total_power();
        let halves = spec.band_power(0.0, 4.0) + spec.band_power(4.0, 8.0 + 1e-9);
        assert!((halves - total).abs() <= 1e-6 * total.max(1e-12));
    }
}

/// Zero-phase band-pass filtering rejects the DC level of a constant
/// signal.
#[test]
fn filtfilt_preserves_dc() {
    let mut g = Gen::new(5);
    for _ in 0..CASES {
        let level = g.range(-50.0, 50.0);
        let n = g.int(64, 256);
        let cascade = SosCascade::butterworth_bandpass(1.0, 8.0, 64.0, 1).unwrap();
        let sig = vec![level; n];
        let out = cascade.filtfilt(&sig);
        // Band-pass kills DC regardless of level.
        let tail = &out[n / 2..];
        assert!(stats::rms(tail) < 0.05 * level.abs().max(1.0));
    }
}

/// Moving average of length 1 is the identity; longer windows never
/// exceed the input range.
#[test]
fn moving_average_bounds() {
    let mut g = Gen::new(6);
    for _ in 0..CASES {
        let sig = g.signal(8, 128);
        let len = g.int(1, 15);
        let out = moving_average(&sig, len).unwrap();
        assert_eq!(out.len(), sig.len());
        let (lo, hi) = (stats::min(&sig), stats::max(&sig));
        for &v in &out {
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
        if len == 1 {
            for (a, b) in out.iter().zip(sig.iter()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }
}

/// Median filtering is bounded by the input range.
#[test]
fn median_filter_bounds() {
    let mut g = Gen::new(7);
    for _ in 0..CASES {
        let sig = g.signal(8, 96);
        let len = 2 * g.int(0, 3) + 1;
        let out = median_filter(&sig, len).unwrap();
        let (lo, hi) = (stats::min(&sig), stats::max(&sig));
        for &v in &out {
            assert!(v >= lo && v <= hi);
        }
    }
}

/// Linear interpolation at the knots returns the knot values, and
/// between knots stays within the bracketing values.
#[test]
fn interpolation_brackets() {
    let mut g = Gen::new(8);
    for _ in 0..CASES {
        let n = g.int(3, 19);
        let ys: Vec<f64> = (0..n).map(|_| g.range(-50.0, 50.0)).collect();
        let t = g.unit();
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        for (x, y) in xs.iter().zip(ys.iter()) {
            let v = interp_linear(&xs, &ys, *x).unwrap();
            assert!((v - y).abs() < 1e-12);
        }
        let k = (ys.len() - 2) as f64 * t;
        let i = k.floor() as usize;
        let v = interp_linear(&xs, &ys, k).unwrap();
        let (a, b) = (ys[i].min(ys[i + 1]), ys[i].max(ys[i + 1]));
        assert!(v >= a - 1e-9 && v <= b + 1e-9);
    }
}

/// Variance is translation-invariant and scales quadratically.
#[test]
fn variance_affine_rules() {
    let mut g = Gen::new(9);
    for _ in 0..CASES {
        let sig = g.signal(8, 64);
        let shift = g.range(-50.0, 50.0);
        let scale = g.range(0.1, 5.0);
        let v0 = stats::variance(&sig);
        let shifted: Vec<f64> = sig.iter().map(|x| x + shift).collect();
        let scaled: Vec<f64> = sig.iter().map(|x| x * scale).collect();
        assert!((stats::variance(&shifted) - v0).abs() < 1e-6 * v0.max(1.0));
        assert!(
            (stats::variance(&scaled) - scale * scale * v0).abs()
                < 1e-6 * (scale * scale * v0).max(1.0)
        );
    }
}

/// Pearson is invariant under positive affine maps of either input.
#[test]
fn pearson_affine_invariance() {
    let mut g = Gen::new(10);
    for _ in 0..CASES {
        let sig = g.signal(8, 64);
        let a = g.range(0.1, 10.0);
        let b = g.range(-20.0, 20.0);
        if stats::std_dev(&sig) <= 1e-6 {
            continue;
        }
        let other: Vec<f64> = sig
            .iter()
            .enumerate()
            .map(|(i, &v)| v + (i as f64).sin() * 5.0)
            .collect();
        if stats::std_dev(&other) <= 1e-6 {
            continue;
        }
        let r0 = stats::pearson(&sig, &other).unwrap();
        let mapped: Vec<f64> = sig.iter().map(|x| a * x + b).collect();
        let r1 = stats::pearson(&mapped, &other).unwrap();
        assert!((r0 - r1).abs() < 1e-8);
    }
}

/// Spectrum::band_power with inverted band is zero.
#[test]
fn inverted_band_is_empty() {
    let spec = Spectrum {
        freqs: vec![0.0, 1.0, 2.0],
        power: vec![1.0, 1.0, 1.0],
    };
    assert_eq!(spec.band_power(2.0, 1.0), 0.0);
}
