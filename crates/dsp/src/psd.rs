//! Power spectral density estimation: periodogram, Welch averaging and
//! Lomb–Scargle for unevenly sampled series (RR intervals).

use crate::error::DspError;
use crate::fft::{next_pow2, rfft};
use crate::kernels::RfftPlan;
use crate::window::WindowKind;
use std::cell::RefCell;
use std::f64::consts::PI;

/// A one-sided PSD estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Frequency grid in Hz (ascending, starting at 0 or the first Lomb
    /// frequency).
    pub freqs: Vec<f64>,
    /// Power density at each frequency, in signal-units²/Hz.
    pub power: Vec<f64>,
}

impl Spectrum {
    /// Total power in the band `[lo, hi)` Hz, integrated with the trapezoid
    /// rule over the stored grid.
    ///
    /// The grid is ascending, so the scan jumps (binary search, using the
    /// same `f1 <= lo` comparison as the per-bin skip) to the first
    /// overlapping trapezoid and stops at the first one past `hi` —
    /// visiting exactly the bins the full scan would, in the same order,
    /// with the same per-bin arithmetic.
    pub fn band_power(&self, lo: f64, hi: f64) -> f64 {
        let mut acc = 0.0;
        let start = self.freqs.partition_point(|&f| f <= lo).max(1);
        for i in start..self.freqs.len() {
            let f0 = self.freqs[i - 1];
            let f1 = self.freqs[i];
            if f0 >= hi {
                break;
            }
            if f1 <= lo {
                continue;
            }
            // Clip the trapezoid to the band.
            let a = f0.max(lo);
            let b = f1.min(hi);
            if b <= a {
                continue;
            }
            // Linear interpolation of power at the clipped edges.
            let t0 = (a - f0) / (f1 - f0);
            let t1 = (b - f0) / (f1 - f0);
            let p0 = self.power[i - 1] + (self.power[i] - self.power[i - 1]) * t0;
            let p1 = self.power[i - 1] + (self.power[i] - self.power[i - 1]) * t1;
            acc += 0.5 * (p0 + p1) * (b - a);
        }
        acc
    }

    /// Total power over the whole estimated band.
    pub fn total_power(&self) -> f64 {
        match (self.freqs.first(), self.freqs.last()) {
            (Some(&lo), Some(&hi)) => self.band_power(lo, hi + f64::EPSILON),
            _ => 0.0,
        }
    }

    /// Frequency of the maximum power bin; `None` on an empty spectrum.
    pub fn peak_frequency(&self) -> Option<f64> {
        crate::stats::argmax(&self.power).map(|i| self.freqs[i])
    }
}

/// Cached spectral machinery for one `(segment length, window)` shape:
/// window coefficients, their power normalisation, the real-input FFT
/// plan and every work buffer the hot loop touches. Kept
/// in a thread-local single-slot cache so the feature path — thousands of
/// Welch calls with one fixed `(nperseg, Hann)` shape per monitor thread —
/// builds windows and twiddle tables exactly once.
struct PlanSlot {
    wlen: usize,
    window: WindowKind,
    coeffs: Vec<f64>,
    /// `sum(w^2)` in [`WindowKind::apply`]'s accumulation order.
    wpow: f64,
    plan: RfftPlan<f64>,
    buf: Vec<f64>,
    pow: Vec<f64>,
}

thread_local! {
    static PLAN_SLOT: RefCell<Option<PlanSlot>> = const { RefCell::new(None) };
}

/// Runs `f` with the thread-local plan slot rebuilt (if necessary) for
/// `(wlen, window)`.
fn with_plan<R>(wlen: usize, window: WindowKind, f: impl FnOnce(&mut PlanSlot) -> R) -> R {
    PLAN_SLOT.with(|slot| {
        let mut slot = slot.borrow_mut();
        let rebuild = match slot.as_ref() {
            Some(s) => s.wlen != wlen || s.window != window,
            None => true,
        };
        if rebuild {
            let coeffs = window.coefficients(wlen);
            let wpow = coeffs.iter().map(|w| w * w).sum();
            *slot = Some(PlanSlot {
                wlen,
                window,
                coeffs,
                wpow,
                plan: RfftPlan::new(next_pow2(wlen)),
                buf: Vec::with_capacity(wlen),
                pow: Vec::new(),
            });
        }
        f(slot.as_mut().expect("plan slot filled"))
    })
}

/// Detrends, windows and transforms one segment, leaving the scaled
/// one-sided PSD bins in `slot.pow`. Mean removal and windowing are fused
/// into the transform input fill.
fn segment_power(slot: &mut PlanSlot, seg: &[f64], fs: f64) {
    let m = crate::stats::mean(seg);
    slot.buf.clear();
    slot.buf.extend(
        seg.iter()
            .zip(slot.coeffs.iter())
            .map(|(&v, &w)| (v - m) * w),
    );
    slot.plan.power_into(&slot.buf, &mut slot.pow);
    let nfft = slot.plan.len();
    let scale = 1.0 / (fs * slot.wpow);
    for (k, p) in slot.pow.iter_mut().enumerate() {
        *p *= scale;
        // One-sided: double everything except DC and Nyquist.
        if k != 0 && k != nfft / 2 {
            *p *= 2.0;
        }
    }
}

/// One-sided periodogram of an evenly sampled signal.
///
/// The signal is detrended (mean removal), windowed, zero-padded to a power
/// of two and scaled so that the integral of the PSD approximates the signal
/// variance.
///
/// Runs the plan-cached real-input FFT; [`periodogram_reference`] keeps the
/// pre-fusion full-complex path, which the `dsp_kernel_equivalence` suite
/// pins this against at ≤1e-12 relative.
///
/// # Errors
///
/// Returns [`DspError::TooShort`] for signals with fewer than 4 samples and
/// [`DspError::InvalidParameter`] for non-positive `fs`.
pub fn periodogram(signal: &[f64], fs: f64, window: WindowKind) -> Result<Spectrum, DspError> {
    if signal.len() < 4 {
        return Err(DspError::TooShort {
            needed: 4,
            got: signal.len(),
        });
    }
    if fs <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "fs",
            reason: "must be positive",
        });
    }
    with_plan(signal.len(), window, |slot| {
        segment_power(slot, signal, fs);
        let nfft = slot.plan.len();
        let nbins = nfft / 2 + 1;
        let freqs = (0..nbins).map(|k| k as f64 * fs / nfft as f64).collect();
        Ok(Spectrum {
            freqs,
            power: slot.pow.clone(),
        })
    })
}

/// Pre-fusion reference for [`periodogram`]: rebuilds the window, allocates
/// and zero-pads a full complex spectrum per call. Kept as the accuracy
/// reference for the planned real-input path and as the honest legacy
/// bench row.
///
/// # Errors
///
/// Same contract as [`periodogram`].
pub fn periodogram_reference(
    signal: &[f64],
    fs: f64,
    window: WindowKind,
) -> Result<Spectrum, DspError> {
    if signal.len() < 4 {
        return Err(DspError::TooShort {
            needed: 4,
            got: signal.len(),
        });
    }
    if fs <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "fs",
            reason: "must be positive",
        });
    }
    let m = crate::stats::mean(signal);
    let mut buf: Vec<f64> = signal.iter().map(|v| v - m).collect();
    let wpow = window.apply(&mut buf);
    let nfft = next_pow2(buf.len());
    let spec = rfft(&buf);
    let nbins = nfft / 2 + 1;
    let scale = 1.0 / (fs * wpow);
    let mut power = Vec::with_capacity(nbins);
    let mut freqs = Vec::with_capacity(nbins);
    for (k, s) in spec.iter().take(nbins).enumerate() {
        let mut p = s.norm_sqr() * scale;
        // One-sided: double everything except DC and Nyquist.
        if k != 0 && k != nfft / 2 {
            p *= 2.0;
        }
        power.push(p);
        freqs.push(k as f64 * fs / nfft as f64);
    }
    Ok(Spectrum { freqs, power })
}

/// Welch's method: averaged periodograms of `nperseg`-sample segments with
/// `overlap` fractional overlap in `[0, 1)`.
///
/// The window, FFT plan and all work buffers are hoisted out of the segment
/// loop through the thread-local plan cache, so the per-segment cost is one
/// fused fill plus one half-size FFT — no allocation, no window rebuild.
///
/// # Errors
///
/// Returns [`DspError::TooShort`] when the signal is shorter than `nperseg`,
/// and [`DspError::InvalidParameter`] for bad `overlap`/`nperseg`/`fs`.
pub fn welch(
    signal: &[f64],
    fs: f64,
    nperseg: usize,
    overlap: f64,
    window: WindowKind,
) -> Result<Spectrum, DspError> {
    if nperseg < 4 {
        return Err(DspError::InvalidParameter {
            name: "nperseg",
            reason: "must be >= 4",
        });
    }
    if !(0.0..1.0).contains(&overlap) {
        return Err(DspError::InvalidParameter {
            name: "overlap",
            reason: "must be in [0,1)",
        });
    }
    if signal.len() < nperseg {
        return Err(DspError::TooShort {
            needed: nperseg,
            got: signal.len(),
        });
    }
    let step = ((nperseg as f64) * (1.0 - overlap)).max(1.0) as usize;
    with_plan(nperseg, window, |slot| {
        let nfft = slot.plan.len();
        let nbins = nfft / 2 + 1;
        let mut acc = vec![0.0f64; nbins];
        let mut count = 0usize;
        let mut start = 0usize;
        while start + nperseg <= signal.len() {
            segment_power(slot, &signal[start..start + nperseg], fs);
            for (a, &p) in acc.iter_mut().zip(slot.pow.iter()) {
                *a += p;
            }
            count += 1;
            start += step;
        }
        for a in &mut acc {
            *a /= count as f64;
        }
        let freqs = (0..nbins).map(|k| k as f64 * fs / nfft as f64).collect();
        Ok(Spectrum { freqs, power: acc })
    })
}

/// Pre-fusion reference for [`welch`]: folds [`periodogram_reference`] per
/// segment, rebuilding the window and reallocating the FFT buffers each
/// time. Kept for the equivalence suite and the legacy bench rows.
///
/// # Errors
///
/// Same contract as [`welch`].
pub fn welch_reference(
    signal: &[f64],
    fs: f64,
    nperseg: usize,
    overlap: f64,
    window: WindowKind,
) -> Result<Spectrum, DspError> {
    if nperseg < 4 {
        return Err(DspError::InvalidParameter {
            name: "nperseg",
            reason: "must be >= 4",
        });
    }
    if !(0.0..1.0).contains(&overlap) {
        return Err(DspError::InvalidParameter {
            name: "overlap",
            reason: "must be in [0,1)",
        });
    }
    if signal.len() < nperseg {
        return Err(DspError::TooShort {
            needed: nperseg,
            got: signal.len(),
        });
    }
    let step = ((nperseg as f64) * (1.0 - overlap)).max(1.0) as usize;
    let mut acc: Option<Spectrum> = None;
    let mut count = 0usize;
    let mut start = 0usize;
    while start + nperseg <= signal.len() {
        let seg = &signal[start..start + nperseg];
        let p = periodogram_reference(seg, fs, window)?;
        match &mut acc {
            None => acc = Some(p),
            Some(a) => {
                for (ap, sp) in a.power.iter_mut().zip(p.power.iter()) {
                    *ap += sp;
                }
            }
        }
        count += 1;
        start += step;
    }
    let mut out = acc.expect("at least one segment fits by the length check");
    for p in &mut out.power {
        *p /= count as f64;
    }
    Ok(out)
}

/// Lomb–Scargle normalised periodogram for unevenly sampled data, evaluated
/// on `freqs` (Hz). Used for RR-interval (tachogram) spectra where samples
/// arrive at beat times.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] when `t` and `y` differ in length,
/// [`DspError::TooShort`] for fewer than 4 samples and
/// [`DspError::InvalidParameter`] for an empty frequency grid.
pub fn lomb_scargle(t: &[f64], y: &[f64], freqs: &[f64]) -> Result<Spectrum, DspError> {
    if t.len() != y.len() {
        return Err(DspError::LengthMismatch {
            left: t.len(),
            right: y.len(),
        });
    }
    if t.len() < 4 {
        return Err(DspError::TooShort {
            needed: 4,
            got: t.len(),
        });
    }
    if freqs.is_empty() {
        return Err(DspError::InvalidParameter {
            name: "freqs",
            reason: "must be non-empty",
        });
    }
    let my = crate::stats::mean(y);
    let vy = crate::stats::sample_variance(y);
    let yc: Vec<f64> = y.iter().map(|v| v - my).collect();
    let mut power = Vec::with_capacity(freqs.len());
    for &f in freqs {
        if f <= 0.0 {
            power.push(0.0);
            continue;
        }
        let w = 2.0 * PI * f;
        // Time offset tau that makes the basis orthogonal.
        let (mut s2, mut c2) = (0.0, 0.0);
        for &ti in t {
            s2 += (2.0 * w * ti).sin();
            c2 += (2.0 * w * ti).cos();
        }
        let tau = (s2.atan2(c2)) / (2.0 * w);
        let (mut cs, mut cc, mut ss, mut sc) = (0.0, 0.0, 0.0, 0.0);
        for (&ti, &yi) in t.iter().zip(yc.iter()) {
            let arg = w * (ti - tau);
            let c = arg.cos();
            let s = arg.sin();
            cs += yi * c;
            sc += yi * s;
            cc += c * c;
            ss += s * s;
        }
        let p = if vy > 0.0 && cc > 0.0 && ss > 0.0 {
            0.5 * (cs * cs / cc + sc * sc / ss) / vy
        } else {
            0.0
        };
        power.push(p);
    }
    Ok(Spectrum {
        freqs: freqs.to_vec(),
        power,
    })
}

/// Builds a linear frequency grid `[lo, hi]` with `n` points.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![lo];
    }
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(fs: f64, f: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn periodogram_finds_tone() {
        let fs = 64.0;
        let sig = tone(fs, 8.0, 512, 1.0);
        let spec = periodogram(&sig, fs, WindowKind::Hann).unwrap();
        let peak = spec.peak_frequency().unwrap();
        assert!((peak - 8.0).abs() < 0.5, "peak at {peak}");
    }

    #[test]
    fn periodogram_power_approximates_variance() {
        let fs = 32.0;
        let sig = tone(fs, 4.0, 1024, 2.0); // variance = amp^2/2 = 2.0
        let spec = periodogram(&sig, fs, WindowKind::Hann).unwrap();
        let total = spec.total_power();
        assert!((total - 2.0).abs() / 2.0 < 0.1, "total {total}");
    }

    #[test]
    fn periodogram_rejects_bad_inputs() {
        assert!(periodogram(&[1.0, 2.0], 10.0, WindowKind::Hann).is_err());
        assert!(periodogram(&[1.0; 8], 0.0, WindowKind::Hann).is_err());
    }

    #[test]
    fn band_power_splits_two_tones() {
        let fs = 64.0;
        let n = 2048;
        let sig: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * PI * 4.0 * t).sin() + 3.0 * (2.0 * PI * 12.0 * t).sin()
            })
            .collect();
        let spec = periodogram(&sig, fs, WindowKind::Hann).unwrap();
        let low = spec.band_power(2.0, 6.0);
        let high = spec.band_power(10.0, 14.0);
        // amp 1 vs amp 3 -> power ratio 9.
        assert!((high / low - 9.0).abs() < 1.5, "ratio {}", high / low);
    }

    #[test]
    fn welch_reduces_variance_of_estimate() {
        // White noise: Welch estimate should be flatter than the raw
        // periodogram. Compare coefficient of variation across bins.
        let mut seed = 0x12345678u64;
        let mut rand = || {
            // xorshift
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) - 0.5
        };
        let sig: Vec<f64> = (0..4096).map(|_| rand()).collect();
        let fs = 100.0;
        let raw = periodogram(&sig, fs, WindowKind::Hann).unwrap();
        let wel = welch(&sig, fs, 256, 0.5, WindowKind::Hann).unwrap();
        let cv = |s: &Spectrum| {
            let m = crate::stats::mean(&s.power[1..]);
            crate::stats::std_dev(&s.power[1..]) / m
        };
        assert!(cv(&wel) < cv(&raw) * 0.5);
    }

    #[test]
    fn welch_validates_parameters() {
        let sig = vec![0.0; 100];
        assert!(welch(&sig, 10.0, 2, 0.5, WindowKind::Hann).is_err());
        assert!(welch(&sig, 10.0, 64, 1.0, WindowKind::Hann).is_err());
        assert!(welch(&sig, 10.0, 128, 0.5, WindowKind::Hann).is_err());
    }

    #[test]
    fn lomb_scargle_finds_tone_in_uneven_samples() {
        // Jittered sampling times.
        let mut seed = 99u64;
        let mut rand = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed as f64 / u64::MAX as f64
        };
        let f0 = 0.25; // Hz (HRV-like)
        let t: Vec<f64> = (0..400).map(|i| i as f64 * 0.8 + 0.3 * rand()).collect();
        let y: Vec<f64> = t.iter().map(|&ti| (2.0 * PI * f0 * ti).sin()).collect();
        let freqs = linspace(0.01, 0.5, 200);
        let spec = lomb_scargle(&t, &y, &freqs).unwrap();
        let peak = spec.peak_frequency().unwrap();
        assert!((peak - f0).abs() < 0.02, "peak {peak}");
    }

    #[test]
    fn lomb_scargle_validates() {
        assert!(lomb_scargle(&[1.0, 2.0], &[1.0], &[0.1]).is_err());
        assert!(lomb_scargle(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0], &[0.1]).is_err());
        let t = [0.0, 1.0, 2.0, 3.0];
        assert!(lomb_scargle(&t, &[0.0; 4], &[]).is_err());
    }

    #[test]
    fn band_power_clipping() {
        let spec = Spectrum {
            freqs: vec![0.0, 1.0, 2.0],
            power: vec![1.0, 1.0, 1.0],
        };
        assert!((spec.band_power(0.0, 2.0) - 2.0).abs() < 1e-12);
        assert!((spec.band_power(0.5, 1.5) - 1.0).abs() < 1e-12);
        assert_eq!(spec.band_power(3.0, 4.0), 0.0);
        assert_eq!(spec.band_power(1.0, 1.0), 0.0);
    }

    #[test]
    fn linspace_edges() {
        assert!(linspace(0.0, 1.0, 0).is_empty());
        assert_eq!(linspace(2.0, 9.0, 1), vec![2.0]);
        let g = linspace(0.0, 1.0, 5);
        assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    fn two_tone(fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * PI * 0.31 * t).sin() + 0.4 * (2.0 * PI * 1.7 * t).sin() + 0.05 * t
            })
            .collect()
    }

    #[test]
    fn planned_periodogram_tracks_reference() {
        let fs = 4.0;
        for n in [20usize, 128, 157, 500] {
            let sig = two_tone(fs, n);
            let new = periodogram(&sig, fs, WindowKind::Hann).unwrap();
            let old = periodogram_reference(&sig, fs, WindowKind::Hann).unwrap();
            assert_eq!(new.freqs, old.freqs, "n {n}");
            let pmax = old.power.iter().fold(0.0f64, |a, &b| a.max(b));
            for (a, b) in new.power.iter().zip(old.power.iter()) {
                assert!((a - b).abs() <= 1e-12 * pmax, "n {n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn hoisted_welch_tracks_reference() {
        let fs = 4.0;
        let sig = two_tone(fs, 600);
        let new = welch(&sig, fs, 128, 0.5, WindowKind::Hann).unwrap();
        let old = welch_reference(&sig, fs, 128, 0.5, WindowKind::Hann).unwrap();
        assert_eq!(new.freqs, old.freqs);
        let pmax = old.power.iter().fold(0.0f64, |a, &b| a.max(b));
        for (a, b) in new.power.iter().zip(old.power.iter()) {
            assert!((a - b).abs() <= 1e-12 * pmax, "{a} vs {b}");
        }
    }

    #[test]
    fn welch_is_exact_fold_of_planned_periodograms() {
        // The hoisted loop must be bit-identical to averaging the planned
        // periodogram of each segment by hand.
        let fs = 4.0;
        let sig = two_tone(fs, 600);
        let nperseg = 128;
        let step = 64;
        let wel = welch(&sig, fs, nperseg, 0.5, WindowKind::Hann).unwrap();
        let mut acc = vec![0.0f64; nperseg / 2 + 1];
        let mut count = 0usize;
        let mut start = 0usize;
        while start + nperseg <= sig.len() {
            let p = periodogram(&sig[start..start + nperseg], fs, WindowKind::Hann).unwrap();
            for (a, &v) in acc.iter_mut().zip(p.power.iter()) {
                *a += v;
            }
            count += 1;
            start += step;
        }
        for a in &mut acc {
            *a /= count as f64;
        }
        assert_eq!(wel.power.len(), acc.len());
        for (a, b) in wel.power.iter().zip(acc.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
