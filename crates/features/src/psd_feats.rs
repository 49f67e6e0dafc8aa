//! Spectral EDR features (paper features 25–53): 29 band powers of the
//! EDR power spectral density.
//!
//! Bands are 0.15 Hz wide, centred every 0.05 Hz over `[0, 1.45)` Hz —
//! overlapping, as spectral-density features derived from smoothed
//! spectra are in practice. Adjacent bands therefore share two thirds of
//! their support and correlate strongly, reproducing the dominant red
//! block of the paper's Fig 3 correlation matrix that the
//! correlation-driven feature selection prunes first.

use crate::edr::EdrSeries;
use biodsp::kernels::ExtractPrecision;
use biodsp::psd::{welch, welch_reference};
use biodsp::window::WindowKind;

/// Number of PSD band features.
pub const N_PSD: usize = 29;

/// Band stride in Hz (band centres are `stride/2 + k*stride`).
pub const BAND_STRIDE_HZ: f64 = 0.025;

/// Band width in Hz (overlapping: width > stride).
pub const BAND_WIDTH_HZ: f64 = 0.10;

/// `[lo, hi)` limits of band `k` (clipped at 0 on the low side).
pub fn band_limits(k: usize) -> (f64, f64) {
    let centre = BAND_STRIDE_HZ / 2.0 + k as f64 * BAND_STRIDE_HZ;
    (
        (centre - BAND_WIDTH_HZ / 2.0).max(0.0),
        centre + BAND_WIDTH_HZ / 2.0,
    )
}

/// Feature names, `psd_band_0.03_0.10` style.
pub fn psd_names() -> Vec<String> {
    (0..N_PSD)
        .map(|k| {
            let (lo, hi) = band_limits(k);
            format!("psd_band_{lo:.2}_{hi:.2}")
        })
        .collect()
}

/// Computes the 29 log-power band features of the EDR spectrum.
///
/// Log-compression (`ln(1 + p)` on normalised powers) keeps the features'
/// dynamic range small, which matters for the fixed-point pipeline: a
/// power-of-two range per feature (Eq 6) must cover the feature's spread.
///
/// Degenerate series yield all zeros.
///
/// Uses the plan-cached real-input Welch path; see
/// [`psd_features_reference`].
pub fn psd_features(edr: &EdrSeries) -> [f64; N_PSD] {
    let mut out = [0.0; N_PSD];
    if edr.samples.len() < 16 {
        return out;
    }
    let nperseg = edr_nperseg(edr.samples.len());
    let spec = match welch(&edr.samples, edr.fs, nperseg, 0.5, WindowKind::Hann) {
        Ok(s) => s,
        Err(_) => return out,
    };
    band_log_powers(&spec, &mut out);
    out
}

/// [`psd_features`] under the name fleetbench's per-layer replay
/// compiles against; [`ExtractPrecision::F64`] is the only precision.
/// Kept only for that replay until the benchmark decouples from
/// extraction internals (ROADMAP item 1).
pub fn psd_features_with(edr: &EdrSeries, _precision: ExtractPrecision) -> [f64; N_PSD] {
    psd_features(edr)
}

/// Welch segment length for an EDR series of `n` samples.
fn edr_nperseg(n: usize) -> usize {
    n.next_power_of_two()
        .min(256)
        .min(n.next_power_of_two() / 2)
        .max(16)
}

/// Pre-fusion reference twin of [`psd_features`], built on
/// [`welch_reference`] (full complex FFT, window rebuilt per segment).
/// Kept for the `dsp_kernel_equivalence` suite and the legacy bench row.
pub fn psd_features_reference(edr: &EdrSeries) -> [f64; N_PSD] {
    let mut out = [0.0; N_PSD];
    if edr.samples.len() < 16 {
        return out;
    }
    let nperseg = edr_nperseg(edr.samples.len());
    let spec = match welch_reference(&edr.samples, edr.fs, nperseg, 0.5, WindowKind::Hann) {
        Ok(s) => s,
        Err(_) => return out,
    };
    band_log_powers(&spec, &mut out);
    out
}

fn band_log_powers(spec: &biodsp::psd::Spectrum, out: &mut [f64; N_PSD]) {
    let total = spec.total_power().max(f64::EPSILON);
    for (k, o) in out.iter_mut().enumerate() {
        let (lo, hi) = band_limits(k);
        // Share of total power: the modulation-depth common mode is
        // removed, so the *shape* of the spectrum (position and spread of
        // the respiratory peak) is what the features encode. Peak spread
        // is a concentration statistic — only quadratic combinations of
        // band shares can measure it, which is where the quadratic
        // kernel's Table I advantage comes from.
        let p = spec.band_power(lo, hi) / total;
        *o = (1.0 + 100.0 * p).ln();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edr::EdrSeries;

    fn tone_edr(f: f64, n: usize) -> EdrSeries {
        EdrSeries {
            fs: 4.0,
            samples: (0..n)
                .map(|i| (std::f64::consts::TAU * f * i as f64 / 4.0).sin())
                .collect(),
        }
    }

    #[test]
    fn band_containing_tone_dominates() {
        let edr = tone_edr(0.27, 720); // 3-minute window at 4 Hz
        let f = psd_features(&edr);
        let k_peak = biodsp::stats::argmax(&f).unwrap();
        let (lo, hi) = band_limits(k_peak);
        assert!(
            lo <= 0.27 && 0.27 < hi,
            "peak band [{lo},{hi}) should contain the tone"
        );
    }

    #[test]
    fn adjacent_bands_share_support() {
        // Overlap: band k and k+1 overlap by width - stride.
        for k in 1..N_PSD - 1 {
            let (_, hi_k) = band_limits(k);
            let (lo_next, _) = band_limits(k + 1);
            assert!(hi_k > lo_next, "bands {k} and {} must overlap", k + 1);
        }
    }

    #[test]
    fn neighbouring_features_are_correlated_over_varying_depth() {
        // Vary the modulation depth (the realistic dominant variance
        // source across windows): adjacent band features must co-vary
        // through the common mode.
        let mut f5 = Vec::new();
        let mut f6 = Vec::new();
        for i in 0..30 {
            let amp = 0.5 + 0.05 * i as f64;
            let f = 0.24 + 0.002 * i as f64;
            let samples: Vec<f64> = (0..600)
                .map(|k| amp * (std::f64::consts::TAU * f * k as f64 / 4.0).sin())
                .collect();
            let feats = psd_features(&EdrSeries { fs: 4.0, samples });
            f5.push(feats[5]);
            f6.push(feats[6]);
        }
        let rho = biodsp::stats::pearson(&f5, &f6).unwrap();
        assert!(rho > 0.5, "rho {rho}");
    }

    #[test]
    fn ictal_respiration_moves_power_up_in_frequency() {
        let calm = psd_features(&tone_edr(0.25, 720));
        let ictal = psd_features(&tone_edr(0.42, 720));
        let centroid = |f: &[f64; N_PSD]| {
            let tot: f64 = f.iter().sum();
            f.iter()
                .enumerate()
                .map(|(k, &v)| (k as f64 + 0.5) * BAND_STRIDE_HZ * v)
                .sum::<f64>()
                / tot
        };
        assert!(centroid(&ictal) > centroid(&calm) + 0.03);
    }

    #[test]
    fn degenerate_is_zeros() {
        let edr = EdrSeries {
            fs: 4.0,
            samples: vec![0.0; 8],
        };
        assert_eq!(psd_features(&edr), [0.0; N_PSD]);
    }

    #[test]
    fn features_are_bounded() {
        // Log of normalised power: bounded by ln(101).
        let edr = tone_edr(0.3, 500);
        let f = psd_features(&edr);
        assert!(f.iter().all(|&v| (0.0..=101f64.ln() + 1e-9).contains(&v)));
    }

    #[test]
    fn names_count() {
        let names = psd_names();
        assert_eq!(names.len(), N_PSD);
        assert!(names[0].starts_with("psd_band_0.00"));
    }
}
