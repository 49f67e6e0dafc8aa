//! Window-level extraction of the full 53-feature vector.

use crate::ar_feats::{ar_features, ar_names, N_AR};
use crate::edr::extract_edr;
use crate::error::FeatureError;
use crate::hrv::{clean_rr, hrv_features, HRV_NAMES, N_HRV};
use crate::lorenz::{lorenz_features, LORENZ_NAMES, N_LORENZ};
use crate::psd_feats::{psd_features_reference, psd_features_with, psd_names, N_PSD};
use biodsp::kernels::ExtractPrecision;
use biodsp::qrs::{DetectScratch, LaneDetectScratch, PanTompkins, QrsDetection};
use std::cell::RefCell;

/// Total feature count (8 HRV + 7 Lorentz + 9 AR + 29 PSD = 53).
pub const N_FEATURES: usize = N_HRV + N_LORENZ + N_AR + N_PSD;

/// Feature families, in index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureFamily {
    /// Heart-rate-variability statistics (paper features 1–8).
    Hrv,
    /// Lorentz-plot geometry (9–15).
    Lorenz,
    /// EDR auto-regressive coefficients (16–24).
    Ar,
    /// EDR spectral band powers (25–53).
    Psd,
}

impl FeatureFamily {
    /// Family of 0-based feature index `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j >= N_FEATURES`.
    pub fn of(j: usize) -> FeatureFamily {
        assert!(j < N_FEATURES, "feature index {j} out of range");
        if j < N_HRV {
            FeatureFamily::Hrv
        } else if j < N_HRV + N_LORENZ {
            FeatureFamily::Lorenz
        } else if j < N_HRV + N_LORENZ + N_AR {
            FeatureFamily::Ar
        } else {
            FeatureFamily::Psd
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            FeatureFamily::Hrv => "HRV",
            FeatureFamily::Lorenz => "Lorenz",
            FeatureFamily::Ar => "AR",
            FeatureFamily::Psd => "PSD",
        }
    }
}

/// Names of all 53 features in index order.
pub fn feature_names() -> Vec<String> {
    let mut names: Vec<String> = Vec::with_capacity(N_FEATURES);
    names.extend(HRV_NAMES.iter().map(|s| s.to_string()));
    names.extend(LORENZ_NAMES.iter().map(|s| s.to_string()));
    names.extend(ar_names());
    names.extend(psd_names());
    names
}

/// Extracts the 53-feature vector from a raw ECG window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowExtractor {
    /// ECG sampling rate in Hz.
    pub fs: f64,
    /// QRS detector configuration.
    pub detector: PanTompkins,
    /// Arithmetic precision of the sample-rate hot loops (band-pass
    /// filtering, QRS energy, Welch FFTs). [`ExtractPrecision::F64`] —
    /// the default — is bit-identical to the historical pipeline;
    /// [`ExtractPrecision::F32`] trades last-bits feature accuracy for
    /// speed, with classification identity pinned by the
    /// `dsp_kernel_equivalence` suite. Beat-rate stages (HRV, Lorenz, AR,
    /// EDR resampling) always run in `f64` — they are two orders of
    /// magnitude off the hot path.
    pub precision: ExtractPrecision,
}

thread_local! {
    /// Scratch for [`WindowExtractor::extract`] one-shots, so ad-hoc
    /// callers (matrix builders, tests, tools) get warm buffers instead of
    /// re-allocating a full [`ExtractScratch`] per window.
    static ONE_SHOT_SCRATCH: RefCell<ExtractScratch> = RefCell::new(ExtractScratch::default());
}

impl WindowExtractor {
    /// Extractor with default Pan–Tompkins settings at
    /// [`ExtractPrecision::F64`].
    pub fn new(fs: f64) -> Self {
        WindowExtractor {
            fs,
            detector: PanTompkins::default(),
            precision: ExtractPrecision::default(),
        }
    }

    /// Extractor with default Pan–Tompkins settings at the given
    /// precision.
    pub fn with_precision(fs: f64, precision: ExtractPrecision) -> Self {
        WindowExtractor {
            precision,
            ..WindowExtractor::new(fs)
        }
    }

    /// Extracts all 53 features from one ECG window.
    ///
    /// One-shot convenience over [`WindowExtractor::extract_into`], which
    /// window-matrix builders and the streaming path use with a persistent
    /// [`ExtractScratch`]; both produce bit-identical feature vectors.
    /// Routes through a thread-local scratch, so repeated one-shot calls
    /// on one thread reuse warm buffers.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::TooFewBeats`] when the window contains fewer
    /// than 8 usable beats, and propagates DSP errors (window shorter than
    /// the detector's 2-second learning phase, etc.).
    pub fn extract(&self, ecg: &[f64]) -> Result<Vec<f64>, FeatureError> {
        let mut out = Vec::with_capacity(N_FEATURES);
        ONE_SHOT_SCRATCH
            .with(|scratch| self.extract_into(ecg, &mut scratch.borrow_mut(), &mut out))?;
        Ok(out)
    }

    /// Scratch-reusing extraction: clears and refills `out` with the
    /// 53-feature vector. The sample-rate-proportional work (QRS
    /// detection over the raw window) runs entirely in `scratch`'s
    /// buffers, so a hot loop that keeps one scratch per stream allocates
    /// nothing there after warm-up; the remaining beat-rate allocations
    /// (RR cleaning, EDR resampling) are two orders of magnitude smaller.
    /// Bit-identical to [`WindowExtractor::extract`].
    ///
    /// # Errors
    ///
    /// Same contract as [`WindowExtractor::extract`]; on error `out` is
    /// left cleared.
    pub fn extract_into(
        &self,
        ecg: &[f64],
        scratch: &mut ExtractScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), FeatureError> {
        out.clear();
        self.detector
            .detect_into_with(
                ecg,
                self.fs,
                self.precision,
                &mut scratch.detect,
                &mut scratch.detection,
            )
            .map_err(FeatureError::Dsp)?;
        self.finish_row(&scratch.detection, out)
    }

    /// Beat-rate tail shared by the scalar and lane-batched paths: RR
    /// cleaning, EDR extraction and the four feature families from one
    /// finished detection. Clears and refills `out`; on error `out` is
    /// left cleared.
    fn finish_row(&self, det: &QrsDetection, out: &mut Vec<f64>) -> Result<(), FeatureError> {
        out.clear();
        if det.peaks.len() < 8 {
            return Err(FeatureError::TooFewBeats {
                needed: 8,
                got: det.peaks.len(),
            });
        }
        let rr = clean_rr(&det.rr_intervals());
        let edr = extract_edr(det)?;
        out.reserve(N_FEATURES);
        out.extend_from_slice(&hrv_features(&rr));
        out.extend_from_slice(&lorenz_features(&rr));
        out.extend_from_slice(&ar_features(&edr));
        out.extend_from_slice(&psd_features_with(&edr, self.precision));
        debug_assert_eq!(out.len(), N_FEATURES);
        Ok(())
    }

    /// Lane-batched extraction of many windows: consecutive same-length
    /// windows are packed into SoA lane groups of 8, 4 or 2 and run
    /// lock-step through the dense DSP phases
    /// ([`biodsp::qrs::PanTompkins::detect_lanes_into`]); the branchy
    /// stages and the beat-rate feature tail run scalar per lane. The
    /// ragged tail of a group (and any window whose length breaks the
    /// run) falls back to the scalar [`WindowExtractor::extract_into`]
    /// path.
    ///
    /// `sink(j, result)` is called once per window in index order;
    /// `Ok` carries the 53-feature row (borrowed from `scratch` — copy
    /// it out before the next window). Every row is bit-identical to
    /// [`WindowExtractor::extract_into`] on that window alone, at both
    /// precisions, and per-window errors are the scalar path's.
    pub fn extract_batch_into(
        &self,
        windows: &[&[f64]],
        scratch: &mut BatchExtractScratch,
        mut sink: impl FnMut(usize, Result<&[f64], FeatureError>),
    ) {
        let n = windows.len();
        let mut i = 0usize;
        while i < n {
            // Longest run of same-length windows from i, capped at the
            // widest lane group.
            let len0 = windows[i].len();
            let mut run = 1usize;
            while i + run < n && run < 8 && windows[i + run].len() == len0 {
                run += 1;
            }
            let take = match run {
                8.. => 8,
                4..=7 => 4,
                2..=3 => 2,
                _ => 1,
            };
            match take {
                8 => self.extract_group::<8>(
                    i,
                    &windows[i..i + 8],
                    &mut scratch.l8_64,
                    &mut scratch.l8_32,
                    &mut scratch.detections,
                    &mut scratch.row,
                    &mut scratch.scalar,
                    &mut sink,
                ),
                4 => self.extract_group::<4>(
                    i,
                    &windows[i..i + 4],
                    &mut scratch.l4_64,
                    &mut scratch.l4_32,
                    &mut scratch.detections,
                    &mut scratch.row,
                    &mut scratch.scalar,
                    &mut sink,
                ),
                2 => self.extract_group::<2>(
                    i,
                    &windows[i..i + 2],
                    &mut scratch.l2_64,
                    &mut scratch.l2_32,
                    &mut scratch.detections,
                    &mut scratch.row,
                    &mut scratch.scalar,
                    &mut sink,
                ),
                _ => {
                    let r = self.extract_into(windows[i], &mut scratch.scalar, &mut scratch.row);
                    sink(i, r.map(|()| scratch.row.as_slice()));
                }
            }
            i += take;
        }
    }

    /// One L-wide lane group: lane detection, then the scalar tail per
    /// lane. A group-level detection error (too-short windows — the
    /// group shares one length) re-runs each window through the scalar
    /// path so error shapes match it exactly.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn extract_group<const L: usize>(
        &self,
        base: usize,
        group: &[&[f64]],
        lanes64: &mut LaneDetectScratch<f64, L>,
        lanes32: &mut LaneDetectScratch<f32, L>,
        detections: &mut Vec<QrsDetection>,
        row: &mut Vec<f64>,
        scalar: &mut ExtractScratch,
        sink: &mut dyn FnMut(usize, Result<&[f64], FeatureError>),
    ) {
        if detections.len() < L {
            detections.resize_with(L, QrsDetection::default);
        }
        let res = match self.precision {
            ExtractPrecision::F64 => self.detector.detect_lanes_into::<f64, L>(
                group,
                self.fs,
                lanes64,
                &mut detections[..L],
            ),
            ExtractPrecision::F32 => self.detector.detect_lanes_into::<f32, L>(
                group,
                self.fs,
                lanes32,
                &mut detections[..L],
            ),
        };
        match res {
            Ok(()) => {
                for (lane, det) in detections[..L].iter().enumerate() {
                    let r = self.finish_row(det, row);
                    sink(base + lane, r.map(|()| row.as_slice()));
                }
            }
            Err(_) => {
                for (off, w) in group.iter().enumerate() {
                    let r = self.extract_into(w, scalar, row);
                    sink(base + off, r.map(|()| row.as_slice()));
                }
            }
        }
    }

    /// Pre-fusion reference extraction: staged QRS detection
    /// ([`biodsp::qrs::PanTompkins::detect_into_reference`]) and the
    /// full-complex-FFT Welch path ([`psd_features_reference`]), always in
    /// `f64`. Kept as the honest baseline for the `dsp_kernel_equivalence`
    /// suite and the legacy bench row; at [`ExtractPrecision::F64`],
    /// [`WindowExtractor::extract_into`] matches it bit for bit on the
    /// beat-derived features and to ≤1e-12 relative on the PSD bands.
    ///
    /// # Errors
    ///
    /// Same contract as [`WindowExtractor::extract_into`].
    pub fn extract_into_reference(
        &self,
        ecg: &[f64],
        scratch: &mut ExtractScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), FeatureError> {
        out.clear();
        self.detector
            .detect_into_reference(ecg, self.fs, &mut scratch.detect, &mut scratch.detection)
            .map_err(FeatureError::Dsp)?;
        let det = &scratch.detection;
        if det.peaks.len() < 8 {
            return Err(FeatureError::TooFewBeats {
                needed: 8,
                got: det.peaks.len(),
            });
        }
        let rr = clean_rr(&det.rr_intervals());
        let edr = extract_edr(det)?;
        out.reserve(N_FEATURES);
        out.extend_from_slice(&hrv_features(&rr));
        out.extend_from_slice(&lorenz_features(&rr));
        out.extend_from_slice(&ar_features(&edr));
        out.extend_from_slice(&psd_features_reference(&edr));
        debug_assert_eq!(out.len(), N_FEATURES);
        Ok(())
    }
}

/// Reusable work state for [`WindowExtractor::extract_into`]: the QRS
/// detector's full-window buffers plus the detection itself.
#[derive(Debug, Clone, Default)]
pub struct ExtractScratch {
    detect: DetectScratch,
    detection: QrsDetection,
}

/// Reusable work state for [`WindowExtractor::extract_batch_into`]:
/// one [`LaneDetectScratch`] per lane width and precision (the unused
/// instantiations stay empty `Vec`s — a few pointers each), the shared
/// per-lane detections/row, and a scalar [`ExtractScratch`] for ragged
/// tails and fallback. Buffers are sized by `window_len × L`, so keep
/// one per *executor* (a fleet holds one per flush executor), not per
/// session.
#[derive(Debug, Default)]
pub struct BatchExtractScratch {
    scalar: ExtractScratch,
    detections: Vec<QrsDetection>,
    row: Vec<f64>,
    l2_64: LaneDetectScratch<f64, 2>,
    l4_64: LaneDetectScratch<f64, 4>,
    l8_64: LaneDetectScratch<f64, 8>,
    l2_32: LaneDetectScratch<f32, 2>,
    l4_32: LaneDetectScratch<f32, 4>,
    l8_32: LaneDetectScratch<f32, 8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple but beat-accurate synthetic ECG for extractor tests.
    fn synth_ecg(fs: f64, dur_s: f64, rr: f64, resp_hz: f64) -> Vec<f64> {
        let n = (fs * dur_s) as usize;
        let mut sig = vec![0.0f64; n];
        let mut bt = 0.5;
        let mut beats = Vec::new();
        while bt < dur_s {
            beats.push(bt);
            // Slight RSA so RR is not perfectly constant.
            bt += rr * (1.0 + 0.03 * (std::f64::consts::TAU * resp_hz * bt).sin());
        }
        for &t0 in &beats {
            let amp = 1.0 + 0.2 * (std::f64::consts::TAU * resp_hz * t0).sin();
            let centre = (t0 * fs) as isize;
            for k in -15..=15isize {
                let idx = centre + k;
                if idx >= 0 && (idx as usize) < n {
                    let dt = k as f64 / fs;
                    sig[idx as usize] += amp * (-dt * dt / (2.0 * 0.012f64.powi(2))).exp();
                }
            }
        }
        sig
    }

    #[test]
    fn layout_counts() {
        assert_eq!(N_FEATURES, 53);
        assert_eq!(feature_names().len(), 53);
        assert_eq!(FeatureFamily::of(0), FeatureFamily::Hrv);
        assert_eq!(FeatureFamily::of(7), FeatureFamily::Hrv);
        assert_eq!(FeatureFamily::of(8), FeatureFamily::Lorenz);
        assert_eq!(FeatureFamily::of(14), FeatureFamily::Lorenz);
        assert_eq!(FeatureFamily::of(15), FeatureFamily::Ar);
        assert_eq!(FeatureFamily::of(23), FeatureFamily::Ar);
        assert_eq!(FeatureFamily::of(24), FeatureFamily::Psd);
        assert_eq!(FeatureFamily::of(52), FeatureFamily::Psd);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn family_of_rejects_out_of_range() {
        let _ = FeatureFamily::of(53);
    }

    #[test]
    fn extracts_53_finite_features() {
        let fs = 128.0;
        let ecg = synth_ecg(fs, 60.0, 0.8, 0.25);
        let x = WindowExtractor::new(fs).extract(&ecg).unwrap();
        assert_eq!(x.len(), 53);
        assert!(x.iter().all(|v| v.is_finite()));
        // Mean HR should be near 75 bpm.
        assert!((x[4] - 75.0).abs() < 6.0, "hr {}", x[4]);
    }

    #[test]
    fn tachycardia_is_visible_in_features() {
        let fs = 128.0;
        let calm = WindowExtractor::new(fs)
            .extract(&synth_ecg(fs, 60.0, 0.9, 0.25))
            .unwrap();
        let fast = WindowExtractor::new(fs)
            .extract(&synth_ecg(fs, 60.0, 0.5, 0.4))
            .unwrap();
        assert!(fast[4] > calm[4] + 30.0); // mean HR up
        assert!(fast[0] < calm[0]); // mean NN down
    }

    #[test]
    fn extract_into_with_reused_scratch_is_bit_identical() {
        let fs = 128.0;
        let extractor = WindowExtractor::new(fs);
        let mut scratch = ExtractScratch::default();
        let mut row = Vec::new();
        // Three different windows through one scratch, interleaved with a
        // failing window: every success must match the one-shot extract
        // down to the bit.
        for (rr, resp) in [(0.8, 0.25), (0.5, 0.4), (1.0, 0.2)] {
            let ecg = synth_ecg(fs, 60.0, rr, resp);
            extractor
                .extract_into(&ecg, &mut scratch, &mut row)
                .unwrap();
            let reference = extractor.extract(&ecg).unwrap();
            assert_eq!(row.len(), reference.len());
            for (a, b) in row.iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "rr {rr}");
            }
            let flat = vec![0.0; 128 * 30];
            assert!(extractor
                .extract_into(&flat, &mut scratch, &mut row)
                .is_err());
            assert!(row.is_empty(), "errors must leave the row cleared");
        }
    }

    #[test]
    fn batch_extraction_matches_scalar_bitwise_with_ragged_tails() {
        let fs = 128.0;
        let extractor = WindowExtractor::new(fs);
        let mut windows: Vec<Vec<f64>> = [0.8, 0.5, 1.0, 0.7, 0.9, 0.6, 0.85, 0.75, 0.65]
            .iter()
            .map(|&rr| synth_ecg(fs, 60.0, rr, 0.25))
            .collect();
        // A too-few-beats window mid-group and a too-short straggler
        // that breaks the same-length run.
        windows[3].iter_mut().for_each(|v| *v = 0.0);
        windows.push(vec![0.0; 64]);
        let mut scalar = ExtractScratch::default();
        let mut want_row = Vec::new();
        for count in [1usize, 2, 3, 5, 9, 10] {
            let refs: Vec<&[f64]> = windows[..count].iter().map(|w| w.as_slice()).collect();
            let mut scratch = BatchExtractScratch::default();
            let mut got: Vec<Result<Vec<f64>, FeatureError>> = Vec::new();
            extractor.extract_batch_into(&refs, &mut scratch, |j, r| {
                assert_eq!(j, got.len(), "sink must run in window order");
                got.push(r.map(|row| row.to_vec()));
            });
            assert_eq!(got.len(), count);
            for (j, w) in refs.iter().enumerate() {
                let want = extractor.extract_into(w, &mut scalar, &mut want_row);
                match (&got[j], want) {
                    (Ok(g), Ok(())) => {
                        assert_eq!(g.len(), want_row.len());
                        for (a, b) in g.iter().zip(want_row.iter()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "count {count} window {j}");
                        }
                    }
                    (Err(e), Err(want_e)) => {
                        assert_eq!(e, &want_e, "count {count} window {j}");
                    }
                    (g, w) => panic!(
                        "count {count} window {j}: ok/err mismatch (batch ok={}, scalar ok={})",
                        g.is_ok(),
                        w.is_ok()
                    ),
                }
            }
        }
    }

    #[test]
    fn batch_extraction_matches_scalar_at_f32() {
        let fs = 128.0;
        let extractor = WindowExtractor::with_precision(fs, ExtractPrecision::F32);
        let windows: Vec<Vec<f64>> = [0.8, 0.5, 1.0, 0.7, 0.9, 0.6, 0.85, 0.75]
            .iter()
            .map(|&rr| synth_ecg(fs, 60.0, rr, 0.25))
            .collect();
        let refs: Vec<&[f64]> = windows.iter().map(|w| w.as_slice()).collect();
        let mut scalar = ExtractScratch::default();
        let mut want_row = Vec::new();
        let mut seen = 0usize;
        // One 8-lane f32 group: still bitwise against the scalar f32
        // path.
        let mut scratch = BatchExtractScratch::default();
        extractor.extract_batch_into(&refs, &mut scratch, |j, r| {
            let want = extractor.extract_into(refs[j], &mut scalar, &mut want_row);
            assert_eq!(r.is_ok(), want.is_ok());
            if let Ok(row) = r {
                for (a, b) in row.iter().zip(want_row.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "window {j}");
                }
            }
            seen += 1;
        });
        assert_eq!(seen, refs.len());
    }

    #[test]
    fn flat_window_errors() {
        let flat = vec![0.0; 128 * 30];
        let r = WindowExtractor::new(128.0).extract(&flat);
        assert!(matches!(r, Err(FeatureError::TooFewBeats { .. })));
    }

    #[test]
    fn short_window_errors() {
        let r = WindowExtractor::new(128.0).extract(&[0.0; 64]);
        assert!(matches!(r, Err(FeatureError::Dsp(_))));
    }

    #[test]
    fn family_labels() {
        assert_eq!(FeatureFamily::Hrv.label(), "HRV");
        assert_eq!(FeatureFamily::Psd.label(), "PSD");
    }

    #[test]
    fn names_are_unique() {
        let names = feature_names();
        let set: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
