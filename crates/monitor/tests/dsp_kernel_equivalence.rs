//! DSP micro-kernel equivalence re-pin on a real `Tiny` cohort — the
//! acceptance properties of the fused front-end (PR 7):
//!
//! * **fused vs staged, bit-identity** — the cascade-fused filter chain,
//!   the fused derivative→squaring→integration energy kernel and the
//!   bucket-grid peak filter reproduce the staged reference path bit for
//!   bit on every window of the cohort, peaks and amplitudes included;
//! * **planned rfft vs full FFT, ≤1e-12** — the real-input FFT behind
//!   `periodogram`/`welch` tracks the legacy full-complex transform to
//!   1e-12 relative on real EDR spectra, and whole-window extraction is
//!   bit-identical on the 24 beat-derived features with only the 29 PSD
//!   bands moving inside that tolerance;
//! * **chunking invariance survives fusion** — seeded random-sized
//!   chunks through a streaming session still replay the batch decisions
//!   bit for bit.

use epilepsy_monitor::features::extract::{ExtractScratch, WindowExtractor};
use epilepsy_monitor::prelude::*;
use simrand::rngs::StdRng;
use simrand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

fn spec() -> &'static DatasetSpec {
    static SPEC: OnceLock<DatasetSpec> = OnceLock::new();
    SPEC.get_or_init(|| DatasetSpec::new(Scale::Tiny, 42))
}

fn cohort() -> &'static FeatureMatrix {
    static M: OnceLock<FeatureMatrix> = OnceLock::new();
    M.get_or_init(|| build_feature_matrix(spec()))
}

fn pipeline() -> &'static FloatPipeline {
    static P: OnceLock<FloatPipeline> = OnceLock::new();
    P.get_or_init(|| {
        FloatPipeline::fit(cohort(), &FitConfig::default()).expect("fit on Tiny cohort")
    })
}

/// Runs `f` on every analysis window of every Tiny session; returns how
/// many windows were visited.
fn for_each_window(mut f: impl FnMut(&[f64], f64)) -> usize {
    let spec = spec();
    let window_s = spec.scale.window_s();
    let mut n = 0usize;
    for sess in &spec.sessions {
        let rec = sess.synthesize();
        for label in rec.window_labels(window_s) {
            f(rec.window_samples(&label), rec.fs);
            n += 1;
        }
    }
    n
}

#[test]
fn fused_filtfilt_matches_reference_bitwise_on_real_ecg() {
    use epilepsy_monitor::dsp::filter::{FiltFiltScratch, SosCascade};
    let mut scratch = FiltFiltScratch::default();
    let mut fused = Vec::new();
    let mut reference = Vec::new();
    let n = for_each_window(|w, fs| {
        let bp = SosCascade::butterworth_bandpass(5.0, 15.0, fs, 1).expect("band-pass");
        bp.filtfilt_into(w, &mut scratch, &mut fused);
        bp.filtfilt_into_reference(w, &mut scratch, &mut reference);
        assert_eq!(fused.len(), reference.len());
        for (i, (a, b)) in fused.iter().zip(reference.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sample {i}");
        }
    });
    assert!(n > 0, "cohort must yield windows");
}

#[test]
fn fused_detection_matches_reference_bitwise_on_tiny_cohort() {
    use epilepsy_monitor::dsp::qrs::{DetectScratch, PanTompkins, QrsDetection};
    let det = PanTompkins::default();
    let mut scratch = DetectScratch::default();
    let mut fused = QrsDetection::default();
    let mut reference = QrsDetection::default();
    let mut peaks = 0usize;
    for_each_window(|w, fs| {
        det.detect_into(w, fs, &mut scratch, &mut fused)
            .expect("fused detect");
        det.detect_into_reference(w, fs, &mut scratch, &mut reference)
            .expect("reference detect");
        assert_eq!(fused.peaks.len(), reference.peaks.len());
        for (a, b) in fused.peaks.iter().zip(reference.peaks.iter()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(a.amplitude.to_bits(), b.amplitude.to_bits());
        }
        peaks += fused.peaks.len();
    });
    assert!(peaks > 100, "expected beats across the cohort, got {peaks}");
}

#[test]
fn planned_welch_tracks_reference_on_real_edr() {
    use epilepsy_monitor::dsp::psd::{welch, welch_reference};
    use epilepsy_monitor::dsp::qrs::PanTompkins;
    use epilepsy_monitor::dsp::window::WindowKind;
    use epilepsy_monitor::features::edr::extract_edr;
    let det = PanTompkins::default();
    let mut checked = 0usize;
    for_each_window(|w, fs| {
        let d = det.detect(w, fs).expect("detect");
        if d.peaks.len() < 8 {
            return;
        }
        let edr = extract_edr(&d).expect("edr");
        if edr.samples.len() < 128 {
            return;
        }
        let new = welch(&edr.samples, edr.fs, 128, 0.5, WindowKind::Hann).expect("welch");
        let old =
            welch_reference(&edr.samples, edr.fs, 128, 0.5, WindowKind::Hann).expect("welch ref");
        assert_eq!(new.freqs, old.freqs);
        let pmax = old.power.iter().fold(0.0f64, |a, &b| a.max(b));
        for (k, (a, b)) in new.power.iter().zip(old.power.iter()).enumerate() {
            assert!((a - b).abs() <= 1e-12 * pmax, "bin {k}: {a} vs {b}");
        }
        checked += 1;
    });
    assert!(checked > 10, "too few spectra compared: {checked}");
}

#[test]
fn fused_extraction_pins_beat_features_bitwise_and_psd_to_1e12() {
    let extractor = WindowExtractor::new(spec().scale.fs());
    let mut s_new = ExtractScratch::default();
    let mut s_ref = ExtractScratch::default();
    let mut row_new = Vec::new();
    let mut row_ref = Vec::new();
    let mut checked = 0usize;
    for_each_window(|w, _| {
        let a = extractor.extract_into(w, &mut s_new, &mut row_new);
        let b = extractor.extract_into_reference(w, &mut s_ref, &mut row_ref);
        assert_eq!(a.is_ok(), b.is_ok(), "drop-state mismatch");
        if a.is_err() {
            return;
        }
        // HRV + Lorenz + AR (beat-derived, untouched by the rfft swap):
        // bit-identical.
        for j in 0..24 {
            assert_eq!(
                row_new[j].to_bits(),
                row_ref[j].to_bits(),
                "feature {j}: {} vs {}",
                row_new[j],
                row_ref[j]
            );
        }
        // PSD bands: log-compressed band shares, pinned at 1e-12 absolute
        // (the shares are O(1) by construction).
        for j in 24..53 {
            assert!(
                (row_new[j] - row_ref[j]).abs() <= 1e-12,
                "feature {j}: {} vs {}",
                row_new[j],
                row_ref[j]
            );
        }
        checked += 1;
    });
    assert!(checked > 10, "too few windows compared: {checked}");
}

/// Deterministic seeded chunk-size stream in `[1, max_chunk]`.
fn random_chunks(seed: u64, max_chunk: usize, total: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut left = total;
    while left > 0 {
        let c = rng.next_u64() as usize % max_chunk + 1;
        let c = c.min(left);
        out.push(c);
        left -= c;
    }
    out
}

#[test]
fn random_chunk_streaming_replays_batch_bitwise_through_fused_kernels() {
    let spec = spec();
    let rec = spec.sessions[0].synthesize();
    let window_s = spec.scale.window_s();
    let fs = spec.scale.fs();
    let cfg = StreamConfig::non_overlapping(fs, window_s).expect("stream config");
    let p = pipeline();
    let engine: Arc<FloatPipeline> = Arc::new(p.clone());
    let extractor = WindowExtractor::new(fs);
    let labels = rec.window_labels(window_s);

    for seed in [7u64, 0xDEAD_BEEF, 9_000_017] {
        let mut monitor = StreamingSession::new(engine.clone(), cfg).expect("monitor");
        let mut decisions = Vec::new();
        let mut fresh = Vec::new();
        let mut fed = 0usize;
        for c in random_chunks(seed, 3 * fs as usize, rec.ecg.len()) {
            monitor.push_samples_into(&rec.ecg[fed..fed + c], &mut fresh);
            decisions.append(&mut fresh);
            fed += c;
        }
        assert_eq!(decisions.len(), labels.len(), "seed {seed}");
        let mut checked = 0usize;
        for (d, label) in decisions.iter().zip(labels.iter()) {
            match (d.decision, extractor.extract(rec.window_samples(label))) {
                (Some(got), Ok(row)) => {
                    let want = p.decision_value(&row);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "seed {seed} window {}",
                        d.window_index
                    );
                    checked += 1;
                }
                (None, Err(_)) => {}
                (got, want) => panic!(
                    "seed {seed} window {}: dropped-state mismatch (stream {got:?}, batch ok={})",
                    d.window_index,
                    want.is_ok()
                ),
            }
        }
        assert!(checked > 0, "seed {seed}: nothing compared");
    }
}
