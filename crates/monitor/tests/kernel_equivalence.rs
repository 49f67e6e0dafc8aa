//! Micro-kernel equivalence re-pin on a real `Tiny` cohort — the
//! acceptance properties of the kernel layer:
//!
//! * **float, new vs old ordering** — the micro-kernel decision values
//!   (fixed-order 4-accumulator dot, SV-panel tiling, norm-form RBF)
//!   drift from a faithful replica of the pre-micro-kernel path by at
//!   most 1e-12 (relative), with *identical* classifications on every
//!   cohort row;
//! * **float, mutual bit-identity** — per-row, batch and streaming
//!   decisions agree to the bit (they all run the same micro-kernel);
//! * **quantised, i64 vs i128** — the fast integer path is bit-identical
//!   to the exact i128 reference across the whole cohort and the 2–16
//!   bit grid, and streaming decisions replay batch decisions bit for
//!   bit.

use epilepsy_monitor::prelude::*;
use seizure_core::stream::SharedEngine;
use std::sync::{Arc, OnceLock};
use svm::kernel::block;

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

/// Faithful replica of the pre-micro-kernel float decision path:
/// strictly sequential zip-fold dot, direct difference-form RBF, one
/// `kernel.eval` per SV.
fn naive_decision(p: &FloatPipeline, raw_row: &[f64]) -> f64 {
    let x = p.normalize(raw_row);
    let model = p.model();
    let naive_dot =
        |u: &[f64], v: &[f64]| -> f64 { u.iter().zip(v.iter()).map(|(a, b)| a * b).sum() };
    let naive_eval = |u: &[f64], v: &[f64]| -> f64 {
        match model.kernel() {
            Kernel::Linear => naive_dot(u, v),
            Kernel::Polynomial { degree } => (naive_dot(u, v) + 1.0).powi(degree as i32),
            Kernel::Rbf { gamma } => {
                let d2: f64 = u.iter().zip(v.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
                (-gamma * d2).exp()
            }
        }
    };
    let mut acc = model.bias();
    for (sv, &ay) in model.support_vectors().rows().zip(model.alpha_y().iter()) {
        acc += ay * naive_eval(x.as_slice(), sv);
    }
    acc
}

#[test]
fn float_microkernel_pins_to_old_ordering_within_1e12() {
    let m = cohort();
    let p = pipeline();
    assert!(m.n_rows() > 0, "cohort must yield windows");
    for (i, row) in m.rows().enumerate() {
        let old = naive_decision(p, row);
        let new = p.decision_value(row);
        let tol = 1e-12 * old.abs().max(1.0);
        assert!(
            (new - old).abs() <= tol,
            "row {i}: micro-kernel {new} vs naive {old}"
        );
        let old_class = if old >= 0.0 { 1.0 } else { -1.0 };
        assert_eq!(p.predict(row), old_class, "row {i}: classification flip");
    }
}

#[test]
fn float_per_row_batch_and_streaming_stay_mutually_bit_identical() {
    let m = cohort();
    let p = pipeline();
    // Per-row vs batch on the whole cohort.
    let batch = p.decision_batch(&m.features);
    for (i, row) in m.rows().enumerate() {
        assert_eq!(
            batch[i].to_bits(),
            p.decision_value(row).to_bits(),
            "row {i}"
        );
    }
    // Streaming replay of one session vs the batch path on its windows.
    assert_streaming_matches_batch(Arc::new(p.clone()), |row| p.decision_value(row));
}

#[test]
fn float_rbf_model_batch_matches_per_row_bitwise() {
    // The norm-form RBF is only exercised via a direct model (the paper
    // pipeline is quadratic); pin batch-vs-per-row bit-identity for it.
    let m = cohort();
    let p = pipeline();
    let normalized = p.normalize_batch(&m.features);
    let labels: Vec<f64> = m
        .labels
        .iter()
        .map(|&l| if l > 0 { 1.0 } else { -1.0 })
        .collect();
    let model = svm::smo::SmoTrainer::new(svm::smo::SmoConfig {
        kernel: Kernel::Rbf { gamma: 0.5 },
        ..Default::default()
    })
    .train(&normalized, &labels)
    .expect("rbf train");
    let batch = model.decision_batch(&normalized);
    for (i, row) in normalized.rows().enumerate() {
        assert_eq!(
            batch[i].to_bits(),
            model.decision_value(row).to_bits(),
            "rbf row {i}"
        );
    }
    // And the norm-form eval agrees with the direct form within 1e-12.
    let sv_sq = block::sq_norms(model.support_vectors());
    for (j, sv) in model.support_vectors().rows().enumerate().take(5) {
        let x = normalized.row(0);
        let direct = model.kernel().eval(x, sv);
        let prenorm = block::eval_prenorm(model.kernel(), x, block::sq_norm(x), sv, sv_sq[j]);
        assert!((prenorm - direct).abs() <= 1e-12, "sv {j}");
    }
}

#[test]
fn quantized_fast_path_matches_i128_reference_across_bit_grid() {
    let m = cohort();
    let p = pipeline();
    for d_bits in [2u32, 4, 9, 12, 16] {
        let engine = QuantizedEngine::from_pipeline(p, BitConfig::new(d_bits, 15))
            .expect("quantised engine");
        assert!(engine.uses_i64_fast_path(), "d_bits {d_bits}");
        let fast = engine.classify_batch(&m.features);
        let reference = engine.classify_batch_i128_reference(&m.features);
        assert_eq!(fast, reference, "d_bits {d_bits}");
    }
}

#[test]
fn quantized_streaming_replays_batch_bit_identically() {
    let p = pipeline();
    let engine =
        QuantizedEngine::from_pipeline(p, BitConfig::paper_choice()).expect("quantised engine");
    let reference = engine.clone();
    assert_streaming_matches_batch(Arc::new(engine), move |row| reference.decision_value(row));
}

/// Replays session 0 of the Tiny cohort through a streaming monitor in
/// 1-second chunks and checks every emitted decision against
/// `per_row(row)` on the batch-extracted feature row of the same window.
fn assert_streaming_matches_batch(engine: SharedEngine, per_row: impl Fn(&[f64]) -> f64) {
    let spec = spec();
    let rec = spec.sessions[0].synthesize();
    let window_s = spec.scale.window_s();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), window_s).expect("stream config");
    let extractor = epilepsy_monitor::features::WindowExtractor::new(rec.fs);

    let mut monitor = StreamingSession::new(engine, cfg).expect("stream config");
    let mut decisions = Vec::new();
    let mut fresh = Vec::new();
    for chunk in rec.ecg.chunks(rec.fs as usize) {
        monitor.push_samples_into(chunk, &mut fresh);
        decisions.append(&mut fresh);
    }

    let labels = rec.window_labels(window_s);
    assert_eq!(decisions.len(), labels.len());
    let mut checked = 0usize;
    for (d, label) in decisions.iter().zip(labels.iter()) {
        match (d.decision, extractor.extract(rec.window_samples(label))) {
            (Some(got), Ok(row)) => {
                let want = per_row(&row);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "window {}: stream {got} vs batch {want}",
                    d.window_index
                );
                checked += 1;
            }
            (None, Err(_)) => {}
            (got, want) => panic!(
                "window {}: dropped-state mismatch (stream {got:?}, batch ok={})",
                d.window_index,
                want.is_ok()
            ),
        }
    }
    assert!(checked > 0, "no classified windows to compare");
}
