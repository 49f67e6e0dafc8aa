//! Streaming-vs-batch equivalence on a real `Tiny` cohort — the
//! subsystem's acceptance property:
//!
//! For a synthesised session fed to [`StreamingSession`] in **arbitrary
//! chunk sizes** (1 sample up to the whole session, plus a deterministic
//! seeded random sweep), the per-window decisions are **bit-identical** (f64
//! bit patterns) to the batch path — extract the same windows, classify
//! the block through the same engine — for both the float pipeline and
//! the quantised engine. Windows the batch path drops (failed
//! extraction) are exactly the windows the stream marks dropped.

use epilepsy_monitor::fleet::load_engine;
use epilepsy_monitor::prelude::*;
use simrand::rngs::StdRng;
use simrand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

fn spec() -> &'static DatasetSpec {
    static SPEC: OnceLock<DatasetSpec> = OnceLock::new();
    SPEC.get_or_init(|| DatasetSpec::new(Scale::Tiny, 42))
}

fn pipeline() -> &'static FloatPipeline {
    static PIPE: OnceLock<FloatPipeline> = OnceLock::new();
    PIPE.get_or_init(|| {
        let matrix = build_feature_matrix(spec());
        FloatPipeline::fit(&matrix, &FitConfig::default()).expect("fit on Tiny cohort")
    })
}

/// Batch reference for one session: per-window decision (None = window
/// dropped by extraction) computed by extracting every window and pushing
/// the survivors through the engine's batch entry point.
fn batch_reference(
    rec: &epilepsy_monitor::sim::session::SessionRecording,
    window_s: f64,
    engine: &dyn ClassifierEngine,
) -> Vec<Option<(f64, f64)>> {
    let extractor = epilepsy_monitor::features::WindowExtractor::new(rec.fs);
    let labels = rec.window_labels(window_s);
    let mut kept_rows = DenseMatrix::with_cols(epilepsy_monitor::features::N_FEATURES);
    let mut kept_at = Vec::new();
    for (w, label) in labels.iter().enumerate() {
        if let Ok(row) = extractor.extract(rec.window_samples(label)) {
            kept_rows.push_row(&row);
            kept_at.push(w);
        }
    }
    let decisions = engine.decision_batch(&kept_rows);
    let classes = engine.classify_batch(&kept_rows);
    let mut out = vec![None; labels.len()];
    for ((&w, d), c) in kept_at.iter().zip(decisions).zip(classes) {
        out[w] = Some((d, c));
    }
    out
}

fn assert_stream_matches_batch(
    decisions: &[WindowDecision],
    reference: &[Option<(f64, f64)>],
    window_len: usize,
    label: &str,
) {
    assert_eq!(decisions.len(), reference.len(), "{label}: window count");
    for (d, r) in decisions.iter().zip(reference.iter()) {
        assert_eq!(
            d.start_sample,
            d.window_index * window_len as u64,
            "{label}: window geometry"
        );
        match (d.decision, r) {
            (Some(got), Some((want, class))) => {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{label}: decision of window {} ({got} vs {want})",
                    d.window_index
                );
                assert_eq!(
                    d.is_seizure,
                    *class >= 0.0,
                    "{label}: class of window {}",
                    d.window_index
                );
            }
            (None, None) => assert!(!d.is_seizure),
            (got, want) => panic!(
                "{label}: window {} dropped-state mismatch (stream {got:?}, batch {want:?})",
                d.window_index
            ),
        }
    }
}

fn run_chunked(
    monitor: &mut StreamingSession,
    ecg: &[f64],
    mut next_len: impl FnMut() -> usize,
) -> Vec<WindowDecision> {
    let mut out = Vec::new();
    let mut fresh = Vec::new();
    let mut fed = 0usize;
    while fed < ecg.len() {
        let len = next_len().clamp(1, ecg.len() - fed);
        monitor.push_samples_into(&ecg[fed..fed + len], &mut fresh);
        out.append(&mut fresh);
        fed += len;
    }
    out
}

#[test]
fn streaming_is_bit_identical_to_batch_for_both_engines() {
    let spec = spec();
    let window_s = spec.scale.window_s();
    let fs = spec.scale.fs();
    let cfg = StreamConfig::non_overlapping(fs, window_s).expect("stream config");
    let p = pipeline();
    let quantized =
        QuantizedEngine::from_pipeline(p, BitConfig::paper_choice()).expect("quantized engine");
    let engines: [(&str, Arc<dyn ClassifierEngine>); 2] = [
        ("float", Arc::new(p.clone())),
        ("quantized", Arc::new(quantized)),
    ];

    // A session with seizures so both classes appear in the stream.
    let session = spec
        .sessions
        .iter()
        .find(|s| !s.seizures.is_empty())
        .expect("Tiny cohort has seizures");
    let rec = session.synthesize();

    for (name, engine) in &engines {
        let reference = batch_reference(&rec, window_s, engine.as_ref());
        assert!(reference.iter().filter(|r| r.is_some()).count() >= 5);

        // Fixed chunk sizes: single samples, sub-second packets, one
        // second, odd sizes straddling window boundaries, exactly one
        // window, the whole session.
        for chunk_len in [1usize, 13, 128, 1000, cfg.window_len, rec.ecg.len()] {
            let mut monitor =
                StreamingSession::new(Arc::clone(engine), cfg).expect("monitor config");
            let mut decisions = Vec::new();
            let mut fresh = Vec::new();
            for chunk in rec.chunks(chunk_len) {
                monitor.push_samples_into(chunk, &mut fresh);
                decisions.append(&mut fresh);
            }
            assert_stream_matches_batch(
                &decisions,
                &reference,
                cfg.window_len,
                &format!("{name}/chunk={chunk_len}"),
            );
            let stats = monitor.stats();
            assert_eq!(stats.windows as usize, reference.len());
            assert_eq!(stats.samples_in, rec.ecg.len() as u64);
            assert_eq!(
                stats.dropped as usize,
                reference.iter().filter(|r| r.is_none()).count()
            );
            assert_eq!(
                stats.seizure_windows as usize,
                decisions.iter().filter(|d| d.is_seizure).count()
            );
        }

        // Deterministic seeded sweep over random chunkings.
        let mut rng = StdRng::seed_from_u64(0xD15E_A5E5 ^ name.len() as u64);
        for _round in 0..4 {
            let mut monitor =
                StreamingSession::new(Arc::clone(engine), cfg).expect("monitor config");
            let decisions = run_chunked(&mut monitor, &rec.ecg, || {
                1 + (rng.next_u64() as usize) % (2 * cfg.window_len)
            });
            assert_stream_matches_batch(
                &decisions,
                &reference,
                cfg.window_len,
                &format!("{name}/random"),
            );
        }
    }
}

#[test]
fn restarting_from_persisted_pipeline_is_bit_identical() {
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s())
        .expect("stream config");
    let p = pipeline();
    let rec = spec.sessions[0].synthesize();

    // Float engine from text.
    let text = p.to_text();
    let mut live = StreamingSession::new(Arc::new(p.clone()), cfg).unwrap();
    let mut restored = StreamingSession::new(load_engine(&text, None).unwrap(), cfg).unwrap();
    assert_eq!(restored.engine_info(), live.engine_info());

    // Quantised engine rebuilt from the same text plus a bit config.
    let bits = BitConfig::paper_choice();
    let bits_restored = BitConfig::from_text(&bits.to_text()).unwrap();
    let quantized = QuantizedEngine::from_pipeline(p, bits).unwrap();
    let mut qlive = StreamingSession::new(Arc::new(quantized), cfg).unwrap();
    let mut qrestored =
        StreamingSession::new(load_engine(&text, Some(bits_restored)).unwrap(), cfg).unwrap();

    // Compare the semantic fields (latency is wall-clock and may differ).
    let same = |a: &[WindowDecision], b: &[WindowDecision], label: &str| {
        assert_eq!(a.len(), b.len(), "{label}: window count");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.window_index, y.window_index, "{label}");
            assert_eq!(x.start_sample, y.start_sample, "{label}");
            assert_eq!(
                x.decision.map(f64::to_bits),
                y.decision.map(f64::to_bits),
                "{label}: window {} must be bit-identical after restart",
                x.window_index
            );
            assert_eq!(x.is_seizure, y.is_seizure, "{label}");
        }
    };
    for chunk in rec.chunks(997) {
        same(
            &live.push_samples(chunk),
            &restored.push_samples(chunk),
            "float engine restart",
        );
        same(
            &qlive.push_samples(chunk),
            &qrestored.push_samples(chunk),
            "quantized engine restart",
        );
    }
    assert!(live.stats().windows >= 5);
}

#[test]
fn corrupt_persisted_pipeline_is_rejected_at_load_not_at_first_window() {
    // Point one selected feature far past the 53 columns extraction
    // produces: loading must refuse the file instead of a session
    // panicking on the first classified window.
    let text = pipeline()
        .to_text()
        .replacen("features 0 ", "features 99999 ", 1);
    assert!(load_engine(&text, None).is_err());
    assert!(load_engine(&text, Some(BitConfig::paper_choice())).is_err());
}
